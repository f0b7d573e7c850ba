//! Materializing and replaying a traffic scenario through the admission
//! stack.
//!
//! Two deliberately separate stages:
//!
//! 1. [`timeline`] turns a [`ScenarioSpec`] into an explicit, sorted
//!    list of [`Arrival`]s — every time, size, mode and deadline is an
//!    absolute integer. This is the seam the metamorphic time-scaling
//!    relation needs: [`scale_timeline`] multiplies the *stored*
//!    quantities, avoiding any re-derived rounding.
//! 2. [`replay`] drives the arrivals through one [`AdmissionIntake`]
//!    per tier into a shared [`Lac`], draining each tier at its own
//!    cadence (the priority mechanism: premium tiers drain more often;
//!    at coincident ticks, tiers drain in declaration order), and
//!    reports per-tier exact latency percentiles, deadline-hit rate,
//!    shed breakdown, and goodput.
//!
//! [`run`] is simply `replay(spec, &timeline(spec))`.

use crate::percentile::{LatencySummary, PercentileReporter};
use crate::spec::{ScenarioSpec, TierSpec};
use crate::streams::TrafficStream;
use cmpqos_core::{
    AdmissionIntake, AdmissionRequest, ExecutionMode, IntakeConfig, Lac, LacConfig, ResourceRequest,
};
use cmpqos_obs::NullRecorder;
use cmpqos_types::{Cycles, JobId, NodeId, Percent, SourceId, Ways};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One materialized job arrival; every field is absolute and integer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Absolute arrival instant in cycles.
    pub at: u64,
    /// Owning tier index (priority order).
    pub tier: usize,
    /// Tenant source within the tier.
    pub source: u32,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Requested L2 ways (always 1 core).
    pub ways: u16,
    /// Maximum wall-clock time in cycles.
    pub tw: u64,
    /// Absolute deadline, if the tier assigns deadlines.
    pub deadline: Option<u64>,
}

/// Derives the per-source RNG seed for `(spec seed, tier, source)`.
fn source_seed(seed: u64, tier: usize, source: u32) -> u64 {
    seed ^ 0xA11C_E5CE ^ ((tier as u64) << 40) ^ (u64::from(source) << 20)
}

/// Materializes the spec's full arrival timeline: one seeded integer
/// stream per `(tier, source)` pair, merged and sorted by
/// `(time, tier, source)`. The key is unique, since a stream's gaps are
/// at least one cycle, so the order is total and the replay is
/// deterministic at any engine width.
#[must_use]
pub fn timeline(spec: &ScenarioSpec) -> Vec<Arrival> {
    let mut arrivals: Vec<Arrival> = Vec::new();
    for (t, tier) in spec.tiers.iter().enumerate() {
        for s in 0..tier.sources {
            let seed = source_seed(spec.seed, t, s);
            let mut stream = TrafficStream::new(tier.mean_inter_arrival, tier.shape, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51DE_CA57);
            loop {
                let at = stream.next_arrival().get();
                if at > spec.horizon {
                    break;
                }
                let tw = tier.size.sample(&mut rng);
                let roll = rng.gen_range(0..100u32);
                let mode = if roll < tier.mix.strict_pct {
                    ExecutionMode::Strict
                } else if roll < tier.mix.strict_pct + tier.mix.elastic_pct {
                    ExecutionMode::Elastic(Percent::new(f64::from(tier.mix.elastic_slack_pct)))
                } else {
                    ExecutionMode::Opportunistic
                };
                let ways =
                    rng.gen_range(u32::from(spec.ways_min)..u32::from(spec.ways_max) + 1) as u16;
                // `tw × pct / 100` in 128 bits, so no size or slack
                // overflows, clamped at the admission horizon. Splitting
                // `tw` at 100 keeps the division in 64 bits.
                let deadline =
                    (tier.deadline_slack_pct > 0 && mode.reserves_resources()).then(|| {
                        let pct = u64::from(tier.deadline_slack_pct);
                        let slack = u128::from(tw / 100) * u128::from(pct)
                            + u128::from(tw % 100 * pct / 100);
                        (u128::from(at) + slack).min(u128::from(Cycles::HORIZON.get())) as u64
                    });
                arrivals.push(Arrival {
                    at,
                    tier: t,
                    source: s,
                    mode,
                    ways,
                    tw,
                    deadline,
                });
            }
        }
    }
    arrivals.sort_unstable_by_key(|a| (a.at, a.tier, a.source));
    arrivals
}

/// Multiplies every stored time in the timeline by `k` (arrival, `tw`,
/// deadline). Pair with [`ScenarioSpec::scaled`] for the exact
/// time-scaling metamorphic relation.
#[must_use]
pub fn scale_timeline(arrivals: &[Arrival], k: u64) -> Vec<Arrival> {
    arrivals
        .iter()
        .map(|a| Arrival {
            at: a.at * k,
            tw: a.tw * k,
            deadline: a.deadline.map(|d| d * k),
            ..*a
        })
        .collect()
}

/// Per-tier outcome report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierReport {
    /// Tier name.
    pub name: String,
    /// Jobs offered to the tier's intake.
    pub offered: u64,
    /// Shed at offer time: infeasible deadline slack.
    pub shed_infeasible: u64,
    /// Shed at offer time: per-tenant token bucket empty.
    pub shed_rate_limited: u64,
    /// Shed at offer time: circuit breaker open.
    pub shed_breaker: u64,
    /// Shed at offer time: bounded queue full.
    pub shed_queue_full: u64,
    /// Drained jobs the LAC accepted.
    pub admitted: u64,
    /// Drained jobs the LAC rejected (including drain-time sheds).
    pub rejected: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Reserving jobs that carried a deadline.
    pub deadline_total: u64,
    /// Of those, jobs admitted with a feasible reservation (the LAC
    /// only accepts timeslots that finish by the deadline, so admitted
    /// = met). Shed and rejected deadline jobs count as misses.
    pub deadline_hits: u64,
    /// Admitted useful work: Σ `tw` of accepted jobs, in cycles, saturating
    /// at `u64::MAX`.
    pub goodput: u64,
    /// Exact admission-latency percentiles over drained jobs
    /// (cycles waited between offer and LAC decision).
    pub latency: LatencySummary,
}

impl TierReport {
    /// Total sheds at offer time.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed_infeasible + self.shed_rate_limited + self.shed_breaker + self.shed_queue_full
    }

    /// Deadline-hit rate in per-mille (`None` when the tier had no
    /// deadline-carrying jobs).
    #[must_use]
    pub fn deadline_hit_permille(&self) -> Option<u64> {
        (self.deadline_total > 0).then(|| self.deadline_hits * 1000 / self.deadline_total)
    }
}

/// The whole scenario's outcome: one report per tier, in priority
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficReport {
    /// Scenario name.
    pub name: String,
    /// Per-tier reports, highest priority first.
    pub tiers: Vec<TierReport>,
}

impl TrafficReport {
    /// Jobs offered across all tiers.
    #[must_use]
    pub fn total_offered(&self) -> u64 {
        self.tiers.iter().map(|t| t.offered).sum()
    }

    /// Jobs admitted across all tiers.
    #[must_use]
    pub fn total_admitted(&self) -> u64 {
        self.tiers.iter().map(|t| t.admitted).sum()
    }
}

fn intake_config(tier: &TierSpec) -> IntakeConfig {
    IntakeConfig::builder()
        .queue_capacity(tier.queue_capacity)
        .bucket_capacity(tier.bucket_capacity.min(u64::from(u32::MAX)) as u32)
        .refill_interval(Cycles::new(tier.refill_interval))
        .breaker_window(tier.breaker_window as usize)
        .breaker_threshold_pct(tier.breaker_threshold_pct)
        .breaker_cooldown(Cycles::new(tier.breaker_cooldown))
        .build()
}

/// Replays a materialized timeline through per-tier intakes into one
/// shared LAC and reports per-tier outcomes.
///
/// The spec supplies everything *except* the arrivals (intake knobs,
/// drain cadences, horizon); callers normally use [`run`], while the
/// metamorphic relation replays a [`scale_timeline`]d copy under a
/// [`ScenarioSpec::scaled`] spec.
#[must_use]
pub fn replay(spec: &ScenarioSpec, arrivals: &[Arrival]) -> TrafficReport {
    let mut lac = Lac::new(LacConfig::default());
    let mut rec = NullRecorder;
    let mut intakes: Vec<AdmissionIntake> = spec
        .tiers
        .iter()
        .enumerate()
        .map(|(t, tier)| AdmissionIntake::new(NodeId::new(t as u32), intake_config(tier)))
        .collect();

    // Job metadata by id (= timeline index), for goodput and deadline
    // accounting at drain time: (tw, carries a counted deadline).
    let meta: Vec<(u64, bool)> = arrivals
        .iter()
        .map(|a| (a.tw, a.deadline.is_some() && a.mode.reserves_resources()))
        .collect();
    let horizon = arrivals
        .iter()
        .map(|a| a.at)
        .max()
        .unwrap_or(0)
        .max(spec.horizon);

    // Build the event schedule: every arrival, plus each tier's drain
    // ticks (multiples of its cadence) and a final drain at the horizon
    // so no job is stranded in a queue. Offers sort before drains at
    // the same instant; coincident drains run in tier (priority) order.
    let mut events: Vec<(u64, u8, usize, usize)> = Vec::new(); // (time, kind, tier, payload)
    for (i, a) in arrivals.iter().enumerate() {
        events.push((a.at, 0, a.tier, i));
    }
    for (t, tier) in spec.tiers.iter().enumerate() {
        let de = tier.drain_every.max(1);
        let mut tick = de;
        while tick <= horizon {
            events.push((tick, 1, t, 0));
            tick += de;
        }
        if horizon % de != 0 {
            events.push((horizon, 1, t, 0));
        }
    }
    events.sort_by_key(|&(time, kind, tier, payload)| (time, kind, tier, payload));

    let mut reporters: Vec<PercentileReporter> = spec
        .tiers
        .iter()
        .map(|_| PercentileReporter::default())
        .collect();
    let mut deadline_total = vec![0u64; spec.tiers.len()];
    let mut deadline_hits = vec![0u64; spec.tiers.len()];
    let mut goodput = vec![0u64; spec.tiers.len()];

    for (time, kind, tier, payload) in events {
        let now = Cycles::new(time);
        match kind {
            0 => {
                let a = &arrivals[payload];
                let id = JobId::new(payload as u32);
                if meta[payload].1 {
                    deadline_total[tier] += 1;
                }
                let mut b = AdmissionRequest::builder(
                    id,
                    ResourceRequest::new(1, Ways::new(a.ways)),
                    Cycles::new(a.tw),
                )
                .source(SourceId::new(a.source))
                .mode(a.mode);
                if let Some(td) = a.deadline {
                    b = b.deadline(Cycles::new(td));
                }
                let _ = intakes[tier].offer(b.build(), now, &mut rec);
            }
            _ => {
                for d in intakes[tier].drain(&mut lac, now, &mut rec) {
                    reporters[tier].record(d.waited.get());
                    if d.decision.is_accepted() {
                        let (tw, counts_deadline) = meta[d.id.as_usize()];
                        // Saturates: a spec's sizes are capped, not its
                        // admitted total.
                        goodput[tier] = goodput[tier].saturating_add(tw);
                        if counts_deadline {
                            deadline_hits[tier] += 1;
                        }
                    }
                }
            }
        }
    }

    let tiers = spec
        .tiers
        .iter()
        .enumerate()
        .map(|(t, tier)| {
            let stats = intakes[t].stats();
            TierReport {
                name: tier.name.clone(),
                offered: stats.offered,
                shed_infeasible: stats.shed_infeasible,
                shed_rate_limited: stats.shed_rate_limited,
                shed_breaker: stats.shed_breaker,
                shed_queue_full: stats.shed_queue_full,
                admitted: stats.admitted,
                rejected: stats.rejected,
                breaker_trips: stats.breaker_trips,
                deadline_total: deadline_total[t],
                deadline_hits: deadline_hits[t],
                goodput: goodput[t],
                latency: reporters[t].summary(),
            }
        })
        .collect();
    TrafficReport {
        name: spec.name.clone(),
        tiers,
    }
}

/// Materializes and replays `spec` in one call.
#[must_use]
pub fn run(spec: &ScenarioSpec) -> TrafficReport {
    replay(spec, &timeline(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ModeMix, ScenarioSpec, TierSpec};
    use crate::streams::{ArrivalShape, SizeDist};

    fn two_tier_spec() -> ScenarioSpec {
        ScenarioSpec::new("unit", 5)
            .horizon(40_000)
            .ways(2, 5)
            .tier(
                TierSpec::new("premium")
                    .sources(2)
                    .mean_inter_arrival(1_500)
                    .drain_every(200)
                    .deadline_slack_pct(400),
            )
            .tier(
                TierSpec::new("batch")
                    .sources(2)
                    .mean_inter_arrival(1_500)
                    .shape(ArrivalShape::Bursty {
                        period: 8_000,
                        on_pct: 25,
                        burst_div: 6,
                    })
                    .size(SizeDist {
                        base: 1_000,
                        tail_pct: 30,
                        tail_cap: 4,
                    })
                    .mix(ModeMix {
                        strict_pct: 30,
                        elastic_pct: 20,
                        elastic_slack_pct: 25,
                    })
                    .drain_every(2_000),
            )
    }

    #[test]
    fn deadlines_are_exact_and_clamped_at_the_horizon() {
        // Sizes up to 2^40 << 3 and slacks up to u32::MAX: the product
        // needs 128 bits, and the largest deadlines pass the horizon.
        for slack in [100, 400, 12_345, u32::MAX] {
            let spec = ScenarioSpec::new("wide", 9).horizon(200_000).tier(
                TierSpec::new("t")
                    .size(SizeDist {
                        base: (1 << 40) - 7,
                        tail_pct: 50,
                        tail_cap: 3,
                    })
                    .deadline_slack_pct(slack),
            );
            let arrivals = timeline(&spec);
            assert!(arrivals.iter().any(|a| a.deadline.is_some()));
            for a in arrivals.iter().filter(|a| a.deadline.is_some()) {
                let exact = u128::from(a.at) + u128::from(a.tw) * u128::from(slack) / 100;
                let clamped = exact.min(u128::from(Cycles::HORIZON.get()));
                assert_eq!(a.deadline.map(u128::from), Some(clamped), "{a:?}");
            }
        }
    }

    #[test]
    fn timeline_is_sorted_and_deterministic() {
        let spec = two_tier_spec();
        let tl = timeline(&spec);
        assert!(!tl.is_empty());
        assert!(tl
            .windows(2)
            .all(|w| { (w[0].at, w[0].tier, w[0].source) < (w[1].at, w[1].tier, w[1].source) }));
        assert_eq!(tl, timeline(&spec));
    }

    #[test]
    fn replay_accounts_for_every_offered_job() {
        let spec = two_tier_spec();
        let report = run(&spec);
        for tier in &report.tiers {
            assert_eq!(
                tier.offered,
                tier.shed() + tier.admitted + tier.rejected,
                "tier {}: offered != shed + decided",
                tier.name
            );
            assert_eq!(
                tier.latency.samples,
                tier.admitted + tier.rejected,
                "tier {}: latency samples must equal drained decisions",
                tier.name
            );
            assert!(tier.deadline_hits <= tier.deadline_total);
        }
        assert!(report.total_admitted() > 0, "nothing admitted: {report:?}");
    }

    #[test]
    fn faster_drain_cadence_means_lower_tail_latency() {
        let spec = two_tier_spec();
        let report = run(&spec);
        let premium = report.tiers[0].latency.p99.expect("premium drained jobs");
        let batch = report.tiers[1].latency.p99.expect("batch drained jobs");
        assert!(
            premium <= batch,
            "premium p99 {premium} above batch p99 {batch}"
        );
    }

    #[test]
    fn starved_premium_tier_loses_its_latency_edge() {
        let spec = two_tier_spec();
        let healthy = run(&spec);
        let starved = run(&spec.starved(64));
        let healthy_p99 = healthy.tiers[0].latency.p99.expect("samples");
        let starved_p99 = starved.tiers[0].latency.p99.expect("samples");
        assert!(
            starved_p99 > healthy_p99,
            "starving did not inflate premium p99 ({healthy_p99} -> {starved_p99})"
        );
    }

    #[test]
    fn seeded_specs_replay_without_panicking() {
        for seed in 0..16 {
            let spec = ScenarioSpec::seeded(seed);
            let report = run(&spec);
            assert_eq!(report.tiers.len(), spec.tiers.len());
        }
    }
}
