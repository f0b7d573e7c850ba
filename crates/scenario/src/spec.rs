//! The traffic-scenario specification: multi-tenant priority tiers over
//! shaped arrival processes.
//!
//! A [`ScenarioSpec`] is a pure value — building one does nothing until
//! [`crate::run()`] materializes its timeline and replays it through the
//! admission stack. Specs come from three places: the fluent builder
//! here, the TOML loader ([`crate::parse_toml`]), or whole-topology seed
//! derivation ([`ScenarioSpec::seeded`], the explorer's repro contract).

use crate::streams::{ArrivalShape, SizeDist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Execution-mode mixture of one tier, in percent points; the remainder
/// (`100 - strict - elastic`) runs Opportunistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeMix {
    /// Share of Strict jobs.
    pub strict_pct: u32,
    /// Share of Elastic jobs.
    pub elastic_pct: u32,
    /// Slack `X` of the Elastic jobs, in percent points.
    pub elastic_slack_pct: u32,
}

/// One priority tier: a set of tenant sources sharing an arrival shape,
/// a size mixture, a mode mix, per-tenant rate limits, and — the
/// priority mechanism — a drain cadence. Premium tiers drain their
/// intake queue more often, so their jobs reach the LAC with less
/// queueing delay; at coincident ticks tiers drain in declaration
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierSpec {
    /// Tier name (report label).
    pub name: String,
    /// Number of tenant sources (each owns a token bucket).
    pub sources: u32,
    /// Base mean inter-arrival per source, in cycles.
    pub mean_inter_arrival: u64,
    /// Rate modulation over time.
    pub shape: ArrivalShape,
    /// Job-size (maximum wall-clock `tw`) mixture.
    pub size: SizeDist,
    /// Execution-mode mixture.
    pub mix: ModeMix,
    /// Deadline slack: reserving jobs get
    /// `deadline = arrival + tw · slack / 100`. `0` disables deadlines.
    pub deadline_slack_pct: u32,
    /// Intake drain cadence in cycles (lower = higher priority).
    pub drain_every: u64,
    /// Bounded intake queue length.
    pub queue_capacity: usize,
    /// Per-source token-bucket burst capacity.
    pub bucket_capacity: u64,
    /// Token refill interval in cycles.
    pub refill_interval: u64,
    /// Circuit-breaker observation window (drained decisions).
    pub breaker_window: u32,
    /// Reject share that trips the breaker, in percent points.
    pub breaker_threshold_pct: u32,
    /// Breaker cooldown in cycles.
    pub breaker_cooldown: u64,
}

impl TierSpec {
    /// A tier with sane mid-priority defaults; override fluently.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            sources: 2,
            mean_inter_arrival: 2_000,
            shape: ArrivalShape::Steady,
            size: SizeDist {
                base: 2_000,
                tail_pct: 20,
                tail_cap: 3,
            },
            mix: ModeMix {
                strict_pct: 50,
                elastic_pct: 30,
                elastic_slack_pct: 25,
            },
            deadline_slack_pct: 400,
            drain_every: 500,
            queue_capacity: 32,
            bucket_capacity: 8,
            refill_interval: 1_000,
            breaker_window: 16,
            breaker_threshold_pct: 75,
            breaker_cooldown: 20_000,
        }
    }

    /// Sets the tenant-source count (≥ 1).
    #[must_use]
    pub fn sources(mut self, sources: u32) -> Self {
        self.sources = sources.max(1);
        self
    }

    /// Sets the base mean inter-arrival in cycles.
    #[must_use]
    pub fn mean_inter_arrival(mut self, cycles: u64) -> Self {
        self.mean_inter_arrival = cycles.max(1);
        self
    }

    /// Sets the arrival shape.
    #[must_use]
    pub fn shape(mut self, shape: ArrivalShape) -> Self {
        self.shape = shape;
        self
    }

    /// Sets the job-size mixture.
    #[must_use]
    pub fn size(mut self, size: SizeDist) -> Self {
        self.size = size;
        self
    }

    /// Sets the execution-mode mixture.
    #[must_use]
    pub fn mix(mut self, mix: ModeMix) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the deadline slack in percent of `tw` (0 = no deadlines).
    #[must_use]
    pub fn deadline_slack_pct(mut self, pct: u32) -> Self {
        self.deadline_slack_pct = pct;
        self
    }

    /// Sets the drain cadence (the priority knob; lower = hotter).
    #[must_use]
    pub fn drain_every(mut self, cycles: u64) -> Self {
        self.drain_every = cycles.max(1);
        self
    }

    /// Sets the bounded intake-queue capacity.
    #[must_use]
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Sets the per-source token-bucket capacity and refill interval.
    #[must_use]
    pub fn rate_limit(mut self, bucket: u64, refill_interval: u64) -> Self {
        self.bucket_capacity = bucket.max(1);
        self.refill_interval = refill_interval.max(1);
        self
    }
}

/// A complete traffic scenario: a seed, a horizon, per-job resource
/// bounds, and an ordered list of priority tiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Scenario name (report label, TOML `name`).
    pub name: String,
    /// Master seed; every per-source stream derives from it.
    pub seed: u64,
    /// Arrival horizon in cycles (arrivals stop here; every tier gets a
    /// final drain at the horizon).
    pub horizon: u64,
    /// Minimum L2 ways a job requests.
    pub ways_min: u16,
    /// Maximum L2 ways a job requests (inclusive).
    pub ways_max: u16,
    /// Priority tiers, highest priority first.
    pub tiers: Vec<TierSpec>,
}

impl ScenarioSpec {
    /// A named empty scenario; add tiers fluently.
    #[must_use]
    pub fn new(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            seed,
            horizon: 200_000,
            ways_min: 2,
            ways_max: 6,
            tiers: Vec::new(),
        }
    }

    /// Sets the arrival horizon.
    #[must_use]
    pub fn horizon(mut self, cycles: u64) -> Self {
        self.horizon = cycles.max(1);
        self
    }

    /// Sets the per-job requested-ways range (inclusive).
    #[must_use]
    pub fn ways(mut self, min: u16, max: u16) -> Self {
        self.ways_min = min.max(1);
        self.ways_max = max.max(self.ways_min);
        self
    }

    /// Appends a tier (highest priority first).
    #[must_use]
    pub fn tier(mut self, tier: TierSpec) -> Self {
        self.tiers.push(tier);
        self
    }

    /// Derives an entire small arrival/tenant topology from one seed —
    /// the repro contract of the `traffic` explorer kind: same seed,
    /// same spec, same timeline, same ops.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7AF_F1C0);
        let horizon = rng.gen_range(4_000..12_000u64);
        let tiers = rng.gen_range(1..4u32);
        let mut spec = ScenarioSpec::new("seeded", seed)
            .horizon(horizon)
            .ways(2, rng.gen_range(4..8u32) as u16);
        for t in 0..tiers {
            let shape = match rng.gen_range(0..3u32) {
                0 => ArrivalShape::Steady,
                1 => ArrivalShape::Diurnal {
                    period: rng.gen_range(1_000..4_000),
                    swing_pct: rng.gen_range(20..80),
                },
                _ => ArrivalShape::Bursty {
                    period: rng.gen_range(1_000..4_000),
                    on_pct: rng.gen_range(10..40),
                    burst_div: rng.gen_range(2..8),
                },
            };
            let tier = TierSpec::new(&format!("tier{t}"))
                .sources(rng.gen_range(1..3))
                .mean_inter_arrival(horizon / rng.gen_range(4..12u64))
                .shape(shape)
                .size(SizeDist {
                    base: rng.gen_range(50..400),
                    tail_pct: rng.gen_range(0..40),
                    tail_cap: rng.gen_range(0..4),
                })
                .mix(ModeMix {
                    strict_pct: rng.gen_range(20..70),
                    elastic_pct: rng.gen_range(0..30),
                    elastic_slack_pct: [0, 5, 25, 50][rng.gen_range(0..4usize)],
                })
                .deadline_slack_pct(rng.gen_range(150..600))
                .drain_every(horizon / rng.gen_range(8..24u64) + 1)
                .queue_capacity(rng.gen_range(2..8usize))
                .rate_limit(rng.gen_range(1..5), rng.gen_range(20..200));
            spec = spec.tier(tier);
        }
        spec
    }

    /// Like [`ScenarioSpec::seeded`], but constrained so that scaling
    /// every time by an integer `k` is *exact*: Elastic slack is pinned
    /// to 25% and all job sizes are multiples of 4, so the LAC's
    /// `tw · 1.25` reservation extension stays an exact integer before
    /// and after scaling (metamorphic relation 5).
    #[must_use]
    pub fn seeded_scalable(seed: u64) -> Self {
        let mut spec = Self::seeded(seed);
        for tier in &mut spec.tiers {
            tier.mix.elastic_slack_pct = 25;
            tier.size.base = (tier.size.base / 4).max(1) * 4;
        }
        spec
    }

    /// Scales every replay-relevant time quantity by `k`: horizon,
    /// drain cadences, refill intervals, breaker cooldowns. Pair with
    /// [`crate::scale_timeline`] on a pre-generated timeline to assert
    /// the exact-scaling metamorphic relation.
    #[must_use]
    pub fn scaled(&self, k: u64) -> Self {
        let mut s = self.clone();
        s.horizon *= k;
        for tier in &mut s.tiers {
            tier.mean_inter_arrival *= k;
            tier.size.base *= k;
            tier.drain_every *= k;
            tier.refill_interval *= k;
            tier.breaker_cooldown *= k;
        }
        s
    }

    /// Starves the highest-priority tier by inflating its drain cadence
    /// `factor`× — the `--inject starve-tier` fault: premium jobs rot in
    /// the intake queue, their waits blow past the lower tiers' and
    /// their deadlines shed infeasible at drain time.
    #[must_use]
    pub fn starved(&self, factor: u64) -> Self {
        let mut s = self.clone();
        if let Some(t0) = s.tiers.first_mut() {
            t0.drain_every = t0.drain_every.saturating_mul(factor.max(1));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_specs_are_deterministic_and_vary_by_seed() {
        assert_eq!(ScenarioSpec::seeded(9), ScenarioSpec::seeded(9));
        assert_ne!(ScenarioSpec::seeded(9), ScenarioSpec::seeded(10));
    }

    #[test]
    fn seeded_scalable_pins_the_exactness_constraints() {
        for seed in 0..32 {
            let spec = ScenarioSpec::seeded_scalable(seed);
            for tier in &spec.tiers {
                assert_eq!(tier.mix.elastic_slack_pct, 25);
                assert_eq!(tier.size.base % 4, 0);
            }
        }
    }

    #[test]
    fn starving_only_touches_the_first_tier() {
        let spec = ScenarioSpec::seeded(3);
        let starved = spec.starved(64);
        assert_eq!(starved.tiers[0].drain_every, spec.tiers[0].drain_every * 64);
        for (a, b) in spec.tiers.iter().zip(&starved.tiers).skip(1) {
            assert_eq!(a, b);
        }
    }
}
