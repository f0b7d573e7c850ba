//! Metamorphic relations over admission and scheduling runs.
//!
//! Each relation transforms an input (a job mix or its coordinates) in a
//! way whose effect on the output is known *exactly*, then checks the
//! implementation honours it:
//!
//! 1. **Opportunistic insertion is invisible** — Opportunistic jobs never
//!    create reservations, so inserting one anywhere in a submission
//!    sequence cannot flip any reserving (Strict/Elastic) decision or
//!    change the reservation timeline.
//! 2. **Uniform scaling preserves the accept set** — multiplying every
//!    cycle coordinate (advances, `tw`, deadlines) by an integer `m`
//!    scales the whole admission geometry homogeneously: the same jobs
//!    are accepted/rejected, and every reserved start scales by `m`.
//!    Elastic slacks are restricted to {25, 50, 100} with `tw` a multiple
//!    of four so the `tw·(1 + X)` duration arithmetic is exact and
//!    commutes with the scaling.
//! 3. **`Elastic(0)` stealing ≡ stealing disabled** — a zero-slack donor
//!    tolerates no slowdown, so a run with stealing enabled and `X = 0`
//!    must be *byte-identical* (event stream and per-job outcomes) to the
//!    same run with stealing disabled.
//! 4. **Loose SLOs make the PID invisible** — when every sampled job's
//!    [`SloSpec`] is unbounded, no target is ever missed, the controller
//!    never leaves level 0, and its level-0 knob values equal the
//!    scheduler's own baselines — so a run under the PID controller must
//!    be *byte-identical* to the same run under the never-intervening
//!    [`Static`] controller.
//! 5. **Traffic time-scaling is exact** — scaling every stored time in a
//!    materialized traffic timeline by an integer `k` (arrivals, sizes,
//!    deadlines) and replaying under the matching
//!    [`ScenarioSpec::scaled`] spec (horizon, drain cadences, refill
//!    intervals, breaker cooldowns all `× k`) preserves the per-tier
//!    offered/shed/admitted/rejected counts exactly and scales every
//!    latency percentile by exactly `k` — the same order statistic over
//!    a `k×`-stretched multiset. [`ScenarioSpec::seeded_scalable`] pins
//!    Elastic slack to 25% with sizes a multiple of four so the LAC's
//!    `tw · 1.25` arithmetic stays exact under scaling.

use cmpqos_adapt::{Pid, PidConfig, Static};
use cmpqos_core::{
    AdmissionRequest, Decision, EpochController, ExecutionMode, JobReport, Lac, LacConfig, QosJob,
    QosScheduler, ResourceRequest, SchedulerConfig, SloSpec,
};
use cmpqos_obs::ShardRecorder;
use cmpqos_scenario::{replay as replay_traffic, scale_timeline, timeline, ScenarioSpec};
use cmpqos_system::SystemConfig;
use cmpqos_trace::spec;
use cmpqos_types::{Cycles, Instructions, JobId, Percent, Ways};
use cmpqos_workloads::calibrate::Calibrator;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One reserving submission in a generated mix.
#[derive(Debug, Clone, Copy)]
struct Submission {
    advance: u64,
    mode: ExecutionMode,
    cores: u32,
    ways: u16,
    tw: u64,
    /// Deadline as an offset from the submission instant (`None` = open).
    deadline_offset: Option<u64>,
}

fn gen_submissions(rng: &mut StdRng, exact_scaling: bool) -> Vec<Submission> {
    let n = rng.gen_range(4..14usize);
    (0..n)
        .map(|_| {
            let mode = match rng.gen_range(0..4u32) {
                0 => ExecutionMode::Strict,
                1 if !exact_scaling => ExecutionMode::Opportunistic,
                _ if exact_scaling => {
                    // Slacks whose (1 + X) factor is exact on a tw that is
                    // a multiple of four: 1.25, 1.5, 2.0.
                    let slack = [25.0, 50.0, 100.0][rng.gen_range(0..3usize)];
                    ExecutionMode::Elastic(Percent::new(slack))
                }
                _ => ExecutionMode::Elastic(Percent::new(f64::from(rng.gen_range(0..50u32)))),
            };
            let tw = if exact_scaling {
                4 * rng.gen_range(25..500u64)
            } else {
                rng.gen_range(100..2_000u64)
            };
            Submission {
                advance: rng.gen_range(0..400u64),
                mode,
                cores: rng.gen_range(0..3u32),
                ways: rng.gen_range(1..9u16),
                tw,
                deadline_offset: if rng.gen_bool(0.7) {
                    Some(rng.gen_range(0..6_000u64))
                } else {
                    None
                },
            }
        })
        .collect()
}

/// Replays `subs` against a fresh LAC, scaling every cycle coordinate by
/// `m`, optionally admitting an extra Opportunistic job before submission
/// index `insert_opportunistic_at`. Returns the decisions of the *mix*
/// jobs only (the inserted job's decision is discarded).
fn replay(
    subs: &[Submission],
    m: u64,
    insert_opportunistic_at: Option<usize>,
) -> (Lac, Vec<Decision>) {
    let mut lac = Lac::new(LacConfig::default());
    let mut decisions = Vec::with_capacity(subs.len());
    for (i, s) in subs.iter().enumerate() {
        let now = lac.now() + Cycles::new(s.advance * m);
        lac.advance(now);
        if insert_opportunistic_at == Some(i) {
            let _ = lac.admit(
                &AdmissionRequest::builder(
                    JobId::new(10_000),
                    ResourceRequest::new(1, Ways::new(1)),
                    Cycles::new(s.tw * m),
                )
                .mode(ExecutionMode::Opportunistic)
                .build(),
            );
        }
        let mut b = AdmissionRequest::builder(
            JobId::new(i as u32),
            ResourceRequest::new(s.cores, Ways::new(s.ways)),
            Cycles::new(s.tw * m),
        )
        .mode(s.mode);
        if let Some(d) = s.deadline_offset {
            b = b.deadline(now + Cycles::new(d * m));
        }
        decisions.push(lac.admit(&b.build()));
    }
    (lac, decisions)
}

/// Relation 1: inserting an Opportunistic job at any position leaves every
/// reserving decision — and the final reservation table — unchanged.
///
/// # Errors
///
/// Returns a description of the first flipped decision or table mismatch.
pub fn opportunistic_insertion_is_invisible(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD_5EED);
    let subs = gen_submissions(&mut rng, false);
    let at = rng.gen_range(0..subs.len());
    let (base_lac, base) = replay(&subs, 1, None);
    let (with_lac, with) = replay(&subs, 1, Some(at));
    for (i, (a, b)) in base.iter().zip(&with).enumerate() {
        if a != b {
            return Err(format!(
                "seed {seed}: inserting an Opportunistic job before submission {at} \
                 flipped job {i}: {a:?} -> {b:?}"
            ));
        }
    }
    if base_lac.reservations() != with_lac.reservations() {
        return Err(format!(
            "seed {seed}: reservation tables diverged after Opportunistic insertion at {at}"
        ));
    }
    Ok(())
}

/// Relation 2: multiplying every cycle coordinate by an integer preserves
/// accept/reject decisions and scales every reserved start by the same
/// factor.
///
/// # Errors
///
/// Returns a description of the first decision that failed to scale.
pub fn uniform_scaling_preserves_decisions(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5C_A1E5);
    let subs = gen_submissions(&mut rng, true);
    let m = [2, 3, 5][rng.gen_range(0..3usize)];
    let (_, base) = replay(&subs, 1, None);
    let (_, scaled) = replay(&subs, m, None);
    for (i, (a, b)) in base.iter().zip(&scaled).enumerate() {
        let ok = match (a, b) {
            (Decision::Accepted { start }, Decision::Accepted { start: s }) => {
                s.get() == start.get() * m
            }
            (Decision::Rejected(ra), Decision::Rejected(rb)) => ra == rb,
            _ => false,
        };
        if !ok {
            return Err(format!(
                "seed {seed}: scaling by {m} changed job {i}: {a:?} vs {b:?}"
            ));
        }
    }
    Ok(())
}

fn report_key(r: &JobReport) -> (Decision, Option<Cycles>, Option<Cycles>, u64, u64, bool) {
    (
        r.decision,
        r.started,
        r.finished,
        r.perf.cycles().get(),
        r.perf.instructions().get(),
        r.met_deadline(),
    )
}

fn zero_slack_run(seed: u64, stealing_enabled: bool) -> (Vec<String>, Vec<JobReport>) {
    const K: u64 = 16;
    const WORK: u64 = 20_000;
    let cal = Calibrator::new(K, Instructions::new(WORK));
    let mut config = SchedulerConfig::default();
    config.stealing_enabled = stealing_enabled;
    let mut scheduler = QosScheduler::with_recorder(
        SystemConfig::paper_scaled(K),
        config,
        Box::new(ShardRecorder::new()),
    );
    // A Strict anchor, a zero-slack Elastic donor, and two Opportunistic
    // jobs that would love to receive stolen ways.
    let mix: [(&str, ExecutionMode); 4] = [
        ("bzip2", ExecutionMode::Strict),
        ("bzip2", ExecutionMode::Elastic(Percent::ZERO)),
        ("hmmer", ExecutionMode::Opportunistic),
        ("gobmk", ExecutionMode::Opportunistic),
    ];
    let mut ids = Vec::new();
    for (n, (bench, mode)) in mix.iter().enumerate() {
        let tw = cal.tw(bench);
        let id = JobId::new(n as u32);
        let mut builder = QosJob::with_mode(id, *mode, ResourceRequest::paper_job())
            .work(Instructions::new(WORK))
            .max_wall_clock(tw);
        builder = if mode.reserves_resources() {
            builder.deadline(scheduler.now() + tw.scale(3.0))
        } else {
            builder.no_deadline()
        };
        let source = spec::scaled(bench, K)
            .expect("built-in benchmark")
            .instantiate(seed ^ (n as u64), 0);
        let _ = scheduler.submit(builder.build(), Box::new(source));
        ids.push(id);
        let skip = scheduler.now() + tw.scale(0.2);
        scheduler.run_until(skip);
    }
    scheduler.run_to_idle(Cycles::new(u64::MAX / 4));
    let recorder = scheduler.take_recorder();
    let shard = recorder
        .as_any()
        .and_then(|any| any.downcast_ref::<ShardRecorder>())
        .expect("scheduler hands back the shard it was given");
    let lines = shard
        .records()
        .iter()
        .map(|r| serde_json::to_string(r).expect("records serialize"))
        .collect();
    let reports = ids.iter().filter_map(|&id| scheduler.report(id)).collect();
    (lines, reports)
}

fn loose_slo_run(seed: u64, adaptive: bool) -> (Vec<String>, Vec<JobReport>) {
    const K: u64 = 16;
    const WORK: u64 = 20_000;
    let cal = Calibrator::new(K, Instructions::new(WORK));
    let config = SchedulerConfig::default();
    let mut scheduler = QosScheduler::with_recorder(
        SystemConfig::paper_scaled(K),
        config,
        Box::new(ShardRecorder::new()),
    );
    let controller: Box<dyn EpochController> = if adaptive {
        Box::new(Pid::new(PidConfig::default()))
    } else {
        Box::new(Static)
    };
    scheduler.set_epoch_controller(controller, Cycles::new(10_000));
    // An Elastic donor whose SLO can never be missed, plus a Strict anchor
    // and Opportunistic ballast — the same shape the PID actually manages,
    // minus any reason to intervene.
    let mix: [(&str, ExecutionMode); 4] = [
        ("bzip2", ExecutionMode::Strict),
        ("gobmk", ExecutionMode::Elastic(Percent::new(20.0))),
        ("hmmer", ExecutionMode::Opportunistic),
        ("bzip2", ExecutionMode::Opportunistic),
    ];
    let mut ids = Vec::new();
    for (n, (bench, mode)) in mix.iter().enumerate() {
        let tw = cal.tw(bench);
        let id = JobId::new(n as u32);
        let mut builder = QosJob::with_mode(id, *mode, ResourceRequest::paper_job())
            .work(Instructions::new(WORK))
            .max_wall_clock(tw)
            .slo(SloSpec::unbounded());
        builder = if mode.reserves_resources() {
            builder.deadline(scheduler.now() + tw.scale(3.0))
        } else {
            builder.no_deadline()
        };
        let source = spec::scaled(bench, K)
            .expect("built-in benchmark")
            .instantiate(seed ^ (n as u64), 0);
        let _ = scheduler.submit(builder.build(), Box::new(source));
        ids.push(id);
        let skip = scheduler.now() + tw.scale(0.2);
        scheduler.run_until(skip);
    }
    scheduler.run_to_idle(Cycles::new(u64::MAX / 4));
    let recorder = scheduler.take_recorder();
    let shard = recorder
        .as_any()
        .and_then(|any| any.downcast_ref::<ShardRecorder>())
        .expect("scheduler hands back the shard it was given");
    let lines = shard
        .records()
        .iter()
        .map(|r| serde_json::to_string(r).expect("records serialize"))
        .collect();
    let reports = ids.iter().filter_map(|&id| scheduler.report(id)).collect();
    (lines, reports)
}

/// Relation 4: with every job's [`SloSpec`] unbounded, a run under the
/// PID controller is byte-identical — event stream and per-job outcomes —
/// to the same run under the never-intervening baseline controller.
///
/// # Errors
///
/// Returns the first differing event line or job outcome.
pub fn loose_slo_adaptive_matches_static(seed: u64) -> Result<(), String> {
    let (events_pid, reports_pid) = loose_slo_run(seed, true);
    let (events_base, reports_base) = loose_slo_run(seed, false);
    if events_pid.len() != events_base.len() {
        return Err(format!(
            "seed {seed}: event counts differ: {} under pid vs {} under static",
            events_pid.len(),
            events_base.len()
        ));
    }
    for (i, (a, b)) in events_pid.iter().zip(&events_base).enumerate() {
        if a != b {
            return Err(format!(
                "seed {seed}: event {i} differs:\n  pid:    {a}\n  static: {b}"
            ));
        }
    }
    for (a, b) in reports_pid.iter().zip(&reports_base) {
        if report_key(a) != report_key(b) {
            return Err(format!(
                "seed {seed}: job {:?} outcome differs: {:?} vs {:?}",
                a.job.id,
                report_key(a),
                report_key(b)
            ));
        }
    }
    // A loose-SLO PID run must contain no knob movement at all.
    for line in &events_pid {
        if line.contains("KnobChanged") {
            return Err(format!(
                "seed {seed}: PID moved a knob despite unbounded SLOs: {line}"
            ));
        }
    }
    Ok(())
}

/// Relation 3: a run whose only Elastic donor has `X = 0` is
/// byte-identical — event stream and per-job outcomes — to the same run
/// with stealing disabled.
///
/// # Errors
///
/// Returns the first differing event line or job outcome.
pub fn zero_slack_stealing_matches_disabled(seed: u64) -> Result<(), String> {
    let (events_on, reports_on) = zero_slack_run(seed, true);
    let (events_off, reports_off) = zero_slack_run(seed, false);
    if events_on.len() != events_off.len() {
        return Err(format!(
            "seed {seed}: event counts differ: {} with X=0 stealing vs {} disabled",
            events_on.len(),
            events_off.len()
        ));
    }
    for (i, (a, b)) in events_on.iter().zip(&events_off).enumerate() {
        if a != b {
            return Err(format!(
                "seed {seed}: event {i} differs:\n  X=0:      {a}\n  disabled: {b}"
            ));
        }
    }
    for (a, b) in reports_on.iter().zip(&reports_off) {
        if report_key(a) != report_key(b) {
            return Err(format!(
                "seed {seed}: job {:?} outcome differs: {:?} vs {:?}",
                a.job.id,
                report_key(a),
                report_key(b)
            ));
        }
    }
    // The enabled run *did* build a stealing controller for the donor; it
    // must report zero activity.
    for r in &reports_on {
        if let Some(s) = r.steal {
            if s.stolen.get() != 0 || s.max_stolen.get() != 0 || s.cancelled {
                return Err(format!(
                    "seed {seed}: zero-slack donor {:?} shows stealing activity: {s:?}",
                    r.job.id
                ));
            }
        }
    }
    Ok(())
}

/// Relation 5: replaying a `k×`-scaled copy of a traffic timeline under
/// the matching `k×`-scaled spec preserves every per-tier count
/// (offered, each shed class, admitted, rejected, deadline totals and
/// hits) and scales every latency percentile by exactly `k`.
///
/// # Errors
///
/// Returns a description of the first count or percentile that failed to
/// scale.
pub fn traffic_time_scaling_preserves_decisions(seed: u64) -> Result<(), String> {
    let spec = ScenarioSpec::seeded_scalable(seed);
    let arrivals = timeline(&spec);
    let base = replay_traffic(&spec, &arrivals);
    for k in [3u64, 10] {
        let scaled = replay_traffic(&spec.scaled(k), &scale_timeline(&arrivals, k));
        for (b, s) in base.tiers.iter().zip(&scaled.tiers) {
            let counts = |t: &cmpqos_scenario::TierReport| {
                (
                    t.offered,
                    t.shed_infeasible,
                    t.shed_rate_limited,
                    t.shed_breaker,
                    t.shed_queue_full,
                    t.admitted,
                    t.rejected,
                    t.deadline_total,
                    t.deadline_hits,
                )
            };
            if counts(b) != counts(s) {
                return Err(format!(
                    "seed {seed} k={k} tier {}: counts changed under scaling: {:?} vs {:?}",
                    b.name,
                    counts(b),
                    counts(s)
                ));
            }
            if s.latency != b.latency.scaled(k) {
                return Err(format!(
                    "seed {seed} k={k} tier {}: latency percentiles did not scale by {k}: \
                     {:?} vs base {:?}",
                    b.name, s.latency, b.latency
                ));
            }
            if s.goodput != b.goodput * k {
                return Err(format!(
                    "seed {seed} k={k} tier {}: goodput {} != base {} x {k}",
                    b.name, s.goodput, b.goodput
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;

    #[test]
    fn opportunistic_insertion_never_flips_reserving_decisions() {
        for seed in 0..cases(24) as u64 {
            opportunistic_insertion_is_invisible(seed).unwrap();
        }
    }

    #[test]
    fn uniform_scaling_preserves_the_accept_set() {
        for seed in 0..cases(24) as u64 {
            uniform_scaling_preserves_decisions(seed).unwrap();
        }
    }

    #[test]
    fn zero_slack_stealing_is_byte_identical_to_disabled() {
        for seed in 1..=cases(2) as u64 {
            zero_slack_stealing_matches_disabled(seed).unwrap();
        }
    }

    #[test]
    fn loose_slo_pid_is_byte_identical_to_the_static_baseline() {
        for seed in 1..=cases(2) as u64 {
            loose_slo_adaptive_matches_static(seed).unwrap();
        }
    }

    #[test]
    fn traffic_time_scaling_is_exact() {
        for seed in 0..cases(12) as u64 {
            traffic_time_scaling_preserves_decisions(seed).unwrap();
        }
    }
}
