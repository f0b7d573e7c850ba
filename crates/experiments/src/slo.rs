//! **SLO** — closed-loop adaptive QoS versus the static operating point:
//! does a feedback controller *hold* a delivered-performance objective
//! that feed-forward admission alone cannot?
//!
//! Each interference mix pins one Elastic donor (with an SLO derived from
//! its measured solo CPI) against a pack of Opportunistic interferers,
//! then compares three arms that differ only in the control policy:
//!
//! * **static-0** — `Elastic(0)`: the donor never donates. The SLO
//!   attainment ceiling a policy could reach without touching cores.
//! * **static-20** — `Elastic(20)` with the guard alone: the paper's
//!   fixed operating point. Donation runs until the duplicate-tag guard
//!   trips at 20% cumulative miss increase — long after the (much
//!   tighter) SLO was breached.
//! * **pid** — `Elastic(20)` plus the `cmpqos-adapt` PID loop: slack is
//!   cut as soon as sampled CPI crosses the SLO and restored when the
//!   pressure clears; floating cores are DVFS-throttled while any job
//!   violates.
//!
//! All three arms install an epoch controller with the *same* epoch
//! length (static arms get the never-intervening baseline), so their
//! event pumps wake at identical instants and differences are purely the
//! policy's doing. Every cell is simulated-clock deterministic: the table
//! is byte-identical across machines and `--jobs` widths.
//!
//! The shape to expect: `pid` strictly beats `static-20` on SLO
//! attainment in every mix, reaching the `static-0` ceiling; the price
//! is a modest Opportunistic goodput tax from DVFS-throttling the
//! floating cores while the donor is violating.

use crate::output::{banner, pct, Table};
use crate::params::ExperimentParams;
use cmpqos_adapt::{Pid, PidConfig, Static};
use cmpqos_core::{
    EpochController, QosJob, QosScheduler, ResourceRequest, SchedulerConfig, SloSpec,
};
use cmpqos_obs::RingBufferRecorder;
use cmpqos_system::SystemConfig;
use cmpqos_types::{CoreId, Cycles, Instructions, JobId, Percent};
use cmpqos_workloads::runner::trace_for;

/// One interference mix: a protected donor against a uniform pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloMix {
    /// Mix label.
    pub name: &'static str,
    /// The reserved Elastic donor carrying the SLO.
    pub donor: &'static str,
    /// The Opportunistic interferer benchmark.
    pub interferer: &'static str,
}

/// The two mixes: a cache-sensitive donor bullied by compute-heavy
/// interferers, and the inverse.
pub const MIXES: [SloMix; 2] = [
    SloMix {
        name: "bzip2-donor",
        donor: "bzip2",
        interferer: "gobmk",
    },
    SloMix {
        name: "gobmk-donor",
        donor: "gobmk",
        interferer: "bzip2",
    },
];

/// The control-policy arms, in presentation order.
pub const ARMS: [&str; 3] = ["static-0", "static-20", "pid"];

/// The donor's declared Elastic slack in the donating arms, percent.
const DONOR_SLACK: f64 = 20.0;
/// SLO headroom over the measured solo CPI, in milli-fraction
/// (`1050` = solo × 1.05).
const SLO_HEADROOM_MILLI: u64 = 1050;
/// Opportunistic interferers per mix.
const INTERFERERS: u32 = 3;

/// One (mix, arm) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRow {
    /// Mix label.
    pub mix: &'static str,
    /// Policy arm label.
    pub arm: &'static str,
    /// The SLO target, milli-CPI.
    pub slo_milli: u64,
    /// Donor epochs sampled while it ran.
    pub epochs: u64,
    /// Donor epochs over the SLO.
    pub violations: u64,
    /// Donor delivered CPI over its whole run.
    pub donor_cpi: f64,
    /// Aggregate Opportunistic throughput, milli-IPC (instructions x1000
    /// per cycle of the interferers' makespan).
    pub opp_ipc_milli: u64,
    /// Knob movements the scheduler actually applied.
    pub knob_changes: u64,
    /// Peak share of usable L2 lines the donor's core owned, milli-pct.
    pub peak_donor_occ_milli_pct: u64,
}

impl SloRow {
    /// Fraction of the donor's epochs that honoured the SLO.
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.epochs == 0 {
            1.0
        } else {
            1.0 - self.violations as f64 / self.epochs as f64
        }
    }
}

/// The control epoch used by every arm.
fn epoch_len(params: &ExperimentParams) -> Cycles {
    Cycles::new((params.work.get() / 8).max(5_000))
}

/// The stealing cadence (the paper's 1%-of-job proportion).
fn steal_interval(params: &ExperimentParams) -> Instructions {
    Instructions::new((params.work.get() / 100).max(1_000))
}

/// The PID gains used by the `pid` arm: defaults, with the cadence
/// matched to this experiment's stealing interval so level 0 is a no-op.
#[must_use]
pub fn pid_config(params: &ExperimentParams) -> PidConfig {
    PidConfig {
        base_interval: steal_interval(params),
        output_scale: 100_000,
        ..PidConfig::default()
    }
}

fn scheduler(params: &ExperimentParams) -> QosScheduler {
    let mut cfg = SchedulerConfig::default();
    cfg.stealing.interval = steal_interval(params);
    QosScheduler::with_recorder(
        SystemConfig::paper_scaled(params.scale),
        cfg,
        Box::new(RingBufferRecorder::new(64)),
    )
}

/// Measures the donor's uncontended CPI (alone, Strict, no stealing) and
/// derives the mix's SLO: solo CPI × `SLO_HEADROOM_MILLI`/1000.
#[must_use]
pub fn solo_slo_milli(params: &ExperimentParams, donor: &str) -> u64 {
    let mut sched = scheduler(params);
    let tw = Cycles::new(params.work.get() * 8);
    let job = QosJob::strict(JobId::new(0), ResourceRequest::paper_job())
        .work(params.work)
        .max_wall_clock(tw)
        .build();
    assert!(
        sched
            .submit(job, trace_for(donor, params.scale, params.seed, 0))
            .is_accepted(),
        "solo donor must admit on an empty node"
    );
    sched.run_to_idle(tw * 4);
    let perf = sched.report(JobId::new(0)).expect("donor tracked").perf;
    let cpi_milli = perf.cycles().get().saturating_mul(1000) / perf.instructions().get().max(1);
    cpi_milli * SLO_HEADROOM_MILLI / 1000
}

/// Runs one (mix, arm) cell against a precomputed SLO target.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn run_arm(
    params: &ExperimentParams,
    mix: &SloMix,
    arm: &'static str,
    slo_milli: u64,
) -> SloRow {
    let mut sched = scheduler(params);
    let epoch = epoch_len(params);
    let controller: Box<dyn EpochController> = match arm {
        "pid" => Box::new(Pid::new(pid_config(params))),
        _ => Box::new(Static),
    };
    sched.set_epoch_controller(controller, epoch);

    let slack = match arm {
        "static-0" => 0.0,
        _ => DONOR_SLACK,
    };
    let donor_id = JobId::new(0);
    let tw = Cycles::new(params.work.get() * 8);
    let donor = QosJob::elastic(donor_id, ResourceRequest::paper_job(), Percent::new(slack))
        .work(params.work)
        .max_wall_clock(tw)
        .slo(SloSpec {
            max_cpi_milli: slo_milli,
        })
        .build();
    assert!(
        sched
            .submit(donor, trace_for(mix.donor, params.scale, params.seed, 0))
            .is_accepted(),
        "donor must admit on an empty node"
    );
    for i in 1..=INTERFERERS {
        let job = QosJob::opportunistic(JobId::new(i), ResourceRequest::paper_job())
            .work(Instructions::new(params.work.get() * 2))
            .max_wall_clock(tw)
            .build();
        assert!(
            sched
                .submit(job, trace_for(mix.interferer, params.scale, params.seed, i))
                .is_accepted(),
            "opportunistic jobs always admit"
        );
    }

    // Drive in epoch-sized slices, sampling the donor's cache footprint
    // while it lives (the partition-in-action view the table reports).
    let donor_core = CoreId::new(0);
    let cap = tw * 16;
    let mut peak_occ = 0u64;
    while !sched.is_idle() && sched.now() < cap {
        let next = sched.now() + epoch;
        sched.run_until(next);
        if sched.node().is_live(donor_id) {
            peak_occ = peak_occ.max(sched.node().l2().occupancy_milli_pct(donor_core));
        }
    }

    let donor_report = sched.report(donor_id).expect("donor tracked");
    let donor_finish = donor_report.finished.unwrap_or(cap);
    let donor_cpi = donor_report.perf.cpi();
    let epochs = (donor_finish.get() / epoch.get()).max(1);

    let mut opp_instructions = 0u64;
    let mut opp_makespan = Cycles::ZERO;
    for i in 1..=INTERFERERS {
        let r = sched.report(JobId::new(i)).expect("interferer tracked");
        opp_instructions += r.perf.instructions().get();
        opp_makespan = opp_makespan.max(r.finished.unwrap_or(cap));
    }
    let opp_ipc_milli = opp_instructions.saturating_mul(1000) / opp_makespan.get().max(1);

    let rec = sched.take_recorder();
    let counters = rec
        .as_any()
        .and_then(|a| a.downcast_ref::<RingBufferRecorder>())
        .expect("ring buffer recorder")
        .counters()
        .clone();

    SloRow {
        mix: mix.name,
        arm,
        slo_milli,
        epochs,
        violations: counters.slo_violations,
        donor_cpi,
        opp_ipc_milli,
        knob_changes: counters.knob_changes,
        peak_donor_occ_milli_pct: peak_occ,
    }
}

/// Runs the full grid — a solo-calibration cell per mix, then every
/// (mix, arm) cell — on the engine pool, rows in (mix, arm) order.
///
/// `freeze_knobs` is the conformance suite's stuck-knob fault injection:
/// the `pid` arm's controller is replaced by the never-intervening
/// baseline (its knobs are "stuck" at the static operating point), which
/// must fail the `slo` conformance check.
#[must_use]
pub fn run_with(params: &ExperimentParams, freeze_knobs: bool) -> Vec<SloRow> {
    let slos: Vec<u64> = cmpqos_engine::Engine::new(params.jobs)
        .run(MIXES.to_vec(), |_, mix| solo_slo_milli(params, mix.donor));
    let cells: Vec<(SloMix, &'static str, u64)> = MIXES
        .iter()
        .zip(&slos)
        .flat_map(|(&mix, &slo)| ARMS.iter().map(move |&arm| (mix, arm, slo)))
        .collect();
    cmpqos_engine::Engine::new(params.jobs).run(cells, |_, (mix, arm, slo)| {
        let effective = if freeze_knobs && arm == "pid" {
            "static-20"
        } else {
            arm
        };
        let mut row = run_arm(params, &mix, effective, slo);
        row.arm = arm;
        row
    })
}

/// Runs the grid without fault injection.
#[must_use]
pub fn run(params: &ExperimentParams) -> Vec<SloRow> {
    run_with(params, false)
}

/// Prints the attainment/goodput table.
pub fn print(rows: &[SloRow], params: &ExperimentParams) {
    banner(
        "SLO: closed-loop adaptive QoS vs the static operating point",
        params,
    );
    let mut t = Table::new(&[
        "mix",
        "arm",
        "SLO (mCPI)",
        "attainment",
        "violations",
        "donor CPI",
        "opp mIPC",
        "knob moves",
        "peak L2 share",
    ]);
    for r in rows {
        t.row_owned(vec![
            r.mix.to_string(),
            r.arm.to_string(),
            r.slo_milli.to_string(),
            pct(r.attainment()),
            format!("{}/{}", r.violations, r.epochs),
            format!("{:.2}", r.donor_cpi),
            r.opp_ipc_milli.to_string(),
            r.knob_changes.to_string(),
            pct(r.peak_donor_occ_milli_pct as f64 / 100_000.0),
        ]);
    }
    println!("{}", t.render());
    println!(
        "shape: pid strictly beats static-20 on SLO attainment in every mix (the \
         feedback loop cuts donation at the first violating epoch instead of \
         waiting for the 20% guard); the cost is a modest Opportunistic goodput \
         tax from throttling the floating cores while the donor violates."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_strictly_dominates_static_20_on_attainment_in_every_mix() {
        let rows = run(&ExperimentParams::quick());
        assert_eq!(rows.len(), MIXES.len() * ARMS.len());
        for mix in &MIXES {
            let by_arm = |arm: &str| {
                rows.iter()
                    .find(|r| r.mix == mix.name && r.arm == arm)
                    .expect("grid is complete")
            };
            let (s20, pid) = (by_arm("static-20"), by_arm("pid"));
            assert!(
                pid.attainment() > s20.attainment(),
                "{}: pid {:.2} must beat static-20 {:.2}",
                mix.name,
                pid.attainment(),
                s20.attainment()
            );
            assert!(
                pid.knob_changes > 0,
                "{}: the loop must actually move knobs",
                mix.name
            );
        }
    }

    #[test]
    fn the_grid_is_deterministic_at_any_pool_width() {
        let mut serial = ExperimentParams::quick();
        serial.jobs = 1;
        let mut wide = serial.clone();
        wide.jobs = 4;
        assert_eq!(run(&serial), run(&wide));
    }

    #[test]
    fn frozen_knobs_collapse_pid_onto_the_static_arm() {
        let params = ExperimentParams::quick();
        let rows = run_with(&params, true);
        for mix in &MIXES {
            let by_arm = |arm: &str| {
                rows.iter()
                    .find(|r| r.mix == mix.name && r.arm == arm)
                    .expect("grid is complete")
            };
            assert_eq!(by_arm("pid").violations, by_arm("static-20").violations);
            assert_eq!(by_arm("pid").knob_changes, 0);
        }
    }
}
