//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **Per-set versus global partitioning** — Section 4.1 rejects the
//!   Suh-style global-counter scheme because per-set allocations drift with
//!   the co-runner, producing run-to-run performance variation; we measure
//!   the CPI variance of a fixed-allocation job across co-runner seeds
//!   under both policies.
//! * **Shadow-tag set sampling** — the paper samples every 8th set to cut
//!   duplicate-tag cost; we compare the measured miss-increase estimate at
//!   several sampling periods against full coverage.
//! * **Steal-interval length** — shorter repartition intervals steal more
//!   aggressively; we measure ways stolen by completion per interval.

use crate::output::{banner, Table};
use crate::params::ExperimentParams;
use cmpqos_cache::PartitionPolicy;
use cmpqos_engine::Engine;
use cmpqos_system::{CmpNode, Placement, SystemConfig, TaskSpec};
use cmpqos_trace::spec;
use cmpqos_types::{CoreId, Cycles, Instructions, JobId, Percent, RunningStats, Ways};

/// CPI spread of a fixed-allocation job across co-runner seeds.
#[derive(Debug, Clone)]
pub struct VarianceResult {
    /// The policy measured.
    pub policy: PartitionPolicy,
    /// CPI statistics of the observed job across seeds.
    pub cpi: RunningStats,
}

/// Runs `bzip2` pinned with 7 ways while a seed-varied `mcf` co-runner
/// shares the cache, under the given policy, across `seeds` runs. The
/// per-seed runs are independent engine cells; the CPIs come back in seed
/// order, so the running aggregate is bitwise identical at every pool
/// width.
#[must_use]
pub fn partition_variance(
    params: &ExperimentParams,
    policy: PartitionPolicy,
    seeds: u64,
) -> VarianceResult {
    let cpis = Engine::new(params.jobs).run((0..seeds).collect(), |_, s| {
        let mut system = SystemConfig::paper_scaled(params.scale);
        system.partition_policy = policy;
        let mut node = CmpNode::new(system);
        node.set_l2_targets(&[Ways::new(7), Ways::new(9), Ways::ZERO, Ways::ZERO])
            .expect("targets fit");
        let bzip2 = spec::scaled("bzip2", params.scale).expect("built-in");
        let mcf = spec::scaled("mcf", params.scale).expect("built-in");
        node.spawn(TaskSpec {
            id: JobId::new(0),
            // The observed job is seed-fixed; only the co-runner varies.
            source: bzip2.instantiate(7, 1 << 36),
            budget: params.work,
            placement: Placement::Pinned(CoreId::new(0)),
            reserved: true,
        })
        .expect("spawn");
        node.spawn(TaskSpec {
            id: JobId::new(1),
            source: mcf.instantiate(1000 + s, 2 << 36),
            budget: params.work * 4,
            placement: Placement::Pinned(CoreId::new(1)),
            reserved: true,
        })
        .expect("spawn");
        // Run until the observed job completes.
        while node.is_live(JobId::new(0)) {
            let t = node.now() + Cycles::new(1_000_000);
            node.run_until(t);
        }
        node.perf(JobId::new(0)).expect("ran").cpi()
    });
    let mut cpi = RunningStats::new();
    for c in cpis {
        cpi.record(c);
    }
    VarianceResult { policy, cpi }
}

/// Miss-increase estimates per shadow sampling period.
#[derive(Debug, Clone)]
pub struct SamplingPoint {
    /// Every `N`-th set sampled.
    pub sample_every: u32,
    /// Final miss-increase estimate from the sampled monitor.
    pub miss_increase: f64,
    /// Ways stolen by completion.
    pub stolen: u16,
}

/// Runs an Elastic(`x`) stealing scenario at several sampling periods
/// (one engine cell per period).
#[must_use]
pub fn sampling_accuracy(params: &ExperimentParams, periods: &[u32]) -> Vec<SamplingPoint> {
    Engine::new(params.jobs).run(periods.to_vec(), |_, sample_every| {
        let (miss_increase, stolen) = stealing_run(params, sample_every, None);
        SamplingPoint {
            sample_every,
            miss_increase,
            stolen,
        }
    })
}

/// Ways stolen per steal-interval length.
#[derive(Debug, Clone)]
pub struct IntervalPoint {
    /// Repartition interval (instructions of the Elastic job).
    pub interval: u64,
    /// Ways stolen by completion.
    pub stolen: u16,
}

/// Sweeps the repartition interval (one engine cell per interval).
#[must_use]
pub fn interval_sweep(params: &ExperimentParams, intervals: &[u64]) -> Vec<IntervalPoint> {
    Engine::new(params.jobs).run(intervals.to_vec(), |_, interval| {
        let (_, stolen) = stealing_run(params, 8, Some(Instructions::new(interval)));
        IntervalPoint { interval, stolen }
    })
}

/// One gobmk-donor stealing run through the QoS scheduler; returns the
/// donor's final (miss increase, stolen ways).
fn stealing_run(
    params: &ExperimentParams,
    sample_every: u32,
    interval: Option<Instructions>,
) -> (f64, u16) {
    use cmpqos_core::{QosJob, QosScheduler, ResourceRequest, SchedulerConfig};
    let mut system = SystemConfig::paper_scaled(params.scale);
    system.shadow_sample_every = sample_every;
    let mut cfg = SchedulerConfig::default();
    cfg.stealing.interval = interval.unwrap_or(Instructions::new(params.work.get() / 50));
    let mut sched = QosScheduler::new(system, cfg);
    let gobmk = spec::scaled("gobmk", params.scale).expect("built-in");
    let bzip2 = spec::scaled("bzip2", params.scale).expect("built-in");
    let work = params.work;
    let tw = Cycles::new(work.get() * 40);
    let _ = sched.submit(
        QosJob::elastic(
            JobId::new(0),
            ResourceRequest::paper_job(),
            Percent::new(5.0),
        )
        .work(work)
        .max_wall_clock(tw)
        .deadline(tw * 3)
        .build(),
        gobmk.instantiate(params.seed, 1 << 36),
    );
    let _ = sched.submit(
        QosJob::opportunistic(JobId::new(1), ResourceRequest::paper_job())
            .work(work)
            .max_wall_clock(tw)
            .build(),
        bzip2.instantiate(params.seed + 1, 2 << 36),
    );
    sched.run_to_idle(tw * 40);
    let report = sched.report(JobId::new(0)).expect("submitted");
    let steal = report.steal.expect("elastic job has a steal report");
    (steal.miss_increase, steal.max_stolen.get())
}

/// Prints all three ablations.
pub fn print(params: &ExperimentParams) {
    banner(
        "Ablation 1: per-set vs global partitioning variance",
        params,
    );
    let mut t = Table::new(&["policy", "runs", "mean CPI", "min", "max", "stddev"]);
    for policy in [PartitionPolicy::PerSet, PartitionPolicy::Global] {
        let v = partition_variance(params, policy, 5);
        t.row_owned(vec![
            format!("{policy:?}"),
            v.cpi.count().to_string(),
            format!("{:.3}", v.cpi.mean()),
            format!("{:.3}", v.cpi.min().unwrap_or(0.0)),
            format!("{:.3}", v.cpi.max().unwrap_or(0.0)),
            format!("{:.4}", v.cpi.std_dev()),
        ]);
    }
    println!("{}", t.render());

    banner("Ablation 2: shadow-tag sampling period", params);
    let mut t = Table::new(&["sample every", "miss increase", "ways stolen"]);
    for p in sampling_accuracy(params, &[1, 8, 64]) {
        t.row_owned(vec![
            p.sample_every.to_string(),
            format!("{:.4}", p.miss_increase),
            p.stolen.to_string(),
        ]);
    }
    println!("{}", t.render());

    banner("Ablation 3: steal-interval length", params);
    let mut t = Table::new(&["interval (instr)", "ways stolen"]);
    for p in interval_sweep(
        params,
        &[
            params.work.get() / 100,
            params.work.get() / 20,
            params.work.get() / 5,
        ],
    ) {
        t.row_owned(vec![p.interval.to_string(), p.stolen.to_string()]);
    }
    println!("{}", t.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_set_policy_reduces_run_to_run_variance() {
        let mut p = ExperimentParams::quick();
        p.work = Instructions::new(120_000);
        let per_set = partition_variance(&p, PartitionPolicy::PerSet, 4);
        let global = partition_variance(&p, PartitionPolicy::Global, 4);
        // Section 4.1's claim: the per-set scheme is (at least) as stable.
        assert!(
            per_set.cpi.std_dev() <= global.cpi.std_dev() + 0.02,
            "per-set sd {} vs global sd {}",
            per_set.cpi.std_dev(),
            global.cpi.std_dev()
        );
    }

    #[test]
    fn shorter_intervals_steal_at_least_as_much() {
        let p = ExperimentParams::quick();
        let points = interval_sweep(&p, &[p.work.get() / 100, p.work.get() / 5]);
        assert!(
            points[0].stolen >= points[1].stolen,
            "short {} vs long {}",
            points[0].stolen,
            points[1].stolen
        );
    }

    #[test]
    fn sampling_periods_agree_roughly() {
        let p = ExperimentParams::quick();
        let pts = sampling_accuracy(&p, &[1, 8]);
        // gobmk donates freely: both estimates stay small and stealing
        // engages at both periods.
        for pt in &pts {
            assert!(
                pt.stolen > 0,
                "sample_every={} stole nothing",
                pt.sample_every
            );
            assert!(pt.miss_increase < 0.2, "estimate {}", pt.miss_increase);
        }
    }
}
