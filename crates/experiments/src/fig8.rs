//! **Figure 8** — resource-stealing characterization on the bzip2 workload
//! in `Hybrid-2`, sweeping the Elastic slack `X`:
//!
//! * **(a)** the Elastic jobs' cumulative L2 miss increase tracks `X`
//!   (the duplicate-tag guard works), while their CPI increases at roughly
//!   one-third to one-half that rate (the additive-CPI argument);
//! * **(b)** Opportunistic jobs speed up with `X`, with diminishing
//!   returns past a small slack.

use crate::output::{banner, pct, Table};
use crate::params::ExperimentParams;
use cmpqos_core::ExecutionMode;
use cmpqos_types::Percent;
use cmpqos_workloads::metrics::mean_wall_clock;
use cmpqos_workloads::runner::{run_batch, RunConfig, RunOutcome};
use cmpqos_workloads::{Configuration, WorkloadSpec};

/// The slack sweep of the paper.
pub const SLACKS: [f64; 6] = [1.0, 2.0, 5.0, 10.0, 15.0, 20.0];

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// The slack X (percent).
    pub slack: f64,
    /// Mean cumulative miss increase of the Elastic jobs.
    pub miss_increase: f64,
    /// Mean CPI increase of the Elastic jobs versus the no-stealing run.
    pub cpi_increase: f64,
    /// Mean Opportunistic wall-clock, normalized to the no-stealing run
    /// (1.0 = no speedup; 0.9 = 10% faster).
    pub opp_wall_clock: f64,
    /// Mean peak ways stolen from Elastic jobs (ways return on
    /// cancellation, so the peak is the donation figure-of-merit).
    pub ways_stolen: f64,
}

/// The sweep plus its baseline.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// The no-stealing baseline outcome.
    pub baseline: RunOutcome,
    /// One point per slack value.
    pub points: Vec<Fig8Point>,
}

fn elastic_mean<F: Fn(&cmpqos_workloads::runner::AcceptedJob) -> Option<f64>>(
    o: &RunOutcome,
    f: F,
) -> f64 {
    let vals: Vec<f64> = o
        .accepted
        .iter()
        .filter(|j| matches!(j.report.job.mode, ExecutionMode::Elastic(_)))
        .filter_map(f)
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Runs the sweep on `bench` (the paper uses bzip2) at the given slacks.
/// The no-stealing baseline and every sweep point are independent cells
/// and run together on the `cmpqos-engine` pool.
#[must_use]
pub fn run_bench(params: &ExperimentParams, bench: &str, slacks: &[f64]) -> Fig8Result {
    let cell = |slack: f64, stealing: bool| RunConfig {
        workload: WorkloadSpec::single(bench, 10),
        configuration: Configuration::Hybrid2 {
            slack: Percent::new(slack),
        },
        scale: params.scale,
        work: params.work,
        seed: params.seed,
        stealing_enabled: stealing,
        events: params.events.clone(),
    };
    let cells: Vec<RunConfig> = std::iter::once(cell(5.0, false))
        .chain(slacks.iter().map(|&slack| cell(slack, true)))
        .collect();
    let mut outcomes = run_batch(cells, params.jobs).into_iter();
    let baseline = outcomes.next().expect("baseline cell ran");
    let base_elastic_cpi = elastic_mean(&baseline, |j| Some(j.report.perf.cpi()));
    let base_opp = mean_wall_clock(&baseline, "Opportunistic").unwrap_or(1.0);

    let points = slacks
        .iter()
        .zip(outcomes)
        .map(|(&slack, o)| {
            let miss_increase = elastic_mean(&o, |j| j.report.steal.map(|s| s.miss_increase));
            let cpi = elastic_mean(&o, |j| Some(j.report.perf.cpi()));
            let opp = mean_wall_clock(&o, "Opportunistic").unwrap_or(base_opp);
            let ways = elastic_mean(&o, |j| {
                j.report.steal.map(|s| f64::from(s.max_stolen.get()))
            });
            Fig8Point {
                slack,
                miss_increase,
                cpi_increase: if base_elastic_cpi > 0.0 {
                    cpi / base_elastic_cpi - 1.0
                } else {
                    0.0
                },
                opp_wall_clock: if base_opp > 0.0 { opp / base_opp } else { 1.0 },
                ways_stolen: ways,
            }
        })
        .collect();
    Fig8Result { baseline, points }
}

/// Runs the paper's sweep (bzip2, X ∈ {1,2,5,10,15,20}).
#[must_use]
pub fn run(params: &ExperimentParams) -> Fig8Result {
    run_bench(params, "bzip2", &SLACKS)
}

/// Prints both panels.
pub fn print(result: &Fig8Result, params: &ExperimentParams) {
    banner(
        "Figure 8: resource stealing vs Elastic slack X (bzip2, Hybrid-2)",
        params,
    );
    let mut t = Table::new(&[
        "X (slack)",
        "miss increase",
        "CPI increase",
        "ways stolen",
        "opp wall-clock vs no-steal",
    ]);
    for p in &result.points {
        t.row_owned(vec![
            format!("{:.0}%", p.slack),
            pct(p.miss_increase),
            pct(p.cpi_increase),
            format!("{:.1}", p.ways_stolen),
            format!("{:.3}", p.opp_wall_clock),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper shape: (a) miss increase tracks X while CPI increase stays well\n\
         below X (roughly 1/3-1/2); (b) opportunistic jobs speed up with X with\n\
         diminishing returns past ~5%."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_bounds_miss_increase_by_slack() {
        let mut p = ExperimentParams::quick();
        p.work = cmpqos_types::Instructions::new(150_000);
        let r = run_bench(&p, "bzip2", &[5.0, 20.0]);
        for point in &r.points {
            // The cumulative miss increase may transiently touch X before
            // cancellation; it must never blow past it.
            assert!(
                point.miss_increase <= point.slack / 100.0 + 0.05,
                "X={} but miss increase {}",
                point.slack,
                point.miss_increase
            );
            // CPI increase stays below the miss increase + noise.
            assert!(
                point.cpi_increase <= point.slack / 100.0 + 0.05,
                "X={} but CPI increase {}",
                point.slack,
                point.cpi_increase
            );
        }
        // Larger slack steals at least as many ways on average.
        assert!(
            r.points[1].ways_stolen >= r.points[0].ways_stolen - 0.51,
            "stolen: {:?}",
            r.points.iter().map(|p| p.ways_stolen).collect::<Vec<_>>()
        );
    }
}
