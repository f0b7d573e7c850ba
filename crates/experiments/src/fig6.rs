//! **Figure 6** — average (and min/max candle) wall-clock time of jobs per
//! execution mode, per configuration, for the `bzip2` workload.
//!
//! Paper shape: Strict jobs have short, almost-constant wall-clock in every
//! QoS configuration; Elastic jobs run slightly longer (stealing);
//! Opportunistic jobs longer and more variable (Hybrid-2's opportunistic
//! jobs faster than Hybrid-1's thanks to stolen capacity); AutoDown's jobs
//! longer and variable but all within deadlines; EqualPart highest mean and
//! variance.

use crate::output::{banner, Table};
use crate::params::ExperimentParams;
use cmpqos_workloads::metrics::wall_clock_by_mode;
use cmpqos_workloads::runner::{run_batch, RunConfig, RunOutcome};
use cmpqos_workloads::{Configuration, WorkloadSpec};

/// Outcomes per configuration for the bzip2 workload.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// One outcome per configuration in [`Configuration::all`] order.
    pub outcomes: Vec<RunOutcome>,
}

/// Runs the bzip2 workload under every configuration.
#[must_use]
pub fn run(params: &ExperimentParams) -> Fig6Result {
    run_bench(params, "bzip2")
}

/// Runs a chosen benchmark (tests use gobmk for speed). The per-config
/// cells run on the `cmpqos-engine` pool.
#[must_use]
pub fn run_bench(params: &ExperimentParams, bench: &str) -> Fig6Result {
    let cells: Vec<RunConfig> = Configuration::all()
        .into_iter()
        .map(|configuration| RunConfig {
            workload: WorkloadSpec::single(bench, 10),
            configuration,
            scale: params.scale,
            work: params.work,
            seed: params.seed,
            stealing_enabled: true,
            events: params.events.clone(),
        })
        .collect();
    Fig6Result {
        outcomes: run_batch(cells, params.jobs),
    }
}

/// Prints mean/min/max wall-clock (in Mcycles) per mode per configuration.
pub fn print(result: &Fig6Result, params: &ExperimentParams) {
    banner(
        "Figure 6: wall-clock time per execution mode (bzip2 workload)",
        params,
    );
    let mut t = Table::new(&["configuration", "mode", "jobs", "avg Mcyc", "min", "max"]);
    for o in &result.outcomes {
        for (mode, stats) in wall_clock_by_mode(o) {
            let m = 1.0e6;
            t.row_owned(vec![
                o.configuration.label().to_string(),
                mode.to_string(),
                stats.count().to_string(),
                format!("{:.2}", stats.mean() / m),
                format!("{:.2}", stats.min().unwrap_or(0.0) / m),
                format!("{:.2}", stats.max().unwrap_or(0.0) / m),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "paper shape: Strict short/constant; Opportunistic longer & variable\n\
         (Hybrid-2 < Hybrid-1 thanks to stealing); EqualPart highest mean and range."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_jobs_have_low_variance_and_equalpart_is_stretched() {
        let p = ExperimentParams::quick();
        let r = run_bench(&p, "gobmk");
        // All-Strict (index 0): only Strict jobs, tight spread.
        let strict = wall_clock_by_mode(&r.outcomes[0]);
        let s = strict.get("Strict").expect("strict jobs ran");
        assert!(s.count() == 10);
        let spread = (s.max().unwrap() - s.min().unwrap()) / s.mean();
        assert!(spread < 0.5, "strict spread {spread}");
        // EqualPart (last): mean wall-clock larger than All-Strict's
        // (timesharing stretches every job).
        let equal = wall_clock_by_mode(r.outcomes.last().unwrap());
        let e = equal.get("Strict").expect("equalpart jobs recorded");
        assert!(
            e.mean() > s.mean(),
            "EqualPart stretch: {} vs {}",
            e.mean(),
            s.mean()
        );
    }
}
