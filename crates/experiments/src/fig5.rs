//! **Figure 5** — the headline result. For each single-benchmark 10-job
//! workload (`gobmk`, `hmmer`, `bzip2`) and each Table 2 configuration:
//!
//! * **(a)** deadline hit rate — 100% for every QoS configuration, low for
//!   `EqualPart`;
//! * **(b)** job throughput normalized to `All-Strict` — `EqualPart`
//!   highest (the cost of strict QoS), `Hybrid-1`/`Hybrid-2` recovering
//!   ~25%, `All-Strict+AutoDown` recovering 13–39%.

use crate::output::{banner, gain, pct, Table};
use crate::params::ExperimentParams;
use cmpqos_workloads::metrics::{normalized_throughput, paper_hit_rate};
use cmpqos_workloads::runner::{run_batch, RunConfig, RunOutcome};
use cmpqos_workloads::{Configuration, WorkloadSpec};

/// All cells of one workload row.
#[derive(Debug, Clone)]
pub struct Fig5Workload {
    /// Workload name (benchmark).
    pub bench: String,
    /// Outcomes per configuration, in [`Configuration::all`] order.
    pub outcomes: Vec<RunOutcome>,
}

impl Fig5Workload {
    /// The `All-Strict` baseline outcome.
    ///
    /// # Panics
    ///
    /// Panics if the row is empty (never produced by [`run`]).
    #[must_use]
    pub fn baseline(&self) -> &RunOutcome {
        &self.outcomes[0]
    }
}

/// The benchmarks of the single-benchmark workloads.
pub const BENCHMARKS: [&str; 3] = ["gobmk", "hmmer", "bzip2"];

/// Runs every (workload, configuration) cell.
#[must_use]
pub fn run(params: &ExperimentParams) -> Vec<Fig5Workload> {
    run_for(params, &BENCHMARKS)
}

/// Runs a chosen subset of benchmarks (tests use one). All
/// (workload, configuration) cells go through the `cmpqos-engine` pool
/// (`params.jobs` wide) and come back in cell order.
#[must_use]
pub fn run_for(params: &ExperimentParams, benches: &[&str]) -> Vec<Fig5Workload> {
    let configs = Configuration::all();
    let cells: Vec<RunConfig> = benches
        .iter()
        .flat_map(|bench| {
            configs.iter().map(|&configuration| RunConfig {
                workload: WorkloadSpec::single(bench, 10),
                configuration,
                scale: params.scale,
                work: params.work,
                seed: params.seed,
                stealing_enabled: true,
                events: params.events.clone(),
            })
        })
        .collect();
    let mut outcomes = run_batch(cells, params.jobs).into_iter();
    benches
        .iter()
        .map(|bench| Fig5Workload {
            bench: (*bench).to_string(),
            outcomes: outcomes.by_ref().take(configs.len()).collect(),
        })
        .collect()
}

/// Prints both panels.
pub fn print(rows: &[Fig5Workload], params: &ExperimentParams) {
    banner("Figure 5a: deadline hit rate", params);
    let configs = Configuration::all();
    let headers: Vec<&str> = std::iter::once("workload")
        .chain(configs.iter().map(|c| c.label()))
        .collect();
    let mut a = Table::new(&headers);
    for row in rows {
        let mut cells = vec![format!("{} x10", row.bench)];
        for o in &row.outcomes {
            cells.push(pct(paper_hit_rate(o)));
        }
        a.row_owned(cells);
    }
    println!("{}", a.render());

    banner("Figure 5b: throughput normalized to All-Strict", params);
    let mut b = Table::new(&headers);
    for row in rows {
        let base = row.baseline();
        let mut cells = vec![format!("{} x10", row.bench)];
        for o in &row.outcomes {
            cells.push(format!(
                "{:.2} ({})",
                normalized_throughput(base, o),
                gain(normalized_throughput(base, o))
            ));
        }
        b.row_owned(cells);
    }
    println!("{}", b.render());
    println!(
        "paper shape: QoS configs 100% hit rate, EqualPart 10-50%; EqualPart throughput\n\
         +25..64% over All-Strict; Hybrid-1/2 ~ +25%; AutoDown +13..39%."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gobmk_row_has_paper_shape() {
        let p = ExperimentParams::quick();
        let rows = run_for(&p, &["gobmk"]);
        let row = &rows[0];
        let configs = Configuration::all();
        for (c, o) in configs.iter().zip(&row.outcomes) {
            if c.uses_admission_control() {
                assert_eq!(
                    paper_hit_rate(o),
                    1.0,
                    "{c} must hit all reserved deadlines"
                );
            }
        }
        let base = row.baseline();
        // EqualPart beats All-Strict on throughput.
        let equal = row.outcomes.last().unwrap();
        assert!(
            normalized_throughput(base, equal) > 1.05,
            "EqualPart gain: {}",
            normalized_throughput(base, equal)
        );
        // Hybrid-1 also improves on All-Strict.
        let h1 = &row.outcomes[1];
        assert!(
            normalized_throughput(base, h1) > 1.0,
            "Hybrid-1 gain: {}",
            normalized_throughput(base, h1)
        );
    }
}
