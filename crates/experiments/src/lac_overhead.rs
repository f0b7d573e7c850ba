//! **Section 7.5** — characterization of the Local Admission Controller:
//! its modeled occupancy stays under 1% of each workload's wall-clock time,
//! and its cost grows only linearly with submission pressure.

use crate::output::{banner, pct, Table};
use crate::params::ExperimentParams;
use cmpqos_workloads::metrics::lac_occupancy;
use cmpqos_workloads::runner::{run_batch, RunConfig};
use cmpqos_workloads::{Configuration, WorkloadSpec};

/// One workload's LAC characterization.
#[derive(Debug, Clone)]
pub struct LacRow {
    /// Workload name.
    pub workload: String,
    /// Total submissions offered (accepted + rejected).
    pub submissions: u64,
    /// Admission tests performed.
    pub tests: u64,
    /// Modeled LAC cost in cycles.
    pub cost_cycles: u64,
    /// Occupancy: cost / paper-equivalent wall-clock.
    pub occupancy: f64,
}

/// Characterizes the LAC across the three single-benchmark workloads under
/// `All-Strict` (the most admission-intensive configuration). The three
/// cells run on the `cmpqos-engine` pool.
#[must_use]
pub fn run(params: &ExperimentParams) -> Vec<LacRow> {
    let benches = ["gobmk", "hmmer", "bzip2"];
    let cells: Vec<RunConfig> = benches
        .iter()
        .map(|bench| RunConfig {
            workload: WorkloadSpec::single(bench, 10),
            configuration: Configuration::AllStrict,
            scale: params.scale,
            work: params.work,
            seed: params.seed,
            stealing_enabled: true,
            events: params.events.clone(),
        })
        .collect();
    benches
        .iter()
        .zip(run_batch(cells, params.jobs))
        .map(|(bench, o)| LacRow {
            workload: format!("{bench} x10"),
            submissions: o.submissions,
            tests: o.lac_tests,
            cost_cycles: o.lac_cost.get(),
            occupancy: lac_occupancy(&o),
        })
        .collect()
}

/// Prints the characterization.
pub fn print(rows: &[LacRow], params: &ExperimentParams) {
    banner("Section 7.5: LAC occupancy characterization", params);
    let mut t = Table::new(&[
        "workload",
        "submissions",
        "admission tests",
        "cost (cycles)",
        "occupancy",
    ]);
    for r in rows {
        t.row_owned(vec![
            r.workload.clone(),
            r.submissions.to_string(),
            r.tests.to_string(),
            r.cost_cycles.to_string(),
            pct(r.occupancy),
        ]);
    }
    println!("{}", t.render());
    println!("paper shape: occupancy below 1% of each workload's wall-clock time.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_stays_below_one_percent() {
        let p = ExperimentParams::quick();
        for r in run(&p) {
            assert!(r.occupancy < 0.01, "{}: {}", r.workload, r.occupancy);
            assert!(r.tests >= r.submissions);
        }
    }
}
