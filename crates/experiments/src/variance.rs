//! Seed-stability study: the paper's claims are about *shapes*, so this
//! experiment reruns the Figure 5 cells across several seeds (arrivals,
//! deadline classes and trace randomness all reseed) and reports the mean
//! and spread of each configuration's deadline hit rate and normalized
//! throughput. The QoS guarantee must hold at *every* seed; the throughput
//! gains may wobble by a few points.

use crate::output::{banner, Table};
use crate::params::ExperimentParams;
use cmpqos_types::RunningStats;
use cmpqos_workloads::metrics::{normalized_throughput, paper_hit_rate};
use cmpqos_workloads::runner::{run_batch, RunConfig};
use cmpqos_workloads::{Configuration, WorkloadSpec};

/// Stability statistics for one configuration.
#[derive(Debug, Clone)]
pub struct VarianceRow {
    /// Configuration label.
    pub label: &'static str,
    /// Deadline hit rate across seeds.
    pub hit_rate: RunningStats,
    /// Throughput normalized to the same-seed All-Strict run.
    pub throughput: RunningStats,
}

/// Runs the given workload under every configuration for each seed. All
/// (seed, configuration) cells run on the `cmpqos-engine` pool; the stats
/// are then accumulated in the fixed seed-outer/config-inner order so the
/// running aggregates are bitwise identical at every pool width.
#[must_use]
pub fn run_workload(
    params: &ExperimentParams,
    workload: &WorkloadSpec,
    seeds: &[u64],
) -> Vec<VarianceRow> {
    let configs = Configuration::all();
    let mut rows: Vec<VarianceRow> = configs
        .iter()
        .map(|c| VarianceRow {
            label: c.label(),
            hit_rate: RunningStats::new(),
            throughput: RunningStats::new(),
        })
        .collect();
    let cells: Vec<RunConfig> = seeds
        .iter()
        .flat_map(|&seed| {
            configs.iter().map(move |&configuration| RunConfig {
                workload: workload.clone(),
                configuration,
                scale: params.scale,
                work: params.work,
                seed,
                stealing_enabled: true,
                events: params.events.clone(),
            })
        })
        .collect();
    let outcomes = run_batch(cells, params.jobs);
    for per_seed in outcomes.chunks(configs.len()) {
        // `Configuration::all` starts with All-Strict: the first outcome
        // of each seed chunk is that seed's normalization baseline.
        let base = &per_seed[0];
        for (row, o) in rows.iter_mut().zip(per_seed) {
            row.hit_rate.record(paper_hit_rate(o));
            row.throughput.record(normalized_throughput(base, o));
        }
    }
    rows
}

/// Runs the default stability study: the gobmk workload across 5 seeds.
#[must_use]
pub fn run(params: &ExperimentParams) -> Vec<VarianceRow> {
    run_workload(params, &WorkloadSpec::single("gobmk", 10), &[1, 2, 3, 4, 5])
}

/// Prints the study.
pub fn print(rows: &[VarianceRow], params: &ExperimentParams) {
    banner(
        "Seed stability: Figure 5 cells across 5 seeds (gobmk x10)",
        params,
    );
    let mut t = Table::new(&[
        "configuration",
        "hit rate mean",
        "hit rate min",
        "throughput mean",
        "throughput sd",
    ]);
    for r in rows {
        t.row_owned(vec![
            r.label.to_string(),
            format!("{:.3}", r.hit_rate.mean()),
            format!("{:.3}", r.hit_rate.min().unwrap_or(0.0)),
            format!("{:.3}", r.throughput.mean()),
            format!("{:.3}", r.throughput.std_dev()),
        ]);
    }
    println!("{}", t.render());
    println!("expected: QoS rows hold hit rate 1.000 at every seed; gains wobble a few points.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_guarantee_holds_at_every_seed() {
        let mut p = ExperimentParams::quick();
        p.work = cmpqos_types::Instructions::new(50_000);
        let rows = run_workload(&p, &WorkloadSpec::single("gobmk", 6), &[11, 12, 13]);
        for r in rows {
            if r.label != "EqualPart" {
                assert_eq!(
                    r.hit_rate.min(),
                    Some(1.0),
                    "{}: hit rate dipped below 1.0",
                    r.label
                );
            }
            assert_eq!(r.hit_rate.count(), 3);
        }
    }
}
