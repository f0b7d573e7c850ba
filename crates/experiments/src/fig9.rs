//! **Figure 9** — the mixed-benchmark workloads of Table 3.
//!
//! Paper shape: the QoS framework holds 100% deadline hit rates where
//! `EqualPart` drops to 30–40%; all of Hybrid-1/Hybrid-2/AutoDown improve
//! throughput substantially over All-Strict; and the Mix-1/Mix-2 ordering
//! *flips* between Hybrid-1 (Mix-2 ahead) and Hybrid-2 (Mix-1 ahead,
//! because Mix-1 donates insensitive gobmk capacity to cache-hungry bzip2).

use crate::output::{banner, gain, pct, Table};
use crate::params::ExperimentParams;
use cmpqos_workloads::metrics::{normalized_throughput, paper_hit_rate};
use cmpqos_workloads::runner::{run_batch, RunConfig, RunOutcome};
use cmpqos_workloads::{Configuration, WorkloadSpec};

/// One mix's row of outcomes.
#[derive(Debug, Clone)]
pub struct Fig9Mix {
    /// Mix name.
    pub name: String,
    /// Outcomes per configuration, in [`Configuration::all`] order.
    pub outcomes: Vec<RunOutcome>,
}

/// Runs both mixes under every configuration.
#[must_use]
pub fn run(params: &ExperimentParams) -> Vec<Fig9Mix> {
    [WorkloadSpec::mix1(), WorkloadSpec::mix2()]
        .into_iter()
        .map(|workload| run_mix(params, workload))
        .collect()
}

/// Runs one mix under every configuration. The per-config cells run on
/// the `cmpqos-engine` pool.
#[must_use]
pub fn run_mix(params: &ExperimentParams, workload: WorkloadSpec) -> Fig9Mix {
    let name = workload.name().to_string();
    let cells: Vec<RunConfig> = Configuration::all()
        .into_iter()
        .map(|configuration| RunConfig {
            workload: workload.clone(),
            configuration,
            scale: params.scale,
            work: params.work,
            seed: params.seed,
            stealing_enabled: true,
            events: params.events.clone(),
        })
        .collect();
    Fig9Mix {
        name,
        outcomes: run_batch(cells, params.jobs),
    }
}

/// Prints both panels.
pub fn print(mixes: &[Fig9Mix], params: &ExperimentParams) {
    let configs = Configuration::all();
    let headers: Vec<&str> = std::iter::once("workload")
        .chain(configs.iter().map(|c| c.label()))
        .collect();

    banner("Figure 9a: deadline hit rate (mixed workloads)", params);
    let mut a = Table::new(&headers);
    for m in mixes {
        let mut cells = vec![m.name.clone()];
        for o in &m.outcomes {
            cells.push(pct(paper_hit_rate(o)));
        }
        a.row_owned(cells);
    }
    println!("{}", a.render());

    banner("Figure 9b: throughput normalized to All-Strict", params);
    let mut b = Table::new(&headers);
    for m in mixes {
        let base = &m.outcomes[0];
        let mut cells = vec![m.name.clone()];
        for o in &m.outcomes {
            let r = normalized_throughput(base, o);
            cells.push(format!("{r:.2} ({})", gain(r)));
        }
        b.row_owned(cells);
    }
    println!("{}", b.render());
    println!(
        "paper shape: 100% QoS hit rates vs 30-40% EqualPart; Hybrid-1: Mix-2 > Mix-1\n\
         (35% vs 42%); Hybrid-2: Mix-1 > Mix-2 (47% vs 39%) - stealing favours Mix-1."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_hold_deadlines_under_qos() {
        let p = ExperimentParams::quick();
        let m = run_mix(&p, WorkloadSpec::mix1());
        for (c, o) in Configuration::all().iter().zip(&m.outcomes) {
            if c.uses_admission_control() {
                assert_eq!(paper_hit_rate(o), 1.0, "{c}");
            }
        }
        // Hybrid-2 improves throughput over All-Strict for the favorable mix.
        let base = &m.outcomes[0];
        let h2 = &m.outcomes[2];
        assert!(
            normalized_throughput(base, h2) > 1.0,
            "Hybrid-2 gain {}",
            normalized_throughput(base, h2)
        );
    }
}
