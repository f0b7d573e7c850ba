//! **Traffic** — production-shaped load through the admission stack:
//! the `cmpqos-scenario` DSL's seeded multi-tenant scenarios (steady
//! tiers, diurnal curves, flash crowds, heavy-tailed sizes) driven
//! through per-tier [`cmpqos_core::AdmissionIntake`]s into a shared
//! LAC, reporting *exact* per-tier p50/p95/p99/p999 admission latency,
//! deadline-hit rate, shed breakdown, and goodput.
//!
//! This answers the "millions of users" question the paper-figure
//! workloads cannot: what does the tail look like per priority tier
//! when the arrival process is not a polite Poisson trickle? Each
//! scenario is one independent cell on the `cmpqos-engine` pool;
//! everything inside a cell is integer-clocked and seeded, so the
//! printed tables are byte-identical across machines and `--jobs`
//! widths.
//!
//! The shape to expect: the premium tier's faster drain cadence buys it
//! the lowest tail latency and the highest deadline-hit rate in every
//! scenario; flash crowds and heavy tails widen the lower tiers'
//! p99/p999 spread without disturbing premium's ordering.

use crate::output::{banner, pct, Table};
use crate::params::ExperimentParams;
use cmpqos_scenario::{
    run as run_spec, ArrivalShape, ModeMix, ScenarioSpec, SizeDist, TierSpec, TrafficReport,
};

/// The standard three-tier topology every tiered scenario shares:
/// premium (hot drain cadence, strict-heavy, small jobs), standard
/// (middling everything), batch (slow cadence, opportunistic-heavy,
/// heavy-tailed appetite). Also the topology the `traffic` conformance
/// check and the `starve-tier` injection run.
#[must_use]
pub fn tiered_spec(seed: u64, horizon: u64) -> ScenarioSpec {
    ScenarioSpec::new("steady-tiers", seed)
        .horizon(horizon)
        .ways(2, 5)
        .tier(
            TierSpec::new("premium")
                .sources(2)
                .mean_inter_arrival(2_400)
                .mix(ModeMix {
                    strict_pct: 70,
                    elastic_pct: 20,
                    elastic_slack_pct: 25,
                })
                .size(SizeDist {
                    base: 1_500,
                    tail_pct: 10,
                    tail_cap: 2,
                })
                .deadline_slack_pct(350)
                .drain_every(200),
        )
        .tier(
            TierSpec::new("standard")
                .sources(3)
                .mean_inter_arrival(2_200)
                .mix(ModeMix {
                    strict_pct: 40,
                    elastic_pct: 30,
                    elastic_slack_pct: 25,
                })
                .size(SizeDist {
                    base: 1_500,
                    tail_pct: 20,
                    tail_cap: 3,
                })
                .deadline_slack_pct(350)
                .drain_every(1_000),
        )
        .tier(
            TierSpec::new("batch")
                .sources(3)
                .mean_inter_arrival(2_000)
                .mix(ModeMix {
                    strict_pct: 10,
                    elastic_pct: 30,
                    elastic_slack_pct: 50,
                })
                .size(SizeDist {
                    base: 2_000,
                    tail_pct: 30,
                    tail_cap: 4,
                })
                .deadline_slack_pct(350)
                .drain_every(4_000),
        )
}

/// The swept scenario grid: the shared tiered topology under four
/// traffic shapes.
#[must_use]
pub fn specs(params: &ExperimentParams) -> Vec<ScenarioSpec> {
    let horizon = 200_000;
    let base = tiered_spec(params.seed, horizon);

    let mut diurnal = base.clone();
    diurnal.name = "diurnal".to_string();
    for tier in &mut diurnal.tiers {
        tier.shape = ArrivalShape::Diurnal {
            period: 50_000,
            swing_pct: 60,
        };
    }

    let mut flash = base.clone();
    flash.name = "flash-crowd".to_string();
    flash.tiers[2].shape = ArrivalShape::Bursty {
        period: 40_000,
        on_pct: 15,
        burst_div: 10,
    };

    let mut heavy = base.clone();
    heavy.name = "heavy-tail".to_string();
    for tier in &mut heavy.tiers {
        tier.size.tail_pct = 35;
        tier.size.tail_cap = 5;
    }

    vec![base, diurnal, flash, heavy]
}

/// Runs the grid on the engine pool (one cell per scenario).
#[must_use]
pub fn run(params: &ExperimentParams) -> Vec<TrafficReport> {
    cmpqos_engine::Engine::new(params.jobs).run(specs(params), |_, spec| run_spec(&spec))
}

fn cycles_or_dash(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// Renders one scenario's per-tier table.
#[must_use]
pub fn render_report(report: &TrafficReport) -> String {
    let total_goodput = report
        .tiers
        .iter()
        .fold(0u64, |sum, t| sum.saturating_add(t.goodput));
    let mut t = Table::new(&[
        "tier",
        "offered",
        "shed",
        "admitted",
        "rejected",
        "p50",
        "p95",
        "p99",
        "p999",
        "deadline hit",
        "goodput",
    ]);
    for tier in &report.tiers {
        t.row_owned(vec![
            tier.name.clone(),
            tier.offered.to_string(),
            tier.shed().to_string(),
            tier.admitted.to_string(),
            tier.rejected.to_string(),
            cycles_or_dash(tier.latency.p50),
            cycles_or_dash(tier.latency.p95),
            cycles_or_dash(tier.latency.p99),
            cycles_or_dash(tier.latency.p999),
            tier.deadline_hit_permille()
                .map_or_else(|| "-".to_string(), |p| pct(p as f64 / 1000.0)),
            if total_goodput == 0 {
                "-".to_string()
            } else {
                pct(tier.goodput as f64 / total_goodput as f64)
            },
        ]);
    }
    format!("-- {} --\n{}", report.name, t.render())
}

/// Prints every scenario's table plus the shape note.
pub fn print(reports: &[TrafficReport], params: &ExperimentParams) {
    banner(
        "Traffic: production scenarios through the admission stack",
        params,
    );
    for report in reports {
        println!("{}", render_report(report));
    }
    println!(
        "shape: the premium tier's hot drain cadence holds the lowest p99 and the \
         highest deadline-hit rate in every scenario; flash crowds and heavy tails \
         widen the lower tiers' tails (latency in cycles, exact nearest-rank \
         percentiles over every drained request)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_reports_ordered_tier_tails() {
        let reports = run(&ExperimentParams::quick());
        assert_eq!(reports.len(), 4);
        for report in &reports {
            let p99: Vec<u64> = report
                .tiers
                .iter()
                .map(|t| t.latency.p99.expect("every tier drains jobs"))
                .collect();
            assert!(
                p99[0] <= p99[1] && p99[1] <= p99[2],
                "{}: tier p99s out of order: {p99:?}",
                report.name
            );
            for tier in &report.tiers {
                assert_eq!(
                    tier.offered,
                    tier.shed() + tier.admitted + tier.rejected,
                    "{}/{}: accounting must close",
                    report.name,
                    tier.name
                );
            }
        }
    }

    #[test]
    fn the_grid_is_deterministic_at_any_pool_width() {
        let mut serial = ExperimentParams::quick();
        serial.jobs = 1;
        let mut wide = serial.clone();
        wide.jobs = 4;
        let a = run(&serial);
        let b = run(&wide);
        assert_eq!(a, b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(render_report(x), render_report(y));
        }
    }

    #[test]
    fn starving_the_premium_tier_breaks_its_ordering() {
        let params = ExperimentParams::quick();
        let spec = tiered_spec(params.seed, 200_000);
        let healthy = run_spec(&spec);
        let starved = run_spec(&spec.starved(64));
        let h = healthy.tiers[0].latency.p99.expect("samples");
        let s = starved.tiers[0].latency.p99.expect("samples");
        assert!(s > h, "starved premium p99 {s} not above healthy {h}");
    }
}
