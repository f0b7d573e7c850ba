//! `traffic_tiers`: the four-scenario grid of `cmpqos traffic` (steady,
//! diurnal, flash-crowd and heavy-tail tiers) replayed through
//! `cmpqos_scenario::run`, one grid per unit seed. One op is one arrival
//! that reaches a final decision: admitted, rejected or shed.
//!
//! `scenario::replay` takes no recorder or LAC from its caller, so the
//! traced run re-drives each scenario from this file: `timeline`, then the
//! same `AdmissionIntake::offer`/`drain` calls into one shared `Lac`, which
//! must reproduce the scenario's `TrafficReport` exactly. The LAC's share
//! is then re-driven alone (each drain's LAC-bound batch through
//! `Lac::advance` + `Lac::admit_batch`, which must give the same
//! decisions), and the report bookkeeping alone (event schedule, exact
//! percentiles), each as one span per scenario.

use crate::harness::{Check, Layers, Model, Workload};
use crate::spans::{timed, Collector};
use cmpqos_core::{
    AdmissionIntake, AdmissionRequest, Decision, DrainedDecision, IntakeConfig, Lac, LacConfig,
    RejectReason, ResourceRequest,
};
use cmpqos_experiments::{traffic, ExperimentParams};
use cmpqos_obs::{NullRecorder, Recorder};
use cmpqos_scenario::{
    timeline, Arrival, PercentileReporter, ScenarioSpec, TierReport, TrafficReport,
};
use cmpqos_types::{Cycles, JobId, NodeId, SourceId, Ways};

/// One grid: its specs' horizons and the four reports.
pub struct Grid {
    horizon_cycles: u64,
    reports: Vec<TrafficReport>,
}

#[derive(Debug, Default)]
struct Acc {
    grids: u64,
    scenarios: u64,
    arrivals: u64,
    offered: u64,
    shed: u64,
    breaker_trips: u64,
    lac_decisions: u64,
    lac_accepted: u64,
    events: u64,
    timeline_secs: f64,
    redrive_secs: f64,
    lac_secs: f64,
    report_secs: f64,
    obs_secs: f64,
    grid_secs: Vec<f64>,
}

pub struct TrafficTiers {
    params: ExperimentParams,
    acc: Acc,
}

impl TrafficTiers {
    pub fn new() -> Self {
        Self {
            params: ExperimentParams::quick(),
            acc: Acc::default(),
        }
    }

    fn specs(&self, seed: u64) -> Vec<ScenarioSpec> {
        let mut params = self.params.clone();
        params.seed = seed;
        traffic::specs(&params)
    }
}

/// `scenario::replay`'s per-tier intake configuration.
fn intake_config(tier: &cmpqos_scenario::TierSpec) -> IntakeConfig {
    IntakeConfig::builder()
        .queue_capacity(tier.queue_capacity)
        .bucket_capacity(tier.bucket_capacity.min(u64::from(u32::MAX)) as u32)
        .refill_interval(Cycles::new(tier.refill_interval))
        .breaker_window(tier.breaker_window as usize)
        .breaker_threshold_pct(tier.breaker_threshold_pct)
        .breaker_cooldown(Cycles::new(tier.breaker_cooldown))
        .build()
}

fn request(id: usize, a: &Arrival) -> AdmissionRequest {
    let mut b = AdmissionRequest::builder(
        JobId::new(id as u32),
        ResourceRequest::new(1, Ways::new(a.ways)),
        Cycles::new(a.tw),
    )
    .source(SourceId::new(a.source))
    .mode(a.mode);
    if let Some(td) = a.deadline {
        b = b.deadline(Cycles::new(td));
    }
    b.build()
}

/// `scenario::replay`'s event schedule: arrivals, each tier's drain ticks
/// and a final drain at the horizon, offers before drains at one instant.
fn schedule(spec: &ScenarioSpec, arrivals: &[Arrival]) -> Vec<(u64, u8, usize, usize)> {
    let horizon = arrivals
        .iter()
        .map(|a| a.at)
        .max()
        .unwrap_or(0)
        .max(spec.horizon);
    let mut events: Vec<(u64, u8, usize, usize)> = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        events.push((a.at, 0, a.tier, i));
    }
    for (t, tier) in spec.tiers.iter().enumerate() {
        let de = tier.drain_every.max(1);
        let mut tick = de;
        while tick <= horizon {
            events.push((tick, 1, t, 0));
            tick += de;
        }
        if horizon % de != 0 {
            events.push((horizon, 1, t, 0));
        }
    }
    events.sort_unstable();
    events
}

/// Every drained decision with its drain's instant and tier, in order.
type Drains = Vec<(u64, usize, DrainedDecision)>;

/// Re-drives `scenario::replay` with `rec` as the event sink; returns the
/// report and every drained decision.
fn redrive(
    spec: &ScenarioSpec,
    arrivals: &[Arrival],
    rec: &mut dyn Recorder,
) -> (TrafficReport, Drains) {
    let tiers = spec.tiers.len();
    let mut lac = Lac::new(LacConfig::default());
    let mut intakes: Vec<AdmissionIntake> = spec
        .tiers
        .iter()
        .enumerate()
        .map(|(t, tier)| AdmissionIntake::new(NodeId::new(t as u32), intake_config(tier)))
        .collect();
    let mut reporters: Vec<PercentileReporter> = vec![PercentileReporter::default(); tiers];
    let mut deadline_total = vec![0u64; tiers];
    let mut deadline_hits = vec![0u64; tiers];
    let mut goodput = vec![0u64; tiers];
    let mut drains: Drains = Vec::new();
    for (time, kind, tier, payload) in schedule(spec, arrivals) {
        let now = Cycles::new(time);
        if kind == 0 {
            let a = &arrivals[payload];
            if a.deadline.is_some() && a.mode.reserves_resources() {
                deadline_total[tier] += 1;
            }
            let _ = intakes[tier].offer(request(payload, a), now, rec);
            continue;
        }
        for d in intakes[tier].drain(&mut lac, now, rec) {
            reporters[tier].record(d.waited.get());
            if d.decision.is_accepted() {
                let a = &arrivals[d.id.as_usize()];
                goodput[tier] += a.tw;
                if a.deadline.is_some() && a.mode.reserves_resources() {
                    deadline_hits[tier] += 1;
                }
            }
            drains.push((time, tier, d));
        }
    }
    let tiers = spec
        .tiers
        .iter()
        .enumerate()
        .map(|(t, tier)| {
            let s = intakes[t].stats();
            TierReport {
                name: tier.name.clone(),
                offered: s.offered,
                shed_infeasible: s.shed_infeasible,
                shed_rate_limited: s.shed_rate_limited,
                shed_breaker: s.shed_breaker,
                shed_queue_full: s.shed_queue_full,
                admitted: s.admitted,
                rejected: s.rejected,
                breaker_trips: s.breaker_trips,
                deadline_total: deadline_total[t],
                deadline_hits: deadline_hits[t],
                goodput: goodput[t],
                latency: reporters[t].summary(),
            }
        })
        .collect();
    let report = TrafficReport {
        name: spec.name.clone(),
        tiers,
    };
    (report, drains)
}

impl Workload for TrafficTiers {
    type Outcome = Grid;
    const NAME: &'static str = "traffic_tiers";
    const UNIT: &'static str = "grid";
    const OP: &'static str = "arrival";
    const NOMINAL_UNIT_SECS: f64 = 0.0026;
    const SETUP_REPS: usize = 15;

    fn prepare(&mut self) {
        let mut params = ExperimentParams::quick();
        params.jobs = 1;
        self.params = params;
    }

    fn run(&self, seed: u64) -> Grid {
        let specs = self.specs(seed);
        Grid {
            horizon_cycles: specs.iter().map(|s| s.horizon).sum(),
            reports: specs.iter().map(cmpqos_scenario::run).collect(),
        }
    }

    fn check(&self, grid: &Grid) -> Check {
        let mut check = Check::new(grid.reports.iter().map(TrafficReport::total_offered).sum());
        for r in &grid.reports {
            for t in &r.tiers {
                check.require(t.offered == t.admitted + t.rejected + t.shed(), || {
                    format!(
                        "{}/{}: offered {} != admitted {} + rejected {} + shed {}",
                        r.name,
                        t.name,
                        t.offered,
                        t.admitted,
                        t.rejected,
                        t.shed()
                    )
                });
            }
            check.require(
                r.tiers.first().is_some_and(|t| t.latency.p99.is_some()),
                || format!("{}: the premium tier drained nothing", r.name),
            );
        }
        check
    }

    fn model(&self, grid: &Grid) -> Model {
        let tiers = || grid.reports.iter().flat_map(|r| r.tiers.iter());
        Model {
            work: tiers().map(|t| u128::from(t.goodput)).sum(),
            cycles: u128::from(grid.horizon_cycles),
            hits: tiers().map(|t| t.deadline_hits).sum(),
            reserved: tiers().map(|t| t.deadline_total).sum(),
            premium_p99: grid
                .reports
                .iter()
                .filter_map(|r| r.tiers.first().and_then(|t| t.latency.p99))
                .max()
                .unwrap_or(0),
        }
    }

    fn trace(&mut self, seed: u64, untraced: &Grid) -> Result<f64, String> {
        let specs = self.specs(seed);
        let mut grid_secs = 0.0;
        for (spec, expected) in specs.iter().zip(&untraced.reports) {
            let (arrivals, timeline_secs) = timed(|| timeline(spec));
            // Once as the program runs it (no sink) and once recording
            // every event, in alternating order so warm-up cancels: the
            // difference is the `obs` layer's cost.
            let mut rec = Collector::default();
            let quiet_run = || timed(|| redrive(spec, &arrivals, &mut NullRecorder));
            let quiet_first = self.acc.scenarios.is_multiple_of(2).then(quiet_run);
            self.acc.scenarios += 1;
            let ((report, drains), redrive_secs) = timed(|| redrive(spec, &arrivals, &mut rec));
            let ((quiet, _), quiet_secs) = quiet_first.unwrap_or_else(quiet_run);
            if &report != expected || &quiet != expected {
                return Err(format!("{}: re-driven report differs", spec.name));
            }
            // Each drain's LAC-bound batch (drain-time sheds never reach
            // the LAC) and the waits the report's percentiles came from.
            let shed = Decision::Rejected(RejectReason::ShedInfeasible);
            let mut batches: Vec<(u64, usize, Vec<AdmissionRequest>, Vec<Decision>)> = Vec::new();
            let mut waits: Vec<Vec<u64>> = vec![Vec::new(); spec.tiers.len()];
            for &(now, tier, d) in &drains {
                waits[tier].push(d.waited.get());
                if d.decision == shed {
                    continue;
                }
                if batches.last().is_none_or(|b| (b.0, b.1) != (now, tier)) {
                    batches.push((now, tier, Vec::new(), Vec::new()));
                }
                let batch = batches.last_mut().expect("pushed above");
                batch
                    .2
                    .push(request(d.id.as_usize(), &arrivals[d.id.as_usize()]));
                batch.3.push(d.decision);
            }

            // The LAC alone: every drain's LAC-bound batch, in order.
            let mut lac = Lac::new(LacConfig::default());
            let mut null = NullRecorder;
            let (decisions, lac_secs) = timed(|| {
                batches
                    .iter()
                    .map(|(now, _, reqs, _)| {
                        lac.advance(Cycles::new(*now));
                        lac.admit_batch(reqs, &mut null)
                    })
                    .collect::<Vec<_>>()
            });
            if batches
                .iter()
                .zip(&decisions)
                .any(|((_, _, _, want), got)| want != got)
            {
                return Err(format!("{}: LAC re-drive decided differently", spec.name));
            }

            // The report bookkeeping alone: schedule, percentiles, summary.
            let ((), report_secs) = timed(|| {
                std::hint::black_box(schedule(spec, &arrivals).len());
                for tier_waits in &waits {
                    let mut reporter = PercentileReporter::default();
                    for &w in tier_waits {
                        reporter.record(w);
                    }
                    std::hint::black_box(reporter.summary());
                }
            });

            let a = &mut self.acc;
            a.arrivals += arrivals.len() as u64;
            for t in &report.tiers {
                a.offered += t.offered;
                a.shed += t.shed();
                a.breaker_trips += t.breaker_trips;
            }
            for (_, _, _, ds) in &batches {
                a.lac_decisions += ds.len() as u64;
                a.lac_accepted += ds.iter().filter(|d| d.is_accepted()).count() as u64;
            }
            a.events += rec.records.len() as u64;
            a.obs_secs += redrive_secs - quiet_secs;
            a.timeline_secs += timeline_secs;
            a.redrive_secs += redrive_secs;
            a.lac_secs += lac_secs;
            a.report_secs += report_secs;
            grid_secs += timeline_secs + redrive_secs;
        }
        self.acc.grids += 1;
        self.acc.grid_secs.push(grid_secs);
        Ok(grid_secs)
    }

    fn layers(&self) -> Layers {
        let a = &self.acc;
        let arrivals = a.arrivals.max(1) as f64;
        let traced_total = a.timeline_secs + a.redrive_secs;
        // Summed over every scenario before clamping, so noise in single
        // differences cancels.
        let obs_secs = a.obs_secs.max(0.0);
        let children = vec![
            ("scenario.timeline", a.timeline_secs),
            ("scenario.report", a.report_secs),
            ("core.lac", a.lac_secs),
            ("obs", obs_secs),
        ];
        let intake_self = traced_total - children.iter().map(|(_, s)| s).sum::<f64>();
        let metrics = vec![
            (
                "core.lac.ns_per_decision",
                a.lac_secs * 1e9 / a.lac_decisions.max(1) as f64,
                "ns",
            ),
            (
                "core.lac.accept_pct",
                100.0 * a.lac_accepted as f64 / a.lac_decisions.max(1) as f64,
                "%",
            ),
            (
                "core.intake.ns_per_offer",
                intake_self * 1e9 / a.offered.max(1) as f64,
                "ns",
            ),
            (
                "core.intake.shed_pct",
                100.0 * a.shed as f64 / a.offered.max(1) as f64,
                "%",
            ),
            (
                "core.intake.breaker_trips",
                a.breaker_trips as f64 / a.grids.max(1) as f64,
                "count",
            ),
            (
                "scenario.timeline_ns_per_arrival",
                a.timeline_secs * 1e9 / arrivals,
                "ns",
            ),
            (
                "scenario.report_ns_per_arrival",
                a.report_secs * 1e9 / arrivals,
                "ns",
            ),
            (
                "obs.events_per_op",
                a.events as f64 / a.offered.max(1) as f64,
                "count",
            ),
            (
                "obs.ns_per_event",
                obs_secs * 1e9 / a.events.max(1) as f64,
                "ns",
            ),
        ];
        Layers {
            metrics,
            parent: "core.intake",
            children,
            traced_total,
            overhead_secs: obs_secs,
            timings: vec![("traced grid".into(), "s", a.grid_secs.clone())],
        }
    }
}
