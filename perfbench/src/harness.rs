//! The workload-independent harness: set-up, the timed unit loop, output
//! checks, the determinism self-check, the traced pass and the report.

use crate::spans::{peak_rss_mb, reset_peak_rss};
use crate::Args;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How far the reconciled traced total (traced time minus what tracing
/// itself adds) may sit from the untraced total, as a share of the
/// untraced total.
pub const RECONCILE_TOLERANCE: f64 = 0.20;

/// A traced run covers one unit in this many of the untraced run's list.
const TRACED_SHARE: u64 = 3;

/// What one unit's output check found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// Ops the unit attempted.
    pub attempted: u64,
    /// Why the output is wrong; empty when every check holds.
    pub errors: Vec<String>,
}

impl Check {
    pub fn new(attempted: u64) -> Self {
        Self {
            attempted,
            errors: Vec::new(),
        }
    }

    /// Records a failed check unless `holds`.
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.errors.push(what());
        }
    }

    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The exact modelled quantities one unit contributes. Summed (or, for the
/// premium p99, collected) over a run's units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Model {
    /// Numerator of `sim_ipc`: retired (or reserved) work.
    pub work: u128,
    /// Denominator of `sim_ipc`: modelled cycles.
    pub cycles: u128,
    /// Reserved jobs that met their deadline.
    pub hits: u64,
    /// Reserved jobs.
    pub reserved: u64,
    /// The unit's premium-class p99 latency in cycles.
    pub premium_p99: u64,
}

/// The per-layer side of a traced run, reported once for all units.
pub struct Layers {
    /// Every per-layer metric this workload measures: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The parent layer whose self time is the remainder.
    pub parent: &'static str,
    /// Child layers' self times in seconds, summed over units.
    pub children: Vec<(&'static str, f64)>,
    /// The traced total the children and the parent add up to.
    pub traced_total: f64,
    /// Host seconds the tracing itself adds to `traced_total`: recording
    /// the untraced run does not do, and span clock reads.
    pub overhead_secs: f64,
    /// Extra timing samples to report (name, unit, samples).
    pub timings: Vec<(String, &'static str, Vec<f64>)>,
}

/// One workload of the benchmark.
pub trait Workload {
    type Outcome;
    /// Workload name, as passed to `--workload`.
    const NAME: &'static str;
    /// What one timed unit is.
    const UNIT: &'static str;
    /// What one op is.
    const OP: &'static str;
    /// Host seconds one unit takes on the reference machine. Sizes the unit
    /// list from `--seconds`; the run never stops on a clock.
    const NOMINAL_UNIT_SECS: f64;
    /// Set-up repetitions; `setup_s` is their median.
    const SETUP_REPS: usize;

    /// Builds configurations and anything else a unit needs besides its
    /// seed (part of set-up).
    fn prepare(&mut self);
    /// Runs one unit, untraced, through the program's entry point.
    fn run(&self, seed: u64) -> Self::Outcome;
    /// Checks the unit's outputs.
    fn check(&self, outcome: &Self::Outcome) -> Check;
    /// The unit's exact modelled quantities.
    fn model(&self, outcome: &Self::Outcome) -> Model;
    /// Runs the unit traced: times the traced run, records the layers'
    /// spans and counts, and re-drives whatever has no seam. Returns the
    /// traced run's host seconds, or how its outcome (or a re-drive's)
    /// differs from the untraced outcome.
    fn trace(&mut self, seed: u64, untraced: &Self::Outcome) -> Result<f64, String>;
    /// The per-layer report over every traced unit.
    fn layers(&self) -> Layers;
}

/// The result line.
pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Every per-layer metric, in report order, with its unit. A workload that
/// does not exercise a layer reports 0 for it.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("trace.ns_per_instr", "ns"),
    ("cache.l1.ns_per_access", "ns"),
    ("cache.l1.miss_pct", "%"),
    ("cache.l2.ns_per_access", "ns"),
    ("cache.l2.miss_pct", "%"),
    ("cache.shadow.ns_per_observe", "ns"),
    ("cache.shadow.observes_per_kinstr", "1/kinstr"),
    ("mem.ns_per_request", "ns"),
    ("mem.queue_cycles_per_request", "cycles"),
    ("system.self_ns_per_instr", "ns"),
    ("workloads.calibrate_pct", "%"),
    ("core.scheduler.submits_per_cell", "count"),
    ("core.stealing.steals_per_cell", "count"),
    ("core.stealing.guard_trips_per_cell", "count"),
    ("core.lac.ns_per_decision", "ns"),
    ("core.lac.accept_pct", "%"),
    ("core.lac.backend_ns_per_call", "ns"),
    ("core.intake.ns_per_offer", "ns"),
    ("core.intake.shed_pct", "%"),
    ("core.intake.breaker_trips", "count"),
    ("scenario.timeline_ns_per_arrival", "ns"),
    ("scenario.report_ns_per_arrival", "ns"),
    ("core.gac.net_us_per_job", "us"),
    ("core.gac.local_us_per_job", "us"),
    ("core.gac.conversations_per_job", "count"),
    ("core.gac.retransmits_per_job", "count"),
    ("core.gac.migrations_per_cell", "count"),
    ("net.frames_per_job", "count"),
    ("net.retained_frames", "count"),
    ("recovery.records_per_job", "count"),
    ("recovery.recover_ms", "ms"),
    ("obs.events_per_op", "count"),
    ("obs.ns_per_event", "ns"),
];

/// SplitMix64: the unit seeds of run seed `seed`.
pub fn unit_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(index.wrapping_add(1))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `permille`/1000 of `values`.
fn nearest_rank(values: &[f64], permille: u64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (permille * v.len() as u64).div_ceil(1000).max(1) as usize;
    v[rank.min(v.len()) - 1]
}

/// Nearest-rank percentile of integer samples.
pub fn nearest_rank_u64(values: &[u64], permille: u64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    let rank = (permille * v.len() as u64).div_ceil(1000).max(1) as usize;
    v[rank.min(v.len()) - 1]
}

/// One timing line: median, sample count, and the highest percentile (in
/// per-mille steps) with at least ten samples beyond it.
pub fn timing_line(name: &str, unit: &str, samples: &[f64]) -> String {
    let n = samples.len();
    let med = median(samples);
    let tail = if n > 10 {
        let permille = (1000 * (n as u64 - 10)) / n as u64;
        format!(
            ", p{} {:.6} {unit}",
            format_permille(permille),
            nearest_rank(samples, permille)
        )
    } else {
        ", no percentile with 10 samples beyond it".to_string()
    };
    format!("{name}: median {med:.6} {unit}{tail} (n={n})")
}

fn format_permille(permille: u64) -> String {
    if permille.is_multiple_of(10) {
        format!("{}", permille / 10)
    } else {
        format!("{}.{}", permille / 10, permille % 10)
    }
}

/// Runs `f`, catching a panic as a failed unit.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Runs the workload per `args` and prints the report; returns the result
/// line.
pub fn drive<W: Workload>(w: &mut W, args: &Args) -> Output {
    let mut errors: Vec<String> = Vec::new();
    println!(
        "== perfbench {}: seed {} ({} held out), {} s nominal, trace {} ==",
        W::NAME,
        args.seed,
        crate::HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace)
    );

    // Set-up: configurations, lazy tables and one warm-up unit, repeated.
    // The warm-up unit is the default seed's first unit, so set-up does the
    // same work whatever `--seed` is; its repeats must agree exactly.
    let warm_seed = unit_seed(crate::DEFAULT_SEED, 0);
    let mut setup_secs = Vec::with_capacity(W::SETUP_REPS);
    let mut warm_fingerprint = None;
    for _ in 0..W::SETUP_REPS {
        let start = Instant::now();
        w.prepare();
        let outcome = guarded(|| w.run(warm_seed));
        setup_secs.push(start.elapsed().as_secs_f64());
        let fingerprint = outcome.map(|o| (w.check(&o), w.model(&o)));
        match (&warm_fingerprint, fingerprint) {
            (None, f) => warm_fingerprint = Some(f),
            (Some(first), f) if *first != f => {
                errors.push("determinism: set-up repeats of the warm-up unit differ".into())
            }
            _ => {}
        }
    }

    // The unit list is fixed by the seed and `--seconds`, never by a clock.
    // A traced run takes the first third of the same list, and runs each
    // unit untraced and then traced, so it too lasts about `--seconds`.
    let mut units = ((args.seconds as f64 / W::NOMINAL_UNIT_SECS).round() as u64).max(3);
    if args.trace {
        units = (units / TRACED_SHARE).max(3);
    }
    let seeds: Vec<u64> = (0..units).map(|i| unit_seed(args.seed, i)).collect();

    let mut unit_secs = Vec::with_capacity(seeds.len());
    let mut unit_peak_mb = Vec::with_capacity(seeds.len());
    let mut traced_secs = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut models = Vec::with_capacity(seeds.len());
    let mut trace_failures = 0usize;
    for &seed in &seeds {
        reset_peak_rss();
        let start = Instant::now();
        let outcome = guarded(|| w.run(seed));
        unit_secs.push(start.elapsed().as_secs_f64());
        unit_peak_mb.push(peak_rss_mb());
        let Some(outcome) = outcome else {
            errors.push(format!("unit {seed}: panicked"));
            // A panicked unit's ops are unknown; count the warm-up
            // unit's op count as its attempt.
            let lost = warm_fingerprint
                .as_ref()
                .and_then(|f| f.as_ref().map(|(c, _)| c.attempted))
                .unwrap_or(1);
            attempted += lost;
            failed += lost;
            continue;
        };
        let check = w.check(&outcome);
        let model = w.model(&outcome);
        attempted += check.attempted;
        if !check.ok() {
            failed += check.attempted;
            for e in &check.errors {
                errors.push(format!("unit {seed}: {e}"));
            }
        }
        if args.trace {
            match guarded(|| w.trace(seed, &outcome)) {
                Some(Ok(secs)) => traced_secs.push(secs),
                Some(Err(e)) => {
                    trace_failures += 1;
                    errors.push(format!("determinism: unit {seed}: traced run differs: {e}"));
                }
                None => {
                    trace_failures += 1;
                    errors.push(format!("unit {seed}: traced run panicked"));
                }
            }
        }
        models.push(model);
    }

    let total_secs: f64 = unit_secs.iter().sum();
    let completed = attempted - failed;
    let ops_per_s = completed as f64 / total_secs;
    let sum = models.iter().fold(Model::default(), |a, m| Model {
        work: a.work + m.work,
        cycles: a.cycles + m.cycles,
        hits: a.hits + m.hits,
        reserved: a.reserved + m.reserved,
        premium_p99: 0,
    });
    let sim_ipc = sum.work as f64 / sum.cycles.max(1) as f64;
    let deadline_hit_pct = 100.0 * sum.hits as f64 / sum.reserved.max(1) as f64;
    let p99s: Vec<u64> = models.iter().map(|m| m.premium_p99).collect();
    let premium_p99_cycles = median(&p99s.iter().map(|&v| v as f64).collect::<Vec<_>>());

    println!(
        "units: {} {}s; ops: {attempted} {} attempted, {failed} failed",
        seeds.len(),
        W::UNIT,
        W::OP
    );
    println!("{}", timing_line("setup", "s", &setup_secs));
    println!(
        "{}",
        timing_line(&format!("{} time", W::UNIT), "s", &unit_secs)
    );
    println!(
        "{}",
        timing_line(&format!("{} peak RSS", W::UNIT), "MB", &unit_peak_mb)
    );
    println!(
        "modelled: sim_ipc {sim_ipc:.6} instr/cycle, deadline_hit_pct {deadline_hit_pct:.4} %, \
         premium_p99_cycles {premium_p99_cycles} cycles"
    );
    println!(
        "determinism digest: ops {attempted}/{failed}, work {}/{} cycles, hits {}/{}, p99 median {}",
        sum.work, sum.cycles, sum.hits, sum.reserved, premium_p99_cycles
    );

    let metrics = if args.trace {
        let layers = w.layers();
        report_layers(
            &layers,
            total_secs,
            &traced_secs,
            trace_failures,
            &mut errors,
        );
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = layers
                    .metrics
                    .iter()
                    .find(|(n, _, _)| *n == name)
                    .map_or(0.0, |&(_, v, _)| v);
                (name, value, unit)
            })
            .collect()
    } else {
        vec![
            ("setup_s", median(&setup_secs), "s"),
            ("ops_per_s", ops_per_s, "op/s"),
            ("peak_rss_mb", median(&unit_peak_mb), "MB"),
            ("sim_ipc", sim_ipc, "instr/cycle"),
            ("deadline_hit_pct", deadline_hit_pct, "%"),
            ("premium_p99_cycles", premium_p99_cycles, "cycles"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    for e in &errors {
        println!("ERROR {e}");
    }
    Output {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
    }
}

fn report_layers(
    layers: &Layers,
    untraced_total: f64,
    traced_secs: &[f64],
    trace_failures: usize,
    errors: &mut Vec<String>,
) {
    for (name, unit, samples) in &layers.timings {
        println!("{}", timing_line(name, unit, samples));
    }
    if trace_failures > 0 || traced_secs.is_empty() {
        return;
    }
    let traced_total = layers.traced_total;
    let children: f64 = layers.children.iter().map(|(_, s)| s).sum();
    let parent_self = traced_total - children;
    println!(
        "reconciliation over {} traced units (host seconds):",
        traced_secs.len()
    );
    for (name, secs) in &layers.children {
        println!(
            "  {name:<16} {secs:>10.6} s  {:>6.2} %",
            100.0 * secs / traced_total
        );
    }
    println!(
        "  {:<16} {parent_self:>10.6} s  {:>6.2} %  (parent self time: the remainder)",
        layers.parent,
        100.0 * parent_self / traced_total
    );
    println!("  {:<16} {traced_total:>10.6} s", "traced total");
    let reconciled = traced_total - layers.overhead_secs;
    let gap = (reconciled - untraced_total) / untraced_total;
    println!(
        "tracing overhead: traced {traced_total:.6} s - untraced {untraced_total:.6} s = {:+.6} s ({:+.2} %)",
        traced_total - untraced_total,
        100.0 * (traced_total - untraced_total) / untraced_total
    );
    println!(
        "reconciled: traced total - tracing's own cost {:.6} s = {reconciled:.6} s vs untraced \
         {untraced_total:.6} s: {:+.2} % (tolerance +-{:.0} %)",
        layers.overhead_secs,
        100.0 * gap,
        100.0 * RECONCILE_TOLERANCE
    );
    if gap.abs() > RECONCILE_TOLERANCE {
        errors.push(format!(
            "reconciliation: traced layers miss the untraced total by {:+.2} %",
            100.0 * gap
        ));
    }
    if parent_self < 0.0 {
        errors.push(format!(
            "reconciliation: child layers exceed the traced total by {:.6} s",
            -parent_self
        ));
    }
}
