//! `cmpqos` — the command-line front end to the framework, and the
//! workspace's one binary. Its subcommands: `list`, `solo`, `run`,
//! `recover`, `conform`, `explore` and `traffic`; the experiments `fig1`,
//! `fig3`, `fig4`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9`, `table1`,
//! `lac-overhead`, `overload`, `slo`, `ablations`, `extensions`,
//! `variance` and `all`; and `chaos` with its `--net` and `--churn` cells.
//! `USAGE` below gives each one's flags and `CMPQOS_*` variables.
//!
//! A thin, dependency-free argument parser over the library API — also the
//! fifth example application of the public interface. Every subcommand
//! names the flags it reads, and an unknown flag or a malformed value (of
//! a flag or a variable) is an `error:` line and exit status 1.

use cmpqos::experiments::json::{maybe_dump, write_json};
use cmpqos::experiments::output::Table;
use cmpqos::experiments::{
    ablation, chaos, extensions, fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, lac_overhead,
    overload, slo, table1, traffic, variance, ExperimentParams,
};
use cmpqos::obs::JsonlRecorder;
use cmpqos::system::SystemConfig;
use cmpqos::trace::spec;
use cmpqos::types::{Cycles, Percent, Ways};
use cmpqos::workloads::metrics::{
    lac_occupancy, normalized_throughput, paper_hit_rate, wall_clock_by_mode,
};
use cmpqos::workloads::runner::{run, RunConfig, RunOutcome};
use cmpqos::workloads::{Configuration, WorkloadSpec};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

type Flags = HashMap<String, String>;

/// A subcommand: the flags it reads and the handler that reads them.
type Command = (&'static [&'static str], Handler);
type Handler = Box<dyn Fn(&Flags) -> Result<(), Failure>>;

/// Why a subcommand exited 1. Input it `Refused` (an unknown command, a
/// bad flag or variable, an unreadable file) is followed by the usage
/// text; a run that `Failed` a check or an invariant prints its error
/// line alone.
enum Failure {
    Refused(String),
    Failed(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Self::Refused(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Self {
        Self::Refused(e.into())
    }
}

/// Prints one experiment's tables, adding to the vector the run outcomes
/// that `CMPQOS_JSON` receives when the experiment runs alone (fig5, fig9).
type Runner = fn(&ExperimentParams, &mut Vec<RunOutcome>);

/// The paper's evaluation in the order `cmpqos all` runs it. Each entry
/// is also its own subcommand, except `traffic`, whose subcommand
/// (`cmd_traffic`) also takes `--spec`.
const EXPERIMENTS: [(&str, Runner); 15] = [
    ("fig1", |p, _| fig1::print(&fig1::run(p), p)),
    ("fig3", |_, _| fig3::print(&fig3::run())),
    ("fig4", |p, _| fig4::print(&fig4::run(p), p)),
    ("table1", |p, _| table1::print(&table1::run(p), p)),
    ("fig5", |p, raw| {
        let rows = fig5::run(p);
        fig5::print(&rows, p);
        raw.extend(rows.into_iter().flat_map(|r| r.outcomes));
    }),
    ("fig6", |p, _| fig6::print(&fig6::run(p), p)),
    ("fig7", |p, _| fig7::print(&fig7::run(p), p)),
    ("fig8", |p, _| fig8::print(&fig8::run(p), p)),
    ("fig9", |p, raw| {
        let mixes = fig9::run(p);
        fig9::print(&mixes, p);
        raw.extend(mixes.into_iter().flat_map(|m| m.outcomes));
    }),
    ("lac-overhead", |p, _| {
        lac_overhead::print(&lac_overhead::run(p), p)
    }),
    ("overload", |p, _| overload::print(&overload::run(p), p)),
    ("slo", |p, _| slo::print(&slo::run(p), p)),
    ("traffic", |p, _| traffic::print(&traffic::run(p), p)),
    ("ablations", |p, _| ablation::print(p)),
    ("extensions", |p, _| extensions::print(p)),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = command_named(command, &args[1..])
        .map_err(Failure::from)
        .and_then(|(known, handler)| handler(&parse_flags(&args[1..], known)?));
    match result {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Failure::Refused(e)) => eprintln!("error: {e}\n{USAGE}"),
        Err(Failure::Failed(e)) => eprintln!("error: {e}"),
    }
    ExitCode::FAILURE
}

fn command_named(name: &str, args: &[String]) -> Result<Command, String> {
    let command: Command = match name {
        "list" => (&[], Box::new(cmd_list)),
        "solo" => (
            &["bench", "ways", "scale", "work", "seed"],
            Box::new(cmd_solo),
        ),
        "run" => (
            &[
                "workload", "config", "scale", "work", "seed", "json", "events",
            ],
            Box::new(cmd_run),
        ),
        "recover" => (&["journal", "kind", "compact-every"], Box::new(cmd_recover)),
        "conform" => (
            &["scale", "work", "seed", "jobs", "only", "inject"],
            Box::new(cmd_conform),
        ),
        "explore" => (&["scenarios", "seed", "kind"], Box::new(cmd_explore)),
        "traffic" => (
            &["spec", "emit-toml", "seed", "jobs"],
            Box::new(cmd_traffic),
        ),
        "all" => (&ExperimentParams::FLAGS, Box::new(cmd_all)),
        "variance" => alone(|p, _| variance::print(&variance::run(p), p)),
        "chaos" => (chaos_flags(args), Box::new(cmd_chaos)),
        other => match EXPERIMENTS.iter().find(|(name, _)| *name == other) {
            Some(&(_, runner)) => alone(runner),
            None => return Err(format!("unknown command `{other}`")),
        },
    };
    Ok(command)
}

/// An experiment subcommand: `runner`, run alone, then `CMPQOS_JSON`.
fn alone(runner: Runner) -> Command {
    (
        &ExperimentParams::FLAGS,
        Box::new(move |flags: &Flags| {
            let params = experiment_params(flags)?;
            check_events(&params, flags)?;
            let mut raw = Vec::new();
            runner(&params, &mut raw);
            if !raw.is_empty() {
                maybe_dump(&raw);
            }
            Ok(())
        }),
    )
}

const USAGE: &str = "\
usage:
  cmpqos list
  cmpqos solo  --bench <name> [--ways N] [--scale N] [--work N] [--seed N]
  cmpqos run   --workload <bench|mix1|mix2> --config <all-strict|hybrid1|hybrid2|autodown|equalpart>
               [--scale N] [--work N] [--seed N] [--json <path>] [--events <path>]
  cmpqos recover --journal <path> [--kind gac|lac] [--compact-every N]
               (rebuilds admission state from a write-ahead reservation
                journal, tolerating a torn or corrupted tail)
  cmpqos conform [--scale N] [--work N] [--seed N] [--jobs N]
               [--only fig1,fig8a,...] [--inject broken-guard|stuck-knob|frozen-lease|starve-tier]
               (machine-checks every EXPERIMENTS.md shape verdict;
                exits nonzero if any check fails)
  cmpqos explore [--scenarios N] [--seed N] [--kind lac|intake|scheduler|gac|batch|net|adapt|traffic|all]
               (differential explorer: random scenarios diffed against the
                reference oracles; on divergence prints a shrunken
                counterexample and a one-line repro, exits nonzero)
  cmpqos traffic [--spec <path.toml>] [--emit-toml] [--seed N] [--jobs N]
               (seeded traffic-DSL scenarios through the admission stack:
                per-tier exact p50/p95/p99/p999 admission latency,
                deadline-hit rate, shed breakdown and goodput; without
                --spec runs the standard four-scenario grid; --emit-toml
                prints the canonical TOML instead of running)
  cmpqos fig1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|table1|lac-overhead|overload|slo
         |ablations|extensions|variance|all
               [--scale N] [--work N] [--seed N] [--jobs N] [--events <path>]
               (one experiment of the paper's evaluation; all runs every one
                but variance, timing them on stderr; CMPQOS_SCALE, _WORK,
                _SEED, _JOBS and _EVENTS set the same knobs, the flag
                winning; CMPQOS_JSON=<path> takes fig5's or fig9's raw runs)
  cmpqos chaos [--seed N] [--seeds a,b,c] [--jobs N] [--crash-at CYCLE] [--events <path>]
  cmpqos chaos --net [--seed N] [--nodes N] [--job-count N] [--horizon CYCLES]
               [--partition a:b@CYCLE] [--heal @CYCLE] [--inject drop-reconcile]
  cmpqos chaos --churn [--seed N] [--seeds a,b,c] [--jobs N] [--nodes N] [--job-count N]
               [--horizon CYCLES] [--churn-events N] [--kills N] [--inject lease-freeze]
               (the failover, partition-and-heal and elastic-membership
                cells; --jobs is the pool width, --job-count the stream;
                caps: --nodes 65536, --job-count and --churn-events 2^20,
                --horizon 2^40)";

/// Parses `--flag [value]` pairs, rejecting any flag not in `known` so a
/// typo such as `--way` fails instead of silently running the default.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{key}`"));
        };
        if !known.contains(&name) {
            return Err(format!("unknown flag `{key}`"));
        }
        // A flag followed by another flag (or nothing) is a bare boolean
        // switch, e.g. `--emit-toml`; its presence is its value.
        let value = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => String::new(),
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

/// `--name` as a `T`, or `default` when absent.
fn get_num<T: TryFrom<u64>>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => match v.parse::<u64>() {
            Ok(n) => T::try_from(n).map_err(|_| format!("--{name} {v} is out of range")),
            Err(_) => Err(format!("--{name} expects a number, got `{v}`")),
        },
    }
}

/// Reads `--name` like [`get_num`], refusing a value above `cap`.
fn get_capped<T: TryFrom<u64> + PartialOrd + std::fmt::Display>(
    flags: &Flags,
    name: &str,
    default: T,
    cap: T,
) -> Result<T, String> {
    let n = get_num(flags, name, default)?;
    if n > cap {
        return Err(format!("--{name} {n} exceeds the cap of {cap}"));
    }
    Ok(n)
}

/// The chaos cells' size caps: nodes, jobs in the stream and churn
/// operations (the traffic spec's arrival cap, 2^20), and the horizon in
/// cycles (its cycle cap, 2^40).
const MAX_CHAOS_NODES: usize = 65_536;
const MAX_CHAOS_COUNT: u32 = 1 << 20;
const MAX_CHAOS_HORIZON: u64 = 1 << 40;

fn cmd_list(_: &Flags) -> Result<(), Failure> {
    println!(
        "{:<12} {:<28} base CPI  mem/instr",
        "benchmark", "sensitivity"
    );
    for b in spec::all() {
        println!(
            "{:<12} {:<28} {:<8.2} {:.2}",
            b.name(),
            b.class().to_string(),
            b.profile().base_cpi(),
            b.profile().mem_ratio()
        );
    }
    Ok(())
}

fn cmd_solo(flags: &Flags) -> Result<(), Failure> {
    let bench = flags.get("bench").ok_or("--bench is required")?;
    if spec::benchmark(bench).is_none() {
        return Err(format!("unknown benchmark `{bench}` (try `cmpqos list`)").into());
    }
    let ExperimentParams {
        scale, work, seed, ..
    } = with_flags(ExperimentParams::standard(), flags)?;
    let assoc = SystemConfig::paper_scaled(scale).l2.associativity();
    let ways = get_num::<u64>(flags, "ways", 7)?;
    let ways = u16::try_from(ways)
        .ok()
        .filter(|&w| w <= assoc)
        .ok_or_else(|| format!("--ways {ways} exceeds the L2's {assoc} ways"))?;
    let s = cmpqos::workloads::calibrate::solo_run(bench, Ways::new(ways), work, scale, seed);
    println!(
        "{bench} @ {ways} ways (scale 1/{scale}, {} instr): \
         IPC {:.3}, CPI {:.3}, L2 miss rate {:.1}%, MPI {:.4}, {} cycles",
        work.get(),
        s.ipc(),
        s.cpi(),
        s.perf.l2_miss_ratio() * 100.0,
        s.perf.mpi(),
        s.cycles.get()
    );
    Ok(())
}

fn cmd_run(flags: &Flags) -> Result<(), Failure> {
    let workload = match flags.get("workload").map(String::as_str) {
        Some("mix1") => WorkloadSpec::mix1(),
        Some("mix2") => WorkloadSpec::mix2(),
        Some(bench) if spec::benchmark(bench).is_some() => WorkloadSpec::single(bench, 10),
        Some(other) => return Err(format!("unknown workload `{other}`").into()),
        None => return Err("--workload is required".into()),
    };
    let configuration = match flags.get("config").map(String::as_str) {
        Some("all-strict") => Configuration::AllStrict,
        Some("hybrid1") => Configuration::Hybrid1,
        Some("hybrid2") => Configuration::Hybrid2 {
            slack: Percent::new(5.0),
        },
        Some("autodown") => Configuration::AllStrictAutoDown,
        Some("equalpart") => Configuration::EqualPart,
        Some(other) => return Err(format!("unknown config `{other}`").into()),
        None => return Err("--config is required".into()),
    };
    let params = with_flags(ExperimentParams::standard(), flags)?;
    check_events(&params, flags)?;
    let cfg = RunConfig {
        workload,
        configuration,
        scale: params.scale,
        work: params.work,
        seed: params.seed,
        stealing_enabled: true,
        events: params.events,
    };
    let outcome = run(&cfg);
    println!("{}", outcome.label);
    println!(
        "  accepted {} of {} submissions; makespan {:.2} Mcycles",
        outcome.accepted.len(),
        outcome.submissions,
        outcome.makespan.as_f64() / 1e6
    );
    println!(
        "  deadline hit rate {:.0}%  (self-normalized throughput {:.2})",
        paper_hit_rate(&outcome) * 100.0,
        normalized_throughput(&outcome, &outcome)
    );
    if configuration.uses_admission_control() {
        println!("  LAC occupancy {:.4}%", lac_occupancy(&outcome) * 100.0);
    }
    for (mode, stats) in wall_clock_by_mode(&outcome) {
        println!(
            "  {mode:<14} {} job(s), wall-clock avg {:.2} Mcyc (min {:.2}, max {:.2})",
            stats.count(),
            stats.mean() / 1e6,
            stats.min().unwrap_or(0.0) / 1e6,
            stats.max().unwrap_or(0.0) / 1e6
        );
    }
    if let Some(path) = flags.get("json") {
        write_json(Path::new(path), &outcome)
            .map_err(|e| Failure::Failed(format!("--json {path}: {e}")))?;
        println!("  raw results written to {path}");
    }
    Ok(())
}

/// `params` with whichever of [`ExperimentParams::FLAGS`] the subcommand
/// was given applied through [`ExperimentParams::set`].
fn with_flags(mut params: ExperimentParams, flags: &Flags) -> Result<ExperimentParams, String> {
    for flag in ExperimentParams::FLAGS {
        if let Some(value) = flags.get(flag) {
            params.set(flag, value).map_err(|e| {
                let given = format!("--{flag} {value}");
                format!("{}: {e}", given.trim_end())
            })?;
        }
    }
    Ok(params)
}

/// The experiment knobs: the `CMPQOS_*` variables, then the flags.
fn experiment_params(flags: &Flags) -> Result<ExperimentParams, String> {
    let env = ExperimentParams::from_env().map_err(|e| e.to_string())?;
    with_flags(env, flags)
}

/// Opens `params.events` for append, as the runs will, before anything
/// runs: an event log that cannot be written refuses the input, naming
/// `--events` or, when the flag is absent, `CMPQOS_EVENTS`.
fn check_events(params: &ExperimentParams, flags: &Flags) -> Result<(), String> {
    let Some(path) = &params.events else {
        return Ok(());
    };
    JsonlRecorder::append(path).map(drop).map_err(|e| {
        let path = path.display();
        if flags.contains_key("events") {
            format!("--events {path}: {e}")
        } else {
            format!("CMPQOS_EVENTS={path}: {e}")
        }
    })
}

/// Every experiment of [`EXPERIMENTS`] in order, then a wall-time summary
/// on stderr: stdout carries only the experiments' results, so two
/// same-seed runs diff byte-identically regardless of the pool width or
/// machine speed.
fn cmd_all(flags: &Flags) -> Result<(), Failure> {
    let params = experiment_params(flags)?;
    check_events(&params, flags)?;
    let times: Vec<(&str, f64)> = EXPERIMENTS
        .iter()
        .map(|&(name, runner)| {
            let t0 = Instant::now();
            runner(&params, &mut Vec::new());
            (name, t0.elapsed().as_secs_f64())
        })
        .collect();
    let total: f64 = times.iter().map(|(_, secs)| secs).sum();
    let mut t = Table::new(&["experiment", "wall time (s)", "share"]);
    for (name, secs) in times.into_iter().chain([("TOTAL", total)]) {
        let share = 100.0 * secs / total.max(f64::MIN_POSITIVE);
        t.row(&[name, &format!("{secs:.2}"), &format!("{share:.0}%")]);
    }
    eprintln!(
        "== Wall-time summary ({} engine worker(s)) ==\n\n{}",
        params.jobs,
        t.render()
    );
    Ok(())
}

/// The flags of the chaos cell `args` select: the failover cell by
/// default, the partition-and-heal cell with `--net`, the
/// elastic-membership cell with `--churn`.
fn chaos_flags(args: &[String]) -> &'static [&'static str] {
    if args.iter().any(|a| a == "--churn") {
        &[
            "churn",
            "seed",
            "seeds",
            "jobs",
            "nodes",
            "job-count",
            "horizon",
            "churn-events",
            "kills",
            "inject",
        ]
    } else if args.iter().any(|a| a == "--net") {
        &[
            "net",
            "seed",
            "nodes",
            "job-count",
            "horizon",
            "partition",
            "heal",
            "inject",
        ]
    } else {
        &["seed", "seeds", "jobs", "crash-at", "events"]
    }
}

/// Whether `--inject` names the cell's one sabotage, `expected`.
fn chaos_inject(flags: &Flags, expected: &str) -> Result<bool, String> {
    match flags.get("inject") {
        None => Ok(false),
        Some(v) if v == expected => Ok(true),
        Some(v) => Err(format!("unknown --inject `{v}` (expected {expected})")),
    }
}

fn cmd_chaos(flags: &Flags) -> Result<(), Failure> {
    let params = experiment_params(flags)?;
    let seeds = match flags.get("seeds") {
        None => vec![params.seed],
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().ok())
            .collect::<Option<_>>()
            .ok_or_else(|| format!("--seeds expects comma-separated numbers, got `{list}`"))?,
    };
    if flags.contains_key("churn") {
        let mut p = chaos::ChurnParams::standard();
        p.nodes = get_capped(flags, "nodes", p.nodes, MAX_CHAOS_NODES)?;
        p.jobs = get_capped(flags, "job-count", p.jobs, MAX_CHAOS_COUNT)?;
        p.horizon = Cycles::new(get_capped(
            flags,
            "horizon",
            p.horizon.get(),
            MAX_CHAOS_HORIZON,
        )?);
        p.churn_events = get_capped(
            flags,
            "churn-events",
            p.churn_events,
            MAX_CHAOS_COUNT as usize,
        )?;
        p.kills = get_num(flags, "kills", p.kills)?;
        if p.nodes == 0 {
            return Err("--nodes 0: the churn cell needs at least one node".into());
        }
        // The kills strike nodes 1..=kills; node 0 is never killed.
        if p.kills as usize >= p.nodes {
            return Err(format!("--kills {} must be below --nodes {}", p.kills, p.nodes).into());
        }
        p.lease_freeze = chaos_inject(flags, "lease-freeze")?;
        let outcomes = chaos::run_churn_many(&p, &seeds, params.jobs);
        for (outcome, &seed) in outcomes.iter().zip(&seeds) {
            p.seed = seed;
            chaos::print_churn(outcome, &p).map_err(Failure::Failed)?;
        }
        return Ok(());
    }
    if flags.contains_key("net") {
        let mut p = chaos::NetChaosParams::standard();
        p.seed = params.seed;
        p.nodes = get_capped(flags, "nodes", p.nodes, MAX_CHAOS_NODES)?;
        p.jobs = get_capped(flags, "job-count", p.jobs, MAX_CHAOS_COUNT)?;
        p.horizon = Cycles::new(get_capped(
            flags,
            "horizon",
            p.horizon.get(),
            MAX_CHAOS_HORIZON,
        )?);
        if let Some(v) = flags.get("partition") {
            // `a:b@cycle`: nodes `[a, b)` cut at `cycle`.
            let cut = || {
                let (range, at) = v.split_once('@')?;
                let (a, b) = range.split_once(':')?;
                Some((
                    a.parse().ok()?,
                    b.parse().ok()?,
                    Cycles::new(at.parse().ok()?),
                ))
            };
            let cut = cut().ok_or_else(|| format!("--partition expects a:b@cycle, got `{v}`"))?;
            p.partition = Some(cut);
        }
        if let Some(v) = flags.get("heal") {
            let at = v.strip_prefix('@').unwrap_or(v).parse();
            let at = at.map_err(|_| format!("--heal expects @cycle, got `{v}`"))?;
            p.heal_at = Some(Cycles::new(at));
        }
        // A range that names no node, a heal before the cut, or a cut or
        // heal at or past the horizon would run a cell that never severs
        // or heals what its summary says it did.
        if let Some((a, b, at)) = p.partition {
            if a >= b || b as usize > p.nodes {
                return Err(format!(
                    "--partition {a}:{b} is not a node range of --nodes {n}: \
                     expected a < b <= {n}",
                    n = p.nodes
                )
                .into());
            }
            if let Some(heal) = p.heal_at.filter(|&heal| heal < at) {
                return Err(format!(
                    "--heal @{} is before the partition at cycle {}",
                    heal.get(),
                    at.get()
                )
                .into());
            }
            if at >= p.horizon {
                return Err(format!(
                    "--partition at cycle {} is not before --horizon {}",
                    at.get(),
                    p.horizon.get()
                )
                .into());
            }
            if let Some(heal) = p.heal_at.filter(|&heal| heal >= p.horizon) {
                return Err(format!(
                    "--heal @{} is not before --horizon {}",
                    heal.get(),
                    p.horizon.get()
                )
                .into());
            }
        }
        p.drop_reconcile = chaos_inject(flags, "drop-reconcile")?;
        chaos::print_net(&chaos::run_net(&p), &p).map_err(Failure::Failed)?;
        return Ok(());
    }
    check_events(&params, flags)?;
    let mut p = chaos::ChaosParams::standard();
    p.events = params.events;
    if flags.contains_key("crash-at") {
        p.crash_at = Some(Cycles::new(get_num(flags, "crash-at", 0)?));
    }
    let outcomes = chaos::run_many(&p, &seeds, params.jobs);
    for (outcome, &seed) in outcomes.iter().zip(&seeds) {
        p.seed = seed;
        chaos::print(outcome, &p).map_err(Failure::Failed)?;
        chaos::verify_roundtrip(outcome).map_err(Failure::Failed)?;
        // stderr, not stdout: a crashed run's stdout must diff clean
        // against an uncrashed same-seed run's, and the two event logs
        // legitimately differ by the crash/recovery marker records.
        eprintln!(
            "event log: {} records, round-trips through Timeline intact",
            outcome.records.len()
        );
    }
    if flags.contains_key("seeds") {
        println!(
            "replayed {} seeds on {} worker(s); all runs accounted for every reservation",
            seeds.len(),
            params.jobs
        );
    }
    Ok(())
}

fn cmd_conform(flags: &Flags) -> Result<(), Failure> {
    use cmpqos::testkit::conform::{self, Inject};

    let params = experiment_params(flags)?;
    check_events(&params, flags)?;
    let only: Vec<String> = flags
        .get("only")
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
        .unwrap_or_default();
    let inject = match flags.get("inject").map(String::as_str) {
        None => Inject::None,
        Some("broken-guard") => Inject::BrokenGuard,
        Some("stuck-knob") => Inject::StuckKnob,
        Some("frozen-lease") => Inject::FrozenLease,
        Some("starve-tier") => Inject::StarveTier,
        Some(other) => {
            return Err(format!(
                "unknown --inject `{other}` (expected broken-guard, stuck-knob, \
                 frozen-lease or starve-tier)"
            )
            .into())
        }
    };
    eprintln!(
        "conformance suite at scale 1/{}, {} instructions/job, seed {}, {} worker(s)...",
        params.scale,
        params.work.get(),
        params.seed,
        params.jobs
    );
    let report = conform::run(&params, &only, inject);
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err(Failure::Failed("conformance checks failed".into()))
    }
}

fn cmd_explore(flags: &Flags) -> Result<(), Failure> {
    use cmpqos::testkit::scenario::{explore, ScenarioKind};

    let scenarios = get_num::<usize>(flags, "scenarios", 50)?.max(1);
    let seed = get_num(flags, "seed", 1)?;
    let kinds: Vec<ScenarioKind> = match flags.get("kind").map(String::as_str) {
        None | Some("all") => ScenarioKind::ALL.to_vec(),
        Some(k) => vec![ScenarioKind::parse(k).ok_or_else(|| {
            format!(
                "unknown --kind `{k}` (expected lac|intake|scheduler|gac|batch|net|adapt|traffic|all)"
            )
        })?],
    };
    let report = explore(seed, scenarios, &kinds);
    match report.divergence {
        None => {
            println!(
                "{} scenario(s) explored ({}), no divergences from the reference oracles",
                report.scenarios_run,
                kinds
                    .iter()
                    .map(|k| k.as_str())
                    .collect::<Vec<_>>()
                    .join("+")
            );
            Ok(())
        }
        Some(d) => {
            println!("{}", d.render());
            Err(Failure::Failed(
                "divergence from the reference oracle".into(),
            ))
        }
    }
}

fn cmd_traffic(flags: &Flags) -> Result<(), Failure> {
    use cmpqos::scenario::{emit_toml, parse_toml, run as run_scenario};

    let params = experiment_params(flags)?;
    let spec = match flags.get("spec") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            Some(parse_toml(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    if flags.contains_key("emit-toml") {
        // Canonical form: of the loaded spec, or of the grid's base
        // topology when no --spec was given.
        let spec = spec.unwrap_or_else(|| traffic::tiered_spec(params.seed, 200_000));
        print!("{}", emit_toml(&spec));
        return Ok(());
    }
    match spec {
        Some(spec) => {
            let report = run_scenario(&spec);
            println!("{}", traffic::render_report(&report));
        }
        None => traffic::print(&traffic::run(&params), &params),
    }
    Ok(())
}

fn cmd_recover(flags: &Flags) -> Result<(), Failure> {
    use cmpqos::recovery::{JournaledGac, JournaledLac, RecoveryReport};

    let path = flags.get("journal").ok_or("--journal is required")?;
    let compact_every = get_num::<u64>(flags, "compact-every", 64)?.max(1);
    let jsonl = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;

    let describe = |report: &RecoveryReport| {
        println!(
            "recovered from {path}: replayed {} op(s), lost {} tail record(s){}",
            report.replayed,
            report.lost,
            if report.is_lossless() {
                ""
            } else {
                " (torn or corrupted tail truncated at the last valid checksum)"
            }
        );
    };
    match flags.get("kind").map(String::as_str).unwrap_or("gac") {
        "gac" => {
            let (gac, report) = JournaledGac::recover(&jsonl, compact_every);
            describe(&report);
            println!(
                "  global controller: {} of {} node(s) live, {} active placement(s), \
                 journal at seq {}",
                gac.gac().live_nodes(),
                gac.gac().nodes(),
                gac.gac().placements().len(),
                gac.journal().next_seq()
            );
        }
        "lac" => {
            let (lac, report) = JournaledLac::recover(&jsonl, compact_every);
            describe(&report);
            println!(
                "  local controller: {} active reservation(s), {} accepted lifetime, \
                 journal at seq {}",
                lac.lac().reservations().len(),
                lac.lac().accepted(),
                lac.journal().next_seq()
            );
        }
        other => return Err(format!("unknown --kind `{other}` (expected gac|lac)").into()),
    }
    Ok(())
}
