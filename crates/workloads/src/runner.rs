//! End-to-end experiment drivers.
//!
//! [`run`] executes one (workload, configuration) cell of the paper's
//! evaluation: a Poisson submission stream feeds the node until ten jobs
//! are accepted, then the run completes and the first-ten-accepted
//! makespan, deadline outcomes and per-job reports are collected.
//!
//! [`run_batch`] executes many such cells on the `cmpqos-engine` worker
//! pool: every cell is seeded and self-contained, results come back in
//! cell order, and event streams are buffered per cell
//! ([`cmpqos_obs::ShardRecorder`]) and merged in cell order afterwards —
//! so a `--jobs N` sweep is bit-identical to the serial one.

use crate::arrivals::ArrivalStream;
use crate::calibrate::Calibrator;
use crate::composition::WorkloadSpec;
use crate::configs::Configuration;
use crate::deadlines::{assign_classes, DeadlineClass};
use cmpqos_core::{
    Decision, ExecutionMode, JobReport, QosJob, QosScheduler, ResourceRequest, SchedulerConfig,
};
use cmpqos_engine::Engine;
use cmpqos_obs::{merge_shards, Event, JsonlRecorder, NullRecorder, Recorder, ShardRecorder};
use cmpqos_system::{CmpNode, Placement, SystemConfig, TaskSpec};
use cmpqos_trace::spec;
use cmpqos_types::{Cycles, Instructions, JobId, Ways};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Parameters of one experiment run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The 10-job workload.
    pub workload: WorkloadSpec,
    /// The Table 2 configuration.
    pub configuration: Configuration,
    /// Geometry scale factor `k` (caches and working sets shrink by `k`;
    /// way-granular behaviour is invariant — see
    /// [`cmpqos_system::SystemConfig::paper_scaled`]).
    pub scale: u64,
    /// Instructions per job (the paper's 200M, scaled down).
    pub work: Instructions,
    /// Seed for arrivals, deadline classes and trace generation.
    pub seed: u64,
    /// Resource stealing on/off (Figure 8's baseline needs it off).
    pub stealing_enabled: bool,
    /// When set, every QoS event of the run is appended to this JSONL
    /// file (one [`cmpqos_obs::Record`] per line), starting with an
    /// [`Event::RunStarted`] marker carrying the cell label.
    pub events: Option<PathBuf>,
}

impl RunConfig {
    /// A sensible default cell: scale 8, 800k instructions/job.
    #[must_use]
    pub fn new(workload: WorkloadSpec, configuration: Configuration) -> Self {
        Self {
            workload,
            configuration,
            scale: 8,
            work: Instructions::new(800_000),
            seed: 1,
            stealing_enabled: true,
            events: None,
        }
    }
}

/// One accepted job's outcome.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AcceptedJob {
    /// Acceptance-order slot (0..10).
    pub slot: usize,
    /// Benchmark name.
    pub bench: String,
    /// Deadline class assigned to the slot.
    pub class: DeadlineClass,
    /// The job's full report.
    pub report: JobReport,
}

/// Outcome of one experiment run.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunOutcome {
    /// Workload + configuration label.
    pub label: String,
    /// The configuration that ran.
    pub configuration: Configuration,
    /// The accepted jobs, in acceptance order.
    pub accepted: Vec<AcceptedJob>,
    /// Completion time of the last accepted job ("total wall-clock time to
    /// complete the first ten accepted jobs").
    pub makespan: Cycles,
    /// Total jobs offered to the node (accepted + rejected).
    pub submissions: u64,
    /// Modeled LAC compute cost (zero for EqualPart).
    pub lac_cost: Cycles,
    /// Admission tests performed.
    pub lac_tests: u64,
    /// Instructions per job this run used (for unscaling metrics).
    pub work: Instructions,
}

/// Runs one experiment cell.
///
/// # Panics
///
/// Panics if the workload references unknown benchmarks or the run exceeds
/// its internal hard cap (which indicates a livelocked configuration).
#[must_use]
pub fn run(cfg: &RunConfig) -> RunOutcome {
    run_recorded(cfg, open_recorder(cfg)).0
}

/// [`run`] with a caller-supplied event sink instead of the
/// [`RunConfig::events`] JSONL appender: the cell's full stream (starting
/// with its [`Event::RunStarted`] marker) goes to `recorder`, which is
/// handed back alongside the outcome. This is how [`run_batch`] captures
/// per-cell [`ShardRecorder`] shards for the deterministic merge.
///
/// # Panics
///
/// As [`run`].
#[must_use]
pub fn run_recorded(
    cfg: &RunConfig,
    mut recorder: Box<dyn Recorder>,
) -> (RunOutcome, Box<dyn Recorder>) {
    if recorder.enabled() {
        recorder.record(
            Cycles::ZERO,
            Event::RunStarted {
                label: format!("{} / {}", cfg.workload.name(), cfg.configuration),
            },
        );
    }
    match cfg.configuration {
        Configuration::EqualPart => run_equal_part(cfg, recorder),
        _ => run_qos(cfg, recorder),
    }
}

/// Runs many independent cells on a [`cmpqos_engine::Engine`] worker pool
/// (`jobs` workers; `1` = serial), returning outcomes **in cell order**.
///
/// Determinism guarantee: every cell is seeded and self-contained, so
/// `run_batch(cells, 1)` and `run_batch(cells, n)` produce identical
/// outcomes *and* identical event files. Cells with an
/// [`RunConfig::events`] path record into an in-memory
/// [`ShardRecorder`] instead of appending to the file mid-run; after the
/// pool drains, the shards are appended per file in cell order
/// ([`merge_shards`]), byte-identical to what serial appending produces.
///
/// # Panics
///
/// Panics after all cells complete if any cell panicked (the failure
/// summary names each failed cell).
#[must_use]
pub fn run_batch(cells: Vec<RunConfig>, jobs: usize) -> Vec<RunOutcome> {
    let results = Engine::new(jobs).run(cells, |_, mut cfg| {
        let events = cfg.events.take();
        if events.is_some() {
            let (outcome, recorder) = run_recorded(&cfg, Box::new(ShardRecorder::new()));
            let shard = recorder
                .as_any()
                .and_then(|any| any.downcast_ref::<ShardRecorder>())
                .cloned()
                .expect("run_recorded hands back the shard it was given");
            (outcome, events, Some(shard))
        } else {
            (run(&cfg), None, None)
        }
    });

    // Group shards per event file, preserving cell order within each, then
    // replay them through one appender per file.
    let mut shards_by_path: BTreeMap<PathBuf, Vec<ShardRecorder>> = BTreeMap::new();
    let mut outcomes = Vec::with_capacity(results.len());
    for (outcome, events, shard) in results {
        if let (Some(path), Some(shard)) = (events, shard) {
            shards_by_path.entry(path).or_default().push(shard);
        }
        outcomes.push(outcome);
    }
    for (path, shards) in shards_by_path {
        match JsonlRecorder::append(&path) {
            Ok(mut sink) => merge_shards(shards, &mut sink),
            Err(e) => eprintln!("cmpqos: cannot open event log {}: {e}", path.display()),
        }
    }
    outcomes
}

/// Scales the OS timeslice (and switch cost) with the per-job instruction
/// budget so scaled runs timeshare as the paper's full-length jobs do: the
/// paper's 200M-instruction jobs see a ~2M-cycle quantum, i.e. roughly 100
/// quanta per job. Keeping that ratio preserves the EqualPart stretching
/// and variance the configuration exists to show.
fn scale_timeslice(system: &mut SystemConfig, work: Instructions) {
    // ~2.5 CPI typical -> job length in cycles ~ 2.5 * work; 100 quanta.
    let quantum = (work.get() * 25 / 1_000).max(5_000);
    system.timeslice = Cycles::new(quantum);
    system.context_switch_cost = Cycles::new((quantum / 100).max(100));
}

/// The event sink for one serial cell: a JSONL appender opened on
/// `cfg.events` or the free [`NullRecorder`]. An unopenable path degrades
/// to no recording rather than failing the run. (The `RunStarted` marker
/// is written by [`run_recorded`].)
fn open_recorder(cfg: &RunConfig) -> Box<dyn Recorder> {
    let Some(path) = &cfg.events else {
        return Box::new(NullRecorder);
    };
    match JsonlRecorder::append(path) {
        Ok(r) => Box::new(r),
        Err(e) => {
            eprintln!("cmpqos: cannot open event log {}: {e}", path.display());
            Box::new(NullRecorder)
        }
    }
}

fn trace_for(cfg: &RunConfig, bench: &str, submission: u32) -> Box<dyn cmpqos_trace::TraceSource> {
    let profile =
        spec::scaled(bench, cfg.scale).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let seed = cfg
        .seed
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(u64::from(submission));
    Box::new(profile.instantiate(seed, u64::from(submission + 1) << 36))
}

fn run_qos(cfg: &RunConfig, recorder: Box<dyn Recorder>) -> (RunOutcome, Box<dyn Recorder>) {
    let n = cfg.workload.len();
    let cal = Calibrator::new(cfg.scale, cfg.work);
    let classes = assign_classes(n, cfg.seed);
    let mut system = SystemConfig::paper_scaled(cfg.scale);
    scale_timeslice(&mut system, cfg.work);
    let cores = system.num_cores as u64;

    let mut sched_cfg = SchedulerConfig::default();
    sched_cfg.auto_downgrade = cfg.configuration.auto_downgrade();
    sched_cfg.stealing_enabled = cfg.stealing_enabled;
    // The paper's 2M-instruction stealing interval is 1% of its
    // 200M-instruction jobs; keep that proportion.
    sched_cfg.stealing.interval = Instructions::new((cfg.work.get() / 100).max(1_000));
    let label = format!("{} / {}", cfg.workload.name(), cfg.configuration);
    let mut sched = QosScheduler::with_recorder(system, sched_cfg, recorder);

    // Arrival rate keyed to the first benchmark's wall-clock need.
    let tw0 = cal.tw(&cfg.workload.slots()[0].bench);
    let mut arrivals = ArrivalStream::paper_rate(tw0, cores, cfg.seed);

    let mut accepted: Vec<(usize, JobId, String, DeadlineClass)> = Vec::with_capacity(n);
    let mut submission: u32 = 0;
    let mut rejections_for_slot: u32 = 0;

    while accepted.len() < n {
        assert!(
            rejections_for_slot < 50_000,
            "admission livelock on slot {} after {} submissions \
             (mode/deadline combination can never be admitted?)",
            accepted.len(),
            submission
        );
        let slot = accepted.len();
        let template = &cfg.workload.slots()[slot];
        let mode = match template.role {
            Some(role) => cfg.configuration.apply_to_role(role),
            None => cfg.configuration.mode_for_slot(slot),
        };
        let ta = arrivals.next_arrival();
        sched.run_until(ta);
        let tw = cal.tw(&template.bench);
        let class = classes[slot];
        let deadline = match mode {
            ExecutionMode::Opportunistic => None,
            _ => {
                let mut td = class.deadline(ta, tw);
                if let ExecutionMode::Elastic(x) = mode {
                    // A user choosing Elastic(X) accepts an X% slowdown, so
                    // by definition their deadline leaves at least that much
                    // slack; a tight deadline class is widened to the
                    // reservation length (plus a margin) or the submission
                    // would be unsatisfiable at any load.
                    let min_td = ta + tw.scale((1.0 + x.fraction()) * 1.02);
                    td = td.max(min_td);
                }
                Some(td)
            }
        };
        let id = JobId::new(submission);
        let mut builder = QosJob::with_mode(id, mode, ResourceRequest::paper_job())
            .work(cfg.work)
            .max_wall_clock(tw);
        if let Some(td) = deadline {
            builder = builder.deadline(td);
        }
        let d = sched.submit(builder.build(), trace_for(cfg, &template.bench, submission));
        if d.is_accepted() {
            accepted.push((slot, id, template.bench.clone(), class));
            rejections_for_slot = 0;
        } else {
            rejections_for_slot += 1;
        }
        submission += 1;
    }

    let hard_cap = sched.now() + tw0 * 200;
    sched.run_to_idle(hard_cap);
    sched.recorder_mut().flush();

    let mut jobs = Vec::with_capacity(n);
    let mut makespan = Cycles::ZERO;
    for (slot, id, bench, class) in accepted {
        let report = sched.report(id).expect("accepted job has a report");
        assert!(
            report.finished.is_some(),
            "accepted job {id} did not finish by the hard cap"
        );
        makespan = makespan.max(report.finished.unwrap_or(Cycles::ZERO));
        jobs.push(AcceptedJob {
            slot,
            bench,
            class,
            report,
        });
    }

    let outcome = RunOutcome {
        label,
        configuration: cfg.configuration,
        accepted: jobs,
        makespan,
        submissions: u64::from(submission),
        lac_cost: sched.lac().modeled_cost(),
        lac_tests: sched.lac().admission_tests(),
        work: cfg.work,
    };
    (outcome, sched.take_recorder())
}

/// The non-QoS baseline: no admission control (the first ten arrivals are
/// taken), default-OS-style round-robin timesharing over all cores, and an
/// equally partitioned L2 (Table 2's `EqualPart`, mimicking Virtual Private
/// Caches without an admission controller).
fn run_equal_part(
    cfg: &RunConfig,
    mut recorder: Box<dyn Recorder>,
) -> (RunOutcome, Box<dyn Recorder>) {
    let n = cfg.workload.len();
    let cal = Calibrator::new(cfg.scale, cfg.work);
    let classes = assign_classes(n, cfg.seed);
    let mut system = SystemConfig::paper_scaled(cfg.scale);
    scale_timeslice(&mut system, cfg.work);
    let cores = system.num_cores;
    let assoc = system.l2.associativity();

    let mut node = CmpNode::new(system);
    let equal = Ways::new(assoc / cores as u16);
    node.set_l2_targets(&vec![equal; cores])
        .expect("equal split fits");

    let tw0 = cal.tw(&cfg.workload.slots()[0].bench);
    let mut arrivals = ArrivalStream::paper_rate(tw0, cores as u64, cfg.seed);

    struct Pending {
        slot: usize,
        id: JobId,
        bench: String,
        class: DeadlineClass,
        arrival: Cycles,
        deadline: Cycles,
        mode: ExecutionMode,
        work: Instructions,
        tw: Cycles,
    }
    let mut pending = Vec::with_capacity(n);

    for (slot, template) in cfg.workload.slots().iter().enumerate() {
        let ta = arrivals.next_arrival();
        node.run_until(ta);
        let tw = cal.tw(&template.bench);
        let class = classes[slot];
        let id = JobId::new(slot as u32);
        node.spawn(TaskSpec {
            id,
            source: trace_for(cfg, &template.bench, slot as u32),
            budget: cfg.work,
            placement: Placement::Floating,
            reserved: false,
        })
        .expect("fresh ids spawn cleanly");
        pending.push(Pending {
            slot,
            id,
            bench: template.bench.clone(),
            class,
            arrival: ta,
            deadline: class.deadline(ta, tw),
            mode: match template.role {
                Some(role) => cfg.configuration.apply_to_role(role),
                None => ExecutionMode::Strict,
            },
            work: cfg.work,
            tw,
        });
    }

    let hard_cap = node.now() + tw0 * 400;
    node.run_to_completion(hard_cap);

    let label = format!("{} / EqualPart", cfg.workload.name());
    let mut jobs = Vec::with_capacity(n);
    let mut makespan = Cycles::ZERO;
    for p in pending {
        let completion = node
            .completion(p.id)
            .expect("EqualPart job finished under the hard cap");
        makespan = makespan.max(completion.finished_at);
        // EqualPart has no admission or mode machinery; reconstruct the
        // minimal submit/start/complete lifecycle per job so event files
        // stay comparable across configurations.
        if recorder.enabled() {
            recorder.record(
                p.arrival,
                Event::Submitted {
                    job: p.id,
                    mode: p.mode.into(),
                },
            );
            recorder.record(
                completion.started_at,
                Event::Started {
                    job: p.id,
                    core: None,
                    mode: p.mode.into(),
                },
            );
            let met = completion.finished_at <= p.deadline;
            recorder.record(
                completion.finished_at,
                Event::Completed {
                    job: p.id,
                    met_deadline: met,
                },
            );
            if !met {
                recorder.record(
                    completion.finished_at,
                    Event::DeadlineMissed {
                        job: p.id,
                        deadline: p.deadline,
                        finished: completion.finished_at,
                    },
                );
            }
        }
        let report = JobReport {
            job: QosJob::with_mode(p.id, p.mode, ResourceRequest::paper_job())
                .work(p.work)
                .max_wall_clock(p.tw)
                .deadline(p.deadline)
                .build(),
            arrival: p.arrival,
            decision: Decision::Accepted { start: p.arrival },
            started: Some(completion.started_at),
            finished: Some(completion.finished_at),
            perf: node.perf(p.id).copied().unwrap_or_default(),
            events: Vec::new(),
            steal: None,
        };
        jobs.push(AcceptedJob {
            slot: p.slot,
            bench: p.bench,
            class: p.class,
            report,
        });
    }

    recorder.flush();
    let outcome = RunOutcome {
        label,
        configuration: cfg.configuration,
        accepted: jobs,
        makespan,
        submissions: n as u64,
        lac_cost: Cycles::ZERO,
        lac_tests: 0,
        work: cfg.work,
    };
    (outcome, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_types::Percent;

    fn quick(workload: WorkloadSpec, configuration: Configuration) -> RunConfig {
        RunConfig {
            workload,
            configuration,
            scale: 16,
            work: Instructions::new(60_000),
            seed: 7,
            stealing_enabled: true,
            events: None,
        }
    }

    #[test]
    fn batch_is_identical_to_serial_cell_by_cell() {
        let cells: Vec<RunConfig> = [
            Configuration::AllStrict,
            Configuration::Hybrid1,
            Configuration::EqualPart,
        ]
        .into_iter()
        .map(|c| {
            let mut cfg = quick(WorkloadSpec::single("gobmk", 4), c);
            cfg.work = Instructions::new(40_000);
            cfg
        })
        .collect();
        let serial: Vec<RunOutcome> = cells.iter().map(run).collect();
        let parallel = run_batch(cells, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.makespan, p.makespan);
            assert_eq!(s.submissions, p.submissions);
            assert_eq!(s.lac_cost, p.lac_cost);
            assert_eq!(s.accepted.len(), p.accepted.len());
            for (a, b) in s.accepted.iter().zip(&p.accepted) {
                assert_eq!(a.slot, b.slot);
                assert_eq!(a.report.started, b.report.started);
                assert_eq!(a.report.finished, b.report.finished);
            }
        }
    }

    #[test]
    fn batch_event_files_match_serial_byte_for_byte() {
        let dir = std::env::temp_dir();
        let serial_path = dir.join(format!("cmpqos-batch-serial-{}.jsonl", std::process::id()));
        let parallel_path = dir.join(format!("cmpqos-batch-par-{}.jsonl", std::process::id()));
        for p in [&serial_path, &parallel_path] {
            let _ = std::fs::remove_file(p);
        }
        let cells = |path: &std::path::Path| -> Vec<RunConfig> {
            [Configuration::AllStrict, Configuration::EqualPart]
                .into_iter()
                .map(|c| {
                    let mut cfg = quick(WorkloadSpec::single("gobmk", 3), c);
                    cfg.work = Instructions::new(30_000);
                    cfg.events = Some(path.to_path_buf());
                    cfg
                })
                .collect()
        };
        let _ = run_batch(cells(&serial_path), 1);
        let _ = run_batch(cells(&parallel_path), 4);
        let serial = std::fs::read_to_string(&serial_path).expect("serial events written");
        let parallel = std::fs::read_to_string(&parallel_path).expect("parallel events written");
        assert!(!serial.is_empty());
        assert_eq!(serial, parallel, "--jobs must not change the event file");
        let _ = std::fs::remove_file(&serial_path);
        let _ = std::fs::remove_file(&parallel_path);
    }

    #[test]
    fn all_strict_accepts_ten_and_meets_deadlines() {
        let out = run(&quick(
            WorkloadSpec::single("gobmk", 6),
            Configuration::AllStrict,
        ));
        assert_eq!(out.accepted.len(), 6);
        for j in &out.accepted {
            assert!(j.report.met_deadline(), "slot {}", j.slot);
        }
        assert!(out.submissions >= 6);
        assert!(out.lac_tests >= out.submissions);
        assert!(out.makespan > Cycles::ZERO);
    }

    #[test]
    fn equal_part_takes_first_arrivals() {
        let out = run(&quick(
            WorkloadSpec::single("gobmk", 6),
            Configuration::EqualPart,
        ));
        assert_eq!(out.accepted.len(), 6);
        assert_eq!(out.submissions, 6);
        assert_eq!(out.lac_cost, Cycles::ZERO);
    }

    #[test]
    fn hybrid1_runs_opportunistic_slots() {
        let out = run(&quick(
            WorkloadSpec::single("gobmk", 6),
            Configuration::Hybrid1,
        ));
        let opp = out
            .accepted
            .iter()
            .filter(|j| j.report.job.mode == ExecutionMode::Opportunistic)
            .count();
        assert!(opp >= 1, "some opportunistic slots ran");
        for j in &out.accepted {
            if j.report.job.mode != ExecutionMode::Opportunistic {
                assert!(j.report.met_deadline(), "slot {}", j.slot);
            }
        }
    }

    #[test]
    fn hybrid2_attaches_steal_reports() {
        let cfg = quick(
            WorkloadSpec::single("gobmk", 6),
            Configuration::Hybrid2 {
                slack: Percent::new(5.0),
            },
        );
        let out = run(&cfg);
        let elastic: Vec<_> = out
            .accepted
            .iter()
            .filter(|j| matches!(j.report.job.mode, ExecutionMode::Elastic(_)))
            .collect();
        assert!(!elastic.is_empty());
        for j in elastic {
            assert!(j.report.steal.is_some(), "slot {}", j.slot);
        }
    }

    #[test]
    fn autodown_improves_on_all_strict_makespan() {
        let strict = run(&quick(
            WorkloadSpec::single("gobmk", 6),
            Configuration::AllStrict,
        ));
        let auto = run(&quick(
            WorkloadSpec::single("gobmk", 6),
            Configuration::AllStrictAutoDown,
        ));
        for j in &auto.accepted {
            assert!(j.report.met_deadline(), "slot {}", j.slot);
        }
        assert!(
            auto.makespan <= strict.makespan,
            "AutoDown {} vs AllStrict {}",
            auto.makespan,
            strict.makespan
        );
    }
}
