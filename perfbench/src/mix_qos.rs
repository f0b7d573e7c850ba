//! `mix_qos`: cells of paper Mix-1 (hmmer Strict, gobmk Elastic(5%), bzip2
//! Opportunistic) under Hybrid-2 at scale 8 and 800k instructions per job,
//! through `cmpqos_workloads::runner::run`. One op is one simulated
//! instruction of an accepted job.
//!
//! The traced run reaches the layers three ways: a collecting `Recorder`
//! passed to `runner::run_recorded` (scheduler, stealing and obs counts);
//! the cell's three calibration runs re-driven through
//! `calibrate::solo_run`, which must reproduce each job's `tw`; and each
//! accepted job's seeded profile replayed layer by layer through
//! `TraceSource::next_instruction` → `L1Cache::access` →
//! `SharedL2::access` / `DuplicateTagMonitor::observe` →
//! `MemoryChannel::request`, one span per layer batch.

use crate::harness::{nearest_rank_u64, Check, Layers, Model, Workload};
use crate::spans::{replay_into_shard, timed, Collector};
use cmpqos_cache::{DuplicateTagMonitor, L1Cache, SharedL2};
use cmpqos_core::ExecutionMode;
use cmpqos_mem::{MemoryChannel, Priority};
use cmpqos_obs::Event;
use cmpqos_system::SystemConfig;
use cmpqos_testkit::cpi::decomposition_error;
use cmpqos_trace::{spec, InstrEvent, TraceSource};
use cmpqos_types::{CoreId, Cycles, Percent, Ways};
use cmpqos_workloads::calibrate::{solo_run, TW_MARGIN};
use cmpqos_workloads::runner::{run, run_recorded, RunOutcome};
use cmpqos_workloads::{metrics, Configuration, RunConfig, WorkloadSpec};

/// Instructions of each accepted job's profile replayed per traced cell.
const REPLAY_INSTR: usize = 200_000;

/// The calibrator's fixed solo-run seed (`Calibrator::solo`).
const CALIBRATION_SEED: u64 = 0xCA11;

/// Summed traced-run spans and counts.
#[derive(Debug, Default)]
struct Acc {
    cells: u64,
    instr: u64,
    cell_secs: Vec<f64>,
    calibrate_secs: Vec<f64>,
    obs_secs: f64,
    events: u64,
    submissions: u64,
    accepted: u64,
    steals: u64,
    guard_trips: u64,
    l1_accesses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    mem_stall: u64,
    replay_instr: u64,
    trace_secs: f64,
    l1: (u64, f64),
    l2: (u64, f64),
    shadow: (u64, f64),
    mem: (u64, f64),
}

pub struct MixQos {
    template: Option<RunConfig>,
    acc: Acc,
}

impl MixQos {
    pub fn new() -> Self {
        Self {
            template: None,
            acc: Acc::default(),
        }
    }

    fn cell(&self, seed: u64) -> RunConfig {
        let mut cfg = self
            .template
            .clone()
            .expect("prepare() builds the template");
        cfg.seed = seed;
        cfg
    }

    /// Replays every accepted job's first `REPLAY_INSTR` instructions through
    /// the cache and memory layers, one span per layer batch.
    fn replay_profiles(&mut self, cfg: &RunConfig, outcome: &RunOutcome) {
        let system = SystemConfig::paper_scaled(cfg.scale);
        let cores = system.num_cores;
        let mut l1s: Vec<L1Cache> = (0..cores).map(|_| L1Cache::new(system.l1)).collect();
        let mut l2 = SharedL2::new(system.l2, cores, system.partition_policy);
        let share = Ways::new(system.l2.associativity() / cores as u16);
        l2.set_targets(&vec![share; cores])
            .expect("an equal split fits the L2");
        let sets = system.l2.geometry().sets();
        let block = system.l2.block_size().bytes();
        let mut channel = MemoryChannel::new(system.memory);
        let mut events: Vec<InstrEvent> = Vec::with_capacity(REPLAY_INSTR);
        let mut misses: Vec<(u64, Option<u64>)> = Vec::new();
        let mut observed: Vec<(u32, u64, bool)> = Vec::new();
        let mut to_memory: Vec<bool> = Vec::new();
        let mut clock = 0u64;
        for (slot, job) in outcome.accepted.iter().enumerate() {
            let submission = job.report.job.id.index();
            let profile = spec::scaled(&job.bench, cfg.scale).expect("Mix-1 benchmarks exist");
            // The runner's `trace_for`: the same seed and address base.
            let seed = cfg
                .seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(u64::from(submission));
            let mut source = profile.instantiate(seed, u64::from(submission + 1) << 36);
            let priority = if job.report.job.mode.reserves_resources() {
                Priority::Reserved
            } else {
                Priority::Opportunistic
            };
            let core = slot % cores;
            let core_id = CoreId::new(core as u32);

            events.clear();
            let ((), secs) = timed(|| {
                for _ in 0..REPLAY_INSTR {
                    events.push(source.next_instruction());
                }
            });
            self.acc.trace_secs += secs;
            self.acc.replay_instr += REPLAY_INSTR as u64;

            misses.clear();
            let l1 = &mut l1s[core];
            let ((), secs) = timed(|| {
                for e in &events {
                    if let Some(a) = e.access {
                        let out = l1.access(a.addr(), a.is_write());
                        if !out.hit {
                            misses.push((a.addr(), out.writeback));
                        }
                    }
                }
            });
            let accesses = events.iter().filter(|e| e.access.is_some()).count() as u64;
            self.acc.l1.0 += accesses;
            self.acc.l1.1 += secs;

            observed.clear();
            to_memory.clear();
            let ((), secs) = timed(|| {
                for &(addr, writeback) in &misses {
                    if let Some(wb) = writeback {
                        let out = l2.access(core_id, wb, true);
                        observed.push((out.set, wb / block, out.hit));
                        if out.eviction.is_some_and(|e| e.dirty) {
                            to_memory.push(true);
                        }
                    }
                    let out = l2.access(core_id, addr, false);
                    observed.push((out.set, addr / block, out.hit));
                    if !out.hit {
                        if out.eviction.is_some_and(|e| e.dirty) {
                            to_memory.push(true);
                        }
                        to_memory.push(false);
                    }
                }
            });
            self.acc.l2.0 += observed.len() as u64;
            self.acc.l2.1 += secs;

            // Only Elastic jobs carry duplicate tags.
            if matches!(job.report.job.mode, ExecutionMode::Elastic(_)) {
                let mut monitor =
                    DuplicateTagMonitor::new(Ways::new(7), sets, system.shadow_sample_every);
                let ((), secs) = timed(|| {
                    for &(set, blk, hit) in &observed {
                        monitor.observe(set, blk, hit);
                    }
                });
                std::hint::black_box(monitor.shadow_misses());
                self.acc.shadow.0 += observed.len() as u64;
                self.acc.shadow.1 += secs;
            }

            let spacing = (REPLAY_INSTR as u64 / to_memory.len().max(1) as u64).max(1);
            let ((), secs) = timed(|| {
                for &writeback in &to_memory {
                    clock += spacing;
                    if writeback {
                        channel.writeback(Cycles::new(clock));
                    } else {
                        std::hint::black_box(channel.request(Cycles::new(clock), priority));
                    }
                }
            });
            self.acc.mem.0 += to_memory.len() as u64;
            self.acc.mem.1 += secs;
        }
    }
}

impl Workload for MixQos {
    type Outcome = RunOutcome;
    const NAME: &'static str = "mix_qos";
    const UNIT: &'static str = "cell";
    const OP: &'static str = "instr";
    const NOMINAL_UNIT_SECS: f64 = 0.7;
    const SETUP_REPS: usize = 3;

    fn prepare(&mut self) {
        self.template = Some(RunConfig::new(
            WorkloadSpec::mix1(),
            Configuration::Hybrid2 {
                slack: Percent::new(5.0),
            },
        ));
    }

    fn run(&self, seed: u64) -> RunOutcome {
        run(&self.cell(seed))
    }

    fn check(&self, o: &RunOutcome) -> Check {
        let cfg = self.template.as_ref().expect("prepared");
        let jobs = cfg.workload.len() as u64;
        let mut check = Check::new(jobs * cfg.work.get());
        check.require(o.accepted.len() as u64 == jobs, || {
            format!("{} of {jobs} jobs accepted", o.accepted.len())
        });
        for j in &o.accepted {
            let id = j.report.job.id;
            check.require(j.report.finished.is_some(), || {
                format!("job {id} never finished")
            });
            check.require(j.report.perf.instructions() == cfg.work, || {
                format!(
                    "job {id} retired {} instructions",
                    j.report.perf.instructions()
                )
            });
            let err = decomposition_error(&j.report.perf);
            check.require(err == 0, || {
                format!("job {id}: CPI decomposition off by {err} cycles")
            });
        }
        check
    }

    fn model(&self, o: &RunOutcome) -> Model {
        let reserved = o
            .accepted
            .iter()
            .filter(|j| j.report.job.mode.reserves_resources())
            .count() as u64;
        let rate = metrics::deadline_hit_rate(o, true);
        let strict: Vec<u64> = o
            .accepted
            .iter()
            .filter(|j| j.report.job.mode == ExecutionMode::Strict)
            .filter_map(|j| j.report.finished.map(|f| (f - j.report.arrival).get()))
            .collect();
        Model {
            work: o
                .accepted
                .iter()
                .map(|j| u128::from(j.report.perf.instructions().get()))
                .sum(),
            cycles: u128::from(o.makespan.get()),
            hits: (rate * reserved as f64).round() as u64,
            reserved,
            premium_p99: nearest_rank_u64(&strict, 990),
        }
    }

    fn trace(&mut self, seed: u64, untraced: &RunOutcome) -> Result<f64, String> {
        let cfg = self.cell(seed);
        let ((outcome, sink), cell_secs) =
            timed(|| run_recorded(&cfg, Box::new(Collector::default())));
        let collector = sink
            .as_any()
            .and_then(|any| any.downcast_ref::<Collector>())
            .ok_or("run_recorded did not hand back the collector")?;
        let finishes = |o: &RunOutcome| -> Vec<_> {
            o.accepted
                .iter()
                .map(|j| (j.report.job.id, j.report.finished))
                .collect()
        };
        if (
            self.check(&outcome),
            self.model(&outcome),
            finishes(&outcome),
        ) != (
            self.check(untraced),
            self.model(untraced),
            finishes(untraced),
        ) {
            return Err("the recorded cell's outcome differs".to_string());
        }

        // Calibration: the cell's three solo runs, re-driven; each must
        // reproduce the tw the cell gave its jobs.
        let mut calibrate_secs = 0.0;
        for bench in cfg.workload.benchmarks() {
            let (solo, secs) =
                timed(|| solo_run(bench, Ways::new(7), cfg.work, cfg.scale, CALIBRATION_SEED));
            calibrate_secs += secs;
            let tw = solo.cycles.scale(TW_MARGIN);
            if let Some(j) = untraced
                .accepted
                .iter()
                .find(|j| j.bench == bench && j.report.job.max_wall_clock != tw)
            {
                return Err(format!(
                    "calibration of {bench} gave tw {tw}, the cell used {}",
                    j.report.job.max_wall_clock
                ));
            }
        }

        self.replay_profiles(&cfg, untraced);

        let instr: u64 = outcome
            .accepted
            .iter()
            .map(|j| j.report.perf.instructions().get())
            .sum();
        let acc = &mut self.acc;
        acc.cells += 1;
        acc.instr += instr;
        acc.cell_secs.push(cell_secs);
        acc.calibrate_secs.push(calibrate_secs);
        acc.events += collector.records.len() as u64;
        acc.obs_secs += replay_into_shard(&collector.records);
        acc.submissions += outcome.submissions;
        acc.accepted += outcome.accepted.len() as u64;
        acc.steals += collector.count(|e| matches!(e, Event::StealTaken { .. }));
        acc.guard_trips += collector.count(|e| matches!(e, Event::GuardTripped { .. }));
        for j in &outcome.accepted {
            let p = &j.report.perf;
            acc.l1_accesses += p.l1_accesses();
            acc.l2_accesses += p.l2_accesses();
            acc.l2_misses += p.l2_misses();
            acc.mem_stall += p.mem_stall_cycles().get();
        }
        Ok(cell_secs)
    }

    fn layers(&self) -> Layers {
        let a = &self.acc;
        let cfg = SystemConfig::paper_scaled(self.template.as_ref().map_or(8, |t| t.scale));
        let instr = a.instr.max(1) as f64;
        let replay = a.replay_instr.max(1) as f64;
        let per = |(calls, secs): (u64, f64)| secs * 1e9 / calls.max(1) as f64;
        // A layer's self time in the cell: its replayed cost per
        // instruction times the cell's instructions.
        let share = |(_, secs): (u64, f64)| secs / replay * instr;
        let traced_total: f64 = a.cell_secs.iter().sum();
        let calibrate: f64 = a.calibrate_secs.iter().sum();
        let children = vec![
            ("workloads", calibrate),
            ("trace", a.trace_secs / replay * instr),
            ("cache.l1", share(a.l1)),
            ("cache.l2", share(a.l2)),
            ("cache.shadow", share(a.shadow)),
            ("mem", share(a.mem)),
            ("obs", a.obs_secs),
        ];
        let child_sum: f64 = children.iter().map(|(_, s)| s).sum();
        let base_latency = cfg.l2.latency().get() + cfg.memory.latency.get();
        let metrics = vec![
            ("trace.ns_per_instr", a.trace_secs * 1e9 / replay, "ns"),
            ("cache.l1.ns_per_access", per(a.l1), "ns"),
            (
                "cache.l1.miss_pct",
                100.0 * a.l2_accesses as f64 / a.l1_accesses.max(1) as f64,
                "%",
            ),
            ("cache.l2.ns_per_access", per(a.l2), "ns"),
            (
                "cache.l2.miss_pct",
                100.0 * a.l2_misses as f64 / a.l2_accesses.max(1) as f64,
                "%",
            ),
            ("cache.shadow.ns_per_observe", per(a.shadow), "ns"),
            (
                "cache.shadow.observes_per_kinstr",
                a.shadow.0 as f64 * 1000.0 / replay,
                "1/kinstr",
            ),
            ("mem.ns_per_request", per(a.mem), "ns"),
            (
                "mem.queue_cycles_per_request",
                a.mem_stall as f64 / a.l2_misses.max(1) as f64 - base_latency as f64,
                "cycles",
            ),
            (
                "system.self_ns_per_instr",
                (traced_total - child_sum) * 1e9 / instr,
                "ns",
            ),
            (
                "workloads.calibrate_pct",
                100.0 * calibrate / traced_total,
                "%",
            ),
            (
                "core.scheduler.submits_per_cell",
                a.submissions as f64 / a.cells.max(1) as f64,
                "count",
            ),
            (
                "core.stealing.steals_per_cell",
                a.steals as f64 / a.cells.max(1) as f64,
                "count",
            ),
            (
                "core.stealing.guard_trips_per_cell",
                a.guard_trips as f64 / a.cells.max(1) as f64,
                "count",
            ),
            (
                "core.lac.accept_pct",
                100.0 * a.accepted as f64 / a.submissions.max(1) as f64,
                "%",
            ),
            ("obs.events_per_op", a.events as f64 / instr, "count"),
            (
                "obs.ns_per_event",
                a.obs_secs * 1e9 / a.events.max(1) as f64,
                "ns",
            ),
        ];
        Layers {
            metrics,
            parent: "system",
            children,
            traced_total,
            overhead_secs: a.obs_secs,
            timings: vec![
                ("traced cell".into(), "s", a.cell_secs.clone()),
                ("calibration re-drive".into(), "s", a.calibrate_secs.clone()),
            ],
        }
    }
}
