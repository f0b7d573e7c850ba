//! Solo-run calibration.
//!
//! A job's `max_wall_clock` (tw) is the time it needs with its requested
//! resources. Users of batch systems know this from experience; we obtain it
//! the same way — by running each benchmark alone with its requested 7-way
//! allocation. [`solo_run`] simulates each (benchmark, ways, work, scale,
//! seed) once per process and shares the result with every later caller:
//! every cell, experiment and engine worker. The same machinery produces the
//! solo sweeps behind Figure 1, Figure 4 and Table 1.

use cmpqos_cpu::PerfCounters;
use cmpqos_system::{CmpNode, Placement, SystemConfig, TaskSpec};
use cmpqos_trace::spec;
use cmpqos_types::{CoreId, Cycles, Instructions, JobId, Ways};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Safety margin applied to the measured solo runtime when deriving tw:
/// users overstate their wall-clock needs slightly (and the paper's jobs
/// complete within their reservations).
pub const TW_MARGIN: f64 = 1.10;

/// Outcome of one solo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoloStats {
    /// Wall-clock cycles from start to completion.
    pub cycles: Cycles,
    /// Full performance counters.
    pub perf: PerfCounters,
}

impl SoloStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.perf.ipc()
    }

    /// Cycles per instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        self.perf.cpi()
    }
}

/// Runs `bench` alone on a paper node scaled by `k`, pinned to core 0 with
/// `ways` of L2, for `work` instructions.
///
/// A solo run is a pure function of its five arguments, so each tuple is
/// simulated once per process: later calls, from any thread, return the
/// first run's result. Engine workers that ask for one tuple at once run it
/// once; other tuples run in parallel. A run that panics caches nothing.
///
/// # Panics
///
/// Panics if `bench` is not a built-in benchmark, if `k` leaves no valid
/// cache geometry (see [`SystemConfig::try_paper_scaled`]), or if `ways`
/// exceeds the scaled L2's associativity.
#[must_use]
pub fn solo_run(bench: &str, ways: Ways, work: Instructions, k: u64, seed: u64) -> SoloStats {
    // Only a built-in benchmark has a run to share; any other name panics
    // in `simulate`, as it always has.
    let Some(profile) = spec::benchmark(bench) else {
        return simulate(bench, ways, work, k, seed);
    };
    let cell = {
        // Held only to find the tuple's cell: the run itself happens under
        // the cell's own lock, below. Nothing panics while it is held, but
        // a poisoned table would still be consistent.
        let mut runs = solo_runs().lock().unwrap_or_else(PoisonError::into_inner);
        let cell = runs
            .entry((profile.name(), ways, work, k, seed))
            .or_default();
        if let Some(stats) = cell.get() {
            return *stats;
        }
        Arc::clone(cell)
    };
    *cell.get_or_init(|| simulate(bench, ways, work, k, seed))
}

/// One solo run's arguments, the benchmark named by its built-in profile.
type SoloKey = (&'static str, Ways, Instructions, u64, u64);

/// Every solo run this process has asked for. A cell stays empty until its
/// run completes; an initializer that panics leaves it empty.
fn solo_runs() -> &'static Mutex<HashMap<SoloKey, Arc<OnceLock<SoloStats>>>> {
    static RUNS: OnceLock<Mutex<HashMap<SoloKey, Arc<OnceLock<SoloStats>>>>> = OnceLock::new();
    RUNS.get_or_init(Mutex::default)
}

/// The solo run itself, uncached.
fn simulate(bench: &str, ways: Ways, work: Instructions, k: u64, seed: u64) -> SoloStats {
    let mut node = CmpNode::new(SystemConfig::paper_scaled(k));
    let cores = node.config().num_cores;
    let mut targets = vec![Ways::ZERO; cores];
    targets[0] = ways;
    node.set_l2_targets(&targets).expect("single target fits");
    let profile = spec::scaled(bench, k).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    node.spawn(TaskSpec {
        id: JobId::new(0),
        source: Box::new(profile.instantiate(seed, 0)),
        budget: work,
        placement: Placement::Pinned(CoreId::new(0)),
        reserved: true,
    })
    .expect("fresh node accepts the spawn");
    let finish = node.run_to_completion(Cycles::new(u64::MAX / 4));
    let perf = *node.perf(JobId::new(0)).expect("task ran");
    SoloStats {
        cycles: finish,
        perf,
    }
}

/// Job wall-clock times at the paper's 7-way request, read from
/// [`solo_run`]'s per-process table: every calibrator of one scale and work
/// shares one run per benchmark.
///
/// # Examples
///
/// ```
/// use cmpqos_workloads::calibrate::Calibrator;
/// use cmpqos_types::Instructions;
///
/// let cal = Calibrator::new(16, Instructions::new(50_000));
/// let tw = cal.tw("gobmk");
/// assert!(tw.get() > 50_000); // CPI > 1
/// assert_eq!(cal.tw("gobmk"), tw); // one run, shared
/// ```
#[derive(Debug)]
pub struct Calibrator {
    k: u64,
    work: Instructions,
    request_ways: Ways,
}

impl Calibrator {
    /// Creates a calibrator for scale `k` and per-job `work`. Jobs request
    /// the paper's 7 ways.
    #[must_use]
    pub fn new(k: u64, work: Instructions) -> Self {
        Self {
            k,
            work,
            request_ways: Ways::new(7),
        }
    }

    /// The scale factor.
    #[must_use]
    pub fn scale(&self) -> u64 {
        self.k
    }

    /// Per-job instruction count.
    #[must_use]
    pub fn work(&self) -> Instructions {
        self.work
    }

    /// Solo statistics at the requested allocation, at the fixed
    /// calibration seed.
    #[must_use]
    pub fn solo(&self, bench: &str) -> SoloStats {
        solo_run(bench, self.request_ways, self.work, self.k, 0xCA11)
    }

    /// The job's maximum wall-clock time: measured solo runtime times
    /// [`TW_MARGIN`].
    #[must_use]
    pub fn tw(&self, bench: &str) -> Cycles {
        self.solo(bench).cycles.scale(TW_MARGIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: u64 = 16;
    const WORK: u64 = 60_000;

    #[test]
    fn solo_run_reports_full_budget() {
        let s = solo_run("namd", Ways::new(7), Instructions::new(WORK), K, 1);
        assert_eq!(s.perf.instructions().get(), WORK);
        assert!(s.cycles > Cycles::new(WORK));
        assert!(s.ipc() > 0.0 && s.ipc() < 1.0);
    }

    #[test]
    fn table1_ordering_of_mpi() {
        // Table 1 @7 ways: bzip2 MPI (0.0055) > gobmk (0.004) > hmmer (0.001).
        let w = Instructions::new(400_000);
        let b = solo_run("bzip2", Ways::new(7), w, K, 2).perf.mpi();
        let g = solo_run("gobmk", Ways::new(7), w, K, 2).perf.mpi();
        let h = solo_run("hmmer", Ways::new(7), w, K, 2).perf.mpi();
        assert!(b > g, "bzip2 {b:.4} vs gobmk {g:.4}");
        assert!(g > h, "gobmk {g:.4} vs hmmer {h:.4}");
    }

    #[test]
    fn calibrator_memoizes() {
        let cal = Calibrator::new(K, Instructions::new(WORK));
        let a = cal.tw("gobmk");
        let b = cal.tw("gobmk");
        assert_eq!(a, b);
        assert!(a > cal.solo("gobmk").cycles);
    }

    #[test]
    fn tw_exceeds_solo_runtime_by_margin() {
        let cal = Calibrator::new(K, Instructions::new(WORK));
        let solo = cal.solo("povray").cycles;
        let tw = cal.tw("povray");
        assert_eq!(tw, solo.scale(TW_MARGIN));
    }

    #[test]
    fn the_table_returns_what_the_uncached_run_does() {
        let work = Instructions::new(20_000);
        for bench in ["hmmer", "gobmk", "bzip2"] {
            for seed in [1, 0xCA11] {
                for ways in [1, 7, 16] {
                    let ways = Ways::new(ways);
                    let uncached = simulate(bench, ways, work, K, seed);
                    let what = format!("{bench} at {ways:?}, seed {seed}");
                    assert_eq!(solo_run(bench, ways, work, K, seed), uncached, "{what}");
                    assert_eq!(solo_run(bench, ways, work, K, seed), uncached, "{what}");
                }
            }
        }
    }

    #[test]
    fn concurrent_askers_share_one_run() {
        // A tuple no other test asks for, so all four threads, released
        // together, meet an empty table entry.
        let (ways, work, seed) = (Ways::new(5), Instructions::new(23_456), 0x5EED);
        let start = std::sync::Barrier::new(4);
        let runs: Vec<SoloStats> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        solo_run("bzip2", ways, work, K, seed)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("the run returns"))
                .collect()
        });
        let uncached = simulate("bzip2", ways, work, K, seed);
        assert!(runs.iter().all(|r| *r == uncached), "{runs:?}");
    }

    /// The message of the panic `f` raises.
    fn panic_message(f: impl FnOnce() -> SoloStats + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("the run panics");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("a text payload")
    }

    #[test]
    fn a_run_that_panics_caches_nothing_and_poisons_nothing() {
        let work = Instructions::new(WORK);
        for _ in 0..2 {
            let message = panic_message(|| solo_run("nonesuch", Ways::new(7), work, K, 3));
            assert_eq!(message, "unknown benchmark nonesuch");
            // More ways than the L2 has: this one panics inside the table
            // entry's initializer.
            let message = panic_message(|| solo_run("namd", Ways::new(17), work, K, 3));
            assert!(message.starts_with("single target fits"), "{message}");
        }
        let valid = solo_run("namd", Ways::new(7), work, K, 3);
        assert_eq!(valid.perf.instructions(), work);
    }
}
