//! Solo-run calibration.
//!
//! A job's `max_wall_clock` (tw) is the time it needs with its requested
//! resources. Users of batch systems know this from experience; we obtain it
//! the same way — by running each benchmark alone with its requested 7-way
//! allocation once per (benchmark, scale, work) and caching the result. The
//! same machinery produces the solo sweeps behind Figure 1, Figure 4 and
//! Table 1.

use cmpqos_cpu::PerfCounters;
use cmpqos_system::{CmpNode, Placement, SystemConfig, TaskSpec};
use cmpqos_trace::spec;
use cmpqos_types::{CoreId, Cycles, Instructions, JobId, Ways};
use std::collections::HashMap;

/// Safety margin applied to the measured solo runtime when deriving tw:
/// users overstate their wall-clock needs slightly (and the paper's jobs
/// complete within their reservations).
pub const TW_MARGIN: f64 = 1.10;

/// Outcome of one solo run.
#[derive(Debug, Clone, Copy)]
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
/// # Panics
///
/// Panics if `bench` is not a built-in benchmark, if `k` leaves no valid
/// cache geometry (see [`SystemConfig::try_paper_scaled`]), or if `ways`
/// exceeds the scaled L2's associativity.
#[must_use]
pub fn solo_run(bench: &str, ways: Ways, work: Instructions, k: u64, seed: u64) -> SoloStats {
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

/// Memoizing calibrator for job wall-clock times.
///
/// # Examples
///
/// ```
/// use cmpqos_workloads::calibrate::Calibrator;
/// use cmpqos_types::Instructions;
///
/// let mut cal = Calibrator::new(16, Instructions::new(50_000));
/// let tw = cal.tw("gobmk");
/// assert!(tw.get() > 50_000); // CPI > 1
/// assert_eq!(cal.tw("gobmk"), tw); // cached
/// ```
#[derive(Debug)]
pub struct Calibrator {
    k: u64,
    work: Instructions,
    request_ways: Ways,
    cache: HashMap<String, SoloStats>,
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
            cache: HashMap::new(),
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

    /// Solo statistics at the requested allocation (memoized).
    pub fn solo(&mut self, bench: &str) -> SoloStats {
        if let Some(s) = self.cache.get(bench) {
            return *s;
        }
        let s = solo_run(bench, self.request_ways, self.work, self.k, 0xCA11);
        self.cache.insert(bench.to_string(), s);
        s
    }

    /// The job's maximum wall-clock time: measured solo runtime times
    /// [`TW_MARGIN`].
    pub fn tw(&mut self, bench: &str) -> Cycles {
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
        let mut cal = Calibrator::new(K, Instructions::new(WORK));
        let a = cal.tw("gobmk");
        let b = cal.tw("gobmk");
        assert_eq!(a, b);
        assert!(a > cal.solo("gobmk").cycles);
    }

    #[test]
    fn tw_exceeds_solo_runtime_by_margin() {
        let mut cal = Calibrator::new(K, Instructions::new(WORK));
        let solo = cal.solo("povray").cycles;
        let tw = cal.tw("povray");
        assert_eq!(tw, solo.scale(TW_MARGIN));
    }
}
