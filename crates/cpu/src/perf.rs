//! Per-job performance counters.

use cmpqos_types::{Cycles, Instructions};
use std::fmt;

/// Retired-instruction, cycle and memory-hierarchy counters for one job.
///
/// # Examples
///
/// ```
/// use cmpqos_cpu::PerfCounters;
/// use cmpqos_types::Cycles;
///
/// let mut p = PerfCounters::default();
/// p.retire(Cycles::new(1));
/// p.retire(Cycles::new(3));
/// assert_eq!(p.instructions().get(), 2);
/// assert_eq!(p.cpi(), 2.0);
/// assert_eq!(p.ipc(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PerfCounters {
    instructions: Instructions,
    cycles: Cycles,
    base_cycles: Cycles,
    l2_stall_cycles: Cycles,
    mem_stall_cycles: Cycles,
    l1_accesses: u64,
    l2_accesses: u64,
    l2_misses: u64,
}

impl PerfCounters {
    /// Records one retired instruction costing `cycles` in total.
    #[inline]
    pub fn retire(&mut self, cycles: Cycles) {
        self.instructions += Instructions::new(1);
        self.cycles += cycles;
    }

    /// Attributes `cycles` to the base (compute, `CPI_L1∞`) component.
    #[inline]
    pub fn charge_base(&mut self, cycles: Cycles) {
        self.base_cycles += cycles;
    }

    /// Records an L1 data access.
    #[inline]
    pub fn record_l1_access(&mut self) {
        self.l1_accesses += 1;
    }

    /// Records an L2 access (i.e. an L1 miss) and the stall it caused when
    /// it hit in the L2.
    #[inline]
    pub fn record_l2_hit(&mut self, stall: Cycles) {
        self.l2_accesses += 1;
        self.l2_stall_cycles += stall;
    }

    /// Records an L2 miss and its memory stall.
    #[inline]
    pub fn record_l2_miss(&mut self, stall: Cycles) {
        self.l2_accesses += 1;
        self.l2_misses += 1;
        self.mem_stall_cycles += stall;
    }

    /// Retired instructions.
    #[must_use]
    pub fn instructions(&self) -> Instructions {
        self.instructions
    }

    /// Total cycles charged to this job (its occupancy of a core).
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.cycles
    }

    /// Cycles attributed to the base component.
    #[must_use]
    pub fn base_cycles(&self) -> Cycles {
        self.base_cycles
    }

    /// Cycles stalled on L2 hits.
    #[must_use]
    pub fn l2_stall_cycles(&self) -> Cycles {
        self.l2_stall_cycles
    }

    /// Cycles stalled on memory (L2 misses).
    #[must_use]
    pub fn mem_stall_cycles(&self) -> Cycles {
        self.mem_stall_cycles
    }

    /// L1 data accesses.
    #[must_use]
    pub fn l1_accesses(&self) -> u64 {
        self.l1_accesses
    }

    /// L2 accesses (L1 misses).
    #[must_use]
    pub fn l2_accesses(&self) -> u64 {
        self.l2_accesses
    }

    /// L2 misses.
    #[must_use]
    pub fn l2_misses(&self) -> u64 {
        self.l2_misses
    }

    /// Cycles per instruction; `0.0` before any instruction retires.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.instructions.get() == 0 {
            0.0
        } else {
            self.cycles.as_f64() / self.instructions.as_f64()
        }
    }

    /// Instructions per cycle; `0.0` before any cycle is charged.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles.get() == 0 {
            0.0
        } else {
            self.instructions.as_f64() / self.cycles.as_f64()
        }
    }

    /// L2 accesses per instruction (the model's `h2`).
    #[must_use]
    pub fn h2(&self) -> f64 {
        if self.instructions.get() == 0 {
            0.0
        } else {
            self.l2_accesses as f64 / self.instructions.as_f64()
        }
    }

    /// L2 misses per instruction (the model's `hm`; Table 1's "L2 misses
    /// per instruction").
    #[must_use]
    pub fn mpi(&self) -> f64 {
        if self.instructions.get() == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.instructions.as_f64()
        }
    }

    /// L2 miss ratio (misses / accesses; Table 1's "L2 miss rate").
    #[must_use]
    pub fn l2_miss_ratio(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l2_accesses as f64
        }
    }

    /// Difference since an earlier snapshot.
    #[must_use]
    pub fn delta_since(&self, earlier: &PerfCounters) -> PerfCounters {
        PerfCounters {
            instructions: self.instructions - earlier.instructions,
            cycles: self.cycles - earlier.cycles,
            base_cycles: self.base_cycles - earlier.base_cycles,
            l2_stall_cycles: self.l2_stall_cycles - earlier.l2_stall_cycles,
            mem_stall_cycles: self.mem_stall_cycles - earlier.mem_stall_cycles,
            l1_accesses: self.l1_accesses - earlier.l1_accesses,
            l2_accesses: self.l2_accesses - earlier.l2_accesses,
            l2_misses: self.l2_misses - earlier.l2_misses,
        }
    }
}

impl fmt::Display for PerfCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instr, {} cycles, IPC {:.3}, h2 {:.4}, MPI {:.4}",
            self.instructions.get(),
            self.cycles.get(),
            self.ipc(),
            self.h2(),
            self.mpi()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_counters() {
        let p = PerfCounters::default();
        assert_eq!(p.cpi(), 0.0);
        assert_eq!(p.ipc(), 0.0);
        assert_eq!(p.h2(), 0.0);
        assert_eq!(p.mpi(), 0.0);
        assert_eq!(p.l2_miss_ratio(), 0.0);
    }

    #[test]
    fn stall_breakdown_is_additive() {
        let mut p = PerfCounters::default();
        p.charge_base(Cycles::new(2));
        p.record_l1_access();
        p.record_l2_hit(Cycles::new(10));
        p.retire(Cycles::new(12));
        p.charge_base(Cycles::new(1));
        p.record_l1_access();
        p.record_l2_miss(Cycles::new(300));
        p.retire(Cycles::new(301));
        assert_eq!(p.cycles(), Cycles::new(313));
        assert_eq!(
            p.base_cycles() + p.l2_stall_cycles() + p.mem_stall_cycles(),
            Cycles::new(313)
        );
        assert_eq!(p.l2_accesses(), 2);
        assert_eq!(p.l2_misses(), 1);
        assert_eq!(p.l2_miss_ratio(), 0.5);
        assert_eq!(p.h2(), 1.0);
        assert_eq!(p.mpi(), 0.5);
    }

    #[test]
    fn delta_since_isolates_an_interval() {
        let mut p = PerfCounters::default();
        p.retire(Cycles::new(5));
        let snap = p;
        p.record_l1_access();
        p.record_l2_miss(Cycles::new(300));
        p.retire(Cycles::new(305));
        let d = p.delta_since(&snap);
        assert_eq!(d.instructions().get(), 1);
        assert_eq!(d.l2_misses(), 1);
        assert_eq!(d.cycles(), Cycles::new(305));
    }

    #[test]
    fn display_contains_ipc() {
        let mut p = PerfCounters::default();
        p.retire(Cycles::new(2));
        assert!(p.to_string().contains("IPC 0.500"));
    }
}
