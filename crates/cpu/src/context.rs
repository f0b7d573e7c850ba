//! Per-job execution contexts.

use crate::perf::PerfCounters;
use cmpqos_trace::{Access, TraceSource};
use cmpqos_types::Cycles;

/// Memory-hierarchy outcome of one access, reported back to the context by
/// the system model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOutcome {
    /// Hit in the private L1: cost already covered by `CPI_L1∞`.
    L1Hit,
    /// L1 miss, L2 hit: the core stalls for the L2 access penalty.
    L2Hit {
        /// Stall cycles (`t2`).
        stall: Cycles,
    },
    /// L2 miss: the core stalls until memory returns the block.
    L2Miss {
        /// Stall cycles (`t_m`, including queueing).
        stall: Cycles,
    },
}

impl MemOutcome {
    /// The stall this outcome imposes on an in-order core.
    #[must_use]
    pub fn stall(&self) -> Cycles {
        match self {
            MemOutcome::L1Hit => Cycles::ZERO,
            MemOutcome::L2Hit { stall } | MemOutcome::L2Miss { stall } => *stall,
        }
    }
}

/// The execution state of one job: its instruction stream plus performance
/// accounting. Jobs carry their context across cores when migrated or
/// timeshared.
///
/// Driving protocol (used by the system engine):
///
/// 1. [`ExecutionContext::issue`] — consume the next instruction's base
///    cost; returns `(base_cycles, Option<Access>)`.
/// 2. If an access was returned, present it to the memory hierarchy, then
///    call [`ExecutionContext::complete`] with the [`MemOutcome`].
///    If not, call [`ExecutionContext::complete_compute`].
///
/// # Examples
///
/// ```
/// use cmpqos_cpu::{ExecutionContext, MemOutcome};
/// use cmpqos_trace::spec;
///
/// let profile = spec::benchmark("gobmk").unwrap();
/// let mut ctx = ExecutionContext::new(Box::new(profile.instantiate(7, 0)));
/// let (base, access) = ctx.issue();
/// match access {
///     Some(_) => ctx.complete(base, MemOutcome::L1Hit),
///     None => ctx.complete_compute(base),
/// }
/// assert_eq!(ctx.perf().instructions().get(), 1);
/// ```
pub struct ExecutionContext {
    source: Box<dyn TraceSource>,
    perf: PerfCounters,
    /// Fractional base-CPI accumulator (base CPIs like 1.5 are paid as an
    /// extra cycle every other instruction).
    frac: f64,
}

impl std::fmt::Debug for ExecutionContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionContext")
            .field("source", &self.source.name())
            .field("perf", &self.perf)
            .field("frac", &self.frac)
            .finish()
    }
}

impl ExecutionContext {
    /// Creates a context over `source`.
    #[must_use]
    pub fn new(source: Box<dyn TraceSource>) -> Self {
        Self {
            source,
            perf: PerfCounters::default(),
            frac: 0.0,
        }
    }

    /// The job's benchmark name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.source.name()
    }

    /// Performance counters.
    #[must_use]
    pub fn perf(&self) -> &PerfCounters {
        &self.perf
    }

    /// Issues the next instruction: accumulates its base cost and returns
    /// `(base_cycles, access)`.
    pub fn issue(&mut self) -> (Cycles, Option<Access>) {
        // The base CPI is read after the instruction: a phased source
        // switches phase inside `next_instruction`.
        let event = self.source.next_instruction();
        self.frac += self.source.base_cpi();
        let (whole, cycles) = if (0.0..u64::MAX as f64).contains(&self.frac) {
            // On this range truncation is floor and both casts are exact,
            // without a libm call.
            let cycles = self.frac as u64;
            (cycles as f64, cycles)
        } else {
            let whole = self.frac.floor();
            (whole, whole as u64)
        };
        self.frac -= whole;
        (Cycles::new(cycles), event.access)
    }

    /// Completes a memory instruction issued with `base` cycles.
    pub fn complete(&mut self, base: Cycles, outcome: MemOutcome) {
        self.perf.charge_base(base);
        self.perf.record_l1_access();
        match outcome {
            MemOutcome::L1Hit => {}
            MemOutcome::L2Hit { stall } => self.perf.record_l2_hit(stall),
            MemOutcome::L2Miss { stall } => self.perf.record_l2_miss(stall),
        }
        self.perf.retire(base + outcome.stall());
    }

    /// Completes a compute-only instruction issued with `base` cycles.
    pub fn complete_compute(&mut self, base: Cycles) {
        self.perf.charge_base(base);
        self.perf.retire(base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_trace::{InstrEvent, TraceSource};

    /// A source with base CPI 1.5 and no memory accesses.
    struct Compute;

    impl TraceSource for Compute {
        fn next_instruction(&mut self) -> InstrEvent {
            InstrEvent::compute()
        }
        fn base_cpi(&self) -> f64 {
            1.5
        }
        fn name(&self) -> &str {
            "compute"
        }
    }

    #[test]
    fn fractional_base_cpi_averages_out() {
        let mut ctx = ExecutionContext::new(Box::new(Compute));
        let mut total = Cycles::ZERO;
        for _ in 0..1000 {
            let (base, access) = ctx.issue();
            assert!(access.is_none());
            ctx.complete_compute(base);
            total += base;
        }
        assert_eq!(total, Cycles::new(1500));
        assert!((ctx.perf().cpi() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn memory_outcomes_accumulate_in_perf() {
        let mut ctx = ExecutionContext::new(Box::new(Compute));
        let (base, _) = ctx.issue();
        ctx.complete(
            base,
            MemOutcome::L2Miss {
                stall: Cycles::new(300),
            },
        );
        let (base, _) = ctx.issue();
        ctx.complete(
            base,
            MemOutcome::L2Hit {
                stall: Cycles::new(10),
            },
        );
        let (base, _) = ctx.issue();
        ctx.complete(base, MemOutcome::L1Hit);
        let p = ctx.perf();
        assert_eq!(p.instructions().get(), 3);
        assert_eq!(p.l1_accesses(), 3);
        assert_eq!(p.l2_accesses(), 2);
        assert_eq!(p.l2_misses(), 1);
        assert_eq!(p.mem_stall_cycles(), Cycles::new(300));
        assert_eq!(p.l2_stall_cycles(), Cycles::new(10));
    }

    #[test]
    fn outcome_stall_accessor() {
        assert_eq!(MemOutcome::L1Hit.stall(), Cycles::ZERO);
        assert_eq!(
            MemOutcome::L2Hit {
                stall: Cycles::new(10)
            }
            .stall(),
            Cycles::new(10)
        );
    }

    #[test]
    fn name_comes_from_source() {
        let ctx = ExecutionContext::new(Box::new(Compute));
        assert_eq!(ctx.name(), "compute");
    }
}
