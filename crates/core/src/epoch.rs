//! The epoch hook: the seam between the admission plane (this crate) and
//! the adaptive control plane (`cmpqos-adapt`).
//!
//! The paper's framework *admits* jobs against declared resource targets
//! but never looks back at what performance was actually delivered. The
//! adaptive layer closes that loop: each control epoch the scheduler
//! samples every live job's delivered CPI ([`EpochSample`]),
//! hands the batch to an installed [`EpochController`], and applies the
//! knob movements it returns ([`KnobUpdate`]). This module defines only
//! the vocabulary of that exchange — the controllers themselves live in
//! `cmpqos-adapt`, which depends on this crate (never the other way
//! around), keeping the dependency layering acyclic.
//!
//! Everything here is integer-denominated (milli-CPI, milli-percent) so a
//! controller can be a pure integer function of its sampled window:
//! deterministic, oracle-checkable, and bit-identical across `--jobs`
//! widths.

use crate::modes::ExecutionMode;
use cmpqos_types::{CoreId, Cycles, Instructions, JobId};

/// A per-job service-level objective, declared at submission.
///
/// Targets are integer milli-units: `max_cpi_milli = 2600` means "delivered
/// CPI must stay at or below 2.600". A job without an [`SloSpec`] is never
/// sampled as violating and never triggers intervention on its own behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SloSpec {
    /// Delivered-CPI ceiling, in milli-CPI (1000 × CPI).
    pub max_cpi_milli: u64,
}

impl SloSpec {
    /// An SLO bounding delivered CPI only.
    ///
    /// # Examples
    ///
    /// ```
    /// use cmpqos_core::SloSpec;
    /// let slo = SloSpec::cpi(2.6);
    /// assert_eq!(slo.max_cpi_milli, 2600);
    /// ```
    #[must_use]
    pub fn cpi(max_cpi: f64) -> Self {
        Self {
            max_cpi_milli: (max_cpi * 1000.0).round().max(0.0) as u64,
        }
    }

    /// An SLO no run can violate, for baselines and metamorphic tests.
    #[must_use]
    pub fn unbounded() -> Self {
        Self {
            max_cpi_milli: u64::MAX,
        }
    }
}

/// One job's delivered performance over the epoch that just ended.
///
/// All counters are *deltas* for the window, not lifetime totals, so a
/// controller sees the current operating point rather than a long-run
/// average that dilutes recent interference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// The sampled job.
    pub job: JobId,
    /// The core it is pinned to (`None` for floating/opportunistic jobs).
    pub core: Option<CoreId>,
    /// Its execution mode.
    pub mode: ExecutionMode,
    /// Its declared SLO, if any.
    pub slo: Option<SloSpec>,
    /// Instructions retired this epoch.
    pub instructions: Instructions,
    /// Cycles charged this epoch.
    pub cycles: Cycles,
}

impl EpochSample {
    /// Delivered CPI over the window, in milli-CPI; `None` before any
    /// instruction retires (an idle window says nothing about the SLO).
    #[must_use]
    pub fn cpi_milli(&self) -> Option<u64> {
        self.cycles
            .get()
            .saturating_mul(1000)
            .checked_div(self.instructions.get())
    }

    /// Whether this window violates the job's SLO (false without an SLO or
    /// on an idle window).
    #[must_use]
    pub fn violates_slo(&self) -> bool {
        let Some(slo) = self.slo else { return false };
        self.cpi_milli().is_some_and(|c| c > slo.max_cpi_milli)
    }
}

/// Everything a controller may look at for one epoch decision.
#[derive(Debug, Clone, Copy)]
pub struct EpochView<'a> {
    /// The epoch boundary's simulation time.
    pub now: Cycles,
    /// One sample per live job, in job-id order (deterministic).
    pub samples: &'a [EpochSample],
    /// Cores with no pinned occupant (hosting floating work), in core
    /// order — the targets of the DVFS throttle actuator.
    pub floating_cores: &'a [CoreId],
}

/// One actuator movement requested by a controller.
///
/// The scheduler applies updates in the order returned, clamps nothing
/// (clamping is the controller's contract — see `cmpqos-adapt`'s property
/// tests), and emits a `KnobChanged` event only when the applied value
/// actually differs from the current one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobUpdate {
    /// Retune an Elastic donor's guard slack, in milli-percent.
    StealSlack {
        /// The donor job.
        job: JobId,
        /// New slack threshold, milli-percent (`20_000` = Elastic(20)).
        milli_pct: u64,
    },
    /// Retune an Elastic donor's repartitioning interval.
    StealInterval {
        /// The donor job.
        job: JobId,
        /// New interval, in retired instructions.
        interval: Instructions,
    },
    /// Set a core's DVFS-style speed.
    CoreSpeed {
        /// The core to throttle.
        core: CoreId,
        /// New speed, percent of full frequency.
        percent: u8,
    },
}

/// A closed-loop controller installed on the scheduler via
/// `QosScheduler::set_epoch_controller`.
///
/// Called once per control epoch with the window's samples; returns the
/// knob movements to apply. Implementations must be deterministic pure
/// functions of their own state plus the sampled window — no clocks, no
/// ambient randomness — so adaptive runs stay byte-identical across
/// `--jobs` widths.
pub trait EpochController: Send {
    /// A short stable name, for labels and debug output.
    fn name(&self) -> &'static str;

    /// Decides the knob movements for the epoch that just ended.
    fn epoch(&mut self, view: &EpochView<'_>) -> Vec<KnobUpdate>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(instr: u64, cycles: u64, slo: Option<SloSpec>) -> EpochSample {
        EpochSample {
            job: JobId::new(1),
            core: Some(CoreId::new(0)),
            mode: ExecutionMode::Strict,
            slo,
            instructions: Instructions::new(instr),
            cycles: Cycles::new(cycles),
        }
    }

    #[test]
    fn milli_ratios_are_exact_integer_arithmetic() {
        let s = sample(4000, 10_400, None);
        assert_eq!(s.cpi_milli(), Some(2600));
        let idle = sample(0, 0, None);
        assert_eq!(idle.cpi_milli(), None);
    }

    #[test]
    fn violation_requires_an_slo_and_a_busy_window() {
        let slo = SloSpec::cpi(2.5);
        assert!(sample(1000, 2600, Some(slo)).violates_slo());
        assert!(!sample(1000, 2400, Some(slo)).violates_slo());
        assert!(!sample(1000, 9999, None).violates_slo());
        assert!(!sample(0, 0, Some(slo)).violates_slo());
        assert!(!sample(1000, 9999, Some(SloSpec::unbounded())).violates_slo());
    }
}
