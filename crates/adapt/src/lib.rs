//! # cmpqos-adapt — the closed-loop adaptive control plane
//!
//! The paper's framework (and `cmpqos-core`) is feed-forward: jobs declare
//! resource targets, admission reserves them, and nobody ever checks what
//! performance was actually *delivered*. This crate closes the loop. Each
//! control epoch the scheduler samples every live job's windowed CPI
//! (`cmpqos_core::EpochSample`) and hands the batch to an installed
//! controller; the controller compares delivered performance
//! against each job's declared [`SloSpec`](cmpqos_core::SloSpec) and
//! retunes three actuators:
//!
//! * **Stealing slack** — an Elastic donor over its SLO gets its guard
//!   slack cut (less capacity donated to Opportunistic work), restored as
//!   the violation clears.
//! * **Stealing cadence** — the donor's repartitioning interval stretches
//!   under pressure, slowing the rate of further donation.
//! * **Core speed** — cores hosting floating (Opportunistic) work are
//!   DVFS-throttled, freeing shared bus bandwidth for reserved jobs.
//!
//! Each controller implements the scheduler's [`EpochController`] hook
//! itself. Two ship:
//!
//! * [`Static`] — never intervenes; the baseline the experiments compare
//!   against (equivalent to the paper's fixed Elastic(X) operating point).
//! * [`Pid`] — a per-job discrete PID controller in pure integer
//!   arithmetic (milli-CPI error, clamped integral for anti-windup, a
//!   deadband for hysteresis). Determinism is load-bearing: a controller
//!   is a pure function of its own state plus the sampled window, so
//!   adaptive runs stay byte-identical across `--jobs` widths and the
//!   testkit can check [`pid_step`] against a brute-force oracle.
//!
//! ```
//! use cmpqos_adapt::{Pid, PidConfig};
//! use cmpqos_core::{QosScheduler, SchedulerConfig};
//! use cmpqos_system::SystemConfig;
//! use cmpqos_types::Cycles;
//!
//! let mut sched = QosScheduler::new(SystemConfig::paper(), SchedulerConfig::default());
//! sched.set_epoch_controller(
//!     Box::new(Pid::new(PidConfig::default())),
//!     Cycles::new(100_000),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pid;

pub use pid::{pid_step, Pid, PidConfig, PidState};

use cmpqos_core::{EpochController, EpochView, KnobUpdate};

/// The do-nothing controller: the static-X baseline the experiments
/// compare against. Never returns an update, so an adaptive run with
/// [`Static`] differs from an un-instrumented run only by the epoch
/// wake-ups themselves.
#[derive(Debug, Clone, Copy, Default)]
pub struct Static;

impl EpochController for Static {
    fn name(&self) -> &'static str {
        "static"
    }

    fn epoch(&mut self, _view: &EpochView<'_>) -> Vec<KnobUpdate> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_types::Cycles;

    #[test]
    fn static_controller_never_moves_a_knob() {
        let mut c = Static;
        assert_eq!(c.name(), "static");
        let view = EpochView {
            now: Cycles::new(1),
            samples: &[],
            floating_cores: &[],
        };
        assert!(c.epoch(&view).is_empty());
    }
}
