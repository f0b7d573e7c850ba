//! In-order core execution model and CPI accounting.
//!
//! The evaluated CMP uses simple in-order 2 GHz cores, so per-instruction
//! timing decomposes additively, exactly as in Luo's model used by the paper
//! (Section 4.2):
//!
//! ```text
//! CPI = CPI_L1∞ + h2 · t2 + hm · tm
//! ```
//!
//! * [`ExecutionContext`] — the per-*job* execution state: its
//!   [`SyntheticTrace`](cmpqos_trace::SyntheticTrace), held by value and
//!   called statically, its fractional base-CPI accumulator and its
//!   performance counters. Jobs carry their contexts across cores
//!   (Opportunistic jobs may migrate / be timeshared), so the counters
//!   live here rather than on a core.
//! * [`PerfCounters`] — retired instructions, cycles, per-level access/miss
//!   counts and the additive stall breakdown.
//! * [`CpiModel`] — the closed-form model itself, used by analysis code and
//!   to validate the simulator's additivity.
//! * [`Throttle`] — a DVFS-style per-core frequency scaler (the adaptive
//!   control plane's third actuator), exact integer arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod model;
pub mod perf;
pub mod throttle;

pub use context::{ExecutionContext, MemOutcome};
pub use model::CpiModel;
pub use perf::PerfCounters;
pub use throttle::Throttle;
