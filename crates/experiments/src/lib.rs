//! Experiment harness: one module per table/figure of the paper's
//! evaluation, regenerating the same rows/series.
//!
//! Absolute numbers differ from the paper's (the substrate is our own
//! simulator with synthetic SPEC2006 stand-ins; geometry and instruction
//! counts are scaled per `DESIGN.md`), but each experiment preserves the
//! paper's *shape*: who wins, by roughly what factor, and where crossovers
//! fall. `EXPERIMENTS.md` records paper-versus-measured for every entry.
//!
//! The `cmpqos` binary runs each experiment as a subcommand, e.g.:
//!
//! ```text
//! cargo run --release --bin cmpqos -- fig5 --scale 16
//! ```
//!
//! [`ExperimentParams`] holds the scale/work/seed/jobs/events knobs; the
//! flags and their `CMPQOS_*` variables pass the same check
//! ([`ExperimentParams::set`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod chaos;
pub mod extensions;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod json;
pub mod lac_overhead;
pub mod output;
pub mod overload;
pub mod params;
pub mod slo;
pub mod table1;
pub mod traffic;
pub mod variance;

pub use params::{EnvError, ExperimentParams};
