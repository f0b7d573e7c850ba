//! # cmpqos — QoS for chip multi-processors
//!
//! Facade crate re-exporting the full `cmpqos` workspace: a reproduction of
//! *"A Framework for Providing Quality of Service in Chip Multi-Processors"*
//! (Guo, Solihin, Zhao, Iyer — MICRO 2007).
//!
//! See the workspace `README.md` for an architecture overview and
//! `DESIGN.md` for the system inventory and experiment index.

#![forbid(unsafe_code)]

pub use cmpqos_adapt as adapt;
pub use cmpqos_cache as cache;
pub use cmpqos_core as qos;
pub use cmpqos_cpu as cpu;
pub use cmpqos_engine as engine;
pub use cmpqos_experiments as experiments;
pub use cmpqos_faults as faults;
pub use cmpqos_mem as mem;
pub use cmpqos_net as net;
pub use cmpqos_obs as obs;
pub use cmpqos_recovery as recovery;
pub use cmpqos_scenario as scenario;
pub use cmpqos_system as system;
pub use cmpqos_testkit as testkit;
pub use cmpqos_trace as trace;
pub use cmpqos_types as types;
pub use cmpqos_workloads as workloads;

/// The workspace README, so its Rust examples compile and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeExamples;
