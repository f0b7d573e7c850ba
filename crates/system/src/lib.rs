//! The CMP node simulator: cores, caches, memory and an OS-like scheduler.
//!
//! This crate replaces the paper's Simics/Linux full-system substrate with an
//! event-driven timing model of a CMP node:
//!
//! * `N` in-order cores (paper: four at 2 GHz), each with a private
//!   [`cmpqos_cache::L1Cache`];
//! * one shared, way-partitioned [`cmpqos_cache::SharedL2`];
//! * one [`cmpqos_mem::MemoryChannel`] with priority-aware bandwidth
//!   queueing; and
//! * an OS layer: **pinned** tasks own a core exclusively (how the LAC runs
//!   Strict/Elastic jobs), while **floating** tasks are timeshared
//!   round-robin across cores without pinned occupants (Opportunistic jobs,
//!   and every job under the non-QoS `EqualPart` configuration).
//!
//! The engine is *mechanism only*: partition targets, victim classes,
//! memory priorities and duplicate-tag monitors are all set from outside by
//! the QoS framework (`cmpqos-core`), which implements the paper's policies
//! on top.
//!
//! # Examples
//!
//! ```
//! use cmpqos_system::{CmpNode, Placement, SystemConfig, TaskSpec};
//! use cmpqos_trace::spec;
//! use cmpqos_types::{Cycles, Instructions, JobId};
//!
//! let mut node = CmpNode::new(SystemConfig::paper());
//! let profile = spec::benchmark("gobmk").unwrap();
//! node.spawn(TaskSpec {
//!     id: JobId::new(0),
//!     source: profile.instantiate(1, 0),
//!     budget: Instructions::new(10_000),
//!     placement: Placement::Floating,
//!     reserved: false,
//! })?;
//! node.run_until(Cycles::new(1_000_000));
//! assert_eq!(node.take_completions().len(), 1);
//! # Ok::<(), cmpqos_system::SpawnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod node;
pub mod task;

pub use config::{SystemConfig, SystemConfigError};
pub use node::CmpNode;
pub use task::{Placement, SpawnError, TaskCompletion, TaskSpec};
