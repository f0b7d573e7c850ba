//! Foundational types shared by every `cmpqos` crate.
//!
//! This crate defines the unit newtypes ([`Cycles`], [`Instructions`],
//! [`ByteSize`], [`Ways`], [`Percent`]), identifier newtypes ([`CoreId`],
//! [`JobId`], [`NodeId`], [`SourceId`]) and a streaming statistics helper
//! ([`stats::RunningStats`]) used throughout the simulator and the QoS
//! framework.
//!
//! Everything here is deliberately dependency-free and forbids `unsafe`.
//!
//! # Examples
//!
//! ```
//! use cmpqos_types::{ByteSize, Cycles, Ways};
//!
//! let l2 = ByteSize::from_mib(2);
//! assert_eq!(l2.bytes(), 2 * 1024 * 1024);
//!
//! let slice = Ways::new(7);
//! let t = Cycles::new(300) + Cycles::new(20);
//! assert_eq!(t.get(), 320);
//! assert_eq!(format!("{slice}"), "7 ways");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ids;
pub mod stats;
pub mod units;

pub use ids::{CoreId, JobId, NodeId, SourceId};
pub use stats::RunningStats;
pub use units::{ByteSize, Cycles, Instructions, Percent, Ways};
