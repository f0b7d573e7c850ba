//! Cache models for the `cmpqos` CMP simulator.
//!
//! This crate implements the memory-hierarchy structures the paper's QoS
//! framework manages:
//!
//! * [`L1Cache`] — a private, set-associative, write-back, LRU cache
//!   (the evaluated configuration uses 32 KiB, 4-way, 64-byte blocks).
//! * [`SharedL2`] — the shared last-level cache with **way partitioning**.
//!   Two partitioning policies are provided: the paper's QoS-aware
//!   *per-set* scheme (per-set owner counters + per-core target-allocation
//!   counters + execution-mode-aware victim priority, Section 4.1) and the
//!   Suh-style *global*-counter scheme it argues against.
//! * [`shadow::DuplicateTagMonitor`] — the sampled duplicate (shadow) tag
//!   array used by resource stealing to bound an `Elastic(X)` job's L2 miss
//!   increase (Section 4.3): every `N`-th set keeps duplicate tags modelling
//!   the job's *original* allocation while the main tags track the stolen
//!   configuration.
//!
//! The cache models are purely functional (hit/miss/eviction outcomes plus
//! statistics); timing lives in `cmpqos-system`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod l1;
pub mod l2;
pub mod line;
pub mod shadow;
pub mod stats;
pub mod utility;

pub use config::{CacheConfig, CacheConfigError, CacheGeometry};
pub use l1::{L1Cache, L1Outcome};
pub use l2::{Eviction, L2Outcome, PartitionPolicy, SharedL2, VictimClass};
pub use shadow::{DuplicateTagMonitor, ShadowCounts};
pub use stats::CoreCacheStats;
pub use utility::UtilityMonitor;
