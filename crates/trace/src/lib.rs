//! Synthetic workload generation for the `cmpqos` CMP simulator.
//!
//! The paper evaluates its QoS framework with SPEC CPU2006 benchmarks running
//! under Simics. This crate replaces those proprietary binaries with
//! *synthetic address-stream generators*: each benchmark is modelled as a
//! mixture of memory-access components (uniform working sets and sequential
//! streams) plus an instruction mix, calibrated so that its
//! L2-miss-ratio-versus-capacity curve reproduces the published operating
//! points (Table 1) and sensitivity classes (Figure 4).
//!
//! The experiments in the paper observe benchmarks *only* through
//! (a) L2 accesses per instruction and (b) the L2 miss curve versus allocated
//! cache capacity, so this substitution exercises the same framework code
//! paths (admission, partitioning, stealing, downgrade).
//!
//! # Examples
//!
//! ```
//! use cmpqos_trace::{spec, TraceSource};
//!
//! let profile = spec::benchmark("bzip2").expect("bzip2 is built in");
//! let mut source = profile.instantiate(/* seed */ 42, /* base addr */ 0);
//! let event = source.next_instruction();
//! // Roughly one in three instructions touches memory.
//! let _ = event.access;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod estimate;
pub mod mixture;
pub mod profile;
pub mod source;
pub mod spec;
pub mod synthetic;

pub use access::{Access, AccessKind};
pub use mixture::{AccessMixture, Component};
pub use profile::BenchmarkProfile;
pub use source::{InstrEvent, TraceSource};
pub use spec::SensitivityClass;
pub use synthetic::SyntheticTrace;
