//! Deterministic parallel execution engine for independent simulation
//! cells.
//!
//! The paper's evaluation is a grid of *independent* cells: every
//! (workload, configuration, seed) tuple is a self-contained, seeded
//! simulation whose outcome depends only on its inputs. This crate runs
//! such grids on a bounded worker pool while guaranteeing **bit-identical
//! results to serial execution**:
//!
//! * results are returned **ordered by cell index**, never by completion
//!   order;
//! * cells receive no shared mutable state — each cell owns its input and
//!   produces an owned output;
//! * a panicking cell is caught ([`std::panic::catch_unwind`]) while
//!   every other cell runs to completion, then the run panics naming
//!   every failed cell.
//!
//! The pool is plain `std` (scoped threads taking cells from one
//! mutex-guarded iterator): the workspace builds offline with no registry
//! dependencies. Cells are coarse (milliseconds to minutes of
//! simulation), so handing them out one at a time costs nothing next to
//! running them.
//!
//! The pool width is always the caller's argument (`cmpqos` passes
//! `--jobs`/`CMPQOS_JOBS`); the engine reads no environment.
//!
//! # Example
//!
//! ```
//! use cmpqos_engine::Engine;
//!
//! let engine = Engine::new(4);
//! let squares = engine.run((0u64..8).collect(), |_idx, n| n * n);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Serial and parallel runs are indistinguishable:
//! assert_eq!(squares, Engine::new(1).run((0u64..8).collect(), |_i, n| n * n));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::Engine;

/// The machine's available parallelism (1 when it cannot be queried).
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}
