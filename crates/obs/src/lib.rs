//! Observability for the CMP QoS framework: a typed event model, pluggable
//! recorder sinks, and timeline reconstruction.
//!
//! The paper's argument (Sections 3–5) rests on *observable* per-job
//! behavior — admission decisions, mode downgrades and switch-backs,
//! per-interval stealing actions, shadow-tag guard trips, partition
//! retargets. This crate makes those moments first-class:
//!
//! * [`Event`] — one variant per observable moment, each stamped with the
//!   cycle it happened at ([`Record`]).
//! * [`Recorder`] — the sink trait threaded through the scheduler, LAC,
//!   stealing controller and shared L2. [`NullRecorder`] (the default) is a
//!   no-op whose `enabled()` lets hot paths skip payload construction
//!   entirely; [`RingBufferRecorder`] keeps a bounded in-memory log for
//!   tests and timeline queries; [`JsonlRecorder`] streams records as JSON
//!   Lines for `cmpqos … --events`; [`ShardRecorder`] buffers one
//!   parallel experiment cell's stream so `cmpqos-engine` sweeps can merge
//!   per-cell shards deterministically ([`merge_shards`]).
//! * [`Timeline`] — reconstructs Figure-7-style job-lifetime bands (which
//!   mode a job ran in, from when to when) out of a recorded stream.
//!
//! Events deliberately use only `cmpqos-types` vocabulary plus the local
//! [`Mode`]/[`RejectCause`] mirrors, so every layer of the stack (cache,
//! system, core) can emit them without dependency cycles.

mod event;
mod recorder;
mod timeline;

pub use event::{Event, EventKind, FaultKind, Health, Knob, Mode, Record, RejectCause};
pub use recorder::{
    merge_shards, Counters, JsonlRecorder, NullRecorder, Recorder, RingBufferRecorder,
    ShardRecorder,
};
pub use timeline::{Band, JobTimeline, Timeline};
