//! # Production-traffic scenarios
//!
//! A seeded, deterministic traffic DSL for load-testing the admission
//! stack: arrival processes (steady Poisson, diurnal rate curves,
//! bursty flash crowds) composed with heavy-tailed job-size mixtures and
//! multi-tenant priority tiers, driven through the full
//! `AdmissionIntake` → `Lac` stack, with exact per-tier
//! p50/p95/p99/p999 admission-latency, deadline-hit-rate, shed-breakdown
//! and goodput reporting.
//!
//! Three entry points:
//!
//! - **Builder API** — [`ScenarioSpec`] / [`TierSpec`] fluent
//!   constructors (see `docs/workloads.md` for the grammar).
//! - **TOML loader** — [`parse_toml`] / [`emit_toml`], a dependency-free
//!   subset parser with a *canonical* emitter: `emit ∘ parse` is
//!   idempotent, which CI checks byte-for-byte.
//! - **Seed derivation** — [`ScenarioSpec::seeded`] derives an entire
//!   arrival/tenant topology from one `u64`, the repro contract behind
//!   the `traffic` explorer kind.
//!
//! ## Determinism rules
//!
//! Every quantity is integer: arrival gaps come from a Q32 fixed-point
//! exponential sampler ([`streams::neg_ln_q32`] — integer shifts and
//! multiplies only, no floating point), so the same seed yields the byte-identical
//! timeline on every platform and at any engine `--jobs` width. The
//! legacy `cmpqos_workloads::arrivals::ArrivalStream` keeps its `f64`
//! accumulator for the paper figures (its sequence is pinned by a golden
//! test); all *new* traffic goes through this crate's integer streams.
//!
//! ## Percentile methodology
//!
//! Exact nearest-rank over the full latency multiset — no sketches, no
//! interpolation: [`PercentileReporter`] keeps every sample in one flat
//! buffer and answers per-mille quantiles (`p50` = 500‰, `p999` = 999‰)
//! as `value at rank ⌈q·n/1000⌉`, selected from a scratch copy with
//! `select_nth_unstable`. A sort-based oracle
//! ([`percentile::quantile_sorted`]) must match bit-for-bit
//! (`tests/traffic_properties.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod percentile;
pub mod run;
pub mod spec;
pub mod streams;
pub mod toml;

pub use percentile::{quantile_sorted, LatencySummary, PercentileReporter};
pub use run::{replay, run, scale_timeline, timeline, Arrival, TierReport, TrafficReport};
pub use spec::{ModeMix, ScenarioSpec, TierSpec};
pub use streams::{neg_ln_q32, ArrivalShape, SizeDist, TrafficStream};
pub use toml::{emit_toml, parse_toml};
