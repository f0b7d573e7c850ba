//! Differential oracles, metamorphic properties, and the executable
//! conformance suite.
//!
//! The paper's claims are *invariants* — admission never over-commits a
//! timeslot (Section 5), the shadow-tag guard bounds an Elastic(X) donor's
//! slowdown to ≤ X% (Section 4), accepted jobs meet their deadlines — but
//! the production code paths that enforce them are optimized (candidate-set
//! admission search, set-sampled duplicate tags). This crate re-derives
//! each guarantee from first principles and checks the optimized
//! implementation against the naive one:
//!
//! * [`oracle`] — a brute-force admission oracle ([`oracle::OracleLac`])
//!   that re-computes every `Lac` decision by exhaustive per-cycle timeslot
//!   search, plus a mirror of the `AdmissionIntake` overload layer and the
//!   array-of-lines reference L1 ([`oracle::OracleL1`]).
//! * [`shadow`] — a full-coverage (unsampled, independently implemented)
//!   shadow-tag model and a guard harness that replays donor access
//!   streams against the production [`cmpqos_core::StealingController`].
//! * [`cpi`] — a direct additive-CPI evaluator (Luo's model, Section 3.3)
//!   cross-checking the simulator's measured per-job CPI.
//! * [`scenario`] — a seeded scenario generator + shrinker (job mixes
//!   across Strict/Elastic(X)/Opportunistic, capacity-revocation fault
//!   schedules, journal crash points) whose differential explorer diffs
//!   whole `Lac`/`AdmissionIntake`/`QosScheduler` runs against the oracles
//!   and prints a one-line repro command on divergence.
//! * [`netreplay`] — the delivered-message-log replay oracle for the
//!   message-layer control plane: node state must be a pure, idempotent
//!   function of the frames the network actually delivered.
//! * [`metamorphic`] — relations that must hold across *pairs* of runs:
//!   inserting an Opportunistic job never flips a reserving decision,
//!   uniformly scaling durations + deadlines preserves the accept set, and
//!   stealing at X = 0 is byte-identical to stealing disabled.
//! * [`conform`] — the executable conformance suite behind
//!   `cmpqos conform`: every shape verdict of `EXPERIMENTS.md` as a
//!   machine-checked assertion.
//!
//! Case counts scale with the `CMPQOS_TESTKIT_CASES` environment variable
//! (see [`cases`]): small by default so `cargo test -q` stays fast, larger
//! in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conform;
pub mod cpi;
pub mod metamorphic;
pub mod netreplay;
pub mod oracle;
pub mod scenario;
pub mod shadow;

/// Number of generated cases for a testkit property or explorer loop.
///
/// Reads `CMPQOS_TESTKIT_CASES`; falls back to `default` when unset or
/// unparsable, and clamps to at least 1. Tests use small defaults so the
/// suite's wall time stays flat; CI exports a larger count (see
/// `.github/workflows/ci.yml`, `conform-smoke`).
#[must_use]
pub fn cases(default: usize) -> usize {
    std::env::var("CMPQOS_TESTKIT_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(default)
        .max(1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn cases_falls_back_to_default() {
        // The variable is not set under `cargo test` (CI sets it only for
        // the dedicated smoke job); the default must come back unclamped.
        if std::env::var("CMPQOS_TESTKIT_CASES").is_err() {
            assert_eq!(super::cases(24), 24);
        }
        assert!(super::cases(0) >= 1);
    }
}
