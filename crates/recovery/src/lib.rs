//! # Crash-consistent admission state for the CMP QoS framework
//!
//! The paper's admission controllers (Section 5) are user-level programs:
//! a crash of the GAC/LAC process loses the reservation tables, the FCFS
//! order, and the node-health map — and with them every QoS promise the
//! server has made. This crate makes that state crash-consistent with a
//! classic write-ahead journal:
//!
//! * [`Journal`] — an append-only log of schema-versioned records
//!   ([`JournalRecord`]), serialized as JSONL with a checksum on every
//!   line. Appending serializes nothing; each op is rendered and
//!   checksummed once, when the journal is written. Loading tolerates a
//!   torn or bit-flipped tail by truncating at the last valid checksum
//!   ([`TailReport`]) instead of failing.
//! * [`Journaled`] — the one wrapper: it appends every state-changing
//!   operation to the journal *before* mutating the in-core controller,
//!   and periodically compacts the journal down to a single snapshot
//!   record. A controller opts in through [`Replay`]; [`JournaledLac`]
//!   and [`JournaledGac`] are its two instances, snapshotting
//!   [`cmpqos_core::LacState`] and [`cmpqos_core::GacState`]. Callers
//!   drive a `JournaledLac` directly (`cmpqos recover`, the explorer's
//!   `lac` kind); no message-layer endpoint sits in front of one.
//! * Deterministic recovery — [`Journaled::recover`] rebuilds a
//!   controller as *snapshot + op replay*. Because every admission
//!   decision is a pure function of controller state, the recovered
//!   controller's subsequent decisions are byte-identical to the
//!   uncrashed original's (the chaos harness asserts exactly this under
//!   `--crash-at`).
//!
//! ```
//! use cmpqos_core::{AdmissionRequest, Lac, LacConfig, ResourceRequest};
//! use cmpqos_recovery::JournaledLac;
//! use cmpqos_types::{Cycles, JobId};
//!
//! let mut lac = JournaledLac::new(Lac::new(LacConfig::default()), 64);
//! let req = AdmissionRequest::builder(
//!     JobId::new(0),
//!     ResourceRequest::paper_job(),
//!     Cycles::new(100),
//! )
//! .deadline(Cycles::new(1_000))
//! .build();
//! assert!(lac.admit(&req).is_accepted());
//!
//! // Crash: only the serialized journal survives.
//! let surviving = lac.to_jsonl();
//! let (recovered, report) = JournaledLac::recover(&surviving, 64);
//! assert_eq!(recovered.lac(), lac.lac());
//! assert_eq!(report.lost, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gac_journal;
pub mod journal;
pub mod lac_journal;

pub use gac_journal::{GacOp, JournaledGac};
pub use journal::{
    fnv1a64, Journal, JournalRecord, Journaled, Replay, TailReport, JOURNAL_VERSION, MAX_SEQ,
};
pub use lac_journal::{JournaledLac, LacOp};

/// What a [`Journaled::recover`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use = "a recovery report says how much journaled state was lost; dropping it hides data loss"]
pub struct RecoveryReport {
    /// Operations replayed on top of the restored snapshot.
    pub replayed: u64,
    /// Journal lines dropped as torn or corrupted (from [`TailReport`]).
    pub lost: u64,
}

impl RecoveryReport {
    /// Whether recovery reconstructed every journaled operation.
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.lost == 0
    }
}
