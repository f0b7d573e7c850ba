//! Write-ahead journaling for the Local Admission Controller.

use crate::journal::Journal;
use crate::RecoveryReport;
use cmpqos_core::{
    AdmissionRequest, Decision, ExecutionMode, Lac, LacConfig, LacState, Placement, Reservation,
    ResourceRequest, Revocation,
};
use cmpqos_types::{Cycles, JobId};
use serde::{Deserialize, Serialize};

/// One journaled LAC operation. The set is exhaustive over everything that
/// mutates a [`Lac`], so *snapshot + replay* reconstructs the exact state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LacOp {
    /// A compaction snapshot: the complete controller state at this point.
    Snapshot(LacState),
    /// [`Lac::admit`] with earliest-feasible placement.
    Admit {
        /// The submitted job.
        id: JobId,
        /// Its execution mode.
        mode: ExecutionMode,
        /// Its resource-request vector.
        request: ResourceRequest,
        /// Its time window.
        tw: Cycles,
        /// Its deadline, when given.
        deadline: Option<Cycles>,
    },
    /// [`Lac::admit`] with latest-feasible placement.
    AdmitLatest {
        /// The downgraded job.
        id: JobId,
        /// Its resource-request vector.
        request: ResourceRequest,
        /// Its time window.
        tw: Cycles,
        /// Its deadline.
        deadline: Cycles,
    },
    /// [`Lac::readmit`] of a migrated reservation.
    Readmit(Reservation),
    /// [`Lac::advance`].
    Advance {
        /// The new clock value.
        now: Cycles,
    },
    /// [`Lac::release`].
    Release {
        /// The completing job.
        id: JobId,
        /// When it completed.
        at: Cycles,
    },
    /// [`Lac::cancel`].
    Cancel {
        /// The cancelled job.
        id: JobId,
    },
    /// [`Lac::revoke_capacity`].
    RevokeCapacity {
        /// The shrunken capacity.
        new_capacity: ResourceRequest,
        /// When the fault hit.
        now: Cycles,
    },
}

/// A [`Lac`] whose every state-changing operation is appended to a
/// write-ahead [`Journal`] *before* the in-core tables mutate.
///
/// The journal starts with a snapshot record and is compacted back down to
/// one snapshot every `compact_every` operations, so its length is bounded
/// by `compact_every + 1` records regardless of run length.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledLac {
    lac: Lac,
    journal: Journal<LacOp>,
    compact_every: u64,
    ops_since_snapshot: u64,
}

impl JournaledLac {
    /// Wraps `lac`, seeding the journal with a snapshot of its current
    /// state. `compact_every` (clamped to ≥ 1) is the number of operations
    /// between compactions.
    #[must_use]
    pub fn new(lac: Lac, compact_every: u64) -> Self {
        let mut journal = Journal::new();
        let _ = journal.append(LacOp::Snapshot(lac.snapshot()));
        Self {
            lac,
            journal,
            compact_every: compact_every.max(1),
            ops_since_snapshot: 0,
        }
    }

    /// The wrapped controller.
    #[must_use]
    pub fn lac(&self) -> &Lac {
        &self.lac
    }

    /// The write-ahead journal.
    #[must_use]
    pub fn journal(&self) -> &Journal<LacOp> {
        &self.journal
    }

    /// Serializes the journal as JSONL — the only thing that needs to
    /// survive a crash.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.journal.to_jsonl()
    }

    /// Rebuilds a controller from a serialized journal: restore the latest
    /// valid snapshot, then deterministically replay every operation after
    /// it. A torn or corrupted tail is truncated (never a panic); the
    /// dropped-line count is reported. When no valid snapshot survives at
    /// all, recovery falls back to an empty default-configured controller.
    #[must_use = "dropping the report hides how much journaled state was lost"]
    pub fn recover(jsonl: &str, compact_every: u64) -> (Self, RecoveryReport) {
        let (journal, tail) = Journal::<LacOp>::from_jsonl(jsonl);
        let snapshot_at = journal
            .records()
            .iter()
            .rposition(|r| matches!(r.op, LacOp::Snapshot(_)));
        let mut lac = match snapshot_at {
            Some(i) => match &journal.records()[i].op {
                LacOp::Snapshot(state) => Lac::restore(state.clone()),
                _ => unreachable!("rposition matched a snapshot"),
            },
            None => Lac::new(LacConfig::default()),
        };
        let replay_from = snapshot_at.map_or(0, |i| i + 1);
        let mut replayed = 0u64;
        for record in &journal.records()[replay_from..] {
            Self::apply(&mut lac, &record.op);
            replayed += 1;
        }
        (
            Self {
                lac,
                journal,
                compact_every: compact_every.max(1),
                ops_since_snapshot: replayed,
            },
            RecoveryReport {
                replayed,
                lost: tail.lost,
            },
        )
    }

    /// Replays one operation. Decisions and revocation lists are discarded:
    /// they were already acted on before the crash, and the replay's only
    /// job is to drive the controller into the identical state.
    fn apply(lac: &mut Lac, op: &LacOp) {
        match op {
            LacOp::Snapshot(state) => *lac = Lac::restore(state.clone()),
            LacOp::Admit {
                id,
                mode,
                request,
                tw,
                deadline,
            } => {
                let mut b = AdmissionRequest::builder(*id, *request, *tw).mode(*mode);
                if let Some(td) = deadline {
                    b = b.deadline(*td);
                }
                let _ = lac.admit(&b.build());
            }
            LacOp::AdmitLatest {
                id,
                request,
                tw,
                deadline,
            } => {
                let req = AdmissionRequest::builder(*id, *request, *tw)
                    .deadline(*deadline)
                    .latest_feasible()
                    .build();
                let _ = lac.admit(&req);
            }
            LacOp::Readmit(r) => {
                let _ = lac.readmit(r);
            }
            LacOp::Advance { now } => lac.advance(*now),
            LacOp::Release { id, at } => lac.release(*id, *at),
            LacOp::Cancel { id } => lac.cancel(*id),
            LacOp::RevokeCapacity { new_capacity, now } => {
                let _ = lac.revoke_capacity(*new_capacity, *now);
            }
        }
    }

    /// Appends `op` (write-ahead: the journal sees it before the tables).
    fn log(&mut self, op: LacOp) {
        let _ = self.journal.append(op);
        self.ops_since_snapshot += 1;
    }

    /// Compacts after a mutation once enough operations accumulated, so
    /// the snapshot reflects the post-op state.
    fn maybe_compact(&mut self) {
        if self.ops_since_snapshot >= self.compact_every {
            self.journal.compact(LacOp::Snapshot(self.lac.snapshot()));
            self.ops_since_snapshot = 0;
        }
    }

    /// The journal record for one typed request: latest-feasible requests
    /// with a deadline map to [`LacOp::AdmitLatest`], everything else to
    /// [`LacOp::Admit`] — the wire format predates the typed API and is
    /// frozen.
    fn op_for(req: &AdmissionRequest) -> LacOp {
        match (req.placement, req.deadline) {
            (Placement::LatestFeasible, Some(td)) => LacOp::AdmitLatest {
                id: req.id,
                request: req.request,
                tw: req.tw,
                deadline: td,
            },
            _ => LacOp::Admit {
                id: req.id,
                mode: req.mode,
                request: req.request,
                tw: req.tw,
                deadline: req.deadline,
            },
        }
    }

    /// Journaled [`Lac::admit`].
    pub fn admit(&mut self, req: &AdmissionRequest) -> Decision {
        self.log(Self::op_for(req));
        let decision = self.lac.admit(req);
        self.maybe_compact();
        decision
    }

    /// Journaled [`Lac::admit_with`]. The recorder only emits events — it
    /// never influences state — so the journaled op is the same as for the
    /// unrecorded call and replay uses the silent path.
    pub fn admit_with(
        &mut self,
        req: &AdmissionRequest,
        recorder: &mut dyn cmpqos_obs::Recorder,
    ) -> Decision {
        self.log(Self::op_for(req));
        let decision = self.lac.admit_with(req, recorder);
        self.maybe_compact();
        decision
    }

    /// Journaled [`Lac::admit_batch`]: every op of the run is appended
    /// write-ahead before the first admission mutates the tables, then the
    /// whole run admits as one batch with a single compaction check at the
    /// end. Decisions are bit-identical to journaling one request at a
    /// time; replay reconstructs the same state either way.
    #[must_use = "each decision carries a job's fate; dropping them loses the batch"]
    pub fn admit_batch(
        &mut self,
        reqs: &[AdmissionRequest],
        recorder: &mut dyn cmpqos_obs::Recorder,
    ) -> Vec<Decision> {
        for req in reqs {
            self.log(Self::op_for(req));
        }
        let decisions = self.lac.admit_batch(reqs, recorder);
        self.maybe_compact();
        decisions
    }

    /// Journaled [`Lac::readmit`].
    pub fn readmit(&mut self, r: &Reservation) -> Decision {
        self.log(LacOp::Readmit(*r));
        let decision = self.lac.readmit(r);
        self.maybe_compact();
        decision
    }

    /// Journaled [`Lac::advance`].
    pub fn advance(&mut self, now: Cycles) {
        self.log(LacOp::Advance { now });
        self.lac.advance(now);
        self.maybe_compact();
    }

    /// Journaled [`Lac::release`].
    pub fn release(&mut self, id: JobId, at: Cycles) {
        self.log(LacOp::Release { id, at });
        self.lac.release(id, at);
        self.maybe_compact();
    }

    /// Journaled [`Lac::cancel`].
    pub fn cancel(&mut self, id: JobId) {
        self.log(LacOp::Cancel { id });
        self.lac.cancel(id);
        self.maybe_compact();
    }

    /// Journaled [`Lac::revoke_capacity`].
    pub fn revoke_capacity(
        &mut self,
        new_capacity: ResourceRequest,
        now: Cycles,
    ) -> Vec<Revocation> {
        self.log(LacOp::RevokeCapacity { new_capacity, now });
        let revocations = self.lac.revoke_capacity(new_capacity, now);
        self.maybe_compact();
        revocations
    }
}

/// A journaled LAC can sit behind a `cmpqos_core::protocol::LacEndpoint`,
/// so the message-layer control plane drives a crash-consistent node: a
/// post-heal reconciliation then diffs the GAC's placement table against a
/// reservation table that survives crash-restarts via the journal.
impl cmpqos_core::LacBackend for JournaledLac {
    fn now(&self) -> Cycles {
        self.lac.now()
    }

    fn advance(&mut self, now: Cycles) {
        JournaledLac::advance(self, now);
    }

    fn admit(&mut self, req: &AdmissionRequest) -> Decision {
        JournaledLac::admit(self, req)
    }

    fn readmit(&mut self, r: &Reservation) -> Decision {
        JournaledLac::readmit(self, r)
    }

    fn cancel(&mut self, id: JobId) {
        JournaledLac::cancel(self, id);
    }

    fn reservations(&self) -> Vec<Reservation> {
        self.lac.reservations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_core::protocol::{LacEndpoint, NetRequest, ReplyBody, RequestBody};
    use cmpqos_obs::NullRecorder;

    #[test]
    fn endpoint_over_a_journaled_lac_reconciles_against_the_recovered_table() {
        // A message-layer endpoint drives the journaled LAC: an orphan is
        // admitted (its accept reply never reached the GAC)...
        let mut ep = LacEndpoint::new(JournaledLac::new(Lac::new(LacConfig::default()), 64));
        let probe = NetRequest {
            seq: 0,
            epoch: 0,
            at: Cycles::new(10),
            body: RequestBody::Probe(
                AdmissionRequest::builder(
                    JobId::new(7),
                    ResourceRequest::paper_job(),
                    Cycles::new(100_000),
                )
                .build(),
            ),
        };
        let replies = ep.handle(probe, &mut NullRecorder);
        assert_eq!(replies.len(), 1);
        // ... then the node crashes; only the journal survives.
        let jsonl = ep.backend().to_jsonl();
        let (recovered, report) = JournaledLac::recover(&jsonl, 64);
        assert!(report.is_lossless());
        // A reconciliation against the *recovered* table still sees the
        // orphan and revokes it.
        let mut ep = LacEndpoint::new(recovered);
        let reconcile = NetRequest {
            seq: 0,
            epoch: 0,
            at: Cycles::new(20),
            body: RequestBody::Reconcile { placed: Vec::new() },
        };
        let replies = ep.handle(reconcile, &mut NullRecorder);
        assert_eq!(replies.len(), 1);
        let ReplyBody::Reconcile {
            ref orphans_revoked,
            ref held,
            ..
        } = replies[0].body
        else {
            panic!("expected a reconcile reply, got {:?}", replies[0].body);
        };
        assert_eq!(orphans_revoked, &[JobId::new(7)]);
        assert!(held.is_empty());
        assert!(ep.backend().lac().reservations().is_empty());
    }

    fn paper_admit(lac: &mut JournaledLac, id: u32, tw: u64, td: u64) -> Decision {
        lac.admit(
            &AdmissionRequest::builder(
                JobId::new(id),
                ResourceRequest::paper_job(),
                Cycles::new(tw),
            )
            .deadline(Cycles::new(td))
            .build(),
        )
    }

    fn busy_lac() -> JournaledLac {
        let mut lac = JournaledLac::new(Lac::new(LacConfig::default()), 64);
        for i in 0..10u32 {
            let _ = paper_admit(&mut lac, i, 100, 2_000);
        }
        lac.advance(Cycles::new(50));
        lac.release(JobId::new(0), Cycles::new(50));
        lac.cancel(JobId::new(1));
        let _ = lac.revoke_capacity(
            ResourceRequest::new(4, cmpqos_types::Ways::new(15)).with_bandwidth(100),
            Cycles::new(60),
        );
        lac
    }

    #[test]
    fn recovery_rebuilds_the_exact_controller() {
        let original = busy_lac();
        let (recovered, report) = JournaledLac::recover(&original.to_jsonl(), 64);
        assert_eq!(recovered.lac(), original.lac());
        assert_eq!(report.lost, 0);
        assert!(report.is_lossless());
    }

    #[test]
    fn recovered_controller_makes_identical_subsequent_decisions() {
        let mut original = busy_lac();
        let (mut recovered, _) = JournaledLac::recover(&original.to_jsonl(), 64);
        for i in 100..110u32 {
            assert_eq!(
                paper_admit(&mut recovered, i, 80, 3_000),
                paper_admit(&mut original, i, 80, 3_000),
                "decision diverged at job {i}"
            );
        }
        assert_eq!(recovered.lac(), original.lac());
    }

    #[test]
    fn a_torn_tail_loses_only_the_tail() {
        let original = busy_lac();
        let jsonl = original.to_jsonl();
        let torn: String = jsonl[..jsonl.len() - 25].to_string();
        let (recovered, report) = JournaledLac::recover(&torn, 64);
        assert_eq!(report.lost, 1);
        // Everything before the torn record is intact.
        assert!(recovered.lac().admission_tests() >= 10);
    }

    #[test]
    fn compaction_bounds_the_journal() {
        let mut lac = JournaledLac::new(Lac::new(LacConfig::default()), 8);
        for i in 0..1_000u32 {
            lac.advance(Cycles::new(u64::from(i)));
        }
        assert!(
            lac.journal().len() <= 9,
            "journal grew to {} records",
            lac.journal().len()
        );
        let (recovered, report) = JournaledLac::recover(&lac.to_jsonl(), 8);
        assert_eq!(recovered.lac(), lac.lac());
        assert!(report.replayed <= 8);
    }

    #[test]
    fn recovering_an_empty_journal_yields_a_default_controller() {
        let (recovered, report) = JournaledLac::recover("", 64);
        assert_eq!(recovered.lac(), &Lac::new(LacConfig::default()));
        assert_eq!(report, RecoveryReport::default());
    }
}
