//! Write-ahead journaling for the Global Admission Controller.

use crate::journal::Journal;
use crate::RecoveryReport;
use cmpqos_core::gac::FaultReport;
use cmpqos_core::{
    AdmissionRequest, Decision, ExecutionMode, GacState, GlobalAdmissionController, LacConfig,
    ProbePolicy, ResourceRequest,
};
use cmpqos_faults::Injection;
use cmpqos_obs::{NullRecorder, Recorder};
use cmpqos_types::{Cycles, JobId, NodeId};
use serde::{Deserialize, Serialize};

/// One journaled GAC operation: one input of the in-process driver.
/// Exhaustive over everything that mutates a [`GlobalAdmissionController`],
/// so *snapshot + replay* reconstructs the core state machine and every
/// node's reservation table exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GacOp {
    /// A compaction snapshot: the complete controller state at this point.
    Snapshot(Box<GacState>),
    /// [`JournaledGac::submit`]: the request it stands for.
    Submit(AdmissionRequest),
    /// [`GlobalAdmissionController::advance`].
    Advance {
        /// The new clock value.
        now: Cycles,
    },
    /// [`GlobalAdmissionController::complete`].
    Complete {
        /// The completing job.
        id: JobId,
        /// When it completed.
        at: Cycles,
    },
    /// [`GlobalAdmissionController::inject`].
    Inject(Injection),
    /// [`GlobalAdmissionController::heartbeat_all`]. Journaled so replay
    /// renews leases on exactly the cycles the original did — otherwise a
    /// recovered controller would spuriously expire every lease.
    Heartbeat {
        /// The heartbeat timestamp.
        at: Cycles,
    },
}

/// A [`GlobalAdmissionController`] whose every state-changing operation is
/// appended to a write-ahead [`Journal`] *before* the in-core tables
/// mutate — the crash-consistent controller the chaos harness rebuilds
/// under `--crash-at`.
///
/// Replay is silent (a [`NullRecorder`]): the controllers' behavior never
/// depends on the recorder, so a recovered controller's subsequent
/// decisions are byte-identical to the uncrashed original's without
/// re-emitting the pre-crash event stream.
#[derive(Debug, PartialEq)]
pub struct JournaledGac {
    gac: GlobalAdmissionController,
    journal: Journal<GacOp>,
    compact_every: u64,
    ops_since_snapshot: u64,
}

impl JournaledGac {
    /// Wraps `gac`, seeding the journal with a snapshot of its current
    /// state. `compact_every` (clamped to ≥ 1) is the number of operations
    /// between compactions.
    #[must_use]
    pub fn new(gac: GlobalAdmissionController, compact_every: u64) -> Self {
        let mut journal = Journal::new();
        let _ = journal.append(GacOp::Snapshot(Box::new(gac.snapshot())));
        Self {
            gac,
            journal,
            compact_every: compact_every.max(1),
            ops_since_snapshot: 0,
        }
    }

    /// The wrapped controller.
    #[must_use]
    pub fn gac(&self) -> &GlobalAdmissionController {
        &self.gac
    }

    /// The write-ahead journal.
    #[must_use]
    pub fn journal(&self) -> &Journal<GacOp> {
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
    /// it with a silent recorder. A torn or corrupted tail is truncated
    /// (never a panic); the dropped-line count is reported. When no valid
    /// snapshot survives at all, recovery falls back to a one-node
    /// default-configured server.
    #[must_use = "dropping the report hides how much journaled state was lost"]
    pub fn recover(jsonl: &str, compact_every: u64) -> (Self, RecoveryReport) {
        let (journal, tail) = Journal::<GacOp>::from_jsonl(jsonl);
        let snapshot_at = journal
            .records()
            .iter()
            .rposition(|r| matches!(r.op, GacOp::Snapshot(_)));
        let mut gac = match snapshot_at {
            Some(i) => match &journal.records()[i].op {
                GacOp::Snapshot(state) => GlobalAdmissionController::restore((**state).clone()),
                _ => unreachable!("rposition matched a snapshot"),
            },
            None => GlobalAdmissionController::new(1, LacConfig::default(), ProbePolicy::FirstFit),
        };
        let replay_from = snapshot_at.map_or(0, |i| i + 1);
        let mut replayed = 0u64;
        for record in &journal.records()[replay_from..] {
            Self::apply(&mut gac, &record.op);
            replayed += 1;
        }
        (
            Self {
                gac,
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

    /// Replays one operation silently. Decisions, completion lists, and
    /// fault reports are discarded: they were already acted on before the
    /// crash, and the replay's only job is to drive the controller into
    /// the identical state.
    fn apply(gac: &mut GlobalAdmissionController, op: &GacOp) {
        match op {
            GacOp::Snapshot(state) => *gac = GlobalAdmissionController::restore((**state).clone()),
            GacOp::Submit(req) => {
                let _ = gac.submit_request(req, &mut NullRecorder);
            }
            GacOp::Advance { now } => {
                let _ = gac.advance(*now, &mut NullRecorder);
            }
            GacOp::Complete { id, at } => gac.complete(*id, *at),
            GacOp::Inject(injection) => {
                let _ = gac.inject(*injection, &mut NullRecorder);
            }
            GacOp::Heartbeat { at } => gac.heartbeat_all(*at, &mut NullRecorder),
        }
    }

    /// Appends `op` (write-ahead: the journal sees it before the tables).
    fn log(&mut self, op: GacOp) {
        let _ = self.journal.append(op);
        self.ops_since_snapshot += 1;
    }

    /// Compacts after a mutation once enough operations accumulated, so
    /// the snapshot reflects the post-op state.
    fn maybe_compact(&mut self) {
        if self.ops_since_snapshot >= self.compact_every {
            self.journal
                .compact(GacOp::Snapshot(Box::new(self.gac.snapshot())));
            self.ops_since_snapshot = 0;
        }
    }

    /// Journaled [`GlobalAdmissionController::submit_request`] of the
    /// request `(id, mode, request, tw, deadline)` describes.
    #[must_use = "dropping the decision loses whether (and where) the job was placed"]
    pub fn submit(
        &mut self,
        id: JobId,
        mode: ExecutionMode,
        request: ResourceRequest,
        tw: Cycles,
        deadline: Option<Cycles>,
    ) -> (Option<NodeId>, Decision) {
        self.submit_recorded(id, mode, request, tw, deadline, &mut NullRecorder)
    }

    /// [`JournaledGac::submit`], emitting the probe history to `recorder`.
    /// The recorder only emits events — it never influences the decision —
    /// so the journaled op is the same as for the unrecorded call and
    /// replay uses the silent path.
    #[must_use = "dropping the decision loses whether (and where) the job was placed"]
    pub fn submit_recorded(
        &mut self,
        id: JobId,
        mode: ExecutionMode,
        request: ResourceRequest,
        tw: Cycles,
        deadline: Option<Cycles>,
        recorder: &mut dyn Recorder,
    ) -> (Option<NodeId>, Decision) {
        let mut req = AdmissionRequest::builder(id, request, tw).mode(mode);
        if let Some(td) = deadline {
            req = req.deadline(td);
        }
        let req = req.build();
        self.log(GacOp::Submit(req));
        let outcome = self.gac.submit_request(&req, recorder);
        self.maybe_compact();
        outcome
    }

    /// Journaled [`GlobalAdmissionController::advance`], silent: what
    /// the core's timers did to the placements is neither emitted nor
    /// returned. [`JournaledGac::advance_recorded`] accounts for it.
    pub fn advance(&mut self, now: Cycles) -> Vec<(JobId, NodeId)> {
        self.advance_recorded(now, &mut NullRecorder).0
    }

    /// Journaled [`GlobalAdmissionController::advance`]: the completions,
    /// and the migrations and revocations the core's timers caused, which
    /// also go to `recorder`.
    pub fn advance_recorded(
        &mut self,
        now: Cycles,
        recorder: &mut dyn Recorder,
    ) -> (Vec<(JobId, NodeId)>, FaultReport) {
        self.log(GacOp::Advance { now });
        let outcome = self.gac.advance(now, recorder);
        self.maybe_compact();
        outcome
    }

    /// Journaled [`GlobalAdmissionController::complete`].
    pub fn complete(&mut self, id: JobId, at: Cycles) {
        self.log(GacOp::Complete { id, at });
        self.gac.complete(id, at);
        self.maybe_compact();
    }

    /// Journaled [`GlobalAdmissionController::heartbeat_all`].
    pub fn heartbeat_all(&mut self, at: Cycles, recorder: &mut dyn Recorder) {
        self.log(GacOp::Heartbeat { at });
        self.gac.heartbeat_all(at, recorder);
        self.maybe_compact();
    }

    /// Journaled [`GlobalAdmissionController::inject`].
    pub fn inject(&mut self, injection: Injection, recorder: &mut dyn Recorder) -> FaultReport {
        self.log(GacOp::Inject(injection));
        let report = self.gac.inject(injection, recorder);
        self.maybe_compact();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_faults::FaultPlan;

    fn busy_gac() -> JournaledGac {
        let gac = GlobalAdmissionController::new(3, LacConfig::default(), ProbePolicy::FirstFit);
        let mut j = JournaledGac::new(gac, 64);
        for i in 0..12u32 {
            let _ = j.submit(
                JobId::new(i),
                ExecutionMode::Strict,
                ResourceRequest::paper_job(),
                Cycles::new(100),
                Some(Cycles::new(2_000)),
            );
        }
        let mut schedule = FaultPlan::new()
            .way_fault(Cycles::new(10), NodeId::new(0), 1)
            .node_fault(Cycles::new(20), NodeId::new(1))
            .probe_loss(Cycles::new(30), NodeId::new(2), 1)
            .build();
        for injection in schedule.due(Cycles::new(40)) {
            let _ = j.inject(injection, &mut NullRecorder);
        }
        j.complete(JobId::new(0), Cycles::new(50));
        let _ = j.advance(Cycles::new(60));
        j
    }

    #[test]
    fn recovery_rebuilds_the_exact_controller() {
        let original = busy_gac();
        let (recovered, report) = JournaledGac::recover(&original.to_jsonl(), 64);
        assert_eq!(recovered.gac(), original.gac());
        assert_eq!(report.lost, 0);
        assert!(report.replayed > 0);
    }

    #[test]
    fn recovered_controller_makes_identical_subsequent_decisions() {
        let mut original = busy_gac();
        let (mut recovered, _) = JournaledGac::recover(&original.to_jsonl(), 64);
        for i in 100..110u32 {
            assert_eq!(
                recovered.submit(
                    JobId::new(i),
                    ExecutionMode::Strict,
                    ResourceRequest::paper_job(),
                    Cycles::new(80),
                    Some(Cycles::new(5_000)),
                ),
                original.submit(
                    JobId::new(i),
                    ExecutionMode::Strict,
                    ResourceRequest::paper_job(),
                    Cycles::new(80),
                    Some(Cycles::new(5_000)),
                ),
                "decision diverged at job {i}"
            );
        }
        assert_eq!(recovered.gac(), original.gac());
    }

    #[test]
    fn a_corrupted_tail_is_truncated_not_fatal() {
        let original = busy_gac();
        let mut bytes = original.to_jsonl().into_bytes();
        let n = bytes.len();
        bytes[n - 20] ^= 0x55;
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();
        let (recovered, report) = JournaledGac::recover(&corrupt, 64);
        assert!(report.lost >= 1);
        assert!(recovered.journal().len() < original.journal().len());
    }

    #[test]
    fn recovery_carries_membership_and_leases_through_churn() {
        use cmpqos_core::{GacConfig, MemberState, NetGacConfig};
        let gac = GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit)
            .with_config(NetGacConfig {
                gac: GacConfig {
                    dead_timeout: Cycles::new(10_000),
                    ..GacConfig::default()
                },
                lease_ttl: Cycles::new(5_000),
                ..NetGacConfig::default()
            });
        let mut j = JournaledGac::new(gac, 64);
        for i in 0..4u32 {
            let _ = j.submit(
                JobId::new(i),
                ExecutionMode::Strict,
                ResourceRequest::paper_job(),
                Cycles::new(100_000),
                None,
            );
        }
        // A full churn cycle, every op journaled: join, heartbeat, drain,
        // restart, freeze.
        let mut schedule = FaultPlan::new()
            .node_join(Cycles::new(100), NodeId::new(2))
            .node_drain(Cycles::new(200), NodeId::new(0))
            .node_restart(Cycles::new(300), NodeId::new(1))
            .lease_freeze(Cycles::new(400), NodeId::new(2))
            .build();
        for injection in schedule.due(Cycles::new(500)) {
            let _ = j.inject(injection, &mut NullRecorder);
        }
        j.heartbeat_all(Cycles::new(600), &mut NullRecorder);
        let _ = j.advance(Cycles::new(700));
        assert_eq!(j.gac().member_state(NodeId::new(0)), MemberState::Left);
        assert!(!j.gac().leases().is_empty());
        let (recovered, report) = JournaledGac::recover(&j.to_jsonl(), 64);
        assert_eq!(report.lost, 0);
        assert_eq!(recovered.gac(), j.gac());
        assert_eq!(
            recovered.gac().member_state(NodeId::new(0)),
            MemberState::Left
        );
        assert_eq!(recovered.gac().leases(), j.gac().leases());
    }

    #[test]
    fn compaction_bounds_the_journal() {
        let gac = GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        let mut j = JournaledGac::new(gac, 8);
        for i in 0..500u64 {
            let _ = j.advance(Cycles::new(i));
        }
        assert!(
            j.journal().len() <= 9,
            "journal grew to {} records",
            j.journal().len()
        );
        let (recovered, _) = JournaledGac::recover(&j.to_jsonl(), 8);
        assert_eq!(recovered.gac(), j.gac());
    }
}
