//! Write-ahead journaling for the Global Admission Controller.

use crate::journal::{Journaled, Replay};
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
}

/// A [`GlobalAdmissionController`] whose every state-changing operation is
/// appended to a write-ahead journal *before* the in-core tables mutate —
/// the crash-consistent controller the chaos harness rebuilds under
/// `--crash-at`.
pub type JournaledGac = Journaled<GlobalAdmissionController>;

impl Replay for GlobalAdmissionController {
    type Op = GacOp;

    fn snapshot_op(&self) -> GacOp {
        GacOp::Snapshot(Box::new(self.snapshot()))
    }

    fn from_snapshot(op: &GacOp) -> Option<Self> {
        match op {
            GacOp::Snapshot(state) => Some(Self::restore((**state).clone())),
            _ => None,
        }
    }

    /// A one-node default-configured server.
    fn empty() -> Self {
        Self::new(1, LacConfig::default(), ProbePolicy::FirstFit)
    }

    fn replay(&mut self, op: &GacOp) {
        match op {
            GacOp::Snapshot(state) => *self = Self::restore((**state).clone()),
            GacOp::Submit(req) => {
                let _ = self.submit_request(req, &mut NullRecorder);
            }
            GacOp::Advance { now } => {
                let _ = self.advance(*now, &mut NullRecorder);
            }
            GacOp::Complete { id, at } => self.complete(*id, *at),
            GacOp::Inject(injection) => {
                let _ = self.inject(*injection, &mut NullRecorder);
            }
        }
    }
}

impl Journaled<GlobalAdmissionController> {
    /// The wrapped controller.
    #[must_use]
    pub fn gac(&self) -> &GlobalAdmissionController {
        self.inner()
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
    /// so the journaled op is the same as for the unrecorded call.
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
        let mut req = AdmissionRequest::builder(id, request, tw)
            .mode(mode)
            .build();
        req.deadline = deadline;
        self.write_ahead([GacOp::Submit(req)], |gac| {
            gac.submit_request(&req, recorder)
        })
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
        self.write_ahead([GacOp::Advance { now }], |gac| gac.advance(now, recorder))
    }

    /// Journaled [`GlobalAdmissionController::complete`].
    pub fn complete(&mut self, id: JobId, at: Cycles) {
        self.write_ahead([GacOp::Complete { id, at }], |gac| gac.complete(id, at));
    }

    /// Journaled [`GlobalAdmissionController::inject`].
    pub fn inject(&mut self, injection: Injection, recorder: &mut dyn Recorder) -> FaultReport {
        self.write_ahead([GacOp::Inject(injection)], |gac| {
            gac.inject(injection, recorder)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a64;
    use cmpqos_faults::{Fault, FaultPlan};
    use cmpqos_types::Percent;

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
    fn recovery_carries_membership_through_churn() {
        use cmpqos_core::MemberState;
        let gac = GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
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
        // A full churn cycle, every op journaled: join, drain, restart,
        // freeze.
        let mut schedule = FaultPlan::new()
            .node_join(Cycles::new(100), NodeId::new(2))
            .node_drain(Cycles::new(200), NodeId::new(0))
            .node_restart(Cycles::new(300), NodeId::new(1))
            .lease_freeze(Cycles::new(400), NodeId::new(2))
            .build();
        for injection in schedule.due(Cycles::new(500)) {
            let _ = j.inject(injection, &mut NullRecorder);
        }
        let _ = j.advance(Cycles::new(700));
        assert_eq!(j.gac().member_state(NodeId::new(0)), MemberState::Left);
        let (recovered, report) = JournaledGac::recover(&j.to_jsonl(), 64);
        assert_eq!(report.lost, 0);
        assert_eq!(recovered.gac(), j.gac());
        assert_eq!(
            recovered.gac().member_state(NodeId::new(0)),
            MemberState::Left
        );
    }

    /// A scripted failover run in `chaos::run`'s shape: 16 nodes under
    /// `LeastLoaded`, Strict and Elastic(50%) arrivals staggered across
    /// half the horizon, a way fault, a node fault and a controller crash
    /// recovered from the journal, compacting every 16 ops. The journal
    /// as written after every op is folded into one digest, so the
    /// writer's bytes are pinned through compactions, faults and the
    /// crash. After every op the written journal also recovers the live
    /// controller.
    #[test]
    fn the_written_gac_journal_is_pinned_through_a_failover_run() {
        const NODES: u32 = 16;
        const JOBS: u32 = 40;
        const COMPACT: u64 = 16;
        let horizon = 600_000u64;
        let tw = Cycles::new(horizon / 6);
        let stagger = horizon / (2 * u64::from(JOBS));
        let step = horizon / 128;
        let mut j = JournaledGac::new(
            GlobalAdmissionController::new(
                NODES as usize,
                LacConfig::default(),
                ProbePolicy::LeastLoaded,
            ),
            COMPACT,
        );
        let mut schedule = FaultPlan::new()
            .way_fault(Cycles::new(120_000), NodeId::new(3), 2)
            .node_fault(Cycles::new(240_000), NodeId::new(NODES - 1))
            .controller_crash(Cycles::new(300_000), NodeId::new(0))
            .build();
        let mut samples: Vec<u64> = Vec::new();
        let mut sample = |j: &JournaledGac| {
            let text = j.to_jsonl();
            let (recovered, report) = JournaledGac::recover(&text, COMPACT);
            assert_eq!(report.lost, 0);
            assert_eq!(recovered.gac(), j.gac(), "sample {}", samples.len());
            samples.push(fnv1a64(text.as_bytes()));
        };
        let mut next_job = 0u32;
        let mut t = 0u64;
        while t <= 2 * horizon {
            for injection in schedule.due(Cycles::new(t)) {
                let _ = j.inject(injection, &mut NullRecorder);
                sample(&j);
                if matches!(injection.fault, Fault::ControllerCrash { .. }) {
                    j = JournaledGac::recover(&j.to_jsonl(), COMPACT).0;
                }
            }
            let _ = j.advance(Cycles::new(t));
            sample(&j);
            while next_job < JOBS && u64::from(next_job) * stagger <= t {
                let at = Cycles::new(u64::from(next_job) * stagger);
                let mode = if next_job.is_multiple_of(2) {
                    ExecutionMode::Strict
                } else {
                    ExecutionMode::Elastic(Percent::new(50.0))
                };
                let request = ResourceRequest::paper_job();
                let _ = j.submit(
                    JobId::new(next_job),
                    mode,
                    request,
                    tw,
                    Some(at + tw + tw + tw),
                );
                sample(&j);
                next_job += 1;
            }
            t += step;
        }
        assert!(
            j.journal().next_seq() > 3 * COMPACT,
            "fewer than three compactions"
        );
        assert!(j.gac().placements().is_empty());
        assert_eq!(j.gac().live_nodes(), NODES as usize - 1);
        let bytes: Vec<u8> = samples.iter().flat_map(|h| h.to_le_bytes()).collect();
        let digest = fnv1a64(&bytes);
        assert_eq!(
            digest,
            0xaf3d_03a3_08bc_8b51,
            "{} samples: {digest:#x}",
            samples.len()
        );
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
