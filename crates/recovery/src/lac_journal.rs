//! Write-ahead journaling for the Local Admission Controller.

use crate::journal::{Journaled, Replay};
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
/// write-ahead journal *before* the in-core tables mutate.
pub type JournaledLac = Journaled<Lac>;

impl Replay for Lac {
    type Op = LacOp;

    fn snapshot_op(&self) -> LacOp {
        LacOp::Snapshot(self.snapshot())
    }

    fn from_snapshot(op: &LacOp) -> Option<Self> {
        match op {
            LacOp::Snapshot(state) => Some(Lac::restore(state.clone())),
            _ => None,
        }
    }

    /// An empty default-configured controller.
    fn empty() -> Self {
        Lac::new(LacConfig::default())
    }

    fn replay(&mut self, op: &LacOp) {
        match op {
            LacOp::Snapshot(state) => *self = Lac::restore(state.clone()),
            LacOp::Admit {
                id,
                mode,
                request,
                tw,
                deadline,
            } => {
                let mut req = AdmissionRequest::builder(*id, *request, *tw)
                    .mode(*mode)
                    .build();
                req.deadline = *deadline;
                let _ = self.admit(&req);
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
                let _ = self.admit(&req);
            }
            LacOp::Readmit(r) => {
                let _ = self.readmit(r);
            }
            LacOp::Advance { now } => self.advance(*now),
            LacOp::Release { id, at } => self.release(*id, *at),
            LacOp::Cancel { id } => self.cancel(*id),
            LacOp::RevokeCapacity { new_capacity, now } => {
                let _ = self.revoke_capacity(*new_capacity, *now);
            }
        }
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

impl Journaled<Lac> {
    /// The wrapped controller.
    #[must_use]
    pub fn lac(&self) -> &Lac {
        self.inner()
    }

    /// Journaled [`Lac::admit`].
    pub fn admit(&mut self, req: &AdmissionRequest) -> Decision {
        self.write_ahead([op_for(req)], |lac| lac.admit(req))
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
        self.write_ahead(reqs.iter().map(op_for), |lac| {
            lac.admit_batch(reqs, recorder)
        })
    }

    /// Journaled [`Lac::readmit`].
    pub fn readmit(&mut self, r: &Reservation) -> Decision {
        self.write_ahead([LacOp::Readmit(*r)], |lac| lac.readmit(r))
    }

    /// Journaled [`Lac::advance`].
    pub fn advance(&mut self, now: Cycles) {
        self.write_ahead([LacOp::Advance { now }], |lac| lac.advance(now));
    }

    /// Journaled [`Lac::release`].
    pub fn release(&mut self, id: JobId, at: Cycles) {
        self.write_ahead([LacOp::Release { id, at }], |lac| lac.release(id, at));
    }

    /// Journaled [`Lac::cancel`].
    pub fn cancel(&mut self, id: JobId) {
        self.write_ahead([LacOp::Cancel { id }], |lac| lac.cancel(id));
    }

    /// Journaled [`Lac::revoke_capacity`].
    pub fn revoke_capacity(
        &mut self,
        new_capacity: ResourceRequest,
        now: Cycles,
    ) -> Vec<Revocation> {
        self.write_ahead([LacOp::RevokeCapacity { new_capacity, now }], |lac| {
            lac.revoke_capacity(new_capacity, now)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecoveryReport;

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
