//! The typed event model: everything the QoS stack can tell an observer.

use cmpqos_types::{CoreId, Cycles, JobId, NodeId, Percent, Ways};

/// Execution mode as seen by the observability layer.
///
/// Mirrors the scheduler's `ExecutionMode` (the conversion lives in
/// `cmpqos-core`, which depends on this crate — not the other way around,
/// so lower layers like the cache can also emit events).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Mode {
    /// Hard QoS: reserved resources, guaranteed deadline.
    Strict,
    /// Bounded degradation: may donate resources within the slack.
    Elastic(Percent),
    /// Best effort: runs on whatever is left over.
    Opportunistic,
}

/// Why admission control turned a job away.
///
/// Mirrors the LAC's `RejectReason` one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RejectCause {
    /// No reservation window fits before the job's deadline.
    NoCapacityBeforeDeadline,
    /// No spare resources right now (opportunistic admission).
    NoSpareResources,
    /// The request can never fit this node, regardless of schedule.
    ExceedsNodeCapacity,
    /// A fault shrank the supply out from under an already-admitted job,
    /// and no surviving capacity could absorb it.
    CapacityRevoked,
    /// Every node is dead (or unreachable): no LAC could even be probed.
    NoHealthyNodes,
    /// The overload-protection layer shed the request before admission
    /// (intake queue full, rate limit exceeded, or circuit breaker open).
    ShedOverload,
    /// The request's deadline slack could no longer fit any feasible
    /// timeslot, so it was shed without consuming an FCFS admission test.
    ShedInfeasible,
}

/// The kind of an injected fault, as seen by the observability layer.
///
/// Mirrors `cmpqos-faults`' `Fault` (the node is carried by the
/// [`Event::FaultInjected`] event itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FaultKind {
    /// One L2 way died.
    WayFault {
        /// The dead way index.
        way: u16,
    },
    /// One core died.
    CoreFault {
        /// The dead core.
        core: CoreId,
    },
    /// The whole node died.
    NodeFault,
    /// Admission probes go unanswered.
    ProbeLoss {
        /// How many consecutive probes are lost.
        count: u32,
    },
    /// The node's admission controller crashed, losing its in-core
    /// reservation tables (recovered from the write-ahead journal).
    ControllerCrash,
    /// The GAC ↔ node link was severed in both directions: the node is
    /// unreachable but alive (its LAC keeps honoring reservations).
    LinkPartition,
    /// The GAC ↔ node link was restored.
    LinkHeal,
    /// The next `count` control-plane messages on the GAC → node link are
    /// silently lost in transit.
    MessageDrop {
        /// How many consecutive messages are lost.
        count: u32,
    },
    /// A fresh node joined the cluster (membership `Joining → Live` after
    /// the join-announce handshake).
    NodeJoin,
    /// The node restarted: its protocol state (epochs, sequence numbers)
    /// is gone, but its journal-recovered reservation table survives. It
    /// rejoins as `Joining` and must reconcile before re-entering `Live`.
    NodeRestart,
    /// The node was asked to drain gracefully: no new placements, live
    /// reservations migrate off, then membership transitions to `Left`.
    NodeDrain,
    /// Lease renewals to the node are frozen: heartbeats still answer
    /// (the node looks alive) but placed reservations stop being renewed,
    /// so their leases eventually expire.
    LeaseFreeze,
}

/// A node's health as tracked by the global admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Health {
    /// Probes are being answered.
    Healthy,
    /// Recent probes were lost; the node is probed after healthy ones.
    Suspect,
    /// Declared dead: no longer probed, its jobs migrated away.
    Dead,
}

/// A tunable actuator of the adaptive control plane (`cmpqos-adapt`), as
/// identified in [`Event::KnobChanged`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Knob {
    /// An Elastic donor's effective stealing slack, in milli-percent.
    StealSlack {
        /// The donor job.
        job: JobId,
    },
    /// An Elastic donor's repartitioning interval, in instructions.
    StealInterval {
        /// The donor job.
        job: JobId,
    },
    /// A core's DVFS-style speed, in percent of full frequency.
    CoreSpeed {
        /// The throttled core.
        core: CoreId,
    },
}

/// One observable moment in the life of the QoS framework.
///
/// Serialized (externally tagged) this is the JSONL schema that
/// `cmpqos … --events` writes; see `docs/observability.md`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum Event {
    /// Marks the start of an experiment cell, so one JSONL file can hold
    /// several runs (job ids restart per run).
    RunStarted {
        /// Human-readable cell label, e.g. `"fig7/hybrid2"`.
        label: String,
    },
    /// A job arrived at the scheduler.
    Submitted {
        /// The job.
        job: JobId,
        /// The mode it asked for.
        mode: Mode,
    },
    /// The LAC accepted the job.
    Admitted {
        /// The job.
        job: JobId,
        /// Reserved start cycle (equals the admission cycle for
        /// opportunistic jobs).
        start: Cycles,
    },
    /// The LAC turned the job away.
    Rejected {
        /// The job.
        job: JobId,
        /// Why.
        cause: RejectCause,
    },
    /// The job began executing on a core.
    Started {
        /// The job.
        job: JobId,
        /// The core it was pinned to; `None` for floating (opportunistic)
        /// placement, where the engine picks any idle core each slice.
        core: Option<CoreId>,
        /// The mode it is actually running in (may differ from the
        /// submitted mode after an auto-downgrade).
        mode: Mode,
    },
    /// The scheduler downgraded the job's mode (e.g. Strict →
    /// Opportunistic when the reserved start would miss the deadline).
    Downgraded {
        /// The job.
        job: JobId,
        /// Mode it asked for.
        from: Mode,
        /// Mode it will run in.
        to: Mode,
    },
    /// A downgraded job was promoted back to its original mode.
    SwitchedBack {
        /// The job.
        job: JobId,
        /// The mode it returned to.
        to: Mode,
    },
    /// The stealing controller took one way from the job's allocation.
    StealTaken {
        /// The donor job.
        job: JobId,
        /// Total ways stolen from it so far.
        stolen_total: Ways,
    },
    /// Stealing was cancelled and the stolen ways handed back.
    StealReturned {
        /// The donor job.
        job: JobId,
        /// Ways returned.
        returned: Ways,
    },
    /// The shadow-tag guard found the degradation bound exceeded.
    GuardTripped {
        /// The protected job.
        job: JobId,
        /// Observed miss increase at the time of the trip, as a fraction
        /// of the shadow (original-allocation) misses.
        miss_increase: f64,
    },
    /// The shared L2 was repartitioned.
    PartitionChanged {
        /// New per-core way targets, indexed by core.
        targets: Vec<Ways>,
    },
    /// The job finished.
    Completed {
        /// The job.
        job: JobId,
        /// Whether it finished by its deadline (true when it had none).
        met_deadline: bool,
    },
    /// The job finished after its deadline.
    DeadlineMissed {
        /// The job.
        job: JobId,
        /// The deadline it had.
        deadline: Cycles,
        /// When it actually finished.
        finished: Cycles,
    },
    /// A fault from the injection schedule struck a node.
    FaultInjected {
        /// The struck node.
        node: NodeId,
        /// What failed.
        fault: FaultKind,
    },
    /// An admission probe to a node went unanswered.
    ProbeLost {
        /// The job whose probe was lost.
        job: JobId,
        /// The unresponsive node.
        node: NodeId,
    },
    /// The GAC's health tracking moved a node between states.
    NodeHealthChanged {
        /// The node.
        node: NodeId,
        /// Previous health.
        from: Health,
        /// New health.
        to: Health,
    },
    /// The GAC placed an accepted job on a node.
    Placed {
        /// The job.
        job: JobId,
        /// The accepting node.
        node: NodeId,
    },
    /// A job's reservation moved from a failed (or shrunken) node to a
    /// survivor.
    Migrated {
        /// The job.
        job: JobId,
        /// The node it was stranded on.
        from: NodeId,
        /// The node that re-admitted it.
        to: NodeId,
    },
    /// A fault shrank supply and the job's reservation could not be kept,
    /// downgraded, or migrated: the admission guarantee is withdrawn.
    ReservationRevoked {
        /// The job.
        job: JobId,
        /// The node that held its reservation.
        node: NodeId,
        /// Why (always a revocation cause).
        cause: RejectCause,
    },
    /// An Elastic(X) job's reservation was shrunk in place: its slack
    /// absorbed part of a capacity loss.
    DowngradedUnderFault {
        /// The job.
        job: JobId,
        /// The node holding its (now smaller) reservation.
        node: NodeId,
        /// Ways removed from its reservation.
        ways_cut: Ways,
    },
    /// The admission circuit breaker tripped: the reject ratio over the
    /// sliding decision window crossed the threshold, so intake sheds
    /// everything until the cooldown elapses.
    CircuitTripped {
        /// The node whose intake tripped.
        node: NodeId,
        /// Rejections observed in the window that tripped it.
        rejected: u64,
        /// The window length the ratio was measured over.
        window: u64,
    },
    /// The admission circuit breaker's cooldown elapsed: intake accepts
    /// requests again.
    CircuitRestored {
        /// The node whose intake recovered.
        node: NodeId,
    },
    /// A crashed admission controller was rebuilt from its write-ahead
    /// journal (snapshot + replay).
    ControllerRecovered {
        /// The node whose controller was recovered.
        node: NodeId,
        /// Journal operations replayed on top of the snapshot.
        replayed: u64,
        /// Journal records lost to a torn or corrupted tail.
        lost: u64,
    },
    /// The control-plane link between the GAC and a node was severed: the
    /// node is unreachable (but alive — partition is not death).
    LinkPartitioned {
        /// The unreachable node.
        node: NodeId,
    },
    /// The control-plane link between the GAC and a node was restored.
    LinkHealed {
        /// The reachable-again node.
        node: NodeId,
    },
    /// A control-plane message was lost in transit (dropped, or eaten by
    /// an active partition).
    MessageDropped {
        /// The node end of the lossy link.
        node: NodeId,
    },
    /// A rejoin reconciliation completed: the GAC diffed its placement
    /// table against the node's journal-backed reservation table and
    /// repaired both sides.
    Reconciled {
        /// The reconciled node.
        node: NodeId,
        /// Orphaned reservations revoked on the node (the LAC admitted
        /// them but the accept reply never reached the GAC).
        orphans_revoked: u64,
        /// Placements the GAC repaired (reservations it thought live that
        /// the node no longer held).
        placements_repaired: u64,
    },
    /// A node finished its membership handshake and entered `Live`:
    /// either a brand-new join or a restart whose reconciliation
    /// completed.
    NodeJoined {
        /// The node now accepting placements.
        node: NodeId,
    },
    /// A draining node moved its last live reservation off and
    /// transitioned to `Left`: it holds nothing and is never probed again.
    NodeDrained {
        /// The node that left the cluster.
        node: NodeId,
    },
    /// A placed reservation's lease ran out (no renewal within the TTL
    /// plus the dead-timeout grace): the placement is revoked and re-placed
    /// exactly like an evacuation.
    LeaseExpired {
        /// The job whose lease lapsed.
        job: JobId,
        /// The node that held (and may still hold) the reservation.
        node: NodeId,
    },
    /// A heartbeat ack renewed every lease held on a node.
    LeaseRenewed {
        /// The node whose placements were renewed.
        node: NodeId,
        /// How many leases were extended.
        leases: u64,
    },
    /// An epoch sample found a job's delivered CPI above its SLO target.
    SloViolated {
        /// The violating job.
        job: JobId,
        /// Delivered CPI over the sampled epoch, in milli-CPI.
        cpi_milli: u64,
        /// The job's SLO target, in milli-CPI.
        target_milli: u64,
    },
    /// The adaptive control plane moved an actuator to a new value.
    /// Emitted only when the value actually changes — a controller holding
    /// every knob at baseline is invisible in the event stream.
    KnobChanged {
        /// Which actuator moved.
        knob: Knob,
        /// Its previous value.
        old: i64,
        /// Its new value.
        new: i64,
    },
}

impl Event {
    /// The job this event concerns, when it concerns exactly one.
    #[must_use]
    pub fn job(&self) -> Option<JobId> {
        match *self {
            Event::Submitted { job, .. }
            | Event::Admitted { job, .. }
            | Event::Rejected { job, .. }
            | Event::Started { job, .. }
            | Event::Downgraded { job, .. }
            | Event::SwitchedBack { job, .. }
            | Event::StealTaken { job, .. }
            | Event::StealReturned { job, .. }
            | Event::GuardTripped { job, .. }
            | Event::Completed { job, .. }
            | Event::DeadlineMissed { job, .. }
            | Event::ProbeLost { job, .. }
            | Event::Placed { job, .. }
            | Event::Migrated { job, .. }
            | Event::ReservationRevoked { job, .. }
            | Event::DowngradedUnderFault { job, .. }
            | Event::LeaseExpired { job, .. }
            | Event::SloViolated { job, .. } => Some(job),
            Event::RunStarted { .. }
            | Event::KnobChanged { .. }
            | Event::PartitionChanged { .. }
            | Event::FaultInjected { .. }
            | Event::NodeHealthChanged { .. }
            | Event::CircuitTripped { .. }
            | Event::CircuitRestored { .. }
            | Event::ControllerRecovered { .. }
            | Event::LinkPartitioned { .. }
            | Event::LinkHealed { .. }
            | Event::MessageDropped { .. }
            | Event::Reconciled { .. }
            | Event::NodeJoined { .. }
            | Event::NodeDrained { .. }
            | Event::LeaseRenewed { .. } => None,
        }
    }

    /// The event's kind, for counting.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            Event::RunStarted { .. } => EventKind::RunStarted,
            Event::Submitted { .. } => EventKind::Submitted,
            Event::Admitted { .. } => EventKind::Admitted,
            Event::Rejected { .. } => EventKind::Rejected,
            Event::Started { .. } => EventKind::Started,
            Event::Downgraded { .. } => EventKind::Downgraded,
            Event::SwitchedBack { .. } => EventKind::SwitchedBack,
            Event::StealTaken { .. } => EventKind::StealTaken,
            Event::StealReturned { .. } => EventKind::StealReturned,
            Event::GuardTripped { .. } => EventKind::GuardTripped,
            Event::PartitionChanged { .. } => EventKind::PartitionChanged,
            Event::Completed { .. } => EventKind::Completed,
            Event::DeadlineMissed { .. } => EventKind::DeadlineMissed,
            Event::FaultInjected { .. } => EventKind::FaultInjected,
            Event::ProbeLost { .. } => EventKind::ProbeLost,
            Event::NodeHealthChanged { .. } => EventKind::NodeHealthChanged,
            Event::Placed { .. } => EventKind::Placed,
            Event::Migrated { .. } => EventKind::Migrated,
            Event::ReservationRevoked { .. } => EventKind::ReservationRevoked,
            Event::DowngradedUnderFault { .. } => EventKind::DowngradedUnderFault,
            Event::CircuitTripped { .. } => EventKind::CircuitTripped,
            Event::CircuitRestored { .. } => EventKind::CircuitRestored,
            Event::ControllerRecovered { .. } => EventKind::ControllerRecovered,
            Event::LinkPartitioned { .. } => EventKind::LinkPartitioned,
            Event::LinkHealed { .. } => EventKind::LinkHealed,
            Event::MessageDropped { .. } => EventKind::MessageDropped,
            Event::Reconciled { .. } => EventKind::Reconciled,
            Event::NodeJoined { .. } => EventKind::NodeJoined,
            Event::NodeDrained { .. } => EventKind::NodeDrained,
            Event::LeaseExpired { .. } => EventKind::LeaseExpired,
            Event::LeaseRenewed { .. } => EventKind::LeaseRenewed,
            Event::SloViolated { .. } => EventKind::SloViolated,
            Event::KnobChanged { .. } => EventKind::KnobChanged,
        }
    }
}

/// Discriminant-only view of [`Event`], the key of [`crate::Counters`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum EventKind {
    /// See [`Event::RunStarted`].
    RunStarted,
    /// See [`Event::Submitted`].
    Submitted,
    /// See [`Event::Admitted`].
    Admitted,
    /// See [`Event::Rejected`].
    Rejected,
    /// See [`Event::Started`].
    Started,
    /// See [`Event::Downgraded`].
    Downgraded,
    /// See [`Event::SwitchedBack`].
    SwitchedBack,
    /// See [`Event::StealTaken`].
    StealTaken,
    /// See [`Event::StealReturned`].
    StealReturned,
    /// See [`Event::GuardTripped`].
    GuardTripped,
    /// See [`Event::PartitionChanged`].
    PartitionChanged,
    /// See [`Event::Completed`].
    Completed,
    /// See [`Event::DeadlineMissed`].
    DeadlineMissed,
    /// See [`Event::FaultInjected`].
    FaultInjected,
    /// See [`Event::ProbeLost`].
    ProbeLost,
    /// See [`Event::NodeHealthChanged`].
    NodeHealthChanged,
    /// See [`Event::Placed`].
    Placed,
    /// See [`Event::Migrated`].
    Migrated,
    /// See [`Event::ReservationRevoked`].
    ReservationRevoked,
    /// See [`Event::DowngradedUnderFault`].
    DowngradedUnderFault,
    /// See [`Event::CircuitTripped`].
    CircuitTripped,
    /// See [`Event::CircuitRestored`].
    CircuitRestored,
    /// See [`Event::ControllerRecovered`].
    ControllerRecovered,
    /// See [`Event::LinkPartitioned`].
    LinkPartitioned,
    /// See [`Event::LinkHealed`].
    LinkHealed,
    /// See [`Event::MessageDropped`].
    MessageDropped,
    /// See [`Event::Reconciled`].
    Reconciled,
    /// See [`Event::NodeJoined`].
    NodeJoined,
    /// See [`Event::NodeDrained`].
    NodeDrained,
    /// See [`Event::LeaseExpired`].
    LeaseExpired,
    /// See [`Event::LeaseRenewed`].
    LeaseRenewed,
    /// See [`Event::SloViolated`].
    SloViolated,
    /// See [`Event::KnobChanged`].
    KnobChanged,
}

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; 33] = [
        EventKind::RunStarted,
        EventKind::Submitted,
        EventKind::Admitted,
        EventKind::Rejected,
        EventKind::Started,
        EventKind::Downgraded,
        EventKind::SwitchedBack,
        EventKind::StealTaken,
        EventKind::StealReturned,
        EventKind::GuardTripped,
        EventKind::PartitionChanged,
        EventKind::Completed,
        EventKind::DeadlineMissed,
        EventKind::FaultInjected,
        EventKind::ProbeLost,
        EventKind::NodeHealthChanged,
        EventKind::Placed,
        EventKind::Migrated,
        EventKind::ReservationRevoked,
        EventKind::DowngradedUnderFault,
        EventKind::CircuitTripped,
        EventKind::CircuitRestored,
        EventKind::ControllerRecovered,
        EventKind::LinkPartitioned,
        EventKind::LinkHealed,
        EventKind::MessageDropped,
        EventKind::Reconciled,
        EventKind::NodeJoined,
        EventKind::NodeDrained,
        EventKind::LeaseExpired,
        EventKind::LeaseRenewed,
        EventKind::SloViolated,
        EventKind::KnobChanged,
    ];
}

/// An [`Event`] stamped with the cycle it happened at.
///
/// One JSONL line is one serialized `Record`:
/// `{"at": 1234, "event": {"Started": {...}}}`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Record {
    /// Simulated cycle timestamp.
    pub at: Cycles,
    /// What happened.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            Record {
                at: Cycles::new(0),
                event: Event::RunStarted {
                    label: "fig7/hybrid2".into(),
                },
            },
            Record {
                at: Cycles::new(10),
                event: Event::Submitted {
                    job: JobId::new(1),
                    mode: Mode::Elastic(Percent::new(10.0)),
                },
            },
            Record {
                at: Cycles::new(11),
                event: Event::Rejected {
                    job: JobId::new(2),
                    cause: RejectCause::ExceedsNodeCapacity,
                },
            },
            Record {
                at: Cycles::new(90),
                event: Event::PartitionChanged {
                    targets: vec![Ways::new(4), Ways::new(12)],
                },
            },
            Record {
                at: Cycles::new(99),
                event: Event::DeadlineMissed {
                    job: JobId::new(1),
                    deadline: Cycles::new(50),
                    finished: Cycles::new(99),
                },
            },
        ];
        for r in records {
            let line = serde_json::to_string(&r).unwrap();
            let back: Record = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn job_extraction_and_kinds() {
        let e = Event::Started {
            job: JobId::new(7),
            core: Some(CoreId::new(1)),
            mode: Mode::Strict,
        };
        assert_eq!(e.job(), Some(JobId::new(7)));
        assert_eq!(e.kind(), EventKind::Started);
        let p = Event::PartitionChanged { targets: vec![] };
        assert_eq!(p.job(), None);
        assert_eq!(EventKind::ALL.len(), 33);
    }

    #[test]
    fn adapt_events_round_trip_and_extract_jobs() {
        let records = vec![
            Record {
                at: Cycles::new(50_000),
                event: Event::SloViolated {
                    job: JobId::new(3),
                    cpi_milli: 2_710,
                    target_milli: 2_600,
                },
            },
            Record {
                at: Cycles::new(50_000),
                event: Event::KnobChanged {
                    knob: Knob::StealSlack { job: JobId::new(3) },
                    old: 20_000,
                    new: 10_000,
                },
            },
            Record {
                at: Cycles::new(50_000),
                event: Event::KnobChanged {
                    knob: Knob::CoreSpeed {
                        core: CoreId::new(2),
                    },
                    old: 100,
                    new: 75,
                },
            },
        ];
        for r in &records {
            let line = serde_json::to_string(r).unwrap();
            let back: Record = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, r);
        }
        assert_eq!(records[0].event.job(), Some(JobId::new(3)));
        assert_eq!(records[0].event.kind(), EventKind::SloViolated);
        assert_eq!(records[1].event.job(), None);
        assert_eq!(records[2].event.kind(), EventKind::KnobChanged);
    }

    #[test]
    fn fault_events_round_trip_and_extract_jobs() {
        let records = vec![
            Record {
                at: Cycles::new(10),
                event: Event::FaultInjected {
                    node: NodeId::new(1),
                    fault: FaultKind::WayFault { way: 3 },
                },
            },
            Record {
                at: Cycles::new(11),
                event: Event::NodeHealthChanged {
                    node: NodeId::new(1),
                    from: Health::Healthy,
                    to: Health::Suspect,
                },
            },
            Record {
                at: Cycles::new(12),
                event: Event::ProbeLost {
                    job: JobId::new(4),
                    node: NodeId::new(1),
                },
            },
            Record {
                at: Cycles::new(14),
                event: Event::Placed {
                    job: JobId::new(4),
                    node: NodeId::new(2),
                },
            },
            Record {
                at: Cycles::new(15),
                event: Event::Migrated {
                    job: JobId::new(4),
                    from: NodeId::new(2),
                    to: NodeId::new(0),
                },
            },
            Record {
                at: Cycles::new(16),
                event: Event::ReservationRevoked {
                    job: JobId::new(5),
                    node: NodeId::new(1),
                    cause: RejectCause::CapacityRevoked,
                },
            },
            Record {
                at: Cycles::new(17),
                event: Event::DowngradedUnderFault {
                    job: JobId::new(6),
                    node: NodeId::new(1),
                    ways_cut: Ways::new(2),
                },
            },
        ];
        for r in &records {
            let line = serde_json::to_string(r).unwrap();
            let back: Record = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, r);
        }
        assert_eq!(records[0].event.job(), None);
        assert_eq!(records[1].event.job(), None);
        assert_eq!(records[2].event.job(), Some(JobId::new(4)));
        assert_eq!(records[5].event.job(), Some(JobId::new(5)));
        assert_eq!(records[6].event.kind(), EventKind::DowngradedUnderFault);
    }

    #[test]
    fn net_events_round_trip_and_carry_no_job() {
        let records = vec![
            Record {
                at: Cycles::new(20),
                event: Event::FaultInjected {
                    node: NodeId::new(3),
                    fault: FaultKind::LinkPartition,
                },
            },
            Record {
                at: Cycles::new(20),
                event: Event::LinkPartitioned {
                    node: NodeId::new(3),
                },
            },
            Record {
                at: Cycles::new(25),
                event: Event::MessageDropped {
                    node: NodeId::new(3),
                },
            },
            Record {
                at: Cycles::new(30),
                event: Event::FaultInjected {
                    node: NodeId::new(3),
                    fault: FaultKind::MessageDrop { count: 2 },
                },
            },
            Record {
                at: Cycles::new(40),
                event: Event::LinkHealed {
                    node: NodeId::new(3),
                },
            },
            Record {
                at: Cycles::new(41),
                event: Event::Reconciled {
                    node: NodeId::new(3),
                    orphans_revoked: 1,
                    placements_repaired: 0,
                },
            },
        ];
        for r in &records {
            let line = serde_json::to_string(r).unwrap();
            let back: Record = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, r);
            assert_eq!(r.event.job(), None);
        }
        assert_eq!(records[1].event.kind(), EventKind::LinkPartitioned);
        assert_eq!(records[5].event.kind(), EventKind::Reconciled);
    }

    #[test]
    fn churn_events_round_trip_and_only_lease_expiry_is_job_scoped() {
        let records = vec![
            Record {
                at: Cycles::new(10),
                event: Event::FaultInjected {
                    node: NodeId::new(4),
                    fault: FaultKind::NodeJoin,
                },
            },
            Record {
                at: Cycles::new(12),
                event: Event::NodeJoined {
                    node: NodeId::new(4),
                },
            },
            Record {
                at: Cycles::new(20),
                event: Event::FaultInjected {
                    node: NodeId::new(2),
                    fault: FaultKind::NodeDrain,
                },
            },
            Record {
                at: Cycles::new(25),
                event: Event::NodeDrained {
                    node: NodeId::new(2),
                },
            },
            Record {
                at: Cycles::new(30),
                event: Event::FaultInjected {
                    node: NodeId::new(1),
                    fault: FaultKind::LeaseFreeze,
                },
            },
            Record {
                at: Cycles::new(31),
                event: Event::LeaseRenewed {
                    node: NodeId::new(3),
                    leases: 5,
                },
            },
            Record {
                at: Cycles::new(99),
                event: Event::LeaseExpired {
                    job: JobId::new(8),
                    node: NodeId::new(1),
                },
            },
            Record {
                at: Cycles::new(100),
                event: Event::FaultInjected {
                    node: NodeId::new(0),
                    fault: FaultKind::NodeRestart,
                },
            },
        ];
        for r in &records {
            let line = serde_json::to_string(r).unwrap();
            let back: Record = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, r);
        }
        assert_eq!(records[1].event.kind(), EventKind::NodeJoined);
        assert_eq!(records[3].event.kind(), EventKind::NodeDrained);
        assert_eq!(records[5].event.job(), None);
        assert_eq!(records[6].event.job(), Some(JobId::new(8)));
        assert_eq!(records[6].event.kind(), EventKind::LeaseExpired);
    }
}
