//! Deterministic fault injection for the CMP QoS framework.
//!
//! The paper's admission pipeline assumes every node and every L2 way stays
//! healthy forever; a deployable framework must instead degrade gracefully
//! under partial failure. This crate provides the *fault model* the rest of
//! the stack consumes:
//!
//! * [`Fault`] — the injectable failures: a dead L2 way, a dead core, a
//!   whole dead node, lost admission probes, a crashed admission
//!   controller (recovered from its write-ahead journal), and the
//!   message-layer faults — a severed GAC ↔ node link
//!   ([`Fault::LinkPartition`] / [`Fault::LinkHeal`]) and transient
//!   message loss ([`Fault::MessageDrop`]). A partitioned node is
//!   *unreachable, not dead*: the GAC must hold evacuation.
//! * [`Injection`] — a fault stamped with the cycle it strikes at.
//! * [`FaultSchedule`] — a sorted, drainable sequence of injections. The
//!   simulation loop calls [`FaultSchedule::due`] each step and applies
//!   whatever has come due.
//! * [`FaultPlan`] — a fluent builder for hand-written schedules, plus
//!   [`FaultPlan::seeded`] for reproducible random chaos: the same seed
//!   always yields the same schedule, so a chaos run can be replayed
//!   event-for-event.
//!
//! The crate is deliberately passive: it never mutates the system itself.
//! The `GlobalAdmissionController` (and, for way faults, `SharedL2` /
//! `QosScheduler`) interpret the injections; every application emits typed
//! `cmpqos-obs` events so a JSONL log fully reconstructs a chaos run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cmpqos_types::{CoreId, Cycles, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One injectable failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Fault {
    /// One way of a node's shared L2 dies: it must be excluded from
    /// allocation and victim selection, and reservations that no longer fit
    /// the shrunken capacity must be revoked or downgraded.
    WayFault {
        /// The node whose L2 loses a way.
        node: NodeId,
        /// The dead way index (column), `0..associativity`.
        way: u16,
    },
    /// One core of a node dies: the node's admission capacity shrinks by
    /// one core.
    CoreFault {
        /// The node losing a core.
        node: NodeId,
        /// The dead core.
        core: CoreId,
    },
    /// A whole node dies: every reservation on it is stranded and must be
    /// migrated to surviving nodes or revoked with a reason.
    NodeFault {
        /// The dead node.
        node: NodeId,
    },
    /// The next `count` control-plane frames to a node are lost (the LAC
    /// does not answer); the GAC must retransmit and track the node's
    /// health.
    ProbeLoss {
        /// The node whose probes go unanswered.
        node: NodeId,
        /// How many consecutive probes are lost.
        count: u32,
    },
    /// The node's admission controller crashes, losing its in-core
    /// reservation tables. The fault itself does not touch resources or
    /// reservations; the harness interprets it by dropping the controller
    /// and rebuilding it from its write-ahead journal (`cmpqos-recovery`).
    ControllerCrash {
        /// The node whose controller crashes.
        node: NodeId,
    },
    /// The GAC ↔ node control-plane link is severed in both directions.
    /// The node is *unreachable*, not dead: its LAC keeps honoring
    /// reservations, so the GAC must hold evacuation (Suspect, not Dead)
    /// until the health timeout genuinely expires.
    LinkPartition {
        /// The unreachable node.
        node: NodeId,
    },
    /// The GAC ↔ node link is restored; a rejoin reconciliation diffs the
    /// two sides' tables.
    LinkHeal {
        /// The reachable-again node.
        node: NodeId,
    },
    /// The next `count` control-plane messages toward the node are lost
    /// in transit (a transient lossy link rather than a full partition).
    MessageDrop {
        /// The node end of the lossy link.
        node: NodeId,
        /// How many consecutive messages are lost.
        count: u32,
    },
    /// A fresh node joins the cluster. The injection is valid only when
    /// `node` is the next unused index (membership tables are append-only);
    /// anything else is ignored, keeping journal replay deterministic.
    NodeJoin {
        /// The id the new node will get.
        node: NodeId,
    },
    /// The node restarts: its protocol state (epochs, sequence numbers,
    /// pending requests) is lost, but its journal-recovered reservation
    /// table survives. It rejoins as `Joining` and reconciles against the
    /// GAC's placement view before re-entering `Live`.
    NodeRestart {
        /// The restarting node.
        node: NodeId,
    },
    /// The node is asked to drain gracefully: no new placements land on
    /// it, its live reservations migrate to survivors, and only then does
    /// it transition to `Left`.
    NodeDrain {
        /// The draining node.
        node: NodeId,
    },
    /// Lease renewals toward the node are frozen: heartbeats still answer
    /// (the node looks healthy) but its placements stop being renewed, so
    /// their leases expire after the TTL plus the dead-timeout grace.
    LeaseFreeze {
        /// The node whose renewals are suppressed.
        node: NodeId,
    },
}

impl Fault {
    /// The node this fault strikes.
    #[must_use]
    pub fn node(&self) -> NodeId {
        match *self {
            Fault::WayFault { node, .. }
            | Fault::CoreFault { node, .. }
            | Fault::NodeFault { node }
            | Fault::ProbeLoss { node, .. }
            | Fault::ControllerCrash { node }
            | Fault::LinkPartition { node }
            | Fault::LinkHeal { node }
            | Fault::MessageDrop { node, .. }
            | Fault::NodeJoin { node }
            | Fault::NodeRestart { node }
            | Fault::NodeDrain { node }
            | Fault::LeaseFreeze { node } => node,
        }
    }

    /// The observability-layer mirror of this fault (node carried
    /// separately by the `FaultInjected` event).
    #[must_use]
    pub fn obs_kind(&self) -> cmpqos_obs::FaultKind {
        match *self {
            Fault::WayFault { way, .. } => cmpqos_obs::FaultKind::WayFault { way },
            Fault::CoreFault { core, .. } => cmpqos_obs::FaultKind::CoreFault { core },
            Fault::NodeFault { .. } => cmpqos_obs::FaultKind::NodeFault,
            Fault::ProbeLoss { count, .. } => cmpqos_obs::FaultKind::ProbeLoss { count },
            Fault::ControllerCrash { .. } => cmpqos_obs::FaultKind::ControllerCrash,
            Fault::LinkPartition { .. } => cmpqos_obs::FaultKind::LinkPartition,
            Fault::LinkHeal { .. } => cmpqos_obs::FaultKind::LinkHeal,
            Fault::MessageDrop { count, .. } => cmpqos_obs::FaultKind::MessageDrop { count },
            Fault::NodeJoin { .. } => cmpqos_obs::FaultKind::NodeJoin,
            Fault::NodeRestart { .. } => cmpqos_obs::FaultKind::NodeRestart,
            Fault::NodeDrain { .. } => cmpqos_obs::FaultKind::NodeDrain,
            Fault::LeaseFreeze { .. } => cmpqos_obs::FaultKind::LeaseFreeze,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::WayFault { node, way } => write!(f, "way {way} of {node} dies"),
            Fault::CoreFault { node, core } => write!(f, "{core} of {node} dies"),
            Fault::NodeFault { node } => write!(f, "{node} dies"),
            Fault::ProbeLoss { node, count } => write!(f, "{count} probe(s) to {node} lost"),
            Fault::ControllerCrash { node } => write!(f, "controller of {node} crashes"),
            Fault::LinkPartition { node } => write!(f, "link to {node} partitioned"),
            Fault::LinkHeal { node } => write!(f, "link to {node} healed"),
            Fault::MessageDrop { node, count } => {
                write!(f, "{count} message(s) to {node} dropped")
            }
            Fault::NodeJoin { node } => write!(f, "{node} joins"),
            Fault::NodeRestart { node } => write!(f, "{node} restarts"),
            Fault::NodeDrain { node } => write!(f, "{node} drains"),
            Fault::LeaseFreeze { node } => write!(f, "lease renewals to {node} frozen"),
        }
    }
}

/// A [`Fault`] stamped with the cycle it strikes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Injection {
    /// When the fault strikes.
    pub at: Cycles,
    /// What fails.
    pub fault: Fault,
}

/// A drainable, cycle-ordered sequence of injections.
///
/// Build one with [`FaultPlan`]; the simulation loop then drains it:
///
/// ```
/// use cmpqos_faults::FaultPlan;
/// use cmpqos_types::{Cycles, NodeId};
///
/// let mut schedule = FaultPlan::new()
///     .node_fault(Cycles::new(500), NodeId::new(1))
///     .probe_loss(Cycles::new(100), NodeId::new(0), 2)
///     .build();
/// assert_eq!(schedule.len(), 2);
/// // Ordered by cycle regardless of build order.
/// assert_eq!(schedule.due(Cycles::new(100)).len(), 1);
/// assert_eq!(schedule.due(Cycles::new(1_000)).len(), 1);
/// assert!(schedule.is_exhausted());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// All injections, sorted by cycle (stable: ties keep build order).
    injections: Vec<Injection>,
    /// Index of the first not-yet-drained injection.
    cursor: usize,
}

impl FaultSchedule {
    /// A schedule over the given injections (stably sorted by cycle).
    #[must_use]
    pub fn new(mut injections: Vec<Injection>) -> Self {
        injections.sort_by_key(|i| i.at);
        Self {
            injections,
            cursor: 0,
        }
    }

    /// An empty schedule (a fault-free run).
    #[must_use]
    pub fn none() -> Self {
        Self::new(Vec::new())
    }

    /// Drains and returns every injection with `at <= now`, in order.
    pub fn due(&mut self, now: Cycles) -> Vec<Injection> {
        let start = self.cursor;
        while self.cursor < self.injections.len() && self.injections[self.cursor].at <= now {
            self.cursor += 1;
        }
        self.injections[start..self.cursor].to_vec()
    }

    /// The next pending injection, if any.
    #[must_use]
    pub fn peek(&self) -> Option<&Injection> {
        self.injections.get(self.cursor)
    }

    /// Total injections (drained and pending).
    #[must_use]
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// Whether the schedule holds no injections at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Injections not yet drained.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.injections.len() - self.cursor
    }

    /// Whether every injection has been drained.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// All injections in cycle order, including already-drained ones.
    #[must_use]
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }
}

/// Fluent builder for a [`FaultSchedule`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    injections: Vec<Injection>,
}

impl FaultPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A reproducible random plan: `faults` injections spread uniformly
    /// over `[horizon/4, 3*horizon/4)` across `nodes` nodes, mixing all
    /// four fault kinds. The same `(seed, nodes, horizon, faults)` always
    /// yields the same plan.
    ///
    /// At most one `NodeFault` is generated (and never against node 0), so
    /// a multi-node cluster always keeps survivors to migrate to.
    #[must_use]
    pub fn seeded(seed: u64, nodes: u32, horizon: Cycles, faults: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self::new();
        let lo = horizon.get() / 4;
        let hi = (3 * horizon.get() / 4).max(lo + 1);
        let mut node_killed = false;
        for _ in 0..faults {
            let at = Cycles::new(rng.gen_range(lo..hi));
            let node = NodeId::new(rng.gen_range(0..nodes.max(1)));
            let fault = match rng.gen_range(0u32..4) {
                0 => Fault::WayFault {
                    node,
                    way: rng.gen_range(0u16..16),
                },
                1 => Fault::CoreFault {
                    node,
                    core: CoreId::new(rng.gen_range(0u32..4)),
                },
                2 if !node_killed && nodes > 1 && node.index() != 0 => {
                    node_killed = true;
                    Fault::NodeFault { node }
                }
                _ => Fault::ProbeLoss {
                    node,
                    count: rng.gen_range(1u32..4),
                },
            };
            plan.injections.push(Injection { at, fault });
        }
        plan
    }

    /// Adds an arbitrary injection.
    #[must_use]
    pub fn inject(mut self, at: Cycles, fault: Fault) -> Self {
        self.injections.push(Injection { at, fault });
        self
    }

    /// Kills one L2 way of `node` at cycle `at`.
    #[must_use]
    pub fn way_fault(self, at: Cycles, node: NodeId, way: u16) -> Self {
        self.inject(at, Fault::WayFault { node, way })
    }

    /// Kills one core of `node` at cycle `at`.
    #[must_use]
    pub fn core_fault(self, at: Cycles, node: NodeId, core: CoreId) -> Self {
        self.inject(at, Fault::CoreFault { node, core })
    }

    /// Kills `node` entirely at cycle `at`.
    #[must_use]
    pub fn node_fault(self, at: Cycles, node: NodeId) -> Self {
        self.inject(at, Fault::NodeFault { node })
    }

    /// Loses the next `count` probes to `node` from cycle `at`.
    #[must_use]
    pub fn probe_loss(self, at: Cycles, node: NodeId, count: u32) -> Self {
        self.inject(at, Fault::ProbeLoss { node, count })
    }

    /// Crashes the admission controller of `node` at cycle `at`.
    #[must_use]
    pub fn controller_crash(self, at: Cycles, node: NodeId) -> Self {
        self.inject(at, Fault::ControllerCrash { node })
    }

    /// Severs the GAC ↔ `node` link at cycle `at`.
    #[must_use]
    pub fn link_partition(self, at: Cycles, node: NodeId) -> Self {
        self.inject(at, Fault::LinkPartition { node })
    }

    /// Restores the GAC ↔ `node` link at cycle `at`.
    #[must_use]
    pub fn link_heal(self, at: Cycles, node: NodeId) -> Self {
        self.inject(at, Fault::LinkHeal { node })
    }

    /// Joins a fresh node (which must take the next unused id) at cycle
    /// `at`.
    #[must_use]
    pub fn node_join(self, at: Cycles, node: NodeId) -> Self {
        self.inject(at, Fault::NodeJoin { node })
    }

    /// Restarts `node` (protocol state lost, reservation table recovered)
    /// at cycle `at`.
    #[must_use]
    pub fn node_restart(self, at: Cycles, node: NodeId) -> Self {
        self.inject(at, Fault::NodeRestart { node })
    }

    /// Drains `node` gracefully out of the cluster from cycle `at`.
    #[must_use]
    pub fn node_drain(self, at: Cycles, node: NodeId) -> Self {
        self.inject(at, Fault::NodeDrain { node })
    }

    /// Freezes lease renewals toward `node` from cycle `at`.
    #[must_use]
    pub fn lease_freeze(self, at: Cycles, node: NodeId) -> Self {
        self.inject(at, Fault::LeaseFreeze { node })
    }

    /// A reproducible random *churn* plan: `events` membership operations
    /// spread over `[horizon/4, 3·horizon/4)`, mixing joins, graceful
    /// drains, and restarts. Joins always take the next unused id (starting
    /// at `nodes`); drains and restarts strike only nodes that exist when
    /// the op fires and that have not already been drained, and node 0 is
    /// never touched so the cluster always keeps at least one stable
    /// member. The same `(seed, nodes, horizon, events)` always yields the
    /// same plan.
    #[must_use]
    pub fn seeded_churn(seed: u64, nodes: u32, horizon: Cycles, events: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let lo = horizon.get() / 4;
        let hi = (3 * horizon.get() / 4).max(lo + 1);
        let mut at: Vec<Cycles> = (0..events)
            .map(|_| Cycles::new(rng.gen_range(lo..hi)))
            .collect();
        at.sort_unstable();
        let mut plan = Self::new();
        let mut next_id = nodes.max(1);
        let mut drained: Vec<NodeId> = Vec::new();
        for at in at {
            let roll = rng.gen_range(0u32..10);
            if roll < 3 {
                plan = plan.node_join(at, NodeId::new(next_id));
                next_id += 1;
            } else {
                let candidates: Vec<u32> = (1..next_id)
                    .filter(|&i| !drained.contains(&NodeId::new(i)))
                    .collect();
                let Some(&pick) = candidates.get(rng.gen_range(0..candidates.len().max(1))) else {
                    continue;
                };
                let node = NodeId::new(pick);
                if roll < 6 {
                    drained.push(node);
                    plan = plan.node_drain(at, node);
                } else {
                    plan = plan.node_restart(at, node);
                }
            }
        }
        plan
    }

    /// Finishes the plan into a cycle-ordered schedule.
    #[must_use]
    pub fn build(self) -> FaultSchedule {
        FaultSchedule::new(self.injections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_drains_in_cycle_order() {
        let mut s = FaultPlan::new()
            .node_fault(Cycles::new(300), NodeId::new(2))
            .way_fault(Cycles::new(100), NodeId::new(0), 3)
            .probe_loss(Cycles::new(100), NodeId::new(1), 2)
            .build();
        assert_eq!(s.len(), 3);
        assert_eq!(s.peek().unwrap().at, Cycles::new(100));
        let first = s.due(Cycles::new(100));
        assert_eq!(first.len(), 2);
        // Stable sort: ties keep build order.
        assert!(matches!(first[0].fault, Fault::WayFault { way: 3, .. }));
        assert!(matches!(first[1].fault, Fault::ProbeLoss { count: 2, .. }));
        assert_eq!(s.remaining(), 1);
        assert!(s.due(Cycles::new(200)).is_empty());
        assert_eq!(s.due(Cycles::new(500)).len(), 1);
        assert!(s.is_exhausted());
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(7, 3, Cycles::new(10_000), 8).build();
        let b = FaultPlan::seeded(7, 3, Cycles::new(10_000), 8).build();
        assert_eq!(a, b);
        let c = FaultPlan::seeded(8, 3, Cycles::new(10_000), 8).build();
        assert_ne!(a, c);
        assert_eq!(a.len(), 8);
        for i in a.injections() {
            assert!(i.at >= Cycles::new(2_500) && i.at < Cycles::new(7_500));
        }
        // At most one node death, never node 0.
        let deaths: Vec<_> = a
            .injections()
            .iter()
            .filter(|i| matches!(i.fault, Fault::NodeFault { .. }))
            .collect();
        assert!(deaths.len() <= 1);
        for d in deaths {
            assert_ne!(d.fault.node(), NodeId::new(0));
        }
    }

    #[test]
    fn fault_accessors_and_display() {
        let f = Fault::WayFault {
            node: NodeId::new(1),
            way: 5,
        };
        assert_eq!(f.node(), NodeId::new(1));
        assert_eq!(f.obs_kind(), cmpqos_obs::FaultKind::WayFault { way: 5 });
        assert!(f.to_string().contains("way 5"));
        let p = Fault::ProbeLoss {
            node: NodeId::new(0),
            count: 3,
        };
        assert_eq!(p.obs_kind(), cmpqos_obs::FaultKind::ProbeLoss { count: 3 });
        assert!(p.to_string().contains("3 probe(s)"));
    }

    #[test]
    fn net_fault_accessors_and_display() {
        let p = Fault::LinkPartition {
            node: NodeId::new(2),
        };
        assert_eq!(p.node(), NodeId::new(2));
        assert_eq!(p.obs_kind(), cmpqos_obs::FaultKind::LinkPartition);
        assert!(p.to_string().contains("partitioned"));
        let h = Fault::LinkHeal {
            node: NodeId::new(2),
        };
        assert_eq!(h.obs_kind(), cmpqos_obs::FaultKind::LinkHeal);
        assert!(h.to_string().contains("healed"));
        let d = Fault::MessageDrop {
            node: NodeId::new(1),
            count: 3,
        };
        assert_eq!(
            d.obs_kind(),
            cmpqos_obs::FaultKind::MessageDrop { count: 3 }
        );
        assert!(d.to_string().contains("3 message(s)"));
    }

    #[test]
    fn churn_fault_accessors_and_display() {
        let j = Fault::NodeJoin {
            node: NodeId::new(5),
        };
        assert_eq!(j.node(), NodeId::new(5));
        assert_eq!(j.obs_kind(), cmpqos_obs::FaultKind::NodeJoin);
        assert!(j.to_string().contains("joins"));
        let r = Fault::NodeRestart {
            node: NodeId::new(2),
        };
        assert_eq!(r.obs_kind(), cmpqos_obs::FaultKind::NodeRestart);
        assert!(r.to_string().contains("restarts"));
        let d = Fault::NodeDrain {
            node: NodeId::new(1),
        };
        assert_eq!(d.obs_kind(), cmpqos_obs::FaultKind::NodeDrain);
        assert!(d.to_string().contains("drains"));
        let f = Fault::LeaseFreeze {
            node: NodeId::new(3),
        };
        assert_eq!(f.obs_kind(), cmpqos_obs::FaultKind::LeaseFreeze);
        assert!(f.to_string().contains("frozen"));
    }

    #[test]
    fn seeded_churn_joins_take_fresh_ids_and_drains_never_repeat() {
        let a = FaultPlan::seeded_churn(33, 4, Cycles::new(200_000), 16).build();
        let b = FaultPlan::seeded_churn(33, 4, Cycles::new(200_000), 16).build();
        assert_eq!(a, b, "same seed, same plan");
        let mut next_id = 4u32;
        let mut drained: Vec<NodeId> = Vec::new();
        for i in a.injections() {
            assert!(i.at >= Cycles::new(50_000) && i.at < Cycles::new(150_000));
            match i.fault {
                Fault::NodeJoin { node } => {
                    assert_eq!(node, NodeId::new(next_id), "joins take the next id");
                    next_id += 1;
                }
                Fault::NodeDrain { node } => {
                    assert_ne!(node, NodeId::new(0), "node 0 is never drained");
                    assert!(node.index() < next_id, "drain of an existing node");
                    assert!(!drained.contains(&node), "one drain per node");
                    drained.push(node);
                }
                Fault::NodeRestart { node } => {
                    assert_ne!(node, NodeId::new(0), "node 0 is never restarted");
                    assert!(node.index() < next_id);
                    assert!(!drained.contains(&node), "no restart after a drain");
                }
                _ => panic!("non-churn fault in a churn plan: {:?}", i.fault),
            }
        }
        assert!(next_id > 4, "some join was generated");
        assert!(!drained.is_empty(), "some drain was generated");
    }

    #[test]
    fn empty_schedule_is_exhausted() {
        let mut s = FaultSchedule::none();
        assert!(s.is_empty());
        assert!(s.is_exhausted());
        assert!(s.due(Cycles::new(1_000_000)).is_empty());
        assert!(s.peek().is_none());
    }
}
