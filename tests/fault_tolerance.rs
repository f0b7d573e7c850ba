//! Property-based fault-tolerance tests: whatever fault schedule is
//! thrown at the admission layer — dead ways, dead cores, lost probes,
//! whole nodes dying, in any order, at any time — no admitted reservation
//! is ever silently lost. Every job ends in exactly one terminal state:
//! completed (possibly after migrating to a survivor) or revoked with a
//! reason.

use cmpqos::experiments::chaos::{self, ChaosParams};
use cmpqos::faults::FaultPlan;
use cmpqos::recovery::fnv1a64;
use cmpqos::types::{CoreId, Cycles, NodeId};
use proptest::prelude::*;

proptest! {
    #[test]
    fn no_reservation_is_silently_lost_under_any_fault_schedule(
        faults in proptest::collection::vec(
            (0u64..60_000, 0u32..3, 0u32..4, 0u16..16),
            0..12,
        ),
        seed in 0u64..50,
    ) {
        let mut p = ChaosParams::standard();
        p.horizon = Cycles::new(60_000);
        p.seed = seed;
        let mut plan = FaultPlan::new();
        for (at, node, kind, idx) in faults {
            let at = Cycles::new(at);
            let node = NodeId::new(node);
            plan = match kind {
                0 => plan.way_fault(at, node, idx),
                1 => plan.core_fault(at, node, CoreId::new(u32::from(idx) % 4)),
                2 => plan.probe_loss(at, node, u32::from(idx) % 5 + 1),
                // Unrestricted: the schedule may kill *every* node,
                // including node 0 — jobs must then surface as revoked.
                _ => plan.node_fault(at, node),
            };
        }
        let o = chaos::run(&p, plan.build());
        prop_assert!(
            o.stranded().is_empty(),
            "stranded reservations: {:?}",
            o.stranded()
        );
        for f in &o.fates {
            if f.admitted.is_some() {
                prop_assert!(
                    f.completed.is_some() ^ f.revoked,
                    "job {} must end completed XOR revoked: {f:?}",
                    f.id
                );
            } else {
                // Never-admitted jobs acquire no terminal fault state.
                prop_assert!(f.completed.is_none() && !f.revoked, "{f:?}");
            }
        }
        // The event stream accounts for the same story: one Completed or
        // ReservationRevoked record per admitted job.
        let tl = o.timeline();
        for f in &o.fates {
            if f.admitted.is_some() {
                let jt = tl.job(f.id).expect("admitted jobs appear in the log");
                prop_assert_eq!(jt.completed.is_some(), f.completed.is_some());
                prop_assert_eq!(jt.revoked.is_some(), f.revoked);
            }
        }
    }
}

/// perfbench's failover cell: 104 nodes, 600 jobs, the seeded faults plus
/// a node kill, and a controller crash at 300,000 recovered from the
/// journal. The crashed cell must end every job as the uncrashed cell
/// does, and its fates and event stream are pinned by digests.
#[test]
fn the_benchmark_failover_cell_recovers_to_the_uncrashed_outcome() {
    for (seed, expected) in [(1, 0x7466_2c66_10d2_7c8a), (7919, 0x7795_ed64_c64d_40e0)] {
        let mut p = ChaosParams::standard();
        p.nodes = 104;
        p.jobs = 600;
        p.seed = seed;
        let uncrashed = chaos::run(&p, p.schedule());
        p.crash_at = Some(Cycles::new(300_000));
        let crashed = chaos::run(&p, p.schedule());
        assert_eq!(crashed.fates, uncrashed.fates, "seed {seed}");
        assert_eq!(crashed.live_nodes, uncrashed.live_nodes, "seed {seed}");
        assert!(crashed.stranded().is_empty(), "seed {seed}");
        let digest = fnv1a64(format!("{:?}{:?}", crashed.fates, crashed.records).as_bytes());
        assert_eq!(digest, expected, "seed {seed}: {digest:#x}");
    }
}
