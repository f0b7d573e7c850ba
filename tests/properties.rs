//! Property-based tests (proptest) on the core data structures'
//! invariants: cache partitioning accounting, LAC non-overbooking, shadow
//! tags and statistics.

use cmpqos::cache::{CacheConfig, DuplicateTagMonitor, PartitionPolicy, SharedL2};
use cmpqos::qos::{AdmissionRequest, ExecutionMode, Lac, LacConfig, ResourceRequest};
use cmpqos::types::{ByteSize, CoreId, Cycles, JobId, Percent, RunningStats, Ways};
use proptest::prelude::*;

/// A tiny L2 for exhaustive-ish property runs: 8 sets x 4 ways.
fn tiny_l2(policy: PartitionPolicy) -> SharedL2 {
    SharedL2::new(
        CacheConfig::new(
            ByteSize::from_bytes(8 * 4 * 64),
            4,
            ByteSize::from_bytes(64),
            Cycles::new(10),
        )
        .expect("valid tiny config"),
        2,
        policy,
    )
}

proptest! {
    /// Whatever the access stream, the per-core global occupancy always
    /// equals the number of valid lines owned by that core, and the two
    /// cores' occupancies never exceed the cache capacity.
    #[test]
    fn l2_occupancy_accounting_is_exact(
        accesses in proptest::collection::vec((0u32..2, 0u64..64, any::<bool>()), 1..300),
        t0 in 0u16..3,
        t1 in 0u16..3,
    ) {
        let mut l2 = tiny_l2(PartitionPolicy::PerSet);
        l2.set_targets(&[Ways::new(t0), Ways::new(t1)]).expect("t0+t1 <= 4");
        for (core, block, write) in accesses {
            l2.access(CoreId::new(core), block * 64, write);
            let occ0 = l2.occupancy(CoreId::new(0));
            let occ1 = l2.occupancy(CoreId::new(1));
            prop_assert!(occ0 + occ1 <= 32, "{occ0}+{occ1} lines");
            // Per-set counts sum to the global count.
            for c in 0..2u32 {
                let sum: u64 = (0..8u32)
                    .map(|s| u64::from(l2.set_occupancy(CoreId::new(c), s)))
                    .sum();
                prop_assert_eq!(sum, l2.occupancy(CoreId::new(c)));
            }
        }
    }

    /// Under the per-set policy, a core at its target never grows a set
    /// beyond the target (converged sets stay converged).
    #[test]
    fn per_set_partition_respects_targets_after_convergence(
        blocks in proptest::collection::vec(0u64..128, 200..400),
    ) {
        let mut l2 = tiny_l2(PartitionPolicy::PerSet);
        l2.set_targets(&[Ways::new(3), Ways::new(1)]).unwrap();
        // Converge: both cores sweep every set enough times.
        for round in 0..6u64 {
            for s in 0..8u64 {
                for w in 0..4u64 {
                    l2.access(CoreId::new(0), (s + (w + round) * 8) * 64, false);
                }
                l2.access(CoreId::new(1), (s + (round % 2) * 8) * 64, false);
            }
        }
        // Now any further traffic must keep every set within targets.
        for b in blocks {
            let core = CoreId::new((b % 2) as u32);
            l2.access(core, b * 64, false);
            for s in 0..8u32 {
                prop_assert!(l2.set_occupancy(CoreId::new(0), s) <= 3);
                prop_assert!(l2.set_occupancy(CoreId::new(1), s) <= 3);
            }
        }
    }

    /// The LAC never overbooks: at every reservation boundary the summed
    /// usage fits the capacity, regardless of the submission stream.
    #[test]
    fn lac_never_overbooks(
        jobs in proptest::collection::vec(
            (1u32..3, 1u16..9, 10u64..500, 1u64..4, 0u8..3),
            1..60
        ),
    ) {
        let mut lac = Lac::new(LacConfig::default());
        for (i, (cores, ways, tw, dl_factor, mode_sel)) in jobs.into_iter().enumerate() {
            let mode = match mode_sel {
                0 => ExecutionMode::Strict,
                1 => ExecutionMode::Elastic(Percent::new(10.0)),
                _ => ExecutionMode::Opportunistic,
            };
            let _ = lac.admit(
                &AdmissionRequest::builder(
                    JobId::new(i as u32),
                    ResourceRequest::new(cores, Ways::new(ways)),
                    Cycles::new(tw),
                )
                .mode(mode)
                .deadline(Cycles::new(tw * dl_factor + 50))
                .build(),
            );
        }
        let capacity = lac.capacity();
        let points: Vec<Cycles> = lac
            .reservations()
            .iter()
            .flat_map(|r| [r.start, r.end.saturating_sub(Cycles::new(1))])
            .collect();
        for p in points {
            prop_assert!(
                lac.usage_at(p).fits_within(&capacity),
                "overbooked at {}: {}", p, lac.usage_at(p)
            );
        }
    }

    /// Accepted reserved jobs always have `start + duration <= deadline`.
    #[test]
    fn lac_reservations_respect_deadlines(
        jobs in proptest::collection::vec((10u64..200, 1u64..5), 1..40),
    ) {
        let mut lac = Lac::new(LacConfig::default());
        for (i, (tw, dl_factor)) in jobs.into_iter().enumerate() {
            let deadline = Cycles::new(tw * dl_factor + 7);
            let d = lac.admit(
                &AdmissionRequest::builder(
                    JobId::new(i as u32),
                    ResourceRequest::paper_job(),
                    Cycles::new(tw),
                )
                .deadline(deadline)
                .build(),
            );
            if let Some(start) = d.start() {
                prop_assert!(
                    start + Cycles::new(tw) <= deadline,
                    "start {start} + tw {tw} > deadline {deadline}"
                );
            }
        }
    }

    /// The shadow monitor's miss counts are monotone and the miss increase
    /// is never negative; with the full allocation mirrored, the guard
    /// never reports main tags doing *worse* than the shadow on the same
    /// stream.
    #[test]
    fn shadow_monitor_counts_are_consistent(
        stream in proptest::collection::vec((0u32..16, 0u64..64), 1..400),
        ways in 1u16..8,
    ) {
        let mut mon = DuplicateTagMonitor::new(Ways::new(ways), 16, 4);
        // Mirror: a private model of the same geometry decides main hits.
        let mut mirror = DuplicateTagMonitor::new(Ways::new(ways), 16, 4);
        let mut last_shadow = 0;
        for (set, block) in stream {
            // Use the mirror to predict whether this would hit at the
            // original allocation, then feed the real monitor that truth.
            let before = mirror.shadow_misses();
            mirror.observe(set, block, true);
            let hit = mirror.shadow_misses() == before;
            mon.observe(set, block, hit);
            prop_assert!(mon.shadow_misses() >= last_shadow);
            last_shadow = mon.shadow_misses();
        }
        prop_assert!(mon.miss_increase() >= 0.0);
        // Identical behaviour: never exceeds any positive slack.
        prop_assert!(!mon.exceeded(Percent::new(1.0)));
        prop_assert_eq!(mon.main_misses(), mon.shadow_misses());
    }

    /// RunningStats::merge is equivalent to sequential recording.
    #[test]
    fn running_stats_merge_equivalence(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..50),
        split in 0usize..50,
    ) {
        let split = split.min(xs.len());
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..split] {
            a.record(x);
        }
        for &x in &xs[split..] {
            b.record(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        if whole.count() > 0 {
            prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((a.variance() - whole.variance()).abs() / (whole.variance() + 1.0) < 1e-6);
        }
    }

    /// Unpartitioned LRU never evicts the most recently used block.
    #[test]
    fn lru_never_evicts_mru(
        blocks in proptest::collection::vec(0u64..32, 2..200),
    ) {
        let mut l2 = tiny_l2(PartitionPolicy::Unpartitioned);
        let mut last: Option<u64> = None;
        for b in blocks {
            let out = l2.access(CoreId::new(0), b * 64, false);
            if let (Some(prev), Some(ev)) = (last, out.eviction) {
                if prev != b {
                    prop_assert_ne!(ev.block_addr, prev * 64, "evicted the MRU block");
                }
            }
            last = Some(b);
        }
    }

    /// Address slicing by mask and shift equals the division-based
    /// definition — `set = block % sets`, `tag = block / sets`, and back —
    /// at every power-of-two set count from 1 to 2^20.
    #[test]
    fn geometry_slicing_matches_division(
        addrs in proptest::collection::vec(any::<u64>(), 1..48),
        block_log in 3u32..9,
        ways in 1u16..17,
    ) {
        let block = 1u64 << block_log;
        for set_log in 0..=20u32 {
            let sets = 1u64 << set_log;
            let geometry = CacheConfig::new(
                ByteSize::from_bytes(sets * u64::from(ways) * block),
                ways,
                ByteSize::from_bytes(block),
                Cycles::new(1),
            )
            .expect("power-of-two geometry")
            .geometry();
            prop_assert_eq!(u64::from(geometry.sets()), sets);
            for &addr in &addrs {
                let blk = addr / block;
                let (tag, set) = geometry.slice(addr);
                prop_assert_eq!((tag, u64::from(set)), (blk / sets, blk % sets));
                prop_assert_eq!(geometry.unslice(tag, set), (tag * sets + u64::from(set)) * block);
            }
        }
    }
}
