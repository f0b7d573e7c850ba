//! Golden pin of the CMP node's simulated machine.
//!
//! One seeded four-core `CmpNode` at scale 16 runs a script that reaches
//! every path of the node's scheduler and memory hierarchy: pinned and
//! floating tasks with quantum rotation and L1 flushes on each switch,
//! `repin` and `set_reserved`, a core throttled below full speed, a
//! duplicate-tag monitor attached before `spawn` and one after, a pinned
//! core re-used after its first task completes, and a `detach_monitor`
//! after completion. The test asserts every task's `PerfCounters` and
//! `TaskCompletion`, the order of the completion records, each monitor's
//! counters, and per-core L2 occupancy and statistics against constants.
//! Any change to the node's storage or batching that moves one simulated
//! number fails here.

use cmpqos::cache::ShadowCounts;
use cmpqos::cpu::PerfCounters;
use cmpqos::system::{CmpNode, Placement, SystemConfig, TaskSpec};
use cmpqos::trace::{spec, SyntheticTrace};
use cmpqos::types::{CoreId, Cycles, Instructions, JobId, Ways};

const K: u64 = 16;

fn trace(bench: &str, seed: u64, id: u32) -> SyntheticTrace {
    let profile = spec::scaled(bench, K).expect("known benchmark");
    profile.instantiate(seed, u64::from(id + 1) << 36)
}

fn task(id: u32, source: SyntheticTrace, budget: u64, placement: Placement) -> TaskSpec {
    TaskSpec {
        id: JobId::new(id),
        source,
        budget: Instructions::new(budget),
        placement,
        reserved: matches!(placement, Placement::Pinned(_)),
    }
}

fn pinned(core: u32) -> Placement {
    Placement::Pinned(CoreId::new(core))
}

/// `[instructions, cycles, base, l2 stall, mem stall, l1 accesses, l2
/// accesses, l2 misses]`.
fn perf_row(p: &PerfCounters) -> [u64; 8] {
    [
        p.instructions().get(),
        p.cycles().get(),
        p.base_cycles().get(),
        p.l2_stall_cycles().get(),
        p.mem_stall_cycles().get(),
        p.l1_accesses(),
        p.l2_accesses(),
        p.l2_misses(),
    ]
}

fn counts_row(c: ShadowCounts) -> [u64; 3] {
    [c.sampled_accesses, c.shadow_misses, c.main_misses]
}

/// What the script observed.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// `(job, perf row)` for every task, in id order.
    perf: Vec<(u32, [u64; 8])>,
    /// `(job, started, finished)` in completion-record order.
    completions: Vec<(u32, u64, u64)>,
    /// Job 2's monitor (attached before spawn), detached after completion.
    monitor_before_spawn: [u64; 3],
    /// Job 3's monitor (attached after spawn), still attached at the end.
    monitor_after_spawn: [u64; 3],
    /// Per core: `[occupancy, accesses, misses, write-backs]`.
    l2: Vec<[u64; 4]>,
    /// Node time when the script ends.
    end: u64,
}

const JOBS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

fn run_script() -> Observed {
    let mut cfg = SystemConfig::paper_scaled(K);
    cfg.timeslice = Cycles::new(40_000);
    cfg.context_switch_cost = Cycles::new(1_500);
    let mut node = CmpNode::new(cfg);
    node.set_l2_targets(&[Ways::new(6), Ways::new(4), Ways::new(3), Ways::new(3)])
        .expect("16 ways split four ways");

    // Monitor attached before its task exists.
    node.attach_monitor(JobId::new(2), Ways::new(4));
    node.spawn(task(1, trace("hmmer", 11, 1), 90_000, pinned(0)))
        .expect("core 0 is free");
    node.spawn(task(2, trace("gobmk", 12, 2), 45_000, pinned(1)))
        .expect("core 1 is free");
    // Three floating tasks share cores 2 and 3 under quantum rotation.
    node.spawn(task(3, trace("bzip2", 13, 3), 70_000, Placement::Floating))
        .expect("fresh id");
    node.spawn(task(4, trace("mcf", 14, 4), 50_000, Placement::Floating))
        .expect("fresh id");
    node.spawn(task(5, trace("mcf", 15, 5), 40_000, Placement::Floating))
        .expect("fresh id");
    assert_eq!(node.set_core_speed(CoreId::new(3), 60), 100);

    node.run_until(Cycles::new(150_000));
    // Monitor attached after its (floating, rotating) task started.
    assert!(node.is_live(JobId::new(3)));
    node.attach_monitor(JobId::new(3), Ways::new(3));

    node.run_until(Cycles::new(300_000));
    // Switch-back path: a floating task re-pinned with reserved priority.
    assert!(node.is_live(JobId::new(4)));
    node.repin(JobId::new(4), CoreId::new(2))
        .expect("core 2 has no pinned task");
    node.set_reserved(JobId::new(4), true);
    // A floating task demoted to opportunistic memory priority and back.
    node.set_reserved(JobId::new(5), true);

    node.run_until(Cycles::new(450_000));
    node.set_reserved(JobId::new(5), false);

    // Late arrivals: one floating, and one pinned to whichever of cores 0
    // and 1 has lost its first pinned task by now (its slot is re-used).
    node.spawn(task(6, trace("soplex", 16, 6), 30_000, Placement::Floating))
        .expect("fresh id");
    let free = (0..2)
        .map(CoreId::new)
        .find(|&c| node.pinned_on(c).is_none())
        .expect("a pinned task on core 0 or 1 has completed");
    node.spawn(task(
        7,
        trace("sjeng", 17, 7),
        35_000,
        Placement::Pinned(free),
    ))
    .expect("the core's pin was released");
    node.spawn(task(8, trace("gobmk", 18, 8), 20_000, Placement::Floating))
        .expect("fresh id");

    let end = node.run_to_completion(Cycles::new(100_000_000));
    assert!(JOBS.iter().all(|&j| !node.is_live(JobId::new(j))));

    let perf = JOBS
        .iter()
        .map(|&j| (j, perf_row(node.perf(JobId::new(j)).expect("ran"))))
        .collect();
    let completions = node
        .take_completions()
        .iter()
        .map(|c| (c.id.index(), c.started_at.get(), c.finished_at.get()))
        .collect::<Vec<_>>();
    for &(j, started, finished) in &completions {
        let c = node.completion(JobId::new(j)).expect("finished");
        assert_eq!(
            (c.started_at.get(), c.finished_at.get()),
            (started, finished)
        );
    }
    let monitor_before_spawn = counts_row(
        node.detach_monitor(JobId::new(2))
            .expect("the monitor survives completion")
            .counts(),
    );
    assert!(node.monitor(JobId::new(2)).is_none());
    let monitor_after_spawn = counts_row(
        node.monitor(JobId::new(3))
            .expect("still attached")
            .counts(),
    );
    let l2 = (0..4)
        .map(|c| {
            let core = CoreId::new(c);
            let s = node.l2().stats(core);
            [
                node.l2().occupancy(core),
                s.accesses(),
                s.misses(),
                s.writebacks(),
            ]
        })
        .collect();
    Observed {
        perf,
        completions,
        monitor_before_spawn,
        monitor_after_spawn,
        l2,
        end: end.get(),
    }
}

/// Captured from the node before the phased trace source was deleted,
/// running this script.
fn golden() -> Observed {
    Observed {
        perf: vec![
            (1, [90000, 214212, 99000, 1340, 113872, 36214, 501, 367]),
            (2, [45000, 147010, 58500, 6850, 81660, 15949, 948, 263]),
            (3, [70000, 504439, 136399, 9717, 358323, 21085, 1899, 1141]),
            (
                4,
                [50000, 1603309, 70795, 19006, 1513508, 18899, 6756, 4871],
            ),
            (
                5,
                [40000, 1255871, 58068, 19947, 1177856, 15098, 5609, 3678],
            ),
            (6, [30000, 519886, 65004, 12997, 441885, 10298, 2179, 1399]),
            (7, [35000, 114682, 41999, 160, 72523, 10347, 245, 229]),
            (8, [20000, 81930, 26000, 3130, 52800, 6974, 480, 167]),
        ],
        completions: vec![
            (2, 0, 147010),
            (1, 0, 214212),
            (7, 450226, 566408),
            (3, 0, 599553),
            (8, 487470, 609654),
            (6, 450000, 1040552),
            (5, 40006, 1383958),
            (4, 0, 1672869),
        ],
        monitor_before_spawn: [358, 34, 34],
        monitor_after_spawn: [318, 128, 118],
        l2: vec![
            [743, 2139, 1049, 79],
            [512, 8953, 3708, 947],
            [384, 9345, 5103, 1266],
            [384, 4900, 2355, 576],
        ],
        end: 1672869,
    }
}

#[test]
fn seeded_four_core_script_matches_the_golden_machine() {
    assert_eq!(run_script(), golden());
}
