//! Integration tests of the OS-layer scheduling mechanisms: timesharing
//! fairness, context-switch effects, preemption and partition retargeting.

use cmpqos::system::{CmpNode, Placement, SystemConfig, TaskSpec};
use cmpqos::trace::spec;
use cmpqos::types::{CoreId, Cycles, Instructions, JobId, Ways};

const K: u64 = 16;

fn node() -> CmpNode {
    CmpNode::new(SystemConfig::paper_scaled(K))
}

fn task(id: u32, bench: &str, budget: u64, placement: Placement) -> TaskSpec {
    TaskSpec {
        id: JobId::new(id),
        source: spec::scaled(bench, K)
            .unwrap()
            .instantiate(u64::from(id), (u64::from(id) + 1) << 40),
        budget: Instructions::new(budget),
        placement,
        reserved: matches!(placement, Placement::Pinned(_)),
    }
}

#[test]
fn round_robin_timesharing_is_roughly_fair() {
    let mut n = node();
    n.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    // Four floating gobmk tasks on four cores: each should get its own
    // core (work conserving), so progress is near-identical.
    for i in 0..4 {
        n.spawn(task(i, "gobmk", 10_000_000, Placement::Floating))
            .unwrap();
    }
    n.run_until(Cycles::new(2_000_000));
    let progress: Vec<u64> = (0..4)
        .map(|i| n.perf(JobId::new(i)).unwrap().instructions().get())
        .collect();
    let max = *progress.iter().max().unwrap() as f64;
    let min = *progress.iter().min().unwrap() as f64;
    assert!(min > 0.0, "everyone ran: {progress:?}");
    assert!(min / max > 0.7, "fair split: {progress:?}");
}

#[test]
fn eight_floating_tasks_share_four_cores() {
    let mut n = node();
    n.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    for i in 0..8 {
        n.spawn(task(i, "gobmk", 10_000_000, Placement::Floating))
            .unwrap();
    }
    n.run_until(Cycles::new(4_000_000));
    let progress: Vec<u64> = (0..8)
        .map(|i| n.perf(JobId::new(i)).unwrap().instructions().get())
        .collect();
    assert!(
        progress.iter().all(|&p| p > 0),
        "round robin reaches every task: {progress:?}"
    );
    let max = *progress.iter().max().unwrap() as f64;
    let min = *progress.iter().min().unwrap() as f64;
    assert!(min / max > 0.4, "no starvation: {progress:?}");
}

#[test]
fn context_switches_cost_time() {
    // One core, two floating tasks: their combined throughput is lower
    // than one task of double length (switch cost + L1 cold misses).
    let mut solo = CmpNode::new(SystemConfig {
        num_cores: 1,
        ..SystemConfig::paper_scaled(K)
    });
    solo.set_l2_targets(&[Ways::new(16)]).unwrap();
    solo.spawn(task(0, "gobmk", 400_000, Placement::Floating))
        .unwrap();
    let solo_end = solo.run_to_completion(Cycles::new(u64::MAX / 4));

    let mut shared = CmpNode::new(SystemConfig {
        num_cores: 1,
        timeslice: Cycles::new(20_000), // aggressive switching
        ..SystemConfig::paper_scaled(K)
    });
    shared.set_l2_targets(&[Ways::new(16)]).unwrap();
    shared
        .spawn(task(0, "gobmk", 200_000, Placement::Floating))
        .unwrap();
    shared
        .spawn(task(1, "gobmk", 200_000, Placement::Floating))
        .unwrap();
    let shared_end = shared.run_to_completion(Cycles::new(u64::MAX / 4));

    assert!(
        shared_end > solo_end,
        "same total work with switching must take longer: {shared_end} vs {solo_end}"
    );
}

#[test]
fn repartitioning_mid_run_changes_performance() {
    // Start bzip2 with 2 ways, then grant it 14: the post-grant interval
    // must run at a lower CPI.
    let mut n = node();
    n.set_l2_targets(&[Ways::new(2), Ways::ZERO, Ways::ZERO, Ways::ZERO])
        .unwrap();
    n.spawn(task(
        0,
        "bzip2",
        2_000_000,
        Placement::Pinned(CoreId::new(0)),
    ))
    .unwrap();
    n.run_until(Cycles::new(1_500_000));
    let before = *n.perf(JobId::new(0)).unwrap();
    n.set_l2_targets(&[Ways::new(14), Ways::ZERO, Ways::ZERO, Ways::ZERO])
        .unwrap();
    n.run_until(Cycles::new(6_000_000));
    let after = n.perf(JobId::new(0)).unwrap().delta_since(&before);
    let cpi_before = before.cpi();
    let cpi_after = after.cpi();
    assert!(
        cpi_after < cpi_before * 0.92,
        "more ways must speed bzip2 up: {cpi_before:.2} -> {cpi_after:.2}"
    );
}

#[test]
fn bus_utilization_rises_with_streaming_load() {
    let mut idle = node();
    idle.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    idle.spawn(task(0, "namd", 100_000, Placement::Pinned(CoreId::new(0))))
        .unwrap();
    idle.run_until(Cycles::new(400_000));
    let low = idle.bus_utilization();

    let mut busy = node();
    busy.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    for i in 0..4 {
        busy.spawn(task(
            i,
            "milc",
            1_000_000,
            Placement::Pinned(CoreId::new(i)),
        ))
        .unwrap();
    }
    busy.run_until(Cycles::new(400_000));
    let high = busy.bus_utilization();
    assert!(
        high > low,
        "four milc streams must load the bus more: {high} vs {low}"
    );
    assert!(high > 0.05, "streaming load is visible: {high}");
}

#[test]
fn equal_part_style_timesharing_misses_more_than_dedicated() {
    // Ten floating gobmk jobs vs two pinned ones: per-job wall-clock is
    // much higher when overcommitted, the EqualPart effect behind
    // Figure 6's candles.
    let mut over = CmpNode::new(SystemConfig {
        timeslice: Cycles::new(20_000),
        context_switch_cost: Cycles::new(500),
        ..SystemConfig::paper_scaled(K)
    });
    over.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    for i in 0..10 {
        over.spawn(task(i, "gobmk", 100_000, Placement::Floating))
            .unwrap();
    }
    over.run_to_completion(Cycles::new(u64::MAX / 4));
    let over_wall: Vec<u64> = (0..10)
        .map(|i| {
            let c = over.completion(JobId::new(i)).unwrap();
            (c.finished_at - c.started_at).get()
        })
        .collect();

    let mut dedicated = node();
    dedicated
        .set_l2_targets(&[Ways::new(7), Ways::new(7), Ways::ZERO, Ways::ZERO])
        .unwrap();
    dedicated
        .spawn(task(0, "gobmk", 100_000, Placement::Pinned(CoreId::new(0))))
        .unwrap();
    dedicated.run_to_completion(Cycles::new(u64::MAX / 4));
    let ded = dedicated.completion(JobId::new(0)).unwrap();
    let ded_wall = (ded.finished_at - ded.started_at).get();

    let mean_over = over_wall.iter().sum::<u64>() / 10;
    assert!(
        mean_over > ded_wall * 2,
        "overcommit stretches wall-clock: {mean_over} vs {ded_wall}"
    );
}
