//! Property-style invariants of the simulation engine itself: work
//! conservation, completion monotonicity and cycle accounting, under
//! randomized task mixes.

use cmpqos::system::{CmpNode, Placement, SystemConfig, TaskSpec};
use cmpqos::trace::spec;
use cmpqos::types::{CoreId, Cycles, Instructions, JobId, Ways};
use proptest::prelude::*;

const K: u64 = 16;

fn spawn(n: &mut CmpNode, id: u32, bench: &str, budget: u64, pinned: Option<u32>) {
    let placement = match pinned {
        Some(c) => Placement::Pinned(CoreId::new(c)),
        None => Placement::Floating,
    };
    n.spawn(TaskSpec {
        id: JobId::new(id),
        source: spec::scaled(bench, K)
            .unwrap()
            .instantiate(u64::from(id) + 77, (u64::from(id) + 1) << 40),
        budget: Instructions::new(budget),
        placement,
        reserved: pinned.is_some(),
    })
    .expect("spawn succeeds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every spawned task retires exactly its budget, no matter the mix of
    /// pinned and floating tasks.
    #[test]
    fn instruction_budgets_are_conserved(
        budgets in proptest::collection::vec(1_000u64..30_000, 1..7),
        pin_mask in any::<u8>(),
    ) {
        let mut n = CmpNode::new(SystemConfig {
            timeslice: Cycles::new(10_000),
            ..SystemConfig::paper_scaled(K)
        });
        n.set_l2_targets(&[Ways::new(4); 4]).unwrap();
        let benches = ["gobmk", "hmmer", "namd", "bzip2"];
        let mut next_pin = 0u32;
        for (i, &b) in budgets.iter().enumerate() {
            let pin = if pin_mask & (1 << (i % 8)) != 0 && next_pin < 4 {
                next_pin += 1;
                Some(next_pin - 1)
            } else {
                None
            };
            spawn(&mut n, i as u32, benches[i % benches.len()], b, pin);
        }
        n.run_to_completion(Cycles::new(u64::MAX / 4));
        for (i, &b) in budgets.iter().enumerate() {
            let perf = n.perf(JobId::new(i as u32)).expect("task ran");
            prop_assert_eq!(perf.instructions().get(), b, "task {}", i);
            prop_assert!(perf.cycles().get() >= b, "cpi >= 1");
        }
    }

    /// Completion records are consistent: started <= finished, and a
    /// task's charged cycles never exceed its start-to-finish window.
    #[test]
    fn completion_times_bound_charged_cycles(
        budgets in proptest::collection::vec(1_000u64..20_000, 1..5),
    ) {
        let mut n = CmpNode::new(SystemConfig::paper_scaled(K));
        n.set_l2_targets(&[Ways::new(4); 4]).unwrap();
        for (i, &b) in budgets.iter().enumerate() {
            spawn(&mut n, i as u32, "gobmk", b, None);
        }
        n.run_to_completion(Cycles::new(u64::MAX / 4));
        for i in 0..budgets.len() {
            let id = JobId::new(i as u32);
            let c = n.completion(id).expect("completed");
            prop_assert!(c.started_at <= c.finished_at);
            let perf = n.perf(id).expect("perf kept");
            prop_assert!(
                perf.cycles() <= c.finished_at - c.started_at,
                "occupancy within its window"
            );
        }
    }

    /// Simulation time never runs backwards across run_until calls, and
    /// completions always carry timestamps within the simulated range.
    #[test]
    fn time_is_monotone(steps in proptest::collection::vec(1_000u64..100_000, 1..20)) {
        let mut n = CmpNode::new(SystemConfig::paper_scaled(K));
        n.set_l2_targets(&[Ways::new(4); 4]).unwrap();
        spawn(&mut n, 0, "hmmer", 1_000_000, Some(0));
        let mut now = Cycles::ZERO;
        for s in steps {
            let target = now + Cycles::new(s);
            n.run_until(target);
            prop_assert!(n.now() >= now);
            prop_assert!(n.now() >= target);
            now = n.now();
        }
        for c in n.take_completions() {
            prop_assert!(c.finished_at <= n.now());
        }
    }
}
