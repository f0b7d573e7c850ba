//! Cross-layer determinism contract of the `cmpqos-engine` worker pool:
//! a batch of seeded, self-contained simulation cells must produce
//! bit-identical results — and byte-identical merged event logs — at
//! every pool width. The properties randomize the cell set (benchmarks,
//! configurations, seeds) and the pool width, then compare the serial
//! (`jobs = 1`) run against the parallel one.

use cmpqos::engine::Engine;
use cmpqos::types::{Instructions, Percent};
use cmpqos::workloads::runner::{run_batch, RunConfig};
use cmpqos::workloads::{Configuration, WorkloadSpec};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const BENCHES: [&str; 3] = ["gobmk", "hmmer", "bzip2"];

/// A randomized but fully-seeded cell set: cell `i` picks its benchmark
/// and configuration by index, its seed from the generated list.
fn cell_set(seeds: &[u64], events: Option<&PathBuf>) -> Vec<RunConfig> {
    let configs = Configuration::all();
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| RunConfig {
            workload: WorkloadSpec::single(BENCHES[i % BENCHES.len()], 4),
            configuration: configs[i % configs.len()],
            scale: 16,
            work: Instructions::new(30_000),
            seed,
            stealing_enabled: true,
            events: events.cloned(),
        })
        .collect()
}

fn tmp_jsonl(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cmpqos-par-det-{tag}-{}.jsonl", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every cell's full outcome — accepted jobs, per-job reports, LAC
    /// accounting, makespan — serializes to the same JSON whether the
    /// batch ran serially or on a multi-worker pool.
    #[test]
    fn parallel_batches_reproduce_serial_results_bit_for_bit(
        seeds in proptest::collection::vec(1u64..500, 1..5),
        jobs in 2usize..5,
    ) {
        let serial = run_batch(cell_set(&seeds, None), 1);
        let parallel = run_batch(cell_set(&seeds, None), jobs);
        prop_assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            let a = serde_json::to_string(a).expect("outcome serializes");
            let b = serde_json::to_string(b).expect("outcome serializes");
            prop_assert_eq!(a, b, "cell {} diverged at jobs={}", i, jobs);
        }
    }

    /// The merged event log — every cell recording into one JSONL file —
    /// is byte-identical at every pool width: shards are replayed in
    /// cell order after the pool drains.
    #[test]
    fn merged_event_timelines_are_byte_identical(
        seeds in proptest::collection::vec(1u64..500, 2..4),
        jobs in 2usize..5,
    ) {
        let serial_path = tmp_jsonl("serial");
        let parallel_path = tmp_jsonl("parallel");
        let _ = std::fs::remove_file(&serial_path);
        let _ = std::fs::remove_file(&parallel_path);

        let _ = run_batch(cell_set(&seeds, Some(&serial_path)), 1);
        let _ = run_batch(cell_set(&seeds, Some(&parallel_path)), jobs);

        let serial = std::fs::read_to_string(&serial_path).expect("serial log written");
        let parallel = std::fs::read_to_string(&parallel_path).expect("parallel log written");
        let _ = std::fs::remove_file(&serial_path);
        let _ = std::fs::remove_file(&parallel_path);

        prop_assert!(!serial.is_empty(), "event log must not be empty");
        let runs = cmpqos::obs::Timeline::per_run(&serial).expect("parseable JSONL");
        prop_assert_eq!(runs.len(), seeds.len(), "one timeline per cell");
        prop_assert_eq!(serial, parallel, "event logs diverged at jobs={}", jobs);
    }

    /// The raw pool agrees with serial iteration for arbitrary pure
    /// functions of the cell index, at any width, including widths much
    /// larger than the cell count.
    #[test]
    fn raw_engine_matches_serial_for_pure_cells(
        inputs in proptest::collection::vec(0u64..1_000_000, 0..40),
        jobs in 1usize..9,
    ) {
        let f = |i: usize, x: u64| x.wrapping_mul(6_364_136_223_846_793_005).rotate_left((i % 63) as u32);
        let serial: Vec<u64> = inputs.iter().enumerate().map(|(i, &x)| f(i, x)).collect();
        let pooled = Engine::new(jobs).run(inputs, f);
        prop_assert_eq!(serial, pooled);
    }
}

/// A panicking cell fails the batch only once every healthy cell has
/// run, and the failure names the cell and its message.
#[test]
fn a_poisoned_cell_fails_alone_without_tearing_down_the_batch() {
    let healthy = AtomicUsize::new(0);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        Engine::new(4).run((0..16u32).collect(), |_, x| {
            assert!(x != 11, "cell 11 is poisoned");
            healthy.fetch_add(1, Ordering::Relaxed);
            x * 2
        })
    }))
    .expect_err("the poisoned cell fails the batch");
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted message");
    assert!(message.contains("1 of 16 cells failed"), "got: {message}");
    assert!(
        message.contains("cell 11 panicked: cell 11 is poisoned"),
        "got: {message}"
    );
    assert_eq!(healthy.into_inner(), 15, "every healthy cell ran");
}

/// The paper's Hybrid-2 slack parameter survives the batch path: the
/// engine does not perturb floating-point configuration state.
#[test]
fn hybrid2_slack_round_trips_through_the_batch() {
    let cells: Vec<RunConfig> = [2.0, 20.0]
        .into_iter()
        .map(|slack| RunConfig {
            workload: WorkloadSpec::single("gobmk", 3),
            configuration: Configuration::Hybrid2 {
                slack: Percent::new(slack),
            },
            scale: 16,
            work: Instructions::new(20_000),
            seed: 1,
            stealing_enabled: true,
            events: None,
        })
        .collect();
    let outcomes = run_batch(cells, 2);
    assert_eq!(
        outcomes[0].configuration,
        Configuration::Hybrid2 {
            slack: Percent::new(2.0)
        }
    );
    assert_eq!(
        outcomes[1].configuration,
        Configuration::Hybrid2 {
            slack: Percent::new(20.0)
        }
    );
}
