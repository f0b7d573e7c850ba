//! Differential tests: the production admission stack against the
//! testkit's brute-force reference oracles, and the synthetic trace
//! generator against the `f64` sampler it replaced.
//!
//! Scale the explorer with `CMPQOS_TESTKIT_CASES` (see `tests/README.md`);
//! any divergence prints a shrunken counterexample and a one-line repro
//! command (`cmpqos explore --kind ... --seed ... --scenarios 1`).

use cmpqos::qos::{
    AdmissionRequest, Decision, ExecutionMode, Lac, LacConfig, ResourceRequest, RevocationAction,
};
use cmpqos::testkit::oracle::{OracleLac, OracleRevocation, OracleTrace};
use cmpqos::testkit::scenario::{self, ScenarioKind};
use cmpqos::testkit::shadow::{self, GuardHarness, GuardHarnessConfig};
use cmpqos::trace::{spec, BenchmarkProfile, Component, TraceSource};
use cmpqos::types::{ByteSize, Cycles, JobId, Percent, Ways};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded random scenarios of every kind, diffed against the oracles.
/// `run_lac`/`run_intake` additionally re-check the full reservation table
/// and the no-overbooking invariant after every operation.
#[test]
fn explorer_finds_no_divergences_in_any_scenario_kind() {
    for (kind, default, base_seed) in [
        (ScenarioKind::Lac, 12, 0xA11),
        (ScenarioKind::Intake, 12, 0xB22),
        (ScenarioKind::Scheduler, 3, 0xC33),
        (ScenarioKind::Gac, 6, 0xD44),
        (ScenarioKind::Net, 6, 0xE55),
        (ScenarioKind::Traffic, 12, 0xF66),
    ] {
        let n = cmpqos::testkit::cases(default);
        let report = scenario::explore(base_seed, n, &[kind]);
        assert_eq!(report.scenarios_run, n, "{kind:?} stopped early");
        if let Some(d) = report.divergence {
            panic!("{kind:?} diverged:\n{}", d.render());
        }
    }
}

fn supply(cores: u32, ways: u16) -> ResourceRequest {
    ResourceRequest::new(cores, Ways::new(ways)).with_bandwidth(100)
}

/// Admits a fixed mixed-mode job set into both controllers.
fn admitted_pair() -> (Lac, OracleLac) {
    let config = LacConfig::default();
    let mut lac = Lac::new(config);
    let mut oracle = OracleLac::new(config.capacity);
    let jobs: &[(u32, ExecutionMode, u32, u16, u64)] = &[
        (0, ExecutionMode::Strict, 2, 8, 400),
        (1, ExecutionMode::Elastic(Percent::new(25.0)), 1, 6, 300),
        (2, ExecutionMode::Strict, 1, 4, 500),
        (3, ExecutionMode::Elastic(Percent::new(50.0)), 2, 10, 250),
        (4, ExecutionMode::Opportunistic, 1, 2, 200),
        (5, ExecutionMode::Elastic(Percent::new(100.0)), 1, 12, 350),
        (6, ExecutionMode::Strict, 3, 14, 450),
    ];
    for &(id, mode, cores, ways, tw) in jobs {
        let request = supply(cores, ways);
        let deadline = Cycles::new(10_000 + u64::from(id) * 500);
        let req = AdmissionRequest::builder(JobId::new(id), request, Cycles::new(tw))
            .mode(mode)
            .deadline(deadline)
            .build();
        let got = lac.admit(&req);
        let want = oracle.admit(
            JobId::new(id),
            mode,
            request,
            Cycles::new(tw),
            Some(deadline),
        );
        assert_eq!(got, want, "admit(job {id}) disagreed before any revocation");
    }
    (lac, oracle)
}

/// `Lac::revoke_capacity` + `readmit` pinned against the oracle under
/// every order of a shrink/regrow capacity sequence: identical
/// keep/downgrade/evict verdicts, identical FCFS re-placement decisions,
/// identical reservation tables, and a never-overbooked timeline.
#[test]
fn revocation_and_readmission_match_the_oracle_in_any_order() {
    let levels = [(3u32, 12u16), (2, 8), (1, 4)];
    let orders: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for order in orders {
        let (mut lac, mut oracle) = admitted_pair();
        let mut now = Cycles::ZERO;
        for (step, &slot) in order.iter().enumerate() {
            let (cores, ways) = levels[slot];
            now += Cycles::new(50);
            let got = lac.revoke_capacity(supply(cores, ways), now);
            let want = oracle.revoke_capacity(supply(cores, ways), now);
            assert_eq!(
                got.len(),
                want.len(),
                "order {order:?} step {step}: revocation counts differ"
            );
            let mut evicted = Vec::new();
            for (g, (wid, w)) in got.iter().zip(&want) {
                assert_eq!(
                    g.id, *wid,
                    "order {order:?} step {step}: FCFS order differs"
                );
                assert_eq!(
                    OracleRevocation::of(&g.action),
                    *w,
                    "order {order:?} step {step}: job {:?} verdict differs",
                    g.id
                );
                if let RevocationAction::Evicted { reservation, .. } = g.action {
                    evicted.push(reservation);
                }
            }
            for r in &evicted {
                let got: Decision = lac.readmit(r);
                let want = oracle.readmit(r);
                assert_eq!(
                    got, want,
                    "order {order:?} step {step}: readmit({:?}) disagreed",
                    r.id
                );
            }
            oracle
                .table_matches(&lac)
                .unwrap_or_else(|e| panic!("order {order:?} step {step}: {e}"));
            assert_eq!(
                oracle.first_overbooked_instant(),
                None,
                "order {order:?} step {step}: timeline overbooked"
            );
        }
    }
}

/// The intentionally-broken guard (built at `X + 1` percentage points,
/// asserted at `X`) is caught by the fine-grained off-by-one probe, while
/// the honest guard passes both the probe and the full replay harness.
#[test]
fn off_by_one_guard_is_caught_and_honest_guard_is_clean() {
    assert!(
        shadow::off_by_one_probe(5.0, 0.0).is_empty(),
        "honest guard flagged by the off-by-one probe"
    );
    let violations = shadow::off_by_one_probe(5.0, 1.0);
    assert!(
        !violations.is_empty(),
        "X off-by-one guard escaped the probe"
    );

    let honest = GuardHarness::new(GuardHarnessConfig::default()).run();
    assert!(honest.violations.is_empty(), "{:?}", honest.violations);
    assert!(
        honest.cancelled,
        "honest guard never cancelled under pressure"
    );
}

/// Seeds 1 and 7919, then `cases(4)` more drawn from a fixed seed.
fn trace_seeds() -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(0x7ACE);
    let extra = cmpqos::testkit::cases(4);
    [1, 7919]
        .into_iter()
        .chain((0..extra).map(|_| rng.gen::<u64>()))
        .collect()
}

/// `profile`'s production trace and its `f64` oracle emit the same
/// `events` instructions from the same seed and base, and count them alike.
fn assert_trace_matches_oracle(profile: &BenchmarkProfile, seed: u64, events: u64, what: &str) {
    let base = 3 << 36;
    let mut trace = profile.instantiate(seed, base);
    let mut oracle = OracleTrace::new(profile, seed, base);
    for i in 0..events {
        let (got, want) = (trace.next_instruction(), oracle.next_instruction());
        assert_eq!(got, want, "{what}, seed {seed}: event {i}");
    }
    assert_eq!(trace.generated(), oracle.generated(), "{what}, seed {seed}");
}

/// Every built-in profile at three cache scales: the integer draws pick
/// the memory events, components, blocks and writes the `f64` sampler
/// picks, with the same number of words drawn per instruction.
#[test]
fn synthetic_traces_match_the_f64_oracle_on_every_spec_profile() {
    let seeds = trace_seeds();
    for name in spec::names() {
        for scale in [1, 8, 16] {
            let profile = spec::scaled(name, scale).expect("built-in benchmark");
            for &seed in &seeds {
                let what = format!("{name} at scale {scale}");
                assert_trace_matches_oracle(&profile, seed, 20_000, &what);
            }
        }
    }
}

/// Profiles at the edges of each threshold: ratios of 0 and 1, a write
/// fraction of 0 (which draws no word) and of 2^-53, cumulative weights
/// that land exactly on dyadic values, a leading zero-weight component,
/// footprints of one and two blocks (streams that wrap at once) and of
/// a block and a half, and eight components.
#[test]
fn synthetic_traces_match_the_f64_oracle_on_edge_profiles() {
    let ws = |bytes: u64, weight: f64, write_fraction: f64| Component::WorkingSet {
        size: ByteSize::from_bytes(bytes),
        weight,
        write_fraction,
    };
    let stream = |bytes: u64, weight: f64, write_fraction: f64| Component::Stream {
        region: ByteSize::from_bytes(bytes),
        weight,
        write_fraction,
    };
    let tiny = 1.0 / (1u64 << 53) as f64;
    let eight: Vec<Component> = (0..8u32)
        .map(|i| {
            let (bytes, weight, wf) = (64 << i, f64::from(i + 1), f64::from(i) / 7.0);
            if i % 3 == 2 {
                stream(bytes, weight, wf)
            } else {
                ws(bytes, weight, wf)
            }
        })
        .collect();
    let cases: Vec<(&str, f64, Vec<Component>)> = vec![
        ("mem_ratio 0", 0.0, vec![ws(4096, 1.0, 0.5)]),
        ("mem_ratio 0.5", 0.5, vec![ws(4096, 1.0, 0.5)]),
        ("mem_ratio 1", 1.0, vec![ws(4096, 1.0, 0.5)]),
        ("write fraction 0", 1.0, vec![ws(4096, 1.0, 0.0)]),
        ("write fraction 2^-53", 1.0, vec![ws(4096, 1.0, tiny)]),
        ("write fraction 1", 1.0, vec![ws(4096, 1.0, 1.0)]),
        (
            "cumulative weights 1/4, 1/2, 1",
            0.75,
            vec![
                ws(512, 1.0, 0.25),
                stream(8192, 1.0, 0.0),
                ws(512, 2.0, 1.0),
            ],
        ),
        (
            "cumulative weights 1/8, 1/2, 1",
            1.0,
            vec![ws(512, 0.125, 0.5), ws(512, 0.375, tiny), ws(512, 0.5, 0.0)],
        ),
        (
            "a leading zero-weight component",
            1.0,
            vec![ws(1024, 0.0, 0.5), ws(1024, 1.0, 0.5)],
        ),
        ("a 1-block working set", 1.0, vec![ws(64, 1.0, 0.5)]),
        ("a 1.5-block working set", 1.0, vec![ws(96, 1.0, 0.5)]),
        ("a 1-block stream", 1.0, vec![stream(64, 1.0, 0.5)]),
        (
            "a 2-block stream",
            1.0,
            vec![stream(128, 1.0, 0.5), ws(256, 1.0, 0.5)],
        ),
        ("8 components", 0.6, eight),
    ];
    let seeds = trace_seeds();
    for (what, mem_ratio, components) in cases {
        let profile = components
            .into_iter()
            .fold(
                BenchmarkProfile::builder(what).mem_ratio(mem_ratio),
                |b, c| b.component(c),
            )
            .build()
            .expect("a valid edge profile");
        for &seed in &seeds {
            assert_trace_matches_oracle(&profile, seed, 50_000, what);
        }
    }
}
