//! Differential property test pinning the indexed admission path against
//! the brute-force oracle: for *any* op stream — earliest and
//! latest-feasible admissions, batches, advances, releases, cancels,
//! capacity revocations with FCFS readmission — the indexed
//! [`JournaledLac`] must make byte-identical decisions to [`OracleLac`]
//! and end every op with an identical reservation table and a
//! never-overbooked timeline. `CMPQOS_TESTKIT_CASES` sets the number of
//! fuzzed streams (48 by default).
//!
//! A second test pins both to one arithmetic rule: a usage sum past a
//! request field's range never fits and never wraps.

use cmpqos::obs::NullRecorder;
use cmpqos::qos::{
    AdmissionRequest, Decision, ExecutionMode, Feasibility, Lac, LacConfig, LacState, RejectReason,
    Reservation, ResourceRequest, RevocationAction,
};
use cmpqos::recovery::JournaledLac;
use cmpqos::testkit::oracle::{OracleLac, OracleRevocation};
use cmpqos::types::{Cycles, JobId, Percent, Ways};
use proptest::prelude::*;

const COMPACT_EVERY: u64 = 8;

/// One fuzzed op: `(kind, a, b)` small integers decoded by [`step`] (the
/// vendored proptest has no `prop_map`, so the raw tuple is the value).
type FuzzOp = (u8, u64, u64);

fn mode_of(b: u64) -> ExecutionMode {
    match b % 4 {
        0 => ExecutionMode::Strict,
        1 => ExecutionMode::Elastic(Percent::new(25.0)),
        2 => ExecutionMode::Elastic(Percent::new(100.0)),
        _ => ExecutionMode::Opportunistic,
    }
}

fn request_of(a: u64, b: u64) -> ResourceRequest {
    ResourceRequest::new((a % 4) as u32, Ways::new((b % 10) as u16)).with_bandwidth((a % 51) as u16)
}

/// Applies one decoded op to both controllers and diffs everything
/// observable. Returns an error string on the first divergence.
fn step(
    i: usize,
    op: FuzzOp,
    now: &mut u64,
    lac: &mut JournaledLac,
    oracle: &mut OracleLac,
) -> Result<(), String> {
    let (kind, a, b) = op;
    let id = JobId::new(i as u32);
    match kind % 8 {
        0 | 1 => {
            let mut req = AdmissionRequest::builder(id, request_of(a, b), Cycles::new(1 + a % 400))
                .mode(mode_of(b));
            if b % 3 != 0 {
                req = req.deadline(Cycles::new(*now + a % 1_500));
            }
            let req = req.build();
            let got = lac.admit(&req);
            let want = oracle.admit_request(&req);
            if got != want {
                return Err(format!(
                    "op {i}: admit {req:?}: lac {got:?} vs oracle {want:?}"
                ));
            }
        }
        2 => {
            let req = AdmissionRequest::builder(id, request_of(a, b), Cycles::new(1 + a % 400))
                .deadline(Cycles::new(*now + b * 37))
                .latest_feasible()
                .build();
            let got = lac.admit(&req);
            let want = oracle.admit_request(&req);
            if got != want {
                return Err(format!(
                    "op {i}: latest-feasible admit {req:?}: lac {got:?} vs oracle {want:?}"
                ));
            }
        }
        3 => {
            // A small batch of earliest-placement requests in one call.
            let reqs: Vec<AdmissionRequest> = (0..1 + b % 4)
                .map(|k| {
                    AdmissionRequest::builder(
                        JobId::new((1_000 + 10 * i + k as usize) as u32),
                        request_of(a + k, b + k),
                        Cycles::new(1 + (a + 31 * k) % 400),
                    )
                    .mode(mode_of(b + k))
                    .deadline(Cycles::new(*now + 200 + (a + 97 * k) % 1_500))
                    .build()
                })
                .collect();
            let got = lac.admit_batch(&reqs, &mut NullRecorder);
            for (req, g) in reqs.iter().zip(got) {
                let want = oracle.admit_request(req);
                if g != want {
                    return Err(format!(
                        "op {i}: batched admit {req:?}: lac {g:?} vs oracle {want:?}"
                    ));
                }
            }
        }
        4 => {
            *now += a % 1_200;
            lac.advance(Cycles::new(*now));
            oracle.advance(Cycles::new(*now));
        }
        5 => {
            let victim = JobId::new((a % (i as u64 + 1)) as u32);
            lac.release(victim, Cycles::new(*now));
            oracle.release(victim, Cycles::new(*now));
        }
        6 => {
            let victim = JobId::new((a % (i as u64 + 1)) as u32);
            lac.cancel(victim);
            oracle.cancel(victim);
        }
        _ => {
            let supply = ResourceRequest::new(1 + (a % 4) as u32, Ways::new(4 + (b % 13) as u16))
                .with_bandwidth(100);
            let got = lac.revoke_capacity(supply, Cycles::new(*now));
            let want = oracle.revoke_capacity(supply, Cycles::new(*now));
            if got.len() != want.len() {
                return Err(format!(
                    "op {i}: revoke returned {} outcomes vs oracle {}",
                    got.len(),
                    want.len()
                ));
            }
            let mut evicted = Vec::new();
            for (g, (wid, w)) in got.iter().zip(&want) {
                if g.id != *wid || OracleRevocation::of(&g.action) != *w {
                    return Err(format!(
                        "op {i}: revoke verdict {:?}/{:?} vs oracle {wid:?}/{w:?}",
                        g.id, g.action
                    ));
                }
                if let RevocationAction::Evicted { reservation, .. } = g.action {
                    evicted.push(reservation);
                }
            }
            for r in &evicted {
                let got = lac.readmit(r);
                let want = oracle.readmit(r);
                if got != want {
                    return Err(format!(
                        "op {i}: readmit({:?}): lac {got:?} vs oracle {want:?}",
                        r.id
                    ));
                }
            }
        }
    }
    oracle
        .table_matches(lac.lac())
        .map_err(|e| format!("op {i}: {e}"))?;
    if let Some(t) = oracle.first_overbooked_instant() {
        return Err(format!("op {i}: timeline overbooked at {t}"));
    }
    Ok(())
}

fn op_strategy() -> impl Strategy<Value = Vec<FuzzOp>> {
    proptest::collection::vec((0u8..8, 0u64..10_000, 0u64..64), 1..50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cmpqos::testkit::cases(48) as u32))]

    /// The indexed hot path never disagrees with brute force, op by op.
    #[test]
    fn indexed_lac_is_decision_identical_to_the_oracle(ops in op_strategy()) {
        let config = LacConfig::default();
        let mut lac = JournaledLac::new(Lac::new(config), COMPACT_EVERY);
        let mut oracle = OracleLac::new(config.capacity);
        let mut now = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            if let Err(e) = step(i, op, &mut now, &mut lac, &mut oracle) {
                prop_assert!(false, "{}", e);
            }
        }
    }
}

/// On a node of 65,535 ways, a 40,000-way request over a 40,000-way
/// reservation sums to 80,000 ways, past the `u16` field: it must be
/// refused, not wrap to 14,464 and fit. A snapshot holding both anyway
/// (overbooked) must restore, read, journal and recover without an
/// overflow.
#[test]
fn a_sum_past_a_request_field_never_fits_or_wraps() {
    let mut config = LacConfig::default();
    config.capacity = ResourceRequest::new(4, Ways::new(u16::MAX));
    let wide = ResourceRequest::new(1, Ways::new(40_000));
    let window = Cycles::new(1_000);
    let held = |id| Reservation {
        id: JobId::new(id),
        start: Cycles::ZERO,
        end: window,
        request: wide,
        mode: ExecutionMode::Strict,
        deadline: Some(window),
    };
    let state = |reservations| LacState {
        config,
        now: Cycles::ZERO,
        reservations,
        admission_tests: 0,
        accepted: 0,
        rejected: 0,
        modeled_cost: Cycles::ZERO,
    };

    let mut lac = JournaledLac::new(Lac::restore(state(vec![held(0)])), COMPACT_EVERY);
    let mut oracle = OracleLac::from_parts(config.capacity, vec![held(0)], Cycles::ZERO);
    let req = AdmissionRequest::builder(JobId::new(1), wide, window)
        .deadline(window)
        .build();
    let refused = Decision::Rejected(RejectReason::NoCapacityBeforeDeadline);
    assert_eq!(lac.admit(&req), refused);
    assert_eq!(oracle.admit_request(&req), refused);
    assert_eq!(lac.lac().usage_at(Cycles::ZERO), wide);
    let (recovered, report) = JournaledLac::recover(&lac.to_jsonl(), COMPACT_EVERY);
    assert_eq!((report.replayed, report.lost), (1, 0));
    assert_eq!(recovered.lac(), lac.lac());

    let both = Lac::restore(state(vec![held(0), held(1)]));
    let oracle = OracleLac::from_parts(config.capacity, vec![held(0), held(1)], Cycles::ZERO);
    let saturated = ResourceRequest::new(2, Ways::new(u16::MAX));
    assert_eq!(both.usage_at(Cycles::ZERO), saturated);
    assert_eq!(oracle.usage_at(Cycles::ZERO), saturated);
    assert_eq!(oracle.first_overbooked_instant(), Some(Cycles::ZERO));
    let nothing = ResourceRequest::new(0, Ways::ZERO);
    assert!(!both.fits_over(&nothing, Cycles::ZERO, window));
    assert!(!oracle.fits_over(&nothing, Cycles::ZERO, window));
    let journal = JournaledLac::new(both.clone(), COMPACT_EVERY).to_jsonl();
    let (recovered, report) = JournaledLac::recover(&journal, COMPACT_EVERY);
    assert_eq!(report.lost, 0);
    assert_eq!(recovered.lac(), &both);
}
