//! Admission-control stress and edge-case integration tests.

use cmpqos::qos::gac::{GlobalAdmissionController, ProbePolicy};
use cmpqos::qos::{
    AdmissionRequest, Decision, ExecutionMode, Lac, LacConfig, RejectReason, ResourceRequest,
};
use cmpqos::types::{Cycles, JobId, NodeId, Percent, Ways};

fn lac() -> Lac {
    Lac::new(LacConfig::default())
}

fn req(
    id: u32,
    mode: ExecutionMode,
    request: ResourceRequest,
    tw: u64,
    deadline: Option<u64>,
) -> AdmissionRequest {
    let mut b = AdmissionRequest::builder(JobId::new(id), request, Cycles::new(tw)).mode(mode);
    if let Some(td) = deadline {
        b = b.deadline(Cycles::new(td));
    }
    b.build()
}

#[test]
fn thousand_job_fcfs_stream_is_consistent() {
    // A long stream of paper jobs with mixed deadlines; verify FCFS
    // monotonicity (accepted starts never decrease for same-shape jobs)
    // and bounded usage throughout.
    let mut l = lac();
    let mut last_start = Cycles::ZERO;
    let mut accepted = 0u32;
    for i in 0..1000u32 {
        let deadline = 100 * u64::from(i % 50) + 200;
        let d = l.admit(&req(
            i,
            ExecutionMode::Strict,
            ResourceRequest::paper_job(),
            100,
            Some(deadline),
        ));
        if let Some(start) = d.start() {
            assert!(
                start >= last_start,
                "FCFS starts must not regress: {start} < {last_start}"
            );
            last_start = start;
            accepted += 1;
        }
    }
    assert!(accepted > 10, "stream accepts plenty: {accepted}");
    // No overbooking anywhere on the timeline.
    let cap = l.capacity();
    for r in l.reservations() {
        assert!(l.usage_at(r.start).fits_within(&cap));
    }
}

#[test]
fn release_never_extends_a_reservation() {
    let mut l = lac();
    assert!(l
        .admit(&req(
            0,
            ExecutionMode::Strict,
            ResourceRequest::paper_job(),
            100,
            None,
        ))
        .is_accepted());
    let end_before = l.reservations()[0].end;
    // "Releasing" at a time after the end must not extend it.
    l.release(JobId::new(0), Cycles::new(500));
    assert_eq!(l.reservations()[0].end, end_before);
    // Releasing before the start removes it entirely.
    l.release(JobId::new(0), Cycles::ZERO);
    assert!(l.reservations().is_empty());
}

#[test]
fn elastic_and_strict_compete_fairly_for_capacity() {
    let mut l = lac();
    // Elastic(100%) reserves twice as long.
    let d1 = l.admit(&req(
        0,
        ExecutionMode::Elastic(Percent::new(100.0)),
        ResourceRequest::paper_job(),
        100,
        Some(1_000),
    ));
    assert_eq!(d1.start(), Some(Cycles::ZERO));
    assert_eq!(l.reservations()[0].end, Cycles::new(200));
    // Two more 7-way jobs: the second must queue behind reservation end.
    let d2 = l.admit(&req(
        1,
        ExecutionMode::Strict,
        ResourceRequest::paper_job(),
        100,
        None,
    ));
    assert_eq!(d2.start(), Some(Cycles::ZERO));
    let d3 = l.admit(&req(
        2,
        ExecutionMode::Strict,
        ResourceRequest::paper_job(),
        100,
        None,
    ));
    assert_eq!(
        d3.start(),
        Some(Cycles::new(100)),
        "waits for the strict job"
    );
}

#[test]
fn opportunistic_admission_considers_only_current_instant() {
    let mut l = lac();
    // Reserve all four cores *in the future*.
    for i in 0..4u32 {
        let d = l.admit(&req(
            i,
            ExecutionMode::Strict,
            ResourceRequest::new(1, Ways::new(4)),
            100,
            None,
        ));
        assert!(d.is_accepted());
    }
    // All cores reserved from t=0: opportunistic rejected.
    let d = l.admit(&req(
        10,
        ExecutionMode::Opportunistic,
        ResourceRequest::new(1, Ways::ZERO),
        10,
        None,
    ));
    assert_eq!(d, Decision::Rejected(RejectReason::NoSpareResources));
    // After the reservations expire, opportunistic is welcome again.
    l.advance(Cycles::new(150));
    let d = l.admit(&req(
        11,
        ExecutionMode::Opportunistic,
        ResourceRequest::new(1, Ways::ZERO),
        10,
        None,
    ));
    assert!(d.is_accepted());
}

#[test]
fn bandwidth_dimension_gates_admission() {
    let mut l = lac();
    // Three jobs each wanting 40% of the channel: only two fit at once.
    let request = ResourceRequest::new(1, Ways::new(2)).with_bandwidth(40);
    for i in 0..2u32 {
        let d = l.admit(&req(i, ExecutionMode::Strict, request, 100, Some(105)));
        assert!(d.is_accepted(), "job {i}");
    }
    let d = l.admit(&req(2, ExecutionMode::Strict, request, 100, Some(105)));
    assert!(
        !d.is_accepted(),
        "120% of bandwidth cannot be reserved: {d:?}"
    );
}

#[test]
fn batch_admission_matches_the_sequential_stream() {
    // The same 64-job mixed stream, one-at-a-time vs admit_batch: decisions
    // and final tables must be identical.
    let mut one = lac();
    let mut batch = lac();
    let reqs: Vec<AdmissionRequest> = (0..64u32)
        .map(|i| {
            let mode = match i % 3 {
                0 => ExecutionMode::Strict,
                1 => ExecutionMode::Elastic(Percent::new(50.0)),
                _ => ExecutionMode::Opportunistic,
            };
            req(
                i,
                mode,
                ResourceRequest::paper_job(),
                100,
                if i % 4 == 0 {
                    None
                } else {
                    Some(100 * u64::from(i % 7) + 150)
                },
            )
        })
        .collect();
    let sequential: Vec<Decision> = reqs.iter().map(|r| one.admit(r)).collect();
    let batched = batch.admit_batch(&reqs, &mut cmpqos::obs::NullRecorder);
    assert_eq!(sequential, batched);
    assert_eq!(one.reservations(), batch.reservations());
    assert_eq!(one.accepted(), batch.accepted());
    assert_eq!(one.rejected(), batch.rejected());
}

#[test]
fn gac_places_across_nodes_until_the_server_is_full() {
    let mut gac = GlobalAdmissionController::new(3, LacConfig::default(), ProbePolicy::FirstFit);
    let mut placements = Vec::new();
    for i in 0..7u32 {
        let req = AdmissionRequest::builder(
            JobId::new(i),
            ResourceRequest::paper_job(),
            Cycles::new(100),
        )
        .mode(ExecutionMode::Strict)
        .deadline(Cycles::new(104)) // tight: must start immediately
        .build();
        let (node, d) = gac.submit_request(&req, &mut cmpqos::obs::NullRecorder);
        if d.is_accepted() {
            placements.push(node.unwrap());
        }
    }
    // Two per node at once: six fit, the seventh is rejected.
    assert_eq!(placements.len(), 6);
    for n in 0..3 {
        assert_eq!(
            placements.iter().filter(|&&p| p == NodeId::new(n)).count(),
            2,
            "placements: {placements:?}"
        );
    }
}
