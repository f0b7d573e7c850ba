//! Cross-layer crash-consistency contract of the `cmpqos-recovery`
//! write-ahead journal: for *any* operation sequence, recovering from the
//! serialized journal reconstructs the exact controller — the recovered
//! and original instances make identical subsequent admission decisions —
//! and a corrupted journal tail is truncated at the last valid checksum
//! instead of panicking or replaying garbage.

use cmpqos::qos::{AdmissionRequest, ExecutionMode, Lac, LacConfig, ProbePolicy, ResourceRequest};
use cmpqos::recovery::{
    fnv1a64, Journal, JournaledGac, JournaledLac, LacOp, TailReport, JOURNAL_VERSION, MAX_SEQ,
};
use cmpqos::types::{Cycles, JobId, Percent, Ways};
use proptest::prelude::*;

const COMPACT_EVERY: u64 = 8;

/// One fuzzed journal op: `(kind, a, b)` small integers decoded by the
/// apply functions (the vendored proptest has no `prop_map`, so the raw
/// tuple is the strategy's value type).
type FuzzOp = (u8, u64, u64);

fn mode_of(b: u64) -> ExecutionMode {
    match b % 3 {
        0 => ExecutionMode::Strict,
        1 => ExecutionMode::Elastic(Percent::new(5.0)),
        _ => ExecutionMode::Opportunistic,
    }
}

/// Drives a [`JournaledLac`] through the decoded op sequence; the clock
/// only moves forward so every op is legal at its replay position.
fn apply_lac(lac: &mut JournaledLac, ops: &[FuzzOp]) {
    let mut now = 0u64;
    for (i, &(kind, a, b)) in ops.iter().enumerate() {
        let id = JobId::new(i as u32);
        match kind % 6 {
            0 | 1 => {
                let mut req = AdmissionRequest::builder(
                    id,
                    ResourceRequest::paper_job(),
                    Cycles::new(500 + a % 2_000),
                )
                .mode(mode_of(b));
                if b % 2 == 0 {
                    req = req.deadline(Cycles::new(now + 5_000 + a));
                }
                let _ = lac.admit(&req.build());
            }
            2 => {
                now += a % 1_500;
                lac.advance(Cycles::new(now));
            }
            3 => lac.release(JobId::new((a % (i as u64 + 1)) as u32), Cycles::new(now)),
            4 => lac.cancel(JobId::new((a % (i as u64 + 1)) as u32)),
            _ => {
                let ways = 8 + (b % 9) as u16;
                let _ =
                    lac.revoke_capacity(ResourceRequest::new(4, Ways::new(ways)), Cycles::new(now));
            }
        }
    }
}

/// The post-recovery probe: both controllers decide an identical stream of
/// fresh admissions, so divergence in any internal table surfaces.
fn probe_decisions(lac: &mut JournaledLac, tag: u32) -> Vec<String> {
    (0..8u32)
        .map(|i| {
            let req = AdmissionRequest::builder(
                JobId::new(1_000 + tag * 100 + i),
                ResourceRequest::paper_job(),
                Cycles::new(700 + u64::from(i) * 131),
            )
            .mode(mode_of(u64::from(i)))
            .deadline(Cycles::new(50_000 + u64::from(i) * 997))
            .build();
            let d = lac.admit(&req);
            format!("{d:?}")
        })
        .collect()
}

fn op_strategy() -> impl Strategy<Value = Vec<FuzzOp>> {
    proptest::collection::vec((0u8..6, 0u64..10_000, 0u64..64), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cmpqos::testkit::cases(32) as u32))]

    /// Any op sequence → serialize → recover: the recovered LAC holds the
    /// same reservation table and makes byte-identical subsequent
    /// decisions, with zero reported loss.
    #[test]
    fn recovery_reconstructs_the_exact_lac(ops in op_strategy()) {
        let mut live = JournaledLac::new(Lac::new(LacConfig::default()), COMPACT_EVERY);
        apply_lac(&mut live, &ops);
        let (mut recovered, report) = JournaledLac::recover(&live.to_jsonl(), COMPACT_EVERY);
        prop_assert!(report.is_lossless(), "intact journal lost records: {report:?}");
        prop_assert_eq!(recovered.lac(), live.lac());

        // The journaled pair keeps deciding identically after recovery.
        let mut original = live;
        prop_assert_eq!(
            probe_decisions(&mut recovered, 1),
            probe_decisions(&mut original, 1)
        );
    }

    /// Flipping any single byte of the journal never panics recovery: the
    /// corrupt record and everything after it are dropped, everything
    /// before it replays, and the loss is reported.
    #[test]
    fn corrupted_tails_truncate_cleanly_without_panicking(
        ops in op_strategy(),
        flip_pos in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let mut live = JournaledLac::new(Lac::new(LacConfig::default()), COMPACT_EVERY);
        apply_lac(&mut live, &ops);
        let jsonl = live.to_jsonl();
        let mut bytes = jsonl.clone().into_bytes();
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();

        let (recovered, report) = JournaledLac::recover(&corrupt, COMPACT_EVERY);
        let lines = jsonl.lines().count() as u64;
        prop_assert!(
            report.lost <= lines,
            "lost more than the whole journal: {report:?} vs {lines} lines"
        );
        // The recovered controller is still a working admission controller.
        let mut r = recovered;
        let _ = r.admit(
            &AdmissionRequest::builder(
                JobId::new(9_999),
                ResourceRequest::paper_job(),
                Cycles::new(1_000),
            )
            .mode(ExecutionMode::Strict)
            .build(),
        );
    }

    /// The same contract end-to-end for the global controller: crash after
    /// any op sequence, recover, and the whole multi-node server (health
    /// map, placements, FCFS tables) is byte-identical.
    #[test]
    fn recovery_reconstructs_the_exact_gac(
        ops in proptest::collection::vec((0u8..4, 0u64..8_000, 0u64..64), 1..40),
    ) {
        use cmpqos::qos::GlobalAdmissionController;
        let mut live = JournaledGac::new(
            GlobalAdmissionController::new(3, LacConfig::default(), ProbePolicy::LeastLoaded),
            COMPACT_EVERY,
        );
        let mut now = 0u64;
        for (i, &(kind, a, b)) in ops.iter().enumerate() {
            let id = JobId::new(i as u32);
            match kind {
                0 | 1 => {
                    let _ = live.submit(
                        id,
                        mode_of(b),
                        ResourceRequest::paper_job(),
                        Cycles::new(500 + a % 2_000),
                        Some(Cycles::new(now + 30_000)),
                    );
                }
                2 => {
                    now += a % 1_500;
                    let _ = live.advance(Cycles::new(now));
                }
                _ => live.complete(JobId::new((a % (i as u64 + 1)) as u32), Cycles::new(now)),
            }
        }
        let (recovered, report) = JournaledGac::recover(&live.to_jsonl(), COMPACT_EVERY);
        prop_assert!(report.is_lossless(), "intact journal lost records: {report:?}");
        prop_assert_eq!(recovered.gac(), live.gac());
        prop_assert_eq!(recovered.journal().next_seq(), live.journal().next_seq());
    }
}

/// A version-1 record of a `Journal<String>`: its checksum covers only the
/// op, as that schema's did.
fn v1_record(seq: u64, op: &str) -> String {
    let op = format!("\"{op}\"");
    let checksum = fnv1a64(op.as_bytes());
    format!("{{\"seq\":{seq},\"version\":1,\"checksum\":{checksum},\"op\":{op}}}\n")
}

/// A version-1 record edited to `seq = u64::MAX` still passes its
/// checksum, but leaves no sequence number for the next append: recovery
/// must end the valid prefix there, not wrap back to seq 0.
#[test]
fn a_record_at_the_last_sequence_number_ends_the_valid_prefix() {
    let edited = v1_record(0, "alpha") + &v1_record(u64::MAX, "beta");
    let (mut recovered, report) = Journal::<String>::from_jsonl(&edited);
    assert_eq!(report, TailReport { valid: 1, lost: 1 });
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered.append("gamma".into()), 1);
}

/// A record edited to the number below `u64::MAX` also passes its
/// checksum, and is past [`MAX_SEQ`]: it ends the valid prefix too, so
/// the appends after the load neither overflow nor reuse a number. A
/// record at the cap itself still loads.
#[test]
fn a_record_past_the_sequence_cap_ends_the_valid_prefix() {
    let edited = v1_record(0, "alpha") + &v1_record(u64::MAX - 1, "beta");
    let (mut recovered, report) = Journal::<String>::from_jsonl(&edited);
    assert_eq!(report, TailReport { valid: 1, lost: 1 });
    assert_eq!(recovered.append("gamma".into()), 1);

    let past = v1_record(0, "alpha") + &v1_record(MAX_SEQ + 1, "beta");
    let (_, report) = Journal::<String>::from_jsonl(&past);
    assert_eq!(report, TailReport { valid: 1, lost: 1 });

    let at_cap = v1_record(0, "alpha") + &v1_record(MAX_SEQ, "beta");
    let (mut recovered, report) = Journal::<String>::from_jsonl(&at_cap);
    assert_eq!(report, TailReport { valid: 2, lost: 0 });
    assert_eq!(recovered.append("gamma".into()), MAX_SEQ + 1);
}

/// The same edit in a LAC journal: its last record's `seq` set to
/// `u64::MAX - 1`. The record is dropped, the journaled LAC keeps
/// appending from seq 3, and what it appends recovers without loss.
#[test]
fn a_lac_journal_edited_near_the_last_sequence_number_keeps_appending() {
    let edited = V1_JOURNAL.replacen("\"seq\":3,", "\"seq\":18446744073709551614,", 1);
    assert_ne!(edited, V1_JOURNAL);
    let (mut recovered, report) = JournaledLac::recover(&edited, COMPACT_EVERY);
    assert_eq!((report.replayed, report.lost), (2, 1));
    assert_eq!(recovered.journal().next_seq(), 3);
    recovered.advance(Cycles::new(500));
    recovered.release(JobId::new(0), Cycles::new(500));
    let (again, report) = JournaledLac::recover(&recovered.to_jsonl(), COMPACT_EVERY);
    assert!(report.is_lossless(), "{report:?}");
    assert_eq!(again.lac(), recovered.lac());
    assert_eq!(again.journal().next_seq(), 5);
}

/// The checksum covers the op as written, not as this build reads it
/// back: a field added to an op, which reading would silently drop,
/// fails it, in a version-1 record and in a current one.
#[test]
fn a_field_added_to_a_journaled_op_fails_the_checksum() {
    let edited = V1_JOURNAL.replacen(
        r#"{"Advance":{"now":400}}"#,
        r#"{"Advance":{"now":400,"bogus":7}}"#,
        1,
    );
    assert_ne!(edited, V1_JOURNAL);
    let (_, report) = JournaledLac::recover(&edited, COMPACT_EVERY);
    assert_eq!((report.replayed, report.lost), (1, 2));

    let mut journal: Journal<LacOp> = Journal::new();
    let _ = journal.append(LacOp::Advance {
        now: Cycles::new(400),
    });
    let jsonl = journal.to_jsonl();
    let (_, report) = Journal::<LacOp>::from_jsonl(&jsonl);
    assert_eq!(report, TailReport { valid: 1, lost: 0 });
    let edited = jsonl.replacen(r#""now":400"#, r#""now":400,"bogus":7"#, 1);
    let (_, report) = Journal::<LacOp>::from_jsonl(&edited);
    assert_eq!(report, TailReport { valid: 0, lost: 1 });
}

/// The checksum covers `seq`: a record whose sequence number was edited
/// from 2 to 7 ends the valid prefix, and the next append reuses seq 2.
#[test]
fn an_edited_sequence_number_fails_the_checksum() {
    let mut journal: Journal<String> = Journal::new();
    for op in ["alpha", "beta", "gamma"] {
        let _ = journal.append(op.into());
    }
    let jsonl = journal.to_jsonl();
    assert_eq!(jsonl.matches("\"seq\":2,").count(), 1, "{jsonl}");
    let edited = jsonl.replacen("\"seq\":2,", "\"seq\":7,", 1);
    let (mut recovered, report) = Journal::<String>::from_jsonl(&edited);
    assert_eq!(report, TailReport { valid: 2, lost: 1 });
    assert_eq!(recovered.append("delta".into()), 2);
}

/// The checksum covers `version`: a current record relabelled as version
/// 1 fails the op-only checksum that version 1 implies.
#[test]
fn a_record_edited_to_version_1_is_rejected() {
    let mut journal: Journal<String> = Journal::new();
    let _ = journal.append("alpha".into());
    let _ = journal.append("beta".into());
    let jsonl = journal.to_jsonl();
    let current = format!("\"version\":{JOURNAL_VERSION},");
    let (first, second) = jsonl.split_once('\n').expect("two records");
    let edited = format!(
        "{first}\n{}",
        second.replacen(&current, "\"version\":1,", 1)
    );
    assert_ne!(edited, jsonl);
    let (recovered, report) = Journal::<String>::from_jsonl(&edited);
    assert_eq!(report, TailReport { valid: 1, lost: 1 });
    assert_eq!(recovered.len(), 1);
}

/// A LAC journal written with version-1 records: the initial snapshot, an
/// admit, an advance and a release.
const V1_JOURNAL: &str = concat!(
    r#"{"seq":0,"version":1,"checksum":15323056167796886714,"op":{"Snapshot":{"config":{"capacity":{"cores":4,"cache_ways":16,"bandwidth_pct":100}},"now":0,"reservations":[],"admission_tests":0,"accepted":0,"rejected":0,"modeled_cost":0}}}"#,
    "\n",
    r#"{"seq":1,"version":1,"checksum":11819289718604910100,"op":{"Admit":{"id":0,"mode":"Strict","request":{"cores":1,"cache_ways":7,"bandwidth_pct":0},"tw":900,"deadline":6000}}}"#,
    "\n",
    r#"{"seq":2,"version":1,"checksum":4910272054766201001,"op":{"Advance":{"now":400}}}"#,
    "\n",
    r#"{"seq":3,"version":1,"checksum":3509757971170225530,"op":{"Release":{"id":0,"at":400}}}"#,
    "\n",
);

/// A LAC journal written with version-1 records (admit, advance, release
/// after the initial snapshot) recovers every record unchanged, and keeps
/// recovering after current-version records are appended to it.
#[test]
fn a_committed_version_1_journal_recovers_fully() {
    let mut live = JournaledLac::new(Lac::new(LacConfig::default()), COMPACT_EVERY);
    let job = AdmissionRequest::builder(
        JobId::new(0),
        ResourceRequest::paper_job(),
        Cycles::new(900),
    )
    .mode(ExecutionMode::Strict)
    .deadline(Cycles::new(6_000))
    .build();
    let _ = live.admit(&job);
    live.advance(Cycles::new(400));
    live.release(JobId::new(0), Cycles::new(400));

    let (mut recovered, report) = JournaledLac::recover(V1_JOURNAL, COMPACT_EVERY);
    assert!(report.is_lossless(), "{report:?}");
    assert_eq!(recovered.lac(), live.lac());
    assert_eq!(recovered.journal().next_seq(), 4);
    assert_eq!(recovered.to_jsonl(), V1_JOURNAL);

    let _ = recovered.admit(&job);
    let mixed = recovered.to_jsonl();
    assert!(
        mixed.ends_with('\n') && mixed.lines().count() == 5,
        "{mixed}"
    );
    let (again, report) = JournaledLac::recover(&mixed, COMPACT_EVERY);
    assert!(report.is_lossless(), "{report:?}");
    assert_eq!(again.lac(), recovered.lac());
    assert_eq!(again.journal().next_seq(), 5);
}

/// A GAC journal written by the controller before its five fixed
/// retry and failure-detector values became constants: two nodes, three
/// submissions and an advance, uncompacted. Its snapshot still carries the
/// five values as config fields.
const PARENT_GAC_JOURNAL: &str = concat!(
    r#"{"seq":0,"version":2,"checksum":7470383033109271364,"op":{"Snapshot":{"core":{"config":{"gac":{"max_retries":3,"suspect_after":2,"dead_after":4,"dead_timeout":30000},"rto":100,"retry_interval":500,"heartbeat_every":0,"lease_ttl":0},"policy":"LeastLoaded","nodes":[{"health":"Healthy","member":"Live","consecutive_losses":0,"last_heard":0,"epoch":0,"next_seq":0,"needs_reconcile":false,"reconcile_queued":false,"ping_queued":false,"heartbeat_queued":false,"lease_frozen":false,"drain_pending":0,"leases_until":0},{"health":"Healthy","member":"Live","consecutive_losses":0,"last_heard":0,"epoch":0,"next_seq":0,"needs_reconcile":false,"reconcile_queued":false,"ping_queued":false,"heartbeat_queued":false,"lease_frozen":false,"drain_pending":0,"leases_until":0}],"placements":{},"decisions":{},"completed":[],"revoked":[],"tasks":[],"parked":[],"park_counter":0,"current":null,"leases":[],"next_heartbeat":0,"stats":{"conversations":0,"retransmits":0,"gave_up":0,"stale_replies":0,"reconciles":0},"now":0},"nodes":[{"lac":{"config":{"capacity":{"cores":4,"cache_ways":16,"bandwidth_pct":100}},"now":0,"reservations":[],"admission_tests":0,"accepted":0,"rejected":0,"modeled_cost":0},"epoch":0,"next_seq":0,"cut":false,"drops_to_node":0},{"lac":{"config":{"capacity":{"cores":4,"cache_ways":16,"bandwidth_pct":100}},"now":0,"reservations":[],"admission_tests":0,"accepted":0,"rejected":0,"modeled_cost":0},"epoch":0,"next_seq":0,"cut":false,"drops_to_node":0}],"lac_config":{"capacity":{"cores":4,"cache_ways":16,"bandwidth_pct":100}},"retired":[],"now":0,"cluster_now":0}}}"#,
    "\n",
    r#"{"seq":1,"version":2,"checksum":18400348424953765320,"op":{"Submit":{"id":0,"source":0,"mode":"Strict","request":{"cores":1,"cache_ways":7,"bandwidth_pct":0},"tw":900,"deadline":6000,"placement":"Earliest","slo":null}}}"#,
    "\n",
    r#"{"seq":2,"version":2,"checksum":9003524324682728951,"op":{"Submit":{"id":1,"source":0,"mode":{"Elastic":50.0},"request":{"cores":1,"cache_ways":7,"bandwidth_pct":0},"tw":1200,"deadline":8000,"placement":"Earliest","slo":null}}}"#,
    "\n",
    r#"{"seq":3,"version":2,"checksum":16077062412760821291,"op":{"Submit":{"id":2,"source":0,"mode":"Opportunistic","request":{"cores":1,"cache_ways":7,"bandwidth_pct":0},"tw":700,"deadline":null,"placement":"Earliest","slo":null}}}"#,
    "\n",
    r#"{"seq":4,"version":2,"checksum":15412584582399089259,"op":{"Advance":{"now":400}}}"#,
    "\n",
);

/// A fixed continuation of a recovered GAC: submissions in every mode,
/// advances, a completion and a way fault. Returns the FNV-1a digest of
/// every outcome's `Debug` form.
fn gac_continuation(gac: &mut JournaledGac) -> u64 {
    use cmpqos::faults::FaultPlan;
    use cmpqos::obs::NullRecorder;
    use cmpqos::types::NodeId;
    let mut log = String::new();
    for i in 3..11u32 {
        let at = 400 + u64::from(i) * 150;
        log += &format!("{:?}\n", gac.advance(Cycles::new(at)));
        let decision = gac.submit(
            JobId::new(i),
            mode_of(u64::from(i)),
            ResourceRequest::paper_job(),
            Cycles::new(600 + u64::from(i) * 100),
            (i % 4 != 0).then(|| Cycles::new(at + 4_000)),
        );
        log += &format!("{decision:?}\n");
    }
    gac.complete(JobId::new(0), Cycles::new(2_000));
    let way_fault = FaultPlan::new()
        .way_fault(Cycles::new(2_100), NodeId::new(0), 2)
        .build()
        .injections()[0];
    log += &format!("{:?}\n", gac.inject(way_fault, &mut NullRecorder));
    log += &format!("{:?}\n", gac.advance(Cycles::new(10_000)));
    fnv1a64(log.as_bytes())
}

/// The committed GAC journal recovers without loss into the controller
/// the same calls build today, and the recovered controller decides a
/// fixed continuation exactly as it did when the journal was written.
#[test]
fn a_committed_gac_journal_recovers_and_decides_as_before() {
    use cmpqos::qos::GlobalAdmissionController;
    assert_eq!(PARENT_GAC_JOURNAL.len(), 2_330);
    let (mut recovered, report) = JournaledGac::recover(PARENT_GAC_JOURNAL, COMPACT_EVERY);
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.replayed, 4);
    assert_eq!(recovered.journal().next_seq(), 5);

    let mut live = JournaledGac::new(
        GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::LeastLoaded),
        COMPACT_EVERY,
    );
    let _ = live.submit(
        JobId::new(0),
        ExecutionMode::Strict,
        ResourceRequest::paper_job(),
        Cycles::new(900),
        Some(Cycles::new(6_000)),
    );
    let _ = live.submit(
        JobId::new(1),
        ExecutionMode::Elastic(Percent::new(50.0)),
        ResourceRequest::paper_job(),
        Cycles::new(1_200),
        Some(Cycles::new(8_000)),
    );
    let _ = live.submit(
        JobId::new(2),
        ExecutionMode::Opportunistic,
        ResourceRequest::paper_job(),
        Cycles::new(700),
        None,
    );
    let _ = live.advance(Cycles::new(400));
    assert_eq!(recovered.gac(), live.gac());

    let digest = gac_continuation(&mut recovered);
    assert_eq!(digest, 0x4564_c1a3_4910_00d8, "{digest:#x}");
    assert_eq!(gac_continuation(&mut live), digest);
}

/// The JSONL bytes of a scripted [`JournaledLac`] run, folded into one
/// FNV-1a digest after every call: each `LacOp` kind, a batch admission
/// and compactions.
#[test]
fn a_scripted_lac_journal_writes_the_captured_bytes() {
    let request = |id: u32, tw: u64, deadline: Option<u64>| {
        let mut b = AdmissionRequest::builder(
            JobId::new(id),
            ResourceRequest::paper_job(),
            Cycles::new(tw),
        )
        .mode(mode_of(u64::from(id)));
        if let Some(td) = deadline {
            b = b.deadline(Cycles::new(td));
        }
        b.build()
    };
    let mut donor = Lac::new(LacConfig::default());
    assert!(donor.admit(&request(40, 800, Some(9_000))).is_accepted());
    let migrated = donor.reservations()[0];

    // Ten ops, then a compaction: the batch comes first and the last op
    // before the compaction is an advance, so every other kind shows up
    // in some serialized journal.
    let mut lac = JournaledLac::new(Lac::new(LacConfig::default()), 10);
    let mut bytes = lac.to_jsonl();
    let batch = [
        request(3, 700, Some(8_000)),
        request(4, 600, None),
        request(5, 900, Some(9_500)),
    ];
    let _ = lac.admit_batch(&batch, &mut cmpqos::obs::NullRecorder);
    bytes += &lac.to_jsonl();
    let _ = lac.admit(&request(0, 900, Some(6_000)));
    bytes += &lac.to_jsonl();
    let _ = lac.admit(&request(1, 1_100, None));
    bytes += &lac.to_jsonl();
    let late = AdmissionRequest::builder(
        JobId::new(2),
        ResourceRequest::paper_job(),
        Cycles::new(500),
    )
    .deadline(Cycles::new(7_000))
    .latest_feasible()
    .build();
    let _ = lac.admit(&late);
    bytes += &lac.to_jsonl();
    let _ = lac.readmit(&migrated);
    bytes += &lac.to_jsonl();
    lac.advance(Cycles::new(300));
    bytes += &lac.to_jsonl();
    lac.release(JobId::new(0), Cycles::new(300));
    bytes += &lac.to_jsonl();
    lac.advance(Cycles::new(320));
    bytes += &lac.to_jsonl();
    assert_eq!(lac.journal().len(), 1, "the tenth op compacts");
    lac.cancel(JobId::new(1));
    bytes += &lac.to_jsonl();
    let _ = lac.revoke_capacity(ResourceRequest::new(4, Ways::new(12)), Cycles::new(350));
    bytes += &lac.to_jsonl();
    lac.advance(Cycles::new(1_000));
    bytes += &lac.to_jsonl();

    for kind in [
        "\"Snapshot\"",
        "\"Admit\"",
        "\"AdmitLatest\"",
        "\"Readmit\"",
        "\"Advance\"",
        "\"Release\"",
        "\"Cancel\"",
        "\"RevokeCapacity\"",
    ] {
        assert!(bytes.contains(kind), "no {kind} record");
    }
    assert_eq!(lac.journal().records()[0].seq, 11);
    let digest = fnv1a64(bytes.as_bytes());
    assert_eq!(digest, 0x3c28_a156_e5b6_7574, "{digest:#x}");
}

/// The committed GAC journal, recovered and saved again, recovers again
/// without loss: a record read from an older build is saved with a
/// checksum that matches what this build writes for it.
#[test]
fn a_recovered_gac_journal_saves_and_recovers_again() {
    let (recovered, report) = JournaledGac::recover(PARENT_GAC_JOURNAL, COMPACT_EVERY);
    assert_eq!(report.lost, 0, "{report:?}");
    let (again, report) = JournaledGac::recover(&recovered.to_jsonl(), COMPACT_EVERY);
    assert!(report.is_lossless(), "{report:?}");
    assert_eq!(report.replayed, 4);
    assert_eq!(again.gac(), recovered.gac());
    assert_eq!(again.to_jsonl(), recovered.to_jsonl());
}
