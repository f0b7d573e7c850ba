//! Determinism and idempotency contract of the message-layer control
//! plane (`cmpqos-net` + the GAC↔LAC protocol on top of it).
//!
//! Two properties, each over a randomized fault mix:
//!
//! 1. **Same seed, same bytes.** Re-running a cluster with an identical
//!    seed reproduces the network's delivered and dropped frame logs
//!    byte-for-byte, along with every controller-side table — at *any*
//!    combination of latency, jitter, reorder, drop, and duplication.
//! 2. **Loss-free noise is invisible.** Duplication, jitter, and
//!    reordering alone (no drops) must leave the GAC's decisions and job
//!    fates identical to a perfectly clean link: requests carry their
//!    submission stamp, the per-node channel re-sequences frames, and
//!    duplicate handling is idempotent, so mere delay cannot change an
//!    admission verdict.

use cmpqos::net::LinkConfig;
use cmpqos::obs::NullRecorder;
use cmpqos::qos::{
    AdmissionRequest, Cluster, ExecutionMode, Lac, LacConfig, NetGacConfig, ProbePolicy,
    ResourceRequest,
};
use cmpqos::types::{Cycles, JobId, Percent};
use proptest::prelude::*;

const NODES: usize = 4;
const JOBS: u32 = 10;
const HORIZON: u64 = 100_000;

/// Runs the fixed 10-job workload over `link` and returns the drained
/// cluster.
fn run_cluster(seed: u64, link: LinkConfig) -> Cluster<Lac> {
    let mut cluster = Cluster::new(
        NODES,
        LacConfig::default(),
        seed,
        link,
        NetGacConfig::default(),
        ProbePolicy::FirstFit,
    );
    let mut rec = NullRecorder;
    let tw = Cycles::new(2_000);
    for i in 0..JOBS {
        let at = Cycles::new(u64::from(i) * 1_500);
        cluster.run_until(at, &mut rec);
        let mode = if i % 2 == 0 {
            ExecutionMode::Strict
        } else {
            ExecutionMode::Elastic(Percent::new(50.0))
        };
        let req = AdmissionRequest::builder(JobId::new(i), ResourceRequest::paper_job(), tw)
            .mode(mode)
            .deadline(at + tw + tw + tw)
            .build();
        cluster.gac_mut().submit(req, at, &mut rec);
    }
    cluster.run_until(Cycles::new(HORIZON), &mut rec);
    cluster
}

/// Every observable surface of a finished run, rendered to one string
/// for byte comparison.
fn fingerprint(cluster: &Cluster<Lac>) -> String {
    let gac = cluster.gac();
    format!(
        "delivered={:?}\ndropped={:?}\nnet={:?}\ndecisions={:?}\nplacements={:?}\n\
         completed={:?}\nrevoked={:?}\ngac={:?}",
        cluster.net().delivered_log(),
        cluster.net().dropped_log(),
        cluster.net().stats(),
        gac.decisions(),
        gac.placements(),
        gac.completed(),
        gac.revoked(),
        gac.stats(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cmpqos::testkit::cases(12) as u32))]

    /// Property 1: at any fault mix, a seed pins the whole run — frame
    /// logs, drop decisions, duplication, delivery order, and every
    /// admission table come out byte-identical on a second run.
    #[test]
    fn same_seed_reproduces_the_run_byte_for_byte(
        seed in 1u64..10_000,
        base in 1u64..20,
        jitter in 0u64..20,
        reorder in 0u64..20,
        drop_pct in 0u32..25,
        dup_pct in 0u32..25,
    ) {
        let link = LinkConfig::default()
            .base_latency(Cycles::new(base))
            .jitter(jitter)
            .reorder(reorder)
            .drop(f64::from(drop_pct) / 100.0)
            .duplicate(f64::from(dup_pct) / 100.0);
        let first = fingerprint(&run_cluster(seed, link));
        let second = fingerprint(&run_cluster(seed, link));
        prop_assert_eq!(first, second, "same seed, same fault mix, different run");
    }

    /// Property 2: duplicates and reordering without loss change nothing
    /// the controller can see — decisions, placements, and completions
    /// match a zero-latency-variance, noise-free link exactly.
    #[test]
    fn lossless_noise_never_changes_an_admission_outcome(
        seed in 1u64..10_000,
        base in 1u64..20,
        jitter in 0u64..20,
        reorder in 0u64..20,
        dup_pct in 0u32..35,
    ) {
        let clean = LinkConfig::default().base_latency(Cycles::new(base));
        let noisy = clean
            .jitter(jitter)
            .reorder(reorder)
            .duplicate(f64::from(dup_pct) / 100.0);
        let a = run_cluster(seed, clean);
        let b = run_cluster(seed, noisy);
        prop_assert_eq!(a.gac().decisions(), b.gac().decisions());
        prop_assert_eq!(a.gac().placements(), b.gac().placements());
        prop_assert_eq!(a.gac().completed(), b.gac().completed());
        prop_assert_eq!(a.gac().revoked(), b.gac().revoked());
    }
}
