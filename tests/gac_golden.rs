//! Golden pin of the message-layer GAC.
//!
//! Three cases, each at seeds 1 and 7919, fold into FNV-1a digests that
//! equal constants captured before the global admission controller was
//! reworked:
//!
//! * the `Debug` form of a reduced `chaos::run_churn` outcome (leases,
//!   heartbeats, joins, drains, restarts and a kill over a lossy link);
//! * the `Debug` form of a reduced `chaos::run_net` outcome (a partition
//!   and its heal), and of the same cell with the partition left for the
//!   drain to heal and with the `drop-reconcile` injection;
//! * every event of one `Cluster` run recorded into a
//!   `RingBufferRecorder`: the churn schedule above plus a partition, a
//!   heal, a message drop and a probe loss.
//!
//! Any change to the conversations `NetGac` opens, the frames it sends or
//! the events it emits fails here, not only in the chaos cells' printed
//! summaries.

use cmpqos::experiments::chaos::{run_churn, run_net, ChurnParams, NetChaosParams};
use cmpqos::faults::{Fault, Injection};
use cmpqos::net::LinkConfig;
use cmpqos::obs::RingBufferRecorder;
use cmpqos::qos::{
    AdmissionRequest, Cluster, ExecutionMode, Lac, LacConfig, NetGacConfig, ProbePolicy,
    ResourceRequest,
};
use cmpqos::types::{Cycles, JobId, NodeId, Percent};

/// FNV-1a 64-bit, folded one byte at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(text: &str) -> u64 {
    let mut hash = Fnv::new();
    hash.bytes(text.as_bytes());
    hash.0
}

/// The churn cell at a sixth of its standard size, with 12 membership
/// operations: enough that both seeds schedule a join, a drain and a
/// restart.
fn churn_params(seed: u64) -> ChurnParams {
    let mut p = ChurnParams::standard();
    p.nodes = 16;
    p.jobs = 80;
    p.horizon = Cycles::new(480_000);
    p.seed = seed;
    p.churn_events = 12;
    p.kills = 1;
    p
}

/// The net cell at an eighth of its standard size.
fn net_params(seed: u64) -> NetChaosParams {
    let mut p = NetChaosParams::standard();
    p.nodes = 12;
    p.jobs = 48;
    p.horizon = Cycles::new(120_000);
    p.seed = seed;
    p.partition = Some((2, 6, Cycles::new(40_000)));
    p.heal_at = Some(Cycles::new(70_000));
    p
}

/// `(digest of every record's Debug form, record count)` of one cluster
/// run: the reduced churn schedule, with a partition of nodes 5..7 from
/// a fifth to two fifths of the horizon, a 3-frame message drop and a
/// 2-frame probe loss.
fn cluster_events(seed: u64) -> (u64, usize) {
    let params = churn_params(seed);
    let link = LinkConfig::default()
        .base_latency(Cycles::new(10))
        .jitter(5)
        .reorder(10)
        .drop(0.03)
        .duplicate(0.05);
    let mut config = NetGacConfig {
        heartbeat_every: Cycles::new(10_000),
        lease_ttl: Cycles::new(30_000),
        ..NetGacConfig::default()
    };
    config.gac.dead_timeout = Cycles::new(40_000);
    let mut cluster = Cluster::new(
        params.nodes,
        LacConfig::default(),
        seed,
        link,
        config,
        ProbePolicy::LeastLoaded,
    );
    let mut rec = RingBufferRecorder::new(1 << 18);

    let horizon = params.horizon.get();
    let tw = Cycles::new(horizon / 6);
    let stagger = horizon / (2 * u64::from(params.jobs));
    let mut injections: Vec<Injection> = params.schedule().injections().to_vec();
    for node in 5..7u32 {
        let node = NodeId::new(node);
        injections.push(Injection {
            at: Cycles::new(horizon / 5),
            fault: Fault::LinkPartition { node },
        });
        injections.push(Injection {
            at: Cycles::new(2 * horizon / 5),
            fault: Fault::LinkHeal { node },
        });
    }
    injections.push(Injection {
        at: Cycles::new(horizon / 3),
        fault: Fault::MessageDrop {
            node: NodeId::new(2),
            count: 3,
        },
    });
    injections.push(Injection {
        at: Cycles::new(horizon / 3 + 1),
        fault: Fault::ProbeLoss {
            node: NodeId::new(3),
            count: 2,
        },
    });
    let mut steps: Vec<(Cycles, u8, u32)> = (0..params.jobs)
        .map(|i| (Cycles::new(u64::from(i) * stagger), 1, i))
        .collect();
    for (i, injection) in injections.iter().enumerate() {
        steps.push((injection.at, 0, i as u32));
    }
    steps.sort_by_key(|&(at, rank, idx)| (at, rank, idx));
    for (at, rank, idx) in steps {
        cluster.run_until(at, &mut rec);
        if rank == 0 {
            let injection = injections[idx as usize];
            match injection.fault {
                Fault::NodeJoin { .. } => {
                    let _ = cluster.join_node(Lac::new(LacConfig::default()), at);
                }
                _ => cluster.apply(injection, &mut rec),
            }
        } else {
            let mode = if idx % 2 == 0 {
                ExecutionMode::Strict
            } else {
                ExecutionMode::Elastic(Percent::new(50.0))
            };
            let req = AdmissionRequest::builder(JobId::new(idx), ResourceRequest::paper_job(), tw)
                .mode(mode)
                .deadline(at + tw + tw + tw)
                .build();
            cluster.gac_mut().submit(req, at, &mut rec);
        }
    }
    for _ in 0..16 {
        if cluster.gac().idle() && cluster.gac().placements().is_empty() {
            break;
        }
        let until = cluster.now() + Cycles::new(horizon / 4);
        cluster.run_until(until, &mut rec);
    }
    assert_eq!(rec.dropped(), 0, "the ring buffer kept every event");
    let mut hash = Fnv::new();
    let mut count = 0;
    for record in rec.records() {
        hash.bytes(format!("{record:?}\n").as_bytes());
        count += 1;
    }
    (hash.0, count)
}

#[test]
fn the_reduced_churn_schedule_keeps_every_membership_operation() {
    for seed in [1, 7919] {
        let schedule = churn_params(seed).schedule();
        let has = |f: fn(&Fault) -> bool| schedule.injections().iter().any(|i| f(&i.fault));
        assert!(has(|f| matches!(f, Fault::NodeJoin { .. })), "seed {seed}");
        assert!(has(|f| matches!(f, Fault::NodeDrain { .. })), "seed {seed}");
        assert!(
            has(|f| matches!(f, Fault::NodeRestart { .. })),
            "seed {seed}"
        );
        assert!(has(|f| matches!(f, Fault::NodeFault { .. })), "seed {seed}");
    }
}

#[test]
fn churn_outcomes_match_their_captured_digests() {
    for (seed, want) in [(1, 0x066d_0671_cd6a_2f92), (7919, 0xcdea_b6bf_1901_b0c3)] {
        let outcome = run_churn(&churn_params(seed));
        assert!(outcome.leases_renewed > 0 && outcome.joined > 0 && outcome.drained > 0);
        let got = digest(&format!("{outcome:?}"));
        assert_eq!(got, want, "seed {seed}: {got:#x}\n{outcome:?}");
    }
}

#[test]
fn net_outcomes_match_their_captured_digests() {
    for (seed, want) in [(1, 0xdb2f_b6cc_58bd_6d13), (7919, 0xc107_58b6_5df0_683b)] {
        let outcome = run_net(&net_params(seed));
        assert!(outcome.net.partitioned > 0 && outcome.reconciles > 0);
        let got = digest(&format!("{outcome:?}"));
        assert_eq!(got, want, "seed {seed}: {got:#x}\n{outcome:?}");
    }
}

#[test]
fn cluster_event_streams_match_their_captured_digests() {
    for (seed, want) in [
        (1, (0xe26d_cc62_747d_a833, 805)),
        (7919, (0x2378_dba4_1ff3_97a0, 858)),
    ] {
        let got = cluster_events(seed);
        assert_eq!(got, want, "seed {seed}: ({:#x}, {})", got.0, got.1);
    }
}

#[test]
fn unhealed_net_outcomes_match_their_captured_digests() {
    for (seed, want) in [(1, 0xd733_8a68_c9cb_77bc), (7919, 0x5f45_181e_9f5c_5e57)] {
        let mut params = net_params(seed);
        params.heal_at = None;
        let outcome = run_net(&params);
        assert!(outcome.net.partitioned > 0 && outcome.reconciles > 0);
        let got = digest(&format!("{outcome:?}"));
        assert_eq!(got, want, "seed {seed}: {got:#x}\n{outcome:?}");
    }
}

#[test]
fn drop_reconcile_net_outcomes_match_their_captured_digests() {
    for (seed, want) in [(1, 0x28be_da79_8c33_3733), (7919, 0xd2eb_cd40_b872_3189)] {
        let mut params = net_params(seed);
        params.drop_reconcile = true;
        let outcome = run_net(&params);
        assert!(outcome.pending_reconciles > 0);
        let got = digest(&format!("{outcome:?}"));
        assert_eq!(got, want, "seed {seed}: {got:#x}\n{outcome:?}");
    }
}
