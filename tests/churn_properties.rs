//! Elastic-membership properties: lease-backed reservations under node
//! churn (joins, graceful drains, restarts, kills).
//!
//! Six properties:
//!
//! 1. **No job is ever lost to churn.** Under any seeded schedule of
//!    joins, drains, restarts, and hard kills over a lossy network, every
//!    admitted job ends completed XOR revoked (migration is the
//!    mechanism, never a terminal state), every submission gets a
//!    decision, and every join and drain resolves.
//! 2. **A lossless link never expires a lease.** Heartbeats renew every
//!    placement's lease; when no frame is ever dropped, no renewal can go
//!    missing long enough to cross TTL + grace — churn included.
//! 3. **Drain-then-rejoin is invisible on a quiet cluster.** Draining an
//!    empty node and admitting a same-shaped replacement leaves the
//!    admission behavior byte-identical to never having churned: the
//!    decision stream for any subsequent job mix matches exactly.
//! 4. **Both drivers run one core.** A seeded stream of submissions,
//!    clock advances, kills, joins, drains and restarts gives the same
//!    per-job decisions and the same final placements through the
//!    in-process `GlobalAdmissionController` and through a `Cluster` over
//!    a lossless, zero-latency `SimNet`, with nothing in between: the core
//!    records the window each node reserved. (Message faults, whose timing
//!    depends on the transport, and way/core faults and early
//!    completions, which only the in-process driver takes, are left out.)
//! 5. **A churned core reads back whole.** A `NetGac` serialized mid-churn
//!    (placements, renewed leases and parked tasks all present) reads
//!    back equal, re-serializes to the same bytes, rebuilds the indexes it
//!    never serialized, and keeps the snapshot format it always had.
//! 6. **The churn drain ends once its jobs are done.** The standard churn
//!    cell opens at most 15 conversations per job at seeds 1-10, because
//!    neither a heartbeat round nor a ping keeps its drain going, and every
//!    outcome field but the traffic counters is the one pinned by a digest.

use cmpqos::experiments::chaos::{run_churn, ChurnParams};
use cmpqos::faults::{Fault, FaultPlan, Injection};
use cmpqos::net::LinkConfig;
use cmpqos::obs::{NullRecorder, RingBufferRecorder};
use cmpqos::qos::{
    AdmissionRequest, Cluster, Decision, ExecutionMode, GlobalAdmissionController, Lac, LacConfig,
    NetGac, NetGacConfig, ProbePolicy, ResourceRequest,
};
use cmpqos::types::{Cycles, JobId, NodeId, Percent};
use proptest::prelude::*;

/// A lossless-link churn run: heartbeat-leased placements on a small
/// cluster with a seeded join/drain/restart schedule, no drops, no kills.
/// Returns the `LeaseExpired` and `LeaseRenewed` counts.
fn lossless_churn(
    seed: u64,
    nodes: usize,
    churn_events: usize,
    base: u64,
    jitter: u64,
    dup_pct: u32,
) -> (u64, u64) {
    const HORIZON: u64 = 60_000;
    let link = LinkConfig::default()
        .base_latency(Cycles::new(base))
        .jitter(jitter)
        .reorder(10)
        .duplicate(f64::from(dup_pct) / 100.0);
    let mut config = NetGacConfig {
        heartbeat_every: Cycles::new(1_000),
        lease_ttl: Cycles::new(5_000),
        ..NetGacConfig::default()
    };
    config.gac.dead_timeout = Cycles::new(5_000);
    let mut cluster = Cluster::new(
        nodes,
        LacConfig::default(),
        seed,
        link,
        config,
        ProbePolicy::LeastLoaded,
    );
    let mut rec = RingBufferRecorder::new(4096);
    let schedule =
        FaultPlan::seeded_churn(seed, nodes as u32, Cycles::new(HORIZON), churn_events).build();
    let tw = Cycles::new(10_000);
    let mut steps: Vec<(Cycles, u8, u32)> = (0..20u32)
        .map(|i| (Cycles::new(u64::from(i) * 1_500), 1, i))
        .collect();
    for (i, injection) in schedule.injections().iter().enumerate() {
        steps.push((injection.at, 0, i as u32));
    }
    steps.sort_by_key(|&(at, rank, idx)| (at, rank, idx));
    for (at, rank, idx) in steps {
        cluster.run_until(at, &mut rec);
        if rank == 0 {
            let injection = schedule.injections()[idx as usize];
            match injection.fault {
                Fault::NodeJoin { .. } => {
                    let _ = cluster.join_node(Lac::new(LacConfig::default()), at);
                }
                _ => cluster.apply(injection, &mut rec),
            }
        } else {
            let req = AdmissionRequest::builder(JobId::new(idx), ResourceRequest::paper_job(), tw)
                .mode(if idx % 2 == 0 {
                    ExecutionMode::Strict
                } else {
                    ExecutionMode::Elastic(Percent::new(50.0))
                })
                .deadline(at + tw + tw)
                .build();
            cluster.gac_mut().submit(req, at, &mut rec);
        }
    }
    for _ in 0..8 {
        if cluster.gac().idle() && cluster.gac().placements().is_empty() {
            break;
        }
        let until = cluster.now() + Cycles::new(HORIZON / 4);
        cluster.run_until(until, &mut rec);
    }
    let c = rec.counters();
    (c.leases_expired, c.leases_renewed)
}

/// The admission decision stream of a quiet in-process GAC after optional
/// drain-then-rejoin churn, rendered for byte comparison. Node ids are
/// deliberately excluded: the drained slot's capacity comes back under the
/// joined node's id, and that renaming is the only thing allowed to
/// differ.
fn decision_stream(churned: Option<NodeId>, jobs: u32, stagger: u64, tw: u64) -> String {
    let mut gac = GlobalAdmissionController::new(4, LacConfig::default(), ProbePolicy::FirstFit);
    let mut rec = NullRecorder;
    if let Some(node) = churned {
        // Quiet cluster: nothing placed yet, so the drain migrates
        // nothing and the join restores the original capacity.
        let drain = Injection {
            at: Cycles::new(5),
            fault: Fault::NodeDrain { node },
        };
        let join = Injection {
            at: Cycles::new(10),
            fault: Fault::NodeJoin {
                node: NodeId::new(4),
            },
        };
        let _ = gac.inject(drain, &mut rec);
        let _ = gac.inject(join, &mut rec);
    }
    let mut out = String::new();
    for i in 0..jobs {
        let now = Cycles::new(100 + u64::from(i) * stagger);
        let _ = gac.advance(now, &mut rec);
        let req =
            AdmissionRequest::builder(JobId::new(i), ResourceRequest::paper_job(), Cycles::new(tw))
                .mode(ExecutionMode::Strict)
                .deadline(now + Cycles::new(tw * 2))
                .build();
        let (_, decision) = gac.submit_request(&req, &mut rec);
        out.push_str(&format!("{i}:{decision:?}\n"));
    }
    out
}

/// What both drivers are asked to do, one step of a seeded stream.
#[derive(Debug, Clone, Copy)]
enum Step {
    Submit(AdmissionRequest),
    Advance(Cycles),
    Kill(NodeId),
    Join,
    Drain(NodeId),
    Restart(NodeId),
}

/// Decodes `(kind, arg)` pairs into steps over a cluster that starts at
/// `nodes` and grows with each join.
fn steps(nodes: usize, raw: &[(u8, u64)]) -> Vec<Step> {
    let mut now = 0u64;
    let mut size = nodes as u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(kind, arg))| {
            let node = NodeId::new((arg % size) as u32);
            match kind {
                0..=4 => {
                    let tw = Cycles::new(200 + arg % 1_800);
                    let mode = match arg % 3 {
                        0 => ExecutionMode::Strict,
                        1 => ExecutionMode::Elastic(Percent::new(50.0)),
                        _ => ExecutionMode::Opportunistic,
                    };
                    let mut b = AdmissionRequest::builder(
                        JobId::new(i as u32),
                        ResourceRequest::paper_job(),
                        tw,
                    )
                    .mode(mode);
                    if arg % 5 != 0 {
                        b = b.deadline(Cycles::new(now) + tw + tw);
                    }
                    Step::Submit(b.build())
                }
                5 | 6 => {
                    now += arg % 1_500;
                    Step::Advance(Cycles::new(now))
                }
                7 => Step::Kill(node),
                8 => {
                    size += 1;
                    Step::Join
                }
                _ if arg % 2 == 0 => Step::Drain(node),
                _ => Step::Restart(node),
            }
        })
        .collect()
}

type Outcome = (Vec<(JobId, Option<NodeId>, Decision)>, Vec<(JobId, NodeId)>);

/// The stream through the in-process driver.
fn through_the_in_process_driver(nodes: usize, policy: ProbePolicy, steps: &[Step]) -> Outcome {
    let mut gac = GlobalAdmissionController::new(nodes, LacConfig::default(), policy);
    let mut rec = NullRecorder;
    let mut now = Cycles::ZERO;
    let mut decisions = Vec::new();
    for &step in steps {
        let fault = match step {
            Step::Submit(req) => {
                let (node, decision) = gac.submit_request(&req, &mut rec);
                decisions.push((req.id, node, decision));
                continue;
            }
            Step::Advance(at) => {
                now = at;
                let _ = gac.advance(now, &mut rec);
                continue;
            }
            Step::Kill(node) => Fault::NodeFault { node },
            Step::Join => Fault::NodeJoin {
                node: NodeId::new(gac.nodes() as u32),
            },
            Step::Drain(node) => Fault::NodeDrain { node },
            Step::Restart(node) => Fault::NodeRestart { node },
        };
        let _ = gac.inject(Injection { at: now, fault }, &mut rec);
    }
    (decisions, gac.placements().to_vec())
}

/// The same stream through a cluster over a lossless, zero-latency net.
fn through_a_lossless_cluster(nodes: usize, policy: ProbePolicy, steps: &[Step]) -> Outcome {
    let link = LinkConfig::default().base_latency(Cycles::ZERO);
    let mut cluster = Cluster::new(
        nodes,
        LacConfig::default(),
        1,
        link,
        NetGacConfig::default(),
        policy,
    );
    let mut rec = NullRecorder;
    let mut now = Cycles::ZERO;
    let mut submitted = Vec::new();
    for &step in steps {
        cluster.run_until(now, &mut rec);
        let fault = match step {
            Step::Submit(req) => {
                cluster.gac_mut().submit(req, now, &mut rec);
                submitted.push(req.id);
                None
            }
            Step::Advance(at) => {
                now = at;
                None
            }
            Step::Join => {
                let _ = cluster.join_node(Lac::new(LacConfig::default()), now);
                None
            }
            Step::Kill(node) => Some(Fault::NodeFault { node }),
            Step::Drain(node) => Some(Fault::NodeDrain { node }),
            Step::Restart(node) => Some(Fault::NodeRestart { node }),
        };
        if let Some(fault) = fault {
            cluster.apply(Injection { at: now, fault }, &mut rec);
        }
        cluster.run_until(now, &mut rec);
    }
    let gac = cluster.gac();
    let decisions = submitted
        .into_iter()
        .map(|job| {
            let (node, decision) = gac.decisions()[&job];
            (job, node, decision)
        })
        .collect();
    let placements = gac
        .placements()
        .iter()
        .map(|(&job, &(node, _))| (job, node))
        .collect();
    (decisions, placements)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cmpqos::testkit::cases(8) as u32))]

    /// Property 1: any churn schedule — joins, drains, restarts, kills —
    /// over a lossy network loses no admitted job and resolves every
    /// membership transition.
    #[test]
    fn churn_never_loses_an_admitted_job(
        seed in 1u64..5_000,
        nodes in 8usize..20,
        churn_events in 0usize..12,
        kills in 0u32..3,
    ) {
        let mut p = ChurnParams::standard();
        p.nodes = nodes;
        p.jobs = 60;
        p.horizon = Cycles::new(480_000);
        p.seed = seed;
        p.churn_events = churn_events;
        p.kills = kills;
        let o = run_churn(&p);
        prop_assert!(o.undecided.is_empty(), "undecided: {:?}", o.undecided);
        prop_assert!(
            o.unaccounted.is_empty(),
            "admitted but neither completed XOR revoked: {:?}",
            o.unaccounted
        );
        prop_assert_eq!(o.joining, 0, "a join handshake never completed");
        prop_assert_eq!(o.draining, 0, "a drain never finished");
        prop_assert_eq!(o.pending_reconciles, 0);
        prop_assert_eq!(o.leases_expired, 0, "healthy churn must expire no leases");
        prop_assert!(o.final_nodes >= nodes, "membership is append-only");
    }

    /// Property 2: with no frame loss, heartbeat renewals always land
    /// inside TTL + grace — zero `LeaseExpired`, churn or not.
    #[test]
    fn a_lossless_link_never_expires_a_lease(
        seed in 1u64..10_000,
        nodes in 3usize..8,
        churn_events in 0usize..8,
        base in 1u64..20,
        jitter in 0u64..16,
        dup_pct in 0u32..30,
    ) {
        let (expired, renewed) = lossless_churn(seed, nodes, churn_events, base, jitter, dup_pct);
        prop_assert_eq!(expired, 0, "a lease expired on a lossless link");
        prop_assert!(renewed > 0, "heartbeats renewed nothing");
    }

    /// Property 4: the in-process driver and a lossless zero-latency
    /// cluster drive one core, so they agree on every decision and on
    /// where every surviving job is placed.
    #[test]
    fn both_drivers_run_one_core(
        nodes in 2usize..6,
        least_loaded in any::<bool>(),
        raw in proptest::collection::vec((0u8..10, 0u64..1_000_000), 1..60),
    ) {
        let policy = if least_loaded { ProbePolicy::LeastLoaded } else { ProbePolicy::FirstFit };
        let steps = steps(nodes, &raw);
        let in_process = through_the_in_process_driver(nodes, policy, &steps);
        let clustered = through_a_lossless_cluster(nodes, policy, &steps);
        prop_assert_eq!(in_process, clustered);
    }

    /// Property 3: draining an idle node and joining a replacement is
    /// invisible to every subsequent admission decision.
    #[test]
    fn quiet_drain_then_rejoin_changes_no_decision(
        node in 1u32..4,
        jobs in 1u32..24,
        stagger in 50u64..500,
        tw in 200u64..2_000,
    ) {
        let churned = decision_stream(Some(NodeId::new(node)), jobs, stagger, tw);
        let pristine = decision_stream(None, jobs, stagger, tw);
        prop_assert_eq!(churned, pristine, "drain-then-rejoin changed a decision");
    }
}

/// The decision-stream comparison above is only meaningful if the mix
/// actually produces both verdicts; pin that with a plain test.
#[test]
fn the_quiet_churn_decision_stream_exercises_both_verdicts() {
    let s = decision_stream(None, 23, 60, 1_900);
    assert!(s.contains("Accepted"), "stream has accepts:\n{s}");
    assert!(s.contains("Rejected"), "stream has rejects:\n{s}");
}

/// Property 5's sample: a lossy churn run on six nodes (a tenth of the
/// frames dropped, so conversations give up and park their retries),
/// stepped every 1,500 cycles, stopping at the first step whose core
/// holds placements, leases — at least one renewed past its grant — and
/// parked tasks. Returns the core and its serialized form.
fn a_mid_churn_core() -> (NetGac, String) {
    let link = LinkConfig::default().drop(0.1).duplicate(0.05).jitter(20);
    let mut config = NetGacConfig {
        heartbeat_every: Cycles::new(1_000),
        lease_ttl: Cycles::new(5_000),
        ..NetGacConfig::default()
    };
    config.gac.dead_timeout = Cycles::new(5_000);
    let mut cluster = Cluster::new(
        6,
        LacConfig::default(),
        3,
        link,
        config,
        ProbePolicy::LeastLoaded,
    );
    let mut rec = NullRecorder;
    let schedule = FaultPlan::seeded_churn(3, 6, Cycles::new(60_000), 8).build();
    let mut injections = schedule.injections().iter().peekable();
    let tw = Cycles::new(30_000);
    for i in 0..40u32 {
        let at = Cycles::new(u64::from(i) * 1_500);
        while let Some(injection) = injections.next_if(|injection| injection.at <= at) {
            cluster.run_until(injection.at, &mut rec);
            match injection.fault {
                Fault::NodeJoin { .. } => {
                    let _ = cluster.join_node(Lac::new(LacConfig::default()), injection.at);
                }
                _ => cluster.apply(*injection, &mut rec),
            }
        }
        cluster.run_until(at, &mut rec);
        let req = AdmissionRequest::builder(JobId::new(i), ResourceRequest::paper_job(), tw)
            .mode(ExecutionMode::Strict)
            .build();
        cluster.gac_mut().submit(req, at, &mut rec);
        let core = cluster.gac();
        let json = serde_json::to_string(core).expect("a core serializes");
        let tree = serde_json::parse(&json).expect("its own output parses");
        let list = |key: &str| tree.get(key).and_then(|v| v.as_array()).unwrap_or(&[]);
        let until = |node: u64| {
            list("nodes")[node as usize]
                .get("leases_until")
                .and_then(|v| v.as_u64())
        };
        let renewed = list("leases").iter().any(|lease| {
            let row = lease.as_array().expect("a lease row");
            let (node, granted) = (row[1].as_u64().expect("node"), row[2].as_u64());
            until(node) > granted
        });
        if !core.placements().is_empty() && renewed && !list("parked").is_empty() {
            return (core.clone(), json);
        }
    }
    panic!("no step held placements, renewed leases and parked tasks at once");
}

/// Property 5: a churned core reads back whole. Its indexes are never
/// serialized, so the copy must rebuild them as it is read: with no
/// other call it answers every query as the original and takes the same
/// next steps. The digest pins the snapshot format (placements as the job
/// map, leases as the job-ordered `(job, node, grant)` list, parked tasks
/// as the `(due, order, task)` list) to the bytes the format had before
/// the indexes existed.
#[test]
fn a_churned_core_reads_back_with_working_indexes() {
    let (core, json) = a_mid_churn_core();
    let copy: NetGac = serde_json::from_str(&json).expect("the core reads back");
    assert_eq!(copy, core);
    assert_eq!(serde_json::to_string(&copy).expect("serializes"), json);
    assert_eq!(copy.next_wake(), core.next_wake());
    assert_eq!(copy.leases(), core.leases());
    assert_eq!(copy.placements(), core.placements());
    assert_eq!(
        cmpqos::recovery::fnv1a64(json.as_bytes()),
        3_596_592_183_355_986_554,
        "the snapshot format moved:\n{json}"
    );
    // Every timer the indexes answer fires alike in both: parked retries
    // wake, placements retire and leases expire in the same order.
    let now = core.next_wake().expect("a churned core has a timer");
    let mut fired = 0;
    for later in [0, 5_000, 12_000, 60_000] {
        let at = now + Cycles::new(later);
        let run = |mut gac: NetGac| {
            let mut rec = RingBufferRecorder::new(1_024);
            let mut net = cmpqos::net::SimNet::new(1, LinkConfig::default());
            gac.advance(at, &mut rec);
            let _ = gac.drive(at, &mut net, &mut rec);
            let events: Vec<String> = rec.records().map(|r| format!("{r:?}")).collect();
            (gac.next_wake(), gac.leases(), events, gac)
        };
        let (original, restored) = (run(core.clone()), run(copy.clone()));
        fired += original.2.len();
        assert_eq!(original, restored, "the copy diverged by {at}");
    }
    assert!(fired > 0, "no timer fired");
}

/// Property 6: the churn cell's drain ends once its jobs are done. A
/// heartbeat round or a ping to a Suspect node is not work, so the drain
/// stops at its first check that finds none, whatever the heartbeat
/// phase, instead of beaconing an empty cluster for its whole 16-chunk
/// budget (about 50 conversations per job). With the traffic counters set
/// aside, every outcome is the one captured when the core began holding
/// each Elastic placement for its whole `tw·(1+X)` window.
#[test]
fn the_churn_drain_ends_once_the_jobs_are_done() {
    let mut text = String::new();
    for seed in 1..=10 {
        let mut p = ChurnParams::standard();
        p.seed = seed;
        let mut o = run_churn(&p);
        let per_job = o.gac.conversations as f64 / f64::from(o.submitted);
        assert!(
            per_job <= 15.0,
            "seed {seed}: {per_job:.1} conversations per job"
        );
        o.gac = Default::default();
        o.net = Default::default();
        text.push_str(&format!("{o:?}\n"));
    }
    assert_eq!(
        cmpqos::recovery::fnv1a64(text.as_bytes()),
        9_868_838_472_614_572_080,
        "an outcome moved beyond its traffic counters:\n{text}"
    );
}
