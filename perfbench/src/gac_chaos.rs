//! `gac_chaos`: pairs of `chaos` cells at 104 nodes and 600 jobs, one pair
//! per unit seed. The churn cell (`chaos::run_churn`,
//! `ChurnParams::standard()`) drives `NetGac` over a lossy `SimNet` to
//! `LacEndpoint<Lac>`s with heartbeats, leases, joins, drains, restarts and
//! kills; the failover cell (`chaos::run` scaled up) drives the in-process
//! `JournaledGac` through a node kill and a controller crash rebuilt from
//! its journal. One op is one submitted job that reaches a final decision.
//!
//! The traced run re-drives both cells from this file. The churn cell goes
//! through `Cluster::from_backends` with a timing `LacBackend` around each
//! node's `Lac`; the failover cell repeats `chaos::run`'s loop with a span
//! around the journal serialization and `JournaledGac::recover`. Each
//! re-drive must reproduce its cell's outcome exactly.

use crate::harness::{median, nearest_rank_u64, Check, Layers, Model, Workload};
use crate::spans::{span_cost, timed, BackendSpans, TimedLac};
use cmpqos_core::gac::FaultReport;
use cmpqos_core::{
    AdmissionRequest, Cluster, Decision, ExecutionMode, GlobalAdmissionController, Lac, LacConfig,
    MemberState, NetGacConfig, NetGacStats, NodeHealth, ProbePolicy, ResourceRequest,
};
use cmpqos_experiments::chaos::{
    self, ChaosOutcome, ChaosParams, ChurnOutcome, ChurnParams, JobFate,
};
use cmpqos_faults::{Fault, Injection};
use cmpqos_net::{LinkConfig, NetStats};
use cmpqos_obs::{Counters, Event, Health, Record, Recorder, RingBufferRecorder};
use cmpqos_recovery::JournaledGac;
use cmpqos_types::{Cycles, JobId, NodeId, Percent};
use std::collections::BTreeMap;

/// The failover cell scaled up to the churn cell's 104 nodes and 600 jobs.
const NODES: usize = 104;
const JOBS: u32 = 600;
/// When the failover cell's controller crashes (the node kill lands at
/// the same instant, half-way through the horizon).
const CRASH_AT: u64 = 300_000;
/// `chaos::run`'s journal compaction interval.
const COMPACT_EVERY: u64 = 64;
/// `chaos::run`'s ring-buffer capacity.
const RING: usize = 16_384;

pub struct Pair {
    churn: ChurnOutcome,
    failover: ChaosOutcome,
}

/// Everything `chaos::run_churn` reports, for comparing a re-drive.
#[derive(Debug, PartialEq, Eq)]
struct ChurnDigest {
    decided: (u32, u32, u32, u32),
    unaccounted: Vec<JobId>,
    undecided: Vec<JobId>,
    churn: (u64, u64, u64, u64, u64),
    members: (usize, usize, usize, usize, usize, usize),
    deaths: u64,
    pending: (usize, usize),
    gac: NetGacStats,
    net: NetStats,
}

fn digest(o: &ChurnOutcome) -> ChurnDigest {
    ChurnDigest {
        decided: (o.admitted, o.rejected, o.completed, o.revoked),
        unaccounted: o.unaccounted.clone(),
        undecided: o.undecided.clone(),
        churn: (
            o.migrations,
            o.joined,
            o.drained,
            o.leases_renewed,
            o.leases_expired,
        ),
        members: (o.live, o.joining, o.draining, o.left, o.final_nodes, o.dead),
        deaths: o.deaths,
        pending: (o.pending_reconciles, o.leases_outstanding),
        gac: o.gac,
        net: o.net,
    }
}

/// `chaos::run_churn`'s recorder (counters, death tally), plus an event
/// count for the `obs` layer.
#[derive(Debug, Default)]
struct ChurnRecorder {
    counters: Counters,
    deaths: u64,
    events: u64,
}

impl Recorder for ChurnRecorder {
    fn record(&mut self, _at: Cycles, event: Event) {
        self.events += 1;
        self.counters.bump(event.kind());
        if let Event::NodeHealthChanged {
            to: Health::Dead, ..
        } = event
        {
            self.deaths += 1;
        }
    }
}

#[derive(Debug, Default)]
struct Acc {
    churn_cells: u64,
    failover_cells: u64,
    churn_jobs: u64,
    failover_jobs: u64,
    churn_secs: f64,
    failover_secs: f64,
    lac: BackendSpans,
    span_overhead_secs: f64,
    recover_secs: Vec<f64>,
    obs_secs: f64,
    churn_events: u64,
    failover_events: u64,
    conversations: u64,
    retransmits: u64,
    migrations: u64,
    frames: u64,
    retained_max: u64,
    journal_records: u64,
    pair_secs: Vec<f64>,
}

pub struct GacChaos {
    churn: ChurnParams,
    failover: ChaosParams,
    span_cost: f64,
    acc: Acc,
}

impl GacChaos {
    pub fn new() -> Self {
        Self {
            churn: ChurnParams::standard(),
            failover: ChaosParams::standard(),
            span_cost: span_cost(),
            acc: Acc::default(),
        }
    }

    fn params(&self, seed: u64) -> (ChurnParams, ChaosParams) {
        let mut churn = self.churn.clone();
        churn.seed = seed;
        let mut failover = self.failover.clone();
        failover.seed = seed;
        (churn, failover)
    }

    /// `chaos::run_churn` over timed backends.
    fn redrive_churn(&mut self, params: &ChurnParams) -> ChurnDigest {
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
        let cost = self.span_cost;
        let backends = (0..params.nodes)
            .map(|_| TimedLac::new(Lac::new(LacConfig::default()), cost))
            .collect();
        let mut cluster = Cluster::from_backends(
            backends,
            params.seed,
            link,
            config,
            ProbePolicy::LeastLoaded,
        );
        let mut rec = ChurnRecorder::default();

        let tw = Cycles::new((params.horizon.get() / 6).max(1));
        let stagger = (params.horizon.get() / (2 * u64::from(params.jobs).max(1))).max(1);
        enum Step {
            Inject(Injection),
            Submit(u32),
        }
        let mut steps: Vec<(Cycles, u8, u32, Step)> = (0..params.jobs)
            .map(|i| (Cycles::new(u64::from(i) * stagger), 1, i, Step::Submit(i)))
            .collect();
        for (i, &injection) in params.schedule().injections().iter().enumerate() {
            steps.push((injection.at, 0, i as u32, Step::Inject(injection)));
        }
        steps.sort_by_key(|&(at, rank, idx, _)| (at, rank, idx));
        for (at, _, _, step) in steps {
            cluster.run_until(at, &mut rec);
            match step {
                Step::Submit(i) => {
                    let req =
                        AdmissionRequest::builder(JobId::new(i), ResourceRequest::paper_job(), tw)
                            .mode(alternating_mode(i))
                            .deadline(at + tw + tw + tw)
                            .build();
                    cluster.gac_mut().submit(req, at, &mut rec);
                }
                Step::Inject(injection) => match injection.fault {
                    Fault::NodeJoin { .. } => {
                        let _ = cluster
                            .join_node(TimedLac::new(Lac::new(LacConfig::default()), cost), at);
                    }
                    _ => cluster.apply(injection, &mut rec),
                },
            }
        }
        let chunk = Cycles::new((params.horizon.get() / 4).max(1));
        for _ in 0..16 {
            let gac = cluster.gac();
            let churning = (0..cluster.nodes()).any(|i| {
                matches!(
                    gac.member_state(NodeId::new(i as u32)),
                    MemberState::Joining | MemberState::Draining
                )
            });
            if gac.idle()
                && gac.placements().is_empty()
                && gac.pending_reconciles() == 0
                && !churning
            {
                break;
            }
            let until = cluster.now() + chunk;
            cluster.run_until(until, &mut rec);
        }

        let gac = cluster.gac();
        let (mut admitted, mut rejected, mut completed, mut revoked) = (0, 0, 0, 0);
        let mut unaccounted = Vec::new();
        let mut undecided = Vec::new();
        for i in 0..params.jobs {
            let job = JobId::new(i);
            match gac.decisions().get(&job) {
                None => undecided.push(job),
                Some((_, Decision::Accepted { .. })) => {
                    admitted += 1;
                    let done = gac.completed().contains(&job);
                    let gone = gac.revoked().contains(&job);
                    completed += u32::from(done);
                    revoked += u32::from(gone);
                    if done == gone {
                        unaccounted.push(job);
                    }
                }
                Some((_, Decision::Rejected(_))) => rejected += 1,
            }
        }
        let mut members = (0, 0, 0, 0, cluster.nodes(), 0);
        for i in 0..cluster.nodes() {
            let node = NodeId::new(i as u32);
            match gac.member_state(node) {
                MemberState::Live => members.0 += 1,
                MemberState::Joining => members.1 += 1,
                MemberState::Draining => members.2 += 1,
                MemberState::Left => members.3 += 1,
            }
            if gac.node_health(node) == NodeHealth::Dead {
                members.5 += 1;
            }
        }
        let c = &rec.counters;
        let out = ChurnDigest {
            decided: (admitted, rejected, completed, revoked),
            unaccounted,
            undecided,
            churn: (
                c.migrated,
                c.nodes_joined,
                c.nodes_drained,
                c.leases_renewed,
                c.leases_expired,
            ),
            members,
            deaths: rec.deaths,
            pending: (gac.pending_reconciles(), gac.leases().len()),
            gac: gac.stats(),
            net: cluster.net().stats(),
        };

        let a = &mut self.acc;
        for i in 0..cluster.nodes() {
            let spans = cluster.endpoint(NodeId::new(i as u32)).backend().spans;
            a.lac.add(&spans);
            a.span_overhead_secs += spans.calls as f64 * cost;
        }
        a.churn_events += rec.events;
        let net = cluster.net();
        let retained = (net.delivered_log().len() + net.dropped_log().len()) as u64;
        a.retained_max = a.retained_max.max(retained);
        out
    }

    /// `chaos::run` with a span around the crash recovery; returns the
    /// outcome's fates and records, the journal's record count and the
    /// recovery seconds.
    fn redrive_failover(&self, params: &ChaosParams) -> (Vec<JobFate>, Vec<Record>, u64, f64) {
        let mut schedule = params.schedule();
        let mut rec = RingBufferRecorder::new(RING);
        rec.record(
            Cycles::ZERO,
            Event::RunStarted {
                label: format!(
                    "chaos/{}n x{} seed{}",
                    params.nodes, params.jobs, params.seed
                ),
            },
        );
        let mut gac = JournaledGac::new(
            GlobalAdmissionController::new(
                params.nodes,
                LacConfig::default(),
                ProbePolicy::LeastLoaded,
            ),
            COMPACT_EVERY,
        );
        let mut faults = FaultReport::default();
        let tw = Cycles::new((params.horizon.get() / 6).max(1));
        let stagger = (params.horizon.get() / (2 * u64::from(params.jobs).max(1))).max(1);
        let mut pending: Vec<(Cycles, JobId, ExecutionMode, Cycles, Cycles)> = (0..params.jobs)
            .map(|i| {
                let at = Cycles::new(u64::from(i) * stagger);
                (
                    at,
                    JobId::new(i),
                    alternating_mode(i),
                    tw,
                    at + tw + tw + tw,
                )
            })
            .collect();
        pending.reverse();
        let mut fates: BTreeMap<JobId, JobFate> = BTreeMap::new();
        let mut ends: BTreeMap<JobId, Cycles> = BTreeMap::new();
        let mut recover_secs = 0.0;

        let step = Cycles::new((params.horizon.get() / 512).max(1));
        let drain_until = Cycles::new(params.horizon.get().saturating_mul(4));
        let mut t = Cycles::ZERO;
        loop {
            for injection in schedule.due(t) {
                faults.merge(gac.inject(injection, &mut rec));
                if matches!(injection.fault, Fault::ControllerCrash { .. }) {
                    let ((recovered, report), secs) = timed(|| {
                        let surviving = gac.to_jsonl();
                        JournaledGac::recover(&surviving, COMPACT_EVERY)
                    });
                    recover_secs += secs;
                    gac = recovered;
                    rec.record(
                        injection.at,
                        Event::ControllerRecovered {
                            node: injection.fault.node(),
                            replayed: report.replayed,
                            lost: report.lost,
                        },
                    );
                }
            }
            for &(id, node) in gac.gac().placements() {
                if let Some(r) = gac
                    .gac()
                    .lac(node)
                    .reservations()
                    .iter()
                    .find(|r| r.id == id)
                {
                    ends.insert(id, r.end);
                }
            }
            for (id, _) in gac.advance(t) {
                let at = ends.get(&id).copied().unwrap_or(t);
                if let Some(f) = fates.get_mut(&id) {
                    f.completed = Some(at);
                    let met_deadline = at <= f.deadline;
                    rec.record(
                        at,
                        Event::Completed {
                            job: id,
                            met_deadline,
                        },
                    );
                }
            }
            while pending.last().is_some_and(|&(at, ..)| at <= t) {
                let (_, id, mode, tw, deadline) = pending.pop().expect("checked non-empty");
                let request = ResourceRequest::paper_job();
                let (node, _) =
                    gac.submit_recorded(id, mode, request, tw, Some(deadline), &mut rec);
                fates.insert(
                    id,
                    JobFate {
                        id,
                        mode,
                        deadline,
                        admitted: node,
                        migrations: 0,
                        revoked: false,
                        completed: None,
                    },
                );
            }
            if pending.is_empty() && schedule.is_exhausted() && gac.gac().placements().is_empty() {
                break;
            }
            if t >= drain_until {
                break;
            }
            t += step;
        }
        for r in rec.records() {
            match r.event {
                Event::Migrated { job, .. } => {
                    if let Some(f) = fates.get_mut(&job) {
                        f.migrations += 1;
                    }
                }
                Event::ReservationRevoked { job, .. } => {
                    if let Some(f) = fates.get_mut(&job) {
                        f.revoked = true;
                    }
                }
                _ => {}
            }
        }
        let journal = gac.journal().next_seq();
        (
            fates.into_values().collect(),
            rec.to_vec(),
            journal,
            recover_secs,
        )
    }
}

/// Both cells' arrival streams alternate Strict and Elastic(50%).
fn alternating_mode(i: u32) -> ExecutionMode {
    if i.is_multiple_of(2) {
        ExecutionMode::Strict
    } else {
        ExecutionMode::Elastic(Percent::new(50.0))
    }
}

/// Arrival-to-completion cycles of the failover cell's completed Strict
/// jobs.
fn strict_turnarounds(o: &ChaosOutcome) -> Vec<u64> {
    let submitted: BTreeMap<JobId, Cycles> = o
        .records
        .iter()
        .filter_map(|r| match r.event {
            Event::Submitted { job, .. } => Some((job, r.at)),
            _ => None,
        })
        .collect();
    o.fates
        .iter()
        .filter(|f| f.mode == ExecutionMode::Strict)
        .filter_map(|f| Some((f.completed? - *submitted.get(&f.id)?).get()))
        .collect()
}

impl Workload for GacChaos {
    type Outcome = Pair;
    const NAME: &'static str = "gac_chaos";
    const UNIT: &'static str = "cell pair";
    const OP: &'static str = "job";
    const NOMINAL_UNIT_SECS: f64 = 0.1;
    const SETUP_REPS: usize = 7;

    fn prepare(&mut self) {
        self.churn = ChurnParams::standard();
        self.failover = ChaosParams::standard();
        self.failover.nodes = NODES;
        self.failover.jobs = JOBS;
        self.failover.crash_at = Some(Cycles::new(CRASH_AT));
    }

    fn run(&self, seed: u64) -> Pair {
        let (churn, failover) = self.params(seed);
        Pair {
            churn: chaos::run_churn(&churn),
            failover: chaos::run(&failover, failover.schedule()),
        }
    }

    fn check(&self, p: &Pair) -> Check {
        let c = &p.churn;
        let f = &p.failover;
        let mut check = Check::new(u64::from(c.submitted) + u64::from(self.failover.jobs));
        check.require(c.undecided.is_empty(), || {
            format!(
                "churn: {} submissions without a decision",
                c.undecided.len()
            )
        });
        check.require(c.unaccounted.is_empty(), || {
            format!(
                "churn: {} admitted jobs not completed XOR revoked",
                c.unaccounted.len()
            )
        });
        check.require(c.joining == 0 && c.draining == 0, || {
            format!(
                "churn: {} joins and {} drains unresolved",
                c.joining, c.draining
            )
        });
        check.require(c.deaths == u64::from(self.churn.kills), || {
            format!("churn: {} deaths for {} kills", c.deaths, self.churn.kills)
        });
        check.require(c.pending_reconciles == 0, || {
            format!("churn: {} reconciles pending", c.pending_reconciles)
        });
        check.require(c.leases_renewed > 0 && c.leases_expired == 0, || {
            format!(
                "churn: {} leases renewed, {} expired",
                c.leases_renewed, c.leases_expired
            )
        });
        check.require(f.fates.len() == self.failover.jobs as usize, || {
            format!(
                "failover: {} of {} jobs decided",
                f.fates.len(),
                self.failover.jobs
            )
        });
        check.require(f.stranded().is_empty(), || {
            format!("failover: {} stranded reservations", f.stranded().len())
        });
        let ambiguous = f
            .fates
            .iter()
            .filter(|j| j.admitted.is_some() && j.completed.is_some() == j.revoked)
            .count();
        check.require(ambiguous == 0, || {
            format!("failover: {ambiguous} admitted jobs not completed XOR revoked")
        });
        check
    }

    fn model(&self, p: &Pair) -> Model {
        let tw = |horizon: Cycles| u128::from((horizon.get() / 6).max(1));
        let failover_admitted = p
            .failover
            .fates
            .iter()
            .filter(|f| f.admitted.is_some())
            .count();
        Model {
            work: u128::from(p.churn.admitted) * tw(self.churn.horizon)
                + failover_admitted as u128 * tw(self.failover.horizon),
            cycles: u128::from(self.churn.horizon.get() + self.failover.horizon.get()),
            hits: u64::from(p.churn.completed)
                + p.failover.fates.iter().filter(|f| f.met_deadline()).count() as u64,
            reserved: u64::from(p.churn.submitted) + p.failover.fates.len() as u64,
            premium_p99: nearest_rank_u64(&strict_turnarounds(&p.failover), 990),
        }
    }

    fn trace(&mut self, seed: u64, untraced: &Pair) -> Result<f64, String> {
        let (churn_params, failover_params) = self.params(seed);
        let (churn, churn_secs) = timed(|| self.redrive_churn(&churn_params));
        if churn != digest(&untraced.churn) {
            return Err(format!("churn cell re-drive differs: {churn:?}"));
        }
        let ((fates, records, journal, recover_secs), failover_secs) =
            timed(|| self.redrive_failover(&failover_params));
        if fates != untraced.failover.fates || records != untraced.failover.records {
            return Err("failover cell re-drive differs".to_string());
        }
        // The ring buffer is the failover cell's own sink: its recording
        // cost, re-driven as one batch, is the `obs` layer.
        let mut ring = RingBufferRecorder::new(RING);
        let ((), obs_secs) = timed(|| {
            for r in &records {
                ring.record(r.at, r.event.clone());
            }
        });

        let a = &mut self.acc;
        a.churn_cells += 1;
        a.failover_cells += 1;
        a.churn_jobs += u64::from(churn_params.jobs);
        a.failover_jobs += u64::from(failover_params.jobs);
        a.churn_secs += churn_secs;
        a.failover_secs += failover_secs;
        a.recover_secs.push(recover_secs);
        a.obs_secs += obs_secs;
        a.failover_events += records.len() as u64;
        a.conversations += churn.gac.conversations;
        a.retransmits += churn.gac.retransmits;
        a.migrations += churn.churn.0 + fates.iter().map(|f| u64::from(f.migrations)).sum::<u64>();
        a.frames += churn.net.sent;
        a.journal_records += journal;
        a.pair_secs.push(churn_secs + failover_secs);
        Ok(churn_secs + failover_secs)
    }

    fn layers(&self) -> Layers {
        let a = &self.acc;
        let churn_jobs = a.churn_jobs.max(1) as f64;
        let failover_jobs = a.failover_jobs.max(1) as f64;
        let recover: f64 = a.recover_secs.iter().sum();
        let cells = (a.churn_cells + a.failover_cells).max(1) as f64;
        let net_self = a.churn_secs - a.lac.secs - a.span_overhead_secs;
        let local_self = a.failover_secs - recover - a.obs_secs;
        let metrics = vec![
            (
                "core.lac.ns_per_decision",
                a.lac.decision_secs * 1e9 / a.lac.decisions.max(1) as f64,
                "ns",
            ),
            (
                "core.lac.accept_pct",
                100.0 * a.lac.accepted as f64 / a.lac.decisions.max(1) as f64,
                "%",
            ),
            (
                "core.lac.backend_ns_per_call",
                a.lac.secs * 1e9 / a.lac.calls.max(1) as f64,
                "ns",
            ),
            ("core.gac.net_us_per_job", net_self * 1e6 / churn_jobs, "us"),
            (
                "core.gac.local_us_per_job",
                local_self * 1e6 / failover_jobs,
                "us",
            ),
            (
                "core.gac.conversations_per_job",
                a.conversations as f64 / churn_jobs,
                "count",
            ),
            (
                "core.gac.retransmits_per_job",
                a.retransmits as f64 / churn_jobs,
                "count",
            ),
            (
                "core.gac.migrations_per_cell",
                a.migrations as f64 / cells,
                "count",
            ),
            ("net.frames_per_job", a.frames as f64 / churn_jobs, "count"),
            ("net.retained_frames", a.retained_max as f64, "count"),
            (
                "recovery.records_per_job",
                a.journal_records as f64 / failover_jobs,
                "count",
            ),
            ("recovery.recover_ms", median(&a.recover_secs) * 1e3, "ms"),
            (
                "obs.events_per_op",
                (a.churn_events + a.failover_events) as f64 / (churn_jobs + failover_jobs),
                "count",
            ),
            (
                "obs.ns_per_event",
                a.obs_secs * 1e9 / a.failover_events.max(1) as f64,
                "ns",
            ),
        ];
        Layers {
            metrics,
            parent: "core.gac",
            children: vec![
                ("core.lac", a.lac.secs),
                ("recovery", recover),
                ("obs", a.obs_secs),
            ],
            traced_total: a.churn_secs + a.failover_secs,
            overhead_secs: a.span_overhead_secs,
            timings: vec![
                ("traced cell pair".into(), "s", a.pair_secs.clone()),
                ("controller recovery".into(), "s", a.recover_secs.clone()),
            ],
        }
    }
}
