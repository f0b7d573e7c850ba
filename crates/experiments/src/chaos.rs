//! **Chaos** — graceful degradation of the admission layer under injected
//! faults: a Figure-7-style job stream placed by the Global Admission
//! Controller on a small server while a seeded [`FaultSchedule`] kills L2
//! ways, cores, probes and (mid-run) a whole node.
//!
//! The experiment answers the robustness question the paper leaves open:
//! when hardware degrades after admission, which QoS promises survive?
//! Every consequence — revalidation, downgrade-within-slack, migration,
//! revocation, probe retransmission, health transitions — streams through
//! `cmpqos-obs`, so the run is fully reconstructible from its event log.
//!
//! The harness simulates at the reservation level (the GAC's own model of
//! time), not cycle-accurately: job durations are taken at face value and
//! a job completes when its reservation window closes. That keeps chaos
//! runs fast enough to sweep seeds while exercising the exact admission,
//! revocation and failover code the schedulers run in production.

use cmpqos_core::gac::FaultReport;
use cmpqos_core::{
    AdmissionRequest, Cluster, Decision, ExecutionMode, GlobalAdmissionController, Lac, LacConfig,
    LacEndpoint, MemberState, NetGac, NetGacConfig, NetGacStats, NodeHealth, ProbePolicy,
    ResourceRequest,
};
use cmpqos_faults::{Fault, FaultPlan, FaultSchedule, Injection};
use cmpqos_net::{LinkConfig, NetStats, SimNet};
use cmpqos_obs::{Counters, Event, Health, Record, Recorder, RingBufferRecorder, Timeline};
use cmpqos_recovery::JournaledGac;
use cmpqos_types::{Cycles, JobId, NodeId, Percent};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Journal compaction interval for the chaos GAC: small enough to exercise
/// compaction in every standard run, large enough to leave a replayable
/// tail after the snapshot.
const COMPACT_EVERY: u64 = 64;

/// Injections in the failover cell's seeded fault schedule.
const FAULTS: usize = 6;

/// Knobs for one chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ChaosParams {
    /// Server size (LACs probed by the GAC).
    pub nodes: usize,
    /// Jobs in the arrival stream.
    pub jobs: u32,
    /// Nominal run length; arrivals stop well before it and faults land in
    /// its middle half.
    pub horizon: Cycles,
    /// Seed for the generated fault schedule.
    pub seed: u64,
    /// When set, the run's event stream is appended to this JSONL file.
    pub events: Option<PathBuf>,
    /// When set, the admission controller crashes at this cycle: its
    /// in-core state is dropped and rebuilt from the write-ahead journal
    /// (`cmpqos-recovery`). The surviving run's admission decisions must be
    /// identical to an uncrashed run of the same seed.
    pub crash_at: Option<Cycles>,
}

impl ChaosParams {
    /// Default fidelity: 3 nodes, 12 jobs, 6 faults.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            nodes: 3,
            jobs: 12,
            horizon: Cycles::new(600_000),
            seed: 1,
            events: None,
            crash_at: None,
        }
    }

    /// The schedule `cmpqos chaos` runs by default: a seeded random plan
    /// *plus* a guaranteed whole-node death halfway through (the paper's
    /// server always has survivors: node 0 is never killed).
    #[must_use]
    pub fn schedule(&self) -> FaultSchedule {
        let mut plan = FaultPlan::seeded(self.seed, self.nodes as u32, self.horizon, FAULTS);
        if self.nodes > 1 {
            plan = plan.node_fault(
                Cycles::new(self.horizon.get() / 2),
                NodeId::new(self.nodes as u32 - 1),
            );
        }
        if let Some(at) = self.crash_at {
            // The crash names node 0 as a stand-in for "the controller
            // process"; the run loop realizes it by dropping the GAC and
            // recovering from the journal.
            plan = plan.controller_crash(at, NodeId::new(0));
        }
        plan.build()
    }
}

impl Default for ChaosParams {
    fn default() -> Self {
        Self::standard()
    }
}

/// How one submitted job ended up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobFate {
    /// The job.
    pub id: JobId,
    /// Its requested mode.
    pub mode: ExecutionMode,
    /// Its absolute deadline.
    pub deadline: Cycles,
    /// Where the GAC first placed it (`None` = rejected at admission).
    pub admitted: Option<NodeId>,
    /// Times its reservation moved to a surviving node.
    pub migrations: u32,
    /// Whether a fault revoked its reservation with no survivor to take
    /// it.
    pub revoked: bool,
    /// When its (possibly migrated) reservation completed.
    pub completed: Option<Cycles>,
}

impl JobFate {
    /// Whether the job completed by its deadline.
    #[must_use]
    pub fn met_deadline(&self) -> bool {
        self.completed.is_some_and(|t| t <= self.deadline)
    }

    /// An admitted job must end in exactly one terminal state: completed
    /// (possibly after migrating) or revoked-with-reason. `true` here
    /// means this job is unaccounted for — the bug class the chaos
    /// harness exists to catch.
    #[must_use]
    pub fn is_stranded(&self) -> bool {
        self.admitted.is_some() && !self.revoked && self.completed.is_none()
    }
}

/// Everything one chaos run produced.
#[derive(Debug)]
#[non_exhaustive]
pub struct ChaosOutcome {
    /// Per-job dispositions, in submission order.
    pub fates: Vec<JobFate>,
    /// The merged fault consequences (downgrades, migrations,
    /// revocations).
    pub faults: FaultReport,
    /// The full event stream, in emission order.
    pub records: Vec<Record>,
    /// Nodes still alive at the end.
    pub live_nodes: usize,
}

impl ChaosOutcome {
    /// Jobs that were admitted but neither completed nor revoked — must
    /// always be empty.
    #[must_use]
    pub fn stranded(&self) -> Vec<JobId> {
        self.fates
            .iter()
            .filter(|f| f.is_stranded())
            .map(|f| f.id)
            .collect()
    }

    /// The [`Timeline`] reconstructed from the emitted records.
    #[must_use]
    pub fn timeline(&self) -> Timeline {
        Timeline::from_records(self.records.iter())
    }
}

/// The Fig. 7-flavoured arrival stream every chaos cell submits: `jobs`
/// single-core 7-way requests arriving every `horizon/(2*jobs)` cycles,
/// alternating Strict and Elastic(50%), each lasting `horizon/6` with
/// three durations of deadline slack.
fn arrivals(jobs: u32, horizon: Cycles) -> Vec<(Cycles, JobId, ExecutionMode, Cycles, Cycles)> {
    let tw = Cycles::new((horizon.get() / 6).max(1));
    let stagger = (horizon.get() / (2 * u64::from(jobs).max(1))).max(1);
    (0..jobs)
        .map(|i| {
            let at = Cycles::new(u64::from(i) * stagger);
            let mode = if i % 2 == 0 {
                ExecutionMode::Strict
            } else {
                ExecutionMode::Elastic(Percent::new(50.0))
            };
            let deadline = at + tw + tw + tw;
            (at, JobId::new(i), mode, tw, deadline)
        })
        .collect()
}

/// Runs the chaos cell: submits the arrival stream while draining
/// `schedule` into the GAC, then lets surviving reservations finish.
#[must_use]
pub fn run(params: &ChaosParams, mut schedule: FaultSchedule) -> ChaosOutcome {
    let mut rec = RingBufferRecorder::new(16_384);
    rec.record(
        Cycles::ZERO,
        Event::RunStarted {
            label: format!(
                "chaos/{}n x{} seed{}",
                params.nodes, params.jobs, params.seed
            ),
        },
    );
    // LeastLoaded spreads the stream across every node, so a mid-run node
    // death actually has victims to fail over (FirstFit would pack node 0
    // and leave the doomed node idle). The controller is journaled so a
    // `--crash-at` injection can drop it and rebuild it from the write-
    // ahead log mid-run.
    let mut gac = JournaledGac::new(
        GlobalAdmissionController::new(
            params.nodes,
            LacConfig::default(),
            ProbePolicy::LeastLoaded,
        ),
        COMPACT_EVERY,
    );
    let mut faults = FaultReport::default();
    let mut pending = arrivals(params.jobs, params.horizon);
    pending.reverse(); // pop() yields earliest-first
    let mut fates: BTreeMap<JobId, JobFate> = BTreeMap::new();
    let mut ends: BTreeMap<JobId, Cycles> = BTreeMap::new();

    let step = Cycles::new((params.horizon.get() / 512).max(1));
    let drain_until = Cycles::new(params.horizon.get().saturating_mul(4));
    let mut t = Cycles::ZERO;
    loop {
        for injection in schedule.due(t) {
            faults.merge(gac.inject(injection, &mut rec));
            if matches!(injection.fault, Fault::ControllerCrash { .. }) {
                // The crash kills the controller process: everything but
                // the serialized journal is gone. Rebuild from it and
                // carry on — the recovered controller's decisions must be
                // indistinguishable from the uncrashed run's.
                let surviving = gac.to_jsonl();
                drop(gac);
                let (recovered, report) = JournaledGac::recover(&surviving, COMPACT_EVERY);
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
        // Snapshot reservation ends *before* completions are purged so a
        // finished job's completion instant (and deadline verdict) is its
        // final reservation's own end, not the polling step.
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
        let (completed, report) = gac.advance_recorded(t, &mut rec);
        faults.merge(report);
        for (id, _) in completed {
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
            let (node, _) = gac.submit_recorded(id, mode, request, tw, Some(deadline), &mut rec);
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
            break; // safety valve; stranded jobs will show in the fates
        }
        t += step;
    }

    // Fold migrations/revocations back into the per-job fates.
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

    let outcome = ChaosOutcome {
        fates: fates.into_values().collect(),
        faults,
        records: rec.to_vec(),
        live_nodes: gac.gac().live_nodes(),
    };
    if let Some(path) = &params.events {
        append_events(path, &outcome.records);
    }
    outcome
}

/// The run's self-check: it must be reconstructible from its event log
/// alone, so its records go out as JSONL and come back as a [`Timeline`]
/// equal to [`ChaosOutcome::timeline`].
///
/// # Errors
///
/// The log does not parse back, or parses into another timeline.
pub fn verify_roundtrip(outcome: &ChaosOutcome) -> Result<(), String> {
    let jsonl: String = outcome
        .records
        .iter()
        .map(|r| serde_json::to_string(r).expect("events serialize") + "\n")
        .collect();
    match Timeline::from_jsonl(&jsonl) {
        Ok(parsed) if parsed == outcome.timeline() => Ok(()),
        Ok(_) => Err("the JSONL round-trip does not reproduce the timeline".into()),
        Err(e) => Err(format!("the event log does not parse back: {e}")),
    }
}

/// Replays the chaos cell across several seeds on the `cmpqos-engine`
/// pool (`jobs` wide; `1` = serial). Each seed gets its own generated
/// schedule via [`ChaosParams::schedule`]; the outcomes come back in seed
/// order and, when `params.events` is set, the per-seed event streams are
/// appended to the log *after* the pool drains, in seed order — so the
/// file is byte-identical at every pool width.
#[must_use]
pub fn run_many(params: &ChaosParams, seeds: &[u64], jobs: usize) -> Vec<ChaosOutcome> {
    let cells: Vec<ChaosParams> = seeds
        .iter()
        .map(|&seed| {
            let mut p = params.clone();
            p.seed = seed;
            p.events = None; // appended below in seed order, not per-cell
            p
        })
        .collect();
    let outcomes = cmpqos_engine::Engine::new(jobs).run(cells, |_, p| run(&p, p.schedule()));
    if let Some(path) = &params.events {
        for o in &outcomes {
            append_events(path, &o.records);
        }
    }
    outcomes
}

fn append_events(path: &std::path::Path, records: &[Record]) {
    match cmpqos_obs::JsonlRecorder::append(path) {
        Ok(mut sink) => {
            for r in records {
                sink.record(r.at, r.event.clone());
            }
            sink.flush();
        }
        Err(e) => eprintln!("warning: cannot write events to {}: {e}", path.display()),
    }
}

/// Prints the survival table and the fault ledger, then checks that no
/// admitted job was stranded.
///
/// # Errors
///
/// Names the stranded jobs when any admitted job ended neither completed
/// nor revoked.
pub fn print(outcome: &ChaosOutcome, params: &ChaosParams) -> Result<(), String> {
    use crate::output::Table;
    println!(
        "== Chaos: {} jobs on {} nodes, seed {} ==",
        params.jobs, params.nodes, params.seed
    );
    let mut t = Table::new(&["job", "mode", "fate", "migrations", "deadline"]);
    for f in &outcome.fates {
        let fate = if f.admitted.is_none() {
            "rejected".to_string()
        } else if f.revoked {
            "revoked".to_string()
        } else if let Some(at) = f.completed {
            format!("completed@{at}")
        } else {
            "STRANDED".to_string()
        };
        let deadline = if f.admitted.is_none() {
            "-".to_string()
        } else if f.revoked {
            "revoked".to_string()
        } else if f.met_deadline() {
            "met".to_string()
        } else {
            "missed".to_string()
        };
        t.row_owned(vec![
            f.id.to_string(),
            format!("{}", f.mode),
            fate,
            f.migrations.to_string(),
            deadline,
        ]);
    }
    println!("{}", t.render());
    let admitted = outcome
        .fates
        .iter()
        .filter(|f| f.admitted.is_some())
        .count();
    let met = outcome.fates.iter().filter(|f| f.met_deadline()).count();
    println!(
        "admitted {admitted}/{} | deadlines met {met}/{admitted} | migrated {} | \
         downgraded {} | revoked {} | surviving nodes {}/{}",
        outcome.fates.len(),
        outcome.faults.migrated.len(),
        outcome.faults.downgraded.len(),
        outcome.faults.revoked.len(),
        outcome.live_nodes,
        params.nodes,
    );
    let stranded = outcome.stranded();
    if !stranded.is_empty() {
        return Err(format!("stranded reservations: {stranded:?}"));
    }
    Ok(())
}

/// `Err(message)` unless `holds`: one survival invariant of a chaos cell.
fn require(holds: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(message())
    }
}

/// The lines and checks both message-layer cells end with: the
/// conversation and frame counters, then every submission decided and
/// every admitted job completed XOR revoked.
fn print_traffic(
    gac: &NetGacStats,
    net: &NetStats,
    undecided: &[JobId],
    unaccounted: &[JobId],
) -> Result<(), String> {
    println!(
        "conversations: {} opened | {} retransmits | {} abandoned | {} stale replies",
        gac.conversations, gac.retransmits, gac.gave_up, gac.stale_replies
    );
    println!(
        "frames: {} sent | {} delivered | {} dropped | {} eaten by partitions | {} duplicated",
        net.sent, net.delivered, net.dropped, net.partitioned, net.duplicated
    );
    require(undecided.is_empty(), || {
        format!("submissions without a decision: {undecided:?}")
    })?;
    require(unaccounted.is_empty(), || {
        format!("admitted jobs not completed XOR revoked: {unaccounted:?}")
    })
}

// ---------------------------------------------------------------------------
// The message-layer chaos cell (`chaos --net`): partition and heal.
// ---------------------------------------------------------------------------

/// Knobs for one message-layer chaos run.
///
/// Unlike the classic cell, the controller here talks to its LACs over
/// the seeded `cmpqos-net` simulator — a lossy, duplicating, reordering
/// link per node — and the injected fault is a *partition*: a contiguous
/// range of nodes cut off from the GAC mid-run and healed later. The
/// partitioned nodes must be suspected, never evacuated, and the heal
/// must trigger the rejoin reconciliation that re-diffs both sides'
/// tables.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct NetChaosParams {
    /// Cluster size (LAC endpoints behind the network).
    pub nodes: usize,
    /// Jobs in the arrival stream.
    pub jobs: u32,
    /// Nominal run length; arrivals stop at its midpoint.
    pub horizon: Cycles,
    /// Seed for every probabilistic decision of the network.
    pub seed: u64,
    /// Nodes `[a, b)` severed from the GAC at the given cycle.
    pub partition: Option<(u32, u32, Cycles)>,
    /// When the partitioned range is restored (`None` = just before the
    /// drain).
    pub heal_at: Option<Cycles>,
    /// The `--inject drop-reconcile` must-fail switch: after the heal,
    /// every further frame toward the formerly partitioned nodes is
    /// force-dropped, so their flagged reconciliations can never complete
    /// and the pending-reconciliation check must catch it.
    pub drop_reconcile: bool,
}

impl NetChaosParams {
    /// Default fidelity: 100 nodes, 600 jobs, a 30-node partition in the
    /// middle third of the run.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            nodes: 100,
            jobs: 600,
            horizon: Cycles::new(600_000),
            seed: 1,
            partition: Some((10, 40, Cycles::new(200_000))),
            heal_at: Some(Cycles::new(350_000)),
            drop_reconcile: false,
        }
    }
}

impl Default for NetChaosParams {
    fn default() -> Self {
        Self::standard()
    }
}

/// O(1)-memory recorder for the net cell: aggregate [`Counters`] plus the
/// reconciliation and death tallies the verdict needs.
#[derive(Debug, Default)]
struct NetRecorder {
    counters: Counters,
    orphans_revoked: u64,
    placements_repaired: u64,
    deaths: u64,
}

impl Recorder for NetRecorder {
    fn record(&mut self, _at: Cycles, event: Event) {
        self.counters.bump(event.kind());
        match event {
            Event::Reconciled {
                orphans_revoked,
                placements_repaired,
                ..
            } => {
                self.orphans_revoked += orphans_revoked;
                self.placements_repaired += placements_repaired;
            }
            Event::NodeHealthChanged {
                to: Health::Dead, ..
            } => self.deaths += 1,
            _ => {}
        }
    }
}

/// Everything one net chaos run produced. Same seed, same outcome —
/// byte-identical, which is what CI's chaos-smoke job diffs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct NetChaosOutcome {
    /// Jobs submitted.
    pub submitted: u32,
    /// Jobs the GAC placed.
    pub admitted: u32,
    /// Jobs rejected at admission.
    pub rejected: u32,
    /// Admitted jobs whose reservations ran to completion.
    pub completed: u32,
    /// Admitted jobs revoked (no surviving capacity to re-place them).
    pub revoked: u32,
    /// Admitted jobs that ended neither completed XOR revoked — must be
    /// empty.
    pub unaccounted: Vec<JobId>,
    /// Submitted jobs that never got a decision — must be empty.
    pub undecided: Vec<JobId>,
    /// Nodes still flagged for reconciliation after the drain — must be
    /// 0 unless the drop-reconcile injection is live.
    pub pending_reconciles: usize,
    /// Final health census.
    pub healthy: usize,
    /// Nodes still suspected after the drain.
    pub suspect: usize,
    /// Nodes declared dead (a merely-partitioned node must never be).
    pub dead: usize,
    /// Evacuation migrations (must be 0: nobody died).
    pub migrated: u64,
    /// Loss-driven death transitions (must be 0).
    pub deaths: u64,
    /// Rejoin reconciliations completed.
    pub reconciles: u64,
    /// Orphan reservations revoked by reconciliation (their accept
    /// replies were lost in transit).
    pub orphans_revoked: u64,
    /// Placements re-placed by reconciliation.
    pub placements_repaired: u64,
    /// Conversation-layer counters.
    pub gac: NetGacStats,
    /// Frame-layer counters.
    pub net: NetStats,
}

/// Runs the message-layer chaos cell.
#[must_use]
pub fn run_net(params: &NetChaosParams) -> NetChaosOutcome {
    let mut config = NetGacConfig::default();
    // A partition heals. Merely-unreachable nodes must never cross the
    // death timeout mid-run, drain included.
    config.gac.dead_timeout = Cycles::new(params.horizon.get().saturating_mul(16));
    // Lossy enough that accept replies genuinely vanish (creating the
    // orphans reconciliation exists for), tame enough that conversations
    // usually complete within the retry budget.
    let cluster = lossy_cluster(params.nodes, params.seed, (0.05, 0.10), config);

    let mut injections = Vec::new();
    let mut at_drain = Vec::new();
    if let Some((a, b, at)) = params.partition {
        let severed = || (a..b.min(params.nodes as u32)).map(NodeId::new);
        let partition = severed().map(|node| Fault::LinkPartition { node });
        injections.push((at, partition.collect()));
        match params.heal_at {
            Some(at) => {
                let mut heal = Vec::new();
                for node in severed() {
                    heal.push(Fault::LinkHeal { node });
                    if params.drop_reconcile {
                        heal.push(Fault::MessageDrop {
                            node,
                            count: u32::MAX,
                        });
                    }
                }
                injections.push((at, heal));
            }
            // A schedule that never healed heals at the drain, so the
            // drain can reconcile instead of reporting every partitioned
            // node stuck.
            None => at_drain.extend(severed().map(|node| Fault::LinkHeal { node })),
        }
    }
    let (cluster, rec, ledger) = drive_cell(
        cluster,
        (params.jobs, params.horizon),
        injections,
        &at_drain,
    );

    let gac = cluster.gac();
    let census = |health| {
        (0..params.nodes)
            .filter(|&n| gac.node_health(NodeId::new(n as u32)) == health)
            .count()
    };
    NetChaosOutcome {
        submitted: params.jobs,
        admitted: ledger.admitted,
        rejected: ledger.rejected,
        completed: ledger.completed,
        revoked: ledger.revoked,
        unaccounted: ledger.unaccounted,
        undecided: ledger.undecided,
        pending_reconciles: gac.pending_reconciles(),
        healthy: census(NodeHealth::Healthy),
        suspect: census(NodeHealth::Suspect),
        dead: census(NodeHealth::Dead),
        migrated: rec.counters.migrated,
        deaths: rec.deaths,
        reconciles: rec.counters.reconciled,
        orphans_revoked: rec.orphans_revoked,
        placements_repaired: rec.placements_repaired,
        gac: gac.stats(),
        net: cluster.net().stats(),
    }
}

/// How the submitted jobs of a message-layer cell ended, read off the
/// GAC's decision ledger.
#[derive(Default)]
struct Ledger {
    admitted: u32,
    rejected: u32,
    completed: u32,
    revoked: u32,
    /// Admitted jobs that ended neither completed XOR revoked.
    unaccounted: Vec<JobId>,
    /// Submitted jobs that never got a decision.
    undecided: Vec<JobId>,
}

/// A cluster of `nodes` default LACs that places least-loaded first, over
/// links with a 10-cycle base latency, jitter 5 and reorder 10 that drop
/// and duplicate the given fractions of their frames. The cells read only
/// the network's counters, so it keeps no frame log.
fn lossy_cluster(
    nodes: usize,
    seed: u64,
    (drop, duplicate): (f64, f64),
    config: NetGacConfig,
) -> Cluster<Lac> {
    let link = LinkConfig::default()
        .base_latency(Cycles::new(10))
        .jitter(5)
        .reorder(10)
        .drop(drop)
        .duplicate(duplicate);
    let gac = NetGac::new(nodes, config, ProbePolicy::LeastLoaded);
    let endpoints = (0..nodes)
        .map(|_| LacEndpoint::new(Lac::new(LacConfig::default())))
        .collect();
    let net = SimNet::new(seed, link).without_logs();
    Cluster::from_parts(gac, endpoints, net, Cycles::ZERO)
}

/// One scheduled instant of a message-layer cell.
enum Step {
    /// Inject these faults, in order.
    Inject(Vec<Fault>),
    /// Submit this arrival of the stream.
    Submit(usize),
}

/// The run both message-layer cells share: the [`arrivals`] stream of
/// `(jobs, horizon)` and the injected faults, the drain, and the
/// decision ledger. Returns the drained cluster and its recorder too.
///
/// Each `(at, faults)` of `injections` is injected in order once the
/// cluster has run up to `at`, ahead of that instant's arrivals; a
/// `NodeJoin` brings up a fresh LAC, which a plain injection cannot
/// carry. When the schedule is done, the `at_drain` faults apply at the
/// cluster's clock. The drain then runs quarter-horizon chunks until
/// every conversation is settled, every placement retired, and every
/// reconciliation, join and drain finished — at most 16, so a sabotaged
/// run terminates instead of retrying forever.
fn drive_cell(
    mut cluster: Cluster<Lac>,
    (jobs, horizon): (u32, Cycles),
    injections: Vec<(Cycles, Vec<Fault>)>,
    at_drain: &[Fault],
) -> (Cluster<Lac>, NetRecorder, Ledger) {
    let mut rec = NetRecorder::default();
    let stream = arrivals(jobs, horizon);
    let mut steps: Vec<(Cycles, u8, usize, Step)> = injections
        .into_iter()
        .enumerate()
        .map(|(i, (at, faults))| (at, 0, i, Step::Inject(faults)))
        .collect();
    steps.extend(
        stream
            .iter()
            .enumerate()
            .map(|(i, &(at, ..))| (at, 1, i, Step::Submit(i))),
    );
    steps.sort_by_key(|&(at, rank, i, _)| (at, rank, i));

    for (at, _, _, step) in steps {
        cluster.run_until(at, &mut rec);
        match step {
            Step::Submit(i) => {
                let (_, id, mode, tw, deadline) = stream[i];
                let req = AdmissionRequest::builder(id, ResourceRequest::paper_job(), tw)
                    .mode(mode)
                    .deadline(deadline)
                    .build();
                cluster.gac_mut().submit(req, at, &mut rec);
            }
            Step::Inject(faults) => {
                for fault in faults {
                    if let Fault::NodeJoin { node } = fault {
                        let id = cluster.join_node(Lac::new(LacConfig::default()), at);
                        debug_assert_eq!(id, node, "joins take the next unused id");
                    } else {
                        cluster.apply(Injection { at, fault }, &mut rec);
                    }
                }
            }
        }
    }
    let at = cluster.now();
    for &fault in at_drain {
        cluster.apply(Injection { at, fault }, &mut rec);
    }

    let chunk = Cycles::new((horizon.get() / 4).max(1));
    for _ in 0..16 {
        let gac = cluster.gac();
        let churning = (0..cluster.nodes()).any(|i| {
            matches!(
                gac.member_state(NodeId::new(i as u32)),
                MemberState::Joining | MemberState::Draining
            )
        });
        if gac.idle() && gac.placements().is_empty() && gac.pending_reconciles() == 0 && !churning {
            break;
        }
        let until = cluster.now() + chunk;
        cluster.run_until(until, &mut rec);
    }

    let gac = cluster.gac();
    let mut ledger = Ledger::default();
    for &(_, job, ..) in &stream {
        match gac.decisions().get(&job) {
            None => ledger.undecided.push(job),
            Some((_, Decision::Accepted { .. })) => {
                ledger.admitted += 1;
                let done = gac.completed().contains(&job);
                let gone = gac.revoked().contains(&job);
                ledger.completed += u32::from(done);
                ledger.revoked += u32::from(gone);
                if done == gone {
                    ledger.unaccounted.push(job);
                }
            }
            Some((_, Decision::Rejected(_))) => ledger.rejected += 1,
        }
    }
    (cluster, rec, ledger)
}

/// Prints the net-cell verdict and checks the partition-tolerance
/// invariants: every job accounted for, nobody merely-partitioned was
/// evacuated or declared dead, and every flagged reconciliation
/// completed. The checks make `--inject drop-reconcile` fail — CI's proof
/// that the reconciliation check is live.
///
/// # Errors
///
/// Names the first broken invariant and the numbers that broke it.
pub fn print_net(o: &NetChaosOutcome, p: &NetChaosParams) -> Result<(), String> {
    println!(
        "== Net chaos: {} jobs on {} nodes over a lossy control plane, seed {} ==",
        p.jobs, p.nodes, p.seed
    );
    if let Some((a, b, at)) = p.partition {
        let heal = p
            .heal_at
            .map_or_else(|| "at drain".to_string(), |h| format!("at {h}"));
        println!("partition: nodes [{a}, {b}) severed at {at}, healed {heal}");
    }
    println!(
        "jobs: {} submitted | {} admitted | {} rejected | {} completed | {} revoked",
        o.submitted, o.admitted, o.rejected, o.completed, o.revoked
    );
    println!(
        "health: {} healthy, {} suspect, {} dead | migrations {} | loss-driven deaths {}",
        o.healthy, o.suspect, o.dead, o.migrated, o.deaths
    );
    println!(
        "reconciliation: {} completed ({} orphan(s) revoked, {} placement(s) repaired), \
         {} pending",
        o.reconciles, o.orphans_revoked, o.placements_repaired, o.pending_reconciles
    );
    print_traffic(&o.gac, &o.net, &o.undecided, &o.unaccounted)?;
    require(o.deaths == 0, || {
        format!(
            "a merely-partitioned node was declared dead ({} death(s))",
            o.deaths
        )
    })?;
    require(o.migrated == 0, || {
        format!(
            "a merely-partitioned node was evacuated ({} migration(s))",
            o.migrated
        )
    })?;
    require(o.pending_reconciles == 0, || {
        format!(
            "{} node(s) still awaiting rejoin reconciliation after the heal",
            o.pending_reconciles
        )
    })
}

// ---------------------------------------------------------------------------
// The elastic-membership chaos cell (`chaos --churn`): join, drain,
// restart, kill — with every placement lease-backed.
// ---------------------------------------------------------------------------

/// Knobs for one churn run.
///
/// The cluster starts at `nodes` LAC endpoints behind a lossy network and
/// is then churned by a seeded schedule of joins, graceful drains, and
/// restarts ([`cmpqos_faults::FaultPlan::seeded_churn`]), plus `kills`
/// hard node deaths. Heartbeats renew a lease on every placement; a node
/// that stops renewing loses its reservations to re-placement after the
/// same unreachable-vs-dead grace the health machine uses.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ChurnParams {
    /// Initial cluster size; joins grow the membership table past it.
    pub nodes: usize,
    /// Jobs in the arrival stream.
    pub jobs: u32,
    /// Nominal run length; arrivals stop at its midpoint and churn lands
    /// in its middle half.
    pub horizon: Cycles,
    /// Seed for the churn schedule and every network decision.
    pub seed: u64,
    /// Membership operations in the seeded schedule.
    pub churn_events: usize,
    /// Hard (unannounced) node deaths injected mid-run.
    pub kills: u32,
    /// The `--inject lease-freeze` must-fail switch: mid-run, two placed
    /// nodes keep answering heartbeats but stop having their leases
    /// renewed, so the zero-expiry assert must catch the expiries.
    pub lease_freeze: bool,
}

impl ChurnParams {
    /// Default fidelity: 104 nodes, 600 jobs, 24 churn ops, 2 kills.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            nodes: 104,
            jobs: 600,
            horizon: Cycles::new(600_000),
            seed: 1,
            churn_events: 24,
            kills: 2,
            lease_freeze: false,
        }
    }

    /// The full injection schedule: the seeded join/drain/restart plan,
    /// plus `kills` node deaths across the middle of the run (node 0 is
    /// never killed — the cluster always keeps one stable member), plus
    /// the lease-freeze sabotage when enabled.
    #[must_use]
    pub fn schedule(&self) -> FaultSchedule {
        let mut plan = FaultPlan::seeded_churn(
            self.seed,
            self.nodes as u32,
            self.horizon,
            self.churn_events,
        );
        for k in 0..self.kills {
            let at = Cycles::new(self.horizon.get() * (45 + 5 * u64::from(k)) / 100);
            plan = plan.node_fault(at, NodeId::new(1 + k));
        }
        if self.lease_freeze {
            let at = Cycles::new(self.horizon.get() * 3 / 10);
            let last = u32::try_from(self.nodes)
                .unwrap_or(u32::MAX)
                .saturating_sub(1);
            for n in 3..5u32 {
                plan = plan.lease_freeze(at, NodeId::new(n.min(last)));
            }
        }
        plan.build()
    }
}

impl Default for ChurnParams {
    fn default() -> Self {
        Self::standard()
    }
}

/// Everything one churn run produced. Same seed, same outcome —
/// byte-identical at any `--jobs` pool width, which is what CI's
/// chaos-smoke job diffs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ChurnOutcome {
    /// Jobs submitted.
    pub submitted: u32,
    /// Jobs the GAC placed.
    pub admitted: u32,
    /// Jobs rejected at admission.
    pub rejected: u32,
    /// Admitted jobs whose reservations ran to completion.
    pub completed: u32,
    /// Admitted jobs revoked with no surviving capacity.
    pub revoked: u32,
    /// Admitted jobs that ended neither completed XOR revoked — must be
    /// empty: churn may move a job (that's a migration) but never lose it.
    pub unaccounted: Vec<JobId>,
    /// Submitted jobs that never got a decision — must be empty.
    pub undecided: Vec<JobId>,
    /// Reservations moved off a dead, draining, or lease-expired node.
    pub migrations: u64,
    /// Join handshakes completed (fresh joins + restart rejoins).
    pub joined: u64,
    /// Graceful drains completed.
    pub drained: u64,
    /// Heartbeat lease renewals.
    pub leases_renewed: u64,
    /// Lease expiries — 0 unless the lease-freeze injection is live.
    pub leases_expired: u64,
    /// Final membership census: Live members.
    pub live: usize,
    /// Nodes still mid-join at the end — must be 0.
    pub joining: usize,
    /// Nodes still mid-drain at the end — must be 0.
    pub draining: usize,
    /// Departed members.
    pub left: usize,
    /// Final membership-table size (never shrinks; joins only add).
    pub final_nodes: usize,
    /// Nodes declared dead.
    pub dead: usize,
    /// Death transitions observed (the injected kills, and nothing else).
    pub deaths: u64,
    /// Nodes still flagged for reconciliation — must be 0.
    pub pending_reconciles: usize,
    /// Leases still outstanding after the drain.
    pub leases_outstanding: usize,
    /// Conversation-layer counters.
    pub gac: NetGacStats,
    /// Frame-layer counters.
    pub net: NetStats,
}

/// Runs the churn cell.
#[must_use]
pub fn run_churn(params: &ChurnParams) -> ChurnOutcome {
    // Heartbeats every 10k cycles renew 30k-cycle leases, with the 40k
    // dead-timeout as grace. A killed node's placements are evacuated by
    // the health machine (~40-50k of silence) before its leases would
    // expire (~70k), so a healthy run has zero expiries and the
    // zero-expiry assert is a real tripwire; a lease-frozen node's
    // placements expire (~70k) well inside their reservations
    // (horizon/6 = 100k at standard scale), so sabotage is caught.
    let mut config = NetGacConfig {
        heartbeat_every: Cycles::new(10_000),
        lease_ttl: Cycles::new(30_000),
        ..NetGacConfig::default()
    };
    config.gac.dead_timeout = Cycles::new(40_000);
    let cluster = lossy_cluster(params.nodes, params.seed, (0.03, 0.05), config);
    let injections = params
        .schedule()
        .injections()
        .iter()
        .map(|injection| (injection.at, vec![injection.fault]))
        .collect();
    let (cluster, rec, ledger) =
        drive_cell(cluster, (params.jobs, params.horizon), injections, &[]);

    let total_nodes = cluster.nodes();
    let gac = cluster.gac();
    let nodes = || (0..total_nodes).map(|i| NodeId::new(i as u32));
    let census = |member| nodes().filter(|&n| gac.member_state(n) == member).count();
    ChurnOutcome {
        submitted: params.jobs,
        admitted: ledger.admitted,
        rejected: ledger.rejected,
        completed: ledger.completed,
        revoked: ledger.revoked,
        unaccounted: ledger.unaccounted,
        undecided: ledger.undecided,
        migrations: rec.counters.migrated,
        joined: rec.counters.nodes_joined,
        drained: rec.counters.nodes_drained,
        leases_renewed: rec.counters.leases_renewed,
        leases_expired: rec.counters.leases_expired,
        live: census(MemberState::Live),
        joining: census(MemberState::Joining),
        draining: census(MemberState::Draining),
        left: census(MemberState::Left),
        final_nodes: total_nodes,
        dead: nodes()
            .filter(|&n| gac.node_health(n) == NodeHealth::Dead)
            .count(),
        deaths: rec.deaths,
        pending_reconciles: gac.pending_reconciles(),
        leases_outstanding: gac.leases().len(),
        gac: gac.stats(),
        net: cluster.net().stats(),
    }
}

/// Replays the churn cell across several seeds on the `cmpqos-engine`
/// pool (`jobs` wide; `1` = serial). Outcomes come back in seed order, so
/// the printed output is byte-identical at every pool width.
#[must_use]
pub fn run_churn_many(params: &ChurnParams, seeds: &[u64], jobs: usize) -> Vec<ChurnOutcome> {
    let cells: Vec<ChurnParams> = seeds
        .iter()
        .map(|&seed| {
            let mut p = params.clone();
            p.seed = seed;
            p
        })
        .collect();
    cmpqos_engine::Engine::new(jobs).run(cells, |_, p| run_churn(&p))
}

/// Prints the churn-cell survival table and checks the elastic-membership
/// invariants: every admitted job completed XOR revoked (migration being
/// the mechanism, never the terminal state), every join and drain
/// resolved, no loss-driven death, no pending reconciliation, and — the
/// lease tripwire — zero expiries. The checks make `--inject
/// lease-freeze` fail: CI's proof that the lease check is live.
///
/// # Errors
///
/// Names the first broken invariant and the numbers that broke it.
pub fn print_churn(o: &ChurnOutcome, p: &ChurnParams) -> Result<(), String> {
    println!(
        "== Churn: {} jobs, {} nodes + seeded churn x{} + {} kill(s), seed {} ==",
        p.jobs, p.nodes, p.churn_events, p.kills, p.seed
    );
    println!(
        "jobs: {} submitted | {} admitted | {} rejected | {} completed | {} revoked | {} migration(s)",
        o.submitted, o.admitted, o.rejected, o.completed, o.revoked, o.migrations
    );
    println!(
        "membership: {} -> {} nodes | {} live, {} joining, {} draining, {} left | \
         {} join(s) completed, {} drain(s) completed",
        p.nodes, o.final_nodes, o.live, o.joining, o.draining, o.left, o.joined, o.drained
    );
    println!(
        "health: {} dead ({} death transition(s)) | reconciliation pending {}",
        o.dead, o.deaths, o.pending_reconciles
    );
    println!(
        "leases: {} renewed | {} expired | {} outstanding",
        o.leases_renewed, o.leases_expired, o.leases_outstanding
    );
    print_traffic(&o.gac, &o.net, &o.undecided, &o.unaccounted)?;
    require(o.joining == 0, || {
        format!("{} join handshake(s) never completed", o.joining)
    })?;
    require(o.draining == 0, || {
        format!("{} graceful drain(s) never finished", o.draining)
    })?;
    require(o.deaths == u64::from(p.kills), || {
        format!(
            "{} death transition(s) for {} injected kill(s)",
            o.deaths, p.kills
        )
    })?;
    require(o.pending_reconciles == 0, || {
        format!(
            "{} node(s) still awaiting reconciliation after the drain",
            o.pending_reconciles
        )
    })?;
    require(o.leases_renewed > 0, || {
        "heartbeats renewed no leases".to_string()
    })?;
    require(o.leases_expired == 0, || {
        format!(
            "{} lease(s) expired: some placement went unrenewed past TTL + grace",
            o.leases_expired
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ChaosParams {
        let mut p = ChaosParams::standard();
        p.horizon = Cycles::new(60_000);
        p.seed = 7;
        p
    }

    #[test]
    fn killing_a_node_mid_workload_strands_nothing() {
        let p = quick();
        let plan = FaultPlan::new()
            .node_fault(Cycles::new(p.horizon.get() / 2), NodeId::new(2))
            .build();
        let o = run(&p, plan);
        assert_eq!(o.live_nodes, 2, "one node died");
        assert!(o.stranded().is_empty(), "stranded: {:?}", o.stranded());
        // Every admitted job is exactly one of completed / revoked.
        for f in &o.fates {
            if f.admitted.is_some() {
                assert!(
                    f.completed.is_some() ^ f.revoked,
                    "job {} has an ambiguous fate: {f:?}",
                    f.id
                );
            }
        }
        // Migrations that happened are all in the event stream.
        let migrated_jobs: Vec<_> = o
            .records
            .iter()
            .filter_map(|r| match r.event {
                Event::Migrated { job, .. } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(migrated_jobs.len(), o.faults.migrated.len());
        // Jobs that never touched the dead node and completed met their
        // (generous) deadlines.
        for f in &o.fates {
            if f.admitted.is_some_and(|n| n != NodeId::new(2)) && f.migrations == 0 {
                assert!(f.met_deadline(), "undisturbed job missed: {f:?}");
            }
        }
    }

    #[test]
    fn same_seed_yields_an_identical_event_stream() {
        let p = quick();
        let a = run(&p, p.schedule());
        let b = run(&p, p.schedule());
        assert_eq!(a.records, b.records);
        assert_eq!(a.fates, b.fates);
        let mut p2 = p.clone();
        p2.seed = 8;
        let c = run(&p2, p2.schedule());
        assert_ne!(a.records, c.records, "a new seed must change the run");
    }

    #[test]
    fn a_mid_run_controller_crash_recovers_byte_identically() {
        let p = quick();
        let mut pc = p.clone();
        pc.crash_at = Some(Cycles::new(p.horizon.get() / 3));
        let base = run(&p, p.schedule());
        let crashed = run(&pc, pc.schedule());
        // The crash actually happened and was recovered from the journal.
        let recoveries: Vec<_> = crashed
            .records
            .iter()
            .filter_map(|r| match r.event {
                Event::ControllerRecovered { replayed, lost, .. } => Some((replayed, lost)),
                _ => None,
            })
            .collect();
        assert_eq!(recoveries.len(), 1, "exactly one recovery");
        assert_eq!(recoveries[0].1, 0, "an untorn journal loses nothing");
        // Every admission decision, fate, and surviving-node count is
        // identical to the uncrashed same-seed run …
        assert_eq!(crashed.fates, base.fates);
        assert_eq!(crashed.live_nodes, base.live_nodes);
        assert!(crashed.stranded().is_empty());
        // … and the event streams differ only by the two crash markers.
        let strip = |records: &[Record]| {
            records
                .iter()
                .filter(|r| {
                    !matches!(
                        r.event,
                        Event::ControllerRecovered { .. }
                            | Event::FaultInjected {
                                fault: cmpqos_obs::FaultKind::ControllerCrash,
                                ..
                            }
                    )
                })
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&crashed.records), strip(&base.records));
    }

    #[test]
    fn multi_seed_replay_is_identical_at_every_pool_width() {
        let p = quick();
        let seeds = [7, 8, 9];
        let serial = run_many(&p, &seeds, 1);
        let parallel = run_many(&p, &seeds, 3);
        assert_eq!(serial.len(), 3);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.records, b.records);
            assert_eq!(a.fates, b.fates);
            assert_eq!(a.live_nodes, b.live_nodes);
        }
        // Seed order is preserved: cell i reran seed i.
        for (o, &seed) in serial.iter().zip(&seeds) {
            let mut ps = p.clone();
            ps.seed = seed;
            assert_eq!(o.records, run(&ps, ps.schedule()).records);
        }
    }

    #[test]
    fn the_event_log_reconstructs_the_run() {
        let p = quick();
        let o = run(&p, p.schedule());
        let tl = o.timeline();
        assert!(!tl.faults().is_empty(), "injections appear in the timeline");
        for f in &o.fates {
            let Some(jt) = tl.job(f.id) else { continue };
            assert_eq!(
                jt.completed.map(|(t, _)| t),
                f.completed,
                "job {} completion round-trips",
                f.id
            );
            assert_eq!(jt.migrations.len() as u32, f.migrations);
            assert_eq!(jt.revoked.is_some(), f.revoked);
        }
    }

    /// A small but genuinely lossy net cell: 12 nodes, a third of them
    /// partitioned for a quarter of the run.
    fn quick_net() -> NetChaosParams {
        let mut p = NetChaosParams::standard();
        p.nodes = 12;
        p.jobs = 48;
        p.horizon = Cycles::new(120_000);
        p.seed = 5;
        p.partition = Some((2, 6, Cycles::new(40_000)));
        p.heal_at = Some(Cycles::new(70_000));
        p
    }

    #[test]
    fn a_partitioned_and_healed_cluster_accounts_for_every_job() {
        let p = quick_net();
        let o = run_net(&p);
        assert!(o.net.partitioned > 0, "the partition ate no frames");
        assert!(o.admitted > 0, "nothing was admitted");
        assert!(o.undecided.is_empty(), "undecided: {:?}", o.undecided);
        assert!(
            o.unaccounted.is_empty(),
            "not completed XOR revoked: {:?}",
            o.unaccounted
        );
        assert_eq!(o.deaths, 0, "a merely-partitioned node was declared dead");
        assert_eq!(o.migrated, 0, "a merely-partitioned node was evacuated");
        assert_eq!(o.dead, 0);
        assert_eq!(o.pending_reconciles, 0, "reconciliations left hanging");
        assert!(o.reconciles > 0, "the heal triggered no reconciliation");
    }

    #[test]
    fn same_seed_net_runs_are_identical_and_seeds_matter() {
        let p = quick_net();
        let first = run_net(&p);
        assert_eq!(first, run_net(&p), "same seed must reproduce exactly");
        let mut other = p.clone();
        other.seed = 6;
        assert_ne!(run_net(&other), first, "a new seed must reshuffle the run");
    }

    #[test]
    fn the_drop_reconcile_injection_is_caught() {
        let mut p = quick_net();
        p.drop_reconcile = true;
        let o = run_net(&p);
        assert!(
            o.pending_reconciles > 0,
            "dropping every post-heal frame must leave reconciliations pending"
        );
    }

    /// A small but real churn cell. The horizon stays large enough that
    /// reservations (`horizon/6`) outlive a frozen lease's TTL + grace
    /// (70k cycles), so the lease-freeze must-fail test stays honest at
    /// this scale too.
    fn quick_churn() -> ChurnParams {
        let mut p = ChurnParams::standard();
        p.nodes = 16;
        p.jobs = 80;
        p.horizon = Cycles::new(480_000);
        p.seed = 7;
        p.churn_events = 8;
        p.kills = 1;
        p
    }

    #[test]
    fn a_churned_cluster_accounts_for_every_admitted_job() {
        let p = quick_churn();
        let o = run_churn(&p);
        assert!(o.admitted > 0, "nothing was admitted");
        assert!(o.undecided.is_empty(), "undecided: {:?}", o.undecided);
        assert!(
            o.unaccounted.is_empty(),
            "not completed XOR revoked: {:?}",
            o.unaccounted
        );
        assert_eq!(o.joining, 0, "a join handshake never completed");
        assert_eq!(o.draining, 0, "a drain never finished");
        assert_eq!(o.deaths, u64::from(p.kills), "only the injected kill dies");
        assert!(o.migrations > 0, "the kill evacuated nothing");
        assert_eq!(o.pending_reconciles, 0);
        assert!(o.leases_renewed > 0, "heartbeats renewed no leases");
        assert_eq!(o.leases_expired, 0, "a healthy run must expire no leases");
        assert!(
            o.final_nodes >= p.nodes,
            "the membership table is append-only"
        );
    }

    #[test]
    fn an_empty_churn_cell_picks_its_frozen_nodes_without_overflow() {
        let mut p = ChurnParams::standard();
        p.nodes = 0;
        p.lease_freeze = true;
        let frozen: Vec<NodeId> = p
            .schedule()
            .injections()
            .iter()
            .filter_map(|i| match i.fault {
                Fault::LeaseFreeze { node } => Some(node),
                _ => None,
            })
            .collect();
        assert_eq!(frozen, [NodeId::new(0); 2]);
    }

    #[test]
    fn same_seed_churn_runs_are_identical_at_any_pool_width() {
        let p = quick_churn();
        let first = run_churn(&p);
        assert_eq!(first, run_churn(&p), "same seed must reproduce exactly");
        let serial = run_churn_many(&p, &[7, 8], 1);
        let pooled = run_churn_many(&p, &[7, 8], 4);
        assert_eq!(serial, pooled, "pool width must not change any outcome");
        assert_eq!(serial[0], first);
        assert_ne!(serial[1], first, "a new seed must reshuffle the run");
    }

    #[test]
    fn the_lease_freeze_injection_is_caught() {
        let mut p = quick_churn();
        p.lease_freeze = true;
        let o = run_churn(&p);
        assert!(
            o.leases_expired > 0,
            "freezing renewals must expire leases past TTL + grace"
        );
    }
}
