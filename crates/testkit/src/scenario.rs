//! Seeded scenario generation, differential runners, and the shrinker.
//!
//! A [`Scenario`] is a seed-derived list of admission-layer operations
//! (job mixes across Strict/Elastic(X)/Opportunistic, capacity-revocation
//! fault schedules, journal crash points). Four differential runners diff
//! the production stack against the [`crate::oracle`] layer:
//!
//! * [`ScenarioKind::Lac`] — a [`JournaledLac`] (so crash points exercise
//!   recovery mid-scenario) against [`OracleLac`], op by op, with the
//!   reservation tables compared after every step.
//! * [`ScenarioKind::Intake`] — an [`AdmissionIntake`] + [`Lac`] against
//!   [`OracleIntake`] + [`OracleLac`]: offer outcomes, drained decisions,
//!   and breaker state must match.
//! * [`ScenarioKind::Scheduler`] — whole [`QosScheduler`] runs over real
//!   benchmark traces; before each submit the oracle is seeded from the
//!   scheduler's LAC and must predict the exact decision (including the
//!   Section 3.4 automatic-downgrade path).
//! * [`ScenarioKind::Gac`] — multi-node [`GlobalAdmissionController`]
//!   runs with way/core faults injected between submissions; every accept
//!   must be reproducible from the accepting node's pre-probe state, every
//!   reject confirmed against each live node, and no node's timeline may
//!   ever be overbooked.
//! * [`ScenarioKind::Adapt`] — the adaptive control law: seed-derived
//!   gains and error streams stepped through the production
//!   `cmpqos_adapt::pid_step` and the exact-`i128`
//!   [`OraclePid`](crate::oracle::OraclePid) in lockstep, with level,
//!   integral, and previous error compared after every step.
//! * [`ScenarioKind::Traffic`] — the traffic DSL: the seed fully derives
//!   a [`cmpqos_scenario::ScenarioSpec`] (arrival shapes, size mixtures,
//!   tenant topology, intake knobs), its materialized timeline is
//!   flattened into the same offer/drain op language the intake runner
//!   speaks, and the stream replays differentially through
//!   [`AdmissionIntake`] + [`Lac`] vs [`OracleIntake`] + [`OracleLac`]
//!   under the spec-derived intake config.
//!
//! On divergence the runner reports a [`Divergence`] whose
//! [`Divergence::repro`] is a one-line `cmpqos explore` invocation;
//! [`shrink`] delta-debugs a failing op list down to a local minimum.

use crate::oracle::{OracleIntake, OracleLac, OracleOffer, OracleRevocation};
use cmpqos_core::modes::auto_downgrade_plan;
use cmpqos_core::{
    AdmissionIntake, AdmissionRequest, Decision, ExecutionMode, GlobalAdmissionController,
    IntakeConfig, IntakeOutcome, Lac, LacConfig, ProbePolicy, QosJob, QosScheduler,
    ResourceRequest, SchedulerConfig,
};
use cmpqos_faults::{Fault, Injection};
use cmpqos_obs::NullRecorder;
use cmpqos_recovery::JournaledLac;
use cmpqos_scenario::ScenarioSpec;
use cmpqos_system::SystemConfig;
use cmpqos_trace::spec;
use cmpqos_types::{Cycles, Instructions, JobId, NodeId, Percent, SourceId, Ways};
use cmpqos_workloads::calibrate::Calibrator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which stack layer a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Journaled LAC vs the brute-force oracle, with crash points.
    Lac,
    /// Admission intake (overload layer) + LAC vs their oracles.
    Intake,
    /// Whole-scheduler runs with per-submit decision prediction.
    Scheduler,
    /// Multi-node GAC runs with fault injection and membership churn
    /// (joins, graceful drains, restarts) between submissions.
    Gac,
    /// Batched admission: runs of consecutive requests go through
    /// `admit_batch` and must decide identically to one-at-a-time
    /// admission and the brute-force oracle.
    Batch,
    /// Message-layer control plane: a [`cmpqos_core::Cluster`] driven over
    /// a seeded lossy/duplicating/reordering network with partitions,
    /// heals, forced drops, and membership churn (joins, graceful drains,
    /// restarts), checked against the delivered-message-log replay oracle
    /// ([`crate::netreplay`], restart-aware) plus the
    /// completed-XOR-revoked and no-overbooking invariants.
    Net,
    /// Adaptive control law: production `pid_step` vs the exact-`i128`
    /// [`OraclePid`](crate::oracle::OraclePid) over seed-derived gains and
    /// error streams.
    Adapt,
    /// Traffic-DSL scenarios: the seed derives a whole
    /// [`cmpqos_scenario::ScenarioSpec`] arrival/tenant topology, the
    /// materialized timeline becomes an offer/drain op stream, and the
    /// stream replays differentially through
    /// [`AdmissionIntake`] + [`Lac`] vs [`OracleIntake`] + [`OracleLac`].
    Traffic,
}

impl ScenarioKind {
    /// CLI name (`cmpqos explore --kind <name>`).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            ScenarioKind::Lac => "lac",
            ScenarioKind::Intake => "intake",
            ScenarioKind::Scheduler => "scheduler",
            ScenarioKind::Gac => "gac",
            ScenarioKind::Batch => "batch",
            ScenarioKind::Net => "net",
            ScenarioKind::Adapt => "adapt",
            ScenarioKind::Traffic => "traffic",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lac" => Some(ScenarioKind::Lac),
            "intake" => Some(ScenarioKind::Intake),
            "scheduler" => Some(ScenarioKind::Scheduler),
            "gac" => Some(ScenarioKind::Gac),
            "batch" => Some(ScenarioKind::Batch),
            "net" => Some(ScenarioKind::Net),
            "adapt" => Some(ScenarioKind::Adapt),
            "traffic" => Some(ScenarioKind::Traffic),
            _ => None,
        }
    }

    /// All kinds, in explorer rotation order.
    pub const ALL: [ScenarioKind; 8] = [
        ScenarioKind::Lac,
        ScenarioKind::Intake,
        ScenarioKind::Scheduler,
        ScenarioKind::Gac,
        ScenarioKind::Batch,
        ScenarioKind::Net,
        ScenarioKind::Adapt,
        ScenarioKind::Traffic,
    ];
}

/// One generated admission-layer operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Move both clocks forward by `delta` cycles.
    Advance {
        /// Cycles to add.
        delta: u64,
    },
    /// Admit a job (`deadline` is absolute; `None` = no deadline).
    Admit {
        /// Job id.
        id: u32,
        /// Execution mode.
        mode: ExecutionMode,
        /// Requested cores.
        cores: u32,
        /// Requested L2 ways.
        ways: u16,
        /// Requested bandwidth (percent points).
        bandwidth: u16,
        /// Maximum wall-clock time.
        tw: u64,
        /// Absolute deadline, if any.
        deadline: Option<u64>,
    },
    /// Admit via the latest-slot path (Section 3.4 fallback).
    AdmitLatest {
        /// Job id.
        id: u32,
        /// Requested cores.
        cores: u32,
        /// Requested L2 ways.
        ways: u16,
        /// Maximum wall-clock time.
        tw: u64,
        /// Absolute deadline.
        deadline: u64,
    },
    /// Release a (possibly unknown) job's reservation early.
    Release {
        /// Job id (may not exist — both sides must agree on the no-op).
        id: u32,
    },
    /// Cancel a (possibly unknown) job's reservation.
    Cancel {
        /// Job id.
        id: u32,
    },
    /// Revoke capacity down to this supply (a fault), then readmit every
    /// evicted reservation FCFS (the re-placement path).
    Revoke {
        /// Surviving cores.
        cores: u32,
        /// Surviving L2 ways.
        ways: u16,
    },
    /// Crash the production controller and recover it from its journal.
    CrashRecover,
    /// Offer a request to the intake (intake scenarios only).
    Offer {
        /// Job id.
        id: u32,
        /// Rate-limited source.
        source: u32,
        /// Execution mode.
        mode: ExecutionMode,
        /// Requested cores.
        cores: u32,
        /// Requested L2 ways.
        ways: u16,
        /// Maximum wall-clock time.
        tw: u64,
        /// Absolute deadline, if any.
        deadline: Option<u64>,
    },
    /// Drain the intake queue FCFS through the LAC.
    Drain,
    /// Sever the GAC ↔ node control-plane link (net scenarios only; the
    /// runner maps `node` onto the cluster's actual node count).
    Partition {
        /// The node to cut off.
        node: u32,
    },
    /// Restore the GAC ↔ node link.
    Heal {
        /// The node to reconnect.
        node: u32,
    },
    /// Silently drop the next `count` frames toward the node.
    DropNext {
        /// The node end of the lossy link.
        node: u32,
        /// Frames to lose.
        count: u32,
    },
    /// A brand-new node joins the cluster (net scenarios only; it gets
    /// the next unused id — membership is append-only).
    Join,
    /// Gracefully drain a node: placements migrate off it, then it
    /// leaves (the runner maps `node` onto the current node count).
    DrainNode {
        /// The node to drain.
        node: u32,
    },
    /// Restart a node: protocol state is lost, the journal-recovered
    /// reservation table reconciles before the node re-enters `Live`.
    RestartNode {
        /// The node to restart.
        node: u32,
    },
}

/// A seed-derived operation list for one differential run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generating seed (the repro key).
    pub seed: u64,
    /// The layer this scenario drives.
    pub kind: ScenarioKind,
    /// The operations, in order.
    pub ops: Vec<Op>,
}

fn gen_mode(rng: &mut StdRng) -> ExecutionMode {
    match rng.gen_range(0..4u32) {
        0 => ExecutionMode::Strict,
        1 => ExecutionMode::Opportunistic,
        _ => {
            let slack = [0.0, 5.0, 25.0, 50.0, 100.0][rng.gen_range(0..5usize)];
            ExecutionMode::Elastic(Percent::new(slack))
        }
    }
}

impl Scenario {
    /// Generates the scenario for `(kind, seed)`. Same inputs, same ops —
    /// this derivation is the repro contract behind [`Divergence::repro`].
    #[must_use]
    pub fn generate(kind: ScenarioKind, seed: u64) -> Self {
        if kind == ScenarioKind::Traffic {
            return Self::generate_traffic(seed);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0000 ^ (kind.as_str().len() as u64));
        let len = rng.gen_range(6..32usize);
        let mut ops = Vec::with_capacity(len);
        let mut now = 0u64;
        let mut next_id = 0u32;
        for _ in 0..len {
            let op = match kind {
                ScenarioKind::Intake => match rng.gen_range(0..10u32) {
                    0..=5 => {
                        let id = next_id;
                        next_id += 1;
                        Op::Offer {
                            id,
                            source: rng.gen_range(0..3),
                            mode: gen_mode(&mut rng),
                            cores: rng.gen_range(0..4),
                            ways: rng.gen_range(1..10),
                            tw: rng.gen_range(1..201),
                            deadline: if rng.gen_bool(0.7) {
                                Some(now + rng.gen_range(0..801))
                            } else {
                                None
                            },
                        }
                    }
                    6 | 7 => Op::Drain,
                    _ => {
                        let delta = rng.gen_range(0..301u64);
                        now += delta;
                        Op::Advance { delta }
                    }
                },
                // Admit-heavy so consecutive requests form real batches;
                // the occasional release/cancel/advance breaks a run and
                // mutates the table between flushes.
                ScenarioKind::Batch => match rng.gen_range(0..10u32) {
                    0..=5 => {
                        let id = next_id;
                        next_id += 1;
                        Op::Admit {
                            id,
                            mode: gen_mode(&mut rng),
                            cores: rng.gen_range(0..4),
                            ways: rng.gen_range(0..10),
                            bandwidth: rng.gen_range(0..51),
                            tw: rng.gen_range(1..251),
                            deadline: if rng.gen_bool(0.7) {
                                Some(now + rng.gen_range(0..1201))
                            } else {
                                None
                            },
                        }
                    }
                    6 => {
                        let id = next_id;
                        next_id += 1;
                        Op::AdmitLatest {
                            id,
                            cores: rng.gen_range(1..4),
                            ways: rng.gen_range(1..10),
                            tw: rng.gen_range(1..251),
                            deadline: now + rng.gen_range(0..1201),
                        }
                    }
                    7 => Op::Release {
                        id: rng.gen_range(0..next_id.max(1)),
                    },
                    8 => Op::Cancel {
                        id: rng.gen_range(0..next_id.max(1)),
                    },
                    _ => {
                        let delta = rng.gen_range(0..301u64);
                        now += delta;
                        Op::Advance { delta }
                    }
                },
                // Submission-heavy with the full message-layer fault mix
                // plus membership churn; Advance deltas are large relative
                // to the RTO (100) and retry interval (500) so
                // conversations actually time out, give up, and reconcile
                // inside one scenario.
                ScenarioKind::Net => match rng.gen_range(0..15u32) {
                    0..=4 => {
                        let id = next_id;
                        next_id += 1;
                        Op::Admit {
                            id,
                            mode: gen_mode(&mut rng),
                            cores: rng.gen_range(0..3),
                            ways: rng.gen_range(1..9),
                            bandwidth: rng.gen_range(0..51),
                            tw: rng.gen_range(1..2001),
                            deadline: if rng.gen_bool(0.6) {
                                Some(now + rng.gen_range(0..12_001))
                            } else {
                                None
                            },
                        }
                    }
                    5 => Op::Cancel {
                        id: rng.gen_range(0..next_id.max(1)),
                    },
                    6 => Op::Partition {
                        node: rng.gen_range(0..4),
                    },
                    7 => Op::Heal {
                        node: rng.gen_range(0..4),
                    },
                    8 => Op::DropNext {
                        node: rng.gen_range(0..4),
                        count: rng.gen_range(1..6),
                    },
                    9 => Op::Join,
                    10 => Op::DrainNode {
                        node: rng.gen_range(0..6),
                    },
                    11 => Op::RestartNode {
                        node: rng.gen_range(0..6),
                    },
                    _ => {
                        let delta = rng.gen_range(0..3001u64);
                        now += delta;
                        Op::Advance { delta }
                    }
                },
                _ => match rng.gen_range(0..12u32) {
                    0..=4 => {
                        let id = next_id;
                        next_id += 1;
                        Op::Admit {
                            id,
                            mode: gen_mode(&mut rng),
                            cores: rng.gen_range(0..4),
                            ways: rng.gen_range(0..10),
                            bandwidth: rng.gen_range(0..51),
                            tw: rng.gen_range(1..251),
                            deadline: if rng.gen_bool(0.7) {
                                Some(now + rng.gen_range(0..1201))
                            } else {
                                None
                            },
                        }
                    }
                    5 => {
                        let id = next_id;
                        next_id += 1;
                        Op::AdmitLatest {
                            id,
                            cores: rng.gen_range(1..4),
                            ways: rng.gen_range(1..10),
                            tw: rng.gen_range(1..251),
                            deadline: now + rng.gen_range(0..1201),
                        }
                    }
                    6 => Op::Release {
                        id: rng.gen_range(0..next_id.max(1)),
                    },
                    7 => Op::Cancel {
                        id: rng.gen_range(0..next_id.max(1)),
                    },
                    8 => Op::Revoke {
                        cores: rng.gen_range(1..5),
                        ways: rng.gen_range(4..17),
                    },
                    9 => Op::CrashRecover,
                    _ => {
                        let delta = rng.gen_range(0..301u64);
                        now += delta;
                        Op::Advance { delta }
                    }
                },
            };
            ops.push(op);
        }
        Self { seed, kind, ops }
    }

    /// Derives a whole traffic scenario from the DSL: the seed fully
    /// determines a [`ScenarioSpec`] (via [`ScenarioSpec::seeded`]),
    /// whose materialized arrival timeline is flattened into the
    /// offer/drain op language — `Advance` to each event instant,
    /// `Offer` per arrival (source flattened to `tier * 4 + source` so
    /// per-tenant buckets stay distinct through one shared intake), and
    /// `Drain` at the union of every tier's drain ticks plus the
    /// horizon. Re-generating from the same seed reproduces the
    /// identical traffic, so shrunken repros stay one-liners.
    #[must_use]
    pub fn generate_traffic(seed: u64) -> Self {
        let spec = ScenarioSpec::seeded(seed);
        let arrivals = cmpqos_scenario::timeline(&spec);

        // (time, kind 0=offer / 1=drain, arrival index)
        let mut events: Vec<(u64, u8, usize)> = Vec::new();
        for (i, a) in arrivals.iter().enumerate() {
            events.push((a.at, 0, i));
        }
        let mut ticks: Vec<u64> = Vec::new();
        for tier in &spec.tiers {
            let de = tier.drain_every.max(1);
            let mut tick = de;
            while tick <= spec.horizon {
                ticks.push(tick);
                tick += de;
            }
        }
        ticks.push(spec.horizon);
        ticks.sort_unstable();
        ticks.dedup();
        for tick in ticks {
            events.push((tick, 1, 0));
        }
        events.sort_by_key(|&(time, kind, index)| (time, kind, index));

        let mut ops = Vec::with_capacity(events.len() * 2);
        let mut now = 0u64;
        for (time, kind, index) in events {
            if time > now {
                ops.push(Op::Advance { delta: time - now });
                now = time;
            }
            if kind == 0 {
                let a = &arrivals[index];
                ops.push(Op::Offer {
                    id: index as u32,
                    source: a.tier as u32 * 4 + a.source,
                    mode: a.mode,
                    cores: 1,
                    ways: a.ways,
                    tw: a.tw,
                    deadline: a.deadline,
                });
            } else {
                ops.push(Op::Drain);
            }
        }
        Self {
            seed,
            kind: ScenarioKind::Traffic,
            ops,
        }
    }
}

/// A production-vs-oracle disagreement, with everything needed to replay
/// it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Generating seed.
    pub seed: u64,
    /// Scenario kind.
    pub kind: ScenarioKind,
    /// Index of the diverging op (or submission) within the scenario.
    pub op_index: usize,
    /// What disagreed.
    pub detail: String,
    /// The (possibly shrunken) op list that still reproduces the
    /// disagreement; empty for whole-run kinds that have no op list.
    pub ops: Vec<Op>,
}

impl Divergence {
    /// The one-line command that replays this divergence from its seed.
    #[must_use]
    pub fn repro(&self) -> String {
        format!(
            "cargo run --release --bin cmpqos -- explore --kind {} --seed {} --scenarios 1",
            self.kind.as_str(),
            self.seed
        )
    }

    /// The full report printed by the explorer on failure.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!(
            "DIVERGENCE kind={} seed={} op={}\n{}\nrepro: {}\n",
            self.kind.as_str(),
            self.seed,
            self.op_index,
            self.detail,
            self.repro()
        );
        if !self.ops.is_empty() {
            s.push_str(&format!(
                "shrunken ops ({}): {:?}\n",
                self.ops.len(),
                self.ops
            ));
        }
        s
    }
}

fn request_of(cores: u32, ways: u16, bandwidth: u16) -> ResourceRequest {
    ResourceRequest::new(cores, Ways::new(ways)).with_bandwidth(bandwidth)
}

/// Runs `scenario` through the production stack and the oracles.
///
/// # Errors
///
/// Returns the first [`Divergence`] (un-shrunken; see [`shrink`]).
pub fn run(scenario: &Scenario) -> Result<(), Divergence> {
    match scenario.kind {
        ScenarioKind::Lac => run_lac(scenario),
        ScenarioKind::Intake => run_intake(scenario),
        ScenarioKind::Scheduler => run_scheduler(scenario.seed),
        ScenarioKind::Gac => run_gac(scenario.seed),
        ScenarioKind::Batch => run_batch(scenario),
        ScenarioKind::Net => run_net(scenario),
        ScenarioKind::Adapt => run_adapt(scenario.seed),
        ScenarioKind::Traffic => run_traffic(scenario),
    }
}

fn diverge(scenario: &Scenario, op_index: usize, detail: String) -> Divergence {
    Divergence {
        seed: scenario.seed,
        kind: scenario.kind,
        op_index,
        detail,
        ops: scenario.ops.clone(),
    }
}

/// Journaled-LAC differential with crash points ([`ScenarioKind::Lac`]).
///
/// # Errors
///
/// Returns the first divergence between the production controller and the
/// brute-force oracle.
pub fn run_lac(scenario: &Scenario) -> Result<(), Divergence> {
    const COMPACT_EVERY: u64 = 5;
    let config = LacConfig::default();
    let mut jl = JournaledLac::new(Lac::new(config), COMPACT_EVERY);
    let mut oracle = OracleLac::new(config.capacity);
    let mut now = Cycles::ZERO;

    for (i, op) in scenario.ops.iter().enumerate() {
        match *op {
            Op::Advance { delta } => {
                now += Cycles::new(delta);
                jl.advance(now);
                oracle.advance(now);
            }
            Op::Admit {
                id,
                mode,
                cores,
                ways,
                bandwidth,
                tw,
                deadline,
            } => {
                let request = request_of(cores, ways, bandwidth);
                let mut b =
                    AdmissionRequest::builder(JobId::new(id), request, Cycles::new(tw)).mode(mode);
                if let Some(td) = deadline {
                    b = b.deadline(Cycles::new(td));
                }
                let got = jl.admit(&b.build());
                let want = oracle.admit(
                    JobId::new(id),
                    mode,
                    request,
                    Cycles::new(tw),
                    deadline.map(Cycles::new),
                );
                if got != want {
                    return Err(diverge(
                        scenario,
                        i,
                        format!("admit(job {id}, {mode:?}): lac {got:?} vs oracle {want:?}"),
                    ));
                }
            }
            Op::AdmitLatest {
                id,
                cores,
                ways,
                tw,
                deadline,
            } => {
                let request = request_of(cores, ways, 0);
                let req = AdmissionRequest::builder(JobId::new(id), request, Cycles::new(tw))
                    .deadline(Cycles::new(deadline))
                    .latest_feasible()
                    .build();
                let got = jl.admit(&req);
                let want = oracle.admit_latest(
                    JobId::new(id),
                    request,
                    Cycles::new(tw),
                    Cycles::new(deadline),
                );
                if got != want {
                    return Err(diverge(
                        scenario,
                        i,
                        format!("admit_latest(job {id}): lac {got:?} vs oracle {want:?}"),
                    ));
                }
            }
            Op::Release { id } => {
                jl.release(JobId::new(id), now);
                oracle.release(JobId::new(id), now);
            }
            Op::Cancel { id } => {
                jl.cancel(JobId::new(id));
                oracle.cancel(JobId::new(id));
            }
            Op::Revoke { cores, ways } => {
                let supply = request_of(cores, ways, 100);
                let got = jl.revoke_capacity(supply, now);
                let want = oracle.revoke_capacity(supply, now);
                if got.len() != want.len() {
                    return Err(diverge(
                        scenario,
                        i,
                        format!(
                            "revoke: lac returned {} revocations, oracle {}",
                            got.len(),
                            want.len()
                        ),
                    ));
                }
                let mut evicted = Vec::new();
                for (g, (wid, w)) in got.iter().zip(&want) {
                    let ga = OracleRevocation::of(&g.action);
                    if g.id != *wid || ga != *w {
                        return Err(diverge(
                            scenario,
                            i,
                            format!(
                                "revoke: job {:?} lac {ga:?} vs oracle job {wid:?} {w:?}",
                                g.id
                            ),
                        ));
                    }
                    if let cmpqos_core::RevocationAction::Evicted { reservation, .. } = g.action {
                        evicted.push(reservation);
                    }
                }
                // Re-placement path: readmit every evicted reservation FCFS.
                for r in &evicted {
                    let got = jl.readmit(r);
                    let want = oracle.readmit(r);
                    if got != want {
                        return Err(diverge(
                            scenario,
                            i,
                            format!("readmit({:?}): lac {got:?} vs oracle {want:?}", r.id),
                        ));
                    }
                }
            }
            Op::CrashRecover => {
                let jsonl = jl.to_jsonl();
                let (recovered, report) = JournaledLac::recover(&jsonl, COMPACT_EVERY);
                if report.lost != 0 {
                    return Err(diverge(
                        scenario,
                        i,
                        format!("clean journal lost {} ops on recovery", report.lost),
                    ));
                }
                jl = recovered;
            }
            // Intake-only and net-only ops.
            Op::Offer { .. }
            | Op::Drain
            | Op::Partition { .. }
            | Op::Heal { .. }
            | Op::DropNext { .. }
            | Op::Join
            | Op::DrainNode { .. }
            | Op::RestartNode { .. } => {}
        }

        if let Err(e) = oracle.table_matches(jl.lac()) {
            return Err(diverge(scenario, i, format!("after {op:?}: {e}")));
        }
        if let Some(t) = oracle.first_overbooked_instant() {
            return Err(diverge(
                scenario,
                i,
                format!("timeline overbooked at {t} after {op:?}"),
            ));
        }
    }
    Ok(())
}

/// Batch-admission differential ([`ScenarioKind::Batch`]): every maximal
/// run of consecutive admissions goes through `JournaledLac::admit_batch`
/// on the production side and one-at-a-time through a plain [`Lac`] and
/// the brute-force oracle. The three decision streams — and all three
/// reservation tables — must be identical at every flush.
///
/// # Errors
///
/// Returns the first divergence between the batched controller, the
/// sequential controller, and the oracle.
pub fn run_batch(scenario: &Scenario) -> Result<(), Divergence> {
    const COMPACT_EVERY: u64 = 5;

    fn flush(
        scenario: &Scenario,
        op_index: usize,
        run: &mut Vec<AdmissionRequest>,
        jl: &mut JournaledLac,
        seq: &mut Lac,
        oracle: &mut OracleLac,
    ) -> Result<(), Divergence> {
        if run.is_empty() {
            return Ok(());
        }
        let reqs = std::mem::take(run);
        let batched = jl.admit_batch(&reqs, &mut NullRecorder);
        for (req, got) in reqs.iter().zip(batched) {
            let one = seq.admit(req);
            let want = oracle.admit_request(req);
            if got != one || got != want {
                return Err(diverge(
                    scenario,
                    op_index,
                    format!(
                        "admit_batch(job {:?}): batch {got:?} vs sequential {one:?} \
                         vs oracle {want:?}",
                        req.id
                    ),
                ));
            }
        }
        Ok(())
    }

    let config = LacConfig::default();
    let mut jl = JournaledLac::new(Lac::new(config), COMPACT_EVERY);
    let mut seq = Lac::new(config);
    let mut oracle = OracleLac::new(config.capacity);
    let mut now = Cycles::ZERO;
    let mut run: Vec<AdmissionRequest> = Vec::new();

    for (i, op) in scenario.ops.iter().enumerate() {
        match *op {
            Op::Admit {
                id,
                mode,
                cores,
                ways,
                bandwidth,
                tw,
                deadline,
            } => {
                let mut b = AdmissionRequest::builder(
                    JobId::new(id),
                    request_of(cores, ways, bandwidth),
                    Cycles::new(tw),
                )
                .mode(mode);
                if let Some(td) = deadline {
                    b = b.deadline(Cycles::new(td));
                }
                run.push(b.build());
                continue; // the run is still open — no table check yet
            }
            Op::AdmitLatest {
                id,
                cores,
                ways,
                tw,
                deadline,
            } => {
                run.push(
                    AdmissionRequest::builder(
                        JobId::new(id),
                        request_of(cores, ways, 0),
                        Cycles::new(tw),
                    )
                    .deadline(Cycles::new(deadline))
                    .latest_feasible()
                    .build(),
                );
                continue;
            }
            Op::Advance { delta } => {
                flush(scenario, i, &mut run, &mut jl, &mut seq, &mut oracle)?;
                now += Cycles::new(delta);
                jl.advance(now);
                seq.advance(now);
                oracle.advance(now);
            }
            Op::Release { id } => {
                flush(scenario, i, &mut run, &mut jl, &mut seq, &mut oracle)?;
                jl.release(JobId::new(id), now);
                seq.release(JobId::new(id), now);
                oracle.release(JobId::new(id), now);
            }
            Op::Cancel { id } => {
                flush(scenario, i, &mut run, &mut jl, &mut seq, &mut oracle)?;
                jl.cancel(JobId::new(id));
                seq.cancel(JobId::new(id));
                oracle.cancel(JobId::new(id));
            }
            // Not generated for batch scenarios.
            Op::Revoke { .. }
            | Op::CrashRecover
            | Op::Offer { .. }
            | Op::Drain
            | Op::Partition { .. }
            | Op::Heal { .. }
            | Op::DropNext { .. }
            | Op::Join
            | Op::DrainNode { .. }
            | Op::RestartNode { .. } => {}
        }

        if jl.lac() != &seq {
            return Err(diverge(
                scenario,
                i,
                format!(
                    "batched and sequential controllers diverged after {op:?}:\n  \
                     batch: {:?}\n  seq:   {:?}",
                    jl.lac().reservations(),
                    seq.reservations()
                ),
            ));
        }
        if let Err(e) = oracle.table_matches(jl.lac()) {
            return Err(diverge(scenario, i, format!("after {op:?}: {e}")));
        }
        if let Some(t) = oracle.first_overbooked_instant() {
            return Err(diverge(
                scenario,
                i,
                format!("timeline overbooked at {t} after {op:?}"),
            ));
        }
    }
    let last = scenario.ops.len().saturating_sub(1);
    flush(scenario, last, &mut run, &mut jl, &mut seq, &mut oracle)?;
    if jl.lac() != &seq {
        return Err(diverge(
            scenario,
            last,
            "batched and sequential controllers diverged at end of scenario".to_string(),
        ));
    }
    if let Err(e) = oracle.table_matches(jl.lac()) {
        return Err(diverge(scenario, last, format!("at end of scenario: {e}")));
    }
    if let Some(t) = oracle.first_overbooked_instant() {
        return Err(diverge(
            scenario,
            last,
            format!("timeline overbooked at {t} at end of scenario"),
        ));
    }
    Ok(())
}

/// Message-layer control-plane differential ([`ScenarioKind::Net`]).
///
/// Replays the op list over a [`Cluster`](cmpqos_core::Cluster) whose
/// GAC↔LAC traffic crosses a seeded network with latency jitter,
/// reordering, probabilistic drops and duplicates — plus the explicit
/// partition/heal/forced-drop ops — then heals every link and drains.
/// After **every** op the run is checked against the
/// delivered-message-log replay oracle
/// ([`crate::netreplay::check`]: node state must be a pure function of
/// the frames actually delivered) and the per-node no-overbooking oracle;
/// after the drain, every admitted job must be completed XOR revoked,
/// every placement retired, and every flagged reconciliation completed.
///
/// The cluster topology (node count, probe policy, link misbehavior) is
/// re-derived from the seed, so shrinking the op list never changes the
/// network it runs over.
///
/// # Errors
///
/// Returns the first [`Divergence`] from the replay or overbooking
/// oracles, or from the end-state accounting invariants.
pub fn run_net(scenario: &Scenario) -> Result<(), Divergence> {
    use cmpqos_core::{Cluster, NetGacConfig};
    use cmpqos_net::LinkConfig;

    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x4E70_0001);
    let nodes = rng.gen_range(2..5usize);
    let policy = if rng.gen_bool(0.5) {
        ProbePolicy::FirstFit
    } else {
        ProbePolicy::LeastLoaded
    };
    let link = LinkConfig::default()
        .base_latency(Cycles::new(rng.gen_range(5..21)))
        .jitter(rng.gen_range(0..16))
        .reorder(rng.gen_range(0..21))
        .drop([0.0, 0.05, 0.15][rng.gen_range(0..3usize)])
        .duplicate([0.0, 0.1, 0.3][rng.gen_range(0..3usize)]);
    let lac_config = LacConfig::default();
    let mut cluster = Cluster::new(
        nodes,
        lac_config,
        scenario.seed ^ 0x4E70_0002,
        link,
        NetGacConfig::default(),
        policy,
    );
    let mut rec = NullRecorder;
    let mut now = Cycles::ZERO;
    let mut submitted: Vec<JobId> = Vec::new();
    let mut restarts: Vec<(Cycles, NodeId)> = Vec::new();
    let node_of = |n: u32| NodeId::new(n % nodes as u32);

    let oracles = |cluster: &Cluster<Lac>, restarts: &[(Cycles, NodeId)]| -> Result<(), String> {
        crate::netreplay::check_with_restarts(cluster, lac_config, restarts)?;
        for i in 0..cluster.nodes() {
            let node = NodeId::new(i as u32);
            let backend = cluster.endpoint(node).backend();
            let oracle =
                OracleLac::from_parts(lac_config.capacity, backend.reservations(), backend.now());
            if let Some(t) = oracle.first_overbooked_instant() {
                return Err(format!("{node} timeline overbooked at {t}"));
            }
        }
        Ok(())
    };

    for (i, op) in scenario.ops.iter().enumerate() {
        match *op {
            Op::Advance { delta } => {
                now += Cycles::new(delta);
                cluster.run_until(now, &mut rec);
            }
            Op::Admit {
                id,
                mode,
                cores,
                ways,
                bandwidth,
                tw,
                deadline,
            } => {
                let mut b = AdmissionRequest::builder(
                    JobId::new(id),
                    request_of(cores, ways, bandwidth),
                    Cycles::new(tw),
                )
                .mode(mode);
                if let Some(td) = deadline {
                    b = b.deadline(Cycles::new(td));
                }
                submitted.push(JobId::new(id));
                let at = cluster.now();
                cluster.gac_mut().submit(b.build(), at, &mut rec);
                cluster.run_until(at, &mut rec);
            }
            Op::Cancel { id } => {
                cluster.gac_mut().revoke(JobId::new(id));
                let at = cluster.now();
                cluster.run_until(at, &mut rec);
            }
            Op::Partition { node } => {
                let at = cluster.now();
                let fault = Fault::LinkPartition {
                    node: node_of(node),
                };
                cluster.apply(Injection { at, fault }, &mut rec);
            }
            Op::Heal { node } => {
                let at = cluster.now();
                let fault = Fault::LinkHeal {
                    node: node_of(node),
                };
                cluster.apply(Injection { at, fault }, &mut rec);
            }
            Op::DropNext { node, count } => {
                let at = cluster.now();
                let fault = Fault::MessageDrop {
                    node: node_of(node),
                    count,
                };
                cluster.apply(Injection { at, fault }, &mut rec);
            }
            Op::Join => {
                let at = cluster.now();
                let _ = cluster.join_node(Lac::new(lac_config), at);
            }
            Op::DrainNode { node } => {
                let n = NodeId::new(node % cluster.nodes() as u32);
                let at = cluster.now();
                cluster.drain_node(n, at);
            }
            Op::RestartNode { node } => {
                let n = NodeId::new(node % cluster.nodes() as u32);
                let at = cluster.now();
                cluster.restart_node(n, at, &mut rec);
                restarts.push((at, n));
            }
            // LAC/intake-only ops are not generated for net scenarios.
            _ => {}
        }
        if let Err(e) = oracles(&cluster, &restarts) {
            return Err(diverge(scenario, i, format!("after {op:?}: {e}")));
        }
    }

    // Heal every link and drain: a fully-connected cluster must settle
    // every conversation, retire every placement, and complete every
    // flagged reconciliation.
    let end = scenario.ops.len().saturating_sub(1);
    for n in 0..nodes {
        let at = cluster.now();
        let fault = Fault::LinkHeal {
            node: NodeId::new(n as u32),
        };
        cluster.apply(Injection { at, fault }, &mut rec);
    }
    for round in 0..64 {
        let until = cluster.now() + Cycles::new(100_000);
        cluster.run_until(until, &mut rec);
        let gac = cluster.gac();
        let churning = (0..cluster.nodes()).any(|n| {
            matches!(
                gac.member_state(NodeId::new(n as u32)),
                cmpqos_core::MemberState::Joining | cmpqos_core::MemberState::Draining
            )
        });
        if gac.idle() && gac.pending_reconciles() == 0 && gac.placements().is_empty() && !churning {
            break;
        }
        if round == 63 {
            return Err(diverge(
                scenario,
                end,
                format!(
                    "cluster failed to quiesce after heal: idle={} \
                     pending_reconciles={} placements={} churning={churning}",
                    gac.idle(),
                    gac.pending_reconciles(),
                    gac.placements().len()
                ),
            ));
        }
    }
    if let Err(e) = oracles(&cluster, &restarts) {
        return Err(diverge(scenario, end, format!("after drain: {e}")));
    }

    // End-state accounting: every submission decided; every accepted job
    // completed XOR revoked; every rejected job neither.
    let gac = cluster.gac();
    for &job in &submitted {
        let Some((_, decision)) = gac.decisions().get(&job) else {
            return Err(diverge(
                scenario,
                end,
                format!("job {job:?} was submitted but never decided"),
            ));
        };
        let completed = gac.completed().contains(&job);
        let revoked = gac.revoked().contains(&job);
        match decision {
            Decision::Accepted { .. } => {
                if !(completed ^ revoked) {
                    return Err(diverge(
                        scenario,
                        end,
                        format!(
                            "admitted job {job:?} must be completed XOR revoked, \
                             got completed={completed} revoked={revoked}"
                        ),
                    ));
                }
            }
            Decision::Rejected(_) => {
                if completed || revoked {
                    return Err(diverge(
                        scenario,
                        end,
                        format!(
                            "rejected job {job:?} has a terminal state: \
                             completed={completed} revoked={revoked}"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Intake differential ([`ScenarioKind::Intake`]).
///
/// # Errors
///
/// Returns the first divergence between the production intake/LAC pair
/// and their oracles.
pub fn run_intake(scenario: &Scenario) -> Result<(), Divergence> {
    // Tightened limits so short scenarios actually hit every shed path.
    let config = IntakeConfig::builder()
        .queue_capacity(4)
        .bucket_capacity(3)
        .refill_interval(Cycles::new(50))
        .breaker_window(4)
        .breaker_threshold_pct(50)
        .breaker_cooldown(Cycles::new(200))
        .build();
    run_intake_with(scenario, config)
}

/// Traffic-DSL differential ([`ScenarioKind::Traffic`]): the seed's
/// [`ScenarioSpec`] supplies both the op stream (see
/// [`Scenario::generate_traffic`]) and the intake config — the highest
/// priority tier's queue, bucket, and refill knobs, with the breaker
/// tightened so DSL-length scenarios actually trip it.
///
/// # Errors
///
/// Returns the first divergence between the production intake/LAC pair
/// and their oracles.
pub fn run_traffic(scenario: &Scenario) -> Result<(), Divergence> {
    let spec = ScenarioSpec::seeded(scenario.seed);
    let tier = &spec.tiers[0];
    let config = IntakeConfig::builder()
        .queue_capacity(tier.queue_capacity)
        .bucket_capacity(tier.bucket_capacity.min(u64::from(u32::MAX)) as u32)
        .refill_interval(Cycles::new(tier.refill_interval))
        .breaker_window(4)
        .breaker_threshold_pct(50)
        .breaker_cooldown(Cycles::new(200))
        .build();
    run_intake_with(scenario, config)
}

fn run_intake_with(scenario: &Scenario, config: IntakeConfig) -> Result<(), Divergence> {
    let mut intake = AdmissionIntake::new(NodeId::new(0), config);
    let mut lac = Lac::new(LacConfig::default());
    let mut oracle_intake = OracleIntake::new(&config);
    let mut oracle_lac = OracleLac::new(LacConfig::default().capacity);
    let mut now = Cycles::ZERO;
    let mut rec = NullRecorder;

    for (i, op) in scenario.ops.iter().enumerate() {
        match *op {
            Op::Advance { delta } => now += Cycles::new(delta),
            Op::Offer {
                id,
                source,
                mode,
                cores,
                ways,
                tw,
                deadline,
            } => {
                let mut b = AdmissionRequest::builder(
                    JobId::new(id),
                    request_of(cores, ways, 0),
                    Cycles::new(tw),
                )
                .source(SourceId::new(source))
                .mode(mode);
                if let Some(td) = deadline {
                    b = b.deadline(Cycles::new(td));
                }
                let req = b.build();
                let got = intake.offer(req, now, &mut rec);
                let want = oracle_intake.offer(req, now);
                let matches = match (got, want) {
                    (IntakeOutcome::Enqueued, OracleOffer::Enqueued) => true,
                    (IntakeOutcome::Shed(a), OracleOffer::Shed(b)) => a == b,
                    _ => false,
                };
                if !matches {
                    return Err(diverge(
                        scenario,
                        i,
                        format!("offer(job {id}): intake {got:?} vs oracle {want:?}"),
                    ));
                }
            }
            Op::Drain => {
                let got = intake.drain(&mut lac, now, &mut rec);
                let want = oracle_intake.drain(&mut oracle_lac, now);
                if got.len() != want.len() {
                    return Err(diverge(
                        scenario,
                        i,
                        format!("drain: {} decisions vs oracle {}", got.len(), want.len()),
                    ));
                }
                for (g, (wid, w)) in got.iter().zip(&want) {
                    if g.id != *wid || g.decision != *w {
                        return Err(diverge(
                            scenario,
                            i,
                            format!(
                                "drain: job {:?} {:?} vs oracle job {wid:?} {w:?}",
                                g.id, g.decision
                            ),
                        ));
                    }
                }
                if let Err(e) = oracle_lac.table_matches(&lac) {
                    return Err(diverge(scenario, i, format!("after drain: {e}")));
                }
            }
            _ => {} // LAC-only ops
        }

        if intake.breaker_open(now) != oracle_intake.breaker_open(now) {
            return Err(diverge(
                scenario,
                i,
                format!("breaker state diverged after {op:?} at {now}"),
            ));
        }
        if let Some(t) = oracle_lac.first_overbooked_instant() {
            return Err(diverge(
                scenario,
                i,
                format!("timeline overbooked at {t} after {op:?}"),
            ));
        }
    }
    Ok(())
}

/// Whole-scheduler decision differential ([`ScenarioKind::Scheduler`]).
///
/// Submits a seed-derived mix of benchmark jobs to a [`QosScheduler`],
/// predicting each admission decision with an oracle seeded from the
/// scheduler's LAC immediately before the submit (mirroring the automatic
/// mode-downgrade condition of `QosScheduler::submit`).
///
/// # Errors
///
/// Returns a [`Divergence`] when a decision differs from the oracle's
/// prediction, an accepted job's timeslot overbooks the node, or a
/// reserving job misses its reserved deadline.
pub fn run_scheduler(seed: u64) -> Result<(), Divergence> {
    const K: u64 = 16;
    const WORK: u64 = 20_000;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5C_4ED0);
    let cal = Calibrator::new(K, Instructions::new(WORK));
    let benches = ["bzip2", "hmmer", "gobmk", "namd"];
    let auto_downgrade = rng.gen_bool(0.5);
    let mut config = SchedulerConfig::default();
    config.auto_downgrade = auto_downgrade;
    let min_slack_frac = config.auto_downgrade_min_slack;
    let mut scheduler = QosScheduler::new(SystemConfig::paper_scaled(K), config);
    let jobs = rng.gen_range(2..6u32);
    let mut accepted_reserving = Vec::new();

    for n in 0..jobs {
        let bench = benches[rng.gen_range(0..benches.len())];
        let tw = cal.tw(bench);
        let mode = gen_mode(&mut rng);
        let deadline_factor = [1.05, 2.0, 3.0][rng.gen_range(0..3usize)];
        let now = scheduler.now();
        let deadline = if rng.gen_bool(0.8) {
            Some(now + tw.scale(deadline_factor))
        } else {
            None
        };
        let request = ResourceRequest::paper_job();
        let id = JobId::new(n);
        let mut builder = QosJob::with_mode(id, mode, request)
            .work(Instructions::new(WORK))
            .max_wall_clock(tw);
        builder = match deadline {
            Some(td) => builder.deadline(td),
            None => builder.no_deadline(),
        };
        let job = builder.build();

        // Seed the oracle from the LAC as it stands right now; the submit
        // advances it to `now` first, so the oracle does the same.
        let state = scheduler.lac().snapshot();
        let mut oracle =
            OracleLac::from_parts(state.config.capacity, state.reservations, state.now);
        oracle.advance(now);
        let min_slack = tw.scale(min_slack_frac);
        let auto = auto_downgrade
            && mode == ExecutionMode::Strict
            && deadline.is_some_and(|td| {
                auto_downgrade_plan(now, td, tw).is_some()
                    && td.saturating_sub(now).saturating_sub(tw) >= min_slack
            });
        let want = if auto {
            oracle.admit_latest(id, request, tw, deadline.expect("auto requires deadline"))
        } else {
            oracle.admit(id, mode, request, tw, deadline)
        };

        let source = spec::scaled(bench, K)
            .expect("built-in benchmark")
            .instantiate(seed ^ u64::from(n), 0);
        let got = scheduler.submit(job, source);
        if got != want {
            return Err(Divergence {
                seed,
                kind: ScenarioKind::Scheduler,
                op_index: n as usize,
                detail: format!(
                    "submit(job {n}, {bench}, {mode:?}, auto={auto}): scheduler {got:?} \
                     vs oracle {want:?}"
                ),
                ops: Vec::new(),
            });
        }
        if let Some(t) = oracle.first_overbooked_instant() {
            return Err(Divergence {
                seed,
                kind: ScenarioKind::Scheduler,
                op_index: n as usize,
                detail: format!("timeline overbooked at {t} after submit of job {n}"),
                ops: Vec::new(),
            });
        }
        if got.is_accepted() && mode.reserves_resources() {
            accepted_reserving.push(id);
        }
        // Let some time pass so submissions see non-trivial LAC states.
        let skip = scheduler.now() + tw.scale(rng.gen_range(0.1..0.8));
        scheduler.run_until(skip);
    }

    let end = scheduler.run_to_idle(Cycles::new(u64::MAX / 4));
    for id in accepted_reserving {
        let report = scheduler.report(id).expect("accepted job has a report");
        if !report.met_deadline() {
            return Err(Divergence {
                seed,
                kind: ScenarioKind::Scheduler,
                op_index: id.as_usize(),
                detail: format!(
                    "reserving job {id:?} accepted but missed its deadline (end {end})"
                ),
                ops: Vec::new(),
            });
        }
    }
    Ok(())
}

/// Multi-node GAC soundness differential ([`ScenarioKind::Gac`]).
///
/// # Errors
///
/// Returns a [`Divergence`] when an accept is not reproducible from the
/// accepting node's pre-probe state, a reject is not confirmed by the
/// oracle of every node it could probe (Live and healthy), or any node's
/// timeline is overbooked after a submission or fault.
pub fn run_gac(seed: u64) -> Result<(), Divergence> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6AC0);
    let nodes = rng.gen_range(2..4usize);
    let policy = if rng.gen_bool(0.5) {
        ProbePolicy::FirstFit
    } else {
        ProbePolicy::LeastLoaded
    };
    let mut gac = GlobalAdmissionController::new(nodes, LacConfig::default(), policy);
    let mut now = Cycles::ZERO;
    let mut rec = NullRecorder;
    let submissions = rng.gen_range(6..17u32);

    for n in 0..submissions {
        now += Cycles::new(rng.gen_range(0..301));
        let _ = gac.advance(now, &mut rec);

        if rng.gen_bool(0.2) {
            let node = NodeId::new(rng.gen_range(0..nodes as u32));
            let fault = if rng.gen_bool(0.5) {
                Fault::WayFault {
                    node,
                    way: rng.gen_range(0..16),
                }
            } else {
                Fault::CoreFault {
                    node,
                    core: cmpqos_types::CoreId::new(rng.gen_range(0..4)),
                }
            };
            let _ = gac.inject(Injection { at: now, fault }, &mut rec);
        }

        // Membership churn between submissions: joins grow the table,
        // drains and restarts exercise the migrate/reconcile paths. Node 0
        // is never drained, so the cluster keeps at least one member.
        if rng.gen_bool(0.25) {
            let node = NodeId::new(rng.gen_range(0..gac.nodes() as u32));
            let fault = match rng.gen_range(0..3u32) {
                0 => Fault::NodeJoin {
                    node: NodeId::new(gac.nodes() as u32),
                },
                1 if node.as_usize() != 0 => Fault::NodeDrain { node },
                _ => Fault::NodeRestart { node },
            };
            let _ = gac.inject(Injection { at: now, fault }, &mut rec);
        }

        let pre = gac.snapshot();
        let id = JobId::new(n);
        let mode = gen_mode(&mut rng);
        let request = request_of(rng.gen_range(0..3), rng.gen_range(1..9), 0);
        let tw = Cycles::new(rng.gen_range(1..251));
        let deadline = if rng.gen_bool(0.7) {
            Some(now + Cycles::new(rng.gen_range(0..1001)))
        } else {
            None
        };

        let mut b = AdmissionRequest::builder(id, request, tw).mode(mode);
        if let Some(td) = deadline {
            b = b.deadline(td);
        }
        let (placed, decision) = gac.submit_request(&b.build(), &mut rec);
        match (placed, decision) {
            (Some(node), Decision::Accepted { start }) => {
                let snap = &pre.nodes[node.as_usize()];
                let mut oracle = OracleLac::from_parts(
                    snap.lac.config.capacity,
                    snap.lac.reservations.clone(),
                    snap.lac.now,
                );
                let want = oracle.admit(id, mode, request, tw, deadline);
                if want != (Decision::Accepted { start }) {
                    return Err(Divergence {
                        seed,
                        kind: ScenarioKind::Gac,
                        op_index: n as usize,
                        detail: format!(
                            "gac placed job {n} on {node:?} at {start}, but the node's \
                             pre-probe oracle said {want:?}"
                        ),
                        ops: Vec::new(),
                    });
                }
            }
            (None, Decision::Rejected(_)) => {
                for (i, snap) in pre.nodes.iter().enumerate() {
                    // Only Live, healthy members are probed; a joining,
                    // draining, departed or unhealthy node's spare
                    // capacity does not make a reject wrong.
                    let node = NodeId::new(i as u32);
                    if pre.core.member_state(node) != cmpqos_core::MemberState::Live
                        || pre.core.node_health(node) != cmpqos_core::NodeHealth::Healthy
                    {
                        continue;
                    }
                    let mut oracle = OracleLac::from_parts(
                        snap.lac.config.capacity,
                        snap.lac.reservations.clone(),
                        snap.lac.now,
                    );
                    let want = oracle.admit(id, mode, request, tw, deadline);
                    if want.is_accepted() {
                        return Err(Divergence {
                            seed,
                            kind: ScenarioKind::Gac,
                            op_index: n as usize,
                            detail: format!(
                                "gac rejected job {n} but node {i}'s oracle accepts: {want:?}"
                            ),
                            ops: Vec::new(),
                        });
                    }
                }
            }
            other => {
                return Err(Divergence {
                    seed,
                    kind: ScenarioKind::Gac,
                    op_index: n as usize,
                    detail: format!("inconsistent placement/decision pair: {other:?}"),
                    ops: Vec::new(),
                });
            }
        }

        // Global invariant: no node's timeline is ever overbooked.
        for (i, snap) in gac.snapshot().nodes.iter().enumerate() {
            let oracle = OracleLac::from_parts(
                snap.lac.config.capacity,
                snap.lac.reservations.clone(),
                snap.lac.now,
            );
            if let Some(t) = oracle.first_overbooked_instant() {
                return Err(Divergence {
                    seed,
                    kind: ScenarioKind::Gac,
                    op_index: n as usize,
                    detail: format!("node {i} overbooked at {t} after submission {n}"),
                    ops: Vec::new(),
                });
            }
        }

        if rng.gen_bool(0.3) {
            gac.complete(id, now);
        }
    }
    Ok(())
}

/// Whole-run differential for the adaptive control law: a seed-derived
/// [`PidConfig`](cmpqos_adapt::PidConfig) and error stream stepped
/// through the production [`pid_step`](cmpqos_adapt::pid_step) and the
/// exact-`i128` [`OraclePid`](crate::oracle::OraclePid) in lockstep.
///
/// Gains, bounds, and errors are drawn from the regime where the
/// production `i64` saturating arithmetic provably cannot saturate (see
/// the [`OraclePid`](crate::oracle::OraclePid) contract), so any
/// disagreement in level, integral, or previous error after a step is a
/// real control-law bug.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the two implementations.
pub fn run_adapt(seed: u64) -> Result<(), Divergence> {
    use cmpqos_adapt::{pid_step, PidConfig, PidState};

    use crate::oracle::OraclePid;

    let mut rng = StdRng::seed_from_u64(seed ^ 0xADA7_0000);
    let config = PidConfig {
        kp_milli: rng.gen_range(0..5_000),
        ki_milli: rng.gen_range(0..1_000),
        kd_milli: rng.gen_range(0..1_000),
        integral_bound: rng.gen_range(1..100_000),
        deadband_milli: rng.gen_range(0..500),
        max_level: rng.gen_range(1..9),
        output_scale: rng.gen_range(1..1_000_000),
        ..PidConfig::default()
    };
    let mut state = PidState::default();
    let mut oracle = OraclePid::new(config);
    let steps = rng.gen_range(64..257);
    for i in 0..steps {
        // Mostly small errors around the deadband, with occasional huge
        // spikes to exercise the integral clamp and output saturation.
        let error_milli = if rng.gen_bool(0.1) {
            if rng.gen_bool(0.5) {
                1_000_000_000
            } else {
                -1_000_000_000
            }
        } else {
            rng.gen_range(-5_000..5_000)
        };
        let level = pid_step(&config, &mut state, error_milli);
        let oracle_level = oracle.step(error_milli);
        if level != oracle_level
            || i128::from(state.integral) != oracle.integral()
            || i128::from(state.prev_error) != oracle.prev_error()
            || state.level != oracle.level()
        {
            return Err(Divergence {
                seed,
                kind: ScenarioKind::Adapt,
                op_index: i,
                detail: format!(
                    "step {i} error {error_milli}: production (level {level}, \
                     integral {}, prev {}) vs oracle (level {oracle_level}, \
                     integral {}, prev {}) under {config:?}",
                    state.integral,
                    state.prev_error,
                    oracle.integral(),
                    oracle.prev_error(),
                ),
                ops: Vec::new(),
            });
        }
    }
    Ok(())
}

/// Delta-debugs a failing op-list scenario to a locally minimal one:
/// repeatedly drops single ops while `fails` still holds.
///
/// Whole-run kinds (scheduler, GAC) have no op list and come back
/// unchanged.
#[must_use]
pub fn shrink<F: Fn(&Scenario) -> bool>(scenario: &Scenario, fails: F) -> Scenario {
    let mut best = scenario.clone();
    if best.ops.is_empty() {
        return best;
    }
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < best.ops.len() {
            let mut candidate = best.clone();
            let _ = candidate.ops.remove(i);
            if fails(&candidate) {
                best = candidate;
                improved = true;
            } else {
                i += 1;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Outcome of an explorer sweep.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Scenarios run to completion (including the diverging one, if any).
    pub scenarios_run: usize,
    /// The first divergence, shrunken, if any scenario diverged.
    pub divergence: Option<Divergence>,
}

/// Runs `count` scenarios of `kinds`, rotating kinds per seed starting at
/// `base_seed`. Stops (and shrinks) at the first divergence.
#[must_use]
pub fn explore(base_seed: u64, count: usize, kinds: &[ScenarioKind]) -> ExploreReport {
    let mut run_count = 0usize;
    for n in 0..count {
        let kind = kinds[n % kinds.len()];
        let seed = base_seed + (n / kinds.len()) as u64;
        let scenario = Scenario::generate(kind, seed);
        run_count += 1;
        if let Err(first) = run(&scenario) {
            let shrunk = shrink(&scenario, |s| run(s).is_err());
            let mut divergence = match run(&shrunk) {
                Err(d) => d,
                Ok(()) => first,
            };
            divergence.ops = shrunk.ops;
            return ExploreReport {
                scenarios_run: run_count,
                divergence: Some(divergence),
            };
        }
    }
    ExploreReport {
        scenarios_run: run_count,
        divergence: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(ScenarioKind::Lac, 42);
        let b = Scenario::generate(ScenarioKind::Lac, 42);
        assert_eq!(a.ops, b.ops);
        let c = Scenario::generate(ScenarioKind::Lac, 43);
        assert_ne!(a.ops, c.ops, "different seeds, different scenarios");
    }

    #[test]
    fn lac_scenarios_have_no_divergences() {
        for seed in 0..crate::cases(12) as u64 {
            let s = Scenario::generate(ScenarioKind::Lac, seed);
            if let Err(d) = run(&s) {
                panic!("{}", d.render());
            }
        }
    }

    #[test]
    fn intake_scenarios_have_no_divergences() {
        for seed in 0..crate::cases(12) as u64 {
            let s = Scenario::generate(ScenarioKind::Intake, seed);
            if let Err(d) = run(&s) {
                panic!("{}", d.render());
            }
        }
    }

    #[test]
    fn batch_scenarios_have_no_divergences() {
        for seed in 0..crate::cases(12) as u64 {
            let s = Scenario::generate(ScenarioKind::Batch, seed);
            if let Err(d) = run(&s) {
                panic!("{}", d.render());
            }
        }
    }

    #[test]
    fn net_scenarios_have_no_divergences() {
        for seed in 0..crate::cases(8) as u64 {
            let s = Scenario::generate(ScenarioKind::Net, seed);
            if let Err(d) = run(&s) {
                panic!("{}", d.render());
            }
        }
    }

    #[test]
    fn adapt_scenarios_have_no_divergences() {
        for seed in 0..crate::cases(24) as u64 {
            if let Err(d) = run_adapt(seed) {
                panic!("{}", d.render());
            }
        }
    }

    #[test]
    fn traffic_scenarios_have_no_divergences() {
        for seed in 0..crate::cases(12) as u64 {
            let s = Scenario::generate(ScenarioKind::Traffic, seed);
            if let Err(d) = run(&s) {
                panic!("{}", d.render());
            }
        }
    }

    #[test]
    fn traffic_generation_reproduces_identical_traffic_from_the_seed() {
        // The shrinker's repro contract: the seed alone re-derives the
        // whole DSL topology and the exact op stream.
        for seed in 0..24u64 {
            let a = Scenario::generate(ScenarioKind::Traffic, seed);
            let b = Scenario::generate(ScenarioKind::Traffic, seed);
            assert_eq!(a.ops, b.ops, "seed {seed}: op streams differ");
            assert!(
                a.ops.iter().any(|o| matches!(o, Op::Offer { .. })),
                "seed {seed}: no offers generated"
            );
            assert!(
                a.ops.iter().any(|o| matches!(o, Op::Drain)),
                "seed {seed}: no drains generated"
            );
        }
    }

    #[test]
    fn net_scenarios_generate_message_layer_faults() {
        // Across a handful of seeds the generator must exercise the whole
        // net-specific op vocabulary, or the kind tests nothing new.
        let mut kinds = [false; 6];
        for seed in 0..48u64 {
            for op in &Scenario::generate(ScenarioKind::Net, seed).ops {
                match op {
                    Op::Partition { .. } => kinds[0] = true,
                    Op::Heal { .. } => kinds[1] = true,
                    Op::DropNext { .. } => kinds[2] = true,
                    Op::Join => kinds[3] = true,
                    Op::DrainNode { .. } => kinds[4] = true,
                    Op::RestartNode { .. } => kinds[5] = true,
                    _ => {}
                }
            }
        }
        assert_eq!(
            kinds, [true; 6],
            "partition/heal/drop/join/drain/restart all generated"
        );
    }

    #[test]
    fn shrinker_minimizes_a_synthetic_failure() {
        // Failure predicate: "contains a Revoke and a CrashRecover".
        let s = Scenario::generate(ScenarioKind::Lac, 7);
        let has_both = |s: &Scenario| {
            s.ops.iter().any(|o| matches!(o, Op::Revoke { .. }))
                && s.ops.iter().any(|o| matches!(o, Op::CrashRecover))
        };
        let mut padded = s;
        padded.ops.push(Op::Revoke { cores: 2, ways: 8 });
        padded.ops.push(Op::CrashRecover);
        assert!(has_both(&padded));
        let small = shrink(&padded, has_both);
        assert_eq!(small.ops.len(), 2, "minimal witness is exactly two ops");
    }
}
