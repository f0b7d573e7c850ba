//! The GAC↔LAC control plane: the one global-admission state machine,
//! [`NetGac`], and the request/reply protocol it speaks. `NetGac` never
//! calls a LAC: it sends typed messages through a [`Transport`] and acts
//! on the replies. [`Cluster`] drives it over a seeded
//! [`cmpqos_net::SimNet`];
//! [`GlobalAdmissionController`](crate::gac::GlobalAdmissionController)
//! drives it in-process over a zero-latency one.
//!
//! The pieces:
//!
//! * [`NetRequest`]/[`NetReply`] — the wire protocol: probe, readmit,
//!   revoke, occupancy summary, and reconciliation, each carrying a
//!   monotonic per-node sequence number, the GAC's per-node *epoch*, and
//!   the logical cycle the conversation was opened at.
//! * [`LacEndpoint`] — the node side: delivers requests to a
//!   [`LacBackend`] exactly once and in sequence order, buffering
//!   reordered frames and re-acknowledging duplicates from a bounded
//!   reply cache. A higher epoch resynchronizes the expected sequence, so
//!   a conversation the GAC abandoned (its request lost forever) can
//!   never deadlock the stream.
//! * [`NetGac`] — the GAC side: a task queue (place / readmit / revoke /
//!   reconcile / ping) driven one conversation at a time per the
//!   failure-detector state machine. Lost replies are retried with the
//!   same sequence number (idempotent by the endpoint's cache); a
//!   conversation that exhausts its retries bumps the node's epoch — any
//!   straggler reply is then *stale* and discarded — and flags the node
//!   for reconciliation.
//! * **Unreachable is not dead.** Retry exhaustion demotes a node to
//!   [`NodeHealth::Suspect`]: placements pause, nothing is evacuated.
//!   Only when the node has also been silent for
//!   [`GacConfig::dead_timeout`] is it declared [`NodeHealth::Dead`] and
//!   its reservations migrated. A partitioned LAC keeps honoring its
//!   reservations; evacuating them would double-book the jobs.
//! * **Reconciliation.** After the GAC gives up on any conversation with
//!   side effects, the node may hold *orphan* reservations (it admitted,
//!   the accept reply was lost). On the next successful contact the GAC
//!   sends its view of the node's placements; the endpoint revokes
//!   orphans, reports what it still holds, and the GAC re-places
//!   anything the node lost.
//! * [`Cluster`] — GAC + endpoints + network, advanced event-to-event so
//!   a run is a deterministic function of `(seed, submissions, faults)`.

use crate::gac::{GacConfig, MemberState, NodeHealth, ProbePolicy};
use crate::lac::{Decision, Lac, RejectReason, Reservation};
use crate::request::AdmissionRequest;
use crate::target::ResourceRequest;
use cmpqos_faults::{Fault, Injection};
use cmpqos_net::{Addr, LinkConfig, SimNet, Transport};
use cmpqos_obs::{Event, NullRecorder, Recorder};
use cmpqos_types::{Cycles, JobId, NodeId, Ways};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

/// The node-side admission state machine a [`LacEndpoint`] drives.
///
/// [`Lac`] implements it directly; `cmpqos-recovery`'s journaled LAC
/// implements it with write-ahead logging, so a reconciliation after a
/// crash-restart diffs against the journal-recovered table.
pub trait LacBackend {
    /// The backend's clock.
    fn now(&self) -> Cycles;
    /// Advances the clock (never backwards), completing due reservations.
    fn advance(&mut self, now: Cycles);
    /// FCFS admission test.
    fn admit(&mut self, req: &AdmissionRequest) -> Decision;
    /// [`LacBackend::admit`], also reporting the decision to `recorder`.
    /// The default reports nothing: a node across a network keeps its
    /// own log. The in-process driver's nodes share the controller's log
    /// and report each decision as the LAC does when called directly.
    fn admit_recorded(&mut self, req: &AdmissionRequest, recorder: &mut dyn Recorder) -> Decision {
        let _ = recorder;
        self.admit(req)
    }
    /// Re-admission of a migrated reservation.
    fn readmit(&mut self, r: &Reservation) -> Decision;
    /// Cancels a reservation (idempotent: unknown ids are a no-op).
    fn cancel(&mut self, id: JobId);
    /// The current reservation table.
    fn reservations(&self) -> Vec<Reservation>;
}

impl LacBackend for Lac {
    fn now(&self) -> Cycles {
        Lac::now(self)
    }

    fn advance(&mut self, now: Cycles) {
        Lac::advance(self, now);
    }

    fn admit(&mut self, req: &AdmissionRequest) -> Decision {
        Lac::admit(self, req)
    }

    fn readmit(&mut self, r: &Reservation) -> Decision {
        Lac::readmit(self, r)
    }

    fn cancel(&mut self, id: JobId) {
        Lac::cancel(self, id);
    }

    fn reservations(&self) -> Vec<Reservation> {
        Lac::reservations(self)
    }
}

/// What the GAC asks a node.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum RequestBody {
    /// Admission probe for a new job.
    Probe(AdmissionRequest),
    /// Re-admission of a reservation evacuated from another node.
    Readmit(Reservation),
    /// Cancel the job's reservation.
    Revoke {
        /// The job to cancel.
        job: JobId,
    },
    /// Occupancy summary (also the failure detector's ping).
    Summary,
    /// Reconciliation: `placed` is every job the GAC believes is placed
    /// on this node. The endpoint revokes *orphans* (held but not in
    /// `placed`) and reports what it still holds.
    Reconcile {
        /// The GAC's view of this node's placements.
        placed: Vec<JobId>,
    },
    /// Per-node liveness beacon; the ack renews every lease the GAC
    /// holds for this node's placements.
    Heartbeat,
    /// Join announce: the opening of a new node's membership handshake
    /// (the epoch travels in the frame header like every request).
    Join,
    /// Drain request: release every reservation so the node can leave
    /// gracefully. Idempotent — a retransmitted drain releases nothing
    /// further and re-acks.
    Drain,
}

impl RequestBody {
    /// Whether giving up on this conversation can leave the node's table
    /// out of sync with the GAC's (and therefore requires reconciliation
    /// on the next successful contact). Summary, heartbeat, and join are
    /// side-effect free; a drain mutates the node's table.
    #[must_use]
    pub fn needs_reconcile_on_give_up(&self) -> bool {
        !matches!(
            self,
            RequestBody::Summary | RequestBody::Heartbeat | RequestBody::Join
        )
    }
}

/// What a node answers.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    /// The admission decision for a probe or readmit.
    Decision(Decision),
    /// The revoke was applied.
    Revoked {
        /// The cancelled job.
        job: JobId,
        /// Whether the node still held the reservation.
        held: bool,
    },
    /// The occupancy summary.
    Summary {
        /// Reservations currently held.
        held: u32,
        /// The node's clock.
        now: Cycles,
    },
    /// The reconciliation outcome.
    Reconcile {
        /// Orphan reservations the endpoint revoked (held locally but
        /// unknown to the GAC — their accept replies were lost).
        orphans_revoked: Vec<JobId>,
        /// Jobs from the GAC's `placed` list the node still holds.
        held: Vec<JobId>,
        /// The node's clock, so the GAC can tell "completed naturally"
        /// from "lost" for placements the node no longer holds.
        now: Cycles,
    },
    /// The heartbeat answer.
    HeartbeatAck {
        /// Reservations currently held.
        held: u32,
        /// The node's clock.
        now: Cycles,
    },
    /// The join handshake completed on the node side.
    JoinAck {
        /// The node's clock.
        now: Cycles,
    },
    /// The drain was applied.
    DrainAck {
        /// Reservations the node released (empty on a retransmission).
        released: Vec<JobId>,
        /// The node's clock, so the GAC can tell which released
        /// reservations had already run to completion.
        now: Cycles,
    },
}

/// One GAC→node request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRequest {
    /// Per-node monotonic sequence number. Retransmissions reuse it, so
    /// the endpoint can re-acknowledge duplicates without re-executing.
    pub seq: u64,
    /// The GAC's epoch for this node; bumped when the GAC abandons a
    /// conversation, making every straggler from before the bump stale.
    pub epoch: u64,
    /// Logical cycle the conversation was opened at. The endpoint
    /// advances its backend to this stamp before deciding, so the
    /// decision depends on the conversation's logical time, not on how
    /// long the network sat on the frame.
    pub at: Cycles,
    /// The question.
    pub body: RequestBody,
}

/// One node→GAC reply frame (echoes `seq` and `epoch`).
#[derive(Debug, Clone, PartialEq)]
pub struct NetReply {
    /// The request's sequence number.
    pub seq: u64,
    /// The request's epoch.
    pub epoch: u64,
    /// The answer.
    pub body: ReplyBody,
}

/// Everything that travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Wire {
    /// GAC → node.
    Request(NetRequest),
    /// Node → GAC.
    Reply(NetReply),
}

/// How many replies an endpoint remembers for duplicate re-acknowledgment.
const REPLY_CACHE: usize = 512;

/// The node side of the protocol: exactly-once, in-order delivery of
/// requests to a [`LacBackend`] over an at-most-once lossy network.
#[derive(Debug)]
pub struct LacEndpoint<B> {
    pub(crate) backend: B,
    pub(crate) epoch: u64,
    pub(crate) next_seq: u64,
    pending: BTreeMap<u64, NetRequest>,
    replies: BTreeMap<u64, NetReply>,
    processed: u64,
    duplicates: u64,
    stale: u64,
}

impl<B: LacBackend> LacEndpoint<B> {
    /// Wraps a backend. The first expected sequence number is 0.
    #[must_use]
    pub fn new(backend: B) -> Self {
        Self {
            backend,
            epoch: 0,
            next_seq: 0,
            pending: BTreeMap::new(),
            replies: BTreeMap::new(),
            processed: 0,
            duplicates: 0,
            stale: 0,
        }
    }

    /// The wrapped backend.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Restarts the endpoint process: every piece of protocol state —
    /// epoch, expected sequence, buffered frames, reply cache, counters —
    /// is gone, but the backend (the journal-recovered reservation table)
    /// survives. The GAC bumps its epoch on restart, so the first frame
    /// the fresh endpoint sees resynchronizes it.
    pub fn reset(&mut self) {
        self.epoch = 0;
        self.next_seq = 0;
        self.pending.clear();
        self.replies.clear();
        self.processed = 0;
        self.duplicates = 0;
        self.stale = 0;
    }

    /// Requests executed exactly once.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Duplicate frames answered from the reply cache.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Frames from an abandoned epoch that were ignored.
    #[must_use]
    pub fn stale(&self) -> u64 {
        self.stale
    }

    /// Handles one delivered request frame, returning every reply that
    /// becomes sendable (a reordered frame can unblock buffered
    /// successors, so one delivery may release several replies).
    ///
    /// * `seq` already processed → the cached reply is re-sent verbatim;
    ///   the backend is **not** consulted again (idempotency).
    /// * `seq` ahead of the expected one (same epoch) → buffered until
    ///   the gap fills.
    /// * A *higher* epoch resynchronizes: the expected sequence jumps to
    ///   the frame's, because the GAC only bumps the epoch after
    ///   abandoning everything it sent before it.
    /// * A *lower* epoch is stale: answered from cache if possible,
    ///   otherwise dropped.
    ///
    /// Each probe executed goes to the backend's
    /// [`LacBackend::admit_recorded`] with `recorder`.
    pub fn handle(&mut self, req: NetRequest, recorder: &mut dyn Recorder) -> Vec<NetReply> {
        let mut out = Vec::new();
        if req.epoch < self.epoch {
            match self.replies.get(&req.seq) {
                Some(r) => {
                    self.duplicates += 1;
                    out.push(r.clone());
                }
                None => self.stale += 1,
            }
            return out;
        }
        if req.epoch > self.epoch {
            self.epoch = req.epoch;
            self.pending.clear();
            self.next_seq = req.seq;
        }
        if req.seq < self.next_seq {
            match self.replies.get(&req.seq) {
                Some(r) => {
                    self.duplicates += 1;
                    out.push(r.clone());
                }
                None => self.stale += 1,
            }
            return out;
        }
        if self.pending.insert(req.seq, req).is_some() {
            // The same not-yet-processed frame arrived twice; one copy
            // suffices.
            self.duplicates += 1;
        }
        while let Some(next) = self.pending.remove(&self.next_seq) {
            let reply = self.process(next, recorder);
            self.replies.insert(reply.seq, reply.clone());
            while self.replies.len() > REPLY_CACHE {
                let oldest = *self.replies.keys().next().expect("non-empty");
                self.replies.remove(&oldest);
            }
            out.push(reply);
            self.next_seq += 1;
        }
        out
    }

    fn process(&mut self, req: NetRequest, recorder: &mut dyn Recorder) -> NetReply {
        self.processed += 1;
        let at = req.at.max(self.backend.now());
        self.backend.advance(at);
        let body = match req.body {
            RequestBody::Probe(areq) => {
                ReplyBody::Decision(self.backend.admit_recorded(&areq, recorder))
            }
            RequestBody::Readmit(r) => ReplyBody::Decision(self.backend.readmit(&r)),
            RequestBody::Revoke { job } => {
                let held = self.backend.reservations().iter().any(|r| r.id == job);
                self.backend.cancel(job);
                ReplyBody::Revoked { job, held }
            }
            RequestBody::Summary => ReplyBody::Summary {
                held: u32::try_from(self.backend.reservations().len()).unwrap_or(u32::MAX),
                now: self.backend.now(),
            },
            RequestBody::Reconcile { placed } => {
                let placed: BTreeSet<JobId> = placed.into_iter().collect();
                let mut orphans_revoked = Vec::new();
                let mut held = Vec::new();
                for r in self.backend.reservations() {
                    if placed.contains(&r.id) {
                        held.push(r.id);
                    } else {
                        orphans_revoked.push(r.id);
                    }
                }
                for &job in &orphans_revoked {
                    self.backend.cancel(job);
                }
                ReplyBody::Reconcile {
                    orphans_revoked,
                    held,
                    now: self.backend.now(),
                }
            }
            RequestBody::Heartbeat => ReplyBody::HeartbeatAck {
                held: u32::try_from(self.backend.reservations().len()).unwrap_or(u32::MAX),
                now: self.backend.now(),
            },
            RequestBody::Join => ReplyBody::JoinAck {
                now: self.backend.now(),
            },
            RequestBody::Drain => {
                let released: Vec<JobId> =
                    self.backend.reservations().iter().map(|r| r.id).collect();
                for &job in &released {
                    self.backend.cancel(job);
                }
                ReplyBody::DrainAck {
                    released,
                    now: self.backend.now(),
                }
            }
        };
        NetReply {
            seq: req.seq,
            epoch: req.epoch,
            body,
        }
    }
}

/// Initial retransmission timeout of a conversation: 100 cycles,
/// doubling per attempt.
pub const RTO: Cycles = Cycles::new(100);

/// How long a parked task (failed revoke/reconcile/ping) waits before its
/// next try: 500 cycles.
pub const RETRY_INTERVAL: Cycles = Cycles::new(500);

/// Retransmissions of one conversation before the GAC gives up on it: 3.
pub const MAX_RETRIES: u32 = 3;

/// Consecutive losses that demote a node to [`NodeHealth::Suspect`]: 2.
pub const SUSPECT_AFTER: u32 = 2;

/// Consecutive losses required, together with
/// [`GacConfig::dead_timeout`] of silence, to declare a node
/// [`NodeHealth::Dead`]: 4.
pub const DEAD_AFTER: u32 = 4;

/// The GAC's knobs, shared by both drivers. The retry pacing and loss
/// thresholds are fixed: [`RTO`], [`RETRY_INTERVAL`], [`MAX_RETRIES`],
/// [`SUSPECT_AFTER`] and [`DEAD_AFTER`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NetGacConfig {
    /// The failure detector's death timeout.
    pub gac: GacConfig,
    /// Heartbeat period: every `heartbeat_every` cycles the GAC opens a
    /// heartbeat conversation with each reachable member. `Cycles::ZERO`
    /// (the default) disables heartbeats — existing cycle-precise runs
    /// are unperturbed.
    pub heartbeat_every: Cycles,
    /// Lease lifetime granted on each placement and renewed by every
    /// heartbeat ack (or in-process heartbeat sweep); expiry (after a
    /// further
    /// [`GacConfig::dead_timeout`] grace) revokes and re-places the job
    /// like an evacuation. `Cycles::ZERO` (the default) disables leasing.
    pub lease_ttl: Cycles,
}

impl Default for NetGacConfig {
    fn default() -> Self {
        Self {
            gac: GacConfig::default(),
            heartbeat_every: Cycles::ZERO,
            lease_ttl: Cycles::ZERO,
        }
    }
}

/// Per-node failure-detector and conversation state: the dense array a
/// heartbeat sweep reads.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
struct NetNode {
    health: NodeHealth,
    member: MemberState,
    consecutive_losses: u32,
    last_heard: Cycles,
    epoch: u64,
    next_seq: u64,
    needs_reconcile: bool,
    reconcile_queued: bool,
    ping_queued: bool,
    heartbeat_queued: bool,
    lease_frozen: bool,
    /// Readmits still in flight for a graceful drain; the node leaves
    /// only when this reaches zero.
    drain_pending: u32,
    /// Where the node's last lease renewal ran its leases to: a lease on
    /// this node expires at the later of its own grant and this.
    leases_until: Cycles,
}

impl NetNode {
    fn new() -> Self {
        Self {
            health: NodeHealth::Healthy,
            member: MemberState::Live,
            consecutive_losses: 0,
            last_heard: Cycles::ZERO,
            epoch: 0,
            next_seq: 0,
            needs_reconcile: false,
            reconcile_queued: false,
            ping_queued: false,
            heartbeat_queued: false,
            lease_frozen: false,
            drain_pending: 0,
            leases_until: Cycles::ZERO,
        }
    }
}

/// One unit of control-plane work.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
enum Task {
    Place {
        req: AdmissionRequest,
        /// Submission stamp: carried on every probe of this job so the
        /// admission decision depends on *when the job was submitted*,
        /// never on how long the network took to carry the conversation.
        at: Cycles,
        tried: Vec<NodeId>,
        last: Option<RejectReason>,
    },
    Readmit {
        r: Reservation,
        from: NodeId,
        /// Evacuation stamp (same role as `Place::at`).
        at: Cycles,
        tried: Vec<NodeId>,
    },
    Revoke {
        job: JobId,
    },
    Reconcile {
        node: NodeId,
    },
    Ping {
        node: NodeId,
    },
    Heartbeat {
        node: NodeId,
    },
    Join {
        node: NodeId,
    },
    Drain {
        node: NodeId,
    },
}

/// The in-flight conversation (at most one at a time: the control plane
/// is strictly sequential, which keeps every run a deterministic function
/// of its inputs).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
struct Conversation {
    node: NodeId,
    seq: u64,
    epoch: u64,
    at: Cycles,
    body: RequestBody,
    task: Task,
    attempts: u32,
    timeout_at: Cycles,
}

/// Aggregate counters of a [`NetGac`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NetGacStats {
    /// Conversations opened.
    pub conversations: u64,
    /// Retransmissions sent.
    pub retransmits: u64,
    /// Conversations abandoned after exhausting retries.
    pub gave_up: u64,
    /// Replies discarded as stale (wrong seq/epoch/sender).
    pub stale_replies: u64,
    /// Reconciliations completed.
    pub reconciles: u64,
}

/// The Global Admission Controller's state machine.
///
/// Feed it work with [`NetGac::submit`] / [`NetGac::revoke`], then
/// alternate [`NetGac::drive`] (open/retransmit/abandon conversations)
/// with [`NetGac::on_reply`] (route delivered replies) — or let a
/// [`Cluster`] or the in-process
/// [`GlobalAdmissionController`](crate::gac::GlobalAdmissionController)
/// do both. A clone is a snapshot: serialized (with the `serde`
/// feature), it is how the in-process driver's journal captures the core.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NetGac {
    pub(crate) config: NetGacConfig,
    pub(crate) policy: ProbePolicy,
    nodes: Vec<NetNode>,
    placements: BTreeMap<JobId, (NodeId, Reservation)>,
    decisions: BTreeMap<JobId, (Option<NodeId>, Decision)>,
    completed: BTreeSet<JobId>,
    revoked: BTreeSet<JobId>,
    tasks: VecDeque<Task>,
    parked: Vec<(Cycles, u64, Task)>,
    park_counter: u64,
    current: Option<Conversation>,
    /// `(job, placement node, granted expiry)`, sorted by job. A renewal
    /// moves its node's `leases_until`, not each lease, so a heartbeat
    /// round costs one pass over the nodes ([`NetGac::lease_expiry`]).
    leases: Vec<(JobId, NodeId, Cycles)>,
    next_heartbeat: Cycles,
    stats: NetGacStats,
    now: Cycles,
}

impl NetGac {
    /// A GAC over `nodes` LAC endpoints, all initially healthy.
    #[must_use]
    pub fn new(nodes: usize, config: NetGacConfig, policy: ProbePolicy) -> Self {
        Self {
            config,
            policy,
            nodes: (0..nodes).map(|_| NetNode::new()).collect(),
            placements: BTreeMap::new(),
            decisions: BTreeMap::new(),
            completed: BTreeSet::new(),
            revoked: BTreeSet::new(),
            tasks: VecDeque::new(),
            parked: Vec::new(),
            park_counter: 0,
            current: None,
            leases: Vec::new(),
            next_heartbeat: config.heartbeat_every,
            stats: NetGacStats::default(),
            now: Cycles::ZERO,
        }
    }

    /// Queues a job for placement. The admission decision materializes in
    /// [`NetGac::decisions`] once the conversation completes.
    pub fn submit(&mut self, req: AdmissionRequest, at: Cycles, recorder: &mut dyn Recorder) {
        self.now = self.now.max(at);
        recorder.record(
            at,
            Event::Submitted {
                job: req.id,
                mode: req.mode.into(),
            },
        );
        self.tasks.push_back(Task::Place {
            req,
            at,
            tried: Vec::new(),
            last: None,
        });
    }

    /// Queues a revocation of an admitted job's reservation.
    pub fn revoke(&mut self, job: JobId) {
        self.tasks.push_back(Task::Revoke { job });
    }

    /// Node health as the failure detector sees it.
    #[must_use]
    pub fn node_health(&self, node: NodeId) -> NodeHealth {
        self.nodes[node.as_usize()].health
    }

    /// One node's membership lifecycle state.
    #[must_use]
    pub fn member_state(&self, node: NodeId) -> MemberState {
        self.nodes[node.as_usize()].member
    }

    /// The lease table: each placed job's node and current expiry cycle,
    /// in job order (empty while leasing is disabled).
    #[must_use]
    pub fn leases(&self) -> Vec<(JobId, NodeId, Cycles)> {
        self.leases
            .iter()
            .map(|lease| (lease.0, lease.1, self.lease_expiry(lease)))
            .collect()
    }

    /// When a lease runs out: at its grant, or at its node's last renewal
    /// when that came later (a renewal covers every lease the node held).
    fn lease_expiry(&self, &(_, node, granted): &(JobId, NodeId, Cycles)) -> Cycles {
        granted.max(self.nodes[node.as_usize()].leases_until)
    }

    /// Hands the core a reservation its node evicted on its own (a dead
    /// way or core left no room for it): the placement is dropped and
    /// the reservation re-placed on another node, or revoked when none
    /// takes it.
    pub fn readmit(&mut self, r: Reservation, from: NodeId) {
        self.placements.remove(&r.id);
        self.drop_lease(r.id);
        self.queue_readmit(r, from);
    }

    /// Records that `job`'s node gave up `ways_cut` of its ways to a
    /// fault (an Elastic downgrade), so a later readmit asks for what the
    /// job still holds.
    pub fn downgrade(&mut self, job: JobId, ways_cut: Ways) {
        if let Some((_, r)) = self.placements.get_mut(&job) {
            r.request = r.request.minus(&ResourceRequest::new(0, ways_cut));
        }
    }

    /// Replaces the core's copy of placed job `r.id`'s reservation with
    /// the one its node holds. A probe reply carries only the start, so
    /// the core assumes the window `[start, start + tw)`; an Elastic(X)
    /// reservation holds its node for `tw·(1+X)`. A driver that can read
    /// the node's table corrects the copy after each placement, so
    /// retirement, evacuation and lease expiry follow the node.
    pub fn amend(&mut self, r: Reservation) {
        if let Some((_, mine)) = self.placements.get_mut(&r.id) {
            *mine = r;
        }
    }

    /// Retires `job`'s placement because it finished early, returning the
    /// node it ran on. Releasing the node's reservation is the caller's
    /// node-local business.
    pub fn release(&mut self, job: JobId) -> Option<NodeId> {
        let (node, _) = self.placements.remove(&job)?;
        self.drop_lease(job);
        self.completed.insert(job);
        Some(node)
    }

    /// Forgets the decisions, completions and revocations recorded so
    /// far. A driver that reports each outcome as it happens calls this
    /// after every step, so the core's tables stay bounded by its live
    /// placements.
    pub fn clear_finished(&mut self) {
        self.decisions.clear();
        self.completed.clear();
        self.revoked.clear();
    }

    /// One heartbeat round answered at once by every member whose link
    /// is up (`reachable(index)`), with no conversation: each counts as
    /// proof of life for the failure detector, and each that is not
    /// lease-frozen has its leases renewed. One pass over the nodes; the
    /// lease table is read only to report the renewals. Returns `false`,
    /// having done nothing, while leasing is disabled.
    pub fn heartbeat_sweep(
        &mut self,
        at: Cycles,
        reachable: impl Fn(usize) -> bool,
        recorder: &mut dyn Recorder,
    ) -> bool {
        if self.config.lease_ttl == Cycles::ZERO {
            return false;
        }
        self.now = self.now.max(at);
        let answers = |i: usize, n: &NetNode| {
            matches!(n.member, MemberState::Live | MemberState::Draining)
                && n.health != NodeHealth::Dead
                && reachable(i)
        };
        for i in 0..self.nodes.len() {
            if !answers(i, &self.nodes[i]) {
                continue;
            }
            self.nodes[i].consecutive_losses = 0;
            self.nodes[i].last_heard = self.now;
            if self.nodes[i].health == NodeHealth::Suspect {
                self.set_health(i, NodeHealth::Healthy, recorder);
            }
        }
        self.renew_leases(
            0..self.nodes.len(),
            |i, n| answers(i, n) && !n.lease_frozen,
            recorder,
        );
        true
    }

    /// Renews to `now + lease_ttl` the leases of each node in `nodes` that
    /// `renews(index, node)` picks, and reports one `LeaseRenewed` per
    /// picked node that held any. A heartbeat ack runs it for one node,
    /// the in-process sweep for all of them; the lease table is read (and
    /// the per-node counts allocated) only when `recorder` is enabled.
    fn renew_leases(
        &mut self,
        nodes: Range<usize>,
        renews: impl Fn(usize, &NetNode) -> bool,
        recorder: &mut dyn Recorder,
    ) {
        let until = self.now + self.config.lease_ttl;
        for i in nodes.clone() {
            if renews(i, &self.nodes[i]) {
                self.nodes[i].leases_until = until;
            }
        }
        if !recorder.enabled() {
            return;
        }
        let mut renewed = vec![0u64; nodes.len()];
        for &(_, node, _) in &self.leases {
            let i = node.as_usize();
            if nodes.contains(&i) && renews(i, &self.nodes[i]) {
                renewed[i - nodes.start] += 1;
            }
        }
        for (i, leases) in nodes.zip(renewed) {
            if leases > 0 {
                let node = NodeId::new(u32::try_from(i).expect("node count fits u32"));
                recorder.record(self.now, Event::LeaseRenewed { node, leases });
            }
        }
    }

    /// Whether a conversation is open or a task is queued (parked retries
    /// wait for their timer and do not count).
    pub(crate) fn busy(&self) -> bool {
        self.current.is_some() || !self.tasks.is_empty()
    }

    /// Stops renewing `node`'s leases (the `LeaseFreeze` fault) until the
    /// node restarts. Its heartbeats still count as proof of life, so the
    /// failure detector sees nothing wrong — only the leases notice.
    pub fn freeze_leases(&mut self, node: NodeId) {
        if node.as_usize() < self.nodes.len() {
            self.nodes[node.as_usize()].lease_frozen = true;
        }
    }

    /// Adds a brand-new node to the membership table as `Joining` and
    /// queues its join-announce handshake; the node enters `Live` (and
    /// becomes placeable) when the ack arrives. Returns the node's id —
    /// the next unused index, since membership is append-only.
    pub fn join_node(&mut self, now: Cycles) -> NodeId {
        self.now = self.now.max(now);
        let node = NodeId::new(u32::try_from(self.nodes.len()).expect("node count fits u32"));
        let mut n = NetNode::new();
        n.member = MemberState::Joining;
        n.last_heard = self.now;
        self.nodes.push(n);
        self.tasks.push_back(Task::Join { node });
        node
    }

    /// Begins a graceful drain of `node`: it takes no further placements,
    /// and once the drain-request/ack releases its reservations they are
    /// re-placed on survivors; the node transitions `Left` only when the
    /// last of those readmits resolves. A no-op unless the node is `Live`.
    pub fn drain_node(&mut self, node: NodeId, now: Cycles) {
        self.now = self.now.max(now);
        let i = node.as_usize();
        if i >= self.nodes.len()
            || self.nodes[i].member != MemberState::Live
            || self.nodes[i].health == NodeHealth::Dead
        {
            // A dead node cannot ack a drain-request; its placements are
            // evacuation's business, not a graceful departure's.
            return;
        }
        self.nodes[i].member = MemberState::Draining;
        self.tasks.push_back(Task::Drain { node });
    }

    /// Restarts `node`'s process: the GAC bumps the node's epoch (so the
    /// freshly-reset endpoint resynchronizes on first contact, and every
    /// straggler from before the restart is stale), resets its link
    /// state, and sends the node back through reconciliation as
    /// `Joining` — it re-enters `Live` only after its journal-recovered
    /// table has been diffed against the GAC's placement view. A no-op on
    /// a departed node.
    pub fn restart_node(&mut self, node: NodeId, now: Cycles, recorder: &mut dyn Recorder) {
        self.now = self.now.max(now);
        let i = node.as_usize();
        if i >= self.nodes.len() || self.nodes[i].member == MemberState::Left {
            return;
        }
        // Any open conversation with the node died with its old process.
        if let Some(conv) = self.current.take() {
            if conv.node == node {
                self.fail_task(conv.task, node, recorder);
            } else {
                self.current = Some(conv);
            }
        }
        self.nodes[i].epoch += 1;
        self.nodes[i].consecutive_losses = 0;
        self.nodes[i].last_heard = self.now;
        self.nodes[i].lease_frozen = false;
        self.nodes[i].ping_queued = false;
        self.nodes[i].heartbeat_queued = false;
        self.nodes[i].drain_pending = 0;
        self.set_health(i, NodeHealth::Healthy, recorder);
        self.nodes[i].member = MemberState::Joining;
        self.nodes[i].needs_reconcile = true;
        if !self.nodes[i].reconcile_queued {
            self.nodes[i].reconcile_queued = true;
            self.tasks.push_back(Task::Reconcile { node });
        }
    }

    /// Current placements (job → node and the GAC's copy of the
    /// reservation).
    #[must_use]
    pub fn placements(&self) -> &BTreeMap<JobId, (NodeId, Reservation)> {
        &self.placements
    }

    /// Final admission decisions, one per submitted job that completed
    /// its placement conversation.
    #[must_use]
    pub fn decisions(&self) -> &BTreeMap<JobId, (Option<NodeId>, Decision)> {
        &self.decisions
    }

    /// Jobs whose reservations ran to completion.
    #[must_use]
    pub fn completed(&self) -> &BTreeSet<JobId> {
        &self.completed
    }

    /// Jobs whose reservations were revoked (explicitly, or because no
    /// surviving node could re-admit them).
    #[must_use]
    pub fn revoked(&self) -> &BTreeSet<JobId> {
        &self.revoked
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> NetGacStats {
        self.stats
    }

    /// Nodes flagged for reconciliation that have not completed one yet.
    /// A quiesced, fully-healed run must report 0.
    #[must_use]
    pub fn pending_reconciles(&self) -> usize {
        self.nodes.iter().filter(|n| n.needs_reconcile).count()
    }

    /// Whether every queued task and conversation has completed.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.current.is_none() && self.tasks.is_empty() && self.parked.is_empty()
    }

    /// The next cycle at which [`NetGac::drive`] has work to do
    /// (retransmission timeout, parked-task wake, or heartbeat round),
    /// if any.
    #[must_use]
    pub fn next_wake(&self) -> Option<Cycles> {
        let timeout = self.current.as_ref().map(|c| c.timeout_at);
        let parked = self.parked.iter().map(|(due, _, _)| *due).min();
        let heartbeat = (self.config.heartbeat_every > Cycles::ZERO).then_some(self.next_heartbeat);
        // `expire_leases` fires on strict `now > until + grace`, hence +1.
        let lease = (self.config.lease_ttl > Cycles::ZERO)
            .then(|| {
                let grace = self.config.gac.dead_timeout;
                self.leases
                    .iter()
                    .map(|lease| self.lease_expiry(lease) + grace + Cycles::new(1))
                    .min()
            })
            .flatten();
        [timeout, parked, heartbeat, lease]
            .into_iter()
            .flatten()
            .min()
    }

    /// Advances the GAC clock, retiring placements whose reservation
    /// window has closed (their jobs completed on their nodes) and
    /// expiring leases that have gone unrenewed past the grace window.
    pub fn advance(&mut self, now: Cycles, recorder: &mut dyn Recorder) {
        self.now = self.now.max(now);
        let done: Vec<JobId> = self
            .placements
            .iter()
            .filter(|(_, (_, r))| r.end <= self.now)
            .map(|(&job, _)| job)
            .collect();
        for job in done {
            let (_, r) = self.placements.remove(&job).expect("collected above");
            self.drop_lease(job);
            self.retire(&r, recorder);
        }
        self.expire_leases(recorder);
    }

    /// Revokes and re-places every job whose lease ran out `lease_ttl +
    /// dead_timeout` ago — the same unreachable-vs-dead hysteresis as the
    /// health machine, so a short partition stalls renewals without
    /// losing the placement. Deliberately *not* gated on node silence:
    /// a lease-frozen node answers every heartbeat yet its leases still
    /// die, which is exactly what makes the `LeaseFreeze` fault visible.
    fn expire_leases(&mut self, recorder: &mut dyn Recorder) {
        if self.config.lease_ttl == Cycles::ZERO {
            return;
        }
        let grace = self.config.gac.dead_timeout;
        let expired: Vec<JobId> = self
            .leases
            .iter()
            .filter(|lease| self.now > self.lease_expiry(lease) + grace)
            .map(|&(job, _, _)| job)
            .collect();
        for job in expired {
            self.drop_lease(job);
            let Some((node, r)) = self.placements.remove(&job) else {
                continue;
            };
            if r.end <= self.now {
                // The reservation ran out before the grace did; the job
                // completed (retirement just hadn't swept yet). Completed
                // XOR revoked: completion wins.
                self.retire(&r, recorder);
                continue;
            }
            recorder.record(self.now, Event::LeaseExpired { job, node });
            // The node may still hold the reservation (we only know its
            // renewals stopped); the next successful contact revokes the
            // orphan, exactly like any abandoned conversation.
            self.flag_reconcile(node);
            self.queue_readmit(r, node);
        }
    }

    /// Routes one delivered reply. Replies that do not match the open
    /// conversation (wrong sender, sequence, or epoch) are stale — a
    /// straggler from a conversation the GAC already abandoned — and are
    /// counted but otherwise ignored.
    pub fn on_reply(
        &mut self,
        from: NodeId,
        reply: &NetReply,
        now: Cycles,
        recorder: &mut dyn Recorder,
    ) {
        self.now = self.now.max(now);
        let matches = self
            .current
            .as_ref()
            .is_some_and(|c| c.node == from && c.seq == reply.seq && c.epoch == reply.epoch);
        if !matches {
            self.stats.stale_replies += 1;
            return;
        }
        let conv = self.current.take().expect("matched above");
        let i = from.as_usize();
        self.nodes[i].consecutive_losses = 0;
        self.nodes[i].last_heard = self.now;
        if self.nodes[i].health == NodeHealth::Suspect {
            self.set_health(i, NodeHealth::Healthy, recorder);
        }
        self.answer(conv, reply, recorder);
    }

    /// Opens, retransmits, and abandons conversations. Returns whether
    /// anything was sent (callers loop until the network quiesces).
    pub fn drive(
        &mut self,
        now: Cycles,
        net: &mut dyn Transport<Wire>,
        recorder: &mut dyn Recorder,
    ) -> bool {
        self.now = self.now.max(now);
        self.expire_leases(recorder);
        if self.config.heartbeat_every > Cycles::ZERO {
            while self.now >= self.next_heartbeat {
                self.queue_heartbeats();
                self.next_heartbeat += self.config.heartbeat_every;
            }
        }
        self.unpark();
        self.converse(now, net, recorder)
    }

    /// The conversation half of [`NetGac::drive`]: retransmits or abandons
    /// the open conversation when its timeout has passed, then opens
    /// queued tasks until one is in flight. Timers other than the
    /// retransmission timeout (parked retries, heartbeats, lease expiry)
    /// are not looked at.
    fn converse(
        &mut self,
        now: Cycles,
        net: &mut dyn Transport<Wire>,
        recorder: &mut dyn Recorder,
    ) -> bool {
        self.now = self.now.max(now);
        let mut sent = false;
        if let Some(conv) = self.current.take() {
            if self.now >= conv.timeout_at {
                sent |= self.on_timeout(conv, net, recorder);
            } else {
                self.current = Some(conv);
            }
        }
        while self.current.is_none() {
            let Some(task) = self.tasks.pop_front() else {
                break;
            };
            if let Some(conv) = self.open(task, net, recorder) {
                self.current = Some(conv);
                sent = true;
            }
        }
        sent
    }

    fn unpark(&mut self) {
        self.parked.sort_by_key(|(due, order, _)| (*due, *order));
        let mut still_parked = Vec::new();
        for (due, order, task) in self.parked.drain(..) {
            if due <= self.now {
                self.tasks.push_back(task);
            } else {
                still_parked.push((due, order, task));
            }
        }
        self.parked = still_parked;
    }

    fn park(&mut self, task: Task) {
        let due = self.now + RETRY_INTERVAL;
        self.parked.push((due, self.park_counter, task));
        self.park_counter += 1;
    }

    /// Opens one heartbeat round: every reachable member (Live or
    /// Draining, not Dead) gets a beacon queued, at most one in flight
    /// per node.
    fn queue_heartbeats(&mut self) {
        for i in 0..self.nodes.len() {
            let n = &self.nodes[i];
            if !matches!(n.member, MemberState::Live | MemberState::Draining)
                || n.health == NodeHealth::Dead
                || n.heartbeat_queued
            {
                continue;
            }
            self.nodes[i].heartbeat_queued = true;
            self.tasks.push_back(Task::Heartbeat {
                node: NodeId::new(u32::try_from(i).expect("node count fits u32")),
            });
        }
    }

    /// Healthy Live members in placement-probe order, per the policy
    /// (Joining, Draining, and Left nodes take no new placements).
    fn probe_order(&self) -> Vec<NodeId> {
        let mut order: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| {
                self.nodes[i].member == MemberState::Live
                    && self.nodes[i].health == NodeHealth::Healthy
            })
            .collect();
        if self.policy == ProbePolicy::LeastLoaded {
            let mut load = vec![0usize; self.nodes.len()];
            for (node, _) in self.placements.values() {
                load[node.as_usize()] += 1;
            }
            order.sort_by_key(|&i| load[i]);
        }
        order
            .into_iter()
            .map(|i| NodeId::new(u32::try_from(i).expect("node count fits u32")))
            .collect()
    }

    fn open(
        &mut self,
        task: Task,
        net: &mut dyn Transport<Wire>,
        recorder: &mut dyn Recorder,
    ) -> Option<Conversation> {
        match task {
            Task::Place {
                req,
                at,
                tried,
                last,
            } => {
                let next = self.probe_order().into_iter().find(|n| !tried.contains(n));
                match next {
                    Some(node) => Some(self.send_new(
                        node,
                        RequestBody::Probe(req),
                        at,
                        Task::Place {
                            req,
                            at,
                            tried,
                            last,
                        },
                        net,
                    )),
                    None => {
                        let cause = last.unwrap_or(RejectReason::NoHealthyNodes);
                        self.decisions
                            .insert(req.id, (None, Decision::Rejected(cause)));
                        recorder.record(
                            self.now,
                            Event::Rejected {
                                job: req.id,
                                cause: cause.into(),
                            },
                        );
                        None
                    }
                }
            }
            Task::Readmit { r, from, at, tried } => {
                let next = self
                    .probe_order()
                    .into_iter()
                    .find(|n| *n != from && !tried.contains(n));
                match next {
                    Some(node) => Some(self.send_new(
                        node,
                        RequestBody::Readmit(r),
                        at,
                        Task::Readmit { r, from, at, tried },
                        net,
                    )),
                    None => {
                        self.revoked.insert(r.id);
                        self.drop_lease(r.id);
                        recorder.record(
                            self.now,
                            Event::ReservationRevoked {
                                job: r.id,
                                node: from,
                                cause: cmpqos_obs::RejectCause::CapacityRevoked,
                            },
                        );
                        self.drain_readmit_resolved(from, recorder);
                        None
                    }
                }
            }
            Task::Revoke { job } => {
                let &(node, _) = self.placements.get(&job)?;
                if self.nodes[node.as_usize()].health == NodeHealth::Dead {
                    // Evacuation already owns this placement's fate.
                    return None;
                }
                let at = self.now;
                Some(self.send_new(
                    node,
                    RequestBody::Revoke { job },
                    at,
                    Task::Revoke { job },
                    net,
                ))
            }
            Task::Reconcile { node } => {
                let i = node.as_usize();
                if self.nodes[i].health == NodeHealth::Dead || !self.nodes[i].needs_reconcile {
                    self.nodes[i].reconcile_queued = false;
                    return None;
                }
                let placed = self.placed_on(node);
                let at = self.now;
                Some(self.send_new(
                    node,
                    RequestBody::Reconcile { placed },
                    at,
                    Task::Reconcile { node },
                    net,
                ))
            }
            Task::Ping { node } => {
                let i = node.as_usize();
                if self.nodes[i].health != NodeHealth::Suspect {
                    self.nodes[i].ping_queued = false;
                    return None;
                }
                let at = self.now;
                Some(self.send_new(node, RequestBody::Summary, at, Task::Ping { node }, net))
            }
            Task::Heartbeat { node } => {
                let i = node.as_usize();
                if !matches!(
                    self.nodes[i].member,
                    MemberState::Live | MemberState::Draining
                ) || self.nodes[i].health == NodeHealth::Dead
                {
                    self.nodes[i].heartbeat_queued = false;
                    return None;
                }
                let at = self.now;
                Some(self.send_new(
                    node,
                    RequestBody::Heartbeat,
                    at,
                    Task::Heartbeat { node },
                    net,
                ))
            }
            Task::Join { node } => {
                let i = node.as_usize();
                if self.nodes[i].member != MemberState::Joining
                    || self.nodes[i].health == NodeHealth::Dead
                {
                    return None;
                }
                let at = self.now;
                Some(self.send_new(node, RequestBody::Join, at, Task::Join { node }, net))
            }
            Task::Drain { node } => {
                let i = node.as_usize();
                if self.nodes[i].member != MemberState::Draining
                    || self.nodes[i].health == NodeHealth::Dead
                {
                    // Death-while-draining: evacuation already owns the
                    // placements (and transitioned the member Left).
                    return None;
                }
                let at = self.now;
                Some(self.send_new(node, RequestBody::Drain, at, Task::Drain { node }, net))
            }
        }
    }

    fn send_new(
        &mut self,
        node: NodeId,
        body: RequestBody,
        at: Cycles,
        task: Task,
        net: &mut dyn Transport<Wire>,
    ) -> Conversation {
        let i = node.as_usize();
        let seq = self.nodes[i].next_seq;
        self.nodes[i].next_seq += 1;
        let conv = Conversation {
            node,
            seq,
            epoch: self.nodes[i].epoch,
            at,
            body,
            task,
            attempts: 0,
            timeout_at: self.now + RTO,
        };
        self.stats.conversations += 1;
        // The send report is deliberately ignored: a real controller
        // cannot observe whether the interconnect ate its frame.
        let _ = net.send(
            Addr::Gac,
            Addr::Node(node),
            self.now,
            Wire::Request(NetRequest {
                seq: conv.seq,
                epoch: conv.epoch,
                at: conv.at,
                body: conv.body.clone(),
            }),
        );
        conv
    }

    fn on_timeout(
        &mut self,
        mut conv: Conversation,
        net: &mut dyn Transport<Wire>,
        recorder: &mut dyn Recorder,
    ) -> bool {
        let i = conv.node.as_usize();
        self.nodes[i].consecutive_losses += 1;
        if let RequestBody::Probe(req) = &conv.body {
            recorder.record(
                self.now,
                Event::ProbeLost {
                    job: req.id,
                    node: conv.node,
                },
            );
        }
        self.update_health(i, recorder);
        if self.nodes[i].health == NodeHealth::Dead {
            self.fail_task(conv.task, conv.node, recorder);
            return false;
        }
        conv.attempts += 1;
        if conv.attempts > MAX_RETRIES {
            // Abandon: everything sent under this epoch is now stale.
            self.stats.gave_up += 1;
            self.nodes[i].epoch += 1;
            if conv.body.needs_reconcile_on_give_up() {
                self.flag_reconcile(conv.node);
            }
            self.fail_task(conv.task, conv.node, recorder);
            return false;
        }
        self.stats.retransmits += 1;
        let _ = net.send(
            Addr::Gac,
            Addr::Node(conv.node),
            self.now,
            Wire::Request(NetRequest {
                seq: conv.seq,
                epoch: conv.epoch,
                at: conv.at,
                body: conv.body.clone(),
            }),
        );
        conv.timeout_at = self.now + RTO * 2u64.saturating_pow(conv.attempts);
        self.current = Some(conv);
        true
    }

    /// What happens to a task whose conversation was abandoned (or whose
    /// node died mid-conversation).
    fn fail_task(&mut self, task: Task, node: NodeId, recorder: &mut dyn Recorder) {
        match task {
            Task::Place {
                req,
                at,
                mut tried,
                last,
            } => {
                tried.push(node);
                // FCFS: the job goes back to the head of the queue and
                // tries the next node.
                self.tasks.push_front(Task::Place {
                    req,
                    at,
                    tried,
                    last,
                });
            }
            Task::Readmit {
                r,
                from,
                at,
                mut tried,
            } => {
                tried.push(node);
                self.tasks.push_front(Task::Readmit { r, from, at, tried });
            }
            task @ (Task::Revoke { .. } | Task::Drain { .. } | Task::Join { .. }) => {
                self.park(task)
            }
            Task::Reconcile { node } => {
                self.nodes[node.as_usize()].reconcile_queued = false;
                self.flag_reconcile(node);
            }
            Task::Ping { node } => {
                self.nodes[node.as_usize()].ping_queued = false;
                self.flag_ping(node);
            }
            Task::Heartbeat { node } => {
                // The next round re-beacons; the losses were already
                // counted by the failure detector.
                self.nodes[node.as_usize()].heartbeat_queued = false;
            } // Recorder is threaded for symmetry with open(); nothing to
              // record on the give-up itself beyond the probe losses above.
        }
        let _ = recorder;
    }

    /// Queues the re-placement of a reservation that left `from`.
    fn queue_readmit(&mut self, r: Reservation, from: NodeId) {
        let at = self.now;
        let tried = Vec::new();
        self.tasks.push_back(Task::Readmit { r, from, at, tried });
    }

    /// The jobs placed on `node`, in job order.
    fn placed_on(&self, node: NodeId) -> Vec<JobId> {
        self.placements
            .iter()
            .filter(|(_, (n, _))| *n == node)
            .map(|(&job, _)| job)
            .collect()
    }

    /// Counts `r`'s job completed: the node ran the reservation to its
    /// end.
    fn retire(&mut self, r: &Reservation, recorder: &mut dyn Recorder) {
        self.completed.insert(r.id);
        let met_deadline = r.deadline.is_none_or(|d| r.end <= d);
        recorder.record(
            r.end,
            Event::Completed {
                job: r.id,
                met_deadline,
            },
        );
    }

    /// Grants (or renews) a freshly-placed job's lease on `node`.
    fn grant_lease(&mut self, job: JobId, node: NodeId) {
        if self.config.lease_ttl == Cycles::ZERO {
            return;
        }
        let lease = (job, node, self.now + self.config.lease_ttl);
        match self.leases.binary_search_by_key(&job, |&(j, _, _)| j) {
            Ok(i) => self.leases[i] = lease,
            Err(i) => self.leases.insert(i, lease),
        }
    }

    fn drop_lease(&mut self, job: JobId) {
        if let Ok(i) = self.leases.binary_search_by_key(&job, |&(j, _, _)| j) {
            self.leases.remove(i);
        }
    }

    /// The last step of a graceful drain: every reservation has moved off
    /// (or completed), so the node departs.
    fn finish_drain(&mut self, node: NodeId, recorder: &mut dyn Recorder) {
        let i = node.as_usize();
        if self.nodes[i].member != MemberState::Draining {
            return;
        }
        self.nodes[i].member = MemberState::Left;
        self.nodes[i].drain_pending = 0;
        self.nodes[i].heartbeat_queued = false;
        recorder.record(self.now, Event::NodeDrained { node });
    }

    /// One of a draining node's readmits reached its terminal state
    /// (migrated or revoked); the node leaves once the last one does.
    fn drain_readmit_resolved(&mut self, from: NodeId, recorder: &mut dyn Recorder) {
        let i = from.as_usize();
        if self.nodes[i].member == MemberState::Draining && self.nodes[i].drain_pending > 0 {
            self.nodes[i].drain_pending -= 1;
            if self.nodes[i].drain_pending == 0 {
                self.finish_drain(from, recorder);
            }
        }
    }

    fn flag_reconcile(&mut self, node: NodeId) {
        let i = node.as_usize();
        self.nodes[i].needs_reconcile = true;
        if !self.nodes[i].reconcile_queued {
            self.nodes[i].reconcile_queued = true;
            self.park(Task::Reconcile { node });
        }
    }

    fn flag_ping(&mut self, node: NodeId) {
        let i = node.as_usize();
        if self.nodes[i].health == NodeHealth::Suspect && !self.nodes[i].ping_queued {
            self.nodes[i].ping_queued = true;
            self.park(Task::Ping { node });
        }
    }

    fn update_health(&mut self, i: usize, recorder: &mut dyn Recorder) {
        let losses = self.nodes[i].consecutive_losses;
        let silent_for = self.now.saturating_sub(self.nodes[i].last_heard);
        let target = if losses >= DEAD_AFTER && silent_for >= self.config.gac.dead_timeout {
            NodeHealth::Dead
        } else if losses >= SUSPECT_AFTER {
            NodeHealth::Suspect
        } else {
            return;
        };
        if self.nodes[i].health != NodeHealth::Dead {
            self.set_health(i, target, recorder);
        }
    }

    fn set_health(&mut self, i: usize, to: NodeHealth, recorder: &mut dyn Recorder) {
        let from = self.nodes[i].health;
        if from == to {
            return;
        }
        self.nodes[i].health = to;
        let node = NodeId::new(u32::try_from(i).expect("node count fits u32"));
        recorder.record(
            self.now,
            Event::NodeHealthChanged {
                node,
                from: from.into(),
                to: to.into(),
            },
        );
        match to {
            NodeHealth::Suspect => self.flag_ping(node),
            NodeHealth::Dead => self.evacuate(node, recorder),
            NodeHealth::Healthy => {
                if self.nodes[i].needs_reconcile {
                    self.flag_reconcile(node);
                }
            }
        }
    }

    /// Declares a node dead out-of-band (an injected node fault) and
    /// evacuates its placements.
    pub fn kill_node(&mut self, node: NodeId, now: Cycles, recorder: &mut dyn Recorder) {
        self.now = self.now.max(now);
        let i = node.as_usize();
        if i >= self.nodes.len() || self.nodes[i].health == NodeHealth::Dead {
            return;
        }
        self.set_health(i, NodeHealth::Dead, recorder);
    }

    fn evacuate(&mut self, node: NodeId, recorder: &mut dyn Recorder) {
        let i = node.as_usize();
        self.nodes[i].needs_reconcile = false;
        self.nodes[i].reconcile_queued = false;
        self.nodes[i].ping_queued = false;
        self.nodes[i].heartbeat_queued = false;
        // A node that dies mid-drain departs ungracefully: evacuation
        // owns every placement from here, so the drain is over.
        if self.nodes[i].member == MemberState::Draining {
            self.nodes[i].member = MemberState::Left;
            self.nodes[i].drain_pending = 0;
            recorder.record(self.now, Event::NodeDrained { node });
        }
        // A conversation with the dead node can never complete.
        if let Some(conv) = self.current.take() {
            if conv.node == node {
                self.fail_task(conv.task, node, recorder);
            } else {
                self.current = Some(conv);
            }
        }
        let stranded = self.placed_on(node);
        for job in stranded {
            let (_, r) = self.placements.remove(&job).expect("collected above");
            self.drop_lease(job);
            self.queue_readmit(r, node);
        }
    }

    /// Finishes the open conversation with the reply it got.
    fn answer(&mut self, conv: Conversation, reply: &NetReply, recorder: &mut dyn Recorder) {
        match (conv.task, &reply.body) {
            (
                Task::Place {
                    req, at, mut tried, ..
                },
                ReplyBody::Decision(d),
            ) => match *d {
                Decision::Accepted { start } => {
                    let r = Reservation {
                        id: req.id,
                        start,
                        end: start + req.tw,
                        request: req.request,
                        mode: req.mode,
                        deadline: req.deadline,
                    };
                    self.placements.insert(req.id, (conv.node, r));
                    self.grant_lease(req.id, conv.node);
                    self.decisions.insert(req.id, (Some(conv.node), *d));
                    recorder.record(
                        self.now,
                        Event::Placed {
                            job: req.id,
                            node: conv.node,
                        },
                    );
                }
                Decision::Rejected(reason) => {
                    tried.push(conv.node);
                    self.tasks.push_front(Task::Place {
                        req,
                        at,
                        tried,
                        last: Some(reason),
                    });
                }
            },
            (
                Task::Readmit {
                    r,
                    from,
                    at,
                    mut tried,
                },
                ReplyBody::Decision(d),
            ) => match *d {
                Decision::Accepted { start } => {
                    let moved = Reservation {
                        start,
                        end: start + (r.end.saturating_sub(r.start)),
                        ..r
                    };
                    self.placements.insert(r.id, (conv.node, moved));
                    self.grant_lease(r.id, conv.node);
                    recorder.record(
                        self.now,
                        Event::Migrated {
                            job: r.id,
                            from,
                            to: conv.node,
                        },
                    );
                    self.drain_readmit_resolved(from, recorder);
                }
                Decision::Rejected(_) => {
                    tried.push(conv.node);
                    self.tasks.push_front(Task::Readmit { r, from, at, tried });
                }
            },
            (Task::Revoke { job }, ReplyBody::Revoked { .. }) => {
                // If the reservation ran out while the revoke was in
                // flight, the completion wins: a job is completed XOR
                // revoked, never both.
                if !self.completed.contains(&job) {
                    self.placements.remove(&job);
                    self.drop_lease(job);
                    self.revoked.insert(job);
                    recorder.record(
                        self.now,
                        Event::ReservationRevoked {
                            job,
                            node: conv.node,
                            cause: cmpqos_obs::RejectCause::CapacityRevoked,
                        },
                    );
                }
            }
            (
                Task::Reconcile { node },
                ReplyBody::Reconcile {
                    orphans_revoked,
                    held,
                    now: lac_now,
                },
            ) => {
                let i = node.as_usize();
                let held: BTreeSet<JobId> = held.iter().copied().collect();
                let mine = self.placed_on(node);
                let mut repaired = 0u64;
                for job in mine {
                    if held.contains(&job) {
                        continue;
                    }
                    let (_, r) = self.placements.remove(&job).expect("iterated above");
                    self.drop_lease(job);
                    if r.end <= *lac_now {
                        // The node ran it to completion while we were out
                        // of touch.
                        self.retire(&r, recorder);
                    } else {
                        repaired += 1;
                        self.queue_readmit(r, node);
                    }
                }
                self.nodes[i].needs_reconcile = false;
                self.nodes[i].reconcile_queued = false;
                self.stats.reconciles += 1;
                recorder.record(
                    self.now,
                    Event::Reconciled {
                        node,
                        orphans_revoked: orphans_revoked.len() as u64,
                        placements_repaired: repaired,
                    },
                );
                // A restarted node re-enters Live only now, its
                // journal-recovered table verified against ours; its
                // surviving leases restart their clock — it just proved
                // it holds the reservations.
                if self.nodes[i].member == MemberState::Joining {
                    self.nodes[i].member = MemberState::Live;
                    recorder.record(self.now, Event::NodeJoined { node });
                }
                if self.config.lease_ttl > Cycles::ZERO {
                    self.renew_leases(i..i + 1, |_, n| !n.lease_frozen, &mut NullRecorder);
                }
            }
            (Task::Ping { node }, ReplyBody::Summary { .. }) => {
                self.nodes[node.as_usize()].ping_queued = false;
            }
            (Task::Heartbeat { node }, ReplyBody::HeartbeatAck { .. }) => {
                let i = node.as_usize();
                self.nodes[i].heartbeat_queued = false;
                if self.config.lease_ttl > Cycles::ZERO {
                    self.renew_leases(i..i + 1, |_, n| !n.lease_frozen, recorder);
                }
            }
            (Task::Join { node }, ReplyBody::JoinAck { .. }) => {
                let i = node.as_usize();
                if self.nodes[i].member == MemberState::Joining {
                    self.nodes[i].member = MemberState::Live;
                    recorder.record(self.now, Event::NodeJoined { node });
                }
            }
            (
                Task::Drain { node },
                ReplyBody::DrainAck {
                    now: lac_now,
                    released: _,
                },
            ) => {
                // The GAC trusts its own placement view, not the released
                // list: a retransmitted drain re-acks with an empty list,
                // and the set the node *thinks* it released can predate a
                // migration the GAC already performed.
                let i = node.as_usize();
                let mine = self.placed_on(node);
                let mut pending = 0u32;
                for job in mine {
                    let (_, r) = self.placements.remove(&job).expect("iterated above");
                    self.drop_lease(job);
                    if r.end <= *lac_now {
                        self.retire(&r, recorder);
                    } else {
                        pending += 1;
                        self.queue_readmit(r, node);
                    }
                }
                if pending == 0 {
                    self.finish_drain(node, recorder);
                } else {
                    self.nodes[i].drain_pending = pending;
                }
            }
            (task, _) => {
                // A well-formed endpoint never answers a request with the
                // wrong reply shape; treat it as a failed conversation.
                self.stats.stale_replies += 1;
                self.fail_task(task, conv.node, recorder);
            }
        }
    }
}

/// GAC + LAC endpoints + network: the full control plane.
///
/// [`Cluster::run_until`] advances event-to-event (frame deliveries,
/// retransmission timeouts, parked-task wakes), so the outcome is
/// independent of how coarsely the caller steps time.
#[derive(Debug)]
pub struct Cluster<B> {
    gac: NetGac,
    pub(crate) endpoints: Vec<LacEndpoint<B>>,
    net: SimNet<Wire>,
    now: Cycles,
}

impl<B: LacBackend> Cluster<B> {
    /// Builds a cluster from per-node backends. `seed` drives every
    /// probabilistic decision of the network; `link` is the default
    /// behavior of every GAC↔node link.
    #[must_use]
    pub fn from_backends(
        backends: Vec<B>,
        seed: u64,
        link: LinkConfig,
        config: NetGacConfig,
        policy: ProbePolicy,
    ) -> Self {
        let gac = NetGac::new(backends.len(), config, policy);
        let endpoints = backends.into_iter().map(LacEndpoint::new).collect();
        Self::from_parts(gac, endpoints, SimNet::new(seed, link), Cycles::ZERO)
    }

    /// Assembles a cluster from its parts: a state machine, one endpoint
    /// per node it knows, a network, and the clock.
    #[must_use]
    pub fn from_parts(
        gac: NetGac,
        endpoints: Vec<LacEndpoint<B>>,
        net: SimNet<Wire>,
        now: Cycles,
    ) -> Self {
        Self {
            gac,
            endpoints,
            net,
            now,
        }
    }

    /// The GAC.
    #[must_use]
    pub fn gac(&self) -> &NetGac {
        &self.gac
    }

    /// Mutable GAC access (submitting jobs, queueing revocations).
    pub fn gac_mut(&mut self) -> &mut NetGac {
        &mut self.gac
    }

    /// One node's endpoint.
    #[must_use]
    pub fn endpoint(&self, node: NodeId) -> &LacEndpoint<B> {
        &self.endpoints[node.as_usize()]
    }

    /// Number of nodes in the cluster.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.endpoints.len()
    }

    /// The network.
    #[must_use]
    pub fn net(&self) -> &SimNet<Wire> {
        &self.net
    }

    /// The cluster clock.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Admits a new node to the cluster. The endpoint is live on the
    /// network immediately (addressing is by index, so no registration is
    /// needed), but the GAC only places work on it after the join
    /// handshake completes.
    pub fn join_node(&mut self, backend: B, now: Cycles) -> NodeId {
        self.now = self.now.max(now);
        self.endpoints.push(LacEndpoint::new(backend));
        self.gac.join_node(self.now)
    }

    /// Restarts a node: its endpoint loses all protocol state (epoch,
    /// sequence numbers, dedup caches — the backend's reservations
    /// survive, as journal recovery restores them), and the GAC bumps its
    /// epoch and re-runs reconciliation before the node re-enters Live.
    pub fn restart_node(&mut self, node: NodeId, now: Cycles, recorder: &mut dyn Recorder) {
        if node.as_usize() >= self.endpoints.len() {
            return;
        }
        self.now = self.now.max(now);
        self.endpoints[node.as_usize()].reset();
        self.gac.restart_node(node, self.now, recorder);
    }

    /// Starts a graceful drain of `node`. New placements stop
    /// immediately; the node transitions to Left once every reservation
    /// has migrated or completed.
    pub fn drain_node(&mut self, node: NodeId, now: Cycles) {
        if node.as_usize() >= self.endpoints.len() {
            return;
        }
        self.now = self.now.max(now);
        self.gac.drain_node(node, self.now);
    }

    /// Applies one fault injection to the control plane. Link faults act
    /// on the network (the GAC cannot observe them directly — it only
    /// sees its probes go unanswered); node faults kill the node;
    /// probe-loss faults drop the next frames toward the node. Way/core
    /// faults are node-local capacity events outside this control plane
    /// and are ignored here.
    pub fn apply(&mut self, injection: Injection, recorder: &mut dyn Recorder) {
        let at = injection.at;
        self.now = self.now.max(at);
        let node = injection.fault.node();
        if node.as_usize() >= self.endpoints.len() {
            return;
        }
        recorder.record(
            at,
            Event::FaultInjected {
                node,
                fault: injection.fault.obs_kind(),
            },
        );
        match injection.fault {
            Fault::LinkPartition { .. } => {
                self.net.partition(Addr::Gac, Addr::Node(node));
                recorder.record(at, Event::LinkPartitioned { node });
            }
            Fault::LinkHeal { .. } => {
                self.net.heal(Addr::Gac, Addr::Node(node));
                recorder.record(at, Event::LinkHealed { node });
            }
            Fault::MessageDrop { count, .. } => {
                self.net.force_drops(Addr::Gac, Addr::Node(node), count);
                recorder.record(at, Event::MessageDropped { node });
            }
            Fault::ProbeLoss { count, .. } => {
                self.net.force_drops(Addr::Gac, Addr::Node(node), count);
            }
            Fault::NodeFault { .. } => {
                self.gac.kill_node(node, at, recorder);
            }
            Fault::NodeRestart { .. } => {
                self.restart_node(node, at, recorder);
            }
            Fault::NodeDrain { .. } => {
                self.gac.drain_node(node, at);
            }
            Fault::LeaseFreeze { .. } => {
                self.gac.freeze_leases(node);
            }
            // Way/core faults are node-local capacity events; a controller
            // crash is the recovery harness's concern. Neither is a
            // control-plane message fault. A join needs a backend for the
            // new endpoint, which a generic injection cannot supply — use
            // [`Cluster::join_node`]. (The bounds check above already
            // returns early for joins, since they name the next index.)
            Fault::WayFault { .. }
            | Fault::CoreFault { .. }
            | Fault::ControllerCrash { .. }
            | Fault::NodeJoin { .. } => {}
        }
    }

    /// Advances the cluster to `until`, processing every frame delivery,
    /// retransmission timeout, and parked-task wake along the way in
    /// `(cycle, event)` order.
    pub fn run_until(&mut self, until: Cycles, recorder: &mut dyn Recorder) {
        loop {
            self.settle(true, recorder);
            match self.next_event(true) {
                Some(t) if t <= until => self.now = self.now.max(t),
                _ => break,
            }
        }
        self.now = self.now.max(until);
        self.settle(true, recorder);
        self.gac.advance(self.now, recorder);
    }

    /// Runs until no conversation is open and no task is queued,
    /// following retransmission timeouts past the current instant. The
    /// GAC's other timers — parked retries, heartbeat rounds, lease
    /// expiry — wait for a later [`Cluster::run_until`], so a lost frame
    /// costs its conversation time without moving the rest of the
    /// control plane ahead.
    pub fn run_to_quiet(&mut self, recorder: &mut dyn Recorder) {
        loop {
            self.settle(false, recorder);
            if !self.gac.busy() {
                break;
            }
            match self.next_event(false) {
                Some(t) => self.now = self.now.max(t),
                None => break,
            }
        }
    }

    /// The next frame delivery or GAC timer, whichever is first; with
    /// `timers` off, the open conversation's timeout is the only timer.
    fn next_event(&self, timers: bool) -> Option<Cycles> {
        let wake = if timers {
            self.gac.next_wake()
        } else {
            self.gac.current.as_ref().map(|c| c.timeout_at)
        };
        match (self.net.next_deliver_at(), wake) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Runs everything runnable at the current instant: delivers due
    /// frames, routes them, and lets the GAC open/retry conversations,
    /// until the instant produces no further work. With `timers` off the
    /// GAC only converses ([`Cluster::run_to_quiet`]).
    fn settle(&mut self, timers: bool, recorder: &mut dyn Recorder) {
        loop {
            let frames = self.net.deliver_due(self.now);
            let mut progressed = !frames.is_empty();
            for env in frames {
                match (env.to, env.msg) {
                    (Addr::Node(node), Wire::Request(req)) => {
                        let replies = self.endpoints[node.as_usize()].handle(req, recorder);
                        for reply in replies {
                            // The reply leaves the node the moment the
                            // request arrived, regardless of how coarsely
                            // the caller ticks the cluster.
                            let _ = self.net.send(
                                Addr::Node(node),
                                Addr::Gac,
                                env.deliver_at,
                                Wire::Reply(reply),
                            );
                        }
                    }
                    (Addr::Gac, Wire::Reply(reply)) => {
                        let Addr::Node(from) = env.from else { continue };
                        self.gac.on_reply(from, &reply, env.deliver_at, recorder);
                    }
                    // A request addressed to the GAC or a reply addressed
                    // to a node would be a routing bug; drop it.
                    _ => {}
                }
            }
            progressed |= if timers {
                self.gac.drive(self.now, &mut self.net, recorder)
            } else {
                self.gac.converse(self.now, &mut self.net, recorder)
            };
            if !progressed {
                break;
            }
        }
    }
}

impl Cluster<Lac> {
    /// A cluster of `nodes` plain [`Lac`]s with identical configuration.
    #[must_use]
    pub fn new(
        nodes: usize,
        lac: crate::lac::LacConfig,
        seed: u64,
        link: LinkConfig,
        config: NetGacConfig,
        policy: ProbePolicy,
    ) -> Self {
        Self::from_backends(
            (0..nodes).map(|_| Lac::new(lac)).collect(),
            seed,
            link,
            config,
            policy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lac::LacConfig;
    use crate::modes::ExecutionMode;
    use crate::target::ResourceRequest;
    use cmpqos_faults::FaultPlan;
    use cmpqos_obs::{NullRecorder, RingBufferRecorder};

    fn request(id: u32) -> AdmissionRequest {
        AdmissionRequest::builder(
            JobId::new(id),
            ResourceRequest::paper_job(),
            Cycles::new(100),
        )
        .mode(ExecutionMode::Strict)
        .build()
    }

    /// A job whose reservation outlives every assertion window below, so
    /// tests about placement survival aren't racing natural completion.
    fn long_request(id: u32) -> AdmissionRequest {
        AdmissionRequest::builder(
            JobId::new(id),
            ResourceRequest::paper_job(),
            Cycles::new(100_000),
        )
        .mode(ExecutionMode::Strict)
        .build()
    }

    /// Like [`long_request`], but with a deadline tight enough that the
    /// reservation must start (nearly) immediately — jobs cannot dodge a
    /// full node by queueing behind its current reservations in time.
    fn tight_request(id: u32, submit_at: Cycles) -> AdmissionRequest {
        AdmissionRequest::builder(
            JobId::new(id),
            ResourceRequest::paper_job(),
            Cycles::new(100_000),
        )
        .mode(ExecutionMode::Strict)
        .deadline(submit_at + Cycles::new(101_000))
        .build()
    }

    fn probe_req(seq: u64, epoch: u64, id: u32) -> NetRequest {
        NetRequest {
            seq,
            epoch,
            at: Cycles::new(10),
            body: RequestBody::Probe(request(id)),
        }
    }

    #[test]
    fn endpoint_processes_in_order_and_reacks_duplicates() {
        let mut ep = LacEndpoint::new(Lac::new(LacConfig::default()));
        // Out-of-order: seq 1 first, buffered; seq 0 releases both.
        assert!(ep.handle(probe_req(1, 0, 1), &mut NullRecorder).is_empty());
        let replies = ep.handle(probe_req(0, 0, 0), &mut NullRecorder);
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].seq, 0);
        assert_eq!(replies[1].seq, 1);
        assert_eq!(ep.processed(), 2);
        // A duplicate re-acks from the cache without re-admitting.
        let again = ep.handle(probe_req(0, 0, 0), &mut NullRecorder);
        assert_eq!(again, vec![replies[0].clone()]);
        assert_eq!(ep.processed(), 2);
        assert_eq!(ep.duplicates(), 1);
        assert_eq!(ep.backend().reservations().len(), 2);
    }

    #[test]
    fn endpoint_epoch_bump_resynchronizes_over_a_lost_seq() {
        let mut ep = LacEndpoint::new(Lac::new(LacConfig::default()));
        assert_eq!(ep.handle(probe_req(0, 0, 0), &mut NullRecorder).len(), 1);
        // seq 1 (epoch 0) was lost forever; the GAC gave up, bumped the
        // epoch, and moved on to seq 2. Without resync this would buffer
        // forever.
        let replies = ep.handle(probe_req(2, 1, 2), &mut NullRecorder);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].seq, 2);
        // A straggler from the abandoned epoch is stale, not executed.
        assert!(ep.handle(probe_req(1, 0, 1), &mut NullRecorder).is_empty());
        assert_eq!(ep.stale(), 1);
        assert_eq!(ep.processed(), 2);
    }

    fn quiet_cluster(nodes: usize, seed: u64, link: LinkConfig) -> Cluster<Lac> {
        Cluster::new(
            nodes,
            LacConfig::default(),
            seed,
            link,
            NetGacConfig::default(),
            ProbePolicy::FirstFit,
        )
    }

    #[test]
    fn cluster_places_jobs_over_a_clean_network() {
        let mut cluster = quiet_cluster(4, 1, LinkConfig::default());
        let mut rec = NullRecorder;
        for i in 0..8u32 {
            cluster.gac_mut().submit(request(i), Cycles::ZERO, &mut rec);
        }
        cluster.run_until(Cycles::new(5_000), &mut rec);
        assert!(cluster.gac().idle());
        let accepted = cluster
            .gac()
            .decisions()
            .values()
            .filter(|(_, d)| d.is_accepted())
            .count();
        assert_eq!(accepted, 8, "{:?}", cluster.gac().decisions());
        // GAC placement table and LAC reservation tables agree.
        for (job, (node, _)) in cluster.gac().placements() {
            assert!(cluster
                .endpoint(*node)
                .backend()
                .reservations()
                .iter()
                .any(|r| r.id == *job));
        }
        // Reservations run out; placements retire as completions.
        cluster.run_until(Cycles::new(100_000), &mut rec);
        assert!(cluster.gac().placements().is_empty());
        assert_eq!(cluster.gac().completed().len(), 8);
    }

    #[test]
    fn duplicates_and_reorder_leave_placements_identical_to_a_quiet_net() {
        let quiet = {
            let mut c = quiet_cluster(4, 7, LinkConfig::default());
            let mut rec = NullRecorder;
            for i in 0..12u32 {
                c.gac_mut().submit(request(i), Cycles::ZERO, &mut rec);
            }
            c.run_until(Cycles::new(20_000), &mut rec);
            c.gac().decisions().clone()
        };
        let noisy = {
            let link = LinkConfig::default().duplicate(0.5).reorder(15);
            let mut c = quiet_cluster(4, 7, link);
            let mut rec = NullRecorder;
            for i in 0..12u32 {
                c.gac_mut().submit(request(i), Cycles::ZERO, &mut rec);
            }
            c.run_until(Cycles::new(20_000), &mut rec);
            assert!(c.gac().stats().stale_replies > 0 || c.net().stats().duplicated > 0);
            c.gac().decisions().clone()
        };
        assert_eq!(quiet, noisy, "dup/reorder must not change any decision");
    }

    #[test]
    fn partition_suspects_without_evacuating_and_heal_recovers() {
        let mut cluster = quiet_cluster(2, 3, LinkConfig::default());
        let mut rec = RingBufferRecorder::new(256);
        cluster
            .gac_mut()
            .submit(long_request(0), Cycles::ZERO, &mut rec);
        cluster.run_until(Cycles::new(500), &mut rec);
        assert_eq!(
            cluster.gac().placements().get(&JobId::new(0)).map(|p| p.0),
            Some(NodeId::new(0))
        );
        let plan = FaultPlan::new()
            .link_partition(Cycles::new(500), NodeId::new(0))
            .build();
        cluster.apply(plan.injections()[0], &mut rec);
        cluster
            .gac_mut()
            .submit(long_request(1), Cycles::new(500), &mut rec);
        cluster.run_until(Cycles::new(10_000), &mut rec);
        // Job 1 spilled to node 1; node 0 is Suspect, not Dead, its
        // placement was not evacuated, and the job stays put.
        assert_eq!(
            cluster.gac().node_health(NodeId::new(0)),
            NodeHealth::Suspect
        );
        assert_eq!(
            cluster.gac().decisions().get(&JobId::new(1)).map(|d| d.0),
            Some(Some(NodeId::new(1)))
        );
        assert_eq!(
            cluster.gac().placements().get(&JobId::new(0)).map(|p| p.0),
            Some(NodeId::new(0)),
            "partition must not evacuate the placement"
        );
        assert_eq!(rec.counters().migrated, 0);
        assert_eq!(rec.counters().reservations_revoked, 0);
        // Heal before the dead timeout expires; the parked ping
        // re-contacts the node, health recovers, and the rejoin
        // reconciliation confirms the placement.
        let heal = FaultPlan::new()
            .link_heal(Cycles::new(10_000), NodeId::new(0))
            .build();
        cluster.apply(heal.injections()[0], &mut rec);
        cluster.run_until(Cycles::new(40_000), &mut rec);
        assert_eq!(
            cluster.gac().node_health(NodeId::new(0)),
            NodeHealth::Healthy
        );
        assert_eq!(cluster.gac().pending_reconciles(), 0);
        assert_eq!(
            cluster.gac().placements().get(&JobId::new(0)).map(|p| p.0),
            Some(NodeId::new(0)),
            "reconciliation found nothing to repair"
        );
        assert!(cluster.gac().idle());
    }

    #[test]
    fn lost_accept_reply_creates_an_orphan_that_reconciliation_revokes() {
        let mut cluster = quiet_cluster(1, 5, LinkConfig::default());
        let mut rec = RingBufferRecorder::new(256);
        // Every node→GAC frame is eaten for a while: the LAC admits, but
        // no accept reply (or its retransmitted re-acks) arrives.
        cluster
            .net
            .force_drops(Addr::Node(NodeId::new(0)), Addr::Gac, 8);
        cluster
            .gac_mut()
            .submit(long_request(0), Cycles::ZERO, &mut rec);
        // The probe conversation gives up (~1.5k cycles); the first
        // reconcile is parked but has not fired yet at 1.6k.
        cluster.run_until(Cycles::new(1_600), &mut rec);
        assert_eq!(
            cluster.gac().decisions().get(&JobId::new(0)).map(|d| d.0),
            Some(None),
            "the GAC rejected the job for lack of an answer"
        );
        assert_eq!(
            cluster
                .endpoint(NodeId::new(0))
                .backend()
                .reservations()
                .len(),
            1,
            "the LAC holds the orphan"
        );
        assert_eq!(cluster.gac().pending_reconciles(), 1);
        // The parked reconcile revokes the orphan and eventually gets an
        // answer through once the drop budget is exhausted.
        cluster.run_until(Cycles::new(40_000), &mut rec);
        assert_eq!(cluster.gac().pending_reconciles(), 0);
        assert!(cluster
            .endpoint(NodeId::new(0))
            .backend()
            .reservations()
            .is_empty());
        assert!(rec.counters().reconciled >= 1);
        assert!(cluster.gac().idle());
    }

    #[test]
    fn revoke_conversation_cancels_on_both_sides() {
        let mut cluster = quiet_cluster(1, 9, LinkConfig::default());
        let mut rec = RingBufferRecorder::new(64);
        cluster.gac_mut().submit(request(0), Cycles::ZERO, &mut rec);
        cluster.run_until(Cycles::new(50), &mut rec);
        assert_eq!(cluster.gac().placements().len(), 1);
        cluster.gac_mut().revoke(JobId::new(0));
        cluster.run_until(Cycles::new(100), &mut rec);
        assert!(cluster.gac().placements().is_empty());
        assert!(cluster.gac().revoked().contains(&JobId::new(0)));
        assert!(cluster
            .endpoint(NodeId::new(0))
            .backend()
            .reservations()
            .is_empty());
        assert_eq!(rec.counters().reservations_revoked, 1);
    }

    #[test]
    fn node_fault_evacuates_to_survivors_over_the_network() {
        let mut cluster = quiet_cluster(2, 11, LinkConfig::default());
        let mut rec = RingBufferRecorder::new(128);
        cluster
            .gac_mut()
            .submit(long_request(0), Cycles::ZERO, &mut rec);
        cluster.run_until(Cycles::new(50), &mut rec);
        assert_eq!(
            cluster.gac().placements().get(&JobId::new(0)).map(|p| p.0),
            Some(NodeId::new(0))
        );
        let plan = FaultPlan::new()
            .node_fault(Cycles::new(50), NodeId::new(0))
            .build();
        cluster.apply(plan.injections()[0], &mut rec);
        cluster.run_until(Cycles::new(1_000), &mut rec);
        assert_eq!(cluster.gac().node_health(NodeId::new(0)), NodeHealth::Dead);
        assert_eq!(
            cluster.gac().placements().get(&JobId::new(0)).map(|p| p.0),
            Some(NodeId::new(1)),
            "the reservation migrated over the wire"
        );
        assert_eq!(rec.counters().migrated, 1);
    }

    #[test]
    fn join_handshake_brings_a_node_live_and_placeable() {
        let mut cluster = quiet_cluster(1, 13, LinkConfig::default());
        let mut rec = RingBufferRecorder::new(128);
        // Fill node 0 (2 x 7 = 14 of 16 ways; a third concurrent paper
        // job cannot fit, and the tight deadlines forbid queueing in time).
        cluster
            .gac_mut()
            .submit(tight_request(0, Cycles::ZERO), Cycles::ZERO, &mut rec);
        cluster
            .gac_mut()
            .submit(tight_request(1, Cycles::ZERO), Cycles::ZERO, &mut rec);
        cluster.run_until(Cycles::new(1_000), &mut rec);
        assert_eq!(cluster.gac().placements().len(), 2);
        let joined = cluster.join_node(Lac::new(LacConfig::default()), Cycles::new(1_000));
        assert_eq!(joined, NodeId::new(1));
        assert_eq!(cluster.gac().member_state(joined), MemberState::Joining);
        // The join-announce handshake completes over the wire.
        cluster.run_until(Cycles::new(2_000), &mut rec);
        assert_eq!(cluster.gac().member_state(joined), MemberState::Live);
        assert_eq!(rec.counters().nodes_joined, 1);
        // The spill that had nowhere to go now lands on the joined node.
        cluster.gac_mut().submit(
            tight_request(2, Cycles::new(2_000)),
            Cycles::new(2_000),
            &mut rec,
        );
        cluster.run_until(Cycles::new(3_000), &mut rec);
        assert_eq!(
            cluster.gac().placements().get(&JobId::new(2)).map(|p| p.0),
            Some(joined)
        );
        assert!(cluster.gac().idle());
    }

    #[test]
    fn graceful_drain_migrates_over_the_wire_then_departs() {
        let mut cluster = quiet_cluster(2, 17, LinkConfig::default());
        let mut rec = RingBufferRecorder::new(256);
        cluster
            .gac_mut()
            .submit(long_request(0), Cycles::ZERO, &mut rec);
        cluster
            .gac_mut()
            .submit(long_request(1), Cycles::ZERO, &mut rec);
        cluster.run_until(Cycles::new(1_000), &mut rec);
        assert_eq!(
            cluster.gac().placements().get(&JobId::new(0)).map(|p| p.0),
            Some(NodeId::new(0))
        );
        cluster.drain_node(NodeId::new(0), Cycles::new(1_000));
        assert_eq!(
            cluster.gac().member_state(NodeId::new(0)),
            MemberState::Draining
        );
        cluster.run_until(Cycles::new(10_000), &mut rec);
        // Both reservations moved to node 1 over the wire; only then did
        // the drained node depart. No admitted job was lost.
        assert_eq!(
            cluster.gac().member_state(NodeId::new(0)),
            MemberState::Left
        );
        assert_eq!(rec.counters().nodes_drained, 1);
        for (job, (node, _)) in cluster.gac().placements() {
            assert_eq!(*node, NodeId::new(1), "{job:?} moved off the drained node");
        }
        assert_eq!(cluster.gac().placements().len(), 2);
        assert!(cluster
            .endpoint(NodeId::new(0))
            .backend()
            .reservations()
            .is_empty());
        assert_eq!(
            cluster
                .endpoint(NodeId::new(1))
                .backend()
                .reservations()
                .len(),
            2
        );
        // A drained node is out of the placement rotation.
        cluster
            .gac_mut()
            .submit(long_request(2), Cycles::new(10_000), &mut rec);
        cluster.run_until(Cycles::new(11_000), &mut rec);
        assert_eq!(
            cluster.gac().placements().get(&JobId::new(2)).map(|p| p.0),
            Some(NodeId::new(1))
        );
        assert!(cluster.gac().idle());
    }

    #[test]
    fn restart_resets_the_endpoint_and_reconciles_before_reentering_live() {
        let mut cluster = quiet_cluster(1, 19, LinkConfig::default());
        let mut rec = RingBufferRecorder::new(256);
        cluster
            .gac_mut()
            .submit(long_request(0), Cycles::ZERO, &mut rec);
        cluster.run_until(Cycles::new(1_000), &mut rec);
        assert!(cluster.endpoint(NodeId::new(0)).processed() > 0);
        // The node restarts: protocol state is wiped (the journal-recovered
        // backend keeps its reservations), and the GAC must re-handshake at
        // a higher epoch — without the bump, the fresh endpoint would
        // buffer the next mid-stream sequence number forever.
        cluster.restart_node(NodeId::new(0), Cycles::new(1_000), &mut rec);
        assert_eq!(cluster.endpoint(NodeId::new(0)).processed(), 0);
        assert_eq!(
            cluster.gac().member_state(NodeId::new(0)),
            MemberState::Joining
        );
        cluster.run_until(Cycles::new(10_000), &mut rec);
        // Reconciliation compared the recovered table against the GAC's
        // placement view, found them in agreement, and re-admitted the node.
        assert_eq!(
            cluster.gac().member_state(NodeId::new(0)),
            MemberState::Live
        );
        assert_eq!(cluster.gac().pending_reconciles(), 0);
        assert_eq!(
            cluster.gac().placements().get(&JobId::new(0)).map(|p| p.0),
            Some(NodeId::new(0)),
            "the placement survived the restart"
        );
        assert!(rec.counters().reconciled >= 1);
        assert_eq!(rec.counters().nodes_joined, 1);
        assert!(cluster.gac().idle());
    }

    #[test]
    fn heartbeats_renew_leases_and_a_freeze_expires_them() {
        let config = NetGacConfig {
            gac: GacConfig {
                dead_timeout: Cycles::new(2_000),
            },
            heartbeat_every: Cycles::new(500),
            lease_ttl: Cycles::new(2_000),
        };
        let mut cluster = Cluster::new(
            2,
            LacConfig::default(),
            23,
            LinkConfig::default(),
            config,
            ProbePolicy::FirstFit,
        );
        let mut rec = RingBufferRecorder::new(512);
        cluster
            .gac_mut()
            .submit(long_request(0), Cycles::ZERO, &mut rec);
        cluster.run_until(Cycles::new(20_000), &mut rec);
        // Heartbeat acks kept renewing the lease well past its TTL.
        assert!(rec.counters().leases_renewed > 0);
        assert_eq!(rec.counters().leases_expired, 0);
        assert_eq!(cluster.gac().leases()[0].0, JobId::new(0));
        // Freeze renewals on the placed node: acks still arrive (the node
        // stays Healthy — this is not a liveness failure), but the lease
        // runs out TTL + grace later and the job is revoked and re-placed.
        cluster.gac_mut().freeze_leases(NodeId::new(0));
        cluster.run_until(Cycles::new(40_000), &mut rec);
        assert!(rec.counters().leases_expired >= 1);
        assert_eq!(
            cluster.gac().node_health(NodeId::new(0)),
            NodeHealth::Healthy
        );
        assert_eq!(
            cluster.gac().placements().get(&JobId::new(0)).map(|p| p.0),
            Some(NodeId::new(1)),
            "the expired lease's job migrated"
        );
    }

    #[test]
    fn same_seed_same_everything() {
        let run = |seed: u64| {
            let link = LinkConfig::default().drop(0.2).duplicate(0.2).jitter(20);
            let mut c = quiet_cluster(3, seed, link);
            let mut rec = NullRecorder;
            for i in 0..10u32 {
                c.gac_mut()
                    .submit(request(i), Cycles::new(u64::from(i) * 50), &mut rec);
            }
            c.run_until(Cycles::new(100_000), &mut rec);
            (
                c.gac().decisions().clone(),
                c.gac().stats(),
                c.net().stats(),
            )
        };
        assert_eq!(run(42), run(42));
    }
}
