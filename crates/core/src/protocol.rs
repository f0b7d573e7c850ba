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
//!   revoke, ping, reconciliation, heartbeat, join and drain, each
//!   carrying a monotonic per-node sequence number, the GAC's per-node
//!   *epoch*, and the logical cycle the conversation was opened at.
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
use crate::gac_index::{Leases, Parked, Placements};
use crate::lac::{Decision, Lac, RejectReason, Reservation};
use crate::request::AdmissionRequest;
use crate::target::ResourceRequest;
use cmpqos_faults::{Fault, Injection};
use cmpqos_net::{Addr, LinkConfig, SimNet, Transport};
use cmpqos_obs::{Event, NullRecorder, Recorder};
use cmpqos_types::{Cycles, JobId, NodeId, Ways};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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
    /// The failure detector's ping to a suspect node.
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
    Revoked,
    /// The ping was answered.
    Summary,
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
    HeartbeatAck,
    /// The join handshake completed on the node side.
    JoinAck,
    /// The drain was applied.
    DrainAck {
        /// The node's clock, so the GAC can tell which of its placements
        /// on the node had already run to completion.
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
                self.backend.cancel(job);
                ReplyBody::Revoked
            }
            RequestBody::Summary => ReplyBody::Summary,
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
            RequestBody::Heartbeat => ReplyBody::HeartbeatAck,
            RequestBody::Join => ReplyBody::JoinAck,
            RequestBody::Drain => {
                for r in self.backend.reservations() {
                    self.backend.cancel(r.id);
                }
                ReplyBody::DrainAck {
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
    /// heartbeat ack and reconcile; expiry (after a further
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

/// Per-node failure-detector, conversation and lease-renewal state.
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
///
/// Placements, leases and parked tasks each sit beside an index
/// (`gac_index`), so no event scans them. The indexes are never
/// serialized: a core read back rebuilds them from its tables.
#[derive(Debug, Clone, PartialEq)]
pub struct NetGac {
    config: NetGacConfig,
    policy: ProbePolicy,
    nodes: Vec<NetNode>,
    placements: Placements,
    decisions: BTreeMap<JobId, (Option<NodeId>, Decision)>,
    completed: BTreeSet<JobId>,
    revoked: BTreeSet<JobId>,
    tasks: VecDeque<Task>,
    parked: Parked<Task>,
    current: Option<Conversation>,
    /// The lease table. A renewal moves its node's horizon, not each
    /// lease.
    leases: Leases,
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
            placements: Placements::default(),
            decisions: BTreeMap::new(),
            completed: BTreeSet::new(),
            revoked: BTreeSet::new(),
            tasks: VecDeque::new(),
            parked: Parked::from_rows(Vec::new(), 0),
            current: None,
            leases: Leases::default(),
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
        self.leases.expiries()
    }

    /// Hands the core a reservation its node evicted on its own (a dead
    /// way or core left no room for it): the placement is dropped and
    /// the reservation re-placed on another node, or revoked when none
    /// takes it.
    pub fn readmit(&mut self, r: Reservation, from: NodeId) {
        self.placements.remove(r.id);
        self.leases.remove(r.id);
        self.queue_readmit(r, from);
    }

    /// Records that `job`'s node gave up `ways_cut` of its ways to a
    /// fault (an Elastic downgrade), so a later readmit asks for what the
    /// job still holds.
    pub fn downgrade(&mut self, job: JobId, ways_cut: Ways) {
        self.placements.update(job, |r| {
            r.request = r.request.minus(&ResourceRequest::new(0, ways_cut));
        });
    }

    /// Retires `job`'s placement because it finished early, returning the
    /// node it ran on. Releasing the node's reservation is the caller's
    /// node-local business.
    pub fn release(&mut self, job: JobId) -> Option<NodeId> {
        let (node, _) = self.placements.remove(job)?;
        self.leases.remove(job);
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

    /// Renews `node`'s leases to `now + lease_ttl`, unless leasing is
    /// disabled or the node is lease-frozen, and reports one
    /// `LeaseRenewed` when it held any. The lease table is read only
    /// when `recorder` is enabled.
    fn renew_leases(&mut self, node: NodeId, recorder: &mut dyn Recorder) {
        if self.config.lease_ttl == Cycles::ZERO || self.nodes[node.as_usize()].lease_frozen {
            return;
        }
        self.leases.renew(node, self.now + self.config.lease_ttl);
        if !recorder.enabled() {
            return;
        }
        let leases = self.leases.count_on(node) as u64;
        if leases > 0 {
            recorder.record(self.now, Event::LeaseRenewed { node, leases });
        }
    }

    /// Whether a conversation is open or a task is queued (parked retries
    /// wait for their timer and do not count).
    fn busy(&self) -> bool {
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
        self.placements.rows()
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

    /// Whether the control plane has no work left: no placement, readmit,
    /// revoke, reconcile, join or drain is queued, parked or in flight.
    /// Heartbeats and pings do not count. A heartbeat round only renews
    /// the leases of members that already answer, and it recurs every
    /// `heartbeat_every` cycles for as long as the cluster runs, so a loop
    /// that waits for it to end would see a different answer at each
    /// phase of the period. A ping only probes a Suspect node: a lost
    /// beacon provokes one, and pings recur for as long as beacons cross
    /// a lossy link.
    #[must_use]
    pub fn idle(&self) -> bool {
        let not_work = |task: &Task| matches!(task, Task::Heartbeat { .. } | Task::Ping { .. });
        self.current.as_ref().is_none_or(|c| not_work(&c.task))
            && self.tasks.iter().all(not_work)
            && self.parked.tasks().all(not_work)
    }

    /// The next cycle at which [`NetGac::drive`] has work to do
    /// (retransmission timeout, parked-task wake, or heartbeat round),
    /// if any.
    #[must_use]
    pub fn next_wake(&self) -> Option<Cycles> {
        let timeout = self.current.as_ref().map(|c| c.timeout_at);
        let parked = self.parked.next_due();
        let heartbeat = (self.config.heartbeat_every > Cycles::ZERO).then_some(self.next_heartbeat);
        // `expire_leases` fires on strict `now > until + grace`, hence +1.
        let grace = self.config.gac.dead_timeout;
        let lease = self
            .leases
            .next_expiry()
            .map(|expiry| expiry + grace + Cycles::new(1));
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
        for job in self.placements.ended(self.now) {
            let (_, r) = self.placements.remove(job).expect("indexed above");
            self.leases.remove(job);
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
        for job in self.leases.expired(self.now, self.config.gac.dead_timeout) {
            self.leases.remove(job);
            let Some((node, r)) = self.placements.remove(job) else {
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
        while let Some(task) = self.parked.pop_due(self.now) {
            self.tasks.push_back(task);
        }
    }

    fn park(&mut self, task: Task) {
        self.parked.park(self.now + RETRY_INTERVAL, task);
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

    /// The node a probe goes to next: a healthy Live member (Joining,
    /// Draining, and Left nodes take no new placements) outside
    /// `excluded`, with the fewest placements under `LeastLoaded` or the
    /// lowest index under `FirstFit`; the lowest index wins a tie. One
    /// pass, O(nodes + excluded).
    fn pick_node<'a>(&self, excluded: impl IntoIterator<Item = &'a NodeId>) -> Option<NodeId> {
        let mut skip = vec![false; self.nodes.len()];
        for node in excluded {
            if let Some(s) = skip.get_mut(node.as_usize()) {
                *s = true;
            }
        }
        let mut best: Option<(usize, NodeId)> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            if skip[i] || n.member != MemberState::Live || n.health != NodeHealth::Healthy {
                continue;
            }
            let node = NodeId::new(u32::try_from(i).expect("node count fits u32"));
            if self.policy == ProbePolicy::FirstFit {
                return Some(node);
            }
            let load = self.placements.load(node);
            if best.is_none_or(|(least, _)| load < least) {
                best = Some((load, node));
            }
        }
        best.map(|(_, node)| node)
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
            } => match self.pick_node(&tried) {
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
            },
            Task::Readmit { r, from, at, tried } => {
                match self.pick_node(tried.iter().chain([&from])) {
                    Some(node) => Some(self.send_new(
                        node,
                        RequestBody::Readmit(r),
                        at,
                        Task::Readmit { r, from, at, tried },
                        net,
                    )),
                    None => {
                        self.revoked.insert(r.id);
                        self.leases.remove(r.id);
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
                let &(node, _) = self.placements.rows().get(&job)?;
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
            .rows()
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

    /// Places `r` on `node` and grants its lease, unless leasing is
    /// disabled.
    fn place(&mut self, node: NodeId, r: Reservation) {
        self.placements.insert(node, r);
        if self.config.lease_ttl > Cycles::ZERO {
            self.leases
                .grant(r.id, node, self.now + self.config.lease_ttl);
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
        for job in self.placed_on(node) {
            let (_, r) = self.placements.remove(job).expect("collected above");
            self.leases.remove(job);
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
                    // The core records what the node reserved. A job that
                    // reserves nothing (Opportunistic) holds no window to
                    // track, so it counts as completed at once.
                    match req.reservation_at(start) {
                        Some(r) => self.place(conv.node, r),
                        None => {
                            self.completed.insert(req.id);
                        }
                    }
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
                    self.place(conv.node, r.moved_to(start));
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
            (Task::Revoke { job }, ReplyBody::Revoked) => {
                // If the reservation ran out while the revoke was in
                // flight, the completion wins: a job is completed XOR
                // revoked, never both.
                if !self.completed.contains(&job) {
                    self.placements.remove(job);
                    self.leases.remove(job);
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
                    let (_, r) = self.placements.remove(job).expect("iterated above");
                    self.leases.remove(job);
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
                self.renew_leases(node, &mut NullRecorder);
            }
            (Task::Ping { node }, ReplyBody::Summary) => {
                self.nodes[node.as_usize()].ping_queued = false;
            }
            (Task::Heartbeat { node }, ReplyBody::HeartbeatAck) => {
                self.nodes[node.as_usize()].heartbeat_queued = false;
                self.renew_leases(node, recorder);
            }
            (Task::Join { node }, ReplyBody::JoinAck) => {
                let i = node.as_usize();
                if self.nodes[i].member == MemberState::Joining {
                    self.nodes[i].member = MemberState::Live;
                    recorder.record(self.now, Event::NodeJoined { node });
                }
            }
            (Task::Drain { node }, ReplyBody::DrainAck { now: lac_now }) => {
                // The GAC re-places every placement its own view holds on
                // the node: the set the node released can predate a
                // migration the GAC already performed.
                let i = node.as_usize();
                let mine = self.placed_on(node);
                let mut pending = 0u32;
                for job in mine {
                    let (_, r) = self.placements.remove(job).expect("iterated above");
                    self.leases.remove(job);
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

/// A core serializes as its tables, field by field, in the journal's
/// snapshot format: placements as the job map, leases as the job-ordered
/// `(job, node, granted expiry)` list, parked tasks as the wake-ordered
/// `(due, order, task)` list with the next order stamp as
/// `park_counter`, and each node's lease horizon as the node's last
/// field, `leases_until`. The indexes are never written: reading a core
/// back rebuilds them.
#[cfg(feature = "serde")]
impl serde::Serialize for NetGac {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let nodes = self.nodes.iter().zip(0..).map(|(node, i)| {
            let mut v = node.to_value();
            if let Value::Object(fields) = &mut v {
                let until = self.leases.until(NodeId::new(i));
                fields.push(("leases_until".into(), until.to_value()));
            }
            v
        });
        let parked = self.parked.rows().map(|row| row.to_value());
        let leases = self.leases.rows().map(|row| row.to_value());
        Value::Object(vec![
            ("config".into(), self.config.to_value()),
            ("policy".into(), self.policy.to_value()),
            ("nodes".into(), Value::Array(nodes.collect())),
            ("placements".into(), self.placements.rows().to_value()),
            ("decisions".into(), self.decisions.to_value()),
            ("completed".into(), self.completed.to_value()),
            ("revoked".into(), self.revoked.to_value()),
            ("tasks".into(), self.tasks.to_value()),
            ("parked".into(), Value::Array(parked.collect())),
            ("park_counter".into(), self.parked.next_order().to_value()),
            ("current".into(), self.current.to_value()),
            ("leases".into(), Value::Array(leases.collect())),
            ("next_heartbeat".into(), self.next_heartbeat.to_value()),
            ("stats".into(), self.stats.to_value()),
            ("now".into(), self.now.to_value()),
        ])
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for NetGac {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn field<T: serde::Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::Error> {
            T::from_value(v.get(name).unwrap_or(&serde::Value::Null))
        }
        let nodes: Vec<NetNode> = field(v, "nodes")?;
        let until = v
            .get("nodes")
            .and_then(serde::Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|node| field(node, "leases_until"))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            config: field(v, "config")?,
            policy: field(v, "policy")?,
            nodes,
            placements: Placements::from_rows(field(v, "placements")?),
            decisions: field(v, "decisions")?,
            completed: field(v, "completed")?,
            revoked: field(v, "revoked")?,
            tasks: field(v, "tasks")?,
            parked: Parked::from_rows(field(v, "parked")?, field(v, "park_counter")?),
            current: field(v, "current")?,
            leases: Leases::from_rows(field(v, "leases")?, until),
            next_heartbeat: field(v, "next_heartbeat")?,
            stats: field(v, "stats")?,
            now: field(v, "now")?,
        })
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
    fn the_core_records_the_window_its_lac_reserved() {
        let mut cluster = quiet_cluster(2, 29, LinkConfig::default());
        let mut rec = NullRecorder;
        let tw = Cycles::new(1_000);
        let job = |id: u32, mode: ExecutionMode| {
            AdmissionRequest::builder(JobId::new(id), ResourceRequest::paper_job(), tw)
                .mode(mode)
                .build()
        };
        let elastic = job(0, ExecutionMode::Elastic(cmpqos_types::Percent::new(50.0)));
        cluster.gac_mut().submit(elastic, Cycles::ZERO, &mut rec);
        cluster.run_until(Cycles::new(100), &mut rec);
        let &(node, copy) = &cluster.gac().placements()[&elastic.id];
        let held = cluster.endpoint(node).backend().reservation(elastic.id);
        assert_eq!(
            Some(copy),
            held,
            "the core's copy is the node's reservation"
        );
        assert_eq!(copy.end, copy.start + Cycles::new(1_500));
        // The placement holds its node for the whole Elastic window: not
        // retired at `start + tw`, retired at `start + 1.5·tw`.
        cluster.run_until(copy.start + tw, &mut rec);
        assert!(cluster.gac().placements().contains_key(&elastic.id));
        cluster.run_until(copy.end - Cycles::new(1), &mut rec);
        assert!(cluster.gac().placements().contains_key(&elastic.id));
        assert!(!cluster.gac().completed().contains(&elastic.id));
        cluster.run_until(copy.end, &mut rec);
        assert!(cluster.gac().placements().is_empty());
        assert!(cluster.gac().completed().contains(&elastic.id));

        // An Opportunistic acceptance reserves nothing: no placement, and
        // the job counts as completed at once.
        let at = cluster.now();
        let opportunistic = job(1, ExecutionMode::Opportunistic);
        cluster.gac_mut().submit(opportunistic, at, &mut rec);
        cluster.run_until(at + Cycles::new(100), &mut rec);
        let (node, decision) = cluster.gac().decisions()[&opportunistic.id];
        assert!(decision.is_accepted(), "{decision:?}");
        let node = node.expect("an accepted job has a node");
        assert!(cluster.gac().placements().is_empty());
        assert!(cluster.gac().leases().is_empty());
        assert!(cluster.gac().completed().contains(&opportunistic.id));
        let lac = cluster.endpoint(node).backend();
        assert_eq!(lac.reservation(opportunistic.id), None);
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
        let placed_on =
            |cluster: &Cluster<Lac>| cluster.gac().placements().get(&JobId::new(0)).map(|p| p.0);
        let [(job, node, expiry)] = cluster.gac().leases()[..] else {
            panic!("one lease: {:?}", cluster.gac().leases());
        };
        assert_eq!((job, node), (JobId::new(0), NodeId::new(0)));
        // Within the grace the placement holds, unrenewed …
        let renewed = rec.counters().leases_renewed;
        let deadline = expiry + config.gac.dead_timeout;
        cluster.run_until(deadline, &mut rec);
        assert_eq!(rec.counters().leases_renewed, renewed, "frozen: no renewal");
        assert_eq!(rec.counters().leases_expired, 0);
        assert_eq!(placed_on(&cluster), Some(NodeId::new(0)));
        // … and one cycle past it the lease expires.
        let expired_at = deadline + Cycles::new(1);
        cluster.run_until(expired_at, &mut rec);
        assert_eq!(rec.counters().leases_expired, 1);
        cluster.run_until(expired_at + Cycles::new(1_000), &mut rec);
        assert_eq!(
            cluster.gac().node_health(NodeId::new(0)),
            NodeHealth::Healthy
        );
        assert_eq!(
            placed_on(&cluster),
            Some(NodeId::new(1)),
            "the expired lease's job migrated"
        );
        let [(job, node, fresh)] = cluster.gac().leases()[..] else {
            panic!("one lease: {:?}", cluster.gac().leases());
        };
        assert_eq!((job, node), (JobId::new(0), NodeId::new(1)));
        assert!(
            fresh >= expired_at + config.lease_ttl,
            "a fresh lease: {fresh}"
        );
        assert_eq!(rec.counters().leases_expired, 1);
    }

    /// The churn cell's control plane with no jobs: 104 nodes over its
    /// lossy link, heartbeats every 10k cycles renewing 30k-cycle leases,
    /// and a 40k-cycle death timeout.
    fn churn_cell_cluster() -> Cluster<Lac> {
        let config = NetGacConfig {
            gac: GacConfig {
                dead_timeout: Cycles::new(40_000),
            },
            heartbeat_every: Cycles::new(10_000),
            lease_ttl: Cycles::new(30_000),
        };
        let link = LinkConfig::default()
            .base_latency(Cycles::new(10))
            .jitter(5)
            .reorder(10)
            .drop(0.03)
            .duplicate(0.05);
        Cluster::new(
            104,
            LacConfig::default(),
            1,
            link,
            config,
            ProbePolicy::LeastLoaded,
        )
    }

    #[test]
    fn idle_ignores_heartbeats_and_pings_and_nothing_else() {
        let mut cluster = churn_cell_cluster();
        let mut rec = NullRecorder;
        // Three rounds of 104 beacons each, sampled every 250 cycles: the
        // rounds hold the conversation slot at some instants, yet no
        // instant has work.
        let mut mid_round = 0;
        for step in 0..=120u64 {
            let at = Cycles::new(step * 250);
            cluster.run_until(at, &mut rec);
            assert!(cluster.gac().idle(), "busy at {at} with no work");
            mid_round += usize::from(cluster.gac().busy());
        }
        assert!(mid_round > 0, "no sample landed inside a round");
        assert!(cluster.gac().stats().conversations >= 2 * 104);

        // A job submitted mid-round queues behind the round's beacons and
        // keeps the core busy until it is decided.
        let at = cluster.now();
        assert!(cluster.gac().busy(), "the third round is queued at {at}");
        let job = long_request(0);
        cluster.gac_mut().submit(job, at, &mut rec);
        let mut now = at;
        while !cluster.gac().decisions().contains_key(&job.id) {
            assert!(!cluster.gac().idle(), "idle at {now} with job 0 undecided");
            now += Cycles::new(10);
            assert!(now < at + Cycles::new(10_000), "job 0 never decided");
            cluster.run_until(now, &mut rec);
        }
        assert!(cluster.gac().idle(), "job 0 was decided at {now}");

        // A restart's reconcile keeps the core busy until it completes.
        let node = NodeId::new(7);
        let at = Cycles::new(40_000);
        cluster.run_until(at, &mut rec);
        cluster.restart_node(node, at, &mut rec);
        let mut now = at;
        while cluster.gac().pending_reconciles() > 0 {
            assert!(!cluster.gac().idle(), "idle at {now} mid-reconcile");
            now += Cycles::new(10);
            assert!(now < at + Cycles::new(10_000), "the reconcile never ended");
            cluster.run_until(now, &mut rec);
        }
        assert_eq!(cluster.gac().member_state(node), MemberState::Live);
        assert!(cluster.gac().stats().reconciles >= 1);

        // A Suspect node's pings are not work either. Cut off a node that
        // holds nothing: its lost beacons demote it to Suspect, and a ping
        // waits for it, queued, parked or in flight, until the death
        // timeout. Sample well before that.
        let cut = (0..104u32)
            .map(NodeId::new)
            .find(|n| cluster.gac().placements().values().all(|(on, _)| on != n))
            .expect("a node without placements");
        let at = Cycles::new(50_000);
        cluster.run_until(at, &mut rec);
        let partition = FaultPlan::new().link_partition(at, cut).build();
        cluster.apply(partition.injections()[0], &mut rec);
        let ping = |task: &Task| matches!(task, Task::Ping { node } if *node == cut);
        let mut pinging = 0;
        for step in 1..=100u64 {
            let now = at + Cycles::new(step * 250);
            cluster.run_until(now, &mut rec);
            let gac = cluster.gac();
            if gac.current.as_ref().is_some_and(|c| ping(&c.task))
                || gac.tasks.iter().any(ping)
                || gac.parked.tasks().any(ping)
            {
                pinging += 1;
                assert!(gac.idle(), "busy at {now} with only a ping to {cut}");
            }
        }
        assert_eq!(cluster.gac().node_health(cut), NodeHealth::Suspect);
        assert!(pinging > 0, "no sample found a ping to {cut}");
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
