//! The Global Admission Controller (Section 3.1 of the paper): the types
//! both of its drivers share, and the in-process driver.
//!
//! A server consists of many CMP nodes; the GAC receives user submissions
//! and probes each node's Local Admission Controller for one that can
//! satisfy the job's QoS target. When no node accepts, the job is rejected
//! (in a full deployment the GAC would then renegotiate the target with the
//! user — out of this paper's scope, as it is of ours).
//!
//! The controller's one state machine is [`NetGac`]
//! ([`crate::protocol`]): probing, retries, the Healthy → Suspect → Dead
//! failure detector, membership, leases, evacuation and reconciliation
//! all live there. [`GlobalAdmissionController`] drives it synchronously:
//! it owns the nodes' [`Lac`]s, carries the core's [`Wire`] frames over a
//! zero-latency, lossless [`SimNet`], and runs the core until it is quiet
//! before each call returns. A lost probe is a frame a `ProbeLoss` fault
//! makes that network drop; the core retries it on its own retransmission
//! timer. Every loss, retry, health transition, migration, and revocation
//! is emitted as a typed [`cmpqos_obs::Event`], so a recorded run fully
//! reconstructs the chaos.

use crate::lac::{Decision, Lac, LacConfig, LacState, Reservation, RevocationAction};
use crate::protocol::{Cluster, LacBackend, LacEndpoint, NetGac, NetGacConfig, Wire};
use crate::request::AdmissionRequest;
use crate::target::ResourceRequest;
use cmpqos_faults::{Fault, Injection};
use cmpqos_net::{Addr, LinkConfig, SimNet, Transport};
use cmpqos_obs::{Event, Recorder};
use cmpqos_types::{Cycles, JobId, NodeId, Ways};

/// Order in which nodes are probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ProbePolicy {
    /// Probe nodes in index order (first fit).
    #[default]
    FirstFit,
    /// Probe the node with the fewest live placements first (a simple
    /// load-balancing heuristic).
    LeastLoaded,
}

/// A node's health as tracked by the GAC's failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum NodeHealth {
    /// Probes are answered; the node takes placements.
    Healthy,
    /// Probes were lost recently
    /// ([`SUSPECT_AFTER`](crate::protocol::SUSPECT_AFTER) consecutive
    /// losses); the node takes no new placements until it answers again.
    Suspect,
    /// The node failed ([`DEAD_AFTER`](crate::protocol::DEAD_AFTER)
    /// consecutive losses *and* [`GacConfig::dead_timeout`] of silence, or
    /// an explicit node fault);
    /// it is never probed and its reservations were evacuated.
    Dead,
}

impl From<NodeHealth> for cmpqos_obs::Health {
    fn from(h: NodeHealth) -> Self {
        match h {
            NodeHealth::Healthy => cmpqos_obs::Health::Healthy,
            NodeHealth::Suspect => cmpqos_obs::Health::Suspect,
            NodeHealth::Dead => cmpqos_obs::Health::Dead,
        }
    }
}

/// A node's lifecycle membership state, orthogonal to [`NodeHealth`]:
/// health tracks whether the node *answers*, membership tracks whether it
/// *belongs*. Only `Live` nodes take new placements; the table is
/// append-only (a departed node's index is never reused), so `NodeId`s in
/// journals and event streams stay stable across churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MemberState {
    /// Mid-handshake (announced or restarting, not yet reconciled); takes
    /// no new placements.
    Joining,
    /// Full member: probed, placed on, and heartbeated.
    #[default]
    Live,
    /// Graceful shutdown underway: no new placements while existing
    /// reservations migrate off.
    Draining,
    /// Departed for good; skipped by every probe and heartbeat.
    Left,
}

/// The failure detector's death timeout. Its loss thresholds are the
/// constants [`SUSPECT_AFTER`](crate::protocol::SUSPECT_AFTER) and
/// [`DEAD_AFTER`](crate::protocol::DEAD_AFTER); heartbeats and leases are
/// part of the enclosing [`NetGacConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GacConfig {
    /// How long a node must have gone without answering before
    /// loss-driven death is allowed. Losses alone — however many — only
    /// demote to Suspect until this timeout expires: a partitioned node
    /// is *unreachable, not dead*, and evacuating its (still honored)
    /// reservations would double-book them. It is also the grace an
    /// unrenewed lease gets past its expiry.
    pub dead_timeout: Cycles,
}

impl Default for GacConfig {
    fn default() -> Self {
        Self {
            dead_timeout: Cycles::new(30_000),
        }
    }
}

/// What one fault injection did to the admitted-job population.
///
/// Returned by [`GlobalAdmissionController::inject`] so callers can
/// account for every affected reservation without parsing the event
/// stream: an admitted job only ever completes, migrates, downgrades, or
/// is revoked **with a reason** — never silently lost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Elastic jobs that absorbed the loss by giving up ways.
    pub downgraded: Vec<(JobId, Ways)>,
    /// Jobs re-placed on a surviving node: `(job, from, to)`.
    pub migrated: Vec<(JobId, NodeId, NodeId)>,
    /// Jobs whose reservation was revoked (no survivor could take them).
    pub revoked: Vec<JobId>,
}

impl FaultReport {
    /// Whether the fault affected no reservation at all.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.downgraded.is_empty() && self.migrated.is_empty() && self.revoked.is_empty()
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: FaultReport) {
        self.downgraded.extend(other.downgraded);
        self.migrated.extend(other.migrated);
        self.revoked.extend(other.revoked);
    }
}

/// A node's LAC as the in-process driver holds it: it shares the
/// controller's event log, so it reports each admission decision there.
#[derive(Debug)]
struct NodeLac(Lac);

impl LacBackend for NodeLac {
    fn now(&self) -> Cycles {
        self.0.now()
    }

    fn advance(&mut self, now: Cycles) {
        self.0.advance(now);
    }

    fn admit(&mut self, req: &AdmissionRequest) -> Decision {
        self.0.admit(req)
    }

    fn admit_recorded(&mut self, req: &AdmissionRequest, recorder: &mut dyn Recorder) -> Decision {
        self.0.admit_with(req, recorder)
    }

    fn readmit(&mut self, r: &Reservation) -> Decision {
        self.0.readmit(r)
    }

    fn cancel(&mut self, id: JobId) {
        self.0.cancel(id);
    }

    fn reservations(&self) -> Vec<Reservation> {
        self.0.reservations()
    }
}

/// The in-process network: every frame arrives the instant it is sent
/// and none is lost, unless a fault cut its link or owes it a drop.
fn network() -> SimNet<Wire> {
    SimNet::new(0, LinkConfig::default().base_latency(Cycles::ZERO)).without_logs()
}

/// The caller's recorder as the driver sees it: every event is forwarded
/// except `Completed` (the driver reports completions through
/// [`GlobalAdmissionController::advance`], and its caller decides what a
/// completion means), and the events the driver acts on are kept.
struct Tap<'a> {
    inner: &'a mut dyn Recorder,
    report: FaultReport,
    completed: Vec<JobId>,
    /// Nodes the core declared dead, whose evacuated reservations the
    /// driver cancels.
    died: Vec<NodeId>,
}

impl<'a> Tap<'a> {
    fn new(inner: &'a mut dyn Recorder) -> Self {
        Self {
            inner,
            report: FaultReport::default(),
            completed: Vec::new(),
            died: Vec::new(),
        }
    }
}

impl Recorder for Tap<'_> {
    fn record(&mut self, at: Cycles, event: Event) {
        match event {
            Event::Migrated { job, from, to } => self.report.migrated.push((job, from, to)),
            Event::ReservationRevoked { job, .. } => self.report.revoked.push(job),
            Event::NodeHealthChanged {
                node,
                to: cmpqos_obs::Health::Dead,
                ..
            } => self.died.push(node),
            Event::Completed { job, .. } => {
                self.completed.push(job);
                return;
            }
            _ => {}
        }
        self.inner.record(at, event);
    }
}

/// One node of a [`GacState`]: its LAC, where its endpoint's protocol
/// stream stands, and its link.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeSnapshot {
    /// The node's LAC state.
    pub lac: LacState,
    /// The endpoint's epoch.
    pub epoch: u64,
    /// The sequence number the endpoint expects next.
    pub next_seq: u64,
    /// Whether the GAC ↔ node link is severed.
    pub cut: bool,
    /// GAC→node frames the link still owes a drop (nothing in-process
    /// drops a frame toward the GAC).
    pub drops_to_node: u32,
}

/// A complete, serializable snapshot of a [`GlobalAdmissionController`]:
/// the core state machine, every node's LAC and link, and the driver's
/// own clock and counters.
///
/// Produced by [`GlobalAdmissionController::snapshot`] and consumed by
/// [`GlobalAdmissionController::restore`]; `cmpqos-recovery` embeds one
/// in each journal compaction record. Restoring yields a controller whose
/// every subsequent decision matches the original's.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GacState {
    /// The core: placements, leases, membership, health, queued and open
    /// conversations, timers.
    pub core: NetGac,
    /// Per-node LAC, endpoint and link state, in node order.
    pub nodes: Vec<NodeSnapshot>,
    /// The LAC configuration nodes were built with, so joined nodes get
    /// identical capacity.
    pub lac_config: LacConfig,
    /// Completions not yet reported by [`GlobalAdmissionController::advance`].
    pub retired: Vec<(JobId, NodeId)>,
    /// The driver's clock.
    pub now: Cycles,
    /// The core's clock, which retransmission timers may have run ahead
    /// of the driver's.
    pub cluster_now: Cycles,
}

/// The server-level admission controller over a set of per-node LACs,
/// driven in-process.
///
/// # Examples
///
/// ```
/// use cmpqos_core::gac::{GlobalAdmissionController, ProbePolicy};
/// use cmpqos_core::{AdmissionRequest, ExecutionMode, LacConfig, ResourceRequest};
/// use cmpqos_obs::NullRecorder;
/// use cmpqos_types::{Cycles, JobId};
///
/// let mut gac = GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
/// let req = AdmissionRequest::builder(JobId::new(0), ResourceRequest::paper_job(), Cycles::new(100))
///     .mode(ExecutionMode::Strict)
///     .deadline(Cycles::new(1_000))
///     .build();
/// let (node, decision) = gac.submit_request(&req, &mut NullRecorder);
/// assert!(decision.is_accepted());
/// assert_eq!(node, Some(cmpqos_types::NodeId::new(0)));
/// ```
#[derive(Debug)]
pub struct GlobalAdmissionController {
    cluster: Cluster<NodeLac>,
    lac_config: LacConfig,
    /// `(job, node)` of every live placement, sorted by job: the core's
    /// placement table as of the end of the last call.
    placed: Vec<(JobId, NodeId)>,
    retired: Vec<(JobId, NodeId)>,
    now: Cycles,
}

impl PartialEq for GlobalAdmissionController {
    fn eq(&self, other: &Self) -> bool {
        self.snapshot() == other.snapshot()
    }
}

impl GlobalAdmissionController {
    /// Creates a GAC over `nodes` identical CMP nodes, with the default
    /// [`NetGacConfig`]: no heartbeats and no leases. With no nodes every
    /// job is rejected.
    #[must_use]
    pub fn new(nodes: usize, lac_config: LacConfig, policy: ProbePolicy) -> Self {
        let endpoints = (0..nodes)
            .map(|_| LacEndpoint::new(NodeLac(Lac::new(lac_config))))
            .collect();
        let core = NetGac::new(nodes, NetGacConfig::default(), policy);
        Self {
            cluster: Cluster::from_parts(core, endpoints, network(), Cycles::ZERO),
            lac_config,
            placed: Vec::new(),
            retired: Vec::new(),
            now: Cycles::ZERO,
        }
    }

    /// Captures the controller's complete state for journaling.
    #[must_use]
    pub fn snapshot(&self) -> GacState {
        let net = self.cluster.net();
        let nodes = (0..self.nodes())
            .map(|i| {
                let node = NodeId::new(i as u32);
                let endpoint = self.cluster.endpoint(node);
                NodeSnapshot {
                    lac: endpoint.backend.0.snapshot(),
                    epoch: endpoint.epoch,
                    next_seq: endpoint.next_seq,
                    cut: net.is_partitioned(Addr::Gac, Addr::Node(node)),
                    drops_to_node: net.owed_drops(Addr::Gac, Addr::Node(node)),
                }
            })
            .collect();
        GacState {
            core: self.cluster.gac().clone(),
            nodes,
            lac_config: self.lac_config,
            retired: self.retired.clone(),
            now: self.now,
            cluster_now: self.cluster.now(),
        }
    }

    /// Rebuilds a controller from a [`GlobalAdmissionController::snapshot`].
    /// The result is indistinguishable from the controller the snapshot was
    /// taken of.
    #[must_use]
    pub fn restore(state: GacState) -> Self {
        let mut net = network();
        let mut endpoints = Vec::with_capacity(state.nodes.len());
        for (i, n) in state.nodes.into_iter().enumerate() {
            let node = Addr::Node(NodeId::new(i as u32));
            if n.cut {
                net.partition(Addr::Gac, node);
            }
            net.force_drops(Addr::Gac, node, n.drops_to_node);
            let mut endpoint = LacEndpoint::new(NodeLac(Lac::restore(n.lac)));
            endpoint.epoch = n.epoch;
            endpoint.next_seq = n.next_seq;
            endpoints.push(endpoint);
        }
        let mut gac = Self {
            cluster: Cluster::from_parts(state.core, endpoints, net, state.cluster_now),
            lac_config: state.lac_config,
            placed: Vec::new(),
            retired: state.retired,
            now: state.now,
        };
        gac.refresh_placements();
        gac
    }

    /// Size of the membership table — every node ever admitted, in any
    /// state (the table is append-only, so this never shrinks).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.cluster.nodes()
    }

    /// Number of `Live` members that are not dead. Draining and departed
    /// nodes no longer take placements, so they do not count even while
    /// their link is healthy.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        (0..self.nodes())
            .map(|i| NodeId::new(i as u32))
            .filter(|&n| {
                self.member_state(n) == MemberState::Live && self.node_health(n) != NodeHealth::Dead
            })
            .count()
    }

    /// One node's membership lifecycle state.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn member_state(&self, node: NodeId) -> MemberState {
        self.cluster.gac().member_state(node)
    }

    /// Access to one node's LAC.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn lac(&self, node: NodeId) -> &Lac {
        &self.cluster.endpoint(node).backend().0
    }

    /// One node's health.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node_health(&self, node: NodeId) -> NodeHealth {
        self.cluster.gac().node_health(node)
    }

    /// Advances every node's clock and runs the core up to `now`: retries
    /// and pings whose timer fell due, and the retirement of every
    /// placement whose reservation window closed. Returns each job that
    /// completed since the previous call — whatever retired it — and the
    /// node it ran on, so the placement table cannot grow without bound,
    /// together with the [`FaultReport`] of what the core's timers did: a
    /// node the failure detector declares dead is evacuated here. Every
    /// consequence but the completions is emitted to `recorder`.
    pub fn advance(
        &mut self,
        now: Cycles,
        recorder: &mut dyn Recorder,
    ) -> (Vec<(JobId, NodeId)>, FaultReport) {
        self.now = self.now.max(now);
        for i in 0..self.nodes() {
            let node = NodeId::new(i as u32);
            if self.member_state(node) != MemberState::Left {
                self.cluster.endpoints[node.as_usize()]
                    .backend
                    .0
                    .advance(now);
            }
        }
        let mut tap = Tap::new(recorder);
        self.cluster.run_until(self.now, &mut tap);
        self.cluster.run_to_quiet(&mut tap);
        let report = self.absorb(tap);
        (std::mem::take(&mut self.retired), report)
    }

    /// A new node with the founding nodes' LAC configuration, its clock
    /// at the driver's.
    fn join(&mut self) -> NodeId {
        let mut lac = Lac::new(self.lac_config);
        lac.advance(self.now);
        self.cluster.join_node(NodeLac(lac), self.now)
    }

    /// Releases job `id`'s reservation from `at` on (early completion) and
    /// drops its placement.
    pub fn complete(&mut self, id: JobId, at: Cycles) {
        if let Some(node) = self.cluster.gac_mut().release(id) {
            self.cluster.endpoints[node.as_usize()]
                .backend
                .0
                .release(id, at);
            self.cluster.gac_mut().clear_finished();
            self.refresh_placements();
        }
    }

    /// Submits a typed [`AdmissionRequest`] and returns the accepting node
    /// (if any) with the final decision: the last genuine LAC rejection
    /// when every probed LAC rejected, or
    /// [`RejectReason::NoHealthyNodes`](crate::lac::RejectReason::NoHealthyNodes)
    /// when no healthy member answered.
    /// Only `Live`, healthy members are probed, in the policy's order. The
    /// full history — `Submitted`, each LAC's `Admitted`/`Rejected`,
    /// `ProbeLost`, health transitions, and the final `Placed` or
    /// `Rejected` — goes to `recorder`.
    #[must_use = "dropping the decision loses whether (and where) the job was placed"]
    pub fn submit_request(
        &mut self,
        req: &AdmissionRequest,
        recorder: &mut dyn Recorder,
    ) -> (Option<NodeId>, Decision) {
        let mut tap = Tap::new(recorder);
        self.cluster.gac_mut().submit(*req, self.now, &mut tap);
        self.cluster.run_to_quiet(&mut tap);
        let decision = *self
            .cluster
            .gac()
            .decisions()
            .get(&req.id)
            .expect("a quiet core has decided every placement task");
        if let (Some(node), Decision::Accepted { start }) = decision {
            // A job that reserves nothing (Opportunistic) left no placement
            // in the core: it retires at once.
            if req.reservation_at(start).is_none() {
                self.retired.push((req.id, node));
            }
        }
        self.absorb(tap);
        decision
    }

    /// Applies one fault injection, emitting every consequence to
    /// `recorder` and returning the [`FaultReport`] of affected jobs.
    ///
    /// * Way/core faults shrink the node's capacity and re-validate its
    ///   reservations ([`Lac::revoke_capacity`]); evicted jobs are
    ///   re-placed on surviving nodes when possible.
    /// * Node faults mark the node [`NodeHealth::Dead`] and evacuate every
    ///   placement the same way.
    /// * Probe losses and message drops make the in-process link drop its
    ///   next frames toward the node; partitions cut it until healed.
    /// * `NodeJoin` admits a new node with the founding nodes' LAC
    ///   configuration; its handshake completes before this returns, so it
    ///   is `Live`. `NodeDrain` stops placements on a `Live` node, migrates
    ///   (or revokes with a reason) everything it holds, then makes it
    ///   `Left`. `NodeRestart` resets the node's endpoint and reconciles
    ///   its recovered table against the placements before it re-enters
    ///   `Live`: orphans are cancelled, lost placements re-placed.
    ///   `LeaseFreeze` is recorded, but this driver grants no leases, so
    ///   it has nothing to freeze.
    ///
    /// Injections naming a node outside the server are ignored — except
    /// `NodeJoin`, which is valid *only* for the next unused index.
    pub fn inject(&mut self, injection: Injection, recorder: &mut dyn Recorder) -> FaultReport {
        let at = injection.at;
        let node = injection.fault.node();
        // Membership is append-only: a join is valid only when it names the
        // next unused index, so journal replay reconstructs the identical
        // table. Every other fault must name an existing node.
        let valid = if matches!(injection.fault, Fault::NodeJoin { .. }) {
            node.as_usize() == self.nodes()
        } else {
            node.as_usize() < self.nodes()
        };
        if !valid {
            return FaultReport::default();
        }
        self.now = self.now.max(at);
        let mut tap = Tap::new(recorder);
        self.cluster.run_until(self.now, &mut tap);
        let injected = Event::FaultInjected {
            node,
            fault: injection.fault.obs_kind(),
        };
        match injection.fault {
            Fault::WayFault { .. } => {
                tap.record(at, injected);
                let lost = ResourceRequest::new(0, Ways::new(1));
                self.shrink(node, lost, at, &mut tap);
            }
            Fault::CoreFault { .. } => {
                tap.record(at, injected);
                let lost = ResourceRequest::new(1, Ways::ZERO);
                self.shrink(node, lost, at, &mut tap);
            }
            Fault::NodeJoin { .. } => {
                tap.record(at, injected);
                let _ = self.join();
            }
            // The crash destroys the controller process, not the nodes'
            // reservations. The controller cannot "lose its own memory"
            // from inside a method call, so the harness interprets this
            // fault — it drops the controller and rebuilds it from the
            // write-ahead journal (`cmpqos-recovery`).
            Fault::ControllerCrash { .. } => tap.record(at, injected),
            _ => self.cluster.apply(injection, &mut tap),
        }
        self.cluster.run_to_quiet(&mut tap);
        self.absorb(tap)
    }

    /// Where each admitted-and-not-yet-completed job is placed, sorted by
    /// job.
    #[must_use]
    pub fn placements(&self) -> &[(JobId, NodeId)] {
        &self.placed
    }

    /// Shrinks `node`'s capacity by `lost` and handles every revocation in
    /// FCFS order: keeps are silent, downgrades are reported, evictions
    /// are handed to the core to re-place elsewhere (or revoke with a
    /// reason when no survivor fits them). A reservation the core does
    /// not place on `node` is an orphan the node still holds (a job
    /// [`GlobalAdmissionController::complete`]d as of a later cycle, or
    /// one awaiting reconciliation) and is none of the core's business:
    /// an evicted orphan is simply gone.
    fn shrink(&mut self, node: NodeId, lost: ResourceRequest, at: Cycles, tap: &mut Tap<'_>) {
        let lac = &mut self.cluster.endpoints[node.as_usize()].backend.0;
        let capacity = lac.capacity().minus(&lost);
        for rev in lac.revoke_capacity(capacity, at) {
            let placed = self.cluster.gac().placements().get(&rev.id);
            if placed.is_none_or(|&(on, _)| on != node) {
                continue;
            }
            match rev.action {
                RevocationAction::Kept => {}
                RevocationAction::Downgraded { ways_cut } => {
                    tap.report.downgraded.push((rev.id, ways_cut));
                    self.cluster.gac_mut().downgrade(rev.id, ways_cut);
                    let stamp = self.lac(node).now().max(self.now);
                    tap.record(
                        stamp,
                        Event::DowngradedUnderFault {
                            job: rev.id,
                            node,
                            ways_cut,
                        },
                    );
                }
                RevocationAction::Evicted { reservation, .. } => {
                    self.cluster.gac_mut().readmit(reservation, node);
                    self.cluster.run_to_quiet(tap);
                }
            }
        }
    }

    /// Folds one call's tap into the driver: a node declared dead loses
    /// every reservation (the core evacuated its placements, so each is
    /// held elsewhere now or was revoked), completions wait for the next
    /// [`GlobalAdmissionController::advance`], the placement view is
    /// refreshed, and the core forgets outcomes already reported.
    fn absorb(&mut self, tap: Tap<'_>) -> FaultReport {
        for node in tap.died {
            let lac = &mut self.cluster.endpoints[node.as_usize()].backend.0;
            for r in lac.reservations() {
                lac.cancel(r.id);
            }
        }
        for job in tap.completed {
            if let Ok(i) = self.placed.binary_search_by_key(&job, |&(j, _)| j) {
                self.retired.push(self.placed[i]);
            }
        }
        self.refresh_placements();
        self.cluster.gac_mut().clear_finished();
        tap.report
    }

    fn refresh_placements(&mut self) {
        self.placed.clear();
        self.placed.extend(
            self.cluster
                .gac()
                .placements()
                .iter()
                .map(|(&job, &(node, _))| (job, node)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lac::RejectReason;
    use crate::modes::ExecutionMode;
    use cmpqos_faults::FaultPlan;
    use cmpqos_obs::{NullRecorder, RingBufferRecorder};
    use cmpqos_types::{CoreId, Percent};

    fn request(id: u32, tw: u64, deadline: Option<u64>) -> AdmissionRequest {
        let mut b = AdmissionRequest::builder(
            JobId::new(id),
            ResourceRequest::paper_job(),
            Cycles::new(tw),
        )
        .mode(ExecutionMode::Strict);
        if let Some(td) = deadline {
            b = b.deadline(Cycles::new(td));
        }
        b.build()
    }

    fn submit_strict(gac: &mut GlobalAdmissionController, id: u32) -> (Option<NodeId>, Decision) {
        gac.submit_request(&request(id, 100, Some(105)), &mut NullRecorder)
    }

    fn one(plan: FaultPlan) -> Injection {
        plan.build().injections()[0]
    }

    fn placement(gac: &GlobalAdmissionController, job: u32) -> Option<NodeId> {
        let job = JobId::new(job);
        gac.placements()
            .iter()
            .find(|&&(j, _)| j == job)
            .map(|&(_, node)| node)
    }

    fn churn(
        gac: &mut GlobalAdmissionController,
        fault: Fault,
        at: u64,
        rec: &mut dyn Recorder,
    ) -> FaultReport {
        gac.inject(
            Injection {
                at: Cycles::new(at),
                fault,
            },
            rec,
        )
    }

    #[test]
    fn overflow_spills_to_next_node() {
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        // Two jobs fill node 0 (7+7 of 16 ways, tight deadlines), the third
        // must go to node 1.
        assert_eq!(submit_strict(&mut gac, 0).0, Some(NodeId::new(0)));
        assert_eq!(submit_strict(&mut gac, 1).0, Some(NodeId::new(0)));
        assert_eq!(submit_strict(&mut gac, 2).0, Some(NodeId::new(1)));
    }

    #[test]
    fn rejects_when_all_nodes_full() {
        let mut gac =
            GlobalAdmissionController::new(1, LacConfig::default(), ProbePolicy::FirstFit);
        let _ = submit_strict(&mut gac, 0);
        let _ = submit_strict(&mut gac, 1);
        let (node, d) = submit_strict(&mut gac, 2);
        assert_eq!(node, None);
        // The genuine LAC rejection, not a fabricated default.
        assert_eq!(
            d,
            Decision::Rejected(RejectReason::NoCapacityBeforeDeadline)
        );
    }

    #[test]
    fn least_loaded_spreads_jobs() {
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::LeastLoaded);
        assert_eq!(submit_strict(&mut gac, 0).0, Some(NodeId::new(0)));
        assert_eq!(submit_strict(&mut gac, 1).0, Some(NodeId::new(1)));
        assert_eq!(gac.placements().len(), 2);
    }

    #[test]
    fn advance_propagates_to_all_lacs() {
        let mut gac =
            GlobalAdmissionController::new(3, LacConfig::default(), ProbePolicy::FirstFit);
        let _ = gac.advance(Cycles::new(42), &mut NullRecorder);
        for i in 0..3 {
            assert_eq!(gac.lac(NodeId::new(i)).now(), Cycles::new(42));
        }
    }

    #[test]
    fn completed_jobs_leave_the_placement_table() {
        let mut gac =
            GlobalAdmissionController::new(1, LacConfig::default(), ProbePolicy::FirstFit);
        let _ = submit_strict(&mut gac, 0);
        assert_eq!(gac.placements().len(), 1);
        let (done, _) = gac.advance(Cycles::new(200), &mut NullRecorder);
        assert_eq!(done, vec![(JobId::new(0), NodeId::new(0))]);
        assert!(gac.placements().is_empty());
    }

    #[test]
    fn lost_probes_are_retried_on_the_core_timer_then_place() {
        let mut gac =
            GlobalAdmissionController::new(1, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        // Two probes vanish; the third is answered.
        let _ = gac.inject(
            one(FaultPlan::new().probe_loss(Cycles::ZERO, NodeId::new(0), 2)),
            &mut rec,
        );
        let (node, d) = gac.submit_request(&request(0, 100, None), &mut rec);
        assert!(d.is_accepted());
        assert_eq!(node, Some(NodeId::new(0)));
        let c = rec.counters();
        assert_eq!(c.probes_lost, 2);
        assert_eq!(c.placed, 1);
        // The second loss made the node Suspect; the answered retry made
        // it Healthy again.
        assert_eq!(c.node_health_changes, 2);
        assert_eq!(gac.node_health(NodeId::new(0)), NodeHealth::Healthy);
        // The LAC decided at the submission instant; the retries ran on
        // the core's timer (`RTO` 100, then 200), not the node's clock.
        assert_eq!(
            d,
            Decision::Accepted {
                start: Cycles::ZERO
            }
        );
        assert_eq!(gac.lac(NodeId::new(0)).now(), Cycles::ZERO);
        assert_eq!(gac.snapshot().cluster_now, Cycles::new(300));
    }

    #[test]
    fn sustained_losses_demote_to_suspect_not_dead_within_timeout() {
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        let _ = gac.inject(
            one(FaultPlan::new().probe_loss(Cycles::ZERO, NodeId::new(0), 10)),
            &mut rec,
        );
        // `SUSPECT_AFTER` is 2 losses; the 4 losses of one
        // conversation satisfy `DEAD_AFTER`, but only 1,500 cycles of
        // retransmission have elapsed — far short of the 30k dead_timeout.
        // The node must stay Suspect (losses prove the link is down, not
        // the node), and the job spills to the healthy node.
        let (node, d) = gac.submit_request(&request(0, 100, None), &mut rec);
        assert!(d.is_accepted(), "spills to the healthy node");
        assert_eq!(node, Some(NodeId::new(1)));
        assert_eq!(gac.node_health(NodeId::new(0)), NodeHealth::Suspect);
        assert_eq!(gac.live_nodes(), 2, "a suspect node is still a live member");
        assert_eq!(rec.counters().node_health_changes, 1);
        // A suspect node takes no new placements: the next job goes
        // straight to node 1 without probing node 0.
        let lost = rec.counters().probes_lost;
        let (node, _) = gac.submit_request(&request(1, 100, None), &mut rec);
        assert_eq!(node, Some(NodeId::new(1)));
        assert_eq!(rec.counters().probes_lost, lost);
    }

    /// A job on `nodes` nodes placed on node 0, whose link is then cut;
    /// a second job's lost probes make node 0 suspect. Returns the second
    /// job's outcome too.
    fn partitioned_with_a_job(
        nodes: usize,
        rec: &mut RingBufferRecorder,
    ) -> (GlobalAdmissionController, (Option<NodeId>, Decision)) {
        let mut gac =
            GlobalAdmissionController::new(nodes, LacConfig::default(), ProbePolicy::FirstFit);
        let (node, _) = gac.submit_request(&request(0, 100_000, None), rec);
        assert_eq!(node, Some(NodeId::new(0)));
        let _ = gac.inject(
            one(FaultPlan::new().link_partition(Cycles::ZERO, NodeId::new(0))),
            rec,
        );
        let second = gac.submit_request(&request(1, 100, None), rec);
        assert_eq!(gac.node_health(NodeId::new(0)), NodeHealth::Suspect);
        (gac, second)
    }

    #[test]
    fn a_partition_outlasting_the_timeout_is_declared_dead() {
        let mut rec = RingBufferRecorder::new(256);
        let (mut gac, (_, d)) = partitioned_with_a_job(1, &mut rec);
        assert_eq!(d, Decision::Rejected(RejectReason::NoHealthyNodes));
        // The core keeps pinging the suspect node; past the 30k
        // dead_timeout of silence the next lost ping declares it dead.
        // With no survivor, job 0 is revoked with a reason, and advance
        // reports it.
        let (_, report) = gac.advance(Cycles::new(40_000), &mut rec);
        assert_eq!(gac.node_health(NodeId::new(0)), NodeHealth::Dead);
        assert_eq!(gac.live_nodes(), 0);
        assert_eq!(report.revoked, vec![JobId::new(0)]);
        assert_eq!(rec.counters().reservations_revoked, 1);
        assert!(gac.placements().is_empty());
        let (_, d) = gac.submit_request(&request(2, 100, None), &mut rec);
        assert_eq!(d, Decision::Rejected(RejectReason::NoHealthyNodes));
    }

    #[test]
    fn a_death_found_while_advancing_is_recorded_and_reported() {
        let mut rec = RingBufferRecorder::new(256);
        let (mut gac, (node, _)) = partitioned_with_a_job(2, &mut rec);
        assert_eq!(node, Some(NodeId::new(1)), "job 1 spills to node 1");
        let (done, report) = gac.advance(Cycles::new(40_000), &mut rec);
        assert_eq!(done, vec![(JobId::new(1), NodeId::new(1))]);
        assert_eq!(gac.node_health(NodeId::new(0)), NodeHealth::Dead);
        assert_eq!(
            report.migrated,
            vec![(JobId::new(0), NodeId::new(0), NodeId::new(1))]
        );
        assert_eq!(rec.counters().migrated, 1);
        assert_eq!(placement(&gac, 0), Some(NodeId::new(1)));
        // The dead node no longer holds what moved off it.
        assert!(gac.lac(NodeId::new(0)).reservations().is_empty());
        assert_eq!(gac.lac(NodeId::new(1)).reservation_count(), 1);
    }

    #[test]
    fn partition_is_not_death_and_heal_restores() {
        // A partitioned node is unreachable, not dead. Evacuating its
        // reservations would double-book them — the LAC on the far side of
        // the partition is still honoring them.
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(256);
        let (node, d) = gac.submit_request(&request(0, 100_000, None), &mut rec);
        assert!(d.is_accepted());
        assert_eq!(node, Some(NodeId::new(0)));
        let _ = gac.inject(
            one(FaultPlan::new().link_partition(Cycles::ZERO, NodeId::new(0))),
            &mut rec,
        );
        // Every frame to node 0 is now lost; jobs spill to node 1, and
        // node 0 is suspected, not declared dead, within the timeout.
        for i in 1..4u32 {
            let (node, _) = gac.submit_request(&request(i, 100, None), &mut rec);
            assert_eq!(node, Some(NodeId::new(1)));
        }
        let _ = gac.advance(Cycles::new(10_000), &mut NullRecorder);
        assert_eq!(gac.node_health(NodeId::new(0)), NodeHealth::Suspect);
        assert_eq!(
            placement(&gac, 0),
            Some(NodeId::new(0)),
            "the partitioned node keeps its placement"
        );
        let c = rec.counters();
        assert_eq!(c.migrated, 0, "no evacuation of a merely-partitioned node");
        assert_eq!(c.reservations_revoked, 0);
        assert_eq!(c.links_partitioned, 1);
        // Heal the link: the core's next ping is answered, health recovers,
        // the node is reconciled, and it takes jobs again.
        let _ = gac.inject(
            one(FaultPlan::new().link_heal(Cycles::new(10_000), NodeId::new(0))),
            &mut rec,
        );
        let _ = gac.advance(Cycles::new(12_000), &mut NullRecorder);
        assert_eq!(gac.node_health(NodeId::new(0)), NodeHealth::Healthy);
        assert_eq!(placement(&gac, 0), Some(NodeId::new(0)));
        let (node, d) = gac.submit_request(&request(4, 100, None), &mut rec);
        assert!(d.is_accepted(), "healed node takes jobs: {d:?}");
        assert_eq!(node, Some(NodeId::new(0)), "healed node takes jobs");
        assert_eq!(rec.counters().links_healed, 1);
    }

    #[test]
    fn all_nodes_dead_rejects_with_no_healthy_nodes() {
        let mut gac =
            GlobalAdmissionController::new(1, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(16);
        let _ = gac.inject(
            one(FaultPlan::new().node_fault(Cycles::ZERO, NodeId::new(0))),
            &mut rec,
        );
        let (node, d) = submit_strict(&mut gac, 0);
        assert_eq!(node, None);
        assert_eq!(d, Decision::Rejected(RejectReason::NoHealthyNodes));
    }

    #[test]
    fn node_fault_migrates_reservations_to_survivors() {
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        let (node, _) = submit_strict(&mut gac, 0);
        assert_eq!(node, Some(NodeId::new(0)));
        let report = gac.inject(
            one(FaultPlan::new().node_fault(Cycles::ZERO, NodeId::new(0))),
            &mut rec,
        );
        assert_eq!(
            report.migrated,
            vec![(JobId::new(0), NodeId::new(0), NodeId::new(1))]
        );
        assert!(report.revoked.is_empty());
        assert_eq!(placement(&gac, 0), Some(NodeId::new(1)));
        assert!(gac.lac(NodeId::new(0)).reservations().is_empty());
        assert_eq!(gac.lac(NodeId::new(1)).reservations().len(), 1);
        // Migration honors the original deadline.
        assert_eq!(
            gac.lac(NodeId::new(1)).reservations()[0].deadline,
            Some(Cycles::new(105))
        );
    }

    #[test]
    fn capacity_faults_on_a_dead_node_move_nothing() {
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        let _ = submit_strict(&mut gac, 0);
        let _ = gac.inject(
            one(FaultPlan::new().node_fault(Cycles::ZERO, NodeId::new(0))),
            &mut rec,
        );
        let moved = rec.counters().migrated;
        for _ in 0..4 {
            let way = gac.inject(
                one(FaultPlan::new().way_fault(Cycles::ZERO, NodeId::new(0), 3)),
                &mut rec,
            );
            let core = gac.inject(
                one(FaultPlan::new().core_fault(Cycles::ZERO, NodeId::new(0), CoreId::new(1))),
                &mut rec,
            );
            assert!(way.is_quiet() && core.is_quiet());
        }
        assert_eq!(placement(&gac, 0), Some(NodeId::new(1)));
        let held = gac.lac(NodeId::new(1)).reservations();
        assert_eq!(held.iter().filter(|r| r.id == JobId::new(0)).count(), 1);
        let c = rec.counters();
        assert_eq!(c.migrated, moved);
        assert_eq!(c.reservations_revoked, 0);
    }

    #[test]
    fn a_capacity_fault_leaves_an_orphan_to_reconciliation() {
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        // One Strict job takes all 16 ways of node 0.
        let req = AdmissionRequest::builder(
            JobId::new(0),
            ResourceRequest::new(1, Ways::new(16)),
            Cycles::new(100_000),
        )
        .mode(ExecutionMode::Strict)
        .build();
        assert_eq!(gac.submit_request(&req, &mut rec).0, Some(NodeId::new(0)));
        // Completed as of a later cycle, the job leaves the core's
        // placements at once, but node 0 holds its reservation until then:
        // an orphan the core does not place.
        gac.complete(JobId::new(0), Cycles::new(50_000));
        assert!(gac.placements().is_empty());
        assert_eq!(gac.lac(NodeId::new(0)).reservation_count(), 1);
        // A dead way evicts the orphan; nothing is re-placed.
        let report = gac.inject(
            one(FaultPlan::new().way_fault(Cycles::new(1_000), NodeId::new(0), 3)),
            &mut rec,
        );
        assert!(report.is_quiet());
        assert_eq!(rec.counters().migrated, 0);
        assert!(gac.placements().is_empty());
        assert_eq!(gac.lac(NodeId::new(1)).reservation_count(), 0);
        assert_eq!(gac.lac(NodeId::new(0)).reservation_count(), 0);
    }

    #[test]
    fn an_elastic_placement_keeps_its_whole_window_through_migration() {
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        let req = AdmissionRequest::builder(
            JobId::new(0),
            ResourceRequest::paper_job(),
            Cycles::new(1_000),
        )
        .mode(ExecutionMode::Elastic(Percent::new(50.0)))
        .build();
        assert_eq!(gac.submit_request(&req, &mut rec).0, Some(NodeId::new(0)));
        // Elastic(50%) reserves 1.5 · tw: past tw the job still runs.
        let (done, _) = gac.advance(Cycles::new(1_200), &mut rec);
        assert!(done.is_empty());
        assert_eq!(placement(&gac, 0), Some(NodeId::new(0)));
        // A death inside the slack moves the whole window.
        let report = gac.inject(
            one(FaultPlan::new().node_fault(Cycles::new(1_200), NodeId::new(0))),
            &mut rec,
        );
        assert_eq!(
            report.migrated,
            vec![(JobId::new(0), NodeId::new(0), NodeId::new(1))]
        );
        let moved = gac.lac(NodeId::new(1)).reservation(JobId::new(0));
        assert_eq!(
            moved.map(|r| (r.start, r.end)),
            Some((Cycles::new(1_200), Cycles::new(2_700)))
        );
        let (done, _) = gac.advance(Cycles::new(2_699), &mut rec);
        assert!(done.is_empty());
        let (done, _) = gac.advance(Cycles::new(2_700), &mut rec);
        assert_eq!(done, vec![(JobId::new(0), NodeId::new(1))]);
    }

    #[test]
    fn an_opportunistic_job_holds_no_placement() {
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        let req = AdmissionRequest::builder(
            JobId::new(0),
            ResourceRequest::paper_job(),
            Cycles::new(1_000),
        )
        .mode(ExecutionMode::Opportunistic)
        .build();
        let (node, d) = gac.submit_request(&req, &mut rec);
        assert_eq!(node, Some(NodeId::new(0)));
        assert!(d.is_accepted());
        // Nothing is reserved, so there is nothing to track or move.
        assert!(gac.placements().is_empty());
        let report = gac.inject(
            one(FaultPlan::new().node_fault(Cycles::ZERO, NodeId::new(0))),
            &mut rec,
        );
        assert!(report.is_quiet());
        let (done, _) = gac.advance(Cycles::new(1), &mut rec);
        assert_eq!(done, vec![(JobId::new(0), NodeId::new(0))]);
    }

    #[test]
    fn way_fault_downgrades_elastic_and_evicts_what_cannot_fit() {
        let mut gac =
            GlobalAdmissionController::new(1, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        // Two Elastic(50%) jobs of 8 ways each fill all 16 ways.
        for i in 0..2u32 {
            let req = AdmissionRequest::builder(
                JobId::new(i),
                ResourceRequest::new(1, Ways::new(8)),
                Cycles::new(100),
            )
            .mode(ExecutionMode::Elastic(Percent::new(50.0)))
            .build();
            let (_, d) = gac.submit_request(&req, &mut rec);
            assert!(d.is_accepted());
        }
        let report = gac.inject(
            one(FaultPlan::new().way_fault(Cycles::ZERO, NodeId::new(0), 3)),
            &mut rec,
        );
        // FCFS: job 0 keeps its 8 ways; job 1 absorbs the loss by giving
        // up one way (within its floor(8 · 0.5) = 4-way slack).
        assert_eq!(report.downgraded, vec![(JobId::new(1), Ways::new(1))]);
        assert!(report.revoked.is_empty());
        assert_eq!(rec.counters().downgraded_under_fault, 1);
        let total: u16 = gac
            .lac(NodeId::new(0))
            .reservations()
            .iter()
            .map(|r| r.request.cache_ways().get())
            .sum();
        assert_eq!(total, 15, "8 kept + 7 downgraded fits 15 ways");
    }

    #[test]
    fn an_evicted_reservation_is_readmitted_elsewhere() {
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        // Two Strict jobs of 8 ways each fill node 0's 16 ways.
        for i in 0..2u32 {
            let req = AdmissionRequest::builder(
                JobId::new(i),
                ResourceRequest::new(1, Ways::new(8)),
                Cycles::new(100),
            )
            .mode(ExecutionMode::Strict)
            .build();
            assert_eq!(gac.submit_request(&req, &mut rec).0, Some(NodeId::new(0)));
        }
        // A dead way leaves room for one; Strict cannot give up ways, so
        // the later job is evicted and re-placed on node 1.
        let report = gac.inject(
            one(FaultPlan::new().way_fault(Cycles::ZERO, NodeId::new(0), 3)),
            &mut rec,
        );
        assert_eq!(
            report.migrated,
            vec![(JobId::new(1), NodeId::new(0), NodeId::new(1))]
        );
        assert_eq!(placement(&gac, 1), Some(NodeId::new(1)));
        assert_eq!(gac.lac(NodeId::new(1)).reservations().len(), 1);
    }

    #[test]
    fn joined_node_takes_placements_and_draining_stops_them() {
        let mut gac =
            GlobalAdmissionController::new(1, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        assert_eq!(gac.nodes(), 1);
        let _ = churn(
            &mut gac,
            Fault::NodeJoin {
                node: NodeId::new(1),
            },
            0,
            &mut rec,
        );
        let joined = NodeId::new(1);
        assert_eq!(gac.nodes(), 2);
        assert_eq!(gac.live_nodes(), 2);
        assert_eq!(gac.member_state(joined), MemberState::Live);
        assert_eq!(rec.counters().nodes_joined, 1);
        // Two paper jobs land on node 0 (FirstFit); draining it migrates
        // both onto the joined node (2 x 7 = 14 <= 16 ways) and departs —
        // no admitted job is lost.
        let _ = submit_strict(&mut gac, 0);
        let _ = submit_strict(&mut gac, 1);
        let drain = Fault::NodeDrain {
            node: NodeId::new(0),
        };
        let report = churn(&mut gac, drain, 0, &mut rec);
        assert_eq!(report.migrated.len(), 2);
        assert!(report.revoked.is_empty());
        assert_eq!(gac.member_state(NodeId::new(0)), MemberState::Left);
        assert_eq!(gac.live_nodes(), 1);
        assert_eq!(rec.counters().nodes_drained, 1);
        for (job, node) in gac.placements() {
            assert_eq!(*node, joined, "{job:?} moved off the drained node");
        }
        // A departed node takes nothing, and a second drain is a no-op.
        assert!(churn(&mut gac, drain, 0, &mut rec).is_quiet());
        assert_eq!(rec.counters().nodes_drained, 1);
    }

    #[test]
    fn restart_reconciles_the_node_before_it_reenters_live() {
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        let _ = submit_strict(&mut gac, 0);
        assert_eq!(placement(&gac, 0), Some(NodeId::new(0)));
        // A clean restart: the recovered table matches the GAC's placement
        // view, so nothing is revoked and the job survives.
        let restart = Fault::NodeRestart {
            node: NodeId::new(0),
        };
        let report = churn(&mut gac, restart, 0, &mut rec);
        assert!(report.is_quiet());
        assert_eq!(gac.member_state(NodeId::new(0)), MemberState::Live);
        assert_eq!(placement(&gac, 0), Some(NodeId::new(0)));
        assert_eq!(rec.counters().reconciled, 1);
        assert_eq!(rec.counters().nodes_joined, 1);
        // Restarting a departed node is a no-op.
        let drain = Fault::NodeDrain {
            node: NodeId::new(0),
        };
        let _ = churn(&mut gac, drain, 0, &mut rec);
        assert!(churn(&mut gac, restart, 0, &mut rec).is_quiet());
        assert_eq!(gac.member_state(NodeId::new(0)), MemberState::Left);
    }

    #[test]
    fn snapshot_round_trips_membership_and_links() {
        let mut gac =
            GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(64);
        let _ = gac.submit_request(&request(0, 100_000, None), &mut rec);
        let joined = NodeId::new(2);
        let _ = churn(&mut gac, Fault::NodeJoin { node: joined }, 10, &mut rec);
        let drain = Fault::NodeDrain {
            node: NodeId::new(0),
        };
        let _ = churn(&mut gac, drain, 20, &mut rec);
        let _ = gac.inject(
            one(FaultPlan::new().probe_loss(Cycles::new(30), joined, 3)),
            &mut rec,
        );
        let _ = gac.inject(
            one(FaultPlan::new().link_partition(Cycles::new(40), NodeId::new(1))),
            &mut rec,
        );
        let restored = GlobalAdmissionController::restore(gac.snapshot());
        assert_eq!(restored, gac);
        assert_eq!(restored.member_state(NodeId::new(0)), MemberState::Left);
        assert_eq!(restored.member_state(joined), MemberState::Live);
        assert_eq!(restored.placements(), gac.placements());
        let snapshot = restored.snapshot();
        assert_eq!(snapshot.nodes[2].drops_to_node, 3);
        assert!(snapshot.nodes[1].cut);
    }

    #[test]
    fn injected_join_is_valid_only_for_the_next_index() {
        let mut gac =
            GlobalAdmissionController::new(1, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(16);
        // Joining index 5 on a 1-node table is ignored (append-only).
        let _ = gac.inject(
            one(FaultPlan::new().node_join(Cycles::ZERO, NodeId::new(5))),
            &mut rec,
        );
        assert_eq!(gac.nodes(), 1);
        // Joining the next index works.
        let _ = gac.inject(
            one(FaultPlan::new().node_join(Cycles::ZERO, NodeId::new(1))),
            &mut rec,
        );
        assert_eq!(gac.nodes(), 2);
        assert_eq!(gac.live_nodes(), 2);
    }

    #[test]
    fn stranded_strict_job_with_no_survivor_is_revoked_with_reason() {
        // One-node server: a node fault leaves nowhere to migrate.
        let mut gac =
            GlobalAdmissionController::new(1, LacConfig::default(), ProbePolicy::FirstFit);
        let mut rec = RingBufferRecorder::new(32);
        let _ = submit_strict(&mut gac, 0);
        let report = gac.inject(
            one(FaultPlan::new().node_fault(Cycles::ZERO, NodeId::new(0))),
            &mut rec,
        );
        assert_eq!(report.revoked, vec![JobId::new(0)]);
        assert!(gac.placements().is_empty(), "no stranded placement entry");
        assert_eq!(rec.counters().reservations_revoked, 1);
    }
}
