//! The Local Admission Controller (Section 5 of the paper).
//!
//! The LAC implements First-Come-First-Served admission over a list of
//! resource/timeslot reservations. A Strict or Elastic(X) job is accepted
//! iff its resource-request vector fits into the earliest timeslot that
//! completes before its deadline; an Opportunistic job is accepted iff
//! spare resources exist that are not taken by Strict/Elastic reservations.
//!
//! The LAC is the component that *requires* convertible (RUM) targets: its
//! admission test is literally `demand + usage ≤ capacity` over a time
//! window — impossible to phrase for an IPC target.
//!
//! Reservations are held in an occupancy-indexed table
//! (`crate::occupancy`): feasibility checks and earliest-feasible-start
//! queries run in O(log n + k) over the k reservation change points in the
//! probed window instead of re-scanning the whole table, while every
//! decision stays bit-identical to the brute-force scan (the testkit's
//! `OracleLac` is the referee). Requests arrive as typed
//! [`AdmissionRequest`] values; the old positional `admit_*` wrappers
//! served their one deprecation release and are gone.

use crate::modes::ExecutionMode;
use crate::occupancy::ReservationTable;
use crate::request::{AdmissionRequest, Feasibility, Placement};
use crate::target::ResourceRequest;
use cmpqos_types::{Cycles, JobId, Ways};
use std::fmt;

/// Why a job was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum RejectReason {
    /// No timeslot fits the request before the job's deadline.
    NoCapacityBeforeDeadline,
    /// (Opportunistic) all cores are taken by reserved jobs right now.
    NoSpareResources,
    /// The request exceeds the node's total capacity outright.
    ExceedsNodeCapacity,
    /// The reservation was revoked because the node lost capacity (a faulty
    /// way or core) and the shrunken supply no longer covers it.
    CapacityRevoked,
    /// Every node is dead: the global controller had no one left to probe.
    NoHealthyNodes,
    /// The overload-protection layer shed the request before it reached the
    /// FCFS admission test (intake queue full, per-source rate limit
    /// exceeded, or circuit breaker open).
    ShedOverload,
    /// The request's deadline slack can no longer fit any feasible timeslot
    /// (`td − now < duration`), so it was shed in O(1) without scanning the
    /// reservation table.
    ShedInfeasible,
}

impl From<RejectReason> for cmpqos_obs::RejectCause {
    fn from(reason: RejectReason) -> Self {
        match reason {
            RejectReason::NoCapacityBeforeDeadline => {
                cmpqos_obs::RejectCause::NoCapacityBeforeDeadline
            }
            RejectReason::NoSpareResources => cmpqos_obs::RejectCause::NoSpareResources,
            RejectReason::ExceedsNodeCapacity => cmpqos_obs::RejectCause::ExceedsNodeCapacity,
            RejectReason::CapacityRevoked => cmpqos_obs::RejectCause::CapacityRevoked,
            RejectReason::NoHealthyNodes => cmpqos_obs::RejectCause::NoHealthyNodes,
            RejectReason::ShedOverload => cmpqos_obs::RejectCause::ShedOverload,
            RejectReason::ShedInfeasible => cmpqos_obs::RejectCause::ShedInfeasible,
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::NoCapacityBeforeDeadline => {
                f.write_str("no feasible timeslot before the deadline")
            }
            RejectReason::NoSpareResources => {
                f.write_str("no spare resources for an opportunistic job")
            }
            RejectReason::ExceedsNodeCapacity => f.write_str("request exceeds total node capacity"),
            RejectReason::CapacityRevoked => {
                f.write_str("reservation revoked after the node lost capacity")
            }
            RejectReason::NoHealthyNodes => f.write_str("no healthy node left to probe"),
            RejectReason::ShedOverload => {
                f.write_str("shed by overload protection before admission")
            }
            RejectReason::ShedInfeasible => {
                f.write_str("shed: deadline slack fits no feasible timeslot")
            }
        }
    }
}

/// The LAC's answer to a submission.
///
/// Marked `#[must_use]`: dropping an admission decision silently loses a
/// job (an accepted reservation nobody starts, or a rejection nobody
/// reports), so ignoring one is a compile-time warning — and a CI failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[must_use = "an admission decision carries the job's fate; dropping it loses the job"]
pub enum Decision {
    /// Accepted; resources are reserved from `start` (Opportunistic jobs:
    /// `start` is the submission time, nothing is reserved).
    Accepted {
        /// When the job may begin executing with its reserved resources.
        start: Cycles,
    },
    /// Rejected; the GAC may probe another node or renegotiate the target.
    Rejected(RejectReason),
}

impl Decision {
    /// Whether the job was accepted.
    #[must_use]
    pub fn is_accepted(&self) -> bool {
        matches!(self, Decision::Accepted { .. })
    }

    /// The reserved start time, if accepted.
    #[must_use]
    pub fn start(&self) -> Option<Cycles> {
        match self {
            Decision::Accepted { start } => Some(*start),
            Decision::Rejected(_) => None,
        }
    }
}

/// One reservation in the LAC's timeline (active over `[start, end)`).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Reservation {
    /// The holding job.
    pub id: JobId,
    /// Reservation start.
    pub start: Cycles,
    /// Reservation end (exclusive).
    pub end: Cycles,
    /// Reserved resources.
    pub request: ResourceRequest,
    /// The mode the job was admitted under. Carried so capacity revocation
    /// knows how much slack an Elastic(X) job can absorb, and so a migrated
    /// reservation keeps its semantics on the new node.
    pub mode: ExecutionMode,
    /// The admission deadline, when one was given. Migrations re-admit
    /// against this original deadline, never a relaxed one.
    pub deadline: Option<Cycles>,
}

impl Reservation {
    /// The same reservation readmitted at `start`: it keeps its length,
    /// request, mode and deadline. With
    /// [`AdmissionRequest::reservation_at`], the one answer to what an
    /// acceptance reserves.
    #[must_use]
    pub(crate) fn moved_to(&self, start: Cycles) -> Reservation {
        Reservation {
            start,
            end: start + self.end.saturating_sub(self.start),
            ..*self
        }
    }
}

/// What [`Lac::revoke_capacity`] did to one reservation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RevocationAction {
    /// The reservation still fits the shrunken capacity, unchanged.
    Kept,
    /// An Elastic job gave up `ways_cut` ways; its slack absorbs the
    /// slowdown, so the (already extended) reservation window still holds.
    Downgraded {
        /// Ways removed from the reservation.
        ways_cut: Ways,
    },
    /// The reservation no longer fits and was evicted. The full reservation
    /// is carried so the caller (the GAC) can re-place it on another node —
    /// an evicted reservation is never silently lost.
    Evicted {
        /// The evicted reservation, as it was before the fault.
        reservation: Reservation,
        /// Why it was evicted (always [`RejectReason::CapacityRevoked`]).
        reason: RejectReason,
    },
}

/// The fate of one reservation after a capacity revocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Revocation {
    /// The affected job.
    pub id: JobId,
    /// What happened to its reservation.
    pub action: RevocationAction,
}

/// LAC configuration.
///
/// Construct with [`LacConfig::default`] and set the fields that differ;
/// the struct is `#[non_exhaustive]`, so fields may be added without
/// breaking downstream crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
pub struct LacConfig {
    /// Total node capacity (paper: 4 cores + 16 L2 ways).
    pub capacity: ResourceRequest,
}

impl Default for LacConfig {
    fn default() -> Self {
        Self {
            capacity: ResourceRequest::new(4, cmpqos_types::Ways::new(16)).with_bandwidth(100),
        }
    }
}

/// Modeled cost of one admission test: a base plus a per-scanned-reservation
/// term. The paper implements the LAC as a user-level program and reports
/// its occupancy at under 1% of wall-clock time (Section 7.5); these
/// constants model that software cost without perturbing the simulation.
/// The formula is unchanged by the occupancy index — it models the paper's
/// software LAC, not our implementation.
const ADMIT_BASE_COST: u64 = 2_000;
const ADMIT_PER_RESERVATION_COST: u64 = 200;

/// The per-node admission controller.
///
/// # Examples
///
/// ```
/// use cmpqos_core::{AdmissionRequest, Lac, LacConfig, ResourceRequest};
/// use cmpqos_types::{Cycles, JobId};
///
/// let mut lac = Lac::new(LacConfig::default());
/// let req = AdmissionRequest::builder(
///     JobId::new(0),
///     ResourceRequest::paper_job(),
///     Cycles::new(1_000),
/// )
/// .deadline(Cycles::new(2_000))
/// .build();
/// assert!(lac.admit(&req).is_accepted());
/// ```
#[derive(Debug, Clone)]
pub struct Lac {
    config: LacConfig,
    now: Cycles,
    table: ReservationTable,
    admission_tests: u64,
    accepted: u64,
    rejected: u64,
    modeled_cost: Cycles,
}

/// Two LACs are equal when every observable matches: configuration, clock,
/// counters, and the FCFS reservation list. The occupancy index's internal
/// layout (slot numbering, free-list order) is deliberately excluded — a
/// recovered controller rebuilds a compact arena yet must compare equal to
/// the fragmented original it journals for.
impl PartialEq for Lac {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.now == other.now
            && self.admission_tests == other.admission_tests
            && self.accepted == other.accepted
            && self.rejected == other.rejected
            && self.modeled_cost == other.modeled_cost
            && self.table.iter_fcfs().eq(other.table.iter_fcfs())
    }
}

/// A complete, serializable snapshot of a [`Lac`]'s state.
///
/// Produced by [`Lac::snapshot`] and consumed by [`Lac::restore`];
/// `cmpqos-recovery` embeds one in each journal compaction record so a
/// crashed controller can be rebuilt as snapshot + op replay. The field
/// set is exhaustive: restoring a snapshot yields a controller whose
/// every subsequent decision matches the original's — the occupancy index
/// is rebuilt deterministically from the FCFS reservation list.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LacState {
    /// The configuration (including post-fault shrunken capacity).
    pub config: LacConfig,
    /// The controller's clock.
    pub now: Cycles,
    /// Live reservations, in FCFS order.
    pub reservations: Vec<Reservation>,
    /// Admission tests performed.
    pub admission_tests: u64,
    /// Jobs accepted.
    pub accepted: u64,
    /// Jobs rejected.
    pub rejected: u64,
    /// Modeled CPU cost so far.
    pub modeled_cost: Cycles,
}

impl Lac {
    /// Creates an empty controller.
    #[must_use]
    pub fn new(config: LacConfig) -> Self {
        Self {
            config,
            now: Cycles::ZERO,
            table: ReservationTable::default(),
            admission_tests: 0,
            accepted: 0,
            rejected: 0,
            modeled_cost: Cycles::ZERO,
        }
    }

    /// Total node capacity.
    #[must_use]
    pub fn capacity(&self) -> ResourceRequest {
        self.config.capacity
    }

    /// Captures the controller's complete state for journaling.
    #[must_use]
    pub fn snapshot(&self) -> LacState {
        LacState {
            config: self.config,
            now: self.now,
            reservations: self.table.to_vec(),
            admission_tests: self.admission_tests,
            accepted: self.accepted,
            rejected: self.rejected,
            modeled_cost: self.modeled_cost,
        }
    }

    /// Rebuilds a controller from a [`Lac::snapshot`]. The result is
    /// indistinguishable from the controller the snapshot was taken of:
    /// the occupancy index is rebuilt by re-inserting the FCFS list, which
    /// is deterministic.
    #[must_use]
    pub fn restore(state: LacState) -> Self {
        let mut table = ReservationTable::default();
        for r in state.reservations {
            table.insert(r);
        }
        Self {
            config: state.config,
            now: state.now,
            table,
            admission_tests: state.admission_tests,
            accepted: state.accepted,
            rejected: state.rejected,
            modeled_cost: state.modeled_cost,
        }
    }

    /// Advances the controller's clock and purges expired reservations.
    pub fn advance(&mut self, now: Cycles) {
        self.now = self.now.max(now);
        self.table.purge_through(self.now);
    }

    /// Current time.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Live (non-expired) reservations, materialized in FCFS order.
    #[must_use]
    pub fn reservations(&self) -> Vec<Reservation> {
        self.table.to_vec()
    }

    /// Job `id`'s live reservation, if this node holds one.
    #[must_use]
    pub fn reservation(&self, id: JobId) -> Option<Reservation> {
        let slot = *self.table.slots_of(id).first()?;
        Some(self.table.reservation(slot))
    }

    /// Number of live reservations (O(1); prefer over
    /// `reservations().len()`, which materializes the list).
    #[must_use]
    pub fn reservation_count(&self) -> usize {
        self.table.len()
    }

    /// Reserved usage at instant `t`.
    #[must_use]
    pub fn usage_at(&self, t: Cycles) -> ResourceRequest {
        self.table.usage_at(t)
    }

    /// FCFS admission test (Section 5) over a typed [`AdmissionRequest`].
    ///
    /// * `Strict` — reserve `[s, s+tw)` at the earliest feasible `s ≥ now`
    ///   with `s+tw ≤ deadline` (when given).
    /// * `Elastic(X)` — like Strict with duration `tw·(1+X)`.
    /// * `Opportunistic` — no reservation; accepted iff a core is
    ///   unreserved right now.
    ///
    /// A request built with
    /// [`latest_feasible`](crate::AdmissionRequestBuilder::latest_feasible)
    /// and a deadline instead reserves the **latest** slot
    /// `[td − tw, td)` (Section 3.4 places an automatically downgraded
    /// job's fallback reservation as far away as possible), falling back
    /// to the earliest feasible slot when the latest is taken.
    pub fn admit(&mut self, req: &AdmissionRequest) -> Decision {
        self.charge_test();
        if !req.request.fits_within(&self.config.capacity) {
            self.rejected += 1;
            return Decision::Rejected(RejectReason::ExceedsNodeCapacity);
        }
        // The window the request reserves, placed at cycle 0 until a start
        // is found.
        let Some(window) = req.reservation_at(Cycles::ZERO) else {
            // Opportunistic: spare core right now?
            let used = self.usage_at(self.now);
            if used.cores() < self.config.capacity.cores() {
                self.accepted += 1;
                return Decision::Accepted { start: self.now };
            }
            self.rejected += 1;
            return Decision::Rejected(RejectReason::NoSpareResources);
        };
        let start = match (req.placement, req.deadline) {
            (Placement::LatestFeasible, Some(td)) => self.latest_fit(&window, td),
            _ => self.earliest_fit(&window),
        };
        self.reserve(&window, start)
    }

    /// [`Lac::admit`], additionally emitting `Admitted`/`Rejected` to
    /// `recorder` with the controller's current cycle.
    pub fn admit_with(
        &mut self,
        req: &AdmissionRequest,
        recorder: &mut dyn cmpqos_obs::Recorder,
    ) -> Decision {
        let decision = self.admit(req);
        self.emit_decision(req.id, decision, recorder);
        decision
    }

    /// Admits a FCFS run of requests in order, returning one decision per
    /// request. Decisions are bit-identical to calling [`Lac::admit_with`]
    /// once per request; the batch amortizes the recorder-enabled check
    /// and the output allocation over the run.
    #[must_use = "each decision carries a job's fate; dropping them loses the batch"]
    pub fn admit_batch(
        &mut self,
        reqs: &[AdmissionRequest],
        recorder: &mut dyn cmpqos_obs::Recorder,
    ) -> Vec<Decision> {
        let enabled = recorder.enabled();
        let mut out = Vec::with_capacity(reqs.len());
        for req in reqs {
            let decision = self.admit(req);
            if enabled {
                self.emit_decision(req.id, decision, recorder);
            }
            out.push(decision);
        }
        out
    }

    /// The earliest start at or after `now` from which `r`'s window fits
    /// and still ends by its deadline.
    fn earliest_fit(&self, r: &Reservation) -> Option<Cycles> {
        let duration = r.end.saturating_sub(r.start);
        let latest_start = match r.deadline {
            Some(td) => Cycles::new(td.get().checked_sub(duration.get())?),
            None => Cycles::HORIZON,
        };
        self.earliest_start(&r.request, duration, self.now, latest_start)
    }

    /// The latest slot `[td − tw, td)` for `r`'s window when it fits,
    /// else the earliest feasible one ([`Placement::LatestFeasible`]).
    fn latest_fit(&self, r: &Reservation, deadline: Cycles) -> Option<Cycles> {
        let tw = r.end.saturating_sub(r.start);
        // Any tw-long slot ending by `deadline` needs `deadline >= now + tw`
        // (this also keeps `deadline - tw` below from underflowing).
        if deadline < self.now + tw {
            return None;
        }
        let latest = deadline - tw;
        if self.fits_during(&r.request, latest, deadline) {
            Some(latest)
        } else {
            self.earliest_start(&r.request, tw, self.now, latest)
        }
    }

    /// Inserts `r`'s window at `start`, or rejects when no start fits.
    fn reserve(&mut self, r: &Reservation, start: Option<Cycles>) -> Decision {
        let Some(start) = start else {
            self.rejected += 1;
            return Decision::Rejected(RejectReason::NoCapacityBeforeDeadline);
        };
        self.table.insert(r.moved_to(start));
        self.accepted += 1;
        Decision::Accepted { start }
    }

    fn emit_decision(
        &self,
        id: JobId,
        decision: Decision,
        recorder: &mut dyn cmpqos_obs::Recorder,
    ) {
        if !recorder.enabled() {
            return;
        }
        let event = match decision {
            Decision::Accepted { start } => cmpqos_obs::Event::Admitted { job: id, start },
            Decision::Rejected(reason) => cmpqos_obs::Event::Rejected {
                job: id,
                cause: reason.into(),
            },
        };
        recorder.record(self.now, event);
    }

    /// Releases a job's reservation from `at` onward (early completion:
    /// "when automatically downgraded jobs complete, the LAC reclaims their
    /// resources, allowing other jobs to be accepted earlier").
    pub fn release(&mut self, id: JobId, at: Cycles) {
        for slot in self.table.slots_of(id) {
            let r = self.table.reservation(slot);
            if r.end > at {
                self.table.update_end(slot, r.end.min(at.max(r.start)));
            }
        }
        self.table.purge_zero_len();
    }

    /// Cancels a job's reservation entirely.
    pub fn cancel(&mut self, id: JobId) {
        self.table.remove_job(id);
    }

    /// Shrinks the node's capacity to `new_capacity` (a way or core died)
    /// and re-validates every live reservation against the reduced supply.
    ///
    /// Reservations are re-examined in FCFS (admission) order:
    ///
    /// 1. **Keep** — the reservation still fits over its remaining window.
    /// 2. **Downgrade** — an Elastic(X) reservation that no longer fits
    ///    gives up ways, at most `floor(ways · X)` (its slack absorbs the
    ///    proportional slowdown, per the Section 3.3 linear model), smallest
    ///    cut first.
    /// 3. **Evict** — everything else is dropped with
    ///    [`RejectReason::CapacityRevoked`].
    ///
    /// Returns one [`Revocation`] per live reservation, in FCFS order, so
    /// callers can emit events and re-place evicted jobs: no reservation is
    /// ever silently lost.
    pub fn revoke_capacity(
        &mut self,
        new_capacity: ResourceRequest,
        now: Cycles,
    ) -> Vec<Revocation> {
        self.advance(now);
        self.config.capacity = new_capacity;
        let old = self.table.to_vec();
        self.table.clear();
        let mut outcome = Vec::with_capacity(old.len());
        for mut r in old {
            let original = r;
            let window_start = r.start.max(self.now);
            let fits_unchanged = r.request.fits_within(&new_capacity)
                && self.fits_during(&r.request, window_start, r.end);
            let action = if fits_unchanged {
                RevocationAction::Kept
            } else {
                self.try_fault_downgrade(&mut r, window_start).map_or(
                    RevocationAction::Evicted {
                        reservation: original,
                        reason: RejectReason::CapacityRevoked,
                    },
                    |cut| RevocationAction::Downgraded { ways_cut: cut },
                )
            };
            if !matches!(action, RevocationAction::Evicted { .. }) {
                self.table.insert(r);
            }
            outcome.push(Revocation { id: r.id, action });
        }
        outcome
    }

    /// Smallest way cut (≥ 1, bounded by the mode's absorbable slack) that
    /// makes `r` fit over `[window_start, r.end)`. Applies the cut to `r`
    /// and returns it, or `None` when no allowed cut fits.
    fn try_fault_downgrade(&self, r: &mut Reservation, window_start: Cycles) -> Option<Ways> {
        let absorbable = r.mode.fault_absorbable_ways(r.request.cache_ways());
        for cut in 1..=absorbable.get() {
            let ways_cut = Ways::new(cut);
            let reduced = r.request.minus(&ResourceRequest::new(0, ways_cut));
            if reduced.fits_within(&self.config.capacity)
                && self.fits_during(&reduced, window_start, r.end)
            {
                r.request = reduced;
                return Some(ways_cut);
            }
        }
        None
    }

    /// Re-admits a reservation migrated off a failed node, preserving its
    /// duration, mode, and **original** deadline. The start is re-derived
    /// on this node's timeline (FCFS, like [`Lac::admit`]); the request is
    /// never silently shrunk.
    pub fn readmit(&mut self, r: &Reservation) -> Decision {
        self.charge_test();
        if !r.request.fits_within(&self.config.capacity) {
            self.rejected += 1;
            return Decision::Rejected(RejectReason::ExceedsNodeCapacity);
        }
        let start = self.earliest_fit(r);
        self.reserve(r, start)
    }

    /// Number of admission tests performed.
    #[must_use]
    pub fn admission_tests(&self) -> u64 {
        self.admission_tests
    }

    /// Jobs accepted.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Jobs rejected.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Modeled CPU cost of all admission/scheduling work so far (for the
    /// Section 7.5 occupancy characterization).
    #[must_use]
    pub fn modeled_cost(&self) -> Cycles {
        self.modeled_cost
    }

    fn charge_test(&mut self) {
        self.admission_tests += 1;
        self.modeled_cost +=
            Cycles::new(ADMIT_BASE_COST + ADMIT_PER_RESERVATION_COST * self.table.len() as u64);
    }

    /// Whether `request` fits on top of existing reservations at every
    /// instant of `[start, end)`.
    fn fits_during(&self, request: &ResourceRequest, start: Cycles, end: Cycles) -> bool {
        self.table
            .fits_over(request, start, end, &self.config.capacity)
    }

    /// Earliest `s ∈ [not_before, latest_start]` such that `request` fits
    /// over `[s, s+duration)`. Candidates are `not_before` and reservation
    /// end points (capacity only frees when something ends).
    fn earliest_start(
        &self,
        request: &ResourceRequest,
        duration: Cycles,
        not_before: Cycles,
        latest_start: Cycles,
    ) -> Option<Cycles> {
        self.table.earliest_start(
            request,
            duration,
            not_before,
            latest_start,
            &self.config.capacity,
        )
    }
}

impl Feasibility for Lac {
    fn capacity(&self) -> ResourceRequest {
        self.config.capacity
    }

    fn now(&self) -> Cycles {
        self.now
    }

    fn usage_at(&self, t: Cycles) -> ResourceRequest {
        self.table.usage_at(t)
    }

    fn fits_over(&self, request: &ResourceRequest, start: Cycles, end: Cycles) -> bool {
        self.fits_during(request, start, end)
    }

    fn earliest_feasible(
        &self,
        request: &ResourceRequest,
        duration: Cycles,
        not_before: Cycles,
        latest_start: Cycles,
    ) -> Option<Cycles> {
        self.earliest_start(request, duration, not_before, latest_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_types::Ways;

    fn lac() -> Lac {
        Lac::new(LacConfig::default())
    }

    fn paper_req(id: u32, tw: u64, td: u64) -> AdmissionRequest {
        AdmissionRequest::builder(
            JobId::new(id),
            ResourceRequest::paper_job(),
            Cycles::new(tw),
        )
        .deadline(Cycles::new(td))
        .build()
    }

    fn strict(l: &mut Lac, id: u32, tw: u64, td: u64) -> Decision {
        l.admit(&paper_req(id, tw, td))
    }

    #[test]
    fn two_paper_jobs_run_concurrently_third_queues() {
        let mut l = lac();
        assert_eq!(
            strict(&mut l, 0, 100, 1000),
            Decision::Accepted {
                start: Cycles::new(0)
            }
        );
        assert_eq!(
            strict(&mut l, 1, 100, 1000),
            Decision::Accepted {
                start: Cycles::new(0)
            }
        );
        // 3 x 7 = 21 ways > 16: the third job waits for a reservation to end.
        assert_eq!(
            strict(&mut l, 2, 100, 1000),
            Decision::Accepted {
                start: Cycles::new(100)
            }
        );
    }

    #[test]
    fn tight_deadline_job_rejected_when_it_cannot_start_in_time() {
        let mut l = lac();
        let _ = strict(&mut l, 0, 100, 1000);
        let _ = strict(&mut l, 1, 100, 1000);
        // Needs to start by t=5 to make its deadline, but capacity frees at 100.
        assert_eq!(
            strict(&mut l, 2, 100, 105),
            Decision::Rejected(RejectReason::NoCapacityBeforeDeadline)
        );
    }

    #[test]
    fn elastic_reserves_longer() {
        let mut l = lac();
        let d = l.admit(
            &AdmissionRequest::builder(
                JobId::new(0),
                ResourceRequest::paper_job(),
                Cycles::new(1000),
            )
            .mode(ExecutionMode::Elastic(cmpqos_types::Percent::new(5.0)))
            .deadline(Cycles::new(10_000))
            .build(),
        );
        assert!(d.is_accepted());
        assert_eq!(l.reservations()[0].end, Cycles::new(1050));
    }

    #[test]
    fn elastic_deadline_accounts_for_extension() {
        let mut l = lac();
        // tw(1+X) = 1050 > deadline 1040: rejected even though tw fits.
        let d = l.admit(
            &AdmissionRequest::builder(
                JobId::new(0),
                ResourceRequest::paper_job(),
                Cycles::new(1000),
            )
            .mode(ExecutionMode::Elastic(cmpqos_types::Percent::new(5.0)))
            .deadline(Cycles::new(1040))
            .build(),
        );
        assert_eq!(
            d,
            Decision::Rejected(RejectReason::NoCapacityBeforeDeadline)
        );
    }

    #[test]
    fn opportunistic_accepted_while_cores_spare() {
        let mut l = lac();
        let _ = strict(&mut l, 0, 100, 1000);
        let _ = strict(&mut l, 1, 100, 1000);
        let d = l.admit(
            &AdmissionRequest::builder(
                JobId::new(2),
                ResourceRequest::paper_job(),
                Cycles::new(100),
            )
            .mode(ExecutionMode::Opportunistic)
            .build(),
        );
        assert_eq!(
            d,
            Decision::Accepted {
                start: Cycles::ZERO
            }
        );
        // No reservation was added for it.
        assert_eq!(l.reservations().len(), 2);
        assert_eq!(l.reservation_count(), 2);
    }

    #[test]
    fn opportunistic_rejected_when_all_cores_reserved() {
        let mut l = Lac::new(LacConfig {
            capacity: ResourceRequest::new(2, Ways::new(16)),
        });
        let _ = strict(&mut l, 0, 100, 1000);
        let _ = strict(&mut l, 1, 100, 1000);
        let d = l.admit(
            &AdmissionRequest::builder(
                JobId::new(2),
                ResourceRequest::new(1, Ways::ZERO),
                Cycles::new(100),
            )
            .mode(ExecutionMode::Opportunistic)
            .build(),
        );
        assert_eq!(d, Decision::Rejected(RejectReason::NoSpareResources));
    }

    #[test]
    fn oversized_request_rejected_outright() {
        let mut l = lac();
        let d = l.admit(
            &AdmissionRequest::builder(
                JobId::new(0),
                ResourceRequest::new(5, Ways::new(4)),
                Cycles::new(10),
            )
            .build(),
        );
        assert_eq!(d, Decision::Rejected(RejectReason::ExceedsNodeCapacity));
    }

    #[test]
    fn admit_latest_places_reservation_at_deadline() {
        let mut l = lac();
        let d = l.admit(
            &AdmissionRequest::builder(
                JobId::new(0),
                ResourceRequest::paper_job(),
                Cycles::new(100),
            )
            .deadline(Cycles::new(500))
            .latest_feasible()
            .build(),
        );
        assert_eq!(
            d,
            Decision::Accepted {
                start: Cycles::new(400)
            }
        );
        let r = l.reservations()[0];
        assert_eq!((r.start, r.end), (Cycles::new(400), Cycles::new(500)));
    }

    #[test]
    fn admit_latest_falls_back_to_earliest_when_late_slot_taken() {
        // Seed the table with a reservation occupying [400, 500) directly
        // through a snapshot restore.
        let mut l = Lac::restore(LacState {
            config: LacConfig {
                capacity: ResourceRequest::new(1, Ways::new(16)),
            },
            now: Cycles::ZERO,
            reservations: vec![Reservation {
                id: JobId::new(0),
                start: Cycles::new(400),
                end: Cycles::new(500),
                request: ResourceRequest::new(1, Ways::new(7)),
                mode: ExecutionMode::Strict,
                deadline: Some(Cycles::new(500)),
            }],
            admission_tests: 0,
            accepted: 0,
            rejected: 0,
            modeled_cost: Cycles::ZERO,
        });
        let d = l.admit(
            &AdmissionRequest::builder(
                JobId::new(1),
                ResourceRequest::new(1, Ways::new(7)),
                Cycles::new(100),
            )
            .deadline(Cycles::new(500))
            .latest_feasible()
            .build(),
        );
        // Latest slot [400,500) conflicts; earliest feasible is [0,100).
        assert_eq!(
            d,
            Decision::Accepted {
                start: Cycles::ZERO
            }
        );
    }

    #[test]
    fn release_frees_capacity_early() {
        let mut l = lac();
        let _ = strict(&mut l, 0, 100, 1000);
        let _ = strict(&mut l, 1, 100, 1000);
        // Job 0 completes at t=40: release lets a new job start at 40.
        l.release(JobId::new(0), Cycles::new(40));
        assert_eq!(
            strict(&mut l, 2, 100, 1000),
            Decision::Accepted {
                start: Cycles::new(40)
            }
        );
    }

    #[test]
    fn advance_purges_expired_reservations() {
        let mut l = lac();
        let _ = strict(&mut l, 0, 100, 1000);
        l.advance(Cycles::new(150));
        assert!(l.reservations().is_empty());
        assert_eq!(l.now(), Cycles::new(150));
    }

    #[test]
    fn admission_never_overbooks() {
        // Property-style check: admit a stream of mixed jobs, then verify
        // usage never exceeds capacity at any reservation boundary.
        let mut l = lac();
        for i in 0..40u32 {
            let tw = 50 + u64::from(i % 7) * 13;
            let td = 200 + u64::from(i) * 29;
            let _ = strict(&mut l, i, tw, td);
        }
        let mut points: Vec<Cycles> = l
            .reservations()
            .iter()
            .flat_map(|r| [r.start, r.end - Cycles::new(1)])
            .collect();
        points.sort_unstable();
        for p in points {
            let u = l.usage_at(p);
            assert!(u.fits_within(&l.capacity()), "overbooked at {p}: {u}");
        }
    }

    #[test]
    fn cost_model_grows_with_reservation_count() {
        let mut l = lac();
        let _ = strict(&mut l, 0, 100, 10_000);
        let c1 = l.modeled_cost();
        let _ = strict(&mut l, 1, 100, 10_000);
        let c2 = l.modeled_cost();
        assert!(c2 - c1 > c1, "second test scans one reservation");
        assert_eq!(l.admission_tests(), 2);
        assert_eq!(l.accepted(), 2);
    }

    #[test]
    fn admit_batch_matches_one_at_a_time() {
        let reqs: Vec<AdmissionRequest> = (0..20u32)
            .map(|i| {
                let mut b = AdmissionRequest::builder(
                    JobId::new(i),
                    ResourceRequest::paper_job(),
                    Cycles::new(60 + u64::from(i % 5) * 17),
                )
                .deadline(Cycles::new(400 + u64::from(i) * 37));
                if i % 4 == 3 {
                    b = b.latest_feasible();
                }
                if i % 5 == 2 {
                    b = b.mode(ExecutionMode::Opportunistic);
                }
                b.build()
            })
            .collect();
        let mut batched = lac();
        let batch_decisions = batched.admit_batch(&reqs, &mut cmpqos_obs::NullRecorder);
        let mut sequential = lac();
        let seq_decisions: Vec<Decision> = reqs
            .iter()
            .map(|r| sequential.admit_with(r, &mut cmpqos_obs::NullRecorder))
            .collect();
        assert_eq!(batch_decisions, seq_decisions);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn snapshot_restore_round_trips_through_the_index() {
        let mut l = lac();
        for i in 0..10u32 {
            let _ = strict(&mut l, i, 80 + u64::from(i) * 11, 5_000);
        }
        l.release(JobId::new(2), Cycles::new(30));
        l.cancel(JobId::new(5));
        let restored = Lac::restore(l.snapshot());
        assert_eq!(restored, l);
        assert_eq!(restored.reservations(), l.reservations());
        // Restored controllers keep deciding identically.
        let mut a = l.clone();
        let mut b = restored;
        assert_eq!(
            a.admit(&paper_req(90, 100, 2_000)),
            b.admit(&paper_req(90, 100, 2_000))
        );
        assert_eq!(a, b);
    }

    // --- every RejectReason path, with the recorded variants ------------

    fn last_cause(rec: &cmpqos_obs::RingBufferRecorder) -> Option<cmpqos_obs::RejectCause> {
        match rec.to_vec().last().map(|r| r.event.clone()) {
            Some(cmpqos_obs::Event::Rejected { cause, .. }) => Some(cause),
            _ => None,
        }
    }

    #[test]
    fn admit_rejects_oversized_request_and_records_it() {
        let mut l = lac();
        let mut rec = cmpqos_obs::RingBufferRecorder::new(8);
        let d = l.admit_with(
            &AdmissionRequest::builder(
                JobId::new(0),
                ResourceRequest::new(5, Ways::new(4)),
                Cycles::new(10),
            )
            .build(),
            &mut rec,
        );
        assert_eq!(d, Decision::Rejected(RejectReason::ExceedsNodeCapacity));
        assert_eq!(
            last_cause(&rec),
            Some(cmpqos_obs::RejectCause::ExceedsNodeCapacity)
        );
    }

    #[test]
    fn admit_rejects_opportunistic_without_spare_cores_and_records_it() {
        let mut l = Lac::new(LacConfig {
            capacity: ResourceRequest::new(1, Ways::new(16)),
        });
        let _ = strict(&mut l, 0, 100, 1000);
        let mut rec = cmpqos_obs::RingBufferRecorder::new(8);
        let d = l.admit_with(
            &AdmissionRequest::builder(
                JobId::new(1),
                ResourceRequest::new(1, Ways::ZERO),
                Cycles::new(10),
            )
            .mode(ExecutionMode::Opportunistic)
            .build(),
            &mut rec,
        );
        assert_eq!(d, Decision::Rejected(RejectReason::NoSpareResources));
        assert_eq!(
            last_cause(&rec),
            Some(cmpqos_obs::RejectCause::NoSpareResources)
        );
    }

    #[test]
    fn admit_rejects_deadline_shorter_than_reservation() {
        // duration > deadline: the latest-start subtraction underflows.
        let mut l = lac();
        let mut rec = cmpqos_obs::RingBufferRecorder::new(8);
        let d = l.admit_with(&paper_req(0, 200, 100), &mut rec);
        assert_eq!(
            d,
            Decision::Rejected(RejectReason::NoCapacityBeforeDeadline)
        );
        assert_eq!(
            last_cause(&rec),
            Some(cmpqos_obs::RejectCause::NoCapacityBeforeDeadline)
        );
    }

    #[test]
    fn admit_rejects_when_no_slot_frees_before_deadline() {
        let mut l = lac();
        let _ = strict(&mut l, 0, 100, 1000);
        let _ = strict(&mut l, 1, 100, 1000);
        let mut rec = cmpqos_obs::RingBufferRecorder::new(8);
        let d = l.admit_with(&paper_req(2, 100, 105), &mut rec);
        assert_eq!(
            d,
            Decision::Rejected(RejectReason::NoCapacityBeforeDeadline)
        );
        assert_eq!(
            last_cause(&rec),
            Some(cmpqos_obs::RejectCause::NoCapacityBeforeDeadline)
        );
    }

    #[test]
    fn admit_latest_rejects_oversized_request() {
        let mut l = lac();
        let mut rec = cmpqos_obs::RingBufferRecorder::new(8);
        let d = l.admit_with(
            &AdmissionRequest::builder(
                JobId::new(0),
                ResourceRequest::new(5, Ways::new(4)),
                Cycles::new(10),
            )
            .deadline(Cycles::new(100))
            .latest_feasible()
            .build(),
            &mut rec,
        );
        assert_eq!(d, Decision::Rejected(RejectReason::ExceedsNodeCapacity));
        assert_eq!(
            last_cause(&rec),
            Some(cmpqos_obs::RejectCause::ExceedsNodeCapacity)
        );
    }

    #[test]
    fn admit_latest_rejects_infeasible_deadline() {
        let mut l = lac();
        l.advance(Cycles::new(500));
        // Latest slot starts in the past and the earliest finish misses td.
        let d = l.admit(
            &AdmissionRequest::builder(
                JobId::new(0),
                ResourceRequest::paper_job(),
                Cycles::new(100),
            )
            .deadline(Cycles::new(550))
            .latest_feasible()
            .build(),
        );
        assert_eq!(
            d,
            Decision::Rejected(RejectReason::NoCapacityBeforeDeadline)
        );
    }

    #[test]
    fn admit_latest_rejects_when_every_slot_is_taken() {
        let mut l = Lac::new(LacConfig {
            capacity: ResourceRequest::new(1, Ways::new(16)),
        });
        // One job owns the whole window [0, 500).
        let _ = l.admit(
            &AdmissionRequest::builder(
                JobId::new(0),
                ResourceRequest::new(1, Ways::new(7)),
                Cycles::new(500),
            )
            .deadline(Cycles::new(500))
            .build(),
        );
        let d = l.admit(
            &AdmissionRequest::builder(
                JobId::new(1),
                ResourceRequest::new(1, Ways::new(7)),
                Cycles::new(100),
            )
            .deadline(Cycles::new(500))
            .latest_feasible()
            .build(),
        );
        assert_eq!(
            d,
            Decision::Rejected(RejectReason::NoCapacityBeforeDeadline)
        );
    }

    #[test]
    fn accepted_decision_is_recorded_as_admitted() {
        let mut l = lac();
        let mut rec = cmpqos_obs::RingBufferRecorder::new(8);
        let d = l.admit_with(&paper_req(0, 100, 1_000), &mut rec);
        assert!(d.is_accepted());
        assert_eq!(
            rec.to_vec().last().map(|r| r.event.clone()),
            Some(cmpqos_obs::Event::Admitted {
                job: JobId::new(0),
                start: Cycles::ZERO,
            })
        );
    }

    #[test]
    fn revoke_capacity_keeps_downgrades_and_evicts_in_fcfs_order() {
        let mut l = lac();
        // Job 0: Strict, 8 ways. Job 1: Elastic(50%), 8 ways.
        let _ = l.admit(
            &AdmissionRequest::builder(
                JobId::new(0),
                ResourceRequest::new(1, Ways::new(8)),
                Cycles::new(100),
            )
            .build(),
        );
        let _ = l.admit(
            &AdmissionRequest::builder(
                JobId::new(1),
                ResourceRequest::new(1, Ways::new(8)),
                Cycles::new(100),
            )
            .mode(ExecutionMode::Elastic(cmpqos_types::Percent::new(50.0)))
            .build(),
        );
        // Lose 8 ways: capacity 16 -> 8.
        let revs = l.revoke_capacity(
            ResourceRequest::new(4, Ways::new(8)).with_bandwidth(100),
            Cycles::ZERO,
        );
        assert_eq!(revs.len(), 2);
        // FCFS: job 0 (Strict, 8 ways) still fits exactly and is kept.
        assert_eq!(revs[0].id, JobId::new(0));
        assert_eq!(revs[0].action, RevocationAction::Kept);
        // Job 1 can absorb at most floor(8 * 0.5) = 4 ways, but it would
        // need to drop to 0 concurrent ways: evicted with a reason.
        assert_eq!(revs[1].id, JobId::new(1));
        assert!(matches!(
            revs[1].action,
            RevocationAction::Evicted {
                reason: RejectReason::CapacityRevoked,
                ..
            }
        ));
        assert_eq!(l.reservations().len(), 1);
    }

    #[test]
    fn revoke_capacity_downgrades_elastic_within_slack() {
        let mut l = lac();
        let _ = l.admit(
            &AdmissionRequest::builder(
                JobId::new(0),
                ResourceRequest::new(1, Ways::new(8)),
                Cycles::new(100),
            )
            .build(),
        );
        let _ = l.admit(
            &AdmissionRequest::builder(
                JobId::new(1),
                ResourceRequest::new(1, Ways::new(8)),
                Cycles::new(100),
            )
            .mode(ExecutionMode::Elastic(cmpqos_types::Percent::new(50.0)))
            .build(),
        );
        // Lose 2 ways: the Elastic job gives up exactly 2 (within its
        // 4-way slack), the Strict job is untouched.
        let revs = l.revoke_capacity(
            ResourceRequest::new(4, Ways::new(14)).with_bandwidth(100),
            Cycles::ZERO,
        );
        assert_eq!(revs[0].action, RevocationAction::Kept);
        assert_eq!(
            revs[1].action,
            RevocationAction::Downgraded {
                ways_cut: Ways::new(2)
            }
        );
        assert_eq!(l.reservations()[1].request.cache_ways(), Ways::new(6));
    }

    #[test]
    fn readmit_preserves_duration_mode_and_deadline() {
        let mut src = lac();
        let _ = src.admit(&paper_req(0, 100, 1_000));
        let r = src.reservations()[0];
        let mut dst = lac();
        dst.advance(Cycles::new(50));
        let d = dst.readmit(&r);
        assert_eq!(
            d,
            Decision::Accepted {
                start: Cycles::new(50)
            }
        );
        let moved = dst.reservations()[0];
        assert_eq!(moved.end - moved.start, Cycles::new(100));
        assert_eq!(moved.deadline, Some(Cycles::new(1_000)));
        assert_eq!(moved.mode, ExecutionMode::Strict);
    }

    /// Every accepted admit leaves the table entry
    /// `AdmissionRequest::reservation_at` names (none for an
    /// Opportunistic job), and every accepted readmit the entry
    /// `Reservation::moved_to` names: the GAC records the same windows.
    #[test]
    fn every_acceptance_reserves_what_the_shared_functions_return() {
        use cmpqos_types::Percent;
        let modes = [
            ExecutionMode::Strict,
            ExecutionMode::Elastic(Percent::new(50.0)),
            ExecutionMode::Opportunistic,
            ExecutionMode::Elastic(Percent::new(25.0)),
        ];
        let (mut src, mut dst) = (lac(), lac());
        let mut seen = [0u32; 5];
        for id in 0..48u32 {
            let now = Cycles::new(u64::from(id) * 150);
            src.advance(now);
            dst.advance(now);
            let mode = modes[id as usize % modes.len()];
            let tw = Cycles::new(400 + 37 * u64::from(id % 11));
            let mut b = AdmissionRequest::builder(JobId::new(id), ResourceRequest::paper_job(), tw)
                .mode(mode);
            if id % 3 != 0 {
                b = b.deadline(now + tw * 3);
            }
            if id % 5 < 2 {
                b = b.latest_feasible();
            }
            let req = b.build();
            let Decision::Accepted { start } = src.admit(&req) else {
                continue;
            };
            let want = req.reservation_at(start);
            assert_eq!(src.reservation(req.id), want, "{req:?}");
            let Some(r) = want else {
                seen[0] += 1;
                continue;
            };
            let latest = req.placement == Placement::LatestFeasible && req.deadline.is_some();
            seen[1 + usize::from(latest)] += 1;
            seen[3] += u32::from(r.mode.is_stealing_donor());
            if let Decision::Accepted { start } = dst.readmit(&r) {
                assert_eq!(dst.reservation(r.id), Some(r.moved_to(start)), "{r:?}");
                seen[4] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every kind accepted: {seen:?}");
    }

    #[test]
    fn readmit_rejects_when_the_original_deadline_cannot_be_met() {
        let mut src = lac();
        let _ = src.admit(&paper_req(0, 100, 150));
        let r = src.reservations()[0];
        let mut dst = lac();
        // The destination node's clock is already past the latest start.
        dst.advance(Cycles::new(100));
        assert_eq!(
            dst.readmit(&r),
            Decision::Rejected(RejectReason::NoCapacityBeforeDeadline)
        );
    }

    #[test]
    fn fcfs_no_deadline_job_queues_indefinitely() {
        let mut l = lac();
        let _ = strict(&mut l, 0, 100, 1000);
        let _ = strict(&mut l, 1, 100, 1000);
        let d = l.admit(
            &AdmissionRequest::builder(
                JobId::new(2),
                ResourceRequest::paper_job(),
                Cycles::new(100),
            )
            .build(),
        );
        assert_eq!(
            d,
            Decision::Accepted {
                start: Cycles::new(100)
            }
        );
    }
}
