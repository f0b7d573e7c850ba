//! Brute-force reference oracles for the admission layer and the L1.
//!
//! [`OracleLac`] re-derives every [`Lac`] decision from the Section 5
//! semantics alone: a reservation request is feasible at start `s` iff the
//! summed demand fits the node capacity at **every cycle** of
//! `[s, s + duration)`, and FCFS admission picks the smallest feasible
//! `s ∈ [now, latest_start]`. Where the production `Lac` searches only the
//! candidate starts where capacity can change (reservation end points), the
//! oracle walks the timeline cycle by cycle — O(T²), unusable in
//! production, unbeatable as a referee. For coordinates too large to walk
//! (scheduler-level runs), it falls back to an independent
//! coordinate-compressed sweep and, whenever both strategies apply, insists
//! they agree with each other before judging the `Lac`.
//!
//! [`OracleIntake`] mirrors the O(1) overload layer (deadline slack, token
//! buckets, circuit breaker, bounded queue) so intake sheds can be diffed
//! decision by decision as well.
//!
//! [`OraclePid`] re-derives the adaptive control plane's
//! [`cmpqos_adapt::pid_step`] law in exact `i128` arithmetic, so the
//! production controller's saturating-`i64` implementation can be diffed
//! state field by state field over seed-derived error streams.
//!
//! [`OracleL1`] keeps the simulator's original array-of-lines L1: one
//! record per line with a valid bit, and an explicit empty-way search
//! before the LRU scan. The structure-of-arrays
//! [`L1Cache`](cmpqos_cache::L1Cache) must agree with it access by
//! access, and its way positions fix the order in which `flush()` reports
//! dirty blocks.
//!
//! [`OracleTrace`] keeps the synthetic trace generator's original `f64`
//! sampler: each decision scales a draw into `[0, 1)` and compares it with
//! the profile's memory ratio, a cumulative weight or a write fraction, and
//! a stream's cursor wraps by division. The integer thresholds of
//! [`SyntheticTrace`](cmpqos_trace::SyntheticTrace) must reproduce its
//! events draw for draw.

use cmpqos_adapt::PidConfig;
use cmpqos_cache::line::CacheLine;
use cmpqos_cache::{CacheConfig, CoreCacheStats, L1Outcome};
use cmpqos_core::intake::AdmissionRequest;
use cmpqos_core::{
    Decision, ExecutionMode, Feasibility, Lac, Placement, RejectReason, Reservation,
    ResourceRequest, RevocationAction,
};
use cmpqos_trace::mixture::BLOCK_BYTES;
use cmpqos_trace::{Access, AccessKind, BenchmarkProfile, Component, InstrEvent};
use cmpqos_types::{Cycles, JobId, SourceId, Ways};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

/// Timeline spans up to this many cycles are checked exhaustively, cycle by
/// cycle; larger spans use the coordinate-compressed sweep.
const EXHAUSTIVE_SPAN: u64 = 4_096;

/// What the oracle decided a capacity revocation should do to one
/// reservation (mirror of [`cmpqos_core::RevocationAction`], carrying only
/// what the differential needs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleRevocation {
    /// Still fits unchanged.
    Kept,
    /// Elastic reservation shrunk by this many ways.
    Downgraded(Ways),
    /// Evicted outright.
    Evicted,
}

impl OracleRevocation {
    /// Collapses a production [`RevocationAction`] to the comparable form.
    #[must_use]
    pub fn of(action: &RevocationAction) -> Self {
        match action {
            RevocationAction::Kept => OracleRevocation::Kept,
            RevocationAction::Downgraded { ways_cut } => OracleRevocation::Downgraded(*ways_cut),
            RevocationAction::Evicted { .. } => OracleRevocation::Evicted,
        }
    }
}

/// The brute-force admission oracle: same observable state as a [`Lac`]
/// (capacity, clock, reservation table), decisions recomputed exhaustively.
#[derive(Debug, Clone)]
pub struct OracleLac {
    capacity: ResourceRequest,
    now: Cycles,
    reservations: Vec<Reservation>,
}

impl OracleLac {
    /// An empty oracle for a node of `capacity`.
    #[must_use]
    pub fn new(capacity: ResourceRequest) -> Self {
        Self {
            capacity,
            now: Cycles::ZERO,
            reservations: Vec::new(),
        }
    }

    /// Seeds the oracle from an observed controller state (used to referee
    /// a single decision mid-run: snapshot the `Lac`, then compare).
    #[must_use]
    pub fn from_parts(
        capacity: ResourceRequest,
        reservations: Vec<Reservation>,
        now: Cycles,
    ) -> Self {
        Self {
            capacity,
            now,
            reservations,
        }
    }

    /// The oracle's reservation table (admission order, like the `Lac`'s).
    #[must_use]
    pub fn reservations(&self) -> &[Reservation] {
        &self.reservations
    }

    /// The oracle's clock.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The node capacity the oracle admits against.
    #[must_use]
    pub fn capacity(&self) -> ResourceRequest {
        self.capacity
    }

    /// Summed demand of reservations active at instant `t`, each
    /// component capped at its field's maximum.
    #[must_use]
    pub fn usage_at(&self, t: Cycles) -> ResourceRequest {
        let [cores, ways, bandwidth] = self.sums_at(t);
        ResourceRequest::new(
            u32::try_from(cores).unwrap_or(u32::MAX),
            Ways::new(u16::try_from(ways).unwrap_or(u16::MAX)),
        )
        .with_bandwidth(u16::try_from(bandwidth).unwrap_or(u16::MAX))
    }

    /// Summed cores, ways and bandwidth of the reservations active at
    /// `t`, at `u64` width: no table a journal can carry wraps a sum.
    fn sums_at(&self, t: Cycles) -> [u64; 3] {
        self.reservations
            .iter()
            .filter(|r| r.start <= t && t < r.end)
            .fold([0; 3], |[cores, ways, bandwidth], r| {
                [
                    cores + u64::from(r.request.cores()),
                    ways + u64::from(r.request.cache_ways().get()),
                    bandwidth + u64::from(r.request.bandwidth_pct()),
                ]
            })
    }

    /// Whether `request` stacked on the usage at instant `t` fits the
    /// capacity, every sum taken at `u64` width: a sum past its field's
    /// range does not fit.
    fn fits_at(&self, t: Cycles, request: &ResourceRequest) -> bool {
        let [cores, ways, bandwidth] = self.sums_at(t);
        let cap = &self.capacity;
        cores + u64::from(request.cores()) <= u64::from(cap.cores())
            && ways + u64::from(request.cache_ways().get()) <= u64::from(cap.cache_ways().get())
            && bandwidth + u64::from(request.bandwidth_pct()) <= u64::from(cap.bandwidth_pct())
    }

    /// Advances the clock and drops expired reservations.
    pub fn advance(&mut self, now: Cycles) {
        self.now = self.now.max(now);
        let t = self.now;
        self.reservations.retain(|r| r.end > t);
    }

    /// Mirror of [`Lac::release`].
    pub fn release(&mut self, id: JobId, at: Cycles) {
        for r in &mut self.reservations {
            if r.id == id && r.end > at {
                r.end = r.end.min(at.max(r.start));
            }
        }
        self.reservations.retain(|r| r.end > r.start);
    }

    /// Mirror of [`Lac::cancel`].
    pub fn cancel(&mut self, id: JobId) {
        self.reservations.retain(|r| r.id != id);
    }

    /// Whether `request` stacked on the existing reservations fits the
    /// capacity at every cycle of `[start, end)`.
    ///
    /// Exhaustive (per-cycle) for small spans; coordinate-compressed
    /// otherwise. When the span is small the two strategies are run **both**
    /// and must agree — the oracle referees itself before it referees the
    /// controller.
    ///
    /// # Panics
    ///
    /// Panics if the exhaustive and compressed strategies disagree (an
    /// oracle bug, never a controller bug).
    #[must_use]
    pub fn fits_over(&self, request: &ResourceRequest, start: Cycles, end: Cycles) -> bool {
        if end <= start {
            return true;
        }
        let compressed = self.fits_over_compressed(request, start, end);
        if end.get() - start.get() <= EXHAUSTIVE_SPAN {
            let exhaustive = self.fits_over_exhaustive(request, start, end);
            assert_eq!(
                exhaustive, compressed,
                "oracle self-check: exhaustive vs compressed feasibility diverged \
                 over [{start}, {end}) for {request}"
            );
            exhaustive
        } else {
            compressed
        }
    }

    fn fits_over_exhaustive(&self, request: &ResourceRequest, start: Cycles, end: Cycles) -> bool {
        (start.get()..end.get()).all(|t| self.fits_at(Cycles::new(t), request))
    }

    fn fits_over_compressed(&self, request: &ResourceRequest, start: Cycles, end: Cycles) -> bool {
        // Usage is a step function that only changes where a reservation
        // starts or ends, so checking `start` plus every boundary inside
        // the window covers every cycle.
        let mut points = vec![start];
        for r in &self.reservations {
            for p in [r.start, r.end] {
                if p > start && p < end {
                    points.push(p);
                }
            }
        }
        points.iter().all(|&p| self.fits_at(p, request))
    }

    /// Smallest feasible start in `[not_before, latest_start]`, walking the
    /// timeline cycle by cycle up to the last reservation end (beyond it
    /// the timeline is empty, so the first cycle there settles the search).
    #[must_use]
    pub fn earliest_start(
        &self,
        request: &ResourceRequest,
        duration: Cycles,
        not_before: Cycles,
        latest_start: Cycles,
    ) -> Option<Cycles> {
        let horizon = self
            .reservations
            .iter()
            .map(|r| r.end)
            .max()
            .unwrap_or(not_before)
            .max(not_before);
        if horizon.get() - not_before.get() <= EXHAUSTIVE_SPAN {
            let mut s = not_before;
            while s <= latest_start {
                if self.fits_over(request, s, s + duration) {
                    return Some(s);
                }
                if s >= horizon {
                    break;
                }
                s += Cycles::new(1);
            }
            None
        } else {
            // Big coordinates: candidates are `not_before` and every
            // boundary at or after it (starts included — a superset of what
            // the production search uses, and provably sufficient: moving a
            // feasible start left to the previous boundary stays feasible).
            let mut candidates = vec![not_before];
            for r in &self.reservations {
                for p in [r.start, r.end] {
                    if p > not_before {
                        candidates.push(p);
                    }
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
            candidates
                .into_iter()
                .filter(|&s| s <= latest_start)
                .find(|&s| self.fits_over(request, s, s + duration))
        }
    }

    /// Independent reservation duration: Strict runs `tw`, Elastic(X)
    /// stretches to `tw · (1 + X)`, Opportunistic never reserves.
    #[must_use]
    pub fn duration_of(mode: ExecutionMode, tw: Cycles) -> Option<Cycles> {
        match mode {
            ExecutionMode::Strict => Some(tw),
            ExecutionMode::Elastic(x) => Some(Cycles::new(
                (tw.as_f64() * (1.0 + x.value() / 100.0)).round() as u64,
            )),
            ExecutionMode::Opportunistic => None,
        }
    }

    /// Brute-force mirror of `Lac::admit(&AdmissionRequest)`: dispatches
    /// on [`Placement`] exactly like the production controller, so typed
    /// call sites can be diffed without unpacking the request.
    pub fn admit_request(&mut self, req: &AdmissionRequest) -> Decision {
        match (req.placement, req.deadline) {
            (Placement::LatestFeasible, Some(td)) => {
                self.admit_latest(req.id, req.request, req.tw, td)
            }
            _ => self.admit(req.id, req.mode, req.request, req.tw, req.deadline),
        }
    }

    /// Brute-force mirror of [`Lac::admit`].
    pub fn admit(
        &mut self,
        id: JobId,
        mode: ExecutionMode,
        request: ResourceRequest,
        tw: Cycles,
        deadline: Option<Cycles>,
    ) -> Decision {
        if !request.fits_within(&self.capacity) {
            return Decision::Rejected(RejectReason::ExceedsNodeCapacity);
        }
        match Self::duration_of(mode, tw) {
            None => {
                if self.usage_at(self.now).cores() < self.capacity.cores() {
                    Decision::Accepted { start: self.now }
                } else {
                    Decision::Rejected(RejectReason::NoSpareResources)
                }
            }
            Some(duration) => {
                let latest_start = match deadline {
                    Some(td) => match td.get().checked_sub(duration.get()) {
                        Some(ls) => Cycles::new(ls),
                        None => return Decision::Rejected(RejectReason::NoCapacityBeforeDeadline),
                    },
                    None => Cycles::HORIZON,
                };
                match self.earliest_start(&request, duration, self.now, latest_start) {
                    Some(start) => {
                        self.reservations.push(Reservation {
                            id,
                            start,
                            end: start + duration,
                            request,
                            mode,
                            deadline,
                        });
                        Decision::Accepted { start }
                    }
                    None => Decision::Rejected(RejectReason::NoCapacityBeforeDeadline),
                }
            }
        }
    }

    /// Brute-force mirror of the [`Lac`]'s latest-feasible placement
    /// (Section 3.4: the auto-downgrade fallback reserves the latest slot
    /// `[td − tw, td)`, falling back to the earliest feasible one).
    pub fn admit_latest(
        &mut self,
        id: JobId,
        request: ResourceRequest,
        tw: Cycles,
        deadline: Cycles,
    ) -> Decision {
        if !request.fits_within(&self.capacity) {
            return Decision::Rejected(RejectReason::ExceedsNodeCapacity);
        }
        // Any tw-long slot ending by `deadline` needs `deadline >= now + tw`
        // (this also keeps `deadline - tw` below from underflowing).
        if deadline < self.now + tw {
            return Decision::Rejected(RejectReason::NoCapacityBeforeDeadline);
        }
        let latest = deadline - tw;
        let start = if self.fits_over(&request, latest, deadline) {
            Some(latest)
        } else {
            self.earliest_start(&request, tw, self.now, latest)
        };
        match start {
            Some(start) => {
                self.reservations.push(Reservation {
                    id,
                    start,
                    end: start + tw,
                    request,
                    mode: ExecutionMode::Strict,
                    deadline: Some(deadline),
                });
                Decision::Accepted { start }
            }
            None => Decision::Rejected(RejectReason::NoCapacityBeforeDeadline),
        }
    }

    /// Brute-force mirror of [`Lac::readmit`]: preserved duration, mode,
    /// and original deadline; start re-derived FCFS on this timeline.
    pub fn readmit(&mut self, r: &Reservation) -> Decision {
        if !r.request.fits_within(&self.capacity) {
            return Decision::Rejected(RejectReason::ExceedsNodeCapacity);
        }
        let duration = r.end.saturating_sub(r.start);
        let latest_start = match r.deadline {
            Some(td) => match td.get().checked_sub(duration.get()) {
                Some(ls) => Cycles::new(ls),
                None => return Decision::Rejected(RejectReason::NoCapacityBeforeDeadline),
            },
            None => Cycles::HORIZON,
        };
        match self.earliest_start(&r.request, duration, self.now, latest_start) {
            Some(start) => {
                self.reservations.push(Reservation {
                    id: r.id,
                    start,
                    end: start + duration,
                    request: r.request,
                    mode: r.mode,
                    deadline: r.deadline,
                });
                Decision::Accepted { start }
            }
            None => Decision::Rejected(RejectReason::NoCapacityBeforeDeadline),
        }
    }

    /// Brute-force mirror of [`Lac::revoke_capacity`]: FCFS re-validation
    /// against the shrunken supply — keep when the reservation still fits
    /// over its remaining window (checked exhaustively), otherwise the
    /// smallest Elastic way cut within `floor(ways · X)` that fits,
    /// otherwise evict.
    pub fn revoke_capacity(
        &mut self,
        new_capacity: ResourceRequest,
        now: Cycles,
    ) -> Vec<(JobId, OracleRevocation)> {
        self.advance(now);
        self.capacity = new_capacity;
        let old = std::mem::take(&mut self.reservations);
        let mut outcome = Vec::with_capacity(old.len());
        for mut r in old {
            let window_start = r.start.max(self.now);
            let action = if r.request.fits_within(&new_capacity)
                && self.fits_over(&r.request, window_start, r.end)
            {
                OracleRevocation::Kept
            } else {
                match self.smallest_fitting_cut(&r, window_start) {
                    Some(cut) => {
                        r.request = r.request.minus(&ResourceRequest::new(0, cut));
                        OracleRevocation::Downgraded(cut)
                    }
                    None => OracleRevocation::Evicted,
                }
            };
            if !matches!(action, OracleRevocation::Evicted) {
                self.reservations.push(r);
            }
            outcome.push((r.id, action));
        }
        outcome
    }

    fn smallest_fitting_cut(&self, r: &Reservation, window_start: Cycles) -> Option<Ways> {
        let absorbable = r.mode.fault_absorbable_ways(r.request.cache_ways());
        (1..=absorbable.get()).map(Ways::new).find(|&cut| {
            let reduced = r.request.minus(&ResourceRequest::new(0, cut));
            reduced.fits_within(&self.capacity) && self.fits_over(&reduced, window_start, r.end)
        })
    }

    /// Checks the global invariant behind every accept: at no cycle does
    /// summed reservation demand exceed the capacity. Returns the first
    /// overbooked instant, if any.
    #[must_use]
    pub fn first_overbooked_instant(&self) -> Option<Cycles> {
        let mut points: Vec<Cycles> = self
            .reservations
            .iter()
            .flat_map(|r| [r.start, r.end])
            .collect();
        points.sort_unstable();
        points.dedup();
        let nothing = ResourceRequest::new(0, Ways::ZERO);
        points.into_iter().find(|&p| !self.fits_at(p, &nothing))
    }

    /// Diffs the oracle's reservation table against a controller's. The
    /// tables must match entry for entry (same admission order, same
    /// windows, same shrunken requests after downgrades).
    pub fn table_matches(&self, lac: &Lac) -> Result<(), String> {
        if self.reservations == lac.reservations() {
            Ok(())
        } else {
            Err(format!(
                "reservation tables diverged:\n  oracle: {:?}\n  lac:    {:?}",
                self.reservations,
                lac.reservations()
            ))
        }
    }
}

impl Feasibility for OracleLac {
    fn capacity(&self) -> ResourceRequest {
        self.capacity
    }

    fn now(&self) -> Cycles {
        self.now
    }

    fn usage_at(&self, t: Cycles) -> ResourceRequest {
        OracleLac::usage_at(self, t)
    }

    fn fits_over(&self, request: &ResourceRequest, start: Cycles, end: Cycles) -> bool {
        OracleLac::fits_over(self, request, start, end)
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

/// An exact-arithmetic mirror of the adaptive control law
/// ([`cmpqos_adapt::pid_step`]).
///
/// The production step works in saturating `i64`; the oracle computes the
/// same law in `i128`, where none of the intermediate products can
/// overflow. In the **non-saturating regime** — `|error| ≤ ~10^9` with
/// gains `≤ ~10^4` and `integral_bound ≤ ~10^6`, comfortably covering
/// every error a milli-CPI sample can produce — the two are provably
/// identical, so any disagreement over a generated stream is a production
/// bug, never a modelling gap. (At inputs extreme enough to saturate an
/// `i64` product the implementations legitimately diverge; the
/// differential generator stays inside the regime.)
#[derive(Debug, Clone)]
pub struct OraclePid {
    config: PidConfig,
    integral: i128,
    prev_error: i128,
    level: u32,
}

impl OraclePid {
    /// A fresh oracle for the given gains, state all zero — the mirror of
    /// `PidState::default()`.
    #[must_use]
    pub fn new(config: PidConfig) -> Self {
        Self {
            config,
            integral: 0,
            prev_error: 0,
            level: 0,
        }
    }

    /// The oracle's accumulated (clamped) error.
    #[must_use]
    pub fn integral(&self) -> i128 {
        self.integral
    }

    /// The oracle's previous error.
    #[must_use]
    pub fn prev_error(&self) -> i128 {
        self.prev_error
    }

    /// The oracle's current intervention level.
    #[must_use]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// One exact control step; returns the new intervention level.
    pub fn step(&mut self, error_milli: i64) -> u32 {
        let e = i128::from(error_milli);
        if e.abs() <= i128::from(self.config.deadband_milli) {
            return self.level;
        }
        let bound = i128::from(self.config.integral_bound);
        self.integral = (self.integral + e).clamp(-bound, bound);
        let derivative = e - self.prev_error;
        self.prev_error = e;
        let u = i128::from(self.config.kp_milli) * e
            + i128::from(self.config.ki_milli) * self.integral
            + i128::from(self.config.kd_milli) * derivative;
        let scale = i128::from(self.config.output_scale.max(1));
        self.level = u
            .div_euclid(scale)
            .clamp(0, i128::from(self.config.max_level)) as u32;
        self.level
    }
}

/// Mirror of one per-source token bucket.
#[derive(Debug, Clone, Copy)]
struct OracleBucket {
    tokens: u32,
    last_refill: Cycles,
}

/// An independent mirror of [`cmpqos_core::intake::AdmissionIntake`]'s
/// O(1) overload checks: infeasible slack, circuit breaker, per-source
/// token bucket, bounded queue — in that order.
#[derive(Debug, Clone)]
pub struct OracleIntake {
    queue_capacity: usize,
    bucket_capacity: u32,
    refill_interval: Cycles,
    breaker_window: usize,
    breaker_threshold_pct: u32,
    breaker_cooldown: Cycles,
    queue: VecDeque<AdmissionRequest>,
    buckets: BTreeMap<SourceId, OracleBucket>,
    window: VecDeque<bool>,
    open_until: Option<Cycles>,
}

/// What the oracle expects the intake to do with an offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleOffer {
    /// Enters the bounded queue.
    Enqueued,
    /// Shed in O(1) with this reason.
    Shed(RejectReason),
}

impl OracleIntake {
    /// A mirror configured like an [`cmpqos_core::intake::IntakeConfig`].
    #[must_use]
    pub fn new(config: &cmpqos_core::intake::IntakeConfig) -> Self {
        Self {
            queue_capacity: config.queue_capacity,
            bucket_capacity: config.bucket_capacity,
            refill_interval: config.refill_interval,
            breaker_window: config.breaker_window,
            breaker_threshold_pct: config.breaker_threshold_pct,
            breaker_cooldown: config.breaker_cooldown,
            queue: VecDeque::new(),
            buckets: BTreeMap::new(),
            window: VecDeque::new(),
            open_until: None,
        }
    }

    /// Whether the circuit breaker is open at `now` (mirrors
    /// [`cmpqos_core::AdmissionIntake::breaker_open`], including the
    /// restore-at-exactly-cooldown-expiry boundary).
    #[must_use]
    pub fn breaker_open(&self, now: Cycles) -> bool {
        self.open_until.is_some_and(|until| now < until)
    }

    fn maybe_restore(&mut self, now: Cycles) {
        if self.open_until.is_some_and(|until| now >= until) {
            self.open_until = None;
        }
    }

    fn take_token(&mut self, source: SourceId, now: Cycles) -> bool {
        let cap = self.bucket_capacity.max(1);
        let interval = self.refill_interval.get().max(1);
        let bucket = self.buckets.entry(source).or_insert(OracleBucket {
            tokens: cap,
            last_refill: now,
        });
        let refills = now.get().saturating_sub(bucket.last_refill.get()) / interval;
        if refills > 0 {
            bucket.tokens = bucket
                .tokens
                .saturating_add(refills.min(u64::from(cap)) as u32)
                .min(cap);
            bucket.last_refill = Cycles::new(bucket.last_refill.get() + refills * interval);
        }
        if bucket.tokens == 0 {
            return false;
        }
        bucket.tokens -= 1;
        true
    }

    fn observe(&mut self, rejected: bool, now: Cycles) {
        if self.breaker_open(now) {
            return;
        }
        self.window.push_back(rejected);
        while self.window.len() > self.breaker_window {
            let _ = self.window.pop_front();
        }
        if self.window.len() < self.breaker_window {
            return;
        }
        let rejects = self.window.iter().filter(|&&r| r).count() as u64;
        if rejects * 100 >= u64::from(self.breaker_threshold_pct) * self.window.len() as u64 {
            self.open_until = Some(now + self.breaker_cooldown);
            self.window.clear();
        }
    }

    /// Expected outcome of offering `req` at `now`.
    pub fn offer(&mut self, req: AdmissionRequest, now: Cycles) -> OracleOffer {
        self.maybe_restore(now);
        if let (Some(td), Some(duration)) = (req.deadline, OracleLac::duration_of(req.mode, req.tw))
        {
            if now + duration > td {
                return OracleOffer::Shed(RejectReason::ShedInfeasible);
            }
        }
        if self.breaker_open(now) {
            return OracleOffer::Shed(RejectReason::ShedOverload);
        }
        if !self.take_token(req.source, now) {
            return OracleOffer::Shed(RejectReason::ShedOverload);
        }
        if self.queue.len() >= self.queue_capacity {
            return OracleOffer::Shed(RejectReason::ShedOverload);
        }
        self.queue.push_back(req);
        OracleOffer::Enqueued
    }

    /// Expected FCFS drain at `now` through the oracle LAC, feeding the
    /// breaker window with each decision.
    pub fn drain(&mut self, lac: &mut OracleLac, now: Cycles) -> Vec<(JobId, Decision)> {
        self.maybe_restore(now);
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(req) = self.queue.pop_front() {
            let infeasible = match (req.deadline, OracleLac::duration_of(req.mode, req.tw)) {
                (Some(td), Some(duration)) => now + duration > td,
                _ => false,
            };
            let decision = if infeasible {
                Decision::Rejected(RejectReason::ShedInfeasible)
            } else {
                lac.advance(now);
                lac.admit(req.id, req.mode, req.request, req.tw, req.deadline)
            };
            self.observe(!decision.is_accepted(), now);
            out.push((req.id, decision));
        }
        out
    }
}

/// The reference L1: the array-of-lines layout
/// [`L1Cache`](cmpqos_cache::L1Cache) had before it became
/// structure-of-arrays. Write-back, write-allocate, true LRU; a
/// miss fills the first invalid way, else evicts the least recently used.
#[derive(Debug, Clone)]
pub struct OracleL1 {
    config: CacheConfig,
    lines: Vec<CacheLine>,
    tick: u64,
    stats: CoreCacheStats,
}

impl OracleL1 {
    /// An empty cache with the given configuration.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            lines: vec![CacheLine::INVALID; config.geometry().lines()],
            tick: 0,
            stats: CoreCacheStats::default(),
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CoreCacheStats {
        &self.stats
    }

    /// One access at byte address `addr`; `is_write` marks stores.
    pub fn access(&mut self, addr: u64, is_write: bool) -> L1Outcome {
        let geom = self.config.geometry();
        let (tag, set) = geom.slice(addr);
        let assoc = usize::from(geom.associativity());
        let base = set as usize * assoc;
        self.tick += 1;
        let set_lines = &mut self.lines[base..base + assoc];
        if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_used = self.tick;
            line.dirty |= is_write;
            self.stats.record_access(false);
            return L1Outcome {
                hit: true,
                writeback: None,
            };
        }
        self.stats.record_access(true);
        let victim = match set_lines.iter().position(|l| !l.valid) {
            Some(way) => way,
            None => set_lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_used)
                .map_or(0, |(way, _)| way),
        };
        let line = &mut set_lines[victim];
        let writeback = (line.valid && line.dirty).then(|| {
            self.stats.record_writeback();
            geom.unslice(line.tag, set)
        });
        *line = CacheLine {
            tag,
            valid: true,
            dirty: is_write,
            owner: 0,
            last_used: self.tick,
        };
        L1Outcome {
            hit: false,
            writeback,
        }
    }

    /// Invalidates every line, returning the dirty blocks by set, then by
    /// way.
    pub fn flush(&mut self) -> Vec<u64> {
        let geom = self.config.geometry();
        let assoc = usize::from(geom.associativity());
        let mut writebacks = Vec::new();
        for (i, line) in self.lines.iter_mut().enumerate() {
            if line.valid && line.dirty {
                writebacks.push(geom.unslice(line.tag, (i / assoc) as u32));
                self.stats.record_writeback();
            }
            *line = CacheLine::INVALID;
        }
        writebacks
    }

    /// Number of valid lines.
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// The reference trace generator: a [`BenchmarkProfile`] instantiated with
/// the `f64` sampler [`SyntheticTrace`](cmpqos_trace::SyntheticTrace) had
/// before its draws became integer compares. Same seed, same base, same
/// events.
#[derive(Debug, Clone)]
pub struct OracleTrace {
    mem_ratio: f64,
    components: Vec<Component>,
    /// Cumulative normalized weights, same length as `components`.
    cumulative: Vec<f64>,
    /// Per-component region base offsets (bytes, relative to the mixture).
    bases: Vec<u64>,
    /// Per-stream cursors (block index within the region), indexed like
    /// `components`; unused entries stay zero.
    cursors: Vec<u64>,
    rng: StdRng,
    base: u64,
    generated: u64,
}

impl OracleTrace {
    /// The trace `profile.instantiate(seed, base)` generates.
    #[must_use]
    pub fn new(profile: &BenchmarkProfile, seed: u64, base: u64) -> Self {
        let components = profile.components().to_vec();
        let weight = |c: &Component| match c {
            Component::WorkingSet { weight, .. } | Component::Stream { weight, .. } => *weight,
        };
        let mut total_weight = 0.0;
        for c in &components {
            total_weight += weight(c);
        }
        let mut cumulative = Vec::with_capacity(components.len());
        let mut acc = 0.0;
        for c in &components {
            acc += weight(c) / total_weight;
            cumulative.push(acc);
        }
        // Guard against floating-point shortfall on the last bucket.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }

        let mut bases = Vec::with_capacity(components.len());
        let mut offset = 0u64;
        for c in &components {
            bases.push(offset);
            let footprint = match c {
                Component::WorkingSet { size, .. } => *size,
                Component::Stream { region, .. } => *region,
            };
            // Round footprints up to whole blocks and pad with one spacer
            // block so regions never share a block.
            let blocks = footprint.bytes().div_ceil(BLOCK_BYTES) + 1;
            offset += blocks * BLOCK_BYTES;
        }

        let cursors = vec![0u64; components.len()];
        Self {
            mem_ratio: profile.mem_ratio(),
            components,
            cumulative,
            bases,
            cursors,
            rng: StdRng::seed_from_u64(seed),
            base,
            generated: 0,
        }
    }

    /// Number of instruction events generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The next instruction's event.
    pub fn next_instruction(&mut self) -> InstrEvent {
        self.generated += 1;
        if self.rng.gen::<f64>() < self.mem_ratio {
            InstrEvent::memory(self.sample())
        } else {
            InstrEvent::compute()
        }
    }

    fn sample(&mut self) -> Access {
        let u: f64 = self.rng.gen();
        let idx = match self.cumulative.iter().position(|&c| u <= c) {
            Some(i) => i,
            None => self.components.len() - 1,
        };
        let region_base = self.base + self.bases[idx];
        let (addr, write_fraction) = match &self.components[idx] {
            Component::WorkingSet {
                size,
                write_fraction,
                ..
            } => {
                let blocks = size.bytes() / BLOCK_BYTES;
                let blk = self.rng.gen_range(0..blocks.max(1));
                (region_base + blk * BLOCK_BYTES, *write_fraction)
            }
            Component::Stream {
                region,
                write_fraction,
                ..
            } => {
                let blocks = region.bytes() / BLOCK_BYTES;
                let cursor = &mut self.cursors[idx];
                let blk = *cursor;
                *cursor = (*cursor + 1) % blocks.max(1);
                (region_base + blk * BLOCK_BYTES, *write_fraction)
            }
        };
        let kind = if write_fraction > 0.0 && self.rng.gen::<f64>() < write_fraction {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Access::new(addr, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_core::LacConfig;

    fn oracle() -> OracleLac {
        OracleLac::new(LacConfig::default().capacity)
    }

    #[test]
    fn mirrors_simple_fcfs_queueing() {
        let mut o = oracle();
        let mut l = Lac::new(LacConfig::default());
        for i in 0..5u32 {
            let d = l.admit(
                &AdmissionRequest::builder(
                    JobId::new(i),
                    ResourceRequest::paper_job(),
                    Cycles::new(100),
                )
                .deadline(Cycles::new(1_000))
                .build(),
            );
            let e = o.admit(
                JobId::new(i),
                ExecutionMode::Strict,
                ResourceRequest::paper_job(),
                Cycles::new(100),
                Some(Cycles::new(1_000)),
            );
            assert_eq!(d, e, "job {i}");
        }
        assert!(o.table_matches(&l).is_ok());
        assert_eq!(o.first_overbooked_instant(), None);
    }

    #[test]
    fn exhaustive_and_compressed_strategies_agree_by_construction() {
        let mut o = oracle();
        // Build a fragmented timeline, then probe lots of windows; fits_over
        // self-asserts agreement on every small-span call.
        for i in 0..6u32 {
            let _ = o.admit(
                JobId::new(i),
                ExecutionMode::Elastic(cmpqos_types::Percent::new(50.0)),
                ResourceRequest::new(1, Ways::new(5)),
                Cycles::new(37 + u64::from(i) * 13),
                Some(Cycles::new(400)),
            );
        }
        for s in 0..300u64 {
            let _ = o.fits_over(
                &ResourceRequest::paper_job(),
                Cycles::new(s),
                Cycles::new(s + 61),
            );
        }
    }

    #[test]
    fn pid_oracle_mirrors_the_production_step_on_a_hand_stream() {
        use cmpqos_adapt::{pid_step, PidConfig, PidState};
        let config = PidConfig::default();
        let mut st = PidState::default();
        let mut o = OraclePid::new(config);
        for e in [600, 600, -100, 40, -600, 2_000, -2_000, 0, 51, -51, 10_000] {
            assert_eq!(pid_step(&config, &mut st, e), o.step(e), "error {e}");
            assert_eq!(i128::from(st.integral), o.integral());
            assert_eq!(i128::from(st.prev_error), o.prev_error());
            assert_eq!(st.level, o.level());
        }
    }

    #[test]
    fn overbooked_table_is_flagged() {
        let mut o = oracle();
        o.reservations.push(Reservation {
            id: JobId::new(0),
            start: Cycles::new(0),
            end: Cycles::new(100),
            request: ResourceRequest::new(3, Ways::new(10)),
            mode: ExecutionMode::Strict,
            deadline: None,
        });
        o.reservations.push(Reservation {
            id: JobId::new(1),
            start: Cycles::new(50),
            end: Cycles::new(150),
            request: ResourceRequest::new(3, Ways::new(10)),
            mode: ExecutionMode::Strict,
            deadline: None,
        });
        assert_eq!(o.first_overbooked_instant(), Some(Cycles::new(50)));
    }
}
