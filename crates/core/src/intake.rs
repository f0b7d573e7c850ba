//! Overload protection in front of the LAC: a bounded intake queue with
//! deadline-aware load shedding, a per-source token-bucket rate limiter,
//! and a circuit breaker on the sliding-window reject ratio.
//!
//! The paper's admission pipeline (Section 5) assumes requests arrive at a
//! trickle; under a flood, every hopeless request still costs an O(table)
//! FCFS scan and clogs the queue for feasible ones. [`AdmissionIntake`]
//! sits *in front of* [`Lac::admit`] and sheds in O(1):
//!
//! 1. **Infeasible slack** — a request whose `now + duration > deadline`
//!    can never be placed, so it is rejected with
//!    [`RejectReason::ShedInfeasible`] without touching the table.
//! 2. **Circuit breaker** — when the reject ratio over the last
//!    [`IntakeConfig::breaker_window`] drained decisions crosses
//!    [`IntakeConfig::breaker_threshold_pct`], the breaker opens for
//!    [`IntakeConfig::breaker_cooldown`] cycles and everything is shed
//!    with [`RejectReason::ShedOverload`].
//! 3. **Rate limit** — each [`SourceId`] owns a token bucket
//!    ([`IntakeConfig::bucket_capacity`] tokens, one refilled every
//!    [`IntakeConfig::refill_interval`] cycles); an empty bucket sheds.
//! 4. **Bounded queue** — at most [`IntakeConfig::queue_capacity`]
//!    requests wait; overflow sheds.
//!
//! Everything is clocked by the caller-supplied cycle count — no wall
//! clock, no randomness — so runs replay deterministically. Shedding never
//! touches the LAC: accepted jobs' reservations are bit-identical to a run
//! where the shed requests were never offered (see the crate tests).

use std::collections::{BTreeMap, VecDeque};

use crate::lac::{Decision, Lac, RejectReason};
use cmpqos_obs::{Event, Recorder};
use cmpqos_types::{Cycles, JobId, NodeId, SourceId};

pub use crate::request::AdmissionRequest;

/// What the intake did with an offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a shed request was rejected; dropping the outcome loses the job"]
pub enum IntakeOutcome {
    /// Queued; the next [`AdmissionIntake::drain`] runs the FCFS test.
    Enqueued,
    /// Shed in O(1) with [`RejectReason::ShedOverload`] or
    /// [`RejectReason::ShedInfeasible`]; the LAC never saw it.
    Shed(RejectReason),
}

impl IntakeOutcome {
    /// Whether the request made it into the queue.
    #[must_use]
    pub fn is_enqueued(&self) -> bool {
        matches!(self, IntakeOutcome::Enqueued)
    }
}

/// An admission decision handed back by [`AdmissionIntake::drain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrainedDecision {
    /// The job.
    pub id: JobId,
    /// The LAC's decision (or a drain-time shed).
    pub decision: Decision,
    /// Cycles the request waited in the intake queue.
    pub waited: Cycles,
}

/// Monotonic intake statistics (all cycle-deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntakeStats {
    /// Requests offered to the intake.
    pub offered: u64,
    /// Requests that entered the queue.
    pub enqueued: u64,
    /// Shed because the deadline slack fits no feasible slot.
    pub shed_infeasible: u64,
    /// Shed because the source's token bucket was empty.
    pub shed_rate_limited: u64,
    /// Shed because the circuit breaker was open.
    pub shed_breaker: u64,
    /// Shed because the bounded queue was full.
    pub shed_queue_full: u64,
    /// Drained requests the LAC accepted.
    pub admitted: u64,
    /// Drained requests the LAC rejected (including drain-time sheds).
    pub rejected: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
}

impl IntakeStats {
    /// All sheds combined.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed_infeasible + self.shed_rate_limited + self.shed_breaker + self.shed_queue_full
    }
}

/// Intake configuration.
///
/// Construct with [`IntakeConfig::default`] or [`IntakeConfig::builder`];
/// the struct is `#[non_exhaustive]`, so fields may be added without
/// breaking downstream crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct IntakeConfig {
    /// Bounded intake queue depth.
    pub queue_capacity: usize,
    /// Token-bucket capacity per source (burst size).
    pub bucket_capacity: u32,
    /// One token per source refills every this many cycles.
    pub refill_interval: Cycles,
    /// Sliding window of drained decisions the breaker watches.
    pub breaker_window: usize,
    /// Reject percentage over a full window that trips the breaker.
    pub breaker_threshold_pct: u32,
    /// How long a tripped breaker sheds everything.
    pub breaker_cooldown: Cycles,
}

impl Default for IntakeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 32,
            bucket_capacity: 8,
            refill_interval: Cycles::new(10_000),
            breaker_window: 16,
            breaker_threshold_pct: 75,
            breaker_cooldown: Cycles::new(50_000),
        }
    }
}

impl IntakeConfig {
    /// A fluent builder starting from the defaults.
    #[must_use]
    pub fn builder() -> IntakeConfigBuilder {
        IntakeConfigBuilder {
            config: IntakeConfig::default(),
        }
    }
}

/// Fluent builder for [`IntakeConfig`].
#[derive(Debug, Clone)]
pub struct IntakeConfigBuilder {
    config: IntakeConfig,
}

impl IntakeConfigBuilder {
    /// Sets the bounded queue depth (clamped to at least 1).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the per-source token-bucket capacity (clamped to at least 1).
    #[must_use]
    pub fn bucket_capacity(mut self, tokens: u32) -> Self {
        self.config.bucket_capacity = tokens.max(1);
        self
    }

    /// Sets the per-token refill interval.
    #[must_use]
    pub fn refill_interval(mut self, interval: Cycles) -> Self {
        self.config.refill_interval = interval;
        self
    }

    /// Sets the breaker's sliding-window length (clamped to at least 1).
    #[must_use]
    pub fn breaker_window(mut self, window: usize) -> Self {
        self.config.breaker_window = window.max(1);
        self
    }

    /// Sets the reject percentage that trips the breaker.
    #[must_use]
    pub fn breaker_threshold_pct(mut self, pct: u32) -> Self {
        self.config.breaker_threshold_pct = pct.min(100);
        self
    }

    /// Sets the open-breaker cooldown.
    #[must_use]
    pub fn breaker_cooldown(mut self, cooldown: Cycles) -> Self {
        self.config.breaker_cooldown = cooldown;
        self
    }

    /// Finishes the configuration.
    #[must_use]
    pub fn build(self) -> IntakeConfig {
        self.config
    }
}

#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    tokens: u32,
    last_refill: Cycles,
}

/// The overload-protection layer in front of one node's [`Lac`].
///
/// # Examples
///
/// ```
/// use cmpqos_core::intake::{AdmissionIntake, AdmissionRequest, IntakeConfig};
/// use cmpqos_core::{Lac, LacConfig, ResourceRequest};
/// use cmpqos_obs::NullRecorder;
/// use cmpqos_types::{Cycles, JobId, NodeId};
///
/// let mut lac = Lac::new(LacConfig::default());
/// let mut intake = AdmissionIntake::new(NodeId::new(0), IntakeConfig::default());
/// let req = AdmissionRequest::builder(
///     JobId::new(0),
///     ResourceRequest::paper_job(),
///     Cycles::new(1_000),
/// )
/// .deadline(Cycles::new(10_000))
/// .build();
/// let outcome = intake.offer(req, Cycles::new(0), &mut NullRecorder);
/// assert!(outcome.is_enqueued());
/// let drained = intake.drain(&mut lac, Cycles::new(0), &mut NullRecorder);
/// assert!(drained[0].decision.is_accepted());
/// ```
#[derive(Debug, Clone)]
pub struct AdmissionIntake {
    node: NodeId,
    config: IntakeConfig,
    queue: VecDeque<(AdmissionRequest, Cycles)>,
    buckets: BTreeMap<SourceId, TokenBucket>,
    window: VecDeque<bool>,
    open_until: Option<Cycles>,
    stats: IntakeStats,
}

impl AdmissionIntake {
    /// An empty intake guarding `node`'s LAC.
    #[must_use]
    pub fn new(node: NodeId, config: IntakeConfig) -> Self {
        Self {
            node,
            config,
            queue: VecDeque::with_capacity(config.queue_capacity.min(1_024)),
            buckets: BTreeMap::new(),
            window: VecDeque::with_capacity(config.breaker_window.min(1_024)),
            open_until: None,
            stats: IntakeStats::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> IntakeConfig {
        self.config
    }

    /// Intake statistics so far.
    #[must_use]
    pub fn stats(&self) -> IntakeStats {
        self.stats
    }

    /// Requests currently waiting.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the breaker is open (shedding everything) at `now`.
    #[must_use]
    pub fn breaker_open(&self, now: Cycles) -> bool {
        self.open_until.is_some_and(|until| now < until)
    }

    /// Offers a request at cycle `now`. Every check is O(1); a shed
    /// request is rejected immediately (with a `Rejected` event) and the
    /// LAC never sees it. Checks run in order: infeasible slack, open
    /// breaker, per-source rate limit, queue bound.
    pub fn offer(
        &mut self,
        req: AdmissionRequest,
        now: Cycles,
        recorder: &mut dyn Recorder,
    ) -> IntakeOutcome {
        self.stats.offered += 1;
        self.maybe_restore(now, recorder);

        if let (Some(td), Some(duration)) = (req.deadline, req.mode.reservation_duration(req.tw)) {
            if now + duration > td {
                self.stats.shed_infeasible += 1;
                return self.shed(req.id, RejectReason::ShedInfeasible, now, recorder);
            }
        }
        if self.breaker_open(now) {
            self.stats.shed_breaker += 1;
            return self.shed(req.id, RejectReason::ShedOverload, now, recorder);
        }
        if !self.take_token(req.source, now) {
            self.stats.shed_rate_limited += 1;
            return self.shed(req.id, RejectReason::ShedOverload, now, recorder);
        }
        if self.queue.len() >= self.config.queue_capacity {
            self.stats.shed_queue_full += 1;
            return self.shed(req.id, RejectReason::ShedOverload, now, recorder);
        }
        self.stats.enqueued += 1;
        self.queue.push_back((req, now));
        IntakeOutcome::Enqueued
    }

    /// Drains the whole queue FCFS through `lac` at cycle `now`, feeding
    /// the breaker window with each decision. Consecutive feasible
    /// requests are admitted as one [`Lac::admit_batch`] run, amortizing
    /// the per-decision bookkeeping; decisions and statistics are
    /// bit-identical to draining one request at a time. Requests whose
    /// deadline became infeasible while waiting are shed here (still
    /// O(1), still without an FCFS scan).
    pub fn drain(
        &mut self,
        lac: &mut Lac,
        now: Cycles,
        recorder: &mut dyn Recorder,
    ) -> Vec<DrainedDecision> {
        self.maybe_restore(now, recorder);
        let mut out = Vec::with_capacity(self.queue.len());
        let mut run: Vec<(AdmissionRequest, Cycles)> = Vec::new();
        while let Some((req, offered_at)) = self.queue.pop_front() {
            let infeasible = match (req.deadline, req.mode.reservation_duration(req.tw)) {
                (Some(td), Some(duration)) => now + duration > td,
                _ => false,
            };
            if !infeasible {
                run.push((req, offered_at));
                continue;
            }
            // A drain-time shed ends the current batch run: its decision
            // must land between its neighbours' in FCFS order.
            self.flush_run(lac, &mut run, &mut out, now, recorder);
            self.stats.shed_infeasible += 1;
            if recorder.enabled() {
                recorder.record(
                    now,
                    Event::Rejected {
                        job: req.id,
                        cause: RejectReason::ShedInfeasible.into(),
                    },
                );
            }
            let decision = Decision::Rejected(RejectReason::ShedInfeasible);
            self.stats.rejected += 1;
            self.observe(true, now, recorder);
            out.push(DrainedDecision {
                id: req.id,
                decision,
                waited: now.saturating_sub(offered_at),
            });
        }
        self.flush_run(lac, &mut run, &mut out, now, recorder);
        out
    }

    /// Admits one buffered FCFS run through [`Lac::admit_batch`], then
    /// applies the per-decision bookkeeping (stats, breaker window,
    /// output) in the original queue order.
    fn flush_run(
        &mut self,
        lac: &mut Lac,
        run: &mut Vec<(AdmissionRequest, Cycles)>,
        out: &mut Vec<DrainedDecision>,
        now: Cycles,
        recorder: &mut dyn Recorder,
    ) {
        if run.is_empty() {
            return;
        }
        lac.advance(now);
        let reqs: Vec<AdmissionRequest> = run.iter().map(|&(req, _)| req).collect();
        let decisions = lac.admit_batch(&reqs, recorder);
        for ((req, offered_at), decision) in run.drain(..).zip(decisions) {
            if decision.is_accepted() {
                self.stats.admitted += 1;
            } else {
                self.stats.rejected += 1;
            }
            self.observe(!decision.is_accepted(), now, recorder);
            out.push(DrainedDecision {
                id: req.id,
                decision,
                waited: now.saturating_sub(offered_at),
            });
        }
    }

    fn shed(
        &mut self,
        id: JobId,
        reason: RejectReason,
        now: Cycles,
        recorder: &mut dyn Recorder,
    ) -> IntakeOutcome {
        if recorder.enabled() {
            recorder.record(
                now,
                Event::Rejected {
                    job: id,
                    cause: reason.into(),
                },
            );
        }
        IntakeOutcome::Shed(reason)
    }

    /// Refills `source`'s bucket by elapsed full intervals and takes one
    /// token; `false` when the bucket is empty.
    fn take_token(&mut self, source: SourceId, now: Cycles) -> bool {
        let cap = self.config.bucket_capacity.max(1);
        let interval = self.config.refill_interval.get().max(1);
        let bucket = self.buckets.entry(source).or_insert(TokenBucket {
            tokens: cap,
            last_refill: now,
        });
        let elapsed = now.get().saturating_sub(bucket.last_refill.get());
        let refills = elapsed / interval;
        if refills > 0 {
            bucket.tokens = bucket
                .tokens
                .saturating_add(refills.min(u64::from(cap)) as u32);
            bucket.tokens = bucket.tokens.min(cap);
            // Advance by whole intervals so fractional progress carries.
            bucket.last_refill = Cycles::new(bucket.last_refill.get() + refills * interval);
        }
        if bucket.tokens == 0 {
            return false;
        }
        bucket.tokens -= 1;
        true
    }

    /// Feeds one drained decision into the breaker's sliding window and
    /// trips it when a full window crosses the threshold.
    fn observe(&mut self, rejected: bool, now: Cycles, recorder: &mut dyn Recorder) {
        if self.breaker_open(now) {
            return;
        }
        self.window.push_back(rejected);
        while self.window.len() > self.config.breaker_window {
            let _ = self.window.pop_front();
        }
        if self.window.len() < self.config.breaker_window {
            return;
        }
        let rejects = self.window.iter().filter(|&&r| r).count() as u64;
        let len = self.window.len() as u64;
        if rejects * 100 >= u64::from(self.config.breaker_threshold_pct) * len {
            self.open_until = Some(now + self.config.breaker_cooldown);
            self.stats.breaker_trips += 1;
            self.window.clear();
            if recorder.enabled() {
                recorder.record(
                    now,
                    Event::CircuitTripped {
                        node: self.node,
                        rejected: rejects,
                        window: len,
                    },
                );
            }
        }
    }

    /// Closes the breaker when its cooldown has elapsed.
    fn maybe_restore(&mut self, now: Cycles, recorder: &mut dyn Recorder) {
        if let Some(until) = self.open_until {
            if now >= until {
                self.open_until = None;
                if recorder.enabled() {
                    recorder.record(now, Event::CircuitRestored { node: self.node });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lac::LacConfig;
    use crate::target::ResourceRequest;
    use cmpqos_obs::{NullRecorder, RingBufferRecorder};

    fn req(id: u32, source: u32, tw: u64, td: u64) -> AdmissionRequest {
        AdmissionRequest::builder(
            JobId::new(id),
            ResourceRequest::paper_job(),
            Cycles::new(tw),
        )
        .source(SourceId::new(source))
        .deadline(Cycles::new(td))
        .build()
    }

    fn intake() -> AdmissionIntake {
        AdmissionIntake::new(NodeId::new(0), IntakeConfig::default())
    }

    #[test]
    fn infeasible_slack_is_shed_without_touching_the_lac() {
        let mut lac = Lac::new(LacConfig::default());
        let mut i = intake();
        // Deadline 50 with tw 100: can never fit.
        let out = i.offer(req(0, 0, 100, 50), Cycles::new(0), &mut NullRecorder);
        assert_eq!(out, IntakeOutcome::Shed(RejectReason::ShedInfeasible));
        assert_eq!(lac.admission_tests(), 0);
        assert_eq!(i.stats().shed_infeasible, 1);
        // A feasible request flows through to the LAC.
        let out = i.offer(req(1, 0, 100, 1_000), Cycles::new(0), &mut NullRecorder);
        assert!(out.is_enqueued());
        let drained = i.drain(&mut lac, Cycles::new(0), &mut NullRecorder);
        assert!(drained[0].decision.is_accepted());
        assert_eq!(lac.admission_tests(), 1);
    }

    #[test]
    fn token_bucket_rate_limits_per_source() {
        let cfg = IntakeConfig::builder()
            .bucket_capacity(2)
            .refill_interval(Cycles::new(1_000))
            .queue_capacity(64)
            .build();
        let mut i = AdmissionIntake::new(NodeId::new(0), cfg);
        let mut shed = 0;
        for n in 0..4 {
            let out = i.offer(
                req(n, 7, 100, u64::MAX / 4),
                Cycles::new(0),
                &mut NullRecorder,
            );
            if !out.is_enqueued() {
                shed += 1;
            }
        }
        // Capacity 2: third and fourth burst requests are rate limited.
        assert_eq!(shed, 2);
        assert_eq!(i.stats().shed_rate_limited, 2);
        // A different source has its own bucket.
        let out = i.offer(
            req(9, 8, 100, u64::MAX / 4),
            Cycles::new(0),
            &mut NullRecorder,
        );
        assert!(out.is_enqueued());
        // Tokens refill with time.
        let out = i.offer(
            req(10, 7, 100, u64::MAX / 4),
            Cycles::new(2_000),
            &mut NullRecorder,
        );
        assert!(out.is_enqueued());
    }

    #[test]
    fn full_queue_sheds_overload() {
        let cfg = IntakeConfig::builder()
            .queue_capacity(2)
            .bucket_capacity(16)
            .build();
        let mut i = AdmissionIntake::new(NodeId::new(0), cfg);
        for n in 0..2 {
            assert!(i
                .offer(
                    req(n, n, 100, u64::MAX / 4),
                    Cycles::new(0),
                    &mut NullRecorder
                )
                .is_enqueued());
        }
        let out = i.offer(
            req(5, 5, 100, u64::MAX / 4),
            Cycles::new(0),
            &mut NullRecorder,
        );
        assert_eq!(out, IntakeOutcome::Shed(RejectReason::ShedOverload));
        assert_eq!(i.stats().shed_queue_full, 1);
        assert_eq!(i.queue_len(), 2);
    }

    #[test]
    fn breaker_trips_on_reject_ratio_and_restores_after_cooldown() {
        let cfg = IntakeConfig::builder()
            .breaker_window(4)
            .breaker_threshold_pct(75)
            .breaker_cooldown(Cycles::new(1_000))
            .bucket_capacity(64)
            .queue_capacity(64)
            .build();
        // A 1-core LAC: the first request owns it, everything after is
        // rejected, so the window fills with rejects.
        let mut lac = Lac::new(LacConfig {
            capacity: ResourceRequest::new(1, cmpqos_types::Ways::new(16)),
        });
        let mut i = AdmissionIntake::new(NodeId::new(1), cfg);
        let mut rec = RingBufferRecorder::new(256);
        for n in 0..6 {
            let _ = i.offer(req(n, n, 1_000_000, 1_000_000), Cycles::new(0), &mut rec);
        }
        let drained = i.drain(&mut lac, Cycles::new(0), &mut rec);
        assert_eq!(drained.len(), 6);
        assert!(i.stats().breaker_trips >= 1);
        assert!(i.breaker_open(Cycles::new(500)));
        // Open breaker sheds instantly.
        let out = i.offer(req(50, 50, 100, u64::MAX / 4), Cycles::new(500), &mut rec);
        assert_eq!(out, IntakeOutcome::Shed(RejectReason::ShedOverload));
        assert_eq!(i.stats().shed_breaker, 1);
        // Cooldown elapses: restored, accepts again.
        let out = i.offer(req(51, 51, 100, u64::MAX / 4), Cycles::new(2_000), &mut rec);
        assert!(out.is_enqueued());
        assert_eq!(rec.counters().circuits_tripped, 1);
        assert_eq!(rec.counters().circuits_restored, 1);
    }

    #[test]
    fn accepted_reservations_match_a_run_without_the_shed_requests() {
        // The acceptance invariant: shedding happens strictly before the
        // LAC, so feeding only the enqueued requests to a fresh LAC yields
        // byte-identical reservations.
        let cfg = IntakeConfig::builder()
            .queue_capacity(3)
            .bucket_capacity(2)
            .build();
        let mut i = AdmissionIntake::new(NodeId::new(0), cfg);
        let mut lac = Lac::new(LacConfig::default());
        let requests: Vec<AdmissionRequest> = (0..8).map(|n| req(n, n % 2, 500, 100_000)).collect();
        let mut enqueued = Vec::new();
        for r in &requests {
            if i.offer(*r, Cycles::new(10), &mut NullRecorder)
                .is_enqueued()
            {
                enqueued.push(*r);
            }
        }
        let _ = i.drain(&mut lac, Cycles::new(10), &mut NullRecorder);

        let mut reference = Lac::new(LacConfig::default());
        reference.advance(Cycles::new(10));
        for r in &enqueued {
            let _ = reference.admit(r);
        }
        assert_eq!(lac.reservations(), reference.reservations());
    }
}
