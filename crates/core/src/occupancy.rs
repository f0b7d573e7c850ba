//! The LAC's reservation table, on two sorted ring buffers.
//!
//! [`ReservationTable`] holds the live reservations the Section 5 FCFS
//! test searches, in two `VecDeque`s, each kept sorted:
//!
//! * **Live reservations** (`live`), keyed by `(end, seq)`, where `seq`
//!   numbers admissions in FCFS order. End order is both the candidate
//!   order of `earliest_start` (capacity only frees when something ends)
//!   and the purge order of `advance`, which pops expired reservations off
//!   the front. FCFS order is rebuilt from `seq` only where a caller asks
//!   for it: [`ReservationTable::to_vec`] and equality.
//! * **The usage step function** (`steps`), keyed by change point: each
//!   entry holds the summed usage over `[at, next change point)` and the
//!   number of live reservations that start or end at `at`, so a change
//!   point leaves with the last reservation that made it.
//!
//! Every point lookup is a binary search; `earliest_start` searches once,
//! then walks one forward cursor through the step function as its
//! candidates ascend. New reservations land near the front
//! (near-term windows) or the back (far-future deadlines), and a ring
//! buffer inserts or removes at index `i` by shifting `min(i, n − i)`
//! entries, so neither end pays for the other. Nothing is allocated per
//! reservation: each buffer grows by doubling and keeps its capacity.
//!
//! Summed usage is a `u64` per component, wider than the request's fields
//! (`u32` cores, `u16` ways and bandwidth), so no table a journal can
//! carry wraps a sum. A request fits where `usage + request ≤ capacity`
//! at that width, and `usage_at` reports a sum past its field's range as
//! the field's maximum.
//!
//! The table is an *index*, not a new algorithm: every query is defined to
//! return the brute-force scan's answer (the testkit's `OracleLac` is the
//! referee). Two equivalences carry that proof:
//!
//! * `fits_over` checks the change points inside the window, a superset
//!   of the brute-force candidate points (which are reservation *starts*
//!   only). The extra end-only points can never flip the answer: between
//!   two consecutive starts the usage only steps *down* (ends subtract
//!   componentwise), so a window that fits at every start also fits at
//!   every end-only point.
//! * `earliest_start` walks `{not_before} ∪ {end points > not_before}` in
//!   ascending order, skipping repeats — the same candidates the brute
//!   force collects, sorts, and dedups.
//!
//! Zero-length reservations (`end == start`, e.g. a `tw = 0` admission)
//! stay in `live` — their end points are still `earliest_start`
//! candidates, matching the brute force — but make no change points,
//! since they never cover an instant.

use crate::lac::Reservation;
use crate::target::ResourceRequest;
use cmpqos_types::{Cycles, JobId, Ways};
use std::collections::VecDeque;

/// Summed usage, one `u64` per component.
#[derive(Debug, Clone, Copy, Default)]
struct Usage {
    cores: u64,
    ways: u64,
    bandwidth: u64,
}

impl Usage {
    fn of(r: &ResourceRequest) -> Self {
        Self {
            cores: u64::from(r.cores()),
            ways: u64::from(r.cache_ways().get()),
            bandwidth: u64::from(r.bandwidth_pct()),
        }
    }

    /// Whether `request` on top of this usage fits `capacity`.
    fn fits(&self, request: &Self, capacity: &Self) -> bool {
        self.cores + request.cores <= capacity.cores
            && self.ways + request.ways <= capacity.ways
            && self.bandwidth + request.bandwidth <= capacity.bandwidth
    }

    fn add(&mut self, r: &ResourceRequest) {
        let r = Self::of(r);
        self.cores += r.cores;
        self.ways += r.ways;
        self.bandwidth += r.bandwidth;
    }

    /// Exact: `r` was added to this sum before and nothing removed it since.
    fn sub(&mut self, r: &ResourceRequest) {
        let r = Self::of(r);
        self.cores -= r.cores;
        self.ways -= r.ways;
        self.bandwidth -= r.bandwidth;
    }

    /// The sum as a request vector, each component capped at its field's
    /// maximum.
    fn saturated(&self) -> ResourceRequest {
        ResourceRequest::new(
            u32::try_from(self.cores).unwrap_or(u32::MAX),
            Ways::new(u16::try_from(self.ways).unwrap_or(u16::MAX)),
        )
        .with_bandwidth(u16::try_from(self.bandwidth).unwrap_or(u16::MAX))
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// FCFS sequence number: ascending admission order, never reused.
    seq: u64,
    reservation: Reservation,
}

/// One point where the usage step function may change value.
#[derive(Debug, Clone, Copy)]
struct Step {
    at: u64,
    /// Total reserved usage over `[at, next step's at)`.
    usage: Usage,
    /// Live reservations whose start or end sits exactly at `at`.
    refs: u32,
}

/// The LAC's live reservations and their usage step function.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReservationTable {
    /// Sorted by `(end, seq)`.
    live: VecDeque<Entry>,
    /// Sorted by `at`.
    steps: VecDeque<Step>,
    next_seq: u64,
}

/// Two tables are equal when their FCFS reservation lists are: `seq`
/// numbering is layout, and a restored table numbers from zero again.
impl PartialEq for ReservationTable {
    fn eq(&self, other: &Self) -> bool {
        self.to_vec() == other.to_vec()
    }
}

impl ReservationTable {
    /// Number of live reservations.
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    /// The live reservations in FCFS (admission) order.
    pub(crate) fn to_vec(&self) -> Vec<Reservation> {
        // A table whose reservations end in admission order needs no sort.
        if self.live.iter().is_sorted_by_key(|e| e.seq) {
            return self.live.iter().map(|e| e.reservation).collect();
        }
        let mut entries: Vec<Entry> = self.live.iter().copied().collect();
        entries.sort_unstable_by_key(|e| e.seq);
        entries.iter().map(|e| e.reservation).collect()
    }

    /// `job`'s earliest-admitted live reservation: a scan, O(n).
    pub(crate) fn reservation(&self, job: JobId) -> Option<Reservation> {
        self.live
            .iter()
            .filter(|e| e.reservation.id == job)
            .min_by_key(|e| e.seq)
            .map(|e| e.reservation)
    }

    /// Inserts a reservation at the back of the FCFS order.
    pub(crate) fn insert(&mut self, reservation: Reservation) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.place(Entry { seq, reservation });
    }

    /// Removes every reservation owned by `job`.
    pub(crate) fn remove_job(&mut self, job: JobId) {
        while let Some(i) = self.live.iter().position(|e| e.reservation.id == job) {
            self.take(i);
        }
    }

    /// Truncates `job`'s reservations to end by `at` (never extending
    /// one), keeping their FCFS positions, then drops every zero-length
    /// reservation in the table.
    pub(crate) fn release(&mut self, job: JobId, at: Cycles) {
        let mut i = 0;
        while i < self.live.len() {
            let (seq, r) = (self.live[i].seq, self.live[i].reservation);
            if r.id == job && r.end > at {
                // The shorter entry sorts at or before `i`, so the entry
                // after it stays at `i + 1`.
                self.take(i);
                let end = r.end.min(at.max(r.start));
                let reservation = Reservation { end, ..r };
                self.place(Entry { seq, reservation });
            }
            i += 1;
        }
        self.live
            .retain(|e| e.reservation.end > e.reservation.start);
    }

    /// Drops every reservation with `end ≤ t`.
    pub(crate) fn purge_through(&mut self, t: Cycles) {
        while self.live.front().is_some_and(|e| e.reservation.end <= t) {
            self.take(0);
        }
    }

    /// Reserved usage at instant `t`: one binary search.
    pub(crate) fn usage_at(&self, t: Cycles) -> ResourceRequest {
        let i = self.steps.partition_point(|s| s.at <= t.get());
        self.usage_before(i).saturated()
    }

    /// Whether `request` fits on top of existing reservations at every
    /// instant of `[start, end)`: the segment holding `start` plus every
    /// change point strictly inside the window.
    pub(crate) fn fits_over(
        &self,
        request: &ResourceRequest,
        start: Cycles,
        end: Cycles,
        capacity: &ResourceRequest,
    ) -> bool {
        let i = self.steps.partition_point(|s| s.at <= start.get());
        self.fits_from(i, &Usage::of(request), start, end, &Usage::of(capacity))
    }

    /// [`Self::fits_over`] with `i`, the number of steps at or before
    /// `start`, already known.
    fn fits_from(
        &self,
        i: usize,
        request: &Usage,
        start: Cycles,
        end: Cycles,
        capacity: &Usage,
    ) -> bool {
        end <= start
            || self.usage_before(i).fits(request, capacity)
                && self
                    .steps
                    .range(i..)
                    .take_while(|s| s.at < end.get())
                    .all(|s| s.usage.fits(request, capacity))
    }

    /// Earliest `s ∈ [not_before, latest_start]` such that `request` fits
    /// over `[s, s+duration)`. Candidates are `not_before` and the
    /// distinct reservation end points after it, in ascending order, so
    /// one forward cursor into the step function finds each candidate's
    /// segment: the walk is linear in the steps it passes, not a binary
    /// search per candidate.
    pub(crate) fn earliest_start(
        &self,
        request: &ResourceRequest,
        duration: Cycles,
        not_before: Cycles,
        latest_start: Cycles,
        capacity: &ResourceRequest,
    ) -> Option<Cycles> {
        let (request, capacity) = (Usage::of(request), Usage::of(capacity));
        // Steps before `i` sit at or before the current candidate.
        let mut i = self.steps.partition_point(|s| s.at <= not_before.get());
        let mut fits = |s: Cycles| {
            while self.steps.get(i).is_some_and(|step| step.at <= s.get()) {
                i += 1;
            }
            self.fits_from(i, &request, s, s + duration, &capacity)
        };
        if not_before <= latest_start && fits(not_before) {
            return Some(not_before);
        }
        let first = self
            .live
            .partition_point(|e| e.reservation.end <= not_before);
        let mut last = not_before;
        for e in self.live.range(first..) {
            let s = e.reservation.end;
            if s == last {
                continue;
            }
            if s > latest_start {
                break;
            }
            if fits(s) {
                return Some(s);
            }
            last = s;
        }
        None
    }

    /// Usage over the segment that ends at step `i` (zero before the
    /// first step).
    fn usage_before(&self, i: usize) -> Usage {
        i.checked_sub(1)
            .map_or_else(Usage::default, |j| self.steps[j].usage)
    }

    /// Puts `e` at its `(end, seq)` position and adds its window to the
    /// step function.
    fn place(&mut self, e: Entry) {
        let key = (e.reservation.end, e.seq);
        let i = self
            .live
            .partition_point(|x| (x.reservation.end, x.seq) < key);
        self.live.insert(i, e);
        let r = e.reservation;
        if r.end > r.start {
            let first = self.boundary(r.start.get());
            let last = self.boundary(r.end.get());
            for step in self.steps.range_mut(first..last) {
                step.usage.add(&r.request);
            }
            self.steps[first].refs += 1;
            self.steps[last].refs += 1;
        }
    }

    /// Takes the entry at `i` out of `live` and its window out of the step
    /// function.
    fn take(&mut self, i: usize) {
        let r = self
            .live
            .remove(i)
            .expect("index inside the table")
            .reservation;
        if r.end > r.start {
            let first = self.steps.partition_point(|s| s.at < r.start.get());
            let last = self.steps.partition_point(|s| s.at < r.end.get());
            for step in self.steps.range_mut(first..last) {
                step.usage.sub(&r.request);
            }
            // `last` first: removing it leaves `first`'s index in place.
            for j in [last, first] {
                self.steps[j].refs -= 1;
                if self.steps[j].refs == 0 {
                    self.steps.remove(j);
                }
            }
        }
    }

    /// Index of the step at `at`, inserting one when there is none: a new
    /// step splits the segment it lands in and inherits its usage.
    fn boundary(&mut self, at: u64) -> usize {
        let i = self.steps.partition_point(|s| s.at < at);
        if self.steps.get(i).is_none_or(|s| s.at != at) {
            let usage = self.usage_before(i);
            self.steps.insert(i, Step { at, usage, refs: 0 });
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::ExecutionMode;

    fn res(id: u32, start: u64, end: u64, cores: u32, ways: u16) -> Reservation {
        Reservation {
            id: JobId::new(id),
            start: Cycles::new(start),
            end: Cycles::new(end),
            request: ResourceRequest::new(cores, Ways::new(ways)),
            mode: ExecutionMode::Strict,
            deadline: None,
        }
    }

    fn zero_usage() -> ResourceRequest {
        ResourceRequest::new(0, Ways::ZERO)
    }

    /// Brute-force mirror of the original `Vec<Reservation>` queries.
    struct BruteForce(Vec<Reservation>);

    impl BruteForce {
        /// Summed cores, ways and bandwidth at `t`, at `u64` width.
        fn sums_at(&self, t: Cycles) -> [u64; 3] {
            self.0
                .iter()
                .filter(|r| r.start <= t && t < r.end)
                .fold([0; 3], |[c, w, b], r| {
                    [
                        c + u64::from(r.request.cores()),
                        w + u64::from(r.request.cache_ways().get()),
                        b + u64::from(r.request.bandwidth_pct()),
                    ]
                })
        }

        fn usage_at(&self, t: Cycles) -> ResourceRequest {
            let [c, w, b] = self.sums_at(t);
            ResourceRequest::new(
                u32::try_from(c).unwrap_or(u32::MAX),
                Ways::new(u16::try_from(w).unwrap_or(u16::MAX)),
            )
            .with_bandwidth(u16::try_from(b).unwrap_or(u16::MAX))
        }

        fn fits_at(
            &self,
            t: Cycles,
            request: &ResourceRequest,
            capacity: &ResourceRequest,
        ) -> bool {
            let [c, w, b] = self.sums_at(t);
            c + u64::from(request.cores()) <= u64::from(capacity.cores())
                && w + u64::from(request.cache_ways().get())
                    <= u64::from(capacity.cache_ways().get())
                && b + u64::from(request.bandwidth_pct()) <= u64::from(capacity.bandwidth_pct())
        }

        fn fits_during(
            &self,
            request: &ResourceRequest,
            start: Cycles,
            end: Cycles,
            capacity: &ResourceRequest,
        ) -> bool {
            if end <= start {
                return true;
            }
            let mut points = vec![start];
            for r in &self.0 {
                if r.start > start && r.start < end {
                    points.push(r.start);
                }
            }
            points.iter().all(|&p| self.fits_at(p, request, capacity))
        }

        fn earliest_start(
            &self,
            request: &ResourceRequest,
            duration: Cycles,
            not_before: Cycles,
            latest_start: Cycles,
            capacity: &ResourceRequest,
        ) -> Option<Cycles> {
            let mut candidates = vec![not_before];
            for r in &self.0 {
                if r.end > not_before {
                    candidates.push(r.end);
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
            candidates
                .into_iter()
                .filter(|&s| s <= latest_start)
                .find(|&s| self.fits_during(request, s, s + duration, capacity))
        }
    }

    /// Tiny deterministic LCG so the comparison sweep needs no RNG crate.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % bound.max(1)
        }
    }

    #[test]
    fn queries_match_the_brute_force_across_mutation_sequences() {
        let capacity = ResourceRequest::new(4, Ways::new(16)).with_bandwidth(100);
        for seed in 0..24u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
            let mut table = ReservationTable::default();
            let mut model: Vec<Reservation> = Vec::new();
            for step in 0..60u32 {
                match rng.next(10) {
                    // Insert (zero-length ~10% of the time via dur == 0).
                    0..=5 => {
                        let start = rng.next(500);
                        let dur = rng.next(120).saturating_sub(10);
                        let r = res(
                            step,
                            start,
                            start + dur,
                            rng.next(3) as u32,
                            rng.next(9) as u16,
                        );
                        table.insert(r);
                        model.push(r);
                    }
                    6 => {
                        let job = JobId::new(rng.next(u64::from(step.max(1))) as u32);
                        table.remove_job(job);
                        model.retain(|r| r.id != job);
                    }
                    7 => {
                        let t = Cycles::new(rng.next(600));
                        table.purge_through(t);
                        model.retain(|r| r.end > t);
                    }
                    8 => {
                        // Truncate one job's reservations to `at`, then
                        // purge zero-length, exactly like `Lac::release`.
                        let job = JobId::new(rng.next(u64::from(step.max(1))) as u32);
                        let at = Cycles::new(rng.next(600));
                        table.release(job, at);
                        for r in &mut model {
                            if r.id == job && r.end > at {
                                r.end = r.end.min(at.max(r.start));
                            }
                        }
                        model.retain(|r| r.end > r.start);
                    }
                    _ => {}
                }
                let brute = BruteForce(model.clone());
                assert_eq!(table.to_vec(), model, "seed {seed} step {step}: order");
                for r in &model {
                    let first = model.iter().find(|m| m.id == r.id).copied();
                    assert_eq!(table.reservation(r.id), first, "seed {seed} step {step}");
                }
                for t in [0, 1, 99, 100, 250, 499, 700] {
                    assert_eq!(
                        table.usage_at(Cycles::new(t)),
                        brute.usage_at(Cycles::new(t)),
                        "seed {seed} step {step}: usage at {t}"
                    );
                }
                let probe = ResourceRequest::new(1, Ways::new(5));
                for (s, e) in [(0, 50), (40, 200), (100, 101), (480, 700), (10, 10)] {
                    assert_eq!(
                        table.fits_over(&probe, Cycles::new(s), Cycles::new(e), &capacity),
                        brute.fits_during(&probe, Cycles::new(s), Cycles::new(e), &capacity),
                        "seed {seed} step {step}: fits over [{s}, {e})"
                    );
                }
                for (nb, ls) in [(0, 1_000), (50, 400), (200, 199), (0, 0)] {
                    assert_eq!(
                        table.earliest_start(
                            &probe,
                            Cycles::new(75),
                            Cycles::new(nb),
                            Cycles::new(ls),
                            &capacity,
                        ),
                        brute.earliest_start(
                            &probe,
                            Cycles::new(75),
                            Cycles::new(nb),
                            Cycles::new(ls),
                            &capacity,
                        ),
                        "seed {seed} step {step}: earliest start [{nb}, {ls}]"
                    );
                }
            }
        }
    }

    #[test]
    fn step_index_collapses_when_reservations_leave() {
        let mut table = ReservationTable::default();
        table.insert(res(0, 0, 100, 1, 4));
        table.insert(res(1, 50, 150, 1, 4));
        assert!(!table.steps.is_empty());
        table.remove_job(JobId::new(0));
        table.remove_job(JobId::new(1));
        assert!(table.steps.is_empty(), "boundaries must refcount to zero");
        assert_eq!(table.len(), 0);
        assert_eq!(table.usage_at(Cycles::new(75)), zero_usage());
    }

    #[test]
    fn zero_length_reservations_index_but_do_not_occupy() {
        let capacity = ResourceRequest::new(4, Ways::new(16));
        let mut table = ReservationTable::default();
        table.insert(res(0, 40, 40, 4, 16));
        // No usage anywhere...
        assert_eq!(table.usage_at(Cycles::new(40)), zero_usage());
        // ...but its end point is still an earliest-start candidate.
        let probe = ResourceRequest::new(1, Ways::new(1));
        assert_eq!(
            table.earliest_start(
                &probe,
                Cycles::new(10),
                Cycles::new(0),
                Cycles::new(1_000),
                &capacity,
            ),
            Some(Cycles::new(0))
        );
        table.release(JobId::new(9), Cycles::ZERO);
        assert_eq!(table.len(), 0);
    }
}
