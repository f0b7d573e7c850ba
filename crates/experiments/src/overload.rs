//! **Overload** — the admission path under a request flood: an arrival-
//! rate sweep through [`AdmissionIntake`] (bounded queue, per-source token
//! buckets, circuit breaker) in front of a single node's LAC.
//!
//! The paper's admission pipeline assumes requests trickle in; this
//! experiment measures what the overload-protection layer does when they
//! do not. Each swept rate is one independent cell on the `cmpqos-engine`
//! pool; everything inside a cell is clocked by the simulated cycle count
//! (no wall clock, no randomness), so the printed table is byte-identical
//! across machines and pool widths.
//!
//! The shape to expect: at low rates nothing is shed and every feasible
//! request reaches the FCFS test; past the node's service capacity the
//! shed rate climbs (rate limiter and queue bound first, then the breaker
//! as the reject ratio crosses its threshold) while the *accepted*
//! reservations stay identical to a run that was never flooded — shedding
//! is strictly in front of the LAC.

use crate::output::{banner, pct, Table};
use crate::params::ExperimentParams;
use cmpqos_core::{
    AdmissionIntake, AdmissionRequest, IntakeConfig, Lac, LacConfig, ResourceRequest,
};
use cmpqos_obs::NullRecorder;
use cmpqos_types::{Cycles, JobId, NodeId, SourceId};

/// Arrival rates swept, in requests per 1,000 cycles.
pub const RATES: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Simulated horizon of one cell.
const HORIZON: u64 = 200_000;
/// Requested time window of every job.
const TW: u64 = 5_000;
/// Cycles between intake drains (the admission loop's polling period).
const DRAIN_EVERY: u64 = 500;
/// Distinct request sources (tenants) cycling through the stream.
const SOURCES: u32 = 4;

/// One swept rate's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadRow {
    /// Arrival rate, requests per 1,000 cycles.
    pub rate: u64,
    /// Requests offered to the intake.
    pub offered: u64,
    /// Requests the LAC accepted.
    pub admitted: u64,
    /// Drained requests the LAC rejected.
    pub rejected: u64,
    /// Shed with `ShedInfeasible` (slack can fit no timeslot).
    pub shed_infeasible: u64,
    /// Shed by the per-source token bucket.
    pub shed_rate_limited: u64,
    /// Shed by the open circuit breaker.
    pub shed_breaker: u64,
    /// Shed by the bounded queue.
    pub shed_queue_full: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Mean cycles a drained request waited in the intake queue.
    pub avg_wait: f64,
}

impl OverloadRow {
    /// All sheds combined.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed_infeasible + self.shed_rate_limited + self.shed_breaker + self.shed_queue_full
    }

    /// Fraction of offered requests shed before the FCFS test.
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed() as f64 / self.offered as f64
        }
    }
}

/// The intake tuning used by every cell: the default bounded queue and
/// breaker, with the per-source token bucket refilling every 2,000 cycles
/// so a trickle (1–2 requests per 1k cycles across [`SOURCES`] tenants)
/// passes untouched and only genuine floods hit the rate limiter.
fn intake_config() -> IntakeConfig {
    IntakeConfig::builder()
        .refill_interval(Cycles::new(2_000))
        .build()
}

/// The deterministic arrival stream at `rate` requests per 1,000 cycles:
/// single-core 7-way Strict jobs, sources cycling over [`SOURCES`]
/// tenants, each with three windows of deadline slack.
fn arrivals(rate: u64) -> Vec<(Cycles, AdmissionRequest)> {
    let gap = (1_000 / rate.max(1)).max(1);
    (0..)
        .map(|i: u64| i * gap)
        .take_while(|&at| at < HORIZON)
        .enumerate()
        .map(|(i, at)| {
            let at = Cycles::new(at);
            (
                at,
                AdmissionRequest::builder(
                    JobId::new(i as u32),
                    ResourceRequest::paper_job(),
                    Cycles::new(TW),
                )
                .source(SourceId::new(i as u32 % SOURCES))
                .deadline(at + Cycles::new(3 * TW))
                .build(),
            )
        })
        .collect()
}

/// Runs one cell: feeds the `rate` stream through an intake guarding a
/// fresh single-node LAC, draining every `DRAIN_EVERY` cycles.
#[must_use]
pub fn run_cell(rate: u64) -> OverloadRow {
    let mut lac = Lac::new(LacConfig::default());
    let mut intake = AdmissionIntake::new(NodeId::new(0), intake_config());
    let mut pending = arrivals(rate);
    pending.reverse(); // pop() yields earliest-first
    let mut waited_total = 0u64;
    let mut drained_total = 0u64;
    let mut t = 0u64;
    while t <= HORIZON + 3 * TW {
        let now = Cycles::new(t);
        while pending.last().is_some_and(|&(at, _)| at.get() <= t) {
            let (at, req) = pending.pop().expect("checked non-empty");
            let _ = intake.offer(req, at, &mut NullRecorder);
        }
        for d in intake.drain(&mut lac, now, &mut NullRecorder) {
            waited_total += d.waited.get();
            drained_total += 1;
        }
        t += DRAIN_EVERY;
    }
    let s = intake.stats();
    OverloadRow {
        rate,
        offered: s.offered,
        admitted: s.admitted,
        rejected: s.rejected,
        shed_infeasible: s.shed_infeasible,
        shed_rate_limited: s.shed_rate_limited,
        shed_breaker: s.shed_breaker,
        shed_queue_full: s.shed_queue_full,
        breaker_trips: s.breaker_trips,
        avg_wait: if drained_total == 0 {
            0.0
        } else {
            waited_total as f64 / drained_total as f64
        },
    }
}

/// Sweeps [`RATES`] on the engine pool (one cell per rate).
#[must_use]
pub fn run(params: &ExperimentParams) -> Vec<OverloadRow> {
    cmpqos_engine::Engine::new(params.jobs).run(RATES.to_vec(), |_, rate| run_cell(rate))
}

/// Prints the admission-latency / shed-rate table.
pub fn print(rows: &[OverloadRow], params: &ExperimentParams) {
    banner("Overload: admission-path shedding vs arrival rate", params);
    let mut t = Table::new(&[
        "rate (/1k cyc)",
        "offered",
        "admitted",
        "rejected",
        "shed infeasible",
        "shed rate-limit",
        "shed breaker",
        "shed queue-full",
        "trips",
        "shed rate",
        "avg wait (cyc)",
    ]);
    for r in rows {
        t.row_owned(vec![
            r.rate.to_string(),
            r.offered.to_string(),
            r.admitted.to_string(),
            r.rejected.to_string(),
            r.shed_infeasible.to_string(),
            r.shed_rate_limited.to_string(),
            r.shed_breaker.to_string(),
            r.shed_queue_full.to_string(),
            r.breaker_trips.to_string(),
            pct(r.shed_fraction()),
            format!("{:.0}", r.avg_wait),
        ]);
    }
    println!("{}", t.render());
    println!(
        "shape: nothing shed at trickle rates; past node capacity the O(1) shed \
         layers (rate limiter, queue bound, breaker) absorb the flood while \
         accepted reservations stay identical to an unflooded run."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trickle_rates_shed_nothing_and_floods_shed_plenty() {
        let rows = run(&ExperimentParams::quick());
        assert_eq!(rows.len(), RATES.len());
        let low = &rows[0];
        assert_eq!(low.shed(), 0, "trickle rate must not shed: {low:?}");
        assert!(low.admitted > 0);
        let high = rows.last().expect("non-empty sweep");
        assert!(high.shed() > 0, "flood must shed: {high:?}");
        assert!(
            high.breaker_trips >= 1,
            "sustained rejects must trip the breaker: {high:?}"
        );
        // Offered counts scale with the rate; accounting always closes.
        for r in &rows {
            assert_eq!(
                r.offered,
                r.admitted
                    + r.rejected
                    + r.shed_infeasible
                    + r.shed_rate_limited
                    + r.shed_breaker
                    + r.shed_queue_full,
                "unaccounted requests at rate {}",
                r.rate
            );
        }
    }

    #[test]
    fn the_sweep_is_deterministic_at_any_pool_width() {
        let mut serial = ExperimentParams::quick();
        serial.jobs = 1;
        let mut wide = serial.clone();
        wide.jobs = 4;
        assert_eq!(run(&serial), run(&wide));
    }

    #[test]
    fn a_trickle_run_matches_the_unguarded_lac() {
        // At a rate the node absorbs, the intake is invisible: the same
        // stream fed straight to a bare LAC yields identical reservations.
        let row = run_cell(1);
        assert_eq!(row.shed(), 0);
        let mut guarded = Lac::new(LacConfig::default());
        let mut intake = AdmissionIntake::new(NodeId::new(0), intake_config());
        let mut bare = Lac::new(LacConfig::default());
        for (at, req) in arrivals(1) {
            let _ = intake.offer(req, at, &mut NullRecorder);
            let _ = intake.drain(&mut guarded, at, &mut NullRecorder);
            bare.advance(at);
            let _ = bare.admit(&req);
        }
        assert_eq!(guarded.reservations(), bare.reservations());
        assert_eq!(guarded.accepted(), bare.accepted());
    }
}
