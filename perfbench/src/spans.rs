//! Span and count recording from the benchmark's own files: a collecting
//! event sink, a timing `LacBackend` wrapper, a span clock that subtracts
//! its own cost, and process memory.

use cmpqos_core::{AdmissionRequest, Decision, Lac, LacBackend, Reservation};
use cmpqos_obs::{Event, Record, Recorder, ShardRecorder};
use cmpqos_types::{Cycles, JobId};
use std::time::Instant;

/// Resets this process's resident-memory high-water mark to its current
/// resident size, so the next [`peak_rss_mb`] covers only what ran since.
/// Where the kernel lacks the reset, the mark simply keeps growing.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host seconds one empty span costs (two clock reads), the median of many
/// pairs. Subtracted from spans around short calls.
pub fn span_cost() -> f64 {
    let mut samples: Vec<f64> = (0..2_001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times `f` as one span.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// An in-memory sink that keeps every event, for counting by kind and for
/// replaying into the program's own sinks.
#[derive(Debug, Default)]
pub struct Collector {
    pub records: Vec<Record>,
}

impl Recorder for Collector {
    fn record(&mut self, at: Cycles, event: Event) {
        self.records.push(Record { at, event });
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl Collector {
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> u64 {
        self.records.iter().filter(|r| pred(&r.event)).count() as u64
    }
}

/// Host seconds per event to record `records` into the program's
/// in-memory sink, timed as one span over the whole batch.
pub fn replay_into_shard(records: &[Record]) -> f64 {
    let mut shard = ShardRecorder::new();
    let (_, secs) = timed(|| {
        for r in records {
            shard.record(r.at, r.event.clone());
        }
    });
    std::hint::black_box(shard.records().len());
    secs
}

/// Per-backend call counts and summed span time.
#[derive(Debug, Default, Clone, Copy)]
pub struct BackendSpans {
    pub calls: u64,
    pub secs: f64,
    pub decisions: u64,
    pub decision_secs: f64,
    pub accepted: u64,
}

impl BackendSpans {
    pub fn add(&mut self, other: &BackendSpans) {
        self.calls += other.calls;
        self.secs += other.secs;
        self.decisions += other.decisions;
        self.decision_secs += other.decision_secs;
        self.accepted += other.accepted;
    }
}

/// A [`Lac`] behind a span per backend call, for `Cluster::from_backends`.
#[derive(Debug)]
pub struct TimedLac {
    pub lac: Lac,
    pub spans: BackendSpans,
    span_cost: f64,
}

impl TimedLac {
    pub fn new(lac: Lac, span_cost: f64) -> Self {
        Self {
            lac,
            spans: BackendSpans::default(),
            span_cost,
        }
    }

    fn span<T>(&mut self, f: impl FnOnce(&mut Lac) -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f(&mut self.lac);
        let secs = (start.elapsed().as_secs_f64() - self.span_cost).max(0.0);
        self.spans.calls += 1;
        self.spans.secs += secs;
        (out, secs)
    }

    fn decision(&mut self, f: impl FnOnce(&mut Lac) -> Decision) -> Decision {
        let (d, secs) = self.span(f);
        self.spans.decisions += 1;
        self.spans.decision_secs += secs;
        self.spans.accepted += u64::from(d.is_accepted());
        d
    }
}

impl LacBackend for TimedLac {
    fn now(&self) -> Cycles {
        self.lac.now()
    }

    fn advance(&mut self, now: Cycles) {
        self.span(|lac| lac.advance(now));
    }

    fn admit(&mut self, req: &AdmissionRequest) -> Decision {
        self.decision(|lac| lac.admit(req))
    }

    fn readmit(&mut self, r: &Reservation) -> Decision {
        self.decision(|lac| lac.readmit(r))
    }

    fn cancel(&mut self, id: JobId) {
        self.span(|lac| lac.cancel(id));
    }

    fn reservations(&self) -> Vec<Reservation> {
        self.lac.reservations()
    }
}
