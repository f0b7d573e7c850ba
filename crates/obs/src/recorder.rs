//! Recorder sinks: where events go.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;

use cmpqos_types::Cycles;

use crate::event::{Event, EventKind, Record};
use crate::timeline::Timeline;

/// A sink for [`Event`]s.
///
/// Emitting code holds a `&mut dyn Recorder` (or a generic `R: Recorder`)
/// and calls [`Recorder::record`] at each observable moment. Call sites
/// whose payloads are costly to build (e.g. cloning a partition target
/// vector) should check [`Recorder::enabled`] first: the default
/// [`NullRecorder`] reports `false`, so the disabled path stays free of
/// allocation and formatting.
///
/// Recorders are [`Send`] so a cell (one seeded simulation plus its
/// recorder) can execute on a `cmpqos-engine` worker thread; sinks are
/// still single-owner — parallel cells each record into their own
/// [`ShardRecorder`] and the shards are merged afterwards (see
/// [`merge_shards`]).
pub trait Recorder: Send {
    /// Records that `event` happened at cycle `at`.
    fn record(&mut self, at: Cycles, event: Event);

    /// Whether records are being kept. `false` means [`Recorder::record`]
    /// is a no-op and callers may skip building payloads.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}

    /// The concrete sink as [`Any`](std::any::Any), for recovering it from
    /// a `Box<dyn Recorder>` (e.g. `QosScheduler::take_recorder`). Sinks
    /// that don't opt in return `None` (the default).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn record(&mut self, at: Cycles, event: Event) {
        (**self).record(at, event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn flush(&mut self) {
        (**self).flush();
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
}

impl<R: Recorder + ?Sized> Recorder for Box<R> {
    fn record(&mut self, at: Cycles, event: Event) {
        (**self).record(at, event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn flush(&mut self) {
        (**self).flush();
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn record(&mut self, _at: Cycles, _event: Event) {}

    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// Monotonic per-kind event counts, maintained by every keeping sink.
#[derive(Debug, Default, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Counters {
    /// Experiment cells started.
    pub runs_started: u64,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs rejected.
    pub rejected: u64,
    /// Jobs started on a core.
    pub started: u64,
    /// Auto-downgrades.
    pub downgraded: u64,
    /// Switch-backs to the original mode.
    pub switched_back: u64,
    /// Ways stolen (events, i.e. one way each).
    pub steals_taken: u64,
    /// Steal cancellations returning ways.
    pub steals_returned: u64,
    /// Shadow-tag guard trips.
    pub guard_trips: u64,
    /// L2 repartitions.
    pub partition_changes: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Deadlines missed.
    pub deadlines_missed: u64,
    /// Faults injected.
    pub faults_injected: u64,
    /// Admission probes lost in transit.
    pub probes_lost: u64,
    /// Node health transitions.
    pub node_health_changes: u64,
    /// Jobs placed on a node by the global admission controller.
    pub placed: u64,
    /// Jobs migrated off a dead node.
    pub migrated: u64,
    /// Reservations revoked by capacity loss.
    pub reservations_revoked: u64,
    /// Elastic downgrades absorbing a capacity loss.
    pub downgraded_under_fault: u64,
    /// Admission circuit-breaker trips.
    pub circuits_tripped: u64,
    /// Admission circuit-breaker cooldowns elapsed.
    pub circuits_restored: u64,
    /// Controllers rebuilt from their write-ahead journals.
    pub controllers_recovered: u64,
    /// GAC ↔ node links severed.
    pub links_partitioned: u64,
    /// GAC ↔ node links restored.
    pub links_healed: u64,
    /// Control-plane messages lost in transit.
    pub messages_dropped: u64,
    /// Rejoin reconciliations completed.
    pub reconciled: u64,
    /// Nodes that entered `Live` (joins and completed restarts).
    pub nodes_joined: u64,
    /// Nodes that finished draining and left the cluster.
    pub nodes_drained: u64,
    /// Placed-reservation leases that expired unrenewed.
    pub leases_expired: u64,
    /// Heartbeat acks that renewed a node's leases.
    pub leases_renewed: u64,
    /// Epoch samples above an SLO target.
    pub slo_violations: u64,
    /// Adaptive-control actuator moves.
    pub knob_changes: u64,
}

impl Counters {
    /// Bumps the counter for `kind`.
    pub fn bump(&mut self, kind: EventKind) {
        *self.slot(kind) += 1;
    }

    /// The count for `kind`.
    #[must_use]
    pub fn count(&self, kind: EventKind) -> u64 {
        match kind {
            EventKind::RunStarted => self.runs_started,
            EventKind::Submitted => self.submitted,
            EventKind::Admitted => self.admitted,
            EventKind::Rejected => self.rejected,
            EventKind::Started => self.started,
            EventKind::Downgraded => self.downgraded,
            EventKind::SwitchedBack => self.switched_back,
            EventKind::StealTaken => self.steals_taken,
            EventKind::StealReturned => self.steals_returned,
            EventKind::GuardTripped => self.guard_trips,
            EventKind::PartitionChanged => self.partition_changes,
            EventKind::Completed => self.completed,
            EventKind::DeadlineMissed => self.deadlines_missed,
            EventKind::FaultInjected => self.faults_injected,
            EventKind::ProbeLost => self.probes_lost,
            EventKind::NodeHealthChanged => self.node_health_changes,
            EventKind::Placed => self.placed,
            EventKind::Migrated => self.migrated,
            EventKind::ReservationRevoked => self.reservations_revoked,
            EventKind::DowngradedUnderFault => self.downgraded_under_fault,
            EventKind::CircuitTripped => self.circuits_tripped,
            EventKind::CircuitRestored => self.circuits_restored,
            EventKind::ControllerRecovered => self.controllers_recovered,
            EventKind::LinkPartitioned => self.links_partitioned,
            EventKind::LinkHealed => self.links_healed,
            EventKind::MessageDropped => self.messages_dropped,
            EventKind::Reconciled => self.reconciled,
            EventKind::NodeJoined => self.nodes_joined,
            EventKind::NodeDrained => self.nodes_drained,
            EventKind::LeaseExpired => self.leases_expired,
            EventKind::LeaseRenewed => self.leases_renewed,
            EventKind::SloViolated => self.slo_violations,
            EventKind::KnobChanged => self.knob_changes,
        }
    }

    /// Total events counted.
    #[must_use]
    pub fn total(&self) -> u64 {
        EventKind::ALL.iter().map(|&k| self.count(k)).sum()
    }

    fn slot(&mut self, kind: EventKind) -> &mut u64 {
        match kind {
            EventKind::RunStarted => &mut self.runs_started,
            EventKind::Submitted => &mut self.submitted,
            EventKind::Admitted => &mut self.admitted,
            EventKind::Rejected => &mut self.rejected,
            EventKind::Started => &mut self.started,
            EventKind::Downgraded => &mut self.downgraded,
            EventKind::SwitchedBack => &mut self.switched_back,
            EventKind::StealTaken => &mut self.steals_taken,
            EventKind::StealReturned => &mut self.steals_returned,
            EventKind::GuardTripped => &mut self.guard_trips,
            EventKind::PartitionChanged => &mut self.partition_changes,
            EventKind::Completed => &mut self.completed,
            EventKind::DeadlineMissed => &mut self.deadlines_missed,
            EventKind::FaultInjected => &mut self.faults_injected,
            EventKind::ProbeLost => &mut self.probes_lost,
            EventKind::NodeHealthChanged => &mut self.node_health_changes,
            EventKind::Placed => &mut self.placed,
            EventKind::Migrated => &mut self.migrated,
            EventKind::ReservationRevoked => &mut self.reservations_revoked,
            EventKind::DowngradedUnderFault => &mut self.downgraded_under_fault,
            EventKind::CircuitTripped => &mut self.circuits_tripped,
            EventKind::CircuitRestored => &mut self.circuits_restored,
            EventKind::ControllerRecovered => &mut self.controllers_recovered,
            EventKind::LinkPartitioned => &mut self.links_partitioned,
            EventKind::LinkHealed => &mut self.links_healed,
            EventKind::MessageDropped => &mut self.messages_dropped,
            EventKind::Reconciled => &mut self.reconciled,
            EventKind::NodeJoined => &mut self.nodes_joined,
            EventKind::NodeDrained => &mut self.nodes_drained,
            EventKind::LeaseExpired => &mut self.leases_expired,
            EventKind::LeaseRenewed => &mut self.leases_renewed,
            EventKind::SloViolated => &mut self.slo_violations,
            EventKind::KnobChanged => &mut self.knob_changes,
        }
    }
}

/// Bounded in-memory sink for tests and timeline reconstruction.
///
/// Keeps the **newest** `capacity` records (oldest are dropped and counted
/// in [`RingBufferRecorder::dropped`]); counters keep counting regardless.
#[derive(Debug, Clone)]
pub struct RingBufferRecorder {
    records: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
    counters: Counters,
}

impl RingBufferRecorder {
    /// A ring keeping at most `capacity` records (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            counters: Counters::default(),
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// The retained records as an owned vector, oldest first.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Record> {
        self.records.iter().cloned().collect()
    }

    /// How many old records were evicted to respect the capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The monotonic counters (unaffected by eviction).
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Reconstructs the [`Timeline`] of the retained records.
    #[must_use]
    pub fn timeline(&self) -> Timeline {
        Timeline::from_records(self.records.iter())
    }

    /// Drops all retained records (counters keep their totals).
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

impl Recorder for RingBufferRecorder {
    fn record(&mut self, at: Cycles, event: Event) {
        self.counters.bump(event.kind());
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(Record { at, event });
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Unbounded in-memory sink for one parallel experiment cell.
///
/// Each cell running on a `cmpqos-engine` worker records into its own
/// shard; after the pool drains, the shards are concatenated **in cell
/// order** (never completion order) with [`merge_shards`], reproducing the
/// exact stream a serial run would have written. Within a shard records
/// are already cycle-ordered because the simulation emits them in cycle
/// order.
#[derive(Debug, Default, Clone)]
pub struct ShardRecorder {
    records: Vec<Record>,
    counters: Counters,
}

impl ShardRecorder {
    /// An empty shard.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in emission order.
    #[must_use]
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// The monotonic counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Consumes the shard, yielding its records.
    #[must_use]
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }

    /// Reconstructs the [`Timeline`] of this shard's records.
    #[must_use]
    pub fn timeline(&self) -> Timeline {
        Timeline::from_records(self.records.iter())
    }
}

impl Recorder for ShardRecorder {
    fn record(&mut self, at: Cycles, event: Event) {
        self.counters.bump(event.kind());
        self.records.push(Record { at, event });
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Replays `shards` into `sink` **in shard order**, flushing at the end.
///
/// This is the deterministic merge step of a parallel sweep: shard `i`
/// holds cell `i`'s full event stream (each beginning with its
/// [`Event::RunStarted`] marker), so the merged stream is byte-identical
/// to what a serial run appending cell after cell would have produced,
/// regardless of the order in which the cells actually completed.
pub fn merge_shards<R: Recorder + ?Sized>(shards: Vec<ShardRecorder>, sink: &mut R) {
    for shard in shards {
        for record in shard.into_records() {
            sink.record(record.at, record.event);
        }
    }
    sink.flush();
}

/// Streaming sink: one JSON object per line (JSON Lines).
///
/// Write errors don't panic mid-simulation; they are counted and the sink
/// goes quiet. Check [`JsonlRecorder::write_errors`] when it matters.
#[derive(Debug)]
pub struct JsonlRecorder {
    out: BufWriter<File>,
    counters: Counters,
    write_errors: u64,
}

impl JsonlRecorder {
    /// Creates (truncating) `path` and streams records to it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file can't be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::from_file(File::create(path)?))
    }

    /// Opens `path` for appending, so several experiment cells can share
    /// one event file (each cell starts with an `Event::RunStarted`).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file can't be opened.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::from_file(
            OpenOptions::new().create(true).append(true).open(path)?,
        ))
    }

    fn from_file(file: File) -> Self {
        Self {
            out: BufWriter::new(file),
            counters: Counters::default(),
            write_errors: 0,
        }
    }

    /// The monotonic counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// How many records failed to serialize or write.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }
}

impl Recorder for JsonlRecorder {
    fn record(&mut self, at: Cycles, event: Event) {
        self.counters.bump(event.kind());
        let record = Record { at, event };
        match serde_json::to_string(&record) {
            Ok(line) => {
                if writeln!(self.out, "{line}").is_err() {
                    self.write_errors += 1;
                }
            }
            Err(_) => self.write_errors += 1,
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_types::JobId;

    fn ev(job: u32) -> Event {
        Event::Completed {
            job: JobId::new(job),
            met_deadline: true,
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(Cycles::new(1), ev(1)); // no-op, no panic
    }

    #[test]
    fn ring_buffer_keeps_newest_and_counts_everything() {
        let mut r = RingBufferRecorder::new(2);
        assert!(r.enabled());
        for i in 0..5 {
            r.record(Cycles::new(i), ev(i as u32));
        }
        assert_eq!(r.dropped(), 3);
        let kept: Vec<u64> = r.records().map(|rec| rec.at.get()).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(r.counters().completed, 5);
        assert_eq!(r.counters().total(), 5);
    }

    #[test]
    fn shard_merge_reproduces_serial_order() {
        // Three "cells" record interleaved in time; the merge must honor
        // shard order, not timestamps across shards (each cell restarts
        // its clock, exactly like the experiment runs do).
        let mut shards = vec![
            ShardRecorder::new(),
            ShardRecorder::new(),
            ShardRecorder::new(),
        ];
        for (i, shard) in shards.iter_mut().enumerate() {
            shard.record(
                Cycles::ZERO,
                Event::RunStarted {
                    label: format!("cell{i}"),
                },
            );
            shard.record(Cycles::new(10 + i as u64), ev(i as u32));
        }
        assert_eq!(shards[1].counters().completed, 1);
        assert_eq!(shards[1].timeline().label(), Some("cell1"));
        let mut sink = RingBufferRecorder::new(64);
        merge_shards(shards, &mut sink);
        let labels: Vec<String> = sink
            .records()
            .filter_map(|r| match &r.event {
                Event::RunStarted { label } => Some(label.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(labels, vec!["cell0", "cell1", "cell2"]);
        assert_eq!(sink.counters().total(), 6);
    }

    #[test]
    fn recorders_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ShardRecorder>();
        assert_send::<RingBufferRecorder>();
        assert_send::<JsonlRecorder>();
        assert_send::<Box<dyn Recorder>>();
    }

    #[test]
    fn jsonl_recorder_streams_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("cmpqos-obs-test-{}.jsonl", std::process::id()));
        {
            let mut r = JsonlRecorder::create(&path).unwrap();
            r.record(Cycles::new(5), Event::RunStarted { label: "t".into() });
            r.record(Cycles::new(9), ev(3));
            assert_eq!(r.write_errors(), 0);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<Record> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].at, Cycles::new(9));
        // Appending adds to the same file.
        {
            let mut r = JsonlRecorder::append(&path).unwrap();
            r.record(Cycles::new(11), ev(4));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        let _ = std::fs::remove_file(&path);
    }
}
