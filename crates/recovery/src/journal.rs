//! The generic write-ahead journal: schema-versioned, checksummed records
//! with JSONL persistence, torn-tail truncation, and snapshot compaction;
//! and [`Journaled`], the one wrapper that journals a controller.

use crate::RecoveryReport;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write};

/// The journal record schema version. Bumped when the record layout
/// changes; loading rejects records from a newer schema.
///
/// Version 2 checksums the record's `seq` and `version` with its op.
/// Version 1 checksummed the op alone; such records still load, with that
/// checksum.
pub const JOURNAL_VERSION: u32 = 2;

/// The highest sequence number a loaded record may carry: 2^62. Loading
/// ends the valid prefix at a record past it, so a journal loaded at the
/// cap still has 3 × 2^62 appends before its next sequence number would
/// overflow `u64` — no load followed by appends can panic or reuse a
/// number. A live journal appending a billion records a second takes
/// over 140 years to reach the cap.
pub const MAX_SEQ: u64 = 1 << 62;

/// FNV-1a 64-bit over `bytes` — the record checksum. Chosen because it is
/// dependency-free, deterministic across platforms, and plenty to detect
/// the torn/bit-flipped tails crash recovery must survive (it is *not* a
/// cryptographic integrity guarantee).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv1a(0xcbf2_9ce4_8422_2325).fold(bytes).0
}

/// An FNV-1a 64-bit hash in progress. As a `fmt::Write` sink it folds in
/// whatever is written to it, so JSON is checksummed as it streams out.
#[derive(Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    /// A record checksum before its op: `seq` and `version`
    /// (little-endian), then the op's compact JSON. A version-1 record's
    /// checksum covers only the op.
    fn record(seq: u64, version: u32) -> Self {
        let empty = Self(fnv1a64(&[]));
        if version == 1 {
            return empty;
        }
        empty.fold(&seq.to_le_bytes()).fold(&version.to_le_bytes())
    }

    fn fold(self, bytes: &[u8]) -> Self {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let step = |hash: u64, &b: &u8| (hash ^ u64::from(b)).wrapping_mul(PRIME);
        Self(bytes.iter().fold(self.0, step))
    }
}

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        *self = self.fold(s.as_bytes());
        Ok(())
    }
}

/// One journal record: a sequence-numbered, versioned operation. Written
/// as one JSONL line, whose checksum [`Journal::to_jsonl`] computes as it
/// writes the line; nothing is serialized before then.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord<O> {
    /// Monotonically increasing sequence number (never reset, not even by
    /// compaction — a gap smaller than the last snapshot is impossible).
    pub seq: u64,
    /// Schema version the record was written with.
    pub version: u32,
    /// The journaled operation.
    pub op: O,
}

/// How loading a journal's tail went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailReport {
    /// Records that parsed, checksummed, and sequenced correctly.
    pub valid: u64,
    /// Trailing lines dropped at the first invalid record (torn write,
    /// flipped bits, bad version, out-of-order sequence, or a sequence
    /// number past [`MAX_SEQ`]).
    pub lost: u64,
}

/// An append-only operation journal with snapshot compaction.
///
/// The write-ahead contract is the caller's: append the op **before**
/// mutating in-core state. [`Journal::to_jsonl`] persists; loading with
/// [`Journal::from_jsonl`] truncates at the last valid checksum instead of
/// failing, reporting what was lost.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal<O> {
    records: Vec<JournalRecord<O>>,
    next_seq: u64,
}

impl<O> Default for Journal<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O> Journal<O> {
    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        Self {
            records: Vec::new(),
            next_seq: 0,
        }
    }

    /// All live records (everything since the last compaction).
    #[must_use]
    pub fn records(&self) -> &[JournalRecord<O>] {
        &self.records
    }

    /// Live record count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The sequence number the next append will get.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends `op` as a record and returns its sequence number. Call this
    /// *before* applying the op to in-core state. Nothing is serialized:
    /// [`Journal::to_jsonl`] renders and checksums the op when it writes
    /// it.
    pub fn append(&mut self, op: O) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records.push(JournalRecord {
            seq,
            version: JOURNAL_VERSION,
            op,
        });
        seq
    }

    /// Compaction: replaces every live record with the single `snapshot`
    /// op (sequence numbering continues), so the journal stays bounded.
    pub fn compact(&mut self, snapshot: O) {
        self.records.clear();
        let _ = self.append(snapshot);
    }
}

impl<O: Serialize> Journal<O> {
    /// Serializes the journal as JSONL, one record per line:
    /// `{"seq":…,"version":…,"checksum":…,"op":…}`. Each op is rendered
    /// once, and its checksum folded over those bytes. The field names and
    /// their order are the on-disk format; changing them is a
    /// [`JOURNAL_VERSION`] bump.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut op = String::new();
        for r in &self.records {
            op.clear();
            serde_json::write_compact(&mut op, &r.op.to_value())
                .expect("a String sink never fails");
            let checksum = Fnv1a::record(r.seq, r.version).fold(op.as_bytes()).0;
            writeln!(
                out,
                "{{\"seq\":{},\"version\":{},\"checksum\":{checksum},\"op\":{op}}}",
                r.seq, r.version
            )
            .expect("a String sink never fails");
        }
        out
    }
}

impl<O: Deserialize> Journal<O> {
    /// Loads a journal from JSONL, tolerating a torn or corrupted tail:
    /// parsing stops at the first line that fails to parse, carries a
    /// schema version other than 1 or [`JOURNAL_VERSION`], breaks sequence
    /// monotonicity, carries a sequence number past [`MAX_SEQ`], or whose
    /// checksum does not match. Everything from that line on is dropped
    /// and counted in the [`TailReport`] — never a panic, never an error.
    ///
    /// The checksum is taken over the op as written, before it is read
    /// into `O`, so a field `O` would ignore still fails it. An op this
    /// build serializes differently (a field it no longer has) saves
    /// again with a matching checksum: [`Journal::to_jsonl`] checksums what
    /// it writes.
    #[must_use]
    pub fn from_jsonl(text: &str) -> (Self, TailReport) {
        let mut journal = Self::new();
        let mut report = TailReport::default();
        let lines: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        for (i, line) in lines.iter().enumerate() {
            let after = journal.records.last().map(|r| r.seq);
            let Some(record) = Self::parse_record(line, after) else {
                report.lost = (lines.len() - i) as u64;
                break;
            };
            journal.next_seq = record.seq + 1;
            journal.records.push(record);
            report.valid += 1;
        }
        (journal, report)
    }

    /// One valid record from `line`, whose sequence number must follow
    /// `after`; `None` when anything about it is invalid.
    fn parse_record(line: &str, after: Option<u64>) -> Option<JournalRecord<O>> {
        let record = serde_json::parse(line).ok()?;
        let seq = u64::from_value(record.get("seq")?).ok()?;
        let version = u32::from_value(record.get("version")?).ok()?;
        let checksum = u64::from_value(record.get("checksum")?).ok()?;
        let written = record.get("op")?;
        let mut expected = Fnv1a::record(seq, version);
        serde_json::write_compact(&mut expected, written).ok()?;
        let valid = matches!(version, 1 | JOURNAL_VERSION)
            && after.is_none_or(|prev| seq > prev)
            && seq <= MAX_SEQ
            && expected.0 == checksum;
        if !valid {
            return None;
        }
        Some(JournalRecord {
            seq,
            version,
            op: O::from_value(written).ok()?,
        })
    }
}

/// A controller [`Journaled`] can wrap: the op type its journal holds,
/// the snapshot op, the way back from it, and silent replay.
pub trait Replay: Sized {
    /// One journaled operation: exhaustive over everything that mutates
    /// the controller, so *snapshot + replay* reconstructs its exact state.
    type Op: Serialize + Deserialize + std::fmt::Debug + Clone + PartialEq;

    /// The compaction record: the controller's complete state.
    fn snapshot_op(&self) -> Self::Op;

    /// The controller a snapshot op holds; `None` for any other op.
    fn from_snapshot(op: &Self::Op) -> Option<Self>;

    /// What recovery starts from when no valid snapshot survives.
    fn empty() -> Self;

    /// Applies `op` to drive the controller into its post-op state.
    /// Whatever the op returned (decisions, completions, fault reports)
    /// is discarded, and nothing is recorded: it was acted on before the
    /// crash.
    fn replay(&mut self, op: &Self::Op);
}

/// A controller whose every state-changing operation is appended to a
/// write-ahead [`Journal`] *before* the in-core state mutates.
///
/// The journal starts with a snapshot record and is compacted back down to
/// one snapshot every `compact_every` operations, so its length is bounded
/// by `compact_every + 1` records regardless of run length.
/// [`Journaled::recover`] rebuilds the controller from the serialized
/// journal as *snapshot + replay*. Replay is silent: a controller's
/// behaviour never depends on its recorder, so a recovered controller's
/// subsequent decisions are byte-identical to the uncrashed original's
/// without re-emitting the pre-crash event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Journaled<C: Replay> {
    inner: C,
    journal: Journal<C::Op>,
    compact_every: u64,
    ops_since_snapshot: u64,
}

impl<C: Replay> Journaled<C> {
    /// Wraps `inner`, seeding the journal with a snapshot of its current
    /// state. `compact_every` (clamped to ≥ 1) is the number of operations
    /// between compactions.
    #[must_use]
    pub fn new(inner: C, compact_every: u64) -> Self {
        let mut journal = Journal::new();
        let _ = journal.append(inner.snapshot_op());
        Self {
            inner,
            journal,
            compact_every: compact_every.max(1),
            ops_since_snapshot: 0,
        }
    }

    /// The write-ahead journal.
    #[must_use]
    pub fn journal(&self) -> &Journal<C::Op> {
        &self.journal
    }

    /// Serializes the journal as JSONL — the only thing that needs to
    /// survive a crash.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.journal.to_jsonl()
    }

    /// Rebuilds a controller from a serialized journal: restore the latest
    /// valid snapshot, then replay every operation after it. A torn or
    /// corrupted tail is truncated (never a panic); the dropped-line count
    /// is reported. When no valid snapshot survives at all, recovery
    /// starts from [`Replay::empty`].
    #[must_use = "dropping the report hides how much journaled state was lost"]
    pub fn recover(jsonl: &str, compact_every: u64) -> (Self, RecoveryReport) {
        let (journal, tail) = Journal::<C::Op>::from_jsonl(jsonl);
        let records = journal.records();
        let (mut inner, replay_from) = records
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, r)| C::from_snapshot(&r.op).map(|c| (c, i + 1)))
            .unwrap_or_else(|| (C::empty(), 0));
        for record in &records[replay_from..] {
            inner.replay(&record.op);
        }
        let replayed = (records.len() - replay_from) as u64;
        (
            Self {
                inner,
                journal,
                compact_every: compact_every.max(1),
                ops_since_snapshot: replayed,
            },
            RecoveryReport {
                replayed,
                lost: tail.lost,
            },
        )
    }

    /// The wrapped controller.
    pub(crate) fn inner(&self) -> &C {
        &self.inner
    }

    /// Appends `ops` (write-ahead: the journal sees them before the
    /// controller does), runs `apply` on the controller, then compacts
    /// once enough operations accumulated, so the snapshot reflects the
    /// post-op state.
    pub(crate) fn write_ahead<R>(
        &mut self,
        ops: impl IntoIterator<Item = C::Op>,
        apply: impl FnOnce(&mut C) -> R,
    ) -> R {
        for op in ops {
            let _ = self.journal.append(op);
            self.ops_since_snapshot += 1;
        }
        let outcome = apply(&mut self.inner);
        if self.ops_since_snapshot >= self.compact_every {
            self.journal.compact(self.inner.snapshot_op());
            self.ops_since_snapshot = 0;
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// The oracle for [`Journal::to_jsonl`]: a record's line as the
    /// envelope `Value` through `serde_json::to_string`, its checksum
    /// [`fnv1a64`] over one buffer of `seq` and `version` (little-endian)
    /// and `serde_json::to_string(op)`, or over the op alone at version 1.
    fn oracle_line<O: Serialize>(seq: u64, version: u32, op: &O) -> String {
        let op_text = serde_json::to_string(op).unwrap();
        let mut covered = Vec::new();
        if version != 1 {
            covered.extend(seq.to_le_bytes());
            covered.extend(version.to_le_bytes());
        }
        covered.extend(op_text.as_bytes());
        let envelope = Value::Object(vec![
            ("seq".to_owned(), seq.to_value()),
            ("version".to_owned(), version.to_value()),
            ("checksum".to_owned(), fnv1a64(&covered).to_value()),
            ("op".to_owned(), op.to_value()),
        ]);
        serde_json::to_string(&envelope).unwrap()
    }

    /// Ops that reach every branch of the emitter.
    fn awkward_ops() -> Vec<Value> {
        let text = |s: &str| Value::String(s.to_owned());
        vec![
            text("a \"quoted\" \\ path\\"),
            text("\u{0}\u{1}\u{8}\t\n\u{c}\r\u{1f} end"),
            text("café ∑ 日本 😀"),
            text(""),
            Value::Int(-7),
            Value::Int(i64::MIN),
            Value::UInt(u64::MAX),
            Value::Float(0.25),
            Value::Float(-0.0),
            Value::Float(1e300),
            Value::Float(-2.5e-8),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Null,
            Value::Bool(false),
            Value::Array(vec![]),
            Value::Object(vec![]),
            Value::Array(vec![
                Value::Array(vec![Value::Array(vec![]), Value::UInt(1)]),
                Value::Object(vec![("k\"ey".into(), Value::Object(vec![]))]),
            ]),
            Value::Object(vec![
                (
                    "Advance".into(),
                    Value::Object(vec![("now".into(), Value::UInt(400))]),
                ),
                (
                    "é\n".into(),
                    Value::Array(vec![Value::Float(f64::NAN), Value::Int(-1)]),
                ),
            ]),
        ]
    }

    #[test]
    fn written_lines_match_the_envelope_oracle() {
        let mut j: Journal<Value> = Journal::new();
        for op in awkward_ops() {
            let _ = j.append(op);
        }
        j.compact(Value::Array(awkward_ops()));
        for op in awkward_ops() {
            let _ = j.append(op);
        }
        let text = j.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), j.len());
        for (line, r) in lines.iter().zip(j.records()) {
            assert_eq!(*line, oracle_line(r.seq, r.version, &r.op), "seq {}", r.seq);
        }
        assert!(text.ends_with('\n'));
        let (back, report) = Journal::<Value>::from_jsonl(&text);
        assert_eq!(
            report,
            TailReport {
                valid: j.len() as u64,
                lost: 0
            }
        );
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn a_loaded_version_1_record_is_written_back_as_it_was() {
        let ops = awkward_ops();
        let v1: String = ops
            .iter()
            .enumerate()
            .map(|(seq, op)| oracle_line(seq as u64, 1, op) + "\n")
            .collect();
        let (mut j, report) = Journal::<Value>::from_jsonl(&v1);
        assert_eq!(
            report,
            TailReport {
                valid: ops.len() as u64,
                lost: 0
            }
        );
        assert!(j.records().iter().all(|r| r.version == 1));
        assert_eq!(j.to_jsonl(), v1);
        // An append after a version-1 prefix is written at this version.
        let seq = j.append(Value::UInt(9));
        let text = j.to_jsonl();
        assert_eq!(
            text.lines().last().unwrap(),
            oracle_line(seq, JOURNAL_VERSION, &Value::UInt(9))
        );
        assert_eq!(Journal::<Value>::from_jsonl(&text).1.lost, 0);
    }

    #[test]
    fn the_checksum_sink_folds_what_the_emitter_writes() {
        for op in awkward_ops() {
            let mut sink = Fnv1a(fnv1a64(&[]));
            serde_json::write_compact(&mut sink, &op).unwrap();
            assert_eq!(
                sink.0,
                fnv1a64(serde_json::to_string(&op).unwrap().as_bytes()),
                "{op:?}"
            );
        }
    }

    #[test]
    fn append_roundtrips_through_jsonl() {
        let mut j: Journal<Vec<u32>> = Journal::new();
        assert_eq!(j.append(vec![1, 2, 3]), 0);
        assert_eq!(j.append(vec![]), 1);
        assert_eq!(j.append(vec![9; 40]), 2);
        let (back, report) = Journal::<Vec<u32>>::from_jsonl(&j.to_jsonl());
        assert_eq!(back, j);
        assert_eq!(report, TailReport { valid: 3, lost: 0 });
        assert_eq!(back.next_seq(), 3);
    }

    #[test]
    fn a_torn_tail_truncates_cleanly() {
        let mut j: Journal<String> = Journal::new();
        let _ = j.append("alpha".into());
        let _ = j.append("beta".into());
        let mut text = j.to_jsonl();
        // Tear the last line mid-record, as a crash mid-write would.
        text.truncate(text.len() - 10);
        let (back, report) = Journal::<String>::from_jsonl(&text);
        assert_eq!(back.len(), 1);
        assert_eq!(back.records()[0].op, "alpha");
        assert_eq!(report, TailReport { valid: 1, lost: 1 });
    }

    #[test]
    fn flipped_bits_fail_the_checksum() {
        let mut j: Journal<String> = Journal::new();
        let _ = j.append("alpha".into());
        let _ = j.append("beta".into());
        let corrupt = j.to_jsonl().replace("beta", "betA");
        let (back, report) = Journal::<String>::from_jsonl(&corrupt);
        assert_eq!(back.len(), 1);
        assert_eq!(report.lost, 1);
    }

    #[test]
    fn compaction_bounds_the_journal_and_keeps_sequencing() {
        let mut j: Journal<u64> = Journal::new();
        for n in 0..100 {
            let _ = j.append(n);
        }
        j.compact(999);
        assert_eq!(j.len(), 1);
        assert_eq!(j.records()[0].seq, 100);
        assert_eq!(j.append(7), 101);
        let (back, report) = Journal::<u64>::from_jsonl(&j.to_jsonl());
        assert_eq!(report.valid, 2);
        assert_eq!(back.next_seq(), 102);
    }

    #[test]
    fn future_schema_versions_are_not_replayed() {
        let mut j: Journal<u64> = Journal::new();
        let _ = j.append(1);
        let current = format!("\"version\":{JOURNAL_VERSION}");
        let text = j.to_jsonl().replace(&current, "\"version\":999");
        let (back, report) = Journal::<u64>::from_jsonl(&text);
        assert!(back.is_empty());
        assert_eq!(report.lost, 1);
    }

    #[test]
    fn an_op_written_with_a_retired_field_is_saved_with_a_matching_checksum() {
        // An older build wrote a field this build's op type no longer
        // has: the record is valid as written, and saved as this build
        // writes it, with the checksum of what it saves.
        let written: Value = serde_json::parse(r#"{"Advance":{"now":400,"retired":1}}"#).unwrap();
        let line = oracle_line(0, JOURNAL_VERSION, &written);
        let (loaded, report) = Journal::<crate::LacOp>::from_jsonl(&line);
        assert_eq!(report, TailReport { valid: 1, lost: 0 });
        let saved = loaded.to_jsonl();
        let checksum = |line: &str| serde_json::parse(line).unwrap().get("checksum").cloned();
        assert_ne!(checksum(saved.trim_end()), checksum(&line));
        assert!(!saved.contains("retired"));
        let (again, report) = Journal::<crate::LacOp>::from_jsonl(&saved);
        assert_eq!(report, TailReport { valid: 1, lost: 0 });
        assert_eq!(again, loaded);
    }
}
