//! The generic write-ahead journal: schema-versioned, checksummed records
//! with JSONL persistence, torn-tail truncation, and snapshot compaction;
//! and [`Journaled`], the one wrapper that journals a controller.

use crate::RecoveryReport;
use serde::{Deserialize, Serialize, Value};

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
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64-bit `hash` over `bytes`.
fn fnv1a64_extend(hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .iter()
        .fold(hash, |hash, &b| (hash ^ u64::from(b)).wrapping_mul(PRIME))
}

/// One journal record: a sequence-numbered, versioned, checksummed
/// operation. Serialized as one JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord<O> {
    /// Monotonically increasing sequence number (never reset, not even by
    /// compaction — a gap smaller than the last snapshot is impossible).
    pub seq: u64,
    /// Schema version the record was written with.
    pub version: u32,
    /// [`fnv1a64`] over `seq` and `version` (little-endian) and the
    /// serialized `op`, computed at append time. A version-1 record's
    /// checksum covers only the serialized `op`.
    pub checksum: u64,
    /// The journaled operation.
    pub op: O,
}

// The vendored serde's derive does not handle generic types, so the record
// envelope is written by hand, and read field by field in
// `Journal::from_jsonl`. Field names are part of the on-disk format;
// changing them is a JOURNAL_VERSION bump.
impl<O: Serialize> Serialize for JournalRecord<O> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seq".to_owned(), self.seq.to_value()),
            ("version".to_owned(), self.version.to_value()),
            ("checksum".to_owned(), self.checksum.to_value()),
            ("op".to_owned(), self.op.to_value()),
        ])
    }
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
}

impl<O: Serialize> Journal<O> {
    /// Appends `op` as a checksummed record and returns its sequence
    /// number. Call this *before* applying the op to in-core state.
    pub fn append(&mut self, op: O) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let checksum = Self::checksum_of(seq, JOURNAL_VERSION, &op);
        self.records.push(JournalRecord {
            seq,
            version: JOURNAL_VERSION,
            checksum,
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

    /// Serializes the journal as JSONL, one record per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&serde_json::to_string(r).expect("journal records serialize"));
            out.push('\n');
        }
        out
    }

    /// The checksum of a record holding `op`.
    fn checksum_of(seq: u64, version: u32, op: &O) -> u64 {
        checksum_over(
            seq,
            version,
            &serde_json::to_string(op).expect("journal ops serialize"),
        )
    }
}

/// The checksum of a record whose op serializes to `op`; a version-1
/// record's covers only its op.
fn checksum_over(seq: u64, version: u32, op: &str) -> u64 {
    if version == 1 {
        return fnv1a64(op.as_bytes());
    }
    let header = fnv1a64_extend(fnv1a64(&seq.to_le_bytes()), &version.to_le_bytes());
    fnv1a64_extend(header, op.as_bytes())
}

impl<O: Serialize + Deserialize> Journal<O> {
    /// Loads a journal from JSONL, tolerating a torn or corrupted tail:
    /// parsing stops at the first line that fails to parse, carries a
    /// schema version other than 1 or [`JOURNAL_VERSION`], breaks sequence
    /// monotonicity, carries a sequence number past [`MAX_SEQ`], or whose
    /// checksum does not match. Everything from that line on is dropped
    /// and counted in the [`TailReport`] — never a panic, never an error.
    ///
    /// The checksum is taken over the op as written, before it is read
    /// into `O`, so a field `O` would ignore still fails it. A valid op
    /// that this build serializes differently (a field it no longer has)
    /// is re-stamped with the checksum of what [`Journal::to_jsonl`] will
    /// write, so a loaded journal saved again still loads.
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
        let valid = matches!(version, 1 | JOURNAL_VERSION)
            && after.is_none_or(|prev| seq > prev)
            && seq <= MAX_SEQ
            && checksum_over(seq, version, &serde_json::to_string(written).ok()?) == checksum;
        if !valid {
            return None;
        }
        let op = O::from_value(written).ok()?;
        let checksum = if op.to_value() == *written {
            checksum
        } else {
            Self::checksum_of(seq, version, &op)
        };
        Some(JournalRecord {
            seq,
            version,
            checksum,
            op,
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
        // writes it.
        let written = r#"{"Advance":{"now":400,"retired":1}}"#;
        let checksum = checksum_over(0, JOURNAL_VERSION, written);
        let line = format!(
            "{{\"seq\":0,\"version\":{JOURNAL_VERSION},\"checksum\":{checksum},\"op\":{written}}}"
        );
        let (loaded, report) = Journal::<crate::LacOp>::from_jsonl(&line);
        assert_eq!(report, TailReport { valid: 1, lost: 0 });
        assert_ne!(loaded.records()[0].checksum, checksum);
        let (again, report) = Journal::<crate::LacOp>::from_jsonl(&loaded.to_jsonl());
        assert_eq!(report, TailReport { valid: 1, lost: 0 });
        assert_eq!(again, loaded);
    }
}
