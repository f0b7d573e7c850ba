//! The generic write-ahead journal: schema-versioned, checksummed records
//! with JSONL persistence, torn-tail truncation, and snapshot compaction.

use serde::{Deserialize, Serialize, Value};

/// The journal record schema version. Bumped when the record layout
/// changes; loading rejects records from a newer schema.
///
/// Version 2 checksums the record's `seq` and `version` with its op.
/// Version 1 checksummed the op alone; such records still load, with that
/// checksum.
pub const JOURNAL_VERSION: u32 = 2;

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
// envelope is implemented by hand. Field names are part of the on-disk
// format; changing them is a JOURNAL_VERSION bump.
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

impl<O: Deserialize> Deserialize for JournalRecord<O> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::msg(format!("journal record missing `{name}`")))
        };
        Ok(Self {
            seq: u64::from_value(field("seq")?)?,
            version: u32::from_value(field("version")?)?,
            checksum: u64::from_value(field("checksum")?)?,
            op: O::from_value(field("op")?)?,
        })
    }
}

/// How loading a journal's tail went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailReport {
    /// Records that parsed, checksummed, and sequenced correctly.
    pub valid: u64,
    /// Trailing lines dropped at the first invalid record (torn write,
    /// flipped bits, bad version, out-of-order sequence, or a sequence
    /// number with no successor).
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

    /// The checksum of a record; a version-1 record's covers only its op.
    fn checksum_of(seq: u64, version: u32, op: &O) -> u64 {
        let op = serde_json::to_string(op).expect("journal ops serialize");
        if version == 1 {
            return fnv1a64(op.as_bytes());
        }
        let header = fnv1a64_extend(fnv1a64(&seq.to_le_bytes()), &version.to_le_bytes());
        fnv1a64_extend(header, op.as_bytes())
    }
}

impl<O: Serialize + Deserialize> Journal<O> {
    /// Loads a journal from JSONL, tolerating a torn or corrupted tail:
    /// parsing stops at the first line that fails to parse, carries a
    /// schema version other than 1 or [`JOURNAL_VERSION`], breaks sequence
    /// monotonicity, has no successor sequence number (`seq = u64::MAX`),
    /// or whose checksum does not match. Everything from that line on is
    /// dropped and counted in the [`TailReport`] — never a panic, never an
    /// error.
    #[must_use]
    pub fn from_jsonl(text: &str) -> (Self, TailReport) {
        let mut journal = Self::new();
        let mut report = TailReport::default();
        let lines: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        let mut last_seq: Option<u64> = None;
        for (i, line) in lines.iter().enumerate() {
            let Ok(record) = serde_json::from_str::<JournalRecord<O>>(line) else {
                report.lost = (lines.len() - i) as u64;
                break;
            };
            let valid = matches!(record.version, 1 | JOURNAL_VERSION)
                && last_seq.is_none_or(|prev| record.seq > prev)
                && Self::checksum_of(record.seq, record.version, &record.op) == record.checksum;
            // `seq = u64::MAX` leaves the next append no number, so it ends
            // the valid prefix like any other bad record.
            let Some(next_seq) = record.seq.checked_add(1).filter(|_| valid) else {
                report.lost = (lines.len() - i) as u64;
                break;
            };
            last_seq = Some(record.seq);
            journal.next_seq = next_seq;
            journal.records.push(record);
            report.valid += 1;
        }
        (journal, report)
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
}
