//! The private L1 data cache: set-associative, write-back, true LRU.

use crate::config::CacheConfig;
use crate::stats::CoreCacheStats;

/// The tag of an empty line. Blocks are at least 8 bytes, so every real tag
/// is below 2^61 and never equals it.
const EMPTY: u64 = u64::MAX;

/// Outcome of an L1 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Outcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Block byte address of a dirty line evicted by the fill, if any.
    pub writeback: Option<u64>,
}

/// A private, set-associative, write-back, write-allocate LRU cache.
///
/// Misses are filled immediately (the timing cost of the refill is charged
/// by the system model, not here). Context switches may [`L1Cache::flush`]
/// the cache to model cold-start effects for the incoming job.
///
/// The lines are stored as three arrays indexed `set * ways + way`: tags,
/// LRU ticks and dirty bits. An empty line has tag `u64::MAX` and tick 0,
/// below every real tick, so one lowest-tick search finds the first empty
/// way or else the least recently used one.
///
/// # Examples
///
/// ```
/// use cmpqos_cache::{CacheConfig, L1Cache};
///
/// let mut l1 = L1Cache::new(CacheConfig::paper_l1());
/// assert!(!l1.access(0x1000, false).hit); // cold miss
/// assert!(l1.access(0x1000, false).hit); // now resident
/// ```
#[derive(Debug, Clone)]
pub struct L1Cache {
    config: CacheConfig,
    tags: Vec<u64>,
    ticks: Vec<u64>,
    /// Never set on an empty line.
    dirty: Vec<bool>,
    tick: u64,
    stats: CoreCacheStats,
}

impl L1Cache {
    /// Creates an empty cache with the given configuration.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let lines = config.geometry().lines();
        Self {
            config,
            tags: vec![EMPTY; lines],
            ticks: vec![0; lines],
            dirty: vec![false; lines],
            tick: 0,
            stats: CoreCacheStats::default(),
        }
    }

    /// The cache configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CoreCacheStats {
        &self.stats
    }

    /// Performs one access at byte address `addr`; `is_write` marks stores.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> L1Outcome {
        let geom = self.config.geometry();
        let (tag, set) = geom.slice(addr);
        let assoc = usize::from(geom.associativity());
        let base = set as usize * assoc;
        self.tick += 1;

        // A set holds a tag at most once, so the matching way is the OR of
        // every way masked by its comparison: no branch per way.
        let mut hit = false;
        let mut way = 0;
        for (w, &t) in self.tags[base..base + assoc].iter().enumerate() {
            let matched = t == tag;
            hit |= matched;
            way |= w & usize::from(matched).wrapping_neg();
        }
        if hit {
            self.ticks[base + way] = self.tick;
            self.dirty[base + way] |= is_write;
            self.stats.record_access(false);
            return L1Outcome {
                hit: true,
                writeback: None,
            };
        }

        // Miss: the victim is the lowest tick, the first on ties — the
        // first empty way if there is one, else the LRU way.
        self.stats.record_access(true);
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (w, &t) in self.ticks[base..base + assoc].iter().enumerate() {
            let older = t < oldest;
            oldest = if older { t } else { oldest };
            victim = if older { w } else { victim };
        }
        let line = base + victim;
        let writeback = if self.dirty[line] {
            self.stats.record_writeback();
            Some(geom.unslice(self.tags[line], set))
        } else {
            None
        };
        self.tags[line] = tag;
        self.ticks[line] = self.tick;
        self.dirty[line] = is_write;
        L1Outcome {
            hit: false,
            writeback,
        }
    }

    /// Invalidates the whole cache, returning the block addresses of dirty
    /// lines that must be written back (by set, then by way). Models a
    /// context switch where the incoming job finds a cold L1.
    pub fn flush(&mut self) -> Vec<u64> {
        let geom = self.config.geometry();
        let assoc = usize::from(geom.associativity());
        let mut writebacks = Vec::new();
        for (line, (&tag, &dirty)) in self.tags.iter().zip(&self.dirty).enumerate() {
            if dirty {
                writebacks.push(geom.unslice(tag, (line / assoc) as u32));
                self.stats.record_writeback();
            }
        }
        self.tags.fill(EMPTY);
        self.ticks.fill(0);
        self.dirty.fill(false);
        writebacks
    }

    /// Number of currently valid lines (for tests and introspection).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_types::{ByteSize, Cycles};

    fn tiny() -> L1Cache {
        // 2 sets x 2 ways x 64 B = 256 B.
        L1Cache::new(
            CacheConfig::new(
                ByteSize::from_bytes(256),
                2,
                ByteSize::from_bytes(64),
                Cycles::new(1),
            )
            .unwrap(),
        )
    }

    /// Address of block `b` mapping to set `s` in the tiny cache.
    fn addr(s: u64, b: u64) -> u64 {
        (b * 2 + s) * 64
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        assert!(!c.access(addr(0, 0), false).hit);
        assert!(!c.access(addr(0, 1), false).hit);
        // Touch block 0 so block 1 is LRU.
        assert!(c.access(addr(0, 0), false).hit);
        // Fill a third block: evicts block 1.
        assert!(!c.access(addr(0, 2), false).hit);
        assert!(c.access(addr(0, 0), false).hit);
        assert!(!c.access(addr(0, 1), false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(addr(0, 0), true);
        c.access(addr(0, 1), false);
        let out = c.access(addr(0, 2), false); // evicts dirty block 0
        assert_eq!(out.writeback, Some(addr(0, 0)));
        assert_eq!(c.stats().writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(addr(0, 0), false);
        c.access(addr(0, 1), false);
        let out = c.access(addr(0, 2), false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(addr(0, 0), false);
        c.access(addr(0, 0), true); // dirty via write hit
        c.access(addr(0, 1), false);
        let out = c.access(addr(0, 2), false);
        assert_eq!(out.writeback, Some(addr(0, 0)));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(addr(0, 0), false);
        c.access(addr(1, 0), false);
        c.access(addr(0, 1), false);
        c.access(addr(0, 2), false); // evicts within set 0 only
        assert!(c.access(addr(1, 0), false).hit);
    }

    #[test]
    fn flush_empties_and_reports_dirty_blocks() {
        let mut c = tiny();
        c.access(addr(0, 0), true);
        c.access(addr(1, 3), false);
        let wb = c.flush();
        assert_eq!(wb, vec![addr(0, 0)]);
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.access(addr(1, 3), false).hit);
    }

    #[test]
    fn stats_track_accesses_and_misses() {
        let mut c = tiny();
        c.access(addr(0, 0), false);
        c.access(addr(0, 0), false);
        assert_eq!(c.stats().accesses(), 2);
        assert_eq!(c.stats().misses(), 1);
    }
}
