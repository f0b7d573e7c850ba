//! Per-core cache statistics.

use std::fmt;

/// Access/miss/write-back counters for one core at one cache level.
///
/// # Examples
///
/// ```
/// use cmpqos_cache::CoreCacheStats;
/// let mut s = CoreCacheStats::default();
/// s.record_access(false);
/// s.record_access(true);
/// assert_eq!(s.accesses(), 2);
/// assert_eq!(s.misses(), 1);
/// assert_eq!(s.miss_ratio(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCacheStats {
    accesses: u64,
    misses: u64,
    writebacks: u64,
}

impl CoreCacheStats {
    /// Records one access; `miss` marks it a miss.
    #[inline]
    pub fn record_access(&mut self, miss: bool) {
        self.accesses += 1;
        if miss {
            self.misses += 1;
        }
    }

    /// Records one dirty-line write-back.
    #[inline]
    pub fn record_writeback(&mut self) {
        self.writebacks += 1;
    }

    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.accesses - self.misses
    }

    /// Total write-backs.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Miss ratio (misses / accesses); `0.0` when no accesses were recorded.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Difference since an earlier snapshot (for per-interval statistics).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    #[must_use]
    pub fn delta_since(&self, earlier: &CoreCacheStats) -> CoreCacheStats {
        debug_assert!(self.accesses >= earlier.accesses);
        CoreCacheStats {
            accesses: self.accesses - earlier.accesses,
            misses: self.misses - earlier.misses,
            writebacks: self.writebacks - earlier.writebacks,
        }
    }
}

impl fmt::Display for CoreCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.1}%), {} writebacks",
            self.accesses,
            self.misses,
            self.miss_ratio() * 100.0,
            self.writebacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = CoreCacheStats::default();
        for i in 0..10 {
            s.record_access(i % 2 == 0);
        }
        s.record_writeback();
        assert_eq!(s.accesses(), 10);
        assert_eq!(s.misses(), 5);
        assert_eq!(s.hits(), 5);
        assert_eq!(s.writebacks(), 1);
    }

    #[test]
    fn empty_miss_ratio_is_zero() {
        assert_eq!(CoreCacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn delta_subtracts() {
        let mut s = CoreCacheStats::default();
        s.record_access(true);
        let snap = s;
        s.record_access(false);
        s.record_access(true);
        let d = s.delta_since(&snap);
        assert_eq!(d.accesses(), 2);
        assert_eq!(d.misses(), 1);
    }

    #[test]
    fn display_formats_ratio() {
        let mut s = CoreCacheStats::default();
        s.record_access(true);
        assert!(s.to_string().contains("100.0%"));
    }
}
