//! Utility-based cache partitioning (UCP) — the throughput-optimizing
//! baseline of the paper's related work (Qureshi & Patt, reference \[18\]).
//!
//! UCP does *not* provide QoS: it allocates ways to whoever benefits most,
//! with no per-job guarantee. It is implemented here as a baseline the
//! experiments can compare the QoS framework against, and to demonstrate
//! that the partitioned-L2 substrate supports policies beyond the paper's.
//!
//! Mechanism: each core gets a **utility monitor** (UMON) — a sampled
//! auxiliary tag directory with full LRU stack information. For every hit
//! at stack position `i`, a counter `hits[i]` is incremented; `hits[0..w]`
//! then estimates how many hits the core would get with `w` ways. The
//! **lookahead algorithm** greedily grants ways to the core with the
//! highest marginal utility per way.

use cmpqos_types::Ways;

/// A per-core utility monitor: sampled sets with an LRU stack of
/// `max_ways` tags and per-position hit counters.
///
/// # Examples
///
/// ```
/// use cmpqos_cache::utility::UtilityMonitor;
/// use cmpqos_types::Ways;
///
/// let mut umon = UtilityMonitor::new(Ways::new(4), 64, 8);
/// umon.observe(0, 0x1);
/// umon.observe(0, 0x1); // hit at stack distance 0
/// assert_eq!(umon.hits_with(Ways::new(1)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct UtilityMonitor {
    sample_every: u32,
    max_ways: usize,
    /// Sampled sets: MRU-first tag stacks.
    sets: Vec<Vec<u64>>,
    /// `hits[i]`: hits at LRU stack position `i`.
    hits: Vec<u64>,
    accesses: u64,
}

impl UtilityMonitor {
    /// Creates a monitor able to estimate utilities up to `max_ways`, for
    /// a cache with `sets` sets, sampling every `sample_every`-th set.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(max_ways: Ways, sets: u32, sample_every: u32) -> Self {
        assert!(!max_ways.is_zero(), "need at least one way");
        assert!(sets > 0 && sample_every > 0, "invalid geometry");
        let sampled = sets.div_ceil(sample_every) as usize;
        Self {
            sample_every,
            max_ways: max_ways.as_usize(),
            sets: vec![Vec::new(); sampled],
            hits: vec![0; max_ways.as_usize()],
            accesses: 0,
        }
    }

    /// Feeds one of the core's L2 accesses (set index + block address).
    pub fn observe(&mut self, set: u32, block_addr: u64) {
        if !set.is_multiple_of(self.sample_every) {
            return;
        }
        self.accesses += 1;
        let stack = &mut self.sets[(set / self.sample_every) as usize];
        match stack.iter().position(|&t| t == block_addr) {
            Some(pos) => {
                self.hits[pos] += 1;
                let tag = stack.remove(pos);
                stack.insert(0, tag);
            }
            None => {
                stack.insert(0, block_addr);
                stack.truncate(self.max_ways);
            }
        }
    }

    /// Estimated hits the core would get with an allocation of `ways`
    /// (sampled sets only; scale-invariant for partitioning decisions).
    #[must_use]
    pub fn hits_with(&self, ways: Ways) -> u64 {
        self.hits.iter().take(ways.as_usize()).sum()
    }

    /// Marginal utility of growing from `from` to `to` ways.
    #[must_use]
    pub fn marginal_utility(&self, from: Ways, to: Ways) -> u64 {
        self.hits_with(to).saturating_sub(self.hits_with(from))
    }

    /// Sampled accesses observed.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// The UCP lookahead algorithm: distributes `total` ways across cores by
/// repeatedly granting the block of ways with the highest utility *per
/// way*, guaranteeing each core at least `min_per_core`.
///
/// # Panics
///
/// Panics if the guaranteed minimum exceeds the total.
#[must_use]
pub fn lookahead_partition(
    monitors: &[UtilityMonitor],
    total: Ways,
    min_per_core: Ways,
) -> Vec<Ways> {
    let n = monitors.len();
    assert!(
        min_per_core.get() as usize * n <= total.as_usize(),
        "minimum allocation exceeds capacity"
    );
    let mut alloc = vec![min_per_core; n];
    let mut remaining = total - Ways::new(min_per_core.get() * n as u16);
    while !remaining.is_zero() {
        // For each core, find the best block size and its utility density.
        let mut best: Option<(usize, u16, f64)> = None;
        for (i, m) in monitors.iter().enumerate() {
            let cur = alloc[i];
            let cap = Ways::new(m.max_ways as u16);
            if cur >= cap {
                continue;
            }
            let max_extra = (cap - cur).min(remaining);
            for extra in 1..=max_extra.get() {
                let mu = m.marginal_utility(cur, cur + Ways::new(extra));
                let density = mu as f64 / f64::from(extra);
                if best.is_none_or(|(_, _, d)| density > d) {
                    best = Some((i, extra, density));
                }
            }
        }
        match best {
            Some((i, extra, _)) => {
                alloc[i] += Ways::new(extra);
                remaining -= Ways::new(extra);
            }
            None => break, // everyone saturated; leave the rest unallocated
        }
    }
    // Round-robin any leftovers (cores saturated at max_ways keep theirs).
    let mut i = 0;
    while !remaining.is_zero() && n > 0 {
        alloc[i % n] += Ways::new(1);
        remaining -= Ways::new(1);
        i += 1;
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block address mapping to `set` of 16 sets.
    fn blk(set: u64, b: u64) -> u64 {
        b * 16 + set
    }

    fn fed_monitor(blocks: u64, rounds: u64) -> UtilityMonitor {
        let mut m = UtilityMonitor::new(Ways::new(8), 16, 8);
        for _ in 0..rounds {
            for b in 0..blocks {
                m.observe(0, blk(0, b));
            }
        }
        m
    }

    #[test]
    fn stack_hits_attribute_to_positions() {
        // Cycling 2 blocks: after warm-up, every hit lands at position 1
        // (the other block was touched in between).
        let m = fed_monitor(2, 5);
        assert_eq!(m.hits_with(Ways::new(1)), 0);
        assert_eq!(m.hits_with(Ways::new(2)), 8); // 2*5 accesses - 2 cold
    }

    #[test]
    fn utility_saturates_at_working_set() {
        let m = fed_monitor(3, 10);
        let full = m.hits_with(Ways::new(3));
        assert_eq!(m.hits_with(Ways::new(8)), full, "no gain past the WSS");
        assert_eq!(m.marginal_utility(Ways::new(3), Ways::new(8)), 0);
        assert!(m.marginal_utility(Ways::new(2), Ways::new(3)) > 0);
    }

    #[test]
    fn lookahead_gives_ways_to_the_hungrier_core() {
        // Core 0 cycles 6 blocks (needs 6 ways); core 1 cycles 1 block
        // (needs 1).
        let mut m0 = UtilityMonitor::new(Ways::new(8), 16, 8);
        let mut m1 = UtilityMonitor::new(Ways::new(8), 16, 8);
        for _ in 0..20 {
            for b in 0..6 {
                m0.observe(0, blk(0, b));
            }
            m1.observe(0, blk(0, 100));
        }
        let alloc = lookahead_partition(&[m0, m1], Ways::new(8), Ways::new(1));
        assert_eq!(alloc.iter().copied().sum::<Ways>(), Ways::new(8));
        assert!(
            alloc[0] >= Ways::new(6),
            "hungry core gets its working set: {alloc:?}"
        );
    }

    fn idle_monitors(cores: usize) -> Vec<UtilityMonitor> {
        (0..cores)
            .map(|_| UtilityMonitor::new(Ways::new(16), 16, 8))
            .collect()
    }

    #[test]
    fn lookahead_respects_minimum_and_total() {
        let ms = idle_monitors(4);
        let alloc = lookahead_partition(&ms, Ways::new(16), Ways::new(2));
        assert_eq!(alloc.iter().copied().sum::<Ways>(), Ways::new(16));
        assert!(alloc.iter().all(|w| *w >= Ways::new(2)));
    }

    #[test]
    #[should_panic(expected = "minimum allocation exceeds capacity")]
    fn impossible_minimum_panics() {
        let ms = idle_monitors(4);
        let _ = lookahead_partition(&ms, Ways::new(4), Ways::new(2));
    }

    #[test]
    fn unsampled_sets_ignored() {
        let mut m = UtilityMonitor::new(Ways::new(4), 16, 8);
        m.observe(3, 42);
        assert_eq!(m.accesses(), 0);
    }
}
