//! Exact nearest-rank percentile reporting.
//!
//! No sketches and no interpolation: the reporter keeps every latency
//! sample in one flat buffer and answers per-mille quantiles exactly by
//! rank selection, so the reported p999 *is* a latency that some drained
//! request actually waited. A sort-based oracle ([`quantile_sorted`])
//! must agree bit-for-bit on every multiset — including ties, empty, and
//! single-element inputs (`tests/traffic_properties.rs`).

/// An exact percentile reporter over a `u64` latency multiset.
///
/// Recording appends to a `Vec`; a query selects its ranks from one
/// scratch copy with `select_nth_unstable`. Two reporters are equal
/// when they hold the same multiset, in any recording order.
///
/// # Examples
///
/// ```
/// use cmpqos_scenario::PercentileReporter;
/// let mut r = PercentileReporter::default();
/// for v in [3, 1, 2, 2, 9] {
///     r.record(v);
/// }
/// assert_eq!(r.quantile_permille(500), Some(2)); // median
/// assert_eq!(r.quantile_permille(999), Some(9)); // tail
/// ```
#[derive(Debug, Clone, Default)]
pub struct PercentileReporter {
    samples: Vec<u64>,
}

/// Multiset equality: the recording order is not part of the value.
impl PartialEq for PercentileReporter {
    fn eq(&self, other: &Self) -> bool {
        if self.samples.len() != other.samples.len() {
            return false;
        }
        let (mut a, mut b) = (self.samples.clone(), other.samples.clone());
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

impl Eq for PercentileReporter {}

impl PercentileReporter {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The nearest-rank per-mille quantile: the value at (1-based)
    /// rank `⌈q·n / 1000⌉` of the sorted multiset, clamped to rank ≥ 1.
    /// `None` when empty.
    #[must_use]
    pub fn quantile_permille(&self, q: u32) -> Option<u64> {
        self.quantiles([q])[0]
    }

    /// The standard latency summary: p50/p95/p99/p999.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        let [p50, p95, p99, p999] = self.quantiles([500, 950, 990, 999]);
        LatencySummary {
            samples: self.len(),
            p50,
            p95,
            p99,
            p999,
        }
    }

    /// The nearest-rank quantiles for `qs`, which ascend, selected from
    /// one scratch copy: once rank `i` is in place, every later rank lies
    /// in the suffix after it, so each selection partitions only that
    /// suffix.
    fn quantiles<const N: usize>(&self, qs: [u32; N]) -> [Option<u64>; N] {
        debug_assert!(qs.is_sorted(), "ranks must ascend: {qs:?}");
        let n = self.samples.len() as u64;
        if n == 0 {
            return [None; N];
        }
        let mut scratch = self.samples.clone();
        let mut placed = 0;
        qs.map(|q| {
            let rank = ((u128::from(q) * u128::from(n)).div_ceil(1000) as u64).clamp(1, n);
            let i = (rank - 1) as usize;
            let (_, &mut value, _) = scratch[placed..].select_nth_unstable(i - placed);
            placed = i;
            Some(value)
        })
    }
}

/// The p50/p95/p99/p999 of one latency multiset (cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples in the multiset.
    pub samples: u64,
    /// Median (500‰).
    pub p50: Option<u64>,
    /// 95th percentile (950‰).
    pub p95: Option<u64>,
    /// 99th percentile (990‰).
    pub p99: Option<u64>,
    /// 99.9th percentile (999‰).
    pub p999: Option<u64>,
}

impl LatencySummary {
    /// Scales every quantile by `k` — the metamorphic expectation when
    /// all input times scale by `k` (nearest-rank picks the same order
    /// statistic, so the relation is exact).
    #[must_use]
    pub fn scaled(&self, k: u64) -> LatencySummary {
        LatencySummary {
            samples: self.samples,
            p50: self.p50.map(|v| v * k),
            p95: self.p95.map(|v| v * k),
            p99: self.p99.map(|v| v * k),
            p999: self.p999.map(|v| v * k),
        }
    }
}

/// Sort-based oracle: the same nearest-rank quantile computed the naive
/// way. Must match [`PercentileReporter::quantile_permille`] on every
/// input.
#[must_use]
pub fn quantile_sorted(values: &[u64], q: u32) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let rank = ((u128::from(q) * u128::from(n)).div_ceil(1000) as u64).clamp(1, n);
    Some(sorted[(rank - 1) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reporter(values: &[u64]) -> PercentileReporter {
        let mut r = PercentileReporter::default();
        for &v in values {
            r.record(v);
        }
        r
    }

    #[test]
    fn empty_input_has_no_quantiles() {
        let r = PercentileReporter::default();
        assert!(r.is_empty());
        assert_eq!(r.quantile_permille(500), None);
        assert_eq!(r.summary().p999, None);
        assert_eq!(quantile_sorted(&[], 500), None);
    }

    #[test]
    fn single_element_answers_every_quantile() {
        let r = reporter(&[42]);
        for q in [1, 500, 950, 990, 999] {
            assert_eq!(r.quantile_permille(q), Some(42));
            assert_eq!(quantile_sorted(&[42], q), Some(42));
        }
    }

    #[test]
    fn ties_collapse_to_the_tied_value() {
        let r = reporter(&[7, 7, 7, 7, 100]);
        assert_eq!(r.quantile_permille(500), Some(7));
        assert_eq!(r.quantile_permille(990), Some(100));
    }

    #[test]
    fn matches_the_sort_oracle_on_a_fixed_multiset() {
        let values = [5u64, 1, 1, 9, 3, 3, 3, 2, 8, 8, 0, 14];
        let r = reporter(&values);
        for q in [1, 100, 250, 500, 750, 900, 950, 990, 999] {
            assert_eq!(r.quantile_permille(q), quantile_sorted(&values, q), "q={q}");
        }
    }

    #[test]
    fn equality_ignores_the_recording_order() {
        assert_eq!(reporter(&[3, 1, 2]), reporter(&[2, 3, 1]));
        assert_ne!(reporter(&[1, 2]), reporter(&[1, 2, 2]));
        assert_ne!(reporter(&[1, 1, 2]), reporter(&[1, 2, 2]));
        assert_eq!(PercentileReporter::default(), reporter(&[]));
    }

    #[test]
    fn the_summary_selects_each_rank_of_one_multiset() {
        // Ranks 1, 1, 1, 1 (n = 1) up to ranks 500, 950, 990, 999
        // (n = 1,000): repeated and distinct ranks from one scratch copy.
        for n in [1u64, 2, 3, 10, 999, 1_000, 1_001] {
            let values: Vec<u64> = (0..n).map(|i| (i * 7_919) % 1_013).collect();
            let s = reporter(&values).summary();
            let want = |q| quantile_sorted(&values, q);
            assert_eq!(
                [s.p50, s.p95, s.p99, s.p999],
                [want(500), want(950), want(990), want(999)],
                "n={n}"
            );
        }
    }

    #[test]
    fn scaling_the_multiset_scales_the_summary() {
        let values = [4u64, 8, 15, 16, 23, 42];
        let scaled: Vec<u64> = values.iter().map(|v| v * 7).collect();
        assert_eq!(
            reporter(&values).summary().scaled(7),
            reporter(&scaled).summary()
        );
    }
}
