//! Integer fixed-point arrival processes and job-size mixtures.
//!
//! The legacy Poisson stream (`cmpqos_workloads::arrivals`) accumulates
//! inter-arrival gaps in an `f64`, which is deterministic on one
//! platform but one `u.ln()` libm difference away from cross-platform
//! drift. The DSL's streams therefore use pure integer math: uniform
//! Q32 fractions from the seeded RNG, a fixed-point `-ln` computed by
//! repeated squaring, and `u64`/`u128` multiplies — the same seed
//! yields the byte-identical gap sequence everywhere.

use cmpqos_types::Cycles;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `round(ln(2) · 2^32)`.
const LN2_Q32: u64 = 2_977_044_472;

/// `-ln(u / 2^32)` in Q32 fixed point, for `u ∈ [1, 2^32)`.
///
/// Normalizes `u` to a mantissa `m ∈ [0.5, 1)` with one `leading_zeros`
/// (each left shift adds one `ln 2`), then extracts the 32 fractional
/// bits of `-log2(m)` by repeated squaring (Clay Turner's
/// binary-logarithm scheme): squaring the mantissa doubles its log;
/// whenever the square drops below 0.5 the next bit is 1 and the
/// mantissa renormalizes. The loop has no branch: the bit is computed
/// from the square's bit 31 and the mantissa shifts left by it. Only
/// `u64` squarings and one final `u128` multiply — no floating point,
/// no libm.
///
/// Zero is clamped to 1 (the largest representable gap) so callers can
/// feed raw 32-bit draws directly.
///
/// # Examples
///
/// ```
/// use cmpqos_scenario::neg_ln_q32;
/// // -ln(0.5) = ln 2 ≈ 0.6931; Q32: within a few ULP of 2_977_044_472.
/// let got = neg_ln_q32(1 << 31);
/// assert!((got as i64 - 2_977_044_472i64).abs() < 8);
/// ```
#[must_use]
pub fn neg_ln_q32(u: u64) -> u64 {
    let u = u.clamp(1, (1u64 << 32) - 1);
    // `u < 2^32` has at least 32 leading zeros; `k` more put its top bit
    // at bit 31.
    let k = u64::from(u.leading_zeros() - 32);
    let mut m = u << k;
    let mut t = 0u64;
    for _ in 0..32 {
        // `m ∈ [2^31, 2^32)`, so the square fits a `u64` and its top 32
        // bits lie in `[2^30, 2^32)`: bit 31 clear means it fell below
        // 0.5. The shift comes after the truncation, so the new low bit
        // is 0, not the product's bit 31.
        m = (m * m) >> 32;
        let bit = (m >> 31) ^ 1;
        m <<= bit;
        t = (t << 1) | bit;
    }
    k * LN2_Q32 + ((u128::from(t) * u128::from(LN2_Q32)) >> 32) as u64
}

/// How a tier's arrival rate varies over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Constant-rate Poisson arrivals.
    Steady,
    /// Triangle-wave rate modulation with the given period: the
    /// effective rate swings between `(100 - swing)%` and
    /// `(100 + swing)%` of the base rate — a day/night load curve.
    Diurnal {
        /// Full wave period in cycles.
        period: u64,
        /// Peak-to-trough half-swing in percent points (< 100).
        swing_pct: u32,
    },
    /// On-off flash crowds: for the first `on_pct`% of each period the
    /// mean inter-arrival drops to `base / burst_div` (the crowd);
    /// outside the window arrivals fall back to the base rate.
    Bursty {
        /// Full on+off period in cycles.
        period: u64,
        /// Burst-window share of the period in percent points.
        on_pct: u32,
        /// Rate multiplier inside the burst window.
        burst_div: u32,
    },
}

/// A seeded integer-only arrival process: exponential gaps around a
/// (possibly time-modulated) mean inter-arrival.
#[derive(Debug, Clone)]
pub struct TrafficStream {
    base_mean: u64,
    shape: ArrivalShape,
    now: u64,
    rng: StdRng,
}

impl TrafficStream {
    /// Creates a stream with mean inter-arrival `mean` cycles (clamped
    /// to ≥ 1) and the given shape, seeded for reproducibility.
    #[must_use]
    pub fn new(mean: u64, shape: ArrivalShape, seed: u64) -> Self {
        Self {
            base_mean: mean.max(1),
            shape,
            now: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The effective mean inter-arrival at time `now` under the shape's
    /// modulation (integer arithmetic only, result ≥ 1).
    #[must_use]
    fn mean_at(&self, now: u64) -> u64 {
        match self.shape {
            ArrivalShape::Steady => self.base_mean,
            ArrivalShape::Diurnal { period, swing_pct } => {
                let period = period.max(2);
                let swing = u64::from(swing_pct.min(99));
                let phase = now % period;
                let pos = if phase < period / 2 {
                    phase
                } else {
                    period - phase
                };
                // factor ∈ [100 - swing, 100 + swing] percent of rate.
                let factor = (100 - swing) + (4 * swing * pos) / period;
                (self.base_mean * 100 / factor.max(1)).max(1)
            }
            ArrivalShape::Bursty {
                period,
                on_pct,
                burst_div,
            } => {
                let period = period.max(1);
                let phase = now % period;
                if phase * 100 < period * u64::from(on_pct.min(100)) {
                    (self.base_mean / u64::from(burst_div.max(1))).max(1)
                } else {
                    self.base_mean
                }
            }
        }
    }

    /// The next absolute arrival instant. Gaps are
    /// `max(1, (mean · -ln(u)) >> 32)` with `u` a uniform Q32 fraction,
    /// so consecutive arrivals are strictly increasing.
    pub fn next_arrival(&mut self) -> Cycles {
        let u = (self.rng.gen::<u64>() >> 32).max(1);
        let mean = self.mean_at(self.now);
        let gap = ((u128::from(mean) * u128::from(neg_ln_q32(u))) >> 32).max(1) as u64;
        self.now += gap;
        Cycles::new(self.now)
    }
}

/// A heavy-tailed job-size mixture: `base << e` cycles where the
/// geometric exponent `e` grows with probability `tail_pct`% per step,
/// capped at `tail_cap` doublings — a seeded, integer-friendly
/// stand-in for Pareto-like service-time tails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeDist {
    /// The body of the distribution: the minimum job size in cycles.
    pub base: u64,
    /// Per-step doubling probability in percent points.
    pub tail_pct: u32,
    /// Maximum number of doublings (tail truncation).
    pub tail_cap: u32,
}

impl SizeDist {
    /// A fixed-size distribution (no tail).
    #[must_use]
    pub const fn fixed(base: u64) -> Self {
        Self {
            base,
            tail_pct: 0,
            tail_cap: 0,
        }
    }

    /// Draws one job size.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let mut e = 0u32;
        while e < self.tail_cap.min(16) && rng.gen_range(0..100u32) < self.tail_pct.min(99) {
            e += 1;
        }
        self.base.max(1) << e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neg_ln_is_monotonically_decreasing_on_samples() {
        let mut last = u64::MAX;
        for u in [
            1u64,
            1 << 8,
            1 << 16,
            1 << 24,
            1 << 30,
            1 << 31,
            (1 << 32) - 1,
        ] {
            let v = neg_ln_q32(u);
            assert!(v < last, "neg_ln_q32({u}) = {v} not below {last}");
            last = v;
        }
    }

    /// The loop `neg_ln_q32` ran before it became branch-free, kept
    /// verbatim as the oracle for the new one.
    fn neg_ln_q32_branching(u: u64) -> u64 {
        let mut m = u.clamp(1, (1u64 << 32) - 1);
        let mut k = 0u64;
        while m < (1u64 << 31) {
            m <<= 1;
            k += 1;
        }
        let mut t = 0u64;
        for _ in 0..32 {
            m = ((u128::from(m) * u128::from(m)) >> 32) as u64;
            t <<= 1;
            if m < (1u64 << 31) {
                m <<= 1;
                t |= 1;
            }
        }
        k * LN2_Q32 + ((u128::from(t) * u128::from(LN2_Q32)) >> 32) as u64
    }

    #[test]
    fn neg_ln_is_bit_identical_to_the_branching_loop() {
        let edges = [
            0,
            1,
            (1u64 << 31) - 1,
            1 << 31,
            (1u64 << 32) - 1,
            1 << 32,
            u64::MAX,
        ];
        let sweep = (0..=1u64 << 32).step_by(4_099);
        for u in edges.into_iter().chain(sweep) {
            assert_eq!(neg_ln_q32(u), neg_ln_q32_branching(u), "u = {u}");
        }
    }

    #[test]
    fn neg_ln_matches_reference_points() {
        // -ln(2^-k) = k·ln2 exactly.
        for k in 1..30u64 {
            let got = neg_ln_q32(1u64 << (32 - k));
            let want = k * LN2_Q32;
            assert!(got.abs_diff(want) < 64, "k={k}: got {got}, want {want}");
        }
        // -ln(0.75) ≈ 0.287682... → Q32 ≈ 1_235_585_058.
        let got = neg_ln_q32(3 << 30);
        assert!(got.abs_diff(1_235_585_058) < 2_000, "got {got}");
    }

    #[test]
    fn stream_gaps_average_near_the_mean() {
        let mut s = TrafficStream::new(1_000, ArrivalShape::Steady, 7);
        let n = 4_000u64;
        let mut last = 0u64;
        for _ in 0..n {
            last = s.next_arrival().get();
        }
        let mean = last / n;
        assert!(
            (700..1300).contains(&mean),
            "empirical mean {mean} far from 1000"
        );
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let gen = |seed| {
            let mut s = TrafficStream::new(
                500,
                ArrivalShape::Diurnal {
                    period: 10_000,
                    swing_pct: 60,
                },
                seed,
            );
            (0..64).map(|_| s.next_arrival().get()).collect::<Vec<_>>()
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43));
    }

    #[test]
    fn bursty_windows_really_burst() {
        let shape = ArrivalShape::Bursty {
            period: 10_000,
            on_pct: 20,
            burst_div: 10,
        };
        let mut s = TrafficStream::new(800, shape, 3);
        let mut in_window = 0u64;
        let mut total = 0u64;
        loop {
            let at = s.next_arrival().get();
            if at > 100_000 {
                break;
            }
            total += 1;
            if at % 10_000 * 100 < 10_000 * 20 {
                in_window += 1;
            }
        }
        // 20% of the time at 10× the rate should hold well over half
        // of all arrivals.
        assert!(
            in_window * 2 > total,
            "only {in_window}/{total} arrivals inside burst windows"
        );
    }

    #[test]
    fn size_tail_is_capped_and_seeded() {
        let d = SizeDist {
            base: 4,
            tail_pct: 50,
            tail_cap: 6,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let mut max = 0u64;
        for _ in 0..2_000 {
            let s = d.sample(&mut rng);
            assert!((4..=4 << 6).contains(&s));
            max = max.max(s);
        }
        assert!(max > 4, "tail never fired");
    }
}
