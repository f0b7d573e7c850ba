//! Access mixtures: the building blocks of synthetic benchmarks.
//!
//! A benchmark's data-reference behaviour is modelled as a weighted mixture
//! of [`Component`]s laid out in disjoint address regions:
//!
//! * [`Component::WorkingSet`] — uniform random references over a region of a
//!   given size. Under (partitioned) LRU caching, a working set of `S` bytes
//!   granted `A ≤ S` bytes of capacity hits with probability ≈ `A / S`,
//!   which is what makes the aggregate miss-ratio-versus-ways curve
//!   piecewise-smooth and *calibratable* against the paper's Table 1 and
//!   Figure 4.
//! * [`Component::Stream`] — a sequential scan over a large region: always
//!   misses in any realistically sized cache (models streaming benchmarks
//!   like `libquantum`/`milc`, which the paper classifies as insensitive).

use crate::access::{Access, AccessKind};
use cmpqos_types::ByteSize;
use rand::Rng;
use std::fmt;

/// Cache-block size assumed when laying out regions (matches the simulated
/// hierarchy: 64-byte blocks everywhere).
pub const BLOCK_BYTES: u64 = 64;

/// One component of an access mixture.
#[derive(Debug, Clone, PartialEq)]
pub enum Component {
    /// Uniform random references over `size` bytes.
    WorkingSet {
        /// Footprint of the component.
        size: ByteSize,
        /// Fraction of the benchmark's memory accesses that reference this
        /// component (weights need not be normalized; the mixture normalizes).
        weight: f64,
        /// Fraction of the references that are stores.
        write_fraction: f64,
    },
    /// A sequential block-strided scan over `region` bytes, wrapping around.
    Stream {
        /// Length of the scanned region (should exceed any cache of
        /// interest so the scan never fits).
        region: ByteSize,
        /// Fraction of the benchmark's memory accesses from this stream.
        weight: f64,
        /// Fraction of the references that are stores.
        write_fraction: f64,
    },
}

impl Component {
    fn weight(&self) -> f64 {
        match self {
            Component::WorkingSet { weight, .. } | Component::Stream { weight, .. } => *weight,
        }
    }

    fn footprint(&self) -> ByteSize {
        match self {
            Component::WorkingSet { size, .. } => *size,
            Component::Stream { region, .. } => *region,
        }
    }

    fn write_fraction(&self) -> f64 {
        match self {
            Component::WorkingSet { write_fraction, .. }
            | Component::Stream { write_fraction, .. } => *write_fraction,
        }
    }
}

/// A validated, region-laid-out mixture of components ready for sampling.
///
/// It keeps only what [`AccessMixture::sample`] reads, so two mixtures are
/// equal when they sample alike: the same thresholds, regions and stream
/// positions, whatever weights (normalized) produced them.
///
/// # Examples
///
/// ```
/// use cmpqos_trace::{AccessMixture, Component};
/// use cmpqos_types::ByteSize;
/// use rand::SeedableRng;
///
/// let mut mix = AccessMixture::new(&[
///     Component::WorkingSet {
///         size: ByteSize::from_kib(16),
///         weight: 0.9,
///         write_fraction: 0.3,
///     },
///     Component::Stream {
///         region: ByteSize::from_mib(64),
///         weight: 0.1,
///         write_fraction: 0.0,
///     },
/// ])
/// .unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let access = mix.sample(&mut rng, 1 << 40);
/// assert!(access.addr() >= 1 << 40);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccessMixture {
    /// One sampling slot per component, same order.
    slots: Vec<Slot>,
}

/// A component as [`AccessMixture::sample`] reads it: every `f64` compare
/// of a draw is precomputed into a 53-bit integer threshold.
#[derive(Debug, Clone, PartialEq)]
struct Slot {
    /// The draw picks the first slot whose `pick` it does not exceed (the
    /// last slot if none): the cumulative normalized weight through this
    /// component, [`at_most`].
    pick: u64,
    /// Region base offset (bytes, relative to the mixture).
    base: u64,
    /// Whole blocks in the footprint, at least one.
    blocks: u64,
    /// A stream's next block, below `blocks`; `None` for a working set.
    cursor: Option<u64>,
    /// The write fraction, [`below`]. Zero (a fraction of zero) takes no
    /// draw at all.
    write_below: u64,
}

/// `2⁵³`: `gen::<f64>()` is a 53-bit draw `x` times `2⁻⁵³`.
const UNIT: f64 = (1u64 << 53) as f64;

/// One 53-bit draw: the word that `gen::<f64>()` would scale into `[0, 1)`.
pub(crate) fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    rng.next_u64() >> 11
}

/// The threshold of `gen::<f64>() < p`: `x·2⁻⁵³ < p` iff `x < below(p)`,
/// since `p·2⁵³` is exact and `x` is an integer.
pub(crate) fn below(p: f64) -> u64 {
    // Saturating: NaN and negatives give 0 (never), past 2^64 gives MAX.
    (p * UNIT).ceil() as u64
}

/// The threshold of `gen::<f64>() <= c` for `c >= 0`: `x·2⁻⁵³ <= c` iff
/// `x <= at_most(c)`.
pub(crate) fn at_most(c: f64) -> u64 {
    (c * UNIT).floor() as u64
}

/// Error building an [`AccessMixture`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixtureError {
    /// The component list was empty.
    Empty,
    /// A weight or write fraction was negative, non-finite, or (for write
    /// fractions) greater than one; or all weights were zero.
    InvalidParameter(&'static str),
    /// A component footprint was smaller than one cache block.
    FootprintTooSmall,
}

impl fmt::Display for MixtureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixtureError::Empty => f.write_str("mixture has no components"),
            MixtureError::InvalidParameter(what) => {
                write!(f, "invalid mixture parameter: {what}")
            }
            MixtureError::FootprintTooSmall => {
                f.write_str("component footprint is smaller than one cache block")
            }
        }
    }
}

impl std::error::Error for MixtureError {}

impl AccessMixture {
    /// Builds a mixture, validating parameters and laying out each
    /// component's region back-to-back (block aligned) in a private address
    /// space starting at offset zero.
    ///
    /// # Errors
    ///
    /// Returns [`MixtureError`] if the list is empty, weights are invalid, or
    /// a footprint is smaller than a cache block.
    pub fn new(components: &[Component]) -> Result<Self, MixtureError> {
        if components.is_empty() {
            return Err(MixtureError::Empty);
        }
        let mut total_weight = 0.0;
        for c in components {
            let w = c.weight();
            if !w.is_finite() || w < 0.0 {
                return Err(MixtureError::InvalidParameter("weight"));
            }
            let wf = c.write_fraction();
            if !wf.is_finite() || !(0.0..=1.0).contains(&wf) {
                return Err(MixtureError::InvalidParameter("write_fraction"));
            }
            if c.footprint().bytes() < BLOCK_BYTES {
                return Err(MixtureError::FootprintTooSmall);
            }
            total_weight += w;
        }
        if total_weight <= 0.0 {
            return Err(MixtureError::InvalidParameter("all weights zero"));
        }

        let mut slots = Vec::with_capacity(components.len());
        let mut acc = 0.0;
        let mut offset = 0u64;
        for c in components {
            acc += c.weight() / total_weight;
            let footprint = c.footprint().bytes();
            slots.push(Slot {
                pick: at_most(acc),
                base: offset,
                blocks: (footprint / BLOCK_BYTES).max(1),
                cursor: matches!(c, Component::Stream { .. }).then_some(0),
                write_below: below(c.write_fraction()),
            });
            // Round footprints up to whole blocks and pad with one spacer
            // block so regions never share a block.
            offset += (footprint.div_ceil(BLOCK_BYTES) + 1) * BLOCK_BYTES;
        }
        Ok(Self { slots })
    }

    /// Samples one access. `base` is the job's address-space base, added to
    /// the mixture-relative address so concurrently running jobs never alias.
    ///
    /// Draws one word for the component, one more for a working set's
    /// block, and one more for the access kind unless the component's write
    /// fraction is zero.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, base: u64) -> Access {
        let x = draw(rng);
        let last = self.slots.len() - 1;
        let idx = self.slots.iter().position(|s| x <= s.pick).unwrap_or(last);
        let slot = &mut self.slots[idx];
        let blk = match &mut slot.cursor {
            None => rng.gen_range(0..slot.blocks),
            Some(cursor) => {
                let blk = *cursor;
                *cursor = if blk + 1 == slot.blocks { 0 } else { blk + 1 };
                blk
            }
        };
        let kind = if slot.write_below != 0 && draw(rng) < slot.write_below {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Access::new(base + slot.base + blk * BLOCK_BYTES, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ws(kib: u64, weight: f64) -> Component {
        Component::WorkingSet {
            size: ByteSize::from_kib(kib),
            weight,
            write_fraction: 0.25,
        }
    }

    #[test]
    fn rejects_empty_and_bad_params() {
        assert_eq!(AccessMixture::new(&[]), Err(MixtureError::Empty));
        assert!(matches!(
            AccessMixture::new(&[ws(16, -1.0)]),
            Err(MixtureError::InvalidParameter("weight"))
        ));
        assert!(matches!(
            AccessMixture::new(&[Component::WorkingSet {
                size: ByteSize::from_kib(16),
                weight: 1.0,
                write_fraction: 2.0,
            }]),
            Err(MixtureError::InvalidParameter("write_fraction"))
        ));
        assert!(matches!(
            AccessMixture::new(&[ws(16, 0.0)]),
            Err(MixtureError::InvalidParameter("all weights zero"))
        ));
        assert!(matches!(
            AccessMixture::new(&[Component::WorkingSet {
                size: ByteSize::from_bytes(8),
                weight: 1.0,
                write_fraction: 0.0,
            }]),
            Err(MixtureError::FootprintTooSmall)
        ));
    }

    #[test]
    fn regions_are_disjoint() {
        let mut mix = AccessMixture::new(&[ws(1, 0.5), ws(1, 0.5)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let first_region = 0..1024u64;
        let mut seen_second = false;
        for _ in 0..1000 {
            let a = mix.sample(&mut rng, 0);
            if !first_region.contains(&a.addr()) {
                // Second region starts after the first's padded footprint.
                assert!(a.addr() >= 1024 + 64);
                seen_second = true;
            }
        }
        assert!(seen_second);
    }

    #[test]
    fn weights_control_sampling_ratio() {
        let mut mix = AccessMixture::new(&[ws(1, 0.9), ws(1, 0.1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut first = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if mix.sample(&mut rng, 0).addr() < 1024 {
                first += 1;
            }
        }
        let frac = first as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn stream_is_sequential_and_wraps() {
        let mut mix = AccessMixture::new(&[Component::Stream {
            region: ByteSize::from_bytes(3 * BLOCK_BYTES),
            weight: 1.0,
            write_fraction: 0.0,
        }])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let addrs: Vec<u64> = (0..4).map(|_| mix.sample(&mut rng, 0).addr()).collect();
        assert_eq!(addrs, vec![0, 64, 128, 0]);
    }

    #[test]
    fn base_offsets_all_addresses() {
        let mut mix = AccessMixture::new(&[ws(1, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let a = mix.sample(&mut rng, 1 << 40);
        assert!(a.addr() >= 1 << 40);
    }

    #[test]
    fn write_fraction_statistics() {
        let mut mix = AccessMixture::new(&[ws(4, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let writes = (0..n)
            .filter(|_| mix.sample(&mut rng, 0).is_write())
            .count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    /// What `gen::<f64>()` returns for the 53-bit draw `x`.
    fn unit(x: u64) -> f64 {
        x as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[test]
    fn thresholds_split_the_draws_where_the_f64_compares_do() {
        let top = 1u64 << 53;
        let mut rng = StdRng::seed_from_u64(11);
        let mut values = vec![
            0.0,
            unit(1),
            unit(2),
            0.1,
            0.25,
            0.3,
            1.0 / 3.0,
            0.5,
            0.985,
            unit(top - 1),
            1.0,
        ];
        values.extend((0..10_000).map(|_| rng.gen::<f64>()));
        values.extend((0..10_000).map(|_| unit(rng.gen_range(0..top))));
        for v in values {
            // `x < below(v)` iff `unit(x) < v`: true at T - 1, false at T.
            let t = below(v);
            assert!(t == 0 || unit(t - 1) < v, "below({v}) = {t}");
            assert!(unit(t) >= v, "below({v}) = {t}");
            // `x <= at_most(v)` iff `unit(x) <= v`: true at T - 1 and T,
            // false at T + 1 (draws stop below 2^53).
            let t = at_most(v);
            assert!(t == 0 || unit(t - 1) <= v, "at_most({v}) = {t}");
            assert!(unit(t) <= v, "at_most({v}) = {t}");
            assert!(t + 1 >= top || unit(t + 1) > v, "at_most({v}) = {t}");
        }
        assert_eq!((below(0.0), below(unit(1)), below(1.0)), (0, 1, top));
        assert_eq!((at_most(0.0), at_most(1.0)), (0, top));
    }

    #[test]
    fn footprint_accounts_for_padding() {
        let mut mix = AccessMixture::new(&[ws(1, 1.0), ws(1, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        // Two 1-KiB regions, each followed by one spacer block.
        let mut blocks: Vec<u64> = (0..4_000)
            .map(|_| mix.sample(&mut rng, 0).addr() / BLOCK_BYTES)
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        let expected: Vec<u64> = (0..16).chain(17..33).collect();
        assert_eq!(blocks, expected);
    }
}
