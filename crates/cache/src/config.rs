//! Cache configuration and geometry.

use cmpqos_types::{ByteSize, Cycles};
use std::fmt;

/// Static parameters of one cache.
///
/// # Examples
///
/// ```
/// use cmpqos_cache::CacheConfig;
/// use cmpqos_types::{ByteSize, Cycles};
///
/// // The paper's shared L2: 2 MiB, 16-way, 64 B blocks, 10-cycle access.
/// let l2 = CacheConfig::new(
///     ByteSize::from_mib(2),
///     16,
///     ByteSize::from_bytes(64),
///     Cycles::new(10),
/// )?;
/// assert_eq!(l2.geometry().sets(), 2048);
/// # Ok::<(), cmpqos_cache::CacheConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    size: ByteSize,
    associativity: u16,
    block_size: ByteSize,
    latency: Cycles,
    geometry: CacheGeometry,
}

/// Derived geometry of a cache: the set count and address-slicing shifts.
///
/// Block size and set count are validated powers of two, so slicing an
/// address is a mask and two shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    sets: u32,
    associativity: u16,
    block_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
}

/// Error constructing a [`CacheConfig`] or a structure derived from one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheConfigError {
    /// Block size must be a power of two of at least 8 bytes.
    BadBlockSize,
    /// Associativity must be at least 1.
    BadAssociativity,
    /// Size must be a positive multiple of `associativity * block_size`,
    /// with a power-of-two set count.
    BadSize,
    /// A shared cache needs 1..=255 cores.
    BadCoreCount,
    /// A shadow monitor needs a non-zero allocation and geometry.
    BadMonitorGeometry,
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::BadBlockSize => {
                f.write_str("block size must be a power of two of at least 8 bytes")
            }
            CacheConfigError::BadAssociativity => f.write_str("associativity must be at least 1"),
            CacheConfigError::BadSize => f.write_str(
                "cache size must be associativity * block_size * sets with power-of-two sets",
            ),
            CacheConfigError::BadCoreCount => {
                f.write_str("shared-cache core count must be within 1..=255")
            }
            CacheConfigError::BadMonitorGeometry => f.write_str(
                "shadow monitor needs at least one way, one set, and a non-zero sampling period",
            ),
        }
    }
}

impl std::error::Error for CacheConfigError {}

impl CacheConfig {
    /// Validates and builds a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if the parameters do not describe a
    /// well-formed set-associative cache.
    pub fn new(
        size: ByteSize,
        associativity: u16,
        block_size: ByteSize,
        latency: Cycles,
    ) -> Result<Self, CacheConfigError> {
        let bs = block_size.bytes();
        if bs < 8 || !bs.is_power_of_two() {
            return Err(CacheConfigError::BadBlockSize);
        }
        if associativity == 0 {
            return Err(CacheConfigError::BadAssociativity);
        }
        let way_bytes = bs * u64::from(associativity);
        if size.bytes() == 0 || !size.bytes().is_multiple_of(way_bytes) {
            return Err(CacheConfigError::BadSize);
        }
        let sets = size.bytes() / way_bytes;
        if !sets.is_power_of_two() || sets > u64::from(u32::MAX) {
            return Err(CacheConfigError::BadSize);
        }
        Ok(Self {
            size,
            associativity,
            block_size,
            latency,
            geometry: CacheGeometry {
                sets: sets as u32,
                associativity,
                block_shift: bs.trailing_zeros(),
                set_shift: sets.trailing_zeros(),
            },
        })
    }

    /// The paper's private L1: 32 KiB, 4-way, 64 B blocks, 2-cycle access.
    #[must_use]
    pub fn paper_l1() -> Self {
        Self::new(
            ByteSize::from_kib(32),
            4,
            ByteSize::from_bytes(64),
            Cycles::new(2),
        )
        .expect("paper L1 parameters are valid")
    }

    /// The paper's shared L2: 2 MiB, 16-way, 64 B blocks, 10-cycle access.
    #[must_use]
    pub fn paper_l2() -> Self {
        Self::new(
            ByteSize::from_mib(2),
            16,
            ByteSize::from_bytes(64),
            Cycles::new(10),
        )
        .expect("paper L2 parameters are valid")
    }

    /// Total capacity.
    #[must_use]
    pub fn size(&self) -> ByteSize {
        self.size
    }

    /// Number of ways.
    #[must_use]
    pub fn associativity(&self) -> u16 {
        self.associativity
    }

    /// Block size.
    #[must_use]
    pub fn block_size(&self) -> ByteSize {
        self.block_size
    }

    /// Access latency (hit time).
    #[must_use]
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Derived geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The capacity of a single way (`size / associativity`).
    #[must_use]
    pub fn way_size(&self) -> ByteSize {
        self.size / u64::from(self.associativity)
    }
}

impl CacheGeometry {
    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Number of ways.
    #[must_use]
    pub fn associativity(&self) -> u16 {
        self.associativity
    }

    /// Splits a byte address into `(tag, set index)`.
    #[must_use]
    pub fn slice(&self, addr: u64) -> (u64, u32) {
        let block = addr >> self.block_shift;
        let set = (block & (u64::from(self.sets) - 1)) as u32;
        let tag = block >> self.set_shift;
        (tag, set)
    }

    /// Reconstructs the block byte address from `(tag, set)`.
    #[must_use]
    pub fn unslice(&self, tag: u64, set: u32) -> u64 {
        ((tag << self.set_shift) | u64::from(set)) << self.block_shift
    }

    /// Total number of cache lines.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.sets as usize * self.associativity as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_have_expected_geometry() {
        let l1 = CacheConfig::paper_l1();
        assert_eq!(l1.geometry().sets(), 128);
        assert_eq!(l1.geometry().lines(), 512);
        assert_eq!(l1.way_size(), ByteSize::from_kib(8));

        let l2 = CacheConfig::paper_l2();
        assert_eq!(l2.geometry().sets(), 2048);
        assert_eq!(l2.geometry().lines(), 32768);
        assert_eq!(l2.way_size(), ByteSize::from_kib(128));
        assert_eq!(l2.latency(), Cycles::new(10));
    }

    #[test]
    fn slice_unslice_roundtrip() {
        let g = CacheConfig::paper_l2().geometry();
        for addr in [0u64, 64, 4096, 0x00de_adbe_efc0, 1 << 40] {
            let block_base = addr & !63;
            let (tag, set) = g.slice(addr);
            assert_eq!(g.unslice(tag, set), block_base);
        }
    }

    #[test]
    fn distinct_blocks_map_to_distinct_tag_set_pairs() {
        let g = CacheConfig::paper_l1().geometry();
        let a = g.slice(0);
        let b = g.slice(64);
        assert_ne!(a, b);
        // Same block, different byte offsets: same pair.
        assert_eq!(g.slice(65), b);
    }

    #[test]
    fn rejects_invalid_parameters() {
        let err = CacheConfig::new(
            ByteSize::from_kib(32),
            4,
            ByteSize::from_bytes(48),
            Cycles::new(1),
        )
        .unwrap_err();
        assert_eq!(err, CacheConfigError::BadBlockSize);

        let err = CacheConfig::new(
            ByteSize::from_kib(32),
            0,
            ByteSize::from_bytes(64),
            Cycles::new(1),
        )
        .unwrap_err();
        assert_eq!(err, CacheConfigError::BadAssociativity);

        // 3 sets: not a power of two.
        let err = CacheConfig::new(
            ByteSize::from_bytes(3 * 4 * 64),
            4,
            ByteSize::from_bytes(64),
            Cycles::new(1),
        )
        .unwrap_err();
        assert_eq!(err, CacheConfigError::BadSize);
    }

    #[test]
    fn error_display() {
        assert!(CacheConfigError::BadSize
            .to_string()
            .contains("power-of-two"));
    }
}
