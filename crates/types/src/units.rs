//! Unit newtypes: cycles, instructions, byte sizes, cache ways and percents.
//!
//! The simulator counts time in processor clock cycles ([`Cycles`]), work in
//! retired instructions ([`Instructions`]), cache capacity in bytes
//! ([`ByteSize`]) or associativity ways ([`Ways`]), and QoS slack in
//! [`Percent`] (the `X` of an `Elastic(X)` job).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

macro_rules! impl_count_newtype {
    ($name:ident, $unit:expr) => {
        impl $name {
            /// Creates a new value.
            #[must_use]
            pub const fn new(value: u64) -> Self {
                Self(value)
            }

            /// The zero value.
            pub const ZERO: Self = Self(0);

            /// Returns the raw count.
            #[must_use]
            pub const fn get(self) -> u64 {
                self.0
            }

            /// Returns the count as an `f64`, for ratio computations.
            #[must_use]
            pub fn as_f64(self) -> f64 {
                self.0 as f64
            }

            /// Saturating subtraction; clamps at zero instead of wrapping.
            #[must_use]
            pub const fn saturating_sub(self, rhs: Self) -> Self {
                Self(self.0.saturating_sub(rhs.0))
            }

            /// Returns the smaller of two values.
            #[must_use]
            #[inline]
            pub fn min(self, rhs: Self) -> Self {
                Self(self.0.min(rhs.0))
            }

            /// Returns the larger of two values.
            #[must_use]
            #[inline]
            pub fn max(self, rhs: Self) -> Self {
                Self(self.0.max(rhs.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<u64> for $name {
            type Output = Self;
            fn mul(self, rhs: u64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<u64> for $name {
            type Output = Self;
            fn div(self, rhs: u64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{} ", $unit), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(value: u64) -> Self {
                Self::new(value)
            }
        }

        impl From<$name> for u64 {
            fn from(value: $name) -> Self {
                value.get()
            }
        }
    };
}

/// A duration or point in time measured in processor clock cycles.
///
/// The evaluated CMP runs at 2 GHz, so 2,000,000 cycles correspond to one
/// millisecond of wall-clock time; helpers for that conversion live on the
/// system-configuration types, keeping this newtype frequency-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Cycles(u64);
impl_count_newtype!(Cycles, "cycles");

/// A count of retired instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Instructions(u64);
impl_count_newtype!(Instructions, "instructions");

impl Cycles {
    /// The admission-control planning horizon: the latest start the LAC will
    /// ever consider when a request carries no deadline.
    ///
    /// Chosen as `u64::MAX / 2` so that `start + duration` cannot overflow
    /// `u64` for any candidate start at or below the horizon and any
    /// reservation duration below it — the sum of two values each at most
    /// `u64::MAX / 2` fits in a `u64` without a checked add on the hot path.
    pub const HORIZON: Self = Self(u64::MAX / 2);

    /// Scales the cycle count by a floating-point factor, rounding to the
    /// nearest cycle. Used for, e.g., extending an `Elastic(X)` reservation
    /// to `tw * (1 + X)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cmpqos_types::Cycles;
    /// assert_eq!(Cycles::new(100).scale(1.05), Cycles::new(105));
    /// ```
    #[must_use]
    pub fn scale(self, factor: f64) -> Self {
        Self((self.0 as f64 * factor).round() as u64)
    }
}

/// A storage capacity in bytes.
///
/// # Examples
///
/// ```
/// use cmpqos_types::ByteSize;
/// let l1 = ByteSize::from_kib(32);
/// assert_eq!(l1.bytes(), 32 * 1024);
/// assert_eq!(format!("{l1}"), "32.0 KiB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ByteSize(u64);

impl ByteSize {
    /// Creates a capacity from raw bytes.
    #[must_use]
    pub const fn from_bytes(bytes: u64) -> Self {
        Self(bytes)
    }

    /// Creates a capacity from binary kilobytes.
    #[must_use]
    pub const fn from_kib(kib: u64) -> Self {
        Self(kib * 1024)
    }

    /// Creates a capacity from binary megabytes.
    #[must_use]
    pub const fn from_mib(mib: u64) -> Self {
        Self(mib * 1024 * 1024)
    }

    /// Returns the capacity in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Returns the capacity in (possibly fractional) binary kilobytes.
    #[must_use]
    pub fn kib(self) -> f64 {
        self.0 as f64 / 1024.0
    }
}

impl Add for ByteSize {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for ByteSize {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl Mul<u64> for ByteSize {
    type Output = Self;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<u64> for ByteSize {
    type Output = Self;
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 && b.is_multiple_of(64 * 1024) {
            write!(f, "{:.1} MiB", b as f64 / (1024.0 * 1024.0))
        } else if b >= 1024 {
            write!(f, "{:.1} KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b} B")
        }
    }
}

/// A cache-capacity allocation expressed in associativity ways.
///
/// The paper's QoS targets request L2 capacity in ways of the shared 16-way
/// L2 (a 7-way request on a 2 MiB cache is 896 KiB).
///
/// # Examples
///
/// ```
/// use cmpqos_types::{ByteSize, Ways};
/// let request = Ways::new(7);
/// let way_size = ByteSize::from_kib(128);
/// assert_eq!(request.capacity(way_size), ByteSize::from_kib(896));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Ways(u16);

impl Ways {
    /// The zero allocation.
    pub const ZERO: Self = Self(0);

    /// Creates an allocation of `n` ways.
    #[must_use]
    pub const fn new(n: u16) -> Self {
        Self(n)
    }

    /// Returns the number of ways.
    #[must_use]
    pub const fn get(self) -> u16 {
        self.0
    }

    /// Returns the number of ways as a `usize`.
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` when no ways are allocated.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Converts a way count into a byte capacity given the size of one way.
    #[must_use]
    pub fn capacity(self, way_size: ByteSize) -> ByteSize {
        way_size * u64::from(self.0)
    }

    /// Saturating subtraction; clamps at zero.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of two allocations.
    #[must_use]
    pub fn min(self, rhs: Self) -> Self {
        Self(self.0.min(rhs.0))
    }

    /// Returns the larger of two allocations.
    #[must_use]
    pub fn max(self, rhs: Self) -> Self {
        Self(self.0.max(rhs.0))
    }
}

impl Add for Ways {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Ways {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Ways {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for Ways {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Sum for Ways {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|w| w.0).sum())
    }
}

impl fmt::Display for Ways {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ways", self.0)
    }
}

impl From<u16> for Ways {
    fn from(n: u16) -> Self {
        Self::new(n)
    }
}

/// A percentage, stored as a float fraction of 100.
///
/// Used for the `X` of an `Elastic(X)` job (the maximum tolerated slowdown)
/// and for miss-rate-increase bookkeeping in the resource-stealing guard.
///
/// # Examples
///
/// ```
/// use cmpqos_types::Percent;
/// let x = Percent::new(5.0);
/// assert_eq!(x.fraction(), 0.05);
/// assert_eq!(format!("{x}"), "5.0%");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Percent(f64);

impl Percent {
    /// Zero percent.
    pub const ZERO: Self = Self(0.0);

    /// Creates a percentage from a value in percent units (`5.0` = 5%).
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not finite.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "percent must be finite and non-negative, got {value}"
        );
        Self(value)
    }

    /// Creates a percentage from a fraction (`0.05` = 5%).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or not finite.
    #[must_use]
    pub fn from_fraction(fraction: f64) -> Self {
        Self::new(fraction * 100.0)
    }

    /// Returns the value in percent units.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns the value as a fraction of 1.
    #[must_use]
    pub fn fraction(self) -> f64 {
        self.0 / 100.0
    }
}

impl fmt::Display for Percent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(300);
        let b = Cycles::new(20);
        assert_eq!((a + b).get(), 320);
        assert_eq!((a - b).get(), 280);
        assert_eq!((a * 2).get(), 600);
        assert_eq!((a / 3).get(), 100);
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
    }

    #[test]
    fn cycles_scale_rounds() {
        assert_eq!(Cycles::new(100).scale(1.049), Cycles::new(105));
        assert_eq!(Cycles::new(3).scale(0.5), Cycles::new(2)); // 1.5 rounds to 2
    }

    #[test]
    fn cycles_sum() {
        let total: Cycles = [1u64, 2, 3].into_iter().map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(6));
    }

    #[test]
    fn bytesize_conversions_and_display() {
        assert_eq!(ByteSize::from_mib(2), ByteSize::from_kib(2048));
        assert_eq!(ByteSize::from_kib(1).bytes(), 1024);
        assert_eq!(ByteSize::from_mib(2).to_string(), "2.0 MiB");
        assert_eq!(ByteSize::from_kib(896).to_string(), "896.0 KiB");
        assert_eq!(ByteSize::from_bytes(64).to_string(), "64 B");
    }

    #[test]
    fn ways_capacity_matches_paper_request() {
        // 7 ways of a 2 MiB, 16-way L2: one way is 128 KiB -> 896 KiB.
        let way = ByteSize::from_mib(2) / 16;
        assert_eq!(Ways::new(7).capacity(way), ByteSize::from_kib(896));
    }

    #[test]
    fn ways_arithmetic_saturates() {
        let mut w = Ways::new(7);
        w -= Ways::new(1);
        assert_eq!(w, Ways::new(6));
        assert_eq!(Ways::new(1).saturating_sub(Ways::new(5)), Ways::ZERO);
        assert!(!Ways::new(1).is_zero());
        assert!(Ways::ZERO.is_zero());
    }

    #[test]
    fn percent_roundtrips() {
        let p = Percent::from_fraction(0.2);
        assert!((p.value() - 20.0).abs() < 1e-12);
        assert!((p.fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "percent must be finite")]
    fn percent_rejects_negative() {
        let _ = Percent::new(-1.0);
    }

    #[test]
    fn instructions_display() {
        assert_eq!(Instructions::new(5).to_string(), "5 instructions");
    }
}
