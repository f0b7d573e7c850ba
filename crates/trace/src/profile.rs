//! Benchmark profiles: reusable templates describing a synthetic program.

use crate::mixture::{AccessMixture, Component, MixtureError};
use crate::synthetic::SyntheticTrace;
use std::fmt;

/// A reusable description of a synthetic benchmark: its instruction mix
/// (memory accesses per instruction and base CPI) and its memory-access
/// mixture. Profiles are templates — [`BenchmarkProfile::instantiate`]
/// produces an independent, seeded [`SyntheticTrace`] per job.
///
/// # Examples
///
/// ```
/// use cmpqos_trace::{BenchmarkProfile, Component, TraceSource};
/// use cmpqos_types::ByteSize;
///
/// let profile = BenchmarkProfile::builder("toy")
///     .mem_ratio(0.5)
///     .base_cpi(1.2)
///     .component(Component::WorkingSet {
///         size: ByteSize::from_kib(64),
///         weight: 1.0,
///         write_fraction: 0.3,
///     })
///     .build()?;
/// let mut trace = profile.instantiate(1, 0);
/// assert_eq!(trace.name(), "toy");
/// # Ok::<(), cmpqos_trace::profile::ProfileError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    name: String,
    mem_ratio: f64,
    base_cpi: f64,
    components: Vec<Component>,
}

/// Error building a [`BenchmarkProfile`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// `mem_ratio` must lie in `[0, 1]` (at most one access per instruction
    /// in this model).
    InvalidMemRatio(f64),
    /// `base_cpi` must be at least 1 for an in-order core.
    InvalidBaseCpi(f64),
    /// The access mixture failed validation.
    Mixture(MixtureError),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::InvalidMemRatio(v) => {
                write!(f, "mem_ratio must be within [0, 1], got {v}")
            }
            ProfileError::InvalidBaseCpi(v) => {
                write!(f, "base_cpi must be at least 1, got {v}")
            }
            ProfileError::Mixture(e) => write!(f, "invalid access mixture: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Mixture(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MixtureError> for ProfileError {
    fn from(e: MixtureError) -> Self {
        ProfileError::Mixture(e)
    }
}

impl BenchmarkProfile {
    /// Starts building a profile named `name`.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> BenchmarkProfileBuilder {
        BenchmarkProfileBuilder {
            name: name.into(),
            mem_ratio: 0.3,
            base_cpi: 1.0,
            components: Vec::new(),
        }
    }

    /// The benchmark name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Memory accesses per instruction.
    #[must_use]
    pub fn mem_ratio(&self) -> f64 {
        self.mem_ratio
    }

    /// Cycles per instruction assuming an infinite L1 (`CPI_L1∞`).
    #[must_use]
    pub fn base_cpi(&self) -> f64 {
        self.base_cpi
    }

    /// The mixture components.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Returns a copy with every working-set footprint divided by `k`
    /// (streams keep their regions — they never fit anyway).
    ///
    /// Used together with a cache hierarchy scaled by the same factor: the
    /// miss-ratio-versus-*ways* curve is invariant under joint scaling, so
    /// experiments can run at a fraction of the warm-up cost while
    /// preserving every way-granular result. Footprints floor at one cache
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn scaled(&self, k: u64) -> BenchmarkProfile {
        assert!(k > 0, "scale factor must be positive");
        let components = self
            .components
            .iter()
            .map(|c| match c {
                Component::WorkingSet {
                    size,
                    weight,
                    write_fraction,
                } => Component::WorkingSet {
                    size: cmpqos_types::ByteSize::from_bytes(
                        (size.bytes() / k).max(crate::mixture::BLOCK_BYTES),
                    ),
                    weight: *weight,
                    write_fraction: *write_fraction,
                },
                stream @ Component::Stream { .. } => stream.clone(),
            })
            .collect();
        BenchmarkProfile {
            name: self.name.clone(),
            mem_ratio: self.mem_ratio,
            base_cpi: self.base_cpi,
            components,
        }
    }

    /// Creates an independent trace source for one job.
    ///
    /// `seed` drives all stochastic choices; `base` offsets the job's
    /// address space (keep bases of concurrent jobs disjoint).
    ///
    /// # Panics
    ///
    /// Never panics: the components were validated at build time.
    #[must_use]
    pub fn instantiate(&self, seed: u64, base: u64) -> SyntheticTrace {
        let mixture = AccessMixture::new(&self.components)
            .expect("profile components were validated at build time");
        SyntheticTrace::new(
            self.name.clone(),
            self.mem_ratio,
            self.base_cpi,
            mixture,
            seed,
            base,
        )
    }
}

/// Builder for [`BenchmarkProfile`] (see [`BenchmarkProfile::builder`]).
#[derive(Debug, Clone)]
pub struct BenchmarkProfileBuilder {
    name: String,
    mem_ratio: f64,
    base_cpi: f64,
    components: Vec<Component>,
}

impl BenchmarkProfileBuilder {
    /// Sets the memory accesses per instruction (default `0.3`).
    #[must_use]
    pub fn mem_ratio(mut self, ratio: f64) -> Self {
        self.mem_ratio = ratio;
        self
    }

    /// Sets `CPI_L1∞` (default `1.0`).
    #[must_use]
    pub fn base_cpi(mut self, cpi: f64) -> Self {
        self.base_cpi = cpi;
        self
    }

    /// Adds one mixture component.
    #[must_use]
    pub fn component(mut self, component: Component) -> Self {
        self.components.push(component);
        self
    }

    /// Validates and builds the profile.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] for out-of-range parameters or an invalid
    /// mixture.
    pub fn build(self) -> Result<BenchmarkProfile, ProfileError> {
        if !self.mem_ratio.is_finite() || !(0.0..=1.0).contains(&self.mem_ratio) {
            return Err(ProfileError::InvalidMemRatio(self.mem_ratio));
        }
        if !self.base_cpi.is_finite() || self.base_cpi < 1.0 {
            return Err(ProfileError::InvalidBaseCpi(self.base_cpi));
        }
        // Validate the mixture once now so `instantiate` cannot fail later.
        AccessMixture::new(&self.components)?;
        Ok(BenchmarkProfile {
            name: self.name,
            mem_ratio: self.mem_ratio,
            base_cpi: self.base_cpi,
            components: self.components,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceSource;
    use cmpqos_types::ByteSize;

    fn toy_component() -> Component {
        Component::WorkingSet {
            size: ByteSize::from_kib(8),
            weight: 1.0,
            write_fraction: 0.0,
        }
    }

    #[test]
    fn builder_validates_ranges() {
        let err = BenchmarkProfile::builder("x")
            .mem_ratio(1.5)
            .component(toy_component())
            .build()
            .unwrap_err();
        assert!(matches!(err, ProfileError::InvalidMemRatio(_)));

        let err = BenchmarkProfile::builder("x")
            .base_cpi(0.5)
            .component(toy_component())
            .build()
            .unwrap_err();
        assert!(matches!(err, ProfileError::InvalidBaseCpi(_)));

        let err = BenchmarkProfile::builder("x").build().unwrap_err();
        assert!(matches!(err, ProfileError::Mixture(_)));
    }

    #[test]
    fn instantiation_is_deterministic_per_seed() {
        let p = BenchmarkProfile::builder("d")
            .mem_ratio(0.7)
            .component(toy_component())
            .build()
            .unwrap();
        let mut a = p.instantiate(11, 0);
        let mut b = p.instantiate(11, 0);
        for _ in 0..100 {
            assert_eq!(a.next_instruction(), b.next_instruction());
        }
        let mut c = p.instantiate(12, 0);
        let same = (0..100).all(|_| a.next_instruction() == c.next_instruction());
        assert!(!same, "different seeds should give different streams");
    }

    #[test]
    fn error_display_mentions_cause() {
        let err = BenchmarkProfile::builder("x").build().unwrap_err();
        assert!(err.to_string().contains("mixture"));
    }
}
