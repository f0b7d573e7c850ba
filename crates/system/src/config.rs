//! System-level configuration.

use cmpqos_cache::{CacheConfig, CacheConfigError, PartitionPolicy};
use cmpqos_mem::MemoryConfig;
use cmpqos_types::Cycles;
use std::fmt;

/// Error validating a [`SystemConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SystemConfigError {
    /// The core count must be within 1..=255 (the shared L2 tracks owners
    /// in a byte).
    BadCoreCount,
    /// The duplicate-tag sampling period must be non-zero.
    BadShadowSampling,
    /// A cache geometry is invalid (e.g. a scale factor that does not
    /// preserve a power-of-two set count).
    BadCache(CacheConfigError),
}

impl fmt::Display for SystemConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemConfigError::BadCoreCount => f.write_str("core count must be within 1..=255"),
            SystemConfigError::BadShadowSampling => {
                f.write_str("shadow sampling period must be non-zero")
            }
            SystemConfigError::BadCache(e) => write!(f, "invalid cache geometry: {e}"),
        }
    }
}

impl std::error::Error for SystemConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemConfigError::BadCache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CacheConfigError> for SystemConfigError {
    fn from(e: CacheConfigError) -> Self {
        SystemConfigError::BadCache(e)
    }
}

/// Static configuration of a CMP node.
///
/// Construct with [`SystemConfig::paper`] (the evaluated machine) and adjust
/// fields as needed; all fields are public plain data.
///
/// # Examples
///
/// ```
/// use cmpqos_system::SystemConfig;
///
/// let mut cfg = SystemConfig::paper();
/// assert_eq!(cfg.num_cores, 4);
/// cfg.timeslice = cmpqos_types::Cycles::new(500_000);
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of cores (paper: 4).
    pub num_cores: usize,
    /// Private L1 configuration.
    pub l1: CacheConfig,
    /// Shared L2 configuration.
    pub l2: CacheConfig,
    /// Memory-channel configuration.
    pub memory: MemoryConfig,
    /// L2 partitioning policy.
    pub partition_policy: PartitionPolicy,
    /// Round-robin timeslice for floating (timeshared) tasks.
    /// The default models a 0.5 ms Linux-like quantum at 2 GHz.
    pub timeslice: Cycles,
    /// Direct cost of a context switch. A switch also flushes the core's
    /// L1 (cold-cache effect for the incoming task).
    pub context_switch_cost: Cycles,
    /// Duplicate-tag set-sampling period: every `N`-th set carries shadow
    /// tags (paper: 8, i.e. 1/8 coverage).
    pub shadow_sample_every: u32,
}

impl SystemConfig {
    /// The paper's evaluated machine: 4 in-order 2 GHz cores, 32 KiB 4-way
    /// L1s (2 cycles), shared 2 MiB 16-way L2 (10 cycles) with the QoS-aware
    /// per-set partitioning, 300-cycle / 6.4 GB/s memory.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            num_cores: 4,
            l1: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            memory: MemoryConfig::paper(),
            partition_policy: PartitionPolicy::PerSet,
            timeslice: Cycles::new(1_000_000),
            context_switch_cost: Cycles::new(10_000),
            shadow_sample_every: 8,
        }
    }

    /// The paper's machine with both cache capacities divided by `k`
    /// (associativities and block sizes unchanged, so set counts shrink).
    ///
    /// Pair with benchmark profiles scaled by the same `k`
    /// ([`cmpqos_trace::spec::scaled`]): every way-granular behaviour
    /// (partitioning, stealing, admission) is preserved while warm-up and
    /// simulation cost drop by ~`k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` does not evenly divide the cache sizes down to at
    /// least one set. Prefer [`SystemConfig::try_paper_scaled`] outside
    /// test code.
    #[must_use]
    pub fn paper_scaled(k: u64) -> Self {
        match Self::try_paper_scaled(k) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`SystemConfig::paper_scaled`].
    ///
    /// # Errors
    ///
    /// Returns [`SystemConfigError::BadCache`] when `k` does not preserve
    /// a valid cache geometry.
    pub fn try_paper_scaled(k: u64) -> Result<Self, SystemConfigError> {
        use cmpqos_types::ByteSize;
        let base = Self::paper();
        let scale = |c: &CacheConfig| {
            CacheConfig::new(
                ByteSize::from_bytes(c.size().bytes() / k.max(1)),
                c.associativity(),
                c.block_size(),
                c.latency(),
            )
        };
        Ok(Self {
            l1: scale(&base.l1)?,
            l2: scale(&base.l2)?,
            ..base
        })
    }

    /// Checks the cross-field invariants the engine relies on. All fields
    /// are public plain data, so call this after hand-building or mutating
    /// a configuration; `CmpNode::try_new` calls it for you.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`SystemConfigError`].
    pub fn validate(&self) -> Result<(), SystemConfigError> {
        if !(1..=255).contains(&self.num_cores) {
            return Err(SystemConfigError::BadCoreCount);
        }
        if self.shadow_sample_every == 0 {
            return Err(SystemConfigError::BadShadowSampling);
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_evaluation_setup() {
        let c = SystemConfig::paper();
        assert_eq!(c.num_cores, 4);
        assert_eq!(c.l1.associativity(), 4);
        assert_eq!(c.l2.associativity(), 16);
        assert_eq!(c.memory.latency, Cycles::new(300));
        assert_eq!(c.partition_policy, PartitionPolicy::PerSet);
    }

    #[test]
    fn validate_catches_bad_fields() {
        assert_eq!(SystemConfig::paper().validate(), Ok(()));

        let mut c = SystemConfig::paper();
        c.num_cores = 0;
        assert_eq!(c.validate(), Err(SystemConfigError::BadCoreCount));

        let mut c = SystemConfig::paper();
        c.shadow_sample_every = 0;
        assert_eq!(c.validate(), Err(SystemConfigError::BadShadowSampling));
    }

    #[test]
    fn try_paper_scaled_rejects_degenerate_factor() {
        // Scaling 2 MiB down by 2^30 leaves less than one set per way.
        let err = SystemConfig::try_paper_scaled(1 << 30).unwrap_err();
        assert!(matches!(err, SystemConfigError::BadCache(_)));
        assert!(err.to_string().contains("cache"));
        // A sane factor round-trips through the panicking wrapper.
        assert_eq!(SystemConfig::paper_scaled(16).num_cores, 4);
    }
}
