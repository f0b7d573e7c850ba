//! The seeded synthetic trace generator.

use crate::access::Access;
use crate::mixture::AccessMixture;
use crate::source::{InstrEvent, TraceSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic, seeded instruction/access stream generated from an
/// [`AccessMixture`]. Produced by
/// [`BenchmarkProfile::instantiate`](crate::BenchmarkProfile::instantiate).
///
/// Each instruction performs a memory access with probability `mem_ratio`;
/// the access address is drawn from the mixture, offset by the job's address
/// base.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    name: String,
    mem_ratio: f64,
    base_cpi: f64,
    mixture: AccessMixture,
    rng: StdRng,
    base: u64,
    generated: u64,
}

impl SyntheticTrace {
    pub(crate) fn new(
        name: String,
        mem_ratio: f64,
        base_cpi: f64,
        mixture: AccessMixture,
        seed: u64,
        base: u64,
    ) -> Self {
        Self {
            name,
            mem_ratio,
            base_cpi,
            mixture,
            rng: StdRng::seed_from_u64(seed),
            base,
            generated: 0,
        }
    }

    /// Number of instruction events generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The job's address-space base offset.
    #[must_use]
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    /// Convenience: draws only the next memory access, skipping non-memory
    /// instructions (useful for cache-only studies and calibration).
    pub fn next_access(&mut self) -> Access {
        loop {
            if let Some(access) = self.next_instruction().access {
                return access;
            }
        }
    }
}

impl TraceSource for SyntheticTrace {
    #[inline]
    fn next_instruction(&mut self) -> InstrEvent {
        self.generated += 1;
        if self.rng.gen::<f64>() < self.mem_ratio {
            InstrEvent::memory(self.mixture.sample(&mut self.rng, self.base))
        } else {
            InstrEvent::compute()
        }
    }

    #[inline]
    fn base_cpi(&self) -> f64 {
        self.base_cpi
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixture::Component;
    use crate::profile::BenchmarkProfile;
    use cmpqos_types::ByteSize;

    fn profile(mem_ratio: f64) -> BenchmarkProfile {
        BenchmarkProfile::builder("t")
            .mem_ratio(mem_ratio)
            .component(Component::WorkingSet {
                size: ByteSize::from_kib(8),
                weight: 1.0,
                write_fraction: 0.0,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn mem_ratio_controls_access_frequency() {
        let mut t = profile(0.25).instantiate(3, 0);
        let n = 40_000;
        let mem = (0..n)
            .filter(|_| t.next_instruction().access.is_some())
            .count();
        let frac = mem as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "got {frac}");
        assert_eq!(t.generated(), n as u64);
    }

    #[test]
    fn next_access_skips_compute_instructions() {
        let mut t = profile(0.1).instantiate(4, 1 << 30);
        let a = t.next_access();
        assert!(a.addr() >= 1 << 30);
        assert_eq!(t.base_addr(), 1 << 30);
    }

    #[test]
    fn zero_mem_ratio_never_accesses() {
        let mut t = profile(0.0).instantiate(5, 0);
        assert!((0..1000).all(|_| t.next_instruction().access.is_none()));
    }
}
