//! The [`TraceSource`] interface of a per-job instruction stream.
//!
//! A trace source produces, per retired instruction, an optional memory
//! access. Sources are infinite streams; a job's finite length is imposed by
//! the scheduler (which stops a job after its instruction budget retires).
//! [`SyntheticTrace`](crate::SyntheticTrace) implements it, and is the one
//! source type the simulated node runs: a job's context holds it by value.

use crate::access::Access;

/// What one instruction does, as far as the memory hierarchy is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrEvent {
    /// The data-memory access performed by this instruction, if any.
    /// Instruction fetches are modelled as always hitting the L1-I cache
    /// (the paper's SPEC samples have negligible I-cache miss rates).
    pub access: Option<Access>,
}

impl InstrEvent {
    /// An instruction with no memory access.
    #[must_use]
    pub const fn compute() -> Self {
        Self { access: None }
    }

    /// An instruction performing `access`.
    #[must_use]
    pub const fn memory(access: Access) -> Self {
        Self {
            access: Some(access),
        }
    }
}

/// A per-job stream of instruction events.
///
/// Implementors must be deterministic given their construction inputs (the
/// simulator relies on seeded reproducibility for run-to-run variance
/// studies, Section 4.1 of the paper).
pub trait TraceSource {
    /// Produces the next instruction's event. Infinite: never exhausts.
    fn next_instruction(&mut self) -> InstrEvent;

    /// The base cycles-per-instruction of the modelled program assuming an
    /// infinite L1 (the `CPI_L1∞` term of Luo's additive model used in
    /// Section 4.2 of the paper).
    fn base_cpi(&self) -> f64;

    /// A short human-readable name (e.g. the benchmark name).
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, AccessKind};

    #[test]
    fn constructors() {
        assert!(InstrEvent::compute().access.is_none());
        let e = InstrEvent::memory(Access::new(0, AccessKind::Write));
        assert!(e.access.unwrap().is_write());
    }
}
