//! The [`TraceSource`] abstraction consumed by the core model.
//!
//! A trace source produces, per retired instruction, an optional memory
//! access. Sources are infinite streams; a job's finite length is imposed by
//! the scheduler (which stops a job after its instruction budget retires).

use crate::access::Access;
use std::any::Any;

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
/// studies, Section 4.1 of the paper). The [`Any`] supertrait (so sources
/// are `'static`) lets a consumer recover a boxed built-in source's
/// concrete type and call it without dynamic dispatch.
pub trait TraceSource: Any {
    /// Produces the next instruction's event. Infinite: never exhausts.
    fn next_instruction(&mut self) -> InstrEvent;

    /// The base cycles-per-instruction of the modelled program assuming an
    /// infinite L1 (the `CPI_L1∞` term of Luo's additive model used in
    /// Section 4.2 of the paper).
    fn base_cpi(&self) -> f64;

    /// A short human-readable name (e.g. the benchmark name).
    fn name(&self) -> &str;
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_instruction(&mut self) -> InstrEvent {
        (**self).next_instruction()
    }

    fn base_cpi(&self) -> f64 {
        (**self).base_cpi()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, AccessKind};

    struct Fixed;

    impl TraceSource for Fixed {
        fn next_instruction(&mut self) -> InstrEvent {
            InstrEvent::memory(Access::new(64, AccessKind::Read))
        }
        fn base_cpi(&self) -> f64 {
            1.0
        }
        fn name(&self) -> &str {
            "fixed"
        }
    }

    #[test]
    fn boxed_source_delegates() {
        let mut b: Box<dyn TraceSource> = Box::new(Fixed);
        assert_eq!(b.base_cpi(), 1.0);
        assert_eq!(b.name(), "fixed");
        assert!(b.next_instruction().access.is_some());
    }

    #[test]
    fn constructors() {
        assert!(InstrEvent::compute().access.is_none());
        let e = InstrEvent::memory(Access::new(0, AccessKind::Write));
        assert!(e.access.unwrap().is_write());
    }
}
