//! Identifier newtypes.
//!
//! Cores, jobs and CMP nodes are referred to by opaque integer identifiers.
//! Using distinct newtypes ensures, e.g., that a [`JobId`] can never be passed
//! where a [`CoreId`] is expected.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        #[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a raw index.
            ///
            /// # Examples
            ///
            /// ```
            #[doc = concat!("use cmpqos_types::ids::", stringify!($name), ";")]
            #[doc = concat!("let id = ", stringify!($name), "::new(3);")]
            /// assert_eq!(id.index(), 3);
            /// ```
            #[must_use]
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the raw index.
            #[must_use]
            pub const fn index(self) -> u32 {
                self.0
            }

            /// Returns the raw index as a `usize`, convenient for slice
            /// indexing.
            #[must_use]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                Self::new(index)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> Self {
                id.index()
            }
        }
    };
}

id_newtype!(
    /// Identifies a processor core within a CMP node.
    CoreId,
    "core"
);

id_newtype!(
    /// Identifies a job (the unit of aperiodic computation that carries its
    /// own QoS target; see Section 3.1 of the paper).
    JobId,
    "job"
);

id_newtype!(
    /// Identifies a CMP node within a server (the Global Admission Controller
    /// probes per-node Local Admission Controllers).
    NodeId,
    "node"
);

id_newtype!(
    /// Identifies an admission-request source (a tenant, client, or traffic
    /// class) for per-source rate limiting on the overloaded admission path.
    SourceId,
    "source"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(CoreId::new(2).to_string(), "core2");
        assert_eq!(JobId::new(7).to_string(), "job7");
        assert_eq!(NodeId::new(0).to_string(), "node0");
    }

    #[test]
    fn ids_roundtrip_through_u32() {
        let id = JobId::from(9u32);
        assert_eq!(u32::from(id), 9);
        assert_eq!(id.as_usize(), 9);
    }

    #[test]
    fn ids_order_by_index() {
        assert!(CoreId::new(1) < CoreId::new(2));
        assert_eq!(CoreId::default(), CoreId::new(0));
    }
}
