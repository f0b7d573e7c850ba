//! QoS target specification (Section 3.2 of the paper).
//!
//! A CMP can only *fully provide* QoS when two conditions hold: the target
//! is **convertible** into units of computation capacity (Definition 1), and
//! jobs are accepted only when the target can be satisfied. Resource Usage
//! Metrics (RUM — core count, cache ways, optional timeslot) are trivially
//! convertible: demand can be compared against unallocated supply. Overall
//! Performance Metrics (IPC) and Resource Performance Metrics (miss rate)
//! are not — the system cannot tell how much IPC it can offer, nor whether a
//! requested miss rate is even achievable. So admission takes one input,
//! [`AdmissionRequest`](crate::AdmissionRequest): its [`ResourceRequest`]
//! is the RUM vector, and its `tw` and deadline are the timeslot. OPM and
//! RPM targets have no type here, because nothing could admit one.

use cmpqos_types::Ways;
use std::fmt;

/// A RUM resource-request vector: the computation capacity a job demands.
///
/// The paper's evaluation requests one core plus seven of the sixteen L2
/// ways per job; [`ResourceRequest::paper_job`] builds exactly that.
///
/// # Examples
///
/// ```
/// use cmpqos_core::ResourceRequest;
/// use cmpqos_types::Ways;
///
/// let r = ResourceRequest::new(1, Ways::new(7));
/// assert_eq!(r.cores(), 1);
/// assert_eq!(r.cache_ways(), Ways::new(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ResourceRequest {
    cores: u32,
    cache_ways: Ways,
    /// Off-chip bandwidth share in percent of peak (0 = best-effort).
    bandwidth_pct: u16,
}

impl ResourceRequest {
    /// Creates a request for `cores` processor cores and `cache_ways` of
    /// the shared L2 (best-effort bandwidth).
    #[must_use]
    pub const fn new(cores: u32, cache_ways: Ways) -> Self {
        Self {
            cores,
            cache_ways,
            bandwidth_pct: 0,
        }
    }

    /// Adds an off-chip bandwidth share (percent of peak) to the request —
    /// the RUM extension the paper leaves as future work (Section 3.2).
    ///
    /// # Examples
    ///
    /// ```
    /// use cmpqos_core::ResourceRequest;
    /// use cmpqos_types::Ways;
    ///
    /// let r = ResourceRequest::new(1, Ways::new(7)).with_bandwidth(25);
    /// assert_eq!(r.bandwidth_pct(), 25);
    /// ```
    #[must_use]
    pub const fn with_bandwidth(mut self, percent: u16) -> Self {
        self.bandwidth_pct = percent;
        self
    }

    /// The requested bandwidth share in percent of peak (0 = best-effort).
    #[must_use]
    pub const fn bandwidth_pct(&self) -> u16 {
        self.bandwidth_pct
    }

    /// The request used throughout the paper's evaluation: 1 core + 7 ways
    /// (896 KiB of the 2 MiB L2).
    #[must_use]
    pub const fn paper_job() -> Self {
        Self::new(1, Ways::new(7))
    }

    /// Requested core count.
    #[must_use]
    pub const fn cores(&self) -> u32 {
        self.cores
    }

    /// Requested L2 allocation.
    #[must_use]
    pub const fn cache_ways(&self) -> Ways {
        self.cache_ways
    }

    /// Whether this request fits within `supply` (component-wise).
    #[must_use]
    pub fn fits_within(&self, supply: &ResourceRequest) -> bool {
        self.cores <= supply.cores
            && self.cache_ways <= supply.cache_ways
            && self.bandwidth_pct <= supply.bandwidth_pct
    }

    /// Component-wise saturating remainder (`supply - demand`).
    #[must_use]
    pub fn minus(&self, other: &ResourceRequest) -> ResourceRequest {
        ResourceRequest {
            cores: self.cores.saturating_sub(other.cores),
            cache_ways: self.cache_ways.saturating_sub(other.cache_ways),
            bandwidth_pct: self.bandwidth_pct.saturating_sub(other.bandwidth_pct),
        }
    }
}

impl fmt::Display for ResourceRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} core(s) + {}", self.cores, self.cache_ways)?;
        if self.bandwidth_pct > 0 {
            write!(f, " + {}% bw", self.bandwidth_pct)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_arithmetic() {
        let a = ResourceRequest::new(1, Ways::new(7));
        let supply = ResourceRequest::new(4, Ways::new(16));
        assert!(a.fits_within(&supply));
        assert!(!ResourceRequest::new(5, Ways::new(7)).fits_within(&supply));
        assert!(!ResourceRequest::new(1, Ways::new(17)).fits_within(&supply));
        assert_eq!(supply.minus(&a), ResourceRequest::new(3, Ways::new(9)));
        // Saturating under-subtraction.
        assert_eq!(a.minus(&supply), ResourceRequest::new(0, Ways::ZERO));
    }

    #[test]
    fn paper_job_is_one_core_seven_ways() {
        let r = ResourceRequest::paper_job();
        assert_eq!(r.cores(), 1);
        assert_eq!(r.cache_ways(), Ways::new(7));
        assert_eq!(r.to_string(), "1 core(s) + 7 ways");
    }

    #[test]
    fn bandwidth_extends_the_vector() {
        let supply = ResourceRequest::new(4, Ways::new(16)).with_bandwidth(100);
        let a = ResourceRequest::paper_job().with_bandwidth(40);
        assert!(a.fits_within(&supply));
        let over = ResourceRequest::paper_job().with_bandwidth(110);
        assert!(!over.fits_within(&supply), "110% > 100%");
        assert_eq!(supply.minus(&a).bandwidth_pct(), 60);
        assert_eq!(a.to_string(), "1 core(s) + 7 ways + 40% bw");
    }
}
