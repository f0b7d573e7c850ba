//! # The CMP QoS framework (the paper's contribution)
//!
//! Implements the complete framework of *"A Framework for Providing Quality
//! of Service in Chip Multi-Processors"* (Guo, Solihin, Zhao, Iyer — MICRO
//! 2007) on top of the `cmpqos-system` CMP simulator:
//!
//! * **QoS target specification** ([`target`], [`request`]) — a target is
//!   a *Resource Usage Metric* request (cores + L2 ways + bandwidth, in
//!   [`ResourceRequest`]) plus an optional timeslot (`tw` and a deadline,
//!   in [`AdmissionRequest`]). Such a target is *convertible* into
//!   computation capacity (Definition 1), so the LAC tests it against
//!   free capacity. IPC and miss-rate targets (OPM/RPM) have no type:
//!   nothing could admit one.
//! * **Execution modes** ([`modes`]) — `Strict`, `Elastic(X)`,
//!   `Opportunistic`, plus the manual and automatic mode-downgrade rules of
//!   Sections 3.3–3.4.
//! * **Admission control** ([`lac`], [`protocol`], [`gac`]) — the
//!   per-node FCFS Local Admission Controller with timeslot/resource
//!   reservation, and the Global Admission Controller that probes nodes:
//!   one state machine ([`NetGac`]) with a networked driver ([`Cluster`])
//!   and an in-process one ([`GlobalAdmissionController`]).
//! * **Resource stealing** ([`stealing`]) — the duplicate-tag-guarded
//!   controller that removes one way per interval from an `Elastic(X)` job
//!   and donates it to Opportunistic jobs, cancelling when the cumulative
//!   L2 miss increase reaches `X%` (Section 4).
//! * **The epoch hook** ([`epoch`]) — per-job SLO declarations
//!   ([`SloSpec`]) and the controller seam ([`EpochController`]) that lets
//!   the `cmpqos-adapt` crate retune stealing slack, steal cadence and
//!   per-core DVFS speed from delivered CPI samples.
//! * **The orchestrator** ([`scheduler`]) — glues the above to a
//!   [`cmpqos_system::CmpNode`]: spawns accepted jobs at their reserved
//!   start times, maintains partition targets, drives stealing and
//!   automatic downgrade switch-backs, and produces per-job QoS reports.
//!
//! # Quick start
//!
//! ```
//! use cmpqos_core::{QosJob, QosScheduler, ResourceRequest, SchedulerConfig};
//! use cmpqos_system::SystemConfig;
//! use cmpqos_trace::spec;
//! use cmpqos_types::{Cycles, Instructions, JobId, Ways};
//!
//! let mut sched = QosScheduler::new(SystemConfig::paper(), SchedulerConfig::default());
//! let profile = spec::benchmark("gobmk").unwrap();
//! let job = QosJob::strict(JobId::new(0), ResourceRequest::new(1, Ways::new(7)))
//!     .work(Instructions::new(100_000))
//!     .max_wall_clock(Cycles::new(10_000_000))
//!     .deadline(Cycles::new(20_000_000))
//!     .build();
//! let decision = sched.submit(job, profile.instantiate(1, 0));
//! assert!(decision.is_accepted());
//! sched.run_until(Cycles::new(20_000_000));
//! let report = sched.report(JobId::new(0)).unwrap();
//! assert!(report.met_deadline());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod gac;
mod gac_index;
pub mod intake;
pub mod lac;
pub mod modes;
mod occupancy;
pub mod protocol;
pub mod request;
pub mod scheduler;
pub mod stealing;
pub mod target;

pub use epoch::{EpochController, EpochSample, EpochView, KnobUpdate, SloSpec};
pub use gac::{
    FaultReport, GacConfig, GacState, GlobalAdmissionController, MemberState, NodeHealth,
    NodeSnapshot, ProbePolicy,
};
pub use intake::{
    AdmissionIntake, DrainedDecision, IntakeConfig, IntakeConfigBuilder, IntakeOutcome, IntakeStats,
};
pub use lac::{
    Decision, Lac, LacConfig, LacState, RejectReason, Reservation, Revocation, RevocationAction,
};
pub use modes::ExecutionMode;
pub use protocol::{
    Cluster, LacBackend, LacEndpoint, NetGac, NetGacConfig, NetGacStats, NetReply, NetRequest,
    ReplyBody, RequestBody, Wire, DEAD_AFTER, MAX_RETRIES, RETRY_INTERVAL, RTO, SUSPECT_AFTER,
};
pub use request::{AdmissionRequest, AdmissionRequestBuilder, Feasibility, Placement};
pub use scheduler::{
    JobEvent, JobReport, QosJob, QosJobBuilder, QosScheduler, SchedulerConfig, StealReport,
};
pub use stealing::{StealingAction, StealingConfig, StealingController};
pub use target::ResourceRequest;
