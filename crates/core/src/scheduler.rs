//! The QoS orchestrator: LAC + execution modes + stealing, driving a
//! [`CmpNode`].
//!
//! [`QosScheduler`] is the deployable face of the framework. Submissions go
//! through the Local Admission Controller; accepted Strict/Elastic jobs are
//! pinned to cores at their reserved start times with their requested L2
//! ways; Opportunistic jobs float over unreserved cores and share the
//! unallocated (plus stolen) cache ways; Elastic jobs donate capacity
//! through the duplicate-tag-guarded stealing controller; and (when
//! enabled) Strict jobs with deadline slack are automatically downgraded to
//! run opportunistically against a late fallback reservation (Section 3.4).

use crate::epoch::{EpochController, EpochSample, EpochView, KnobUpdate, SloSpec};
use crate::lac::{Decision, Lac, LacConfig, Revocation, RevocationAction};
use crate::modes::{auto_downgrade_plan, ExecutionMode};
use crate::request::AdmissionRequest;
use crate::stealing::{StealingAction, StealingConfig, StealingController};
use crate::target::ResourceRequest;
use cmpqos_cache::WayMaskError;
use cmpqos_cpu::PerfCounters;
use cmpqos_obs::{Event, FaultKind, Knob, NullRecorder, Recorder};
use cmpqos_system::{CmpNode, Placement, SystemConfig, TaskSpec};
use cmpqos_trace::TraceSource;
use cmpqos_types::{CoreId, Cycles, Instructions, JobId, NodeId, Percent, Ways};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A job submission: QoS target plus workload size.
///
/// Construct with the mode builders — [`QosJob::strict`],
/// [`QosJob::elastic`], [`QosJob::opportunistic`] — e.g.
/// `QosJob::strict(id, request).work(n).deadline(td).build()`. The struct
/// is `#[non_exhaustive]`, so fields may be added without breaking
/// downstream crates; all fields stay public for reading.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
pub struct QosJob {
    /// Unique job id.
    pub id: JobId,
    /// Requested execution mode.
    pub mode: ExecutionMode,
    /// RUM resource request.
    pub request: ResourceRequest,
    /// Instructions the job must retire.
    pub work: Instructions,
    /// Maximum wall-clock time (`tw`) with the full request.
    pub max_wall_clock: Cycles,
    /// Absolute deadline (`td`), if any.
    pub deadline: Option<Cycles>,
    /// Delivered-performance objective for the adaptive control plane,
    /// if any. Admission never tests it.
    pub slo: Option<SloSpec>,
}

impl QosJob {
    /// A builder for a Strict job.
    #[must_use]
    pub fn strict(id: JobId, request: ResourceRequest) -> QosJobBuilder {
        Self::with_mode(id, ExecutionMode::Strict, request)
    }

    /// A builder for an Elastic(`slack`) job.
    #[must_use]
    pub fn elastic(id: JobId, request: ResourceRequest, slack: Percent) -> QosJobBuilder {
        Self::with_mode(id, ExecutionMode::Elastic(slack), request)
    }

    /// A builder for an Opportunistic job.
    #[must_use]
    pub fn opportunistic(id: JobId, request: ResourceRequest) -> QosJobBuilder {
        Self::with_mode(id, ExecutionMode::Opportunistic, request)
    }

    /// A builder for an arbitrary mode (useful when the mode is data).
    #[must_use]
    pub fn with_mode(id: JobId, mode: ExecutionMode, request: ResourceRequest) -> QosJobBuilder {
        QosJobBuilder {
            job: QosJob {
                id,
                mode,
                request,
                work: Instructions::new(0),
                max_wall_clock: Cycles::ZERO,
                deadline: None,
                slo: None,
            },
        }
    }
}

/// Fluent builder for [`QosJob`]; see the mode constructors on `QosJob`.
#[derive(Debug, Clone, Copy)]
pub struct QosJobBuilder {
    job: QosJob,
}

impl QosJobBuilder {
    /// Sets the instructions the job must retire.
    #[must_use]
    pub fn work(mut self, work: Instructions) -> Self {
        self.job.work = work;
        self
    }

    /// Sets the maximum wall-clock time `tw` with the full request.
    #[must_use]
    pub fn max_wall_clock(mut self, tw: Cycles) -> Self {
        self.job.max_wall_clock = tw;
        self
    }

    /// Sets the absolute deadline `td`.
    #[must_use]
    pub fn deadline(mut self, td: Cycles) -> Self {
        self.job.deadline = Some(td);
        self
    }

    /// Clears the deadline (the default).
    #[must_use]
    pub fn no_deadline(mut self) -> Self {
        self.job.deadline = None;
        self
    }

    /// Declares a delivered-performance objective for the adaptive
    /// control plane to hold.
    #[must_use]
    pub fn slo(mut self, slo: SloSpec) -> Self {
        self.job.slo = Some(slo);
        self
    }

    /// Replaces the resource request.
    #[must_use]
    pub fn request(mut self, request: ResourceRequest) -> Self {
        self.job.request = request;
        self
    }

    /// Finishes the job description.
    #[must_use]
    pub fn build(self) -> QosJob {
        self.job
    }
}

/// Orchestrator configuration.
///
/// Construct with [`SchedulerConfig::default`] or the
/// [`SchedulerConfig::builder`]; the struct is `#[non_exhaustive]`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SchedulerConfig {
    /// LAC capacity configuration.
    pub lac: LacConfig,
    /// Resource-stealing parameters.
    pub stealing: StealingConfig,
    /// Event-polling granularity (stealing checks, starts, switch-backs).
    pub slice: Cycles,
    /// Enable automatic mode downgrade for Strict jobs with slack
    /// (the `All-Strict+AutoDown` configuration).
    pub auto_downgrade: bool,
    /// Master switch for resource stealing (disable to measure the
    /// no-stealing baseline of Figure 8).
    pub stealing_enabled: bool,
    /// Minimum slack (as a fraction of `tw`) for automatic downgrade to
    /// apply. The paper downgrades only jobs with moderate (`2·tw`) or
    /// relaxed (`3·tw`) deadlines, not tight (`1.05·tw`) ones; the default
    /// of 0.5 reproduces that split.
    pub auto_downgrade_min_slack: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            lac: LacConfig::default(),
            stealing: StealingConfig::default(),
            slice: Cycles::new(50_000),
            auto_downgrade: false,
            stealing_enabled: true,
            auto_downgrade_min_slack: 0.5,
        }
    }
}

impl SchedulerConfig {
    /// A fluent builder starting from the defaults.
    #[must_use]
    pub fn builder() -> SchedulerConfigBuilder {
        SchedulerConfigBuilder {
            config: SchedulerConfig::default(),
        }
    }
}

/// Fluent builder for [`SchedulerConfig`].
#[derive(Debug, Clone)]
pub struct SchedulerConfigBuilder {
    config: SchedulerConfig,
}

impl SchedulerConfigBuilder {
    /// Sets the LAC capacity configuration.
    #[must_use]
    pub fn lac(mut self, lac: LacConfig) -> Self {
        self.config.lac = lac;
        self
    }

    /// Sets the resource-stealing parameters.
    #[must_use]
    pub fn stealing(mut self, stealing: StealingConfig) -> Self {
        self.config.stealing = stealing;
        self
    }

    /// Sets the event-polling granularity.
    #[must_use]
    pub fn slice(mut self, slice: Cycles) -> Self {
        self.config.slice = slice;
        self
    }

    /// Enables/disables automatic mode downgrade.
    #[must_use]
    pub fn auto_downgrade(mut self, enabled: bool) -> Self {
        self.config.auto_downgrade = enabled;
        self
    }

    /// Enables/disables resource stealing.
    #[must_use]
    pub fn stealing_enabled(mut self, enabled: bool) -> Self {
        self.config.stealing_enabled = enabled;
        self
    }

    /// Sets the minimum slack fraction for automatic downgrade.
    #[must_use]
    pub fn auto_downgrade_min_slack(mut self, fraction: f64) -> Self {
        self.config.auto_downgrade_min_slack = fraction;
        self
    }

    /// Finishes the configuration.
    #[must_use]
    pub fn build(self) -> SchedulerConfig {
        self.config
    }
}

/// Notable moments in a job's life, for reports and trace visualization
/// (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum JobEvent {
    /// Admitted with a reservation starting at the given time.
    Accepted(Cycles),
    /// Began executing.
    Started,
    /// Began running opportunistically under automatic downgrade.
    AutoDowngraded,
    /// Reverted to Strict execution at its fallback reservation.
    SwitchedBack,
    /// Resource stealing removed one way.
    WayStolen,
    /// The stealing guard tripped; stolen ways returned.
    StealingCancelled,
    /// A way fault shrank this job's reservation by the given ways.
    FaultDowngraded(Ways),
    /// A way fault revoked this job's reservation outright.
    ReservationRevoked,
    /// Finished all work.
    Completed,
}

/// Resource-stealing summary for an Elastic(X) job (Figure 8's metrics).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StealReport {
    /// The job's slack `X`.
    pub slack: cmpqos_types::Percent,
    /// Ways stolen at completion (zero if the guard cancelled).
    pub stolen: Ways,
    /// Peak ways stolen at any point (what the job actually donated).
    pub max_stolen: Ways,
    /// Whether the guard cancelled stealing.
    pub cancelled: bool,
    /// Final cumulative L2 miss increase versus the duplicate tags.
    pub miss_increase: f64,
    /// Repartitioning intervals processed.
    pub intervals: u64,
}

/// Final (or in-flight) report for one job.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct JobReport {
    /// The submission.
    pub job: QosJob,
    /// Submission time.
    pub arrival: Cycles,
    /// The admission decision.
    pub decision: Decision,
    /// First execution instant (None if never started).
    pub started: Option<Cycles>,
    /// Completion instant (None if still running).
    pub finished: Option<Cycles>,
    /// Performance counters (snapshot at completion or query time).
    pub perf: PerfCounters,
    /// Event log with timestamps.
    pub events: Vec<(Cycles, JobEvent)>,
    /// Stealing summary (Elastic jobs that ran with stealing enabled).
    pub steal: Option<StealReport>,
}

impl JobReport {
    /// Whether the job completed by its deadline. Jobs without a deadline
    /// count as meeting it; unaccepted or unfinished jobs do not.
    #[must_use]
    pub fn met_deadline(&self) -> bool {
        match (self.finished, self.job.deadline) {
            (Some(f), Some(td)) => f <= td,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Execution wall-clock time (start to finish), if completed.
    #[must_use]
    pub fn wall_clock(&self) -> Option<Cycles> {
        match (self.started, self.finished) {
            (Some(s), Some(f)) => Some(f - s),
            _ => None,
        }
    }
}

/// What injecting a faulty L2 way did to the node and its reservations.
#[derive(Debug)]
#[non_exhaustive]
pub struct WayFaultOutcome {
    /// The way that was masked out of the shared L2.
    pub way: u16,
    /// Dirty lines the mask flushed out of the dead way column.
    pub dirty_writebacks: usize,
    /// What happened to each live reservation, in FCFS order.
    pub revocations: Vec<Revocation>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    /// Reserved; waiting for its start time (Strict/Elastic).
    WaitingStart(Cycles),
    /// Running pinned with reserved resources.
    RunningReserved,
    /// Running (or queued) as floating/opportunistic work.
    RunningOpportunistic,
    /// Done.
    Completed(Cycles),
    /// Rejected by admission control.
    Rejected,
}

/// Whether the event pump still has to visit `m` at or after `now`: the
/// job is waiting or running, or its switch-back time lies ahead. A job
/// that completes before its fallback slot keeps that slot as an event
/// boundary until the time passes.
fn needs_pump(m: &Managed, now: Cycles) -> bool {
    !matches!(m.state, JobState::Completed(_) | JobState::Rejected)
        || m.switch_back_at.is_some_and(|t| t > now)
}

struct Managed {
    job: QosJob,
    arrival: Cycles,
    decision: Decision,
    state: JobState,
    source: Option<Box<dyn TraceSource>>,
    stealing: Option<StealingController>,
    /// Automatic-downgrade fallback: revert to Strict at this time.
    switch_back_at: Option<Cycles>,
    started: Option<Cycles>,
    finished: Option<Cycles>,
    events: Vec<(Cycles, JobEvent)>,
    steal_summary: Option<StealReport>,
}

impl fmt::Debug for Managed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Managed")
            .field("job", &self.job)
            .field("state", &self.state)
            .finish()
    }
}

/// The framework orchestrator. See the [crate docs](crate) for a quick
/// start.
///
/// Every observable moment — admission decisions, starts, downgrades,
/// stealing intervals, guard trips, partition retargets, completions — is
/// emitted to the attached [`Recorder`] ([`NullRecorder`] by default,
/// which costs nothing on the hot path).
pub struct QosScheduler {
    node: CmpNode,
    lac: Lac,
    config: SchedulerConfig,
    jobs: BTreeMap<JobId, Managed>,
    /// Ids of the jobs the event pump visits, in id order: every job for
    /// which [`needs_pump`] held at the last pump. Rejected jobs never
    /// enter, so the pump's scans skip the bulk of a busy run's jobs.
    active: BTreeSet<JobId>,
    recorder: Box<dyn Recorder>,
    epoch: Option<EpochHook>,
}

/// The installed closed-loop controller plus its sampling bookkeeping.
struct EpochHook {
    controller: Box<dyn EpochController>,
    epoch_len: Cycles,
    next_epoch: Cycles,
    /// Lifetime counters at the previous boundary, for window deltas.
    last_perf: BTreeMap<JobId, PerfCounters>,
}

impl fmt::Debug for QosScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QosScheduler")
            .field("node", &self.node)
            .field("lac", &self.lac)
            .field("config", &self.config)
            .field("jobs", &self.jobs)
            .field("recording", &self.recorder.enabled())
            .field(
                "controller",
                &self.epoch.as_ref().map(|h| h.controller.name()),
            )
            .finish()
    }
}

impl QosScheduler {
    /// Creates a scheduler over a fresh node, with events discarded
    /// (a [`NullRecorder`]).
    ///
    /// The LAC capacity is aligned to the node: its core count and L2
    /// associativity override whatever `config.lac` said.
    #[must_use]
    pub fn new(system: SystemConfig, config: SchedulerConfig) -> Self {
        Self::with_recorder(system, config, Box::new(NullRecorder))
    }

    /// [`QosScheduler::new`] with an event sink attached.
    #[must_use]
    pub fn with_recorder(
        system: SystemConfig,
        mut config: SchedulerConfig,
        recorder: Box<dyn Recorder>,
    ) -> Self {
        config.lac.capacity = ResourceRequest::new(
            system.num_cores as u32,
            Ways::new(system.l2.associativity()),
        )
        .with_bandwidth(100);
        Self {
            node: CmpNode::new(system),
            lac: Lac::new(config.lac),
            config,
            jobs: BTreeMap::new(),
            active: BTreeSet::new(),
            recorder,
            epoch: None,
        }
    }

    /// Installs a closed-loop [`EpochController`], sampled every
    /// `epoch_len` cycles starting one epoch from now. Returns the
    /// previously installed controller, if any.
    ///
    /// Each boundary the scheduler samples every live job's windowed
    /// delivered performance, emits `SloViolated` for jobs over their
    /// [`SloSpec`], hands the batch to the controller, and applies the
    /// knob movements it returns — emitting `KnobChanged` only when an
    /// applied value actually differs.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    pub fn set_epoch_controller(
        &mut self,
        controller: Box<dyn EpochController>,
        epoch_len: Cycles,
    ) -> Option<Box<dyn EpochController>> {
        assert!(epoch_len > Cycles::ZERO, "epoch length must be positive");
        let hook = EpochHook {
            controller,
            epoch_len,
            next_epoch: self.node.now() + epoch_len,
            last_perf: BTreeMap::new(),
        };
        self.epoch.replace(hook).map(|h| h.controller)
    }

    /// Replaces the event sink, returning the previous one.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) -> Box<dyn Recorder> {
        std::mem::replace(&mut self.recorder, recorder)
    }

    /// Detaches the event sink (a [`NullRecorder`] takes its place), e.g.
    /// to inspect a `RingBufferRecorder`'s contents after a run.
    pub fn take_recorder(&mut self) -> Box<dyn Recorder> {
        self.set_recorder(Box::new(NullRecorder))
    }

    /// Mutable access to the attached sink (e.g. to flush it).
    pub fn recorder_mut(&mut self) -> &mut dyn Recorder {
        self.recorder.as_mut()
    }

    /// The underlying node (read access for stats and introspection).
    #[must_use]
    pub fn node(&self) -> &CmpNode {
        &self.node
    }

    /// The admission controller.
    #[must_use]
    pub fn lac(&self) -> &Lac {
        &self.lac
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.node.now()
    }

    /// Whether any job is still waiting or running.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.active_jobs()
            .all(|(_, m)| matches!(m.state, JobState::Completed(_) | JobState::Rejected))
    }

    /// Submits a job at the current simulation time with its workload
    /// `source`. Returns the admission decision.
    pub fn submit(&mut self, job: QosJob, source: Box<dyn TraceSource>) -> Decision {
        let now = self.node.now();
        self.lac.advance(now);
        let id = job.id;
        self.recorder.record(
            now,
            Event::Submitted {
                job: id,
                mode: job.mode.into(),
            },
        );

        // Automatic mode downgrade (Section 3.4): a Strict job with slack
        // reserves the *latest* slot and runs opportunistically until then.
        let min_slack = job
            .max_wall_clock
            .scale(self.config.auto_downgrade_min_slack);
        let auto = self.config.auto_downgrade
            && job.mode == ExecutionMode::Strict
            && job.deadline.is_some_and(|td| {
                auto_downgrade_plan(now, td, job.max_wall_clock).is_some()
                    && td.saturating_sub(now).saturating_sub(job.max_wall_clock) >= min_slack
            });

        let decision = if auto {
            let td = job.deadline.expect("auto requires a deadline");
            let mut b = AdmissionRequest::builder(id, job.request, job.max_wall_clock)
                .deadline(td)
                .latest_feasible();
            if let Some(slo) = job.slo {
                b = b.slo(slo);
            }
            self.lac.admit_with(&b.build(), self.recorder.as_mut())
        } else {
            let mut b =
                AdmissionRequest::builder(id, job.request, job.max_wall_clock).mode(job.mode);
            if let Some(td) = job.deadline {
                b = b.deadline(td);
            }
            if let Some(slo) = job.slo {
                b = b.slo(slo);
            }
            self.lac.admit_with(&b.build(), self.recorder.as_mut())
        };

        let mut managed = Managed {
            job,
            arrival: now,
            decision,
            state: JobState::Rejected,
            // A rejected job never runs: its trace source is dropped here.
            source: decision.is_accepted().then_some(source),
            stealing: None,
            switch_back_at: None,
            started: None,
            finished: None,
            events: Vec::new(),
            steal_summary: None,
        };

        if let Decision::Accepted { start } = decision {
            managed.events.push((now, JobEvent::Accepted(start)));
            match job.mode {
                ExecutionMode::Opportunistic => {
                    managed.state = JobState::RunningOpportunistic;
                }
                _ if auto && start > now => {
                    // Run opportunistically until the fallback slot.
                    managed.state = JobState::RunningOpportunistic;
                    managed.switch_back_at = Some(start);
                    managed.events.push((now, JobEvent::AutoDowngraded));
                    self.recorder.record(
                        now,
                        Event::Downgraded {
                            job: id,
                            from: job.mode.into(),
                            to: cmpqos_obs::Mode::Opportunistic,
                        },
                    );
                }
                _ => {
                    managed.state = JobState::WaitingStart(start);
                }
            }
        }

        let state = managed.state;
        self.jobs.insert(id, managed);
        if state != JobState::Rejected {
            self.active.insert(id);
        }
        match state {
            JobState::RunningOpportunistic => self.spawn_floating(id),
            JobState::WaitingStart(start) if start <= now => self.try_start_reserved(),
            _ => {}
        }
        decision
    }

    /// Runs the framework until simulation time `t`.
    pub fn run_until(&mut self, t: Cycles) {
        while self.node.now() < t {
            let next = self
                .next_event_after(self.node.now())
                .map_or(t, |e| e.min(t))
                .min(self.node.now() + self.config.slice)
                .max(self.node.now() + Cycles::new(1));
            self.node.run_until(next);
            self.pump();
        }
    }

    /// Runs until every accepted job has completed (or `hard_cap`).
    /// Returns the completion time of the last job.
    pub fn run_to_idle(&mut self, hard_cap: Cycles) -> Cycles {
        while !self.is_idle() && self.node.now() < hard_cap {
            let next = (self.node.now() + self.config.slice).min(hard_cap);
            self.run_until(next);
        }
        self.jobs
            .values()
            .filter_map(|m| m.finished)
            .max()
            .unwrap_or_else(|| self.node.now())
    }

    /// The report for one submitted job.
    #[must_use]
    pub fn report(&self, id: JobId) -> Option<JobReport> {
        let m = self.jobs.get(&id)?;
        Some(JobReport {
            job: m.job,
            arrival: m.arrival,
            decision: m.decision,
            started: m.started,
            finished: m.finished,
            perf: self.node.perf(id).copied().unwrap_or_default(),
            events: m.events.clone(),
            steal: m.steal_summary,
        })
    }

    /// Reports for every submitted job, in id order.
    #[must_use]
    pub fn reports(&self) -> Vec<JobReport> {
        self.jobs.keys().filter_map(|&id| self.report(id)).collect()
    }

    /// The stealing controller state for an Elastic job, if it has one.
    #[must_use]
    pub fn stealing_state(&self, id: JobId) -> Option<&StealingController> {
        self.jobs.get(&id)?.stealing.as_ref()
    }

    // ----- event pump -----------------------------------------------------

    /// The jobs in the pump's index, in id order.
    fn active_jobs(&self) -> impl Iterator<Item = (JobId, &Managed)> + '_ {
        self.active.iter().map(|&id| (id, &self.jobs[&id]))
    }

    fn next_event_after(&self, now: Cycles) -> Option<Cycles> {
        let mut next: Option<Cycles> = None;
        let mut consider = |t: Cycles| {
            if t > now {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        for (_, m) in self.active_jobs() {
            if let JobState::WaitingStart(start) = m.state {
                consider(start);
            }
            if let Some(sb) = m.switch_back_at {
                consider(sb);
            }
        }
        if let Some(hook) = &self.epoch {
            consider(hook.next_epoch);
        }
        next
    }

    fn pump(&mut self) {
        let now = self.node.now();
        self.lac.advance(now);
        self.process_completions();
        self.process_switch_backs();
        self.try_start_reserved();
        self.drive_stealing();
        self.drive_epoch();
        let jobs = &self.jobs;
        self.active.retain(|id| needs_pump(&jobs[id], now));
    }

    fn process_completions(&mut self) {
        let completions = self.node.take_completions();
        if completions.is_empty() {
            return;
        }
        for c in completions {
            if let Some(m) = self.jobs.get_mut(&c.id) {
                m.state = JobState::Completed(c.finished_at);
                m.started = Some(c.started_at);
                m.finished = Some(c.finished_at);
                m.events.push((c.finished_at, JobEvent::Completed));
                let met_deadline = m.job.deadline.is_none_or(|td| c.finished_at <= td);
                self.recorder.record(
                    c.finished_at,
                    Event::Completed {
                        job: c.id,
                        met_deadline,
                    },
                );
                if let Some(td) = m.job.deadline {
                    if c.finished_at > td {
                        self.recorder.record(
                            c.finished_at,
                            Event::DeadlineMissed {
                                job: c.id,
                                deadline: td,
                                finished: c.finished_at,
                            },
                        );
                    }
                }
                // Reclaim any remaining reservation (early completion).
                self.lac.release(c.id, c.finished_at);
                let monitor = self.node.detach_monitor(c.id);
                if let (Some(ctl), Some(mon)) = (m.stealing.take(), monitor) {
                    m.steal_summary = Some(StealReport {
                        slack: ctl.slack(),
                        stolen: ctl.stolen(),
                        max_stolen: ctl.max_stolen(),
                        cancelled: ctl.is_cancelled(),
                        miss_increase: mon.miss_increase(),
                        intervals: ctl.intervals_seen(),
                    });
                }
            }
        }
        self.recompute_partition();
        // Freed cores may unblock waiting reserved jobs.
        self.try_start_reserved();
    }

    fn process_switch_backs(&mut self) {
        let now = self.node.now();
        let due: Vec<JobId> = self
            .active_jobs()
            .filter(|(_, m)| {
                m.state == JobState::RunningOpportunistic
                    && m.switch_back_at.is_some_and(|t| t <= now)
            })
            .map(|(id, _)| id)
            .collect();
        for id in due {
            let Some(core) = self.free_core() else {
                continue; // retry next pump; the reservation guarantees one soon
            };
            if self.node.is_live(id) && self.node.repin(id, core).is_ok() {
                self.node.set_reserved(id, true);
                let m = self.jobs.get_mut(&id).expect("job tracked");
                m.switch_back_at = None;
                m.state = JobState::RunningReserved;
                m.events.push((now, JobEvent::SwitchedBack));
                let to = m.job.mode.into();
                self.recorder
                    .record(now, Event::SwitchedBack { job: id, to });
                self.recompute_partition();
            } else if let Some(m) = self.jobs.get_mut(&id) {
                // Completed in the same slice; nothing to revert.
                m.switch_back_at = None;
            }
        }
    }

    fn try_start_reserved(&mut self) {
        let now = self.node.now();
        loop {
            let due: Option<JobId> = self
                .active_jobs()
                .filter(|(_, m)| matches!(m.state, JobState::WaitingStart(s) if s <= now))
                .min_by_key(|(_, m)| match m.state {
                    JobState::WaitingStart(s) => s,
                    _ => Cycles::ZERO,
                })
                .map(|(id, _)| id);
            let Some(id) = due else { return };
            let Some(core) = self.free_core() else {
                return; // no free core yet (a predecessor overran); retry later
            };
            // A predecessor overrunning its reservation may still hold its
            // ways; starting now would overcommit the partition. Delay.
            let total = self.node.l2_usable_ways().get();
            let in_use: u16 = (0..self.node.config().num_cores as u32)
                .filter_map(|i| self.node.pinned_on(CoreId::new(i)))
                .filter_map(|jid| self.jobs.get(&jid))
                .map(|j| j.job.request.cache_ways().get())
                .sum();
            let want = self
                .jobs
                .get(&id)
                .expect("job tracked")
                .job
                .request
                .cache_ways()
                .get();
            if in_use + want > total {
                return;
            }
            let m = self.jobs.get_mut(&id).expect("job tracked");
            let source = m.source.take().expect("unstarted job retains its source");
            let spec = TaskSpec {
                id,
                source,
                budget: m.job.work,
                placement: Placement::Pinned(core),
                reserved: true,
            };
            m.state = JobState::RunningReserved;
            m.events.push((now, JobEvent::Started));
            self.recorder.record(
                now,
                Event::Started {
                    job: id,
                    core: Some(core),
                    mode: m.job.mode.into(),
                },
            );
            if let ExecutionMode::Elastic(x) = m.job.mode {
                if self.config.stealing_enabled {
                    m.stealing = Some(StealingController::new(
                        x,
                        m.job.request.cache_ways(),
                        self.config.stealing,
                    ));
                }
            }
            let is_elastic =
                matches!(m.job.mode, ExecutionMode::Elastic(_)) && self.config.stealing_enabled;
            let ways = m.job.request.cache_ways();
            self.node.spawn(spec).expect("validated spawn");
            if is_elastic {
                self.node.attach_monitor(id, ways);
            }
            self.recompute_partition();
        }
    }

    fn spawn_floating(&mut self, id: JobId) {
        let m = self.jobs.get_mut(&id).expect("job tracked");
        let source = m.source.take().expect("unstarted job retains its source");
        let spec = TaskSpec {
            id,
            source,
            budget: m.job.work,
            placement: Placement::Floating,
            reserved: false,
        };
        let now = self.node.now();
        m.events.push((now, JobEvent::Started));
        self.recorder.record(
            now,
            Event::Started {
                job: id,
                core: None,
                mode: cmpqos_obs::Mode::Opportunistic,
            },
        );
        self.node.spawn(spec).expect("validated spawn");
        self.recompute_partition();
    }

    fn drive_stealing(&mut self) {
        if !self.config.stealing_enabled {
            return;
        }
        let ids: Vec<JobId> = self
            .active_jobs()
            .filter(|(_, m)| m.stealing.is_some() && m.state == JobState::RunningReserved)
            .map(|(id, _)| id)
            .collect();
        if ids.is_empty() {
            return;
        }
        let bus = self.node.bus_utilization();
        let mut changed = false;
        for id in ids {
            let Some(perf) = self.node.perf(id).copied() else {
                continue;
            };
            let m = self.jobs.get_mut(&id).expect("job tracked");
            let ctl = m.stealing.as_mut().expect("filtered on stealing");
            if !ctl.interval_due(perf.instructions()) {
                continue;
            }
            let Some(monitor) = self.node.monitor(id) else {
                continue;
            };
            let now = self.node.now();
            let action = ctl.decide_recorded(monitor, bus, id, now, self.recorder.as_mut());
            match action {
                StealingAction::StealOne => {
                    m.events.push((now, JobEvent::WayStolen));
                    changed = true;
                }
                StealingAction::Cancel { .. } => {
                    m.events.push((now, JobEvent::StealingCancelled));
                    changed = true;
                }
                StealingAction::Hold => {}
            }
        }
        if changed {
            self.recompute_partition();
        }
    }

    /// Samples the epoch window and lets the installed controller retune
    /// the actuators. No-op without a controller or before the boundary.
    fn drive_epoch(&mut self) {
        let now = self.node.now();
        let Some(hook) = self.epoch.as_mut() else {
            return;
        };
        if now < hook.next_epoch {
            return;
        }
        // Advance the boundary first (catching up if a long slice crossed
        // several), so a controller panic can't wedge the cadence.
        while hook.next_epoch <= now {
            hook.next_epoch += hook.epoch_len;
        }
        let cores = self.node.config().num_cores as u32;
        let mut pinned: BTreeMap<JobId, CoreId> = BTreeMap::new();
        let mut floating_cores: Vec<CoreId> = Vec::new();
        for i in 0..cores {
            let core = CoreId::new(i);
            match self.node.pinned_on(core) {
                Some(id) => {
                    pinned.insert(id, core);
                }
                None => floating_cores.push(core),
            }
        }
        // One window delta per live job, in job-id order (deterministic).
        let mut samples = Vec::new();
        for &id in &self.active {
            let m = &self.jobs[&id];
            if !matches!(
                m.state,
                JobState::RunningReserved | JobState::RunningOpportunistic
            ) {
                continue;
            }
            let Some(perf) = self.node.perf(id).copied() else {
                continue;
            };
            let prev = hook.last_perf.insert(id, perf).unwrap_or_default();
            let delta = perf.delta_since(&prev);
            samples.push(EpochSample {
                job: id,
                core: pinned.get(&id).copied(),
                mode: m.job.mode,
                slo: m.job.slo,
                instructions: delta.instructions(),
                cycles: delta.cycles(),
                l2_misses: delta.l2_misses(),
            });
        }
        for s in &samples {
            if s.violates_slo() {
                self.recorder.record(
                    now,
                    Event::SloViolated {
                        job: s.job,
                        cpi_milli: s.cpi_milli().unwrap_or(0),
                        target_milli: s.slo.map_or(u64::MAX, |t| t.max_cpi_milli),
                    },
                );
            }
        }
        let view = EpochView {
            now,
            samples: &samples,
            floating_cores: &floating_cores,
        };
        let updates = hook.controller.epoch(&view);
        for u in updates {
            match u {
                KnobUpdate::StealSlack { job, milli_pct } => {
                    let Some(m) = self.jobs.get_mut(&job) else {
                        continue;
                    };
                    let Some(ctl) = m.stealing.as_mut() else {
                        continue;
                    };
                    let old = ctl.set_slack(Percent::new(milli_pct as f64 / 1000.0));
                    let old_milli = (old.value() * 1000.0).round() as i64;
                    let new_milli = i64::try_from(milli_pct).unwrap_or(i64::MAX);
                    if old_milli != new_milli {
                        self.recorder.record(
                            now,
                            Event::KnobChanged {
                                knob: Knob::StealSlack { job },
                                old: old_milli,
                                new: new_milli,
                            },
                        );
                    }
                }
                KnobUpdate::StealInterval { job, interval } => {
                    let Some(m) = self.jobs.get_mut(&job) else {
                        continue;
                    };
                    let Some(ctl) = m.stealing.as_mut() else {
                        continue;
                    };
                    let old = ctl.set_interval(interval);
                    if old != interval {
                        self.recorder.record(
                            now,
                            Event::KnobChanged {
                                knob: Knob::StealInterval { job },
                                old: i64::try_from(old.get()).unwrap_or(i64::MAX),
                                new: i64::try_from(interval.get()).unwrap_or(i64::MAX),
                            },
                        );
                    }
                }
                KnobUpdate::CoreSpeed { core, percent } => {
                    if core.as_usize() >= cores as usize {
                        continue;
                    }
                    let old = self.node.set_core_speed(core, percent);
                    let new = self.node.core_speed(core);
                    if old != new {
                        self.recorder.record(
                            now,
                            Event::KnobChanged {
                                knob: Knob::CoreSpeed { core },
                                old: i64::from(old),
                                new: i64::from(new),
                            },
                        );
                    }
                }
            }
        }
    }

    // ----- fault injection ------------------------------------------------

    /// Injects a permanently faulty L2 way (e.g. flagged by in-field BIST):
    /// the way is masked out of the shared cache, the LAC's capacity
    /// shrinks by one way, and every live reservation is re-validated FCFS
    /// against the smaller cache — kept, downgraded within its Elastic
    /// slack, or revoked with [`crate::lac::RejectReason::CapacityRevoked`].
    ///
    /// Jobs still waiting on a revoked reservation become rejected; jobs
    /// already running keep their core and continue best-effort (the
    /// partition clamp absorbs any transient overcommit). Every
    /// consequence is emitted to the attached recorder.
    ///
    /// # Errors
    ///
    /// Propagates [`WayMaskError`] when `way` is out of range, already
    /// masked, or the last usable way; nothing changes in that case.
    pub fn inject_way_fault(&mut self, way: u16) -> Result<WayFaultOutcome, WayMaskError> {
        let now = self.node.now();
        self.lac.advance(now);
        let evictions = self.node.mask_l2_way(way)?;
        let node = NodeId::new(0);
        self.recorder.record(
            now,
            Event::FaultInjected {
                node,
                fault: FaultKind::WayFault { way },
            },
        );
        let new_capacity = self
            .lac
            .capacity()
            .minus(&ResourceRequest::new(0, Ways::new(1)));
        let revocations = self.lac.revoke_capacity(new_capacity, now);
        for r in &revocations {
            match r.action {
                RevocationAction::Kept => {}
                RevocationAction::Downgraded { ways_cut } => {
                    if let Some(m) = self.jobs.get_mut(&r.id) {
                        m.job.request = m.job.request.minus(&ResourceRequest::new(0, ways_cut));
                        m.events.push((now, JobEvent::FaultDowngraded(ways_cut)));
                    }
                    self.recorder.record(
                        now,
                        Event::DowngradedUnderFault {
                            job: r.id,
                            node,
                            ways_cut,
                        },
                    );
                }
                RevocationAction::Evicted { reason, .. } => {
                    if let Some(m) = self.jobs.get_mut(&r.id) {
                        m.events.push((now, JobEvent::ReservationRevoked));
                        if matches!(m.state, JobState::WaitingStart(_)) {
                            m.state = JobState::Rejected;
                            m.decision = Decision::Rejected(reason);
                            m.source = None;
                        }
                    }
                    self.recorder.record(
                        now,
                        Event::ReservationRevoked {
                            job: r.id,
                            node,
                            cause: reason.into(),
                        },
                    );
                }
            }
        }
        self.recompute_partition();
        Ok(WayFaultOutcome {
            way,
            dirty_writebacks: evictions.len(),
            revocations,
        })
    }

    // ----- partition management -------------------------------------------

    /// A core with no pinned occupant.
    fn free_core(&self) -> Option<CoreId> {
        (0..self.node.config().num_cores as u32)
            .map(CoreId::new)
            .find(|&c| self.node.pinned_on(c).is_none())
    }

    /// Recomputes all L2 targets: reserved cores get their job's request
    /// minus stolen ways; everything else (unallocated + stolen) is split
    /// across cores available to floating work.
    fn recompute_partition(&mut self) {
        let cores = self.node.config().num_cores;
        let total = self.node.l2_usable_ways().get();
        let mut targets = vec![Ways::ZERO; cores];
        let mut reserved_sum: u16 = 0;
        let mut floating_cores = Vec::new();
        for (i, target) in targets.iter_mut().enumerate() {
            let core = CoreId::new(i as u32);
            match self.node.pinned_on(core) {
                Some(id) => {
                    let m = self.jobs.get(&id).expect("pinned jobs are tracked");
                    let ways = m
                        .stealing
                        .as_ref()
                        .map_or(m.job.request.cache_ways(), StealingController::current_ways);
                    *target = ways;
                    reserved_sum += ways.get();
                }
                None => floating_cores.push(i),
            }
        }
        // Clamp (defensively) if overrunning jobs transiently overcommit.
        if reserved_sum > total {
            let mut excess = reserved_sum - total;
            for t in targets.iter_mut().rev() {
                let cut = excess.min(t.get());
                *t -= Ways::new(cut);
                excess -= cut;
                if excess == 0 {
                    break;
                }
            }
            reserved_sum = total;
        }
        let pool = total.saturating_sub(reserved_sum);
        if !floating_cores.is_empty() {
            let share = pool / floating_cores.len() as u16;
            let extra = pool % floating_cores.len() as u16;
            for (rank, &i) in floating_cores.iter().enumerate() {
                let bonus = u16::from((rank as u16) < extra);
                targets[i] = Ways::new(share + bonus);
            }
        }
        self.node
            .set_l2_targets_recorded(&targets, self.recorder.as_mut())
            .expect("targets never exceed associativity");
        // Program bandwidth caps: reserved jobs with an explicit bandwidth
        // share are held to it; everything else is best-effort (uncapped,
        // but behind Reserved traffic in the channel's priority queue).
        for i in 0..cores {
            let core = CoreId::new(i as u32);
            let share = match self.node.pinned_on(core) {
                Some(id) => {
                    let pct = self
                        .jobs
                        .get(&id)
                        .map_or(0, |m| m.job.request.bandwidth_pct());
                    if pct == 0 {
                        100
                    } else {
                        pct.min(100) as u8
                    }
                }
                None => 100,
            };
            self.node.set_bandwidth_share(core, share);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_trace::spec;
    use cmpqos_types::Percent;

    const K: u64 = 16;

    fn sched(auto: bool) -> QosScheduler {
        let cfg = SchedulerConfig {
            auto_downgrade: auto,
            ..SchedulerConfig::default()
        };
        QosScheduler::new(SystemConfig::paper_scaled(K), cfg)
    }

    fn job(id: u32, mode: ExecutionMode, work: u64, tw: u64, td: Option<u64>) -> QosJob {
        QosJob {
            id: JobId::new(id),
            mode,
            request: ResourceRequest::paper_job(),
            work: Instructions::new(work),
            max_wall_clock: Cycles::new(tw),
            deadline: td.map(Cycles::new),
            slo: None,
        }
    }

    fn source(id: u32, bench: &str) -> Box<dyn TraceSource> {
        let p = spec::scaled(bench, K).unwrap();
        Box::new(p.instantiate(1000 + u64::from(id), u64::from(id) << 40))
    }

    /// gobmk at 7 ways runs at roughly CPI 2.6 → 100k instructions in
    /// ~300k cycles. Use generous tw.
    const WORK: u64 = 100_000;
    const TW: u64 = 800_000;

    #[test]
    fn strict_job_completes_within_deadline() {
        let mut s = sched(false);
        let d = s.submit(
            job(0, ExecutionMode::Strict, WORK, TW, Some(2 * TW)),
            source(0, "gobmk"),
        );
        assert!(d.is_accepted());
        s.run_to_idle(Cycles::new(100_000_000));
        let r = s.report(JobId::new(0)).unwrap();
        assert!(r.met_deadline(), "report: {r:?}");
        assert_eq!(r.perf.instructions().get(), WORK);
    }

    #[test]
    fn third_strict_job_waits_for_capacity() {
        let mut s = sched(false);
        for i in 0..3 {
            let d = s.submit(
                job(i, ExecutionMode::Strict, WORK, TW, Some(10 * TW)),
                source(i, "gobmk"),
            );
            assert!(d.is_accepted(), "job {i}");
        }
        // Jobs 0 and 1 start immediately; job 2 is reserved after one ends.
        let r2 = s.report(JobId::new(2)).unwrap();
        assert!(r2.decision.start().unwrap() > Cycles::ZERO);
        s.run_to_idle(Cycles::new(1_000_000_000));
        for i in 0..3 {
            assert!(s.report(JobId::new(i)).unwrap().met_deadline(), "job {i}");
        }
    }

    #[test]
    fn infeasible_deadline_is_rejected_upfront() {
        let mut s = sched(false);
        let _ = s.submit(
            job(0, ExecutionMode::Strict, WORK, TW, Some(10 * TW)),
            source(0, "gobmk"),
        );
        let _ = s.submit(
            job(1, ExecutionMode::Strict, WORK, TW, Some(10 * TW)),
            source(1, "gobmk"),
        );
        // Tight deadline + no capacity until TW: reject.
        let d = s.submit(
            job(2, ExecutionMode::Strict, WORK, TW, Some(TW + TW / 100)),
            source(2, "gobmk"),
        );
        assert!(!d.is_accepted());
    }

    #[test]
    fn rejected_jobs_drop_their_source_and_leave_the_pump() {
        let mut s = sched(false);
        for i in 0..2 {
            let d = s.submit(
                job(i, ExecutionMode::Strict, WORK, TW, Some(10 * TW)),
                source(i, "gobmk"),
            );
            assert!(d.is_accepted(), "job {i}");
        }
        let d = s.submit(
            job(2, ExecutionMode::Strict, WORK, TW, Some(TW + TW / 100)),
            source(2, "gobmk"),
        );
        assert!(!d.is_accepted());
        assert!(s.jobs[&JobId::new(2)].source.is_none());
        assert!(!s.active.contains(&JobId::new(2)));
        assert_eq!(s.active.len(), 2);
        s.run_to_idle(Cycles::new(1_000_000_000));
        assert!(s.is_idle());
        assert!(s.active.is_empty(), "completed jobs leave the pump's index");
    }

    #[test]
    fn opportunistic_jobs_run_on_spare_cores() {
        let mut s = sched(false);
        let _ = s.submit(
            job(0, ExecutionMode::Strict, WORK, TW, Some(10 * TW)),
            source(0, "gobmk"),
        );
        let d = s.submit(
            job(1, ExecutionMode::Opportunistic, WORK, TW, None),
            source(1, "gobmk"),
        );
        assert!(d.is_accepted());
        s.run_to_idle(Cycles::new(1_000_000_000));
        let r = s.report(JobId::new(1)).unwrap();
        assert!(r.finished.is_some());
        // It used the spare-way pool: 16 - 7 = 9 ways across 3 free cores.
        assert!(r.perf.instructions().get() == WORK);
    }

    #[test]
    fn elastic_job_donates_ways_to_opportunistic() {
        let mut s = sched(false);
        // gobmk is insensitive: stealing should proceed several intervals.
        let mut cfg = SchedulerConfig::default();
        cfg.stealing.interval = Instructions::new(10_000);
        let mut s2 = QosScheduler::new(SystemConfig::paper_scaled(K), cfg);
        std::mem::swap(&mut s, &mut s2);
        let d = s.submit(
            job(
                0,
                ExecutionMode::Elastic(Percent::new(20.0)),
                400_000,
                8 * TW,
                Some(80 * TW),
            ),
            source(0, "gobmk"),
        );
        assert!(d.is_accepted());
        let _ = s.submit(
            job(1, ExecutionMode::Opportunistic, 200_000, TW, None),
            source(1, "bzip2"),
        );
        s.run_until(Cycles::new(600_000));
        let ctl = s
            .stealing_state(JobId::new(0))
            .expect("controller attached");
        assert!(
            ctl.stolen() > Ways::ZERO || ctl.is_cancelled(),
            "stealing engaged: {ctl:?}"
        );
        s.run_to_idle(Cycles::new(4_000_000_000));
        assert!(s.report(JobId::new(0)).unwrap().met_deadline());
    }

    #[test]
    fn auto_downgrade_runs_opportunistically_then_switches_back() {
        let mut s = sched(true);
        // Occupy two cores' worth of ways so the downgraded job cannot get
        // a reservation immediately... actually: submit one relaxed job.
        let d = s.submit(
            job(0, ExecutionMode::Strict, WORK, TW, Some(3 * TW)),
            source(0, "gobmk"),
        );
        assert!(d.is_accepted());
        // Reservation sits at td - tw = 2*TW, not at 0.
        assert_eq!(d.start(), Some(Cycles::new(2 * TW)));
        let r = s.report(JobId::new(0)).unwrap();
        assert!(r.events.iter().any(|(_, e)| *e == JobEvent::AutoDowngraded));
        s.run_to_idle(Cycles::new(1_000_000_000));
        let r = s.report(JobId::new(0)).unwrap();
        assert!(r.met_deadline());
        // Completed early (free cores + pool ways) => never switched back.
        assert!(r.finished.unwrap() < Cycles::new(2 * TW));
    }

    #[test]
    fn auto_downgraded_job_switches_back_when_slow() {
        let mut s = sched(true);
        // Two long strict jobs pin cores (no deadline: not downgraded);
        // the third queues after them.
        for i in 0..3 {
            let _ = s.submit(
                job(i, ExecutionMode::Strict, 4 * WORK, 3 * TW, None),
                source(i, "gobmk"),
            );
        }
        // Slack job: fallback reservation at td - tw = 4*TW.
        let d = s.submit(
            job(9, ExecutionMode::Strict, 4 * WORK, 4 * TW, Some(8 * TW)),
            source(9, "gobmk"),
        );
        assert!(d.is_accepted(), "decision: {d:?}");
        let switch_back = d.start().unwrap();
        assert!(switch_back > Cycles::ZERO, "late reservation expected");
        s.run_to_idle(Cycles::new(10_000_000_000));
        let r = s.report(JobId::new(9)).unwrap();
        assert!(r.met_deadline(), "deadline held: {:?}", r.finished);
        // It must have either completed opportunistically before the
        // fallback slot or switched back to Strict at the slot.
        let switched = r.events.iter().any(|(_, e)| *e == JobEvent::SwitchedBack);
        let finished_early = r.finished.unwrap() <= switch_back;
        assert!(switched || finished_early, "events: {:?}", r.events);
    }

    #[test]
    fn reports_cover_all_submissions() {
        let mut s = sched(false);
        let _ = s.submit(
            job(0, ExecutionMode::Strict, WORK, TW, Some(10 * TW)),
            source(0, "gobmk"),
        );
        let _ = s.submit(
            job(1, ExecutionMode::Opportunistic, WORK, TW, None),
            source(1, "hmmer"),
        );
        assert_eq!(s.reports().len(), 2);
        assert!(!s.is_idle());
        s.run_to_idle(Cycles::new(1_000_000_000));
        assert!(s.is_idle());
    }

    #[test]
    fn bandwidth_shares_follow_reserved_requests() {
        let mut s = sched(false);
        let mut j = job(0, ExecutionMode::Strict, 4 * WORK, 4 * TW, None);
        j.request = ResourceRequest::paper_job().with_bandwidth(25);
        let d = s.submit(j, source(0, "milc"));
        assert!(d.is_accepted());
        s.run_until(Cycles::new(10_000));
        // Core 0 hosts the job: capped to its 25% share; others uncapped.
        assert_eq!(s.node().bandwidth_share(CoreId::new(0)), 25);
        assert_eq!(s.node().bandwidth_share(CoreId::new(1)), 100);
        s.run_to_idle(Cycles::new(10_000_000_000));
        assert!(s.report(JobId::new(0)).unwrap().finished.is_some());
    }

    #[test]
    fn bandwidth_cap_slows_a_streaming_job() {
        // milc is bandwidth-bound; capping its core below its natural
        // demand must stretch it. (A blocking in-order core with one
        // outstanding miss uses at most transfer/(latency+transfer) ≈ 6%
        // of the channel by itself, so the cap must sit below that.)
        let run_with = |share: u16| {
            let mut s = sched(false);
            let mut j = job(0, ExecutionMode::Strict, 2 * WORK, 40 * TW, None);
            if share > 0 {
                j.request = ResourceRequest::paper_job().with_bandwidth(share);
            }
            let d = s.submit(j, source(0, "milc"));
            assert!(d.is_accepted());
            s.run_to_idle(Cycles::new(100_000_000_000));
            s.report(JobId::new(0)).unwrap().wall_clock().unwrap()
        };
        let uncapped = run_with(0);
        let capped = run_with(2);
        assert!(
            capped > uncapped.scale(1.5),
            "2% cap must stretch milc: {capped} vs {uncapped}"
        );
    }

    #[test]
    fn partition_targets_track_reservations() {
        let mut s = sched(false);
        let _ = s.submit(
            job(0, ExecutionMode::Strict, 4 * WORK, 4 * TW, None),
            source(0, "gobmk"),
        );
        s.run_until(Cycles::new(10_000));
        // Core 0 reserved 7 ways; 9 spare ways split 3/3/3 across the rest.
        let targets = s.node().l2_targets().to_vec();
        assert_eq!(targets[0], Ways::new(7));
        assert_eq!(targets[1..].iter().map(|w| w.get()).sum::<u16>(), 9);
    }

    #[test]
    fn way_fault_masks_the_cache_and_shrinks_lac_capacity() {
        let mut s = sched(false);
        assert_eq!(s.node().l2_usable_ways(), Ways::new(16));
        let out = s.inject_way_fault(3).expect("way 3 is maskable");
        assert_eq!(out.way, 3);
        assert!(out.revocations.is_empty());
        assert_eq!(s.node().l2_usable_ways(), Ways::new(15));
        assert_eq!(s.lac().capacity().cache_ways(), Ways::new(15));
        // The same way cannot die twice.
        assert!(matches!(
            s.inject_way_fault(3),
            Err(WayMaskError::AlreadyMasked(3))
        ));
        // The floating pool now splits the 15 surviving ways.
        let total: u16 = s.node().l2_targets().iter().map(|w| w.get()).sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn way_fault_downgrades_a_running_elastic_job_within_slack() {
        let mut s = QosScheduler::with_recorder(
            SystemConfig::paper_scaled(K),
            SchedulerConfig::default(),
            Box::new(cmpqos_obs::RingBufferRecorder::new(128)),
        );
        let mut j = job(
            0,
            ExecutionMode::Elastic(Percent::new(50.0)),
            WORK,
            TW,
            None,
        );
        j.request = ResourceRequest::new(1, Ways::new(16));
        assert!(s.submit(j, source(0, "gobmk")).is_accepted());
        s.run_until(Cycles::new(10_000));
        let out = s.inject_way_fault(0).expect("first fault is maskable");
        assert_eq!(out.revocations.len(), 1);
        assert!(matches!(
            out.revocations[0].action,
            RevocationAction::Downgraded { ways_cut } if ways_cut == Ways::new(1)
        ));
        s.run_to_idle(Cycles::new(1_000_000_000));
        let r = s.report(JobId::new(0)).unwrap();
        assert!(r
            .events
            .iter()
            .any(|(_, e)| *e == JobEvent::FaultDowngraded(Ways::new(1))));
        assert!(r.finished.is_some());
        let rec = s.take_recorder();
        let rec = rec
            .as_any()
            .and_then(|a| a.downcast_ref::<cmpqos_obs::RingBufferRecorder>())
            .expect("ring buffer recorder");
        assert_eq!(rec.counters().faults_injected, 1);
        assert_eq!(rec.counters().downgraded_under_fault, 1);
        assert_eq!(rec.counters().reservations_revoked, 0);
    }

    #[test]
    fn way_fault_revokes_what_cannot_fit_but_running_jobs_finish() {
        let mut s = QosScheduler::with_recorder(
            SystemConfig::paper_scaled(K),
            SchedulerConfig::default(),
            Box::new(cmpqos_obs::RingBufferRecorder::new(128)),
        );
        // A Strict job occupying the whole cache, then a second queued
        // behind it: after one way dies neither 16-way reservation fits.
        for i in 0..2 {
            let mut j = job(i, ExecutionMode::Strict, WORK, TW, None);
            j.request = ResourceRequest::new(1, Ways::new(16));
            assert!(s.submit(j, source(i, "gobmk")).is_accepted(), "job {i}");
        }
        s.run_until(Cycles::new(10_000));
        let out = s.inject_way_fault(7).expect("way 7 is maskable");
        assert_eq!(out.revocations.len(), 2);
        assert!(out
            .revocations
            .iter()
            .all(|r| matches!(r.action, RevocationAction::Evicted { .. })));
        // The runner keeps its core and finishes best-effort; the waiter
        // is terminally rejected with the genuine cause.
        s.run_to_idle(Cycles::new(1_000_000_000));
        let r0 = s.report(JobId::new(0)).unwrap();
        assert!(r0.finished.is_some(), "runner finishes: {r0:?}");
        let r1 = s.report(JobId::new(1)).unwrap();
        assert!(r1.finished.is_none());
        assert_eq!(
            r1.decision,
            Decision::Rejected(crate::lac::RejectReason::CapacityRevoked)
        );
        assert!(r1
            .events
            .iter()
            .any(|(_, e)| *e == JobEvent::ReservationRevoked));
        assert!(s.is_idle(), "no job may linger after revocation");
    }

    // ----- the epoch hook -------------------------------------------------

    use std::sync::{Arc, Mutex};

    /// Replays the same canned knob updates every epoch and records how
    /// many samples each call saw.
    struct CannedController {
        calls: Arc<Mutex<Vec<usize>>>,
        updates: Vec<KnobUpdate>,
    }

    impl EpochController for CannedController {
        fn name(&self) -> &'static str {
            "canned"
        }
        fn epoch(&mut self, view: &EpochView<'_>) -> Vec<KnobUpdate> {
            self.calls.lock().unwrap().push(view.samples.len());
            self.updates.clone()
        }
    }

    fn recording_sched() -> QosScheduler {
        QosScheduler::with_recorder(
            SystemConfig::paper_scaled(K),
            SchedulerConfig::default(),
            Box::new(cmpqos_obs::RingBufferRecorder::new(4096)),
        )
    }

    fn counters(s: &mut QosScheduler) -> cmpqos_obs::Counters {
        let rec = s.take_recorder();
        rec.as_any()
            .and_then(|a| a.downcast_ref::<cmpqos_obs::RingBufferRecorder>())
            .expect("ring buffer recorder")
            .counters()
            .clone()
    }

    #[test]
    fn epoch_hook_samples_live_jobs_and_emits_slo_violations() {
        let mut s = recording_sched();
        let calls = Arc::new(Mutex::new(Vec::new()));
        s.set_epoch_controller(
            Box::new(CannedController {
                calls: Arc::clone(&calls),
                updates: Vec::new(),
            }),
            Cycles::new(50_000),
        );
        // gobmk runs at CPI ~3.5; a 0.5-CPI ceiling is violated every
        // busy window.
        let mut j = job(0, ExecutionMode::Strict, WORK, TW, None);
        j.slo = Some(SloSpec::cpi(0.5));
        assert!(s.submit(j, source(0, "gobmk")).is_accepted());
        s.run_to_idle(Cycles::new(10_000_000_000));
        let calls = calls.lock().unwrap();
        assert!(!calls.is_empty(), "controller must be invoked at epochs");
        assert!(
            calls.contains(&1),
            "some epoch must sample the one live job: {calls:?}"
        );
        let c = counters(&mut s);
        assert!(c.slo_violations > 0, "tight SLO must register violations");
        assert_eq!(c.knob_changes, 0, "no updates were requested");
    }

    #[test]
    fn epoch_knob_updates_apply_and_emit_only_on_change() {
        let mut s = recording_sched();
        let calls = Arc::new(Mutex::new(Vec::new()));
        // The same two updates every epoch: only the first application of
        // each may emit KnobChanged (the values stop changing after that).
        s.set_epoch_controller(
            Box::new(CannedController {
                calls: Arc::clone(&calls),
                updates: vec![
                    KnobUpdate::CoreSpeed {
                        core: CoreId::new(1),
                        percent: 50,
                    },
                    KnobUpdate::StealSlack {
                        job: JobId::new(0),
                        milli_pct: 10_000,
                    },
                ],
            }),
            Cycles::new(50_000),
        );
        let j = job(
            0,
            ExecutionMode::Elastic(Percent::new(20.0)),
            WORK,
            TW,
            None,
        );
        assert!(s.submit(j, source(0, "gobmk")).is_accepted());
        s.run_to_idle(Cycles::new(10_000_000_000));
        assert_eq!(s.node().core_speed(CoreId::new(1)), 50);
        let ctl = s.stealing_state(JobId::new(0));
        if let Some(ctl) = ctl {
            assert!((ctl.slack().value() - 10.0).abs() < 1e-9);
        }
        let epochs = calls.lock().unwrap().len();
        assert!(epochs > 1, "the run must span several epochs: {epochs}");
        let c = counters(&mut s);
        assert_eq!(
            c.knob_changes, 2,
            "each knob changes exactly once despite {epochs} identical requests"
        );
    }

    #[test]
    fn installing_a_controller_returns_the_previous_one() {
        let mut s = sched(false);
        let calls = Arc::new(Mutex::new(Vec::new()));
        let mk = || {
            Box::new(CannedController {
                calls: Arc::clone(&calls),
                updates: Vec::new(),
            })
        };
        assert!(s.set_epoch_controller(mk(), Cycles::new(1000)).is_none());
        let prev = s.set_epoch_controller(mk(), Cycles::new(1000));
        assert_eq!(prev.expect("first controller returned").name(), "canned");
    }
}
