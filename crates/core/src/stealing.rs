//! The resource-stealing controller (Section 4 of the paper).
//!
//! While an `Elastic(X)` job runs, the controller removes one L2 way per
//! repartitioning interval (the paper uses 2M retired instructions of the
//! Elastic job) and donates it to Opportunistic jobs. A sampled duplicate
//! tag array ([`cmpqos_cache::DuplicateTagMonitor`]) tracks the misses the
//! job *would* have had at its original allocation; if the cumulative main
//! misses reach or exceed `X%` above that, stealing is **cancelled** and all
//! stolen ways return to the job. Stealing also pauses while the memory bus
//! is saturated (footnote 2: beyond saturation, queueing delay stops being
//! roughly constant, so the miss-rate guard would no longer bound slowdown).

use cmpqos_cache::DuplicateTagMonitor;
use cmpqos_types::{Cycles, Instructions, JobId, Percent, Ways};

/// The allocation stealing always leaves the job: one way.
const MIN_WAYS: Ways = Ways::new(1);

/// Bus utilization at or above which stealing pauses: 0.9.
const BUS_SATURATION: f64 = 0.9;

/// Stealing parameters.
///
/// Construct with [`StealingConfig::default`] or the
/// [`StealingConfig::builder`]; the struct is `#[non_exhaustive]`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct StealingConfig {
    /// Repartitioning interval, in retired instructions of the Elastic job
    /// (paper: 2,000,000).
    pub interval: Instructions,
}

impl Default for StealingConfig {
    fn default() -> Self {
        Self {
            interval: Instructions::new(2_000_000),
        }
    }
}

impl StealingConfig {
    /// A fluent builder starting from the paper defaults.
    #[must_use]
    pub fn builder() -> StealingConfigBuilder {
        StealingConfigBuilder {
            config: StealingConfig::default(),
        }
    }
}

/// Fluent builder for [`StealingConfig`].
#[derive(Debug, Clone)]
pub struct StealingConfigBuilder {
    config: StealingConfig,
}

impl StealingConfigBuilder {
    /// Sets the repartitioning interval (retired instructions).
    #[must_use]
    pub fn interval(mut self, interval: Instructions) -> Self {
        self.config.interval = interval;
        self
    }

    /// Finishes the configuration.
    #[must_use]
    pub fn build(self) -> StealingConfig {
        self.config
    }
}

/// What the controller wants done at an interval boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealingAction {
    /// Remove one more way from the Elastic job and donate it.
    StealOne,
    /// Guard tripped: return *all* stolen ways to the job and stop stealing
    /// permanently (for this job).
    Cancel {
        /// Ways to give back.
        returned: Ways,
    },
    /// Do nothing this interval (floor reached, bus saturated, or already
    /// cancelled).
    Hold,
}

/// Per-Elastic-job stealing state machine.
///
/// # Examples
///
/// ```
/// use cmpqos_core::{StealingConfig, StealingController};
/// use cmpqos_types::{Percent, Ways};
///
/// let ctl = StealingController::new(Percent::new(5.0), Ways::new(7), StealingConfig::default());
/// assert_eq!(ctl.current_ways(), Ways::new(7));
/// assert_eq!(ctl.stolen(), Ways::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct StealingController {
    config: StealingConfig,
    slack: Percent,
    original: Ways,
    stolen: Ways,
    max_stolen: Ways,
    cancelled: bool,
    intervals_seen: u64,
    last_fire_retired: u64,
}

impl StealingController {
    /// Creates a controller for a job with `slack` (the `X` of Elastic(X))
    /// and an original allocation of `original` ways.
    #[must_use]
    pub fn new(slack: Percent, original: Ways, config: StealingConfig) -> Self {
        Self {
            config,
            slack,
            original,
            stolen: Ways::ZERO,
            max_stolen: Ways::ZERO,
            cancelled: false,
            intervals_seen: 0,
            last_fire_retired: 0,
        }
    }

    /// The job's slack.
    #[must_use]
    pub fn slack(&self) -> Percent {
        self.slack
    }

    /// The repartitioning interval currently in force.
    #[must_use]
    pub fn interval(&self) -> Instructions {
        self.config.interval
    }

    /// Retunes the guard's slack threshold in place, returning the
    /// previous value. This is the adaptive control plane's "stealing
    /// aggressiveness" actuator: a lower threshold makes the guard trip
    /// (and return stolen ways) sooner; setting it to zero makes the next
    /// [`StealingController::decide`] return everything. Raising it back
    /// up un-does nothing retroactively — a cancelled controller stays
    /// cancelled.
    pub fn set_slack(&mut self, slack: Percent) -> Percent {
        std::mem::replace(&mut self.slack, slack)
    }

    /// Retunes the repartitioning interval in place, returning the
    /// previous value. A longer interval slows the steal cadence without
    /// touching the guard. Boundary detection keys on
    /// `retired / interval`, so stretching the interval naturally pauses
    /// the cadence until the job retires into the new, coarser grid.
    pub fn set_interval(&mut self, interval: Instructions) -> Instructions {
        std::mem::replace(&mut self.config.interval, interval)
    }

    /// The original allocation.
    #[must_use]
    pub fn original_ways(&self) -> Ways {
        self.original
    }

    /// Ways currently stolen from the job.
    #[must_use]
    pub fn stolen(&self) -> Ways {
        self.stolen
    }

    /// The most ways that were ever stolen at once (stolen ways return on
    /// cancellation, so this is the figure-of-merit for how much capacity
    /// the job donated).
    #[must_use]
    pub fn max_stolen(&self) -> Ways {
        self.max_stolen
    }

    /// The job's current allocation (`original − stolen`).
    #[must_use]
    pub fn current_ways(&self) -> Ways {
        self.original - self.stolen
    }

    /// Whether the guard has permanently cancelled stealing.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Intervals processed so far.
    #[must_use]
    pub fn intervals_seen(&self) -> u64 {
        self.intervals_seen
    }

    /// Returns `true` when `retired` (the job's cumulative retired
    /// instructions) has crossed into a new repartitioning interval since
    /// the last call that returned `true`.
    pub fn interval_due(&mut self, retired: Instructions) -> bool {
        // The grid is recomputed from the retired count at the last fire so
        // that a retuned interval re-grids from where the job actually is;
        // keying on a stored grid index would leave the boundary stranded in
        // the old grid's units after `set_interval` stretches the cadence.
        let interval = self.config.interval.get().max(1);
        if retired.get() / interval > self.last_fire_retired / interval {
            self.last_fire_retired = retired.get();
            true
        } else {
            false
        }
    }

    /// Decides the action for one interval boundary given the duplicate-tag
    /// monitor and the current bus utilization.
    pub fn decide(
        &mut self,
        monitor: &DuplicateTagMonitor,
        bus_utilization: f64,
    ) -> StealingAction {
        self.intervals_seen += 1;
        if self.cancelled {
            return StealingAction::Hold;
        }
        if self.slack.fraction() <= 0.0 {
            // Elastic(0) tolerates no slowdown at all, and the guard is
            // reactive — it can only trip *after* extra misses were already
            // inflicted. The only allocation consistent with X = 0 is to
            // never start stealing (and never emit a stealing event), which
            // also makes an X = 0 run byte-identical to one with stealing
            // disabled. When the adaptive control plane *cuts* a running
            // donor's slack to zero, though, ways may already be out — the
            // only X = 0-consistent state is to take them all back.
            if self.stolen > Ways::ZERO {
                self.cancelled = true;
                let returned = self.stolen;
                self.stolen = Ways::ZERO;
                return StealingAction::Cancel { returned };
            }
            return StealingAction::Hold;
        }
        if monitor.exceeded(self.slack) {
            self.cancelled = true;
            let returned = self.stolen;
            self.stolen = Ways::ZERO;
            return StealingAction::Cancel { returned };
        }
        if bus_utilization >= BUS_SATURATION {
            return StealingAction::Hold;
        }
        if self.current_ways() > MIN_WAYS {
            self.stolen += Ways::new(1);
            self.max_stolen = self.max_stolen.max(self.stolen);
            StealingAction::StealOne
        } else {
            StealingAction::Hold
        }
    }

    /// [`StealingController::decide`], additionally emitting
    /// `StealTaken`/`GuardTripped`/`StealReturned` for `job` to `recorder`
    /// at cycle `now`.
    pub fn decide_recorded(
        &mut self,
        monitor: &DuplicateTagMonitor,
        bus_utilization: f64,
        job: JobId,
        now: Cycles,
        recorder: &mut dyn cmpqos_obs::Recorder,
    ) -> StealingAction {
        // A Cancel can only come from the guard, but capture the condition
        // before `decide` mutates state so the attribution stays honest.
        let guard_trips =
            !self.cancelled && self.slack.fraction() > 0.0 && monitor.exceeded(self.slack);
        let action = self.decide(monitor, bus_utilization);
        if recorder.enabled() {
            match action {
                StealingAction::StealOne => recorder.record(
                    now,
                    cmpqos_obs::Event::StealTaken {
                        job,
                        stolen_total: self.stolen,
                    },
                ),
                StealingAction::Cancel { returned } => {
                    if guard_trips {
                        recorder.record(
                            now,
                            cmpqos_obs::Event::GuardTripped {
                                job,
                                miss_increase: monitor.miss_increase(),
                            },
                        );
                    }
                    recorder.record(now, cmpqos_obs::Event::StealReturned { job, returned });
                }
                StealingAction::Hold => {}
            }
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_monitor() -> DuplicateTagMonitor {
        // No traffic: never exceeds.
        DuplicateTagMonitor::new(Ways::new(7), 64, 8)
    }

    fn tripped_monitor(slack_needed: f64) -> DuplicateTagMonitor {
        let mut m = DuplicateTagMonitor::new(Ways::new(1), 64, 8);
        // Build shadow misses, then extra main misses on shadow hits.
        for i in 0..100u64 {
            m.observe(0, i, false);
        }
        let extra = (100.0 * slack_needed).ceil() as u64;
        for _ in 0..extra {
            m.observe(0, 99, false);
        }
        m
    }

    #[test]
    fn steals_one_way_per_interval_down_to_floor() {
        let mut ctl =
            StealingController::new(Percent::new(5.0), Ways::new(3), StealingConfig::default());
        let m = quiet_monitor();
        assert_eq!(ctl.decide(&m, 0.0), StealingAction::StealOne);
        assert_eq!(ctl.current_ways(), Ways::new(2));
        assert_eq!(ctl.decide(&m, 0.0), StealingAction::StealOne);
        assert_eq!(ctl.current_ways(), Ways::new(1));
        // Floor reached.
        assert_eq!(ctl.decide(&m, 0.0), StealingAction::Hold);
        assert_eq!(ctl.current_ways(), Ways::new(1));
    }

    #[test]
    fn guard_trip_returns_all_stolen_ways() {
        let mut ctl =
            StealingController::new(Percent::new(5.0), Ways::new(7), StealingConfig::default());
        let quiet = quiet_monitor();
        for _ in 0..3 {
            ctl.decide(&quiet, 0.0);
        }
        assert_eq!(ctl.stolen(), Ways::new(3));
        let tripped = tripped_monitor(0.10);
        assert_eq!(
            ctl.decide(&tripped, 0.0),
            StealingAction::Cancel {
                returned: Ways::new(3)
            }
        );
        assert!(ctl.is_cancelled());
        assert_eq!(ctl.current_ways(), Ways::new(7));
        // Permanently off.
        assert_eq!(ctl.decide(&quiet, 0.0), StealingAction::Hold);
    }

    #[test]
    fn zero_slack_never_steals_and_never_trips() {
        let mut ctl =
            StealingController::new(Percent::ZERO, Ways::new(7), StealingConfig::default());
        let quiet = quiet_monitor();
        // Even a monitor with main > shadow (which `exceeded(0%)` flags)
        // must produce no Cancel: with X = 0 nothing was ever stolen, so
        // there is nothing to return and no event to emit.
        let noisy = tripped_monitor(0.01);
        for _ in 0..5 {
            assert_eq!(ctl.decide(&quiet, 0.0), StealingAction::Hold);
            assert_eq!(ctl.decide(&noisy, 0.0), StealingAction::Hold);
        }
        assert_eq!(ctl.stolen(), Ways::ZERO);
        assert!(!ctl.is_cancelled());

        // And the recorded variant emits nothing at all.
        use cmpqos_obs::RingBufferRecorder;
        use cmpqos_types::{Cycles, JobId};
        let mut rec = RingBufferRecorder::new(16);
        assert_eq!(
            ctl.decide_recorded(&noisy, 0.0, JobId::new(1), Cycles::new(5), &mut rec),
            StealingAction::Hold
        );
        assert!(rec.to_vec().is_empty());
    }

    #[test]
    fn bus_saturation_pauses_stealing() {
        let mut ctl =
            StealingController::new(Percent::new(5.0), Ways::new(7), StealingConfig::default());
        let m = quiet_monitor();
        assert_eq!(ctl.decide(&m, 0.95), StealingAction::Hold);
        assert_eq!(ctl.decide(&m, 0.9), StealingAction::Hold);
        assert_eq!(ctl.stolen(), Ways::ZERO);
        // Bus cleared: stealing resumes.
        assert_eq!(ctl.decide(&m, 0.89), StealingAction::StealOne);
        assert_eq!(ctl.decide(&m, 0.2), StealingAction::StealOne);
    }

    #[test]
    fn interval_detection() {
        let mut ctl = StealingController::new(
            Percent::new(5.0),
            Ways::new(7),
            StealingConfig {
                interval: Instructions::new(1000),
                ..StealingConfig::default()
            },
        );
        assert!(!ctl.interval_due(Instructions::new(500)));
        assert!(ctl.interval_due(Instructions::new(1000)));
        assert!(!ctl.interval_due(Instructions::new(1500)));
        assert!(ctl.interval_due(Instructions::new(2100)));
        // Skipping multiple intervals still fires once.
        assert!(ctl.interval_due(Instructions::new(9000)));
        assert!(!ctl.interval_due(Instructions::new(9000)));
    }

    #[test]
    fn retuned_interval_regrids_from_the_current_position() {
        let mut ctl = StealingController::new(
            Percent::new(5.0),
            Ways::new(7),
            StealingConfig {
                interval: Instructions::new(1000),
                ..StealingConfig::default()
            },
        );
        // Fire a few fine-grained boundaries first.
        assert!(ctl.interval_due(Instructions::new(1000)));
        assert!(ctl.interval_due(Instructions::new(2000)));
        assert!(ctl.interval_due(Instructions::new(30_000)));
        // Stretch the cadence. The next boundary must be one *new*-sized
        // interval ahead of where the job already is, not a translation of
        // the old grid index (30 × 5000 = 150,000 would strand the cadence
        // past the end of most jobs).
        ctl.set_interval(Instructions::new(5000));
        assert!(!ctl.interval_due(Instructions::new(31_000)));
        assert!(ctl.interval_due(Instructions::new(35_000)));
        // Shrinking re-grids the same way.
        ctl.set_interval(Instructions::new(100));
        assert!(ctl.interval_due(Instructions::new(35_150)));
    }

    #[test]
    fn builder_overrides_fields() {
        let cfg = StealingConfig::builder()
            .interval(Instructions::new(1000))
            .build();
        assert_eq!(cfg.interval, Instructions::new(1000));
        assert_eq!(StealingConfig::builder().build(), StealingConfig::default());
    }

    #[test]
    fn recorded_decisions_emit_steal_and_guard_events() {
        use cmpqos_obs::{Event, RingBufferRecorder};
        use cmpqos_types::{Cycles, JobId};

        let mut ctl =
            StealingController::new(Percent::new(5.0), Ways::new(7), StealingConfig::default());
        let mut rec = RingBufferRecorder::new(16);
        let job = JobId::new(3);
        let quiet = quiet_monitor();
        assert_eq!(
            ctl.decide_recorded(&quiet, 0.0, job, Cycles::new(10), &mut rec),
            StealingAction::StealOne
        );
        // Bus saturation holds silently.
        assert_eq!(
            ctl.decide_recorded(&quiet, 0.95, job, Cycles::new(20), &mut rec),
            StealingAction::Hold
        );
        let tripped = tripped_monitor(0.10);
        assert!(matches!(
            ctl.decide_recorded(&tripped, 0.0, job, Cycles::new(30), &mut rec),
            StealingAction::Cancel { .. }
        ));
        let events: Vec<Event> = rec.to_vec().into_iter().map(|r| r.event).collect();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0],
            Event::StealTaken {
                job,
                stolen_total: Ways::new(1),
            }
        );
        assert!(matches!(events[1], Event::GuardTripped { .. }));
        assert_eq!(
            events[2],
            Event::StealReturned {
                job,
                returned: Ways::new(1),
            }
        );
        assert_eq!(rec.counters().guard_trips, 1);
    }

    #[test]
    fn slack_cut_to_zero_returns_stolen_ways() {
        let mut ctl =
            StealingController::new(Percent::new(20.0), Ways::new(7), StealingConfig::default());
        let quiet = quiet_monitor();
        for _ in 0..2 {
            assert_eq!(ctl.decide(&quiet, 0.0), StealingAction::StealOne);
        }
        assert_eq!(ctl.set_slack(Percent::ZERO), Percent::new(20.0));
        assert_eq!(
            ctl.decide(&quiet, 0.0),
            StealingAction::Cancel {
                returned: Ways::new(2)
            }
        );
        assert!(ctl.is_cancelled());
        assert_eq!(ctl.current_ways(), Ways::new(7));
    }

    #[test]
    fn interval_stretch_pauses_the_cadence() {
        let mut ctl = StealingController::new(
            Percent::new(5.0),
            Ways::new(7),
            StealingConfig {
                interval: Instructions::new(1000),
                ..StealingConfig::default()
            },
        );
        assert!(ctl.interval_due(Instructions::new(1000)));
        assert_eq!(
            ctl.set_interval(Instructions::new(4000)),
            Instructions::new(1000)
        );
        assert_eq!(ctl.interval(), Instructions::new(4000));
        // 2000 retired is boundary 0 of the coarser grid: no fire until the
        // job retires past the next coarse boundary.
        assert!(!ctl.interval_due(Instructions::new(2000)));
        assert!(!ctl.interval_due(Instructions::new(3999)));
        assert!(ctl.interval_due(Instructions::new(8000)));
    }

    #[test]
    fn larger_slack_tolerates_more_miss_increase() {
        let mut tight =
            StealingController::new(Percent::new(2.0), Ways::new(7), StealingConfig::default());
        let mut loose =
            StealingController::new(Percent::new(20.0), Ways::new(7), StealingConfig::default());
        let m = tripped_monitor(0.10); // ~10% increase
        assert!(matches!(
            tight.decide(&m, 0.0),
            StealingAction::Cancel { .. }
        ));
        assert_eq!(loose.decide(&m, 0.0), StealingAction::StealOne);
    }
}
