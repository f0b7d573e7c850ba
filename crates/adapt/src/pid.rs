//! The deterministic integer PID controller.
//!
//! Everything is integer-denominated: errors in milli-CPI, gains in
//! milli-units, the output quantized to a small intervention *level*.
//! [`pid_step`] is a pure function of `(config, state, error)` — no
//! floats on the control path, no clocks, no randomness — which is what
//! lets the testkit brute-force the same law in `i128` and diff the two
//! implementations over millions of seed-derived error streams.

use cmpqos_core::{EpochController, EpochView, ExecutionMode, KnobUpdate, StealingConfig};
use cmpqos_types::{Instructions, JobId};
use std::collections::BTreeMap;

/// Gains and clamps for the [`Pid`] controller. All integer milli-units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PidConfig {
    /// Proportional gain, milli-units (`1000` = 1.0).
    pub kp_milli: i64,
    /// Integral gain, milli-units.
    pub ki_milli: i64,
    /// Derivative gain, milli-units.
    pub kd_milli: i64,
    /// Anti-windup clamp: the accumulated error is held in
    /// `[-integral_bound, integral_bound]`.
    pub integral_bound: i64,
    /// Errors with `|e| <= deadband_milli` hold the current level
    /// (hysteresis): tiny oscillations around the target don't twitch
    /// the knobs.
    pub deadband_milli: i64,
    /// The strongest intervention level; levels are `0..=max_level`.
    pub max_level: u32,
    /// Raw controller output per level step (the output quantizer).
    pub output_scale: i64,
    /// Percent of core speed cut per global intervention level.
    pub throttle_step: u8,
    /// Floor for the floating-core speed, percent.
    pub min_speed_pct: u8,
    /// The donors' un-intervened repartitioning interval; must match the
    /// scheduler's [`StealingConfig`] for level 0 to be a no-op.
    pub base_interval: Instructions,
}

impl Default for PidConfig {
    fn default() -> Self {
        Self {
            kp_milli: 1000,
            ki_milli: 100,
            kd_milli: 0,
            integral_bound: 10_000,
            deadband_milli: 50,
            max_level: 4,
            output_scale: 200_000,
            throttle_step: 15,
            min_speed_pct: 40,
            base_interval: StealingConfig::default().interval,
        }
    }
}

/// One job's controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PidState {
    /// Accumulated (clamped) error.
    pub integral: i64,
    /// Previous step's error, for the derivative term.
    pub prev_error: i64,
    /// Current intervention level.
    pub level: u32,
}

/// One discrete PID step: updates `state` from the window's error (in
/// milli-CPI, positive = over target) and returns the new intervention
/// level in `0..=config.max_level`.
///
/// Inside the deadband nothing moves — level, integral and previous
/// error all hold, so a job sitting at its target produces a bit-stable
/// trajectory.
pub fn pid_step(config: &PidConfig, state: &mut PidState, error_milli: i64) -> u32 {
    if error_milli.abs() <= config.deadband_milli {
        return state.level;
    }
    state.integral = state
        .integral
        .saturating_add(error_milli)
        .clamp(-config.integral_bound, config.integral_bound);
    let derivative = error_milli.saturating_sub(state.prev_error);
    state.prev_error = error_milli;
    let u = config
        .kp_milli
        .saturating_mul(error_milli)
        .saturating_add(config.ki_milli.saturating_mul(state.integral))
        .saturating_add(config.kd_milli.saturating_mul(derivative));
    let scale = config.output_scale.max(1);
    state.level = u.div_euclid(scale).clamp(0, i64::from(config.max_level)) as u32;
    state.level
}

/// The per-job PID controller.
///
/// Each sampled job with an SLO gets its own [`PidState`]; its level maps
/// to knob positions monotonically:
///
/// * slack = `baseline × (max_level − level) / max_level` — level 0 is
///   the declared Elastic(X), `max_level` cuts donation to zero;
/// * interval = `base_interval × (level + 1)`;
/// * floating-core speed = `100 − max_job_level × throttle_step`,
///   floored at `min_speed_pct` (the *worst* violator sets the global
///   throttle).
///
/// Level 0 therefore reproduces the static operating point exactly: every
/// returned update equals the knob's current value and the scheduler
/// emits nothing — the metamorphic loose-SLO tests pin this.
#[derive(Debug, Clone)]
pub struct Pid {
    config: PidConfig,
    jobs: BTreeMap<JobId, PidState>,
}

impl Pid {
    /// A PID controller with the given gains.
    #[must_use]
    pub fn new(config: PidConfig) -> Self {
        Self {
            config,
            jobs: BTreeMap::new(),
        }
    }

    /// The configured gains.
    #[must_use]
    pub fn config(&self) -> &PidConfig {
        &self.config
    }

    /// The controller state for one job, if it has been sampled.
    #[must_use]
    pub fn state(&self, job: JobId) -> Option<&PidState> {
        self.jobs.get(&job)
    }
}

impl EpochController for Pid {
    fn name(&self) -> &'static str {
        "pid"
    }

    fn epoch(&mut self, view: &EpochView<'_>) -> Vec<KnobUpdate> {
        // Forget jobs that left the sample set (completed or revoked).
        self.jobs
            .retain(|&id, _| view.samples.iter().any(|s| s.job == id));
        let mut updates = Vec::new();
        let mut global_level: u32 = 0;
        for s in view.samples {
            let Some(slo) = s.slo else { continue };
            // An idle window says nothing; hold the current level.
            let level = match s.cpi_milli() {
                Some(cpi) => {
                    let target = i64::try_from(slo.max_cpi_milli).unwrap_or(i64::MAX);
                    let delivered = i64::try_from(cpi).unwrap_or(i64::MAX);
                    let st = self.jobs.entry(s.job).or_default();
                    pid_step(&self.config, st, delivered.saturating_sub(target))
                }
                None => self.jobs.get(&s.job).map_or(0, |st| st.level),
            };
            global_level = global_level.max(level);
            if let ExecutionMode::Elastic(x) = s.mode {
                let baseline = (x.value() * 1000.0).round().max(0.0) as u64;
                let max = self.config.max_level.max(1);
                let slack = baseline * u64::from(max - level.min(max)) / u64::from(max);
                updates.push(KnobUpdate::StealSlack {
                    job: s.job,
                    milli_pct: slack,
                });
                let interval = Instructions::new(
                    self.config
                        .base_interval
                        .get()
                        .saturating_mul(u64::from(level) + 1),
                );
                updates.push(KnobUpdate::StealInterval {
                    job: s.job,
                    interval,
                });
            }
        }
        let cut = global_level.saturating_mul(u32::from(self.config.throttle_step));
        let speed = 100u32
            .saturating_sub(cut)
            .max(u32::from(self.config.min_speed_pct)) as u8;
        for &core in view.floating_cores {
            updates.push(KnobUpdate::CoreSpeed {
                core,
                percent: speed,
            });
        }
        updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_core::{EpochSample, SloSpec};
    use cmpqos_types::{CoreId, Cycles, Percent};

    fn cfg() -> PidConfig {
        PidConfig::default()
    }

    #[test]
    fn deadband_holds_everything() {
        let c = cfg();
        let mut st = PidState {
            integral: 123,
            prev_error: -7,
            level: 2,
        };
        let before = st;
        assert_eq!(pid_step(&c, &mut st, 50), 2);
        assert_eq!(pid_step(&c, &mut st, -50), 2);
        assert_eq!(st, before, "deadband must not mutate state");
    }

    #[test]
    fn sustained_error_escalates_and_recovery_releases() {
        let c = cfg();
        let mut st = PidState::default();
        let mut last = 0;
        for _ in 0..40 {
            last = pid_step(&c, &mut st, 600);
        }
        assert!(last >= 2, "sustained 0.6-CPI error must escalate: {last}");
        assert!(st.integral <= c.integral_bound);
        for _ in 0..60 {
            last = pid_step(&c, &mut st, -600);
        }
        assert_eq!(last, 0, "sustained headroom must fully release");
    }

    #[test]
    fn integral_stays_clamped_under_extreme_error() {
        let c = cfg();
        let mut st = PidState::default();
        for _ in 0..10 {
            pid_step(&c, &mut st, i64::MAX / 4);
        }
        assert_eq!(st.integral, c.integral_bound);
        for _ in 0..10 {
            pid_step(&c, &mut st, i64::MIN / 4);
        }
        assert_eq!(st.integral, -c.integral_bound);
    }

    fn sample(job: u32, mode: ExecutionMode, cpi_milli: u64, slo: Option<SloSpec>) -> EpochSample {
        EpochSample {
            job: JobId::new(job),
            core: Some(CoreId::new(job)),
            mode,
            slo,
            instructions: Instructions::new(1000),
            cycles: Cycles::new(cpi_milli), // 1000 instr → cycles = milli-CPI
        }
    }

    #[test]
    fn loose_slo_reproduces_the_static_operating_point() {
        let mut pid = Pid::new(cfg());
        let samples = [sample(
            0,
            ExecutionMode::Elastic(Percent::new(20.0)),
            3500,
            Some(SloSpec::unbounded()),
        )];
        let floating = [CoreId::new(2), CoreId::new(3)];
        let view = EpochView {
            now: Cycles::new(100_000),
            samples: &samples,
            floating_cores: &floating,
        };
        let updates = pid.epoch(&view);
        // Level stays 0: every knob is asked to hold its baseline value.
        assert!(updates.contains(&KnobUpdate::StealSlack {
            job: JobId::new(0),
            milli_pct: 20_000,
        }));
        assert!(updates.contains(&KnobUpdate::StealInterval {
            job: JobId::new(0),
            interval: StealingConfig::default().interval,
        }));
        for &core in &floating {
            assert!(updates.contains(&KnobUpdate::CoreSpeed { core, percent: 100 }));
        }
    }

    #[test]
    fn violating_elastic_donor_gets_slack_cut_and_floaters_throttled() {
        let mut pid = Pid::new(cfg());
        let samples = [sample(
            0,
            ExecutionMode::Elastic(Percent::new(20.0)),
            5000,
            Some(SloSpec::cpi(3.0)), // 2.0 CPI over target
        )];
        let floating = [CoreId::new(3)];
        let view = EpochView {
            now: Cycles::new(100_000),
            samples: &samples,
            floating_cores: &floating,
        };
        let mut slack = u64::MAX;
        let mut speed = u8::MAX;
        for _ in 0..20 {
            for u in pid.epoch(&view) {
                match u {
                    KnobUpdate::StealSlack { milli_pct, .. } => slack = milli_pct,
                    KnobUpdate::CoreSpeed { percent, .. } => speed = percent,
                    KnobUpdate::StealInterval { .. } => {}
                }
            }
        }
        assert!(
            slack < 20_000,
            "slack must be cut from Elastic(20): {slack}"
        );
        assert!(speed < 100, "floating cores must be throttled: {speed}");
        assert!(speed >= cfg().min_speed_pct);
        let st = pid.state(JobId::new(0)).expect("state tracked");
        assert!(st.level > 0);
    }

    #[test]
    fn state_is_dropped_when_a_job_leaves_the_sample_set() {
        let mut pid = Pid::new(cfg());
        let samples = [sample(
            7,
            ExecutionMode::Strict,
            9000,
            Some(SloSpec::cpi(1.0)),
        )];
        let view = EpochView {
            now: Cycles::new(1),
            samples: &samples,
            floating_cores: &[],
        };
        pid.epoch(&view);
        assert!(pid.state(JobId::new(7)).is_some());
        let empty = EpochView {
            now: Cycles::new(2),
            samples: &[],
            floating_cores: &[],
        };
        pid.epoch(&empty);
        assert!(pid.state(JobId::new(7)).is_none());
    }
}
