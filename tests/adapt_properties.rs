//! Property tests for the `cmpqos-adapt` control law: the controller's
//! published clamps (level, integral, slack, interval, core speed) hold
//! for arbitrary gains and error streams, and same-seed trajectories are
//! byte-identical at any engine pool width.

use cmpqos::adapt::{pid_step, Pid, PidConfig, PidState};
use cmpqos::engine::Engine;
use cmpqos::qos::{EpochController, EpochSample, EpochView, ExecutionMode, KnobUpdate, SloSpec};
use cmpqos::types::{CoreId, Cycles, Instructions, JobId, Percent};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

#[allow(clippy::too_many_arguments)]
fn config(
    kp: i64,
    ki: i64,
    kd: i64,
    bound: i64,
    deadband: i64,
    max_level: u32,
    scale: i64,
    throttle_step: u8,
    min_speed: u8,
) -> PidConfig {
    PidConfig {
        kp_milli: kp,
        ki_milli: ki,
        kd_milli: kd,
        integral_bound: bound,
        deadband_milli: deadband,
        max_level,
        output_scale: scale,
        throttle_step,
        min_speed_pct: min_speed,
        ..PidConfig::default()
    }
}

proptest! {
    /// However wild the gains and the error stream, every step's returned
    /// level stays in `0..=max_level` and the accumulated integral never
    /// escapes `[-integral_bound, integral_bound]`.
    #[test]
    fn level_and_integral_never_escape_their_clamps(
        kp in 0i64..10_000,
        ki in 0i64..2_000,
        kd in 0i64..2_000,
        bound in 1i64..1_000_000,
        deadband in 0i64..1_000,
        max_level in 1u32..10,
        scale in 1i64..1_000_000,
        errors in proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 1..200),
    ) {
        let c = config(kp, ki, kd, bound, deadband, max_level, scale, 15, 40);
        let mut st = PidState::default();
        for &e in &errors {
            let level = pid_step(&c, &mut st, e);
            prop_assert!(level <= c.max_level, "level {level} > max {}", c.max_level);
            prop_assert_eq!(level, st.level);
            prop_assert!(
                st.integral.abs() <= c.integral_bound,
                "integral {} escaped bound {}",
                st.integral,
                c.integral_bound
            );
        }
    }

    /// The policy's knob outputs honour its published monotone mapping:
    /// slack never exceeds the donor's declared baseline, the interval
    /// stays in `[base, base x (max_level + 1)]`, and the floating-core
    /// speed stays in `[min_speed_pct, 100]`. Two controllers fed the same
    /// sample stream emit byte-identical update sequences.
    #[test]
    fn knob_outputs_stay_within_their_published_clamps(
        kp in 0i64..10_000,
        ki in 0i64..2_000,
        deadband in 0i64..1_000,
        max_level in 1u32..10,
        scale in 1i64..1_000_000,
        throttle_step in 0u8..50,
        min_speed in 1u8..100,
        base_interval in 1_000u64..100_000,
        slack_pct in 0u32..80,
        epochs in proptest::collection::vec((0u64..20_000, 500u64..20_000), 1..40),
    ) {
        let c = PidConfig {
            base_interval: Instructions::new(base_interval),
            ..config(kp, ki, 0, 10_000, deadband, max_level, scale, throttle_step, min_speed)
        };
        let mut pid = Pid::new(c);
        let mut twin = Pid::new(c);
        let baseline_milli = u64::from(slack_pct) * 1000;
        let floating = [CoreId::new(2), CoreId::new(3)];
        for (n, &(cpi_milli, target_milli)) in epochs.iter().enumerate() {
            let samples = [EpochSample {
                job: JobId::new(0),
                core: Some(CoreId::new(0)),
                mode: ExecutionMode::Elastic(Percent::new(f64::from(slack_pct))),
                slo: Some(SloSpec {
                    max_cpi_milli: target_milli,
                }),
                instructions: Instructions::new(1000),
                cycles: Cycles::new(cpi_milli), // 1000 instr: cycles = milli-CPI
            }];
            let view = EpochView {
                now: Cycles::new((n as u64 + 1) * 10_000),
                samples: &samples,
                floating_cores: &floating,
            };
            let updates = pid.epoch(&view);
            prop_assert_eq!(&updates, &twin.epoch(&view), "same stream, same knobs");
            for u in &updates {
                match *u {
                    KnobUpdate::StealSlack { milli_pct, .. } => prop_assert!(
                        milli_pct <= baseline_milli,
                        "slack {milli_pct} exceeds declared {baseline_milli}"
                    ),
                    KnobUpdate::StealInterval { interval, .. } => prop_assert!(
                        (base_interval..=base_interval * u64::from(max_level + 1))
                            .contains(&interval.get()),
                        "interval {} outside [{base_interval}, {}]",
                        interval.get(),
                        base_interval * u64::from(max_level + 1)
                    ),
                    KnobUpdate::CoreSpeed { percent, .. } => prop_assert!(
                        (min_speed..=100).contains(&percent),
                        "speed {percent} outside [{min_speed}, 100]"
                    ),
                }
            }
        }
    }

    /// The control law is a pure integer function: running a batch of
    /// seed-derived trajectories through a 1-wide and a 4-wide engine
    /// pool produces byte-identical level sequences.
    #[test]
    fn trajectories_are_byte_identical_at_any_engine_width(seed in any::<u64>()) {
        let streams: Vec<(u64, PidConfig)> = (0..8u64)
            .map(|n| (seed.wrapping_add(n), PidConfig::default()))
            .collect();
        let trajectory = |_: usize, (s, c): (u64, PidConfig)| -> Vec<u32> {
            let mut rng = StdRng::seed_from_u64(s);
            let mut st = PidState::default();
            (0..256)
                .map(|_| pid_step(&c, &mut st, rng.gen_range(-5_000..5_000)))
                .collect()
        };
        let serial = Engine::new(1).run(streams.clone(), trajectory);
        let wide = Engine::new(4).run(streams, trajectory);
        prop_assert_eq!(serial, wide);
    }
}
