//! A sub-microsecond bar on a hot path that runs once per control epoch:
//! the adaptive PID's epoch decision. It must stay invisible next to the
//! work it steers, so it is timed over a fixed iteration count and must
//! average under 1,000 ns per iteration.
//!
//! A wall-clock bar needs an optimized build, so the test is ignored by
//! default; run it with
//!
//! ```sh
//! cargo test --release -q --test component_bars -- --ignored
//! ```

use cmpqos::adapt::{Pid, PidConfig, Policy};
use cmpqos::qos::{EpochSample, EpochView, ExecutionMode, SloSpec};
use cmpqos::types::{CoreId, Cycles, Instructions, JobId, Percent};
use std::time::Instant;

/// The bar the path must stay under, in mean nanoseconds per iteration.
const BAR_NS: f64 = 1_000.0;

/// Mean wall-clock nanoseconds per call of `f` over `iters` calls.
fn ns_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

/// One full epoch decision per iteration: four sampled jobs (two Elastic
/// donors with SLOs) stepped through the integer PID plus the
/// floating-core throttle fan-out.
#[test]
#[ignore = "wall-clock bar; run in release with --ignored"]
fn pid_tick() {
    let mut pid = Pid::new(PidConfig::default());
    let samples: Vec<EpochSample> = (0..4u32)
        .map(|n| EpochSample {
            job: JobId::new(n),
            core: Some(CoreId::new(n)),
            mode: if n % 2 == 0 {
                ExecutionMode::Elastic(Percent::new(20.0))
            } else {
                ExecutionMode::Opportunistic
            },
            slo: (n % 2 == 0).then(|| SloSpec::cpi(2.5)),
            instructions: Instructions::new(1000),
            cycles: Cycles::new(2_600 + u64::from(n) * 700),
            l2_misses: 12,
        })
        .collect();
    let floating = [CoreId::new(4), CoreId::new(5)];
    let mut epoch_no = 0u64;
    let ns = ns_per_iter(100_000, || {
        let view = EpochView {
            now: Cycles::new(epoch_no * 10_000),
            samples: &samples,
            floating_cores: &floating,
        };
        assert!(!pid.decide(&view).is_empty());
        epoch_no += 1;
    });
    assert!(ns < BAR_NS, "pid_tick {ns:.0} ns/iter breaks the 1 µs bar");
}
