//! Wall-clock bars on two hot paths, each timed over a fixed iteration
//! count:
//!
//! * the adaptive PID's epoch decision, which runs once per control epoch
//!   and must stay invisible next to the work it steers: under 1,000 ns
//!   per iteration;
//! * a near-term LAC admission in a table that also holds 20,000
//!   far-future reservations: under 5 µs per admission, so a large table
//!   costs a near-term request only the work near its own window.
//!
//! A wall-clock bar needs an optimized build, so the tests are ignored by
//! default; run them with
//!
//! ```sh
//! cargo test --release -q --test component_bars -- --ignored
//! ```

use cmpqos::adapt::{Pid, PidConfig};
use cmpqos::qos::{
    AdmissionRequest, EpochController, EpochSample, EpochView, ExecutionMode, Lac, LacConfig,
    ResourceRequest, SloSpec,
};
use cmpqos::types::{CoreId, Cycles, Instructions, JobId, Percent};
use std::time::Instant;

/// The bar the PID epoch decision must stay under, in mean nanoseconds
/// per iteration.
const BAR_NS: f64 = 1_000.0;

/// The bar a near-term admission beside a large table must stay under, in
/// mean nanoseconds per admission.
const LAC_BAR_NS: f64 = 5_000.0;

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
        assert!(!pid.epoch(&view).is_empty());
        epoch_no += 1;
    });
    assert!(ns < BAR_NS, "pid_tick {ns:.0} ns/iter breaks the 1 µs bar");
}

/// 20,000 latest-feasible reservations with far-future deadlines (the
/// shape a run of automatic downgrades leaves), then 20,000 near-term
/// admissions, each after an `advance` that expires the one before it.
#[test]
#[ignore = "wall-clock bar; run in release with --ignored"]
fn lac_near_term_admission() {
    const TABLE: u32 = 20_000;
    const FAR: u64 = 1 << 40;
    let mut lac = Lac::new(LacConfig::default());
    for i in 0..TABLE {
        let req = AdmissionRequest::builder(
            JobId::new(i),
            ResourceRequest::paper_job(),
            Cycles::new(100),
        )
        .deadline(Cycles::new(FAR + 1_000 * u64::from(i)))
        .latest_feasible()
        .build();
        assert!(lac.admit(&req).is_accepted());
    }
    let mut i = 0u32;
    let ns = ns_per_iter(TABLE, || {
        let now = Cycles::new(1_000 * u64::from(i));
        lac.advance(now);
        let req = AdmissionRequest::builder(
            JobId::new(TABLE + i),
            ResourceRequest::paper_job(),
            Cycles::new(500),
        )
        .deadline(now + Cycles::new(1_000))
        .build();
        assert_eq!(lac.admit(&req).start(), Some(now));
        i += 1;
    });
    assert_eq!(lac.reservation_count(), TABLE as usize + 1);
    assert!(
        ns < LAC_BAR_NS,
        "lac_near_term_admission {ns:.0} ns/admission breaks the 5 µs bar"
    );
}
