//! Resource stealing under the microscope: a cache-insensitive Elastic(5%)
//! donor (`gobmk`) and a cache-hungry Opportunistic recipient (`bzip2`)
//! share the CMP. The example polls the stealing controller while the run
//! progresses and prints the donated ways and the duplicate-tag guard
//! state over time (Section 4 of the paper).
//!
//! ```text
//! cargo run --release --example resource_stealing
//! ```

use cmpqos::qos::{QosJob, QosScheduler, ResourceRequest, SchedulerConfig};
use cmpqos::system::SystemConfig;
use cmpqos::trace::spec;
use cmpqos::types::{Cycles, Instructions, JobId, Percent};

fn main() {
    const K: u64 = 8; // geometry scale: fast and way-for-way faithful
    let work = Instructions::new(2_000_000);
    let mut cfg = SchedulerConfig::default();
    cfg.stealing.interval = Instructions::new(work.get() / 50);
    let mut sched = QosScheduler::new(SystemConfig::paper_scaled(K), cfg);

    let donor = QosJob::elastic(
        JobId::new(0),
        ResourceRequest::paper_job(),
        Percent::new(5.0),
    )
    .work(work)
    .max_wall_clock(Cycles::new(80_000_000))
    .deadline(Cycles::new(240_000_000))
    .build();
    let recipient = QosJob::opportunistic(JobId::new(1), ResourceRequest::paper_job())
        .work(work)
        .max_wall_clock(Cycles::new(80_000_000))
        .build();

    let gobmk = spec::scaled("gobmk", K).expect("built-in");
    let bzip2 = spec::scaled("bzip2", K).expect("built-in");
    assert!(sched
        .submit(donor, gobmk.instantiate(1, 1 << 40))
        .is_accepted());
    assert!(sched
        .submit(recipient, bzip2.instantiate(2, 2 << 40))
        .is_accepted());

    println!("time(Mcyc)  donor ways  stolen  guard miss-increase  cancelled");
    println!("{}", "-".repeat(66));
    let step = Cycles::new(500_000);
    let mut t = Cycles::ZERO;
    while !sched.is_idle() && t < Cycles::new(200_000_000) {
        t += step;
        sched.run_until(t);
        if let Some(ctl) = sched.stealing_state(JobId::new(0)) {
            let guard = sched
                .node()
                .monitor(JobId::new(0))
                .map_or(0.0, |m| m.miss_increase());
            println!(
                "{:>9.1}  {:>10}  {:>6}  {:>18.4}  {}",
                t.as_f64() / 1e6,
                ctl.current_ways(),
                ctl.stolen(),
                guard,
                ctl.is_cancelled()
            );
        }
    }

    println!();
    for id in [0u32, 1] {
        let r = sched.report(JobId::new(id)).expect("submitted");
        println!(
            "job{id} ({}): finished at {:?}, IPC {:.3}, deadline met: {}",
            if id == 0 {
                "donor gobmk"
            } else {
                "recipient bzip2"
            },
            r.finished.map(|c| c.get()),
            r.perf.ipc(),
            r.met_deadline()
        );
        if let Some(s) = r.steal {
            println!(
                "      final: {} donated, cumulative miss increase {:.2}% (bound {})",
                s.stolen,
                s.miss_increase * 100.0,
                s.slack
            );
        }
    }
}
