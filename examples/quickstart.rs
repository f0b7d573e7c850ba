//! Quickstart: submit three jobs with different QoS modes to a 4-core CMP
//! and watch the framework admit, schedule and report them.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cmpqos::qos::{QosJob, QosScheduler, ResourceRequest, SchedulerConfig};
use cmpqos::system::SystemConfig;
use cmpqos::trace::spec;
use cmpqos::types::{Cycles, Instructions, JobId, Percent};

fn main() {
    // The paper's machine: 4 in-order cores, 32 KiB L1s, shared 2 MiB
    // 16-way L2 with QoS-aware per-set partitioning, 6.4 GB/s memory.
    let mut sched = QosScheduler::new(SystemConfig::paper(), SchedulerConfig::default());

    let work = Instructions::new(300_000);
    let tw = Cycles::new(3_000_000); // generous wall-clock request

    // A Strict job: resources and timeslot reserved, deadline guaranteed.
    // The request is 1 core + 7 of 16 L2 ways.
    let strict = QosJob::strict(JobId::new(0), ResourceRequest::paper_job())
        .work(work)
        .max_wall_clock(tw)
        .deadline(Cycles::new(6_000_000))
        .build();

    // An Elastic(5%) job: same guarantee, but tolerates a 5% slowdown so
    // the framework may steal its excess cache for others.
    let elastic = QosJob::elastic(
        JobId::new(1),
        ResourceRequest::paper_job(),
        Percent::new(5.0),
    )
    .work(work)
    .max_wall_clock(tw)
    .deadline(Cycles::new(8_000_000))
    .build();

    // An Opportunistic job: no reservation; runs on spare capacity.
    let opportunistic = QosJob::opportunistic(JobId::new(2), ResourceRequest::paper_job())
        .work(work)
        .max_wall_clock(tw)
        .build();

    for (job, bench) in [
        (strict, "hmmer"),
        (elastic, "gobmk"),
        (opportunistic, "bzip2"),
    ] {
        let profile = spec::benchmark(bench).expect("built-in benchmark");
        let source = profile.instantiate(
            42 + job.id.index() as u64,
            u64::from(job.id.index() + 1) << 40,
        );
        let decision = sched.submit(job, source);
        println!(
            "submit {bench:>6} as {:<14} -> {decision:?}",
            job.mode.to_string()
        );
    }

    sched.run_to_idle(Cycles::new(1_000_000_000));

    println!();
    for id in 0..3u32 {
        let r = sched.report(JobId::new(id)).expect("submitted");
        println!(
            "job{id}: started {:>10?} finished {:>10?} IPC {:.3} deadline met: {}",
            r.started.map(|c| c.get()),
            r.finished.map(|c| c.get()),
            r.perf.ipc(),
            r.met_deadline(),
        );
        if let Some(steal) = r.steal {
            println!(
                "      elastic donor: {} stolen, miss increase {:.2}%, cancelled: {}",
                steal.stolen,
                steal.miss_increase * 100.0,
                steal.cancelled
            );
        }
    }
}
