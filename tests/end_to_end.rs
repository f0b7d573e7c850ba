//! End-to-end integration tests spanning the whole stack: trace generation
//! → caches → node → QoS framework → workload runner.

use cmpqos::obs::{Event, EventKind, Mode, Recorder, RingBufferRecorder};
use cmpqos::qos::{ExecutionMode, QosJob, QosScheduler, ResourceRequest, SchedulerConfig};
use cmpqos::system::SystemConfig;
use cmpqos::trace::spec;
use cmpqos::types::{Cycles, Instructions, JobId, Percent};
use cmpqos::workloads::metrics::{normalized_throughput, paper_hit_rate};
use cmpqos::workloads::runner::{run, RunConfig};
use cmpqos::workloads::{Configuration, WorkloadSpec};

const K: u64 = 16;

fn quick(workload: WorkloadSpec, configuration: Configuration) -> RunConfig {
    RunConfig {
        workload,
        configuration,
        scale: K,
        work: Instructions::new(80_000),
        seed: 3,
        stealing_enabled: true,
        events: None,
    }
}

#[test]
fn qos_framework_guarantees_deadlines_where_equal_partitioning_fails() {
    // The paper's core claim (Figure 5a): with admission control and RUM
    // targets, every accepted reserved job meets its deadline; without
    // them (EqualPart), jobs miss deadlines.
    let qos = run(&quick(
        WorkloadSpec::single("bzip2", 10),
        Configuration::AllStrict,
    ));
    assert_eq!(paper_hit_rate(&qos), 1.0, "QoS hit rate");

    let equal = run(&quick(
        WorkloadSpec::single("bzip2", 10),
        Configuration::EqualPart,
    ));
    assert!(
        paper_hit_rate(&equal) < 1.0,
        "EqualPart must miss deadlines, got {}",
        paper_hit_rate(&equal)
    );
}

#[test]
fn strict_qos_costs_throughput_and_modes_recover_it() {
    // Figure 5b's shape for one workload.
    let strict = run(&quick(
        WorkloadSpec::single("gobmk", 8),
        Configuration::AllStrict,
    ));
    let hybrid1 = run(&quick(
        WorkloadSpec::single("gobmk", 8),
        Configuration::Hybrid1,
    ));
    let equal = run(&quick(
        WorkloadSpec::single("gobmk", 8),
        Configuration::EqualPart,
    ));

    let h1_gain = normalized_throughput(&strict, &hybrid1);
    let eq_gain = normalized_throughput(&strict, &equal);
    assert!(eq_gain > 1.0, "EqualPart beats All-Strict: {eq_gain}");
    assert!(h1_gain > 1.0, "Hybrid-1 beats All-Strict: {h1_gain}");
}

#[test]
fn stealing_never_violates_the_elastic_bound_end_to_end() {
    // An Elastic(X) donor must end with a cumulative miss increase that
    // respects X (modulo one interval of slop before cancellation).
    for (bench, slack) in [("gobmk", 5.0), ("bzip2", 5.0), ("hmmer", 10.0)] {
        let mut cfg = SchedulerConfig::default();
        cfg.stealing.interval = Instructions::new(4_000);
        let mut sched = QosScheduler::new(SystemConfig::paper_scaled(K), cfg);
        let work = Instructions::new(150_000);
        let tw = Cycles::new(work.get() * 30);
        let donor = sched.submit(
            QosJob::elastic(
                JobId::new(0),
                ResourceRequest::paper_job(),
                Percent::new(slack),
            )
            .work(work)
            .max_wall_clock(tw)
            .deadline(tw * 2)
            .build(),
            spec::scaled(bench, K).unwrap().instantiate(5, 1 << 40),
        );
        assert!(donor.is_accepted(), "{bench}: donor admitted");
        let recipient = sched.submit(
            QosJob::opportunistic(JobId::new(1), ResourceRequest::paper_job())
                .work(work)
                .max_wall_clock(tw)
                .build(),
            spec::scaled("mcf", K).unwrap().instantiate(6, 2 << 40),
        );
        assert!(recipient.is_accepted(), "{bench}: recipient admitted");
        sched.run_to_idle(tw * 20);
        let r = sched.report(JobId::new(0)).unwrap();
        assert!(r.met_deadline(), "{bench}: deadline");
        let steal = r.steal.expect("elastic donor has a report");
        assert!(
            steal.miss_increase <= slack / 100.0 + 0.06,
            "{bench}: miss increase {} exceeds X={slack}%",
            steal.miss_increase
        );
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = run(&quick(WorkloadSpec::mix1(), Configuration::Hybrid1));
    let b = run(&quick(WorkloadSpec::mix1(), Configuration::Hybrid1));
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.submissions, b.submissions);
    for (x, y) in a.accepted.iter().zip(&b.accepted) {
        assert_eq!(x.report.finished, y.report.finished);
        assert_eq!(x.report.perf.instructions(), y.report.perf.instructions());
    }
}

#[test]
fn partition_targets_never_exceed_associativity_during_a_busy_run() {
    // Drive a chaotic mixed run and check the node's target vector at many
    // points in time.
    let mut sched = QosScheduler::new(SystemConfig::paper_scaled(K), SchedulerConfig::default());
    let work = Instructions::new(60_000);
    let tw = Cycles::new(work.get() * 30);
    let benches = ["gobmk", "bzip2", "hmmer", "mcf", "namd", "milc"];
    for (i, bench) in benches.iter().enumerate() {
        let mode = match i % 3 {
            0 => ExecutionMode::Strict,
            1 => ExecutionMode::Elastic(Percent::new(5.0)),
            _ => ExecutionMode::Opportunistic,
        };
        let builder = QosJob::with_mode(JobId::new(i as u32), mode, ResourceRequest::paper_job())
            .work(work)
            .max_wall_clock(tw);
        let job = match mode {
            ExecutionMode::Opportunistic => builder.build(),
            _ => builder.deadline(tw * 4).build(),
        };
        let d = sched.submit(
            job,
            spec::scaled(bench, K)
                .unwrap()
                .instantiate(i as u64, (i as u64 + 1) << 40),
        );
        assert!(d.is_accepted(), "{bench} admitted");
    }
    let assoc = 16u16;
    let mut t = Cycles::ZERO;
    while !sched.is_idle() && t < tw * 40 {
        t += Cycles::new(100_000);
        sched.run_until(t);
        let total: u16 = sched.node().l2_targets().iter().map(|w| w.get()).sum();
        assert!(total <= assoc, "targets sum {total} at {t}");
    }
    assert!(sched.is_idle(), "all jobs completed");
}

#[test]
fn opportunistic_jobs_benefit_from_elastic_donors() {
    // Mix-1 logic at micro scale: bzip2 (opportunistic) should finish
    // faster when gobmk donors are Elastic rather than Strict.
    let run_pair = |donor_mode: ExecutionMode| {
        let mut cfg = SchedulerConfig::default();
        cfg.stealing.interval = Instructions::new(4_000);
        let mut sched = QosScheduler::new(SystemConfig::paper_scaled(K), cfg);
        let work = Instructions::new(200_000);
        let tw = Cycles::new(work.get() * 30);
        for i in 0..2u32 {
            let d = sched.submit(
                QosJob::with_mode(JobId::new(i), donor_mode, ResourceRequest::paper_job())
                    .work(work)
                    .max_wall_clock(tw)
                    .deadline(tw * 3)
                    .build(),
                spec::scaled("gobmk", K)
                    .unwrap()
                    .instantiate(u64::from(i), (u64::from(i) + 1) << 40),
            );
            assert!(d.is_accepted(), "donor {i} admitted");
        }
        let d = sched.submit(
            QosJob::opportunistic(JobId::new(9), ResourceRequest::paper_job())
                .work(work)
                .max_wall_clock(tw)
                .build(),
            spec::scaled("bzip2", K).unwrap().instantiate(9, 10 << 40),
        );
        assert!(d.is_accepted(), "recipient admitted");
        sched.run_to_idle(tw * 20);
        sched
            .report(JobId::new(9))
            .unwrap()
            .wall_clock()
            .expect("recipient finished")
    };
    let with_strict_donors = run_pair(ExecutionMode::Strict);
    let with_elastic_donors = run_pair(ExecutionMode::Elastic(Percent::new(20.0)));
    assert!(
        with_elastic_donors <= with_strict_donors,
        "elastic donors speed up the recipient: {with_elastic_donors} vs {with_strict_donors}"
    );
}

#[test]
fn rejected_jobs_leave_no_trace_in_the_node() {
    let mut sched = QosScheduler::new(SystemConfig::paper_scaled(K), SchedulerConfig::default());
    let work = Instructions::new(50_000);
    let tw = Cycles::new(work.get() * 30);
    // Fill both 7-way slots.
    for i in 0..2u32 {
        let d = sched.submit(
            QosJob::strict(JobId::new(i), ResourceRequest::paper_job())
                .work(work)
                .max_wall_clock(tw)
                .deadline(tw * 10)
                .build(),
            spec::scaled("namd", K)
                .unwrap()
                .instantiate(u64::from(i), 1 << 40),
        );
        assert!(d.is_accepted());
    }
    // Impossible deadline: rejected.
    let d = sched.submit(
        QosJob::strict(JobId::new(7), ResourceRequest::paper_job())
            .work(work)
            .max_wall_clock(tw)
            .deadline(tw)
            .build(),
        spec::scaled("namd", K).unwrap().instantiate(7, 8 << 40),
    );
    assert!(!d.is_accepted());
    sched.run_to_idle(tw * 20);
    let r = sched.report(JobId::new(7)).unwrap();
    assert!(r.started.is_none(), "rejected job never ran");
    assert_eq!(r.perf.instructions().get(), 0);
}

#[test]
fn auto_downgraded_job_emits_the_full_event_sequence() {
    // One Strict job with deadline slack on an otherwise idle node: it is
    // auto-downgraded, starts opportunistically (floating), switches back
    // to its Strict reservation at td - tw, and completes in time. The
    // recorder must observe exactly that lifecycle, in order.
    let mut cfg = SchedulerConfig::default();
    cfg.auto_downgrade = true;
    cfg.auto_downgrade_min_slack = 0.05;
    let mut sched = QosScheduler::with_recorder(
        SystemConfig::paper_scaled(K),
        cfg,
        Box::new(RingBufferRecorder::new(4096)),
    );

    // Work sized so it *cannot* finish during the short opportunistic
    // window before the fallback slot: ~800k instructions need well over
    // 1.6M cycles even with the whole L2, while the fallback reservation
    // sits only 400k cycles after submission (td - tw).
    let work = Instructions::new(800_000);
    let tw = Cycles::new(3_200_000);
    let td = tw + Cycles::new(400_000);
    let d = sched.submit(
        QosJob::strict(JobId::new(0), ResourceRequest::paper_job())
            .work(work)
            .max_wall_clock(tw)
            .deadline(td)
            .build(),
        spec::scaled("gobmk", K).unwrap().instantiate(1, 1 << 40),
    );
    assert!(d.is_accepted(), "decision: {d:?}");
    sched.run_to_idle(td * 4);

    let recorder = sched.take_recorder();
    let ring = recorder
        .as_any()
        .and_then(|a| a.downcast_ref::<RingBufferRecorder>())
        .expect("ring buffer recorder");
    assert_eq!(ring.dropped(), 0, "capacity held every record");

    // Partition retargets interleave with the lifecycle; everything else
    // must be exactly the downgraded-job band of Figure 7.
    let lifecycle: Vec<_> = ring
        .records()
        .filter(|r| r.event.kind() != EventKind::PartitionChanged)
        .collect();
    let kinds: Vec<EventKind> = lifecycle.iter().map(|r| r.event.kind()).collect();
    assert_eq!(
        kinds,
        vec![
            EventKind::Submitted,
            EventKind::Admitted,
            EventKind::Downgraded,
            EventKind::Started,
            EventKind::SwitchedBack,
            EventKind::Completed,
        ],
        "records: {lifecycle:?}"
    );
    assert!(
        lifecycle.windows(2).all(|w| w[0].at <= w[1].at),
        "timestamps are monotone"
    );
    match &lifecycle[3].event {
        Event::Started { core, mode, .. } => {
            assert_eq!(*core, None, "floating placement has no fixed core");
            assert_eq!(*mode, Mode::Opportunistic);
        }
        other => panic!("expected Started, got {other:?}"),
    }
    assert!(matches!(
        lifecycle[4].event,
        Event::SwitchedBack {
            to: Mode::Strict,
            ..
        }
    ));
    assert!(matches!(
        lifecycle[5].event,
        Event::Completed {
            met_deadline: true,
            ..
        }
    ));
    assert!(ring.counters().partition_changes > 0, "retargets recorded");

    // The timeline view reconstructs the same band boundaries.
    let tl = ring.timeline();
    let job = tl.job(JobId::new(0)).expect("job tracked in timeline");
    assert_eq!(job.submitted, Some((lifecycle[0].at, Mode::Strict)));
    assert_eq!(job.completed, Some((lifecycle[5].at, true)));
    // Figure-7 band structure: an Opportunistic band, then a Strict band.
    let band_modes: Vec<Mode> = job.bands.iter().map(|b| b.mode).collect();
    assert_eq!(band_modes, vec![Mode::Opportunistic, Mode::Strict]);
}
