//! **Figure 7** — the execution trace of the ten accepted bzip2 jobs under
//! `All-Strict` versus `All-Strict+AutoDown`: start/finish boxes, deadline
//! slack (dashed in the paper), downgraded execution and switch-back
//! arrows.

use crate::output::banner;
use crate::params::ExperimentParams;
use cmpqos_core::JobEvent;
use cmpqos_types::Cycles;
use cmpqos_workloads::runner::{run_batch, RunConfig, RunOutcome};
use cmpqos_workloads::{Configuration, WorkloadSpec};

/// One job's timeline entry.
#[derive(Debug, Clone)]
pub struct TraceJob {
    /// Acceptance slot (0..10).
    pub slot: usize,
    /// Execution start.
    pub start: Cycles,
    /// Completion.
    pub finish: Cycles,
    /// Deadline (if any).
    pub deadline: Option<Cycles>,
    /// Whether the job ran auto-downgraded, and when it switched back (if
    /// it did).
    pub downgraded: bool,
    /// Switch-back instant, if the job reverted to Strict.
    pub switch_back: Option<Cycles>,
}

/// Both traces.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// The All-Strict run.
    pub strict: RunOutcome,
    /// The All-Strict+AutoDown run.
    pub autodown: RunOutcome,
}

/// Runs both configurations on the ten-job bzip2 workload.
#[must_use]
pub fn run(params: &ExperimentParams) -> Fig7Result {
    run_bench(params, "bzip2", 10)
}

/// Runs a chosen benchmark/size (tests shrink both). Both cells run on
/// the `cmpqos-engine` pool.
#[must_use]
pub fn run_bench(params: &ExperimentParams, bench: &str, n: usize) -> Fig7Result {
    let cells: Vec<RunConfig> = [Configuration::AllStrict, Configuration::AllStrictAutoDown]
        .into_iter()
        .map(|configuration| RunConfig {
            workload: WorkloadSpec::single(bench, n),
            configuration,
            scale: params.scale,
            work: params.work,
            seed: params.seed,
            stealing_enabled: true,
            events: params.events.clone(),
        })
        .collect();
    let mut outcomes = run_batch(cells, params.jobs).into_iter();
    Fig7Result {
        strict: outcomes.next().expect("two cells ran"),
        autodown: outcomes.next().expect("two cells ran"),
    }
}

/// Extracts the timeline rows of one outcome.
#[must_use]
pub fn timeline(outcome: &RunOutcome) -> Vec<TraceJob> {
    outcome
        .accepted
        .iter()
        .map(|j| {
            let downgraded = j
                .report
                .events
                .iter()
                .any(|(_, e)| *e == JobEvent::AutoDowngraded);
            let switch_back = j
                .report
                .events
                .iter()
                .find(|(_, e)| *e == JobEvent::SwitchedBack)
                .map(|(t, _)| *t);
            TraceJob {
                slot: j.slot,
                start: j.report.started.unwrap_or(Cycles::ZERO),
                finish: j.report.finished.unwrap_or(Cycles::ZERO),
                deadline: j.report.job.deadline,
                downgraded,
                switch_back,
            }
        })
        .collect()
}

/// Renders one trace as ASCII art: `#` execution, `.` slack to deadline,
/// `v` the switch-back instant, `d` marks auto-downgraded rows.
#[must_use]
pub fn render(outcome: &RunOutcome, width: usize) -> String {
    let jobs = timeline(outcome);
    let horizon = jobs
        .iter()
        .map(|j| j.deadline.unwrap_or(j.finish).max(j.finish))
        .max()
        .unwrap_or(Cycles::new(1))
        .get()
        .max(1);
    let col = |t: Cycles| ((t.get() as u128 * width as u128) / horizon as u128) as usize;
    let mut out = String::new();
    for j in &jobs {
        let mut line = vec![b' '; width + 1];
        let s = col(j.start).min(width);
        let f = col(j.finish).min(width);
        for c in line.iter_mut().take(f + 1).skip(s) {
            *c = b'#';
        }
        if let Some(td) = j.deadline {
            let d = col(td).min(width);
            for c in line.iter_mut().take(d + 1).skip(f + 1) {
                *c = b'.';
            }
        }
        if let Some(sb) = j.switch_back {
            let v = col(sb).min(width);
            line[v] = b'v';
        }
        out.push_str(&format!(
            "job{:<2} {}|{}|\n",
            j.slot,
            if j.downgraded { "d" } else { " " },
            String::from_utf8_lossy(&line)
        ));
    }
    out.push_str(&format!(
        "makespan: {:.1} Mcycles\n",
        outcome.makespan.as_f64() / 1e6
    ));
    out
}

/// QoS-relevant structure counts of one trace — what the conformance
/// suite and tests assert on.
#[derive(Debug, Clone, Copy)]
pub struct TraceSummary {
    /// Jobs that ran downgraded at some point.
    pub downgrades: usize,
    /// Jobs that switched back to their original mode mid-run.
    pub switch_backs: usize,
}

/// Summarizes [`timeline`]`(outcome)`.
#[must_use]
pub fn summarize(outcome: &RunOutcome) -> TraceSummary {
    let jobs = timeline(outcome);
    TraceSummary {
        downgrades: jobs.iter().filter(|j| j.downgraded).count(),
        switch_backs: jobs.iter().filter(|j| j.switch_back.is_some()).count(),
    }
}

/// Prints both traces side by side (stacked).
pub fn print(result: &Fig7Result, params: &ExperimentParams) {
    banner("Figure 7: execution traces (bzip2 x10)", params);
    println!("--- All-Strict ---");
    println!("{}", render(&result.strict, 72));
    println!("--- All-Strict+AutoDown ('d' rows ran downgraded, 'v' = switch-back) ---");
    println!("{}", render(&result.autodown, 72));
    println!(
        "paper shape: All-Strict runs jobs two at a time (3883M cycles);\n\
         AutoDown admits/downgrades jobs earlier and finishes sooner (3451M)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autodown_trace_contains_downgraded_jobs_and_finishes_no_later() {
        let p = ExperimentParams::quick();
        let r = run_bench(&p, "gobmk", 8);
        assert!(
            summarize(&r.autodown).downgrades > 0,
            "some jobs should auto-downgrade"
        );
        assert!(r.autodown.makespan <= r.strict.makespan);
        // Every All-Strict job pairs: at most 2 running at any instant
        // (concurrency only changes at start events, so checking each
        // start instant suffices).
        let strict = timeline(&r.strict);
        for a in &strict {
            let simultaneous = strict
                .iter()
                .filter(|b| b.start <= a.start && b.finish > a.start)
                .count();
            assert!(
                simultaneous <= 2,
                "more than two strict jobs at {}",
                a.start
            );
        }
        let art = render(&r.strict, 60);
        assert!(art.contains('#'));
    }

    #[test]
    fn events_file_reconstructs_the_figure7_timeline() {
        // The acceptance path of the observability layer: run both cells
        // with an event log, then rebuild the per-run timelines from the
        // JSONL alone and cross-check them against the reports.
        let path =
            std::env::temp_dir().join(format!("cmpqos-fig7-events-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut p = ExperimentParams::quick();
        p.events = Some(path.clone());
        let r = run_bench(&p, "gobmk", 6);

        let text = std::fs::read_to_string(&path).expect("event log written");
        let runs = cmpqos_obs::Timeline::per_run(&text).expect("parseable JSONL");
        assert_eq!(runs.len(), 2, "one timeline per cell");
        assert_eq!(runs[0].label(), Some("gobmk x6 / All-Strict"));
        assert_eq!(runs[1].label(), Some("gobmk x6 / All-Strict+AutoDown"));

        for (outcome, timeline) in [(&r.strict, &runs[0]), (&r.autodown, &runs[1])] {
            for j in &outcome.accepted {
                let id = j.report.job.id;
                let jt = timeline.job(id).expect("accepted job in the timeline");
                // Started is recorded at dispatch; the engine's started_at
                // additionally includes context-switch latency.
                let dispatched = jt.started.expect("job started");
                assert!(
                    dispatched <= j.report.started.expect("job ran"),
                    "job {id} dispatch precedes execution"
                );
                assert_eq!(
                    jt.completed.map(|(t, _)| t),
                    j.report.finished,
                    "job {id} finish"
                );
            }
            assert!(!timeline.partition_changes().is_empty());
        }
        // The AutoDown cell downgrades at least one job, and the timeline
        // sees the same switch-backs the reports recorded.
        assert!(runs[1].jobs().any(|(_, jt)| jt.downgraded.is_some()));
        let _ = std::fs::remove_file(&path);
    }
}
