//! A miniature two-node server: submissions probe each node's scheduler in
//! turn (the Global Admission Controller pattern of Section 3.1), spilling
//! to the second CMP when the first cannot meet a deadline — with both
//! nodes fully simulated.
//!
//! ```text
//! cargo run --release --example multi_node
//! ```

use cmpqos::qos::{QosJob, QosScheduler, ResourceRequest, SchedulerConfig};
use cmpqos::system::SystemConfig;
use cmpqos::trace::spec;
use cmpqos::types::{Cycles, Instructions, JobId};

fn main() {
    const K: u64 = 8;
    let mut nodes: Vec<QosScheduler> = (0..2)
        .map(|_| QosScheduler::new(SystemConfig::paper_scaled(K), SchedulerConfig::default()))
        .collect();

    let work = Instructions::new(400_000);
    let tw = Cycles::new(8_000_000);
    let benches = ["gobmk", "hmmer", "bzip2", "gobmk", "hmmer", "bzip2"];

    println!("{:<6} {:<8} {:<22} placement", "job", "bench", "deadline");
    println!("{}", "-".repeat(56));
    for (i, bench) in benches.iter().enumerate() {
        // Tight deadlines force spill: each node fits two jobs at once.
        let job = QosJob::strict(JobId::new(i as u32), ResourceRequest::paper_job())
            .work(work)
            .max_wall_clock(tw)
            .deadline(Cycles::new(tw.get() * 3 / 2))
            .build();
        let profile = spec::scaled(bench, K).expect("built-in");
        let mut placed = None;
        for (n, node) in nodes.iter_mut().enumerate() {
            let source = profile.instantiate(i as u64, (i as u64 + 1) << 40);
            if node.submit(job, source).is_accepted() {
                placed = Some(n);
                break;
            }
        }
        println!(
            "job{:<3} {:<8} td={:<18} {}",
            i,
            bench,
            job.deadline.unwrap().get(),
            match placed {
                Some(n) => format!("node{n}"),
                None => "REJECTED everywhere (renegotiate target)".into(),
            }
        );
    }

    let cap = Cycles::new(1_000_000_000);
    for node in &mut nodes {
        node.run_to_idle(cap);
    }

    println!();
    for (n, node) in nodes.iter().enumerate() {
        let done: Vec<String> = node
            .reports()
            .iter()
            .filter(|r| r.finished.is_some())
            .map(|r| {
                format!(
                    "job{} ({})",
                    r.job.id.index(),
                    if r.met_deadline() { "met" } else { "MISSED" }
                )
            })
            .collect();
        println!(
            "node{n}: completed {} | LAC: {} tests, {} accepted",
            done.join(", "),
            node.lac().admission_tests(),
            node.lac().accepted(),
        );
    }
}
