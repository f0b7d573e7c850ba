//! Server consolidation: gold/silver/bronze SLA tiers mapped to preset RUM
//! requests, placed across a two-node server by the Global Admission
//! Controller — the paper's motivating utility-computing scenario
//! (Section 1).
//!
//! ```text
//! cargo run --release --example consolidation
//! ```

use cmpqos::obs::NullRecorder;
use cmpqos::qos::gac::{GlobalAdmissionController, ProbePolicy};
use cmpqos::qos::{AdmissionRequest, ExecutionMode, LacConfig, ResourceRequest};
use cmpqos::types::{Cycles, JobId, Percent, Ways};

#[derive(Debug, Clone, Copy)]
enum Sla {
    /// Gold: large preset, Strict execution.
    Gold,
    /// Silver: medium preset, Elastic(10%) — guaranteed deadline, donates
    /// excess cache.
    Silver,
    /// Bronze: medium preset, Opportunistic — best effort on spare capacity.
    Bronze,
}

impl Sla {
    /// The tier's preset request (Section 3.2): large is 2 cores + 10
    /// ways, medium the paper's 1 core + 7 ways.
    fn request(self) -> ResourceRequest {
        match self {
            Sla::Gold => ResourceRequest::new(2, Ways::new(10)),
            Sla::Silver | Sla::Bronze => ResourceRequest::paper_job(),
        }
    }

    fn mode(self) -> ExecutionMode {
        match self {
            Sla::Gold => ExecutionMode::Strict,
            Sla::Silver => ExecutionMode::Elastic(Percent::new(10.0)),
            Sla::Bronze => ExecutionMode::Opportunistic,
        }
    }
}

fn main() {
    // A small server: two 4-core CMP nodes behind one GAC.
    let mut gac = GlobalAdmissionController::new(2, LacConfig::default(), ProbePolicy::LeastLoaded);

    let tw = Cycles::new(1_000_000);
    let submissions = [
        ("web-frontend", Sla::Gold),
        ("db-primary", Sla::Gold),
        ("analytics", Sla::Silver),
        ("ml-batch", Sla::Silver),
        ("log-compactor", Sla::Bronze),
        ("backup", Sla::Bronze),
        ("db-replica", Sla::Gold),
        ("report-gen", Sla::Bronze),
    ];

    println!("{:<14} {:<7} {:<22} placement", "client", "SLA", "request");
    println!("{}", "-".repeat(64));
    for (i, (name, sla)) in submissions.iter().enumerate() {
        let request = sla.request();
        let mut req = AdmissionRequest::builder(JobId::new(i as u32), request, tw).mode(sla.mode());
        if sla.mode() != ExecutionMode::Opportunistic {
            req = req.deadline(Cycles::new(5_000_000));
        }
        let (node, decision) = gac.submit_request(&req.build(), &mut NullRecorder);
        let placement = match (node, decision.is_accepted()) {
            (Some(n), true) => format!("{n} @ start {:?}", decision.start().map(|c| c.get())),
            _ => format!("REJECTED ({decision:?})"),
        };
        println!("{name:<14} {sla:<7?} {request:<22} {placement}");
    }

    println!();
    for n in 0..gac.nodes() {
        let lac = gac.lac(cmpqos::types::NodeId::new(n as u32));
        println!(
            "node{n}: {} reservations live, {} accepted / {} tests",
            lac.reservations().len(),
            lac.accepted(),
            lac.admission_tests()
        );
    }
    println!(
        "\nRUM targets make the placement decisions trivial comparisons of\n\
         capacity vectors — the paper's argument for convertible QoS targets."
    );
}
