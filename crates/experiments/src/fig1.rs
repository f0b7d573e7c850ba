//! **Figure 1** — the motivating experiment: IPC of 1–4 instances of
//! `bzip2` on the 4-core CMP when a resource manager naively divides the
//! shared L2 equally among the instances, against a QoS target of 2/3 of
//! the solo IPC.
//!
//! Paper shape: one and two instances meet the target; three and four do
//! not — equal partitioning alone cannot provide QoS.

use crate::output::{banner, Table};
use crate::params::ExperimentParams;
use cmpqos_engine::Engine;
use cmpqos_system::{CmpNode, Placement, SystemConfig, TaskSpec};
use cmpqos_trace::spec;
use cmpqos_types::{CoreId, Cycles, JobId, Ways};

/// IPCs of the co-running instances for one instance count.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Number of co-running bzip2 instances.
    pub instances: usize,
    /// Per-instance IPC.
    pub ipcs: Vec<f64>,
    /// Ways allocated per instance (16 / instances, floored).
    pub ways_each: u16,
}

/// The full Figure 1 dataset.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// IPC of a single instance with the whole cache.
    pub solo_ipc: f64,
    /// The QoS target (2/3 of solo, as in the paper).
    pub target: f64,
    /// One row per instance count (1..=4).
    pub rows: Vec<Fig1Row>,
}

impl Fig1Result {
    /// Instance counts whose *minimum* per-instance IPC meets the target.
    #[must_use]
    pub fn counts_meeting_target(&self) -> Vec<usize> {
        self.rows
            .iter()
            .filter(|r| r.ipcs.iter().all(|&i| i >= self.target))
            .map(|r| r.instances)
            .collect()
    }
}

/// Runs the experiment. The four instance counts are independent CMP
/// nodes, so each is one `cmpqos-engine` cell.
#[must_use]
pub fn run(params: &ExperimentParams) -> Fig1Result {
    let rows = Engine::new(params.jobs).run((1..=4usize).collect(), |_, k| {
        let system = SystemConfig::paper_scaled(params.scale);
        let assoc = system.l2.associativity();
        let mut node = CmpNode::new(system);
        let each = assoc / k as u16;
        let mut targets = vec![Ways::ZERO; 4];
        for t in targets.iter_mut().take(k) {
            *t = Ways::new(each);
        }
        node.set_l2_targets(&targets).expect("equal split fits");
        let profile = spec::scaled("bzip2", params.scale).expect("bzip2 is built in");
        for i in 0..k {
            node.spawn(TaskSpec {
                id: JobId::new(i as u32),
                source: profile.instantiate(params.seed + i as u64, (i as u64 + 1) << 36),
                budget: params.work,
                placement: Placement::Pinned(CoreId::new(i as u32)),
                reserved: true,
            })
            .expect("fresh node accepts spawns");
        }
        node.run_to_completion(Cycles::new(u64::MAX / 4));
        let ipcs = (0..k)
            .map(|i| node.perf(JobId::new(i as u32)).expect("task ran").ipc())
            .collect();
        Fig1Row {
            instances: k,
            ipcs,
            ways_each: each,
        }
    });
    let solo_ipc = rows[0].ipcs[0];
    Fig1Result {
        solo_ipc,
        target: solo_ipc * 2.0 / 3.0,
        rows,
    }
}

/// Prints the figure's series.
pub fn print(result: &Fig1Result, params: &ExperimentParams) {
    banner(
        "Figure 1: bzip2 instances under equal L2 partitioning",
        params,
    );
    println!(
        "solo IPC = {:.3}; QoS target (2/3 solo) = {:.3}\n",
        result.solo_ipc, result.target
    );
    let mut t = Table::new(&[
        "instances",
        "ways each",
        "min IPC",
        "per-instance IPCs",
        "meets target?",
    ]);
    for r in &result.rows {
        let min = r.ipcs.iter().cloned().fold(f64::INFINITY, f64::min);
        let ipcs = r
            .ipcs
            .iter()
            .map(|i| format!("{i:.3}"))
            .collect::<Vec<_>>()
            .join(" ");
        t.row_owned(vec![
            r.instances.to_string(),
            r.ways_each.to_string(),
            format!("{min:.3}"),
            ipcs,
            if min >= result.target { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper shape: targets met at 1-2 instances, violated at 3-4 -> measured: met at {:?}",
        result.counts_meeting_target()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_partitioning_fails_beyond_two_instances() {
        let mut p = ExperimentParams::quick();
        p.work = cmpqos_types::Instructions::new(300_000);
        let r = run(&p);
        let met = r.counts_meeting_target();
        assert!(met.contains(&1), "solo meets its own target");
        assert!(met.contains(&2), "two instances meet (paper shape): {r:?}");
        assert!(!met.contains(&4), "four instances must fail: {r:?}");
    }
}
