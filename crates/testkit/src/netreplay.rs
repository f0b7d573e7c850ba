//! The delivered-message-log replay oracle for the message-layer control
//! plane.
//!
//! A [`cmpqos_core::Cluster`] run leaves behind the network's
//! delivered-frame log (`SimNet::delivered_log`): every frame that
//! actually reached a receiver, in delivery order, *after* the seeded
//! drop/duplicate/reorder machinery had its say. The protocol's whole
//! claim is that node state is a pure function of that log — sequence
//! numbers, the reply cache, and epoch resynchronization make duplicated
//! and reordered deliveries idempotent.
//!
//! [`replay`] re-derives each node's state from first principles: it
//! feeds the logged request frames through *fresh* [`LacEndpoint`]s (no
//! network, no retransmission machinery, no GAC) and [`check`] demands
//! the replayed reservation tables and processed-request counts equal the
//! live endpoints' — byte-for-byte state equality, not a summary
//! comparison. Any hidden state the live endpoint accumulated outside the
//! delivered log (or any non-idempotent handling of a duplicate) shows up
//! as a divergence.

use cmpqos_core::{Cluster, Lac, LacConfig, LacEndpoint, Wire};
use cmpqos_net::{Addr, Envelope};
use cmpqos_types::{Cycles, NodeId};

/// Replays the request frames of a delivered-message log through fresh
/// endpoints, one per node, in delivery order. Replies the replayed
/// endpoints would have sent are discarded — only node state matters.
#[must_use]
pub fn replay(log: &[Envelope<Wire>], nodes: usize, config: LacConfig) -> Vec<LacEndpoint<Lac>> {
    replay_with_restarts(log, nodes, config, &[])
}

/// [`replay`] for runs with node restarts. A restart wipes the live
/// endpoint's protocol state (sequence numbers, reply cache, epoch) while
/// its journal-recovered backend survives — so the oracle endpoint is
/// [`LacEndpoint::reset`] at the same point in delivery order: after
/// every frame delivered at or before the restart cycle, before the
/// first delivered strictly after it. `restarts` must be in cycle order
/// (the order they were applied to the live cluster).
#[must_use]
pub fn replay_with_restarts(
    log: &[Envelope<Wire>],
    nodes: usize,
    config: LacConfig,
    restarts: &[(Cycles, NodeId)],
) -> Vec<LacEndpoint<Lac>> {
    let mut endpoints: Vec<LacEndpoint<Lac>> = (0..nodes)
        .map(|_| LacEndpoint::new(Lac::new(config)))
        .collect();
    let mut pending = restarts.iter().peekable();
    for env in log {
        while let Some(&&(at, node)) = pending.peek() {
            if at < env.deliver_at {
                if let Some(endpoint) = endpoints.get_mut(node.as_usize()) {
                    endpoint.reset();
                }
                pending.next();
            } else {
                break;
            }
        }
        if let (Addr::Node(node), Wire::Request(req)) = (env.to, &env.msg) {
            if let Some(endpoint) = endpoints.get_mut(node.as_usize()) {
                let _ = endpoint.handle(req.clone(), &mut cmpqos_obs::NullRecorder);
            }
        }
    }
    for &(_, node) in pending {
        if let Some(endpoint) = endpoints.get_mut(node.as_usize()) {
            endpoint.reset();
        }
    }
    endpoints
}

/// Checks a finished cluster run against the replay oracle: every node's
/// live reservation table and processed-request count must be reproduced
/// by replaying the delivered log alone.
///
/// # Errors
///
/// Returns a description of the first node whose replayed state diverges
/// from its live state.
pub fn check(cluster: &Cluster<Lac>, config: LacConfig) -> Result<(), String> {
    check_with_restarts(cluster, config, &[])
}

/// [`check`] for runs with node restarts (see [`replay_with_restarts`]).
///
/// # Errors
///
/// Returns a description of the first node whose replayed state diverges
/// from its live state.
pub fn check_with_restarts(
    cluster: &Cluster<Lac>,
    config: LacConfig,
    restarts: &[(Cycles, NodeId)],
) -> Result<(), String> {
    let nodes = cluster.nodes();
    let replayed = replay_with_restarts(cluster.net().delivered_log(), nodes, config, restarts);
    for (i, oracle) in replayed.iter().enumerate() {
        let node = NodeId::new(u32::try_from(i).map_err(|_| "node count overflows u32")?);
        let live = cluster.endpoint(node);
        if live.processed() != oracle.processed() {
            return Err(format!(
                "{node}: live endpoint executed {} request(s) but the delivered \
                 log replays {} — state is not a pure function of the log",
                live.processed(),
                oracle.processed()
            ));
        }
        if live.backend() != oracle.backend() {
            return Err(format!(
                "{node}: live reservation table diverges from the delivered-log \
                 replay\n  live:   {:?}\n  replay: {:?}",
                live.backend().reservations(),
                oracle.backend().reservations()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_core::{
        AdmissionRequest, ExecutionMode, NetGacConfig, ProbePolicy, ResourceRequest,
    };
    use cmpqos_net::LinkConfig;
    use cmpqos_obs::NullRecorder;
    use cmpqos_types::{Cycles, JobId};

    fn lossy_run(seed: u64) -> Cluster<Lac> {
        let link = LinkConfig::default()
            .base_latency(Cycles::new(8))
            .jitter(5)
            .reorder(12)
            .drop(0.1)
            .duplicate(0.25);
        let mut cluster = Cluster::new(
            3,
            LacConfig::default(),
            seed,
            link,
            NetGacConfig::default(),
            ProbePolicy::FirstFit,
        );
        let mut rec = NullRecorder;
        for n in 0..10u32 {
            let req = AdmissionRequest::builder(
                JobId::new(n),
                ResourceRequest::paper_job(),
                Cycles::new(500),
            )
            .mode(ExecutionMode::Strict)
            .build();
            let at = Cycles::new(u64::from(n) * 40);
            cluster.gac_mut().submit(req, at, &mut rec);
            cluster.run_until(at, &mut rec);
        }
        cluster.run_until(Cycles::new(60_000), &mut rec);
        cluster
    }

    #[test]
    fn a_lossy_duplicating_run_replays_to_identical_node_state() {
        let cluster = lossy_run(11);
        assert!(
            cluster.net().stats().duplicated + cluster.net().stats().dropped > 0,
            "the link must actually misbehave for this test to mean anything"
        );
        check(&cluster, LacConfig::default()).expect("replay oracle agrees");
    }

    #[test]
    fn the_oracle_detects_state_not_derived_from_the_log() {
        let cluster = lossy_run(12);
        // Replaying against the wrong number of nodes must not panic, and
        // replaying only a prefix of the log must diverge (the dropped
        // suffix contains executed requests).
        let log = cluster.net().delivered_log();
        let requests = log
            .iter()
            .filter(|e| matches!((e.to, &e.msg), (Addr::Node(_), Wire::Request(_))))
            .count();
        assert!(requests > 2, "the run produced request traffic");
        let truncated = replay(&log[..log.len() / 2], cluster.nodes(), LacConfig::default());
        let full = replay(log, cluster.nodes(), LacConfig::default());
        let processed =
            |eps: &[LacEndpoint<Lac>]| -> u64 { eps.iter().map(|e| e.processed()).sum() };
        assert!(
            processed(&truncated) < processed(&full),
            "half the log must replay fewer requests than all of it"
        );
    }
}
