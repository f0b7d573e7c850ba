//! A deterministic, seeded in-process network simulator.
//!
//! The paper's controller hierarchy (one GAC over many per-node LACs)
//! coordinates over an interconnect; this crate is the interconnect's
//! fault model. A [`SimNet`] carries typed [`Envelope`]s between [`Addr`]s
//! over links that share one configurable latency distribution,
//! drop/duplicate probability, and reorder window ([`LinkConfig`]), plus
//! explicit [`Transport::partition`] / [`Transport::heal`] controls that
//! sever a link in both directions.
//!
//! Everything is deterministic: one [`StdRng`] seeded at construction
//! drives every probabilistic decision, and in-flight messages sit in a
//! single event heap keyed on `(deliver_at, seq)` — `seq` is a monotonic
//! send counter, so ties are broken by send order and the same seed always
//! yields the byte-identical delivery sequence. The full delivered and
//! dropped logs are retained so a test oracle can replay a run
//! message-for-message (see `cmpqos-testkit`).
//!
//! The simulator is deliberately passive: it never interprets payloads.
//! The GAC↔LAC request/reply protocol built on top of it lives in
//! `cmpqos_core::protocol`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cmpqos_types::{Cycles, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

/// A network endpoint: the global controller or one node's LAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Addr {
    /// The global admission controller.
    Gac,
    /// One CMP node (its local admission controller).
    Node(NodeId),
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Gac => f.write_str("gac"),
            Addr::Node(n) => write!(f, "{n}"),
        }
    }
}

/// One typed frame in flight (or delivered, or dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Monotonic send counter (ties in the event heap break on it, so
    /// delivery order is total and reproducible).
    pub seq: u64,
    /// Sender.
    pub from: Addr,
    /// Receiver.
    pub to: Addr,
    /// When the sender handed the frame to the network.
    pub sent_at: Cycles,
    /// When the network delivers it.
    pub deliver_at: Cycles,
    /// The payload.
    pub msg: M,
}

/// Every link's behavior.
///
/// Latency is `base + U(0..=jitter) + U(0..=reorder)`: `jitter` models
/// service-time noise, `reorder` an extra displacement window large enough
/// for later sends to overtake earlier ones. Probabilities are evaluated
/// per frame from the simulator's seeded RNG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Fixed one-way latency floor.
    pub base_latency: Cycles,
    /// Uniform extra latency, `0..=jitter` cycles.
    pub jitter: u64,
    /// Uniform extra displacement, `0..=reorder` cycles. Any value larger
    /// than the inter-send gap lets frames overtake each other.
    pub reorder: u64,
    /// Probability a frame is silently lost.
    pub drop: f64,
    /// Probability a frame is delivered twice (the copy gets its own
    /// independent latency draw).
    pub duplicate: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            base_latency: Cycles::new(10),
            jitter: 0,
            reorder: 0,
            drop: 0.0,
            duplicate: 0.0,
        }
    }
}

impl LinkConfig {
    /// Sets the fixed latency floor.
    #[must_use]
    pub fn base_latency(mut self, cycles: Cycles) -> Self {
        self.base_latency = cycles;
        self
    }

    /// Sets the uniform latency jitter bound.
    #[must_use]
    pub fn jitter(mut self, cycles: u64) -> Self {
        self.jitter = cycles;
        self
    }

    /// Sets the reorder displacement window.
    #[must_use]
    pub fn reorder(mut self, cycles: u64) -> Self {
        self.reorder = cycles;
        self
    }

    /// Sets the drop probability (clamped to `[0, 1]`).
    #[must_use]
    pub fn drop(mut self, p: f64) -> Self {
        self.drop = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the duplicate probability (clamped to `[0, 1]`).
    #[must_use]
    pub fn duplicate(mut self, p: f64) -> Self {
        self.duplicate = p.clamp(0.0, 1.0);
        self
    }
}

/// What happened to one [`Transport::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendReport {
    /// Copies enqueued for delivery (0 = lost, 2 = duplicated).
    pub enqueued: u32,
    /// The frame was eaten by an active partition.
    pub partitioned: bool,
    /// The frame was dropped (probabilistically or by a forced drop).
    pub dropped: bool,
}

impl SendReport {
    /// Whether at least one copy will be delivered.
    #[must_use]
    pub fn delivered(&self) -> bool {
        self.enqueued > 0
    }
}

/// Aggregate traffic counters of one [`SimNet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames handed to [`Transport::send`].
    pub sent: u64,
    /// Frames delivered (duplicates count each delivery).
    pub delivered: u64,
    /// Frames lost to the drop probability or a forced drop.
    pub dropped: u64,
    /// Frames eaten by an active partition.
    pub partitioned: u64,
    /// Extra copies enqueued by the duplicate probability.
    pub duplicated: u64,
}

/// A message fabric between [`Addr`]s.
///
/// Implemented by [`SimNet`]; the protocol layer is generic over it so a
/// test can substitute a perfect (or adversarial) transport.
pub trait Transport<M> {
    /// Hands a frame to the network at cycle `at`. The frame may be
    /// dropped, duplicated, delayed, or eaten by a partition; the report
    /// says which.
    fn send(&mut self, from: Addr, to: Addr, at: Cycles, msg: M) -> SendReport;

    /// Pops every frame with `deliver_at <= now`, in `(deliver_at, seq)`
    /// order.
    fn deliver_due(&mut self, now: Cycles) -> Vec<Envelope<M>>;

    /// Severs the `a ↔ b` link in both directions: every frame sent while
    /// the partition is active is lost (senders get no error — exactly
    /// like a real interconnect).
    fn partition(&mut self, a: Addr, b: Addr);

    /// Restores the `a ↔ b` link. Frames already lost stay lost.
    fn heal(&mut self, a: Addr, b: Addr);

    /// Whether `a ↔ b` is currently severed.
    fn is_partitioned(&self, a: Addr, b: Addr) -> bool;
}

/// An in-flight frame in the event heap, ordered so the heap pops the
/// smallest `(deliver_at, seq)` first.
#[derive(Debug)]
struct InFlight<M> {
    key: (Cycles, u64),
    env: Envelope<M>,
}

impl<M> PartialEq for InFlight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<M> Eq for InFlight<M> {}

impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for InFlight<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest frame.
        other.key.cmp(&self.key)
    }
}

fn ordered(a: Addr, b: Addr) -> (Addr, Addr) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The deterministic network simulator.
///
/// # Examples
///
/// ```
/// use cmpqos_net::{Addr, LinkConfig, SimNet, Transport};
/// use cmpqos_types::{Cycles, NodeId};
///
/// let mut net = SimNet::new(42, LinkConfig::default());
/// let node = Addr::Node(NodeId::new(0));
/// let report = net.send(Addr::Gac, node, Cycles::ZERO, "probe");
/// assert!(report.delivered());
/// assert!(net.deliver_due(Cycles::new(5)).is_empty(), "still in flight");
/// let arrived = net.deliver_due(Cycles::new(10));
/// assert_eq!(arrived.len(), 1);
/// assert_eq!(arrived[0].msg, "probe");
/// net.partition(Addr::Gac, node);
/// assert!(!net.send(Addr::Gac, node, Cycles::new(20), "lost").delivered());
/// net.heal(Addr::Gac, node);
/// assert!(net.send(Addr::Gac, node, Cycles::new(30), "back").delivered());
/// ```
#[derive(Debug)]
pub struct SimNet<M> {
    rng: StdRng,
    link: LinkConfig,
    partitions: BTreeSet<(Addr, Addr)>,
    forced_drops: BTreeMap<(Addr, Addr), u32>,
    queue: BinaryHeap<InFlight<M>>,
    next_seq: u64,
    stats: NetStats,
    delivered_log: Vec<Envelope<M>>,
    dropped_log: Vec<Envelope<M>>,
    keep_logs: bool,
}

impl<M: Clone> SimNet<M> {
    /// A simulator where every link behaves per `link`, with all
    /// randomness drawn from a [`StdRng`] seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64, link: LinkConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            link,
            partitions: BTreeSet::new(),
            forced_drops: BTreeMap::new(),
            queue: BinaryHeap::new(),
            next_seq: 0,
            stats: NetStats::default(),
            delivered_log: Vec::new(),
            dropped_log: Vec::new(),
            keep_logs: true,
        }
    }

    /// Disables the delivered/dropped logs (long benchmark runs).
    #[must_use]
    pub fn without_logs(mut self) -> Self {
        self.keep_logs = false;
        self
    }

    /// Forces the next `count` frames on the directed `from → to` link to
    /// be dropped, regardless of probabilities (the `MessageDrop` fault).
    pub fn force_drops(&mut self, from: Addr, to: Addr, count: u32) {
        *self.forced_drops.entry((from, to)).or_insert(0) += count;
    }

    /// Frames the directed `from → to` link still owes a forced drop.
    #[must_use]
    pub fn owed_drops(&self, from: Addr, to: Addr) -> u32 {
        self.forced_drops.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Traffic counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Frames still in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// The earliest pending delivery time, if anything is in flight.
    #[must_use]
    pub fn next_deliver_at(&self) -> Option<Cycles> {
        self.queue.peek().map(|f| f.key.0)
    }

    /// Every delivered frame, in delivery order (empty after
    /// [`SimNet::without_logs`]).
    #[must_use]
    pub fn delivered_log(&self) -> &[Envelope<M>] {
        &self.delivered_log
    }

    /// Every lost frame (partitioned, forced, or probabilistic), in send
    /// order (empty after [`SimNet::without_logs`]).
    #[must_use]
    pub fn dropped_log(&self) -> &[Envelope<M>] {
        &self.dropped_log
    }

    /// Currently severed endpoint pairs.
    #[must_use]
    pub fn partitions(&self) -> Vec<(Addr, Addr)> {
        self.partitions.iter().copied().collect()
    }

    fn enqueue(&mut self, mut env: Envelope<M>, link: &LinkConfig) {
        let mut delay = link.base_latency.get();
        if link.jitter > 0 {
            delay += self.rng.gen_range(0..link.jitter + 1);
        }
        if link.reorder > 0 {
            delay += self.rng.gen_range(0..link.reorder + 1);
        }
        env.deliver_at = env.sent_at + Cycles::new(delay);
        self.queue.push(InFlight {
            key: (env.deliver_at, env.seq),
            env,
        });
    }
}

impl<M: Clone> Transport<M> for SimNet<M> {
    fn send(&mut self, from: Addr, to: Addr, at: Cycles, msg: M) -> SendReport {
        self.stats.sent += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let env = Envelope {
            seq,
            from,
            to,
            sent_at: at,
            deliver_at: at,
            msg,
        };
        if self.partitions.contains(&ordered(from, to)) {
            self.stats.partitioned += 1;
            if self.keep_logs {
                self.dropped_log.push(env);
            }
            return SendReport {
                enqueued: 0,
                partitioned: true,
                dropped: false,
            };
        }
        if let Some(n) = self.forced_drops.get_mut(&(from, to)) {
            if *n > 0 {
                *n -= 1;
                self.stats.dropped += 1;
                if self.keep_logs {
                    self.dropped_log.push(env);
                }
                return SendReport {
                    enqueued: 0,
                    partitioned: false,
                    dropped: true,
                };
            }
        }
        let link = self.link;
        if link.drop > 0.0 && self.rng.gen_bool(link.drop) {
            self.stats.dropped += 1;
            if self.keep_logs {
                self.dropped_log.push(env);
            }
            return SendReport {
                enqueued: 0,
                partitioned: false,
                dropped: true,
            };
        }
        let mut enqueued = 1u32;
        let duplicate = link.duplicate > 0.0 && self.rng.gen_bool(link.duplicate);
        self.enqueue(env.clone(), &link);
        if duplicate {
            self.stats.duplicated += 1;
            enqueued += 1;
            let copy = Envelope {
                seq: self.next_seq,
                ..env
            };
            self.next_seq += 1;
            self.enqueue(copy, &link);
        }
        SendReport {
            enqueued,
            partitioned: false,
            dropped: false,
        }
    }

    fn deliver_due(&mut self, now: Cycles) -> Vec<Envelope<M>> {
        let mut out = Vec::new();
        while let Some(head) = self.queue.peek() {
            if head.key.0 > now {
                break;
            }
            let frame = self.queue.pop().expect("peeked").env;
            self.stats.delivered += 1;
            if self.keep_logs {
                self.delivered_log.push(frame.clone());
            }
            out.push(frame);
        }
        out
    }

    fn partition(&mut self, a: Addr, b: Addr) {
        self.partitions.insert(ordered(a, b));
    }

    fn heal(&mut self, a: Addr, b: Addr) {
        self.partitions.remove(&ordered(a, b));
    }

    fn is_partitioned(&self, a: Addr, b: Addr) -> bool {
        self.partitions.contains(&ordered(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: u32) -> Addr {
        Addr::Node(NodeId::new(i))
    }

    fn drain<M: Clone>(net: &mut SimNet<M>, until: Cycles) -> Vec<Envelope<M>> {
        net.deliver_due(until)
    }

    #[test]
    fn frames_arrive_after_base_latency_in_send_order() {
        let mut net = SimNet::new(1, LinkConfig::default());
        for i in 0..5u32 {
            let r = net.send(Addr::Gac, node(i), Cycles::new(u64::from(i)), i);
            assert!(r.delivered());
        }
        assert_eq!(net.in_flight(), 5);
        assert_eq!(net.next_deliver_at(), Some(Cycles::new(10)));
        let got = drain(&mut net, Cycles::new(100));
        let payloads: Vec<u32> = got.iter().map(|e| e.msg).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
        for e in &got {
            assert_eq!(e.deliver_at, e.sent_at + Cycles::new(10));
        }
        assert_eq!(net.stats().delivered, 5);
        assert_eq!(net.delivered_log().len(), 5);
    }

    #[test]
    fn same_seed_same_delivery_order_any_fault_mix() {
        let cfg = LinkConfig::default()
            .jitter(40)
            .reorder(60)
            .drop(0.2)
            .duplicate(0.2);
        let run = |seed: u64| {
            let mut net = SimNet::new(seed, cfg);
            for i in 0..200u64 {
                let _ = net.send(Addr::Gac, node((i % 7) as u32), Cycles::new(i * 3), i);
            }
            let order: Vec<(u64, u64, u64)> = net
                .deliver_due(Cycles::new(10_000))
                .iter()
                .map(|e| (e.deliver_at.get(), e.seq, e.msg))
                .collect();
            (order, net.stats())
        };
        let (a, sa) = run(7);
        let (b, sb) = run(7);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = run(8);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn reorder_window_lets_frames_overtake() {
        let cfg = LinkConfig::default().reorder(500);
        let mut net = SimNet::new(3, cfg);
        for i in 0..50u64 {
            let _ = net.send(Addr::Gac, node(0), Cycles::new(i), i);
        }
        let got = drain(&mut net, Cycles::new(10_000));
        assert_eq!(got.len(), 50);
        let payloads: Vec<u64> = got.iter().map(|e| e.msg).collect();
        let mut sorted = payloads.clone();
        sorted.sort_unstable();
        assert_ne!(
            payloads, sorted,
            "a 500-cycle window reorders 1-cycle-apart sends"
        );
    }

    #[test]
    fn partition_eats_frames_until_healed() {
        let mut net = SimNet::new(5, LinkConfig::default());
        net.partition(Addr::Gac, node(1));
        assert!(net.is_partitioned(node(1), Addr::Gac), "symmetric");
        let r = net.send(node(1), Addr::Gac, Cycles::ZERO, 1u8);
        assert!(!r.delivered());
        assert!(r.partitioned);
        // Other links unaffected.
        assert!(net.send(Addr::Gac, node(2), Cycles::ZERO, 2u8).delivered());
        net.heal(Addr::Gac, node(1));
        assert!(!net.is_partitioned(Addr::Gac, node(1)));
        assert!(net
            .send(node(1), Addr::Gac, Cycles::new(5), 3u8)
            .delivered());
        assert_eq!(net.stats().partitioned, 1);
        assert_eq!(net.dropped_log().len(), 1);
        assert_eq!(net.dropped_log()[0].msg, 1u8);
    }

    #[test]
    fn forced_drops_consume_exactly_count_frames() {
        let mut net = SimNet::new(9, LinkConfig::default());
        net.force_drops(Addr::Gac, node(0), 2);
        assert!(!net.send(Addr::Gac, node(0), Cycles::ZERO, 0u8).delivered());
        assert!(!net.send(Addr::Gac, node(0), Cycles::ZERO, 1u8).delivered());
        // Reverse direction unaffected; third frame goes through.
        assert!(net.send(node(0), Addr::Gac, Cycles::ZERO, 2u8).delivered());
        assert!(net.send(Addr::Gac, node(0), Cycles::ZERO, 3u8).delivered());
        assert_eq!(net.stats().dropped, 2);
    }

    #[test]
    fn duplicates_get_their_own_latency_draw() {
        let cfg = LinkConfig::default().jitter(100).duplicate(1.0);
        let mut net = SimNet::new(11, cfg);
        let r = net.send(Addr::Gac, node(0), Cycles::ZERO, 42u8);
        assert_eq!(r.enqueued, 2);
        let got = drain(&mut net, Cycles::new(1_000));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].msg, 42);
        assert_eq!(got[1].msg, 42);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn delivery_is_exhaustive_and_in_key_order() {
        let cfg = LinkConfig::default().jitter(30);
        let mut net = SimNet::new(17, cfg);
        for i in 0..100u64 {
            let _ = net.send(Addr::Gac, node((i % 3) as u32), Cycles::new(i), i);
        }
        let mut all = Vec::new();
        for t in (0..300).step_by(7) {
            all.extend(net.deliver_due(Cycles::new(t)));
        }
        all.extend(net.deliver_due(Cycles::new(10_000)));
        assert_eq!(all.len(), 100);
        let keys: Vec<(u64, u64)> = all.iter().map(|e| (e.deliver_at.get(), e.seq)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            keys, sorted,
            "(deliver_at, seq) order regardless of tick granularity"
        );
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn without_logs_keeps_stats_only() {
        let mut net = SimNet::new(19, LinkConfig::default().drop(1.0)).without_logs();
        let _ = net.send(Addr::Gac, node(0), Cycles::ZERO, 0u8);
        assert_eq!(net.stats().dropped, 1);
        assert!(net.dropped_log().is_empty());
    }

    #[test]
    fn addr_ordering_and_display() {
        assert!(Addr::Gac < node(0));
        assert!(node(0) < node(1));
        assert_eq!(Addr::Gac.to_string(), "gac");
        assert_eq!(ordered(node(3), Addr::Gac), (Addr::Gac, node(3)));
    }
}
