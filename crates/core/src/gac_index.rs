//! Event indexes for the GAC core ([`NetGac`](crate::protocol::NetGac)).
//!
//! The core asks its tables, on every event, for its next timer and its
//! due work: the next lease expiry, the next parked wake, the placements
//! that ended, each node's load. Each table here keeps its rows beside an
//! ordered index, so those queries read the head of an ordered set and
//! cost nothing per row the table holds:
//!
//! * [`Placements`] — the placement map, its `(end, job)` pairs in end
//!   order, and a per-node placement count for `LeastLoaded`.
//! * [`Leases`] — each lease's grant, every node's leases in grant order,
//!   each node's renewal horizon, and one ordered set of `(next expiry,
//!   node)`. A lease runs out at the later of its grant and its node's
//!   horizon, so a node's earliest grant leads its leases and the node's
//!   key is `max(earliest grant, horizon)`. A grant, drop or renewal
//!   re-keys one node.
//! * [`Parked`] — parked tasks keyed by `(due, order)`.
//!
//! The indexes are derived state: equality compares the rows, and
//! `from_rows` rebuilds a table from the rows a snapshot holds. Every
//! query answers what a scan over the rows would, in the same order (job
//! order for ended placements and expired leases); the mirror tests below
//! keep that scan as the referee.

use crate::lac::Reservation;
use cmpqos_types::{Cycles, JobId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// The core's placements: job → node and the core's copy of the
/// reservation.
#[derive(Debug, Clone, Default)]
pub(crate) struct Placements {
    rows: BTreeMap<JobId, (NodeId, Reservation)>,
    /// `(reservation end, job)` for every row.
    by_end: BTreeSet<(Cycles, JobId)>,
    /// Placements per node, by node index (absent = 0).
    load: Vec<usize>,
}

impl PartialEq for Placements {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl Placements {
    /// Indexes `rows` (a snapshot's placement map).
    #[cfg(any(test, feature = "serde"))]
    pub(crate) fn from_rows(rows: BTreeMap<JobId, (NodeId, Reservation)>) -> Self {
        let by_end = rows.iter().map(|(&job, (_, r))| (r.end, job)).collect();
        let mut load = Vec::new();
        for (node, _) in rows.values() {
            count_one(&mut load, *node);
        }
        Self { rows, by_end, load }
    }

    pub(crate) fn rows(&self) -> &BTreeMap<JobId, (NodeId, Reservation)> {
        &self.rows
    }

    /// Places `r.id` on `node`, replacing any placement it had.
    pub(crate) fn insert(&mut self, node: NodeId, r: Reservation) {
        self.remove(r.id);
        self.by_end.insert((r.end, r.id));
        count_one(&mut self.load, node);
        self.rows.insert(r.id, (node, r));
    }

    pub(crate) fn remove(&mut self, job: JobId) -> Option<(NodeId, Reservation)> {
        let (node, r) = self.rows.remove(&job)?;
        self.by_end.remove(&(r.end, job));
        self.load[node.as_usize()] -= 1;
        Some((node, r))
    }

    /// Edits `job`'s reservation in place (a no-op when it is not placed).
    pub(crate) fn update(&mut self, job: JobId, edit: impl FnOnce(&mut Reservation)) {
        if let Some((_, r)) = self.rows.get_mut(&job) {
            self.by_end.remove(&(r.end, job));
            edit(r);
            self.by_end.insert((r.end, job));
        }
    }

    /// The jobs whose reservation ended by `now`, in job order.
    pub(crate) fn ended(&self, now: Cycles) -> Vec<JobId> {
        let mut jobs: Vec<JobId> = self
            .by_end
            .iter()
            .take_while(|&&(end, _)| end <= now)
            .map(|&(_, job)| job)
            .collect();
        jobs.sort_unstable();
        jobs
    }

    /// How many placements `node` holds.
    pub(crate) fn load(&self, node: NodeId) -> usize {
        self.load.get(node.as_usize()).copied().unwrap_or(0)
    }
}

/// Adds one placement to `node`'s count.
fn count_one(load: &mut Vec<usize>, node: NodeId) {
    let i = node.as_usize();
    if i >= load.len() {
        load.resize(i + 1, 0);
    }
    load[i] += 1;
}

/// The lease table: each leased job's node and granted expiry, and each
/// node's renewal horizon.
#[derive(Debug, Clone, Default)]
pub(crate) struct Leases {
    /// job → `(node, granted expiry)`.
    grants: BTreeMap<JobId, (NodeId, Cycles)>,
    /// `(node, granted expiry, job)`: each node's leases, earliest first.
    by_node: BTreeSet<(NodeId, Cycles, JobId)>,
    /// Where each node's last renewal ran its leases to, by node index
    /// (absent = never renewed).
    until: Vec<Cycles>,
    /// `(next expiry, node)` for every node holding a lease.
    by_expiry: BTreeSet<(Cycles, NodeId)>,
}

impl PartialEq for Leases {
    fn eq(&self, other: &Self) -> bool {
        let nodes = self.until.len().max(other.until.len());
        self.grants == other.grants && (0..nodes).all(|i| self.until_at(i) == other.until_at(i))
    }
}

impl Leases {
    /// Indexes `rows` (`(job, node, granted expiry)`, a snapshot's lease
    /// list) under the per-node horizons `until`.
    #[cfg(any(test, feature = "serde"))]
    pub(crate) fn from_rows(rows: Vec<(JobId, NodeId, Cycles)>, until: Vec<Cycles>) -> Self {
        let mut table = Self {
            until,
            ..Self::default()
        };
        for (job, node, granted) in rows {
            table.grant(job, node, granted);
        }
        table
    }

    /// `(job, node, granted expiry)`, in job order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (JobId, NodeId, Cycles)> + '_ {
        self.grants
            .iter()
            .map(|(&job, &(node, granted))| (job, node, granted))
    }

    /// `(job, node, expiry)`, in job order: a lease expires at its grant,
    /// or at its node's last renewal when that came later.
    pub(crate) fn expiries(&self) -> Vec<(JobId, NodeId, Cycles)> {
        self.rows()
            .map(|(job, node, granted)| (job, node, granted.max(self.until(node))))
            .collect()
    }

    /// Where `node`'s last renewal ran its leases to.
    pub(crate) fn until(&self, node: NodeId) -> Cycles {
        self.until_at(node.as_usize())
    }

    fn until_at(&self, i: usize) -> Cycles {
        self.until.get(i).copied().unwrap_or(Cycles::ZERO)
    }

    /// `node`'s leases, earliest grant first.
    fn on_node(&self, node: NodeId) -> impl Iterator<Item = &(NodeId, Cycles, JobId)> + '_ {
        self.by_node
            .range((node, Cycles::ZERO, JobId::new(0))..)
            .take_while(move |&&(n, _, _)| n == node)
    }

    /// How many leases `node` holds.
    pub(crate) fn count_on(&self, node: NodeId) -> usize {
        self.on_node(node).count()
    }

    /// `node`'s key in `by_expiry`: when its first lease runs out.
    fn key(&self, node: NodeId) -> Option<Cycles> {
        let &(_, first, _) = self.on_node(node).next()?;
        Some(first.max(self.until(node)))
    }

    /// Changes `node`'s leases or horizon through `edit`, moving the
    /// node's key.
    fn rekey(&mut self, node: NodeId, edit: impl FnOnce(&mut Self)) {
        if let Some(key) = self.key(node) {
            self.by_expiry.remove(&(key, node));
        }
        edit(self);
        if let Some(key) = self.key(node) {
            self.by_expiry.insert((key, node));
        }
    }

    /// Grants `job` a lease on `node` expiring at `granted`, replacing
    /// any lease it held.
    pub(crate) fn grant(&mut self, job: JobId, node: NodeId, granted: Cycles) {
        self.remove(job);
        self.rekey(node, |t| {
            t.by_node.insert((node, granted, job));
        });
        self.grants.insert(job, (node, granted));
    }

    /// Drops `job`'s lease, if it holds one.
    pub(crate) fn remove(&mut self, job: JobId) {
        if let Some((node, granted)) = self.grants.remove(&job) {
            self.rekey(node, |t| {
                t.by_node.remove(&(node, granted, job));
            });
        }
    }

    /// Runs every lease `node` holds to at least `until`.
    pub(crate) fn renew(&mut self, node: NodeId, until: Cycles) {
        self.rekey(node, |t| {
            let i = node.as_usize();
            if i >= t.until.len() {
                t.until.resize(i + 1, Cycles::ZERO);
            }
            t.until[i] = until;
        });
    }

    /// When the first lease runs out.
    pub(crate) fn next_expiry(&self) -> Option<Cycles> {
        self.by_expiry.first().map(|&(expiry, _)| expiry)
    }

    /// The jobs whose lease ran out more than `grace` before `now`, in
    /// job order. Only nodes whose key has passed are visited, and on
    /// each only the leading leases that expired.
    pub(crate) fn expired(&self, now: Cycles, grace: Cycles) -> Vec<JobId> {
        let mut jobs = Vec::new();
        for &(key, node) in &self.by_expiry {
            if now <= key + grace {
                break;
            }
            let until = self.until(node);
            jobs.extend(
                self.on_node(node)
                    .take_while(|&&(_, granted, _)| now > granted.max(until) + grace)
                    .map(|&(_, _, job)| job),
            );
        }
        jobs.sort_unstable();
        jobs
    }
}

/// Tasks waiting for a retry timer, woken in `(due, order)` order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Parked<T> {
    tasks: BTreeMap<(Cycles, u64), T>,
    /// The order stamp the next parked task gets.
    next_order: u64,
}

impl<T> Parked<T> {
    /// Rebuilds the queue from a snapshot's `(due, order, task)` rows and
    /// its next order stamp.
    pub(crate) fn from_rows(rows: Vec<(Cycles, u64, T)>, next_order: u64) -> Self {
        Self {
            tasks: rows
                .into_iter()
                .map(|(due, order, task)| ((due, order), task))
                .collect(),
            next_order,
        }
    }

    /// `(due, order, task)` in wake order.
    #[cfg(feature = "serde")]
    pub(crate) fn rows(&self) -> impl Iterator<Item = (Cycles, u64, &T)> + '_ {
        self.tasks
            .iter()
            .map(|(&(due, order), task)| (due, order, task))
    }

    #[cfg(feature = "serde")]
    pub(crate) fn next_order(&self) -> u64 {
        self.next_order
    }

    /// The tasks in wake order.
    pub(crate) fn tasks(&self) -> impl Iterator<Item = &T> + '_ {
        self.tasks.values()
    }

    pub(crate) fn park(&mut self, due: Cycles, task: T) {
        self.tasks.insert((due, self.next_order), task);
        self.next_order += 1;
    }

    /// When the first task is due.
    pub(crate) fn next_due(&self) -> Option<Cycles> {
        self.tasks.first_key_value().map(|(&(due, _), _)| due)
    }

    /// Takes the first task due by `now`.
    pub(crate) fn pop_due(&mut self, now: Cycles) -> Option<T> {
        let entry = self.tasks.first_entry()?;
        (entry.key().0 <= now).then(|| entry.remove())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::ExecutionMode;
    use crate::target::ResourceRequest;
    use cmpqos_types::Ways;

    /// Tiny deterministic LCG so the comparison sweep needs no RNG crate.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % bound.max(1)
        }
    }

    fn res(id: u32, end: u64) -> Reservation {
        Reservation {
            id: JobId::new(id),
            start: Cycles::ZERO,
            end: Cycles::new(end),
            request: ResourceRequest::new(1, Ways::new(1)),
            mode: ExecutionMode::Strict,
            deadline: None,
        }
    }

    /// Node ids run past every table's length, as a join's do.
    const NODES: u64 = 7;

    /// Brute-force scans over plain tables: the referee.
    #[derive(Default)]
    struct Mirror {
        placements: BTreeMap<JobId, (NodeId, Reservation)>,
        /// `(job, node, granted expiry)`, sorted by job.
        leases: Vec<(JobId, NodeId, Cycles)>,
        until: Vec<Cycles>,
        parked: Vec<(Cycles, u64, u32)>,
        next_order: u64,
    }

    impl Mirror {
        fn ended(&self, now: Cycles) -> Vec<JobId> {
            self.placements
                .iter()
                .filter(|(_, (_, r))| r.end <= now)
                .map(|(&job, _)| job)
                .collect()
        }

        fn load(&self, node: NodeId) -> usize {
            self.placements.values().filter(|(n, _)| *n == node).count()
        }

        fn until(&self, node: NodeId) -> Cycles {
            self.until
                .get(node.as_usize())
                .copied()
                .unwrap_or(Cycles::ZERO)
        }

        fn expiries(&self) -> Vec<(JobId, NodeId, Cycles)> {
            self.leases
                .iter()
                .map(|&(job, node, granted)| (job, node, granted.max(self.until(node))))
                .collect()
        }

        fn next_expiry(&self) -> Option<Cycles> {
            self.expiries().into_iter().map(|(_, _, e)| e).min()
        }

        fn expired(&self, now: Cycles, grace: Cycles) -> Vec<JobId> {
            self.expiries()
                .into_iter()
                .filter(|&(_, _, expiry)| now > expiry + grace)
                .map(|(job, _, _)| job)
                .collect()
        }

        fn grant(&mut self, job: JobId, node: NodeId, granted: Cycles) {
            let lease = (job, node, granted);
            match self.leases.binary_search_by_key(&job, |&(j, _, _)| j) {
                Ok(i) => self.leases[i] = lease,
                Err(i) => self.leases.insert(i, lease),
            }
        }

        fn drop_lease(&mut self, job: JobId) {
            if let Ok(i) = self.leases.binary_search_by_key(&job, |&(j, _, _)| j) {
                self.leases.remove(i);
            }
        }

        /// Sorts the parked tasks and takes the due ones, as `unpark` did.
        fn unpark(&mut self, now: Cycles) -> Vec<u32> {
            self.parked.sort_by_key(|&(due, order, _)| (due, order));
            let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.parked)
                .into_iter()
                .partition(|&(due, _, _)| due <= now);
            self.parked = later;
            due.into_iter().map(|(_, _, task)| task).collect()
        }
    }

    fn check(
        placements: &Placements,
        leases: &Leases,
        parked: &Parked<u32>,
        mirror: &Mirror,
        at: &str,
    ) {
        assert_eq!(placements.rows(), &mirror.placements, "{at}: placements");
        for now in [0, 40, 41, 90, 200] {
            let now = Cycles::new(now);
            assert_eq!(
                placements.ended(now),
                mirror.ended(now),
                "{at}: ended by {now}"
            );
        }
        for n in 0..=NODES as u32 {
            let node = NodeId::new(n);
            assert_eq!(
                placements.load(node),
                mirror.load(node),
                "{at}: load of {n}"
            );
            let held = mirror.leases.iter().filter(|l| l.1 == node).count();
            assert_eq!(leases.count_on(node), held, "{at}: leases on {n}");
        }
        let expiries = mirror.expiries();
        assert_eq!(leases.expiries(), expiries, "{at}: leases");
        assert_eq!(
            leases.next_expiry(),
            mirror.next_expiry(),
            "{at}: next expiry"
        );
        for (now, grace) in [(0, 0), (30, 0), (60, 10), (61, 10), (150, 5), (400, 0)] {
            let (now, grace) = (Cycles::new(now), Cycles::new(grace));
            assert_eq!(
                leases.expired(now, grace),
                mirror.expired(now, grace),
                "{at}: expired at {now} with grace {grace}"
            );
        }
        let due = mirror.parked.iter().map(|&(due, _, _)| due).min();
        assert_eq!(parked.next_due(), due, "{at}: next parked due");
        // A table rebuilt from its rows, as a snapshot reads back, is the
        // same table and answers the same.
        let rebuilt = Placements::from_rows(placements.rows().clone());
        assert_eq!(&rebuilt, placements, "{at}: placements rebuilt");
        for n in 0..=NODES as u32 {
            assert_eq!(
                rebuilt.load(NodeId::new(n)),
                placements.load(NodeId::new(n))
            );
        }
        let until = (0..NODES as u32)
            .map(|n| leases.until(NodeId::new(n)))
            .collect();
        let rebuilt = Leases::from_rows(leases.rows().collect(), until);
        assert_eq!(&rebuilt, leases, "{at}: leases rebuilt");
        assert_eq!(rebuilt.expiries(), expiries, "{at}: rebuilt leases");
        assert_eq!(
            rebuilt.next_expiry(),
            leases.next_expiry(),
            "{at}: rebuilt expiry"
        );
        assert_eq!(rebuilt.by_expiry, leases.by_expiry, "{at}: rebuilt keys");
    }

    #[test]
    fn indexes_match_the_scans_across_operation_sequences() {
        for seed in 0..48u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9).wrapping_add(11));
            let mut placements = Placements::default();
            let mut leases = Leases::default();
            let mut parked = Parked::from_rows(Vec::new(), 0);
            let mut mirror = Mirror::default();
            let mut now = 0u64;
            for step in 0..120u32 {
                // Few jobs, nodes and instants, so ends, grants and dues
                // collide and jobs come back.
                let job = JobId::new(rng.next(12) as u32);
                let node = NodeId::new(rng.next(NODES) as u32);
                let at = Cycles::new(rng.next(8) * 10 + rng.next(2));
                match rng.next(11) {
                    0 | 1 => {
                        let r = res(job.index(), at.get() + 30);
                        placements.insert(node, r);
                        mirror.placements.insert(job, (node, r));
                    }
                    2 => {
                        assert_eq!(placements.remove(job), mirror.placements.remove(&job));
                    }
                    3 => {
                        let end = Cycles::new(rng.next(120));
                        placements.update(job, |r| r.end = end);
                        if let Some((_, r)) = mirror.placements.get_mut(&job) {
                            r.end = end;
                        }
                    }
                    4 | 5 => {
                        leases.grant(job, node, at);
                        mirror.grant(job, node, at);
                    }
                    6 => {
                        leases.remove(job);
                        mirror.drop_lease(job);
                    }
                    // A renewal lands before or after the node's grants.
                    7 | 8 => {
                        let until = Cycles::new(rng.next(10) * 10);
                        leases.renew(node, until);
                        let i = node.as_usize();
                        if i >= mirror.until.len() {
                            mirror.until.resize(i + 1, Cycles::ZERO);
                        }
                        mirror.until[i] = until;
                    }
                    9 => {
                        let due = Cycles::new(now + rng.next(3) * 50);
                        parked.park(due, step);
                        mirror.parked.push((due, mirror.next_order, step));
                        mirror.next_order += 1;
                    }
                    _ => {
                        now += rng.next(3) * 50;
                        let mut woken = Vec::new();
                        while let Some(task) = parked.pop_due(Cycles::new(now)) {
                            woken.push(task);
                        }
                        assert_eq!(
                            woken,
                            mirror.unpark(Cycles::new(now)),
                            "seed {seed} step {step}"
                        );
                    }
                }
                check(
                    &placements,
                    &leases,
                    &parked,
                    &mirror,
                    &format!("seed {seed} step {step}"),
                );
            }
        }
    }

    #[test]
    fn a_node_past_the_table_has_no_load_no_leases_and_no_horizon() {
        let placements = Placements::default();
        let mut leases = Leases::default();
        let far = NodeId::new(1_000);
        assert_eq!(placements.load(far), 0);
        assert_eq!(leases.count_on(far), 0);
        assert_eq!(leases.until(far), Cycles::ZERO);
        // Renewing a node with no leases moves its horizon, not the
        // expiry order.
        leases.renew(far, Cycles::new(500));
        assert_eq!(leases.next_expiry(), None);
        leases.grant(JobId::new(3), far, Cycles::new(100));
        assert_eq!(leases.next_expiry(), Some(Cycles::new(500)));
        assert_eq!(
            leases.expiries(),
            vec![(JobId::new(3), far, Cycles::new(500))]
        );
        // Equal horizons compare equal however far each table grew.
        let mut other = Leases::default();
        other.grant(JobId::new(3), far, Cycles::new(100));
        other.renew(far, Cycles::new(500));
        other.renew(NodeId::new(2_000), Cycles::ZERO);
        assert_eq!(other, leases);
    }
}
