//! The CMP node engine.

use crate::config::{SystemConfig, SystemConfigError};
use crate::task::{Placement, SpawnError, Task, TaskCompletion, TaskSpec};
use cmpqos_cache::l2::PartitionError;
use cmpqos_cache::{DuplicateTagMonitor, L1Cache, SharedL2, VictimClass};
use cmpqos_cpu::{MemOutcome, PerfCounters, Throttle};
use cmpqos_mem::{BandwidthRegulator, BusMonitor, MemoryChannel, Priority};
use cmpqos_trace::Access;
use cmpqos_types::{CoreId, Cycles, JobId, Ways};
use std::collections::{BTreeMap, VecDeque};

/// Bus-utilization monitoring window.
const BUS_WINDOW: Cycles = Cycles::new(100_000);

/// Index of a live task in [`TaskTable`]'s slot vector.
type Slot = usize;

#[derive(Debug)]
struct CoreState {
    /// Slot of the task pinned to this core.
    pinned: Option<Slot>,
    /// Slot of the task executing on this core.
    current: Option<Slot>,
    /// The task that ran here last. An id rather than a slot: a freed slot
    /// is re-used by the next spawn, and running that task is a switch.
    last_task: Option<JobId>,
    next_free: Cycles,
    quantum_end: Cycles,
    /// DVFS-style frequency scaler; identity at full speed.
    throttle: Throttle,
}

impl CoreState {
    fn new() -> Self {
        Self {
            pinned: None,
            current: None,
            last_task: None,
            next_free: Cycles::ZERO,
            quantum_end: Cycles::ZERO,
            throttle: Throttle::full(),
        }
    }
}

/// Live tasks in a dense slot vector with a free list (a slab). Cores and
/// the floating queue refer to tasks by slot, so the per-instruction path
/// never searches a map; the `JobId → slot` index serves the public API
/// only.
#[derive(Debug, Default)]
struct TaskTable {
    slots: Vec<Option<Task>>,
    free: Vec<Slot>,
    index: BTreeMap<JobId, Slot>,
    /// Monitors of ids with no live task: attached before `spawn`, or kept
    /// after completion until `detach_monitor`. A live task carries its
    /// monitor itself.
    parked: Vec<(JobId, DuplicateTagMonitor)>,
}

impl TaskTable {
    fn insert(&mut self, task: Task) -> Slot {
        let id = task.id;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(task);
                slot
            }
            None => {
                self.slots.push(Some(task));
                self.slots.len() - 1
            }
        };
        self.index.insert(id, slot);
        slot
    }

    fn remove(&mut self, slot: Slot) -> Task {
        let task = self.slots[slot].take().expect("removing a live slot");
        self.index.remove(&task.id);
        self.free.push(slot);
        task
    }

    fn at(&self, slot: Slot) -> &Task {
        self.slots[slot].as_ref().expect("slot holds a live task")
    }

    fn at_mut(&mut self, slot: Slot) -> &mut Task {
        self.slots[slot].as_mut().expect("slot holds a live task")
    }

    fn slot_of(&self, id: JobId) -> Option<Slot> {
        self.index.get(&id).copied()
    }

    fn get(&self, id: JobId) -> Option<&Task> {
        self.slot_of(id).map(|slot| self.at(slot))
    }

    fn get_mut(&mut self, id: JobId) -> Option<&mut Task> {
        let slot = self.slot_of(id)?;
        Some(self.at_mut(slot))
    }

    fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn monitor(&self, id: JobId) -> Option<&DuplicateTagMonitor> {
        match self.get(id) {
            Some(task) => task.monitor.as_ref(),
            None => self.parked.iter().find(|(j, _)| *j == id).map(|(_, m)| m),
        }
    }

    fn monitor_mut(&mut self, id: JobId) -> Option<&mut DuplicateTagMonitor> {
        match self.slot_of(id) {
            Some(slot) => self.at_mut(slot).monitor.as_mut(),
            None => self
                .parked
                .iter_mut()
                .find(|(j, _)| *j == id)
                .map(|(_, m)| m),
        }
    }

    fn attach(&mut self, id: JobId, monitor: DuplicateTagMonitor) {
        match self.get_mut(id) {
            Some(task) => task.monitor = Some(monitor),
            None => self.park(id, monitor),
        }
    }

    fn detach(&mut self, id: JobId) -> Option<DuplicateTagMonitor> {
        match self.get_mut(id) {
            Some(task) => task.monitor.take(),
            None => self.unpark(id),
        }
    }

    fn park(&mut self, id: JobId, monitor: DuplicateTagMonitor) {
        self.unpark(id);
        self.parked.push((id, monitor));
    }

    fn unpark(&mut self, id: JobId) -> Option<DuplicateTagMonitor> {
        let i = self.parked.iter().position(|(j, _)| *j == id)?;
        Some(self.parked.swap_remove(i).1)
    }
}

/// The node's memory side: private L1s, the shared L2, the memory channel
/// and the bandwidth bookkeeping around it. Split from the cores and tasks
/// so a batch can borrow its task and the hierarchy at once.
#[derive(Debug)]
struct MemorySystem {
    l1s: Vec<L1Cache>,
    l2: SharedL2,
    mem: MemoryChannel,
    bus: BusMonitor,
    regulator: BandwidthRegulator,
    /// L2 hit latency (`t2`).
    l2_latency: Cycles,
    /// Channel occupancy of one block transfer.
    transfer: Cycles,
    /// `log2` of the L2 block size: byte address to monitor block address.
    block_shift: u32,
}

impl MemorySystem {
    /// One demand access by the task running on `core`, issued at `when`.
    /// Demand fills and dirty L1 victims feed that task's `monitor`.
    fn access(
        &mut self,
        core: usize,
        throttle: &mut Throttle,
        mut monitor: Option<&mut DuplicateTagMonitor>,
        access: Access,
        when: Cycles,
        priority: Priority,
    ) -> MemOutcome {
        let out = self.l1s[core].access(access.addr(), access.is_write());
        if out.hit {
            return MemOutcome::L1Hit;
        }
        let core_id = CoreId::new(core as u32);
        // Dirty L1 victim written back into the L2.
        if let Some(wb) = out.writeback {
            self.l2_touch(core_id, monitor.as_deref_mut(), wb, true, when);
        }
        // Demand fill: a read from the L2's perspective (write-allocate; the
        // dirty bit lives in the L1 until written back).
        let t2 = self.l2_latency;
        let l2_out = self.l2.access(core_id, access.addr(), false);
        if let Some(monitor) = monitor {
            monitor.observe(l2_out.set, access.addr() >> self.block_shift, l2_out.hit);
        }
        if l2_out.hit {
            // The L2 hit stall sits in the core's clock domain, so it
            // stretches under the DVFS throttle; the miss path below is
            // paced by the (unthrottled) off-chip channel instead.
            return MemOutcome::L2Hit {
                stall: throttle.scale(t2),
            };
        }
        if l2_out.eviction.is_some_and(|ev| ev.dirty) {
            self.writeback(when);
        }
        // Bandwidth regulation throttles the *core* (its next request is
        // delayed by the extended stall), keeping channel bookkeeping in
        // global time order.
        let delay = self.regulator.delay(core, when + t2, self.transfer);
        let completion = self.mem.request(when + t2, priority);
        self.bus.record_busy(when, self.transfer);
        MemOutcome::L2Miss {
            stall: completion - when + delay,
        }
    }

    /// A state-only L2 access (L1 write-backs, flush traffic): updates cache
    /// contents, the monitor and bandwidth, but nothing stalls on it.
    fn l2_touch(
        &mut self,
        core: CoreId,
        monitor: Option<&mut DuplicateTagMonitor>,
        addr: u64,
        is_write: bool,
        when: Cycles,
    ) {
        let out = self.l2.access(core, addr, is_write);
        if let Some(monitor) = monitor {
            monitor.observe(out.set, addr >> self.block_shift, out.hit);
        }
        if out.eviction.is_some_and(|ev| ev.dirty) {
            self.writeback(when);
        }
    }

    fn writeback(&mut self, when: Cycles) {
        self.mem.writeback(when);
        self.bus.record_busy(when, self.transfer);
    }

    /// Writes `core`'s dirty L1 lines back into the L2, feeding the
    /// outgoing task's `monitor`.
    fn flush_l1(
        &mut self,
        core: usize,
        mut monitor: Option<&mut DuplicateTagMonitor>,
        when: Cycles,
    ) {
        let dirty = self.l1s[core].flush();
        let core_id = CoreId::new(core as u32);
        for addr in dirty {
            self.l2_touch(core_id, monitor.as_deref_mut(), addr, true, when);
        }
    }
}

/// An event-driven CMP node: `N` cores, private L1s, a shared partitioned
/// L2 and a memory channel, plus pin/timeshare scheduling.
///
/// See the [crate docs](crate) for the role split between this mechanism
/// layer and the QoS policy layer in `cmpqos-core`.
#[derive(Debug)]
pub struct CmpNode {
    cfg: SystemConfig,
    now: Cycles,
    cores: Vec<CoreState>,
    tasks: TaskTable,
    finished: BTreeMap<JobId, (PerfCounters, TaskCompletion)>,
    /// Ready floating tasks not currently on a core, in round-robin order.
    floating: VecDeque<Slot>,
    memory: MemorySystem,
    completions: Vec<TaskCompletion>,
}

impl CmpNode {
    /// Creates an idle node.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SystemConfig::validate`]). Prefer [`CmpNode::try_new`] outside
    /// test code.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(node) => node,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`CmpNode::new`]: validates the configuration first.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`SystemConfigError`].
    pub fn try_new(cfg: SystemConfig) -> Result<Self, SystemConfigError> {
        cfg.validate()?;
        let transfer = cfg.memory.transfer_cycles();
        let memory = MemorySystem {
            l1s: (0..cfg.num_cores).map(|_| L1Cache::new(cfg.l1)).collect(),
            l2: SharedL2::try_new(cfg.l2, cfg.num_cores, cfg.partition_policy)?,
            mem: MemoryChannel::new(cfg.memory),
            bus: BusMonitor::new(BUS_WINDOW),
            regulator: BandwidthRegulator::new(cfg.num_cores, transfer * 10),
            l2_latency: cfg.l2.latency(),
            transfer,
            block_shift: cfg.l2.block_size().bytes().trailing_zeros(),
        };
        Ok(Self {
            cores: (0..cfg.num_cores).map(|_| CoreState::new()).collect(),
            tasks: TaskTable::default(),
            finished: BTreeMap::new(),
            floating: VecDeque::new(),
            memory,
            completions: Vec::new(),
            now: Cycles::ZERO,
            cfg,
        })
    }

    /// The node configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulation time (everything before this instant has been
    /// processed).
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Spawns a task; it becomes ready at the current simulation time. A
    /// monitor attached to its id beforehand starts observing it.
    ///
    /// Pinning a core that currently runs a floating task preempts the
    /// floating task back into the shared pool.
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError`] for duplicate ids, bad pin targets or empty
    /// budgets.
    pub fn spawn(&mut self, spec: TaskSpec) -> Result<(), SpawnError> {
        if self.tasks.slot_of(spec.id).is_some() {
            return Err(SpawnError::DuplicateId(spec.id));
        }
        if spec.budget.get() == 0 {
            return Err(SpawnError::EmptyBudget);
        }
        if let Placement::Pinned(core) = spec.placement {
            let Some(state) = self.cores.get(core.as_usize()) else {
                return Err(SpawnError::NoSuchCore(core));
            };
            if state.pinned.is_some() {
                return Err(SpawnError::CoreAlreadyPinned(core));
            }
        }
        let placement = spec.placement;
        let monitor = self.tasks.unpark(spec.id);
        let slot = self.tasks.insert(Task::new(spec, self.now, monitor));
        match placement {
            Placement::Pinned(core) => {
                self.cores[core.as_usize()].pinned = Some(slot);
                self.refresh_core_class(core.as_usize());
            }
            Placement::Floating => self.floating.push_back(slot),
        }
        Ok(())
    }

    /// Re-pins a live task to `core` (the automatic-downgrade switch-back
    /// path: an Opportunistic-running job reverting to Strict). A task
    /// holds at most one pin: re-pinning a pinned task releases its old
    /// core.
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError::NotLive`] if no live task has this id, or
    /// [`SpawnError::NoSuchCore`] / [`SpawnError::CoreAlreadyPinned`] for
    /// bad targets.
    pub fn repin(&mut self, id: JobId, core: CoreId) -> Result<(), SpawnError> {
        let Some(slot) = self.tasks.slot_of(id) else {
            return Err(SpawnError::NotLive(id));
        };
        let Some(state) = self.cores.get(core.as_usize()) else {
            return Err(SpawnError::NoSuchCore(core));
        };
        if state.pinned.is_some() && state.pinned != Some(slot) {
            return Err(SpawnError::CoreAlreadyPinned(core));
        }
        // Remove from the floating pool / its current core / its old pin.
        self.floating.retain(|&s| s != slot);
        for i in 0..self.cores.len() {
            let c = &mut self.cores[i];
            if c.current == Some(slot) {
                c.current = None;
            }
            if c.pinned == Some(slot) && i != core.as_usize() {
                c.pinned = None;
                self.refresh_core_class(i);
            }
        }
        let now = self.now;
        let task = self.tasks.at_mut(slot);
        task.placement = Placement::Pinned(core);
        task.ready_at = task.ready_at.max(now);
        self.cores[core.as_usize()].pinned = Some(slot);
        self.refresh_core_class(core.as_usize());
        Ok(())
    }

    /// Sets a live task's memory priority (Reserved vs Opportunistic).
    /// Unknown ids are ignored.
    pub fn set_reserved(&mut self, id: JobId, reserved: bool) {
        if let Some(task) = self.tasks.get_mut(id) {
            task.priority = if reserved {
                Priority::Reserved
            } else {
                Priority::Opportunistic
            };
        }
        for i in 0..self.cores.len() {
            self.refresh_core_class(i);
        }
    }

    /// Applies a full set of L2 partition targets.
    ///
    /// # Errors
    ///
    /// Propagates [`PartitionError`] from the cache.
    pub fn set_l2_targets(&mut self, targets: &[Ways]) -> Result<(), PartitionError> {
        self.memory.l2.set_targets(targets)
    }

    /// [`CmpNode::set_l2_targets`], additionally emitting
    /// `PartitionChanged` to `recorder` at the node's current time.
    ///
    /// # Errors
    ///
    /// Propagates [`PartitionError`] from the cache (nothing is recorded on
    /// error).
    pub fn set_l2_targets_recorded(
        &mut self,
        targets: &[Ways],
        recorder: &mut dyn cmpqos_obs::Recorder,
    ) -> Result<(), PartitionError> {
        let now = self.now;
        self.memory.l2.set_targets_recorded(targets, now, recorder)
    }

    /// Current L2 partition targets.
    #[must_use]
    pub fn l2_targets(&self) -> &[Ways] {
        self.memory.l2.targets()
    }

    /// Read-only view of the shared L2 (stats, occupancy).
    #[must_use]
    pub fn l2(&self) -> &SharedL2 {
        &self.memory.l2
    }

    /// Attaches a duplicate-tag monitor to a task, modelling
    /// `original_ways` (its allocation before stealing). The task need not
    /// be live yet: a monitor attached before `spawn` observes the task
    /// from its first access.
    pub fn attach_monitor(&mut self, id: JobId, original_ways: Ways) {
        let sets = self.cfg.l2.geometry().sets();
        let monitor = DuplicateTagMonitor::new(original_ways, sets, self.cfg.shadow_sample_every);
        self.tasks.attach(id, monitor);
    }

    /// Detaches and returns a task's monitor. A monitor survives its
    /// task's completion until detached.
    pub fn detach_monitor(&mut self, id: JobId) -> Option<DuplicateTagMonitor> {
        self.tasks.detach(id)
    }

    /// The task's monitor, if attached.
    #[must_use]
    pub fn monitor(&self, id: JobId) -> Option<&DuplicateTagMonitor> {
        self.tasks.monitor(id)
    }

    /// Performance counters of a live or finished task.
    #[must_use]
    pub fn perf(&self, id: JobId) -> Option<&PerfCounters> {
        self.tasks
            .get(id)
            .map(|t| t.ctx.perf())
            .or_else(|| self.finished.get(&id).map(|(p, _)| p))
    }

    /// Remaining instruction budget of a live task.
    #[must_use]
    pub fn remaining(&self, id: JobId) -> Option<u64> {
        self.tasks.get(id).map(|t| t.remaining)
    }

    /// Whether the task is still live (spawned and not completed).
    #[must_use]
    pub fn is_live(&self, id: JobId) -> bool {
        self.tasks.slot_of(id).is_some()
    }

    /// The task currently executing on `core`.
    #[must_use]
    pub fn running_on(&self, core: CoreId) -> Option<JobId> {
        let slot = self.cores.get(core.as_usize())?.current?;
        Some(self.tasks.at(slot).id)
    }

    /// The task pinned to `core`.
    #[must_use]
    pub fn pinned_on(&self, core: CoreId) -> Option<JobId> {
        let slot = self.cores.get(core.as_usize())?.pinned?;
        Some(self.tasks.at(slot).id)
    }

    /// Drains the completion records accumulated since the last call.
    #[must_use = "dropping drained completions loses the jobs' terminal records"]
    pub fn take_completions(&mut self) -> Vec<TaskCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Completion record of a finished task.
    #[must_use]
    pub fn completion(&self, id: JobId) -> Option<TaskCompletion> {
        self.finished.get(&id).map(|(_, c)| *c)
    }

    /// Caps `core`'s off-chip bandwidth to `percent` of peak (100 =
    /// unregulated). Set from a job's reserved bandwidth share so that
    /// admitted bandwidth vectors (`Σ ≤ 100%`) cannot be trampled.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_bandwidth_share(&mut self, core: CoreId, percent: u8) {
        self.memory.regulator.set_share(core.as_usize(), percent);
    }

    /// The configured bandwidth share of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn bandwidth_share(&self, core: CoreId) -> u8 {
        self.memory.regulator.share(core.as_usize())
    }

    /// Sets `core`'s DVFS-style speed (percent of full frequency, clamped
    /// to `[cmpqos_cpu::throttle::MIN_SPEED_PCT, 100]`), returning the
    /// previous speed. Core-domain cycles — compute time and L2-hit stalls
    /// — stretch by `100/percent`; off-chip memory stalls are unaffected
    /// (DRAM does not slow down when a core does).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_core_speed(&mut self, core: CoreId, percent: u8) -> u8 {
        self.cores[core.as_usize()].throttle.set_speed(percent)
    }

    /// The current DVFS-style speed of `core`, in percent.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_speed(&self, core: CoreId) -> u8 {
        self.cores[core.as_usize()].throttle.speed()
    }

    /// Memory-bus utilization over the last completed window.
    #[must_use]
    pub fn bus_utilization(&mut self) -> f64 {
        let now = self.now;
        self.memory.bus.utilization(now)
    }

    /// Runs the node until simulation time `deadline`: every instruction
    /// *starting* before `deadline` is executed.
    ///
    /// The busy core with the earliest `next_free` runs next (lowest index
    /// on ties) and keeps running while its `next_free` is at most every
    /// other busy core's and before `deadline`.
    pub fn run_until(&mut self, deadline: Cycles) {
        self.dispatch();
        while let Some((core, bound)) = self.next_batch(deadline) {
            if self.run_batch(core, bound, deadline) {
                self.dispatch();
            }
        }
        self.now = self.now.max(deadline);
    }

    /// Runs until all live tasks complete or `hard_cap` is reached.
    /// Returns the time the last task finished (or `hard_cap`).
    pub fn run_to_completion(&mut self, hard_cap: Cycles) -> Cycles {
        while !self.tasks.is_empty() && self.now < hard_cap {
            let next = (self.now + Cycles::new(1_000_000)).min(hard_cap);
            self.run_until(next);
        }
        self.finished
            .values()
            .map(|(_, c)| c.finished_at)
            .max()
            .unwrap_or(self.now)
    }

    // ----- scheduling ---------------------------------------------------

    /// Victim class of a core: Reserved iff its pinned occupant holds
    /// reserved resources.
    fn refresh_core_class(&mut self, core: usize) {
        let class = match self.cores[core].pinned {
            Some(slot) if self.tasks.at(slot).priority == Priority::Reserved => {
                VictimClass::Reserved
            }
            _ => VictimClass::Opportunistic,
        };
        self.memory.l2.set_class(CoreId::new(core as u32), class);
    }

    /// Fills idle cores: a core's pinned task, else the next floating one.
    /// Only a completion, a preemption or a call from outside (spawn,
    /// repin) changes what this finds, so the run loop calls it after
    /// those alone.
    fn dispatch(&mut self) {
        for i in 0..self.cores.len() {
            let c = &self.cores[i];
            // Lazy preemption: a floating task on a newly pinned core yields.
            if c.current.is_some() && c.pinned.is_some() && c.current != c.pinned {
                self.preempt(i);
            }
            if self.cores[i].current.is_some() {
                continue;
            }
            // A pinned slot always holds a live task: completion clears
            // the pin.
            let candidate = match self.cores[i].pinned {
                Some(slot) => Some(slot),
                None => self.floating.pop_front(),
            };
            if let Some(slot) = candidate {
                self.assign(i, slot);
            }
        }
    }

    fn assign(&mut self, core: usize, slot: Slot) {
        let task = self.tasks.at_mut(slot);
        let id = task.id;
        let start = self.cores[core].next_free.max(task.ready_at);
        task.started_at.get_or_insert(start);
        let mut begin = start;
        if let Some(outgoing) = self.cores[core].last_task.filter(|&last| last != id) {
            begin += self.cfg.context_switch_cost;
            // Flush traffic feeds the outgoing task's monitor, which
            // outlives the task if it has completed.
            let monitor = self.tasks.monitor_mut(outgoing);
            self.memory.flush_l1(core, monitor, begin);
        }
        let quantum = self.cfg.timeslice.max(Cycles::new(1));
        let c = &mut self.cores[core];
        c.current = Some(slot);
        c.last_task = Some(id);
        c.next_free = begin;
        c.quantum_end = begin + quantum;
    }

    fn preempt(&mut self, core: usize) {
        let Some(slot) = self.cores[core].current.take() else {
            return;
        };
        let task = self.tasks.at_mut(slot);
        task.ready_at = self.cores[core].next_free;
        if task.placement == Placement::Floating {
            self.floating.push_back(slot);
        }
    }

    /// One pass over the cores: the busy core with the earliest `next_free`
    /// (lowest index on ties), if that is before `deadline`, and its batch
    /// bound — the earliest `next_free` of the other busy cores, capped at
    /// `deadline`.
    fn next_batch(&self, deadline: Cycles) -> Option<(usize, Cycles)> {
        let mut first: Option<(usize, Cycles)> = None;
        let mut bound = deadline;
        for (i, c) in self.cores.iter().enumerate() {
            if c.current.is_none() {
                continue;
            }
            match first {
                Some((_, t)) if c.next_free >= t => bound = bound.min(c.next_free),
                _ => {
                    if let Some((_, t)) = first {
                        bound = bound.min(t);
                    }
                    first = Some((i, c.next_free));
                }
            }
        }
        first
            .filter(|&(_, t)| t < deadline)
            .map(|(core, _)| (core, bound))
    }

    /// Runs `core` while its `next_free` is at most `bound` and before
    /// `deadline`, borrowing its task once for the whole batch. Returns
    /// whether the batch ended in a completion or a preemption.
    fn run_batch(&mut self, core: usize, bound: Cycles, deadline: Cycles) -> bool {
        let quantum = self.cfg.timeslice.max(Cycles::new(1));
        let state = &mut self.cores[core];
        let slot = state.current.expect("next_batch picks a busy core");
        let task = self.tasks.at_mut(slot);
        let finished = loop {
            let when = state.next_free;
            if when > bound || when >= deadline {
                return false;
            }
            // Quantum rotation for floating tasks.
            if when >= state.quantum_end {
                if !self.floating.is_empty() {
                    break None;
                }
                state.quantum_end = when + quantum;
            }
            let priority = task.priority;
            let (raw_base, access) = task.ctx.issue();
            // DVFS throttle: compute cycles stretch in the core's clock domain.
            let base = state.throttle.scale(raw_base);
            let cost = match access {
                Some(acc) => {
                    let outcome = self.memory.access(
                        core,
                        &mut state.throttle,
                        task.monitor.as_mut(),
                        acc,
                        when + base,
                        priority,
                    );
                    task.ctx.complete(base, outcome);
                    base + outcome.stall()
                }
                None => {
                    task.ctx.complete_compute(base);
                    base
                }
            };
            task.remaining -= 1;
            state.next_free = when + cost;
            if task.remaining == 0 {
                break Some(when);
            }
        };
        match finished {
            Some(last_start) => self.complete(core, last_start),
            None => self.preempt(core),
        }
        true
    }

    /// Retires the task on `core`, whose last instruction started at
    /// `last_start`.
    fn complete(&mut self, core: usize, last_start: Cycles) {
        let c = &mut self.cores[core];
        let slot = c.current.take().expect("completing a running task");
        let finished_at = c.next_free;
        if c.pinned == Some(slot) {
            c.pinned = None;
        }
        let mut task = self.tasks.remove(slot);
        // The QoS layer detaches the monitor after it sees the completion.
        if let Some(monitor) = task.monitor.take() {
            self.tasks.park(task.id, monitor);
        }
        let record = TaskCompletion {
            id: task.id,
            started_at: task.started_at.unwrap_or(last_start),
            finished_at,
        };
        self.completions.push(record);
        self.finished.insert(task.id, (*task.ctx.perf(), record));
        self.refresh_core_class(core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_trace::spec;
    use cmpqos_types::Instructions;

    fn spec_task(id: u32, bench: &str, budget: u64, placement: Placement) -> TaskSpec {
        let profile = spec::benchmark(bench).expect("known benchmark");
        TaskSpec {
            id: JobId::new(id),
            source: profile.instantiate(100 + u64::from(id), u64::from(id) << 40),
            budget: Instructions::new(budget),
            placement,
            reserved: matches!(placement, Placement::Pinned(_)),
        }
    }

    fn paper_node() -> CmpNode {
        CmpNode::new(SystemConfig::paper())
    }

    #[test]
    fn single_pinned_task_completes_with_sane_ipc() {
        let mut node = paper_node();
        node.set_l2_targets(&[Ways::new(7), Ways::ZERO, Ways::ZERO, Ways::ZERO])
            .unwrap();
        node.spawn(spec_task(
            0,
            "gobmk",
            200_000,
            Placement::Pinned(CoreId::new(0)),
        ))
        .unwrap();
        let end = node.run_to_completion(Cycles::new(100_000_000));
        assert!(end > Cycles::ZERO);
        let done = node.take_completions();
        assert_eq!(done.len(), 1);
        let perf = node.perf(JobId::new(0)).unwrap();
        assert_eq!(perf.instructions().get(), 200_000);
        let ipc = perf.ipc();
        assert!(ipc > 0.1 && ipc < 1.0, "gobmk IPC {ipc}");
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let mut cfg = SystemConfig::paper();
        cfg.num_cores = 0;
        assert_eq!(
            CmpNode::try_new(cfg).err(),
            Some(SystemConfigError::BadCoreCount)
        );
        assert!(CmpNode::try_new(SystemConfig::paper()).is_ok());
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut node = paper_node();
        node.spawn(spec_task(1, "gobmk", 10, Placement::Floating))
            .unwrap();
        let err = node.spawn(spec_task(1, "gobmk", 10, Placement::Floating));
        assert_eq!(err.unwrap_err(), SpawnError::DuplicateId(JobId::new(1)));
    }

    #[test]
    fn pinning_an_occupied_core_rejected() {
        let mut node = paper_node();
        node.spawn(spec_task(0, "gobmk", 10, Placement::Pinned(CoreId::new(2))))
            .unwrap();
        let err = node.spawn(spec_task(1, "gobmk", 10, Placement::Pinned(CoreId::new(2))));
        assert_eq!(
            err.unwrap_err(),
            SpawnError::CoreAlreadyPinned(CoreId::new(2))
        );
    }

    #[test]
    fn floating_tasks_timeshare_one_free_core() {
        let mut node = paper_node();
        // Pin cores 0..3, leaving core 3 free.
        for i in 0..3u32 {
            node.spawn(spec_task(
                i,
                "gobmk",
                300_000,
                Placement::Pinned(CoreId::new(i)),
            ))
            .unwrap();
        }
        node.spawn(spec_task(10, "gobmk", 50_000, Placement::Floating))
            .unwrap();
        node.spawn(spec_task(11, "gobmk", 50_000, Placement::Floating))
            .unwrap();
        node.run_until(Cycles::new(3_000_000));
        // Both floating tasks must have made progress (round-robin), and
        // only on core 3.
        let p10 = node.perf(JobId::new(10)).unwrap().instructions().get();
        let p11 = node.perf(JobId::new(11)).unwrap().instructions().get();
        assert!(p10 > 0 && p11 > 0, "both made progress: {p10} {p11}");
    }

    #[test]
    fn pinned_preempts_floating_on_its_core() {
        let mut node = paper_node();
        node.spawn(spec_task(5, "gobmk", 10_000_000, Placement::Floating))
            .unwrap();
        node.run_until(Cycles::new(100_000));
        // The floating task is running somewhere (core 0, first free).
        assert_eq!(node.running_on(CoreId::new(0)), Some(JobId::new(5)));
        // Pin a reserved task everywhere.
        for i in 0..4u32 {
            node.spawn(spec_task(
                i,
                "gobmk",
                100_000,
                Placement::Pinned(CoreId::new(i)),
            ))
            .unwrap();
        }
        node.run_until(Cycles::new(200_000));
        for i in 0..4u32 {
            assert_eq!(node.running_on(CoreId::new(i)), Some(JobId::new(i)));
        }
        // The floating task waits (no eligible core), still live.
        assert!(node.is_live(JobId::new(5)));
    }

    #[test]
    fn completions_record_start_and_finish() {
        let mut node = paper_node();
        node.spawn(spec_task(
            0,
            "namd",
            10_000,
            Placement::Pinned(CoreId::new(0)),
        ))
        .unwrap();
        node.run_to_completion(Cycles::new(10_000_000));
        let c = node.completion(JobId::new(0)).unwrap();
        assert_eq!(c.started_at, Cycles::ZERO);
        assert!(c.finished_at > c.started_at);
        assert!(!node.is_live(JobId::new(0)));
        // The core's pin is released on completion.
        assert_eq!(node.pinned_on(CoreId::new(0)), None);
    }

    #[test]
    fn monitors_observe_the_tasks_accesses() {
        let mut node = paper_node();
        node.set_l2_targets(&[Ways::new(7), Ways::ZERO, Ways::ZERO, Ways::ZERO])
            .unwrap();
        node.spawn(spec_task(
            0,
            "bzip2",
            100_000,
            Placement::Pinned(CoreId::new(0)),
        ))
        .unwrap();
        node.attach_monitor(JobId::new(0), Ways::new(7));
        node.run_to_completion(Cycles::new(100_000_000));
        let mon = node.monitor(JobId::new(0)).unwrap();
        assert!(mon.sampled_accesses() > 0, "monitor saw traffic");
        // At an unchanged allocation the main tags track the shadow tags.
        assert!(!mon.exceeded(cmpqos_types::Percent::new(50.0)));
    }

    #[test]
    fn later_spawn_starts_later() {
        let mut node = paper_node();
        node.run_until(Cycles::new(500_000));
        node.spawn(spec_task(
            0,
            "namd",
            1_000,
            Placement::Pinned(CoreId::new(1)),
        ))
        .unwrap();
        node.run_to_completion(Cycles::new(10_000_000));
        let c = node.completion(JobId::new(0)).unwrap();
        assert!(c.started_at >= Cycles::new(500_000));
    }

    #[test]
    fn repin_moves_a_floating_task() {
        let mut node = paper_node();
        node.spawn(spec_task(0, "gobmk", 1_000_000, Placement::Floating))
            .unwrap();
        node.run_until(Cycles::new(10_000));
        node.repin(JobId::new(0), CoreId::new(3)).unwrap();
        node.run_until(Cycles::new(50_000));
        assert_eq!(node.running_on(CoreId::new(3)), Some(JobId::new(0)));
        assert_eq!(node.pinned_on(CoreId::new(3)), Some(JobId::new(0)));
    }

    #[test]
    fn repin_of_a_task_that_is_not_live_reports_not_live() {
        let mut node = paper_node();
        let never = node.repin(JobId::new(9), CoreId::new(0));
        assert_eq!(never.unwrap_err(), SpawnError::NotLive(JobId::new(9)));
        node.spawn(spec_task(1, "namd", 1_000, Placement::Floating))
            .unwrap();
        node.run_to_completion(Cycles::new(10_000_000));
        let done = node.repin(JobId::new(1), CoreId::new(0)).unwrap_err();
        assert_eq!(done, SpawnError::NotLive(JobId::new(1)));
        assert!(done.to_string().contains("not live"), "{done}");
    }

    #[test]
    fn repinning_a_pinned_task_releases_its_old_core() {
        let mut node = paper_node();
        node.spawn(spec_task(
            0,
            "gobmk",
            1_000_000,
            Placement::Pinned(CoreId::new(1)),
        ))
        .unwrap();
        node.run_until(Cycles::new(10_000));
        node.repin(JobId::new(0), CoreId::new(2)).unwrap();
        assert_eq!(node.pinned_on(CoreId::new(1)), None);
        node.run_until(Cycles::new(50_000));
        assert_eq!(node.running_on(CoreId::new(1)), None);
        assert_eq!(node.running_on(CoreId::new(2)), Some(JobId::new(0)));
    }

    #[test]
    fn zero_budget_rejected() {
        let mut node = paper_node();
        let err = node.spawn(spec_task(0, "gobmk", 0, Placement::Floating));
        assert_eq!(err.unwrap_err(), SpawnError::EmptyBudget);
    }

    #[test]
    fn parallel_pinned_tasks_progress_concurrently() {
        let mut node = paper_node();
        node.set_l2_targets(&[Ways::new(4); 4]).unwrap();
        for i in 0..4u32 {
            node.spawn(spec_task(
                i,
                "gobmk",
                100_000,
                Placement::Pinned(CoreId::new(i)),
            ))
            .unwrap();
        }
        node.run_until(Cycles::new(1_000_000));
        for i in 0..4u32 {
            let done = node.perf(JobId::new(i)).unwrap().instructions().get();
            assert!(done > 10_000, "core {i} executed {done}");
        }
    }

    /// Runs a scaled-down bzip2 alone with `ways` of L2 and returns its CPI.
    fn scaled_bzip2_cpi(ways: u16, budget: u64) -> f64 {
        const K: u64 = 16;
        let mut node = CmpNode::new(SystemConfig::paper_scaled(K));
        node.set_l2_targets(&[Ways::new(ways), Ways::ZERO, Ways::ZERO, Ways::ZERO])
            .unwrap();
        let profile = spec::scaled("bzip2", K).unwrap();
        node.spawn(TaskSpec {
            id: JobId::new(0),
            source: profile.instantiate(42, 0),
            budget: Instructions::new(budget),
            placement: Placement::Pinned(CoreId::new(0)),
            reserved: true,
        })
        .unwrap();
        node.run_to_completion(Cycles::new(10_000_000_000));
        node.perf(JobId::new(0)).unwrap().cpi()
    }

    #[test]
    fn more_cache_means_faster_for_sensitive_benchmark() {
        let slow_cpi = scaled_bzip2_cpi(2, 400_000);
        let fast_cpi = scaled_bzip2_cpi(14, 400_000);
        assert!(
            slow_cpi > fast_cpi * 1.15,
            "bzip2 CPI should react to capacity: {slow_cpi:.2} vs {fast_cpi:.2}"
        );
    }

    /// Runs a scaled gobmk pinned to core 0 at the given speed; returns CPI.
    fn throttled_gobmk_cpi(speed: u8) -> f64 {
        const K: u64 = 16;
        let mut node = CmpNode::new(SystemConfig::paper_scaled(K));
        assert_eq!(node.core_speed(CoreId::new(0)), 100);
        let old = node.set_core_speed(CoreId::new(0), speed);
        assert_eq!(old, 100);
        let profile = spec::scaled("gobmk", K).unwrap();
        node.spawn(TaskSpec {
            id: JobId::new(0),
            source: profile.instantiate(42, 0),
            budget: Instructions::new(100_000),
            placement: Placement::Pinned(CoreId::new(0)),
            reserved: true,
        })
        .unwrap();
        node.run_to_completion(Cycles::new(10_000_000_000));
        node.perf(JobId::new(0)).unwrap().cpi()
    }

    #[test]
    fn throttled_core_runs_proportionally_slower() {
        let full = throttled_gobmk_cpi(100);
        let half = throttled_gobmk_cpi(50);
        // Core-domain cycles double; memory-miss stalls don't scale, so
        // CPI grows markedly but stays well under 2x.
        assert!(
            half > full * 1.3 && half < full * 2.05,
            "half-speed CPI {half:.2} vs full {full:.2}"
        );
    }
}
