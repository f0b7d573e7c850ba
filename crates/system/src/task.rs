//! Tasks: the schedulable unit the node executes.

use cmpqos_cache::DuplicateTagMonitor;
use cmpqos_cpu::ExecutionContext;
use cmpqos_mem::Priority;
use cmpqos_trace::SyntheticTrace;
use cmpqos_types::{CoreId, Cycles, Instructions, JobId};
use std::fmt;

/// Where a task runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Exclusive use of one core (Strict / Elastic jobs: the LAC pins one
    /// such job per core).
    Pinned(CoreId),
    /// Timeshared round-robin across cores that have no pinned occupant
    /// (Opportunistic jobs; all jobs under `EqualPart`).
    Floating,
}

/// Specification for spawning a task onto a [`crate::CmpNode`].
#[derive(Debug)]
pub struct TaskSpec {
    /// The task's identifier (must be unique among live tasks).
    pub id: JobId,
    /// Its instruction stream.
    pub source: SyntheticTrace,
    /// Instructions to retire before the task completes.
    pub budget: Instructions,
    /// Pinned or floating.
    pub placement: Placement,
    /// Whether the task's resources are reserved (Strict/Elastic): reserved
    /// tasks get `Reserved` victim class and prioritized memory requests.
    pub reserved: bool,
}

/// A completed task's record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskCompletion {
    /// The task.
    pub id: JobId,
    /// When it first started executing.
    pub started_at: Cycles,
    /// When its last instruction retired.
    pub finished_at: Cycles,
}

/// Error spawning a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnError {
    /// A live task already uses this id.
    DuplicateId(JobId),
    /// The pin target does not exist.
    NoSuchCore(CoreId),
    /// The pin target already has a pinned task.
    CoreAlreadyPinned(CoreId),
    /// The instruction budget was zero.
    EmptyBudget,
    /// No live task has this id (never spawned, or already completed).
    NotLive(JobId),
}

impl fmt::Display for SpawnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpawnError::DuplicateId(id) => write!(f, "task id {id} is already live"),
            SpawnError::NoSuchCore(c) => write!(f, "{c} does not exist"),
            SpawnError::CoreAlreadyPinned(c) => write!(f, "{c} already has a pinned task"),
            SpawnError::EmptyBudget => f.write_str("instruction budget must be positive"),
            SpawnError::NotLive(id) => write!(f, "task id {id} is not live"),
        }
    }
}

impl std::error::Error for SpawnError {}

/// Internal live-task state.
#[derive(Debug)]
pub(crate) struct Task {
    pub(crate) id: JobId,
    pub(crate) ctx: ExecutionContext,
    pub(crate) remaining: u64,
    pub(crate) placement: Placement,
    pub(crate) priority: Priority,
    pub(crate) ready_at: Cycles,
    pub(crate) started_at: Option<Cycles>,
    /// The task's duplicate-tag monitor, fed by its L2 traffic.
    pub(crate) monitor: Option<DuplicateTagMonitor>,
}

impl Task {
    pub(crate) fn new(spec: TaskSpec, now: Cycles, monitor: Option<DuplicateTagMonitor>) -> Self {
        Self {
            id: spec.id,
            ctx: ExecutionContext::new(spec.source),
            remaining: spec.budget.get(),
            placement: spec.placement,
            priority: if spec.reserved {
                Priority::Reserved
            } else {
                Priority::Opportunistic
            },
            ready_at: now,
            started_at: None,
            monitor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_error_messages() {
        assert!(SpawnError::DuplicateId(JobId::new(3))
            .to_string()
            .contains("job3"));
        assert!(SpawnError::CoreAlreadyPinned(CoreId::new(1))
            .to_string()
            .contains("core1"));
        assert!(SpawnError::EmptyBudget.to_string().contains("positive"));
        let not_live = SpawnError::NotLive(JobId::new(4)).to_string();
        assert!(not_live.contains("job4") && not_live.contains("not live"));
    }

    #[test]
    fn placement_equality() {
        assert_eq!(
            Placement::Pinned(CoreId::new(0)),
            Placement::Pinned(CoreId::new(0))
        );
        assert_ne!(Placement::Pinned(CoreId::new(0)), Placement::Floating);
    }
}
