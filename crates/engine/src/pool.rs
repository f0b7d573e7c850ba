//! The bounded worker pool.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// A deterministic parallel executor over independent cells.
///
/// `Engine` owns nothing but its width. Every [`Engine::run`] call hands
/// the cells out one at a time, in cell order, to `min(jobs, cells)`
/// scoped workers (the caller's thread alone when that is 1) and orders
/// the outcomes by cell index, so callers cannot observe scheduling at
/// all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    jobs: usize,
}

impl Engine {
    /// An engine running up to `jobs` cells concurrently (`jobs` is
    /// clamped to at least 1; `1` is exactly serial execution).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Runs `f` over every cell and returns the outputs **in cell
    /// order**: `result[i]` is `f(i, inputs[i])`. A panicking cell is
    /// caught ([`std::panic::catch_unwind`]) and every other cell still
    /// runs to completion.
    ///
    /// # Panics
    ///
    /// Once every cell has run, if any panicked:
    /// `"N of M cells failed: cell i panicked: <message>; …"`, the cells
    /// in index order.
    pub fn run<I, T, F>(&self, inputs: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = inputs.len();
        let cells = Mutex::new(inputs.into_iter().enumerate());
        let work = || {
            let mut done = Vec::new();
            loop {
                // The guard drops with this statement: a cell runs, and
                // may panic, without holding the lock.
                let next = cells.lock().expect("no cell runs under the lock").next();
                let Some((index, input)) = next else {
                    return done;
                };
                done.push((index, catch_unwind(AssertUnwindSafe(|| f(index, input)))));
            }
        };
        let workers = self.jobs.min(n);
        let mut done = if workers <= 1 {
            work()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("a worker catches its cells' panics"))
                    .collect()
            })
        };

        done.sort_unstable_by_key(|&(index, _)| index);
        let mut outputs = Vec::with_capacity(n);
        let mut failures = Vec::new();
        for (index, outcome) in done {
            match outcome {
                Ok(output) => outputs.push(output),
                Err(payload) => {
                    failures.push(format!(
                        "cell {index} panicked: {}",
                        panic_message(&*payload)
                    ));
                }
            }
        }
        assert!(
            failures.is_empty(),
            "{} of {n} cells failed: {}",
            failures.len(),
            failures.join("; ")
        );
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_cell_order() {
        let engine = Engine::new(4);
        // Uneven work so completion order differs from cell order.
        let out = engine.run((0..32u64).collect(), |i, n| {
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            n * 10
        });
        assert_eq!(out, (0..32u64).map(|n| n * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize, n: u64| n.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let inputs: Vec<u64> = (0..57).map(|i| i * 31 % 13).collect();
        let serial = Engine::new(1).run(inputs.clone(), f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(
                Engine::new(jobs).run(inputs.clone(), f),
                serial,
                "jobs={jobs}"
            );
        }
    }

    /// More cells panic than there are workers: a worker that stopped
    /// taking cells after its first panic would leave cells unrun.
    #[test]
    fn workers_keep_taking_cells_after_a_panic() {
        let ran = AtomicUsize::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            Engine::new(2).run((0..10u32).collect(), |_, n| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(n % 4 != 1, "cell {n} exploded");
                n
            })
        }))
        .expect_err("three cells panicked");
        assert_eq!(
            panic_message(&*payload),
            "3 of 10 cells failed: cell 1 panicked: cell 1 exploded; \
             cell 5 panicked: cell 5 exploded; cell 9 panicked: cell 9 exploded"
        );
        assert_eq!(ran.into_inner(), 10);
    }

    #[test]
    #[should_panic(expected = "1 of 3 cells failed: cell 1 panicked: boom")]
    fn run_reraises_failures_after_completion() {
        Engine::new(2).run(vec![1u32, 2, 3], |_, n| {
            assert!(n != 2, "boom");
            n
        });
    }

    #[test]
    fn zero_and_empty_edges() {
        assert_eq!(Engine::new(0).run(vec![7u8], |i, x| (i, x)), [(0, 7)]);
        let out: Vec<u8> = Engine::new(8).run(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }
}
