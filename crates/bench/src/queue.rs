//! A fixed-size thread pool over one FIFO queue. Every idle worker
//! takes the oldest queued task, so one sweep's 28 jobs spread across
//! all workers instead of serializing behind one. Jobs run for
//! milliseconds to seconds, so the single mutex-guarded queue is never
//! the bottleneck.
//!
//! Panic containment: a panicking task is caught (the pool's threads
//! must survive arbitrary job code) and the pool moves on — the
//! simulation layer already wraps jobs in
//! [`crate::runner::run_job_isolated`], so a panic reaching the pool is
//! a bug, but it must not wedge [`WorkPool::drain`].
//!
//! Dropping the pool finishes the queued work, then joins every worker.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    /// Submitted tasks, oldest first.
    queue: VecDeque<Task>,
    /// Queued + currently-running task count.
    pending: usize,
    /// No new submissions; workers exit once the queue empties.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals workers: work available or shutdown.
    work: Condvar,
    /// Signals waiters in [`WorkPool::drain`]: `pending` hit zero.
    idle: Condvar,
}

/// A fixed-size FIFO thread pool for `FnOnce` tasks.
pub struct WorkPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkPool {
    /// Spawns a pool of `workers` threads (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// The OS error if a worker thread cannot be spawned.
    pub fn try_new(workers: usize) -> Result<Self, std::io::Error> {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState { queue: VecDeque::new(), pending: 0, shutdown: false }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        // Built before spawning, so a failed spawn drops (and joins)
        // the workers already started.
        let mut pool = Self { shared, handles: Vec::with_capacity(workers) };
        for id in 0..workers {
            let shared = pool.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("secmem-pool-{id}"))
                .spawn(move || worker_loop(&shared))?;
            pool.handles.push(handle);
        }
        Ok(pool)
    }

    /// Queues a task; returns `false` (dropping the task) once the pool
    /// is shutting down.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, task: F) -> bool {
        let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.shutdown {
            return false;
        }
        state.queue.push_back(Box::new(task));
        state.pending += 1;
        drop(state);
        self.shared.work.notify_one();
        true
    }

    /// Queued plus currently-running task count.
    pub fn pending(&self) -> usize {
        self.shared.state.lock().unwrap_or_else(PoisonError::into_inner).pending
    }

    /// Blocks until every queued task has finished.
    pub fn drain(&self) {
        let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        while state.pending > 0 {
            state = self.shared.idle.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for WorkPool {
    /// Rejects new submissions, finishes the queued work, then joins
    /// every worker.
    fn drop(&mut self) {
        self.shared.state.lock().unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            // Tasks run under `catch_unwind`, so a worker cannot die
            // with a panic worth propagating.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(task) = state.queue.pop_front() {
                    break Some(task);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.work.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(task) = task else {
            return;
        };
        // A panicking task is a bug in the caller; the worker survives it.
        let _ = catch_unwind(AssertUnwindSafe(task));
        let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.pending -= 1;
        let now_idle = state.pending == 0;
        drop(state);
        if now_idle {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_submitted_task() {
        let pool = WorkPool::try_new(4).expect("spawn workers");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = counter.clone();
            assert!(pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn idle_workers_drain_a_burst_behind_slow_tasks() {
        // A burst interleaving slow and fast tasks: every task runs
        // exactly once and drain waits for the slow ones.
        let pool = WorkPool::try_new(4).expect("spawn workers");
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..16 {
            let counter = counter.clone();
            pool.submit(move || {
                if i % 4 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn panicking_tasks_are_contained() {
        let pool = WorkPool::try_new(2).expect("spawn workers");
        let counter = Arc::new(AtomicUsize::new(0));
        pool.submit(|| panic!("task bug"));
        for _ in 0..10 {
            let counter = counter.clone();
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::SeqCst), 10, "pool survives a panicking task");
    }

    #[test]
    fn shutdown_finishes_queued_work_and_rejects_new() {
        let pool = WorkPool::try_new(2).expect("spawn workers");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let counter = counter.clone();
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 20, "queued work completes before shutdown");
        let pool = WorkPool::try_new(1).expect("spawn workers");
        let pending = {
            let mut state = pool.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
            state.pending
        };
        assert_eq!(pending, 0);
        assert!(!pool.submit(|| ()), "submissions after shutdown are rejected");
    }
}
