//! A persistent, bounded, batching worker pool for solver services.
//!
//! Every simulator run executes on the thread that calls
//! [`crate::Simulator::run`]; this module parallelises across runs: a
//! pool that outlives any single run and shards *independent jobs*
//! (whole solve requests) across long-lived threads. `eds-serve`
//! multiplexes every client connection
//! onto one such pool, so thread spawn cost is paid once per process, not
//! once per request.
//!
//! Design points, all load-bearing for a long-lived daemon:
//!
//! * **Bounded queue with blocking submission.** [`WorkerPool::submit`]
//!   blocks once `capacity` jobs are queued — backpressure propagates to
//!   the callers (network readers) instead of growing an unbounded
//!   buffer. [`WorkerPool::try_submit`] is the non-blocking variant for
//!   callers that prefer to shed load.
//! * **Batch hand-off.** A worker that wakes up drains up to
//!   `batch_limit` queued jobs in one lock acquisition and passes them to
//!   the handler *together*. The handler can then amortise shared setup
//!   across the batch — `eds-serve` uses this to run several small
//!   instances through one shared `Session` sweep
//!   instead of one session per request.
//! * **Panic containment.** A handler panic is caught
//!   ([`std::panic::catch_unwind`]), counted, and the worker keeps
//!   serving. One poisoned request must never take down the daemon or
//!   starve the pool. The panic payload is dropped; the handler is
//!   responsible for emitting per-job error responses *before* doing
//!   anything that might panic, or for never panicking (the serve layer
//!   does both).
//! * **Graceful drain.** [`WorkerPool::drain`] blocks until the queue is
//!   empty *and* every worker is idle — the shutdown path runs it before
//!   flushing sinks so no in-flight solve is dropped. [`WorkerPool::shutdown`]
//!   closes the queue (subsequent submits fail fast), lets workers finish
//!   everything already queued, and joins them.
//!
//! The pool is deliberately generic over the job type rather than taking
//! boxed closures: batching only makes sense when the handler can see the
//! jobs as data and group them.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Error returned by [`WorkerPool::try_submit`].
#[derive(Debug)]
pub enum SubmitError<J> {
    /// The queue is at capacity; the job is handed back to the caller.
    Full(J),
    /// The pool has been shut down; the job is handed back to the caller.
    Closed(J),
}

impl<J> std::fmt::Display for SubmitError<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(_) => write!(f, "worker pool queue is full"),
            SubmitError::Closed(_) => write!(f, "worker pool is shut down"),
        }
    }
}

struct PoolState<J> {
    queue: VecDeque<J>,
    busy: usize,
    closed: bool,
}

struct PoolShared<J> {
    state: Mutex<PoolState<J>>,
    /// Workers wait here for jobs (or for closure).
    jobs: Condvar,
    /// Blocked submitters wait here for queue space.
    space: Condvar,
    /// `drain()` waits here for quiescence.
    idle: Condvar,
    capacity: usize,
    batch_limit: usize,
    panics: AtomicUsize,
}

/// A persistent pool of worker threads consuming batches of typed jobs.
///
/// Created once, reused across arbitrarily many submissions; see the
/// module docs for the design contract.
pub struct WorkerPool<J: Send + 'static> {
    shared: Arc<PoolShared<J>>,
    workers: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawn `threads` workers running `handler` over job batches.
    ///
    /// `capacity` bounds the queue (submissions beyond it block);
    /// `batch_limit` bounds how many queued jobs one worker hands to the
    /// handler at a time. Both are clamped to at least 1.
    pub fn new<F>(threads: usize, capacity: usize, batch_limit: usize, handler: F) -> Self
    where
        F: Fn(Vec<J>) + Send + Sync + 'static,
    {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                busy: 0,
                closed: false,
            }),
            jobs: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
            capacity: capacity.max(1),
            batch_limit: batch_limit.max(1),
            panics: AtomicUsize::new(0),
        });
        let handler = Arc::new(handler);
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("eds-pool-{i}"))
                    .spawn(move || worker_loop(&shared, &*handler))
                    .expect("spawning a pool worker thread failed")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Queue a job, blocking while the queue is at capacity.
    ///
    /// Returns the job back in `Err` if the pool has been shut down.
    pub fn submit(&self, job: J) -> Result<(), SubmitError<J>> {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        loop {
            if state.closed {
                return Err(SubmitError::Closed(job));
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(job);
                self.shared.jobs.notify_one();
                return Ok(());
            }
            state = self.shared.space.wait(state).expect("pool lock poisoned");
        }
    }

    /// Queue a job without blocking; sheds load when the queue is full.
    pub fn try_submit(&self, job: J) -> Result<(), SubmitError<J>> {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        if state.closed {
            return Err(SubmitError::Closed(job));
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(SubmitError::Full(job));
        }
        state.queue.push_back(job);
        self.shared.jobs.notify_one();
        Ok(())
    }

    /// Number of jobs queued but not yet claimed by a worker.
    pub fn pending(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool lock poisoned")
            .queue
            .len()
    }

    /// Number of handler panics caught since the pool started.
    pub fn panics(&self) -> usize {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Block until the queue is empty and every worker is idle.
    ///
    /// Jobs submitted concurrently with `drain` may extend the wait; the
    /// daemon's shutdown path stops accepting work first.
    pub fn drain(&self) {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        while !state.queue.is_empty() || state.busy > 0 {
            state = self.shared.idle.wait(state).expect("pool lock poisoned");
        }
    }

    /// Close the queue, finish all queued jobs, and join the workers.
    ///
    /// Submissions racing with shutdown fail with
    /// [`SubmitError::Closed`] and get their job handed back, so the
    /// caller can emit a structured rejection instead of losing it.
    pub fn shutdown(mut self) {
        self.close();
        for worker in self.workers.drain(..) {
            // A worker that panicked outside the contained handler call
            // (impossible in safe operation) is not worth propagating
            // during shutdown.
            let _ = worker.join();
        }
    }

    fn close(&self) {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        state.closed = true;
        drop(state);
        self.shared.jobs.notify_all();
        self.shared.space.notify_all();
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        self.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop<J: Send + 'static>(
    shared: &PoolShared<J>,
    handler: &(dyn Fn(Vec<J>) + Send + Sync),
) {
    loop {
        let batch = {
            let mut state = shared.state.lock().expect("pool lock poisoned");
            loop {
                if !state.queue.is_empty() {
                    break;
                }
                if state.closed {
                    return;
                }
                state = shared.jobs.wait(state).expect("pool lock poisoned");
            }
            let take = state.queue.len().min(shared.batch_limit);
            let batch: Vec<J> = state.queue.drain(..take).collect();
            state.busy += 1;
            // More jobs may remain; wake a sibling and any blocked
            // submitter now that the queue has room.
            if !state.queue.is_empty() {
                shared.jobs.notify_one();
            }
            drop(state);
            shared.space.notify_all();
            batch
        };
        // AssertUnwindSafe: the handler owns the batch; shared state the
        // closure captures is all behind locks/atomics that re-establish
        // their invariants (no lock is held across this call).
        if catch_unwind(AssertUnwindSafe(|| handler(batch))).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
        let mut state = shared.state.lock().expect("pool lock poisoned");
        state.busy -= 1;
        if state.queue.is_empty() && state.busy == 0 {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex as StdMutex;
    use std::time::Duration;

    #[test]
    fn processes_every_job_across_batches() {
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let pool = WorkerPool::new(2, 64, 4, move |batch: Vec<usize>| {
            sink.lock().unwrap().extend(batch);
        });
        for i in 0..100 {
            pool.submit(i).unwrap();
        }
        pool.drain();
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn batches_are_bounded_by_batch_limit() {
        let max_batch = Arc::new(AtomicUsize::new(0));
        let probe = Arc::clone(&max_batch);
        let pool = WorkerPool::new(1, 64, 3, move |batch: Vec<u32>| {
            probe.fetch_max(batch.len(), Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(1));
        });
        for i in 0..30 {
            pool.submit(i).unwrap();
        }
        pool.drain();
        let seen = max_batch.load(Ordering::Relaxed);
        assert!((1..=3).contains(&seen), "batch size {seen} out of range");
        pool.shutdown();
    }

    #[test]
    fn try_submit_sheds_load_at_capacity() {
        let gate = Arc::new(AtomicBool::new(false));
        let release = Arc::clone(&gate);
        let pool = WorkerPool::new(1, 2, 1, move |_batch: Vec<u8>| {
            while !release.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // One job occupies the worker; the queue then fills to capacity.
        pool.submit(0).unwrap();
        while pool.pending() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.submit(1).unwrap();
        pool.submit(2).unwrap();
        match pool.try_submit(3) {
            Err(SubmitError::Full(job)) => assert_eq!(job, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        gate.store(true, Ordering::Relaxed);
        pool.drain();
        pool.shutdown();
    }

    #[test]
    fn panicking_handler_is_contained_and_pool_survives() {
        let done = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&done);
        let pool = WorkerPool::new(1, 16, 1, move |batch: Vec<i32>| {
            if batch[0] < 0 {
                panic!("poisoned job");
            }
            counter.fetch_add(1, Ordering::Relaxed);
        });
        pool.submit(-1).unwrap();
        pool.submit(1).unwrap();
        pool.submit(2).unwrap();
        pool.drain();
        assert_eq!(pool.panics(), 1);
        assert_eq!(done.load(Ordering::Relaxed), 2);
        pool.shutdown();
    }

    #[test]
    fn shutdown_finishes_queued_jobs_and_rejects_new_ones() {
        let done = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&done);
        let pool = WorkerPool::new(2, 64, 8, move |batch: Vec<u64>| {
            counter.fetch_add(batch.len(), Ordering::Relaxed);
        });
        for i in 0..40 {
            pool.submit(i).unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 40);

        let pool = WorkerPool::new(1, 4, 1, |_batch: Vec<u64>| {});
        pool.close();
        match pool.submit(7) {
            Err(SubmitError::Closed(job)) => assert_eq!(job, 7),
            other => panic!("expected Closed, got {other:?}"),
        }
    }
}
