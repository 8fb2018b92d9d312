//! A std-only worker pool for the store's batch APIs: scoped threads
//! claiming job indices from one shared cursor.
//!
//! No registry crates are on the offline dependency list (no `rayon`,
//! no `crossbeam`), so this is the minimal deterministic-output
//! substitute: a batch call enumerates its jobs, the pool spawns up to
//! `threads` scoped workers, and each worker claims the next job index
//! from one atomic cursor until every index is taken. Results are returned **in job
//! order** regardless of which worker ran which job, so callers get
//! input-order output for free and parallel runs are bit-identical to
//! sequential ones for pure jobs.
//!
//! Sizing: [`WorkerPool::sized`]`(0)` is
//! `std::thread::available_parallelism`. A pool of one thread runs
//! jobs inline on the caller — no spawn, no cursor.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-width worker pool. Cheap to construct (threads are spawned
/// per [`run`](WorkerPool::run) call, scoped to it, and joined before
/// it returns — nothing outlives the borrowed data the jobs capture).
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// A pool of `requested` workers, where `0` means "auto": the
    /// machine's available parallelism.
    pub fn sized(requested: usize) -> Self {
        if requested > 0 {
            return WorkerPool::new(requested);
        }
        WorkerPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `jobs` closure invocations (`job(0) .. job(jobs - 1)`)
    /// across the pool and returns their results in job order.
    ///
    /// With one worker (or one job) everything runs inline on the
    /// calling thread. A panicking job propagates the panic to the
    /// caller after the remaining workers drain.
    pub fn run<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if jobs == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(jobs);
        if workers <= 1 {
            return (0..jobs).map(job).collect();
        }
        // Each claim records the jobs still unclaimed into the
        // `objectstore.pool.queue_depth` histogram, so an operator can
        // see whether batches arrive queue-bound (deep) or worker-bound
        // (shallow). Relaxed is enough: the cursor publishes no data,
        // results come back through `join`.
        let cursor = AtomicUsize::new(0);
        let claim = || {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            (i < jobs).then(|| {
                let unclaimed = (jobs - 1 - i) as u64;
                hpm_obs::histogram!(crate::metrics::POOL_QUEUE_DEPTH).record(unclaimed);
                i
            })
        };
        let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let claim = &claim;
                    let job = &job;
                    s.spawn(move || {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        while let Some(i) = claim() {
                            local.push((i, job(i)));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                for (i, v) in h.join().expect("pool worker panicked") {
                    slots[i] = Some(v);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every job index was dispatched exactly once"))
            .collect()
    }
}

impl Default for WorkerPool {
    /// The auto-sized pool (available parallelism).
    fn default() -> Self {
        WorkerPool::sized(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_arrive_in_job_order() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let out = pool.run(23, |i| i * 3);
            assert_eq!(out, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_and_zero_threads() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
        let out: Vec<usize> = WorkerPool::new(4).run(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let pool = WorkerPool::new(4);
        let out = pool.run(100, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn explicit_size_wins_over_auto() {
        assert_eq!(WorkerPool::sized(3).threads(), 3);
        assert!(WorkerPool::sized(0).threads() >= 1);
        assert!(WorkerPool::default().threads() >= 1);
    }

    #[test]
    fn parallel_matches_sequential_for_pure_jobs() {
        let seq = WorkerPool::new(1).run(64, |i| (i as u64).wrapping_mul(0x9E3779B9));
        let par = WorkerPool::new(8).run(64, |i| (i as u64).wrapping_mul(0x9E3779B9));
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn job_panic_propagates() {
        WorkerPool::new(2).run(8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
