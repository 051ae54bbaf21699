//! The std-only work-stealing thread pool.
//!
//! No third-party dependencies: per-worker `Mutex<VecDeque>` deques on
//! `std::thread::scope` scoped threads. Jobs are distributed round-robin;
//! a worker drains its own deque from the front and, when empty, steals
//! from the *back* of its neighbours' deques. Results are indexed by
//! submission order, so the output is identical regardless of worker
//! count or steal interleaving — the property the engine's determinism
//! test pins.
//!
//! Two consumers share it:
//!
//! * `esched-engine` fans whole schedule requests across it, and
//! * the allocator ([`crate::allocate`]) fans heavy subinterval ranges of
//!   *one* instance across it ([`Pool::batch_map_with`] with the
//!   allocator's scratch arena as the worker context).
//!
//! Worker-local state is generic: [`Pool::batch_map_with`] threads a
//! per-worker context built by a caller-supplied factory through every
//! job. Metric names keep the historical `esched.engine.*` prefix —
//! dashboards and the obs smoke tests predate the moves.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use esched_obs::{metric_counter, metric_gauge, metric_histogram};

/// A batch executor with a fixed worker count.
///
/// The pool is stateless between batches (workers and their contexts live
/// only for the duration of one batch call), so it is cheap to construct
/// and freely shareable.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

/// A job submitted to the pool panicked. The index is the job's position
/// in the submitted batch; the message is the panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Index of the failed job within its batch.
    pub index: usize,
    /// Stringified panic payload.
    pub message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for PoolError {}

impl Default for Pool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool {
    /// A pool sized by the `ESCHED_ENGINE_THREADS` environment variable
    /// when set (and ≥ 1), else by the machine's available parallelism.
    pub fn new() -> Self {
        let threads = std::env::var("ESCHED_ENGINE_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self { threads }
    }

    /// A pool with exactly `threads` workers (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The worker count batches will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run one job on the calling thread (no pool) with the same panic
    /// isolation as a batch, against a fresh context from `ctx`.
    pub fn run_one_with<C, T>(
        &self,
        ctx: impl Fn() -> C,
        f: impl FnOnce(&mut C) -> T,
    ) -> Result<T, PoolError> {
        let slot = std::cell::Cell::new(Some(f));
        run_job(
            &mut ctx(),
            &ctx,
            &|c: &mut C, ()| (slot.take().expect("run_one job invoked once"))(c),
            0,
            (),
        )
    }

    /// Generic batch execution: apply `f` to every item, in parallel,
    /// with a per-worker context built by `ctx` threaded through so
    /// pipelines reuse buffers across items.
    ///
    /// Results are ordered by item index. A panic inside `f` becomes an
    /// `Err(PoolError)` for that item only; the worker's context is
    /// rebuilt and the worker keeps draining the batch.
    pub fn batch_map_with<C, I, T, F, G>(
        &self,
        ctx: G,
        items: Vec<I>,
        f: F,
    ) -> Vec<Result<T, PoolError>>
    where
        I: Send,
        T: Send,
        F: Fn(&mut C, I) -> T + Sync,
        G: Fn() -> C + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n).max(1);
        let _span = esched_obs::span!(
            esched_obs::Level::Debug,
            "engine_batch",
            jobs = n,
            workers = workers,
        );
        metric_counter!("esched.engine.batches").inc();
        metric_counter!("esched.engine.jobs").add(n as u64);
        metric_gauge!("esched.engine.workers").set(workers as f64);
        metric_gauge!("esched.engine.queue_depth").set_max(n as f64);
        let t0 = Instant::now();

        let out = if workers == 1 {
            // Serial fast path: same semantics, no pool overhead.
            let mut c = ctx();
            items
                .into_iter()
                .enumerate()
                .map(|(i, item)| run_job(&mut c, &ctx, &f, i, item))
                .collect()
        } else {
            self.run_pool(items, workers, &ctx, &f)
        };

        metric_histogram!("esched.engine.batch_wall_ns").record_duration(t0.elapsed());
        out
    }

    fn run_pool<C, I, T, F, G>(
        &self,
        items: Vec<I>,
        workers: usize,
        ctx: &G,
        f: &F,
    ) -> Vec<Result<T, PoolError>>
    where
        I: Send,
        T: Send,
        F: Fn(&mut C, I) -> T + Sync,
        G: Fn() -> C + Sync,
    {
        let n = items.len();
        let deques: Vec<Mutex<VecDeque<(usize, I)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, item) in items.into_iter().enumerate() {
            deques[i % workers]
                .lock()
                .expect("fresh deque")
                .push_back((i, item));
        }
        let results: Mutex<Vec<Option<Result<T, PoolError>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        let steals = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for w in 0..workers {
                let deques = &deques;
                let results = &results;
                let steals = &steals;
                scope.spawn(move || {
                    let mut c = ctx();
                    let mut local: Vec<(usize, Result<T, PoolError>)> = Vec::new();
                    let worker_start = Instant::now();
                    let mut busy_ns = 0u64;
                    loop {
                        // Own deque first (front), then steal from the
                        // back of the neighbours'. Nothing is ever
                        // re-queued, so "every deque empty" terminates.
                        let mut job = deques[w].lock().expect("worker deque").pop_front();
                        if job.is_none() {
                            for off in 1..workers {
                                let victim = (w + off) % workers;
                                job = deques[victim].lock().expect("victim deque").pop_back();
                                if job.is_some() {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    esched_obs::flight_event!("engine_steal", victim as u64);
                                    break;
                                }
                            }
                        }
                        let Some((index, item)) = job else { break };
                        let t_job = Instant::now();
                        local.push((index, run_job(&mut c, ctx, f, index, item)));
                        busy_ns += t_job.elapsed().as_nanos() as u64;
                    }
                    // Fraction of this worker's lifetime spent inside jobs
                    // (the rest is deque contention and steal probing).
                    // Dynamic name → cold registry path; once per worker
                    // per batch, not per job.
                    let wall_ns = worker_start.elapsed().as_nanos().max(1) as u64;
                    esched_obs::metrics::gauge(&format!("esched.engine.worker_util.w{w}"))
                        .set(busy_ns as f64 / wall_ns as f64);
                    let mut slots = results.lock().expect("results vector");
                    for (index, result) in local {
                        slots[index] = Some(result);
                    }
                });
            }
        });

        let stolen = steals.load(Ordering::Relaxed);
        metric_counter!("esched.engine.steals").add(stolen);
        metric_gauge!("esched.engine.steal_rate").set(stolen as f64 / n as f64);
        results
            .into_inner()
            .expect("pool threads joined")
            .into_iter()
            .map(|slot| slot.expect("every job index is filled exactly once"))
            .collect()
    }
}

/// Run one job with panic isolation; used by both the serial path and the
/// pool workers.
fn run_job<C, I, T, F, G>(c: &mut C, ctx: &G, f: &F, index: usize, item: I) -> Result<T, PoolError>
where
    F: Fn(&mut C, I) -> T,
    G: Fn() -> C,
{
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| f(c, item)));
    metric_histogram!("esched.engine.job_wall_ns").record_duration(t0.elapsed());
    match result {
        Ok(value) => Ok(value),
        Err(payload) => {
            metric_counter!("esched.engine.panics").inc();
            esched_obs::flight_event!("engine_job_panic", index as u64);
            // Post-mortem flight dump: a no-op unless ESCHED_FLIGHT_DIR
            // is set, so tests that expect panics don't spray files.
            let _ = esched_obs::recorder::dump_post_mortem("engine job panic");
            // The panic may have left half-taken buffers behind; rebuild
            // the context rather than reason about their state.
            *c = ctx();
            Err(PoolError {
                index,
                message: panic_message(payload),
            })
        }
    }
}

/// Stringify a panic payload (the common `&str` / `String` cases).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_map_orders_results_by_submission_index() {
        let pool = Pool::with_threads(4);
        let items: Vec<usize> = (0..64).collect();
        let out = pool.batch_map_with(|| (), items, |_c, i| i * 2);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i * 2);
        }
    }

    #[test]
    fn panicking_job_is_isolated_and_context_rebuilt() {
        let pool = Pool::with_threads(2);
        // The context counts jobs it has survived; a panic rebuilds it.
        let out = pool.batch_map_with(
            || 0usize,
            vec![0usize, 1, 2],
            |seen, i| {
                *seen += 1;
                if i == 1 {
                    panic!("boom {i}");
                }
                i
            },
        );
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        assert_eq!(out[1].as_ref().unwrap_err().index, 1);
        assert!(out[1].as_ref().unwrap_err().message.contains("boom"));
        assert_eq!(*out[2].as_ref().unwrap(), 2);
    }

    #[test]
    fn run_one_catches_panics() {
        let pool = Pool::with_threads(1);
        assert_eq!(pool.run_one_with(|| (), |_c| 7).unwrap(), 7);
        let err = pool
            .run_one_with(|| (), |_c: &mut ()| -> () { panic!("solo") })
            .unwrap_err();
        assert!(err.message.contains("solo"));
    }
}
