//! A long-running sharded worker pool for serving workloads.
//!
//! [`Executor::map`](crate::Executor) is a *batch* device: it spawns
//! scoped workers, drains a fixed index range, and joins. A service
//! needs the opposite shape — workers that outlive any one request,
//! bounded queues in front of them, and an explicit "full" signal the
//! caller can turn into load shedding instead of unbounded latency.
//! [`ServicePool`] is that shape:
//!
//! * `workers` dedicated threads, each behind its own bounded
//!   [`std::sync::mpsc::sync_channel`] shard;
//! * [`ServicePool::try_submit`] round-robins across shards and tries
//!   every shard once; when all are full it hands the item *back* as
//!   [`SubmitError::Saturated`] so the caller can shed it explicitly;
//! * a shared depth gauge ([`ServicePool::depth`]) so callers can make
//!   graceful-degradation decisions from queue pressure;
//! * per-item panic isolation: a handler panic is caught, counted
//!   (`exec.<label>.worker_panics`), and the worker keeps serving.
//!
//! Determinism is explicitly *not* a goal here — which worker runs a
//! request is scheduling-dependent by design. Anything whose output
//! must be byte-identical belongs on [`Executor`](crate::Executor).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::ExecError;

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// Every shard queue is full; the item is returned so the caller
    /// can shed it (or retry later) without losing it.
    Saturated(T),
    /// The pool is shutting down; no worker will ever pick the item up.
    Closed(T),
}

impl<T> SubmitError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            SubmitError::Saturated(item) | SubmitError::Closed(item) => item,
        }
    }
}

/// Threads a [`ServicePool`] spawns for `requested`: at most `MAX_THREADS`.
pub fn pool_workers(requested: usize) -> usize {
    requested.min(crate::MAX_THREADS)
}

/// A fixed pool of long-running workers behind bounded per-worker
/// queues. See the module docs for the design.
///
/// Dropping the pool closes every queue and joins the workers;
/// already-queued items are still drained first.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use ppm_exec::ServicePool;
///
/// let done = Arc::new(AtomicUsize::new(0));
/// let seen = Arc::clone(&done);
/// let pool = ServicePool::new("doc", 2, 4, move |n: usize| {
///     seen.fetch_add(n, Ordering::SeqCst);
/// })?;
/// for i in 0..8 {
///     while pool.try_submit(i).is_err() {
///         std::thread::yield_now();
///     }
/// }
/// drop(pool); // joins workers, draining the queues
/// assert_eq!(done.load(Ordering::SeqCst), (0..8).sum());
/// # Ok::<(), ppm_exec::ExecError>(())
/// ```
pub struct ServicePool<T: Send + 'static> {
    shards: Vec<SyncSender<T>>,
    handles: Vec<JoinHandle<()>>,
    // atomic-policy(depth): SeqCst — the queued-depth gauge is counted
    // *before* the send and uncounted on the failure path; a single
    // total order across submitters and workers keeps the gauge from
    // going transiently negative under contention.
    depth: Arc<AtomicUsize>,
    next: AtomicUsize,
    label: String,
}

impl<T: Send + 'static> ServicePool<T> {
    /// Spawns `workers` threads, each behind a bounded queue of
    /// `queue_per_worker` slots, all running `handler`. `label` scopes
    /// the pool's telemetry (`exec.<label>.*`).
    ///
    /// # Errors
    ///
    /// [`ExecError::ZeroThreads`] when `workers` or `queue_per_worker`
    /// is zero (a zero-capacity `sync_channel` would rendezvous, which
    /// defeats `try_submit`-based shedding).
    pub fn new<F>(
        label: &str,
        workers: usize,
        queue_per_worker: usize,
        handler: F,
    ) -> Result<Self, ExecError>
    where
        F: Fn(T) + Send + Clone + 'static,
    {
        Self::with_worker_ids(label, workers, queue_per_worker, move |_w, item| {
            handler(item)
        })
    }

    /// Like [`ServicePool::new`], but the handler also receives the
    /// worker's shard index (`0..workers`) with each item — request
    /// tracing uses it to record which lane served a request.
    ///
    /// # Errors
    ///
    /// Same contract as [`ServicePool::new`].
    pub fn with_worker_ids<F>(
        label: &str,
        workers: usize,
        queue_per_worker: usize,
        handler: F,
    ) -> Result<Self, ExecError>
    where
        F: Fn(usize, T) + Send + Clone + 'static,
    {
        if workers == 0 || queue_per_worker == 0 {
            return Err(ExecError::ZeroThreads);
        }
        let workers = pool_workers(workers);
        let depth = Arc::new(AtomicUsize::new(0));
        let mut shards = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let context = ppm_telemetry::current_context();
        let panics = ppm_telemetry::counter(&format!("exec.{label}.worker_panics"));
        for w in 0..workers {
            let (tx, rx) = sync_channel::<T>(queue_per_worker);
            shards.push(tx);
            let depth = Arc::clone(&depth);
            let handler = handler.clone();
            let context = context.clone();
            let panics = Arc::clone(&panics);
            let handle = std::thread::Builder::new()
                .name(format!("ppm-svc-{label}-{w}"))
                .spawn(move || {
                    let _ctx_guard = context.attach();
                    while let Ok(item) = rx.recv() {
                        depth.fetch_sub(1, Ordering::SeqCst);
                        // A handler panic must cost one request, not a
                        // worker: catch it, count it, keep serving. The
                        // handler owns its item, so no shared state can
                        // be observed mid-unwind.
                        if catch_unwind(AssertUnwindSafe(|| handler(w, item))).is_err() {
                            panics.inc();
                        }
                    }
                })
                .map_err(|_| ExecError::ZeroThreads)?;
            handles.push(handle);
        }
        ppm_telemetry::gauge(&format!("exec.{label}.workers")).set(workers as f64);
        Ok(ServicePool {
            shards,
            handles,
            depth,
            next: AtomicUsize::new(0),
            label: label.to_string(),
        })
    }

    /// The number of items currently queued (submitted, not yet picked
    /// up by a worker). The graceful-degradation signal.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// The number of worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Offers an item to the pool without blocking: starting from a
    /// round-robin cursor, each shard is tried once; the first with a
    /// free slot takes the item.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] (with the item) when every shard
    /// queue is full — the caller's cue to shed load.
    /// [`SubmitError::Closed`] when workers have exited.
    pub fn try_submit(&self, item: T) -> Result<(), SubmitError<T>> {
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        let mut item = item;
        for k in 0..self.shards.len() {
            let shard = &self.shards[(start + k) % self.shards.len()];
            // Count the item as queued *before* the send so a worker
            // that picks it up immediately never underflows the gauge.
            self.depth.fetch_add(1, Ordering::SeqCst);
            match shard.try_send(item) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(back)) => {
                    self.depth.fetch_sub(1, Ordering::SeqCst);
                    item = back;
                }
                Err(TrySendError::Disconnected(back)) => {
                    self.depth.fetch_sub(1, Ordering::SeqCst);
                    return Err(SubmitError::Closed(back));
                }
            }
        }
        ppm_telemetry::counter(&format!("exec.{}.saturated", self.label)).inc();
        Err(SubmitError::Saturated(item))
    }
}

impl<T: Send + 'static> Drop for ServicePool<T> {
    fn drop(&mut self) {
        // Closing the senders ends each worker's recv loop once its
        // queue drains; then join so queued work is never abandoned.
        self.shards.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn drains_all_submitted_items_before_drop_returns() {
        let (tx, rx) = channel();
        let pool = ServicePool::new("t_drain", 3, 8, move |n: u64| {
            tx.send(n).unwrap();
        })
        .unwrap();
        let mut submitted = 0u64;
        for i in 0..24u64 {
            let mut item = i;
            loop {
                match pool.try_submit(item) {
                    Ok(()) => {
                        submitted += i;
                        break;
                    }
                    Err(SubmitError::Saturated(back)) => {
                        item = back;
                        std::thread::yield_now();
                    }
                    Err(SubmitError::Closed(_)) => panic!("pool closed early"),
                }
            }
        }
        drop(pool);
        let drained: u64 = rx.try_iter().sum();
        assert_eq!(drained, submitted);
    }

    #[test]
    fn saturation_returns_the_item_instead_of_blocking() {
        // One worker parked on a slow item; its queue (1 slot) plus the
        // in-flight item absorb 2 submissions, the 3rd must bounce.
        let (release_tx, release_rx) = channel::<()>();
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        let pool = ServicePool::new("t_sat", 1, 1, move |_n: u32| {
            let _ = release_rx.lock().unwrap().recv();
        })
        .unwrap();
        // First item reaches the worker; second fills the queue slot.
        // Poll until both are placed (the worker needs a moment to pull
        // the first item out of the queue).
        let mut placed = 0;
        let mut spins = 0;
        while placed < 2 {
            match pool.try_submit(placed) {
                Ok(()) => placed += 1,
                Err(SubmitError::Saturated(_)) => {
                    spins += 1;
                    assert!(spins < 10_000, "queue never drained into the worker");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(SubmitError::Closed(_)) => panic!("pool closed early"),
            }
        }
        match pool.try_submit(99) {
            Err(SubmitError::Saturated(back)) => assert_eq!(back, 99),
            other => panic!("expected saturation, got {other:?}"),
        }
        assert!(pool.depth() >= 1);
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        drop(release_tx);
        drop(pool);
    }

    #[test]
    fn handler_panic_is_contained_and_counted() {
        let before = ppm_telemetry::registry()
            .counter("exec.t_panic.worker_panics")
            .get();
        let (tx, rx) = channel();
        let pool = ServicePool::new("t_panic", 1, 4, move |n: u32| {
            // The panic path is this test's subject. lint:allow(panic-path)
            assert!(n != 7, "injected");
            tx.send(n).unwrap();
        })
        .unwrap();
        for i in [7u32, 1, 2] {
            let mut item = i;
            while let Err(SubmitError::Saturated(back)) = pool.try_submit(item) {
                item = back;
                std::thread::yield_now();
            }
        }
        drop(pool);
        let survivors: Vec<u32> = rx.try_iter().collect();
        assert_eq!(survivors, vec![1, 2], "worker died with the panic");
        let after = ppm_telemetry::registry()
            .counter("exec.t_panic.worker_panics")
            .get();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn worker_ids_are_in_range_and_stable_per_shard() {
        let (tx, rx) = channel();
        let pool = ServicePool::with_worker_ids("t_ids", 3, 8, move |w, n: u64| {
            tx.send((w, n)).unwrap();
        })
        .unwrap();
        for i in 0..24u64 {
            let mut item = i;
            while let Err(SubmitError::Saturated(back)) = pool.try_submit(item) {
                item = back;
                std::thread::yield_now();
            }
        }
        drop(pool);
        let seen: Vec<(usize, u64)> = rx.try_iter().collect();
        assert_eq!(seen.len(), 24);
        assert!(seen.iter().all(|(w, _)| *w < 3), "{seen:?}");
        // Round-robin across 3 live shards must touch more than one.
        let distinct: std::collections::BTreeSet<usize> = seen.iter().map(|(w, _)| *w).collect();
        assert!(distinct.len() > 1, "{distinct:?}");
    }

    #[test]
    fn zero_workers_or_zero_queue_is_an_error() {
        assert!(ServicePool::<u32>::new("t_zero", 0, 4, |_| {}).is_err());
        assert!(ServicePool::<u32>::new("t_zero", 4, 0, |_| {}).is_err());
    }
}
