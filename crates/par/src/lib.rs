#![warn(missing_docs)]

//! A dependency-free scoped thread pool for data-parallel index ranges.
//!
//! The analysis pipeline is embarrassingly parallel in several places —
//! local-effect collection is per-procedure, `GMOD` propagation over the
//! condensation proceeds in independent topological levels, and per-site
//! projection is per-call-site. All of those are "apply `f` to every index
//! in `0..n`" problems, so the pool exposes exactly that shape and nothing
//! more:
//!
//! * [`ThreadPool::par_for_each`] — run `f(i)` for every `i in 0..n`;
//! * [`ThreadPool::par_map`] — collect `f(i)` into a `Vec` preserving
//!   input order;
//! * [`ThreadPool::par_for_each_range`] — the chunked primitive both are
//!   built on, for bodies that want to amortise per-chunk setup;
//! * [`ThreadPool::par_map_while`] / [`ThreadPool::par_for_each_range_while`]
//!   — cancellable variants: every participant polls a keep-going
//!   predicate between chunk claims, so a guarded caller (budget trip,
//!   deadline, cancel token) drains the pool promptly instead of
//!   finishing the whole range.
//!
//! Design points, in keeping with the workspace's hermetic-build policy
//! (no external crates):
//!
//! * **Spawn-once workers.** `ThreadPool::new(t)` spawns `t - 1` worker
//!   threads that live for the pool's lifetime; each parallel call hands
//!   them one job through a mutex/condvar mailbox. The *calling* thread
//!   participates too, so a pool of `t` threads applies `t`-way
//!   concurrency with `t - 1` spawns.
//! * **Scoped borrows.** The closure may borrow from the caller's stack:
//!   a call only returns after every worker has left the job, so the
//!   borrow never outlives the data (the same argument as
//!   `std::thread::scope`).
//! * **Chunked self-scheduling.** Workers claim contiguous index chunks
//!   from an atomic cursor — dynamic load balancing with one atomic op
//!   per chunk.
//! * **Panic propagation.** A panic in any worker (or the caller's own
//!   share) is caught, the remaining chunks are abandoned, and the first
//!   payload is re-raised on the calling thread once everyone is out.
//! * **Degenerate pools are free.** `ThreadPool::new(1)` (or `new(0)`)
//!   spawns nothing; every call runs inline on the caller thread.
//!
//! [`resolve_threads`] centralises the thread-count policy: an explicit
//! request wins, otherwise the `MODREF_THREADS` environment variable,
//! otherwise 1 (sequential). The value `0` means "one per core".
//!
//! # Examples
//!
//! ```
//! use modref_par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.par_map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Upper bound on pool size; requests beyond it are clamped. Far above
/// any machine this workspace targets, it only guards against absurd
/// `MODREF_THREADS` values spawning unbounded threads.
const MAX_THREADS: usize = 256;

/// The thread count a pool should use, resolved from an explicit request
/// and the `MODREF_THREADS` environment variable.
///
/// Policy (first match wins):
///
/// 1. `Some(n)` with `n ≥ 1` — the caller said so (e.g. `--threads N`);
/// 2. `Some(0)` — "auto": one thread per available core;
/// 3. `None` + `MODREF_THREADS=n` — the environment decides (`0` = auto;
///    unparsable values fall back to 1);
/// 4. `None`, no env var — 1 (sequential).
///
/// The result is clamped to `1..=256`, so every path — including
/// `MODREF_THREADS=0` on a host whose core count cannot be queried —
/// yields at least one thread; [`ThreadPool::new`] applies the same clamp
/// again, so a zero can never reach the worker-spawn loop as "spawn
/// nothing and then wait on it".
#[must_use]
pub fn resolve_threads(requested: Option<usize>) -> usize {
    resolve_threads_from(requested, std::env::var("MODREF_THREADS").ok().as_deref())
}

/// [`resolve_threads`] with the environment variable's value passed in
/// explicitly (`env` is what `MODREF_THREADS` would be). Tests use this to
/// audit the policy — the zero and garbage cases included — without
/// mutating process-global environment state.
#[must_use]
pub fn resolve_threads_from(requested: Option<usize>, env: Option<&str>) -> usize {
    let auto = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    let n = match requested {
        Some(0) => auto(),
        Some(n) => n,
        None => match env {
            Some(v) => match v.trim().parse::<usize>() {
                Ok(0) => auto(),
                Ok(n) => n,
                Err(_) => 1,
            },
            None => 1,
        },
    };
    n.clamp(1, MAX_THREADS)
}

/// A raw wide pointer to the job body. The pool guarantees the pointee
/// outlives every dereference (a call returns only after all workers have
/// left the job), which is what makes the `Send + Sync` claims sound.
#[derive(Clone, Copy)]
struct BodyPtr(*const (dyn Fn(usize, usize) + Sync));
unsafe impl Send for BodyPtr {}
unsafe impl Sync for BodyPtr {}

/// A raw wide pointer to the keep-going predicate of a cancellable job.
/// Same lifetime argument as [`BodyPtr`].
#[derive(Clone, Copy)]
struct KeepPtr(*const (dyn Fn() -> bool + Sync));
unsafe impl Send for KeepPtr {}
unsafe impl Sync for KeepPtr {}

/// One submitted parallel call: a range `0..len` split into `chunk`-sized
/// pieces that workers claim from `cursor`.
struct Job {
    body: BodyPtr,
    /// Polled between chunk claims; `false` abandons the remaining range.
    keep: Option<KeepPtr>,
    len: usize,
    chunk: usize,
    cursor: AtomicUsize,
    /// Chunks actually executed (claims that ran the body), for
    /// [`ThreadPool::stats`].
    claimed: AtomicUsize,
    /// Threads currently inside [`Job::participate`].
    active: AtomicUsize,
    finish_lock: Mutex<()>,
    finished: Condvar,
    /// Set when the keep-going predicate cut the range short.
    cancelled: AtomicBool,
    /// First panic payload raised by any participant.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    fn new(body: BodyPtr, keep: Option<KeepPtr>, len: usize, chunk: usize) -> Self {
        Job {
            body,
            keep,
            len,
            chunk,
            cursor: AtomicUsize::new(0),
            claimed: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            finish_lock: Mutex::new(()),
            finished: Condvar::new(),
            cancelled: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    /// Claims and runs chunks until the range is exhausted; converts a
    /// body panic into a stored payload and abandons the rest of the
    /// range so other participants wind down quickly.
    fn work(&self) {
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.len {
                // No dereference on this path: a worker arriving after the
                // range is exhausted may hold a job whose closures are
                // already dead.
                break;
            }
            // SAFETY: execute_range keeps both closures alive until every
            // participant has exited; a successful claim implies we are
            // still inside that window (the submitter cannot observe the
            // range as exhausted while `cursor < len`).
            if let Some(keep) = self.keep {
                let keep = unsafe { &*keep.0 };
                if !keep() {
                    self.cancelled.store(true, Ordering::Relaxed);
                    self.cursor.store(self.len, Ordering::Relaxed);
                    break;
                }
            }
            let end = (start + self.chunk).min(self.len);
            self.claimed.fetch_add(1, Ordering::Relaxed);
            let body = unsafe { &*self.body.0 };
            body(start, end);
        }));
        if let Err(payload) = outcome {
            let mut slot = self
                .panic
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(payload);
            }
            self.cursor.store(self.len, Ordering::Relaxed);
        }
    }

    /// One thread's full engagement with the job, with completion
    /// signalling: the last one out notifies the submitter.
    fn participate(&self) {
        self.active.fetch_add(1, Ordering::SeqCst);
        self.work();
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = self
                .finish_lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.finished.notify_all();
        }
    }
}

/// The mailbox workers block on.
struct Mailbox {
    job: Option<Arc<Job>>,
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    mailbox: Mutex<Mailbox>,
    work_ready: Condvar,
}

/// Cumulative work-distribution counters for one pool, snapshot by
/// [`ThreadPool::stats`]. Cheap relaxed atomics; the tracing layer reads
/// deltas around pooled phases to report queue/chunk behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel calls executed (each `par_*` invocation is one job).
    pub jobs: u64,
    /// Chunks claimed and run across all jobs (the unit of dynamic load
    /// balancing; one atomic claim each).
    pub chunks: u64,
    /// Jobs a keep-going predicate cut short.
    pub cancelled_jobs: u64,
}

/// A fixed-size pool of spawn-once workers executing chunked index-range
/// jobs. See the crate docs for the design; see [`ThreadPool::new`] for
/// sizing semantics.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serialises `execute_range`: concurrent submitters (e.g. the MOD
    /// and USE pipeline halves) queue here and the workers drain one job
    /// at a time. Caller participation guarantees progress either way.
    submit: Mutex<()>,
    jobs: AtomicU64,
    chunks: AtomicU64,
    cancelled_jobs: AtomicU64,
}

impl ThreadPool {
    /// Creates a pool applying `threads`-way concurrency: the caller
    /// thread plus `threads - 1` spawned workers. `0` and `1` both mean
    /// "sequential" — nothing is spawned and every call runs inline.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            mailbox: Mutex::new(Mailbox {
                job: None,
                epoch: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
            submit: Mutex::new(()),
            jobs: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            cancelled_jobs: AtomicU64::new(0),
        }
    }

    /// A snapshot of the pool's cumulative work-distribution counters.
    /// Callers interested in one phase take a snapshot before and after
    /// and subtract.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.jobs.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            cancelled_jobs: self.cancelled_jobs.load(Ordering::Relaxed),
        }
    }

    /// A pool sized by [`resolve_threads`]`(requested)`.
    #[must_use]
    pub fn with_threads(requested: Option<usize>) -> Self {
        Self::new(resolve_threads(requested))
    }

    /// The concurrency this pool applies, counting the caller thread.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many worker threads were actually spawned (`threads() - 1`,
    /// and 0 for a sequential pool).
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// `true` if calls run inline on the caller thread (no workers).
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        self.workers.is_empty()
    }

    /// Runs `f(start, end)` over disjoint chunks covering `0..len`,
    /// concurrently. Blocks until the whole range is done; re-raises the
    /// first panic any chunk produced.
    pub fn par_for_each_range<F: Fn(usize, usize) + Sync>(&self, len: usize, f: F) {
        self.execute_range(len, &f, None);
    }

    /// Cancellable variant of [`par_for_each_range`]: every participant
    /// polls `keep` between chunk claims and abandons the remaining range
    /// once it returns `false`. Returns `true` if the whole range ran,
    /// `false` if cancellation cut it short. Chunks already started are
    /// finished — cancellation is cooperative, not preemptive.
    ///
    /// [`par_for_each_range`]: ThreadPool::par_for_each_range
    pub fn par_for_each_range_while<K, F>(&self, len: usize, keep: K, f: F) -> bool
    where
        K: Fn() -> bool + Sync,
        F: Fn(usize, usize) + Sync,
    {
        self.execute_range(len, &f, Some(&keep))
    }

    /// Runs `f(i)` for every `i in 0..len`, concurrently.
    pub fn par_for_each<F: Fn(usize) + Sync>(&self, len: usize, f: F) {
        self.execute_range(
            len,
            &|start, end| {
                for i in start..end {
                    f(i);
                }
            },
            None,
        );
    }

    /// Maps `0..len` through `f` into a `Vec` in input order (slot `i`
    /// holds `f(i)` regardless of which thread computed it).
    pub fn par_map<T: Send, F: Fn(usize) -> T + Sync>(&self, len: usize, f: F) -> Vec<T> {
        struct Slots<T>(*mut Option<T>);
        unsafe impl<T: Send> Send for Slots<T> {}
        unsafe impl<T: Send> Sync for Slots<T> {}
        impl<T> Slots<T> {
            /// SAFETY: each index is claimed by exactly one chunk, so
            /// slot `i` is written by one thread and read only after
            /// `execute_range` returns. A panicking body leaves the slot
            /// `None`; the Vec still drops cleanly.
            fn set(&self, i: usize, value: T) {
                unsafe { *self.0.add(i) = Some(value) };
            }
        }

        let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
        let out = Slots(slots.as_mut_ptr());
        self.execute_range(
            len,
            &|start, end| {
                for i in start..end {
                    out.set(i, f(i));
                }
            },
            None,
        );
        slots
            .into_iter()
            .map(|slot| slot.expect("every index was computed"))
            .collect()
    }

    /// Cancellable variant of [`par_map`]: maps `0..len` through `f` while
    /// `keep` stays `true`. Slot `i` is `Some(f(i))` if that index ran
    /// before cancellation, `None` if it was abandoned — a full `Vec` of
    /// `Some` means the map completed.
    ///
    /// [`par_map`]: ThreadPool::par_map
    pub fn par_map_while<T, K, F>(&self, len: usize, keep: K, f: F) -> Vec<Option<T>>
    where
        T: Send,
        K: Fn() -> bool + Sync,
        F: Fn(usize) -> T + Sync,
    {
        struct Slots<T>(*mut Option<T>);
        unsafe impl<T: Send> Send for Slots<T> {}
        unsafe impl<T: Send> Sync for Slots<T> {}
        impl<T> Slots<T> {
            /// SAFETY: as in `par_map` — one writer per slot, reads only
            /// after the call returns; abandoned slots stay `None`.
            fn set(&self, i: usize, value: T) {
                unsafe { *self.0.add(i) = Some(value) };
            }
        }

        let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
        let out = Slots(slots.as_mut_ptr());
        self.execute_range(
            len,
            &|start, end| {
                for i in start..end {
                    out.set(i, f(i));
                }
            },
            Some(&keep),
        );
        slots
    }

    /// The chunk size for a range: enough pieces for load balancing
    /// (≈ 4 per thread), never empty.
    fn chunk_for(&self, len: usize) -> usize {
        len.div_ceil(self.threads * 4).max(1)
    }

    /// Returns `true` if the whole range ran, `false` if `keep` cancelled
    /// part of it.
    fn execute_range(
        &self,
        len: usize,
        f: &(dyn Fn(usize, usize) + Sync),
        keep: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> bool {
        if len == 0 {
            return true;
        }
        self.jobs.fetch_add(1, Ordering::Relaxed);
        if self.workers.is_empty() {
            let Some(keep) = keep else {
                f(0, len);
                self.chunks.fetch_add(1, Ordering::Relaxed);
                return true;
            };
            // Sequential but still cancellable: walk the same chunks a
            // worker would, polling between them.
            let chunk = self.chunk_for(len);
            let mut start = 0;
            while start < len {
                if !keep() {
                    self.cancelled_jobs.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                let end = (start + chunk).min(len);
                f(start, end);
                self.chunks.fetch_add(1, Ordering::Relaxed);
                start = end;
            }
            return true;
        }
        let _submitting = self
            .submit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // SAFETY: only the lifetime is erased. The pointer is dereferenced
        // solely between job publication and the `active == 0` wait below,
        // while `f` is demonstrably alive on this stack frame.
        #[allow(clippy::missing_transmute_annotations)]
        let body =
            BodyPtr(unsafe { std::mem::transmute(f as *const (dyn Fn(usize, usize) + Sync)) });
        // SAFETY: same lifetime-erasure argument as the body pointer.
        #[allow(clippy::missing_transmute_annotations)]
        let keep = keep.map(|k| {
            KeepPtr(unsafe { std::mem::transmute(k as *const (dyn Fn() -> bool + Sync)) })
        });
        let job = Arc::new(Job::new(body, keep, len, self.chunk_for(len)));
        {
            let mut mailbox = self
                .shared
                .mailbox
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            mailbox.job = Some(Arc::clone(&job));
            mailbox.epoch += 1;
            self.shared.work_ready.notify_all();
        }
        // The caller is a participant like any worker.
        job.participate();
        // Wait until every worker that picked the job up has left it; only
        // then is the `f` borrow dead and the call allowed to return.
        {
            let mut guard = job
                .finish_lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while job.active.load(Ordering::SeqCst) != 0 {
                guard = job
                    .finished
                    .wait(guard)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        self.shared
            .mailbox
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .job = None;
        self.chunks.fetch_add(
            job.claimed.load(Ordering::Relaxed) as u64,
            Ordering::Relaxed,
        );
        let payload = job
            .panic
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        let cancelled = job.cancelled.load(Ordering::Relaxed);
        if cancelled {
            self.cancelled_jobs.fetch_add(1, Ordering::Relaxed);
        }
        !cancelled
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut mailbox = self
                .shared
                .mailbox
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            mailbox.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut mailbox = shared
                .mailbox
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if mailbox.shutdown {
                    return;
                }
                if mailbox.epoch != last_epoch {
                    if let Some(job) = &mailbox.job {
                        last_epoch = mailbox.epoch;
                        break Arc::clone(job);
                    }
                }
                mailbox = shared
                    .work_ready
                    .wait(mailbox)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        job.participate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_pool_spawns_nothing_and_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.worker_count(), 0);
        assert!(pool.is_sequential());
        let caller = std::thread::current().id();
        pool.par_for_each(16, |_| {
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn zero_threads_means_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.worker_count(), 0);
    }

    #[test]
    fn par_for_each_covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.par_for_each(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn ranges_partition_the_input() {
        let pool = ThreadPool::new(3);
        let covered: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        pool.par_for_each_range(covered.len(), |start, end| {
            assert!(start < end && end <= covered.len());
            for i in start..end {
                covered[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(covered.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_range_is_a_no_op() {
        let pool = ThreadPool::new(4);
        pool.par_for_each(0, |_| panic!("must not run"));
        assert!(pool.par_map(0, |i| i).is_empty());
    }

    #[test]
    fn pool_is_reusable_across_many_calls() {
        let pool = ThreadPool::new(4);
        for round in 0..50usize {
            let v = pool.par_map(round + 1, move |i| i + round);
            assert_eq!(v.len(), round + 1);
            assert_eq!(v[0], round);
        }
    }

    #[test]
    fn concurrent_submitters_serialise_without_deadlock() {
        let pool = ThreadPool::new(2);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| pool.par_map(500, |i| i as u64 * 2).iter().sum::<u64>());
            let b = pool.par_map(500, |i| i as u64 * 3).iter().sum::<u64>();
            let a = a.join().expect("no panic");
            assert_eq!(a, (0..500u64).map(|i| i * 2).sum());
            assert_eq!(b, (0..500u64).map(|i| i * 3).sum());
        });
    }

    #[test]
    fn par_map_while_without_cancellation_matches_par_map() {
        let pool = ThreadPool::new(4);
        let cancellable = pool.par_map_while(200, || true, |i| i * 3);
        assert!(cancellable.iter().all(Option::is_some));
        let plain = pool.par_map(200, |i| i * 3);
        assert_eq!(
            cancellable
                .into_iter()
                .map(Option::unwrap)
                .collect::<Vec<_>>(),
            plain
        );
    }

    #[test]
    fn mid_flight_cancellation_drains_the_range() {
        use std::sync::atomic::AtomicBool;
        let pool = ThreadPool::new(4);
        let stop = AtomicBool::new(false);
        let ran = AtomicU64::new(0);
        // The first completed index flips the flag; with many chunks
        // outstanding, most of the range must be abandoned.
        let slots = pool.par_map_while(
            10_000,
            || !stop.load(Ordering::Relaxed),
            |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                stop.store(true, Ordering::Relaxed);
                i
            },
        );
        let done = slots.iter().filter(|s| s.is_some()).count();
        assert_eq!(done as u64, ran.load(Ordering::Relaxed));
        assert!(done < 10_000, "cancellation must abandon part of the range");
        assert!(!pool.par_for_each_range_while(64, || false, |_, _| panic!("must not run")));
    }

    #[test]
    fn sequential_pool_honours_cancellation_between_chunks() {
        use std::sync::atomic::AtomicBool;
        let pool = ThreadPool::new(1);
        let stop = AtomicBool::new(false);
        let slots = pool.par_map_while(
            100,
            || !stop.load(Ordering::Relaxed),
            |i| {
                stop.store(true, Ordering::Relaxed);
                i
            },
        );
        let done = slots.iter().filter(|s| s.is_some()).count();
        assert!(
            done >= 1 && done < 100,
            "stopped after the first chunk, ran {done}"
        );
    }

    #[test]
    fn dropping_the_pool_after_a_cancelled_job_releases_all_workers() {
        // The satellite regression test: cancel a job mid-flight, then
        // drop the pool. Drop must join every worker (no deadlock), and
        // afterwards nothing may still hold the shared state (no leaked
        // worker threads).
        use std::sync::atomic::AtomicBool;
        let pool = ThreadPool::new(4);
        let stop = AtomicBool::new(false);
        let _ = pool.par_map_while(
            50_000,
            || !stop.load(Ordering::Relaxed),
            |i| {
                stop.store(true, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(50));
                i
            },
        );
        let weak = Arc::downgrade(&pool.shared);
        drop(pool);
        assert_eq!(
            weak.strong_count(),
            0,
            "all workers joined and released the shared pool state"
        );
    }

    #[test]
    fn resolve_threads_explicit_request_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(1)), 1);
        assert!(resolve_threads(Some(0)) >= 1); // auto
        assert_eq!(resolve_threads(Some(100_000)), MAX_THREADS);
    }

    #[test]
    fn resolve_threads_from_audits_the_env_policy_hermetically() {
        // Explicit request beats whatever the environment says.
        assert_eq!(resolve_threads_from(Some(2), Some("7")), 2);
        // Env decides when the caller abstains.
        assert_eq!(resolve_threads_from(None, Some("7")), 7);
        assert_eq!(resolve_threads_from(None, Some(" 3 ")), 3);
        // MODREF_THREADS=0 means auto and can never yield zero threads.
        assert!(resolve_threads_from(None, Some("0")) >= 1);
        assert!(resolve_threads_from(Some(0), Some("0")) >= 1);
        // Garbage falls back to sequential rather than erroring.
        assert_eq!(resolve_threads_from(None, Some("many")), 1);
        assert_eq!(resolve_threads_from(None, Some("")), 1);
        assert_eq!(resolve_threads_from(None, Some("-4")), 1);
        // No request, no env: sequential.
        assert_eq!(resolve_threads_from(None, None), 1);
        // Absurd env values are clamped like absurd requests.
        assert_eq!(resolve_threads_from(None, Some("999999")), MAX_THREADS);
    }

    #[test]
    fn stats_count_jobs_and_chunks_on_the_sequential_paths() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.stats(), PoolStats::default());

        // Plain path: one job, one chunk regardless of range size.
        pool.par_for_each(100, |_| {});
        let s = pool.stats();
        assert_eq!((s.jobs, s.chunks, s.cancelled_jobs), (1, 1, 0));

        // Cancellable path runs chunk-by-chunk.
        let ok = pool.par_for_each_range_while(100, || true, |_, _| {});
        assert!(ok);
        let s = pool.stats();
        assert_eq!(s.jobs, 2);
        assert!(s.chunks > 1, "chunked walk records per-chunk: {s:?}");
        assert_eq!(s.cancelled_jobs, 0);

        // Empty ranges are free — no job recorded.
        pool.par_for_each(0, |_| {});
        assert_eq!(pool.stats().jobs, 2);

        // A cancelled job is counted as such.
        assert!(!pool.par_for_each_range_while(64, || false, |_, _| {}));
        assert_eq!(pool.stats().cancelled_jobs, 1);
    }

    #[test]
    fn stats_count_chunks_claimed_across_pooled_workers() {
        let pool = ThreadPool::new(4);
        pool.par_for_each(1000, |_| {});
        let s = pool.stats();
        assert_eq!(s.jobs, 1);
        // chunk_for targets ≈ 4 chunks per thread; every one of them must
        // be accounted once the call returns.
        let expected = 1000u64.div_ceil(pool.chunk_for(1000) as u64);
        assert_eq!(s.chunks, expected);

        // Cancellation: fewer chunks than a full run, and the job flagged.
        let stop = AtomicBool::new(false);
        let _ = pool.par_for_each_range_while(
            100_000,
            || !stop.load(Ordering::Relaxed),
            |_, _| stop.store(true, Ordering::Relaxed),
        );
        let s = pool.stats();
        assert_eq!(s.jobs, 2);
        assert_eq!(s.cancelled_jobs, 1);
        let full = 100_000u64.div_ceil(pool.chunk_for(100_000) as u64);
        assert!(
            s.chunks - expected < full,
            "cancelled job abandoned part of its range: {s:?}"
        );
    }
}
