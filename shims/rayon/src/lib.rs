//! Offline drop-in subset of the `rayon` crate.
//!
//! Implements the `par_iter()` / `into_par_iter()` → `map` / `map_init` →
//! `collect` pipeline used by the attack sweep on top of a **persistent
//! worker pool**: worker threads are spawned once (lazily, on the first
//! parallel call) and every subsequent call only enqueues its jobs,
//! so the per-call cost is a channel send + condvar wait instead of a
//! thread spawn/join cycle. That keeps fan-out profitable for much
//! smaller inputs: a few thousand items instead of sixteen thousand.
//!
//! Work is split into ordered blocks, a contiguous run of them per
//! worker; a worker whose run is done takes the blocks left at the tail
//! of the other runs. Results are re-assembled **in input order**, so a
//! parallel map is always bit-identical to its sequential counterpart
//! for pure per-item functions.
//!
//! Nested parallelism is flattened: a `par_iter` launched from inside a
//! worker thread runs sequentially (one pool for the whole process keeps
//! the thread count bounded at `available_parallelism`, overridable via
//! `RAYON_NUM_THREADS` like the real crate).
//!
//! [`ThreadPoolBuilder`] and [`ThreadPool::install`] mirror the real
//! crate's API for scoping a narrower pool: inside `install`, every
//! parallel call made on the calling thread fans out at most
//! `num_threads` wide (a width of one runs each call inline), while the
//! process keeps its one set of workers.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// Set on pool worker threads, to flatten nested parallelism.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Stable index of the current pool worker (`usize::MAX` off-pool).
    static WORKER_ID: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Width cap of the innermost [`ThreadPool::install`] running on this
    /// thread (`0`: none, the process-wide width applies).
    static WIDTH_CAP: Cell<usize> = const { Cell::new(0) };
}

/// Stable index of the worker thread this call runs on: `Some(i)` with
/// `i < current_num_threads()` inside the pool, `None` on any thread the
/// pool does not own (the main thread, test threads, ...). The index is
/// assigned at spawn and never changes, so traces and per-worker metric
/// buffers can attribute work to a worker across batches.
pub fn current_worker_id() -> Option<usize> {
    WORKER_ID.with(|c| {
        let id = c.get();
        if id == usize::MAX {
            None
        } else {
            Some(id)
        }
    })
}

/// Number of worker threads parallel calls will use, mirroring
/// `rayon::current_num_threads`: the width of the enclosing
/// [`ThreadPool::install`], else the `RAYON_NUM_THREADS` override, else
/// `available_parallelism`. Callers sizing their own fan-out (or
/// recording "cores" in a benchmark baseline) should read this instead
/// of `available_parallelism`, which ignores the override.
pub fn current_num_threads() -> usize {
    match WIDTH_CAP.with(Cell::get) {
        0 => pool_width(),
        cap => cap,
    }
}

/// Number of worker threads the process-wide pool spawns
/// (`RAYON_NUM_THREADS` override, else `available_parallelism`).
fn pool_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        if let Some(n) = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            if n >= 1 {
                return n;
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Builder of a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for a pool of the default width.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Sets the pool's width; `0` (the default) means the process-wide
    /// width, as in the real crate.
    pub fn num_threads(mut self, num_threads: usize) -> ThreadPoolBuilder {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool. The shim's pools share the process's workers, so
    /// this never fails; the `Result` keeps the real crate's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = match self.num_threads {
            0 => pool_width(),
            n => n,
        };
        Ok(ThreadPool { width })
    }
}

/// Error type of [`ThreadPoolBuilder::build`], kept for signature parity
/// with the real crate; the shim never returns it.
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    _private: (),
}

/// A scoped fan-out width, mirroring `rayon::ThreadPool`.
#[derive(Debug)]
pub struct ThreadPool {
    width: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with every parallel call it makes
    /// there capped at this pool's width: with a width of one, each call
    /// runs inline, and [`current_num_threads`] reports the cap. The
    /// previous cap is restored when `op` returns or unwinds, so installs
    /// nest.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        /// Puts the enclosing cap back on drop, on return and on unwind.
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                WIDTH_CAP.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(WIDTH_CAP.with(|c| c.replace(self.width)));
        op()
    }
}

mod pool {
    //! The persistent worker pool behind every parallel call.

    use std::any::Any;
    use std::sync::mpsc::{channel, Sender};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    /// A type-erased job. Jobs are *scoped*: they borrow the submitting
    /// call's stack, transmuted to `'static` for transport. Soundness
    /// rests on [`WorkerPool::map_chunks`] blocking until every job of
    /// its batch has finished before any borrowed data goes out of scope.
    type Job = Box<dyn FnOnce() + Send + 'static>;

    /// Completion state of one submitted batch.
    struct BatchState {
        remaining: usize,
        panic: Option<Box<dyn Any + Send>>,
    }

    struct Latch {
        state: Mutex<BatchState>,
        done: Condvar,
    }

    /// A fixed set of persistent worker threads fed from one shared
    /// queue. Workers mark themselves [`IN_POOL`](super::IN_POOL) once at
    /// spawn, so anything they run flattens nested parallelism.
    pub(crate) struct WorkerPool {
        tx: Mutex<Sender<Job>>,
    }

    impl WorkerPool {
        pub(crate) fn new(width: usize) -> WorkerPool {
            let (tx, rx) = channel::<Job>();
            let rx = Arc::new(Mutex::new(rx));
            for i in 0..width {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || {
                        super::IN_POOL.with(|c| c.set(true));
                        super::WORKER_ID.with(|c| c.set(i));
                        loop {
                            // The guard is held only for the handoff: the
                            // receiving worker drops it before running the
                            // job, so an idle peer immediately takes over
                            // the queue.
                            let job = match rx.lock() {
                                Ok(guard) => guard.recv(),
                                Err(_) => break,
                            };
                            match job {
                                Ok(job) => job(),
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("spawn rayon-shim worker");
            }
            WorkerPool { tx: Mutex::new(tx) }
        }

        /// Runs `g` over every chunk on the workers, returning per-chunk
        /// outputs in chunk order. Blocks until the whole batch settles;
        /// a panicking chunk is re-raised here (only after every other
        /// job has finished, so no borrow escapes the call).
        pub(crate) fn map_chunks<T, R, G>(&self, chunks: Vec<Vec<T>>, g: G) -> Vec<Vec<R>>
        where
            T: Send,
            R: Send,
            G: Fn(Vec<T>) -> Vec<R> + Sync,
        {
            let n_chunks = chunks.len();
            let slots: Vec<Mutex<Option<Vec<R>>>> =
                (0..n_chunks).map(|_| Mutex::new(None)).collect();
            let latch = Latch {
                state: Mutex::new(BatchState {
                    remaining: n_chunks,
                    panic: None,
                }),
                done: Condvar::new(),
            };
            {
                let g = &g;
                let slots = &slots;
                let latch = &latch;
                let sender = self.tx.lock().expect("pool sender poisoned");
                for (i, chunk) in chunks.into_iter().enumerate() {
                    let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        let out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g(chunk)));
                        let mut state = latch.state.lock().expect("latch poisoned");
                        match out {
                            Ok(v) => *slots[i].lock().expect("slot poisoned") = Some(v),
                            Err(payload) => {
                                if state.panic.is_none() {
                                    state.panic = Some(payload);
                                }
                            }
                        }
                        state.remaining -= 1;
                        if state.remaining == 0 {
                            latch.done.notify_all();
                        }
                    });
                    // SAFETY: the job borrows `g`, `slots` and `latch`
                    // from this stack frame. The wait loop below does not
                    // return until `remaining == 0`, i.e. until every job
                    // of this batch has run to completion (panics are
                    // caught and counted), so the borrows outlive every
                    // use. The transmute only erases the lifetime.
                    let job: Job =
                        unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
                    sender.send(job).expect("pool workers alive");
                }
            }
            let mut state = latch.state.lock().expect("latch poisoned");
            while state.remaining > 0 {
                state = latch.done.wait(state).expect("latch poisoned");
            }
            if let Some(payload) = state.panic.take() {
                drop(state);
                std::panic::resume_unwind(payload);
            }
            drop(state);
            slots
                .into_iter()
                .map(|s| {
                    s.into_inner()
                        .expect("slot poisoned")
                        .expect("chunk finished without a result")
                })
                .collect()
        }
    }

    /// The process-wide pool, spawned lazily with
    /// [`pool_width`](super::pool_width) workers.
    pub(crate) fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(super::pool_width()))
    }
}

/// Splits `items` into at most `parts` contiguous chunks, preserving
/// input order across the concatenation of the chunks.
fn split_chunks<T>(mut items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let chunk = items.len().div_ceil(parts);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(parts);
    // Split off tail-first so each chunk preserves input order.
    while items.len() > chunk {
        let tail = items.split_off(items.len() - chunk);
        chunks.push(tail);
    }
    chunks.push(items);
    chunks.reverse();
    chunks
}

/// Ordered blocks per worker in a parallel map: enough that an idle
/// worker can take over a share of a busy worker's run, few enough that
/// a large map pays for a handful of blocks, not one per item.
const BLOCKS_PER_WORKER: usize = 16;

/// Parallel, order-preserving map over `items` with one scratch value
/// from `init` per worker (the `map_init` pattern; a plain map passes
/// `()`). The one body behind every parallel call: it runs inline, with
/// a single scratch value, when the input is small, the width is one
/// (one core, or a one-thread [`ThreadPool::install`]), or the caller is
/// already inside a worker thread.
fn map_init_vec<T, S, R, I, F>(items: Vec<T>, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let width = current_num_threads();
    let n = items.len();
    if width <= 1 || n < 2 || IN_POOL.with(|c| c.get()) {
        let mut scratch = init();
        return items.into_iter().map(|t| f(&mut scratch, t)).collect();
    }
    map_blocks(pool::global(), width.min(n), items, &init, &f)
}

/// Maps `items` on `workers` jobs of `pool`. The input is cut into
/// ordered blocks, [`BLOCKS_PER_WORKER`] per worker, and each worker owns
/// a contiguous run of them. A worker drains its own run front to back
/// with one scratch value; then, with the same scratch value, it takes
/// the blocks left at the tail of the other runs. Items of uneven cost
/// thus keep every worker busy to the end, while the blocks a worker
/// maps stay mostly contiguous. Block outputs are concatenated in block
/// order, so the result is in input order whoever mapped each block.
fn map_blocks<T, S, R, I, F>(
    pool: &pool::WorkerPool,
    workers: usize,
    items: Vec<T>,
    init: &I,
    f: &F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    use std::sync::Mutex;
    let n = items.len();
    let blocks: Vec<Mutex<Vec<T>>> = split_chunks(items, workers * BLOCKS_PER_WORKER)
        .into_iter()
        .map(Mutex::new)
        .collect();
    let n_blocks = blocks.len();
    // Worker `w` owns blocks `runs[w]`: it takes from the front, and the
    // other workers take from the back once their own runs are empty.
    let runs: Vec<Mutex<Range<usize>>> = (0..workers)
        .map(|w| Mutex::new(w * n_blocks / workers..(w + 1) * n_blocks / workers))
        .collect();
    let take = |w: usize| -> Option<usize> {
        let own = runs[w].lock().expect("run poisoned").next();
        own.or_else(|| {
            (1..workers).find_map(|v| {
                runs[(w + v) % workers]
                    .lock()
                    .expect("run poisoned")
                    .next_back()
            })
        })
    };
    let outputs: Vec<Mutex<Vec<R>>> = (0..n_blocks).map(|_| Mutex::new(Vec::new())).collect();
    // One pool job per worker; each job's own output is empty, its
    // blocks' outputs land in `outputs`.
    pool.map_chunks((0..workers).map(|w| vec![w]).collect(), |w| {
        let mut scratch = init();
        while let Some(b) = take(w[0]) {
            let block = std::mem::take(&mut *blocks[b].lock().expect("block poisoned"));
            let mapped: Vec<R> = block.into_iter().map(|t| f(&mut scratch, t)).collect();
            *outputs[b].lock().expect("output poisoned") = mapped;
        }
        Vec::<()>::new()
    });
    let mut out = Vec::with_capacity(n);
    for block in outputs {
        out.extend(block.into_inner().expect("output poisoned"));
    }
    out
}

/// Fault-tolerant parallel map: like the strict pipeline, every item is
/// mapped in input order — but each item runs under its own
/// `catch_unwind`, so one panicking item yields `None` in its slot
/// instead of poisoning the whole batch after settle. Returns the
/// per-item results plus the number of panics caught.
///
/// The strict pipeline (`par_iter().map(..)`) stays the default; reach
/// for this only at a boundary that must survive corrupt inputs.
pub fn map_catch<T, R, F>(items: Vec<T>, f: F) -> (Vec<Option<R>>, usize)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    map_catch_init(items, || (), |(), t| f(t))
}

/// [`map_catch`] with a per-worker scratch value created by `init`
/// (the `map_init` pattern). A panic mid-item discards that item's
/// result only; the worker's scratch value is reused for the remaining
/// items, which is sound here because each worker builds a fresh scratch.
pub fn map_catch_init<T, S, R, I, F>(items: Vec<T>, init: I, f: F) -> (Vec<Option<R>>, usize)
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let results = map_init_vec(items, init, |scratch, t| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(scratch, t))).ok()
    });
    let caught = results.iter().filter(|r| r.is_none()).count();
    (results, caught)
}

/// Runs `f` with the default panic hook silenced, so panics *caught and
/// recovered* inside (injected worker faults under a tolerant map) do
/// not spray backtraces on stderr. The previous hook is restored before
/// returning, and a panic that escapes `f` is re-raised unchanged.
///
/// The hook is process-global: concurrent panics outside `f` are also
/// silenced for the duration. Use only around a bounded tolerant stage.
pub fn silence_panics<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    let _ = std::panic::take_hook();
    std::panic::set_hook(hook);
    match out {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// A fully-materialized parallel iterator pipeline stage.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// `map` stage.
pub struct Map<T, F> {
    items: Vec<T>,
    f: F,
}

/// `map_init` stage: one `init()` per worker, reused across the items it
/// maps (the allocation-lean scratch pattern).
pub struct MapInit<T, I, F> {
    items: Vec<T>,
    init: I,
    f: F,
}

/// Sink trait for [`ParallelIterator::collect`].
pub trait FromParallelIterator<T>: Sized {
    /// Builds the collection from in-order results.
    fn from_ordered_vec(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered_vec(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// The driving trait (subset of `rayon::iter::ParallelIterator`).
pub trait ParallelIterator: Sized {
    /// Item type produced by the pipeline.
    type Item: Send;

    /// Runs the pipeline, preserving input order.
    fn run(self) -> Vec<Self::Item>;

    /// Maps each item through `f` in parallel.
    fn map<R: Send, F: Fn(Self::Item) -> R + Sync>(self, f: F) -> Map<Self::Item, F> {
        Map {
            items: self.run_items(),
            f,
        }
    }

    /// Like [`map`](Self::map) but threads a per-worker scratch value
    /// created by `init` through consecutive items.
    fn map_init<S, R, I, F>(self, init: I, f: F) -> MapInit<Self::Item, I, F>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Self::Item) -> R + Sync,
    {
        MapInit {
            items: self.run_items(),
            init,
            f,
        }
    }

    /// Collects pipeline output (order-preserving).
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_ordered_vec(self.run())
    }

    #[doc(hidden)]
    fn run_items(self) -> Vec<Self::Item>;
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn run(self) -> Vec<T> {
        self.items
    }

    fn run_items(self) -> Vec<T> {
        self.items
    }
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParallelIterator for Map<T, F> {
    type Item = R;

    fn run(self) -> Vec<R> {
        let f = self.f;
        map_init_vec(self.items, || (), |(), t| f(t))
    }

    fn run_items(self) -> Vec<R> {
        self.run()
    }
}

impl<T, S, R, I, F> ParallelIterator for MapInit<T, I, F>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    type Item = R;

    fn run(self) -> Vec<R> {
        map_init_vec(self.items, self.init, self.f)
    }

    fn run_items(self) -> Vec<R> {
        self.run()
    }
}

/// Owned conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Converts into the pipeline head.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Borrowed conversion (`slice.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: Send;
    /// Converts into the pipeline head.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

pub mod prelude {
    //! One-stop import, mirroring `rayon::prelude`.
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let xs: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_into_result_short_circuits_like_sequential() {
        let xs: Vec<usize> = (0..100).collect();
        let ok: Result<Vec<usize>, String> =
            xs.par_iter().map(|&x| Ok::<_, String>(x + 1)).collect();
        assert_eq!(ok.unwrap()[99], 100);
        let err: Result<Vec<usize>, String> = (0..100)
            .into_par_iter()
            .map(|x| {
                if x == 57 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "bad 57");
    }

    #[test]
    fn map_init_reuses_scratch_within_chunks() {
        let xs: Vec<usize> = (0..64).collect();
        let out: Vec<usize> = xs
            .into_par_iter()
            .map_init(Vec::<usize>::new, |scratch, x| {
                scratch.push(x);
                x
            })
            .collect();
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallelism_is_flattened_and_correct() {
        let outer: Vec<Vec<usize>> = (0..8)
            .into_par_iter()
            .map(|i| (0..32).into_par_iter().map(move |j| i * 100 + j).collect())
            .collect();
        for (i, row) in outer.iter().enumerate() {
            assert_eq!(row.len(), 32);
            assert_eq!(row[5], i * 100 + 5);
        }
    }

    // The dedicated-pool tests construct their own `WorkerPool` so the
    // machinery is exercised even on a single-core machine (where the
    // public pipeline takes the sequential fast path).

    #[test]
    fn worker_id_is_stable_on_pool_and_absent_off_pool() {
        assert_eq!(super::current_worker_id(), None);
        let pool = super::pool::WorkerPool::new(3);
        let chunks: Vec<Vec<usize>> = (0..24).map(|i| vec![i]).collect();
        let ids = pool.map_chunks(chunks, |_| vec![super::current_worker_id()]);
        for id in ids.iter().flatten() {
            let id = id.expect("pool jobs always run on a pool worker");
            assert!(id < 3, "worker index {id} out of range");
        }
        assert_eq!(super::current_worker_id(), None);
    }

    #[test]
    fn pool_map_chunks_preserves_chunk_order() {
        let pool = super::pool::WorkerPool::new(4);
        let chunks: Vec<Vec<usize>> = (0..16).map(|i| vec![i * 10, i * 10 + 1]).collect();
        let out = pool.map_chunks(chunks.clone(), |chunk| {
            chunk.into_iter().map(|x| x + 1).collect()
        });
        let expect: Vec<Vec<usize>> = chunks
            .iter()
            .map(|c| c.iter().map(|x| x + 1).collect())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn pool_workers_persist_across_batches() {
        use std::collections::HashSet;
        use std::thread::ThreadId;
        let pool = super::pool::WorkerPool::new(2);
        let batch_ids = |pool: &super::pool::WorkerPool| -> HashSet<ThreadId> {
            pool.map_chunks((0..8).map(|i| vec![i]).collect(), |chunk| {
                // Slow the job down a touch so both workers participate.
                std::thread::sleep(std::time::Duration::from_millis(1));
                let _ = chunk;
                vec![std::thread::current().id()]
            })
            .into_iter()
            .flatten()
            .collect()
        };
        let first = batch_ids(&pool);
        let second = batch_ids(&pool);
        // Same pool, same threads: the second batch ran on (a subset of)
        // the first batch's workers, proving no re-spawn per call.
        assert!(!first.is_empty());
        assert!(second.is_subset(&first), "{first:?} vs {second:?}");
    }

    #[test]
    fn pool_borrows_caller_stack_soundly() {
        let pool = super::pool::WorkerPool::new(3);
        let data: Vec<usize> = (0..100).collect();
        let slice = &data[..];
        let out = pool.map_chunks(
            (0..10).map(|i| vec![i]).collect(),
            |chunk: Vec<usize>| -> Vec<usize> {
                chunk.into_iter().map(|i| slice[i * 10] + 1).collect()
            },
        );
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).map(|i| i * 10 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn map_catch_contains_panics_and_continues_the_batch() {
        let xs: Vec<usize> = (0..100).collect();
        let (out, caught) = super::silence_panics(|| {
            super::map_catch(xs, |x| {
                if x % 10 == 3 {
                    panic!("injected fault at {x}");
                }
                x * 2
            })
        });
        assert_eq!(out.len(), 100);
        assert_eq!(caught, 10);
        for (i, slot) in out.iter().enumerate() {
            if i % 10 == 3 {
                assert_eq!(*slot, None);
            } else {
                assert_eq!(*slot, Some(i * 2));
            }
        }
    }

    #[test]
    fn map_catch_matches_strict_map_when_nothing_panics() {
        let xs: Vec<usize> = (0..256).collect();
        let strict: Vec<usize> = xs.clone().into_par_iter().map(|x| x + 7).collect();
        let (tolerant, caught) = super::map_catch(xs, |x| x + 7);
        assert_eq!(caught, 0);
        let tolerant: Vec<usize> = tolerant.into_iter().map(Option::unwrap).collect();
        assert_eq!(tolerant, strict);
    }

    #[test]
    fn map_catch_init_reuses_scratch_and_counts_panics() {
        let xs: Vec<usize> = (0..64).collect();
        let (out, caught) = super::silence_panics(|| {
            super::map_catch_init(
                xs,
                || 0usize,
                |seen, x| {
                    *seen += 1;
                    if x == 31 {
                        panic!("boom");
                    }
                    x
                },
            )
        });
        assert_eq!(caught, 1);
        assert_eq!(out[31], None);
        assert_eq!(out.iter().filter(|r| r.is_some()).count(), 63);
    }

    #[test]
    fn map_catch_sequential_path_contains_panics_too() {
        // A single item takes the sequential fast path regardless of
        // core count; the panic must still be contained there.
        let (out, caught) =
            super::silence_panics(|| super::map_catch(vec![5usize], |_| -> usize { panic!("x") }));
        assert_eq!(out, vec![None]);
        assert_eq!(caught, 1);
    }

    #[test]
    fn silence_panics_returns_value_and_reraises_escaping_panics() {
        assert_eq!(super::silence_panics(|| 41 + 1), 42);
        let escaped = std::panic::catch_unwind(|| super::silence_panics(|| panic!("through")));
        assert!(escaped.is_err());
        // The previous hook is restored: a normal panic after the call
        // still reaches a hook (smoke-checked by catching one quietly).
        let again = std::panic::catch_unwind(|| super::silence_panics(|| 1));
        assert_eq!(again.unwrap(), 1);
    }

    fn one_thread() -> super::ThreadPool {
        super::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("the shim always builds")
    }

    #[test]
    fn one_thread_install_runs_every_call_inline() {
        let outside = super::current_num_threads();
        let (width, mapped, caught) = one_thread().install(|| {
            let width = super::current_num_threads();
            let xs: Vec<usize> = (0..64).collect();
            let mapped: Vec<(usize, Option<usize>)> = xs
                .par_iter()
                .map(|&x| (x, super::current_worker_id()))
                .collect();
            let (caught, _) =
                super::map_catch_init(xs, || (), |(), x| (x, super::current_worker_id()));
            (width, mapped, caught)
        });
        assert_eq!(width, 1);
        for (i, (x, worker)) in mapped.into_iter().enumerate() {
            assert_eq!((x, worker), (i, None), "map ran off the calling thread");
        }
        for (i, slot) in caught.into_iter().enumerate() {
            assert_eq!(
                slot,
                Some((i, None)),
                "map_catch_init ran off the calling thread"
            );
        }
        assert_eq!(
            super::current_num_threads(),
            outside,
            "cap restored on return"
        );
    }

    #[test]
    fn install_restores_the_cap_after_a_panic_and_when_nested() {
        let outside = super::current_num_threads();
        let unwound = std::panic::catch_unwind(|| {
            super::silence_panics(|| one_thread().install(|| panic!("inside install")))
        });
        assert!(unwound.is_err());
        assert_eq!(
            super::current_num_threads(),
            outside,
            "cap restored on unwind"
        );
        let three = super::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let (inner, outer) = three.install(|| {
            let inner = one_thread().install(super::current_num_threads);
            (inner, super::current_num_threads())
        });
        assert_eq!(
            (inner, outer),
            (1, 3),
            "a nested install restores the outer cap"
        );
        assert_eq!(super::current_num_threads(), outside);
        // Width 0 is the process-wide default, as in the real crate.
        let default = super::ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(
            default.install(super::current_num_threads),
            super::pool_width()
        );
    }

    #[test]
    fn two_thread_install_keeps_input_order() {
        let two = super::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let (mapped, inited, caught) = two.install(|| {
            assert_eq!(super::current_num_threads(), 2);
            let mapped: Vec<usize> = (0..1000).into_par_iter().map(|x| x * 3).collect();
            let inited: Vec<usize> = (0..1000)
                .into_par_iter()
                .map_init(|| 1usize, |one, x| x + *one)
                .collect();
            let (caught, n) = super::map_catch((0..1000).collect(), |x: usize| x + 2);
            assert_eq!(n, 0);
            (mapped, inited, caught)
        });
        assert_eq!(mapped, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(inited, (1..1001).collect::<Vec<_>>());
        assert_eq!(caught, (2..1002).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn an_idle_worker_takes_the_tail_of_a_busy_run() {
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        // Item 0 waits for the last item of the first half. Under one
        // contiguous chunk per worker that item would sit behind item 0
        // on the same worker and the wait would time out; with blocks,
        // the second worker takes it once its own run is done.
        let pool = super::pool::WorkerPool::new(2);
        let n = 16;
        let done = (Mutex::new(false), Condvar::new());
        let timed_out = super::map_blocks(&pool, 2, (0..n).collect(), &|| (), &|(), i: usize| {
            if i == 0 {
                let guard = done.0.lock().unwrap();
                let (guard, wait) = done
                    .1
                    .wait_timeout_while(guard, Duration::from_secs(10), |done| !*done)
                    .unwrap();
                drop(guard);
                return wait.timed_out();
            }
            if i == n / 2 - 1 {
                *done.0.lock().unwrap() = true;
                done.1.notify_all();
            }
            false
        });
        assert_eq!(timed_out.len(), n);
        assert!(
            !timed_out[0],
            "the first half's last item ran behind item 0"
        );
    }

    #[test]
    fn pool_propagates_panics_after_batch_settles() {
        let pool = super::pool::WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_chunks((0..6).map(|i| vec![i]).collect(), |chunk| {
                if chunk[0] == 3 {
                    panic!("boom in chunk 3");
                }
                chunk
            })
        }));
        let err = result.expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
        // The pool survives a panicking batch.
        let ok = pool.map_chunks(vec![vec![1usize], vec![2]], |c| c);
        assert_eq!(ok, vec![vec![1], vec![2]]);
    }
}
