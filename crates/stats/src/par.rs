//! Std-only parallel execution layer for the workspace's hot paths.
//!
//! The build environment has no registry access, so rayon is out; this
//! module provides the small subset the pipeline needs on top of
//! `std::thread::scope`:
//!
//! - [`par_map`]: map a function over a slice on a worker pool, with
//!   results collected **in index order** so the output is bit-for-bit
//!   identical to the serial `iter().map().collect()` whenever the
//!   mapped function is deterministic per element.
//! - A `VBR_THREADS` environment override (and a programmatic
//!   [`with_threads`] scope for tests) controlling the pool width.
//! - A nested-parallelism guard: a `par_map` issued from inside another
//!   `par_map` worker runs serially, so parallel callers composed of
//!   parallel callees (e.g. a Q-C capacity sweep whose inner multiplexer
//!   run is itself parallel) cannot multiply thread counts.
//! - [`Lookahead`]: a one-job slot served by one persistent background
//!   worker, for work a caller wants later (a stream's next window);
//!   the owner takes back a job the worker has not started instead of
//!   waiting for it.
//!
//! # Determinism contract
//!
//! `par_map(items, f)` returns exactly `items.iter().map(f).collect()`
//! as long as `f` is a pure function of its argument. Work is handed out
//! by an atomic index dispenser (so load balances across uneven items),
//! but every result is written back to its input's slot — scheduling
//! order never leaks into the output. All downstream parallel entry
//! points (estimator ensembles, MuxSim combination runs, Q-C sweeps,
//! batch generation) inherit this guarantee and are therefore
//! reproducible regardless of `VBR_THREADS`.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

thread_local! {
    /// True inside a par_map worker: nested calls degrade to serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Programmatic thread-count override (see [`with_threads`]).
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads the parallel layer will use, in precedence
/// order: the innermost active [`with_threads`] scope, then the
/// `VBR_THREADS` environment variable, then the machine's available
/// parallelism. Always at least 1.
pub fn num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    if let Some(n) = std::env::var("VBR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `f` with the parallel layer pinned to `threads` workers,
/// restoring the previous setting afterwards. The override is
/// thread-local and takes precedence over `VBR_THREADS`, so tests can
/// compare thread counts side by side without touching the (process-
/// global, race-prone) environment.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            THREAD_OVERRIDE.with(|o| o.set(prev));
        }
    }
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(threads.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Maps `f` over `items` on the configured worker pool (see
/// [`num_threads`]); output order and values match the serial map
/// bit-for-bit for deterministic `f`. Panics in `f` propagate.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(num_threads(), items, f)
}

/// Total work (in approximate primitive element operations, summed over
/// all items) below which [`par_map_sized`] runs serially.
///
/// The pool is scoped: every parallel call spawns and joins all its
/// workers but the calling thread, which runs one share itself; that
/// costs on the order of 100 µs. An element operation (a queue
/// step, a periodogram term, a per-frame generation step) runs in the
/// nanoseconds, so below a few hundred thousand of them the spawn/join
/// tax outweighs any speedup — `BENCH_pipeline.json` recorded the
/// 4-member estimator ensemble at n = 65 536 (work 2¹⁸) running 10 %
/// *slower* parallel than serial, which puts the break-even above 2¹⁸.
/// Above the threshold, per-item imbalance, not overhead, is the
/// limiter.
pub const MIN_PARALLEL_WORK: usize = 1 << 19;

/// True when the caller (or environment) pinned an explicit thread
/// count: an active [`with_threads`] scope or a `VBR_THREADS` setting.
fn threads_pinned() -> bool {
    THREAD_OVERRIDE.with(|o| o.get()).is_some()
        || std::env::var_os("VBR_THREADS").is_some()
}

/// [`par_map`] with a caller-supplied estimate of the total work: the
/// approximate number of primitive element operations summed over all
/// items (e.g. `slots × combinations` for queue replays, `series length
/// × ensemble size` for estimator ensembles). Runs serially — same
/// values, same order, no worker spawn — when the estimate is below
/// [`MIN_PARALLEL_WORK`].
///
/// An explicit thread configuration always wins: inside a
/// [`with_threads`] scope or under `VBR_THREADS`, the threshold is
/// bypassed and the call dispatches exactly like [`par_map`], so tests
/// and benchmarks can still force pool scheduling on any workload.
///
/// Because [`par_map`]'s output is bit-identical to the serial map for
/// deterministic `f`, the threshold changes scheduling only, never
/// results.
pub fn par_map_sized<T, U, F>(work: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(sized_width(work), items, f)
}

/// Workers a [`par_map_sized`] call with this `work` estimate would use
/// here and now: 1 inside a pool worker or below the work threshold,
/// else [`num_threads`]. Callers that batch items per worker size their
/// batches from it.
pub fn sized_width(work: usize) -> usize {
    let nested = IN_WORKER.with(|w| w.get());
    if nested || (work < MIN_PARALLEL_WORK && !threads_pinned()) {
        1
    } else {
        num_threads()
    }
}

/// A one-job slot between its owner and the pool's background worker:
/// the owner [`post`](Self::post)s a value, the worker runs the slot's
/// job on it while the owner carries on, and the owner
/// [`take`](Self::take)s it back later (a stream synthesising its next
/// window while the current one is consumed).
///
/// The owner never waits for the worker to *start*: a value the worker
/// has not picked up yet is taken back and its job run on the owner's
/// thread, so a busy or descheduled worker costs the owner one queue
/// push, not a wait. Only a job the worker is already running is
/// waited for. Either way the job runs exactly once, on exactly one
/// thread, so results do not depend on which thread ran it.
///
/// The worker is one process-wide thread, started on first use; it
/// runs under the nested-parallelism guard and allocates nothing per
/// job. Neither side sleeps on the other's short gaps: the owner spins
/// (yielding) on a running job instead of blocking, and the worker,
/// after a job, spins for as long as that job took before it sleeps
/// until the next post. On a VM a thread that blocks idles its virtual
/// CPU, and waking it again waits for the host to schedule that CPU —
/// a wait that grows with the host's load and, paid twice a window,
/// made a look-ahead stream's speed swing from run to run.
pub struct Lookahead<T: Send + 'static> {
    slot: Arc<Slot<T>>,
}

struct Slot<T> {
    state: Mutex<SlotState<T>>,
    /// True while the worker runs the job (state `Running`); the owner
    /// spins on it.
    running: AtomicBool,
    job: fn(&mut T),
}

enum SlotState<T> {
    Empty,
    Posted(T),
    Running,
    Done(T),
    Panicked(Box<dyn Any + Send>),
}

/// A queued slot, type-erased for the worker.
trait Run: Send + Sync {
    fn run(&self);
}

impl<T: Send> Slot<T> {
    /// Every update under a slot or queue lock is a single assignment,
    /// push or pop, and jobs run unlocked, so a poisoned lock still
    /// guards valid data.
    fn lock(&self) -> MutexGuard<'_, SlotState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Send> Run for Slot<T> {
    /// The worker's side: runs the job if its value is still posted
    /// (the owner may have taken it back meanwhile).
    fn run(&self) {
        let mut state = self.lock();
        let mut value = match std::mem::replace(&mut *state, SlotState::Running) {
            SlotState::Posted(value) => value,
            other => {
                // Taken back, or queued again by a later post and run.
                *state = other;
                return;
            }
        };
        self.running.store(true, Ordering::Release);
        drop(state);
        let ran = std::panic::catch_unwind(AssertUnwindSafe(|| (self.job)(&mut value)));
        let mut state = self.lock();
        *state = match ran {
            Ok(()) => SlotState::Done(value),
            Err(panic) => SlotState::Panicked(panic),
        };
        self.running.store(false, Ordering::Release);
    }
}

/// Slots waiting for the background worker, oldest first. The worker
/// lives as long as the process and is never joined: it holds no
/// result of its own, and a job's panic reaches the job's owner through
/// its slot.
static QUEUE: Mutex<VecDeque<Arc<dyn Run>>> = Mutex::new(VecDeque::new());
/// Length of `QUEUE`, readable without its lock by the spinning worker.
static QUEUED_LEN: AtomicUsize = AtomicUsize::new(0);
static QUEUED: Condvar = Condvar::new();
/// Whether the background worker is running (spawned on first use).
static WORKER: OnceLock<bool> = OnceLock::new();

fn background_worker() {
    IN_WORKER.with(|w| w.set(true));
    let mut last_job = Duration::ZERO;
    loop {
        // An owner posts again about one job's length after the last,
        // so wait that long awake before sleeping.
        let idle = Instant::now();
        while QUEUED_LEN.load(Ordering::Acquire) == 0 && idle.elapsed() < last_job {
            std::thread::yield_now();
        }
        let job = {
            let mut queue = QUEUE.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    QUEUED_LEN.store(queue.len(), Ordering::Release);
                    break job;
                }
                queue = QUEUED.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let started = Instant::now();
        job.run();
        last_job = started.elapsed();
    }
}

impl<T: Send + 'static> Lookahead<T> {
    /// An empty slot whose posted values get `job` run on them.
    pub fn new(job: fn(&mut T)) -> Self {
        Lookahead {
            slot: Arc::new(Slot {
                state: Mutex::new(SlotState::Empty),
                running: AtomicBool::new(false),
                job,
            }),
        }
    }

    /// Hands `value` to the background worker. Any value still in the
    /// slot is dropped first (after its job, if the worker is running
    /// it). Without a worker (its thread could not be spawned) the value
    /// just waits in the slot for [`take`](Self::take) to run the job.
    pub fn post(&self, value: T) {
        drop(self.cancel());
        *self.slot.lock() = SlotState::Posted(value);
        if *WORKER.get_or_init(|| std::thread::Builder::new().spawn(background_worker).is_ok()) {
            let mut queue = QUEUE.lock().unwrap_or_else(PoisonError::into_inner);
            queue.push_back(self.slot.clone());
            QUEUED_LEN.store(queue.len(), Ordering::Release);
            drop(queue);
            QUEUED.notify_one();
        }
    }

    /// The posted value with its job run: by the worker, or here if the
    /// worker has not started it. `None` when nothing is posted. A panic
    /// in the job propagates.
    pub fn take(&self) -> Option<T> {
        match self.wait_unless_posted() {
            SlotState::Posted(mut value) => {
                (self.slot.job)(&mut value);
                Some(value)
            }
            SlotState::Done(value) => Some(value),
            SlotState::Panicked(panic) => std::panic::resume_unwind(panic),
            _ => None,
        }
    }

    /// The posted value back, its job run or not (run if the worker has
    /// already run or started it; never run here). `None` when nothing
    /// is posted or the job panicked.
    pub fn cancel(&self) -> Option<T> {
        match self.wait_unless_posted() {
            SlotState::Posted(value) | SlotState::Done(value) => Some(value),
            _ => None,
        }
    }

    /// Empties the slot and returns its state, first waiting out a job
    /// the worker is running (spinning, see the type docs).
    fn wait_unless_posted(&self) -> SlotState<T> {
        loop {
            let mut state = self.slot.lock();
            if !matches!(*state, SlotState::Running) {
                return std::mem::replace(&mut *state, SlotState::Empty);
            }
            drop(state);
            while self.slot.running.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
    }
}

impl<T: Send + 'static> Drop for Lookahead<T> {
    /// A value the worker has not started is dropped unrun; one it is
    /// running is dropped by the worker when it finishes.
    fn drop(&mut self) {
        let mut state = self.slot.lock();
        if !matches!(*state, SlotState::Running) {
            *state = SlotState::Empty;
        }
    }
}

impl<T: Send + 'static> std::fmt::Debug for Lookahead<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lookahead").finish_non_exhaustive()
    }
}

/// [`par_map`] with an explicit worker count, bypassing configuration.
/// The calling thread is one of the `threads` workers, so a call
/// spawns `threads − 1` scoped threads.
pub fn par_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let nested = IN_WORKER.with(|w| w.get());
    if threads <= 1 || n <= 1 || nested {
        return items.iter().map(f).collect();
    }
    let threads = threads.min(n);
    let next = AtomicUsize::new(0);
    let f = &f;

    // Each worker, the caller included, pulls indices from the shared
    // dispenser and keeps (index, value) pairs; the merge below
    // restores input order.
    let share = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(&items[i])));
        }
        local
    };
    let per_worker: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(|| as_worker(share))).collect();
        let own = std::panic::catch_unwind(AssertUnwindSafe(|| as_worker(share)));
        std::iter::once(own)
            .chain(handles.into_iter().map(|h| h.join()))
            .map(|r| r.expect("par_map worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for pairs in per_worker {
        for (i, v) in pairs {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("par_map left an index unprocessed"))
        .collect()
}

/// Runs `f(index, &mut item)` over every element of `items` on the
/// configured worker pool — the in-place counterpart of [`par_map`] for
/// workloads that *advance* owned state (one shard of a source fleet
/// per element) instead of producing values.
///
/// The slice is split into contiguous chunks, one worker per chunk (the
/// calling thread takes the first), so every element is visited
/// exactly once with exclusive access. Because each element is
/// advanced independently of every other, the result is identical to
/// the serial `for` loop regardless of worker count — determinism
/// comes from data disjointness, not scheduling. The
/// nested-parallelism guard applies: a call issued from inside another
/// parallel worker runs serially. Panics in `f` propagate.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_for_each_mut_with(num_threads(), items, f)
}

/// [`par_for_each_mut`] with an explicit worker count, bypassing
/// configuration.
pub fn par_for_each_mut_with<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = threads.max(1);
    let chunk = items.len().div_ceil(threads).max(1);
    par_chunks_mut_with(items, chunk, &mut vec![(); threads], |ci, part, _| {
        for (j, item) in part.iter_mut().enumerate() {
            f(ci * chunk + j, item);
        }
    });
}

/// Runs `share` as one of a parallel call's workers, on a spawned
/// thread or the calling one: nested parallel calls inside it run
/// serially. The thread's previous flag comes back on return and on
/// unwind, so a caller that ran a share is a caller again afterwards.
fn as_worker<R>(share: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            IN_WORKER.with(|w| w.set(prev));
        }
    }
    let _restore = Restore(IN_WORKER.with(|w| w.replace(true)));
    share()
}

/// Runs `f(index, part, state)` over `items.chunks_mut(chunk)` zipped
/// with `states`: one worker per pair, each with exclusive access
/// to one contiguous run of `items` and one caller-owned workspace. Pairs
/// stop at the shorter side, so the caller picks the width by how many
/// states it passes. [`par_for_each_mut`] is this with stateless
/// workers; a caller whose workers need their own scratch keeps the
/// workspaces across calls, so a hot loop allocates none of its own.
///
/// Every item of a paired chunk is visited by exactly one worker (items
/// past the last paired chunk are not visited), so the result is the
/// serial loop's whenever `f` treats items independently. The calling
/// thread runs the first pair itself and spawns one scoped worker per
/// other pair. A single pair, or a call from inside another parallel
/// worker, runs wholly on the calling thread. Panics in `f` propagate.
///
/// # Panics
/// If `chunk == 0`.
pub fn par_chunks_mut_with<T, S, F>(items: &mut [T], chunk: usize, states: &mut [S], f: F)
where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    let serial = IN_WORKER.with(|w| w.get()) || items.len() <= chunk || states.len() <= 1;
    let mut pairs = items.chunks_mut(chunk).zip(states).enumerate();
    if serial {
        for (ci, (part, state)) in pairs {
            f(ci, part, state);
        }
        return;
    }
    let f = &f;
    let own = pairs.next();
    std::thread::scope(|scope| {
        for (ci, (part, state)) in pairs {
            scope.spawn(move || as_worker(|| f(ci, part, state)));
        }
        if let Some((ci, (part, state))) = own {
            as_worker(|| f(ci, part, state));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(x: &f64) -> f64 {
        // A deliberately non-associative float chain: any reordering of
        // operations across elements would show up bit-for-bit.
        let mut acc = *x;
        for k in 1..50 {
            acc = acc * 1.000001 + (k as f64).sin() * 1e-7;
        }
        acc
    }

    #[test]
    fn matches_serial_bit_for_bit() {
        let xs: Vec<f64> = (0..997).map(|i| i as f64 * 0.37 - 100.0).collect();
        let serial: Vec<f64> = xs.iter().map(noisy).collect();
        for &t in &[1usize, 2, 3, 8, 32] {
            let par = par_map_with(t, &xs, noisy);
            assert_eq!(par, serial, "threads = {t}");
        }
    }

    #[test]
    fn sized_threshold_changes_scheduling_not_results() {
        let xs: Vec<f64> = (0..257).map(|i| i as f64 * 1.7).collect();
        let serial: Vec<f64> = xs.iter().map(noisy).collect();
        // Below the threshold (serial path) and above it (pool path)
        // must agree bit-for-bit.
        assert_eq!(par_map_sized(0, &xs, noisy), serial);
        assert_eq!(par_map_sized(MIN_PARALLEL_WORK, &xs, noisy), serial);
        // A pinned thread count bypasses the threshold (pool path even
        // for tiny work) without changing values.
        with_threads(4, || {
            assert_eq!(par_map_sized(0, &xs, noisy), serial);
            assert_eq!(sized_width(0), 4);
            // Inside a worker every sized call is serial.
            assert_eq!(par_map_with(2, &[0, 1], |_| sized_width(usize::MAX)), [1, 1]);
        });
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = num_threads();
        with_threads(5, || {
            assert_eq!(num_threads(), 5);
            with_threads(2, || assert_eq!(num_threads(), 2));
            assert_eq!(num_threads(), 5);
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn nested_par_map_runs_serially_but_correctly() {
        let xs: Vec<usize> = (0..16).collect();
        let got = par_map_with(4, &xs, |&i| {
            let inner: Vec<usize> = (0..8).collect();
            // Inside a worker this must degrade to a plain serial map.
            par_map_with(4, &inner, |&j| i * 100 + j)
        });
        for (i, row) in got.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, i * 100 + j);
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(8, &[7], |&x: &i32| x * 2), vec![14]);
    }

    #[test]
    fn load_imbalance_does_not_change_order() {
        // Element 0 is far slower than the rest; its result must still
        // land first.
        let xs: Vec<u64> = (0..64).collect();
        let got = par_map_with(8, &xs, |&i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 3
        });
        let want: Vec<u64> = xs.iter().map(|&i| i * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn for_each_mut_matches_serial_mutation() {
        let init: Vec<f64> = (0..331).map(|i| i as f64 * 0.61 - 40.0).collect();
        let advance = |i: usize, x: &mut f64| {
            // Non-associative per-element chain seeded by the index.
            for k in 0..30 {
                *x = *x * 1.0000007 + ((i + k) as f64).cos() * 1e-6;
            }
        };
        let mut serial = init.clone();
        for (i, x) in serial.iter_mut().enumerate() {
            advance(i, x);
        }
        for &t in &[1usize, 2, 3, 8, 64] {
            let mut par = init.clone();
            par_for_each_mut_with(t, &mut par, advance);
            assert_eq!(par, serial, "threads = {t}");
        }
    }

    #[test]
    fn for_each_mut_nested_runs_serially() {
        let mut outer: Vec<Vec<usize>> = (0..8).map(|_| (0..4).collect()).collect();
        par_for_each_mut_with(4, &mut outer, |i, row| {
            par_for_each_mut_with(4, row, |j, v| *v = i * 10 + j);
        });
        for (i, row) in outer.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, i * 10 + j);
            }
        }
    }

    #[test]
    fn for_each_mut_empty_and_singleton() {
        let mut empty: Vec<i32> = Vec::new();
        par_for_each_mut_with(8, &mut empty, |_, _| unreachable!());
        let mut one = [5i32];
        par_for_each_mut_with(8, &mut one, |_, v| *v *= 2);
        assert_eq!(one, [10]);
    }

    #[test]
    fn chunks_mut_visits_each_item_once_with_its_state() {
        let cases = [(0usize, 4usize, 3usize), (10, 4, 3), (10, 4, 2), (10, 20, 3), (9, 3, 5)];
        for (n, chunk, width) in cases {
            let mut items = vec![0usize; n];
            let mut states = vec![0usize; width];
            par_chunks_mut_with(&mut items, chunk, &mut states, |ci, part, calls| {
                *calls += 1;
                for (j, x) in part.iter_mut().enumerate() {
                    *x += ci * chunk + j + 1;
                }
            });
            // Items past the last paired chunk stay untouched.
            let covered = n.min(chunk * width);
            let want: Vec<usize> = (0..n).map(|i| if i < covered { i + 1 } else { 0 }).collect();
            assert_eq!(items, want, "n {n} chunk {chunk} width {width}");
            let pairs = n.div_ceil(chunk).min(width);
            assert!(states[..pairs].iter().all(|&c| c == 1));
            assert!(states[pairs..].iter().all(|&c| c == 0));
        }
        // The caller runs the first pair and spawned workers the rest,
        // except inside another worker, where every pair runs on the
        // calling thread.
        let on_caller = || {
            let me = std::thread::current().id();
            let mut states = [false; 3];
            par_chunks_mut_with(&mut [0u8; 6], 2, &mut states, |_, _, here| {
                *here = std::thread::current().id() == me;
            });
            states
        };
        assert_eq!(on_caller(), [true, false, false]);
        assert_eq!(par_map_with(2, &[0u8, 1], |_| on_caller()), [[true; 3]; 2]);
    }

    fn step(v: &mut (u64, u32)) {
        v.0 = v.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        v.1 += 1;
    }

    #[test]
    fn lookahead_runs_each_posted_job_exactly_once() {
        let slot = Lookahead::new(step);
        assert!(slot.take().is_none(), "nothing posted");
        for i in 0..300u64 {
            slot.post((i, 0));
            if i % 3 == 0 {
                // Let the worker get to some jobs first; the owner takes
                // the others back and runs them itself.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let mut want = (i, 0);
            step(&mut want);
            assert_eq!(slot.take(), Some(want), "job {i}");
            assert!(slot.take().is_none(), "taken once");
        }
        // Cancel hands the value back, its job run at most once.
        slot.post((7, 0));
        assert!(slot.cancel().is_some_and(|(_, runs)| runs <= 1));
        assert!(slot.cancel().is_none());
    }

    /// A job that reports where it ran and, when given channels, signals
    /// its start and then blocks until released.
    #[derive(Default)]
    struct Probe {
        started: Option<std::sync::mpsc::Sender<()>>,
        release: Option<std::sync::mpsc::Receiver<()>>,
        ran_on: Option<std::thread::ThreadId>,
    }

    fn probe(p: &mut Probe) {
        p.ran_on = Some(std::thread::current().id());
        if let Some(started) = &p.started {
            started.send(()).unwrap();
        }
        if let Some(release) = &p.release {
            release.recv().unwrap();
        }
    }

    #[test]
    fn lookahead_takes_back_a_job_the_worker_has_not_started() {
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let busy = Lookahead::new(probe);
        busy.post(Probe { started: Some(started_tx), release: Some(release_rx), ran_on: None });
        started.recv().unwrap(); // the worker is now inside `busy`'s job
        let queued = Lookahead::new(probe);
        queued.post(Probe::default());
        let me = std::thread::current().id();
        assert_eq!(queued.take().unwrap().ran_on, Some(me), "taken back, run here");
        release.send(()).unwrap();
        let ran_on = busy.take().unwrap().ran_on;
        assert!(ran_on.is_some_and(|t| t != me), "waited for the worker's run");
    }

    #[test]
    fn lookahead_job_panic_reaches_the_owner() {
        let slot = Lookahead::new(|_: &mut u8| panic!("job failed"));
        for _ in 0..4 {
            slot.post(1);
            let taken = std::panic::catch_unwind(AssertUnwindSafe(|| slot.take()));
            assert!(taken.is_err());
            assert!(slot.take().is_none(), "a panicked job leaves the slot empty");
        }
    }

    #[test]
    fn callers_share_runs_as_a_worker_and_restores_the_flag() {
        let in_worker = || IN_WORKER.with(|w| w.get());
        assert!(!in_worker());
        // Every item, the caller's share included, sees the nested guard.
        assert_eq!(par_map_with(3, &[0u8; 12], |_| in_worker()), [true; 12]);
        let mut states = [false; 3];
        par_chunks_mut_with(&mut [0u8; 6], 2, &mut states, |_, _, s| *s = in_worker());
        assert_eq!(states, [true; 3]);
        assert!(!in_worker(), "restored after the call");
        // Restored on unwind too, whichever share panicked.
        for bad in 0..4u8 {
            let run = std::panic::catch_unwind(|| {
                par_map_with(2, &[0u8, 1, 2, 3], |&x| assert_ne!(x, bad));
            });
            assert!(run.is_err());
            assert!(!in_worker(), "restored after a panic in item {bad}");
            let run = std::panic::catch_unwind(|| {
                par_chunks_mut_with(&mut [0u8, 1, 2, 3], 2, &mut [(); 2], |_, part, _| {
                    assert!(!part.contains(&bad));
                });
            });
            assert!(run.is_err());
            assert!(!in_worker(), "restored after a panic in chunk of {bad}");
        }
    }

    #[test]
    fn threads_spawned_per_call_are_width_minus_one() {
        // Items that wait for each other's start, so each of the three
        // workers takes one: the caller and two spawned threads.
        let started = AtomicUsize::new(0);
        let ran_on = par_map_with(3, &[0u8; 3], |_| {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < 3 {
                std::thread::yield_now();
            }
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ran_on.iter().collect();
        assert_eq!(distinct.len(), 3);
        assert!(ran_on.contains(&std::thread::current().id()), "the caller ran a share");
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let xs: Vec<i32> = (0..8).collect();
        par_map_with(4, &xs, |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}
