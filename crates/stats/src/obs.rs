//! Observability: process-global counters, log₂ histograms, and a
//! span/event tracing collector for the whole pipeline.
//!
//! The LRD pipeline is a chain of numerically delicate stages whose
//! failure modes are *silent by design*: `robust_hurst` swaps
//! estimators, `RobustFgn` swaps generators, the caches rebuild evicted
//! entries — output always appears, and nothing says which path
//! produced it. This module makes those paths visible without touching
//! them:
//!
//! - **Counters** ([`Counter`]) are always-on monotonic `u64`s behind
//!   relaxed atomics: cache hits/misses/evictions, stream blocks, seam
//!   cross-fades, fallback activations, Whittle iterations, queue
//!   overflow slots. Hot loops accumulate locally and flush once per
//!   block, so the steady-state cost is one `fetch_add` per block, not
//!   per sample.
//! - **Histograms** ([`Hist`]) are log₂-bucketed counters for value
//!   distributions (FFT sizes, span durations, queue block lengths).
//! - **Spans and events** record *which* stage ran, nested how, for how
//!   long, at what peak RSS — but only when a collector is installed
//!   ([`install_collector`]). With no collector, [`span`] is one relaxed
//!   atomic load and returns an inert guard: the tracing layer is
//!   zero-cost by default and is therefore safe to leave in every hot
//!   path permanently.
//!
//! ## Determinism contract
//!
//! Instrumentation is *write-only* from the pipeline's point of view:
//! no library code ever reads a counter, histogram, or the collector
//! state to make a decision. Enabling or disabling the collector — or
//! racing it from another thread — cannot change a single output bit of
//! any generator, estimator, or queue (property-tested in
//! `vbr-bench/tests/obs.rs`). The only data flowing back out is through
//! the explicit reporting APIs ([`counters`], [`snapshot`],
//! [`hist_buckets`]), which exist for binaries and tests.
//!
//! ## Overhead budget
//!
//! DESIGN.md §12 budgets ≤ 2% on the `kernels_simd` benches with no
//! collector and ≤ 5% end-to-end with one installed;
//! `pipeline_bench --obs-check` measures the latter in CI.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Every monotonic counter the workspace exposes. Counters are
/// process-global, always active, and reset only via [`reset_counters`]
/// (tests and report epochs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// FFT plan cache: request served from the cache.
    FftPlanHit,
    /// FFT plan cache: request that had to build a plan.
    FftPlanMiss,
    /// FFT plan cache: cold plan evicted to admit a new size.
    FftPlanEvict,
    /// fGn/fARIMA vector caches (ACVF, spectrum, reflections): hit.
    FgnCacheHit,
    /// fGn/fARIMA vector caches: miss (build scheduled).
    FgnCacheMiss,
    /// fGn/fARIMA vector caches: least-recently-used entry evicted.
    FgnCacheEvict,
    /// `Periodogram::of`: a series' periodogram served from the memo.
    PeriodogramHit,
    /// `Periodogram::of`: a periodogram computed and memoized.
    PeriodogramMiss,
    /// `Periodogram::of`: least-recently-used periodogram evicted.
    PeriodogramEvict,
    /// Streaming generators: circulant windows synthesised.
    StreamBlocks,
    /// Streaming generators: window seams joined by a cross-fade.
    SeamCrossFades,
    /// `RobustFgn`: Davies–Harte rejected, Hosking fallback activated.
    HoskingFallback,
    /// Whittle estimator: golden-section iterations executed.
    WhittleIterations,
    /// `robust_hurst`: ensemble runs completed.
    RobustHurstRuns,
    /// `robust_hurst`: headline answered by a non-Whittle fallback.
    EstimatorFallback,
    /// Fluid queue: slots in which the buffer overflowed (lost > 0),
    /// counted only in simulated lanes. A speculative Q-C search adds
    /// only the lanes on its decision path, so the count equals a
    /// one-probe-per-replay search's over the levels it replays; levels
    /// a zero-loss search decides from the exact zero-loss capacity
    /// simulate nothing and add nothing.
    QueueOverflowSlots,
    /// Multiplexer replays: simulated arrival passes over every lag
    /// combination (`MuxSim::run`/`run_lanes`, one per speculative Q-C
    /// pass of up to five levels) and model-driven source runs. The
    /// window-ratio scan behind a zero-loss search is not a replay and
    /// is not counted.
    MuxRuns,
    /// Q–C sweeps: capacity bisection levels decided (one per level,
    /// however many levels a shared pass decides).
    QcProbes,
    /// Checkpoint store: snapshots durably written (tmp + rename).
    CheckpointWrites,
    /// Checkpoint store: runs resumed from a restored snapshot.
    CheckpointResumes,
    /// Checkpoint store: degradations — a snapshot was missing or
    /// corrupt and the run fell back to an older generation or a cold
    /// start. This is the alarm counter of the degradation ladder
    /// (DESIGN.md §13): it must stay 0 on a healthy deployment.
    CheckpointFallbacks,
    /// Plan/spectrum caches: lock acquisitions that actually waited for
    /// another thread. Covers the FFT complex/real plan caches (counted
    /// inside `vbr-fft`, merged here), the fGn/fARIMA vector-cache
    /// map locks and the periodogram memo's. Those locks wrap lookup/insert only — never a build
    /// or an FFT execution — so under the sharded serving load this
    /// must stay near zero (DESIGN.md §15; `fleet_bench` proves it).
    PlanCacheContention,
    /// Fleet: sources admitted (lifetime total; the live count is
    /// `admitted − retired`, and the serve layer reports it directly).
    FleetSourcesAdmitted,
    /// Fleet: admissions rejected or parked by the front door (capacity
    /// exhausted or slot deadline slipping).
    FleetAdmissionRejects,
    /// Fleet: lockstep slice-slots completed (one per `advance_slot`).
    FleetSlots,
    /// Fleet: slices generated (sources × slot length, summed over
    /// slots).
    FleetSlices,
    /// Fleet: slots that overran the configured wall-clock deadline. The
    /// SLO ratio is `overruns / eligible`, where eligible counts only
    /// slots advanced with at least one source — the population overruns
    /// are drawn from, so an empty fleet's slots never dilute the ratio.
    FleetSlotOverruns,
}

impl Counter {
    /// All counters, in declaration order (the reporting order).
    pub const ALL: [Counter; 27] = [
        Counter::FftPlanHit,
        Counter::FftPlanMiss,
        Counter::FftPlanEvict,
        Counter::FgnCacheHit,
        Counter::FgnCacheMiss,
        Counter::FgnCacheEvict,
        Counter::PeriodogramHit,
        Counter::PeriodogramMiss,
        Counter::PeriodogramEvict,
        Counter::StreamBlocks,
        Counter::SeamCrossFades,
        Counter::HoskingFallback,
        Counter::WhittleIterations,
        Counter::RobustHurstRuns,
        Counter::EstimatorFallback,
        Counter::QueueOverflowSlots,
        Counter::MuxRuns,
        Counter::QcProbes,
        Counter::CheckpointWrites,
        Counter::CheckpointResumes,
        Counter::CheckpointFallbacks,
        Counter::PlanCacheContention,
        Counter::FleetSourcesAdmitted,
        Counter::FleetAdmissionRejects,
        Counter::FleetSlots,
        Counter::FleetSlices,
        Counter::FleetSlotOverruns,
    ];

    /// Stable snake-case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FftPlanHit => "fft_plan_hit",
            Counter::FftPlanMiss => "fft_plan_miss",
            Counter::FftPlanEvict => "fft_plan_evict",
            Counter::FgnCacheHit => "fgn_cache_hit",
            Counter::FgnCacheMiss => "fgn_cache_miss",
            Counter::FgnCacheEvict => "fgn_cache_evict",
            Counter::PeriodogramHit => "periodogram_hit",
            Counter::PeriodogramMiss => "periodogram_miss",
            Counter::PeriodogramEvict => "periodogram_evict",
            Counter::StreamBlocks => "stream_blocks",
            Counter::SeamCrossFades => "seam_cross_fades",
            Counter::HoskingFallback => "hosking_fallback",
            Counter::WhittleIterations => "whittle_iterations",
            Counter::RobustHurstRuns => "robust_hurst_runs",
            Counter::EstimatorFallback => "estimator_fallback",
            Counter::QueueOverflowSlots => "queue_overflow_slots",
            Counter::MuxRuns => "mux_runs",
            Counter::QcProbes => "qc_probes",
            Counter::CheckpointWrites => "checkpoint_writes",
            Counter::CheckpointResumes => "checkpoint_resumes",
            Counter::CheckpointFallbacks => "checkpoint_fallbacks",
            Counter::PlanCacheContention => "plan_cache_contention",
            Counter::FleetSourcesAdmitted => "fleet_sources_admitted",
            Counter::FleetAdmissionRejects => "fleet_admission_rejects",
            Counter::FleetSlots => "fleet_slots",
            Counter::FleetSlices => "fleet_slices",
            Counter::FleetSlotOverruns => "fleet_slot_overruns",
        }
    }
}

static COUNTERS: [AtomicU64; Counter::ALL.len()] =
    [const { AtomicU64::new(0) }; Counter::ALL.len()];

/// Adds `n` to a counter. Relaxed ordering: counters are diagnostics,
/// never synchronisation.
#[inline]
pub fn counter_add(c: Counter, n: u64) {
    COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// Current value of one counter.
///
/// The `FftPlan*` counters are maintained inside `vbr-fft` (which sits
/// below this crate in the dependency graph and therefore cannot call
/// the facade); their values here are the fft-side count plus anything
/// added locally through [`counter_add`].
#[inline]
pub fn counter_value(c: Counter) -> u64 {
    let local = COUNTERS[c as usize].load(Ordering::Relaxed);
    let upstream = match c {
        Counter::FftPlanHit => vbr_fft::plan_cache_stats().hits,
        Counter::FftPlanMiss => vbr_fft::plan_cache_stats().misses,
        Counter::FftPlanEvict => vbr_fft::plan_cache_stats().evictions,
        Counter::PlanCacheContention => vbr_fft::plan_cache_stats().contention,
        _ => 0,
    };
    local + upstream
}

/// Raises a counter to at least `target` (no-op if it is already
/// there). Restore path only: a process resuming from a checkpoint
/// re-establishes the interrupted run's counter totals so that the
/// resumed run's final counters match an uninterrupted run's. Counters
/// stay monotone — this can only add, never subtract.
pub fn counter_restore(c: Counter, target: u64) {
    let current = counter_value(c);
    if target > current {
        counter_add(c, target - current);
    }
}

/// Snapshot of every counter as `(name, value)` in declaration order.
pub fn counters() -> Vec<(&'static str, u64)> {
    Counter::ALL.iter().map(|&c| (c.name(), counter_value(c))).collect()
}

/// A point-in-time capture of every counter, for attributing activity
/// to a bounded region of work: take one before, one after, and
/// [`delta`](CounterSnapshot::delta) yields per-region counts even
/// though the underlying counters are process-global and monotone.
///
/// This is how per-region figures (e.g. one benchmark pass's
/// `qc_probes`) are separated from process totals without resetting
/// shared state out from under concurrent readers. The delta includes
/// whatever other threads did meanwhile, so per-call figures that must
/// be exact under concurrency are counted locally instead (as
/// `MuxSim::run` does for its overflow slots).
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    values: [u64; Counter::ALL.len()],
}

impl CounterSnapshot {
    /// Captures every counter's current value.
    pub fn capture() -> Self {
        let mut values = [0u64; Counter::ALL.len()];
        for (slot, &c) in values.iter_mut().zip(Counter::ALL.iter()) {
            *slot = counter_value(c);
        }
        CounterSnapshot { values }
    }

    /// One counter's value at capture time.
    pub fn value(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Per-counter increase since `earlier` (saturating: a counter
    /// reset between snapshots reads as zero, not a wrap).
    pub fn delta(&self, earlier: &CounterSnapshot) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| {
                (c.name(), self.values[c as usize].saturating_sub(earlier.values[c as usize]))
            })
            .collect()
    }
}

/// Zeroes one counter (test isolation, e.g. a fresh
/// `queue_overflow_slots` total). Only the locally-accumulated count is
/// cleared; the `FftPlan*` counters also merge fft-side totals that
/// this cannot touch — use [`CounterSnapshot`] deltas for those.
pub fn reset_counter(c: Counter) {
    COUNTERS[c as usize].store(0, Ordering::Relaxed);
}

/// Zeroes every counter, including the fft-side plan cache counters
/// (test isolation and report epochs only; library code never calls
/// this).
pub fn reset_counters() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    vbr_fft::reset_plan_cache_stats();
}

// ---------------------------------------------------------------------------
// Log₂ histograms
// ---------------------------------------------------------------------------

/// The value distributions tracked alongside the scalar counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// FFT transform lengths requested through the plan cache.
    FftSizes,
    /// Span durations in nanoseconds (recorded only while a collector
    /// is installed — with none, no spans end, so nothing lands here).
    SpanNanos,
    /// `FluidQueue::step_block` block lengths in slots.
    QueueBlockSlots,
}

impl Hist {
    /// All histograms, in declaration order.
    pub const ALL: [Hist; 3] = [Hist::FftSizes, Hist::SpanNanos, Hist::QueueBlockSlots];

    /// Stable snake-case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Hist::FftSizes => "fft_sizes",
            Hist::SpanNanos => "span_nanos",
            Hist::QueueBlockSlots => "queue_block_slots",
        }
    }
}

/// Bucket `b` counts values in `[2^(b−1), 2^b)`; bucket 0 counts zero.
const HIST_BUCKETS: usize = 65;

static HISTS: [[AtomicU64; HIST_BUCKETS]; Hist::ALL.len()] =
    [const { [const { AtomicU64::new(0) }; HIST_BUCKETS] }; Hist::ALL.len()];

/// Bucket index of a value: 0 for 0, else `64 − leading_zeros`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Records one value into a histogram.
#[inline]
pub fn hist_record(h: Hist, value: u64) {
    HISTS[h as usize][bucket_of(value)].fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of one histogram as `(bucket_lower_bound, count)` for the
/// non-empty buckets, ascending. [`Hist::FftSizes`] merges in the
/// fft-side size histogram (transform sizes are exact powers of two, so
/// they land on their own bucket bounds).
pub fn hist_buckets(h: Hist) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = HISTS[h as usize]
        .iter()
        .enumerate()
        .filter_map(|(b, c)| {
            let count = c.load(Ordering::Relaxed);
            (count > 0).then(|| (if b == 0 { 0 } else { 1u64 << (b - 1) }, count))
        })
        .collect();
    if h == Hist::FftSizes {
        for (size, count) in vbr_fft::plan_size_histogram() {
            match out.binary_search_by_key(&size, |&(lo, _)| lo) {
                Ok(i) => out[i].1 += count,
                Err(i) => out.insert(i, (size, count)),
            }
        }
    }
    out
}

/// Zeroes every histogram (test isolation only). The fft-side size
/// histogram is cleared together with its counters by
/// [`reset_counters`], not here.
pub fn reset_hists() {
    for h in &HISTS {
        for b in h {
            b.store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Span / event tracing
// ---------------------------------------------------------------------------

/// One finished span (or instantaneous event) as stored in the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (process-wide, monotonically allocated).
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for roots.
    pub parent: u64,
    /// Static stage name, e.g. `"fgn.davies_harte"`.
    pub name: &'static str,
    /// Free-form detail (empty for plain spans). Built lazily — the
    /// closure passed to [`event_with`] runs only with a collector on.
    pub detail: String,
    /// Nanoseconds from collector installation to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for events).
    pub dur_ns: u64,
    /// Opaque id of the recording thread (spans nest per thread).
    pub thread: u64,
    /// Peak resident set (VmHWM, KiB) observed at span end; 0 when the
    /// platform does not expose it.
    pub peak_rss_kib: u64,
}

/// A drained trace: the ring contents oldest-first, plus how many
/// records the ring overwrote before they were read.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Surviving records, oldest first.
    pub records: Vec<SpanRecord>,
    /// Records overwritten by ring wrap-around (lost).
    pub dropped: u64,
}

struct Ring {
    /// Fixed-capacity storage; once full, the oldest slot is overwritten.
    buf: Vec<SpanRecord>,
    cap: usize,
    /// Index of the slot the next record lands in.
    next: usize,
    /// Total records ever pushed (so `dropped = pushed − len`).
    pushed: u64,
}

impl Ring {
    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
        }
        self.next = (self.next + 1) % self.cap;
        self.pushed += 1;
    }

    fn snapshot(&self) -> TraceSnapshot {
        let mut records = Vec::with_capacity(self.buf.len());
        if self.buf.len() < self.cap {
            records.extend_from_slice(&self.buf);
        } else {
            records.extend_from_slice(&self.buf[self.next..]);
            records.extend_from_slice(&self.buf[..self.next]);
        }
        TraceSnapshot { records, dropped: self.pushed - self.buf.len() as u64 }
    }
}

struct CollectorState {
    epoch: Instant,
    ring: Ring,
}

/// Fast-path gate: one relaxed load decides whether [`span`]/[`event`]
/// do any work at all.
static COLLECTOR_ON: AtomicBool = AtomicBool::new(false);

fn collector() -> &'static Mutex<Option<CollectorState>> {
    static C: OnceLock<Mutex<Option<CollectorState>>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(None))
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of open span ids on this thread (for parent links).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Cheap per-thread id for [`SpanRecord::thread`].
    static THREAD_ID: u64 = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
}

/// True when a collector is installed (spans are being recorded).
#[inline]
pub fn collector_installed() -> bool {
    COLLECTOR_ON.load(Ordering::Relaxed)
}

/// Installs the global collector with a ring of `capacity` records,
/// replacing (and discarding) any previous one. `capacity` is clamped
/// to ≥ 1.
pub fn install_collector(capacity: usize) {
    let state = CollectorState {
        epoch: Instant::now(),
        ring: Ring { buf: Vec::new(), cap: capacity.max(1), next: 0, pushed: 0 },
    };
    *collector().lock().expect("obs collector poisoned") = Some(state);
    // The RSS sample cache is stamped in collector-epoch time, which
    // just restarted — force a fresh sample on the first span close.
    RSS_SAMPLED_NS.store(0, Ordering::Relaxed);
    COLLECTOR_ON.store(true, Ordering::Relaxed);
}

/// Uninstalls the collector and returns everything it recorded;
/// `None` if none was installed. Spans still open keep their guards and
/// simply record nothing when they close.
pub fn uninstall_collector() -> Option<TraceSnapshot> {
    let state = collector().lock().expect("obs collector poisoned").take();
    COLLECTOR_ON.store(false, Ordering::Relaxed);
    state.map(|s| s.ring.snapshot())
}

/// Copies the current ring contents without uninstalling.
pub fn snapshot() -> Option<TraceSnapshot> {
    collector()
        .lock()
        .expect("obs collector poisoned")
        .as_ref()
        .map(|s| s.ring.snapshot())
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`); `None` where unavailable.
pub fn peak_rss_kib() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Last sampled peak RSS (KiB) and the `start_ns`-epoch time it was
/// sampled at, packed into two atomics so span close stays cheap.
static RSS_CACHE_KIB: AtomicU64 = AtomicU64::new(0);
static RSS_SAMPLED_NS: AtomicU64 = AtomicU64::new(0);
/// Re-read `/proc/self/status` at most this often (10 ms): a `/proc`
/// read costs tens of microseconds, far over the span-close budget, and
/// VmHWM is monotone so a slightly stale value is still a valid lower
/// bound on the true peak.
const RSS_SAMPLE_INTERVAL_NS: u64 = 10_000_000;

/// Time-throttled [`peak_rss_kib`]: returns a cached sample unless the
/// cache is older than [`RSS_SAMPLE_INTERVAL_NS`] relative to `now_ns`
/// (nanoseconds since the collector epoch).
fn sampled_peak_rss_kib(now_ns: u64) -> u64 {
    let last = RSS_SAMPLED_NS.load(Ordering::Relaxed);
    if last == 0 || now_ns.saturating_sub(last) >= RSS_SAMPLE_INTERVAL_NS {
        // Racing threads may both re-read; that is harmless (same file,
        // monotone value) and cheaper than coordinating.
        RSS_SAMPLED_NS.store(now_ns.max(1), Ordering::Relaxed);
        let kib = peak_rss_kib().unwrap_or(0);
        RSS_CACHE_KIB.store(kib, Ordering::Relaxed);
        kib
    } else {
        RSS_CACHE_KIB.load(Ordering::Relaxed)
    }
}

/// RAII guard for one traced stage. Created by [`span`]; records itself
/// into the ring when dropped (if a collector is still installed).
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    /// `None` when tracing was off at creation — the guard is inert.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

/// Opens a traced stage. With no collector installed this is one atomic
/// load and an inert guard; with one, the guard records a
/// [`SpanRecord`] (with duration and peak RSS) when it drops.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !collector_installed() {
        return Span { live: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Span { live: Some(LiveSpan { id, parent, name, start: Instant::now() }) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own id; tolerate foreign ids left by guards dropped
            // out of order (e.g. spans moved across scopes).
            if let Some(pos) = s.iter().rposition(|&id| id == live.id) {
                s.remove(pos);
            }
        });
        let dur_ns = live.start.elapsed().as_nanos() as u64;
        hist_record(Hist::SpanNanos, dur_ns);
        let mut guard = collector().lock().expect("obs collector poisoned");
        if let Some(state) = guard.as_mut() {
            let start_ns = live
                .start
                .checked_duration_since(state.epoch)
                .map_or(0, |d| d.as_nanos() as u64);
            let rss = sampled_peak_rss_kib(start_ns + dur_ns);
            state.ring.push(SpanRecord {
                id: live.id,
                parent: live.parent,
                name: live.name,
                detail: String::new(),
                start_ns,
                dur_ns,
                thread: THREAD_ID.with(|&t| t),
                peak_rss_kib: rss,
            });
        }
    }
}

/// Records an instantaneous event (zero-duration span) under the
/// current thread's open span. No-op without a collector.
#[inline]
pub fn event(name: &'static str) {
    event_with(name, String::new)
}

/// [`event`] with a lazily-built detail string — the closure runs only
/// when a collector is installed, so callers can format diagnostics
/// (which fallback fired, which estimator answered) at zero cost on the
/// default path.
#[inline]
pub fn event_with(name: &'static str, detail: impl FnOnce() -> String) {
    if !collector_installed() {
        return;
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let detail = detail();
    let mut guard = collector().lock().expect("obs collector poisoned");
    if let Some(state) = guard.as_mut() {
        let start_ns = state.epoch.elapsed().as_nanos() as u64;
        state.ring.push(SpanRecord {
            id,
            parent,
            name,
            detail,
            start_ns,
            dur_ns: 0,
            thread: THREAD_ID.with(|&t| t),
            peak_rss_kib: 0,
        });
    }
}

// ---------------------------------------------------------------------------
// JSON rendering (hand-rolled; the workspace has no serde)
// ---------------------------------------------------------------------------

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn render_span(rec: &SpanRecord, children: &[Vec<usize>], recs: &[SpanRecord], out: &mut String, indent: usize) {
    let pad = "  ".repeat(indent);
    let _ = write!(
        out,
        "{pad}{{\"name\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"thread\": {}",
        json_str(rec.name),
        rec.start_ns,
        rec.dur_ns,
        rec.thread
    );
    if !rec.detail.is_empty() {
        let _ = write!(out, ", \"detail\": {}", json_str(&rec.detail));
    }
    if rec.peak_rss_kib > 0 {
        let _ = write!(out, ", \"peak_rss_kib\": {}", rec.peak_rss_kib);
    }
    let idx = recs.iter().position(|r| r.id == rec.id).unwrap();
    if children[idx].is_empty() {
        out.push('}');
        return;
    }
    out.push_str(", \"children\": [\n");
    for (i, &c) in children[idx].iter().enumerate() {
        render_span(&recs[c], children, recs, out, indent + 1);
        out.push_str(if i + 1 == children[idx].len() { "\n" } else { ",\n" });
    }
    let _ = write!(out, "{pad}]}}");
}

/// Renders a drained trace as a JSON document: the span forest (spans
/// nested under their parents, roots in start order), the drop count,
/// and the current counter values — the payload behind the binaries'
/// `--trace-json` flags.
pub fn trace_json(snap: &TraceSnapshot) -> String {
    let recs = &snap.records;
    // children[i] = indices of records whose parent is records[i].
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); recs.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, r) in recs.iter().enumerate() {
        match recs.iter().position(|p| p.id == r.parent) {
            // A parent that was itself dropped from the ring orphans its
            // children; they surface as roots rather than vanishing.
            Some(p) if r.parent != 0 => children[p].push(i),
            _ => roots.push(i),
        }
    }
    roots.sort_by_key(|&i| (recs[i].start_ns, recs[i].id));

    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"vbr-obs/trace/v1\",\n");
    let _ = writeln!(s, "  \"dropped\": {},", snap.dropped);
    s.push_str("  \"spans\": [\n");
    for (i, &r) in roots.iter().enumerate() {
        render_span(&recs[r], &children, recs, &mut s, 2);
        s.push_str(if i + 1 == roots.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ],\n  \"counters\": {\n");
    let cs = counters();
    for (i, (name, v)) in cs.iter().enumerate() {
        let _ = write!(s, "    {}: {v}", json_str(name));
        s.push_str(if i + 1 == cs.len() { "\n" } else { ",\n" });
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collector state is process-global; the tests that install or
    /// drain it serialise on this lock so `cargo test`'s parallel runner
    /// cannot interleave them.
    fn collector_lock() -> std::sync::MutexGuard<'static, ()> {
        static L: OnceLock<Mutex<()>> = OnceLock::new();
        match L.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn counters_accumulate_and_report() {
        counter_add(Counter::MuxRuns, 3);
        counter_add(Counter::MuxRuns, 2);
        assert!(counter_value(Counter::MuxRuns) >= 5);
        let snap = counters();
        assert_eq!(snap.len(), Counter::ALL.len());
        assert!(snap.iter().any(|&(n, v)| n == "mux_runs" && v >= 5));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        // Private bucket math: 0 → bucket 0, 1 → 1, 2..4 → 2..3, etc.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);

        hist_record(Hist::QueueBlockSlots, 0);
        hist_record(Hist::QueueBlockSlots, 5);
        hist_record(Hist::QueueBlockSlots, 6);
        let snap = hist_buckets(Hist::QueueBlockSlots);
        assert!(snap.iter().any(|&(lo, c)| lo == 0 && c >= 1));
        assert!(snap.iter().any(|&(lo, c)| lo == 4 && c >= 2));
    }

    #[test]
    fn spans_are_inert_without_collector() {
        let _guard = collector_lock();
        uninstall_collector();
        {
            let _s = span("stats.test_inert");
            event("stats.test_inert_event");
        }
        assert!(snapshot().is_none());
        // The thread-local stack must stay empty (nothing was pushed).
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn span_nesting_links_parents() {
        let _guard = collector_lock();
        install_collector(64);
        {
            let _outer = span("stats.outer");
            {
                let _inner = span("stats.inner");
                event_with("stats.note", || "detail".to_string());
            }
        }
        let snap = uninstall_collector().unwrap();
        assert_eq!(snap.dropped, 0);
        // Drop order: inner closes before outer; the event precedes both.
        let names: Vec<_> = snap.records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["stats.note", "stats.inner", "stats.outer"]);
        let outer = snap.records.iter().find(|r| r.name == "stats.outer").unwrap();
        let inner = snap.records.iter().find(|r| r.name == "stats.inner").unwrap();
        let note = snap.records.iter().find(|r| r.name == "stats.note").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(note.parent, inner.id);
        assert_eq!(note.detail, "detail");
        assert_eq!(note.dur_ns, 0);
        assert!(outer.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn ring_overflow_keeps_newest_and_counts_dropped() {
        let _guard = collector_lock();
        install_collector(4);
        for _ in 0..10 {
            event("stats.tick");
        }
        let snap = uninstall_collector().unwrap();
        assert_eq!(snap.records.len(), 4);
        assert_eq!(snap.dropped, 6);
        // Oldest-first order survives the wrap.
        for w in snap.records.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn trace_json_shape() {
        let _guard = collector_lock();
        install_collector(64);
        {
            let _root = span("pipeline");
            let _child = span("stage \"a\"");
        }
        let snap = uninstall_collector().unwrap();
        let j = trace_json(&snap);
        assert!(j.contains("\"schema\": \"vbr-obs/trace/v1\""));
        assert!(j.contains("\"name\": \"pipeline\""));
        assert!(j.contains("\\\"a\\\""));
        assert!(j.contains("\"children\""));
        assert!(j.contains("\"counters\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn reinstall_discards_previous_trace() {
        let _guard = collector_lock();
        install_collector(8);
        event("stats.before");
        install_collector(8);
        event("stats.after");
        let snap = uninstall_collector().unwrap();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].name, "stats.after");
    }

    #[test]
    fn cross_thread_spans_record_their_own_roots() {
        let _guard = collector_lock();
        install_collector(64);
        {
            let _outer = span("stats.main_root");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = span("stats.worker");
                });
            });
        }
        let snap = uninstall_collector().unwrap();
        let worker = snap.records.iter().find(|r| r.name == "stats.worker").unwrap();
        let root = snap.records.iter().find(|r| r.name == "stats.main_root").unwrap();
        // Span stacks are per-thread: the worker span is its own root.
        assert_eq!(worker.parent, 0);
        assert_ne!(worker.thread, root.thread);
    }
}
