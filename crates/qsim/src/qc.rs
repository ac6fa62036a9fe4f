//! Q-C analysis (Figs 14–16): run the multiplexer at a given capacity and
//! buffer, and search for the capacity that achieves a target loss rate at
//! a fixed maximum buffer delay `T_max = Q/C_total`.

use crate::error::QsimError;
use crate::metrics::SimResult;
use crate::mux::{lag_combinations, u32_batch, ArrivalCursor, LagCombination, EXACT_AGGREGATE};
use crate::queue::FluidQueue;
use crate::search::{self, check_search_args, LaneQueues, SearchPass, MAX_GROUPS, STREAM_CHUNK};
use crate::zero::{Scale, WindowScan, ZeroLoss};
use vbr_stats::error::{DataError, NumericError};
use vbr_stats::obs::{self, Counter};
use vbr_video::Trace;

/// Which loss statistic a capacity search targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossMetric {
    /// Overall loss rate `P_l`.
    Overall,
    /// Worst-errored-second loss `P_l-WES`.
    WorstSecond,
}

/// Loss objective: exactly zero observed loss, or a positive rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossTarget {
    /// No bytes lost over the whole run.
    Zero,
    /// Loss rate at most this value (the search converges onto it).
    Rate(f64),
}

/// A prepared multiplexing experiment: N wrap-around offset copies of a
/// borrowed trace. Aggregate arrival series are never materialized —
/// every run streams them through per-source wrap cursors
/// ([`ArrivalCursor`]) in cache-sized chunks, so a sweep costs
/// `O(slots)` time and `O(chunk)` memory however long the trace.
///
/// ```
/// use vbr_qsim::MuxSim;
/// use vbr_video::{generate_screenplay, ScreenplayConfig};
///
/// let trace = generate_screenplay(&ScreenplayConfig::short(1_000, 3));
/// let sim = MuxSim::new(&trace, 3, 42);
/// // Well below the mean rate everything is lost eventually…
/// assert!(sim.run(sim.mean_rate() * 0.5, 1_000.0).p_l > 0.1);
/// // …and at the peak slot rate nothing is.
/// assert_eq!(sim.run(sim.peak_slot_rate(), 0.0).p_l, 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct MuxSim<'a> {
    trace: &'a Trace,
    n_sources: usize,
    dt: f64,
    mean_rate: f64,
    peak_slot_rate: f64,
    combos: Vec<LagCombination>,
    /// Per combination, what the rate sweep recorded for skipping idle
    /// blocks.
    index: Vec<BlockIndex>,
    /// Sources per exact `u32` batch in every cursor (`mux::u32_batch`),
    /// fixed by the trace's largest slice.
    batch: usize,
}

/// Slots per entry of a [`BlockIndex`] (4 bytes per 64 slots).
const IDLE_BLOCK: usize = 64;

/// Slots a search pass's skipping replay sums at most per call, in
/// whole blocks.
const FEED_BLOCKS: usize = STREAM_CHUNK / IDLE_BLOCK;

const _: () = assert!(STREAM_CHUNK.is_multiple_of(IDLE_BLOCK), "sweep chunks hold whole blocks");

/// What [`MuxSim::try_new`]'s rate sweep records of one lag combination
/// so that `Overall` search passes can skip the blocks in which no lane
/// can leave an empty queue (DESIGN.md §10, "Idle blocks").
#[derive(Debug, Clone)]
struct BlockIndex {
    /// The largest aggregate of each [`IDLE_BLOCK`]-slot block (the last
    /// block may be short). `u32::MAX` stands for any peak from there
    /// up and never lets a block be skipped.
    peaks: Vec<u32>,
    /// The arrivals added slot by slot from `0.0`: the bits of a whole
    /// replay's `arrived` chain in `LaneQueues`.
    total: f64,
}

impl BlockIndex {
    /// Whether no slot of block `b` offers more than `service`.
    fn quiet(&self, b: usize, service: f64) -> bool {
        let p = self.peaks[b];
        p != u32::MAX && f64::from(p) <= service
    }
}

impl<'a> MuxSim<'a> {
    /// Prepares the experiment. Applies the paper's rules: offsets ≥ 1000
    /// frames apart, 6 random lag combinations for N > 2.
    pub fn new(trace: &'a Trace, n_sources: usize, seed: u64) -> Self {
        assert!(n_sources >= 1);
        Self::try_new(trace, n_sources, seed).unwrap_or_else(|e| panic!("MuxSim::new: {e}"))
    }

    /// Fallible [`new`](Self::new): rejects zero sources, an empty trace
    /// and a trace whose aggregate could reach 2⁵³ bytes in one slot
    /// (`n_sources × largest slice`), past which `f64` sums stop being
    /// exact integers, with typed errors.
    pub fn try_new(trace: &'a Trace, n_sources: usize, seed: u64) -> Result<Self, QsimError> {
        if n_sources == 0 {
            return Err(QsimError::NoSources);
        }
        if trace.frames() == 0 {
            return Err(DataError::Empty.into());
        }
        let max_slice = trace.slice_bytes().iter().copied().max().unwrap_or(0);
        let batch = u32_batch(n_sources, max_slice).ok_or(NumericError::OutOfRange {
            what: "peak aggregate slot bytes",
            value: n_sources as f64 * f64::from(max_slice),
            lo: 0.0,
            hi: EXACT_AGGREGATE as f64,
        })?;
        let min_sep = if n_sources == 1 { 0 } else { 1000.min(trace.frames() / (2 * n_sources)) };
        let combos = lag_combinations(n_sources, trace.frames(), min_sep, seed);
        // One streaming pass per combination for the rate summaries —
        // independent sweeps, so they run on the worker pool when the
        // trace is long enough to amortize the spawn cost (combo order
        // is preserved; sums are left-to-right per combo, keeping the
        // rates bit-identical to a serial materializing build).
        let dt = trace.slice_duration();
        let work = trace.slice_bytes().len().saturating_mul(combos.len());
        // The same sweep records each combination's block peaks and
        // total for the idle-block skip.
        let slots = trace.slice_bytes().len();
        let per_combo: Vec<(BlockIndex, f64)> = vbr_stats::par::par_map_sized(work, &combos, |c| {
            let mut cursor = ArrivalCursor::with_batch(trace, c, batch);
            let mut buf = [0.0f64; STREAM_CHUNK];
            let mut peaks = Vec::with_capacity(slots.div_ceil(IDLE_BLOCK));
            let mut total = 0.0f64;
            let mut peak = 0.0f64;
            loop {
                let k = cursor.next_block(&mut buf);
                if k == 0 {
                    break;
                }
                for block in buf[..k].chunks(IDLE_BLOCK) {
                    let mut top = 0.0f64;
                    for &a in block {
                        total += a;
                        top = top.max(a);
                    }
                    peak = peak.max(top);
                    // Exact: `top` is an integer below `u32::MAX` here.
                    peaks.push(if top < f64::from(u32::MAX) { top as u32 } else { u32::MAX });
                }
            }
            (BlockIndex { peaks, total }, peak)
        });
        let mean_rate = per_combo[0].0.total / (slots as f64 * dt);
        let peak_slot_rate = per_combo.iter().map(|&(_, p)| p).fold(0.0f64, f64::max) / dt;
        let index = per_combo.into_iter().map(|(ix, _)| ix).collect();
        Ok(MuxSim { trace, n_sources, dt, mean_rate, peak_slot_rate, combos, index, batch })
    }

    /// The borrowed arrival trace.
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// Number of multiplexed sources.
    pub fn n_sources(&self) -> usize {
        self.n_sources
    }

    /// Slot duration in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Aggregate long-run mean rate in bytes/second.
    pub fn mean_rate(&self) -> f64 {
        self.mean_rate
    }

    /// Highest slot-level aggregate rate in bytes/second (a capacity at
    /// which the queue never backs up).
    pub fn peak_slot_rate(&self) -> f64 {
        self.peak_slot_rate
    }

    /// The lag combinations in use.
    pub fn combos(&self) -> &[LagCombination] {
        &self.combos
    }

    /// Runs one combination, returning full per-slot loss and arrival
    /// records. This is the one path that still materializes per-slot
    /// series — its *output* is `O(slots)` by contract.
    pub fn run_single(&self, combo: usize, capacity_bps: f64, buffer_bytes: f64) -> SimResult {
        let cursor = ArrivalCursor::with_batch(self.trace, &self.combos[combo], self.batch);
        let n = cursor.len();
        let mut q = FluidQueue::new(buffer_bytes, capacity_bps);
        let mut loss = Vec::with_capacity(n);
        let mut arrivals = Vec::with_capacity(n);
        for a in cursor {
            loss.push(q.step(a, self.dt));
            arrivals.push(a);
        }
        SimResult::new(loss, arrivals, self.dt)
    }

    /// Runs all combinations and averages the loss metrics (the paper
    /// averages the resulting loss rates over the 6 lag combinations).
    ///
    /// The one-lane case of [`run_lanes`](Self::run_lanes): metrics are
    /// accumulated streaming — the aggregate series is regenerated
    /// through wrap cursors in cache-sized chunks, with no per-slot
    /// allocation.
    pub fn run(&self, capacity_bps: f64, buffer_bytes: f64) -> AveragedLoss {
        let _span = obs::span("qsim.mux_run");
        let [loss] = self.run_lanes(&[capacity_bps], &[buffer_bytes]);
        loss
    }

    /// Runs `L` queues, one per `(capacity, buffer)` lane, over one
    /// shared pass of the arrivals: lane `l` returns exactly what
    /// [`run`](Self::run) returns at `(capacities[l], buffers[l])`, bit
    /// for bit, for about the cost of one run up to eight lanes.
    ///
    /// Counts one `MuxRuns` pass and every lane's overflow slots.
    pub fn run_lanes<const L: usize>(
        &self,
        capacities: &[f64; L],
        buffers: &[f64; L],
    ) -> [AveragedLoss; L] {
        obs::counter_add(Counter::MuxRuns, 1);
        let losses = self.replay(capacities, buffers, true, false);
        let overflow = losses.iter().map(|l| l.overflow_slots).sum();
        obs::counter_add(Counter::QueueOverflowSlots, overflow);
        losses
    }

    /// One shared arrival pass per combination through `L` queue lanes,
    /// touching no counter, keeping the worst-errored-second totals only
    /// if `worst_second` (`p_wes` is NaN otherwise). Overload is
    /// deliberately legal here (transient studies run below the mean
    /// rate); `try_run` is the variant that rejects it.
    ///
    /// Each combination is an independent replay. The replays are dealt
    /// out in groups of `⌈combos / workers⌉` (at most [`MAX_GROUPS`]), and
    /// one [`LaneQueues`] pass advances a whole group slot by slot, so
    /// its independent recurrences overlap. Groups run on the worker pool
    /// when the trace is long enough to amortize the spawn cost. Every
    /// combination's metrics are its own whatever its group, come back
    /// in combo order and are summed left-to-right, making the averages
    /// bit-identical to the serial one-combination loop at any thread
    /// count. Overflow slots are counted in registers per lane, so a
    /// run's figure is its own whatever runs concurrently.
    ///
    /// With `skip_idle` (and without `worst_second`), a group whose
    /// blocks are mostly quiet at the lanes' smallest service replays
    /// only the blocks where some lane can leave an empty queue
    /// ([`replay_group_skipping`](Self::replay_group_skipping)), with
    /// the same bits.
    pub(crate) fn replay<const L: usize>(
        &self,
        capacities: &[f64; L],
        buffers: &[f64; L],
        worst_second: bool,
        skip_idle: bool,
    ) -> [AveragedLoss; L] {
        let (workers, group) = self.grouping();
        let firsts: Vec<usize> = (0..self.combos.len()).step_by(group).collect();
        let (c, b, w, skip) = (capacities, buffers, worst_second, skip_idle && !worst_second);
        let per_group: Vec<Vec<[AveragedLoss; L]>> =
            vbr_stats::par::par_map_with(workers, &firsts, |&first| {
                match group.min(self.combos.len() - first) {
                    1 => self.replay_group::<L, 1>(first, c, b, w, skip).to_vec(),
                    2 => self.replay_group::<L, 2>(first, c, b, w, skip).to_vec(),
                    _ => self.replay_group::<L, MAX_GROUPS>(first, c, b, w, skip).to_vec(),
                }
            });
        let k = self.combos.len() as f64;
        std::array::from_fn(|l| {
            let mut p_l = 0.0;
            let mut p_wes = 0.0;
            let mut overflow_slots = 0;
            for totals in per_group.iter().flatten() {
                p_l += totals[l].p_l;
                p_wes += totals[l].p_wes;
                overflow_slots += totals[l].overflow_slots;
            }
            AveragedLoss { p_l: p_l / k, p_wes: p_wes / k, overflow_slots }
        })
    }

    /// Pool workers a replay started here and now runs on, and the lag
    /// combinations each of its interleaved passes advances:
    /// `⌈combos / workers⌉`, at most [`MAX_GROUPS`]. `workers` is what
    /// `par_map_sized` would use (1 inside a pool worker or below the
    /// work threshold).
    fn grouping(&self) -> (usize, usize) {
        let work = self.trace.slice_bytes().len().saturating_mul(self.combos.len());
        let workers = vbr_stats::par::sized_width(work);
        (workers, self.combos.len().div_ceil(workers).min(MAX_GROUPS))
    }

    /// Replays the `G` combinations from `first` through one interleaved
    /// pass of `G × L` queue lanes: every slot, or with `skip_idle`,
    /// only the blocks that can move a lane when at least
    /// [`SKIP_SHARE`] of the group's blocks are quiet.
    fn replay_group<const L: usize, const G: usize>(
        &self,
        first: usize,
        capacities: &[f64; L],
        buffers: &[f64; L],
        worst_second: bool,
        skip_idle: bool,
    ) -> [[AveragedLoss; L]; G] {
        let slots = self.trace.slice_bytes().len();
        let mut lanes = LaneQueues::<L, G>::new(capacities, buffers, self.dt, slots, worst_second);
        if skip_idle && skip_pays(&self.index[first..first + G], lanes.min_service()) {
            return self.replay_group_skipping(first, lanes);
        }
        let mut cursors: [ArrivalCursor; G] = std::array::from_fn(|g| {
            ArrivalCursor::with_batch(self.trace, &self.combos[first + g], self.batch)
        });
        let mut bufs = [[0.0f64; STREAM_CHUNK]; G];
        loop {
            let mut k = 0;
            for (cursor, buf) in cursors.iter_mut().zip(&mut bufs) {
                k = cursor.next_block(buf);
            }
            if k == 0 {
                break;
            }
            lanes.feed(bufs.each_ref().map(|b| &b[..k]));
        }
        lanes.totals()
    }

    /// [`replay_group`](Self::replay_group) over the blocks that can move
    /// a lane, for `Overall`-only `lanes`.
    ///
    /// A block is idle for a combination when, at its start, every lane
    /// holds a backlog of exactly `+0.0` and the block's peak is at most
    /// the smallest lane service `S`. Each slot then computes
    /// `max(0 + a − S, 0) = +0.0` and loses `max(0 − Q, 0) = +0.0`, so no
    /// lane's backlog, loss or overflow changes a bit. A block idle for
    /// every combination is neither summed nor stepped; in a block that
    /// some combination must step, an idle one is fed zeros, which leave
    /// it as bit-for-bit unchanged. Each combination sums the blocks it
    /// must step in long runs ([`BlockFeed`]), and `arrived` comes from
    /// the index, which holds the same left-to-right sum.
    fn replay_group_skipping<const L: usize, const G: usize>(
        &self,
        first: usize,
        mut lanes: LaneQueues<L, G>,
    ) -> [[AveragedLoss; L]; G] {
        let index = &self.index[first..first + G];
        let service = lanes.min_service();
        let slots = self.trace.slice_bytes().len();
        let blocks = index[0].peaks.len();
        let mut feeds: [BlockFeed; G] = std::array::from_fn(|g| {
            BlockFeed::new(ArrivalCursor::with_batch(
                self.trace,
                &self.combos[first + g],
                self.batch,
            ))
        });
        let zeros = [0.0f64; IDLE_BLOCK];
        let mut b = 0;
        while b < blocks {
            let steps: [bool; G] =
                std::array::from_fn(|g| !(lanes.drained(g) && index[g].quiet(b, service)));
            if !steps.contains(&true) {
                b += 1;
                continue;
            }
            // When every combination steps this block, also take the
            // blocks after it that every combination must step anyway.
            let mut end = b + 1;
            if !steps.contains(&false) {
                while end < blocks
                    && end - b < FEED_BLOCKS
                    && index.iter().all(|ix| !ix.quiet(end, service))
                {
                    end += 1;
                }
            }
            let lo = b * IDLE_BLOCK;
            let mut hi = (end * IDLE_BLOCK).min(slots);
            for (g, feed) in feeds.iter_mut().enumerate() {
                if steps[g] {
                    hi = hi.min(feed.fill(lo, &index[g], service));
                }
            }
            let runs: [&[f64]; G] = std::array::from_fn(|g| {
                if steps[g] {
                    feeds[g].slots(lo, hi)
                } else {
                    &zeros[..hi - lo]
                }
            });
            lanes.step(runs);
            b = hi.div_ceil(IDLE_BLOCK);
        }
        lanes.settle_arrived(std::array::from_fn(|g| index[g].total));
        lanes.totals()
    }

    /// The exact zero-loss capacity at `t_max_secs`: one window-ratio
    /// scan per lag combination, dealt to the pool workers a replay
    /// would use. `None` when a scan gives up (hull cap, fixed-point
    /// range), leaving the search to its passes.
    pub(crate) fn zero_loss(&self, t_max_secs: f64) -> Option<ZeroLoss> {
        let _span = obs::span("qsim.zero_loss_scan");
        let slots = self.trace.slice_bytes().len();
        let scale = Scale::new(slots, self.dt, t_max_secs)?;
        let (workers, _) = self.grouping();
        let windows: Option<Vec<_>> = vbr_stats::par::par_map_with(workers, &self.combos, |c| {
            let mut cursor = ArrivalCursor::with_batch(self.trace, c, self.batch);
            let mut scan = WindowScan::new(scale);
            let mut buf = [0.0f64; STREAM_CHUNK];
            loop {
                let k = cursor.next_block(&mut buf);
                if k == 0 {
                    return Some(scan.finish());
                }
                if !scan.feed(&buf[..k]) {
                    return None;
                }
            }
        })
        .into_iter()
        .collect();
        Some(ZeroLoss::new(&windows?, scale, slots, self.dt, t_max_secs))
    }

    /// Fallible [`run`](Self::run): rejects an invalid capacity or buffer
    /// and — unlike `run` — a stable-state violation: offered load at or
    /// above capacity ([`QsimError::Overload`]), where a finite loss
    /// target can never be met.
    pub fn try_run(&self, capacity_bps: f64, buffer_bytes: f64) -> Result<AveragedLoss, QsimError> {
        // Validates capacity and buffer exactly as every queue step will.
        FluidQueue::try_new(buffer_bytes, capacity_bps)?;
        let utilization = self.mean_rate / capacity_bps;
        if utilization >= 1.0 {
            return Err(QsimError::Overload { utilization });
        }
        Ok(self.run(capacity_bps, buffer_bytes))
    }

    /// Smallest total capacity (bytes/s) achieving `target` under `metric`
    /// with the buffer tied to the capacity through
    /// `Q = t_max × C_total` — one point of a Q-C curve.
    ///
    /// `iterations` bisection levels between the mean rate and the peak
    /// slot rate, up to five at a time from one shared arrival pass:
    /// as few passes as the CPU's lane budget allows, the levels spread
    /// evenly over them (see the `search` module); a zero target decides most levels from the exact
    /// zero-loss capacity instead, with one window-ratio scan per lag
    /// combination. The result is bit-identical to probing one midpoint
    /// per [`run`](Self::run).
    pub fn required_capacity(
        &self,
        t_max_secs: f64,
        target: LossTarget,
        metric: LossMetric,
        iterations: usize,
    ) -> f64 {
        assert!(t_max_secs >= 0.0);
        self.try_required_capacity(t_max_secs, target, metric, iterations)
            .unwrap_or_else(|e| panic!("required_capacity: {e}"))
    }

    /// Fallible [`required_capacity`](Self::required_capacity): rejects a
    /// negative/non-finite `t_max` and an unreachable loss target with
    /// typed errors.
    pub fn try_required_capacity(
        &self,
        t_max_secs: f64,
        target: LossTarget,
        metric: LossMetric,
        iterations: usize,
    ) -> Result<f64, QsimError> {
        check_search_args(t_max_secs, target)?;
        let (lo, hi) = self.bracket();
        let passes = Passes { sim: self, skip_idle: true };
        search::search(lo, hi, iterations, t_max_secs, target, metric, passes)
    }

    /// Where every capacity search starts: below the mean rate loss is
    /// unavoidable, and at the peak slot rate provably nil.
    fn bracket(&self) -> (f64, f64) {
        (self.mean_rate, self.peak_slot_rate.max(self.mean_rate * 1.001))
    }

    /// [`required_capacity`](Self::required_capacity) with every pass
    /// replaying every slot, as searches ran before passes skipped idle
    /// blocks (same bits): the baseline benches and tests compare with.
    #[doc(hidden)]
    pub fn required_capacity_dense(
        &self,
        t_max_secs: f64,
        target: LossTarget,
        metric: LossMetric,
        iterations: usize,
    ) -> f64 {
        let (lo, hi) = self.bracket();
        let passes = Passes { sim: self, skip_idle: false };
        check_search_args(t_max_secs, target)
            .and_then(|()| search::search(lo, hi, iterations, t_max_secs, target, metric, passes))
            .unwrap_or_else(|e| panic!("required_capacity_dense: {e}"))
    }
}

/// The passes of a search over a [`MuxSim`]: `Overall` passes skip idle
/// blocks when `skip_idle` is set, and replay every slot otherwise.
pub(crate) struct Passes<'s, 'a> {
    pub sim: &'s MuxSim<'a>,
    pub skip_idle: bool,
}

impl SearchPass for Passes<'_, '_> {
    fn groups(&self) -> usize {
        self.sim.grouping().1
    }

    fn pass<const L: usize>(
        &mut self,
        capacities: &[f64; L],
        buffers: &[f64; L],
        metric: LossMetric,
    ) -> Result<[AveragedLoss; L], QsimError> {
        let worst_second = metric == LossMetric::WorstSecond;
        Ok(self.sim.replay(capacities, buffers, worst_second, self.skip_idle))
    }

    fn zero_loss(&mut self, t_max_secs: f64) -> Option<ZeroLoss> {
        self.sim.zero_loss(t_max_secs)
    }
}

/// Share of an interleaved group's blocks that must be quiet at a
/// pass's smallest service for the pass to skip idle blocks, as
/// `(num, den)`. Below it the pass stays on the dense path: a block
/// that another combination must step feeds the idle ones zeros, so
/// skipping short gaps saves little memory traffic, and shorter sums
/// cost more per slot.
const SKIP_SHARE: (usize, usize) = (1, 2);

/// Whether a pass at smallest lane service `service` skips idle blocks
/// of the combinations in `index`. A lone combination (`G = 1`) skips
/// as soon as one block is quiet: nothing else is fed zeros, and its
/// first pass at ~11 % quiet blocks runs faster skipping than dense
/// (DESIGN.md §10, "Idle blocks"). A group of several skips when at
/// least [`SKIP_SHARE`] of their blocks are quiet. Depends only on the
/// index, the capacities and the group size.
fn skip_pays(index: &[BlockIndex], service: f64) -> bool {
    let blocks: usize = index.iter().map(|ix| ix.peaks.len()).sum();
    let quiet: usize =
        index.iter().map(|ix| (0..ix.peaks.len()).filter(|&b| ix.quiet(b, service)).count()).sum();
    if index.len() == 1 {
        return quiet > 0;
    }
    quiet * SKIP_SHARE.1 >= blocks * SKIP_SHARE.0
}

/// The arrivals one combination of a skipping pass steps: a cursor that
/// sums from the first block it must step through the blocks after it
/// that are not quiet and a quiet tail, up to [`FEED_BLOCKS`], and
/// passes over everything else unsummed.
struct BlockFeed<'a> {
    cursor: ArrivalCursor<'a>,
    buf: [f64; STREAM_CHUNK],
    /// Slots `start..end` are in `buf`.
    start: usize,
    end: usize,
    /// Quiet blocks a sum takes after its last loud one: 1, doubled
    /// each time a backlog outlasts the previous sum.
    tail: usize,
}

impl<'a> BlockFeed<'a> {
    fn new(cursor: ArrivalCursor<'a>) -> Self {
        BlockFeed { cursor, buf: [0.0; STREAM_CHUNK], start: 0, end: 0, tail: 1 }
    }

    /// Makes sure slot `lo` (a block start at or after every slot asked
    /// for before) is summed, and returns where the summed run ends.
    fn fill(&mut self, lo: usize, index: &BlockIndex, service: f64) -> usize {
        if (self.start..self.end).contains(&lo) {
            return self.end;
        }
        self.tail = if lo == self.end && lo > 0 { (2 * self.tail).min(FEED_BLOCKS) } else { 1 };
        let emitted = self.cursor.len() - self.cursor.remaining();
        self.cursor.skip_slots(lo - emitted);
        let first = lo / IDLE_BLOCK;
        let (mut end, mut quiet) = (first + 1, 0);
        while end < index.peaks.len() && end - first < FEED_BLOCKS && quiet < self.tail {
            quiet = if index.quiet(end, service) { quiet + 1 } else { 0 };
            end += 1;
        }
        let k = self.cursor.next_block(&mut self.buf[..(end - first) * IDLE_BLOCK]);
        (self.start, self.end) = (lo, lo + k);
        self.end
    }

    /// The summed slots `lo..hi`, inside the run [`fill`](Self::fill)
    /// last made sure of.
    fn slots(&self, lo: usize, hi: usize) -> &[f64] {
        &self.buf[lo - self.start..hi - self.start]
    }
}

/// Loss metrics averaged over lag combinations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AveragedLoss {
    /// Overall loss rate.
    pub p_l: f64,
    /// Worst-errored-second loss rate.
    pub p_wes: f64,
    /// Buffer-overflow slots in *this* run, summed over the lag
    /// combinations. Counted per run in registers (and then added to
    /// the process-global `queue_overflow_slots` counter once), so it
    /// is exact even while other threads run the queue.
    pub overflow_slots: u64,
}

impl AveragedLoss {
    /// Whether this run meets `target` under `metric`.
    pub(crate) fn meets(&self, target: LossTarget, metric: LossMetric) -> bool {
        let v = match metric {
            LossMetric::Overall => self.p_l,
            LossMetric::WorstSecond => self.p_wes,
        };
        match target {
            LossTarget::Zero => v == 0.0,
            LossTarget::Rate(r) => v <= r,
        }
    }
}

/// One point of a Q-C curve (Fig 14's axes).
#[derive(Debug, Clone, Copy)]
pub struct QcPoint {
    /// Maximum buffer delay `T_max = Q/C_total`, seconds.
    pub t_max_secs: f64,
    /// Required capacity per source, bytes/second.
    pub capacity_per_source: f64,
}

/// Sweeps `T_max` values and finds the required capacity per source for
/// each (one curve of Fig 14).
pub fn qc_curve(
    sim: &MuxSim,
    t_max_grid: &[f64],
    target: LossTarget,
    metric: LossMetric,
    iterations: usize,
) -> Vec<QcPoint> {
    let _span = obs::span("qsim.qc_curve");
    // Each T_max bisection is independent; sweep the grid on the worker
    // pool. The nested `MuxSim::run` parallelism automatically degrades
    // to serial inside these workers, so the thread count stays bounded,
    // and grid order is preserved in the returned curve.
    let work = sim
        .trace()
        .slice_bytes()
        .len()
        .saturating_mul(sim.combos().len())
        .saturating_mul(point_sweeps(sim, target, iterations))
        .saturating_mul(t_max_grid.len());
    vbr_stats::par::par_map_sized(work, t_max_grid, |&t| QcPoint {
        t_max_secs: t,
        capacity_per_source: sim.required_capacity(t, target, metric, iterations)
            / sim.n_sources() as f64,
    })
}

/// Sweeps of every lag combination one grid point of [`qc_curve`]
/// costs, for its pool work estimate: a rate search makes one pass per
/// tree of levels, a zero-loss search one window-ratio scan and at most
/// one pass (its levels are decided from the exact capacity until a
/// midpoint falls within the margin). The estimate only gates
/// parallelism; it never changes bits.
fn point_sweeps(sim: &MuxSim, target: LossTarget, iterations: usize) -> usize {
    let passes = search::search_passes(iterations, search::search_lanes(sim.grouping().1));
    match target {
        LossTarget::Zero => 1 + passes.min(1),
        LossTarget::Rate(_) => passes.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_video::{generate_screenplay, ScreenplayConfig, Trace};

    fn test_trace() -> Trace {
        generate_screenplay(&ScreenplayConfig::short(3_000, 11))
    }

    #[test]
    fn mean_and_peak_rates_scale_with_n() {
        let t = test_trace();
        let s1 = MuxSim::new(&t, 1, 1);
        let s5 = MuxSim::new(&t, 5, 1);
        assert!((s5.mean_rate() / s1.mean_rate() - 5.0).abs() < 1e-9);
        // Peak of a sum is below the sum of peaks.
        assert!(s5.peak_slot_rate() < 5.0 * s1.peak_slot_rate());
        assert!(s5.peak_slot_rate() > s1.peak_slot_rate());
    }

    #[test]
    fn zero_loss_at_peak_rate() {
        let t = test_trace();
        let sim = MuxSim::new(&t, 2, 2);
        let loss = sim.run(sim.peak_slot_rate(), 0.0);
        assert_eq!(loss.p_l, 0.0);
        assert_eq!(loss.p_wes, 0.0);
    }

    #[test]
    fn heavy_loss_just_above_mean_rate_with_small_buffer() {
        let t = test_trace();
        let sim = MuxSim::new(&t, 1, 3);
        let loss = sim.run(sim.mean_rate() * 1.01, 100.0);
        assert!(loss.p_l > 1e-3, "p_l {}", loss.p_l);
        assert!(loss.p_wes >= loss.p_l);
    }

    #[test]
    fn loss_decreases_with_capacity() {
        let t = test_trace();
        let sim = MuxSim::new(&t, 2, 4);
        let c = sim.mean_rate();
        let l1 = sim.run(c * 1.05, 1000.0).p_l;
        let l2 = sim.run(c * 1.3, 1000.0).p_l;
        let l3 = sim.run(c * 1.8, 1000.0).p_l;
        assert!(l1 >= l2 && l2 >= l3, "{l1} {l2} {l3}");
    }

    #[test]
    fn required_capacity_meets_target() {
        let t = test_trace();
        let sim = MuxSim::new(&t, 1, 5);
        let t_max = 0.002;
        let c = sim.required_capacity(t_max, LossTarget::Rate(1e-3), LossMetric::Overall, 25);
        let achieved = sim.run(c, t_max * c).p_l;
        assert!(achieved <= 1e-3, "achieved {achieved}");
        // And it is tight: 2 % less capacity should violate the target.
        let under = sim.run(c * 0.98, t_max * c * 0.98).p_l;
        assert!(under > 1e-3 * 0.5, "search not tight: under-capacity loss {under}");
    }

    #[test]
    fn zero_target_needs_more_capacity_than_lossy_targets() {
        let t = test_trace();
        let sim = MuxSim::new(&t, 1, 6);
        let t_max = 0.002;
        let c0 = sim.required_capacity(t_max, LossTarget::Zero, LossMetric::Overall, 25);
        let c3 = sim.required_capacity(t_max, LossTarget::Rate(1e-3), LossMetric::Overall, 25);
        let c1 = sim.required_capacity(t_max, LossTarget::Rate(1e-1), LossMetric::Overall, 25);
        assert!(c0 >= c3 && c3 >= c1, "{c0} {c3} {c1}");
        assert!(c0 > sim.mean_rate());
        assert!(c0 <= sim.peak_slot_rate() * 1.001);
    }

    #[test]
    fn bigger_buffer_reduces_required_capacity() {
        let t = test_trace();
        let sim = MuxSim::new(&t, 1, 7);
        let c_small = sim.required_capacity(0.0005, LossTarget::Rate(1e-3), LossMetric::Overall, 25);
        let c_big = sim.required_capacity(0.1, LossTarget::Rate(1e-3), LossMetric::Overall, 25);
        assert!(c_big < c_small, "big buffer {c_big} vs small {c_small}");
    }

    #[test]
    fn qc_curve_is_decreasing_in_t_max() {
        let t = test_trace();
        let sim = MuxSim::new(&t, 1, 8);
        let curve = qc_curve(
            &sim,
            &[0.0005, 0.002, 0.01, 0.05],
            LossTarget::Rate(1e-3),
            LossMetric::Overall,
            22,
        );
        for w in curve.windows(2) {
            assert!(
                w[1].capacity_per_source <= w[0].capacity_per_source * 1.01,
                "curve not decreasing: {curve:?}"
            );
        }
    }

    #[test]
    fn zero_curves_are_estimated_below_rate_curves_with_the_same_bits() {
        let t = test_trace();
        let grid = [0.0005, 0.002, 0.01];
        for n in [1, 5] {
            let sim = MuxSim::new(&t, n, 14);
            let zero = point_sweeps(&sim, LossTarget::Zero, 22);
            let rate = point_sweeps(&sim, LossTarget::Rate(1e-3), 22);
            assert!(zero < rate, "N = {n}: zero {zero} vs rate {rate}");
            for target in [LossTarget::Zero, LossTarget::Rate(1e-3)] {
                let curve = |threads| {
                    vbr_stats::par::with_threads(threads, || {
                        qc_curve(&sim, &grid, target, LossMetric::Overall, 22)
                            .iter()
                            .map(|p| (p.t_max_secs.to_bits(), p.capacity_per_source.to_bits()))
                            .collect::<Vec<_>>()
                    })
                };
                let serial = curve(1);
                assert_eq!(curve(2), serial, "N = {n}, {target:?}, 2 threads");
                assert_eq!(curve(3), serial, "N = {n}, {target:?}, 3 threads");
            }
        }
    }

    #[test]
    fn try_run_rejects_overload_run_allows_it() {
        let t = test_trace();
        let sim = MuxSim::new(&t, 1, 10);
        // Below the mean rate: the panicking path still simulates it…
        let lossy = sim.run(sim.mean_rate() * 0.5, 1_000.0);
        assert!(lossy.p_l > 0.1);
        // …while the fallible path reports the instability.
        match sim.try_run(sim.mean_rate() * 0.5, 1_000.0) {
            Err(QsimError::Overload { utilization }) => {
                assert!((utilization - 2.0).abs() < 1e-9, "utilization {utilization}")
            }
            other => panic!("expected Overload, got {other:?}"),
        }
        // Stable loads agree between the two paths.
        let c = sim.mean_rate() * 1.2;
        assert_eq!(sim.try_run(c, 1_000.0).unwrap(), sim.run(c, 1_000.0));
    }

    #[test]
    fn try_constructors_and_searches_reject_bad_inputs() {
        let t = test_trace();
        assert!(matches!(MuxSim::try_new(&t, 0, 1), Err(QsimError::NoSources)));
        let sim = MuxSim::try_new(&t, 1, 1).unwrap();
        assert!(sim.try_run(0.0, 100.0).is_err());
        assert!(sim.try_run(sim.mean_rate() * 2.0, -1.0).is_err());
        assert!(sim
            .try_required_capacity(-0.1, LossTarget::Zero, LossMetric::Overall, 5)
            .is_err());
        assert!(sim
            .try_required_capacity(0.01, LossTarget::Rate(f64::NAN), LossMetric::Overall, 5)
            .is_err());
        let c = sim
            .try_required_capacity(0.01, LossTarget::Rate(1e-2), LossMetric::Overall, 15)
            .unwrap();
        assert!(c > sim.mean_rate() && c.is_finite());
    }

    #[test]
    fn search_rejects_all_zero_trace() {
        // Mean and peak rates are both zero: no positive capacity to
        // probe, so the search must fail typed instead of building a
        // zero-capacity queue.
        let t = Trace::from_slices(vec![0; 600], 30, 24.0);
        for n in [1, 3] {
            let sim = MuxSim::try_new(&t, n, 1).unwrap();
            for iterations in [0, 10] {
                let got =
                    sim.try_required_capacity(0.01, LossTarget::Zero, LossMetric::Overall, iterations);
                assert!(
                    matches!(
                        got,
                        Err(QsimError::Numeric(NumericError::NonPositive {
                            what: "mean arrival rate",
                            ..
                        }))
                    ),
                    "N = {n}, {iterations} levels: {got:?}"
                );
            }
        }
    }

    #[test]
    fn try_new_rejects_aggregates_past_exact_f64_sums() {
        // (2²¹ + 1) sources of a u32::MAX slice can aggregate past 2⁵³.
        // Rejected before any offsets are drawn.
        let t = Trace::from_slices(vec![u32::MAX; 4], 2, 24.0);
        match MuxSim::try_new(&t, (1 << 21) + 1, 1) {
            Err(QsimError::Numeric(NumericError::OutOfRange { hi, .. })) => {
                assert_eq!(hi, 2f64.powi(53))
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
        assert!(MuxSim::try_new(&t, 3, 1).is_ok());
    }

    #[test]
    fn overflow_slots_is_per_run_not_cumulative() {
        let t = test_trace();
        let sim = MuxSim::new(&t, 1, 12);
        let lossy = sim.run(sim.mean_rate() * 1.01, 100.0);
        assert!(lossy.overflow_slots > 0);
        // Identical reruns report the same per-run figure even though
        // the process-global counter keeps growing between them.
        let rerun = sim.run(sim.mean_rate() * 1.01, 100.0);
        assert_eq!(rerun.overflow_slots, lossy.overflow_slots);
        // A lossless run reports zero despite the lossy history.
        assert_eq!(sim.run(sim.peak_slot_rate(), 0.0).overflow_slots, 0);
    }

    #[test]
    fn overflow_slots_are_exact_under_concurrent_runs() {
        let t = test_trace();
        let sim = MuxSim::new(&t, 3, 13);
        let (c_a, c_b) = (sim.mean_rate() * 1.01, sim.mean_rate() * 1.1);
        let solo_a = sim.run(c_a, 100.0).overflow_slots;
        let solo_b = sim.run(c_b, 300.0).overflow_slots;
        assert!(solo_a > 0 && solo_b > 0 && solo_a != solo_b);
        // Two threads replay at once (the barrier lines each pair of runs
        // up); each must see its own count, not the other's slots
        // leaking in through the global counter.
        let start = std::sync::Barrier::new(2);
        let runs = |c: f64, buffer: f64| {
            (0..4)
                .map(|_| {
                    start.wait();
                    sim.run(c, buffer).overflow_slots
                })
                .collect::<Vec<_>>()
        };
        std::thread::scope(|s| {
            let a = s.spawn(|| runs(c_a, 100.0));
            let b = s.spawn(|| runs(c_b, 300.0));
            assert_eq!(a.join().unwrap(), vec![solo_a; 4]);
            assert_eq!(b.join().unwrap(), vec![solo_b; 4]);
        });
    }

    /// The one-probe-per-replay bisection on the public dense `run`: the
    /// capacity after `levels` `P_l <= rate` levels from `(lo, hi)`.
    fn scalar_capacity(
        sim: &MuxSim,
        t_max: f64,
        rate: f64,
        (lo, hi): (f64, f64),
        levels: usize,
    ) -> f64 {
        let (mut lo, mut hi) = (lo, hi);
        for _ in 0..levels {
            let mid = 0.5 * (lo + hi);
            if sim.run(mid, t_max * mid).p_l <= rate {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// The capacity at which `share` of all blocks are quiet: block peak
    /// quantiles, as a rate. Share 0 is the smallest peak, below which
    /// no block of any combination is quiet.
    fn quiet_at(sim: &MuxSim, share: f64) -> f64 {
        let mut peaks: Vec<u32> =
            sim.index.iter().flat_map(|ix| ix.peaks.iter().copied()).collect();
        peaks.sort_unstable();
        let at = ((peaks.len() - 1) as f64 * share) as usize;
        f64::from(peaks[at]) / sim.dt()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Searches whose passes skip idle blocks against the
        /// one-probe-per-replay loop, bit for bit, over the search's own
        /// bracket, one where every block is idle (above the peak), one
        /// where none is (below every block's peak) and one where most
        /// are quiet but queues still build, at 1–3 threads, so one to
        /// three combinations share a pass; on screenplay traces and on
        /// bursts whose backlogs run into quiet blocks.
        #[test]
        fn skipping_searches_keep_scalar_bits(
            trace_pick in 0usize..2,
            n_pick in 0usize..4,
            seed in 0u64..1_000,
            t_pick in 0usize..3,
            rate_pick in 0usize..3,
            bracket_pick in 0usize..4,
            levels in 0usize..26,
            threads in 1usize..4,
        ) {
            let trace =
                if trace_pick == 1 { bursty_trace() } else { generate_screenplay(&ScreenplayConfig::short(200, 5)) };
            let sim = MuxSim::new(&trace, [1, 3, 5, 20][n_pick], seed);
            let t_max = [0.0, 0.002, 0.02][t_pick];
            let rate = [0.0, 1e-4, 1e-2][rate_pick];
            let (mean, peak) = (sim.mean_rate(), sim.peak_slot_rate());
            let bracket = match bracket_pick {
                0 => (mean, peak.max(mean * 1.001)),
                1 => (peak, 2.0 * peak),
                2 => (0.25 * quiet_at(&sim, 0.0), 0.5 * quiet_at(&sim, 0.0)),
                _ => (quiet_at(&sim, 0.6), quiet_at(&sim, 0.95)),
            };
            proptest::prop_assume!(bracket.0 > 0.0);
            let target = LossTarget::Rate(rate);
            let got = vbr_stats::par::with_threads(threads, || {
                let passes = Passes { sim: &sim, skip_idle: true };
                search::search(bracket.0, bracket.1, levels, t_max, target, LossMetric::Overall, passes)
            });
            let want = scalar_capacity(&sim, t_max, rate, bracket, levels);
            proptest::prop_assert_eq!(got.unwrap().to_bits(), want.to_bits());
        }
    }

    /// 40 000 slots of an uneven floor of 300–556 bytes with a
    /// 20 000-byte burst every 4 999 slots: bursts that land anywhere in
    /// a block, so backlogs cross into quiet blocks.
    fn bursty_trace() -> Trace {
        let slices = (0..40_000u32)
            .map(|i| if i % 4_999 == 4_998 { 20_000 } else { 300 + (i * 7_919) % 257 })
            .collect();
        Trace::from_slices(slices, 40, 25.0)
    }

    #[test]
    fn skipping_passes_keep_dense_bits() {
        // Lane ladders from below every block's peak to past the peak
        // slot rate: dense passes, skipping passes with most blocks
        // stepped, and passes that skip every block.
        let (mut skipped, mut dense, mut lossy_skips) = (0, 0, 0);
        let traces = [generate_screenplay(&ScreenplayConfig::short(400, 3)), bursty_trace()];
        for (t, n) in traces.iter().flat_map(|t| [1, 3, 5, 20].map(|n| (t, n))) {
            let sim = MuxSim::new(t, n, 17);
            let (floor, peak) = (quiet_at(&sim, 0.0), sim.peak_slot_rate());
            let ladders = [
                (0.5 * floor, floor),
                (quiet_at(&sim, 0.6), quiet_at(&sim, 0.9)),
                (peak, 1.5 * peak),
            ];
            for (lo, hi) in ladders {
                let caps: [f64; 8] = std::array::from_fn(|l| lo + (hi - lo) * l as f64 / 7.0);
                let service = caps[0] * sim.dt();
                let skips = sim.index.chunks(sim.grouping().1).all(|ix| skip_pays(ix, service));
                if skips {
                    skipped += 1;
                } else {
                    dense += 1;
                }
                for t_max in [0.0, 0.004, 0.05] {
                    let bufs = caps.map(|c| t_max * c);
                    for threads in 1..=3 {
                        vbr_stats::par::with_threads(threads, || {
                            let want = sim.replay(&caps, &bufs, false, false);
                            let got = sim.replay(&caps, &bufs, false, true);
                            if skips && want[0].overflow_slots > 0 {
                                lossy_skips += 1;
                            }
                            for (l, (g, w)) in got.iter().zip(&want).enumerate() {
                                let at =
                                    format!("N = {n}, lane {l}, T_max {t_max}, {threads} threads");
                                assert_eq!(g.p_l.to_bits(), w.p_l.to_bits(), "{at}");
                                assert_eq!(g.overflow_slots, w.overflow_slots, "{at}");
                            }
                        });
                    }
                }
            }
        }
        assert!(skipped > 0 && dense > 0, "skipped {skipped}, dense {dense}: weak test");
        assert!(lossy_skips > 0, "no skipping pass lost a byte: weak test");
    }

    #[test]
    fn quiet_block_behind_a_backlog_is_stepped() {
        // 16 blocks of 64 slots at 768 slots/s, one source. Service is
        // ~1000 bytes a slot, the buffer 5000 bytes. Block 0 ends on a
        // 4000-byte burst, leaving a 3000-byte backlog; block 1 is quiet
        // (900 bytes a slot) and drains it; block 2 opens on an
        // 8000-byte burst. Skipping block 1 would meet that burst with
        // the backlog still queued and lose 3000 bytes more.
        let mut slices = vec![0u32; 16 * IDLE_BLOCK];
        slices[IDLE_BLOCK - 1] = 4_000;
        slices[IDLE_BLOCK..2 * IDLE_BLOCK].fill(900);
        slices[2 * IDLE_BLOCK] = 8_000;
        let trace = Trace::from_slices(slices, 32, 24.0);
        let sim = MuxSim::new(&trace, 1, 1);
        let c = 1_000.0 / sim.dt();
        let q = 5_000.0;
        let service = FluidQueue::new(q, c).capacity_bps() * sim.dt();
        assert!(sim.index[0].quiet(1, service) && !sim.index[0].quiet(2, service));
        assert!(skip_pays(&sim.index, service), "the pass must take the skipping path");
        let mut fluid = FluidQueue::new(q, c);
        for &a in &aggregate_arrivals_for_test(&sim) {
            fluid.step(a, sim.dt());
        }
        let [got] = sim.replay(&[c], &[q], false, true);
        assert_eq!(got.p_l.to_bits(), fluid.loss_rate().to_bits());
        assert_eq!(got.overflow_slots, 1);
        assert!((got.p_l * 69_600.0 - 2_000.0).abs() < 1e-6, "p_l {}", got.p_l);
    }

    /// The materialized aggregate of `sim`'s only combination.
    fn aggregate_arrivals_for_test(sim: &MuxSim) -> Vec<f64> {
        crate::mux::aggregate_arrivals(sim.trace(), &sim.combos()[0])
    }

    #[test]
    fn index_totals_are_the_lanes_arrived_bits() {
        let t = generate_screenplay(&ScreenplayConfig::short(300, 9));
        for n in [1, 5, 20] {
            let sim = MuxSim::new(&t, n, 4);
            for (combo, ix) in sim.combos().iter().zip(&sim.index) {
                let slots = t.slice_bytes().len();
                let mut lanes =
                    LaneQueues::<2>::new(&[1e6, 2e6], &[0.0, 10.0], sim.dt(), slots, true);
                let mut cursor = ArrivalCursor::new(&t, combo);
                let mut buf = [0.0; 1000];
                loop {
                    let k = cursor.next_block(&mut buf);
                    if k == 0 {
                        break;
                    }
                    lanes.feed([&buf[..k]]);
                }
                assert_eq!(ix.total.to_bits(), lanes.arrived()[0].to_bits(), "N = {n}");
                assert_eq!(ix.peaks.len(), slots.div_ceil(IDLE_BLOCK));
            }
        }
    }

    #[test]
    fn run_single_matches_run_for_one_combo() {
        let t = test_trace();
        let sim = MuxSim::new(&t, 1, 9);
        let c = sim.mean_rate() * 1.1;
        let avg = sim.run(c, 5_000.0);
        let single = sim.run_single(0, c, 5_000.0);
        assert!((avg.p_l - single.loss_rate).abs() < 1e-12);
    }
}
