//! Q-C analysis (Figs 14–16): run the multiplexer at a given capacity and
//! buffer, and search for the capacity that achieves a target loss rate at
//! a fixed maximum buffer delay `T_max = Q/C_total`.

use crate::error::QsimError;
use crate::metrics::SimResult;
use crate::mux::{lag_combinations, ArrivalCursor, LagCombination};
use crate::queue::FluidQueue;
use crate::search::{self, check_search_args, LaneQueues, SEARCH_DEPTH, STREAM_CHUNK};
use vbr_stats::error::DataError;
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
}

impl<'a> MuxSim<'a> {
    /// Prepares the experiment. Applies the paper's rules: offsets ≥ 1000
    /// frames apart, 6 random lag combinations for N > 2.
    pub fn new(trace: &'a Trace, n_sources: usize, seed: u64) -> Self {
        assert!(n_sources >= 1);
        Self::try_new(trace, n_sources, seed).unwrap_or_else(|e| panic!("MuxSim::new: {e}"))
    }

    /// Fallible [`new`](Self::new): rejects zero sources and an empty
    /// trace with typed errors.
    pub fn try_new(trace: &'a Trace, n_sources: usize, seed: u64) -> Result<Self, QsimError> {
        if n_sources == 0 {
            return Err(QsimError::NoSources);
        }
        if trace.frames() == 0 {
            return Err(DataError::Empty.into());
        }
        let min_sep = if n_sources == 1 { 0 } else { 1000.min(trace.frames() / (2 * n_sources)) };
        let combos = lag_combinations(n_sources, trace.frames(), min_sep, seed);
        // One streaming pass per combination for the rate summaries —
        // independent sweeps, so they run on the worker pool when the
        // trace is long enough to amortize the spawn cost (combo order
        // is preserved; sums are left-to-right per combo, keeping the
        // rates bit-identical to a serial materializing build).
        let dt = trace.slice_duration();
        let work = trace.slice_bytes().len().saturating_mul(combos.len());
        let per_combo: Vec<(f64, f64)> = vbr_stats::par::par_map_sized(work, &combos, |c| {
            let mut cursor = ArrivalCursor::new(trace, c);
            let mut buf = [0.0f64; STREAM_CHUNK];
            let mut total = 0.0f64;
            let mut peak = 0.0f64;
            loop {
                let k = cursor.next_block(&mut buf);
                if k == 0 {
                    break;
                }
                for &a in &buf[..k] {
                    total += a;
                    peak = peak.max(a);
                }
            }
            (total, peak)
        });
        let slots = trace.slice_bytes().len();
        let mean_rate = per_combo[0].0 / (slots as f64 * dt);
        let peak_slot_rate = per_combo.iter().map(|&(_, p)| p).fold(0.0f64, f64::max) / dt;
        Ok(MuxSim { trace, n_sources, dt, mean_rate, peak_slot_rate, combos })
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

    /// Runs one combination, returning full per-slot records including
    /// the backlog (so delay statistics are available). This is the one
    /// path that still materializes per-slot series — its *output* is
    /// `O(slots)` by contract.
    pub fn run_single(&self, combo: usize, capacity_bps: f64, buffer_bytes: f64) -> SimResult {
        let cursor = ArrivalCursor::new(self.trace, &self.combos[combo]);
        let n = cursor.len();
        let mut q = FluidQueue::new(buffer_bytes, capacity_bps);
        let mut loss = Vec::with_capacity(n);
        let mut backlog = Vec::with_capacity(n);
        let mut arrivals = Vec::with_capacity(n);
        for a in cursor {
            loss.push(q.step(a, self.dt));
            backlog.push(q.backlog());
            arrivals.push(a);
        }
        SimResult::new(loss, arrivals, self.dt).with_backlog(backlog)
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
        let losses = self.replay(capacities, buffers);
        let overflow = losses.iter().map(|l| l.overflow_slots).sum();
        obs::counter_add(Counter::QueueOverflowSlots, overflow);
        losses
    }

    /// One shared arrival pass per combination through `L` queue lanes,
    /// touching no counter. Overload is deliberately legal here
    /// (transient studies run below the mean rate); `try_run` is the
    /// variant that rejects it.
    ///
    /// Each combination is an independent replay, so the (up to six)
    /// replays run on the worker pool when the trace is long enough to
    /// amortize the spawn cost; the metrics come back in combo order and
    /// are summed left-to-right, making the averages bit-identical to
    /// the serial loop. Overflow slots are counted in registers per
    /// lane, so a run's figure is its own whatever runs concurrently.
    fn replay<const L: usize>(&self, capacities: &[f64; L], buffers: &[f64; L]) -> [AveragedLoss; L] {
        let work = self.trace.slice_bytes().len().saturating_mul(self.combos.len());
        let per_combo: Vec<[AveragedLoss; L]> =
            vbr_stats::par::par_map_sized(work, &self.combos, |combo| {
                let mut cursor = ArrivalCursor::new(self.trace, combo);
                let mut lanes = LaneQueues::new(capacities, buffers, self.dt, cursor.len());
                let mut buf = [0.0f64; STREAM_CHUNK];
                loop {
                    let k = cursor.next_block(&mut buf);
                    if k == 0 {
                        break;
                    }
                    lanes.feed(&buf[..k]);
                }
                lanes.totals()
            });
        let k = self.combos.len() as f64;
        std::array::from_fn(|l| {
            let mut p_l = 0.0;
            let mut p_wes = 0.0;
            let mut overflow_slots = 0;
            for totals in &per_combo {
                p_l += totals[l].p_l;
                p_wes += totals[l].p_wes;
                overflow_slots += totals[l].overflow_slots;
            }
            AveragedLoss { p_l: p_l / k, p_wes: p_wes / k, overflow_slots }
        })
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
    /// slot rate, decided three at a time from one shared arrival pass
    /// (see the `search` module); the result is bit-identical to probing
    /// one midpoint per [`run`](Self::run).
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
        let lo = self.mean_rate; // below the mean, loss is unavoidable
        let hi = self.peak_slot_rate.max(lo * 1.001); // provably lossless
        search::bisect(lo, hi, iterations, t_max_secs, target, metric, |caps, bufs| {
            Ok(self.replay(caps, bufs))
        })
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
    // and grid order is preserved in the returned curve. Each grid point
    // costs one full replay of every combination per `SEARCH_DEPTH`
    // bisection levels.
    let work = sim
        .trace()
        .slice_bytes()
        .len()
        .saturating_mul(sim.combos().len())
        .saturating_mul(iterations.div_ceil(SEARCH_DEPTH).max(1))
        .saturating_mul(t_max_grid.len());
    vbr_stats::par::par_map_sized(work, t_max_grid, |&t| QcPoint {
        t_max_secs: t,
        capacity_per_source: sim.required_capacity(t, target, metric, iterations)
            / sim.n_sources() as f64,
    })
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
