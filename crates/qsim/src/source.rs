//! Model-driven queueing: the queueing side of the model-zoo seam.
//!
//! [`crate::MuxSim`] replays a *stored* trace; this module feeds the
//! fluid queue straight from any live [`BlockSource`] in cache-sized
//! chunks — and, for a full [`TrafficModel`], runs the Q-C capacity
//! bisection over *one* sample path: the search draws the model's next
//! `slots` samples once, keeps them (`O(slots)` memory, 128 KiB at
//! 16 384 slots) and replays that stored path for every candidate
//! capacity. Every probe therefore sees an identical arrival process,
//! exactly like the stored-trace search.

use vbr_fgn::stream::BlockSource;
use vbr_fgn::traffic::TrafficModel;
use vbr_stats::error::{DataError, NumericError};
use vbr_stats::obs::{self, Counter};

use crate::error::QsimError;
use crate::qc::{AveragedLoss, LossMetric, LossTarget};
use crate::search::{self, check_search_args, LaneQueues, SearchPass, STREAM_CHUNK};

/// Streaming statistics of one model-driven queue run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceRunStats {
    /// Overall loss rate `P_l` (lost bytes / offered bytes).
    pub loss_rate: f64,
    /// Worst-errored-second loss rate `P_l-WES`.
    pub worst_second_loss: f64,
    /// Mean arrival rate observed, bytes/second.
    pub mean_rate: f64,
    /// Peak single-slot arrival rate observed, bytes/second.
    pub peak_slot_rate: f64,
}

/// Feeds `slots` samples from `src` (each a byte count for one `dt`-long
/// slot) through a fluid queue, streaming in cache-sized chunks —
/// `O(chunk)` memory however long the run. Panics on a non-positive `dt`
/// or zero `slots`.
pub fn run_source_queue(
    src: &mut dyn BlockSource,
    slots: usize,
    dt: f64,
    capacity_bps: f64,
    buffer_bytes: f64,
) -> SourceRunStats {
    assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
    assert!(slots > 0, "need at least one slot");
    let _span = obs::span("qsim.source_run");
    obs::counter_add(Counter::MuxRuns, 1);
    let mut lanes = LaneQueues::new(&[capacity_bps], &[buffer_bytes], dt, slots, true);
    let mut buf = [0.0f64; STREAM_CHUNK];
    let mut peak_slot = 0.0f64;
    let mut i = 0usize;
    while i < slots {
        let k = (slots - i).min(STREAM_CHUNK);
        src.next_block(&mut buf[..k]);
        lanes.feed([&buf[..k]]);
        peak_slot = buf[..k].iter().fold(peak_slot, |p, &a| p.max(a));
        i += k;
    }
    let [[lane]] = lanes.totals();
    obs::counter_add(Counter::QueueOverflowSlots, lane.overflow_slots);
    SourceRunStats {
        loss_rate: lane.p_l,
        worst_second_loss: lane.p_wes,
        mean_rate: lanes.offered() / (slots as f64 * dt),
        peak_slot_rate: peak_slot / dt,
    }
}

/// `L` fluid queues, one per `(capacity, buffer)` lane, over one pass of
/// a stored arrival `path` (one byte count per `dt`-long slot) in
/// [`STREAM_CHUNK`] chunks, keeping the worst-errored-second totals only
/// for a [`LossMetric::WorstSecond`] pass (`p_wes` is NaN otherwise).
/// Touches no counter. The model-driven search runs every pass through
/// it; public only so benchmarks can replay a path the way the search
/// does.
#[doc(hidden)]
pub fn path_pass<const L: usize>(
    path: &[f64],
    dt: f64,
    capacities: &[f64; L],
    buffers: &[f64; L],
    metric: LossMetric,
) -> [AveragedLoss; L] {
    let wes = metric == LossMetric::WorstSecond;
    let mut lanes = LaneQueues::new(capacities, buffers, dt, path.len(), wes);
    for chunk in path.chunks(STREAM_CHUNK) {
        lanes.feed([chunk]);
    }
    let [totals] = lanes.totals();
    totals
}

/// Smallest capacity (bytes/s) achieving `target` under `metric` for a
/// [`TrafficModel`]-generated arrival process of `slots` slots, with the
/// buffer tied to the capacity through `Q = t_max × C` — one point of a
/// model-driven Q-C curve.
///
/// The calibration run draws the model's next `slots` samples (in the
/// [`STREAM_CHUNK`] chunks every replay uses) and keeps them; every
/// shared arrival pass of the speculative bisection (one pass decides up
/// to five levels, as the CPU's lane budget allows) then replays that
/// stored path, so each candidate capacity faces the identical sample
/// path and the search is exactly as deterministic as the stored-trace
/// one. The model ends `slots` samples past its entry state.
///
/// Rejects zero `slots`, a non-positive or non-finite `dt` and the
/// [`check_search_args`] cases before touching the model, and a model
/// whose calibration pass offers no traffic.
pub fn try_required_capacity_model(
    model: &mut dyn TrafficModel,
    slots: usize,
    dt: f64,
    t_max_secs: f64,
    target: LossTarget,
    metric: LossMetric,
    iterations: usize,
) -> Result<f64, QsimError> {
    check_search_args(t_max_secs, target)?;
    if slots == 0 {
        return Err(DataError::Empty.into());
    }
    if !dt.is_finite() {
        return Err(NumericError::NonFinite { what: "dt", value: dt }.into());
    }
    if dt <= 0.0 {
        return Err(NumericError::NonPositive { what: "dt", value: dt }.into());
    }
    // Calibration pass: mean and peak rates bound the bisection bracket.
    let mut recorder = Recorder { model, path: Vec::with_capacity(slots) };
    let probe = run_source_queue(&mut recorder, slots, dt, f64::MAX / 4.0, 0.0);
    let lo = probe.mean_rate; // below the mean, loss is unavoidable
    let hi = probe.peak_slot_rate.max(lo * 1.001); // provably lossless
    let replay = StoredPath { path: recorder.path, dt };
    search::search(lo, hi, iterations, t_max_secs, target, metric, replay)
}

/// A model that keeps a copy of every block it emits.
struct Recorder<'m> {
    model: &'m mut dyn TrafficModel,
    path: Vec<f64>,
}

impl BlockSource for Recorder<'_> {
    fn next_block(&mut self, out: &mut [f64]) {
        self.model.next_block(out);
        self.path.extend_from_slice(out);
    }
}

/// A model's stored sample path, replayed once per search pass: one
/// arrival stream, so one lane group.
struct StoredPath {
    path: Vec<f64>,
    dt: f64,
}

impl SearchPass for StoredPath {
    fn groups(&self) -> usize {
        1
    }

    fn pass<const L: usize>(
        &mut self,
        capacities: &[f64; L],
        buffers: &[f64; L],
        metric: LossMetric,
    ) -> Result<[AveragedLoss; L], QsimError> {
        Ok(path_pass(&self.path, self.dt, capacities, buffers, metric))
    }
}

/// Panicking [`try_required_capacity_model`].
#[allow(clippy::too_many_arguments)]
pub fn required_capacity_model(
    model: &mut dyn TrafficModel,
    slots: usize,
    dt: f64,
    t_max_secs: f64,
    target: LossTarget,
    metric: LossMetric,
    iterations: usize,
) -> f64 {
    try_required_capacity_model(model, slots, dt, t_max_secs, target, metric, iterations)
        .unwrap_or_else(|e| panic!("required_capacity_model: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::FluidQueue;
    use vbr_fgn::TraceReplay;

    fn sawtooth(n: usize) -> Vec<f64> {
        (0..n).map(|i| 100.0 + (i % 10) as f64 * 20.0).collect()
    }

    #[test]
    fn lossless_at_peak_rate_lossy_below_mean() {
        let dt = 1.0 / 30.0;
        let trace = sawtooth(3000);
        let peak = 280.0 / dt;
        let mean = trace.iter().sum::<f64>() / trace.len() as f64 / dt;

        let mut m = TraceReplay::new(trace.clone());
        let at_peak = run_source_queue(&mut m, 3000, dt, peak, 0.0);
        assert_eq!(at_peak.loss_rate, 0.0);
        assert!((at_peak.mean_rate - mean).abs() / mean < 1e-9);
        assert!((at_peak.peak_slot_rate - peak).abs() / peak < 1e-9);

        let mut m = TraceReplay::new(trace);
        let starved = run_source_queue(&mut m, 3000, dt, mean * 0.5, 0.0);
        assert!(starved.loss_rate > 0.2, "loss {}", starved.loss_rate);
        assert!(starved.worst_second_loss >= starved.loss_rate);
    }

    #[test]
    fn chunking_matches_slot_by_slot_queue() {
        // The streaming runner must agree with a scalar FluidQueue replay.
        let dt = 1.0 / 30.0;
        let trace = sawtooth(10_000);
        let cap = 170.0 / dt;
        let mut q = FluidQueue::new(cap * 0.02, cap);
        for &a in &trace {
            q.step(a, dt);
        }
        let mut m = TraceReplay::new(trace);
        let stats = run_source_queue(&mut m, 10_000, dt, cap, cap * 0.02);
        assert_eq!(stats.loss_rate.to_bits(), q.loss_rate().to_bits());
    }

    #[test]
    fn bisection_brackets_zero_loss_capacity() {
        let dt = 1.0 / 30.0;
        let mut m = TraceReplay::new(sawtooth(6000));
        let c = required_capacity_model(
            &mut m,
            6000,
            dt,
            0.0, // zero buffer: capacity must cover the peak slot
            LossTarget::Zero,
            LossMetric::Overall,
            40,
        );
        let peak = 280.0 / dt;
        assert!(
            (c - peak).abs() / peak < 1e-3,
            "required {c} vs peak {peak}"
        );
        // With a generous buffer the requirement drops toward the mean.
        let mut m = TraceReplay::new(sawtooth(6000));
        let c_buf = required_capacity_model(
            &mut m,
            6000,
            dt,
            5.0,
            LossTarget::Zero,
            LossMetric::Overall,
            40,
        );
        assert!(c_buf < c, "buffered {c_buf} vs unbuffered {c}");
    }

    #[test]
    fn probes_replay_identical_paths() {
        // A stochastic model must give the same answer twice: every pass
        // replays the one stored path, so the search is deterministic.
        let mut a = vbr_fgn::MwmModel::new(test_mwm_cfg(), 42);
        let mut b = vbr_fgn::MwmModel::new(test_mwm_cfg(), 42);
        let dt = 1.0 / 30.0;
        let ca = required_capacity_model(
            &mut a, 4096, dt, 0.02, LossTarget::Rate(0.01), LossMetric::Overall, 25,
        );
        let cb = required_capacity_model(
            &mut b, 4096, dt, 0.02, LossTarget::Rate(0.01), LossMetric::Overall, 25,
        );
        assert_eq!(ca, cb);
        assert!(ca.is_finite() && ca > 0.0);
        // The search leaves the model one run (4096 samples) past where
        // it started: its next samples are an untouched twin's after
        // drawing 4096.
        let mut twin = vbr_fgn::MwmModel::new(test_mwm_cfg(), 42);
        twin.sample_series(4096);
        assert_eq!(bits(&a.sample_series(1000)), bits(&twin.sample_series(1000)));
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The search as it ran before paths were stored: snapshot the model
    /// on entry, calibrate on the live model, then restore the snapshot
    /// and redraw the path before every pass.
    fn redrawn_search(
        model: &mut dyn TrafficModel,
        slots: usize,
        dt: f64,
        t_max_secs: f64,
        target: LossTarget,
        metric: LossMetric,
        iterations: usize,
    ) -> Result<f64, QsimError> {
        struct Redraw<'m> {
            model: &'m mut dyn TrafficModel,
            entry: Vec<u8>,
            slots: usize,
            dt: f64,
        }
        impl SearchPass for Redraw<'_> {
            fn groups(&self) -> usize {
                1
            }
            fn pass<const L: usize>(
                &mut self,
                capacities: &[f64; L],
                buffers: &[f64; L],
                metric: LossMetric,
            ) -> Result<[AveragedLoss; L], QsimError> {
                self.model.restore(&self.entry).expect("own snapshot restores");
                let mut path = vec![0.0; self.slots];
                for chunk in path.chunks_mut(STREAM_CHUNK) {
                    self.model.next_block(chunk);
                }
                Ok(path_pass(&path, self.dt, capacities, buffers, metric))
            }
        }
        let entry = model.snapshot(0);
        let probe = run_source_queue(model, slots, dt, f64::MAX / 4.0, 0.0);
        let lo = probe.mean_rate;
        let hi = probe.peak_slot_rate.max(lo * 1.001);
        let replay = Redraw { model, entry, slots, dt };
        search::search(lo, hi, iterations, t_max_secs, target, metric, replay)
    }

    /// The bake-off's members on a fitted trace: trace replay, fARIMA,
    /// MWM and the scene chain, freshly built.
    fn members() -> Vec<Box<dyn TrafficModel>> {
        let params = vbr_model::ModelParams::paper_frame_defaults();
        let trace = vbr_model::FarimaGpModel::from_params(&params, 512, 31).sample_series(12_288);
        let mut zoo = vbr_model::model_zoo(&trace, &params, 7);
        zoo.insert(0, Box::new(TraceReplay::new(trace)));
        zoo
    }

    #[test]
    fn stored_path_search_matches_redraw_per_pass() {
        let dt = 1.0 / 30.0;
        let slots = 6_000; // one full chunk and a ragged one
        let cases = [
            (LossTarget::Zero, LossMetric::Overall),
            (LossTarget::Zero, LossMetric::WorstSecond),
            (LossTarget::Rate(0.01), LossMetric::Overall),
            (LossTarget::Rate(0.01), LossMetric::WorstSecond),
        ];
        for threads in [1, 2] {
            vbr_stats::par::with_threads(threads, || {
                for (target, metric) in cases {
                    let stored = members();
                    let redrawn = members();
                    for (mut a, mut b) in stored.into_iter().zip(redrawn) {
                        // Start mid-stream, as the bake-off does.
                        a.sample_series(1_000);
                        b.sample_series(1_000);
                        let what = format!("{} {target:?} {metric:?} {threads}t", a.name());
                        let ca =
                            try_required_capacity_model(a.as_mut(), slots, dt, 0.05, target, metric, 12);
                        let cb = redrawn_search(b.as_mut(), slots, dt, 0.05, target, metric, 12);
                        assert_eq!(ca.map(f64::to_bits), cb.map(f64::to_bits), "{what}");
                        assert_eq!(bits(&a.sample_series(500)), bits(&b.sample_series(500)), "{what}");
                    }
                }
            });
        }
    }

    /// Runs the model search with `slots` and `dt`, expecting a typed
    /// error and an untouched model (validation precedes the snapshot).
    fn rejected_before_model(slots: usize, dt: f64) -> QsimError {
        let mut m = TraceReplay::new(sawtooth(300));
        let err = try_required_capacity_model(
            &mut m, slots, dt, 0.01, LossTarget::Zero, LossMetric::Overall, 10,
        )
        .expect_err("degenerate input accepted");
        let mut first = [0.0];
        m.next_block(&mut first);
        assert_eq!(first, [100.0], "model advanced before validation");
        err
    }

    #[test]
    fn model_search_rejects_zero_slots() {
        assert_eq!(rejected_before_model(0, 1.0 / 30.0), QsimError::Data(DataError::Empty));
    }

    #[test]
    fn model_search_rejects_non_positive_dt() {
        for dt in [0.0, -1.0 / 30.0] {
            assert!(matches!(
                rejected_before_model(300, dt),
                QsimError::Numeric(NumericError::NonPositive { what: "dt", .. })
            ));
        }
    }

    #[test]
    fn model_search_rejects_non_finite_dt() {
        for dt in [f64::NAN, f64::INFINITY] {
            assert!(matches!(
                rejected_before_model(300, dt),
                QsimError::Numeric(NumericError::NonFinite { what: "dt", .. })
            ));
        }
    }

    #[test]
    fn model_search_rejects_silent_model() {
        // The calibration pass finds a zero mean rate: no positive
        // capacity to probe.
        let mut m = TraceReplay::new(vec![0.0; 300]);
        let got = try_required_capacity_model(
            &mut m, 300, 1.0 / 30.0, 0.01, LossTarget::Zero, LossMetric::Overall, 10,
        );
        assert!(matches!(
            got,
            Err(QsimError::Numeric(NumericError::NonPositive { what: "mean arrival rate", .. }))
        ));
    }

    fn test_mwm_cfg() -> vbr_fgn::MwmConfig {
        vbr_fgn::MwmConfig {
            root_mean: 1000.0 * 2.0f64.powi(3),
            root_sd: 500.0,
            shapes: vec![3.0, 2.5, 2.0, 1.5, 1.2, 1.0],
            nominal_hurst: Some(0.8),
            nominal_mean: 1000.0,
            nominal_variance: 120_000.0,
        }
    }
}
