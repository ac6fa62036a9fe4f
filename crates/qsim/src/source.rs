//! Model-driven queueing: the queueing side of the model-zoo seam.
//!
//! [`crate::MuxSim`] replays a *stored* trace; this module feeds the
//! fluid queue straight from any live [`BlockSource`] — and, for a full
//! [`TrafficModel`], runs the Q-C capacity bisection by replaying the
//! *same* sample path for every candidate capacity through the model's
//! snapshot/restore contract. That keeps the search deterministic (every
//! probe sees an identical arrival process, exactly like the stored-trace
//! search) without ever materialising the series.

use vbr_fgn::stream::BlockSource;
use vbr_fgn::traffic::TrafficModel;
use vbr_stats::obs::{self, Counter};

use crate::error::QsimError;
use crate::qc::{LossMetric, LossTarget};
use crate::search::{self, check_search_args, LaneQueues, STREAM_CHUNK};

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
    let (lanes, peak_slot) = replay_source(src, slots, dt, &[capacity_bps], &[buffer_bytes]);
    let [lane] = lanes.totals();
    obs::counter_add(Counter::QueueOverflowSlots, lane.overflow_slots);
    SourceRunStats {
        loss_rate: lane.p_l,
        worst_second_loss: lane.p_wes,
        mean_rate: lanes.offered() / (slots as f64 * dt),
        peak_slot_rate: peak_slot / dt,
    }
}

/// Streams `slots` samples from `src` through `L` queue lanes, returning
/// the lanes and the peak single-slot arrival.
fn replay_source<const L: usize>(
    src: &mut dyn BlockSource,
    slots: usize,
    dt: f64,
    capacities: &[f64; L],
    buffers: &[f64; L],
) -> (LaneQueues<L>, f64) {
    let mut lanes = LaneQueues::new(capacities, buffers, dt, slots);
    let mut buf = [0.0f64; STREAM_CHUNK];
    let mut peak_slot = 0.0f64;
    let mut i = 0usize;
    while i < slots {
        let k = (slots - i).min(STREAM_CHUNK);
        src.next_block(&mut buf[..k]);
        lanes.feed(&buf[..k]);
        peak_slot = buf[..k].iter().fold(peak_slot, |p, &a| p.max(a));
        i += k;
    }
    (lanes, peak_slot)
}

/// Smallest capacity (bytes/s) achieving `target` under `metric` for a
/// [`TrafficModel`]-generated arrival process of `slots` slots, with the
/// buffer tied to the capacity through `Q = t_max × C` — one point of a
/// model-driven Q-C curve.
///
/// The model is snapshotted on entry and restored before every shared
/// arrival pass of the speculative bisection (one pass decides up to
/// three levels), so each candidate capacity faces the identical sample
/// path and the search is exactly as deterministic as the stored-trace
/// one; on return the model is restored to its entry state, then
/// advanced by one run (`slots` samples), leaving its stream position
/// well-defined.
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
    let entry = model.snapshot(0);
    // Calibration pass: mean and peak rates bound the bisection bracket.
    let probe = run_source_queue(model, slots, dt, f64::MAX / 4.0, 0.0);
    let lo = probe.mean_rate; // below the mean, loss is unavoidable
    let hi = probe.peak_slot_rate.max(lo * 1.001); // provably lossless
    search::bisect(lo, hi, iterations, t_max_secs, target, metric, |caps, bufs| {
        model.restore(&entry).map_err(|_| {
            QsimError::from(vbr_stats::error::NumericError::NotConverged {
                what: "model snapshot replay",
            })
        })?;
        let (lanes, _) = replay_source(model, slots, dt, caps, bufs);
        Ok(lanes.totals())
    })
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
        // A stochastic model must give the same answer twice: the
        // snapshot/restore replay makes the search deterministic.
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
