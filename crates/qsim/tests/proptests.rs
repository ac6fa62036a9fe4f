//! Property-based tests for the queueing substrate: conservation laws and
//! monotonicity of the fluid queue, multiplexer invariants, and the
//! speculative Q-C bisection against its scalar reference.

use std::sync::OnceLock;

use proptest::prelude::*;
use vbr_fgn::{MwmConfig, MwmModel, TraceReplay};
use vbr_qsim::{
    aggregate_arrivals, required_capacity_model, ArrivalCursor, FluidQueue, LagCombination,
    LossMetric, LossTarget, MuxSim,
};
use vbr_video::{generate_screenplay, ScreenplayConfig, Trace};

/// A short screenplay shared by the search properties (600 frames of 30
/// slices, so N = 5 still gets offsets 60 frames apart).
fn search_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| generate_screenplay(&ScreenplayConfig::short(600, 17)))
}

/// The one-probe-per-replay bisection the speculative search replaced,
/// built on the public one-lane `run`.
fn scalar_bisection(
    sim: &MuxSim,
    t_max: f64,
    target: LossTarget,
    metric: LossMetric,
    iterations: usize,
) -> f64 {
    let mut lo = sim.mean_rate();
    let mut hi = sim.peak_slot_rate().max(lo * 1.001);
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        let loss = sim.run(mid, t_max * mid);
        let v = match metric {
            LossMetric::Overall => loss.p_l,
            LossMetric::WorstSecond => loss.p_wes,
        };
        let meets = match target {
            LossTarget::Zero => v == 0.0,
            LossTarget::Rate(r) => v <= r,
        };
        if meets {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Checks an `L`-lane `run_lanes` at the first `L` capacity scales
/// against the one-lane runs at those capacities, bit for bit.
fn lanes_equal_solo_runs<const L: usize>(
    sim: &MuxSim,
    scales: &[f64],
    t_max: f64,
    solo: &[vbr_qsim::AveragedLoss],
) -> Result<(), TestCaseError> {
    let caps: [f64; L] = std::array::from_fn(|l| sim.mean_rate() * scales[l]);
    let lanes = sim.run_lanes(&caps, &caps.map(|c| t_max * c));
    for (l, (lane, solo)) in lanes.iter().zip(solo).enumerate() {
        prop_assert_eq!(lane.p_l.to_bits(), solo.p_l.to_bits(), "L = {}, lane {}", L, l);
        prop_assert_eq!(lane.p_wes.to_bits(), solo.p_wes.to_bits(), "L = {}, lane {}", L, l);
        prop_assert_eq!(lane.overflow_slots, solo.overflow_slots, "L = {}, lane {}", L, l);
    }
    Ok(())
}

proptest! {
    #[test]
    fn queue_conservation(
        arrivals in prop::collection::vec(0.0f64..10_000.0, 1..500),
        buffer in 0.0f64..50_000.0,
        capacity in 1.0f64..1e7,
    ) {
        let mut q = FluidQueue::new(buffer, capacity);
        for &a in &arrivals {
            q.step(a, 0.001389);
        }
        let balance = q.served() + q.lost() + q.backlog();
        prop_assert!((q.arrived() - balance).abs() < 1e-6 * q.arrived().max(1.0));
        prop_assert!(q.backlog() <= buffer + 1e-9);
        prop_assert!((0.0..=1.0).contains(&q.loss_rate()));
    }

    #[test]
    fn queue_loss_monotone_in_capacity(
        arrivals in prop::collection::vec(0.0f64..10_000.0, 10..300),
        buffer in 0.0f64..10_000.0,
        c1 in 1e3f64..1e6,
        factor in 1.01f64..10.0,
    ) {
        let run = |cap: f64| {
            let mut q = FluidQueue::new(buffer, cap);
            for &a in &arrivals {
                q.step(a, 0.001389);
            }
            q.loss_rate()
        };
        prop_assert!(run(c1) + 1e-12 >= run(c1 * factor));
    }

    #[test]
    fn queue_loss_monotone_in_buffer(
        arrivals in prop::collection::vec(0.0f64..10_000.0, 10..300),
        capacity in 1e3f64..1e6,
        b1 in 0.0f64..5_000.0,
        extra in 1.0f64..50_000.0,
    ) {
        let run = |buf: f64| {
            let mut q = FluidQueue::new(buf, capacity);
            for &a in &arrivals {
                q.step(a, 0.001389);
            }
            q.loss_rate()
        };
        prop_assert!(run(b1) + 1e-12 >= run(b1 + extra));
    }

    #[test]
    fn aggregate_conserves_total_bytes(
        slices in prop::collection::vec(0u32..10_000, 4..100),
        offsets in prop::collection::vec(0usize..1000, 1..6),
    ) {
        prop_assume!(slices.len() % 2 == 0);
        let trace = Trace::from_slices(slices.clone(), 2, 24.0);
        let offsets: Vec<usize> =
            offsets.into_iter().map(|o| o % trace.frames()).collect();
        let n_src = offsets.len();
        let agg = aggregate_arrivals(&trace, &LagCombination { offsets });
        let total: f64 = agg.iter().sum();
        let per_src: u64 = slices.iter().map(|&b| b as u64).sum();
        prop_assert!(
            (total - (per_src * n_src as u64) as f64).abs() < 1e-6,
            "aggregate total {total} vs {}", per_src * n_src as u64
        );
        prop_assert_eq!(agg.len(), slices.len());
    }

    #[test]
    fn cursor_aggregation_matches_materialized_exactly(
        slices in prop::collection::vec(0u32..100_000, 2..400),
        offsets in prop::collection::vec(0usize..10_000, 0..5),
        spf in 1usize..5,
        block in 1usize..70,
    ) {
        // The streaming cursor must reproduce `aggregate_arrivals`
        // bit-for-bit — same per-slot accumulation order — through both
        // its scalar and block paths, for any offsets. An offset on the
        // last frame is always included so every case exercises the
        // wrap-around near the trace end.
        let len = slices.len() - slices.len() % spf;
        prop_assume!(len >= spf);
        let trace = Trace::from_slices(slices[..len].to_vec(), spf, 24.0);
        let mut offsets: Vec<usize> =
            offsets.into_iter().map(|o| o % trace.frames()).collect();
        offsets.push(trace.frames() - 1);
        let lags = LagCombination { offsets };
        let want = aggregate_arrivals(&trace, &lags);

        let got_scalar: Vec<f64> = ArrivalCursor::new(&trace, &lags).collect();
        prop_assert_eq!(&got_scalar, &want);

        let mut cursor = ArrivalCursor::new(&trace, &lags);
        let mut got_blocks = Vec::with_capacity(want.len());
        let mut buf = vec![0.0f64; block];
        loop {
            let k = cursor.next_block(&mut buf);
            if k == 0 {
                break;
            }
            got_blocks.extend_from_slice(&buf[..k]);
        }
        prop_assert_eq!(&got_blocks, &want);
        prop_assert!(cursor.is_empty());
    }

    #[test]
    fn step_block_state_bit_identical_to_scalar_steps(
        arrivals in prop::collection::vec(0.0f64..10_000.0, 0..400),
        buffer in 0.0f64..5_000.0,
        capacity in 1e3f64..1e7,
        block in 1usize..97,
    ) {
        // The block recurrence is the scalar `step` loop with hoisted
        // invariants — queue state must match to the bit for any block
        // partition. The *returned* loss sums regroup addition at block
        // boundaries, so those compare to FP-sum accuracy only.
        let dt = 0.001389;
        let mut scalar = FluidQueue::new(buffer, capacity);
        let mut scalar_loss = 0.0f64;
        for &a in &arrivals {
            scalar_loss += scalar.step(a, dt);
        }
        let mut q = FluidQueue::new(buffer, capacity);
        let mut loss = 0.0f64;
        for chunk in arrivals.chunks(block) {
            loss += q.step_block(chunk, dt);
        }
        prop_assert_eq!(q.backlog().to_bits(), scalar.backlog().to_bits());
        prop_assert_eq!(q.arrived().to_bits(), scalar.arrived().to_bits());
        prop_assert_eq!(q.served().to_bits(), scalar.served().to_bits());
        prop_assert_eq!(q.lost().to_bits(), scalar.lost().to_bits());
        prop_assert!((loss - scalar_loss).abs() <= 1e-9 * scalar_loss.max(1.0));
    }

    #[test]
    fn zero_arrivals_produce_zero_loss(
        buffer in 0.0f64..1e5,
        capacity in 1.0f64..1e7,
        n in 1usize..200,
    ) {
        let mut q = FluidQueue::new(buffer, capacity);
        for _ in 0..n {
            prop_assert_eq!(q.step(0.0, 0.001), 0.0);
        }
        prop_assert_eq!(q.loss_rate(), 0.0);
        prop_assert_eq!(q.backlog(), 0.0);
    }

    #[test]
    fn speculative_search_equals_scalar_bisection(
        n_pick in 0usize..4,
        seed in 0u64..1_000,
        t_max in 0.0f64..0.05,
        rate in 1e-5f64..0.05,
        zero_target in 0usize..2,
        worst_second in 0usize..2,
        iterations in 0usize..26,
    ) {
        // Both N rules (1 combo vs 6), both targets and metrics, and
        // iteration counts across 0..=25, so ragged final passes (one or
        // two levels) and the empty search are covered.
        let n = [1usize, 2, 3, 5][n_pick];
        let sim = MuxSim::new(search_trace(), n, seed);
        let target = if zero_target == 1 { LossTarget::Zero } else { LossTarget::Rate(rate) };
        let metric = if worst_second == 1 { LossMetric::WorstSecond } else { LossMetric::Overall };
        let want = scalar_bisection(&sim, t_max, target, metric, iterations);
        let got = sim.required_capacity(t_max, target, metric, iterations);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "N={} {:?} {:?} x{}", n, target, metric, iterations);
    }

    #[test]
    fn every_lane_equals_a_one_lane_run(
        n_pick in 0usize..3,
        seed in 0u64..1_000,
        scales in prop::collection::vec(0.9f64..1.6, 32),
        t_max in 0.0f64..0.02,
    ) {
        // Every width a search pass can take: 8, 16 and 32 lanes.
        let n = [1usize, 3, 5][n_pick];
        let sim = MuxSim::new(search_trace(), n, seed);
        let solo: Vec<_> = scales
            .iter()
            .map(|s| sim.mean_rate() * s)
            .map(|c| sim.run(c, t_max * c))
            .collect();
        lanes_equal_solo_runs::<8>(&sim, &scales, t_max, &solo)?;
        lanes_equal_solo_runs::<16>(&sim, &scales, t_max, &solo)?;
        lanes_equal_solo_runs::<32>(&sim, &scales, t_max, &solo)?;
    }

    #[test]
    fn thread_count_grouping_is_bit_invisible(
        n_pick in 0usize..3,
        seed in 0u64..1_000,
        scales in prop::collection::vec(0.9f64..1.6, 8),
        t_max in 0.0f64..0.02,
        rate in 1e-5f64..0.05,
        iterations in 1usize..14,
    ) {
        // The pool width sets how many lag combinations share one
        // interleaved pass (6 workers: one each; 1 worker: three each),
        // so the width must change scheduling only, never a bit.
        let n = [3usize, 5, 20][n_pick];
        let sim = MuxSim::new(search_trace(), n, seed);
        let caps: [f64; 8] = std::array::from_fn(|l| sim.mean_rate() * scales[l]);
        let bufs = caps.map(|c| t_max * c);
        let run = |threads: usize| {
            vbr_stats::par::with_threads(threads, || {
                let lanes = sim.run_lanes(&caps, &bufs);
                let mut bits: Vec<u64> = lanes
                    .iter()
                    .flat_map(|l| [l.p_l.to_bits(), l.p_wes.to_bits(), l.overflow_slots])
                    .collect();
                for target in [LossTarget::Zero, LossTarget::Rate(rate)] {
                    let c = sim.required_capacity(t_max, target, LossMetric::Overall, iterations);
                    bits.push(c.to_bits());
                }
                bits
            })
        };
        let serial = run(1);
        for threads in [2, 4, 6] {
            prop_assert_eq!(&run(threads), &serial, "N={} threads={}", n, threads);
        }
    }
}

fn golden_series() -> Vec<f64> {
    (0..6000usize)
        .map(|i| 100.0 + ((i * 7919) % 97) as f64 * 3.0 + if i % 50 == 0 { 400.0 } else { 0.0 })
        .collect()
}

fn golden_mwm() -> MwmConfig {
    MwmConfig {
        root_mean: 1000.0 * 2.0f64.powi(3),
        root_sd: 500.0,
        shapes: vec![3.0, 2.5, 2.0, 1.5, 1.2, 1.0],
        nominal_hurst: Some(0.8),
        nominal_mean: 1000.0,
        nominal_variance: 120_000.0,
    }
}

/// Capacities the one-probe-per-replay model search returned; the
/// speculative search must reproduce them bit for bit.
#[test]
fn model_search_reproduces_scalar_answers() {
    let dt = 1.0 / 30.0;
    for (target, metric, iterations, bits) in [
        (LossTarget::Zero, LossMetric::Overall, 25, 0x40c2_7800_0553_dc28u64),
        (LossTarget::Rate(1e-3), LossMetric::Overall, 25, 0x40c0_e1d7_f209_fc29),
        (LossTarget::Rate(1e-2), LossMetric::WorstSecond, 20, 0x40c0_a260_1e1b_3332),
        (LossTarget::Zero, LossMetric::WorstSecond, 16, 0x40c2_781a_463d_70a4),
    ] {
        let mut m = TraceReplay::new(golden_series());
        let c = required_capacity_model(&mut m, 6000, dt, 0.05, target, metric, iterations);
        assert_eq!(c.to_bits(), bits, "TraceReplay {target:?} {metric:?} x{iterations}: {c}");
    }
    for (target, metric, iterations, bits) in [
        (LossTarget::Rate(0.01), LossMetric::Overall, 25, 0x410a_64d5_e739_e522u64),
        (LossTarget::Zero, LossMetric::WorstSecond, 16, 0x411c_c219_b998_82f1),
    ] {
        let mut m = MwmModel::new(golden_mwm(), 42);
        let c = required_capacity_model(&mut m, 4096, dt, 0.02, target, metric, iterations);
        assert_eq!(c.to_bits(), bits, "MwmModel {target:?} {metric:?} x{iterations}: {c}");
    }
}
