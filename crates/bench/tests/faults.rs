//! Fault-injection suite: drives corrupted data through the whole
//! fallible pipeline (estimation → generation → queueing) and asserts
//! three properties per corruption mode:
//!
//! 1. the pipeline returns a *typed* error identifying the defect,
//! 2. no fallible entry point ever panics, and
//! 3. whatever traffic the pipeline does emit is entirely finite.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use vbr_bench::{Corruption, FaultInjector};
use vbr_fgn::{DaviesHarte, FgnError};
use vbr_lrd::robust_hurst;
use vbr_model::{try_estimate_series, EstimateOptions, ModelError, ModelParams, SourceModel};
use vbr_qsim::{FluidQueue, MuxSim};
use vbr_stats::error::DataError;
use vbr_stats::rng::Xoshiro256;
use vbr_video::Trace;

/// A healthy positive frame-size-like series long enough for estimation.
fn healthy_series(n: usize, seed: u64) -> Vec<f64> {
    SourceModel::full(ModelParams::paper_frame_defaults()).generate_frames(n, seed)
}

#[test]
fn estimation_reports_typed_error_per_corruption() {
    let xs = healthy_series(4_000, 1);
    let inj = FaultInjector::new(42);
    let opts = EstimateOptions::default();

    match try_estimate_series(&inj.apply(&xs, Corruption::NanSpike), &opts) {
        Err(ModelError::Data(DataError::NonFiniteSample { value, .. })) => {
            assert!(value.is_nan())
        }
        other => panic!("NanSpike: expected NonFiniteSample, got {other:?}"),
    }
    match try_estimate_series(&inj.apply(&xs, Corruption::InfSpike), &opts) {
        Err(ModelError::Data(DataError::NonFiniteSample { value, .. })) => {
            assert!(value.is_infinite())
        }
        other => panic!("InfSpike: expected NonFiniteSample, got {other:?}"),
    }
    assert!(matches!(
        try_estimate_series(&inj.apply(&xs, Corruption::ZeroVarianceRun), &opts),
        Err(ModelError::Data(DataError::ZeroVariance))
    ));
    assert!(matches!(
        try_estimate_series(&inj.apply(&xs, Corruption::Truncate), &opts),
        Err(ModelError::Data(DataError::TooShort { .. }))
    ));
    // A negated run still yields a valid real-valued series: estimation
    // must survive it (the queue is where negativity is rejected).
    assert!(try_estimate_series(&inj.apply(&xs, Corruption::NegateRun), &opts).is_ok());
}

#[test]
fn ensemble_estimator_reports_typed_error_per_corruption() {
    let xs = healthy_series(2_000, 2);
    let inj = FaultInjector::new(7);
    for mode in [
        Corruption::NanSpike,
        Corruption::InfSpike,
        Corruption::ZeroVarianceRun,
        Corruption::Truncate,
    ] {
        let corrupted = inj.apply(&xs, mode);
        let err = robust_hurst(&corrupted).expect_err("corrupt input must not estimate");
        // The error chains back to a DataError naming the defect.
        let msg = err.to_string();
        assert!(!msg.is_empty(), "{mode:?}: error must describe itself");
    }
    let h = robust_hurst(&inj.apply(&xs, Corruption::NegateRun)).unwrap();
    assert!(h.hurst.is_finite());
}

#[test]
fn queue_rejects_corrupt_arrivals_without_state_damage() {
    let xs = healthy_series(2_000, 3);
    let inj = FaultInjector::new(9);
    for mode in [Corruption::NanSpike, Corruption::InfSpike, Corruption::NegateRun] {
        let corrupted = inj.apply(&xs, mode);
        let mut q = FluidQueue::try_new(10_000.0, 1_000_000.0).unwrap();
        let mut rejected = 0usize;
        for &a in &corrupted {
            if q.try_step(a, 1.0 / 24.0).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "{mode:?}: queue accepted corrupt arrivals");
        // Accounting stays finite and consistent despite the rejections.
        assert!(q.arrived().is_finite() && q.backlog().is_finite());
        assert!(q.backlog() <= 10_000.0 + 1e-9);
    }
}

#[test]
fn no_fallible_entry_point_panics_on_corrupt_input() {
    let xs = healthy_series(3_000, 4);
    let inj = FaultInjector::new(11);
    for mode in Corruption::ALL {
        let corrupted = inj.apply(&xs, mode);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = try_estimate_series(&corrupted, &EstimateOptions::default());
            let _ = robust_hurst(&corrupted);
            let mut q = FluidQueue::try_new(1_000.0, 500_000.0).unwrap();
            for &a in corrupted.iter().take(256) {
                let _ = q.try_step(a, 1.0 / 24.0);
            }
        }));
        assert!(result.is_ok(), "{mode:?}: fallible pipeline panicked");
    }
}

#[test]
fn recovered_estimates_generate_only_finite_traffic() {
    // NegateRun is survivable: the estimate that comes back must drive
    // generation and queueing end-to-end without a single non-finite byte.
    let xs = healthy_series(4_000, 5);
    let corrupted = FaultInjector::new(13).apply(&xs, Corruption::NegateRun);
    let est = try_estimate_series(&corrupted, &EstimateOptions::default())
        .expect("negated run should still estimate");
    let model = SourceModel::full(est.params);
    let frames = model.try_generate_frames(4_096, 6).unwrap();
    assert!(frames.iter().all(|v| v.is_finite()));

    let trace = model.try_generate_trace(1_000, 24.0, 30, 6).unwrap();
    let sim = MuxSim::try_new(&trace, 2, 7).unwrap();
    let loss = sim.try_run(sim.mean_rate() * 1.5, 10_000.0).unwrap();
    assert!(loss.p_l.is_finite() && loss.p_wes.is_finite());
}

#[test]
fn non_psd_acvf_is_a_typed_error() {
    // Non-PSD custom covariance: the circulant engine must report the
    // defect as a typed error, not panic or emit a clamped path.
    let mut gamma = vec![0.0; 257];
    gamma[0] = 1.0;
    gamma[1] = 0.8;
    let mut rng = Xoshiro256::seed_from_u64(17);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        DaviesHarte::try_generate_from_acvf(&gamma, 200, &mut rng)
    }));
    let result = outcome.expect("try_generate_from_acvf must not panic");
    assert!(
        matches!(result, Err(FgnError::NonPsdEmbedding { min_eigenvalue, .. }) if min_eigenvalue < 0.0),
        "{result:?}"
    );
}

#[test]
fn corrupt_trace_files_error_instead_of_panicking() {
    // Bit-flip sweeps over a serialised trace: every corruption must come
    // back as io::Error, never a panic or a bogus trace geometry.
    let t = Trace::from_slices(vec![10, 20, 30, 40, 50, 60], 2, 24.0);
    let mut buf = Vec::new();
    t.write_binary(&mut buf).unwrap();
    for i in 0..buf.len() {
        let mut bad = buf.clone();
        bad[i] ^= 0xFF;
        let outcome = catch_unwind(AssertUnwindSafe(|| Trace::read_binary(&bad[..])));
        let parsed = outcome.expect("read_binary must not panic on corrupt bytes");
        if let Ok(trace) = parsed {
            assert!(trace.slices_per_frame() > 0);
            assert!(trace.fps() > 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary corruption of arbitrary healthy series: the fallible
    /// pipeline never panics, and a success implies finite estimates.
    #[test]
    fn pipeline_never_panics_under_random_faults(
        seed in 0u64..500,
        inj_seed in 0u64..500,
        n in 1_024usize..3_000,
        mode_idx in 0usize..5,
    ) {
        let xs = healthy_series(n, seed);
        let corrupted = FaultInjector::new(inj_seed).apply(&xs, Corruption::ALL[mode_idx]);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            try_estimate_series(&corrupted, &EstimateOptions::default())
        }));
        prop_assert!(outcome.is_ok(), "panicked on {:?}", Corruption::ALL[mode_idx]);
        if let Ok(Ok(est)) = outcome {
            prop_assert!(est.params.hurst.is_finite());
            prop_assert!(est.params.mu_gamma.is_finite());
        }
    }

    /// Whatever the parameters, generated traffic is finite — the model
    /// never launders a numerical fault into the queue.
    #[test]
    fn generated_traffic_is_always_finite(
        mu in 1e2f64..1e6,
        cv in 0.05f64..0.6,
        slope in 1.5f64..15.0,
        h in 0.55f64..0.95,
        seed in 0u64..1000,
    ) {
        let p = ModelParams::try_new(mu, mu * cv, slope, h).unwrap();
        let frames = SourceModel::full(p).try_generate_frames(512, seed).unwrap();
        prop_assert!(frames.iter().all(|v| v.is_finite()));
    }
}
