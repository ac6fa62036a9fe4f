//! Integration tests for the beyond-the-paper extensions, exercised
//! through the meta-crate's public API: genres, admission control,
//! scene detection, the Gamma/Pareto convolution and the extended
//! estimator suite.

use vbr::prelude::*;
use vbr::qsim::{admit_by_simulation, LossMetric, LossTarget};
use vbr::stats::dist::aggregate_marginal;
use vbr::video::{detect_scenes, summarize_scenes, Genre, SceneDetectOptions};

/// Genre presets produce traces whose measured statistics are ordered
/// the way the paper describes (§3.2.3: conferencing smoother, lower H).
#[test]
fn genre_fingerprints_are_ordered() {
    let movie = generate_screenplay(&ScreenplayConfig::genre(Genre::ActionMovie, 20_000, 1));
    let conf =
        generate_screenplay(&ScreenplayConfig::genre(Genre::Videoconference, 20_000, 1));
    assert!(conf.mean_bandwidth_bps() < 0.5 * movie.mean_bandwidth_bps());
    assert!(
        conf.summary_frame().coef_variation < movie.summary_frame().coef_variation
    );
}

/// Scene detection on the synthetic movie finds a film-like scene scale
/// and tiles the trace exactly.
#[test]
fn scene_detection_end_to_end() {
    let trace = generate_screenplay(&ScreenplayConfig::short(20_000, 2));
    let scenes = detect_scenes(&trace.frame_series(), &SceneDetectOptions::default());
    let sum = summarize_scenes(&scenes);
    assert!(sum.count > 20, "found only {} scenes", sum.count);
    assert!(sum.mean_len > 24.0);
    let total: usize = scenes.iter().map(|s| s.len).sum();
    assert_eq!(total, trace.frames());
}

/// The extended estimator suite (local Whittle, wavelet) agrees with the
/// classical methods on exact fGn.
#[test]
fn extended_estimators_agree_on_fgn() {
    let h = 0.8;
    let xs = DaviesHarte::new(h, 1.0).generate(100_000, 3);
    let lw = vbr::lrd::local_whittle(&xs, None);
    let wv = vbr::lrd::wavelet_hurst(&xs, Some(2), None);
    let vt = variance_time(&xs, &VtOptions::default());
    for (name, est) in [("local Whittle", lw.hurst), ("wavelet", wv.hurst), ("VT", vt.hurst)]
    {
        assert!((est - h).abs() < 0.08, "{name}: {est}");
    }
}

/// The §4.2 convolution device and the simulator agree on bufferless
/// capacity for iid traffic from the fitted marginal.
#[test]
fn convolution_matches_simulated_iid_aggregate() {
    let params = ModelParams::paper_frame_defaults();
    let marginal = params.marginal();
    let n = 4usize;
    let agg = aggregate_marginal(&marginal, n, 4_096);
    // Aggregate mean and variance scale linearly for independent sources.
    use vbr::stats::dist::ContinuousDist;
    assert!((agg.mean() - n as f64 * marginal.mean()).abs() / agg.mean() < 2e-3);
    assert!((agg.variance() - n as f64 * marginal.variance()).abs() / agg.variance() < 2e-2);
}

/// Admission control composes with the model: fitted-model traffic and
/// the trace itself admit similar source counts.
#[test]
fn admission_on_model_matches_trace() {
    let trace = generate_screenplay(&ScreenplayConfig::short(8_000, 4));
    let est = estimate_trace(
        &trace,
        &EstimateOptions { hurst_method: HurstMethod::VarianceTime, ..Default::default() },
    );
    let model_trace = SourceModel::full(est.params).generate_trace(8_000, 24.0, 30, 5);
    let link = trace.mean_bandwidth_bps() / 8.0 * 6.0;
    let admit = |t: &Trace| {
        admit_by_simulation(
            t,
            link,
            0.002,
            LossTarget::Rate(1e-3),
            LossMetric::Overall,
            24,
            6,
        )
        .max_sources
    };
    let a = admit(&trace);
    let b = admit(&model_trace);
    assert!(
        a.abs_diff(b) <= 2,
        "trace admits {a}, model admits {b} — should be close"
    );
}

/// The interframe coder integrates with the trace type: coding a cut
/// sequence yields a burstier trace than intraframe coding of the same
/// frames.
#[test]
fn interframe_trace_is_burstier() {
    use vbr::video::{CoderConfig, IntraframeCoder, InterframeCoder, SceneSpec, SceneSynthesizer};
    let (w, h) = (64, 64);
    let scenes = [
        SceneSynthesizer::new(SceneSpec::placid(1)),
        SceneSynthesizer::new(SceneSpec::action(2)),
    ];
    let mut training = Vec::new();
    for s in &scenes {
        for t in 0..2 {
            training.push(s.frame(t, w, h));
        }
    }
    let intra = IntraframeCoder::train(
        CoderConfig { quant_step: 16.0, slices_per_frame: 4 },
        &training,
    );
    let mut inter = InterframeCoder::new(intra.clone(), 12);

    let mut intra_bytes = Vec::new();
    let mut inter_bytes = Vec::new();
    for shot in 0..6 {
        let scene = &scenes[shot % 2];
        inter.reset(); // scene cut
        for t in 0..12 {
            let f = scene.frame(shot * 12 + t, w, h);
            intra_bytes.push(intra.code_frame(&f).total_bytes());
            let (coded, _, _) = inter.code_next(&f);
            inter_bytes.push(coded.total_bytes());
        }
    }
    let cov = |v: &[u32]| {
        let n = v.len() as f64;
        let m = v.iter().map(|&b| b as f64).sum::<f64>() / n;
        let var = v.iter().map(|&b| (b as f64 - m).powi(2)).sum::<f64>() / n;
        var.sqrt() / m
    };
    // The §1 claim is directional — I-frame resets at every cut keep the
    // gap moderate in this two-scene setup.
    assert!(
        cov(&inter_bytes) > 1.05 * cov(&intra_bytes),
        "interframe CoV {} vs intraframe {}",
        cov(&inter_bytes),
        cov(&intra_bytes)
    );
}
