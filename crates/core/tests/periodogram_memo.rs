//! The periodogram memo's counters, read in a process of their own (the
//! counters are process-global, so this file holds one test): one series
//! analysed by Table 3's report, the robust ensemble and a bake-off
//! estimator panel has its periodogram computed once.

use vbr_fgn::traffic::TrafficModel;
use vbr_lrd::{
    hurst_report, robust_hurst, try_local_whittle, try_periodogram_h, try_whittle, ReportOptions,
};
use vbr_model::{FarimaGpModel, HurstPanel, ModelParams};
use vbr_stats::obs::{counter_value, Counter};
use vbr_stats::periodogram::MEMO_CAPACITY;

/// `(hits, misses, evictions)` so far.
fn events() -> (u64, u64, u64) {
    (
        counter_value(Counter::PeriodogramHit),
        counter_value(Counter::PeriodogramMiss),
        counter_value(Counter::PeriodogramEvict),
    )
}

#[test]
fn one_series_one_periodogram_across_report_ensemble_and_panel() {
    let params = ModelParams::paper_frame_defaults();
    let xs = FarimaGpModel::from_params(&params, 512, 5).sample_series(20_000);
    assert_eq!(events(), (0, 0, 0));

    // Whittle on the raw series at level 1, so every periodogram the
    // sequence asks for is of `xs` itself.
    let opts = ReportOptions {
        whittle_on_log: false,
        whittle_levels: vec![1],
        ..ReportOptions::default()
    };
    hurst_report(&xs, &opts);
    robust_hurst(&xs).expect("a long fARIMA series estimates");
    HurstPanel::measure(&xs);
    let (hits, misses, evictions) = events();
    assert_eq!(misses, 1, "{hits} hits");
    assert!(hits >= 3, "{hits} hits");
    assert_eq!(evictions, 0);

    // A series an estimator rejects never reaches the periodogram.
    let mut with_nan = xs.clone();
    with_nan[7] = f64::NAN;
    for bad in [&with_nan[..], &[2.5; 1_000][..], &xs[..100]] {
        assert!(try_whittle(bad).is_err());
        assert!(try_local_whittle(bad, None).is_err());
        assert!(try_periodogram_h(bad, 0.1).is_err());
    }
    assert_eq!(events(), (hits, misses, 0));

    // A full memo evicts its least recently used series to admit a new one.
    for k in 0..MEMO_CAPACITY {
        let shifted: Vec<f64> = xs[..4_000].iter().map(|x| x + k as f64).collect();
        try_whittle(&shifted).expect("shifted series estimate");
    }
    let misses = misses + MEMO_CAPACITY as u64;
    assert_eq!(events(), (hits, misses, 1), "xs was the least recently used");
    try_whittle(&xs).expect("xs estimates");
    assert_eq!(events(), (hits, misses + 1, 2), "xs was evicted");
}
