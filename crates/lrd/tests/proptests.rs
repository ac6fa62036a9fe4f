//! Property-based tests for the LRD analysis crate.

use proptest::prelude::*;
use vbr_lrd::{
    aggregate, log_spaced_blocks, rs_statistic, try_local_whittle, try_periodogram_h,
    try_whittle_with, LrdError, PeriodogramH, SpectralModel,
};
use vbr_stats::Xoshiro256;

/// Bit-exact view of an estimate, or of its typed error (through `Debug`,
/// since a NaN sample in the error never equals itself).
fn bits<E>(r: Result<E, LrdError>, f: impl Fn(&E) -> Vec<f64>) -> Result<Vec<u64>, String> {
    r.map(|e| f(&e).iter().map(|v| v.to_bits()).collect()).map_err(|e| format!("{e:?}"))
}

proptest! {
    #[test]
    fn aggregation_preserves_mean(
        xs in prop::collection::vec(-1e4f64..1e4, 10..500),
        m in 1usize..10,
    ) {
        prop_assume!(xs.len() >= m);
        let agg = aggregate(&xs, m);
        prop_assume!(!agg.is_empty());
        // The aggregated mean equals the mean of the covered prefix.
        let covered = agg.len() * m;
        let mean_prefix = xs[..covered].iter().sum::<f64>() / covered as f64;
        let mean_agg = agg.iter().sum::<f64>() / agg.len() as f64;
        prop_assert!((mean_prefix - mean_agg).abs() < 1e-8 * mean_prefix.abs().max(1.0));
    }

    #[test]
    fn aggregation_never_increases_range(
        xs in prop::collection::vec(-1e4f64..1e4, 10..500),
        m in 1usize..10,
    ) {
        let agg = aggregate(&xs, m);
        prop_assume!(!agg.is_empty());
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &v in &agg {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn log_grid_sane(max_m in 1usize..100_000, ppd in 1usize..20) {
        let g = log_spaced_blocks(max_m, ppd);
        prop_assert_eq!(g[0], 1);
        prop_assert_eq!(*g.last().unwrap(), max_m);
        for w in g.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn rs_statistic_invariances(
        xs in prop::collection::vec(-100.0f64..100.0, 4..100)
            .prop_filter("non-constant", |v| v.iter().any(|&x| (x - v[0]).abs() > 1e-6)),
        shift in -1000.0f64..1000.0,
        scale in 0.01f64..100.0,
    ) {
        let base = rs_statistic(&xs).unwrap();
        prop_assert!(base > 0.0 && base.is_finite());
        let shifted: Vec<f64> = xs.iter().map(|&x| x + shift).collect();
        prop_assert!((rs_statistic(&shifted).unwrap() - base).abs() < 1e-6 * base);
        let scaled: Vec<f64> = xs.iter().map(|&x| x * scale).collect();
        prop_assert!((rs_statistic(&scaled).unwrap() - base).abs() < 1e-6 * base);
    }

    #[test]
    fn rs_statistic_bounded_by_feller(
        xs in prop::collection::vec(-100.0f64..100.0, 4..100)
            .prop_filter("non-constant", |v| v.iter().any(|&x| (x - v[0]).abs() > 1e-6)),
    ) {
        // R/S of n points is at most n/... — a loose deterministic bound:
        // R ≤ n·max|x−mean| and S ≥ (max|x−mean|)/√n ⇒ R/S ≤ n^{3/2}.
        let rs = rs_statistic(&xs).unwrap();
        let n = xs.len() as f64;
        prop_assert!(rs <= n.powf(1.5));
    }

    /// Whittle, local Whittle and the periodogram regression read a
    /// memoized periodogram: asking again for a series, after another
    /// series was analysed in between, gives the first answer's bits or
    /// the same typed error, on clean, short, NaN and constant input.
    #[test]
    fn memoized_estimators_repeat_their_answers(
        seed in 0u64..1000,
        n in 0usize..1_500,
        kind in 0u8..3,
        fraction in -0.1f64..1.2,
        spectral in 0u8..2,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        match kind {
            1 if n > 0 => xs[n / 2] = f64::NAN,
            2 => xs.iter_mut().for_each(|x| *x = 2.5),
            _ => {}
        }
        let other: Vec<f64> = xs.iter().map(|x| x * 1.5 + 0.25).collect();
        let model = if spectral == 1 { SpectralModel::Fgn } else { SpectralModel::Farima };
        let regression = |e: &PeriodogramH| vec![e.hurst, e.alpha, e.ordinates_used as f64];
        let whittle = |e: &vbr_lrd::WhittleEstimate| vec![e.hurst, e.std_err, e.ci_lo, e.ci_hi];
        let local = |e: &vbr_lrd::LocalWhittleEstimate| vec![e.hurst, e.std_err, e.m as f64];
        let answers = |s: &[f64]| (
            bits(try_periodogram_h(s, fraction), regression),
            bits(try_whittle_with(s, model), whittle),
            bits(try_local_whittle(s, None), local),
        );
        let first = answers(&xs);
        let _ = answers(&other);
        prop_assert_eq!(answers(&xs), first);
    }
}
