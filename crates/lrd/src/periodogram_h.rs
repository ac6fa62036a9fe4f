//! Periodogram-regression estimator of H (an extension beyond the paper's
//! three methods; standard in the later literature as the
//! Geweke–Porter-Hudak-style log-periodogram regression).
//!
//! For LRD, `I(ω) ~ c ω^{1−2H}` as `ω → 0`; regressing `ln I(ω_j)` on
//! `ln ω_j` over the lowest frequencies gives `H = (1 − slope)/2`.

use crate::error::LrdError;
use crate::spectrum::SharedPeriodogram;
use vbr_stats::error::{
    check_all_finite, check_min_len, check_non_constant, check_positive_param, NumericError,
};
use vbr_stats::regression::LineFit;

/// Result of the log-periodogram regression.
#[derive(Debug, Clone)]
pub struct PeriodogramH {
    /// The log-log fit over the low-frequency band.
    pub fit: LineFit,
    /// `α = −slope` — the paper's Fig 8 power-law exponent.
    pub alpha: f64,
    /// Hurst estimate `H = (1 + α)/2`.
    pub hurst: f64,
    /// Number of low-frequency ordinates used.
    pub ordinates_used: usize,
}

/// Estimates H from the lowest `fraction` of periodogram ordinates
/// (a common choice is `n^{−1/2}`-many ordinates ≈ small fractions;
/// 0.1 works well for series of ~10⁵ points).
///
/// Panics on a series shorter than 256 and wherever
/// [`try_periodogram_h`] returns an error.
pub fn periodogram_h(xs: &[f64], fraction: f64) -> PeriodogramH {
    periodogram_h_on(&SharedPeriodogram::new(xs), fraction)
}

/// [`periodogram_h`] on a shared periodogram.
pub(crate) fn periodogram_h_on(sp: &SharedPeriodogram<'_>, fraction: f64) -> PeriodogramH {
    assert!(sp.series().len() >= 256, "periodogram regression needs a longer series");
    sp.try_periodogram_h(fraction).unwrap_or_else(|e| panic!("periodogram_h: {e}"))
}

/// Fallible [`periodogram_h`]: rejects a `fraction` outside `(0, 1]`, a
/// series that is shorter than 256, non-finite or constant, and a band
/// with fewer than two positive ordinates to fit.
pub fn try_periodogram_h(xs: &[f64], fraction: f64) -> Result<PeriodogramH, LrdError> {
    SharedPeriodogram::new(xs).try_periodogram_h(fraction)
}

impl SharedPeriodogram<'_> {
    /// [`try_periodogram_h`] on the shared periodogram.
    pub fn try_periodogram_h(&self, fraction: f64) -> Result<PeriodogramH, LrdError> {
        const WHAT: &str = "periodogram fraction";
        check_positive_param(WHAT, fraction)?;
        if fraction > 1.0 {
            let hi = 1.0f64.next_up();
            let e = NumericError::OutOfRange { what: WHAT, value: fraction, lo: 0.0, hi };
            return Err(e.into());
        }
        let xs = self.series();
        check_min_len(xs, 256)?;
        check_all_finite(xs)?;
        check_non_constant(xs)?;
        let pg = self.periodogram();
        // The band `low_freq_slope` fits: its log-log regression drops
        // non-positive ordinates and needs two points.
        let band = ((pg.len() as f64 * fraction) as usize).max(2);
        let positive = pg.power()[..band].iter().filter(|&&p| p > 0.0).count();
        if positive < 2 {
            return Err(LrdError::GridTooSmall { got: positive, needed: 2 });
        }
        let fit = pg.low_freq_slope(fraction);
        let alpha = -fit.slope;
        Ok(PeriodogramH {
            alpha,
            hurst: (1.0 + alpha) / 2.0,
            ordinates_used: ((pg.len() as f64) * fraction) as usize,
            fit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_fgn::DaviesHarte;
    use vbr_stats::rng::Xoshiro256;

    #[test]
    fn white_noise_alpha_zero() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let xs: Vec<f64> = (0..65_536).map(|_| rng.standard_normal()).collect();
        let est = periodogram_h(&xs, 0.1);
        assert!(est.alpha.abs() < 0.1, "alpha {}", est.alpha);
        assert!((est.hurst - 0.5).abs() < 0.05, "H {}", est.hurst);
    }

    #[test]
    fn fgn_recovers_h() {
        for &h in &[0.7, 0.85] {
            let xs = DaviesHarte::new(h, 1.0).generate(131_072, 2);
            let est = periodogram_h(&xs, 0.05);
            assert!((est.hurst - h).abs() < 0.06, "H = {h}: estimated {}", est.hurst);
        }
    }

    #[test]
    fn alpha_relates_to_h() {
        let xs = DaviesHarte::new(0.8, 1.0).generate(65_536, 3);
        let est = periodogram_h(&xs, 0.05);
        assert!((est.hurst - (1.0 + est.alpha) / 2.0).abs() < 1e-12);
        // α = 2H − 1 = 0.6 for H = 0.8.
        assert!((est.alpha - 0.6).abs() < 0.12, "alpha {}", est.alpha);
    }

    #[test]
    fn fallible_variant_rejects_what_the_panicking_one_cannot_fit() {
        use vbr_stats::error::DataError;
        let xs = DaviesHarte::new(0.7, 1.0).generate(1_000, 6);
        let ok = try_periodogram_h(&xs, 0.1).unwrap();
        let legacy = periodogram_h(&xs, 0.1);
        assert_eq!(ok.hurst.to_bits(), legacy.hurst.to_bits());
        assert_eq!(ok.ordinates_used, legacy.ordinates_used);

        assert!(matches!(
            try_periodogram_h(&xs[..255], 0.1),
            Err(LrdError::Data(DataError::TooShort { needed: 256, got: 255 }))
        ));
        let constant = try_periodogram_h(&[4.0; 512], 0.1);
        assert_eq!(constant.unwrap_err(), DataError::ZeroVariance.into());
        let mut nan = xs.clone();
        nan[7] = f64::NAN;
        assert!(matches!(
            try_periodogram_h(&nan, 0.1),
            Err(LrdError::Data(DataError::NonFiniteSample { index: 7, .. }))
        ));
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(
                matches!(try_periodogram_h(&xs, bad), Err(LrdError::Numeric(_))),
                "fraction {bad}"
            );
        }
        assert!(try_periodogram_h(&xs, 1.0).is_ok());
    }

    #[test]
    fn uses_requested_fraction() {
        let xs = DaviesHarte::new(0.7, 1.0).generate(8_192, 4);
        let est = periodogram_h(&xs, 0.25);
        assert!(est.ordinates_used > 900 && est.ordinates_used <= 1024);
    }
}
