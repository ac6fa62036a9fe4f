//! The combined Hurst-estimation report — Table 3 of the paper, with the
//! periodogram-regression estimator added as a cross-check.

use crate::local_whittle::{local_whittle, LocalWhittleEstimate};
use crate::periodogram_h::{periodogram_h, PeriodogramH};
use crate::rs::{rs_aggregated, rs_analysis, rs_varied_given, RsAnalysis, RsOptions};
use crate::variance_time::{variance_time, VarianceTime, VtOptions};
use crate::whittle::{whittle_aggregated, whittle_log, WhittleEstimate};

/// All Hurst estimates for one series (the rows of Table 3).
#[derive(Debug, Clone)]
pub struct HurstReport {
    /// Variance-time plot estimate (paper: 0.78).
    pub variance_time: VarianceTime,
    /// Plain R/S analysis (paper: 0.83).
    pub rs: RsAnalysis,
    /// R/S on the aggregated series (paper: 0.78).
    pub rs_aggregated: RsAnalysis,
    /// Range of R/S estimates under varied grids (paper: 0.81–0.83).
    pub rs_varied_range: (f64, f64),
    /// Whittle estimate of the log series (paper: 0.8 ± 0.088).
    pub whittle: WhittleEstimate,
    /// Whittle aggregation sweep `(m, Ĥ^(m))`.
    pub whittle_sweep: Vec<(usize, WhittleEstimate)>,
    /// Log-periodogram regression (extension).
    pub periodogram: PeriodogramH,
    /// Local (semiparametric) Whittle estimate (extension).
    pub local_whittle: LocalWhittleEstimate,
}

/// Configuration for the full report.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// R/S options.
    pub rs: RsOptions,
    /// Variance-time options.
    pub vt: VtOptions,
    /// Aggregation level for the "R/S aggregated" row.
    pub rs_aggregation: usize,
    /// Aggregation levels for the Whittle sweep (the paper reads the
    /// estimate at m ≈ 700).
    pub whittle_levels: Vec<usize>,
    /// Low-frequency fraction for the periodogram regression.
    pub periodogram_fraction: f64,
    /// Whether the Whittle estimate uses the log-transformed series (the
    /// paper does; requires positive data).
    pub whittle_on_log: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            rs: RsOptions::default(),
            vt: VtOptions::default(),
            rs_aggregation: 10,
            whittle_levels: vec![1, 10, 100, 300, 700],
            periodogram_fraction: 0.05,
            whittle_on_log: true,
        }
    }
}

/// Computes every estimator on the series. The plain R/S fit doubles as
/// the base-options member of the varied R/S row, and the periodogram
/// regression and local Whittle read one memoized periodogram
/// ([`Periodogram::of`](vbr_stats::periodogram::Periodogram::of)).
pub fn hurst_report(xs: &[f64], opts: &ReportOptions) -> HurstReport {
    let vt = variance_time(xs, &opts.vt);
    let rs = rs_analysis(xs, &opts.rs);
    let rs_agg = rs_aggregated(xs, opts.rs_aggregation, &opts.rs);
    let varied = rs_varied_given(xs, &opts.rs, Some(&rs));
    let lo = varied.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = varied.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    let base: Vec<f64> = if opts.whittle_on_log {
        xs.iter().map(|&x| x.max(1e-9).ln()).collect()
    } else {
        xs.to_vec()
    };
    let sweep = whittle_aggregated(&base, &opts.whittle_levels);
    // Headline Whittle number: the largest aggregation level that still
    // leaves a long-enough series (the paper takes m ≈ 700).
    let headline = sweep
        .last()
        .map(|(_, e)| *e)
        .unwrap_or_else(|| whittle_log(&xs.iter().map(|&x| x.max(1e-9).exp()).collect::<Vec<_>>()));

    HurstReport {
        variance_time: vt,
        rs,
        rs_aggregated: rs_agg,
        rs_varied_range: (lo, hi),
        whittle: headline,
        whittle_sweep: sweep,
        periodogram: periodogram_h(xs, opts.periodogram_fraction),
        local_whittle: local_whittle(xs, None),
    }
}

impl HurstReport {
    /// All point estimates, for consistency checks.
    pub fn estimates(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("Variance-Time", self.variance_time.hurst),
            ("R/S Analysis", self.rs.hurst),
            ("R/S Aggregated", self.rs_aggregated.hurst),
            ("Whittle estimate", self.whittle.hurst),
            ("Periodogram regression", self.periodogram.hurst),
            ("Local Whittle", self.local_whittle.hurst),
        ]
    }

    /// True when every point estimate falls inside the Whittle CI — the
    /// consistency statement the paper makes about Table 3.
    pub fn mutually_consistent(&self) -> bool {
        self.estimates()
            .iter()
            .all(|&(_, h)| h >= self.whittle.ci_lo && h <= self.whittle.ci_hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_fgn::DaviesHarte;

    #[test]
    fn report_on_fgn_clusters_near_truth() {
        let h = 0.8;
        let xs: Vec<f64> = DaviesHarte::new(h, 1.0)
            .generate(100_000, 17)
            .iter()
            .map(|&v| v + 10.0) // shift positive so the log-Whittle path works
            .collect();
        let rep = hurst_report(&xs, &ReportOptions::default());
        for (name, est) in rep.estimates() {
            // Finite-sample noise differs per method; the paper's own
            // spread for one trace is 0.78–0.83.
            assert!(
                (est - h).abs() < 0.13,
                "{name}: estimated {est}, truth {h}"
            );
        }
    }

    #[test]
    fn varied_range_is_ordered() {
        let xs: Vec<f64> = DaviesHarte::new(0.75, 1.0)
            .generate(80_000, 18)
            .iter()
            .map(|&v| v + 10.0)
            .collect();
        let rep = hurst_report(&xs, &ReportOptions::default());
        assert!(rep.rs_varied_range.0 <= rep.rs_varied_range.1);
    }

    #[test]
    fn sweep_has_growing_cis() {
        let xs: Vec<f64> = DaviesHarte::new(0.8, 1.0)
            .generate(100_000, 19)
            .iter()
            .map(|&v| v + 10.0)
            .collect();
        let rep = hurst_report(&xs, &ReportOptions::default());
        let errs: Vec<f64> = rep.whittle_sweep.iter().map(|(_, e)| e.std_err).collect();
        assert!(errs.windows(2).all(|w| w[1] >= w[0]));
    }
}
