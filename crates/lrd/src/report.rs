//! The combined Hurst-estimation report — Table 3 of the paper, with the
//! periodogram-regression estimator added as a cross-check.

use crate::local_whittle::{local_whittle, LocalWhittleEstimate};
use crate::periodogram_h::{periodogram_h, PeriodogramH};
use crate::rs::{rs_aggregated, rs_analysis, rs_variations, RsAnalysis, RsOptions};
use crate::variance_time::{variance_time, VarianceTime, VtOptions};
use crate::whittle::{whittle_level, whittle_log, SpectralModel, WhittleEstimate};

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

/// One independent piece of [`hurst_report`]'s work.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// The periodogram regression and local Whittle on the series, then
    /// the `m = 1` Whittle levels: the report's full-length periodograms,
    /// built one after the other so no two are in flight at once.
    Spectral,
    /// One R/S grid variation other than the base options.
    RsVaried(RsOptions),
    /// The plain R/S fit (also the base member of the varied row).
    Rs,
    /// R/S on the aggregated series.
    RsAggregated,
    /// The variance-time plot.
    VarianceTime,
    /// The Whittle level at this index of the sweep (`m > 1`).
    Whittle(usize),
}

/// What a [`Job`] computed.
enum Part {
    Spectral(PeriodogramH, LocalWhittleEstimate, Vec<WhittleLevel>),
    RsVaried(f64),
    Rs(RsAnalysis),
    RsAggregated(RsAnalysis),
    VarianceTime(VarianceTime),
    Whittle(WhittleLevel),
}

/// A Whittle level's index in the sweep and its fit (`None` when the
/// aggregated series is too short).
type WhittleLevel = (usize, Option<(usize, WhittleEstimate)>);

/// Computes every estimator on the series. The plain R/S fit doubles as
/// the base-options member of the varied R/S row, and the periodogram
/// regression and local Whittle read one memoized periodogram
/// ([`Periodogram::of`](vbr_stats::periodogram::Periodogram::of)).
///
/// The estimators are independent, so the report is one list of jobs on
/// the worker pool (an estimator's own pool work runs serially inside
/// its job), collected in job order: the same bits at any pool width.
/// The longest job, the spectral one, is dealt first.
pub fn hurst_report(xs: &[f64], opts: &ReportOptions) -> HurstReport {
    let base: Vec<f64> = if opts.whittle_on_log {
        xs.iter().map(|&x| x.max(1e-9).ln()).collect()
    } else {
        xs.to_vec()
    };
    let levels = &opts.whittle_levels;
    let variations = rs_variations(&opts.rs);
    let mut jobs = vec![Job::Spectral];
    jobs.extend(variations.iter().filter(|&&v| v != opts.rs).map(|&v| Job::RsVaried(v)));
    jobs.extend([Job::Rs, Job::RsAggregated, Job::VarianceTime]);
    jobs.extend((0..levels.len()).filter(|&i| levels[i] != 1).map(Job::Whittle));

    let level = |i: usize| (i, whittle_level(&base, levels[i], SpectralModel::Farima));
    let parts = vbr_stats::par::par_map(&jobs, |&job| match job {
        Job::Spectral => Part::Spectral(
            periodogram_h(xs, opts.periodogram_fraction),
            local_whittle(xs, None),
            (0..levels.len()).filter(|&i| levels[i] == 1).map(level).collect(),
        ),
        Job::RsVaried(v) => Part::RsVaried(rs_analysis(xs, &v).hurst),
        Job::Rs => Part::Rs(rs_analysis(xs, &opts.rs)),
        Job::RsAggregated => {
            Part::RsAggregated(rs_aggregated(xs, opts.rs_aggregation, &opts.rs))
        }
        Job::VarianceTime => Part::VarianceTime(variance_time(xs, &opts.vt)),
        Job::Whittle(i) => Part::Whittle(level(i)),
    });

    let (mut spectral, mut rs, mut rs_agg, mut vt) = (None, None, None, None);
    let mut varied_fits = Vec::new();
    let mut fits: Vec<WhittleLevel> = Vec::with_capacity(levels.len());
    for part in parts {
        match part {
            Part::Spectral(pg, lw, ones) => {
                fits.extend(ones);
                spectral = Some((pg, lw));
            }
            Part::RsVaried(h) => varied_fits.push(h),
            Part::Rs(fit) => rs = Some(fit),
            Part::RsAggregated(fit) => rs_agg = Some(fit),
            Part::VarianceTime(fit) => vt = Some(fit),
            Part::Whittle(fit) => fits.push(fit),
        }
    }
    let (periodogram, local_whittle) = spectral.expect("spectral job ran");
    let rs = rs.expect("R/S job ran");
    let mut varied_fits = varied_fits.into_iter();
    let varied: Vec<f64> = variations
        .iter()
        .map(|v| if *v == opts.rs { rs.hurst } else { varied_fits.next().expect("variation ran") })
        .collect();
    let lo = varied.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = varied.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    fits.sort_by_key(|&(i, _)| i);
    let sweep: Vec<(usize, WhittleEstimate)> = fits.into_iter().filter_map(|(_, fit)| fit).collect();
    // Headline Whittle number: the largest aggregation level that still
    // leaves a long-enough series (the paper takes m ≈ 700).
    let headline = sweep
        .last()
        .map(|(_, e)| *e)
        .unwrap_or_else(|| whittle_log(&xs.iter().map(|&x| x.max(1e-9).exp()).collect::<Vec<_>>()));

    HurstReport {
        variance_time: vt.expect("variance-time job ran"),
        rs,
        rs_aggregated: rs_agg.expect("R/S aggregated job ran"),
        rs_varied_range: (lo, hi),
        whittle: headline,
        whittle_sweep: sweep,
        periodogram,
        local_whittle,
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
    use crate::rs::rs_varied;
    use crate::whittle::whittle_aggregated;
    use vbr_fgn::DaviesHarte;
    use vbr_stats::par::with_threads;

    /// Every number of a report, as bits: the point estimates, their fit
    /// lines and CIs, the pox and variance-time points and the sweep.
    fn report_bits(rep: &HurstReport) -> Vec<u64> {
        let mut out = Vec::new();
        let mut push = |xs: &[f64]| out.extend(xs.iter().map(|x| x.to_bits()));
        let vt = &rep.variance_time;
        push(&[vt.hurst, vt.beta, vt.fit.slope, vt.fit.intercept]);
        push(&vt.normalized_variance);
        for rs in [&rep.rs, &rep.rs_aggregated] {
            push(&[rs.hurst, rs.fit.slope, rs.fit.intercept, rs.fit.r_squared]);
            for &(m, v) in &rs.points {
                push(&[m as f64, v]);
            }
        }
        push(&[rep.rs_varied_range.0, rep.rs_varied_range.1]);
        for (m, w) in std::iter::once(&(0, rep.whittle)).chain(&rep.whittle_sweep) {
            push(&[*m as f64, w.hurst, w.std_err, w.ci_lo, w.ci_hi, w.n as f64]);
        }
        let (pg, lw) = (&rep.periodogram, &rep.local_whittle);
        push(&[pg.hurst, pg.alpha, pg.fit.intercept, lw.hurst, lw.std_err, lw.m as f64]);
        out
    }

    #[test]
    fn report_is_the_serial_composition_at_every_width() {
        let xs: Vec<f64> = DaviesHarte::new(0.8, 1.0)
            .generate(30_000, 23)
            .iter()
            .map(|&v| v + 10.0)
            .collect();
        let opts = ReportOptions { whittle_levels: vec![1, 10, 30, 1_000], ..ReportOptions::default() };

        // The report assembled by hand from the public estimators.
        let varied = rs_varied(&xs, &opts.rs);
        let log: Vec<f64> = xs.iter().map(|&x| x.max(1e-9).ln()).collect();
        let sweep = whittle_aggregated(&log, &opts.whittle_levels);
        let serial = HurstReport {
            variance_time: variance_time(&xs, &opts.vt),
            rs: rs_analysis(&xs, &opts.rs),
            rs_aggregated: rs_aggregated(&xs, opts.rs_aggregation, &opts.rs),
            rs_varied_range: (
                varied.iter().cloned().fold(f64::INFINITY, f64::min),
                varied.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            ),
            whittle: sweep.last().expect("levels fit").1,
            whittle_sweep: sweep,
            periodogram: periodogram_h(&xs, opts.periodogram_fraction),
            local_whittle: local_whittle(&xs, None),
        };
        assert_eq!(serial.whittle_sweep.len(), 3, "m = 1000 leaves too short a series");
        let want = report_bits(&serial);
        let bits = |v: &[f64]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
        for threads in 1..=3 {
            with_threads(threads, || {
                assert_eq!(report_bits(&hurst_report(&xs, &opts)), want, "{threads} threads");
                assert_eq!(bits(&rs_varied(&xs, &opts.rs)), bits(&varied), "{threads} threads");
            });
        }
    }

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
