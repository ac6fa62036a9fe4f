//! R/S (rescaled adjusted range) analysis — paper §3.2.3, Fig 12.
//!
//! Implements the practical Mandelbrot–Wallis procedure: compute
//! `R(n)/S(n)` over many lags `n` and several window positions per lag
//! ("partitions"), plot all points on log-log axes (the *pox diagram*) and
//! read `H` off the asymptotic slope by least squares.

use crate::aggregate::{aggregate, log_spaced_blocks};
use crate::error::LrdError;
use vbr_stats::error::{check_all_finite, check_min_len, check_non_constant};
use vbr_stats::regression::{fit_line, LineFit};

/// The rescaled adjusted range `R(n)/S(n)` of one window of observations.
///
/// `W_j = (X_1 + … + X_j) − j·X̄(n)`;
/// `R = max(0, W_1..W_n) − min(0, W_1..W_n)`; `S` is the window's standard
/// deviation. Returns `None` for degenerate windows (constant data).
pub fn rs_statistic(window: &[f64]) -> Option<f64> {
    let n = window.len();
    if n < 2 {
        return None;
    }
    let mean = window.iter().sum::<f64>() / n as f64;
    let mut acc = 0.0;
    let mut wmax = 0.0f64;
    let mut wmin = 0.0f64;
    for (j, &x) in window.iter().enumerate() {
        acc += x;
        let w = acc - (j + 1) as f64 * mean;
        wmax = wmax.max(w);
        wmin = wmin.min(w);
    }
    let var = window.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    if var <= 0.0 {
        return None;
    }
    Some((wmax - wmin) / var.sqrt())
}

/// Options for R/S analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RsOptions {
    /// Smallest lag on the grid.
    pub min_lag: usize,
    /// Largest lag (default: n/2).
    pub max_lag: Option<usize>,
    /// Lag-grid density (horizontal point density of the pox diagram).
    pub points_per_decade: usize,
    /// Window positions per lag (vertical point density).
    pub starts_per_lag: usize,
    /// Lags below this are excluded from the slope fit (transient SRD
    /// region; the paper highlights the asymptotic points).
    pub fit_min_lag: usize,
}

impl Default for RsOptions {
    fn default() -> Self {
        RsOptions {
            min_lag: 10,
            max_lag: None,
            points_per_decade: 6,
            starts_per_lag: 10,
            fit_min_lag: 100,
        }
    }
}

/// Result of an R/S analysis.
#[derive(Debug, Clone)]
pub struct RsAnalysis {
    /// Pox-diagram points `(lag n, R/S)`.
    pub points: Vec<(usize, f64)>,
    /// Log-log fit through the per-lag mean of `R/S` over the fit range.
    pub fit: LineFit,
    /// Hurst estimate = fitted slope.
    pub hurst: f64,
}

/// Runs the R/S analysis over a log-spaced lag grid.
pub fn rs_analysis(xs: &[f64], opts: &RsOptions) -> RsAnalysis {
    let n = xs.len();
    assert!(n >= 4 * opts.min_lag, "series too short for R/S analysis");
    try_rs_analysis(xs, opts).unwrap_or_else(|e| panic!("rs_analysis: {e}"))
}

/// Fallible [`rs_analysis`]: rejects short, non-finite or constant input
/// and degenerate lag grids instead of panicking.
pub fn try_rs_analysis(xs: &[f64], opts: &RsOptions) -> Result<RsAnalysis, LrdError> {
    let n = xs.len();
    check_min_len(xs, 4 * opts.min_lag.max(1))?;
    check_all_finite(xs)?;
    check_non_constant(xs)?;
    // `max_lag` defaults to n/2 so at least two disjoint windows fit.
    let max_lag = opts.max_lag.unwrap_or(n / 2).min(n);
    let grid: Vec<usize> = log_spaced_blocks(max_lag, opts.points_per_decade)
        .into_iter()
        .filter(|&m| m >= opts.min_lag)
        .collect();
    if grid.len() < 3 {
        return Err(LrdError::GridTooSmall { got: grid.len(), needed: 3 });
    }

    // Each lag's windows are independent; compute them on the worker
    // pool and flatten in grid order, so the pox diagram and the fit
    // vectors come out identical to the serial sweep.
    type LagResult = (Vec<(usize, f64)>, Option<(f64, f64)>);
    let per_lag: Vec<LagResult> =
        vbr_stats::par::par_map(&grid, |&lag| {
            let starts = opts.starts_per_lag.max(1);
            let span = n - lag;
            let mut lag_points = Vec::with_capacity(starts);
            let mut lag_vals = Vec::with_capacity(starts);
            for i in 0..starts {
                let t = if starts == 1 { 0 } else { span * i / (starts - 1).max(1) };
                if let Some(rs) = rs_statistic(&xs[t..t + lag]) {
                    if rs > 0.0 {
                        lag_points.push((lag, rs));
                        lag_vals.push(rs);
                    }
                }
            }
            let fit_point = if !lag_vals.is_empty() && lag >= opts.fit_min_lag {
                // Fit through the mean of ln(R/S) at each lag.
                let mean_ln =
                    lag_vals.iter().map(|v| v.ln()).sum::<f64>() / lag_vals.len() as f64;
                Some(((lag as f64).ln(), mean_ln))
            } else {
                None
            };
            (lag_points, fit_point)
        });

    let mut points = Vec::new();
    let mut fit_x = Vec::new();
    let mut fit_y = Vec::new();
    for (lag_points, fit_point) in per_lag {
        points.extend(lag_points);
        if let Some((fx, fy)) = fit_point {
            fit_x.push(fx);
            fit_y.push(fy);
        }
    }
    if fit_x.len() < 3 {
        return Err(LrdError::GridTooSmall { got: fit_x.len(), needed: 3 });
    }
    let fit = fit_line(&fit_x, &fit_y);
    Ok(RsAnalysis { hurst: fit.slope, fit, points })
}

/// R/S analysis on the aggregated series `X^(m)` — the paper's guard
/// against short-range-dependence distortions ("R/S Aggregated" row of
/// Table 3).
pub fn rs_aggregated(xs: &[f64], m: usize, opts: &RsOptions) -> RsAnalysis {
    let agg = aggregate(xs, m);
    rs_analysis(&agg, opts)
}

/// Repeats the R/S analysis under several grid/partition densities and
/// returns the spread of H estimates (the "R/S with n, M varied" row of
/// Table 3: the paper reports 0.81–0.83 and concludes the estimate is
/// robust).
pub fn rs_varied(xs: &[f64], base: &RsOptions) -> Vec<f64> {
    rs_varied_given(xs, base, None)
}

/// [`rs_varied`], taking `base_fit = rs_analysis(xs, base)` when the
/// caller already has it: a variation whose options equal `base` reuses
/// its H instead of rerunning the analysis.
pub(crate) fn rs_varied_given(
    xs: &[f64],
    base: &RsOptions,
    base_fit: Option<&RsAnalysis>,
) -> Vec<f64> {
    let variations = [
        (base.points_per_decade, base.starts_per_lag),
        (base.points_per_decade * 2, base.starts_per_lag),
        (base.points_per_decade, base.starts_per_lag * 3),
        (base.points_per_decade.max(3) - 2, base.starts_per_lag.max(4) / 2),
        (base.points_per_decade * 2, base.starts_per_lag * 2),
    ];
    variations
        .iter()
        .map(|&(ppd, spl)| {
            let opts = RsOptions {
                points_per_decade: ppd.max(2),
                starts_per_lag: spl.max(1),
                ..*base
            };
            match base_fit {
                Some(fit) if opts == *base => fit.hurst,
                _ => rs_analysis(xs, &opts).hurst,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_fgn::DaviesHarte;
    use vbr_stats::rng::Xoshiro256;

    #[test]
    fn rs_statistic_hand_computed() {
        // Window [1, 2, 3]: mean 2; W = [−1, −1, 0]; R = 0 − (−1) = 1;
        // S = √(2/3).
        let rs = rs_statistic(&[1.0, 2.0, 3.0]).unwrap();
        assert!((rs - 1.0 / (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rs_statistic_degenerate_cases() {
        assert!(rs_statistic(&[1.0]).is_none());
        assert!(rs_statistic(&[2.0, 2.0, 2.0]).is_none());
    }

    #[test]
    fn rs_statistic_shift_invariant() {
        let a = rs_statistic(&[1.0, 5.0, 2.0, 8.0, 3.0]).unwrap();
        let b = rs_statistic(&[101.0, 105.0, 102.0, 108.0, 103.0]).unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn rs_statistic_scale_invariant() {
        let a = rs_statistic(&[1.0, 5.0, 2.0, 8.0, 3.0]).unwrap();
        let b = rs_statistic(&[10.0, 50.0, 20.0, 80.0, 30.0]).unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn white_noise_gives_h_half() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let xs: Vec<f64> = (0..100_000).map(|_| rng.standard_normal()).collect();
        let rs = rs_analysis(&xs, &RsOptions::default());
        // R/S is biased upward at moderate n (Feller's small-sample effect),
        // so allow a generous band around 0.5.
        assert!((rs.hurst - 0.5).abs() < 0.09, "H {}", rs.hurst);
    }

    #[test]
    fn fgn_recovers_hurst() {
        let h = 0.8;
        let xs = DaviesHarte::new(h, 1.0).generate(150_000, 7);
        let rs = rs_analysis(&xs, &RsOptions::default());
        assert!((rs.hurst - h).abs() < 0.08, "estimated {}", rs.hurst);
    }

    #[test]
    fn aggregation_keeps_h_for_self_similar_input() {
        let h = 0.8;
        let xs = DaviesHarte::new(h, 1.0).generate(200_000, 9);
        let rs = rs_aggregated(&xs, 10, &RsOptions::default());
        assert!((rs.hurst - h).abs() < 0.1, "estimated {}", rs.hurst);
    }

    #[test]
    fn varied_estimates_cluster() {
        let h = 0.75;
        let xs = DaviesHarte::new(h, 1.0).generate(120_000, 11);
        let hs = rs_varied(&xs, &RsOptions::default());
        assert_eq!(hs.len(), 5);
        let lo = hs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = hs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(hi - lo < 0.1, "spread {lo}..{hi} too wide");
        assert!((0.5 * (lo + hi) - h).abs() < 0.08);
    }

    #[test]
    fn varied_reuses_the_base_fit_with_the_same_bits() {
        let xs = DaviesHarte::new(0.75, 1.0).generate(30_000, 12);
        // The default options are the first variation; `points_per_decade
        // = 1` is clamped to 2, so no variation equals that base.
        let sparse = RsOptions { points_per_decade: 1, ..RsOptions::default() };
        for base in [RsOptions::default(), sparse] {
            let fit = rs_analysis(&xs, &base);
            let reused = rs_varied_given(&xs, &base, Some(&fit));
            let fresh = rs_varied(&xs, &base);
            let bits = |v: &[f64]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused), bits(&fresh), "{base:?}");
        }
    }

    #[test]
    fn pox_points_cover_lag_range() {
        let xs = DaviesHarte::new(0.7, 1.0).generate(20_000, 13);
        let rs = rs_analysis(&xs, &RsOptions::default());
        let min_lag = rs.points.iter().map(|p| p.0).min().unwrap();
        let max_lag = rs.points.iter().map(|p| p.0).max().unwrap();
        assert!(min_lag >= 10);
        assert!(max_lag >= 5_000);
        assert!(rs.points.len() > 50);
    }
}
