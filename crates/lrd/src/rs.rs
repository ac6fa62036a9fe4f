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
///
/// This is the one-lane case of the kernel that [`try_rs_analysis`]
/// runs over several windows at a time, so both give the same bits.
pub fn rs_statistic(window: &[f64]) -> Option<f64> {
    let [rs] = rs_lanes([window]);
    rs
}

/// Windows of one lag that an R/S pass advances together. Each window's
/// sums are serial add chains, so one window runs at the add latency;
/// four independent chains keep the adder busy (two SSE2 registers a
/// chain). Two left it idle; six, eight and sixteen ran slower, their
/// chains' state spilling out of registers.
const RS_LANES: usize = 4;

/// Elements per block of [`each_row`]: within a block every window is a
/// fixed-size array, so the lane loops index it without bounds checks.
const ROW_BLOCK: usize = 64;

/// Calls `f(j, [w_0[j], …, w_{K−1}[j]])` for `j` in `0..n`, in order, where
/// `n` is the length of the windows (all equal).
// The element index walks `K` windows at once, which no iterator adapter
// expresses for a const-generic `K`.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn each_row<const K: usize>(windows: [&[f64]; K], mut f: impl FnMut(usize, [f64; K])) {
    let n = windows[0].len();
    let whole = n - n % ROW_BLOCK;
    for j0 in (0..whole).step_by(ROW_BLOCK) {
        let blocks: [&[f64; ROW_BLOCK]; K] = std::array::from_fn(|k| {
            windows[k][j0..j0 + ROW_BLOCK].try_into().expect("block length")
        });
        for i in 0..ROW_BLOCK {
            f(j0 + i, std::array::from_fn(|k| blocks[k][i]));
        }
    }
    for j in whole..n {
        f(j, std::array::from_fn(|k| windows[k][j]));
    }
}

/// [`rs_statistic`] of `K` equal-length windows at once. Each lane runs
/// `rs_statistic`'s own op sequence — the sum for the mean, then the
/// running partial sum `acc`, its deviation `w` with running max and min,
/// and the sum of `(x − mean)²`, all in element order — so a lane's bits
/// do not depend on `K` or on the other lanes. The running max and min
/// are compare-and-select, which gives `f64::max`/`min`'s bits here: they
/// start at `+0.0` and never become NaN (a NaN `w` fails both compares,
/// as `max`/`min` ignore it), and `w` is never `-0.0`: `acc` starts at
/// `+0.0` and a sum is `-0.0` only when both addends are, so `acc` never
/// is, and `acc − j·mean` is `-0.0` only when `acc` is. So no tie between
/// zeros of opposite sign arises.
fn rs_lanes<const K: usize>(windows: [&[f64]; K]) -> [Option<f64>; K] {
    let n = windows[0].len();
    assert!(windows.iter().all(|w| w.len() == n), "R/S lanes need equal windows");
    if n < 2 {
        return [None; K];
    }
    let len = n as f64;
    let mut sum = [0.0f64; K];
    each_row(windows, |_, row| {
        for k in 0..K {
            sum[k] += row[k];
        }
    });
    let mean = sum.map(|s| s / len);
    let mut acc = [0.0f64; K];
    let mut wmax = [0.0f64; K];
    let mut wmin = [0.0f64; K];
    let mut sq = [0.0f64; K];
    each_row(windows, |j, row| {
        let steps = (j + 1) as f64;
        for k in 0..K {
            acc[k] += row[k];
            let w = acc[k] - steps * mean[k];
            if w > wmax[k] {
                wmax[k] = w;
            }
            if w < wmin[k] {
                wmin[k] = w;
            }
            sq[k] += (row[k] - mean[k]).powi(2);
        }
    });
    std::array::from_fn(|k| {
        let var = sq[k] / len;
        if var <= 0.0 {
            None
        } else {
            Some((wmax[k] - wmin[k]) / var.sqrt())
        }
    })
}

/// [`rs_statistic`] of the window `xs[t..t + lag]` for every `t` in
/// `starts`, in order, [`RS_LANES`] windows per pass. A short last pass
/// repeats its final window in the spare lanes and drops their results.
fn rs_windows(xs: &[f64], lag: usize, starts: &[usize]) -> Vec<Option<f64>> {
    let mut out = Vec::with_capacity(starts.len());
    for chunk in starts.chunks(RS_LANES) {
        let windows = std::array::from_fn(|k| {
            let t = chunk[k.min(chunk.len() - 1)];
            &xs[t..t + lag]
        });
        out.extend_from_slice(&rs_lanes::<RS_LANES>(windows)[..chunk.len()]);
    }
    out
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
            let ts: Vec<usize> = (0..starts)
                .map(|i| if starts == 1 { 0 } else { span * i / (starts - 1).max(1) })
                .collect();
            let mut lag_points = Vec::with_capacity(starts);
            let mut lag_vals = Vec::with_capacity(starts);
            for rs in rs_windows(xs, lag, &ts).into_iter().flatten() {
                if rs > 0.0 {
                    lag_points.push((lag, rs));
                    lag_vals.push(rs);
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
    rs_variations(base).iter().map(|opts| rs_analysis(xs, opts).hurst).collect()
}

/// The grids [`rs_varied`] analyses, in order: the base grid, a denser
/// lag grid, more starts per lag, a sparser grid with fewer starts, and
/// both denser. The first equals `base` unless `base` is below the
/// clamps (fewer than two points per decade or no starts).
pub(crate) fn rs_variations(base: &RsOptions) -> [RsOptions; 5] {
    [
        (base.points_per_decade, base.starts_per_lag),
        (base.points_per_decade * 2, base.starts_per_lag),
        (base.points_per_decade, base.starts_per_lag * 3),
        (base.points_per_decade.max(3) - 2, base.starts_per_lag.max(4) / 2),
        (base.points_per_decade * 2, base.starts_per_lag * 2),
    ]
    .map(|(ppd, spl)| RsOptions {
        points_per_decade: ppd.max(2),
        starts_per_lag: spl.max(1),
        ..*base
    })
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

    /// `rs_statistic` as three plain passes (mean, bridge range,
    /// variance), the textbook form the lane kernel must match bit for
    /// bit.
    fn rs_reference(window: &[f64]) -> Option<f64> {
        let n = window.len();
        if n < 2 {
            return None;
        }
        let mean = window.iter().sum::<f64>() / n as f64;
        let (mut acc, mut wmax, mut wmin) = (0.0, 0.0f64, 0.0f64);
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

    /// A series with every kind of window: fGn, constant stretches
    /// (zero variance: `None`), and stretches of ones with one
    /// `1 + ε` whose range rounds to zero while the variance does not
    /// (`Some(0.0)`, dropped from the pox diagram).
    fn awkward_series() -> Vec<f64> {
        let mut xs = DaviesHarte::new(0.8, 1.0).generate(4_000, 21);
        xs[500..900].fill(3.0);
        for (k, x) in xs[1_500..1_800].iter_mut().enumerate() {
            *x = if k % 4 == 3 { 1.0 + f64::EPSILON } else { 1.0 };
        }
        xs
    }

    #[test]
    fn lanes_match_rs_statistic_window_by_window() {
        let xs = awkward_series();
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        assert_eq!(rs_reference(&xs[1_500..1_504]), Some(0.0));
        let (mut nones, mut zeros) = (0, 0);
        for lag in 2..=300 {
            let span = xs.len() - lag;
            let counts: &[usize] = if lag % 50 == 0 { &[1, 2, 3, 4, 5, 7, 8, 9, 33] } else { &[] };
            for starts in counts.iter().copied().chain([1 + lag % 33]) {
                // Every `span / starts` offset, plus the constant and
                // rounding stretches.
                let mut ts: Vec<usize> = (0..starts).map(|i| span * i / starts).collect();
                ts[0] = [500, 1_500, 0][lag % 3].min(span);
                let lanes = rs_windows(&xs, lag, &ts);
                assert_eq!(lanes.len(), ts.len());
                for (&t, &rs) in ts.iter().zip(&lanes) {
                    let window = &xs[t..t + lag];
                    assert_eq!(bits(rs), bits(rs_statistic(window)), "lag {lag} start {t}");
                    assert_eq!(bits(rs), bits(rs_reference(window)), "lag {lag} start {t}");
                    nones += usize::from(rs.is_none());
                    zeros += usize::from(rs == Some(0.0));
                }
            }
        }
        assert!(nones > 0 && zeros > 0, "{nones} constant, {zeros} zero-range windows");
    }

    #[test]
    fn pox_points_match_a_per_window_sweep() {
        let xs = awkward_series();
        let opts = RsOptions { min_lag: 2, fit_min_lag: 20, starts_per_lag: 13, ..RsOptions::default() };
        let rs = try_rs_analysis(&xs, &opts).expect("series analyses");
        let mut points = Vec::new();
        let mut dropped = 0;
        let grid = log_spaced_blocks(xs.len() / 2, opts.points_per_decade);
        for lag in grid.into_iter().filter(|&m| m >= opts.min_lag) {
            let span = xs.len() - lag;
            for i in 0..opts.starts_per_lag {
                let t = span * i / (opts.starts_per_lag - 1);
                match rs_reference(&xs[t..t + lag]) {
                    Some(v) if v > 0.0 => points.push((lag, v.to_bits())),
                    _ => dropped += 1,
                }
            }
        }
        let got: Vec<(usize, u64)> = rs.points.iter().map(|&(m, v)| (m, v.to_bits())).collect();
        assert_eq!(got, points);
        assert!(dropped > 0);
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
