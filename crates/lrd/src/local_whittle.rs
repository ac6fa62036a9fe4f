//! The local Whittle (Gaussian semiparametric) estimator of H
//! (Robinson 1995) — an extension cross-checking Table 3 that needs no
//! parametric spectral model at all: only the local behaviour
//! `f(λ) ~ G λ^{1−2H}` as `λ → 0` is assumed, so it is immune to the
//! fARIMA-vs-fGn misspecification the full Whittle can suffer.

use crate::error::LrdError;
use vbr_stats::error::{check_all_finite, check_min_len, check_non_constant, NumericError};
use vbr_stats::periodogram::Periodogram;

/// A local Whittle estimate.
#[derive(Debug, Clone, Copy)]
pub struct LocalWhittleEstimate {
    /// Estimated Hurst parameter.
    pub hurst: f64,
    /// Asymptotic standard error `1/(2√m)`.
    pub std_err: f64,
    /// Number of low-frequency ordinates used.
    pub m: usize,
}

/// Precomputed tables for the profiled local Whittle objective
/// `R(H) = ln Ĝ(H) − (2H−1)·(1/m) Σ ln λ_j` with
/// `Ĝ(H) = (1/m) Σ I_j λ_j^{2H−1}`.
///
/// `ln λ_j` (and its sum) depend only on the bandwidth, so caching them
/// turns each of the ~200 golden-section evaluations from a `powf` +
/// `ln` pass into a single `exp` per ordinate:
/// `λ^{2H−1} = e^{(2H−1)·ln λ}`.
struct Objective<'a> {
    power: &'a [f64],
    ln_freqs: Vec<f64>,
    sum_ln_freqs: f64,
}

impl<'a> Objective<'a> {
    fn new(freqs: &[f64], power: &'a [f64]) -> Self {
        let ln_freqs: Vec<f64> = freqs.iter().map(|&l| l.ln()).collect();
        let sum_ln_freqs = ln_freqs.iter().sum();
        Objective { power, ln_freqs, sum_ln_freqs }
    }

    fn eval(&self, h: f64) -> f64 {
        let m = self.power.len() as f64;
        let c = 2.0 * h - 1.0;
        let mut g = 0.0;
        for (&i, &ln_l) in self.power.iter().zip(&self.ln_freqs) {
            g += i * (c * ln_l).exp();
        }
        (g / m).ln() - c * self.sum_ln_freqs / m
    }
}

/// Estimates H from the lowest `m` periodogram ordinates.
///
/// A common bandwidth choice is `m = n^0.65`; pass `None` to use it.
pub fn local_whittle(xs: &[f64], m: Option<usize>) -> LocalWhittleEstimate {
    let n = xs.len();
    assert!(n >= 256, "local Whittle needs a longer series, got {n}");
    // Legacy behaviour: a boundary-stuck optimum returns the endpoint
    // estimate rather than erroring.
    match local_whittle_core(xs, m) {
        Ok((est, _)) => est,
        Err(e) => panic!("local_whittle: {e}"),
    }
}

/// Fallible [`local_whittle`]: rejects short, non-finite or constant
/// series and reports a boundary-stuck optimisation instead of returning
/// the untrustworthy endpoint value.
pub fn try_local_whittle(
    xs: &[f64],
    m: Option<usize>,
) -> Result<LocalWhittleEstimate, LrdError> {
    let (est, boundary) = local_whittle_core(xs, m)?;
    if boundary {
        return Err(NumericError::NotConverged { what: "local Whittle optimisation" }.into());
    }
    Ok(est)
}

/// Shared search: input checks are typed errors and run before the
/// periodogram is requested, so a rejected series never reaches the FFT;
/// a boundary-stuck optimum is a flag so the panicking wrapper keeps the
/// legacy endpoint value.
fn local_whittle_core(
    xs: &[f64],
    m: Option<usize>,
) -> Result<(LocalWhittleEstimate, bool), LrdError> {
    let n = xs.len();
    check_min_len(xs, 256)?;
    check_all_finite(xs)?;
    check_non_constant(xs)?;
    let pg = Periodogram::of(xs);
    let m = m
        .unwrap_or_else(|| (n as f64).powf(0.65) as usize)
        .clamp(8, pg.len());
    let freqs = &pg.freqs()[..m];
    let power = &pg.power()[..m];
    let obj = Objective::new(freqs, power);

    // Golden-section over H ∈ (0.01, 0.999).
    let (mut a, mut b) = (0.01f64, 0.999f64);
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    let mut fc = obj.eval(c);
    let mut fd = obj.eval(d);
    for _ in 0..200 {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = obj.eval(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = obj.eval(d);
        }
        if (b - a).abs() < 1e-10 {
            break;
        }
    }
    let hurst = 0.5 * (a + b);
    if !hurst.is_finite() {
        return Err(NumericError::NotConverged { what: "local Whittle optimisation" }.into());
    }
    // The search interval is (0.01, 0.999); an optimum stuck on either
    // end is a domain violation, not an estimate — flagged for the
    // fallible path.
    let boundary = hurst <= 0.01 + 1e-4 || hurst >= 0.999 - 1e-4;
    Ok((
        LocalWhittleEstimate {
            hurst,
            std_err: 0.5 / (m as f64).sqrt(),
            m,
        },
        boundary,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_fgn::{DaviesHarte, Hosking};
    use vbr_stats::rng::Xoshiro256;

    #[test]
    fn white_noise_gives_h_half() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let xs: Vec<f64> = (0..32_768).map(|_| rng.standard_normal()).collect();
        let est = local_whittle(&xs, None);
        assert!((est.hurst - 0.5).abs() < 0.05, "H {}", est.hurst);
    }

    #[test]
    fn recovers_h_on_fgn_without_bias() {
        // The semiparametric estimator must NOT show the fARIMA-model
        // bias on fGn input.
        for &h in &[0.65, 0.8, 0.9] {
            let xs = DaviesHarte::new(h, 1.0).generate(131_072, 2);
            let est = local_whittle(&xs, None);
            assert!(
                (est.hurst - h).abs() < 0.05,
                "H = {h}: estimated {} ± {}",
                est.hurst,
                est.std_err
            );
        }
    }

    #[test]
    fn recovers_h_on_farima_too() {
        let h = 0.75;
        let xs = Hosking::new(h, 1.0).generate(16_384, 3);
        let est = local_whittle(&xs, None);
        assert!((est.hurst - h).abs() < 0.07, "estimated {}", est.hurst);
    }

    #[test]
    fn std_err_formula() {
        let xs = DaviesHarte::new(0.7, 1.0).generate(4_096, 4);
        let est = local_whittle(&xs, Some(100));
        assert_eq!(est.m, 100);
        assert!((est.std_err - 0.05).abs() < 1e-12);
    }

    #[test]
    fn truth_inside_two_sigma_most_of_the_time() {
        let h = 0.8;
        let mut hits = 0;
        for seed in 0..10 {
            let xs = DaviesHarte::new(h, 1.0).generate(32_768, seed);
            let est = local_whittle(&xs, None);
            if (est.hurst - h).abs() <= 2.0 * est.std_err {
                hits += 1;
            }
        }
        assert!(hits >= 7, "only {hits}/10 within 2 sigma");
    }

    #[test]
    fn bandwidth_is_clamped() {
        let xs = DaviesHarte::new(0.7, 1.0).generate(512, 5);
        let est = local_whittle(&xs, Some(10_000));
        assert!(est.m <= 256);
    }
}
