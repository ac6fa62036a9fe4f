//! Whittle's approximate maximum-likelihood estimator of the Hurst
//! parameter (paper §3.2.3, Table 3).
//!
//! The periodogram `I(ω_j)` is compared to the fractional ARIMA(0, d, 0)
//! spectral shape `f(ω; d) ∝ |2 sin(ω/2)|^{−2d}`; the scale is profiled
//! out and the Whittle functional
//! `L(d) = ln( (1/m) Σ I_j/f_j(d) ) + (1/m) Σ ln f_j(d)`
//! is minimised over `d ∈ (0, ½)` by golden-section search. The
//! asymptotic result `√n (d̂ − d) → N(0, 6/π²)` gives the confidence
//! interval the paper quotes (`Ĥ = 0.8 ± 0.088`).

use crate::aggregate::aggregate;
use crate::error::LrdError;
use vbr_stats::error::{check_all_finite, check_all_positive, check_min_len, check_non_constant, NumericError};
use vbr_stats::periodogram::Periodogram;

/// A Whittle estimate with its 95 % confidence interval.
#[derive(Debug, Clone, Copy)]
pub struct WhittleEstimate {
    /// Estimated Hurst parameter `Ĥ = d̂ + ½`.
    pub hurst: f64,
    /// Asymptotic standard error of `Ĥ`.
    pub std_err: f64,
    /// 95 % CI lower bound.
    pub ci_lo: f64,
    /// 95 % CI upper bound.
    pub ci_hi: f64,
    /// Series length the estimate was computed from.
    pub n: usize,
}

/// Which parametric spectral density the Whittle functional fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpectralModel {
    /// Fractional ARIMA(0, d, 0): `f(ω) ∝ |2 sin(ω/2)|^{−2d}` — the model
    /// the paper fits.
    #[default]
    Farima,
    /// Fractional Gaussian noise:
    /// `f(ω) ∝ (1 − cos ω)[|ω|^{−2H−1} + B(ω, H)]` with the aliasing sum
    /// `B` truncated after 10 terms plus an integral tail correction.
    Fgn,
}

/// Number of aliasing terms in the truncated fGn spectral sum.
const FGN_ALIAS_TERMS: usize = 10;

/// Parametric spectral shape at frequency `omega` for differencing
/// parameter `d` (H = d + ½); unit scale — the Whittle scale is profiled
/// out so only the shape matters.
fn spectral_shape(model: SpectralModel, omega: f64, d: f64) -> f64 {
    match model {
        SpectralModel::Farima => (2.0 * (omega / 2.0).sin()).abs().powf(-2.0 * d),
        SpectralModel::Fgn => {
            let h = d + 0.5;
            let e = 2.0 * h + 1.0;
            let mut b = 0.0;
            const J: usize = FGN_ALIAS_TERMS;
            for j in 1..=J {
                let t = 2.0 * std::f64::consts::PI * j as f64;
                b += (t + omega).powf(-e) + (t - omega).powf(-e);
            }
            // Tail Σ_{j>J} ≈ ∫: [(2πJ+ω)^{−2H} + (2πJ−ω)^{−2H}]/(4πH).
            let tj = 2.0 * std::f64::consts::PI * J as f64;
            b += ((tj + omega).powf(-2.0 * h) + (tj - omega).powf(-2.0 * h))
                / (4.0 * std::f64::consts::PI * h);
            (1.0 - omega.cos()) * (omega.powf(-e) + b)
        }
    }
}

/// The profiled Whittle objective, evaluated directly from
/// [`spectral_shape`] with no precomputation.
///
/// This is the reference implementation: the golden-section search uses
/// [`WhittleObjective`], whose per-frequency log tables make each
/// evaluation a fused multiply-add + `exp` pass instead of `powf` + `ln`
/// per frequency. Kept public so tests and benchmarks can pin the fast
/// path against it.
pub fn whittle_objective_direct(pg: &Periodogram, model: SpectralModel, d: f64) -> f64 {
    let m = pg.len() as f64;
    let mut ratio_sum = 0.0;
    let mut log_sum = 0.0;
    for (&w, &i) in pg.freqs().iter().zip(pg.power()) {
        let f = spectral_shape(model, w, d);
        ratio_sum += i / f;
        log_sum += f.ln();
    }
    (ratio_sum / m).ln() + log_sum / m
}

/// Precomputed per-frequency tables for fast repeated evaluation of the
/// profiled Whittle objective at different `d` — the hot path of the
/// golden-section search, which evaluates the objective ~100 times over
/// the same periodogram.
///
/// For the fARIMA model `ln f_j(d) = −2d·ln|2 sin(ω_j/2)|`, so with
/// `s_j = ln|2 sin(ω_j/2)|` cached the per-frequency work collapses to a
/// single `exp`: `I_j/f_j = I_j·e^{2d·s_j}`, and `Σ ln f_j` is just
/// `−2d·Σ s_j` (no per-frequency work at all). For the fGn model each
/// `(t ± ω)^{−e}` power becomes `e^{−e·ln(t±ω)}` over cached logs —
/// replacing every `powf` (an `ln` + `exp` internally) with one `exp`.
pub struct WhittleObjective {
    model: SpectralModel,
    /// Periodogram ordinates `I_j`.
    power: Vec<f64>,
    /// fARIMA: `s_j = ln|2 sin(ω_j/2)|` per frequency.
    ln_two_sin_half: Vec<f64>,
    /// fARIMA: `Σ_j s_j`.
    sum_ln_two_sin_half: f64,
    /// fGn: `1 − cos ω_j`.
    one_minus_cos: Vec<f64>,
    /// fGn: `[ln ω_j, ln(t_1+ω_j), ln(t_1−ω_j), …]` — `1 + 2J` logs per
    /// frequency, flattened row-major.
    ln_terms: Vec<f64>,
    /// fGn: `[ln(t_J+ω_j), ln(t_J−ω_j)]` per frequency for the tail
    /// integral correction.
    ln_tail: Vec<f64>,
}

impl WhittleObjective {
    /// Builds the tables for one periodogram under one spectral model.
    pub fn new(pg: &Periodogram, model: SpectralModel) -> Self {
        let freqs = pg.freqs();
        let power = pg.power().to_vec();
        let mut obj = WhittleObjective {
            model,
            power,
            ln_two_sin_half: Vec::new(),
            sum_ln_two_sin_half: 0.0,
            one_minus_cos: Vec::new(),
            ln_terms: Vec::new(),
            ln_tail: Vec::new(),
        };
        match model {
            SpectralModel::Farima => {
                obj.ln_two_sin_half = freqs
                    .iter()
                    .map(|&w| (2.0 * (w / 2.0).sin()).abs().ln())
                    .collect();
                obj.sum_ln_two_sin_half = obj.ln_two_sin_half.iter().sum();
            }
            SpectralModel::Fgn => {
                const J: usize = FGN_ALIAS_TERMS;
                obj.one_minus_cos = freqs.iter().map(|&w| 1.0 - w.cos()).collect();
                obj.ln_terms = Vec::with_capacity(freqs.len() * (1 + 2 * J));
                obj.ln_tail = Vec::with_capacity(freqs.len() * 2);
                let tj = 2.0 * std::f64::consts::PI * J as f64;
                for &w in freqs {
                    obj.ln_terms.push(w.ln());
                    for j in 1..=J {
                        let t = 2.0 * std::f64::consts::PI * j as f64;
                        obj.ln_terms.push((t + w).ln());
                        obj.ln_terms.push((t - w).ln());
                    }
                    obj.ln_tail.push((tj + w).ln());
                    obj.ln_tail.push((tj - w).ln());
                }
            }
        }
        obj
    }

    /// Evaluates the profiled objective at differencing parameter `d`.
    pub fn eval(&self, d: f64) -> f64 {
        let m = self.power.len() as f64;
        match self.model {
            SpectralModel::Farima => {
                let two_d = 2.0 * d;
                let mut ratio_sum = 0.0;
                for (&i, &s) in self.power.iter().zip(&self.ln_two_sin_half) {
                    // I_j / f_j(d) with f_j = e^{−2d·s_j}.
                    ratio_sum += i * (two_d * s).exp();
                }
                let log_sum = -two_d * self.sum_ln_two_sin_half;
                (ratio_sum / m).ln() + log_sum / m
            }
            SpectralModel::Fgn => {
                const J: usize = FGN_ALIAS_TERMS;
                let h = d + 0.5;
                let e = 2.0 * h + 1.0;
                let tail_scale = 1.0 / (4.0 * std::f64::consts::PI * h);
                let mut ratio_sum = 0.0;
                let mut log_sum = 0.0;
                let stride = 1 + 2 * J;
                for (k, (&i, &omc)) in
                    self.power.iter().zip(&self.one_minus_cos).enumerate()
                {
                    let terms = &self.ln_terms[k * stride..(k + 1) * stride];
                    let mut b = 0.0;
                    for &ln_t in &terms[1..] {
                        b += (-e * ln_t).exp();
                    }
                    b += ((-2.0 * h * self.ln_tail[2 * k]).exp()
                        + (-2.0 * h * self.ln_tail[2 * k + 1]).exp())
                        * tail_scale;
                    let f = omc * ((-e * terms[0]).exp() + b);
                    ratio_sum += i / f;
                    log_sum += f.ln();
                }
                (ratio_sum / m).ln() + log_sum / m
            }
        }
    }
}

/// Whittle estimate of H fitting the fARIMA(0, d, 0) spectrum (the
/// paper's choice).
pub fn whittle(xs: &[f64]) -> WhittleEstimate {
    whittle_with(xs, SpectralModel::Farima)
}

/// Fallible [`whittle`].
pub fn try_whittle(xs: &[f64]) -> Result<WhittleEstimate, LrdError> {
    try_whittle_with(xs, SpectralModel::Farima)
}

/// Whittle estimate of H under a chosen spectral model.
///
/// Panics on invalid input; see [`try_whittle_with`] for the fallible
/// variant used by the [`crate::robust`] fallback chain.
pub fn whittle_with(xs: &[f64], model: SpectralModel) -> WhittleEstimate {
    let n = xs.len();
    assert!(n >= 128, "Whittle estimation needs a longer series, got {n}");
    // Legacy behaviour: a boundary-stuck optimum returns the endpoint
    // estimate rather than erroring (callers historically clamp it).
    match whittle_core(xs, model) {
        Ok((est, _)) => est,
        Err(e) => panic!("whittle_with: {e}"),
    }
}

/// Fallible [`whittle_with`]: rejects short, non-finite or constant
/// series and reports an optimisation that terminated on the boundary of
/// the admissible `d` interval (the spectral model cannot represent the
/// series) instead of returning the untrustworthy boundary value.
pub fn try_whittle_with(xs: &[f64], model: SpectralModel) -> Result<WhittleEstimate, LrdError> {
    let (est, boundary) = whittle_core(xs, model)?;
    if boundary {
        return Err(NumericError::NotConverged { what: "Whittle optimisation" }.into());
    }
    Ok(est)
}

/// Shared search: input checks are typed errors and run before the
/// periodogram is requested, so a rejected series never reaches the FFT;
/// a boundary-stuck optimum is reported as a flag so the panicking
/// wrappers can keep the legacy behaviour of returning the clamped
/// endpoint estimate.
fn whittle_core(xs: &[f64], model: SpectralModel) -> Result<(WhittleEstimate, bool), LrdError> {
    let n = xs.len();
    check_min_len(xs, 128)?;
    check_all_finite(xs)?;
    check_non_constant(xs)?;
    // Per-frequency log tables built once; each golden-section iteration
    // is then an exp + multiply-add pass over the ordinates.
    let obj = WhittleObjective::new(&Periodogram::of(xs), model);

    // Golden-section search for d over (0, 0.4999).
    let (mut a, mut b) = (1e-4, 0.4999f64);
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let mut c = b - phi * (b - a);
    let mut dd = a + phi * (b - a);
    let mut fc = obj.eval(c);
    let mut fd = obj.eval(dd);
    let mut iterations = 0u64;
    for _ in 0..100 {
        iterations += 1;
        if fc < fd {
            b = dd;
            dd = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = obj.eval(c);
        } else {
            a = c;
            c = dd;
            fc = fd;
            dd = a + phi * (b - a);
            fd = obj.eval(dd);
        }
        if (b - a).abs() < 1e-10 {
            break;
        }
    }
    vbr_stats::obs::counter_add(vbr_stats::obs::Counter::WhittleIterations, iterations);
    let d_hat = 0.5 * (a + b);
    if !d_hat.is_finite() {
        return Err(NumericError::NotConverged { what: "Whittle optimisation" }.into());
    }

    // The search interval is (0, 0.4999); an optimum glued to the upper
    // end means the fARIMA/fGn family cannot represent the series (H at
    // or beyond 1) and the boundary value is arbitrary — flagged so the
    // fallible path can reject it.
    let boundary = d_hat >= 0.4999 - 1e-4;

    // Var(d̂) = 6/(π² n); H = d + ½ inherits it.
    let std_err = (6.0 / (std::f64::consts::PI.powi(2) * n as f64)).sqrt();
    let hurst = d_hat + 0.5;
    Ok((
        WhittleEstimate {
            hurst,
            std_err,
            ci_lo: hurst - 1.96 * std_err,
            ci_hi: hurst + 1.96 * std_err,
            n,
        },
        boundary,
    ))
}

/// Whittle estimate of the log-transformed series — the paper estimates on
/// `{log X_i}`, which is closer to Gaussian and shares the same `H`.
pub fn whittle_log(xs: &[f64]) -> WhittleEstimate {
    for &x in xs {
        assert!(x > 0.0, "whittle_log requires positive data");
    }
    try_whittle_log(xs).unwrap_or_else(|e| panic!("whittle_log: {e}"))
}

/// Fallible [`whittle_log`]: additionally rejects non-positive samples,
/// which have no logarithm.
pub fn try_whittle_log(xs: &[f64]) -> Result<WhittleEstimate, LrdError> {
    check_all_positive(xs)?;
    let logged: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    try_whittle(&logged)
}

/// The paper's aggregation sweep: Whittle estimates `Ĥ^(m)` with CIs for
/// each aggregation level `m`, filtering the short-range high-frequency
/// structure. Returns `(m, estimate)` pairs; levels whose aggregated
/// series would be shorter than 128 points are skipped.
pub fn whittle_aggregated(xs: &[f64], levels: &[usize]) -> Vec<(usize, WhittleEstimate)> {
    whittle_aggregated_with(xs, levels, SpectralModel::Farima)
}

/// [`whittle_aggregated`] under a chosen spectral model.
pub fn whittle_aggregated_with(
    xs: &[f64],
    levels: &[usize],
    model: SpectralModel,
) -> Vec<(usize, WhittleEstimate)> {
    // Levels are independent full Whittle fits over different aggregated
    // series — run them on the worker pool; index-ordered collection
    // keeps the output identical to the serial sweep.
    vbr_stats::par::par_map(levels, |&m| {
        let agg = aggregate(xs, m);
        if agg.len() >= 128 {
            Some((m, whittle_with(&agg, model)))
        } else {
            None
        }
    })
    .into_iter()
    .flatten()
    .collect()
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
        let est = whittle(&xs);
        assert!((est.hurst - 0.5).abs() < 0.03, "H {}", est.hurst);
    }

    #[test]
    fn farima_recovers_h_exactly_specified_model() {
        // Hosking output *is* fARIMA(0,d,0): Whittle is correctly specified.
        for &h in &[0.65, 0.8] {
            let xs = Hosking::new(h, 1.0).generate(16_384, 3);
            let est = whittle(&xs);
            assert!(
                (est.hurst - h).abs() < 0.04,
                "H = {h}: estimated {} ± {}",
                est.hurst,
                est.std_err
            );
        }
    }

    #[test]
    fn fgn_recovers_h_with_fgn_spectrum() {
        // With the correctly-specified fGn spectral density the bias is gone.
        let h = 0.8;
        let xs = DaviesHarte::new(h, 1.0).generate(65_536, 5);
        let est = whittle_with(&xs, SpectralModel::Fgn);
        assert!((est.hurst - h).abs() < 0.03, "estimated {}", est.hurst);
    }

    #[test]
    fn farima_spectrum_on_fgn_has_known_upward_bias() {
        // Misspecification check: the fARIMA shape overestimates H on fGn
        // input because the two spectra differ at high frequency.
        let h = 0.8;
        let xs = DaviesHarte::new(h, 1.0).generate(65_536, 5);
        let biased = whittle_with(&xs, SpectralModel::Farima);
        let exact = whittle_with(&xs, SpectralModel::Fgn);
        assert!(biased.hurst > exact.hurst);
        assert!((biased.hurst - h).abs() < 0.12, "estimated {}", biased.hurst);
    }

    #[test]
    fn ci_width_matches_asymptotics() {
        // σ_H = √(6/(π² n)); for n = 10 000, 1.96σ ≈ 0.0153.
        let xs = DaviesHarte::new(0.7, 1.0).generate(10_000, 6);
        let est = whittle(&xs);
        let want = (6.0 / (std::f64::consts::PI.powi(2) * 10_000.0)).sqrt();
        assert!((est.std_err - want).abs() < 1e-12);
        assert!((est.ci_hi - est.ci_lo - 2.0 * 1.96 * want).abs() < 1e-9);
        // The paper's ±0.088 at m ≈ 700 corresponds to n = 171 000/700 ≈ 244.
        let paper_se = (6.0 / (std::f64::consts::PI.powi(2) * 244.0)).sqrt();
        assert!((1.96 * paper_se - 0.097).abs() < 0.01);
    }

    #[test]
    fn true_h_usually_inside_ci() {
        let h = 0.75;
        let mut hits = 0;
        for seed in 0..10 {
            let xs = DaviesHarte::new(h, 1.0).generate(16_384, seed);
            let est = whittle_with(&xs, SpectralModel::Fgn);
            if est.ci_lo <= h && h <= est.ci_hi {
                hits += 1;
            }
        }
        assert!(hits >= 7, "only {hits}/10 CIs covered the truth");
    }

    #[test]
    fn whittle_log_agrees_on_exponentiated_farima() {
        // exp(fARIMA) has the same H; log-transforming recovers the
        // Gaussian fARIMA for which the default spectrum is exact.
        let h = 0.8;
        let g = Hosking::new(h, 0.25).generate(16_384, 8);
        let xs: Vec<f64> = g.iter().map(|&v| (v + 10.0).exp()).collect();
        let est = whittle_log(&xs);
        assert!((est.hurst - h).abs() < 0.04, "estimated {}", est.hurst);
    }

    #[test]
    fn aggregation_sweep_is_stable_for_self_similar_input() {
        let h = 0.8;
        let xs = DaviesHarte::new(h, 1.0).generate(131_072, 9);
        let sweep = whittle_aggregated(&xs, &[1, 4, 16, 64]);
        assert_eq!(sweep.len(), 4);
        for (m, est) in &sweep {
            assert!(
                (est.hurst - h).abs() < 0.1,
                "m = {m}: estimated {}",
                est.hurst
            );
        }
        // CI widens as aggregation shortens the series.
        assert!(sweep[3].1.std_err > sweep[0].1.std_err);
    }

    #[test]
    #[should_panic(expected = "longer series")]
    fn short_series_rejected() {
        whittle(&[1.0; 64]);
    }

    #[test]
    fn fast_objective_matches_direct_evaluation() {
        let xs = DaviesHarte::new(0.8, 1.0).generate(8_192, 17);
        let pg = vbr_stats::Periodogram::compute(&xs);
        for model in [SpectralModel::Farima, SpectralModel::Fgn] {
            let fast = WhittleObjective::new(&pg, model);
            for k in 1..50 {
                let d = 0.4999 * k as f64 / 50.0;
                let direct = whittle_objective_direct(&pg, model, d);
                let cached = fast.eval(d);
                assert!(
                    (direct - cached).abs() < 1e-9 * direct.abs().max(1.0),
                    "{model:?} d={d}: direct {direct} vs fast {cached}"
                );
            }
        }
    }
}
