//! Continuous probability distributions used throughout the paper:
//! Normal, Gamma, Pareto, Lognormal, Exponential and the hybrid
//! Gamma/Pareto marginal model of §4.2.

mod convolve;
mod exponential;
mod gamma;
mod gamma_pareto;
mod lognormal;
mod normal;
mod pareto;

pub use convolve::{aggregate_marginal, DensityTable};
pub use exponential::Exponential;
pub use gamma::{Gamma, GammaDraws};
pub use gamma_pareto::GammaPareto;
pub use lognormal::Lognormal;
pub use normal::Normal;
pub use pareto::Pareto;

use crate::rng::open01;
use rand::Rng;

/// A univariate continuous distribution.
///
/// All five of the paper's marginal-model candidates (Fig 4–6) implement
/// this, so they can be compared through one interface.
pub trait ContinuousDist {
    /// Short human-readable name (used in figure legends).
    fn name(&self) -> &'static str;

    /// Probability density `f(x)`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution `F(x) = P[X ≤ x]`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function `F⁻¹(p)` for `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Distribution mean.
    fn mean(&self) -> f64;

    /// Distribution variance (may be `+∞` for heavy tails).
    fn variance(&self) -> f64;

    /// Complementary CDF `P[X > x]` — the quantity plotted log-log in
    /// Fig 4. Override when a direct form is more accurate in the tail.
    fn ccdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Draws one sample by inversion. Inverse-CDF sampling is the default
    /// so that sampled marginals agree exactly with `quantile`.
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.quantile(open01(rng))
    }
}

/// References to a distribution are themselves distributions, so generic
/// consumers can either own their target (`MarginalTransform<GammaPareto>`)
/// or borrow it (`MarginalTransform<&GammaPareto>`) through one bound.
impl<D: ContinuousDist + ?Sized> ContinuousDist for &D {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn pdf(&self, x: f64) -> f64 {
        (**self).pdf(x)
    }
    fn cdf(&self, x: f64) -> f64 {
        (**self).cdf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        (**self).quantile(p)
    }
    fn mean(&self) -> f64 {
        (**self).mean()
    }
    fn variance(&self) -> f64 {
        (**self).variance()
    }
    fn ccdf(&self, x: f64) -> f64 {
        (**self).ccdf(x)
    }
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        (**self).sample(rng)
    }
}

/// Draws `n` samples from a distribution.
pub fn sample_n<D: ContinuousDist + ?Sized>(
    dist: &D,
    n: usize,
    rng: &mut dyn Rng,
) -> Vec<f64> {
    (0..n).map(|_| dist.sample(rng)).collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::ContinuousDist;

    /// Checks `cdf(quantile(p)) ≈ p` over a probability grid.
    pub fn check_quantile_roundtrip<D: ContinuousDist>(d: &D, tol: f64) {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = d.quantile(p);
            let back = d.cdf(x);
            assert!(
                (back - p).abs() < tol,
                "{}: quantile({p}) = {x}, cdf back = {back}",
                d.name()
            );
        }
    }

    /// Checks that the pdf numerically integrates (trapezoid) to ≈ 1 over
    /// the central 99.9 % of the distribution, and that the pdf is the
    /// derivative of the cdf at a few points.
    pub fn check_pdf_integrates<D: ContinuousDist>(d: &D, tol: f64) {
        let lo = d.quantile(0.0005);
        let hi = d.quantile(0.9995);
        let steps = 20_000;
        let h = (hi - lo) / steps as f64;
        let mut area = 0.0;
        for i in 0..steps {
            let a = lo + i as f64 * h;
            area += 0.5 * (d.pdf(a) + d.pdf(a + h)) * h;
        }
        assert!((area - 0.999).abs() < tol, "{}: pdf area {area}", d.name());

        for &p in &[0.2, 0.5, 0.8] {
            let x = d.quantile(p);
            let eps = 1e-5 * x.abs().max(1.0);
            let deriv = (d.cdf(x + eps) - d.cdf(x - eps)) / (2.0 * eps);
            let pdf = d.pdf(x);
            assert!(
                (deriv - pdf).abs() < 1e-4 * pdf.max(1e-12),
                "{}: d/dx cdf = {deriv} vs pdf = {pdf} at x = {x}",
                d.name()
            );
        }
    }

    /// Checks sample moments against theoretical mean/variance.
    pub fn check_sample_moments<D: ContinuousDist>(d: &D, n: usize, rel_tol: f64) {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(0xFEED);
        let xs = super::sample_n(d, n, &mut rng);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let scale = d.mean().abs().max(1e-9);
        assert!(
            (mean - d.mean()).abs() / scale < rel_tol,
            "{}: sample mean {mean} vs {}",
            d.name(),
            d.mean()
        );
        if d.variance().is_finite() {
            assert!(
                (var - d.variance()).abs() / d.variance().max(1e-9) < 5.0 * rel_tol,
                "{}: sample var {var} vs {}",
                d.name(),
                d.variance()
            );
        }
    }
}
