//! Gamma distribution, parameterised exactly as the paper's Eq (14):
//! `f_Γ(x) = e^{−λx} λ(λx)^{s−1} / Γ(s)` with *shape* `s` and *scale*
//! (rate) `λ`.

use super::ContinuousDist;
use crate::rng::{open01, Xoshiro256};
use crate::special::{gamma_p_lg, gamma_q_lg, ln_gamma, norm_quantile, norm_quantile_slice};

/// Gamma distribution with shape `s` and rate `λ` (mean `s/λ`).
///
/// Caches `lnΓ(s)` and `ln λ` when built: the density, the incomplete
/// gamma behind the cdf and every Newton step of the quantile read them
/// instead of recomputing them, with the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    rate: f64,
    /// `lnΓ(shape)`.
    ln_gamma_shape: f64,
    /// `ln(rate)`.
    ln_rate: f64,
}

impl Gamma {
    /// Creates a Gamma distribution. Panics unless both parameters are
    /// positive.
    pub fn new(shape: f64, rate: f64) -> Self {
        assert!(shape > 0.0, "Gamma requires shape > 0, got {shape}");
        assert!(rate > 0.0, "Gamma requires rate > 0, got {rate}");
        Gamma { shape, rate, ln_gamma_shape: ln_gamma(shape), ln_rate: rate.ln() }
    }

    /// Moment fit, "determined conveniently from the mean and variance"
    /// (paper §4.2): `s = μ²/σ²`, `λ = μ/σ²`.
    pub fn from_moments(mean: f64, std_dev: f64) -> Self {
        assert!(mean > 0.0 && std_dev > 0.0, "Gamma moments must be positive");
        let var = std_dev * std_dev;
        Gamma::new(mean * mean / var, mean / var)
    }

    /// Maximum-likelihood fit. Solves `ln s − ψ(s) = ln x̄ − ln‾x` by
    /// Newton iteration from the Minka starting point, then sets
    /// `λ = s/x̄`. Requires strictly positive data.
    pub fn fit_mle(xs: &[f64]) -> Self {
        assert!(xs.len() >= 2, "MLE fit needs at least 2 observations");
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let mean_log = xs
            .iter()
            .map(|&x| {
                assert!(x > 0.0, "Gamma MLE requires positive data, got {x}");
                x.ln()
            })
            .sum::<f64>()
            / n;
        let c = mean.ln() - mean_log; // always ≥ 0 by Jensen
        assert!(c > 0.0, "degenerate sample (all values equal)");
        // Minka's initialisation.
        let mut s = (3.0 - c + ((c - 3.0).powi(2) + 24.0 * c).sqrt()) / (12.0 * c);
        for _ in 0..50 {
            let f = s.ln() - crate::special::digamma(s) - c;
            // f'(s) = 1/s − ψ'(s); use the approximation ψ'(s) ≈ 1/s + 1/(2s²).
            let fp = 1.0 / s - (1.0 / s + 1.0 / (2.0 * s * s));
            let next = (s - f / fp).max(1e-9);
            if (next - s).abs() < 1e-12 * s {
                s = next;
                break;
            }
            s = next;
        }
        Gamma::new(s, s / mean)
    }

    /// Shape parameter `s`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Rate parameter `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Log-density, exposed for the Gamma/Pareto threshold matching.
    pub fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        self.ln_pdf_at(x, (self.rate * x).ln())
    }

    /// [`ln_pdf`](Self::ln_pdf) at `x > 0` given `ln_y = ln(λx)`.
    #[inline]
    fn ln_pdf_at(&self, x: f64, ln_y: f64) -> f64 {
        -self.rate * x + self.ln_rate + (self.shape - 1.0) * ln_y - self.ln_gamma_shape
    }

    /// `(cdf(x), pdf(x))` for the quantile's Newton step, sharing one
    /// `ln(λx)` between the two; the same bits as the two calls.
    #[inline]
    fn cdf_pdf(&self, x: f64) -> (f64, f64) {
        if x <= 0.0 {
            return (0.0, 0.0);
        }
        let y = self.rate * x;
        let ln_y = y.ln();
        (gamma_p_lg(self.shape, y, ln_y, self.ln_gamma_shape), self.ln_pdf_at(x, ln_y).exp())
    }

    /// A draw stream of this distribution that owns `rng`: the same
    /// values, in the same order, as a loop of [`sample`] calls on that
    /// generator, drawn a block of variates at a time.
    ///
    /// [`sample`]: ContinuousDist::sample
    pub fn draws(&self, rng: Xoshiro256) -> GammaDraws {
        GammaDraws::new(self, rng)
    }
}

impl ContinuousDist for Gamma {
    fn name(&self) -> &'static str {
        "Gamma"
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.ln_pdf(x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            let y = self.rate * x;
            gamma_p_lg(self.shape, y, y.ln(), self.ln_gamma_shape)
        }
    }

    fn ccdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            let y = self.rate * x;
            gamma_q_lg(self.shape, y, y.ln(), self.ln_gamma_shape)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        // Starting point: Wilson–Hilferty normal approximation, replaced by
        // the small-x asymptotic F(x) ≈ (λx)^s / (s Γ(s)) when it degrades
        // (small shape and/or deep left tail). Then bracketed Newton on the
        // CDF with bisection fallback.
        let s = self.shape;
        let z = norm_quantile(p);
        let c = 1.0 - 1.0 / (9.0 * s) + z / (3.0 * s.sqrt());
        let mut x = if c > 0.2 {
            s * c * c * c / self.rate
        } else {
            // Invert the leading term of the lower-tail series.
            ((p.ln() + ln_gamma(s + 1.0)) / s).exp() / self.rate
        };
        if !x.is_finite() || x <= 0.0 {
            x = s / self.rate;
        }

        let mut lo = 0.0f64;
        let mut hi = f64::INFINITY;
        for _ in 0..128 {
            let (cdf, d) = self.cdf_pdf(x);
            let f = cdf - p;
            if f > 0.0 {
                hi = hi.min(x);
            } else {
                lo = lo.max(x);
            }
            let mut nx = if d > 0.0 { x - f / d } else { f64::NAN };
            if !nx.is_finite() || nx <= lo || nx >= hi {
                // Newton left the bracket: bisect (geometric mean when the
                // upper bound is still unbounded).
                nx = if hi.is_finite() { 0.5 * (lo + hi) } else { x * 2.0 };
            }
            if (nx - x).abs() <= 1e-14 * x.max(1e-300) {
                return nx;
            }
            x = nx;
        }
        x
    }

    fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    fn variance(&self) -> f64 {
        self.shape / (self.rate * self.rate)
    }

    /// Marsaglia–Tsang squeeze sampling — much faster than quantile
    /// inversion for the millions of slice-weight draws the trace
    /// generator makes (which go through [`GammaDraws`], the same
    /// sampler on a buffered generator).
    fn sample(&self, rng: &mut dyn rand::Rng) -> f64 {
        MarsagliaTsang::new(self).draw(&mut DynVariates(rng))
    }
}

/// The uniform and normal variates Marsaglia–Tsang reads, each one draw
/// of a single stream.
trait Variates {
    /// A uniform on (0, 1).
    fn uniform(&mut self) -> f64;
    /// A standard normal: `Φ⁻¹` of the next uniform.
    fn normal(&mut self) -> f64;
}

/// Variates drawn one call at a time from any generator.
struct DynVariates<'a>(&'a mut dyn rand::Rng);

impl Variates for DynVariates<'_> {
    fn uniform(&mut self) -> f64 {
        open01(self.0)
    }

    fn normal(&mut self) -> f64 {
        norm_quantile(open01(self.0))
    }
}

/// Marsaglia–Tsang for one [`Gamma`], its constants computed once.
#[derive(Debug, Clone, Copy)]
struct MarsagliaTsang {
    /// `1/s` when the shape boost applies (`s < 1`).
    boost_pow: Option<f64>,
    d: f64,
    c: f64,
    rate: f64,
}

impl MarsagliaTsang {
    fn new(g: &Gamma) -> Self {
        // Shape boost for s < 1: Gamma(s) = Gamma(s+1) · U^{1/s}.
        let (shape, boost_pow) =
            if g.shape < 1.0 { (g.shape + 1.0, Some(1.0 / g.shape)) } else { (g.shape, None) };
        let d = shape - 1.0 / 3.0;
        MarsagliaTsang { boost_pow, d, c: 1.0 / (9.0 * d).sqrt(), rate: g.rate }
    }

    #[inline(always)]
    fn draw(&self, vs: &mut impl Variates) -> f64 {
        let boost = match self.boost_pow {
            Some(pow) => vs.uniform().powf(pow),
            None => 1.0,
        };
        let d = self.d;
        loop {
            let x = vs.normal();
            let v = 1.0 + self.c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = vs.uniform();
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 || u.ln() < 0.5 * x2 + d * (1.0 - v3 + v3.ln()) {
                return d * v3 * boost / self.rate;
            }
        }
    }
}

/// Uniforms drawn a block at a time, each with its normal quantile:
/// [`Xoshiro256::fill_open01`] fills the block and
/// [`norm_quantile_slice`] transforms a copy, so a variate costs a
/// buffer read instead of a generator call through `dyn Rng` and a
/// scalar `Φ⁻¹`. Reading the `i`-th variate as a uniform or as a normal
/// gives what the `i`-th draw of the unbuffered generator would.
#[derive(Debug, Clone)]
struct BufferedVariates {
    rng: Xoshiro256,
    uniforms: Vec<f64>,
    normals: Vec<f64>,
    next: usize,
}

impl BufferedVariates {
    /// Variates per refill: two 8 KiB buffers stay in L1.
    const BLOCK: usize = 1024;

    /// The index of the next variate, refilling the block when it is
    /// used up.
    #[inline(always)]
    fn advance(&mut self) -> usize {
        if self.next == Self::BLOCK {
            self.refill();
        }
        self.next += 1;
        self.next - 1
    }

    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        self.rng.fill_open01(&mut self.uniforms);
        self.normals.copy_from_slice(&self.uniforms);
        norm_quantile_slice(&mut self.normals);
        self.next = 0;
    }
}

impl Variates for BufferedVariates {
    #[inline(always)]
    fn uniform(&mut self) -> f64 {
        let i = self.advance();
        self.uniforms[i]
    }

    #[inline(always)]
    fn normal(&mut self) -> f64 {
        let i = self.advance();
        self.normals[i]
    }
}

/// A stream of [`Gamma`] draws that owns its generator: the values
/// [`Gamma::sample`](ContinuousDist::sample) would return, called in a
/// loop on the same generator, in the same order — the same
/// Marsaglia–Tsang body (shape boost and the one-draw skip on `v ≤ 0`
/// included) reads its variates from a block-filled buffer.
///
/// The buffer draws ahead of the last value returned. Because the
/// stream owns the generator, that over-draw cannot be observed: there
/// is no generator to hand back. Built by [`Gamma::draws`].
#[derive(Debug, Clone)]
pub struct GammaDraws {
    sampler: MarsagliaTsang,
    variates: BufferedVariates,
}

impl GammaDraws {
    fn new(gamma: &Gamma, rng: Xoshiro256) -> Self {
        let block = BufferedVariates::BLOCK;
        GammaDraws {
            sampler: MarsagliaTsang::new(gamma),
            variates: BufferedVariates {
                rng,
                uniforms: vec![0.0; block],
                normals: vec![0.0; block],
                next: block,
            },
        }
    }

    /// The next draw.
    #[inline]
    pub fn draw(&mut self) -> f64 {
        self.sampler.draw(&mut self.variates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::testutil;
    use crate::special::uncached;

    /// The density and quantile as written before `Gamma` cached
    /// `lnΓ(s)` and `ln λ`: both logs, and `ln(λx)` twice per Newton
    /// step, recomputed on every call.
    struct Uncached {
        shape: f64,
        rate: f64,
    }

    impl Uncached {
        fn cdf(&self, x: f64) -> f64 {
            if x <= 0.0 {
                0.0
            } else {
                uncached::gamma_p(self.shape, self.rate * x)
            }
        }

        fn pdf(&self, x: f64) -> f64 {
            if x <= 0.0 {
                return 0.0;
            }
            (-self.rate * x + self.rate.ln() + (self.shape - 1.0) * (self.rate * x).ln()
                - ln_gamma(self.shape))
            .exp()
        }

        fn quantile(&self, p: f64) -> f64 {
            if p == 0.0 {
                return 0.0;
            }
            if p == 1.0 {
                return f64::INFINITY;
            }
            let s = self.shape;
            let z = norm_quantile(p);
            let c = 1.0 - 1.0 / (9.0 * s) + z / (3.0 * s.sqrt());
            let mut x = if c > 0.2 {
                s * c * c * c / self.rate
            } else {
                ((p.ln() + ln_gamma(s + 1.0)) / s).exp() / self.rate
            };
            if !x.is_finite() || x <= 0.0 {
                x = s / self.rate;
            }
            let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
            for _ in 0..128 {
                let f = self.cdf(x) - p;
                if f > 0.0 {
                    hi = hi.min(x);
                } else {
                    lo = lo.max(x);
                }
                let d = self.pdf(x);
                let mut nx = if d > 0.0 { x - f / d } else { f64::NAN };
                if !nx.is_finite() || nx <= lo || nx >= hi {
                    nx = if hi.is_finite() { 0.5 * (lo + hi) } else { x * 2.0 };
                }
                if (nx - x).abs() <= 1e-14 * x.max(1e-300) {
                    return nx;
                }
                x = nx;
            }
            x
        }
    }

    #[test]
    fn cached_logs_give_the_uncached_bits() {
        for (shape, rate) in [(0.5, 1.0), (1.0, 1.0), (22.0, 1.0), (19.7, 5e-4)] {
            let g = Gamma::new(shape, rate);
            let u = Uncached { shape, rate };
            // λx from 0 to 4s: the series below s + 1, the continued
            // fraction above.
            for k in 0..=400 {
                let x = 4.0 * shape * k as f64 / 400.0 / rate;
                let tag = format!("s {shape}, x {x}");
                assert_eq!(g.cdf(x).to_bits(), u.cdf(x).to_bits(), "cdf, {tag}");
                let q = if x <= 0.0 { 1.0 } else { uncached::gamma_q(shape, rate * x) };
                assert_eq!(g.ccdf(x).to_bits(), q.to_bits(), "ccdf, {tag}");
                assert_eq!(g.pdf(x).to_bits(), u.pdf(x).to_bits(), "pdf, {tag}");
            }
            for p in [0.0, 1e-300, 1e-12, 1e-6, 0.01, 0.2, 0.5, 0.77, 0.99, 1.0 - 1e-9, 1.0] {
                assert_eq!(g.quantile(p).to_bits(), u.quantile(p).to_bits(), "s {shape}, p {p}");
            }
            for i in 1..1000 {
                let p = i as f64 / 1000.0;
                assert_eq!(g.quantile(p).to_bits(), u.quantile(p).to_bits(), "s {shape}, p {p}");
            }
        }
    }

    #[test]
    fn draw_stream_matches_a_sample_loop_across_refills() {
        // Shapes below 1 take the boost uniform first; at shape 0.05 the
        // boosted d is ~0.72, so ~0.6 % of normals give v <= 0 and take
        // the one-draw skip. 6000 draws use ~12 000 variates, about 12
        // refills of the buffer.
        for shape in [0.05, 0.5, 1.0, 2.5, 22.0] {
            let g = Gamma::new(shape, 0.7);
            let mut rng = Xoshiro256::seed_from_u64(61);
            let mut stream = g.draws(Xoshiro256::seed_from_u64(61));
            for i in 0..6000 {
                let want = g.sample(&mut rng);
                assert_eq!(stream.draw().to_bits(), want.to_bits(), "shape {shape}, draw {i}");
            }
        }
    }

    #[test]
    fn exponential_special_case() {
        // Gamma(1, λ) is Exponential(λ).
        let d = Gamma::new(1.0, 2.0);
        assert!((d.pdf(0.5) - 2.0 * (-1.0f64).exp()).abs() < 1e-12);
        assert!((d.cdf(1.0) - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn moment_fit_round_trips() {
        let d = Gamma::from_moments(27_791.0, 6_254.0);
        assert!((d.mean() - 27_791.0).abs() < 1e-6);
        assert!((d.variance().sqrt() - 6_254.0).abs() < 1e-6);
        // Paper-scale parameters: s ≈ 19.7.
        assert!((d.shape() - 19.747).abs() < 0.01, "shape {}", d.shape());
    }

    #[test]
    fn quantile_roundtrip_various_shapes() {
        for &(s, r) in &[(0.5, 1.0), (1.0, 0.3), (4.5, 2.0), (19.7, 0.0005)] {
            testutil::check_quantile_roundtrip(&Gamma::new(s, r), 1e-9);
        }
    }

    #[test]
    fn pdf_integrates() {
        testutil::check_pdf_integrates(&Gamma::new(3.0, 1.5), 1e-4);
    }

    #[test]
    fn sampling_moments() {
        testutil::check_sample_moments(&Gamma::new(2.5, 0.5), 100_000, 0.02);
    }

    #[test]
    fn median_of_shape_one() {
        // Exponential median = ln 2 / λ.
        let d = Gamma::new(1.0, 3.0);
        assert!((d.quantile(0.5) - 2.0f64.ln() / 3.0).abs() < 1e-10);
    }

    #[test]
    fn zero_below_support() {
        let d = Gamma::new(2.0, 1.0);
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.ccdf(-5.0), 1.0);
    }

    #[test]
    fn mle_recovers_parameters() {
        let truth = Gamma::new(3.5, 0.8);
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(31);
        let xs = crate::dist::sample_n(&truth, 100_000, &mut rng);
        let fit = Gamma::fit_mle(&xs);
        assert!((fit.shape() - 3.5).abs() < 0.08, "shape {}", fit.shape());
        assert!((fit.rate() - 0.8).abs() < 0.02, "rate {}", fit.rate());
    }

    #[test]
    fn mle_beats_moments_on_shape_for_skewed_samples() {
        // For small shapes the MLE is markedly more efficient.
        let truth = Gamma::new(0.7, 1.0);
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(32);
        let mut mle_err = 0.0;
        let mut mom_err = 0.0;
        for _ in 0..20 {
            let xs = crate::dist::sample_n(&truth, 2_000, &mut rng);
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let sd = (xs.iter().map(|&x| (x - mean).powi(2)).sum::<f64>()
                / xs.len() as f64)
                .sqrt();
            mle_err += (Gamma::fit_mle(&xs).shape() - 0.7).abs();
            mom_err += (Gamma::from_moments(mean, sd).shape() - 0.7).abs();
        }
        assert!(mle_err < mom_err, "MLE {mle_err} vs moments {mom_err}");
    }

    #[test]
    #[should_panic(expected = "positive data")]
    fn mle_rejects_nonpositive() {
        Gamma::fit_mle(&[1.0, -2.0, 3.0]);
    }

    #[test]
    fn extreme_probabilities() {
        let d = Gamma::new(19.7, 0.0005);
        let lo = d.quantile(1e-6);
        let hi = d.quantile(1.0 - 1e-6);
        assert!(lo > 0.0 && hi > lo);
        assert!((d.cdf(lo) - 1e-6).abs() < 1e-9);
        assert!((d.ccdf(hi) - 1e-6).abs() < 1e-9);
    }
}
