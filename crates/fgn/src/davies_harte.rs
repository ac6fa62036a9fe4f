//! Davies–Harte circulant-embedding generator for exact fractional
//! Gaussian noise in `O(n log n)`.
//!
//! This is the modern remedy for the `O(n²)` cost of Hosking's algorithm
//! that the paper calls out (10 hours for the 171 000-point realisation in
//! 1994): embed the fGn covariance in a circulant matrix, diagonalise it
//! with one FFT, and synthesise a Gaussian vector with exactly the target
//! covariance.

use crate::error::FgnError;
use vbr_fft::{fft_pow2_in_place, next_pow2, real_plan_for, Complex, Direction, RealFftPlan};
use vbr_stats::rng::Xoshiro256;

/// Relative tolerance below which a negative circulant eigenvalue is
/// attributed to FFT round-off and clamped to zero; anything more
/// negative means the embedding genuinely is not PSD.
const PSD_REL_TOL: f64 = 1e-9;

/// Eigenvalues of the circulant embedding of the autocovariances
/// `gamma[0..=half]` (first row `γ_0 … γ_half γ_{half−1} … γ_1`).
///
/// `gamma.len() − 1` must be half of a power of two (the radix-2 FFT
/// constraint); eigenvalues within round-off of zero are clamped, and a
/// genuinely negative spectrum is reported as [`FgnError::NonPsdEmbedding`].
pub fn circulant_spectrum(gamma: &[f64]) -> Result<Vec<f64>, FgnError> {
    let half = gamma.len().saturating_sub(1);
    let m = 2 * half;
    if half == 0 || m != next_pow2(m) {
        return Err(vbr_stats::error::NumericError::OutOfRange {
            what: "circulant acvf length (must be 2^k + 1)",
            value: gamma.len() as f64,
            lo: 2.0,
            hi: f64::INFINITY,
        }
        .into());
    }

    let mut row = Vec::with_capacity(m);
    row.extend_from_slice(gamma);
    for k in (1..half).rev() {
        row.push(gamma[k]);
    }
    debug_assert_eq!(row.len(), m);

    let mut eig: Vec<Complex> = row.into_iter().map(Complex::from_re).collect();
    fft_pow2_in_place(&mut eig, Direction::Forward);

    let max_eig = eig.iter().map(|z| z.re).fold(0.0f64, f64::max);
    let tol = PSD_REL_TOL * max_eig.max(f64::MIN_POSITIVE);
    let min_eig = eig.iter().map(|z| z.re).fold(f64::INFINITY, f64::min);
    if min_eig < -tol {
        return Err(FgnError::NonPsdEmbedding { min_eigenvalue: min_eig, n: half + 1 });
    }
    Ok(eig.into_iter().map(|z| z.re.max(0.0)).collect())
}

/// Exact fGn generator via circulant embedding.
#[derive(Debug, Clone)]
pub struct DaviesHarte {
    hurst: f64,
    variance: f64,
}

impl DaviesHarte {
    /// Creates a generator with Hurst parameter `H ∈ (0, 1)` and marginal
    /// variance `v₀`.
    pub fn new(hurst: f64, variance: f64) -> Self {
        assert!(
            hurst > 0.0 && hurst < 1.0,
            "Davies-Harte requires H in (0,1), got {hurst}"
        );
        assert!(variance > 0.0, "variance must be positive, got {variance}");
        DaviesHarte { hurst, variance }
    }

    /// Fallible [`new`](Self::new): rejects `H ∉ (0, 1)`, non-positive
    /// variance and NaN/infinite values with typed errors.
    pub fn try_new(hurst: f64, variance: f64) -> Result<Self, FgnError> {
        if !(hurst > 0.0 && hurst < 1.0) {
            return Err(FgnError::InvalidHurst { hurst, lo: 0.0, hi: 1.0 });
        }
        if !(variance > 0.0 && variance.is_finite()) {
            return Err(FgnError::InvalidVariance { variance });
        }
        Ok(DaviesHarte { hurst, variance })
    }

    /// The Hurst parameter.
    pub fn hurst(&self) -> f64 {
        self.hurst
    }

    /// Generates `n` points of zero-mean Gaussian fGn.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        self.generate_with(n, &mut rng)
    }

    /// Like [`generate`](Self::generate) with a caller-owned RNG.
    pub fn generate_with(&self, n: usize, rng: &mut Xoshiro256) -> Vec<f64> {
        // The fGn embedding is provably nonnegative-definite, so the only
        // possible failure is FFT round-off beyond the clamp tolerance.
        self.try_generate_with(n, rng)
            .unwrap_or_else(|e| panic!("Davies-Harte generation failed: {e}"))
    }

    /// Fallible [`generate_with`](Self::generate_with): reports a
    /// genuinely negative circulant spectrum as
    /// [`FgnError::NonPsdEmbedding`] instead of silently clamping it
    /// (round-off-sized negatives are still clamped, so valid inputs
    /// produce bit-identical output to the panicking path).
    pub fn try_generate_with(
        &self,
        n: usize,
        rng: &mut Xoshiro256,
    ) -> Result<Vec<f64>, FgnError> {
        let _span = vbr_stats::obs::span("fgn.davies_harte");
        if n == 0 {
            return Ok(Vec::new());
        }
        if n == 1 {
            return Ok(vec![rng.standard_normal() * self.variance.sqrt()]);
        }

        // Embed in a circulant of even size m ≥ 2(n−1), power of two for
        // the radix-2 kernel. The spectrum (ACVF build + eigenvalue FFT)
        // depends only on (H, m), so repeat generations hit the memo.
        let m = next_pow2(2 * (n - 1)).max(2);
        let lambda = crate::cache::fgn_circulant_spectrum_cached(self.hurst, m)?;
        Ok(synthesise_from_spectrum(&lambda, n, self.variance.sqrt(), rng))
    }

    /// Generates `n` points of a zero-mean Gaussian series with the
    /// arbitrary stationary autocovariance `gamma[0..=half]` (lag 0 first),
    /// where `gamma.len() − 1` must be half of a power of two and
    /// `n ≤ gamma.len()`. This is the raw circulant-embedding engine: it
    /// fails with [`FgnError::NonPsdEmbedding`] when the requested
    /// covariance cannot be embedded — the failure mode the robust
    /// generator falls back from.
    pub fn try_generate_from_acvf(
        gamma: &[f64],
        n: usize,
        rng: &mut Xoshiro256,
    ) -> Result<Vec<f64>, FgnError> {
        let _span = vbr_stats::obs::span("fgn.davies_harte");
        if n > gamma.len() {
            return Err(vbr_stats::error::NumericError::OutOfRange {
                what: "requested length (exceeds provided acvf lags)",
                value: n as f64,
                lo: 0.0,
                hi: gamma.len() as f64,
            }
            .into());
        }
        Ok(synthesise_from_spectrum(&circulant_spectrum(gamma)?, n, 1.0, rng))
    }
}

/// Draws a Gaussian vector whose circulant covariance has eigenvalues
/// `lambda`, returning the first `n ≤ m/2 + 1` points scaled by `sd`
/// (the exact part of one circulant realisation; see [`SynthScratch`]).
pub(crate) fn synthesise_from_spectrum(
    lambda: &[f64],
    n: usize,
    sd: f64,
    rng: &mut Xoshiro256,
) -> Vec<f64> {
    let m = lambda.len();
    let mut scratch = SynthScratch::default();
    scratch.draw(m, rng);
    scratch.transform(&SpectrumScales::new(lambda), &real_plan_for(m));
    (0..n).map(|t| scratch.sample(t) * sd).collect()
}

/// Precomputed per-bin amplitudes of the circulant half-spectrum draw:
/// `s0 = √(λ₀/m)`, `sh = √(λ_{m/2}/m)` and `sk[k−1] = √(λ_k/2m)` for the
/// conjugate pairs `k = 1..m/2`.
///
/// These are exactly the expressions the synthesis core used to evaluate
/// per window; hoisting them to construction time removes `m/2 + 1`
/// divisions and square roots from every refill without changing a bit
/// of output (the stored values are the same f64s the inline expressions
/// produced).
#[derive(Debug, Clone)]
pub(crate) struct SpectrumScales {
    m: usize,
    s0: f64,
    sh: f64,
    sk: Vec<f64>,
}

impl SpectrumScales {
    /// Builds the amplitude table for eigenvalues `lambda` (length `m`).
    pub(crate) fn new(lambda: &[f64]) -> Self {
        let m = lambda.len();
        let half = m / 2;
        let mf = m as f64;
        SpectrumScales {
            m,
            s0: (lambda[0] / mf).sqrt(),
            sh: (lambda[half] / mf).sqrt(),
            sk: (1..half).map(|k| (lambda[k] / (2.0 * mf)).sqrt()).collect(),
        }
    }

    /// Circulant length `m` the table was built for.
    pub(crate) fn m(&self) -> usize {
        self.m
    }
}

/// Workspace of one circulant window of the real synthesis core, in
/// two steps: [`draw`](Self::draw) takes the window's normals from the
/// RNG, [`transform`](Self::transform) turns them into the window.
/// Neither step touches anything but this workspace, the RNG it is
/// given, the amplitudes and the plan, so a stream can transform its
/// next window on another thread while it consumes the current one.
///
/// RNG draw order (DC, Nyquist, then conjugate pairs `k = 1..m/2`) is a
/// compatibility contract: the block-streaming generator relies on it to
/// stay bit-identical to the batch path on shared-seed prefixes. The
/// `m` normals are the batch quantile kernel over the `m` uniforms
/// ([`Xoshiro256::fill_standard_normal`] split in its two halves): one
/// u64 per variate in the contract order, so the sequence is
/// bit-identical to per-sample draws.
///
/// Only one complex buffer is ever materialised: the scaled
/// half-spectrum `W[0..=m/2]` (the upper half is its conjugate mirror by
/// construction) folds straight into the `m/2`-point buffer of
/// [`vbr_fft::RealFftPlan::synthesize_hermitian_packed`], which is
/// transformed in place and read out as the window. A window thus holds
/// `m` f64 draws plus `m/2` complex values, allocated once and reused.
#[derive(Debug, Clone, Default)]
pub(crate) struct SynthScratch {
    /// The window's `m` standard normals.
    gauss: Vec<f64>,
    /// Length-`m/2` FFT buffer; after `transform`, sample `2t` of the
    /// window is `fft[t].re` and sample `2t + 1` is `fft[t].im`.
    fft: Vec<Complex>,
}

impl SynthScratch {
    /// Sizes both buffers for circulant length `m`; after this,
    /// [`draw`](Self::draw) and [`transform`](Self::transform) at the
    /// same `m` allocate nothing.
    pub(crate) fn size(&mut self, m: usize) {
        if self.gauss.len() != m {
            self.gauss.clear();
            self.gauss.resize(m, 0.0);
            self.fft.clear();
            self.fft.resize(m / 2, Complex::ZERO);
        }
    }

    /// Draws the `m` standard normals of the next window from `rng`:
    /// uniforms in contract order, then their normal quantiles.
    pub(crate) fn draw(&mut self, m: usize, rng: &mut Xoshiro256) {
        self.size(m);
        rng.fill_open01(&mut self.gauss);
        vbr_stats::special::norm_quantile_slice(&mut self.gauss);
    }

    /// Synthesises the drawn window at unit scale (the caller applies
    /// `sd`): per-bin amplitudes (`E|W_k|² = λ_k/m`, implicitly Hermitian
    /// so the FFT comes out real with the target covariance) and one
    /// half-length FFT. Samples `t < m/2 + 1` are an exact sample of the
    /// target stationary process. Allocates nothing.
    pub(crate) fn transform(&mut self, scales: &SpectrumScales, plan: &RealFftPlan) {
        debug_assert_eq!(self.gauss.len(), scales.m);
        let g = &self.gauss;
        plan.synthesize_hermitian_packed(
            scales.s0 * g[0],
            scales.sh * g[1],
            |k| {
                let scale = scales.sk[k - 1];
                Complex::new(scale * g[2 * k], scale * g[2 * k + 1])
            },
            &mut self.fft,
        );
    }

    /// Sample `t` of the transformed window.
    #[inline(always)]
    pub(crate) fn sample(&self, t: usize) -> f64 {
        let z = &self.fft[t / 2];
        if t.is_multiple_of(2) {
            z.re
        } else {
            z.im
        }
    }
}

/// Reusable workspace of the lane-parallel synthesis core: the
/// lane-interleaved half-spectrum and FFT scratch shared by all `l`
/// windows of a batch, plus the row-major normal-draw buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneSynthScratch {
    /// Lane-interleaved half-spectra: bin `k` of window `v` at `[k*l + v]`.
    half: Vec<Complex>,
    /// Lane-interleaved workspace of the half-length complex FFT.
    fft: Vec<Complex>,
    /// Row-major normal draws: window `v`'s `m` contract-order draws at
    /// `[v*m .. (v+1)*m]`.
    pub(crate) gauss: Vec<f64>,
}

impl LaneSynthScratch {
    /// Resizes the gauss buffer for `l` rows of `m` draws each and
    /// returns it for the caller to fill (one row per cohort source,
    /// each from that source's own RNG).
    pub(crate) fn gauss_rows(&mut self, m: usize, l: usize) -> &mut [f64] {
        if self.gauss.len() != m * l {
            self.gauss.clear();
            self.gauss.resize(m * l, 0.0);
        }
        &mut self.gauss
    }
}

/// Lane-parallel synthesis core: `l` circulant windows synthesised at
/// once, one per lane, from `l` rows of pre-drawn normals
/// (`scratch.gauss[v*m .. (v+1)*m]` holds window `v`'s draws in the
/// contract order). `out` is lane-interleaved: sample `t` of window `v`
/// at `out[t*l + v]`.
///
/// Per lane this evaluates exactly the expressions of
/// [`SynthScratch::transform`] — the same precomputed amplitudes against
/// the same draws, then the lane FFT whose per-lane bit-identity is
/// proven in `vbr-fft` — so window `v`'s samples are bit-identical to a
/// scalar synthesis from the same draws. That equivalence is what lets
/// the fleet's lane cohorts batch `l = LANES` windows without
/// moving a bit.
pub(crate) fn synthesise_real_lanes_into(
    scales: &SpectrumScales,
    plan: &RealFftPlan,
    l: usize,
    scratch: &mut LaneSynthScratch,
    out: &mut Vec<f64>,
) {
    let m = scales.m;
    let half = m / 2;
    debug_assert_eq!(scratch.gauss.len(), m * l);
    if scratch.half.len() != (half + 1) * l {
        scratch.half.clear();
        scratch.half.resize((half + 1) * l, Complex::ZERO);
    }
    for v in 0..l {
        let row = &scratch.gauss[v * m..(v + 1) * m];
        scratch.half[v] = Complex::from_re(scales.s0 * row[0]);
        scratch.half[half * l + v] = Complex::from_re(scales.sh * row[1]);
    }
    for k in 1..half {
        let scale = scales.sk[k - 1];
        for v in 0..l {
            let row = &scratch.gauss[v * m..(v + 1) * m];
            scratch.half[k * l + v] =
                Complex::new(scale * row[2 * k], scale * row[2 * k + 1]);
        }
    }
    plan.synthesize_hermitian_lanes(&scratch.half, out, &mut scratch.fft, l);
}

/// Fractional Brownian motion path: the cumulative sum of fGn,
/// `B_H(k) = Σ_{i≤k} X_i` — the storage/workload process of the
/// Norros fluid model (`vbr-qsim::analytic`).
pub fn fbm_path(fgn: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    fgn.iter()
        .map(|&x| {
            acc += x;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acvf::fgn_acvf;
    use vbr_stats::acf::autocorrelation;

    #[test]
    fn deterministic_given_seed() {
        let g = DaviesHarte::new(0.8, 1.0);
        assert_eq!(g.generate(500, 42), g.generate(500, 42));
        assert_ne!(g.generate(500, 42), g.generate(500, 43));
    }

    #[test]
    fn h_half_is_white_noise() {
        let g = DaviesHarte::new(0.5, 1.0);
        let x = g.generate(40_000, 1);
        let r = autocorrelation(&x, 5);
        for &v in &r[1..] {
            assert!(v.abs() < 0.02, "white-noise ACF should vanish, got {v}");
        }
    }

    #[test]
    fn sample_acf_matches_fgn_theory() {
        let h = 0.8;
        let g = DaviesHarte::new(h, 1.0);
        let x = g.generate(65_536, 2);
        let r = autocorrelation(&x, 20);
        let want = fgn_acvf(h, 20);
        for k in 1..=20 {
            assert!(
                (r[k] - want[k]).abs() < 0.05,
                "lag {k}: sample {} vs theory {}",
                r[k],
                want[k]
            );
        }
    }

    #[test]
    fn mean_zero_and_target_variance() {
        let g = DaviesHarte::new(0.75, 9.0);
        let x = g.generate(65_536, 3);
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / x.len() as f64;
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!((var - 9.0).abs() < 1.2, "var {var}");
    }

    #[test]
    fn antipersistent_case_works_too() {
        let g = DaviesHarte::new(0.3, 1.0);
        let x = g.generate(30_000, 4);
        let r = autocorrelation(&x, 1);
        // fGn with H = 0.3 has γ_1 = 2^{2H−1} − 1 ≈ −0.2422.
        assert!((r[1] + 0.2422).abs() < 0.03, "r(1) = {}", r[1]);
    }

    #[test]
    fn long_generation_is_fast_and_correct_length() {
        let g = DaviesHarte::new(0.8, 1.0);
        let x = g.generate(171_000, 5);
        assert_eq!(x.len(), 171_000);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fbm_path_is_cumsum_and_self_similar() {
        let h = 0.8;
        let fgn = DaviesHarte::new(h, 1.0).generate(65_536, 21);
        let path = fbm_path(&fgn);
        assert_eq!(path.len(), fgn.len());
        assert!((path[0] - fgn[0]).abs() < 1e-12);
        assert!((path[9] - fgn[..10].iter().sum::<f64>()).abs() < 1e-9);
        // Self-similarity: Var[B(2t)] / Var[B(t)] = 2^{2H} across fresh
        // realisations — check via increments over disjoint blocks.
        let var_at = |span: usize| {
            let incs: Vec<f64> = path
                .chunks_exact(span)
                .map(|c| c.last().unwrap() - c.first().unwrap())
                .collect();
            let m = incs.iter().sum::<f64>() / incs.len() as f64;
            incs.iter().map(|v| (v - m).powi(2)).sum::<f64>() / incs.len() as f64
        };
        let ratio = var_at(2_048) / var_at(1_024);
        let want = 2f64.powf(2.0 * h);
        assert!(
            (ratio / want - 1.0).abs() < 0.45,
            "variance ratio {ratio} vs 2^2H = {want}"
        );
    }

    #[test]
    fn small_n_edge_cases() {
        let g = DaviesHarte::new(0.8, 1.0);
        assert!(g.generate(0, 1).is_empty());
        assert_eq!(g.generate(1, 1).len(), 1);
        assert_eq!(g.generate(2, 1).len(), 2);
        assert_eq!(g.generate(3, 1).len(), 3);
    }
}
