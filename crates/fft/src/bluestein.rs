//! Bluestein's chirp-z algorithm: FFT of *arbitrary* length via a
//! power-of-two convolution.
//!
//! The DFT is rewritten as a convolution
//! `X_k = b*_k Σ_j (x_j b*_j) b_{k-j}` with the chirp
//! `b_j = e^{iπ j²/n}`, which is evaluated with zero-padded radix-2 FFTs.
//!
//! The chirp table and the forward transform of the convolution kernel
//! depend only on `(n, direction)`, so a [`BluesteinPlan`] precomputes
//! both once and [`bluestein_plan_for`] memoizes plans globally — the
//! periodogram pipeline transforms the same non-power-of-two trace
//! length thousands of times. With a caller-reused scratch buffer
//! ([`BluesteinPlan::process_into`]) repeat transforms allocate nothing.

use crate::complex::Complex;
use crate::memo::Memo;
use crate::plan::{plan_for, FftPlan};
use crate::radix2::{fft_pow2_in_place, is_pow2, next_pow2, Direction};
use std::sync::Arc;

/// A reusable chirp-z execution plan for one `(length, direction)` pair.
#[derive(Debug, Clone)]
pub struct BluesteinPlan {
    n: usize,
    conv_len: usize,
    /// Chirp `b_j = exp(sign·iπ j²/n)` for `j in 0..n`.
    chirp: Vec<Complex>,
    /// Forward FFT of the wrapped conjugate-chirp kernel (length
    /// `conv_len`).
    kernel_fft: Vec<Complex>,
    /// The radix-2 plan for the padded convolution length.
    conv_plan: Arc<FftPlan>,
}

impl BluesteinPlan {
    /// Builds a plan for transforms of length `n ≥ 2` in direction `dir`.
    pub fn new(n: usize, dir: Direction) -> BluesteinPlan {
        assert!(n >= 2, "Bluestein plans require length >= 2, got {n}");
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };

        // Chirp b_j = exp(sign * iπ j² / n). Compute j² mod 2n to keep the
        // angle argument small (j² overflows f64 precision for large j).
        let m2 = 2 * n as u64;
        let chirp: Vec<Complex> = (0..n as u64)
            .map(|j| {
                let jsq = (j * j) % m2;
                Complex::cis(sign * std::f64::consts::PI * jsq as f64 / n as f64)
            })
            .collect();

        let conv_len = next_pow2(2 * n - 1);
        let conv_plan = plan_for(conv_len);

        // b kernel: b*_j at positions j and conv_len - j (wrap-around),
        // transformed once here instead of on every call.
        let mut kernel_fft = vec![Complex::ZERO; conv_len];
        kernel_fft[0] = chirp[0].conj();
        for j in 1..n {
            let c = chirp[j].conj();
            kernel_fft[j] = c;
            kernel_fft[conv_len - j] = c;
        }
        conv_plan.forward(&mut kernel_fft);

        BluesteinPlan { n, conv_len, chirp, kernel_fft, conv_plan }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for a degenerate zero-length plan (never built by
    /// [`BluesteinPlan::new`], which requires `n ≥ 2`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Transforms `input` into `out` using `scratch` as the padded
    /// convolution buffer. Both vectors are resized in place, so callers
    /// that reuse them across calls allocate nothing after the first.
    pub fn process_into(
        &self,
        input: &[Complex],
        out: &mut Vec<Complex>,
        scratch: &mut Vec<Complex>,
    ) {
        self.convolve_stage(input, scratch);
        out.clear();
        out.extend((0..self.n).map(|k| self.dechirp(scratch, k)));
    }

    /// In-place transform: `buf` holds the input and receives the output
    /// (`buf.len()` must equal the plan length). Zero allocation once
    /// `scratch` has reached the padded convolution length.
    pub fn process_in_place(&self, buf: &mut [Complex], scratch: &mut Vec<Complex>) {
        self.convolve_stage(buf, scratch);
        for (k, b) in buf.iter_mut().enumerate() {
            *b = self.dechirp(scratch, k);
        }
    }

    /// Chirp-modulates `input` into `scratch` (zero-padded) and runs the
    /// circular convolution with the precomputed kernel.
    fn convolve_stage(&self, input: &[Complex], scratch: &mut Vec<Complex>) {
        assert_eq!(input.len(), self.n, "plan is for length {}, got {}", self.n, input.len());
        scratch.clear();
        scratch.resize(self.conv_len, Complex::ZERO);
        for (s, (&x, &c)) in scratch.iter_mut().zip(input.iter().zip(&self.chirp)) {
            *s = x * c;
        }
        self.conv_plan.forward(scratch);
        for (x, y) in scratch.iter_mut().zip(&self.kernel_fft) {
            *x *= *y;
        }
        self.conv_plan.inverse(scratch);
    }

    /// Output bin `k` from the convolved scratch buffer.
    #[inline]
    fn dechirp(&self, scratch: &[Complex], k: usize) -> Complex {
        (scratch[k] * self.chirp[k]).scale(1.0 / self.conv_len as f64)
    }
}

/// Bounded global cache of Bluestein plans, keyed by `(n, direction)`.
/// A plan holds the `n`-point chirp (16 bytes/point) and the kernel FFT
/// of `next_pow2(2n − 1)` points, so 48–80 bytes per input point: 10.6
/// MiB at n = 171 000. The bound keeps the cache modest even for large
/// non-power-of-two trace lengths.
const MAX_CACHED_PLANS: usize = 16;

static PLANS: Memo<(usize, bool), BluesteinPlan> = Memo::new(MAX_CACHED_PLANS, |_| {});

/// Returns the shared chirp-z plan for `(n, dir)`, building and caching
/// it on first use (same discipline as [`crate::plan::plan_for`]).
pub fn bluestein_plan_for(n: usize, dir: Direction) -> Arc<BluesteinPlan> {
    PLANS.get_or_build((n, dir == Direction::Forward), || BluesteinPlan::new(n, dir))
}

/// FFT of arbitrary length (in place semantics via owned return).
///
/// Dispatches to the radix-2 kernel for power-of-two lengths and to
/// Bluestein's algorithm otherwise.
pub fn fft_any(input: &[Complex], dir: Direction) -> Vec<Complex> {
    let n = input.len();
    if n <= 1 {
        return input.to_vec();
    }
    if is_pow2(n) {
        let mut buf = input.to_vec();
        fft_pow2_in_place(&mut buf, dir);
        return buf;
    }
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    bluestein_plan_for(n, dir).process_into(input, &mut out, &mut scratch);
    out
}

/// In-place-style [`fft_any`]: transforms the contents of `buf`, using
/// `scratch` only for non-power-of-two lengths. With a reused `scratch`
/// the power-of-two path allocates nothing and the Bluestein path only
/// grows the scratch buffer once per size.
pub fn fft_any_in_place(buf: &mut [Complex], scratch: &mut Vec<Complex>, dir: Direction) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    if is_pow2(n) {
        fft_pow2_in_place(buf, dir);
        return;
    }
    bluestein_plan_for(n, dir).process_in_place(buf, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex], dir: Direction) -> Vec<Complex> {
        let n = x.len();
        let sign = if dir == Direction::Forward { -1.0 } else { 1.0 };
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let ang = sign * 2.0 * std::f64::consts::PI * (j as f64) * (k as f64)
                        / n as f64;
                    acc += v * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_for_awkward_sizes() {
        for &n in &[3usize, 5, 6, 7, 12, 17, 30, 97, 100] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin(), (2.0 * i as f64).cos()))
                .collect();
            let got = fft_any(&x, Direction::Forward);
            let want = naive_dft(&x, Direction::Forward);
            for (g, w) in got.iter().zip(&want) {
                assert!((*g - *w).abs() < 1e-8, "n={n}: {g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn inverse_round_trip_odd_length() {
        let n = 101;
        let x: Vec<Complex> = (0..n).map(|i| Complex::from_re(i as f64)).collect();
        let y = fft_any(&x, Direction::Forward);
        let z = fft_any(&y, Direction::Inverse);
        for (orig, got) in x.iter().zip(&z) {
            assert!((*orig - got.scale(1.0 / n as f64)).abs() < 1e-8);
        }
    }

    #[test]
    fn large_prime_stays_accurate() {
        // j² naive angle computation loses precision around n ~ 1e5;
        // the mod-2n trick must keep the error tiny.
        let n = 10_007; // prime
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::from_re(((i * 37) % 101) as f64 / 101.0))
            .collect();
        let y = fft_any(&x, Direction::Forward);
        // Parseval: Σ|x|² = (1/n) Σ|X|².
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() / ex < 1e-9, "{ex} vs {ey}");
    }

    #[test]
    fn length_one_is_identity() {
        let x = vec![Complex::new(2.0, 3.0)];
        assert_eq!(fft_any(&x, Direction::Forward), x);
    }

    #[test]
    fn plan_reuse_matches_one_shot() {
        let n = 137;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.3).cos(), (i as f64 * 0.11).sin()))
            .collect();
        let want = fft_any(&x, Direction::Forward);
        let plan = bluestein_plan_for(n, Direction::Forward);
        let again = bluestein_plan_for(n, Direction::Forward);
        assert!(Arc::ptr_eq(&plan, &again));
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            plan.process_into(&x, &mut out, &mut scratch);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn in_place_any_matches_owned_for_both_branches() {
        let mut scratch = Vec::new();
        for &n in &[64usize, 100] {
            let x: Vec<Complex> =
                (0..n).map(|i| Complex::new(i as f64, -(i as f64) * 0.5)).collect();
            let want = fft_any(&x, Direction::Forward);
            let mut buf = x.clone();
            fft_any_in_place(&mut buf, &mut scratch, Direction::Forward);
            assert_eq!(buf, want, "n={n}");
        }
    }

    #[test]
    fn full_cache_keeps_the_most_recently_used_plan() {
        // Fill the 16-slot cache, touch the first size, then admit a
        // 17th: eviction must drop a cold size, never the one just used.
        bluestein_plan_for(1000, Direction::Forward);
        for n in 1001..1016 {
            bluestein_plan_for(n, Direction::Forward);
        }
        let hot = bluestein_plan_for(1000, Direction::Forward);
        bluestein_plan_for(1016, Direction::Forward);
        assert!(Arc::ptr_eq(&hot, &bluestein_plan_for(1000, Direction::Forward)));
    }
}
