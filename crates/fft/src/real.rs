//! Transforms of real-valued signals.
//!
//! The analysis code in this workspace (periodograms, FFT-based
//! autocorrelation, circulant embedding) always starts from real `f64`
//! series. Two layers live here:
//!
//! - The original conveniences ([`fft_real`], [`ifft_real`],
//!   [`power_spectrum`]) widen the signal to complex and run the general
//!   kernels — any length, including odd ones through Bluestein.
//! - [`RealFftPlan`] is the half-size-complex fast path for even
//!   power-of-two lengths: a length-`n` real transform runs as **one**
//!   length-`n/2` complex FFT plus an `O(n)` twiddle pass, roughly
//!   halving the work of the widen-to-complex route. Because a real
//!   signal's spectrum is Hermitian (`X[n−k] = conj(X[k])`), only the
//!   half-spectrum `X[0..=n/2]` is ever materialised — which also halves
//!   the workspace. The synthesis direction
//!   ([`RealFftPlan::synthesize_hermitian`], or
//!   [`RealFftPlan::synthesize_hermitian_packed`] for bins computed on
//!   the fly) is the single hottest operation of the Davies–Harte
//!   streaming pipeline: every circulant window is the forward FFT of a
//!   Hermitian vector, and the plan turns that into a half-length
//!   complex FFT over the half-spectrum alone.

use crate::bluestein::fft_any_in_place;
use crate::complex::Complex;
use crate::memo::{Memo, MemoEvent};
use crate::plan::{plan_for, FftPlan, PLAN_EVENTS};
use crate::radix2::{is_pow2, Direction};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Forward DFT of a real signal. Returns all `n` complex bins
/// (the upper half is the conjugate mirror of the lower half).
///
/// One output allocation per call; see [`fft_real_into`] for the
/// scratch-reusing variant.
pub fn fft_real(signal: &[f64]) -> Vec<Complex> {
    let mut spectrum = Vec::new();
    let mut scratch = Vec::new();
    fft_real_into(signal, &mut spectrum, &mut scratch);
    spectrum
}

/// [`fft_real`] into caller-owned buffers: `spectrum` receives the `n`
/// complex bins, `scratch` is working space for non-power-of-two lengths.
/// Both are resized in place, so repeat calls at one length allocate
/// nothing.
pub fn fft_real_into(signal: &[f64], spectrum: &mut Vec<Complex>, scratch: &mut Vec<Complex>) {
    spectrum.clear();
    spectrum.extend(signal.iter().map(|&v| Complex::from_re(v)));
    fft_any_in_place(spectrum, scratch, Direction::Forward);
}

/// Inverse DFT returning only the real parts, normalised by `1/n`.
///
/// Intended for spectra known to correspond to real signals; any residual
/// imaginary part (numerical noise) is discarded.
pub fn ifft_real(spectrum: &[Complex]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut scratch = (Vec::new(), Vec::new());
    ifft_real_into(spectrum, &mut out, &mut scratch.0, &mut scratch.1);
    out
}

/// [`ifft_real`] into caller-owned buffers (`complex_scratch` holds the
/// transform, `scratch` is extra working space for non-power-of-two
/// lengths). Zero allocation once the buffers have grown to size.
pub fn ifft_real_into(
    spectrum: &[Complex],
    out: &mut Vec<f64>,
    complex_scratch: &mut Vec<Complex>,
    scratch: &mut Vec<Complex>,
) {
    out.clear();
    let n = spectrum.len();
    if n == 0 {
        return;
    }
    complex_scratch.clear();
    complex_scratch.extend_from_slice(spectrum);
    fft_any_in_place(complex_scratch, scratch, Direction::Inverse);
    out.extend(complex_scratch.iter().map(|z| z.re / n as f64));
}

/// Power spectrum `|X_k|²` of a real signal (all `n` bins, unnormalised).
pub fn power_spectrum(signal: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut scratch = (Vec::new(), Vec::new());
    power_spectrum_into(signal, &mut out, &mut scratch.0, &mut scratch.1);
    out
}

/// [`power_spectrum`] into caller-owned buffers; zero allocation once
/// the buffers have grown to size.
pub fn power_spectrum_into(
    signal: &[f64],
    out: &mut Vec<f64>,
    complex_scratch: &mut Vec<Complex>,
    scratch: &mut Vec<Complex>,
) {
    fft_real_into(signal, complex_scratch, scratch);
    out.clear();
    out.extend(complex_scratch.iter().map(|z| z.norm_sqr()));
}

/// Half-size-complex transform plan for real signals of one fixed even
/// power-of-two length `n`.
///
/// Both directions route through one length-`n/2` complex FFT:
///
/// - **Forward** ([`forward`](Self::forward)): pack
///   `z[t] = x[2t] + i·x[2t+1]`, transform, then untwist the packed
///   spectrum into the half-spectrum `X[0..=n/2]` with the cached
///   `ω^k = e^{−2πik/n}` table.
/// - **Synthesis** ([`synthesize_hermitian`](Self::synthesize_hermitian)):
///   given a Hermitian half-spectrum `W[0..=n/2]` (DC and Nyquist real),
///   produce the real forward FFT `x[t] = Σ_k W[k]·e^{−2πikt/n}` by
///   twisting the half-spectrum into one length-`n/2` complex vector
///   whose transform carries the even output samples in its real lanes
///   and the odd ones in its imaginary lanes.
/// - **Inverse** ([`inverse`](Self::inverse)): synthesis of the
///   conjugated half-spectrum, scaled by `1/n`.
///
/// Every arithmetic order is fixed in source (the untwist loops are
/// per-element), so outputs are bit-identical across hosts and compile
/// flags, like every kernel in this workspace.
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    pub(crate) n: usize,
    /// The length-`n/2` complex plan both directions execute.
    pub(crate) half_plan: Arc<FftPlan>,
    /// `ω^k = e^{−2πik/n}` for `k = 0..n/2`, split re/im, evaluated
    /// directly from `sin_cos` (one-ulp worst case, like [`FftPlan`]).
    pub(crate) tw_re: Vec<f64>,
    pub(crate) tw_im: Vec<f64>,
}

impl RealFftPlan {
    /// Builds a plan for real transforms of length `n`, which must be an
    /// even power of two (`n ≥ 2`).
    pub fn new(n: usize) -> RealFftPlan {
        assert!(
            is_pow2(n) && n >= 2,
            "real FFT plans require an even power-of-two length >= 2, got {n}"
        );
        let half = n / 2;
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let mut tw_re = Vec::with_capacity(half);
        let mut tw_im = Vec::with_capacity(half);
        for k in 0..half {
            let (s, c) = (step * k as f64).sin_cos();
            tw_re.push(c);
            tw_im.push(s);
        }
        RealFftPlan { n, half_plan: plan_for(half), tw_re, tw_im }
    }

    /// The real transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a degenerate zero-length plan (never constructed by
    /// [`RealFftPlan::new`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward DFT of the length-`n` real `signal` into the
    /// half-spectrum `spectrum[0..=n/2]` (`n/2 + 1` bins; the upper half
    /// of the full spectrum is its conjugate mirror). `scratch` holds the
    /// packed length-`n/2` complex workspace; both buffers are resized in
    /// place, so repeat calls allocate nothing.
    pub fn forward(
        &self,
        signal: &[f64],
        spectrum: &mut Vec<Complex>,
        scratch: &mut Vec<Complex>,
    ) {
        let n = self.n;
        let half = n / 2;
        assert_eq!(signal.len(), n, "plan is for length {n}, got {}", signal.len());
        scratch.clear();
        scratch.extend(
            signal.chunks_exact(2).map(|p| Complex::new(p[0], p[1])),
        );
        self.half_plan.forward(scratch);
        spectrum.clear();
        spectrum.resize(half + 1, Complex::ZERO);
        // Untwist: X[k] = (Y[k] + conj(Y[h−k]))/2 − (i/2)·ω^k·(Y[k] − conj(Y[h−k])),
        // with Y[h] ≡ Y[0]. DC and Nyquist come out exactly real.
        spectrum[0] = Complex::from_re(scratch[0].re + scratch[0].im);
        spectrum[half] = Complex::from_re(scratch[0].re - scratch[0].im);
        for k in 1..half {
            let y = scratch[k];
            let ym = scratch[half - k].conj();
            let s = Complex::new((y.re + ym.re) * 0.5, (y.im + ym.im) * 0.5);
            let d = Complex::new((y.re - ym.re) * 0.5, (y.im - ym.im) * 0.5);
            // −i·ω^k·d, in split form.
            let wd_re = d.re * self.tw_re[k] - d.im * self.tw_im[k];
            let wd_im = d.re * self.tw_im[k] + d.im * self.tw_re[k];
            spectrum[k] = Complex::new(s.re + wd_im, s.im - wd_re);
        }
    }

    /// Forward FFT of a Hermitian spectrum, given as its half-spectrum:
    /// computes the (real) `x[t] = Σ_{k<n} W[k]·e^{−2πikt/n}` where the
    /// full `W` is `half` extended by `W[n−k] = conj(W[k])`.
    ///
    /// `half` must hold `n/2 + 1` bins with `half[0]` and `half[n/2]`
    /// real (their imaginary parts are ignored as required by Hermitian
    /// symmetry). `out` receives the `n` real samples; `scratch` is the
    /// length-`n/2` complex workspace. This is the Davies–Harte synthesis
    /// kernel: one half-length complex FFT instead of a full-length one.
    /// It is [`synthesize_hermitian_packed`](Self::synthesize_hermitian_packed)
    /// over the stored bins, unpacked into `out`.
    pub fn synthesize_hermitian(
        &self,
        half: &[Complex],
        out: &mut Vec<f64>,
        scratch: &mut Vec<Complex>,
    ) {
        self.synthesize_impl::<false>(half, out, scratch);
    }

    /// [`synthesize_hermitian`](Self::synthesize_hermitian) with the
    /// half-spectrum given bin by bin instead of stored: `dc` and
    /// `nyquist` are the real bins `W[0]` and `W[n/2]`, and `bin(k)` is
    /// `W[k]` for `0 < k < n/2` (called twice per bin, so it must be a
    /// pure function of `k`). The bins fold straight into `buf` (length
    /// `n/2`), which is transformed in place and ends holding the `n`
    /// real samples in pairs: `x[2t] = buf[t].re`, `x[2t+1] = buf[t].im`.
    ///
    /// A caller that scales its bins on the fly thus needs this one
    /// buffer and nothing else: no stored half-spectrum and no separate
    /// output. Allocates nothing, so it may run on a pool worker that
    /// must not touch the allocator. Bit-identical to
    /// `synthesize_hermitian` over the same bins.
    pub fn synthesize_hermitian_packed(
        &self,
        dc: f64,
        nyquist: f64,
        bin: impl Fn(usize) -> Complex,
        buf: &mut [Complex],
    ) {
        self.fold_hermitian::<false>(dc, nyquist, bin, buf);
        self.half_plan.forward_filled(buf);
    }

    /// Normalised inverse DFT of a Hermitian half-spectrum: the real
    /// signal whose [`forward`](Self::forward) transform is `half`.
    pub fn inverse(&self, half: &[Complex], out: &mut Vec<f64>, scratch: &mut Vec<Complex>) {
        self.synthesize_impl::<true>(half, out, scratch);
        let inv = 1.0 / self.n as f64;
        for x in out.iter_mut() {
            *x *= inv;
        }
    }

    /// Synthesis over a stored half-spectrum. `CONJ` conjugates it on the
    /// fly (the inverse transform of `W` is `1/n` times the forward
    /// transform of `conj(W)` when the result is real).
    fn synthesize_impl<const CONJ: bool>(
        &self,
        half: &[Complex],
        out: &mut Vec<f64>,
        scratch: &mut Vec<Complex>,
    ) {
        let n = self.n;
        let h = n / 2;
        assert_eq!(half.len(), h + 1, "plan needs {} half-spectrum bins, got {}", h + 1, half.len());
        // Resize only on first use / size change: every element below is
        // overwritten, so the old clear()+resize() pattern re-zeroed `h`
        // complex slots per window for nothing.
        if scratch.len() != h {
            scratch.clear();
            scratch.resize(h, Complex::ZERO);
        }
        self.fold_hermitian::<CONJ>(half[0].re, half[h].re, |k| half[k], scratch);
        self.half_plan.forward_filled(scratch);
        if out.len() != n {
            out.clear();
            out.resize(n, 0.0);
        }
        for (t, z) in scratch.iter().enumerate() {
            out[2 * t] = z.re;
            out[2 * t + 1] = z.im;
        }
    }

    /// The one synthesis fold: writes into `buf` (length `n/2`) the
    /// vector whose half-length forward FFT carries the real transform
    /// of the Hermitian spectrum with real bins `dc`, `nyquist` and
    /// interior bins `bin(k)` (conjugated when `CONJ`), in the half
    /// plan's [`fill_order`](FftPlan::fill_order), for
    /// [`FftPlan::forward_filled`] to transform: up to 2¹⁵ points each
    /// folded bin `C[k]` lands at its bit-reversed index, so the
    /// permutation costs no pass of its own.
    #[inline(always)]
    pub(crate) fn fold_hermitian<const CONJ: bool>(
        &self,
        dc: f64,
        nyquist: f64,
        bin: impl Fn(usize) -> Complex,
        buf: &mut [Complex],
    ) {
        let h = self.n / 2;
        assert_eq!(buf.len(), h, "plan needs a {h}-bin buffer, got {}", buf.len());
        // Fold W[k] and W[k+h] = conj(W[h−k]) (k ≥ 1; W[h] at k = 0) into
        // C[k] = A[k] + i·B[k] with A[k] = W[k] + W[k+h] and
        // B[k] = (W[k] − W[k+h])·ω^k. The even/odd output interleave
        // x[2t] = Re FFT(C)[t], x[2t+1] = Im FFT(C)[t] then needs only a
        // half-length transform.
        let dc = Complex::from_re(dc);
        let nyq = Complex::from_re(nyquist);
        let c0 = {
            let a = dc + nyq;
            let b = dc - nyq;
            Complex::new(a.re - b.im, a.im + b.re)
        };
        self.half_plan.fill_order(1, |slot, k| {
            if k == 0 {
                buf[slot] = c0;
                return;
            }
            let (wk, wkh) = if CONJ {
                (bin(k).conj(), bin(h - k))
            } else {
                (bin(k), bin(h - k).conj())
            };
            let a = wk + wkh;
            let d = wk - wkh;
            let b_re = d.re * self.tw_re[k] - d.im * self.tw_im[k];
            let b_im = d.re * self.tw_im[k] + d.im * self.tw_re[k];
            buf[slot] = Complex::new(a.re - b_im, a.im + b_re);
        });
    }
}

/// Real-plan cache bound; a plan costs ~8 bytes/point beyond its shared
/// complex half-plan, and the workspace only ever exercises a handful of
/// circulant sizes at once.
const MAX_CACHED_REAL_PLANS: usize = 16;

/// Only lock waits are counted (into the shared contention counter);
/// hits and misses stay the complex plan cache's.
static REAL_PLANS: Memo<usize, RealFftPlan> = Memo::new(MAX_CACHED_REAL_PLANS, |event| {
    if event == MemoEvent::Contention {
        PLAN_EVENTS[event as usize].fetch_add(1, Ordering::Relaxed);
    }
});

/// Returns the shared [`RealFftPlan`] for even power-of-two length `n`,
/// building and caching it on first use (LRU-bounded, like
/// [`plan_for`]). Thread-safe; the lock is never held during plan
/// construction.
pub fn real_plan_for(n: usize) -> Arc<RealFftPlan> {
    assert!(
        is_pow2(n) && n >= 2,
        "real FFT plans require an even power-of-two length >= 2, got {n}"
    );
    REAL_PLANS.get_or_build(n, || RealFftPlan::new(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_round_trip() {
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.31).sin() + 2.0).collect();
        let spec = fft_real(&x);
        let back = ifft_real(&spec);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn hermitian_symmetry() {
        let x: Vec<f64> = (0..33).map(|i| (i as f64).cos()).collect();
        let spec = fft_real(&x);
        let n = spec.len();
        for k in 1..n {
            let mirrored = spec[n - k].conj();
            assert!((spec[k] - mirrored).abs() < 1e-9);
        }
    }

    #[test]
    fn pure_tone_concentrates_power() {
        let n = 128;
        let f = 7; // cycles per record
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f as f64 * i as f64 / n as f64).cos())
            .collect();
        let p = power_spectrum(&x);
        // Power should sit at bins f and n-f, each (n/2)².
        let expect = (n as f64 / 2.0).powi(2);
        assert!((p[f] - expect).abs() < 1e-6);
        assert!((p[n - f] - expect).abs() < 1e-6);
        let rest: f64 = p
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != f && *k != n - f)
            .map(|(_, v)| v)
            .sum();
        assert!(rest < 1e-6);
    }

    #[test]
    fn empty_input() {
        assert!(fft_real(&[]).is_empty());
        assert!(ifft_real(&[]).is_empty());
    }

    #[test]
    fn plan_forward_matches_complex_path() {
        for &n in &[2usize, 4, 8, 16, 64, 256, 1024] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
            let full = fft_real(&x);
            let plan = RealFftPlan::new(n);
            let (mut spec, mut scratch) = (Vec::new(), Vec::new());
            plan.forward(&x, &mut spec, &mut scratch);
            assert_eq!(spec.len(), n / 2 + 1);
            let scale = full.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
            for k in 0..=n / 2 {
                assert!((spec[k] - full[k]).abs() <= 1e-12 * scale, "n={n} k={k}");
            }
            assert_eq!(spec[0].im, 0.0);
            assert_eq!(spec[n / 2].im, 0.0);
        }
    }

    #[test]
    fn plan_synthesis_matches_complex_hermitian_fft() {
        use crate::radix2::fft_pow2_in_place;
        for &n in &[2usize, 4, 8, 32, 128, 2048] {
            let h = n / 2;
            // A Hermitian spectrum: real DC/Nyquist, arbitrary interior.
            let mut half = vec![Complex::ZERO; h + 1];
            half[0] = Complex::from_re(1.25);
            half[h] = Complex::from_re(-0.75);
            for (k, slot) in half.iter_mut().enumerate().take(h).skip(1) {
                *slot = Complex::new((k as f64 * 0.61).cos(), (k as f64 * 1.13).sin());
            }
            let mut full: Vec<Complex> = half.clone();
            for k in (1..h).rev() {
                full.push(half[k].conj());
            }
            assert_eq!(full.len(), n);
            fft_pow2_in_place(&mut full, Direction::Forward);

            let plan = RealFftPlan::new(n);
            let (mut out, mut scratch) = (Vec::new(), Vec::new());
            plan.synthesize_hermitian(&half, &mut out, &mut scratch);
            assert_eq!(out.len(), n);
            let scale = full.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
            for t in 0..n {
                assert!(full[t].im.abs() <= 1e-12 * scale, "n={n} t={t}: complex FFT not real");
                assert!((out[t] - full[t].re).abs() <= 1e-12 * scale, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn packed_synthesis_matches_stored_bins_bitwise() {
        for &n in &[2usize, 4, 16, 256] {
            let h = n / 2;
            let half: Vec<Complex> = (0..=h)
                .map(|k| Complex::new((k as f64 * 0.71).sin(), (k as f64 * 0.29).cos()))
                .collect();
            let plan = RealFftPlan::new(n);
            let (mut want, mut scratch) = (Vec::new(), Vec::new());
            plan.synthesize_hermitian(&half, &mut want, &mut scratch);
            let mut buf = vec![Complex::ZERO; h];
            plan.synthesize_hermitian_packed(half[0].re, half[h].re, |k| half[k], &mut buf);
            let got: Vec<u64> = buf.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]).collect();
            let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn plan_forward_inverse_round_trip() {
        for &n in &[2usize, 8, 64, 512] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.83).cos() - 0.2).collect();
            let plan = RealFftPlan::new(n);
            let (mut spec, mut back) = (Vec::new(), Vec::new());
            let mut scratch = Vec::new();
            plan.forward(&x, &mut spec, &mut scratch);
            plan.inverse(&spec, &mut back, &mut scratch);
            for t in 0..n {
                assert!((x[t] - back[t]).abs() < 1e-12, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn real_plan_cache_shares_plans() {
        let a = real_plan_for(4096);
        let b = real_plan_for(4096);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 4096);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plan_rejects_odd_layout() {
        RealFftPlan::new(12);
    }
}
