//! # vbr-fft
//!
//! Self-contained FFT substrate for the VBR-video workspace: a complex
//! type, an iterative radix-2 Cooley–Tukey kernel, Bluestein's chirp-z
//! transform for arbitrary lengths, real-signal wrappers and FFT-based
//! convolution/autocorrelation.
//!
//! Everything downstream — periodograms (Fig 8), Whittle's estimator
//! (Table 3), the Davies–Harte fractional-Gaussian-noise generator and
//! `O(n log n)` autocorrelation (Fig 7) — builds on this crate.
//!
//! ```
//! use vbr_fft::{fft, ifft, Complex};
//! let x = vec![1.0, 2.0, 3.0, 4.0];
//! let spec = vbr_fft::fft_real(&x);
//! assert_eq!(spec.len(), 4);
//! // DC bin is the sum of the signal.
//! assert!((spec[0].re - 10.0).abs() < 1e-12);
//! let y = ifft(&fft(&x.iter().map(|&v| Complex::from_re(v)).collect::<Vec<_>>()));
//! assert!((y[2].re - 3.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod bluestein;
pub mod complex;
pub mod convolve;
pub mod memo;
pub mod plan;
pub mod radix2;
pub mod real;
pub mod width;

pub use bluestein::{bluestein_plan_for, fft_any, fft_any_in_place, BluesteinPlan};
pub use complex::Complex;
pub use convolve::{autocorr_sums, autocorr_sums_into, convolve, convolve_into};
pub use memo::{Memo, MemoEvent};
pub use plan::{
    plan_cache_stats, plan_for, plan_size_histogram, reference_radix2, reset_plan_cache_stats,
    FftPlan, PlanCacheStats,
};
pub use radix2::{fft_pow2_in_place, is_pow2, next_pow2, Direction};
pub use real::{
    fft_real, fft_real_into, ifft_real, ifft_real_into, power_spectrum, power_spectrum_into,
    real_plan_for, RealFftPlan,
};
pub use width::{target_features, Isa, Kernel, LANES};

/// Forward DFT of a complex sequence (any length, unnormalised).
///
/// One output allocation; the transform itself runs through the
/// in-place/plan machinery ([`fft_any_in_place`]).
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    let mut buf = x.to_vec();
    let mut scratch = Vec::new();
    fft_any_in_place(&mut buf, &mut scratch, Direction::Forward);
    buf
}

/// Inverse DFT of a complex sequence (any length), normalised by `1/n`.
///
/// One output allocation; see [`fft`].
pub fn ifft(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let mut buf = x.to_vec();
    let mut scratch = Vec::new();
    fft_any_in_place(&mut buf, &mut scratch, Direction::Inverse);
    let scale = 1.0 / n as f64;
    for z in &mut buf {
        *z = z.scale(scale);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_ifft_round_trip_any_length() {
        for n in [1usize, 2, 3, 15, 16, 33] {
            let x: Vec<Complex> =
                (0..n).map(|i| Complex::new(i as f64, (i as f64).sqrt())).collect();
            let back = ifft(&fft(&x));
            for (a, b) in x.iter().zip(&back) {
                assert!((*a - *b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn parseval_holds() {
        let x: Vec<Complex> = (0..37).map(|i| Complex::new((i as f64).sin(), 0.0)).collect();
        let y = fft(&x);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((ex - ey).abs() < 1e-9);
    }

    #[test]
    fn linearity() {
        let n = 24;
        let a: Vec<Complex> = (0..n).map(|i| Complex::from_re(i as f64)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::from_re((i * i) as f64)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        for k in 0..n {
            assert!((fsum[k] - (fa[k] + fb[k])).abs() < 1e-8);
        }
    }
}
