//! One series' periodogram, shared by the estimators that read it.
//!
//! Whittle, local Whittle and the periodogram regression all start from
//! the periodogram `I(ω_j)` of the same series. At a length that is not a
//! power of two the periodogram is a Bluestein FFT, ~10× the cost of a
//! power-of-two transform, so a panel running all three on one series
//! computes it once through a [`SharedPeriodogram`].
//!
//! Each estimator's `xs` entry point is the same estimator run on a
//! one-use `SharedPeriodogram`: it makes its input checks on the series
//! first and only then asks for the periodogram. Shared and separate calls
//! are therefore one code path with the same bits, and a series an
//! estimator rejects never reaches the FFT.

use std::cell::OnceCell;

use vbr_stats::periodogram::Periodogram;

/// A series and its periodogram, computed on first use and then reused.
///
/// The estimators run on it through their methods:
/// [`try_whittle`](Self::try_whittle),
/// [`try_whittle_with`](Self::try_whittle_with),
/// [`try_local_whittle`](Self::try_local_whittle) and
/// [`try_periodogram_h`](Self::try_periodogram_h). Each returns exactly
/// what its free-function namesake returns on [`series`](Self::series).
#[derive(Debug)]
pub struct SharedPeriodogram<'a> {
    xs: &'a [f64],
    pg: OnceCell<Periodogram>,
}

impl<'a> SharedPeriodogram<'a> {
    /// Wraps `xs`; computes nothing until an estimator's checks pass.
    pub fn new(xs: &'a [f64]) -> Self {
        SharedPeriodogram { xs, pg: OnceCell::new() }
    }

    /// The series the periodogram is of.
    pub fn series(&self) -> &'a [f64] {
        self.xs
    }

    /// The periodogram, computed on the first call. Only estimator cores
    /// call it, after their input checks.
    pub(crate) fn periodogram(&self) -> &Periodogram {
        self.pg.get_or_init(|| Periodogram::compute(self.xs))
    }
}
