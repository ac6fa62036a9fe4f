//! Memoization of the deterministic pre-work of LRD generation.
//!
//! The expensive but *input-independent* parts of a Davies–Harte or
//! Hosking generation — the theoretical autocovariance sequence and, for
//! circulant embedding, the eigenvalue spectrum (one `O(m log m)` FFT) —
//! depend only on `(H, n)`. Workloads like the MuxSim sweeps, the
//! robust-estimator benchmarks and batch screenplay generation call the
//! generators many times with identical parameters, so these caches turn
//! every repeat into a lookup. Keys use the exact bit pattern of
//! the float parameter: two `H` values compare equal iff the uncached
//! computation would be identical, so caching can never change output.
//!
//! The caches are process-global [`Memo`]s: size-bounded (entries at
//! the paper scale run to megabytes) with least-recently-used eviction,
//! and each key is built once — concurrent first callers for the *same*
//! key wait for one builder instead of racing to duplicate the work,
//! while different keys still build concurrently. Failed builds are not
//! cached. Hits, misses and evictions are counted through
//! `vbr_stats::obs`, and waits for a memo's lock into the shared
//! `plan_cache_contention` counter.

use crate::acvf::{farima_acf, fgn_acvf};
use crate::davies_harte::circulant_spectrum;
use crate::error::FgnError;
use std::sync::Arc;
use vbr_fft::{Memo, MemoEvent};
use vbr_stats::obs::{self, Counter};

/// Per-cache entry bound: ACVF/spectrum vectors at the 171k-frame paper
/// scale are ~8 MB each, so a handful of distinct (H, n) pairs is all a
/// realistic workload holds at once.
const MAX_ENTRIES: usize = 16;

/// A float parameter's exact bit pattern and a length: two `H` values
/// share an entry iff the uncached computation would be identical.
type VecCache = Memo<(u64, usize), Vec<f64>>;

fn count(event: MemoEvent) {
    let counter = match event {
        MemoEvent::Hit => Counter::FgnCacheHit,
        MemoEvent::Miss => Counter::FgnCacheMiss,
        MemoEvent::Evict => Counter::FgnCacheEvict,
        MemoEvent::Contention => Counter::PlanCacheContention,
    };
    obs::counter_add(counter, 1);
}

static FGN_ACVF: VecCache = Memo::new(MAX_ENTRIES, count);
static FARIMA_ACF: VecCache = Memo::new(MAX_ENTRIES, count);
static FGN_SPECTRUM: VecCache = Memo::new(MAX_ENTRIES, count);
static FARIMA_SPECTRUM: VecCache = Memo::new(MAX_ENTRIES, count);
static HOSKING_REFLECTIONS: VecCache = Memo::new(MAX_ENTRIES, count);

/// Memoized [`fgn_acvf`]: autocovariances `γ_0..=γ_max_lag` of
/// unit-variance fGn, shared across repeat calls with the same
/// `(hurst, max_lag)`.
pub fn fgn_acvf_cached(hurst: f64, max_lag: usize) -> Arc<Vec<f64>> {
    FGN_ACVF.get_or_build((hurst.to_bits(), max_lag), || fgn_acvf(hurst, max_lag))
}

/// Memoized [`farima_acf`]: autocorrelations `ρ_0..=ρ_max_lag` of
/// fractional ARIMA(0, d, 0), shared across repeat calls — Hosking's
/// `O(n²)` recursion re-reads the whole sequence every generation.
pub fn farima_acf_cached(d: f64, max_lag: usize) -> Arc<Vec<f64>> {
    FARIMA_ACF.get_or_build((d.to_bits(), max_lag), || farima_acf(d, max_lag))
}

/// Memoized circulant eigenvalue spectrum for fGn embedding: the
/// composition `circulant_spectrum(&fgn_acvf(hurst, m/2))` — an `O(m)`
/// autocovariance build plus an `O(m log m)` FFT — computed once per
/// `(hurst, m)` and then shared. `m` is the (power-of-two) circulant
/// size. The fGn embedding is provably PSD, so the error branch only
/// fires on FFT round-off beyond the clamp tolerance; failures are not
/// cached.
pub fn fgn_circulant_spectrum_cached(hurst: f64, m: usize) -> Result<Arc<Vec<f64>>, FgnError> {
    FGN_SPECTRUM.get_or_try_build((hurst.to_bits(), m), || {
        circulant_spectrum(&fgn_acvf_cached(hurst, m / 2))
    })
}

/// Memoized circulant eigenvalue spectrum for the fARIMA(0, d, 0)
/// autocorrelation — the fARIMA stream / fast-batch analogue
/// of [`fgn_circulant_spectrum_cached`]. Unlike the fGn embedding, the
/// fARIMA embedding is not provably PSD at every `(d, m)`; a genuinely
/// negative spectrum is reported as [`FgnError::NonPsdEmbedding`] and
/// not cached.
pub fn farima_circulant_spectrum_cached(d: f64, m: usize) -> Result<Arc<Vec<f64>>, FgnError> {
    FARIMA_SPECTRUM.get_or_try_build((d.to_bits(), m), || {
        circulant_spectrum(&farima_acf_cached(d, m / 2))
    })
}

/// The deterministic half of Hosking's Durbin–Levinson recursion
/// (Eqs 7–10): partial-correlation ("reflection") coefficients
/// `φ_kk`, `k = 1..n−1`, for the fARIMA(0, d, 0) autocorrelation.
/// Exactly the arithmetic the generator used to run inline, with the
/// sample-path terms removed — so the coefficients (and therefore the
/// generated paths) are bit-identical to the unmemoized recursion.
fn hosking_reflections(rho: &[f64], n: usize) -> Vec<f64> {
    let mut refl = Vec::with_capacity(n.saturating_sub(1));
    // φ_{k,j} from the previous iteration (φ_{k−1,·}, 1-indexed by j).
    let mut phi_prev: Vec<f64> = Vec::with_capacity(n);
    let mut phi: Vec<f64> = Vec::with_capacity(n);
    let mut n_prev = 0.0f64; // N_0 = 0
    let mut d_prev = 1.0f64; // D_0 = 1
    for k in 1..n {
        // Eq (7): N_k = ρ_k − Σ_{j=1}^{k−1} φ_{k−1,j} ρ_{k−j}
        let mut nk = rho[k];
        for j in 1..k {
            nk -= phi_prev[j - 1] * rho[k - j];
        }
        // Eq (8): D_k = D_{k−1} − N_{k−1}² / D_{k−1}
        let dk = d_prev - n_prev * n_prev / d_prev;
        // Eq (9): φ_kk = N_k / D_k
        let phi_kk = nk / dk;
        // Eq (10): φ_kj = φ_{k−1,j} − φ_kk φ_{k−1,k−j}
        phi.clear();
        for j in 1..k {
            phi.push(phi_prev[j - 1] - phi_kk * phi_prev[k - j - 1]);
        }
        phi.push(phi_kk);
        refl.push(phi_kk);
        std::mem::swap(&mut phi_prev, &mut phi);
        n_prev = nk;
        d_prev = dk;
    }
    refl
}

/// Memoized Hosking partial-correlation coefficients `φ_kk` for
/// `k = 1..n−1` — the `O(n²)` deterministic setup of the exact
/// generator, shared across repeat `(d, n)` runs. With these in hand a
/// generation needs only the Eq (10) row update and the Eq (11)
/// conditional-mean dot product per step; the Eq (7) inner product
/// against the ACF (half the recursion's flops) is never redone.
pub fn hosking_reflections_cached(d: f64, n: usize) -> Arc<Vec<f64>> {
    HOSKING_REFLECTIONS.get_or_build((d.to_bits(), n), || {
        let rho = farima_acf_cached(d, n);
        hosking_reflections(&rho, n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_acvf_matches_uncached() {
        for &(h, n) in &[(0.6, 100usize), (0.8, 4096), (0.3, 33)] {
            assert_eq!(*fgn_acvf_cached(h, n), fgn_acvf(h, n));
        }
        for &(d, n) in &[(0.3, 100usize), (0.0, 50)] {
            assert_eq!(*farima_acf_cached(d, n), farima_acf(d, n));
        }
    }

    #[test]
    fn repeat_lookups_share_storage() {
        let a = fgn_acvf_cached(0.77, 2048);
        let b = fgn_acvf_cached(0.77, 2048);
        assert!(Arc::ptr_eq(&a, &b));
        // A different H (even by one ulp) is a different entry.
        let c = fgn_acvf_cached(0.77 + f64::EPSILON, 2048);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn cached_spectrum_matches_direct_composition() {
        let m = 1024;
        let direct = circulant_spectrum(&fgn_acvf(0.8, m / 2)).unwrap();
        let cached = fgn_circulant_spectrum_cached(0.8, m).unwrap();
        assert_eq!(*cached, direct);
        let again = fgn_circulant_spectrum_cached(0.8, m).unwrap();
        assert!(Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn cached_farima_spectrum_matches_direct_composition() {
        let m = 512;
        let direct = circulant_spectrum(&farima_acf(0.3, m / 2)).unwrap();
        let cached = farima_circulant_spectrum_cached(0.3, m).unwrap();
        assert_eq!(*cached, direct);
    }
}
