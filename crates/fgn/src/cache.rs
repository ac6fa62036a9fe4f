//! Memoization of the deterministic pre-work of LRD generation.
//!
//! The expensive but *input-independent* parts of a Davies–Harte or
//! Hosking generation — the circulant eigenvalue spectrum (an
//! autocovariance build plus one `O(m log m)` FFT) and Hosking's
//! reflection coefficients (an `O(n²)` recursion) — depend only on
//! `(H, n)`. Workloads like the MuxSim sweeps, the robust-estimator
//! benchmarks and batch screenplay generation call the generators many
//! times with identical parameters, so these caches turn every repeat
//! into a lookup. Keys use the exact bit pattern of the float
//! parameter: two `H` values compare equal iff the uncached computation
//! would be identical, so caching can never change output. The
//! autocovariances themselves are not cached: the builds above are
//! their only readers.
//!
//! The caches are process-global [`Memo`]s, size-bounded twice over:
//! at most `MAX_ENTRIES` keys and at most `MAX_BYTES` of built
//! values each, evicting least-recently-used entries (a paper-scale
//! spectrum is 4 MiB, and a model fit draws at a fresh `H` that no
//! later call reads back). Each key is built once — concurrent first
//! callers for the *same* key wait for one builder instead of racing to
//! duplicate the work, while different keys still build concurrently.
//! Failed builds are not cached. Hits, misses and evictions are counted
//! through `vbr_stats::obs`, and waits for a memo's lock into the shared
//! `plan_cache_contention` counter.

use crate::acvf::{farima_acf, fgn_acvf};
use crate::davies_harte::circulant_spectrum;
use crate::error::FgnError;
use std::sync::Arc;
use vbr_fft::{Memo, MemoEvent};
use vbr_stats::obs::{self, Counter};

/// Per-cache entry bound: small streams' spectra and short Hosking
/// runs, a handful of distinct `(H, n)` pairs at once.
const MAX_ENTRIES: usize = 16;

/// Per-cache byte bound: two spectra at the 171 000-frame paper scale
/// (2^19 points, 4 MiB each). Repeat draws at one `H` still hit, while
/// each fresh fitted `H` pushes out the least recently used entry
/// instead of staying resident.
const MAX_BYTES: usize = 8 << 20;

/// A cached vector's heap bytes, the memos' weight.
fn heap_bytes(v: &Vec<f64>) -> usize {
    v.capacity() * std::mem::size_of::<f64>()
}

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

static FGN_SPECTRUM: VecCache = Memo::with_budget(MAX_ENTRIES, MAX_BYTES, heap_bytes, count);
static FARIMA_SPECTRUM: VecCache = Memo::with_budget(MAX_ENTRIES, MAX_BYTES, heap_bytes, count);
static HOSKING_REFLECTIONS: VecCache =
    Memo::with_budget(MAX_ENTRIES, MAX_BYTES, heap_bytes, count);

/// Memoized circulant eigenvalue spectrum for fGn embedding: the
/// composition `circulant_spectrum(&fgn_acvf(hurst, m/2))` — an `O(m)`
/// autocovariance build plus an `O(m log m)` FFT — computed once per
/// `(hurst, m)` and then shared. `m` is the (power-of-two) circulant
/// size. The fGn embedding is provably PSD, so the error branch only
/// fires on FFT round-off beyond the clamp tolerance; failures are not
/// cached.
pub fn fgn_circulant_spectrum_cached(hurst: f64, m: usize) -> Result<Arc<Vec<f64>>, FgnError> {
    FGN_SPECTRUM.get_or_try_build((hurst.to_bits(), m), || {
        circulant_spectrum(&fgn_acvf(hurst, m / 2))
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
        circulant_spectrum(&farima_acf(d, m / 2))
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
        hosking_reflections(&farima_acf(d, n), n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_lookups_share_storage() {
        let a = fgn_circulant_spectrum_cached(0.77, 2048).unwrap();
        let b = fgn_circulant_spectrum_cached(0.77, 2048).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A different H (even by one ulp) is a different entry.
        let c = fgn_circulant_spectrum_cached(0.77 + f64::EPSILON, 2048).unwrap();
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
