//! Memoization of the deterministic pre-work of LRD generation.
//!
//! The expensive but *input-independent* parts of a Davies–Harte or
//! Hosking generation — the theoretical autocovariance sequence and, for
//! circulant embedding, the eigenvalue spectrum (one `O(m log m)` FFT) —
//! depend only on `(H, n)`. Workloads like the MuxSim sweeps, the
//! robust-estimator benchmarks and batch screenplay generation call the
//! generators many times with identical parameters, so these caches turn
//! every repeat into a hash lookup. Keys use the exact bit pattern of
//! the float parameter: two `H` values compare equal iff the uncached
//! computation would be identical, so caching can never change output.
//!
//! Each key owns a build lock: concurrent first callers for the *same*
//! key block on one builder instead of racing to duplicate the work
//! (which made parallel batch generation slower than serial — every
//! worker rebuilt the same multi-megabyte spectrum). Different keys
//! still build concurrently.
//!
//! Caches are process-global and size-bounded (entries at the paper
//! scale run to megabytes); when a cache is full, admitting a new key
//! evicts the least-recently-used entry *only* — entries are pure
//! functions of their key and rebuild on demand, but interleaved
//! workloads over many `(d, n)` pairs keep their hot entries resident.
//! (The old policy cleared the whole map, so a single cold key wiped
//! every hot entry and the next pass recomputed them all.) Hits, misses
//! and evictions are counted through `vbr_stats::obs`.

use crate::acvf::{farima_acf, fgn_acvf};
use crate::davies_harte::circulant_spectrum;
use crate::error::FgnError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use vbr_stats::obs::{self, Counter};

/// Per-cache entry bound: ACVF/spectrum vectors at the 171k-frame paper
/// scale are ~8 MB each, so a handful of distinct (H, n) pairs is all a
/// realistic workload holds at once.
const MAX_ENTRIES: usize = 16;

type Key = (u64, usize);
/// One slot per key: the outer map hands out the slot under a short
/// lock; the slot's own mutex serialises building, so concurrent first
/// callers of one key wait for a single build instead of duplicating it.
type Slot = Arc<Mutex<Option<Arc<Vec<f64>>>>>;

/// The slot map plus a logical clock: every access stamps its entry,
/// and eviction removes the entry with the oldest stamp.
#[derive(Default)]
struct LruMap {
    map: HashMap<Key, (Slot, u64)>,
    tick: u64,
}

type VecCache = Mutex<LruMap>;

fn fgn_acvf_cache() -> &'static VecCache {
    static C: OnceLock<VecCache> = OnceLock::new();
    C.get_or_init(|| Mutex::new(LruMap::default()))
}

fn farima_acf_cache() -> &'static VecCache {
    static C: OnceLock<VecCache> = OnceLock::new();
    C.get_or_init(|| Mutex::new(LruMap::default()))
}

fn spectrum_cache() -> &'static VecCache {
    static C: OnceLock<VecCache> = OnceLock::new();
    C.get_or_init(|| Mutex::new(LruMap::default()))
}

fn farima_spectrum_cache() -> &'static VecCache {
    static C: OnceLock<VecCache> = OnceLock::new();
    C.get_or_init(|| Mutex::new(LruMap::default()))
}

fn hosking_reflection_cache() -> &'static VecCache {
    static C: OnceLock<VecCache> = OnceLock::new();
    C.get_or_init(|| Mutex::new(LruMap::default()))
}

/// Fetches the key's slot, stamping it with the cache's logical clock.
/// Admitting a new key into a full cache evicts the least-recently-used
/// entry only (in-flight holders keep their own `Arc` to the evicted
/// slot; hot entries stay resident — the point of the LRU order).
fn slot_for(cache: &'static VecCache, key: Key) -> Slot {
    // The map lock covers lookup/insert/evict only — builds run under
    // the per-key slot lock, and nothing here executes an FFT. A waiting
    // acquisition is therefore always momentary, and is counted into the
    // shared `plan_cache_contention` obs counter so the fleet bench can
    // prove the lock scope stays shard-friendly.
    let mut lru = match cache.try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::WouldBlock) => {
            obs::counter_add(Counter::PlanCacheContention, 1);
            cache.lock().expect("acvf cache poisoned")
        }
        Err(std::sync::TryLockError::Poisoned(_)) => panic!("acvf cache poisoned"),
    };
    lru.tick += 1;
    let tick = lru.tick;
    if let Some((slot, stamp)) = lru.map.get_mut(&key) {
        *stamp = tick;
        return Arc::clone(slot);
    }
    if lru.map.len() >= MAX_ENTRIES {
        if let Some(cold) = lru.map.iter().min_by_key(|&(_, &(_, s))| s).map(|(&k, _)| k) {
            lru.map.remove(&cold);
            obs::counter_add(Counter::FgnCacheEvict, 1);
        }
    }
    let (slot, _) = lru.map.entry(key).or_insert_with(|| (Slot::default(), tick));
    Arc::clone(slot)
}

fn memoize(
    cache: &'static VecCache,
    key: Key,
    build: impl FnOnce() -> Vec<f64>,
) -> Arc<Vec<f64>> {
    let slot = slot_for(cache, key);
    let mut guard = slot.lock().expect("acvf cache slot poisoned");
    if let Some(hit) = guard.as_ref() {
        obs::counter_add(Counter::FgnCacheHit, 1);
        return Arc::clone(hit);
    }
    obs::counter_add(Counter::FgnCacheMiss, 1);
    let value = Arc::new(build());
    *guard = Some(Arc::clone(&value));
    value
}

fn memoize_try(
    cache: &'static VecCache,
    key: Key,
    build: impl FnOnce() -> Result<Vec<f64>, FgnError>,
) -> Result<Arc<Vec<f64>>, FgnError> {
    let slot = slot_for(cache, key);
    let mut guard = slot.lock().expect("acvf cache slot poisoned");
    if let Some(hit) = guard.as_ref() {
        obs::counter_add(Counter::FgnCacheHit, 1);
        return Ok(Arc::clone(hit));
    }
    obs::counter_add(Counter::FgnCacheMiss, 1);
    // Failures are not cached: the slot stays empty and the next caller
    // retries (failure here means a genuinely non-PSD embedding, which
    // is deterministic per key, so retries fail fast anyway).
    let value = Arc::new(build()?);
    *guard = Some(Arc::clone(&value));
    Ok(value)
}

/// Memoized [`fgn_acvf`]: autocovariances `γ_0..=γ_max_lag` of
/// unit-variance fGn, shared across repeat calls with the same
/// `(hurst, max_lag)`.
pub fn fgn_acvf_cached(hurst: f64, max_lag: usize) -> Arc<Vec<f64>> {
    memoize(fgn_acvf_cache(), (hurst.to_bits(), max_lag), || fgn_acvf(hurst, max_lag))
}

/// Memoized [`farima_acf`]: autocorrelations `ρ_0..=ρ_max_lag` of
/// fractional ARIMA(0, d, 0), shared across repeat calls — Hosking's
/// `O(n²)` recursion re-reads the whole sequence every generation.
pub fn farima_acf_cached(d: f64, max_lag: usize) -> Arc<Vec<f64>> {
    memoize(farima_acf_cache(), (d.to_bits(), max_lag), || farima_acf(d, max_lag))
}

/// Memoized circulant eigenvalue spectrum for fGn embedding: the
/// composition `circulant_spectrum(&fgn_acvf(hurst, m/2))` — an `O(m)`
/// autocovariance build plus an `O(m log m)` FFT — computed once per
/// `(hurst, m)` and then shared. `m` is the (power-of-two) circulant
/// size. The fGn embedding is provably PSD, so the error branch only
/// fires on FFT round-off beyond the clamp tolerance; failures are not
/// cached.
pub fn fgn_circulant_spectrum_cached(hurst: f64, m: usize) -> Result<Arc<Vec<f64>>, FgnError> {
    memoize_try(spectrum_cache(), (hurst.to_bits(), m), || {
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
    memoize_try(farima_spectrum_cache(), (d.to_bits(), m), || {
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
    memoize(hosking_reflection_cache(), (d.to_bits(), n), || {
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

    #[test]
    fn racing_first_callers_build_once() {
        // Hammer one brand-new key from many threads; the per-key build
        // lock must hand every thread the same Arc.
        let h = 0.654_321;
        let arcs: Vec<Arc<Vec<f64>>> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..8).map(|_| s.spawn(|| fgn_acvf_cached(h, 8192))).collect();
            handles.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for a in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], a));
        }
    }
}
