//! Exact-count tests of the fGn spectrum cache's LRU eviction, by key
//! count and by bytes.
//!
//! The cache and its counters are process-global, so this file is its
//! own integration-test binary (own process) with a single `#[test]`
//! function: the hit/miss/eviction deltas below are exact, not lower
//! bounds.

use std::sync::Arc;
use vbr_fgn::{circulant_spectrum, fgn_acvf, fgn_circulant_spectrum_cached, DaviesHarte};
use vbr_stats::obs::{counter_value, Counter};

#[test]
fn vec_cache_evicts_lru_only_and_counts_exactly() {
    let n = 256; // spectrum key (H, m = 512), 4 KiB
    let hot = DaviesHarte::new(0.8, 1.0);

    // First generation builds the hot spectrum cold: one miss. The
    // autocovariances it is built from are not cached.
    let base = hot.generate(n, 7);
    assert_eq!(counter_value(Counter::FgnCacheMiss), 1);
    assert_eq!(counter_value(Counter::FgnCacheHit), 0);

    // Repeat generation is one spectrum-cache hit and the output is
    // bit-identical.
    let again = hot.generate(n, 7);
    assert_eq!(again, base);
    assert_eq!(counter_value(Counter::FgnCacheHit), 1);
    assert_eq!(counter_value(Counter::FgnCacheEvict), 0);

    // Overflow the 16-entry cache with 24 cold H values, touching the
    // hot entry every fourth insert so LRU order keeps it warm.
    for i in 0..24u32 {
        let h = 0.5 + 0.005 * f64::from(i);
        DaviesHarte::new(h, 1.0).generate(n, 1);
        if i % 4 == 0 {
            hot.generate(n, 7);
        }
    }
    // 25 distinct keys through one 16-slot cache: exactly 9 evictions,
    // every one choosing a cold entry over the hot one. 25 × 4 KiB is
    // far inside the byte budget, so the key bound does all of it.
    assert_eq!(counter_value(Counter::FgnCacheEvict), 9);
    assert_eq!(counter_value(Counter::FgnCacheMiss), 25);

    // The hot entry survived the churn: one more touch is a hit (no
    // rebuild) and the output is still bit-identical.
    let hits_before = counter_value(Counter::FgnCacheHit);
    let survivor = hot.generate(n, 7);
    assert_eq!(counter_value(Counter::FgnCacheHit), hits_before + 1);
    assert_eq!(counter_value(Counter::FgnCacheMiss), 25, "hot entry must not rebuild");
    assert_eq!(survivor, base);

    // Byte bound: 2^18-point spectra weigh 2 MiB each, so the 8 MiB
    // budget holds four. The cache now holds its 16 small entries, the
    // hot one most recent.
    let m = 1 << 18;
    let big_h = |i: u32| 0.6 + 0.01 * f64::from(i);
    let (hits0, misses0, evicts0) = (
        counter_value(Counter::FgnCacheHit),
        counter_value(Counter::FgnCacheMiss),
        counter_value(Counter::FgnCacheEvict),
    );
    for i in 0..6 {
        fgn_circulant_spectrum_cached(big_h(i), m).unwrap();
    }
    // Spectra 0–3 each admit a key into the full cache (4 key-bound
    // evictions, small entries). Spectrum 3 then brings the built bytes
    // to 8 MiB plus the 12 small entries' 48 KiB, so the byte trim drops
    // all 12, least recently used first (the hot one too). Spectra 4 and
    // 5 each push one 2 MiB spectrum out (0, then 1): 4 + 12 + 2.
    assert_eq!(counter_value(Counter::FgnCacheMiss), misses0 + 6);
    assert_eq!(counter_value(Counter::FgnCacheEvict), evicts0 + 18);

    // Spectra 2–5 are resident (hits, no rebuild) and bit-equal to the
    // uncached composition.
    for i in 2..6 {
        let cached = fgn_circulant_spectrum_cached(big_h(i), m).unwrap();
        assert_eq!(*cached, circulant_spectrum(&fgn_acvf(big_h(i), m / 2)).unwrap());
    }
    assert_eq!(counter_value(Counter::FgnCacheHit), hits0 + 4);
    assert_eq!(counter_value(Counter::FgnCacheMiss), misses0 + 6);

    // Rebuilding spectrum 0 drops the least recently used, 2; the hot
    // small entry, trimmed above, rebuilds too and stays (8 MiB + 4 KiB
    // > 8 MiB drops 3).
    let zero = fgn_circulant_spectrum_cached(big_h(0), m).unwrap();
    assert_eq!(counter_value(Counter::FgnCacheMiss), misses0 + 7);
    assert_eq!(counter_value(Counter::FgnCacheEvict), evicts0 + 19);
    assert_eq!(hot.generate(n, 7), base);
    assert_eq!(counter_value(Counter::FgnCacheMiss), misses0 + 8);
    assert_eq!(counter_value(Counter::FgnCacheEvict), evicts0 + 20);
    let again = fgn_circulant_spectrum_cached(big_h(0), m).unwrap();
    assert!(Arc::ptr_eq(&zero, &again));
    assert_eq!(counter_value(Counter::FgnCacheHit), hits0 + 5);
}
