//! Exact-count tests of the plan-cache instrumentation.
//!
//! The counters are process-global, so this file lives in its own
//! integration-test binary (its own process) and uses a single `#[test]`
//! function: nothing else in the process touches the plan cache, which
//! makes every hit/miss/eviction delta exact rather than a lower bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vbr_fft::{
    plan_cache_stats, plan_for, plan_size_histogram, reset_plan_cache_stats, FftPlan, Memo,
    MemoEvent, PlanCacheStats,
};

#[test]
fn plan_cache_counters_exact_and_eviction_is_lru() {
    // Fresh process: nothing has requested a plan yet.
    reset_plan_cache_stats();
    assert_eq!(plan_cache_stats(), PlanCacheStats::default());

    // Known-size workload: 1 miss + 3 hits on 64, 1 miss on 128.
    let first = plan_for(64);
    for _ in 0..3 {
        let again = plan_for(64);
        assert!(Arc::ptr_eq(&first, &again), "hits must return the cached plan");
    }
    plan_for(128);
    let s = plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.evictions), (3, 2, 0));
    assert_eq!(plan_size_histogram(), vec![(64, 4), (128, 1)]);

    // LRU eviction, on a small-capacity memo with the plan cache's
    // policy and its own counters (the global cache holds 32 sizes).
    static EVENTS: [AtomicU64; 4] = [const { AtomicU64::new(0) }; 4];
    fn count(event: MemoEvent) {
        EVENTS[event as usize].fetch_add(1, Ordering::Relaxed);
    }
    // (hits, misses, evictions)
    let events = || [0, 1, 2].map(|i| EVENTS[i].load(Ordering::Relaxed));
    let memo: Memo<usize, FftPlan> = Memo::new(4, count);
    let plan = |n: usize| memo.get_or_build(n, || FftPlan::new(n));

    let first = plan(64);
    plan(128); // cache {64, 128}
    plan(2); // miss; cache {64, 128, 2}
    plan(4); // miss; cache {64, 128, 2, 4} — full
    let hot = plan(64); // hit — refreshes 64's recency
    assert!(Arc::ptr_eq(&first, &hot));
    plan(8); // miss; evicts the LRU entry, 128
    assert_eq!(events(), [1, 5, 1]);

    // The recently-touched entry survived the eviction…
    let survivor = plan(64);
    assert!(Arc::ptr_eq(&first, &survivor), "hot entry must survive LRU eviction");
    // …and the cold one did not: re-requesting 128 is a miss that in
    // turn evicts the now-oldest entry (2).
    plan(128);
    assert_eq!(events(), [2, 6, 2]);
    let refetched = plan(2);
    drop(refetched);
    assert_eq!(events()[1], 7, "evicted cold entry must rebuild");

    // A local memo reports to its own hook only.
    let s = plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.evictions), (3, 2, 0));
}
