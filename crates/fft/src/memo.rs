//! A bounded, build-once memo: the one cache policy behind every plan,
//! spectrum and periodogram cache in the workspace (FFT, real-FFT and
//! Bluestein plans here; circulant spectra and Hosking reflections in
//! `vbr-fgn`; periodograms in `vbr-stats`).
//!
//! - At most `cap` keys; admitting a key into a full memo evicts the
//!   least-recently-used entry only, so hot entries survive cold ones.
//! - A memo built [`Memo::with_budget`] is also bounded by bytes: after
//!   each successful build it weighs its built values and evicts
//!   least-recently-used built entries until they fit the budget. It
//!   never evicts the value just built (one value larger than the
//!   budget stays until the next build) nor a slot whose build is still
//!   in flight. The plan and periodogram memos have the key bound only.
//! - The memo's lock covers lookup, insert and evict, never a build.
//!   Racing first callers of one key wait for a single build under that
//!   key's own lock; different keys build concurrently.
//! - A failed (or panicking) build is not cached; the next caller
//!   retries.
//! - Each instance reports [`MemoEvent`]s to the plain function it was
//!   built with, so the owning crate decides which counters they feed.
//!
//! Every cached value is a pure function of its key, so the memo can
//! change how often a value is built but never an output bit.

use std::convert::Infallible;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// What a [`Memo`] reports to its hook. The discriminants (0–3, in
/// declaration order) index per-event counter arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoEvent {
    /// A lookup found its key's value already built.
    Hit,
    /// A lookup built its key's value (first use, after an eviction, or
    /// a retry after a failed build).
    Miss,
    /// The memo dropped an entry: its least-recently-used one to admit a
    /// key into a full memo, or a least-recently-used built one to bring
    /// its values back within the byte budget. One event per entry.
    Evict,
    /// A lookup had to wait for the memo's lock. The lock covers lookup,
    /// insert and evict only, so this staying near zero under a
    /// many-threaded load is the evidence that the lock scope holds.
    Contention,
}

/// One key's slot: the value once built, and the lock its builder holds
/// so that racing first callers wait for one build.
struct Slot<V> {
    value: OnceLock<Arc<V>>,
    building: Mutex<()>,
}

/// The bytes one value holds, for a memo's byte budget.
type Weight<V> = fn(&V) -> usize;

/// A bounded map from keys to shared, lazily built values (see the
/// module docs for the policy). `const`-constructible, so caches are
/// plain `static`s.
pub struct Memo<K, V> {
    cap: usize,
    /// The byte budget and the weight (heap bytes) of one value, if the
    /// memo is bounded by size as well as by key count.
    budget: Option<(usize, Weight<V>)>,
    hook: fn(MemoEvent),
    /// Entries in recency order: least recently used first.
    entries: Mutex<Vec<(K, Arc<Slot<V>>)>>,
}

impl<K: Copy + PartialEq, V> Memo<K, V> {
    /// An empty memo holding at most `cap` keys (`cap ≥ 1`) and
    /// reporting its events to `hook`.
    pub const fn new(cap: usize, hook: fn(MemoEvent)) -> Self {
        assert!(cap >= 1, "a memo must hold at least one key");
        Memo { cap, budget: None, hook, entries: Mutex::new(Vec::new()) }
    }

    /// An empty memo holding at most `cap` keys (`cap ≥ 1`) whose built
    /// values, each weighing `weight(value)` bytes, are trimmed to at
    /// most `bytes` after every build (see the module docs).
    pub const fn with_budget(
        cap: usize,
        bytes: usize,
        weight: fn(&V) -> usize,
        hook: fn(MemoEvent),
    ) -> Self {
        assert!(cap >= 1, "a memo must hold at least one key");
        Memo { cap, budget: Some((bytes, weight)), hook, entries: Mutex::new(Vec::new()) }
    }

    /// The value for `key`, built by `build` on first use and shared by
    /// every later lookup until the key is evicted.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let Ok(value) = self.get_or_try_build(key, || Ok::<V, Infallible>(build()));
        value
    }

    /// Fallible [`Memo::get_or_build`]: an `Err` from `build` is returned
    /// to this caller and not cached, so the next lookup retries.
    pub fn get_or_try_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let slot = {
            let mut entries = self.lock();
            match entries.iter().position(|(k, _)| *k == key) {
                Some(i) => entries[i..].rotate_left(1),
                None => {
                    if entries.len() >= self.cap {
                        entries.remove(0);
                        (self.hook)(MemoEvent::Evict);
                    }
                    let slot = Slot { value: OnceLock::new(), building: Mutex::new(()) };
                    entries.push((key, Arc::new(slot)));
                }
            }
            let slot = &entries.last().expect("the key was just placed last").1;
            if let Some(value) = slot.value.get() {
                (self.hook)(MemoEvent::Hit);
                return Ok(Arc::clone(value));
            }
            Arc::clone(slot)
        };
        // An evicted slot stays valid for the callers already holding
        // it. The building lock guards no data (the value is only set
        // after a build succeeds), so a panicked build's poison is moot.
        let building = slot.building.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = slot.value.get() {
            (self.hook)(MemoEvent::Hit);
            return Ok(Arc::clone(value));
        }
        (self.hook)(MemoEvent::Miss);
        let value = Arc::new(build()?);
        // Cannot fail: `value` is only ever set under `building`.
        let _ = slot.value.set(Arc::clone(&value));
        drop(building);
        if let Some((bytes, weight)) = self.budget {
            self.trim(&slot, bytes, weight);
        }
        Ok(value)
    }

    /// Evicts least-recently-used built entries other than `built` until
    /// the built values weigh at most `bytes`. Slots still building hold
    /// no value, so they are neither weighed nor evicted.
    fn trim(&self, built: &Arc<Slot<V>>, bytes: usize, weight: Weight<V>) {
        let mut entries = self.lock();
        let mut resident: usize =
            entries.iter().filter_map(|(_, s)| s.value.get()).map(|v| weight(v)).sum();
        let mut i = 0;
        while resident > bytes && i < entries.len() {
            match entries[i].1.value.get() {
                Some(v) if !Arc::ptr_eq(&entries[i].1, built) => {
                    resident -= weight(v);
                    entries.remove(i);
                    (self.hook)(MemoEvent::Evict);
                }
                _ => i += 1,
            }
        }
    }

    /// Takes the entry lock, reporting [`MemoEvent::Contention`] when it
    /// had to wait. Nothing that can panic runs under this lock except
    /// the hook and the weight, so a poisoned lock still guards a
    /// consistent list.
    fn lock(&self) -> MutexGuard<'_, Vec<(K, Arc<Slot<V>>)>> {
        match self.entries.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                (self.hook)(MemoEvent::Contention);
                self.entries.lock().unwrap_or_else(PoisonError::into_inner)
            }
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    thread_local! {
        /// Per-thread `[hit, miss, evict, contention]` tallies, so tests
        /// running in parallel each see only their own memo's events.
        static EVENTS: Cell<[u64; 4]> = const { Cell::new([0; 4]) };
    }

    fn tally(event: MemoEvent) {
        EVENTS.with(|e| {
            let mut counts = e.get();
            counts[event as usize] += 1;
            e.set(counts);
        });
    }

    /// `(hits, misses, evictions)` seen on this thread so far.
    fn events() -> (u64, u64, u64) {
        let [hit, miss, evict, _] = EVENTS.with(Cell::get);
        (hit, miss, evict)
    }

    #[test]
    fn evicts_the_least_recently_used_key() {
        let memo: Memo<u32, u32> = Memo::new(3, tally);
        let one = memo.get_or_build(1, || 10);
        memo.get_or_build(2, || 20);
        memo.get_or_build(3, || 30);
        // Touch 1: the recency order is now 2, 3, 1.
        assert!(Arc::ptr_eq(&one, &memo.get_or_build(1, || unreachable!())));
        memo.get_or_build(4, || 40); // evicts 2
        assert_eq!(events(), (1, 4, 1));
        assert!(Arc::ptr_eq(&one, &memo.get_or_build(1, || unreachable!())));
        memo.get_or_build(3, || unreachable!());
        memo.get_or_build(4, || unreachable!());
        // 2 was the cold entry: it rebuilds, evicting the now-oldest, 1.
        assert_eq!(*memo.get_or_build(2, || 21), 21);
        assert_eq!(events(), (4, 5, 2));
        assert_eq!(*memo.get_or_build(1, || 11), 11);
        assert_eq!(events(), (4, 6, 3));
    }

    #[test]
    fn holds_at_most_cap_keys() {
        let memo: Memo<u32, u32> = Memo::new(4, tally);
        for k in 0..10 {
            memo.get_or_build(k, || k);
        }
        assert_eq!(events(), (0, 10, 6));
        // The last four keys are resident; the first six rebuild.
        for k in 6..10 {
            memo.get_or_build(k, || unreachable!());
        }
        assert_eq!(events(), (4, 10, 6));
        memo.get_or_build(0, || 0);
        assert_eq!(events(), (4, 11, 7));
    }

    #[test]
    fn a_failed_build_is_not_cached_and_is_retried() {
        let memo: Memo<u32, u32> = Memo::new(2, tally);
        assert_eq!(memo.get_or_try_build(7, || Err("no")), Err("no"));
        assert_eq!(events(), (0, 1, 0));
        let built = memo.get_or_try_build(7, || Ok::<_, &str>(70)).unwrap();
        assert_eq!(*built, 70);
        assert_eq!(events(), (0, 2, 0));
        let again = memo.get_or_try_build(7, || Err("unreached")).unwrap();
        assert!(Arc::ptr_eq(&built, &again));
        assert_eq!(events(), (1, 2, 0));
    }

    #[test]
    fn a_panicking_build_is_retried() {
        let memo: Memo<u32, u32> = Memo::new(2, tally);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_build(5, || panic!("build failed"))
        }));
        assert!(caught.is_err());
        assert_eq!(*memo.get_or_build(5, || 50), 50);
    }

    #[test]
    fn racing_first_callers_build_once() {
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        static CALLERS: AtomicUsize = AtomicUsize::new(0);
        let memo: Memo<u32, Vec<u64>> = Memo::new(4, |_| {});
        let arcs: Vec<Arc<Vec<u64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        CALLERS.fetch_add(1, Ordering::SeqCst);
                        memo.get_or_build(9, || {
                            BUILDS.fetch_add(1, Ordering::SeqCst);
                            // Hold the build open until every caller has
                            // started its lookup.
                            while CALLERS.load(Ordering::SeqCst) < 8 {
                                std::thread::yield_now();
                            }
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            (0..1 << 16).collect()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(BUILDS.load(Ordering::SeqCst), 1);
        for a in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], a));
        }
    }

    /// Heap bytes (`vec![x; n]` allocates exactly `n`).
    fn heap_bytes(v: &Vec<u8>) -> usize {
        v.capacity()
    }

    #[test]
    fn a_byte_budget_drops_least_recently_used_built_entries_until_they_fit() {
        let memo: Memo<u32, Vec<u8>> = Memo::with_budget(8, 10, heap_bytes, tally);
        let one = memo.get_or_build(1, || vec![1; 4]);
        memo.get_or_build(2, || vec![2; 4]);
        assert_eq!(events(), (0, 2, 0));
        // Touch 1: the recency order is now 2, 1.
        assert!(Arc::ptr_eq(&one, &memo.get_or_build(1, || unreachable!())));
        // 12 bytes > 10: the least recently used, 2, goes.
        memo.get_or_build(3, || vec![3; 4]);
        assert_eq!(events(), (1, 3, 1));
        // 4 + 4 + 6 = 14 bytes: dropping 1 brings it to 10, which fits.
        memo.get_or_build(4, || vec![4; 6]);
        assert_eq!(events(), (1, 4, 2));
        memo.get_or_build(3, || unreachable!());
        memo.get_or_build(4, || unreachable!());
        assert_eq!(events(), (3, 4, 2));
        // Rebuilding 1 (14 bytes) drops 3, the least recently used.
        assert_eq!(*memo.get_or_build(1, || vec![5; 4]), vec![5; 4]);
        assert_eq!(events(), (3, 5, 3));
        memo.get_or_build(4, || unreachable!());
        assert_eq!(*memo.get_or_build(2, || vec![6; 4]), vec![6; 4]);
        // 1 + 4 + 2 held 14 bytes: dropping 1 alone brought them to 10.
        assert_eq!(events(), (4, 6, 4));
    }

    #[test]
    fn an_oversized_entry_stays_until_the_next_build() {
        let memo: Memo<u32, Vec<u8>> = Memo::with_budget(8, 10, heap_bytes, tally);
        memo.get_or_build(1, || vec![1; 4]);
        // 24 bytes: 1 goes, and the just-built 20-byte value stays alone.
        let big = memo.get_or_build(2, || vec![2; 20]);
        assert_eq!(events(), (0, 2, 1));
        assert!(Arc::ptr_eq(&big, &memo.get_or_build(2, || unreachable!())));
        assert_eq!(events(), (1, 2, 1));
        // The next build drops it.
        memo.get_or_build(3, || vec![3; 4]);
        assert_eq!(events(), (1, 3, 2));
        memo.get_or_build(3, || unreachable!());
        assert_eq!(*memo.get_or_build(2, || vec![7; 20]), vec![7; 20]);
        assert_eq!(events(), (2, 4, 3));
    }

    #[test]
    fn a_slot_still_building_is_neither_weighed_nor_evicted() {
        static EVICTS: AtomicUsize = AtomicUsize::new(0);
        static WEIGHED_HELD: AtomicUsize = AtomicUsize::new(0);
        fn weight(v: &Vec<u8>) -> usize {
            if v[0] == 1 {
                WEIGHED_HELD.fetch_add(1, Ordering::SeqCst);
            }
            v.capacity()
        }
        let memo: Memo<u32, Vec<u8>> = Memo::with_budget(8, 10, weight, |event| {
            if event == MemoEvent::Evict {
                EVICTS.fetch_add(1, Ordering::SeqCst);
            }
        });
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let memo = &memo;
        std::thread::scope(|s| {
            // Owned by this closure, so a failed assertion below drops it
            // and the held build fails instead of blocking the scope.
            let release_tx = release_tx;
            let held = s.spawn(move || {
                memo.get_or_build(1, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    vec![1; 4]
                })
            });
            started_rx.recv().unwrap();
            // Key 1 is the least recently used entry but holds no value.
            // 16 built bytes > 10: 2 goes, not the in-flight 1.
            memo.get_or_build(2, || vec![2; 8]);
            let three = memo.get_or_build(3, || vec![3; 8]);
            assert_eq!(EVICTS.load(Ordering::SeqCst), 1);
            assert_eq!(WEIGHED_HELD.load(Ordering::SeqCst), 0);
            release_tx.send(()).unwrap();
            let one = held.join().unwrap();
            // Key 1's own trim (4 + 8 bytes) dropped 3, not the value it
            // had just built, and 1 is still resident.
            assert_eq!(EVICTS.load(Ordering::SeqCst), 2);
            assert!(Arc::ptr_eq(&one, &memo.get_or_build(1, || unreachable!())));
            assert!(!Arc::ptr_eq(&three, &memo.get_or_build(3, || vec![3; 8])));
        });
    }

    #[test]
    fn racing_first_callers_build_once_under_a_budget() {
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        static CALLERS: AtomicUsize = AtomicUsize::new(0);
        static EVICTS: AtomicUsize = AtomicUsize::new(0);
        let memo: Memo<u32, Vec<u8>> = Memo::with_budget(4, 16, heap_bytes, |event| {
            if event == MemoEvent::Evict {
                EVICTS.fetch_add(1, Ordering::SeqCst);
            }
        });
        memo.get_or_build(1, || vec![1; 8]);
        let arcs: Vec<Arc<Vec<u8>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        CALLERS.fetch_add(1, Ordering::SeqCst);
                        memo.get_or_build(9, || {
                            BUILDS.fetch_add(1, Ordering::SeqCst);
                            while CALLERS.load(Ordering::SeqCst) < 8 {
                                std::thread::yield_now();
                            }
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            vec![9; 12]
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(BUILDS.load(Ordering::SeqCst), 1);
        for a in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], a));
        }
        // One build, one trim: 20 bytes drop key 1 once.
        assert_eq!(EVICTS.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&arcs[0], &memo.get_or_build(9, || unreachable!())));
    }
}
