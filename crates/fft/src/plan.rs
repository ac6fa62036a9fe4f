//! Precomputed FFT plans (radix-4 kernel, SoA twiddles) and a
//! thread-safe plan cache.
//!
//! The execution kernel is a radix-4 decimation-in-time pass pipeline
//! over base-2 bit-reversed data: two consecutive radix-2 stages are
//! merged into one radix-4 butterfly, halving the number of passes over
//! the data (and with them half the loads/stores of the classic radix-2
//! schedule). When `log₂ n` is odd, one trivial twiddle-free radix-2
//! stage at span 2 runs first, then radix-4 passes at spans 8, 32, …
//! cover the rest; even `log₂ n` runs radix-4 straight through at spans
//! 4, 16, …
//!
//! Twiddle factors live in split re/im (structure-of-arrays) tables so
//! the butterfly loop reads contiguous `f64` lanes instead of
//! interleaved pairs — the shape LLVM autovectorizes from plain loops
//! chunked at the workspace width ([`crate::LANES`]). Each butterfly is
//! per-`j` math independent of chunk boundaries, so the width cannot
//! change an output bit and results stay bit-identical across hosts
//! (see DESIGN.md §11 and §14).
//! Each twiddle is evaluated *directly* from `sin`/`cos` (never by
//! repeated multiplication), so the worst-case twiddle error is one ulp
//! regardless of `n`.
//!
//! [`plan_for`] memoizes plans in a global mutex-guarded map so the
//! analysis pipeline — which transforms the same handful of sizes
//! thousands of times (periodograms, Whittle sweeps, Davies–Harte
//! synthesis, Bluestein convolutions) — pays the setup cost once.
//!
//! [`reference_radix2`] keeps the pre-vectorization stage-by-stage
//! radix-2 kernel as the scalar twin: the property tests compare every
//! plan output against it at ≤1e-12 relative tolerance.

use crate::complex::Complex;
use crate::radix2::{is_pow2, Direction};
use crate::width::LANES;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A reusable execution plan for power-of-two FFTs of one fixed size.
#[derive(Debug, Clone)]
pub struct FftPlan {
    pub(crate) n: usize,
    /// `bit_rev[i]` = bit-reversed index of `i` (length `n`).
    pub(crate) bit_rev: Vec<u32>,
    /// Real parts of the radix-4 twiddles, stage-major. For the stage
    /// with butterfly span `len` (quarter `L = len/4`) the stage block
    /// is `[w1(L) | w2(L) | w3(L)]` with `wk[j] = exp(-2πi·k·j/len)`;
    /// stages appear in execution order (span 4 or 8 first). Inverse
    /// transforms conjugate on the fly.
    pub(crate) tw_re: Vec<f64>,
    /// Imaginary parts, same layout as `tw_re`.
    pub(crate) tw_im: Vec<f64>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n` (a power of two).
    pub fn new(n: usize) -> FftPlan {
        assert!(is_pow2(n), "FFT plans require a power-of-two length, got {n}");
        assert!(n <= u32::MAX as usize, "FFT plan size {n} exceeds table range");

        let mut bit_rev = vec![0u32; n];
        let mut j = 0usize;
        for r in bit_rev.iter_mut().skip(1) {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            *r = j as u32;
        }

        // Radix-4 stage spans: 4, 16, … for even log₂ n; 8, 32, … after
        // the trivial span-2 stage for odd log₂ n. Total table length is
        // 3·(L₁ + L₂ + …) ≈ n (same footprint as the radix-2 table).
        let mut tw_re = Vec::new();
        let mut tw_im = Vec::new();
        let mut len = first_radix4_span(n);
        while len <= n {
            let quarter = len / 4;
            let step = -2.0 * std::f64::consts::PI / len as f64;
            for k in 1..=3usize {
                for j in 0..quarter {
                    let (s, c) = (step * (k * j) as f64).sin_cos();
                    tw_re.push(c);
                    tw_im.push(s);
                }
            }
            len <<= 2;
        }

        FftPlan { n, bit_rev, tw_re, tw_im }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-zero plan (never constructed by
    /// [`FftPlan::new`], which requires a power of two ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward transform — the zero-allocation entry point used
    /// by the streaming pipeline (`buf` is the caller's reusable block
    /// buffer; the kernel needs no separate scratch).
    #[inline]
    pub fn forward(&self, buf: &mut [Complex]) {
        self.run::<true>(buf);
    }

    /// In-place inverse transform (unnormalised — divide by `len()` for
    /// the true inverse). Zero allocation.
    #[inline]
    pub fn inverse(&self, buf: &mut [Complex]) {
        self.run::<false>(buf);
    }

    /// In-place transform of `data` (length must equal the plan size).
    pub fn process(&self, data: &mut [Complex], dir: Direction) {
        match dir {
            Direction::Forward => self.run::<true>(data),
            Direction::Inverse => self.run::<false>(data),
        }
    }

    fn run<const FWD: bool>(&self, data: &mut [Complex]) {
        let n = self.n;
        assert_eq!(data.len(), n, "plan is for length {n}, got {}", data.len());
        if n <= 1 {
            return;
        }

        for i in 1..n {
            let j = self.bit_rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }

        // Odd log₂ n: one twiddle-free radix-2 stage (w = 1 throughout,
        // same for both directions) brings the remaining stage count to
        // an even number for the radix-4 pipeline.
        let mut len = first_radix4_span(n);
        if len == 8 {
            for pair in data.chunks_exact_mut(2) {
                let u = pair[0];
                let v = pair[1];
                pair[0] = u + v;
                pair[1] = u - v;
            }
            if n == 2 {
                return;
            }
        }

        let mut base = 0usize;
        while len <= n {
            let quarter = len / 4;
            let stage_re = &self.tw_re[base..base + 3 * quarter];
            let stage_im = &self.tw_im[base..base + 3 * quarter];
            radix4_stage::<FWD>(data, len, stage_re, stage_im);
            base += 3 * quarter;
            len <<= 2;
        }
    }
}

/// Span of the first radix-4 stage for length `n`: 4 when `log₂ n` is
/// even, 8 when odd (a span-2 radix-2 stage runs first). Returns 8 for
/// `n = 2` as well, which the caller treats as "radix-2 stage only".
#[inline]
pub(crate) fn first_radix4_span(n: usize) -> usize {
    if n.trailing_zeros().is_multiple_of(2) {
        4
    } else {
        8
    }
}

/// One radix-4 pass over every span-`len` chunk of `data`.
///
/// The butterfly merges the two radix-2 stages at spans `len/2` and
/// `len`. With `W = exp(-2πi/len)`, `L = len/4` and sub-blocks
/// `A,B,C,D` at offsets `0, L, 2L, 3L`:
///
/// ```text
/// out[j]      = (A + W²ʲB) + (WʲC + W³ʲD)
/// out[j + L]  = (A − W²ʲB) ∓ i(WʲC − W³ʲD)    (− forward, + inverse)
/// out[j + 2L] = (A + W²ʲB) − (WʲC + W³ʲD)
/// out[j + 3L] = (A − W²ʲB) ± i(WʲC − W³ʲD)
/// ```
///
/// The inverse additionally conjugates the twiddles. Every output lane
/// depends only on its own `j`, so results are independent of how the
/// loop is chunked — which is exactly why the [`LANES`]-chunked unroll
/// below cannot change an output bit (the determinism contract for all
/// kernels in this workspace).
#[inline]
fn radix4_stage<const FWD: bool>(
    data: &mut [Complex],
    len: usize,
    w_re: &[f64],
    w_im: &[f64],
) {
    let quarter = len / 4;
    let (w1re, rest) = w_re.split_at(quarter);
    let (w2re, w3re) = rest.split_at(quarter);
    let (w1im, rest) = w_im.split_at(quarter);
    let (w2im, w3im) = rest.split_at(quarter);

    for chunk in data.chunks_exact_mut(len) {
        let (q0, rest) = chunk.split_at_mut(quarter);
        let (q1, rest) = rest.split_at_mut(quarter);
        let (q2, q3) = rest.split_at_mut(quarter);
        // LANES independent butterflies per iteration; LLVM vectorizes
        // the straight-line lane bodies.
        let main = quarter - quarter % LANES;
        let mut j = 0;
        while j < main {
            for l in 0..LANES {
                radix4_butterfly::<FWD>(
                    q0, q1, q2, q3, w1re, w1im, w2re, w2im, w3re, w3im,
                    j + l,
                );
            }
            j += LANES;
        }
        for j in main..quarter {
            radix4_butterfly::<FWD>(q0, q1, q2, q3, w1re, w1im, w2re, w2im, w3re, w3im, j);
        }
    }
}

/// One radix-4 butterfly at index `j` — the single source of butterfly
/// arithmetic for the chunked and remainder loops of [`radix4_stage`].
#[expect(clippy::too_many_arguments, reason = "split-borrow SoA hot path")]
#[inline(always)]
fn radix4_butterfly<const FWD: bool>(
    q0: &mut [Complex],
    q1: &mut [Complex],
    q2: &mut [Complex],
    q3: &mut [Complex],
    w1re: &[f64],
    w1im: &[f64],
    w2re: &[f64],
    w2im: &[f64],
    w3re: &[f64],
    w3im: &[f64],
    j: usize,
) {
    let (o0, o1, o2, o3) = radix4_core::<FWD>(
        q0[j],
        q1[j],
        q2[j],
        q3[j],
        w1re[j],
        w1im[j],
        w2re[j],
        w2im[j],
        w3re[j],
        w3im[j],
    );
    q0[j] = o0;
    q1[j] = o1;
    q2[j] = o2;
    q3[j] = o3;
}

/// The radix-4 butterfly on *values* — the single source of butterfly
/// arithmetic shared by the scalar plan kernel above and the
/// lane-parallel batch kernel (`crate::batch`). Because both execute
/// this exact expression sequence per element, a lane-batched transform
/// is bit-identical to the scalar transform of each lane by
/// construction (DESIGN.md §16).
#[expect(clippy::too_many_arguments, reason = "split re/im value hot path")]
#[inline(always)]
pub(crate) fn radix4_core<const FWD: bool>(
    a: Complex,
    b: Complex,
    c: Complex,
    d: Complex,
    r1: f64,
    w1: f64,
    r2: f64,
    w2: f64,
    r3: f64,
    w3: f64,
) -> (Complex, Complex, Complex, Complex) {
    let (i1, i2, i3) = if FWD { (w1, w2, w3) } else { (-w1, -w2, -w3) };
    // W²ʲ·B, Wʲ·C, W³ʲ·D in split re/im form.
    let tb_re = b.re * r2 - b.im * i2;
    let tb_im = b.re * i2 + b.im * r2;
    let tc_re = c.re * r1 - c.im * i1;
    let tc_im = c.re * i1 + c.im * r1;
    let td_re = d.re * r3 - d.im * i3;
    let td_im = d.re * i3 + d.im * r3;
    let s0_re = a.re + tb_re;
    let s0_im = a.im + tb_im;
    let s1_re = a.re - tb_re;
    let s1_im = a.im - tb_im;
    let s2_re = tc_re + td_re;
    let s2_im = tc_im + td_im;
    let s3_re = tc_re - td_re;
    let s3_im = tc_im - td_im;
    let o0 = Complex::new(s0_re + s2_re, s0_im + s2_im);
    let o2 = Complex::new(s0_re - s2_re, s0_im - s2_im);
    let (o1, o3) = if FWD {
        // ∓i rotation: s1 − i·s3 and s1 + i·s3.
        (
            Complex::new(s1_re + s3_im, s1_im - s3_re),
            Complex::new(s1_re - s3_im, s1_im + s3_re),
        )
    } else {
        (
            Complex::new(s1_re - s3_im, s1_im + s3_re),
            Complex::new(s1_re + s3_im, s1_im - s3_re),
        )
    };
    (o0, o1, o2, o3)
}

/// The scalar twin of the plan kernel: the classic stage-by-stage
/// radix-2 schedule with directly-evaluated twiddles, exactly as the
/// plan executed it before the radix-4 rewrite.
///
/// Kept (and exported) as the property-test oracle — `tests/proptests.rs`
/// checks every plan output against this at ≤1e-12 relative tolerance.
/// It allocates its twiddles per call and makes twice the passes over
/// the data, so production code should always go through [`FftPlan`].
pub fn reference_radix2(data: &mut [Complex], dir: Direction) {
    let n = data.len();
    assert!(is_pow2(n), "radix-2 FFT requires a power-of-two length, got {n}");
    if n <= 1 {
        return;
    }
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    let forward = dir == Direction::Forward;
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        let step = if forward { -2.0 } else { 2.0 } * std::f64::consts::PI / len as f64;
        let stage: Vec<Complex> = (0..half).map(|i| Complex::cis(step * i as f64)).collect();
        for chunk in data.chunks_mut(len) {
            for (i, &w) in stage.iter().enumerate() {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
            }
        }
        len <<= 1;
    }
}

/// Plans are evicted (least-recently-used first) once the cache holds
/// this many distinct sizes; a plan costs ~20 bytes/point, so the bound
/// keeps the cache under a few hundred MB even at the 2^20 paper scale.
const MAX_CACHED_PLANS: usize = 32;

/// The live cache bound, defaulting to [`MAX_CACHED_PLANS`]. Mutable so
/// memory-constrained embedders can shrink it and tests can exercise
/// the eviction path without warming 33 distinct transform sizes.
static PLAN_CACHE_CAP: AtomicU64 = AtomicU64::new(MAX_CACHED_PLANS as u64);

/// Sets how many distinct sizes the plan cache may hold before it
/// starts evicting least-recently-used plans (clamped to ≥ 1). Already
/// cached plans above the new bound are evicted lazily, on the next
/// admission.
pub fn set_plan_cache_capacity(cap: usize) {
    PLAN_CACHE_CAP.store(cap.max(1) as u64, Ordering::Relaxed);
}

/// Cache instrumentation. `vbr-fft` sits *below* `vbr-stats` in the
/// dependency graph, so it cannot call the `vbr_stats::obs` facade;
/// instead it keeps plain relaxed atomics here and the facade reads
/// them through [`plan_cache_stats`] / [`plan_size_histogram`].
static PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_MISSES: AtomicU64 = AtomicU64::new(0);
static PLAN_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static PLAN_CONTENTION: AtomicU64 = AtomicU64::new(0);
/// Requests per transform size, indexed by `log₂ n` (sizes are always
/// powers of two, `n ≤ u32::MAX`).
static PLAN_SIZE_HIST: [AtomicU64; 33] = [const { AtomicU64::new(0) }; 33];

/// Locks a plan-cache mutex, counting the times a caller actually had
/// to wait. The caches hold their lock only for lookup/insert — plans
/// are built and executed outside it — so under the many-shards serving
/// load this counter staying near zero *proves* the lock-scope claim
/// (it is exported as the `plan_cache_contention` obs counter).
pub(crate) fn lock_counting_contention<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::WouldBlock) => {
            PLAN_CONTENTION.fetch_add(1, Ordering::Relaxed);
            m.lock().expect("FFT plan cache poisoned")
        }
        Err(std::sync::TryLockError::Poisoned(_)) => panic!("FFT plan cache poisoned"),
    }
}

/// Monotonic counters of the global plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to build a plan.
    pub misses: u64,
    /// Least-recently-used plans dropped to admit a new size.
    pub evictions: u64,
    /// Lock acquisitions that had to wait for another thread (covers
    /// the complex and real plan caches).
    pub contention: u64,
}

/// Snapshot of the plan cache counters (process-global, monotonic).
pub fn plan_cache_stats() -> PlanCacheStats {
    PlanCacheStats {
        hits: PLAN_HITS.load(Ordering::Relaxed),
        misses: PLAN_MISSES.load(Ordering::Relaxed),
        evictions: PLAN_EVICTIONS.load(Ordering::Relaxed),
        contention: PLAN_CONTENTION.load(Ordering::Relaxed),
    }
}

/// Requests per transform size as `(n, count)`, ascending, non-empty
/// sizes only.
pub fn plan_size_histogram() -> Vec<(u64, u64)> {
    PLAN_SIZE_HIST
        .iter()
        .enumerate()
        .filter_map(|(log2, c)| {
            let count = c.load(Ordering::Relaxed);
            (count > 0).then_some((1u64 << log2, count))
        })
        .collect()
}

/// Zeroes the plan cache counters and size histogram (test isolation
/// and report epochs only).
pub fn reset_plan_cache_stats() {
    PLAN_HITS.store(0, Ordering::Relaxed);
    PLAN_MISSES.store(0, Ordering::Relaxed);
    PLAN_EVICTIONS.store(0, Ordering::Relaxed);
    PLAN_CONTENTION.store(0, Ordering::Relaxed);
    for c in &PLAN_SIZE_HIST {
        c.store(0, Ordering::Relaxed);
    }
}

/// The cached plans plus a logical clock: each access stamps its entry,
/// and eviction removes the entry with the oldest stamp.
struct PlanCache {
    map: HashMap<usize, (Arc<FftPlan>, u64)>,
    tick: u64,
}

fn cache() -> &'static Mutex<PlanCache> {
    static CACHE: OnceLock<Mutex<PlanCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(PlanCache { map: HashMap::new(), tick: 0 }))
}

/// Returns the shared plan for length `n` (a power of two), building and
/// caching it on first use. Thread-safe; the lock is held only for the
/// map lookup, never during plan construction or execution.
///
/// The cache holds at most [`MAX_CACHED_PLANS`] sizes; admitting a new
/// size beyond that evicts the least-recently-used plan only. (The old
/// policy refused to cache new sizes once full, so a long-running
/// process that warmed 32 stale sizes paid full plan construction on
/// every later call forever.)
pub fn plan_for(n: usize) -> Arc<FftPlan> {
    assert!(is_pow2(n), "FFT plans require a power-of-two length, got {n}");
    PLAN_SIZE_HIST[n.trailing_zeros() as usize].fetch_add(1, Ordering::Relaxed);
    {
        let mut cache = lock_counting_contention(cache());
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((plan, stamp)) = cache.map.get_mut(&n) {
            *stamp = tick;
            PLAN_HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        PLAN_MISSES.fetch_add(1, Ordering::Relaxed);
    }
    // Built outside the lock: concurrent first callers may race to build
    // the same plan, but the loser's copy is simply dropped.
    let plan = Arc::new(FftPlan::new(n));
    let mut cache = lock_counting_contention(cache());
    cache.tick += 1;
    let tick = cache.tick;
    let cap = PLAN_CACHE_CAP.load(Ordering::Relaxed) as usize;
    while !cache.map.contains_key(&n) && cache.map.len() >= cap {
        let Some(cold) = cache.map.iter().min_by_key(|&(_, &(_, s))| s).map(|(&k, _)| k) else {
            break;
        };
        cache.map.remove(&cold);
        PLAN_EVICTIONS.fetch_add(1, Ordering::Relaxed);
    }
    let entry = cache.map.entry(n).or_insert((plan, tick));
    entry.1 = tick;
    Arc::clone(&entry.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close_rel(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        let scale = b.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() <= tol * scale, "{x:?} vs {y:?} (scale {scale})");
        }
    }

    #[test]
    fn plan_matches_reference_for_all_small_sizes() {
        // Covers both parities of log₂ n (pure radix-4 and radix-2+4).
        for &n in &[1usize, 2, 4, 8, 16, 32, 64, 128, 512, 1024, 4096] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut via_plan = x.clone();
                plan_for(n).process(&mut via_plan, dir);
                let mut via_ref = x.clone();
                reference_radix2(&mut via_ref, dir);
                assert_close_rel(&via_plan, &via_ref, 1e-12);
            }
        }
    }

    #[test]
    fn forward_inverse_entry_points_match_process() {
        let n = 256;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.3).cos(), (i as f64 * 0.9).sin()))
            .collect();
        let plan = plan_for(n);
        let mut a = x.clone();
        plan.forward(&mut a);
        let mut b = x.clone();
        plan.process(&mut b, Direction::Forward);
        assert_eq!(a, b);
        plan.inverse(&mut a);
        plan.process(&mut b, Direction::Inverse);
        assert_eq!(a, b);
    }

    #[test]
    fn cache_returns_same_plan() {
        let a = plan_for(1024);
        let b = plan_for(1024);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 1024);
    }

    #[test]
    fn twiddle_table_layout() {
        // n = 8 (odd log₂): trivial span-2 stage, then one radix-4 stage
        // at span 8 with quarter L = 2 → tables are [w1(2)|w2(2)|w3(2)].
        let p = FftPlan::new(8);
        assert_eq!(p.tw_re.len(), 6);
        assert_eq!(p.tw_im.len(), 6);
        // Every sub-table starts at w_0 = 1.
        for &base in &[0usize, 2, 4] {
            assert!((p.tw_re[base] - 1.0).abs() < 1e-15);
            assert!(p.tw_im[base].abs() < 1e-15);
        }
        // w1[1] = exp(-2πi/8), w2[1] = exp(-2πi·2/8) = -i.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((p.tw_re[1] - s).abs() < 1e-15 && (p.tw_im[1] + s).abs() < 1e-15);
        assert!(p.tw_re[3].abs() < 1e-15 && (p.tw_im[3] + 1.0).abs() < 1e-15);

        // n = 16 (even log₂): radix-4 stages at spans 4 (L=1) and 16
        // (L=4) → 3·1 + 3·4 = 15 twiddles.
        let p = FftPlan::new(16);
        assert_eq!(p.tw_re.len(), 15);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_rejected() {
        FftPlan::new(12);
    }

    #[test]
    fn round_trip_accuracy_at_2_pow_20() {
        // Regression for the twiddle-drift fix: with accumulated
        // twiddles (`w *= wlen`), a 2^20-point transform drifts visibly;
        // direct tables keep the round-trip at the few-ulp level.
        let n = 1 << 20;
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new((t * 0.001).sin() + 0.25 * (t * 0.013).cos(), (t * 0.007).cos())
            })
            .collect();
        let plan = plan_for(n);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        plan.process(&mut y, Direction::Inverse);
        let scale = 1.0 / n as f64;
        let mut worst = 0.0f64;
        for (orig, got) in x.iter().zip(&y) {
            worst = worst.max((*orig - got.scale(scale)).abs());
        }
        assert!(worst < 1e-10, "2^20 round-trip error {worst}");
    }
}
