//! The periodogram (empirical power spectral density) — Fig 8, and the
//! input to Whittle's estimator (Table 3).
//!
//! Whittle, local Whittle and the periodogram regression all read the
//! periodogram of the series they are given, and a paper-scale analysis
//! hands the same series to several of them (Table 3's report, the
//! robust ensemble, a bake-off's estimator panel). At a length that is
//! not a power of two each periodogram is a Bluestein transform, so
//! [`Periodogram::of`] keeps the most recent ones in one bounded
//! [`Memo`] keyed by the series itself.

use std::sync::Arc;

use vbr_fft::{power_spectrum, Memo, MemoEvent};

use crate::obs::{self, Counter};

/// Series whose periodograms [`Periodogram::of`] keeps: the distinct
/// series one paper-scale fit requests (the trace, its log and the log's
/// aggregations, a round-trip synthetic, the bake-off members'), so the
/// trace's periodogram survives from Table 3's report to the bake-off.
pub const MEMO_CAPACITY: usize = 8;

/// A memoized periodogram with the series bits it is of.
struct Memoized {
    bits: Box<[u64]>,
    pg: Arc<Periodogram>,
}

fn count(event: MemoEvent) {
    let c = match event {
        MemoEvent::Hit => Counter::PeriodogramHit,
        MemoEvent::Miss => Counter::PeriodogramMiss,
        MemoEvent::Evict => Counter::PeriodogramEvict,
        MemoEvent::Contention => Counter::PlanCacheContention,
    };
    obs::counter_add(c, 1);
}

/// Periodograms by `(length, series hash)`.
static MEMO: Memo<(usize, u64), Memoized> = Memo::new(MEMO_CAPACITY, count);

/// The memo key of `xs`: its length and a word-wise hash of its `f64`
/// bit patterns (so `0.0` and `-0.0` differ, as they do to the FFT).
fn series_key(xs: &[f64]) -> (usize, u64) {
    let h = xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
    });
    (xs.len(), h)
}

/// A periodogram: Fourier frequencies `ω_j = 2πj/n` and intensities
/// `I(ω_j) = |Σ x_t e^{-iω_j t}|² / (2πn)` for `j = 1..=⌊n/2⌋`.
#[derive(Debug, Clone)]
pub struct Periodogram {
    freqs: Vec<f64>,
    power: Vec<f64>,
}

impl Periodogram {
    /// Computes the periodogram of a (mean-removed) series.
    ///
    /// The mean is subtracted internally, so the DC bin is excluded by
    /// construction; frequencies run from `2π/n` up to `π`.
    pub fn compute(xs: &[f64]) -> Self {
        let n = xs.len();
        assert!(n >= 2, "periodogram needs at least 2 points");
        let mean = xs.iter().sum::<f64>() / n as f64;
        let centred: Vec<f64> = xs.iter().map(|&x| x - mean).collect();
        let spec = power_spectrum(&centred);
        let half = n / 2;
        let norm = 1.0 / (2.0 * std::f64::consts::PI * n as f64);
        let freqs = (1..=half)
            .map(|j| 2.0 * std::f64::consts::PI * j as f64 / n as f64)
            .collect();
        let power = (1..=half).map(|j| spec[j] * norm).collect();
        Periodogram { freqs, power }
    }

    /// [`Periodogram::compute`] of `xs`, shared with every caller that
    /// asks for the same series while it stays among the
    /// [`MEMO_CAPACITY`] most recently used.
    ///
    /// The memo holds a copy of each series' bits and serves a stored
    /// periodogram only to a series with exactly those bits; a series
    /// whose key collides with another's gets its own, uncached. Racing
    /// first callers of one series wait for a single build. The result
    /// is bit-identical to [`Periodogram::compute`] either way.
    pub fn of(xs: &[f64]) -> Arc<Periodogram> {
        Self::of_keyed(series_key(xs), xs)
    }

    /// [`Periodogram::of`] under an explicit key (tests force collisions
    /// through it).
    pub(crate) fn of_keyed(key: (usize, u64), xs: &[f64]) -> Arc<Periodogram> {
        let memoized = MEMO.get_or_build(key, || Memoized {
            bits: xs.iter().map(|x| x.to_bits()).collect(),
            pg: Arc::new(Periodogram::compute(xs)),
        });
        let same = memoized.bits.len() == xs.len()
            && memoized.bits.iter().zip(xs).all(|(&b, x)| b == x.to_bits());
        if same {
            Arc::clone(&memoized.pg)
        } else {
            Arc::new(Periodogram::compute(xs))
        }
    }

    /// Fourier frequencies in radians per sample, ascending.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Periodogram ordinates `I(ω_j)`.
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Number of ordinates (`⌊n/2⌋`).
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// True when no ordinates exist.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Log-log slope `−α` over the lowest `fraction` of frequencies —
    /// the LRD power-law exponent of Fig 8 (`I(ω) ~ ω^{−α}` as ω → 0,
    /// with `α = 2H − 1`).
    pub fn low_freq_slope(&self, fraction: f64) -> crate::regression::LineFit {
        assert!(fraction > 0.0 && fraction <= 1.0);
        let m = ((self.freqs.len() as f64 * fraction) as usize).max(2);
        crate::regression::fit_loglog(&self.freqs[..m], &self.power[..m])
    }

    /// Total power `Σ I(ω_j) · 2π/n ≈ σ²/2` sanity quantity — by
    /// Parseval the periodogram over all ±frequencies integrates to the
    /// series variance.
    pub fn total_power(&self) -> f64 {
        // Ordinates cover only positive frequencies; double to account for
        // the mirrored half.
        let n = 2 * self.freqs.len();
        2.0 * self.power.iter().sum::<f64>() * 2.0 * std::f64::consts::PI / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn pure_tone_peaks_at_its_frequency() {
        let n = 1024;
        let f = 50;
        let xs: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f as f64 * i as f64 / n as f64).sin())
            .collect();
        let p = Periodogram::compute(&xs);
        let (argmax, _) = p
            .power()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        // Ordinate j corresponds to frequency index j+1.
        assert_eq!(argmax + 1, f);
    }

    #[test]
    fn parseval_total_power_matches_variance() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let xs: Vec<f64> = (0..4096).map(|_| rng.standard_normal() * 3.0).collect();
        let p = Periodogram::compute(&xs);
        let var = {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
        };
        assert!(
            (p.total_power() - var).abs() / var < 0.01,
            "{} vs {var}",
            p.total_power()
        );
    }

    #[test]
    fn white_noise_spectrum_is_flat() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let xs: Vec<f64> = (0..65_536).map(|_| rng.standard_normal()).collect();
        let p = Periodogram::compute(&xs);
        // Average the ordinates in the lowest and highest decades; for
        // white noise they must agree (no ω^-α blow-up).
        let k = p.len() / 10;
        let low: f64 = p.power()[..k].iter().sum::<f64>() / k as f64;
        let high: f64 = p.power()[p.len() - k..].iter().sum::<f64>() / k as f64;
        assert!((low / high - 1.0).abs() < 0.1, "low {low} high {high}");
        let fit = p.low_freq_slope(0.1);
        assert!(fit.slope.abs() < 0.1, "slope {}", fit.slope);
    }

    #[test]
    fn ar1_has_negative_low_freq_slope_but_finite_limit() {
        // AR(1) is SRD: spectrum is elevated at low frequency but flattens
        // (slope → 0 as ω → 0 at the very lowest frequencies for long
        // series). We just check it's far from white.
        let mut rng = Xoshiro256::seed_from_u64(6);
        let n = 32_768;
        let mut xs = Vec::with_capacity(n);
        let mut x = 0.0;
        for _ in 0..n {
            x = 0.9 * x + rng.standard_normal();
            xs.push(x);
        }
        let p = Periodogram::compute(&xs);
        let k = p.len() / 10;
        let low: f64 = p.power()[..k].iter().sum::<f64>() / k as f64;
        let high: f64 = p.power()[p.len() - k..].iter().sum::<f64>() / k as f64;
        assert!(low / high > 10.0);
    }

    /// The memo and its counters are process-global: its tests take
    /// turns so each sees only its own events.
    static MEMO_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn memo_events() -> (u64, u64) {
        let v = |c| crate::obs::counter_value(c);
        (v(Counter::PeriodogramHit), v(Counter::PeriodogramMiss))
    }

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n).map(|_| rng.standard_normal()).collect()
    }

    fn pg_bits(p: &Periodogram) -> Vec<u64> {
        p.freqs().iter().chain(p.power()).map(|x| x.to_bits()).collect()
    }

    #[test]
    fn memo_hits_equal_compute_bit_for_bit() {
        let _turn = MEMO_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        // Even (Bluestein), odd (Bluestein) and power-of-two lengths.
        for (n, seed) in [(3_000, 21), (2_999, 22), (4_096, 23)] {
            let xs = noise(n, seed);
            let reference = pg_bits(&Periodogram::compute(&xs));
            let (h0, m0) = memo_events();
            let first = Periodogram::of(&xs);
            let again = Periodogram::of(&xs.clone());
            assert_eq!(memo_events(), (h0 + 1, m0 + 1), "n = {n}");
            assert!(Arc::ptr_eq(&first, &again), "n = {n}");
            assert_eq!(pg_bits(&again), reference, "n = {n}");
            assert_eq!(again.len(), n / 2);
        }
    }

    #[test]
    fn a_key_collision_gets_its_own_periodogram_and_caches_nothing() {
        let _turn = MEMO_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let a = noise(2_000, 31);
        let mut b = a.clone();
        b[1_000] += 1.0;
        let key = series_key(&a);
        let cached = Periodogram::of(&a);
        let (_, misses) = memo_events();
        let collided = Periodogram::of_keyed(key, &b);
        assert_eq!(pg_bits(&collided), pg_bits(&Periodogram::compute(&b)));
        assert_ne!(pg_bits(&collided), pg_bits(&cached));
        // Nothing was built into the memo: `a` is still served, and `b`
        // under its own key is a first use.
        assert_eq!(memo_events().1, misses);
        assert!(Arc::ptr_eq(&cached, &Periodogram::of(&a)));
        assert!(!Arc::ptr_eq(&collided, &Periodogram::of_keyed(key, &b)));
        Periodogram::of(&b);
        assert_eq!(memo_events().1, misses + 1);
    }

    #[test]
    fn racing_first_callers_build_once() {
        let _turn = MEMO_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        for (threads, seed) in [(2, 41), (3, 42)] {
            // A Bluestein length, long enough that the callers overlap.
            let xs = noise(100_001, seed);
            let (_, misses) = memo_events();
            let start = std::sync::Barrier::new(threads);
            let got: Vec<Arc<Periodogram>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            Periodogram::of(&xs)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(memo_events().1, misses + 1, "{threads} threads");
            assert!(got.iter().all(|p| Arc::ptr_eq(p, &got[0])), "{threads} threads");
        }
    }

    #[test]
    fn frequencies_ascend_to_pi() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let p = Periodogram::compute(&xs);
        assert_eq!(p.len(), 50);
        assert!(p.freqs().windows(2).all(|w| w[0] < w[1]));
        assert!((p.freqs()[p.len() - 1] - std::f64::consts::PI).abs() < 1e-12);
    }
}
