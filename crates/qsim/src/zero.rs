//! The exact zero-loss capacity behind `LossTarget::Zero` searches.
//!
//! With the buffer tied to the capacity (`Q = C·T_max`), a fluid queue
//! fed from empty loses nothing iff no window of `k ≥ 1` slots offers
//! more than the queue can serve and hold in it:
//! `A(s, s+k] ≤ C·(k·dt + T_max)` (Cruz 1991; Le Boudec & Thiran 2001).
//! So the smallest lossless capacity is the largest window ratio
//! `C* = max A(s, s+k] / (k·dt + T_max)`, over every window of every lag
//! combination, and one streaming pass per combination finds it:
//! [`WindowScan`] keeps exact integer prefix sums and the lower convex
//! hull of the prefix points, pruned from the front by the best ratio so
//! far, and compares windows by exact integer cross-products.
//!
//! [`ZeroLoss::verdict`] turns `C*` into a replay's verdict at a
//! bisection midpoint without replaying, except within a margin of `C*`
//! that bounds the float error of `queue.rs`'s per-slot ops; there it
//! returns `None` and the search replays. DESIGN.md §10 ("Exact
//! zero-loss capacity") derives the margin and the error of `C*`.

use crate::search::STREAM_CHUNK;

/// Unit roundoff of `f64` arithmetic (round to nearest): every op's
/// result is within a factor `1 ± U` of the exact one.
const U: f64 = f64::EPSILON / 2.0;

/// Most candidate points one combination's scan holds: one replay
/// chunk's slot count (128 KiB of points). Only adversarial arrivals,
/// such as a long convex run of the cumulative arrivals under a large
/// `T_max`, fill it; the search then replays instead (DESIGN.md §10).
const HULL_CAP: usize = STREAM_CHUNK;

/// Fractional bits of the fixed-point window lengths `k + T_max/dt`:
/// at most 40 (a relative rounding of `2⁻⁴¹`), fewer when the trace is
/// so long that `k·2^F` would leave 62 bits, and no exact scan below
/// 20.
const MAX_FRAC_BITS: u32 = 40;
const MIN_FRAC_BITS: u32 = 20;

/// Relative slack on the margin: it covers the `(1 + U)³` of the busy
/// period bound (which rounds away in `f64`) and the roundings in
/// evaluating the margin (under twenty ops on positive operands, each
/// shrinking the value by at most a factor `1 − U`), as `2⁻⁴⁰ ≫ 23·U`.
const MARGIN_ROUNDING: f64 = 1.0 / (1u64 << 40) as f64;

/// Window lengths in fixed point: `k` slots plus `τ = T_max/dt` is
/// `(k·2^frac + tau) / 2^frac`, exact for integer `k`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    frac: u32,
    tau: u64,
}

impl Scale {
    /// The scale for replays of `slots` slots of `dt` seconds at
    /// `t_max_secs`, or `None` when no 20-bit fraction fits 62 bits.
    /// Every window length, its fixed-point value and every prefix sum
    /// then fits 64 bits, and every product compared fits 128.
    pub(crate) fn new(slots: usize, dt: f64, t_max_secs: f64) -> Option<Scale> {
        let tau = t_max_secs / dt;
        if !(tau >= 0.0 && tau < (1u64 << 42) as f64) {
            return None;
        }
        let span = (slots as u64).checked_add(tau.ceil() as u64 + 2)?;
        let bits = u64::BITS - span.leading_zeros();
        let frac = MAX_FRAC_BITS.min(62u32.checked_sub(bits)?);
        (frac >= MIN_FRAC_BITS).then(|| Scale {
            frac,
            tau: (tau * (1u64 << frac) as f64).round() as u64,
        })
    }

    /// `(k + τ)·2^frac` for a window of `k` slots.
    fn length(self, k: u64) -> u128 {
        ((k << self.frac) + self.tau) as u128
    }

    /// `k·2^frac`: a run of `k` slots with no `τ`, the hull's run.
    fn run(self, k: u64) -> u128 {
        (k << self.frac) as u128
    }
}

/// The best window of one combination's arrivals.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window {
    arrivals: u64,
    slots: u64,
    /// Largest one-slot arrival of the whole stream.
    peak: u64,
}

/// One combination's pass: the largest `A(s, t] / (t − s + τ)` over its
/// windows, by exact integer arithmetic on the fixed-point `τ` of its
/// [`Scale`].
///
/// With `r` the best ratio so far, a window `(s, t]` beats it iff
/// `P_t − r·(t + τ) > g(s)`, where `g(s) = P_s − r·s`. The scan keeps
/// candidate starts: prefix points `(s, P_s)`, `s < t`, whose `g` rises
/// strictly from front to back. A new point drops every candidate behind
/// it with a `g` no smaller than its own, because under any larger `r`
/// the later point's `g` falls further, so it starts a window at least as
/// good. The front then has the least `g` of all points, and one
/// comparison per slot tells whether any window ending at `t` beats `r`.
/// Only then is the new best window found: a binary search for the point
/// of the candidates' lower convex hull tangent to `(t + τ, P_t)`. Each
/// candidate carries `G(s) = g(s)·L`, with `L` the fixed-point length of
/// the best window, so `g`s compare as integers, and the newest point's
/// `G` advances by one product per slot.
///
/// A point above the candidates' lower hull starts no best window for
/// any `r` (a linear `g` is least at a hull vertex), so when the
/// candidates double in number since the last compaction, every point
/// off the hull is dropped. That bounds memory by the hull, while the
/// common slot needs no convexity test.
pub(crate) struct WindowScan {
    scale: Scale,
    /// Slots consumed and their cumulative arrivals `P_t`.
    t: u64,
    total: u64,
    /// The best window so far, as `(arrivals, slots)`.
    best: (u64, u64),
    /// `(k + τ)·2^frac` of the best window: the `L` of every `G`.
    best_len: u64,
    /// `arrivals·2^frac` and `arrivals·τ·2^frac` of the best window: what
    /// a slot and `τ` take off `G`.
    slot_step: i128,
    tau_step: i128,
    /// `G(t)` of the newest prefix point.
    g: i128,
    /// Candidate starts as `(s, P_s, G(s))`, `G` rising front to back.
    starts: Vec<(u64, u64, i128)>,
    /// Candidate count that triggers the next compaction.
    compact_at: usize,
    peak: u64,
}

/// Fewest candidates that trigger a compaction (2 KiB of points), so a
/// compaction's cost is spread over at least half as many slots.
const MIN_COMPACT: usize = 64;

impl WindowScan {
    pub(crate) fn new(scale: Scale) -> Self {
        let mut starts = Vec::with_capacity(MIN_COMPACT);
        starts.push((0, 0, 0));
        WindowScan {
            scale,
            t: 0,
            total: 0,
            best: (0, 1),
            best_len: scale.length(1) as u64,
            slot_step: 0,
            tau_step: 0,
            g: 0,
            starts,
            compact_at: MIN_COMPACT,
            peak: 0,
        }
    }

    /// `G(s)` of prefix point `(s, p)` at the current best ratio.
    fn g_of(&self, s: u64, p: u64) -> i128 {
        (p as u128 * self.best_len as u128) as i128
            - (self.best.0 as u128 * self.scale.run(s)) as i128
    }

    /// Drops every candidate off the candidates' lower convex hull.
    /// Returns `false` when the hull holds more than half of
    /// [`HULL_CAP`], which the next doubling could not fit.
    fn compact(&mut self) -> bool {
        let mut kept = 0;
        for i in 0..self.starts.len() {
            let c = self.starts[i];
            while kept >= 2 {
                let (a, b) = (self.starts[kept - 2], self.starts[kept - 1]);
                // Keep `b` only where the hull turns upward at it.
                if ((b.1 - a.1) as u128) * ((c.0 - b.0) as u128)
                    < ((c.1 - b.1) as u128) * ((b.0 - a.0) as u128)
                {
                    break;
                }
                kept -= 1;
            }
            self.starts[kept] = c;
            kept += 1;
        }
        self.starts.truncate(kept);
        self.compact_at = (2 * kept).max(MIN_COMPACT);
        2 * kept <= HULL_CAP
    }

    /// The hull point starting the best window that ends now (the
    /// candidates must be compacted). The ratio to `(t + τ, P_t)` rises
    /// along the hull while the next edge is shallower than it and falls
    /// after, so the first edge at least as steep as the ratio from its
    /// far end marks the peak.
    fn tangent(&self) -> (u64, u64) {
        let (t, total, scale) = (self.t, self.total, self.scale);
        let (mut lo, mut hi) = (0, self.starts.len() - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (a, b) = (self.starts[mid], self.starts[mid + 1]);
            if (b.1 - a.1) as u128 * scale.length(t - b.0)
                >= (total - b.1) as u128 * scale.run(b.0 - a.0)
            {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let (s, p, _) = self.starts[lo];
        (s, p)
    }

    /// A window ending now beats the best: makes the best window ending
    /// now the best, moves every `G` to its ratio and drops the
    /// candidates that no longer rise. Returns `false` as
    /// [`compact`](Self::compact) does.
    #[cold]
    fn improve(&mut self) -> bool {
        let fits = self.compact();
        let (s, p) = self.tangent();
        self.best = (self.total - p, self.t - s);
        self.best_len = self.scale.length(self.best.1) as u64;
        self.slot_step = (self.best.0 as u128 * self.scale.run(1)) as i128;
        self.tau_step = (self.best.0 as u128 * self.scale.tau as u128) as i128;
        let mut kept = 0;
        for i in 0..self.starts.len() {
            let (s, p, _) = self.starts[i];
            let g = self.g_of(s, p);
            while kept > 0 && self.starts[kept - 1].2 >= g {
                kept -= 1;
            }
            self.starts[kept] = (s, p, g);
            kept += 1;
        }
        self.starts.truncate(kept);
        self.g = self.g_of(self.t, self.total);
        fits
    }

    /// Consumes the next block of arrivals (exact non-negative integers,
    /// as every `ArrivalCursor` yields). Returns `false`, leaving the
    /// scan unusable, when the hull outgrows half of [`HULL_CAP`] or the
    /// prefix sum overflows.
    pub(crate) fn feed(&mut self, block: &[f64]) -> bool {
        // The per-slot state lives in locals so that the loop keeps it
        // in registers; `improve` (rare) reads it back from `self`.
        let (mut t, mut total, mut g, mut peak) = (self.t, self.total, self.g, self.peak);
        let mut ok = true;
        for &a in block {
            debug_assert!(a >= 0.0 && a.fract() == 0.0 && a < (1u64 << 53) as f64);
            // Through `i64`: exact below 2⁵³, and a cheaper conversion.
            let a = a as i64 as u64;
            peak = peak.max(a);
            let Some(sum) = total.checked_add(a) else {
                ok = false;
                break;
            };
            total = sum;
            t += 1;
            g += (a as u128 * self.best_len as u128) as i128 - self.slot_step;
            if g - self.tau_step > self.starts[0].2 {
                (self.t, self.total) = (t, total);
                ok = self.improve();
                g = self.g;
            }
            while self.starts.last().is_some_and(|e| e.2 >= g) {
                self.starts.pop();
            }
            self.starts.push((t, total, g));
            if self.starts.len() >= self.compact_at {
                ok &= self.compact();
            }
            if !ok {
                break;
            }
        }
        (self.t, self.total, self.g, self.peak) = (t, total, g, peak);
        ok
    }

    /// The best window of the stream fed so far.
    pub(crate) fn finish(&self) -> Window {
        Window { arrivals: self.best.0, slots: self.best.1, peak: self.peak }
    }
}

/// What a zero-loss search knows before any replay: the largest window
/// ratio `C*` over every lag combination, and what its margin needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ZeroLoss {
    /// `C*` as computed, within a factor `1 ± eta` of the exact one.
    c_star: f64,
    eta: f64,
    /// Slots per replay: the longest a busy period can be.
    slots: f64,
    /// Largest one-slot arrival of any combination, bytes.
    peak: f64,
    dt: f64,
    t_max: f64,
}

impl ZeroLoss {
    /// Combines the best windows of every combination of a replay of
    /// `slots` slots, scanned at `scale`.
    pub(crate) fn new(windows: &[Window], scale: Scale, slots: usize, dt: f64, t_max: f64) -> Self {
        let ratio = |w: &Window| w.arrivals as f64 / (w.slots as f64 * dt + t_max);
        let c_star = windows.iter().map(ratio).fold(0.0, f64::max);
        let peak = windows.iter().map(|w| w.peak).max().unwrap_or(0) as f64;
        // The fixed-point `τ` is within `U·τ + 2^-(frac+1)` of the exact
        // `T_max/dt`, so every window length is within a factor
        // `1 ± ε`, `ε = U + 2^-(frac+1)`, and the scan's window within
        // `(1 + ε)/(1 − ε)` of the best; the final ratio's four roundings
        // cost `5·U`.
        let frac_err = 1.0 / (1u64 << (scale.frac + 1)) as f64;
        let eta = 2.0 * (U + frac_err) + 6.0 * U;
        ZeroLoss { c_star, eta, slots: slots as f64, peak, dt, t_max }
    }

    /// The largest window ratio, as computed.
    #[cfg(test)]
    pub(crate) fn c_star(&self) -> f64 {
        self.c_star
    }

    /// Half-width of the band around `C*` where a replay at `mid` may
    /// round either way. A replay before its first loss keeps the
    /// backlog at most `Q`, so each slot's two roundings (`B + a`, then
    /// `− C·dt`) err by at most `2U(1+U)²·M`, with
    /// `M = T_max·mid + max(peak, mid·dt)`; `max(·, 0)` does not grow
    /// the error, so over the replay's `slots` slots (the longest a busy
    /// period can last) the float backlog stays within
    /// `E = slots·2U(1+U)³·M` of the exact one at the same rounded `C·dt`
    /// and `Q`. The replay
    /// loses nothing if `mid·(1−U) − E/(dt+T_max) ≥ C*` and loses if
    /// `mid·(1+U) + E/(dt+T_max) < C*`; folding in `C*`'s own error
    /// gives this margin.
    pub(crate) fn margin(&self, mid: f64) -> f64 {
        let per_slot = 2.0 * U * (self.t_max * mid + self.peak.max(mid * self.dt));
        let busy = self.slots * per_slot / (self.dt + self.t_max);
        (busy + self.c_star * (U + self.eta)) / (1.0 - U) * (1.0 + MARGIN_ROUNDING)
    }

    /// The verdict a replay at capacity `mid` (buffer `T_max·mid`)
    /// would give for a zero-loss target, or `None` within the margin.
    /// `mid − C*` is exact wherever it could matter: within a factor 2
    /// of `C*` (Sterbenz), and beyond that its sign is exact and it
    /// dwarfs the margin, which is capped at `C*/4`.
    pub(crate) fn verdict(&self, mid: f64) -> Option<bool> {
        let margin = self.margin(mid);
        // (A NaN margin falls through to `None` below as well.)
        if margin >= 0.25 * self.c_star {
            return None;
        }
        let gap = mid - self.c_star;
        if gap >= margin {
            Some(true)
        } else if gap < -margin {
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest window ratio by brute force, every window in float.
    fn brute(arrivals: &[u64], dt: f64, t_max: f64) -> f64 {
        let mut best = 0.0f64;
        for s in 0..arrivals.len() {
            let mut sum = 0u64;
            for (k, &a) in arrivals[s..].iter().enumerate() {
                sum += a;
                best = best.max(sum as f64 / ((k + 1) as f64 * dt + t_max));
            }
        }
        best
    }

    fn scan(arrivals: &[u64], dt: f64, t_max: f64) -> Option<ZeroLoss> {
        let scale = Scale::new(arrivals.len(), dt, t_max)?;
        let mut scan = WindowScan::new(scale);
        let block: Vec<f64> = arrivals.iter().map(|&a| a as f64).collect();
        scan.feed(&block).then(|| ZeroLoss::new(&[scan.finish()], scale, arrivals.len(), dt, t_max))
    }

    #[test]
    fn scan_finds_the_brute_force_window_ratio() {
        let dt = 1.0 / 720.0;
        let mut state = 12345u64;
        for n in [1usize, 2, 7, 300, 2000] {
            let arrivals: Vec<u64> = (0..n)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let burst = if i % 97 < 5 { 40_000 } else { 0 };
                    (state >> 44) % 9000 + burst
                })
                .collect();
            check_against_brute(&arrivals, dt);
        }
        // Tents of rising then falling arrivals under a long buffer: the
        // candidates outgrow a compaction, which drops the falling
        // side's points (above the hull).
        let tents: Vec<u64> = (0..3000).map(|i: u64| 9000 - 60 * (i % 300).abs_diff(150)).collect();
        check_against_brute(&tents, dt);
    }

    fn check_against_brute(arrivals: &[u64], dt: f64) {
        for t_max in [0.0, 0.0005, 0.002, 0.02, 1.0] {
            let z = scan(arrivals, dt, t_max).expect("short trace scans");
            let want = brute(arrivals, dt, t_max);
            let rel = (z.c_star() - want).abs() / want;
            let n = arrivals.len();
            assert!(rel <= z.eta, "n = {n}, T = {t_max}: {} vs {want}", z.c_star());
        }
    }

    #[test]
    fn silent_and_constant_streams() {
        let dt = 0.01;
        let z = scan(&[0; 50], dt, 0.1).unwrap();
        assert_eq!(z.c_star(), 0.0);
        // Constant arrivals: with a buffer the whole trace is the
        // binding window, without one any single slot.
        let z = scan(&[7; 50], dt, 0.1).unwrap();
        assert_eq!(z.c_star(), 350.0 / (50.0 * dt + 0.1));
        assert_eq!(scan(&[7; 50], dt, 0.0).unwrap().c_star(), 7.0 / dt);
    }

    #[test]
    fn convex_arrivals_outgrow_the_hull_cap() {
        // Rising arrivals make the cumulative curve convex; with a large
        // `T_max` the best window is long, every edge of the hull is
        // steeper than the best ratio, and none is pruned.
        let rising: Vec<u64> = (0..3 * HULL_CAP as u64).map(|i| 1000 + i).collect();
        assert!(scan(&rising, 1.0, 1e5).is_none(), "hull stayed under the cap");
        // The same arrivals without a buffer keep one point.
        assert!(scan(&rising, 1.0, 0.0).is_some());
    }

    #[test]
    fn scale_keeps_products_in_range() {
        let s = Scale::new(5_130_000, 1.0 / 720.0, 0.01).unwrap();
        assert_eq!(s.frac, 39);
        assert!(s.length(5_130_000) < 1u128 << 62);
        assert!(Scale::new(usize::MAX / 2, 1.0, 0.0).is_none());
        assert!(Scale::new(10, 1e-300, 1.0).is_none());
    }

    #[test]
    fn verdict_respects_the_margin() {
        let z = scan(&[5, 9, 2, 30, 1], 0.1, 0.05).unwrap();
        let c = z.c_star();
        let m = z.margin(c);
        assert!(m > 0.0 && m < 1e-9 * c);
        assert_eq!(z.verdict(c), None);
        assert_eq!(z.verdict(c * 1.001), Some(true));
        assert_eq!(z.verdict(c * 0.999), Some(false));
        assert_eq!(z.verdict(c * 3.0), Some(true));
        assert_eq!(z.verdict(c * 0.1), Some(false));
    }
}
