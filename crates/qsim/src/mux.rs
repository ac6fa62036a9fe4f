//! Multiplexing N copies of a trace with random wrap-around offsets
//! (paper §5.1): offsets at least 1000 frames apart, all frames used once
//! per source, and — because LRD makes cross-correlations significant
//! even at long lags — six random lag combinations averaged for N > 2.

use vbr_stats::rng::Xoshiro256;
use vbr_stats::simd::{Isa, Kernel};
use vbr_stats::snapshot::{Payload, Section, SnapshotError};
use vbr_video::Trace;

/// One choice of per-source offsets (in frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LagCombination {
    /// Offset per source, frames.
    pub offsets: Vec<usize>,
}

/// Draws a set of offsets for `n_sources` over a trace of `frames`
/// frames, pairwise at least `min_sep` frames apart (circularly).
pub fn draw_offsets(
    n_sources: usize,
    frames: usize,
    min_sep: usize,
    rng: &mut Xoshiro256,
) -> LagCombination {
    assert!(n_sources >= 1);
    assert!(
        n_sources * min_sep < frames || n_sources == 1,
        "cannot place {n_sources} offsets ≥ {min_sep} frames apart in a {frames}-frame trace"
    );
    let mut offsets = vec![0usize];
    let mut guard = 0;
    while offsets.len() < n_sources {
        let cand = rng.below(frames as u64) as usize;
        let ok = offsets.iter().all(|&o| {
            let d = cand.abs_diff(o);
            let circ = d.min(frames - d);
            circ >= min_sep
        });
        if ok {
            offsets.push(cand);
        }
        guard += 1;
        assert!(guard < 1_000_000, "offset sampling failed to converge");
    }
    LagCombination { offsets }
}

/// The paper's rule: 1 combination for N ≤ 2 (offset 0 / one random
/// offset), 6 random combinations for N > 2.
pub fn lag_combinations(
    n_sources: usize,
    frames: usize,
    min_sep: usize,
    seed: u64,
) -> Vec<LagCombination> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let count = if n_sources > 2 { 6 } else { 1 };
    (0..count)
        .map(|_| draw_offsets(n_sources, frames, min_sep, &mut rng))
        .collect()
}

/// Sums `n` offset copies of the trace at slice granularity, wrapping
/// around the end ("upon reaching the end of the trace, each source wraps
/// around to the beginning, so all 171 000 frames are used once for
/// each"). Output length = trace length in slices.
pub fn aggregate_arrivals(trace: &Trace, lags: &LagCombination) -> Vec<f64> {
    let slices = trace.slice_bytes();
    let n = slices.len();
    let spf = trace.slices_per_frame();
    let mut out = vec![0.0f64; n];
    for &off_frames in &lags.offsets {
        let off = (off_frames * spf) % n;
        for (t, o) in out.iter_mut().enumerate() {
            let idx = t + off;
            let idx = if idx >= n { idx - n } else { idx };
            *o += slices[idx] as f64;
        }
    }
    out
}

/// Largest per-slot aggregate the batched cursor sums exactly: every
/// partial sum of non-negative integers below 2⁵³ is an exact `f64`, so
/// any grouping of the adds gives the same bits.
pub(crate) const EXACT_AGGREGATE: u64 = 1 << 53;

/// Slots per u32 scratch batch in [`ArrivalCursor::next_block`]
/// (4 KiB on the stack).
const SCRATCH_SLOTS: usize = 1024;

/// Sources [`ArrivalCursor::next_block`] sums in `u32` before one
/// conversion to `f64`: as many as cannot overflow `u32` at the trace's
/// largest slice. `None` when `n_sources × max_slice` reaches
/// [`EXACT_AGGREGATE`], where regrouping the sum could round
/// differently.
pub(crate) fn u32_batch(n_sources: usize, max_slice: u32) -> Option<usize> {
    let peak = (n_sources as u64).saturating_mul(u64::from(max_slice));
    (peak < EXACT_AGGREGATE).then(|| (u32::MAX / max_slice.max(1)) as usize)
}

/// Single-pass aggregate-arrival generator: walks the trace once with
/// one wrap-around cursor per source instead of materializing an offset
/// copy of the trace per lag combination. Yields exactly one aggregate
/// value per slice slot (`len()` of them), bit-identical to
/// [`aggregate_arrivals`], which accumulates sources in offset order.
///
/// The block path sums sources in exact `u32` batches (as many per batch
/// as cannot overflow at the largest slice) and converts each batch to
/// `f64` once. While the per-slot aggregate stays below 2⁵³ every
/// partial sum is an exact integer in both orders, so the bits match
/// the per-source `f64` sweep; past that bound the cursor falls back to
/// one source per batch, which *is* that sweep.
///
/// Memory is `O(n_sources)` beyond the borrowed trace, which is what
/// lets multi-million-slot Q-C sweeps run in `O(block)` space: the six
/// lag combinations each cost six cursors, not six trace-sized vectors.
#[derive(Debug, Clone)]
pub struct ArrivalCursor<'a> {
    slices: &'a [u32],
    /// Per-source read position, pre-advanced to the source's offset.
    cursors: Vec<usize>,
    emitted: usize,
    /// Sources summed in `u32` per `f64` conversion ([`u32_batch`]).
    batch: usize,
}

impl<'a> ArrivalCursor<'a> {
    /// Positions one cursor per source at its slice offset. Scans the
    /// trace once for its largest slice to size the `u32` batches;
    /// [`MuxSim`](crate::MuxSim) does that once per simulator instead.
    pub fn new(trace: &'a Trace, lags: &LagCombination) -> Self {
        let max_slice = trace.slice_bytes().iter().copied().max().unwrap_or(0);
        // Past the exact bound, batches of one source are the per-source
        // `f64` sweep itself.
        let batch = u32_batch(lags.offsets.len(), max_slice).unwrap_or(1);
        Self::with_batch(trace, lags, batch)
    }

    /// [`new`](Self::new) with a precomputed [`u32_batch`].
    pub(crate) fn with_batch(trace: &'a Trace, lags: &LagCombination, batch: usize) -> Self {
        let slices = trace.slice_bytes();
        let n = slices.len();
        let spf = trace.slices_per_frame();
        let cursors = lags.offsets.iter().map(|&off| (off * spf) % n).collect();
        ArrivalCursor { slices, cursors, emitted: 0, batch }
    }

    /// Total slots the cursor will yield (the trace length in slices).
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Slots not yet yielded.
    pub fn remaining(&self) -> usize {
        self.slices.len() - self.emitted
    }

    /// Whether the sweep is complete.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fills `out` with the next aggregate slots, returning how many
    /// were written (short only at the end of the sweep). Equivalent to
    /// the [`Iterator`] path but amortises the wrap bookkeeping over
    /// contiguous runs and sums each batch of sources in `u32`, so the
    /// inner loops are straight integer adds plus one convert-and-add
    /// per slot and batch.
    ///
    /// Runs from the copy compiled for the widest ISA the CPU has: the
    /// default SSE2 build adds four `u32` lanes per op, AVX2 eight and
    /// AVX-512 sixteen. Integer adds and the `u32 → f64` conversion are
    /// exact and each slot's batches are added in source order, so every
    /// copy produces the same bits.
    pub fn next_block(&mut self, out: &mut [f64]) -> usize {
        self.next_block_on(Isa::detect(), out)
    }

    /// [`next_block`](Self::next_block) from `isa`'s copy, whatever
    /// [`Isa::detect`] picks: for tests and benches that compare copies.
    ///
    /// # Panics
    /// If the running CPU does not support `isa`.
    #[doc(hidden)]
    pub fn next_block_on(&mut self, isa: Isa, out: &mut [f64]) -> usize {
        let take = isa.run(NextBlock { cursor: self, out: &mut *out });
        // Tripwire (debug builds): the aggregate is a sum of u32
        // conversions so it can only go non-finite if enough sources
        // overflow the f64 range — silent today, loud here.
        debug_assert!(
            out[..take].iter().all(|v| v.is_finite()),
            "non-finite aggregate at the mux seam"
        );
        take
    }

    /// [`next_block`](Self::next_block) for whatever ISA it is inlined
    /// into.
    #[inline(always)]
    fn next_block_body(&mut self, out: &mut [f64]) -> usize {
        let n = self.slices.len();
        let take = out.len().min(n - self.emitted);
        let out = &mut out[..take];
        out.fill(0.0);
        let mut scratch = [0u32; SCRATCH_SLOTS];
        for part in out.chunks_mut(SCRATCH_SLOTS) {
            let sum = &mut scratch[..part.len()];
            for batch in self.cursors.chunks_mut(self.batch) {
                for (j, c) in batch.iter_mut().enumerate() {
                    let mut filled = 0;
                    while filled < sum.len() {
                        let run = (sum.len() - filled).min(n - *c);
                        let src = &self.slices[*c..*c + run];
                        let dst = &mut sum[filled..filled + run];
                        if j == 0 {
                            dst.copy_from_slice(src);
                        } else {
                            // Cannot overflow: `batch` caps the sum at
                            // `u32::MAX`.
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d += s;
                            }
                        }
                        *c += run;
                        if *c == n {
                            *c = 0;
                        }
                        filled += run;
                    }
                }
                // One convert+add per slot per batch, batches in source
                // order.
                vbr_stats::simd::accumulate_u32(part, sum);
            }
        }
        self.emitted += take;
        take
    }

    /// Advances past the next `slots` slots without summing them, as if
    /// `next_block` had yielded them; returns how many were passed
    /// (short only at the end of the sweep).
    pub fn skip_slots(&mut self, slots: usize) -> usize {
        let n = self.slices.len();
        let take = slots.min(n - self.emitted);
        for c in &mut self.cursors {
            *c += take;
            if *c >= n {
                *c -= n;
            }
        }
        self.emitted += take;
        take
    }

    /// Fallible [`next_block`](Self::next_block): verifies the
    /// aggregate slots are all finite before handing them downstream,
    /// consistent with the typed guards on `FluidQueue::try_step`.
    pub fn try_next_block(&mut self, out: &mut [f64]) -> Result<usize, crate::error::QsimError> {
        let take = self.next_block(out);
        vbr_stats::error::check_all_finite(&out[..take])?;
        Ok(take)
    }

    /// Captures the cursor's dynamic state for a checkpoint: the
    /// per-source read positions and the emitted-slot count. The trace
    /// itself is *not* serialized — the restore target re-borrows it
    /// and the snapshot's parameter hash guards against a swap.
    pub fn export_state(&self) -> CursorState {
        CursorState {
            cursors: self.cursors.clone(),
            emitted: self.emitted,
        }
    }

    /// Grafts a previously exported state onto this cursor. Validated
    /// before any mutation: the source count must match, every cursor
    /// must index inside the trace, and `emitted` cannot exceed the
    /// sweep length. On error the cursor is untouched.
    pub fn restore_state(&mut self, st: &CursorState) -> Result<(), SnapshotError> {
        let n = self.slices.len();
        if st.cursors.len() != self.cursors.len() {
            return Err(SnapshotError::Invalid { what: "cursor source count" });
        }
        if st.cursors.iter().any(|&c| c >= n) {
            return Err(SnapshotError::Invalid { what: "cursor out of trace bounds" });
        }
        if st.emitted > n {
            return Err(SnapshotError::Invalid { what: "emitted exceeds sweep length" });
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&st.cursors);
        self.emitted = st.emitted;
        Ok(())
    }
}

/// One [`ArrivalCursor::next_block`] call, compiled per ISA by
/// [`Isa::run`].
struct NextBlock<'c, 'a, 'o> {
    cursor: &'c mut ArrivalCursor<'a>,
    out: &'o mut [f64],
}

impl Kernel for NextBlock<'_, '_, '_> {
    type Output = usize;

    #[inline(always)]
    fn run(self) -> usize {
        self.cursor.next_block_body(self.out)
    }
}

/// The dynamic state of an [`ArrivalCursor`] — read positions and
/// progress, not the borrowed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CursorState {
    /// Per-source read position in slices.
    pub cursors: Vec<usize>,
    /// Slots already yielded.
    pub emitted: usize,
}

impl CursorState {
    /// Appends the state to a snapshot section payload.
    pub fn encode(&self, p: &mut Payload) {
        let words: Vec<u64> = self.cursors.iter().map(|&c| c as u64).collect();
        p.put_u64_slice(&words);
        p.put_usize(self.emitted);
    }

    /// Reads a state back from a snapshot section, in [`encode`]
    /// (Self::encode) order.
    pub fn decode(s: &mut Section) -> Result<Self, SnapshotError> {
        let words = s.get_u64_vec()?;
        let mut cursors = Vec::with_capacity(words.len());
        for w in words {
            if w > usize::MAX as u64 {
                return Err(SnapshotError::Invalid { what: "cursor position overflows usize" });
            }
            cursors.push(w as usize);
        }
        let emitted = s.get_usize()?;
        Ok(CursorState { cursors, emitted })
    }
}

impl Iterator for ArrivalCursor<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let n = self.slices.len();
        if self.emitted == n {
            return None;
        }
        let mut sum = 0.0;
        for c in &mut self.cursors {
            sum += self.slices[*c] as f64;
            *c += 1;
            if *c == n {
                *c = 0;
            }
        }
        self.emitted += 1;
        Some(sum)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining();
        (r, Some(r))
    }
}

impl ExactSizeIterator for ArrivalCursor<'_> {}

/// Sums one offset copy of *each* trace — heterogeneous multiplexing
/// (e.g. movies mixed with videoconference sources). All traces must
/// share the slice geometry; each wraps around independently, and the
/// output covers the longest trace.
pub fn aggregate_arrivals_multi(traces: &[&Trace], offsets_frames: &[usize]) -> Vec<f64> {
    assert!(!traces.is_empty());
    assert_eq!(traces.len(), offsets_frames.len(), "one offset per trace");
    let spf = traces[0].slices_per_frame();
    let dt = traces[0].slice_duration();
    for t in traces {
        assert_eq!(t.slices_per_frame(), spf, "mixed slice geometry");
        assert!(
            (t.slice_duration() - dt).abs() < 1e-12,
            "mixed slice durations"
        );
    }
    let out_len = traces.iter().map(|t| t.slice_bytes().len()).max().unwrap();
    let mut out = vec![0.0f64; out_len];
    for (trace, &off_frames) in traces.iter().zip(offsets_frames) {
        let slices = trace.slice_bytes();
        let n = slices.len();
        let off = (off_frames * spf) % n;
        for (t, o) in out.iter_mut().enumerate() {
            *o += slices[(t + off) % n] as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> Trace {
        // 6 frames × 2 slices.
        Trace::from_slices(vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], 2, 24.0)
    }

    #[test]
    fn single_source_identity() {
        let t = toy_trace();
        let agg = aggregate_arrivals(&t, &LagCombination { offsets: vec![0] });
        let want: Vec<f64> = t.slice_bytes().iter().map(|&b| b as f64).collect();
        assert_eq!(agg, want);
    }

    #[test]
    fn wraparound_uses_every_slice_once() {
        let t = toy_trace();
        let agg = aggregate_arrivals(&t, &LagCombination { offsets: vec![0, 2, 4] });
        // Total bytes = 3 × trace total regardless of offsets.
        let total: f64 = agg.iter().sum();
        let trace_total: u32 = t.slice_bytes().iter().sum();
        assert!((total - 3.0 * trace_total as f64).abs() < 1e-9);
    }

    #[test]
    fn offset_shifts_by_frames() {
        let t = toy_trace();
        let agg = aggregate_arrivals(&t, &LagCombination { offsets: vec![1] });
        // Offset of 1 frame = 2 slices: first slot reads slice 2.
        assert_eq!(agg[0], 3.0);
        assert_eq!(agg[11], 2.0); // wraps to slice index 1
    }

    #[test]
    fn offsets_respect_min_separation() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let lags = draw_offsets(5, 10_000, 1000, &mut rng);
        assert_eq!(lags.offsets.len(), 5);
        for i in 0..5 {
            for j in 0..i {
                let d = lags.offsets[i].abs_diff(lags.offsets[j]);
                let circ = d.min(10_000 - d);
                assert!(circ >= 1000, "offsets {:?}", lags.offsets);
            }
        }
    }

    #[test]
    fn combination_count_follows_paper_rule() {
        assert_eq!(lag_combinations(1, 10_000, 1000, 7).len(), 1);
        assert_eq!(lag_combinations(2, 10_000, 1000, 7).len(), 1);
        assert_eq!(lag_combinations(3, 10_000, 1000, 7).len(), 6);
        assert_eq!(lag_combinations(20, 171_000, 1000, 7).len(), 6);
    }

    #[test]
    fn combinations_are_deterministic_per_seed() {
        let a = lag_combinations(5, 50_000, 1000, 3);
        let b = lag_combinations(5, 50_000, 1000, 3);
        let c = lag_combinations(5, 50_000, 1000, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn multi_trace_aggregation_mixes_sources() {
        let a = Trace::from_slices(vec![10, 10, 10, 10], 2, 24.0); // 2 frames
        let b = Trace::from_slices(vec![1, 2, 3, 4, 5, 6, 7, 8], 2, 24.0); // 4 frames
        let agg = aggregate_arrivals_multi(&[&a, &b], &[0, 1]);
        // Output spans the longer trace (8 slices); `a` wraps twice,
        // `b` is offset by one frame (2 slices).
        assert_eq!(agg.len(), 8);
        assert_eq!(agg[0], 10.0 + 3.0);
        assert_eq!(agg[5], 10.0 + 8.0);
        assert_eq!(agg[6], 10.0 + 1.0); // b wrapped
        // Totals: 2 copies of a's 40 bytes + one pass of b's 36.
        let total: f64 = agg.iter().sum();
        assert_eq!(total, 80.0 + 36.0);
    }

    #[test]
    fn cursor_matches_materialized_aggregation() {
        let t = toy_trace();
        for offsets in [vec![0], vec![1], vec![0, 2, 4], vec![5, 3, 1, 0]] {
            let lags = LagCombination { offsets };
            let want = aggregate_arrivals(&t, &lags);
            let got: Vec<f64> = ArrivalCursor::new(&t, &lags).collect();
            assert_eq!(got, want, "offsets {:?}", lags.offsets);
        }
    }

    #[test]
    fn cursor_block_path_matches_iterator_path() {
        let t = toy_trace();
        let lags = LagCombination { offsets: vec![0, 5] }; // wraps mid-trace
        let want: Vec<f64> = ArrivalCursor::new(&t, &lags).collect();
        let mut cursor = ArrivalCursor::new(&t, &lags);
        let mut got = Vec::new();
        let mut buf = [0.0; 5]; // 12 slots in blocks of 5: last block short
        loop {
            let k = cursor.next_block(&mut buf);
            if k == 0 {
                break;
            }
            got.extend_from_slice(&buf[..k]);
        }
        assert_eq!(got, want);
        assert!(cursor.is_empty());
    }

    #[test]
    fn batched_cursor_is_exact_near_u32_limit() {
        // Slices near 2³¹ cap the u32 batches at one source (largest
        // slice 2³¹) or two (2³¹ − 1), so 3 and 5 sources split into
        // ragged batches whose sums would wrap at a third source.
        for (top, batch) in [(1u32 << 31, 1usize), ((1 << 31) - 1, 2)] {
            let slices: Vec<u32> = (0..26u32).map(|i| top - i * 7919).collect();
            let t = Trace::from_slices(slices, 2, 24.0);
            // Offsets on the last frame wrap mid-block.
            for offsets in [vec![0, 12, 5], vec![3, 12, 7, 1, 9]] {
                let lags = LagCombination { offsets };
                let want = aggregate_arrivals(&t, &lags);
                for block in [1, 5, 7, 26, 40] {
                    let mut cursor = ArrivalCursor::new(&t, &lags);
                    assert_eq!(cursor.batch, batch);
                    let mut got = Vec::new();
                    let mut buf = vec![0.0; block];
                    loop {
                        let k = cursor.next_block(&mut buf);
                        if k == 0 {
                            break;
                        }
                        got.extend_from_slice(&buf[..k]);
                    }
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "top {top}, {:?}, block {block}", lags.offsets);
                }
            }
        }
    }

    /// Sweeps `cursor` to the end in `block`-slot calls of `isa`'s copy.
    fn sweep_on(isa: Isa, mut cursor: ArrivalCursor, block: usize) -> Vec<u64> {
        let mut got = Vec::new();
        let mut buf = vec![f64::NAN; block];
        loop {
            let k = cursor.next_block_on(isa, &mut buf);
            if k == 0 {
                return got;
            }
            got.extend(buf[..k].iter().map(|x| x.to_bits()));
        }
    }

    #[test]
    fn every_next_block_copy_matches_portable_body_bitwise() {
        // 3003 slots: 1024-slot scratch parts end mid-block and every
        // block crosses wrap points, at 20 sources with offsets up to the
        // last frame.
        let offsets: Vec<usize> = (0..20).map(|i| (i * 389 + 17) % 1000).collect();
        let lags = LagCombination { offsets };
        // One batch of all sources, several batches (u32_batch 7 < 20
        // sources) and one source per batch (slices of 2³¹), each also
        // through batches of one, the fallback `new` takes past 2⁵³.
        for (top, batches) in [(40_000u32, 1usize), (1 << 29, 3), (1 << 31, 20)] {
            let slices: Vec<u32> = (0..3003u32).map(|i| top - (i * 7919) % (top / 2)).collect();
            let t = Trace::from_slices(slices, 3, 24.0);
            let cursor = ArrivalCursor::new(&t, &lags);
            assert_eq!(cursor.cursors.chunks(cursor.batch).len(), batches, "top {top}");
            let want: Vec<u64> =
                aggregate_arrivals(&t, &lags).iter().map(|x| x.to_bits()).collect();
            for cursor in [cursor, ArrivalCursor::with_batch(&t, &lags, 1)] {
                for block in [1, 333, 1024, 2500, 4096] {
                    let portable = sweep_on(Isa::Portable, cursor.clone(), block);
                    assert_eq!(portable, want, "portable, top {top}, block {block}");
                    for isa in Isa::supported() {
                        let copy = sweep_on(isa, cursor.clone(), block);
                        let at = format!("top {top}, batch {}, block {block}", cursor.batch);
                        assert_eq!(copy, portable, "{isa:?}, {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn u32_batch_respects_both_exactness_bounds() {
        // Batch sums stay within u32…
        assert_eq!(u32_batch(20, 1 << 16), Some((u32::MAX >> 16) as usize));
        assert_eq!(u32_batch(20, u32::MAX), Some(1));
        // …an all-zero trace puts every source in one batch…
        assert!(u32_batch(20, 0) >= Some(20));
        // …and no batching applies once the aggregate can reach 2⁵³,
        // where regrouping could round differently.
        assert_eq!(u32_batch(1 << 40, 1 << 13), None);
        assert_eq!(u32_batch((1 << 40) - 1, 1 << 13), Some((u32::MAX >> 13) as usize));
    }

    #[test]
    fn cursor_is_exact_size() {
        let t = toy_trace();
        let mut c = ArrivalCursor::new(&t, &LagCombination { offsets: vec![0, 1] });
        assert_eq!(c.len(), 12);
        assert_eq!(c.size_hint(), (12, Some(12)));
        c.next();
        assert_eq!(c.remaining(), 11);
        assert_eq!(c.by_ref().count(), 11);
        assert_eq!(c.next(), None); // fused: stays exhausted
    }

    #[test]
    fn cursor_state_round_trip_resumes_bit_identically() {
        let t = toy_trace();
        let lags = LagCombination { offsets: vec![0, 2, 5] };
        let want: Vec<f64> = ArrivalCursor::new(&t, &lags).collect();
        // Kill after 7 of 12 slots, restore into a fresh cursor.
        let mut left = ArrivalCursor::new(&t, &lags);
        let mut buf = [0.0; 7];
        assert_eq!(left.next_block(&mut buf), 7);
        let st = left.export_state();
        let mut resumed = ArrivalCursor::new(&t, &lags);
        resumed.restore_state(&st).unwrap();
        let rest: Vec<f64> = resumed.collect();
        assert_eq!(rest.len(), 5);
        assert_eq!(&want[7..], &rest[..]);
    }

    #[test]
    fn cursor_restore_rejects_hostile_states() {
        let t = toy_trace();
        let lags = LagCombination { offsets: vec![0, 2] };
        let mut c = ArrivalCursor::new(&t, &lags);
        let good = c.export_state();
        for bad in [
            CursorState { cursors: vec![0], emitted: 0 },          // source count
            CursorState { cursors: vec![0, 99], emitted: 0 },      // out of bounds
            CursorState { cursors: vec![0, 4], emitted: 13 },      // emitted > n
        ] {
            assert!(c.restore_state(&bad).is_err(), "accepted {bad:?}");
            assert_eq!(c.export_state(), good);
        }
    }

    #[test]
    fn cursor_state_codec_round_trip() {
        use vbr_stats::snapshot::{SnapshotReader, SnapshotWriter};
        let st = CursorState { cursors: vec![3, 11, 0], emitted: 9 };
        let mut w = SnapshotWriter::new(1, 1);
        w.section(0x43, |p| st.encode(p));
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut s = r.section(0x43, "cursor").unwrap();
        let got = CursorState::decode(&mut s).unwrap();
        s.finish().unwrap();
        assert_eq!(got, st);
    }

    #[test]
    fn try_next_block_passes_clean_aggregates() {
        let t = toy_trace();
        let mut c = ArrivalCursor::new(&t, &LagCombination { offsets: vec![0, 3] });
        let mut buf = [0.0; 12];
        let k = c.try_next_block(&mut buf).unwrap();
        assert_eq!(k, 12);
        assert!(buf.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "mixed slice geometry")]
    fn multi_trace_rejects_mixed_geometry() {
        let a = Trace::from_slices(vec![1, 2], 2, 24.0);
        let b = Trace::from_slices(vec![1, 2, 3], 3, 24.0);
        aggregate_arrivals_multi(&[&a, &b], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn impossible_separation_rejected() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        draw_offsets(20, 1000, 1000, &mut rng);
    }
}
