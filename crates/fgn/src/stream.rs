//! Bounded-memory block streaming of LRD Gaussian sample paths, for one
//! source or many over one shared circulant spectrum.
//!
//! Batch Davies–Harte holds the whole circulant (`2n` complex values) in
//! memory, so a 16M-slice trace costs ~0.5 GB of transform workspace
//! before the trace itself exists. The streams here instead synthesise
//! the path in overlapped circulant *windows* of a caller-chosen block
//! size `B`: memory is `O(B)` regardless of how many samples are drawn,
//! and the iterator never terminates — callers take as much as they
//! need.
//!
//! There is one engine, [`BatchStream`]: `S` independent sources of one
//! [`Family`] driven by ONE circulant spectrum, one real-FFT plan and
//! one synthesis scratch. A solo stream ([`CirculantStream`], alias
//! [`FgnStream`]) is that engine holding one source.
//!
//! ## Exactness contract
//!
//! Two geometries are offered (see DESIGN.md §10), selected by the
//! `overlap` argument of [`BatchStream::try_new`]:
//!
//! - **Prefix-exact** (`overlap: None`, and [`FgnStream::new`]): the
//!   first window uses the *same* circulant size, cached spectrum and RNG
//!   draw order as the batch generator called with `n = B`, so the first
//!   `B` samples are **bit-identical** to `DaviesHarte::generate(B,
//!   seed)` (resp. the circulant fARIMA batch path,
//!   [`farima_via_circulant`]). Later windows continue the same RNG
//!   stream; each window is internally an exact sample of the target
//!   process, and consecutive windows are joined over the free overlap
//!   `L = (m/2 + 1 − B).min(B)` by a power-preserving cross-fade (below).
//! - **Quality overlap** (`overlap: Some(L)`): the caller picks the
//!   overlap `L ≤ B` and the circulant grows to cover `B + L` samples per
//!   window. Longer overlaps track the target autocovariance further
//!   across window seams, at the cost of the bit-exact prefix (the
//!   circulant size — hence the spectrum and the number of RNG draws per
//!   window — differs from the batch call).
//!
//! The cross-fade blends the previous window's unused exact tail
//! `p_0..p_{L−1}` into the new window's head `c_0..c_{L−1}`:
//!
//! ```text
//! z_i = sqrt(1 − a_i)·p_i + sqrt(a_i)·c_i,   a_i = (i + 1)/(L + 1)
//! ```
//!
//! Both inputs are zero-mean Gaussian with the target marginal variance
//! and the weights satisfy `(1 − a_i) + a_i = 1`, so every emitted
//! sample has **exactly** the target `N(0, σ²)` marginal. Covariance is
//! exact within a window and approximate across the seam (the two
//! windows are independent realisations); the overlap length bounds how
//! far the seam error reaches.
//!
//! ## Bit-identity across sources
//!
//! Each source owns its RNG (seeded independently) and its window/seam
//! buffers; only *stateless* scratch is shared. A source's refill reads
//! and writes nothing outside its own state and the shared scratch it
//! fully overwrites, so draws from a batched source are **bit-identical
//! to the same-seed solo stream, draw for draw**, at any block / overlap
//! geometry and any interleaving of `next_block` calls across sources.
//! Proptests in `crates/fgn/tests/proptests.rs` pin this.
//!
//! ```
//! use vbr_fgn::{BatchStream, Family, FgnStream};
//! let mut batch = BatchStream::try_new(Family::Fgn, 0.8, 1.0, 64, None, &[1, 2, 3]).unwrap();
//! let mut solo = FgnStream::new(0.8, 1.0, 64, 2);
//! let mut a = vec![0.0; 100];
//! let mut b = vec![0.0; 100];
//! batch.next_block(1, &mut a); // source index 1 == seed 2
//! solo.next_block(&mut b);
//! assert_eq!(a, b);
//! ```

use crate::cache::{farima_circulant_spectrum_cached, fgn_circulant_spectrum_cached};
use crate::davies_harte::{
    synthesise_real_into, synthesise_real_lanes_into, synthesise_real_with, LaneSynthScratch,
    SpectrumScales, SynthScratch,
};
use crate::error::FgnError;
use std::sync::Arc;
use vbr_fft::{next_pow2, real_plan_for, RealFftPlan, LANES};
use vbr_stats::error::NumericError;
use vbr_stats::obs::{self, Counter};
use vbr_stats::rng::Xoshiro256;
use vbr_stats::snapshot::{Payload, Section, SnapshotError};

/// Bulk sample source: anything that can fill a caller buffer with the
/// next run of samples. Implemented by the solo stream here; consumed by
/// the fused pipeline stages
/// ([`MarginalTransform::map_block_from`](crate::MarginalTransform::map_block_from))
/// so they work over any generator without per-sample dispatch.
pub trait BlockSource {
    /// Fills `out` with the next `out.len()` samples of the source.
    fn next_block(&mut self, out: &mut [f64]);
}

/// Which LRD process a circulant stream synthesises. The family picks
/// the Hurst domain and the circulant spectrum; everything else about
/// the engine is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Fractional Gaussian noise (`H ∈ (0, 1)`; the embedding is always
    /// PSD).
    Fgn,
    /// Fractional ARIMA(0, d, 0) noise, `d = H − 1/2` (`H ∈ [0.5, 1)`, as
    /// for [`crate::Hosking`]). The circulant is not provably PSD at every
    /// `(d, m)`, so construction can fail with
    /// [`FgnError::NonPsdEmbedding`]; in practice it succeeds at all
    /// power-of-two sizes we exercise.
    Farima,
}

/// Window geometry of a circulant stream: `(m, overlap)`, where `m` is
/// the circulant transform length and `m == 0` selects the degenerate
/// `block == 1` white-noise path (matching the batch generators' `n ==
/// 1` special case, where the circulant machinery is bypassed). `None`
/// is the prefix-exact geometry: the circulant of the batch call with
/// `n = block`, plus whatever exact overlap it yields for free.
///
/// All arithmetic is checked: a geometry whose circulant length would
/// overflow `usize` is a typed error, never a wrapped length.
fn circulant_geometry(block: usize, overlap: Option<usize>) -> Result<(usize, usize), FgnError> {
    if block == 0 {
        return Err(NumericError::OutOfRange {
            what: "stream block size (must be >= 1)",
            value: 0.0,
            lo: 1.0,
            hi: f64::INFINITY,
        }
        .into());
    }
    if let Some(l) = overlap.filter(|&l| l > block) {
        return Err(NumericError::OutOfRange {
            what: "stream overlap (must be <= block)",
            value: l as f64,
            lo: 0.0,
            hi: block as f64,
        }
        .into());
    }
    if block == 1 {
        return Ok((0, 0));
    }
    // The window covers `run = block + overlap` samples, so the circulant
    // is the power of two at or above `2·(run − 1)` (`run ≥ 2` here).
    let run = block.checked_add(overlap.unwrap_or(0));
    let m = run
        .and_then(|r| (r - 1).checked_mul(2))
        .and_then(usize::checked_next_power_of_two)
        .ok_or(NumericError::OutOfRange {
            what: "stream block + overlap (circulant length overflows usize)",
            value: block as f64 + overlap.unwrap_or(0) as f64,
            lo: 2.0,
            hi: ((1usize << (usize::BITS - 2)) + 1) as f64,
        })?;
    Ok((m, overlap.unwrap_or((m / 2 + 1 - block).min(block))))
}

/// Per-source dynamic state of a circulant stream: the RNG, the window
/// being emitted, the seam tail, and the emit position. Everything that
/// differs between two sources driven by the same spectrum lives here —
/// [`BatchStream`] holds one of these per source over a *shared*
/// spectrum and scratch, which is what makes batched draws bit-identical
/// to solo streams by construction.
#[derive(Debug, Clone)]
struct SourceState {
    rng: Xoshiro256,
    /// The `block` samples currently being emitted.
    cur: Vec<f64>,
    /// Exact tail of the previous window, cross-faded into the next.
    tail: Vec<f64>,
    pos: usize,
    started: bool,
    /// Owner identity carried through export/restore so a source moved
    /// between batch groups (shard migration) keeps its tenant, not just
    /// its positional index. `0` for solo streams.
    tenant: u64,
}

impl SourceState {
    fn new(seed: u64, tenant: u64, block: usize, overlap: usize) -> Self {
        SourceState {
            rng: Xoshiro256::seed_from_u64(seed),
            cur: Vec::with_capacity(block),
            tail: Vec::with_capacity(overlap),
            pos: 0,
            started: false,
            tenant,
        }
    }

    /// Exports the dynamic state for checkpointing.
    fn export(&self) -> StreamState {
        StreamState {
            rng: self.rng.state(),
            cur: self.cur.clone(),
            tail: self.tail.clone(),
            pos: self.pos,
            started: self.started,
            tenant: self.tenant,
        }
    }

    /// Grafts an exported state onto this source after validating every
    /// structural invariant against the owning stream's geometry
    /// (`block`, `overlap`, and whether it is the white-noise path).
    /// Nothing is mutated until everything checks out.
    fn restore(
        &mut self,
        st: &StreamState,
        block: usize,
        overlap: usize,
        white_noise: bool,
    ) -> Result<(), SnapshotError> {
        let rng = Xoshiro256::from_state(st.rng)
            .ok_or(SnapshotError::Invalid { what: "all-zero rng state" })?;
        if !(st.cur.is_empty() || st.cur.len() == block) {
            return Err(SnapshotError::Invalid { what: "window length != stream block" });
        }
        if !(st.tail.is_empty() || st.tail.len() == overlap) {
            return Err(SnapshotError::Invalid { what: "tail length != stream overlap" });
        }
        if st.pos > st.cur.len() {
            return Err(SnapshotError::Invalid { what: "emit position past window end" });
        }
        if white_noise && (st.started || !st.tail.is_empty()) {
            return Err(SnapshotError::Invalid { what: "seam state on a white-noise stream" });
        }
        if !white_noise && !st.started {
            // `started` flips on the first circulant refill; the only
            // pre-start state is the empty one. (White-noise streams
            // never set it and were handled above.)
            if !(st.cur.is_empty() && st.tail.is_empty() && st.pos == 0) {
                return Err(SnapshotError::Invalid { what: "window present before first refill" });
            }
        }
        if st.cur.iter().chain(st.tail.iter()).any(|v| !v.is_finite()) {
            return Err(SnapshotError::Invalid { what: "non-finite sample in stream state" });
        }
        self.rng = rng;
        self.cur.clear();
        self.cur.extend_from_slice(&st.cur);
        self.tail.clear();
        self.tail.extend_from_slice(&st.tail);
        self.pos = st.pos;
        self.started = st.started;
        self.tenant = st.tenant;
        Ok(())
    }

    /// Installs a freshly synthesised window at unit scale, read from
    /// `win[t*stride + lane]` (stride 1, lane 0 for a scalar window; the
    /// cohort width and the source's lane for a lane-interleaved one):
    /// scales it by `sd`, cross-fades the seam against the previous tail
    /// and keeps the window's unused exact tail for the next seam.
    /// Always inlined, so the scalar caller's stride 1 folds into a
    /// contiguous copy.
    #[inline(always)]
    fn install_window(
        &mut self,
        win: &[f64],
        stride: usize,
        lane: usize,
        sd: f64,
        block: usize,
        overlap: usize,
    ) {
        let (b, l) = (block, overlap);
        // Sample `t` is lane `lane` of the `t`-th `stride`-wide chunk.
        let samples = |from: usize, n: usize| {
            win[from * stride..].chunks_exact(stride).take(n).map(move |c| c[lane] * sd)
        };
        self.pos = 0;
        self.cur.clear();
        self.cur.extend(samples(0, b));
        if self.started {
            // Power-preserving cross-fade against the previous tail:
            // weights sum to one in *variance*, so the N(0, σ²) marginal
            // is preserved exactly at every blended sample.
            if l > 0 {
                obs::counter_add(Counter::SeamCrossFades, 1);
            }
            for i in 0..l {
                let a = (i + 1) as f64 / (l + 1) as f64;
                self.cur[i] = (1.0 - a).sqrt() * self.tail[i] + a.sqrt() * self.cur[i];
            }
        }
        self.tail.clear();
        self.tail.extend(samples(b, l));
        self.started = true;
    }
}

/// Everything a refill needs that is a pure function of the circulant
/// spectrum: the precomputed per-bin amplitudes and the real-FFT plan.
/// Built once at stream construction, so the hot loop never touches the
/// plan cache's mutex or recomputes `√(λ_k/2m)`.
#[derive(Debug, Clone)]
struct SharedSpectrum {
    scales: Arc<SpectrumScales>,
    plan: Arc<RealFftPlan>,
}

impl SharedSpectrum {
    fn new(lambda: &[f64]) -> Self {
        SharedSpectrum {
            scales: Arc::new(SpectrumScales::new(lambda)),
            plan: real_plan_for(lambda.len()),
        }
    }

    /// Circulant transform length `m`.
    fn m(&self) -> usize {
        self.scales.m()
    }
}

/// The circulant engine: `S` independent sources of one [`Family`] over
/// one shared spectrum; see the [module docs](self) for the exactness,
/// memory and bit-identity contracts.
///
/// All buffers (the synthesis scratch, the per-worker lane workspaces,
/// every source's window and tail) are allocated once and reused every
/// window, so steady-state generation allocates nothing.
#[derive(Debug, Clone)]
pub struct BatchStream {
    sd: f64,
    block: usize,
    overlap: usize,
    /// `None` is the degenerate `block == 1` white-noise path.
    spectrum: Option<SharedSpectrum>,
    sources: Vec<SourceState>,
    /// One synthesis workspace for the whole batch — fully overwritten
    /// by every refill, so sharing it cannot couple sources.
    synth: SynthScratch,
    /// The `m` real samples of the freshly synthesised window.
    win: Vec<f64>,
    /// One lane-refill workspace per pool worker of
    /// [`advance_rows`](Self::advance_rows). Grows to the widest pool
    /// that has refilled this batch and is reused after that; stays
    /// empty unless `advance_rows` forms a cohort.
    lanes: Vec<LaneWorker>,
    /// `advance_rows`'s `(source, row)` list of sources due a whole
    /// window, kept across calls so a slot allocates nothing.
    due: Vec<(usize, usize)>,
}

/// One pool worker's lane-parallel refill workspace: normal draws,
/// interleaved half-spectra and window samples for up to [`LANES`]
/// sources at a time.
#[derive(Debug, Clone, Default)]
struct LaneWorker {
    scratch: LaneSynthScratch,
    /// Lane-interleaved window samples of the current cohort.
    buf: Vec<f64>,
}

impl LaneWorker {
    /// Refills one cohort (indices into `sources`) through the
    /// lane-parallel synthesis kernel: each source draws its own window
    /// of normals (own RNG, the contract order), all windows transform
    /// in one lane FFT, and each source installs its lane of the result
    /// through the same [`SourceState::install_window`] as the scalar
    /// refill — so each source's state ends up bit-identical to a scalar
    /// refill from the same RNG state.
    fn refill_cohort(
        &mut self,
        sp: &SharedSpectrum,
        (sd, block, overlap): (f64, usize, usize),
        sources: &mut [SourceState],
        cohort: &[usize],
    ) {
        let _span = obs::span("fgn.stream_refill");
        obs::counter_add(Counter::StreamBlocks, cohort.len() as u64);
        let k = cohort.len();
        let m = sp.m();
        let gauss = self.scratch.gauss_rows(m, k);
        // Each source draws its uniforms from its own generator (so
        // per-source draw accounting matches the scalar path exactly),
        // then one quantile pass covers the whole m×k buffer: the
        // transform is elementwise, so batching across sources is
        // bit-identical to per-source `fill_standard_normal` while
        // amortising the kernel's per-call setup over the cohort.
        for (v, &s) in cohort.iter().enumerate() {
            sources[s].rng.fill_open01(&mut gauss[v * m..(v + 1) * m]);
        }
        vbr_stats::special::norm_quantile_slice(gauss);
        synthesise_real_lanes_into(&sp.scales, &sp.plan, k, &mut self.scratch, &mut self.buf);
        for (v, &s) in cohort.iter().enumerate() {
            sources[s].install_window(&self.buf, k, v, sd, block, overlap);
        }
    }
}

impl BatchStream {
    /// Builds the engine with one source per seed (none is fine: admit
    /// sources later with [`push_source`](Self::push_source)).
    ///
    /// This is the one validated constructor of every circulant stream:
    /// `hurst` must lie in the family's domain, `variance` must be
    /// positive and finite, `block ≥ 1`, and `overlap` is either `None`
    /// (prefix-exact geometry) or `Some(L)` with `L ≤ block` (quality
    /// overlap; the circulant grows to cover `block + L` samples). A
    /// geometry whose circulant length overflows `usize` is rejected.
    pub fn try_new(
        family: Family,
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: Option<usize>,
        seeds: &[u64],
    ) -> Result<Self, FgnError> {
        let (lo, in_domain) = match family {
            Family::Fgn => (0.0, hurst > 0.0 && hurst < 1.0),
            Family::Farima => (0.5, (0.5..1.0).contains(&hurst)),
        };
        if !in_domain {
            return Err(FgnError::InvalidHurst { hurst, lo, hi: 1.0 });
        }
        if !(variance > 0.0 && variance.is_finite()) {
            return Err(FgnError::InvalidVariance { variance });
        }
        let (m, overlap) = circulant_geometry(block, overlap)?;
        let lambda = match (m, family) {
            (0, _) => None,
            (m, Family::Fgn) => Some(fgn_circulant_spectrum_cached(hurst, m)?),
            (m, Family::Farima) => {
                Some(farima_circulant_spectrum_cached(crate::acvf::hurst_to_d(hurst), m)?)
            }
        };
        Ok(BatchStream {
            sd: variance.sqrt(),
            block,
            overlap,
            spectrum: lambda.map(|l| SharedSpectrum::new(&l)),
            sources: seeds.iter().map(|&s| SourceState::new(s, 0, block, overlap)).collect(),
            synth: SynthScratch::new(),
            win: Vec::new(),
            lanes: Vec::new(),
            due: Vec::new(),
        })
    }

    /// Number of sources in the batch.
    pub fn sources(&self) -> usize {
        self.sources.len()
    }

    /// Admits one more source into the batch, seeded fresh and tagged
    /// with `tenant`, and returns its index. The new source starts at
    /// its very first draw — existing sources are unaffected (their
    /// states are independent), so groups can grow while serving.
    pub fn push_source(&mut self, seed: u64, tenant: u64) -> usize {
        self.sources.push(SourceState::new(seed, tenant, self.block, self.overlap));
        self.sources.len() - 1
    }

    /// The tenant identity of source `source` (0 unless assigned).
    /// Panics if `source` is out of range.
    pub fn tenant(&self, source: usize) -> u64 {
        self.sources[source].tenant
    }

    /// Emitted samples per window (per source).
    pub fn block(&self) -> usize {
        self.block
    }

    /// Samples cross-faded at each window seam.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// Circulant transform length per window (`0` on the white-noise
    /// path) — the memory scale. This is the batch's *total* spectrum
    /// footprint — shared, not per source.
    pub fn circulant_len(&self) -> usize {
        self.spectrum.as_ref().map_or(0, |sp| sp.m())
    }

    /// Synthesises the next window of one source, cross-fading the seam.
    /// One source's refill depends only on its own state, so
    /// interleaving sources over the shared scratch cannot change any
    /// output bit.
    fn refill_source(&mut self, source: usize) {
        let _span = obs::span("fgn.stream_refill");
        obs::counter_add(Counter::StreamBlocks, 1);
        let st = &mut self.sources[source];
        let Some(sp) = &self.spectrum else {
            // White-noise path: batch-draw the block through the
            // vectorized quantile kernel, then scale.
            st.pos = 0;
            st.cur.clear();
            st.cur.resize(self.block, 0.0);
            st.rng.fill_standard_normal(&mut st.cur);
            for x in &mut st.cur {
                *x *= self.sd;
            }
            return;
        };
        synthesise_real_with(&sp.scales, &sp.plan, &mut st.rng, &mut self.synth, &mut self.win);
        st.install_window(&self.win, 1, 0, self.sd, self.block, self.overlap);
    }

    /// Fills `out` with the next `out.len()` samples of source
    /// `source`. Sources advance independently: interleaving calls
    /// across sources in any order yields the same per-source draw
    /// sequences. Panics if `source ≥ self.sources()`.
    pub fn next_block(&mut self, source: usize, out: &mut [f64]) {
        let mut filled = 0;
        while filled < out.len() {
            if self.sources[source].pos >= self.sources[source].cur.len() {
                self.refill_source(source);
            }
            let st = &mut self.sources[source];
            let take = (out.len() - filled).min(st.cur.len() - st.pos);
            out[filled..filled + take].copy_from_slice(&st.cur[st.pos..st.pos + take]);
            st.pos += take;
            filled += take;
        }
    }

    /// Lockstep advance of many sources in one call: for every `(source,
    /// row)` pair, fills `buf[row*len .. (row+1)*len]` with the next
    /// `len` samples of that source. Rows must reference distinct
    /// sources; row indices address the caller's slot buffer and need
    /// not be contiguous or ordered.
    ///
    /// This is the fleet hot path. Sources that are due a whole-window
    /// refill (the steady state of a lockstep fleet, where every group
    /// member sits at the same window position) are refilled in cohorts
    /// of [`LANES`] through the lane-parallel synthesis kernel
    /// — one batched normal draw, one lane FFT and one strided seam
    /// blend per cohort instead of a full scalar pipeline per source —
    /// and the cohorts are dealt to the `vbr_stats::par` pool workers.
    /// Sources mid-window, cohort remainders (`< LANES`), white-noise
    /// groups and `len > block` all take the scalar per-source path on
    /// the calling thread, which also copies every row out. All paths
    /// are draw-for-draw bit-identical, so callers cannot observe which
    /// one ran, nor on which worker (the lane-batching policy of
    /// DESIGN.md §16).
    pub fn advance_rows(&mut self, len: usize, buf: &mut [f64], rows: &[(usize, usize)]) {
        if len == 0 {
            return;
        }
        debug_assert!(
            {
                let mut seen = vec![false; self.sources.len()];
                rows.iter().all(|&(s, _)| !std::mem::replace(&mut seen[s], true))
            },
            "advance_rows requires distinct sources"
        );
        let Some(sp) = self.spectrum.clone() else {
            for &(s, r) in rows {
                self.next_block(s, &mut buf[r * len..(r + 1) * len]);
            }
            return;
        };
        // Partition once: a source is cohort-eligible when this advance
        // is exactly "refill one window, then copy" — the emit loop
        // degenerates to a single refill precisely when the window is
        // exhausted and `len` fits inside a fresh one.
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        for &(s, r) in rows {
            let st = &self.sources[s];
            if st.pos >= st.cur.len() && len <= self.block {
                due.push((s, r));
            } else {
                self.next_block(s, &mut buf[r * len..(r + 1) * len]);
            }
        }
        self.refill_cohorts(&sp, &due);
        for &(s, r) in &due {
            if self.sources[s].pos >= self.sources[s].cur.len() {
                // Still due: a cohort remainder, refilled scalar —
                // bit-identical by contract.
                self.refill_source(s);
            }
            let st = &mut self.sources[s];
            buf[r * len..(r + 1) * len].copy_from_slice(&st.cur[..len]);
            st.pos = len;
        }
        self.due = due;
    }

    /// Refills every full [`LANES`]-source cohort of the `due` sources,
    /// dealt to pool workers. The worker count is
    /// `vbr_stats::par::sized_width` of the refill work (due sources ×
    /// `m log₂ m`), capped at one worker per cohort. Each worker owns
    /// one contiguous range of `self.sources`, a whole number of cohorts
    /// wide, plus its own [`LaneWorker`]; it forms cohorts from the due
    /// sources in its range, in `due` order, and leaves the `< LANES`
    /// remainder untouched for the caller. One worker is the serial
    /// case: the whole batch in one range, on the calling thread.
    ///
    /// A source's window depends only on its own state, so which worker
    /// refills which cohort cannot move a bit; inside another pool
    /// worker (a multi-shard fleet) the call is serial.
    fn refill_cohorts(&mut self, sp: &SharedSpectrum, due: &[(usize, usize)]) {
        if due.len() < LANES {
            return;
        }
        let m = sp.m();
        let work = due.len() * m * m.ilog2() as usize;
        let workers = vbr_stats::par::sized_width(work).min(due.len() / LANES);
        if self.lanes.len() < workers {
            self.lanes.resize_with(workers, LaneWorker::default);
        }
        let range = self.sources.len().div_ceil(workers).next_multiple_of(LANES);
        let geometry = (self.sd, self.block, self.overlap);
        vbr_stats::par::par_chunks_mut_with(
            &mut self.sources,
            range,
            &mut self.lanes[..workers],
            |w, sources, lane| {
                let base = w * range;
                let mut cohort = [0usize; LANES];
                let mut k = 0;
                for &(s, _) in due {
                    if (base..base + sources.len()).contains(&s) {
                        cohort[k] = s - base;
                        k += 1;
                        if k == LANES {
                            lane.refill_cohort(sp, geometry, sources, &cohort);
                            k = 0;
                        }
                    }
                }
            },
        );
    }

    /// Exports the dynamic state of one source for checkpointing —
    /// interchangeable with [`CirculantStream::export_state`] for the
    /// same-seed solo stream. Panics if `source` is out of range.
    pub fn export_state(&self, source: usize) -> StreamState {
        self.sources[source].export()
    }

    /// Restores one source from an exported state, with full structural
    /// validation (nothing is mutated on error): buffer lengths must
    /// match this batch's geometry, the position must lie within the
    /// window, all samples must be finite, and the RNG state must not be
    /// the degenerate all-zero word. Panics if `source` is out of range.
    pub fn restore_state(&mut self, source: usize, st: &StreamState) -> Result<(), SnapshotError> {
        self.sources[source].restore(st, self.block, self.overlap, self.spectrum.is_none())
    }
}

/// A solo infinite bounded-memory stream of exact-in-window LRD noise:
/// a [`BatchStream`] holding exactly one source.
///
/// ```
/// use vbr_fgn::{DaviesHarte, FgnStream};
/// let block = 1000;
/// let streamed: Vec<f64> = FgnStream::new(0.8, 1.0, block, 42).take(block).collect();
/// // Prefix-exact: bit-identical to the batch generator on the first block.
/// assert_eq!(streamed, DaviesHarte::new(0.8, 1.0).generate(block, 42));
/// ```
#[derive(Debug, Clone)]
pub struct CirculantStream(BatchStream);

/// The fractional Gaussian noise stream: [`CirculantStream::new`] and
/// [`CirculantStream::try_new`] build the prefix-exact fGn geometry.
pub type FgnStream = CirculantStream;

impl CirculantStream {
    /// A solo stream of `family` seeded with `seed`; see
    /// [`BatchStream::try_new`] for the parameters and their validation.
    pub fn try_from_family(
        family: Family,
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: Option<usize>,
        seed: u64,
    ) -> Result<Self, FgnError> {
        BatchStream::try_new(family, hurst, variance, block, overlap, &[seed]).map(CirculantStream)
    }

    /// Prefix-exact fGn stream: the first `block` samples are
    /// bit-identical to `DaviesHarte::new(hurst, variance).generate(block,
    /// seed)`. Panics on invalid parameters; see
    /// [`try_new`](Self::try_new).
    pub fn new(hurst: f64, variance: f64, block: usize, seed: u64) -> Self {
        Self::try_new(hurst, variance, block, seed)
            .unwrap_or_else(|e| panic!("FgnStream construction failed: {e}"))
    }

    /// Fallible [`new`](Self::new).
    pub fn try_new(hurst: f64, variance: f64, block: usize, seed: u64) -> Result<Self, FgnError> {
        Self::try_from_family(Family::Fgn, hurst, variance, block, None, seed)
    }

    /// Emitted samples per window.
    pub fn block(&self) -> usize {
        self.0.block()
    }

    /// Samples cross-faded at each window seam.
    pub fn overlap(&self) -> usize {
        self.0.overlap()
    }

    /// Circulant transform length per window (`0` on the white-noise
    /// path) — the memory scale of the stream.
    pub fn circulant_len(&self) -> usize {
        self.0.circulant_len()
    }

    /// Fills `out` with the next `out.len()` samples of the stream —
    /// the chunked equivalent of calling [`Iterator::next`] in a loop,
    /// without per-sample dispatch.
    pub fn next_block(&mut self, out: &mut [f64]) {
        self.0.next_block(0, out);
    }

    /// Exports the dynamic state (RNG, current window, seam tail,
    /// position) for checkpointing. `O(block + overlap)` copied floats.
    pub fn export_state(&self) -> StreamState {
        self.0.export_state(0)
    }

    /// Grafts an exported state onto this (same-configuration) stream;
    /// a refused state leaves the stream untouched. See
    /// [`BatchStream::restore_state`] for the validation.
    pub fn restore_state(&mut self, st: &StreamState) -> Result<(), SnapshotError> {
        self.0.restore_state(0, st)
    }
}

impl Iterator for CirculantStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let mut x = 0.0;
        self.next_block(std::slice::from_mut(&mut x));
        Some(x)
    }
}

impl BlockSource for CirculantStream {
    fn next_block(&mut self, out: &mut [f64]) {
        CirculantStream::next_block(self, out);
    }
}

/// The dynamic (per-run) state of one circulant source, exportable for
/// checkpoint/restore.
///
/// Configuration — family, Hurst, variance, block, overlap, and hence
/// the circulant spectrum — is deliberately *not* part of the state: a
/// restore target is rebuilt from its own configuration (whose
/// parameter hash the snapshot envelope guards) and then has this
/// dynamic state grafted on via [`BatchStream::restore_state`]. That
/// keeps snapshots `O(block)` and makes a config/state mismatch a typed
/// error instead of silent garbage.
///
/// The restore contract is **bit-identity**: a stream rebuilt from an
/// exported state emits exactly the same remaining samples, whatever
/// point of a window the export happened at (the current window and
/// seam tail travel in full).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    /// RNG state ([`Xoshiro256::state`]).
    pub rng: [u64; 4],
    /// The window being emitted (empty before the first refill).
    pub cur: Vec<f64>,
    /// Exact tail of the previous window awaiting the next cross-fade.
    pub tail: Vec<f64>,
    /// Emit position within `cur`.
    pub pos: usize,
    /// Whether a window has been synthesised (seam blending is active).
    pub started: bool,
    /// Tenant identity of the source. Solo streams export `0`; batch
    /// sources export whatever identity they were admitted with, so a
    /// state restored into a different batch group (shard migration)
    /// carries its owner along instead of relying on positional index.
    /// Any value is structurally valid — identity is data, not geometry.
    pub tenant: u64,
}

impl StreamState {
    /// Serialises the state into a snapshot section payload.
    pub fn encode(&self, p: &mut Payload) {
        p.put_u64_slice(&self.rng);
        p.put_f64_slice(&self.cur);
        p.put_f64_slice(&self.tail);
        p.put_usize(self.pos);
        p.put_bool(self.started);
        p.put_u64(self.tenant);
    }

    /// Deserialises a state from a snapshot section. Structural bounds
    /// are enforced here; semantic validation against a concrete stream
    /// happens in [`BatchStream::restore_state`].
    pub fn decode(s: &mut Section) -> Result<Self, SnapshotError> {
        let rng_vec = s.get_u64_vec()?;
        let rng: [u64; 4] = rng_vec
            .try_into()
            .map_err(|_| SnapshotError::Invalid { what: "rng state is not 4 words" })?;
        let cur = s.get_f64_vec()?;
        let tail = s.get_f64_vec()?;
        let pos = s.get_usize()?;
        let started = s.get_bool()?;
        let tenant = s.get_u64()?;
        Ok(StreamState { rng, cur, tail, pos, started, tenant })
    }
}

/// Batch fARIMA(0, d, 0) in `O(n log n)` via circulant embedding — the
/// fast alternative to [`crate::Hosking`]'s exact `O(n²)` recursion,
/// and the independent batch comparator for the fARIMA stream's
/// prefix-exactness contract. `H ∈ [0.5, 1)`; variance is the marginal
/// variance (the theoretical fARIMA autocorrelation is used, scaled by
/// `variance`), matching the [`crate::Hosking`] parameterisation.
pub fn farima_via_circulant(
    hurst: f64,
    variance: f64,
    n: usize,
    seed: u64,
) -> Result<Vec<f64>, FgnError> {
    if !(0.5..1.0).contains(&hurst) {
        return Err(FgnError::InvalidHurst { hurst, lo: 0.5, hi: 1.0 });
    }
    if !(variance > 0.0 && variance.is_finite()) {
        return Err(FgnError::InvalidVariance { variance });
    }
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let sd = variance.sqrt();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![rng.standard_normal() * sd]);
    }
    let m = next_pow2(2 * (n - 1)).max(2);
    let lambda = farima_circulant_spectrum_cached(crate::acvf::hurst_to_d(hurst), m)?;
    let mut scratch = SynthScratch::new();
    let mut out = Vec::new();
    synthesise_real_into(&lambda, &mut rng, &mut scratch, &mut out);
    out.truncate(n);
    for x in &mut out {
        *x *= sd;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acvf::fgn_acvf;
    use crate::davies_harte::DaviesHarte;

    fn sample_stats(x: &[f64]) -> (f64, f64) {
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / x.len() as f64;
        (mean, var)
    }

    fn stream(family: Family, block: usize, overlap: Option<usize>, seed: u64) -> CirculantStream {
        CirculantStream::try_from_family(family, 0.8, 1.5, block, overlap, seed).unwrap()
    }

    fn batch(family: Family, hurst: f64, block: usize, seeds: &[u64]) -> BatchStream {
        BatchStream::try_new(family, hurst, 1.0, block, None, seeds).unwrap()
    }

    #[test]
    fn prefix_bit_identical_to_batch() {
        let g = DaviesHarte::new(0.8, 2.5);
        for block in [2usize, 7, 64, 500, 1025] {
            let batch = g.generate(block, 42);
            let streamed: Vec<f64> =
                FgnStream::new(0.8, 2.5, block, 42).take(block).collect();
            assert_eq!(streamed, batch, "block {block}");
        }
    }

    #[test]
    fn block_one_matches_batch_white_path() {
        let g = DaviesHarte::new(0.7, 4.0);
        let batch = g.generate(1, 9);
        let streamed: Vec<f64> = FgnStream::new(0.7, 4.0, 1, 9).take(1).collect();
        assert_eq!(streamed, batch);
        // And it keeps producing iid normals with the right variance.
        let long: Vec<f64> = FgnStream::new(0.7, 4.0, 1, 9).take(50_000).collect();
        let (mean, var) = sample_stats(&long);
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn next_block_matches_iterator() {
        let mut by_chunks = FgnStream::new(0.8, 1.0, 512, 7);
        let by_iter: Vec<f64> = FgnStream::new(0.8, 1.0, 512, 7).take(2000).collect();
        let mut got = vec![0.0; 2000];
        // Odd chunk sizes to exercise window-boundary straddling.
        let (a, rest) = got.split_at_mut(123);
        let (b, c) = rest.split_at_mut(1000);
        by_chunks.next_block(a);
        by_chunks.next_block(b);
        by_chunks.next_block(c);
        assert_eq!(got, by_iter);
    }

    #[test]
    fn long_stream_preserves_marginal_variance() {
        // Cross-faded seams must not change the N(0, σ²) marginal.
        let n = 1 << 17;
        let x: Vec<f64> =
            CirculantStream::try_from_family(Family::Fgn, 0.8, 1.0, 4096, Some(2048), 3)
                .unwrap()
                .take(n)
                .collect();
        let (mean, var) = sample_stats(&x);
        assert!(mean.abs() < 0.12, "mean {mean}");
        assert!((var - 1.0).abs() < 0.12, "var {var}");
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn long_stream_tracks_short_lag_acf() {
        let h = 0.8;
        let n = 1 << 17;
        let x: Vec<f64> =
            CirculantStream::try_from_family(Family::Fgn, h, 1.0, 4096, Some(2048), 11)
                .unwrap()
                .take(n)
                .collect();
        let r = vbr_stats::acf::autocorrelation(&x, 5);
        let want = fgn_acvf(h, 5);
        for k in 1..=5 {
            assert!(
                (r[k] - want[k]).abs() < 0.06,
                "lag {k}: sample {} vs theory {}",
                r[k],
                want[k]
            );
        }
    }

    #[test]
    fn farima_stream_prefix_matches_circulant_batch() {
        for block in [2usize, 33, 700] {
            let batch = farima_via_circulant(0.8, 1.0, block, 5).unwrap();
            let streamed: Vec<f64> =
                CirculantStream::try_from_family(Family::Farima, 0.8, 1.0, block, None, 5)
                    .unwrap()
                    .take(block)
                    .collect();
            assert_eq!(streamed, batch, "block {block}");
        }
    }

    #[test]
    fn farima_circulant_matches_hosking_acf() {
        // Same model, different algorithms: the sample lag-1 correlation
        // of the circulant path must sit near Hosking's theoretical
        // rho_1 = d/(1-d).
        let h = 0.875; // d = 0.375, rho_1 = 0.6
        let x = farima_via_circulant(h, 1.0, 1 << 16, 17).unwrap();
        let r = vbr_stats::acf::autocorrelation(&x, 1);
        let d = crate::acvf::hurst_to_d(h);
        let want = d / (1.0 - d);
        assert!((r[1] - want).abs() < 0.05, "rho_1 {} vs {}", r[1], want);
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        assert!(matches!(
            FgnStream::try_new(1.2, 1.0, 64, 0),
            Err(FgnError::InvalidHurst { .. })
        ));
        assert!(matches!(
            FgnStream::try_new(0.8, -1.0, 64, 0),
            Err(FgnError::InvalidVariance { .. })
        ));
        assert!(FgnStream::try_new(0.8, 1.0, 0, 0).is_err());
        assert!(CirculantStream::try_from_family(Family::Fgn, 0.8, 1.0, 64, Some(65), 0).is_err());
        assert!(CirculantStream::try_from_family(Family::Fgn, 0.8, 1.0, 4, Some(9), 0).is_err());
        assert!(matches!(
            CirculantStream::try_from_family(Family::Farima, 0.3, 1.0, 64, None, 0),
            Err(FgnError::InvalidHurst { lo, .. }) if lo == 0.5
        ));
        assert!(matches!(
            BatchStream::try_new(Family::Fgn, f64::NAN, 1.0, 64, None, &[1]),
            Err(FgnError::InvalidHurst { .. })
        ));
    }

    #[test]
    fn overflowing_geometry_is_a_typed_error() {
        // Unchecked, these wrap to a tiny circulant in release builds (or
        // panic in debug builds / at allocation); snapshot restore builds
        // groups from untrusted keys through this path.
        let overflow = |r: Result<usize, FgnError>| {
            matches!(r, Err(FgnError::Numeric(NumericError::OutOfRange { .. })))
        };
        let top = 1usize << (usize::BITS - 1);
        assert!(overflow(FgnStream::try_new(0.8, 1.0, usize::MAX, 0).map(|s| s.circulant_len())));
        assert!(overflow(
            BatchStream::try_new(Family::Fgn, 0.8, 1.0, top + 5, None, &[])
                .map(|b| b.circulant_len())
        ));
        assert!(overflow(
            BatchStream::try_new(Family::Fgn, 0.8, 1.0, top >> 1, Some(top >> 1), &[])
                .map(|b| b.circulant_len())
        ));
        // The largest window whose circulant still fits is accepted by
        // the geometry (only the arithmetic is checked, not the size).
        assert_eq!(circulant_geometry((top >> 1) + 1, None).unwrap().0, top);
        assert!(circulant_geometry((top >> 1) + 2, None).is_err());
    }

    #[test]
    fn export_restore_resumes_bit_identically() {
        // Kill at an arbitrary (non-boundary) point, restore into a
        // freshly built same-config stream, and the remainder must be
        // bit-identical to the uninterrupted run.
        for (family, block, overlap, taken) in [
            (Family::Fgn, 64usize, None, 100usize),
            (Family::Fgn, 500, Some(123), 777),
            (Family::Fgn, 1, None, 5),
            (Family::Fgn, 64, Some(0), 64),
            (Family::Farima, 200, None, 333),
        ] {
            let mut uninterrupted = stream(family, block, overlap, 21);
            let full: Vec<f64> = uninterrupted.by_ref().take(taken + 500).collect();

            let mut first = stream(family, block, overlap, 21);
            let _prefix: Vec<f64> = first.by_ref().take(taken).collect();
            let state = first.export_state();
            drop(first); // the "crash"

            let mut resumed = stream(family, block, overlap, 21);
            resumed.restore_state(&state).unwrap();
            let rest: Vec<f64> = resumed.take(500).collect();
            let want: Vec<u64> = full[taken..].iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = rest.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{family:?} block={block} overlap={overlap:?} taken={taken}");
        }
    }

    #[test]
    fn restore_rejects_mismatched_or_hostile_state() {
        let mut donor = FgnStream::new(0.8, 1.0, 64, 1);
        let _: Vec<f64> = donor.by_ref().take(10).collect();
        let good = donor.export_state();

        // Wrong geometry: state from a block-64 stream into a block-128 one.
        let mut other = FgnStream::new(0.8, 1.0, 128, 1);
        assert!(other.restore_state(&good).is_err());

        // Hostile mutations, each a typed refusal on the right stream.
        let mut target = FgnStream::new(0.8, 1.0, 64, 2);
        let mut bad = good.clone();
        bad.rng = [0; 4];
        assert!(target.restore_state(&bad).is_err());
        let mut bad = good.clone();
        bad.pos = bad.cur.len() + 1;
        assert!(target.restore_state(&bad).is_err());
        let mut bad = good.clone();
        if !bad.cur.is_empty() {
            bad.cur[0] = f64::NAN;
        }
        assert!(target.restore_state(&bad).is_err());
        let mut bad = good.clone();
        bad.tail.push(0.5);
        assert!(target.restore_state(&bad).is_err());
        let mut bad = good.clone();
        bad.cur.push(0.0);
        assert!(target.restore_state(&bad).is_err());
        // A refused restore leaves the target fully functional…
        target.restore_state(&good).unwrap();
        // …and resuming it matches the donor's continuation.
        let a: Vec<u64> = target.take(100).map(|v| v.to_bits()).collect();
        let b: Vec<u64> = donor.take(100).map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn stream_state_codec_round_trip() {
        use vbr_stats::snapshot::{SnapshotReader, SnapshotWriter};
        let mut s = FgnStream::new(0.8, 1.0, 100, 9);
        let _: Vec<f64> = s.by_ref().take(157).collect();
        let state = s.export_state();
        let mut w = SnapshotWriter::new(1, 1);
        w.section(0x5354_524D, |p| state.encode(p));
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut sec = r.section(0x5354_524D, "stream").unwrap();
        let decoded = StreamState::decode(&mut sec).unwrap();
        sec.finish().unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn geometry_accessors() {
        let s = FgnStream::new(0.8, 1.0, 1000, 1);
        assert_eq!(s.block(), 1000);
        assert_eq!(s.circulant_len(), 2048);
        assert_eq!(s.overlap(), 25); // m/2 + 1 - B = 1025 - 1000
        let s = stream(Family::Fgn, 1000, Some(500), 1);
        assert_eq!(s.overlap(), 500);
        assert_eq!(s.circulant_len(), 4096); // next_pow2(2 * 1499)
        let s = FgnStream::new(0.8, 1.0, 1, 1);
        assert_eq!(s.circulant_len(), 0);
    }

    #[test]
    fn batch_sources_match_solo_streams() {
        // Source i of a batch is draw-for-draw the same-seed solo stream,
        // for both families, on the spectrum and white-noise paths.
        for (family, block) in [(Family::Fgn, 100usize), (Family::Farima, 80), (Family::Fgn, 1)] {
            let seeds = [11u64, 22, 33, 44];
            let mut batch = batch(family, 0.75, block, &seeds);
            assert_eq!(batch.sources(), 4);
            for (i, &s) in seeds.iter().enumerate() {
                let mut solo =
                    CirculantStream::try_from_family(family, 0.75, 1.0, block, None, s).unwrap();
                let mut a = vec![0.0; 350];
                let mut b = vec![0.0; 350];
                batch.next_block(i, &mut a);
                solo.next_block(&mut b);
                assert_eq!(a, b, "{family:?} block {block} source {i}");
            }
        }
    }

    #[test]
    fn interleaving_sources_does_not_couple_them() {
        let seeds = [5u64, 6];
        let mut batch = batch(Family::Fgn, 0.7, 64, &seeds);
        // Drain source 0 far ahead, then source 1, then source 0 again.
        let mut a = vec![0.0; 500];
        let mut b = vec![0.0; 130];
        let mut a2 = vec![0.0; 70];
        batch.next_block(0, &mut a);
        batch.next_block(1, &mut b);
        batch.next_block(0, &mut a2);

        let mut solo0 = FgnStream::new(0.7, 1.0, 64, 5);
        let mut solo1 = FgnStream::new(0.7, 1.0, 64, 6);
        let mut e = vec![0.0; 570];
        let mut f = vec![0.0; 130];
        solo0.next_block(&mut e);
        solo1.next_block(&mut f);
        assert_eq!(a, e[..500]);
        assert_eq!(a2, e[500..]);
        assert_eq!(b, f);
    }

    #[test]
    fn export_restore_round_trips_per_source() {
        let seeds = [9u64, 10];
        let mut batch = batch(Family::Fgn, 0.8, 64, &seeds);
        let mut warm = vec![0.0; 100];
        batch.next_block(0, &mut warm);
        batch.next_block(1, &mut warm);
        let st0 = batch.export_state(0);
        let mut expect = vec![0.0; 150];
        batch.next_block(0, &mut expect);
        // Restoring into a *fresh* batch must resume bit-identically.
        let mut fresh = BatchStream::try_new(Family::Fgn, 0.8, 1.0, 64, None, &seeds).unwrap();
        fresh.restore_state(0, &st0).unwrap();
        let mut got = vec![0.0; 150];
        fresh.next_block(0, &mut got);
        assert_eq!(got, expect);
    }

    #[test]
    fn tenant_identity_round_trips_through_state() {
        // Shard migration: a source pushed with a tenant tag, exported,
        // and restored into a *different* group (different position)
        // must keep both its identity and its draw sequence.
        let mut batch = batch(Family::Fgn, 0.8, 64, &[]);
        let i = batch.push_source(77, 0xBEEF);
        assert_eq!(batch.tenant(i), 0xBEEF);
        let mut warm = vec![0.0; 90];
        batch.next_block(i, &mut warm);
        let st = batch.export_state(i);
        assert_eq!(st.tenant, 0xBEEF);
        let mut expect = vec![0.0; 120];
        batch.next_block(i, &mut expect);

        let mut other = BatchStream::try_new(Family::Fgn, 0.8, 1.0, 64, None, &[]).unwrap();
        other.push_source(1, 1); // occupy index 0 with a stranger
        let j = other.push_source(0, 0); // placeholder seed; state overwrites
        other.restore_state(j, &st).unwrap();
        assert_eq!(other.tenant(j), 0xBEEF, "identity must survive migration");
        let mut got = vec![0.0; 120];
        other.next_block(j, &mut got);
        assert_eq!(got, expect, "draws must survive migration");
    }

    #[test]
    fn pushed_source_matches_constructor_source() {
        let mut ctor = batch(Family::Fgn, 0.7, 48, &[123]);
        let mut grown = batch(Family::Fgn, 0.7, 48, &[]);
        grown.push_source(123, 9);
        let mut a = vec![0.0; 200];
        let mut b = vec![0.0; 200];
        ctor.next_block(0, &mut a);
        grown.next_block(0, &mut b);
        assert_eq!(a, b);
    }
}
