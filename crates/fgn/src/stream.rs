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
//! one synthesis workspace. A solo stream ([`CirculantStream`], alias
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
//! ## Look-ahead on the background worker
//!
//! When the pool has an idle worker for the window size, a scalar
//! refill posts the source's *next* window, with a copy of the source's
//! RNG, to the `vbr_stats::par` background worker ([`Lookahead`]),
//! which draws its normals from that copy, folds and transforms it while
//! the caller consumes the window just installed. The next refill takes
//! it back — run by the worker, or run there and then if the worker had
//! not started it. The source's own RNG always holds the state a serial
//! refill would have left (it takes the copy's state only when it
//! installs the window), so exports, restores and snapshots cannot tell
//! the look-ahead ran; a restore or another source's refill just drops
//! the window in flight. Lane cohorts never take a source with a window
//! in flight.
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
    synthesise_from_spectrum, synthesise_real_lanes_into, LaneSynthScratch, SpectrumScales,
    SynthScratch,
};
use crate::error::FgnError;
use std::sync::Arc;
use vbr_fft::{next_pow2, real_plan_for, RealFftPlan, LANES};
use vbr_stats::error::NumericError;
use vbr_stats::obs::{self, Counter};
use vbr_stats::par::Lookahead;
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
    /// Owner identity carried through export/restore so a source restored
    /// at another position (a fleet restored at another pool width) keeps
    /// its tenant, not just its positional index. `0` for solo streams.
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
        if st.started && (st.cur.len() != block || st.tail.len() != overlap) {
            // Every installed window leaves a full window and a full seam
            // tail; the next refill's cross-fade reads all `overlap` of it.
            return Err(SnapshotError::Invalid { what: "started stream without a full window and tail" });
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

    /// Installs a freshly synthesised window whose unit-scale sample `t`
    /// is `sample(t)` (a scalar window's packed FFT buffer, or the
    /// source's lane of a lane-interleaved one): scales it by `sd`,
    /// cross-fades the seam against the previous tail and keeps the
    /// window's unused exact tail for the next seam. Always inlined, so
    /// each caller's sample read folds into the copy loops.
    #[inline(always)]
    fn install_window(
        &mut self,
        sample: impl Fn(usize) -> f64,
        sd: f64,
        block: usize,
        overlap: usize,
    ) {
        let (b, l) = (block, overlap);
        let samples = |from: usize, n: usize| (from..from + n).map(|t| sample(t) * sd);
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
/// All buffers (the synthesis workspace, which travels with a window in
/// flight, the lane workspace, every source's window and
/// tail) are allocated once and reused every window, so steady-state
/// generation allocates nothing.
#[derive(Debug, Clone)]
pub struct BatchStream {
    sd: f64,
    block: usize,
    overlap: usize,
    /// `None` is the degenerate `block == 1` white-noise path.
    spectrum: Option<SharedSpectrum>,
    sources: Vec<SourceState>,
    /// Synthesis workspace of the scalar refill: one window. While a
    /// window is in flight (`ahead`), the workspace travels with it.
    synth: SynthScratch,
    /// The next window of one source, synthesised ahead on the pool's
    /// background worker (see [`refill_source`](Self::refill_source)).
    ahead: WindowAhead,
    /// The lane-refill workspace of [`advance_rows`](Self::advance_rows);
    /// allocates nothing unless `advance_rows` forms a cohort.
    cohort: CohortRefill,
    /// `advance_rows`'s `(source, row)` list of sources due a whole
    /// window, kept across calls so a slot allocates nothing.
    due: Vec<(usize, usize)>,
}

/// One source's next window in flight through a
/// [`vbr_stats::par::Lookahead`] slot: everything its job reads, so the
/// job runs on whichever thread gets to it.
#[derive(Debug)]
struct AheadJob {
    /// The window's workspace, sized for the circulant before posting.
    synth: SynthScratch,
    /// A copy of the source's RNG as it stood at the post; once the job
    /// has run, the state right after the window's draws (what a serial
    /// refill of it would leave).
    rng: Xoshiro256,
    scales: Arc<SpectrumScales>,
    plan: Arc<RealFftPlan>,
}

impl AheadJob {
    /// The whole window, as a serial refill makes it: the draws from the
    /// job's RNG (uniforms in contract order, then their quantiles), the
    /// fold and the transform. Allocates nothing.
    fn run(&mut self) {
        self.synth.draw(self.scales.m(), &mut self.rng);
        self.synth.transform(&self.scales, &self.plan);
    }
}

/// The window in flight and the source it belongs to; the slot is made
/// on first use, so streams that never look ahead do not carry one. A
/// clone starts without a window in flight: its source's RNG already
/// holds the serial state, so the clone's draws are the same either way.
#[derive(Debug, Default)]
struct WindowAhead {
    slot: Option<Lookahead<AheadJob>>,
    owner: Option<usize>,
}

impl Clone for WindowAhead {
    fn clone(&self) -> Self {
        WindowAhead::default()
    }
}

/// The lane-parallel refill workspace: normal draws, interleaved
/// half-spectra and window samples for up to [`LANES`] sources at a
/// time.
#[derive(Debug, Clone, Default)]
struct CohortRefill {
    scratch: LaneSynthScratch,
    /// Lane-interleaved window samples of the current cohort.
    buf: Vec<f64>,
}

impl CohortRefill {
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
            sources[s].install_window(|t| self.buf[t * k + v], sd, block, overlap);
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
            synth: SynthScratch::default(),
            ahead: WindowAhead::default(),
            cohort: CohortRefill::default(),
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

    /// Installs the next window of one source, cross-fading the seam:
    /// the window synthesised ahead for this source (by the pool's
    /// background worker, or here if it had not started on it), else one
    /// synthesised here. Then, when the pool has an idle worker, it posts
    /// the source's next window (see [`post_ahead`](Self::post_ahead)).
    /// One source's refill depends only on its own state, so
    /// interleaving sources cannot change any output bit: another
    /// source's refill only drops this source's window in flight, which
    /// its RNG never counted.
    fn refill_source(&mut self, source: usize) {
        let _span = obs::span("fgn.stream_refill");
        obs::counter_add(Counter::StreamBlocks, 1);
        let ahead = if self.has_pending(source) {
            self.ahead.owner = None;
            self.ahead.slot.as_ref().and_then(Lookahead::take)
        } else {
            self.drop_ahead();
            None
        };
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
        match ahead {
            Some(job) => (self.synth, st.rng) = (job.synth, job.rng),
            None => {
                self.synth.draw(sp.m(), &mut st.rng);
                self.synth.transform(&sp.scales, &sp.plan);
            }
        }
        let synth = &self.synth;
        st.install_window(|t| synth.sample(t), self.sd, self.block, self.overlap);
        self.post_ahead(source);
    }

    /// Posts the next window of `source` to the pool's background
    /// worker, to be made while the caller consumes the window just
    /// installed, when `vbr_stats::par::sized_width` of the two windows'
    /// `m log₂ m` transform work allows it (so small windows, and streams
    /// driven from inside a pool worker, stay serial unless the thread
    /// count is pinned). The job carries an un-advanced copy of the
    /// source's RNG and draws the window's normals from it in contract
    /// order ([`AheadJob::run`]); the source's own RNG is untouched until
    /// it installs the window. The worker thus does the whole window
    /// (draw, fold, transform: ~0.65 ms at m = 32 768 on a 2-vCPU VM)
    /// while a caller like `stream_long` installs, maps and queues the
    /// one before (~0.55 ms), so neither side waits long for the other
    /// (DESIGN.md §10, "Block scheme").
    fn post_ahead(&mut self, source: usize) {
        let Some(sp) = &self.spectrum else { return };
        let m = sp.m();
        if vbr_stats::par::sized_width(2 * m * m.ilog2() as usize) < 2 {
            return;
        }
        let mut synth = std::mem::take(&mut self.synth);
        synth.size(m);
        let rng = self.sources[source].rng.clone();
        let slot = self.ahead.slot.get_or_insert_with(|| Lookahead::new(AheadJob::run));
        slot.post(AheadJob {
            synth,
            rng,
            scales: Arc::clone(&sp.scales),
            plan: Arc::clone(&sp.plan),
        });
        self.ahead.owner = Some(source);
    }

    /// True when `source` has a pending window (one in flight).
    fn has_pending(&self, source: usize) -> bool {
        self.ahead.owner == Some(source)
    }

    /// Drops the pending window, if any, keeping its workspace.
    fn drop_ahead(&mut self) {
        if self.ahead.owner.take().is_some() {
            if let Some(job) = self.ahead.slot.as_ref().and_then(Lookahead::cancel) {
                self.synth = job.synth;
            }
        }
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
    /// blend per cohort instead of a full scalar pipeline per source.
    /// Sources mid-window, sources holding a pending window, cohort
    /// remainders (`< LANES`), white-noise groups and `len > block` all
    /// take the scalar per-source path, which also copies every row out.
    /// Everything runs on the calling thread (a fleet runs one call per
    /// shard, one shard per pool worker). All paths are draw-for-draw
    /// bit-identical, so callers cannot observe which one ran (the
    /// lane-batching policy of DESIGN.md §16).
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
        // exhausted and `len` fits inside a fresh one — and it has no
        // pending window, which only the scalar refill installs.
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        for &(s, r) in rows {
            let st = &self.sources[s];
            if st.pos >= st.cur.len() && len <= self.block && !self.has_pending(s) {
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
    /// cohorts formed in `due` order; the `< LANES` remainder is left
    /// untouched for the caller.
    fn refill_cohorts(&mut self, sp: &SharedSpectrum, due: &[(usize, usize)]) {
        let geometry = (self.sd, self.block, self.overlap);
        for rows in due.chunks_exact(LANES) {
            let cohort: [usize; LANES] = std::array::from_fn(|v| rows[v].0);
            self.cohort.refill_cohort(sp, geometry, &mut self.sources, &cohort);
        }
    }

    /// Exports the dynamic state of one source for checkpointing —
    /// interchangeable with [`CirculantStream::export_state`] for the
    /// same-seed solo stream. Panics if `source` is out of range.
    pub fn export_state(&self, source: usize) -> StreamState {
        self.sources[source].export()
    }

    /// Restores one source from an exported state, with full structural
    /// validation (nothing is mutated on error): buffer lengths must
    /// match this batch's geometry (a started source holds a full window
    /// and a full seam tail), the position must lie within the window,
    /// all samples must be finite, and the RNG state must not be the
    /// degenerate all-zero word. A successful restore drops the source's
    /// pending window. Panics if `source` is out of range.
    pub fn restore_state(&mut self, source: usize, st: &StreamState) -> Result<(), SnapshotError> {
        self.sources[source].restore(st, self.block, self.overlap, self.spectrum.is_none())?;
        if self.has_pending(source) {
            self.drop_ahead();
        }
        Ok(())
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
    /// state restored at another position in another batch (a fleet
    /// restored at another pool width) carries its owner along instead
    /// of relying on positional index.
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
    Ok(synthesise_from_spectrum(&lambda, n, sd, &mut rng))
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
        // A started state must carry a full window and a full seam tail:
        // the next refill's cross-fade reads all `overlap` tail samples.
        let mut edge = FgnStream::new(0.8, 1.0, 64, 1);
        assert_eq!(edge.overlap(), 1);
        let _: Vec<f64> = edge.by_ref().take(64).collect();
        let started = edge.export_state();
        assert!(started.started && started.pos == 64);
        let mut bad = started.clone();
        bad.tail.clear();
        assert!(target.restore_state(&bad).is_err());
        let mut bad = started.clone();
        bad.cur.clear();
        bad.pos = 0;
        assert!(target.restore_state(&bad).is_err());
        target.restore_state(&started).unwrap();
        let mut after = vec![0.0; 8];
        target.next_block(&mut after);
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
        // A source pushed with a tenant tag, exported, and restored into
        // a *different* batch at a different position (a fleet restored
        // at another width)
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
        assert_eq!(other.tenant(j), 0xBEEF, "identity must survive the move");
        let mut got = vec![0.0; 120];
        other.next_block(j, &mut got);
        assert_eq!(got, expect, "draws must survive the move");
    }

    #[test]
    fn advance_rows_keeps_pending_sources_out_of_cohorts() {
        // One full cohort's worth of sources at a window end. Source 0
        // refills last, at two workers, so it alone holds a pending
        // window when `advance_rows` runs; were it put in the cohort,
        // its stale pending window would be installed by its next
        // scalar refill.
        let seeds: Vec<u64> = (0..LANES as u64).map(|s| 40 + s).collect();
        let mut batch = batch(Family::Fgn, 0.8, 64, &seeds);
        let mut solos: Vec<FgnStream> =
            seeds.iter().map(|&s| FgnStream::new(0.8, 1.0, 64, s)).collect();
        let rows: Vec<(usize, usize)> = (0..LANES).map(|s| (s, s)).collect();
        let mut buf = vec![0.0; LANES * 64];
        let (mut a, mut b) = (vec![0.0; 64], vec![0.0; 64]);
        vbr_stats::par::with_threads(2, || {
            for s in (0..LANES).rev() {
                batch.next_block(s, &mut a);
                solos[s].next_block(&mut b);
            }
            assert!(batch.has_pending(0));
            batch.advance_rows(64, &mut buf, &rows);
            for s in 0..LANES {
                solos[s].next_block(&mut b);
                assert_eq!(buf[s * 64..(s + 1) * 64], b, "advance of source {s}");
            }
            batch.next_block(0, &mut a);
        });
        solos[0].next_block(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn owner_makes_the_window_a_busy_worker_never_started() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        // Hold the background worker inside another slot's job, so every
        // window the stream posts waits in the queue unstarted and each
        // refill takes it back: the owner draws, folds and transforms it
        // from the job's RNG copy itself. Samples and RNG state must be
        // the serial stream's, window after window.
        type Hold = (Sender<()>, Receiver<()>);
        let (started_tx, started) = channel();
        let (release, release_rx) = channel();
        let busy = Lookahead::new(|(started, release): &mut Hold| {
            started.send(()).unwrap();
            release.recv().unwrap();
        });
        busy.post((started_tx, release_rx));
        started.recv().unwrap();
        let block = 16_384;
        let mut ahead = stream(Family::Fgn, block, None, 8);
        let mut serial = stream(Family::Fgn, block, None, 8);
        for round in 0..4 {
            let len = block - 5 + 3 * round;
            let (mut a, mut b) = (vec![0.0f64; len], vec![0.0f64; len]);
            vbr_stats::par::with_threads(2, || ahead.next_block(&mut a));
            vbr_stats::par::with_threads(1, || serial.next_block(&mut b));
            assert!(ahead.0.has_pending(0), "round {round}: a window was posted");
            assert!(!serial.0.has_pending(0), "one worker posts nothing");
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "round {round}: samples");
            assert_eq!(ahead.export_state(), serial.export_state(), "round {round}: state");
        }
        release.send(()).unwrap();
        assert!(busy.take().is_some());
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
