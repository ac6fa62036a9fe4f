//! The marginal-distribution transform of §4.2, paper Eq (13):
//! `Y_k = F⁻¹_{Γ/P}(F_N(X_k))` — each Gaussian point is pushed through
//! the normal CDF and the target quantile function, preserving the rank
//! (and hence the Hurst parameter) while imposing the Gamma/Pareto
//! marginal.
//!
//! Like the paper's implementation, the inverse target CDF can be
//! evaluated through a 10 000-point lookup table; an exact mode is also
//! provided (the paper's Fig 16 discussion notes the table's tail
//! truncation is one source of model error — we can quantify it).

use vbr_stats::dist::ContinuousDist;
use vbr_stats::special::{norm_cdf, norm_quantile};

/// How the target quantile function is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableMode {
    /// Exact quantile evaluation at every point.
    Exact,
    /// Linear interpolation in a precomputed `N`-point table (the paper
    /// used `N = 10 000`). Probabilities beyond the table's ends are
    /// clamped to the end values — reproducing the tail-truncation
    /// artefact the paper observed.
    ///
    /// The knots are tabulated in *source* (z) space as well as target
    /// space, so the hot path is a grid lookup plus one linear
    /// interpolation — no `Φ` or quantile evaluation per sample. That
    /// is the whole point of the paper's table: at streaming rates the
    /// transform costs a few loads per sample instead of a
    /// transcendental.
    Table(usize),
}

/// Probability-integral transform from a Gaussian process to an arbitrary
/// target marginal. Owns the target distribution (pass `&D` — every
/// `&impl ContinuousDist` is itself a `ContinuousDist` — to borrow it
/// instead) and the table.
#[derive(Debug, Clone)]
pub struct MarginalTransform<D: ContinuousDist> {
    target: D,
    /// Mean of the source Gaussian process.
    src_mean: f64,
    /// Standard deviation of the source Gaussian process.
    src_sd: f64,
    mode: TableMode,
    /// Quantile table at probabilities `(i + ½)/N` (empty in exact mode).
    table: Vec<f64>,
    /// Standardised source positions of the knots, `Φ⁻¹((i + ½)/N)`
    /// (empty in exact mode). Interpolation runs knot-to-knot in this
    /// space, so mapping a sample needs no CDF evaluation.
    zknots: Vec<f64>,
    /// Uniform acceleration grid over `[zknots[0], zknots[N−1]]`: cell
    /// `g` holds the largest knot index whose z is ≤ the cell's left
    /// edge, so a lookup lands at most a couple of knots short.
    zgrid: Vec<u32>,
    zgrid_lo: f64,
    zgrid_inv_step: f64,
    /// Per-interval interpolation slopes
    /// `(table[i+1] − table[i]) / (zknots[i+1] − zknots[i])` (length
    /// `N − 1`; empty in exact mode). Precomputing them removes the
    /// per-sample division from the hot path: a lookup is then
    /// `table[i] + (z − zknots[i]) · slopes[i]` — one subtract, one
    /// multiply, one add.
    slopes: Vec<f64>,
}

impl<D: ContinuousDist> MarginalTransform<D> {
    /// Builds a transform from `N(src_mean, src_sd²)` to `target`.
    pub fn new(target: D, src_mean: f64, src_sd: f64, mode: TableMode) -> Self {
        assert!(src_sd > 0.0, "source std dev must be positive");
        let (table, zknots): (Vec<f64>, Vec<f64>) = match mode {
            TableMode::Exact => (Vec::new(), Vec::new()),
            TableMode::Table(n) => {
                assert!(n >= 2, "table needs at least 2 points");
                (0..n)
                    .map(|i| {
                        let u = (i as f64 + 0.5) / n as f64;
                        (target.quantile(u), norm_quantile(u))
                    })
                    .unzip()
            }
        };
        let (zgrid, zgrid_lo, zgrid_inv_step) = match zknots.as_slice() {
            [] => (Vec::new(), 0.0, 0.0),
            zs => {
                let (lo, hi) = (zs[0], zs[zs.len() - 1]);
                let cells = 2 * zs.len();
                let step = (hi - lo) / cells as f64;
                let mut grid = Vec::with_capacity(cells);
                let mut i = 0u32;
                for g in 0..cells {
                    let edge = lo + g as f64 * step;
                    while (i as usize + 1) < zs.len() && zs[i as usize + 1] <= edge {
                        i += 1;
                    }
                    grid.push(i);
                }
                (grid, lo, 1.0 / step)
            }
        };
        let slopes = if table.len() >= 2 {
            (0..table.len() - 1)
                .map(|i| (table[i + 1] - table[i]) / (zknots[i + 1] - zknots[i]))
                .collect()
        } else {
            Vec::new()
        };
        MarginalTransform {
            target,
            src_mean,
            src_sd,
            mode,
            table,
            zknots,
            zgrid,
            zgrid_lo,
            zgrid_inv_step,
            slopes,
        }
    }

    /// Maps one Gaussian value to the target marginal.
    pub fn map(&self, x: f64) -> f64 {
        match self.mode {
            TableMode::Exact => self.map_exact(x),
            TableMode::Table(_) => self.map_table_one(x),
        }
    }

    #[inline]
    fn map_exact(&self, x: f64) -> f64 {
        // Tripwire (debug builds): a NaN/Inf here propagates silently
        // through `norm_cdf` into the output; production callers that
        // may see hostile samples use `try_map_block_from`/
        // `try_map_series` for the typed refusal.
        debug_assert!(x.is_finite(), "non-finite sample {x} at the marginal-transform seam");
        let u = norm_cdf((x - self.src_mean) / self.src_sd);
        self.target.quantile(u.clamp(1e-300, 1.0 - 1e-16))
    }

    /// The per-sample table walk: standardise, locate the knot cell via
    /// the uniform grid, interpolate linearly in z. Beyond the
    /// first/last knot (|u − ½| > ½ − ½N) the output clamps to the table
    /// ends, as in the paper.
    ///
    /// This single function *is* the hot path for every entry point —
    /// [`map`](Self::map), [`map_inplace`](Self::map_inplace),
    /// [`map_series`](Self::map_series) and the blocked kernel all
    /// inline it — so scalar and batch mapping are bit-identical by
    /// construction, independent of block boundaries.
    #[inline(always)]
    fn map_table_one(&self, x: f64) -> f64 {
        // Tripwire (debug builds): a NaN z fails every knot comparison
        // and interpolates to NaN without any signal. See
        // `try_map_block_from` for the release-mode typed guard.
        debug_assert!(x.is_finite(), "non-finite sample {x} at the marginal-transform seam");
        let z = (x - self.src_mean) / self.src_sd;
        let (t, zk) = (&self.table, &self.zknots);
        let n = t.len();
        if z <= zk[0] {
            return t[0];
        }
        if z >= zk[n - 1] {
            return t[n - 1];
        }
        // Saturating float→usize cast clamps below-range z to cell 0;
        // `min` clamps the top end.
        let g = ((z - self.zgrid_lo) * self.zgrid_inv_step) as usize;
        let mut i = self.zgrid[g.min(self.zgrid.len() - 1)] as usize;
        // The grid entry undershoots by at most the number of knots one
        // cell can hold. Knot spacing is ≥ 1/(N·φ(0)) ≈ 2.5/N while a
        // cell spans range/(2N), so a cell holds ≤ ⌈range·φ(0)/2⌉ ≈ 2
        // knots for every table size this crate builds (range grows only
        // like √ln N). Three compare-and-add advances are therefore
        // branch-free in the vectorizable sense and cover the walk …
        i += (zk[i + 1] < z) as usize;
        i += (zk[i + 1] < z) as usize;
        i += (zk[i + 1] < z) as usize;
        // … and a loop backstop keeps correctness unconditional.
        while zk[i + 1] < z {
            i += 1;
        }
        t[i] + (z - zk[i]) * self.slopes[i]
    }

    /// Maps a whole series.
    pub fn map_series(&self, xs: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.map_series_into(xs, &mut out);
        out
    }

    /// [`map_series`](Self::map_series) into a caller-owned buffer
    /// (cleared and resized in place; repeat calls at one length
    /// allocate nothing).
    pub fn map_series_into(&self, xs: &[f64], out: &mut Vec<f64>) {
        let _span = vbr_stats::obs::span("fgn.marginal_map");
        out.clear();
        out.extend_from_slice(xs);
        self.map_inplace(out);
    }

    /// Transforms a buffer in place — the zero-copy kernel of the
    /// streaming pipeline: a Gaussian block becomes a traffic block
    /// without any intermediate vector.
    ///
    /// Table mode runs the blocked [`LANES`](vbr_stats::simd::LANES)-chunk
    /// kernel; since each lane is the same inlined
    /// [`map_table_one`](Self::map_table_one) the scalar path uses,
    /// results are bit-identical to mapping one sample at a time, for
    /// any block size.
    pub fn map_inplace(&self, xs: &mut [f64]) {
        match self.mode {
            TableMode::Exact => {
                for x in xs {
                    *x = self.map_exact(*x);
                }
            }
            TableMode::Table(_) => {
                let mut chunks = xs.chunks_exact_mut(vbr_stats::simd::LANES);
                for c in &mut chunks {
                    // Independent table walks; the standardise +
                    // fused-lerp arithmetic vectorizes, the (short,
                    // grid-accelerated) index chase stays scalar.
                    for x in c.iter_mut() {
                        *x = self.map_table_one(*x);
                    }
                }
                for x in chunks.into_remainder() {
                    *x = self.map_table_one(*x);
                }
            }
        }
    }

    /// Fused generation step: draws the next `out.len()` Gaussian
    /// samples from `src` directly into `out` and transforms them in
    /// place. One buffer end to end — the streaming pipeline's inner
    /// loop (`O(block)` memory however long the trace).
    pub fn map_block_from<S: crate::stream::BlockSource>(&self, src: &mut S, out: &mut [f64]) {
        src.next_block(out);
        self.map_inplace(out);
    }

    /// Fallible [`map_block_from`](Self::map_block_from): verifies the
    /// generated Gaussian block is entirely finite *before* the
    /// transform (a NaN/Inf would otherwise interpolate to garbage
    /// silently) and that the transformed block is finite *after* it.
    /// On error, `out` holds the offending untransformed samples for
    /// diagnosis; no partial transform is applied.
    pub fn try_map_block_from<S: crate::stream::BlockSource>(
        &self,
        src: &mut S,
        out: &mut [f64],
    ) -> Result<(), crate::error::FgnError> {
        src.next_block(out);
        vbr_stats::error::check_all_finite(out)?;
        self.map_inplace(out);
        vbr_stats::error::check_all_finite(out)?;
        Ok(())
    }

    /// Fallible [`map_series`](Self::map_series): typed refusal on any
    /// non-finite input or output sample.
    pub fn try_map_series(&self, xs: &[f64]) -> Result<Vec<f64>, crate::error::FgnError> {
        let mut out = Vec::new();
        self.try_map_series_into(xs, &mut out)?;
        Ok(out)
    }

    /// [`try_map_series`](Self::try_map_series) into a caller-owned
    /// buffer — the fallible twin of
    /// [`map_series_into`](Self::map_series_into). Repeat calls at one
    /// length allocate nothing, so a fit/refit loop that re-transforms
    /// candidate series every iteration holds a single scratch vector
    /// instead of allocating two full-length buffers per call. On
    /// error, `out` holds the untransformed (or offending transformed)
    /// samples for diagnosis.
    pub fn try_map_series_into(
        &self,
        xs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), crate::error::FgnError> {
        vbr_stats::error::check_all_finite(xs)?;
        self.map_series_into(xs, out);
        vbr_stats::error::check_all_finite(out)?;
        Ok(())
    }

    /// The largest value the transform can produce (table mode truncates
    /// the tail here; exact mode is unbounded).
    pub fn max_output(&self) -> f64 {
        match self.mode {
            TableMode::Exact => f64::INFINITY,
            TableMode::Table(_) => *self.table.last().unwrap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_stats::dist::{GammaPareto, Normal};
    use vbr_stats::rng::Xoshiro256;

    fn target() -> GammaPareto {
        GammaPareto::from_params(27_791.0, 6_254.0, 9.0)
    }

    #[test]
    fn transform_is_monotone() {
        let t = target();
        let f = MarginalTransform::new(&t, 0.0, 1.0, TableMode::Exact);
        let mut prev = f64::NEG_INFINITY;
        for i in -40..=40 {
            let y = f.map(i as f64 / 10.0);
            assert!(y >= prev, "transform must be monotone");
            prev = y;
        }
    }

    #[test]
    fn median_maps_to_median() {
        let t = target();
        let f = MarginalTransform::new(&t, 5.0, 2.0, TableMode::Exact);
        let y = f.map(5.0); // source mean → u = 0.5
        assert!((y - t.quantile(0.5)).abs() < 1e-9);
    }

    #[test]
    fn transformed_gaussian_has_target_marginal() {
        let t = target();
        let f = MarginalTransform::new(&t, 0.0, 1.0, TableMode::Exact);
        let mut rng = Xoshiro256::seed_from_u64(21);
        let xs: Vec<f64> = (0..100_000).map(|_| rng.standard_normal()).collect();
        let ys = f.map_series(&xs);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!(
            (mean - t.mean()).abs() / t.mean() < 0.01,
            "mean {mean} vs {}",
            t.mean()
        );
        // Empirical 99th percentile vs target quantile.
        let mut sorted = ys.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99 = sorted[(sorted.len() as f64 * 0.99) as usize];
        assert!((p99 - t.quantile(0.99)).abs() / p99 < 0.03);
    }

    #[test]
    fn table_mode_matches_exact_in_body() {
        let t = target();
        let exact = MarginalTransform::new(&t, 0.0, 1.0, TableMode::Exact);
        let table = MarginalTransform::new(&t, 0.0, 1.0, TableMode::Table(10_000));
        for i in -25..=25 {
            let x = i as f64 / 10.0; // within ±2.5σ → central body
            let a = exact.map(x);
            let b = table.map(x);
            assert!((a - b).abs() / a < 1e-3, "x={x}: exact {a} vs table {b}");
        }
    }

    #[test]
    fn table_mode_truncates_tail() {
        // This is the artefact the paper reports: "the model does not hold
        // the Pareto tail … it decays too rapidly for very high values".
        let t = target();
        let exact = MarginalTransform::new(&t, 0.0, 1.0, TableMode::Exact);
        let table = MarginalTransform::new(&t, 0.0, 1.0, TableMode::Table(10_000));
        let deep = 5.0; // u ≈ 1 − 2.9e-7, beyond the table's last knot
        assert!(exact.map(deep) > table.map(deep));
        assert_eq!(table.map(deep), table.max_output());
        assert!(table.max_output().is_finite());
        assert_eq!(exact.max_output(), f64::INFINITY);
    }

    #[test]
    fn rank_correlation_preserved() {
        // The transform is monotone, so the *order* of points — and hence
        // rank-based dependence like H — is untouched.
        let t = target();
        let f = MarginalTransform::new(&t, 0.0, 1.0, TableMode::Exact);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let xs: Vec<f64> = (0..1000).map(|_| rng.standard_normal()).collect();
        let ys = f.map_series(&xs);
        for i in 1..xs.len() {
            assert_eq!(
                xs[i] > xs[i - 1],
                ys[i] > ys[i - 1],
                "order flipped at {i}"
            );
        }
    }

    #[test]
    fn inplace_and_into_match_map_series() {
        let t = target();
        let f = MarginalTransform::new(&t, 0.0, 1.0, TableMode::Table(1000));
        let mut rng = Xoshiro256::seed_from_u64(8);
        let xs: Vec<f64> = (0..500).map(|_| rng.standard_normal()).collect();
        let want = f.map_series(&xs);
        let mut buf = xs.clone();
        f.map_inplace(&mut buf);
        assert_eq!(buf, want);
        let mut out = Vec::new();
        f.map_series_into(&xs, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn fused_block_path_matches_batch_pipeline() {
        // Streaming generate + transform in one buffer must reproduce
        // the batch generate-then-map pipeline exactly (prefix-exact
        // stream + identical per-sample map).
        let t = target();
        let f = MarginalTransform::new(&t, 0.0, 1.0, TableMode::Table(10_000));
        let gauss = crate::DaviesHarte::new(0.8, 1.0).generate(512, 3);
        let want = f.map_series(&gauss);
        let mut stream = crate::FgnStream::new(0.8, 1.0, 512, 3);
        let mut buf = vec![0.0; 512];
        f.map_block_from(&mut stream, &mut buf);
        assert_eq!(buf, want);
    }

    #[test]
    fn try_block_path_matches_infallible_path_and_rejects_nan() {
        let t = target();
        let f = MarginalTransform::new(&t, 0.0, 1.0, TableMode::Table(10_000));
        let mut stream = crate::FgnStream::new(0.8, 1.0, 512, 3);
        let mut want = vec![0.0; 512];
        f.map_block_from(&mut stream, &mut want);

        let mut stream = crate::FgnStream::new(0.8, 1.0, 512, 3);
        let mut got = vec![0.0; 512];
        f.try_map_block_from(&mut stream, &mut got).unwrap();
        assert_eq!(got, want);

        // A source that injects a NaN is refused with the sample-level
        // typed error, not transformed into plausible-looking traffic.
        struct Poisoned;
        impl crate::stream::BlockSource for Poisoned {
            fn next_block(&mut self, out: &mut [f64]) {
                out.fill(0.5);
                out[3] = f64::NAN;
            }
        }
        let mut buf = vec![0.0; 8];
        match f.try_map_block_from(&mut Poisoned, &mut buf) {
            Err(crate::error::FgnError::Data(
                vbr_stats::error::DataError::NonFiniteSample { index, .. },
            )) => assert_eq!(index, 3),
            other => panic!("expected NonFiniteSample, got {other:?}"),
        }
    }

    #[test]
    fn try_map_series_guards_both_seams() {
        let t = target();
        let f = MarginalTransform::new(&t, 0.0, 1.0, TableMode::Exact);
        let clean = [0.1, -0.7, 2.0];
        assert_eq!(f.try_map_series(&clean).unwrap(), f.map_series(&clean));
        assert!(f.try_map_series(&[0.1, f64::INFINITY]).is_err());
        assert!(f.try_map_series(&[f64::NAN]).is_err());
    }

    #[test]
    fn works_with_normal_target_as_identityish() {
        // Normal → Normal with same parameters is the identity map.
        let t = Normal::new(3.0, 2.0);
        let f = MarginalTransform::new(&t, 3.0, 2.0, TableMode::Exact);
        for &x in &[-1.0, 0.0, 3.0, 5.5, 9.0] {
            assert!((f.map(x) - x).abs() < 1e-8, "x={x} mapped to {}", f.map(x));
        }
    }
}
