//! Synthetic traffic generation (§4): the full model plus the ablation
//! variants compared in Fig 16 and classic SRD baselines.

use crate::error::ModelError;
use crate::params::ModelParams;
use vbr_fgn::{DaviesHarte, Hosking, MarginalTransform, TableMode};
use vbr_stats::dist::{ContinuousDist, GammaPareto, Normal};
use vbr_stats::error::{check_in_range, check_positive_param};
use vbr_stats::rng::Xoshiro256;
use vbr_video::{dirichlet_slices, Trace};

/// Which marginal distribution the generated traffic has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarginalVariant {
    /// The hybrid Gamma/Pareto of §4.2 (the full model).
    GammaPareto,
    /// Plain Gaussian marginals — the "fractional ARIMA model (with
    /// Gaussian marginals)" ablation of Fig 16.
    Gaussian,
}

/// Which time-correlation structure the generated traffic has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorrelationVariant {
    /// Long-range dependence with the model's H.
    Lrd(LrdEngine),
    /// Independent frames — the "i.i.d. process with Gamma/Pareto
    /// marginals" ablation of Fig 16.
    Iid,
    /// AR(1) short-range dependence (a classic pre-LRD VBR video model,
    /// à la Maglaris et al.) — extension baseline.
    Ar1 {
        /// Lag-1 autocorrelation.
        rho: f64,
    },
    /// LRD *plus* an ARMA short-range filter — the §4 future-work
    /// augmentation ("combining this model with an ARMA filter"):
    /// fractional Gaussian noise passed through an AR(1) stage.
    LrdAr1 {
        /// AR(1) coefficient of the short-range stage.
        rho: f64,
    },
}

/// Which exact-LRD generator drives the Gaussian stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LrdEngine {
    /// Hosking's fractional ARIMA(0, d, 0) (the paper's algorithm, O(n²)).
    Hosking,
    /// Davies–Harte circulant embedding (exact fGn, O(n log n)).
    DaviesHarte,
}

/// A configured source model.
///
/// ```
/// use vbr_model::{ModelParams, SourceModel};
///
/// let model = SourceModel::full(ModelParams::paper_frame_defaults());
/// let frames = model.generate_frames(500, 7);
/// assert_eq!(frames.len(), 500);
/// assert!(frames.iter().all(|&b| b > 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct SourceModel {
    /// The four parameters.
    pub params: ModelParams,
    /// Marginal choice.
    pub marginal: MarginalVariant,
    /// Correlation choice.
    pub correlation: CorrelationVariant,
    /// How the inverse marginal CDF is evaluated (the paper used a
    /// 10 000-point table; `Exact` removes the tail-truncation artefact).
    pub table: TableMode,
    /// Gamma shape for Dirichlet intra-frame slice weights when expanding
    /// frames to slices; `None` splits slices evenly.
    pub slice_weight_shape: Option<f64>,
}

impl SourceModel {
    /// The full model: LRD (Davies–Harte) + Gamma/Pareto marginal via the
    /// paper's 10 000-point table.
    pub fn full(params: ModelParams) -> Self {
        SourceModel {
            params,
            marginal: MarginalVariant::GammaPareto,
            correlation: CorrelationVariant::Lrd(LrdEngine::DaviesHarte),
            table: TableMode::Table(10_000),
            slice_weight_shape: Some(22.0),
        }
    }

    /// Fig 16 ablation: LRD with plain Gaussian marginals.
    pub fn gaussian_marginal(params: ModelParams) -> Self {
        SourceModel { marginal: MarginalVariant::Gaussian, ..Self::full(params) }
    }

    /// Fig 16 ablation: i.i.d. frames with the Gamma/Pareto marginal.
    pub fn iid_gamma_pareto(params: ModelParams) -> Self {
        SourceModel { correlation: CorrelationVariant::Iid, ..Self::full(params) }
    }

    /// Extension baseline: AR(1) short-range dependence with the
    /// Gamma/Pareto marginal.
    pub fn ar1_gamma_pareto(params: ModelParams, rho: f64) -> Self {
        assert!((0.0..1.0).contains(&rho), "AR(1) rho must be in [0, 1)");
        SourceModel { correlation: CorrelationVariant::Ar1 { rho }, ..Self::full(params) }
    }

    /// Fallible [`ar1_gamma_pareto`](Self::ar1_gamma_pareto).
    pub fn try_ar1_gamma_pareto(params: ModelParams, rho: f64) -> Result<Self, ModelError> {
        params.validate()?;
        check_in_range("AR(1) rho", rho, 0.0, 1.0)?;
        Ok(SourceModel { correlation: CorrelationVariant::Ar1 { rho }, ..Self::full(params) })
    }

    /// The §4 future-work augmentation: LRD with an additional AR(1)
    /// short-range stage, Gamma/Pareto marginal.
    pub fn lrd_ar1_gamma_pareto(params: ModelParams, rho: f64) -> Self {
        assert!((0.0..1.0).contains(&rho), "AR(1) rho must be in [0, 1)");
        SourceModel { correlation: CorrelationVariant::LrdAr1 { rho }, ..Self::full(params) }
    }

    /// Fallible [`lrd_ar1_gamma_pareto`](Self::lrd_ar1_gamma_pareto).
    pub fn try_lrd_ar1_gamma_pareto(
        params: ModelParams,
        rho: f64,
    ) -> Result<Self, ModelError> {
        params.validate()?;
        check_in_range("AR(1) rho", rho, 0.0, 1.0)?;
        Ok(SourceModel {
            correlation: CorrelationVariant::LrdAr1 { rho },
            ..Self::full(params)
        })
    }

    /// Checks that the model's parameters (including any correlation-stage
    /// coefficient) are inside their domains — the fields are public, so a
    /// model can drift invalid after construction.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.params.validate()?;
        match self.correlation {
            CorrelationVariant::Ar1 { rho } | CorrelationVariant::LrdAr1 { rho } => {
                check_in_range("AR(1) rho", rho, 0.0, 1.0)?;
            }
            CorrelationVariant::Lrd(_) | CorrelationVariant::Iid => {}
        }
        if let Some(shape) = self.slice_weight_shape {
            check_positive_param("slice_weight_shape", shape)?;
        }
        Ok(())
    }

    /// Generates the Gaussian-domain driving process (zero mean, unit
    /// variance).
    fn gaussian_stage(&self, n: usize, seed: u64) -> Vec<f64> {
        match self.correlation {
            CorrelationVariant::Lrd(LrdEngine::DaviesHarte) => {
                DaviesHarte::new(self.params.hurst, 1.0).generate(n, seed)
            }
            CorrelationVariant::Lrd(LrdEngine::Hosking) => {
                Hosking::new(self.params.hurst, 1.0).generate(n, seed)
            }
            CorrelationVariant::Iid => {
                let mut rng = Xoshiro256::seed_from_u64(seed);
                (0..n).map(|_| rng.standard_normal()).collect()
            }
            CorrelationVariant::Ar1 { rho } => {
                let mut rng = Xoshiro256::seed_from_u64(seed);
                let innov = (1.0 - rho * rho).sqrt();
                let mut x = rng.standard_normal();
                (0..n)
                    .map(|_| {
                        let out = x;
                        x = rho * x + innov * rng.standard_normal();
                        out
                    })
                    .collect()
            }
            CorrelationVariant::LrdAr1 { rho } => {
                let fgn = DaviesHarte::new(self.params.hurst, 1.0).generate(n, seed);
                vbr_fgn::ArmaFilter::ar1(rho).filter(&fgn)
            }
        }
    }

    /// Generates `n` frame sizes (bytes per frame interval, as `f64`).
    ///
    /// Panics on an invalid model;
    /// [`try_generate_frames`](Self::try_generate_frames) is the fallible
    /// equivalent.
    pub fn generate_frames(&self, n: usize, seed: u64) -> Vec<f64> {
        self.try_generate_frames(n, seed)
            .unwrap_or_else(|e| panic!("generate_frames: {e}"))
    }

    /// Fallible [`generate_frames`](Self::generate_frames): validates the
    /// model first and guarantees every emitted frame size is finite —
    /// corrupt output is reported as [`ModelError::NonFiniteOutput`], never
    /// silently fed downstream.
    pub fn try_generate_frames(&self, n: usize, seed: u64) -> Result<Vec<f64>, ModelError> {
        self.validate()?;
        let frames = self.frames_unchecked(n, seed);
        if let Some(index) = frames.iter().position(|v| !v.is_finite()) {
            return Err(ModelError::NonFiniteOutput { index });
        }
        Ok(frames)
    }

    /// The raw generation pipeline, assuming a validated model.
    fn frames_unchecked(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut gauss = self.gaussian_stage(n, seed);
        match self.marginal {
            MarginalVariant::GammaPareto => {
                let target: GammaPareto = self.params.marginal();
                let xform = MarginalTransform::new(&target, 0.0, 1.0, self.table);
                // In place over the Gaussian buffer: same per-sample map
                // as `map_series`, without a second n-length allocation.
                xform.map_inplace(&mut gauss);
                gauss
            }
            MarginalVariant::Gaussian => {
                let target = Normal::new(self.params.mu_gamma, self.params.sigma_gamma);
                // Linear map preserves Gaussianity; floor at zero because
                // frame sizes cannot be negative.
                gauss
                    .iter()
                    .map(|&z| (target.mean() + z * self.params.sigma_gamma).max(0.0))
                    .collect()
            }
        }
    }

    /// Generates a [`Trace`] with the given geometry.
    ///
    /// Panics on an invalid model or geometry;
    /// [`try_generate_trace`](Self::try_generate_trace) is the fallible
    /// equivalent.
    pub fn generate_trace(
        &self,
        n_frames: usize,
        fps: f64,
        slices_per_frame: usize,
        seed: u64,
    ) -> Trace {
        self.try_generate_trace(n_frames, fps, slices_per_frame, seed)
            .unwrap_or_else(|e| panic!("generate_trace: {e}"))
    }

    /// Fallible [`generate_trace`](Self::generate_trace).
    pub fn try_generate_trace(
        &self,
        n_frames: usize,
        fps: f64,
        slices_per_frame: usize,
        seed: u64,
    ) -> Result<Trace, ModelError> {
        check_positive_param("fps", fps)?;
        if slices_per_frame == 0 {
            return Err(vbr_stats::error::NumericError::NonPositive {
                what: "slices_per_frame",
                value: 0.0,
            }
            .into());
        }
        let frames = self.try_generate_frames(n_frames, seed)?;
        let spf = slices_per_frame;
        let slices = match self.slice_weight_shape {
            None => {
                let mut slices = Vec::with_capacity(n_frames * spf);
                for &fb in &frames {
                    let target = fb.round().max(0.0) as u64;
                    let base = target / spf as u64;
                    let rem = (target % spf as u64) as usize;
                    for i in 0..spf {
                        slices.push((base + u64::from(i < rem)) as u32);
                    }
                }
                slices
            }
            Some(shape) => {
                dirichlet_slices(&frames, spf, shape, Xoshiro256::seed_from_u64(seed ^ 0x51CE))
            }
        };
        Ok(Trace::from_slices(slices, spf, fps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_stats::autocorrelation;

    fn params() -> ModelParams {
        ModelParams::paper_frame_defaults()
    }

    #[test]
    fn full_model_matches_marginal_moments() {
        let m = SourceModel::full(params());
        let xs = m.generate_frames(100_000, 1);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let target = params().marginal();
        use vbr_stats::dist::ContinuousDist as _;
        assert!(
            (mean - target.mean()).abs() / target.mean() < 0.05,
            "mean {mean} vs {}",
            target.mean()
        );
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn full_model_is_lrd_iid_is_not() {
        let full = SourceModel::full(params()).generate_frames(60_000, 2);
        let iid = SourceModel::iid_gamma_pareto(params()).generate_frames(60_000, 2);
        let r_full = autocorrelation(&full, 100);
        let r_iid = autocorrelation(&iid, 100);
        // Theoretical fGn r(50) at H = 0.8 is ~0.10; the monotone
        // marginal transform attenuates it somewhat.
        assert!(r_full[50] > 0.05, "full model r(50) = {}", r_full[50]);
        assert!(r_iid[50].abs() < 0.03, "iid r(50) = {}", r_iid[50]);
    }

    #[test]
    fn gaussian_variant_is_gaussian_shaped() {
        let m = SourceModel::gaussian_marginal(params());
        let xs = m.generate_frames(100_000, 3);
        // Gaussian symmetry: skewness ≈ 0; the Gamma/Pareto is right-skewed.
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let sd = (xs.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64)
            .sqrt();
        let skew = xs.iter().map(|&x| ((x - mean) / sd).powi(3)).sum::<f64>()
            / xs.len() as f64;
        assert!(skew.abs() < 0.1, "gaussian skewness {skew}");

        let gp = SourceModel::full(params()).generate_frames(100_000, 3);
        let mg = gp.iter().sum::<f64>() / gp.len() as f64;
        let sg =
            (gp.iter().map(|&x| (x - mg).powi(2)).sum::<f64>() / gp.len() as f64).sqrt();
        let skew_gp =
            gp.iter().map(|&x| ((x - mg) / sg).powi(3)).sum::<f64>() / gp.len() as f64;
        assert!(skew_gp > 0.2, "Gamma/Pareto skewness {skew_gp}");
    }

    #[test]
    fn hosking_and_davies_harte_have_same_statistics() {
        let mut m = SourceModel::full(params());
        m.correlation = CorrelationVariant::Lrd(LrdEngine::Hosking);
        let a = m.generate_frames(8_000, 4);
        m.correlation = CorrelationVariant::Lrd(LrdEngine::DaviesHarte);
        let b = m.generate_frames(8_000, 4);
        let stat = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let sd = (v.iter().map(|&x| (x - mean).powi(2)).sum::<f64>()
                / v.len() as f64)
                .sqrt();
            (mean, sd)
        };
        let (ma, sa) = stat(&a);
        let (mb, sb) = stat(&b);
        assert!((ma - mb).abs() / ma < 0.05);
        assert!((sa - sb).abs() / sa < 0.25);
        let ra = autocorrelation(&a, 10);
        let rb = autocorrelation(&b, 10);
        assert!((ra[1] - rb[1]).abs() < 0.1, "r(1): {} vs {}", ra[1], rb[1]);
    }

    #[test]
    fn ar1_has_geometric_acf() {
        let m = SourceModel::ar1_gamma_pareto(params(), 0.9);
        let xs = m.generate_frames(60_000, 5);
        let r = autocorrelation(&xs, 30);
        // Marginal transform attenuates correlations slightly; check decay.
        assert!(r[1] > 0.75, "r(1) {}", r[1]);
        assert!(r[30] < r[1].powi(15), "AR(1) should decay fast, r(30) = {}", r[30]);
    }

    #[test]
    fn lrd_ar1_has_both_timescales() {
        let m = SourceModel::lrd_ar1_gamma_pareto(params(), 0.9);
        let xs = m.generate_frames(80_000, 12);
        let r = autocorrelation(&xs, 300);
        let plain = SourceModel::full(params()).generate_frames(80_000, 12);
        let r_plain = autocorrelation(&plain, 300);
        // Stronger short-range correlation than plain LRD...
        assert!(r[1] > r_plain[1] + 0.1, "r(1): {} vs {}", r[1], r_plain[1]);
        // ...and the long-range correlations survive the filter.
        assert!(r[300] > 0.02, "r(300) = {}", r[300]);
    }

    #[test]
    fn table_mode_truncates_model_tail() {
        // The Fig 16 discussion: "the model does not hold the Pareto tail
        // … it decays too rapidly for very high values". Table mode caps
        // the largest generated frame; exact mode does not.
        let mut m = SourceModel::full(params());
        let xs_table = m.generate_frames(150_000, 6);
        m.table = TableMode::Exact;
        let xs_exact = m.generate_frames(150_000, 6);
        let max_t = xs_table.iter().cloned().fold(0.0f64, f64::max);
        let max_e = xs_exact.iter().cloned().fold(0.0f64, f64::max);
        assert!(max_e >= max_t, "exact {max_e} vs table {max_t}");
    }

    #[test]
    fn trace_geometry_and_conservation() {
        let m = SourceModel::full(params());
        let t = m.generate_trace(500, 24.0, 30, 7);
        assert_eq!(t.frames(), 500);
        assert_eq!(t.slices_per_frame(), 30);
        let frames = m.generate_frames(500, 7);
        for (i, &fb) in frames.iter().enumerate() {
            assert_eq!(t.frame_bytes(i) as u64, fb.round() as u64, "frame {i}");
        }
    }

    #[test]
    fn even_slice_split_is_flat() {
        let mut m = SourceModel::full(params());
        m.slice_weight_shape = None;
        let t = m.generate_trace(100, 24.0, 30, 8);
        for i in 0..t.frames() {
            let s = &t.slice_bytes()[i * 30..(i + 1) * 30];
            let min = s.iter().min().unwrap();
            let max = s.iter().max().unwrap();
            assert!(max - min <= 1, "even split should differ by ≤ 1 byte");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let m = SourceModel::full(params());
        assert_eq!(m.generate_frames(1000, 9), m.generate_frames(1000, 9));
        assert_ne!(m.generate_frames(1000, 9), m.generate_frames(1000, 10));
    }

    #[test]
    fn try_generate_rejects_drifted_invalid_models() {
        use crate::error::ModelError;
        use vbr_stats::error::NumericError;

        let mut m = SourceModel::full(params());
        m.params.hurst = f64::NAN;
        assert!(matches!(
            m.try_generate_frames(100, 1),
            Err(ModelError::Params(NumericError::NonFinite { what: "hurst", .. }))
        ));

        let mut m = SourceModel::full(params());
        m.params.mu_gamma = -5.0;
        assert!(matches!(
            m.try_generate_frames(100, 1),
            Err(ModelError::Params(NumericError::NonPositive { what: "mu_gamma", .. }))
        ));

        assert!(SourceModel::try_ar1_gamma_pareto(params(), 1.5).is_err());
        assert!(SourceModel::try_lrd_ar1_gamma_pareto(params(), f64::NAN).is_err());
        assert!(SourceModel::try_ar1_gamma_pareto(params(), 0.9).is_ok());
    }

    #[test]
    fn try_generate_trace_rejects_bad_geometry() {
        let m = SourceModel::full(params());
        assert!(m.try_generate_trace(10, 0.0, 30, 1).is_err());
        assert!(m.try_generate_trace(10, 24.0, 0, 1).is_err());
        let t = m.try_generate_trace(10, 24.0, 30, 1).unwrap();
        assert_eq!(t.frames(), 10);
    }

    #[test]
    fn try_generate_matches_panicking_path_and_is_finite() {
        let m = SourceModel::full(params());
        let a = m.try_generate_frames(2_000, 9).unwrap();
        assert_eq!(a, m.generate_frames(2_000, 9));
        assert!(a.iter().all(|v| v.is_finite()));
    }
}
