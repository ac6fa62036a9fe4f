//! The model zoo: every generator family as a [`TrafficModel`], plus the
//! fitting glue that builds each family from a reference trace.
//!
//! Three families compete in the bake-off (`model_bakeoff` in
//! `vbr-bench`):
//!
//! - [`FarimaGpModel`] — the paper's own model: a fARIMA(0, d, 0)
//!   Gaussian stream pushed through the Gamma/Pareto marginal transform
//!   (Eq 13). Additive LRD + transformed marginal.
//! - [`vbr_fgn::MwmModel`] — the multifractal wavelet model:
//!   multiplicative, positive by construction, fitted here by matching
//!   per-octave Haar energies from the corrected
//!   [`vbr_lrd::logscale_diagram`].
//! - [`vbr_video::SceneChainModel`] — the Markov scene chain: the
//!   short-range-dependent null hypothesis, fitted from measured scene
//!   statistics.
//!
//! All three snapshot/restore over the same codec and satisfy the same
//! conformance suite (`tests/traffic_conformance.rs`).

use vbr_fgn::stream::BlockSource;
use vbr_fgn::traffic::TrafficModel;
use vbr_fgn::{CirculantStream, Family, MarginalTransform, MwmConfig, MwmModel, TableMode};
use vbr_lrd::{logscale_diagram, try_wavelet_hurst, WaveletOptions};
use vbr_stats::dist::{ContinuousDist, GammaPareto};
use vbr_stats::snapshot::{Payload, Section, SnapshotError};
use vbr_stats::ParamHasher;
use vbr_video::{SceneChainModel, SceneDetectOptions};

use crate::error::ModelError;
use crate::params::ModelParams;

/// Default emitted-samples-per-window for the fARIMA stream backing
/// [`FarimaGpModel`] — also the MWM's maximum synthesis block.
pub const DEFAULT_MODEL_BLOCK: usize = 4096;

/// The paper's model as a [`TrafficModel`]: streaming fARIMA(0, d, 0)
/// Gaussian noise (unit variance) mapped through the table-mode
/// Gamma/Pareto marginal transform.
#[derive(Debug, Clone)]
pub struct FarimaGpModel {
    params: ModelParams,
    block: usize,
    stream: CirculantStream,
    xform: MarginalTransform<GammaPareto>,
    mean: f64,
    variance: f64,
}

impl FarimaGpModel {
    /// Builds the model from fitted parameters. Panics on invalid
    /// parameters; [`try_from_params`](Self::try_from_params) is the
    /// fallible variant.
    pub fn from_params(params: &ModelParams, block: usize, seed: u64) -> Self {
        Self::try_from_params(params, block, seed)
            .unwrap_or_else(|e| panic!("FarimaGpModel: {e}"))
    }

    /// Fallible [`from_params`](Self::from_params).
    pub fn try_from_params(
        params: &ModelParams,
        block: usize,
        seed: u64,
    ) -> Result<Self, ModelError> {
        params.validate()?;
        let stream =
            CirculantStream::try_from_family(Family::Farima, params.hurst, 1.0, block, None, seed)?;
        let target = params.marginal();
        let (mean, variance) = (target.mean(), target.variance());
        let xform = MarginalTransform::new(target, 0.0, 1.0, TableMode::Table(10_000));
        Ok(FarimaGpModel { params: *params, block, stream, xform, mean, variance })
    }

    /// The fitted four-parameter model.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }
}

impl BlockSource for FarimaGpModel {
    fn next_block(&mut self, out: &mut [f64]) {
        self.xform.map_block_from(&mut self.stream, out);
    }
}

impl TrafficModel for FarimaGpModel {
    fn name(&self) -> &'static str {
        "farima-gamma-pareto"
    }

    fn nominal_hurst(&self) -> Option<f64> {
        Some(self.params.hurst)
    }

    fn nominal_mean(&self) -> f64 {
        self.mean
    }

    fn nominal_variance(&self) -> f64 {
        self.variance
    }

    fn param_hash(&self) -> u64 {
        ParamHasher::new()
            .str("farima-gamma-pareto")
            .f64(self.params.mu_gamma)
            .f64(self.params.sigma_gamma)
            .f64(self.params.tail_slope)
            .f64(self.params.hurst)
            .usize(self.block)
            .finish()
    }

    fn encode_state(&self, p: &mut Payload) {
        self.stream.export_state().encode(p);
    }

    fn decode_state(&mut self, s: &mut Section) -> Result<(), SnapshotError> {
        let st = vbr_fgn::StreamState::decode(s)?;
        self.stream.restore_state(&st)
    }
}

/// Fits a [`MwmModel`] to a trace by matching its per-octave Haar
/// detail/approximation energy ratios (`E[m_j²] = E[d_j²]/E[a_j²]`,
/// `p_j = (1/E[m_j²] − 1)/2`), with the root moments taken from the
/// coarsest octave and the nominal H from the corrected wavelet
/// estimator when the trace supports one. Panics on traces shorter than
/// 64 samples or with non-positive mean.
pub fn fit_mwm(trace: &[f64], seed: u64) -> MwmModel {
    let n = trace.len();
    assert!(n >= 64, "fit_mwm needs at least 64 samples, got {n}");
    let mean = trace.iter().sum::<f64>() / n as f64;
    let variance = trace.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    assert!(mean > 0.0, "fit_mwm needs a positive-mean trace");

    // J synthesis levels: cover as many measured octaves as the trace
    // supports (coarsest recorded octave has ≥ 4 coefficients; stay one
    // short of that so the root moment estimate keeps ≥ 8 samples),
    // capped so one block stays a few thousand samples.
    let j_levels = (((n / 8) as f64).log2().floor() as usize)
        .clamp(3, DEFAULT_MODEL_BLOCK.trailing_zeros() as usize);
    let diagram = logscale_diagram(trace);

    let mut shapes = vec![f64::NAN; j_levels];
    for ((&j, &lv), &ae) in diagram
        .octaves
        .iter()
        .zip(&diagram.log2_variance)
        .zip(&diagram.approx_energy)
    {
        if j > j_levels || ae <= 0.0 {
            continue;
        }
        let em2 = (2.0f64.powf(lv) / ae).clamp(1e-4, 0.99);
        shapes[j - 1] = ((1.0 / em2 - 1.0) / 2.0).clamp(0.05, 1e4);
    }
    // Octaves the diagram skipped (zero variance) inherit the nearest
    // finer octave's shape; a fully degenerate trace gets a neutral 1.0.
    let mut last = 1.0;
    for s in shapes.iter_mut() {
        if s.is_nan() {
            *s = last;
        } else {
            last = *s;
        }
    }

    // Root moments: the coarsest-octave approximation coefficients have
    // mean `2^{J/2}·mean` and energy `E[a_J²]` as recorded.
    let root_mean = mean * 2.0f64.powf(j_levels as f64 / 2.0);
    let root_sd = diagram
        .octaves
        .iter()
        .position(|&j| j == j_levels)
        .map(|idx| (diagram.approx_energy[idx] - root_mean * root_mean).max(0.0).sqrt())
        .unwrap_or(0.0);

    let nominal_hurst = try_wavelet_hurst(trace, &WaveletOptions::default())
        .ok()
        .map(|e| e.hurst)
        .filter(|h| h.is_finite() && *h > 0.0 && *h < 1.5);

    MwmModel::new(
        MwmConfig {
            root_mean,
            root_sd,
            shapes,
            nominal_hurst,
            nominal_mean: mean,
            nominal_variance: variance,
        },
        seed,
    )
}

/// Builds the full fitted model zoo from a reference trace: the paper's
/// fARIMA + Gamma/Pareto model from `params` (typically
/// [`crate::estimate_series`] output for the same trace), the MWM from
/// the trace's Haar energies, and the scene chain from its measured
/// scene statistics. Returned boxed so callers can iterate one seam.
pub fn model_zoo(
    trace: &[f64],
    params: &ModelParams,
    seed: u64,
) -> Vec<Box<dyn TrafficModel>> {
    vec![
        Box::new(FarimaGpModel::from_params(params, DEFAULT_MODEL_BLOCK, seed)),
        Box::new(fit_mwm(trace, seed ^ 0x4D57_4D00)),
        Box::new(SceneChainModel::fit(
            trace,
            4,
            &SceneDetectOptions::default(),
            seed ^ 0x5343_4E00,
        )),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_model() -> FarimaGpModel {
        FarimaGpModel::from_params(&ModelParams::paper_frame_defaults(), 512, 77)
    }

    #[test]
    fn farima_gp_matches_nominal_marginal() {
        let mut m = paper_model();
        let xs = m.sample_series(200_000);
        assert!(xs.iter().all(|&x| x >= 0.0 && x.is_finite()));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            (mean - m.nominal_mean()).abs() / m.nominal_mean() < 0.02,
            "mean {mean} vs nominal {}",
            m.nominal_mean()
        );
    }

    #[test]
    fn farima_gp_deterministic_and_restorable() {
        let mut a = paper_model();
        let mut b = paper_model();
        assert_eq!(a.sample_series(1000), b.sample_series(1000));

        let snap = a.snapshot(5);
        let want = a.sample_series(700);
        let mut fresh = FarimaGpModel::from_params(
            &ModelParams::paper_frame_defaults(),
            512,
            0, // seed differs; snapshot carries the state
        );
        assert_eq!(fresh.restore(&snap).unwrap(), 5);
        assert_eq!(fresh.sample_series(700), want);
    }

    #[test]
    fn mwm_fit_tracks_trace_moments() {
        // Fit the MWM to the paper model's own output and check the
        // regenerated mean lands near the trace mean.
        let mut src = paper_model();
        let trace = src.sample_series(32_768);
        let mut mwm = fit_mwm(&trace, 9);
        let ys = mwm.sample_series(32_768);
        assert!(ys.iter().all(|&y| y >= 0.0));
        let tm = trace.iter().sum::<f64>() / trace.len() as f64;
        let ym = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!((ym - tm).abs() / tm < 0.1, "mwm mean {ym} vs trace {tm}");
    }

    #[test]
    fn mwm_fit_recovers_lrd_scaling() {
        // Fit to strongly-LRD fGn shifted positive: the refitted MWM's own
        // wavelet H should be well above ½ (scaling carried over).
        let h = 0.85;
        let gauss = vbr_fgn::DaviesHarte::new(h, 1.0).generate(65_536, 5);
        let trace: Vec<f64> = gauss.iter().map(|g| 10.0 + g).collect();
        let mut mwm = fit_mwm(&trace, 3);
        let ys = mwm.sample_series(65_536);
        let est = vbr_lrd::wavelet_hurst(&ys, None, None);
        assert!(
            est.hurst > 0.7,
            "MWM lost the LRD scaling: refit H = {}",
            est.hurst
        );
    }

    #[test]
    fn zoo_builds_three_distinct_models() {
        let mut src = paper_model();
        let trace = src.sample_series(16_384);
        let zoo = model_zoo(&trace, &ModelParams::paper_frame_defaults(), 1);
        let names: Vec<&str> = zoo.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["farima-gamma-pareto", "mwm", "scene-chain"]);
        for mut m in zoo {
            let xs = m.sample_series(2048);
            assert!(xs.iter().all(|&x| x >= 0.0 && x.is_finite()), "{}", m.name());
        }
    }
}
