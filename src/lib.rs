//! # vbr — self-similar VBR video traffic
//!
//! A full reproduction of Garrett & Willinger, *"Analysis, Modeling and
//! Generation of Self-Similar VBR Video Traffic"* (SIGCOMM 1994):
//! statistical analysis of VBR video (heavy-tailed marginals, long-range
//! dependence), the four-parameter Gamma/Pareto + fractional-ARIMA source
//! model, exact LRD traffic generators and trace-driven queueing
//! simulation.
//!
//! This meta-crate re-exports the whole workspace:
//!
//! - [`fft`] — FFT substrate (radix-2, Bluestein, real transforms).
//! - [`stats`] — distributions (incl. the Gamma/Pareto hybrid),
//!   descriptive statistics, ACF, periodogram, confidence intervals.
//! - [`lrd`] — Hurst-parameter estimation: variance-time, R/S, Whittle.
//! - [`fgn`] — exact LRD generators (Hosking, Davies–Harte) and the
//!   marginal transform.
//! - [`video`] — intraframe DCT/RLE/Huffman coder, the [`Trace`] type and
//!   the synthetic movie-trace generator.
//! - [`qsim`] — fluid FIFO queueing with N-source multiplexing, Q-C
//!   curves and statistical multiplexing gain.
//! - [`model`] — the paper's four-parameter source model: estimation,
//!   generation, ablations, validation.
//! - [`serve`] — multi-tenant source-fleet engine: lockstep slice-slot
//!   serving of up to ~10⁶ concurrent sources on one shard per pool
//!   worker, admission control, whole-fleet checkpoints that restore at
//!   any thread count.
//!
//! ```
//! use vbr::prelude::*;
//!
//! // Estimate the four model parameters from a synthetic movie trace…
//! let trace = generate_screenplay(&ScreenplayConfig::short(20_000, 1));
//! let est = estimate_trace(&trace, &EstimateOptions::default());
//! // …and generate new traffic from them.
//! let model = SourceModel::full(est.params);
//! let synthetic = model.generate_trace(1_000, 24.0, 30, 2);
//! assert_eq!(synthetic.frames(), 1_000);
//! ```

#![warn(missing_docs)]

pub use vbr_fft as fft;
pub use vbr_fgn as fgn;
pub use vbr_lrd as lrd;
pub use vbr_model as model;
pub use vbr_qsim as qsim;
pub use vbr_serve as serve;
pub use vbr_stats as stats;
pub use vbr_video as video;

pub use vbr_model::{ModelParams, SourceModel};
pub use vbr_video::Trace;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use vbr_fgn::{
        BlockSource, CirculantStream, DaviesHarte, Family, FgnError, FgnStream, Hosking,
        MarginalTransform, MwmConfig, MwmModel, TableMode, TraceReplay, TrafficModel,
    };
    pub use vbr_lrd::{
        hurst_report, robust_hurst, rs_analysis, variance_time, wavelet_hurst, whittle_log,
        EstimatorKind, HurstReport, LrdError, ReportOptions, RobustHurst, RsOptions, VtOptions,
        WaveletOptions,
    };
    pub use vbr_model::{
        bakeoff_for_trace, estimate_model, estimate_trace, model_zoo, try_estimate_series,
        try_estimate_trace, BakeoffOptions, EstimateOptions, FarimaGpModel, HurstMethod,
        ModelError, ModelParams, SourceModel,
    };
    pub use vbr_qsim::{
        qc_curve, required_capacity_model, smg_curve, ArrivalCursor, FluidQueue, LossMetric,
        LossTarget, MuxSim, QsimError,
    };
    pub use vbr_video::SceneChainModel;
    pub use vbr_stats::dist::{ContinuousDist, Gamma, GammaPareto, Lognormal, Normal, Pareto};
    pub use vbr_stats::{Moments, TraceSummary, Xoshiro256};
    pub use vbr_video::{
        generate_screenplay, generate_screenplay_batch, CoderConfig, Frame, IntraframeCoder, SceneSpec,
        SceneSynthesizer, ScreenplayConfig, Trace,
    };
}
