//! # vbr-model
//!
//! The paper's primary contribution: a **four-parameter source model for
//! VBR video** — `μ_Γ`, `σ_Γ`, `m_T` for the hybrid Gamma/Pareto
//! marginal and `H` for the long-range-dependent correlation structure —
//! with parameter estimation from traces, exact synthetic-traffic
//! generation (Hosking / Davies–Harte), the Fig 16 ablation variants and
//! round-trip validation.
//!
//! ```
//! use vbr_model::{ModelParams, SourceModel};
//!
//! // Build the model the paper fits to the Star Wars trace…
//! let model = SourceModel::full(ModelParams::paper_frame_defaults());
//! // …and generate an hour of synthetic VBR video traffic.
//! let trace = model.generate_trace(5_000, 24.0, 30, 42);
//! assert_eq!(trace.frames(), 5_000);
//! let s = trace.summary_frame();
//! assert!((s.mean - 27_791.0).abs() / 27_791.0 < 0.1);
//! ```

#![warn(missing_docs)]

pub mod bakeoff;
pub mod baselines;
pub mod error;
pub mod estimate;
pub mod generate;
pub mod models;
pub mod params;
pub mod validate;

pub use bakeoff::{
    bakeoff_for_trace, run_bakeoff, score_model, BakeoffOptions, BakeoffReport,
    HurstPanel, Measurement, ModelScore,
};
pub use baselines::{Dar1, MiniSources};
pub use error::ModelError;
pub use estimate::{
    estimate_model, estimate_series, estimate_trace, fit_tail_slope, try_estimate_series,
    try_estimate_trace, Estimate, EstimateOptions, HurstMethod,
};
pub use generate::{CorrelationVariant, LrdEngine, MarginalVariant, SourceModel};
pub use models::{fit_mwm, model_zoo, FarimaGpModel, DEFAULT_MODEL_BLOCK};
pub use params::ModelParams;
pub use validate::{round_trip, Validation};
