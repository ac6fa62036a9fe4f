//! # vbr-lrd
//!
//! Long-range-dependence analysis (paper §3.2): aggregated processes
//! `X^(m)`, variance-time plots (Fig 11), R/S pox-diagram analysis
//! (Fig 12), Whittle's approximate MLE with aggregation sweeps, and a
//! log-periodogram regression cross-check — everything needed to
//! reproduce Table 3.
//!
//! ```
//! use vbr_lrd::{variance_time, VtOptions};
//! use vbr_stats::Xoshiro256;
//!
//! // White noise has beta = 1 (H = 1/2): the SRD reference slope of Fig 11.
//! let mut rng = Xoshiro256::seed_from_u64(1);
//! let xs: Vec<f64> = (0..20_000).map(|_| rng.standard_normal()).collect();
//! let vt = variance_time(&xs, &VtOptions::default());
//! assert!((vt.hurst - 0.5).abs() < 0.1);
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod error;
pub mod local_whittle;
pub mod periodogram_h;
pub mod report;
pub mod robust;
pub mod rs;
pub mod spectrum;
pub mod variance_time;
pub mod wavelet;
pub mod whittle;

pub use aggregate::{aggregate, log_spaced_blocks};
pub use error::LrdError;
pub use local_whittle::{local_whittle, try_local_whittle, LocalWhittleEstimate};
pub use periodogram_h::{periodogram_h, try_periodogram_h, PeriodogramH};
pub use report::{hurst_report, HurstReport, ReportOptions};
pub use robust::{
    robust_hurst, robust_hurst_with, EstimatorAttempt, EstimatorKind, RobustHurst, RobustOptions,
};
pub use rs::{
    rs_aggregated, rs_analysis, rs_statistic, rs_varied, try_rs_analysis, RsAnalysis, RsOptions,
};
pub use spectrum::SharedPeriodogram;
pub use variance_time::{try_variance_time, variance_time, VarianceTime, VtOptions};
pub use wavelet::{
    logscale_diagram, try_wavelet_hurst, wavelet_hurst, wavelet_hurst_with, LogscaleDiagram,
    WaveletEstimate, WaveletOptions, DEFAULT_J_MIN,
};
pub use whittle::{
    try_whittle, try_whittle_log, try_whittle_with, whittle, whittle_aggregated,
    whittle_aggregated_with, whittle_log, whittle_objective_direct, whittle_with,
    SpectralModel, WhittleEstimate, WhittleObjective,
};
