//! # vbr-qsim
//!
//! Trace-driven queueing simulation (paper §5, Fig 13): a fluid FIFO
//! queue with finite buffer `Q` and capacity `C`, fed by `N` multiplexed
//! copies of a VBR trace offset by ≥ 1000 frames (6 random lag
//! combinations averaged for N > 2), with overall and worst-errored-second
//! loss metrics, Q-C curve searches (Fig 14) and statistical-multiplexing-
//! gain sweeps (Fig 15).
//!
//! ```
//! use vbr_qsim::{LossMetric, LossTarget, MuxSim};
//! use vbr_video::{generate_screenplay, ScreenplayConfig};
//!
//! let trace = generate_screenplay(&ScreenplayConfig::short(2_000, 7));
//! let sim = MuxSim::new(&trace, 2, 42);
//! // At the aggregate peak slot rate the queue never overflows.
//! let loss = sim.run(sim.peak_slot_rate(), 0.0);
//! assert_eq!(loss.p_l, 0.0);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod analytic;
pub mod error;
pub mod metrics;
pub mod mux;
pub mod source;
pub mod qc;
pub mod queue;
mod search;
pub mod smg;
mod zero;

pub use admission::{admit_by_norros, admit_by_simulation, AdmissionResult};
pub use analytic::{fbm_variance_coef, norros_capacity};
pub use error::QsimError;
pub use metrics::{worst_window_loss, DelayStats, SimResult};
pub use mux::{
    aggregate_arrivals, aggregate_arrivals_multi, draw_offsets, lag_combinations, ArrivalCursor,
    CursorState, LagCombination,
};
pub use source::{required_capacity_model, run_source_queue, try_required_capacity_model, SourceRunStats};
pub use qc::{qc_curve, AveragedLoss, LossMetric, LossTarget, MuxSim, QcPoint};
pub use queue::{FluidQueue, QueueState};
pub use smg::{smg_curve, SmgPoint};
