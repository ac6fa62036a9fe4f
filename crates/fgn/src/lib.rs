//! # vbr-fgn
//!
//! Long-range-dependent sample-path generators (paper §4):
//!
//! - [`Hosking`] — the paper's generator: exact fractional
//!   ARIMA(0, d, 0) via the Durbin–Levinson recursion (Eqs 6–12), `O(n²)`.
//! - [`DaviesHarte`] — exact fractional Gaussian noise via circulant
//!   embedding, `O(n log n)`; the modern answer to the paper's complaint
//!   that 171 000 points took 10 hours in 1994.
//! - [`MarginalTransform`] — the probability-integral transform of Eq (13)
//!   that imposes the Gamma/Pareto marginal on a Gaussian LRD path,
//!   optionally through the paper's 10 000-point lookup table.
//!
//! ```
//! use vbr_fgn::{DaviesHarte, MarginalTransform, TableMode};
//! use vbr_stats::dist::GammaPareto;
//!
//! let fgn = DaviesHarte::new(0.8, 1.0);
//! let gauss = fgn.generate(1000, 42);
//! let marginal = GammaPareto::from_params(27_791.0, 6_254.0, 9.0);
//! let xform = MarginalTransform::new(&marginal, 0.0, 1.0, TableMode::Table(10_000));
//! let traffic = xform.map_series(&gauss);
//! assert!(traffic.iter().all(|&b| b > 0.0)); // bytes per frame, positive
//! ```

#![warn(missing_docs)]

pub mod acvf;
pub mod cache;
pub mod davies_harte;
pub mod error;
pub mod hosking;
pub mod marginal;
pub mod mwm;
pub mod stream;
pub mod traffic;

pub use acvf::{farima_acf, fgn_acvf, hurst_to_d};
pub use cache::{farima_circulant_spectrum_cached, fgn_circulant_spectrum_cached};
pub use davies_harte::{circulant_spectrum, DaviesHarte};
pub use error::FgnError;
pub use hosking::Hosking;
pub use marginal::{MarginalTransform, TableMode};
pub use mwm::{MwmConfig, MwmModel};
pub use traffic::{TraceReplay, TrafficModel, TRAFFIC_STATE_TAG};
pub use stream::{
    farima_via_circulant, BatchStream, BlockSource, CirculantStream, Family, FgnStream,
    StreamState,
};
