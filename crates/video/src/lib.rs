//! # vbr-video
//!
//! Video-coding substrate: a working intraframe coder (8×8 DCT, uniform
//! quantisation, zig-zag, run-length, Huffman — "essentially the same
//! coding as the JPEG standard", §2) applied to synthetic imagery, the
//! [`Trace`] type holding bytes-per-slice series, and the
//! [`screenplay`] generator that synthesises the 171 000-frame
//! "Star Wars-like" trace the analyses run on (see DESIGN.md for the
//! substitution rationale).
//!
//! ```
//! use vbr_video::{generate_screenplay, ScreenplayConfig};
//!
//! let trace = generate_screenplay(&ScreenplayConfig::short(1_000, 42));
//! assert_eq!(trace.frames(), 1_000);
//! assert_eq!(trace.slices_per_frame(), 30);
//! let stats = trace.summary_frame();
//! assert!(stats.mean > 0.0);
//! ```

#![warn(missing_docs)]

pub mod coder;
pub mod dct;
pub mod error;
pub mod frame;
pub mod huffman;
pub mod interframe;
pub mod quant;
pub mod rle;
pub mod scene_model;
pub mod scenes;
pub mod screenplay;
pub mod synth;
pub mod trace;
pub mod zigzag;

pub use coder::{psnr, CodedFrame, CoderConfig, IntraframeCoder};
pub use error::TraceError;
pub use interframe::{FrameKind, InterframeCoder};
pub use frame::Frame;
pub use quant::Quantizer;
pub use scene_model::{SceneChainConfig, SceneChainModel};
pub use scenes::{detect_scenes, summarize_scenes, Scene, SceneDetectOptions, SceneSummary};
pub use screenplay::{
    dirichlet_slices, generate as generate_screenplay, generate_batch as generate_screenplay_batch,
    Genre, ScreenplayConfig,
};
pub use synth::{SceneSpec, SceneSynthesizer};
pub use trace::Trace;
