//! Multi-tenant source-fleet engine for self-similar VBR traffic
//! serving.
//!
//! The generation crates answer "give me one source's arrival process";
//! this crate answers the operational question a video switch or a
//! traffic-emulation service actually faces: run *hundreds of thousands
//! to millions* of such sources concurrently, at slice granularity, on
//! one machine — admitting and checkpointing them while the fleet keeps
//! ticking.
//!
//! The design stacks three existing mechanisms:
//!
//! * **Batch packing** ([`tenant`]): tenants that agree on model,
//!   parameters and geometry (everything but the seed) share one
//!   circulant spectrum, FFT plan and synthesis scratch via
//!   [`vbr_fgn::BatchStream`] — so a million statistically-uniform
//!   sources pay the spectral setup cost a handful of times, not a
//!   million times.
//! * **One shard per pool worker** ([`fleet`]): sources are dealt
//!   round-robin in admission order to one shard per `vbr_stats::par`
//!   worker, and the shards advance in lockstep slice-slots on those
//!   workers. Shards share nothing during generation, so the pool width
//!   never touches output bits.
//! * **Ordered aggregation** ([`fleet`]): the aggregate arrival
//!   sequence is accumulated in admission order, so the bits are
//!   invariant under thread count and across snapshot/restore at any
//!   width — the workspace determinism contract extended to the serving
//!   layer.
//!
//! Admission is a fixed source cap: a caller that wants a model-driven
//! cap computes it with `vbr_qsim::admit_by_norros` and passes it as
//! `FleetConfig::max_sources`. Snapshots reuse the `vbr_stats::snapshot`
//! codec (and, through `vbr-bench`'s `CheckpointStore`, its crash-safe
//! two-generation file rotation).
#![warn(missing_docs)]

pub mod fleet;
pub mod tenant;

pub use fleet::{AdmitError, Fleet, FleetConfig};
pub use tenant::{GroupKey, SourceModel, TenantId, TenantSpec};
