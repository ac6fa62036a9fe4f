//! The workspace's one SIMD chunk width.
//!
//! This lives in `vbr-fft` (the workspace's root crate) so every layer
//! — the FFT butterflies here, the sampling/marginal/queue kernels in
//! `vbr-stats` and above — shares **one** compile-time constant.
//! Downstream crates re-export [`LANES`] (e.g. `vbr_stats::simd::LANES`)
//! rather than defining their own.
//!
//! Every chunked kernel computes each output element with per-element
//! math independent of where chunk boundaries fall (or, for
//! reductions, preserves the exact scalar accumulation order), so the
//! width is invisible in output bits — enforced by the `kernel_digest`
//! binary, which CI builds under default flags and `target-cpu=native`
//! and diffs. See DESIGN.md §14.

/// The chunk width (in `f64` lanes) of every chunked kernel and the
/// number of windows the lane-batched generators synthesise per pass.
///
/// Eight lanes is one AVX-512 register of `f64`s; on narrower hardware
/// a chunk just spans two or four registers. Output bits do not depend
/// on it (DESIGN.md §14).
pub const LANES: usize = 8;

/// Human-readable summary of the relevant CPU features for bench
/// provenance (`BENCH_pipeline.json` schema v4 records it per run).
pub fn target_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        for (name, have) in [
            ("sse2", true), // baseline of x86_64
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if have {
                feats.push(name);
            }
        }
        feats.join("+")
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon".to_string()
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "scalar".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_features_is_nonempty() {
        assert!(!target_features().is_empty());
    }
}
