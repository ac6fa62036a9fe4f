//! The workspace's one SIMD chunk width and its one ISA probe.
//!
//! This lives in `vbr-fft` (the workspace's root crate) so every layer
//! — the FFT butterflies here, the sampling/marginal/queue kernels in
//! `vbr-stats` and above — shares **one** compile-time constant and
//! **one** run-time choice of compiled kernel copy. Downstream crates
//! re-export [`LANES`] and [`Isa`] (e.g. `vbr_stats::simd::LANES`)
//! rather than defining their own.
//!
//! Every chunked kernel computes each output element with per-element
//! math independent of where chunk boundaries fall (or, for
//! reductions, preserves the exact scalar accumulation order), so the
//! width is invisible in output bits — enforced by the `kernel_digest`
//! binary, which CI builds under default flags and `target-cpu=native`
//! and diffs. See DESIGN.md §14.

use std::sync::OnceLock;

/// The chunk width (in `f64` lanes) of every chunked kernel and the
/// number of windows the lane-batched generators synthesise per pass.
///
/// Eight lanes is one AVX-512 register of `f64`s; on narrower hardware
/// a chunk just spans two or four registers. Output bits do not depend
/// on it (DESIGN.md §14).
pub const LANES: usize = 8;

/// The compiled copy of the ISA-dispatched kernels (the FFT plan and
/// lane passes, the normal-quantile slice, the Q-C lane kernel) that
/// this process runs: the widest the CPU supports, probed once.
///
/// Each dispatched kernel is one safe [`Kernel`] body that [`Isa::run`]
/// inlines into a `#[target_feature]` function per ISA, so the compiler
/// widens its loops for that ISA; Rust never contracts or reassociates
/// float ops, so every copy gives the same bits (DESIGN.md §11).
/// Nothing but the CPU picks the copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512F: 32 registers of eight `f64`.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2: 16 registers of four `f64`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Whatever the crate is compiled for (SSE2 on default x86-64).
    Portable,
}

impl Isa {
    /// Every copy this build has, widest first.
    pub const ALL: &'static [Isa] = &[
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        Isa::Portable,
    ];

    /// The widest copy the running CPU supports; the probe runs on the
    /// first call only.
    #[inline]
    pub fn detect() -> Isa {
        static ISA: OnceLock<Isa> = OnceLock::new();
        *ISA.get_or_init(|| Isa::supported().next().unwrap_or(Isa::Portable))
    }

    /// Every copy the running CPU supports, widest first; tests and
    /// benches call each directly, whatever [`detect`](Self::detect)
    /// picks.
    pub fn supported() -> impl Iterator<Item = Isa> {
        Isa::ALL.iter().copied().filter(|isa| isa.is_supported())
    }

    /// Whether the running CPU has this copy's target features.
    pub fn is_supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            Isa::Portable => true,
        }
    }

    /// Runs `kernel` from the copy compiled for this ISA: its
    /// `#[inline(always)]` [`Kernel::run`] is inlined into a function
    /// built with the ISA's target features. Give it
    /// [`Isa::detect()`](Self::detect) to run the widest copy.
    ///
    /// # Panics
    /// If the running CPU does not support this ISA.
    #[inline(always)]
    pub fn run<K: Kernel>(self, kernel: K) -> K::Output {
        assert!(self.is_supported(), "this CPU cannot run the {self:?} copy");
        match self {
            // SAFETY: the CPU has the copy's target features (checked
            // just above).
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { run_avx512(kernel) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { run_avx2(kernel) },
            Isa::Portable => kernel.run(),
        }
    }
}

/// A kernel body with its arguments, for [`Isa::run`] to compile once
/// per ISA.
///
/// Implementations mark [`run`](Self::run) `#[inline(always)]` (and the
/// loops it calls too), or the copies would all call one body built for
/// the default target. A closure would not do: its body is one function
/// that every ISA arm of the dispatch calls, which the compiler does not
/// inline into any of them.
pub trait Kernel {
    /// What the kernel returns.
    type Output;
    /// The body.
    fn run(self) -> Self::Output;
}

/// `kernel` compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

/// `kernel` compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

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

    #[test]
    fn isa_probe_matches_target_features() {
        let feats = target_features();
        let want = if feats.contains("avx512f") {
            "Avx512"
        } else if feats.contains("avx2") {
            "Avx2"
        } else {
            "Portable"
        };
        assert_eq!(format!("{:?}", Isa::detect()), want);
        assert_eq!(Isa::supported().next(), Some(Isa::detect()));
        assert_eq!(Isa::supported().last(), Some(Isa::Portable));
        for isa in Isa::supported() {
            assert_eq!(isa.run(Answer), 42);
        }
    }

    struct Answer;
    impl Kernel for Answer {
        type Output = u32;
        #[inline(always)]
        fn run(self) -> u32 {
            42
        }
    }

    #[test]
    fn running_a_copy_the_cpu_lacks_panics() {
        for &isa in Isa::ALL.iter().filter(|isa| !isa.is_supported()) {
            let run = std::panic::catch_unwind(|| isa.run(Answer));
            assert!(run.is_err(), "{isa:?} copy ran on a CPU without it");
        }
    }
}
