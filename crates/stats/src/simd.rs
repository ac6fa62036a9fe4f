//! Structure-of-arrays kernels for the pipeline's hot loops.
//!
//! Every kernel is plain safe Rust written as chunk-of-[`LANES`] loops
//! over `f64` lanes — a shape LLVM reliably autovectorizes to SSE2/AVX/
//! AVX-512 (or NEON) without explicit intrinsics — or, where the chunked
//! shape compiles worse, as a plain element-wise loop
//! ([`accumulate_u32`]). The width is one
//! compile-time constant shared with the FFT ([`vbr_fft::LANES`]):
//!
//! - **Chunk boundaries never change bits.** Every chunked kernel
//!   computes each output element with per-element math independent of
//!   where chunk boundaries fall, or (for reductions) preserves the
//!   exact scalar accumulation order at any unroll factor — proven
//!   continuously by the `kernel_digest` binary, which CI runs under
//!   default flags and `target-cpu=native` and diffs (see DESIGN.md
//!   §14).
//! - **Scalar twins.** Each kernel keeps its obvious scalar equivalent
//!   as the property-test oracle.
//!
//! See DESIGN.md §11 for the per-kernel accuracy budget and §14 for why
//! the width is 8.

/// The workspace's one chunk width, shared with the FFT butterflies,
/// and its one ISA probe, which picks the compiled copy of every
/// dispatched kernel.
pub use vbr_fft::{target_features, Isa, Kernel, LANES};

/// `out[i] += src[i] as f64` — the multiplexer's arrival-aggregation
/// kernel. Each output element receives exactly one convert + add, so
/// the result is bit-identical to the scalar loop at any vector width.
/// A plain element-wise loop, not chunks of [`LANES`]: with AVX-512 the
/// compiler turned the chunked shape into gathers and scatters across
/// chunks. Always inlined, so an ISA copy of its caller (the arrival
/// cursor's `next_block`) widens it too.
///
/// Panics if the slices differ in length.
#[inline(always)]
pub fn accumulate_u32(out: &mut [f64], src: &[u32]) {
    assert_eq!(out.len(), src.len(), "accumulate_u32: length mismatch");
    for (o, &s) in out.iter_mut().zip(src) {
        *o += s as f64;
    }
}

/// Sum of a slice in strict left-to-right order, unrolled into chunk
/// loads. The *accumulation order* is exactly the scalar `for` loop's
/// (`(((a0+a1)+a2)+a3)+…`) — the unroll removes loop-counter overhead,
/// not the dependency chain — so totals are bit-identical to
/// sequential `+=` accumulation. This is the kernel for window/byte
/// accounting where the serial recurrence next door already fixes the
/// order.
#[inline]
pub fn sum_sequential(xs: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for &x in c {
            acc += x;
        }
    }
    for &x in chunks.remainder() {
        acc += x;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_features_is_nonempty() {
        assert!(!target_features().is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accumulate_rejects_mismatch() {
        accumulate_u32(&mut [0.0; 3], &[1, 2]);
    }
}
