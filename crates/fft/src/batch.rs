//! Lane-parallel batched transforms: `L` independent signals
//! transformed simultaneously, one per SIMD lane, over a single
//! lane-interleaved buffer.
//!
//! ## Layout
//!
//! Element `j` of lane `v` lives at `data[j * l + v]` — structure of
//! arrays at the finest grain, so every per-element operation of the
//! scalar kernel becomes one unit-stride vector operation across the
//! lanes. This is the opposite decomposition from the width-chunked
//! kernels in [`crate::plan`], which vectorize *within* one transform
//! and pay shuffles for it: here the butterfly index pattern is
//! irrelevant because all `l` lanes execute the identical scalar op
//! sequence in lockstep.
//!
//! ## Bit contract
//!
//! Each lane's arithmetic is exactly the scalar plan's arithmetic: the
//! lane loops call the same value-level cores
//! ([`crate::plan::radix4_core`], the fold expressions of
//! [`RealFftPlan`]) at the same indices in the same stage order. No
//! operation ever mixes lanes. A lane-batched transform is therefore
//! **bit-identical** per lane to `l` scalar transforms, for every `l` —
//! which is what lets the generators batch `l = LANES` windows without
//! moving a bit (DESIGN.md §16), proven by the `batch_fft` section of
//! `kernel_digest` and the scalar-twin proptests.

use crate::complex::Complex;
use crate::plan::{first_radix4_span, radix4_core, FftPlan};
use crate::real::RealFftPlan;

impl FftPlan {
    /// In-place forward transform of `l` lane-interleaved signals
    /// (`data.len() == len() * l`; element `j` of lane `v` at
    /// `data[j*l + v]`). Bit-identical per lane to [`FftPlan::forward`]
    /// of that lane alone.
    pub fn forward_lanes(&self, data: &mut [Complex], l: usize) {
        self.run_lanes::<true>(data, l);
    }

    /// In-place inverse transform (unnormalised) of `l` lane-interleaved
    /// signals; the lane twin of [`FftPlan::inverse`].
    pub fn inverse_lanes(&self, data: &mut [Complex], l: usize) {
        self.run_lanes::<false>(data, l);
    }

    fn run_lanes<const FWD: bool>(&self, data: &mut [Complex], l: usize) {
        let n = self.n;
        assert!(l >= 1, "lane count must be >= 1");
        assert_eq!(
            data.len(),
            n * l,
            "plan is for length {n} x {l} lanes, got {}",
            data.len()
        );
        if n <= 1 {
            return;
        }

        // Bit-reversal permutes whole lane groups; within a group the
        // lanes keep their slots, so each lane sees exactly the scalar
        // permutation.
        for i in 1..n {
            let j = self.bit_rev[i] as usize;
            if i < j {
                for v in 0..l {
                    data.swap(i * l + v, j * l + v);
                }
            }
        }

        // Trivial span-2 radix-2 stage for odd log₂ n — same expression
        // as the scalar kernel, per lane.
        let mut len = first_radix4_span(n);
        if len == 8 {
            for pair in data.chunks_exact_mut(2 * l) {
                let (p0, p1) = pair.split_at_mut(l);
                for v in 0..l {
                    let u = p0[v];
                    let w = p1[v];
                    p0[v] = u + w;
                    p1[v] = u - w;
                }
            }
            if n == 2 {
                return;
            }
        }

        let mut base = 0usize;
        while len <= n {
            let quarter = len / 4;
            let stage_re = &self.tw_re[base..base + 3 * quarter];
            let stage_im = &self.tw_im[base..base + 3 * quarter];
            radix4_stage_lanes::<FWD>(data, l, len, stage_re, stage_im);
            base += 3 * quarter;
            len <<= 2;
        }
    }
}

/// One lane-parallel radix-4 pass: the loop structure of
/// `plan::radix4_stage` with an inner lane loop, every lane running
/// [`radix4_core`] at the same `(chunk, j)`.
fn radix4_stage_lanes<const FWD: bool>(
    data: &mut [Complex],
    l: usize,
    len: usize,
    w_re: &[f64],
    w_im: &[f64],
) {
    let quarter = len / 4;
    let (w1re, rest) = w_re.split_at(quarter);
    let (w2re, w3re) = rest.split_at(quarter);
    let (w1im, rest) = w_im.split_at(quarter);
    let (w2im, w3im) = rest.split_at(quarter);

    for chunk in data.chunks_exact_mut(len * l) {
        let (q0, rest) = chunk.split_at_mut(quarter * l);
        let (q1, rest) = rest.split_at_mut(quarter * l);
        let (q2, q3) = rest.split_at_mut(quarter * l);
        for j in 0..quarter {
            let (r1, i1) = (w1re[j], w1im[j]);
            let (r2, i2) = (w2re[j], w2im[j]);
            let (r3, i3) = (w3re[j], w3im[j]);
            // The lane loop is unit-stride over `l` adjacent elements —
            // the autovectorizer's favourite shape; no shuffles, no
            // gathers, and no cross-lane arithmetic.
            for v in 0..l {
                let idx = j * l + v;
                let (o0, o1, o2, o3) = radix4_core::<FWD>(
                    q0[idx], q1[idx], q2[idx], q3[idx], r1, i1, r2, i2, r3, i3,
                );
                q0[idx] = o0;
                q1[idx] = o1;
                q2[idx] = o2;
                q3[idx] = o3;
            }
        }
    }
}

impl RealFftPlan {
    /// Lane-parallel twin of [`RealFftPlan::synthesize_hermitian`]:
    /// synthesises `l` real signals from `l` lane-interleaved Hermitian
    /// half-spectra in one pass.
    ///
    /// `half` holds `(n/2 + 1) * l` bins (bin `k` of lane `v` at
    /// `half[k*l + v]`); `out` receives `n * l` reals (sample `t` of
    /// lane `v` at `out[t*l + v]`); `scratch` is the lane-interleaved
    /// half-length complex workspace. Per lane, every fold / twiddle /
    /// emit expression is the scalar plan's — outputs are bit-identical
    /// to `l` scalar syntheses.
    pub fn synthesize_hermitian_lanes(
        &self,
        half: &[Complex],
        out: &mut Vec<f64>,
        scratch: &mut Vec<Complex>,
        l: usize,
    ) {
        let n = self.n;
        let h = n / 2;
        assert!(l >= 1, "lane count must be >= 1");
        assert_eq!(
            half.len(),
            (h + 1) * l,
            "plan needs {} x {l} half-spectrum bins, got {}",
            h + 1,
            half.len()
        );
        if scratch.len() != h * l {
            scratch.clear();
            scratch.resize(h * l, Complex::ZERO);
        }
        for v in 0..l {
            let dc = Complex::from_re(half[v].re);
            let nyq = Complex::from_re(half[h * l + v].re);
            let a = dc + nyq;
            let b = dc - nyq;
            scratch[v] = Complex::new(a.re - b.im, a.im + b.re);
        }
        for k in 1..h {
            let (tw_re, tw_im) = (self.tw_re[k], self.tw_im[k]);
            for v in 0..l {
                let wk = half[k * l + v];
                let wkh = half[(h - k) * l + v].conj();
                let a = wk + wkh;
                let d = wk - wkh;
                let b_re = d.re * tw_re - d.im * tw_im;
                let b_im = d.re * tw_im + d.im * tw_re;
                scratch[k * l + v] = Complex::new(a.re - b_im, a.im + b_re);
            }
        }
        self.half_plan.forward_lanes(scratch, l);
        if out.len() != n * l {
            out.clear();
            out.resize(n * l, 0.0);
        }
        for t in 0..h {
            for v in 0..l {
                let z = scratch[t * l + v];
                out[(2 * t) * l + v] = z.re;
                out[(2 * t + 1) * l + v] = z.im;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_for;
    use crate::real::real_plan_for;

    fn lane_signal(n: usize, v: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = (i + 7 * v) as f64;
                Complex::new((t * 0.61).sin(), (t * 1.27).cos())
            })
            .collect()
    }

    #[test]
    fn forward_lanes_bit_identical_to_scalar() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256, 1024] {
            for &l in &[1usize, 2, 3, 4, 8] {
                let plan = plan_for(n);
                let lanes: Vec<Vec<Complex>> = (0..l).map(|v| lane_signal(n, v)).collect();
                let mut interleaved = vec![Complex::ZERO; n * l];
                for (v, lane) in lanes.iter().enumerate() {
                    for (j, &z) in lane.iter().enumerate() {
                        interleaved[j * l + v] = z;
                    }
                }
                plan.forward_lanes(&mut interleaved, l);
                for (v, lane) in lanes.iter().enumerate() {
                    let mut scalar = lane.clone();
                    plan.forward(&mut scalar);
                    for j in 0..n {
                        assert_eq!(
                            interleaved[j * l + v], scalar[j],
                            "n={n} l={l} lane={v} j={j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_lanes_bit_identical_to_scalar() {
        let (n, l) = (128usize, 4usize);
        let plan = plan_for(n);
        let lanes: Vec<Vec<Complex>> = (0..l).map(|v| lane_signal(n, v)).collect();
        let mut interleaved = vec![Complex::ZERO; n * l];
        for (v, lane) in lanes.iter().enumerate() {
            for (j, &z) in lane.iter().enumerate() {
                interleaved[j * l + v] = z;
            }
        }
        plan.inverse_lanes(&mut interleaved, l);
        for (v, lane) in lanes.iter().enumerate() {
            let mut scalar = lane.clone();
            plan.inverse(&mut scalar);
            for j in 0..n {
                assert_eq!(interleaved[j * l + v], scalar[j], "lane={v} j={j}");
            }
        }
    }

    #[test]
    fn synthesize_lanes_bit_identical_to_scalar() {
        for &n in &[2usize, 4, 8, 32, 256, 2048] {
            for &l in &[1usize, 2, 4, 8] {
                let h = n / 2;
                let plan = real_plan_for(n);
                let halves: Vec<Vec<Complex>> = (0..l)
                    .map(|v| {
                        let mut half = vec![Complex::ZERO; h + 1];
                        half[0] = Complex::from_re(0.5 + v as f64);
                        half[h] = Complex::from_re(-1.5 + v as f64 * 0.25);
                        for (k, slot) in half.iter_mut().enumerate().take(h).skip(1) {
                            let t = (k + 3 * v) as f64;
                            *slot = Complex::new((t * 0.77).cos(), (t * 0.43).sin());
                        }
                        half
                    })
                    .collect();
                let mut interleaved = vec![Complex::ZERO; (h + 1) * l];
                for (v, half) in halves.iter().enumerate() {
                    for (k, &z) in half.iter().enumerate() {
                        interleaved[k * l + v] = z;
                    }
                }
                let (mut out, mut scratch) = (Vec::new(), Vec::new());
                plan.synthesize_hermitian_lanes(&interleaved, &mut out, &mut scratch, l);
                assert_eq!(out.len(), n * l);
                for (v, half) in halves.iter().enumerate() {
                    let (mut want, mut s) = (Vec::new(), Vec::new());
                    plan.synthesize_hermitian(half, &mut want, &mut s);
                    for t in 0..n {
                        assert_eq!(
                            out[t * l + v].to_bits(),
                            want[t].to_bits(),
                            "n={n} l={l} lane={v} t={t}"
                        );
                    }
                }
            }
        }
    }
}
