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
use crate::width::{Isa, Kernel};

impl FftPlan {
    /// In-place forward transform of `l` lane-interleaved signals
    /// (`data.len() == len() * l`; element `j` of lane `v` at
    /// `data[j*l + v]`). Bit-identical per lane to [`FftPlan::forward`]
    /// of that lane alone.
    pub fn forward_lanes(&self, data: &mut [Complex], l: usize) {
        self.forward_lanes_on(Isa::detect(), data, l);
    }

    /// In-place inverse transform (unnormalised) of `l` lane-interleaved
    /// signals; the lane twin of [`FftPlan::inverse`].
    pub fn inverse_lanes(&self, data: &mut [Complex], l: usize) {
        Isa::detect().run(LanesRun::<false> { plan: self, data, l });
    }

    /// [`forward_lanes`](Self::forward_lanes) run from the copy compiled
    /// for `isa`, whatever the CPU's widest; for benches that compare the
    /// copies. Same bits.
    ///
    /// # Panics
    /// As [`forward_lanes`](Self::forward_lanes), and if the CPU does not
    /// support `isa`.
    #[doc(hidden)]
    pub fn forward_lanes_on(&self, isa: Isa, data: &mut [Complex], l: usize) {
        isa.run(LanesRun::<true> { plan: self, data, l });
    }

    /// [`forward_lanes`](Self::forward_lanes) of lane groups filled in
    /// [`fill_order`](Self::fill_order): the lane twin of
    /// [`FftPlan::forward_filled`], without the swap pass after a
    /// permuted fill.
    pub(crate) fn forward_lanes_filled(&self, data: &mut [Complex], l: usize) {
        if self.fills_permuted(l) {
            Isa::detect().run(LanesRun::<true, false> { plan: self, data, l });
        } else {
            self.forward_lanes(data, l);
        }
    }

    /// The lane transform, inlined into each ISA copy through
    /// [`LanesRun`] exactly as [`FftPlan::forward`]'s body is; every copy
    /// gives the same bits (tested below, copy by copy). `SWAP` off skips
    /// the bit-reversal pass, as in the scalar body.
    #[inline(always)]
    fn run_lanes<const FWD: bool, const SWAP: bool>(&self, data: &mut [Complex], l: usize) {
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
        if SWAP {
            for i in 1..n {
                let j = self.bit_rev[i] as usize;
                if i < j {
                    for v in 0..l {
                        data.swap(i * l + v, j * l + v);
                    }
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

/// One lane transform of `l` lanes, compiled per ISA by [`Isa::run`];
/// `SWAP` off for lane groups given bit-reversed.
struct LanesRun<'a, const FWD: bool, const SWAP: bool = true> {
    plan: &'a FftPlan,
    data: &'a mut [Complex],
    l: usize,
}

impl<const FWD: bool, const SWAP: bool> Kernel for LanesRun<'_, FWD, SWAP> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        self.plan.run_lanes::<FWD, SWAP>(self.data, self.l);
    }
}

/// One lane-parallel radix-4 pass: the loop structure of
/// `plan::radix4_stage` with an inner lane loop, every lane running
/// [`radix4_core`] at the same `(chunk, j)`. Always inlined, so each
/// ISA copy of `run_lanes` widens it.
#[inline(always)]
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
    /// emit expression is the scalar plan's, and the folded bins land in
    /// the same fill order (whole lane groups; bit-reversed, and the lane
    /// transform without its swap pass, while the `h·l`-point buffer
    /// fits [`FftPlan::fill_order`]'s bound) — outputs are bit-identical
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
        // Lane group `k` goes to its group slot in the half plan's fill
        // order, as the scalar fold places bin `k`.
        self.half_plan.fill_order(l, |slot, k| {
            let out = &mut scratch[slot * l..(slot + 1) * l];
            if k == 0 {
                for (v, c) in out.iter_mut().enumerate() {
                    let dc = Complex::from_re(half[v].re);
                    let nyq = Complex::from_re(half[h * l + v].re);
                    let a = dc + nyq;
                    let b = dc - nyq;
                    *c = Complex::new(a.re - b.im, a.im + b.re);
                }
                return;
            }
            let (tw_re, tw_im) = (self.tw_re[k], self.tw_im[k]);
            for (v, c) in out.iter_mut().enumerate() {
                let wk = half[k * l + v];
                let wkh = half[(h - k) * l + v].conj();
                let a = wk + wkh;
                let d = wk - wkh;
                let b_re = d.re * tw_re - d.im * tw_im;
                let b_im = d.re * tw_im + d.im * tw_re;
                *c = Complex::new(a.re - b_im, a.im + b_re);
            }
        });
        self.half_plan.forward_lanes_filled(scratch, l);
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
    use crate::plan::PlanRun;
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

    /// Runs every ISA copy of the FFT the CPU supports directly,
    /// whatever the dispatch would pick, at every size from 2 to 2¹²
    /// (odd and even log₂ n), both directions and 1..=8 lanes, and
    /// compares each with the portable body bit for bit: the lane pass
    /// on all lanes, the plan's own transform on the first.
    #[test]
    fn every_isa_copy_of_the_fft_matches_the_portable_body_bitwise() {
        for log2 in 1..=12 {
            let n = 1usize << log2;
            let plan = plan_for(n);
            for l in 1..=8 {
                let x: Vec<Complex> = (0..n * l)
                    .map(|i| Complex::new((i as f64 * 0.37).cos() * 2.0, (i as f64 * 0.83).sin()))
                    .collect();
                let copy = |isa: Isa, fwd: bool| {
                    let (mut lanes, mut one) = (x.clone(), x[..n].to_vec());
                    let (plan, data) = (&*plan, &mut lanes[..]);
                    if fwd {
                        isa.run(LanesRun::<true> { plan, data, l });
                        isa.run(PlanRun::<true> { plan, data: &mut one });
                    } else {
                        isa.run(LanesRun::<false> { plan, data, l });
                        isa.run(PlanRun::<false> { plan, data: &mut one });
                    }
                    (bits(&lanes), bits(&one))
                };
                for fwd in [true, false] {
                    let want = copy(Isa::Portable, fwd);
                    for isa in Isa::supported() {
                        let got = copy(isa, fwd);
                        assert!(got == want, "{isa:?} copy, n = {n}, l = {l}, fwd = {fwd}");
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

    fn bits(v: &[Complex]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// A Hermitian half-spectrum of `h + 1` bins (real DC and Nyquist).
    fn hermitian(h: usize, v: usize) -> Vec<Complex> {
        let mut half: Vec<Complex> = (0..=h)
            .map(|k| {
                let t = (k + 5 * v) as f64;
                Complex::new((t * 0.57).sin() * 1.5, (t * 0.91).cos())
            })
            .collect();
        half[0].im = 0.0;
        half[h].im = 0.0;
        half
    }

    /// The Hermitian fold written in natural order (bin `k` at slot `k`,
    /// the layout before the fold took over the bit reversal): the same
    /// expressions as `RealFftPlan::fold_hermitian`, for the transform
    /// with its swap pass.
    fn natural_fold(plan: &RealFftPlan, half: &[Complex], conj: bool) -> Vec<Complex> {
        let h = plan.n / 2;
        let (dc, nyq) = (Complex::from_re(half[0].re), Complex::from_re(half[h].re));
        let (a, b) = (dc + nyq, dc - nyq);
        let mut buf = vec![Complex::new(a.re - b.im, a.im + b.re)];
        for k in 1..h {
            let (wk, wkh) =
                if conj { (half[k].conj(), half[h - k]) } else { (half[k], half[h - k].conj()) };
            let a = wk + wkh;
            let d = wk - wkh;
            let b_re = d.re * plan.tw_re[k] - d.im * plan.tw_im[k];
            let b_im = d.re * plan.tw_im[k] + d.im * plan.tw_re[k];
            buf.push(Complex::new(a.re - b_im, a.im + b_re));
        }
        buf
    }

    /// The packed transform's `n` real samples in order.
    fn unpack(buf: &[Complex]) -> Vec<u64> {
        buf.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
    }

    /// The fold into bit-reversed slots plus the swap-free transform
    /// against the natural-order fold plus the transform that swaps, bit
    /// for bit: on every ISA copy the CPU supports, at half sizes 1 to
    /// 2¹⁵ (both parities of log₂) and at 2¹⁶, whose fill stays in
    /// natural order, through the packed, stored-bin and inverse entry
    /// points, and through the lane synthesis at 1 to 9 lanes.
    #[test]
    fn bit_reversed_fold_matches_natural_fold_and_swap_bitwise() {
        for log2 in 0..=16 {
            let h = 1usize << log2;
            let n = 2 * h;
            let plan = real_plan_for(n);
            let half_plan = &*plan.half_plan;
            let spectra: Vec<Vec<Complex>> = (0..9).map(|v| hermitian(h, v)).collect();
            let w = &spectra[0];
            let at = |what: &str| format!("{what}, half size {h}");
            assert_eq!(half_plan.fills_permuted(1), log2 <= 15);

            // The fold and the transform, copy by copy, both directions
            // of the fold.
            for conj in [false, true] {
                let natural = natural_fold(&plan, w, conj);
                for isa in Isa::supported() {
                    let mut want = natural.clone();
                    isa.run(PlanRun::<true> { plan: half_plan, data: &mut want });
                    let mut got = vec![Complex::ZERO; h];
                    if conj {
                        plan.fold_hermitian::<true>(w[0].re, w[h].re, |k| w[k], &mut got);
                    } else {
                        plan.fold_hermitian::<false>(w[0].re, w[h].re, |k| w[k], &mut got);
                    }
                    if half_plan.fills_permuted(1) {
                        isa.run(PlanRun::<true, false> { plan: half_plan, data: &mut got });
                    } else {
                        isa.run(PlanRun::<true> { plan: half_plan, data: &mut got });
                    }
                    assert!(bits(&got) == bits(&want), "{}", at(&format!("{isa:?}, conj {conj}")));
                }
            }

            // The public entry points, on the copy the CPU picks.
            let mut want = natural_fold(&plan, w, false);
            half_plan.forward(&mut want);
            let mut packed = vec![Complex::ZERO; h];
            plan.synthesize_hermitian_packed(w[0].re, w[h].re, |k| w[k], &mut packed);
            assert!(bits(&packed) == bits(&want), "{}", at("packed"));
            let (mut out, mut scratch) = (Vec::new(), Vec::new());
            plan.synthesize_hermitian(w, &mut out, &mut scratch);
            let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            assert!(got == unpack(&want), "{}", at("stored bins"));
            let mut want = natural_fold(&plan, w, true);
            half_plan.forward(&mut want);
            plan.inverse(w, &mut out, &mut scratch);
            let inv = 1.0 / n as f64;
            let want: Vec<u64> =
                unpack(&want).into_iter().map(|b| (f64::from_bits(b) * inv).to_bits()).collect();
            let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            assert!(got == want, "{}", at("inverse"));

            // Lanes: the lane fold through the public entry, and the lane
            // transform of the filled groups on every copy.
            let naturals: Vec<Vec<Complex>> =
                spectra.iter().map(|w| natural_fold(&plan, w, false)).collect();
            for l in 1..=9 {
                let mut interleaved = vec![Complex::ZERO; (h + 1) * l];
                let mut filled = vec![Complex::ZERO; h * l];
                for (v, spectrum) in spectra.iter().take(l).enumerate() {
                    for (k, &z) in spectrum.iter().enumerate() {
                        interleaved[k * l + v] = z;
                    }
                }
                half_plan.fill_order(l, |slot, k| {
                    for v in 0..l {
                        filled[slot * l + v] = naturals[v][k];
                    }
                });
                plan.synthesize_hermitian_lanes(&interleaved, &mut out, &mut scratch, l);
                for isa in Isa::supported() {
                    let mut lanes = filled.clone();
                    if half_plan.fills_permuted(l) {
                        isa.run(LanesRun::<true, false> { plan: half_plan, data: &mut lanes, l });
                    } else {
                        isa.run(LanesRun::<true> { plan: half_plan, data: &mut lanes, l });
                    }
                    for (v, natural) in naturals.iter().take(l).enumerate() {
                        let mut want = natural.clone();
                        isa.run(PlanRun::<true> { plan: half_plan, data: &mut want });
                        let got: Vec<Complex> = (0..h).map(|t| lanes[t * l + v]).collect();
                        let lane = format!("{isa:?}, {l} lanes, lane {v}");
                        assert!(bits(&got) == bits(&want), "{}", at(&lane));
                        if isa == Isa::detect() {
                            let got: Vec<u64> = (0..n).map(|t| out[t * l + v].to_bits()).collect();
                            let what = format!("lane synthesis, {lane}");
                            assert!(got == unpack(&want), "{}", at(&what));
                        }
                    }
                }
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
