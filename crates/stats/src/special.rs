//! Special functions: log-gamma, regularised incomplete gamma, error
//! function family and the inverse normal CDF.
//!
//! These are the numerical kernels behind every distribution in
//! [`crate::dist`]. All routines are pure `f64` implementations of the
//! standard algorithms (Lanczos, NR-style series/continued fraction,
//! Acklam's inverse-normal rational approximation with a Halley
//! refinement step).

use crate::simd::{Isa, Kernel, LANES};

/// Natural log of the Gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 relative over the positive axis; uses the reflection
/// formula for `x < 0.5`.
pub fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Digamma function `ψ(x) = d/dx ln Γ(x)` — asymptotic series with
/// upward recurrence (accurate to ~1e-12 for x > 0).
pub fn digamma(x: f64) -> f64 {
    assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut x = x;
    let mut acc = 0.0;
    // Recurrence ψ(x) = ψ(x+1) − 1/x until the asymptotic zone.
    while x < 10.0 {
        acc -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic expansion ψ(x) ≈ ln x − 1/(2x) − Σ B_{2k}/(2k x^{2k}).
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    acc + x.ln() - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2
                    * (1.0 / 120.0
                        - inv2
                            * (1.0 / 252.0
                                - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0)))))
}

/// Trigamma function `ψ₁(x) = d²/dx² ln Γ(x)` — asymptotic series with
/// upward recurrence (accurate to ~1e-12 for x > 0).
///
/// Needed by the Abry–Veitch wavelet estimator: for a chi-square variance
/// estimate on `n` coefficients, `Var[log₂ V_j] = ψ₁(n/2) / ln²2`, which
/// sets both the WLS weights and the small-sample bias term
/// `(ψ(n/2) − ln(n/2)) / ln 2`.
pub fn trigamma(x: f64) -> f64 {
    assert!(x > 0.0, "trigamma requires x > 0, got {x}");
    let mut x = x;
    let mut acc = 0.0;
    // Recurrence ψ₁(x) = ψ₁(x+1) + 1/x² until the asymptotic zone.
    while x < 10.0 {
        acc += 1.0 / (x * x);
        x += 1.0;
    }
    // Asymptotic expansion ψ₁(x) ≈ 1/x + 1/(2x²) + Σ B_{2k}/x^{2k+1}.
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    acc + inv
        + 0.5 * inv2
        + inv2
            * inv
            * (1.0 / 6.0
                - inv2
                    * (1.0 / 30.0
                        - inv2 * (1.0 / 42.0 - inv2 * (1.0 / 30.0 - inv2 * (5.0 / 66.0)))))
}

/// Regularised lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Series expansion for `x < a + 1`, continued fraction otherwise
/// (Numerical Recipes §6.2).
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    if x <= 0.0 {
        return 0.0;
    }
    gamma_p_lg(a, x, x.ln(), ln_gamma(a))
}

/// [`gamma_p`] for `x > 0` with `ln x` and `lnΓ(a)` supplied, for
/// callers that hold them already (a [`Gamma`](crate::dist::Gamma)
/// caches `lnΓ(s)`; its quantile's Newton step shares one `ln(λx)`
/// between cdf and pdf). The same expressions on the same values, so
/// the same bits as [`gamma_p`].
pub(crate) fn gamma_p_lg(a: f64, x: f64, ln_x: f64, lg_a: f64) -> f64 {
    if x < a + 1.0 {
        gamma_p_series_lg(a, x, ln_x, lg_a)
    } else {
        1.0 - gamma_q_contfrac_lg(a, x, ln_x, lg_a)
    }
}

/// Regularised upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q_lg(a, x, x.ln(), ln_gamma(a))
}

/// [`gamma_q`] for `x > 0` with `ln x` and `lnΓ(a)` supplied; same bits
/// (see [`gamma_p_lg`]).
pub(crate) fn gamma_q_lg(a: f64, x: f64, ln_x: f64, lg_a: f64) -> f64 {
    if x < a + 1.0 {
        1.0 - gamma_p_series_lg(a, x, ln_x, lg_a)
    } else {
        gamma_q_contfrac_lg(a, x, ln_x, lg_a)
    }
}

/// Series for `P(a, x)`, `x < a + 1`; `ln_x = ln x`, `lg_a = lnΓ(a)`.
fn gamma_p_series_lg(a: f64, x: f64, ln_x: f64, lg_a: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * ln_x - lg_a).exp()
}

/// Continued fraction for `Q(a, x)`, `x ≥ a + 1`; `ln_x = ln x`,
/// `lg_a = lnΓ(a)`.
fn gamma_q_contfrac_lg(a: f64, x: f64, ln_x: f64, lg_a: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = f64::MIN_POSITIVE / EPS;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * ln_x - lg_a).exp() * h
}

/// `lnΓ(½) = ln √π`: the bits [`ln_gamma`]`(0.5)` returns (pinned by a
/// test), so the error functions skip the Lanczos sum on every call.
const LN_GAMMA_HALF: f64 = f64::from_bits(0x3fe2_50d0_48e7_a1b8);

/// Error function, via the incomplete gamma identity `erf(x) = P(½, x²)`.
pub fn erf(x: f64) -> f64 {
    if x >= 0.0 {
        half_p(x * x)
    } else {
        -half_p(x * x)
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)` with full accuracy
/// in the right tail (`erfc(x) = Q(½, x²)` for `x > 0`).
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        half_q(x * x)
    } else {
        1.0 + half_p(x * x)
    }
}

/// [`gamma_p`]`(½, x)` with the cached `lnΓ(½)`.
fn half_p(x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    gamma_p_lg(0.5, x, x.ln(), LN_GAMMA_HALF)
}

/// [`gamma_q`]`(½, x)` with the cached `lnΓ(½)`.
fn half_q(x: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q_lg(0.5, x, x.ln(), LN_GAMMA_HALF)
}

/// Standard normal CDF `Φ(x)` computed from `erfc` (accurate in both tails).
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal density `φ(x)`.
pub fn norm_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

// Wichura's AS 241 (PPND16) coefficients for the inverse normal CDF.
//
// Three rational approximations of degree 7/7: one for the central
// region `|p − ½| ≤ 0.425` (~85% of uniform draws) and two for the
// tails in the transformed variable `r = sqrt(−ln min(p, 1−p))`.
// Relative accuracy is ~1.5e-16 throughout — at or below one ulp — with
// a *fixed* operation count per evaluation: no iteration, no erfc, no
// data-dependent convergence loop. That fixed shape is what lets the
// batch kernel below run the central branch as straight-line 4-lane
// code (see DESIGN.md §11).
//
// The literals carry AS 241's published digits, a few beyond f64
// precision; each parses to the nearest representable double.
#[allow(clippy::excessive_precision)]
const PPND_A: [f64; 8] = [
    3.387_132_872_796_366_608,
    1.331_416_678_917_843_774_5e2,
    1.971_590_950_306_551_442_7e3,
    1.373_169_376_550_946_112_5e4,
    4.592_195_393_154_987_145_7e4,
    6.726_577_092_700_870_085_3e4,
    3.343_057_558_358_812_810_5e4,
    2.509_080_928_730_122_672_7e3,
];
#[allow(clippy::excessive_precision)]
const PPND_B: [f64; 7] = [
    4.231_333_070_160_091_125_2e1,
    6.871_870_074_920_579_083e2,
    5.394_196_021_424_751_107_7e3,
    2.121_379_430_158_659_586_7e4,
    3.930_789_580_009_271_061e4,
    2.872_908_573_572_194_267_4e4,
    5.226_495_278_852_854_561e3,
];
#[allow(clippy::excessive_precision)]
const PPND_C: [f64; 8] = [
    1.423_437_110_749_683_577_34,
    4.630_337_846_156_545_295_9,
    5.769_497_221_460_691_405_5,
    3.647_848_324_763_204_605_04,
    1.270_458_252_452_368_382_58,
    2.417_807_251_774_506_117_7e-1,
    2.272_384_498_926_918_458_33e-2,
    7.745_450_142_783_414_076_4e-4,
];
#[allow(clippy::excessive_precision)]
const PPND_D: [f64; 7] = [
    2.053_191_626_637_758_821_87,
    1.676_384_830_183_803_849_4,
    6.897_673_349_851_000_045_5e-1,
    1.481_039_764_274_800_745_9e-1,
    1.519_866_656_361_645_719_66e-2,
    5.475_938_084_995_344_946e-4,
    1.050_750_071_644_416_843_24e-9,
];
#[allow(clippy::excessive_precision)]
const PPND_E: [f64; 8] = [
    6.657_904_643_501_103_777_2,
    5.463_784_911_164_114_369_9,
    1.784_826_539_917_291_335_8,
    2.965_605_718_285_048_912_3e-1,
    2.653_218_952_657_612_309_3e-2,
    1.242_660_947_388_078_438_6e-3,
    2.711_555_568_743_487_578_15e-5,
    2.010_334_399_292_288_132_65e-7,
];
#[allow(clippy::excessive_precision)]
const PPND_F: [f64; 7] = [
    5.998_322_065_558_879_376_9e-1,
    1.369_298_809_227_358_053_1e-1,
    1.487_536_129_085_061_485_25e-2,
    7.868_691_311_456_132_591e-4,
    1.846_318_317_510_054_681_8e-5,
    1.421_511_758_316_445_888_7e-7,
    2.044_263_103_389_939_785_64e-15,
];

/// Central-branch boundary: `|p − ½| ≤ 0.425`.
const PPND_CENTRAL: f64 = 0.425;

/// Degree-7 Horner ratio `num(r)/den(r)` with the AS 241 layout
/// (denominator's leading coefficient is an implicit 1).
#[inline(always)]
fn ppnd_ratio(r: f64, num: &[f64; 8], den: &[f64; 7]) -> f64 {
    horner8(r, num) / horner7_monic(r, den)
}

/// Degree-7 Horner numerator of the AS 241 ratio — split out so the
/// batch kernel can evaluate numerator and denominator in separate
/// vectorizable passes while sharing the exact expression (and bits)
/// with the scalar path.
#[inline(always)]
fn horner8(r: f64, num: &[f64; 8]) -> f64 {
    ((((((num[7] * r + num[6]) * r + num[5]) * r + num[4]) * r + num[3]) * r + num[2]) * r
        + num[1])
        * r
        + num[0]
}

/// Monic degree-7 Horner denominator of the AS 241 ratio (leading
/// coefficient is an implicit 1).
#[inline(always)]
fn horner7_monic(r: f64, den: &[f64; 7]) -> f64 {
    ((((((den[6] * r + den[5]) * r + den[4]) * r + den[3]) * r + den[2]) * r + den[1]) * r
        + den[0])
        * r
        + 1.0
}

/// Central-region evaluation, valid for `q = p − ½` with `|q| ≤ 0.425`.
/// Split out so the batch kernel can run it unconditionally over 4-lane
/// chunks; the scalar path calls the same function, so batch and scalar
/// results are bit-identical by construction.
#[inline(always)]
fn norm_quantile_central(q: f64) -> f64 {
    let r = PPND_CENTRAL * PPND_CENTRAL - q * q;
    q * ppnd_ratio(r, &PPND_A, &PPND_B)
}

// Two-term Cody–Waite split of ln 2 (fdlibm): `LN2_HI` carries 21
// mantissa bits, so `k * LN2_HI` is exact for |k| ≤ 2^11 — every
// exponent a finite positive double can have.
#[expect(clippy::excessive_precision, reason = "exact fdlibm bit pattern, not a rounded literal")]
const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
#[expect(clippy::excessive_precision, reason = "exact fdlibm bit pattern, not a rounded literal")]
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;

// Taylor coefficients of `atanh(s)/s − 1` in `w = s²`: 1/3, 1/5, … 1/19.
// With |s| ≤ √2−1 ≈ 0.1716 the first omitted term (s²⁰/21) is below
// 1e-16, so the truncation is invisible at the accuracy the tail
// branch needs (the result feeds a √ and a degree-7 rational).
const ATANH_COEF: [f64; 9] = [
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
];

/// `−ln x` for positive `x < 1`, subnormals included, as a fixed
/// straight-line sequence of integer and float ops (no libm call, no
/// data-dependent iteration).
///
/// Reduction is the standard one: shift the exponent split point so the
/// mantissa lands in `[√2/2, √2)`, then `ln m = 2 atanh(s)` with
/// `s = (m−1)/(m+1)` summed as a degree-9 polynomial in `s²`. A
/// subnormal `x` has no exponent field to read, so it is first scaled
/// by 2⁵⁴ (exact) into the normal range and `k` corrected by 54 — a
/// select, not a branch; a normal `x` passes through unchanged, so its
/// bits do not depend on the correction. Accuracy is a few ulp over the
/// whole domain (pinned against libm `ln` in the tests below). Replaces
/// libm `ln` in [`norm_quantile`]'s tail branch, which was the one
/// data-dependent-latency call left in the draw path — and the dominant
/// cost of a tail draw.
#[inline(always)]
fn fast_neg_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x < 1.0, "fast_neg_ln domain is (0,1), got {x}");
    const SQRT_HALF_HI: u64 = 0x3fe6_a09e_0000_0000;
    const TWO_54: f64 = (1u64 << 54) as f64;
    let subnormal = x < f64::MIN_POSITIVE;
    let x = if subnormal { x * TWO_54 } else { x };
    let bias = if subnormal { 1023 + 54 } else { 1023 };
    let ux = x.to_bits().wrapping_add(0x3ff0_0000_0000_0000 - SQRT_HALF_HI);
    let k = ((ux >> 52) as i64 - bias) as f64;
    let m = f64::from_bits((ux & 0x000f_ffff_ffff_ffff) + SQRT_HALF_HI);
    // m ∈ [√2/2, √2): m−1 is exact (Sterbenz), m+1 loses at most 1 ulp.
    let s = (m - 1.0) / (m + 1.0);
    let w = s * s;
    let mut h = ATANH_COEF[8];
    h = h * w + ATANH_COEF[7];
    h = h * w + ATANH_COEF[6];
    h = h * w + ATANH_COEF[5];
    h = h * w + ATANH_COEF[4];
    h = h * w + ATANH_COEF[3];
    h = h * w + ATANH_COEF[2];
    h = h * w + ATANH_COEF[1];
    h = h * w + ATANH_COEF[0];
    let ln_m = 2.0 * s * (1.0 + w * h);
    -(k * LN2_HI + (ln_m + k * LN2_LO))
}

/// Tail evaluation for `|p − ½| > 0.425`; `q = p − ½` carries the sign.
#[inline(always)]
fn norm_quantile_tail(p: f64, q: f64) -> f64 {
    let r = if q < 0.0 { p } else { 1.0 - p };
    let r = fast_neg_ln(r).sqrt();
    let x = if r <= 5.0 {
        ppnd_ratio(r - 1.6, &PPND_C, &PPND_D)
    } else {
        ppnd_ratio(r - 5.0, &PPND_E, &PPND_F)
    };
    if q < 0.0 {
        -x
    } else {
        x
    }
}

/// Inverse standard normal CDF `Φ⁻¹(p)`.
///
/// Wichura's AS 241 (PPND16) rational approximations: ~1.5e-16 relative
/// accuracy with a fixed operation count — no Halley refinement against
/// [`norm_cdf`] (whose continued fraction made the old implementation
/// ~10× slower with data-dependent timing). The central branch is shared
/// verbatim with the batch kernel [`norm_quantile_slice`], so bulk and
/// one-at-a-time evaluation are bit-identical.
pub fn norm_quantile(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "norm_quantile requires p in [0,1], got {p}"
    );
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    let q = p - 0.5;
    if q.abs() <= PPND_CENTRAL {
        norm_quantile_central(q)
    } else {
        norm_quantile_tail(p, q)
    }
}

/// Lane-staged tail evaluation for [`LANES`] deferred elements: the
/// same per-element expression sequence as [`norm_quantile_tail`] (so
/// bits are identical), but laid out as straight maps over the lanes.
/// The tail branch is *latency*-bound scalar — three serial Horner
/// chains plus a divide and a sqrt — so running independent lanes
/// side-by-side hides most of that latency even where the compiler
/// only unrolls. Callers guarantee every element is a genuine finite
/// tail (`0 < p < 1`, `|p − ½| > 0.425`).
#[inline(always)]
fn tail_lanes(ps: &mut [f64], idx: &[usize], orig: &[f64]) {
    const W: usize = LANES;
    let mut q = [0.0f64; W];
    let mut r = [0.0f64; W];
    let mut num = [0.0f64; W];
    let mut den = [0.0f64; W];
    for l in 0..W {
        q[l] = orig[l] - 0.5;
    }
    for l in 0..W {
        let p0 = if q[l] < 0.0 { orig[l] } else { 1.0 - orig[l] };
        r[l] = fast_neg_ln(p0);
    }
    for rv in &mut r {
        *rv = rv.sqrt();
    }
    for l in 0..W {
        let t = r[l] - 1.6;
        num[l] = horner8(t, &PPND_C);
        den[l] = horner7_monic(t, &PPND_D);
    }
    for l in 0..W {
        // r > 5 means p < e^{−25} ≈ 1.4e-11 — essentially never for
        // uniform draws; recompute those few with the far-tail ratio.
        let x = if r[l] <= 5.0 {
            num[l] / den[l]
        } else {
            ppnd_ratio(r[l] - 5.0, &PPND_E, &PPND_F)
        };
        ps[idx[l]] = if q[l] < 0.0 { -x } else { x };
    }
}

/// In-place batch `Φ⁻¹`: replaces every probability in `ps` with its
/// normal quantile. Bit-identical to mapping [`norm_quantile`] over the
/// slice (same per-element math, so results do not depend on chunk
/// boundaries), but structured for the bulk case:
/// [`LANES`]-wide chunks whose central-branch polynomial runs as
/// straight-line vectorizable code, with the (~15% of draws) tail lanes
/// deferred to the lane-staged `tail_lanes` pass.
///
/// Endpoints follow [`norm_quantile`]: `0 → −∞`, `1 → +∞`. Panics if
/// any element is outside `[0, 1]`.
///
/// Runs from the copy compiled for the widest ISA the CPU has
/// ([`Isa::detect`]): the default x86-64 build holds two `f64` per
/// register, the AVX2 and AVX-512 copies run each staged lane pass in
/// two or one. Every copy is the same safe body and gives the same bits
/// (tested below, copy by copy; DESIGN.md §11).
pub fn norm_quantile_slice(ps: &mut [f64]) {
    norm_quantile_slice_on(Isa::detect(), ps);
}

/// [`norm_quantile_slice`] run from the copy compiled for `isa`,
/// whatever the CPU's widest; for tests and benches that compare the
/// copies. Same bits.
///
/// # Panics
/// As [`norm_quantile_slice`], and if the CPU does not support `isa`.
#[doc(hidden)]
pub fn norm_quantile_slice_on(isa: Isa, ps: &mut [f64]) {
    isa.run(QuantileSlice(ps));
}

/// The body of [`norm_quantile_slice`], inlined into each ISA copy.
struct QuantileSlice<'a>(&'a mut [f64]);

impl Kernel for QuantileSlice<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        quantile_slice_body(self.0);
    }
}

#[inline(always)]
fn quantile_slice_body(ps: &mut [f64]) {
    const W: usize = LANES;
    // Deferred tail lanes, flushed W at a time through `tail_lanes`.
    // Up to W−1 carried between chunks plus W from the current chunk.
    let mut tidx = [0usize; 2 * W];
    let mut torig = [0.0f64; 2 * W];
    let mut tcnt = 0usize;
    let n = ps.len();
    let main = n - n % W;
    let mut base = 0;
    while base < main {
        {
            let c = &mut ps[base..base + W];
            // Run the central branch unconditionally over all W lanes
            // as staged lane arrays: each pass is a straight map over
            // W elements, which SLP-vectorizes wholesale — including
            // the divide, which the fused per-element form left
            // scalar. The per-element expressions are exactly those of
            // `norm_quantile_central`, so central-lane bits are
            // unchanged. Tail lanes (|p − ½| > 0.425, ~15% of draws)
            // get a garbage central value — the argument r stays in
            // [−0.07, 0.18] where the denominator cannot vanish, so
            // nothing traps — and are deferred to the lane-staged tail
            // pass. The old shape bailed the *whole* chunk to scalar
            // when any lane was a tail, which at W = 8 sent ~73% of
            // chunks down the slow path.
            let mut orig = [0.0f64; W];
            orig.copy_from_slice(c);
            let mut q = [0.0f64; W];
            let mut num = [0.0f64; W];
            let mut den = [0.0f64; W];
            for l in 0..W {
                q[l] = c[l] - 0.5;
            }
            for l in 0..W {
                let r = PPND_CENTRAL * PPND_CENTRAL - q[l] * q[l];
                num[l] = horner8(r, &PPND_A);
                den[l] = horner7_monic(r, &PPND_B);
            }
            for l in 0..W {
                c[l] = q[l] * (num[l] / den[l]);
            }
            for l in 0..W {
                // Negated form so NaN lands in the scalar arm, whose
                // range assert rejects it — matching the all-scalar
                // behaviour. Note: re-deriving p as q + 0.5 would lose
                // low bits for tiny tail probabilities; defer the
                // untouched element.
                #[expect(
                    clippy::neg_cmp_op_on_partial_ord,
                    reason = "negated form routes NaN into the scalar arm deliberately"
                )]
                if !(q[l].abs() <= PPND_CENTRAL) {
                    let x = orig[l];
                    if x > 0.0 && x < 1.0 {
                        tidx[tcnt] = base + l;
                        torig[tcnt] = x;
                        tcnt += 1;
                    } else {
                        // Endpoints (→ ±∞) and out-of-range inputs
                        // keep the scalar path's exact behaviour.
                        c[l] = norm_quantile(x);
                    }
                }
            }
        }
        if tcnt >= W {
            tcnt -= W;
            tail_lanes(ps, &tidx[tcnt..tcnt + W], &torig[tcnt..tcnt + W]);
        }
        base += W;
    }
    for p in &mut ps[main..] {
        *p = norm_quantile(*p);
    }
    for i in 0..tcnt {
        ps[tidx[i]] = norm_quantile(torig[i]);
    }
}

/// The incomplete gamma and `erfc` as written before `lnΓ(a)` and
/// `ln x` were passed in: every call recomputes both. Tests pin the
/// cached forms to these bit for bit.
#[cfg(test)]
pub(crate) mod uncached {
    use super::ln_gamma;

    fn p_series(a: f64, x: f64) -> f64 {
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    }

    fn q_contfrac(a: f64, x: f64) -> f64 {
        const FPMIN: f64 = f64::MIN_POSITIVE / 1e-15;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / FPMIN;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..=500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = b + an / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        (-x + a * x.ln() - ln_gamma(a)).exp() * h
    }

    pub(crate) fn gamma_p(a: f64, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x < a + 1.0 {
            p_series(a, x)
        } else {
            1.0 - q_contfrac(a, x)
        }
    }

    pub(crate) fn gamma_q(a: f64, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else if x < a + 1.0 {
            1.0 - p_series(a, x)
        } else {
            q_contfrac(a, x)
        }
    }

    pub(crate) fn erfc(x: f64) -> f64 {
        if x >= 0.0 {
            gamma_q(0.5, x * x)
        } else {
            1.0 + gamma_p(0.5, x * x)
        }
    }

    pub(crate) fn erf(x: f64) -> f64 {
        if x >= 0.0 {
            gamma_p(0.5, x * x)
        } else {
            -gamma_p(0.5, x * x)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_forms_match_the_uncached_formulas_bitwise() {
        // x² below and above a + 1 = 1.5 reaches the series and the
        // continued fraction; ±0, the deep tails and NaN the guards.
        let mut xs = vec![0.0, -0.0, 1e-300, -1e-12, 6.0, -6.0, 27.0, f64::NAN];
        xs.extend((-400..=400).map(|i| i as f64 / 64.0));
        for x in xs {
            assert_eq!(erfc(x).to_bits(), uncached::erfc(x).to_bits(), "erfc({x})");
            assert_eq!(erf(x).to_bits(), uncached::erf(x).to_bits(), "erf({x})");
            assert_eq!(norm_cdf(x).to_bits(), (0.5 * uncached::erfc(-x / std::f64::consts::SQRT_2)).to_bits());
        }
        for a in [0.5, 1.0, 19.7, 22.0] {
            for k in 0..200 {
                let x = a * k as f64 / 50.0;
                assert_eq!(gamma_p(a, x).to_bits(), uncached::gamma_p(a, x).to_bits(), "P({a}, {x})");
                assert_eq!(gamma_q(a, x).to_bits(), uncached::gamma_q(a, x).to_bits(), "Q({a}, {x})");
            }
        }
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(1/2)=√π
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // ln Γ(x+1) = ln x + ln Γ(x)
        for &x in &[0.1, 0.7, 1.3, 3.9, 10.5, 123.4] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0), "x={x}");
        }
    }

    #[test]
    fn ln_gamma_reflection_negative_half() {
        // Γ(-0.5) = -2√π → ln|Γ| test via the reflection branch at x=0.25:
        // Γ(0.25)Γ(0.75) = π/sin(π/4) = π√2
        let lhs = ln_gamma(0.25) + ln_gamma(0.75);
        let rhs = (std::f64::consts::PI * std::f64::consts::SQRT_2).ln();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn cached_ln_gamma_half_is_the_lanczos_value() {
        assert_eq!(
            LN_GAMMA_HALF.to_bits(),
            ln_gamma(0.5).to_bits(),
            "{:#018x}",
            ln_gamma(0.5).to_bits()
        );
    }

    #[test]
    fn incomplete_gamma_complementarity() {
        for &a in &[0.5, 1.0, 2.5, 10.0] {
            for &x in &[0.1, 1.0, 2.0, 5.0, 20.0] {
                let s = gamma_p(a, x) + gamma_q(a, x);
                assert!((s - 1.0).abs() < 1e-12, "a={a} x={x}");
            }
        }
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        // P(1, x) = 1 − e^{−x}
        for &x in &[0.01, 0.5, 1.0, 3.0, 10.0] {
            assert!((gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-15);
        // erf(1) = 0.8427007929497149
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-12);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-12);
        assert!((erf(3.0) - 0.999_977_909_503_001_4).abs() < 1e-12);
    }

    #[test]
    fn erfc_deep_tail() {
        // erfc(5) = 1.5374597944280347e-12 — must not lose accuracy to
        // cancellation.
        let v = erfc(5.0);
        assert!((v / 1.537_459_794_428_034_7e-12 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn norm_cdf_symmetry_and_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-15);
        for &x in &[0.3, 1.0, 2.5, 4.0] {
            assert!((norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-13);
        }
        // Φ(1.96) ≈ 0.9750021048517795
        assert!((norm_cdf(1.96) - 0.975_002_104_851_779_5).abs() < 1e-12);
    }

    #[test]
    fn norm_quantile_inverts_cdf() {
        for &p in &[1e-10, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6] {
            let x = norm_quantile(p);
            assert!((norm_cdf(x) - p).abs() < 1e-12 * p.max(1e-3), "p={p}");
        }
    }

    #[test]
    fn norm_quantile_endpoints() {
        assert_eq!(norm_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(norm_quantile(1.0), f64::INFINITY);
        assert!(norm_quantile(0.5).abs() < 1e-15);
    }

    #[test]
    fn fast_neg_ln_tracks_libm() {
        // A few ulp of agreement with libm ln across the full range,
        // including the deep-tail magnitudes norm_quantile feeds it (p
        // down to the smallest subnormal, 5e-324).
        let mut x = 5e-324;
        while x < 1.0 {
            for &f in &[1.0, 1.37, 1.9999, 2.6, 3.3] {
                let v = x * f;
                if v >= 1.0 {
                    continue;
                }
                let got = fast_neg_ln(v);
                let want = -v.ln();
                assert!(
                    (got - want).abs() <= 4.0 * (want.abs() * f64::EPSILON).max(f64::EPSILON),
                    "x={v:e}: got {got:.17e} want {want:.17e}"
                );
            }
            x *= 4.0;
        }
        assert!((fast_neg_ln(f64::MIN_POSITIVE) - 708.396_418_532_264_1).abs() < 1e-10);
        assert_eq!(fast_neg_ln(5e-324), -(5e-324f64).ln());
    }

    #[test]
    fn every_quantile_copy_matches_portable_body_bitwise() {
        // Central, tail, far-tail (r > 5, p < e^−25) and endpoint inputs,
        // rotated per length so every kind lands in chunk lanes, in
        // deferred tail lanes and in the scalar remainder.
        let kinds = [
            0.3, 0.01, 1e-13, 0.5, 0.97, 1.0 - 1e-12, 0.0, 0.62, 1.0, 0.08, 1e-300, 0.93, 0.2,
            0.999, 1e-200, 0.45, 1e-3, 0.71, 5e-320, 5e-324,
        ];
        for len in 0..=3 * LANES + 1 {
            for shift in 0..kinds.len() {
                let input: Vec<f64> = (0..len).map(|i| kinds[(i + shift) % kinds.len()]).collect();
                let scalar: Vec<u64> =
                    input.iter().map(|&p| norm_quantile(p).to_bits()).collect();
                for isa in Isa::supported() {
                    let mut got = input.clone();
                    norm_quantile_slice_on(isa, &mut got);
                    let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, scalar, "{isa:?} copy, len {len}, shift {shift}");
                }
            }
        }
    }

    #[test]
    fn subnormal_quantile_matches_a_libm_ln_reference() {
        // The far-tail branch with libm's `ln` in place of `fast_neg_ln`.
        for p in [5e-320, 1e-310, 5e-324] {
            let r = (-f64::ln(p)).sqrt();
            let want = -ppnd_ratio(r - 5.0, &PPND_E, &PPND_F);
            let got = norm_quantile(p);
            let tol = 4.0 * f64::EPSILON * want.abs();
            assert!((got - want).abs() <= tol, "p {p:e}: {got} vs {want}");
        }
    }

    #[test]
    fn every_quantile_copy_rejects_out_of_range_input() {
        for isa in Isa::supported() {
            for bad in [1.5, -0.25, f64::NAN] {
                // In a full chunk and in the scalar remainder.
                for at in [3, 2 * LANES + 1] {
                    let mut ps = vec![0.4; 2 * LANES + 3];
                    ps[at] = bad;
                    let run =
                        std::panic::catch_unwind(move || norm_quantile_slice_on(isa, &mut ps));
                    let msg = run.expect_err("out-of-range input accepted");
                    let msg = msg.downcast_ref::<String>().map_or("", String::as_str);
                    assert!(
                        msg.contains("norm_quantile requires p in [0,1]"),
                        "{isa:?} copy, p = {bad} at {at}: {msg}"
                    );
                }
            }
        }
    }

    #[test]
    fn norm_quantile_median_quartiles() {
        // Φ⁻¹(0.975) = 1.959963984540054
        assert!((norm_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-10);
        assert!((norm_quantile(0.025) + 1.959_963_984_540_054).abs() < 1e-10);
    }
}

#[cfg(test)]
mod digamma_tests {
    use super::*;

    #[test]
    fn digamma_known_values() {
        // ψ(1) = −γ (Euler–Mascheroni)
        assert!((digamma(1.0) + 0.577_215_664_901_532_9).abs() < 1e-13);
        // ψ(1/2) = −γ − 2 ln 2
        assert!(
            (digamma(0.5) + 0.577_215_664_901_532_9 + 2.0 * 2.0f64.ln()).abs() < 1e-12
        );
        // ψ(2) = 1 − γ
        assert!((digamma(2.0) - (1.0 - 0.577_215_664_901_532_9)).abs() < 1e-12);
    }

    #[test]
    fn digamma_recurrence() {
        for &x in &[0.3, 1.7, 5.5, 42.0] {
            assert!(
                (digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-11,
                "x = {x}"
            );
        }
    }

    #[test]
    fn digamma_is_lngamma_derivative() {
        for &x in &[0.8, 3.0, 12.0] {
            let h = 1e-6;
            let numeric = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h);
            assert!((digamma(x) - numeric).abs() < 1e-6, "x = {x}");
        }
    }

    #[test]
    fn trigamma_known_values() {
        let pi = std::f64::consts::PI;
        // ψ₁(1) = π²/6
        assert!((trigamma(1.0) - pi * pi / 6.0).abs() < 1e-12);
        // ψ₁(1/2) = π²/2
        assert!((trigamma(0.5) - pi * pi / 2.0).abs() < 1e-12);
        // ψ₁(2) = π²/6 − 1
        assert!((trigamma(2.0) - (pi * pi / 6.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn trigamma_recurrence() {
        for &x in &[0.4, 1.3, 6.5, 37.0] {
            assert!(
                (trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)).abs() < 1e-11,
                "x = {x}"
            );
        }
    }

    #[test]
    fn trigamma_is_digamma_derivative() {
        for &x in &[0.9, 2.5, 15.0] {
            let h = 1e-6;
            let numeric = (digamma(x + h) - digamma(x - h)) / (2.0 * h);
            assert!((trigamma(x) - numeric).abs() < 1e-5, "x = {x}");
        }
    }
}
