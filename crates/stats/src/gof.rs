//! Goodness-of-fit statistics: Kolmogorov–Smirnov and χ², used to
//! quantify how well the candidate marginals of Figs 4–6 fit the data
//! (instead of eyeballing overlay plots).

use crate::dist::ContinuousDist;

/// The one-sample Kolmogorov–Smirnov statistic
/// `D = sup_x |F̂_n(x) − F(x)|`.
pub fn ks_statistic<D: ContinuousDist + ?Sized>(xs: &[f64], dist: &D) -> f64 {
    assert!(!xs.is_empty(), "KS statistic of empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in KS input"));
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = dist.cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    d
}

/// Approximate p-value of the KS statistic via the asymptotic
/// Kolmogorov distribution: `Q(λ) = 2 Σ (−1)^{k−1} e^{−2k²λ²}` with
/// `λ = (√n + 0.12 + 0.11/√n)·D` (Stephens' correction).
pub fn ks_p_value(d: f64, n: usize) -> f64 {
    let sqrt_n = (n as f64).sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    // The alternating series cancels catastrophically for small λ, where
    // the p-value is 1 to machine precision anyway (Q(0.3) > 1 − 1e-7).
    if lambda < 0.3 {
        return 1.0;
    }
    let mut p = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        p += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * p).clamp(0.0, 1.0)
}

/// The two-sample Kolmogorov–Smirnov statistic
/// `D = sup_x |F̂_n(x) − Ĝ_m(x)|` between two empirical samples — the
/// model-vs-trace comparison where neither side is a closed-form
/// distribution.
pub fn ks_two_sample(xs: &[f64], ys: &[f64]) -> f64 {
    let sort = |v: &[f64]| {
        let mut s = v.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in KS input"));
        s
    };
    ks_two_sample_sorted(&sort(xs), &sort(ys))
}

/// [`ks_two_sample`] on samples already sorted ascending (as an
/// [`Ecdf`](crate::histogram::Ecdf) keeps them): the same statistic, bit
/// for bit, without the two sorts.
pub fn ks_two_sample_sorted(sx: &[f64], sy: &[f64]) -> f64 {
    assert!(!sx.is_empty() && !sy.is_empty(), "KS of empty sample");
    let (n, m) = (sx.len() as f64, sy.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0.0f64;
    while i < sx.len() && j < sy.len() {
        // Advance whichever sample has the smaller next value; ties move
        // both so the gap is measured between the steps, not inside one.
        let (x, y) = (sx[i], sy[j]);
        if x <= y {
            i += 1;
        }
        if y <= x {
            j += 1;
        }
        d = d.max((i as f64 / n - j as f64 / m).abs());
    }
    d
}

/// Approximate p-value for the two-sample KS statistic via the same
/// asymptotic Kolmogorov distribution with effective size
/// `n_e = n·m/(n + m)`.
pub fn ks_two_sample_p_value(d: f64, n: usize, m: usize) -> f64 {
    let ne = (n as f64 * m as f64) / (n as f64 + m as f64);
    ks_p_value(d, ne.round().max(1.0) as usize)
}

/// Pearson χ² statistic against a fitted distribution over `bins`
/// equal-probability bins. Returns `(chi2, degrees of freedom)` with
/// `dof = bins − 1 − params_fitted`.
pub fn chi_square<D: ContinuousDist + ?Sized>(
    xs: &[f64],
    dist: &D,
    bins: usize,
    params_fitted: usize,
) -> (f64, usize) {
    assert!(bins >= 2, "need at least 2 bins");
    assert!(xs.len() >= 5 * bins, "need >= 5 observations per bin on average");
    // Equal-probability bin edges from the fitted quantiles.
    let edges: Vec<f64> =
        (1..bins).map(|i| dist.quantile(i as f64 / bins as f64)).collect();
    let mut counts = vec![0u64; bins];
    for &x in xs {
        let idx = edges.partition_point(|&e| e < x);
        counts[idx] += 1;
    }
    let expect = xs.len() as f64 / bins as f64;
    let chi2: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expect;
            d * d / expect
        })
        .sum();
    (chi2, bins.saturating_sub(1 + params_fitted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sample_n, Gamma, Normal};
    use crate::rng::Xoshiro256;

    #[test]
    fn ks_small_for_correct_model() {
        let d = Normal::new(5.0, 2.0);
        let mut rng = Xoshiro256::seed_from_u64(1);
        let xs = sample_n(&d, 5_000, &mut rng);
        let ks = ks_statistic(&xs, &d);
        // Typical D ≈ 0.8/√n ≈ 0.012; reject only above ~1.36/√n.
        assert!(ks < 1.36 / (5000f64).sqrt() * 1.5, "D = {ks}");
        assert!(ks_p_value(ks, 5_000) > 0.01);
    }

    #[test]
    fn ks_large_for_wrong_model() {
        let truth = Gamma::new(2.0, 1.0);
        let wrong = Normal::new(2.0, 2f64.sqrt()); // moment-matched Normal
        let mut rng = Xoshiro256::seed_from_u64(2);
        let xs = sample_n(&truth, 5_000, &mut rng);
        let ks = ks_statistic(&xs, &wrong);
        assert!(ks > 0.03, "D = {ks} should expose the wrong shape");
        assert!(ks_p_value(ks, 5_000) < 1e-3);
    }

    #[test]
    fn ks_p_value_extremes() {
        assert!(ks_p_value(0.001, 100) > 0.999);
        assert!(ks_p_value(0.5, 100) < 1e-6);
    }

    #[test]
    fn ks_two_sample_same_distribution_is_small() {
        let d = Normal::new(3.0, 1.5);
        let mut rng = Xoshiro256::seed_from_u64(7);
        let xs = sample_n(&d, 4_000, &mut rng);
        let ys = sample_n(&d, 6_000, &mut rng);
        let ks = ks_two_sample(&xs, &ys);
        // Critical value ~1.36·√(1/n + 1/m) ≈ 0.028 at 5 %.
        assert!(ks < 0.028, "D = {ks}");
        assert!(ks_two_sample_p_value(ks, 4_000, 6_000) > 0.01);
    }

    #[test]
    fn ks_two_sample_detects_shift() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let xs = sample_n(&Normal::new(0.0, 1.0), 3_000, &mut rng);
        let ys = sample_n(&Normal::new(0.5, 1.0), 3_000, &mut rng);
        let ks = ks_two_sample(&xs, &ys);
        assert!(ks > 0.1, "D = {ks} should expose the shift");
        assert!(ks_two_sample_p_value(ks, 3_000, 3_000) < 1e-6);
    }

    #[test]
    fn ks_two_sample_matches_one_sample_on_exact_cdf_grid() {
        // Against itself the statistic is 0.
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_two_sample(&xs, &xs), 0.0);
        // Disjoint supports give the maximal statistic 1.
        let ys = vec![10.0, 11.0];
        assert!((ks_two_sample(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chi_square_calibrated_for_correct_model() {
        let d = Normal::new(0.0, 1.0);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let xs = sample_n(&d, 10_000, &mut rng);
        let (chi2, dof) = chi_square(&xs, &d, 20, 2);
        // E[χ²] = dof; generous 3σ band (σ = √(2·dof)).
        assert_eq!(dof, 17);
        assert!(
            (chi2 - dof as f64).abs() < 3.0 * (2.0 * dof as f64).sqrt(),
            "chi2 = {chi2} for dof {dof}"
        );
    }

    #[test]
    fn chi_square_blows_up_for_wrong_model() {
        let truth = Gamma::new(1.0, 1.0); // exponential
        let wrong = Normal::new(1.0, 1.0);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let xs = sample_n(&truth, 10_000, &mut rng);
        let (chi2, dof) = chi_square(&xs, &wrong, 20, 2);
        assert!(chi2 > 20.0 * dof as f64, "chi2 = {chi2}");
    }
}
