//! Analytic queueing reference used to validate the simulator and drive
//! admission control: Norros' fractional-Brownian-motion
//! link-dimensioning formula (the closed-form counterpart of the paper's
//! trace-driven capacity searches, published the same year).

/// Norros' dimensioning formula for a fluid queue fed by fractional
/// Brownian traffic (Norros 1994/1995): the capacity needed so that
/// `P[Q > buffer] ≈ loss_target` is
///
/// `C = m + (κ(H) √(−2 ln ε))^{1/H} · a^{1/(2H)} · m^{1/(2H)} · b^{−(1−H)/H}`
///
/// with `κ(H) = H^H (1−H)^{1−H}`, mean rate `m`, variance coefficient
/// `a = Var[A(0,t)]/(m t^{2H})` (bytes·s, peakedness), buffer `b` and
/// overflow target `ε`.
pub fn norros_capacity(
    mean_rate: f64,
    variance_coef: f64,
    hurst: f64,
    buffer: f64,
    loss_target: f64,
) -> f64 {
    assert!(mean_rate > 0.0 && variance_coef > 0.0 && buffer > 0.0);
    assert!((0.5..1.0).contains(&hurst), "Norros formula needs H in [0.5,1)");
    assert!(loss_target > 0.0 && loss_target < 1.0);
    let h = hurst;
    let kappa = h.powf(h) * (1.0 - h).powf(1.0 - h);
    let z = (-2.0 * loss_target.ln()).sqrt();
    mean_rate
        + (kappa * z).powf(1.0 / h)
            * variance_coef.powf(1.0 / (2.0 * h))
            * mean_rate.powf(1.0 / (2.0 * h))
            * buffer.powf(-(1.0 - h) / h)
}

/// Estimates the fBm variance coefficient `a` of a frame-level series:
/// `a = Var(X) · Δt^{2−2H} / mean-rate` where `X` is bytes per interval
/// of length `Δt` (so that `Var[A(0,Δt)] = a·m·Δt^{2H}` holds at the
/// measurement scale).
pub fn fbm_variance_coef(mean_per_interval: f64, var_per_interval: f64, dt: f64, hurst: f64) -> f64 {
    assert!(mean_per_interval > 0.0 && dt > 0.0);
    let mean_rate = mean_per_interval / dt;
    var_per_interval / (mean_rate * dt.powf(2.0 * hurst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LossMetric, LossTarget, MuxSim};
    use vbr_model::{ModelParams, SourceModel};

    #[test]
    fn norros_capacity_monotonicities() {
        let c = |h: f64, b: f64, eps: f64| norros_capacity(1e6, 100.0, h, b, eps);
        // More buffer → less capacity.
        assert!(c(0.8, 1e4, 1e-6) > c(0.8, 1e5, 1e-6));
        // Stricter loss → more capacity.
        assert!(c(0.8, 1e4, 1e-9) > c(0.8, 1e4, 1e-3));
        // At large buffers, higher H demands more capacity (the buffer
        // stops helping); at small buffers the marginal dominates instead.
        assert!(c(0.9, 1e6, 1e-6) > c(0.6, 1e6, 1e-6));
        // Always above the mean rate.
        assert!(c(0.55, 1e6, 1e-2) > 1e6);
    }

    #[test]
    fn norros_buffer_sensitivity_depends_on_h() {
        // For SRD-ish H the capacity falls fast with buffer; for H → 1 the
        // buffer barely helps — the paper's core warning, in closed form.
        let gain = |h: f64| {
            norros_capacity(1e6, 100.0, h, 1e3, 1e-6)
                / norros_capacity(1e6, 100.0, h, 1e6, 1e-6)
        };
        assert!(gain(0.55) > gain(0.9), "buffer gain: H=0.55 {} vs H=0.9 {}", gain(0.55), gain(0.9));
    }

    #[test]
    fn simulator_tracks_norros_for_gaussian_lrd_traffic() {
        // Gaussian-marginal LRD traffic is (approximately) the fBm input
        // Norros assumes; the simulated required capacity should land in
        // the same ballpark and share the ordering in buffer size.
        let p = ModelParams::new(27_791.0, 6_254.0, 9.0, 0.8);
        let trace = SourceModel::gaussian_marginal(p).generate_trace(40_000, 24.0, 30, 9);
        let sim = MuxSim::new(&trace, 1, 1);
        let dt = 1.0 / 24.0;
        let a = fbm_variance_coef(p.mu_gamma, p.sigma_gamma * p.sigma_gamma, dt, p.hurst);
        let m = p.mu_gamma / dt;
        let eps = 1e-3;
        for &t_max in &[0.01, 0.1] {
            let c_sim =
                sim.required_capacity(t_max, LossTarget::Rate(eps), LossMetric::Overall, 20);
            let b = t_max * c_sim;
            let c_norros = norros_capacity(m, a, p.hurst, b, eps);
            let ratio = c_sim / c_norros;
            assert!(
                (0.5..2.0).contains(&ratio),
                "t_max {t_max}: sim {c_sim} vs Norros {c_norros} (ratio {ratio})"
            );
        }
    }
}
