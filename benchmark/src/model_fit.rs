//! `model_fit`: fitting the paper's four-parameter model to
//! paper-length traces and scoring the model zoo against each.
//!
//! The only workload where `vbr-lrd` and `vbr-model` dominate. One
//! operation takes one trace through `estimate_trace`, `hurst_report`,
//! `robust_hurst`, `SourceModel::full(..).generate_frames` with a
//! round-trip `estimate_series`, and `bakeoff_for_trace`; `vbr-qsim`
//! appears only through the bake-off's short queueing probes. The traces
//! are generated at frame granularity (one slice per frame): every stage
//! here reads frames, and the frame series is the same at any slice
//! count.

use vbr_lrd::{hurst_report, robust_hurst, ReportOptions};
use vbr_model::{
    bakeoff_for_trace, estimate_series, estimate_trace, BakeoffOptions, EstimateOptions,
    ModelParams, SourceModel,
};
use vbr_video::{generate_screenplay, ScreenplayConfig, Trace};

use crate::harness::{Ctx, Outcome, Pass};
use crate::measure::{mix, Digest};

pub struct Size {
    pub traces: u64,
    pub frames: usize,
    /// CI-sized bake-off options in place of the defaults.
    pub quick_bakeoff: bool,
}

/// About 1.4 s a trace on the reference host.
pub fn size(seconds: u64) -> Size {
    Size {
        traces: (seconds * 7 / 10).max(1),
        frames: 171_000,
        quick_bakeoff: false,
    }
}

pub fn toy() -> Size {
    Size {
        traces: 2,
        frames: 20_000,
        quick_bakeoff: true,
    }
}

fn params(d: &mut Digest, p: &ModelParams) -> bool {
    let v = [p.mu_gamma, p.sigma_gamma, p.tail_slope, p.hurst];
    d.f64s(&v);
    v.iter().all(|x| x.is_finite()) && p.hurst > 0.0 && p.hurst < 1.2
}

/// Fits one trace, folding every estimate into `d`. Returns whether all
/// estimates are finite with H in (0, 1.2) and the bake-off scored its
/// three models with finite scores.
fn fit(trace: &Trace, i: u64, size: &Size, seed: u64, pass: &Pass, d: &mut Digest) -> bool {
    let opts = EstimateOptions::default();
    let est = pass.span("model.estimate_trace", i, || estimate_trace(trace, &opts));
    let xs = pass.span("video.frame_series", i, || trace.frame_series());
    let report = pass.span("lrd.hurst_report", i, || {
        hurst_report(&xs, &ReportOptions::default())
    });
    let robust = pass.span("lrd.robust_hurst", i, || robust_hurst(&xs));
    let synth = pass.span("model.generate_frames", i, || {
        SourceModel::full(est.params).generate_frames(xs.len(), mix(seed, 1_000 + i))
    });
    let round = pass.span("model.estimate_series", i, || {
        estimate_series(&synth, &opts)
    });
    let bake_opts = if size.quick_bakeoff {
        BakeoffOptions::quick()
    } else {
        BakeoffOptions::default()
    };
    let bake = pass.span("model.bakeoff", i, || {
        bakeoff_for_trace(&xs, mix(seed, 2_000 + i), &bake_opts)
    });

    let mut ok = params(d, &est.params) & params(d, &round.params);
    for (_, h) in report.estimates() {
        d.f64(h);
        ok &= h.is_finite() && h > 0.0 && h < 1.2;
    }
    match robust {
        Ok(r) => {
            d.f64(r.hurst);
            ok &= r.hurst.is_finite() && r.hurst > 0.0 && r.hurst < 1.2;
        }
        Err(_) => ok = false,
    }
    d.f64s(&synth);
    ok &= bake.scores.len() == 3;
    for s in &bake.scores {
        let scores = [
            s.ks,
            s.qq_rel_rmse,
            s.mean_rel_err,
            s.var_rel_err,
            s.acf_rmse,
        ];
        d.f64s(&scores);
        d.word(s.digest);
        ok &= scores.iter().all(|x| x.is_finite());
    }
    ok
}

fn fit_all(traces: &[Trace], size: &Size, seed: u64, pass: &Pass) -> (Digest, u64) {
    let mut d = Digest::default();
    let mut failed = 0;
    for (i, trace) in traces.iter().enumerate() {
        let i = i as u64;
        let ok = pass.op(i, || fit(trace, i, size, seed, pass, &mut d));
        failed += u64::from(!ok);
    }
    (d, failed)
}

pub fn run(size: &Size, ctx: &Ctx) -> Outcome {
    // Each trace is one set-up step.
    let (traces, setup_s): (Vec<Trace>, Vec<f64>) = (0..size.traces)
        .map(|i| {
            ctx.setup_step(i, || {
                let config = ScreenplayConfig {
                    slices_per_frame: 1,
                    ..ScreenplayConfig::short(size.frames, mix(ctx.seed, i))
                };
                ctx.rec
                    .span("video.screenplay", i, || generate_screenplay(&config))
            })
        })
        .unzip();
    let ((digest, failed), pass) = ctx.pass(|p| fit_all(&traces, size, ctx.seed, p));
    Outcome {
        setup_s,
        items: (size.traces as usize * size.frames) as f64,
        attempted: size.traces,
        failed,
        digest: digest.value(),
        extras: Vec::new(),
        headline: vec![("fit_s_per_trace", crate::measure::median(&pass.op_s), "s")],
        pass,
    }
}
