//! `paper_qc`: the paper's own job, the Q-C searches behind Figs 14–16.
//!
//! One 171 000-frame screenplay trace is multiplexed at N = 1, 5 and 20
//! sources. One operation is a Q-C column: the `required_capacity`
//! bisection at each N for one (T_max, loss target) pair. Almost all the
//! time is `vbr-qsim` arrival replay plus the fluid recurrence, spread by
//! `MuxSim::run` over the worker pool across the 6 lag combinations. The
//! workload generates no traffic, so changes to fgn, fft or serve should
//! read as no change here.

use std::collections::BTreeSet;

use vbr_qsim::{LossMetric, LossTarget, MuxSim};
use vbr_stats::obs::{self, Counter};
use vbr_video::{generate_screenplay, ScreenplayConfig, Trace};

use crate::harness::{Ctx, Outcome, Pass};
use crate::measure::{mix, Digest};

pub struct Size {
    pub frames: usize,
    pub columns: usize,
    pub iterations: usize,
}

/// Multiplexed source counts, and the span each one's search runs in.
const SOURCES: [(usize, &str); 3] = [
    (1, "qsim.search_n1"),
    (5, "qsim.search_n5"),
    (20, "qsim.search_n20"),
];

/// Q-C columns as (T_max seconds, target) in run order. Every prefix of
/// two or more mixes buffer sizes and targets, so the monotonicity checks
/// have pairs to compare however many columns a run holds.
const COLUMNS: [(f64, LossTarget); 6] = [
    (0.001, LossTarget::Zero),
    (0.001, LossTarget::Rate(1e-4)),
    (0.010, LossTarget::Rate(1e-4)),
    (0.002, LossTarget::Rate(1e-4)),
    (0.002, LossTarget::Zero),
    (0.010, LossTarget::Zero),
];

const SETUP_REPS: u64 = 5;

/// One column takes about 5 s on the reference host.
pub fn size(seconds: u64) -> Size {
    Size {
        frames: 171_000,
        columns: (seconds as usize / 5).clamp(1, COLUMNS.len()),
        iterations: 10,
    }
}

pub fn toy() -> Size {
    Size {
        frames: 4_000,
        columns: COLUMNS.len(),
        iterations: 8,
    }
}

struct Search {
    column: usize,
    sim: usize,
    capacity: f64,
    probes: u64,
}

fn screenplay(ctx: &Ctx, size: &Size, rep: u64) -> Trace {
    let config = ScreenplayConfig::short(size.frames, mix(ctx.seed, 0));
    ctx.rec
        .span("video.screenplay", rep, || generate_screenplay(&config))
}

fn mux_sims<'t>(ctx: &Ctx, trace: &'t Trace, rep: u64) -> Vec<MuxSim<'t>> {
    SOURCES
        .iter()
        .map(|&(n, _)| {
            ctx.rec.span("qsim.mux_new", rep, || {
                MuxSim::new(trace, n, mix(ctx.seed, n as u64))
            })
        })
        .collect()
}

fn sweep(sims: &[MuxSim], size: &Size, pass: &Pass) -> Vec<Search> {
    let mut out = Vec::new();
    for (column, &(t_max, target)) in COLUMNS[..size.columns].iter().enumerate() {
        pass.op(column as u64, || {
            for (sim, (&(_, span), mux)) in SOURCES.iter().zip(sims).enumerate() {
                let before = obs::counter_value(Counter::QcProbes);
                let capacity = pass.span(span, column as u64, || {
                    mux.required_capacity(t_max, target, LossMetric::Overall, size.iterations)
                });
                let probes = obs::counter_value(Counter::QcProbes) - before;
                out.push(Search {
                    column,
                    sim,
                    capacity,
                    probes,
                });
            }
        });
    }
    out
}

fn target_bound(target: LossTarget) -> f64 {
    match target {
        LossTarget::Zero => 0.0,
        LossTarget::Rate(r) => r,
    }
}

/// Columns holding a search that fails its checks: the capacity lies in
/// (mean rate, peak slot rate], replaying it meets the target, and it is
/// no lower than the capacity of any column with a larger buffer or a
/// looser target at the same N. Bisection over one dyadic grid keeps the
/// last check exact, not approximate.
fn failed_columns(sims: &[MuxSim], searches: &[Search]) -> BTreeSet<usize> {
    let mut failed = BTreeSet::new();
    for s in searches {
        let mux = &sims[s.sim];
        let (t_max, target) = COLUMNS[s.column];
        let hi = mux.peak_slot_rate().max(mux.mean_rate() * 1.001);
        let in_range = mux.mean_rate() < s.capacity && s.capacity <= hi;
        let loss = mux.run(s.capacity, t_max * s.capacity).p_l;
        if !(in_range && loss <= target_bound(target)) {
            failed.insert(s.column);
        }
    }
    for a in searches {
        for b in searches
            .iter()
            .filter(|b| b.sim == a.sim && b.column != a.column)
        {
            let (ta, ga) = COLUMNS[a.column];
            let (tb, gb) = COLUMNS[b.column];
            let stricter = ta <= tb && target_bound(ga) <= target_bound(gb);
            if stricter && a.capacity < b.capacity {
                failed.insert(a.column.max(b.column));
            }
        }
    }
    failed
}

pub fn run(size: &Size, ctx: &Ctx) -> Outcome {
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS - 1 {
        let (_, secs) = ctx.setup_step(rep, || {
            mux_sims(ctx, &screenplay(ctx, size, rep), rep).len()
        });
        setup_s.push(secs);
    }
    // The last repetition is kept; the simulators borrow its trace.
    let rep = SETUP_REPS - 1;
    let (trace, trace_s) = ctx.setup_step(rep, || screenplay(ctx, size, rep));
    let (sims, sims_s) = ctx.setup_step(rep, || mux_sims(ctx, &trace, rep));
    setup_s.push(trace_s + sims_s);

    let (searches, pass) = ctx.pass(|p| sweep(&sims, size, p));
    let failed = failed_columns(&sims, &searches).len() as u64;

    let slots = trace.slice_bytes().len() as f64;
    let mut digest = Digest::default();
    let (mut source_slices, mut replay_mslices) = (0.0, 0.0);
    for s in &searches {
        digest.f64(s.capacity);
        digest.word(s.probes);
        source_slices += SOURCES[s.sim].0 as f64 * slots;
        replay_mslices += (s.probes * sims[s.sim].combos().len() as u64) as f64 * slots / 1e6;
    }
    let search_s: f64 = pass.op_s.iter().sum();
    Outcome {
        setup_s,
        items: source_slices,
        attempted: size.columns as u64,
        failed,
        digest: digest.value(),
        extras: vec![
            ("qsim.replay_mslices", replay_mslices),
            ("qsim.replay_mslices_per_s", replay_mslices / search_s),
        ],
        headline: vec![("qc_sweep_s", pass.wall_s, "s")],
        pass,
    }
}
