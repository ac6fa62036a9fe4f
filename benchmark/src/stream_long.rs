//! `stream_long`: one long H = 0.8 fGn stream through the paper's
//! Gamma/Pareto marginal into a fluid queue — the `stream_smoke`
//! configuration.
//!
//! Single-threaded generation with a 16 384-sample FFT window:
//! `MarginalTransform::map_block_from` (fGn synthesis plus the
//! 10 000-point table map) holds most of the time and
//! `FluidQueue::step_block` the rest. One operation delivers one
//! 2^20-slice segment in 8192-slice chunks. It bypasses `vbr-serve` and
//! `vbr-lrd`.

use vbr_fgn::{FgnStream, MarginalTransform, TableMode};
use vbr_qsim::FluidQueue;
use vbr_stats::dist::GammaPareto;

use crate::harness::{Ctx, Outcome, Pass};
use crate::measure::{mix, Digest};

pub struct Size {
    pub segments: u64,
    pub segment: usize,
}

const HURST: f64 = 0.8;
const BLOCK: usize = 1 << 14;
const CHUNK: usize = 1 << 13;
/// Table 2 marginal: mean and standard deviation of bytes per slice
/// level, and the Pareto tail slope.
const MU: f64 = 27_791.0;
const SIGMA: f64 = 6_254.0;
const TAIL: f64 = 9.0;
/// 30 slices per 24 fps frame.
const DT: f64 = 1.0 / (24.0 * 30.0);
const SETUP_REPS: u64 = 7;

/// About 2^24 slices a second on the reference host.
pub fn size(seconds: u64) -> Size {
    Size {
        segments: 16 * seconds.max(1),
        segment: 1 << 20,
    }
}

pub fn toy() -> Size {
    Size {
        segments: 4,
        segment: 1 << 16,
    }
}

struct State {
    xform: MarginalTransform<GammaPareto>,
    src: FgnStream,
    queue: FluidQueue,
}

#[derive(Default)]
struct Acc {
    digest: Digest,
    total: f64,
    failed: u64,
}

fn build(ctx: &Ctx, rep: u64) -> State {
    let xform = ctx.rec.span("fgn.marginal_new", rep, || {
        MarginalTransform::new(
            GammaPareto::from_params(MU, SIGMA, TAIL),
            0.0,
            1.0,
            TableMode::Table(10_000),
        )
    });
    let src = ctx.rec.span("fgn.stream_new", rep, || {
        FgnStream::new(HURST, 1.0, BLOCK, mix(ctx.seed, 0))
    });
    // 20 % headroom over the mean rate.
    State {
        xform,
        src,
        queue: FluidQueue::new(1e6, MU / DT * 1.2),
    }
}

fn stream(st: &mut State, size: &Size, pass: &Pass) -> Acc {
    let mut acc = Acc::default();
    let mut buf = vec![0.0f64; CHUNK];
    for seg in 0..size.segments {
        let finite = pass.op(seg, || {
            let mut sum = 0.0;
            for _ in 0..size.segment / CHUNK {
                pass.span("fgn.map_block_from", seg, || {
                    st.xform.map_block_from(&mut st.src, &mut buf)
                });
                for &x in &buf {
                    acc.digest.f64(x);
                    sum += x;
                }
                pass.span("qsim.step_block", seg, || st.queue.step_block(&buf, DT));
            }
            acc.total += sum;
            sum.is_finite()
        });
        acc.failed += u64::from(!finite);
    }
    acc
}

pub fn run(size: &Size, ctx: &Ctx) -> Outcome {
    let (mut state, setup_s) = ctx.setup(SETUP_REPS, |rep| build(ctx, rep));
    let (acc, pass) = ctx.pass(|p| stream(&mut state, size, p));
    let slices = (size.segments * size.segment as u64) as f64;
    let mean = acc.total / slices;
    let sane = (mean / MU - 1.0).abs() <= 0.05 && state.queue.loss_rate().is_finite();
    Outcome {
        setup_s,
        items: slices,
        attempted: size.segments,
        failed: (acc.failed + u64::from(!sane)).min(size.segments),
        digest: acc.digest.value(),
        extras: Vec::new(),
        headline: vec![(
            "stream_mslices_per_s",
            slices / pass.wall_s / 1e6,
            "Mslices/s",
        )],
        pass,
    }
}
