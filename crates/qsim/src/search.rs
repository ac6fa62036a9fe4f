//! Speculative Q-C bisection over a lane-batched fluid queue.
//!
//! A capacity bisection is sequential — each probe's bracket depends on
//! the previous verdict — but the next `d` probes always come from one
//! fixed tree of `2^d − 1` midpoints. [`bisect`] builds that tree with
//! the scalar loop's own expression (`0.5 * (lo + hi)`), replays the
//! arrivals *once* through one queue lane per midpoint
//! ([`LaneQueues`]), and then walks the tree with the scalar decisions
//! (`meets → hi = mid`) in order. The capacity it returns is therefore
//! bit-identical to the one-probe-per-replay loop, while the arrival
//! aggregation and the latency-bound clamp recurrence are paid once per
//! `d` levels instead of once per level.
//!
//! Lane contract (as for the lane-batched FFT): every lane runs exactly
//! the op sequence of [`FluidQueue::step_block`] on its own `(C, Q)`,
//! and nothing crosses lanes. Only lane-invariant work — the running
//! `arrived` total and the per-window arrival sum — is shared.

use crate::error::QsimError;
use crate::qc::{AveragedLoss, LossMetric, LossTarget};
use crate::queue::FluidQueue;
use vbr_stats::error::NumericError;
use vbr_stats::obs::{self, Counter};

/// Slots per streaming chunk: the working-set size of every replay in
/// this crate. Big enough that per-chunk bookkeeping is noise, small
/// enough (32 KiB) to stay cache-resident.
pub(crate) const STREAM_CHUNK: usize = 4096;

/// Bisection levels decided per shared arrival pass. Three levels need
/// `2³ − 1 = 7` live lanes; on a 2-vCPU Xeon an 8-lane pass costs about
/// 1.1× a 1-lane pass, because the clamp recurrence is latency-bound.
/// Depth 2 measured 15 % slower end to end; depth 4, 8 % faster but
/// inside the host's run-to-run spread, for twice the lane state
/// (DESIGN.md §10).
pub(crate) const SEARCH_DEPTH: usize = 3;

/// Lanes per search pass: the `2^SEARCH_DEPTH − 1` tree nodes, padded to
/// a power of two (the pad lane replays the root capacity).
pub(crate) const SEARCH_LANES: usize = 1 << SEARCH_DEPTH;

/// `L` fluid queues, one per `(capacity, buffer)` lane, fed by a single
/// arrival stream with errored-second window accounting.
///
/// Bit-identical per lane to a [`FluidQueue`] fed through `step_block`
/// in runs that stop at every errored-second boundary: each lane keeps
/// `step_block`'s per-slot op order, sums each run's loss from zero
/// before adding it to its window total, and closes windows exactly
/// where the scalar loop did. Overflow slots are tallied per lane in
/// registers and never touch the process-global counter; the caller
/// decides which lanes count.
pub(crate) struct LaneQueues<const L: usize> {
    service: [f64; L],
    buffer: [f64; L],
    backlog: [f64; L],
    lost: [f64; L],
    win_loss: [f64; L],
    worst: [f64; L],
    overflow: [u64; L],
    /// Running per-slot arrival total (`FluidQueue::arrived`), shared.
    arrived: f64,
    /// Arrivals in the open errored-second window, shared.
    win_arr: f64,
    /// Sum of the per-run arrival sums: the offered total as the
    /// window accounting groups it.
    offered: f64,
    slots_per_sec: usize,
    fed: usize,
    total: usize,
    #[cfg(target_arch = "x86_64")]
    avx2: bool,
}

impl<const L: usize> LaneQueues<L> {
    /// Empty queues for a replay of `total` slots of `dt` seconds.
    /// Every lane is validated exactly as [`FluidQueue::new`] validates.
    pub fn new(capacities: &[f64; L], buffers: &[f64; L], dt: f64, total: usize) -> Self {
        let mut service = [0.0; L];
        for (s, (&c, &b)) in service.iter_mut().zip(capacities.iter().zip(buffers)) {
            *s = FluidQueue::new(b, c).capacity_bps() * dt;
        }
        LaneQueues {
            service,
            buffer: *buffers,
            backlog: [0.0; L],
            lost: [0.0; L],
            win_loss: [0.0; L],
            worst: [0.0; L],
            overflow: [0; L],
            arrived: 0.0,
            win_arr: 0.0,
            offered: 0.0,
            slots_per_sec: (1.0 / dt).round() as usize,
            fed: 0,
            total,
            #[cfg(target_arch = "x86_64")]
            avx2: std::arch::is_x86_feature_detected!("avx2"),
        }
    }

    /// Feeds the next block of arrivals, split into runs at every
    /// errored-second boundary.
    pub fn feed(&mut self, block: &[f64]) {
        let sps = self.slots_per_sec;
        let mut pos = 0usize;
        while pos < block.len() {
            let left = block.len() - pos;
            let run = if sps == 0 {
                left
            } else {
                left.min(sps - self.fed % sps)
            };
            self.step_run(&block[pos..pos + run]);
            pos += run;
            self.fed += run;
            if (sps > 0 && self.fed.is_multiple_of(sps)) || self.fed == self.total {
                for l in 0..L {
                    if self.win_arr > 0.0 {
                        self.worst[l] = self.worst[l].max(self.win_loss[l] / self.win_arr);
                    }
                    self.win_loss[l] = 0.0;
                }
                self.win_arr = 0.0;
            }
        }
    }

    /// The clamp recurrence over one run, all lanes in registers.
    ///
    /// On x86-64 CPUs with AVX2 the body runs from a copy compiled for
    /// AVX2: the default SSE2 build holds two lanes per register, spills
    /// eight lanes' state and makes an 8-lane pass cost about 1.6× a
    /// 1-lane pass, where AVX2 holds it in registers (about 1.1×). The
    /// body has no multiplies and Rust never contracts or reassociates
    /// float ops, so both copies produce the same bits (tested below).
    fn step_run(&mut self, arrivals: &[f64]) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is set only when the running CPU has AVX2.
            unsafe { self.step_run_avx2(arrivals) };
            return;
        }
        self.step_run_body(arrivals);
    }

    /// [`step_run_body`](Self::step_run_body) compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn step_run_avx2(&mut self, arrivals: &[f64]) {
        self.step_run_body(arrivals);
    }

    /// [`step_run`](Self::step_run) for whatever target the crate is
    /// built for.
    #[inline(always)]
    fn step_run_body(&mut self, arrivals: &[f64]) {
        let (service, buffer) = (self.service, self.buffer);
        let mut backlog = self.backlog;
        let mut lost = self.lost;
        let mut overflow = self.overflow;
        let mut run_loss = [0.0f64; L];
        let mut arrived = self.arrived;
        // `simd::sum_sequential`'s strict left-to-right order, fused here
        // so its add chain overlaps the lanes' instead of following them.
        let mut run_arr = 0.0f64;
        for &a in arrivals {
            debug_assert!(a >= 0.0);
            arrived += a;
            run_arr += a;
            for l in 0..L {
                let unserved = (backlog[l] + a - service[l]).max(0.0);
                let loss = (unserved - buffer[l]).max(0.0);
                backlog[l] = unserved - loss;
                lost[l] += loss;
                run_loss[l] += loss;
                overflow[l] += (loss > 0.0) as u64;
            }
        }
        self.backlog = backlog;
        self.lost = lost;
        self.overflow = overflow;
        self.arrived = arrived;
        for (w, r) in self.win_loss.iter_mut().zip(run_loss) {
            *w += r;
        }
        self.win_arr += run_arr;
        self.offered += run_arr;
    }

    /// Offered bytes so far, summed run by run.
    pub fn offered(&self) -> f64 {
        self.offered
    }

    /// Per-lane losses of the replay: `p_l = lost / arrived` (0 when
    /// nothing arrived), the worst errored second, and overflow slots.
    pub fn totals(&self) -> [AveragedLoss; L] {
        std::array::from_fn(|l| AveragedLoss {
            p_l: if self.arrived > 0.0 {
                self.lost[l] / self.arrived
            } else {
                0.0
            },
            p_wes: self.worst[l],
            overflow_slots: self.overflow[l],
        })
    }
}

/// Rejects a negative/non-finite `t_max` and an invalid loss-target rate
/// — the argument checks every capacity search shares.
pub(crate) fn check_search_args(t_max_secs: f64, target: LossTarget) -> Result<(), QsimError> {
    if !(t_max_secs >= 0.0 && t_max_secs.is_finite()) {
        return Err(NumericError::OutOfRange {
            what: "t_max_secs",
            value: t_max_secs,
            lo: 0.0,
            hi: f64::INFINITY,
        }
        .into());
    }
    if let LossTarget::Rate(r) = target {
        if !(r >= 0.0 && r.is_finite()) {
            return Err(NumericError::OutOfRange {
                what: "loss target rate",
                value: r,
                lo: 0.0,
                hi: f64::INFINITY,
            }
            .into());
        }
    }
    Ok(())
}

/// Fills `mids` (heap order: node `j` has children `2j+1`, `2j+2`) with
/// the midpoints of the next `levels` bisection steps from `[lo, hi]`.
/// The left child is the bracket after a *met* target (`hi = mid`).
fn midpoint_tree(mids: &mut [f64; SEARCH_LANES], node: usize, levels: usize, lo: f64, hi: f64) {
    if levels == 0 {
        return;
    }
    let mid = 0.5 * (lo + hi);
    mids[node] = mid;
    midpoint_tree(mids, 2 * node + 1, levels - 1, lo, mid);
    midpoint_tree(mids, 2 * node + 2, levels - 1, mid, hi);
}

/// The capacity bisection every Q-C search runs: `iterations` levels
/// from the bracket `[lo, hi]`, with the buffer tied to the capacity
/// through `Q = t_max × C`. `pass` replays the arrivals once through
/// [`SEARCH_LANES`] lanes of `(capacities, buffers)` and returns each
/// lane's losses; it runs once per [`SEARCH_DEPTH`] levels (the final
/// pass is `iterations % SEARCH_DEPTH` deep when that is non-zero).
///
/// Counters: `QcProbes` counts decided levels, `MuxRuns` counts passes,
/// and `QueueOverflowSlots` adds only the lanes on the decision path, so
/// it equals what a one-probe-per-replay search would have counted.
pub(crate) fn bisect(
    mut lo: f64,
    mut hi: f64,
    iterations: usize,
    t_max_secs: f64,
    target: LossTarget,
    metric: LossMetric,
    mut pass: impl FnMut(
        &[f64; SEARCH_LANES],
        &[f64; SEARCH_LANES],
    ) -> Result<[AveragedLoss; SEARCH_LANES], QsimError>,
) -> Result<f64, QsimError> {
    let mut left = iterations;
    while left > 0 {
        let depth = left.min(SEARCH_DEPTH);
        let _span = obs::span("qsim.qc_pass");
        obs::counter_add(Counter::MuxRuns, 1);
        // Unused lanes replay the root midpoint; their verdicts are
        // never read.
        let mut mids = [0.5 * (lo + hi); SEARCH_LANES];
        midpoint_tree(&mut mids, 0, depth, lo, hi);
        let buffers = mids.map(|c| t_max_secs * c);
        let losses = pass(&mids, &buffers)?;
        let mut node = 0;
        for _ in 0..depth {
            obs::counter_add(Counter::QcProbes, 1);
            obs::counter_add(Counter::QueueOverflowSlots, losses[node].overflow_slots);
            if losses[node].meets(target, metric) {
                hi = mids[node];
                node = 2 * node + 1;
            } else {
                lo = mids[node];
                node = 2 * node + 2;
            }
        }
        left -= depth;
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn midpoint_tree_matches_scalar_brackets() {
        let (lo, hi) = (1.0f64, 1.7f64);
        let mut mids = [f64::NAN; SEARCH_LANES];
        midpoint_tree(&mut mids, 0, SEARCH_DEPTH, lo, hi);
        // Every root-to-leaf verdict sequence reproduces the scalar
        // loop's midpoints bit for bit.
        for path in 0..(1 << SEARCH_DEPTH) {
            let (mut l, mut h, mut node) = (lo, hi, 0);
            for level in 0..SEARCH_DEPTH {
                let mid = 0.5 * (l + h);
                assert_eq!(
                    mids[node].to_bits(),
                    mid.to_bits(),
                    "path {path:b} level {level}"
                );
                if path >> level & 1 == 1 {
                    h = mid;
                    node = 2 * node + 1;
                } else {
                    l = mid;
                    node = 2 * node + 2;
                }
            }
        }
        assert!(
            mids[SEARCH_LANES - 1].is_nan(),
            "pad lane is not a tree node"
        );
    }

    #[test]
    fn dispatched_kernel_matches_portable_body_bitwise() {
        // On an AVX2 host `step_run` runs the AVX2 copy; the portable body
        // is what every other x86-64 host runs.
        let dt = 1.0 / 30.0;
        let arrivals: Vec<f64> = (0..997).map(|i| ((i * 7919) % 251) as f64 * 2.5).collect();
        let caps: [f64; SEARCH_LANES] = std::array::from_fn(|l| 7_000.0 + 600.0 * l as f64);
        let bufs = caps.map(|c| 0.01 * c);
        let mut dispatched = LaneQueues::new(&caps, &bufs, dt, arrivals.len());
        let mut portable = LaneQueues::new(&caps, &bufs, dt, arrivals.len());
        for run in arrivals.chunks(30) {
            dispatched.step_run(run);
            portable.step_run_body(run);
        }
        let bits = |q: &LaneQueues<SEARCH_LANES>| {
            let lanes = [q.backlog, q.lost, q.win_loss];
            let mut v: Vec<u64> = lanes.iter().flatten().map(|x| x.to_bits()).collect();
            v.extend(q.overflow);
            v.extend([
                q.arrived.to_bits(),
                q.win_arr.to_bits(),
                q.offered.to_bits(),
            ]);
            v
        };
        assert_eq!(bits(&dispatched), bits(&portable));
        assert!(
            portable.overflow.iter().any(|&o| o > 0),
            "no lane overflowed: weak test"
        );
    }

    #[test]
    fn lanes_match_step_block_bitwise() {
        let dt = 1.0 / 30.0;
        let arrivals: Vec<f64> = (0..1000)
            .map(|i| {
                ((i as f64 * 0.37).sin().abs() * 120.0) + if i % 13 == 0 { 400.0 } else { 0.0 }
            })
            .collect();
        let caps = [2400.0, 3000.0, 3300.0];
        let bufs = [0.0, 60.0, 200.0];
        let mut lanes = LaneQueues::new(&caps, &bufs, dt, arrivals.len());
        for block in arrivals.chunks(64) {
            lanes.feed(block);
        }
        for (l, got) in lanes.totals().iter().enumerate() {
            // The scalar replay the lanes replaced: `step_block` per run,
            // runs cut at block and errored-second (30-slot) boundaries.
            let mut q = FluidQueue::new(bufs[l], caps[l]);
            let (mut worst, mut win_loss, mut win_arr, mut i) = (0.0f64, 0.0, 0.0, 0);
            for block in arrivals.chunks(64) {
                let mut pos = 0;
                while pos < block.len() {
                    let run = &block[pos..block.len().min(pos + 30 - i % 30)];
                    win_loss += q.step_block(run, dt);
                    win_arr += vbr_stats::simd::sum_sequential(run);
                    pos += run.len();
                    i += run.len();
                    if i % 30 == 0 || i == arrivals.len() {
                        if win_arr > 0.0 {
                            worst = worst.max(win_loss / win_arr);
                        }
                        (win_loss, win_arr) = (0.0, 0.0);
                    }
                }
            }
            assert_eq!(got.p_l.to_bits(), q.loss_rate().to_bits(), "lane {l}");
            assert_eq!(got.p_wes.to_bits(), worst.to_bits(), "lane {l}");
            assert!(got.p_wes > 0.0, "lane {l} never lost: weak test");
        }
    }
}
