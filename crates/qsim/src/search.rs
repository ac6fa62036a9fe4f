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
//! `d` levels instead of once per level. The depth follows the lane
//! budget: [`search_lanes`] picks `2^d` lanes from the CPU's kernel copy
//! and the number of lag combinations a pass interleaves, which fixes
//! how many passes a search makes; [`bisect`] then spreads the levels
//! evenly over those passes and runs each at `2^depth` lanes for its own
//! depth, so no pass carries lanes whose verdicts it never reads. A pass
//! also carries only the searched metric: an `Overall` search skips the
//! worst-errored-second accounting, and over a `MuxSim` its passes also
//! skip the blocks in which every lane's queue stays empty (DESIGN.md
//! §10, "Idle blocks"), stepping the rest through [`LaneQueues::step`].
//!
//! Lane contract (as for the lane-batched FFT): every lane runs exactly
//! the op sequence of [`FluidQueue::step_block`] on its own `(C, Q)`,
//! and nothing crosses lanes. Only lane-invariant work — the running
//! `arrived` total and the per-window arrival sum — is shared, within
//! one group of lanes fed by one arrival stream. A pass may interleave
//! up to [`MAX_GROUPS`] such groups (one per lag combination), slot by
//! slot, so their latency-bound recurrences overlap; no op crosses
//! groups either.

use crate::error::QsimError;
use crate::qc::{AveragedLoss, LossMetric, LossTarget};
use crate::queue::FluidQueue;
use crate::zero::ZeroLoss;
use vbr_stats::error::NumericError;
use vbr_stats::obs::{self, Counter};
use vbr_stats::simd::{Isa, Kernel};

/// Slots per streaming chunk: the working-set size of every replay in
/// this crate. Big enough that per-chunk bookkeeping is noise, small
/// enough (32 KiB) to stay cache-resident.
pub(crate) const STREAM_CHUNK: usize = 4096;

/// Most lag combinations one [`LaneQueues`] pass interleaves. Three
/// groups of eight lanes keep the AVX2 copy's backlog chains in
/// registers; on a 2-vCPU Xeon an 8-lane, 3-group pass costs 0.6–0.75×
/// three 1-group passes (DESIGN.md §10, "Combination interleaving").
pub(crate) const MAX_GROUPS: usize = 3;

/// The lane rule: lanes per speculative search pass when each pass
/// interleaves `groups` lag combinations. A depth-`d` tree has
/// `2^d − 1` midpoints, padded to `2^d` lanes. The AVX-512 copy's 32
/// registers hold one group's 32-lane state or two to three groups at
/// 16 lanes (32 lanes at three groups spill and lose); the AVX2 and
/// portable copies keep 8 lanes, where three groups still fit
/// (DESIGN.md §10, "Lane budget").
pub(crate) fn search_lanes(groups: usize) -> usize {
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if groups <= 1 => 32,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => 16,
        _ => 8,
    }
}

/// Shared arrival passes a search of `iterations` levels makes with
/// trees of at most `lanes` lanes per pass.
pub(crate) fn search_passes(iterations: usize, lanes: usize) -> usize {
    iterations.div_ceil(lanes.trailing_zeros() as usize)
}

/// `G` groups of `L` fluid queues. Every group shares the `L`
/// `(capacity, buffer)` lanes but has its own arrival stream, with
/// errored-second window accounting per group.
///
/// Bit-identical per lane to a [`FluidQueue`] fed through `step_block`
/// in runs that stop at every errored-second boundary: each lane keeps
/// `step_block`'s per-slot op order, sums each run's loss from zero
/// before adding it to its window total, and closes windows exactly
/// where the scalar loop did. Groups only interleave in time — no op
/// reads another group's state — so a group's bits do not depend on `G`
/// or on its neighbours. Overflow slots are tallied per lane in
/// registers and never touch the process-global counter; the caller
/// decides which lanes count.
pub(crate) struct LaneQueues<const L: usize, const G: usize = 1> {
    service: [f64; L],
    buffer: [f64; L],
    backlog: [[f64; L]; G],
    lost: [[f64; L]; G],
    win_loss: [[f64; L]; G],
    worst: [[f64; L]; G],
    overflow: [[u64; L]; G],
    /// Running per-slot arrival total (`FluidQueue::arrived`), shared
    /// by a group's lanes.
    arrived: [f64; G],
    /// Arrivals in the open errored-second window, per group.
    win_arr: [f64; G],
    /// Sum of the per-run arrival sums: the offered total as the
    /// window accounting groups it.
    offered: [f64; G],
    slots_per_sec: usize,
    fed: usize,
    total: usize,
    /// Whether the worst-errored-second totals are kept.
    worst_second: bool,
}

impl<const L: usize, const G: usize> LaneQueues<L, G> {
    /// Empty queues for replays of `total` slots of `dt` seconds, keeping
    /// the worst-errored-second totals only if `worst_second`. Every lane
    /// is validated exactly as [`FluidQueue::new`] validates.
    pub fn new(
        capacities: &[f64; L],
        buffers: &[f64; L],
        dt: f64,
        total: usize,
        worst_second: bool,
    ) -> Self {
        let mut service = [0.0; L];
        for (s, (&c, &b)) in service.iter_mut().zip(capacities.iter().zip(buffers)) {
            *s = FluidQueue::new(b, c).capacity_bps() * dt;
        }
        LaneQueues {
            service,
            buffer: *buffers,
            backlog: [[0.0; L]; G],
            lost: [[0.0; L]; G],
            win_loss: [[0.0; L]; G],
            worst: [[0.0; L]; G],
            overflow: [[0; L]; G],
            arrived: [0.0; G],
            win_arr: [0.0; G],
            offered: [0.0; G],
            slots_per_sec: (1.0 / dt).round() as usize,
            fed: 0,
            total,
            worst_second,
        }
    }

    /// Feeds the next block of arrivals of every group (all the same
    /// length), split into runs at every errored-second boundary.
    pub fn feed(&mut self, blocks: [&[f64]; G]) {
        let len = blocks[0].len();
        assert!(blocks.iter().all(|b| b.len() == len), "ragged group blocks");
        let sps = self.slots_per_sec;
        let mut pos = 0usize;
        while pos < len {
            let left = len - pos;
            let run = if sps == 0 {
                left
            } else {
                left.min(sps - self.fed % sps)
            };
            self.step_run(blocks.map(|b| &b[pos..pos + run]));
            pos += run;
            self.fed += run;
            let closes = (sps > 0 && self.fed.is_multiple_of(sps)) || self.fed == self.total;
            if self.worst_second && closes {
                for g in 0..G {
                    for l in 0..L {
                        if self.win_arr[g] > 0.0 {
                            self.worst[g][l] =
                                self.worst[g][l].max(self.win_loss[g][l] / self.win_arr[g]);
                        }
                        self.win_loss[g][l] = 0.0;
                    }
                    self.win_arr[g] = 0.0;
                }
            }
        }
    }

    /// The smallest lane's service per slot, `C·dt`.
    pub fn min_service(&self) -> f64 {
        self.service.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Whether every lane of group `g` holds a backlog of exactly `+0.0`.
    pub fn drained(&self, g: usize) -> bool {
        self.backlog[g].iter().all(|b| b.to_bits() == 0)
    }

    /// Steps every group through one run of its own arrivals, outside
    /// the errored-second windows: only for lanes that keep `p_l` alone,
    /// whose bits do not depend on where runs are cut. The groups' runs
    /// need not cover the same slots, so a caller that skips slots (see
    /// [`settle_arrived`](Self::settle_arrived)) can pair any runs of
    /// equal length.
    pub fn step(&mut self, runs: [&[f64]; G]) {
        assert!(!self.worst_second, "errored-second lanes step through `feed`");
        assert!(runs.iter().all(|r| r.len() == runs[0].len()), "ragged group runs");
        self.step_run(runs);
    }

    /// Sets each group's `arrived` total to `arrived`, the whole
    /// replay's, for a replay that stepped only some of its slots
    /// through [`step`](Self::step). The offered total is left as
    /// stepped.
    pub fn settle_arrived(&mut self, arrived: [f64; G]) {
        self.arrived = arrived;
    }

    /// Each group's running arrival total.
    #[cfg(test)]
    pub fn arrived(&self) -> [f64; G] {
        self.arrived
    }

    /// The clamp recurrence over one run, all lanes in registers.
    ///
    /// On x86-64 the body runs from the copy compiled for the widest ISA
    /// the CPU has. The default SSE2 build holds two lanes per register,
    /// spills eight lanes' state and makes an 8-lane pass cost about 1.6×
    /// a 1-lane pass; AVX2's 16 ymm registers hold it (about 1.1×), and
    /// AVX-512's 32 zmm registers hold 32 lanes of one group or, with a
    /// few spills, 16 lanes of each of three groups. The body has no
    /// multiplies and Rust never contracts or reassociates float ops, so
    /// every copy produces the same bits (tested below, copy by copy).
    fn step_run(&mut self, runs: [&[f64]; G]) {
        let isa = Isa::detect();
        if self.worst_second {
            isa.run(StepRun::<L, G, true> { queues: self, runs });
        } else {
            isa.run(StepRun::<L, G, false> { queues: self, runs });
        }
    }

    /// [`step_run`](Self::step_run) for whatever ISA it is inlined
    /// into. Slot-major, group-minor: the `G` independent backlog
    /// chains of one slot are in flight together, which is what hides
    /// the recurrence's latency. Without `WES` the run's per-lane loss
    /// sums, which only feed the errored-second windows, are not kept.
    // The slot index walks `G` slices at once, which no iterator adapter
    // expresses for a const-generic `G`.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn step_run_body<const WES: bool>(&mut self, runs: [&[f64]; G]) {
        let n = runs[0].len();
        let runs = runs.map(|r| &r[..n]);
        let (service, buffer) = (self.service, self.buffer);
        let mut backlog = self.backlog;
        let mut lost = self.lost;
        let mut overflow = self.overflow;
        let mut run_loss = [[0.0f64; L]; G];
        let mut arrived = self.arrived;
        // `simd::sum_sequential`'s strict left-to-right order, fused here
        // so its add chain overlaps the lanes' instead of following them.
        let mut run_arr = [0.0f64; G];
        for i in 0..n {
            for g in 0..G {
                let a = runs[g][i];
                debug_assert!(a >= 0.0);
                arrived[g] += a;
                run_arr[g] += a;
                for l in 0..L {
                    let unserved = (backlog[g][l] + a - service[l]).max(0.0);
                    let loss = (unserved - buffer[l]).max(0.0);
                    backlog[g][l] = unserved - loss;
                    lost[g][l] += loss;
                    if WES {
                        run_loss[g][l] += loss;
                    }
                    overflow[g][l] += (loss > 0.0) as u64;
                }
            }
        }
        self.backlog = backlog;
        self.lost = lost;
        self.overflow = overflow;
        self.arrived = arrived;
        for g in 0..G {
            if WES {
                for (w, r) in self.win_loss[g].iter_mut().zip(run_loss[g]) {
                    *w += r;
                }
                self.win_arr[g] += run_arr[g];
            }
            self.offered[g] += run_arr[g];
        }
    }

    /// Per-group, per-lane losses of the replay: `p_l = lost / arrived`
    /// (0 when nothing arrived), the worst errored second (NaN unless
    /// kept), and overflow slots.
    pub fn totals(&self) -> [[AveragedLoss; L]; G] {
        std::array::from_fn(|g| {
            std::array::from_fn(|l| AveragedLoss {
                p_l: if self.arrived[g] > 0.0 {
                    self.lost[g][l] / self.arrived[g]
                } else {
                    0.0
                },
                p_wes: if self.worst_second { self.worst[g][l] } else { f64::NAN },
                overflow_slots: self.overflow[g][l],
            })
        })
    }
}

/// One [`LaneQueues::step_run`] call, compiled per ISA by [`Isa::run`],
/// with or without the worst-errored-second accounting (`WES`).
struct StepRun<'q, 'r, const L: usize, const G: usize, const WES: bool> {
    queues: &'q mut LaneQueues<L, G>,
    runs: [&'r [f64]; G],
}

impl<const L: usize, const G: usize, const WES: bool> Kernel for StepRun<'_, '_, L, G, WES> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        self.queues.step_run_body::<WES>(self.runs);
    }
}

impl<const L: usize> LaneQueues<L> {
    /// Offered bytes so far, summed run by run.
    pub fn offered(&self) -> f64 {
        self.offered[0]
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
fn midpoint_tree<const L: usize>(
    mids: &mut [f64; L],
    node: usize,
    levels: usize,
    lo: f64,
    hi: f64,
) {
    if levels == 0 {
        return;
    }
    let mid = 0.5 * (lo + hi);
    mids[node] = mid;
    midpoint_tree(mids, 2 * node + 1, levels - 1, lo, mid);
    midpoint_tree(mids, 2 * node + 2, levels - 1, mid, hi);
}

/// Levels each pass of a search decides: `levels` spread evenly over the
/// `search_passes(levels, 2^max_depth)` passes a full-width tree would
/// make, earlier passes taking the remainder. 10 levels at depth 4 are
/// 4 + 3 + 3, not 4 + 4 + 2.
fn pass_depths(levels: usize, max_depth: usize) -> impl Iterator<Item = usize> {
    let passes = search_passes(levels, 1 << max_depth);
    (0..passes).map(move |p| levels / passes + usize::from(p < levels % passes))
}

/// The capacity bisection every Q-C search runs: `iterations` levels
/// from the bracket `[lo, hi]`, with the buffer tied to the capacity
/// through `Q = t_max × C`. Each pass replays `replay`'s arrivals once
/// through one lane per midpoint of the next levels' tree and walks it
/// with the scalar decisions. A search makes as many passes as trees of
/// `max_depth` levels need, with the levels spread evenly over them
/// ([`pass_depths`]), each pass at `2^depth` lanes for its own depth;
/// every pass carries only `metric`'s accounting.
///
/// A zero-loss search may pass the exact zero-loss capacity as `zero`:
/// each level is then decided from it without a pass
/// ([`ZeroLoss::verdict`] gives the verdict the pass would give), until
/// the first midpoint within the margin of `C*`, from which passes
/// decide the remaining levels.
///
/// Counters: `QcProbes` counts decided levels, `MuxRuns` counts passes,
/// and `QueueOverflowSlots` adds only the lanes on the decision path, so
/// it equals what a one-probe-per-replay search would have counted for
/// the levels passes decide.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bisect(
    mut lo: f64,
    mut hi: f64,
    iterations: usize,
    t_max_secs: f64,
    target: LossTarget,
    metric: LossMetric,
    zero: Option<ZeroLoss>,
    max_depth: usize,
    replay: &mut impl SearchPass,
) -> Result<f64, QsimError> {
    assert!((1..=5).contains(&max_depth), "trees of 1 to 5 levels per pass");
    debug_assert!(zero.is_none() || target == LossTarget::Zero);
    let mut left = iterations;
    if let Some(zero) = zero {
        while left > 0 {
            let mid = 0.5 * (lo + hi);
            let Some(meets) = zero.verdict(mid) else { break };
            obs::counter_add(Counter::QcProbes, 1);
            if meets {
                hi = mid;
            } else {
                lo = mid;
            }
            left -= 1;
        }
    }
    let tree = Tree { t_max_secs, target, metric };
    for depth in pass_depths(left, max_depth) {
        (lo, hi) = match depth {
            1 => tree.pass::<2>(lo, hi, replay)?,
            2 => tree.pass::<4>(lo, hi, replay)?,
            3 => tree.pass::<8>(lo, hi, replay)?,
            4 => tree.pass::<16>(lo, hi, replay)?,
            _ => tree.pass::<32>(lo, hi, replay)?,
        };
    }
    Ok(hi)
}

/// What every pass of one search shares.
struct Tree {
    t_max_secs: f64,
    target: LossTarget,
    metric: LossMetric,
}

impl Tree {
    /// One shared pass deciding the next `log₂ L` levels from
    /// `[lo, hi]` through the `L − 1` midpoints of their tree and one pad
    /// lane; returns the bracket after them.
    fn pass<const L: usize>(
        &self,
        mut lo: f64,
        mut hi: f64,
        replay: &mut impl SearchPass,
    ) -> Result<(f64, f64), QsimError> {
        const { assert!(L > 1 && L.is_power_of_two(), "L must be a power of two") };
        let depth = L.trailing_zeros() as usize;
        let _span = obs::span("qsim.qc_pass");
        obs::counter_add(Counter::MuxRuns, 1);
        // The pad lane replays the root midpoint; its verdict is never
        // read.
        let mut mids = [0.5 * (lo + hi); L];
        midpoint_tree(&mut mids, 0, depth, lo, hi);
        let buffers = mids.map(|c| self.t_max_secs * c);
        let losses = replay.pass(&mids, &buffers, self.metric)?;
        let mut node = 0;
        for _ in 0..depth {
            obs::counter_add(Counter::QcProbes, 1);
            obs::counter_add(Counter::QueueOverflowSlots, losses[node].overflow_slots);
            if losses[node].meets(self.target, self.metric) {
                hi = mids[node];
                node = 2 * node + 1;
            } else {
                lo = mids[node];
                node = 2 * node + 2;
            }
        }
        Ok((lo, hi))
    }
}

/// The arrival replay behind a capacity search, at any lane width.
pub(crate) trait SearchPass {
    /// Lag combinations each pass interleaves: the lane rule's `G`.
    fn groups(&self) -> usize;

    /// One shared pass of the arrivals through `L` lanes of
    /// `(capacities, buffers)`, returning each lane's losses. Only
    /// `metric`'s statistic need be kept: a `WorstSecond` pass returns
    /// both, an `Overall` pass may leave `p_wes` NaN.
    fn pass<const L: usize>(
        &mut self,
        capacities: &[f64; L],
        buffers: &[f64; L],
        metric: LossMetric,
    ) -> Result<[AveragedLoss; L], QsimError>;

    /// The exact zero-loss capacity at `t_max_secs`, where this replay
    /// can compute one (integer arrivals); `None` leaves every level to
    /// passes.
    fn zero_loss(&mut self, _t_max_secs: f64) -> Option<ZeroLoss> {
        None
    }
}

/// [`bisect`] at the tree depth [`search_lanes`] picks for `replay`'s
/// groups, given the replay's exact zero-loss capacity for a zero-loss
/// target.
///
/// `lo` is the mean arrival rate; a zero (all-silent arrivals) or
/// non-finite one leaves no positive capacity to probe and is rejected
/// before any pass.
pub(crate) fn search(
    lo: f64,
    hi: f64,
    iterations: usize,
    t_max_secs: f64,
    target: LossTarget,
    metric: LossMetric,
    mut replay: impl SearchPass,
) -> Result<f64, QsimError> {
    if !(lo > 0.0 && lo.is_finite()) {
        return Err(NumericError::NonPositive { what: "mean arrival rate", value: lo }.into());
    }
    let zero = match target {
        LossTarget::Zero if iterations > 0 => replay.zero_loss(t_max_secs),
        _ => None,
    };
    let max_depth = search_lanes(replay.groups()).trailing_zeros() as usize;
    bisect(lo, hi, iterations, t_max_secs, target, metric, zero, max_depth, &mut replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qc::Passes;
    use crate::MuxSim;
    use vbr_video::{generate_screenplay, ScreenplayConfig};

    fn check_midpoint_tree<const L: usize>() {
        let depth = L.trailing_zeros() as usize;
        let (lo, hi) = (1.0f64, 1.7f64);
        let mut mids = [f64::NAN; L];
        midpoint_tree(&mut mids, 0, depth, lo, hi);
        // Every root-to-leaf verdict sequence reproduces the scalar
        // loop's midpoints bit for bit.
        for path in 0..L {
            let (mut l, mut h, mut node) = (lo, hi, 0);
            for level in 0..depth {
                let mid = 0.5 * (l + h);
                assert_eq!(
                    mids[node].to_bits(),
                    mid.to_bits(),
                    "L = {L}, path {path:b}, level {level}"
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
        assert!(mids[L - 1].is_nan(), "L = {L}: pad lane is not a tree node");
    }

    #[test]
    fn midpoint_tree_matches_scalar_brackets() {
        check_midpoint_tree::<8>();
        check_midpoint_tree::<16>();
        check_midpoint_tree::<32>();
    }

    #[test]
    fn lane_rule_follows_groups_and_cpu() {
        for groups in 1..=MAX_GROUPS {
            let lanes = search_lanes(groups);
            match Isa::detect() {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => assert_eq!(lanes, if groups == 1 { 32 } else { 16 }),
                _ => assert_eq!(lanes, 8, "hosts without AVX-512 keep the 8-lane tree"),
            }
        }
        assert_eq!(search_passes(10, 8), 4);
        assert_eq!(search_passes(10, 16), 3);
        assert_eq!(search_passes(10, 32), 2);
        assert_eq!(search_passes(0, 32), 0);
    }

    #[test]
    fn pass_depths_spread_levels_evenly() {
        let depths = |levels, max_depth| pass_depths(levels, max_depth).collect::<Vec<_>>();
        assert_eq!(depths(10, 4), [4, 3, 3]);
        assert_eq!(depths(10, 3), [3, 3, 2, 2]);
        assert_eq!(depths(10, 5), [5, 5]);
        assert_eq!(depths(22, 4), [4, 4, 4, 4, 3, 3]);
        assert_eq!(depths(1, 5), [1]);
        assert!(depths(0, 4).is_empty());
        for max_depth in 1..=5 {
            for levels in 0..64 {
                let d = depths(levels, max_depth);
                assert_eq!(d.len(), search_passes(levels, 1 << max_depth));
                assert_eq!(d.iter().sum::<usize>(), levels);
                assert!(d.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1), "{d:?}");
                assert!(d.iter().all(|&k| (1..=max_depth).contains(&k)), "{d:?}");
            }
        }
    }

    /// The search bracket `MuxSim` starts from.
    fn bracket(sim: &MuxSim) -> (f64, f64) {
        (sim.mean_rate(), sim.peak_slot_rate().max(sim.mean_rate() * 1.001))
    }

    /// The one-probe-per-replay bisection the trees replace, on the
    /// public one-lane `run`, from `(lo, hi)`: entry `i` is its answer
    /// after `i` levels.
    fn scalar_answers(
        sim: &MuxSim,
        t_max: f64,
        target: LossTarget,
        metric: LossMetric,
        (mut lo, mut hi): (f64, f64),
        levels: usize,
    ) -> Vec<f64> {
        let mut answers = vec![hi];
        for _ in 0..levels {
            let mid = 0.5 * (lo + hi);
            if sim.run(mid, t_max * mid).meets(target, metric) {
                hi = mid;
            } else {
                lo = mid;
            }
            answers.push(hi);
        }
        answers
    }

    /// A `MuxSim` replay that records the lane width of every pass, so a
    /// search's `MuxRuns` (passes) and `QcProbes` (levels the passes
    /// decide, `log₂` of each width) can be read without the
    /// process-global counters.
    struct Counted<'s, 'a> {
        sim: &'s MuxSim<'a>,
        lanes: Vec<usize>,
    }

    impl<'s, 'a> Counted<'s, 'a> {
        fn new(sim: &'s MuxSim<'a>) -> Self {
            Counted { sim, lanes: Vec::new() }
        }

        /// The passes a search over `sim` runs.
        fn passes(&self) -> Passes<'s, 'a> {
            Passes { sim: self.sim, skip_idle: true }
        }

        fn probes(&self) -> usize {
            self.lanes.iter().map(|l| l.trailing_zeros() as usize).sum()
        }
    }

    impl SearchPass for Counted<'_, '_> {
        fn groups(&self) -> usize {
            self.passes().groups()
        }

        fn pass<const L: usize>(
            &mut self,
            capacities: &[f64; L],
            buffers: &[f64; L],
            metric: LossMetric,
        ) -> Result<[AveragedLoss; L], QsimError> {
            self.lanes.push(L);
            self.passes().pass(capacities, buffers, metric)
        }
    }

    /// `bisect` at trees of up to `max_depth` levels against the scalar
    /// answers `want`, for every level count in `want`: same capacity
    /// bits, as many passes as full-width trees would make (`MuxRuns`),
    /// one probe per level (`QcProbes`), and each pass `2^depth` lanes
    /// wide for its own share of the levels.
    fn check_sized_passes(
        sim: &MuxSim,
        t_max: f64,
        want: &[f64],
        target: LossTarget,
        metric: LossMetric,
        max_depth: usize,
    ) {
        let (lo, hi) = bracket(sim);
        for (levels, want) in want.iter().enumerate() {
            let n = sim.n_sources();
            let at = format!("max depth {max_depth}, N = {n}, {target:?} {metric:?} x{levels}");
            let mut replay = Counted::new(sim);
            let got = bisect(lo, hi, levels, t_max, target, metric, None, max_depth, &mut replay);
            let got = got.unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{at}");
            assert_eq!(replay.lanes.len(), search_passes(levels, 1 << max_depth), "{at}");
            assert_eq!(replay.probes(), levels, "{at}");
            let sized: Vec<usize> = pass_depths(levels, max_depth).map(|d| 1 << d).collect();
            assert_eq!(replay.lanes, sized, "{at}");
        }
    }

    #[test]
    fn sized_passes_match_scalar_bisection() {
        // Whatever depth the lane rule picks on this CPU, every depth is
        // checked: full trees and the sized 2- to 32-lane passes that
        // share out the levels a full-width tree would leave ragged.
        let trace = generate_screenplay(&ScreenplayConfig::short(300, 5));
        let t_max = 0.004;
        for n in [1, 3] {
            let sim = MuxSim::new(&trace, n, 7);
            for target in [LossTarget::Zero, LossTarget::Rate(1e-3)] {
                for metric in [LossMetric::Overall, LossMetric::WorstSecond] {
                    let want = scalar_answers(&sim, t_max, target, metric, bracket(&sim), 25);
                    for max_depth in 1..=5 {
                        check_sized_passes(&sim, t_max, &want, target, metric, max_depth);
                    }
                }
            }
        }
    }

    /// Arrivals for group `g`: the same shape per group, phase-shifted,
    /// so every group's queues see different traffic.
    fn group_arrivals(g: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let bump = if i % (13 + g) == 0 { 400.0 } else { 0.0 };
                ((i as f64 * 0.37 + g as f64).sin().abs() * 120.0) + bump
            })
            .collect()
    }

    /// Runs one copy of the lane kernel over `G` fixed arrival streams
    /// in 30-slot runs.
    fn run_kernel_copy<const L: usize, const G: usize>(
        worst_second: bool,
        step: impl Fn(&mut LaneQueues<L, G>, [&[f64]; G]),
    ) -> LaneQueues<L, G> {
        let (dt, n) = (1.0 / 30.0, 997);
        let arrivals: [Vec<f64>; G] = std::array::from_fn(|g| {
            (0..n).map(|i| ((i * 7919 + 31 * g) % 251) as f64 * 2.5).collect()
        });
        let caps: [f64; L] = std::array::from_fn(|l| 7_000.0 + 600.0 * l as f64);
        let bufs = caps.map(|c| 0.01 * c);
        let mut q = LaneQueues::<L, G>::new(&caps, &bufs, dt, n, worst_second);
        for start in (0..n).step_by(30) {
            step(&mut q, arrivals.each_ref().map(|a| &a[start..n.min(start + 30)]));
        }
        q
    }

    /// Every state word of `q`, as bits.
    fn state_bits<const L: usize, const G: usize>(q: &LaneQueues<L, G>) -> Vec<u64> {
        let lanes = [q.backlog, q.lost, q.win_loss];
        let mut v: Vec<u64> = lanes.iter().flatten().flatten().map(|x| x.to_bits()).collect();
        v.extend(q.overflow.iter().flatten());
        for shared in [q.arrived, q.win_arr, q.offered] {
            v.extend(shared.map(f64::to_bits));
        }
        v
    }

    /// Runs every kernel copy the CPU supports directly, whatever
    /// `step_run` would dispatch to, and compares each with the
    /// portable body, with and without the errored-second accounting.
    fn check_kernel_copies<const L: usize, const G: usize>() {
        check_kernel_copies_of::<L, G, true>();
        check_kernel_copies_of::<L, G, false>();
    }

    fn check_kernel_copies_of<const L: usize, const G: usize, const WES: bool>() {
        let portable = run_kernel_copy::<L, G>(WES, |q, r| q.step_run_body::<WES>(r));
        assert!(
            portable.overflow.iter().all(|g| g.iter().any(|&o| o > 0)),
            "L = {L}, G = {G}: a group never overflowed: weak test"
        );
        let want = state_bits(&portable);
        for isa in Isa::supported() {
            let copy = run_kernel_copy::<L, G>(WES, |queues, runs| {
                isa.run(StepRun::<L, G, WES> { queues, runs })
            });
            assert_eq!(state_bits(&copy), want, "{isa:?} copy, L = {L}, G = {G}, WES = {WES}");
        }
    }

    #[test]
    fn every_kernel_copy_matches_portable_body_bitwise() {
        check_kernel_copies::<2, 1>();
        check_kernel_copies::<4, 3>();
        check_kernel_copies::<8, 1>();
        check_kernel_copies::<8, 2>();
        check_kernel_copies::<8, 3>();
        check_kernel_copies::<16, 1>();
        check_kernel_copies::<16, 2>();
        check_kernel_copies::<16, 3>();
        check_kernel_copies::<32, 1>();
        check_kernel_copies::<32, 2>();
        check_kernel_copies::<32, 3>();
    }

    /// Feeds the same arrivals through lanes with and without the
    /// errored-second accounting, in blocks that cut windows, and checks
    /// every lane of every group keeps its `p_l` and overflow bits.
    fn check_overall_only<const L: usize, const G: usize>() {
        let (dt, n) = (1.0 / 30.0, 1000);
        let arrivals: [Vec<f64>; G] = std::array::from_fn(|g| group_arrivals(g, n));
        let caps: [f64; L] = std::array::from_fn(|l| 2300.0 + 150.0 * l as f64);
        let bufs: [f64; L] = std::array::from_fn(|l| [0.0, 60.0, 200.0][l % 3]);
        let lanes = |worst_second| {
            let mut q = LaneQueues::<L, G>::new(&caps, &bufs, dt, n, worst_second);
            for start in (0..n).step_by(64) {
                q.feed(arrivals.each_ref().map(|a| &a[start..n.min(start + 64)]));
            }
            q
        };
        let (full, overall) = (lanes(true), lanes(false));
        assert_eq!(full.offered.map(f64::to_bits), overall.offered.map(f64::to_bits));
        for (g, (f, o)) in full.totals().iter().zip(overall.totals()).enumerate() {
            for (l, (f, o)) in f.iter().zip(o).enumerate() {
                let at = format!("L = {L}, G = {G}, group {g}, lane {l}");
                assert_eq!(o.p_l.to_bits(), f.p_l.to_bits(), "{at}");
                assert_eq!(o.overflow_slots, f.overflow_slots, "{at}");
                assert!(o.p_wes.is_nan() && f.p_wes.is_finite(), "{at}");
            }
            assert!(f.iter().any(|f| f.overflow_slots > 0), "group {g} never lost: weak test");
        }
    }

    #[test]
    fn overall_only_lanes_keep_overall_bits() {
        check_overall_only::<2, 1>();
        check_overall_only::<8, 2>();
        check_overall_only::<16, MAX_GROUPS>();
        check_overall_only::<32, 1>();
        // And through a whole replay, every pool grouping.
        let trace = generate_screenplay(&ScreenplayConfig::short(300, 5));
        let sim = MuxSim::new(&trace, 5, 3);
        let caps: [f64; 16] = std::array::from_fn(|l| sim.mean_rate() * (1.0 + 0.03 * l as f64));
        let bufs = caps.map(|c| 0.002 * c);
        for threads in 1..=3 {
            vbr_stats::par::with_threads(threads, || {
                let full = sim.replay(&caps, &bufs, true, false);
                let overall = sim.replay(&caps, &bufs, false, false);
                for (l, (f, o)) in full.iter().zip(&overall).enumerate() {
                    assert_eq!(o.p_l.to_bits(), f.p_l.to_bits(), "{threads} threads, lane {l}");
                    assert_eq!(o.overflow_slots, f.overflow_slots, "{threads} threads, lane {l}");
                }
                assert!(full[0].overflow_slots > 0, "weak test");
            });
        }
    }

    /// Feeds `G` groups of different arrivals and checks every lane of
    /// every group against the scalar `step_block` replay of its own
    /// group's arrivals.
    fn check_groups_against_step_block<const G: usize>() {
        let dt = 1.0 / 30.0;
        let n = 1000;
        let arrivals: [Vec<f64>; G] = std::array::from_fn(|g| group_arrivals(g, n));
        let caps = [2400.0, 3000.0, 3300.0];
        let bufs = [0.0, 60.0, 200.0];
        let mut lanes = LaneQueues::<3, G>::new(&caps, &bufs, dt, n, true);
        for start in (0..n).step_by(64) {
            lanes.feed(arrivals.each_ref().map(|a| &a[start..n.min(start + 64)]));
        }
        for (g, group) in lanes.totals().iter().enumerate() {
            for (l, got) in group.iter().enumerate() {
                // The scalar replay the lanes replaced: `step_block` per
                // run, runs cut at block and errored-second (30-slot)
                // boundaries.
                let mut q = FluidQueue::new(bufs[l], caps[l]);
                let (mut worst, mut win_loss, mut win_arr, mut i) = (0.0f64, 0.0, 0.0, 0);
                for block in arrivals[g].chunks(64) {
                    let mut pos = 0;
                    while pos < block.len() {
                        let run = &block[pos..block.len().min(pos + 30 - i % 30)];
                        win_loss += q.step_block(run, dt);
                        win_arr += vbr_stats::simd::sum_sequential(run);
                        pos += run.len();
                        i += run.len();
                        if i % 30 == 0 || i == n {
                            if win_arr > 0.0 {
                                worst = worst.max(win_loss / win_arr);
                            }
                            (win_loss, win_arr) = (0.0, 0.0);
                        }
                    }
                }
                let at = format!("G = {G}, group {g}, lane {l}");
                assert_eq!(got.p_l.to_bits(), q.loss_rate().to_bits(), "{at}");
                assert_eq!(got.p_wes.to_bits(), worst.to_bits(), "{at}");
                assert!(got.p_wes > 0.0, "{at} never lost: weak test");
            }
        }
    }

    #[test]
    fn lanes_match_step_block_bitwise() {
        check_groups_against_step_block::<1>();
        check_groups_against_step_block::<2>();
        check_groups_against_step_block::<MAX_GROUPS>();
    }

    /// A zero-loss search from `(lo, hi)` against the scalar loop, bit
    /// for bit: `bisect` at 8-lane trees given the exact capacity.
    /// Returns how many passes it replayed.
    fn check_exact_zero(
        sim: &MuxSim,
        t_max: f64,
        metric: usize,
        (lo, hi): (f64, f64),
        levels: usize,
    ) -> Result<usize, proptest::test_runner::TestCaseError> {
        let metric = [LossMetric::Overall, LossMetric::WorstSecond][metric];
        let zero = sim.zero_loss(t_max).expect("short traces scan");
        let mut replay = Counted::new(sim);
        let target = LossTarget::Zero;
        let got = bisect(lo, hi, levels, t_max, target, metric, Some(zero), 3, &mut replay);
        let got = got.unwrap();
        let want = scalar_answers(sim, t_max, target, metric, (lo, hi), levels)[levels];
        proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} x{}", metric, levels);
        Ok(replay.lanes.len())
    }

    proptest::proptest! {
        /// Constant arrivals whose `C*` is exactly the root midpoint: the
        /// root sits inside the margin, so every level is replayed, and
        /// the answer keeps the scalar bits whichever way the replay at
        /// `C*` itself rounds.
        #[test]
        fn root_at_c_star_is_replayed(
            slice in 1u32..5_000_000,
            frames in 2usize..60,
            spf_pick in 0usize..4,
            t_pick in 0usize..4,
            levels in 1usize..30,
            metric in 0usize..2,
        ) {
            let spf = [1, 3, 30, 32][spf_pick];
            let trace = vbr_video::Trace::from_slices(vec![slice; frames * spf], spf, 24.0);
            let sim = MuxSim::new(&trace, 1, 1);
            let t_max = [0.0, 0.3 * sim.dt(), 7.0 * sim.dt(), 0.05][t_pick];
            let c = sim.zero_loss(t_max).unwrap().c_star();
            // A bracket whose midpoint is `c` exactly (the top sixteenth
            // of a binade rounds `c + e` and is skipped).
            let e = 2f64.powi(c.log2().floor() as i32 - 3);
            let (lo, hi) = (c - e, c + e);
            proptest::prop_assume!(0.5 * (lo + hi) == c);
            let passes = check_exact_zero(&sim, t_max, metric, (lo, hi), levels)?;
            proptest::prop_assert_eq!(passes, levels.div_ceil(3), "root decided without a replay");
        }

        /// Brackets closing in on `C*` of screenplay traces, deep enough
        /// that late midpoints fall within the margin: every level keeps
        /// the scalar bits, whether `C*` or a replay decides it.
        #[test]
        fn verdicts_near_c_star_keep_scalar_bits(
            seed in 0u64..1_000,
            n_pick in 0usize..3,
            t_pick in 0usize..4,
            below in 1e-12f64..1e-3,
            above in 1e-12f64..1e-3,
            levels in 0usize..48,
            metric in 0usize..2,
        ) {
            let trace = generate_screenplay(&ScreenplayConfig::short(120, 3));
            let sim = MuxSim::new(&trace, [1, 2, 3][n_pick], seed);
            let t_max = [0.0, 0.001, 0.004, 0.04][t_pick];
            let c = sim.zero_loss(t_max).unwrap().c_star();
            check_exact_zero(&sim, t_max, metric, (c * (1.0 - below), c * (1.0 + above)), levels)?;
        }
    }
}
