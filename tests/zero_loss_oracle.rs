//! Oracle for the zero-loss Q-C searches (`P_l = 0`, Figs 14–16).
//!
//! With the buffer tied to the capacity (`Q = C·T_max`), the fluid queue
//! loses nothing iff every window of `k` slots offers at most
//! `C·(k·dt + T_max)`, so the zero-loss capacity `C*` is the largest such
//! window ratio. This file computes `C*` by brute force over every window
//! of every lag combination, sharing no code with the queue kernel or the
//! search, and checks the searches against it.

use vbr::qsim::{LossMetric, LossTarget, MuxSim};
use vbr::video::{generate_screenplay, ScreenplayConfig, Trace};

const SOURCES: [usize; 3] = [1, 3, 5];
const T_MAX: [f64; 3] = [0.0, 0.002, 0.02];
const METRICS: [LossMetric; 2] = [LossMetric::Overall, LossMetric::WorstSecond];

fn trace() -> Trace {
    generate_screenplay(&ScreenplayConfig::short(150, 29))
}

/// One lag combination's aggregate arrivals, read straight from the
/// trace's slices with wrap-around.
fn aggregate(trace: &Trace, offsets: &[usize]) -> Vec<u64> {
    let slices = trace.slice_bytes();
    let n = slices.len();
    let spf = trace.slices_per_frame();
    (0..n)
        .map(|t| offsets.iter().map(|&o| u64::from(slices[(t + o * spf) % n])).sum())
        .collect()
}

/// `C*` by brute force: the largest `A(s, s+k] / (k·dt + T_max)` over
/// every window of every combination, O(slots²) each.
fn brute_c_star(sim: &MuxSim, t_max: f64) -> f64 {
    let dt = sim.dt();
    let mut best = 0.0f64;
    for combo in sim.combos() {
        let arrivals = aggregate(sim.trace(), &combo.offsets);
        for s in 0..arrivals.len() {
            let mut sum = 0u64;
            for (k, &a) in arrivals[s..].iter().enumerate() {
                sum += a;
                best = best.max(sum as f64 / ((k + 1) as f64 * dt + t_max));
            }
        }
    }
    best
}

fn zero_met(sim: &MuxSim, capacity: f64, t_max: f64, metric: LossMetric) -> bool {
    let loss = sim.run(capacity, t_max * capacity);
    match metric {
        LossMetric::Overall => loss.p_l == 0.0,
        LossMetric::WorstSecond => loss.p_wes == 0.0,
    }
}

fn bracket(sim: &MuxSim) -> (f64, f64) {
    (sim.mean_rate(), sim.peak_slot_rate().max(sim.mean_rate() * 1.001))
}

/// Heap-ordered midpoints of the next `levels` bisection steps from
/// `[lo, hi]`; the left child follows a met target.
fn tree(mids: &mut [f64; 8], node: usize, levels: usize, lo: f64, hi: f64) {
    if levels > 0 {
        let mid = 0.5 * (lo + hi);
        mids[node] = mid;
        tree(mids, 2 * node + 1, levels - 1, lo, mid);
        tree(mids, 2 * node + 2, levels - 1, mid, hi);
    }
}

/// A forced 8-lane zero-loss bisection: every level is replayed, three
/// per `run_lanes` pass over a tree of seven midpoints. Returns the final
/// bracket.
fn lane_search(sim: &MuxSim, t_max: f64, metric: LossMetric, levels: usize) -> (f64, f64) {
    let (mut lo, mut hi) = bracket(sim);
    let mut left = levels;
    while left > 0 {
        let depth = left.min(3);
        let mut mids = [0.5 * (lo + hi); 8];
        tree(&mut mids, 0, depth, lo, hi);
        let losses = sim.run_lanes(&mids, &mids.map(|c| t_max * c));
        let mut node = 0;
        for _ in 0..depth {
            let v = match metric {
                LossMetric::Overall => losses[node].p_l,
                LossMetric::WorstSecond => losses[node].p_wes,
            };
            if v == 0.0 {
                hi = mids[node];
                node = 2 * node + 1;
            } else {
                lo = mids[node];
                node = 2 * node + 2;
            }
        }
        left -= depth;
    }
    (lo, hi)
}

#[test]
fn lane_searches_bracket_the_brute_force_capacity() {
    let trace = trace();
    for n in SOURCES {
        let sim = MuxSim::new(&trace, n, 7);
        for t_max in T_MAX {
            let c_star = brute_c_star(&sim, t_max);
            assert!(c_star > sim.mean_rate(), "N = {n}, T = {t_max}: C* below the bracket");
            for metric in METRICS {
                for levels in [16, 23, 30] {
                    let (lo, hi) = lane_search(&sim, t_max, metric, levels);
                    let at = format!("N = {n}, T = {t_max}, {metric:?} x{levels}");
                    assert!(c_star <= hi && hi <= c_star + (hi - lo), "{at}: {hi} vs C* {c_star}");
                }
            }
        }
    }
}

#[test]
fn zero_loss_searches_equal_the_scalar_bisection() {
    let trace = trace();
    for n in SOURCES {
        let sim = MuxSim::new(&trace, n, 7);
        for t_max in T_MAX {
            for metric in METRICS {
                // The one-probe-per-replay loop: its answer after every
                // level from 0 to 30.
                let (mut lo, mut hi) = bracket(&sim);
                let mut want = vec![hi];
                for _ in 0..30 {
                    let mid = 0.5 * (lo + hi);
                    if zero_met(&sim, mid, t_max, metric) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                    want.push(hi);
                }
                for (levels, want) in want.iter().enumerate() {
                    let got = sim
                        .try_required_capacity(t_max, LossTarget::Zero, metric, levels)
                        .unwrap();
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "N = {n}, T = {t_max}, {metric:?} x{levels}"
                    );
                }
            }
        }
    }
}
