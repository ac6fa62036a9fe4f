//! What every workload shares: timed set-up steps, the timed pass of
//! closed-loop operations, and the outcome handed back to `main`.

use std::cell::RefCell;
use std::time::Instant;

use vbr_stats::obs::CounterSnapshot;

use crate::measure;
use crate::spans::{Recorder, OP, SETUP};

/// One workload run's context: the input seed and the span recorder.
pub struct Ctx {
    pub seed: u64,
    pub trace: bool,
    pub rec: Recorder,
}

impl Ctx {
    /// With `trace`, set-up steps and one operation of each adjacent
    /// pair are recorded (see [`traced_op`]).
    pub fn new(seed: u64, trace: bool) -> Ctx {
        Ctx {
            seed,
            trace,
            rec: Recorder::new(trace),
        }
    }

    /// Runs one set-up step under a `setup` span and returns its value
    /// with its duration in seconds.
    pub fn setup_step<T>(&self, rep: u64, build: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let value = self.rec.span(SETUP, rep, build);
        (value, t0.elapsed().as_secs_f64())
    }

    /// Builds the workload state `reps` times and keeps the last. Each
    /// earlier state is dropped before the next is built, so peak memory
    /// holds one.
    pub fn setup<T>(&self, reps: u64, mut build: impl FnMut(u64) -> T) -> (T, Vec<f64>) {
        let mut times = Vec::new();
        let mut kept = None;
        for rep in 0..reps {
            drop(kept.take());
            let (value, secs) = self.setup_step(rep, || build(rep));
            times.push(secs);
            kept = Some(value);
        }
        (kept.expect("at least one set-up repetition"), times)
    }

    /// Runs the timed pass of closed-loop operations in `body`.
    pub fn pass<R>(&self, body: impl FnOnce(&Pass) -> R) -> (R, PassStats) {
        let pass = Pass {
            ctx: self,
            op_s: RefCell::new(Vec::new()),
        };
        let counters = CounterSnapshot::capture();
        let cpu = measure::cpu_s().unwrap_or(0.0);
        let t0 = Instant::now();
        let out = body(&pass);
        let wall_s = t0.elapsed().as_secs_f64();
        let stats = PassStats {
            wall_s,
            cpu_s: measure::cpu_s().unwrap_or(0.0) - cpu,
            op_s: pass.op_s.into_inner(),
            counters: CounterSnapshot::capture().delta(&counters),
        };
        (out, stats)
    }
}

/// Whether operation `id` records spans in a traced run. Operations pair
/// up as (0, 1), (2, 3), …; one of each pair is traced, first and second
/// in turn (0 and 3, then 4 and 7, …), so each pair compares traced and
/// untraced latency under the same host conditions without an order bias,
/// and work that falls on every k-th operation is traced too.
pub fn traced_op(id: u64) -> bool {
    id % 2 == (id / 2) % 2
}

/// Handle the pass body times its operations through.
pub struct Pass<'a> {
    ctx: &'a Ctx,
    op_s: RefCell<Vec<f64>>,
}

impl Pass<'_> {
    /// Runs one closed-loop operation and records its latency. Operation
    /// ids run from 0 in order.
    pub fn op<R>(&self, id: u64, f: impl FnOnce() -> R) -> R {
        let rec = &self.ctx.rec;
        rec.set_on(self.ctx.trace && traced_op(id));
        let t0 = Instant::now();
        let out = rec.span(OP, id, f);
        self.op_s.borrow_mut().push(t0.elapsed().as_secs_f64());
        rec.set_on(false);
        out
    }

    /// Runs one library call inside a layer span.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.ctx.rec.span(name, op, f)
    }
}

/// Timings and counter deltas of the timed pass.
#[derive(Debug, Clone)]
pub struct PassStats {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Latency of each operation, in run order.
    pub op_s: Vec<f64>,
    /// `obs` counter deltas over the pass, by counter name.
    pub counters: Vec<(&'static str, u64)>,
}

impl PassStats {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Tracing overhead: the median over operation pairs of the traced
    /// latency over the untraced one, minus one. Zero when the pass has no
    /// pair.
    pub fn overhead(&self) -> f64 {
        let ratios: Vec<f64> = self
            .op_s
            .chunks_exact(2)
            .enumerate()
            .map(|(j, p)| if traced_op(2 * j as u64) { p[0] / p[1] } else { p[1] / p[0] } - 1.0)
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            measure::median(&ratios)
        }
    }
}

/// What a workload hands back: set-up times, the timed pass that every
/// metric, check and digest comes from, and the workload's own values.
#[derive(Debug)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub pass: PassStats,
    /// Work items in the pass, the throughput numerator.
    pub items: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Workload-specific per-layer values, by registry name.
    pub extras: Vec<(&'static str, f64)>,
    /// The workload's headline figures, `(name, value, unit)`.
    pub headline: Vec<(&'static str, f64, &'static str)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_op_of_each_pair_is_traced_in_alternating_order() {
        let traced: Vec<bool> = (0..8).map(traced_op).collect();
        assert_eq!(traced, [true, false, false, true, true, false, false, true]);
    }

    #[test]
    fn overhead_compares_within_pairs() {
        let stats = |op_s: Vec<f64>| PassStats {
            wall_s: 1.0,
            cpu_s: 0.0,
            op_s,
            counters: Vec::new(),
        };
        // Traced ops (0, 3, 4) are 10 % slower than their partners; the
        // unpaired last op is ignored.
        let s = stats(vec![1.1, 1.0, 2.0, 2.2, 3.3, 3.0, 9.0]);
        assert!((s.overhead() - 0.1).abs() < 1e-9);
        assert_eq!(stats(vec![1.0]).overhead(), 0.0);
    }
}
