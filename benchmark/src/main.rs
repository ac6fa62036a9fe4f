//! End-to-end benchmark of the workspace: the paper's Q-C sweep, a long
//! generated stream, fleet serving and model fitting.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--spans DIR] [--list]
//! ```
//!
//! With no `--workload` the binary runs itself once per workload, so each
//! workload's peak memory is its own process's. Each run prints
//! `workload metric value unit` lines and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--spans DIR` also writes the recorded spans to
//! `DIR/<workload>.spans.json`. `--list` prints workloads and metrics.
//!
//! # Workloads
//!
//! Inputs come only from `--seed`; the amount of work is a fixed function
//! of `--seconds`, sized so a run measures about that long on the
//! reference host (2 vCPU Xeon). Every workload is a closed loop with one
//! caller: the next operation starts when the previous one returns, which
//! is how this batch, lockstep system is driven.
//!
//! - `paper_qc`: Q-C columns (`required_capacity` at N = 1, 5, 20 for
//!   one T_max and loss target) over a 171 000-frame trace. 3 columns at
//!   15 s.
//! - `stream_long`: 2^20-slice segments of one H = 0.8 fGn stream through
//!   the Gamma/Pareto map into a fluid queue. 240 segments at 15 s.
//! - `fleet_serve`: lockstep slots of 20 000 fGn tenants on one shard,
//!   with a snapshot every 250 slots. 1500 slots at 15 s.
//! - `model_fit`: the estimation, generation and bake-off chain on
//!   paper-length traces, one trace per operation. 10 traces at 15 s.
//!
//! The worker pool keeps its default thread count, reported as
//! `proc.threads`.
//!
//! # Metrics
//!
//! End to end, measured with tracing off: `setup_s` (median of the
//! run's set-up steps: input generation and construction; for
//! `model_fit` one step per trace), `throughput` (millions of work items
//! a second over the whole timed pass: source-slices for `paper_qc`,
//! slices for `stream_long`, source-slots for `fleet_serve`, frames for
//! `model_fit`), `op_p50_ms` (median operation latency) and
//! `peak_rss_mib`. Failed output checks are reported as `failed` out of
//! `attempted` operations.
//!
//! Per layer, from a run with `--trace 1`, where set-up steps and one
//! operation of each adjacent pair record spans and the other runs
//! untraced: span self times as shares of their phase (set-up, or the
//! traced operations), `obs` counter deltas over the pass, CPU use, the
//! operation tail at the highest percentile with ten samples beyond it
//! (the median when a run has fewer than 20 operations), span coverage
//! of the traced operations and the tracing overhead (the median latency
//! ratio of adjacent traced and untraced operations, minus one). Layer
//! times are shares rather than seconds so that a layer a workload never
//! calls reads 0 of a ratio.
//!
//! # Run-to-run noise
//!
//! On the shared 2-vCPU reference host the speed of every workload
//! drifts with the host's load over minutes: the interquartile range of
//! ten consecutive runs of one commit reached 5–12 % for `stream_long`
//! and `fleet_serve` and 15–24 % for `paper_qc`, and a reference kernel
//! timed in the same runs did not track it closely enough to divide it
//! out. The timing bounds in `BENCHMARK.json` are set to 0.25 for that
//! reason; the counters, digests and `peak_rss_mib` repeat exactly or
//! to within 1 %.

mod fleet_serve;
mod harness;
mod measure;
mod model_fit;
mod paper_qc;
mod spans;
mod stream_long;

use std::process::{Command, ExitCode};

use vbr_stats::obs::Counter;

use harness::{Ctx, Outcome};
use spans::{Phase, OP, SETUP};

/// Seconds one run measures when `--seconds` is not given.
const RUN_SECONDS: u64 = 15;

/// Workloads and why each is in the benchmark.
const WORKLOADS: [(&str, &str); 4] = [
    ("paper_qc", "the paper's Q-C searches: qsim arrival replay and fluid recurrence on 2 threads; generates no traffic, so fgn, fft and serve changes read as no change"),
    ("stream_long", "single-threaded fGn generation with a 16384-sample FFT window into the marginal map and queue; bypasses serve and lrd"),
    ("fleet_serve", "20000 tiny-window fGn sources lane-batched on one shard, state larger than L2, snapshots between slots"),
    ("model_fit", "the only workload where lrd estimators and the model zoo bake-off dominate; qsim appears only in short probes"),
];

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// Everything a metric reads: the workload's outcome, the span phases
/// and process figures taken at the end of the run.
struct Run {
    out: Outcome,
    setup: Phase,
    timed: Phase,
    rss_mib: f64,
    threads: usize,
}

struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    value: fn(&Run) -> f64,
}

const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
        value: |r| measure::median(&r.out.setup_s),
    },
    EndToEnd {
        name: "throughput",
        unit: "M/s",
        better: HIGHER,
        bound: 0.25,
        value: |r| r.out.items / r.out.pass.wall_s / 1e6,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: LOWER,
        bound: 0.25,
        value: |r| measure::median(&r.out.pass.op_s) * 1e3,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: LOWER,
        bound: 0.1,
        value: |r| r.rss_mib,
    },
];

enum Value {
    Of(fn(&Run) -> f64),
    /// Self-time share of the set-up phase spent in spans of this name.
    SetupShare(&'static str),
    /// Self-time share of the traced operations spent in spans of this name.
    TimedShare(&'static str),
    /// Delta of an `obs` counter over the timed pass.
    Count(Counter),
    /// A value the workload computed itself, under the metric's name.
    Extra,
}

struct Layer {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    value: Value,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    value: Value,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        value,
    }
}

fn tail(r: &Run) -> (u32, f64) {
    let op_s = &r.out.pass.op_s;
    measure::tail(op_s).unwrap_or((50, measure::median(op_s)))
}

#[rustfmt::skip]
const PER_LAYER: [Layer; 45] = [
    layer("proc.threads", "count", HIGHER, Value::Of(|r| r.threads as f64)),
    layer("proc.cpu_s", "s", LOWER, Value::Of(|r| r.out.pass.cpu_s)),
    layer("proc.cpu_util", "ratio", HIGHER, Value::Of(|r| r.out.pass.cpu_s / r.out.pass.wall_s)),
    layer("trace.coverage", "ratio", HIGHER, Value::Of(|r| r.timed.coverage(OP))),
    layer("trace.overhead_frac", "ratio", LOWER, Value::Of(|r| r.out.pass.overhead())),
    layer("op.tail_ms", "ms", LOWER, Value::Of(|r| tail(r).1 * 1e3)),
    layer("op.tail_pct", "%", HIGHER, Value::Of(|r| f64::from(tail(r).0))),
    layer("video.screenplay_share", "ratio", LOWER, Value::SetupShare("video.screenplay")),
    layer("qsim.mux_new_share", "ratio", LOWER, Value::SetupShare("qsim.mux_new")),
    layer("fgn.stream_new_share", "ratio", LOWER, Value::SetupShare("fgn.stream_new")),
    layer("fgn.marginal_new_share", "ratio", LOWER, Value::SetupShare("fgn.marginal_new")),
    layer("serve.admit_share", "ratio", LOWER, Value::SetupShare("serve.admit")),
    layer("qsim.search_n1_share", "ratio", LOWER, Value::TimedShare("qsim.search_n1")),
    layer("qsim.search_n5_share", "ratio", LOWER, Value::TimedShare("qsim.search_n5")),
    layer("qsim.search_n20_share", "ratio", LOWER, Value::TimedShare("qsim.search_n20")),
    layer("fgn.map_block_from_share", "ratio", LOWER, Value::TimedShare("fgn.map_block_from")),
    layer("qsim.step_block_share", "ratio", LOWER, Value::TimedShare("qsim.step_block")),
    layer("serve.advance_slot_share", "ratio", LOWER, Value::TimedShare("serve.advance_slot")),
    layer("serve.snapshot_share", "ratio", LOWER, Value::TimedShare("serve.snapshot")),
    layer("video.frame_series_share", "ratio", LOWER, Value::TimedShare("video.frame_series")),
    layer("model.estimate_trace_share", "ratio", LOWER, Value::TimedShare("model.estimate_trace")),
    layer("lrd.hurst_report_share", "ratio", LOWER, Value::TimedShare("lrd.hurst_report")),
    layer("lrd.robust_hurst_share", "ratio", LOWER, Value::TimedShare("lrd.robust_hurst")),
    layer("model.generate_frames_share", "ratio", LOWER, Value::TimedShare("model.generate_frames")),
    layer("model.estimate_series_share", "ratio", LOWER, Value::TimedShare("model.estimate_series")),
    layer("model.bakeoff_share", "ratio", LOWER, Value::TimedShare("model.bakeoff")),
    layer("qsim.qc_probes", "count", LOWER, Value::Count(Counter::QcProbes)),
    layer("qsim.mux_runs", "count", LOWER, Value::Count(Counter::MuxRuns)),
    layer("qsim.overflow_slots", "count", LOWER, Value::Count(Counter::QueueOverflowSlots)),
    layer("qsim.replay_mslices", "Mslices", LOWER, Value::Extra),
    layer("qsim.replay_mslices_per_s", "Mslices/s", HIGHER, Value::Extra),
    layer("fgn.stream_blocks", "count", LOWER, Value::Count(Counter::StreamBlocks)),
    layer("fgn.seam_cross_fades", "count", LOWER, Value::Count(Counter::SeamCrossFades)),
    layer("fgn.cache_miss", "count", LOWER, Value::Count(Counter::FgnCacheMiss)),
    layer("fft.plan_hit", "count", HIGHER, Value::Count(Counter::FftPlanHit)),
    layer("fft.plan_miss", "count", LOWER, Value::Count(Counter::FftPlanMiss)),
    layer("serve.fleet_slices", "count", HIGHER, Value::Count(Counter::FleetSlices)),
    layer("serve.plan_cache_contention", "count", LOWER, Value::Count(Counter::PlanCacheContention)),
    layer("serve.snapshot_mib", "MiB", LOWER, Value::Extra),
    layer("serve.snapshot_mib_per_s", "MiB/s", HIGHER, Value::Extra),
    layer("serve.restore_mib_per_s", "MiB/s", HIGHER, Value::Extra),
    layer("lrd.whittle_iterations", "count", LOWER, Value::Count(Counter::WhittleIterations)),
    layer("lrd.estimator_fallback", "count", LOWER, Value::Count(Counter::EstimatorFallback)),
    layer("fgn.cache_hit", "count", HIGHER, Value::Count(Counter::FgnCacheHit)),
    layer("fft.plan_evict", "count", LOWER, Value::Count(Counter::FftPlanEvict)),
];

impl Layer {
    fn of(&self, r: &Run) -> f64 {
        match self.value {
            Value::Of(f) => f(r),
            Value::SetupShare(span) => r.setup.share(span),
            Value::TimedShare(span) => r.timed.share(span),
            Value::Count(c) => r.out.pass.counter(c.name()) as f64,
            Value::Extra => r
                .out
                .extras
                .iter()
                .find(|(n, _)| *n == self.name)
                .map_or(0.0, |&(_, v)| v),
        }
    }
}

/// Runs one workload at its full size for `seconds`, or at toy size.
fn run_workload(name: &str, seconds: Option<u64>, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "paper_qc" => paper_qc::run(&seconds.map_or_else(paper_qc::toy, paper_qc::size), ctx),
        "stream_long" => stream_long::run(
            &seconds.map_or_else(stream_long::toy, stream_long::size),
            ctx,
        ),
        "fleet_serve" => fleet_serve::run(
            &seconds.map_or_else(fleet_serve::toy, fleet_serve::size),
            ctx,
        ),
        "model_fit" => model_fit::run(&seconds.map_or_else(model_fit::toy, model_fit::size), ctx),
        _ => return None,
    })
}

/// The result line the benchmark ends with.
fn result_json(out: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite()),
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
    list: bool,
}

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--spans DIR] [--list]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        spans: None,
        list: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans" => a.spans = Some(value()?.into()),
            "--list" => a.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name}: {why}");
    }
    println!("end-to-end metrics (--trace 0):");
    for m in &END_TO_END {
        println!(
            "  {} [{}] {} is better, bound {}",
            m.name, m.unit, m.better, m.bound
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in &PER_LAYER {
        println!("  {} [{}] {} is better", m.name, m.unit, m.better);
    }
}

/// Runs every workload in a child process of its own.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            name,
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ]);
        cmd.args(["--trace", if a.trace { "1" } else { "0" }]);
        if let Some(dir) = &a.spans {
            cmd.arg("--spans").arg(dir);
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("benchmark: {name} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("benchmark: cannot run {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.list {
        list();
        return ExitCode::SUCCESS;
    }
    let Some(name) = a.workload.as_deref() else {
        return run_all(&a);
    };
    let ctx = Ctx::new(a.seed, a.trace);
    let Some(out) = run_workload(name, Some(a.seconds), &ctx) else {
        eprintln!("benchmark: unknown workload {name}; --list shows them\n{USAGE}");
        return ExitCode::from(2);
    };
    let spans = ctx.rec.spans();
    if let Some(dir) = &a.spans {
        let path = dir.join(format!("{name}.spans.json"));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::to_json(name, &spans)))
        {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let run = Run {
        setup: spans::phase(&spans, SETUP),
        timed: spans::phase(&spans, OP),
        rss_mib: measure::peak_rss_mib().unwrap_or(0.0),
        threads: vbr_stats::par::num_threads(),
        out,
    };

    let metrics: Vec<(&str, f64, &str)> = if a.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.of(&run), m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, (m.value)(&run), m.unit))
            .collect()
    };
    let out = &run.out;
    println!("{name} seed {} -", a.seed);
    println!("{name} digest {:#018x} -", out.digest);
    println!("{name} attempted {} count", out.attempted);
    println!("{name} failed {} count", out.failed);
    println!(
        "{name} failed_frac {} ratio",
        out.failed as f64 / out.attempted as f64
    );
    for (metric, v, unit) in out.headline.iter().chain(&metrics) {
        println!("{name} {metric} {v} {unit}");
    }
    if !a.trace {
        for m in PER_LAYER
            .iter()
            .filter(|m| matches!(m.value, Value::Count(_)))
        {
            println!("{name} {} {} {}", m.name, m.of(&run), m.unit);
        }
    }
    println!("{}", result_json(out, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of `"key": ...` on a one-object-per-line JSON line.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }

    /// `(section, line)` for every object line of BENCHMARK.json's
    /// arrays, found by the hand-rolled line scan the workspace uses in
    /// place of a JSON library.
    fn bench_json_rows() -> Vec<(String, String)> {
        let mut section = String::new();
        let mut rows = Vec::new();
        for line in include_str!("../../BENCHMARK.json").lines() {
            let t = line.trim();
            if let Some(key) = t.strip_suffix(": [").and_then(|k| k.strip_prefix('"')) {
                section = key.trim_end_matches('"').to_string();
            } else if t.starts_with("{\"name\"") {
                rows.push((section.clone(), t.to_string()));
            }
        }
        rows
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let rows = bench_json_rows();
        let section = |s: &str| {
            rows.iter()
                .filter(|(k, _)| k == s)
                .map(|(_, l)| l.as_str())
                .collect::<Vec<_>>()
        };
        let workloads = section("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (line, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(line, "name"), Some(name));
            assert!(
                line.contains(&format!("\"why\": \"{why}\"")),
                "{name}: why differs"
            );
        }
        let e2e = section("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (line, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(line, "name"), Some(m.name));
            assert_eq!(field(line, "unit"), Some(m.unit), "{}", m.name);
            assert_eq!(field(line, "better"), Some(m.better), "{}", m.name);
            assert_eq!(
                field(line, "bound").and_then(|b| b.parse().ok()),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = section("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (line, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(line, "name"), Some(m.name));
            assert_eq!(field(line, "unit"), Some(m.unit), "{}", m.name);
            assert_eq!(field(line, "better"), Some(m.better), "{}", m.name);
        }
        let json = include_str!("../../BENCHMARK.json");
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    }

    /// Runs one toy-size workload. `obs` counters are process-global, so
    /// runs are serialised to keep each one's counter deltas its own.
    fn toy_run(name: &str, seed: u64, trace: bool) -> (Outcome, Vec<spans::Span>) {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let ctx = Ctx::new(seed, trace);
        let out = run_workload(name, None, &ctx).expect("known workload");
        (out, ctx.rec.spans())
    }

    /// Counter deltas that must repeat exactly for the same inputs.
    fn exact_counts(out: &Outcome) -> Vec<u64> {
        [
            Counter::QcProbes,
            Counter::MuxRuns,
            Counter::StreamBlocks,
            Counter::FleetSlices,
        ]
        .iter()
        .map(|c| out.pass.counter(c.name()))
        .collect()
    }

    #[test]
    fn toy_workloads_pass_their_checks_and_repeat() {
        for (name, _) in WORKLOADS {
            let (a, _) = toy_run(name, 3, false);
            let (b, _) = toy_run(name, 3, false);
            assert!(a.attempted >= 1, "{name}");
            assert_eq!(
                a.failed, 0,
                "{name}: failed_frac {}/{}",
                a.failed, a.attempted
            );
            assert_eq!(a.digest, b.digest, "{name}: digest differs between runs");
            assert_eq!(exact_counts(&a), exact_counts(&b), "{name}");
            assert_eq!(a.pass.op_s.len() as u64, a.attempted, "{name}");
            assert!(
                a.items > 0.0 && a.setup_s.iter().all(|&s| s > 0.0),
                "{name}"
            );
            let (c, _) = toy_run(name, 4, false);
            assert_ne!(
                a.digest, c.digest,
                "{name}: the seed does not reach the inputs"
            );
        }
    }

    #[test]
    fn toy_traced_runs_cover_their_passes() {
        for (name, _) in WORKLOADS {
            let (out, spans) = toy_run(name, 5, true);
            let timed = spans::phase(&spans, OP);
            assert!(timed.wall_ns > 0, "{name}");
            assert!(
                timed.coverage(OP) > 0.5,
                "{name}: coverage {}",
                timed.coverage(OP)
            );
            let traced: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == OP)
                .map(|s| s.op)
                .collect();
            let want: Vec<u64> = (0..out.attempted)
                .filter(|&id| harness::traced_op(id))
                .collect();
            assert_eq!(traced, want, "{name}");
            let setup = spans::phase(&spans, SETUP);
            assert!(setup.wall_ns > 0, "{name}");
            let run = Run {
                setup,
                timed,
                rss_mib: 1.0,
                threads: 1,
                out,
            };
            for m in &PER_LAYER {
                assert!(m.of(&run).is_finite(), "{name}: {} is not finite", m.name);
            }
        }
    }

    #[test]
    fn registry_names_are_unique_and_valid() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload paper_qc --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("paper_qc"), 7, 3, true)
        );
        assert_eq!(args("").unwrap().seconds, RUN_SECONDS);
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }
}
