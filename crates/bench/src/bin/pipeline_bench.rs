//! End-to-end performance benchmark of the estimate → generate → queue
//! pipeline, plus the serial-vs-parallel determinism gate.
//!
//! Two modes:
//!
//! - **full** (default): paper-scale workloads; writes the machine-readable
//!   report to `BENCH_pipeline.json` (override with `--out <path>`).
//! - **`--test`**: CI smoke mode — small workloads, no report file unless
//!   `--out` is given. The determinism checks always run; any divergence
//!   between serial and parallel output exits nonzero.
//!
//! `--best-of <n>` runs the whole suite `n` times and keeps the
//! per-entry minimum (see [`PerfReport::merge_min`]) — use it when
//! regenerating the checked-in reference so the file records floors.
//! `--check-against <report.json>` compares this run's per-group summed
//! secs against the reference and exits nonzero on any reference entry
//! the run does not produce or any regression past the tolerance
//! recorded in the file; on a miss the suite re-runs (up
//! to 3 passes total) and the gate judges the merged floor, so timing
//! noise cannot fail the job but a real slowdown still does.
//!
//! Observability flags:
//!
//! - **`--trace-json <path>`**: install the [`vbr_stats::obs`] span
//!   collector for the whole run and dump the span tree (plus all
//!   pipeline counters) as JSON on exit.
//! - **`--obs-check`**: standalone mode — time a representative
//!   generate → marginal → queue workload with the collector off and
//!   then on, and exit nonzero if the collector-on overhead exceeds 5%.
//! - **`--ckpt-check`**: standalone mode — time the streaming pipeline
//!   with checkpointing off and then on (1M-slice cadence into the
//!   two-generation store), and exit nonzero if the checkpointing
//!   overhead exceeds 5% (DESIGN.md §13 budget).
//!
//! The baselines are honest re-implementations of the pre-optimisation
//! code paths (the drifting-twiddle FFT kernel, the `powf`-per-frequency
//! Whittle objective, cold-plan / cold-cache calls, `with_threads(1)`
//! runs), so every `speedup` field in the report is old-vs-new on the
//! same machine and workload.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use vbr_bench::checkpoint::{CheckpointStore, PipelineState, TraceDigest};
use vbr_bench::perf::{
    check_against, rustc_version, time_median, PerfReport, REGRESSION_TOLERANCE,
};
use vbr_bench::{Corruption, FaultInjector};
use vbr_fft::{fft_pow2_in_place, reference_radix2, Complex, Direction, FftPlan};
use vbr_fgn::{BatchStream, DaviesHarte, Family, FgnStream, MarginalTransform, TableMode};
use vbr_lrd::{
    robust_hurst, whittle_objective_direct, SpectralModel, WhittleObjective,
};
use vbr_qsim::{
    aggregate_arrivals, lag_combinations, qc_curve, FluidQueue, LossMetric, LossTarget, MuxSim,
};
use vbr_serve::{Fleet, FleetConfig, SourceModel, TenantSpec};
use vbr_stats::dist::{ContinuousDist, GammaPareto};
use vbr_stats::obs;
use vbr_stats::par::{num_threads, with_threads};
use vbr_stats::periodogram::Periodogram;
use vbr_stats::rng::Xoshiro256;
use vbr_video::{generate_screenplay, generate_screenplay_batch, ScreenplayConfig};

/// Workload sizes for the two modes.
struct Sizes {
    fft_n: usize,
    whittle_n: usize,
    hurst_n: usize,
    trace_frames: usize,
    stream_n: usize,
    qc_grid: Vec<f64>,
    qc_iters: usize,
    fleet_sources: usize,
    reps: usize,
}

impl Sizes {
    fn full() -> Sizes {
        Sizes {
            fft_n: 1 << 18,
            whittle_n: 1 << 16,
            hurst_n: 65_536,
            trace_frames: 20_000,
            stream_n: 1 << 20,
            qc_grid: vec![0.0005, 0.001, 0.002, 0.005, 0.01, 0.05],
            qc_iters: 14,
            fleet_sources: 32_768,
            reps: 5,
        }
    }

    fn test() -> Sizes {
        Sizes {
            fft_n: 1 << 12,
            whittle_n: 1 << 11,
            hurst_n: 4_096,
            trace_frames: 2_000,
            stream_n: 1 << 16,
            qc_grid: vec![0.001, 0.01],
            qc_iters: 6,
            fleet_sources: 2_048,
            reps: 2,
        }
    }
}

/// One pass over every benchmark tier. `--best-of` and the regression
/// gate's retry loop fold several passes into one report with
/// [`PerfReport::merge_min`], so checked-in references and gate runs
/// both measure per-entry floors rather than single noisy samples.
fn run_suite(sizes: &Sizes) -> PerfReport {
    let mut report = PerfReport::new();
    bench_kernels(sizes, &mut report);
    bench_kernels_simd(sizes, &mut report);
    bench_kernels_wide(sizes, &mut report);
    bench_kernels_batch_fft(sizes, &mut report);
    bench_estimators(sizes, &mut report);
    bench_simulation(sizes, &mut report);
    bench_streaming(sizes, &mut report);
    bench_batch_fgn(sizes, &mut report);
    bench_checkpoint(sizes, &mut report);
    bench_fleet(sizes, &mut report);
    bench_models(sizes, &mut report);
    report
}

fn main() -> ExitCode {
    let mut test_mode = false;
    let mut obs_check = false;
    let mut ckpt_check = false;
    let mut out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut check: Option<PathBuf> = None;
    let mut best_of: usize = 1;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--test" => test_mode = true,
            "--obs-check" => obs_check = true,
            "--ckpt-check" => ckpt_check = true,
            "--out" => out = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            "--trace-json" => {
                trace_out = Some(PathBuf::from(args.next().expect("--trace-json needs a path")))
            }
            "--check-against" => {
                check = Some(PathBuf::from(args.next().expect("--check-against needs a path")))
            }
            "--best-of" => {
                best_of = args
                    .next()
                    .expect("--best-of needs a count")
                    .parse()
                    .expect("--best-of needs a positive integer");
                assert!(best_of >= 1, "--best-of needs a positive integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: pipeline_bench [--test] [--out <path>] [--best-of <n>] \
                     [--trace-json <path>] [--check-against <report.json>] \
                     [--obs-check] [--ckpt-check]"
                );
                return ExitCode::from(2);
            }
        }
    }
    if obs_check {
        return obs_overhead_check();
    }
    if ckpt_check {
        return ckpt_overhead_check();
    }
    let sizes = if test_mode { Sizes::test() } else { Sizes::full() };
    let threads = num_threads();
    println!(
        "pipeline_bench: mode={}, worker threads={threads}",
        if test_mode { "test" } else { "full" }
    );
    if trace_out.is_some() {
        // Collect spans for the whole run; counters are always on.
        obs::install_collector(1 << 13);
    }

    let divergences = check_determinism(&sizes);
    if divergences > 0 {
        eprintln!("FAIL: {divergences} serial-vs-parallel divergence(s)");
        return ExitCode::FAILURE;
    }
    println!("determinism: parallel output bit-identical to serial (threads 1/2/{threads})");

    let mut report = run_suite(&sizes);
    for _ in 1..best_of {
        report.merge_min(&run_suite(&sizes));
    }
    report.print_summary();

    if let Some(cpath) = &check {
        // The comparison is absolute wall-clock per group, so it is only
        // meaningful when this run uses the same mode (sizes/reps) and
        // host class as the run that produced the reference file — CI
        // runs the gate in full mode against the checked-in full-mode
        // report. The reference records per-entry minima (--best-of), so
        // a single noisy sample here must not fail the job: on a miss
        // the whole suite re-runs (up to `GATE_MAX_RUNS` passes total)
        // and the gate compares the merged per-entry floor. Noise-driven
        // misses vanish under the min; a real regression raises the
        // floor itself and fails every pass.
        const GATE_MAX_RUNS: usize = 3;
        let old = match std::fs::read_to_string(cpath) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {}: {e}", cpath.display());
                return ExitCode::FAILURE;
            }
        };
        println!(
            "regression gate vs {} (budget {:.0}% per group):",
            cpath.display(),
            (REGRESSION_TOLERANCE - 1.0) * 100.0
        );
        let mut runs = best_of;
        let lines = loop {
            match check_against(&old, report.entries(), REGRESSION_TOLERANCE) {
                Ok(lines) => break lines,
                Err(fails) if runs < GATE_MAX_RUNS => {
                    println!("  over budget after {runs} run(s); re-measuring:");
                    for l in &fails {
                        println!("    {l}");
                    }
                    runs += 1;
                    report.merge_min(&run_suite(&sizes));
                }
                Err(fails) => {
                    for l in fails {
                        eprintln!("  {l}");
                    }
                    eprintln!("FAIL: benchmark regression gate (min of {runs} run(s))");
                    return ExitCode::FAILURE;
                }
            }
        };
        for l in lines {
            println!("  {l}");
        }
    }

    let explicit_out = out.is_some();
    let path = out.unwrap_or_else(|| PathBuf::from("BENCH_pipeline.json"));
    // Check mode never clobbers the reference it just compared against;
    // an explicit --out still records the run.
    let write_report = if check.is_some() {
        explicit_out
    } else {
        !test_mode || path.as_os_str() != "BENCH_pipeline.json"
    };
    if write_report {
        match report.write(&path, threads, &rustc_version()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(tpath) = trace_out {
        let snap = obs::uninstall_collector().expect("collector was installed above");
        match std::fs::write(&tpath, obs::trace_json(&snap)) {
            Ok(()) => println!(
                "wrote {} ({} spans/events, {} dropped)",
                tpath.display(),
                snap.records.len(),
                snap.dropped
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", tpath.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Observability overhead gate
// ---------------------------------------------------------------------------

/// Times a representative generate → marginal → queue workload with the
/// span collector uninstalled and then installed, and fails if the
/// collector-on median exceeds the off median by more than 5% (the CI
/// ceiling; the design budget for the counters alone is ≤2% on the
/// `kernels_simd` tier).
fn obs_overhead_check() -> ExitCode {
    assert!(!obs::collector_installed(), "collector must start uninstalled");
    let target = GammaPareto::from_params(27_791.0, 6_254.0, 9.0);
    let xform = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(10_000));
    let dt = 1.0 / (24.0 * 30.0);
    let n = 1usize << 14;
    let mut workload = || {
        let gauss = DaviesHarte::new(0.8, 1.0).generate(n, 9);
        let traffic = xform.map_series(&gauss);
        let mut q = FluidQueue::new(1e6, 27_791.0 / dt * 1.2);
        let mut loss = 0.0;
        for chunk in traffic.chunks(4096) {
            loss += q.step_block(chunk, dt);
        }
        std::hint::black_box(loss);
    };
    let (warmup, reps) = (3, 15);
    let t_off = time_median(warmup, reps, &mut workload);
    obs::install_collector(1 << 13);
    let t_on = time_median(warmup, reps, &mut workload);
    obs::uninstall_collector();
    let overhead = t_on / t_off - 1.0;
    println!(
        "obs-check: collector off {t_off:.6}s, on {t_on:.6}s, overhead {:+.2}%",
        overhead * 100.0
    );
    if overhead > 0.05 {
        eprintln!("FAIL: collector-on overhead {:.2}% exceeds the 5% budget", overhead * 100.0);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Checkpoint overhead gate
// ---------------------------------------------------------------------------

/// Runs the streaming generate → marginal → queue pipeline over `n`
/// slices, checkpointing the full pipeline state every `every` slices
/// into `store` (never when `every == 0`), and returns the final queue
/// loss as a side-effect sink.
fn stream_with_checkpoints(n: usize, every: u64, store: Option<&CheckpointStore>) -> f64 {
    let block = 1usize << 14;
    let chunk = 1usize << 13;
    let target = GammaPareto::from_params(27_791.0, 6_254.0, 9.0);
    let xform = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(10_000));
    let dt = 1.0 / (24.0 * 30.0);
    let mut src = FgnStream::new(0.8, 1.0, block, 42);
    let mut buf = vec![0.0f64; chunk];
    let mut q = FluidQueue::new(1e6, 27_791.0 / dt * 1.2);
    let mut digest = TraceDigest::new();
    let mut total_bytes = 0.0f64;
    let mut done = 0u64;
    let mut seq = 0u64;
    let mut next_ckpt = if every > 0 { every } else { u64::MAX };
    while done < n as u64 {
        let take = (n as u64 - done).min(buf.len() as u64) as usize;
        xform.map_block_from(&mut src, &mut buf[..take]);
        digest.update(&buf[..take]);
        total_bytes += vbr_stats::simd::sum_sequential(&buf[..take]);
        q.step_block(&buf[..take], dt);
        done += take as u64;
        if done >= next_ckpt {
            let state = PipelineState {
                slices_done: done,
                total_bytes,
                digest: digest.value(),
                checkpoint_writes: seq + 1,
                stream: src.export_state(),
                queue: q.export_state(),
            };
            store
                .expect("cadence implies store")
                .write(&state, 0xBE7C, seq)
                .expect("checkpoint write");
            seq += 1;
            next_ckpt = done + every;
        }
    }
    q.loss_rate()
}

/// Times the streaming loop with checkpointing off and on in strictly
/// alternating pairs and returns `(t_off, t_on, overhead)`, where the
/// overhead is the median of per-pair on/off time ratios. Pairing makes
/// the estimate robust to minutes-scale load drift on a shared host,
/// which a median over two separately-timed blocks is not: the real
/// cost of a checkpoint write here is ~1 ms (128 KiB + fsync), far
/// below the run-to-run CPU jitter of the 0.4 s compute arm.
fn ckpt_paired_overhead(
    n: usize,
    every: u64,
    store: &CheckpointStore,
    warmup: usize,
    reps: usize,
) -> (f64, f64, f64) {
    for _ in 0..warmup {
        std::hint::black_box(stream_with_checkpoints(n, 0, None));
        std::hint::black_box(stream_with_checkpoints(n, every, Some(store)));
    }
    let mut offs = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    for rep in 0..reps {
        // Alternate which arm runs first so a periodic external stall
        // (cgroup throttling, a neighbor tenant) cannot phase-lock onto
        // one arm and masquerade as checkpoint overhead.
        let time_arm = |on: bool| {
            let t0 = Instant::now();
            if on {
                std::hint::black_box(stream_with_checkpoints(n, every, Some(store)));
            } else {
                std::hint::black_box(stream_with_checkpoints(n, 0, None));
            }
            t0.elapsed().as_secs_f64()
        };
        let (off, on) = if rep % 2 == 0 {
            let off = time_arm(false);
            (off, time_arm(true))
        } else {
            let on = time_arm(true);
            (time_arm(false), on)
        };
        offs.push(off);
        ratios.push(on / off);
    }
    let med = |v: &mut [f64]| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let t_off = med(&mut offs);
    let ratio = med(&mut ratios);
    (t_off, t_off * ratio, ratio - 1.0)
}

/// Times the streaming pipeline with checkpointing off and on at a
/// 1M-slice cadence, and fails if the checkpointing overhead exceeds
/// the 5% DESIGN.md §13 budget. Up to three trials: a trial that lands
/// inside the budget passes immediately, so a transient load spike on
/// the runner cannot flake the job, while a real regression (which
/// inflates every trial) still fails.
fn ckpt_overhead_check() -> ExitCode {
    let n: usize = 4 << 20; // 4 Mi slices → 4 checkpoints at the 1M cadence
    let every: u64 = 1 << 20;
    let dir = std::env::temp_dir().join("vbr_ckpt_gate");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir).expect("temp checkpoint store");
    let mut overhead = f64::INFINITY;
    for trial in 0..3 {
        let warmup = if trial == 0 { 1 } else { 0 };
        let (t_off, t_on, oh) = ckpt_paired_overhead(n, every, &store, warmup, 7);
        println!(
            "ckpt-check: checkpointing off {t_off:.6}s, on {t_on:.6}s ({} writes/run), \
             overhead {:+.2}% (trial {})",
            n as u64 / every,
            oh * 100.0,
            trial + 1
        );
        overhead = overhead.min(oh);
        if overhead <= 0.05 {
            break;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    if overhead > 0.05 {
        eprintln!(
            "FAIL: checkpointing overhead {:.2}% exceeds the 5% budget",
            overhead * 100.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Determinism gate
// ---------------------------------------------------------------------------

/// Runs every parallelized stage at 1, 2 and `num_threads()` workers and
/// counts stages whose output is not bit-identical across thread counts.
fn check_determinism(sizes: &Sizes) -> usize {
    let thread_grid = [1usize, 2, num_threads().max(4)];
    let mut divergences = 0;

    // Estimation: the full ensemble on a clean LRD series.
    let xs = DaviesHarte::new(0.8, 1.0).generate(sizes.hurst_n, 11);
    let hurst_sig = |t: usize| {
        with_threads(t, || {
            let r = robust_hurst(&xs).expect("clean series must estimate");
            let mut sig: Vec<u64> = r.estimates.iter().map(|&(_, h)| h.to_bits()).collect();
            sig.push(r.hurst.to_bits());
            sig
        })
    };
    divergences += compare_across("robust_hurst", &thread_grid, hurst_sig);

    // Estimation under injected faults: degraded output (including which
    // estimators failed) must not depend on the thread count.
    let inj = FaultInjector::new(99);
    let bad = inj.apply(&xs, Corruption::NegateRun);
    let fault_sig = |t: usize| {
        with_threads(t, || match robust_hurst(&bad) {
            Ok(r) => {
                let mut sig: Vec<String> =
                    r.estimates.iter().map(|(k, h)| format!("{k:?}:{:016x}", h.to_bits())).collect();
                sig.extend(r.failures.iter().map(|(k, e)| format!("{k:?}:{e:?}")));
                sig
            }
            Err(e) => vec![format!("err:{e:?}")],
        })
    };
    divergences += compare_across("robust_hurst_faulted", &thread_grid, fault_sig);

    // Generation: the multi-source screenplay batch.
    let configs = vec![
        ScreenplayConfig::short(sizes.trace_frames / 2, 1),
        ScreenplayConfig::short(sizes.trace_frames / 2, 2),
        ScreenplayConfig::short(sizes.trace_frames / 2, 3),
    ];
    let batch_sig = |t: usize| with_threads(t, || generate_screenplay_batch(&configs));
    divergences += compare_across("screenplay_batch", &thread_grid, batch_sig);

    // Queueing: MuxSim metrics and a Q-C sweep.
    let trace = generate_screenplay(&ScreenplayConfig::short(sizes.trace_frames, 4));
    let sim = MuxSim::new(&trace, 3, 5);
    let cap = sim.mean_rate() * 1.2;
    let run_sig = |t: usize| {
        with_threads(t, || {
            let l = sim.run(cap, 0.002 * cap);
            (l.p_l.to_bits(), l.p_wes.to_bits())
        })
    };
    divergences += compare_across("mux_run", &thread_grid, run_sig);

    let qc_sig = |t: usize| {
        with_threads(t, || {
            qc_curve(&sim, &sizes.qc_grid, LossTarget::Rate(1e-2), LossMetric::Overall, sizes.qc_iters)
                .iter()
                .map(|p| p.capacity_per_source.to_bits())
                .collect::<Vec<u64>>()
        })
    };
    divergences += compare_across("qc_curve", &thread_grid, qc_sig);

    // Fleet serving: the sharded lockstep aggregate (parallel shard
    // advance + parallel slot aggregation) across worker counts.
    let fleet_specs: Vec<TenantSpec> = (0..96u64).map(|t| fleet_spec(t, 16)).collect();
    let fleet_sig = |t: usize| {
        with_threads(t, || {
            let mut fleet = Fleet::new(FleetConfig::fixed(4, 16, usize::MAX));
            for s in &fleet_specs {
                fleet.admit(*s).expect("determinism specs are valid");
            }
            let mut slot = vec![0.0f64; 16];
            let mut sig = Vec::with_capacity(4 * 16);
            for _ in 0..4 {
                fleet.advance_slot(&mut slot);
                sig.extend(slot.iter().map(|x| x.to_bits()));
            }
            sig
        })
    };
    divergences += compare_across("fleet_slot", &thread_grid, fleet_sig);

    divergences
}

/// Evaluates `f` at each thread count and reports whether all results match.
fn compare_across<T: PartialEq + std::fmt::Debug>(
    what: &str,
    grid: &[usize],
    f: impl Fn(usize) -> T,
) -> usize {
    let reference = f(grid[0]);
    for &t in &grid[1..] {
        let got = f(t);
        if got != reference {
            eprintln!("divergence in {what}: threads={} differs from threads={}", t, grid[0]);
            return 1;
        }
    }
    0
}

// ---------------------------------------------------------------------------
// Kernels tier
// ---------------------------------------------------------------------------

/// The pre-optimisation radix-2 kernel: twiddles accumulated by repeated
/// multiplication (`w *= wlen`) and recomputed on every call. Kept here
/// verbatim as the honest baseline for the plan-table kernel.
fn legacy_fft_pow2(data: &mut [Complex], dir: Direction) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::ONE;
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

fn bench_kernels(sizes: &Sizes, report: &mut PerfReport) {
    let n = sizes.fft_n;
    let mut rng = Xoshiro256::seed_from_u64(1);
    let input: Vec<Complex> =
        (0..n).map(|_| Complex::from_re(rng.standard_normal())).collect();

    // Legacy accumulating kernel vs the plan-table kernel (cache warm).
    let mut buf = input.clone();
    let t_legacy = time_median(1, sizes.reps, || {
        buf.copy_from_slice(&input);
        legacy_fft_pow2(&mut buf, Direction::Forward);
    });
    let t_plan = time_median(1, sizes.reps, || {
        buf.copy_from_slice(&input);
        fft_pow2_in_place(&mut buf, Direction::Forward);
    });
    report.record_vs(
        "kernels",
        "fft_legacy_vs_plan_table",
        t_legacy,
        t_plan,
        (1, sizes.reps),
        &format!("radix-2 forward FFT, n={n}; baseline recomputes twiddles by accumulation every call"),
    );

    // Cold plan construction vs the cached-plan hit for repeated sizes.
    let t_cold = time_median(1, sizes.reps, || {
        buf.copy_from_slice(&input);
        let plan = FftPlan::new(n);
        plan.process(&mut buf, Direction::Forward);
    });
    let t_cached = time_median(1, sizes.reps, || {
        buf.copy_from_slice(&input);
        let plan = vbr_fft::plan_for(n);
        plan.process(&mut buf, Direction::Forward);
    });
    report.record_vs(
        "kernels",
        "fft_plan_cold_vs_cached",
        t_cold,
        t_cached,
        (1, sizes.reps),
        &format!("same-size repeated FFT, n={n}; baseline rebuilds bit-rev + twiddle tables per call"),
    );

    // Davies-Harte with a cold spectrum cache vs the memoized path.
    let gen_n = sizes.whittle_n;
    let mut h_step = 0u64;
    let t_cold_gen = time_median(1, sizes.reps, || {
        // A fresh H each call defeats the (H, m) memo key, forcing the
        // full ACVF + eigenvalue-FFT rebuild the cache normally skips.
        h_step += 1;
        let h = 0.8 + (h_step as f64) * 1e-12;
        DaviesHarte::new(h, 1.0).generate(gen_n, 7);
    });
    let warm = DaviesHarte::new(0.8, 1.0);
    warm.generate(gen_n, 7);
    let t_warm_gen = time_median(1, sizes.reps, || {
        warm.generate(gen_n, 7);
    });
    report.record_vs(
        "kernels",
        "davies_harte_cold_vs_memoized",
        t_cold_gen,
        t_warm_gen,
        (1, sizes.reps),
        &format!("fGn generation, n={gen_n}; baseline rebuilds the circulant spectrum every call"),
    );
}

// ---------------------------------------------------------------------------
// SIMD-kernels tier: each vectorised hot loop against the verbatim
// pre-optimisation scalar path it replaced.
// ---------------------------------------------------------------------------

/// The pre-batch inverse normal CDF: Acklam's rational approximation
/// followed by one Halley refinement against the library `norm_cdf`.
/// Kept verbatim as the baseline for the blocked AS241 quantile kernel.
fn legacy_norm_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    let e = vbr_stats::norm_cdf(x) - p;
    let u = e / vbr_stats::norm_pdf(x);
    x - u / (1.0 + x * u / 2.0)
}

/// The pre-slopes marginal table: grid lookup, knot walk, and the
/// division-form interpolation `t[i] + frac * (t[i+1] - t[i])` with
/// `frac = (z - zk[i]) / (zk[i+1] - zk[i])` per sample. Rebuilt from
/// the public quantile functions with the same knot layout the
/// transform uses.
struct LegacyTableTransform {
    table: Vec<f64>,
    zknots: Vec<f64>,
    zgrid: Vec<u32>,
    zgrid_lo: f64,
    zgrid_inv_step: f64,
}

impl LegacyTableTransform {
    fn new(target: &GammaPareto, n: usize) -> Self {
        let (table, zknots): (Vec<f64>, Vec<f64>) = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                (target.quantile(u), vbr_stats::norm_quantile(u))
            })
            .unzip();
        let (lo, hi) = (zknots[0], zknots[n - 1]);
        let cells = 2 * n;
        let step = (hi - lo) / cells as f64;
        let mut zgrid = Vec::with_capacity(cells);
        let mut i = 0u32;
        for g in 0..cells {
            let edge = lo + g as f64 * step;
            while (i as usize + 1) < n && zknots[i as usize + 1] <= edge {
                i += 1;
            }
            zgrid.push(i);
        }
        LegacyTableTransform { table, zknots, zgrid, zgrid_lo: lo, zgrid_inv_step: 1.0 / step }
    }

    fn map(&self, z: f64) -> f64 {
        let (t, zk) = (&self.table, &self.zknots);
        let n = t.len();
        if z <= zk[0] {
            t[0]
        } else if z >= zk[n - 1] {
            t[n - 1]
        } else {
            let g = ((z - self.zgrid_lo) * self.zgrid_inv_step) as usize;
            let mut i = self.zgrid[g.min(self.zgrid.len() - 1)] as usize;
            while zk[i + 1] < z {
                i += 1;
            }
            let frac = (z - zk[i]) / (zk[i + 1] - zk[i]);
            t[i] + frac * (t[i + 1] - t[i])
        }
    }
}

fn bench_kernels_simd(sizes: &Sizes, report: &mut PerfReport) {
    let n = sizes.stream_n;

    // Bulk standard-normal generation: one sample at a time through the
    // Acklam+Halley inverse CDF, vs the batched uniform fill + blocked
    // AS241 quantile kernel.
    let mut buf = vec![0.0f64; n];
    let t_scalar_normal = time_median(1, sizes.reps, || {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for x in buf.iter_mut() {
            *x = legacy_norm_quantile(rng.open01());
        }
        std::hint::black_box(buf[n - 1]);
    });
    let t_batch_normal = time_median(1, sizes.reps, || {
        let mut rng = Xoshiro256::seed_from_u64(11);
        rng.fill_standard_normal(&mut buf);
        std::hint::black_box(buf[n - 1]);
    });
    report.record_vs(
        "kernels_simd",
        "bulk_normal_acklam_vs_batch_as241",
        t_scalar_normal,
        t_batch_normal,
        (1, sizes.reps),
        &format!(
            "{n} standard normals; baseline is the per-sample Acklam inverse CDF with a \
             Halley step (norm_cdf + norm_pdf per draw), new path fills uniforms then runs \
             the blocked AS241 quantile kernel"
        ),
    );

    // FFT butterflies: the stage-by-stage radix-2 scalar twin vs the
    // radix-4 SoA kernel, both on precomputed plan tables.
    let fft_n = sizes.fft_n;
    let mut rng = Xoshiro256::seed_from_u64(12);
    let input: Vec<Complex> =
        (0..fft_n).map(|_| Complex::from_re(rng.standard_normal())).collect();
    let mut cbuf = input.clone();
    let plan = vbr_fft::plan_for(fft_n);
    let t_radix2 = time_median(1, sizes.reps, || {
        cbuf.copy_from_slice(&input);
        reference_radix2(&mut cbuf, Direction::Forward);
    });
    let t_radix4 = time_median(1, sizes.reps, || {
        cbuf.copy_from_slice(&input);
        plan.process(&mut cbuf, Direction::Forward);
    });
    report.record_vs(
        "kernels_simd",
        "fft_radix2_scalar_vs_radix4_soa",
        t_radix2,
        t_radix4,
        (1, sizes.reps),
        &format!(
            "forward FFT, n={fft_n}; baseline is the scalar radix-2 twin (tabulated \
             twiddles), new kernel runs radix-4 butterflies over split re/im twiddle tables"
        ),
    );

    // Marginal transform: division-form per-sample table walk vs the
    // slope-table blocked kernel.
    let target = GammaPareto::from_params(27_791.0, 6_254.0, 9.0);
    let xform = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(10_000));
    let legacy = LegacyTableTransform::new(&target, 10_000);
    let mut rng = Xoshiro256::seed_from_u64(13);
    let gauss: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
    let t_walk = time_median(1, sizes.reps, || {
        buf.copy_from_slice(&gauss);
        for x in buf.iter_mut() {
            *x = legacy.map(*x);
        }
        std::hint::black_box(buf[n - 1]);
    });
    let t_blocked = time_median(1, sizes.reps, || {
        buf.copy_from_slice(&gauss);
        xform.map_inplace(&mut buf);
        std::hint::black_box(buf[n - 1]);
    });
    report.record_vs(
        "kernels_simd",
        "marginal_table_walk_vs_blocked",
        t_walk,
        t_blocked,
        (1, sizes.reps),
        &format!(
            "{n} samples through the 10000-point Gamma/Pareto table; baseline interpolates \
             with a division per sample, blocked kernel uses precomputed slopes in \
             4-lane chunks"
        ),
    );

    // FIFO recurrence: per-slot `step` calls vs the block pass that
    // pre-aggregates arrivals and runs the clamp recurrence over a slice.
    let dt = 1.0 / (24.0 * 30.0);
    let cap = 27_791.0 / dt * 1.2;
    let arrivals: Vec<f64> = gauss.iter().map(|g| g.abs() * 1e4).collect();
    let t_step = time_median(1, sizes.reps, || {
        let mut q = FluidQueue::new(1e6, cap);
        let mut loss = 0.0;
        for &a in &arrivals {
            loss += q.step(a, dt);
        }
        std::hint::black_box(loss);
    });
    let t_block = time_median(1, sizes.reps, || {
        let mut q = FluidQueue::new(1e6, cap);
        let mut loss = 0.0;
        for chunk in arrivals.chunks(4096) {
            loss += q.step_block(chunk, dt);
        }
        std::hint::black_box(loss);
    });
    report.record_vs(
        "kernels_simd",
        "queue_scalar_step_vs_step_block",
        t_step,
        t_block,
        (1, sizes.reps),
        &format!(
            "{n}-slot FIFO recurrence; baseline calls step() per slot, block path \
             aggregates arrivals in vectorizable passes and runs the scalar clamp \
             recurrence over 4096-slot chunks"
        ),
    );
}

// ---------------------------------------------------------------------------
// Real-FFT tier: the half-size-complex real FFT against the full-complex
// Hermitian synthesis it replaced. Outputs are bit-identical by
// construction (see DESIGN.md §16); only the wall clock differs. The
// group keeps its historical `kernels_wide` name so the checked-in
// reference still gates it.
// ---------------------------------------------------------------------------

fn bench_kernels_wide(sizes: &Sizes, report: &mut PerfReport) {
    // Hermitian synthesis — the Davies–Harte hot path: full-length
    // complex FFT over the mirrored spectrum (the pre-real-FFT code)
    // vs the half-size-complex RealFftPlan kernel.
    let fft_n = sizes.fft_n;
    let half = fft_n / 2;
    let mut rng = Xoshiro256::seed_from_u64(23);
    let mut half_spec: Vec<Complex> = (0..=half)
        .map(|_| Complex::new(rng.standard_normal(), rng.standard_normal()))
        .collect();
    half_spec[0] = Complex::from_re(half_spec[0].re);
    half_spec[half] = Complex::from_re(half_spec[half].re);
    let plan = vbr_fft::real_plan_for(fft_n);
    let mut full = vec![Complex::ZERO; fft_n];
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let t_full = time_median(1, sizes.reps, || {
        full[..=half].copy_from_slice(&half_spec);
        for k in 1..half {
            full[fft_n - k] = half_spec[k].conj();
        }
        fft_pow2_in_place(&mut full, Direction::Forward);
        out.clear();
        out.extend(full.iter().map(|c| c.re));
        std::hint::black_box(out[fft_n - 1]);
    });
    let t_half = time_median(1, sizes.reps, || {
        plan.synthesize_hermitian(&half_spec, &mut out, &mut scratch);
        std::hint::black_box(out[fft_n - 1]);
    });
    report.record_vs(
        "kernels_wide",
        "hermitian_synthesis_full_complex_vs_half",
        t_full,
        t_half,
        (1, sizes.reps),
        &format!(
            "n={fft_n} real samples from a Hermitian half-spectrum; baseline mirrors the \
             spectrum and runs a full-length complex FFT, new path folds into one \
             half-length transform (the Davies-Harte synthesis kernel)"
        ),
    );
}

/// The §16 lane-parallel batch kernels: l = LANES sources per call,
/// lane-interleaved SoA, bit-identical per lane to the scalar plan.
/// Baselines run the same work as l scalar calls.
fn bench_kernels_batch_fft(sizes: &Sizes, report: &mut PerfReport) {
    let l = vbr_fft::LANES;
    // A fleet-shaped transform size: small enough that per-call
    // overhead matters, which is exactly what lane batching amortises.
    let n = (sizes.fft_n >> 4).max(16);
    let plan = vbr_fft::plan_for(n);
    let mut rng = Xoshiro256::seed_from_u64(31);
    let signals: Vec<Vec<Complex>> = (0..l)
        .map(|_| (0..n).map(|_| Complex::new(rng.standard_normal(), rng.standard_normal())).collect())
        .collect();
    let mut interleaved = vec![Complex::ZERO; n * l];
    for (v, sig) in signals.iter().enumerate() {
        for (j, &z) in sig.iter().enumerate() {
            interleaved[j * l + v] = z;
        }
    }
    let mut solo = vec![Complex::ZERO; n];
    let mut batch = vec![Complex::ZERO; n * l];
    let reps = sizes.reps * 4;
    let t_scalar = time_median(1, reps, || {
        for sig in &signals {
            solo.copy_from_slice(sig);
            plan.forward(&mut solo);
            std::hint::black_box(solo[n - 1]);
        }
    });
    let t_lanes = time_median(1, reps, || {
        batch.copy_from_slice(&interleaved);
        plan.forward_lanes(&mut batch, l);
        std::hint::black_box(batch[n * l - 1]);
    });
    report.record_vs(
        "kernels_batch_fft",
        "fft_scalar_loop_vs_lanes",
        t_scalar,
        t_lanes,
        (1, reps),
        &format!(
            "{l} forward transforms of n={n}; baseline loops the scalar radix-4 plan, \
             new path one lane-interleaved forward_lanes call (bits identical per lane)"
        ),
    );

    // The Davies-Harte hot kernel, fleet shape: l Hermitian syntheses.
    let half = n / 2;
    let rplan = vbr_fft::real_plan_for(n);
    let spectra: Vec<Vec<Complex>> = (0..l)
        .map(|_| {
            let mut hs: Vec<Complex> = (0..=half)
                .map(|_| Complex::new(rng.standard_normal(), rng.standard_normal()))
                .collect();
            hs[0] = Complex::from_re(hs[0].re);
            hs[half] = Complex::from_re(hs[half].re);
            hs
        })
        .collect();
    let mut half_il = vec![Complex::ZERO; (half + 1) * l];
    for (v, hs) in spectra.iter().enumerate() {
        for (k, &z) in hs.iter().enumerate() {
            half_il[k * l + v] = z;
        }
    }
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    let t_scalar = time_median(1, reps, || {
        for hs in &spectra {
            rplan.synthesize_hermitian(hs, &mut out, &mut scratch);
            std::hint::black_box(out[n - 1]);
        }
    });
    let (mut out_l, mut scratch_l) = (Vec::new(), Vec::new());
    let t_lanes = time_median(1, reps, || {
        rplan.synthesize_hermitian_lanes(&half_il, &mut out_l, &mut scratch_l, l);
        std::hint::black_box(out_l[n * l - 1]);
    });
    report.record_vs(
        "kernels_batch_fft",
        "hermitian_synthesis_scalar_loop_vs_lanes",
        t_scalar,
        t_lanes,
        (1, reps),
        &format!(
            "{l} Hermitian syntheses of n={n}; baseline loops the scalar kernel, \
             new path one synthesize_hermitian_lanes pass over interleaved bins"
        ),
    );
}

// ---------------------------------------------------------------------------
// Estimators tier
// ---------------------------------------------------------------------------

fn bench_estimators(sizes: &Sizes, report: &mut PerfReport) {
    let xs = DaviesHarte::new(0.8, 1.0).generate(sizes.whittle_n, 3);
    let pg = Periodogram::compute(&xs);

    // The golden-section search evaluates the objective ~200 times; time
    // that many evaluations the old way (powf + ln per frequency, every
    // evaluation) against the precomputed-table path.
    let d_grid: Vec<f64> = (0..200).map(|i| 0.001 + 0.498 * i as f64 / 199.0).collect();
    for model in [SpectralModel::Farima, SpectralModel::Fgn] {
        let t_direct = time_median(1, sizes.reps, || {
            let mut acc = 0.0;
            for &d in &d_grid {
                acc += whittle_objective_direct(&pg, model, d);
            }
            assert!(acc.is_finite());
        });
        let t_fast = time_median(1, sizes.reps, || {
            let obj = WhittleObjective::new(&pg, model);
            let mut acc = 0.0;
            for &d in &d_grid {
                acc += obj.eval(d);
            }
            assert!(acc.is_finite());
        });
        report.record_vs(
            "estimators",
            &format!("whittle_objective_{model:?}_direct_vs_fast").to_lowercase(),
            t_direct,
            t_fast,
            (1, sizes.reps),
            &format!(
                "200 objective evaluations (one search), n={}; fast path includes table build",
                sizes.whittle_n
            ),
        );
    }

    // Ensemble estimator dispatch. The old scheduler forked the worker
    // pool for every ensemble regardless of size; the recorded bench
    // showed that running 0.90x vs serial at n = 65536 (spawn/join tax
    // on millisecond-scale work). The baseline reproduces that dispatch
    // by pinning the pool to 4 workers (a pinned thread count bypasses
    // the work-size threshold); the new path lets `par_map_sized`
    // choose, which at this work size (4n < 2^19) is the serial lane.
    let ens_n = (sizes.hurst_n / 64).max(256);
    let hs = DaviesHarte::new(0.8, 1.0).generate(ens_n, 5);
    let t_forced = time_median(2, sizes.reps.max(9), || {
        with_threads(4, || {
            for _ in 0..4 {
                robust_hurst(&hs).expect("estimation");
            }
        });
    });
    let t_auto = time_median(2, sizes.reps.max(9), || {
        for _ in 0..4 {
            robust_hurst(&hs).expect("estimation");
        }
    });
    report.record_vs(
        "estimators",
        "robust_hurst_forced_parallel_vs_auto",
        t_forced,
        t_auto,
        (2, sizes.reps.max(9)),
        &format!(
            "4 calls, 4-member ensemble, n={ens_n}; baseline pins a 4-worker pool (the old \
             always-fork scheduler, one spawn/join per call), auto applies the \
             par_map_sized work threshold"
        ),
    );
}

// ---------------------------------------------------------------------------
// Simulation tier
// ---------------------------------------------------------------------------

fn bench_simulation(sizes: &Sizes, report: &mut PerfReport) {
    let trace = generate_screenplay(&ScreenplayConfig::short(sizes.trace_frames, 6));
    let n_sources = 3usize;
    let seed = 7u64;
    let sim = MuxSim::new(&trace, n_sources, seed);
    let cap = sim.mean_rate() * 1.2;
    let buffer = 0.002 * cap;
    let dt = sim.dt();
    let slots = trace.slice_bytes().len();
    let slots_per_sec = (1.0 / dt).round() as usize;

    // One mux experiment, set up and run once — the pre-streaming
    // pipeline materialized every combination's aggregate arrival
    // series at construction (6 x slots x 8 bytes) and then replayed
    // the vectors; the streaming path regenerates arrivals through
    // per-source wrap cursors in cache-sized chunks. Both sides include
    // construction (rate summaries) and one full run with the
    // worst-second bookkeeping, so the comparison is end to end.
    let min_sep = 1000.min(trace.frames() / (2 * n_sources));
    let t_materialized = time_median(1, sizes.reps, || {
        let combos = lag_combinations(n_sources, trace.frames(), min_sep, seed);
        let aggregates: Vec<Vec<f64>> =
            combos.iter().map(|c| aggregate_arrivals(&trace, c)).collect();
        // Rate summaries, as the old constructor derived them.
        let total0: f64 = aggregates[0].iter().sum();
        let mean = total0 / (slots as f64 * dt);
        let peak = aggregates
            .iter()
            .flat_map(|a| a.iter().copied())
            .fold(0.0f64, f64::max)
            / dt;
        std::hint::black_box((mean, peak));
        let mut p_l = 0.0;
        let mut p_wes = 0.0;
        for agg in &aggregates {
            let mut q = FluidQueue::new(buffer, cap);
            let mut worst = 0.0f64;
            let mut win_loss = 0.0;
            let mut win_arr = 0.0;
            for (i, &a) in agg.iter().enumerate() {
                win_loss += q.step(a, dt);
                win_arr += a;
                if (i + 1) % slots_per_sec == 0 || i + 1 == agg.len() {
                    if win_arr > 0.0 {
                        worst = worst.max(win_loss / win_arr);
                    }
                    win_loss = 0.0;
                    win_arr = 0.0;
                }
            }
            p_l += q.loss_rate();
            p_wes += worst;
        }
        std::hint::black_box((p_l, p_wes));
    });
    let t_streaming = time_median(1, sizes.reps, || {
        let s = MuxSim::new(&trace, n_sources, seed);
        std::hint::black_box(s.run(cap, buffer));
    });
    report.record_vs(
        "simulation",
        "mux_run_materialized_vs_streaming",
        t_materialized,
        t_streaming,
        (1, sizes.reps),
        &format!(
            "6 lag combinations x {slots} slots, construction + one run; baseline materializes \
             every aggregate series (pre-streaming MuxSim), new path streams wrap cursors"
        ),
    );

    // One Q-C point each at N = 3 (six lag combinations interleaved per
    // pass) and at N = 1 (one combination: the widest tree).
    bench_qc_search(sizes, &sim, "qc_search_scalar_vs_speculative", report);
    let sim1 = MuxSim::new(&trace, 1, seed);
    bench_qc_search(sizes, &sim1, "qc_search_scalar_vs_speculative_n1", report);

    // One 8-lane pass over the six lag combinations at N = 20, one
    // worker. The baseline replays each combination alone, summing its
    // 20 sources per slot in f64; the new path interleaves three
    // combinations per pass and sums sources in exact u32 batches.
    let sim20 = MuxSim::new(&trace, 20, seed);
    let caps: [f64; 8] = std::array::from_fn(|l| sim20.mean_rate() * (1.02 + 0.04 * l as f64));
    let bufs = caps.map(|c| 0.002 * c);
    let grouped = || with_threads(1, || sim20.run_lanes(&caps, &bufs));
    let lane_bits = |losses: &[vbr_qsim::AveragedLoss; 8]| {
        losses.map(|l| (l.p_l.to_bits(), l.p_wes.to_bits(), l.overflow_slots))
    };
    assert_eq!(
        lane_bits(&per_combo_mux_pass(&sim20, &caps, &bufs)),
        lane_bits(&grouped()),
        "grouped mux pass drifted"
    );
    let t_per_combo = time_median(1, sizes.reps, || {
        std::hint::black_box(per_combo_mux_pass(&sim20, &caps, &bufs));
    });
    let t_grouped = time_median(1, sizes.reps, || {
        std::hint::black_box(grouped());
    });
    report.record_vs(
        "simulation",
        "mux_pass_grouped_n20",
        t_per_combo,
        t_grouped,
        (1, sizes.reps),
        &format!(
            "one 8-lane pass at N = 20, 6 lag combinations x {slots} slots, 1 worker; baseline \
             replays one combination at a time with per-source f64 sums, new path interleaves \
             3 combinations per pass over exact u32 source sums (bit-identical losses)"
        ),
    );

    // Small-batch screenplay generation: the regime where the recorded
    // bench showed the always-fork scheduler 0.88x vs serial. Baseline
    // forces the old dispatch through a pinned 4-worker pool; the new
    // path lets the work threshold route small batches serially.
    let small_frames = (sizes.trace_frames / 2000).max(10);
    let configs: Vec<ScreenplayConfig> =
        (0..4).map(|i| ScreenplayConfig::short(small_frames, 20 + i)).collect();
    generate_screenplay_batch(&configs); // warm spectrum caches
    let t_batch_forced = time_median(2, sizes.reps.max(9), || {
        with_threads(4, || {
            for _ in 0..8 {
                std::hint::black_box(generate_screenplay_batch(&configs));
            }
        });
    });
    let t_batch_auto = time_median(2, sizes.reps.max(9), || {
        for _ in 0..8 {
            std::hint::black_box(generate_screenplay_batch(&configs));
        }
    });
    report.record_vs(
        "simulation",
        "screenplay_batch_forced_parallel_vs_auto",
        t_batch_forced,
        t_batch_auto,
        (2, sizes.reps.max(9)),
        &format!(
            "8 batches of 4 sources x {small_frames} frames; baseline pins a 4-worker pool \
             (old always-fork scheduler), auto applies the par_map_sized work threshold"
        ),
    );
}

/// Queue state of eight `(C, Q)` lanes fed by one combination.
#[derive(Default)]
struct EightLanes {
    backlog: [f64; 8],
    lost: [f64; 8],
    win_loss: [f64; 8],
    worst: [f64; 8],
    overflow: [u64; 8],
    arrived: f64,
    win_arr: f64,
}

impl EightLanes {
    /// One run of the clamp recurrence, in `FluidQueue::step_block` op
    /// order per lane.
    #[inline(always)]
    fn step_run_body(&mut self, service: &[f64; 8], buffer: &[f64; 8], run: &[f64]) {
        let (service, buffer) = (*service, *buffer);
        let (mut backlog, mut lost, mut overflow) = (self.backlog, self.lost, self.overflow);
        let mut arrived = self.arrived;
        let mut run_loss = [0.0f64; 8];
        let mut run_arr = 0.0f64;
        for &a in run {
            arrived += a;
            run_arr += a;
            for l in 0..8 {
                let unserved = (backlog[l] + a - service[l]).max(0.0);
                let loss = (unserved - buffer[l]).max(0.0);
                backlog[l] = unserved - loss;
                lost[l] += loss;
                run_loss[l] += loss;
                overflow[l] += (loss > 0.0) as u64;
            }
        }
        (self.backlog, self.lost, self.overflow, self.arrived) = (backlog, lost, overflow, arrived);
        for (w, r) in self.win_loss.iter_mut().zip(run_loss) {
            *w += r;
        }
        self.win_arr += run_arr;
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn step_run_avx2(&mut self, service: &[f64; 8], buffer: &[f64; 8], run: &[f64]) {
        self.step_run_body(service, buffer, run);
    }

    fn step_run(&mut self, service: &[f64; 8], buffer: &[f64; 8], run: &[f64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the running CPU has AVX2.
            unsafe { self.step_run_avx2(service, buffer, run) };
            return;
        }
        self.step_run_body(service, buffer, run);
    }
}

/// One Q-C point: the capacity bisection on `sim`. The baseline is the
/// one-probe-per-replay loop on the public one-lane `run`; the new path
/// decides `log2(lanes)` levels per shared arrival pass through the
/// lane-batched queue kernel, with the lane count set by the CPU and the
/// combinations per pass. Both return the same capacity bits.
fn bench_qc_search(sizes: &Sizes, sim: &MuxSim, name: &str, report: &mut PerfReport) {
    let (t_max, target, metric) = (0.002, LossTarget::Rate(1e-3), LossMetric::Overall);
    let scalar_search = || {
        let mut lo = sim.mean_rate();
        let mut hi = sim.peak_slot_rate().max(lo * 1.001);
        for _ in 0..sizes.qc_iters {
            let mid = 0.5 * (lo + hi);
            if sim.run(mid, t_max * mid).p_l <= 1e-3 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };
    let speculative = || sim.required_capacity(t_max, target, metric, sizes.qc_iters);
    assert_eq!(scalar_search().to_bits(), speculative().to_bits(), "speculative bisection drifted");
    let t_scalar = time_median(1, sizes.reps, || {
        std::hint::black_box(scalar_search());
    });
    let t_speculative = time_median(1, sizes.reps, || {
        std::hint::black_box(speculative());
    });
    report.record_vs(
        "simulation",
        name,
        t_scalar,
        t_speculative,
        (1, sizes.reps),
        &format!(
            "{} bisection levels at N = {}, {} lag combination(s) x {} slots; baseline replays \
             once per probe through MuxSim::run, new path decides log2(lanes) levels per shared \
             arrival pass, 8 lanes, or 16 (interleaved combinations) / 32 (one) with AVX-512 \
             (bit-identical capacity)",
            sizes.qc_iters,
            sim.n_sources(),
            sim.combos().len(),
            sim.trace().slice_bytes().len(),
        ),
    );
}

/// [`MuxSim::run_lanes`] as one combination per pass with per-source
/// `f64` aggregation: the baseline of `mux_pass_grouped_n20`.
fn per_combo_mux_pass(
    sim: &MuxSim,
    caps: &[f64; 8],
    bufs: &[f64; 8],
) -> [vbr_qsim::AveragedLoss; 8] {
    let trace = sim.trace();
    let slices = trace.slice_bytes();
    let n = slices.len();
    let dt = sim.dt();
    let sps = (1.0 / dt).round() as usize;
    let service = caps.map(|c| c * dt);
    let mut sums = [(0.0f64, 0.0f64, 0u64); 8];
    for combo in sim.combos() {
        let mut cursors: Vec<usize> =
            combo.offsets.iter().map(|&o| (o * trace.slices_per_frame()) % n).collect();
        let mut q = EightLanes::default();
        let mut block = [0.0f64; 4096];
        let mut fed = 0;
        while fed < n {
            let take = block.len().min(n - fed);
            let out = &mut block[..take];
            out.fill(0.0);
            for c in &mut cursors {
                let mut filled = 0;
                while filled < take {
                    let run = (take - filled).min(n - *c);
                    vbr_stats::simd::accumulate_u32(
                        &mut out[filled..filled + run],
                        &slices[*c..*c + run],
                    );
                    *c = (*c + run) % n;
                    filled += run;
                }
            }
            let mut pos = 0;
            while pos < take {
                let run = (take - pos).min(sps - fed % sps);
                q.step_run(&service, bufs, &out[pos..pos + run]);
                pos += run;
                fed += run;
                if fed % sps == 0 || fed == n {
                    for l in 0..8 {
                        if q.win_arr > 0.0 {
                            q.worst[l] = q.worst[l].max(q.win_loss[l] / q.win_arr);
                        }
                        q.win_loss[l] = 0.0;
                    }
                    q.win_arr = 0.0;
                }
            }
        }
        for (s, l) in sums.iter_mut().zip(0..8) {
            s.0 += if q.arrived > 0.0 { q.lost[l] / q.arrived } else { 0.0 };
            s.1 += q.worst[l];
            s.2 += q.overflow[l];
        }
    }
    let k = sim.combos().len() as f64;
    sums.map(|(p_l, p_wes, overflow_slots)| vbr_qsim::AveragedLoss {
        p_l: p_l / k,
        p_wes: p_wes / k,
        overflow_slots,
    })
}

// ---------------------------------------------------------------------------
// Streaming tier
// ---------------------------------------------------------------------------

/// Long-trace generation: the batch pipeline vs the block-streaming
/// engine, one-shot. Every call uses a fresh Hurst value so both sides
/// pay their spectrum construction — the scenario the streaming engine
/// exists for is generating *one* long trace, not re-sampling a cached
/// model. The batch side builds (and FFTs) a `2n`-point circulant
/// embedding and holds the full Gaussian and traffic vectors; the
/// stream side windows the embedding at `2 x block` points and never
/// holds more than a block.
fn bench_streaming(sizes: &Sizes, report: &mut PerfReport) {
    let n = sizes.stream_n;
    let block = 1usize << 14;
    let chunk = 1usize << 13;
    // Paper-scale Gamma/Pareto marginal (Table 2 parameters).
    let target = GammaPareto::from_params(27_791.0, 6_254.0, 9.0);
    let xform = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(10_000));
    let dt = 1.0 / (24.0 * 30.0);
    // The batch side's wall time wobbles ±30% on a shared host (each
    // one-shot call allocates ~50 MiB of embedding and series buffers,
    // so page-fault pressure varies run to run); a warmed median over
    // several reps keeps the recorded ratio representative.
    let reps = sizes.reps.max(7);

    let mut h_step = 0u64;
    let mut fresh_h = move || {
        h_step += 1;
        0.8 + h_step as f64 * 1e-9
    };

    // Generate + marginal-transform only.
    let t_gen_batch = time_median(1, reps, || {
        let h = fresh_h();
        let gauss = DaviesHarte::new(h, 1.0).generate(n, 42);
        let traffic = xform.map_series(&gauss);
        std::hint::black_box(traffic.len());
    });
    let t_gen_stream = time_median(1, reps, || {
        let h = fresh_h();
        let mut src = FgnStream::new(h, 1.0, block, 42);
        let mut buf = vec![0.0f64; chunk];
        let mut acc = 0.0;
        let mut left = n;
        while left > 0 {
            let take = left.min(buf.len());
            xform.map_block_from(&mut src, &mut buf[..take]);
            acc += buf[take - 1];
            left -= take;
        }
        std::hint::black_box(acc);
    });
    report.record_vs(
        "streaming",
        "generate_marginal_batch_vs_stream",
        t_gen_batch,
        t_gen_stream,
        (1, reps),
        &format!(
            "one-shot fGn -> Gamma/Pareto traffic, n={n}, fresh (H, n) per call; baseline \
             builds a {}-point embedding and two n-vectors, stream windows {}-point \
             embeddings in {block}-sample blocks",
            2 * n,
            2 * block
        ),
    );

    // Full pipeline: generate -> marginal transform -> fluid queue.
    let t_e2e_batch = time_median(1, reps, || {
        let h = fresh_h();
        let gauss = DaviesHarte::new(h, 1.0).generate(n, 42);
        let traffic = xform.map_series(&gauss);
        let mut q = FluidQueue::new(1e6, 27_791.0 / dt * 1.2);
        for &a in &traffic {
            q.step(a, dt);
        }
        std::hint::black_box(q.loss_rate());
    });
    let t_e2e_stream = time_median(1, reps, || {
        let h = fresh_h();
        let mut src = FgnStream::new(h, 1.0, block, 42);
        let mut buf = vec![0.0f64; chunk];
        let mut q = FluidQueue::new(1e6, 27_791.0 / dt * 1.2);
        let mut left = n;
        while left > 0 {
            let take = left.min(buf.len());
            xform.map_block_from(&mut src, &mut buf[..take]);
            q.step_block(&buf[..take], dt);
            left -= take;
        }
        std::hint::black_box(q.loss_rate());
    });
    report.record_vs(
        "streaming",
        "pipeline_batch_vs_stream",
        t_e2e_batch,
        t_e2e_stream,
        (1, reps),
        &format!(
            "one-shot generate -> transform -> queue, n={n}, fresh (H, n) per call; stream \
             peak live state is one {block}-sample block + one {chunk}-sample chunk"
        ),
    );
}

// ---------------------------------------------------------------------------
// Batch-generation tier: B independent FgnStreams vs one BatchStream over a
// shared spectrum. Draw sequences are bit-identical source for source
// (asserted below); what the batch buys is one circulant spectrum + one
// FFT plan + one scratch window for the whole fleet instead of per
// stream, which shows up as construction time and resident memory, not
// per-sample throughput.
// ---------------------------------------------------------------------------

fn bench_batch_fgn(sizes: &Sizes, report: &mut PerfReport) {
    let n_sources = 16usize;
    let block = 1usize << 12;
    let per_source = (sizes.stream_n / n_sources).max(block);
    let rounds = per_source / block;
    let seeds: Vec<u64> = (0..n_sources as u64).map(|i| 100 + i).collect();
    let reps = sizes.reps.max(7);

    // One-time bit-identity assertion so the timing below is provably
    // comparing equal work: batch source i == independent stream i.
    {
        let mut batch = BatchStream::try_new(Family::Fgn, 0.8, 1.0, block, None, &seeds).expect("valid params");
        let mut a = vec![0.0f64; block];
        let mut b = vec![0.0f64; block];
        for (i, &seed) in seeds.iter().enumerate() {
            let mut solo = FgnStream::new(0.8, 1.0, block, seed);
            batch.next_block(i, &mut a);
            solo.next_block(&mut b);
            assert_eq!(a, b, "batch source {i} diverged from its independent stream");
        }
    }

    // Fresh H per call so both sides pay spectrum construction — the
    // scenario batching exists for (spinning up a multiplexer's worth of
    // sources), not re-sampling a cached model.
    let mut h_step = 0u64;
    let mut fresh_h = move || {
        h_step += 1;
        0.8 + h_step as f64 * 1e-9
    };
    let mut buf = vec![0.0f64; block];
    let t_independent = time_median(1, reps, || {
        let h = fresh_h();
        let mut streams: Vec<FgnStream> =
            seeds.iter().map(|&s| FgnStream::new(h, 1.0, block, s)).collect();
        let mut acc = 0.0;
        for _ in 0..rounds {
            for s in streams.iter_mut() {
                s.next_block(&mut buf);
                acc += buf[block - 1];
            }
        }
        std::hint::black_box(acc);
    });
    let t_batch = time_median(1, reps, || {
        let h = fresh_h();
        let mut batch = BatchStream::try_new(Family::Fgn, h, 1.0, block, None, &seeds)
            .expect("valid params");
        let mut acc = 0.0;
        for _ in 0..rounds {
            for i in 0..n_sources {
                batch.next_block(i, &mut buf);
                acc += buf[block - 1];
            }
        }
        std::hint::black_box(acc);
    });
    report.record_vs(
        "batch_fgn",
        "independent_streams_vs_batch",
        t_independent,
        t_batch,
        (1, reps),
        &format!(
            "{n_sources} sources x {per_source} samples, fresh H per call, draws \
             bit-identical source for source; baseline holds {n_sources} FgnStreams \
             (spectrum Arc-shared via cache, per-stream scratch), batch shares one \
             spectrum + one scratch window"
        ),
    );
}

// ---------------------------------------------------------------------------
// Checkpoint tier
// ---------------------------------------------------------------------------

/// Durable-checkpoint overhead on the streaming pipeline: the same
/// generate → transform → queue loop with checkpointing off (baseline)
/// and on. Full mode uses the production cadence (one snapshot per
/// 1M slices over a 4M-slice run); test mode shrinks the run but keeps
/// four snapshots so the write path is exercised. The DESIGN.md §13
/// budget — and the CI `--ckpt-check` gate — is ≤5% overhead, i.e. a
/// speedup field of ≥0.95 here.
fn bench_checkpoint(sizes: &Sizes, report: &mut PerfReport) {
    let (n, every) = if sizes.stream_n >= (4 << 20) / 4 {
        (4usize << 20, 1u64 << 20)
    } else {
        (sizes.stream_n, (sizes.stream_n as u64 / 4).max(1))
    };
    let dir = std::env::temp_dir().join("vbr_ckpt_bench");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir).expect("temp checkpoint store");
    let reps = sizes.reps.max(7);
    let (t_off, t_on, _) = ckpt_paired_overhead(n, every, &store, 1, reps);
    std::fs::remove_dir_all(&dir).ok();
    report.record_vs(
        "checkpoint",
        "stream_pipeline_ckpt_off_vs_on",
        t_off,
        t_on,
        (1, reps),
        &format!(
            "streaming generate -> transform -> queue over {n} slices, {} durable \
             checkpoint(s) at a {every}-slice cadence (two-generation store, \
             fsync + rename per write); budget is <=5% overhead (speedup >= 0.95)",
            n as u64 / every
        ),
    );
}

// ---------------------------------------------------------------------------
// Fleet tier
// ---------------------------------------------------------------------------

/// A representative multi-tenant spec mix: three (H, variance) service
/// classes, so the fleet packs tenants into three batch groups per shard.
fn fleet_spec(t: u64, block: usize) -> TenantSpec {
    let (hurst, variance) = match t % 3 {
        0 => (0.8, 1.0),
        1 => (0.7, 1.5),
        _ => (0.55, 0.75),
    };
    TenantSpec {
        tenant: t,
        model: SourceModel::Fgn { hurst },
        variance,
        block,
        overlap: None,
        seed: t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF1EE7,
    }
}

/// Sharded fleet serving: admit `fleet_sources` tenants and advance them
/// in lockstep slice-slots. The baseline is the naive serving loop — the
/// same tenant set as independent solo `FgnStream`s, summed in admission
/// order. The fleet packs tenants sharing (model, H, variance, block)
/// into shared-spectrum batch groups and spreads groups across shards;
/// a second entry records the 1 → 4 shard lockstep time (the parallel
/// win on multi-core hosts). Both comparisons are construction-inclusive
/// — spinning the fleet up is part of the serving cost — and gated on a
/// one-time bit-identity check so the timings provably compare equal
/// work.
fn bench_fleet(sizes: &Sizes, report: &mut PerfReport) {
    let block = 16usize;
    let slots = 8usize;
    let n = sizes.fleet_sources;
    let reps = sizes.reps.max(5);
    let specs: Vec<TenantSpec> = (0..n as u64).map(|t| fleet_spec(t, block)).collect();

    let run_fleet = |shards: usize| -> u64 {
        let mut fleet = Fleet::new(FleetConfig::fixed(shards, block, usize::MAX));
        for s in &specs {
            fleet.admit(*s).expect("bench specs are valid and under capacity");
        }
        let mut slot = vec![0.0f64; block];
        let mut digest = TraceDigest::new();
        for _ in 0..slots {
            fleet.advance_slot(&mut slot);
            digest.update(&slot);
        }
        digest.value()
    };
    let run_solo = || -> u64 {
        let mut streams: Vec<FgnStream> = specs
            .iter()
            .map(|s| FgnStream::new(s.model.hurst(), s.variance, s.block, s.seed))
            .collect();
        let mut agg = vec![0.0f64; block];
        let mut buf = vec![0.0f64; block];
        let mut digest = TraceDigest::new();
        for _ in 0..slots {
            agg.fill(0.0);
            for s in streams.iter_mut() {
                s.next_block(&mut buf);
                for (a, &x) in agg.iter_mut().zip(&buf) {
                    *a += x;
                }
            }
            digest.update(&agg);
        }
        digest.value()
    };

    // One-time bit-identity assertion: the fleet's aggregate equals the
    // ordered solo sum at every shard count, so the timings below are
    // the same arrival sequence produced three ways.
    let want = run_solo();
    assert_eq!(run_fleet(1), want, "1-shard fleet diverged from the solo sum");
    assert_eq!(run_fleet(4), want, "4-shard fleet diverged from the solo sum");

    let t_solo = time_median(1, reps, || {
        std::hint::black_box(run_solo());
    });
    let t_fleet = time_median(1, reps, || {
        std::hint::black_box(run_fleet(4));
    });
    report.record_vs(
        "fleet",
        "solo_streams_vs_fleet",
        t_solo,
        t_fleet,
        (1, reps),
        &format!(
            "{n} tenants x {slots} lockstep slots of {block} slices, 3 service \
             classes; baseline holds {n} independent FgnStreams and sums in \
             admission order, fleet packs tenants into shared-spectrum batch \
             groups across 4 shards; aggregates verified bit-identical first"
        ),
    );

    let t_shard1 = time_median(1, reps, || {
        std::hint::black_box(run_fleet(1));
    });
    let t_shard4 = time_median(1, reps, || {
        std::hint::black_box(run_fleet(4));
    });
    report.record_vs(
        "fleet",
        "fleet_shard1_vs_shard4",
        t_shard1,
        t_shard4,
        (1, reps),
        &format!(
            "same {n}-tenant fleet advanced with 1 vs 4 shards (shards run on \
             the par worker pool; scaling shows on multi-core hosts, digest is \
             shard-count-invariant everywhere)"
        ),
    );
}

// ---------------------------------------------------------------------------
// Model zoo tier
// ---------------------------------------------------------------------------

/// Per-family generation throughput through the common [`TrafficModel`]
/// seam: fit the three-model zoo once from a screenplay reference, then
/// time each family producing `hurst_n` samples. No baseline — these
/// entries pin absolute generation cost per family so a fitting or
/// synthesis regression in any one model shows up in the gate.
fn bench_models(sizes: &Sizes, report: &mut PerfReport) {
    let n = sizes.hurst_n;
    let trace =
        generate_screenplay(&ScreenplayConfig::short(sizes.trace_frames, 7)).frame_series();
    let est = vbr_model::estimate_series(&trace, &vbr_model::EstimateOptions::default());
    let mut zoo = vbr_model::model_zoo(&trace, &est.params, 42);
    for model in zoo.iter_mut() {
        let name = model.name().replace('-', "_");
        let entry = model.snapshot(0);
        let t = time_median(1, sizes.reps, || {
            model.restore(&entry).expect("own snapshot restores");
            let xs = model.sample_series(n);
            std::hint::black_box(xs.len());
        });
        report.record(
            "models",
            &format!("generate_{name}"),
            t,
            (1, sizes.reps),
            &format!("{n} samples via sample_series, snapshot-restored to a fixed state first"),
        );
    }
}
