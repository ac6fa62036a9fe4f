//! Bounded-memory smoke test for the streaming long-trace engine.
//!
//! Generates a 16M-slice (by default) self-similar VBR trace end to end
//! — block-streamed fGn, fused Gamma/Pareto marginal transform, fluid
//! queue — and then verifies from `/proc/self/status` that the process
//! peak resident set stayed under a cap. The batch pipeline cannot run
//! this workload at all: it would hold ~0.5 GiB of circulant embedding
//! plus two 128 MiB sample vectors, and its one-piece embedding is
//! numerically non-PSD at this length anyway (catastrophic cancellation
//! in the fGn autocovariance at ~10⁷-sample lags). The streaming engine
//! keeps every window's embedding small and well-conditioned, so its
//! live state is O(block).
//!
//! CI runs this under a `ulimit -v` address-space cap as a second,
//! kernel-enforced guard; the binary's own check is on VmHWM (peak
//! resident), which is the claim DESIGN.md §10 makes.
//!
//! With `--checkpoint-every N` the run persists its full pipeline state
//! (stream seam + RNG, queue accounting, totals, trace digest) to a
//! two-generation rotated store every ~N slices; `--resume` restores the
//! newest valid checkpoint and continues **bit-identically** — the final
//! digest of a killed-and-resumed run equals the uninterrupted run's
//! (DESIGN.md §13). A damaged or mismatched checkpoint degrades to the
//! previous generation, then to a cold start with the
//! `checkpoint_fallbacks` alarm counter raised; it never panics.
//! `--kill-after-slices N` aborts the process (SIGKILL-equivalent: no
//! destructors, no atexit) once N slices have been emitted, for
//! deterministic crash drills.
//!
//! Usage: `stream_smoke [--slices N] [--cap-mib M] [--trace-json <path>]
//!   [--checkpoint-every N --checkpoint-dir <dir>] [--resume]
//!   [--kill-after-slices N] [--digest]`
//! Exit status: 0 on success, 1 on a memory-cap breach or an
//! implausible pipeline result.

use std::process::ExitCode;
use std::time::Instant;

use vbr_bench::checkpoint::{
    skipped_files, CheckpointStore, PipelineConfig, PipelineState, Recovery, TraceDigest,
};
use vbr_bench::faults::KillPoint;
use vbr_fgn::{FgnStream, MarginalTransform, TableMode};
use vbr_qsim::FluidQueue;
use vbr_stats::dist::GammaPareto;
use vbr_stats::obs::{self, Counter};

/// Streaming block (fGn window) and consumer chunk sizes. The block
/// bounds the generator's live state; the chunk is the hand-off buffer
/// between the fused transform and the queue.
const BLOCK: usize = 1 << 14;
const CHUNK: usize = 1 << 13;

fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> ExitCode {
    let mut slices: usize = 1 << 24;
    let mut cap_mib: u64 = 256;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut ckpt_every: u64 = 0;
    let mut ckpt_dir: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut kill_after: Option<u64> = None;
    let mut print_digest = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--slices" => {
                slices = args.next().and_then(|v| v.parse().ok()).expect("--slices needs a count")
            }
            "--cap-mib" => {
                cap_mib = args.next().and_then(|v| v.parse().ok()).expect("--cap-mib needs MiB")
            }
            "--trace-json" => {
                trace_out =
                    Some(std::path::PathBuf::from(args.next().expect("--trace-json needs a path")))
            }
            "--checkpoint-every" => {
                ckpt_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--checkpoint-every needs a slice count")
            }
            "--checkpoint-dir" => {
                ckpt_dir = Some(std::path::PathBuf::from(
                    args.next().expect("--checkpoint-dir needs a path"),
                ))
            }
            "--resume" => resume = true,
            "--kill-after-slices" => {
                kill_after = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--kill-after-slices needs a count"),
                )
            }
            "--digest" => print_digest = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: stream_smoke [--slices N] [--cap-mib M] [--trace-json <path>] \
                     [--checkpoint-every N --checkpoint-dir <dir>] [--resume] \
                     [--kill-after-slices N] [--digest]"
                );
                return ExitCode::from(2);
            }
        }
    }
    if (ckpt_every > 0 || resume) && ckpt_dir.is_none() {
        eprintln!("--checkpoint-every/--resume need --checkpoint-dir");
        return ExitCode::from(2);
    }
    if trace_out.is_some() {
        obs::install_collector(1 << 12);
    }

    // Paper-scale model: H = 0.8 fGn under the Table 2 Gamma/Pareto
    // marginal, slots at 30 slices per 24 fps frame.
    let config = PipelineConfig {
        hurst: 0.8,
        variance: 1.0,
        block: BLOCK,
        table_n: 10_000,
        marginal: (27_791.0, 6_254.0, 9.0),
        dt: 1.0 / (24.0 * 30.0),
        capacity_bps: 27_791.0 / (1.0 / (24.0 * 30.0)) * 1.2, // 20% headroom over mean
        buffer_bytes: 1e6,
        seed: 42,
    };
    let param_hash = config.param_hash();
    let target = GammaPareto::from_params(config.marginal.0, config.marginal.1, config.marginal.2);
    let xform = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(config.table_n));
    let dt = config.dt;

    let store = match &ckpt_dir {
        Some(dir) => match CheckpointStore::new(dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("cannot open checkpoint store {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let t0 = Instant::now();
    let run_span = obs::span("stream_smoke.run");
    let mut src = FgnStream::new(config.hurst, config.variance, config.block, config.seed);
    let mut buf = vec![0.0f64; CHUNK];
    let mut q = FluidQueue::new(config.buffer_bytes, config.capacity_bps);
    let mut total_bytes = 0.0f64;
    let mut digest = TraceDigest::new();
    let mut done: u64 = 0;
    let mut seq: u64 = 0;

    // Restore: walk the degradation ladder, then graft the recovered
    // state onto the freshly built pipeline. A state that passes the
    // codec's CRCs but fails semantic validation (hostile bytes that
    // happen to checksum) degrades to a cold start — never a panic.
    if resume {
        let recovered = match store.as_ref().expect("checked above").recover(param_hash) {
            Recovery::Latest { seq: s, state } => {
                println!("stream_smoke: resuming from checkpoint seq {s}");
                Some((s, state))
            }
            Recovery::Previous { seq: s, state, damaged, refused } => {
                eprintln!(
                    "stream_smoke: newest checkpoint skipped ({}); \
                     falling back to generation seq {s}",
                    skipped_files(damaged, refused)
                );
                Some((s, state))
            }
            Recovery::ColdStart { damaged, refused } => {
                if damaged + refused > 0 {
                    eprintln!(
                        "stream_smoke: no checkpoint restorable ({}); cold start",
                        skipped_files(damaged, refused)
                    );
                } else {
                    println!("stream_smoke: no checkpoint found; cold start");
                }
                None
            }
        };
        if let Some((s, state)) = recovered {
            match graft(&mut src, &mut q, &state) {
                Ok(()) => {
                    total_bytes = state.total_bytes;
                    digest = TraceDigest::from_value(state.digest);
                    done = state.slices_done;
                    seq = s + 1;
                    obs::counter_restore(Counter::CheckpointWrites, state.checkpoint_writes);
                }
                Err(e) => {
                    eprintln!("stream_smoke: checkpoint state rejected ({e}); cold start");
                    obs::counter_add(Counter::CheckpointFallbacks, 1);
                    src = FgnStream::new(config.hurst, config.variance, config.block, config.seed);
                    q = FluidQueue::new(config.buffer_bytes, config.capacity_bps);
                }
            }
        }
    }

    let mut kill = KillPoint::new(kill_after);
    // Pre-credit the kill point with already-done work so a drill's
    // threshold means "total slices emitted", resumed or not.
    kill.advance(done.min(kill_after.unwrap_or(u64::MAX).saturating_sub(1)));
    let mut next_ckpt = if ckpt_every > 0 { done + ckpt_every } else { u64::MAX };

    while done < slices as u64 {
        let take = (slices as u64 - done).min(buf.len() as u64) as usize;
        xform.map_block_from(&mut src, &mut buf[..take]);
        digest.update(&buf[..take]);
        // Bit-identical to the per-sample loop this replaces:
        // sum_sequential keeps strict left-to-right accumulation, and
        // step_block runs the same clamp recurrence over the chunk.
        total_bytes += vbr_stats::simd::sum_sequential(&buf[..take]);
        q.step_block(&buf[..take], dt);
        done += take as u64;
        if done >= next_ckpt {
            let state = PipelineState {
                slices_done: done,
                total_bytes,
                digest: digest.value(),
                checkpoint_writes: obs::counter_value(Counter::CheckpointWrites) + 1,
                stream: src.export_state(),
                queue: q.export_state(),
            };
            if let Err(e) = store.as_ref().expect("cadence implies store").write(
                &state, param_hash, seq,
            ) {
                eprintln!("stream_smoke: checkpoint write failed ({e}); continuing");
            } else {
                seq += 1;
            }
            next_ckpt = done + ckpt_every;
        }
        if kill.advance(take as u64) {
            eprintln!("stream_smoke: kill point reached at {done} slices; aborting");
            std::process::abort();
        }
    }
    drop(run_span);
    let secs = t0.elapsed().as_secs_f64();

    let mean_slice = total_bytes / slices as f64;
    let loss = q.loss_rate();
    println!(
        "stream_smoke: {slices} slices in {secs:.2} s ({:.1} Mslices/s), \
         mean slice {mean_slice:.0} bytes, loss rate {loss:.3e}",
        slices as f64 / secs / 1e6
    );
    if print_digest {
        println!("stream_smoke: digest {:#018x}", digest.value());
    }

    // Sanity: the marginal mean must come out near the Gamma/Pareto
    // mean (slice level ~ mu), and the queue must have seen the load.
    if !(mean_slice.is_finite() && loss.is_finite() && mean_slice > 1_000.0) {
        eprintln!("FAIL: implausible pipeline output");
        return ExitCode::FAILURE;
    }

    match vm_hwm_kib() {
        Some(kib) => {
            let cap_kib = cap_mib * 1024;
            println!("stream_smoke: peak resident {:.1} MiB (cap {cap_mib} MiB)", kib as f64 / 1024.0);
            if kib > cap_kib {
                eprintln!("FAIL: VmHWM {kib} KiB exceeds cap {cap_kib} KiB");
                return ExitCode::FAILURE;
            }
        }
        None => println!("stream_smoke: /proc/self/status unavailable; skipping resident check"),
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

/// Grafts a recovered pipeline state onto the live components. Any
/// rejection leaves both in their freshly-built condition (each
/// `restore_state` validates before mutating, and the stream is grafted
/// first), so the caller can fall back to a cold start.
fn graft(
    src: &mut FgnStream,
    q: &mut FluidQueue,
    state: &PipelineState,
) -> Result<(), vbr_stats::snapshot::SnapshotError> {
    src.restore_state(&state.stream)?;
    q.restore_state(&state.queue)?;
    Ok(())
}
