//! Fleet-serving benchmark and smoke driver: how many concurrent
//! self-similar sources can one process sustain at slice granularity?
//!
//! Builds a `vbr_serve::Fleet` with a mixed-tenant population (three
//! (H, variance) classes, so batch packing has several groups to
//! amortise spectra and FFT plans across), advances it in lockstep
//! slots, digests the aggregate arrival sequence, and verifies from
//! `/proc/self/status` that peak resident memory stayed under a cap.
//! A million block-16 sources fit comfortably under the CI 768 MiB
//! address-space ulimit: each source's live state is O(block), and the
//! spectral machinery is shared per group, not per source.
//!
//! `--mode solo` runs the *reference*: every tenant as an independent
//! solo `FgnStream`, accumulated into the aggregate in admission order.
//! Its digest is bit-identical to `--mode fleet` by the fleet's
//! ordered-aggregation contract — CI diffs the two.
//!
//! The fleet holds one shard per pool worker, so `VBR_THREADS` sets
//! the shard count; the digest is the same at every width.
//!
//! `--checkpoint-every N` persists the whole fleet through the
//! two-generation rotated `CheckpointStore`; `--resume` restores the
//! newest valid generation and continues bit-identically;
//! `--kill-after-slots N` aborts the process at a slot boundary for
//! crash drills (same KillPoint machinery as `stream_smoke`).
//!
//! Usage: see [`USAGE`].

use std::process::ExitCode;
use std::time::Instant;

use vbr_bench::checkpoint::{CheckpointStore, Recovery, TraceDigest};
use vbr_bench::faults::KillPoint;
use vbr_fgn::FgnStream;
use vbr_serve::{Fleet, FleetConfig, SourceModel, TenantSpec};
use vbr_stats::obs::{self, Counter};
use vbr_stats::snapshot::{crc32, SnapshotError};

const USAGE: &str = "usage: fleet_bench [--sources N] [--slots N] [--block B] [--cap-mib M] \
                     [--mode fleet|solo] [--digest] [--checkpoint-every N] \
                     [--checkpoint-dir <dir>] [--resume] [--kill-after-slots N]";

/// Checkpoint blob: a 12-byte digest prefix (running full-run digest +
/// its own CRC-32, so prefix corruption is a damaged generation, not a
/// silently wrong digest) followed by the self-contained fleet
/// snapshot. Lets a killed-and-resumed run finish with the *same* final
/// digest as the uninterrupted run — the contract `stream_smoke`
/// established and CI diffs.
fn encode_checkpoint(fleet: &Fleet, digest: &TraceDigest) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&digest.value().to_le_bytes());
    bytes.extend_from_slice(&crc32(&bytes[0..8]).to_le_bytes());
    bytes.extend(fleet.snapshot());
    bytes
}

fn decode_checkpoint(cfg: FleetConfig, bytes: &[u8]) -> Result<(u64, (u64, Fleet)), SnapshotError> {
    if bytes.len() < 12 {
        return Err(SnapshotError::Truncated { needed: 12, got: bytes.len() });
    }
    let stored = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let computed = crc32(&bytes[0..8]);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { what: "digest prefix", stored, computed });
    }
    let digest = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let fleet = Fleet::restore(cfg, &bytes[12..])?;
    Ok((fleet.slots_done(), (digest, fleet)))
}

fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The tenant population: three statistical classes cycled across ids,
/// seeds decorrelated by a splitmix-style multiply. Every mode and
/// every pool width sees exactly this population in this order.
fn spec_for(t: u64, block: usize) -> TenantSpec {
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

fn config(block: usize) -> FleetConfig {
    FleetConfig::fixed(1, block, usize::MAX)
}

fn build_fleet(sources: usize, block: usize) -> Fleet {
    let mut fleet = Fleet::new(config(block));
    for t in 0..sources as u64 {
        fleet.admit(spec_for(t, block)).expect("admission of a valid spec");
    }
    fleet
}

struct RunStats {
    digest: u64,
    secs: f64,
}

/// Advances `fleet` to `slots` total, digesting each aggregate slot;
/// handles the checkpoint cadence and the kill point.
#[allow(clippy::too_many_arguments)]
fn run_fleet(
    fleet: &mut Fleet,
    slots: u64,
    digest: &mut TraceDigest,
    store: Option<&CheckpointStore>,
    ckpt_every: u64,
    kill: &mut KillPoint,
) -> f64 {
    let block = fleet.config().slot_len;
    let mut agg = vec![0.0f64; block];
    let mut next_ckpt =
        if ckpt_every > 0 { fleet.slots_done() + ckpt_every } else { u64::MAX };
    let t0 = Instant::now();
    while fleet.slots_done() < slots {
        fleet.advance_slot(&mut agg);
        digest.update(&agg);
        if fleet.slots_done() >= next_ckpt {
            let store = store.expect("checkpoint cadence implies a store");
            match store.write_bytes(&encode_checkpoint(fleet, digest), fleet.slots_done()) {
                Ok(_) => {}
                Err(e) => eprintln!("fleet_bench: checkpoint write failed ({e}); continuing"),
            }
            next_ckpt = fleet.slots_done() + ckpt_every;
        }
        if kill.advance(1) {
            eprintln!(
                "fleet_bench: kill point reached at slot {}; aborting",
                fleet.slots_done()
            );
            std::process::abort();
        }
    }
    t0.elapsed().as_secs_f64()
}

/// The solo reference: every tenant as an independent stream, added
/// into the aggregate timeline in admission order — the fleet's
/// documented per-element addition order, hence the same bits.
fn run_solo(sources: usize, block: usize, slots: u64) -> RunStats {
    let n = slots as usize * block;
    let mut agg = vec![0.0f64; n];
    let mut buf = vec![0.0f64; n];
    let t0 = Instant::now();
    for t in 0..sources as u64 {
        let s = spec_for(t, block);
        let mut stream = FgnStream::try_new(s.model.hurst(), s.variance, s.block, s.seed)
            .expect("valid spec");
        for c in buf.chunks_mut(block) {
            stream.next_block(c);
        }
        for (a, &x) in agg.iter_mut().zip(&buf) {
            *a += x;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let mut digest = TraceDigest::new();
    for c in agg.chunks(block) {
        digest.update(c);
    }
    RunStats { digest: digest.value(), secs }
}

fn report(label: &str, sources: usize, block: usize, slots: u64, secs: f64) {
    let slices = sources as f64 * slots as f64 * block as f64;
    println!(
        "fleet_bench[{label}]: {sources} sources x {slots} slots x {block} = \
         {slices:.0} slices in {secs:.2} s ({:.2} Msources-slots/s, {:.1} MB/s aggregate input)",
        sources as f64 * slots as f64 / secs / 1e6,
        slices * 8.0 / secs / 1e6,
    );
}

fn main() -> ExitCode {
    let mut sources: usize = 100_000;
    let mut slots: u64 = 8;
    let mut block: usize = 16;
    let mut cap_mib: u64 = 768;
    let mut mode = String::from("fleet");
    let mut print_digest = false;
    let mut ckpt_every: u64 = 0;
    let mut ckpt_dir: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut kill_after: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sources" => {
                sources =
                    args.next().and_then(|v| v.parse().ok()).expect("--sources needs a count")
            }
            "--slots" => {
                slots = args.next().and_then(|v| v.parse().ok()).expect("--slots needs a count")
            }
            "--block" => {
                block = args.next().and_then(|v| v.parse().ok()).expect("--block needs a size")
            }
            "--cap-mib" => {
                cap_mib = args.next().and_then(|v| v.parse().ok()).expect("--cap-mib needs MiB")
            }
            "--mode" => mode = args.next().expect("--mode needs fleet|solo"),
            "--digest" => print_digest = true,
            "--checkpoint-every" => {
                ckpt_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--checkpoint-every needs a slot count")
            }
            "--checkpoint-dir" => {
                ckpt_dir = Some(std::path::PathBuf::from(
                    args.next().expect("--checkpoint-dir needs a path"),
                ))
            }
            "--resume" => resume = true,
            "--kill-after-slots" => {
                kill_after = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--kill-after-slots needs a count"),
                )
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if (ckpt_every > 0 || resume) && ckpt_dir.is_none() {
        eprintln!("--checkpoint-every/--resume need --checkpoint-dir");
        return ExitCode::from(2);
    }

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

    let final_digest = if mode == "solo" {
        let stats = run_solo(sources, block, slots);
        report("solo", sources, block, slots, stats.secs);
        stats.digest
    } else if mode == "fleet" {
        let (mut fleet, mut digest) = if resume {
            let store = store.as_ref().expect("checked above");
            match store.recover_with(|bytes| decode_checkpoint(config(block), bytes)) {
                Recovery::Latest { seq, state: (d, f) } => {
                    println!("fleet_bench: resuming from checkpoint seq {seq}");
                    (f, TraceDigest::from_value(d))
                }
                Recovery::Previous { seq, state: (d, f), damaged } => {
                    eprintln!(
                        "fleet_bench: newest checkpoint damaged ({damaged} file(s)); \
                         falling back to generation seq {seq}"
                    );
                    (f, TraceDigest::from_value(d))
                }
                Recovery::ColdStart { damaged } => {
                    if damaged > 0 {
                        eprintln!("fleet_bench: all {damaged} checkpoint file(s) damaged; cold start");
                    } else {
                        println!("fleet_bench: no checkpoint found; cold start");
                    }
                    (build_fleet(sources, block), TraceDigest::new())
                }
            }
        } else {
            let t0 = Instant::now();
            let fleet = build_fleet(sources, block);
            println!(
                "fleet_bench: admitted {} sources into {} groups in {:.2} s",
                fleet.sources(),
                fleet.groups(),
                t0.elapsed().as_secs_f64()
            );
            (fleet, TraceDigest::new())
        };
        if fleet.sources() != sources {
            eprintln!("FAIL: fleet holds {} sources, wanted {sources}", fleet.sources());
            return ExitCode::FAILURE;
        }
        let mut kill = KillPoint::new(kill_after);
        kill.advance(fleet.slots_done().min(kill_after.unwrap_or(u64::MAX).saturating_sub(1)));
        let secs =
            run_fleet(&mut fleet, slots, &mut digest, store.as_ref(), ckpt_every, &mut kill);
        report("fleet", sources, block, slots, secs);
        println!(
            "fleet_bench: slots {} slices {} admitted {} plan_cache_contention {}",
            obs::counter_value(Counter::FleetSlots),
            obs::counter_value(Counter::FleetSlices),
            obs::counter_value(Counter::FleetSourcesAdmitted),
            obs::counter_value(Counter::PlanCacheContention),
        );
        digest.value()
    } else {
        eprintln!("unknown --mode {mode} (want fleet|solo)");
        return ExitCode::from(2);
    };

    if print_digest {
        println!("fleet_bench: digest {final_digest:#018x}");
    }

    match vm_hwm_kib() {
        Some(kib) => {
            let cap_kib = cap_mib * 1024;
            println!(
                "fleet_bench: peak resident {:.1} MiB (cap {cap_mib} MiB)",
                kib as f64 / 1024.0
            );
            if kib > cap_kib {
                eprintln!("FAIL: VmHWM {kib} KiB exceeds cap {cap_kib} KiB");
                return ExitCode::FAILURE;
            }
        }
        None => println!("fleet_bench: /proc/self/status unavailable; skipping resident check"),
    }
    ExitCode::SUCCESS
}
