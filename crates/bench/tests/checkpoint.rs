//! Crash-recovery suite for the checkpoint/restore subsystem
//! (DESIGN.md §13). Three property families:
//!
//! 1. **Bit-identical resume**: killing a stream (fGn, F-ARIMA, or the
//!    single-pass mux → queue composition) at an arbitrary point,
//!    serializing its state through the snapshot wire format, and
//!    restoring into a freshly built twin reproduces the uninterrupted
//!    run bit for bit — across non-default block and overlap sizes.
//! 2. **Hostile bytes**: every file-corruption mode (truncation, torn
//!    tail, bit flips) against a real snapshot yields a typed error or
//!    a documented fallback, never a panic and never silent acceptance.
//! 3. **Store ladder**: the two-generation store walks its degradation
//!    ladder under corruption and stale-swap attacks.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use vbr_bench::checkpoint::{CheckpointStore, PipelineState, Recovery, TraceDigest};
use vbr_bench::faults::{FaultInjector, FileCorruption};
use vbr_fgn::{CirculantStream, Family, FgnStream, StreamState};
use vbr_qsim::{ArrivalCursor, CursorState, FluidQueue, LagCombination, QueueState};
use vbr_stats::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use vbr_video::{generate_screenplay, ScreenplayConfig};

/// A stream with an explicit seam overlap (H = 0.8, unit variance).
fn stream(family: Family, block: usize, overlap: usize, seed: u64) -> CirculantStream {
    CirculantStream::try_from_family(family, 0.8, 1.0, block, Some(overlap), seed)
        .expect("valid stream parameters")
}

/// Serializes a stream state through the real wire format and decodes
/// it back — the restore path a process restart actually takes.
fn wire_round_trip_stream(st: &StreamState) -> StreamState {
    let mut w = SnapshotWriter::new(0x57, 0);
    w.section(1, |p| st.encode(p));
    let bytes = w.finish();
    let mut r = SnapshotReader::open(&bytes).expect("own bytes must open");
    let mut s = r.section(1, "stream").expect("section");
    let got = StreamState::decode(&mut s).expect("decode");
    s.finish().expect("no trailing bytes");
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill an fGn stream after `pre` samples, snapshot, restore into a
    /// fresh same-config stream, finish both — bit-identical, for
    /// non-default block and overlap geometries.
    #[test]
    fn fgn_kill_restore_finish_is_bit_identical(
        block in 2usize..96,
        overlap_frac in 0.0f64..1.0,
        pre in 1usize..300,
        post in 1usize..300,
        seed in 0u64..1000,
    ) {
        let overlap = ((block as f64 * overlap_frac) as usize).min(block);
        let mut full = stream(Family::Fgn, block, overlap, seed);
        let mut want = vec![0.0f64; pre + post];
        full.next_block(&mut want);

        let mut dying = stream(Family::Fgn, block, overlap, seed);
        let mut head = vec![0.0f64; pre];
        dying.next_block(&mut head);
        prop_assert_eq!(&head[..], &want[..pre]);
        let st = wire_round_trip_stream(&dying.export_state());
        drop(dying); // the "kill": only the serialized state survives

        let mut resumed = stream(Family::Fgn, block, overlap, seed);
        resumed.restore_state(&st).expect("clean state must restore");
        let mut tail = vec![0.0f64; post];
        resumed.next_block(&mut tail);
        let want_bits: Vec<u64> = want[pre..].iter().map(|x| x.to_bits()).collect();
        let got_bits: Vec<u64> = tail.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(want_bits, got_bits);
    }

    /// Same property for the F-ARIMA stream.
    #[test]
    fn farima_kill_restore_finish_is_bit_identical(
        block in 2usize..64,
        overlap in 0usize..16,
        pre in 1usize..200,
        post in 1usize..200,
        seed in 0u64..1000,
    ) {
        let overlap = overlap.min(block);
        let mut full = stream(Family::Farima, block, overlap, seed);
        let mut want = vec![0.0f64; pre + post];
        full.next_block(&mut want);

        let mut dying = stream(Family::Farima, block, overlap, seed);
        let mut head = vec![0.0f64; pre];
        dying.next_block(&mut head);
        let st = wire_round_trip_stream(&dying.export_state());
        drop(dying);

        let mut resumed = stream(Family::Farima, block, overlap, seed);
        resumed.restore_state(&st).expect("clean state must restore");
        let mut tail = vec![0.0f64; post];
        resumed.next_block(&mut tail);
        let want_bits: Vec<u64> = want[pre..].iter().map(|x| x.to_bits()).collect();
        let got_bits: Vec<u64> = tail.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(want_bits, got_bits);
    }

    /// The single-pass mux → queue composition (what `MuxSim::run`
    /// executes per lag combination): kill at an arbitrary slot,
    /// serialize cursor + queue state, restore both, finish — final
    /// queue accounting is bit-identical to the uninterrupted sweep.
    #[test]
    fn mux_queue_kill_restore_is_bit_identical(
        n_sources in 1usize..5,
        kill_slot in 1usize..400,
        chunk in 1usize..70,
        seed in 0u64..100,
    ) {
        let trace = generate_screenplay(&ScreenplayConfig::short(50, seed));
        let n = trace.slice_bytes().len();
        let offsets: Vec<usize> = (0..n_sources).map(|i| (i * 17) % trace.frames()).collect();
        let lags = LagCombination { offsets };
        let dt = trace.slice_duration();
        let cap = 30_000.0 / dt;
        let buffer = 5_000.0;
        let kill_slot = kill_slot.min(n.saturating_sub(1)).max(1);

        // Uninterrupted single-pass sweep.
        let mut cursor = ArrivalCursor::new(&trace, &lags);
        let mut q = FluidQueue::new(buffer, cap);
        let mut buf = vec![0.0f64; chunk];
        loop {
            let k = cursor.next_block(&mut buf);
            if k == 0 { break; }
            q.step_block(&buf[..k], dt);
        }
        let want = q.export_state();

        // Killed sweep: stop at kill_slot, serialize, restore, finish.
        let mut cursor = ArrivalCursor::new(&trace, &lags);
        let mut q = FluidQueue::new(buffer, cap);
        let mut left = kill_slot;
        while left > 0 {
            let take = left.min(buf.len());
            let k = cursor.next_block(&mut buf[..take]);
            if k == 0 { break; }
            q.step_block(&buf[..k], dt);
            left -= k;
        }
        let mut w = SnapshotWriter::new(0x4D, 3);
        w.section(1, |p| cursor.export_state().encode(p));
        w.section(2, |p| q.export_state().encode(p));
        let bytes = w.finish();
        drop((cursor, q));

        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut s = r.section(1, "cursor").unwrap();
        let cst = CursorState::decode(&mut s).unwrap();
        s.finish().unwrap();
        let mut s = r.section(2, "queue").unwrap();
        let qst = QueueState::decode(&mut s).unwrap();
        s.finish().unwrap();

        let mut cursor = ArrivalCursor::new(&trace, &lags);
        cursor.restore_state(&cst).expect("cursor state");
        let mut q = FluidQueue::new(buffer, cap);
        q.restore_state(&qst).expect("queue state");
        loop {
            let k = cursor.next_block(&mut buf);
            if k == 0 { break; }
            q.step_block(&buf[..k], dt);
        }
        let got = q.export_state();
        prop_assert_eq!(got.backlog.to_bits(), want.backlog.to_bits());
        prop_assert_eq!(got.arrived.to_bits(), want.arrived.to_bits());
        prop_assert_eq!(got.lost.to_bits(), want.lost.to_bits());
        prop_assert_eq!(got.served.to_bits(), want.served.to_bits());
    }

    /// Every file-corruption mode at every seed: decoding hostile bytes
    /// is a typed error (or, vanishingly rarely for a bit flip that
    /// lands outside any checked region — impossible here since every
    /// byte is covered by a CRC — a valid state). Never a panic.
    #[test]
    fn hostile_snapshot_bytes_never_panic(seed in 0u64..200) {
        let state = sample_pipeline_state();
        let bytes = state.encode(0xC0FFEE, 5);
        let inj = FaultInjector::new(seed);
        for mode in FileCorruption::ALL {
            let bad = inj.apply_bytes(&bytes, mode);
            let out = catch_unwind(AssertUnwindSafe(|| {
                PipelineState::decode(&bad, 0xC0FFEE).err()
            }));
            let err = out.expect("decode must not panic");
            prop_assert!(err.is_some(), "{mode:?} with seed {seed} was silently accepted");
        }
    }
}

/// A realistic pipeline state captured from a short live run.
fn sample_pipeline_state() -> PipelineState {
    let mut src = FgnStream::new(0.8, 1.0, 64, 7);
    let mut buf = vec![0.0f64; 100];
    src.next_block(&mut buf);
    let mut q = FluidQueue::new(1e4, 1e6);
    let mut digest = TraceDigest::new();
    digest.update(&buf);
    let mut total = 0.0;
    for &a in &buf {
        let a = a.abs() * 1e3;
        total += a;
        q.step(a, 1e-3);
    }
    PipelineState {
        slices_done: 100,
        total_bytes: total,
        digest: digest.value(),
        checkpoint_writes: 1,
        stream: src.export_state(),
        queue: q.export_state(),
    }
}

/// Every single-byte truncation of a real snapshot is rejected with a
/// typed error — the wire format has no prefix that decodes as a valid
/// shorter snapshot.
#[test]
fn every_truncation_point_is_rejected() {
    let bytes = sample_pipeline_state().encode(0xAB, 2);
    for cut in 0..bytes.len() {
        match PipelineState::decode(&bytes[..cut], 0xAB) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {cut}/{} bytes decoded successfully", bytes.len()),
        }
    }
    // The untruncated blob still decodes (the loop above didn't pass
    // vacuously) and carries the right sequence number.
    let (seq, _) = PipelineState::decode(&bytes, 0xAB).unwrap();
    assert_eq!(seq, 2);
}

/// Restoring a snapshot from a *different* configuration is a typed
/// parameter-hash error, not a silent graft of mismatched state.
#[test]
fn cross_config_restore_is_refused() {
    let bytes = sample_pipeline_state().encode(0x1234, 0);
    assert!(matches!(
        PipelineState::decode(&bytes, 0x9999),
        Err(SnapshotError::ParamHashMismatch { stored: 0x1234, expected: 0x9999 })
    ));
    // A stream state from one geometry must not graft onto another.
    let mut src = FgnStream::new(0.8, 1.0, 64, 7);
    let mut buf = vec![0.0f64; 100];
    src.next_block(&mut buf);
    let st = src.export_state();
    let mut other = FgnStream::new(0.8, 1.0, 32, 7);
    assert!(other.restore_state(&st).is_err(), "geometry mismatch must be refused");
}

/// End-to-end store drill: write generations, kill (drop everything),
/// corrupt the newest file, recover via the ladder, resume, and land on
/// the uninterrupted run's final state bit for bit.
#[test]
fn store_ladder_resumes_bit_identically_after_corruption() {
    let dir = std::env::temp_dir().join("vbr_ckpt_ladder_it");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir).unwrap();
    let hash = 0xFEED;
    let total = 400usize;

    // Uninterrupted reference.
    let mut src = FgnStream::new(0.8, 1.0, 64, 3);
    let mut want = vec![0.0f64; total];
    src.next_block(&mut want);
    let mut ref_digest = TraceDigest::new();
    ref_digest.update(&want);

    // Checkpointed run, killed after 300 samples (two checkpoints in).
    let mut src = FgnStream::new(0.8, 1.0, 64, 3);
    let mut digest = TraceDigest::new();
    let mut emitted = 0usize;
    let mut buf = vec![0.0f64; 150];
    for seq in 0..2u64 {
        src.next_block(&mut buf);
        digest.update(&buf);
        emitted += buf.len();
        let state = PipelineState {
            slices_done: emitted as u64,
            total_bytes: 0.0,
            digest: digest.value(),
            checkpoint_writes: seq + 1,
            stream: src.export_state(),
            queue: FluidQueue::new(1.0, 1.0).export_state(),
        };
        store.write(&state, hash, seq).unwrap();
    }
    drop(src); // the kill

    // Crash damage on the newest generation (seq 1 → odd slot).
    FaultInjector::new(1)
        .corrupt_file(&store.generation_path(1), FileCorruption::TornTail)
        .unwrap();

    // Recover: ladder must fall back to seq 0 (150 samples done).
    let state = match store.recover(hash) {
        Recovery::Previous { seq, state, .. } => {
            assert_eq!(seq, 0);
            assert_eq!(state.slices_done, 150);
            state
        }
        other => panic!("expected Previous, got {other:?}"),
    };
    let mut resumed = FgnStream::new(0.8, 1.0, 64, 3);
    resumed.restore_state(&state.stream).unwrap();
    let mut digest = TraceDigest::from_value(state.digest);
    let mut tail = vec![0.0f64; total - state.slices_done as usize];
    resumed.next_block(&mut tail);
    digest.update(&tail);
    assert_eq!(digest.value(), ref_digest.value(), "resumed digest must match uninterrupted");
    let want_bits: Vec<u64> = want[150..].iter().map(|x| x.to_bits()).collect();
    let got_bits: Vec<u64> = tail.iter().map(|x| x.to_bits()).collect();
    assert_eq!(want_bits, got_bits);
    std::fs::remove_dir_all(&dir).ok();
}
