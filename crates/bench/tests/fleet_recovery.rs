//! Fleet kill/resume drills: a whole-fleet checkpoint survives process
//! death and every file-corruption mode, and the restored fleet
//! continues the aggregate arrival sequence bit-identically.

use vbr_bench::{CheckpointStore, FaultInjector, FileCorruption, KillPoint, Recovery, TraceDigest};
use vbr_serve::{Fleet, FleetConfig, SourceModel, TenantSpec};
use vbr_stats::snapshot::{crc32, ParamHasher, SnapshotReader};

const BLOCK: usize = 16;
const SLOTS_TOTAL: u64 = 12;
const CKPT_AT: u64 = 5;

fn cfg() -> FleetConfig {
    FleetConfig::fixed(1, BLOCK, 1024)
}

fn build_fleet() -> Fleet {
    let mut fleet = Fleet::new(cfg());
    for t in 0..13u64 {
        let hurst = match t % 3 {
            0 => 0.85,
            1 => 0.7,
            _ => 0.55,
        };
        fleet
            .admit(TenantSpec {
                tenant: t,
                model: SourceModel::Fgn { hurst },
                variance: 1.0 + (t % 2) as f64,
                block: BLOCK,
                overlap: None,
                seed: t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED,
            })
            .unwrap();
    }
    fleet
}

/// Digest of slots `[from, to)` of the uninterrupted run, plus the
/// snapshot bytes taken at slot `CKPT_AT`.
fn reference_run() -> (u64, Vec<u8>) {
    let mut fleet = build_fleet();
    let mut slot = vec![0.0; BLOCK];
    let mut snapshot = None;
    let mut tail = TraceDigest::new();
    for s in 0..SLOTS_TOTAL {
        if s == CKPT_AT {
            snapshot = Some(fleet.snapshot());
        }
        fleet.advance_slot(&mut slot);
        if s >= CKPT_AT {
            tail.update(&slot);
        }
    }
    (tail.value(), snapshot.expect("checkpoint slot reached"))
}

fn decode(bytes: &[u8]) -> Result<(u64, Fleet), vbr_stats::snapshot::SnapshotError> {
    let fleet = Fleet::restore(cfg(), bytes)?;
    Ok((fleet.slots_done(), fleet))
}

/// Runs the restored fleet to `SLOTS_TOTAL` and digests the tail.
fn finish(mut fleet: Fleet) -> u64 {
    let mut slot = vec![0.0; BLOCK];
    let mut tail = TraceDigest::new();
    for _ in fleet.slots_done()..SLOTS_TOTAL {
        fleet.advance_slot(&mut slot);
        tail.update(&slot);
    }
    tail.value()
}

#[test]
fn kill_and_resume_continues_bit_identically() {
    let (want, _) = reference_run();
    let dir = std::env::temp_dir().join(format!("fleet_drill_kill_{}", std::process::id()));
    let store = CheckpointStore::new(&dir).unwrap();

    // "Crashed" producer: checkpoints at CKPT_AT, dies two slots later
    // at the kill point without checkpointing again.
    {
        let mut fleet = build_fleet();
        let mut kill = KillPoint::new(Some(CKPT_AT + 2));
        let mut slot = vec![0.0; BLOCK];
        for s in 0..SLOTS_TOTAL {
            if kill.advance(1) {
                break; // the simulated SIGKILL
            }
            if s == CKPT_AT {
                let bytes = fleet.snapshot();
                store.write_bytes(&bytes, fleet.slots_done()).unwrap();
            }
            fleet.advance_slot(&mut slot);
        }
        assert_eq!(kill.seen(), CKPT_AT + 2, "the drill must actually die mid-run");
    }

    // Survivor: recover, then continue. The two post-checkpoint slots
    // the dead process generated are regenerated identically.
    let fleet = match store.recover_with(decode) {
        Recovery::Latest { seq, state } => {
            assert_eq!(seq, CKPT_AT);
            state
        }
        other => panic!("expected a clean latest-generation recovery, got damage: {other:?}"),
    };
    assert_eq!(finish(fleet), want, "resumed fleet diverged from the uninterrupted run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_checkpoints_degrade_and_never_panic() {
    let (want, bytes) = reference_run();
    let inj = FaultInjector::new(0xD1CE);

    for (i, mode) in FileCorruption::ALL.into_iter().enumerate() {
        // Every corruption mode on the raw snapshot is a typed refusal.
        let bad = inj.apply_bytes(&bytes, mode);
        assert!(
            Fleet::restore(cfg(), &bad).is_err(),
            "corruption mode {mode:?} must not decode"
        );

        // Through the store ladder: newest generation corrupted, the
        // older intact one restores and continues bit-identically.
        let dir = std::env::temp_dir()
            .join(format!("fleet_drill_corrupt_{}_{i}", std::process::id()));
        let store = CheckpointStore::new(&dir).unwrap();
        store.write_bytes(&bytes, CKPT_AT).unwrap();
        store.write_bytes(&bad, CKPT_AT + 1).unwrap();
        match store.recover_with(decode) {
            Recovery::Previous { seq, state, damaged, refused } => {
                assert_eq!(seq, CKPT_AT);
                assert_eq!((damaged, refused), (1, 0));
                assert_eq!(finish(state), want, "fallback generation diverged ({mode:?})");
            }
            other => panic!("expected fallback to the intact generation, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `bytes` (a current fleet snapshot) under the parameter hash of the
/// `vbr-fleet/v2` layout, its file CRC recomputed: an intact file that
/// an older build wrote for the same fleet configuration.
fn v2_hashed(bytes: &[u8]) -> Vec<u8> {
    let v2_hash = ParamHasher::new()
        .str("vbr-fleet/v2")
        .usize(cfg().slot_len)
        .u64(0)
        .f64(0.5)
        .str("cap")
        .usize(cfg().max_sources)
        .finish();
    // Header: magic (8 bytes), codec version (4), parameter hash (8).
    let mut out = bytes[..bytes.len() - 4].to_vec();
    out[12..20].copy_from_slice(&v2_hash.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(SnapshotReader::open(&out).unwrap().param_hash(), v2_hash);
    out
}

#[test]
fn another_layouts_checkpoint_is_refused_and_a_flipped_byte_is_damaged() {
    let (want, bytes) = reference_run();
    let dir = std::env::temp_dir().join(format!("fleet_drill_refused_{}", std::process::id()));
    let store = CheckpointStore::new(&dir).unwrap();

    // Alone in the store: a cold start that calls it refused.
    store.write_bytes(&v2_hashed(&bytes), CKPT_AT + 1).unwrap();
    assert!(matches!(
        store.recover_with(decode),
        Recovery::ColdStart { damaged: 0, refused: 1 }
    ));

    // Beside an intact older generation: that one restores.
    store.write_bytes(&bytes, CKPT_AT).unwrap();
    match store.recover_with(decode) {
        Recovery::Previous { seq, state, damaged, refused } => {
            assert_eq!((seq, damaged, refused), (CKPT_AT, 0, 1));
            assert_eq!(finish(state), want);
        }
        other => panic!("expected fallback to the intact generation, got {other:?}"),
    }

    // One flipped byte in the newest generation is damage, not refusal.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    store.write_bytes(&flipped, CKPT_AT + 1).unwrap();
    match store.recover_with(decode) {
        Recovery::Previous { damaged, refused, .. } => assert_eq!((damaged, refused), (1, 0)),
        other => panic!("expected fallback to the intact generation, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
