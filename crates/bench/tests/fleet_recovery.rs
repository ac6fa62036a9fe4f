//! Fleet kill/resume drills: a whole-fleet checkpoint survives process
//! death and every file-corruption mode, and the restored fleet
//! continues the aggregate arrival sequence bit-identically.

use vbr_bench::{CheckpointStore, FaultInjector, FileCorruption, KillPoint, Recovery, TraceDigest};
use vbr_serve::{Fleet, FleetConfig, SourceModel, TenantSpec};

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
            Recovery::Previous { seq, state, damaged } => {
                assert_eq!(seq, CKPT_AT);
                assert_eq!(damaged, 1);
                assert_eq!(finish(state), want, "fallback generation diverged ({mode:?})");
            }
            other => panic!("expected fallback to the intact generation, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
