//! Property tests for the fleet determinism contract: the sharded,
//! batch-packed, possibly-parallel fleet produces an aggregate arrival
//! sequence bit-identical to the same sources run as independent solo
//! circulant streams summed in admission order — at arbitrary pool
//! widths (one shard per worker), block sizes, tenant mixes (fGn and
//! fARIMA), and across snapshot/restore at another width.

use proptest::prelude::*;
use vbr_fgn::CirculantStream;
use vbr_serve::{Fleet, FleetConfig, SourceModel, TenantSpec};
use vbr_stats::par::with_threads;

fn spec(tenant: u64, hurst: f64, variance: f64, block: usize, seed: u64) -> TenantSpec {
    TenantSpec { tenant, model: SourceModel::Fgn { hurst }, variance, block, overlap: None, seed }
}

fn admit(fleet: &mut Fleet, specs: &[TenantSpec]) {
    for s in specs {
        fleet.admit(*s).expect("proptest specs are valid and under capacity");
    }
}

/// Runs `slots` lockstep slots on `threads` pinned workers (so as many
/// shards) and returns the concatenated aggregate.
fn run_fleet(specs: &[TenantSpec], threads: usize, slot_len: usize, slots: usize) -> Vec<f64> {
    with_threads(threads, || run_fleet_snapshot(specs, 0, slot_len, slots)).0
}

/// A fleet at the current pool width, where the last `late` specs join
/// after the first slot: the concatenated aggregate of `slots` slots,
/// plus the fleet's snapshot bytes after the last slot.
fn run_fleet_snapshot(
    specs: &[TenantSpec],
    late: usize,
    slot_len: usize,
    slots: usize,
) -> (Vec<f64>, Vec<u8>) {
    let mut fleet = Fleet::new(FleetConfig::fixed(1, slot_len, usize::MAX));
    let (early, late) = specs.split_at(specs.len() - late.min(specs.len()));
    admit(&mut fleet, early);
    let mut out = Vec::with_capacity(slots * slot_len);
    let mut slot = vec![0.0; slot_len];
    for i in 0..slots {
        if i == 1 {
            admit(&mut fleet, late);
        }
        fleet.advance_slot(&mut slot);
        out.extend_from_slice(&slot);
    }
    (out, fleet.snapshot())
}

/// The reference: each source as a solo stream, accumulated into the
/// aggregate in admission order (the fleet's documented addition order).
fn run_solo_sum(specs: &[TenantSpec], slot_len: usize, slots: usize) -> Vec<f64> {
    let n = slots * slot_len;
    let mut agg = vec![0.0f64; n];
    let mut buf = vec![0.0f64; n];
    for s in specs {
        let (family, hurst) = s.model.family();
        let mut stream =
            CirculantStream::try_from_family(family, hurst, s.variance, s.block, s.overlap, s.seed)
                .unwrap();
        for c in buf.chunks_mut(s.block) {
            stream.next_block(c);
        }
        for (a, &x) in agg.iter_mut().zip(&buf) {
            *a += x;
        }
    }
    agg
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.to_bits() == w.to_bits(), "{what}: bits diverge at sample {i}: {g} vs {w}");
    }
}

proptest! {
    /// Core contract: fleet at any width ≡ ordered solo sum, bitwise.
    /// `slot_len == block` so solo streams and fleet slots stay in
    /// lockstep sample-for-sample. Tenants alternate between two Hurst
    /// classes, and `family` (0 = fGn, 1 = fARIMA, 2 = mixed) picks the
    /// generator family of each class; fARIMA classes draw H ∈ [0.5, 1).
    #[test]
    fn fleet_aggregate_is_bitwise_solo_sum(
        threads in 1usize..6,
        n_sources in 1usize..24,
        block_pow in 0u32..6,
        hurst_a in 0.1f64..0.9,
        hurst_b in 0.1f64..0.9,
        slots in 1usize..8,
        seed0 in 0u64..1_000_000,
        family in 0u32..3,
    ) {
        let block = 1usize << block_pow; // includes the block==1 white-noise path
        let model = |t: u64, hurst: f64| match (family, t % 2) {
            (0, _) | (2, 0) => SourceModel::Fgn { hurst },
            _ => SourceModel::Farima { hurst: 0.5 + (hurst - 0.1) * 0.6 },
        };
        let specs: Vec<TenantSpec> = (0..n_sources as u64)
            .map(|t| {
                let h = if t % 2 == 0 { hurst_a } else { hurst_b };
                let v = 0.5 + (t % 3) as f64; // a few variance classes
                let seed = seed0.wrapping_add(t.wrapping_mul(0x9E37_79B9));
                TenantSpec { model: model(t, h), ..spec(t, h, v, block, seed) }
            })
            .collect();
        let want = run_solo_sum(&specs, block, slots);
        let got = run_fleet(&specs, threads, block, slots);
        assert_bits_eq(&got, &want, "fleet vs solo");
    }

    /// Thread-count invariance: pinning 1, 2, 3 or 4 worker threads —
    /// and with them as many shards — never changes the aggregate bits or
    /// the snapshot bytes. Pinned counts bypass the work threshold, so
    /// this covers the serial and parallel shard advance and the parallel
    /// aggregation. Groups of up to ~80 sources in 1–3 Hurst classes hold
    /// several full lane cohorts plus a remainder per shard; half-block
    /// slots with tenants joining after the first slot put group members
    /// out of phase, so the sources due a refill are a changing subset.
    #[test]
    fn thread_count_invariance(
        n_sources in 1usize..81,
        late in 0usize..41,
        classes in 1u64..4,
        block_idx in 0usize..3,
        half_slot in 0usize..3,
        hurst in 0.15f64..0.75,
        slots in 1usize..6,
    ) {
        let block = [1usize, 4, 32][block_idx];
        let slot_len = (block >> half_slot.min(1)).max(1);
        let specs: Vec<TenantSpec> = (0..n_sources as u64)
            .map(|t| spec(t, hurst + 0.05 * (t % classes) as f64, 1.0, block, t ^ 0xABCD))
            .collect();
        let run = |threads| {
            with_threads(threads, || run_fleet_snapshot(&specs, late, slot_len, slots))
        };
        let (want, want_snap) = run(1);
        for threads in 2..=4 {
            let (agg, snap) = run(threads);
            assert_bits_eq(&agg, &want, &format!("{threads} threads"));
            prop_assert!(snap == want_snap, "snapshot bytes differ at {} threads", threads);
        }
    }

    /// Snapshot/restore mid-run is invisible in the bits, at any slot
    /// boundary, with the snapshot taken at one pool width (so shard
    /// count) and restored at another: the restored fleet continues
    /// bit-identically and ends in the same snapshot bytes.
    #[test]
    fn snapshot_restore_is_bit_invisible(
        taken_at in 1usize..5,
        restored_at in 1usize..5,
        n_sources in 1usize..12,
        block_idx in 0usize..3,
        hurst in 0.15f64..0.85,
        pre in 1usize..4,
        post in 1usize..4,
    ) {
        let block = [1usize, 8, 16][block_idx];
        let specs: Vec<TenantSpec> = (0..n_sources as u64)
            .map(|t| spec(t, hurst, 1.0, block, t + 11))
            .collect();
        let mut slot = vec![0.0; block];
        let (mut fleet, bytes) = with_threads(taken_at, || {
            let mut fleet = Fleet::new(FleetConfig::fixed(1, block, usize::MAX));
            admit(&mut fleet, &specs);
            for _ in 0..pre {
                fleet.advance_slot(&mut slot);
            }
            let bytes = fleet.snapshot();
            (fleet, bytes)
        });
        let mut restored =
            with_threads(restored_at, || Fleet::restore(*fleet.config(), &bytes)).unwrap();
        let mut want = Vec::new();
        let mut got = Vec::new();
        for _ in 0..post {
            with_threads(taken_at, || fleet.advance_slot(&mut slot));
            want.extend_from_slice(&slot);
            with_threads(restored_at, || restored.advance_slot(&mut slot));
            got.extend_from_slice(&slot);
        }
        assert_bits_eq(&got, &want, "restored fleet");
        prop_assert!(restored.snapshot() == fleet.snapshot(), "final snapshot bytes differ");
    }
}
