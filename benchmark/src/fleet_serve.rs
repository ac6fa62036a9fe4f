//! `fleet_serve`: 20 000 block-16 fGn tenants in three (H, variance)
//! classes on one shard, advanced in lockstep slots with an in-memory
//! `Fleet::snapshot()` every 250 slots.
//!
//! It drives the same `vbr-fgn` layer as `stream_long` the other way
//! round: tiny windows and lane-batched cohorts across many sources, with
//! snapshot writes between slot reads. One operation is one slot; the
//! slot that closes a 250-slot epoch also writes the snapshot.
//!
//! Sizing: the fleet's state (about 5 MiB) is larger than L2 but well
//! inside the last-level cache. At 150 000 tenants (about 35 MiB) the
//! median slot time moved with the host's shared-cache load by 18–22 %
//! (interquartile range over eight runs of one commit) against 7 % at
//! 30 000 and 6 % at 8 000 in the same interleaved runs; two shards on a
//! 2-vCPU host read bimodally.

use vbr_serve::{Fleet, FleetConfig, SourceModel, TenantSpec};

use crate::harness::{Ctx, Outcome, Pass};
use crate::measure::{mix, Digest};

pub struct Size {
    pub tenants: u64,
    pub slots: u64,
    pub snapshot_every: u64,
}

const SLOT_LEN: usize = 16;
const SETUP_REPS: u64 = 9;
const MIB: f64 = 1024.0 * 1024.0;

/// About 100 slots a second on the reference host. The pass ends on a
/// snapshot, so the round-trip check restores the final state.
pub fn size(seconds: u64) -> Size {
    Size {
        tenants: 20_000,
        slots: 250 * (seconds * 2 / 5).max(1),
        snapshot_every: 250,
    }
}

pub fn toy() -> Size {
    Size {
        tenants: 600,
        slots: 8,
        snapshot_every: 4,
    }
}

fn config() -> FleetConfig {
    FleetConfig::fixed(1, SLOT_LEN, usize::MAX)
}

/// The `fleet_bench` population: three statistical classes cycled over
/// tenant ids, with per-tenant seeds derived from the run seed.
fn spec(tenant: u64, seed: u64) -> TenantSpec {
    let (hurst, variance) = match tenant % 3 {
        0 => (0.8, 1.0),
        1 => (0.7, 1.5),
        _ => (0.55, 0.75),
    };
    TenantSpec {
        tenant,
        model: SourceModel::Fgn { hurst },
        variance,
        block: SLOT_LEN,
        overlap: None,
        seed: mix(seed, tenant),
    }
}

/// A fleet and how many of its admissions were refused.
fn build(ctx: &Ctx, size: &Size, rep: u64) -> (Fleet, u64) {
    ctx.rec.span("serve.admit", rep, || {
        let mut fleet = Fleet::new(config());
        let refused = (0..size.tenants)
            .filter(|&t| fleet.admit(spec(t, ctx.seed)).is_err())
            .count();
        (fleet, refused as u64)
    })
}

#[derive(Default)]
struct Acc {
    digest: Digest,
    failed: u64,
    snapshot: Vec<u8>,
    snapshot_bytes: f64,
    snapshot_s: f64,
}

fn serve(fleet: &mut Fleet, size: &Size, pass: &Pass) -> Acc {
    let mut acc = Acc::default();
    let mut agg = vec![0.0f64; SLOT_LEN];
    for slot in 0..size.slots {
        pass.op(slot, || {
            pass.span("serve.advance_slot", slot, || fleet.advance_slot(&mut agg));
            acc.digest.f64s(&agg);
            acc.failed += u64::from(!agg.iter().all(|x| x.is_finite()));
            if (slot + 1) % size.snapshot_every == 0 {
                let t0 = std::time::Instant::now();
                acc.snapshot = pass.span("serve.snapshot", slot, || fleet.snapshot());
                acc.snapshot_s += t0.elapsed().as_secs_f64();
                acc.snapshot_bytes += acc.snapshot.len() as f64;
            }
        });
    }
    acc
}

/// Restores `snapshot`, advances it and `fleet` two more slots, and
/// compares both aggregates and the final states bit for bit. Returns
/// whether they matched and the restore time.
fn round_trip(fleet: &mut Fleet, snapshot: &[u8]) -> (bool, f64) {
    let t0 = std::time::Instant::now();
    let Ok(mut restored) = Fleet::restore(config(), snapshot) else {
        return (false, t0.elapsed().as_secs_f64());
    };
    let restore_s = t0.elapsed().as_secs_f64();
    let mut same = true;
    for _ in 0..2 {
        let (mut a, mut b) = (vec![0.0f64; SLOT_LEN], vec![0.0f64; SLOT_LEN]);
        fleet.advance_slot(&mut a);
        restored.advance_slot(&mut b);
        same &= a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits());
    }
    same &= fleet.snapshot() == restored.snapshot();
    (same, restore_s)
}

pub fn run(size: &Size, ctx: &Ctx) -> Outcome {
    let ((mut fleet, refused), setup_s) = ctx.setup(SETUP_REPS, |rep| build(ctx, size, rep));
    let (acc, pass) = ctx.pass(|p| serve(&mut fleet, size, p));
    let (same, restore_s) = round_trip(&mut fleet, &acc.snapshot);

    let source_slots = (size.tenants * size.slots) as f64;
    let snapshot_mib = acc.snapshot.len() as f64 / MIB;
    let p50_ms = crate::measure::median(&pass.op_s) * 1e3;
    Outcome {
        setup_s,
        items: source_slots,
        attempted: size.slots,
        failed: (acc.failed + u64::from(!same) + u64::from(refused > 0)).min(size.slots),
        digest: acc.digest.value(),
        extras: vec![
            ("serve.snapshot_mib", snapshot_mib),
            (
                "serve.snapshot_mib_per_s",
                acc.snapshot_bytes / MIB / acc.snapshot_s,
            ),
            ("serve.restore_mib_per_s", snapshot_mib / restore_s),
        ],
        headline: vec![
            (
                "fleet_msource_slots_per_s",
                source_slots / pass.wall_s / 1e6,
                "M/s",
            ),
            ("fleet_slot_p50_ms", p50_ms, "ms"),
        ],
        pass,
    }
}
