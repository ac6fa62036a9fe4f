//! The fleet: admission control, lockstep slots over one shard per pool
//! worker, and whole-fleet snapshots.
//!
//! # Placement
//!
//! A fleet built or restored while the `vbr_stats::par` pool is K
//! workers wide holds K shards and deals sources to them round-robin in
//! admission order: the i-th admitted source is local source `i / K` of
//! shard `i % K`. Placement is therefore computed, never stored. A shard
//! holds one batch group per group key the fleet has seen, indexed by
//! the key's fleet-wide group id (its position in first-admission
//! order), the `(source, row)` list each group advances, and the slot
//! buffer its sources render into, row per local source.
//!
//! # Determinism
//!
//! The aggregate arrival sequence is **bit-identical** at any pool
//! width, hence any shard count. Two facts carry the proof:
//!
//! 1. Generation is the only parallel work that touches sources —
//!    shards advance on pool workers, each writing its own slot buffer
//!    — and each source's draws depend only on its own state. So which
//!    shard, group slot or worker holds a source cannot change its
//!    samples (the `BatchStream` interleaving guarantee).
//! 2. Aggregation walks the sources in **admission order**,
//!    accumulating each source's row into the slot aggregate, whatever
//!    shard holds it. Parallel aggregation splits *slot positions* (not
//!    sources) across workers, and every worker walks all sources in
//!    order for its positions, so the per-element addition order is
//!    again unchanged.
//!
//! Hence a fleet at any width ≡ the ordered sum of solo streams,
//! bitwise — which is exactly what the serve proptests check. The
//! snapshot names no shard (group keys, then every source's group and
//! state in admission order), so its bytes are width-independent too,
//! and a fleet checkpointed at one width restores at another.
//!
//! # Admission
//!
//! A [`TenantSpec`] is placed or rejected, with a typed error: a
//! duplicate tenant id, a fleet already holding
//! [`max_sources`](FleetConfig::max_sources) sources, or parameters that
//! cannot build a generator. A caller that wants a model-driven cap
//! computes it first (for example `vbr_qsim::admit_by_norros(..)
//! .max_sources`) and passes it as `max_sources`.

use crate::tenant::{GroupKey, TenantId, TenantSpec};
use std::collections::{HashMap, HashSet};
use vbr_fgn::{BatchStream, FgnError, StreamState};
use vbr_stats::obs::{self, Counter};
use vbr_stats::par::{num_threads, par_for_each_mut, sized_width};
use vbr_stats::snapshot::{ParamHasher, SnapshotError, SnapshotReader, SnapshotWriter};

/// Section tag of the fleet snapshot ("FLET").
const TAG_FLEET: u32 = 0x464C_4554;

/// Fleet-wide configuration, fixed at construction. Hashed into every
/// snapshot so a restore into a differently-configured fleet is a typed
/// refusal, not silent corruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Samples each source renders per slot.
    pub slot_len: usize,
    /// Largest total source count the fleet will hold.
    pub max_sources: usize,
}

impl FleetConfig {
    /// `slot_len` samples per slot and at most `max_sources` sources.
    ///
    /// The first argument is ignored. It was the shard count, which is
    /// now the pool width (one shard per worker, see [`Fleet::new`]); it
    /// stays so that callers written against the three-argument form
    /// still compile.
    pub fn fixed(_ignored: usize, slot_len: usize, max_sources: usize) -> FleetConfig {
        FleetConfig { slot_len, max_sources }
    }

    /// FNV-1a digest of every configuration field and the snapshot
    /// layout version, for the snapshot header. A snapshot in an older
    /// layout (`v1`: one section per shard; `v2`: deadline, overrun and
    /// policy fields) is refused as a hash mismatch.
    pub fn param_hash(&self) -> u64 {
        ParamHasher::new()
            .str("vbr-fleet/v3")
            .usize(self.slot_len)
            .usize(self.max_sources)
            .finish()
    }
}

/// Why a spec was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The spec's parameters cannot build a generator (bad H, bad
    /// geometry, non-PSD fARIMA embedding…).
    Invalid(FgnError),
    /// The fleet refused the spec (duplicate id or full fleet).
    Rejected {
        /// What the fleet objected to.
        reason: &'static str,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Invalid(e) => write!(f, "invalid tenant spec: {e}"),
            AdmitError::Rejected { reason } => write!(f, "admission rejected: {reason}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// The sources one pool worker advances. See the [module docs](self).
#[derive(Debug)]
struct Shard {
    /// Batch group per fleet group id, with the `(source in group, row)`
    /// pairs it advances each slot.
    groups: Vec<(BatchStream, Vec<(usize, usize)>)>,
    /// Local source → (group id, source index in the group).
    layout: Vec<(u32, u32)>,
    /// `layout.len() × slot_len` samples, row per local source.
    slot_buf: Vec<f64>,
    slot_len: usize,
}

impl Shard {
    fn sources(&self) -> usize {
        self.layout.len()
    }

    /// Appends a source to group `g` as the next local source and
    /// returns its index in the group.
    fn push(&mut self, g: usize, seed: u64, tenant: TenantId) -> usize {
        let (batch, rows) = &mut self.groups[g];
        let s = batch.push_source(seed, tenant);
        rows.push((s, self.layout.len()));
        self.layout.push((g as u32, s as u32));
        self.slot_buf.resize(self.layout.len() * self.slot_len, 0.0);
        s
    }

    /// Renders `slot_len` samples of every source into the slot buffer,
    /// one lockstep [`advance_rows`](BatchStream::advance_rows) call per
    /// group. Pure generation: no cross-shard reads, no aggregation.
    fn advance_slot(&mut self) {
        for (batch, rows) in &mut self.groups {
            if !rows.is_empty() {
                batch.advance_rows(self.slot_len, &mut self.slot_buf, rows);
            }
        }
    }

    /// The samples local source `local` rendered in the current slot.
    fn source_slot(&self, local: usize) -> &[f64] {
        &self.slot_buf[local * self.slot_len..(local + 1) * self.slot_len]
    }

    /// Group id and dynamic state of local source `local`.
    fn export(&self, local: usize) -> (u32, StreamState) {
        let (g, s) = self.layout[local];
        (g, self.groups[g as usize].0.export_state(s as usize))
    }
}

/// An empty batch group for `key`, validated and with its spectrum
/// built. The key's model maps to an engine family here, once per key.
fn build_group(key: GroupKey) -> Result<BatchStream, FgnError> {
    let (model, variance, block, overlap) =
        key.params().ok_or(FgnError::InvalidHurst { hurst: f64::NAN, lo: 0.0, hi: 1.0 })?;
    let (family, hurst) = model.family();
    BatchStream::try_new(family, hurst, variance, block, overlap, &[])
}

/// The source fleet. See the [module docs](self) for the placement,
/// determinism and admission contracts.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    /// One per pool worker at construction or restore.
    shards: Vec<Shard>,
    /// Group keys in first-admission order: a key's position is its
    /// group id on every shard.
    keys: Vec<GroupKey>,
    group_ids: HashMap<GroupKey, usize>,
    ids: HashSet<TenantId>,
    slots_done: u64,
}

impl Fleet {
    /// An empty fleet under `cfg`, with one shard per worker of the
    /// `vbr_stats::par` pool ([`num_threads`]).
    ///
    /// # Panics
    /// If `cfg.slot_len == 0`.
    pub fn new(cfg: FleetConfig) -> Fleet {
        assert!(cfg.slot_len >= 1, "slots must hold at least one sample");
        let shard = |_| Shard {
            groups: Vec::new(),
            layout: Vec::new(),
            slot_buf: Vec::new(),
            slot_len: cfg.slot_len,
        };
        Fleet {
            shards: (0..num_threads()).map(shard).collect(),
            cfg,
            keys: Vec::new(),
            group_ids: HashMap::new(),
            ids: HashSet::new(),
            slots_done: 0,
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Active (placed) sources.
    pub fn sources(&self) -> usize {
        self.shards.iter().map(Shard::sources).sum()
    }

    /// Distinct batch groups (distinct [`GroupKey`]s) — how well tenant
    /// packing is amortising spectra and FFT plans.
    pub fn groups(&self) -> usize {
        self.keys.len()
    }

    /// Lockstep slots completed.
    pub fn slots_done(&self) -> u64 {
        self.slots_done
    }

    /// Admits a spec: rejects duplicates, a full fleet and unbuildable
    /// parameters; otherwise places it as the next source in admission
    /// order.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<(), AdmitError> {
        if self.ids.contains(&spec.tenant) {
            obs::counter_add(Counter::FleetAdmissionRejects, 1);
            return Err(AdmitError::Rejected { reason: "duplicate tenant id" });
        }
        if self.sources() >= self.cfg.max_sources {
            obs::counter_add(Counter::FleetAdmissionRejects, 1);
            return Err(AdmitError::Rejected { reason: "fleet at capacity" });
        }
        let g = self.group_id(GroupKey::of(&spec)).map_err(AdmitError::Invalid)?;
        self.next_shard().push(g, spec.seed, spec.tenant);
        self.ids.insert(spec.tenant);
        obs::counter_add(Counter::FleetSourcesAdmitted, 1);
        Ok(())
    }

    /// The group id of `key`, adding the group to every shard (and so
    /// paying its one-time spectrum and plan cost) on the key's first
    /// admission.
    fn group_id(&mut self, key: GroupKey) -> Result<usize, FgnError> {
        if let Some(&g) = self.group_ids.get(&key) {
            return Ok(g);
        }
        let batch = build_group(key)?;
        for shard in &mut self.shards {
            shard.groups.push((batch.clone(), Vec::new()));
        }
        self.group_ids.insert(key, self.keys.len());
        self.keys.push(key);
        Ok(self.keys.len() - 1)
    }

    /// The shard that holds the next admitted source (round-robin).
    fn next_shard(&mut self) -> &mut Shard {
        let k = self.shards.len();
        let i = self.sources() % k;
        &mut self.shards[i]
    }

    /// Every source's shard and local index, in admission order: local
    /// 0 of every shard, then local 1, … (the round-robin placement).
    fn admission_order(&self) -> impl Iterator<Item = (&Shard, usize)> {
        (0..)
            .flat_map(move |local| self.shards.iter().map(move |shard| (shard, local)))
            .take(self.sources())
    }

    /// Advances every source one slot and writes the aggregate arrival
    /// sequence (the sum over all sources, in admission order) into
    /// `agg`, which must be `slot_len` long.
    ///
    /// Shards generate on parallel workers; aggregation preserves the
    /// admission-order per-element addition order at any thread count
    /// (see the [module docs](self)).
    pub fn advance_slot(&mut self, agg: &mut [f64]) {
        assert_eq!(agg.len(), self.cfg.slot_len, "aggregate buffer must be slot_len long");
        par_for_each_mut(&mut self.shards, |_, shard| shard.advance_slot());
        self.aggregate(agg);
        self.slots_done += 1;
        obs::counter_add(Counter::FleetSlots, 1);
        obs::counter_add(Counter::FleetSlices, self.sources() as u64);
    }

    /// Admission-ordered aggregation. Parallelism splits slot positions,
    /// never sources, so each output element's addition order is always
    /// every source in admission order. The width is `sized_width` of the
    /// `sources × slot_len` work, so a pinned thread count reaches the
    /// parallel branch at any fleet size (given two slot positions per
    /// thread).
    fn aggregate(&self, agg: &mut [f64]) {
        let add = |base: usize, out: &mut [f64]| {
            out.fill(0.0);
            for (shard, local) in self.admission_order() {
                let row = &shard.source_slot(local)[base..base + out.len()];
                for (v, &x) in out.iter_mut().zip(row) {
                    *v += x;
                }
            }
        };
        let threads = sized_width(self.sources() * agg.len());
        if threads > 1 && agg.len() >= 2 * threads {
            let chunk_len = agg.len().div_ceil(threads);
            let mut chunks: Vec<&mut [f64]> = agg.chunks_mut(chunk_len).collect();
            par_for_each_mut(&mut chunks, |ci, chunk| add(ci * chunk_len, chunk));
        } else {
            add(0, agg);
        }
    }

    /// Serialises the whole fleet under the config's parameter hash, with
    /// `slots_done` as the snapshot sequence number: the slot counter,
    /// the group keys in first-admission order, then every source's group
    /// id and dynamic state in admission order. Nothing in it names a
    /// shard, so the bytes do not depend on the pool width.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(self.cfg.param_hash(), self.slots_done);
        w.section(TAG_FLEET, |p| {
            p.put_u64(self.slots_done);
            p.put_usize(self.keys.len());
            for key in &self.keys {
                key.encode(p);
            }
            p.put_usize(self.sources());
            for (shard, local) in self.admission_order() {
                let (g, state) = shard.export(local);
                p.put_u64(g as u64);
                state.encode(p);
            }
        });
        w.finish()
    }

    /// Restores a fleet from [`snapshot`](Self::snapshot) bytes under
    /// the same configuration, at the current pool width (one shard per
    /// worker, as [`new`](Self::new)), whatever the width the snapshot
    /// was taken at. Every claim in the bytes is validated — parameter
    /// hash, buildable and distinct group keys, every source's group in
    /// range, every `StreamState` against its group's geometry, no
    /// duplicate tenant ids — and hostile bytes yield a typed error,
    /// never a panic or a partial fleet.
    ///
    /// # Panics
    /// As [`new`](Self::new).
    pub fn restore(cfg: FleetConfig, bytes: &[u8]) -> Result<Fleet, SnapshotError> {
        let mut r = SnapshotReader::open(bytes)?;
        r.require_param_hash(cfg.param_hash())?;
        let mut s = r.section(TAG_FLEET, "fleet")?;
        let mut fleet = Fleet::new(cfg);
        fleet.slots_done = s.get_u64()?;
        for _ in 0..s.get_usize()? {
            let key = GroupKey::decode(&mut s)?;
            if fleet.group_ids.contains_key(&key) {
                return Err(SnapshotError::Invalid { what: "duplicate group key" });
            }
            fleet
                .group_id(key)
                .map_err(|_| SnapshotError::Invalid { what: "unbuildable group parameters" })?;
        }
        for _ in 0..s.get_usize()? {
            let g = s.get_u64()?;
            if g >= fleet.keys.len() as u64 {
                return Err(SnapshotError::Invalid { what: "source group out of range" });
            }
            let state = StreamState::decode(&mut s)?;
            if !fleet.ids.insert(state.tenant) {
                return Err(SnapshotError::Invalid { what: "duplicate tenant id" });
            }
            let shard = fleet.next_shard();
            // Placeholder seed: the restored state overwrites the RNG.
            let i = shard.push(g as usize, 0, state.tenant);
            shard.groups[g as usize].0.restore_state(i, &state)?;
        }
        s.finish()?;
        Ok(fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::SourceModel;
    use vbr_fgn::FgnStream;
    use vbr_stats::par::with_threads;

    fn spec(tenant: u64, hurst: f64, block: usize) -> TenantSpec {
        TenantSpec {
            tenant,
            model: SourceModel::Fgn { hurst },
            variance: 1.0,
            block,
            overlap: None,
            seed: tenant ^ 0xA5A5_5A5A_DEAD_BEEF,
        }
    }

    fn run_slots(fleet: &mut Fleet, slots: usize) -> Vec<f64> {
        let l = fleet.config().slot_len;
        let mut out = Vec::with_capacity(slots * l);
        let mut slot = vec![0.0; l];
        for _ in 0..slots {
            fleet.advance_slot(&mut slot);
            out.extend_from_slice(&slot);
        }
        out
    }

    /// Snapshot bytes in the fleet layout, written field by field so a
    /// test can feed `restore` states and keys no live fleet would hold.
    fn write_snapshot(
        cfg: &FleetConfig,
        keys: &[GroupKey],
        sources: &[(u64, StreamState)],
    ) -> Vec<u8> {
        let mut w = SnapshotWriter::new(cfg.param_hash(), 1);
        w.section(TAG_FLEET, |p| {
            p.put_u64(1);
            p.put_usize(keys.len());
            for key in keys {
                key.encode(p);
            }
            p.put_usize(sources.len());
            for (g, state) in sources {
                p.put_u64(*g);
                state.encode(p);
            }
        });
        w.finish()
    }

    #[test]
    fn aggregate_matches_ordered_solo_sum() {
        let block = 16;
        let specs: Vec<TenantSpec> =
            (0..7).map(|t| spec(t, if t % 2 == 0 { 0.8 } else { 0.65 }, block)).collect();
        let mut fleet = with_threads(3, || Fleet::new(FleetConfig::fixed(1, block, 1024)));
        for s in &specs {
            fleet.admit(*s).unwrap();
        }
        let slots = 5;
        let got = run_slots(&mut fleet, slots);

        let mut want = vec![0.0f64; slots * block];
        let mut buf = vec![0.0f64; slots * block];
        for s in &specs {
            let mut solo = FgnStream::try_new(s.model.hurst(), s.variance, block, s.seed).unwrap();
            for c in buf.chunks_mut(block) {
                solo.next_block(c);
            }
            for (w, &x) in want.iter_mut().zip(&buf) {
                *w += x;
            }
        }
        assert_eq!(got.len(), want.len());
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "aggregate diverges at sample {i}");
        }
    }

    #[test]
    fn placement_is_round_robin_in_admission_order() {
        let fleet = with_threads(4, || {
            let mut fleet = Fleet::new(FleetConfig::fixed(1, 4, 1024));
            for t in 0..14 {
                fleet.admit(spec(t, if t < 5 { 0.7 } else { 0.6 }, 8)).unwrap();
            }
            fleet
        });
        let loads: Vec<usize> = fleet.shards.iter().map(Shard::sources).collect();
        assert_eq!(loads, [4, 4, 3, 3]);
        assert_eq!(fleet.groups(), 2, "two H values, two groups");
        let order: Vec<u64> = fleet
            .admission_order()
            .map(|(shard, local)| {
                let (g, s) = shard.layout[local];
                shard.groups[g as usize].0.tenant(s as usize)
            })
            .collect();
        assert_eq!(order, (0..14).collect::<Vec<u64>>());
    }

    #[test]
    fn duplicate_and_over_capacity_are_rejected() {
        let mut fleet = Fleet::new(FleetConfig::fixed(1, 4, 2));
        fleet.admit(spec(1, 0.8, 8)).unwrap();
        assert!(matches!(
            fleet.admit(spec(1, 0.8, 8)),
            Err(AdmitError::Rejected { reason: "duplicate tenant id" })
        ));
        fleet.admit(spec(2, 0.8, 8)).unwrap();
        assert!(matches!(
            fleet.admit(spec(3, 0.8, 8)),
            Err(AdmitError::Rejected { reason: "fleet at capacity" })
        ));
        assert!(matches!(
            fleet.admit(spec(4, 1.5, 8)),
            Err(AdmitError::Rejected { .. }) | Err(AdmitError::Invalid(_))
        ));
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        let mut fleet = Fleet::new(FleetConfig::fixed(1, 4, 16));
        let mut bad = spec(9, 0.8, 8);
        bad.model = SourceModel::Fgn { hurst: 1.5 };
        assert!(matches!(fleet.admit(bad), Err(AdmitError::Invalid(_))));
        assert_eq!(fleet.sources(), 0, "failed admit must not leak a source");
        assert_eq!(fleet.groups(), 0, "nor a group");
        assert!(fleet.admit(spec(9, 0.8, 8)).is_ok(), "id must not leak either");
    }

    #[test]
    fn snapshot_restores_bit_identical_continuation() {
        let block = 8;
        let mut fleet = Fleet::new(FleetConfig::fixed(1, block, 64));
        for t in 0..9 {
            fleet.admit(spec(t, if t % 3 == 0 { 0.85 } else { 0.6 }, block)).unwrap();
        }
        run_slots(&mut fleet, 4);
        let bytes = fleet.snapshot();
        let want = run_slots(&mut fleet, 5);

        let mut restored = Fleet::restore(*fleet.config(), &bytes).unwrap();
        assert_eq!(restored.sources(), 9);
        assert_eq!(restored.slots_done(), 4);
        let got = run_slots(&mut restored, 5);
        assert!(
            got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
            "restored fleet diverged from the original"
        );
    }

    #[test]
    fn restore_rejects_config_mismatch_and_corruption() {
        let mut fleet = Fleet::new(FleetConfig::fixed(1, 4, 64));
        fleet.admit(spec(1, 0.8, 8)).unwrap();
        let bytes = fleet.snapshot();

        for other in [FleetConfig::fixed(1, 4, 65), FleetConfig::fixed(1, 8, 64)] {
            assert!(matches!(
                Fleet::restore(other, &bytes),
                Err(SnapshotError::ParamHashMismatch { .. })
            ));
        }

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(Fleet::restore(*fleet.config(), &flipped).is_err());

        assert!(Fleet::restore(*fleet.config(), &bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn restore_refuses_a_per_shard_v1_snapshot() {
        // The layout before snapshots became width-independent: a
        // `vbr-fleet/v1` hash over the shard count, a meta section with
        // a (tenant, shard, local) registry, then one section per shard.
        let cfg = FleetConfig::fixed(1, 4, 64);
        let v1_hash = ParamHasher::new()
            .str("vbr-fleet/v1")
            .usize(1)
            .usize(cfg.slot_len)
            .u64(0)
            .f64(0.5)
            .str("cap")
            .usize(cfg.max_sources)
            .finish();
        let key = GroupKey::of(&spec(1, 0.8, 8));
        let mut donor = Fleet::new(cfg);
        donor.admit(spec(1, 0.8, 8)).unwrap();
        let (_, state) = donor.shards[0].export(0);
        let mut w = SnapshotWriter::new(v1_hash, 0);
        w.section(0x464C_544D, |p| {
            for v in [0, 0, 0, 1, 4, 1, 1, 0, 0] {
                p.put_u64(v);
            }
        });
        w.section(0x5348_5244, |p| {
            p.put_usize(1);
            key.encode(p);
            p.put_usize(1);
            state.encode(p);
            p.put_usize(1);
            p.put_u64(0);
            p.put_u64(0);
        });
        assert!(matches!(
            Fleet::restore(cfg, &w.finish()),
            Err(SnapshotError::ParamHashMismatch { .. })
        ));
    }

    #[test]
    fn restore_refuses_a_v2_snapshot() {
        // The layout before the fleet dropped its deadline and policy
        // fields: a `vbr-fleet/v2` hash over the slot deadline (0 = none),
        // the overrun-ratio threshold and the fixed-cap policy, and a
        // fleet section that led with the slot, overrun and eligible-slot
        // counters.
        let cfg = FleetConfig::fixed(1, 4, 64);
        let v2_hash = ParamHasher::new()
            .str("vbr-fleet/v2")
            .usize(cfg.slot_len)
            .u64(0)
            .f64(0.5)
            .str("cap")
            .usize(cfg.max_sources)
            .finish();
        let mut donor = Fleet::new(cfg);
        donor.admit(spec(1, 0.8, 8)).unwrap();
        let (g, state) = donor.shards[0].export(0);
        let mut w = SnapshotWriter::new(v2_hash, 0);
        w.section(TAG_FLEET, |p| {
            for v in [0, 0, 0] {
                p.put_u64(v);
            }
            p.put_usize(1);
            donor.keys[0].encode(p);
            p.put_usize(1);
            p.put_u64(g as u64);
            state.encode(p);
        });
        assert!(matches!(
            Fleet::restore(cfg, &w.finish()),
            Err(SnapshotError::ParamHashMismatch { .. })
        ));
    }

    #[test]
    fn restore_rejects_hostile_keys_and_sources() {
        let block = 16;
        let cfg = FleetConfig::fixed(1, 4, 64);
        let mut fleet = Fleet::new(cfg);
        fleet.admit(spec(1, 0.8, block)).unwrap();
        fleet.admit(spec(2, 0.8, block)).unwrap();
        let key = fleet.keys[0];
        let states: Vec<(u64, StreamState)> = fleet
            .admission_order()
            .map(|(shard, local)| {
                let (g, state) = shard.export(local);
                (g as u64, state)
            })
            .collect();
        assert!(Fleet::restore(cfg, &write_snapshot(&cfg, &[key], &states)).is_ok());

        let invalid = |keys: &[GroupKey], sources: &[(u64, StreamState)]| {
            match Fleet::restore(cfg, &write_snapshot(&cfg, keys, sources)) {
                Err(SnapshotError::Invalid { what }) => what,
                other => panic!("expected a typed refusal, got {other:?}"),
            }
        };
        let mut far = states.clone();
        far[1].0 = 1;
        assert_eq!(invalid(&[key], &far), "source group out of range");
        let mut twice = states.clone();
        twice[1].1.tenant = twice[0].1.tenant;
        assert_eq!(invalid(&[key], &twice), "duplicate tenant id");
        assert_eq!(invalid(&[key, key], &states), "duplicate group key");
        // A block that overflows the circulant length, on sources that
        // have not started (so no window length betrays it), is refused
        // at restore, not at the first slot.
        let mut huge = key;
        huge.block = (1usize << (usize::BITS - 1)) + 5;
        assert_eq!(invalid(&[huge], &states), "unbuildable group parameters");
    }

    #[test]
    fn restore_rejects_started_source_without_seam_tail() {
        // Snapshot bytes, CRCs intact, whose one started source lost its
        // seam tail (block 64 has overlap 1): restore must refuse them,
        // not panic in the next slot's cross-fade.
        let block = 64;
        let cfg = FleetConfig::fixed(1, block, 64);
        let mut fleet = Fleet::new(cfg);
        fleet.admit(spec(1, 0.8, block)).unwrap();
        run_slots(&mut fleet, 1);
        let (g, mut state) = fleet.shards[0].export(0);
        assert!(state.started && state.tail.len() == 1);
        let intact = write_snapshot(&cfg, &fleet.keys, &[(g as u64, state.clone())]);
        assert!(Fleet::restore(cfg, &intact).is_ok());
        state.tail.clear();
        let hostile = write_snapshot(&cfg, &fleet.keys, &[(g as u64, state)]);
        assert!(matches!(Fleet::restore(cfg, &hostile), Err(SnapshotError::Invalid { .. })));
    }
}
