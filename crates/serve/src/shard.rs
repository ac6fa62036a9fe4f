//! One shard of the fleet: a set of batch groups advanced in lockstep.
//!
//! A shard owns every resource its tenants need to tick — the batch
//! groups (shared spectrum + FFT plan + scratch per [`GroupKey`]), the
//! tenant→(group, slot) layout, and the slot buffer its sources render
//! into. Shards never read each other's state, which is what lets the
//! fleet advance them on parallel workers without any output-bit risk:
//! determinism comes from data disjointness, not scheduling (the same
//! argument as `vbr_stats::par::par_for_each_mut`).
//!
//! The *slot buffer* is the shard's per-slot product: `sources ×
//! slot_len` samples, laid out row-per-source in shard admission order.
//! The fleet's aggregation step reads rows from these buffers in global
//! registry order, so the layout inside a shard never influences the
//! aggregate's float-addition order.

use crate::tenant::{GroupKey, TenantSpec};
use std::collections::HashMap;
use vbr_fgn::{BatchStream, FgnError, StreamState};
use vbr_stats::snapshot::{Payload, Section, SnapshotError};

/// One batch group plus its packing key.
#[derive(Debug, Clone)]
pub(crate) struct Group {
    pub(crate) key: GroupKey,
    pub(crate) batch: BatchStream,
}

impl Group {
    /// An empty group (no sources yet) for `key`, validated and with its
    /// spectrum built. The key's model maps to an engine family here,
    /// once per group.
    fn build(key: GroupKey) -> Result<Group, FgnError> {
        let (model, variance, block, overlap) = key
            .params()
            .ok_or(FgnError::InvalidHurst { hurst: f64::NAN, lo: 0.0, hi: 1.0 })?;
        let (family, hurst) = model.family();
        let batch = BatchStream::try_new(family, hurst, variance, block, overlap, &[])?;
        Ok(Group { key, batch })
    }
}

/// One shard: groups, layout, slot buffer. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Shard {
    groups: Vec<Group>,
    by_key: HashMap<GroupKey, usize>,
    /// Shard admission order → (group index, source index in group).
    layout: Vec<(u32, u32)>,
    /// `layout.len() × slot_len` samples, row per source.
    slot_buf: Vec<f64>,
    slot_len: usize,
    /// Per-group `(source, row)` work lists of `advance_slot`, kept
    /// across ticks to avoid per-tick allocation. Pure scratch — rebuilt
    /// from `layout` on every advance.
    group_rows: Vec<Vec<(usize, usize)>>,
    /// Wall-clock nanoseconds of the last `advance_slot` (SLO only —
    /// written, never read back into any generation path).
    pub(crate) last_advance_nanos: u64,
}

impl Shard {
    pub(crate) fn new(slot_len: usize) -> Shard {
        Shard {
            groups: Vec::new(),
            by_key: HashMap::new(),
            layout: Vec::new(),
            slot_buf: Vec::new(),
            slot_len,
            group_rows: Vec::new(),
            last_advance_nanos: 0,
        }
    }

    /// Sources living on this shard.
    pub fn sources(&self) -> usize {
        self.layout.len()
    }

    /// Distinct batch groups (distinct [`GroupKey`]s) on this shard.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Admits a spec: packs it into the matching batch group (creating
    /// the group — and thereby paying the one-time spectrum/plan cost —
    /// only for a key this shard has never seen) and returns the
    /// shard-local source index.
    pub(crate) fn admit(&mut self, spec: &TenantSpec) -> Result<u32, FgnError> {
        let key = GroupKey::of(spec);
        let g = match self.by_key.get(&key) {
            Some(&g) => g,
            None => {
                self.groups.push(Group::build(key)?);
                let g = self.groups.len() - 1;
                self.by_key.insert(key, g);
                g
            }
        };
        let s = self.groups[g].batch.push_source(spec.seed, spec.tenant);
        self.layout.push((g as u32, s as u32));
        self.slot_buf.resize(self.layout.len() * self.slot_len, 0.0);
        Ok(self.layout.len() as u32 - 1)
    }

    /// Advances every source by one slice-slot, rendering `slot_len`
    /// samples per source into the slot buffer. Pure generation — no
    /// cross-shard reads, no aggregation.
    ///
    /// Rows are bucketed by batch group and each group advanced in one
    /// lockstep [`advance_rows`](vbr_fgn::BatchStream::advance_rows) call,
    /// so the steady state runs lane-batched refills straight into the
    /// slot buffer instead of a full per-source pipeline walk. Output
    /// bits per source are identical to per-source `next_block` calls
    /// (the batch engine's contract), so the slot buffer — and hence
    /// aggregation, which reads it in registry order — is unchanged.
    pub(crate) fn advance_slot(&mut self) {
        let l = self.slot_len;
        let mut group_rows = std::mem::take(&mut self.group_rows);
        group_rows.resize(self.groups.len(), Vec::new());
        for rows in &mut group_rows {
            rows.clear();
        }
        for (i, &(g, s)) in self.layout.iter().enumerate() {
            group_rows[g as usize].push((s as usize, i));
        }
        for (g, rows) in group_rows.iter().enumerate() {
            if !rows.is_empty() {
                self.groups[g].batch.advance_rows(l, &mut self.slot_buf, rows);
            }
        }
        self.group_rows = group_rows;
    }

    /// The samples source `local` rendered in the current slot.
    pub(crate) fn source_slot(&self, local: u32) -> &[f64] {
        let l = self.slot_len;
        let i = local as usize;
        &self.slot_buf[i * l..(i + 1) * l]
    }

    /// Tenant identity of shard-local source `local`.
    pub(crate) fn tenant_of(&self, local: u32) -> u64 {
        let (g, s) = self.layout[local as usize];
        self.groups[g as usize].batch.tenant(s as usize)
    }

    /// Exports the whole shard — every group's parameters and every
    /// source's dynamic state, in layout order — as a plain value ready
    /// for the snapshot codec or for migration into another shard.
    pub fn export_state(&self) -> ShardState {
        let groups = self
            .groups
            .iter()
            .map(|grp| {
                let n = grp.batch.sources();
                GroupSnapshot {
                    key: grp.key,
                    sources: (0..n).map(|s| grp.batch.export_state(s)).collect(),
                }
            })
            .collect();
        ShardState { groups, layout: self.layout.clone() }
    }

    /// Rebuilds a shard from an exported state: groups are rebuilt from
    /// their (validated) parameters, every source is pushed and then
    /// restored with the full `StreamState` validation, and the layout
    /// is checked to be a bijection onto the sources. Nothing about the
    /// snapshot is trusted — a hostile state yields a typed error, never
    /// a panic or a partial shard.
    pub(crate) fn restore_from(state: &ShardState, slot_len: usize) -> Result<Shard, SnapshotError> {
        let mut shard = Shard::new(slot_len);
        for gs in &state.groups {
            if shard.by_key.contains_key(&gs.key) {
                return Err(SnapshotError::Invalid { what: "duplicate group key in shard" });
            }
            let mut group = Group::build(gs.key)
                .map_err(|_| SnapshotError::Invalid { what: "unbuildable group parameters" })?;
            for st in &gs.sources {
                // Placeholder seed: the restored state overwrites the RNG.
                let s = group.batch.push_source(0, st.tenant);
                group.batch.restore_state(s, st)?;
            }
            shard.by_key.insert(gs.key, shard.groups.len());
            shard.groups.push(group);
        }
        let total: usize = state.groups.iter().map(|g| g.sources.len()).sum();
        if state.layout.len() != total {
            return Err(SnapshotError::Invalid { what: "layout length != source count" });
        }
        let mut seen = vec![false; total];
        let mut offsets = Vec::with_capacity(state.groups.len());
        let mut off = 0usize;
        for g in &state.groups {
            offsets.push(off);
            off += g.sources.len();
        }
        for &(g, s) in &state.layout {
            let (g, s) = (g as usize, s as usize);
            if g >= state.groups.len() || s >= state.groups[g].sources.len() {
                return Err(SnapshotError::Invalid { what: "layout entry out of range" });
            }
            let flat = offsets[g] + s;
            if seen[flat] {
                return Err(SnapshotError::Invalid { what: "layout entry repeated" });
            }
            seen[flat] = true;
        }
        shard.layout = state.layout.clone();
        shard.slot_buf = vec![0.0; shard.layout.len() * slot_len];
        Ok(shard)
    }

    /// Drops every group and source, leaving an empty shard (the source
    /// side of a whole-shard migration).
    pub(crate) fn clear(&mut self) {
        self.groups.clear();
        self.by_key.clear();
        self.layout.clear();
        self.slot_buf.clear();
    }

    /// Moves every source of this shard into `target` in layout order,
    /// returning `old local → new local` index mappings. States (RNG,
    /// window, seam, tenant) travel verbatim, so draws continue
    /// bit-identically on the target shard.
    pub(crate) fn drain_into(&mut self, target: &mut Shard) -> Result<Vec<u32>, SnapshotError> {
        let mut remap = Vec::with_capacity(self.layout.len());
        for &(g, s) in &self.layout {
            let grp = &self.groups[g as usize];
            let st = grp.batch.export_state(s as usize);
            let tg = match target.by_key.get(&grp.key) {
                Some(&tg) => tg,
                None => {
                    target.groups.push(Group::build(grp.key).map_err(|_| {
                        SnapshotError::Invalid { what: "unbuildable group parameters" }
                    })?);
                    let tg = target.groups.len() - 1;
                    target.by_key.insert(grp.key, tg);
                    tg
                }
            };
            let ts = target.groups[tg].batch.push_source(0, st.tenant);
            target.groups[tg].batch.restore_state(ts, &st)?;
            target.layout.push((tg as u32, ts as u32));
            remap.push(target.layout.len() as u32 - 1);
        }
        target.slot_buf.resize(target.layout.len() * target.slot_len, 0.0);
        self.clear();
        Ok(remap)
    }
}

/// A group's parameters plus every source's dynamic state.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSnapshot {
    pub(crate) key: GroupKey,
    pub(crate) sources: Vec<StreamState>,
}

/// The exported form of a whole shard: groups (with their sources in
/// group order) plus the shard's admission-order layout. Encodes into a
/// single snapshot section; all floats travel as raw bits.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    pub(crate) groups: Vec<GroupSnapshot>,
    pub(crate) layout: Vec<(u32, u32)>,
}

impl ShardState {
    /// Total sources in the shard state.
    pub fn sources(&self) -> usize {
        self.layout.len()
    }

    /// Serialises into a snapshot section payload.
    pub fn encode(&self, p: &mut Payload) {
        p.put_usize(self.groups.len());
        for g in &self.groups {
            p.put_u64(g.key.model);
            p.put_u64(g.key.hurst_bits);
            p.put_u64(g.key.variance_bits);
            p.put_usize(g.key.block);
            p.put_u64(g.key.overlap_code);
            p.put_usize(g.sources.len());
            for st in &g.sources {
                st.encode(p);
            }
        }
        p.put_usize(self.layout.len());
        for &(g, s) in &self.layout {
            p.put_u64(g as u64);
            p.put_u64(s as u64);
        }
    }

    /// Deserialises from a snapshot section (structural checks only —
    /// semantic validation happens in the shard rebuild).
    pub fn decode(s: &mut Section) -> Result<ShardState, SnapshotError> {
        let n_groups = s.get_usize()?;
        let mut groups = Vec::with_capacity(n_groups.min(1 << 20));
        for _ in 0..n_groups {
            let key = GroupKey {
                model: s.get_u64()?,
                hurst_bits: s.get_u64()?,
                variance_bits: s.get_u64()?,
                block: s.get_usize()?,
                overlap_code: s.get_u64()?,
            };
            let n_sources = s.get_usize()?;
            let mut sources = Vec::with_capacity(n_sources.min(1 << 20));
            for _ in 0..n_sources {
                sources.push(StreamState::decode(s)?);
            }
            groups.push(GroupSnapshot { key, sources });
        }
        let n_layout = s.get_usize()?;
        let mut layout = Vec::with_capacity(n_layout.min(1 << 20));
        for _ in 0..n_layout {
            let g = s.get_u64()?;
            let src = s.get_u64()?;
            if g > u32::MAX as u64 || src > u32::MAX as u64 {
                return Err(SnapshotError::Invalid { what: "layout index overflow" });
            }
            layout.push((g as u32, src as u32));
        }
        Ok(ShardState { groups, layout })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::SourceModel;

    fn spec(tenant: u64, hurst: f64, block: usize) -> TenantSpec {
        TenantSpec {
            tenant,
            model: SourceModel::Fgn { hurst },
            variance: 1.0,
            block,
            overlap: None,
            seed: tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    #[test]
    fn same_key_tenants_share_a_group() {
        let mut shard = Shard::new(8);
        shard.admit(&spec(1, 0.8, 32)).unwrap();
        shard.admit(&spec(2, 0.8, 32)).unwrap();
        shard.admit(&spec(3, 0.7, 32)).unwrap();
        assert_eq!(shard.sources(), 3);
        assert_eq!(shard.groups(), 2, "two H values, two groups");
    }

    #[test]
    fn shard_state_round_trips_through_codec() {
        let mut shard = Shard::new(4);
        for t in 0..5 {
            shard.admit(&spec(t, if t % 2 == 0 { 0.8 } else { 0.6 }, 16)).unwrap();
        }
        shard.advance_slot();
        let state = shard.export_state();

        let mut w = vbr_stats::snapshot::SnapshotWriter::new(0, 1);
        w.section(0x5348_5244, |p| state.encode(p));
        let bytes = w.finish();
        let mut r = vbr_stats::snapshot::SnapshotReader::open(&bytes).unwrap();
        let mut sec = r.section(0x5348_5244, "shard").unwrap();
        let decoded = ShardState::decode(&mut sec).unwrap();
        sec.finish().unwrap();
        assert_eq!(decoded, state);

        let rebuilt = Shard::restore_from(&decoded, 4).unwrap();
        assert_eq!(rebuilt.sources(), shard.sources());
        for local in 0..shard.sources() as u32 {
            assert_eq!(rebuilt.tenant_of(local), shard.tenant_of(local));
        }
    }

    #[test]
    fn restore_rejects_corrupt_layout() {
        let mut shard = Shard::new(4);
        shard.admit(&spec(1, 0.8, 16)).unwrap();
        shard.admit(&spec(2, 0.8, 16)).unwrap();
        let mut state = shard.export_state();
        state.layout[1] = state.layout[0]; // repeated entry
        assert!(Shard::restore_from(&state, 4).is_err());
        let mut state = shard.export_state();
        state.layout[1] = (7, 7); // out of range
        assert!(Shard::restore_from(&state, 4).is_err());
    }

    #[test]
    fn restore_rejects_overflowing_group_block() {
        // A group key whose block overflows the circulant length, with
        // sources that have not started (so no window length betrays the
        // block), must be refused at restore, not at the first slot.
        let mut shard = Shard::new(4);
        shard.admit(&spec(1, 0.8, 16)).unwrap();
        shard.admit(&spec(2, 0.8, 16)).unwrap();
        let mut state = shard.export_state();
        state.groups[0].key.block = (1usize << (usize::BITS - 1)) + 5;
        assert!(matches!(
            Shard::restore_from(&state, 4),
            Err(SnapshotError::Invalid { what: "unbuildable group parameters" })
        ));
    }
}
