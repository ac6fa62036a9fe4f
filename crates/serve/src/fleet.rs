//! The fleet: shards, admission control, lockstep slots, migration and
//! whole-fleet snapshots.
//!
//! # Determinism
//!
//! The aggregate arrival sequence is **bit-identical** for any shard
//! count, any thread count, and any tenant→shard placement. Two facts
//! carry the proof:
//!
//! 1. Generation is the only parallel work that touches sources —
//!    shards advance on pool workers, each writing its own slot buffer,
//!    and inside a shard each group deals its lane cohorts to pool
//!    workers over disjoint source ranges — and each source's draws
//!    depend only on its own exported state. So neither shard placement
//!    nor which worker refills a source can change its samples (the
//!    `BatchStream` interleaving guarantee).
//! 2. Aggregation walks the global registry in **admission order**,
//!    accumulating each source's row into the slot aggregate. The
//!    per-element float-addition order is therefore registry order
//!    regardless of how sources are scattered across shards. Parallel
//!    aggregation splits *slot positions* (not sources) across workers,
//!    and every worker walks the full registry in order for its
//!    positions, so the per-element order is again unchanged.
//!
//! Hence `fleet(k shards) ≡ fleet(1 shard) ≡` the ordered sum of solo
//! streams, bitwise — which is exactly what the serve proptests check.
//!
//! # Admission
//!
//! A [`TenantSpec`] is admitted, queued, or rejected:
//! * duplicate tenant IDs and unbuildable parameters are rejected with
//!   typed errors;
//! * a fleet over its [`AdmissionPolicy`] capacity is rejected;
//! * a fleet whose recent slots are missing their deadline (overrun
//!   ratio above `max_overrun_ratio`) *queues* the spec instead of
//!   placing it — call [`Fleet::drain_pending`] once the fleet is
//!   healthy again.
//!
//! Placement is least-loaded-shard (ties to the lowest index), which
//! keeps lockstep slots balanced without a rebalancing pass.

use crate::shard::{Shard, ShardState};
use crate::tenant::{TenantId, TenantSpec};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};
use vbr_fgn::FgnError;
use vbr_qsim::admit_by_norros;
use vbr_stats::obs::{self, Counter};
use vbr_stats::par::{par_for_each_mut, par_for_each_mut_with, sized_width};
use vbr_stats::snapshot::{ParamHasher, SnapshotError, SnapshotReader, SnapshotWriter};

/// Section tag for fleet metadata ("FLTM").
const TAG_FLEET_META: u32 = 0x464C_544D;
/// Section tag for one shard's state ("SHRD"), repeated per shard.
const TAG_SHARD: u32 = 0x5348_5244;

/// How the fleet decides whether one more source fits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// A fixed source-count cap — operational limit, no model.
    FixedCap {
        /// Largest total source count the fleet will hold.
        max_sources: usize,
    },
    /// The Norros effective-bandwidth rule from `vbr_qsim::admission`,
    /// evaluated with the *candidate's* Hurst parameter for the whole
    /// fleet (conservative for mixed-H fleets when the candidate has
    /// the largest H). The resulting cap is cached per Hurst bit
    /// pattern, so the `O(n_max)` scan is paid once per distinct H.
    Norros {
        /// Mean rate of one source in bytes/sec.
        mean_rate_per_source: f64,
        /// fBm variance coefficient of one source.
        variance_coef: f64,
        /// Link capacity in bytes/sec.
        capacity_bps: f64,
        /// Buffer size in bytes.
        buffer_bytes: f64,
        /// Target loss probability.
        loss_target: f64,
        /// Upper bound on the admission scan.
        n_max: usize,
    },
}

/// Fleet-wide configuration, fixed at construction. Hashed into every
/// snapshot so a restore into a differently-configured fleet is a typed
/// refusal, not silent corruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of shards (parallel lockstep workers).
    pub shards: usize,
    /// Samples each source renders per slot.
    pub slot_len: usize,
    /// Capacity rule for admission.
    pub policy: AdmissionPolicy,
    /// Wall-clock budget for one shard slot; `None` disables overrun
    /// tracking (and with it deadline-based queueing).
    pub slot_deadline: Option<Duration>,
    /// Queue (rather than place) new tenants once the overrun ratio —
    /// overrun shard-slots over total shard-slots — exceeds this.
    pub max_overrun_ratio: f64,
}

impl FleetConfig {
    /// A minimal config: `shards` shards, `slot_len` samples per slot,
    /// a fixed cap, and no deadline tracking.
    pub fn fixed(shards: usize, slot_len: usize, max_sources: usize) -> FleetConfig {
        FleetConfig {
            shards,
            slot_len,
            policy: AdmissionPolicy::FixedCap { max_sources },
            slot_deadline: None,
            max_overrun_ratio: 0.5,
        }
    }

    /// FNV-1a digest of every configuration field, for the snapshot
    /// header. Floats hash by bit pattern.
    pub fn param_hash(&self) -> u64 {
        let h = ParamHasher::new()
            .str("vbr-fleet/v1")
            .usize(self.shards)
            .usize(self.slot_len)
            .u64(match self.slot_deadline {
                None => 0,
                Some(d) => d.as_nanos() as u64 + 1,
            })
            .f64(self.max_overrun_ratio);
        match self.policy {
            AdmissionPolicy::FixedCap { max_sources } => h.str("cap").usize(max_sources),
            AdmissionPolicy::Norros {
                mean_rate_per_source,
                variance_coef,
                capacity_bps,
                buffer_bytes,
                loss_target,
                n_max,
            } => h
                .str("norros")
                .f64(mean_rate_per_source)
                .f64(variance_coef)
                .f64(capacity_bps)
                .f64(buffer_bytes)
                .f64(loss_target)
                .usize(n_max),
        }
        .finish()
    }
}

/// Where an admitted spec landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Placed on a shard and generating from the next slot.
    Admitted {
        /// Index of the owning shard.
        shard: usize,
    },
    /// Deferred because slot deadlines are slipping; the spec sits in
    /// the pending queue until [`Fleet::drain_pending`].
    Queued {
        /// Position in the pending queue (0 = next to drain).
        position: usize,
    },
}

/// Why a spec was not admitted (and not queued).
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The spec's parameters cannot build a generator (bad H, bad
    /// geometry, non-PSD fARIMA embedding…).
    Invalid(FgnError),
    /// The admission policy refused the spec.
    Rejected {
        /// What the policy objected to.
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

/// Registry entry: where one tenant's source lives. Registry *order* is
/// admission order — the float-addition order of the aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    tenant: TenantId,
    shard: u32,
    local: u32,
}

/// The sharded source fleet. See the [module docs](self) for the
/// determinism and admission contracts.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    shards: Vec<Shard>,
    /// Admission-ordered registry; its order defines aggregate bits.
    registry: Vec<Placement>,
    /// Specs deferred by deadline slip, FIFO.
    pending: VecDeque<TenantSpec>,
    ids: HashSet<TenantId>,
    slots_done: u64,
    overruns: u64,
    /// Deadline-eligible shard-slots: non-empty shards advanced while a
    /// slot deadline was configured. The overrun ratio's denominator —
    /// the same population the numerator is drawn from.
    eligible_slots: u64,
    /// Norros cap per Hurst bit pattern (the scan is `O(n_max)`).
    norros_cache: HashMap<u64, usize>,
}

impl Fleet {
    /// An empty fleet under `cfg`.
    ///
    /// # Panics
    /// If `cfg.shards == 0` or `cfg.slot_len == 0`.
    pub fn new(cfg: FleetConfig) -> Fleet {
        assert!(cfg.shards >= 1, "a fleet needs at least one shard");
        assert!(cfg.slot_len >= 1, "slots must hold at least one sample");
        Fleet {
            shards: (0..cfg.shards).map(|_| Shard::new(cfg.slot_len)).collect(),
            cfg,
            registry: Vec::new(),
            pending: VecDeque::new(),
            ids: HashSet::new(),
            slots_done: 0,
            overruns: 0,
            eligible_slots: 0,
            norros_cache: HashMap::new(),
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Active (placed) sources across all shards.
    pub fn sources(&self) -> usize {
        self.registry.len()
    }

    /// Specs waiting in the pending queue.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Lockstep slots completed.
    pub fn slots_done(&self) -> u64 {
        self.slots_done
    }

    /// Shard-slots that exceeded the deadline.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// Overrun shard-slots over deadline-eligible shard-slots — slots
    /// advanced on *non-empty* shards while a deadline was configured,
    /// the same population overruns are counted from. Empty shards never
    /// dilute the ratio (0 before any eligible slot).
    pub fn overrun_ratio(&self) -> f64 {
        if self.eligible_slots == 0 {
            0.0
        } else {
            self.overruns as f64 / self.eligible_slots as f64
        }
    }

    /// The policy's current source cap for a candidate spec.
    fn capacity_for(&mut self, spec: &TenantSpec) -> usize {
        match self.cfg.policy {
            AdmissionPolicy::FixedCap { max_sources } => max_sources,
            AdmissionPolicy::Norros {
                mean_rate_per_source,
                variance_coef,
                capacity_bps,
                buffer_bytes,
                loss_target,
                n_max,
            } => {
                let bits = spec.model.hurst().to_bits();
                *self.norros_cache.entry(bits).or_insert_with(|| {
                    admit_by_norros(
                        mean_rate_per_source,
                        variance_coef,
                        spec.model.hurst(),
                        capacity_bps,
                        buffer_bytes,
                        loss_target,
                        n_max,
                    )
                    .max_sources
                })
            }
        }
    }

    /// Admits a spec: rejects duplicates, over-capacity fleets and
    /// unbuildable parameters; queues when slot deadlines are slipping;
    /// otherwise places on the least-loaded shard.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<Admission, AdmitError> {
        if self.ids.contains(&spec.tenant) {
            obs::counter_add(Counter::FleetAdmissionRejects, 1);
            return Err(AdmitError::Rejected { reason: "duplicate tenant id" });
        }
        let cap = self.capacity_for(&spec);
        if self.registry.len() + self.pending.len() >= cap {
            obs::counter_add(Counter::FleetAdmissionRejects, 1);
            return Err(AdmitError::Rejected { reason: "fleet at policy capacity" });
        }
        if self.cfg.slot_deadline.is_some() && self.overrun_ratio() > self.cfg.max_overrun_ratio {
            self.pending.push_back(spec);
            self.ids.insert(spec.tenant);
            return Ok(Admission::Queued { position: self.pending.len() - 1 });
        }
        let shard = self.place(spec).map_err(AdmitError::Invalid)?;
        Ok(Admission::Admitted { shard })
    }

    /// Places a spec on the least-loaded shard (assumes policy checks
    /// already passed). Registry append = aggregate addition order.
    fn place(&mut self, spec: TenantSpec) -> Result<usize, FgnError> {
        let shard = self
            .shards
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.sources(), *i))
            .map(|(i, _)| i)
            .expect("fleet has at least one shard");
        let local = self.shards[shard].admit(&spec)?;
        self.registry.push(Placement { tenant: spec.tenant, shard: shard as u32, local });
        self.ids.insert(spec.tenant);
        obs::counter_add(Counter::FleetSourcesAdmitted, 1);
        Ok(shard)
    }

    /// Places queued specs while the overrun ratio stays at or under
    /// the threshold; returns how many were placed. A queued spec whose
    /// parameters turn out unbuildable is dropped (its id released) —
    /// it was never generating, so nothing else changes.
    pub fn drain_pending(&mut self) -> usize {
        let mut placed = 0;
        while let Some(spec) = self.pending.front().copied() {
            if self.overrun_ratio() > self.cfg.max_overrun_ratio {
                break;
            }
            self.pending.pop_front();
            match self.place(spec) {
                Ok(_) => placed += 1,
                Err(_) => {
                    self.ids.remove(&spec.tenant);
                }
            }
        }
        placed
    }

    /// Advances every source one slot and writes the aggregate arrival
    /// sequence (the sum over all sources, in admission order) into
    /// `agg`, which must be `slot_len` long.
    ///
    /// Shards — and inside a shard that has the pool to itself, each
    /// group's lane cohorts — generate on parallel workers; aggregation
    /// preserves the registry's per-element addition order at any
    /// thread count (see the [module docs](self)).
    pub fn advance_slot(&mut self, agg: &mut [f64]) {
        assert_eq!(agg.len(), self.cfg.slot_len, "aggregate buffer must be slot_len long");
        par_for_each_mut(&mut self.shards, |_, shard| {
            let t0 = Instant::now();
            shard.advance_slot();
            // Wall-clock stamp for SLO accounting only: written here,
            // never read back into any generation path.
            shard.last_advance_nanos = t0.elapsed().as_nanos() as u64;
        });
        if let Some(deadline) = self.cfg.slot_deadline {
            let budget = deadline.as_nanos() as u64;
            for shard in &self.shards {
                if shard.sources() > 0 {
                    self.eligible_slots += 1;
                    if shard.last_advance_nanos > budget {
                        self.overruns += 1;
                        obs::counter_add(Counter::FleetSlotOverruns, 1);
                    }
                }
            }
        }
        self.aggregate(agg);
        self.slots_done += 1;
        obs::counter_add(Counter::FleetSlots, 1);
        obs::counter_add(Counter::FleetSlices, self.registry.len() as u64);
    }

    /// Registry-ordered aggregation. Parallelism splits slot positions,
    /// never sources, so each output element's addition order is always
    /// the full registry in order. The width is `sized_width` of the
    /// `sources × slot_len` work, so a pinned thread count reaches the
    /// parallel branch at any fleet size (given two slot positions per
    /// thread).
    fn aggregate(&self, agg: &mut [f64]) {
        agg.fill(0.0);
        let registry = &self.registry;
        let shards = &self.shards;
        let threads = sized_width(registry.len() * agg.len());
        if threads > 1 && agg.len() >= 2 * threads {
            let chunk_len = agg.len().div_ceil(threads);
            let mut chunks: Vec<&mut [f64]> = agg.chunks_mut(chunk_len).collect();
            par_for_each_mut_with(threads, &mut chunks, |ci, chunk| {
                let base = ci * chunk_len;
                for p in registry {
                    let row = shards[p.shard as usize].source_slot(p.local);
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v += row[base + j];
                    }
                }
            });
        } else {
            for p in registry {
                let row = shards[p.shard as usize].source_slot(p.local);
                for (v, &x) in agg.iter_mut().zip(row) {
                    *v += x;
                }
            }
        }
    }

    /// Moves every source of shard `from` onto shard `to`, preserving
    /// each source's full dynamic state. Registry *order* is untouched
    /// (only shard/local coordinates are rewritten), so the aggregate
    /// sequence continues bit-identically — the proof obligation behind
    /// the migration drill.
    ///
    /// # Panics
    /// If `from == to` or either index is out of range.
    pub fn migrate_shard(&mut self, from: usize, to: usize) -> Result<(), SnapshotError> {
        assert!(from != to, "migration source and target must differ");
        assert!(from < self.shards.len() && to < self.shards.len());
        let (src, dst) = if from < to {
            let (a, b) = self.shards.split_at_mut(to);
            (&mut a[from], &mut b[0])
        } else {
            let (a, b) = self.shards.split_at_mut(from);
            (&mut b[0], &mut a[to])
        };
        let remap = src.drain_into(dst)?;
        // `remap` is keyed by *old local index*. Registry entries are not
        // generally sorted by local (earlier migrations into `from` may
        // have appended out of order), so each placement must look up its
        // own old local — never a running counter over iteration order.
        for p in &mut self.registry {
            if p.shard == from as u32 {
                p.shard = to as u32;
                p.local = remap[p.local as usize];
            }
        }
        Ok(())
    }

    /// Serialises the whole fleet — metadata, registry and every shard —
    /// under the config's parameter hash, with `slots_done` as the
    /// snapshot sequence number. Pending (queued, never-placed) specs
    /// are deliberately *not* persisted: they have no dynamic state, and
    /// their owners re-submit on reconnect.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(self.cfg.param_hash(), self.slots_done);
        w.section(TAG_FLEET_META, |p| {
            p.put_u64(self.slots_done);
            p.put_u64(self.overruns);
            p.put_u64(self.eligible_slots);
            p.put_usize(self.shards.len());
            p.put_usize(self.cfg.slot_len);
            p.put_usize(self.registry.len());
            for pl in &self.registry {
                p.put_u64(pl.tenant);
                p.put_u64(pl.shard as u64);
                p.put_u64(pl.local as u64);
            }
        });
        for shard in &self.shards {
            let state = shard.export_state();
            w.section(TAG_SHARD, |p| state.encode(p));
        }
        w.finish()
    }

    /// Restores a fleet from [`snapshot`](Self::snapshot) bytes under
    /// the same configuration. Every structural claim in the bytes is
    /// validated — parameter hash, shard count, slot length, per-shard
    /// layout bijections, and registry consistency (every placement in
    /// range, every source placed exactly once, tenant identities
    /// matching the shard states, no duplicate tenant ids) — before any
    /// fleet exists; hostile bytes yield a typed error, never a panic
    /// or a partial fleet.
    pub fn restore(cfg: FleetConfig, bytes: &[u8]) -> Result<Fleet, SnapshotError> {
        let mut r = SnapshotReader::open(bytes)?;
        r.require_param_hash(cfg.param_hash())?;
        let mut meta = r.section(TAG_FLEET_META, "fleet meta")?;
        let slots_done = meta.get_u64()?;
        let overruns = meta.get_u64()?;
        let eligible_slots = meta.get_u64()?;
        let n_shards = meta.get_usize()?;
        let slot_len = meta.get_usize()?;
        if n_shards != cfg.shards {
            return Err(SnapshotError::Invalid { what: "shard count differs from config" });
        }
        if slot_len != cfg.slot_len {
            return Err(SnapshotError::Invalid { what: "slot length differs from config" });
        }
        let n_registry = meta.get_usize()?;
        let mut registry = Vec::with_capacity(n_registry.min(1 << 24));
        for _ in 0..n_registry {
            let tenant = meta.get_u64()?;
            let shard = meta.get_u64()?;
            let local = meta.get_u64()?;
            if shard > u32::MAX as u64 || local > u32::MAX as u64 {
                return Err(SnapshotError::Invalid { what: "registry index overflow" });
            }
            registry.push(Placement { tenant, shard: shard as u32, local: local as u32 });
        }
        meta.finish()?;

        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let mut sec = r.section(TAG_SHARD, "shard")?;
            let state = ShardState::decode(&mut sec)?;
            sec.finish()?;
            shards.push(Shard::restore_from(&state, slot_len)?);
        }

        let total: usize = shards.iter().map(|s| s.sources()).sum();
        if registry.len() != total {
            return Err(SnapshotError::Invalid { what: "registry length != fleet sources" });
        }
        let mut ids = HashSet::with_capacity(registry.len());
        let mut placed: Vec<Vec<bool>> =
            shards.iter().map(|s| vec![false; s.sources()]).collect();
        for p in &registry {
            let s = p.shard as usize;
            if s >= shards.len() || p.local as usize >= shards[s].sources() {
                return Err(SnapshotError::Invalid { what: "registry placement out of range" });
            }
            if placed[s][p.local as usize] {
                return Err(SnapshotError::Invalid { what: "source placed twice in registry" });
            }
            placed[s][p.local as usize] = true;
            if shards[s].tenant_of(p.local) != p.tenant {
                return Err(SnapshotError::Invalid { what: "registry tenant != shard tenant" });
            }
            if !ids.insert(p.tenant) {
                return Err(SnapshotError::Invalid { what: "duplicate tenant id in registry" });
            }
        }

        Ok(Fleet {
            cfg,
            shards,
            registry,
            pending: VecDeque::new(),
            ids,
            slots_done,
            overruns,
            eligible_slots,
            norros_cache: HashMap::new(),
        })
    }

    /// Per-shard source counts (placement/balance introspection).
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.sources()).collect()
    }

    /// Distinct batch groups per shard — how well tenant packing is
    /// amortising spectra and FFT plans.
    pub fn shard_groups(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.groups()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::SourceModel;
    use vbr_fgn::FgnStream;

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

    #[test]
    fn aggregate_matches_ordered_solo_sum() {
        let block = 16;
        let specs: Vec<TenantSpec> =
            (0..7).map(|t| spec(t, if t % 2 == 0 { 0.8 } else { 0.65 }, block)).collect();
        let mut fleet = Fleet::new(FleetConfig::fixed(3, block, 1024));
        for s in &specs {
            assert!(matches!(fleet.admit(*s), Ok(Admission::Admitted { .. })));
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
    fn shard_count_does_not_change_bits() {
        let block = 8;
        let specs: Vec<TenantSpec> = (0..10).map(|t| spec(t, 0.75, block)).collect();
        let mut reference: Option<Vec<f64>> = None;
        for shards in [1usize, 2, 4] {
            let mut fleet = Fleet::new(FleetConfig::fixed(shards, block, 1024));
            for s in &specs {
                fleet.admit(*s).unwrap();
            }
            let got = run_slots(&mut fleet, 6);
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    let same = got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{shards}-shard fleet diverged from 1-shard fleet");
                }
            }
        }
    }

    #[test]
    fn duplicate_and_over_capacity_are_rejected() {
        let mut fleet = Fleet::new(FleetConfig::fixed(2, 4, 2));
        fleet.admit(spec(1, 0.8, 8)).unwrap();
        assert!(matches!(
            fleet.admit(spec(1, 0.8, 8)),
            Err(AdmitError::Rejected { reason: "duplicate tenant id" })
        ));
        fleet.admit(spec(2, 0.8, 8)).unwrap();
        assert!(matches!(
            fleet.admit(spec(3, 0.8, 8)),
            Err(AdmitError::Rejected { reason: "fleet at policy capacity" })
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
        assert_eq!(fleet.sources(), 0, "failed admit must not leak registry entries");
        assert!(fleet.admit(spec(9, 0.8, 8)).is_ok(), "id must not leak either");
    }

    #[test]
    fn placement_balances_shards() {
        let mut fleet = Fleet::new(FleetConfig::fixed(4, 4, 1024));
        for t in 0..12 {
            fleet.admit(spec(t, 0.7, 8)).unwrap();
        }
        assert_eq!(fleet.shard_loads(), vec![3, 3, 3, 3]);
        // One group key → one group per occupied shard.
        assert_eq!(fleet.shard_groups(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn snapshot_restores_bit_identical_continuation() {
        let block = 8;
        let mut fleet = Fleet::new(FleetConfig::fixed(3, block, 64));
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
        let mut fleet = Fleet::new(FleetConfig::fixed(2, 4, 64));
        fleet.admit(spec(1, 0.8, 8)).unwrap();
        let bytes = fleet.snapshot();

        let mut other = FleetConfig::fixed(2, 4, 64);
        other.max_overrun_ratio = 0.9;
        assert!(matches!(
            Fleet::restore(other, &bytes),
            Err(SnapshotError::ParamHashMismatch { .. })
        ));

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(Fleet::restore(*fleet.config(), &flipped).is_err());

        assert!(Fleet::restore(*fleet.config(), &bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn restore_rejects_started_source_without_seam_tail() {
        // Snapshot bytes, CRCs intact, whose one started source lost its
        // seam tail (block 64 has overlap 1): restore must refuse them,
        // not panic in the next slot's cross-fade.
        let block = 64;
        let mut fleet = Fleet::new(FleetConfig::fixed(1, block, 64));
        fleet.admit(spec(1, 0.8, block)).unwrap();
        run_slots(&mut fleet, 1);
        let mut state = fleet.shards[0].export_state();
        let src = &mut state.groups[0].sources[0];
        assert!(src.started && src.tail.len() == 1);
        src.tail.clear();
        let mut w = SnapshotWriter::new(fleet.cfg.param_hash(), fleet.slots_done);
        w.section(TAG_FLEET_META, |p| {
            p.put_u64(fleet.slots_done);
            p.put_u64(fleet.overruns);
            p.put_u64(fleet.eligible_slots);
            p.put_usize(1);
            p.put_usize(block);
            p.put_usize(1);
            let pl = fleet.registry[0];
            p.put_u64(pl.tenant);
            p.put_u64(pl.shard as u64);
            p.put_u64(pl.local as u64);
        });
        w.section(TAG_SHARD, |p| state.encode(p));
        let hostile = w.finish();
        assert!(matches!(
            Fleet::restore(*fleet.config(), &hostile),
            Err(SnapshotError::Invalid { .. })
        ));
        // The same writer over the untouched state restores fine.
        assert!(Fleet::restore(*fleet.config(), &fleet.snapshot()).is_ok());
    }

    #[test]
    fn migration_preserves_aggregate_bits() {
        let block = 8;
        let mut a = Fleet::new(FleetConfig::fixed(3, block, 64));
        let mut b = Fleet::new(FleetConfig::fixed(3, block, 64));
        for t in 0..9 {
            let s = spec(t, if t % 2 == 0 { 0.8 } else { 0.55 }, block);
            a.admit(s).unwrap();
            b.admit(s).unwrap();
        }
        run_slots(&mut a, 3);
        run_slots(&mut b, 3);
        b.migrate_shard(0, 2).unwrap();
        assert_eq!(b.shard_loads()[0], 0);
        assert_eq!(b.sources(), 9);
        let want = run_slots(&mut a, 4);
        let got = run_slots(&mut b, 4);
        assert!(
            got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
            "migration changed aggregate bits"
        );
    }

    #[test]
    fn chained_migrations_through_occupied_shards_round_trip() {
        // Regression: migrating *into* an occupied shard appends that
        // shard's registry placements out of local-index order, so a
        // later migration *out* of it must key the drain remap by each
        // placement's old local index — not by registry iteration order.
        // The old counter-based rewrite cross-wired tenants here and
        // made restore fail with "registry tenant != shard tenant".
        let block = 8;
        let mut a = Fleet::new(FleetConfig::fixed(3, block, 64));
        let mut b = Fleet::new(FleetConfig::fixed(3, block, 64));
        for t in 0..9 {
            let s = spec(t, if t % 2 == 0 { 0.8 } else { 0.55 }, block);
            a.admit(s).unwrap();
            b.admit(s).unwrap();
        }
        run_slots(&mut a, 3);
        run_slots(&mut b, 3);
        b.migrate_shard(0, 1).unwrap();
        b.migrate_shard(1, 0).unwrap();
        b.migrate_shard(0, 2).unwrap();
        assert_eq!(b.sources(), 9);

        let bytes = b.snapshot();
        let mut restored = Fleet::restore(*b.config(), &bytes).unwrap();

        let want = run_slots(&mut a, 4);
        let got = run_slots(&mut b, 4);
        assert!(
            got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
            "chained migration changed aggregate bits"
        );
        let resumed = run_slots(&mut restored, 4);
        assert!(
            resumed.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
            "restore after chained migration diverged"
        );
    }

    #[test]
    fn overrun_ratio_ignores_empty_shards() {
        // One source on a 4-shard fleet with an unmeetable deadline:
        // every eligible (non-empty) shard-slot overruns, so the ratio
        // must read 1.0 — not 0.25 diluted by the three idle shards.
        let mut cfg = FleetConfig::fixed(4, 4, 64);
        cfg.slot_deadline = Some(Duration::from_nanos(0));
        let mut fleet = Fleet::new(cfg);
        fleet.admit(spec(1, 0.8, 8)).unwrap();
        let mut slot = [0.0; 4];
        fleet.advance_slot(&mut slot);
        fleet.advance_slot(&mut slot);
        assert_eq!(fleet.overruns(), 2);
        assert_eq!(fleet.overrun_ratio(), 1.0);
    }

    #[test]
    fn deadline_slip_queues_then_drains() {
        let mut cfg = FleetConfig::fixed(1, 4, 64);
        cfg.slot_deadline = Some(Duration::from_nanos(0));
        cfg.max_overrun_ratio = 0.0;
        let mut fleet = Fleet::new(cfg);
        fleet.admit(spec(1, 0.8, 8)).unwrap();
        let mut slot = [0.0; 4];
        fleet.advance_slot(&mut slot); // zero-ns deadline → overrun
        assert!(fleet.overrun_ratio() > 0.0);
        match fleet.admit(spec(2, 0.8, 8)).unwrap() {
            Admission::Queued { position } => assert_eq!(position, 0),
            other => panic!("expected queueing under deadline slip, got {other:?}"),
        }
        assert_eq!(fleet.sources(), 1);
        assert_eq!(fleet.pending(), 1);
        // Duplicate detection covers queued ids too.
        assert!(fleet.admit(spec(2, 0.8, 8)).is_err());
        // Still slipping: the next spec queues behind tenant 2.
        assert!(matches!(fleet.admit(spec(3, 0.8, 8)), Ok(Admission::Queued { position: 1 })));
        // Lift the pressure and drain both.
        let mut healthy = fleet;
        healthy.cfg.max_overrun_ratio = 1.0;
        assert_eq!(healthy.drain_pending(), 2);
        assert_eq!(healthy.pending(), 0);
        assert_eq!(healthy.sources(), 3);
    }

    #[test]
    fn norros_policy_caps_and_caches() {
        let cfg = FleetConfig {
            shards: 1,
            slot_len: 4,
            policy: AdmissionPolicy::Norros {
                mean_rate_per_source: 1e6,
                variance_coef: 50.0,
                capacity_bps: 5e6,
                buffer_bytes: 1e4,
                loss_target: 1e-6,
                n_max: 100,
            },
            slot_deadline: None,
            max_overrun_ratio: 0.5,
        };
        let cap = admit_by_norros(1e6, 50.0, 0.8, 5e6, 1e4, 1e-6, 100).max_sources;
        assert!(cap >= 1, "test premise: the link fits at least one source");
        let mut fleet = Fleet::new(cfg);
        for t in 0..cap as u64 {
            fleet.admit(spec(t, 0.8, 8)).unwrap();
        }
        assert!(matches!(
            fleet.admit(spec(10_000, 0.8, 8)),
            Err(AdmitError::Rejected { reason: "fleet at policy capacity" })
        ));
        assert_eq!(fleet.norros_cache.len(), 1, "one H → one cached scan");
    }
}
