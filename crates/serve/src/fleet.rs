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
//! A [`TenantSpec`] is admitted, queued, or rejected:
//! * duplicate tenant IDs and unbuildable parameters are rejected with
//!   typed errors;
//! * a fleet over its [`AdmissionPolicy`] capacity is rejected;
//! * a fleet whose recent slots are missing their deadline (overrun
//!   ratio above `max_overrun_ratio`) *queues* the spec instead of
//!   placing it — call [`Fleet::drain_pending`] once the fleet is
//!   healthy again.

use crate::tenant::{GroupKey, TenantId, TenantSpec};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};
use vbr_fgn::{BatchStream, FgnError, StreamState};
use vbr_qsim::admit_by_norros;
use vbr_stats::obs::{self, Counter};
use vbr_stats::par::{num_threads, par_for_each_mut, sized_width};
use vbr_stats::snapshot::{ParamHasher, SnapshotError, SnapshotReader, SnapshotWriter};

/// Section tag of the fleet snapshot ("FLET").
const TAG_FLEET: u32 = 0x464C_4554;

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
    /// Samples each source renders per slot.
    pub slot_len: usize,
    /// Capacity rule for admission.
    pub policy: AdmissionPolicy,
    /// Wall-clock budget for one slot (generation and aggregation);
    /// `None` disables overrun tracking (and with it deadline-based
    /// queueing).
    pub slot_deadline: Option<Duration>,
    /// Queue (rather than place) new tenants once the overrun ratio —
    /// overrun slots over deadline-eligible slots — exceeds this.
    pub max_overrun_ratio: f64,
}

impl FleetConfig {
    /// A minimal config: `slot_len` samples per slot, a fixed cap, and
    /// no deadline tracking.
    ///
    /// The first argument is ignored. It was the shard count, which is
    /// now the pool width (one shard per worker, see [`Fleet::new`]); it
    /// stays so that callers written against the three-argument form
    /// still compile.
    pub fn fixed(_ignored: usize, slot_len: usize, max_sources: usize) -> FleetConfig {
        FleetConfig {
            slot_len,
            policy: AdmissionPolicy::FixedCap { max_sources },
            slot_deadline: None,
            max_overrun_ratio: 0.5,
        }
    }

    /// FNV-1a digest of every configuration field and the snapshot
    /// layout version, for the snapshot header. Floats hash by bit
    /// pattern. `v2` is the width-independent layout; a `v1` snapshot
    /// (one section per shard) is refused as a hash mismatch.
    pub fn param_hash(&self) -> u64 {
        let h = ParamHasher::new()
            .str("vbr-fleet/v2")
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
    /// Placed, and generating from the next slot.
    Admitted,
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
    /// Specs deferred by deadline slip, FIFO.
    pending: VecDeque<TenantSpec>,
    ids: HashSet<TenantId>,
    slots_done: u64,
    overruns: u64,
    /// Deadline-eligible slots: slots of a non-empty fleet advanced while
    /// a slot deadline was configured. The overrun ratio's denominator —
    /// the same population the numerator is drawn from.
    eligible_slots: u64,
    /// Norros cap per Hurst bit pattern (the scan is `O(n_max)`).
    norros_cache: HashMap<u64, usize>,
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

    /// Active (placed) sources.
    pub fn sources(&self) -> usize {
        self.shards.iter().map(Shard::sources).sum()
    }

    /// Distinct batch groups (distinct [`GroupKey`]s) — how well tenant
    /// packing is amortising spectra and FFT plans.
    pub fn groups(&self) -> usize {
        self.keys.len()
    }

    /// Specs waiting in the pending queue.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Lockstep slots completed.
    pub fn slots_done(&self) -> u64 {
        self.slots_done
    }

    /// Slots that exceeded the deadline.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// Overrun slots over deadline-eligible slots — slots advanced with
    /// at least one source while a deadline was configured, the same
    /// population overruns are counted from (0 before any eligible slot).
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
    /// otherwise places it as the next source in admission order.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<Admission, AdmitError> {
        if self.ids.contains(&spec.tenant) {
            obs::counter_add(Counter::FleetAdmissionRejects, 1);
            return Err(AdmitError::Rejected { reason: "duplicate tenant id" });
        }
        let cap = self.capacity_for(&spec);
        if self.sources() + self.pending.len() >= cap {
            obs::counter_add(Counter::FleetAdmissionRejects, 1);
            return Err(AdmitError::Rejected { reason: "fleet at policy capacity" });
        }
        if self.cfg.slot_deadline.is_some() && self.overrun_ratio() > self.cfg.max_overrun_ratio {
            self.pending.push_back(spec);
            self.ids.insert(spec.tenant);
            return Ok(Admission::Queued { position: self.pending.len() - 1 });
        }
        self.place(spec).map_err(AdmitError::Invalid)?;
        Ok(Admission::Admitted)
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

    /// Places a spec as the next source in admission order (assumes the
    /// policy checks already passed).
    fn place(&mut self, spec: TenantSpec) -> Result<(), FgnError> {
        let g = self.group_id(GroupKey::of(&spec))?;
        self.next_shard().push(g, spec.seed, spec.tenant);
        self.ids.insert(spec.tenant);
        obs::counter_add(Counter::FleetSourcesAdmitted, 1);
        Ok(())
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
                Ok(()) => placed += 1,
                Err(_) => {
                    self.ids.remove(&spec.tenant);
                }
            }
        }
        placed
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
        // Wall-clock stamp for SLO accounting only: never read back into
        // any generation path.
        let t0 = Instant::now();
        par_for_each_mut(&mut self.shards, |_, shard| shard.advance_slot());
        self.aggregate(agg);
        let n = self.sources();
        if let Some(deadline) = self.cfg.slot_deadline {
            if n > 0 {
                self.eligible_slots += 1;
                if t0.elapsed() > deadline {
                    self.overruns += 1;
                    obs::counter_add(Counter::FleetSlotOverruns, 1);
                }
            }
        }
        self.slots_done += 1;
        obs::counter_add(Counter::FleetSlots, 1);
        obs::counter_add(Counter::FleetSlices, n as u64);
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
    /// `slots_done` as the snapshot sequence number: the slot and overrun
    /// counters, the group keys in first-admission order, then every
    /// source's group id and dynamic state in admission order. Nothing in
    /// it names a shard, so the bytes do not depend on the pool width.
    /// Pending (queued, never-placed) specs are deliberately *not*
    /// persisted: they have no dynamic state, and their owners re-submit
    /// on reconnect.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(self.cfg.param_hash(), self.slots_done);
        w.section(TAG_FLEET, |p| {
            p.put_u64(self.slots_done);
            p.put_u64(self.overruns);
            p.put_u64(self.eligible_slots);
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
        fleet.overruns = s.get_u64()?;
        fleet.eligible_slots = s.get_u64()?;
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
            p.put_u64(0);
            p.put_u64(0);
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
            assert!(matches!(fleet.admit(*s), Ok(Admission::Admitted)));
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

        let mut other = FleetConfig::fixed(1, 4, 64);
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
            .f64(cfg.max_overrun_ratio)
            .str("cap")
            .usize(64)
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

    #[test]
    fn overrun_ratio_counts_only_slots_with_sources() {
        // An unmeetable deadline: the empty fleet's slots are not
        // eligible, so they neither overrun nor dilute the ratio; every
        // slot once a source is placed overruns, so it reads 1.0.
        let mut cfg = FleetConfig::fixed(1, 4, 64);
        cfg.slot_deadline = Some(Duration::from_nanos(0));
        let mut fleet = Fleet::new(cfg);
        let mut slot = [0.0; 4];
        fleet.advance_slot(&mut slot);
        assert_eq!((fleet.overruns(), fleet.overrun_ratio()), (0, 0.0));
        fleet.admit(spec(1, 0.8, 8)).unwrap();
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
