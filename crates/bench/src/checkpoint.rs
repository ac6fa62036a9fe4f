//! Durable checkpoint/restore for the streaming pipeline (DESIGN.md §13).
//!
//! A checkpoint captures the *dynamic* state of the generate → transform
//! → queue pipeline — stream seam, RNG, queue accounting, running totals
//! and the trace digest — keyed by a hash of the *static* configuration.
//! Restore rebuilds the pipeline from configuration, verifies the hash,
//! and grafts the state back so the resumed run is bit-identical to one
//! that was never interrupted.
//!
//! Durability model: each checkpoint is written to a temp file, fsynced,
//! and renamed over the older of two generation slots. A crash therefore
//! leaves at most one damaged generation; the degradation ladder at
//! restore time is
//!
//! 1. newest valid generation → [`Recovery::Latest`];
//! 2. newest damaged or refused, previous valid → [`Recovery::Previous`]
//!    (raises [`Counter::CheckpointFallbacks`] — the alarm);
//! 3. nothing valid → [`Recovery::ColdStart`] (alarmed only when
//!    damaged or refused files were present — a first run has nothing
//!    to restore).
//!
//! A *damaged* file is unreadable or fails the codec's checks; a
//! *refused* one is intact but was written under a different parameter
//! hash (another configuration or snapshot layout), so restoring it
//! would graft foreign state. The two are counted apart.
//!
//! Hostile bytes (truncation, torn writes, bit flips, stale swaps) are
//! rejected by the snapshot codec's CRCs and the per-field validation in
//! each component's `restore_state`; no corruption mode can panic the
//! restore path.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use vbr_fgn::StreamState;
use vbr_qsim::QueueState;
use vbr_stats::obs::{self, Counter};
use vbr_stats::snapshot::{ParamHasher, SnapshotError, SnapshotReader, SnapshotWriter};

/// Section tags inside a pipeline snapshot (arbitrary but fixed).
const TAG_META: u32 = 0x4D45_5441; // "META"
const TAG_STREAM: u32 = 0x5354_524D; // "STRM"
const TAG_QUEUE: u32 = 0x5155_4555; // "QUEU"

/// The static configuration of the streaming pipeline — everything the
/// restore target is rebuilt from, and therefore everything the
/// parameter hash must cover. Restoring a snapshot against a config
/// with a different hash is a typed error, never a silent graft.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Hurst parameter of the fGn source.
    pub hurst: f64,
    /// Marginal variance of the Gaussian source.
    pub variance: f64,
    /// Streaming block size in samples.
    pub block: usize,
    /// Lookup-table resolution of the marginal transform (0 = exact).
    pub table_n: usize,
    /// Gamma/Pareto marginal parameters (mean, sd, Pareto shape).
    pub marginal: (f64, f64, f64),
    /// Slot duration in seconds.
    pub dt: f64,
    /// Queue service capacity in bytes per second.
    pub capacity_bps: f64,
    /// Queue buffer in bytes.
    pub buffer_bytes: f64,
    /// Generator seed.
    pub seed: u64,
}

impl PipelineConfig {
    /// FNV-1a hash over every parameter, stored in snapshot headers and
    /// re-derived at restore time to refuse mismatched configurations.
    pub fn param_hash(&self) -> u64 {
        ParamHasher::new()
            .str("vbr-pipeline/v1")
            .f64(self.hurst)
            .f64(self.variance)
            .usize(self.block)
            .usize(self.table_n)
            .f64(self.marginal.0)
            .f64(self.marginal.1)
            .f64(self.marginal.2)
            .f64(self.dt)
            .f64(self.capacity_bps)
            .f64(self.buffer_bytes)
            .u64(self.seed)
            .finish()
    }
}

/// Running FNV-1a digest over emitted slice values (their raw IEEE-754
/// bits). Each sample folds in as one `u64` word — one
/// xor and one multiply per sample instead of eight, which matters when
/// the digest shadows a 25 Mslices/s stream. Digests are only ever
/// compared between runs of the same build (resume drills, width/shard
/// sweeps), so the word-wise variant is as good an identity witness as
/// the byte-wise one. Carried inside every checkpoint so a resumed
/// run's final digest covers *all* slices — including those emitted by
/// the process that died — and must equal the uninterrupted run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    h: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl TraceDigest {
    /// Fresh digest (FNV offset basis).
    pub fn new() -> Self {
        TraceDigest { h: FNV_OFFSET }
    }

    /// Resumes a digest from a value carried in a checkpoint.
    pub fn from_value(h: u64) -> Self {
        TraceDigest { h }
    }

    /// Folds a block of emitted slices into the digest.
    pub fn update(&mut self, xs: &[f64]) {
        let mut h = self.h;
        for &x in xs {
            h ^= x.to_bits();
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.h = h;
    }

    /// Current digest value.
    pub fn value(&self) -> u64 {
        self.h
    }
}

impl Default for TraceDigest {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything the pipeline mutates while running: progress, totals, the
/// trace digest, and the component states (stream seam + RNG, queue
/// accounting). Serialized with the vbr-stats snapshot codec; all
/// floats round-trip as raw bits.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineState {
    /// Slices fully processed (generated, transformed, queued).
    pub slices_done: u64,
    /// Total bytes offered to the queue so far.
    pub total_bytes: f64,
    /// Running [`TraceDigest`] value over the emitted slices.
    pub digest: u64,
    /// `CheckpointWrites` counter value at snapshot time, so a resumed
    /// run's observability totals match an uninterrupted run's.
    pub checkpoint_writes: u64,
    /// fGn/F-ARIMA stream state.
    pub stream: StreamState,
    /// Fluid queue state.
    pub queue: QueueState,
}

impl PipelineState {
    /// Serializes the state into a standalone snapshot blob with the
    /// given parameter hash and sequence number.
    pub fn encode(&self, param_hash: u64, seq: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new(param_hash, seq);
        w.section(TAG_META, |p| {
            p.put_u64(self.slices_done);
            p.put_f64(self.total_bytes);
            p.put_u64(self.digest);
            p.put_u64(self.checkpoint_writes);
        });
        w.section(TAG_STREAM, |p| self.stream.encode(p));
        w.section(TAG_QUEUE, |p| self.queue.encode(p));
        w.finish()
    }

    /// Decodes a snapshot blob, verifying the magic, codec version,
    /// whole-file CRC, per-section CRCs, and the parameter hash against
    /// `param_hash`. Returns the snapshot's sequence number alongside
    /// the state. Structural validation only — grafting the parts onto
    /// live components applies their own semantic checks.
    pub fn decode(bytes: &[u8], param_hash: u64) -> Result<(u64, Self), SnapshotError> {
        let mut r = SnapshotReader::open(bytes)?;
        r.require_param_hash(param_hash)?;
        let seq = r.seq();

        let mut s = r.section(TAG_META, "pipeline meta")?;
        let slices_done = s.get_u64()?;
        let total_bytes = s.get_f64()?;
        let digest = s.get_u64()?;
        let checkpoint_writes = s.get_u64()?;
        s.finish()?;

        let mut s = r.section(TAG_STREAM, "stream state")?;
        let stream = StreamState::decode(&mut s)?;
        s.finish()?;

        let mut s = r.section(TAG_QUEUE, "queue state")?;
        let queue = QueueState::decode(&mut s)?;
        s.finish()?;

        if !total_bytes.is_finite() || total_bytes < 0.0 {
            return Err(SnapshotError::Invalid { what: "total_bytes" });
        }
        Ok((seq, PipelineState { slices_done, total_bytes, digest, checkpoint_writes, stream, queue }))
    }
}

/// What a restore attempt resolved to — the rungs of the degradation
/// ladder. Never an error and never a panic: the worst outcome of any
/// corruption is a cold start with the alarm counter raised.
///
/// Generic over the decoded state so the same ladder serves the
/// single-stream pipeline ([`PipelineState`], the default) and the
/// fleet-serving snapshots (see [`CheckpointStore::recover_with`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Recovery<T = PipelineState> {
    /// The newest generation restored cleanly.
    Latest {
        /// Snapshot sequence number.
        seq: u64,
        /// The decoded state.
        state: T,
    },
    /// The newest generation was damaged or refused; the previous one
    /// restored. [`Counter::CheckpointFallbacks`] has been raised.
    Previous {
        /// Snapshot sequence number of the surviving generation.
        seq: u64,
        /// The decoded state.
        state: T,
        /// Generation files that existed but failed validation.
        damaged: usize,
        /// Intact generation files written under another parameter hash.
        refused: usize,
    },
    /// Nothing restorable. `damaged == refused == 0` means a genuinely
    /// fresh start (no checkpoint files at all); otherwise every
    /// existing generation was damaged or refused and the alarm has
    /// been raised.
    ColdStart {
        /// Generation files that existed but failed validation.
        damaged: usize,
        /// Intact generation files written under another parameter hash.
        refused: usize,
    },
}

/// The generation files a restore passed over, in words for a resume
/// message: `"1 file(s) damaged"`, `"2 file(s) written by a different
/// configuration"`, or both joined by `", "`.
pub fn skipped_files(damaged: usize, refused: usize) -> String {
    let mut parts = Vec::new();
    if damaged > 0 {
        parts.push(format!("{damaged} file(s) damaged"));
    }
    if refused > 0 {
        parts.push(format!("{refused} file(s) written by a different configuration"));
    }
    parts.join(", ")
}

/// A two-generation rotated checkpoint store in a directory.
///
/// Writes are atomic (temp file + fsync + rename) and alternate between
/// two slots keyed by snapshot sequence parity, so the previous
/// generation is never overwritten in place and always survives a crash
/// mid-write.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

/// Generation slot file names (sequence parity picks the slot).
const GEN_FILES: [&str; 2] = ["ckpt_even.bin", "ckpt_odd.bin"];

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The slot file a snapshot with sequence `seq` lands in.
    pub fn generation_path(&self, seq: u64) -> PathBuf {
        self.dir.join(GEN_FILES[(seq % 2) as usize])
    }

    /// Atomically persists a checkpoint: encode, write to a temp file,
    /// fsync, rename over the older generation slot. Raises
    /// [`Counter::CheckpointWrites`] on success.
    pub fn write(&self, state: &PipelineState, param_hash: u64, seq: u64) -> io::Result<PathBuf> {
        self.write_bytes(&state.encode(param_hash, seq), seq)
    }

    /// [`write`](Self::write) for an already-encoded snapshot blob —
    /// the entry point for non-pipeline payloads (fleet/shard snapshots)
    /// that bring their own codec. Same durability: temp file, fsync,
    /// rename over the generation slot picked by `seq` parity.
    pub fn write_bytes(&self, bytes: &[u8], seq: u64) -> io::Result<PathBuf> {
        let tmp = self.dir.join(".ckpt.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        let dst = self.generation_path(seq);
        fs::rename(&tmp, &dst)?;
        obs::counter_add(Counter::CheckpointWrites, 1);
        Ok(dst)
    }

    /// Walks the degradation ladder: decode every generation slot that
    /// exists, take the highest valid sequence, and classify the
    /// outcome. Damaged slots (unreadable, truncated, corrupt) and
    /// refused ones (written under a different configuration) are
    /// counted apart, never fatal. Raises [`Counter::CheckpointResumes`]
    /// when a state is recovered and [`Counter::CheckpointFallbacks`]
    /// whenever a damaged or refused slot forced a rung down the ladder.
    pub fn recover(&self, param_hash: u64) -> Recovery {
        self.recover_with(|bytes| PipelineState::decode(bytes, param_hash))
    }

    /// The degradation ladder for any snapshot payload: `decode` turns a
    /// generation file's bytes into `(seq, state)` or a typed error,
    /// which marks the slot refused when it is
    /// [`SnapshotError::ParamHashMismatch`] and damaged otherwise. The
    /// [`recover`](Self::recover)
    /// semantics — highest valid sequence wins, damage counted, resume
    /// and fallback counters raised — apply unchanged, so the fleet's
    /// shard snapshots get the same never-panic guarantees as the
    /// pipeline's.
    pub fn recover_with<T>(
        &self,
        decode: impl Fn(&[u8]) -> Result<(u64, T), SnapshotError>,
    ) -> Recovery<T> {
        let mut best: Option<(u64, T)> = None;
        let (mut damaged, mut refused) = (0usize, 0usize);
        for name in GEN_FILES {
            let path = self.dir.join(name);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(_) => {
                    damaged += 1;
                    continue;
                }
            };
            match decode(&bytes) {
                Ok((seq, state)) => {
                    if best.as_ref().is_none_or(|(s, _)| seq > *s) {
                        best = Some((seq, state));
                    }
                }
                Err(SnapshotError::ParamHashMismatch { .. }) => refused += 1,
                Err(_) => damaged += 1,
            }
        }
        let skipped = damaged + refused > 0;
        if skipped {
            obs::counter_add(Counter::CheckpointFallbacks, 1);
        }
        match best {
            Some((seq, state)) => {
                obs::counter_add(Counter::CheckpointResumes, 1);
                if skipped {
                    Recovery::Previous { seq, state, damaged, refused }
                } else {
                    Recovery::Latest { seq, state }
                }
            }
            None => Recovery::ColdStart { damaged, refused },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_state(slices_done: u64) -> PipelineState {
        PipelineState {
            slices_done,
            total_bytes: slices_done as f64 * 100.0,
            digest: 0xDEAD ^ slices_done,
            checkpoint_writes: slices_done / 10,
            stream: StreamState {
                rng: [1, 2, 3, slices_done + 1],
                cur: vec![0.5, -1.5],
                tail: vec![],
                pos: 1,
                started: true,
                tenant: 0,
            },
            queue: QueueState { backlog: 5.0, arrived: 20.0, lost: 0.0, served: 15.0 },
        }
    }

    /// Held by every test that raises or reads the process-wide
    /// fallback counter, so no test's recoveries land between another
    /// test's before and after readings.
    fn fallback_counter_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tmp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("vbr_ckpt_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        CheckpointStore::new(dir).unwrap()
    }

    #[test]
    fn param_hash_distinguishes_configs() {
        let base = PipelineConfig {
            hurst: 0.8,
            variance: 1.0,
            block: 1 << 14,
            table_n: 10_000,
            marginal: (27_791.0, 6_254.0, 9.0),
            dt: 1.0 / 720.0,
            capacity_bps: 2.4e10,
            buffer_bytes: 1e6,
            seed: 42,
        };
        let h0 = base.param_hash();
        assert_eq!(h0, base.param_hash(), "hash must be stable");
        for variant in [
            PipelineConfig { hurst: 0.7, ..base.clone() },
            PipelineConfig { block: 1 << 13, ..base.clone() },
            PipelineConfig { seed: 43, ..base.clone() },
            PipelineConfig { marginal: (27_791.0, 6_254.0, 8.0), ..base.clone() },
        ] {
            assert_ne!(h0, variant.param_hash(), "{variant:?}");
        }
    }

    #[test]
    fn pipeline_state_round_trips() {
        let st = toy_state(1234);
        let bytes = st.encode(0xABCDEF, 7);
        let (seq, got) = PipelineState::decode(&bytes, 0xABCDEF).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(got, st);
        // Wrong parameter hash is a typed refusal.
        assert!(matches!(
            PipelineState::decode(&bytes, 0xABCDE0),
            Err(SnapshotError::ParamHashMismatch { .. })
        ));
    }

    #[test]
    fn digest_is_resumable() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 1e4).collect();
        let mut whole = TraceDigest::new();
        whole.update(&xs);
        let mut left = TraceDigest::new();
        left.update(&xs[..37]);
        let mut resumed = TraceDigest::from_value(left.value());
        resumed.update(&xs[37..]);
        assert_eq!(resumed.value(), whole.value());
        assert_ne!(whole.value(), TraceDigest::new().value());
    }

    #[test]
    fn store_rotates_two_generations_and_recovers_latest() {
        let store = tmp_store("rotate");
        let hash = 0x1111;
        store.write(&toy_state(100), hash, 0).unwrap();
        store.write(&toy_state(200), hash, 1).unwrap();
        match store.recover(hash) {
            Recovery::Latest { seq, state } => {
                assert_eq!(seq, 1);
                assert_eq!(state.slices_done, 200);
            }
            other => panic!("expected Latest, got {other:?}"),
        }
        // A third write replaces the oldest slot, keeping two files.
        store.write(&toy_state(300), hash, 2).unwrap();
        assert_eq!(std::fs::read_dir(store.dir()).unwrap().count(), 2);
        match store.recover(hash) {
            Recovery::Latest { seq, state } => {
                assert_eq!(seq, 2);
                assert_eq!(state.slices_done, 300);
            }
            other => panic!("expected Latest, got {other:?}"),
        }
    }

    #[test]
    fn damaged_latest_falls_back_to_previous_generation() {
        let _counter = fallback_counter_lock();
        let store = tmp_store("fallback");
        let hash = 0x2222;
        store.write(&toy_state(100), hash, 4).unwrap();
        store.write(&toy_state(200), hash, 5).unwrap();
        // Damage the newest generation (seq 5 → odd slot).
        let inj = crate::faults::FaultInjector::new(3);
        inj.corrupt_file(&store.generation_path(5), crate::faults::FileCorruption::BitFlips)
            .unwrap();
        let before = obs::counter_value(Counter::CheckpointFallbacks);
        match store.recover(hash) {
            Recovery::Previous { seq, state, damaged, refused } => {
                assert_eq!(seq, 4);
                assert_eq!(state.slices_done, 100);
                assert_eq!((damaged, refused), (1, 0));
            }
            other => panic!("expected Previous, got {other:?}"),
        }
        assert_eq!(obs::counter_value(Counter::CheckpointFallbacks), before + 1);
    }

    #[test]
    fn all_generations_damaged_is_an_alarmed_cold_start() {
        let _counter = fallback_counter_lock();
        let store = tmp_store("coldstart");
        let hash = 0x3333;
        store.write(&toy_state(100), hash, 0).unwrap();
        store.write(&toy_state(200), hash, 1).unwrap();
        let inj = crate::faults::FaultInjector::new(3);
        for seq in [0, 1] {
            inj.corrupt_file(
                &store.generation_path(seq),
                crate::faults::FileCorruption::Truncated,
            )
            .unwrap();
        }
        assert_eq!(store.recover(hash), Recovery::ColdStart { damaged: 2, refused: 0 });
        // An empty store is a quiet cold start (no alarm).
        let empty = tmp_store("empty");
        let before = obs::counter_value(Counter::CheckpointFallbacks);
        assert_eq!(empty.recover(hash), Recovery::ColdStart { damaged: 0, refused: 0 });
        assert_eq!(obs::counter_value(Counter::CheckpointFallbacks), before);
    }

    #[test]
    fn another_configurations_checkpoint_is_refused_not_damaged() {
        let _counter = fallback_counter_lock();
        let store = tmp_store("refused");
        let (hash, other) = (0x6666, 0x6667);
        store.write(&toy_state(100), hash, 2).unwrap();
        store.write(&toy_state(200), other, 3).unwrap();
        let before = obs::counter_value(Counter::CheckpointFallbacks);
        match store.recover(hash) {
            Recovery::Previous { seq, state, damaged, refused } => {
                assert_eq!((seq, state.slices_done), (2, 100));
                assert_eq!((damaged, refused), (0, 1));
            }
            other => panic!("expected Previous, got {other:?}"),
        }
        assert_eq!(obs::counter_value(Counter::CheckpointFallbacks), before + 1);
        // Both generations foreign: a cold start that names them refused.
        store.write(&toy_state(300), other, 4).unwrap();
        assert_eq!(store.recover(hash), Recovery::ColdStart { damaged: 0, refused: 2 });
    }

    #[test]
    fn skipped_files_names_damage_and_refusal_apart() {
        assert_eq!(skipped_files(1, 0), "1 file(s) damaged");
        assert_eq!(skipped_files(0, 2), "2 file(s) written by a different configuration");
        assert_eq!(
            skipped_files(1, 1),
            "1 file(s) damaged, 1 file(s) written by a different configuration"
        );
    }

    #[test]
    fn stale_generation_swap_restores_older_state_not_garbage() {
        // An operator (or failing disk controller) swaps an old snapshot
        // over the newest generation. The stale file is internally
        // consistent, so it passes every CRC — the store must simply
        // restore the highest *valid* sequence it can find, which is now
        // the stale one. The resumed run redoes work but stays correct.
        let store = tmp_store("stale");
        let hash = 0x4444;
        store.write(&toy_state(100), hash, 8).unwrap(); // even slot
        let old = std::fs::read(store.generation_path(8)).unwrap();
        store.write(&toy_state(200), hash, 9).unwrap(); // odd slot
        // Swap the stale even-generation bytes over the odd slot.
        std::fs::write(store.generation_path(9), &old).unwrap();
        match store.recover(hash) {
            Recovery::Latest { seq, state } => {
                assert_eq!(seq, 8);
                assert_eq!(state.slices_done, 100);
            }
            other => panic!("expected Latest(stale), got {other:?}"),
        }
    }

    #[test]
    fn recover_never_panics_on_any_file_corruption_mode() {
        let _counter = fallback_counter_lock();
        let hash = 0x5555;
        for mode in crate::faults::FileCorruption::ALL {
            for seed in 0..8u64 {
                let store = tmp_store(&format!("fuzz_{mode:?}_{seed}"));
                store.write(&toy_state(100), hash, 0).unwrap();
                store.write(&toy_state(200), hash, 1).unwrap();
                let inj = crate::faults::FaultInjector::new(seed);
                inj.corrupt_file(&store.generation_path(1), mode).unwrap();
                // Must resolve to a ladder rung, never panic; any state
                // it does return must be one we actually wrote.
                match store.recover(hash) {
                    Recovery::Latest { state, .. } | Recovery::Previous { state, .. } => {
                        assert!(state.slices_done == 100 || state.slices_done == 200);
                    }
                    Recovery::ColdStart { damaged, refused } => {
                        assert!(damaged >= 1 && refused == 0)
                    }
                }
                std::fs::remove_dir_all(store.dir()).ok();
            }
        }
    }
}
