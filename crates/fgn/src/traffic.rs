//! The `TrafficModel` trait — the seam every generator family plugs
//! into.
//!
//! The paper's Fig 16 compares *one* model family against the trace; the
//! model-zoo bake-off compares several (fARIMA + Gamma/Pareto, the
//! multifractal wavelet model, the Markov scene chain) under the *same*
//! estimators and queueing experiments — the methodological point raised
//! by Clegg et al.: an LRD conclusion should survive a change of
//! generator. A `TrafficModel` is a [`BlockSource`] (so all streaming
//! machinery — marginal transforms, fluid queues, batch schedulers —
//! consumes it unchanged) that additionally knows its nominal moments and
//! Hurst parameter and can checkpoint itself over the snapshot codec.

use vbr_stats::snapshot::{Payload, Section, SnapshotError, SnapshotReader, SnapshotWriter};
use vbr_stats::ParamHasher;

use crate::stream::BlockSource;

/// Section tag every [`TrafficModel`] snapshot stores its state under.
pub const TRAFFIC_STATE_TAG: u32 = 0x5452_4146; // "TRAF"

/// A checkpointable traffic generator with known nominal statistics.
///
/// Contract (enforced by the conformance suite in `vbr-model`):
///
/// - **Determinism:** two instances built with the same parameters and
///   seed emit identical sample streams, independent of the block sizes
///   the consumer happens to request.
/// - **Snapshot/restore:** [`snapshot`](Self::snapshot) captures the full
///   dynamic state; [`restore`](Self::restore) into a same-parameter
///   instance resumes the stream bit-identically from the snapshot
///   point, at *any* sample boundary. Restore validates before mutating:
///   on error the target instance is unchanged.
/// - **Marginal:** emitted samples are non-negative (they are frame or
///   slice sizes) and finite.
/// - **Nominal H:** [`nominal_hurst`](Self::nominal_hurst) returns the
///   asymptotic Hurst parameter the model *aims* for, or `None` for a
///   short-range-dependent family (the scene chain) where `H = ½` is the
///   honest asymptote but no LRD claim is made.
/// - **Send:** a model can move to another thread, so the bake-off scores
///   its members concurrently on the worker pool.
pub trait TrafficModel: BlockSource + Send {
    /// Short family name, used in bake-off tables and artifacts.
    fn name(&self) -> &'static str;

    /// Asymptotic Hurst parameter the model targets, if it targets one.
    fn nominal_hurst(&self) -> Option<f64>;

    /// Marginal mean the model was fitted to.
    fn nominal_mean(&self) -> f64;

    /// Marginal variance the model was fitted to.
    fn nominal_variance(&self) -> f64;

    /// FNV-1a hash over the model's *static* configuration — the
    /// compatibility key snapshots are validated against.
    fn param_hash(&self) -> u64;

    /// Serialises the dynamic state into a snapshot section payload.
    fn encode_state(&self, p: &mut Payload);

    /// Restores the dynamic state from a snapshot section, validating
    /// before mutating `self`.
    fn decode_state(&mut self, s: &mut Section) -> Result<(), SnapshotError>;

    /// Captures a self-describing snapshot (versioned, CRC-protected,
    /// parameter-hashed) of the dynamic state.
    fn snapshot(&self, seq: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new(self.param_hash(), seq);
        w.section(TRAFFIC_STATE_TAG, |p| self.encode_state(p));
        w.finish()
    }

    /// Restores from a [`snapshot`](Self::snapshot) taken on a
    /// same-parameter instance; returns the snapshot's sequence number.
    /// Validates magic, version, CRC and parameter hash before touching
    /// any state.
    fn restore(&mut self, bytes: &[u8]) -> Result<u64, SnapshotError> {
        let mut r = SnapshotReader::open(bytes)?;
        r.require_param_hash(self.param_hash())?;
        let seq = r.seq();
        let mut s = r.section(TRAFFIC_STATE_TAG, "traffic model state")?;
        self.decode_state(&mut s)?;
        s.finish()?;
        Ok(seq)
    }

    /// Draws the next `n` samples as an owned series — the convenience
    /// entry the estimation refit loops use.
    fn sample_series(&mut self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        self.next_block(&mut out);
        out
    }
}

/// The reference trace itself as a degenerate [`TrafficModel`]: replays
/// the stored series, cycling at the end (the same wraparound the
/// multiplexer applies to lagged copies). This is the bake-off's control
/// row — every score is computed for it exactly as for a real model, so
/// "how well can a model do" has an empirical ceiling.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Vec<f64>,
    pos: usize,
    mean: f64,
    variance: f64,
}

impl TraceReplay {
    /// Wraps a non-empty, finite, non-negative series.
    pub fn new(trace: Vec<f64>) -> Self {
        assert!(!trace.is_empty(), "TraceReplay needs a non-empty trace");
        assert!(
            trace.iter().all(|x| x.is_finite() && *x >= 0.0),
            "TraceReplay trace must be finite and non-negative"
        );
        let n = trace.len() as f64;
        let mean = trace.iter().sum::<f64>() / n;
        let variance = trace.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        TraceReplay { trace, pos: 0, mean, variance }
    }
}

impl BlockSource for TraceReplay {
    fn next_block(&mut self, out: &mut [f64]) {
        for y in out.iter_mut() {
            *y = self.trace[self.pos];
            self.pos += 1;
            if self.pos == self.trace.len() {
                self.pos = 0;
            }
        }
    }
}

impl TrafficModel for TraceReplay {
    fn name(&self) -> &'static str {
        "trace-replay"
    }

    fn nominal_hurst(&self) -> Option<f64> {
        None
    }

    fn nominal_mean(&self) -> f64 {
        self.mean
    }

    fn nominal_variance(&self) -> f64 {
        self.variance
    }

    fn param_hash(&self) -> u64 {
        ParamHasher::new()
            .str("trace-replay")
            .usize(self.trace.len())
            .f64(self.mean)
            .f64(self.variance)
            .finish()
    }

    fn encode_state(&self, p: &mut Payload) {
        p.put_usize(self.pos);
    }

    fn decode_state(&mut self, s: &mut Section) -> Result<(), SnapshotError> {
        let pos = s.get_usize()?;
        if pos >= self.trace.len() {
            return Err(SnapshotError::Invalid { what: "replay position out of range" });
        }
        self.pos = pos;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_cycles_and_restores() {
        let mut m = TraceReplay::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(m.sample_series(5), vec![1.0, 2.0, 3.0, 1.0, 2.0]);
        let snap = m.snapshot(7);
        let tail = m.sample_series(4);
        let mut fresh = TraceReplay::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(fresh.restore(&snap).unwrap(), 7);
        assert_eq!(fresh.sample_series(4), tail);
    }

    #[test]
    fn replay_rejects_foreign_snapshot() {
        let m = TraceReplay::new(vec![1.0, 2.0, 3.0]);
        let snap = m.snapshot(0);
        let mut other = TraceReplay::new(vec![4.0, 5.0]);
        assert!(matches!(
            other.restore(&snap),
            Err(SnapshotError::ParamHashMismatch { .. })
        ));
        // And the failed restore left the target untouched.
        assert_eq!(other.sample_series(2), vec![4.0, 5.0]);
    }

    #[test]
    fn replay_nominal_moments_match_trace() {
        let m = TraceReplay::new(vec![2.0, 4.0, 6.0, 8.0]);
        assert!((m.nominal_mean() - 5.0).abs() < 1e-12);
        assert!((m.nominal_variance() - 5.0).abs() < 1e-12);
        assert_eq!(m.nominal_hurst(), None);
    }
}
