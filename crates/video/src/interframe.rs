//! Interframe (predictive) coding — the coding family the paper
//! contrasts with its intraframe code: "Greater compression, burstiness
//! and much stronger dependence on motion result from interframe coding,
//! i.e., coding frame differences…" (§1). The paper's main results were
//! later shown to extend to interframe MPEG [GARR93a, PANC94].
//!
//! This module implements conditional-replenishment DPCM on top of the
//! intraframe machinery: each 8×8 block of the residual against the
//! previous *reconstructed* frame is DCT-coded; an I-frame (pure
//! intraframe) is inserted every `gop` frames to bound drift, as real
//! coders do.

use crate::coder::{CodedFrame, IntraframeCoder};
use crate::frame::Frame;

/// An interframe coder: intraframe I-frames plus DCT-coded residual
/// P-frames.
#[derive(Debug, Clone)]
pub struct InterframeCoder {
    intra: IntraframeCoder,
    /// Group-of-pictures length: one I-frame every `gop` frames.
    gop: usize,
    /// Previous reconstructed frame (prediction reference).
    reference: Option<Frame>,
    /// Frames coded since the last I-frame.
    since_i: usize,
}

/// Which way a frame was coded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Intraframe (no prediction).
    I,
    /// Predicted from the previous reconstructed frame.
    P,
}

impl InterframeCoder {
    /// Wraps a trained intraframe coder with a GOP structure.
    pub fn new(intra: IntraframeCoder, gop: usize) -> Self {
        assert!(gop >= 1, "GOP length must be at least 1");
        InterframeCoder { intra, gop, reference: None, since_i: 0 }
    }

    /// The underlying intraframe coder.
    pub fn intra(&self) -> &IntraframeCoder {
        &self.intra
    }

    /// Resets the prediction state (e.g., at a scene cut).
    pub fn reset(&mut self) {
        self.reference = None;
        self.since_i = 0;
    }

    /// Codes the next frame of a sequence. Returns the coded frame, its
    /// kind, and the reconstruction (which becomes the next reference).
    pub fn code_next(&mut self, frame: &Frame) -> (CodedFrame, FrameKind, Frame) {
        let force_i = self.reference.is_none() || self.since_i >= self.gop;
        if force_i {
            let coded = self.intra.code_frame(frame);
            let recon = self.intra.decode_frame(&coded, frame.width(), frame.height());
            self.reference = Some(recon.clone());
            self.since_i = 1;
            return (coded, FrameKind::I, recon);
        }

        // P-frame: code the residual against the reference, biased to the
        // 0..255 range so it flows through the same 8-bit pipeline.
        let reference = self.reference.take().expect("reference present");
        let residual = Frame::from_fn(frame.width(), frame.height(), |x, y| {
            let d = frame.get(x, y) as i32 - reference.get(x, y) as i32;
            (d / 2 + 128).clamp(0, 255) as u8
        });
        let coded = self.intra.code_frame(&residual);
        let resid_recon =
            self.intra.decode_frame(&coded, frame.width(), frame.height());
        let recon = Frame::from_fn(frame.width(), frame.height(), |x, y| {
            let d = (resid_recon.get(x, y) as i32 - 128) * 2;
            (reference.get(x, y) as i32 + d).clamp(0, 255) as u8
        });
        self.reference = Some(recon.clone());
        self.since_i += 1;
        (coded, FrameKind::P, recon)
    }

    /// Codes a whole sequence, returning per-frame byte counts and kinds.
    pub fn code_sequence(&mut self, frames: &[Frame]) -> Vec<(u32, FrameKind)> {
        frames
            .iter()
            .map(|f| {
                let (coded, kind, _) = self.code_next(f);
                (coded.total_bytes(), kind)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coder::{psnr, CoderConfig};
    use crate::synth::{SceneSpec, SceneSynthesizer};

    fn scene(motion: f64, seed: u64) -> SceneSynthesizer {
        SceneSynthesizer::new(SceneSpec {
            complexity: 0.5,
            motion,
            brightness: 128.0,
            seed,
        })
    }

    fn coder_for(frames: &[Frame], gop: usize) -> InterframeCoder {
        let config = CoderConfig { quant_step: 16.0, slices_per_frame: 4 };
        InterframeCoder::new(IntraframeCoder::train(config, frames), gop)
    }

    #[test]
    fn gop_structure_is_respected() {
        let s = scene(0.5, 1);
        let (w, h) = (64, 64);
        let frames: Vec<Frame> = (0..10).map(|t| s.frame(t, w, h)).collect();
        let mut coder = coder_for(&frames[..2], 4);
        let out = coder.code_sequence(&frames);
        let kinds: Vec<FrameKind> = out.iter().map(|&(_, k)| k).collect();
        assert_eq!(kinds[0], FrameKind::I);
        assert_eq!(kinds[4], FrameKind::I);
        assert_eq!(kinds[8], FrameKind::I);
        for &i in &[1usize, 2, 3, 5, 6, 7, 9] {
            assert_eq!(kinds[i], FrameKind::P, "frame {i}");
        }
    }

    #[test]
    fn static_scene_p_frames_are_tiny() {
        // No motion: residual ≈ noise only → P-frames far smaller than I.
        let s = scene(0.0, 2);
        let (w, h) = (64, 64);
        let frames: Vec<Frame> = (0..6).map(|_| s.frame(0, w, h)).collect();
        let mut coder = coder_for(&frames[..2], 100);
        let out = coder.code_sequence(&frames);
        let i_bytes = out[0].0;
        let p_bytes: f64 =
            out[1..].iter().map(|&(b, _)| b as f64).sum::<f64>() / (out.len() - 1) as f64;
        assert!(
            p_bytes < 0.4 * i_bytes as f64,
            "P avg {p_bytes} vs I {i_bytes}"
        );
    }

    #[test]
    fn motion_raises_interframe_rate_more_than_intraframe() {
        // "much stronger dependence on motion" — the interframe P-rate
        // responds to motion far more than the intraframe rate does.
        let (w, h) = (64, 64);
        let slow = scene(0.05, 3);
        let fast = scene(3.0, 3);
        let train: Vec<Frame> = (0..2)
            .map(|t| slow.frame(t, w, h))
            .chain((0..2).map(|t| fast.frame(t, w, h)))
            .collect();

        let p_rate = |sc: &SceneSynthesizer| {
            let mut c = coder_for(&train, 1000);
            let frames: Vec<Frame> = (0..8).map(|t| sc.frame(t, w, h)).collect();
            let out = c.code_sequence(&frames);
            out[1..].iter().map(|&(b, _)| b as f64).sum::<f64>() / 7.0
        };
        let intra_rate = |sc: &SceneSynthesizer| {
            let c = IntraframeCoder::train(
                CoderConfig { quant_step: 16.0, slices_per_frame: 4 },
                &train,
            );
            (0..8)
                .map(|t| c.code_frame(&sc.frame(t, w, h)).total_bytes() as f64)
                .sum::<f64>()
                / 8.0
        };

        let inter_ratio = p_rate(&fast) / p_rate(&slow);
        let intra_ratio = intra_rate(&fast) / intra_rate(&slow);
        assert!(
            inter_ratio > 1.5 * intra_ratio,
            "interframe motion sensitivity {inter_ratio:.2} vs intraframe {intra_ratio:.2}"
        );
    }

    #[test]
    fn reconstruction_quality_stays_reasonable_through_gop() {
        let s = scene(0.8, 4);
        let (w, h) = (64, 64);
        let frames: Vec<Frame> = (0..9).map(|t| s.frame(t, w, h)).collect();
        let mut coder = coder_for(&frames[..3], 8);
        for f in &frames {
            let (_, _, recon) = coder.code_next(f);
            let q = psnr(f, &recon);
            assert!(q > 22.0, "PSNR dropped to {q} dB");
        }
    }

    #[test]
    fn reset_forces_an_i_frame() {
        let s = scene(0.5, 5);
        let (w, h) = (64, 64);
        let frames: Vec<Frame> = (0..4).map(|t| s.frame(t, w, h)).collect();
        let mut coder = coder_for(&frames[..2], 100);
        coder.code_next(&frames[0]);
        let (_, k1, _) = coder.code_next(&frames[1]);
        assert_eq!(k1, FrameKind::P);
        coder.reset();
        let (_, k2, _) = coder.code_next(&frames[2]);
        assert_eq!(k2, FrameKind::I);
    }

    #[test]
    fn interframe_compresses_better_on_average() {
        let s = scene(0.3, 6);
        let (w, h) = (64, 64);
        let frames: Vec<Frame> = (0..12).map(|t| s.frame(t, w, h)).collect();
        let mut inter = coder_for(&frames[..3], 12);
        let intra = IntraframeCoder::train(
            CoderConfig { quant_step: 16.0, slices_per_frame: 4 },
            &frames[..3],
        );
        let inter_total: u64 =
            inter.code_sequence(&frames).iter().map(|&(b, _)| b as u64).sum();
        let intra_total: u64 =
            frames.iter().map(|f| intra.code_frame(f).total_bytes() as u64).sum();
        assert!(
            inter_total < intra_total,
            "interframe {inter_total} should beat intraframe {intra_total}"
        );
    }
}
