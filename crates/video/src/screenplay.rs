//! The synthetic "Star Wars-like" movie trace (DESIGN.md substitution
//! table, row 1).
//!
//! The Bellcore trace is long gone, so this module *synthesises* a
//! 171 000-frame trace with the same statistical anatomy the paper
//! documents:
//!
//! - an H ≈ 0.8 long-range-dependent backbone (fractional Gaussian noise),
//! - movie *scene structure*: heavy-ish-tailed scene durations, the
//!   bandwidth held near a scene level with small within-scene jitter, and
//!   occasional two-level alternation ("the camera switches between two
//!   faces", §4.2),
//! - a deterministic *story arc* (intense intro → placid second quarter →
//!   building conflict → climactic finale — the Fig 2 narrative),
//! - scripted macro events: the 42-second opening-text plateau, three
//!   special-effects spikes near the middle ("jump to hyperspace", planet
//!   explosion, "jump from hyperspace") and the 10-second "Death Star"
//!   plateau five minutes from the end (Fig 1's landmarks),
//! - the Gamma-body/Pareto-tail marginal, imposed by the §4.2
//!   probability-integral transform,
//! - 30 slices per frame with Dirichlet-distributed intra-frame weights
//!   calibrated to the slice-level coefficient of variation of Table 2.
//!
//! Crucially, the scene/arc/event machinery gives the trace short-range
//! and deterministic structure that the 4-parameter model of §4 does
//! *not* have, so model-vs-trace comparisons (Fig 16) are not circular.

use crate::trace::Trace;
use vbr_fgn::{DaviesHarte, MarginalTransform, TableMode};
use vbr_stats::dist::{ContinuousDist, Gamma, GammaPareto, Lognormal};
use vbr_stats::rng::Xoshiro256;

/// Configuration of the synthetic movie trace.
#[derive(Debug, Clone)]
pub struct ScreenplayConfig {
    /// Number of frames (paper: 171 000 ≈ 2 hours).
    pub frames: usize,
    /// Frame rate (paper: 24 fps).
    pub fps: f64,
    /// Slices per frame (paper: 30).
    pub slices_per_frame: usize,
    /// Hurst parameter of the LRD backbone (paper: ≈ 0.8).
    pub hurst: f64,
    /// Target mean bytes/frame (paper Table 2: 27 791).
    pub mu: f64,
    /// Target std dev bytes/frame (paper Table 2: 6 254).
    pub sigma: f64,
    /// Pareto tail slope of the marginal (m_T).
    pub tail_slope: f64,
    /// Mean scene length in frames (≈ 10 s).
    pub mean_scene_frames: f64,
    /// Weight of the scene-held component in the Gaussian domain
    /// (the rest is within-scene AR(1) jitter).
    pub scene_hold: f64,
    /// Probability that a scene alternates between two levels.
    pub alternation_prob: f64,
    /// Gamma shape of the intra-frame slice weights (≈ 22 matches the
    /// Table 2 slice-level coefficient of variation).
    pub slice_weight_shape: f64,
    /// Enable the scripted macro events and story arc.
    pub events: bool,
    /// Gaussian-domain saturation: z-scores are clamped here, modelling
    /// the fixed-step quantiser's bounded worst-case output (the paper's
    /// trace peaks at ≈ 3.9 σ).
    pub z_cap: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ScreenplayConfig {
    fn default() -> Self {
        ScreenplayConfig {
            frames: 171_000,
            fps: 24.0,
            slices_per_frame: 30,
            hurst: 0.8,
            mu: 27_791.0,
            sigma: 6_254.0,
            tail_slope: 9.0,
            mean_scene_frames: 240.0,
            scene_hold: 0.72,
            alternation_prob: 0.15,
            slice_weight_shape: 22.0,
            events: true,
            z_cap: 3.9,
            seed: 0x5747_4152, // "STAR" homage; any seed works
        }
    }
}

/// Content genres with distinct statistical fingerprints — the paper
/// notes "other types of video generally have different values of H …
/// For video conferencing, for example, H tends to be smaller, typically
/// between 0.60–0.75" (§3.2.3), and its conclusions call for analysing
/// "more movies of the same and different types".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Genre {
    /// Action movie (the paper's Star Wars-like default): H ≈ 0.8,
    /// strong scene structure, scripted effects.
    ActionMovie,
    /// Slow drama: similar H, longer scenes, smaller dynamic range.
    Drama,
    /// Head-and-shoulders videoconference: weaker LRD (H ≈ 0.65), little
    /// scene structure, low variance, no scripted events.
    Videoconference,
    /// Live sports: high activity and motion, strong short-term bursts.
    Sports,
}

impl ScreenplayConfig {
    /// A short configuration for tests and quick examples.
    pub fn short(frames: usize, seed: u64) -> Self {
        ScreenplayConfig { frames, seed, ..Default::default() }
    }

    /// A genre preset at the given length.
    pub fn genre(genre: Genre, frames: usize, seed: u64) -> Self {
        let base = ScreenplayConfig { frames, seed, ..Default::default() };
        match genre {
            Genre::ActionMovie => base,
            Genre::Drama => ScreenplayConfig {
                hurst: 0.78,
                sigma: 4_200.0,
                mean_scene_frames: 420.0,
                alternation_prob: 0.3,
                scene_hold: 0.8,
                events: false,
                ..base
            },
            Genre::Videoconference => ScreenplayConfig {
                hurst: 0.65,
                mu: 9_000.0,
                sigma: 1_600.0,
                tail_slope: 12.0,
                mean_scene_frames: 900.0,
                alternation_prob: 0.5,
                scene_hold: 0.45,
                events: false,
                ..base
            },
            Genre::Sports => ScreenplayConfig {
                hurst: 0.88,
                mu: 32_000.0,
                sigma: 8_500.0,
                tail_slope: 7.0,
                mean_scene_frames: 160.0,
                alternation_prob: 0.1,
                scene_hold: 0.8,
                events: false,
                ..base
            },
        }
    }
}

/// Deterministic story-arc level (in Gaussian σ units) at position
/// `u ∈ [0, 1]` through the movie: intense intro, placid second quarter,
/// building middle, slight pause, climactic finale (§2's description of
/// Fig 2).
fn story_arc(u: f64) -> f64 {
    // Piecewise-smooth blend of the narrative beats.
    let beats: [(f64, f64); 7] = [
        (0.00, 0.55),  // action-heavy introduction
        (0.18, -0.10), // settling
        (0.32, -0.65), // placid character development
        (0.55, 0.25),  // conflict builds
        (0.72, -0.05), // brief pause
        (0.90, 0.75),  // climactic finale
        (1.00, 0.55),
    ];
    // Linear interpolation with cosine smoothing between beats.
    let mut i = 0;
    while i + 1 < beats.len() && beats[i + 1].0 < u {
        i += 1;
    }
    if i + 1 == beats.len() {
        return beats[i].1;
    }
    let (u0, v0) = beats[i];
    let (u1, v1) = beats[i + 1];
    let t = ((u - u0) / (u1 - u0)).clamp(0.0, 1.0);
    let s = 0.5 - 0.5 * (std::f64::consts::PI * t).cos();
    v0 + s * (v1 - v0)
}

/// A scripted macro event: `[start, start+len)` frames pushed to `level`
/// Gaussian σ units (plateaus and spikes of Fig 1).
#[derive(Debug, Clone, Copy)]
struct Event {
    start: usize,
    len: usize,
    level: f64,
    /// Spikes taper triangularly; plateaus hold flat.
    taper: bool,
}

fn scripted_events(frames: usize, fps: f64) -> Vec<Event> {
    let s = |secs: f64| (secs * fps) as usize;
    let n = frames;
    vec![
        // 42-second opening text crawl: wide high plateau.
        Event { start: 0, len: s(42.0), level: 2.1, taper: false },
        // Three special-effects spikes near the middle.
        Event { start: n * 45 / 100, len: s(1.6), level: 3.7, taper: true },
        Event { start: n * 50 / 100, len: s(2.5), level: 3.5, taper: true },
        Event { start: n * 55 / 100, len: s(1.6), level: 3.8, taper: true },
        // "Death Star" explosion: 10-second plateau 5 minutes from the end.
        Event {
            start: n.saturating_sub(s(300.0)),
            len: s(10.0),
            level: 2.6,
            taper: false,
        },
    ]
}

/// Generates the synthetic movie trace.
pub fn generate(config: &ScreenplayConfig) -> Trace {
    assert!(config.frames > 0);
    assert!((0.0..=1.0).contains(&config.scene_hold));
    let n = config.frames;

    // 1. LRD backbone.
    let backbone = DaviesHarte::new(config.hurst, 1.0).generate(n, config.seed);

    // 2. Scene segmentation with lognormal durations (heavier than
    //    exponential, matching the long "camera holds" of film).
    let mut scene_rng = Xoshiro256::seed_from_u64(config.seed ^ 0xA5CE);
    let dur_dist = Lognormal::from_moments(
        config.mean_scene_frames,
        config.mean_scene_frames * 1.2,
    );
    let mut anchors: Vec<(usize, f64)> = Vec::new(); // (scene start, held level)
    let mut alt: Vec<bool> = Vec::new();
    let mut pos = 0usize;
    while pos < n {
        anchors.push((pos, backbone[pos]));
        alt.push(scene_rng.open01() < config.alternation_prob);
        let d = dur_dist.sample(&mut scene_rng).max(12.0) as usize;
        pos += d;
    }

    // 3. Gaussian-domain composite: held scene level + AR(1) jitter.
    let mut jitter_rng = Xoshiro256::seed_from_u64(config.seed ^ 0x1177);
    let rho = 0.9f64;
    let innov_sd = (1.0 - rho * rho).sqrt();
    let hold_w = config.scene_hold;
    let jitter_w = (1.0 - hold_w * hold_w).sqrt();

    let mut gauss = Vec::with_capacity(n);
    let mut jitter = jitter_rng.standard_normal();
    let mut scene_idx = 0usize;
    let arc_amp = if config.events { 0.35 } else { 0.0 };
    for (k, _) in backbone.iter().enumerate().take(n) {
        while scene_idx + 1 < anchors.len() && anchors[scene_idx + 1].0 <= k {
            scene_idx += 1;
        }
        // Held level; alternating scenes flip between this and the
        // previous scene's level every ~3 seconds.
        let mut level = anchors[scene_idx].1;
        if alt[scene_idx] && scene_idx > 0 {
            let within = k - anchors[scene_idx].0;
            if (within / (3.0 * config.fps) as usize) % 2 == 1 {
                level = anchors[scene_idx - 1].1;
            }
        }
        jitter = rho * jitter + innov_sd * jitter_rng.standard_normal();
        let arc = arc_amp * story_arc(k as f64 / n as f64);
        gauss.push(hold_w * level + jitter_w * jitter + arc);
    }

    // Renormalise to unit variance so the marginal transform sees N(0,1).
    let mean = gauss.iter().sum::<f64>() / n as f64;
    let sd = (gauss.iter().map(|&g| (g - mean).powi(2)).sum::<f64>() / n as f64).sqrt();

    // 4. Scripted events override the composite (after normalisation, so
    //    their σ-levels are honest).
    let mut z: Vec<f64> = gauss.iter().map(|&g| (g - mean) / sd).collect();
    if config.events {
        for ev in scripted_events(n, config.fps) {
            for i in 0..ev.len {
                let k = ev.start + i;
                if k >= n {
                    break;
                }
                let shape = if ev.taper {
                    // Triangular taper peaking mid-event.
                    let t = i as f64 / ev.len as f64;
                    1.0 - (2.0 * t - 1.0).abs()
                } else {
                    1.0
                };
                z[k] = z[k].max(ev.level * shape);
            }
        }
    }

    // Saturate: the fixed-step coder cannot emit unbounded frames.
    for v in z.iter_mut() {
        *v = v.min(config.z_cap);
    }

    // 5. Impose the Gamma/Pareto marginal.
    let marginal = GammaPareto::from_params(config.mu, config.sigma, config.tail_slope);
    let xform = MarginalTransform::new(&marginal, 0.0, 1.0, TableMode::Exact);
    // In place: z is dead after this point, so reuse its buffer rather
    // than allocating a second n-length vector.
    let mut frame_bytes = z;
    xform.map_inplace(&mut frame_bytes);

    // 6. Split frames into slices with Dirichlet(α) weights.
    let spf = config.slices_per_frame;
    let slice_rng = Xoshiro256::seed_from_u64(config.seed ^ 0x51CE);
    let slices = dirichlet_slices(&frame_bytes, spf, config.slice_weight_shape, slice_rng);
    Trace::from_slices(slices, spf, config.fps)
}

/// Splits each frame's bytes into `spf` slices with Dirichlet weights —
/// `spf` Gamma(`shape`, 1) draws from `rng`, frame by frame, each slice
/// taking its weight's share of the frame. The split is in integers and
/// keeps the frame total exactly: every slice but the last gets
/// `⌊w/Σw · total⌋` bytes and the last the rest, where `total` is the
/// frame's bytes rounded to the nearest integer (0 for a negative or
/// NaN frame). A slice is capped at `u32::MAX`.
pub fn dirichlet_slices(frame_bytes: &[f64], spf: usize, shape: f64, rng: Xoshiro256) -> Vec<u32> {
    let mut draws = Gamma::new(shape, 1.0).draws(rng);
    let mut slices = Vec::with_capacity(frame_bytes.len() * spf);
    let mut weights = vec![0.0f64; spf];
    for &fb in frame_bytes {
        let mut total = 0.0;
        for w in weights.iter_mut() {
            *w = draws.draw();
            total += *w;
        }
        let target = fb.round() as u64;
        let mut assigned = 0u64;
        for (i, &w) in weights.iter().enumerate() {
            let v = if i + 1 == spf {
                target - assigned
            } else {
                ((w / total) * target as f64).floor() as u64
            };
            assigned += v;
            slices.push(v.min(u32::MAX as u64) as u32);
        }
    }
    slices
}

/// Generates one trace per configuration on the worker pool — the
/// multi-source setup of §5 (e.g. heterogeneous genres feeding one
/// multiplexer). Small batches (by total slice count) run serially,
/// since the per-call worker spawn would cost more than it saves. Each
/// trace is seeded independently by its own config, so the batch output
/// is bit-identical to calling [`generate`] in a loop, whatever the
/// thread count or dispatch choice.
pub fn generate_batch(configs: &[ScreenplayConfig]) -> Vec<Trace> {
    let work = configs
        .iter()
        .fold(0usize, |acc, c| acc.saturating_add(c.frames.saturating_mul(c.slices_per_frame)));
    vbr_stats::par::par_map_sized(work, configs, generate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_trace(frames: usize, seed: u64) -> Trace {
        generate(&ScreenplayConfig::short(frames, seed))
    }

    #[test]
    fn deterministic_per_seed() {
        let a = short_trace(2_000, 1);
        let b = short_trace(2_000, 1);
        let c = short_trace(2_000, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn geometry_matches_config() {
        let t = short_trace(3_000, 3);
        assert_eq!(t.frames(), 3_000);
        assert_eq!(t.slices_per_frame(), 30);
        assert!((t.fps() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn slice_sums_equal_frame_bytes() {
        let t = short_trace(500, 4);
        for i in 0..t.frames() {
            let s: u32 = t.slice_bytes()[i * 30..(i + 1) * 30].iter().sum();
            assert_eq!(s, t.frame_bytes(i));
        }
    }

    #[test]
    fn marginal_calibration_near_paper_values() {
        let t = short_trace(60_000, 5);
        let s = t.summary_frame();
        assert!((s.mean - 27_791.0).abs() / 27_791.0 < 0.05, "mean {}", s.mean);
        assert!(
            (s.std_dev - 6_254.0).abs() / 6_254.0 < 0.25,
            "std dev {}",
            s.std_dev
        );
        assert!(s.min > 0.0 && s.min < 20_000.0, "min {}", s.min);
        assert!(s.peak_to_mean > 1.8 && s.peak_to_mean < 4.5, "p/m {}", s.peak_to_mean);
    }

    #[test]
    fn slice_cov_exceeds_frame_cov() {
        // Table 2: slice CoV 0.31 > frame CoV 0.23 (intra-frame variation).
        let t = short_trace(20_000, 6);
        let f = t.summary_frame();
        let s = t.summary_slice();
        assert!(
            s.coef_variation > f.coef_variation + 0.03,
            "slice CoV {} vs frame CoV {}",
            s.coef_variation,
            f.coef_variation
        );
    }

    #[test]
    fn trace_is_long_range_dependent() {
        let t = short_trace(60_000, 7);
        let vt = vbr_lrd::variance_time(&t.frame_series(), &vbr_lrd::VtOptions::default());
        assert!(
            vt.hurst > 0.65 && vt.hurst < 0.95,
            "variance-time H = {}",
            vt.hurst
        );
    }

    #[test]
    fn events_create_fig1_landmarks() {
        let cfg = ScreenplayConfig::short(50_000, 8);
        let with = generate(&cfg);
        let without = generate(&ScreenplayConfig { events: false, ..cfg.clone() });
        // The opening 42 s should be well above the movie average with
        // events on.
        let series = with.frame_series();
        let opening: f64 = series[..1_000].iter().sum::<f64>() / 1_000.0;
        let overall: f64 = series.iter().sum::<f64>() / series.len() as f64;
        assert!(opening > 1.2 * overall, "opening {opening} vs overall {overall}");
        // Peak with events beats peak without.
        let peak_with = series.iter().cloned().fold(0.0f64, f64::max);
        let peak_without = without.frame_series().iter().cloned().fold(0.0f64, f64::max);
        assert!(peak_with > peak_without);
    }

    #[test]
    fn genres_have_distinct_means() {
        use super::Genre;
        let movie = generate(&ScreenplayConfig::genre(Genre::ActionMovie, 10_000, 5));
        let conf = generate(&ScreenplayConfig::genre(Genre::Videoconference, 10_000, 5));
        let sports = generate(&ScreenplayConfig::genre(Genre::Sports, 10_000, 5));
        let m = |t: &crate::trace::Trace| t.summary_frame().mean;
        assert!(m(&conf) < 0.5 * m(&movie), "conference {} vs movie {}", m(&conf), m(&movie));
        assert!(m(&sports) > m(&movie));
    }

    #[test]
    fn videoconference_has_weaker_lrd_than_busy_content() {
        use super::Genre;
        // §3.2.3: "For video conferencing … H tends to be smaller".
        // Single fixed estimator (R/S) so genres are comparable; absolute
        // levels differ per estimator on finite samples.
        let conf = generate(&ScreenplayConfig::genre(Genre::Videoconference, 60_000, 6));
        let sports = generate(&ScreenplayConfig::genre(Genre::Sports, 60_000, 6));
        let movie = generate(&ScreenplayConfig::genre(Genre::ActionMovie, 60_000, 6));
        let h = |t: &crate::trace::Trace| {
            vbr_lrd::rs_analysis(&t.frame_series(), &vbr_lrd::RsOptions::default()).hurst
        };
        let (hc, hs, hm) = (h(&conf), h(&sports), h(&movie));
        assert!(hc < hs - 0.02, "conference H {hc} vs sports H {hs}");
        assert!(hc < hm - 0.02, "conference H {hc} vs movie H {hm}");
        assert!(hc > 0.5, "conference must still be LRD, H {hc}");
    }

    #[test]
    fn trace_is_the_same_at_every_pool_width() {
        // The exact marginal map splits across the pool; the slice split
        // draws from one buffered stream. Neither may move a bit.
        let cfg = ScreenplayConfig::short(20_000, 12);
        let one = vbr_stats::par::with_threads(1, || generate(&cfg));
        for threads in [2, 3] {
            let got = vbr_stats::par::with_threads(threads, || generate(&cfg));
            assert!(got == one, "{threads} threads");
        }
    }

    #[test]
    fn batch_matches_individual_generation() {
        let configs: Vec<ScreenplayConfig> = vec![
            ScreenplayConfig::short(800, 1),
            ScreenplayConfig::genre(Genre::Videoconference, 600, 2),
            ScreenplayConfig::genre(Genre::Sports, 700, 3),
        ];
        let batch = generate_batch(&configs);
        let serial: Vec<Trace> = configs.iter().map(generate).collect();
        assert_eq!(batch, serial);
    }

    #[test]
    fn story_arc_shape() {
        // Placid second quarter below the intro and the finale.
        assert!(story_arc(0.02) > story_arc(0.32));
        assert!(story_arc(0.9) > story_arc(0.72));
        assert!(story_arc(0.9) > story_arc(0.32));
        // Continuous-ish: small steps change the arc smoothly.
        for i in 0..100 {
            let u = i as f64 / 100.0;
            assert!((story_arc(u) - story_arc(u + 0.005)).abs() < 0.1);
        }
    }

    #[test]
    fn scene_structure_produces_held_levels() {
        // Within scenes, successive frames are much closer than across the
        // whole trace: lag-1 autocorrelation should be very high.
        let t = short_trace(20_000, 9);
        let r = vbr_stats::autocorrelation(&t.frame_series(), 1);
        assert!(r[1] > 0.8, "lag-1 ACF {} too low for scene-held structure", r[1]);
    }
}
