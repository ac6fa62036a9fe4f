//! Prints a bit-level digest of every vectorised kernel's output on a
//! fixed workload, one `name digest` line per kernel.
//!
//! This is the cross-flag portability gate: the kernels are chunk loops
//! at one compile-time width (see DESIGN.md §14), written so where
//! chunk boundaries fall cannot change output bits. CI builds this
//! binary under default flags and `target-cpu=native` and diffs the two
//! outputs; any difference means a kernel's arithmetic order leaked a
//! build-flag dependence. The output deliberately contains no
//! feature banner — every line must be invariant.

use vbr_fft::{plan_for, real_plan_for, Complex, Direction};
use vbr_fgn::{BatchStream, DaviesHarte, Family, MarginalTransform, TableMode};
use vbr_fgn::TraceReplay;
use vbr_lrd::{try_rs_analysis, RsOptions};
use vbr_qsim::{required_capacity_model, FluidQueue, LossMetric, LossTarget, MuxSim};
use vbr_stats::dist::GammaPareto;
use vbr_stats::rng::Xoshiro256;
use vbr_stats::{norm_quantile_slice, simd};
use vbr_video::{generate_screenplay, ScreenplayConfig};

/// FNV-1a over a stream of u64 words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        const PRIME: u64 = 0x1_0000_01b3;
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    fn push_f64s(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x.to_bits());
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn main() {
    let n = 1usize << 16;

    // Batch standard normals (uniform fill + blocked AS241 quantile).
    let mut rng = Xoshiro256::seed_from_u64(1);
    let mut normals = vec![0.0f64; n];
    rng.fill_standard_normal(&mut normals);
    let mut d = Digest::new();
    d.push_f64s(&normals);
    println!("fill_standard_normal {}", d.hex());

    // R/S windows in lanes: the pox points of the normals from lag 2 up,
    // 13 windows per lag, so every lag ends on a short pass.
    let opts = RsOptions { min_lag: 2, fit_min_lag: 16, starts_per_lag: 13, ..RsOptions::default() };
    let rs = try_rs_analysis(&normals, &opts).expect("normals analyse");
    let mut d = Digest::new();
    for &(lag, v) in &rs.points {
        d.push(lag as u64);
        d.push(v.to_bits());
    }
    d.push(rs.hurst.to_bits());
    println!("rs_lanes {}", d.hex());

    // Blocked quantile kernel on a central + two-tail probability sweep.
    let mut ps: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
    for i in 0..64 {
        ps[i] = 10f64.powi(-(i as i32) / 4 - 1);
        ps[n - 1 - i] = 1.0 - 10f64.powi(-(i as i32) / 4 - 1);
    }
    norm_quantile_slice(&mut ps);
    let mut d = Digest::new();
    d.push_f64s(&ps);
    println!("norm_quantile_slice {}", d.hex());

    // Radix-4 SoA FFT, forward and inverse, even and odd log2 n.
    let mut d = Digest::new();
    for logn in [12u32, 13] {
        let m = 1usize << logn;
        let mut buf: Vec<Complex> = normals[..m].iter().map(|&x| Complex::from_re(x)).collect();
        for dir in [Direction::Forward, Direction::Inverse] {
            plan_for(m).process(&mut buf, dir);
            for z in &buf {
                d.push(z.re.to_bits());
                d.push(z.im.to_bits());
            }
        }
    }
    println!("fft_radix4 {}", d.hex());

    // Lane-parallel batched FFT at the generators' lane count. The lane
    // kernels are bit-identical per lane to the scalar plan for every
    // `l`, and the digest covers only the first two lanes, so it does
    // not depend on `LANES` — the strongest single check of the §16
    // lane contract.
    let l = vbr_fft::LANES;
    let mut d = Digest::new();
    for logn in [12u32, 13] {
        let m = 1usize << logn;
        let plan = plan_for(m);
        let mut interleaved = vec![Complex::ZERO; m * l];
        for v in 0..l {
            for j in 0..m {
                interleaved[j * l + v] = Complex::from_re(normals[(j + 97 * v) % n]);
            }
        }
        for dir in [Direction::Forward, Direction::Inverse] {
            match dir {
                Direction::Forward => plan.forward_lanes(&mut interleaved, l),
                Direction::Inverse => plan.inverse_lanes(&mut interleaved, l),
            }
            // Digest lane-major so the stream of words is independent
            // of `l`: lane v's bits are the scalar transform's bits.
            for v in 0..l.min(2) {
                for j in 0..m {
                    let z = interleaved[j * l + v];
                    d.push(z.re.to_bits());
                    d.push(z.im.to_bits());
                }
            }
        }
    }
    println!("batch_fft {}", d.hex());

    // Half-size-complex real FFT: forward, Hermitian synthesis, and the
    // normalised inverse round trip, even and odd log2 n.
    let mut d = Digest::new();
    let mut spectrum = Vec::new();
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    for logn in [12u32, 13] {
        let m = 1usize << logn;
        let plan = real_plan_for(m);
        plan.forward(&normals[..m], &mut spectrum, &mut scratch);
        for z in &spectrum {
            d.push(z.re.to_bits());
            d.push(z.im.to_bits());
        }
        plan.synthesize_hermitian(&spectrum, &mut out, &mut scratch);
        d.push_f64s(&out);
        plan.inverse(&spectrum, &mut out, &mut scratch);
        d.push_f64s(&out);
    }
    println!("real_fft {}", d.hex());

    // Shared-spectrum batch generation: 3 sources' draws plus one
    // mid-stream export/restore into a fresh batch.
    let mut batch = BatchStream::try_new(Family::Fgn, 0.8, 1.0, 512, None, &[5, 6, 7])
        .expect("valid params");
    let mut d = Digest::new();
    let mut block = vec![0.0f64; 512];
    for _ in 0..3 {
        for src in 0..3 {
            batch.next_block(src, &mut block);
            d.push_f64s(&block);
        }
    }
    let saved = batch.export_state(1);
    let mut resumed = BatchStream::try_new(Family::Fgn, 0.8, 1.0, 512, None, &[5, 6, 7])
        .expect("valid params");
    resumed.restore_state(1, &saved).expect("own export restores");
    resumed.next_block(1, &mut block);
    d.push_f64s(&block);
    println!("batch_fgn {}", d.hex());

    // Gamma/Pareto marginal transform through the blocked table kernel,
    // fed by the batched Davies-Harte generator (whole pipeline bits).
    let gauss = DaviesHarte::new(0.8, 1.0).generate(n, 7);
    let target = GammaPareto::from_params(27_791.0, 6_254.0, 9.0);
    let xform = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(10_000));
    let mut traffic = gauss;
    xform.map_inplace(&mut traffic);
    let mut d = Digest::new();
    d.push_f64s(&traffic);
    println!("marginal_table {}", d.hex());

    // FIFO block recurrence over the generated traffic.
    let dt = 1.0 / (24.0 * 30.0);
    let mut q = FluidQueue::new(1e6, 27_791.0 / dt * 1.05);
    let mut d = Digest::new();
    for chunk in traffic.chunks(4096) {
        d.push(q.step_block(chunk, dt).to_bits());
    }
    d.push(q.backlog().to_bits());
    d.push(q.arrived().to_bits());
    d.push(q.lost().to_bits());
    d.push(q.served().to_bits());
    println!("queue_step_block {}", d.hex());

    // SoA helper kernels.
    let words: Vec<u32> = normals.iter().map(|&x| x.to_bits() as u32).collect();
    let mut acc = vec![0.0f64; n];
    simd::accumulate_u32(&mut acc, &words);
    let mut d = Digest::new();
    d.push_f64s(&acc);
    d.push(simd::sum_sequential(&normals).to_bits());
    println!("simd_helpers {}", d.hex());

    // Q-C capacity searches: the lane-batched queue kernel behind the
    // speculative bisection, at N = 3 (six lag combinations) for every
    // target x metric pair, plus one model-driven search. 14 levels
    // leave a ragged final pass.
    let screenplay = generate_screenplay(&ScreenplayConfig::short(1_000, 3));
    let sim = MuxSim::new(&screenplay, 3, 11);
    let mut d = Digest::new();
    for target in [LossTarget::Zero, LossTarget::Rate(1e-3)] {
        for metric in [LossMetric::Overall, LossMetric::WorstSecond] {
            d.push(sim.required_capacity(0.004, target, metric, 14).to_bits());
        }
    }
    let series: Vec<f64> = screenplay.slice_bytes().iter().map(|&b| b as f64).collect();
    let slots = series.len();
    let mut model = TraceReplay::new(series);
    d.push(
        required_capacity_model(
            &mut model,
            slots,
            screenplay.slice_duration(),
            0.004,
            LossTarget::Rate(1e-3),
            LossMetric::Overall,
            14,
        )
        .to_bits(),
    );
    println!("qc_search {}", d.hex());

    // Zero-loss searches, at Fig 16's 22 levels and at 30, deep enough
    // that midpoints reach the band around the exact zero-loss capacity
    // where the levels are replayed.
    let mut d = Digest::new();
    for n in [1, 5] {
        let sim = MuxSim::new(&screenplay, n, 11);
        for t_max in [0.0, 0.002] {
            for metric in [LossMetric::Overall, LossMetric::WorstSecond] {
                for levels in [22, 30] {
                    d.push(sim.required_capacity(t_max, LossTarget::Zero, metric, levels).to_bits());
                }
            }
        }
    }
    println!("qc_zero {}", d.hex());
}
