//! Serial-vs-parallel determinism suite: the worker pool
//! (`vbr_stats::par`) must produce output bit-identical to the serial
//! path at every thread count, for every parallelized pipeline stage —
//! estimation, generation, and queueing — including on fault-injected
//! input where the *failure pattern* must also be thread-count-invariant.
//!
//! `with_threads` pins the pool width thread-locally, so the property
//! runs are themselves deterministic regardless of `VBR_THREADS`.

use proptest::prelude::*;
use vbr_bench::{Corruption, FaultInjector};
use vbr_fgn::DaviesHarte;
use vbr_lrd::robust_hurst;
use vbr_model::{bakeoff_for_trace, BakeoffOptions};
use vbr_qsim::{qc_curve, LossMetric, LossTarget, MuxSim};
use vbr_stats::par::{par_map, par_map_with, with_threads};
use vbr_video::{generate_screenplay_batch, ScreenplayConfig, Trace};

/// Thread counts exercised by every property: serial, small pool,
/// oversubscribed pool (8 workers on any host).
const THREADS: [usize; 3] = [1, 2, 8];

/// Bit-exact view of a float series (NaN-safe comparison).
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// A compact, bit-exact signature of a `robust_hurst` outcome, covering
/// successes, per-estimator values, and the typed failure list.
fn hurst_signature(xs: &[f64]) -> Vec<String> {
    match robust_hurst(xs) {
        Ok(r) => {
            let mut sig = vec![format!("by:{:?}:{:016x}", r.by, r.hurst.to_bits())];
            sig.extend(
                r.estimates.iter().map(|(k, h)| format!("est:{k:?}:{:016x}", h.to_bits())),
            );
            sig.extend(r.failures.iter().map(|(k, e)| format!("fail:{k:?}:{e:?}")));
            sig
        }
        Err(e) => vec![format!("err:{e:?}")],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The primitive itself: `par_map_with` at any width equals the
    /// serial map, element for element, on a non-associative reduction.
    #[test]
    fn par_map_matches_serial_bitwise(seed in 0u64..1000, n in 0usize..200) {
        let items: Vec<f64> = DaviesHarte::new(0.7, 1.0).generate(n, seed);
        let f = |&x: &f64| {
            // Deliberately order-sensitive float chain.
            let mut acc = x;
            for k in 1..20 {
                acc = acc * 1.0000001 + (x / k as f64).sin();
            }
            acc
        };
        let serial: Vec<f64> = items.iter().map(f).collect();
        for &t in &THREADS {
            let par = par_map_with(t, &items, f);
            prop_assert_eq!(bits(&par), bits(&serial), "threads={}", t);
        }
    }

    /// Estimation: the ensemble estimator's full outcome (headline,
    /// per-member estimates, failures) is thread-count-invariant.
    #[test]
    fn estimation_is_thread_count_invariant(seed in 0u64..200) {
        let xs = DaviesHarte::new(0.8, 1.0).generate(4_096, seed);
        let reference = with_threads(1, || hurst_signature(&xs));
        for &t in &THREADS[1..] {
            let got = with_threads(t, || hurst_signature(&xs));
            prop_assert_eq!(&got, &reference, "threads={}", t);
        }
    }

    /// Estimation under injected faults: which estimators fail, and with
    /// what typed error, must not depend on the pool width.
    #[test]
    fn faulted_estimation_is_thread_count_invariant(
        seed in 0u64..100,
        inj_seed in 0u64..100,
        mode_idx in 0usize..5,
    ) {
        let clean = DaviesHarte::new(0.8, 1.0).generate(2_048, seed);
        let shifted: Vec<f64> = clean.iter().map(|v| v + 50.0).collect();
        let bad = FaultInjector::new(inj_seed).apply(&shifted, Corruption::ALL[mode_idx]);
        let reference = with_threads(1, || hurst_signature(&bad));
        for &t in &THREADS[1..] {
            let got = with_threads(t, || hurst_signature(&bad));
            prop_assert_eq!(&got, &reference, "threads={} mode={:?}", t, Corruption::ALL[mode_idx]);
        }
    }

    /// Generation: the parallel screenplay batch equals the serial batch.
    #[test]
    fn generation_is_thread_count_invariant(seed in 0u64..100) {
        let configs = vec![
            ScreenplayConfig::short(600, seed),
            ScreenplayConfig::short(600, seed ^ 1),
            ScreenplayConfig::short(600, seed ^ 2),
        ];
        let reference: Vec<Trace> = with_threads(1, || generate_screenplay_batch(&configs));
        for &t in &THREADS[1..] {
            let got = with_threads(t, || generate_screenplay_batch(&configs));
            prop_assert_eq!(&got, &reference, "threads={}", t);
        }
    }

    /// Queueing: MuxSim construction, loss metrics and the Q-C sweep are
    /// thread-count-invariant.
    #[test]
    fn queueing_is_thread_count_invariant(seed in 0u64..50, n_sources in 1usize..5) {
        let trace = with_threads(1, || {
            vbr_video::generate_screenplay(&ScreenplayConfig::short(1_500, seed))
        });
        let signature = |t: usize| {
            with_threads(t, || {
                let sim = MuxSim::new(&trace, n_sources, seed ^ 7);
                let cap = sim.mean_rate() * 1.15;
                let loss = sim.run(cap, 0.002 * cap);
                let curve = qc_curve(
                    &sim,
                    &[0.001, 0.01],
                    LossTarget::Rate(1e-2),
                    LossMetric::Overall,
                    5,
                );
                let mut sig = vec![loss.p_l.to_bits(), loss.p_wes.to_bits()];
                sig.extend(curve.iter().map(|p| p.capacity_per_source.to_bits()));
                sig
            })
        };
        let reference = signature(1);
        for &t in &THREADS[1..] {
            prop_assert_eq!(signature(t), reference.clone(), "threads={}", t);
        }
    }
}

/// Non-proptest sanity: nested parallel sections (Q-C sweep calling
/// `MuxSim::run`) still match serial output exactly — the nesting guard
/// must not change results, only scheduling.
#[test]
fn nested_parallelism_matches_serial() {
    let trace = vbr_video::generate_screenplay(&ScreenplayConfig::short(2_000, 3));
    let sim = MuxSim::new(&trace, 3, 4);
    let grid = [0.0005, 0.005, 0.05];
    let run = |t: usize| {
        with_threads(t, || {
            qc_curve(&sim, &grid, LossTarget::Rate(1e-2), LossMetric::Overall, 8)
                .iter()
                .map(|p| p.capacity_per_source.to_bits())
                .collect::<Vec<u64>>()
        })
    };
    let serial = run(1);
    assert_eq!(run(2), serial);
    assert_eq!(run(8), serial);
}

/// The estimator chain order (and therefore the headline pick) survives
/// parallel scheduling: Whittle stays first on a clean long series.
#[test]
fn headline_estimator_is_chain_order_not_finish_order() {
    let xs = DaviesHarte::new(0.8, 1.0).generate(8_192, 1);
    for &t in &THREADS {
        let r = with_threads(t, || robust_hurst(&xs).unwrap());
        assert_eq!(r.by, vbr_lrd::EstimatorKind::Whittle, "threads={t}");
    }
}

/// The bake-off measures its reference and zoo models as concurrent pool
/// items: the whole report (scores, estimator panels, Q-C errors and
/// series digests) must be the same bytes at every width.
#[test]
fn bakeoff_is_thread_count_invariant() {
    let trace = vbr_video::generate_screenplay(&ScreenplayConfig::short(6_000, 5)).frame_series();
    let opts = BakeoffOptions::quick();
    for seed in [3, 11] {
        let serial = with_threads(1, || bakeoff_for_trace(&trace, seed, &opts).to_json());
        for &t in &THREADS[1..] {
            let got = with_threads(t, || bakeoff_for_trace(&trace, seed, &opts).to_json());
            assert_eq!(got, serial, "seed={seed} threads={t}");
        }
    }
}

/// `par_map` on an empty and singleton input at every width.
#[test]
fn par_map_edge_cases() {
    let empty: Vec<f64> = vec![];
    assert!(par_map(&empty, |&x: &f64| x * 2.0).is_empty());
    for &t in &THREADS {
        assert_eq!(par_map_with(t, &[42.0f64], |&x| x + 1.0), vec![43.0]);
    }
}
