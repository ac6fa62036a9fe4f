//! The observability determinism contract: installing the span
//! collector must leave every pipeline output bit-identical —
//! instrumentation is write-only and never branches on collected data.
//!
//! The collector is process-global, so the on/off comparisons serialize
//! on one mutex (the cargo test harness runs these `#[test]`s on
//! threads of a single process).

use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use vbr_fgn::DaviesHarte;
use vbr_lrd::robust_hurst;
use vbr_qsim::{FluidQueue, LossMetric, LossTarget, MuxSim};
use vbr_stats::obs;
use vbr_video::{generate_screenplay, ScreenplayConfig};

/// Serializes every test that installs/uninstalls the process-global
/// collector.
fn collector_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap()
}

/// Runs `f` twice — collector off, then installed — and returns both
/// results for bit-comparison.
fn with_and_without_collector<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _guard = collector_lock();
    obs::uninstall_collector();
    let off = f();
    obs::install_collector(4096);
    let on = f();
    obs::uninstall_collector();
    (off, on)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn collector_leaves_davies_harte_bit_identical(
        h in 0.55f64..0.9,
        n in 64usize..2048,
        seed in 0u64..1000,
    ) {
        let (off, on) = with_and_without_collector(|| {
            DaviesHarte::new(h, 1.0).generate(n, seed)
        });
        prop_assert_eq!(off, on);
    }

    #[test]
    fn collector_leaves_robust_hurst_bit_identical(h in 0.6f64..0.85, seed in 0u64..100) {
        let xs = DaviesHarte::new(h, 1.0).generate(4096, seed);
        let (off, on) = with_and_without_collector(|| {
            let r = robust_hurst(&xs).expect("clean series must estimate");
            let mut sig: Vec<u64> = vec![r.hurst.to_bits(), r.attempts.len() as u64];
            sig.extend(r.estimates.iter().map(|&(_, est)| est.to_bits()));
            sig
        });
        prop_assert_eq!(off, on);
    }

    #[test]
    fn collector_leaves_fluid_queue_bit_identical(seed in 0u64..1000, buffer in 10.0f64..500.0) {
        let arrivals = DaviesHarte::new(0.8, 1.0).generate(2048, seed);
        let arrivals: Vec<f64> = arrivals.iter().map(|g| g.abs() * 100.0).collect();
        let (off, on) = with_and_without_collector(|| {
            let mut q = FluidQueue::new(buffer, 3_000.0);
            let mut loss = 0.0;
            for chunk in arrivals.chunks(256) {
                loss += q.step_block(chunk, 0.001);
            }
            [loss.to_bits(), q.backlog().to_bits(), q.lost().to_bits(), q.served().to_bits()]
        });
        prop_assert_eq!(off, on);
    }

    #[test]
    fn collector_leaves_mux_run_bit_identical(n_sources in 1usize..4, seed in 0u64..50) {
        let trace = generate_screenplay(&ScreenplayConfig::short(1_500, seed));
        let sim = MuxSim::new(&trace, n_sources, seed);
        let cap = sim.mean_rate() * 1.2;
        let (off, on) = with_and_without_collector(|| {
            let l = sim.run(cap, 0.002 * cap);
            let c = sim.required_capacity(0.002, LossTarget::Rate(1e-3), LossMetric::Overall, 5);
            (l.p_l.to_bits(), l.p_wes.to_bits(), c.to_bits())
        });
        prop_assert_eq!(off, on);
    }
}

/// With a collector installed the traced pipeline actually produces
/// spans — the on/off equality above is not vacuous.
#[test]
fn collector_records_pipeline_spans() {
    let _guard = collector_lock();
    obs::install_collector(1024);
    DaviesHarte::new(0.8, 1.0).generate(512, 3);
    let snap = obs::uninstall_collector().expect("collector installed");
    assert!(
        snap.records.iter().any(|r| r.name == "fgn.davies_harte"),
        "traced generation must record its span"
    );
}
