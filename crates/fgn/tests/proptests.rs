//! Property-based tests for the LRD generators, the streaming engine,
//! and the marginal transform.

use proptest::prelude::*;
use vbr_fft::LANES;
use vbr_fgn::{
    farima_acf, farima_via_circulant, fgn_acvf, BatchStream, CirculantStream, DaviesHarte, Family,
    FgnStream, Hosking, MarginalTransform, StreamState, TableMode,
};
use vbr_stats::dist::{ContinuousDist, GammaPareto};
use vbr_stats::par::with_threads;
use vbr_stats::snapshot::SnapshotWriter;

/// Restores `st` into `target`, then draws `n` samples at `threads`
/// pool workers and returns their bits.
fn resume_bits(target: &mut CirculantStream, st: &StreamState, n: usize, threads: usize) -> Vec<u64> {
    target.restore_state(st).unwrap();
    let mut out = vec![0.0f64; n];
    with_threads(threads, || target.next_block(&mut out));
    out.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn farima_acf_valid_correlations(d in 0.01f64..0.49, lags in 1usize..500) {
        let rho = farima_acf(d, lags);
        prop_assert_eq!(rho[0], 1.0);
        let mut prev = f64::INFINITY;
        for &r in &rho {
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert!(r <= prev + 1e-12, "fARIMA ACF must decay monotonically");
            prev = r;
        }
    }

    #[test]
    fn fgn_acvf_positive_definite_via_aggregate_variance(h in 0.05f64..0.95, n in 2usize..100) {
        // Var(Σ X_i) = n γ0 + 2 Σ (n−k) γk must be n^{2H} ≥ 0.
        let g = fgn_acvf(h, n);
        let mut var = n as f64 * g[0];
        for (k, &gk) in g.iter().enumerate().skip(1) {
            var += 2.0 * (n - k) as f64 * gk;
        }
        let want = (n as f64).powf(2.0 * h);
        prop_assert!((var - want).abs() < 1e-6 * want.max(1.0));
    }

    #[test]
    fn hosking_output_finite_and_deterministic(
        h in 0.5f64..0.95,
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        let g = Hosking::new(h, 1.0);
        let a = g.generate(n, seed);
        prop_assert_eq!(a.len(), n);
        prop_assert!(a.iter().all(|v| v.is_finite()));
        prop_assert_eq!(a, g.generate(n, seed));
    }

    #[test]
    fn davies_harte_output_finite_and_deterministic(
        h in 0.05f64..0.95,
        n in 1usize..500,
        seed in 0u64..1000,
    ) {
        let g = DaviesHarte::new(h, 1.0);
        let a = g.generate(n, seed);
        prop_assert_eq!(a.len(), n);
        prop_assert!(a.iter().all(|v| v.is_finite()));
        prop_assert_eq!(a, g.generate(n, seed));
    }

    #[test]
    fn marginal_transform_monotone_and_in_support(
        mu in 100.0f64..1e5,
        cv in 0.05f64..0.6,
        a in 2.0f64..12.0,
        xs in prop::collection::vec(-5.0f64..5.0, 2..100),
    ) {
        let target = GammaPareto::from_params(mu, mu * cv, a);
        let xf = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Exact);
        let mut sorted = xs.clone();
        sorted.sort_by(|p, q| p.partial_cmp(q).unwrap());
        let mapped: Vec<f64> = sorted.iter().map(|&x| xf.map(x)).collect();
        for w in mapped.windows(2) {
            prop_assert!(w[1] >= w[0], "transform must be monotone");
        }
        for &y in &mapped {
            prop_assert!(y > 0.0 && y.is_finite());
        }
    }

    #[test]
    fn fgn_stream_prefix_bit_identical_across_block_sizes(
        h in 0.05f64..0.95,
        n in 1usize..1200,
        seed in 0u64..1000,
    ) {
        // The documented exactness contract (stream.rs): a stream with
        // block size B uses the same circulant embedding, spectrum and
        // RNG draw order as the batch generator at length B, so its
        // first B outputs are bit-identical to `generate(B, seed)`.
        // Past the first window the stream intentionally diverges from
        // any batch path (windowed embedding + power-preserving
        // cross-fade: exact marginals, approximate seam covariance), so
        // sameness beyond the prefix is distributional, not pathwise —
        // here checked as finiteness only.
        let g = DaviesHarte::new(h, 1.0);
        for block in [1usize, 7, 4096, n] {
            let batch = g.generate(block, seed);
            let mut s = FgnStream::new(h, 1.0, block, seed);
            let mut got = vec![0.0f64; block];
            s.next_block(&mut got);
            prop_assert_eq!(&got, &batch, "prefix diverges at block {}", block);
            let mut next = vec![0.0f64; block.min(64)];
            s.next_block(&mut next);
            prop_assert!(next.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn farima_stream_prefix_bit_identical_across_block_sizes(
        h in 0.5f64..0.95,
        n in 1usize..1200,
        seed in 0u64..1000,
    ) {
        // Same contract as the fGn stream, against the circulant fARIMA
        // batch comparator. The fARIMA embedding is not provably PSD,
        // so both paths are fallible: they must accept or reject the
        // same (H, block) inputs, and agree bit-for-bit when they accept.
        for block in [1usize, 7, 4096, n] {
            match CirculantStream::try_from_family(Family::Farima, h, 1.0, block, None, seed) {
                Ok(mut s) => {
                    let batch = farima_via_circulant(h, 1.0, block, seed)
                        .expect("stream accepted but batch rejected the same geometry");
                    let mut got = vec![0.0f64; block];
                    s.next_block(&mut got);
                    prop_assert_eq!(&got, &batch, "prefix diverges at block {}", block);
                }
                Err(_) => {
                    prop_assert!(
                        farima_via_circulant(h, 1.0, block, seed).is_err(),
                        "batch accepted but stream rejected block {}", block
                    );
                }
            }
        }
    }

    #[test]
    fn batch_fgn_bit_identical_to_independent_streams(
        h in 0.05f64..0.95,
        block in 1usize..600,
        overlap_permille in 0usize..1001,
        n_sources in 1usize..5,
        chunks in prop::collection::vec(1usize..97, 1..12),
        seed0 in 0u64..1000,
        overlap_sel in 0u32..2,
    ) {
        let use_overlap = overlap_sel == 1;
        // The shared-spectrum batch contract: source i of a batch is
        // draw-for-draw bit-identical to an independent FgnStream with
        // the same seed, at arbitrary block/overlap geometry and under
        // arbitrary chunk splits with the batch's sources interleaved
        // (each batch round draws chunk c from every source in turn,
        // which a shared scratch window must not couple).
        let overlap = (block * overlap_permille) / 1000; // 0 ..= block
        let seeds: Vec<u64> = (0..n_sources as u64).map(|i| seed0 + i * 7).collect();
        let overlap = use_overlap.then_some(overlap);
        let mut batch = BatchStream::try_new(Family::Fgn, h, 1.0, block, overlap, &seeds).unwrap();
        let mut solos: Vec<CirculantStream> = seeds
            .iter()
            .map(|&s| CirculantStream::try_from_family(Family::Fgn, h, 1.0, block, overlap, s))
            .collect::<Result<_, _>>()
            .unwrap();
        for &c in &chunks {
            let mut a = vec![0.0f64; c];
            let mut b = vec![0.0f64; c];
            for (i, solo) in solos.iter_mut().enumerate() {
                batch.next_block(i, &mut a);
                solo.next_block(&mut b);
                for (k, (x, y)) in a.iter().zip(&b).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "source {} chunk {} sample {} diverged", i, c, k
                    );
                }
            }
        }
    }

    #[test]
    fn batch_state_interchangeable_with_stream_state(
        h in 0.05f64..0.95,
        block in 1usize..300,
        pre in 0usize..700,
        post in 1usize..200,
        seed in 0u64..1000,
    ) {
        // Kill/resume across engines: a checkpoint exported mid-stream
        // from a batch source restores into a fresh batch *and* into
        // an independent FgnStream (StreamState is one format), and both
        // resume bit-identically with the uninterrupted source.
        let seeds = [seed, seed ^ 0x5a5a];
        let mut batch = BatchStream::try_new(Family::Fgn, h, 1.0, block, None, &seeds).unwrap();
        let mut buf = vec![0.0f64; pre.max(1)];
        if pre > 0 {
            batch.next_block(1, &mut buf[..pre]);
            // Desync source 0 so the shared scratch is dirty at export.
            batch.next_block(0, &mut buf[..pre.min(13)]);
        }
        let saved = batch.export_state(1);

        let mut fresh_batch =
            BatchStream::try_new(Family::Fgn, h, 1.0, block, None, &seeds).unwrap();
        fresh_batch.restore_state(1, &saved).unwrap();
        let mut fresh_stream = FgnStream::new(h, 1.0, block, seeds[1]);
        fresh_stream.restore_state(&saved).unwrap();

        let mut want = vec![0.0f64; post];
        let mut got_b = vec![0.0f64; post];
        let mut got_s = vec![0.0f64; post];
        batch.next_block(1, &mut want);
        fresh_batch.next_block(1, &mut got_b);
        fresh_stream.next_block(&mut got_s);
        for k in 0..post {
            prop_assert_eq!(want[k].to_bits(), got_b[k].to_bits(), "batch resume at {}", k);
            prop_assert_eq!(want[k].to_bits(), got_s[k].to_bits(), "stream resume at {}", k);
        }
    }

    #[test]
    fn batch_farima_bit_identical_to_independent_streams(
        h in 0.5f64..0.95,
        block in 1usize..400,
        n_sources in 1usize..4,
        seed0 in 0u64..1000,
    ) {
        // fARIMA embeddings are fallible: the batch must accept exactly
        // when every independent stream accepts, and agree to the bit
        // when it does.
        let seeds: Vec<u64> = (0..n_sources as u64).map(|i| seed0 + i * 3).collect();
        match BatchStream::try_new(Family::Farima, h, 1.0, block, None, &seeds) {
            Ok(mut batch) => {
                let mut a = vec![0.0f64; block];
                let mut b = vec![0.0f64; block];
                for (i, &s) in seeds.iter().enumerate() {
                    let mut solo =
                        CirculantStream::try_from_family(Family::Farima, h, 1.0, block, None, s)
                            .expect("batch accepted but stream rejected");
                    batch.next_block(i, &mut a);
                    solo.next_block(&mut b);
                    for k in 0..block {
                        prop_assert_eq!(a[k].to_bits(), b[k].to_bits(), "source {} at {}", i, k);
                    }
                }
            }
            Err(_) => {
                prop_assert!(
                    CirculantStream::try_from_family(Family::Farima, h, 1.0, block, None, seeds[0])
                        .is_err(),
                    "stream accepted but batch rejected"
                );
            }
        }
    }

    #[test]
    fn advance_rows_matches_next_block(
        farima_sel in 0u32..2,
        h_unit in 0.0f64..1.0,
        block_code in 0usize..250,
        overlap_code in 0usize..3003,
        n_sources in 1usize..(4 * LANES + 4),
        len_code in 0usize..3000,
        straggle_mask in 0u32..u32::MAX,
        seed0 in 0u64..1000,
    ) {
        // The lane-cohort refill of `advance_rows` against per-source
        // `next_block`, bitwise: both families, the white-noise block,
        // prefix-exact and explicit overlap, source counts below, at and
        // off a multiple of LANES, advance lengths below, at and above
        // the block, and stragglers pushed mid-window or a whole block
        // between rounds so cohorts form from a changing subset of the
        // sources and meet sources holding a pending window; at 1, 2 and
        // 3 pool workers, since pinned widths above 1 look ahead at every
        // window size and so leave pending windows behind.
        let farima = farima_sel == 1;
        let (family, h) = if farima {
            (Family::Farima, 0.5 + 0.45 * h_unit)
        } else {
            (Family::Fgn, 0.05 + 0.9 * h_unit)
        };
        let block = if block_code < 50 { 1 } else { block_code - 48 };
        let overlap = match overlap_code % 3 {
            0 => None,
            1 => Some(0),
            _ => Some(block * (overlap_code / 3) / 1000),
        };
        let len_raw = len_code / 3;
        let len = match len_code % 3 {
            0 => 1 + len_raw % block.max(2) / 2,
            1 => block,
            _ => block + 1 + len_raw % block,
        };
        let seeds: Vec<u64> = (0..n_sources as u64).map(|i| seed0 * 31 + i).collect();
        for threads in 1..=3 {
            let Ok(mut batch) = BatchStream::try_new(family, h, 1.0, block, overlap, &seeds) else {
                // Only a non-PSD fARIMA embedding may refuse a valid geometry.
                prop_assert!(farima);
                return Ok(());
            };
            let mut solos: Vec<CirculantStream> = seeds
                .iter()
                .map(|&s| CirculantStream::try_from_family(family, h, 1.0, block, overlap, s))
                .collect::<Result<_, _>>()
                .unwrap();
            // Rows in reverse source order, so row != source.
            let rows: Vec<(usize, usize)> =
                (0..n_sources).map(|s| (s, n_sources - 1 - s)).collect();
            let mut buf = vec![0.0f64; n_sources * len];
            let mut want = vec![0.0f64; len];
            for round in 0..4 {
                for (s, solo) in solos.iter_mut().enumerate() {
                    if straggle_mask >> ((s * 3 + round) % 32) & 1 == 1 {
                        // Half the steps draw a whole block: from a window
                        // end that refills and ends on the next window end,
                        // leaving the source due with a pending window
                        // (pinned workers look ahead at every size).
                        let k = seed0 as usize + s + round;
                        let step_len = if k.is_multiple_of(2) { block } else { 1 + k % block };
                        let mut step = vec![0.0f64; step_len];
                        let mut solo_step = step.clone();
                        with_threads(threads, || batch.next_block(s, &mut step));
                        solo.next_block(&mut solo_step);
                        prop_assert!(step == solo_step, "threads {} round {} straggler {}", threads, round, s);
                    }
                }
                with_threads(threads, || batch.advance_rows(len, &mut buf, &rows));
                for (s, r) in rows.iter().copied() {
                    solos[s].next_block(&mut want);
                    for k in 0..len {
                        prop_assert_eq!(
                            buf[r * len + k].to_bits(), want[k].to_bits(),
                            "threads {} round {} source {} sample {}", threads, round, s, k
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lookahead_is_invisible_to_draws_and_exports(
        farima_sel in 0u32..2,
        h_unit in 0.0f64..1.0,
        block_sel in 0u32..4,
        small in 2usize..300,
        overlap_code in 0usize..2002,
        len_codes in prop::collection::vec(0usize..1_000_000, 1..7),
        export_at in 0usize..7,
        seed in 0u64..1000,
    ) {
        // A solo stream at 2 or 3 pinned workers leaves its next window
        // pending after every refill, synthesised on the background
        // worker or taken back. None of that may show: draws equal the
        // 1-worker draws bit for bit, an export taken anywhere (including
        // right after the first refill, which leaves a window pending)
        // encodes to the 1-worker export's bytes, and a stream restored
        // from it continues with the same bits.
        let (family, h) = if farima_sel == 1 {
            (Family::Farima, 0.5 + 0.45 * h_unit)
        } else {
            (Family::Fgn, 0.05 + 0.9 * h_unit)
        };
        let block = match block_sel {
            0 => 1,
            3 => 16_384,
            _ => small,
        };
        let overlap = match overlap_code % 2 {
            0 => None,
            _ => Some(block * (overlap_code / 2) / 1000),
        };
        // Draw lengths from 1 to just over two blocks.
        let lens: Vec<usize> = len_codes.iter().map(|c| 1 + c % (2 * block + 1)).collect();
        let export_at = export_at % (lens.len() + 1);
        let encode = |st: &StreamState| {
            let mut w = SnapshotWriter::new(1, 1);
            w.section(0x5354_524D, |p| st.encode(p));
            w.finish()
        };
        let build = || CirculantStream::try_from_family(family, h, 1.0, block, overlap, seed);
        let mut reference: Option<(Vec<u64>, Vec<u8>, Vec<u8>)> = None;
        for threads in 1..=3 {
            let Ok(mut s) = build() else {
                // Only a non-PSD fARIMA embedding may refuse a valid geometry.
                prop_assert!(farima_sel == 1);
                return Ok(());
            };
            let mut draws = Vec::new();
            let (mut at_export, mut after_first) = (None, None);
            for (i, &len) in lens.iter().enumerate() {
                if i == export_at {
                    at_export = Some((s.export_state(), draws.len()));
                }
                let mut buf = vec![0.0f64; len];
                with_threads(threads, || s.next_block(&mut buf));
                draws.extend(buf.iter().map(|v| v.to_bits()));
                if i == 0 {
                    after_first = Some((s.export_state(), draws.len()));
                }
            }
            let at_export = at_export.unwrap_or_else(|| (s.export_state(), draws.len()));
            let after_first = after_first.unwrap();
            // Continue the stream itself, then replay each export over the
            // same tail of draws: one into a fresh stream, one back into
            // the stream itself, whose pending window the restore drops.
            let mut more = vec![0.0f64; block + 7];
            with_threads(threads, || s.next_block(&mut more));
            draws.extend(more.iter().map(|v| v.to_bits()));
            let (st, from) = &after_first;
            let rest = resume_bits(&mut build().unwrap(), st, draws.len() - from, threads);
            prop_assert!(rest == draws[*from..], "threads {} fresh resume from {}", threads, from);
            let (st, from) = &at_export;
            let rest = resume_bits(&mut s, st, draws.len() - from, threads);
            prop_assert!(rest == draws[*from..], "threads {} self resume from {}", threads, from);
            let got = (draws, encode(&at_export.0), encode(&after_first.0));
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    prop_assert!(got.0 == want.0, "threads {} draws diverge", threads);
                    prop_assert!(got.1 == want.1, "threads {} export bytes differ", threads);
                    prop_assert!(got.2 == want.2, "threads {} first-refill export differs", threads);
                }
            }
        }
    }

    #[test]
    fn table_map_matches_binary_search_reference(
        mu in 100.0f64..1e4,
        cv in 0.05f64..0.6,
        a in 2.0f64..12.0,
        n in 3usize..400,
        xs in prop::collection::vec(-6.0f64..6.0, 1..100),
    ) {
        // The grid-walk + precomputed-slope kernel against an
        // independent scalar oracle: rebuild the knots exactly as the
        // constructor does, locate the interval by binary search, and
        // interpolate with the original division formula. Agreement is
        // ≤ 1e-12 relative — the only arithmetic difference is
        // `(t·Δ)/Δz` vs `t·(Δ/Δz)`.
        let target = GammaPareto::from_params(mu, mu * cv, a);
        let xf = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(n));
        let (table, zknots): (Vec<f64>, Vec<f64>) = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                (target.quantile(u), vbr_stats::norm_quantile(u))
            })
            .unzip();
        for &x in &xs {
            let want = if x <= zknots[0] {
                table[0]
            } else if x >= zknots[n - 1] {
                table[n - 1]
            } else {
                let i = zknots.partition_point(|&z| z < x) - 1;
                table[i]
                    + (x - zknots[i]) * (table[i + 1] - table[i])
                        / (zknots[i + 1] - zknots[i])
            };
            let got = xf.map(x);
            prop_assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "x={}: kernel {} vs reference {}", x, got, want
            );
        }
    }

    #[test]
    fn table_map_inplace_bit_identical_across_block_sizes(
        mu in 100.0f64..1e4,
        xs in prop::collection::vec(-6.0f64..6.0, 1..200),
        cut in 0usize..200,
    ) {
        // Blocked mapping must not depend on where block boundaries
        // fall: mapping the whole buffer, mapping two arbitrary halves,
        // and mapping one element at a time all agree to the bit.
        let target = GammaPareto::from_params(mu, mu * 0.3, 5.0);
        let xf = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(500));
        let cut = cut.min(xs.len());
        let mut whole = xs.clone();
        xf.map_inplace(&mut whole);
        let mut split = xs.clone();
        {
            let (head, tail) = split.split_at_mut(cut);
            xf.map_inplace(head);
            xf.map_inplace(tail);
        }
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(whole[i].to_bits(), split[i].to_bits(), "cut={} at {}", cut, i);
            prop_assert_eq!(whole[i].to_bits(), xf.map(x).to_bits(), "scalar at {}", i);
        }
    }

    #[test]
    fn table_transform_bounded_by_table_extremes(
        mu in 100.0f64..1e4,
        x in -20.0f64..20.0,
    ) {
        let target = GammaPareto::from_params(mu, mu * 0.3, 5.0);
        let xf = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(1_000));
        let y = xf.map(x);
        prop_assert!(y <= xf.max_output());
        prop_assert!(y >= target.quantile(0.5 / 1_000.0));
    }
}
