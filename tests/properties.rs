//! Property-based tests (proptest) over the core invariants:
//!
//! * HSC spatial compression is **lossless** for arbitrary valid paths.
//! * SP compression round-trips and never inflates.
//! * BTC respects its (τ, η) bounds for arbitrary temporal sequences and
//!   equals the quadratic BOPW reference exactly.
//! * Huffman coding round-trips arbitrary symbol streams.
//! * The ZIP/RAR-like byte codecs round-trip arbitrary bytes.
//! * The temporal metrics are symmetric and zero on identical curves.

use press::baselines::{rarx, zipx};
use press::core::spatial::{sp_compress, sp_decompress, HscModel, OnlineSpCompressor};
use press::core::temporal::{bopw_compress, btc_compress, nstd, tsnd, BtcBounds, OnlineBtc};
use press::core::DtPoint;
use press::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use std::sync::OnceLock;

/// Shared fixture: a jittered grid, its SP table, and a trained model.
struct Fixture {
    net: Arc<RoadNetwork>,
    sp: Arc<SpTable>,
    model: Arc<HscModel>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 7,
            ny: 7,
            spacing: 100.0,
            weight_jitter: 0.2,
            removal_prob: 0.0,
            seed: 99,
        }));
        let sp = Arc::new(SpTable::build(net.clone()));
        // Train on a few deterministic walks.
        let mut training = Vec::new();
        for s in 0..30u64 {
            training.push(walk_from_choices(
                &net,
                (s % 49) as u32,
                &(0..14)
                    .map(|i| ((s * 31 + i * 7) % 4) as u8)
                    .collect::<Vec<_>>(),
            ));
        }
        let model = Arc::new(HscModel::train(sp.clone(), &training, 3).expect("train"));
        Fixture { net, sp, model }
    })
}

/// Deterministically turns a byte sequence into a valid connected path:
/// each byte picks among the current node's outgoing edges, skipping
/// immediate backtracking when possible.
fn walk_from_choices(net: &RoadNetwork, start: u32, choices: &[u8]) -> Vec<EdgeId> {
    let mut node = NodeId(start % net.num_nodes() as u32);
    let mut path = Vec::with_capacity(choices.len());
    for &c in choices {
        let outs = net.out_edges(node);
        if outs.is_empty() {
            break;
        }
        let non_backtracking: Vec<EdgeId> = outs
            .iter()
            .copied()
            .filter(|&e| {
                path.last()
                    .is_none_or(|&p: &EdgeId| net.edge(e).to != net.edge(p).from)
            })
            .collect();
        let pool = if non_backtracking.is_empty() {
            outs
        } else {
            &non_backtracking[..]
        };
        let e = pool[c as usize % pool.len()];
        path.push(e);
        node = net.edge(e).to;
    }
    path
}

/// Turns proptest-generated increments into a valid temporal sequence
/// (strictly increasing t, non-decreasing d, with stalls).
fn temporal_from_increments(incs: &[(u16, u16)]) -> Vec<DtPoint> {
    let mut d = 0.0f64;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(incs.len());
    for &(dd, dt) in incs {
        out.push(DtPoint::new(d, t));
        d += dd as f64 / 16.0; // may be zero: a stall
        t += 0.25 + dt as f64 / 64.0; // strictly positive
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hsc_roundtrip_is_lossless(start in 0u32..49, choices in proptest::collection::vec(0u8..8, 0..40)) {
        let f = fixture();
        let path = walk_from_choices(&f.net, start, &choices);
        let cs = f.model.compress(&path).unwrap();
        prop_assert_eq!(f.model.decompress(&cs).unwrap(), path);
    }

    #[test]
    fn sp_compression_roundtrips_and_never_inflates(start in 0u32..49, choices in proptest::collection::vec(0u8..8, 0..40)) {
        let f = fixture();
        let path = walk_from_choices(&f.net, start, &choices);
        let compressed = sp_compress(&f.sp, &path);
        prop_assert!(compressed.len() <= path.len());
        prop_assert_eq!(sp_decompress(&f.sp, &compressed).unwrap(), path);
    }

    #[test]
    fn btc_respects_bounds_and_matches_bopw(
        incs in proptest::collection::vec((0u16..400, 0u16..200), 0..120),
        tau in 0.0f64..60.0,
        eta in 0.0f64..30.0,
    ) {
        let pts = temporal_from_increments(&incs);
        let bounds = BtcBounds::new(tau, eta);
        let fast = btc_compress(&pts, bounds);
        let slow = bopw_compress(&pts, bounds);
        prop_assert_eq!(&fast, &slow, "angular-range and BOPW must agree");
        if !pts.is_empty() {
            prop_assert!(tsnd(&pts, &fast) <= tau + 1e-6);
            prop_assert!(nstd(&pts, &fast) <= eta + 1e-6);
            prop_assert_eq!(fast.first(), pts.first());
            prop_assert_eq!(fast.last(), pts.last());
        }
        // Output is a subsequence of the input.
        let mut it = pts.iter();
        for o in &fast {
            prop_assert!(it.any(|p| p == o));
        }
    }

    #[test]
    fn huffman_roundtrips_arbitrary_streams(
        freqs in proptest::collection::vec(0u64..1000, 2..64),
        stream_seed in proptest::collection::vec(0usize..64, 0..200),
    ) {
        use press::core::spatial::{BitWriter, Huffman};
        let h = Huffman::from_freqs(&freqs).unwrap();
        let symbols: Vec<u32> = stream_seed.iter().map(|&s| (s % freqs.len()) as u32).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            h.encode_symbol(s, &mut w);
        }
        let bits = w.finish();
        let mut r = bits.reader();
        for &s in &symbols {
            prop_assert_eq!(h.decode_symbol(&mut r).unwrap(), s);
        }
        prop_assert!(r.is_exhausted());
    }

    #[test]
    fn byte_codecs_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
        prop_assert_eq!(zipx::decompress(&zipx::compress(&data)).unwrap(), data.clone());
        prop_assert_eq!(rarx::decompress(&rarx::compress(&data)).unwrap(), data);
    }

    #[test]
    fn metrics_are_symmetric_and_zero_on_self(
        incs in proptest::collection::vec((0u16..400, 0u16..200), 1..60),
        other in proptest::collection::vec((0u16..400, 0u16..200), 1..60),
    ) {
        let a = temporal_from_increments(&incs);
        let b = temporal_from_increments(&other);
        prop_assert_eq!(tsnd(&a, &a), 0.0);
        prop_assert_eq!(nstd(&a, &a), 0.0);
        prop_assert_eq!(tsnd(&a, &b), tsnd(&b, &a));
        prop_assert_eq!(nstd(&a, &b), nstd(&b, &a));
        prop_assert!(tsnd(&a, &b) >= 0.0);
    }

    #[test]
    fn press_end_to_end_bounds_hold(
        start in 0u32..49,
        choices in proptest::collection::vec(0u8..8, 5..30),
        incs in proptest::collection::vec((1u16..400, 0u16..200), 3..40),
        tau in 0.0f64..100.0,
        eta in 0.0f64..40.0,
    ) {
        let f = fixture();
        let path = walk_from_choices(&f.net, start, &choices);
        prop_assume!(!path.is_empty());
        // Scale distances to the path weight so the temporal curve is
        // consistent with the spatial path.
        let total: f64 = path.iter().map(|&e| f.net.weight(e)).sum();
        let mut pts = temporal_from_increments(&incs);
        let dmax = pts.last().map_or(1.0, |p| p.d.max(1.0));
        for p in &mut pts {
            p.d = p.d / dmax * total;
        }
        let traj = Trajectory::new(
            SpatialPath::new_unchecked(path),
            TemporalSequence::new_unchecked(pts),
        );
        let press = Press::with_model(
            f.model.clone(),
            PressConfig {
                bounds: BtcBounds::new(tau, eta),
                ..PressConfig::default()
            },
        );
        let compressed = press.compress(&traj).unwrap();
        let restored = press.decompress(&compressed).unwrap();
        prop_assert_eq!(&restored.path, &traj.path, "spatial losslessness");
        prop_assert!(tsnd(&traj.temporal.points, &restored.temporal.points) <= tau + 1e-6);
        prop_assert!(nstd(&traj.temporal.points, &restored.temporal.points) <= eta + 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole invariant (PR 2): the contraction-hierarchy backend is
    /// **bit-identical** to the dense all-pair oracle on arbitrary grid
    /// networks — distances, canonical predecessor edges, interiors and
    /// MBRs — including `v == u`, disconnected pairs (`f64::INFINITY` /
    /// `None`), and the zero-jitter regime where shortest paths tie
    /// massively and only the canonical tie-break keeps answers aligned.
    #[test]
    fn ch_matches_dense_oracle(
        nx in 3usize..7,
        ny in 3usize..7,
        seed in 0u64..1000,
        jitter_milli in 0u32..300,
        removal_milli in 0u32..120,
    ) {
        let net = Arc::new(grid_network(&GridConfig {
            nx,
            ny,
            spacing: 90.0,
            weight_jitter: jitter_milli as f64 / 1000.0,
            removal_prob: removal_milli as f64 / 1000.0,
            seed,
        }));
        let dense = SpTable::build(net.clone());
        let ch = ContractionHierarchy::build(net.clone());
        let mut saw_disconnected = false;
        for u in net.node_ids() {
            for v in net.node_ids() {
                let dd = dense.node_dist(u, v);
                let dc = ch.node_dist(u, v);
                prop_assert_eq!(
                    dd.to_bits(), dc.to_bits(),
                    "distance mismatch {} -> {}: dense {} vs ch {}", u, v, dd, dc
                );
                prop_assert_eq!(
                    dense.pred_edge(u, v), ch.pred_edge(u, v),
                    "pred mismatch {} -> {}", u, v
                );
                if u == v {
                    prop_assert_eq!(dc, 0.0);
                    prop_assert_eq!(ch.pred_edge(u, v), None);
                }
                if dd == f64::INFINITY {
                    saw_disconnected = true;
                    prop_assert_eq!(ch.pred_edge(u, v), None);
                }
            }
        }
        let _ = saw_disconnected; // not guaranteed, but exercised when removal hits
        let edges: Vec<EdgeId> = net.edge_ids().collect();
        for &ei in edges.iter().step_by(7) {
            for &ej in edges.iter().rev().step_by(11) {
                prop_assert_eq!(dense.sp_end(ei, ej), ch.sp_end(ei, ej));
                prop_assert_eq!(dense.sp_interior(ei, ej), ch.sp_interior(ei, ej));
                prop_assert_eq!(dense.sp_mbr(ei, ej), ch.sp_mbr(ei, ej));
            }
        }
    }

    /// Tentpole invariant (PR 4): the hub-label backend is
    /// **bit-identical** to the dense all-pair oracle on arbitrary grid
    /// networks — distances, canonical predecessor edges, interiors and
    /// MBRs — including `v == u`, disconnected pairs (`f64::INFINITY` /
    /// `None`), and the zero-jitter regime where shortest paths tie
    /// massively and only the canonical tie handling (strict stalling in
    /// the label searches, minimal-sum meet, left-to-right
    /// re-accumulation) keeps answers aligned.
    #[test]
    fn hl_matches_dense_oracle(
        nx in 3usize..7,
        ny in 3usize..7,
        seed in 0u64..1000,
        jitter_milli in 0u32..300,
        removal_milli in 0u32..120,
    ) {
        let net = Arc::new(grid_network(&GridConfig {
            nx,
            ny,
            spacing: 90.0,
            weight_jitter: jitter_milli as f64 / 1000.0,
            removal_prob: removal_milli as f64 / 1000.0,
            seed,
        }));
        let dense = SpTable::build(net.clone());
        let hl = HubLabels::build(net.clone());
        for u in net.node_ids() {
            for v in net.node_ids() {
                let dd = dense.node_dist(u, v);
                let dh = hl.node_dist(u, v);
                prop_assert_eq!(
                    dd.to_bits(), dh.to_bits(),
                    "distance mismatch {} -> {}: dense {} vs hl {}", u, v, dd, dh
                );
                prop_assert_eq!(
                    dense.pred_edge(u, v), hl.pred_edge(u, v),
                    "pred mismatch {} -> {}", u, v
                );
                if u == v {
                    prop_assert_eq!(dh, 0.0);
                    prop_assert_eq!(hl.pred_edge(u, v), None);
                }
                if dd == f64::INFINITY {
                    prop_assert_eq!(hl.pred_edge(u, v), None);
                }
            }
        }
        let edges: Vec<EdgeId> = net.edge_ids().collect();
        for &ei in edges.iter().step_by(7) {
            for &ej in edges.iter().rev().step_by(11) {
                prop_assert_eq!(dense.sp_end(ei, ej), hl.sp_end(ei, ej));
                prop_assert_eq!(dense.sp_interior(ei, ej), hl.sp_interior(ei, ej));
                prop_assert_eq!(dense.sp_mbr(ei, ej), hl.sp_mbr(ei, ej));
            }
        }
    }

    /// Full-pipeline bit-identity: training and compressing the same
    /// corpus over the CH and HL backends yields byte-identical output to
    /// the dense oracle (the property `sp_backend_report` asserts at
    /// scale).
    #[test]
    fn ch_and_hl_pipeline_output_matches_dense(
        seed in 0u64..200,
        starts in proptest::collection::vec((0u32..36, proptest::collection::vec(0u8..6, 4..18)), 8..20),
    ) {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 6,
            spacing: 100.0,
            weight_jitter: if seed % 2 == 0 { 0.2 } else { 0.0 },
            removal_prob: 0.03,
            seed,
        }));
        let paths: Vec<Vec<EdgeId>> = starts
            .iter()
            .map(|(s, choices)| walk_from_choices(&net, *s, choices))
            .filter(|p| !p.is_empty())
            .collect();
        prop_assume!(paths.len() >= 4);
        let dense: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
        let ch: Arc<dyn SpProvider> = Arc::new(ContractionHierarchy::build(net.clone()));
        let hl: Arc<dyn SpProvider> = Arc::new(HubLabels::build(net.clone()));
        let split = paths.len() / 2;
        let md = HscModel::train(dense, &paths[..split], 3).unwrap();
        let mc = HscModel::train(ch, &paths[..split], 3).unwrap();
        let mh = HscModel::train(hl, &paths[..split], 3).unwrap();
        for p in &paths[split..] {
            let cd = md.compress(p).unwrap();
            let cc = mc.compress(p).unwrap();
            let ch_ = mh.compress(p).unwrap();
            prop_assert_eq!(&cd, &cc, "compressed bits differ between dense and CH");
            prop_assert_eq!(&cd, &ch_, "compressed bits differ between dense and HL");
            prop_assert_eq!(mc.decompress(&cc).unwrap(), p.clone());
            prop_assert_eq!(mh.decompress(&ch_).unwrap(), p.clone());
        }
    }

    /// Tentpole invariant (PR 5): batched independent-set contraction is
    /// a **pure function of the network** — the worker count used for
    /// the parallel priority and witness phases never leaks into the
    /// result. The rank order, shortcut arcs, and the serialized
    /// `sp_ch.press` bytes are byte-identical across 1/2/3/7 workers,
    /// and so are the `sp_hl.press` bytes of the labeling derived from
    /// each hierarchy — jittered and fully tied regimes both.
    #[test]
    fn contraction_artifacts_are_thread_count_invariant(
        nx in 3usize..7,
        ny in 3usize..7,
        seed in 0u64..1000,
        tied in any::<bool>(),
        removal_milli in 0u32..120,
    ) {
        let net = Arc::new(grid_network(&GridConfig {
            nx,
            ny,
            spacing: 90.0,
            weight_jitter: if tied { 0.0 } else { 0.2 },
            removal_prob: removal_milli as f64 / 1000.0,
            seed,
        }));
        let reference = ContractionHierarchy::build_with(
            net.clone(),
            ChConfig { threads: 1, ..ChConfig::default() },
        );
        let ch_bytes = reference.to_store_bytes();
        let hl_bytes = HubLabels::from_ch(&reference, 1).to_store_bytes();
        for threads in [2usize, 3, 7] {
            let multi = ContractionHierarchy::build_with(
                net.clone(),
                ChConfig { threads, ..ChConfig::default() },
            );
            prop_assert_eq!(
                &ch_bytes,
                &multi.to_store_bytes(),
                "sp_ch.press bytes differ at {} workers", threads
            );
            prop_assert_eq!(
                &hl_bytes,
                &HubLabels::from_ch(&multi, threads).to_store_bytes(),
                "sp_hl.press bytes differ at {} workers", threads
            );
        }
    }
}

/// Separate (non-proptest) check: the greedy SP compression is optimal on
/// small paths — no alternative valid "skip" subset is shorter. Exhaustive
/// over all subsets for paths up to 10 edges.
#[test]
fn greedy_sp_is_optimal_exhaustively() {
    let f = fixture();
    let paths: Vec<Vec<EdgeId>> = (0..20u64)
        .map(|s| {
            walk_from_choices(
                &f.net,
                (s * 13 % 49) as u32,
                &(0..9)
                    .map(|i| ((s * 17 + i * 3) % 5) as u8)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    for path in paths.iter().filter(|p| p.len() >= 3) {
        let greedy = sp_compress(&f.sp, path);
        let n = path.len();
        // Enumerate subsets of interior edges to keep; a subset is valid if
        // expanding consecutive kept edges by shortest paths reproduces the
        // original path.
        let interior = n - 2;
        let mut best = n;
        for mask in 0..(1u32 << interior) {
            let mut kept = vec![path[0]];
            for (i, &e) in path.iter().enumerate().skip(1).take(interior) {
                if mask & (1 << (i - 1)) != 0 {
                    kept.push(e);
                }
            }
            kept.push(path[n - 1]);
            if let Ok(expanded) = sp_decompress(&f.sp, &kept) {
                if expanded == *path {
                    best = best.min(kept.len());
                }
            }
        }
        assert_eq!(
            greedy.len(),
            best,
            "greedy must match the exhaustive optimum for {path:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming compressors under **arbitrary push chunking**: feeding
    /// the stream one element at a time and closing it at ANY prefix — a
    /// cloned encoder `finish()`ed mid-stream — is bit-identical to the
    /// batch compressor over exactly that prefix, and the mid-stream
    /// clone never perturbs the continuing encoder. This is the invariant
    /// the press-serve ingest engine's segmentation (idle timeouts,
    /// session caps, crash-recovery replay) is built on.
    #[test]
    fn online_sp_equals_batch_at_every_cut(
        start in 0u32..49,
        choices in proptest::collection::vec(0u8..8, 0..24),
    ) {
        let f = fixture();
        let path = walk_from_choices(&f.net, start, &choices);
        let sp: Arc<dyn SpProvider> = f.sp.clone();
        let mut enc = OnlineSpCompressor::new(sp.clone());
        let mut emitted: Vec<EdgeId> = Vec::new();
        // Empty stream: finish alone emits nothing, batch agrees.
        prop_assert_eq!(OnlineSpCompressor::new(sp.clone()).finish(), sp_compress(&f.sp, &[]));
        for (i, &e) in path.iter().enumerate() {
            emitted.extend(enc.push(e));
            // Cut here: emitted-so-far + a cloned finish == batch(prefix).
            let mut cut = emitted.clone();
            cut.extend(enc.clone().finish());
            prop_assert_eq!(&cut, &sp_compress(&f.sp, &path[..=i]), "cut after edge {}", i);
            // Already-emitted output is a committed prefix of every cut.
            prop_assert!(cut.len() >= emitted.len());
        }
    }

    #[test]
    fn online_btc_equals_batch_at_every_cut(
        incs in proptest::collection::vec((0u16..400, 0u16..200), 0..40),
        tau in 0.0f64..60.0,
        eta in 0.0f64..30.0,
    ) {
        let pts = temporal_from_increments(&incs);
        let bounds = BtcBounds::new(tau, eta);
        prop_assert!(OnlineBtc::new(bounds).finish().is_empty());
        let mut enc = OnlineBtc::new(bounds);
        let mut emitted: Vec<DtPoint> = Vec::new();
        for (i, &p) in pts.iter().enumerate() {
            emitted.extend(enc.push(p));
            let mut cut = emitted.clone();
            cut.extend(enc.clone().finish());
            prop_assert_eq!(&cut, &btc_compress(&pts[..=i], bounds), "cut after tuple {}", i);
            prop_assert!(cut.len() >= emitted.len());
        }
    }
}
