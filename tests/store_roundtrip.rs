//! Property tests for the press-store artifact tier: save → load → query
//! must be **bit-identical** to the in-memory path for every SP backend
//! and for the trained HSC model, and every corruption mode (truncation,
//! bit flips, wrong magic/version/kind) must yield a typed error — never
//! a panic, never a silently wrong structure.

use press::core::query::QueryEngine;
use press::core::spatial::HscModel;
use press::core::TrajectoryStore;
use press::network::{
    grid_network, ContractionHierarchy, GridConfig, HubLabels, RoadNetwork, SpProvider, SpTable,
};
use press::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// A (freshly built, loaded-from-store, label) provider triple.
type ProviderPair = (Arc<dyn SpProvider>, Arc<dyn SpProvider>, &'static str);

/// A small jittered grid from proptest-drawn parameters.
fn net_from(nx: usize, ny: usize, jitter: f64, seed: u64) -> Arc<RoadNetwork> {
    Arc::new(grid_network(&GridConfig {
        nx,
        ny,
        spacing: 120.0,
        weight_jitter: jitter,
        removal_prob: 0.05,
        seed,
    }))
}

/// Deterministically turns choice bytes into a valid connected path.
fn walk_from_choices(net: &RoadNetwork, start: u32, choices: &[u8]) -> Vec<EdgeId> {
    let mut node = NodeId(start % net.num_nodes() as u32);
    let mut path: Vec<EdgeId> = Vec::with_capacity(choices.len());
    for &c in choices {
        let out = net.out_edges(node);
        if out.is_empty() {
            break;
        }
        let candidates: Vec<EdgeId> = out
            .iter()
            .copied()
            .filter(|&e| {
                path.last()
                    .is_none_or(|&p| net.edge(e).to != net.edge(p).from)
            })
            .collect();
        let pool = if candidates.is_empty() {
            out.to_vec()
        } else {
            candidates
        };
        let e = pool[c as usize % pool.len()];
        path.push(e);
        node = net.edge(e).to;
    }
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All three SP backends: the loaded structure answers node_dist /
    /// pred_edge / sp_mbr bit-identically to the built one on random
    /// networks.
    #[test]
    fn sp_backends_roundtrip_bit_identically(
        nx in 3usize..6,
        ny in 3usize..6,
        jitter in 0.0f64..0.3,
        seed in 0u64..500,
    ) {
        let net = net_from(nx, ny, jitter, seed);
        let dense = SpTable::build(net.clone());
        let dense_loaded =
            SpTable::from_store_bytes(net.clone(), dense.to_store_bytes()).expect("dense load");
        let ch = ContractionHierarchy::build(net.clone());
        let ch_loaded =
            ContractionHierarchy::from_store_bytes(net.clone(), ch.to_store_bytes())
                .expect("ch load");
        let hl = HubLabels::from_ch(&ch, 2);
        let hl_loaded =
            HubLabels::from_store_bytes(net.clone(), hl.to_store_bytes()).expect("hl load");
        let pairs: Vec<ProviderPair> = vec![
            (Arc::new(dense), Arc::new(dense_loaded), "dense"),
            (Arc::new(ch), Arc::new(ch_loaded), "ch"),
            (Arc::new(hl), Arc::new(hl_loaded), "hl"),
        ];
        for (fresh, warm, name) in &pairs {
            for u in net.node_ids() {
                for v in net.node_ids() {
                    prop_assert_eq!(
                        fresh.node_dist(u, v).to_bits(),
                        warm.node_dist(u, v).to_bits(),
                        "{} node_dist({}, {})", name, u, v
                    );
                    prop_assert_eq!(
                        fresh.pred_edge(u, v),
                        warm.pred_edge(u, v),
                        "{} pred_edge({}, {})", name, u, v
                    );
                }
            }
            let edges: Vec<EdgeId> = net.edge_ids().collect();
            for &ei in edges.iter().step_by(7) {
                for &ej in edges.iter().rev().step_by(11) {
                    prop_assert_eq!(fresh.sp_end(ei, ej), warm.sp_end(ei, ej));
                    prop_assert_eq!(fresh.sp_mbr(ei, ej), warm.sp_mbr(ei, ej));
                }
            }
        }
    }

    /// The persisted HSC model compresses, decompresses, and answers
    /// whereat/whenat queries bit-identically to the trained one.
    #[test]
    fn hsc_model_roundtrips_bit_identically(
        seed in 0u64..300,
        starts in proptest::collection::vec((0u32..1000, proptest::collection::vec(0u8..8, 4..20)), 6..14),
    ) {
        let net = net_from(5, 5, 0.15, seed);
        let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
        let training: Vec<Vec<EdgeId>> = starts
            .iter()
            .map(|(s, cs)| walk_from_choices(&net, *s, cs))
            .filter(|p| !p.is_empty())
            .collect();
        prop_assume!(!training.is_empty());
        let model = HscModel::train(sp.clone(), &training, 3).expect("train");
        let loaded = HscModel::from_store_bytes(sp, model.to_store_bytes()).expect("load");
        for path in &training {
            let a = model.compress(path).expect("compress fresh");
            let b = loaded.compress(path).expect("compress loaded");
            prop_assert_eq!(&a, &b, "compressed bits differ");
            prop_assert_eq!(
                model.decompress(&a).expect("decompress"),
                loaded.decompress(&b).expect("decompress loaded")
            );
        }
        // Query engines over both models agree bit-for-bit.
        let fresh_engine = QueryEngine::new(&model);
        let warm_engine = QueryEngine::new(&loaded);
        for path in training.iter().take(4) {
            let total: f64 = path.iter().map(|&e| net.weight(e)).sum();
            let pts = vec![DtPoint::new(0.0, 0.0), DtPoint::new(total, 60.0)];
            let ct = CompressedTrajectory {
                spatial: model.compress(path).expect("compress"),
                temporal: press::core::TemporalSequence::new(pts).expect("temporal"),
            };
            for k in 0..5 {
                let t = 60.0 * k as f64 / 4.0;
                let a = fresh_engine.whereat(&ct, t).expect("whereat");
                let b = warm_engine.whereat(&ct, t).expect("whereat loaded");
                prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
                prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
            }
        }
    }

    /// The mapped open path under single-byte corruption: opening a
    /// damaged artifact through the zero-copy tier either fails with a
    /// typed error (at the O(metadata) open or at first touch inside
    /// `validate`) or yields a provider whose answers are bit-identical
    /// to the freshly built one — never a panic, never a silently wrong
    /// structure. Flips landing in sections the mapped path never reads
    /// (the compact `_c` payloads, alignment gaps, their stored CRCs)
    /// are *allowed* to go unnoticed: that deferral is the lazy-CRC
    /// contract, and the answers must still match exactly.
    #[test]
    fn mapped_single_byte_corruption_never_panics(
        seed in 0u64..200,
        flip in 0usize..4096,
        bit in 0u8..8,
        which in 0usize..2,
    ) {
        let net = net_from(4, 4, 0.1, seed);
        let ch = ContractionHierarchy::build(net.clone());
        let (fresh, mut bytes): (Arc<dyn SpProvider>, Vec<u8>) = if which == 0 {
            let bytes = ch.to_store_bytes();
            (Arc::new(ch), bytes)
        } else {
            let hl = HubLabels::from_ch(&ch, 1);
            let bytes = hl.to_store_bytes();
            (Arc::new(hl), bytes)
        };
        let idx = flip % bytes.len();
        bytes[idx] ^= 1 << bit;
        let path = std::env::temp_dir().join(format!(
            "press-mapcorrupt-{}-{}-{}-{}-{}.press",
            std::process::id(), seed, flip, bit, which
        ));
        std::fs::write(&path, &bytes).expect("write corrupted artifact");
        let loaded: Result<Arc<dyn SpProvider>, press_store::StoreError> = if which == 0 {
            MappedContractionHierarchy::open(net.clone(), &path)
                .and_then(|m| m.validate())
                .map(|c| Arc::new(c) as Arc<dyn SpProvider>)
        } else {
            MappedHubLabels::open(net.clone(), &path)
                .and_then(|m| m.validate())
                .map(|h| Arc::new(h) as Arc<dyn SpProvider>)
        };
        let _ = std::fs::remove_file(&path);
        match loaded {
            Err(_) => {}
            Ok(loaded) => {
                for u in net.node_ids().take(6) {
                    for v in net.node_ids().take(6) {
                        prop_assert_eq!(
                            fresh.node_dist(u, v).to_bits(),
                            loaded.node_dist(u, v).to_bits()
                        );
                        prop_assert_eq!(fresh.pred_edge(u, v), loaded.pred_edge(u, v));
                    }
                }
            }
        }
    }

    /// Corrupting any single byte of any artifact yields a typed error or
    /// an unchanged (still-valid) load — never a panic and never a
    /// structurally different artifact that answers differently. Covers
    /// both the hierarchy and the hub-label artifacts (the two compact
    /// delta+varint formats).
    #[test]
    fn single_byte_corruption_never_panics(
        seed in 0u64..200,
        flip in 0usize..4096,
        bit in 0u8..8,
        which in 0usize..2,
    ) {
        let net = net_from(4, 4, 0.1, seed);
        let ch = ContractionHierarchy::build(net.clone());
        let fresh: Arc<dyn SpProvider> = if which == 0 {
            Arc::new(ContractionHierarchy::from_store_bytes(net.clone(), ch.to_store_bytes()).expect("ch reload"))
        } else {
            Arc::new(HubLabels::from_ch(&ch, 1))
        };
        let bytes = if which == 0 {
            ch.to_store_bytes()
        } else {
            HubLabels::from_ch(&ch, 1).to_store_bytes()
        };
        let idx = flip % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[idx] ^= 1 << bit;
        let loaded: Result<Arc<dyn SpProvider>, press_store::StoreError> = if which == 0 {
            ContractionHierarchy::from_store_bytes(net.clone(), corrupted)
                .map(|c| Arc::new(c) as Arc<dyn SpProvider>)
        } else {
            HubLabels::from_store_bytes(net.clone(), corrupted)
                .map(|h| Arc::new(h) as Arc<dyn SpProvider>)
        };
        match loaded {
            // CRCs catch payload damage; header damage is typed.
            Err(_) => {}
            Ok(loaded) => {
                // A flip that still loads must have hit dead bytes
                // (section padding/reserved): answers are unchanged.
                for u in net.node_ids().take(6) {
                    for v in net.node_ids().take(6) {
                        prop_assert_eq!(
                            fresh.node_dist(u, v).to_bits(),
                            loaded.node_dist(u, v).to_bits()
                        );
                    }
                }
            }
        }
    }
}

/// Non-proptest corruption matrix: the exact typed error per mode.
#[test]
fn corruption_modes_are_typed() {
    use press_store::StoreError;
    let net = net_from(4, 4, 0.12, 7);
    let table = SpTable::build(net.clone());
    let good = table.to_store_bytes();

    // Truncated file (every prefix).
    for cut in [0, 7, 23, good.len() / 2, good.len() - 1] {
        let err = SpTable::from_store_bytes(net.clone(), good[..cut].to_vec());
        assert!(err.is_err(), "cut at {cut} must fail");
    }
    // Bad magic.
    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(
        SpTable::from_store_bytes(net.clone(), bad),
        Err(StoreError::BadMagic)
    ));
    // Wrong version.
    let mut bad = good.clone();
    bad[8] = 77;
    assert!(matches!(
        SpTable::from_store_bytes(net.clone(), bad),
        Err(StoreError::UnsupportedVersion { found: 77, .. })
    ));
    // Wrong artifact kind: feed the network file to the table loader.
    assert!(matches!(
        SpTable::from_store_bytes(net.clone(), net.to_store_bytes()),
        Err(StoreError::WrongKind { .. })
    ));
    // Payload bit flip: CRC catches it.
    let mut bad = good.clone();
    let n = bad.len();
    bad[n - 10] ^= 0x08;
    assert!(matches!(
        SpTable::from_store_bytes(net.clone(), bad),
        Err(StoreError::ChecksumMismatch { .. })
    ));
}

/// Kind id 3 is retired and reserved: a file of that kind (an old
/// per-source tree cache) is refused with a typed `WrongKind` by every
/// SP loader, never misread.
#[test]
fn retired_kind_3_is_refused_by_every_sp_loader() {
    use press_store::StoreError;
    let net = net_from(3, 3, 0.1, 1);
    let mut w = press_store::StoreWriter::new(3);
    w.section("trees", vec![0u8; 16]);
    let old = w.to_bytes();
    let is_wrong_kind =
        |e: Option<StoreError>| matches!(e, Some(StoreError::WrongKind { found: 3, .. }));
    assert!(is_wrong_kind(
        SpTable::from_store_bytes(net.clone(), old.clone()).err()
    ));
    assert!(is_wrong_kind(
        ContractionHierarchy::from_store_bytes(net.clone(), old.clone()).err()
    ));
    assert!(is_wrong_kind(
        HubLabels::from_store_bytes(net.clone(), old).err()
    ));
}

/// Mapped flat-section corruption matrix: a bit flip inside a flat
/// (mapped-tier) section of the hierarchy, hub-label, or corpus
/// artifact is invisible to the O(metadata) `open` — the damaged bytes
/// have not been read yet — and surfaces as a typed
/// `StoreError::ChecksumMismatch` on first touch: `validate()` for the
/// SP artifacts, the first decode of the damaged block for the corpus.
/// The flat payloads are declared last, so flipping the final file
/// bytes deterministically lands in a flat section.
#[test]
fn mapped_flat_section_bit_flip_is_typed_checksum_error_on_first_touch() {
    use press_store::StoreError;
    let net = net_from(5, 5, 0.12, 23);
    let dir = std::env::temp_dir().join(format!("press-map-flip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Contraction hierarchy: open is fine, validate reports the damage.
    let ch = ContractionHierarchy::build(net.clone());
    let mut bytes = ch.to_store_bytes();
    let n = bytes.len();
    bytes[n - 1] ^= 0x04;
    let path = dir.join("sp_ch.press");
    std::fs::write(&path, &bytes).expect("write");
    let mapped = MappedContractionHierarchy::open(net.clone(), &path)
        .expect("mapped open is O(metadata); the flipped byte is unread");
    assert!(matches!(
        mapped.validate(),
        Err(StoreError::ChecksumMismatch { .. })
    ));

    // Hub labels: same two-phase contract.
    let hl = HubLabels::from_ch(&ch, 1);
    let mut bytes = hl.to_store_bytes();
    let n = bytes.len();
    bytes[n - 1] ^= 0x40;
    let path = dir.join("sp_hl.press");
    std::fs::write(&path, &bytes).expect("write");
    let mapped = MappedHubLabels::open(net.clone(), &path)
        .expect("mapped open is O(metadata); the flipped byte is unread");
    assert!(matches!(
        mapped.validate(),
        Err(StoreError::ChecksumMismatch { .. })
    ));

    // Corpus: blocks decode lazily, so a flip in the last block is
    // reported by the first `get` that touches it — earlier blocks and
    // the open itself stay clean.
    let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
    let mut training = Vec::new();
    for s in 0..14u64 {
        let choices: Vec<u8> = (0..12).map(|i| ((s * 7 + i * 3) % 5) as u8).collect();
        let p = walk_from_choices(&net, (s * 5) as u32, &choices);
        if p.len() >= 3 {
            training.push(p);
        }
    }
    let model = HscModel::train(sp, &training, 3).expect("train");
    let press = Press::with_model(Arc::new(model), PressConfig::default());
    let compressed: Vec<CompressedTrajectory> = training
        .iter()
        .map(|p| {
            let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
            let traj = Trajectory::new(
                SpatialPath::new_unchecked(p.clone()),
                TemporalSequence::new(vec![DtPoint::new(0.0, 0.0), DtPoint::new(total, 60.0)])
                    .expect("temporal"),
            );
            press.compress(&traj).expect("compress")
        })
        .collect();
    let engine = QueryEngine::new(press.model());
    let mut bytes = TrajectoryStore::to_store_bytes(&engine, &compressed, 4).expect("bytes");
    let n = bytes.len();
    bytes[n - 2] ^= 0x20;
    let path = dir.join("corpus.press");
    std::fs::write(&path, &bytes).expect("write");
    let store = TrajectoryStore::open_mapped(&path).expect("mapped corpus open defers block CRCs");
    assert!(store.is_mapped());
    assert_eq!(
        store.get(0).expect("first block is undamaged"),
        compressed[0]
    );
    assert!(matches!(
        store.get(compressed.len() - 1),
        Err(PressError::Store(StoreError::ChecksumMismatch { .. }))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `TrajectoryStore::open` corruption matrix: the 0-byte file (a crash
/// between `create` and the first write) and a file truncated in the
/// middle of the section directory (a torn multi-sector write) must both
/// yield typed errors — never a panic, never a partially-valid store.
#[test]
fn trajectory_store_open_rejects_empty_and_torn_directory() {
    use press_store::StoreError;
    let net = net_from(5, 5, 0.1, 13);
    let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
    let mut training = Vec::new();
    for s in 0..12u64 {
        let choices: Vec<u8> = (0..10).map(|i| ((s * 11 + i * 3) % 5) as u8).collect();
        let p = walk_from_choices(&net, (s * 5) as u32, &choices);
        if p.len() >= 3 {
            training.push(p);
        }
    }
    let model = HscModel::train(sp, &training, 3).expect("train");
    let press = Press::with_model(Arc::new(model), PressConfig::default());
    let compressed: Vec<CompressedTrajectory> = training
        .iter()
        .map(|p| {
            let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
            let traj = Trajectory::new(
                SpatialPath::new_unchecked(p.clone()),
                TemporalSequence::new(vec![DtPoint::new(0.0, 0.0), DtPoint::new(total, 60.0)])
                    .expect("temporal"),
            );
            press.compress(&traj).expect("compress")
        })
        .collect();
    let engine = QueryEngine::new(press.model());
    let good = TrajectoryStore::to_store_bytes(&engine, &compressed, 4).expect("bytes");

    let dir = std::env::temp_dir().join(format!("press-store-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    // 0-byte file: typed truncation, not a panic.
    let empty = dir.join("empty.press");
    std::fs::write(&empty, []).expect("write");
    assert!(matches!(
        TrajectoryStore::open(&empty),
        Err(PressError::Store(StoreError::Truncated { .. }))
    ));

    // Truncation inside the section directory: the container header
    // (24 bytes) survives, but the 40-byte directory entries are torn at
    // every possible misalignment. Every cut is a typed error.
    let torn = dir.join("torn.press");
    for cut in [25, 24 + 13, 24 + 40, 24 + 40 + 39, 24 + 2 * 40 + 1] {
        assert!(cut < good.len(), "fixture must outsize the cut at {cut}");
        std::fs::write(&torn, &good[..cut]).expect("write");
        let r = TrajectoryStore::open(&torn);
        assert!(r.is_err(), "directory cut at byte {cut} must fail");
        assert!(
            matches!(r, Err(PressError::Store(_))),
            "directory cut at byte {cut} must be a typed store error"
        );
    }

    // The untruncated bytes still load (the matrix above tested the cuts,
    // not a broken fixture).
    std::fs::write(&torn, &good).expect("write");
    assert_eq!(
        TrajectoryStore::open(&torn).expect("full file loads").len(),
        compressed.len()
    );
    // decode_all returns the corpus in index order (the recovery path).
    let store = TrajectoryStore::open(&torn).expect("open");
    assert_eq!(store.decode_all().expect("decode_all"), compressed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Index-section corruption matrix: a bit flip inside the persisted
/// synopsis index is a CRC failure; a CRC-valid but logically wrong
/// index is a typed `Corrupt` error; a *stripped* index section (a file
/// written before the index existed) loads fine and answers identically
/// — the index is rebuilt in memory, never guessed.
#[test]
fn index_section_corruption_matrix() {
    use press_store::{IndexEntry, StoreError, StoreFile, StoreWriter, SynopsisIndex};
    let net = net_from(5, 5, 0.1, 19);
    let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
    let mut training = Vec::new();
    for s in 0..16u64 {
        let choices: Vec<u8> = (0..10).map(|i| ((s * 9 + i * 5) % 5) as u8).collect();
        let p = walk_from_choices(&net, (s * 3) as u32, &choices);
        if p.len() >= 3 {
            training.push(p);
        }
    }
    let model = HscModel::train(sp, &training, 3).expect("train");
    let press = Press::with_model(Arc::new(model), PressConfig::default());
    let compressed: Vec<CompressedTrajectory> = training
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
            let traj = Trajectory::new(
                SpatialPath::new_unchecked(p.clone()),
                TemporalSequence::new(vec![
                    DtPoint::new(0.0, k as f64 * 200.0),
                    DtPoint::new(total, k as f64 * 200.0 + 80.0),
                ])
                .expect("temporal"),
            );
            press.compress(&traj).expect("compress")
        })
        .collect();
    let engine = QueryEngine::new(press.model());
    let good = TrajectoryStore::to_store_bytes(&engine, &compressed, 3).expect("bytes");
    let store = TrajectoryStore::from_store_bytes(good.clone()).expect("load");
    let region = Mbr::new(-1e9, -1e9, 1e9, 1e9);
    let reference = store.range(&engine, 0.0, 700.0, &region).expect("range");

    // Rewrites the container, replacing the index section via `f`.
    let rebuild = |f: &dyn Fn(&[u8]) -> Option<Vec<u8>>| -> Vec<u8> {
        let file = StoreFile::from_bytes(good.clone()).expect("parse");
        let mut w = StoreWriter::new(file.kind());
        for name in file.section_names() {
            let payload = file.section(name).expect("section");
            if name == "index" {
                if let Some(p) = f(payload) {
                    w.section(name, p);
                }
            } else {
                w.section(name, payload.to_vec());
            }
        }
        w.to_bytes()
    };

    // 1. Bit flip inside the index payload: the section CRC catches it.
    let index_payload = store.synopsis_index().to_section_bytes();
    let pos = good
        .windows(index_payload.len())
        .position(|w| w == index_payload)
        .expect("index payload must appear in the file");
    let mut flipped = good.clone();
    flipped[pos + index_payload.len() / 2] ^= 0x10;
    match TrajectoryStore::from_store_bytes(flipped) {
        Err(PressError::Store(StoreError::ChecksumMismatch { section })) => {
            assert_eq!(section, "index")
        }
        other => panic!("expected index checksum mismatch, got {other:?}"),
    }

    // 2. CRC-valid but logically wrong index (one leaf dropped): typed
    //    Corrupt, never a silently wrong answer.
    let wrong = rebuild(&|payload: &[u8]| {
        let idx = SynopsisIndex::from_section_bytes(payload).expect("decode");
        let leaves: Vec<IndexEntry> = (0..idx.num_leaves() - 1).map(|i| *idx.leaf(i)).collect();
        Some(SynopsisIndex::build(leaves, idx.branching()).to_section_bytes())
    });
    assert!(matches!(
        TrajectoryStore::from_store_bytes(wrong),
        Err(PressError::Store(StoreError::Corrupt(_)))
    ));

    // 3. Stripped index section (pre-index file): loads, rebuilds in
    //    memory, and answers identically.
    let stripped = rebuild(&|_| None);
    let file = StoreFile::from_bytes(stripped.clone()).expect("parse");
    assert!(!file.has_section("index"));
    let old = TrajectoryStore::from_store_bytes(stripped).expect("pre-index file must load");
    assert_eq!(
        old.range(&engine, 0.0, 700.0, &region).expect("range"),
        reference
    );
    assert_eq!(
        old.range_linear(&engine, 0.0, 700.0, &region)
            .expect("linear"),
        reference
    );
    assert_eq!(old.synopsis_index(), store.synopsis_index());
}

/// End-to-end: a trajectory corpus written as a block store round-trips
/// and answers queries identically to the in-memory compressed forms.
#[test]
fn trajectory_store_end_to_end() {
    let net = net_from(6, 6, 0.15, 42);
    let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
    let mut training = Vec::new();
    for s in 0..40u64 {
        let choices: Vec<u8> = (0..16).map(|i| ((s * 13 + i * 5) % 6) as u8).collect();
        let p = walk_from_choices(&net, (s * 7) as u32, &choices);
        if p.len() >= 4 {
            training.push(p);
        }
    }
    let model = HscModel::train(sp, &training, 3).expect("train");
    let press = Press::with_model(Arc::new(model), PressConfig::default());
    let trajs: Vec<Trajectory> = training
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
            let pts = vec![
                DtPoint::new(0.0, k as f64 * 100.0),
                DtPoint::new(total / 2.0, k as f64 * 100.0 + 40.0),
                DtPoint::new(total, k as f64 * 100.0 + 90.0),
            ];
            Trajectory::new(
                SpatialPath::new_unchecked(p.clone()),
                TemporalSequence::new(pts).expect("temporal"),
            )
        })
        .collect();
    let compressed: Vec<CompressedTrajectory> = trajs
        .iter()
        .map(|t| press.compress(t).expect("compress"))
        .collect();
    let engine = QueryEngine::new(press.model());
    let dir = std::env::temp_dir().join(format!("press-trajstore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("corpus.press");
    TrajectoryStore::create(&path, &engine, &compressed, 6).expect("create");
    let store = TrajectoryStore::open(&path).expect("open");
    assert_eq!(store.len(), compressed.len());
    for (i, ct) in compressed.iter().enumerate() {
        assert_eq!(&store.get(i).expect("get"), ct);
    }
    // Queries equal the in-memory engine.
    for (i, (traj, ct)) in trajs.iter().zip(&compressed).enumerate().step_by(3) {
        let (t0, t1) = traj.temporal.time_range().expect("range");
        let t = (t0 + t1) / 2.0;
        let mem = engine.whereat(ct, t).expect("whereat");
        let disk = store.whereat(&engine, i, t).expect("whereat disk");
        assert_eq!(mem.x.to_bits(), disk.x.to_bits());
        assert_eq!(mem.y.to_bits(), disk.y.to_bits());
    }
    // The staggered time spans let range skip blocks; results match brute force.
    let bb = net.bounding_box();
    let region = Mbr::new(bb.min_x, bb.min_y, bb.max_x, bb.max_y);
    let hits = store.range(&engine, 0.0, 250.0, &region).expect("range");
    let brute: Vec<usize> = compressed
        .iter()
        .enumerate()
        .filter(|(_, ct)| {
            let (a, z) = ct.temporal.time_range().expect("range");
            z >= 0.0 && a <= 250.0 && engine.range(ct, 0.0, 250.0, &region).expect("range")
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(hits, brute);
    let (_, skipped) = store.io_stats();
    assert!(skipped > 0, "time-span synopses must have skipped blocks");
    let _ = std::fs::remove_dir_all(&dir);
}
