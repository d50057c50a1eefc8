//! Checkpoint ↔ corpus-section integration tests.
//!
//! A checkpointed corpus must carry the persisted `index` section, a
//! pre-index corpus (section stripped) must still recover with identical
//! answers, and a logically corrupted index must surface as a typed
//! error at recovery — never a wrong answer. The engine opens only what
//! it writes: a pre-sharding (manifest v1) directory, a shard corpus
//! without its `ingest` section, and a crafted `ingest` section are
//! typed refusals.

use press_core::query::QueryEngine;
use press_core::store::TrajectoryStore;
use press_core::{BtcBounds, Press, PressConfig, PressError, QueryBatch};
use press_matcher::{GpsSample, MapMatcher, MatcherConfig};
use press_network::{grid_network, GridConfig, Mbr, RoadNetwork, SpBackend};
use press_serve::{Ack, Event, IngestConfig, IngestEngine, ServeError, SessionPolicy};
use press_store::{IndexEntry, StoreError, StoreFile, StoreWriter, SynopsisIndex};
use press_workload::{query_mix, QueryMixConfig, Workload, WorkloadConfig};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

struct Fleet {
    #[allow(dead_code)]
    net: Arc<RoadNetwork>,
    matcher: Arc<MapMatcher>,
    press: Press,
    events: Vec<Event>,
}

fn fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            spacing: 150.0,
            weight_jitter: 0.12,
            removal_prob: 0.0,
            seed: 33,
        }));
        let sp = SpBackend::Dense.build(net.clone());
        let workload = Workload::generate(
            net.clone(),
            sp.clone(),
            WorkloadConfig {
                num_trajectories: 24,
                seed: 33,
                ..WorkloadConfig::default()
            },
        );
        let (train, eval) = workload.split(0.5);
        let training_paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
        let press = Press::train(
            sp,
            &training_paths,
            PressConfig {
                bounds: BtcBounds::new(45.0, 15.0),
                ..PressConfig::default()
            },
        )
        .expect("training");
        let matcher = Arc::new(MapMatcher::new(net.clone(), MatcherConfig::default()));
        let mut events: Vec<Event> = Vec::new();
        for (v, record) in eval.iter().take(8).enumerate() {
            let trace = record.gps_trace(&net, 8.0, 4.0);
            for p in &trace.points {
                events.push((
                    v as u64,
                    GpsSample {
                        point: p.point,
                        t: p.t + v as f64 * 41.0,
                    },
                ));
            }
        }
        events.sort_by(|a, b| a.1.t.partial_cmp(&b.1.t).expect("finite timestamps"));
        assert!(events.len() > 100, "fixture stream too small");
        Fleet {
            net,
            matcher,
            press,
            events,
        }
    })
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("press-ckpt-index-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> IngestConfig {
    IngestConfig {
        policy: SessionPolicy::default(),
        idle_timeout: 0.0,
        max_session_points: 0,
        block_size: 3,
        threads: 2,
        max_lattice_work: 0,
        max_salvage_splits: 8,
        quarantine_log_cap: 256,
        ..IngestConfig::default()
    }
}

/// Ingests the fixture stream and checkpoints; returns the engine.
fn checkpointed(dir: &std::path::Path, config: IngestConfig) -> IngestEngine {
    let f = fleet();
    let press = f.press.reconfigured(f.press.config());
    let mut engine = IngestEngine::open(dir, Arc::clone(&f.matcher), press, config).expect("open");
    for &(v, s) in &f.events {
        let _ack: Ack = engine.push(v, s).expect("push");
    }
    engine.finalize_all().expect("finalize_all");
    engine.flush().expect("flush");
    engine.checkpoint().expect("checkpoint");
    engine
}

/// Rewrites the container at `path`, applying `f` to choose each
/// section's replacement payload (`None` drops the section).
fn rewrite_corpus(path: &std::path::Path, f: impl Fn(&str, &[u8]) -> Option<Vec<u8>>) {
    let bytes = std::fs::read(path).expect("read corpus");
    let file = StoreFile::from_bytes(bytes).expect("parse corpus");
    let mut w = StoreWriter::new(file.kind());
    for name in file.section_names() {
        if let Some(payload) = f(name, file.section(name).expect("section")) {
            w.section(name, payload);
        }
    }
    std::fs::write(path, w.to_bytes()).expect("rewrite corpus");
}

/// Answers a mixed query batch against the corpus at `path`.
fn answers(path: &std::path::Path, press: &Press) -> Vec<press_core::StoreAnswer> {
    let store = TrajectoryStore::open(path).expect("open store");
    let engine = QueryEngine::new(press.model());
    let mix = query_mix(&QueryMixConfig {
        num_queries: 200,
        seed: 11,
        bbox: Mbr::new(0.0, 0.0, 1200.0, 1200.0),
        t_min: 0.0,
        t_max: 2000.0,
        window_fraction: 0.1,
        num_trajectories: store.len(),
        ..QueryMixConfig::default()
    });
    QueryBatch::from_queries(mix)
        .run(&store, &engine, 3)
        .expect("batch")
}

#[test]
fn checkpoint_publishes_the_index_section() {
    let dir = test_dir("publish");
    let engine = checkpointed(&dir, config());
    let bytes = std::fs::read(engine.shard_corpus_path(0)).expect("corpus bytes");
    let file = StoreFile::from_bytes(bytes).expect("parse");
    assert!(
        file.has_section("index"),
        "checkpointed corpus must persist the synopsis index"
    );
    let store = TrajectoryStore::open(&engine.shard_corpus_path(0)).expect("open");
    assert!(!store.is_empty(), "fixture produced an empty corpus");
    assert_eq!(
        store.synopsis_index().num_leaves(),
        SynopsisIndex::from_section_bytes(file.section("index").expect("index section"))
            .expect("decode index")
            .num_leaves()
    );
}

#[test]
fn pre_index_corpus_recovers_with_identical_answers() {
    let f = fleet();
    let dir = test_dir("preindex");
    let engine = checkpointed(&dir, config());
    let corpus = engine.shard_corpus_path(0);
    let generation = engine.generation();
    drop(engine);
    let press = f.press.reconfigured(f.press.config());
    let expected = answers(&corpus, &press);

    // Strip the index section — the file a pre-index writer produced.
    rewrite_corpus(&corpus, |name, payload| {
        (name != "index").then(|| payload.to_vec())
    });
    let file = StoreFile::from_bytes(std::fs::read(&corpus).expect("read")).expect("parse");
    assert!(!file.has_section("index"));

    // Old-format corpus answers identically (index rebuilt in memory)...
    assert_eq!(answers(&corpus, &press), expected);

    // ...and full engine recovery accepts it.
    let reopened = IngestEngine::open(
        &dir,
        Arc::clone(&f.matcher),
        f.press.reconfigured(f.press.config()),
        config(),
    )
    .expect("recovery over a pre-index corpus");
    assert_eq!(reopened.generation(), generation);
}

#[test]
fn corrupted_index_is_a_typed_error_at_recovery() {
    let f = fleet();
    let dir = test_dir("corrupt");
    let engine = checkpointed(&dir, config());
    let corpus = engine.shard_corpus_path(0);
    drop(engine);

    // CRC-valid but logically wrong index: one leaf too few.
    rewrite_corpus(&corpus, |name, payload| {
        if name == "index" {
            let idx = SynopsisIndex::from_section_bytes(payload).expect("decode");
            let leaves: Vec<IndexEntry> = (0..idx.num_leaves().saturating_sub(1))
                .map(|i| *idx.leaf(i))
                .collect();
            Some(SynopsisIndex::build(leaves, idx.branching()).to_section_bytes())
        } else {
            Some(payload.to_vec())
        }
    });

    let err = TrajectoryStore::open(&corpus).expect_err("wrong index must not load");
    assert!(
        matches!(err, PressError::Store(StoreError::Corrupt(_))),
        "expected typed Corrupt error, got {err:?}"
    );
    let serve_err = match IngestEngine::open(
        &dir,
        Arc::clone(&f.matcher),
        f.press.reconfigured(f.press.config()),
        config(),
    ) {
        Ok(_) => panic!("recovery must reject a corrupted index"),
        Err(e) => e,
    };
    assert!(
        matches!(
            serve_err,
            ServeError::Press(PressError::Store(StoreError::Corrupt(_)))
        ),
        "expected typed Corrupt error, got {serve_err:?}"
    );
}

/// Every file name in `dir` with its bytes, sorted by name.
fn snapshot(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let e = e.expect("entry");
            let name = e.file_name().into_string().expect("utf-8 name");
            (name, std::fs::read(e.path()).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

/// Opens `dir` with `config` and returns the refusal.
fn refusal(dir: &std::path::Path, config: IngestConfig) -> ServeError {
    let f = fleet();
    let press = f.press.reconfigured(f.press.config());
    match IngestEngine::open(dir, Arc::clone(&f.matcher), press, config) {
        Ok(_) => panic!("open must refuse {}", dir.display()),
        Err(e) => e,
    }
}

#[test]
fn v1_directory_is_refused_without_changing_a_byte() {
    // Build the pre-sharding layout from a real 1-shard checkpoint:
    // un-suffixed artifact names, no `ingest` section, 24-byte v1
    // manifest.
    let dir = test_dir("v1");
    let engine = checkpointed(&dir, config());
    let gen = engine.generation();
    drop(engine);
    let corpus = dir.join(format!("corpus.{gen}.press"));
    std::fs::rename(dir.join(format!("corpus.{gen}.s0.press")), &corpus).expect("rename corpus");
    std::fs::rename(
        dir.join(format!("ingest.{gen}.s0.wal")),
        dir.join(format!("ingest.{gen}.wal")),
    )
    .expect("rename journal");
    rewrite_corpus(&corpus, |name, payload| {
        (name != "ingest").then(|| payload.to_vec())
    });
    let mut manifest = Vec::with_capacity(24);
    manifest.extend_from_slice(b"PRESSMFT");
    manifest.extend_from_slice(&1u32.to_le_bytes());
    manifest.extend_from_slice(&gen.to_le_bytes());
    manifest.extend_from_slice(&press_store::crc32(&manifest).to_le_bytes());
    std::fs::write(dir.join("MANIFEST"), &manifest).expect("write v1 manifest");

    let before = snapshot(&dir);
    match refusal(&dir, config()) {
        ServeError::Manifest(msg) => assert!(msg.contains("version 1"), "{msg}"),
        other => panic!("expected a typed manifest refusal, got {other:?}"),
    }
    assert!(
        before == snapshot(&dir),
        "a refused open changed the directory"
    );
    // Without its manifest the un-suffixed artifacts still block a
    // silent fresh start.
    std::fs::remove_file(dir.join("MANIFEST")).expect("remove manifest");
    assert!(matches!(
        refusal(&dir, config()),
        ServeError::Manifest(msg) if msg.contains("MANIFEST is missing")
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_corpus_without_ingest_section_is_refused() {
    let dir = test_dir("no-ingest");
    let config = IngestConfig {
        shards: 3,
        ..config()
    };
    let engine = checkpointed(&dir, config);
    let corpus = engine.shard_corpus_path(1);
    drop(engine);
    rewrite_corpus(&corpus, |name, payload| {
        (name != "ingest").then(|| payload.to_vec())
    });
    match refusal(&dir, config) {
        ServeError::Manifest(msg) => assert!(msg.contains("ingest"), "{msg}"),
        other => panic!("expected a typed manifest refusal, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_section_counter_count_is_bounded_by_its_bytes() {
    // A CRC-consistent `ingest` section whose segment-counter count is
    // u64::MAX must fail typed before anything is sized by that count.
    let dir = test_dir("ingest-count");
    let engine = checkpointed(&dir, config());
    let corpus = engine.shard_corpus_path(0);
    drop(engine);
    rewrite_corpus(&corpus, |name, payload| {
        if name != "ingest" {
            return Some(payload.to_vec());
        }
        // [u32 version][u64 n][n × 21 B keys][u64 m][m × 16 B counters]
        let n = u64::from_le_bytes(payload[4..12].try_into().expect("8 bytes")) as usize;
        let counters_at = 12 + n * 21;
        let mut crafted = payload[..counters_at].to_vec();
        crafted.extend_from_slice(&u64::MAX.to_le_bytes());
        Some(crafted)
    });
    assert!(
        matches!(refusal(&dir, config()), ServeError::Manifest(_)),
        "expected a typed manifest refusal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
