//! Crash-recovery and fault-injection tests for the ingest engine.
//!
//! The central property: for ANY kill offset into the journal, the
//! recovered engine finishes with a corpus byte-identical to a clean
//! engine fed exactly the acked prefix of the stream — no acked point is
//! ever lost, and nothing unacked sneaks in.

use press_core::query::QueryEngine;
use press_core::reformat::{reformat, PathSample};
use press_core::store::TrajectoryStore;
use press_core::{BtcBounds, CompressedTrajectory, Press, PressConfig};
use press_matcher::{GpsSample, MapMatcher, MatcherConfig};
use press_network::{grid_network, GridConfig, Mbr, RoadNetwork, SpBackend};
use press_serve::wal::WAL_HEADER_LEN;
use press_serve::{
    shard_wal_len, truncate_shard_wal, Ack, Event, FaultPlan, IngestConfig, IngestEngine,
    SessionPolicy,
};
use press_workload::{Workload, WorkloadConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Shared fixture: a network, a trained compressor, a matcher, and a
/// clean interleaved multi-vehicle event stream.
struct Fleet {
    net: Arc<RoadNetwork>,
    matcher: Arc<MapMatcher>,
    press: Press,
    events: Vec<Event>,
}

impl Fleet {
    fn press(&self) -> Press {
        self.press.reconfigured(self.press.config())
    }
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
            seed: 21,
        }));
        let sp = SpBackend::Dense.build(net.clone());
        let workload = Workload::generate(
            net.clone(),
            sp.clone(),
            WorkloadConfig {
                num_trajectories: 30,
                seed: 21,
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
        // Eight vehicles, staggered starts, merged into one arrival
        // stream ordered by timestamp.
        let mut events: Vec<Event> = Vec::new();
        for (v, record) in eval.iter().take(10).enumerate() {
            let trace = record.gps_trace(&net, 8.0, 4.0);
            for p in &trace.points {
                events.push((
                    v as u64,
                    GpsSample {
                        point: p.point,
                        t: p.t + v as f64 * 37.0,
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
    let dir = std::env::temp_dir().join(format!("press-ingest-{tag}-{}", std::process::id()));
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

/// Pushes `events` into a fresh engine at `dir`, recording the event
/// index and ack offset of every ingested (journaled) fix.
fn run_clean(
    dir: &std::path::Path,
    cfg: IngestConfig,
    events: &[Event],
) -> (IngestEngine, Vec<(usize, u64)>) {
    let f = fleet();
    let mut engine = IngestEngine::open(dir, Arc::clone(&f.matcher), f.press(), cfg).expect("open");
    let mut acked = Vec::new();
    for (i, &(v, s)) in events.iter().enumerate() {
        if let Some(offset) = engine.push(v, s).expect("push").offset() {
            acked.push((i, offset));
        }
    }
    (engine, acked)
}

/// Finishes an engine (finalize + flush + checkpoint) and returns the
/// published corpus bytes.
fn finish(engine: &mut IngestEngine) -> Vec<u8> {
    engine.finalize_all().expect("finalize_all");
    engine.flush().expect("flush");
    engine.checkpoint().expect("checkpoint");
    std::fs::read(engine.shard_corpus_path(0)).expect("corpus bytes")
}

#[test]
fn clean_ingest_equals_the_offline_pipeline() {
    let f = fleet();
    let dir = test_dir("clean");
    let (mut engine, acked) = run_clean(&dir, config(), &f.events);
    assert_eq!(acked.len(), f.events.len(), "clean stream fully accepted");
    engine.finalize_all().expect("finalize_all");
    let pieces = engine.flush().expect("flush");
    assert!(pieces >= 8, "at least one piece per vehicle");

    // Offline reference: per vehicle, the batch pipeline (salvaging
    // matcher + batch compress) over the same samples. finalize_all
    // closes sessions in first-arrival order = staggered vehicle order.
    let mut expected: Vec<CompressedTrajectory> = Vec::new();
    for v in 0..10u64 {
        let samples: Vec<GpsSample> = f
            .events
            .iter()
            .filter(|(ev, _)| *ev == v)
            .map(|&(_, s)| s)
            .collect();
        let report = f.matcher.match_trajectory_salvaging(&samples, 0, 8);
        assert!(report.dropped.is_empty(), "vehicle {v} should match");
        for piece in report.pieces {
            let path_samples: Vec<PathSample> = piece
                .samples
                .iter()
                .map(|m| PathSample {
                    edge_idx: m.edge_idx,
                    frac: m.frac,
                    t: m.t,
                })
                .collect();
            let traj = reformat(&f.net, piece.edges, &path_samples).expect("reformat");
            expected.push(f.press.compress(&traj).expect("compress"));
        }
    }
    assert_eq!(engine.finished(), &expected[..], "streaming == batch");

    // Checkpoint publishes exactly this corpus.
    engine.checkpoint().expect("checkpoint");
    let store = TrajectoryStore::open(&engine.shard_corpus_path(0)).expect("open corpus");
    assert_eq!(store.len(), expected.len());
    assert_eq!(store.decode_all().expect("decode"), expected);
    // After checkpoint the WAL holds no points (all published).
    let (_, replay) = press_serve::Wal::open(&engine.shard_wal_path(0)).expect("wal");
    assert!(
        !replay
            .records
            .iter()
            .any(|r| matches!(r, press_serve::WalRecord::Point { .. })),
        "checkpoint should leave no in-flight points"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Core crash property, driven at specific cut points by the proptest
/// below: kill run A at `cut` bytes of journal, recover, finish; a clean
/// run B over exactly the acked prefix must produce byte-identical
/// artifacts.
fn assert_kill_recovers(tag: &str, cfg: IngestConfig, events: &[Event], cut: u64) {
    let dir_a = test_dir(&format!("kill-a-{tag}"));
    let (engine_a, acked) = run_clean(&dir_a, cfg, events);
    drop(engine_a); // crash: no finalize, no checkpoint, no sync
    let cut = cut.min(shard_wal_len(&dir_a, 0).expect("wal len"));
    truncate_shard_wal(&dir_a, 0, cut).expect("truncate");

    let f = fleet();
    let mut recovered =
        IngestEngine::open(&dir_a, Arc::clone(&f.matcher), f.press(), cfg).expect("recover");
    let report = *recovered.recovery();
    // Acked prefix: events whose frame survived the cut entirely.
    let survivors = acked.iter().take_while(|&&(_, off)| off <= cut).count();
    assert_eq!(
        report.replayed_points as usize, survivors,
        "cut {cut}: every surviving acked point replays, nothing more"
    );
    let prefix = match acked[..survivors].last() {
        Some(&(idx, _)) => &events[..=idx],
        None => &events[..0],
    };
    let corpus_a = finish(&mut recovered);

    let dir_b = test_dir(&format!("kill-b-{tag}"));
    let (mut engine_b, _) = run_clean(&dir_b, cfg, prefix);
    let corpus_b = finish(&mut engine_b);
    assert_eq!(
        corpus_a, corpus_b,
        "cut {cut}: recovered corpus must be byte-identical to the clean run"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill at an arbitrary journal byte offset — including inside the
    /// header, mid-frame, and exactly on frame boundaries.
    #[test]
    fn kill_at_any_offset_loses_no_acked_point(frac in 0.0f64..=1.0) {
        let f = fleet();
        // Idle + rollover active so recovery also replays segmentation.
        let cfg = IngestConfig {
            idle_timeout: 400.0,
            max_session_points: 24,
            ..config()
        };
        // Probe the full journal: a dry run tells us its final length.
        let dir = test_dir("kill-probe");
        let (engine, _) = run_clean(&dir, cfg, &f.events);
        let final_len = engine.shard_wal_offset(0);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        let cut = (final_len as f64 * frac).round() as u64;
        assert_kill_recovers(&format!("{frac:.6}"), cfg, &f.events, cut);
    }

    /// Same property on a fault-mangled stream: dirty input quarantines
    /// deterministically, so the acked-prefix equivalence still holds.
    #[test]
    fn mangled_stream_recovers_deterministically(seed in 0u64..1_000_000) {
        let f = fleet();
        let plan = FaultPlan {
            seed,
            drop_prob: 0.05,
            corrupt_prob: 0.08,
            duplicate_prob: 0.08,
            reorder_prob: 0.05,
        };
        let mangled = plan.mangle(&f.events);
        let cfg = IngestConfig {
            idle_timeout: 300.0,
            max_session_points: 16,
            max_lattice_work: 200_000,
            ..config()
        };
        let dir = test_dir("mangle-probe");
        let (engine, _) = run_clean(&dir, cfg, &mangled);
        let final_len = engine.shard_wal_offset(0);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        // Derive the kill offset from the seed, spanning the journal.
        let cut = WAL_HEADER_LEN + seed % (final_len - WAL_HEADER_LEN + 1);
        assert_kill_recovers(&format!("m{seed}"), cfg, &mangled, cut);
    }
}

#[test]
fn torn_final_frame_is_recovered_not_fatal() {
    let f = fleet();
    let dir = test_dir("torn");
    let (engine, acked) = run_clean(&dir, config(), &f.events);
    let final_len = engine.shard_wal_offset(0);
    drop(engine);
    // Tear the last frame mid-payload (5 bytes short of complete).
    let cut = final_len - 5;
    truncate_shard_wal(&dir, 0, cut).expect("truncate");
    let recovered =
        IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), config()).expect("recover");
    let report = recovered.recovery();
    assert!(report.torn_bytes > 0, "torn tail must be detected");
    assert_eq!(report.replayed_points as usize, acked.len() - 1);
    assert_eq!(
        report.points_in_flight,
        acked.len() - 1,
        "all surviving points still in flight (no checkpoint yet)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_then_kill_keeps_published_corpus_and_tail() {
    let f = fleet();
    let cfg = IngestConfig {
        idle_timeout: 350.0,
        max_session_points: 20,
        ..config()
    };
    let dir_a = test_dir("ckpt-a");
    let mut engine =
        IngestEngine::open(&dir_a, Arc::clone(&f.matcher), f.press(), cfg).expect("open");
    let split = f.events.len() * 3 / 5;
    let mut acked: Vec<(usize, u64)> = Vec::new();
    for (i, &(v, s)) in f.events[..split].iter().enumerate() {
        if let Some(offset) = engine.push(v, s).expect("push").offset() {
            acked.push((i, offset));
        }
    }
    engine.checkpoint().expect("mid-run checkpoint");
    let base_len = engine.shard_wal_offset(0);
    let pre_checkpoint_accepted = acked.len();
    for (i, &(v, s)) in f.events[split..].iter().enumerate() {
        if let Some(offset) = engine.push(v, s).expect("push").offset() {
            acked.push((split + i, offset));
        }
    }
    let final_len = engine.shard_wal_offset(0);
    drop(engine); // crash after the checkpoint, mid-append
                  // A crash can only tear post-checkpoint appends: the rewritten base
                  // was synced and atomically renamed. Kill somewhere in the tail.
    let cut = base_len + (final_len - base_len) / 3;
    truncate_shard_wal(&dir_a, 0, cut).expect("truncate");

    let mut recovered =
        IngestEngine::open(&dir_a, Arc::clone(&f.matcher), f.press(), cfg).expect("recover");
    assert!(
        recovered.recovery().corpus_trajectories > 0,
        "published corpus must survive the crash"
    );
    let corpus_a = finish(&mut recovered);

    // Clean run B never checkpoints mid-way: checkpoints must be
    // invisible in the final artifact. Every pre-checkpoint accepted fix
    // survives (published corpus + synced rewritten base); post-checkpoint
    // fixes survive when their frame fits under the cut.
    let last_idx = acked
        .iter()
        .enumerate()
        .take_while(|(k, &(_, off))| *k < pre_checkpoint_accepted || off <= cut)
        .map(|(_, &(idx, _))| idx)
        .last()
        .expect("nonempty prefix");
    let dir_b = test_dir("ckpt-b");
    let (mut engine_b, _) = run_clean(&dir_b, cfg, &f.events[..=last_idx]);
    let corpus_b = finish(&mut engine_b);
    assert_eq!(
        corpus_a, corpus_b,
        "checkpoint must not change the recovered corpus"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Copies every regular file of the flat ingest directory.
fn copy_dir(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read_dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
    }
}

/// The checkpoint commit window: a checkpoint writes a new corpus and a
/// new (shrunk) journal, then commits both with one manifest rename. A
/// kill *between* those steps must never yield the new corpus paired
/// with the old journal — that replay would compress the flushed
/// trajectories a second time. Each window below reconstructs the exact
/// directory a kill at that point leaves behind and asserts recovery is
/// byte-identical to a clean, never-checkpointed run.
#[test]
fn kill_inside_checkpoint_commit_window_recovers_equivalently() {
    let f = fleet();
    let cfg = IngestConfig {
        idle_timeout: 350.0,
        max_session_points: 20,
        ..config()
    };
    let dir = test_dir("ckpt-window");
    let mut engine =
        IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("open");
    let split = f.events.len() * 3 / 5;
    for &(v, s) in &f.events[..split] {
        engine.push(v, s).expect("push");
    }
    engine.sync().expect("sync");
    // Snapshot the pre-checkpoint directory: the state every
    // not-yet-committed kill must fall back to.
    let pre = test_dir("ckpt-window-pre");
    copy_dir(&dir, &pre);
    engine.checkpoint().expect("checkpoint");
    assert_eq!(engine.generation(), 1, "checkpoint bumps the generation");
    let new_corpus = engine.shard_corpus_path(0);
    let new_wal = engine.shard_wal_path(0);
    let new_manifest = dir.join(press_serve::MANIFEST_FILE);
    drop(engine);

    // Reference: one clean run over every event, no mid-run checkpoint.
    let dir_b = test_dir("ckpt-window-clean");
    let (mut clean, _) = run_clean(&dir_b, cfg, &f.events);
    let expect = finish(&mut clean);

    let windows: [(&str, Vec<&PathBuf>); 3] = [
        // Kill after the new corpus was written, before the new journal
        // and the manifest rename.
        ("corpus-only", vec![&new_corpus]),
        // Kill after both new artifacts, before the manifest rename —
        // the exact new-corpus + old-journal double-compression window.
        ("corpus-and-wal", vec![&new_corpus, &new_wal]),
        // Kill after the manifest rename, before the old generation's
        // cleanup.
        (
            "manifest-flipped",
            vec![&new_corpus, &new_wal, &new_manifest],
        ),
    ];
    for (tag, files) in windows {
        let w = test_dir(&format!("ckpt-window-{tag}"));
        copy_dir(&pre, &w);
        for file in files {
            let name = file.file_name().expect("file name");
            std::fs::copy(file, w.join(name)).expect("copy artifact");
        }
        let mut recovered =
            IngestEngine::open(&w, Arc::clone(&f.matcher), f.press(), cfg).expect("recover");
        for &(v, s) in &f.events[split..] {
            recovered.push(v, s).expect("push");
        }
        let got = finish(&mut recovered);
        assert_eq!(
            got, expect,
            "window {tag}: recovery must match the clean run exactly"
        );
        let _ = std::fs::remove_dir_all(&w);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&pre);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn missing_manifest_over_artifacts_is_a_typed_refusal() {
    let f = fleet();
    let dir = test_dir("no-manifest");
    let (engine, _) = run_clean(&dir, config(), &f.events[..20]);
    drop(engine);
    std::fs::remove_file(dir.join(press_serve::MANIFEST_FILE)).expect("remove manifest");
    match IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), config()) {
        Err(press_serve::ServeError::Manifest(_)) => {}
        Err(other) => panic!("expected ServeError::Manifest, got {other:?}"),
        Ok(_) => panic!("artifacts without a manifest must refuse, not restart fresh"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_log_keeps_the_most_recent_records() {
    let f = fleet();
    let dir = test_dir("quarantine-ring");
    let cfg = IngestConfig {
        quarantine_log_cap: 4,
        ..config()
    };
    let mut engine =
        IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("open");
    let good = f.events[0];
    engine.push(good.0, good.1).expect("push");
    // Ten out-of-order fixes, distinguishable by x: under sustained
    // dirty input the ring must hold the most recent cap, not freeze on
    // the first cap.
    for i in 0..10u32 {
        let bad = GpsSample {
            point: press_network::Point::new(i as f64, 0.0),
            t: good.1.t - 1.0,
        };
        assert!(matches!(
            engine.push(good.0, bad).expect("push"),
            Ack::Quarantined(_)
        ));
    }
    let log = engine.quarantine_log();
    assert_eq!(log.len(), 4);
    let xs: Vec<f64> = log.iter().map(|r| r.sample.point.x).collect();
    assert_eq!(
        xs,
        vec![6.0, 7.0, 8.0, 9.0],
        "oldest-first, most recent kept"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_store_answers_queries_like_brute_force() {
    let f = fleet();
    let cfg = IngestConfig {
        idle_timeout: 500.0,
        max_session_points: 32,
        ..config()
    };
    let dir = test_dir("queries");
    let (engine, _) = run_clean(&dir, cfg, &f.events);
    let final_len = engine.shard_wal_offset(0);
    drop(engine);
    truncate_shard_wal(&dir, 0, final_len * 2 / 3).expect("truncate");
    let mut recovered =
        IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("recover");
    finish(&mut recovered);

    let store = TrajectoryStore::open(&recovered.shard_corpus_path(0)).expect("open");
    let decoded = store.decode_all().expect("decode");
    assert!(!decoded.is_empty());
    let query = QueryEngine::new(recovered.press().model());
    // whereat through the block store == whereat on the decoded corpus.
    for (i, ct) in decoded.iter().enumerate() {
        let Some((t0, t1)) = ct.temporal.time_range() else {
            continue;
        };
        for k in 1..4 {
            let t = t0 + (t1 - t0) * k as f64 / 4.0;
            let mem = query.whereat(ct, t).expect("whereat mem");
            let disk = store.whereat(&query, i, t).expect("whereat disk");
            assert_eq!(mem, disk, "trajectory {i} at t={t}");
        }
    }
    // range through the synopsis-pruned store == brute force.
    let region = Mbr::new(0.0, 0.0, 600.0, 600.0);
    let hits = store.range(&query, 0.0, 400.0, &region).expect("range");
    let brute: Vec<usize> = decoded
        .iter()
        .enumerate()
        .filter(|(_, ct)| {
            let Some((a, z)) = ct.temporal.time_range() else {
                return false;
            };
            z >= 0.0 && a <= 400.0 && query.range(ct, 0.0, 400.0, &region).expect("range")
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(hits, brute);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dirty_input_is_quarantined_with_typed_reasons() {
    let f = fleet();
    let plan = FaultPlan {
        seed: 99,
        drop_prob: 0.0,
        corrupt_prob: 0.25,
        duplicate_prob: 0.15,
        reorder_prob: 0.10,
    };
    let mangled = plan.mangle(&f.events);
    let dir = test_dir("dirty");
    let (mut engine, acked) = run_clean(&dir, config(), &mangled);
    let stats = engine.stats();
    assert!(
        stats.total_quarantined() > 0,
        "corruption must hit the quarantine"
    );
    assert_eq!(
        stats.points_accepted as usize
            + stats.points_repaired as usize
            + stats.total_quarantined() as usize,
        mangled.len(),
        "every fix is acked exactly once"
    );
    assert_eq!(stats.points_accepted as usize, acked.len());
    assert!(!engine.quarantine_log().is_empty());
    // The dirty stream still compresses: the clean majority survives.
    engine.finalize_all().expect("finalize_all");
    assert!(engine.flush().expect("flush") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Finishes an engine and returns the merged (shard-count-invariant)
/// corpus bytes.
fn finish_merged(engine: &mut IngestEngine) -> Vec<u8> {
    engine.finalize_all().expect("finalize_all");
    engine.flush().expect("flush");
    engine.checkpoint().expect("checkpoint");
    engine.merged_corpus_bytes().expect("merged corpus")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The seeded-fault + kill-at-any-offset property over the shard
    /// matrix: mangle the stream with a seeded [`FaultPlan`], ingest at
    /// N shards, tear ONE seed-chosen shard's journal at an arbitrary
    /// byte offset, recover (parallel per-shard replay), finish — the
    /// merged corpus must be byte-identical to a clean single-shard run
    /// over exactly the surviving acked events.
    #[test]
    fn mangled_stream_with_a_shard_kill_recovers_across_the_matrix(
        seed in 0u64..1_000_000,
        shards_idx in 0usize..4,
    ) {
        let shards = [1usize, 2, 3, 7][shards_idx];
        let f = fleet();
        let plan = FaultPlan {
            seed,
            drop_prob: 0.05,
            corrupt_prob: 0.08,
            duplicate_prob: 0.08,
            reorder_prob: 0.05,
        };
        let mangled = plan.mangle(&f.events);
        let cfg = IngestConfig {
            idle_timeout: 300.0,
            max_session_points: 16,
            max_lattice_work: 200_000,
            shards,
            ..config()
        };
        let dir = test_dir(&format!("shardmatrix-{seed}-{shards}"));
        let mut engine =
            IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("open");
        // (event index, owning shard, ack offset) per journaled fix.
        let mut acked: Vec<(usize, usize, u64)> = Vec::new();
        for (i, &(v, s)) in mangled.iter().enumerate() {
            let k = engine.shard_of(v);
            if let Some(offset) = engine.push(v, s).expect("push").offset() {
                acked.push((i, k, offset));
            }
        }
        let victim = (seed as usize) % shards;
        drop(engine); // crash: no finalize, no checkpoint, no sync

        let len = shard_wal_len(&dir, victim as u32).expect("shard wal len");
        let cut = WAL_HEADER_LEN + seed % (len - WAL_HEADER_LEN + 1);
        truncate_shard_wal(&dir, victim as u32, cut).expect("truncate");

        let mut recovered =
            IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("recover");
        let merged_a = finish_merged(&mut recovered);

        // Survivors: intact shards keep everything they acked; the
        // victim keeps its frames under the cut.
        let surviving: Vec<Event> = acked
            .iter()
            .filter(|&&(_, k, off)| k != victim || off <= cut)
            .map(|&(idx, _, _)| mangled[idx])
            .collect();
        let ref_dir = test_dir(&format!("shardmatrix-ref-{seed}-{shards}"));
        let single = IngestConfig { shards: 1, ..cfg };
        let (mut reference, _) = run_clean(&ref_dir, single, &surviving);
        let merged_b = finish_merged(&mut reference);
        prop_assert_eq!(
            merged_a,
            merged_b,
            "seed {} at {} shards, victim {}, cut {}: recovered merged corpus must equal \
             the clean single-shard run over the surviving events",
            seed,
            shards,
            victim,
            cut
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }
}
