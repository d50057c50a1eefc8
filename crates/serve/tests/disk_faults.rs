//! Disk-fault injection tests for the ingest engine.
//!
//! The central matrix: an arbitrary seeded disk fault (ENOSPC / EIO /
//! short write / fsync failure, one-shot or sticky, at any operation
//! index) composed with a kill at any legitimate power-loss offset.
//! Under every combination the engine must fail *typed* — never panic,
//! never silently drop — and the recovered corpus must be
//! byte-identical to a clean run over exactly the journaled-surviving
//! subsequence of the stream.
//!
//! Also here: the memory-budget/eviction determinism proptest (eviction
//! order and corpus bytes identical across flush-worker counts, and
//! reproduced exactly by journal replay) and the fleets-larger-than-
//! memory budget test.

use press_core::{BtcBounds, Press, PressConfig};
use press_matcher::{GpsSample, MapMatcher, MatcherConfig};
use press_network::{grid_network, GridConfig, SpBackend};
use press_serve::wal::WAL_HEADER_LEN;
use press_serve::{
    shard_wal_len, truncate_shard_wal, DiskFault, DurabilityPolicy, Event, FaultKind, FaultyIo,
    IngestConfig, IngestEngine, ServeError, SessionPolicy,
};
use press_workload::{Workload, WorkloadConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Shared fixture: a trained compressor, a matcher, and a clean
/// interleaved multi-vehicle event stream (same shape as the
/// `ingest_recovery` fixture).
struct Fleet {
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
            matcher,
            press,
            events,
        }
    })
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("press-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> IngestConfig {
    IngestConfig {
        policy: SessionPolicy::default(),
        idle_timeout: 400.0,
        max_session_points: 24,
        block_size: 3,
        threads: 2,
        max_lattice_work: 0,
        max_salvage_splits: 8,
        quarantine_log_cap: 256,
        // Group commit with small thresholds so both batched syncs and
        // long journaled-not-durable windows occur inside the fixture
        // stream; zero backoff keeps retry loops instant.
        durability: DurabilityPolicy {
            sync_bytes: 2048,
            sync_interval: 120.0,
            max_retries: 2,
            retry_backoff_ms: 0,
        },
        ..IngestConfig::default()
    }
}

/// Finishes an engine (finalize + flush + checkpoint) and returns the
/// published corpus bytes.
fn finish(engine: &mut IngestEngine) -> Vec<u8> {
    engine.finalize_all().expect("finalize_all");
    engine.flush().expect("flush");
    engine.checkpoint().expect("checkpoint");
    std::fs::read(engine.shard_corpus_path(0)).expect("corpus bytes")
}

/// Pushes `events` through a fresh fault-free engine and finishes it,
/// returning the corpus bytes. The reference side of every
/// byte-identity assertion.
fn reference_corpus(tag: &str, cfg: IngestConfig, events: &[Event]) -> Vec<u8> {
    let f = fleet();
    let dir = test_dir(tag);
    let mut engine =
        IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("open reference");
    for &(v, s) in events {
        engine.push(v, s).expect("reference push");
    }
    let corpus = finish(&mut engine);
    let _ = std::fs::remove_dir_all(&dir);
    corpus
}

/// One cell of the fault matrix: ingest the fixture stream through a
/// `FaultyIo` armed with `fault` (op index relative to post-open state),
/// optionally attempting a mid-run checkpoint, then kill at a
/// legitimate power-loss offset (`kill_frac` across
/// `[shard_durable_offset, shard_wal_len]`), recover on the real filesystem, and
/// check the byte-identity contract over the journaled-surviving
/// subsequence.
fn run_fault_cell(
    tag: &str,
    delta: u64,
    kind: FaultKind,
    sticky: bool,
    kill_frac: f64,
    mid_checkpoint: bool,
) {
    let f = fleet();
    let cfg = config();
    let dir = test_dir(&format!("cell-{tag}"));
    let faulty = FaultyIo::new(Vec::new());
    let mut engine =
        IngestEngine::open_with_io(&dir, Arc::clone(&f.matcher), f.press(), cfg, faulty.clone())
            .expect("open with clean io");
    faulty.arm(DiskFault {
        at_op: faulty.ops() + delta,
        kind,
        sticky,
    });

    // `journaled` records (event index, ack offset) for every push the
    // engine applied; errored pushes leave no trace at all and must be
    // absent from the reference feed.
    let split = f.events.len() / 2;
    let mut journaled: Vec<(usize, u64)> = Vec::new();
    let mut safe_count = 0usize;
    for (i, &(v, s)) in f.events.iter().enumerate() {
        if mid_checkpoint && i == split {
            match engine.checkpoint() {
                // All pre-checkpoint journaled events are now safe for
                // ANY later cut: published corpus + synced rewritten
                // journal.
                Ok(_) => safe_count = journaled.len(),
                // A faulted checkpoint is typed and leaves the old
                // generation fully live; the engine keeps ingesting.
                Err(e) => {
                    assert!(
                        !e.to_string().is_empty(),
                        "checkpoint fault must carry a message"
                    );
                }
            }
        }
        match engine.push(v, s) {
            Ok(ack) => {
                if let Some(offset) = ack.offset() {
                    journaled.push((i, offset));
                }
            }
            Err(ServeError::StorageFull(_)) | Err(ServeError::Backpressure { .. }) => {}
            Err(other) => panic!("push surfaced an untyped fault: {other}"),
        }
    }
    let stats = engine.stats();
    if faulty.injected() > 0 && journaled.len() < f.events.len() {
        assert!(
            stats.storage_full_rejections
                + stats.backpressure_rejections
                + stats.io_retries
                + stats.sync_failures
                > 0,
            "an injected fault that cost events must show up in the counters"
        );
    }
    let durable = engine.shard_durable_offset(0);
    drop(engine); // crash with the fault still armed

    // Power loss can only lose bytes the engine never fsynced: any cut
    // in [durable_offset, file length] is a legitimate crash state
    // (the tail past shard_wal_offset(0) is a torn frame a faulted append left
    // behind — recovery must shrug it off too).
    let len = shard_wal_len(&dir, 0).expect("wal len");
    let lo = durable.max(WAL_HEADER_LEN);
    assert!(len >= lo, "durable watermark cannot exceed the journal");
    let cut = lo + ((len - lo) as f64 * kill_frac).round() as u64;
    truncate_shard_wal(&dir, 0, cut).expect("truncate");

    let mut recovered = IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg)
        .expect("recovery must succeed on the real filesystem");
    let corpus_a = finish(&mut recovered);

    // Survivors: everything journaled before a successful checkpoint,
    // plus later frames that fit under the cut (offsets are monotonic
    // per journal generation).
    let surviving: Vec<Event> = journaled
        .iter()
        .enumerate()
        .filter(|&(k, &(_, off))| k < safe_count || off <= cut)
        .map(|(_, &(idx, _))| f.events[idx])
        .collect();
    let corpus_b = reference_corpus(&format!("cell-ref-{tag}"), cfg, &surviving);
    assert_eq!(
        corpus_a, corpus_b,
        "fault {kind:?} delta {delta} sticky {sticky} cut {cut}: recovered corpus \
         must be byte-identical to a clean run over the surviving events"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The fault matrix: any fault kind at any operation index,
    /// one-shot or sticky, composed with a kill at any legitimate
    /// power-loss offset, with and without a mid-run checkpoint in the
    /// fault window.
    #[test]
    fn any_disk_fault_plus_kill_preserves_the_acked_prefix(
        delta in 0u64..160,
        kind_idx in 0usize..4,
        sticky in any::<bool>(),
        kill_frac in 0.0f64..=1.0,
        mid_checkpoint in any::<bool>(),
    ) {
        let kind = FaultKind::ALL[kind_idx];
        run_fault_cell(
            &format!("{delta}-{kind_idx}-{sticky}-{mid_checkpoint}"),
            delta,
            kind,
            sticky,
            kill_frac,
            mid_checkpoint,
        );
    }
}

/// Config for the eviction tests: a memory budget small enough that the
/// ten staggered fixture vehicles overflow it (when `trigger`), across
/// a configurable flush-worker count.
fn eviction_cfg(threads: usize, trigger: bool) -> IngestConfig {
    IngestConfig {
        threads,
        max_buffered_points: if trigger { 48 } else { 0 },
        max_sessions: if trigger { 4 } else { 0 },
        ..config()
    }
}

/// Baseline (eviction order, corpus bytes) computed once per budget
/// flavor with a single flush worker; every other worker count must
/// reproduce both exactly.
fn eviction_baseline(trigger: bool) -> &'static (Vec<u64>, Vec<u8>) {
    static BASE: [OnceLock<(Vec<u64>, Vec<u8>)>; 2] = [OnceLock::new(), OnceLock::new()];
    BASE[usize::from(trigger)].get_or_init(|| {
        let f = fleet();
        let dir = test_dir(&format!("evict-base-{trigger}"));
        let mut engine = IngestEngine::open(
            &dir,
            Arc::clone(&f.matcher),
            f.press(),
            eviction_cfg(1, trigger),
        )
        .expect("open baseline");
        for &(v, s) in &f.events {
            engine.push(v, s).expect("push");
        }
        let log: Vec<u64> = engine.eviction_log().iter().copied().collect();
        let corpus = finish(&mut engine);
        let _ = std::fs::remove_dir_all(&dir);
        (log, corpus)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Eviction is deterministic and invisible: for any flush-worker
    /// count, a budgeted run evicts the same sessions in the same order
    /// as the single-worker baseline, journal replay after a crash
    /// reproduces that order exactly, and the recovered corpus is
    /// byte-identical to the baseline corpus.
    #[test]
    fn eviction_order_and_corpus_are_deterministic(
        threads_idx in 0usize..4,
        trigger in any::<bool>(),
    ) {
        let threads = [1usize, 2, 3, 7][threads_idx];
        let f = fleet();
        let cfg = eviction_cfg(threads, trigger);
        let dir = test_dir(&format!("evict-{threads}-{trigger}"));
        let mut engine =
            IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("open");
        for &(v, s) in &f.events {
            engine.push(v, s).expect("push");
        }
        let log_live: Vec<u64> = engine.eviction_log().iter().copied().collect();
        prop_assert_eq!(
            log_live.is_empty(),
            !trigger,
            "budget {} must {}trigger eviction",
            trigger,
            if trigger { "" } else { "not " }
        );
        drop(engine); // crash: no finalize, no checkpoint

        let mut recovered =
            IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("recover");
        let log_replayed: Vec<u64> = recovered.eviction_log().iter().copied().collect();
        prop_assert_eq!(
            &log_replayed,
            &log_live,
            "journal replay must reproduce the eviction order exactly"
        );
        let corpus = finish(&mut recovered);
        let (base_log, base_corpus) = eviction_baseline(trigger);
        prop_assert_eq!(
            &log_live,
            base_log,
            "eviction order must not depend on the flush-worker count"
        );
        prop_assert_eq!(
            &corpus,
            base_corpus,
            "corpus bytes must not depend on the flush-worker count or the crash"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fleet several times larger than the session budget: memory stays
/// bounded after every single push, evictions actually happen, replay
/// reproduces them, and the published corpus is byte-identical to an
/// uninterrupted run — eviction is invisible in the corpus bytes.
#[test]
fn fleet_larger_than_memory_stays_bounded_and_recovers() {
    let f = fleet();
    const REPLICAS: u64 = 12;
    const MAX_SESSIONS: usize = 16;
    const MAX_POINTS: usize = 600;
    let mut events: Vec<Event> = Vec::new();
    for k in 0..REPLICAS {
        for &(v, s) in &f.events {
            events.push((
                v + 10 * k,
                GpsSample {
                    point: s.point,
                    t: s.t + k as f64 * 13.0,
                },
            ));
        }
    }
    events.sort_by(|a, b| a.1.t.partial_cmp(&b.1.t).expect("finite timestamps"));
    let cfg = IngestConfig {
        threads: 4,
        max_buffered_points: MAX_POINTS,
        max_sessions: MAX_SESSIONS,
        ..config()
    };

    let dir = test_dir("big-fleet");
    let mut engine =
        IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("open");
    for &(v, s) in &events {
        engine.push(v, s).expect("push");
        assert!(
            engine.session_count() <= MAX_SESSIONS,
            "session budget must hold after every push"
        );
        assert!(
            engine.buffered_points() <= MAX_POINTS,
            "point budget must hold after every push"
        );
    }
    assert!(
        engine.stats().sessions_evicted > 0,
        "a fleet this size must overflow the budget"
    );
    let log_live: Vec<u64> = engine.eviction_log().iter().copied().collect();
    drop(engine); // crash mid-run

    let mut recovered =
        IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("recover");
    let log_replayed: Vec<u64> = recovered.eviction_log().iter().copied().collect();
    assert_eq!(log_replayed, log_live, "replay reproduces eviction order");
    let corpus_recovered = finish(&mut recovered);
    let corpus_clean = reference_corpus("big-fleet-ref", cfg, &events);
    assert_eq!(
        corpus_recovered, corpus_clean,
        "eviction and the crash must be invisible in the corpus bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deterministic seeded matrix the CI `disk-fault-smoke` job runs:
/// every fault kind at several operation indices over a short stream.
/// Cheap (no compression comparison — the proptest above owns
/// byte-identity); asserts the typed-error taxonomy, that one-shot
/// transient faults are absorbed by the retry budget, and that recovery
/// and a final checkpoint always succeed.
#[test]
fn seeded_fault_matrix_smoke() {
    let f = fleet();
    let events = &f.events[..60.min(f.events.len())];
    let cfg = config();
    for (k, &kind) in FaultKind::ALL.iter().enumerate() {
        for &delta in &[0u64, 7, 23, 61] {
            let dir = test_dir(&format!("smoke-{k}-{delta}"));
            let faulty = FaultyIo::new(Vec::new());
            let mut engine = IngestEngine::open_with_io(
                &dir,
                Arc::clone(&f.matcher),
                f.press(),
                cfg,
                faulty.clone(),
            )
            .expect("open");
            faulty.arm(DiskFault {
                at_op: faulty.ops() + delta,
                kind,
                sticky: false,
            });
            let mut errors = 0usize;
            for &(v, s) in events {
                match engine.push(v, s) {
                    Ok(_) => {}
                    Err(ServeError::StorageFull(_)) | Err(ServeError::Backpressure { .. }) => {
                        errors += 1;
                    }
                    Err(other) => panic!("untyped fault {kind:?}@{delta}: {other}"),
                }
            }
            let stats = engine.stats();
            match kind {
                // A single transient error is absorbed by the retry
                // budget (appends) or by sync-failure degradation:
                // either way no push is refused.
                FaultKind::Eio | FaultKind::SyncFail => {
                    assert_eq!(errors, 0, "{kind:?}@{delta}: one-shot transient must heal");
                    if faulty.injected() > 0 {
                        assert!(
                            stats.io_retries + stats.sync_failures > 0,
                            "{kind:?}@{delta}: the absorbed fault must be counted"
                        );
                    }
                }
                // Out-of-space is persistent: exactly the faulted
                // operation's push is refused, the rest proceed.
                FaultKind::Enospc | FaultKind::ShortWrite => {
                    if faulty.injected() > 0 {
                        assert!(
                            errors <= 1,
                            "{kind:?}@{delta}: a one-shot ENOSPC refuses at most one push"
                        );
                        assert!(
                            stats.storage_full_rejections + stats.sync_failures > 0,
                            "{kind:?}@{delta}: rejection must be counted"
                        );
                    }
                }
            }
            drop(engine);
            let mut recovered = IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg)
                .expect("recovery after one-shot fault");
            let _ = finish(&mut recovered);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Degraded mode end to end: the disk fills, every ingest push is
/// refused with a typed `StorageFull` while flush/query keep working,
/// then space returns and ingest resumes — and the final corpus
/// contains exactly the fixes that were ever journaled.
#[test]
fn disk_full_then_freed_resumes_ingest() {
    let f = fleet();
    let cfg = config();
    let dir = test_dir("disk-full");
    let faulty = FaultyIo::new(Vec::new());
    let mut engine =
        IngestEngine::open_with_io(&dir, Arc::clone(&f.matcher), f.press(), cfg, faulty.clone())
            .expect("open");

    let third = f.events.len() / 3;
    let mut journaled: Vec<Event> = Vec::new();
    for &(v, s) in &f.events[..third] {
        if engine.push(v, s).expect("clean push").is_ingested() {
            journaled.push((v, s));
        }
    }

    // The disk fills: persistent ENOSPC on every write from now on.
    faulty.arm(DiskFault {
        at_op: 0,
        kind: FaultKind::Enospc,
        sticky: true,
    });
    let mut refused = 0usize;
    for &(v, s) in &f.events[third..2 * third] {
        match engine.push(v, s) {
            Err(ServeError::StorageFull(_)) => refused += 1,
            Ok(ack) => assert!(
                !ack.is_ingested(),
                "an ingested ack while the disk is full would be a lie"
            ),
            Err(other) => panic!("expected StorageFull, got {other}"),
        }
    }
    assert!(refused > 0, "a full disk must refuse pushes");
    assert_eq!(engine.stats().storage_full_rejections as usize, refused);
    // Degraded, not dead: matching/compression (no journal writes) and
    // explicit durability calls keep working with typed answers.
    engine.flush().expect("flush needs no disk");
    assert!(matches!(engine.sync(), Err(ServeError::StorageFull(_))));
    assert!(matches!(
        engine.checkpoint(),
        Err(ServeError::StorageFull(_)) | Err(ServeError::Manifest(_))
    ));

    // Space returns; ingest resumes without a restart.
    faulty.clear();
    for &(v, s) in &f.events[2 * third..] {
        if engine.push(v, s).expect("resumed push").is_ingested() {
            journaled.push((v, s));
        }
    }
    let corpus_live = finish(&mut engine);
    drop(engine);
    let corpus_ref = reference_corpus("disk-full-ref", cfg, &journaled);
    assert_eq!(
        corpus_live, corpus_ref,
        "the published corpus must hold exactly the journaled fixes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Finishes an engine and returns the *merged* corpus bytes — every
/// shard's slice in canonical key order, the shard-count-invariant
/// artifact the determinism contract is stated over.
fn finish_merged(engine: &mut IngestEngine) -> Vec<u8> {
    engine.finalize_all().expect("finalize_all");
    engine.flush().expect("flush");
    engine.checkpoint().expect("checkpoint");
    engine.merged_corpus_bytes().expect("merged corpus")
}

/// Pushes `events` through a fresh fault-free engine with `cfg` and
/// returns the merged corpus bytes.
fn merged_reference(tag: &str, cfg: IngestConfig, events: &[Event]) -> Vec<u8> {
    let f = fleet();
    let dir = test_dir(tag);
    let mut engine =
        IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("open reference");
    for &(v, s) in events {
        engine.push(v, s).expect("reference push");
    }
    let merged = finish_merged(&mut engine);
    let _ = std::fs::remove_dir_all(&dir);
    merged
}

/// Single-shard merged corpus over the full fixture stream — the
/// baseline every shard count must reproduce byte-for-byte.
fn shard_invariance_baseline() -> &'static Vec<u8> {
    static BASE: OnceLock<Vec<u8>> = OnceLock::new();
    BASE.get_or_init(|| merged_reference("shard-base", config(), &fleet().events))
}

/// CRC32 of [`shard_invariance_baseline`]: the absolute anchor behind
/// the relative shard-count and recovery identity checks in this file.
const SHARD_BASELINE_CRC: u32 = 0x677103DE;

/// The single-shard corpus bytes themselves are pinned, so a change that
/// moves every shard count's output in lockstep still fails.
#[test]
fn shard_invariance_baseline_matches_golden_digest() {
    assert_eq!(
        press_store::crc32(shard_invariance_baseline()),
        SHARD_BASELINE_CRC,
        "single-shard merged corpus moved off the golden digest"
    );
}

/// The published corpus is shard-count invariant: for every shard count
/// the merged corpus bytes equal the single-shard run's, both on a
/// clean run and after a crash (all journals intact) plus parallel
/// per-shard recovery.
#[test]
fn published_corpus_is_shard_count_invariant() {
    let f = fleet();
    for &shards in &[2usize, 3, 7] {
        let cfg = IngestConfig { shards, ..config() };
        let dir = test_dir(&format!("shard-inv-{shards}"));
        let mut engine =
            IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("open");
        for &(v, s) in &f.events {
            engine.push(v, s).expect("push");
        }
        drop(engine); // crash: no finalize, no checkpoint

        let mut recovered =
            IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("recover");
        assert_eq!(recovered.num_shards(), shards);
        let merged = finish_merged(&mut recovered);
        assert_eq!(
            &merged,
            shard_invariance_baseline(),
            "merged corpus at {shards} shards must be byte-identical to the single-shard run"
        );
        // Every shard committed its own journal + corpus slice under
        // the one manifest generation.
        for k in 0..shards {
            assert!(
                recovered.shard_corpus_path(k).exists(),
                "shard {k} corpus file must exist"
            );
            assert!(
                recovered.shard_wal_path(k).exists(),
                "shard {k} journal must exist"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One cell of the *sharded* fault matrix: a seeded disk fault scoped
/// to exactly one shard's journal, composed with a kill tearing that
/// shard's journal at a legitimate power-loss offset. Healthy shards
/// must keep acking, the fault must surface as typed
/// [`ServeError::ShardDegraded`] naming the faulted shard, rejections
/// must never leak into healthy shards' counters, and the recovered
/// merged corpus must be byte-identical to a clean **single-shard** run
/// over the surviving events (isolation + shard-count invariance in
/// one assertion).
fn run_sharded_fault_cell(
    tag: &str,
    shards: usize,
    faulted: usize,
    delta: u64,
    kind: FaultKind,
    sticky: bool,
    kill_frac: f64,
) {
    let f = fleet();
    let cfg = IngestConfig { shards, ..config() };
    let dir = test_dir(&format!("scell-{tag}"));
    let faulty = FaultyIo::new(Vec::new());
    let mut engine =
        IngestEngine::open_with_io(&dir, Arc::clone(&f.matcher), f.press(), cfg, faulty.clone())
            .expect("open with clean io");
    // Degrade exactly one shard: the fault fires only on operations
    // touching that shard's journal file (any generation).
    faulty.arm_scoped(
        &format!(".s{faulted}.wal"),
        DiskFault {
            at_op: delta,
            kind,
            sticky,
        },
    );

    let mut journaled: Vec<(usize, usize, u64)> = Vec::new(); // (event, shard, ack offset)
    let mut healthy_acks = 0usize;
    for (i, &(v, s)) in f.events.iter().enumerate() {
        let k = engine.shard_of(v);
        match engine.push(v, s) {
            Ok(ack) => {
                if let Some(offset) = ack.offset() {
                    journaled.push((i, k, offset));
                    if k != faulted {
                        healthy_acks += 1;
                    }
                }
            }
            Err(e) => {
                assert!(
                    matches!(
                        e.root_cause(),
                        ServeError::StorageFull(_) | ServeError::Backpressure { .. }
                    ),
                    "push surfaced an untyped fault: {e}"
                );
                if shards > 1 {
                    assert_eq!(
                        e.degraded_shard(),
                        Some(faulted),
                        "a scoped fault must degrade exactly the faulted shard"
                    );
                    assert_eq!(k, faulted, "only the faulted shard's pushes may fail");
                } else {
                    assert_eq!(e.degraded_shard(), None, "single-shard errors stay bare");
                }
            }
        }
    }
    assert!(
        healthy_acks > 0 || shards == 1,
        "shards other than the faulted one must keep acking"
    );
    // Rejections are shard-local: healthy shards' counters stay clean.
    for k in 0..shards {
        if k != faulted {
            let s = engine.shard_stats(k);
            assert_eq!(
                s.storage_full_rejections + s.backpressure_rejections,
                0,
                "shard {k} is healthy; the faulted shard's rejections must not leak into it"
            );
        }
    }
    let durable = engine.shard_durable_offset(faulted);
    drop(engine); // crash with the fault still armed

    let len = shard_wal_len(&dir, faulted as u32).expect("shard wal len");
    let lo = durable.max(WAL_HEADER_LEN);
    assert!(len >= lo, "durable watermark cannot exceed the journal");
    let cut = lo + ((len - lo) as f64 * kill_frac).round() as u64;
    truncate_shard_wal(&dir, faulted as u32, cut).expect("truncate");

    let mut recovered = IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg)
        .expect("recovery must succeed on the real filesystem");
    let merged_a = finish_merged(&mut recovered);

    // Survivors: every journaled event on a healthy shard (its journal
    // is intact), plus the faulted shard's frames under the cut.
    let surviving: Vec<Event> = journaled
        .iter()
        .filter(|&&(_, k, off)| k != faulted || off <= cut)
        .map(|&(idx, _, _)| f.events[idx])
        .collect();
    // The reference deliberately runs at ONE shard: byte-identity here
    // proves isolation and shard-count invariance at once.
    let merged_b = merged_reference(&format!("scell-ref-{tag}"), config(), &surviving);
    assert_eq!(
        merged_a, merged_b,
        "fault {kind:?} delta {delta} sticky {sticky} on shard {faulted}/{shards} cut {cut}: \
         recovered merged corpus must be byte-identical to a clean single-shard run \
         over the surviving events"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sharded fault matrix: fault kind × faulted shard × shard
    /// count × kill fraction (ISSUE 10 satellite). One shard's disk
    /// fault plus a torn journal on that shard must stay invisible
    /// outside its failure domain.
    #[test]
    fn sharded_disk_fault_degrades_only_its_shard(
        shards_idx in 0usize..4,
        faulted_seed in 0usize..7,
        delta in 0u64..80,
        kind_idx in 0usize..4,
        sticky in any::<bool>(),
        kill_frac in 0.0f64..=1.0,
    ) {
        let shards = [1usize, 2, 3, 7][shards_idx];
        let faulted = faulted_seed % shards;
        let kind = FaultKind::ALL[kind_idx];
        run_sharded_fault_cell(
            &format!("{shards}-{faulted}-{delta}-{kind_idx}-{sticky}"),
            shards,
            faulted,
            delta,
            kind,
            sticky,
            kill_frac,
        );
    }
}

/// Deterministic partial-fleet degraded mode: a sticky ENOSPC pins one
/// shard of three, its pushes fail typed while both other shards keep
/// acking, its rejections stay in its own counters, healing is
/// in-process via `clear()`, and the final merged corpus holds exactly
/// the journaled fixes.
#[test]
fn sticky_fault_on_one_shard_leaves_the_fleet_ingesting() {
    let f = fleet();
    let cfg = IngestConfig {
        shards: 3,
        ..config()
    };
    let dir = test_dir("sticky-shard");
    let faulty = FaultyIo::new(Vec::new());
    let mut engine =
        IngestEngine::open_with_io(&dir, Arc::clone(&f.matcher), f.press(), cfg, faulty.clone())
            .expect("open");
    let faulted = engine.shard_of(f.events[0].0);
    faulty.arm_scoped(
        &format!(".s{faulted}.wal"),
        DiskFault {
            at_op: 0,
            kind: FaultKind::Enospc,
            sticky: true,
        },
    );

    let half = f.events.len() / 2;
    let mut journaled: Vec<Event> = Vec::new();
    let mut refused = 0usize;
    let mut healthy = 0usize;
    for &(v, s) in &f.events[..half] {
        let k = engine.shard_of(v);
        match engine.push(v, s) {
            Ok(ack) => {
                assert_ne!(k, faulted, "the pinned shard cannot ack while full");
                if ack.is_ingested() {
                    journaled.push((v, s));
                    healthy += 1;
                }
            }
            Err(e) => {
                assert_eq!(k, faulted, "healthy shards must not fail");
                assert_eq!(e.degraded_shard(), Some(faulted));
                assert!(e.is_storage_full(), "expected StorageFull, got {e}");
                refused += 1;
            }
        }
    }
    assert!(refused > 0, "the fixture routes events to every shard");
    assert!(healthy > 0, "healthy shards keep acking while one is full");
    assert_eq!(
        engine.shard_stats(faulted).storage_full_rejections as usize,
        refused,
        "every refusal lands in the faulted shard's counters"
    );
    for k in 0..3 {
        if k != faulted {
            assert_eq!(engine.shard_stats(k).storage_full_rejections, 0);
        }
    }
    // Summed view still sees the rejections.
    assert_eq!(engine.stats().storage_full_rejections as usize, refused);

    // Space returns on the pinned shard; it heals in-process.
    faulty.clear();
    for &(v, s) in &f.events[half..] {
        if engine.push(v, s).expect("healed push").is_ingested() {
            journaled.push((v, s));
        }
    }
    let merged_live = finish_merged(&mut engine);
    drop(engine);
    let merged_ref = merged_reference("sticky-shard-ref", config(), &journaled);
    assert_eq!(
        merged_live, merged_ref,
        "the merged corpus must hold exactly the journaled fixes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Incremental checkpoints: with 8 shards and one dirty vehicle, the
/// next checkpoint rewrites only the dirty shard's corpus file —
/// every clean shard's file is a hard link to its previous generation
/// (same inode) — and the whole set still commits through the single
/// MANIFEST rename: a fault before the rename leaves the old
/// generation fully live.
#[test]
fn incremental_checkpoint_links_clean_shards_and_commits_atomically() {
    use std::os::unix::fs::MetadataExt;
    let f = fleet();
    let cfg = IngestConfig {
        shards: 8,
        ..config()
    };
    let dir = test_dir("incr-ckpt");
    let faulty = FaultyIo::new(Vec::new());
    let mut engine =
        IngestEngine::open_with_io(&dir, Arc::clone(&f.matcher), f.press(), cfg, faulty.clone())
            .expect("open");
    for &(v, s) in &f.events {
        engine.push(v, s).expect("push");
    }
    engine.finalize_all().expect("finalize_all");
    engine.checkpoint().expect("first checkpoint");
    let gen1 = engine.generation();
    let inodes1: Vec<u64> = (0..8)
        .map(|k| {
            std::fs::metadata(engine.shard_corpus_path(k))
                .expect("gen1 shard corpus")
                .ino()
        })
        .collect();

    // Dirty exactly one shard: new fixes for vehicle 0 only.
    let dirty_shard = engine.shard_of(0);
    for &(v, s) in f.events.iter().filter(|&&(v, _)| v == 0).take(12) {
        engine
            .push(
                v,
                GpsSample {
                    point: s.point,
                    t: s.t + 1.0e4,
                },
            )
            .expect("dirty push");
    }
    engine.finalize(0).expect("finalize vehicle 0");

    // Crash window: a checkpoint faulted before its manifest rename
    // leaves the old generation fully live.
    faulty.arm(DiskFault {
        at_op: faulty.ops() + 3,
        kind: FaultKind::Enospc,
        sticky: true,
    });
    assert!(
        engine.checkpoint().is_err(),
        "faulted checkpoint fails typed"
    );
    assert_eq!(
        engine.generation(),
        gen1,
        "a failed checkpoint commits nothing"
    );
    faulty.clear();

    engine.checkpoint().expect("second checkpoint");
    let gen2 = engine.generation();
    assert!(gen2 > gen1);
    for (k, &ino1) in inodes1.iter().enumerate() {
        let ino2 = std::fs::metadata(engine.shard_corpus_path(k))
            .expect("gen2 shard corpus")
            .ino();
        if k == dirty_shard {
            assert_ne!(ino2, ino1, "the dirty shard's corpus must be rewritten");
        } else {
            assert_eq!(
                ino2, ino1,
                "clean shard {k} must hard-link its previous corpus file"
            );
        }
    }
    // The recovered engine serves the updated merged corpus.
    drop(engine);
    let recovered =
        IngestEngine::open(&dir, Arc::clone(&f.matcher), f.press(), cfg).expect("recover");
    assert_eq!(recovered.generation(), gen2);
    recovered
        .merged_corpus_bytes()
        .expect("merged corpus serves");
    let _ = std::fs::remove_dir_all(&dir);
}
