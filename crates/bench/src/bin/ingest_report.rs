//! `ingest_report` — streaming-ingest throughput report for the
//! `press-serve` engine, written to `BENCH_ingest.json`, and the CI
//! regression gate over a checked-in baseline of that file.
//!
//! Usage:
//! ```text
//! ingest_report [--nx N] [--vehicles N] [--interval S] [--threads N]
//!               [--shards N] [--out PATH] [--check BASELINE]
//!               [--tolerance X]
//!
//! --nx N           side of the grid network (default 16 → 256 nodes)
//! --vehicles N     fleet size driving the event stream (default 64)
//! --interval S     seconds between GPS fixes per vehicle (default 1.5
//!                  — ~11k events, enough wall time to gate on)
//! --threads N      flush workers for the parallel run (default 0 = one
//!                  per core); never changes the published corpus — the
//!                  single-thread and parallel runs are cross-checked
//!                  byte-for-byte
//! --shards N       writer shards for the sharded run (default 8); never
//!                  changes the merged corpus — the 1-shard and N-shard
//!                  runs are cross-checked byte-for-byte
//! --out PATH       output JSON path (default BENCH_ingest.json)
//! --check BASELINE compare against a baseline report and exit non-zero
//!                  on regression; ALL failing metrics are reported
//! --tolerance X    max allowed throughput slowdown factor (default 3)
//! ```
//!
//! Phases:
//! * **ingest**: the full interleaved fleet stream is pushed through an
//!   [`press_serve::IngestEngine`] (vet → WAL append → buffer →
//!   idle/cap segmentation), then finalized, flushed (parallel salvage
//!   matching + online compression) and checkpointed — once with one
//!   flush worker, once with `--threads` workers. Throughput is
//!   end-to-end accepted points per second; the two corpora must be
//!   byte-identical (`corpus_identical`).
//! * **durability**: the same stream pushed twice, once with
//!   [`DurabilityPolicy::per_push`] (fsync every fix) and once with
//!   [`DurabilityPolicy::group_commit`]; only the push loop (plus one
//!   final covering sync) is timed, so `group_commit_speedup` measures
//!   exactly the fsync amortization. The two corpora must be
//!   byte-identical (`policy_identical` — sync timing must never leak
//!   into corpus bytes), and the group-commit run's durability counters
//!   (fsyncs, batch sizes, retries, rejections) are recorded.
//! * **shards**: the same stream pushed at 1 writer shard and at
//!   `--shards`; only the push loop (plus one covering sync) is timed,
//!   each configuration runs several identical trials and the fastest
//!   wins (the loops are short and fsync latency is spiky), so
//!   `sharded_push_ratio` measures the routing + per-shard journal
//!   overhead. The merged corpora must be byte-identical
//!   (`merged_identical` — shard count must never leak into corpus
//!   bytes). Also timed: an all-dirty (full-rewrite) checkpoint vs an
//!   incremental one with 1 dirty shard of `--shards` — the incremental
//!   checkpoint hard-links every clean shard's corpus file and must not
//!   be slower than the full rewrite.
//! * **recovery**: a further stream is killed by tearing the journal at
//!   2/3 of its length; the reopen replays the acked prefix through the
//!   live ingest path and the recovered corpus is cross-checked
//!   byte-for-byte against a clean run over exactly that prefix
//!   (`recovered_identical`), with the reopen wall time and replay
//!   throughput reported.
//!
//! The gate fails on `corpus_identical: false`, `policy_identical:
//! false`, `merged_identical: false`, `recovered_identical: false`, a
//! replay that rebuilt a different number of points than survived the
//! cut, `sharded_push_ratio < 0.9`, or an incremental checkpoint slower
//! than the full rewrite it replaces; with `--check`, also on a
//! `> tolerance×` drop of any gated points-per-second metric, on one
//! missing from the baseline or the fresh run, and on
//! `group_commit_speedup < 1.0`. Every failure is collected and printed
//! before the non-zero exit.

use press_bench::report::{fatal, ms, resolve_threads, usage_error, Better, Report};
use press_core::{BtcBounds, Press, PressConfig};
use press_matcher::{GpsSample, MapMatcher, MatcherConfig};
use press_network::{grid_network, GridConfig, RoadNetwork, SpBackend};
use press_serve::{
    shard_wal_len, truncate_shard_wal, DurabilityPolicy, Event, IngestConfig, IngestEngine,
    SessionPolicy,
};
use press_workload::{Workload, WorkloadConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: ingest_report [--nx N] [--vehicles N] [--interval S] [--threads N] \
                     [--shards N] [--out PATH] [--check BASELINE] [--tolerance X]";

fn main() {
    let mut nx = 16usize;
    let mut vehicles = 64usize;
    let mut interval = 1.5f64;
    let mut threads = 0usize;
    let mut shards = 8usize;
    let mut report = Report::from_env_flags(USAGE, "BENCH_ingest.json", |flag, args| {
        match flag {
            "--nx" => nx = args.value(flag)?,
            "--vehicles" => vehicles = args.value(flag)?,
            "--interval" => interval = args.value(flag)?,
            "--threads" => threads = args.value(flag)?,
            "--shards" => shards = args.value(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    if nx < 2 || vehicles == 0 {
        usage_error(USAGE, "--nx must be >= 2 and --vehicles >= 1");
    }
    if !interval.is_finite() || interval <= 0.0 {
        usage_error(USAGE, "--interval must be > 0");
    }
    if shards == 0 {
        usage_error(USAGE, "--shards must be >= 1");
    }
    let resolved_threads = resolve_threads(threads);

    // ---- Fixture: network, trained compressor, matcher, event stream. ---
    eprintln!("[fixture] building {nx}x{nx} grid…");
    let net = Arc::new(grid_network(&GridConfig {
        nx,
        ny: nx,
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
            num_trajectories: vehicles * 2,
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
    .unwrap_or_else(|e| fatal(&format!("training failed: {e}")));
    let matcher = Arc::new(MapMatcher::new(net.clone(), MatcherConfig::default()));
    let events = fleet_events(&net, eval, vehicles, interval);
    if events.is_empty() {
        fatal("fixture produced no events; raise --vehicles or lower --interval");
    }
    eprintln!(
        "[fixture] {} nodes / {} edges, {} vehicles, {} events",
        net.num_nodes(),
        net.num_edges(),
        vehicles.min(eval.len()),
        events.len()
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"fixture\": {{\"nodes\": {}, \"edges\": {}, \"vehicles\": {}, \"events\": {}}},",
        net.num_nodes(),
        net.num_edges(),
        vehicles.min(eval.len()),
        events.len()
    );

    // ---- Ingest throughput: one flush worker vs `--threads`. -----------
    // The thread count only parallelizes flush's salvage matching; the
    // published corpus must be byte-identical either way, which doubles
    // as the determinism cross-check CI gates on.
    let run_1 = ingest_run("ingest-1t", &matcher, &press, config(1), &events);
    eprintln!(
        "[ingest] 1 worker: {} points in {:.0} ms — {:.0} points/s",
        run_1.accepted, run_1.wall_ms, run_1.pps
    );
    let run_n = ingest_run(
        "ingest-nt",
        &matcher,
        &press,
        config(resolved_threads),
        &events,
    );
    eprintln!(
        "[ingest] {resolved_threads} worker(s): {} points in {:.0} ms — {:.0} points/s",
        run_n.accepted, run_n.wall_ms, run_n.pps
    );
    let corpus_identical = run_1.corpus == run_n.corpus;
    let speedup = run_n.pps / run_1.pps.max(1e-9);
    eprintln!(
        "[ingest] corpus identical across thread counts: {corpus_identical}; \
         parallel speedup {speedup:.2}x"
    );
    let _ = write!(
        json,
        "  \"ingest\": {{\n    \"points\": {},\n    \"single_thread\": {{\"wall_ms\": {:.1}, \"points_per_sec\": {:.0}}},\n    \"parallel\": {{\"threads\": {resolved_threads}, \"wall_ms\": {:.1}, \"points_per_sec\": {:.0}}},\n    \"parallel_speedup\": {speedup:.2},\n    \"corpus_identical\": {corpus_identical}\n  }},\n",
        run_1.accepted, run_1.wall_ms, run_1.pps, run_n.wall_ms, run_n.pps
    );

    // ---- Durability: per-push fsync vs group commit. -------------------
    // Same stream, same engine, only the sync policy differs. The push
    // loop (vet → WAL append → fsync per policy, ending with one final
    // covering sync) is timed in isolation so the fsync amortization is
    // what the ratio measures; the published corpora must be
    // byte-identical — sync *timing* must never leak into corpus bytes.
    let dur_pp = durability_run(
        "dur-per-push",
        &matcher,
        &press,
        DurabilityPolicy::per_push(),
        resolved_threads,
        &events,
    );
    eprintln!(
        "[durability] per-push sync: {:.0} ms push wall, {:.0} points/s, {} fsyncs",
        dur_pp.push_wall_ms, dur_pp.push_pps, dur_pp.sync_calls
    );
    let dur_gc = durability_run(
        "dur-group",
        &matcher,
        &press,
        DurabilityPolicy::group_commit(),
        resolved_threads,
        &events,
    );
    eprintln!(
        "[durability] group commit: {:.0} ms push wall, {:.0} points/s, {} fsyncs \
         (avg batch {:.1} frames, max {})",
        dur_gc.push_wall_ms,
        dur_gc.push_pps,
        dur_gc.sync_calls,
        dur_gc.avg_sync_batch,
        dur_gc.max_sync_batch
    );
    let gc_speedup = dur_gc.push_pps / dur_pp.push_pps.max(1e-9);
    let policy_identical = dur_pp.corpus == dur_gc.corpus;
    eprintln!(
        "[durability] group-commit speedup {gc_speedup:.2}x; corpus identical across \
         policies: {policy_identical}"
    );
    let _ = write!(
        json,
        "  \"durability\": {{\n    \"per_push\": {{\"push_wall_ms\": {:.1}, \"push_points_per_sec\": {:.0}, \"sync_calls\": {}}},\n    \"group_commit\": {{\"push_wall_ms\": {:.1}, \"push_points_per_sec\": {:.0}, \"sync_calls\": {}, \"avg_sync_batch\": {:.1}, \"max_sync_batch\": {}}},\n    \"group_commit_speedup\": {gc_speedup:.2},\n    \"policy_identical\": {policy_identical},\n    \"io_retries\": {},\n    \"sync_failures\": {},\n    \"sessions_evicted\": {},\n    \"backpressure_rejections\": {},\n    \"storage_full_rejections\": {}\n  }},\n",
        dur_pp.push_wall_ms,
        dur_pp.push_pps,
        dur_pp.sync_calls,
        dur_gc.push_wall_ms,
        dur_gc.push_pps,
        dur_gc.sync_calls,
        dur_gc.avg_sync_batch,
        dur_gc.max_sync_batch,
        dur_gc.io_retries,
        dur_gc.sync_failures,
        dur_gc.sessions_evicted,
        dur_gc.backpressure_rejections,
        dur_gc.storage_full_rejections,
    );

    // ---- Shards: 1 writer shard vs `--shards`, + checkpoint cost. ------
    // Same stream, same policy; only the shard count differs. The push
    // loop (+ one covering sync) is timed so `sharded_push_ratio`
    // measures exactly the routing + per-shard journal overhead, and
    // the merged corpora must be byte-identical — the shard count must
    // never leak into corpus bytes.
    let shard_1 = sharded_run("shards-1", &matcher, &press, 1, resolved_threads, &events);
    eprintln!(
        "[shards] 1 shard: {:.0} ms push wall, {:.0} points/s",
        shard_1.push_wall_ms, shard_1.push_pps
    );
    let shard_n = sharded_run(
        "shards-n",
        &matcher,
        &press,
        shards,
        resolved_threads,
        &events,
    );
    eprintln!(
        "[shards] {shards} shards: {:.0} ms push wall, {:.0} points/s",
        shard_n.push_wall_ms, shard_n.push_pps
    );
    let sharded_ratio = shard_n.push_pps / shard_1.push_pps.max(1e-9);
    let merged_identical = shard_1.merged == shard_n.merged;
    let (ckpt_full_ms, ckpt_incr_ms) =
        checkpoint_timing("shards-ckpt", &matcher, &press, shards, &events);
    eprintln!(
        "[shards] push ratio {sharded_ratio:.2}x; merged corpus identical: \
         {merged_identical}; checkpoint full {ckpt_full_ms:.1} ms vs incremental \
         (1 dirty of {shards}) {ckpt_incr_ms:.1} ms"
    );
    let _ = write!(
        json,
        "  \"shards\": {{\n    \"count\": {shards},\n    \"single\": {{\"push_wall_ms\": {:.1}, \"push_points_per_sec\": {:.0}, \"sync_calls\": {}, \"wal_bytes\": {}}},\n    \"sharded\": {{\"push_wall_ms\": {:.1}, \"push_points_per_sec\": {:.0}, \"sync_calls\": {}, \"wal_bytes\": {}}},\n    \"sharded_push_ratio\": {sharded_ratio:.2},\n    \"merged_identical\": {merged_identical},\n    \"checkpoint_full_ms\": {ckpt_full_ms:.1},\n    \"checkpoint_incremental_ms\": {ckpt_incr_ms:.1}\n  }},\n",
        shard_1.push_wall_ms,
        shard_1.push_pps,
        shard_1.sync_calls,
        shard_1.wal_bytes,
        shard_n.push_wall_ms,
        shard_n.push_pps,
        shard_n.sync_calls,
        shard_n.wal_bytes
    );

    // ---- Recovery: kill at 2/3 of the journal, reopen, cross-check. ----
    let dir = bench_dir("ingest-kill");
    let mut engine = IngestEngine::open(
        &dir,
        Arc::clone(&matcher),
        press.reconfigured(press.config()),
        config(resolved_threads),
    )
    .unwrap_or_else(|e| fatal(&format!("open failed: {e}")));
    let mut acked: Vec<(usize, u64)> = Vec::new();
    for (i, &(v, s)) in events.iter().enumerate() {
        if let Some(offset) = engine
            .push(v, s)
            .unwrap_or_else(|e| fatal(&format!("push failed: {e}")))
            .offset()
        {
            acked.push((i, offset));
        }
    }
    drop(engine); // the crash: nothing finalized, flushed, or checkpointed
    let full_len =
        shard_wal_len(&dir, 0).unwrap_or_else(|e| fatal(&format!("shard_wal_len failed: {e}")));
    let cut = full_len * 2 / 3;
    truncate_shard_wal(&dir, 0, cut).unwrap_or_else(|e| fatal(&format!("truncate failed: {e}")));
    let survivors = acked.iter().take_while(|&&(_, off)| off <= cut).count();
    let t0 = Instant::now();
    let mut recovered = IngestEngine::open(
        &dir,
        Arc::clone(&matcher),
        press.reconfigured(press.config()),
        config(resolved_threads),
    )
    .unwrap_or_else(|e| fatal(&format!("recovery open failed: {e}")));
    let reopen_ms = ms(t0);
    let replayed = recovered.recovery().replayed_points;
    let replay_pps = replayed as f64 / (reopen_ms / 1e3).max(1e-9);
    if replayed as usize != survivors {
        report.gate.fail(format!(
            "metric 'recovery.replayed_points': replay rebuilt {replayed} points but \
             {survivors} acked frames survived the cut — an acked point was lost or invented"
        ));
    }
    let recovered_corpus = finish(&mut recovered);
    // Clean reference: a fresh engine fed exactly the surviving prefix.
    let prefix: Vec<Event> = match acked.get(survivors.wrapping_sub(1)) {
        Some(&(last_idx, _)) => events[..=last_idx].to_vec(),
        None => Vec::new(),
    };
    let reference = ingest_run(
        "ingest-ref",
        &matcher,
        &press,
        config(resolved_threads),
        &prefix,
    );
    let recovered_identical = recovered_corpus == reference.corpus;
    eprintln!(
        "[recovery] killed at {cut}/{full_len} bytes: replayed {replayed} points in \
         {reopen_ms:.0} ms ({replay_pps:.0} points/s); corpus identical to clean prefix run: \
         {recovered_identical}"
    );
    let _ = writeln!(
        json,
        "  \"recovery\": {{\n    \"wal_bytes\": {full_len},\n    \"kill_offset\": {cut},\n    \"replayed_points\": {replayed},\n    \"reopen_ms\": {reopen_ms:.1},\n    \"replay_points_per_sec\": {replay_pps:.0},\n    \"recovered_identical\": {recovered_identical}\n  }}\n}}"
    );

    let gate = &mut report.gate;
    for key in [
        "ingest.corpus_identical",
        "durability.policy_identical",
        "shards.merged_identical",
        "recovery.recovered_identical",
    ] {
        gate.identity(key);
    }
    // Sharding exists to isolate failure domains, not to slow ingest.
    gate.at_least("shards.sharded_push_ratio", 0.9);
    // An incremental checkpoint (1 dirty shard, the rest hard-linked)
    // must not cost more than the full rewrite it replaces; sub-2 ms
    // rewrites measure timer noise, not the hard-link win (the serve
    // test suite pins the inode-level behaviour).
    gate.at_most("shards.checkpoint_incremental_ms", ckpt_full_ms)
        .unless_fresh_below("shards.checkpoint_full_ms", 2.0);
    if gate.has_baseline() {
        // Group commit exists to amortize fsyncs: the fresh run must not
        // be slower than its own per-push baseline.
        gate.at_least("durability.group_commit_speedup", 1.0);
    }
    for key in [
        "ingest.single_thread.points_per_sec",
        "ingest.parallel.points_per_sec",
        "durability.per_push.push_points_per_sec",
        "durability.group_commit.push_points_per_sec",
        "shards.sharded.push_points_per_sec",
    ] {
        gate.vs_baseline(key, Better::Higher);
    }
    // WAL replay finishes in single-digit milliseconds at gate scale; a
    // ratio over a sub-5 ms reopen measures timer noise.
    gate.vs_baseline("recovery.replay_points_per_sec", Better::Higher)
        .unless_baseline_below("recovery.reopen_ms", 5.0);
    report.finish(&json);
}

/// Interleaved multi-vehicle event stream: each eval record becomes one
/// vehicle's GPS trace, staggered in time and merged by timestamp.
fn fleet_events(
    net: &Arc<RoadNetwork>,
    eval: &[press_workload::TrajectoryRecord],
    vehicles: usize,
    interval: f64,
) -> Vec<Event> {
    let mut events: Vec<Event> = Vec::new();
    for (v, record) in eval.iter().take(vehicles).enumerate() {
        let trace = record.gps_trace(net, interval, 4.0);
        for p in &trace.points {
            events.push((
                v as u64,
                GpsSample {
                    point: p.point,
                    t: p.t + v as f64 * 29.0,
                },
            ));
        }
    }
    events.sort_by(|a, b| a.1.t.partial_cmp(&b.1.t).expect("finite timestamps"));
    events
}

/// Ingest knobs for the bench: idle sweeps and cap rollovers are both
/// live so the measured path is the production one, not a single giant
/// buffer per vehicle.
fn config(threads: usize) -> IngestConfig {
    IngestConfig {
        policy: SessionPolicy::default(),
        idle_timeout: 120.0,
        max_session_points: 64,
        block_size: 4,
        threads,
        max_lattice_work: 0,
        max_salvage_splits: 8,
        quarantine_log_cap: 64,
        ..IngestConfig::default()
    }
}

struct IngestRun {
    accepted: u64,
    wall_ms: f64,
    pps: f64,
    corpus: Vec<u8>,
}

/// Full end-to-end pass: push every event, finalize, flush, checkpoint.
/// Throughput counts accepted points over the whole wall time, so the
/// number includes matching + compression + publication, not just the
/// WAL append.
fn ingest_run(
    tag: &str,
    matcher: &Arc<MapMatcher>,
    press: &Press,
    cfg: IngestConfig,
    events: &[Event],
) -> IngestRun {
    let dir = bench_dir(tag);
    let t0 = Instant::now();
    let mut engine = IngestEngine::open(
        &dir,
        Arc::clone(matcher),
        press.reconfigured(press.config()),
        cfg,
    )
    .unwrap_or_else(|e| fatal(&format!("open failed: {e}")));
    for &(v, s) in events {
        engine
            .push(v, s)
            .unwrap_or_else(|e| fatal(&format!("push failed: {e}")));
    }
    let corpus = finish(&mut engine);
    let wall_ms = ms(t0);
    let accepted = engine.stats().points_accepted;
    IngestRun {
        accepted,
        wall_ms,
        pps: accepted as f64 / (wall_ms / 1e3).max(1e-9),
        corpus,
    }
}

struct DurabilityRun {
    push_wall_ms: f64,
    push_pps: f64,
    sync_calls: u64,
    avg_sync_batch: f64,
    max_sync_batch: u64,
    io_retries: u64,
    sync_failures: u64,
    sessions_evicted: u64,
    backpressure_rejections: u64,
    storage_full_rejections: u64,
    corpus: Vec<u8>,
}

/// Push the whole stream under `policy`, ending with one explicit
/// covering sync so both policies finish fully durable; only the push
/// loop (+ that sync) is timed. Finalize/flush/checkpoint run outside
/// the timer and yield the corpus for the policy-identity cross-check.
fn durability_run(
    tag: &str,
    matcher: &Arc<MapMatcher>,
    press: &Press,
    policy: DurabilityPolicy,
    threads: usize,
    events: &[Event],
) -> DurabilityRun {
    let dir = bench_dir(tag);
    let cfg = IngestConfig {
        durability: policy,
        ..config(threads)
    };
    let mut engine = IngestEngine::open(
        &dir,
        Arc::clone(matcher),
        press.reconfigured(press.config()),
        cfg,
    )
    .unwrap_or_else(|e| fatal(&format!("open failed: {e}")));
    let t0 = Instant::now();
    for &(v, s) in events {
        engine
            .push(v, s)
            .unwrap_or_else(|e| fatal(&format!("push failed: {e}")));
    }
    engine
        .sync()
        .unwrap_or_else(|e| fatal(&format!("final sync failed: {e}")));
    let push_wall_ms = ms(t0);
    let stats = engine.stats();
    let corpus = finish(&mut engine);
    let _ = std::fs::remove_dir_all(&dir);
    DurabilityRun {
        push_wall_ms,
        push_pps: stats.points_accepted as f64 / (push_wall_ms / 1e3).max(1e-9),
        sync_calls: stats.sync_calls,
        avg_sync_batch: stats.avg_sync_batch(),
        max_sync_batch: stats.max_sync_batch,
        io_retries: stats.io_retries,
        sync_failures: stats.sync_failures,
        sessions_evicted: stats.sessions_evicted,
        backpressure_rejections: stats.backpressure_rejections,
        storage_full_rejections: stats.storage_full_rejections,
        corpus,
    }
}

struct ShardedRun {
    push_wall_ms: f64,
    push_pps: f64,
    sync_calls: u64,
    wal_bytes: u64,
    merged: Vec<u8>,
}

/// How many times each sharded push loop is repeated; the fastest trial
/// is reported. The loops are short (tens of ms) and fsync latency on
/// shared storage is spiky, so a single sample can swing several-fold
/// while the work underneath (records, bytes, sync calls) is byte-for-
/// byte identical — min-of-N recovers the deterministic cost.
const SHARD_TRIALS: usize = 5;

/// Push the whole stream at `shards` writer shards, ending with one
/// covering sync; only the push loop (+ that sync) is timed, and the
/// fastest of `SHARD_TRIALS` identical trials wins. The merged corpus
/// bytes come back for the shard-count-invariance cross-check.
fn sharded_run(
    tag: &str,
    matcher: &Arc<MapMatcher>,
    press: &Press,
    shards: usize,
    threads: usize,
    events: &[Event],
) -> ShardedRun {
    let cfg = IngestConfig {
        shards,
        ..config(threads)
    };
    let mut best_ms = f64::INFINITY;
    let mut out = None;
    for trial in 0..SHARD_TRIALS {
        let dir = bench_dir(&format!("{tag}-t{trial}"));
        let mut engine = IngestEngine::open(
            &dir,
            Arc::clone(matcher),
            press.reconfigured(press.config()),
            cfg,
        )
        .unwrap_or_else(|e| fatal(&format!("open failed: {e}")));
        let t0 = Instant::now();
        for &(v, s) in events {
            engine
                .push(v, s)
                .unwrap_or_else(|e| fatal(&format!("push failed: {e}")));
        }
        engine
            .sync()
            .unwrap_or_else(|e| fatal(&format!("final sync failed: {e}")));
        let push_wall_ms = ms(t0);
        best_ms = best_ms.min(push_wall_ms);
        if trial + 1 == SHARD_TRIALS {
            let stats = engine.stats();
            let wal_bytes = (0..engine.num_shards())
                .map(|k| engine.shard_wal_offset(k))
                .sum();
            engine
                .finalize_all()
                .unwrap_or_else(|e| fatal(&format!("finalize_all failed: {e}")));
            engine
                .flush()
                .unwrap_or_else(|e| fatal(&format!("flush failed: {e}")));
            engine
                .checkpoint()
                .unwrap_or_else(|e| fatal(&format!("checkpoint failed: {e}")));
            let merged = engine
                .merged_corpus_bytes()
                .unwrap_or_else(|e| fatal(&format!("merged corpus failed: {e}")));
            out = Some(ShardedRun {
                push_wall_ms: best_ms,
                push_pps: stats.points_accepted as f64 / (best_ms / 1e3).max(1e-9),
                sync_calls: stats.sync_calls,
                wal_bytes,
                merged,
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.expect("SHARD_TRIALS is at least 1")
}

/// Times an all-dirty (full-rewrite) checkpoint against an incremental
/// one with a single dirty shard of `shards`. Both are timed with the
/// flush already done, so the numbers isolate artifact publication:
/// N store rewrites vs 1 rewrite + N-1 hard links. Like the sharded
/// push loops, each timing is the fastest of `SHARD_TRIALS` identical
/// trials — both checkpoints are a handful of ms, well inside fsync
/// jitter.
fn checkpoint_timing(
    tag: &str,
    matcher: &Arc<MapMatcher>,
    press: &Press,
    shards: usize,
    events: &[Event],
) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for trial in 0..SHARD_TRIALS {
        let (full_ms, incr_ms) =
            checkpoint_timing_trial(&format!("{tag}-t{trial}"), matcher, press, shards, events);
        best.0 = best.0.min(full_ms);
        best.1 = best.1.min(incr_ms);
    }
    best
}

fn checkpoint_timing_trial(
    tag: &str,
    matcher: &Arc<MapMatcher>,
    press: &Press,
    shards: usize,
    events: &[Event],
) -> (f64, f64) {
    let dir = bench_dir(tag);
    let cfg = IngestConfig {
        shards,
        ..config(1)
    };
    let mut engine = IngestEngine::open(
        &dir,
        Arc::clone(matcher),
        press.reconfigured(press.config()),
        cfg,
    )
    .unwrap_or_else(|e| fatal(&format!("open failed: {e}")));
    for &(v, s) in events {
        engine
            .push(v, s)
            .unwrap_or_else(|e| fatal(&format!("push failed: {e}")));
    }
    engine
        .finalize_all()
        .unwrap_or_else(|e| fatal(&format!("finalize_all failed: {e}")));
    engine
        .flush()
        .unwrap_or_else(|e| fatal(&format!("flush failed: {e}")));
    // Every shard is dirty: this checkpoint rewrites all N corpus
    // files.
    let t0 = Instant::now();
    engine
        .checkpoint()
        .unwrap_or_else(|e| fatal(&format!("full checkpoint failed: {e}")));
    let full_ms = ms(t0);
    // Dirty exactly one shard, then measure the incremental flip.
    let (v0, s0) = events[0];
    engine
        .push(
            v0,
            GpsSample {
                point: s0.point,
                t: s0.t + 1.0e5,
            },
        )
        .unwrap_or_else(|e| fatal(&format!("dirty push failed: {e}")));
    engine
        .finalize(v0)
        .unwrap_or_else(|e| fatal(&format!("finalize failed: {e}")));
    engine
        .flush()
        .unwrap_or_else(|e| fatal(&format!("flush failed: {e}")));
    let t0 = Instant::now();
    engine
        .checkpoint()
        .unwrap_or_else(|e| fatal(&format!("incremental checkpoint failed: {e}")));
    let incr_ms = ms(t0);
    let _ = std::fs::remove_dir_all(&dir);
    (full_ms, incr_ms)
}

/// Finalize + flush + checkpoint, returning the published corpus bytes.
fn finish(engine: &mut IngestEngine) -> Vec<u8> {
    engine
        .finalize_all()
        .unwrap_or_else(|e| fatal(&format!("finalize_all failed: {e}")));
    engine
        .flush()
        .unwrap_or_else(|e| fatal(&format!("flush failed: {e}")));
    engine
        .checkpoint()
        .unwrap_or_else(|e| fatal(&format!("checkpoint failed: {e}")));
    std::fs::read(engine.shard_corpus_path(0))
        .unwrap_or_else(|e| fatal(&format!("read corpus: {e}")))
}

/// Fresh per-run scratch directory under the system temp dir.
fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("press-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
