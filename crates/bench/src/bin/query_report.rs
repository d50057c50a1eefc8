//! `query_report` — indexed query serving throughput report for the
//! `TrajectoryStore` synopsis index + `QueryBatch` executor, written to
//! `BENCH_query.json`, and the CI regression gate over a checked-in
//! baseline of that file.
//!
//! Usage:
//! ```text
//! query_report [--trajectories N] [--block-size N] [--queries N]
//!              [--threads N] [--out PATH] [--check BASELINE]
//!              [--tolerance X] [--min-speedup X]
//!
//! --trajectories N  corpus size (default 1_000_000); the pool of real
//!                   compressed trajectories is cloned with staggered
//!                   time offsets up to this count, so blocks are
//!                   time-clustered the way fleet ingest produces them
//! --block-size N    trajectories per store block (default 64)
//! --queries N       size of the mixed query workload (default 2000)
//! --threads N       workers for the parallel batch run (default 0 =
//!                   one per core); never changes answers — the 1-worker
//!                   and parallel runs are cross-checked exactly
//! --out PATH        output JSON path (default BENCH_query.json)
//! --check BASELINE  compare against a baseline report and exit non-zero
//!                   on regression; ALL failing metrics are reported
//! --tolerance X     max allowed QPS slowdown factor (default 3)
//! --min-speedup X   minimum indexed-over-linear speedup to demand of
//!                   THIS run (default 0 = report only); CI passes a
//!                   floor tuned to its reduced corpus size
//! ```
//!
//! Phases:
//! * **corpus**: a small pool of genuinely compressed trajectories is
//!   cloned with monotone time offsets up to `--trajectories`, packed
//!   into a `TrajectoryStore` image, and reloaded.
//! * **serving**: the same mixed query workload (`press-workload`'s
//!   seeded generator: selective range windows, point probes, misses,
//!   hotspot repetition) is answered three ways — linear directory walk,
//!   indexed single-worker, indexed parallel batch — and cross-checked
//!   answer-for-answer. Reported: QPS each way, indexed/linear speedup,
//!   and the blocks-skipped ratio of the indexed pass.
//!
//! The gate fails on answers diverging between any two modes or (when
//! `--min-speedup` is given) the indexed path beating the linear walk by
//! less than the floor; with `--check`, also on a `> tolerance×` drop of
//! either gated QPS metric or on one missing from the baseline or the
//! fresh run.

use press_bench::report::{fatal, ms, resolve_threads, usage_error, Better, Report};
use press_core::query::QueryEngine;
use press_core::store::TrajectoryStore;
use press_core::{
    CompressedTrajectory, DtPoint, Press, PressConfig, QueryBatch, StoreAnswer, StoreQuery,
    TemporalSequence,
};
use press_network::{grid_network, GridConfig, SpBackend};
use press_workload::{query_mix, QueryMixConfig, Workload, WorkloadConfig};
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str = "usage: query_report [--trajectories N] [--block-size N] [--queries N] \
                     [--threads N] [--out PATH] [--check BASELINE] [--tolerance X] \
                     [--min-speedup X]";

fn main() {
    let mut trajectories = 1_000_000usize;
    let mut block_size = 64usize;
    let mut queries = 2000usize;
    let mut threads = 0usize;
    let mut min_speedup = 0.0f64;
    let mut report = Report::from_env_flags(USAGE, "BENCH_query.json", |flag, args| {
        match flag {
            "--trajectories" => trajectories = args.value(flag)?,
            "--block-size" => block_size = args.value(flag)?,
            "--queries" => queries = args.value(flag)?,
            "--threads" => threads = args.value(flag)?,
            "--min-speedup" => min_speedup = args.value(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    if trajectories == 0 || block_size == 0 || queries == 0 {
        usage_error(
            USAGE,
            "--trajectories, --block-size and --queries must be >= 1",
        );
    }
    let resolved_threads = resolve_threads(threads);

    // ---- Pool: real compressed trajectories from the taxi workload. ----
    eprintln!("[fixture] training the compressor and building the pool…");
    let net = std::sync::Arc::new(grid_network(&GridConfig {
        nx: 10,
        ny: 10,
        spacing: 150.0,
        weight_jitter: 0.12,
        removal_prob: 0.0,
        seed: 47,
    }));
    let sp = SpBackend::Dense.build(net.clone());
    let workload = Workload::generate(
        net.clone(),
        sp.clone(),
        WorkloadConfig {
            num_trajectories: 96,
            seed: 47,
            ..WorkloadConfig::default()
        },
    );
    let (train, eval) = workload.split(0.5);
    let training_paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
    let press = Press::train(sp, &training_paths, PressConfig::default())
        .unwrap_or_else(|e| fatal(&format!("training failed: {e}")));
    let engine = QueryEngine::new(press.model());
    let pool: Vec<CompressedTrajectory> = eval
        .iter()
        .map(|r| {
            press
                .compress(&r.truth_trajectory(12.0))
                .unwrap_or_else(|e| fatal(&format!("compress failed: {e}")))
        })
        .collect();
    if pool.is_empty() {
        fatal("empty trajectory pool");
    }

    // ---- Corpus: clone the pool with monotone time offsets. -------------
    // Successive clones start 30 s apart, so store blocks (ingest order)
    // cover tight time windows — the structure the synopsis index skips.
    eprintln!("[corpus] cloning the pool up to {trajectories} trajectories…");
    let cts: Vec<CompressedTrajectory> = (0..trajectories)
        .map(|k| shift(&pool[k % pool.len()], k as f64 * 30.0))
        .collect();
    let horizon = trajectories as f64 * 30.0 + 600.0;
    let t0 = Instant::now();
    let bytes = TrajectoryStore::to_store_bytes(&engine, &cts, block_size)
        .unwrap_or_else(|e| fatal(&format!("store build failed: {e}")));
    let corpus_bytes = bytes.len();
    let build_ms = ms(t0);
    let store = TrajectoryStore::from_store_bytes(bytes)
        .unwrap_or_else(|e| fatal(&format!("store load failed: {e}")));
    let num_blocks = trajectories.div_ceil(block_size);
    eprintln!(
        "[corpus] {} trajectories in {} blocks ({:.1} MiB, built in {:.0} ms)",
        trajectories,
        num_blocks,
        corpus_bytes as f64 / (1024.0 * 1024.0),
        build_ms
    );

    // ---- Query workload: selective, hotspot-heavy dashboard traffic. ----
    let bb = net.bounding_box();
    let mix = query_mix(&QueryMixConfig {
        num_queries: queries,
        seed: 4747,
        range_fraction: 0.7,
        bbox: bb,
        t_min: 0.0,
        t_max: horizon,
        // One range window ≈ a few blocks of stream time.
        window_fraction: (block_size as f64 * 30.0 * 3.0 / horizon).min(0.05),
        region_fraction: 0.3,
        miss_fraction: 0.2,
        hotspot_fraction: 0.5,
        hotspot_pool: 16,
        num_trajectories: trajectories,
    });
    let batch = QueryBatch::from_queries(mix);

    // ---- Serving passes: linear walk, indexed, parallel batch. ----------
    let (linear_answers, linear_ms) = run_linear(&store, &engine, batch.queries());
    let linear_qps = batch.len() as f64 / (linear_ms / 1e3).max(1e-9);
    eprintln!("[serve] linear walk: {linear_ms:.0} ms — {linear_qps:.0} q/s");

    let skipped_before = store.io_stats();
    let t0 = Instant::now();
    let indexed_answers = batch
        .run(&store, &engine, 1)
        .unwrap_or_else(|e| fatal(&format!("indexed batch failed: {e}")));
    let indexed_ms = ms(t0);
    let skipped_after = store.io_stats();
    let indexed_qps = batch.len() as f64 / (indexed_ms / 1e3).max(1e-9);
    let decoded = (skipped_after.0 - skipped_before.0) as f64;
    let skipped = (skipped_after.1 - skipped_before.1) as f64;
    let skip_ratio = skipped / (decoded + skipped).max(1.0);
    eprintln!(
        "[serve] indexed: {indexed_ms:.0} ms — {indexed_qps:.0} q/s, \
         blocks skipped {skip_ratio:.4} ({decoded:.0} decoded, {skipped:.0} skipped)"
    );

    let t0 = Instant::now();
    let parallel_answers = batch
        .run(&store, &engine, resolved_threads)
        .unwrap_or_else(|e| fatal(&format!("parallel batch failed: {e}")));
    let parallel_ms = ms(t0);
    let parallel_qps = batch.len() as f64 / (parallel_ms / 1e3).max(1e-9);
    eprintln!("[serve] parallel ({resolved_threads} workers): {parallel_ms:.0} ms — {parallel_qps:.0} q/s");

    let answers_identical = indexed_answers == linear_answers;
    let batch_identical = indexed_answers == parallel_answers;
    let speedup = indexed_qps / linear_qps.max(1e-9);
    eprintln!(
        "[serve] answers identical (indexed vs linear): {answers_identical}; \
         batch identical across worker counts: {batch_identical}; speedup {speedup:.1}x"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"fixture\": {{\"trajectories\": {trajectories}, \"blocks\": {num_blocks}, \
         \"block_size\": {block_size}, \"queries\": {}, \"corpus_bytes\": {corpus_bytes}, \
         \"build_ms\": {build_ms:.1}}},",
        batch.len()
    );
    let _ = writeln!(
        json,
        "  \"serving\": {{\n    \"linear\": {{\"wall_ms\": {linear_ms:.1}, \"qps\": {linear_qps:.0}}},\n    \"indexed\": {{\"wall_ms\": {indexed_ms:.1}, \"qps\": {indexed_qps:.0}}},\n    \"parallel\": {{\"threads\": {resolved_threads}, \"wall_ms\": {parallel_ms:.1}, \"qps\": {parallel_qps:.0}}},\n    \"speedup\": {speedup:.2},\n    \"blocks_skipped_ratio\": {skip_ratio:.4},\n    \"answers_identical\": {answers_identical},\n    \"batch_identical\": {batch_identical}\n  }}\n}}"
    );

    let gate = &mut report.gate;
    gate.identity("serving.answers_identical");
    gate.identity("serving.batch_identical");
    if min_speedup > 0.0 {
        gate.at_least("serving.speedup", min_speedup);
    }
    gate.vs_baseline("serving.indexed.qps", Better::Higher);
    gate.vs_baseline("serving.parallel.qps", Better::Higher);
    report.finish(&json);
}

/// The linear reference pass: identical execution except `range` walks
/// the whole block directory (`range_linear`); point queries take the
/// same direct-addressed path either way.
fn run_linear(
    store: &TrajectoryStore,
    engine: &QueryEngine<'_>,
    queries: &[StoreQuery],
) -> (Vec<StoreAnswer>, f64) {
    use press_core::PressError;
    let t0 = Instant::now();
    let answers = queries
        .iter()
        .map(|q| {
            let r = match *q {
                StoreQuery::Range { t1, t2, ref region } => store
                    .range_linear(engine, t1, t2, region)
                    .map(StoreAnswer::Hits),
                StoreQuery::WhenAt { idx, p, tolerance } => store
                    .whenat(engine, idx, p, tolerance)
                    .map(StoreAnswer::Time),
                StoreQuery::WhereAt { idx, t } => {
                    store.whereat(engine, idx, t).map(StoreAnswer::Position)
                }
            };
            match r {
                Ok(a) => a,
                Err(PressError::OutOfDomain(msg)) => StoreAnswer::Miss(msg),
                Err(e) => fatal(&format!("linear pass failed: {e}")),
            }
        })
        .collect();
    (answers, ms(t0))
}

/// A time-shifted clone: same spatial bits, same motion profile, new
/// start time — how the same route shows up across the day in a fleet.
fn shift(ct: &CompressedTrajectory, dt: f64) -> CompressedTrajectory {
    let pts = ct
        .temporal
        .points
        .iter()
        .map(|p| DtPoint::new(p.d, p.t + dt))
        .collect();
    CompressedTrajectory {
        spatial: ct.spatial.clone(),
        temporal: TemporalSequence::new_unchecked(pts),
    }
}
