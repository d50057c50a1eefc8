//! `press-e2e-bench` — the repository's end-to-end, layer-attributed
//! benchmark: one seeded fleet is pushed through `IngestEngine`,
//! checkpointed, published, opened mapped, and queried, all from one
//! process through the public API.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <query_selective|query_wide> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! the result: `{"correct", "attempted", "failed", "metrics"}`, with
//! the end-to-end metrics when `--trace 0` and the per-layer metrics
//! when `--trace 1`. The line before it is the provenance report. A
//! failed output check exits 1; a usage error or a failed set-up
//! exits 2. See `README.md` for the workloads and the layer map.

mod fixture;
mod ingest;
mod query;
mod report;
mod stats;
mod trace;

use fixture::{Fixture, Mix};
use ingest::IngestPass;
use press_core::query::QueryEngine;
use press_core::{QueryBatch, TrajectoryStore};
use report::{Metrics, J};
use stats::{median, percentile, sorted};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 3;

/// Every call the benchmark makes into the program, and those that
/// returned `Err`.
#[derive(Default)]
pub struct Calls {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Calls {
    /// Counts one call; `Some(value)` when it succeeded.
    pub fn record<T, E: Display>(&mut self, r: Result<T, E>) -> Option<T> {
        self.record_batch(r, 1)
    }

    /// Counts a call that answers `n` requests at once; on `Err` all
    /// `n` failed.
    pub fn record_batch<T, E: Display>(&mut self, r: Result<T, E>, n: u64) -> Option<T> {
        self.attempted += n;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += n;
                self.first_error.get_or_insert_with(|| e.to_string());
                None
            }
        }
    }
}

/// The workloads and why each exists. Both publish their corpus by
/// ingesting the whole fleet during set-up, so the write path (push →
/// WAL → fsync → session → match → HSC/BTC → pack → manifest commit)
/// is measured on both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// Dashboard reads: the index prunes almost every block and few are
    /// decoded, so index or cache changes show here.
    QuerySelective,
    /// Analytic sweeps: each range query decodes ~80 blocks and makes
    /// over a thousand SP lookups while the index prunes little, so
    /// decode or SP changes show here and not on `query_selective`.
    QueryWide,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "query_selective" => Some(Workload::QuerySelective),
            "query_wide" => Some(Workload::QueryWide),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::QuerySelective => "query_selective",
            Workload::QueryWide => "query_wide",
        }
    }

    fn why(self) -> &'static str {
        match self {
            Workload::QuerySelective => {
                "narrow windows, small regions, hotspot replays and misses: the index prunes \
                 almost everything, so index or cache changes show here"
            }
            Workload::QueryWide => {
                "wide windows, large regions, no hotspots: ~80 blocks decoded and >1k SP \
                 lookups per range query, so decode or SP changes show here"
            }
        }
    }

    /// The query mix this workload sends.
    fn mix(self) -> Mix {
        match self {
            Workload::QuerySelective => Mix::Selective,
            Workload::QueryWide => Mix::Wide,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: press-e2e-bench --workload <query_selective|query_wide> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed needs an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s >= 1)
                        .unwrap_or_else(|| usage("--seconds needs an integer >= 1")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// What a run hands back for printing.
struct Outcome {
    metrics: Metrics,
    /// Failed output checks (empty when every check passed).
    failures: Vec<String>,
    /// Run-specific facts for the provenance report.
    facts: Vec<(&'static str, J)>,
}

fn main() {
    let args = parse_args();
    let work = PathBuf::from(".bench_work").join(format!("e2e-{}", std::process::id()));
    let mut calls = Calls::default();
    let started = Instant::now();
    let outcome = if args.trace {
        traced(&args, &work, &mut calls)
    } else {
        untraced(&args, &work, &mut calls)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            std::process::exit(2);
        }
    };
    if let Some(name) = outcome.metrics.non_finite() {
        outcome
            .failures
            .push(format!("metric {name} is not finite"));
    }
    let correct = outcome.failures.is_empty();
    for f in &outcome.failures {
        eprintln!("check failed: {f}");
    }
    let mut report = vec![
        ("workload", J::s(args.workload.name())),
        ("why", J::s(args.workload.why())),
        ("seed", J::Int(args.seed)),
        ("run_seconds", J::Int(args.seconds)),
        ("trace", J::Bool(args.trace)),
        ("elapsed_s", J::Num(started.elapsed().as_secs_f64())),
        ("environment", report::environment()),
    ];
    report.append(&mut outcome.facts);
    report.push(("metrics", outcome.metrics.detail_json()));
    report.push((
        "failed_checks",
        J::obj(
            outcome
                .failures
                .iter()
                .enumerate()
                .map(|(i, f)| (i.to_string(), J::s(f.as_str()))),
        ),
    ));
    if let Some(e) = &calls.first_error {
        report.push(("first_error", J::s(e.as_str())));
    }
    println!("{}", J::obj([("report", J::obj(report))]));
    println!(
        "{}",
        J::obj([
            ("correct", J::Bool(correct)),
            ("attempted", J::Int(calls.attempted)),
            ("failed", J::Int(calls.failed)),
            ("metrics", outcome.metrics.result_json()),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes the pass's corpus under `work` and opens it mapped.
fn publish(pass: &IngestPass, work: &Path) -> Result<TrajectoryStore, String> {
    let path = work.join("corpus.prs");
    std::fs::write(&path, &pass.corpus).map_err(|e| format!("write corpus: {e}"))?;
    TrajectoryStore::open_mapped(&path).map_err(|e| format!("open_mapped: {e}"))
}

/// The end-to-end run (`--trace 0`).
fn untraced(args: &Args, work: &Path, calls: &mut Calls) -> Result<Outcome, String> {
    let threads = nproc();
    let mut failures = Vec::new();
    let mut setup_s = Vec::new();
    let mut passes: Vec<IngestPass> = Vec::new();
    let mut store = None;
    let mut fx = None;
    // Set-up: network + SP backend + HSC training + fleet, and the
    // ingest that publishes the corpus and its mapped open.
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let f = Fixture::build(args.seed);
        let pass = ingest::run_pass(&f, &f.press, threads, work, calls, None)?;
        store = Some(publish(&pass, work)?);
        passes.push(pass);
        setup_s.push(t.elapsed().as_secs_f64());
        fx = Some(f);
    }
    let fx = fx.expect("at least one set-up");
    let store = store.expect("a corpus was published");
    let engine = QueryEngine::new(fx.press.model());
    let mix = args.workload.mix().queries(&store, &fx.net, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let measured = query::measure(&store, &engine, &mix, threads, budget, calls);
    let digest = passes[0].digest;
    if passes.iter().any(|p| p.digest != digest) {
        failures.push("published corpus digest differs between ingest passes of one seed".into());
    }

    let mut m = Metrics::default();
    m.add_median("setup_s", "s", &setup_s);
    ingest_metrics(&mut m, &passes);
    m.add_median("query_qps", "queries/s", &measured.batch_qps);
    let range: Vec<&[f64]> = measured.passes.iter().map(|l| &l.range_us[..]).collect();
    let point: Vec<&[f64]> = measured.passes.iter().map(|l| &l.point_us[..]).collect();
    add_percentile(&mut m, "range_p50_us", "us", &range, 0.5);
    add_percentile(&mut m, "range_p99_us", "us", &range, 0.99);
    add_percentile(&mut m, "point_p50_us", "us", &point, 0.5);
    add_percentile(&mut m, "point_p99_us", "us", &point, 0.99);

    // Output checks, outside the measured window.
    if let Err(e) = ingest::attribution_pass(&fx, &fx.press, None, calls) {
        failures.push(e);
    }
    if let Err(e) = query::check_answers(&store, &engine, &mix, threads, calls) {
        failures.push(e);
    }
    let facts = vec![
        ("setup_repeats", J::Int(SETUP_REPEATS as u64)),
        ("ingest_passes", J::Int(passes.len() as u64)),
        ("query_batches", J::Int(measured.batch_qps.len() as u64)),
        ("fixture", fixture_facts(&fx)),
        ("corpus", corpus_facts(&passes[0], &store)),
        ("mix", mix_facts(args.workload.mix(), &mix)),
    ];
    Ok(Outcome {
        metrics: m,
        failures,
        facts,
    })
}

/// A latency percentile over a run's passes. The median (`q <= 0.5`)
/// is taken over all samples pooled: when the machine flips between a
/// fast and a slow state from pass to pass, the pooled median blends
/// the two, where a median of per-pass medians would jump between
/// them. A tail percentile is the median of the passes' own tails,
/// because one disturbed pass would fill the pooled tail with its
/// samples. Either way each pass's value is kept for the report, and a
/// percentile without 10 samples beyond it is NaN (a failed run).
fn add_percentile(
    m: &mut Metrics,
    name: &'static str,
    unit: &'static str,
    passes: &[&[f64]],
    q: f64,
) {
    let per_pass: Vec<f64> = passes
        .iter()
        .filter_map(|p| percentile(&sorted(p), q))
        .collect();
    if q <= 0.5 {
        let pooled = percentile(&sorted(&passes.concat()), q).unwrap_or(f64::NAN);
        m.add_passes(name, unit, pooled, &per_pass);
    } else {
        m.add_median(name, unit, &per_pass);
    }
}

/// The ingest metrics of a set of passes, each the median of the
/// passes' values.
fn ingest_metrics(m: &mut Metrics, passes: &[IngestPass]) {
    let pps: Vec<f64> = passes.iter().map(IngestPass::points_per_s).collect();
    m.add_median("ingest_pts_per_s", "points/s", &pps);
    let push: Vec<&[f64]> = passes.iter().map(|p| &p.push_us[..]).collect();
    add_percentile(m, "push_p50_us", "us", &push, 0.5);
    add_percentile(m, "push_p99_us", "us", &push, 0.99);
    let ckpt: Vec<&[f64]> = passes.iter().map(|p| &p.checkpoint_ms[..]).collect();
    add_percentile(m, "checkpoint_p50_ms", "ms", &ckpt, 0.5);
    let p = &passes[0];
    m.add(
        "compression_ratio",
        "x",
        press_core::stats::raw_gps_bytes(p.accepted as usize) as f64 / p.corpus.len() as f64,
    );
}

fn fixture_facts(fx: &Fixture) -> J {
    J::obj([
        ("grid_nodes", J::Int(fx.net.num_nodes() as u64)),
        ("grid_edges", J::Int(fx.net.num_edges() as u64)),
        ("sp_backend", J::s("dense")),
        ("vehicles", J::Int(fixture::VEHICLES as u64)),
        ("fixes", J::Int(fx.events.len() as u64)),
        (
            "stream_span_s",
            J::Num(
                fx.events.last().map_or(0.0, |e| e.1.t) - fx.events.first().map_or(0.0, |e| e.1.t),
            ),
        ),
        (
            "checkpoint_every_stream_s",
            J::Num(fixture::CHECKPOINT_EVERY_S),
        ),
        ("flush_workers", J::Int(nproc() as u64)),
        ("client_threads", J::Int(1)),
        ("load", J::s("closed loop")),
    ])
}

fn corpus_facts(pass: &IngestPass, store: &TrajectoryStore) -> J {
    J::obj([
        ("digest_crc32", J::s(format!("{:08x}", pass.digest))),
        ("bytes", J::Int(pass.corpus.len() as u64)),
        ("trajectories", J::Int(store.len() as u64)),
        ("blocks", J::Int(store.num_blocks() as u64)),
        ("block_size", J::Int(store.block_size() as u64)),
        // The program's own read cache is one decoded block.
        ("cache_blocks", J::Int(1)),
        (
            "cache_share_of_corpus",
            J::Num(1.0 / store.num_blocks().max(1) as f64),
        ),
        ("points_accepted", J::Int(pass.accepted)),
    ])
}

fn mix_facts(mix: Mix, queries: &[press_core::StoreQuery]) -> J {
    let ranges = queries
        .iter()
        .filter(|q| matches!(q, press_core::StoreQuery::Range { .. }))
        .count();
    // Queries hold floats (no `Hash`); their debug form identifies them.
    let distinct = queries
        .iter()
        .map(|q| format!("{q:?}"))
        .collect::<std::collections::HashSet<_>>()
        .len();
    J::obj([
        ("name", J::s(format!("{mix:?}").to_lowercase())),
        ("queries", J::Int(queries.len() as u64)),
        ("range_queries", J::Int(ranges as u64)),
        ("distinct_queries", J::Int(distinct as u64)),
    ])
}

/// The traced run (`--trace 1`): the same pipeline once untraced and
/// once with every probe on, reporting the per-layer metrics.
fn traced(args: &Args, work: &Path, calls: &mut Calls) -> Result<Outcome, String> {
    let threads = nproc();
    let mut failures = Vec::new();
    let fx = Fixture::build(args.seed);

    // Untraced reference: publish, then time the mapped open.
    let plain = ingest::run_pass(&fx, &fx.press, threads, work, calls, None)?;
    publish(&plain, work)?;
    let mut open_ms = Vec::new();
    let mut store = None;
    for _ in 0..5 {
        let t = Instant::now();
        let s = calls.record(TrajectoryStore::open_mapped(&work.join("corpus.prs")));
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        store = s.or(store);
    }
    let store = store.ok_or("open_mapped failed")?;

    // Traced ingest at `nproc` flush workers, and at one for the flush
    // speedup. Both must publish the untraced pass's bytes.
    let (press_c, counter) = fx.counting_press();
    let floor_ns = trace::clock_floor_ns();
    let mut probe = ingest::IngestProbe::default();
    let sp_before = counter.snapshot();
    let traced_pass = ingest::run_pass(&fx, &press_c, threads, work, calls, Some(&mut probe))?;
    let sp_ingest = counter.snapshot().since(sp_before);
    let mut probe_1 = ingest::IngestProbe::default();
    let pass_1 = ingest::run_pass(&fx, &press_c, 1, work, calls, Some(&mut probe_1))?;
    for (p, what) in [(&traced_pass, "traced"), (&pass_1, "one-worker traced")] {
        if p.digest != plain.digest {
            failures.push(format!(
                "{what} ingest published other bytes than the untraced one"
            ));
        }
    }
    let sp2 = counter.snapshot();
    let pack_ns = match ingest::replay_packs(&press_c, &probe.rewritten, calls) {
        Ok(ns) => ns,
        Err(e) => {
            failures.push(e);
            0
        }
    };
    let sp3 = counter.snapshot();
    let attr = match ingest::attribution_pass(&fx, &press_c, Some(&counter), calls) {
        Ok(a) => a,
        Err(e) => {
            failures.push(e);
            ingest::Attribution::default()
        }
    };

    // Queries: the workload's mix, checked, then timed untraced and traced.
    let mix_kind = args.workload.mix();
    let mix = mix_kind.queries(&store, &fx.net, args.seed);
    let engine = QueryEngine::new(fx.press.model());
    let engine_c = QueryEngine::new(press_c.model());
    let reference =
        query::check_answers(&store, &engine, &mix, threads, calls).unwrap_or_else(|e| {
            failures.push(e);
            Vec::new()
        });
    // Untraced and traced rounds alternate, so drift in the machine's
    // speed over the run does not land on one side of the overhead.
    let rounds = match mix_kind {
        Mix::Selective => 6,
        Mix::Wide => 4,
    };
    let (mut untraced_q_s, mut traced_q_s) = (0.0, 0.0);
    let (mut decoded, mut skipped, mut sp_query) = (0u64, 0u64, trace::SpCounts::default());
    let mut lat = query::Latencies::default();
    let mut traced_answers = Vec::with_capacity(mix.len());
    for round in 0..rounds {
        let t = Instant::now();
        query::one_client_pass(
            &store,
            &engine,
            &mix,
            &mut query::Latencies::default(),
            calls,
            None,
        );
        untraced_q_s += t.elapsed().as_secs_f64();
        let (io0, sq0) = (store.io_stats(), counter.snapshot());
        let answers = (round == 0).then_some(&mut traced_answers);
        let t = Instant::now();
        query::one_client_pass(&store, &engine_c, &mix, &mut lat, calls, answers);
        traced_q_s += t.elapsed().as_secs_f64();
        let (io1, sq1) = (store.io_stats(), counter.snapshot());
        decoded += io1.0 - io0.0;
        skipped += io1.1 - io0.1;
        sp_query.add(sq1.since(sq0));
    }
    if traced_answers != reference {
        failures.push("traced query answers differ from the untraced ones".into());
    }
    let (index_ns, range_probes, candidates) = query::time_index(&store, &mix);
    let decode_us = query::decode_us_per_block(&store, calls);
    let batch = QueryBatch::from_queries(mix.clone());
    let batch_qps = |workers: usize, calls: &mut Calls| {
        let mut v: Vec<f64> = (0..3)
            .map(|_| query::batch_pass(&store, &engine, &batch, workers, calls).0)
            .collect();
        v.sort_by(f64::total_cmp);
        v[1]
    };
    let batch_speedup = batch_qps(threads, calls) / batch_qps(1, calls);

    // Self-times. The flush runs on worker threads, so its wall time is
    // split between matcher, compressor and SP lookups in the
    // proportions the single-threaded attribution pass measured.
    let flush_ns = probe.flush_ns as f64;
    let work_ns = (attr.match_ns + attr.compress_ns).max(1) as f64;
    let compress_sp = attr.compress_sp.busy_ns(floor_ns);
    let pack_sp = sp3.since(sp2).busy_ns(floor_ns);
    let matcher_ns = flush_ns * attr.match_ns as f64 / work_ns;
    let core_ingest = flush_ns * (attr.compress_ns as f64 - compress_sp) / work_ns;
    let net_ingest = flush_ns * compress_sp / work_ns + pack_sp;
    let store_ingest = pack_ns as f64 - pack_sp;
    let commit_ns = probe.checkpoint_ns as f64 - pack_ns as f64;
    let serve_ns = (probe.push_ns + probe.fsync_ns + probe.finalize_ns) as f64 + commit_ns;
    let queries_run = (rounds * mix.len()) as f64;
    let (decoded, skipped) = (decoded as f64, skipped as f64);
    let net_query = sp_query.busy_ns(floor_ns);
    let store_query = index_ns as f64 * rounds as f64 + decoded * decode_us * 1e3;
    let core_query = (lat.total_ns() - net_query - store_query).max(0.0);
    let wall_ns = traced_pass.wall_s * 1e9 + traced_q_s * 1e9;
    let self_ns = [
        serve_ns,
        matcher_ns,
        core_ingest + core_query,
        store_ingest + store_query,
        net_ingest + net_query,
    ];
    let coverage = self_ns.iter().sum::<f64>() / wall_ns;
    if (coverage - 1.0).abs() > 0.1 {
        failures.push(format!(
            "layer self-times cover {:.1}% of the traced wall time (must be within 10%)",
            coverage * 100.0
        ));
    }
    let overhead = traced_q_s / untraced_q_s;

    let st = traced_pass.stats;
    let mut m = Metrics::default();
    let ms = |ns: f64| ns / 1e6;
    m.add("serve.push.busy_ms", "ms", ms(probe.push_ns as f64));
    m.add(
        "serve.push.calls",
        "count",
        (probe.push_calls + probe.fsync_calls) as f64,
    );
    m.add("serve.push.acks_accepted", "count", probe.acks[0] as f64);
    m.add("serve.push.acks_journaled", "count", probe.acks[1] as f64);
    m.add("serve.push.acks_quarantined", "count", probe.acks[2] as f64);
    m.add("serve.push.acks_repaired", "count", probe.acks[3] as f64);
    m.add(
        "serve.wal.bytes_per_point",
        "B/point",
        probe.wal_bytes as f64 / traced_pass.accepted.max(1) as f64,
    );
    m.add("serve.fsync.calls", "count", probe.fsync_calls as f64);
    m.add(
        "serve.fsync.avg_batch_frames",
        "frames",
        st.avg_sync_batch(),
    );
    m.add("serve.fsync.busy_ms", "ms", ms(probe.fsync_ns as f64));
    m.add("serve.flush.busy_ms", "ms", ms(flush_ns));
    m.add(
        "serve.flush.segments",
        "count",
        (st.segments_idle + st.segments_cap + st.segments_explicit) as f64,
    );
    m.add("serve.flush.pieces", "count", st.pieces_compressed as f64);
    m.add(
        "serve.flush.useful_ratio",
        "ratio",
        st.pieces_compressed as f64 / (st.pieces_compressed + st.pieces_dropped).max(1) as f64,
    );
    m.add(
        "serve.flush.speedup",
        "x",
        probe_1.flush_ns as f64 / flush_ns.max(1.0),
    );
    m.add("matcher.match.busy_ms", "ms", ms(attr.match_ns as f64));
    m.add(
        "matcher.match.us_per_point",
        "us/point",
        attr.match_ns as f64 / 1e3 / attr.points.max(1) as f64,
    );
    m.add("core.compress.busy_ms", "ms", ms(attr.compress_ns as f64));
    m.add(
        "core.compress.us_per_piece",
        "us/piece",
        attr.compress_ns as f64 / 1e3 / attr.pieces.max(1) as f64,
    );
    m.add("store.pack_ms", "ms", ms(pack_ns as f64));
    m.add("serve.commit_ms", "ms", ms(commit_ns));
    m.add("serve.checkpoint.count", "count", probe.checkpoints as f64);
    m.add(
        "serve.checkpoint.bytes_written",
        "bytes",
        probe.checkpoint_bytes as f64,
    );
    m.add(
        "serve.checkpoint.shards_linked",
        "count",
        probe.shards_linked as f64,
    );
    m.add(
        "store.open_mapped_ms",
        "ms",
        median(&sorted(&open_ms)).expect("five opens"),
    );
    m.add("store.index.busy_us", "us", index_ns as f64 / 1e3);
    m.add(
        "store.index.candidates_per_range",
        "blocks/query",
        candidates as f64 / range_probes.max(1) as f64,
    );
    m.add(
        "store.blocks_decoded_per_query",
        "blocks/query",
        decoded / queries_run,
    );
    m.add(
        "store.blocks_skipped_ratio",
        "ratio",
        skipped / (decoded + skipped).max(1.0),
    );
    m.add("store.decode_us_per_block", "us/block", decode_us);
    m.add(
        "network.sp.calls_per_query",
        "calls/query",
        sp_query.calls as f64 / queries_run,
    );
    m.add("network.sp.busy_ms", "ms", ms(net_query) / rounds as f64);
    m.add("network.sp.calls_ingest", "count", sp_ingest.calls as f64);
    m.add("core.batch.speedup", "x", batch_speedup);
    m.add("self.serve_ms", "ms", ms(self_ns[0]));
    m.add("self.matcher_ms", "ms", ms(self_ns[1]));
    m.add("self.core_ms", "ms", ms(self_ns[2]));
    m.add("self.store_ms", "ms", ms(self_ns[3]));
    m.add("self.network_ms", "ms", ms(self_ns[4]));
    m.add("trace.wall_ms", "ms", ms(wall_ns));
    m.add("trace.coverage", "ratio", coverage);
    m.add("trace.overhead", "x", overhead);

    let facts = vec![
        ("query_rounds", J::Int(rounds as u64)),
        ("clock_floor_ns", J::Num(floor_ns)),
        ("max_tsnd_m", J::Num(attr.max_tsnd)),
        ("max_nstd_s", J::Num(attr.max_nstd)),
        ("attribution_segments", J::Int(attr.segments)),
        ("fixture", fixture_facts(&fx)),
        ("corpus", corpus_facts(&plain, &store)),
        ("mix", mix_facts(mix_kind, &mix)),
    ];
    Ok(Outcome {
        metrics: m,
        failures,
        facts,
    })
}
