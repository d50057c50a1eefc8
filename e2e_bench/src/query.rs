//! The read path: one closed-loop client sends a workload's mix to the
//! mapped corpus one store call at a time, and `QueryBatch::run`
//! answers the same mix across workers; plus the traced run's index
//! and decode timings.

use crate::Calls;
use press_core::query::QueryEngine;
use press_core::{PressError, QueryBatch, StoreAnswer, StoreQuery, TrajectoryStore};
use press_store::IndexEntry;
use std::time::{Duration, Instant};

/// Per-call latencies in microseconds.
#[derive(Default)]
pub struct Latencies {
    /// `TrajectoryStore::range` calls.
    pub range_us: Vec<f64>,
    /// `TrajectoryStore::whereat` and `whenat` calls.
    pub point_us: Vec<f64>,
}

impl Latencies {
    /// Summed latency of every call, in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        (self.range_us.iter().sum::<f64>() + self.point_us.iter().sum::<f64>()) * 1e3
    }
}

/// Answers `q` with one store call, folding domain misses into
/// [`StoreAnswer::Miss`] exactly as `QueryBatch` does.
fn answer(
    store: &TrajectoryStore,
    engine: &QueryEngine<'_>,
    q: &StoreQuery,
) -> press_core::Result<StoreAnswer> {
    let r = match *q {
        StoreQuery::Range { t1, t2, ref region } => {
            store.range(engine, t1, t2, region).map(StoreAnswer::Hits)
        }
        StoreQuery::WhenAt { idx, p, tolerance } => store
            .whenat(engine, idx, p, tolerance)
            .map(StoreAnswer::Time),
        StoreQuery::WhereAt { idx, t } => store.whereat(engine, idx, t).map(StoreAnswer::Position),
    };
    match r {
        Err(PressError::OutOfDomain(msg)) => Ok(StoreAnswer::Miss(msg)),
        other => other,
    }
}

/// One client, one pass over `mix`: each query is its own timed store
/// call. With `answers`, the answers are collected (a failed call
/// leaves a `Miss` placeholder and is counted in `calls`).
pub fn one_client_pass(
    store: &TrajectoryStore,
    engine: &QueryEngine<'_>,
    mix: &[StoreQuery],
    lat: &mut Latencies,
    calls: &mut Calls,
    mut answers: Option<&mut Vec<StoreAnswer>>,
) {
    for q in mix {
        let t = Instant::now();
        let a = answer(store, engine, q);
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        match q {
            StoreQuery::Range { .. } => lat.range_us.push(us),
            _ => lat.point_us.push(us),
        }
        let a = calls.record(a);
        if let Some(out) = answers.as_deref_mut() {
            out.push(a.unwrap_or_else(|| StoreAnswer::Miss("call failed".into())));
        }
    }
}

/// Runs `batch` once at `threads` workers; returns queries per second
/// and the answers (`None` if the batch failed).
pub fn batch_pass(
    store: &TrajectoryStore,
    engine: &QueryEngine<'_>,
    batch: &QueryBatch,
    threads: usize,
    calls: &mut Calls,
) -> (f64, Option<Vec<StoreAnswer>>) {
    let t = Instant::now();
    let r = batch.run(store, engine, threads);
    let qps = batch.len() as f64 / t.elapsed().as_secs_f64();
    (qps, calls.record_batch(r, batch.len() as u64))
}

/// What the untraced query measurement collected.
#[derive(Default)]
pub struct Measured {
    /// One-client latencies, one entry per pass over the mix.
    pub passes: Vec<Latencies>,
    /// Queries per second of each `QueryBatch::run` at `nproc`.
    pub batch_qps: Vec<f64>,
}

/// Passes (and batch runs) a measurement makes at least, so that each
/// metric is a median of several.
const MIN_PASSES: usize = 3;

/// Alternates one-client passes and `QueryBatch` runs at `threads`
/// workers until `budget` has passed and at least [`MIN_PASSES`] of
/// each have run.
pub fn measure(
    store: &TrajectoryStore,
    engine: &QueryEngine<'_>,
    mix: &[StoreQuery],
    threads: usize,
    budget: Duration,
    calls: &mut Calls,
) -> Measured {
    let batch = QueryBatch::from_queries(mix.to_vec());
    let mut m = Measured::default();
    let t0 = Instant::now();
    while t0.elapsed() < budget || m.passes.len() < MIN_PASSES {
        let mut lat = Latencies::default();
        one_client_pass(store, engine, mix, &mut lat, calls, None);
        m.passes.push(lat);
        m.batch_qps
            .push(batch_pass(store, engine, &batch, threads, calls).0);
    }
    m
}

/// The output checks on a mix: every `range` answer equals the
/// `range_linear` reference, and `QueryBatch` at `threads` workers and
/// at one worker both equal the one-client answers.
pub fn check_answers(
    store: &TrajectoryStore,
    engine: &QueryEngine<'_>,
    mix: &[StoreQuery],
    threads: usize,
    calls: &mut Calls,
) -> Result<Vec<StoreAnswer>, String> {
    let mut single = Vec::with_capacity(mix.len());
    one_client_pass(
        store,
        engine,
        mix,
        &mut Latencies::default(),
        calls,
        Some(&mut single),
    );
    for (q, a) in mix.iter().zip(&single) {
        if let StoreQuery::Range { t1, t2, ref region } = *q {
            let linear = calls.record(store.range_linear(engine, t1, t2, region));
            let indexed = match a {
                StoreAnswer::Hits(h) => Some(h),
                _ => None,
            };
            if linear.as_ref() != indexed {
                return Err("indexed range answer differs from the range_linear reference".into());
            }
        }
    }
    let batch = QueryBatch::from_queries(mix.to_vec());
    for workers in [threads, 1] {
        let (_, answers) = batch_pass(store, engine, &batch, workers, calls);
        if answers.as_ref() != Some(&single) {
            return Err(format!(
                "QueryBatch at {workers} worker(s) differs from one-client answers"
            ));
        }
    }
    Ok(single)
}

/// Times `SynopsisIndex::candidates` on every range probe of `mix`, as
/// `TrajectoryStore::range` builds it: `(total ns, range probes,
/// candidate blocks)`.
pub fn time_index(store: &TrajectoryStore, mix: &[StoreQuery]) -> (u64, u64, u64) {
    let probes: Vec<IndexEntry> = mix
        .iter()
        .filter_map(|q| match *q {
            StoreQuery::Range { t1, t2, ref region } => Some(IndexEntry::new(
                region.min_x,
                region.min_y,
                region.max_x,
                region.max_y,
                t1.min(t2),
                t1.max(t2),
            )),
            _ => None,
        })
        .collect();
    let index = store.synopsis_index();
    let t = Instant::now();
    let candidates: usize = probes
        .iter()
        .map(|p| std::hint::black_box(index.candidates(p)).len())
        .sum();
    (
        t.elapsed().as_nanos() as u64,
        probes.len() as u64,
        candidates as u64,
    )
}

/// Median over a few runs of `TrajectoryStore::decode_all`, per block,
/// in microseconds.
pub fn decode_us_per_block(store: &TrajectoryStore, calls: &mut Calls) -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(calls.record(store.decode_all()));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2] / store.num_blocks().max(1) as f64
}
