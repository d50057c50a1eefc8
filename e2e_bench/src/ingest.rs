//! The write path: one closed-loop client pushes the fleet stream into
//! an `IngestEngine`, checkpointing whenever the stream clock passes
//! another [`CHECKPOINT_EVERY_S`]; plus the traced run's probes around
//! those calls and the flush attribution pass.

use crate::fixture::{btc_bounds, ingest_config, Fixture, CHECKPOINT_EVERY_S};
use crate::trace::{CountingSp, SpCounts};
use crate::Calls;
use press_core::query::QueryEngine;
use press_core::{nstd, reformat, tsnd, PathSample, Press, TrajectoryStore};
use press_serve::{Ack, IngestEngine, IngestStats};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What one ingest pass measured and published.
pub struct IngestPass {
    /// Fixes the engine accepted.
    pub accepted: u64,
    /// Seconds from the first push to the final committed checkpoint.
    pub wall_s: f64,
    /// Per-push ack latency in microseconds, in push order.
    pub push_us: Vec<f64>,
    /// Per-checkpoint latency in milliseconds (flush included unless
    /// the pass was traced, which flushes first as its own span).
    pub checkpoint_ms: Vec<f64>,
    /// The published corpus in canonical merged form.
    pub corpus: Vec<u8>,
    /// CRC-32 of `corpus`.
    pub digest: u32,
    /// The engine's counters at the end of the pass.
    pub stats: IngestStats,
}

impl IngestPass {
    /// Accepted fixes per wall-clock second.
    pub fn points_per_s(&self) -> f64 {
        self.accepted as f64 / self.wall_s
    }
}

/// The traced pass's per-call probes.
#[derive(Default)]
pub struct IngestProbe {
    /// Non-fsync pushes: count and summed nanoseconds.
    pub push_calls: u64,
    pub push_ns: u64,
    /// Pushes whose call advanced the owning shard's durable offset
    /// (each ran one group-commit fsync).
    pub fsync_calls: u64,
    pub fsync_ns: u64,
    /// Acks by kind: accepted (durable), journaled, quarantined,
    /// repaired.
    pub acks: [u64; 4],
    /// Journal bytes appended by pushes.
    pub wal_bytes: u64,
    /// Explicit `flush()` calls before each checkpoint.
    pub flush_ns: u64,
    /// `checkpoint()` after that flush (pack + write + manifest commit).
    pub checkpoint_ns: u64,
    pub checkpoints: u64,
    /// Corpus and journal bytes the checkpoints wrote.
    pub checkpoint_bytes: u64,
    /// Shard corpus files carried over by hard link instead of rewrite.
    pub shards_linked: u64,
    /// `finalize_all()` at the end of the stream.
    pub finalize_ns: u64,
    /// Every corpus shard file a checkpoint rewrote, as written — the
    /// input of the pack replay.
    pub rewritten: Vec<Vec<u8>>,
}

/// Pushes the fixture's stream through a fresh engine in a new
/// directory under `work` and publishes the corpus; with `probe`, also
/// records the per-call probes (and flushes explicitly before each
/// checkpoint so flush and commit are separate spans — the published
/// bytes are unchanged).
///
/// Pass directories are left for the caller to remove after the run:
/// deleting one just before the next pass would put the file system's
/// deferred freeing (discards on this kind of mount) inside that
/// pass's fsyncs.
pub fn run_pass(
    fx: &Fixture,
    press: &Press,
    threads: usize,
    work: &Path,
    calls: &mut Calls,
    mut probe: Option<&mut IngestProbe>,
) -> Result<IngestPass, String> {
    static PASSES: AtomicUsize = AtomicUsize::new(0);
    let dir = work.join(format!("ingest-{}", PASSES.fetch_add(1, Ordering::Relaxed)));
    let mut engine = IngestEngine::open(
        &dir,
        Arc::clone(&fx.matcher),
        press.reconfigured(press.config()),
        ingest_config(threads),
    )
    .map_err(|e| format!("engine open: {e}"))?;
    let mut push_us = Vec::with_capacity(fx.events.len());
    let mut checkpoint_ms = Vec::new();
    let mut next_checkpoint = fx.events.first().map_or(0.0, |e| e.1.t) + CHECKPOINT_EVERY_S;
    let t0 = Instant::now();
    for &(vehicle, sample) in &fx.events {
        if sample.t >= next_checkpoint {
            checkpoint(&mut engine, calls, &mut checkpoint_ms, probe.as_deref_mut());
            while sample.t >= next_checkpoint {
                next_checkpoint += CHECKPOINT_EVERY_S;
            }
        }
        let before = probe.as_ref().map(|_| {
            let k = engine.shard_of(vehicle);
            (
                k,
                engine.shard_durable_offset(k),
                engine.shard_wal_offset(k),
            )
        });
        let t = Instant::now();
        let ack = engine.push(vehicle, sample);
        let ns = t.elapsed().as_nanos() as u64;
        push_us.push(ns as f64 / 1e3);
        let Some(ack) = calls.record(ack) else {
            continue;
        };
        if let (Some(p), Some((shard, durable, wal))) = (probe.as_deref_mut(), before) {
            if engine.shard_durable_offset(shard) > durable {
                p.fsync_calls += 1;
                p.fsync_ns += ns;
            } else {
                p.push_calls += 1;
                p.push_ns += ns;
            }
            p.acks[match ack {
                Ack::Accepted { .. } => 0,
                Ack::Journaled { .. } => 1,
                Ack::Quarantined(_) => 2,
                Ack::Repaired => 3,
            }] += 1;
            p.wal_bytes += engine.shard_wal_offset(shard) - wal;
        }
    }
    let t = Instant::now();
    calls.record(engine.finalize_all());
    if let Some(p) = probe.as_deref_mut() {
        p.finalize_ns += t.elapsed().as_nanos() as u64;
    }
    checkpoint(&mut engine, calls, &mut checkpoint_ms, probe);
    let wall_s = t0.elapsed().as_secs_f64();
    let corpus = calls
        .record(engine.merged_corpus_bytes())
        .ok_or("merged corpus bytes failed")?;
    Ok(IngestPass {
        accepted: engine.stats().points_accepted,
        wall_s,
        push_us,
        checkpoint_ms,
        digest: press_store::crc32(&corpus),
        corpus,
        stats: engine.stats(),
    })
}

/// One periodic checkpoint. Untraced, it is timed whole. Traced, the
/// flush runs first as its own span, and afterwards each shard's
/// corpus file is sorted into hard-linked (same inode as before) or
/// rewritten (kept for the pack replay).
fn checkpoint(
    engine: &mut IngestEngine,
    calls: &mut Calls,
    checkpoint_ms: &mut Vec<f64>,
    probe: Option<&mut IngestProbe>,
) {
    let Some(p) = probe else {
        let t = Instant::now();
        calls.record(engine.checkpoint());
        checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        return;
    };
    let shards = engine.num_shards();
    let inode = |path: PathBuf| std::fs::metadata(path).ok().map(|m| (m.dev(), m.ino()));
    let before: Vec<_> = (0..shards)
        .map(|k| inode(engine.shard_corpus_path(k)))
        .collect();
    let t = Instant::now();
    calls.record(engine.flush());
    p.flush_ns += t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let committed = calls.record(engine.checkpoint()).is_some();
    let ns = t.elapsed().as_nanos() as u64;
    checkpoint_ms.push(ns as f64 / 1e6);
    p.checkpoint_ns += ns;
    p.checkpoints += 1;
    if !committed {
        return;
    }
    for (k, was) in before.into_iter().enumerate() {
        let path = engine.shard_corpus_path(k);
        if was.is_some() && inode(path.clone()) == was {
            p.shards_linked += 1;
        } else if let Ok(bytes) = std::fs::read(&path) {
            p.checkpoint_bytes += bytes.len() as u64;
            p.rewritten.push(bytes);
        }
        p.checkpoint_bytes += engine.shard_wal_offset(k);
    }
}

/// Re-packs every corpus shard file the traced pass's checkpoints
/// wrote — `TrajectoryStore::to_store_bytes_with_extra` on the same
/// trajectories and ingest section — and returns the summed pack time
/// in nanoseconds. Each re-pack must reproduce the written bytes.
pub fn replay_packs(
    press: &Press,
    rewritten: &[Vec<u8>],
    calls: &mut Calls,
) -> Result<u64, String> {
    let engine = QueryEngine::new(press.model());
    let block_size = ingest_config(1).block_size;
    let mut total_ns = 0u64;
    for bytes in rewritten {
        let store = calls
            .record(TrajectoryStore::from_store_bytes(bytes.clone()))
            .ok_or("a checkpointed shard file does not load")?;
        let trajs = calls
            .record(store.decode_all())
            .ok_or("a checkpointed shard file does not decode")?;
        let extra: Vec<(String, Vec<u8>)> = calls
            .record(store.extra_section("ingest"))
            .flatten()
            .map(|s| vec![("ingest".to_string(), s.to_vec())])
            .unwrap_or_default();
        let t = Instant::now();
        let packed = calls.record(TrajectoryStore::to_store_bytes_with_extra(
            &engine, &trajs, block_size, extra,
        ));
        total_ns += t.elapsed().as_nanos() as u64;
        if packed.as_deref() != Some(bytes.as_slice()) {
            return Err("re-packing a checkpointed shard did not reproduce its bytes".into());
        }
    }
    Ok(total_ns)
}

/// The flush attribution pass's totals.
#[derive(Default)]
pub struct Attribution {
    /// Segments matched and points in them.
    pub segments: u64,
    pub points: u64,
    /// Pieces compressed.
    pub pieces: u64,
    /// `MapMatcher::match_trajectory_salvaging`, summed.
    pub match_ns: u64,
    /// `reformat` + `Press::compress`, summed.
    pub compress_ns: u64,
    /// The SP calls made inside `compress_ns` (traced run only).
    pub compress_sp: SpCounts,
    /// Largest TSND (m) and NSTD (s) any piece's BTC output showed.
    pub max_tsnd: f64,
    pub max_nstd: f64,
}

/// Matches and compresses the fixture's per-vehicle segments one at a
/// time on this thread, timing the matcher apart from reformat +
/// compression, and checks two of the paper's guarantees on every
/// piece: BTC keeps TSND ≤ τ and NSTD ≤ η, and HSC is lossless (the
/// decompressed path equals the matched one). A violated guarantee is
/// an `Err`.
pub fn attribution_pass(
    fx: &Fixture,
    press: &Press,
    counter: Option<&CountingSp>,
    calls: &mut Calls,
) -> Result<Attribution, String> {
    let cfg = ingest_config(1);
    let bounds = btc_bounds();
    // Bounds hold exactly; the slack only absorbs rounding in the
    // metric's own interpolation.
    let slack = |bound: f64| bound * (1.0 + 1e-9) + 1e-9;
    let mut out = Attribution::default();
    for segment in fx.vehicle_segments() {
        out.segments += 1;
        out.points += segment.len() as u64;
        let t = Instant::now();
        let report = fx.matcher.match_trajectory_salvaging(
            &segment,
            cfg.max_lattice_work,
            cfg.max_salvage_splits,
        );
        out.match_ns += t.elapsed().as_nanos() as u64;
        for piece in report.pieces {
            let samples: Vec<PathSample> = piece
                .samples
                .iter()
                .map(|m| PathSample {
                    edge_idx: m.edge_idx,
                    frac: m.frac,
                    t: m.t,
                })
                .collect();
            let sp_before = counter.map(CountingSp::snapshot);
            let t = Instant::now();
            let compressed = reformat(fx.matcher.network(), piece.edges.clone(), &samples)
                .and_then(|traj| press.compress(&traj).map(|ct| (traj, ct)));
            out.compress_ns += t.elapsed().as_nanos() as u64;
            if let (Some(c), Some(before)) = (counter, sp_before) {
                out.compress_sp.add(c.snapshot().since(before));
            }
            // A piece the engine would drop (reformat or compression
            // error) is a dropped piece there too, not a failed call.
            let Ok((traj, ct)) = compressed else {
                continue;
            };
            out.pieces += 1;
            let d = tsnd(&traj.temporal.points, &ct.temporal.points);
            let n = nstd(&traj.temporal.points, &ct.temporal.points);
            out.max_tsnd = out.max_tsnd.max(d);
            out.max_nstd = out.max_nstd.max(n);
            if d > slack(bounds.tsnd) || n > slack(bounds.nstd) {
                return Err(format!(
                    "BTC bound violated: TSND {d} (τ {}) / NSTD {n} (η {})",
                    bounds.tsnd, bounds.nstd
                ));
            }
            let restored = calls
                .record(press.decompress(&ct))
                .ok_or("HSC decompression failed")?;
            if restored.path.edges != piece.edges {
                return Err(
                    "HSC is not lossless: decompressed path differs from matched path".into(),
                );
            }
        }
    }
    Ok(out)
}
