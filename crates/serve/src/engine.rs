//! The streaming ingest engine: N independent writer shards (vehicle-hash
//! routing) feeding the PRESS pipeline (match → reformat → HSC + BTC),
//! each behind its own crash-safe WAL.
//!
//! # Failure domains
//!
//! A failure domain is a **shard**, not the fleet. Each shard owns its
//! own CRC-framed journal (`ingest.<gen>.s<k>.wal`), its own
//! [`DurabilityPolicy`] accumulators, its own session map and share of
//! the memory budget, and its own [`IngestStats`]. A `StorageFull` /
//! sticky-I/O / corrupt-journal fault on shard *k* surfaces as
//! [`ServeError::ShardDegraded`] naming *k*; pushes routed to healthy
//! shards keep acking, the published corpus keeps serving, and the
//! degraded shard's rejections never leak into healthy shards'
//! counters. With `shards == 1` (the default) the engine behaves —
//! journal bytes included — exactly like the historical single-writer
//! engine, and errors stay un-wrapped.
//!
//! # Ack and durability contract
//!
//! [`IngestEngine::push`] vets each fix ([`Session::vet`]), journals the
//! accepted ones in the owning shard, and only then buffers them. The
//! configured [`DurabilityPolicy`] group-commits each shard's journal
//! independently (byte / stream-time thresholds), and acks never
//! overstate what happened: a fix is [`Ack::Accepted`] only when a
//! completed fsync covers its frame, and [`Ack::Journaled`] (written,
//! not yet synced) otherwise — the per-shard durability watermark says
//! which journaled offsets have become durable since. Rejected and
//! coalesced fixes are acked without journaling — replays reproduce the
//! identical decisions because validation only depends on journaled
//! state.
//!
//! # Determinism across shard counts
//!
//! The stream clock (`max_time`) is global; every shard-scoped decision
//! (idle sweeps, vetting) happens after catching the shard up to it, so
//! segmentation is independent of the shard count. Finalized pieces
//! carry a canonical merge key — `(vehicle, segment sequence, piece)` —
//! and the published corpus is built in key order, so its bytes are
//! identical for any shard count and any flush-worker count. Each
//! shard's journal carries `Clock` frames whenever the global clock
//! advanced past what the shard last journaled, so per-shard replay
//! reproduces the same sweeps without reading any other shard's journal.
//!
//! # Recovery
//!
//! [`IngestEngine::open`] reads the `MANIFEST` to find the committed
//! generation and shard count, then recovers every shard **in
//! parallel** on the shared work-steal loop: load the shard's
//! checkpointed corpus slice (`corpus.<gen>.s<k>.press`), replay its
//! journal through the exact same code path as live ingest, truncate
//! any torn tail. Artifacts from any other generation are uncommitted
//! checkpoint leftovers and are garbage-collected. The rebuilt engine
//! is in the same state a clean run would reach after pushing exactly
//! the acked prefix of each shard — the recovery proptests assert the
//! resulting corpora are byte-identical. Opening a directory with a
//! shard count other than the committed one is a typed
//! [`ServeError::Config`] (resharding is not supported). The engine
//! opens only what it writes: a pre-sharding directory (a version-1
//! manifest) and a shard corpus without its `ingest` section are
//! refused with a typed [`ServeError::Manifest`] before any byte of the
//! directory changes.
//!
//! # Incremental checkpoints
//!
//! [`IngestEngine::checkpoint`] flushes pending segments, then commits
//! the corpus shard files and the shrunk per-shard journals as **one
//! atomic set**: everything is written under the next generation number
//! and a single [`crate::manifest`] rename flips recovery to the new
//! set. A shard with no new finalized segments since the last
//! generation does not rewrite its corpus slice — the previous
//! generation's file is hard-linked under the next generation's name —
//! so checkpoint cost and crash blast-radius scale with *dirty* shards,
//! not corpus size. A crash at any byte of the checkpoint lands on a
//! complete generation: the old shard set with the full old journals,
//! or the new set with exactly its in-flight tails.

use crate::durability::DurabilityPolicy;
use crate::manifest;
use crate::session::{Disposition, QuarantineReason, Session, SessionPolicy};
use crate::wal::{Wal, WalError, WalRecord};
use press_core::reformat::{reformat, PathSample};
use press_core::spatial::online::OnlineSpCompressor;
use press_core::store::TrajectoryStore;
use press_core::temporal::online::OnlineBtc;
use press_core::types::TemporalSequence;
use press_core::{
    parallel::{work_steal_map, work_steal_map_eager},
    query::QueryEngine,
};
use press_core::{CompressedTrajectory, Press, PressError};
use press_matcher::{GpsSample, MapMatcher, MatcherError};
use press_network::Point;
use press_store::io::{self as store_io, IoBackend};
use press_store::{ByteReader, ByteWriter};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Errors surfaced by the ingest engine.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem failure outside the journal.
    Io(String),
    /// Journal failure (see [`WalError`]).
    Wal(WalError),
    /// Compression/query-layer failure.
    Press(PressError),
    /// Invalid engine configuration.
    Config(String),
    /// The checkpoint manifest is damaged or inconsistent with the
    /// directory contents.
    Manifest(String),
    /// The device is out of space (`ENOSPC`). Persistent — retrying
    /// cannot free the disk — so the engine refuses the write with
    /// state unchanged and keeps serving queries; ingest resumes once
    /// space returns.
    StorageFull(String),
    /// A transient I/O failure survived the whole retry budget. The
    /// rejected fix was not ingested; the engine state is unchanged
    /// and the caller may re-push later.
    Backpressure {
        /// The last underlying I/O error message.
        detail: String,
        /// Retries performed before giving up.
        retries: u32,
    },
    /// A shard-scoped durable write failed on a multi-shard engine:
    /// only `shard` is degraded — pushes routed to other shards keep
    /// acking and the published corpus keeps serving. `cause` is the
    /// underlying typed failure ([`ServeError::StorageFull`],
    /// [`ServeError::Backpressure`], …); the fix was **not** ingested
    /// and the shard stays recoverable. Single-shard engines surface
    /// the cause directly, un-wrapped.
    ShardDegraded {
        /// The shard whose journal refused the write.
        shard: usize,
        /// The underlying failure.
        cause: Box<ServeError>,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "ingest I/O error: {msg}"),
            ServeError::Wal(e) => write!(f, "{e}"),
            ServeError::Press(e) => write!(f, "{e}"),
            ServeError::Config(msg) => write!(f, "invalid ingest config: {msg}"),
            ServeError::Manifest(msg) => write!(f, "ingest manifest error: {msg}"),
            ServeError::StorageFull(msg) => write!(f, "ingest device out of space: {msg}"),
            ServeError::Backpressure { detail, retries } => {
                write!(f, "ingest backpressure after {retries} retries: {detail}")
            }
            ServeError::ShardDegraded { shard, cause } => {
                write!(f, "ingest shard {shard} degraded: {cause}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Unwraps [`ServeError::ShardDegraded`] layers down to the
    /// underlying failure (identity for every other variant).
    pub fn root_cause(&self) -> &ServeError {
        match self {
            ServeError::ShardDegraded { cause, .. } => cause.root_cause(),
            other => other,
        }
    }

    /// The degraded shard, when this error is shard-scoped.
    pub fn degraded_shard(&self) -> Option<usize> {
        match self {
            ServeError::ShardDegraded { shard, .. } => Some(*shard),
            _ => None,
        }
    }

    /// True when the root cause is [`ServeError::StorageFull`] —
    /// matches whether or not the error is wrapped in
    /// [`ServeError::ShardDegraded`].
    pub fn is_storage_full(&self) -> bool {
        matches!(self.root_cause(), ServeError::StorageFull(_))
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::StorageFull(msg) => ServeError::StorageFull(msg),
            other => ServeError::Wal(other),
        }
    }
}

impl From<PressError> for ServeError {
    fn from(e: PressError) -> Self {
        ServeError::Press(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        if store_io::is_storage_full(&e) {
            ServeError::StorageFull(e.to_string())
        } else {
            ServeError::Io(e.to_string())
        }
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Engine configuration. Compression parameters (θ, BTC bounds,
/// decomposer) come from the [`Press`] handle, not from here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Input-hardening policy applied per fix.
    pub policy: SessionPolicy,
    /// Seconds of *stream* time (not wall clock — recovery must replay
    /// identically) after which a silent session is finalized; `<= 0.0`
    /// disables idle finalization.
    pub idle_timeout: f64,
    /// Segment rollover size: a session's buffer is cut into a pending
    /// segment when it reaches this many points. `0` disables (unbounded
    /// sessions; not recommended for long-lived fleets).
    pub max_session_points: usize,
    /// Trajectories per block in the published corpus.
    pub block_size: usize,
    /// Worker threads for parallel segment matching in
    /// [`IngestEngine::flush`] and parallel shard recovery in
    /// [`IngestEngine::open`].
    pub threads: usize,
    /// Deterministic matcher budget (Viterbi lattice transitions); a
    /// segment whose lattice exceeds this is shed, not matched. `0`
    /// disables shedding.
    pub max_lattice_work: u64,
    /// Degraded-mode salvage: how many times a segment may be split on
    /// `BrokenChain`/`InvalidSample` before the remainder is dropped.
    pub max_salvage_splits: usize,
    /// Most recent quarantined fixes kept for inspection.
    pub quarantine_log_cap: usize,
    /// When each shard fsyncs its journal and how it retries transient
    /// write failures (see [`DurabilityPolicy`]); every shard runs its
    /// own independent instance of this policy. Only sync *timing* —
    /// never corpus bytes — depends on this.
    pub durability: DurabilityPolicy,
    /// Memory budget: total points buffered across live sessions,
    /// divided evenly across shards (each shard enforces
    /// `ceil(max_buffered_points / shards)`). When an accepted fix
    /// pushes a shard past its share, that shard's least-recently-active
    /// sessions are evicted (finalized to the pending queue — their
    /// points are already WAL-backed) until the budget holds. `0`
    /// disables. Eviction is driven purely by journaled state, so
    /// replay reproduces it exactly.
    pub max_buffered_points: usize,
    /// Memory budget: live session count (per-shard share, same LRU
    /// eviction). `0` disables.
    pub max_sessions: usize,
    /// Most recent evicted vehicle ids kept for inspection (the
    /// eviction-order determinism proptest reads this).
    pub eviction_log_cap: usize,
    /// Independent writer shards. Vehicles are routed by hash, and each
    /// shard owns its own journal, durability accumulators, sessions,
    /// memory-budget share, and stats — a disk fault degrades one
    /// shard, not the fleet. `1` (the default) reproduces the
    /// historical single-writer engine byte-for-byte. A directory is
    /// committed to its shard count at creation; reopening with a
    /// different count is a typed error.
    pub shards: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            policy: SessionPolicy::default(),
            idle_timeout: 600.0,
            max_session_points: 4096,
            block_size: 8,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            max_lattice_work: 2_000_000,
            max_salvage_splits: 8,
            quarantine_log_cap: 1024,
            durability: DurabilityPolicy::default(),
            max_buffered_points: 0,
            max_sessions: 0,
            eviction_log_cap: 1024,
            shards: 1,
        }
    }
}

/// The engine's answer for one pushed fix. Acks never lie about
/// durability: `Accepted` means the fix's frame is covered by a
/// completed fsync; `Journaled` means it is written but its covering
/// group-commit sync has not happened yet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ack {
    /// Fix journaled, buffered, **and durable**: a sync covering its
    /// frame has succeeded (`offset <= shard_durable_offset(shard)`),
    /// so the fix survives power loss, not just process death.
    Accepted { offset: u64 },
    /// Fix journaled and buffered, not yet synced. `offset` is the
    /// owning shard's journal length with this fix's frame included;
    /// the fix becomes durable when a later group-commit sync, explicit
    /// [`IngestEngine::sync`], or checkpoint advances that shard's
    /// durability watermark past it. A *process* crash cannot lose it
    /// (the bytes are in the OS page cache); power loss before the
    /// covering sync can.
    Journaled { offset: u64 },
    /// Harmless defect repaired per policy (duplicate coalesced); the
    /// fix is intentionally not journaled.
    Repaired,
    /// Fix rejected into quarantine with a typed reason.
    Quarantined(QuarantineReason),
}

impl Ack {
    /// The journal offset for ingested fixes (`Accepted`/`Journaled`),
    /// `None` for repaired or quarantined ones.
    pub fn offset(&self) -> Option<u64> {
        match *self {
            Ack::Accepted { offset } | Ack::Journaled { offset } => Some(offset),
            Ack::Repaired | Ack::Quarantined(_) => None,
        }
    }

    /// True when the fix was ingested (journaled and buffered),
    /// whether or not its covering sync has happened yet.
    pub fn is_ingested(&self) -> bool {
        self.offset().is_some()
    }
}

/// A quarantined fix, kept in a bounded log for observability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineRecord {
    /// Vehicle whose fix was rejected.
    pub vehicle: u64,
    /// The offending fix, verbatim.
    pub sample: GpsSample,
    /// Why it was rejected.
    pub reason: QuarantineReason,
}

/// Ingest counters. Kept **per shard** — a faulted shard's rejections
/// never appear in a healthy shard's counters
/// ([`IngestEngine::shard_stats`]); [`IngestEngine::stats`] is the
/// summed fleet-wide view. Observability only — counters are rebuilt
/// from the journal on recovery, so quarantine/repair counts (which are
/// never journaled) restart at zero after a crash.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestStats {
    /// Fixes accepted (journaled and buffered), including replayed ones.
    pub points_accepted: u64,
    /// Fixes repaired by coalescing.
    pub points_repaired: u64,
    /// Fixes quarantined, by [`QuarantineReason::index`].
    pub points_quarantined: [u64; 4],
    /// Segments finalized by the idle sweep.
    pub segments_idle: u64,
    /// Segments cut by the session-size rollover.
    pub segments_cap: u64,
    /// Segments finalized explicitly.
    pub segments_explicit: u64,
    /// Matched pieces compressed into the corpus.
    pub pieces_compressed: u64,
    /// Salvage splits performed across all flushed segments.
    pub salvage_splits: u64,
    /// Pieces dropped (unmatchable even after salvage).
    pub pieces_dropped: u64,
    /// Of the dropped pieces, how many were shed by the lattice budget.
    pub pieces_shed: u64,
    /// Successful journal fsyncs (group-commit, explicit, checkpoint).
    pub sync_calls: u64,
    /// Frames made durable by those syncs (group-commit batch total;
    /// average batch = `synced_frames / sync_calls`).
    pub synced_frames: u64,
    /// Largest single group-commit batch, in frames.
    pub max_sync_batch: u64,
    /// Transient I/O failures that were retried (append or sync).
    pub io_retries: u64,
    /// Sync attempts that failed even after retries (the engine stays
    /// up; the frames remain journaled-not-durable until a later sync
    /// succeeds).
    pub sync_failures: u64,
    /// Sessions evicted by the memory budget (LRU order).
    pub sessions_evicted: u64,
    /// Pushes refused with [`ServeError::Backpressure`].
    pub backpressure_rejections: u64,
    /// Pushes refused with [`ServeError::StorageFull`].
    pub storage_full_rejections: u64,
}

impl IngestStats {
    /// Total quarantined fixes across all reasons.
    pub fn total_quarantined(&self) -> u64 {
        self.points_quarantined.iter().sum()
    }

    /// Mean group-commit batch size in frames (0.0 before any sync).
    pub fn avg_sync_batch(&self) -> f64 {
        if self.sync_calls == 0 {
            0.0
        } else {
            self.synced_frames as f64 / self.sync_calls as f64
        }
    }

    /// Adds `other`'s counters into `self` (the summed fleet-wide view;
    /// `max_sync_batch` takes the max).
    pub fn accumulate(&mut self, other: &IngestStats) {
        self.points_accepted += other.points_accepted;
        self.points_repaired += other.points_repaired;
        for (mine, theirs) in self
            .points_quarantined
            .iter_mut()
            .zip(other.points_quarantined)
        {
            *mine += theirs;
        }
        self.segments_idle += other.segments_idle;
        self.segments_cap += other.segments_cap;
        self.segments_explicit += other.segments_explicit;
        self.pieces_compressed += other.pieces_compressed;
        self.salvage_splits += other.salvage_splits;
        self.pieces_dropped += other.pieces_dropped;
        self.pieces_shed += other.pieces_shed;
        self.sync_calls += other.sync_calls;
        self.synced_frames += other.synced_frames;
        self.max_sync_batch = self.max_sync_batch.max(other.max_sync_batch);
        self.io_retries += other.io_retries;
        self.sync_failures += other.sync_failures;
        self.sessions_evicted += other.sessions_evicted;
        self.backpressure_rejections += other.backpressure_rejections;
        self.storage_full_rejections += other.storage_full_rejections;
    }
}

/// What [`IngestEngine::open`] found on disk and rebuilt, summed across
/// all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryReport {
    /// Trajectories loaded from the checkpointed corpus shard files.
    pub corpus_trajectories: usize,
    /// `Point` frames replayed from the journals.
    pub replayed_points: u64,
    /// `Finalize`/`FinalizeAll` frames replayed.
    pub replayed_finalizes: u64,
    /// Bytes truncated from the journals' torn tails.
    pub torn_bytes: u64,
    /// True when no journal existed on any shard (fresh directory).
    pub wal_was_fresh: bool,
    /// Live sessions rebuilt by the replay.
    pub sessions_rebuilt: usize,
    /// Points sitting in session buffers or pending segments after the
    /// replay (accepted but not yet in the corpus).
    pub points_in_flight: usize,
}

/// Canonical merge key of one finalized piece: the published corpus is
/// built in `(rank, vehicle, seg, piece)` order, which is independent
/// of shard count, flush batching, and thread count. Everything cut by
/// this engine is `rank 1` with its real vehicle id, per-vehicle
/// segment sequence number, and salvage piece index. `rank 0` is read,
/// never written: a directory an older build migrated from the
/// pre-sharding layout keeps rank-0 keys that pin the trajectories it
/// inherited in their original position (their `vehicle` field is the
/// original index), ahead of everything this engine cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TrajKey {
    rank: u8,
    vehicle: u64,
    seg: u64,
    piece: u32,
}

/// Name of the corpus extra section carrying the merge keys and the
/// per-vehicle segment-sequence counters (see `encode_ingest_section`).
const INGEST_SECTION: &str = "ingest";
/// Version tag of the `ingest` section payload.
const INGEST_SECTION_VERSION: u32 = 1;

/// Serializes a shard's merge keys (aligned with its trajectory order)
/// and per-vehicle `next_seg` counters into the corpus `ingest`
/// section. Counters are sorted by vehicle so the bytes are canonical.
fn encode_ingest_section(keys: &[TrajKey], next_seg: &HashMap<u64, u64>) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(24 + keys.len() * 21 + next_seg.len() * 16);
    w.put_u32(INGEST_SECTION_VERSION);
    w.put_u64(keys.len() as u64);
    for k in keys {
        w.put_u8(k.rank);
        w.put_u64(k.vehicle);
        w.put_u64(k.seg);
        w.put_u32(k.piece);
    }
    let mut counters: Vec<(u64, u64)> = next_seg.iter().map(|(&v, &s)| (v, s)).collect();
    counters.sort_unstable();
    w.put_u64(counters.len() as u64);
    for (v, s) in counters {
        w.put_u64(v);
        w.put_u64(s);
    }
    w.into_bytes()
}

/// Parses the `ingest` section back. `n_trajs` is the number of
/// trajectories in the corpus file — the key list must match it exactly
/// or the sidecar is corrupt.
fn decode_ingest_section(
    bytes: &[u8],
    n_trajs: usize,
) -> Result<(Vec<TrajKey>, HashMap<u64, u64>)> {
    fn bad(e: impl fmt::Display) -> ServeError {
        ServeError::Manifest(format!("corpus ingest section: {e}"))
    }
    let mut r = ByteReader::new(bytes);
    let version = r.get_u32().map_err(bad)?;
    if version != INGEST_SECTION_VERSION {
        return Err(bad(format_args!("unsupported version {version}")));
    }
    let n = r.get_u64().map_err(bad)? as usize;
    if n != n_trajs {
        return Err(bad(format_args!(
            "key count {n} does not match corpus trajectory count {n_trajs}"
        )));
    }
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        let rank = r.get_u8().map_err(bad)?;
        if rank > 1 {
            return Err(bad(format_args!("unknown key rank {rank}")));
        }
        keys.push(TrajKey {
            rank,
            vehicle: r.get_u64().map_err(bad)?,
            seg: r.get_u64().map_err(bad)?,
            piece: r.get_u32().map_err(bad)?,
        });
    }
    // Each counter is 16 bytes; bound the count by what remains before
    // reserving for it.
    let m = r
        .get_len(r.remaining() / 16, "segment counter")
        .map_err(bad)?;
    let mut next_seg = HashMap::with_capacity(m);
    for _ in 0..m {
        let vehicle = r.get_u64().map_err(bad)?;
        let seg = r.get_u64().map_err(bad)?;
        next_seg.insert(vehicle, seg);
    }
    r.expect_end("ingest section").map_err(bad)?;
    Ok((keys, next_seg))
}

/// A finalized-but-unmatched segment awaiting [`IngestEngine::flush`],
/// already stamped with its canonical merge identity.
#[derive(Debug, Clone)]
struct PendingSegment {
    vehicle: u64,
    /// Per-vehicle segment sequence number, assigned at cut time.
    seg: u64,
    samples: Vec<GpsSample>,
}

/// Per-segment outcome from the parallel matching stage.
struct SegmentOutcome {
    compressed: Vec<CompressedTrajectory>,
    splits: u64,
    dropped: u64,
    shed: u64,
}

/// Maps a timestamp to a key that sorts like the timestamp (total order
/// over all non-NaN floats), for the idle-session index.
fn time_key(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// SplitMix64 finalizer — the vehicle-to-shard route. A fixed public
/// mix (not a sum or modulus of the raw id) so that dense fleet ids
/// spread evenly instead of striping.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-shard budget share: `ceil(total / shards)`, `0` stays disabled.
fn budget_share(total: usize, shards: usize) -> usize {
    if total == 0 {
        0
    } else {
        total.div_ceil(shards)
    }
}

/// One independent writer shard: its own journal, durability
/// accumulators, session map, memory-budget share, canonical-key
/// corpus slice, and counters. All stream-clock decisions take the
/// *global* clock as a parameter — the shard itself never owns time.
struct Shard {
    wal: Wal,
    /// Journal bytes appended since this shard's last successful fsync.
    unsynced_bytes: u64,
    /// Frames appended since this shard's last successful fsync.
    unsynced_frames: u64,
    /// Stream time of this shard's last successful fsync
    /// (`NEG_INFINITY` arms the interval trigger).
    last_sync_time: f64,
    /// Durability watermark: every frame of this shard's journal ending
    /// at or before this offset is covered by a completed fsync.
    durable_offset: u64,
    /// Highest stream time this shard's journal already encodes (via
    /// `Clock` frames or its own `Point` timestamps) — the clock a
    /// per-shard replay would have at the journal's tail.
    journaled_clock: f64,
    /// True when a pre-append sweep cut a session at a global clock the
    /// journal doesn't encode yet: the next append must be preceded by
    /// a `Clock` frame so replay performs the same cut before the same
    /// record. Sweeps that cut nothing need no frame — a replay clock
    /// lagging the global one sweeps the same (empty) set, because
    /// expiry is monotone in the clock. With one shard the global clock
    /// never outruns the journal, so the hot path never adds frames.
    needs_clock: bool,
    /// Points currently buffered across this shard's live sessions.
    buffered: usize,
    sessions: HashMap<u64, Session>,
    /// Sessions ordered by last-accepted timestamp: `(time_key(last.t),
    /// vehicle)`. Exactly the sessions with `last.is_some()`.
    idle: BTreeSet<(u64, u64)>,
    /// Per-vehicle segment sequence counters — the `seg` component of
    /// the canonical merge key. Persisted in the corpus `ingest`
    /// section so recovery numbers future segments exactly like an
    /// uninterrupted run.
    next_seg: HashMap<u64, u64>,
    pending: Vec<PendingSegment>,
    /// Canonical merge keys, aligned index-for-index with `finished`
    /// and kept sorted.
    keys: Vec<TrajKey>,
    /// This shard's slice of the compressed corpus, in key order.
    finished: Vec<CompressedTrajectory>,
    /// True when this shard cut a segment since the last checkpoint —
    /// its corpus slice (trajectories and/or counters) needs a rewrite;
    /// clean shards hard-link the previous generation's file instead.
    dirty: bool,
    /// This shard's share of [`IngestConfig::max_buffered_points`].
    budget_points: usize,
    /// This shard's share of [`IngestConfig::max_sessions`].
    budget_sessions: usize,
    stats: IngestStats,
}

impl Shard {
    fn new(
        wal: Wal,
        config: &IngestConfig,
        keys: Vec<TrajKey>,
        finished: Vec<CompressedTrajectory>,
        next_seg: HashMap<u64, u64>,
    ) -> Shard {
        Shard {
            wal,
            unsynced_bytes: 0,
            unsynced_frames: 0,
            last_sync_time: f64::NEG_INFINITY,
            durable_offset: 0,
            journaled_clock: f64::NEG_INFINITY,
            needs_clock: false,
            buffered: 0,
            sessions: HashMap::new(),
            idle: BTreeSet::new(),
            next_seg,
            pending: Vec::new(),
            keys,
            finished,
            dirty: false,
            budget_points: budget_share(config.max_buffered_points, config.shards),
            budget_sessions: budget_share(config.max_sessions, config.shards),
            stats: IngestStats::default(),
        }
    }

    fn vet(&self, policy: &SessionPolicy, vehicle: u64, sample: &GpsSample) -> Disposition {
        match self.sessions.get(&vehicle) {
            Some(sess) => sess.vet(policy, sample),
            None => Session::new(vehicle).vet(policy, sample),
        }
    }

    /// Queues a non-empty cut under the vehicle's next segment sequence
    /// number and marks the shard's corpus slice dirty.
    fn cut_segment(&mut self, vehicle: u64, samples: Vec<GpsSample>) {
        if samples.is_empty() {
            return;
        }
        let seg = self.next_seg.entry(vehicle).or_insert(0);
        let s = *seg;
        *seg += 1;
        self.dirty = true;
        self.pending.push(PendingSegment {
            vehicle,
            seg: s,
            samples,
        });
    }

    /// Applies an accepted fix: buffer, segment rollover, stream clock,
    /// idle sweep, memory budget. Shared verbatim by live ingest and
    /// journal replay; `clock` is the global stream clock live and the
    /// journal-local clock on replay.
    fn apply_accept(
        &mut self,
        config: &IngestConfig,
        vehicle: u64,
        sample: GpsSample,
        arrival: u64,
        clock: &mut f64,
        eviction_log: &mut VecDeque<u64>,
    ) {
        self.stats.points_accepted += 1;
        let sess = self
            .sessions
            .entry(vehicle)
            .or_insert_with(|| Session::new(vehicle));
        if let Some(prev) = sess.last {
            self.idle.remove(&(time_key(prev.t), vehicle));
        }
        sess.accept(sample, arrival);
        self.buffered += 1;
        self.idle.insert((time_key(sample.t), vehicle));
        if config.max_session_points > 0 && sess.samples.len() >= config.max_session_points {
            let samples = self
                .sessions
                .get_mut(&vehicle)
                .expect("session was just touched")
                .take_segment();
            self.buffered -= samples.len();
            self.cut_segment(vehicle, samples);
            self.stats.segments_cap += 1;
        }
        if sample.t > *clock {
            *clock = sample.t;
        }
        self.sweep_idle(config, *clock);
        self.enforce_memory_budget(config.eviction_log_cap, eviction_log);
    }

    /// Finalizes every session whose last accepted fix is more than
    /// `idle_timeout` behind `clock` (the global stream clock live, the
    /// journal-local clock on replay). Returns the number of sessions
    /// closed, so the caller can tell whether replay needs the sweep
    /// clock journaled.
    fn sweep_idle(&mut self, config: &IngestConfig, clock: f64) -> usize {
        if config.idle_timeout <= 0.0 {
            return 0;
        }
        let mut closed = 0;
        loop {
            let Some(&(_, vehicle)) = self.idle.iter().next() else {
                return closed;
            };
            let last_t = self.sessions[&vehicle]
                .last
                .expect("idle-indexed session has a last fix")
                .t;
            if last_t + config.idle_timeout >= clock {
                return closed;
            }
            self.close_session(vehicle);
            self.stats.segments_idle += 1;
            closed += 1;
        }
    }

    /// LRU eviction for this shard's memory-budget share: while either
    /// share is exceeded, the session with the oldest last-accepted fix
    /// is finalized to the pending queue — exactly what the idle sweep
    /// would eventually do, just earlier. Every input derives from
    /// journaled state, so replay evicts the same sessions in the same
    /// order, and eviction is invisible in the recovered corpus.
    fn enforce_memory_budget(&mut self, log_cap: usize, eviction_log: &mut VecDeque<u64>) {
        if self.budget_points == 0 && self.budget_sessions == 0 {
            return;
        }
        loop {
            let over_points = self.budget_points > 0 && self.buffered > self.budget_points;
            let over_sessions =
                self.budget_sessions > 0 && self.sessions.len() > self.budget_sessions;
            if !(over_points || over_sessions) {
                return;
            }
            // Every live session has a last fix and is idle-indexed, so
            // the loop always makes progress while anything is over.
            let Some(&(_, vehicle)) = self.idle.iter().next() else {
                return;
            };
            self.close_session(vehicle);
            self.stats.sessions_evicted += 1;
            if log_cap > 0 {
                if eviction_log.len() == log_cap {
                    eviction_log.pop_front();
                }
                eviction_log.push_back(vehicle);
            }
        }
    }

    /// Removes `vehicle`'s session, moving any buffered samples to the
    /// pending queue. Returns true when a session existed.
    fn close_session(&mut self, vehicle: u64) -> bool {
        let Some(mut sess) = self.sessions.remove(&vehicle) else {
            return false;
        };
        if let Some(last) = sess.last {
            self.idle.remove(&(time_key(last.t), vehicle));
        }
        let samples = sess.take_segment();
        self.buffered -= samples.len();
        self.cut_segment(vehicle, samples);
        true
    }

    fn apply_finalize(&mut self, vehicle: u64) -> bool {
        let closed = self.close_session(vehicle);
        if closed {
            self.stats.segments_explicit += 1;
        }
        closed
    }

    fn apply_finalize_all(&mut self) {
        // Deterministic order: first buffered arrival, vehicle id as the
        // tie-break (covers empty buffers) — identical live and on replay.
        let mut order: Vec<(u64, u64)> = self
            .sessions
            .values()
            .map(|s| (s.arrivals.first().copied().unwrap_or(u64::MAX), s.vehicle))
            .collect();
        order.sort_unstable();
        for (_, vehicle) in order {
            self.apply_finalize(vehicle);
        }
    }

    /// Re-establishes the sorted-by-key invariant after a flush
    /// appended new pieces.
    fn resort_finished(&mut self) {
        if self.keys.windows(2).all(|w| w[0] <= w[1]) {
            return;
        }
        let keys = std::mem::take(&mut self.keys);
        let finished = std::mem::take(&mut self.finished);
        let mut both: Vec<(TrajKey, CompressedTrajectory)> =
            keys.into_iter().zip(finished).collect();
        both.sort_unstable_by_key(|e| e.0);
        self.keys.reserve(both.len());
        self.finished.reserve(both.len());
        for (k, ct) in both {
            self.keys.push(k);
            self.finished.push(ct);
        }
    }

    /// The rebuilt journal for the next generation: clock, resumes
    /// (sessions whose state is only the last fix), then buffered
    /// points in arrival order.
    fn checkpoint_records(&self, clock: f64) -> Vec<WalRecord> {
        let mut records = Vec::new();
        if clock.is_finite() {
            records.push(WalRecord::Clock { t: clock });
        }
        let mut resumes: Vec<&Session> = self
            .sessions
            .values()
            .filter(|s| s.samples.is_empty() && s.last.is_some())
            .collect();
        resumes.sort_unstable_by_key(|s| s.vehicle);
        for sess in resumes {
            let last = sess.last.expect("filtered on last.is_some");
            records.push(WalRecord::Resume {
                vehicle: sess.vehicle,
                x: last.point.x,
                y: last.point.y,
                t: last.t,
            });
        }
        let mut points: Vec<(u64, u64, GpsSample)> = Vec::new();
        for sess in self.sessions.values() {
            for (&arrival, &sample) in sess.arrivals.iter().zip(&sess.samples) {
                points.push((arrival, sess.vehicle, sample));
            }
        }
        points.sort_unstable_by_key(|&(arrival, vehicle, _)| (arrival, vehicle));
        for (_, vehicle, sample) in points {
            records.push(WalRecord::Point {
                vehicle,
                x: sample.point.x,
                y: sample.point.y,
                t: sample.t,
            });
        }
        records
    }

    /// Accepted points not yet in the corpus slice.
    fn in_flight_points(&self) -> usize {
        self.sessions
            .values()
            .map(|s| s.samples.len())
            .sum::<usize>()
            + self.pending.iter().map(|p| p.samples.len()).sum::<usize>()
    }
}

/// One shard's recovered state plus the journal-local replay context
/// the facade folds into its globals.
struct ShardRecovery {
    shard: Shard,
    clock: f64,
    next_arrival: u64,
    evictions: VecDeque<u64>,
    replayed_points: u64,
    replayed_finalizes: u64,
    torn_bytes: u64,
    fresh: bool,
    corpus_trajectories: usize,
}

/// One shard's corpus slice: trajectories, canonical merge keys, and
/// per-vehicle segment counters.
type ShardCorpus = (Vec<TrajKey>, Vec<CompressedTrajectory>, HashMap<u64, u64>);

/// Loads one shard's corpus slice. Every shard corpus carries the
/// `ingest` section; one without it is refused.
fn load_shard_corpus(path: &Path) -> Result<ShardCorpus> {
    if !path.exists() {
        return Ok((Vec::new(), Vec::new(), HashMap::new()));
    }
    // Mapped open: recovery walks the block directory without pulling
    // the whole checkpoint into memory first; each block is faulted in
    // (and CRC-checked) once as `decode_all` visits it, and the answers
    // are bit-identical to an owned open.
    let store = TrajectoryStore::open_mapped(path)?;
    let finished = store.decode_all()?;
    let bytes = store.extra_section(INGEST_SECTION)?.ok_or_else(|| {
        ServeError::Manifest(format!(
            "corpus {} has no `{INGEST_SECTION}` section",
            path.display()
        ))
    })?;
    let (keys, next_seg) = decode_ingest_section(bytes, finished.len())?;
    Ok((keys, finished, next_seg))
}

/// Recovers shard `k` of a committed generation: corpus slice first,
/// then a full journal replay through the live ingest path with a
/// journal-local clock and arrival counter.
fn recover_shard(
    dir: &Path,
    config: &IngestConfig,
    io: Arc<dyn IoBackend>,
    generation: u64,
    k: usize,
) -> Result<ShardRecovery> {
    let corpus_path = dir.join(manifest::corpus_shard_file_name(generation, k as u32));
    let (keys, finished, next_seg) = load_shard_corpus(&corpus_path)?;
    let corpus_trajectories = finished.len();
    let wal_path = dir.join(manifest::wal_shard_file_name(generation, k as u32));
    let (wal, replay) = Wal::open_with(&wal_path, io)?;
    let mut shard = Shard::new(wal, config, keys, finished, next_seg);
    let mut clock = f64::NEG_INFINITY;
    let mut next_arrival = 0u64;
    let mut evictions = VecDeque::new();
    let mut replayed_points = 0u64;
    let mut replayed_finalizes = 0u64;
    for rec in &replay.records {
        match *rec {
            WalRecord::Point { vehicle, x, y, t } => {
                replayed_points += 1;
                let sample = GpsSample {
                    point: Point::new(x, y),
                    t,
                };
                // Catch the shard up to the clock this frame was
                // appended under (live ingest pre-sweeps with the
                // global clock, which the preceding `Clock` frames
                // reproduce here), then re-apply. Only accepted fixes
                // were journaled, and validation depends only on
                // journaled state, so the replayed verdict is Accept
                // again by construction.
                shard.sweep_idle(config, clock);
                debug_assert_eq!(
                    shard.vet(&config.policy, vehicle, &sample),
                    Disposition::Accept,
                    "journaled fix must replay as accepted"
                );
                let arrival = next_arrival;
                next_arrival += 1;
                shard.apply_accept(config, vehicle, sample, arrival, &mut clock, &mut evictions);
            }
            WalRecord::Finalize { vehicle } => {
                replayed_finalizes += 1;
                shard.sweep_idle(config, clock);
                shard.apply_finalize(vehicle);
            }
            WalRecord::FinalizeAll => {
                replayed_finalizes += 1;
                shard.sweep_idle(config, clock);
                shard.apply_finalize_all();
            }
            WalRecord::Resume { vehicle, x, y, t } => {
                let mut sess = Session::new(vehicle);
                sess.last = Some(GpsSample {
                    point: Point::new(x, y),
                    t,
                });
                shard.idle.insert((time_key(t), vehicle));
                shard.sessions.insert(vehicle, sess);
            }
            WalRecord::Clock { t } => {
                if t > clock {
                    clock = t;
                }
            }
        }
    }
    // Everything replayed was read back from the device, so the whole
    // journal is the durability watermark; the group-commit
    // accumulators start empty, and the journal-local clock is exactly
    // what the journal encodes.
    shard.durable_offset = shard.wal.offset();
    shard.unsynced_bytes = 0;
    shard.unsynced_frames = 0;
    shard.last_sync_time = f64::NEG_INFINITY;
    shard.journaled_clock = clock;
    Ok(ShardRecovery {
        clock,
        next_arrival,
        evictions,
        replayed_points,
        replayed_finalizes,
        torn_bytes: replay.torn_bytes,
        fresh: replay.fresh,
        corpus_trajectories,
        shard,
    })
}

/// Multi-vehicle streaming ingest over one directory, sharded into
/// independent failure domains. See the module docs for the
/// ack/durability, degraded-mode, recovery, and checkpoint contracts.
pub struct IngestEngine {
    dir: PathBuf,
    config: IngestConfig,
    matcher: Arc<MapMatcher>,
    press: Press,
    /// The storage backend every durable write goes through (real
    /// filesystem in production, fault injector in tests).
    io: Arc<dyn IoBackend>,
    /// Committed checkpoint generation — names the live corpus/journal
    /// shard set (see [`crate::manifest`]).
    generation: u64,
    shards: Vec<Shard>,
    /// Largest timestamp ever accepted on any shard — the observed
    /// stream clock that drives idle sweeps (never wall clock: replay
    /// must be identical).
    max_time: f64,
    /// Global arrival counter (each accepted fix gets a unique,
    /// stream-ordered sequence number; shard journals compact these to
    /// local order on recovery, which preserves every per-shard
    /// relative order).
    arrival_seq: u64,
    /// Ring of the most recently evicted vehicles (capacity
    /// `config.eviction_log_cap`), oldest first; rebuilt shard-major on
    /// recovery.
    eviction_log: VecDeque<u64>,
    /// Ring of the most recent quarantined fixes (capacity
    /// `config.quarantine_log_cap`), oldest first.
    quarantine: VecDeque<QuarantineRecord>,
    recovery: RecoveryReport,
}

impl IngestEngine {
    /// Opens (or creates) the ingest directory, recovering any previous
    /// state: each shard's corpus slice first, then a full journal
    /// replay through the live ingest path — all shards in parallel.
    pub fn open(
        dir: &Path,
        matcher: Arc<MapMatcher>,
        press: Press,
        config: IngestConfig,
    ) -> Result<IngestEngine> {
        Self::open_with_io(dir, matcher, press, config, store_io::real_io())
    }

    /// [`IngestEngine::open`] through an explicit
    /// [`press_store::IoBackend`]: every durable write — journal
    /// appends and fsyncs, checkpoint artifacts, manifest commits —
    /// goes through `io`, so disk faults are injectable. Recovery
    /// reads stay direct (read-path corruption already has its own
    /// typed taxonomy).
    pub fn open_with_io(
        dir: &Path,
        matcher: Arc<MapMatcher>,
        press: Press,
        config: IngestConfig,
        io: Arc<dyn IoBackend>,
    ) -> Result<IngestEngine> {
        if config.block_size == 0 {
            return Err(ServeError::Config("block_size must be at least 1".into()));
        }
        if config.shards == 0 {
            return Err(ServeError::Config("shards must be at least 1".into()));
        }
        if config.idle_timeout.is_nan() {
            return Err(ServeError::Config("idle_timeout must not be NaN".into()));
        }
        config.durability.validate().map_err(ServeError::Config)?;
        std::fs::create_dir_all(dir)?;
        let generation =
            match manifest::read(dir).map_err(|e| ServeError::Manifest(e.to_string()))? {
                Some(m) => {
                    if m.shards as usize != config.shards {
                        return Err(ServeError::Config(format!(
                            "directory is committed with {} ingest shards but the \
                             config asks for {}; resharding is not supported",
                            m.shards, config.shards
                        )));
                    }
                    // Uncommitted leftovers of a checkpoint that crashed
                    // before its manifest rename (or a superseded generation
                    // whose cleanup was interrupted) are garbage.
                    manifest::gc(dir, m.generation)?;
                    m.generation
                }
                None => {
                    // Artifacts without a manifest mean the manifest was
                    // deleted or the directory predates this format: refuse
                    // rather than silently restarting from nothing.
                    if manifest::has_artifacts(dir)? {
                        return Err(ServeError::Manifest(
                            "ingest artifacts present but MANIFEST is missing".into(),
                        ));
                    }
                    manifest::commit_with(io.as_ref(), dir, 0, config.shards as u32)
                        .map_err(|e| ServeError::Manifest(e.to_string()))?;
                    0
                }
            };
        // All shard journals replay in parallel on the shared
        // work-steal loop (the eager variant: a handful of shards is
        // exactly the few-heavy-items shape the small-input shortcut
        // would serialize).
        let shard_ids: Vec<usize> = (0..config.shards).collect();
        let recovered: Vec<Result<ShardRecovery>> =
            work_steal_map_eager(&shard_ids, config.threads, |_, &k| {
                recover_shard(dir, &config, io.clone(), generation, k)
            });
        let mut shards = Vec::with_capacity(config.shards);
        let mut max_time = f64::NEG_INFINITY;
        let mut arrival_seq = 0u64;
        let mut eviction_log = VecDeque::new();
        let mut report = RecoveryReport {
            wal_was_fresh: true,
            ..RecoveryReport::default()
        };
        for r in recovered {
            let r = r?;
            if r.clock > max_time {
                max_time = r.clock;
            }
            arrival_seq = arrival_seq.max(r.next_arrival);
            report.corpus_trajectories += r.corpus_trajectories;
            report.replayed_points += r.replayed_points;
            report.replayed_finalizes += r.replayed_finalizes;
            report.torn_bytes += r.torn_bytes;
            report.wal_was_fresh &= r.fresh;
            report.sessions_rebuilt += r.shard.sessions.len();
            for vehicle in r.evictions {
                if config.eviction_log_cap > 0 {
                    if eviction_log.len() == config.eviction_log_cap {
                        eviction_log.pop_front();
                    }
                    eviction_log.push_back(vehicle);
                }
            }
            shards.push(r.shard);
        }
        report.points_in_flight = shards.iter().map(Shard::in_flight_points).sum();
        Ok(IngestEngine {
            dir: dir.to_path_buf(),
            config,
            matcher,
            press,
            io,
            generation,
            shards,
            max_time,
            arrival_seq,
            eviction_log,
            quarantine: VecDeque::new(),
            recovery: report,
        })
    }

    /// The shard owning `vehicle` (SplitMix64 of the id, mod the shard
    /// count) — stable for the directory's lifetime.
    pub fn shard_of(&self, vehicle: u64) -> usize {
        (splitmix64(vehicle) % self.config.shards as u64) as usize
    }

    /// Wraps a shard-scoped failure for multi-shard engines;
    /// single-shard engines keep the historical un-wrapped errors.
    fn degrade(shards: usize, shard: usize, e: ServeError) -> ServeError {
        if shards > 1 {
            ServeError::ShardDegraded {
                shard,
                cause: Box::new(e),
            }
        } else {
            e
        }
    }

    /// Catches shard `k` up to the global stream clock before any
    /// decision about its sessions. On a single-shard engine the clock
    /// cannot have moved since the shard's own last sweep, so this is a
    /// no-op there — which is exactly why sharded segmentation matches
    /// the single-writer engine's.
    fn presweep(&mut self, k: usize) {
        let clock = self.max_time;
        if self.shards[k].sweep_idle(&self.config, clock) > 0
            && clock > self.shards[k].journaled_clock
        {
            // The cut happened at a clock the shard's journal doesn't
            // encode; the next append must journal it first. Sticky
            // until then: a quarantined push between here and the next
            // accepted one writes no record of its own.
            self.shards[k].needs_clock = true;
        }
    }

    fn presweep_all(&mut self) {
        for k in 0..self.shards.len() {
            self.presweep(k);
        }
    }

    /// Appends one record to shard `k`'s journal, first journaling a
    /// `Clock` frame when a pre-append sweep cut sessions at a global
    /// clock the journal doesn't encode — per-shard replay then
    /// reproduces the same cuts, at the same point, without reading any
    /// other shard's journal. Sweeps that cut nothing need no frame
    /// (expiry is monotone in the clock, so a lagging replay clock
    /// sweeps the same empty set), which keeps the frame overhead
    /// proportional to actual session churn, not to the push rate.
    fn shard_append(&mut self, k: usize, rec: &WalRecord) -> Result<u64> {
        if self.shards[k].needs_clock {
            if self.max_time.is_finite() && self.max_time > self.shards[k].journaled_clock {
                let t = self.max_time;
                self.append_retrying(k, &WalRecord::Clock { t })?;
                self.shards[k].journaled_clock = t;
            }
            self.shards[k].needs_clock = false;
        }
        let offset = self.append_retrying(k, rec)?;
        if let WalRecord::Point { t, .. } = *rec {
            let shard = &mut self.shards[k];
            if t > shard.journaled_clock {
                shard.journaled_clock = t;
            }
        }
        Ok(offset)
    }

    /// Appends one record to shard `k` with the policy's retry/backoff,
    /// classifying failures: out-of-space is persistent (no retry,
    /// typed [`ServeError::StorageFull`]); other I/O errors are
    /// transient and retried with doubling backoff before surfacing as
    /// [`ServeError::Backpressure`]. On success the shard's
    /// group-commit accumulators advance. Rejections are counted on the
    /// failing shard only.
    fn append_retrying(&mut self, k: usize, rec: &WalRecord) -> Result<u64> {
        let policy = self.config.durability;
        let shard = &mut self.shards[k];
        let mut attempt = 0u32;
        loop {
            let before = shard.wal.offset();
            match shard.wal.append(rec) {
                Ok(offset) => {
                    shard.unsynced_bytes += offset - before;
                    shard.unsynced_frames += 1;
                    return Ok(offset);
                }
                Err(WalError::StorageFull(msg)) => {
                    shard.stats.storage_full_rejections += 1;
                    return Err(ServeError::StorageFull(msg));
                }
                Err(WalError::Io(detail)) => {
                    if attempt >= policy.max_retries {
                        shard.stats.backpressure_rejections += 1;
                        return Err(ServeError::Backpressure {
                            detail,
                            retries: attempt,
                        });
                    }
                    attempt += 1;
                    shard.stats.io_retries += 1;
                    Self::backoff(&policy, attempt);
                }
                Err(other) => return Err(other.into()),
            }
        }
    }

    /// Sleeps the policy's doubling backoff before retry `attempt`.
    /// Wall-clock sleep is safe here: it delays the retry but decides
    /// nothing — all decisions key off journaled stream state.
    fn backoff(policy: &DurabilityPolicy, attempt: u32) {
        let ms = policy.backoff_ms(attempt);
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    /// Ingests one fix, routed to its owning shard. Accepted fixes are
    /// journaled *before* they are buffered; the configured
    /// [`DurabilityPolicy`] decides when that shard's journal is
    /// fsynced (group commit), and the ack reports honestly:
    /// [`Ack::Accepted`] only when the fix's frame is already covered
    /// by a completed sync, [`Ack::Journaled`] otherwise.
    ///
    /// An `Err` means the fix was **not** ingested and engine state is
    /// unchanged: [`ServeError::StorageFull`] for out-of-space
    /// (persistent — re-push after freeing space),
    /// [`ServeError::Backpressure`] when a transient failure survived
    /// the retry budget — both wrapped in
    /// [`ServeError::ShardDegraded`] on a multi-shard engine, where
    /// they degrade **only the owning shard**: pushes routed elsewhere
    /// keep acking and the engine keeps serving queries either way.
    pub fn push(&mut self, vehicle: u64, sample: GpsSample) -> Result<Ack> {
        let k = self.shard_of(vehicle);
        self.presweep(k);
        match self.shards[k].vet(&self.config.policy, vehicle, &sample) {
            Disposition::Accept => {
                let offset = self
                    .shard_append(
                        k,
                        &WalRecord::Point {
                            vehicle,
                            x: sample.point.x,
                            y: sample.point.y,
                            t: sample.t,
                        },
                    )
                    .map_err(|e| Self::degrade(self.config.shards, k, e))?;
                let arrival = self.arrival_seq;
                self.arrival_seq += 1;
                let mut clock = self.max_time;
                self.shards[k].apply_accept(
                    &self.config,
                    vehicle,
                    sample,
                    arrival,
                    &mut clock,
                    &mut self.eviction_log,
                );
                self.max_time = clock;
                // A failed group sync is absorbed here (counted in the
                // shard's `sync_failures`): the frame IS journaled, so
                // the honest answer is Journaled, not an error.
                self.maybe_group_sync(k);
                if offset <= self.shards[k].durable_offset {
                    Ok(Ack::Accepted { offset })
                } else {
                    Ok(Ack::Journaled { offset })
                }
            }
            Disposition::Coalesce => {
                let shard = &mut self.shards[k];
                if let Some(sess) = shard.sessions.get_mut(&vehicle) {
                    sess.repaired += 1;
                }
                shard.stats.points_repaired += 1;
                Ok(Ack::Repaired)
            }
            Disposition::Quarantine(reason) => {
                let shard = &mut self.shards[k];
                if let Some(sess) = shard.sessions.get_mut(&vehicle) {
                    sess.quarantined[reason.index()] += 1;
                }
                shard.stats.points_quarantined[reason.index()] += 1;
                if self.config.quarantine_log_cap > 0 {
                    if self.quarantine.len() == self.config.quarantine_log_cap {
                        self.quarantine.pop_front();
                    }
                    self.quarantine.push_back(QuarantineRecord {
                        vehicle,
                        sample,
                        reason,
                    });
                }
                Ok(Ack::Quarantined(reason))
            }
        }
    }

    /// Issues shard `k`'s group-commit fsync if a policy threshold has
    /// tripped. Failures are absorbed into the shard's `sync_failures`
    /// — the unsynced frames stay journaled and the next trigger
    /// retries the sync.
    fn maybe_group_sync(&mut self, k: usize) {
        let policy = self.config.durability;
        let max_time = self.max_time;
        // Scale the timed trigger by the shard count so the *engine's*
        // fsync rate — not each shard's — is what the policy names: N
        // shards each syncing every N·interval of stream time issue the
        // same number of fsyncs as one shard syncing every interval.
        // The per-shard journaled-but-not-durable window widens to
        // N·sync_interval accordingly; at one shard nothing changes.
        let interval = policy.sync_interval * self.config.shards as f64;
        let tripped = {
            let shard = &mut self.shards[k];
            if shard.unsynced_frames == 0 {
                return;
            }
            if interval > 0.0 && shard.last_sync_time == f64::NEG_INFINITY && max_time.is_finite() {
                // Arm the interval trigger on the first observed stream
                // time; the first timed sync lands one interval later.
                shard.last_sync_time = max_time;
            }
            let by_bytes = policy.sync_bytes > 0 && shard.unsynced_bytes >= policy.sync_bytes;
            let by_time = interval > 0.0
                && shard.last_sync_time.is_finite()
                && max_time - shard.last_sync_time >= interval;
            by_bytes || by_time
        };
        if tripped && self.sync_shard_retrying(k).is_err() {
            self.shards[k].stats.sync_failures += 1;
        }
    }

    /// Fsyncs shard `k`'s journal with the policy's retry/backoff; on
    /// success advances that shard's durability watermark and
    /// group-commit counters.
    fn sync_shard_retrying(&mut self, k: usize) -> Result<()> {
        let policy = self.config.durability;
        let max_time = self.max_time;
        let shard = &mut self.shards[k];
        let mut attempt = 0u32;
        loop {
            match shard.wal.sync() {
                Ok(()) => {
                    shard.stats.sync_calls += 1;
                    shard.stats.synced_frames += shard.unsynced_frames;
                    shard.stats.max_sync_batch =
                        shard.stats.max_sync_batch.max(shard.unsynced_frames);
                    shard.unsynced_bytes = 0;
                    shard.unsynced_frames = 0;
                    shard.durable_offset = shard.wal.offset();
                    if max_time.is_finite() {
                        shard.last_sync_time = max_time;
                    }
                    return Ok(());
                }
                Err(WalError::StorageFull(msg)) => {
                    return Err(ServeError::StorageFull(msg));
                }
                Err(WalError::Io(detail)) => {
                    if attempt >= policy.max_retries {
                        return Err(ServeError::Backpressure {
                            detail,
                            retries: attempt,
                        });
                    }
                    attempt += 1;
                    shard.stats.io_retries += 1;
                    Self::backoff(&policy, attempt);
                }
                Err(other) => return Err(other.into()),
            }
        }
    }

    /// Explicitly ends `vehicle`'s trajectory (journaled in its owning
    /// shard, so recovery reproduces the same segmentation). Returns
    /// true when a live session was closed.
    pub fn finalize(&mut self, vehicle: u64) -> Result<bool> {
        let k = self.shard_of(vehicle);
        self.presweep(k);
        if !self.shards[k].sessions.contains_key(&vehicle) {
            return Ok(false);
        }
        self.shard_append(k, &WalRecord::Finalize { vehicle })
            .map_err(|e| Self::degrade(self.config.shards, k, e))?;
        Ok(self.shards[k].apply_finalize(vehicle))
    }

    /// Explicitly ends every live trajectory (journaled per shard, in
    /// shard order). On a multi-shard engine a failing shard surfaces
    /// as [`ServeError::ShardDegraded`] with shards before it already
    /// finalized and shards after it untouched (their sessions stay
    /// live; call again once the shard heals).
    pub fn finalize_all(&mut self) -> Result<()> {
        self.presweep_all();
        for k in 0..self.shards.len() {
            if self.shards[k].sessions.is_empty() {
                continue;
            }
            self.shard_append(k, &WalRecord::FinalizeAll)
                .map_err(|e| Self::degrade(self.config.shards, k, e))?;
            self.shards[k].apply_finalize_all();
        }
        Ok(())
    }

    /// Matches and compresses all pending segments from every shard (in
    /// parallel across `config.threads`, order-preserving), appending
    /// the results to each owning shard's corpus slice under their
    /// canonical merge keys. Returns the number of pieces compressed.
    ///
    /// The journals are deliberately *not* trimmed here: flushed
    /// segments stay replayable until [`IngestEngine::checkpoint`]
    /// publishes them.
    pub fn flush(&mut self) -> Result<usize> {
        self.presweep_all();
        let mut tagged: Vec<(usize, PendingSegment)> = Vec::new();
        for (k, shard) in self.shards.iter_mut().enumerate() {
            tagged.extend(shard.pending.drain(..).map(|seg| (k, seg)));
        }
        if tagged.is_empty() {
            return Ok(0);
        }
        // Canonical work order: the per-segment outcomes are
        // deterministic, so this only pins scheduling; the corpus order
        // comes from the keys.
        tagged.sort_by_key(|(_, seg)| (seg.vehicle, seg.seg));
        let matcher = Arc::clone(&self.matcher);
        let model = self.press.model();
        let press_config = self.press.config();
        let max_work = self.config.max_lattice_work;
        let max_splits = self.config.max_salvage_splits;
        let outcomes: Vec<SegmentOutcome> =
            work_steal_map(&tagged, self.config.threads, |_, item| {
                let seg = &item.1;
                let report = matcher.match_trajectory_salvaging(&seg.samples, max_work, max_splits);
                let mut out = SegmentOutcome {
                    compressed: Vec::with_capacity(report.pieces.len()),
                    splits: report.splits as u64,
                    dropped: 0,
                    shed: 0,
                };
                for err in &report.dropped {
                    out.dropped += 1;
                    if matches!(err, MatcherError::BudgetExceeded { .. }) {
                        out.shed += 1;
                    }
                }
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
                    let compressed = reformat(matcher.network(), piece.edges, &path_samples)
                        .and_then(|traj| {
                            // Streaming form of `Press::compress`: online SP
                            // reduction + `encode_sp_form`, online BTC. The
                            // chunking proptests pin these bit-identical to
                            // the batch pipeline.
                            let mut spc = OnlineSpCompressor::new(Arc::clone(model.sp()));
                            let mut sp_form = Vec::with_capacity(traj.path.edges.len());
                            for &e in &traj.path.edges {
                                sp_form.extend(spc.push(e));
                            }
                            sp_form.extend(spc.finish());
                            let spatial =
                                model.encode_sp_form(&sp_form, press_config.decomposer)?;
                            let mut btc = OnlineBtc::new(press_config.bounds);
                            let mut kept = Vec::with_capacity(traj.temporal.len());
                            for &p in &traj.temporal.points {
                                kept.extend(btc.push(p));
                            }
                            kept.extend(btc.finish());
                            Ok(CompressedTrajectory {
                                spatial,
                                temporal: TemporalSequence::new_unchecked(kept),
                            })
                        });
                    match compressed {
                        Ok(ct) => out.compressed.push(ct),
                        Err(_) => out.dropped += 1,
                    }
                }
                out
            });
        let mut pieces = 0usize;
        for ((k, seg), out) in tagged.into_iter().zip(outcomes) {
            let shard = &mut self.shards[k];
            pieces += out.compressed.len();
            shard.stats.pieces_compressed += out.compressed.len() as u64;
            shard.stats.salvage_splits += out.splits;
            shard.stats.pieces_dropped += out.dropped;
            shard.stats.pieces_shed += out.shed;
            for (piece, ct) in out.compressed.into_iter().enumerate() {
                shard.keys.push(TrajKey {
                    rank: 1,
                    vehicle: seg.vehicle,
                    seg: seg.seg,
                    piece: piece as u32,
                });
                shard.finished.push(ct);
            }
        }
        for shard in &mut self.shards {
            shard.resort_finished();
        }
        Ok(pieces)
    }

    /// Flushes, then commits the published corpus shard files and the
    /// per-shard journals — each shrunk down to just its in-flight
    /// state — as **one atomic set**: everything is written under the
    /// next generation number and flipped live by a single manifest
    /// rename (see [`crate::manifest`]), so a crash at any byte of the
    /// checkpoint recovers a consistent generation. **Incremental**: a
    /// shard that cut no segment since the last checkpoint hard-links
    /// its previous corpus file instead of rewriting it, so cost scales
    /// with dirty shards. After a checkpoint, recovery cost is
    /// proportional to the in-flight points, not the history. Returns
    /// the number of trajectories in the corpus.
    pub fn checkpoint(&mut self) -> Result<usize> {
        self.flush()?;
        let next = self.generation + 1;
        let query = QueryEngine::new(self.press.model());
        for k in 0..self.shards.len() {
            let next_path = self
                .dir
                .join(manifest::corpus_shard_file_name(next, k as u32));
            let prev_path = self.shard_corpus_path(k);
            let shard = &self.shards[k];
            if shard.dirty || !prev_path.exists() {
                let extra = vec![(
                    INGEST_SECTION.to_string(),
                    encode_ingest_section(&shard.keys, &shard.next_seg),
                )];
                let bytes = TrajectoryStore::to_store_bytes_with_extra(
                    &query,
                    &shard.finished,
                    self.config.block_size,
                    extra,
                )?;
                // The generation-stamped name is invisible to recovery
                // until the manifest commit; the atomic write
                // additionally keeps a faulted checkpoint from leaving a
                // half-written artifact under a name a *later*
                // checkpoint could collide with.
                store_io::atomic_write_file(self.io.as_ref(), &next_path, &bytes)
                    .map_err(|e| Self::degrade(self.config.shards, k, e.into()))?;
            } else {
                // Clean shard: the previous generation's file *is* the
                // next one — link it under the new name (a leftover from
                // an uncommitted checkpoint may occupy it). Generation GC
                // only ever removes names, so the shared inode lives
                // until the last generation referencing it is collected.
                let _ = self.io.remove_file(&next_path);
                self.io
                    .hard_link(&prev_path, &next_path)
                    .map_err(|e| Self::degrade(self.config.shards, k, e.into()))?;
            }
        }
        let max_time = self.max_time;
        let mut new_wals = Vec::with_capacity(self.shards.len());
        for k in 0..self.shards.len() {
            let records = self.shards[k].checkpoint_records(max_time);
            let wal = Wal::create_with(
                &self.dir.join(manifest::wal_shard_file_name(next, k as u32)),
                &records,
                self.io.clone(),
            )
            .map_err(|e| Self::degrade(self.config.shards, k, e.into()))?;
            new_wals.push(wal);
        }
        // The commit point: one atomic rename flips recovery from the
        // old shard set to the new one. A typed failure anywhere up to
        // here leaves the engine on its old generation, old journals,
        // fully consistent — the uncommitted new-generation files are
        // GC'd later.
        manifest::commit_with(self.io.as_ref(), &self.dir, next, self.config.shards as u32)
            .map_err(|e| ServeError::Manifest(e.to_string()))?;
        self.generation = next;
        for (k, wal) in new_wals.into_iter().enumerate() {
            let shard = &mut self.shards[k];
            shard.wal = wal;
            // `Wal::create_with` synced the new journal, so everything
            // in it is durable; the group-commit accumulators restart
            // empty.
            shard.durable_offset = shard.wal.offset();
            shard.unsynced_bytes = 0;
            shard.unsynced_frames = 0;
            if max_time.is_finite() {
                shard.last_sync_time = max_time;
                shard.journaled_clock = max_time;
            } else {
                shard.journaled_clock = f64::NEG_INFINITY;
            }
            shard.needs_clock = false;
            shard.dirty = false;
        }
        // The superseded generation is dead weight now. Best-effort
        // only: a cleanup fault must not fail a *committed* checkpoint
        // (and must not swap the journal handles back) — the next
        // open's GC finishes the job, and leftovers are inert meanwhile.
        let _ = manifest::gc(&self.dir, next);
        Ok(self.shards.iter().map(|s| s.finished.len()).sum())
    }

    /// Forces every shard's journal bytes to stable storage (fsync)
    /// with the policy's retry/backoff, advancing each shard's
    /// durability watermark on success: afterwards every previously
    /// `Journaled` ack is durable. A failing shard is recorded in its
    /// own `sync_failures` and reported (wrapped in
    /// [`ServeError::ShardDegraded`] on multi-shard engines) — but
    /// every *other* shard is still synced first; the frames stay
    /// journaled and a later sync can cover them.
    pub fn sync(&mut self) -> Result<()> {
        let mut first_err = None;
        for k in 0..self.shards.len() {
            if let Err(e) = self.sync_shard_retrying(k) {
                self.shards[k].stats.sync_failures += 1;
                if first_err.is_none() {
                    first_err = Some(Self::degrade(self.config.shards, k, e));
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The merged corpus index: `(shard, index-within-shard)` pairs in
    /// global canonical key order (key, then shard as the tiebreak for
    /// inherited rank-0 keys).
    fn merged_order(&self) -> Vec<(usize, usize)> {
        let mut order: Vec<(TrajKey, usize, usize)> = Vec::new();
        for (k, shard) in self.shards.iter().enumerate() {
            order.extend(shard.keys.iter().enumerate().map(|(i, &key)| (key, k, i)));
        }
        order.sort_unstable_by_key(|&(key, k, _)| (key, k));
        order.into_iter().map(|(_, k, i)| (k, i)).collect()
    }

    /// The published-corpus bytes a checkpoint of the current state
    /// would serve, built from every shard's slice in canonical merge
    /// order — byte-identical for any shard count and any flush-worker
    /// count (the shard-matrix proptests pin this).
    pub fn merged_corpus_bytes(&self) -> Result<Vec<u8>> {
        let query = QueryEngine::new(self.press.model());
        let trajs: Vec<CompressedTrajectory> = self
            .merged_order()
            .into_iter()
            .map(|(k, i)| self.shards[k].finished[i].clone())
            .collect();
        Ok(TrajectoryStore::to_store_bytes(
            &query,
            &trajs,
            self.config.block_size,
        )?)
    }

    /// The ingest directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The committed checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of independent writer shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Path of `shard`'s published corpus file (current generation).
    /// With one shard this is the whole corpus; multi-shard readers
    /// walk every shard below [`IngestEngine::num_shards`] or use
    /// [`IngestEngine::merged_corpus_bytes`].
    pub fn shard_corpus_path(&self, shard: usize) -> PathBuf {
        self.dir.join(manifest::corpus_shard_file_name(
            self.generation,
            shard as u32,
        ))
    }

    /// Path of `shard`'s journal (current generation).
    pub fn shard_wal_path(&self, shard: usize) -> PathBuf {
        self.shards[shard].wal.path().to_path_buf()
    }

    /// `shard`'s journal length — with one shard, the latest
    /// ingested-fix ack offset.
    pub fn shard_wal_offset(&self, shard: usize) -> u64 {
        self.shards[shard].wal.offset()
    }

    /// `shard`'s durability watermark: every frame of its journal
    /// ending at or before this offset is covered by a completed
    /// fsync. An ack with `offset <= shard_durable_offset(shard)` has
    /// power-loss durability.
    pub fn shard_durable_offset(&self, shard: usize) -> u64 {
        self.shards[shard].durable_offset
    }

    /// Points currently buffered across live sessions on all shards —
    /// what the memory budget ([`IngestConfig::max_buffered_points`])
    /// bounds.
    pub fn buffered_points(&self) -> usize {
        self.shards.iter().map(|s| s.buffered).sum()
    }

    /// The bounded eviction log: the most recent
    /// [`IngestConfig::eviction_log_cap`] evicted vehicles, oldest
    /// first (rebuilt shard-major on recovery).
    pub fn eviction_log(&self) -> &VecDeque<u64> {
        &self.eviction_log
    }

    /// The engine configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// The compression handle (model + parameters).
    pub fn press(&self) -> &Press {
        &self.press
    }

    /// Live sessions across all shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|s| s.sessions.len()).sum()
    }

    /// Finalized segments awaiting [`IngestEngine::flush`], across all
    /// shards.
    pub fn pending_segments(&self) -> usize {
        self.shards.iter().map(|s| s.pending.len()).sum()
    }

    /// The in-memory compressed corpus (checkpointed + flushed), in
    /// canonical merge order across all shards.
    pub fn finished(&self) -> Vec<CompressedTrajectory> {
        self.merged_order()
            .into_iter()
            .map(|(k, i)| self.shards[k].finished[i].clone())
            .collect()
    }

    /// Ingest counters, summed across all shards (see
    /// [`IngestEngine::shard_stats`] for one shard's view).
    pub fn stats(&self) -> IngestStats {
        let mut total = IngestStats::default();
        for shard in &self.shards {
            total.accumulate(&shard.stats);
        }
        total
    }

    /// One shard's ingest counters. A degraded shard's rejections land
    /// here and never in a healthy shard's counters.
    pub fn shard_stats(&self, shard: usize) -> &IngestStats {
        &self.shards[shard].stats
    }

    /// The bounded quarantine log: the most recent
    /// [`IngestConfig::quarantine_log_cap`] quarantined fixes, oldest
    /// first.
    pub fn quarantine_log(&self) -> &VecDeque<QuarantineRecord> {
        &self.quarantine
    }

    /// What the last [`IngestEngine::open`] recovered, summed across
    /// shards.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }
}
