//! `press-serve` — fault-tolerant fleet ingest for PRESS.
//!
//! Turns the batch PRESS pipeline (HMM map matching → reformat → hybrid
//! spatial compression + bounded temporal compression) into a streaming
//! engine that many vehicles feed concurrently, hardened for the three
//! ways real fleet ingest fails: dirty input, pathological input, and
//! crashes.
//!
//! # Architecture
//!
//! ```text
//!  push(vehicle, fix) ── route: splitmix64(vehicle) % shards
//!      │  vet: NaN/∞, out-of-order, duplicate, teleport → quarantine
//!      ▼
//!  shard k ─ ingest.<gen>.s<k>.wal ── append CRC-framed record, ACK
//!      │       (its own journal, durability accumulators, sessions,
//!      │        memory-budget share — an independent failure domain)
//!      ▼
//!  Session{vehicle} ── buffer; idle-timeout / size-cap segmentation
//!      │ finalize
//!      ▼
//!  pending ── flush(): parallel salvage-matching + online compression
//!      │ checkpoint (incremental: clean shards hard-link)
//!      ▼
//!  corpus.<gen>.s<k>.press × N + ingest.<gen>.s<k>.wal × N ── block
//!      stores + shrunk WALs, committed as one SET by a single atomic
//!      MANIFEST rename
//! ```
//!
//! # Guarantees
//!
//! * **No acked point is lost.** A fix is [`Ack::Accepted`] only after
//!   its WAL frame is written; recovery replays every complete frame
//!   and truncates at most the torn, never-acked tail.
//! * **Faults are shard-local.** A full disk, sticky I/O error, or
//!   corrupt journal on one shard degrades only that shard — surfaced
//!   as typed [`ServeError::ShardDegraded`] with per-shard counters —
//!   while pushes routed to healthy shards keep acking and the
//!   published corpus keeps serving.
//! * **Recovery is deterministic.** Replay goes through the exact live
//!   ingest path, per shard and in parallel, and everything that
//!   influences segmentation (stream clock, session order, arrival
//!   order) is journaled or derived from the journal — a recovered
//!   engine's corpus is byte-identical to a clean run over the acked
//!   prefix of each shard.
//! * **The published corpus is shard-count invariant.** Trajectories
//!   carry canonical merge keys (vehicle, segment sequence, piece), so
//!   the merged corpus bytes are identical for any shard count and any
//!   flush-worker count.
//! * **Checkpoints commit atomically and incrementally.** All N corpus
//!   shard files and N shrunk journals are flipped live as one set by a
//!   single [`manifest`] rename (fsynced through the directory), so a
//!   crash at any byte of a checkpoint recovers either the complete old
//!   set or the complete new one. Shards that cut nothing since the
//!   last checkpoint hard-link their previous corpus file instead of
//!   rewriting it.
//! * **Bad input degrades, never panics.** Defective fixes land in a
//!   typed quarantine; unmatchable stretches split into salvaged
//!   pieces; pathological sessions are shed by a deterministic matcher
//!   budget.
//!
//! The [`fault`] module provides the seeded fault-injection harness
//! (stream mangling + kill-at-byte-offset) that the recovery proptests
//! drive.

pub mod durability;
pub mod engine;
pub mod fault;
pub mod manifest;
pub mod session;
pub mod wal;

pub use durability::DurabilityPolicy;
pub use engine::{
    Ack, IngestConfig, IngestEngine, IngestStats, QuarantineRecord, RecoveryReport, ServeError,
};
pub use fault::{shard_wal_len, truncate_shard_wal, Event, FaultPlan};
pub use manifest::{Manifest, MANIFEST_FILE};
pub use session::{Disposition, QuarantineReason, Session, SessionPolicy};
pub use wal::{Wal, WalError, WalRecord, WalReplay};
// Re-exported so fault-injection call sites (tests, examples, benches)
// need only this crate.
pub use press_store::io::{DiskFault, FaultKind, FaultyIo, IoBackend, RealIo};
