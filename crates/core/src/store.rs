//! On-disk artifacts of the PRESS core: the trained HSC model and a
//! block-oriented compressed-trajectory store, both in the shared
//! [`press_store`] container format.
//!
//! # Model persistence
//!
//! [`HscModel`] training is a corpus-wide pass (SP compression of every
//! training path, trie mining, Huffman construction, per-node tables);
//! the result is small and static. `HscModel::save_to` persists the trie
//! records, the canonical Huffman code lengths, and the per-node
//! distance/MBR tables; `HscModel::load_from` reassembles the model over
//! a shortest-path provider, rebuilding the Aho–Corasick automaton with
//! the same deterministic construction training uses — so a loaded model
//! compresses, decompresses and answers queries **bit-identically** to
//! the trained one.
//!
//! # The block store
//!
//! [`TrajectoryStore`] keeps a compressed corpus on disk in fixed-size
//! blocks, each carrying a **synopsis**: the union MBR of its
//! trajectories' spatial extents (from the query engine's per-unit
//! rectangles — no decompression) and the union of their observed time
//! spans. Queries consult the synopses to skip whole blocks, borrowing
//! the metadata-driven data-skipping idea of provenance-based block
//! synopses (see PAPERS.md):
//!
//! * [`TrajectoryStore::range`] skips blocks whose time span misses
//!   `[t1, t2]` or whose MBR misses the region;
//! * [`TrajectoryStore::whenat`] rejects probes outside the containing
//!   block's (tolerance-inflated) MBR without decoding it;
//! * [`TrajectoryStore::whereat`]/[`TrajectoryStore::get`] decode only
//!   the one block holding the requested trajectory.
//!
//! Synopses are conservative over-approximations: a skipped block can
//! never contain a hit, so store-level answers equal the brute-force
//! scan (asserted in tests). Range semantics: a trajectory qualifies
//! only when its **observed time span overlaps** the query window —
//! trajectories that ended before `t1` or started after `t2` are not
//! "passing the region within `[t1, t2]`".
//!
//! # The synopsis index
//!
//! Above the per-block synopses sits a packed hierarchy
//! ([`SynopsisIndex`]): consecutive blocks grouped by a fixed branching
//! factor, each group summarized by the union of its children's MBRs
//! and time spans. [`TrajectoryStore::range`] descends it instead of
//! walking the block directory linearly, so pruning costs
//! O(candidates · branching + levels) rather than O(#blocks);
//! [`TrajectoryStore::range_linear`] keeps the linear walk alive as the
//! reference path and [`TrajectoryStore::io_stats`] exposes how many
//! block synopses were never even considered. The index is persisted as
//! the **additive** `"index"` section of the container (see
//! `docs/FORMATS.md`): files written before it exist load fine (the
//! hierarchy is rebuilt in memory from the synopses), and because the
//! build is deterministic, a loaded section must equal the rebuild
//! bit-for-bit — an inconsistent one is [`StoreError::Corrupt`] at
//! load, never a silently wrong (block-skipping) answer.

use crate::error::{PressError, Result};
use crate::press::CompressedTrajectory;
use crate::query::QueryEngine;
use crate::spatial::{BitStream, CompressedSpatial, HscModel, Huffman, Trie};
use crate::types::{DtPoint, TemporalSequence};
use press_network::{EdgeId, Mbr, Point, SpProvider};
use press_store::{
    kind, ByteReader, ByteWriter, IndexEntry, StoreError, StoreFile, StoreWriter, SynopsisIndex,
    DEFAULT_BRANCHING,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// HSC model persistence
// ---------------------------------------------------------------------

impl HscModel {
    /// Serializes the trained model into a [`press_store`] container: the
    /// trie's per-node records, the canonical Huffman code lengths, and
    /// the per-node distance/MBR tables of §5.1–§5.2.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let trie = self.trie();
        let n = trie.num_nodes();
        let mut meta = ByteWriter::with_capacity(24);
        meta.put_u64(trie.theta() as u64);
        meta.put_u64(trie.alphabet_size() as u64);
        meta.put_u64(n as u64);
        let mut nodes = ByteWriter::with_capacity((n - 1) * 18);
        for id in trie.node_ids() {
            nodes.put_u32(trie.parent(id));
            nodes.put_u32(trie.last_edge(id).0);
            nodes.put_u16(trie.depth(id) as u16);
            nodes.put_u64(trie.freq(id));
        }
        let lens = self.huffman().code_lengths();
        let mut dist = ByteWriter::with_capacity(n * 8);
        let mut mbr = ByteWriter::with_capacity(n * 32);
        for id in 0..n as u32 {
            dist.put_f64(self.node_dist(id));
            let m = self.node_mbr(id);
            mbr.put_f64(m.min_x);
            mbr.put_f64(m.min_y);
            mbr.put_f64(m.max_x);
            mbr.put_f64(m.max_y);
        }
        let mut w = StoreWriter::new(kind::HSC_MODEL);
        w.section("meta", meta.into_bytes());
        w.section("trie", nodes.into_bytes());
        w.section("hufflens", lens);
        w.section("node_dist", dist.into_bytes());
        w.section("node_mbr", mbr.into_bytes());
        w.to_bytes()
    }

    /// Writes the model artifact to `path` atomically (tmp + fsync +
    /// rename + parent-dir fsync); every failure is a typed
    /// [`press_store::StoreError::Io`].
    pub fn save_to(&self, path: &Path) -> press_store::Result<()> {
        press_store::atomic_write_file(&press_store::RealIo, path, &self.to_store_bytes())?;
        Ok(())
    }

    /// Reassembles a model over `sp` from container bytes, validating the
    /// trie structure, the Huffman code lengths (Kraft equality), and the
    /// table sizes. The model's edge alphabet must match `sp`'s network.
    pub fn from_store_bytes(
        sp: Arc<dyn SpProvider>,
        bytes: Vec<u8>,
    ) -> press_store::Result<HscModel> {
        let file = StoreFile::from_bytes(bytes)?;
        file.expect_kind(kind::HSC_MODEL)?;
        let mut meta = file.reader("meta")?;
        let theta = meta.get_len(u16::MAX as usize, "theta")?;
        let alphabet = meta.get_len(u32::MAX as usize, "alphabet")?;
        let num_nodes = meta.get_len(u32::MAX as usize, "trie node")?;
        meta.expect_end("meta")?;
        if alphabet != sp.network().num_edges() {
            return Err(StoreError::Corrupt(format!(
                "model alphabet {alphabet} != network edge count {}",
                sp.network().num_edges()
            )));
        }
        if num_nodes == 0 {
            return Err(StoreError::Corrupt("trie has no root".into()));
        }
        // `meta` may claim up to u32::MAX trie nodes; every per-node
        // section must actually hold them before anything is sized by
        // that count.
        for (name, count, width) in [
            ("trie", num_nodes - 1, 18),
            ("node_dist", num_nodes, 8),
            ("node_mbr", num_nodes, 32),
        ] {
            let len = file.section(name)?.len();
            if Some(len) != count.checked_mul(width) {
                return Err(StoreError::Corrupt(format!(
                    "{name}: {len} B cannot hold {count} records of {width} B"
                )));
            }
        }
        let mut r = file.reader("trie")?;
        let mut records = Vec::with_capacity(num_nodes - 1);
        for _ in 1..num_nodes {
            let parent = r.get_u32()?;
            let edge = EdgeId(r.get_u32()?);
            let depth = r.get_u16()?;
            let freq = r.get_u64()?;
            records.push((parent, edge, depth, freq));
        }
        r.expect_end("trie")?;
        let trie = Trie::from_raw_parts(theta, alphabet, &records)
            .map_err(|e| StoreError::Corrupt(format!("trie: {e}")))?;
        let lens = file.section("hufflens")?.to_vec();
        if lens.len() != num_nodes - 1 {
            return Err(StoreError::Corrupt(format!(
                "{} Huffman code lengths for {} symbols",
                lens.len(),
                num_nodes - 1
            )));
        }
        validate_code_lengths(&lens)?;
        let huffman = Huffman::from_code_lengths(lens)
            .map_err(|e| StoreError::Corrupt(format!("huffman: {e}")))?;
        let mut r = file.reader("node_dist")?;
        let mut node_dist = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            node_dist.push(r.get_f64()?);
        }
        r.expect_end("node_dist")?;
        let mut r = file.reader("node_mbr")?;
        let mut node_mbr = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            node_mbr.push(Mbr {
                min_x: r.get_f64()?,
                min_y: r.get_f64()?,
                max_x: r.get_f64()?,
                max_y: r.get_f64()?,
            });
        }
        r.expect_end("node_mbr")?;
        Ok(HscModel::from_parts(sp, trie, huffman, node_dist, node_mbr))
    }

    /// Loads a model artifact from `path` (one contiguous read).
    pub fn load_from(sp: Arc<dyn SpProvider>, path: &Path) -> press_store::Result<HscModel> {
        Self::from_store_bytes(sp, std::fs::read(path)?)
    }
}

/// Rejects code-length vectors that could not have come from a Huffman
/// build: lengths must be in `1..=64` and — for more than one symbol —
/// satisfy the Kraft **equality** `Σ 2^(64−len) == 2^64` (an optimal
/// prefix code wastes no code space). The single-symbol code is `0` with
/// length 1 by convention.
fn validate_code_lengths(lens: &[u8]) -> press_store::Result<()> {
    if lens.len() == 1 {
        if lens[0] != 1 {
            return Err(StoreError::Corrupt(format!(
                "single-symbol code must have length 1, got {}",
                lens[0]
            )));
        }
        return Ok(());
    }
    let mut kraft: u128 = 0;
    for &l in lens {
        if !(1..=64).contains(&l) {
            return Err(StoreError::Corrupt(format!(
                "Huffman code length {l} outside 1..=64"
            )));
        }
        kraft += 1u128 << (64 - l as u32);
    }
    if kraft != 1u128 << 64 {
        return Err(StoreError::Corrupt(
            "Huffman code lengths violate the Kraft equality".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Block-oriented compressed-trajectory store
// ---------------------------------------------------------------------

/// Encoded size of one [`BlockSynopsis`] in the `synopsis` section: six
/// `f64` (MBR, t0, t1) and two `u64` (start, len).
const SYNOPSIS_BYTES: usize = 64;

/// Per-block metadata consulted before any decompression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockSynopsis {
    /// Union MBR of the block's trajectories' spatial extents
    /// (conservative, from per-unit rectangles).
    pub mbr: Mbr,
    /// Earliest observed timestamp in the block.
    pub t0: f64,
    /// Latest observed timestamp in the block.
    pub t1: f64,
    /// Index of the block's first trajectory.
    pub start: usize,
    /// Number of trajectories in the block.
    pub len: usize,
}

impl BlockSynopsis {
    /// The synopsis as a leaf of the [`SynopsisIndex`] hierarchy.
    fn index_entry(&self) -> IndexEntry {
        IndexEntry::new(
            self.mbr.min_x,
            self.mbr.min_y,
            self.mbr.max_x,
            self.mbr.max_y,
            self.t0,
            self.t1,
        )
    }
}

/// Rebuilds the packed hierarchy a block directory implies — the
/// deterministic construction both the writer and the loader use, so
/// equality with a persisted index is a validity proof.
fn index_of(blocks: &[BlockSynopsis]) -> SynopsisIndex {
    SynopsisIndex::build(
        blocks.iter().map(|b| b.index_entry()).collect(),
        DEFAULT_BRANCHING,
    )
}

/// A block-oriented on-disk store of compressed trajectories; see the
/// module docs for the skipping semantics.
pub struct TrajectoryStore {
    file: StoreFile,
    block_size: usize,
    len: usize,
    blocks: Vec<BlockSynopsis>,
    /// Packed hierarchy over the block synopses (loaded from the
    /// additive `"index"` section, or rebuilt for pre-index files).
    index: SynopsisIndex,
    blocks_decoded: AtomicU64,
    blocks_skipped: AtomicU64,
}

impl TrajectoryStore {
    /// Serializes a compressed corpus into container bytes, computing
    /// per-block synopses through `engine` (whose model must be the one
    /// that produced the trajectories).
    pub fn to_store_bytes(
        engine: &QueryEngine<'_>,
        trajectories: &[CompressedTrajectory],
        block_size: usize,
    ) -> Result<Vec<u8>> {
        Self::to_store_bytes_with_extra(engine, trajectories, block_size, Vec::new())
    }

    /// [`TrajectoryStore::to_store_bytes`] plus caller-owned **extra
    /// sections** written after the index (and before the blocks).
    /// Extra sections ride the container's CRC framing but are opaque
    /// to the store itself — readers that don't know a name ignore it
    /// (the store loader tolerates unknown sections), and
    /// writers that know it read it back via
    /// [`TrajectoryStore::extra_section`]. press-serve uses this to
    /// persist each ingest shard's canonical merge keys inside its
    /// corpus shard file. Names must not collide with the store's own
    /// sections (`meta`, `synopsis`, `index`, `blk<n>`).
    pub fn to_store_bytes_with_extra(
        engine: &QueryEngine<'_>,
        trajectories: &[CompressedTrajectory],
        block_size: usize,
        extra: Vec<(String, Vec<u8>)>,
    ) -> Result<Vec<u8>> {
        for (name, _) in &extra {
            let reserved = name == "meta"
                || name == "synopsis"
                || name == "index"
                || (name.starts_with("blk") && name[3..].chars().all(|c| c.is_ascii_digit()));
            if reserved {
                return Err(PressError::InvalidConfig(format!(
                    "extra section name {name:?} collides with a store section"
                )));
            }
        }
        if block_size == 0 {
            return Err(PressError::InvalidConfig(
                "block_size must be at least 1".into(),
            ));
        }
        let num_blocks = trajectories.len().div_ceil(block_size);
        let mut synopsis = ByteWriter::with_capacity(num_blocks * SYNOPSIS_BYTES);
        let mut w = StoreWriter::new(kind::TRAJECTORY_STORE);
        let mut meta = ByteWriter::with_capacity(24);
        meta.put_u64(trajectories.len() as u64);
        meta.put_u64(block_size as u64);
        meta.put_u64(num_blocks as u64);
        let mut payloads = Vec::with_capacity(num_blocks);
        let mut leaves = Vec::with_capacity(num_blocks);
        for (b, chunk) in trajectories.chunks(block_size).enumerate() {
            let mut mbr = Mbr::empty();
            let mut t0 = f64::INFINITY;
            let mut t1 = f64::NEG_INFINITY;
            let mut payload = ByteWriter::new();
            for ct in chunk {
                mbr.expand(&engine.spatial_mbr(&ct.spatial)?);
                if let Some((a, b)) = ct.temporal.time_range() {
                    t0 = t0.min(a);
                    t1 = t1.max(b);
                }
                let bits = &ct.spatial.bits;
                payload.put_u64(bits.len_bits());
                payload.put_bytes(&bits.to_bytes());
                payload.put_u64(ct.temporal.len() as u64);
                for p in &ct.temporal.points {
                    payload.put_f64(p.d);
                    payload.put_f64(p.t);
                }
            }
            synopsis.put_f64(mbr.min_x);
            synopsis.put_f64(mbr.min_y);
            synopsis.put_f64(mbr.max_x);
            synopsis.put_f64(mbr.max_y);
            synopsis.put_f64(t0);
            synopsis.put_f64(t1);
            synopsis.put_u64((b * block_size) as u64);
            synopsis.put_u64(chunk.len() as u64);
            leaves.push(IndexEntry::new(
                mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y, t0, t1,
            ));
            payloads.push(payload.into_bytes());
        }
        let index = SynopsisIndex::build(leaves, DEFAULT_BRANCHING);
        w.section("meta", meta.into_bytes());
        // The block directory is already fixed-width (64 B per block);
        // writing it 8-byte aligned makes it the store's flat section, so
        // a mapped open walks it in place. Alignment gaps are invisible
        // to readers (sections are addressed via the table offset).
        w.section_aligned("synopsis", synopsis.into_bytes());
        w.section("index", index.to_section_bytes());
        for (name, payload) in extra {
            w.section(&name, payload);
        }
        for (b, payload) in payloads.into_iter().enumerate() {
            w.section(&format!("blk{b}"), payload);
        }
        Ok(w.to_bytes())
    }

    /// Writes a compressed corpus to `path` as a block store,
    /// atomically (tmp + fsync + rename + parent-dir fsync).
    pub fn create(
        path: &Path,
        engine: &QueryEngine<'_>,
        trajectories: &[CompressedTrajectory],
        block_size: usize,
    ) -> Result<()> {
        Self::create_with(&press_store::RealIo, path, engine, trajectories, block_size)
    }

    /// [`TrajectoryStore::create`] through an explicit
    /// [`press_store::IoBackend`], so disk faults are injectable.
    pub fn create_with(
        io: &dyn press_store::IoBackend,
        path: &Path,
        engine: &QueryEngine<'_>,
        trajectories: &[CompressedTrajectory],
        block_size: usize,
    ) -> Result<()> {
        let bytes = Self::to_store_bytes(engine, trajectories, block_size)?;
        press_store::atomic_write_file(io, path, &bytes).map_err(StoreError::from)?;
        Ok(())
    }

    /// Opens a store from container bytes, validating the synopsis table.
    pub fn from_store_bytes(bytes: Vec<u8>) -> Result<TrajectoryStore> {
        Self::from_file(StoreFile::from_bytes(bytes)?)
    }

    /// Opens a store over an already-opened container (owned or mapped):
    /// the shared validation path of [`TrajectoryStore::from_store_bytes`]
    /// and [`TrajectoryStore::open_mapped`].
    fn from_file(file: StoreFile) -> Result<TrajectoryStore> {
        file.expect_kind(kind::TRAJECTORY_STORE)?;
        let mut meta = file.reader("meta")?;
        let len = meta.get_len(u32::MAX as usize, "trajectory")?;
        let block_size = meta.get_len(u32::MAX as usize, "block size")?;
        let num_blocks = meta.get_len(u32::MAX as usize, "block")?;
        meta.expect_end("meta")?;
        if block_size == 0 || num_blocks != len.div_ceil(block_size) {
            return Err(StoreError::Corrupt(format!(
                "{num_blocks} blocks of size {block_size} cannot hold {len} trajectories"
            ))
            .into());
        }
        // `meta` may claim up to u32::MAX blocks; the synopsis section
        // must actually hold them before anything is allocated for them.
        let mut r = file.reader("synopsis")?;
        if Some(r.remaining()) != num_blocks.checked_mul(SYNOPSIS_BYTES) {
            return Err(StoreError::Corrupt(format!(
                "synopsis: {} B cannot hold {num_blocks} blocks of {SYNOPSIS_BYTES} B",
                r.remaining()
            ))
            .into());
        }
        let mut blocks = Vec::with_capacity(num_blocks);
        for b in 0..num_blocks {
            let mbr = Mbr {
                min_x: r.get_f64()?,
                min_y: r.get_f64()?,
                max_x: r.get_f64()?,
                max_y: r.get_f64()?,
            };
            let t0 = r.get_f64()?;
            let t1 = r.get_f64()?;
            let start = r.get_len(len, "block start")?;
            let blen = r.get_len(block_size, "block length")?;
            let expected_start = b * block_size;
            let expected_len = block_size.min(len - expected_start);
            if start != expected_start || blen != expected_len {
                return Err(StoreError::Corrupt(format!(
                    "block {b} covers [{start}, {start}+{blen}) instead of \
                     [{expected_start}, {expected_start}+{expected_len})"
                ))
                .into());
            }
            if !file.has_section(&format!("blk{b}")) {
                return Err(StoreError::MissingSection(format!("blk{b}")).into());
            }
            blocks.push(BlockSynopsis {
                mbr,
                t0,
                t1,
                start,
                len: blen,
            });
        }
        r.expect_end("synopsis")?;
        // The hierarchy a consistent index section MUST hold: the
        // deterministic rebuild from the validated block directory.
        let rebuilt = index_of(&blocks);
        let index = if file.has_section("index") {
            let loaded = SynopsisIndex::from_section_bytes(file.section("index")?)?;
            // Bit-exact equality doubles as the full structural check
            // (leaves equal the synopses, every interior entry is the
            // exact union of its children): a CRC-valid but logically
            // inconsistent section can never skip a matching block — it
            // is a typed error instead of a wrong answer.
            if loaded != rebuilt {
                return Err(StoreError::Corrupt(
                    "index section is inconsistent with the block synopses".into(),
                )
                .into());
            }
            loaded
        } else {
            // Pre-index store file: serve from the in-memory rebuild.
            rebuilt
        };
        Ok(TrajectoryStore {
            file,
            block_size,
            len,
            blocks,
            index,
            blocks_decoded: AtomicU64::new(0),
            blocks_skipped: AtomicU64::new(0),
        })
    }

    /// Opens a store file (one contiguous read).
    pub fn open(path: &Path) -> Result<TrajectoryStore> {
        Self::from_store_bytes(std::fs::read(path).map_err(StoreError::from)?)
    }

    /// Opens a store file through the zero-copy mapped tier: the corpus
    /// payload stays on disk behind a read-only mapping, so open cost is
    /// the metadata walk (header, block directory, synopsis index) —
    /// block payloads are faulted in and CRC-validated only when a query
    /// first decodes them, and a corrupted block surfaces then as a typed
    /// [`StoreError::ChecksumMismatch`], never a wrong answer. Answers
    /// are bit-identical to [`TrajectoryStore::open`]; only the residency
    /// model differs.
    pub fn open_mapped(path: &Path) -> Result<TrajectoryStore> {
        Self::from_file(StoreFile::open_mapped(path)?)
    }

    /// True when the store serves from a lazily-validated mapping
    /// (see [`TrajectoryStore::open_mapped`]).
    pub fn is_mapped(&self) -> bool {
        self.file.is_mapped()
    }

    /// Number of trajectories in the store.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the store holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Trajectories per (full) block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Synopsis of block `b`.
    pub fn synopsis(&self, b: usize) -> &BlockSynopsis {
        &self.blocks[b]
    }

    /// `(blocks decoded, blocks skipped via synopsis)` so far — the
    /// observable effect of data skipping.
    pub fn io_stats(&self) -> (u64, u64) {
        (
            self.blocks_decoded.load(Ordering::Relaxed),
            self.blocks_skipped.load(Ordering::Relaxed),
        )
    }

    /// Decodes block `b`: one CRC-checked section read, every record,
    /// and a check that nothing trails the last one. Each call decodes
    /// afresh — there is no shared cache, so concurrent queries never
    /// contend on a lock or evict each other's block.
    fn block(&self, b: usize) -> Result<Vec<CompressedTrajectory>> {
        let syn = &self.blocks[b];
        let mut r = self.file.reader(&format!("blk{b}"))?;
        let mut out = Vec::with_capacity(syn.len);
        for _ in 0..syn.len {
            out.push(decode_trajectory(&mut r)?);
        }
        r.expect_end("block")?;
        self.blocks_decoded.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// Decodes every block, returning the whole corpus in index order.
    /// Used by crash recovery (press-serve rebuilds its in-memory
    /// finished list from the last checkpoint) — each block is decoded
    /// once, through the same path as a query.
    pub fn decode_all(&self) -> Result<Vec<CompressedTrajectory>> {
        let mut out = Vec::with_capacity(self.len);
        for b in 0..self.blocks.len() {
            out.append(&mut self.block(b)?);
        }
        Ok(out)
    }

    /// The compressed trajectory at `idx`, decoding only its block.
    pub fn get(&self, idx: usize) -> Result<CompressedTrajectory> {
        if idx >= self.len {
            return Err(PressError::OutOfDomain(format!(
                "trajectory {idx} out of range 0..{}",
                self.len
            )));
        }
        let mut block = self.block(idx / self.block_size)?;
        Ok(block.swap_remove(idx % self.block_size))
    }

    /// `whereat` on trajectory `idx`: decodes only the containing block
    /// and answers identically to
    /// [`QueryEngine::whereat`] on the in-memory trajectory.
    pub fn whereat(&self, engine: &QueryEngine<'_>, idx: usize, t: f64) -> Result<Point> {
        if idx >= self.len {
            return Err(PressError::OutOfDomain(format!(
                "trajectory {idx} out of range 0..{}",
                self.len
            )));
        }
        let block = self.block(idx / self.block_size)?;
        engine.whereat(&block[idx % self.block_size], t)
    }

    /// `whenat` on trajectory `idx`. The containing block's synopsis is
    /// consulted first: a probe farther than `tolerance` from the block
    /// MBR cannot lie on any of its trajectories, so the block is not
    /// decoded at all (same `OutOfDomain` answer, zero I/O).
    pub fn whenat(
        &self,
        engine: &QueryEngine<'_>,
        idx: usize,
        p: Point,
        tolerance: f64,
    ) -> Result<f64> {
        if idx >= self.len {
            return Err(PressError::OutOfDomain(format!(
                "trajectory {idx} out of range 0..{}",
                self.len
            )));
        }
        let b = idx / self.block_size;
        if self.blocks[b].mbr.min_dist_to_point(&p) > tolerance {
            self.blocks_skipped.fetch_add(1, Ordering::Relaxed);
            return Err(PressError::OutOfDomain(format!(
                "point ({}, {}) not on the trajectory (tolerance {tolerance})",
                p.x, p.y
            )));
        }
        let block = self.block(b)?;
        engine.whenat(&block[idx % self.block_size], p, tolerance)
    }

    /// Indices of all trajectories whose observed time span overlaps
    /// `[t1, t2]` and that pass through `region` within it
    /// ([`QueryEngine::range`]). The query descends the packed
    /// [`SynopsisIndex`] hierarchy — O(log #blocks) directory entries
    /// for a selective query instead of the linear scan's O(#blocks) —
    /// and decodes only the candidate blocks. Because the hierarchy's
    /// leaves are the block synopses and every interior entry is a
    /// conservative union, the candidate set (and thus the answer)
    /// equals [`TrajectoryStore::range_linear`], which equals the
    /// brute-force scan over every trajectory; `io_stats` accounting is
    /// identical too.
    pub fn range(
        &self,
        engine: &QueryEngine<'_>,
        t1: f64,
        t2: f64,
        region: &Mbr,
    ) -> Result<Vec<usize>> {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let probe = IndexEntry::new(
            region.min_x,
            region.min_y,
            region.max_x,
            region.max_y,
            lo,
            hi,
        );
        let candidates = self.index.candidates(&probe);
        self.blocks_skipped.fetch_add(
            (self.blocks.len() - candidates.len()) as u64,
            Ordering::Relaxed,
        );
        let mut hits = Vec::new();
        for b in candidates {
            self.range_in_block(engine, b, lo, hi, region, &mut hits)?;
        }
        Ok(hits)
    }

    /// [`TrajectoryStore::range`] via the pre-index linear directory
    /// scan: every block synopsis is tested in order. Kept as the
    /// reference path — the query benchmark (`query_report`) measures
    /// the indexed descent against it, and the equality
    /// `range(..) == range_linear(..)` is the store's correctness
    /// oracle in tests.
    pub fn range_linear(
        &self,
        engine: &QueryEngine<'_>,
        t1: f64,
        t2: f64,
        region: &Mbr,
    ) -> Result<Vec<usize>> {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let mut hits = Vec::new();
        for (b, syn) in self.blocks.iter().enumerate() {
            if syn.t1 < lo || syn.t0 > hi || !syn.mbr.intersects(region) {
                self.blocks_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.range_in_block(engine, b, lo, hi, region, &mut hits)?;
        }
        Ok(hits)
    }

    /// Decodes block `b` and appends its qualifying trajectory indices —
    /// the shared per-block half of both range paths, so indexed and
    /// linear answers can only differ in which blocks they *consider*.
    fn range_in_block(
        &self,
        engine: &QueryEngine<'_>,
        b: usize,
        lo: f64,
        hi: f64,
        region: &Mbr,
        hits: &mut Vec<usize>,
    ) -> Result<()> {
        let start = self.blocks[b].start;
        let block = self.block(b)?;
        for (i, ct) in block.iter().enumerate() {
            let Some((a, z)) = ct.temporal.time_range() else {
                continue;
            };
            if z < lo || a > hi {
                continue;
            }
            if engine.range(ct, lo, hi, region)? {
                hits.push(start + i);
            }
        }
        Ok(())
    }

    /// The packed synopsis hierarchy the range path descends.
    pub fn synopsis_index(&self) -> &SynopsisIndex {
        &self.index
    }

    /// The bytes of a caller-owned extra section (see
    /// [`TrajectoryStore::to_store_bytes_with_extra`]), or `None` when
    /// the file predates the writer that adds it. A present-but-corrupt
    /// section is a typed error, never silently absent.
    pub fn extra_section(&self, name: &str) -> Result<Option<&[u8]>> {
        if !self.file.has_section(name) {
            return Ok(None);
        }
        Ok(Some(self.file.section(name)?))
    }
}

impl std::fmt::Debug for TrajectoryStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (decoded, skipped) = self.io_stats();
        f.debug_struct("TrajectoryStore")
            .field("trajectories", &self.len)
            .field("blocks", &self.blocks.len())
            .field("block_size", &self.block_size)
            .field("blocks_decoded", &decoded)
            .field("blocks_skipped", &skipped)
            .finish()
    }
}

/// Decodes one trajectory record (spatial bit stream + temporal tuples).
fn decode_trajectory(r: &mut ByteReader<'_>) -> Result<CompressedTrajectory> {
    let len_bits = r.get_len(r.remaining().saturating_mul(8), "spatial bit")? as u64;
    let byte_len = (len_bits as usize).div_ceil(8);
    let bits = BitStream::from_bytes(r.get_bytes(byte_len)?, len_bits);
    let count = r.get_len(r.remaining() / 16 + 1, "temporal tuple")?;
    let mut points = Vec::with_capacity(count);
    for _ in 0..count {
        let d = r.get_f64()?;
        let t = r.get_f64()?;
        points.push(DtPoint::new(d, t));
    }
    Ok(CompressedTrajectory {
        spatial: CompressedSpatial { bits },
        temporal: TemporalSequence::new_unchecked(points),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::press::{Press, PressConfig};
    use crate::types::{SpatialPath, Trajectory};
    use press_network::{grid_network, GridConfig, NodeId, SpBackend, SpTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixture() -> (Press, Vec<Trajectory>, Vec<CompressedTrajectory>) {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 7,
            ny: 7,
            weight_jitter: 0.12,
            seed: 31,
            ..GridConfig::default()
        }));
        let sp = Arc::new(SpTable::build(net.clone()));
        let mut rng = StdRng::seed_from_u64(8);
        let mut paths = Vec::new();
        while paths.len() < 40 {
            let a = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let b = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            if let Some(p) = press_network::dijkstra(&net, a).edge_path_to(&net, b) {
                if p.len() >= 5 {
                    paths.push(p);
                }
            }
        }
        let press = Press::train(sp, &paths, PressConfig::default()).unwrap();
        let trajs: Vec<Trajectory> = paths
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
                let mut pts = Vec::new();
                let mut d = 0.0;
                // Stagger start times so time-span synopses differ.
                let mut t = (k as f64) * 500.0;
                while d < total {
                    pts.push(DtPoint::new(d, t));
                    d = (d + rng.gen_range(20.0f64..50.0)).min(total);
                    t += rng.gen_range(3.0..7.0);
                }
                pts.push(DtPoint::new(total, t));
                Trajectory::new(
                    SpatialPath::new_unchecked(p.clone()),
                    TemporalSequence::new(pts).unwrap(),
                )
            })
            .collect();
        let compressed = trajs.iter().map(|t| press.compress(t).unwrap()).collect();
        (press, trajs, compressed)
    }

    #[test]
    fn model_store_roundtrip_is_bit_identical() {
        let (press, trajs, compressed) = fixture();
        let model = press.model();
        let sp = model.sp().clone();
        let loaded = HscModel::from_store_bytes(sp, model.to_store_bytes()).unwrap();
        // Structure.
        let (a, b) = (model.trie(), loaded.trie());
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.theta(), b.theta());
        for id in a.node_ids() {
            assert_eq!(a.parent(id), b.parent(id));
            assert_eq!(a.last_edge(id), b.last_edge(id));
            assert_eq!(a.depth(id), b.depth(id));
            assert_eq!(a.freq(id), b.freq(id));
            assert_eq!(
                model.node_dist(id).to_bits(),
                loaded.node_dist(id).to_bits()
            );
            assert_eq!(model.node_mbr(id), loaded.node_mbr(id));
        }
        assert_eq!(
            model.huffman().code_lengths(),
            loaded.huffman().code_lengths()
        );
        // Behavior: identical compression bits and lossless roundtrip.
        for (traj, ct) in trajs.iter().zip(&compressed) {
            let again = loaded.compress(&traj.path.edges).unwrap();
            assert_eq!(ct.spatial, again);
            assert_eq!(loaded.decompress(&again).unwrap(), traj.path.edges);
        }
    }

    #[test]
    fn model_store_rejects_corruption() {
        let (press, _, _) = fixture();
        let model = press.model();
        let sp = model.sp().clone();
        let bytes = model.to_store_bytes();
        // Truncation.
        let r = HscModel::from_store_bytes(sp.clone(), bytes[..bytes.len() / 3].to_vec());
        assert!(r.is_err());
        // Wrong artifact kind.
        let net_bytes = sp.network().to_store_bytes();
        assert!(matches!(
            HscModel::from_store_bytes(sp.clone(), net_bytes),
            Err(StoreError::WrongKind { .. })
        ));
        // Wrong network (different edge alphabet).
        let other = Arc::new(grid_network(&GridConfig {
            nx: 3,
            ny: 3,
            seed: 1,
            ..GridConfig::default()
        }));
        let other_sp: Arc<dyn SpProvider> = SpBackend::Dense.build(other);
        assert!(matches!(
            HscModel::from_store_bytes(other_sp, bytes),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn code_length_validation() {
        assert!(validate_code_lengths(&[1]).is_ok());
        assert!(validate_code_lengths(&[2]).is_err());
        assert!(validate_code_lengths(&[1, 2, 2]).is_ok());
        assert!(validate_code_lengths(&[1, 2, 3]).is_err()); // underfull
        assert!(validate_code_lengths(&[1, 1, 1]).is_err()); // overfull
        assert!(validate_code_lengths(&[0, 1]).is_err());
        assert!(validate_code_lengths(&[65, 1]).is_err());
    }

    #[test]
    fn trajectory_store_roundtrip_and_block_addressing() {
        let (press, _, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let bytes = TrajectoryStore::to_store_bytes(&engine, &compressed, 8).unwrap();
        let store = TrajectoryStore::from_store_bytes(bytes).unwrap();
        assert_eq!(store.len(), compressed.len());
        assert_eq!(store.num_blocks(), compressed.len().div_ceil(8));
        for (i, ct) in compressed.iter().enumerate() {
            assert_eq!(store.get(i).unwrap(), *ct, "trajectory {i} roundtrip");
        }
        // Each access decodes exactly its own block, nothing more.
        let fresh = TrajectoryStore::from_store_bytes(
            TrajectoryStore::to_store_bytes(&engine, &compressed, 8).unwrap(),
        )
        .unwrap();
        let _ = fresh.get(3).unwrap();
        let _ = fresh.get(5).unwrap();
        assert_eq!(fresh.io_stats().0, 2, "each get decodes exactly one block");
        assert!(fresh.get(compressed.len()).is_err());
    }

    #[test]
    fn store_queries_match_in_memory_and_skip_blocks() {
        let (press, trajs, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let store = TrajectoryStore::from_store_bytes(
            TrajectoryStore::to_store_bytes(&engine, &compressed, 5).unwrap(),
        )
        .unwrap();
        // whereat: bit-identical to the in-memory path.
        for (i, (traj, ct)) in trajs.iter().zip(&compressed).enumerate() {
            let (a, b) = traj.temporal.time_range().unwrap();
            for k in 0..4 {
                let t = a + (b - a) * k as f64 / 3.0;
                let mem = engine.whereat(ct, t).unwrap();
                let disk = store.whereat(&engine, i, t).unwrap();
                assert_eq!(mem.x.to_bits(), disk.x.to_bits());
                assert_eq!(mem.y.to_bits(), disk.y.to_bits());
            }
        }
        // range: equals brute force under the same time-overlap predicate,
        // and the staggered time spans force some blocks to be skipped.
        let net = press.model().sp().network().clone();
        let bb = net.bounding_box();
        let mut rng = StdRng::seed_from_u64(99);
        let mut skipped_somewhere = false;
        for _ in 0..12 {
            let cx = rng.gen_range(bb.min_x..bb.max_x);
            let cy = rng.gen_range(bb.min_y..bb.max_y);
            let half = rng.gen_range(50.0..300.0);
            let region = Mbr::new(cx - half, cy - half, cx + half, cy + half);
            let t1 = rng.gen_range(0.0..15_000.0);
            let t2 = t1 + rng.gen_range(100.0..4000.0);
            let before = store.io_stats().1;
            let fast = store.range(&engine, t1, t2, &region).unwrap();
            skipped_somewhere |= store.io_stats().1 > before;
            let brute: Vec<usize> = compressed
                .iter()
                .enumerate()
                .filter(|(_, ct)| {
                    let (a, z) = ct.temporal.time_range().unwrap();
                    z >= t1 && a <= t2 && engine.range(ct, t1, t2, &region).unwrap()
                })
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fast, brute, "range mismatch for region {region:?}");
        }
        assert!(skipped_somewhere, "synopses never skipped a block");
        // whenat: far probes are rejected from the synopsis alone.
        let (decoded_before, skipped_before) = store.io_stats();
        assert!(store.whenat(&engine, 0, Point::new(1e8, 1e8), 1.0).is_err());
        let (decoded_after, skipped_after) = store.io_stats();
        assert_eq!(decoded_before, decoded_after, "far whenat must not decode");
        assert_eq!(skipped_before + 1, skipped_after);
        // Near probes agree with the in-memory engine.
        let probe = engine
            .whereat(&compressed[2], trajs[2].temporal.points[1].t)
            .unwrap();
        let mem = engine.whenat(&compressed[2], probe, 0.5).unwrap();
        let disk = store.whenat(&engine, 2, probe, 0.5).unwrap();
        assert_eq!(mem.to_bits(), disk.to_bits());
    }

    #[test]
    fn trajectory_store_corruption_is_typed() {
        let (press, _, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let bytes = TrajectoryStore::to_store_bytes(&engine, &compressed, 4).unwrap();
        // Bit flip in the last block's payload.
        let mut corrupted = bytes.clone();
        let len = corrupted.len();
        corrupted[len - 2] ^= 0x20;
        let store = TrajectoryStore::from_store_bytes(corrupted).unwrap();
        let last = compressed.len() - 1;
        assert!(matches!(
            store.get(last),
            Err(PressError::Store(StoreError::ChecksumMismatch { .. }))
        ));
        // Truncated file.
        assert!(TrajectoryStore::from_store_bytes(bytes[..40].to_vec()).is_err());
        // Zero block size on write.
        assert!(TrajectoryStore::to_store_bytes(&engine, &compressed, 0).is_err());
        // Empty store is fine.
        let empty = TrajectoryStore::from_store_bytes(
            TrajectoryStore::to_store_bytes(&engine, &[], 4).unwrap(),
        )
        .unwrap();
        assert!(empty.is_empty());
        assert_eq!(
            empty
                .range(&engine, 0.0, 1.0, &Mbr::new(0.0, 0.0, 1.0, 1.0))
                .unwrap(),
            vec![]
        );
    }

    #[test]
    fn open_refuses_block_counts_the_synopsis_cannot_hold() {
        // A CRC-consistent `meta` claiming u32::MAX trajectories at block
        // size 1 must fail typed before anything is sized by that count.
        let mut meta = ByteWriter::new();
        meta.put_u64(u32::MAX as u64);
        meta.put_u64(1);
        meta.put_u64(u32::MAX as u64);
        let mut w = StoreWriter::new(kind::TRAJECTORY_STORE);
        w.section("meta", meta.into_bytes());
        w.section_aligned("synopsis", vec![0; SYNOPSIS_BYTES]);
        let bytes = w.to_bytes();
        let path = temp_corpus("huge-meta", &bytes);
        let owned = TrajectoryStore::from_store_bytes(bytes);
        let mapped = TrajectoryStore::open_mapped(&path);
        std::fs::remove_file(&path).unwrap();
        for r in [owned, mapped] {
            assert!(
                matches!(r, Err(PressError::Store(StoreError::Corrupt(_)))),
                "expected a typed Corrupt error, got {:?}",
                r.err()
            );
        }
    }

    #[test]
    fn open_refuses_index_leaf_counts_the_section_cannot_hold() {
        // A 32-byte, CRC-consistent `index` section claiming u32::MAX
        // leaves must fail typed before anything is sized by that count.
        let (press, _, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let good = TrajectoryStore::to_store_bytes(&engine, &compressed, 4).unwrap();
        let file = StoreFile::from_bytes(good).unwrap();
        let mut index = ByteWriter::new();
        index.put_u64(DEFAULT_BRANCHING as u64);
        index.put_u64(u32::MAX as u64);
        index.put_u64(1);
        index.put_u64(u32::MAX as u64);
        let index = index.into_bytes();
        let mut w = StoreWriter::new(file.kind());
        for name in file.section_names() {
            let payload = match name {
                "index" => index.clone(),
                _ => file.section(name).unwrap().to_vec(),
            };
            w.section(name, payload);
        }
        let r = TrajectoryStore::from_store_bytes(w.to_bytes());
        assert!(
            matches!(r, Err(PressError::Store(StoreError::Corrupt(_)))),
            "expected a typed Corrupt error, got {:?}",
            r.err()
        );
    }

    #[test]
    fn model_load_refuses_node_counts_the_sections_cannot_hold() {
        // A CRC-consistent `meta` claiming u32::MAX trie nodes must fail
        // typed before anything is sized by that count.
        let (press, _, _) = fixture();
        let model = press.model();
        let file = StoreFile::from_bytes(model.to_store_bytes()).unwrap();
        let mut meta = ByteWriter::new();
        meta.put_u64(model.trie().theta() as u64);
        meta.put_u64(model.trie().alphabet_size() as u64);
        meta.put_u64(u32::MAX as u64);
        let meta = meta.into_bytes();
        let mut w = StoreWriter::new(file.kind());
        for name in file.section_names() {
            let payload = match name {
                "meta" => meta.clone(),
                _ => file.section(name).unwrap().to_vec(),
            };
            w.section(name, payload);
        }
        let r = HscModel::from_store_bytes(model.sp().clone(), w.to_bytes());
        assert!(
            matches!(r, Err(StoreError::Corrupt(_))),
            "expected a typed Corrupt error, got {:?}",
            r.err()
        );
    }

    fn temp_corpus(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("press-corpus-{}-{name}.press", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_store_answers_bit_identically_to_owned_open() {
        let (press, trajs, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let bytes = TrajectoryStore::to_store_bytes(&engine, &compressed, 6).unwrap();
        let path = temp_corpus("identical", &bytes);
        let owned = TrajectoryStore::from_store_bytes(bytes).unwrap();
        let mapped = TrajectoryStore::open_mapped(&path).unwrap();
        assert!(mapped.is_mapped());
        assert!(!owned.is_mapped());
        assert_eq!(mapped.len(), owned.len());
        assert_eq!(mapped.num_blocks(), owned.num_blocks());
        for b in 0..owned.num_blocks() {
            assert_eq!(mapped.synopsis(b), owned.synopsis(b));
        }
        for (i, ct) in compressed.iter().enumerate() {
            assert_eq!(mapped.get(i).unwrap(), *ct, "trajectory {i}");
        }
        let (a, b) = trajs[1].temporal.time_range().unwrap();
        let t = (a + b) / 2.0;
        assert_eq!(
            owned.whereat(&engine, 1, t).unwrap().x.to_bits(),
            mapped.whereat(&engine, 1, t).unwrap().x.to_bits()
        );
        let region = Mbr::new(0.0, 0.0, 2000.0, 2000.0);
        assert_eq!(
            owned.range(&engine, 0.0, 20_000.0, &region).unwrap(),
            mapped.range(&engine, 0.0, 20_000.0, &region).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_store_defers_block_crc_to_first_touch() {
        let (press, _, compressed) = fixture();
        let engine = QueryEngine::new(press.model());
        let mut bytes = TrajectoryStore::to_store_bytes(&engine, &compressed, 4).unwrap();
        // Flip a bit in the last block's payload: the mapped open only
        // walks metadata + directory, so it must succeed; the corrupted
        // block is a typed checksum error at its first decode, and the
        // untouched blocks keep answering.
        let len = bytes.len();
        bytes[len - 2] ^= 0x20;
        let path = temp_corpus("lazy-crc", &bytes);
        let store = TrajectoryStore::open_mapped(&path).unwrap();
        assert_eq!(store.get(0).unwrap(), compressed[0]);
        assert!(matches!(
            store.get(compressed.len() - 1),
            Err(PressError::Store(StoreError::ChecksumMismatch { .. }))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
