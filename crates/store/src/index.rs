//! A packed hierarchy over per-block synopses — the interior levels of
//! the block-skipping index that [`TrajectoryStore`] consults so a
//! `range` query descends O(log #blocks) directory entries instead of
//! scanning all of them.
//!
//! [`TrajectoryStore`]: ../press_core/store/struct.TrajectoryStore.html
//!
//! # Shape
//!
//! The leaf level is the block directory itself: entry `i` is block
//! `i`'s synopsis (spatial rectangle × observed time span). Each
//! interior level groups [`SynopsisIndex::branching`] **consecutive**
//! entries of the level below and stores their union — a packed R-tree
//! in block order rather than an STR spatial sort, because blocks are
//! laid down in ingest order: consecutive blocks are adjacent in time,
//! and time is the discriminating dimension for fleet corpora (a
//! dashboard asks "who crossed this area *between 9:00 and 9:05*", not
//! "ever"). Packing consecutive runs keeps leaf ids equal to block ids,
//! makes construction a deterministic single pass, and preserves the
//! time clustering that makes interior pruning effective.
//!
//! # Correctness contract
//!
//! Every interior entry is the exact union of its children, so the
//! hierarchy is a *conservative over-approximation*: a pruned subtree
//! cannot contain a matching leaf, and [`SynopsisIndex::candidates`]
//! returns **exactly** the leaves a linear scan with the same predicate
//! would keep (tested below, and property-tested against the store's
//! brute-force scan in `tests/query_serving.rs`). Construction from a
//! given leaf sequence is deterministic, which is what lets a reader
//! *validate* a persisted index by rebuilding it from the block
//! directory and requiring bit-identical levels — a CRC-valid but
//! logically inconsistent section is a typed [`StoreError::Corrupt`],
//! never a wrong answer.
//!
//! # Example
//!
//! ```
//! use press_store::{IndexEntry, SynopsisIndex};
//!
//! // Four leaves on a line, each alive for 10 time units.
//! let leaves: Vec<IndexEntry> = (0..4)
//!     .map(|i| {
//!         let x = i as f64 * 100.0;
//!         let t = i as f64 * 10.0;
//!         IndexEntry::new(x, 0.0, x + 50.0, 50.0, t, t + 10.0)
//!     })
//!     .collect();
//! let index = SynopsisIndex::build(leaves, 2);
//!
//! // A probe touching only leaf 2's rectangle and time span.
//! let probe = IndexEntry::new(210.0, 10.0, 220.0, 20.0, 21.0, 29.0);
//! assert_eq!(index.candidates(&probe), vec![2]);
//!
//! // Its serialized form round-trips and survives validation.
//! let bytes = index.to_section_bytes();
//! let loaded = SynopsisIndex::from_section_bytes(&bytes).unwrap();
//! assert_eq!(loaded, index);
//! ```

use crate::{ByteReader, ByteWriter, Result, StoreError};

/// Default fan-out of interior levels. Sixteen keeps the tree shallow
/// (a million 64-trajectory blocks is four levels) while each pruning
/// test still eliminates 1/16 of the remaining directory.
pub const DEFAULT_BRANCHING: usize = 16;

/// One node of the hierarchy: an axis-aligned rectangle plus a closed
/// time span. At the leaf level this is a block synopsis; at interior
/// levels it is the exact union of the node's children.
///
/// The *empty* entry (infinite inverted bounds) represents a node with
/// no spatial or temporal extent — e.g. a block of trajectories whose
/// decoded geometry is empty. It intersects nothing, matching the
/// skip-always semantics of an empty MBR.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexEntry {
    /// Minimum x of the rectangle.
    pub min_x: f64,
    /// Minimum y of the rectangle.
    pub min_y: f64,
    /// Maximum x of the rectangle.
    pub max_x: f64,
    /// Maximum y of the rectangle.
    pub max_y: f64,
    /// Earliest time covered.
    pub t0: f64,
    /// Latest time covered.
    pub t1: f64,
}

impl IndexEntry {
    /// A populated entry.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64, t0: f64, t1: f64) -> Self {
        IndexEntry {
            min_x,
            min_y,
            max_x,
            max_y,
            t0,
            t1,
        }
    }

    /// The entry that covers nothing: inverted infinite bounds, so it
    /// never matches and unions as the identity element.
    pub fn empty() -> Self {
        IndexEntry {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
            t0: f64::INFINITY,
            t1: f64::NEG_INFINITY,
        }
    }

    /// Grows `self` to also cover `other` (exact component-wise union).
    pub fn union(&mut self, other: &IndexEntry) {
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
        self.t0 = self.t0.min(other.t0);
        self.t1 = self.t1.max(other.t1);
    }

    /// True when this entry's rectangle touches `probe`'s rectangle
    /// (shared borders count) **and** their time spans overlap — the
    /// exact predicate of the store's linear directory scan
    /// (`syn.t1 < lo || syn.t0 > hi || !syn.mbr.intersects(region)`
    /// negated). Empty entries match nothing.
    pub fn matches(&self, probe: &IndexEntry) -> bool {
        self.t1 >= probe.t0
            && self.t0 <= probe.t1
            && self.min_x <= probe.max_x
            && self.max_x >= probe.min_x
            && self.min_y <= probe.max_y
            && self.max_y >= probe.min_y
    }
}

/// The packed hierarchy. `levels[0]` is the leaf level (one entry per
/// block, id = position); each higher level holds the unions of
/// `branching` consecutive entries of the level below; the last level
/// has at most `branching` entries. See the module docs for the shape
/// and the correctness contract.
#[derive(Clone, Debug, PartialEq)]
pub struct SynopsisIndex {
    branching: usize,
    levels: Vec<Vec<IndexEntry>>,
}

impl SynopsisIndex {
    /// Builds the hierarchy bottom-up from the leaf entries. `branching`
    /// must be at least 2. Deterministic: the same leaves always produce
    /// bit-identical levels.
    pub fn build(leaves: Vec<IndexEntry>, branching: usize) -> SynopsisIndex {
        assert!(branching >= 2, "branching factor must be at least 2");
        let mut levels = vec![leaves];
        while levels.last().expect("at least the leaf level").len() > branching {
            let below = levels.last().expect("at least the leaf level");
            let mut above = Vec::with_capacity(below.len().div_ceil(branching));
            for group in below.chunks(branching) {
                let mut u = IndexEntry::empty();
                for e in group {
                    u.union(e);
                }
                above.push(u);
            }
            levels.push(above);
        }
        SynopsisIndex { branching, levels }
    }

    /// Fan-out the hierarchy was built with.
    pub fn branching(&self) -> usize {
        self.branching
    }

    /// Number of leaves (= blocks indexed).
    pub fn num_leaves(&self) -> usize {
        self.levels[0].len()
    }

    /// Number of levels, including the leaf level (1 for ≤ `branching`
    /// leaves — the hierarchy degenerates to the directory itself).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Leaf entry `i` (block `i`'s synopsis).
    pub fn leaf(&self, i: usize) -> &IndexEntry {
        &self.levels[0][i]
    }

    /// Ids of every leaf matching `probe`, ascending — exactly the set a
    /// linear scan of the leaf level with [`IndexEntry::matches`] keeps.
    /// Subtrees whose union entry misses the probe are pruned without
    /// visiting their children.
    pub fn candidates(&self, probe: &IndexEntry) -> Vec<usize> {
        let mut out = Vec::new();
        self.candidates_into(probe, &mut out);
        out
    }

    /// [`Self::candidates`] into a caller-owned buffer (cleared first),
    /// so a batch executor can reuse one allocation per worker.
    pub fn candidates_into(&self, probe: &IndexEntry, out: &mut Vec<usize>) {
        out.clear();
        let top = self.levels.len() - 1;
        for i in 0..self.levels[top].len() {
            self.descend(top, i, probe, out);
        }
    }

    fn descend(&self, level: usize, node: usize, probe: &IndexEntry, out: &mut Vec<usize>) {
        if !self.levels[level][node].matches(probe) {
            return;
        }
        if level == 0 {
            out.push(node);
            return;
        }
        let below = &self.levels[level - 1];
        let first = node * self.branching;
        let last = (first + self.branching).min(below.len());
        for child in first..last {
            self.descend(level - 1, child, probe, out);
        }
    }

    /// Serializes the hierarchy for the additive `"index"` section of a
    /// trajectory-store container: branching, leaf count, level count,
    /// then each level's entry count and entries as six IEEE `f64` bit
    /// patterns. Old readers ignore the section; new readers rebuild the
    /// hierarchy when it is absent.
    pub fn to_section_bytes(&self) -> Vec<u8> {
        let total: usize = self.levels.iter().map(|l| l.len()).sum();
        let mut w = ByteWriter::with_capacity(24 + self.levels.len() * 8 + total * 48);
        w.put_u64(self.branching as u64);
        w.put_u64(self.num_leaves() as u64);
        w.put_u64(self.levels.len() as u64);
        for level in &self.levels {
            w.put_u64(level.len() as u64);
            for e in level {
                w.put_f64(e.min_x);
                w.put_f64(e.min_y);
                w.put_f64(e.max_x);
                w.put_f64(e.max_y);
                w.put_f64(e.t0);
                w.put_f64(e.t1);
            }
        }
        w.into_bytes()
    }

    /// Decodes a serialized hierarchy, validating its structural shape
    /// (level sizes must telescope by `branching`). This checks the
    /// *encoding*; whether the decoded hierarchy is consistent with a
    /// given block directory is the caller's job — compare against
    /// [`SynopsisIndex::build`] of the directory's leaves (deterministic
    /// construction makes that an equality test).
    pub fn from_section_bytes(bytes: &[u8]) -> Result<SynopsisIndex> {
        let mut r = ByteReader::new(bytes);
        let branching = r.get_len(u32::MAX as usize, "index branching")?;
        if branching < 2 {
            return Err(StoreError::Corrupt(format!(
                "index branching factor {branching} below 2"
            )));
        }
        let num_leaves = r.get_len(u32::MAX as usize, "index leaf")?;
        let num_levels = r.get_len(64, "index level")?;
        if num_levels == 0 {
            return Err(StoreError::Corrupt("index has no levels".into()));
        }
        let mut levels = Vec::with_capacity(num_levels);
        let mut expected = num_leaves;
        for l in 0..num_levels {
            let count = r.get_len(num_leaves.max(1), "index entry")?;
            if count != expected {
                return Err(StoreError::Corrupt(format!(
                    "index level {l} holds {count} entries, expected {expected}"
                )));
            }
            // A leaf count of up to u32::MAX is legal in the header; the
            // section must actually hold that many 48-byte entries before
            // anything is reserved for them.
            if count > r.remaining() / 48 {
                return Err(StoreError::Corrupt(format!(
                    "index level {l}: {} B cannot hold {count} entries of 48 B",
                    r.remaining()
                )));
            }
            let mut level = Vec::with_capacity(count);
            for _ in 0..count {
                level.push(IndexEntry {
                    min_x: r.get_f64()?,
                    min_y: r.get_f64()?,
                    max_x: r.get_f64()?,
                    max_y: r.get_f64()?,
                    t0: r.get_f64()?,
                    t1: r.get_f64()?,
                });
            }
            levels.push(level);
            expected = expected.div_ceil(branching);
        }
        let top_len = levels.last().expect("at least one level").len();
        if top_len > branching {
            return Err(StoreError::Corrupt(format!(
                "index top level holds {top_len} entries, more than the branching factor \
                 {branching}"
            )));
        }
        r.expect_end("index")?;
        Ok(SynopsisIndex { branching, levels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* stream (the store crate is
    /// dependency-free, so no `rand` here).
    struct Xs(u64);
    impl Xs {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn f64(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn random_leaves(rng: &mut Xs, n: usize) -> Vec<IndexEntry> {
        (0..n)
            .map(|i| {
                let x = rng.f64(0.0, 1000.0);
                let y = rng.f64(0.0, 1000.0);
                let t = i as f64 * 10.0 + rng.f64(0.0, 5.0);
                IndexEntry::new(
                    x,
                    y,
                    x + rng.f64(0.0, 200.0),
                    y + rng.f64(0.0, 200.0),
                    t,
                    t + rng.f64(0.0, 30.0),
                )
            })
            .collect()
    }

    fn brute(leaves: &[IndexEntry], probe: &IndexEntry) -> Vec<usize> {
        leaves
            .iter()
            .enumerate()
            .filter(|(_, e)| e.matches(probe))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn candidates_equal_linear_scan() {
        let mut rng = Xs(7);
        for &n in &[0usize, 1, 2, 15, 16, 17, 100, 257, 1000] {
            let leaves = random_leaves(&mut rng, n);
            for &branching in &[2usize, 3, 16] {
                let index = SynopsisIndex::build(leaves.clone(), branching);
                for _ in 0..40 {
                    let x = rng.f64(-100.0, 1200.0);
                    let y = rng.f64(-100.0, 1200.0);
                    let t = rng.f64(-50.0, n as f64 * 10.0 + 50.0);
                    let probe = IndexEntry::new(
                        x,
                        y,
                        x + rng.f64(0.0, 300.0),
                        y + rng.f64(0.0, 300.0),
                        t,
                        t + rng.f64(0.0, 40.0),
                    );
                    assert_eq!(
                        index.candidates(&probe),
                        brute(&leaves, &probe),
                        "n={n} branching={branching}"
                    );
                }
            }
        }
    }

    #[test]
    fn interior_entries_are_exact_unions() {
        let mut rng = Xs(13);
        let leaves = random_leaves(&mut rng, 321);
        let index = SynopsisIndex::build(leaves, 4);
        for level in 1..index.num_levels() {
            for (node, entry) in index.levels[level].iter().enumerate() {
                let below = &index.levels[level - 1];
                let first = node * index.branching;
                let last = (first + index.branching).min(below.len());
                let mut u = IndexEntry::empty();
                for child in &below[first..last] {
                    u.union(child);
                }
                assert_eq!(*entry, u, "level {level} node {node}");
            }
        }
        // Top level is within the branching factor.
        assert!(index.levels.last().unwrap().len() <= index.branching());
    }

    #[test]
    fn degenerate_shapes() {
        // Empty index: no candidates, one (empty) level.
        let empty = SynopsisIndex::build(Vec::new(), 16);
        assert_eq!(empty.num_leaves(), 0);
        assert_eq!(empty.num_levels(), 1);
        assert!(empty
            .candidates(&IndexEntry::new(0.0, 0.0, 1.0, 1.0, 0.0, 1.0))
            .is_empty());
        // Single leaf.
        let one = SynopsisIndex::build(vec![IndexEntry::new(0.0, 0.0, 1.0, 1.0, 0.0, 1.0)], 2);
        assert_eq!(one.num_levels(), 1);
        assert_eq!(
            one.candidates(&IndexEntry::new(0.5, 0.5, 2.0, 2.0, 0.5, 2.0)),
            vec![0]
        );
        // All-tied leaves: every leaf matches or none does.
        let tied = vec![IndexEntry::new(0.0, 0.0, 10.0, 10.0, 0.0, 100.0); 50];
        let index = SynopsisIndex::build(tied, 4);
        let hit = IndexEntry::new(5.0, 5.0, 6.0, 6.0, 50.0, 60.0);
        assert_eq!(index.candidates(&hit), (0..50).collect::<Vec<_>>());
        let miss = IndexEntry::new(11.0, 11.0, 12.0, 12.0, 50.0, 60.0);
        assert!(index.candidates(&miss).is_empty());
        // Empty leaf entries match nothing, even a huge probe.
        let holes = vec![IndexEntry::empty(); 9];
        let index = SynopsisIndex::build(holes, 2);
        let universe = IndexEntry::new(-1e300, -1e300, 1e300, 1e300, -1e300, 1e300);
        assert!(index.candidates(&universe).is_empty());
    }

    #[test]
    fn borders_count_as_intersection() {
        let a = IndexEntry::new(0.0, 0.0, 10.0, 10.0, 0.0, 5.0);
        // Shared edge, shared instant.
        assert!(a.matches(&IndexEntry::new(10.0, 0.0, 20.0, 10.0, 5.0, 9.0)));
        // Disjoint in x only.
        assert!(!a.matches(&IndexEntry::new(10.1, 0.0, 20.0, 10.0, 0.0, 5.0)));
        // Disjoint in time only.
        assert!(!a.matches(&IndexEntry::new(0.0, 0.0, 10.0, 10.0, 5.1, 9.0)));
    }

    #[test]
    fn section_roundtrip_is_bit_identical() {
        let mut rng = Xs(29);
        for &n in &[0usize, 1, 16, 77, 400] {
            let index = SynopsisIndex::build(random_leaves(&mut rng, n), 5);
            let loaded = SynopsisIndex::from_section_bytes(&index.to_section_bytes()).unwrap();
            assert_eq!(loaded, index);
        }
    }

    #[test]
    fn malformed_sections_are_typed() {
        let mut rng = Xs(43);
        let index = SynopsisIndex::build(random_leaves(&mut rng, 40), 4);
        let bytes = index.to_section_bytes();
        // Truncation at every boundary is Truncated or Corrupt.
        for cut in 0..bytes.len() {
            assert!(
                SynopsisIndex::from_section_bytes(&bytes[..cut]).is_err(),
                "cut {cut} accepted"
            );
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            SynopsisIndex::from_section_bytes(&long),
            Err(StoreError::Corrupt(_))
        ));
        // Branching below 2.
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(&1u64.to_le_bytes());
        assert!(matches!(
            SynopsisIndex::from_section_bytes(&bad),
            Err(StoreError::Corrupt(_))
        ));
        // Level-size mismatch: claim one more leaf than level 0 holds.
        let mut bad = bytes;
        bad[8..16].copy_from_slice(&41u64.to_le_bytes());
        assert!(matches!(
            SynopsisIndex::from_section_bytes(&bad),
            Err(StoreError::Corrupt(_))
        ));
    }
}
