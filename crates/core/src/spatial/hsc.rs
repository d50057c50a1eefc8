//! Hybrid Spatial Compression (HSC) — paper §3.3.
//!
//! HSC chains the two spatial stages: shortest-path compression (§3.1)
//! followed by frequent-sub-trajectory coding (§3.2). The trained
//! [`HscModel`] owns every auxiliary structure the paper describes — the
//! all-pair shortest-path table, the Trie, the Aho–Corasick automaton, the
//! Huffman tree, plus the per-Trie-node distances and MBRs the query
//! processor needs (§5.1–§5.2).
//!
//! Spatial compression is **lossless**: `decompress(compress(p)) == p` for
//! every valid path `p` (property-tested in `tests/`), and both directions
//! run in `O(|T|)`.

use crate::error::Result;
use crate::spatial::ac::AcAutomaton;
use crate::spatial::bits::{BitStream, BitWriter};
use crate::spatial::decompose::decompose_dp;
use crate::spatial::huffman::Huffman;
use crate::spatial::sp::{sp_compress, sp_decompress};
use crate::spatial::trie::{node_to_symbol, symbol_to_node, Trie, TrieNodeId};
use press_network::{EdgeId, Mbr, SpProvider};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which decomposition strategy to use for FST coding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Decomposer {
    /// Aho–Corasick longest-suffix matching (Algorithm 2) — the paper's
    /// choice: ~1 % larger output than DP at ~65 % of its time.
    #[default]
    Greedy,
    /// Dynamic programming over split points — bit-optimal, slower.
    Dp,
}

/// The FST-coded spatial form of one trajectory: a Huffman bit stream.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CompressedSpatial {
    pub bits: BitStream,
}

impl CompressedSpatial {
    /// Spatial storage cost in whole bytes.
    pub fn byte_len(&self) -> usize {
        self.bits.byte_len()
    }
}

/// Sizes of the static auxiliary structures (paper §6.2 reports 452 MB /
/// 101 MB / 121 MB for its dataset; `repro aux` prints ours).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AuxiliarySizes {
    /// All-pair shortest-path table (distances + `SPend`).
    pub sp_table_bytes: usize,
    /// Trie + failure links (the AC automaton).
    pub automaton_bytes: usize,
    /// Huffman code book.
    pub huffman_bytes: usize,
    /// Per-Trie-node decompressed distances (§5.1 whereat support).
    pub node_dist_bytes: usize,
    /// Per-Trie-node MBRs (§5.2 whenat/range support).
    pub node_mbr_bytes: usize,
}

impl AuxiliarySizes {
    /// Total bytes across all auxiliary structures.
    pub fn total(&self) -> usize {
        self.sp_table_bytes
            + self.automaton_bytes
            + self.huffman_bytes
            + self.node_dist_bytes
            + self.node_mbr_bytes
    }
}

/// A trained HSC model: every static structure needed to compress,
/// decompress and query spatial paths.
pub struct HscModel {
    sp: Arc<dyn SpProvider>,
    ac: AcAutomaton,
    huffman: Huffman,
    /// Fully-decompressed network distance of each Trie node's
    /// sub-trajectory (`Tsub(n).d` of §5.1). Index = Trie node id.
    node_dist: Vec<f64>,
    /// MBR of each Trie node's fully-decompressed sub-trajectory (§5.2).
    node_mbr: Vec<Mbr>,
}

impl HscModel {
    /// Trains the model (paper §3.2: the training set is a subset of the
    /// trajectory corpus **after** SP compression; we take raw paths and
    /// apply SP compression here so callers can't get the order wrong).
    ///
    /// * `sp` — shortest-path provider (any [`SpBackend`](press_network::SpBackend)).
    /// * `training_paths` — raw (uncompressed) spatial paths.
    /// * `theta` — maximum FST length (paper's optimum for its data: 3).
    pub fn train(
        sp: Arc<dyn SpProvider>,
        training_paths: &[Vec<EdgeId>],
        theta: usize,
    ) -> Result<Self> {
        let compressed = Self::sp_compress_corpus(sp.as_ref(), training_paths);
        let trie = Trie::build(&compressed, theta, sp.network().num_edges())?;
        let huffman = Huffman::from_freqs(&trie.symbol_freqs())?;
        let (node_dist, node_mbr) = Self::node_tables(sp.as_ref(), &trie);
        Ok(HscModel {
            sp,
            ac: AcAutomaton::build(trie),
            huffman,
            node_dist,
            node_mbr,
        })
    }

    /// SP-compresses the whole training corpus, in parallel across the
    /// available cores, via the shared
    /// [`work_steal_map`](crate::parallel::work_steal_map) loop (the same
    /// atomic-cursor work-stealing `Press::compress_batch` uses): path
    /// costs vary wildly (length, SP-cache hits), so fixed chunking would
    /// idle threads behind the slowest slice. Output order is preserved,
    /// so training is bit-for-bit identical to the sequential pass
    /// regardless of thread count.
    fn sp_compress_corpus(sp: &dyn SpProvider, training_paths: &[Vec<EdgeId>]) -> Vec<Vec<EdgeId>> {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self::sp_compress_corpus_with(sp, training_paths, threads)
    }

    /// [`Self::sp_compress_corpus`] with an explicit worker count, so
    /// tests can pin the parallel branch regardless of host core count.
    fn sp_compress_corpus_with(
        sp: &dyn SpProvider,
        training_paths: &[Vec<EdgeId>],
        threads: usize,
    ) -> Vec<Vec<EdgeId>> {
        crate::parallel::work_steal_map(training_paths, threads, |_, p| sp_compress(sp, p))
    }

    /// Reassembles a model from its persisted parts (the artifact tier's
    /// load path — see [`crate::store`]). The automaton is rebuilt from
    /// the trie by the same deterministic BFS construction training uses,
    /// so a loaded model is indistinguishable from the trained one.
    pub(crate) fn from_parts(
        sp: Arc<dyn SpProvider>,
        trie: crate::spatial::trie::Trie,
        huffman: Huffman,
        node_dist: Vec<f64>,
        node_mbr: Vec<Mbr>,
    ) -> Self {
        HscModel {
            sp,
            ac: AcAutomaton::build(trie),
            huffman,
            node_dist,
            node_mbr,
        }
    }

    /// Computes per-node decompressed distances and MBRs. A node's
    /// sub-trajectory comes from SP-compressed text, so consecutive edges
    /// may hide a shortest-path gap that must be expanded (§5.1: "we need
    /// to decompress the sub-trajectory Tsub(n) based on SP decompression
    /// in order to calculate the distance Tsub(n).d").
    fn node_tables(sp: &dyn SpProvider, trie: &Trie) -> (Vec<f64>, Vec<Mbr>) {
        let net = sp.network();
        let n = trie.num_nodes();
        let mut dist = vec![0.0f64; n];
        let mut mbr = vec![Mbr::empty(); n];
        // Node ids are created parents-first, so each node extends its
        // parent by one edge: dist/mbr build incrementally in one pass.
        for node in trie.node_ids() {
            let parent = trie.parent(node);
            let e = trie.last_edge(node);
            let mut d = dist[parent as usize];
            let mut m = mbr[parent as usize];
            if parent != Trie::ROOT {
                let prev = trie.last_edge(parent);
                if !net.consecutive(prev, e) {
                    let gap = sp.gap_dist(prev, e);
                    if gap.is_finite() {
                        d += gap;
                        if let Some(gap_mbr) = sp.sp_mbr(prev, e) {
                            m.expand(&gap_mbr);
                        }
                    } else {
                        // Disconnected training pair: poison the node so
                        // queries fall back to full decompression.
                        d = f64::INFINITY;
                    }
                }
            }
            d += net.weight(e);
            m.expand(&net.edge_mbr(e));
            dist[node as usize] = d;
            mbr[node as usize] = m;
        }
        (dist, mbr)
    }

    /// Compresses a raw spatial path: SP compression, greedy decomposition,
    /// Huffman encoding. `O(|T|)`.
    pub fn compress(&self, path: &[EdgeId]) -> Result<CompressedSpatial> {
        self.compress_with(path, Decomposer::Greedy)
    }

    /// Compresses with an explicit decomposition strategy (used by the
    /// Fig. 11 greedy-vs-DP experiment).
    pub fn compress_with(
        &self,
        path: &[EdgeId],
        decomposer: Decomposer,
    ) -> Result<CompressedSpatial> {
        let spc = sp_compress(self.sp.as_ref(), path);
        self.encode_sp_form(&spc, decomposer)
    }

    /// Encodes an **already SP-compressed** edge sequence (`T'` of §3.1):
    /// decomposition + Huffman only, no second SP pass. This is the entry
    /// point for streaming ingest, where [`crate::spatial::OnlineSpCompressor`]
    /// produced `spc` incrementally; `encode_sp_form(spc) ==
    /// compress_with(path)` whenever `spc == sp_compress(path)`. Inverse
    /// of [`HscModel::decode_sp_form`].
    pub fn encode_sp_form(
        &self,
        spc: &[EdgeId],
        decomposer: Decomposer,
    ) -> Result<CompressedSpatial> {
        let parts = match decomposer {
            Decomposer::Greedy => self.ac.decompose_greedy(spc)?,
            Decomposer::Dp => decompose_dp(self.ac.trie(), &self.huffman, spc)?,
        };
        let mut w = BitWriter::with_capacity_bits(parts.len() * 8);
        for &node in &parts {
            self.huffman.encode_symbol(node_to_symbol(node), &mut w);
        }
        Ok(CompressedSpatial { bits: w.finish() })
    }

    /// Decodes the Huffman stream back to the Trie node sequence.
    pub fn decode_nodes(&self, cs: &CompressedSpatial) -> Result<Vec<TrieNodeId>> {
        let mut reader = cs.bits.reader();
        let mut nodes = Vec::new();
        while !reader.is_exhausted() {
            let sym = self.huffman.decode_symbol(&mut reader)?;
            nodes.push(symbol_to_node(sym));
        }
        Ok(nodes)
    }

    /// Decodes to the SP-compressed edge sequence (`T'` of §3.1) without
    /// expanding shortest paths.
    pub fn decode_sp_form(&self, cs: &CompressedSpatial) -> Result<Vec<EdgeId>> {
        let nodes = self.decode_nodes(cs)?;
        let trie = self.ac.trie();
        let mut edges = Vec::new();
        for &n in &nodes {
            edges.extend(trie.sub_trajectory(n));
        }
        Ok(edges)
    }

    /// Fully decompresses back to the original spatial path. `O(|T|)`.
    pub fn decompress(&self, cs: &CompressedSpatial) -> Result<Vec<EdgeId>> {
        let spc = self.decode_sp_form(cs)?;
        sp_decompress(self.sp.as_ref(), &spc)
    }

    /// The shortest-path provider.
    pub fn sp(&self) -> &Arc<dyn SpProvider> {
        &self.sp
    }

    /// The sub-trajectory Trie.
    pub fn trie(&self) -> &Trie {
        self.ac.trie()
    }

    /// The Aho–Corasick automaton.
    pub fn automaton(&self) -> &AcAutomaton {
        &self.ac
    }

    /// The Huffman code book.
    pub fn huffman(&self) -> &Huffman {
        &self.huffman
    }

    /// Fully-decompressed distance of a Trie node's sub-trajectory (§5.1).
    #[inline]
    pub fn node_dist(&self, node: TrieNodeId) -> f64 {
        self.node_dist[node as usize]
    }

    /// MBR of a Trie node's fully-decompressed sub-trajectory (§5.2).
    #[inline]
    pub fn node_mbr(&self, node: TrieNodeId) -> &Mbr {
        &self.node_mbr[node as usize]
    }

    /// Sizes of all auxiliary structures (§6.2 report).
    pub fn auxiliary_sizes(&self) -> AuxiliarySizes {
        AuxiliarySizes {
            sp_table_bytes: self.sp.approx_bytes(),
            automaton_bytes: self.ac.approx_bytes(),
            huffman_bytes: self.huffman.approx_bytes(),
            node_dist_bytes: self.node_dist.len() * 8,
            node_mbr_bytes: self.node_mbr.len() * std::mem::size_of::<Mbr>(),
        }
    }
}

impl std::fmt::Debug for HscModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HscModel")
            .field("trie_nodes", &self.trie().num_nodes())
            .field("theta", &self.trie().theta())
            .field("aux_bytes", &self.auxiliary_sizes().total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use press_network::{grid_network, GridConfig, NodeId, RoadNetwork, SpTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_net() -> Arc<RoadNetwork> {
        Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 6,
            weight_jitter: 0.15,
            seed: 3,
            ..GridConfig::default()
        }))
    }

    /// Random non-backtracking walk used as synthetic trajectory.
    fn random_walk(net: &RoadNetwork, rng: &mut StdRng, len: usize) -> Vec<EdgeId> {
        let mut path = Vec::new();
        let mut node = NodeId(rng.gen_range(0..net.num_nodes() as u32));
        for _ in 0..len {
            let candidates: Vec<_> = net
                .out_edges(node)
                .iter()
                .copied()
                .filter(|&e| {
                    path.last()
                        .is_none_or(|&p| net.edge(e).to != net.edge(p).from)
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            let e = candidates[rng.gen_range(0..candidates.len())];
            path.push(e);
            node = net.edge(e).to;
        }
        path
    }

    fn trained_model(net: &Arc<RoadNetwork>) -> HscModel {
        let sp = Arc::new(SpTable::build(net.clone()));
        let mut rng = StdRng::seed_from_u64(11);
        let training: Vec<Vec<EdgeId>> = (0..60).map(|_| random_walk(net, &mut rng, 15)).collect();
        HscModel::train(sp, &training, 3).unwrap()
    }

    #[test]
    fn parallel_corpus_compression_preserves_order() {
        // The work-stealing pass must be indistinguishable from the
        // sequential map, in content and order, for any thread count.
        let net = test_net();
        let sp = Arc::new(SpTable::build(net.clone()));
        let mut rng = StdRng::seed_from_u64(13);
        let training: Vec<Vec<EdgeId>> = (0..64).map(|_| random_walk(&net, &mut rng, 20)).collect();
        let sequential: Vec<Vec<EdgeId>> = training
            .iter()
            .map(|p| sp_compress(sp.as_ref(), p))
            .collect();
        // Pin worker counts explicitly: the auto variant may legitimately
        // fall back to sequential on many-core hosts (corpus too small),
        // which would leave the work-stealing path untested.
        for threads in [2, 4, 7] {
            let parallel = HscModel::sp_compress_corpus_with(sp.as_ref(), &training, threads);
            assert_eq!(sequential, parallel, "order broken at {threads} threads");
        }
        let auto = HscModel::sp_compress_corpus(sp.as_ref(), &training);
        assert_eq!(sequential, auto);
    }

    #[test]
    fn roundtrip_is_lossless() {
        let net = test_net();
        let model = trained_model(&net);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..30 {
            let path = random_walk(&net, &mut rng, 25);
            let cs = model.compress(&path).unwrap();
            assert_eq!(model.decompress(&cs).unwrap(), path, "HSC must be lossless");
        }
    }

    #[test]
    fn dp_roundtrip_is_lossless_too() {
        let net = test_net();
        let model = trained_model(&net);
        let mut rng = StdRng::seed_from_u64(78);
        for _ in 0..10 {
            let path = random_walk(&net, &mut rng, 20);
            let cs = model.compress_with(&path, Decomposer::Dp).unwrap();
            assert_eq!(model.decompress(&cs).unwrap(), path);
        }
    }

    #[test]
    fn dp_never_produces_more_bits_than_greedy() {
        let net = test_net();
        let model = trained_model(&net);
        let mut rng = StdRng::seed_from_u64(79);
        for _ in 0..20 {
            let path = random_walk(&net, &mut rng, 30);
            let g = model.compress_with(&path, Decomposer::Greedy).unwrap();
            let d = model.compress_with(&path, Decomposer::Dp).unwrap();
            assert!(d.bits.len_bits() <= g.bits.len_bits());
        }
    }

    #[test]
    fn empty_path_roundtrip() {
        let net = test_net();
        let model = trained_model(&net);
        let cs = model.compress(&[]).unwrap();
        assert!(cs.bits.is_empty());
        assert!(model.decompress(&cs).unwrap().is_empty());
    }

    #[test]
    fn node_dist_matches_decompressed_weight() {
        let net = test_net();
        let model = trained_model(&net);
        let trie = model.trie();
        for node in trie.node_ids().take(200) {
            let sub = trie.sub_trajectory(node);
            let expanded = sp_decompress(model.sp(), &sub);
            if let Ok(expanded) = expanded {
                let w = net.path_weight(&expanded);
                let d = model.node_dist(node);
                assert!(
                    (w - d).abs() < 1e-6,
                    "node {node}: table {d} vs expanded {w}"
                );
                // MBR covers every edge of the expansion.
                let m = model.node_mbr(node);
                for e in expanded {
                    let em = net.edge_mbr(e);
                    assert!(m.intersects(&em));
                }
            }
        }
    }

    #[test]
    fn compression_shrinks_shortest_path_heavy_traffic() {
        // Trajectories that *are* shortest paths compress extremely well.
        let net = test_net();
        let sp = Arc::new(SpTable::build(net.clone()));
        let mut rng = StdRng::seed_from_u64(5);
        let mut sp_paths = Vec::new();
        for _ in 0..80 {
            let a = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let b = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let tree = press_network::dijkstra(&net, a);
            if let Some(p) = tree.edge_path_to(&net, b) {
                if p.len() >= 4 {
                    sp_paths.push(p);
                }
            }
        }
        let model = HscModel::train(sp, &sp_paths[..40], 3).unwrap();
        let mut orig_bits = 0u64;
        let mut comp_bits = 0u64;
        for p in &sp_paths[40..] {
            let cs = model.compress(p).unwrap();
            orig_bits += p.len() as u64 * 32;
            comp_bits += cs.bits.len_bits();
            assert_eq!(model.decompress(&cs).unwrap(), *p);
        }
        assert!(
            comp_bits * 3 < orig_bits,
            "expected >3x spatial compression on SP-heavy data: {orig_bits} -> {comp_bits}"
        );
    }

    #[test]
    fn auxiliary_sizes_all_populated() {
        let net = test_net();
        let model = trained_model(&net);
        let aux = model.auxiliary_sizes();
        assert!(aux.sp_table_bytes > 0);
        assert!(aux.automaton_bytes > 0);
        assert!(aux.huffman_bytes > 0);
        assert!(aux.node_dist_bytes > 0);
        assert!(aux.node_mbr_bytes > 0);
        assert_eq!(
            aux.total(),
            aux.sp_table_bytes
                + aux.automaton_bytes
                + aux.huffman_bytes
                + aux.node_dist_bytes
                + aux.node_mbr_bytes
        );
    }
}
