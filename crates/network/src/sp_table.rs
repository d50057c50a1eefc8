//! Dense all-pair shortest-path table over *edges* (`SPend`, distances,
//! paths) — the eager [`SpProvider`] backend.
//!
//! Paper §3.1: "We assume that all-pair shortest path information is
//! available via a pre-processing of the road network. [...] We assume
//! `SP(ei, ej)` denotes the shortest path from edge `ei` to edge `ej`, and
//! maintain a structure `SPend(ei, ej)` recording the last edge (the edge
//! right before `ej`) of `SP(ei, ej)` for each pair of edges."
//!
//! The shortest edge path `SP(ei, ej) = ⟨ei, x1, …, xk, ej⟩` is the edge
//! sequence that starts with `ei`, ends with `ej`, and minimizes the summed
//! weight of the *interior* hop from `ei`'s head to `ej`'s tail. It is
//! derived from one Dijkstra tree per node: the interior is the node-level
//! shortest path from `ei.to` to `ej.from`. Because every `SP(ei, ·)` is read
//! off a single predecessor tree (rooted at `ei.to`), shortest paths are
//! *prefix-consistent*: the prefix of `SP(ei, ej)` ending at edge `b` is
//! exactly `SP(ei, b)`. Greedy SP compression (Algorithm 1) and its
//! optimality proof (Theorem 1) rely on this "SP-containment" property.
//!
//! # Choosing a backend
//!
//! Storage here is `O(|V|²)`: one distance and one predecessor edge per
//! node pair, matching the paper's auxiliary-structure accounting in
//! §5.4/§6.2, with `O(1)` lookups and an up-front build of one Dijkstra
//! per node. That is the right trade on networks up to a few thousand
//! nodes (a 16×16 evaluation grid costs ~0.8 MB; 10k nodes ≈ 1.2 GB) and
//! makes this table the **correctness oracle** the property tests compare
//! against. Beyond that the quadratic RAM wall dominates — a 100k-node
//! metro network would need ~120 GB — and the
//! [`ContractionHierarchy`](crate::ContractionHierarchy) or
//! [`HubLabels`](crate::HubLabels) take over. Derived queries (`SPend`,
//! gaps, MBRs) live on the [`SpProvider`] trait so every backend shares
//! one implementation.

use crate::dijkstra::dijkstra;
use crate::graph::RoadNetwork;
use crate::id::{EdgeId, NodeId};
use crate::provider::SpProvider;
use std::sync::Arc;

/// Sentinel for "no predecessor edge" in the packed table.
const NO_PRED: u32 = u32::MAX;

/// Precomputed all-pair shortest-path information for a road network.
///
/// Built once per network (the paper treats it as a static structure reused
/// across compression runs); cheap to share via `Arc`.
#[derive(Clone)]
pub struct SpTable {
    net: Arc<RoadNetwork>,
    n: usize,
    /// `dist[u * n + v]`: shortest node distance from `u` to `v`.
    dist: Vec<f64>,
    /// `pred[u * n + v]`: final edge on the shortest path `u → v`
    /// (`NO_PRED` when `v` is unreachable or `v == u`).
    pred: Vec<u32>,
}

impl SpTable {
    /// Builds the table by running one Dijkstra per node, in parallel across
    /// available cores.
    pub fn build(net: Arc<RoadNetwork>) -> Self {
        let n = net.num_nodes();
        let mut dist = vec![f64::INFINITY; n * n];
        let mut pred = vec![NO_PRED; n * n];
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n.max(1));
        let chunk = n.div_ceil(threads.max(1)).max(1);
        let dist_chunks: Vec<&mut [f64]> = dist.chunks_mut(chunk * n).collect();
        let pred_chunks: Vec<&mut [u32]> = pred.chunks_mut(chunk * n).collect();
        std::thread::scope(|scope| {
            for (t, (dch, pch)) in dist_chunks.into_iter().zip(pred_chunks).enumerate() {
                let net = &net;
                scope.spawn(move || {
                    let first = t * chunk;
                    for (row, u) in (first..(first + chunk).min(n)).enumerate() {
                        let tree = dijkstra(net, NodeId(u as u32));
                        let dst = &mut dch[row * n..(row + 1) * n];
                        dst.copy_from_slice(&tree.dist);
                        let pdst = &mut pch[row * n..(row + 1) * n];
                        for (v, pe) in tree.pred_edge.iter().enumerate() {
                            pdst[v] = pe.map_or(NO_PRED, |e| e.0);
                        }
                    }
                });
            }
        });
        SpTable { net, n, dist, pred }
    }

    // -----------------------------------------------------------------
    // Persistence (press-store artifact tier)
    // -----------------------------------------------------------------

    /// Serializes the table (distances as IEEE bit patterns, predecessors
    /// as packed `u32`) into a [`press_store`] container. The network is
    /// **not** embedded — it is persisted separately and supplied again
    /// on [`SpTable::load_from`], which validates the node count.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let mut meta = press_store::ByteWriter::with_capacity(8);
        meta.put_u64(self.n as u64);
        let mut dist = press_store::ByteWriter::with_capacity(self.dist.len() * 8);
        for &d in &self.dist {
            dist.put_f64(d);
        }
        let mut pred = press_store::ByteWriter::with_capacity(self.pred.len() * 4);
        for &p in &self.pred {
            pred.put_u32(p);
        }
        let mut w = press_store::StoreWriter::new(press_store::kind::SP_TABLE);
        w.section("meta", meta.into_bytes());
        w.section("dist", dist.into_bytes());
        w.section("pred", pred.into_bytes());
        w.to_bytes()
    }

    /// Writes the table artifact to `path` atomically (tmp + fsync + rename).
    pub fn save_to(&self, path: &std::path::Path) -> press_store::Result<()> {
        press_store::atomic_write_file(&press_store::RealIo, path, &self.to_store_bytes())?;
        Ok(())
    }

    /// Reconstructs a table over `net` from container bytes. The loaded
    /// table is field-for-field identical to the one [`SpTable::build`]
    /// produces, so every lookup is bit-identical.
    pub fn from_store_bytes(net: Arc<RoadNetwork>, bytes: Vec<u8>) -> press_store::Result<SpTable> {
        use press_store::StoreError;
        let file = press_store::StoreFile::from_bytes(bytes)?;
        file.expect_kind(press_store::kind::SP_TABLE)?;
        let mut meta = file.reader("meta")?;
        let n = meta.get_len(u32::MAX as usize, "node")?;
        meta.expect_end("meta")?;
        if n != net.num_nodes() {
            return Err(StoreError::Corrupt(format!(
                "table covers {n} nodes but the network has {}",
                net.num_nodes()
            )));
        }
        let cells = n
            .checked_mul(n)
            .ok_or_else(|| StoreError::Corrupt(format!("{n}x{n} table overflows usize")))?;
        let dist_bytes = file.section("dist")?;
        if dist_bytes.len() != cells * 8 {
            return Err(StoreError::Corrupt(format!(
                "dist section holds {} bytes, expected {}",
                dist_bytes.len(),
                cells * 8
            )));
        }
        let dist: Vec<f64> = dist_bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect();
        let pred_bytes = file.section("pred")?;
        if pred_bytes.len() != cells * 4 {
            return Err(StoreError::Corrupt(format!(
                "pred section holds {} bytes, expected {}",
                pred_bytes.len(),
                cells * 4
            )));
        }
        let pred: Vec<u32> = pred_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        for (i, &p) in pred.iter().enumerate() {
            if p != NO_PRED && p as usize >= net.num_edges() {
                return Err(StoreError::Corrupt(format!(
                    "pred cell {i} references edge {p} outside the network's {} edges",
                    net.num_edges()
                )));
            }
        }
        Ok(SpTable { net, n, dist, pred })
    }

    /// Loads a table artifact from `path` (one contiguous read).
    pub fn load_from(
        net: Arc<RoadNetwork>,
        path: &std::path::Path,
    ) -> press_store::Result<SpTable> {
        Self::from_store_bytes(net, std::fs::read(path)?)
    }
}

impl SpProvider for SpTable {
    fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    #[inline]
    fn node_dist(&self, u: NodeId, v: NodeId) -> f64 {
        self.dist[u.index() * self.n + v.index()]
    }

    #[inline]
    fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        match self.pred[u.index() * self.n + v.index()] {
            NO_PRED => None,
            e => Some(EdgeId(e)),
        }
    }

    fn approx_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<f64>() + self.pred.len() * std::mem::size_of::<u32>()
    }
}

impl std::fmt::Debug for SpTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpTable")
            .field("nodes", &self.n)
            .field("bytes", &self.approx_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::floyd_warshall;
    use crate::generators::{grid_network, GridConfig};
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;

    /// The partial road network of the paper's Fig. 4 is approximated here by
    /// a small network where a multi-hop shortest path exists between two
    /// non-adjacent edges.
    fn line_with_detour() -> Arc<RoadNetwork> {
        // v0 --e0--> v1 --e1--> v2 --e2--> v3, plus detour v1 --e3--> v4 --e4--> v2 (longer)
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let v2 = b.add_node(Point::new(2.0, 0.0));
        let v3 = b.add_node(Point::new(3.0, 0.0));
        let v4 = b.add_node(Point::new(1.5, 1.0));
        b.add_edge(v0, v1, 1.0).unwrap(); // e0
        b.add_edge(v1, v2, 1.0).unwrap(); // e1
        b.add_edge(v2, v3, 1.0).unwrap(); // e2
        b.add_edge(v1, v4, 2.0).unwrap(); // e3
        b.add_edge(v4, v2, 2.0).unwrap(); // e4
        Arc::new(b.build())
    }

    #[test]
    fn sp_end_adjacent_is_first_edge() {
        let net = line_with_detour();
        let t = SpTable::build(net);
        assert_eq!(t.sp_end(EdgeId(0), EdgeId(1)), Some(EdgeId(0)));
    }

    #[test]
    fn sp_end_multi_hop() {
        let net = line_with_detour();
        let t = SpTable::build(net);
        // SP(e0, e2) = <e0, e1, e2>; edge before e2 is e1.
        assert_eq!(t.sp_end(EdgeId(0), EdgeId(2)), Some(EdgeId(1)));
    }

    #[test]
    fn sp_path_reconstruction() {
        let net = line_with_detour();
        let t = SpTable::build(net);
        assert_eq!(
            t.sp_path(EdgeId(0), EdgeId(2)).unwrap(),
            vec![EdgeId(0), EdgeId(1), EdgeId(2)]
        );
        assert_eq!(
            t.sp_path(EdgeId(0), EdgeId(1)).unwrap(),
            vec![EdgeId(0), EdgeId(1)]
        );
        // Detour edges: SP(e3, e2) = <e3, e4, e2>.
        assert_eq!(
            t.sp_path(EdgeId(3), EdgeId(2)).unwrap(),
            vec![EdgeId(3), EdgeId(4), EdgeId(2)]
        );
    }

    #[test]
    fn gap_and_total_weight() {
        let net = line_with_detour();
        let t = SpTable::build(net);
        assert_eq!(t.gap_dist(EdgeId(0), EdgeId(1)), 0.0);
        assert_eq!(t.gap_dist(EdgeId(0), EdgeId(2)), 1.0);
        assert_eq!(t.sp_weight(EdgeId(0), EdgeId(2)), 3.0);
    }

    #[test]
    fn unreachable_pairs() {
        let net = line_with_detour();
        let t = SpTable::build(net);
        // Nothing leads back to e0.
        assert_eq!(t.sp_end(EdgeId(2), EdgeId(0)), None);
        assert!(!t.reachable(EdgeId(2), EdgeId(0)));
        assert!(t.sp_path(EdgeId(2), EdgeId(0)).is_none());
        assert!(t.sp_mbr(EdgeId(2), EdgeId(0)).is_none());
        assert_eq!(t.sp_end(EdgeId(1), EdgeId(1)), None);
    }

    #[test]
    fn node_dist_matches_floyd_warshall() {
        let net = line_with_detour();
        let fw = floyd_warshall(&net);
        let t = SpTable::build(net.clone());
        for u in net.node_ids() {
            for v in net.node_ids() {
                let a = t.node_dist(u, v);
                let b = fw[u.index()][v.index()];
                assert!((a == b) || (a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn prefix_consistency_on_grid() {
        // SP-containment: for any pair (ei, ej), the prefix of SP(ei, ej)
        // ending at its second-to-last edge b must equal SP(ei, b).
        let net = Arc::new(grid_network(&GridConfig {
            nx: 4,
            ny: 4,
            spacing: 100.0,
            ..GridConfig::default()
        }));
        let t = SpTable::build(net.clone());
        let edges: Vec<EdgeId> = net.edge_ids().collect();
        for &ei in edges.iter().take(12) {
            for &ej in edges.iter().rev().take(12) {
                if ei == ej || !t.reachable(ei, ej) {
                    continue;
                }
                let path = t.sp_path(ei, ej).unwrap();
                if path.len() >= 3 {
                    let b = path[path.len() - 2];
                    let prefix = &path[..path.len() - 1];
                    let sp_prefix = t.sp_path(ei, b).unwrap();
                    assert_eq!(
                        prefix,
                        &sp_prefix[..],
                        "prefix of SP({ei},{ej}) != SP({ei},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn sp_mbr_covers_path_edges() {
        let net = line_with_detour();
        let t = SpTable::build(net.clone());
        let mbr = t.sp_mbr(EdgeId(3), EdgeId(2)).unwrap();
        assert!(mbr.contains(&Point::new(1.5, 1.0))); // detour vertex v4
        assert!(mbr.contains(&Point::new(3.0, 0.0)));
    }

    #[test]
    fn approx_bytes_scales_quadratically() {
        let net = line_with_detour();
        let t = SpTable::build(net);
        assert_eq!(t.approx_bytes(), 5 * 5 * (8 + 4));
    }

    #[test]
    fn store_roundtrip_is_bit_identical() {
        let net = line_with_detour();
        let built = SpTable::build(net.clone());
        let loaded = SpTable::from_store_bytes(net.clone(), built.to_store_bytes()).unwrap();
        assert_eq!(loaded.n, built.n);
        for (a, b) in built.dist.iter().zip(&loaded.dist) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(built.pred, loaded.pred);
        // Wrong network size is a typed error, not a panic.
        let tiny = {
            let mut b = RoadNetworkBuilder::new();
            b.add_node(Point::new(0.0, 0.0));
            Arc::new(b.build())
        };
        assert!(matches!(
            SpTable::from_store_bytes(tiny, built.to_store_bytes()),
            Err(press_store::StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn usable_as_a_provider_object() {
        let net = line_with_detour();
        let provider: Arc<dyn SpProvider> = Arc::new(SpTable::build(net));
        assert_eq!(provider.sp_end(EdgeId(0), EdgeId(2)), Some(EdgeId(1)));
        assert!(provider.source_tree(NodeId(0)).is_none());
    }
}
