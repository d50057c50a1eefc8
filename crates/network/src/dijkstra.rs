//! Single-source shortest paths (Dijkstra) over the road network.
//!
//! Used in three places:
//! * building the all-pair shortest-path table of §3.1 (one tree per node),
//! * the HMM map matcher's transition probabilities (bounded searches),
//! * the MMTC baseline's sub-path replacement search.
//!
//! Ties are broken **canonically**: distances only update on a strict
//! improvement, and when a relaxation reaches a node at exactly its current
//! distance (bit-equal `f64`) through a positive-weight edge, the
//! predecessor switches to the smaller edge id. The resulting tree is
//! therefore a pure function of the distance values — `pred[v]` is the
//! minimum edge id `e = (p, v)` with `dist[p] + w(e) == dist[v]` (float
//! comparison) — and does not depend on heap pop order. That matters
//! beyond determinism: alternative shortest-path backends (the contraction
//! hierarchy in [`crate::ch`]) reproduce the same trees from distances
//! alone, which is what makes every backend bit-identical. The PRESS
//! SP-compression proof (Theorem 1) relies on *one* consistent shortest
//! path per pair, which a single canonical tree per source provides by
//! construction.

use crate::graph::RoadNetwork;
use crate::id::{EdgeId, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry; reversed ordering turns `BinaryHeap` into a min-heap.
#[derive(Copy, Clone, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; tie-break on node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The shortest-path tree rooted at one source node.
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    /// Root of the tree.
    pub source: NodeId,
    /// `dist[v]` — shortest distance from the source to `v`
    /// (`f64::INFINITY` when unreachable).
    pub dist: Vec<f64>,
    /// `pred_edge[v]` — the final edge on the shortest path to `v`.
    pub pred_edge: Vec<Option<EdgeId>>,
}

impl ShortestPathTree {
    /// True if `target` is reachable from the source.
    pub fn reachable(&self, target: NodeId) -> bool {
        self.dist[target.index()].is_finite()
    }

    /// Reconstructs the node-path edges from the source to `target`
    /// (in order). Empty when `target == source`; `None` when unreachable.
    pub fn edge_path_to(&self, net: &RoadNetwork, target: NodeId) -> Option<Vec<EdgeId>> {
        if !self.reachable(target) {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = target;
        while cur != self.source {
            let e = self.pred_edge[cur.index()]?;
            edges.push(e);
            cur = net.edge(e).from;
        }
        edges.reverse();
        Some(edges)
    }
}

/// Runs Dijkstra from `source` over the full network.
pub fn dijkstra(net: &RoadNetwork, source: NodeId) -> ShortestPathTree {
    dijkstra_bounded(net, source, f64::INFINITY)
}

/// Runs Dijkstra from `source` under **custom edge weights** (indexed by
/// edge id). Used by workload generation to route trips under *perceived*
/// (e.g. traffic-dependent) costs that differ from the network's stored
/// weights — the realistic regime in which trajectories are close to, but
/// not exactly, shortest paths.
pub fn dijkstra_with(net: &RoadNetwork, source: NodeId, weights: &[f64]) -> ShortestPathTree {
    assert_eq!(
        weights.len(),
        net.num_edges(),
        "one weight per edge required"
    );
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if settled[u.index()] {
            continue;
        }
        settled[u.index()] = true;
        for &e in net.out_edges(u) {
            let w = weights[e.index()];
            let edge = net.edge(e);
            let v = edge.to;
            let nd = d + w;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                pred_edge[v.index()] = Some(e);
                heap.push(HeapEntry { dist: nd, node: v });
            } else if nd == dist[v.index()]
                && w > 0.0
                && edge.from != edge.to
                && pred_edge[v.index()].is_some_and(|p| e.0 < p.0)
            {
                // Canonical tie-break: among float-tight predecessors,
                // keep the smallest edge id (see module docs).
                pred_edge[v.index()] = Some(e);
            }
        }
    }
    ShortestPathTree {
        source,
        dist,
        pred_edge,
    }
}

/// Runs Dijkstra from `source`, abandoning nodes farther than `max_dist`.
///
/// The returned tree is exact for all nodes with distance `<= max_dist`.
pub fn dijkstra_bounded(net: &RoadNetwork, source: NodeId, max_dist: f64) -> ShortestPathTree {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if settled[u.index()] {
            continue;
        }
        settled[u.index()] = true;
        if d > max_dist {
            break;
        }
        for &e in net.out_edges(u) {
            let edge = net.edge(e);
            let nd = d + edge.weight;
            let v = edge.to;
            if nd < dist[v.index()] {
                // Strict improvement: adopt the new distance and edge.
                dist[v.index()] = nd;
                pred_edge[v.index()] = Some(e);
                heap.push(HeapEntry { dist: nd, node: v });
            } else if nd == dist[v.index()]
                && edge.weight > 0.0
                && edge.from != edge.to
                && pred_edge[v.index()].is_some_and(|p| e.0 < p.0)
            {
                // Canonical tie-break: among float-tight predecessors,
                // keep the smallest edge id (see module docs).
                pred_edge[v.index()] = Some(e);
            }
        }
    }
    ShortestPathTree {
        source,
        dist,
        pred_edge,
    }
}

/// Dijkstra over the **reversed** graph: `dist[v]` is the shortest
/// distance from `v` *to* `target` (`f64::INFINITY` when `target` is not
/// reachable from `v`). One call answers every `d(·, target)` question —
/// the right shape for fixed-destination routing, where querying a
/// per-source provider would pull one tree per visited node.
pub fn reverse_distances(net: &RoadNetwork, target: NodeId) -> Vec<f64> {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[target.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: target,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if settled[u.index()] {
            continue;
        }
        settled[u.index()] = true;
        for &e in net.in_edges(u) {
            let edge = net.edge(e);
            let nd = d + edge.weight;
            if nd < dist[edge.from.index()] {
                dist[edge.from.index()] = nd;
                heap.push(HeapEntry {
                    dist: nd,
                    node: edge.from,
                });
            }
        }
    }
    dist
}

/// Shortest network distance between two nodes; `f64::INFINITY` when
/// unreachable. Terminates as soon as the target is settled.
pub fn node_distance(net: &RoadNetwork, source: NodeId, target: NodeId) -> f64 {
    if source == target {
        return 0.0;
    }
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if settled[u.index()] {
            continue;
        }
        if u == target {
            return d;
        }
        settled[u.index()] = true;
        for &e in net.out_edges(u) {
            let edge = net.edge(e);
            let nd = d + edge.weight;
            if nd < dist[edge.to.index()] {
                dist[edge.to.index()] = nd;
                heap.push(HeapEntry {
                    dist: nd,
                    node: edge.to,
                });
            }
        }
    }
    f64::INFINITY
}

/// Reference all-pairs implementation (Floyd–Warshall) used only by tests to
/// validate Dijkstra and the SP table on small networks.
pub fn floyd_warshall(net: &RoadNetwork) -> Vec<Vec<f64>> {
    let n = net.num_nodes();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for e in net.edge_ids() {
        let edge = net.edge(e);
        let w = edge.weight;
        let (u, v) = (edge.from.index(), edge.to.index());
        if w < d[u][v] {
            d[u][v] = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if d[i][k].is_infinite() {
                continue;
            }
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;

    /// 4-node diamond: v0 -> v1 -> v3 (cost 2), v0 -> v2 -> v3 (cost 3),
    /// and a direct v0 -> v3 (cost 4).
    fn diamond() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 1.0));
        let v2 = b.add_node(Point::new(1.0, -1.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap(); // e0
        b.add_edge(v1, v3, 1.0).unwrap(); // e1
        b.add_edge(v0, v2, 1.0).unwrap(); // e2
        b.add_edge(v2, v3, 2.0).unwrap(); // e3
        b.add_edge(v0, v3, 4.0).unwrap(); // e4
        b.build()
    }

    #[test]
    fn dijkstra_finds_min_distances() {
        let net = diamond();
        let tree = dijkstra(&net, NodeId(0));
        assert_eq!(tree.dist[0], 0.0);
        assert_eq!(tree.dist[1], 1.0);
        assert_eq!(tree.dist[2], 1.0);
        assert_eq!(tree.dist[3], 2.0);
    }

    #[test]
    fn dijkstra_path_reconstruction() {
        let net = diamond();
        let tree = dijkstra(&net, NodeId(0));
        let path = tree.edge_path_to(&net, NodeId(3)).unwrap();
        assert_eq!(path, vec![EdgeId(0), EdgeId(1)]);
        assert!(tree.edge_path_to(&net, NodeId(0)).unwrap().is_empty());
    }

    #[test]
    fn dijkstra_unreachable() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        let net = b.build();
        let tree = dijkstra(&net, NodeId(1));
        assert!(!tree.reachable(NodeId(0)));
        assert!(tree.edge_path_to(&net, NodeId(0)).is_none());
        assert_eq!(node_distance(&net, NodeId(1), NodeId(0)), f64::INFINITY);
    }

    #[test]
    fn bounded_dijkstra_is_exact_within_bound() {
        let net = diamond();
        let tree = dijkstra_bounded(&net, NodeId(0), 1.0);
        assert_eq!(tree.dist[1], 1.0);
        assert_eq!(tree.dist[2], 1.0);
        // v3 at distance 2 may or may not be settled, but never wrong if set.
        if tree.dist[3].is_finite() {
            assert_eq!(tree.dist[3], 2.0);
        }
    }

    #[test]
    fn reverse_distances_match_forward_trees() {
        let net = diamond();
        for target in net.node_ids() {
            let rev = reverse_distances(&net, target);
            for source in net.node_ids() {
                let fwd = dijkstra(&net, source).dist[target.index()];
                assert!(
                    (rev[source.index()] == fwd) || (rev[source.index()] - fwd).abs() < 1e-9,
                    "reverse {} vs forward {} for {source}->{target}",
                    rev[source.index()],
                    fwd
                );
            }
        }
    }

    #[test]
    fn node_distance_matches_tree() {
        let net = diamond();
        let tree = dijkstra(&net, NodeId(0));
        for v in net.node_ids() {
            assert_eq!(node_distance(&net, NodeId(0), v), tree.dist[v.index()]);
        }
    }

    #[test]
    fn dijkstra_agrees_with_floyd_warshall() {
        let net = diamond();
        let fw = floyd_warshall(&net);
        for u in net.node_ids() {
            let tree = dijkstra(&net, u);
            for v in net.node_ids() {
                let a = tree.dist[v.index()];
                let b = fw[u.index()][v.index()];
                assert!(
                    (a == b) || (a - b).abs() < 1e-9,
                    "mismatch {u}->{v}: dijkstra {a} vs fw {b}"
                );
            }
        }
    }

    #[test]
    fn ties_resolve_to_minimum_edge_id() {
        // Two exactly-tied routes into v3; the canonical tree must pick the
        // predecessor with the smaller edge id regardless of heap order.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 1.0));
        let v2 = b.add_node(Point::new(1.0, -1.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap(); // e0
        b.add_edge(v0, v2, 1.0).unwrap(); // e1
        b.add_edge(v1, v3, 1.0).unwrap(); // e2  (tight into v3)
        b.add_edge(v2, v3, 1.0).unwrap(); // e3  (tight into v3, larger id)
        let net = b.build();
        let tree = dijkstra(&net, NodeId(0));
        assert_eq!(tree.pred_edge[3], Some(EdgeId(2)));
        // The rule is order-independent: pred[v] is the minimum edge id e =
        // (p, v) with dist[p] + w(e) == dist[v], checkable after the fact.
        for v in net.node_ids() {
            let Some(p) = tree.pred_edge[v.index()] else {
                continue;
            };
            let canonical = net
                .in_edges(v)
                .iter()
                .copied()
                .find(|&e| {
                    let edge = net.edge(e);
                    edge.from != edge.to
                        && tree.dist[edge.from.index()] + edge.weight == tree.dist[v.index()]
                })
                .unwrap();
            assert_eq!(p, canonical, "non-canonical predecessor for {v}");
        }
    }

    #[test]
    fn deterministic_tree_under_ties() {
        // Two equal-cost parallel routes: tree must pick the same one every run.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 1.0));
        let v2 = b.add_node(Point::new(1.0, -1.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        b.add_edge(v0, v2, 1.0).unwrap();
        b.add_edge(v1, v3, 1.0).unwrap();
        b.add_edge(v2, v3, 1.0).unwrap();
        let net = b.build();
        let p1 = dijkstra(&net, NodeId(0))
            .edge_path_to(&net, NodeId(3))
            .unwrap();
        for _ in 0..10 {
            let p2 = dijkstra(&net, NodeId(0))
                .edge_path_to(&net, NodeId(3))
                .unwrap();
            assert_eq!(p1, p2);
        }
    }
}

#[cfg(test)]
mod dijkstra_with_tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;

    #[test]
    fn custom_weights_change_the_route() {
        // Diamond where the top route is shorter by stored weights but
        // "congested" under perceived weights.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 1.0));
        let v2 = b.add_node(Point::new(1.0, -1.0));
        let v3 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap(); // e0 top-in
        b.add_edge(v1, v3, 1.0).unwrap(); // e1 top-out
        b.add_edge(v0, v2, 2.0).unwrap(); // e2 bottom-in
        b.add_edge(v2, v3, 2.0).unwrap(); // e3 bottom-out
        let net = b.build();
        // Stored weights: top wins.
        let stored = dijkstra(&net, v0).edge_path_to(&net, v3).unwrap();
        assert_eq!(stored, vec![EdgeId(0), EdgeId(1)]);
        // Perceived weights: congestion on the top route.
        let perceived = [10.0, 10.0, 2.0, 2.0];
        let tree = dijkstra_with(&net, v0, &perceived);
        assert_eq!(
            tree.edge_path_to(&net, v3).unwrap(),
            vec![EdgeId(2), EdgeId(3)]
        );
        assert_eq!(tree.dist[v3.index()], 4.0);
    }

    #[test]
    #[should_panic(expected = "one weight per edge")]
    fn wrong_weight_count_panics() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        let net = b.build();
        dijkstra_with(&net, v0, &[]);
    }
}
