//! The shortest-path **provider** abstraction — the seam between "how
//! shortest-path facts are stored" and "who consumes them".
//!
//! The paper (§3.1) assumes all-pair shortest-path information exists via
//! pre-processing; the seed implementation took that literally and baked
//! an `O(|V|²)` table into every consumer. [`SpProvider`] inverts that:
//! compression (§3), the query processor (§5) and the experiment harness
//! all speak to this trait, and the *backend* decides the time/space
//! trade-off:
//!
//! * [`SpTable`](crate::SpTable) — the dense table. `O(|V|²)` memory,
//!   `O(1)` lookups. Right for small networks, and the correctness oracle
//!   for everything else.
//! * [`ContractionHierarchy`](crate::ContractionHierarchy) — a node
//!   hierarchy with shortcut arcs, preprocessed once in
//!   `O(|V| + shortcuts)` memory; random point queries resolve via
//!   bidirectional upward search, with no per-source state at all.
//! * [`HubLabels`](crate::HubLabels) — 2-hop labels precomputed from the
//!   CH order: per-node sorted hub arrays answering random point queries
//!   by a flat merge in microseconds, trading ~10× the CH memory for
//!   ~100× its lookup speed. The backend for lookup-dominated serving.
//!
//! CH and HL need strictly positive edge weights; a network with a
//! zero-weight edge is served by the dense table only.
//!
//! All three backends derive every query from the same **canonical**
//! shortest-path trees (see [`crate::dijkstra`](mod@crate::dijkstra) for the tie-break rule),
//! so their answers are **bit-identical** (property-tested in
//! `tests/properties.rs`) — the prefix-consistency that Theorem 1's
//! optimality proof needs holds for any of them. [`SpBackend`] is the
//! value-level selector used by configuration surfaces (bench
//! environments, examples).

use crate::dijkstra::ShortestPathTree;
use crate::geometry::Mbr;
use crate::graph::RoadNetwork;
use crate::id::{EdgeId, NodeId};
use std::sync::Arc;

/// Source of shortest-path facts over one road network.
///
/// Only four methods are backend-specific; everything the paper's
/// algorithms consume (`SPend`, gap distances, path expansion, MBRs) is
/// derived in default methods, so the derived semantics — including the
/// SP-containment property Theorem 1 relies on — are shared by
/// construction. Backends may still override the derived methods (the CH
/// and HL backends answer `sp_interior` with one probe walk).
pub trait SpProvider: Send + Sync {
    /// The underlying network.
    fn network(&self) -> &Arc<RoadNetwork>;

    /// Shortest node-to-node distance; `f64::INFINITY` when unreachable.
    fn node_dist(&self, u: NodeId, v: NodeId) -> f64;

    /// Final edge on the shortest node path `u → v` (`None` when `v` is
    /// unreachable or `v == u`).
    fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId>;

    /// Approximate current in-memory footprint in bytes (for the §6.2
    /// auxiliary-structure report).
    fn approx_bytes(&self) -> usize;

    /// Interior ("gap") distance of `SP(ei, ej)`: summed weight of the
    /// edges strictly between `ei` and `ej`. Zero when the edges are
    /// consecutive; `f64::INFINITY` when no path exists.
    #[inline]
    fn gap_dist(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        let net = self.network();
        let a = net.edge(ei);
        let b = net.edge(ej);
        self.node_dist(a.to, b.from)
    }

    /// Total weight of `SP(ei, ej)` including both end edges;
    /// `f64::INFINITY` when no path exists.
    #[inline]
    fn sp_weight(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        let gap = self.gap_dist(ei, ej);
        if gap.is_finite() {
            let net = self.network();
            net.weight(ei) + gap + net.weight(ej)
        } else {
            f64::INFINITY
        }
    }

    /// `SPend(ei, ej)` — the edge right before `ej` on `SP(ei, ej)` (§3.1).
    ///
    /// When `ej` directly follows `ei`, this is `ei` itself. `None` when
    /// `ej` is unreachable from `ei` or when `ei == ej`.
    fn sp_end(&self, ei: EdgeId, ej: EdgeId) -> Option<EdgeId> {
        if ei == ej {
            return None;
        }
        let net = self.network();
        let a = net.edge(ei);
        let b = net.edge(ej);
        if a.to == b.from {
            return Some(ei);
        }
        self.pred_edge(a.to, b.from)
    }

    /// True when `ej` is reachable from `ei` by some edge path.
    fn reachable(&self, ei: EdgeId, ej: EdgeId) -> bool {
        self.gap_dist(ei, ej).is_finite()
    }

    /// The edges strictly between `ei` and `ej` on `SP(ei, ej)`, in path
    /// order. Empty when the edges are consecutive; `None` when
    /// unreachable (or `ei == ej`, which has no defined interior).
    fn sp_interior(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        if ei == ej {
            return None;
        }
        let net = self.network().clone();
        let a = net.edge(ei);
        let b = net.edge(ej);
        if a.to == b.from {
            return Some(Vec::new());
        }
        if !self.node_dist(a.to, b.from).is_finite() {
            return None;
        }
        let mut interior = Vec::new();
        let mut cur = b.from;
        while cur != a.to {
            let e = self.pred_edge(a.to, cur)?;
            interior.push(e);
            cur = net.edge(e).from;
        }
        interior.reverse();
        Some(interior)
    }

    /// Reconstructs the full edge sequence of `SP(ei, ej)`, including `ei`
    /// and `ej`. `None` when unreachable. Reconstruction walks `SPend`
    /// backwards exactly as the decompression procedure of §3.1 describes,
    /// so its cost is the length of the shortest path.
    fn sp_path(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        let mut interior = self.sp_interior(ei, ej)?;
        let mut path = Vec::with_capacity(interior.len() + 2);
        path.push(ei);
        path.append(&mut interior);
        path.push(ej);
        Some(path)
    }

    /// MBR of the embedding of `SP(ei, ej)` (used by `whenat`/`range`
    /// pruning, §5.2). `None` when unreachable.
    fn sp_mbr(&self, ei: EdgeId, ej: EdgeId) -> Option<Mbr> {
        let net = self.network().clone();
        let path = self.sp_path(ei, ej)?;
        let mut mbr = Mbr::empty();
        for e in path {
            mbr.expand(&net.edge_mbr(e));
        }
        Some(mbr)
    }

    /// The full shortest-path tree rooted at `source`, when the backend
    /// can hand one out cheaply (`None` means "derive what you need from
    /// the point lookups instead"). Consumers that stream many lookups
    /// against one source (unit expansion, gap walks) use this to avoid
    /// per-call cache traffic.
    fn source_tree(&self, _source: NodeId) -> Option<Arc<ShortestPathTree>> {
        None
    }
}

/// Forwarding impl so an `&Arc<dyn SpProvider>` (or `&Arc<SpTable>`)
/// coerces straight into `&dyn SpProvider` at call sites. Every method —
/// including the derived ones — forwards to the inner provider, so
/// backend overrides (e.g. the CH and HL one-probe `sp_interior` walks)
/// are never bypassed by the trait defaults.
impl<P: SpProvider + ?Sized> SpProvider for Arc<P> {
    fn network(&self) -> &Arc<RoadNetwork> {
        (**self).network()
    }
    fn node_dist(&self, u: NodeId, v: NodeId) -> f64 {
        (**self).node_dist(u, v)
    }
    fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        (**self).pred_edge(u, v)
    }
    fn approx_bytes(&self) -> usize {
        (**self).approx_bytes()
    }
    fn gap_dist(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        (**self).gap_dist(ei, ej)
    }
    fn sp_weight(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        (**self).sp_weight(ei, ej)
    }
    fn sp_end(&self, ei: EdgeId, ej: EdgeId) -> Option<EdgeId> {
        (**self).sp_end(ei, ej)
    }
    fn reachable(&self, ei: EdgeId, ej: EdgeId) -> bool {
        (**self).reachable(ei, ej)
    }
    fn sp_interior(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        (**self).sp_interior(ei, ej)
    }
    fn sp_path(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        (**self).sp_path(ei, ej)
    }
    fn sp_mbr(&self, ei: EdgeId, ej: EdgeId) -> Option<Mbr> {
        (**self).sp_mbr(ei, ej)
    }
    fn source_tree(&self, source: NodeId) -> Option<Arc<ShortestPathTree>> {
        (**self).source_tree(source)
    }
}

/// Value-level backend selector for configuration surfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpBackend {
    /// Eager dense all-pair table ([`SpTable`](crate::SpTable)):
    /// `O(|V|²)` memory, built up front.
    Dense,
    /// Contraction hierarchy
    /// ([`ContractionHierarchy`](crate::ContractionHierarchy)):
    /// `O(|V| + shortcuts)` memory, sub-millisecond point queries after a
    /// one-time preprocessing pass. Requires strictly positive edge
    /// weights.
    Ch,
    /// 2-hop hub labels ([`HubLabels`](crate::HubLabels)) computed from
    /// the CH order: ~10× the CH memory for point lookups that are a
    /// flat sorted merge (single-digit microseconds at 100k nodes).
    /// Requires strictly positive edge weights.
    Hl,
}

impl SpBackend {
    /// Builds the selected provider over `net`, preprocessing with one
    /// worker per available core where the backend parallelizes (the
    /// CH contraction rounds and the HL label pass). Results are
    /// bit-identical for any worker count, so this is always safe.
    pub fn build(self, net: Arc<RoadNetwork>) -> Arc<dyn SpProvider> {
        self.build_with_threads(net, 0)
    }

    /// [`SpBackend::build`] with an explicit preprocessing worker count
    /// (`0` = one per available core; see [`crate::ChConfig::threads`]).
    /// Purely a throughput knob — the built provider answers every query
    /// bit-identically for any value.
    pub fn build_with_threads(self, net: Arc<RoadNetwork>, threads: usize) -> Arc<dyn SpProvider> {
        match self {
            SpBackend::Dense => Arc::new(crate::sp_table::SpTable::build(net)),
            SpBackend::Ch => Arc::new(crate::ch::ContractionHierarchy::build_with(
                net,
                crate::ch::ChConfig {
                    threads,
                    ..crate::ch::ChConfig::default()
                },
            )),
            SpBackend::Hl => Arc::new(crate::hub_labels::HubLabels::build_with_threads(
                net, threads,
            )),
        }
    }
}
