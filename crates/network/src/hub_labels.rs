//! 2-hop **hub labels** — the fastest-lookup [`SpProvider`] backend,
//! built from the contraction-hierarchy order.
//!
//! A [`ContractionHierarchy`] answers a point query with a bidirectional
//! upward *search*: two Dijkstra frontiers over the up-arc graphs, a heap
//! and a versioned label array each, meeting at an apex. Hub labeling
//! **precomputes those frontiers**. For every node `v` we run the forward
//! upward search to exhaustion once and store its settled set — the
//! *forward label* `L↑(v)`: pairs `(hub, dist)` with the parent arc that
//! reached the hub — and symmetrically the backward upward search as the
//! *backward label* `L↓(v)`. The 2-hop cover property of CH (every
//! shortest path has an up-down representation whose apex survives
//! stall-on-demand pruning) guarantees
//!
//! ```text
//! d(s, t) = min over h ∈ L↑(s) ∩ L↓(t) of  d↑(s, h) + d↓(h, t)
//! ```
//!
//! so a query is a **sorted merge of two flat arrays** — no heap, no
//! versioned scratch, no graph traversal. At 102k nodes that turns the
//! ~1.4 ms CH search into a few microseconds: the merge touches a few
//! hundred label entries, and the remaining cost is unpacking the winning
//! up-down path to re-accumulate its exact weight (see below). The price
//! is memory: labels store the whole search space per node per direction
//! (~10× the CH footprint), the classic precompute-then-probe trade.
//!
//! # Construction
//!
//! Labels are **independent per node**: one exhaustive upward Dijkstra
//! per direction per node over the already-built CH search graphs, with
//! the same *strict* stall-on-demand rule the CH query uses (a settled
//! node whose label is strictly beaten by a detour over a higher-ranked
//! neighbor is pruned from the label; strictness keeps exactly-tied
//! apexes alive, preserving canonical tie handling). Independence makes
//! the build embarrassingly parallel — [`HubLabels::from_ch`] fans out
//! over the shared [`work_steal_map`](crate::parallel::work_steal_map)
//! loop, and the result is **bit-identical for any thread count** because
//! each label is a pure function of the hierarchy.
//!
//! # Bit-identical answers
//!
//! The same discipline as the CH backend (see [`crate::ch`], "Bit-identical
//! answers"): label distances are only used to *select* the meet hub;
//! the returned distance is re-accumulated **left-to-right over the
//! unpacked original edges** — the exact float-addition order canonical
//! Dijkstra uses — and `pred_edge`/`sp_interior` walk the canonical
//! tight-edge equation `node_dist(u, p) + w(e) == node_dist(u, v)`.
//! Every label entry carries the parent arc of its search tree, so the
//! winning up-down path unpacks without touching any graph: forward
//! parents chain the hub back to `s`, backward parents chain it down
//! to `t`, and each arc expands to original edges via the carried
//! arc table carried from the hierarchy.
//!
//! Precondition: strictly positive edge weights (inherited from the
//! hierarchy the labels are built from).

use crate::ch::{expand_arc, ChArc, ContractionHierarchy, QueueEntry, NO_ARC};
use crate::graph::RoadNetwork;
use crate::id::{EdgeId, NodeId};
use crate::provider::SpProvider;
use press_store::FlatSlice;
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One direction's labels for all nodes, in flat CSR storage: node `v`'s
/// entries live at `index[v]..index[v+1]`, sorted by hub id (which is
/// what makes the query a sorted merge). `parent` is the arc (into the
/// carried arc table) that reached the hub in `v`'s search tree —
/// [`NO_ARC`] exactly for the self entry `(v, 0.0)`.
///
/// The arrays are [`FlatSlice`]s: owned after a build, zero-copy borrows
/// of the artifact's flat sections after a load (mapped or owned, see
/// [`MappedHubLabels`]) — `Deref` keeps the query code identical.
struct LabelSet {
    index: FlatSlice<u32>,
    hub: FlatSlice<u32>,
    dist: FlatSlice<f64>,
    parent: FlatSlice<u32>,
}

impl LabelSet {
    /// Entry range of node `v`.
    #[inline]
    fn range(&self, v: NodeId) -> (usize, usize) {
        (
            self.index[v.index()] as usize,
            self.index[v.index() + 1] as usize,
        )
    }

    /// Position of `hub` within `v`'s entries, if present.
    #[inline]
    fn find(&self, v: NodeId, hub: u32) -> Option<usize> {
        let (lo, hi) = self.range(v);
        self.hub[lo..hi].binary_search(&hub).ok().map(|k| lo + k)
    }

    fn bytes(&self) -> usize {
        self.index.len() * 4 + self.hub.len() * (4 + 8 + 4)
    }
}

/// Reusable per-thread search state for label construction: versioned
/// arrays so "reset" is an integer bump, shared across the many
/// single-source searches one worker runs.
#[derive(Default)]
struct LabelScratch {
    ver: u32,
    dist: Vec<f64>,
    par: Vec<u32>,
    verv: Vec<u32>,
    heap: BinaryHeap<QueueEntry>,
}

thread_local! {
    static SCRATCH: RefCell<LabelScratch> = RefCell::new(LabelScratch::default());
    /// Reusable (arc chain, edge) buffers for the distance-only query
    /// path, so `node_dist` performs no per-lookup heap allocation.
    static QUERY_BUFS: RefCell<(Vec<u32>, Vec<EdgeId>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// One label entry as produced by the search: (hub, dist, parent arc).
type RawEntry = (u32, f64, u32);

/// One node's raw labels as produced by the parallel pass: (forward,
/// backward).
type RawNodeLabels = (Vec<RawEntry>, Vec<RawEntry>);

/// Exhaustive upward Dijkstra from `source` over one CH search graph with
/// strict stall-on-demand; the settled, non-stalled nodes (with final
/// distances and parent arcs) are the label, sorted by hub id. Crate-
/// visible so the CH backend can materialize one-off labels for its
/// probe-based canonical walk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn label_search(
    arcs: &[ChArc],
    index: &[u32],
    arc_ids: &[u32],
    stall_index: &[u32],
    stall_arc_ids: &[u32],
    forward: bool,
    source: NodeId,
    out: &mut Vec<RawEntry>,
) {
    let n = index.len() - 1;
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        if s.dist.len() < n {
            s.dist.resize(n, f64::INFINITY);
            s.par.resize(n, NO_ARC);
            s.verv.resize(n, 0);
        }
        if s.ver == u32::MAX {
            s.verv.fill(0);
            s.ver = 0;
        }
        s.ver += 1;
        let ver = s.ver;
        s.heap.clear();
        let si = source.index();
        s.dist[si] = 0.0;
        s.par[si] = NO_ARC;
        s.verv[si] = ver;
        s.heap.push(QueueEntry {
            dist: 0.0,
            node: source.0,
        });
        while let Some(QueueEntry { dist: d, node: x }) = s.heap.pop() {
            let xi = x as usize;
            if d > s.dist[xi] {
                continue; // stale
            }
            // Stall-on-demand, exactly as the CH query prunes: a strictly
            // better label through a higher-ranked neighbor proves x is
            // off every minimal up-down path, so it never becomes a hub.
            let mut stalled = false;
            for &aid in &stall_arc_ids[stall_index[xi] as usize..stall_index[xi + 1] as usize] {
                let arc = arcs[aid as usize];
                let c = if forward { arc.tail } else { arc.head };
                let ci = c.index();
                if s.verv[ci] == ver && s.dist[ci] + arc.weight < d {
                    stalled = true;
                    break;
                }
            }
            if stalled {
                continue;
            }
            out.push((x, d, s.par[xi]));
            for &aid in &arc_ids[index[xi] as usize..index[xi + 1] as usize] {
                let arc = arcs[aid as usize];
                let y = if forward { arc.head } else { arc.tail };
                let yi = y.index();
                let nd = d + arc.weight;
                if s.verv[yi] != ver || nd < s.dist[yi] {
                    s.dist[yi] = nd;
                    s.par[yi] = aid;
                    s.verv[yi] = ver;
                    s.heap.push(QueueEntry {
                        dist: nd,
                        node: y.0,
                    });
                }
            }
        }
    });
    out.sort_unstable_by_key(|e| e.0);
}

/// A built hub labeling over one road network; see module docs.
pub struct HubLabels {
    net: Arc<RoadNetwork>,
    /// The augmented arc set of the hierarchy the labels were built from
    /// (originals first, then shortcuts) — label parent pointers index
    /// into it, and unpack through it to original edges.
    arcs: Vec<ChArc>,
    fwd: LabelSet,
    bwd: LabelSet,
}

impl HubLabels {
    /// Builds labels from scratch: contracts the network with default
    /// tuning (batched rounds over every available core), then labels it
    /// with one worker per available core. Both stages are bit-identical
    /// for any core count.
    pub fn build(net: Arc<RoadNetwork>) -> Self {
        Self::build_with_threads(net, 0)
    }

    /// [`HubLabels::build`] with an explicit worker count for both
    /// stages — the contraction rounds and the label pass (`0` = one per
    /// available core). Purely a throughput knob; the labeling is
    /// bit-identical for any value.
    pub fn build_with_threads(net: Arc<RoadNetwork>, threads: usize) -> Self {
        let ch = ContractionHierarchy::build_with(
            net,
            crate::ch::ChConfig {
                threads,
                ..crate::ch::ChConfig::default()
            },
        );
        Self::from_ch(&ch, threads)
    }

    /// Builds labels from an existing hierarchy. `threads == 0` means one
    /// worker per available core. The result is **bit-identical for any
    /// thread count**: each node's label is an independent pure function
    /// of the hierarchy, computed via the shared
    /// [`work_steal_map`](crate::parallel::work_steal_map) loop.
    pub fn from_ch(ch: &ContractionHierarchy, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let n = ch.net.num_nodes();
        let nodes: Vec<u32> = (0..n as u32).collect();
        let per_node: Vec<RawNodeLabels> =
            crate::parallel::work_steal_map(&nodes, threads, |_, &v| {
                let mut fwd = Vec::new();
                let mut bwd = Vec::new();
                label_search(
                    &ch.arcs,
                    &ch.fwd_index,
                    &ch.fwd_arcs,
                    &ch.bwd_index,
                    &ch.bwd_arcs,
                    true,
                    NodeId(v),
                    &mut fwd,
                );
                label_search(
                    &ch.arcs,
                    &ch.bwd_index,
                    &ch.bwd_arcs,
                    &ch.fwd_index,
                    &ch.fwd_arcs,
                    false,
                    NodeId(v),
                    &mut bwd,
                );
                (fwd, bwd)
            });
        let assemble = |pick: fn(&RawNodeLabels) -> &Vec<RawEntry>| {
            let total: usize = per_node.iter().map(|p| pick(p).len()).sum();
            let mut index = Vec::with_capacity(n + 1);
            let mut hub = Vec::with_capacity(total);
            let mut dist = Vec::with_capacity(total);
            let mut parent = Vec::with_capacity(total);
            index.push(0);
            for p in &per_node {
                for &(h, d, pa) in pick(p) {
                    hub.push(h);
                    dist.push(d);
                    parent.push(pa);
                }
                index.push(hub.len() as u32);
            }
            LabelSet {
                index: index.into(),
                hub: hub.into(),
                dist: dist.into(),
                parent: parent.into(),
            }
        };
        assert!(
            per_node
                .iter()
                .map(|p| p.0.len() + p.1.len())
                .sum::<usize>()
                <= u32::MAX as usize,
            "label entry count overflows the CSR index type"
        );
        HubLabels {
            net: ch.net.clone(),
            arcs: ch.arcs.clone(),
            fwd: assemble(|p| &p.0),
            bwd: assemble(|p| &p.1),
        }
    }

    /// Total label entries across both directions.
    pub fn num_label_entries(&self) -> usize {
        self.fwd.hub.len() + self.bwd.hub.len()
    }

    /// Mean label entries per node per direction — the expected cost of
    /// one merge (and the memory driver).
    pub fn avg_label_len(&self) -> f64 {
        self.num_label_entries() as f64 / (2 * self.net.num_nodes().max(1)) as f64
    }

    /// The sorted merge itself: positions of the winning meet hub in
    /// `s`'s forward and `t`'s backward label, or `None` when the labels
    /// share no hub (unreachable).
    fn meet(&self, s: NodeId, t: NodeId) -> Option<(usize, usize)> {
        let (mut i, fhi) = self.fwd.range(s);
        let (mut j, bhi) = self.bwd.range(t);
        let mut best = f64::INFINITY;
        let mut meet: Option<(usize, usize)> = None;
        while i < fhi && j < bhi {
            let hf = self.fwd.hub[i];
            let hb = self.bwd.hub[j];
            if hf < hb {
                i += 1;
            } else if hb < hf {
                j += 1;
            } else {
                let total = self.fwd.dist[i] + self.bwd.dist[j];
                if total < best {
                    best = total;
                    meet = Some((i, j));
                }
                i += 1;
                j += 1;
            }
        }
        meet
    }

    /// Unpacks the winning up-down path through meet `(fi, bi)` into
    /// `edges` (cleared first): forward parents chain the hub back to `s`
    /// (collected in reverse into `chain`), backward parents chain it
    /// down to `t` (already in path order). Buffers are caller-provided
    /// so the distance hot path can reuse thread-local scratch instead of
    /// allocating per lookup.
    fn unpack_meet(
        &self,
        s: NodeId,
        t: NodeId,
        fi: usize,
        bi: usize,
        chain: &mut Vec<u32>,
        edges: &mut Vec<EdgeId>,
    ) {
        chain.clear();
        edges.clear();
        let mut k = fi;
        loop {
            let pa = self.fwd.parent[k];
            if pa == NO_ARC {
                break;
            }
            chain.push(pa);
            let prev = self.arcs[pa as usize].tail;
            k = self
                .fwd
                .find(s, prev.0)
                .expect("forward label parent chain must stay inside the label");
        }
        chain.reverse();
        for &a in chain.iter() {
            expand_arc(&self.arcs, a, edges);
        }
        let mut k = bi;
        loop {
            let pa = self.bwd.parent[k];
            if pa == NO_ARC {
                break;
            }
            expand_arc(&self.arcs, pa, edges);
            let next = self.arcs[pa as usize].head;
            k = self
                .bwd
                .find(t, next.0)
                .expect("backward label parent chain must stay inside the label");
        }
    }

    /// Distance-only query — the hot path behind `node_dist` (and the
    /// per-in-edge probes of the canonical walk). Identical semantics to
    /// [`HubLabels::query`] but reuses thread-local unpack buffers, so a
    /// lookup performs no heap allocation.
    fn query_dist(&self, s: NodeId, t: NodeId) -> Option<f64> {
        if s == t {
            return Some(0.0);
        }
        let (fi, bi) = self.meet(s, t)?;
        QUERY_BUFS.with(|cell| {
            let (chain, edges) = &mut *cell.borrow_mut();
            self.unpack_meet(s, t, fi, bi, chain, edges);
            // Left-to-right re-accumulation — the exact float-addition
            // order Dijkstra's `dist[v] = dist[p] + w(e)` recursion uses.
            let mut dist = 0.0f64;
            for &e in edges.iter() {
                dist += self.net.weight(e);
            }
            Some(dist)
        })
    }

    /// The sorted-merge query. Returns the exact distance (re-accumulated
    /// left-to-right over the unpacked original edges, bit-identical to
    /// the canonical Dijkstra distance) and the unpacked edge path.
    /// `None` when `t` is unreachable from `s` (the labels share no hub);
    /// `Some((0.0, []))` when `s == t`.
    fn query(&self, s: NodeId, t: NodeId) -> Option<(f64, Vec<EdgeId>)> {
        if s == t {
            return Some((0.0, Vec::new()));
        }
        let (fi, bi) = self.meet(s, t)?;
        let mut chain = Vec::new();
        let mut edges = Vec::new();
        self.unpack_meet(s, t, fi, bi, &mut chain, &mut edges);
        let mut dist = 0.0f64;
        for &e in &edges {
            dist += self.net.weight(e);
        }
        Some((dist, edges))
    }

    /// The canonical predecessor of `v` in the tree rooted at `u` (same
    /// definition and float expression as the other backends): the first
    /// incoming edge `e = (p, v)` with `node_dist(u, p) + w(e) == d_uv`.
    fn canonical_pred(&self, u: NodeId, v: NodeId, d_uv: f64) -> Option<(EdgeId, f64)> {
        for &e in self.net.in_edges(v) {
            let edge = self.net.edge(e);
            if edge.from == edge.to {
                continue;
            }
            let Some(dp) = self.query_dist(u, edge.from) else {
                continue;
            };
            if dp + edge.weight == d_uv {
                return Some((e, dp));
            }
        }
        None
    }

    // -----------------------------------------------------------------
    // Persistence (press-store artifact tier)
    // -----------------------------------------------------------------

    /// Serializes the labeling into a [`press_store`] container
    /// (`sp_hl.press`): the hierarchy's flat arc section (`arcs_f`) and,
    /// per direction, the flat `*_index_f`/`*_hub_f`/`*_dist_f`/
    /// `*_parent_f` arrays — fixed-width little-endian, 8-byte aligned,
    /// so the zero-copy [`MappedHubLabels`] tier borrows them in place.
    /// This is the artifact's only encoding. `*_dist_f` stores the label
    /// distances as IEEE bit patterns; every load re-derives each one
    /// from its parent chain and requires the stored bits to match.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let mut meta = press_store::ByteWriter::with_capacity(44);
        meta.put_u64(self.net.num_nodes() as u64);
        meta.put_u64(self.arcs.len() as u64);
        meta.put_u64((self.arcs.len() - self.net.num_edges()) as u64);
        meta.put_u64(self.fwd.hub.len() as u64);
        meta.put_u64(self.bwd.hub.len() as u64);
        meta.put_u32(crate::store_codec::edge_fingerprint(&self.net));
        let mut w = press_store::StoreWriter::new(press_store::kind::HUB_LABELS);
        w.section("meta", meta.into_bytes());
        w.section_aligned("arcs_f", crate::ch::encode_arcs_flat(&self.arcs));
        for (prefix, set) in [("fwd", &self.fwd), ("bwd", &self.bwd)] {
            w.section_aligned(
                &format!("{prefix}_index_f"),
                crate::store_codec::encode_u32s_flat(&set.index),
            );
            w.section_aligned(
                &format!("{prefix}_hub_f"),
                crate::store_codec::encode_u32s_flat(&set.hub),
            );
            w.section_aligned(
                &format!("{prefix}_dist_f"),
                crate::store_codec::encode_f64s_flat(&set.dist),
            );
            w.section_aligned(
                &format!("{prefix}_parent_f"),
                crate::store_codec::encode_u32s_flat(&set.parent),
            );
        }
        w.to_bytes()
    }

    /// Writes the label artifact to `path` atomically (tmp + fsync + rename).
    pub fn save_to(&self, path: &std::path::Path) -> press_store::Result<()> {
        press_store::atomic_write_file(&press_store::RealIo, path, &self.to_store_bytes())?;
        Ok(())
    }

    /// Reconstructs a labeling over `net` from container bytes through
    /// the same checks as a mapped open plus [`MappedHubLabels::validate`]:
    /// the arc set cross-checked against the network, CSR shape, strictly
    /// ascending in-bounds hubs, parent chains that stay inside the label,
    /// never cycle and end at the node's self entry, and every stored
    /// distance equal to its chain's sum. Corrupt input yields a typed
    /// error, never a panic or a silently wrong label.
    pub fn from_store_bytes(
        net: Arc<RoadNetwork>,
        bytes: Vec<u8>,
    ) -> press_store::Result<HubLabels> {
        MappedHubLabels::from_file(net, press_store::StoreFile::from_bytes(bytes)?)?.validate()
    }

    /// Loads a label artifact from `path` (one contiguous read).
    pub fn load_from(
        net: Arc<RoadNetwork>,
        path: &std::path::Path,
    ) -> press_store::Result<HubLabels> {
        Self::from_store_bytes(net, std::fs::read(path)?)
    }

    /// Opens a label artifact through the zero-copy mapped tier:
    /// [`MappedHubLabels::open`] followed by
    /// [`MappedHubLabels::validate`].
    pub fn open_mapped(
        net: Arc<RoadNetwork>,
        path: &std::path::Path,
    ) -> press_store::Result<HubLabels> {
        MappedHubLabels::open(net, path)?.validate()
    }
}

/// Phase one of loading a label artifact, with **only its metadata
/// touched** — header, section table, the small `meta` section (counts +
/// network fingerprint), and length-only checks that every flat section
/// is present with exactly the declared extent. Over a mapping
/// ([`Self::open`]) that costs O(page faults on a few KB) — the number
/// the `hl_mmap_open` benchmark gate measures. The owned
/// [`HubLabels::from_store_bytes`] runs the same two phases over an
/// in-memory buffer.
///
/// [`Self::validate`] is the only way to reach a queryable
/// [`HubLabels`]: it consumes the handle, CRCs each flat section (on
/// first touch when mapped), cross-checks the arc set, and scans every
/// label — hubs, parent chains, and each stored distance against its
/// chain — so no [`SpProvider`] exists over unvalidated bytes and a
/// corrupt or tampered section surfaces as a typed
/// [`press_store::StoreError`], never a panic or a wrong answer.
pub struct MappedHubLabels {
    net: Arc<RoadNetwork>,
    file: press_store::StoreFile,
    n: usize,
    num_arcs: usize,
    fwd_entries: usize,
    bwd_entries: usize,
}

impl MappedHubLabels {
    /// Maps `path` and checks metadata only (see the type docs). Typed
    /// errors on kind/fingerprint/extent mismatches and on artifacts
    /// written before the flat encoding existed.
    pub fn open(
        net: Arc<RoadNetwork>,
        path: &std::path::Path,
    ) -> press_store::Result<MappedHubLabels> {
        Self::from_file(net, press_store::StoreFile::open_mapped(path)?)
    }

    /// The metadata checks shared by the mapped and the owned load.
    fn from_file(
        net: Arc<RoadNetwork>,
        file: press_store::StoreFile,
    ) -> press_store::Result<MappedHubLabels> {
        use press_store::StoreError;
        file.expect_kind(press_store::kind::HUB_LABELS)?;
        let mut meta = file.reader("meta")?;
        let n = meta.get_len(u32::MAX as usize, "node")?;
        let num_arcs = meta.get_len(u32::MAX as usize, "arc")?;
        let num_shortcuts = meta.get_len(u32::MAX as usize, "shortcut")?;
        let fwd_entries = meta.get_len(u32::MAX as usize, "forward label entry")?;
        let bwd_entries = meta.get_len(u32::MAX as usize, "backward label entry")?;
        crate::store_codec::check_edge_fingerprint(&net, meta.get_u32()?, "labeling")?;
        meta.expect_end("meta")?;
        if n != net.num_nodes() {
            return Err(StoreError::Corrupt(format!(
                "labeling covers {n} nodes but the network has {}",
                net.num_nodes()
            )));
        }
        if num_arcs < net.num_edges() || num_arcs - net.num_edges() != num_shortcuts {
            return Err(StoreError::Corrupt(format!(
                "arc count {num_arcs} inconsistent with {} original edges + {num_shortcuts} shortcuts",
                net.num_edges()
            )));
        }
        for (name, want) in [
            ("arcs_f", num_arcs * 24),
            ("fwd_index_f", (n + 1) * 4),
            ("fwd_hub_f", fwd_entries * 4),
            ("fwd_dist_f", fwd_entries * 8),
            ("fwd_parent_f", fwd_entries * 4),
            ("bwd_index_f", (n + 1) * 4),
            ("bwd_hub_f", bwd_entries * 4),
            ("bwd_dist_f", bwd_entries * 8),
            ("bwd_parent_f", bwd_entries * 4),
        ] {
            crate::store_codec::check_flat_extent(&file, name, Some(want))?;
        }
        Ok(MappedHubLabels {
            net,
            file,
            n,
            num_arcs,
            fwd_entries,
            bwd_entries,
        })
    }

    /// Phase two: CRC every flat section, decode and cross-check the arc
    /// set against the network, and validate both label sets (see
    /// `check_label_set`). Returns labels whose arrays borrow the file's
    /// bytes zero-copy (the slices keep the mapping or buffer alive).
    pub fn validate(self) -> press_store::Result<HubLabels> {
        let MappedHubLabels {
            net,
            file,
            n,
            num_arcs,
            fwd_entries,
            bwd_entries,
        } = self;
        let arcs = crate::ch::decode_arcs_flat(&net, file.section("arcs_f")?, num_arcs)?;
        let read_set =
            |prefix: &str, entries: usize, forward: bool| -> press_store::Result<LabelSet> {
                let set = LabelSet {
                    index: file.flat_section(&format!("{prefix}_index_f"))?,
                    hub: file.flat_section(&format!("{prefix}_hub_f"))?,
                    dist: file.flat_section(&format!("{prefix}_dist_f"))?,
                    parent: file.flat_section(&format!("{prefix}_parent_f"))?,
                };
                crate::store_codec::check_flat_index(
                    &set.index,
                    n + 1,
                    entries as u64,
                    &format!("{prefix}_index_f"),
                )?;
                check_label_set(&set, &arcs, n, forward, prefix)?;
                Ok(set)
            };
        let fwd = read_set("fwd", fwd_entries, true)?;
        let bwd = read_set("bwd", bwd_entries, false)?;
        Ok(HubLabels {
            net,
            arcs,
            fwd,
            bwd,
        })
    }
}

impl std::fmt::Debug for MappedHubLabels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedHubLabels")
            .field("nodes", &self.n)
            .field("arcs", &self.num_arcs)
            .field("label_entries", &(self.fwd_entries + self.bwd_entries))
            .finish()
    }
}

/// Validates one direction's labels (CSR shape already checked): per
/// node, hubs are strictly ascending node ids, and every entry's parent
/// arc is in range, enters its hub and leaves a hub of the same label.
/// Each stored distance must equal, bit for bit, its parent entry's
/// stored distance plus the parent arc's weight — the exact float sum the
/// build produced — and must be strictly greater than it. Distances thus
/// strictly fall along every parent chain, so no chain can cycle, and
/// each one ends at a parentless entry, which must be the node's self
/// entry at distance 0. By induction from that root, every stored
/// distance is its chain's sum. `prefix` ("fwd"/"bwd") names the
/// sections in errors.
fn check_label_set(
    set: &LabelSet,
    arcs: &[ChArc],
    n: usize,
    forward: bool,
    prefix: &str,
) -> press_store::Result<()> {
    use press_store::StoreError;
    for v in 0..n {
        let lo = set.index[v] as usize;
        let hi = set.index[v + 1] as usize;
        let hubs = &set.hub[lo..hi];
        let dist = &set.dist[lo..hi];
        if hubs.iter().any(|&h| h as usize >= n) || hubs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StoreError::Corrupt(format!(
                "{prefix}_hub_f: hubs of node {v} are not strictly ascending node ids"
            )));
        }
        let mut has_self = hubs.is_empty();
        for (k, (&h, &d)) in hubs.iter().zip(dist).enumerate() {
            let pa = set.parent[lo + k];
            if pa == NO_ARC {
                if h != v as u32 {
                    return Err(StoreError::Corrupt(format!(
                        "{prefix}_parent_f: entry for hub {h} of node {v} has no parent arc"
                    )));
                }
                if d.to_bits() != 0.0f64.to_bits() {
                    return Err(StoreError::Corrupt(format!(
                        "{prefix}_dist_f: self entry of node {v} is not at distance 0"
                    )));
                }
                has_self = true;
                continue;
            }
            let Some(arc) = arcs.get(pa as usize) else {
                return Err(StoreError::Corrupt(format!(
                    "{prefix}_parent_f: parent arc {pa} outside 0..{}",
                    arcs.len()
                )));
            };
            let (enters, from) = if forward {
                (arc.head, arc.tail)
            } else {
                (arc.tail, arc.head)
            };
            if enters.0 != h {
                return Err(StoreError::Corrupt(format!(
                    "{prefix}_parent_f: parent arc {pa} of node {v}'s hub {h} does not enter it"
                )));
            }
            let Ok(pk) = hubs.binary_search(&from.0) else {
                return Err(StoreError::Corrupt(format!(
                    "{prefix}_parent_f: parent chain of node {v} leaves the label at hub {}",
                    from.0
                )));
            };
            // A NaN on either side compares as `None` and fails too.
            if dist[pk].partial_cmp(&d) != Some(std::cmp::Ordering::Less) {
                return Err(StoreError::Corrupt(format!(
                    "{prefix}_parent_f: parent chain of node {v} does not descend at hub {h} \
                     (a cycle or a non-positive arc)"
                )));
            }
            if (dist[pk] + arc.weight).to_bits() != d.to_bits() {
                return Err(StoreError::Corrupt(format!(
                    "{prefix}_dist_f: distance of node {v}'s hub {h} does not match its \
                     parent chain"
                )));
            }
        }
        if !has_self {
            return Err(StoreError::Corrupt(format!(
                "{prefix}_parent_f: label of node {v} lacks a parentless self entry"
            )));
        }
    }
    Ok(())
}

impl SpProvider for HubLabels {
    fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    fn node_dist(&self, u: NodeId, v: NodeId) -> f64 {
        self.query_dist(u, v).unwrap_or(f64::INFINITY)
    }

    fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (d, path) = self.query(u, v)?;
        match self.canonical_pred(u, v, d) {
            Some((e, _)) => Some(e),
            // Unreachable in practice (the Dijkstra predecessor always
            // satisfies the float-tight equation); keep the unpacked
            // path's last edge as a safety net.
            None => path.last().copied(),
        }
    }

    fn approx_bytes(&self) -> usize {
        self.arcs.len() * std::mem::size_of::<ChArc>() + self.fwd.bytes() + self.bwd.bytes()
    }

    fn sp_interior(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        if ei == ej {
            return None;
        }
        let a = *self.net.edge(ei);
        let b = *self.net.edge(ej);
        if a.to == b.from {
            return Some(Vec::new());
        }
        let u = a.to;
        let (d, path) = self.query(u, b.from)?;
        // Walk the canonical tree backwards (the shared tight-edge loop,
        // `crate::probe::canonical_walk`) with a one-shot
        // [`SourceProbe`](crate::probe): the forward side of every
        // `d(u, p)` probe — u's label and the re-accumulated distances to
        // its hubs — is materialized once for the whole walk, so each
        // tight-edge check costs one label merge plus the backward chain
        // of its up-down path instead of a full query. A failed walk
        // falls back to the unpacked up-down path, still a shortest path.
        let (flo, fhi) = self.fwd.range(u);
        let mut probe = crate::probe::SourceProbe::from_entries(
            (flo..fhi).map(|k| (self.fwd.hub[k], self.fwd.dist[k], self.fwd.parent[k])),
        );
        let interior = crate::probe::canonical_walk(&self.net, u, b.from, d, |p| {
            let (blo, bhi) = self.bwd.range(p);
            probe.dist_to(
                &self.net,
                &self.arcs,
                &self.bwd.hub[blo..bhi],
                &self.bwd.dist[blo..bhi],
                &self.bwd.parent[blo..bhi],
            )
        });
        Some(interior.unwrap_or(path))
    }
}

impl std::fmt::Debug for HubLabels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HubLabels")
            .field("nodes", &self.net.num_nodes())
            .field("label_entries", &self.num_label_entries())
            .field("avg_label_len", &self.avg_label_len())
            .field("bytes", &self.approx_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_network, GridConfig};
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;
    use crate::sp_table::SpTable;

    fn assert_matches_dense(net: &Arc<RoadNetwork>, hl: &HubLabels) {
        let dense = SpTable::build(net.clone());
        for u in net.node_ids() {
            for v in net.node_ids() {
                assert_eq!(
                    dense.node_dist(u, v).to_bits(),
                    hl.node_dist(u, v).to_bits(),
                    "distance mismatch {u} -> {v}"
                );
                assert_eq!(
                    dense.pred_edge(u, v),
                    hl.pred_edge(u, v),
                    "pred mismatch {u} -> {v}"
                );
            }
        }
    }

    #[test]
    fn line_with_detour_matches_dense() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let v2 = b.add_node(Point::new(2.0, 0.0));
        let v3 = b.add_node(Point::new(3.0, 0.0));
        let v4 = b.add_node(Point::new(1.5, 1.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        b.add_edge(v1, v2, 1.0).unwrap();
        b.add_edge(v2, v3, 1.0).unwrap();
        b.add_edge(v1, v4, 2.0).unwrap();
        b.add_edge(v4, v2, 2.0).unwrap();
        let net = Arc::new(b.build());
        let hl = HubLabels::build(net.clone());
        assert_matches_dense(&net, &hl);
        let dense = SpTable::build(net.clone());
        assert_eq!(hl.sp_end(EdgeId(0), EdgeId(2)), Some(EdgeId(1)));
        assert_eq!(
            hl.sp_path(EdgeId(0), EdgeId(2)),
            dense.sp_path(EdgeId(0), EdgeId(2))
        );
        assert_eq!(
            hl.sp_mbr(EdgeId(3), EdgeId(2)),
            dense.sp_mbr(EdgeId(3), EdgeId(2))
        );
    }

    #[test]
    fn jittered_grid_matches_dense_exactly() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 6,
            weight_jitter: 0.2,
            removal_prob: 0.05,
            seed: 4,
            ..GridConfig::default()
        }));
        let hl = HubLabels::build(net.clone());
        assert_matches_dense(&net, &hl);
    }

    #[test]
    fn tied_grid_matches_dense_exactly() {
        // Zero jitter: shortest paths tie massively — the canonical
        // tie-break (strict stalling, minimal-sum meet, left-to-right
        // re-accumulation) must keep HL and dense bit-identical.
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            weight_jitter: 0.0,
            removal_prob: 0.0,
            seed: 1,
            ..GridConfig::default()
        }));
        let hl = HubLabels::build(net.clone());
        assert_matches_dense(&net, &hl);
        let dense = SpTable::build(net.clone());
        let edges: Vec<EdgeId> = net.edge_ids().collect();
        for &ei in edges.iter().step_by(5) {
            for &ej in edges.iter().rev().step_by(7) {
                assert_eq!(dense.sp_end(ei, ej), hl.sp_end(ei, ej));
                assert_eq!(dense.sp_interior(ei, ej), hl.sp_interior(ei, ej));
                assert_eq!(dense.sp_mbr(ei, ej), hl.sp_mbr(ei, ej));
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_infinite() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(1.0, 0.0));
        let v2 = b.add_node(Point::new(5.0, 0.0));
        let v3 = b.add_node(Point::new(6.0, 0.0));
        b.add_edge(v0, v1, 1.0).unwrap();
        b.add_edge(v2, v3, 1.0).unwrap();
        let net = Arc::new(b.build());
        let hl = HubLabels::build(net.clone());
        assert_matches_dense(&net, &hl);
        assert_eq!(hl.node_dist(v0, v2), f64::INFINITY);
        assert_eq!(hl.pred_edge(v0, v2), None);
        assert_eq!(hl.node_dist(v1, v0), f64::INFINITY);
        assert!(hl.sp_interior(EdgeId(0), EdgeId(1)).is_none());
        assert_eq!(hl.node_dist(v2, v2), 0.0);
        assert_eq!(hl.pred_edge(v2, v2), None);
    }

    #[test]
    fn parallel_build_is_bit_identical_for_any_thread_count() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 5,
            weight_jitter: 0.15,
            removal_prob: 0.05,
            seed: 8,
            ..GridConfig::default()
        }));
        let ch = ContractionHierarchy::build(net.clone());
        let single = HubLabels::from_ch(&ch, 1);
        for threads in [2, 3, 7] {
            let multi = HubLabels::from_ch(&ch, threads);
            assert_eq!(single.fwd.index, multi.fwd.index, "{threads} threads");
            assert_eq!(single.fwd.hub, multi.fwd.hub);
            assert_eq!(single.fwd.parent, multi.fwd.parent);
            assert_eq!(single.bwd.index, multi.bwd.index);
            assert_eq!(single.bwd.hub, multi.bwd.hub);
            assert_eq!(single.bwd.parent, multi.bwd.parent);
            let dist_bits = |s: &LabelSet| s.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(dist_bits(&single.fwd), dist_bits(&multi.fwd));
            assert_eq!(dist_bits(&single.bwd), dist_bits(&multi.bwd));
        }
    }

    #[test]
    fn labels_cover_the_ch_search_space_but_queries_merge_flat() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            weight_jitter: 0.15,
            seed: 2,
            ..GridConfig::default()
        }));
        let ch = ContractionHierarchy::build(net.clone());
        let hl = HubLabels::from_ch(&ch, 1);
        // Labels are non-trivial (more than just self entries) and every
        // node has its self entry.
        assert!(hl.avg_label_len() > 1.0);
        for v in net.node_ids() {
            assert!(hl.fwd.find(v, v.0).is_some(), "missing self entry for {v}");
            assert!(hl.bwd.find(v, v.0).is_some());
        }
        // The memory trade goes the expected way: labels are bigger than
        // the hierarchy they were derived from.
        assert!(hl.approx_bytes() > ch.approx_bytes());
    }

    #[test]
    fn store_roundtrip_is_field_identical() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            weight_jitter: 0.12,
            removal_prob: 0.04,
            seed: 11,
            ..GridConfig::default()
        }));
        let built = HubLabels::build(net.clone());
        let bytes = built.to_store_bytes();
        let loaded = HubLabels::from_store_bytes(net.clone(), bytes).unwrap();
        assert_eq!(loaded.fwd.index, built.fwd.index);
        assert_eq!(loaded.fwd.hub, built.fwd.hub);
        assert_eq!(loaded.fwd.parent, built.fwd.parent);
        assert_eq!(loaded.bwd.index, built.bwd.index);
        assert_eq!(loaded.bwd.hub, built.bwd.hub);
        assert_eq!(loaded.bwd.parent, built.bwd.parent);
        // Distances round-trip bit-for-bit (and the load verified each
        // one against its parent chain).
        for (a, b) in built.fwd.dist.iter().zip(loaded.fwd.dist.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in built.bwd.dist.iter().zip(loaded.bwd.dist.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(loaded.arcs.len(), built.arcs.len());
        for u in net.node_ids() {
            for v in net.node_ids().step_by(3) {
                assert_eq!(
                    built.node_dist(u, v).to_bits(),
                    loaded.node_dist(u, v).to_bits()
                );
                assert_eq!(built.pred_edge(u, v), loaded.pred_edge(u, v));
            }
        }
    }

    #[test]
    fn store_load_rejects_mismatched_network_and_truncation() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 4,
            ny: 4,
            weight_jitter: 0.1,
            seed: 6,
            ..GridConfig::default()
        }));
        let other = Arc::new(grid_network(&GridConfig {
            nx: 4,
            ny: 4,
            weight_jitter: 0.1,
            seed: 7, // different weights
            ..GridConfig::default()
        }));
        let built = HubLabels::build(net.clone());
        // Same node/edge counts, different weights: the edge-set
        // fingerprint must reject the pairing (labels derived under other
        // weights would be a silently wrong search structure).
        assert!(matches!(
            HubLabels::from_store_bytes(other.clone(), built.to_store_bytes()),
            Err(press_store::StoreError::Corrupt(_))
        ));
        let mut bytes = built.to_store_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(HubLabels::from_store_bytes(net.clone(), bytes).is_err());
        // Wrong artifact kind is typed.
        let ch = ContractionHierarchy::build(net.clone());
        assert!(matches!(
            HubLabels::from_store_bytes(net, ch.to_store_bytes()),
            Err(press_store::StoreError::WrongKind { .. })
        ));
    }

    #[test]
    fn usable_as_a_provider_object() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 4,
            ny: 4,
            weight_jitter: 0.1,
            seed: 6,
            ..GridConfig::default()
        }));
        let provider: Arc<dyn SpProvider> = Arc::new(HubLabels::build(net.clone()));
        let dense = SpTable::build(net.clone());
        for &(a, b) in &[(EdgeId(0), EdgeId(5)), (EdgeId(3), EdgeId(1))] {
            assert_eq!(provider.sp_end(a, b), dense.sp_end(a, b));
            assert_eq!(
                provider.gap_dist(a, b).to_bits(),
                dense.gap_dist(a, b).to_bits()
            );
        }
        assert!(provider.source_tree(NodeId(0)).is_none());
    }

    fn temp_artifact(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("press-hl-{}-{name}.press", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_open_is_bit_identical_to_owned_load() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            weight_jitter: 0.12,
            removal_prob: 0.04,
            seed: 11,
            ..GridConfig::default()
        }));
        let built = HubLabels::build(net.clone());
        let path = temp_artifact("hl-identical", &built.to_store_bytes());
        let mapped = HubLabels::open_mapped(net.clone(), &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // Field-for-field identity, including the stored distances.
        assert_eq!(mapped.fwd.index, built.fwd.index);
        assert_eq!(mapped.fwd.hub, built.fwd.hub);
        assert_eq!(mapped.fwd.parent, built.fwd.parent);
        assert_eq!(mapped.bwd.index, built.bwd.index);
        assert_eq!(mapped.bwd.hub, built.bwd.hub);
        assert_eq!(mapped.bwd.parent, built.bwd.parent);
        for (a, b) in built.fwd.dist.iter().zip(mapped.fwd.dist.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in built.bwd.dist.iter().zip(mapped.bwd.dist.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(mapped.arcs.len(), built.arcs.len());
        // The mapped arrays really are zero-copy views over the mapping,
        // not decoded copies.
        assert!(mapped.fwd.hub.is_borrowed());
        assert!(mapped.fwd.dist.is_borrowed());
        assert!(mapped.bwd.parent.is_borrowed());
        for u in net.node_ids() {
            for v in net.node_ids().step_by(3) {
                assert_eq!(
                    built.node_dist(u, v).to_bits(),
                    mapped.node_dist(u, v).to_bits()
                );
                assert_eq!(built.pred_edge(u, v), mapped.pred_edge(u, v));
            }
        }
        for &(a, b) in &[(EdgeId(0), EdgeId(17)), (EdgeId(9), EdgeId(3))] {
            assert_eq!(built.sp_interior(a, b), mapped.sp_interior(a, b));
        }
    }

    #[test]
    fn mapped_open_surfaces_flat_corruption_as_typed_checksum_error() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 4,
            ny: 4,
            weight_jitter: 0.1,
            seed: 6,
            ..GridConfig::default()
        }));
        let mut bytes = HubLabels::build(net.clone()).to_store_bytes();
        // Flat sections are declared last, so the final payload byte lives
        // in `bwd_parent_f`. Flip it: the O(metadata) open must still
        // succeed, and the first touch during validation must surface a
        // typed checksum error — never a panic or a silently wrong label.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let path = temp_artifact("hl-corrupt", &bytes);
        let opened = MappedHubLabels::open(net.clone(), &path).unwrap();
        let err = opened.validate();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(err, Err(press_store::StoreError::ChecksumMismatch { .. })),
            "expected ChecksumMismatch, got {err:?}"
        );
    }

    #[test]
    fn pre_flat_artifacts_are_refused_by_both_load_paths() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 4,
            ny: 4,
            weight_jitter: 0.1,
            seed: 6,
            ..GridConfig::default()
        }));
        let bytes = HubLabels::build(net.clone()).to_store_bytes();
        // The shape artifacts had before the flat encoding: the same
        // `meta`, then delta+varint sections no reader decodes any more
        // (stand-in payloads: nothing looks inside them).
        let file = press_store::StoreFile::from_bytes(bytes).unwrap();
        let mut w = press_store::StoreWriter::new(press_store::kind::HUB_LABELS);
        w.section("meta", file.section("meta").unwrap().to_vec());
        for nm in [
            "arcs_c",
            "fwd_index_c",
            "fwd_hub_c",
            "fwd_parent",
            "bwd_index_c",
            "bwd_hub_c",
            "bwd_parent",
        ] {
            w.section(nm, vec![0; 8]);
        }
        let path = temp_artifact("hl-preflat", &w.to_bytes());
        let owned = HubLabels::load_from(net.clone(), &path).err();
        let mapped = MappedHubLabels::open(net, &path).err();
        std::fs::remove_file(&path).unwrap();
        for err in [owned, mapped] {
            assert!(
                matches!(&err, Some(press_store::StoreError::Corrupt(m)) if m.contains("predates")),
                "expected an actionable Corrupt error, got {err:?}"
            );
        }
    }

    #[test]
    fn tampered_distances_are_refused_by_both_load_paths() {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 5,
            ny: 5,
            weight_jitter: 0.12,
            seed: 9,
            ..GridConfig::default()
        }));
        let built = HubLabels::build(net.clone());
        let bytes = built.to_store_bytes();
        let with_parent = built.fwd.parent.iter().position(|&p| p != NO_ARC).unwrap();
        let self_entry = built.bwd.parent.iter().position(|&p| p == NO_ARC).unwrap();
        // One ulp off a derived distance, and a self entry moved off 0.
        let cases = [
            (
                "fwd_dist_f",
                with_parent,
                built.fwd.dist[with_parent].to_bits() + 1,
            ),
            ("bwd_dist_f", self_entry, 1.0f64.to_bits()),
        ];
        for (section, k, bits) in cases {
            // Rebuild the container so every CRC is consistent and only
            // the semantic check can notice.
            let file = press_store::StoreFile::from_bytes(bytes.clone()).unwrap();
            let mut w = press_store::StoreWriter::new(press_store::kind::HUB_LABELS);
            for nm in file.section_names() {
                let mut payload = file.section(nm).unwrap().to_vec();
                if nm == section {
                    payload[k * 8..k * 8 + 8].copy_from_slice(&bits.to_le_bytes());
                }
                if nm.ends_with("_f") {
                    w.section_aligned(nm, payload);
                } else {
                    w.section(nm, payload);
                }
            }
            let path = temp_artifact("hl-tampered", &w.to_bytes());
            let owned = HubLabels::load_from(net.clone(), &path).err();
            let mapped = HubLabels::open_mapped(net.clone(), &path).err();
            std::fs::remove_file(&path).unwrap();
            for err in [owned, mapped] {
                assert!(
                    matches!(&err, Some(press_store::StoreError::Corrupt(m)) if m.contains(section)),
                    "expected a typed Corrupt error naming {section}, got {err:?}"
                );
            }
        }
    }

    #[test]
    #[ignore = "perf smoke: run explicitly with --ignored --nocapture"]
    fn large_grid_label_and_query_smoke() {
        let nx = std::env::var("HL_SMOKE_NX")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(120usize);
        let net = Arc::new(grid_network(&GridConfig {
            nx,
            ny: nx,
            spacing: 160.0,
            weight_jitter: 0.15,
            removal_prob: 0.03,
            seed: 3,
        }));
        let t0 = std::time::Instant::now();
        let ch = ContractionHierarchy::build(net.clone());
        let ch_build = t0.elapsed();
        let t0 = std::time::Instant::now();
        let hl = HubLabels::from_ch(&ch, 0);
        let label_build = t0.elapsed();
        let n = net.num_nodes() as u64;
        let pairs = 2000u64;
        let mut acc = 0.0f64;
        let t0 = std::time::Instant::now();
        for i in 0..pairs {
            let u = NodeId(((i * 6364136223846793005 + 1) % n) as u32);
            let v = NodeId(((i * 1442695040888963407 + 7) % n) as u32);
            let d = hl.node_dist(u, v);
            if d.is_finite() {
                acc += d;
            }
        }
        let q = t0.elapsed();
        println!(
            "{} nodes: ch build {:.2?}, labels {:.2?} (avg len {:.1}), {:.1} MiB, {} lookups in {:.2?} ({:.2} us/query), acc {acc:.0}",
            net.num_nodes(),
            ch_build,
            label_build,
            hl.avg_label_len(),
            hl.approx_bytes() as f64 / (1 << 20) as f64,
            pairs,
            q,
            q.as_secs_f64() * 1e6 / pairs as f64
        );
    }
}
