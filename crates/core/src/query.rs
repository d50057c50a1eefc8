//! Query processor over compressed trajectories — paper §5.
//!
//! PRESS answers the common LBS queries **without fully decompressing**:
//!
//! * [`QueryEngine::whereat`] — position at time `t`; error bounded by
//!   TSND (§5.1).
//! * [`QueryEngine::whenat`] — time at position `(x, y)`; error bounded by
//!   NSTD (§5.2).
//! * [`QueryEngine::range`] — does the trajectory pass region `R` within
//!   `[t1, t2]` (§5.3).
//! * [`QueryEngine::passes_near`] / [`QueryEngine::min_distance`] — the
//!   extended queries sketched in §5.4.
//!
//! The speed-ups come from the auxiliary structures the trained
//! [`HscModel`] carries: per-Trie-node decompressed distances (skip a whole
//! coded unit by adding one number), per-Trie-node MBRs and shortest-path
//! MBRs (skip a unit/gap by one rectangle test), and the shortest-path
//! distance table (skip an SP gap without expanding it). Only the units
//! that can contain the answer are expanded.
//!
//! Every query also has a `_raw` twin operating on the uncompressed
//! representation — the baseline the paper's Figs. 15–17 compare against.

use crate::error::{PressError, Result};
use crate::press::CompressedTrajectory;
use crate::spatial::{symbol_to_node, CompressedSpatial, HscModel, TrieNodeId};
use crate::types::{DtPoint, Trajectory};
use press_network::{project_onto_segment, EdgeId, Mbr, Point};

/// How the engine locates a time/distance in a temporal sequence.
///
/// The paper's cost model is a linear scan ("it visits m/2 temporal
/// tuples … on average", §5.1), and its measured speed-ups compare raw vs
/// compressed under that same scan — so [`ScanMode::Linear`] is the
/// faithful default. [`ScanMode::Binary`] is an opt-in `O(log m)`
/// refinement that returns **identical** answers (same interpolation,
/// same tie handling; unit-tested) and wins on long temporal sequences.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScanMode {
    /// Paper-faithful `O(m)` scan.
    #[default]
    Linear,
    /// `O(log m)` partition-point search; identical answers.
    Binary,
}

/// Linear-scan `Dis(T, t)` — the paper's query cost model: "it visits m/2
/// temporal tuples … on average" (§5.1). The compressed form scans the
/// same way over its (β× shorter) sequence, so the measured speed-ups
/// reflect the representation, not a smarter index.
pub fn dis_linear(seq: &[DtPoint], t: f64) -> f64 {
    debug_assert!(!seq.is_empty());
    if t <= seq[0].t {
        return seq[0].d;
    }
    for w in seq.windows(2) {
        if t <= w[1].t {
            let span = w[1].t - w[0].t;
            if span <= f64::EPSILON {
                return w[0].d;
            }
            return w[0].d + (w[1].d - w[0].d) * (t - w[0].t) / span;
        }
    }
    seq[seq.len() - 1].d
}

/// Binary-search `Dis(T, t)`: same interpolation and edge handling as
/// [`dis_linear`], located in `O(log m)`.
pub fn dis_binary(seq: &[DtPoint], t: f64) -> f64 {
    debug_assert!(!seq.is_empty());
    if t <= seq[0].t {
        return seq[0].d;
    }
    // First knot with `knot.t >= t`; matches the linear scan's first
    // window `w` with `t <= w[1].t` (ties resolve to the earliest knot).
    // `i == 0` only happens for a NaN probe (every comparison false),
    // where the linear scan falls through to the last knot — match it.
    let i = seq.partition_point(|p| p.t < t);
    if i == 0 || i >= seq.len() {
        return seq[seq.len() - 1].d;
    }
    let (a, b) = (seq[i - 1], seq[i]);
    let span = b.t - a.t;
    if span <= f64::EPSILON {
        return a.d;
    }
    a.d + (b.d - a.d) * (t - a.t) / span
}

/// Linear-scan `Tim(T, d)` (earliest-time convention), matching §5.2's
/// cost model.
pub fn tim_linear(seq: &[DtPoint], d: f64) -> f64 {
    debug_assert!(!seq.is_empty());
    if d <= seq[0].d {
        return seq[0].t;
    }
    for w in seq.windows(2) {
        if d <= w[1].d {
            let span = w[1].d - w[0].d;
            if span <= f64::EPSILON {
                return w[0].t;
            }
            return w[0].t + (w[1].t - w[0].t) * (d - w[0].d) / span;
        }
    }
    seq[seq.len() - 1].t
}

/// Binary-search `Tim(T, d)` (earliest-time convention): same answers as
/// [`tim_linear`] in `O(log m)`.
pub fn tim_binary(seq: &[DtPoint], d: f64) -> f64 {
    debug_assert!(!seq.is_empty());
    if d <= seq[0].d {
        return seq[0].t;
    }
    // `i == 0` only for NaN probes; the linear scan returns the last knot.
    let i = seq.partition_point(|p| p.d < d);
    if i == 0 || i >= seq.len() {
        return seq[seq.len() - 1].t;
    }
    let (a, b) = (seq[i - 1], seq[i]);
    let span = b.d - a.d;
    if span <= f64::EPSILON {
        return a.t;
    }
    a.t + (b.t - a.t) * (d - a.d) / span
}

/// Query engine bound to a trained HSC model.
pub struct QueryEngine<'a> {
    model: &'a HscModel,
    scan: ScanMode,
}

/// A decoded coding unit: either a Trie sub-trajectory or the shortest-path
/// gap between two consecutive units.
#[derive(Clone, Copy, Debug)]
enum Unit {
    Node(TrieNodeId),
    Gap(EdgeId, EdgeId),
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over a trained model (paper-faithful linear
    /// temporal scans).
    pub fn new(model: &'a HscModel) -> Self {
        Self::with_scan(model, ScanMode::default())
    }

    /// Creates an engine with an explicit temporal [`ScanMode`].
    pub fn with_scan(model: &'a HscModel, scan: ScanMode) -> Self {
        QueryEngine { model, scan }
    }

    /// `Dis(T, t)` under the engine's scan mode.
    #[inline]
    fn dis(&self, seq: &[DtPoint], t: f64) -> f64 {
        match self.scan {
            ScanMode::Linear => dis_linear(seq, t),
            ScanMode::Binary => dis_binary(seq, t),
        }
    }

    /// `Tim(T, d)` under the engine's scan mode.
    #[inline]
    fn tim(&self, seq: &[DtPoint], d: f64) -> f64 {
        match self.scan {
            ScanMode::Linear => tim_linear(seq, d),
            ScanMode::Binary => tim_binary(seq, d),
        }
    }

    // ------------------------------------------------------------------
    // Unit streaming
    // ------------------------------------------------------------------

    /// Streams the coding units of a compressed spatial path in order,
    /// calling `f(unit, unit_length)` for each; `f` returns `true` to stop.
    /// Unit lengths come from the precomputed tables — no expansion.
    fn for_each_unit(
        &self,
        cs: &CompressedSpatial,
        mut f: impl FnMut(Unit, f64) -> Result<bool>,
    ) -> Result<()> {
        let trie = self.model.trie();
        let sp = self.model.sp();
        let net = sp.network();
        let huffman = self.model.huffman();
        let mut reader = cs.bits.reader();
        let mut prev_last: Option<EdgeId> = None;
        while !reader.is_exhausted() {
            let node = symbol_to_node(huffman.decode_symbol(&mut reader)?);
            let first = trie.first_edge(node);
            if let Some(pl) = prev_last {
                if !net.consecutive(pl, first) {
                    let gap = sp.gap_dist(pl, first);
                    if !gap.is_finite() {
                        return Err(PressError::NoShortestPath(pl, first));
                    }
                    if f(Unit::Gap(pl, first), gap)? {
                        return Ok(());
                    }
                }
            }
            let nd = self.model.node_dist(node);
            if !nd.is_finite() {
                return Err(PressError::NoShortestPath(first, trie.last_edge(node)));
            }
            if f(Unit::Node(node), nd)? {
                return Ok(());
            }
            prev_last = Some(trie.last_edge(node));
        }
        Ok(())
    }

    /// Expands a unit into its full edge sequence.
    fn expand_unit(&self, unit: Unit) -> Result<Vec<EdgeId>> {
        match unit {
            Unit::Node(n) => {
                let sub = self.model.trie().sub_trajectory(n);
                crate::spatial::sp_decompress(self.model.sp(), &sub)
            }
            Unit::Gap(a, b) => self
                .model
                .sp()
                .sp_interior(a, b)
                .ok_or(PressError::NoShortestPath(a, b)),
        }
    }

    /// Conservative MBR of a unit without any expansion.
    ///
    /// Node units use the precomputed table. Gap units use a cheap
    /// over-approximation instead of walking the shortest path: every
    /// point of `SP(a, b)`'s interior lies within network distance
    /// `gap/2` of either `a`'s head or `b`'s tail, hence within Euclidean
    /// distance `gap/2` of one of them. Over-approximation only costs
    /// extra candidate expansions — it can never exclude a true hit.
    fn unit_mbr(&self, unit: Unit) -> Result<Mbr> {
        match unit {
            Unit::Node(n) => Ok(*self.model.node_mbr(n)),
            Unit::Gap(a, b) => {
                let sp = self.model.sp();
                let net = sp.network();
                let gap = sp.gap_dist(a, b);
                if !gap.is_finite() {
                    return Err(PressError::NoShortestPath(a, b));
                }
                let mut mbr = Mbr::of_point(&net.edge_end(a));
                mbr.expand_point(&net.edge_start(b));
                Ok(mbr.inflate(gap / 2.0))
            }
        }
    }

    // ------------------------------------------------------------------
    // whereat (§5.1)
    // ------------------------------------------------------------------

    /// `whereat` over the **raw** representation: interpolate `d` from the
    /// temporal sequence, then walk the edge path (on average `m/2` tuples
    /// and `n/2` edges, §5.1).
    pub fn whereat_raw(&self, traj: &Trajectory, t: f64) -> Result<Point> {
        if traj.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let d = self.dis(&traj.temporal.points, t);
        traj.path.point_at(self.model.sp().network(), d)
    }

    /// `whereat` over the **compressed** representation: interpolate `d'`
    /// from the compressed temporal sequence, then skip whole coded units
    /// via their precomputed lengths, expanding only the unit containing
    /// the answer. The answer deviates from the raw one by at most the
    /// trajectory's TSND (paper's bound in §5.1).
    pub fn whereat(&self, ct: &CompressedTrajectory, t: f64) -> Result<Point> {
        if ct.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let d = self.dis(&ct.temporal.points, t);
        self.point_at_distance(&ct.spatial, d)
    }

    /// Point at distance `d` along a compressed spatial path, clamped to
    /// its extent.
    ///
    /// Follows §5.1's procedure: whole coded units are skipped by their
    /// precomputed lengths; inside the containing unit only the Trie edges
    /// (≤ θ of them) and *one* shortest-path gap are touched — the gap is
    /// resolved by walking the predecessor tree from its far end, without
    /// materializing the expansion.
    pub fn point_at_distance(&self, cs: &CompressedSpatial, d: f64) -> Result<Point> {
        let net = self.model.sp().network().clone();
        let sp = self.model.sp();
        let trie = self.model.trie();
        let mut dacu = 0.0f64;
        let mut answer: Option<Point> = None;
        let mut last_edge: Option<EdgeId> = None;
        self.for_each_unit(cs, |unit, len| {
            if dacu + len >= d {
                let offset = d - dacu;
                answer = Some(match unit {
                    Unit::Gap(a, b) => self.point_in_gap(a, b, len, offset)?,
                    Unit::Node(n) => {
                        // Walk the unit's Trie edges, descending into at
                        // most one intra-unit gap.
                        let mut local = offset;
                        let mut prev: Option<EdgeId> = None;
                        let mut found = None;
                        // Reconstruct root→n order without allocation:
                        // depth ≤ θ (tiny), so walk via repeated ancestor
                        // lookups.
                        let depth = trie.depth(n);
                        'walk: for level in 0..depth {
                            let mut cur = n;
                            for _ in 0..depth - 1 - level {
                                cur = trie.parent(cur);
                            }
                            let e = trie.last_edge(cur);
                            if let Some(p) = prev {
                                if !net.consecutive(p, e) {
                                    let gap = sp.gap_dist(p, e);
                                    if local <= gap {
                                        found = Some(self.point_in_gap(p, e, gap, local)?);
                                        break 'walk;
                                    }
                                    local -= gap;
                                }
                            }
                            let w = net.weight(e);
                            if local <= w {
                                let frac = if w <= f64::EPSILON { 0.0 } else { local / w };
                                found = Some(net.point_on_edge(e, frac * net.edge_length(e)));
                                break 'walk;
                            }
                            local -= w;
                            prev = Some(e);
                        }
                        found.unwrap_or_else(|| net.edge_end(trie.last_edge(n)))
                    }
                });
                return Ok(true);
            }
            dacu += len;
            if let Unit::Node(n) = unit {
                last_edge = Some(trie.last_edge(n));
            }
            Ok(false)
        })?;
        if let Some(p) = answer {
            return Ok(p);
        }
        // d beyond the end: clamp to the end of the final edge.
        match last_edge {
            Some(e) => Ok(net.edge_end(e)),
            None => Err(PressError::EmptyPath),
        }
    }

    /// Point at `offset` into the *interior* of the gap between `a` and
    /// `b` (`0 ≤ offset ≤ gap`), located by walking the predecessor tree
    /// backwards from `b`'s tail — no allocation, and only the tail part
    /// of the gap is visited.
    fn point_in_gap(&self, a: EdgeId, b: EdgeId, gap: f64, offset: f64) -> Result<Point> {
        let sp = self.model.sp();
        let net = sp.network();
        if gap <= f64::EPSILON {
            return Ok(net.edge_start(b));
        }
        let from_end = (gap - offset).max(0.0);
        let mut acc = 0.0f64;
        let mut cur = net.edge(b).from;
        let target = net.edge(a).to;
        // One tree fetch for the whole walk when the backend can hand out
        // a tree; otherwise (every built-in backend) answer per node.
        let tree = sp.source_tree(target);
        let pred = |cur: press_network::NodeId| -> Option<EdgeId> {
            match &tree {
                Some(t) => t.pred_edge[cur.index()],
                None => sp.pred_edge(target, cur),
            }
        };
        while cur != target {
            // Predecessor edge of `cur` in the tree rooted at a's head.
            let Some(pe) = pred(cur) else {
                return Err(PressError::NoShortestPath(a, b));
            };
            let w = net.weight(pe);
            if acc + w >= from_end {
                // The answer lies on `pe`, measured from its start:
                // remaining-from-end inside this edge is (from_end - acc),
                // so from the start it is w - (from_end - acc).
                let into = (w - (from_end - acc)).clamp(0.0, w);
                let frac = if w <= f64::EPSILON { 0.0 } else { into / w };
                return Ok(net.point_on_edge(pe, frac * net.edge_length(pe)));
            }
            acc += w;
            cur = net.edge(pe).from;
        }
        // offset == 0 resolves to the gap start.
        Ok(net.point_on_edge(a, net.edge_length(a)))
    }

    // ------------------------------------------------------------------
    // whenat (§5.2)
    // ------------------------------------------------------------------

    /// `whenat` over the raw representation: project `(x, y)` onto the
    /// path (first edge within `tolerance`), then interpolate the time.
    pub fn whenat_raw(&self, traj: &Trajectory, p: Point, tolerance: f64) -> Result<f64> {
        let net = self.model.sp().network();
        if traj.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let mut dacu = 0.0f64;
        for &e in &traj.path.edges {
            let proj = project_onto_segment(&p, &net.edge_start(e), &net.edge_end(e));
            if proj.dist <= tolerance {
                let d = dacu + proj.t * net.weight(e);
                return Ok(self.tim(&traj.temporal.points, d));
            }
            dacu += net.weight(e);
        }
        Err(PressError::OutOfDomain(format!(
            "point ({}, {}) not on the trajectory (tolerance {tolerance})",
            p.x, p.y
        )))
    }

    /// `whenat` over the compressed representation: MBR-prune coded units,
    /// expand only candidates, then interpolate the time from the
    /// compressed temporal sequence. Error bounded by NSTD (§5.2).
    pub fn whenat(&self, ct: &CompressedTrajectory, p: Point, tolerance: f64) -> Result<f64> {
        if ct.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let d = self.distance_of_point(&ct.spatial, p, tolerance)?;
        Ok(self.tim(&ct.temporal.points, d))
    }

    /// Cumulative distance at which the compressed path first passes within
    /// `tolerance` of `p`.
    pub fn distance_of_point(
        &self,
        cs: &CompressedSpatial,
        p: Point,
        tolerance: f64,
    ) -> Result<f64> {
        let net = self.model.sp().network().clone();
        let mut dacu = 0.0f64;
        let mut found: Option<f64> = None;
        self.for_each_unit(cs, |unit, len| {
            let mbr = self.unit_mbr(unit)?;
            // MBR test is a *may-contain* filter (paper: "the fact
            // (x,y) ∈ MBR(SP(ei,ej)) does not guarantee (x,y) ∈ SP(ei,ej)").
            if mbr.min_dist_to_point(&p) <= tolerance {
                let edges = self.expand_unit(unit)?;
                let mut local = 0.0f64;
                for &e in &edges {
                    let proj = project_onto_segment(&p, &net.edge_start(e), &net.edge_end(e));
                    if proj.dist <= tolerance {
                        found = Some(dacu + local + proj.t * net.weight(e));
                        return Ok(true);
                    }
                    local += net.weight(e);
                }
            }
            dacu += len;
            Ok(false)
        })?;
        found.ok_or_else(|| {
            PressError::OutOfDomain(format!(
                "point ({}, {}) not on the trajectory (tolerance {tolerance})",
                p.x, p.y
            ))
        })
    }

    // ------------------------------------------------------------------
    // range (§5.3)
    // ------------------------------------------------------------------

    /// Boolean `range` over the raw representation: locate `d1`, `d2` from
    /// the temporal sequence, then scan the spanned edges for intersection
    /// with `region`.
    pub fn range_raw(&self, traj: &Trajectory, t1: f64, t2: f64, region: &Mbr) -> Result<bool> {
        if traj.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let net = self.model.sp().network();
        let (d1, d2) = ordered(
            self.dis(&traj.temporal.points, t1),
            self.dis(&traj.temporal.points, t2),
        );
        let mut dacu = 0.0f64;
        for &e in &traj.path.edges {
            let w = net.weight(e);
            let overlaps = dacu <= d2 && dacu + w >= d1;
            if overlaps && region.intersects_segment(&net.edge_start(e), &net.edge_end(e)) {
                return Ok(true);
            }
            dacu += w;
            if dacu > d2 {
                break;
            }
        }
        Ok(false)
    }

    /// Boolean `range` over the compressed representation: unit-level MBR
    /// pruning, expansion only of candidate units, early exit past `d2`.
    pub fn range(&self, ct: &CompressedTrajectory, t1: f64, t2: f64, region: &Mbr) -> Result<bool> {
        if ct.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let net = self.model.sp().network().clone();
        let (d1, d2) = ordered(
            self.dis(&ct.temporal.points, t1),
            self.dis(&ct.temporal.points, t2),
        );
        let mut dacu = 0.0f64;
        let mut hit = false;
        self.for_each_unit(&ct.spatial, |unit, len| {
            if dacu > d2 {
                return Ok(true);
            }
            let overlaps_window = dacu <= d2 && dacu + len >= d1;
            if overlaps_window && self.unit_mbr(unit)?.intersects(region) {
                let edges = self.expand_unit(unit)?;
                let mut local = dacu;
                for &e in &edges {
                    let w = net.weight(e);
                    if local <= d2
                        && local + w >= d1
                        && region.intersects_segment(&net.edge_start(e), &net.edge_end(e))
                    {
                        hit = true;
                        return Ok(true);
                    }
                    local += w;
                }
            }
            dacu += len;
            Ok(false)
        })?;
        Ok(hit)
    }

    // ------------------------------------------------------------------
    // Extended queries (§5.4)
    // ------------------------------------------------------------------

    /// Does the trajectory pass within `dist` of `p` during `[t1, t2]`?
    /// (§5.4 "trajectories passing near a location point".)
    pub fn passes_near(
        &self,
        ct: &CompressedTrajectory,
        p: Point,
        dist: f64,
        t1: f64,
        t2: f64,
    ) -> Result<bool> {
        if ct.temporal.is_empty() {
            return Err(PressError::OutOfDomain("empty temporal sequence".into()));
        }
        let net = self.model.sp().network().clone();
        let (d1, d2) = ordered(
            self.dis(&ct.temporal.points, t1),
            self.dis(&ct.temporal.points, t2),
        );
        let mut dacu = 0.0f64;
        let mut hit = false;
        self.for_each_unit(&ct.spatial, |unit, len| {
            if dacu > d2 {
                return Ok(true);
            }
            let overlaps_window = dacu <= d2 && dacu + len >= d1;
            // Skip a whole unit when its MBR is farther than `dist`.
            if overlaps_window && self.unit_mbr(unit)?.min_dist_to_point(&p) <= dist {
                let edges = self.expand_unit(unit)?;
                let mut local = dacu;
                for &e in &edges {
                    let w = net.weight(e);
                    if local <= d2 && local + w >= d1 {
                        let proj = project_onto_segment(&p, &net.edge_start(e), &net.edge_end(e));
                        if proj.dist <= dist {
                            hit = true;
                            return Ok(true);
                        }
                    }
                    local += w;
                }
            }
            dacu += len;
            Ok(false)
        })?;
        Ok(hit)
    }

    /// Minimum Euclidean distance between the spatial paths of two
    /// compressed trajectories (§5.4), with unit-pair MBR pruning against
    /// the best distance found so far.
    pub fn min_distance(&self, a: &CompressedTrajectory, b: &CompressedTrajectory) -> Result<f64> {
        let net = self.model.sp().network().clone();
        // Collect unit summaries (cheap: ids + table lookups).
        let units_a = self.collect_units(&a.spatial)?;
        let units_b = self.collect_units(&b.spatial)?;
        if units_a.is_empty() || units_b.is_empty() {
            return Err(PressError::EmptyPath);
        }
        let mut best = f64::INFINITY;
        let mut cache_a: Vec<Option<Vec<EdgeId>>> = vec![None; units_a.len()];
        let mut cache_b: Vec<Option<Vec<EdgeId>>> = vec![None; units_b.len()];
        for (i, &(ua, mbr_a)) in units_a.iter().enumerate() {
            // Prune whole rows by MBR distance.
            if units_b
                .iter()
                .all(|&(_, mbr_b)| mbr_a.min_dist_to_mbr(&mbr_b) >= best)
            {
                continue;
            }
            for (j, &(ub, mbr_b)) in units_b.iter().enumerate() {
                if mbr_a.min_dist_to_mbr(&mbr_b) >= best {
                    continue;
                }
                if cache_a[i].is_none() {
                    cache_a[i] = Some(self.expand_unit(ua)?);
                }
                if cache_b[j].is_none() {
                    cache_b[j] = Some(self.expand_unit(ub)?);
                }
                // Both slots were just filled; an empty expansion stays a
                // valid `Some(vec![])` rather than a refill sentinel, so no
                // unwrap is reachable on this serving path.
                let (Some(ea), Some(eb)) = (&cache_a[i], &cache_b[j]) else {
                    continue;
                };
                for &e1 in ea {
                    let (a1, a2) = (net.edge_start(e1), net.edge_end(e1));
                    for &e2 in eb {
                        let d = press_network::dist_segment_to_segment(
                            &a1,
                            &a2,
                            &net.edge_start(e2),
                            &net.edge_end(e2),
                        );
                        if d < best {
                            best = d;
                            if best == 0.0 {
                                return Ok(0.0);
                            }
                        }
                    }
                }
            }
        }
        Ok(best)
    }

    /// Conservative MBR of a whole compressed spatial path, unioned from
    /// the per-unit synopses without expanding anything. This is the
    /// rectangle the block-oriented [`crate::store::TrajectoryStore`]
    /// records per block: over-approximation only costs extra candidate
    /// blocks, never a missed hit.
    pub fn spatial_mbr(&self, cs: &CompressedSpatial) -> Result<Mbr> {
        let mut mbr = Mbr::empty();
        self.for_each_unit(cs, |unit, _| {
            mbr.expand(&self.unit_mbr(unit)?);
            Ok(false)
        })?;
        Ok(mbr)
    }

    /// Collects `(unit, mbr)` summaries for a compressed path.
    fn collect_units(&self, cs: &CompressedSpatial) -> Result<Vec<(Unit, Mbr)>> {
        let mut units = Vec::new();
        self.for_each_unit(cs, |unit, _| {
            let mbr = self.unit_mbr(unit)?;
            units.push((unit, mbr));
            Ok(false)
        })?;
        Ok(units)
    }
}

#[inline]
fn ordered(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::press::{Press, PressConfig};
    use crate::temporal::BtcBounds;
    use crate::types::{DtPoint, SpatialPath, TemporalSequence};
    use press_network::{grid_network, GridConfig, NodeId, RoadNetwork, SpTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    struct Fixture {
        net: Arc<RoadNetwork>,
        press: Press,
        trajs: Vec<Trajectory>,
        compressed: Vec<CompressedTrajectory>,
    }

    fn fixture(bounds: BtcBounds) -> Fixture {
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
        while paths.len() < 50 {
            let a = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let b = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            if let Some(p) = press_network::dijkstra(&net, a).edge_path_to(&net, b) {
                if p.len() >= 5 {
                    paths.push(p);
                }
            }
        }
        let press = Press::train(
            sp,
            &paths,
            PressConfig {
                bounds,
                ..PressConfig::default()
            },
        )
        .unwrap();
        let trajs: Vec<Trajectory> = paths
            .iter()
            .map(|p| {
                let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
                let mut pts = Vec::new();
                let mut d = 0.0;
                let mut t = 0.0;
                while d < total {
                    pts.push(DtPoint::new(d, t));
                    let step: f64 = rng.gen_range(15.0..45.0);
                    d = (d + step).min(total);
                    t += rng.gen_range(2.0..6.0);
                }
                pts.push(DtPoint::new(total, t + 1.0));
                Trajectory::new(
                    SpatialPath::new_unchecked(p.clone()),
                    TemporalSequence::new(pts).unwrap(),
                )
            })
            .collect();
        let compressed = trajs.iter().map(|t| press.compress(t).unwrap()).collect();
        Fixture {
            net,
            press,
            trajs,
            compressed,
        }
    }

    #[test]
    fn whereat_exact_at_zero_tolerance() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        for (traj, ct) in f.trajs.iter().zip(&f.compressed).take(20) {
            let (t0, t1) = traj.temporal.time_range().unwrap();
            for k in 0..=10 {
                let t = t0 + (t1 - t0) * k as f64 / 10.0;
                let raw = engine.whereat_raw(traj, t).unwrap();
                let comp = engine.whereat(ct, t).unwrap();
                assert!(
                    raw.dist(&comp) < 1e-6,
                    "whereat mismatch at t={t}: raw {raw:?} comp {comp:?}"
                );
            }
        }
    }

    #[test]
    fn whereat_bounded_by_tsnd() {
        let tau = 120.0;
        let f = fixture(BtcBounds::new(tau, 60.0));
        let engine = QueryEngine::new(f.press.model());
        for (traj, ct) in f.trajs.iter().zip(&f.compressed) {
            let (t0, t1) = traj.temporal.time_range().unwrap();
            for k in 0..=8 {
                let t = t0 + (t1 - t0) * k as f64 / 8.0;
                let raw = engine.whereat_raw(traj, t).unwrap();
                let comp = engine.whereat(ct, t).unwrap();
                // |whereat' − whereat| ≤ TSND (Euclidean ≤ network distance).
                assert!(
                    raw.dist(&comp) <= tau + 1e-6,
                    "deviation {} beyond τ {tau}",
                    raw.dist(&comp)
                );
            }
        }
    }

    #[test]
    fn whereat_clamps_outside_time_range() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        let traj = &f.trajs[0];
        let ct = &f.compressed[0];
        let before = engine.whereat(ct, -1e9).unwrap();
        let raw_before = engine.whereat_raw(traj, -1e9).unwrap();
        assert!(before.dist(&raw_before) < 1e-6);
        let after = engine.whereat(ct, 1e9).unwrap();
        let raw_after = engine.whereat_raw(traj, 1e9).unwrap();
        assert!(after.dist(&raw_after) < 1e-6);
    }

    #[test]
    fn whenat_matches_raw_at_zero_tolerance_bounds() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        for (traj, ct) in f.trajs.iter().zip(&f.compressed).take(20) {
            // Probe a point in the middle of the path.
            let total = traj.path.weight(&f.net);
            let probe = traj.path.point_at(&f.net, total * 0.4).unwrap();
            let raw = engine.whenat_raw(traj, probe, 0.5).unwrap();
            let comp = engine.whenat(ct, probe, 0.5).unwrap();
            assert!(
                (raw - comp).abs() < 1e-6,
                "whenat mismatch: raw {raw} comp {comp}"
            );
        }
    }

    #[test]
    fn whenat_bounded_by_nstd() {
        let eta = 45.0;
        let f = fixture(BtcBounds::new(80.0, eta));
        let engine = QueryEngine::new(f.press.model());
        let mut checked = 0;
        for (traj, ct) in f.trajs.iter().zip(&f.compressed) {
            let total = traj.path.weight(&f.net);
            let probe = traj.path.point_at(&f.net, total * 0.5).unwrap();
            let raw = engine.whenat_raw(traj, probe, 0.5);
            let comp = engine.whenat(ct, probe, 0.5);
            if let (Ok(raw), Ok(comp)) = (raw, comp) {
                assert!(
                    (raw - comp).abs() <= eta + 1e-6,
                    "whenat deviation {} beyond η {eta}",
                    (raw - comp).abs()
                );
                checked += 1;
            }
        }
        assert!(checked > 10, "too few comparable probes");
    }

    #[test]
    fn whenat_rejects_far_points() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        let far = Point::new(1e7, 1e7);
        assert!(matches!(
            engine.whenat(&f.compressed[0], far, 1.0),
            Err(PressError::OutOfDomain(_))
        ));
        assert!(matches!(
            engine.whenat_raw(&f.trajs[0], far, 1.0),
            Err(PressError::OutOfDomain(_))
        ));
    }

    #[test]
    fn range_agrees_with_raw_at_zero_bounds() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        let mut rng = StdRng::seed_from_u64(4);
        let bb = f.net.bounding_box();
        let mut hits = 0;
        for (traj, ct) in f.trajs.iter().zip(&f.compressed) {
            let (t0, t1) = traj.temporal.time_range().unwrap();
            for _ in 0..6 {
                let cx = rng.gen_range(bb.min_x..bb.max_x);
                let cy = rng.gen_range(bb.min_y..bb.max_y);
                let half = rng.gen_range(20.0..200.0);
                let region = Mbr::new(cx - half, cy - half, cx + half, cy + half);
                let qa = t0 + (t1 - t0) * rng.gen_range(0.0..0.5);
                let qb = qa + (t1 - qa) * rng.gen_range(0.1..1.0);
                let raw = engine.range_raw(traj, qa, qb, &region).unwrap();
                let comp = engine.range(ct, qa, qb, &region).unwrap();
                assert_eq!(raw, comp, "range mismatch region {region:?}");
                if raw {
                    hits += 1;
                }
            }
        }
        assert!(hits > 5, "test regions never hit — fixture too sparse");
    }

    #[test]
    fn passes_near_detects_on_path_points() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        for (traj, ct) in f.trajs.iter().zip(&f.compressed).take(10) {
            let (t0, t1) = traj.temporal.time_range().unwrap();
            let mid = engine.whereat_raw(traj, (t0 + t1) / 2.0).unwrap();
            assert!(engine.passes_near(ct, mid, 5.0, t0, t1).unwrap());
            // A far point is not near.
            assert!(!engine
                .passes_near(ct, Point::new(1e7, 1e7), 5.0, t0, t1)
                .unwrap());
        }
    }

    #[test]
    fn min_distance_zero_for_crossing_trajectories() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        // A trajectory trivially crosses itself.
        let d = engine
            .min_distance(&f.compressed[0], &f.compressed[0])
            .unwrap();
        assert_eq!(d, 0.0);
    }

    #[test]
    fn min_distance_matches_brute_force() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        for i in 0..4 {
            for j in (i + 1)..5 {
                let fast = engine
                    .min_distance(&f.compressed[i], &f.compressed[j])
                    .unwrap();
                // Brute force over the decompressed edge pairs.
                let mut brute = f64::INFINITY;
                for &e1 in &f.trajs[i].path.edges {
                    for &e2 in &f.trajs[j].path.edges {
                        brute = brute.min(press_network::dist_segment_to_segment(
                            &f.net.edge_start(e1),
                            &f.net.edge_end(e1),
                            &f.net.edge_start(e2),
                            &f.net.edge_end(e2),
                        ));
                    }
                }
                assert!(
                    (fast - brute).abs() < 1e-9,
                    "min_distance {fast} vs brute {brute}"
                );
            }
        }
    }

    #[test]
    fn binary_scan_matches_linear_exactly() {
        // Random monotone sequences with duplicate knots (stalls and
        // same-timestamp collisions) — the binary variants must return
        // bit-identical results at every probe, including out-of-range.
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..200 {
            let n = rng.gen_range(1..40);
            let mut seq = Vec::with_capacity(n);
            let (mut d, mut t) = (0.0f64, 0.0f64);
            for _ in 0..n {
                seq.push(DtPoint::new(d, t));
                // Zero increments allowed: degenerate spans must agree too.
                if rng.gen_bool(0.3) {
                    d += rng.gen_range(0.0..50.0);
                }
                if rng.gen_bool(0.8) {
                    t += rng.gen_range(0.0..20.0);
                }
            }
            let (t0, t1) = (seq[0].t, seq[n - 1].t);
            let (d0, d1) = (seq[0].d, seq[n - 1].d);
            for k in -2..=12 {
                let tp = t0 + (t1 - t0 + 1.0) * k as f64 / 10.0;
                assert_eq!(
                    dis_linear(&seq, tp).to_bits(),
                    dis_binary(&seq, tp).to_bits(),
                    "Dis mismatch at t={tp} on {seq:?}"
                );
                let dp = d0 + (d1 - d0 + 1.0) * k as f64 / 10.0;
                assert_eq!(
                    tim_linear(&seq, dp).to_bits(),
                    tim_binary(&seq, dp).to_bits(),
                    "Tim mismatch at d={dp} on {seq:?}"
                );
            }
            // NaN probes: linear falls through to the last knot; binary
            // must not panic and must agree.
            assert_eq!(
                dis_linear(&seq, f64::NAN).to_bits(),
                dis_binary(&seq, f64::NAN).to_bits()
            );
            assert_eq!(
                tim_linear(&seq, f64::NAN).to_bits(),
                tim_binary(&seq, f64::NAN).to_bits()
            );
            // Probe exactly at every knot (tie territory).
            for p in &seq {
                assert_eq!(
                    dis_linear(&seq, p.t).to_bits(),
                    dis_binary(&seq, p.t).to_bits()
                );
                assert_eq!(
                    tim_linear(&seq, p.d).to_bits(),
                    tim_binary(&seq, p.d).to_bits()
                );
            }
        }
    }

    #[test]
    fn binary_scan_engine_agrees_on_queries() {
        let f = fixture(BtcBounds::lossless());
        let linear = QueryEngine::new(f.press.model());
        let binary = QueryEngine::with_scan(f.press.model(), ScanMode::Binary);
        for (traj, ct) in f.trajs.iter().zip(&f.compressed).take(12) {
            let (t0, t1) = traj.temporal.time_range().unwrap();
            for k in 0..=6 {
                let t = t0 + (t1 - t0) * k as f64 / 6.0;
                let a = linear.whereat(ct, t).unwrap();
                let b = binary.whereat(ct, t).unwrap();
                assert!(a.dist(&b) < 1e-12, "whereat scan mismatch at t={t}");
            }
            let total = traj.path.weight(&f.net);
            let probe = traj.path.point_at(&f.net, total * 0.5).unwrap();
            match (linear.whenat(ct, probe, 0.5), binary.whenat(ct, probe, 0.5)) {
                (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a.is_err(), b.is_err()),
            }
        }
    }

    #[test]
    fn empty_temporal_is_out_of_domain() {
        let f = fixture(BtcBounds::lossless());
        let engine = QueryEngine::new(f.press.model());
        let empty = CompressedTrajectory {
            spatial: f.compressed[0].spatial.clone(),
            temporal: TemporalSequence::default(),
        };
        assert!(engine.whereat(&empty, 0.0).is_err());
        assert!(engine.whenat(&empty, Point::new(0.0, 0.0), 1.0).is_err());
        assert!(engine
            .range(&empty, 0.0, 1.0, &Mbr::new(0.0, 0.0, 1.0, 1.0))
            .is_err());
    }
}
