//! Traced-run probes that sit outside the program: a shortest-path
//! provider wrapper that counts and times every call, and the timer
//! calibration used to take the probes' own cost out of what they
//! report.

use press_network::{EdgeId, Mbr, NodeId, RoadNetwork, ShortestPathTree, SpProvider};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Delegates every [`SpProvider`] method to the wrapped backend and
/// counts each call, timing a pseudo-random one in 16.
/// Handed to `Press::train` only in the traced run, so the compressor
/// and query engine built from that model route all of their SP
/// lookups through it; the map matcher's own Dijkstra does not use the
/// provider and is not counted.
///
/// Only the outermost call is seen: a derived method such as `sp_path`
/// runs inside the wrapped backend and does not come back through this
/// wrapper. Lookups are often shorter than a clock read, so timing
/// every one would mostly measure the clock; sampling keeps the
/// probe's cost low and [`SpCounts::busy_ns`] takes the clock's own
/// floor out of each timed call.
pub struct CountingSp {
    inner: Arc<dyn SpProvider>,
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
}

/// One call in `2^SAMPLE_BITS` (16) is timed.
const SAMPLE_BITS: u32 = 4;

/// Counter values of a [`CountingSp`] at one moment.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpCounts {
    /// Calls made.
    pub calls: u64,
    /// Calls timed, and their summed nanoseconds.
    pub timed: u64,
    pub timed_ns: u64,
}

impl SpCounts {
    /// The counts accrued since `earlier`.
    pub fn since(self, earlier: SpCounts) -> SpCounts {
        SpCounts {
            calls: self.calls - earlier.calls,
            timed: self.timed - earlier.timed,
            timed_ns: self.timed_ns - earlier.timed_ns,
        }
    }

    /// Adds `other`'s counts.
    pub fn add(&mut self, other: SpCounts) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }

    /// Estimated nanoseconds spent in all `calls`: the timed calls'
    /// mean, less the clock floor, times the call count.
    pub fn busy_ns(self, clock_floor_ns: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let mean = self.timed_ns as f64 / self.timed as f64 - clock_floor_ns;
        mean.max(0.0) * self.calls as f64
    }
}

impl CountingSp {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: Arc<dyn SpProvider>) -> Self {
        CountingSp {
            inner,
            calls: AtomicU64::new(0),
            timed: AtomicU64::new(0),
            timed_ns: AtomicU64::new(0),
        }
    }

    /// The counters so far, summed over all threads.
    pub fn snapshot(&self) -> SpCounts {
        // Relaxed: statistics only, read after the work they count has
        // been joined.
        SpCounts {
            calls: self.calls.load(Ordering::Relaxed),
            timed: self.timed.load(Ordering::Relaxed),
            timed_ns: self.timed_ns.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn timed<T>(&self, f: impl FnOnce(&dyn SpProvider) -> T) -> T {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        // Fibonacci hashing of the call number: one call in
        // 2^SAMPLE_BITS, without locking onto a periodic call pattern.
        if n.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SAMPLE_BITS) != 0 {
            return f(self.inner.as_ref());
        }
        let t0 = Instant::now();
        let out = f(self.inner.as_ref());
        let ns = t0.elapsed().as_nanos() as u64;
        self.timed.fetch_add(1, Ordering::Relaxed);
        self.timed_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl SpProvider for CountingSp {
    fn network(&self) -> &Arc<RoadNetwork> {
        // A field accessor: counted, never worth timing.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.network()
    }
    fn node_dist(&self, u: NodeId, v: NodeId) -> f64 {
        self.timed(|p| p.node_dist(u, v))
    }
    fn pred_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.timed(|p| p.pred_edge(u, v))
    }
    fn approx_bytes(&self) -> usize {
        self.timed(|p| p.approx_bytes())
    }
    fn gap_dist(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        self.timed(|p| p.gap_dist(ei, ej))
    }
    fn sp_weight(&self, ei: EdgeId, ej: EdgeId) -> f64 {
        self.timed(|p| p.sp_weight(ei, ej))
    }
    fn sp_end(&self, ei: EdgeId, ej: EdgeId) -> Option<EdgeId> {
        self.timed(|p| p.sp_end(ei, ej))
    }
    fn reachable(&self, ei: EdgeId, ej: EdgeId) -> bool {
        self.timed(|p| p.reachable(ei, ej))
    }
    fn sp_interior(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        self.timed(|p| p.sp_interior(ei, ej))
    }
    fn sp_path(&self, ei: EdgeId, ej: EdgeId) -> Option<Vec<EdgeId>> {
        self.timed(|p| p.sp_path(ei, ej))
    }
    fn sp_mbr(&self, ei: EdgeId, ej: EdgeId) -> Option<Mbr> {
        self.timed(|p| p.sp_mbr(ei, ej))
    }
    fn source_tree(&self, source: NodeId) -> Option<Arc<ShortestPathTree>> {
        self.timed(|p| p.source_tree(source))
    }
}

/// Median nanoseconds an empty interval measures: the clock's own
/// share of every timed call.
pub fn clock_floor_ns() -> f64 {
    let mut samples: Vec<f64> = (0..20_001)
        .map(|_| std::hint::black_box(Instant::now()).elapsed().as_nanos() as f64)
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
