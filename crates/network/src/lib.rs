//! # press-network
//!
//! Road-network substrate for the PRESS trajectory-compression framework
//! (Song et al., VLDB 2014). A road network is a directed graph
//! `G = (V, E)` with planar node embeddings and weighted edges (§2 of the
//! paper). This crate provides:
//!
//! * strongly-typed ids ([`NodeId`], [`EdgeId`]),
//! * a planar [geometry](mod@crate::geometry) kit (points, projections, MBRs),
//! * the immutable [`RoadNetwork`] graph with CSR adjacency,
//! * [Dijkstra](mod@crate::dijkstra) shortest paths with deterministic
//!   tie-breaking,
//! * the [`SpProvider`] abstraction over the paper's `SP(ei, ej)` /
//!   `SPend(ei, ej)` structures (§3.1), with three interchangeable
//!   backends — the eager dense [`SpTable`], the [`ContractionHierarchy`],
//!   and the 2-hop [`HubLabels`] built from the CH order — selected by
//!   [`SpBackend`],
//! * a uniform-grid [spatial index](crate::index) over edges, and
//! * [synthetic generators](crate::generators) (grid, ring-radial, random
//!   geometric) standing in for the Singapore road network.
//!
//! ## Choosing an SP backend
//!
//! The dense [`SpTable`] stores `O(|V|²)` distances/predecessors for
//! `O(1)` lookups — ideal below a few thousand nodes and the correctness
//! oracle for the other backends, impossible at city scale (100k nodes ≈
//! 120 GB). The [`ContractionHierarchy`] preprocesses a node hierarchy in
//! `O(|V| + shortcuts)` memory — batched independent-set contraction
//! spreads the one-time build over every core, bit-identically for any
//! thread count — and answers random point lookups in about a
//! millisecond at 100k nodes via bidirectional upward search. The
//! [`HubLabels`] backend precomputes those searches into per-node label
//! arrays (~10× the CH memory) and answers the same lookups in
//! microseconds by a flat sorted merge — the backend for lookup-dominated
//! serving at city scale. All three derive from the same canonical
//! shortest-path trees, so results are bit-identical; pick with
//! [`SpBackend`] based on network size, RAM, and access pattern.
//! Everything downstream (map matcher, compressors, query processor,
//! baselines, workload generator) consumes the trait, not a concrete
//! backend.
//!
//! **Zero-weight edges.** [`RoadNetworkBuilder`] accepts edges of weight
//! zero, but the CH and hub-label builds assert strictly positive
//! weights, so a network with a zero-weight edge can only be served by
//! the dense table. None of the generators in this crate produce one.

pub mod ch;
pub mod dijkstra;
pub mod error;
pub mod generators;
pub mod geometry;
pub mod graph;
pub mod hub_labels;
pub mod id;
pub mod index;
pub mod parallel;
mod probe;
pub mod provider;
pub mod sp_table;
mod store_codec;

pub use ch::{ChConfig, ContractionHierarchy, MappedContractionHierarchy};
pub use dijkstra::{
    dijkstra, dijkstra_bounded, dijkstra_with, node_distance, reverse_distances, ShortestPathTree,
};
pub use error::NetworkError;
pub use generators::{
    grid_network, random_geometric_network, ring_radial_network, GridConfig, RandomGeometricConfig,
    RingRadialConfig,
};
pub use geometry::{
    dist_point_to_segment, dist_segment_to_segment, point_along_polyline, polyline_length,
    project_onto_segment, segments_intersect, Mbr, Point, Projection,
};
pub use graph::{Edge, Node, RoadNetwork, RoadNetworkBuilder};
pub use hub_labels::{HubLabels, MappedHubLabels};
pub use id::{EdgeId, NodeId};
pub use index::EdgeSpatialIndex;
pub use provider::{SpBackend, SpProvider};
pub use sp_table::SpTable;
