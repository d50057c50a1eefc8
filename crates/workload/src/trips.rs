//! Trip routing: mostly-shortest paths with occasional detours.
//!
//! PRESS's SP compression is motivated by "objects tend to take the
//! shortest path instead of longer ones in most if not all cases" (§3).
//! The router therefore follows the shortest-path next hop with high
//! probability and occasionally deviates, producing trajectories that are
//! concatenations of a few shortest paths — the regime where Algorithm 1
//! shines without being trivial.

use press_network::{reverse_distances, EdgeId, NodeId, RoadNetwork};
use rand::rngs::StdRng;
use rand::Rng;

/// Routing parameters.
#[derive(Clone, Copy, Debug)]
pub struct RoutingConfig {
    /// Per-hop probability of taking a non-shortest-path edge.
    pub detour_prob: f64,
    /// Abandon a trip when its length exceeds this multiple of the
    /// shortest-path distance (guards against wandering).
    pub max_stretch: f64,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            detour_prob: 0.08,
            max_stretch: 3.0,
        }
    }
}

/// The shortest-path next edge from `u` towards the target, if reachable:
/// the out-edge minimizing `w(e) + dist(e.to, target)`, answered from one
/// reverse-Dijkstra distance array (`rev[v] = d(v, target)`). A per-source
/// SP provider is the wrong shape for this fixed-target pattern — every
/// probe would be a fresh source — so routing carries its own reverse
/// tree instead.
fn sp_next_edge(net: &RoadNetwork, rev: &[f64], u: NodeId) -> Option<EdgeId> {
    let mut best: Option<(f64, EdgeId)> = None;
    for &e in net.out_edges(u) {
        let d = net.weight(e) + rev[net.edge(e).to.index()];
        if d.is_finite() && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, e));
        }
    }
    best.map(|(_, e)| e)
}

/// Routes a trip from `origin` to `destination` under **perceived** edge
/// weights (a traffic profile): the trip is the exact shortest path under
/// the perceived costs, which deviates in patches from the network's
/// stored-weight shortest paths. This is the realistic regime the paper's
/// SP-compression assumption describes — drivers *mostly* follow shortest
/// paths, but not edge-for-edge under the stored metric.
pub fn route_trip_perceived(
    net: &RoadNetwork,
    origin: NodeId,
    destination: NodeId,
    perceived: &[f64],
) -> Option<Vec<EdgeId>> {
    if origin == destination {
        return None;
    }
    let tree = press_network::dijkstra_with(net, origin, perceived);
    let path = tree.edge_path_to(net, destination)?;
    if path.is_empty() {
        return None;
    }
    Some(path)
}

/// Routes a trip from `origin` to `destination`. Returns `None` when the
/// destination is unreachable or the detour budget is exhausted.
pub fn route_trip(
    net: &RoadNetwork,
    origin: NodeId,
    destination: NodeId,
    cfg: &RoutingConfig,
    rng: &mut StdRng,
) -> Option<Vec<EdgeId>> {
    if origin == destination {
        return None;
    }
    // One reverse Dijkstra serves every `d(·, destination)` query this
    // trip makes (next-hop choice, detour reachability, stretch budget).
    let rev = reverse_distances(net, destination);
    let sp_dist = rev[origin.index()];
    if !sp_dist.is_finite() {
        return None;
    }
    let budget = sp_dist * cfg.max_stretch + 1.0;
    let mut path = Vec::new();
    let mut node = origin;
    let mut traveled = 0.0f64;
    while node != destination {
        if traveled > budget {
            return None;
        }
        let sp_edge = sp_next_edge(net, &rev, node)?;
        let take_detour = cfg.detour_prob > 0.0 && rng.gen::<f64>() < cfg.detour_prob;
        let chosen = if take_detour {
            // A random alternative that still reaches the destination and
            // does not immediately backtrack.
            let alternatives: Vec<EdgeId> = net
                .out_edges(node)
                .iter()
                .copied()
                .filter(|&e| {
                    e != sp_edge
                        && rev[net.edge(e).to.index()].is_finite()
                        && path
                            .last()
                            .is_none_or(|&p: &EdgeId| net.edge(e).to != net.edge(p).from)
                })
                .collect();
            if alternatives.is_empty() {
                sp_edge
            } else {
                alternatives[rng.gen_range(0..alternatives.len())]
            }
        } else {
            sp_edge
        };
        traveled += net.weight(chosen);
        path.push(chosen);
        node = net.edge(chosen).to;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use press_network::{grid_network, GridConfig, SpProvider, SpTable};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (Arc<RoadNetwork>, Arc<dyn SpProvider>) {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            weight_jitter: 0.15,
            seed: 13,
            ..GridConfig::default()
        }));
        let sp: Arc<dyn SpProvider> = Arc::new(SpTable::build(net.clone()));
        (net, sp)
    }

    #[test]
    fn zero_detour_prob_gives_the_shortest_path() {
        let (net, sp) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = RoutingConfig {
            detour_prob: 0.0,
            ..RoutingConfig::default()
        };
        for (a, b) in [(0u32, 63u32), (7, 56), (20, 43)] {
            let trip = route_trip(&net, NodeId(a), NodeId(b), &cfg, &mut rng).unwrap();
            let w: f64 = trip.iter().map(|&e| net.weight(e)).sum();
            let d = sp.node_dist(NodeId(a), NodeId(b));
            assert!((w - d).abs() < 1e-9, "trip weight {w} vs SP {d}");
            net.validate_path(&trip).unwrap();
        }
    }

    #[test]
    fn detours_lengthen_but_stay_connected() {
        let (net, sp) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = RoutingConfig {
            detour_prob: 0.3,
            max_stretch: 5.0,
        };
        let mut longer = 0;
        for k in 0..20 {
            let trip = route_trip(&net, NodeId(0), NodeId(63), &cfg, &mut rng).unwrap_or_default();
            if trip.is_empty() {
                continue; // budget exhausted, allowed
            }
            net.validate_path(&trip).unwrap();
            assert_eq!(net.edge(trip[0]).from, NodeId(0));
            assert_eq!(net.edge(*trip.last().unwrap()).to, NodeId(63));
            let w: f64 = trip.iter().map(|&e| net.weight(e)).sum();
            if w > sp.node_dist(NodeId(0), NodeId(63)) + 1e-9 {
                longer += 1;
            }
            let _ = k;
        }
        assert!(longer > 5, "detours should usually lengthen the trip");
    }

    #[test]
    fn same_node_and_unreachable_rejected() {
        let (net, sp) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let _ = &sp;
        assert!(route_trip(
            &net,
            NodeId(0),
            NodeId(0),
            &RoutingConfig::default(),
            &mut rng
        )
        .is_none());
    }

    #[test]
    fn deterministic_for_seed() {
        let (net, _sp) = setup();
        let cfg = RoutingConfig {
            detour_prob: 0.2,
            ..RoutingConfig::default()
        };
        let a = route_trip(
            &net,
            NodeId(5),
            NodeId(60),
            &cfg,
            &mut StdRng::seed_from_u64(9),
        );
        let b = route_trip(
            &net,
            NodeId(5),
            NodeId(60),
            &cfg,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn perceived_routing_is_valid_and_deviates() {
        use rand::Rng;
        let (net, sp) = setup();
        // A jittered perception profile.
        let mut rng = StdRng::seed_from_u64(77);
        let perceived: Vec<f64> = net
            .edge_ids()
            .map(|e| net.weight(e) * (1.0 + rng.gen_range(-0.4..0.4)))
            .collect();
        let mut deviated = 0;
        for (a, b) in [(0u32, 63u32), (7, 56), (3, 60), (16, 47), (2, 61)] {
            let path = route_trip_perceived(&net, NodeId(a), NodeId(b), &perceived).unwrap();
            net.validate_path(&path).unwrap();
            assert_eq!(net.edge(path[0]).from, NodeId(a));
            assert_eq!(net.edge(*path.last().unwrap()).to, NodeId(b));
            let w: f64 = path.iter().map(|&e| net.weight(e)).sum();
            let d = sp.node_dist(NodeId(a), NodeId(b));
            // Never more than jitter-bounded stretch over the true SP.
            assert!(w <= d * 2.4 + 1e-9);
            if w > d + 1e-9 {
                deviated += 1;
            }
        }
        assert!(deviated >= 2, "perception should deviate some routes");
        // Same endpoints, same profile => identical route.
        let p1 = route_trip_perceived(&net, NodeId(0), NodeId(63), &perceived);
        let p2 = route_trip_perceived(&net, NodeId(0), NodeId(63), &perceived);
        assert_eq!(p1, p2);
    }
}
