//! The benchmark's one fixture: a road network, its SP backend, an HSC
//! model trained on seeded trips, and a fleet driving further trips as
//! one time-interleaved GPS stream; plus the ingest settings and the
//! query mixes every workload uses.

use crate::trace::CountingSp;
use press_core::{BtcBounds, Press, PressConfig, StoreQuery, TrajectoryStore};
use press_matcher::{GpsSample, MapMatcher, MatcherConfig};
use press_network::{grid_network, GridConfig, Mbr, NodeId, RoadNetwork, SpBackend, SpProvider};
use press_serve::{DurabilityPolicy, Event, IngestConfig, SessionPolicy};
use press_workload::{query_mix, QueryMixConfig, Workload, WorkloadConfig};
use std::sync::Arc;

/// Side of the grid road network (32 × 32 = 1024 junctions).
const GRID_SIDE: usize = 32;
/// Vehicles in the fleet stream.
pub const VEHICLES: usize = 512;
/// Seconds each vehicle drives (its last trip is cut there), so every
/// seed streams about the same number of fixes: 512 × ~400 ≈ 205k.
const DRIVE_S: f64 = 600.0;
/// Trips generated for the vehicles to draw from, beyond the training
/// trips; vehicles cycle through them if a seed's trips are short.
const TRIP_POOL: usize = 1024;
/// Parked time between a vehicle's trips — longer than the engine's
/// idle cut, so each trip is its own session.
const PAUSE_S: f64 = 180.0;
/// Popular origin–destination pairs the fleet's Zipf demand draws
/// from, and the share of trips drawn from them (the rest have
/// uniform random ends). Enough pairs, and a small enough share, that
/// which corridors are busy — and so how much a query region catches —
/// varies little from seed to seed.
const HUB_PAIRS: usize = 128;
const HUB_TRIP_SHARE: f64 = 0.3;
/// Seconds between a vehicle's GPS fixes.
const FIX_INTERVAL_S: f64 = 1.5;
/// GPS noise standard deviation in meters.
const GPS_NOISE_M: f64 = 4.0;
/// Stream-time offset between consecutive vehicles' first fixes, so
/// a steady ~20 vehicles are driving at any moment.
const VEHICLE_STAGGER_S: f64 = 29.0;
/// The engine checkpoints whenever the stream clock passes another
/// span of this many seconds (stream time, taken from fix timestamps).
pub const CHECKPOINT_EVERY_S: f64 = 300.0;
/// Writer shards of the ingest engine.
const SHARDS: usize = 4;
/// Queries in one pass over the selective and the wide mix: enough
/// that the mix's cost barely depends on which regions and hotspots a
/// seed draws.
const SELECTIVE_QUERIES: usize = 16_000;
const WIDE_QUERIES: usize = 4000;

/// Everything set-up builds before any ingest.
pub struct Fixture {
    /// The road network (fixed: the map does not change with the seed).
    pub net: Arc<RoadNetwork>,
    /// The SP backend the HSC model was trained on.
    pub sp: Arc<dyn SpProvider>,
    /// HSC training paths (the first `VEHICLES` generated trips).
    pub training_paths: Vec<Vec<press_network::EdgeId>>,
    /// The trained compressor.
    pub press: Press,
    /// The map matcher the ingest engine uses.
    pub matcher: Arc<MapMatcher>,
    /// The interleaved fleet stream, in stream-time order.
    pub events: Vec<Event>,
}

/// τ (TSND, meters) and η (NSTD, seconds) of the BTC temporal
/// compressor.
pub fn btc_bounds() -> BtcBounds {
    BtcBounds::new(45.0, 15.0)
}

impl Fixture {
    /// Builds the network, SP backend, HSC model and fleet stream for
    /// `seed`. The same seed always yields the same fixture.
    pub fn build(seed: u64) -> Fixture {
        let net = Arc::new(grid_network(&GridConfig {
            nx: GRID_SIDE,
            ny: GRID_SIDE,
            spacing: 150.0,
            weight_jitter: 0.12,
            removal_prob: 0.0,
            seed: 33,
        }));
        let sp = SpBackend::Dense.build(net.clone());
        let workload = Workload::generate(
            net.clone(),
            sp.clone(),
            WorkloadConfig {
                num_trajectories: VEHICLES + TRIP_POOL,
                seed,
                hub_pairs: HUB_PAIRS,
                hub_trip_fraction: HUB_TRIP_SHARE,
                ..WorkloadConfig::default()
            },
        );
        let (train, pool) = workload.records.split_at(VEHICLES);
        let training_paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
        let press = train_press(sp.clone(), &training_paths);
        let matcher = Arc::new(MapMatcher::new(net.clone(), MatcherConfig::default()));
        let mut trips = pool.iter().cycle();
        let mut events: Vec<Event> = Vec::new();
        for v in 0..VEHICLES {
            let (mut clock, mut driven) = (v as f64 * VEHICLE_STAGGER_S, 0.0);
            while driven < DRIVE_S {
                let trip = trips.next().expect("the trip pool is not empty");
                let trace = trip.gps_trace(&net, FIX_INTERVAL_S, GPS_NOISE_M);
                let start = trace.points.first().map_or(0.0, |p| p.t);
                for p in &trace.points {
                    let t = p.t - start;
                    if driven + t >= DRIVE_S {
                        break;
                    }
                    events.push((
                        v as u64,
                        GpsSample {
                            point: p.point,
                            t: clock + t,
                        },
                    ));
                }
                let duration = trace.points.last().map_or(0.0, |p| p.t) - start + FIX_INTERVAL_S;
                driven += duration;
                clock += duration + PAUSE_S;
            }
        }
        events.sort_by(|a, b| a.1.t.total_cmp(&b.1.t));
        Fixture {
            net,
            sp,
            training_paths,
            press,
            matcher,
            events,
        }
    }

    /// A second compressor trained identically but on a [`CountingSp`]
    /// wrapper of the same backend — the traced run's probe into the
    /// network layer. The model is bit-identical to `self.press`'s.
    pub fn counting_press(&self) -> (Press, Arc<CountingSp>) {
        let counter = Arc::new(CountingSp::new(self.sp.clone()));
        let press = train_press(counter.clone(), &self.training_paths);
        (press, counter)
    }

    /// Each vehicle's fixes in stream order, cut into chunks of the
    /// engine's session cap — the segments the engine's flush matches
    /// (idle cuts aside).
    pub fn vehicle_segments(&self) -> Vec<Vec<GpsSample>> {
        let mut per_vehicle: Vec<Vec<GpsSample>> = vec![Vec::new(); VEHICLES];
        for &(v, s) in &self.events {
            per_vehicle[v as usize].push(s);
        }
        let cap = ingest_config(1).max_session_points;
        per_vehicle
            .iter()
            .flat_map(|fixes| fixes.chunks(cap).map(<[GpsSample]>::to_vec))
            .collect()
    }
}

fn train_press(sp: Arc<dyn SpProvider>, paths: &[Vec<press_network::EdgeId>]) -> Press {
    Press::train(
        sp,
        paths,
        PressConfig {
            bounds: btc_bounds(),
            ..PressConfig::default()
        },
    )
    .expect("HSC training on generated trips cannot fail")
}

/// The ingest engine's settings: group-commit durability, several
/// writer shards, `threads` flush workers, 64-fix session cap and a
/// two-minute idle cut, so segments close and flush continuously.
pub fn ingest_config(threads: usize) -> IngestConfig {
    IngestConfig {
        policy: SessionPolicy::default(),
        idle_timeout: 120.0,
        max_session_points: 64,
        threads,
        durability: DurabilityPolicy::group_commit(),
        shards: SHARDS,
        ..IngestConfig::default()
    }
}

/// The query traffic a workload sends to the published corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Dashboard reads: narrow windows, small regions, hotspot replays,
    /// some misses — the index prunes almost everything.
    Selective,
    /// Analytic sweeps: wide windows, large regions, no hotspots — the
    /// index prunes little and every query decodes many blocks.
    Wide,
}

impl Mix {
    /// The mix's queries against `store`, seeded by `seed`. Regions are
    /// drawn inside the map `net` covers; windows inside the time the
    /// corpus covers.
    pub fn queries(self, store: &TrajectoryStore, net: &RoadNetwork, seed: u64) -> Vec<StoreQuery> {
        let mut bbox = Mbr::empty();
        for n in 0..net.num_nodes() {
            bbox.expand_point(&net.node(NodeId(n as u32)).point);
        }
        let (mut t_min, mut t_max, mut span_sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for b in 0..store.num_blocks() {
            let syn = store.synopsis(b);
            t_min = t_min.min(syn.t0);
            t_max = t_max.max(syn.t1);
            span_sum += syn.t1 - syn.t0;
        }
        let horizon = (t_max - t_min).max(1.0);
        let block_span = span_sum / store.num_blocks().max(1) as f64;
        let base = QueryMixConfig {
            seed: seed ^ 0x5e1e_c71e,
            bbox,
            t_min,
            t_max,
            num_trajectories: store.len(),
            ..QueryMixConfig::default()
        };
        let cfg = match self {
            Mix::Selective => QueryMixConfig {
                num_queries: SELECTIVE_QUERIES,
                range_fraction: 0.8,
                window_fraction: block_span / horizon,
                region_fraction: 0.15,
                miss_fraction: 0.1,
                hotspot_fraction: 0.5,
                hotspot_pool: 256,
                ..base
            },
            Mix::Wide => QueryMixConfig {
                num_queries: WIDE_QUERIES,
                seed: seed ^ 0x0a11_5eed,
                range_fraction: 0.6,
                window_fraction: 0.15,
                region_fraction: 0.5,
                miss_fraction: 0.0,
                hotspot_fraction: 0.0,
                ..base
            },
        };
        query_mix(&cfg)
    }
}
