//! The PRESS framework façade (paper Fig. 1).
//!
//! Wires the five components together: map matching and re-formatting
//! happen upstream (`press-matcher`, [`crate::reformat`](mod@crate::reformat)); this module owns
//! the **paralleled** spatial + temporal compression (the "P" in PRESS —
//! the two compressors are independent and run concurrently), the
//! decompression path, and storage accounting.

use crate::error::Result;
use crate::spatial::{CompressedSpatial, Decomposer, HscModel};
use crate::stats::{self, CompressionStats, DT_TUPLE_BYTES};
use crate::temporal::{btc_compress, BtcBounds};
use crate::types::{SpatialPath, TemporalSequence, Trajectory};
use press_network::{EdgeId, SpProvider};
use std::sync::Arc;

/// Configuration of a PRESS instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PressConfig {
    /// Maximum frequent-sub-trajectory length θ (paper's optimum: 3).
    pub theta: usize,
    /// Temporal error tolerances (τ, η).
    pub bounds: BtcBounds,
    /// Spatial decomposition strategy (greedy by default).
    pub decomposer: Decomposer,
}

impl Default for PressConfig {
    fn default() -> Self {
        PressConfig {
            theta: 3,
            bounds: BtcBounds::lossless(),
            decomposer: Decomposer::Greedy,
        }
    }
}

/// A trajectory compressed by PRESS: a Huffman bit stream for the spatial
/// path, and a (shorter) temporal sequence in the original `(d, t)` format.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompressedTrajectory {
    pub spatial: CompressedSpatial,
    pub temporal: TemporalSequence,
}

impl CompressedTrajectory {
    /// Storage cost under the byte model of [`crate::stats`].
    pub fn storage_bytes(&self) -> usize {
        self.spatial.byte_len() + self.temporal.len() * DT_TUPLE_BYTES
    }
}

/// A trained PRESS compressor. The heavyweight model is shared behind an
/// `Arc`, so differently-configured instances (e.g. a bounds sweep) can
/// reuse one training run.
pub struct Press {
    model: Arc<HscModel>,
    config: PressConfig,
}

impl Press {
    /// Trains PRESS: builds the HSC model (Trie, automaton, Huffman tree)
    /// from the training spatial paths. The shortest-path provider is
    /// built once per network and shared across instances and threads.
    pub fn train(
        sp: Arc<dyn SpProvider>,
        training_paths: &[Vec<EdgeId>],
        config: PressConfig,
    ) -> Result<Self> {
        let model = HscModel::train(sp, training_paths, config.theta)?;
        Ok(Press {
            model: Arc::new(model),
            config,
        })
    }

    /// Wraps an already-trained HSC model.
    pub fn with_model(model: Arc<HscModel>, config: PressConfig) -> Self {
        Press { model, config }
    }

    /// A new instance sharing this one's trained model under different
    /// temporal bounds / decomposer settings. Note: `config.theta` only
    /// takes effect at training time; the shared model keeps its θ.
    pub fn reconfigured(&self, config: PressConfig) -> Press {
        Press {
            model: self.model.clone(),
            config,
        }
    }

    /// The trained HSC model (gives access to all auxiliary structures).
    pub fn model(&self) -> &HscModel {
        &self.model
    }

    /// The active configuration.
    pub fn config(&self) -> PressConfig {
        self.config
    }

    /// Compresses one trajectory, spatial and temporal parts sequentially.
    pub fn compress(&self, traj: &Trajectory) -> Result<CompressedTrajectory> {
        let spatial = self
            .model
            .compress_with(&traj.path.edges, self.config.decomposer)?;
        let temporal = TemporalSequence::new_unchecked(btc_compress(
            &traj.temporal.points,
            self.config.bounds,
        ));
        Ok(CompressedTrajectory { spatial, temporal })
    }

    /// Compresses one trajectory with the spatial and temporal compressors
    /// running **in parallel** (the paper's framework name: *Paralleled*
    /// road-network-based trajectory compression).
    pub fn compress_parallel(&self, traj: &Trajectory) -> Result<CompressedTrajectory> {
        std::thread::scope(|scope| {
            let spatial_task = scope.spawn(|| {
                self.model
                    .compress_with(&traj.path.edges, self.config.decomposer)
            });
            let temporal = btc_compress(&traj.temporal.points, self.config.bounds);
            let spatial = spatial_task.join().expect("spatial compressor panicked")?;
            Ok(CompressedTrajectory {
                spatial,
                temporal: TemporalSequence::new_unchecked(temporal),
            })
        })
    }

    /// Compresses a batch across `threads` worker threads (dataset-scale
    /// operation used by the experiments).
    ///
    /// Work distribution is the shared
    /// [`work_steal_map`](crate::parallel::work_steal_map) loop —
    /// work-stealing over an atomic cursor rather than fixed chunking:
    /// trajectory costs vary wildly with length, so pre-chunking leaves
    /// threads idle behind the slowest slice, while stealing one index at
    /// a time keeps every worker busy until the batch is drained. All
    /// workers share the model's single, read-only `SpProvider`.
    pub fn compress_batch(
        &self,
        trajectories: &[Trajectory],
        threads: usize,
    ) -> Result<Vec<CompressedTrajectory>> {
        crate::parallel::work_steal_map(trajectories, threads, |_, t| self.compress(t))
            .into_iter()
            .collect()
    }

    /// Decompresses back to a full trajectory. The spatial path is restored
    /// exactly (HSC is lossless); the temporal sequence is returned as-is —
    /// "BTC does not require any decompression process" (§1).
    pub fn decompress(&self, compressed: &CompressedTrajectory) -> Result<Trajectory> {
        let edges = self.model.decompress(&compressed.spatial)?;
        Ok(Trajectory::new(
            SpatialPath::new_unchecked(edges),
            compressed.temporal.clone(),
        ))
    }

    /// Stats of one pair under the network-form byte model (edge ids +
    /// temporal tuples vs bit stream + retained tuples).
    pub fn stats_network_form(
        &self,
        original: &Trajectory,
        compressed: &CompressedTrajectory,
    ) -> CompressionStats {
        CompressionStats::new(
            stats::network_form_bytes(original.path.len(), original.temporal.len()),
            compressed.storage_bytes(),
        )
    }

    /// Stats of one pair against the raw-GPS byte model (`(x, y, t)`
    /// triples) — the paper's overall PRESS ratio (Fig. 12(b)) counts the
    /// original in this form.
    pub fn stats_vs_raw_gps(
        &self,
        raw_point_count: usize,
        compressed: &CompressedTrajectory,
    ) -> CompressionStats {
        CompressionStats::new(
            stats::raw_gps_bytes(raw_point_count),
            compressed.storage_bytes(),
        )
    }
}

impl std::fmt::Debug for Press {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Press")
            .field("config", &self.config)
            .field("model", &self.model)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DtPoint;
    use press_network::{grid_network, GridConfig, NodeId, RoadNetwork, SpTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (Arc<RoadNetwork>, Press, Vec<Trajectory>) {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 6,
            weight_jitter: 0.1,
            seed: 21,
            ..GridConfig::default()
        }));
        let sp = Arc::new(SpTable::build(net.clone()));
        let mut rng = StdRng::seed_from_u64(5);
        let mut paths = Vec::new();
        for _ in 0..60 {
            let a = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let b = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            if let Some(p) = press_network::dijkstra(&net, a).edge_path_to(&net, b) {
                if p.len() >= 3 {
                    paths.push(p);
                }
            }
        }
        let press = Press::train(sp, &paths, PressConfig::default()).unwrap();
        // Turn paths into trajectories with a constant-speed temporal layer
        // plus occasional stalls.
        let trajs: Vec<Trajectory> = paths
            .iter()
            .map(|p| {
                let total: f64 = p.iter().map(|&e| net.weight(e)).sum();
                let mut pts = Vec::new();
                let mut d = 0.0;
                let mut t = 0.0;
                while d < total {
                    pts.push(DtPoint::new(d, t));
                    d += rng.gen_range(20.0..60.0);
                    t += rng.gen_range(3.0..8.0);
                    if rng.gen_bool(0.1) {
                        t += 30.0;
                    }
                }
                pts.push(DtPoint::new(total, t));
                Trajectory::new(
                    SpatialPath::new_unchecked(p.clone()),
                    TemporalSequence::new(pts).unwrap(),
                )
            })
            .collect();
        (net, press, trajs)
    }

    #[test]
    fn roundtrip_spatial_lossless_temporal_bounded() {
        let (_, press, trajs) = setup();
        for traj in &trajs {
            let c = press.compress(traj).unwrap();
            let back = press.decompress(&c).unwrap();
            assert_eq!(back.path, traj.path, "spatial must be lossless");
            // Lossless bounds: temporal curve identical.
            assert_eq!(
                crate::temporal::tsnd(&traj.temporal.points, &back.temporal.points),
                0.0
            );
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let (_, press, trajs) = setup();
        for traj in trajs.iter().take(10) {
            let a = press.compress(traj).unwrap();
            let b = press.compress_parallel(traj).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn batch_equals_individual() {
        let (_, press, trajs) = setup();
        let batch = press.compress_batch(&trajs, 4).unwrap();
        assert_eq!(batch.len(), trajs.len());
        for (traj, c) in trajs.iter().zip(&batch) {
            assert_eq!(*c, press.compress(traj).unwrap());
        }
        // Single-thread path too.
        let batch1 = press.compress_batch(&trajs[..3], 1).unwrap();
        assert_eq!(batch1.len(), 3);
    }

    #[test]
    fn compression_actually_saves_space() {
        // Against the raw-GPS byte model (the paper's Fig. 12(b) framing):
        // even at zero temporal tolerance the ratio must clear ~2x because
        // (d, t) tuples are smaller than (x, y, t) triples and the spatial
        // stream is tiny.
        let (_, press, trajs) = setup();
        let mut total = CompressionStats::default();
        for traj in &trajs {
            let c = press.compress(traj).unwrap();
            total.accumulate(&press.stats_vs_raw_gps(traj.temporal.len(), &c));
        }
        assert!(
            total.ratio() > 1.8,
            "expected >1.8x vs raw GPS on shortest-path traffic, got {:.2}",
            total.ratio()
        );
        // And the network-form ratio is still > 1.
        let mut nf = CompressionStats::default();
        for traj in &trajs {
            let c = press.compress(traj).unwrap();
            nf.accumulate(&press.stats_network_form(traj, &c));
        }
        assert!(nf.ratio() > 1.0, "network-form ratio {:.2}", nf.ratio());
    }

    #[test]
    fn loose_bounds_improve_ratio() {
        let (net, _, trajs) = setup();
        let sp = Arc::new(SpTable::build(net));
        let paths: Vec<Vec<EdgeId>> = trajs.iter().map(|t| t.path.edges.clone()).collect();
        let strict = Press::train(sp.clone(), &paths, PressConfig::default()).unwrap();
        let loose = Press::train(
            sp,
            &paths,
            PressConfig {
                bounds: BtcBounds::new(500.0, 500.0),
                ..PressConfig::default()
            },
        )
        .unwrap();
        let mut strict_total = CompressionStats::default();
        let mut loose_total = CompressionStats::default();
        for traj in &trajs {
            let cs = strict.compress(traj).unwrap();
            let cl = loose.compress(traj).unwrap();
            strict_total.accumulate(&strict.stats_network_form(traj, &cs));
            loose_total.accumulate(&loose.stats_network_form(traj, &cl));
        }
        assert!(loose_total.ratio() >= strict_total.ratio());
    }

    #[test]
    fn raw_gps_stats_use_sample_count() {
        let (_, press, trajs) = setup();
        let c = press.compress(&trajs[0]).unwrap();
        let s = press.stats_vs_raw_gps(100, &c);
        assert_eq!(s.original_bytes, 2000);
        assert!(s.compressed_bytes > 0);
    }
}
