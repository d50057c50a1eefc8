//! Shared experiment environment: one network, one workload, one trained
//! PRESS instance — mirroring the paper's setup of a fixed road network
//! (Singapore) and a trajectory corpus split into training and evaluation
//! (§6: "we take the trajectories corresponding to one day as a training
//! dataset").
//!
//! Environments can also **warm-start** from the on-disk artifact tier
//! ([`StoreMode`]): `Save` persists the network, the SP backend's
//! structure, and the trained HSC model after building; `Load` restores
//! them in a fresh process and skips the SP preprocessing and training
//! entirely. Loaded artifacts are bit-identical to built ones, so every
//! experiment produces the same numbers either way (the workload itself
//! is regenerated — it is seeded and cheap).

use press_core::{HscModel, Press, PressConfig, Trajectory};
use press_network::{ContractionHierarchy, HubLabels, RoadNetwork, SpBackend, SpProvider, SpTable};
use press_workload::{TrajectoryRecord, Workload, WorkloadConfig};
use std::path::Path;
use std::sync::Arc;

/// Experiment scale, selecting workload sizes so the quick mode finishes
/// in seconds and the full mode in minutes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly.
    Small,
    /// Paper-shaped sweeps.
    Full,
}

impl Scale {
    /// Number of trajectories in the workload.
    pub fn num_trajectories(self) -> usize {
        match self {
            Scale::Small => 150,
            Scale::Full => 600,
        }
    }
}

/// How an [`Env`] interacts with the on-disk artifact store.
#[derive(Clone, Copy, Debug, Default)]
pub enum StoreMode<'a> {
    /// Build everything in memory (the default).
    #[default]
    None,
    /// Build, then persist network / SP structure / trained model under
    /// the directory (one subdirectory per environment flavor).
    Save(&'a Path),
    /// Warm-start: load the artifacts saved by a previous `Save` run.
    Load(&'a Path),
    /// Warm-start through the zero-copy mapped tier: CH/HL structures
    /// open as read-only mappings whose flat sections are borrowed in
    /// place (open cost is page faults, not decode), answering
    /// bit-identically to `Load`. The dense table has no flat artifact
    /// and falls back to the owned load.
    Map(&'a Path),
}

/// Artifact file names inside an environment's store subdirectory.
fn sp_file_name(backend: SpBackend) -> &'static str {
    match backend {
        SpBackend::Dense => "sp_dense.press",
        SpBackend::Ch => "sp_ch.press",
        SpBackend::Hl => "sp_hl.press",
    }
}

/// A ready-to-measure environment.
pub struct Env {
    pub net: Arc<RoadNetwork>,
    pub sp: Arc<dyn SpProvider>,
    pub workload: Workload,
    pub press: Press,
    /// Which SP backend `sp` is.
    pub backend: SpBackend,
    /// Fraction of records used for FST training.
    pub train_fraction: f64,
}

/// An SP provider kept concretely typed so it can be persisted (the trait
/// object cannot be downcast).
enum ConcreteSp {
    Dense(Arc<SpTable>),
    Ch(Arc<ContractionHierarchy>),
    Hl(Arc<HubLabels>),
}

impl ConcreteSp {
    /// Builds the backend with `threads` preprocessing workers (0 = one
    /// per core; bit-identical output for any value). The HL backend
    /// contracts **once** and derives its labels from that hierarchy.
    fn build(backend: SpBackend, net: Arc<RoadNetwork>, threads: usize) -> ConcreteSp {
        let ch_cfg = press_network::ChConfig {
            threads,
            ..press_network::ChConfig::default()
        };
        match backend {
            SpBackend::Dense => ConcreteSp::Dense(Arc::new(SpTable::build(net))),
            SpBackend::Ch => {
                ConcreteSp::Ch(Arc::new(ContractionHierarchy::build_with(net, ch_cfg)))
            }
            SpBackend::Hl => ConcreteSp::Hl(Arc::new(HubLabels::build_with_threads(net, threads))),
        }
    }

    fn load(backend: SpBackend, net: Arc<RoadNetwork>, path: &Path) -> press_store::Result<Self> {
        Ok(match backend {
            SpBackend::Dense => ConcreteSp::Dense(Arc::new(SpTable::load_from(net, path)?)),
            SpBackend::Ch => ConcreteSp::Ch(Arc::new(ContractionHierarchy::load_from(net, path)?)),
            SpBackend::Hl => ConcreteSp::Hl(Arc::new(HubLabels::load_from(net, path)?)),
        })
    }

    /// [`ConcreteSp::load`] through the zero-copy mapped tier where one
    /// exists (CH, HL); the dense table has no flat artifact and falls
    /// back to the owned load.
    fn open_mapped(
        backend: SpBackend,
        net: Arc<RoadNetwork>,
        path: &Path,
    ) -> press_store::Result<Self> {
        Ok(match backend {
            SpBackend::Ch => {
                ConcreteSp::Ch(Arc::new(ContractionHierarchy::open_mapped(net, path)?))
            }
            SpBackend::Hl => ConcreteSp::Hl(Arc::new(HubLabels::open_mapped(net, path)?)),
            other => return Self::load(other, net, path),
        })
    }

    fn save(&self, path: &Path) -> press_store::Result<()> {
        match self {
            ConcreteSp::Dense(t) => t.save_to(path),
            ConcreteSp::Ch(ch) => ch.save_to(path),
            ConcreteSp::Hl(hl) => hl.save_to(path),
        }
    }

    fn erased(&self) -> Arc<dyn SpProvider> {
        match self {
            ConcreteSp::Dense(t) => t.clone(),
            ConcreteSp::Ch(ch) => ch.clone(),
            ConcreteSp::Hl(hl) => hl.clone(),
        }
    }
}

impl Env {
    /// Builds the standard environment: a jittered 16×16 grid (256 nodes,
    /// ~1.9k directed edges, 160 m blocks so trips span enough samples and
    /// coded units for the temporal and query sweeps), a Zipf-skewed
    /// workload, PRESS trained at θ = 3 with lossless temporal bounds.
    pub fn standard(scale: Scale, seed: u64) -> Env {
        Self::standard_with_backend(scale, seed, SpBackend::Dense)
    }

    /// [`Env::standard`] over an explicit SP backend, so every experiment
    /// can run on any backend.
    pub fn standard_with_backend(scale: Scale, seed: u64, backend: SpBackend) -> Env {
        Self::standard_with_store(scale, seed, backend, StoreMode::None)
    }

    /// [`Env::standard_with_backend`] with an explicit [`StoreMode`]
    /// (artifacts live under `<dir>/standard/`).
    pub fn standard_with_store(
        scale: Scale,
        seed: u64,
        backend: SpBackend,
        store: StoreMode<'_>,
    ) -> Env {
        Self::standard_sp_threads(scale, seed, backend, store, 0)
    }

    /// [`Env::standard_with_store`] with an explicit SP preprocessing
    /// worker count (0 = one per core). Thread count never changes any
    /// result — it only bounds build parallelism (e.g. on shared
    /// machines), so every experiment is reproducible regardless.
    pub fn standard_sp_threads(
        scale: Scale,
        seed: u64,
        backend: SpBackend,
        store: StoreMode<'_>,
        sp_threads: usize,
    ) -> Env {
        let grid = press_network::GridConfig {
            nx: 16,
            ny: 16,
            spacing: 160.0,
            weight_jitter: 0.15,
            removal_prob: 0.03,
            seed,
        };
        let wl = WorkloadConfig {
            num_trajectories: scale.num_trajectories(),
            seed,
            min_trip_edges: 12,
            ..WorkloadConfig::default()
        };
        Self::build_env(grid, wl, backend, store, sp_threads, "standard")
    }

    /// A larger environment with **long-haul** trips (32×32 grid, minimum
    /// 40-edge journeys, dense 5 s sampling) for the query-performance
    /// experiments (Figs. 15–17): the paper's query speed-ups come from
    /// skipping coded units, which needs trajectories long enough that the
    /// α·γ·β factors dominate the per-query constants.
    pub fn long_haul(scale: Scale, seed: u64) -> Env {
        Self::long_haul_sp_threads(scale, seed, SpBackend::Dense, StoreMode::None, 0)
    }

    /// [`Env::long_haul`] over an explicit SP backend and [`StoreMode`]
    /// (artifacts live under `<dir>/long_haul/`), with an explicit SP
    /// preprocessing worker count (0 = one per core); see
    /// [`Env::standard_sp_threads`].
    pub fn long_haul_sp_threads(
        scale: Scale,
        seed: u64,
        backend: SpBackend,
        store: StoreMode<'_>,
        sp_threads: usize,
    ) -> Env {
        let grid = press_network::GridConfig {
            nx: 32,
            ny: 32,
            spacing: 160.0,
            weight_jitter: 0.15,
            removal_prob: 0.03,
            seed,
        };
        let wl = WorkloadConfig {
            num_trajectories: match scale {
                Scale::Small => 80,
                Scale::Full => 300,
            },
            seed,
            min_trip_edges: 40,
            sampling_interval: 5.0,
            ..WorkloadConfig::default()
        };
        Self::build_env(grid, wl, backend, store, sp_threads, "long_haul")
    }

    /// Configuration fingerprint persisted next to the artifacts: the
    /// grid, workload, and backend parameters the artifacts were built
    /// under. A `Load` whose requested configuration fingerprints
    /// differently would silently produce results from mismatched
    /// artifacts, so it is rejected instead.
    fn provenance_bytes(
        grid: &press_network::GridConfig,
        wl: &WorkloadConfig,
        backend: SpBackend,
    ) -> Vec<u8> {
        let mut w = press_store::ByteWriter::with_capacity(96);
        w.put_u64(grid.nx as u64);
        w.put_u64(grid.ny as u64);
        w.put_f64(grid.spacing);
        w.put_f64(grid.weight_jitter);
        w.put_f64(grid.removal_prob);
        w.put_u64(grid.seed);
        w.put_u64(wl.num_trajectories as u64);
        w.put_u64(wl.seed);
        w.put_u64(wl.min_trip_edges as u64);
        w.put_f64(wl.sampling_interval);
        // Backend codes are part of the saved provenance: never renumber
        // them (1 is retired). The trailing zero once held a per-backend
        // parameter and keeps old directories loadable.
        let tag = match backend {
            SpBackend::Dense => 0u64,
            SpBackend::Ch => 2,
            SpBackend::Hl => 3,
        };
        w.put_u64(tag);
        w.put_u64(0);
        w.into_bytes()
    }

    /// Shared construction: network → SP provider → workload → trained
    /// PRESS, with the network / SP structure / model either built (and
    /// optionally saved) or warm-started from a store directory.
    fn build_env(
        grid: press_network::GridConfig,
        wl: WorkloadConfig,
        backend: SpBackend,
        store: StoreMode<'_>,
        sp_threads: usize,
        flavor: &str,
    ) -> Env {
        let fail = |what: &str, e: press_store::StoreError| -> ! {
            panic!("artifact store: cannot {what} for the {flavor} environment: {e}")
        };
        let provenance = Self::provenance_bytes(&grid, &wl, backend);
        let (net, concrete, loaded_model) = match store {
            StoreMode::Load(base) | StoreMode::Map(base) => {
                let mapped = matches!(store, StoreMode::Map(_));
                let dir = base.join(flavor);
                let meta = press_store::StoreFile::open(&dir.join("env_meta.press"))
                    .unwrap_or_else(|e| fail("read the environment provenance", e));
                let saved = meta
                    .expect_kind(press_store::kind::META)
                    .and_then(|()| meta.section("provenance"))
                    .unwrap_or_else(|e| fail("read the environment provenance", e));
                assert!(
                    saved == provenance.as_slice(),
                    "artifact store: {} was saved under a different seed, scale, grid, \
                     workload, or SP backend than this run requests; rebuild it with \
                     --save-dir using the same flags",
                    dir.display()
                );
                let net = Arc::new(
                    RoadNetwork::load_from(&dir.join("network.press"))
                        .unwrap_or_else(|e| fail("load the network", e)),
                );
                let sp_path = dir.join(sp_file_name(backend));
                let concrete = if mapped {
                    ConcreteSp::open_mapped(backend, net.clone(), &sp_path)
                        .unwrap_or_else(|e| fail("map the SP structure", e))
                } else {
                    ConcreteSp::load(backend, net.clone(), &sp_path)
                        .unwrap_or_else(|e| fail("load the SP structure", e))
                };
                let model = HscModel::load_from(concrete.erased(), &dir.join("hsc.press"))
                    .unwrap_or_else(|e| fail("load the HSC model", e));
                (net, concrete, Some(model))
            }
            _ => {
                let net = Arc::new(press_network::grid_network(&grid));
                let concrete = ConcreteSp::build(backend, net.clone(), sp_threads);
                (net, concrete, None)
            }
        };
        let sp = concrete.erased();
        let workload = Workload::generate(net.clone(), sp.clone(), wl);
        let train_fraction = 0.3;
        let press = match loaded_model {
            Some(model) => Press::with_model(Arc::new(model), PressConfig::default()),
            None => {
                let (train, _) = workload.split(train_fraction);
                let training_paths: Vec<Vec<press_network::EdgeId>> =
                    train.iter().map(|r| r.path.clone()).collect();
                Press::train(sp.clone(), &training_paths, PressConfig::default()).expect("training")
            }
        };
        if let StoreMode::Save(base) = store {
            let dir = base.join(flavor);
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| fail("create the store directory", e.into()));
            net.save_to(&dir.join("network.press"))
                .unwrap_or_else(|e| fail("save the network", e));
            concrete
                .save(&dir.join(sp_file_name(backend)))
                .unwrap_or_else(|e| fail("save the SP structure", e));
            press
                .model()
                .save_to(&dir.join("hsc.press"))
                .unwrap_or_else(|e| fail("save the HSC model", e));
            let mut w = press_store::StoreWriter::new(press_store::kind::META);
            w.section("provenance", provenance);
            w.write_to(&dir.join("env_meta.press"))
                .unwrap_or_else(|e| fail("save the environment provenance", e));
        }
        Env {
            net,
            sp,
            workload,
            press,
            backend,
            train_fraction,
        }
    }

    /// Evaluation records (those not used for training).
    pub fn eval_records(&self) -> &[TrajectoryRecord] {
        self.workload.split(self.train_fraction).1
    }

    /// Training records.
    pub fn train_records(&self) -> &[TrajectoryRecord] {
        self.workload.split(self.train_fraction).0
    }

    /// Evaluation trajectories at the workload's default sampling interval.
    pub fn eval_trajectories(&self) -> Vec<Trajectory> {
        let interval = self.workload.config.sampling_interval;
        self.eval_records()
            .iter()
            .map(|r| r.truth_trajectory(interval))
            .collect()
    }

    /// Mean travel speed of the workload (m/s) — used to map TSED budgets
    /// to NSTD seconds in Fig. 14's axis conversion.
    pub fn mean_speed(&self) -> f64 {
        let mut dist = 0.0;
        let mut time = 0.0;
        for r in &self.workload.records {
            dist += r.profile.total_distance();
            time += r.profile.duration();
        }
        if time <= 0.0 {
            1.0
        } else {
            dist / time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ch_and_hl_envs_match_dense_env() {
        // Same seed, different backend: identical workload, identical
        // compression output.
        let dense = Env::standard(Scale::Small, 5);
        for backend in [SpBackend::Ch, SpBackend::Hl] {
            let other = Env::standard_with_backend(Scale::Small, 5, backend);
            assert_eq!(dense.workload.records.len(), other.workload.records.len());
            for (a, b) in dense.workload.records.iter().zip(&other.workload.records) {
                assert_eq!(a.path, b.path);
            }
            for (ta, tb) in dense
                .eval_trajectories()
                .iter()
                .zip(&other.eval_trajectories())
                .take(10)
            {
                let ca = dense.press.compress(ta).unwrap();
                let cb = other.press.compress(tb).unwrap();
                assert_eq!(
                    ca, cb,
                    "{backend:?} must produce identical compression to dense"
                );
            }
        }
    }

    #[test]
    fn standard_env_builds_and_splits() {
        let env = Env::standard(Scale::Small, 7);
        assert!(!env.eval_records().is_empty());
        assert!(!env.train_records().is_empty());
        assert_eq!(
            env.eval_records().len() + env.train_records().len(),
            env.workload.records.len()
        );
        assert!(env.mean_speed() > 1.0 && env.mean_speed() < 40.0);
        let trajs = env.eval_trajectories();
        assert_eq!(trajs.len(), env.eval_records().len());
    }

    #[test]
    #[should_panic(expected = "saved under a different seed")]
    fn warm_start_rejects_mismatched_provenance() {
        let dir = std::env::temp_dir().join(format!("press-env-prov-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = Env::standard_with_store(Scale::Small, 5, SpBackend::Dense, StoreMode::Save(&dir));
        // Different seed: the artifacts on disk do not describe this run.
        let _ = Env::standard_with_store(Scale::Small, 6, SpBackend::Dense, StoreMode::Load(&dir));
    }

    #[test]
    fn saved_then_loaded_env_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("press-env-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for backend in [SpBackend::Dense, SpBackend::Ch, SpBackend::Hl] {
            let built = Env::standard_with_store(Scale::Small, 5, backend, StoreMode::Save(&dir));
            let warm = Env::standard_with_store(Scale::Small, 5, backend, StoreMode::Load(&dir));
            let mapped = Env::standard_with_store(Scale::Small, 5, backend, StoreMode::Map(&dir));
            assert_eq!(built.workload.records.len(), warm.workload.records.len());
            assert_eq!(built.workload.records.len(), mapped.workload.records.len());
            for ((ta, tb), tc) in built
                .eval_trajectories()
                .iter()
                .zip(&warm.eval_trajectories())
                .zip(&mapped.eval_trajectories())
                .take(8)
            {
                assert_eq!(ta, tb, "workload must regenerate identically");
                assert_eq!(ta, tc, "mapped workload must regenerate identically");
                let ca = built.press.compress(ta).unwrap();
                let cb = warm.press.compress(tb).unwrap();
                let cc = mapped.press.compress(tc).unwrap();
                assert_eq!(ca, cb, "{backend:?} warm-start must compress identically");
                assert_eq!(ca, cc, "{backend:?} mapped start must compress identically");
                assert_eq!(
                    built.press.decompress(&ca).unwrap().path,
                    warm.press.decompress(&cb).unwrap().path
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
