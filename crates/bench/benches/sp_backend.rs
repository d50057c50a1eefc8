//! SP-backend benchmarks: the dense `SpTable` vs the contraction
//! hierarchy vs 2-hop hub labels, behind the same `SpProvider` trait.
//!
//! Three claims are measured (see also the `sp_backend_report` binary,
//! which writes `BENCH_sp_backend.json` with the large-scale numbers):
//!
//! 1. **Identical answers** — the small-scale groups assert agreement
//!    across all backends on every probe they time, so any divergence
//!    fails the bench rather than skewing it.
//! 2. **No regression at small scale** — lookup and train+compress
//!    timings run under every backend on the standard 16×16 environment.
//! 3. **Feasibility at large scale** — a ≥100k-node grid, where the dense
//!    table would need ~126 GB (`|V|²·12` bytes) and is not even
//!    constructed, runs train+compress end-to-end under the contraction
//!    hierarchy.
//!
//! Also here: the opt-in binary-search `Dis`/`Tim` variants vs the
//! paper-faithful linear scans (satellite of the same PR).

use criterion::{criterion_group, criterion_main, Criterion};
use press_bench::{Env, Scale};
use press_core::query::{dis_binary, dis_linear, tim_binary, tim_linear};
use press_core::{DtPoint, Press, PressConfig};
use press_network::{EdgeId, SpBackend, SpProvider};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn random_edge_pairs(num_edges: usize, n: usize, seed: u64) -> Vec<(EdgeId, EdgeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                EdgeId(rng.gen_range(0..num_edges as u32)),
                EdgeId(rng.gen_range(0..num_edges as u32)),
            )
        })
        .collect()
}

/// Lookup microbenchmarks over every backend, with an equality check on
/// every pair actually probed.
fn bench_lookups(c: &mut Criterion) {
    let dense_env = Env::standard(Scale::Small, 3);
    let ch_env = Env::standard_with_backend(Scale::Small, 3, SpBackend::Ch);
    let hl_env = Env::standard_with_backend(Scale::Small, 3, SpBackend::Hl);
    let pairs = random_edge_pairs(dense_env.net.num_edges(), 2000, 42);
    for &(a, b) in &pairs {
        assert_eq!(
            dense_env.sp.gap_dist(a, b).to_bits(),
            ch_env.sp.gap_dist(a, b).to_bits(),
            "ch disagrees on gap_dist({a}, {b})"
        );
        assert_eq!(
            dense_env.sp.gap_dist(a, b).to_bits(),
            hl_env.sp.gap_dist(a, b).to_bits(),
            "hl disagrees on gap_dist({a}, {b})"
        );
        assert_eq!(dense_env.sp.sp_end(a, b), ch_env.sp.sp_end(a, b));
        assert_eq!(dense_env.sp.sp_end(a, b), hl_env.sp.sp_end(a, b));
    }
    let mut group = c.benchmark_group("sp_gap_dist_2k_pairs");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    group.bench_function("dense", |bch| {
        bch.iter(|| {
            for &(a, b) in &pairs {
                black_box(dense_env.sp.gap_dist(a, b));
            }
        })
    });
    group.bench_function("ch", |bch| {
        bch.iter(|| {
            for &(a, b) in &pairs {
                black_box(ch_env.sp.gap_dist(a, b));
            }
        })
    });
    group.bench_function("hl", |bch| {
        bch.iter(|| {
            for &(a, b) in &pairs {
                black_box(hl_env.sp.gap_dist(a, b));
            }
        })
    });
    group.finish();

    let mut group = c.benchmark_group("sp_mbr_2k_pairs");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    group.bench_function("dense", |bch| {
        bch.iter(|| {
            for &(a, b) in &pairs {
                black_box(dense_env.sp.sp_mbr(a, b));
            }
        })
    });
    group.bench_function("hl", |bch| {
        bch.iter(|| {
            for &(a, b) in &pairs {
                black_box(hl_env.sp.sp_mbr(a, b));
            }
        })
    });
    group.finish();
}

/// Full train + batch-compress under each backend at the standard scale.
fn bench_train_compress(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_compress_standard_env");
    group
        .measurement_time(Duration::from_secs(5))
        .sample_size(5);
    for (name, backend) in [
        ("dense", SpBackend::Dense),
        ("ch", SpBackend::Ch),
        ("hl", SpBackend::Hl),
    ] {
        let env = Env::standard_with_backend(Scale::Small, 3, backend);
        let training: Vec<_> = env.train_records().iter().map(|r| r.path.clone()).collect();
        let trajs = env.eval_trajectories();
        group.bench_function(name, |bch| {
            bch.iter(|| {
                let press =
                    Press::train(env.sp.clone(), &training, PressConfig::default()).unwrap();
                black_box(press.compress_batch(&trajs, 4).unwrap())
            })
        });
    }
    group.finish();
}

/// Train + compress on a 100k-node grid — a scale where `SpTable::build`
/// would allocate `|V|²·12 ≈ 126 GB` and is infeasible; the contraction
/// hierarchy runs instead (its one-time build is not timed). Kept to one
/// measured sample: the point is *completing* at a bounded footprint,
/// which the report binary quantifies.
fn bench_large_scale_ch(c: &mut Criterion) {
    let nx = std::env::var("SP_BENCH_LARGE_NX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(320usize);
    let net = Arc::new(press_network::grid_network(&press_network::GridConfig {
        nx,
        ny: nx,
        spacing: 160.0,
        weight_jitter: 0.15,
        removal_prob: 0.03,
        seed: 3,
    }));
    let dense_hypothetical_bytes = net.num_nodes() * net.num_nodes() * 12;
    println!(
        "large grid: {} nodes / {} edges; dense table would need {:.1} GiB — running CH only",
        net.num_nodes(),
        net.num_edges(),
        dense_hypothetical_bytes as f64 / (1u64 << 30) as f64
    );
    let sp = SpBackend::Ch.build(net.clone());
    let workload = press_workload::Workload::generate(
        net.clone(),
        sp.clone(),
        press_workload::WorkloadConfig {
            num_trajectories: 30,
            seed: 3,
            min_trip_edges: 20,
            ..press_workload::WorkloadConfig::default()
        },
    );
    let training: Vec<_> = workload.records[..10]
        .iter()
        .map(|r| r.path.clone())
        .collect();
    let trajs: Vec<_> = workload.records[10..]
        .iter()
        .map(|r| r.truth_trajectory(30.0))
        .collect();
    let mut group = c.benchmark_group(format!("large_{}k_nodes", net.num_nodes() / 1000));
    group
        .measurement_time(Duration::from_millis(1))
        .sample_size(1);
    group.bench_function("ch_train_compress", |bch| {
        bch.iter(|| {
            let press = Press::train(sp.clone(), &training, PressConfig::default()).unwrap();
            black_box(press.compress_batch(&trajs, 2).unwrap())
        })
    });
    group.finish();
    println!(
        "CH resident: {:.1} MiB; dense/CH memory ratio {:.0}x",
        sp.approx_bytes() as f64 / (1 << 20) as f64,
        dense_hypothetical_bytes as f64 / sp.approx_bytes().max(1) as f64
    );
}

/// Linear vs binary `Dis`/`Tim` on long temporal sequences.
fn bench_scan_modes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let mut seq = Vec::with_capacity(4096);
    let (mut d, mut t) = (0.0f64, 0.0f64);
    for _ in 0..4096 {
        seq.push(DtPoint::new(d, t));
        d += rng.gen_range(0.0..40.0);
        t += rng.gen_range(0.1..10.0);
    }
    let probes: Vec<f64> = (0..256).map(|_| rng.gen_range(0.0..t)).collect();
    for &p in &probes {
        assert_eq!(dis_linear(&seq, p).to_bits(), dis_binary(&seq, p).to_bits());
        assert_eq!(tim_linear(&seq, p).to_bits(), tim_binary(&seq, p).to_bits());
    }
    let mut group = c.benchmark_group("dis_tim_4k_knots_256_probes");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    group.bench_function("linear", |bch| {
        bch.iter(|| {
            for &p in &probes {
                black_box(dis_linear(&seq, p));
                black_box(tim_linear(&seq, p));
            }
        })
    });
    group.bench_function("binary", |bch| {
        bch.iter(|| {
            for &p in &probes {
                black_box(dis_binary(&seq, p));
                black_box(tim_binary(&seq, p));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lookups,
    bench_scan_modes,
    bench_train_compress,
    bench_large_scale_ch
);
criterion_main!(benches);
