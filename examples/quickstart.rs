//! Quickstart: train PRESS on a small corpus, compress one trajectory,
//! verify losslessness, and run a query — the five-minute tour.
//!
//! Run with: `cargo run --release --example quickstart`

use press::prelude::*;
use std::sync::Arc;

fn main() {
    // --- 1. The road network (static, built once per city). -------------
    let net = Arc::new(grid_network(&GridConfig {
        nx: 10,
        ny: 10,
        spacing: 150.0,
        weight_jitter: 0.15,
        removal_prob: 0.02,
        seed: 7,
    }));
    println!(
        "network: {} nodes, {} directed edges",
        net.num_nodes(),
        net.num_edges()
    );

    // --- 2. A shortest-path provider (the paper's SPend structure). -----
    // Dense = eager O(|V|^2) table; `SpBackend::Ch` = contraction
    // hierarchy for networks where |V|^2 cannot fit in RAM;
    // `SpBackend::Hl` = 2-hop hub labels over the CH order, trading ~10x
    // the CH memory for flat-merge microsecond point lookups. All three
    // answer bit-identically.
    let sp = SpBackend::Dense.build(net.clone());
    println!(
        "sp backend (dense): {:.1} MiB",
        sp.approx_bytes() as f64 / (1 << 20) as f64
    );

    // --- 3. A trajectory corpus (synthetic stand-in for taxi data). -----
    let workload = Workload::generate(
        net.clone(),
        sp.clone(),
        WorkloadConfig {
            num_trajectories: 120,
            seed: 7,
            ..WorkloadConfig::default()
        },
    );
    let (train, eval) = workload.split(0.3);
    println!(
        "workload: {} trajectories ({} train / {} eval)",
        workload.records.len(),
        train.len(),
        eval.len()
    );

    // --- 4. Train PRESS (θ = 3, temporal bounds τ = 100 m, η = 30 s). ---
    let config = PressConfig {
        bounds: BtcBounds::new(100.0, 30.0),
        ..PressConfig::default()
    };
    let training_paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
    let press = Press::train(sp, &training_paths, config).expect("training");
    // The same training under the contraction hierarchy: sub-quadratic
    // preprocessing — batched independent-set contraction over every
    // core, bit-identical for any core count — microsecond point
    // lookups, identical compressed output.
    let sample = eval[0].truth_trajectory(30.0);
    let ch = SpBackend::Ch.build(net.clone());
    let press_ch = Press::train(ch.clone(), &training_paths, config).expect("training (ch)");
    assert_eq!(
        press.compress(&sample).expect("dense compress"),
        press_ch.compress(&sample).expect("ch compress"),
        "CH backend must compress identically"
    );
    println!(
        "ch sp backend: {:.2} MiB resident, same compressed bits",
        ch.approx_bytes() as f64 / (1 << 20) as f64
    );
    // And hub labels: the CH searches precomputed into per-node label
    // arrays — point lookups become a flat sorted merge, the fastest
    // backend for lookup-dominated serving, still bit-identical.
    let hl = SpBackend::Hl.build(net.clone());
    let press_hl = Press::train(hl.clone(), &training_paths, config).expect("training (hl)");
    assert_eq!(
        press.compress(&sample).expect("dense compress"),
        press_hl.compress(&sample).expect("hl compress"),
        "HL backend must compress identically"
    );
    println!(
        "hl sp backend: {:.2} MiB resident, same compressed bits",
        hl.approx_bytes() as f64 / (1 << 20) as f64
    );
    println!("trained: {:?}", press.model());

    // --- 5. Compress, inspect, decompress. -------------------------------
    let trajectory = eval[0].truth_trajectory(30.0);
    let compressed = press.compress(&trajectory).expect("compress");
    let stats = press.stats_vs_raw_gps(trajectory.temporal.len(), &compressed);
    println!(
        "one trajectory: {} raw GPS bytes -> {} compressed bytes (ratio {:.2}, saves {:.1}%)",
        stats.original_bytes,
        stats.compressed_bytes,
        stats.ratio(),
        stats.savings_pct()
    );
    let restored = press.decompress(&compressed).expect("decompress");
    assert_eq!(restored.path, trajectory.path, "HSC is lossless");
    println!(
        "spatial roundtrip exact: {} edges restored; temporal error bounded by (τ, η) = ({}, {})",
        restored.path.len(),
        press.config().bounds.tsnd,
        press.config().bounds.nstd,
    );

    // --- 6. Query the compressed form directly (no decompression). ------
    let engine = QueryEngine::new(press.model());
    let (t0, t1) = trajectory.temporal.time_range().unwrap();
    let mid = (t0 + t1) / 2.0;
    let pos = engine.whereat(&compressed, mid).expect("whereat");
    let raw_pos = engine.whereat_raw(&trajectory, mid).expect("whereat raw");
    println!(
        "whereat(t = {:.0}s): compressed ({:.1}, {:.1}) vs raw ({:.1}, {:.1}) — deviation {:.1} m (≤ τ)",
        mid,
        pos.x,
        pos.y,
        raw_pos.x,
        raw_pos.y,
        pos.dist(&raw_pos)
    );

    // --- 7. Dataset-level savings. ---------------------------------------
    let mut total = press::core::stats::CompressionStats::default();
    for r in eval {
        let t = r.truth_trajectory(30.0);
        let c = press.compress(&t).expect("compress");
        total.accumulate(&press.stats_vs_raw_gps(t.temporal.len(), &c));
    }
    println!(
        "whole evaluation set: ratio {:.2} ({:.1}% saved)",
        total.ratio(),
        total.savings_pct()
    );
}
