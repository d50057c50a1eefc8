//! Head-to-head on one dataset: PRESS vs MMTC vs Nonmaterial vs the
//! ZIP/RAR-like byte compressors — the §6.1 comparison in miniature.
//!
//! Run with: `cargo run --release --example baselines_compare`

use press::baselines::{mmtc, nonmaterial, rarx, zipx};
use press::core::stats::raw_gps_bytes;
use press::prelude::*;
use press::workload::gps_to_csv;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let net = Arc::new(grid_network(&GridConfig {
        nx: 12,
        ny: 12,
        spacing: 160.0,
        weight_jitter: 0.15,
        seed: 31,
        ..GridConfig::default()
    }));
    // Any SpProvider backend works here; the contraction hierarchy keeps
    // the demo's memory near-linear in the network size.
    let sp = SpBackend::Ch.build(net.clone());
    let workload = Workload::generate(
        net.clone(),
        sp.clone(),
        WorkloadConfig {
            num_trajectories: 150,
            seed: 31,
            min_trip_edges: 8,
            ..WorkloadConfig::default()
        },
    );
    let (train, eval) = workload.split(0.3);
    let training_paths: Vec<_> = train.iter().map(|r| r.path.clone()).collect();
    let tau = 200.0; // shared error budget (meters)
    let press = Press::train(
        sp.clone(),
        &training_paths,
        PressConfig {
            bounds: BtcBounds::new(tau, 60.0),
            ..PressConfig::default()
        },
    )
    .expect("training");

    let trajectories: Vec<Trajectory> = eval.iter().map(|r| r.truth_trajectory(30.0)).collect();
    let raw_bytes: usize = trajectories
        .iter()
        .map(|t| raw_gps_bytes(t.temporal.len()))
        .sum();
    println!(
        "dataset: {} trajectories, {} raw GPS bytes; shared error budget {} m\n",
        trajectories.len(),
        raw_bytes,
        tau
    );
    println!(
        "{:<14} {:>12} {:>8} {:>10}  notes",
        "method", "bytes", "ratio", "time"
    );

    // PRESS.
    let start = Instant::now();
    let press_bytes: usize = trajectories
        .iter()
        .map(|t| press.compress(t).expect("press").storage_bytes())
        .sum();
    report(
        "PRESS",
        raw_bytes,
        press_bytes,
        start.elapsed(),
        "spatial lossless, queryable",
    );

    // MMTC.
    let cfg = mmtc::MmtcConfig::default();
    let start = Instant::now();
    let mmtc_bytes: usize = trajectories
        .iter()
        .map(|t| mmtc::compress(&sp, t, &cfg).storage_bytes())
        .sum();
    report(
        "MMTC",
        raw_bytes,
        mmtc_bytes,
        start.elapsed(),
        "lossy, no decompression",
    );

    // Nonmaterial.
    let cfg = nonmaterial::NonmaterialConfig { tolerance: tau };
    let start = Instant::now();
    let nm_bytes: usize = trajectories
        .iter()
        .map(|t| nonmaterial::compress(&sp, t, &cfg).storage_bytes())
        .sum();
    report(
        "Nonmaterial",
        raw_bytes,
        nm_bytes,
        start.elapsed(),
        "uniform-speed anchors",
    );

    // ZIP/RAR-like on the CSV log form (their natural input).
    let mut csv = Vec::new();
    for r in eval {
        csv.extend(gps_to_csv(&r.gps_trace(&net, 30.0, 8.0)));
    }
    let start = Instant::now();
    let zip = zipx::compress(&csv);
    report(
        "zipx (on CSV)",
        csv.len(),
        zip.len(),
        start.elapsed(),
        "lossless bytes, zero utility",
    );
    let start = Instant::now();
    let rar = rarx::compress(&csv);
    report(
        "rarx (on CSV)",
        csv.len(),
        rar.len(),
        start.elapsed(),
        "lossless bytes, zero utility",
    );
    // Sanity: both decompress exactly.
    assert_eq!(zipx::decompress(&zip).unwrap(), csv);
    assert_eq!(rarx::decompress(&rar).unwrap(), csv);
}

fn report(name: &str, original: usize, compressed: usize, took: std::time::Duration, notes: &str) {
    println!(
        "{:<14} {:>12} {:>8.2} {:>10.2?}  {notes}",
        name,
        compressed,
        original as f64 / compressed.max(1) as f64,
        took
    );
}
