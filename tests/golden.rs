//! Golden digests: absolute anchors for the system's outputs.
//!
//! The other suites compare backends, thread counts and load paths with
//! each other; these tests pin the bytes themselves. Each test hashes a
//! fixed, seeded output with CRC32 and compares it against a checked-in
//! constant:
//!
//! * CH and hub-label answers (all-pairs `node_dist` bits, `pred_edge`,
//!   and `sp_interior` over a fixed edge-pair sample), computed from the
//!   built provider, from an owned `load_from` of its saved artifact, and
//!   from a `MappedX::open` + `validate` of the same file;
//! * the `network.press` and `hsc.press` artifact bytes;
//! * the `TrajectoryStore` bytes of a compressed `default_test_workload`
//!   corpus and the answers to a seeded `query_mix` against it.
//!
//! A refactor that is meant to keep behaviour must leave every digest
//! unchanged. A change that alters one on purpose must say why in
//! CHANGES.md when it records the new value.

use press::core::query::QueryEngine;
use press::core::{QueryBatch, StoreAnswer, StoreQuery, TrajectoryStore};
use press::network::SpProvider;
use press::prelude::*;
use press::workload::{default_test_workload, query_mix, QueryMixConfig, Workload};
use press_store::crc32;
use std::sync::Arc;

/// Fingerprint of a CH or HL provider's answers on the golden grid.
const SP_ANSWERS_CRC: u32 = 0xC373F24B;
/// `network.press` bytes of the workload network.
const NETWORK_PRESS_CRC: u32 = 0xD765D7A5;
/// `hsc.press` bytes of the model trained on the workload.
const HSC_PRESS_CRC: u32 = 0xD3402B86;
/// `TrajectoryStore` bytes of the compressed workload corpus.
const CORPUS_CRC: u32 = 0xCDFEFB5A;
/// Seeded `query_mix` answers against that corpus.
const QUERY_ANSWERS_CRC: u32 = 0x8DC2A859;

fn golden_grid() -> Arc<RoadNetwork> {
    Arc::new(grid_network(&GridConfig {
        nx: 6,
        ny: 6,
        spacing: 120.0,
        weight_jitter: 0.12,
        removal_prob: 0.04,
        seed: 11,
    }))
}

fn workload() -> Workload {
    default_test_workload(60, 5)
}

/// Every answer the SP contract exposes, serialized in a fixed order.
fn sp_fingerprint(sp: &dyn SpProvider) -> u32 {
    let net = sp.network().clone();
    let mut buf = Vec::new();
    for u in net.node_ids() {
        for v in net.node_ids() {
            buf.extend_from_slice(&sp.node_dist(u, v).to_bits().to_le_bytes());
            let pred = sp.pred_edge(u, v).map_or(u32::MAX, |e| e.0);
            buf.extend_from_slice(&pred.to_le_bytes());
        }
    }
    let edges: Vec<EdgeId> = net.edge_ids().collect();
    for &ei in edges.iter().step_by(3) {
        for &ej in edges.iter().rev().step_by(7) {
            match sp.sp_interior(ei, ej) {
                None => buf.extend_from_slice(&u32::MAX.to_le_bytes()),
                Some(path) => {
                    buf.extend_from_slice(&(path.len() as u32).to_le_bytes());
                    for e in path {
                        buf.extend_from_slice(&e.0.to_le_bytes());
                    }
                }
            }
        }
    }
    crc32(&buf)
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("press-golden-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn ch_answers_match_golden_on_every_load_path() {
    let net = golden_grid();
    let built = ContractionHierarchy::build(net.clone());
    let dir = scratch("ch");
    let path = dir.join("sp_ch.press");
    built.save_to(&path).expect("save");
    let owned = ContractionHierarchy::load_from(net.clone(), &path).expect("owned load");
    let mapped = MappedContractionHierarchy::open(net.clone(), &path)
        .expect("mapped open")
        .validate()
        .expect("validate");
    for (sp, how) in [(&built, "built"), (&owned, "owned"), (&mapped, "mapped")] {
        assert_eq!(
            sp_fingerprint(sp),
            SP_ANSWERS_CRC,
            "CH answers ({how}) moved off the golden digest"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hl_answers_match_golden_on_every_load_path() {
    let net = golden_grid();
    let built = HubLabels::from_ch(&ContractionHierarchy::build(net.clone()), 2);
    let dir = scratch("hl");
    let path = dir.join("sp_hl.press");
    built.save_to(&path).expect("save");
    let owned = HubLabels::load_from(net.clone(), &path).expect("owned load");
    let mapped = MappedHubLabels::open(net.clone(), &path)
        .expect("mapped open")
        .validate()
        .expect("validate");
    for (sp, how) in [(&built, "built"), (&owned, "owned"), (&mapped, "mapped")] {
        assert_eq!(
            sp_fingerprint(sp),
            SP_ANSWERS_CRC,
            "HL answers ({how}) moved off the golden digest"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn network_and_hsc_artifacts_match_golden() {
    let w = workload();
    assert_eq!(
        crc32(&w.net.to_store_bytes()),
        NETWORK_PRESS_CRC,
        "network.press bytes moved off the golden digest"
    );
    let model = HscModel::train(w.sp.clone(), &w.paths(), 3).expect("train");
    assert_eq!(
        crc32(&model.to_store_bytes()),
        HSC_PRESS_CRC,
        "hsc.press bytes moved off the golden digest"
    );
}

#[test]
fn corpus_and_query_answers_match_golden() {
    let w = workload();
    let press =
        Press::train(w.sp.clone(), &w.paths()[..30], PressConfig::default()).expect("train");
    let trajs = w.truth_trajectories();
    let compressed: Vec<CompressedTrajectory> = trajs
        .iter()
        .map(|t| press.compress(t).expect("compress"))
        .collect();
    let engine = QueryEngine::new(press.model());
    let bytes = TrajectoryStore::to_store_bytes(&engine, &compressed, 4).expect("store bytes");
    assert_eq!(
        crc32(&bytes),
        CORPUS_CRC,
        "TrajectoryStore bytes moved off the golden digest"
    );

    let store = TrajectoryStore::from_store_bytes(bytes).expect("load corpus");
    let (t_min, t_max) = trajs
        .iter()
        .filter_map(|t| t.temporal.time_range())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (a, z)| {
            (lo.min(a), hi.max(z))
        });
    let queries = query_mix(&QueryMixConfig {
        num_queries: 300,
        seed: 17,
        bbox: w.net.bounding_box(),
        t_min,
        t_max,
        window_fraction: 0.05,
        num_trajectories: compressed.len(),
        ..QueryMixConfig::default()
    });
    let answers = QueryBatch::from_queries(queries.clone())
        .run(&store, &engine, 2)
        .expect("batch");
    // The mix must exercise every answer kind, or the digest pins little.
    assert!(answers
        .iter()
        .any(|a| matches!(a, StoreAnswer::Hits(h) if !h.is_empty())));
    assert!(answers.iter().any(|a| matches!(a, StoreAnswer::Time(_))));
    assert!(answers
        .iter()
        .any(|a| matches!(a, StoreAnswer::Position(_))));
    let mut buf = Vec::new();
    for (q, a) in queries.iter().zip(&answers) {
        buf.push(match q {
            StoreQuery::Range { .. } => 0u8,
            StoreQuery::WhenAt { .. } => 1,
            StoreQuery::WhereAt { .. } => 2,
        });
        // Miss wording is not part of the contract; that a query misses is.
        match a {
            StoreAnswer::Hits(hits) => {
                buf.push(0);
                buf.extend_from_slice(&(hits.len() as u32).to_le_bytes());
                for &h in hits {
                    buf.extend_from_slice(&(h as u32).to_le_bytes());
                }
            }
            StoreAnswer::Time(t) => {
                buf.push(1);
                buf.extend_from_slice(&t.to_bits().to_le_bytes());
            }
            StoreAnswer::Position(p) => {
                buf.push(2);
                buf.extend_from_slice(&p.x.to_bits().to_le_bytes());
                buf.extend_from_slice(&p.y.to_bits().to_le_bytes());
            }
            StoreAnswer::Miss(_) => buf.push(3),
        }
    }
    assert_eq!(
        crc32(&buf),
        QUERY_ANSWERS_CRC,
        "query_mix answers moved off the golden digest"
    );
}
