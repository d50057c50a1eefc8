//! # press-bench
//!
//! Experiment harness reproducing every table and figure of the PRESS
//! paper's evaluation (§6) on the synthetic workload. The `repro` binary
//! prints the same rows/series the paper plots; Criterion benches under
//! `benches/` cover the micro-level timing claims.
//!
//! Experiment index:
//!
//! | id | function | paper artifact |
//! |----|----------|----------------|
//! | fig10a | [`experiments::fig10a`] | SP ratio vs sampling rate |
//! | fig10b | [`experiments::fig10b`] | FST ratio vs θ |
//! | fig11  | [`experiments::fig11`]  | greedy vs DP decomposition |
//! | fig12a | [`experiments::fig12a`] | BTC ratio vs τ × η |
//! | fig12b | [`experiments::fig12b`] | PRESS ratio vs τ × η |
//! | fig13  | [`experiments::fig13`]  | comp/decomp time vs dataset size |
//! | fig14  | [`experiments::fig14`]  | ratio vs TSED (+ ZIP/RAR) |
//! | fig15  | [`experiments::fig15`]  | whereat time ratio |
//! | fig16  | [`experiments::fig16`]  | whenat time ratio |
//! | fig17  | [`experiments::fig17`]  | range accuracy/time |
//! | aux    | [`experiments::aux_sizes`] | auxiliary structure sizes |
//! | extra  | [`experiments::train_size`], [`experiments::btc_vs_bopw`] | ablations |
//!
//! Report binaries — each writes one `BENCH_*.json` and, with
//! `--check BASELINE`, gates the fresh run against the checked-in copy
//! (CI runs all three):
//!
//! | binary | report | what it measures |
//! |--------|--------|------------------|
//! | `sp_backend_report` | `BENCH_sp_backend.json` | dense vs CH vs HL: build, pipeline, point lookups, `sp_interior` walks, warm and mapped starts |
//! | `ingest_report` | `BENCH_ingest.json` | `press-serve` ingest throughput, durability policies, shards, crash recovery |
//! | `query_report` | `BENCH_query.json` | indexed vs linear query serving and the parallel batch executor |
//!
//! They share one harness, [`report`]: the flag parser (which `repro`
//! uses too), the gate and the step that writes, prints and exits.

pub mod experiments;
pub mod json;
pub mod report;
pub mod setup;
pub mod table;

pub use json::Json;
pub use setup::{Env, Scale, StoreMode};
pub use table::Table;
