//! `repro` — regenerates every table and figure of the PRESS paper's
//! evaluation (§6) on the synthetic workload.
//!
//! Usage:
//! ```text
//! repro [EXPERIMENT…] [--full] [--seed N] [--ch] [--hl]
//!       [--threads N] [--save-dir DIR] [--load-dir DIR]
//!
//! EXPERIMENT: all (default) | fig10a | fig10b | fig11 | fig12a | fig12b |
//!             fig13 | fig14 | fig15 | fig16 | fig17 | aux | ablations
//! --full          paper-shaped sweep sizes (slower)
//! --seed N        workload seed (default 3)
//! --ch            run on the ContractionHierarchy SP backend instead of the
//!                 dense table
//! --hl            run on the HubLabels SP backend (2-hop labels over the CH order)
//! --threads N     SP preprocessing workers (default 0 = one per core);
//!                 never changes any result — builds are bit-identical
//!                 for every thread count — only how fast preprocessing runs
//! --save-dir DIR  after building, persist network / SP structure / trained
//!                 model under DIR (press-store artifacts)
//! --load-dir DIR  warm-start from artifacts saved by a --save-dir run with
//!                 the same seed and backend, skipping SP preprocessing and
//!                 training; outputs are bit-identical to a fresh build
//! --map           with --load-dir: open the SP structure through the
//!                 zero-copy mapped tier (CH/HL; the dense table falls back
//!                 to the owned load) — same bit-identical outputs, O(page
//!                 faults) open cost instead of a full decode
//! ```

use press_bench::report::{parse_env_flags, usage_error};
use press_bench::{experiments, Env, Scale, StoreMode};
use press_network::SpBackend;
use std::time::Instant;

const USAGE: &str = "usage: repro [all|fig10a|fig10b|fig11|fig12a|fig12b|fig13|fig14|fig15|fig16|fig17|aux|ablations]… \
                     [--full] [--seed N] [--ch] [--hl] [--threads N] [--save-dir DIR] [--load-dir DIR] [--map]";

fn main() {
    let mut scale = Scale::Small;
    let mut seed = 3u64;
    let mut backend = SpBackend::Dense;
    let mut threads = 0usize;
    let mut save_dir: Option<String> = None;
    let mut load_dir: Option<String> = None;
    let mut map = false;
    let mut wanted: Vec<String> = Vec::new();
    parse_env_flags(USAGE, |arg, args| {
        match arg {
            "--full" => scale = Scale::Full,
            "--ch" => backend = SpBackend::Ch,
            "--hl" => backend = SpBackend::Hl,
            "--seed" => seed = args.value(arg)?,
            "--threads" => threads = args.value(arg)?,
            "--save-dir" => save_dir = Some(args.value(arg)?),
            "--load-dir" => load_dir = Some(args.value(arg)?),
            "--map" => map = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            experiment if !experiment.starts_with('-') => wanted.push(experiment.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    });
    if save_dir.is_some() && load_dir.is_some() {
        usage_error(USAGE, "--save-dir and --load-dir are mutually exclusive");
    }
    if map && load_dir.is_none() {
        usage_error(
            USAGE,
            "--map opens saved artifacts; pass --load-dir with it",
        );
    }
    let store = match (&save_dir, &load_dir) {
        (Some(d), _) => StoreMode::Save(std::path::Path::new(d)),
        (_, Some(d)) if map => StoreMode::Map(std::path::Path::new(d)),
        (_, Some(d)) => StoreMode::Load(std::path::Path::new(d)),
        _ => StoreMode::None,
    };
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    eprintln!(
        "Building environment (scale {scale:?}, seed {seed}); `repro --help` lists the experiments…"
    );
    let t0 = Instant::now();
    let env = Env::standard_sp_threads(scale, seed, backend, store, threads);
    eprintln!(
        "environment ready in {:.0} ms{}",
        t0.elapsed().as_secs_f64() * 1e3,
        match store {
            StoreMode::Load(_) => " (warm-start from artifact store)",
            StoreMode::Map(_) => " (warm-start from mapped artifact store)",
            StoreMode::Save(_) => " (artifacts saved)",
            StoreMode::None => "",
        }
    );
    eprintln!(
        "network: {} nodes / {} edges ({:?} SP backend); workload: {} trajectories ({} train / {} eval); stationary fraction {:.1}%",
        env.net.num_nodes(),
        env.net.num_edges(),
        env.backend,
        env.workload.records.len(),
        env.train_records().len(),
        env.eval_records().len(),
        env.workload.stationary_fraction() * 100.0
    );

    if want("fig10a") {
        experiments::fig10a(&env, scale).print();
    }
    if want("fig10b") {
        experiments::fig10b(&env, scale).print();
    }
    if want("fig11") {
        experiments::fig11(&env, scale).print();
    }
    if want("fig12a") {
        experiments::fig12a(&env, scale).print();
    }
    if want("fig12b") {
        experiments::fig12b(&env, scale).print();
    }
    if want("fig13") {
        experiments::fig13(&env, scale).print();
    }
    if want("fig14") {
        experiments::fig14(&env, scale).print();
        experiments::zip_rar_reference(&env).print();
    }
    let needs_queries = want("fig15") || want("fig16") || want("fig17");
    if needs_queries {
        eprintln!("Building long-haul environment for the query experiments…");
        let t0 = Instant::now();
        let qenv = Env::long_haul_sp_threads(scale, seed, backend, store, threads);
        eprintln!(
            "long-haul environment ready in {:.0} ms",
            t0.elapsed().as_secs_f64() * 1e3
        );
        if want("fig15") {
            experiments::fig15(&qenv, scale).print();
        }
        if want("fig16") {
            experiments::fig16(&qenv, scale).print();
        }
        if want("fig17") {
            experiments::fig17(&qenv, scale).print();
        }
    }
    if want("aux") {
        experiments::aux_sizes(&env).print();
    }
    if want("ablations") {
        experiments::train_size(&env, scale).print();
        experiments::btc_vs_bopw(&env, scale).print();
    }
}
