//! Golden digests of the deterministic `repro` tables.
//!
//! `fig10a`, `fig12b` and `aux_sizes` print compression ratios and
//! structure sizes only, no timings, so their rendered text is a pure
//! function of the seed, the scale and the SP backend. These are the
//! tables the cold-start CI job diffs between a built, an owned-load and
//! a mapped environment. This test pins their absolute text with CRC32
//! at `Scale::Small`, seed 3, for the dense and the CH environment.
//!
//! A refactor that is meant to keep behaviour must leave both digests
//! unchanged. A change that alters one on purpose must say why in
//! CHANGES.md when it records the new value.

use press_bench::{experiments, Env, Scale};
use press_network::SpBackend;
use press_store::crc32;

/// Rendered `fig10a` + `fig12b` + `aux_sizes` of the dense environment.
const DENSE_TABLES_CRC: u32 = 0xC5476174;
/// The same tables from the CH environment.
const CH_TABLES_CRC: u32 = 0x44A6E2AE;

fn tables_digest(backend: SpBackend) -> u32 {
    let scale = Scale::Small;
    let env = Env::standard_with_backend(scale, 3, backend);
    let mut text = String::new();
    text.push_str(&experiments::fig10a(&env, scale).render());
    text.push_str(&experiments::fig12b(&env, scale).render());
    text.push_str(&experiments::aux_sizes(&env).render());
    crc32(text.as_bytes())
}

#[test]
fn dense_repro_tables_match_golden() {
    let got = tables_digest(SpBackend::Dense);
    assert_eq!(got, DENSE_TABLES_CRC, "dense tables digest {got:#010X}");
}

#[test]
fn ch_repro_tables_match_golden() {
    let got = tables_digest(SpBackend::Ch);
    assert_eq!(got, CH_TABLES_CRC, "CH tables digest {got:#010X}");
}
