//! Report oracles: campaigns run in-process must reproduce the checked-in
//! CSV reports byte for byte.
//!
//! The goldens were generated by the CLI (`tests/golden/*.csv`); these
//! tests pin the in-process path to them, so a simulator refactor that
//! changes any reported number fails here rather than only in CI's
//! command-line `cmp` steps.

use griffin::core::arch::ArchSpec;
use griffin::core::category::DnnCategory;
use griffin::sim::config::{Fidelity, SimConfig};
use griffin::sweep::report::to_csv;
use griffin::sweep::{run_campaign, ArchFamily, ResultCache, Scenario, SweepSpec};

fn golden(file: &str) -> String {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn csv_of(spec: &SweepSpec, workers: usize) -> String {
    to_csv(&run_campaign(spec, &ResultCache::in_memory(), workers).expect("campaign runs"))
}

#[test]
fn ci_smoke_matches_its_golden() {
    let path = format!("{}/scenarios/ci-smoke.toml", env!("CARGO_MANIFEST_DIR"));
    let spec = Scenario::load(&path).expect("ci-smoke loads").to_spec();
    let want = golden("ci-smoke.csv");
    for workers in [1, 2] {
        assert_eq!(csv_of(&spec, workers), want, "{workers} workers");
    }
}

#[test]
fn synth_a_two_seeds_matches_its_golden() {
    // `griffin-cli sweep synth a --tiles 2 --seeds 1,2`: the Sparse.A
    // family over two seed planes.
    let spec = SweepSpec::new("sweep-synth-a")
        .category(DnnCategory::A)
        .seeds([1, 2])
        .sim(SimConfig {
            fidelity: Fidelity::Sampled {
                tiles: 2,
                seed: 0xBEEF,
            },
            ..SimConfig::default()
        })
        .synthetic("synth", 4)
        .arch(ArchSpec::dense())
        .family(ArchFamily::SparseA { max_fanin: 8 });
    let want = golden("synth-a-2seed.csv");
    for workers in [1, 2] {
        assert_eq!(csv_of(&spec, workers), want, "{workers} workers");
    }
}

#[test]
fn synth_ab_matches_its_golden() {
    // `griffin-cli sweep synth ab --family ab --fanin 8 --tiles 2
    // --seeds 1`: every dual design on sparse A and B, so every cell
    // runs the general stage-2 path over many A/B windows.
    let spec = SweepSpec::new("sweep-synth-ab")
        .category(DnnCategory::AB)
        .seeds([1])
        .sim(SimConfig {
            fidelity: Fidelity::Sampled {
                tiles: 2,
                seed: 0xBEEF,
            },
            ..SimConfig::default()
        })
        .synthetic("synth", 4)
        .arch(ArchSpec::dense())
        .family(ArchFamily::SparseAB { max_fanin: 8 });
    // One worker count keeps the debug-mode test short; CI `cmp`s the
    // CLI report at both.
    assert_eq!(csv_of(&spec, 2), golden("synth-ab.csv"));
}
