//! Golden-fingerprint regression pins for the shipped scenario library.
//!
//! Two invariants guard cache and journal compatibility across the
//! scenario refactor:
//!
//! 1. every shipped scenario whose campaign the token CLI can spell
//!    produces a [`SweepSpec`] whose spec fingerprint (and therefore
//!    every cell fingerprint) is **identical** to the hand-built spec
//!    the tokens produce — pre-refactor disk caches keep hitting and
//!    `--resume` keeps accepting pre-refactor journals;
//! 2. the fingerprints themselves are pinned as hard-coded literals, so
//!    an accidental change to the canonical encoding (which would
//!    silently invalidate every on-disk artifact) fails loudly. If one
//!    must change, treat it as a cache-format bump.

use griffin::core::arch::ArchSpec;
use griffin::core::category::DnnCategory;
use griffin::fleet::spec_fingerprint;
use griffin::sim::config::{Fidelity, SimConfig};
use griffin::sweep::{ArchFamily, Scenario, SweepSpec};
use griffin::workloads::suite::Benchmark;

fn scenario(file: &str) -> Scenario {
    let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    Scenario::load(&path).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// What `griffin-cli` builds for `sweep`/`pareto` campaigns: sampled
/// fidelity with the CLI's tile seed.
fn cli_sim(tiles: usize) -> SimConfig {
    SimConfig {
        fidelity: Fidelity::Sampled {
            tiles,
            seed: 0xBEEF,
        },
        ..SimConfig::default()
    }
}

#[test]
fn fig5_bert_b_matches_the_token_campaign() {
    // `griffin-cli sweep bert b` (defaults: seeds 42,43, tiles 12,
    // dense + Sparse.B family at fan-in 8).
    let hand = SweepSpec::new("sweep-bert-b")
        .category(DnnCategory::B)
        .seeds([42, 43])
        .sim(cli_sim(12))
        .benchmark(Benchmark::Bert)
        .arch(ArchSpec::dense())
        .family(ArchFamily::SparseB { max_fanin: 8 });
    let scen = scenario("fig5-bert-b.toml");
    assert_eq!(scen.to_spec(), hand, "spec must match field-for-field");
    assert_eq!(spec_fingerprint(&scen.to_spec()), spec_fingerprint(&hand));
    assert_eq!(
        spec_fingerprint(&hand).to_string(),
        "bca172b20973144f2e17345b5b07e7ec"
    );
}

#[test]
fn fig5_alexnet_b_matches_the_token_campaign() {
    let hand = SweepSpec::new("sweep-alexnet-b")
        .category(DnnCategory::B)
        .seeds([42, 43])
        .sim(cli_sim(12))
        .benchmark(Benchmark::AlexNet)
        .arch(ArchSpec::dense())
        .family(ArchFamily::SparseB { max_fanin: 8 });
    let scen = scenario("fig5-alexnet-b.toml");
    assert_eq!(scen.to_spec(), hand);
    assert_eq!(
        spec_fingerprint(&hand).to_string(),
        "6b2ce726a55056a6d98bd6d273de12a4"
    );
}

#[test]
fn table7_lineup_matches_the_token_campaign() {
    // `griffin-cli sweep resnet50 ab --lineup`.
    let hand = SweepSpec::new("sweep-resnet50-ab")
        .category(DnnCategory::AB)
        .seeds([42, 43])
        .sim(cli_sim(12))
        .benchmark(Benchmark::ResNet50)
        .archs(ArchSpec::table7_lineup());
    let scen = scenario("table7-lineup.toml");
    assert_eq!(scen.to_spec(), hand);
    assert_eq!(
        spec_fingerprint(&hand).to_string(),
        "8a58eee1951dcbada95067185fc12a44"
    );
}

#[test]
fn pareto_bert_b_matches_the_token_campaign() {
    // `griffin-cli pareto bert b`: sparse + dense category pair, family
    // only (no dense arch).
    let hand = SweepSpec::new("pareto-bert-b")
        .categories([DnnCategory::B, DnnCategory::Dense])
        .seeds([42, 43])
        .sim(cli_sim(12))
        .family(ArchFamily::SparseB { max_fanin: 8 })
        .benchmark(Benchmark::Bert);
    let scen = scenario("pareto-bert-b.toml");
    assert_eq!(scen.to_spec(), hand);
    assert_eq!(
        spec_fingerprint(&hand).to_string(),
        "73965056e8a13f757cf0e28b8e0d8004"
    );
}

#[test]
fn ci_smoke_matches_the_token_campaign() {
    // `griffin-cli sweep synth b --tiles 2 --seeds 1 --fanin 3` — the
    // campaign CI compares byte-for-byte against a fleet run.
    let hand = SweepSpec::new("sweep-synth-b")
        .category(DnnCategory::B)
        .seeds([1])
        .sim(cli_sim(2))
        .synthetic("synth", 4)
        .arch(ArchSpec::dense())
        .family(ArchFamily::SparseB { max_fanin: 3 });
    let scen = scenario("ci-smoke.toml");
    assert_eq!(scen.to_spec(), hand);
    assert_eq!(
        spec_fingerprint(&hand).to_string(),
        "08f9898766ba032827910787e6e28f04"
    );
    assert_eq!(scen.fleet, None, "ci-smoke needs no fleet settings");
}

#[test]
fn design_space_matches_the_example_campaign() {
    // examples/design_space.rs historically hand-built this spec with
    // the default SimConfig.
    let hand = SweepSpec::new("design-space")
        .synthetic("pruned", 4)
        .categories([DnnCategory::B, DnnCategory::Dense])
        .archs(griffin::core::dse::enumerate_sparse_b(8))
        .seeds([3]);
    let scen = scenario("design-space.toml");
    assert_eq!(scen.to_spec(), hand);
    assert_eq!(
        spec_fingerprint(&hand).to_string(),
        "aab41b7288084aa98a1608e503dff1ec"
    );
}

/// Scenario (provenance) fingerprints of every shipped file, pinned so
/// artifact trails stay stable. These identify the canonical *scenario
/// text*; the spec fingerprints above identify the campaign grid.
#[test]
fn shipped_scenario_fingerprints_are_pinned() {
    for (file, fp) in [
        ("bert-seeds.toml", "7fb706abb4f7a9cb6da5df417b59d56c"),
        ("ci-smoke.toml", "7a88080c674f22327d3a4fa048881b44"),
        ("design-space.toml", "74d26656146a5e016e2fd0656258e2ac"),
        ("fig5-alexnet-b.toml", "c070b073fd3f36778ef229dcc23a58ec"),
        ("fig5-bert-b.toml", "f412f6b6ea6c1b6f6c76c92f696b804c"),
        ("pareto-bert-b.toml", "1200c8953d862bc857d44e06b52c0e8c"),
        ("table7-lineup.toml", "6194a7358d518d477ecfdd768ade786c"),
    ] {
        assert_eq!(scenario(file).fingerprint().to_string(), fp, "{file}");
    }
}

/// The bert-seeds scenario has no token equivalent (custom windows);
/// pin its grid identity directly.
#[test]
fn bert_seeds_grid_is_pinned() {
    let scen = scenario("bert-seeds.toml");
    let spec = scen.to_spec();
    assert_eq!(spec.archs.len(), 4);
    assert_eq!(spec.archs[3].name, "Sparse.B(8,0,1),on");
    assert_eq!(
        spec_fingerprint(&spec).to_string(),
        "0169f2f843ab06464569ffad371b640c"
    );
}
