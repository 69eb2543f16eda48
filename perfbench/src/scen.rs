//! The benchmark's inputs: scenario files generated from the workload
//! seed, the golden report digests, and the paper's reference numbers.
//!
//! The program under test only ever sees the generated scenario text.

use griffin_core::arch::ArchSpec;
use griffin_core::category::DnnCategory;
use griffin_sim::window::BorrowWindow;
use griffin_sweep::{per_arch, CampaignReport};

/// `sweep-b` at `--seed n` simulates mask seeds `42 + 2n` and `43 + 2n`;
/// `n = 0` reproduces `scenarios/fig5-bert-b.toml`.
pub fn sweep_b_seeds(n: u64) -> Vec<u64> {
    let base = 42u64.wrapping_add(n.wrapping_mul(2));
    vec![base, base.wrapping_add(1)]
}

/// `lineup-4cat` at `--seed n` simulates mask seed `42 + n`.
pub fn lineup_seeds(n: u64) -> Vec<u64> {
    vec![42u64.wrapping_add(n)]
}

fn seed_list(seeds: &[u64]) -> String {
    seeds
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// The Figure 5 campaign (`scenarios/fig5-bert-b.toml`) over `seeds`:
/// BERT under DNN.B masks, the dense baseline plus every `Sparse.B`
/// design with AMUX fan-in <= 8, 12 sampled tiles per layer.
pub fn sweep_b(seeds: &[u64]) -> String {
    format!(
        "[scenario]\nname = \"sweep-bert-b\"\nseeds = [{}]\ncategories = [\"b\"]\n\n\
         [sim]\ntiles = 12\nsample_seed = 0xBEEF\n\n\
         [[workload]]\nsuite = \"bert\"\n\n\
         [[arch]]\npreset = \"baseline\"\n\n\
         [[arch]]\nfamily = \"b\"\nfanin = 8\n",
        seed_list(seeds)
    )
}

/// The Table VII lineup (eight architectures) on ResNet-50 over all
/// four DNN categories, 12 sampled tiles per layer.
pub fn lineup_4cat(seeds: &[u64]) -> String {
    format!(
        "[scenario]\nname = \"lineup-4cat\"\nseeds = [{}]\ncategories = [\"dense\", \"a\", \"b\", \"ab\"]\n\n\
         [sim]\ntiles = 12\nsample_seed = 0xBEEF\n\n\
         [[workload]]\nsuite = \"resnet50\"\n\n\
         [[arch]]\npreset = \"table7-lineup\"\n",
        seed_list(seeds)
    )
}

/// A small synthetic campaign for the serve probe: the 4-layer synthetic
/// network under DNN.B masks of `seed`, 2 sampled tiles, the baseline
/// plus every `Sparse.B` design with fan-in <= 4.
pub fn synthetic(seed: u64) -> String {
    format!(
        "[scenario]\nname = \"serve-probe\"\nseeds = [{seed}]\ncategories = [\"b\"]\n\n\
         [sim]\ntiles = 2\nsample_seed = 0xBEEF\n\n\
         [[workload]]\nsynthetic = \"synth\"\nlayers = 4\n\n\
         [[arch]]\npreset = \"baseline\"\n\n\
         [[arch]]\nfamily = \"b\"\nfanin = 4\n"
    )
}

/// FNV-1a-64 digest of `griffin-cli sweep --scenario scenarios/fig5-bert-b.toml --csv`.
pub const GOLDEN_SWEEP_B: &str = "2fe295d1ff5349f5";
/// FNV-1a-64 digest of the `lineup-4cat` CSV at its default seed.
pub const GOLDEN_LINEUP_4CAT: &str = "f627e4ff104822b9";

/// Published §VI-A `Sparse.B` speedups on DNN.B (Figure 5).
const FIG5_SPEEDUPS: [(usize, usize, usize, bool, f64); 8] = [
    (4, 0, 0, false, 1.7),
    (4, 0, 1, true, 2.5),
    (4, 0, 2, true, 2.9),
    (6, 0, 0, false, 1.9),
    (6, 0, 0, true, 2.7),
    (2, 1, 1, true, 2.6),
    (2, 2, 0, true, 2.4),
    (2, 0, 2, true, 2.4),
];

/// Published Griffin ÷ SparTen.AB power-efficiency ratios (Figure 8).
const FIG8_POWER_RATIOS: [(DnnCategory, f64); 4] = [
    (DnnCategory::Dense, 1.2),
    (DnnCategory::B, 3.0),
    (DnnCategory::A, 3.1),
    (DnnCategory::AB, 1.4),
];

fn mean_abs_dev_pct(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.is_empty() || pairs.iter().any(|(m, _)| m.is_nan() || *m <= 0.0) {
        return None;
    }
    let sum: f64 = pairs.iter().map(|(m, r)| (m / r - 1.0).abs() * 100.0).sum();
    Some(sum / pairs.len() as f64)
}

/// Mean |deviation| in percent of the eight §VI-A speedups (geomean
/// over the campaign's seeds) from the paper's. `None` when a design is
/// missing from the report.
pub fn fig5_dev_pct(report: &CampaignReport) -> Option<f64> {
    let aggs = per_arch(report, Some(DnnCategory::B));
    let pairs: Option<Vec<(f64, f64)>> = FIG5_SPEEDUPS
        .iter()
        .map(|&(d1, d2, d3, sh, paper)| {
            let name = ArchSpec::sparse_b(BorrowWindow::new(d1, d2, d3), sh).name;
            aggs.iter()
                .find(|a| a.arch == name)
                .map(|a| (a.speedup, paper))
        })
        .collect();
    mean_abs_dev_pct(&pairs?)
}

/// Mean |deviation| in percent of Griffin ÷ SparTen.AB TOPS/W per
/// category from the paper's 1.2 / 3.0 / 3.1 / 1.4×.
pub fn fig8_dev_pct(report: &CampaignReport) -> Option<f64> {
    let griffin = ArchSpec::griffin().name;
    let sparten = ArchSpec::sparten_ab().name;
    let pairs: Option<Vec<(f64, f64)>> = FIG8_POWER_RATIOS
        .iter()
        .map(|&(cat, paper)| {
            let aggs = per_arch(report, Some(cat));
            let eff = |n: &str| aggs.iter().find(|a| a.arch == n).map(|a| a.tops_per_w);
            Some((eff(&griffin)? / eff(&sparten)?, paper))
        })
        .collect();
    mean_abs_dev_pct(&pairs?)
}
