//! Layer- and network-level simulation.
//!
//! Composes the tile schedulers ([`crate::single`], [`crate::dual`],
//! [`crate::sparten`]) with the bandwidth model into the end-to-end
//! latency estimate the paper's Python simulator produces: per-layer
//! cycles including output-synchronization, buffer-fullness and
//! bandwidth stalls, summed over the network.

use griffin_tensor::compress::{metadata_bits_for_fanin, CompressedB};

use crate::bandwidth::{bw_floor_cycles, layer_traffic};
use crate::config::{SimConfig, SparsityMode};
use crate::dual::simulate_sparse_ab_with;
use crate::layer::GemmLayer;
use crate::report::{LayerReport, NetworkReport};
use crate::scratch::SimScratch;
use crate::single::{simulate_dense, simulate_single, ArchVariant, ScheduleAccum, Side};
use crate::sparten::{simulate_sparten_with, SpartenParams};

/// Bytes each dense B element costs in SRAM for this mode: compressed
/// architectures stream nonzero values plus metadata; dense ones stream
/// everything.
fn b_stream_factor(layer: &GemmLayer, mode: SparsityMode) -> f64 {
    if !mode.compresses_b() {
        return 1.0;
    }
    let meta_bits = match mode {
        SparsityMode::SparseB { win, .. } => {
            // AMUX select metadata: one of (1+db1)(1+db2) sources
            // (Table II), plus db3 routing when present.
            metadata_bits_for_fanin((1 + win.d1) * (1 + win.d2) * (1 + win.d3))
        }
        SparsityMode::SparseAB { a, b, .. } => {
            metadata_bits_for_fanin(1 + a.d1 * (1 + a.d2) + b.d1 * (1 + b.d2) + b.d3)
        }
        // SparTen stores a full bitmask: 1 bit per dense element; we fold
        // that into metadata bits per nonzero below via the ratio.
        SparsityMode::SparTen { .. } => 8,
        _ => 0,
    };
    CompressedB::from_mask(&layer.b, meta_bits).bytes_per_dense_element()
}

/// Simulates one layer under a sparsity mode, returning the full report.
pub fn simulate_layer(layer: &GemmLayer, mode: SparsityMode, cfg: &SimConfig) -> LayerReport {
    simulate_layer_with(layer, mode, cfg, &mut SimScratch::new())
}

/// [`simulate_layer`] with caller-provided scratch — the zero-alloc
/// steady-state path campaign workers thread through every layer.
pub fn simulate_layer_with(
    layer: &GemmLayer,
    mode: SparsityMode,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> LayerReport {
    let acc = schedule_layer(layer, mode, cfg, scratch);
    assemble_layer_report(layer, mode, cfg, acc)
}

/// Runs one layer's tiles under one mode on one plane.
fn schedule_layer(
    layer: &GemmLayer,
    mode: SparsityMode,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> ScheduleAccum {
    match mode {
        SparsityMode::Dense => simulate_dense(layer, cfg),
        SparsityMode::SparseA { win, shuffle } => {
            simulate_single(layer, Side::A, &[(win, shuffle)], cfg, scratch)[0]
        }
        SparsityMode::SparseB { win, shuffle } => {
            simulate_single(layer, Side::B, &[(win, shuffle)], cfg, scratch)[0]
        }
        SparsityMode::SparseAB { a, b, shuffle } => {
            simulate_sparse_ab_with(layer, a, b, shuffle, cfg, scratch)
        }
        SparsityMode::SparTen { a_sparse, b_sparse } => {
            let params = SpartenParams {
                macs: cfg.core.macs(),
                ..SpartenParams::default()
            };
            simulate_sparten_with(layer, a_sparse, b_sparse, params, cfg, scratch)
        }
    }
}

/// Turns a layer's schedule accumulator into its full report: bandwidth
/// floors, replica weighting, per-layer counters. Shared by the
/// single-layer and family paths so both produce bit-identical reports
/// from identical accumulators.
fn assemble_layer_report(
    layer: &GemmLayer,
    mode: SparsityMode,
    cfg: &SimConfig,
    acc: ScheduleAccum,
) -> LayerReport {
    let traffic = layer_traffic(layer.shape, cfg.core, b_stream_factor(layer, mode));
    let bw_floor = bw_floor_cycles(traffic, cfg.bw);
    let reps = layer.replicas as f64;
    // Even a fully-ineffectual layer occupies the pipeline for a cycle.
    let cycles = acc.cycles.max(bw_floor).max(1.0) * reps;

    LayerReport {
        dense_cycles: layer.dense_cycles(cfg.core),
        schedule_cycles: acc.cycles * reps,
        bw_floor_cycles: bw_floor * reps,
        cycles,
        effectual_ops: acc.ops * reps,
        borrowed_ops: acc.borrowed * reps,
        starved_cycles: acc.starved * reps,
        sampled: acc.sampled,
    }
}

/// The side and variant of a single-sparse mode; `None` for every other
/// mode.
fn single_side(mode: SparsityMode) -> Option<(Side, ArchVariant)> {
    match mode {
        SparsityMode::SparseA { win, shuffle } => Some((Side::A, (win, shuffle))),
        SparsityMode::SparseB { win, shuffle } => Some((Side::B, (win, shuffle))),
        _ => None,
    }
}

/// Simulates one layer of K seed-variant networks under V sparsity
/// modes, returning `[mode][plane]` reports. This is the unit every
/// network entry below loops over, and the sweep executor's work item.
///
/// `layers[p]` is plane `p`'s copy of the layer. Each distinct mode is
/// simulated once per plane and its report copied to every repeat (a
/// report depends only on the layer, the mode and `cfg`; Griffin's
/// conf.AB is `Sparse.AB*`'s mode, so a lineup holds such repeats). Per
/// plane, all distinct `SparseB` modes go through one
/// [`simulate_single`] call and all `SparseA` modes through another, so
/// each tile grid is taken once per shuffle flag and scheduled under
/// every window of the side; `Dense`, dual and SparTen modes run one by
/// one. Every report is **exactly** what [`simulate_layer_with`]
/// produces for that (mode, plane) alone, so callers may regroup work
/// freely.
pub fn simulate_layer_family(
    layers: &[&GemmLayer],
    modes: &[SparsityMode],
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> Vec<Vec<LayerReport>> {
    // Each mode's first occurrence; only those are simulated.
    let first: Vec<usize> = (0..modes.len())
        .map(|m| (0..m).find(|&j| modes[j] == modes[m]).unwrap_or(m))
        .collect();
    // Per side: the modes it serves and their variants.
    let mut sides = [Side::B, Side::A].map(|side| (side, Vec::new(), Vec::new()));
    for (m, &mode) in modes.iter().enumerate() {
        if first[m] != m {
            continue;
        }
        if let Some((side, variant)) = single_side(mode) {
            let (_, members, variants) = &mut sides[usize::from(side == Side::A)];
            members.push(m);
            variants.push(variant);
        }
    }
    let mut accs: Vec<Vec<ScheduleAccum>> = vec![Vec::with_capacity(layers.len()); modes.len()];
    for layer in layers {
        for (side, members, variants) in &sides {
            if members.is_empty() {
                continue;
            }
            let row = simulate_single(layer, *side, variants, cfg, scratch);
            for (&m, acc) in members.iter().zip(row) {
                accs[m].push(acc);
            }
        }
        for (m, &mode) in modes.iter().enumerate() {
            if first[m] == m && single_side(mode).is_none() {
                accs[m].push(schedule_layer(layer, mode, cfg, scratch));
            }
        }
    }
    let mut reports: Vec<Vec<LayerReport>> = Vec::with_capacity(modes.len());
    for (m, &mode) in modes.iter().enumerate() {
        let row = if first[m] < m {
            reports[first[m]].clone()
        } else {
            accs[m]
                .iter()
                .zip(layers)
                .map(|(&acc, l)| assemble_layer_report(l, mode, cfg, acc))
                .collect()
        };
        reports.push(row);
    }
    reports
}

/// Simulates a whole network (sequence of GEMM layers) under one mode.
pub fn simulate_network(
    layers: &[GemmLayer],
    mode: SparsityMode,
    cfg: &SimConfig,
) -> NetworkReport {
    simulate_network_with(layers, mode, cfg, &mut SimScratch::new())
}

/// [`simulate_network`] with caller-provided scratch shared by every
/// layer.
pub fn simulate_network_with(
    layers: &[GemmLayer],
    mode: SparsityMode,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> NetworkReport {
    NetworkReport {
        layers: layers
            .iter()
            .map(|l| simulate_layer_with(l, mode, cfg, scratch))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::BwPolicy;
    use crate::window::BorrowWindow;
    use griffin_tensor::shape::GemmShape;

    fn layer(da: f64, db: f64, seed: u64) -> GemmLayer {
        GemmLayer::with_densities(GemmShape::new(32, 256, 64).unwrap(), da, db, seed).unwrap()
    }

    fn star_b() -> SparsityMode {
        SparsityMode::SparseB {
            win: BorrowWindow::new(4, 0, 1),
            shuffle: true,
        }
    }

    #[test]
    fn dense_mode_reports_unit_speedup() {
        let l = layer(1.0, 1.0, 1);
        let r = simulate_layer(&l, SparsityMode::Dense, &SimConfig::exact());
        assert!((r.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn provisioned_bw_never_floors() {
        let l = layer(1.0, 0.2, 2);
        let r = simulate_layer(&l, star_b(), &SimConfig::exact());
        assert_eq!(r.bw_floor_cycles, 0.0);
        assert_eq!(r.cycles, r.schedule_cycles);
    }

    #[test]
    fn fixed_baseline_bw_caps_sparse_speedup() {
        let l = layer(1.0, 0.2, 3);
        let cfg = SimConfig {
            bw: BwPolicy::paper_baseline(),
            ..SimConfig::exact()
        };
        let r = simulate_layer(&l, star_b(), &cfg);
        // A-side traffic is dense, so the floor should bind near 1x.
        assert!(r.bw_floor_cycles > r.schedule_cycles);
        assert!(r.speedup() < 1.5);
    }

    #[test]
    fn compressed_b_floors_below_dense_b_traffic() {
        let l = layer(1.0, 0.2, 4);
        let f = b_stream_factor(&l, star_b());
        assert!(f < 0.5, "factor {f} should reflect 20% density + metadata");
        assert!(f > 0.2);
    }

    #[test]
    fn network_report_sums_layers() {
        let layers = vec![layer(1.0, 0.2, 5), layer(1.0, 0.3, 6)];
        let net = simulate_network(&layers, star_b(), &SimConfig::exact());
        assert_eq!(net.layers.len(), 2);
        let manual: f64 = net.layers.iter().map(|l| l.cycles).sum();
        assert_eq!(net.cycles(), manual);
        assert!(net.speedup() > 1.0);
    }

    #[test]
    fn all_modes_run_end_to_end() {
        let l = layer(0.5, 0.2, 7);
        let cfg = SimConfig::default();
        for mode in [
            SparsityMode::Dense,
            SparsityMode::SparseA {
                win: BorrowWindow::new(2, 1, 0),
                shuffle: true,
            },
            star_b(),
            SparsityMode::SparseAB {
                a: BorrowWindow::new(2, 0, 0),
                b: BorrowWindow::new(2, 0, 1),
                shuffle: true,
            },
            SparsityMode::SparTen {
                a_sparse: true,
                b_sparse: true,
            },
        ] {
            let r = simulate_layer(&l, mode, &cfg);
            assert!(r.cycles > 0.0, "{mode:?}");
            assert!(r.speedup() > 0.5, "{mode:?}");
        }
    }
}
