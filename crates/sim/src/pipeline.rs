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
use crate::single::{
    simulate_dense, simulate_sparse_a_batch, simulate_sparse_a_multi_arch,
    simulate_sparse_a_multi_arch_batch, simulate_sparse_a_with, simulate_sparse_b_batch,
    simulate_sparse_b_multi_arch, simulate_sparse_b_multi_arch_batch, simulate_sparse_b_with,
    ArchVariant, ScheduleAccum,
};
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

/// Runs one layer's tiles under one mode on one plane: the per-mode
/// dispatch every entry point falls back to when nothing batches.
fn schedule_layer(
    layer: &GemmLayer,
    mode: SparsityMode,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> ScheduleAccum {
    match mode {
        SparsityMode::Dense => simulate_dense(layer, cfg),
        SparsityMode::SparseA { win, shuffle } => {
            simulate_sparse_a_with(layer, win, shuffle, cfg, scratch)
        }
        SparsityMode::SparseB { win, shuffle } => {
            simulate_sparse_b_with(layer, win, shuffle, cfg, scratch)
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
/// single-layer and batched paths so both produce bit-identical reports
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

/// The single-sparse family every mode belongs to, with the modes'
/// (window, shuffle) variants: `Some((true, ..))` when all are
/// `SparseB`, `Some((false, ..))` when all are `SparseA`. This is the
/// precondition for the multi-arch tile entries to share grids and
/// schedules.
fn single_sparse_family(modes: &[SparsityMode]) -> Option<(bool, Vec<ArchVariant>)> {
    let b_side = matches!(modes.first()?, SparsityMode::SparseB { .. });
    modes
        .iter()
        .map(|m| match *m {
            SparsityMode::SparseB { win, shuffle } if b_side => Some((win, shuffle)),
            SparsityMode::SparseA { win, shuffle } if !b_side => Some((win, shuffle)),
            _ => None,
        })
        .collect::<Option<Vec<ArchVariant>>>()
        .map(|variants| (b_side, variants))
}

/// Simulates layer `index` of K seed-variant networks under V sparsity
/// modes in one pass, returning `[mode][plane]` reports. This is the
/// unit every network entry below loops over, and the sweep executor's
/// work item.
///
/// `layers[p]` is plane `p`'s copy of the layer. Two axes batch:
///
/// * **arch** — several modes of one single-sparse family (all
///   `SparseB` or all `SparseA`) go through one multi-arch tile entry
///   ([`simulate_sparse_b_multi_arch_batch`] and its siblings), so
///   same-reach windows share event-core passes and the scratch's
///   window-keyed schedule cache;
/// * **seed plane** — K > 1 planes of one shape and replica count
///   build their tile grids word-parallel ([`simulate_sparse_b_batch`]
///   / [`simulate_sparse_a_batch`] per single-sparse mode).
///
/// Everything else — `Dense`, the dual and SparTen pipelines, planes of
/// differing shapes — runs plane-sequentially. Every report is
/// **exactly** what [`simulate_layer_with`] produces for that (mode,
/// plane) alone: the batched builders yield identical grids and the
/// multi-arch schedulers are pinned bitwise-identical, so callers may
/// regroup work freely.
///
/// Inside a reuse scope plane `p`'s grids are memoized under layer
/// `index` and plane `scratch.plane + p`. A scope token that names one
/// (workload group, layer) pair therefore holds one layer's grids.
pub fn simulate_layer_family(
    index: usize,
    layers: &[&GemmLayer],
    modes: &[SparsityMode],
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> Vec<Vec<LayerReport>> {
    let Some(first) = layers.first() else {
        return vec![Vec::new(); modes.len()];
    };
    scratch.layer_idx = index as u32;
    let planes_batch = layers.len() > 1
        && layers
            .iter()
            .all(|l| l.shape == first.shape && l.replicas == first.replicas);
    let base = scratch.plane;
    let accs: Vec<Vec<ScheduleAccum>> = match single_sparse_family(modes) {
        Some((b_side, variants)) if modes.len() > 1 => {
            if planes_batch {
                if b_side {
                    simulate_sparse_b_multi_arch_batch(layers, &variants, cfg, scratch)
                } else {
                    simulate_sparse_a_multi_arch_batch(layers, &variants, cfg, scratch)
                }
            } else {
                let mut accs = vec![Vec::with_capacity(layers.len()); modes.len()];
                for (p, l) in layers.iter().enumerate() {
                    scratch.plane = base + p as u32;
                    let row = if b_side {
                        simulate_sparse_b_multi_arch(l, &variants, cfg, scratch)
                    } else {
                        simulate_sparse_a_multi_arch(l, &variants, cfg, scratch)
                    };
                    for (v, acc) in row.into_iter().enumerate() {
                        accs[v].push(acc);
                    }
                }
                accs
            }
        }
        _ => modes
            .iter()
            .map(|&mode| match mode {
                SparsityMode::SparseB { win, shuffle } if planes_batch => {
                    simulate_sparse_b_batch(layers, win, shuffle, cfg, scratch)
                }
                SparsityMode::SparseA { win, shuffle } if planes_batch => {
                    simulate_sparse_a_batch(layers, win, shuffle, cfg, scratch)
                }
                _ => {
                    let row = layers
                        .iter()
                        .enumerate()
                        .map(|(p, l)| {
                            scratch.plane = base + p as u32;
                            schedule_layer(l, mode, cfg, scratch)
                        })
                        .collect();
                    // The next mode's batch kernel keys from the offset.
                    scratch.plane = base;
                    row
                }
            })
            .collect(),
    };
    scratch.plane = base;
    accs.into_iter()
        .zip(modes)
        .map(|(row, &mode)| {
            row.into_iter()
                .zip(layers)
                .map(|(acc, l)| assemble_layer_report(l, mode, cfg, acc))
                .collect()
        })
        .collect()
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
    simulate_network_multi_arch(&[layers], &[mode], cfg, scratch)
        .pop()
        .and_then(|mut row| row.pop())
        .expect("one mode, one network")
}

/// Simulates K seed-variant networks under V sparsity modes, returning
/// `[mode][plane]` reports: one [`simulate_layer_family`] call per
/// layer index, so every report is exactly what a per-(mode, network)
/// [`simulate_network_with`] call produces.
///
/// Networks of uneven depth have no layer index that spans every
/// plane; each plane then runs on its own under plane key
/// `scratch.plane + p`, so memoized grids cannot collide.
pub fn simulate_network_multi_arch(
    networks: &[&[GemmLayer]],
    modes: &[SparsityMode],
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> Vec<Vec<NetworkReport>> {
    let mut reports = vec![vec![NetworkReport::default(); networks.len()]; modes.len()];
    // Appends one layer's `[mode][plane]` reports to planes `from..`.
    let push =
        |reports: &mut Vec<Vec<NetworkReport>>, from: usize, family: Vec<Vec<LayerReport>>| {
            for (row, layer_row) in reports.iter_mut().zip(family) {
                for (net, l) in row[from..].iter_mut().zip(layer_row) {
                    net.layers.push(l);
                }
            }
        };
    let depth = networks.first().map_or(0, |n| n.len());
    if networks.iter().all(|n| n.len() == depth) {
        for i in 0..depth {
            let layers: Vec<&GemmLayer> = networks.iter().map(|n| &n[i]).collect();
            push(
                &mut reports,
                0,
                simulate_layer_family(i, &layers, modes, cfg, scratch),
            );
        }
    } else {
        let base = scratch.plane;
        for (p, net) in networks.iter().enumerate() {
            scratch.plane = base + p as u32;
            for (i, l) in net.iter().enumerate() {
                push(
                    &mut reports,
                    p,
                    simulate_layer_family(i, &[l], modes, cfg, scratch),
                );
            }
        }
        scratch.plane = base;
    }
    reports
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
