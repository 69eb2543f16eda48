//! Tile simulation for single-sparse architectures (§III).
//!
//! * `Sparse.B(db1, db2, db3)`: matrix B is preprocessed; its nonzeros are
//!   scheduled over `(time, lane, PE column)`. All `M0` PE rows execute
//!   the same B-driven schedule against their own A operands, so the
//!   schedule of one output-tile *column* applies to every output-tile
//!   row: the layer latency is `Σ_n cycles(n-tile) · ⌈M/M0⌉`.
//! * `Sparse.A(da1, da2, da3)`: symmetric, with on-the-fly skipping of A
//!   nonzeros over `(time, lane, PE row)` shared by all `N0` PE columns:
//!   `Σ_m cycles(m-tile) · ⌈N/N0⌉`.
//!
//! Zero detection is modelled identically for both sides — the hardware
//! difference (offline preprocessing vs on-the-fly arbitration) shows up
//! in the *cost model* (metadata storage, per-PE control logic), not in
//! the cycle count, which both the paper's Figure 2 walk-through and its
//! simulator treat through the same borrowing window abstraction.

use griffin_tensor::block::{ATileView, BTileView};

use crate::config::SimConfig;
use crate::engine::{schedule_multi, schedule_with, OpGrid, Schedule};
use crate::grid::{build_a_grid, build_a_grids, build_b_grid, build_b_grids};
use crate::layer::GemmLayer;
use crate::sampling::sample_indices;
use crate::scratch::{GridKey, SchedKey, SimScratch};
use crate::shuffle::LaneMap;
use crate::window::{BorrowWindow, EffectiveWindow};

/// One member of a single-sparse architecture family: its borrowing
/// window and shuffle flag — the only two axes that change the tile
/// schedule within one sparsity mode.
pub type ArchVariant = (BorrowWindow, bool);

/// Accumulated schedule statistics for a layer, before bandwidth floors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScheduleAccum {
    /// Total schedule cycles for the layer.
    pub cycles: f64,
    /// Total effectual ops executed.
    pub ops: f64,
    /// Total borrow events.
    pub borrowed: f64,
    /// Total starved cycles.
    pub starved: f64,
    /// Whether sampling was used.
    pub sampled: bool,
}

impl ScheduleAccum {
    pub(crate) fn add(&mut self, s: Schedule, weight: f64) {
        self.cycles += s.cycles as f64 * weight;
        self.ops += s.executed as f64 * weight;
        self.borrowed += s.borrowed as f64 * weight;
        self.starved += s.starved_cycles as f64 * weight;
    }
}

/// Simulates a layer on a `Sparse.B` architecture, returning schedule
/// statistics (the pipeline adds bandwidth floors).
pub fn simulate_sparse_b(
    layer: &GemmLayer,
    win: BorrowWindow,
    shuffle: bool,
    cfg: &SimConfig,
) -> ScheduleAccum {
    simulate_sparse_b_with(layer, win, shuffle, cfg, &mut SimScratch::new())
}

/// [`simulate_sparse_b`] with caller-provided scratch — the zero-alloc
/// steady-state path for campaign workers.
pub fn simulate_sparse_b_with(
    layer: &GemmLayer,
    win: BorrowWindow,
    shuffle: bool,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> ScheduleAccum {
    let core = cfg.core;
    let tiles = layer.shape.tiles(core);
    let lanes = LaneMap::from_flag(shuffle);
    let eff = EffectiveWindow::for_b(win);
    let (picked, scale) = sample_indices(tiles.nt, cfg.fidelity);

    let mut acc = ScheduleAccum {
        sampled: scale > 1.0,
        ..Default::default()
    };
    for &n_tile in &picked {
        let s = if scratch.scope.is_some() {
            // Reuse scope: the grid is shared across every architecture
            // sweeping this workload.
            let key = GridKey {
                layer: scratch.layer_idx,
                tile: n_tile as u32,
                rotate: shuffle,
                b_side: true,
                core,
                plane: scratch.plane,
            };
            if !scratch.grids.contains_key(&key) {
                let mut g = OpGrid::default();
                let view = BTileView::new(&layer.b, core, n_tile * core.n0);
                build_b_grid(&mut g, &mut scratch.span, &view, lanes);
                scratch.grids.insert(key, g);
            }
            schedule_with(&scratch.grids[&key], eff, cfg.priority, &mut scratch.sched)
        } else {
            let view = BTileView::new(&layer.b, core, n_tile * core.n0);
            build_b_grid(&mut scratch.grid, &mut scratch.span, &view, lanes);
            schedule_with(&scratch.grid, eff, cfg.priority, &mut scratch.sched)
        };
        // The same B schedule runs once per output-tile row; ops execute
        // on all M0 rows simultaneously (each B nonzero feeds M0 MACs).
        acc.add(s, scale * tiles.mt as f64);
    }
    acc.ops *= core.m0 as f64;
    acc
}

/// Simulates K seed-variant layers of one shape on a `Sparse.B`
/// architecture in a single batched pass.
///
/// The layers must share their [`GemmShape`](griffin_tensor::shape::GemmShape)
/// (seed variants of one workload do); per sampled tile the op grids of
/// all K planes are built word-parallel by [`build_b_grids`] and then
/// scheduled per plane, so the returned accumulators are **exactly**
/// what K independent [`simulate_sparse_b_with`] calls produce (pinned
/// by batch-equivalence tests). Inside a reuse scope each plane's grids
/// are memoized under its batch plane index, so an architecture sweep
/// over the batch builds every grid once.
pub fn simulate_sparse_b_batch(
    layers: &[&GemmLayer],
    win: BorrowWindow,
    shuffle: bool,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> Vec<ScheduleAccum> {
    let Some(first) = layers.first() else {
        return Vec::new();
    };
    let core = cfg.core;
    let tiles = first.shape.tiles(core);
    for l in layers {
        assert_eq!(l.shape, first.shape, "batched layers must share a shape");
    }
    let planes = layers.len();
    let lanes = LaneMap::from_flag(shuffle);
    let eff = EffectiveWindow::for_b(win);
    let (picked, scale) = sample_indices(tiles.nt, cfg.fidelity);

    let mut accs = vec![
        ScheduleAccum {
            sampled: scale > 1.0,
            ..Default::default()
        };
        planes
    ];
    let (layer_idx, base) = (scratch.layer_idx, scratch.plane);
    for &n_tile in &picked {
        let key_of = |p: usize| GridKey {
            layer: layer_idx,
            tile: n_tile as u32,
            rotate: shuffle,
            b_side: true,
            core,
            plane: base + p as u32,
        };
        if scratch.scope.is_some() {
            // All-or-nothing: the scope token covers the whole batch, so
            // either every plane's grid is memoized or none is.
            if !(0..planes).all(|p| scratch.grids.contains_key(&key_of(p))) {
                let views: Vec<BTileView<'_>> = layers
                    .iter()
                    .map(|l| BTileView::new(&l.b, core, n_tile * core.n0))
                    .collect();
                let mut grids = vec![OpGrid::default(); planes];
                build_b_grids(&mut grids, &mut scratch.span, &views, lanes);
                for (p, g) in grids.into_iter().enumerate() {
                    scratch.grids.insert(key_of(p), g);
                }
            }
            let SimScratch { grids, sched, .. } = &mut *scratch;
            for (p, acc) in accs.iter_mut().enumerate() {
                let s = schedule_with(&grids[&key_of(p)], eff, cfg.priority, sched);
                acc.add(s, scale * tiles.mt as f64);
            }
        } else {
            let SimScratch {
                batch_grids,
                span,
                sched,
                ..
            } = &mut *scratch;
            if batch_grids.len() < planes {
                batch_grids.resize_with(planes, OpGrid::default);
            }
            let views: Vec<BTileView<'_>> = layers
                .iter()
                .map(|l| BTileView::new(&l.b, core, n_tile * core.n0))
                .collect();
            build_b_grids(&mut batch_grids[..planes], span, &views, lanes);
            for (p, acc) in accs.iter_mut().enumerate() {
                let s = schedule_with(&batch_grids[p], eff, cfg.priority, sched);
                acc.add(s, scale * tiles.mt as f64);
            }
        }
    }
    for acc in &mut accs {
        acc.ops *= core.m0 as f64;
    }
    accs
}

/// Simulates one layer under a whole `Sparse.B` architecture *family*
/// in a single pass, returning one accumulator per variant.
///
/// Variants are grouped by shuffle flag (the only axis that changes the
/// tile grid); each group's windows go through one
/// [`schedule_multi`] call per tile, so same-reach windows are served
/// by saturating-depth replay instead of independent event-core passes.
/// Inside a reuse scope, schedules are additionally memoized in the
/// window-keyed schedule cache next to the grid cache. The results are
/// **bitwise identical** to per-variant [`simulate_sparse_b_with`]
/// calls (pinned by differential tests).
pub fn simulate_sparse_b_multi_arch(
    layer: &GemmLayer,
    variants: &[ArchVariant],
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> Vec<ScheduleAccum> {
    let core = cfg.core;
    let tiles = layer.shape.tiles(core);
    let effs: Vec<EffectiveWindow> = variants
        .iter()
        .map(|&(w, _)| EffectiveWindow::for_b(w))
        .collect();
    let mut by_rot: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (v, &(_, shuffle)) in variants.iter().enumerate() {
        by_rot[usize::from(shuffle)].push(v);
    }
    let (picked, scale) = sample_indices(tiles.nt, cfg.fidelity);

    let mut accs = vec![
        ScheduleAccum {
            sampled: scale > 1.0,
            ..Default::default()
        };
        variants.len()
    ];
    let mut group_wins: Vec<EffectiveWindow> = Vec::new();
    let mut miss_keys: Vec<SchedKey> = Vec::new();
    let mut multi_out: Vec<Schedule> = Vec::new();
    for &n_tile in &picked {
        for (rot, members) in [(false, &by_rot[0]), (true, &by_rot[1])] {
            if members.is_empty() {
                continue;
            }
            let lanes = LaneMap::from_flag(rot);
            if scratch.scope.is_some() {
                let gkey = GridKey {
                    layer: scratch.layer_idx,
                    tile: n_tile as u32,
                    rotate: rot,
                    b_side: true,
                    core,
                    plane: scratch.plane,
                };
                if !scratch.grids.contains_key(&gkey) {
                    let mut g = OpGrid::default();
                    let view = BTileView::new(&layer.b, core, n_tile * core.n0);
                    build_b_grid(&mut g, &mut scratch.span, &view, lanes);
                    scratch.grids.insert(gkey, g);
                }
                let SimScratch {
                    grids,
                    scheds,
                    sched,
                    share_stats,
                    ..
                } = &mut *scratch;
                let grid = &grids[&gkey];
                group_wins.clear();
                miss_keys.clear();
                for &v in members {
                    let skey = SchedKey {
                        grid: gkey,
                        win: effs[v],
                        priority: cfg.priority,
                    };
                    if !scheds.contains_key(&skey) && !miss_keys.contains(&skey) {
                        miss_keys.push(skey);
                        group_wins.push(effs[v]);
                    }
                }
                if !group_wins.is_empty() {
                    let sh = schedule_multi(grid, &group_wins, cfg.priority, sched, &mut multi_out);
                    share_stats.multi_passes += sh.scheduled as u64;
                    share_stats.multi_replayed += sh.replayed as u64;
                    for (k, s) in miss_keys.iter().zip(&multi_out) {
                        scheds.insert(*k, *s);
                    }
                }
                share_stats.multi_windows += members.len() as u64;
                share_stats.sched_cache_hits += (members.len() - group_wins.len()) as u64;
                for &v in members {
                    let skey = SchedKey {
                        grid: gkey,
                        win: effs[v],
                        priority: cfg.priority,
                    };
                    accs[v].add(scheds[&skey], scale * tiles.mt as f64);
                }
            } else {
                let view = BTileView::new(&layer.b, core, n_tile * core.n0);
                build_b_grid(&mut scratch.grid, &mut scratch.span, &view, lanes);
                group_wins.clear();
                group_wins.extend(members.iter().map(|&v| effs[v]));
                let sh = schedule_multi(
                    &scratch.grid,
                    &group_wins,
                    cfg.priority,
                    &mut scratch.sched,
                    &mut multi_out,
                );
                scratch.share_stats.multi_windows += members.len() as u64;
                scratch.share_stats.multi_passes += sh.scheduled as u64;
                scratch.share_stats.multi_replayed += sh.replayed as u64;
                for (&v, s) in members.iter().zip(&multi_out) {
                    accs[v].add(*s, scale * tiles.mt as f64);
                }
            }
        }
    }
    for acc in &mut accs {
        acc.ops *= core.m0 as f64;
    }
    accs
}

/// Batched × family form: K seed-variant same-shape layers under V
/// `Sparse.B` architecture variants, returning `[variant][plane]`
/// accumulators — the cross product that one sweep cache-miss group
/// needs. Exactly equivalent to V × K independent
/// [`simulate_sparse_b_with`] calls.
pub fn simulate_sparse_b_multi_arch_batch(
    layers: &[&GemmLayer],
    variants: &[ArchVariant],
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> Vec<Vec<ScheduleAccum>> {
    let Some(first) = layers.first() else {
        return vec![Vec::new(); variants.len()];
    };
    let core = cfg.core;
    let tiles = first.shape.tiles(core);
    for l in layers {
        assert_eq!(l.shape, first.shape, "batched layers must share a shape");
    }
    let planes = layers.len();
    let effs: Vec<EffectiveWindow> = variants
        .iter()
        .map(|&(w, _)| EffectiveWindow::for_b(w))
        .collect();
    let mut by_rot: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (v, &(_, shuffle)) in variants.iter().enumerate() {
        by_rot[usize::from(shuffle)].push(v);
    }
    let (picked, scale) = sample_indices(tiles.nt, cfg.fidelity);

    let mut accs = vec![
        vec![
            ScheduleAccum {
                sampled: scale > 1.0,
                ..Default::default()
            };
            planes
        ];
        variants.len()
    ];
    let (layer_idx, base) = (scratch.layer_idx, scratch.plane);
    let mut group_wins: Vec<EffectiveWindow> = Vec::new();
    let mut miss_keys: Vec<SchedKey> = Vec::new();
    let mut multi_out: Vec<Schedule> = Vec::new();
    for &n_tile in &picked {
        for (rot, members) in [(false, &by_rot[0]), (true, &by_rot[1])] {
            if members.is_empty() {
                continue;
            }
            let lanes = LaneMap::from_flag(rot);
            let key_of = |p: usize| GridKey {
                layer: layer_idx,
                tile: n_tile as u32,
                rotate: rot,
                b_side: true,
                core,
                plane: base + p as u32,
            };
            if scratch.scope.is_some() {
                if !(0..planes).all(|p| scratch.grids.contains_key(&key_of(p))) {
                    let views: Vec<BTileView<'_>> = layers
                        .iter()
                        .map(|l| BTileView::new(&l.b, core, n_tile * core.n0))
                        .collect();
                    let mut grids = vec![OpGrid::default(); planes];
                    build_b_grids(&mut grids, &mut scratch.span, &views, lanes);
                    for (p, g) in grids.into_iter().enumerate() {
                        scratch.grids.insert(key_of(p), g);
                    }
                }
                let SimScratch {
                    grids,
                    scheds,
                    sched,
                    share_stats,
                    ..
                } = &mut *scratch;
                // `p` keys the grid cache and the per-variant inner
                // accumulators at once, so a range loop reads clearer
                // than a zip over `accs`' outer (variant) axis.
                #[allow(clippy::needless_range_loop)]
                for p in 0..planes {
                    let gkey = key_of(p);
                    let grid = &grids[&gkey];
                    group_wins.clear();
                    miss_keys.clear();
                    for &v in members {
                        let skey = SchedKey {
                            grid: gkey,
                            win: effs[v],
                            priority: cfg.priority,
                        };
                        if !scheds.contains_key(&skey) && !miss_keys.contains(&skey) {
                            miss_keys.push(skey);
                            group_wins.push(effs[v]);
                        }
                    }
                    if !group_wins.is_empty() {
                        let sh =
                            schedule_multi(grid, &group_wins, cfg.priority, sched, &mut multi_out);
                        share_stats.multi_passes += sh.scheduled as u64;
                        share_stats.multi_replayed += sh.replayed as u64;
                        for (k, s) in miss_keys.iter().zip(&multi_out) {
                            scheds.insert(*k, *s);
                        }
                    }
                    share_stats.multi_windows += members.len() as u64;
                    share_stats.sched_cache_hits += (members.len() - group_wins.len()) as u64;
                    for &v in members {
                        let skey = SchedKey {
                            grid: gkey,
                            win: effs[v],
                            priority: cfg.priority,
                        };
                        accs[v][p].add(scheds[&skey], scale * tiles.mt as f64);
                    }
                }
            } else {
                let SimScratch {
                    batch_grids,
                    span,
                    sched,
                    share_stats,
                    ..
                } = &mut *scratch;
                if batch_grids.len() < planes {
                    batch_grids.resize_with(planes, OpGrid::default);
                }
                let views: Vec<BTileView<'_>> = layers
                    .iter()
                    .map(|l| BTileView::new(&l.b, core, n_tile * core.n0))
                    .collect();
                build_b_grids(&mut batch_grids[..planes], span, &views, lanes);
                for (p, grid) in batch_grids[..planes].iter().enumerate() {
                    group_wins.clear();
                    group_wins.extend(members.iter().map(|&v| effs[v]));
                    let sh = schedule_multi(grid, &group_wins, cfg.priority, sched, &mut multi_out);
                    share_stats.multi_windows += members.len() as u64;
                    share_stats.multi_passes += sh.scheduled as u64;
                    share_stats.multi_replayed += sh.replayed as u64;
                    for (&v, s) in members.iter().zip(&multi_out) {
                        accs[v][p].add(*s, scale * tiles.mt as f64);
                    }
                }
            }
        }
    }
    for row in &mut accs {
        for acc in row {
            acc.ops *= core.m0 as f64;
        }
    }
    accs
}

/// Simulates a layer on a `Sparse.A` architecture.
pub fn simulate_sparse_a(
    layer: &GemmLayer,
    win: BorrowWindow,
    shuffle: bool,
    cfg: &SimConfig,
) -> ScheduleAccum {
    simulate_sparse_a_with(layer, win, shuffle, cfg, &mut SimScratch::new())
}

/// [`simulate_sparse_a`] with caller-provided scratch.
pub fn simulate_sparse_a_with(
    layer: &GemmLayer,
    win: BorrowWindow,
    shuffle: bool,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> ScheduleAccum {
    let core = cfg.core;
    let tiles = layer.shape.tiles(core);
    let lanes = LaneMap::from_flag(shuffle);
    let eff = EffectiveWindow::for_a(win);
    let (picked, scale) = sample_indices(tiles.mt, cfg.fidelity);

    let mut acc = ScheduleAccum {
        sampled: scale > 1.0,
        ..Default::default()
    };
    for &m_tile in &picked {
        let s = if scratch.scope.is_some() {
            let key = GridKey {
                layer: scratch.layer_idx,
                tile: m_tile as u32,
                rotate: shuffle,
                b_side: false,
                core,
                plane: scratch.plane,
            };
            if !scratch.grids.contains_key(&key) {
                let mut g = OpGrid::default();
                let view = ATileView::new(&layer.a, core, m_tile * core.m0);
                build_a_grid(&mut g, &mut scratch.span, &view, lanes);
                scratch.grids.insert(key, g);
            }
            schedule_with(&scratch.grids[&key], eff, cfg.priority, &mut scratch.sched)
        } else {
            let view = ATileView::new(&layer.a, core, m_tile * core.m0);
            build_a_grid(&mut scratch.grid, &mut scratch.span, &view, lanes);
            schedule_with(&scratch.grid, eff, cfg.priority, &mut scratch.sched)
        };
        acc.add(s, scale * tiles.nt as f64);
    }
    acc.ops *= core.n0 as f64;
    acc
}

/// Batched counterpart of [`simulate_sparse_a_with`]: K seed-variant
/// same-shape layers per pass, with the same exact-equivalence contract
/// as [`simulate_sparse_b_batch`].
pub fn simulate_sparse_a_batch(
    layers: &[&GemmLayer],
    win: BorrowWindow,
    shuffle: bool,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> Vec<ScheduleAccum> {
    let Some(first) = layers.first() else {
        return Vec::new();
    };
    let core = cfg.core;
    let tiles = first.shape.tiles(core);
    for l in layers {
        assert_eq!(l.shape, first.shape, "batched layers must share a shape");
    }
    let planes = layers.len();
    let lanes = LaneMap::from_flag(shuffle);
    let eff = EffectiveWindow::for_a(win);
    let (picked, scale) = sample_indices(tiles.mt, cfg.fidelity);

    let mut accs = vec![
        ScheduleAccum {
            sampled: scale > 1.0,
            ..Default::default()
        };
        planes
    ];
    let (layer_idx, base) = (scratch.layer_idx, scratch.plane);
    for &m_tile in &picked {
        let key_of = |p: usize| GridKey {
            layer: layer_idx,
            tile: m_tile as u32,
            rotate: shuffle,
            b_side: false,
            core,
            plane: base + p as u32,
        };
        if scratch.scope.is_some() {
            if !(0..planes).all(|p| scratch.grids.contains_key(&key_of(p))) {
                let views: Vec<ATileView<'_>> = layers
                    .iter()
                    .map(|l| ATileView::new(&l.a, core, m_tile * core.m0))
                    .collect();
                let mut grids = vec![OpGrid::default(); planes];
                build_a_grids(&mut grids, &mut scratch.span, &views, lanes);
                for (p, g) in grids.into_iter().enumerate() {
                    scratch.grids.insert(key_of(p), g);
                }
            }
            let SimScratch { grids, sched, .. } = &mut *scratch;
            for (p, acc) in accs.iter_mut().enumerate() {
                let s = schedule_with(&grids[&key_of(p)], eff, cfg.priority, sched);
                acc.add(s, scale * tiles.nt as f64);
            }
        } else {
            let SimScratch {
                batch_grids,
                span,
                sched,
                ..
            } = &mut *scratch;
            if batch_grids.len() < planes {
                batch_grids.resize_with(planes, OpGrid::default);
            }
            let views: Vec<ATileView<'_>> = layers
                .iter()
                .map(|l| ATileView::new(&l.a, core, m_tile * core.m0))
                .collect();
            build_a_grids(&mut batch_grids[..planes], span, &views, lanes);
            for (p, acc) in accs.iter_mut().enumerate() {
                let s = schedule_with(&batch_grids[p], eff, cfg.priority, sched);
                acc.add(s, scale * tiles.nt as f64);
            }
        }
    }
    for acc in &mut accs {
        acc.ops *= core.n0 as f64;
    }
    accs
}

/// `Sparse.A` counterpart of [`simulate_sparse_b_multi_arch`]: one
/// layer under V architecture variants, one accumulator per variant,
/// bitwise identical to per-variant [`simulate_sparse_a_with`] calls.
pub fn simulate_sparse_a_multi_arch(
    layer: &GemmLayer,
    variants: &[ArchVariant],
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> Vec<ScheduleAccum> {
    let core = cfg.core;
    let tiles = layer.shape.tiles(core);
    let effs: Vec<EffectiveWindow> = variants
        .iter()
        .map(|&(w, _)| EffectiveWindow::for_a(w))
        .collect();
    let mut by_rot: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (v, &(_, shuffle)) in variants.iter().enumerate() {
        by_rot[usize::from(shuffle)].push(v);
    }
    let (picked, scale) = sample_indices(tiles.mt, cfg.fidelity);

    let mut accs = vec![
        ScheduleAccum {
            sampled: scale > 1.0,
            ..Default::default()
        };
        variants.len()
    ];
    let mut group_wins: Vec<EffectiveWindow> = Vec::new();
    let mut miss_keys: Vec<SchedKey> = Vec::new();
    let mut multi_out: Vec<Schedule> = Vec::new();
    for &m_tile in &picked {
        for (rot, members) in [(false, &by_rot[0]), (true, &by_rot[1])] {
            if members.is_empty() {
                continue;
            }
            let lanes = LaneMap::from_flag(rot);
            if scratch.scope.is_some() {
                let gkey = GridKey {
                    layer: scratch.layer_idx,
                    tile: m_tile as u32,
                    rotate: rot,
                    b_side: false,
                    core,
                    plane: scratch.plane,
                };
                if !scratch.grids.contains_key(&gkey) {
                    let mut g = OpGrid::default();
                    let view = ATileView::new(&layer.a, core, m_tile * core.m0);
                    build_a_grid(&mut g, &mut scratch.span, &view, lanes);
                    scratch.grids.insert(gkey, g);
                }
                let SimScratch {
                    grids,
                    scheds,
                    sched,
                    share_stats,
                    ..
                } = &mut *scratch;
                let grid = &grids[&gkey];
                group_wins.clear();
                miss_keys.clear();
                for &v in members {
                    let skey = SchedKey {
                        grid: gkey,
                        win: effs[v],
                        priority: cfg.priority,
                    };
                    if !scheds.contains_key(&skey) && !miss_keys.contains(&skey) {
                        miss_keys.push(skey);
                        group_wins.push(effs[v]);
                    }
                }
                if !group_wins.is_empty() {
                    let sh = schedule_multi(grid, &group_wins, cfg.priority, sched, &mut multi_out);
                    share_stats.multi_passes += sh.scheduled as u64;
                    share_stats.multi_replayed += sh.replayed as u64;
                    for (k, s) in miss_keys.iter().zip(&multi_out) {
                        scheds.insert(*k, *s);
                    }
                }
                share_stats.multi_windows += members.len() as u64;
                share_stats.sched_cache_hits += (members.len() - group_wins.len()) as u64;
                for &v in members {
                    let skey = SchedKey {
                        grid: gkey,
                        win: effs[v],
                        priority: cfg.priority,
                    };
                    accs[v].add(scheds[&skey], scale * tiles.nt as f64);
                }
            } else {
                let view = ATileView::new(&layer.a, core, m_tile * core.m0);
                build_a_grid(&mut scratch.grid, &mut scratch.span, &view, lanes);
                group_wins.clear();
                group_wins.extend(members.iter().map(|&v| effs[v]));
                let sh = schedule_multi(
                    &scratch.grid,
                    &group_wins,
                    cfg.priority,
                    &mut scratch.sched,
                    &mut multi_out,
                );
                scratch.share_stats.multi_windows += members.len() as u64;
                scratch.share_stats.multi_passes += sh.scheduled as u64;
                scratch.share_stats.multi_replayed += sh.replayed as u64;
                for (&v, s) in members.iter().zip(&multi_out) {
                    accs[v].add(*s, scale * tiles.nt as f64);
                }
            }
        }
    }
    for acc in &mut accs {
        acc.ops *= core.n0 as f64;
    }
    accs
}

/// Batched × family form for `Sparse.A`: `[variant][plane]`
/// accumulators with the same exact-equivalence contract as
/// [`simulate_sparse_b_multi_arch_batch`].
pub fn simulate_sparse_a_multi_arch_batch(
    layers: &[&GemmLayer],
    variants: &[ArchVariant],
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> Vec<Vec<ScheduleAccum>> {
    let Some(first) = layers.first() else {
        return vec![Vec::new(); variants.len()];
    };
    let core = cfg.core;
    let tiles = first.shape.tiles(core);
    for l in layers {
        assert_eq!(l.shape, first.shape, "batched layers must share a shape");
    }
    let planes = layers.len();
    let effs: Vec<EffectiveWindow> = variants
        .iter()
        .map(|&(w, _)| EffectiveWindow::for_a(w))
        .collect();
    let mut by_rot: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (v, &(_, shuffle)) in variants.iter().enumerate() {
        by_rot[usize::from(shuffle)].push(v);
    }
    let (picked, scale) = sample_indices(tiles.mt, cfg.fidelity);

    let mut accs = vec![
        vec![
            ScheduleAccum {
                sampled: scale > 1.0,
                ..Default::default()
            };
            planes
        ];
        variants.len()
    ];
    let (layer_idx, base) = (scratch.layer_idx, scratch.plane);
    let mut group_wins: Vec<EffectiveWindow> = Vec::new();
    let mut miss_keys: Vec<SchedKey> = Vec::new();
    let mut multi_out: Vec<Schedule> = Vec::new();
    for &m_tile in &picked {
        for (rot, members) in [(false, &by_rot[0]), (true, &by_rot[1])] {
            if members.is_empty() {
                continue;
            }
            let lanes = LaneMap::from_flag(rot);
            let key_of = |p: usize| GridKey {
                layer: layer_idx,
                tile: m_tile as u32,
                rotate: rot,
                b_side: false,
                core,
                plane: base + p as u32,
            };
            if scratch.scope.is_some() {
                if !(0..planes).all(|p| scratch.grids.contains_key(&key_of(p))) {
                    let views: Vec<ATileView<'_>> = layers
                        .iter()
                        .map(|l| ATileView::new(&l.a, core, m_tile * core.m0))
                        .collect();
                    let mut grids = vec![OpGrid::default(); planes];
                    build_a_grids(&mut grids, &mut scratch.span, &views, lanes);
                    for (p, g) in grids.into_iter().enumerate() {
                        scratch.grids.insert(key_of(p), g);
                    }
                }
                let SimScratch {
                    grids,
                    scheds,
                    sched,
                    share_stats,
                    ..
                } = &mut *scratch;
                // `p` keys the grid cache and the per-variant inner
                // accumulators at once, so a range loop reads clearer
                // than a zip over `accs`' outer (variant) axis.
                #[allow(clippy::needless_range_loop)]
                for p in 0..planes {
                    let gkey = key_of(p);
                    let grid = &grids[&gkey];
                    group_wins.clear();
                    miss_keys.clear();
                    for &v in members {
                        let skey = SchedKey {
                            grid: gkey,
                            win: effs[v],
                            priority: cfg.priority,
                        };
                        if !scheds.contains_key(&skey) && !miss_keys.contains(&skey) {
                            miss_keys.push(skey);
                            group_wins.push(effs[v]);
                        }
                    }
                    if !group_wins.is_empty() {
                        let sh =
                            schedule_multi(grid, &group_wins, cfg.priority, sched, &mut multi_out);
                        share_stats.multi_passes += sh.scheduled as u64;
                        share_stats.multi_replayed += sh.replayed as u64;
                        for (k, s) in miss_keys.iter().zip(&multi_out) {
                            scheds.insert(*k, *s);
                        }
                    }
                    share_stats.multi_windows += members.len() as u64;
                    share_stats.sched_cache_hits += (members.len() - group_wins.len()) as u64;
                    for &v in members {
                        let skey = SchedKey {
                            grid: gkey,
                            win: effs[v],
                            priority: cfg.priority,
                        };
                        accs[v][p].add(scheds[&skey], scale * tiles.nt as f64);
                    }
                }
            } else {
                let SimScratch {
                    batch_grids,
                    span,
                    sched,
                    share_stats,
                    ..
                } = &mut *scratch;
                if batch_grids.len() < planes {
                    batch_grids.resize_with(planes, OpGrid::default);
                }
                let views: Vec<ATileView<'_>> = layers
                    .iter()
                    .map(|l| ATileView::new(&l.a, core, m_tile * core.m0))
                    .collect();
                build_a_grids(&mut batch_grids[..planes], span, &views, lanes);
                for (p, grid) in batch_grids[..planes].iter().enumerate() {
                    group_wins.clear();
                    group_wins.extend(members.iter().map(|&v| effs[v]));
                    let sh = schedule_multi(grid, &group_wins, cfg.priority, sched, &mut multi_out);
                    share_stats.multi_windows += members.len() as u64;
                    share_stats.multi_passes += sh.scheduled as u64;
                    share_stats.multi_replayed += sh.replayed as u64;
                    for (&v, s) in members.iter().zip(&multi_out) {
                        accs[v][p].add(*s, scale * tiles.nt as f64);
                    }
                }
            }
        }
    }
    for row in &mut accs {
        for acc in row {
            acc.ops *= core.n0 as f64;
        }
    }
    accs
}

/// Dense baseline "schedule": every tile takes `kt` cycles.
pub fn simulate_dense(layer: &GemmLayer, cfg: &SimConfig) -> ScheduleAccum {
    let tiles = layer.shape.tiles(cfg.core);
    let cycles = layer.shape.dense_cycles(cfg.core) as f64;
    ScheduleAccum {
        cycles,
        // Every slot performs a (possibly zero-operand) MAC each cycle.
        ops: (tiles.mt * tiles.nt * tiles.kt) as f64 * cfg.core.macs() as f64,
        borrowed: 0.0,
        starved: 0.0,
        sampled: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_tensor::shape::GemmShape;

    use griffin_tensor::shape::CoreDims;

    fn cfg() -> SimConfig {
        SimConfig::exact()
    }

    fn layer(m: usize, k: usize, n: usize, da: f64, db: f64, seed: u64) -> GemmLayer {
        GemmLayer::with_densities(GemmShape::new(m, k, n).unwrap(), da, db, seed).unwrap()
    }

    #[test]
    fn dense_layer_on_sparse_b_takes_dense_cycles() {
        let l = layer(16, 128, 32, 1.0, 1.0, 1);
        let acc = simulate_sparse_b(&l, BorrowWindow::new(4, 0, 1), true, &cfg());
        assert_eq!(acc.cycles, l.shape.dense_cycles(CoreDims::PAPER) as f64);
    }

    #[test]
    fn sparse_b_speeds_up_pruned_weights() {
        // Averaged over several mask seeds so the assertion tracks the
        // expected speedup, not one realization of one RNG stream
        // (thresholds tuned to a single seed re-fail whenever the RNG
        // implementation changes).
        let mut sum = 0.0;
        for seed in 1..=4 {
            let l = layer(16, 256, 32, 1.0, 0.2, seed);
            let dense = l.shape.dense_cycles(CoreDims::PAPER) as f64;
            let acc = simulate_sparse_b(&l, BorrowWindow::new(4, 0, 1), true, &cfg());
            let speedup = dense / acc.cycles;
            assert!(speedup <= 5.0 + 1e-9, "cannot exceed 1 + db1");
            sum += speedup;
        }
        let mean = sum / 4.0;
        assert!(mean > 1.9, "mean speedup {mean}");
    }

    #[test]
    fn sparse_a_speeds_up_relu_activations() {
        let l = layer(64, 1024, 32, 0.5, 1.0, 3);
        let dense = l.shape.dense_cycles(CoreDims::PAPER) as f64;
        let acc = simulate_sparse_a(&l, BorrowWindow::new(2, 1, 0), true, &cfg());
        let speedup = dense / acc.cycles;
        assert!(speedup > 1.35, "speedup {speedup}");
        assert!(speedup < 3.0 + 1e-9);
    }

    #[test]
    fn shuffle_improves_imbalanced_b() {
        // Clustered sparsity concentrates nonzeros in few lanes; shuffle
        // should recover performance (paper observation 3, Figure 5).
        use griffin_tensor::gen::TensorGen;
        let shape = GemmShape::new(16, 512, 16).unwrap();
        let mut g = TensorGen::seeded(11);
        let a = g.bernoulli_mask(shape.m, shape.k, 1.0);
        // Hot lane: all work lands on lane 0 of every 4-lane rotation
        // group, so the local 4x4 rotation can spread it over the group.
        let b = griffin_tensor::mask::SparsityMask::from_fn(shape.k, shape.n, |k, n| {
            (k % 4 == 0) && (k * 31 + n * 17) % 8 < 7
        });
        let l = GemmLayer::new(shape, a, b).unwrap();
        let off = simulate_sparse_b(&l, BorrowWindow::new(6, 0, 0), false, &cfg());
        let on = simulate_sparse_b(&l, BorrowWindow::new(6, 0, 0), true, &cfg());
        assert!(
            on.cycles < off.cycles * 0.8,
            "shuffle on {} vs off {}",
            on.cycles,
            off.cycles
        );
    }

    #[test]
    fn dense_accumulator_counts_all_slots() {
        let l = layer(16, 64, 32, 1.0, 1.0, 4);
        let acc = simulate_dense(&l, &cfg());
        assert_eq!(acc.cycles, l.shape.dense_cycles(CoreDims::PAPER) as f64);
        assert_eq!(acc.ops, acc.cycles * 1024.0);
    }

    #[test]
    fn sampling_approximates_exact() {
        let l = layer(32, 256, 256, 1.0, 0.25, 5);
        let exact = simulate_sparse_b(&l, BorrowWindow::new(4, 0, 1), true, &SimConfig::exact());
        let sampled_cfg = SimConfig {
            fidelity: crate::config::Fidelity::Sampled { tiles: 6, seed: 7 },
            ..SimConfig::default()
        };
        let sampled = simulate_sparse_b(&l, BorrowWindow::new(4, 0, 1), true, &sampled_cfg);
        assert!(sampled.sampled);
        let rel = (sampled.cycles - exact.cycles).abs() / exact.cycles;
        assert!(
            rel < 0.15,
            "sampled {} vs exact {} (rel {rel})",
            sampled.cycles,
            exact.cycles
        );
    }

    #[test]
    fn bigger_db1_never_slows_down() {
        let l = layer(16, 256, 32, 1.0, 0.3, 6);
        let s2 = simulate_sparse_b(&l, BorrowWindow::new(2, 0, 0), true, &cfg());
        let s4 = simulate_sparse_b(&l, BorrowWindow::new(4, 0, 0), true, &cfg());
        let s8 = simulate_sparse_b(&l, BorrowWindow::new(8, 0, 0), true, &cfg());
        assert!(s4.cycles <= s2.cycles);
        assert!(s8.cycles <= s4.cycles);
    }
}
