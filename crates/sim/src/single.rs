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
use griffin_tensor::shape::CoreDims;

use crate::config::SimConfig;
use crate::engine::{schedule_with, OpGrid, Schedule};
use crate::grid::{build_a_grid, build_b_grid};
use crate::layer::GemmLayer;
use crate::sampling::sample_indices;
use crate::scratch::SimScratch;
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

/// Which operand a single-sparse architecture skips zeros of — the one
/// place the A/B symmetry of §III is spelled out. Everything else in
/// [`simulate_single`] is side-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `Sparse.A`: A nonzeros over `(time, lane, PE row)`.
    A,
    /// `Sparse.B`: B nonzeros over `(time, lane, PE column)`.
    B,
}

impl Side {
    /// `(home, other)` tile counts: the axis whose tiles are scheduled
    /// (and sampled), and the axis every schedule repeats over.
    fn tiles(self, layer: &GemmLayer, core: CoreDims) -> (usize, usize) {
        let t = layer.shape.tiles(core);
        match self {
            Side::A => (t.mt, t.nt),
            Side::B => (t.nt, t.mt),
        }
    }

    /// The scheduling window of a borrowing window on this side.
    fn window(self, win: BorrowWindow) -> EffectiveWindow {
        match self {
            Side::A => EffectiveWindow::for_a(win),
            Side::B => EffectiveWindow::for_b(win),
        }
    }

    /// MACs each scheduled op feeds: the PE lines sharing the schedule
    /// (`N0` columns reuse an A operand, `M0` rows a B operand).
    fn fan_out(self, core: CoreDims) -> usize {
        match self {
            Side::A => core.n0,
            Side::B => core.m0,
        }
    }

    /// Slots of a home tile's grid: `K0` lanes by the home axis's PE
    /// lines (`M0` rows for A, `N0` columns for B).
    fn slots(self, core: CoreDims) -> usize {
        core.macs() / self.fan_out(core)
    }

    /// Whether home tile `tile` is full: `K` fills whole time steps and
    /// every operand element of the tile is nonzero. `all_set` refuses a
    /// range that runs past the mask, so a partial edge tile never is.
    pub(crate) fn is_full(self, layer: &GemmLayer, core: CoreDims, tile: usize) -> bool {
        let k = layer.shape.k;
        k.is_multiple_of(core.k0)
            && match self {
                Side::A => layer.a.all_set(tile * core.m0..(tile + 1) * core.m0, 0..k),
                Side::B => layer.b.all_set(0..k, tile * core.n0..(tile + 1) * core.n0),
            }
    }

    /// Rebuilds `grid` as the op grid of home tile `tile`.
    pub(crate) fn build_grid(
        self,
        grid: &mut OpGrid,
        span: &mut Vec<u64>,
        layer: &GemmLayer,
        core: CoreDims,
        tile: usize,
        lanes: LaneMap,
    ) {
        match self {
            Side::A => build_a_grid(
                grid,
                span,
                &ATileView::new(&layer.a, core, tile * core.m0),
                lanes,
            ),
            Side::B => build_b_grid(
                grid,
                span,
                &BTileView::new(&layer.b, core, tile * core.n0),
                lanes,
            ),
        }
    }
}

/// Simulates one layer under a whole single-sparse architecture family
/// on `side`, returning one accumulator per variant (the pipeline adds
/// bandwidth floors).
///
/// The loop is tile-major: each sampled home tile's grid is built once
/// per shuffle flag, in place in the scratch, and every variant with
/// that flag is scheduled on it. A variant's result is therefore exactly
/// what a one-variant call returns.
///
/// A full home tile (see `Side::is_full`) builds and schedules no grid:
/// its schedule is known in advance, [`Schedule::full`], under every
/// window and shuffle flag (a lane permutation of a full grid is the
/// same full grid). Dense operands make such tiles common in the
/// paper's four-category comparison.
pub fn simulate_single(
    layer: &GemmLayer,
    side: Side,
    variants: &[ArchVariant],
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> Vec<ScheduleAccum> {
    let core = cfg.core;
    let (home, other) = side.tiles(layer, core);
    let effs: Vec<EffectiveWindow> = variants.iter().map(|&(w, _)| side.window(w)).collect();
    let (picked, scale) = sample_indices(home, cfg.fidelity);
    let weight = scale * other as f64;

    let mut accs = vec![
        ScheduleAccum {
            sampled: scale > 1.0,
            ..Default::default()
        };
        variants.len()
    ];
    for &tile in &picked {
        if side.is_full(layer, core, tile) {
            let full = Schedule::full(layer.shape.k / core.k0, side.slots(core));
            for acc in &mut accs {
                acc.add(full, weight);
            }
            continue;
        }
        for rotate in [false, true] {
            if !variants.iter().any(|&(_, s)| s == rotate) {
                continue;
            }
            let (grid, sched, _) = scratch.tile_grid(layer, side, tile, rotate, core);
            for ((acc, &(_, shuffle)), &eff) in accs.iter_mut().zip(variants).zip(&effs) {
                if shuffle == rotate {
                    acc.add(schedule_with(grid, eff, cfg.priority, sched), weight);
                }
            }
        }
    }
    for acc in &mut accs {
        acc.ops *= side.fan_out(core) as f64;
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
    use crate::config::Priority;
    use crate::engine::schedule;
    use griffin_tensor::gen::TensorGen;
    use griffin_tensor::mask::SparsityMask;
    use griffin_tensor::shape::{CoreDims, GemmShape};
    use proptest::prelude::*;

    fn cfg() -> SimConfig {
        SimConfig::exact()
    }

    fn layer(m: usize, k: usize, n: usize, da: f64, db: f64, seed: u64) -> GemmLayer {
        GemmLayer::with_densities(GemmShape::new(m, k, n).unwrap(), da, db, seed).unwrap()
    }

    /// One design alone, on fresh scratch.
    fn run(
        l: &GemmLayer,
        side: Side,
        win: BorrowWindow,
        shuffle: bool,
        cfg: &SimConfig,
    ) -> ScheduleAccum {
        simulate_single(l, side, &[(win, shuffle)], cfg, &mut SimScratch::new())[0]
    }

    #[test]
    fn family_call_matches_one_variant_calls() {
        // Mixed shuffle flags and a duplicate variant, on both sides,
        // over repeated passes on one shared scratch.
        let l = layer(40, 300, 70, 0.6, 0.3, 8);
        let variants = [
            (BorrowWindow::new(4, 0, 1), true),
            (BorrowWindow::new(2, 1, 0), false),
            (BorrowWindow::new(6, 0, 0), true),
            (BorrowWindow::new(4, 0, 1), true),
        ];
        let cfg = SimConfig {
            fidelity: crate::config::Fidelity::Sampled { tiles: 2, seed: 3 },
            ..SimConfig::default()
        };
        let mut scratch = SimScratch::new();
        for side in [Side::A, Side::B] {
            for _pass in 0..2 {
                let family = simulate_single(&l, side, &variants, &cfg, &mut scratch);
                for (got, &(win, shuffle)) in family.iter().zip(&variants) {
                    assert_eq!(*got, run(&l, side, win, shuffle, &cfg), "{side:?} {win:?}");
                }
            }
            assert!(simulate_single(&l, side, &[], &cfg, &mut scratch).is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(150))]

        /// On layers mixing full and sparse home tiles, `simulate_single` equals
        /// building and scheduling every tile's grid, and the full-tile
        /// test holds exactly when the built grid is full. Ragged K and
        /// partial M/N edge tiles are padded, so they must refuse the
        /// shortcut even when every element inside the mask is set.
        #[test]
        fn full_tiles_match_their_built_grids(
            dims in (1usize..12, 1usize..5, 0usize..2, 1usize..50),
            kind in 0usize..3,
            density in 0.2f64..0.9,
            seed in 0u64..10_000,
            flags in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
            win in 0usize..4,
        ) {
            let core = CoreDims::PAPER;
            let (m, t, ragged, n) = dims;
            let k = t * core.k0 + ragged * (1 + seed as usize % (core.k0 - 1));
            let (side_a, shuffle, earliest) = flags;
            let side = if side_a { Side::A } else { Side::B };
            // Kind 0 is Bernoulli, 1 all ones, 2 Bernoulli with every
            // other band of home tiles forced full.
            let mask = |rows: usize, cols: usize, seed: u64, home_axis_rows: bool, span: usize| {
                let base = TensorGen::seeded(seed).bernoulli_mask(rows, cols, density);
                SparsityMask::from_fn(rows, cols, |r, c| {
                    let line = if home_axis_rows { r } else { c };
                    match kind {
                        0 => base.get(r, c),
                        1 => true,
                        _ => base.get(r, c) || (line / span + seed as usize).is_multiple_of(2),
                    }
                })
            };
            let a = mask(m, k, seed, true, core.m0);
            let b = mask(k, n, seed ^ 0x5eed, false, core.n0);
            let l = GemmLayer::new(GemmShape::new(m, k, n).unwrap(), a, b).unwrap();
            let win = [
                BorrowWindow::new(4, 0, 1),
                BorrowWindow::new(2, 1, 0),
                BorrowWindow::new(0, 0, 0),
                BorrowWindow::new(3, 2, 2),
            ][win];
            let priority = if earliest { Priority::EarliestFirst } else { Priority::OwnFirst };
            let cfg = SimConfig { priority, ..SimConfig::exact() };

            let got = simulate_single(&l, side, &[(win, shuffle)], &cfg, &mut SimScratch::new());
            let (home, other) = side.tiles(&l, core);
            let (mut grid, mut span) = (OpGrid::default(), Vec::new());
            let mut want = ScheduleAccum::default();
            for tile in 0..home {
                side.build_grid(&mut grid, &mut span, &l, core, tile, LaneMap::from_flag(shuffle));
                let full = grid.total_ops() == grid.t_steps() * side.slots(core);
                prop_assert_eq!(side.is_full(&l, core, tile), full, "tile {}", tile);
                want.add(schedule(&grid, side.window(win), priority), other as f64);
            }
            want.ops *= side.fan_out(core) as f64;
            prop_assert_eq!(got, vec![want]);
        }
    }

    #[test]
    fn dense_layer_on_sparse_b_takes_dense_cycles() {
        let l = layer(16, 128, 32, 1.0, 1.0, 1);
        let acc = run(&l, Side::B, BorrowWindow::new(4, 0, 1), true, &cfg());
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
            let acc = run(&l, Side::B, BorrowWindow::new(4, 0, 1), true, &cfg());
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
        let acc = run(&l, Side::A, BorrowWindow::new(2, 1, 0), true, &cfg());
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
        let off = run(&l, Side::B, BorrowWindow::new(6, 0, 0), false, &cfg());
        let on = run(&l, Side::B, BorrowWindow::new(6, 0, 0), true, &cfg());
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
        let exact = run(
            &l,
            Side::B,
            BorrowWindow::new(4, 0, 1),
            true,
            &SimConfig::exact(),
        );
        let sampled_cfg = SimConfig {
            fidelity: crate::config::Fidelity::Sampled { tiles: 6, seed: 7 },
            ..SimConfig::default()
        };
        let sampled = run(&l, Side::B, BorrowWindow::new(4, 0, 1), true, &sampled_cfg);
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
        let s2 = run(&l, Side::B, BorrowWindow::new(2, 0, 0), true, &cfg());
        let s4 = run(&l, Side::B, BorrowWindow::new(4, 0, 0), true, &cfg());
        let s8 = run(&l, Side::B, BorrowWindow::new(8, 0, 0), true, &cfg());
        assert!(s4.cycles <= s2.cycles);
        assert!(s8.cycles <= s4.cycles);
    }
}
