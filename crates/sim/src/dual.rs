//! Tile simulation for dual-sparse architectures (§IV-A, Figure 3).
//!
//! A `Sparse.AB(da1,da2,da3,db1,db2,db3)` core executes an operation
//! only when **both** operands are nonzero, through the seven-step
//! pipeline of Figure 3. Crucially, the two sides are *not* symmetric:
//!
//! 1. **Stage 1 — B preprocessing.** Matrix B is compacted offline with
//!    its own window `(db1, db2, db3)`; each stored nonzero carries
//!    metadata addressing one of `(1+db1)(1+db2)(1+db3)` source
//!    positions. B's relocation is fixed before A is known — this is
//!    why the paper's `Sparse.AB*` "downgrades to `Sparse.B(2,0,1)`"
//!    when A happens to be dense (Table III), and why Griffin's conf.B
//!    (which re-purposes the full nine-entry ABUF with 4-bit metadata)
//!    beats it on `DNN.B`.
//! 2. **Stage 2 — on-the-fly A skipping over the compressed stream.**
//!    The A zero-mask is filtered through B's metadata (steps 2–3);
//!    surviving pairs are arbitrated with the A window applied in
//!    *compressed time*: depth `1 + da1` compressed rows (the physical
//!    ABUF holds `L = (1+da1)(1+db1)` original rows to cover them),
//!    lane reach `da2`, PE-row reach `da3`.
//!
//! The layer latency sums over output-tile pairs; stage 1 is computed
//! once per output-tile column and reused across the sampled rows.
//!
//! # Dense-operand slicing
//!
//! Dense and single-sparse models run through this pipeline too
//! (Griffin's conf.AB on `DNN.dense`, `Sparse.AB*` and TensorDash on
//! `DNN.A` / `DNN.B`), and there one operand of a tile pair is often
//! completely dense. The stage-2 grid is then `n0` (or `m0`) identical
//! slices, and scheduling one slice gives the whole answer:
//!
//! * **Stage 2 never reaches across PE columns** (its window has
//!   `cols = 0`), so the only thing the `n0` column slices share is the
//!   horizon `H`. Identical slices consume identical rows in identical
//!   cycles, so they move `H` identically.
//! * **Dense B column → slice along N.** When every B element of the
//!   tile column is nonzero and `K` fills whole time steps, stage 1
//!   schedules a full grid, which never borrows: the compressed stream
//!   is the identity placement of `K / K0` rows, and no B grid is built.
//!   The filtered ops are exactly the A tile's op grid, repeated on
//!   every PE column, so one `(t, K0, M0, 1)` grid is scheduled.
//! * **Dense A row tile → slice along M**, only when the A window's
//!   PE-row reach is zero (every lineup design: `Sparse.AB*`, Griffin
//!   conf.AB, TensorDash). Every B placement survives the A filter on
//!   every PE row, so one `(t, K0, 1, N0)` grid is scheduled. A window
//!   with a row reach takes the general path.
//!
//! A slice's makespan and starved cycles are the full grid's; its
//! executed and borrowed counts are multiplied by the slice count (as
//! integers, before any scaling). Pairs where neither operand is dense
//! take the general filter path. The results are bit-identical either
//! way, which the differential tests below check against the general
//! path on every pair.

use griffin_tensor::block::{ATileView, TileCoord, TileView};

use crate::config::SimConfig;
use crate::engine::{schedule_assign_with, schedule_with, Assignment, Schedule};
use crate::grid::build_a_grid;
use crate::layer::GemmLayer;
use crate::sampling::sample_indices;
use crate::scratch::SimScratch;
use crate::shuffle::LaneMap;
use crate::single::{ScheduleAccum, Side};
use crate::window::{BorrowWindow, EffectiveWindow};

/// Stage-1 result for one output-tile column. Owned (not scratch-backed)
/// because it is cached across every row tile of the column; the copy is
/// amortized over all pairs.
enum CompressedColumn {
    /// Every B element of the column is nonzero: the stream is the
    /// identity placement of `t_steps = K / K0` rows, never materialized.
    Dense { t_steps: usize },
    /// The compacted stream: its length in compressed rows and the
    /// placement of every B nonzero.
    Compressed {
        t_steps: usize,
        assigns: Vec<Assignment>,
    },
}

/// Preprocesses one B tile column with the B window (stage 1). With
/// `slice` set, a dense column skips the scheduler (see the module doc).
fn preprocess_b(
    layer: &GemmLayer,
    cfg: &SimConfig,
    n_tile: usize,
    b_win: BorrowWindow,
    shuffle: bool,
    slice: bool,
    scratch: &mut SimScratch,
) -> CompressedColumn {
    let core = cfg.core;
    let k = layer.shape.k;
    let n_base = n_tile * core.n0;
    if slice && k.is_multiple_of(core.k0) && layer.b.all_set(0..k, n_base..n_base + core.n0) {
        return CompressedColumn::Dense {
            t_steps: k / core.k0,
        };
    }
    // Stage-1 grids are the single-sparse B path's grids, so inside a
    // reuse scope the two share one memo.
    let (grid, sched, assigns) = scratch.tile_grid(layer, Side::B, n_tile, shuffle, core);
    let s = schedule_assign_with(
        grid,
        EffectiveWindow::for_b(b_win),
        cfg.priority,
        sched,
        assigns,
    );
    CompressedColumn::Compressed {
        t_steps: s.cycles as usize,
        assigns: assigns.clone(),
    }
}

/// One slice's schedule stood in for `slices` identical slices: they
/// share the horizon, so makespan and starved cycles carry over and the
/// op counts multiply.
fn widen(s: Schedule, slices: usize) -> Schedule {
    Schedule {
        executed: s.executed * slices as u64,
        borrowed: s.borrowed * slices as u64,
        ..s
    }
}

/// Simulates a layer on a `Sparse.AB` architecture.
pub fn simulate_sparse_ab(
    layer: &GemmLayer,
    a_win: BorrowWindow,
    b_win: BorrowWindow,
    shuffle: bool,
    cfg: &SimConfig,
) -> ScheduleAccum {
    simulate_sparse_ab_with(layer, a_win, b_win, shuffle, cfg, &mut SimScratch::new())
}

/// [`simulate_sparse_ab`] with caller-provided scratch: per tile pair
/// the stage-2 replay reuses the scratch's op list and grid, so only
/// the per-column stage-1 cache allocates.
pub fn simulate_sparse_ab_with(
    layer: &GemmLayer,
    a_win: BorrowWindow,
    b_win: BorrowWindow,
    shuffle: bool,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> ScheduleAccum {
    simulate_pairs(layer, a_win, b_win, shuffle, cfg, scratch, true)
}

/// The tile-pair loop behind [`simulate_sparse_ab_with`]. `slice`
/// enables the dense-operand slices; only the differential tests clear
/// it, to run every pair through the general filter path.
fn simulate_pairs(
    layer: &GemmLayer,
    a_win: BorrowWindow,
    b_win: BorrowWindow,
    shuffle: bool,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
    slice: bool,
) -> ScheduleAccum {
    let core = cfg.core;
    let tiles = layer.shape.tiles(core);
    let lanes = LaneMap::from_flag(shuffle);
    let stage2_win = EffectiveWindow {
        depth: 1 + a_win.d1,
        lane: a_win.d2,
        rows: a_win.d3,
        cols: 0,
    };

    let pairs = tiles.mt * tiles.nt;
    let (picked, scale) = sample_indices(pairs, cfg.fidelity);

    // Stage 1 depends only on the column; cache it across row tiles.
    let mut compressed: Vec<Option<CompressedColumn>> = (0..tiles.nt).map(|_| None).collect();

    let mut acc = ScheduleAccum {
        sampled: scale > 1.0,
        ..Default::default()
    };
    for &pair in &picked {
        let m_tile = pair / tiles.nt;
        let n_tile = pair % tiles.nt;
        let m_base = m_tile * core.m0;
        let col = compressed[n_tile].get_or_insert_with(|| {
            preprocess_b(layer, cfg, n_tile, b_win, shuffle, slice, scratch)
        });
        let a_view = ATileView::new(&layer.a, core, m_base);
        let s = match col {
            CompressedColumn::Dense { t_steps } => {
                // N slice: the filtered ops on each PE column are the A
                // tile's op grid.
                build_a_grid(&mut scratch.grid2, &mut scratch.span, &a_view, lanes);
                debug_assert_eq!(scratch.grid2.t_steps(), *t_steps);
                let s = schedule_with(&scratch.grid2, stage2_win, cfg.priority, &mut scratch.sched);
                widen(s, core.n0)
            }
            // All-zero B column: nothing to execute.
            CompressedColumn::Compressed { t_steps: 0, .. } => continue,
            CompressedColumn::Compressed { t_steps, assigns }
                if slice
                    && stage2_win.rows == 0
                    && layer.a.all_set(m_base..m_base + core.m0, 0..layer.shape.k) =>
            {
                // M slice: every placement survives on every PE row.
                scratch.filtered.clear();
                scratch.filtered.extend(
                    assigns
                        .iter()
                        .map(|a| (a.cycle as usize, a.slot.0, 0, a.slot.2)),
                );
                scratch
                    .grid2
                    .rebuild_from_ops(*t_steps, core.k0, 1, core.n0, &scratch.filtered);
                let s = schedule_with(&scratch.grid2, stage2_win, cfg.priority, &mut scratch.sched);
                widen(s, core.m0)
            }
            CompressedColumn::Compressed { t_steps, assigns } => {
                // Stage 2 ops: for every compressed B placement, the pair
                // is effectual on PE row m iff the A element at the
                // *original* coordinates is nonzero (steps 2-3: mask
                // filtering).
                scratch.filtered.clear();
                for a in assigns.iter() {
                    let t = a.t as usize;
                    let src_lane = lanes.source_lane(a.src.0, t);
                    for m in 0..core.m0 {
                        if a_view.is_nonzero(TileCoord {
                            t,
                            lane: src_lane,
                            s: m,
                        }) {
                            scratch
                                .filtered
                                .push((a.cycle as usize, a.slot.0, m, a.slot.2));
                        }
                    }
                }
                scratch.grid2.rebuild_from_ops(
                    *t_steps,
                    core.k0,
                    core.m0,
                    core.n0,
                    &scratch.filtered,
                );
                schedule_with(&scratch.grid2, stage2_win, cfg.priority, &mut scratch.sched)
            }
        };
        acc.add(s, scale);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Fidelity, Priority};
    use crate::single::simulate_single;
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

    /// A single-sparse `side` design with shuffling, for comparison.
    fn single(l: &GemmLayer, side: Side, win: BorrowWindow) -> ScheduleAccum {
        simulate_single(l, side, &[(win, true)], &cfg(), &mut SimScratch::new())[0]
    }

    /// The paper's optimal dual-sparse routing, Sparse.AB*(2,0,0,2,0,1).
    fn star() -> (BorrowWindow, BorrowWindow) {
        (BorrowWindow::new(2, 0, 0), BorrowWindow::new(2, 0, 1))
    }

    /// One operand mask: `kind` 0 is Bernoulli, 1 all ones, 2 Bernoulli
    /// with every other band of `tile.1` rows (`tile.0`) or columns
    /// forced full, so dense and sparse tiles share a layer.
    fn operand(
        rows: usize,
        cols: usize,
        kind: usize,
        density: f64,
        seed: u64,
        tile: (bool, usize),
    ) -> SparsityMask {
        let base = TensorGen::seeded(seed).bernoulli_mask(rows, cols, density);
        SparsityMask::from_fn(rows, cols, |r, c| {
            let line = if tile.0 { r } else { c };
            match kind {
                0 => base.get(r, c),
                1 => true,
                _ => base.get(r, c) || (line / tile.1 + seed as usize).is_multiple_of(2),
            }
        })
    }

    /// `(A, B)` windows: the paper's Sparse.AB*, TensorDash, and two with
    /// a PE-row reach, which keeps dense A rows on the general path.
    const WINDOWS: [(BorrowWindow, BorrowWindow); 4] = [
        (BorrowWindow::new(2, 0, 0), BorrowWindow::new(2, 0, 1)),
        (BorrowWindow::new(1, 2, 0), BorrowWindow::new(1, 2, 0)),
        (BorrowWindow::new(2, 0, 1), BorrowWindow::new(2, 0, 1)),
        (BorrowWindow::new(1, 1, 2), BorrowWindow::new(3, 1, 1)),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The dense-operand slices are bit-identical to the general
        /// filter path on every pair: dense A, dense B, both and neither,
        /// ragged K (the dense-B check must refuse), partial M and N edge
        /// tiles, shuffle on and off, every window above, both
        /// priorities, Exact and Sampled fidelity. One scratch serves
        /// both paths, with and without a reuse scope.
        #[test]
        fn slices_match_the_general_path(
            dims in (1usize..14, 1usize..6, 0usize..2, 1usize..40),
            kinds in (0usize..3, 0usize..3),
            dens in (0.1f64..0.9, 0.1f64..0.9),
            seed in 0u64..10_000,
            win in 0usize..WINDOWS.len(),
            flags in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
            sampled in 0usize..4,
        ) {
            let core = CoreDims::PAPER;
            let (m, t, ragged, n) = dims;
            // Ragged K adds 1-15 columns past a whole number of steps.
            let k = t * core.k0 + ragged * (1 + seed as usize % (core.k0 - 1));
            let a = operand(m, k, kinds.0, dens.0, seed, (true, core.m0));
            let b = operand(k, n, kinds.1, dens.1, seed ^ 0x5eed, (false, core.n0));
            let layer = GemmLayer::new(GemmShape::new(m, k, n).unwrap(), a, b).unwrap();
            let (shuffle, earliest, scoped) = flags;
            let cfg = SimConfig {
                priority: if earliest { Priority::EarliestFirst } else { Priority::OwnFirst },
                fidelity: match sampled {
                    0 => Fidelity::Sampled { tiles: 1 + seed as usize % 5, seed },
                    _ => Fidelity::Exact,
                },
                ..SimConfig::exact()
            };
            let (aw, bw) = WINDOWS[win];
            let mut scratch = SimScratch::new();
            if scoped {
                scratch.begin_reuse_scope(u128::from(seed));
            }
            let sliced = simulate_sparse_ab_with(&layer, aw, bw, shuffle, &cfg, &mut scratch);
            let general = simulate_pairs(&layer, aw, bw, shuffle, &cfg, &mut scratch, false);
            prop_assert_eq!(sliced, general);
        }
    }

    #[test]
    fn dense_layer_takes_dense_cycles() {
        let l = layer(8, 128, 32, 1.0, 1.0, 1);
        let (a, b) = star();
        let acc = simulate_sparse_ab(&l, a, b, true, &cfg());
        assert_eq!(acc.cycles, l.shape.dense_cycles(CoreDims::PAPER) as f64);
    }

    #[test]
    fn dense_a_lands_between_downgrade_and_conf_b() {
        // Table III / §VI-D: with dense activations, Sparse.AB*'s static
        // B window is stuck at (2,0,1); its runtime stage can recompact
        // within the 3-deep BBUF, so it beats the plain downgrade but
        // cannot reach Griffin's conf.B(8,0,1), whose *static* window
        // covers all nine ABUF entries.
        let l = layer(16, 512, 32, 1.0, 0.2, 2);
        let (a, b) = star();
        let dual = simulate_sparse_ab(&l, a, b, true, &cfg());
        let downgrade = single(&l, Side::B, BorrowWindow::new(2, 0, 1));
        let conf_b = single(&l, Side::B, BorrowWindow::new(8, 0, 1));
        assert!(
            dual.cycles <= downgrade.cycles,
            "dual {} should not lose to its downgrade {}",
            dual.cycles,
            downgrade.cycles
        );
        assert!(
            dual.cycles > conf_b.cycles,
            "dual {} should trail conf.B {} (the morphing gain)",
            dual.cycles,
            conf_b.cycles
        );
    }

    #[test]
    fn dual_sparsity_multiplies_gains() {
        // 50% activations x 20% weights -> 10% effectual ops. Averaged
        // over several mask seeds so the assertion tracks the expected
        // speedup rather than one realization of one RNG stream.
        let mut sum = 0.0;
        for seed in 1..=4 {
            let l = layer(16, 512, 32, 0.5, 0.2, seed);
            let dense = l.shape.dense_cycles(CoreDims::PAPER) as f64;
            let (a, b) = star();
            let acc = simulate_sparse_ab(&l, a, b, true, &cfg());
            let speedup = dense / acc.cycles;
            assert!(speedup <= 10.5, "speedup {speedup} beyond ideal");
            sum += speedup;
        }
        let mean = sum / 4.0;
        assert!(mean > 2.3, "mean speedup {mean}");
    }

    #[test]
    fn dual_beats_either_single_side_on_dual_sparse_input() {
        let l = layer(16, 384, 32, 0.5, 0.2, 3);
        let (a, b) = star();
        let ab = simulate_sparse_ab(&l, a, b, true, &cfg());
        let only_b = single(&l, Side::B, BorrowWindow::new(4, 0, 1));
        let only_a = single(&l, Side::A, BorrowWindow::new(2, 1, 0));
        assert!(ab.cycles < only_b.cycles);
        assert!(ab.cycles < only_a.cycles);
    }

    #[test]
    fn effectual_ops_match_intersection_count() {
        let l = layer(8, 64, 16, 0.5, 0.5, 4);
        let (a, b) = star();
        let acc = simulate_sparse_ab(&l, a, b, false, &cfg());
        let mut expected = 0u64;
        for m in 0..l.shape.m {
            for k in 0..l.shape.k {
                if !l.a.get(m, k) {
                    continue;
                }
                for n in 0..l.shape.n {
                    if l.b.get(k, n) {
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(acc.ops as u64, expected);
    }

    #[test]
    fn sampling_approximates_exact_dual() {
        let l = layer(64, 256, 64, 0.5, 0.25, 5);
        let (a, b) = star();
        let exact = simulate_sparse_ab(&l, a, b, true, &SimConfig::exact());
        let sampled_cfg = SimConfig {
            fidelity: crate::config::Fidelity::Sampled { tiles: 16, seed: 3 },
            ..SimConfig::default()
        };
        let sampled = simulate_sparse_ab(&l, a, b, true, &sampled_cfg);
        let rel = (sampled.cycles - exact.cycles).abs() / exact.cycles;
        assert!(
            rel < 0.15,
            "sampled {} vs exact {} (rel {rel})",
            sampled.cycles,
            exact.cycles
        );
    }

    #[test]
    fn wider_b_window_helps_dual() {
        let l = layer(16, 512, 32, 0.5, 0.2, 6);
        let narrow = simulate_sparse_ab(
            &l,
            BorrowWindow::new(1, 0, 0),
            BorrowWindow::new(1, 0, 0),
            true,
            &cfg(),
        );
        let wide = simulate_sparse_ab(
            &l,
            BorrowWindow::new(2, 0, 0),
            BorrowWindow::new(4, 0, 2),
            true,
            &cfg(),
        );
        assert!(wide.cycles < narrow.cycles);
    }

    #[test]
    fn deeper_a_window_helps_on_sparse_a() {
        let l = layer(16, 512, 32, 0.4, 0.2, 7);
        let shallow = simulate_sparse_ab(
            &l,
            BorrowWindow::new(0, 0, 0),
            BorrowWindow::new(2, 0, 1),
            true,
            &cfg(),
        );
        let deep = simulate_sparse_ab(
            &l,
            BorrowWindow::new(3, 0, 0),
            BorrowWindow::new(2, 0, 1),
            true,
            &cfg(),
        );
        assert!(deep.cycles < shallow.cycles);
    }
}
