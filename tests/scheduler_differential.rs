//! Differential property tests: the frontier scheduler core must be
//! observably indistinguishable from the retained naive reference
//! (`griffin::sim::engine::reference`) — identical [`Schedule`] counters
//! and identical [`Assignment`] streams — across random grids, windows
//! and priorities. The word-level grid builders must likewise reproduce
//! the predicate-built grids bit for bit.
//!
//! [`Schedule`]: griffin::sim::engine::Schedule
//! [`Assignment`]: griffin::sim::engine::Assignment

use griffin::sim::config::Priority;
use griffin::sim::engine::{reference, schedule_assign_with, schedule_with, OpGrid, SchedScratch};
use griffin::sim::grid::{build_a_grid, build_b_grid};
use griffin::sim::shuffle::LaneMap;
use griffin::sim::window::EffectiveWindow;
use griffin::tensor::block::{ATileView, BTileView, TileCoord, TileView};
use griffin::tensor::gen::TensorGen;
use griffin::tensor::shape::CoreDims;
use proptest::prelude::*;

/// A random op grid driven by a seed and density.
fn grid(t: usize, lanes: usize, rows: usize, cols: usize, density: f64, seed: u64) -> OpGrid {
    let mask = TensorGen::seeded(seed).bernoulli_mask(t * lanes, rows * cols, density);
    OpGrid::from_fn(t, lanes, rows, cols, |tt, l, r, c| {
        mask.get(tt * lanes + l, r * cols + c)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Frontier scheduler == naive reference, for both the counters
    /// and the full assignment stream, over random grids and windows.
    /// The extents are drawn too, so unit axes under non-zero reach,
    /// reaches at or beyond an axis's extent and one-tap windows on
    /// 3-D grids all meet the reference.
    #[test]
    fn event_core_is_bit_identical_to_reference(
        seed in 0u64..2000,
        density in 0.02f64..1.0,
        depth in 1usize..7,
        lane in 0usize..3,
        rows_reach in 0usize..2,
        cols_reach in 0usize..3,
        own_first in proptest::bool::ANY,
        extents in (1usize..=6, 1usize..=3, 1usize..=4),
    ) {
        let (lanes, rows, cols) = extents;
        let g = grid(20, lanes, rows, cols, density, seed);
        let win = EffectiveWindow { depth, lane, rows: rows_reach, cols: cols_reach };
        let p = if own_first { Priority::OwnFirst } else { Priority::EarliestFirst };

        let (s_ref, a_ref) = reference::schedule_assign(&g, win, p);
        let mut scratch = SchedScratch::new();
        let mut out = Vec::new();
        let s_new = schedule_assign_with(&g, win, p, &mut scratch, &mut out);

        prop_assert_eq!(s_new, s_ref, "Schedule diverged (win {:?}, {:?})", win, p);
        prop_assert_eq!(&out, &a_ref, "Assignment stream diverged (win {:?}, {:?})", win, p);
        // The no-collect path must agree with the collecting one.
        prop_assert_eq!(schedule_with(&g, win, p, &mut scratch), s_ref);
    }

    /// Contended windows: dense grids under deep, wide-reach windows,
    /// where many borrow taps compete for the same donor columns every
    /// cycle, so the `(t, dsum, tap order)` tie-breaks decide most
    /// arbitrations. It gets its own pin against the reference — the
    /// general test above rarely samples this corner of the
    /// (density, window) space.
    #[test]
    fn contended_windows_stay_bit_identical(
        seed in 0u64..1500,
        density in 0.6f64..1.0,
        depth in 4usize..10,
        lane in 1usize..4,
        cols_reach in 1usize..4,
        own_first in proptest::bool::ANY,
    ) {
        let g = grid(32, 8, 2, 4, density, seed);
        let win = EffectiveWindow { depth, lane, rows: 1, cols: cols_reach };
        let p = if own_first { Priority::OwnFirst } else { Priority::EarliestFirst };

        let (s_ref, a_ref) = reference::schedule_assign(&g, win, p);
        let mut scratch = SchedScratch::new();
        let mut out = Vec::new();
        let s_new = schedule_assign_with(&g, win, p, &mut scratch, &mut out);

        prop_assert_eq!(s_new, s_ref, "contended Schedule diverged (win {:?}, {:?})", win, p);
        prop_assert_eq!(&out, &a_ref, "contended Assignment stream diverged (win {:?}, {:?})", win, p);
    }

    /// Multi-word frontiers: slot counts of four or more 64-bit words,
    /// not all multiples of 64, with lane strides (`rows · cols`) of 64
    /// and more, so a tap's ready-bitset shift spans whole words and
    /// crosses word and line edges. The paper's B tile (16×1×16) and
    /// dual stage-2 grid (16×4×16) are among the shapes, and every axis
    /// has reach.
    #[test]
    fn multi_word_frontiers_stay_bit_identical(
        seed in 0u64..1000,
        density in 0.02f64..1.0,
        depth in 1usize..6,
        lane in 1usize..4,
        rows_reach in 1usize..4,
        cols_reach in 1usize..4,
        own_first in proptest::bool::ANY,
        shape in 0usize..5,
    ) {
        // (lanes, rows, cols): 256, 1024, 345, 288 and 300 slots.
        let (lanes, rows, cols) =
            [(16, 1, 16), (16, 4, 16), (5, 3, 23), (4, 9, 8), (3, 1, 100)][shape];
        let g = grid(12, lanes, rows, cols, density, seed);
        let win = EffectiveWindow { depth, lane, rows: rows_reach, cols: cols_reach };
        let p = if own_first { Priority::OwnFirst } else { Priority::EarliestFirst };

        let (s_ref, a_ref) = reference::schedule_assign(&g, win, p);
        let mut scratch = SchedScratch::new();
        let mut out = Vec::new();
        let s_new = schedule_assign_with(&g, win, p, &mut scratch, &mut out);

        let ctx = ((lanes, rows, cols), win, p);
        prop_assert_eq!(s_new, s_ref, "Schedule diverged {:?}", ctx);
        prop_assert_eq!(&out, &a_ref, "Assignment stream diverged {:?}", ctx);
    }

    /// Scratch reuse across grids of different shapes and windows never
    /// leaks state: results equal fresh-scratch runs, in any order.
    #[test]
    fn scratch_reuse_is_stateless(
        seed in 0u64..500,
        density in 0.05f64..0.9,
        depth_a in 1usize..5,
        depth_b in 1usize..9,
    ) {
        let g1 = grid(16, 4, 1, 4, density, seed);
        let g2 = grid(9, 2, 3, 2, 1.0 - density * 0.5, seed ^ 0xABCD);
        let w1 = EffectiveWindow { depth: depth_a, lane: 1, rows: 0, cols: 1 };
        let w2 = EffectiveWindow { depth: depth_b, lane: 0, rows: 1, cols: 0 };

        let mut scratch = SchedScratch::new();
        for _ in 0..2 {
            for (g, w) in [(&g1, w1), (&g2, w2), (&g1, w2), (&g2, w1)] {
                let fresh = reference::schedule(g, w, Priority::OwnFirst);
                prop_assert_eq!(
                    schedule_with(g, w, Priority::OwnFirst, &mut scratch),
                    fresh
                );
            }
        }
    }

    /// Word-level B/A builders produce exactly the grid the predicate
    /// build produces, including ragged tile edges and lane shuffling.
    #[test]
    fn word_level_builders_match_predicate_builds(
        seed in 0u64..1000,
        density in 0.02f64..1.0,
        extra_k in 0usize..20,
        n_cols in 20usize..40,
        shuffle in proptest::bool::ANY,
    ) {
        let core = CoreDims::PAPER;
        let lanes = LaneMap::from_flag(shuffle);
        let mut gen = TensorGen::seeded(seed);
        let mut g = OpGrid::default();
        let mut span = Vec::new();

        let b_mask = gen.bernoulli_mask(2 * core.k0 + extra_k, n_cols, density);
        for n_tile in 0..n_cols.div_ceil(core.n0) {
            let view = BTileView::new(&b_mask, core, n_tile * core.n0);
            build_b_grid(&mut g, &mut span, &view, lanes);
            let want = OpGrid::from_fn(view.t_steps(), core.k0, 1, core.n0, |t, l, _, c| {
                view.is_nonzero(TileCoord { t, lane: lanes.source_lane(l, t), s: c })
            });
            prop_assert_eq!(&g, &want, "B tile {} diverged", n_tile);
        }

        let a_mask = gen.bernoulli_mask(core.m0 * 2 - 1, 2 * core.k0 + extra_k, density);
        for m_tile in 0..2 {
            let view = ATileView::new(&a_mask, core, m_tile * core.m0);
            build_a_grid(&mut g, &mut span, &view, lanes);
            let want = OpGrid::from_fn(view.t_steps(), core.k0, core.m0, 1, |t, l, r, _| {
                view.is_nonzero(TileCoord { t, lane: lanes.source_lane(l, t), s: r })
            });
            prop_assert_eq!(&g, &want, "A tile {} diverged", m_tile);
        }
    }

    /// Structured (N:M) grids keep every slot's run-ahead lag small — a
    /// regime random Bernoulli grids rarely reach. The frontier core must
    /// match the reference there too, under one shared reach at several
    /// depths on one reused scratch.
    #[test]
    fn structured_grids_match_reference(
        seed in 0u64..500,
        m in 4usize..9,
        n in 1usize..4,
        own_first in proptest::bool::ANY,
        depths in proptest::collection::vec(1usize..10, 2..8),
        lane in 0usize..3,
        cols_reach in 0usize..3,
    ) {
        // N-of-M periodic columns, phase-shifted per slot.
        let g = OpGrid::from_fn(24, 6, 2, 4, |t, l, r, c| {
            (t + l * 7 + r * 5 + c * 13 + seed as usize) % m < n
        });
        let p = if own_first { Priority::OwnFirst } else { Priority::EarliestFirst };
        let mut scratch = SchedScratch::new();
        for &depth in &depths {
            let win = EffectiveWindow { depth, lane, rows: 0, cols: cols_reach };
            prop_assert_eq!(
                schedule_with(&g, win, p, &mut scratch),
                reference::schedule(&g, win, p),
                "win {:?}",
                win
            );
        }
    }

    /// End-to-end: layer simulation through reusable scratch equals the
    /// allocating convenience path (the zero-alloc plumbing changes no
    /// numbers). Every SparTen variant runs through the one scratch, on
    /// a single-chunk shape and on a multi-chunk shape whose K ends in a
    /// partial word, so neither a previous call's transposed B nor its
    /// A row can leak into the next. A dense-B layer then runs the dual
    /// pipeline first: its dense columns skip stage 1 and leave the
    /// scratch grid holding an earlier layer's tile, so the `Sparse.B`
    /// run after it on the same scratch must build those grids itself.
    #[test]
    fn scratch_threading_preserves_layer_results(
        seed in 0u64..200,
        da in 0.2f64..1.0,
        db in 0.1f64..0.9,
    ) {
        use griffin::sim::config::{SimConfig, SparsityMode};
        use griffin::sim::layer::GemmLayer;
        use griffin::sim::pipeline::{simulate_layer, simulate_layer_with};
        use griffin::sim::window::BorrowWindow;
        use griffin::sim::SimScratch;
        use griffin::tensor::shape::GemmShape;

        let cfg = SimConfig::exact();
        let mut scratch = SimScratch::new();
        for k in [96usize, 300] {
            let layer = GemmLayer::with_densities(
                GemmShape::new(24, k, 40).unwrap(), da, db, seed,
            ).unwrap();
            for mode in [
                SparsityMode::SparseB { win: BorrowWindow::new(4, 0, 1), shuffle: true },
                SparsityMode::SparseA { win: BorrowWindow::new(2, 1, 0), shuffle: false },
                SparsityMode::SparseAB {
                    a: BorrowWindow::new(2, 0, 0),
                    b: BorrowWindow::new(2, 0, 1),
                    shuffle: true,
                },
                SparsityMode::SparTen { a_sparse: true, b_sparse: true },
                SparsityMode::SparTen { a_sparse: true, b_sparse: false },
                SparsityMode::SparTen { a_sparse: false, b_sparse: true },
            ] {
                let fresh = simulate_layer(&layer, mode, &cfg);
                let reused = simulate_layer_with(&layer, mode, &cfg, &mut scratch);
                prop_assert_eq!(reused, fresh, "k {} mode {:?}", k, mode);
            }
        }
        // N = 40: two dense B tile columns and a partial edge column.
        let dense_b = GemmLayer::with_densities(
            GemmShape::new(24, 96, 40).unwrap(), da, 1.0, seed,
        ).unwrap();
        for mode in [
            SparsityMode::SparseAB {
                a: BorrowWindow::new(2, 0, 0),
                b: BorrowWindow::new(2, 0, 1),
                shuffle: true,
            },
            SparsityMode::SparseB { win: BorrowWindow::new(4, 0, 1), shuffle: true },
        ] {
            let fresh = simulate_layer(&dense_b, mode, &cfg);
            let reused = simulate_layer_with(&dense_b, mode, &cfg, &mut scratch);
            prop_assert_eq!(reused, fresh, "dense B mode {:?}", mode);
        }
    }
}
