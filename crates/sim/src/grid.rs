//! Word-level op-grid construction from sparsity masks.
//!
//! The naive way to build an [`OpGrid`] is a predicate over the full
//! 4-D `(t, lane, row, col)` loop — one virtual call plus one bit test
//! per *dense* coordinate, i.e. `t_steps × K0 × spatial` work per tile
//! regardless of sparsity. These builders instead walk the packed
//! [`SparsityMask`] words directly ([`SparsityMask::for_each_set_in_row`])
//! so a tile costs one word load per 64 dense positions plus one
//! counting-sort scatter per *nonzero*, and they rebuild into an
//! existing grid's CSR arrays so the per-tile loop allocates nothing.
//!
//! Both builders produce exactly the grid the equivalent
//! `OpGrid::from_fn` predicate over `TileView::is_nonzero` produces
//! (asserted by differential tests): mask traversal is `k`-ascending,
//! so every CSR column receives its op times already sorted, and tile
//! edges keep their zero-padding semantics because the word iterator
//! clips to the mask.
//!
//! [`SparsityMask`]: griffin_tensor::mask::SparsityMask
//! [`SparsityMask::for_each_set_in_row`]: griffin_tensor::mask::SparsityMask::for_each_set_in_row

use griffin_tensor::block::{ATileView, BTileView, TileView};

use crate::engine::OpGrid;
use crate::shuffle::LaneMap;

/// Rebuilds `grid` as the op grid of one B-side tile column: ops are the
/// nonzeros of B over `(t, lane, 1, n_local)`, read through the shuffle
/// lane map.
///
/// `span` is a reusable word cache (one `u64` per reduction row holding
/// the tile's `N0`-wide bit span) so the mask is only extracted once for
/// the two CSR passes; pass the scratch's buffer and it never
/// reallocates at steady state.
pub fn build_b_grid(grid: &mut OpGrid, span: &mut Vec<u64>, view: &BTileView<'_>, lanes: LaneMap) {
    let core = view.core();
    let mask = view.mask();
    let n0 = core.n0;
    let n_base = view.n_base();
    grid.reset_dims(view.t_steps(), core.k0, 1, n0);

    // Iterate `(t, src_lane)` explicitly — `k = t·K0 + src_lane` —
    // instead of dividing every mask row index by the (runtime) K0.
    let t_steps = view.t_steps();
    let rows_k = mask.rows();
    if n0 <= 64 {
        // Fast path: the whole spatial span of one reduction row fits in
        // a word; extract it once, count and scatter by trailing zeros.
        span.clear();
        for t in 0..t_steps {
            for src in 0..core.k0 {
                let k = t * core.k0 + src;
                let bits = if k < rows_k {
                    mask.span_bits(k, n_base, n0)
                } else {
                    0
                };
                span.push(bits);
                grid.t_counts[t] += bits.count_ones();
                let base = lanes.dest_lane(src, t) * n0;
                let mut w = bits;
                while w != 0 {
                    grid.col_off[base + w.trailing_zeros() as usize] += 1;
                    w &= w - 1;
                }
            }
        }
        grid.finish_counts();
        // Pass 2: scatter from the cached spans. `t` ascends, so each
        // column's times stay sorted.
        let mut i = 0;
        for t in 0..t_steps {
            for src in 0..core.k0 {
                let base = lanes.dest_lane(src, t) * n0;
                let mut w = span[i];
                i += 1;
                while w != 0 {
                    grid.push_counted(base + w.trailing_zeros() as usize, t as u32);
                    w &= w - 1;
                }
            }
        }
    } else {
        for t in 0..t_steps {
            for src in 0..core.k0 {
                let lane = lanes.dest_lane(src, t);
                mask.for_each_set_in_row(t * core.k0 + src, n_base, n_base + n0, |n| {
                    grid.col_off[lane * n0 + (n - n_base)] += 1;
                    grid.t_counts[t] += 1;
                });
            }
        }
        grid.finish_counts();
        for t in 0..t_steps {
            for src in 0..core.k0 {
                let lane = lanes.dest_lane(src, t);
                mask.for_each_set_in_row(t * core.k0 + src, n_base, n_base + n0, |n| {
                    grid.push_counted(lane * n0 + (n - n_base), t as u32);
                });
            }
        }
    }
    grid.finish_fill();
}

/// Rebuilds `grid` as the op grid of one A-side tile row: ops are the
/// nonzeros of A over `(t, lane, m_local, 1)`.
///
/// `span` is the same reusable word cache as in [`build_b_grid`]: pass 1
/// records each `(row, t)` span word so pass 2 scatters from the cache
/// instead of re-extracting every span from the mask.
pub fn build_a_grid(grid: &mut OpGrid, span: &mut Vec<u64>, view: &ATileView<'_>, lanes: LaneMap) {
    let core = view.core();
    let mask = view.mask();
    let m0 = core.m0;
    let m_base = view.m_base();
    grid.reset_dims(view.t_steps(), core.k0, m0, 1);

    // A mask row is one PE row's full reduction axis: bit `k` is time
    // step `k / K0`, lane `k % K0` (through the shuffle map). Walk it as
    // K0-wide spans per time step so no index ever needs dividing.
    let t_steps = view.t_steps();
    if core.k0 <= 64 {
        span.clear();
        for r in 0..m0 {
            for t in 0..t_steps {
                let w = mask.span_bits(m_base + r, t * core.k0, core.k0);
                span.push(w);
                grid.t_counts[t] += w.count_ones();
                let mut w = w;
                while w != 0 {
                    let lane = lanes.dest_lane(w.trailing_zeros() as usize, t);
                    grid.col_off[lane * m0 + r] += 1;
                    w &= w - 1;
                }
            }
        }
        grid.finish_counts();
        // Pass 2: scatter from the cached spans; `t` ascends within each
        // mask row, so each column (which draws from exactly one mask
        // row) stays sorted.
        let mut i = 0;
        for r in 0..m0 {
            for t in 0..t_steps {
                let mut w = span[i];
                i += 1;
                while w != 0 {
                    let lane = lanes.dest_lane(w.trailing_zeros() as usize, t);
                    grid.push_counted(lane * m0 + r, t as u32);
                    w &= w - 1;
                }
            }
        }
    } else {
        for r in 0..m0 {
            mask.for_each_set_in_row(m_base + r, 0, mask.cols(), |k| {
                let t = k / core.k0;
                let lane = lanes.dest_lane(k % core.k0, t);
                grid.col_off[lane * m0 + r] += 1;
                grid.t_counts[t] += 1;
            });
        }
        grid.finish_counts();
        for r in 0..m0 {
            mask.for_each_set_in_row(m_base + r, 0, mask.cols(), |k| {
                let t = k / core.k0;
                let lane = lanes.dest_lane(k % core.k0, t);
                grid.push_counted(lane * m0 + r, t as u32);
            });
        }
    }
    grid.finish_fill();
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_tensor::block::TileCoord;
    use griffin_tensor::gen::TensorGen;
    use griffin_tensor::mask::SparsityMask;
    use griffin_tensor::shape::CoreDims;

    fn from_fn_b(view: &BTileView<'_>, lanes: LaneMap, n0: usize, k0: usize) -> OpGrid {
        OpGrid::from_fn(view.t_steps(), k0, 1, n0, |t, lane, _, col| {
            view.is_nonzero(TileCoord {
                t,
                lane: lanes.source_lane(lane, t),
                s: col,
            })
        })
    }

    fn from_fn_a(view: &ATileView<'_>, lanes: LaneMap, m0: usize, k0: usize) -> OpGrid {
        OpGrid::from_fn(view.t_steps(), k0, m0, 1, |t, lane, row, _| {
            view.is_nonzero(TileCoord {
                t,
                lane: lanes.source_lane(lane, t),
                s: row,
            })
        })
    }

    #[test]
    fn b_builder_matches_predicate_build() {
        let core = CoreDims::PAPER;
        // Ragged K (not a multiple of K0) and ragged N tail tile.
        let mask = TensorGen::seeded(7).bernoulli_mask(3 * core.k0 + 5, 2 * core.n0 - 3, 0.3);
        let mut grid = OpGrid::default();
        let mut span = Vec::new();
        for shuffle in [false, true] {
            let lanes = LaneMap::from_flag(shuffle);
            for n_tile in 0..2 {
                let view = BTileView::new(&mask, core, n_tile * core.n0);
                build_b_grid(&mut grid, &mut span, &view, lanes);
                let want = from_fn_b(&view, lanes, core.n0, core.k0);
                assert_eq!(grid, want, "shuffle={shuffle} n_tile={n_tile}");
            }
        }
    }

    #[test]
    fn a_builder_matches_predicate_build() {
        let core = CoreDims::PAPER;
        // Ragged M (partial last tile row) and ragged K.
        let mask = TensorGen::seeded(9).bernoulli_mask(2 * core.m0 - 1, 2 * core.k0 + 9, 0.4);
        let mut grid = OpGrid::default();
        let mut span = Vec::new();
        for shuffle in [false, true] {
            let lanes = LaneMap::from_flag(shuffle);
            for m_tile in 0..2 {
                let view = ATileView::new(&mask, core, m_tile * core.m0);
                build_a_grid(&mut grid, &mut span, &view, lanes);
                let want = from_fn_a(&view, lanes, core.m0, core.k0);
                assert_eq!(grid, want, "shuffle={shuffle} m_tile={m_tile}");
            }
        }
    }

    #[test]
    fn builders_reuse_one_grid_across_tile_kinds() {
        let core = CoreDims::PAPER;
        let b_mask = SparsityMask::from_fn(2 * core.k0, core.n0, |r, c| (r + c) % 3 == 0);
        let a_mask = SparsityMask::from_fn(core.m0, 2 * core.k0, |r, c| (r * 5 + c) % 4 == 0);
        let mut grid = OpGrid::default();
        let mut span = Vec::new();
        let b_view = BTileView::new(&b_mask, core, 0);
        build_b_grid(&mut grid, &mut span, &b_view, LaneMap::Rotate);
        assert_eq!(grid.total_ops(), b_mask.nnz());
        let a_view = ATileView::new(&a_mask, core, 0);
        build_a_grid(&mut grid, &mut span, &a_view, LaneMap::Rotate);
        assert_eq!(grid.total_ops(), a_mask.nnz());
        assert_eq!(grid, from_fn_a(&a_view, LaneMap::Rotate, core.m0, core.k0));
    }
}
