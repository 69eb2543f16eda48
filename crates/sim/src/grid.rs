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
//! The A and B builders produce exactly the grid the equivalent
//! `OpGrid::from_fn` predicate over `TileView::is_nonzero` produces
//! (asserted by differential tests): mask traversal is `k`-ascending,
//! so every CSR column receives its op times already sorted, and tile
//! edges keep their zero-padding semantics because the word iterator
//! clips to the mask.
//!
//! The dual pipeline's stage-2 grid comes from `build_pair_grid`, which
//! scatters stage-1 placements through an A row-bit table instead of
//! walking a mask; a differential test in `dual` pins it to the
//! per-element filter followed by `OpGrid::rebuild_from_ops`.
//!
//! [`SparsityMask`]: griffin_tensor::mask::SparsityMask
//! [`SparsityMask::for_each_set_in_row`]: griffin_tensor::mask::SparsityMask::for_each_set_in_row

use griffin_tensor::block::{ATileView, BTileView, TileView};
use griffin_tensor::mask::SparsityMask;

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
                let mut w = mask.span_bits(m_base + r, t * core.k0, core.k0);
                span.push(w);
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

/// One B nonzero's place in a dual tile column's compressed stream
/// (stage 1): the compressed cycle it executes in, its original
/// reduction index `k` (the shuffle lane map already undone), and the
/// stage-1 slot `(lane, col)` that executes it. Twelve bytes, where the
/// scheduler's [`Assignment`](crate::engine::Assignment) is 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placement {
    pub cycle: u32,
    pub k: u32,
    pub lane: u16,
    pub col: u16,
}

const _: () = assert!(std::mem::size_of::<Placement>() == 12);

/// Fills `table` with the A row-bit table of the tile row at `m_base`:
/// `m0.div_ceil(64)` words per reduction index `k`, bit `m` set iff
/// `A[m_base + m, k]` is nonzero (rows past the mask read as zero).
pub(crate) fn a_row_bits(table: &mut Vec<u64>, mask: &SparsityMask, m_base: usize, m0: usize) {
    let words = m0.div_ceil(64);
    table.clear();
    table.resize(mask.cols() * words, 0);
    for m in 0..m0 {
        mask.for_each_set_in_row(m_base + m, 0, mask.cols(), |k| {
            table[k * words + m / 64] |= 1 << (m % 64);
        });
    }
}

/// Rebuilds `grid` as the stage-2 op grid of one dual tile pair, a
/// `(t_steps, k0, rows, n0)` grid: each placement becomes one op at its
/// compressed cycle on slot `(lane, m, col)` for every PE row `m` whose
/// A element at the placement's `k` is nonzero (§IV-A steps 2-3).
///
/// `a_rows` is the tile row's [`a_row_bits`] table. `None` stands for a
/// dense A row tile sliced to one PE row (`rows = 1`): every placement
/// survives once.
///
/// The scheduler emits its stream cycle by cycle, so placements arrive
/// in cycle order and the counting scatter leaves every column sorted.
pub(crate) fn build_pair_grid(
    grid: &mut OpGrid,
    t_steps: usize,
    k0: usize,
    rows: usize,
    n0: usize,
    placements: &[Placement],
    a_rows: Option<&[u64]>,
) {
    grid.reset_dims(t_steps, k0, rows, n0);
    for_each_pair_op(placements, rows, n0, a_rows, |c, _| grid.col_off[c] += 1);
    grid.finish_counts();
    for_each_pair_op(placements, rows, n0, a_rows, |c, t| grid.push_counted(c, t));
    grid.finish_fill();
}

/// Calls `f(column, cycle)` for every stage-2 op of [`build_pair_grid`],
/// in placement order.
#[inline(always)]
fn for_each_pair_op(
    placements: &[Placement],
    rows: usize,
    n0: usize,
    a_rows: Option<&[u64]>,
    mut f: impl FnMut(usize, u32),
) {
    let Some(table) = a_rows else {
        for p in placements {
            f(p.lane as usize * n0 + p.col as usize, p.cycle);
        }
        return;
    };
    let words = rows.div_ceil(64);
    for p in placements {
        let base = p.lane as usize * rows * n0 + p.col as usize;
        let at = p.k as usize * words;
        for (w, &bits) in table[at..at + words].iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let m = w * 64 + bits.trailing_zeros() as usize;
                f(base + m * n0, p.cycle);
                bits &= bits - 1;
            }
        }
    }
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
