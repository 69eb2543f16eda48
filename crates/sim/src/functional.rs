//! Functional execution of borrowing schedules.
//!
//! The cycle model answers "how long"; this module answers "is the
//! computation still correct". It replays the exact schedules the
//! engine produces — including every borrow — with real INT8 values and
//! accumulates the products into the output matrix, so any scheduler
//! defect (a lost op, a double execution, a mispaired operand after
//! shuffling or metadata-driven selection) shows up as a wrong GEMM
//! result against [`griffin_tensor::matrix::Matrix::matmul`].
//!
//! This mirrors the hardware's data paths: an assignment's *source*
//! coordinates are what the metadata / arbitration logic encodes, and
//! the accumulator routing (the paper's dashed blue arrows and extra
//! adder trees) returns each product to the accumulator of its original
//! output element.

use griffin_tensor::block::{ATileView, BTileView};
use griffin_tensor::error::TensorError;
use griffin_tensor::matrix::Matrix;
use griffin_tensor::shape::CoreDims;

use crate::config::Priority;
use crate::engine::{schedule_assign, schedule_assign_with};
use crate::grid::{build_a_grid, build_b_grid};
use crate::scratch::SimScratch;
use crate::shuffle::LaneMap;
use crate::window::{BorrowWindow, EffectiveWindow};

/// Checks operand shapes and allocates the output.
fn check_shapes(a: &Matrix<i8>, b: &Matrix<i8>) -> Result<Matrix<i32>, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            expected: format!("B with {} rows", a.cols()),
            found: format!("B with {} rows", b.rows()),
        });
    }
    Matrix::<i32>::zeros(a.rows(), b.cols())
}

/// Executes `C = A × B` through a `Sparse.B` borrowing schedule.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `A.cols() != B.rows()`.
pub fn sparse_b_product(
    a: &Matrix<i8>,
    b: &Matrix<i8>,
    win: BorrowWindow,
    shuffle: bool,
    core: CoreDims,
    priority: Priority,
) -> Result<Matrix<i32>, TensorError> {
    let mut c = check_shapes(a, b)?;
    let b_mask = b.mask();
    let lanes = LaneMap::from_flag(shuffle);
    let eff = EffectiveWindow::for_b(win);
    let nt = b.cols().div_ceil(core.n0);
    let mut scratch = SimScratch::new();

    for n_tile in 0..nt {
        let view = BTileView::new(&b_mask, core, n_tile * core.n0);
        build_b_grid(&mut scratch.grid, &mut scratch.span, &view, lanes);
        let mut assigns = Vec::new();
        schedule_assign_with(
            &scratch.grid,
            eff,
            priority,
            &mut scratch.sched,
            &mut assigns,
        );
        for asg in assigns {
            let t = asg.t as usize;
            let k = t * core.k0 + lanes.source_lane(asg.src.0, t);
            let n = n_tile * core.n0 + asg.src.2;
            let w = i32::from(b[(k, n)]);
            debug_assert_ne!(w, 0, "scheduled op must be a nonzero weight");
            for m in 0..a.rows() {
                c[(m, n)] += i32::from(a[(m, k)]) * w;
            }
        }
    }
    Ok(c)
}

/// Executes `C = A × B` through a `Sparse.A` borrowing schedule.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `A.cols() != B.rows()`.
pub fn sparse_a_product(
    a: &Matrix<i8>,
    b: &Matrix<i8>,
    win: BorrowWindow,
    shuffle: bool,
    core: CoreDims,
    priority: Priority,
) -> Result<Matrix<i32>, TensorError> {
    let mut c = check_shapes(a, b)?;
    let a_mask = a.mask();
    let lanes = LaneMap::from_flag(shuffle);
    let eff = EffectiveWindow::for_a(win);
    let mt = a.rows().div_ceil(core.m0);
    let mut scratch = SimScratch::new();

    for m_tile in 0..mt {
        let view = ATileView::new(&a_mask, core, m_tile * core.m0);
        build_a_grid(&mut scratch.grid, &mut scratch.span, &view, lanes);
        let mut assigns = Vec::new();
        schedule_assign_with(
            &scratch.grid,
            eff,
            priority,
            &mut scratch.sched,
            &mut assigns,
        );
        for asg in assigns {
            let t = asg.t as usize;
            let k = t * core.k0 + lanes.source_lane(asg.src.0, t);
            let m = m_tile * core.m0 + asg.src.1;
            let act = i32::from(a[(m, k)]);
            debug_assert_ne!(act, 0, "scheduled op must be a nonzero activation");
            for n in 0..b.cols() {
                c[(m, n)] += act * i32::from(b[(k, n)]);
            }
        }
    }
    Ok(c)
}

/// Executes `C = A × B` through the two-stage `Sparse.AB` pipeline
/// (preprocess B, then skip A over the compressed stream).
///
/// Stage 2 is rebuilt here the plain way: a per-element A filter over
/// the full assignment stream, then `OpGrid::rebuild_from_ops`. The
/// timing path (`dual`) builds the same grid from compact placements
/// and row-bit tables; keeping this replay separate leaves the
/// functional check independent of that code.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `A.cols() != B.rows()`.
pub fn sparse_ab_product(
    a: &Matrix<i8>,
    b: &Matrix<i8>,
    a_win: BorrowWindow,
    b_win: BorrowWindow,
    shuffle: bool,
    core: CoreDims,
    priority: Priority,
) -> Result<Matrix<i32>, TensorError> {
    let mut c = check_shapes(a, b)?;
    let b_mask = b.mask();
    let lanes = LaneMap::from_flag(shuffle);
    let stage2_win = EffectiveWindow {
        depth: 1 + a_win.d1,
        lane: a_win.d2,
        rows: a_win.d3,
        cols: 0,
    };
    let mt = a.rows().div_ceil(core.m0);
    let nt = b.cols().div_ceil(core.n0);
    let mut scratch = SimScratch::new();
    let slots = core.k0 * core.m0 * core.n0;

    for n_tile in 0..nt {
        // Stage 1: compress this B tile column.
        let view = BTileView::new(&b_mask, core, n_tile * core.n0);
        build_b_grid(&mut scratch.grid, &mut scratch.span, &view, lanes);
        let mut b_assigns = Vec::new();
        let sched_b = schedule_assign_with(
            &scratch.grid,
            EffectiveWindow::for_b(b_win),
            priority,
            &mut scratch.sched,
            &mut b_assigns,
        );
        if sched_b.cycles == 0 {
            continue;
        }

        // Dense slot-indexed back-map (compressed position -> original
        // (k, n)) instead of hashing every pair twice; sized once per
        // column and sentinel-reset per row tile.
        let mut back: Vec<(u32, u32)> = vec![(u32::MAX, u32::MAX); sched_b.cycles as usize * slots];
        let mut ops = Vec::new();
        for m_tile in 0..mt {
            back.fill((u32::MAX, u32::MAX));
            ops.clear();
            for asg in &b_assigns {
                let t = asg.t as usize;
                let k = t * core.k0 + lanes.source_lane(asg.src.0, t);
                let n = n_tile * core.n0 + asg.src.2;
                for row in 0..core.m0 {
                    let m = m_tile * core.m0 + row;
                    if m < a.rows() && a[(m, k)] != 0 {
                        ops.push((asg.cycle as usize, asg.slot.0, row, asg.slot.2));
                        let pos = asg.cycle as usize * slots
                            + ((asg.slot.0 * core.m0 + row) * core.n0 + asg.slot.2);
                        back[pos] = (k as u32, n as u32);
                    }
                }
            }
            scratch.grid2.rebuild_from_ops(
                sched_b.cycles as usize,
                core.k0,
                core.m0,
                core.n0,
                &ops,
            );
            let (_, pair_assigns) = schedule_assign(&scratch.grid2, stage2_win, priority);
            for p in pair_assigns {
                let pos =
                    p.t as usize * slots + ((p.src.0 * core.m0 + p.src.1) * core.n0 + p.src.2);
                let (k, n) = back[pos];
                debug_assert_ne!(k, u32::MAX, "replayed pair missing from the back-map");
                let (k, n) = (k as usize, n as usize);
                let m = m_tile * core.m0 + p.src.1;
                c[(m, n)] += i32::from(a[(m, k)]) * i32::from(b[(k, n)]);
            }
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_tensor::gen::TensorGen;

    fn core() -> CoreDims {
        CoreDims::PAPER
    }

    fn operands(
        m: usize,
        k: usize,
        n: usize,
        da: f64,
        db: f64,
        seed: u64,
    ) -> (Matrix<i8>, Matrix<i8>) {
        let mut g = TensorGen::seeded(seed);
        let a = if da >= 1.0 {
            g.dense(m, k)
        } else {
            g.relu_activations(m, k, da)
        };
        let b = if db >= 1.0 {
            g.dense(k, n)
        } else {
            g.pruned_weights(k, n, db)
        };
        (a, b)
    }

    #[test]
    fn sparse_b_schedule_computes_the_exact_product() {
        let (a, b) = operands(8, 96, 24, 1.0, 0.25, 1);
        let reference = a.matmul(&b).unwrap();
        for shuffle in [false, true] {
            let c = sparse_b_product(
                &a,
                &b,
                BorrowWindow::new(4, 0, 1),
                shuffle,
                core(),
                Priority::OwnFirst,
            )
            .unwrap();
            assert_eq!(c, reference, "shuffle={shuffle}");
        }
    }

    #[test]
    fn sparse_a_schedule_computes_the_exact_product() {
        let (a, b) = operands(12, 64, 20, 0.4, 1.0, 2);
        let reference = a.matmul(&b).unwrap();
        for shuffle in [false, true] {
            let c = sparse_a_product(
                &a,
                &b,
                BorrowWindow::new(2, 1, 1),
                shuffle,
                core(),
                Priority::OwnFirst,
            )
            .unwrap();
            assert_eq!(c, reference, "shuffle={shuffle}");
        }
    }

    #[test]
    fn sparse_ab_two_stage_computes_the_exact_product() {
        let (a, b) = operands(8, 80, 20, 0.5, 0.3, 3);
        let reference = a.matmul(&b).unwrap();
        for shuffle in [false, true] {
            let c = sparse_ab_product(
                &a,
                &b,
                BorrowWindow::new(2, 0, 0),
                BorrowWindow::new(2, 0, 1),
                shuffle,
                core(),
                Priority::OwnFirst,
            )
            .unwrap();
            assert_eq!(c, reference, "shuffle={shuffle}");
        }
    }

    #[test]
    fn extreme_windows_stay_correct() {
        let (a, b) = operands(4, 48, 8, 0.6, 0.2, 4);
        let reference = a.matmul(&b).unwrap();
        for win in [BorrowWindow::ZERO, BorrowWindow::new(8, 3, 2)] {
            let c = sparse_b_product(&a, &b, win, true, core(), Priority::OwnFirst).unwrap();
            assert_eq!(c, reference, "win={win}");
        }
    }

    #[test]
    fn earliest_first_priority_is_also_correct() {
        let (a, b) = operands(8, 64, 16, 0.5, 0.3, 5);
        let reference = a.matmul(&b).unwrap();
        let c = sparse_ab_product(
            &a,
            &b,
            BorrowWindow::new(1, 1, 0),
            BorrowWindow::new(3, 0, 1),
            true,
            core(),
            Priority::EarliestFirst,
        )
        .unwrap();
        assert_eq!(c, reference);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Matrix::<i8>::zeros(4, 8).unwrap();
        let b = Matrix::<i8>::zeros(9, 4).unwrap();
        assert!(sparse_b_product(
            &a,
            &b,
            BorrowWindow::new(2, 0, 0),
            false,
            core(),
            Priority::OwnFirst
        )
        .is_err());
    }

    #[test]
    fn ragged_dimensions_stay_correct() {
        let (a, b) = operands(5, 37, 11, 0.5, 0.3, 6);
        let reference = a.matmul(&b).unwrap();
        let cb = sparse_b_product(
            &a,
            &b,
            BorrowWindow::new(4, 0, 1),
            true,
            core(),
            Priority::OwnFirst,
        )
        .unwrap();
        assert_eq!(cb, reference);
        let ca = sparse_a_product(
            &a,
            &b,
            BorrowWindow::new(2, 1, 0),
            true,
            core(),
            Priority::OwnFirst,
        )
        .unwrap();
        assert_eq!(ca, reference);
    }
}
