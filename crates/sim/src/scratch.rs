//! Reusable simulation scratch: the zero-alloc contract.
//!
//! A sweep campaign runs the tile scheduler hundreds of thousands of
//! times; with fresh buffers per tile, allocator traffic dominates the
//! small grids the paper's core sizes produce. [`SimScratch`] bundles
//! every buffer the tile simulators need — the reusable CSR grids, the
//! scheduler's [`SchedScratch`] (head volume, row counts, tap list,
//! frontier state), the dual pipeline's stage-1 assignment stream and
//! stage-2 A row-bit table, and the SparTen operand words and wave
//! accumulators — so the steady state allocates **nothing**:
//!
//! * per *tile* (the hot loop): zero allocations once every buffer has
//!   grown to the campaign's largest grid; a full single-sparse tile
//!   touches no buffer at all (its schedule is closed form);
//! * per *layer*: only the dual pipeline's per-column placement cache
//!   (12 bytes per B nonzero, amortized over all tile pairs of the
//!   column) and the sampled tile index list;
//! * per *worker*: one `SimScratch`, created once and threaded through
//!   the `simulate_*` entries and `Accelerator::run_with`.
//!
//! The scratch carries no results — only capacity. Reusing one scratch
//! across arbitrary grids, windows and architectures is deterministic
//! and bit-identical to fresh buffers (covered by differential tests).

use griffin_tensor::shape::CoreDims;

use crate::engine::{Assignment, OpGrid, SchedScratch};
use crate::layer::GemmLayer;
use crate::shuffle::LaneMap;
use crate::single::Side;

/// Reusable buffers for layer/network simulation. See the module docs
/// for the allocation contract.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Scheduler state (head volume, row counts, tap list, frontiers).
    pub(crate) sched: SchedScratch,
    /// Primary tile grid (single-sparse tiles; dual stage 1).
    pub(crate) grid: OpGrid,
    /// Word cache for the A/B builders' per-row bit spans.
    pub(crate) span: Vec<u64>,
    /// Secondary grid for the dual pipeline's stage 2.
    pub(crate) grid2: OpGrid,
    /// Assignment stream of the most recent `schedule_assign_with`.
    pub(crate) assigns: Vec<Assignment>,
    /// A row-bit table of the dual pipeline's current row tile.
    pub(crate) a_rows: Vec<u64>,
    /// SparTen per-chunk pair counts of one output.
    pub(crate) chunk_pairs: Vec<u64>,
    /// SparTen per-chunk pair sums of the current dispatch wave.
    pub(crate) wave_sum: Vec<u64>,
    /// SparTen per-chunk pair maxima of the current dispatch wave.
    pub(crate) wave_max: Vec<u64>,
    /// SparTen `A[m, :]` of the current row as bit words.
    pub(crate) sparten_arow: Vec<u64>,
    /// SparTen `B` transposed: one row of bit words per column.
    pub(crate) sparten_bcols: Vec<u64>,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// A no-op, kept for source compatibility with callers written
    /// when a scratch memoized tile grids inside a reuse scope.
    ///
    /// A scratch now holds capacity only: every tile grid is rebuilt in
    /// place. Grid sharing across borrowing windows happens inside one
    /// family call ([`simulate_layer_family`](crate::pipeline::simulate_layer_family)),
    /// which schedules each tile grid under every window of its side.
    pub fn begin_reuse_scope(&mut self, _token: u128) {}

    /// The op grid of home tile `tile` of `layer` on `side`, rebuilt in
    /// place in the primary grid, with the scheduler state and
    /// assignment buffer to run it.
    pub(crate) fn tile_grid(
        &mut self,
        layer: &GemmLayer,
        side: Side,
        tile: usize,
        rotate: bool,
        core: CoreDims,
    ) -> (&OpGrid, &mut SchedScratch, &mut Vec<Assignment>) {
        let SimScratch {
            sched,
            grid,
            span,
            assigns,
            ..
        } = self;
        side.build_grid(grid, span, layer, core, tile, LaneMap::from_flag(rotate));
        (grid, sched, assigns)
    }
}
