//! Reusable simulation scratch: the zero-alloc contract.
//!
//! A sweep campaign runs the tile scheduler hundreds of thousands of
//! times; with fresh buffers per tile, allocator traffic dominates the
//! small grids the paper's core sizes produce. [`SimScratch`] bundles
//! every buffer the tile simulators need — the reusable CSR grids, the
//! scheduler's [`SchedScratch`] (head volume, row counts, tap list,
//! frontier state), the stage-1 assignment stream and stage-2 op list
//! of the dual pipeline, and the SparTen operand words and wave
//! accumulators — so the steady state allocates **nothing**:
//!
//! * per *tile* (the hot loop): zero allocations once every buffer has
//!   grown to the campaign's largest grid;
//! * per *layer*: only the dual pipeline's per-column compressed-stream
//!   cache (amortized over all tile pairs of the column) and the
//!   sampled tile index list;
//! * per *worker*: one `SimScratch`, created once and threaded through
//!   the `simulate_*` entries and `Accelerator::run_with`.
//!
//! The scratch carries no results — only capacity. Reusing one scratch
//! across arbitrary grids, windows and architectures is deterministic
//! and bit-identical to fresh buffers (covered by differential tests).

use std::collections::HashMap;

use griffin_tensor::shape::CoreDims;

use crate::engine::{Assignment, OpGrid, SchedScratch};
use crate::layer::GemmLayer;
use crate::shuffle::LaneMap;
use crate::single::Side;

/// Identity of one memoized tile grid inside a reuse scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct GridKey {
    /// Layer index within the workload being simulated.
    pub layer: u32,
    /// Tile index along the grid's home axis (`n_tile` for B, `m_tile`
    /// for A).
    pub tile: u32,
    /// Whether the rotation shuffler was applied.
    pub rotate: bool,
    /// Which operand's nonzeros the grid holds.
    pub side: Side,
    /// Core dimensions the grid was blocked for.
    pub core: CoreDims,
    /// Seed plane the grid belongs to: the scratch's plane offset plus
    /// the workload's position among the planes of one layer call, so K
    /// seed-variant workloads can share one reuse scope without
    /// colliding. A lone workload uses the offset itself (0 unless a
    /// caller set one).
    pub plane: u32,
}

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
    /// Active grid-reuse scope, set by campaign drivers that run the
    /// same workload under many architectures in a row.
    pub(crate) scope: Option<u128>,
    /// Memoized tile grids of the current scope. Tile grids depend only
    /// on the masks, the tile index, the shuffle flag and the core —
    /// not on the borrowing window — so one build serves every
    /// architecture of a sweep.
    pub(crate) grids: HashMap<GridKey, OpGrid>,
    /// Layer index the pipeline is currently simulating (keys the grid
    /// cache within a scope).
    pub(crate) layer_idx: u32,
    /// Seed plane of the workload currently simulating (keys the grid
    /// cache within a scope).
    pub(crate) plane: u32,
    /// Secondary grid for the dual pipeline's stage-2 replay.
    pub(crate) grid2: OpGrid,
    /// Assignment stream of the most recent `schedule_assign_with`.
    pub(crate) assigns: Vec<Assignment>,
    /// Stage-2 effectual-pair op list of the dual pipeline.
    pub(crate) filtered: Vec<(usize, usize, usize, usize)>,
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

    /// Opens (or continues) a grid-reuse scope.
    ///
    /// `token` must uniquely identify the *inputs* of the simulation —
    /// the workload's masks (e.g. a fingerprint over workload spec,
    /// category and mask seed). While a scope is active, tile op grids
    /// are memoized and shared across architectures; entering a scope
    /// with a different token drops the previous scope's grids, so the
    /// cache never holds more than one scope's tiles. The sweep executor
    /// names one (family, layer) work item per token, which bounds a
    /// worker's memo to one layer.
    ///
    /// Callers that simulate each workload once (no architecture sweep)
    /// should simply not open a scope — grids are then rebuilt in place
    /// with zero allocations, which is cheaper than memoizing.
    pub fn begin_reuse_scope(&mut self, token: u128) {
        if self.scope != Some(token) {
            self.grids.clear();
            self.scope = Some(token);
        }
    }

    /// Closes the grid-reuse scope and frees the memoized grids.
    pub fn end_reuse_scope(&mut self) {
        self.scope = None;
        self.grids.clear();
    }

    /// Selects the plane offset that keys memoized tile grids (plane 0
    /// is the plain single-run plane); family layer calls key workload
    /// `p` as `offset + p`. Drivers that simulate several workloads one
    /// call at a time give each its own plane so one reuse scope holds
    /// them all without key collisions; plain `run_with` callers never
    /// need to touch this.
    pub fn set_plane(&mut self, plane: u32) {
        self.plane = plane;
    }

    /// The op grid of home tile `tile` of `layer` on `side`, with the
    /// scheduler state and assignment buffer to run it: memoized inside
    /// a reuse scope (built on first use, then shared by every
    /// architecture and pipeline stage that asks for it), otherwise
    /// rebuilt in place in the primary grid.
    pub(crate) fn tile_grid(
        &mut self,
        layer: &GemmLayer,
        side: Side,
        tile: usize,
        rotate: bool,
        core: CoreDims,
    ) -> (&OpGrid, &mut SchedScratch, &mut Vec<Assignment>) {
        let lanes = LaneMap::from_flag(rotate);
        let SimScratch {
            sched,
            grid,
            span,
            scope,
            grids,
            layer_idx,
            plane,
            assigns,
            ..
        } = self;
        let grid = if scope.is_some() {
            let key = GridKey {
                layer: *layer_idx,
                tile: tile as u32,
                rotate,
                side,
                core,
                plane: *plane,
            };
            grids.entry(key).or_insert_with(|| {
                let mut g = OpGrid::default();
                side.build_grid(&mut g, span, layer, core, tile, lanes);
                g
            })
        } else {
            side.build_grid(grid, span, layer, core, tile, lanes);
            grid
        };
        (grid, sched, assigns)
    }
}
