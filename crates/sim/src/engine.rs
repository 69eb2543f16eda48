//! The greedy borrowing scheduler.
//!
//! Every architecture in the paper reduces to the same scheduling problem:
//! a grid of *effectual operations* indexed by blocked coordinates
//! `(t, lane, row, col)` must be drained by a machine with one slot per
//! `(lane, row, col)`, where a slot may execute an op whose coordinates
//! exceed its own by at most the architecture's borrowing window
//! ([`EffectiveWindow`]). Time is special: the hardware buffers
//! (ABUF/BBUF) hold a sliding window of `depth` original time rows
//! starting at the oldest unfinished row `H`; a slot can only see ops with
//! `t ≤ H + depth − 1`, and `H` advances once row `H` is fully consumed.
//! This models the output-synchronization and buffer-fullness stalls of
//! the paper's pipeline in one mechanism.
//!
//! The per-cycle arbitration is greedy with the priority scheme of
//! Bit-Tactical (which the paper adopts, §III): a slot first executes its
//! own pending op if one is in the window, otherwise it borrows the
//! earliest reachable op, breaking ties toward the smallest displacement.
//!
//! # Implementation: a per-cycle frontier over flat memory
//!
//! The scheduler is the hot path of every sweep campaign, so its data
//! layout and control flow are tuned for the steady state:
//!
//! * [`OpGrid`] stores the op lists in **CSR form** — one contiguous
//!   `u32` time buffer plus per-column offsets — instead of a
//!   `Vec<Vec<u32>>`, so a grid is two allocations (reused across tiles
//!   through [`SchedScratch`]) and column heads are plain indices into
//!   one array.
//! * Column head times live in one **bordered head volume** over
//!   `(lane, row, col)`: each axis is padded by `reach.div_ceil(2)`
//!   sentinel `NONE` entries (the largest displacement
//!   `signed_offsets` produces; unreached axes get no padding). Every
//!   slot then shares one tap list — the window's `signed_offsets`
//!   cross-product as bordered-index displacements, in
//!   `(dsum, enumeration)` priority order — and a border read stands in
//!   for a tap clipped at the grid edge: it reads `NONE` and loses every
//!   arbitration. The per-slot scan is a fixed-trip branchless
//!   min-chain with no per-slot bounds, monomorphized over the tap count
//!   for the window families the sweeps explore.
//! * Each cycle visits only its **frontier**: the slots with a tap
//!   column whose head is ready (`t ≤ H + depth − 1`) at cycle start.
//!   Within a cycle the horizon is fixed and heads only move forward,
//!   so no other slot can act. One pass over a flat copy of the heads
//!   (padded to whole words with `NONE`) builds a `ready` bitset; the
//!   frontier is `ready` OR'd with `ready` shifted by each tap's flat
//!   displacement, masked to the slot count. A shift that wraps across
//!   a line edge only adds a slot whose scan finds nothing; no slot
//!   that can act is ever left out. Frontier slots are visited in slot
//!   order, so the assignment stream comes out in the reference's
//!   order. A cycle is starved iff fewer ops than slots executed while
//!   work remained, and the next `H` is the minimum head.
//!
//! The observable semantics — [`Schedule`] counters and the
//! [`Assignment`] stream — are **bit-identical** to the naive
//! rescan-everything policy, which is retained in
//! [`reference`](mod@reference) and checked by differential property
//! tests.

use crate::config::Priority;
use crate::window::EffectiveWindow;

/// Sentinel for "no entry": an exhausted column head, a border cell of
/// the head volume, a padding slot of the flat head array.
const NONE: u32 = u32::MAX;

/// A grid of effectual operations in blocked coordinates.
///
/// Coordinates: `t ∈ 0..t_steps` (time), `lane ∈ 0..lanes`,
/// `row ∈ 0..rows` (A-side spatial), `col ∈ 0..cols` (B-side spatial).
/// Single-sparse architectures use a degenerate axis of extent 1.
///
/// Storage is CSR-style: `ops` holds every op's time index, sorted
/// ascending within each column, and `col_off[c]..col_off[c + 1]` is
/// column `c`'s slice. The column of `(lane, row, col)` is
/// `(lane * rows + row) * cols + col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpGrid {
    t_steps: usize,
    lanes: usize,
    rows: usize,
    cols: usize,
    /// Per-column start offsets into `ops`; length `columns + 1`.
    pub(crate) col_off: Vec<u32>,
    /// Concatenated per-column op time indices, each column sorted.
    pub(crate) ops: Vec<u32>,
}

impl Default for OpGrid {
    /// An empty degenerate grid, usable as reusable storage that a
    /// builder will overwrite (see [`crate::grid`]).
    fn default() -> Self {
        OpGrid {
            t_steps: 0,
            lanes: 0,
            rows: 0,
            cols: 0,
            col_off: vec![0],
            ops: Vec::new(),
        }
    }
}

impl OpGrid {
    /// Resets the dimensions and clears the CSR arrays, keeping their
    /// capacity. `col_off` comes back zero-filled at `columns + 1`
    /// entries so builders can count into `col_off[c]` directly (the
    /// exclusive prefix sum in [`Self::finish_counts`] then turns the
    /// counts into start offsets).
    pub(crate) fn reset_dims(&mut self, t_steps: usize, lanes: usize, rows: usize, cols: usize) {
        assert!(
            t_steps <= u32::MAX as usize,
            "op grid time axis ({t_steps} steps) exceeds u32 indexing; \
             split the schedule into smaller tiles"
        );
        let columns = lanes * rows * cols;
        assert!(
            columns <= (u32::MAX - 1) as usize,
            "op grid has {columns} columns, exceeding u32 indexing"
        );
        self.t_steps = t_steps;
        self.lanes = lanes;
        self.rows = rows;
        self.cols = cols;
        self.col_off.clear();
        self.col_off.resize(columns + 1, 0);
        self.ops.clear();
    }

    /// Turns per-column counts left in `col_off[c + 1]` into start
    /// offsets and sizes `ops` to the total; the builder then scatters
    /// with [`Self::push_counted`] and finishes with
    /// [`Self::finish_fill`].
    pub(crate) fn finish_counts(&mut self) {
        let mut total = 0u64;
        for off in &mut self.col_off {
            let count = *off;
            assert!(
                total <= u32::MAX as u64,
                "op grid holds more than u32::MAX operations; \
                 split the schedule into smaller tiles"
            );
            *off = total as u32;
            total += u64::from(count);
        }
        // The per-entry assert above only covers the *start* offset of
        // each column; the last column's count lands after the final
        // check, so without this the grand total could silently pass
        // u32::MAX and every packed head cursor would truncate.
        assert!(
            total <= u32::MAX as u64,
            "op grid holds {total} operations, more than u32::MAX; \
             split the schedule into smaller tiles"
        );
        self.ops.resize(total as usize, 0);
    }

    /// Scatters one op into column `c` during the fill pass, using
    /// `col_off[c]` as the running cursor (the classic CSR fill; offsets
    /// are restored by [`Self::finish_fill`]).
    #[inline]
    pub(crate) fn push_counted(&mut self, c: usize, t: u32) {
        let at = self.col_off[c];
        self.ops[at as usize] = t;
        self.col_off[c] = at + 1;
    }

    /// Restores `col_off` after the fill pass shifted every cursor to
    /// its column's end.
    pub(crate) fn finish_fill(&mut self) {
        let columns = self.lanes * self.rows * self.cols;
        debug_assert_eq!(
            self.col_off[columns.saturating_sub(1)],
            self.col_off[columns]
        );
        for c in (1..=columns).rev() {
            self.col_off[c] = self.col_off[c - 1];
        }
        self.col_off[0] = 0;
    }

    /// Builds the grid from a predicate over `(t, lane, row, col)`.
    pub fn from_fn<F>(t_steps: usize, lanes: usize, rows: usize, cols: usize, mut f: F) -> Self
    where
        F: FnMut(usize, usize, usize, usize) -> bool,
    {
        // Single pass through the (possibly expensive, FnMut) predicate,
        // buffering (column, t) pairs, then a counting scatter into CSR.
        // Word-level mask builders (crate::grid) skip this path.
        let mut grid = OpGrid::default();
        grid.reset_dims(t_steps, lanes, rows, cols);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for t in 0..t_steps {
            for lane in 0..lanes {
                for row in 0..rows {
                    for col in 0..cols {
                        if f(t, lane, row, col) {
                            let c = (lane * rows + row) * cols + col;
                            pairs.push((c as u32, t as u32));
                            grid.col_off[c] += 1;
                        }
                    }
                }
            }
        }
        grid.finish_counts();
        // t-major iteration keeps each column's pairs already sorted.
        for &(c, t) in &pairs {
            grid.push_counted(c as usize, t);
        }
        grid.finish_fill();
        grid
    }

    /// Builds the grid from an explicit op list of `(t, lane, row, col)`
    /// coordinates (used for scheduling over a *compressed* stream).
    pub fn from_ops(
        t_steps: usize,
        lanes: usize,
        rows: usize,
        cols: usize,
        ops: impl IntoIterator<Item = (usize, usize, usize, usize)>,
    ) -> Self {
        let collected: Vec<(usize, usize, usize, usize)> = ops.into_iter().collect();
        let mut grid = OpGrid::default();
        grid.rebuild_from_ops(t_steps, lanes, rows, cols, &collected);
        grid
    }

    /// Rebuilds this grid in place from an explicit op list, reusing the
    /// CSR allocations — the zero-alloc path for per-tile rebuilds (the
    /// dual-sparse stage-2 replay).
    pub fn rebuild_from_ops(
        &mut self,
        t_steps: usize,
        lanes: usize,
        rows: usize,
        cols: usize,
        ops: &[(usize, usize, usize, usize)],
    ) {
        self.reset_dims(t_steps, lanes, rows, cols);
        for &(t, lane, row, col) in ops {
            debug_assert!(t < t_steps && lane < lanes && row < rows && col < cols);
            self.col_off[(lane * rows + row) * cols + col] += 1;
        }
        self.finish_counts();
        for &(t, lane, row, col) in ops {
            self.push_counted((lane * rows + row) * cols + col, t as u32);
        }
        self.finish_fill();
        let columns = lanes * rows * cols;
        for c in 0..columns {
            let (lo, hi) = (self.col_off[c] as usize, self.col_off[c + 1] as usize);
            self.ops[lo..hi].sort_unstable();
        }
    }

    /// Number of time steps of the dense schedule.
    pub fn t_steps(&self) -> usize {
        self.t_steps
    }

    /// Total number of effectual operations.
    pub fn total_ops(&self) -> usize {
        self.ops.len()
    }

    /// Largest per-slot op count — a lower bound on the makespan.
    pub fn max_column_ops(&self) -> usize {
        self.col_off
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    #[inline]
    fn column(&self, lane: usize, row: usize, col: usize) -> usize {
        (lane * self.rows + row) * self.cols + col
    }

    /// Column `c`'s sorted op times.
    #[inline]
    fn col(&self, c: usize) -> &[u32] {
        &self.ops[self.col_off[c] as usize..self.col_off[c + 1] as usize]
    }
}

/// Outcome of scheduling one [`OpGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Makespan in cycles.
    pub cycles: u64,
    /// Ops executed (equals the grid's total by construction).
    pub executed: u64,
    /// Ops executed by a slot other than their own (borrow events).
    pub borrowed: u64,
    /// Cycles in which at least one slot idled while work remained
    /// outside its window — the under-utilization the paper's Figure 2
    /// mechanisms exist to reduce.
    pub starved_cycles: u64,
}

impl Schedule {
    /// An empty schedule (zero-op grid).
    pub fn empty() -> Self {
        Schedule {
            cycles: 0,
            executed: 0,
            borrowed: 0,
            starved_cycles: 0,
        }
    }

    /// The schedule of a full grid: `slots` columns, each holding one op
    /// on every one of `t_steps` time rows. Under any window and either
    /// priority, each slot's own head is the oldest row `H` every cycle,
    /// so it executes its own op (own first, or as the unique
    /// zero-displacement earliest tap): one row per cycle, nothing
    /// borrowed, nothing starved. Pinned against both schedulers by the
    /// differential tests.
    pub fn full(t_steps: usize, slots: usize) -> Self {
        Schedule {
            cycles: t_steps as u64,
            executed: (t_steps * slots) as u64,
            borrowed: 0,
            starved_cycles: 0,
        }
    }
}

/// Displacement taps for a dimension with borrowing distance `d`:
/// exactly `1 + d` taps, alternating `0, -1, +1, -2, +2, …` (smallest
/// magnitude first). This matches both Figure 2 of the paper (whose
/// `d2`/`d3` borrow arrows move in the negative direction for `d = 1`)
/// and Table II's mux fan-in accounting of `1 + d` sources per
/// dimension.
#[inline]
fn signed_offsets(d: usize) -> impl Iterator<Item = isize> {
    (0..=d as isize).map(|i| if i % 2 == 1 { -(i / 2 + 1) } else { i / 2 })
}

/// Applies a signed offset within `[0, len)`, returning `None` when the
/// source falls outside the grid.
#[inline]
fn offset(base: usize, delta: isize, len: usize) -> Option<usize> {
    let v = base as isize + delta;
    (v >= 0 && (v as usize) < len).then_some(v as usize)
}

/// One op's placement in the compacted schedule: the op originally at
/// `(t, src)` executed at compacted cycle `cycle` on slot `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Original time row of the op.
    pub t: u32,
    /// Original `(lane, row, col)` of the op.
    pub src: (usize, usize, usize),
    /// Compacted cycle (0-based) at which it executed. `u64` so that
    /// multi-billion-cycle grids cannot silently wrap (the time axis is
    /// `u32`-bounded, but the makespan accumulator is not).
    pub cycle: u64,
    /// Slot `(lane, row, col)` that executed it.
    pub slot: (usize, usize, usize),
}

/// Reusable scheduler state: column heads (bordered and flat), the tap
/// list and the ready bitset the frontier is shifted out of.
///
/// One scratch serves any sequence of grids and windows; every buffer is
/// sized on entry and keeps its capacity, so steady-state tile
/// simulation allocates nothing. A scratch is cheap to create but worth
/// keeping per worker thread (see `griffin_sweep`'s executor).
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// Absolute index of each column's next unconsumed op in
    /// `OpGrid::ops`; only touched when a head actually pops.
    head_cursor: Vec<u32>,
    /// Bordered head-time volume: each column's head op time
    /// (`NONE` when exhausted) at its `(lane, row, col)` position,
    /// surrounded by a sentinel border of `NONE` wide enough for the
    /// window's largest displacement, so tap reads never need clipping
    /// (border taps read `NONE` and lose every arbitration, exactly like
    /// a tap clipped at the grid edge).
    head_b: Vec<u32>,
    /// The same head times by flat column, padded with `NONE` to whole
    /// 64-slot words: the source of each cycle's `ready` bits and `H`.
    head_t: Vec<u32>,
    /// Ready bitset (bit `c` set iff column `c`'s head is within the
    /// horizon), with zero words on both sides wide enough that every
    /// tap's shift reads inside the buffer.
    ready: Vec<u64>,
    /// Bordered index of each flat slot.
    bb_of: Vec<u32>,
    /// Flat column of each bordered index (`NONE` on the border).
    flat_of: Vec<u32>,
    /// Signed bordered-index displacement of each tap, in
    /// `(dsum, enumeration)` priority order.
    deltas: Vec<i32>,
    /// Total displacement `|Δlane| + |Δrow| + |Δcol|` of each tap.
    delta_dsum: Vec<u32>,
    /// Each tap's flat displacement as a shift of `ready`: the word
    /// offset (padding included) and the bit offset within a word.
    shifts: Vec<(usize, u32)>,
}

impl SchedScratch {
    /// Creates an empty scratch; buffers are sized lazily per grid.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Schedules the grid under the given window and priority policy.
///
/// Dense inputs take exactly `t_steps` cycles; an empty grid takes zero.
/// The makespan is always at least `max_column_ops` (one op per slot per
/// cycle) and at most `t_steps` (the dense schedule is always feasible).
///
/// Allocates fresh scheduler state; hot loops should hold a
/// [`SchedScratch`] and call [`schedule_with`] instead.
pub fn schedule(grid: &OpGrid, win: EffectiveWindow, priority: Priority) -> Schedule {
    schedule_with(grid, win, priority, &mut SchedScratch::new())
}

/// Like [`schedule`], additionally returning where every op executed —
/// the compacted stream layout that B preprocessing produces (§IV-A
/// step 1).
pub fn schedule_assign(
    grid: &OpGrid,
    win: EffectiveWindow,
    priority: Priority,
) -> (Schedule, Vec<Assignment>) {
    let mut assigns = Vec::with_capacity(grid.total_ops());
    let s = schedule_assign_with(grid, win, priority, &mut SchedScratch::new(), &mut assigns);
    (s, assigns)
}

/// [`schedule`] with caller-provided scratch: zero allocations once the
/// scratch buffers have grown to the campaign's largest grid.
pub fn schedule_with(
    grid: &OpGrid,
    win: EffectiveWindow,
    priority: Priority,
    scratch: &mut SchedScratch,
) -> Schedule {
    run_frontier(grid, win, priority, scratch, &mut NoSink)
}

/// [`schedule_assign`] with caller-provided scratch and output buffer.
/// `out` is cleared first; reusing it across tiles avoids the per-tile
/// assignment allocation.
pub fn schedule_assign_with(
    grid: &OpGrid,
    win: EffectiveWindow,
    priority: Priority,
    scratch: &mut SchedScratch,
    out: &mut Vec<Assignment>,
) -> Schedule {
    out.clear();
    run_frontier(grid, win, priority, scratch, out)
}

/// Assignment consumer, monomorphized so the non-collecting scheduler
/// carries no per-op branch or source-coordinate arithmetic.
trait Sink {
    /// Whether pushes do anything (lets the compiler erase the call).
    const ACTIVE: bool;
    fn push(&mut self, a: Assignment);
}

/// Discards assignments ([`schedule`] / [`schedule_with`]).
struct NoSink;

impl Sink for NoSink {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn push(&mut self, _: Assignment) {}
}

impl Sink for Vec<Assignment> {
    const ACTIVE: bool = true;
    #[inline(always)]
    fn push(&mut self, a: Assignment) {
        Vec::push(self, a);
    }
}

/// The frontier core: builds the tap list and its ready-bitset shifts,
/// then dispatches to the one cycle loop, monomorphized over the tap
/// count.
///
/// The window families the sweeps explore produce tiny tap lists (1–9
/// taps), and a compile-time trip count turns every arbitration scan and
/// frontier shift into a fully unrolled branchless chain. `W = 0` is the
/// runtime-length instance for every other tap count.
fn run_frontier<S: Sink>(
    grid: &OpGrid,
    win: EffectiveWindow,
    priority: Priority,
    scratch: &mut SchedScratch,
    sink: &mut S,
) -> Schedule {
    assert!(win.depth >= 1, "window depth must be at least 1");
    if grid.total_ops() == 0 {
        return Schedule::empty();
    }
    // Tap list in `(dsum, enumeration)` priority order: the
    // `signed_offsets` cross-product as displacements into the bordered
    // head volume (see `run_frontier_w`), where border reads stand in for
    // taps clipped at the grid edge.
    let [p1, p2, p3] = border(win);
    let e2 = (grid.rows + 2 * p2) as isize;
    let e3 = (grid.cols + 2 * p3) as isize;
    // Each tap's flat displacement `f` shifts the ready bitset. A shift
    // past the grid's whole words reads only zero padding, so `f` is
    // clamped there, which bounds the padding at one more word.
    let words = (grid.lanes * grid.rows * grid.cols).div_ceil(64);
    let pad = ((p1 * grid.rows + p2) * grid.cols + p3).min(64 * words) / 64 + 1;
    let (rows, cols, lim) = (grid.rows as isize, grid.cols as isize, 64 * words as isize);
    scratch.deltas.clear();
    scratch.delta_dsum.clear();
    scratch.shifts.clear();
    for dl in signed_offsets(win.lane) {
        for dr in signed_offsets(win.rows) {
            for dc in signed_offsets(win.cols) {
                scratch.deltas.push(((dl * e2 + dr) * e3 + dc) as i32);
                scratch
                    .delta_dsum
                    .push((dl.unsigned_abs() + dr.unsigned_abs() + dc.unsigned_abs()) as u32);
                let f = ((dl * rows + dr) * cols + dc).clamp(-lim, lim);
                scratch.shifts.push((
                    (pad as isize + f.div_euclid(64)) as usize,
                    f.rem_euclid(64) as u32,
                ));
            }
        }
    }
    // Stable insertion sort by dsum (the list is short), keeping the
    // enumeration order inside equal displacements. The shifts are
    // OR'd together, so their order does not matter.
    for i in 1..scratch.deltas.len() {
        let mut j = i;
        while j > 0 && scratch.delta_dsum[j - 1] > scratch.delta_dsum[j] {
            scratch.delta_dsum.swap(j - 1, j);
            scratch.deltas.swap(j - 1, j);
            j -= 1;
        }
    }
    match scratch.deltas.len() {
        1 => run_frontier_w::<1, S>(grid, win, priority, pad, scratch, sink),
        2 => run_frontier_w::<2, S>(grid, win, priority, pad, scratch, sink),
        3 => run_frontier_w::<3, S>(grid, win, priority, pad, scratch, sink),
        4 => run_frontier_w::<4, S>(grid, win, priority, pad, scratch, sink),
        6 => run_frontier_w::<6, S>(grid, win, priority, pad, scratch, sink),
        9 => run_frontier_w::<9, S>(grid, win, priority, pad, scratch, sink),
        _ => run_frontier_w::<0, S>(grid, win, priority, pad, scratch, sink),
    }
}

/// Sentinel border width of the head volume on each `(lane, row, col)`
/// axis: the largest displacement `signed_offsets` produces for the
/// axis's reach, so no tap read leaves the volume.
fn border(win: EffectiveWindow) -> [usize; 3] {
    [win.lane, win.rows, win.cols].map(|reach| reach.div_ceil(2))
}

/// The cycle loop proper, monomorphized over the tap count `W`
/// (`0` = read the length at runtime). See [`run_frontier`].
///
/// Each cycle fixes the horizon from `H`, the minimum head, builds the
/// ready bitset from the flat heads, and visits the frontier (`ready`
/// OR'd with its per-tap shifts, `pad` words of zeros on each side) in
/// slot order. Column head times sit in a bordered `(lane, row, col)`
/// volume, so out-of-grid taps read the `NONE` border and lose every
/// comparison, exactly like a tap clipped at the grid edge. Every slot
/// shares one displacement list, and the arbitration scan is a
/// fixed-trip branchless min-chain with no per-slot bounds and no
/// data-dependent early exits.
///
/// Results are **bit-identical** to [`reference`], pinned by the
/// differential tests.
///
/// Each instance stays out of line: inlined together into the dispatcher,
/// the 9-tap instance ran ~10% slower on the `griffin-cli bench`
/// `lane_reach` tile (x86-64), for the cost of one call per tile.
#[inline(never)]
fn run_frontier_w<const W: usize, S: Sink>(
    grid: &OpGrid,
    win: EffectiveWindow,
    priority: Priority,
    pad: usize,
    scratch: &mut SchedScratch,
    sink: &mut S,
) -> Schedule {
    let total = grid.total_ops();
    let slots = grid.lanes * grid.rows * grid.cols;
    let words = slots.div_ceil(64);
    let row_cols = grid.rows * grid.cols;
    let [p1, p2, p3] = border(win);
    let e2 = grid.rows + 2 * p2;
    let e3 = grid.cols + 2 * p3;
    let volume = (grid.lanes + 2 * p1) * e2 * e3;
    assert!(
        volume <= i32::MAX as usize,
        "bordered head volume of {volume} entries exceeds i32 indexing; \
         shrink the borrowing window or split the grid"
    );
    debug_assert!(W == 0 || scratch.deltas.len() == W);
    let n_taps = if W == 0 { scratch.deltas.len() } else { W };

    // --- prepare scratch (resize-only; no allocation at steady state) ---
    scratch.bb_of.clear();
    scratch.bb_of.reserve(slots);
    scratch.flat_of.clear();
    scratch.flat_of.resize(volume, NONE);
    scratch.head_b.clear();
    scratch.head_b.resize(volume, NONE);
    scratch.head_t.clear();
    scratch.head_t.resize(words * 64, NONE);
    scratch.ready.clear();
    scratch.ready.resize(words + 2 * pad, 0);
    scratch.head_cursor.clear();
    scratch.head_cursor.reserve(slots);
    for l in 0..grid.lanes {
        for r in 0..grid.rows {
            for x in 0..grid.cols {
                let c = grid.column(l, r, x);
                let bb = ((l + p1) * e2 + r + p2) * e3 + x + p3;
                scratch.bb_of.push(bb as u32);
                scratch.flat_of[bb] = c as u32;
                let (lo, hi) = (grid.col_off[c], grid.col_off[c + 1]);
                let head = if lo < hi { grid.ops[lo as usize] } else { NONE };
                scratch.head_b[bb] = head;
                scratch.head_t[c] = head;
                scratch.head_cursor.push(lo);
            }
        }
    }

    // Split borrows for the hot loop, as slices: their base pointers
    // then live in registers instead of being reloaded from the scratch
    // after every store into a buffer.
    let SchedScratch {
        head_cursor,
        head_b,
        head_t,
        ready,
        bb_of,
        flat_of,
        deltas,
        delta_dsum,
        shifts,
    } = scratch;
    let (head_cursor, head_b, head_t, ready) = (
        &mut head_cursor[..],
        &mut head_b[..],
        &mut head_t[..],
        &mut ready[..],
    );
    // Slicing the tap lists to `n_taps` makes their length the constant
    // `W` in each const instance, so indexing by the winning tap needs no
    // bounds check.
    let (bb_of, flat_of, deltas, delta_dsum, shifts) = (
        &bb_of[..],
        &flat_of[..],
        &deltas[..n_taps],
        &delta_dsum[..n_taps],
        &shifts[..n_taps],
    );
    // Frontier bits at or past `slots` come from shifts, not slots.
    let tail = match slots % 64 {
        0 => !0u64,
        r => (1u64 << r) - 1,
    };

    let mut remaining = total;
    let mut cycles = 0u64;
    let mut borrowed = 0u64;
    let mut starved_cycles = 0u64;

    while remaining > 0 {
        cycles += 1;
        // `H`, the oldest unfinished row, is the minimum head; work
        // remains, so it is a live op time.
        let h = head_t.iter().fold(NONE, |m, &t| m.min(t));
        let horizon32 = (h as usize + win.depth - 1).min(grid.t_steps - 1) as u32;
        for (bits, heads) in ready[pad..pad + words]
            .iter_mut()
            .zip(head_t.chunks_exact(64))
        {
            let mut w = 0u64;
            for (j, &t) in heads.iter().enumerate() {
                w |= u64::from(t <= horizon32) << j;
            }
            *bits = w;
        }

        let mut pops = 0usize;
        for wd in 0..words {
            // The frontier word: slot `s` is in it iff some tap's column
            // `s + f` is ready. `(hi << 1) << (63 - r)` is `hi << (64 - r)`
            // without overflowing at `r = 0`.
            let mut bits = 0u64;
            for &(off, r) in shifts {
                // SAFETY: `off + wd + 1 < words + 2 * pad = ready.len()`
                // by the padding construction in `run_frontier`.
                let (lo, hi) = unsafe {
                    (
                        *ready.get_unchecked(wd + off),
                        *ready.get_unchecked(wd + off + 1),
                    )
                };
                bits |= (lo >> r) | ((hi << 1) << (63 - r));
            }
            if wd + 1 == words {
                bits &= tail;
            }
            while bits != 0 {
                let slot = wd * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // SAFETY: `slot < slots` (the tail mask), and `bb_of`
                // holds one in-volume interior index per slot.
                let bb = unsafe { *bb_of.get_unchecked(slot) } as usize;
                let own_t = unsafe { *head_b.get_unchecked(bb) };

                // Own op first (Bit-Tactical priority), if within the
                // time window (`NONE` > horizon when the column is
                // exhausted).
                if priority == Priority::OwnFirst && own_t <= horizon32 {
                    // SAFETY: `slot < slots` bounds `head_cursor`,
                    // `head_t` and `col_off`; the cursor stays within
                    // the column's CSR slice.
                    unsafe {
                        let hp = *head_cursor.get_unchecked(slot) + 1;
                        let nt = if hp < *grid.col_off.get_unchecked(slot + 1) {
                            *grid.ops.get_unchecked(hp as usize)
                        } else {
                            NONE
                        };
                        *head_b.get_unchecked_mut(bb) = nt;
                        *head_t.get_unchecked_mut(slot) = nt;
                        *head_cursor.get_unchecked_mut(slot) = hp;
                    }
                    pops += 1;
                    if S::ACTIVE {
                        let src = (
                            slot / row_cols,
                            slot % row_cols / grid.cols,
                            slot % grid.cols,
                        );
                        sink.push(Assignment {
                            t: own_t,
                            src,
                            cycle: cycles - 1,
                            slot: src,
                        });
                    }
                    continue;
                }

                // Branchless arbitration scan: strict `<` over head
                // times in `(dsum, enumeration)` order resolves the full
                // `(t, dsum, tap order)` priority (first minimum wins).
                let mut bt = NONE;
                let mut best_i = 0usize;
                for i in 0..n_taps {
                    // SAFETY: `i < n_taps = deltas.len()`; `bb` is
                    // interior; deltas stay inside the sentinel border
                    // by pad construction.
                    let t = unsafe {
                        *head_b.get_unchecked(
                            (bb as isize + *deltas.get_unchecked(i) as isize) as usize,
                        )
                    };
                    let lt = t < bt;
                    bt = if lt { t } else { bt };
                    best_i = if lt { i } else { best_i };
                }
                if bt > horizon32 {
                    // Nothing reachable: the slot idles this cycle.
                    continue;
                }
                let pb = (bb as isize + deltas[best_i] as isize) as usize;
                // SAFETY: the winning head is a live op time, so `pb` is
                // interior (border entries are `NONE` and lose to every
                // live head); `flat_of` maps interior entries to their
                // flat column, so `best_c < slots`; the cursor stays
                // within the column's CSR slice.
                let best_c = unsafe { *flat_of.get_unchecked(pb) } as usize;
                unsafe {
                    let hp = *head_cursor.get_unchecked(best_c) + 1;
                    let nt = if hp < *grid.col_off.get_unchecked(best_c + 1) {
                        *grid.ops.get_unchecked(hp as usize)
                    } else {
                        NONE
                    };
                    *head_b.get_unchecked_mut(pb) = nt;
                    *head_t.get_unchecked_mut(best_c) = nt;
                    *head_cursor.get_unchecked_mut(best_c) = hp;
                }
                pops += 1;
                if delta_dsum[best_i] > 0 {
                    borrowed += 1;
                }
                if S::ACTIVE {
                    sink.push(Assignment {
                        t: bt,
                        src: (
                            best_c / row_cols,
                            best_c % row_cols / grid.cols,
                            best_c % grid.cols,
                        ),
                        cycle: cycles - 1,
                        slot: (
                            slot / row_cols,
                            slot % row_cols / grid.cols,
                            slot % grid.cols,
                        ),
                    });
                }
            }
        }

        // Every slot pops at most once a cycle, so some slot idled iff
        // fewer than `slots` ops executed; the cycle is starved if work
        // remains.
        remaining -= pops;
        if pops < slots && remaining > 0 {
            starved_cycles += 1;
        }
    }

    Schedule {
        cycles,
        executed: total as u64,
        borrowed,
        starved_cycles,
    }
}

/// The naive rescan-everything scheduler, retained verbatim as the
/// semantic reference for the frontier core.
///
/// Every cycle it re-walks each slot's full borrowing cross-product,
/// exactly as §III describes the arbitration. It is the ground truth
/// for the differential property tests; production paths use the
/// frontier [`schedule`]/[`schedule_with`] family, which must
/// produce bit-identical [`Schedule`]s and [`Assignment`] streams.
pub mod reference {
    use super::{offset, signed_offsets, Assignment, OpGrid, Schedule};
    use crate::config::Priority;
    use crate::window::EffectiveWindow;

    /// Reference counterpart of [`super::schedule`].
    pub fn schedule(grid: &OpGrid, win: EffectiveWindow, priority: Priority) -> Schedule {
        run(grid, win, priority, None)
    }

    /// Reference counterpart of [`super::schedule_assign`].
    pub fn schedule_assign(
        grid: &OpGrid,
        win: EffectiveWindow,
        priority: Priority,
    ) -> (Schedule, Vec<Assignment>) {
        let mut assigns = Vec::with_capacity(grid.total_ops());
        let s = run(grid, win, priority, Some(&mut assigns));
        (s, assigns)
    }

    fn run(
        grid: &OpGrid,
        win: EffectiveWindow,
        priority: Priority,
        mut collect: Option<&mut Vec<Assignment>>,
    ) -> Schedule {
        assert!(win.depth >= 1, "window depth must be at least 1");
        if grid.total_ops() == 0 {
            return Schedule::empty();
        }

        let columns = grid.lanes * grid.rows * grid.cols;
        let mut head = vec![0usize; columns];
        let mut row_remaining = vec![0u32; grid.t_steps];
        for &t in &grid.ops {
            row_remaining[t as usize] += 1;
        }

        let mut h = 0usize; // oldest unfinished time row
        while h < grid.t_steps && row_remaining[h] == 0 {
            h += 1;
        }

        let mut remaining = grid.total_ops();
        let mut cycles = 0u64;
        let mut borrowed = 0u64;
        let mut starved_cycles = 0u64;

        while remaining > 0 {
            cycles += 1;
            let horizon = (h + win.depth - 1).min(grid.t_steps - 1) as u32;
            let mut starved = false;

            for lane in 0..grid.lanes {
                for row in 0..grid.rows {
                    for col in 0..grid.cols {
                        // Own op first (Bit-Tactical priority), if within
                        // the time window.
                        let own = grid.column(lane, row, col);
                        let own_front = grid.col(own).get(head[own]).copied();
                        if priority == Priority::OwnFirst {
                            if let Some(t) = own_front {
                                if t <= horizon {
                                    head[own] += 1;
                                    row_remaining[t as usize] -= 1;
                                    remaining -= 1;
                                    if let Some(out) = collect.as_deref_mut() {
                                        out.push(Assignment {
                                            t,
                                            src: (lane, row, col),
                                            cycle: cycles - 1,
                                            slot: (lane, row, col),
                                        });
                                    }
                                    continue;
                                }
                            }
                        }

                        // Scan the borrowing window for the best
                        // candidate: earliest time, then smallest
                        // displacement. Spatial and lane displacements
                        // are bidirectional (distance semantics,
                        // Figure 2); time is forward-only.
                        let mut best: Option<(u32, usize, usize)> = None;
                        'scan: for dl in signed_offsets(win.lane) {
                            let Some(sl) = offset(lane, dl, grid.lanes) else {
                                continue;
                            };
                            for dr in signed_offsets(win.rows) {
                                let Some(sr) = offset(row, dr, grid.rows) else {
                                    continue;
                                };
                                for dc in signed_offsets(win.cols) {
                                    let Some(sc) = offset(col, dc, grid.cols) else {
                                        continue;
                                    };
                                    let c = grid.column(sl, sr, sc);
                                    if let Some(&t) = grid.col(c).get(head[c]) {
                                        if t > horizon {
                                            continue;
                                        }
                                        let dsum = dl.unsigned_abs()
                                            + dr.unsigned_abs()
                                            + dc.unsigned_abs();
                                        let cand = (t, dsum, c);
                                        if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                                            best = Some(cand);
                                            if t == h as u32 && dsum == 0 {
                                                break 'scan;
                                            }
                                        }
                                    }
                                }
                            }
                        }

                        match best {
                            Some((t, dsum, c)) => {
                                head[c] += 1;
                                row_remaining[t as usize] -= 1;
                                remaining -= 1;
                                if dsum > 0 {
                                    borrowed += 1;
                                }
                                if let Some(out) = collect.as_deref_mut() {
                                    let src_lane = c / (grid.rows * grid.cols);
                                    let rem = c % (grid.rows * grid.cols);
                                    out.push(Assignment {
                                        t,
                                        src: (src_lane, rem / grid.cols, rem % grid.cols),
                                        cycle: cycles - 1,
                                        slot: (lane, row, col),
                                    });
                                }
                            }
                            None => {
                                // This slot idles; if any work remains in
                                // the grid this is a starvation event.
                                starved = true;
                            }
                        }
                    }
                }
            }

            if starved && remaining > 0 {
                starved_cycles += 1;
            }
            while h < grid.t_steps && row_remaining[h] == 0 {
                h += 1;
            }
        }

        Schedule {
            cycles,
            executed: grid.total_ops() as u64,
            borrowed,
            starved_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_grid(t: usize, lanes: usize, rows: usize, cols: usize) -> OpGrid {
        OpGrid::from_fn(t, lanes, rows, cols, |_, _, _, _| true)
    }

    #[test]
    fn empty_grid_takes_zero_cycles() {
        let g = OpGrid::from_fn(8, 4, 2, 2, |_, _, _, _| false);
        let s = schedule(&g, EffectiveWindow::dense(), Priority::OwnFirst);
        assert_eq!(s, Schedule::empty());
    }

    #[test]
    fn dense_grid_takes_exactly_t_cycles() {
        let g = dense_grid(16, 4, 2, 4);
        for win in [
            EffectiveWindow::dense(),
            EffectiveWindow {
                depth: 5,
                lane: 2,
                rows: 1,
                cols: 1,
            },
        ] {
            for p in [Priority::OwnFirst, Priority::EarliestFirst] {
                let s = schedule(&g, win, p);
                assert_eq!(s.cycles, 16, "win {win:?} priority {p:?}");
                assert_eq!(s.executed, 16 * 4 * 2 * 4);
            }
        }
    }

    #[test]
    fn full_schedule_matches_both_schedulers_on_full_grids() {
        // Every depth 1-9, every lane/row/col reach 0-3, both priorities,
        // on full grids of several extents (degenerate axes included).
        let extents = [(1, 1, 1, 1), (5, 4, 1, 3), (3, 2, 3, 1), (4, 3, 2, 2)];
        let mut scratch = SchedScratch::new();
        for (t, lanes, rows, cols) in extents {
            let g = dense_grid(t, lanes, rows, cols);
            let want = Schedule::full(t, lanes * rows * cols);
            for depth in 1..=9 {
                for (lane, row, col) in (0..64).map(|i| (i / 16, i / 4 % 4, i % 4)) {
                    let win = EffectiveWindow {
                        depth,
                        lane,
                        rows: row,
                        cols: col,
                    };
                    for p in [Priority::OwnFirst, Priority::EarliestFirst] {
                        let ctx = (t, lanes, rows, cols, win, p);
                        assert_eq!(schedule_with(&g, win, p, &mut scratch), want, "{ctx:?}");
                        assert_eq!(reference::schedule(&g, win, p), want, "{ctx:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn no_window_means_no_skipping_gains_beyond_empty_rows() {
        // Half the time rows are completely empty; even a dense window
        // skips them (the core simply never schedules an all-zero row),
        // matching zero-gating in the dense baseline.
        let g = OpGrid::from_fn(8, 2, 1, 1, |t, _, _, _| t % 2 == 0);
        let s = schedule(&g, EffectiveWindow::dense(), Priority::OwnFirst);
        assert_eq!(s.cycles, 4);
    }

    #[test]
    fn time_window_compacts_a_single_sparse_lane() {
        // Lane 0 has ops at t = 0,2,4,6; depth 3 window lets it run them
        // back-to-back: 4 cycles instead of 7.
        let g = OpGrid::from_fn(8, 1, 1, 1, |t, _, _, _| t % 2 == 0);
        let s = schedule(
            &g,
            EffectiveWindow {
                depth: 3,
                lane: 0,
                rows: 0,
                cols: 0,
            },
            Priority::OwnFirst,
        );
        assert_eq!(s.cycles, 4);
        assert_eq!(s.starved_cycles, 0);
    }

    #[test]
    fn imbalanced_lanes_without_reach_are_limited_by_the_hot_lane() {
        // Lane 0 dense, lane 1 empty: without lane reach lane 1 starves
        // and the makespan equals lane 0's op count.
        let g = OpGrid::from_fn(8, 2, 1, 1, |_, lane, _, _| lane == 0);
        let s = schedule(
            &g,
            EffectiveWindow {
                depth: 4,
                lane: 0,
                rows: 0,
                cols: 0,
            },
            Priority::OwnFirst,
        );
        assert_eq!(s.cycles, 8);
        assert!(s.starved_cycles > 0);
    }

    #[test]
    fn lane_reach_lets_idle_lane_help() {
        // Same imbalance, but with lane reach: the taps for distance d
        // are (0, -1, +1, ...), so reach 1 covers the lane below and
        // reach 2 covers both neighbours.
        let g = OpGrid::from_fn(8, 2, 1, 1, |_, lane, _, _| lane == 0);
        let s = schedule(
            &g,
            EffectiveWindow {
                depth: 4,
                lane: 1,
                rows: 0,
                cols: 0,
            },
            Priority::OwnFirst,
        );
        // Two slots drain 8 ops: 4 cycles (slot 1 borrows via tap -1).
        assert_eq!(s.cycles, 4);
        assert!(s.borrowed > 0);

        // Hot lane 1 needs reach 2 (tap +1 only appears at distance 2).
        let g = OpGrid::from_fn(8, 2, 1, 1, |_, lane, _, _| lane == 1);
        let d1 = schedule(
            &g,
            EffectiveWindow {
                depth: 4,
                lane: 1,
                rows: 0,
                cols: 0,
            },
            Priority::OwnFirst,
        );
        assert_eq!(d1.cycles, 8);
        let d2 = schedule(
            &g,
            EffectiveWindow {
                depth: 4,
                lane: 2,
                rows: 0,
                cols: 0,
            },
            Priority::OwnFirst,
        );
        assert_eq!(d2.cycles, 4);
    }

    #[test]
    fn spatial_reach_routes_to_neighbour_pe() {
        // All ops in col 0; col-reach 1 lets col 1's slot help through
        // its -1 tap.
        let g = OpGrid::from_fn(8, 1, 1, 2, |_, _, _, col| col == 0);
        let no_reach = schedule(
            &g,
            EffectiveWindow {
                depth: 8,
                lane: 0,
                rows: 0,
                cols: 0,
            },
            Priority::OwnFirst,
        );
        let reach = schedule(
            &g,
            EffectiveWindow {
                depth: 8,
                lane: 0,
                rows: 0,
                cols: 1,
            },
            Priority::OwnFirst,
        );
        assert_eq!(no_reach.cycles, 8);
        assert_eq!(reach.cycles, 4);
    }

    #[test]
    fn makespan_respects_bounds() {
        let g = OpGrid::from_fn(16, 4, 2, 2, |t, lane, row, col| {
            (t + lane + row + col) % 3 == 0
        });
        let win = EffectiveWindow {
            depth: 4,
            lane: 1,
            rows: 1,
            cols: 1,
        };
        for p in [Priority::OwnFirst, Priority::EarliestFirst] {
            let s = schedule(&g, win, p);
            assert!(s.cycles >= g.max_column_ops() as u64);
            assert!(s.cycles <= g.t_steps() as u64);
            assert_eq!(s.executed as usize, g.total_ops());
        }
    }

    #[test]
    fn larger_window_never_hurts() {
        let g = OpGrid::from_fn(32, 4, 1, 4, |t, lane, _, col| {
            (t * 7 + lane * 3 + col) % 4 == 0
        });
        let small = schedule(
            &g,
            EffectiveWindow {
                depth: 2,
                lane: 0,
                rows: 0,
                cols: 0,
            },
            Priority::OwnFirst,
        );
        let big = schedule(
            &g,
            EffectiveWindow {
                depth: 6,
                lane: 2,
                rows: 0,
                cols: 2,
            },
            Priority::OwnFirst,
        );
        assert!(big.cycles <= small.cycles);
    }

    #[test]
    fn depth_one_with_reach_still_skips_empty_rows() {
        let g = OpGrid::from_fn(6, 2, 1, 1, |t, _, _, _| t < 3);
        let s = schedule(
            &g,
            EffectiveWindow {
                depth: 1,
                lane: 1,
                rows: 0,
                cols: 0,
            },
            Priority::OwnFirst,
        );
        assert_eq!(s.cycles, 3);
    }

    #[test]
    fn earliest_first_matches_own_first_on_symmetric_input() {
        let g = dense_grid(8, 2, 2, 2);
        let win = EffectiveWindow {
            depth: 3,
            lane: 1,
            rows: 1,
            cols: 1,
        };
        let a = schedule(&g, win, Priority::OwnFirst);
        let b = schedule(&g, win, Priority::EarliestFirst);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn from_ops_sorts_unordered_input() {
        let g = OpGrid::from_ops(8, 1, 1, 2, [(5, 0, 0, 1), (1, 0, 0, 0), (3, 0, 0, 0)]);
        assert_eq!(g.col(0), &[1, 3]);
        assert_eq!(g.col(1), &[5]);
        assert_eq!(g.total_ops(), 3);
        assert_eq!(g.max_column_ops(), 2);
    }

    #[test]
    fn rebuild_reuses_storage_across_shapes() {
        let mut g = OpGrid::default();
        g.rebuild_from_ops(4, 2, 1, 1, &[(0, 0, 0, 0), (2, 1, 0, 0)]);
        assert_eq!(g.total_ops(), 2);
        g.rebuild_from_ops(2, 1, 2, 2, &[(1, 0, 1, 1)]);
        assert_eq!(g.total_ops(), 1);
        assert_eq!(g.t_steps(), 2);
        let s = schedule(&g, EffectiveWindow::dense(), Priority::OwnFirst);
        assert_eq!(s.executed, 1);
    }

    /// The frontier core against the retained reference on a grid mix
    /// with empty rows, idle frontier slots and dead slots. Broad random
    /// coverage lives in the proptest suite (`tests/` of the façade).
    #[test]
    fn event_core_matches_reference_exactly() {
        let grids = [
            OpGrid::from_fn(24, 4, 2, 2, |t, l, r, c| {
                (t * 5 + l * 3 + r * 2 + c) % 4 == 0
            }),
            OpGrid::from_fn(16, 8, 1, 2, |t, l, _, c| (t + l + c) % 7 == 0),
            OpGrid::from_fn(10, 2, 1, 1, |t, l, _, _| l == 0 && t % 2 == 0),
            dense_grid(6, 2, 2, 2),
        ];
        let wins = [
            EffectiveWindow::dense(),
            EffectiveWindow {
                depth: 3,
                lane: 1,
                rows: 0,
                cols: 1,
            },
            EffectiveWindow {
                depth: 9,
                lane: 0,
                rows: 1,
                cols: 2,
            },
        ];
        let mut scratch = SchedScratch::new();
        let mut out = Vec::new();
        for g in &grids {
            for &win in &wins {
                for p in [Priority::OwnFirst, Priority::EarliestFirst] {
                    let (s_ref, a_ref) = reference::schedule_assign(g, win, p);
                    let s_new = schedule_assign_with(g, win, p, &mut scratch, &mut out);
                    assert_eq!(s_new, s_ref, "schedule diverged: win {win:?} p {p:?}");
                    assert_eq!(out, a_ref, "assignments diverged: win {win:?} p {p:?}");
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let g = OpGrid::from_fn(20, 4, 1, 4, |t, l, _, c| (t * 3 + l + c) % 3 == 0);
        let win = EffectiveWindow {
            depth: 4,
            lane: 1,
            rows: 0,
            cols: 1,
        };
        let fresh = schedule(&g, win, Priority::OwnFirst);
        let mut scratch = SchedScratch::new();
        for _ in 0..3 {
            assert_eq!(
                schedule_with(&g, win, Priority::OwnFirst, &mut scratch),
                fresh
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u32 indexing")]
    fn oversized_time_axis_panics_clearly() {
        let mut g = OpGrid::default();
        g.reset_dims(u32::MAX as usize + 1, 1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "exceeding u32 indexing")]
    fn oversized_column_count_panics_clearly() {
        // The guard fires before any CSR array is resized, so the test
        // never touches 16 GiB of col_off.
        let mut g = OpGrid::default();
        g.reset_dims(1, u32::MAX as usize, 1, 1);
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX")]
    fn op_total_overflowing_on_final_column_panics_clearly() {
        // Counts that only pass u32::MAX with the *last* column's
        // contribution: the per-entry start-offset check cannot see the
        // grand total, so without the final guard the packed head
        // cursors would silently truncate.
        let mut g = OpGrid {
            t_steps: 1,
            lanes: 2,
            rows: 1,
            cols: 1,
            col_off: vec![u32::MAX, u32::MAX, 0],
            ..OpGrid::default()
        };
        g.finish_counts();
    }

    /// Contended reach windows on 3-D grids: many slots borrow from the
    /// same few donor columns, so arbitration tie-breaks, border taps
    /// and frontier shifts across line edges all decide outcomes; the
    /// reference must agree exactly, assignments included.
    #[test]
    fn ready_queue_matches_reference_under_contention() {
        // Clustered columns: a few hot columns hold long runs while
        // their neighbours are empty or sparse, so borrows hammer the
        // same heads and slots drop in and out of the frontier.
        let grids = [
            OpGrid::from_fn(32, 4, 2, 2, |t, l, r, c| {
                (l == 1 && r == 0 && c == 0) || (t + l * 7 + r * 3 + c * 5) % 11 == 0
            }),
            OpGrid::from_fn(48, 3, 1, 3, |t, l, _, c| {
                (c == 1 && t % 2 == 0) || (t * 3 + l * 5 + c) % 13 < 2
            }),
            OpGrid::from_fn(40, 2, 2, 2, |t, l, r, c| (t / 4 + l + r + c) % 3 != 1),
        ];
        let wins = [
            EffectiveWindow {
                depth: 3,
                lane: 2,
                rows: 2,
                cols: 2,
            },
            EffectiveWindow {
                depth: 2,
                lane: 1,
                rows: 1,
                cols: 2,
            },
            EffectiveWindow {
                depth: 5,
                lane: 2,
                rows: 0,
                cols: 1,
            },
        ];
        let mut scratch = SchedScratch::new();
        let mut out = Vec::new();
        for g in &grids {
            for &win in &wins {
                for p in [Priority::OwnFirst, Priority::EarliestFirst] {
                    let (s_ref, a_ref) = reference::schedule_assign(g, win, p);
                    let s_new = schedule_assign_with(g, win, p, &mut scratch, &mut out);
                    assert_eq!(s_new, s_ref, "schedule diverged: win {win:?} p {p:?}");
                    assert_eq!(out, a_ref, "assignments diverged: win {win:?} p {p:?}");
                }
            }
        }
    }
}
