//! Deterministic shard planning.
//!
//! A fleet campaign splits one [`SweepSpec`] grid across N shards. The
//! partition is **content-addressed**: a cell's shard is a function of
//! its stable 128-bit fingerprint only, never of its grid position — so
//! reordering a spec's axes, resuming with a different shard count, or
//! regenerating the plan on another machine always routes the same
//! scenario to a predictable place, and a journal stays resumable across
//! plan changes.
//!
//! The plan also computes the campaign's **spec fingerprint** — a hash
//! over the name and the ordered cell-fingerprint list — which the
//! journal persists, so resuming a *different* grid is rejected instead
//! of quietly merging alien results.

use griffin_sweep::fingerprint::{Fingerprint, Hasher};
use griffin_sweep::spec::{Cell, SweepSpec};

/// Why a plan could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// `shards` was zero.
    ZeroShards,
    /// The spec has an empty axis (no cells to shard).
    EmptySpec,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ZeroShards => write!(f, "shard count must be at least 1"),
            PlanError::EmptySpec => write!(f, "sweep spec has an empty axis"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Hashes the grid identity while yielding each cell with its own
/// fingerprint — the single source of truth behind both
/// [`spec_fingerprint`] and [`ShardPlan::new`], so the journal /
/// `--expect-fp` handshake can never diverge from the planner.
fn fingerprint_cells(spec: &SweepSpec) -> (Fingerprint, Vec<(Cell, Fingerprint)>) {
    let mut h = Hasher::new();
    h.str("griffin-fleet-spec-v1").str(&spec.name);
    let cells = spec.cells();
    h.usize(cells.len());
    let pairs = cells
        .into_iter()
        .map(|c| {
            let fp = c.fingerprint(&spec.sim);
            h.u64(fp.0).u64(fp.1);
            (c, fp)
        })
        .collect();
    (h.finish(), pairs)
}

/// The stable identity of a whole campaign grid: name, cell count, and
/// every cell fingerprint in deterministic grid order. Two specs share
/// a spec fingerprint exactly when they would produce byte-identical
/// reports, which is the invariant resume checks.
pub fn spec_fingerprint(spec: &SweepSpec) -> Fingerprint {
    fingerprint_cells(spec).0
}

/// The shard a fingerprint belongs to, for a given shard count.
pub fn shard_of(fp: Fingerprint, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((fp.0 ^ fp.1) % shards as u64) as usize
}

/// A deterministic partition of a campaign grid into shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Stable identity of the planned grid (see [`spec_fingerprint`]).
    pub spec_fp: Fingerprint,
    /// Shard count the plan was built for.
    pub shards: usize,
    /// Per-shard cell lists, each ascending by grid index. Shards may be
    /// empty (fingerprints are uniform but not perfectly balanced, and
    /// small grids can have fewer cells than shards).
    pub cells: Vec<Vec<Cell>>,
}

impl ShardPlan {
    /// Plans `spec` across `shards` shards.
    ///
    /// # Errors
    ///
    /// [`PlanError::ZeroShards`] / [`PlanError::EmptySpec`].
    pub fn new(spec: &SweepSpec, shards: usize) -> Result<ShardPlan, PlanError> {
        if shards == 0 {
            return Err(PlanError::ZeroShards);
        }
        if !spec.is_runnable() {
            return Err(PlanError::EmptySpec);
        }
        let mut cells: Vec<Vec<Cell>> = vec![Vec::new(); shards];
        let (spec_fp, pairs) = fingerprint_cells(spec);
        for (c, fp) in pairs {
            cells[shard_of(fp, shards)].push(c);
        }
        Ok(ShardPlan {
            spec_fp,
            shards,
            cells,
        })
    }

    /// Total planned cells across all shards.
    pub fn cell_count(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }
}

/// The subset of `cells` not yet completed, in input (grid) order —
/// what a shard attempt actually has left to run. Used by the
/// coordinator for fresh runs, resumes, and post-failure re-queues
/// alike, so every path computes a shard's work list the same way.
pub fn remaining_cells(cells: &[Cell], is_done: impl Fn(usize) -> bool) -> Vec<Cell> {
    cells
        .iter()
        .filter(|c| !is_done(c.index))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_core::arch::ArchSpec;
    use griffin_core::category::DnnCategory;
    use std::collections::BTreeSet;

    fn spec() -> SweepSpec {
        SweepSpec::new("plan")
            .adhoc_layer("l0", 32, 256, 32, 1.0, 0.2)
            .adhoc_layer("l1", 16, 128, 64, 0.5, 0.5)
            .category(DnnCategory::B)
            .category(DnnCategory::Dense)
            .arch(ArchSpec::dense())
            .arch(ArchSpec::sparse_b_star())
            .arch(ArchSpec::griffin())
            .seeds([1, 2])
    }

    #[test]
    fn plan_partitions_the_grid_completely_and_disjointly() {
        let s = spec();
        let plan = ShardPlan::new(&s, 4).unwrap();
        assert_eq!(plan.shards, 4);
        assert_eq!(plan.cell_count(), s.cell_count());
        let mut seen = BTreeSet::new();
        for shard in &plan.cells {
            // Ascending grid order within each shard.
            for pair in shard.windows(2) {
                assert!(pair[0].index < pair[1].index);
            }
            for c in shard {
                assert!(seen.insert(c.index), "cell {} in two shards", c.index);
            }
        }
        assert_eq!(seen.len(), s.cell_count());
    }

    #[test]
    fn assignment_is_stable_under_axis_reordering() {
        let a = spec();
        // Same cells, axes spelled in a different order: every cell must
        // land on the same shard, because assignment keys on content.
        let b = SweepSpec::new("plan")
            .adhoc_layer("l1", 16, 128, 64, 0.5, 0.5)
            .adhoc_layer("l0", 32, 256, 32, 1.0, 0.2)
            .category(DnnCategory::Dense)
            .category(DnnCategory::B)
            .arch(ArchSpec::griffin())
            .arch(ArchSpec::dense())
            .arch(ArchSpec::sparse_b_star())
            .seeds([2, 1]);
        for shards in [1, 2, 3, 7] {
            let pa = ShardPlan::new(&a, shards).unwrap();
            let pb = ShardPlan::new(&b, shards).unwrap();
            for shard in 0..shards {
                let fa: BTreeSet<_> = pa.cells[shard]
                    .iter()
                    .map(|c| c.fingerprint(&a.sim))
                    .collect();
                let fb: BTreeSet<_> = pb.cells[shard]
                    .iter()
                    .map(|c| c.fingerprint(&b.sim))
                    .collect();
                assert_eq!(fa, fb, "shard {shard} of {shards} diverged");
            }
        }
    }

    #[test]
    fn spec_fingerprint_tracks_report_identity() {
        let base = spec_fingerprint(&spec());
        assert_eq!(base, spec_fingerprint(&spec()), "deterministic");
        assert_eq!(
            base,
            ShardPlan::new(&spec(), 3).unwrap().spec_fp,
            "plan computes the same identity"
        );
        // Anything that changes the report changes the identity: the
        // name (serialized in JSON), a seed, the grid order.
        let renamed = SweepSpec {
            name: "other".into(),
            ..spec()
        };
        assert_ne!(base, spec_fingerprint(&renamed));
        assert_ne!(base, spec_fingerprint(&spec().seeds([1, 3])));
        let reordered = SweepSpec {
            seeds: vec![2, 1],
            ..spec()
        };
        assert_ne!(base, spec_fingerprint(&reordered));
    }

    #[test]
    fn degenerate_plans_are_rejected_or_padded() {
        assert_eq!(ShardPlan::new(&spec(), 0), Err(PlanError::ZeroShards));
        assert_eq!(
            ShardPlan::new(&SweepSpec::new("empty"), 2),
            Err(PlanError::EmptySpec)
        );
        // More shards than cells: valid, some shards are simply empty.
        let s = spec();
        let plan = ShardPlan::new(&s, 1000).unwrap();
        assert_eq!(plan.cell_count(), s.cell_count());
        assert!(plan.cells.iter().any(Vec::is_empty));
    }
}
