//! Declarative sweep specifications: the campaign grid.
//!
//! A [`SweepSpec`] names a full campaign as the cartesian product of
//! four axes — workloads × categories × architectures × seeds — under
//! one simulator configuration. Architecture axes can be spelled out
//! explicitly or pulled from the paper's §VI design-space enumerations
//! ([`griffin_core::dse`]). Cell order is deterministic — row-major
//! over workload (slowest) → category → seed → architecture (fastest),
//! see [`SweepSpec::cells`] — which is what lets the executor return
//! identical reports for any worker count.

use griffin_core::accelerator::Workload;
use griffin_core::arch::ArchSpec;
use griffin_core::category::DnnCategory;
use griffin_core::dse;
use griffin_sim::config::SimConfig;
use griffin_workloads::suite::{build_workload, drawn_mask_elements, Benchmark};
use griffin_workloads::synth::{
    drawn_layer_elements, drawn_workload_elements, synthetic_layer, synthetic_workload,
};

use crate::fingerprint::{Fingerprintable, Hasher};

/// One workload axis entry: either a Table-IV benchmark network, a
/// multi-layer synthetic network, or a single ad-hoc GEMM layer.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// One of the six Table-IV benchmarks, masks rebuilt per seed.
    Suite(Benchmark),
    /// `synthetic_workload` with the given layer count.
    Synthetic {
        /// Display name.
        name: String,
        /// Number of layers.
        layers: usize,
    },
    /// A single ad-hoc GEMM layer with explicit densities (the
    /// category axis still controls morphing, not the masks).
    AdHoc {
        /// Display name.
        name: String,
        /// GEMM M dimension.
        m: usize,
        /// GEMM K dimension.
        k: usize,
        /// GEMM N dimension.
        n: usize,
        /// Activation nonzero fraction.
        a_density: f64,
        /// Weight nonzero fraction.
        b_density: f64,
    },
}

impl WorkloadSpec {
    /// Display name of the workload.
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::Suite(b) => b.info().name.to_string(),
            WorkloadSpec::Synthetic { name, .. } | WorkloadSpec::AdHoc { name, .. } => name.clone(),
        }
    }

    /// Builds the concrete workload for one category and seed.
    ///
    /// # Errors
    ///
    /// Returns the shape validation error for degenerate ad-hoc
    /// dimensions; suite and synthetic workloads never fail.
    pub fn build(
        &self,
        category: DnnCategory,
        seed: u64,
    ) -> Result<Workload, griffin_tensor::error::TensorError> {
        match self {
            WorkloadSpec::Suite(b) => Ok(build_workload(*b, category, seed)),
            WorkloadSpec::Synthetic { name, layers } => {
                synthetic_workload(name, category, *layers, seed)
            }
            WorkloadSpec::AdHoc {
                name,
                m,
                k,
                n,
                a_density,
                b_density,
            } => {
                let layer = synthetic_layer(*m, *k, *n, *b_density, *a_density, seed)?;
                Ok(Workload::new(name.clone(), category, vec![layer]))
            }
        }
    }

    /// What [`build`](WorkloadSpec::build) costs for one category, as
    /// the mask elements it draws at random, computed from the layer
    /// shapes without building anything. The seed does not change it.
    pub fn build_cost(&self, category: DnnCategory) -> usize {
        match self {
            WorkloadSpec::Suite(b) => drawn_mask_elements(*b, category),
            WorkloadSpec::Synthetic { layers, .. } => drawn_workload_elements(category, *layers),
            WorkloadSpec::AdHoc {
                m,
                k,
                n,
                a_density,
                b_density,
                ..
            } => drawn_layer_elements(*m, *k, *n, *b_density, *a_density),
        }
    }
}

impl Fingerprintable for WorkloadSpec {
    fn feed(&self, h: &mut Hasher) {
        match self {
            WorkloadSpec::Suite(b) => {
                h.str("suite").str(b.info().name);
            }
            WorkloadSpec::Synthetic { name, layers } => {
                h.str("synthetic").str(name).usize(*layers);
            }
            WorkloadSpec::AdHoc {
                name,
                m,
                k,
                n,
                a_density,
                b_density,
            } => {
                h.str("adhoc")
                    .str(name)
                    .usize(*m)
                    .usize(*k)
                    .usize(*n)
                    .f64(*a_density)
                    .f64(*b_density);
            }
        }
    }
}

/// An architecture-family enumeration used as a spec axis (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchFamily {
    /// `Sparse.A` under AMUX/BMUX fan-in limits.
    SparseA {
        /// Mux fan-in bound.
        max_fanin: usize,
    },
    /// `Sparse.B` under the AMUX fan-in limit.
    SparseB {
        /// Mux fan-in bound.
        max_fanin: usize,
    },
    /// `Sparse.AB` under the AMUX fan-in limit, `da3 = 0`.
    SparseAB {
        /// Mux fan-in bound.
        max_fanin: usize,
    },
}

impl ArchFamily {
    /// The enumerated design points of this family.
    pub fn enumerate(&self) -> Vec<ArchSpec> {
        match self {
            ArchFamily::SparseA { max_fanin } => dse::enumerate_sparse_a(*max_fanin),
            ArchFamily::SparseB { max_fanin } => dse::enumerate_sparse_b(*max_fanin),
            ArchFamily::SparseAB { max_fanin } => dse::enumerate_sparse_ab(*max_fanin),
        }
    }
}

/// A declarative sweep campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Campaign name (appears in reports).
    pub name: String,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Category axis.
    pub categories: Vec<DnnCategory>,
    /// Architecture axis.
    pub archs: Vec<ArchSpec>,
    /// Mask-seed axis.
    pub seeds: Vec<u64>,
    /// Simulator configuration shared by every cell.
    pub sim: SimConfig,
}

/// One cell of the campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in the deterministic grid order.
    pub index: usize,
    /// Workload axis value.
    pub workload: WorkloadSpec,
    /// Category axis value.
    pub category: DnnCategory,
    /// Architecture axis value.
    pub arch: ArchSpec,
    /// Mask seed.
    pub seed: u64,
}

impl SweepSpec {
    /// An empty campaign with the default simulator configuration.
    pub fn new(name: impl Into<String>) -> Self {
        SweepSpec {
            name: name.into(),
            workloads: Vec::new(),
            categories: Vec::new(),
            archs: Vec::new(),
            seeds: vec![0],
            sim: SimConfig::default(),
        }
    }

    /// Adds one benchmark workload.
    pub fn benchmark(mut self, b: Benchmark) -> Self {
        self.workloads.push(WorkloadSpec::Suite(b));
        self
    }

    /// Adds all six Table-IV benchmarks.
    pub fn full_suite(mut self) -> Self {
        self.workloads
            .extend(Benchmark::ALL.into_iter().map(WorkloadSpec::Suite));
        self
    }

    /// Adds a synthetic multi-layer workload.
    pub fn synthetic(mut self, name: impl Into<String>, layers: usize) -> Self {
        self.workloads.push(WorkloadSpec::Synthetic {
            name: name.into(),
            layers,
        });
        self
    }

    /// Adds a single ad-hoc GEMM layer.
    #[allow(clippy::too_many_arguments)]
    pub fn adhoc_layer(
        mut self,
        name: impl Into<String>,
        m: usize,
        k: usize,
        n: usize,
        a_density: f64,
        b_density: f64,
    ) -> Self {
        self.workloads.push(WorkloadSpec::AdHoc {
            name: name.into(),
            m,
            k,
            n,
            a_density,
            b_density,
        });
        self
    }

    /// Adds one category.
    pub fn category(mut self, c: DnnCategory) -> Self {
        self.categories.push(c);
        self
    }

    /// Adds several categories.
    pub fn categories(mut self, cs: impl IntoIterator<Item = DnnCategory>) -> Self {
        self.categories.extend(cs);
        self
    }

    /// Adds one architecture.
    pub fn arch(mut self, a: ArchSpec) -> Self {
        self.archs.push(a);
        self
    }

    /// Adds several architectures.
    pub fn archs(mut self, archs: impl IntoIterator<Item = ArchSpec>) -> Self {
        self.archs.extend(archs);
        self
    }

    /// Adds a whole enumerated §VI design family.
    pub fn family(self, f: ArchFamily) -> Self {
        self.archs(f.enumerate())
    }

    /// Replaces the seed axis (the default is the single seed 0).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the simulator configuration.
    pub fn sim(mut self, cfg: SimConfig) -> Self {
        self.sim = cfg;
        self
    }

    /// Whether every axis is populated.
    pub fn is_runnable(&self) -> bool {
        !self.workloads.is_empty()
            && !self.categories.is_empty()
            && !self.archs.is_empty()
            && !self.seeds.is_empty()
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.categories.len() * self.archs.len() * self.seeds.len()
    }

    /// Materializes the grid in its deterministic row-major order:
    /// workload (slowest) → category → seed → architecture (fastest).
    /// Architectures vary fastest so that consecutive cells share a
    /// workload, which the executor exploits for workload reuse.
    pub fn cells(&self) -> Vec<Cell> {
        let mut v = Vec::with_capacity(self.cell_count());
        let mut index = 0;
        for w in &self.workloads {
            for &c in &self.categories {
                for &s in &self.seeds {
                    for a in &self.archs {
                        v.push(Cell {
                            index,
                            workload: w.clone(),
                            category: c,
                            arch: a.clone(),
                            seed: s,
                        });
                        index += 1;
                    }
                }
            }
        }
        v
    }
}

impl Cell {
    /// The stable content fingerprint of this scenario: everything the
    /// simulation result depends on (workload, category, architecture,
    /// seed, simulator configuration) and nothing it doesn't (grid
    /// position, worker count).
    pub fn fingerprint(&self, sim: &SimConfig) -> crate::fingerprint::Fingerprint {
        let mut h = Hasher::new();
        h.str("griffin-sweep-cell-v1")
            .feed(&self.workload)
            .feed(&self.category)
            .feed(&self.arch)
            .u64(self.seed)
            .feed(sim);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_cost_ranks_by_the_masks_a_build_draws() {
        let synth = |layers| WorkloadSpec::Synthetic {
            name: "s".into(),
            layers,
        };
        assert!(synth(4).build_cost(DnnCategory::AB) > synth(4).build_cost(DnnCategory::B));
        assert!(synth(4).build_cost(DnnCategory::B) > synth(4).build_cost(DnnCategory::A));
        assert_eq!(synth(4).build_cost(DnnCategory::Dense), 0);
        assert!(synth(5).build_cost(DnnCategory::B) > synth(4).build_cost(DnnCategory::B));
        let bert = WorkloadSpec::Suite(Benchmark::Bert);
        for cat in [DnnCategory::A, DnnCategory::B] {
            assert!(bert.build_cost(DnnCategory::AB) > bert.build_cost(cat));
        }
        let adhoc = |a_density| WorkloadSpec::AdHoc {
            name: "g".into(),
            m: 2,
            k: 3,
            n: 5,
            a_density,
            b_density: 0.5,
        };
        assert_eq!(adhoc(1.0).build_cost(DnnCategory::Dense), 15);
        assert_eq!(adhoc(0.5).build_cost(DnnCategory::Dense), 21);
    }

    fn spec() -> SweepSpec {
        SweepSpec::new("t")
            .benchmark(Benchmark::AlexNet)
            .synthetic("syn", 2)
            .category(DnnCategory::B)
            .category(DnnCategory::Dense)
            .arch(ArchSpec::dense())
            .arch(ArchSpec::sparse_b_star())
            .seeds([1, 2])
    }

    #[test]
    fn cell_count_is_product_of_axes() {
        let s = spec();
        assert_eq!(s.cell_count(), 2 * 2 * 2 * 2);
        assert_eq!(s.cells().len(), s.cell_count());
        assert!(s.is_runnable());
        assert!(!SweepSpec::new("empty").is_runnable());
    }

    #[test]
    fn cells_are_indexed_in_order() {
        let cells = spec().cells();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Arch varies fastest.
        assert_eq!(cells[0].arch, ArchSpec::dense());
        assert_eq!(cells[1].arch, ArchSpec::sparse_b_star());
        assert_eq!(cells[0].seed, cells[1].seed);
    }

    #[test]
    fn family_axis_enumerates_dse() {
        let s = SweepSpec::new("fam").family(ArchFamily::SparseB { max_fanin: 8 });
        assert_eq!(s.archs, griffin_core::dse::enumerate_sparse_b(8));
        assert!(s.archs.len() > 30, "family axis should be a real sweep");
    }

    #[test]
    fn fingerprints_distinguish_every_axis() {
        let sim = SimConfig::default();
        let cells = spec().cells();
        let mut fps: Vec<_> = cells.iter().map(|c| c.fingerprint(&sim)).collect();
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), cells.len(), "every cell fingerprint distinct");
    }

    #[test]
    fn fingerprint_ignores_grid_position() {
        let sim = SimConfig::default();
        let mut a = spec().cells();
        let b = spec().cells();
        // Same logical cell at a different index keeps its fingerprint.
        a[3].index = 999;
        assert_eq!(a[3].fingerprint(&sim), b[3].fingerprint(&sim));
    }

    #[test]
    fn adhoc_layers_build() {
        let w = WorkloadSpec::AdHoc {
            name: "l".into(),
            m: 32,
            k: 128,
            n: 32,
            a_density: 0.5,
            b_density: 0.2,
        };
        let wl = w.build(DnnCategory::AB, 7).unwrap();
        assert_eq!(wl.layers.len(), 1);
        assert!(wl.layers[0].b_density() < 0.4);
    }

    #[test]
    fn suite_builds_respect_seed() {
        let w = WorkloadSpec::Suite(Benchmark::AlexNet);
        let a = w.build(DnnCategory::B, 1).unwrap();
        let b = w.build(DnnCategory::B, 1).unwrap();
        assert_eq!(a.layers[1].b, b.layers[1].b, "same seed, same masks");
    }
}
