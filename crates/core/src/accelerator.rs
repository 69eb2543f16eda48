//! Top-level accelerator API: run workloads, get cycles + efficiency.

use griffin_sim::config::{SimConfig, SparsityMode};
use griffin_sim::layer::GemmLayer;
use griffin_sim::pipeline::{simulate_layer, simulate_layer_family, simulate_network_with};
use griffin_sim::report::{LayerReport, NetworkReport};
use griffin_sim::scratch::SimScratch;
use griffin_tensor::error::TensorError;

use crate::arch::ArchSpec;
use crate::category::DnnCategory;
use crate::cost::{CostBreakdown, CostModel, Provision};
use crate::efficiency::Efficiency;

/// A benchmark workload: a named network lowered to GEMM layers, with
/// its Table-I category.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (e.g. `"ResNet50"`).
    pub name: String,
    /// Sparsity category, which Griffin morphs on.
    pub category: DnnCategory,
    /// The GEMM layers in execution order.
    pub layers: Vec<GemmLayer>,
}

impl Workload {
    /// Creates a workload.
    pub fn new(name: impl Into<String>, category: DnnCategory, layers: Vec<GemmLayer>) -> Self {
        Workload {
            name: name.into(),
            category,
            layers,
        }
    }

    /// Total dense-baseline latency in cycles on the given simulator
    /// configuration's core (replica-weighted).
    pub fn dense_cycles(&self, cfg: &SimConfig) -> u64 {
        self.layers.iter().map(|l| l.dense_cycles(cfg.core)).sum()
    }

    /// Mean weight-stream compression factor across layers (bytes per
    /// dense B element), used for SRAM provisioning.
    pub fn b_density(&self) -> f64 {
        if self.layers.is_empty() {
            return 1.0;
        }
        let total: f64 = self.layers.iter().map(|l| l.b_density()).sum();
        total / self.layers.len() as f64
    }
}

/// End-to-end result of running a workload on an architecture.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Architecture name.
    pub arch: String,
    /// Workload name.
    pub workload: String,
    /// Per-layer simulation results.
    pub network: NetworkReport,
    /// End-to-end speedup over the dense baseline.
    pub speedup: f64,
    /// Power/area cost of the architecture instance.
    pub cost: CostBreakdown,
    /// Effective TOPS/W at this speedup (Definition V.1).
    pub effective_tops_per_w: f64,
    /// Effective TOPS/mm² at this speedup.
    pub effective_tops_per_mm2: f64,
}

/// An architecture instance bound to a simulator configuration.
#[derive(Debug, Clone)]
pub struct Accelerator {
    spec: ArchSpec,
    cfg: SimConfig,
}

impl Accelerator {
    /// Creates an accelerator with an explicit simulator configuration.
    pub fn new(spec: ArchSpec, cfg: SimConfig) -> Self {
        Accelerator { spec, cfg }
    }

    /// Creates an accelerator with the default (paper) configuration.
    pub fn with_defaults(spec: ArchSpec) -> Self {
        Accelerator {
            spec,
            cfg: SimConfig::default(),
        }
    }

    /// The architecture specification.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Simulates a single layer, inferring its category from the mask
    /// densities (threshold 0.9) so that Griffin morphs correctly.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if the layer masks are inconsistent (the
    /// layer type validates on construction, so this is currently
    /// infallible in practice and reserved for future validation).
    pub fn run_layer(&self, layer: &GemmLayer) -> Result<LayerReport, TensorError> {
        let category = DnnCategory::infer(layer.a_density(), layer.b_density(), 0.9);
        let mode = self.spec.mode_for(category);
        Ok(simulate_layer(layer, mode, &self.cfg))
    }

    /// Runs a full workload: simulates every layer under the mode this
    /// architecture uses for the workload's category, prices the design
    /// (provisioned for the achieved speedup), and reports efficiency.
    pub fn run(&self, workload: &Workload) -> RunReport {
        self.run_with(workload, &mut SimScratch::new())
    }

    /// [`Accelerator::run`] with caller-provided simulation scratch —
    /// campaign workers keep one scratch per thread so steady-state
    /// tile simulation allocates nothing.
    pub fn run_with(&self, workload: &Workload, scratch: &mut SimScratch) -> RunReport {
        let mode = self.spec.mode_for(workload.category);
        self.finish(
            workload,
            simulate_network_with(&workload.layers, mode, &self.cfg, scratch),
        )
    }

    /// Runs a whole architecture *family* over K seed-variant workloads,
    /// returning `[accelerator][workload]` reports: the whole-network
    /// form of [`Accelerator::run_family_layer`], every report priced by
    /// [`Accelerator::finish`].
    ///
    /// When every accelerator shares this one's simulator configuration
    /// and every workload shares one category and depth, each layer goes
    /// through one [`Accelerator::run_family_layer`] call; anything else
    /// runs each (accelerator, workload) pair through
    /// [`Accelerator::run_with`]. Every report is **exactly** what
    /// `accels[i].run_with(workloads[j], ..)` returns, so sweep drivers
    /// may regroup work freely.
    pub fn run_family_batch(
        accels: &[&Accelerator],
        workloads: &[&Workload],
        scratch: &mut SimScratch,
    ) -> Vec<Vec<RunReport>> {
        let depth = workloads.first().map_or(0, |w| w.layers.len());
        let shared = Self::family_modes(accels, workloads).is_some()
            && workloads.iter().all(|w| w.layers.len() == depth);
        if !shared {
            return accels
                .iter()
                .map(|a| workloads.iter().map(|w| a.run_with(w, scratch)).collect())
                .collect();
        }
        let mut networks = vec![vec![NetworkReport::default(); workloads.len()]; accels.len()];
        for index in 0..depth {
            let layer = Self::run_family_layer(accels, workloads, index, scratch);
            for (row, layer_row) in networks.iter_mut().zip(layer) {
                for (net, l) in row.iter_mut().zip(layer_row) {
                    net.layers.push(l);
                }
            }
        }
        accels
            .iter()
            .zip(networks)
            .map(|(a, row)| {
                workloads
                    .iter()
                    .zip(row)
                    .map(|(w, network)| a.finish(w, network))
                    .collect()
            })
            .collect()
    }

    /// Simulates layer `index` of K seed-variant workloads under a whole
    /// architecture family, returning `[accelerator][workload]` layer
    /// reports — the per-layer slice of [`Accelerator::run_family_batch`]
    /// for drivers that spread one family's layers over several
    /// workers. Collect every layer of a workload in order into a
    /// [`NetworkReport`] and [`Accelerator::finish`] it; the result is
    /// exactly what `run_family_batch` reports.
    ///
    /// # Panics
    ///
    /// Unless the family is non-empty, its accelerators share one
    /// simulator configuration and its workloads one category; and when
    /// a workload has no layer `index`.
    pub fn run_family_layer(
        accels: &[&Accelerator],
        workloads: &[&Workload],
        index: usize,
        scratch: &mut SimScratch,
    ) -> Vec<Vec<LayerReport>> {
        let modes = Self::family_modes(accels, workloads)
            .expect("a family needs one simulator configuration and one workload category");
        let layers: Vec<&GemmLayer> = workloads.iter().map(|w| &w.layers[index]).collect();
        simulate_layer_family(&layers, &modes, &accels[0].cfg, scratch)
    }

    /// The sparsity modes a family simulates under when it can share one
    /// simulation call — every accelerator on one simulator
    /// configuration, every workload of one category — and `None`
    /// otherwise (an empty family included).
    fn family_modes(accels: &[&Accelerator], workloads: &[&Workload]) -> Option<Vec<SparsityMode>> {
        let (first_a, first_w) = (accels.first()?, workloads.first()?);
        let same_cfg = accels.iter().all(|a| a.cfg == first_a.cfg);
        let same_cat = workloads.iter().all(|w| w.category == first_w.category);
        (same_cfg && same_cat).then(|| {
            accels
                .iter()
                .map(|a| a.spec.mode_for(first_w.category))
                .collect()
        })
    }

    /// Prices the design for a simulated network and assembles the run
    /// report: the step after simulation in every run entry, public so
    /// drivers that simulate layer by layer
    /// ([`Accelerator::run_family_layer`]) can finish a workload once
    /// all its layers are in. Provisioning needs the whole workload
    /// (its mean B density), not just one layer.
    pub fn finish(&self, workload: &Workload, network: NetworkReport) -> RunReport {
        let speedup = if workload.layers.is_empty() {
            1.0
        } else {
            network.speedup()
        };

        let provision = Provision {
            speedup,
            b_stream_factor: if self.spec.mode_for(workload.category).compresses_b() {
                // nonzero values + ~4 metadata bits per stored element
                (workload.b_density() * 1.5).min(1.0)
            } else {
                1.0
            },
        };
        let cost = CostModel::estimate(&self.spec, self.cfg.core, provision);
        let eff = Efficiency::new(self.cfg.core, &cost, speedup);

        RunReport {
            arch: self.spec.name.clone(),
            workload: workload.name.clone(),
            network,
            speedup,
            cost,
            effective_tops_per_w: eff.tops_per_w,
            effective_tops_per_mm2: eff.tops_per_mm2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_tensor::shape::GemmShape;

    fn wl(name: &str, category: DnnCategory, da: f64, db: f64) -> Workload {
        let layers = (0..3)
            .map(|i| {
                GemmLayer::with_densities(GemmShape::new(32, 512, 64).unwrap(), da, db, i as u64)
                    .unwrap()
            })
            .collect();
        Workload::new(name, category, layers)
    }

    #[test]
    fn dense_arch_on_dense_workload_is_unit_speedup() {
        let acc = Accelerator::with_defaults(ArchSpec::dense());
        let r = acc.run(&wl("dense", DnnCategory::Dense, 1.0, 1.0));
        assert!((r.speedup - 1.0).abs() < 1e-9);
        assert!(r.effective_tops_per_w > 10.0); // baseline ~10.8 TOPS/W
    }

    #[test]
    fn sparse_b_star_wins_on_pruned_workload() {
        let base = Accelerator::with_defaults(ArchSpec::dense());
        let star = Accelerator::with_defaults(ArchSpec::sparse_b_star());
        let w = wl("pruned", DnnCategory::B, 1.0, 0.2);
        let rb = base.run(&w);
        let rs = star.run(&w);
        assert!(rs.speedup > 1.8, "speedup {}", rs.speedup);
        assert!(rs.effective_tops_per_w > rb.effective_tops_per_w);
    }

    #[test]
    fn griffin_morphs_and_beats_downgrade_on_dnn_b() {
        let g = Accelerator::with_defaults(ArchSpec::griffin());
        let ab = Accelerator::with_defaults(ArchSpec::sparse_ab_star());
        let w = wl("pruned", DnnCategory::B, 1.0, 0.2);
        let rg = g.run(&w);
        let rab = ab.run(&w);
        // Griffin's conf.B(8,0,1) sees a 9-deep window; the dual-sparse
        // hardware running as Sparse.AB on a dense-A workload behaves
        // like its downgrade. Griffin must be at least as fast.
        assert!(
            rg.speedup >= rab.speedup * 0.99,
            "griffin {} vs ab {}",
            rg.speedup,
            rab.speedup
        );
    }

    #[test]
    fn run_layer_infers_category() {
        let g = Accelerator::with_defaults(ArchSpec::griffin());
        let dense_layer =
            GemmLayer::with_densities(GemmShape::new(32, 256, 32).unwrap(), 1.0, 1.0, 1).unwrap();
        let r = g.run_layer(&dense_layer).unwrap();
        assert!(
            (r.speedup() - 1.0).abs() < 1e-6,
            "dense layer has no sparsity to exploit"
        );
    }

    #[test]
    fn report_carries_names() {
        let acc = Accelerator::with_defaults(ArchSpec::sparse_a_star());
        let r = acc.run(&wl("relu-net", DnnCategory::A, 0.5, 1.0));
        assert_eq!(r.arch, "Sparse.A*");
        assert_eq!(r.workload, "relu-net");
        assert_eq!(r.network.layers.len(), 3);
    }

    #[test]
    fn empty_workload_reports_unit_speedup() {
        let acc = Accelerator::with_defaults(ArchSpec::dense());
        let r = acc.run(&Workload::new("empty", DnnCategory::Dense, vec![]));
        assert_eq!(r.speedup, 1.0);
    }
}
