//! # Griffin
//!
//! A full Rust reproduction of *"Griffin: Rethinking Sparse Optimization
//! for Deep Learning Architectures"* (HPCA 2022). This façade crate
//! re-exports the workspace's public API:
//!
//! * [`tensor`] — matrices, GEMM shapes, sparsity generation
//!   ([`griffin_tensor`]),
//! * [`sim`] — the cycle-accurate borrowing simulator ([`griffin_sim`]),
//! * [`core`] — architecture configurations, hardware overhead and cost
//!   models, the Griffin hybrid, DSE ([`griffin_core`]),
//! * [`workloads`] — the six Table-IV benchmark networks
//!   ([`griffin_workloads`]),
//! * [`sweep`] — the parallel scenario-sweep campaign engine with
//!   result caching and CSV/JSON reports ([`griffin_sweep`]),
//! * [`fleet`] — resumable campaigns: one cancellable pass over the
//!   grid with JSONL event streaming and resume from the campaign cache
//!   ([`griffin_fleet`]),
//! * [`watch`] — fleet observability: live event-stream tailing, the
//!   replayable campaign model, terminal dashboards, JSON summaries and
//!   static HTML reports ([`griffin_watch`]),
//! * [`serve`] — the resident campaign daemon: a warm cache shared
//!   across campaigns behind the `griffin-serve-wire/1` JSONL socket
//!   protocol, with fingerprint dedup and event-stream fan-out
//!   ([`griffin_serve`]).
//!
//! # Quickstart
//!
//! Simulate a pruned ResNet-50-style layer on the Griffin hybrid
//! architecture and compare against the dense baseline:
//!
//! ```
//! use griffin::core::arch::ArchSpec;
//! use griffin::core::accelerator::Accelerator;
//! use griffin::workloads::synth::synthetic_layer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layer = synthetic_layer(196, 1152, 256, 0.19, 0.43, 42)?;
//! let griffin = Accelerator::with_defaults(ArchSpec::griffin());
//! let report = griffin.run_layer(&layer)?;
//! assert!(report.speedup() > 1.0); // sparse wins on a pruned layer
//! # Ok(())
//! # }
//! ```

pub mod telemetry;

pub use griffin_core as core;
pub use griffin_fleet as fleet;
pub use griffin_serve as serve;
pub use griffin_sim as sim;
pub use griffin_sweep as sweep;
pub use griffin_tensor as tensor;
pub use griffin_watch as watch;
pub use griffin_workloads as workloads;
