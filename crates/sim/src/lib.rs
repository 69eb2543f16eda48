//! Cycle-accurate borrowing simulator for the Griffin accelerator family.
//!
//! The Griffin paper (HPCA 2022) models every sparse architecture —
//! `Sparse.A(da1,da2,da3)`, `Sparse.B(db1,db2,db3)` and
//! `Sparse.AB(da1..db3)` — by *how far in time and space a multiplier can
//! borrow a nonzero operation to replace a zero one*. This crate is the
//! executable form of that model:
//!
//! * [`window`] — borrowing windows along the three blocked dimensions,
//! * [`shuffle`] — the rotation-based load-balance shuffler (§III),
//! * [`engine`] — the greedy borrowing scheduler, a per-cycle frontier
//!   loop over a flat CSR 4-D op grid (with the naive policy retained in
//!   [`engine::reference`] for differential testing),
//! * [`grid`] — word-level op-grid builders over mask bit words,
//! * [`scratch`] — reusable simulation buffers (the zero-alloc
//!   steady-state contract for sweep workers),
//! * [`single`] — `Sparse.A` / `Sparse.B` tile simulation,
//! * [`dual`] — `Sparse.AB` tile simulation (the 7-step pipeline of
//!   Figure 3),
//! * [`sparten`] — the SparTen-style per-MAC comparison model,
//! * [`bandwidth`] — SRAM/DRAM traffic bounds and stall accounting,
//! * [`pipeline`] — layer- and network-level simulation with
//!   output-synchronization semantics and sampled fidelity,
//! * [`layer`], [`config`], [`report`] — the I/O types.
//!
//! # Example
//!
//! ```
//! use griffin_sim::config::{Fidelity, SimConfig, SparsityMode};
//! use griffin_sim::layer::GemmLayer;
//! use griffin_sim::pipeline::simulate_layer;
//! use griffin_sim::window::BorrowWindow;
//! use griffin_tensor::gen::TensorGen;
//! use griffin_tensor::shape::GemmShape;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A pruned layer: 20%-dense weights, dense activations (DNN.B).
//! let shape = GemmShape::new(64, 1024, 64)?;
//! let mut gen = TensorGen::seeded(1);
//! let layer = GemmLayer::new(
//!     shape,
//!     gen.bernoulli_mask(shape.m, shape.k, 1.0),
//!     gen.bernoulli_mask(shape.k, shape.n, 0.2),
//! )?;
//!
//! // Sparse.B*(4,0,1) with shuffling — the paper's optimal weight-sparse design.
//! let mode = SparsityMode::SparseB { win: BorrowWindow::new(4, 0, 1), shuffle: true };
//! let report = simulate_layer(&layer, mode, &SimConfig::default());
//! assert!(report.speedup() > 2.0);
//! # Ok(())
//! # }
//! ```

pub mod bandwidth;
pub mod config;
pub mod dual;
pub mod engine;
pub mod functional;
pub mod grid;
pub mod layer;
pub mod pipeline;
pub mod report;
mod sampling;
pub mod scratch;
pub mod shuffle;
pub mod single;
pub mod sparten;
pub mod window;

pub use config::{Fidelity, Priority, SimConfig, SparsityMode};
pub use layer::GemmLayer;
pub use pipeline::{simulate_layer, simulate_layer_with, simulate_network, simulate_network_with};
pub use report::{LayerReport, NetworkReport};
pub use scratch::SimScratch;
pub use window::BorrowWindow;
