//! Parallel scenario-sweep campaign engine for the Griffin reproduction.
//!
//! The Griffin paper's methodology (§VI) is a *design-space sweep*:
//! hundreds of `Sparse.A` / `Sparse.B` / `Sparse.AB` points simulated
//! across benchmarks and DNN categories, then Pareto-reduced. This crate
//! turns that from a serial loop into a campaign engine:
//!
//! * [`spec`] — declarative [`SweepSpec`] grids over workloads ×
//!   categories × architectures × seeds, with the §VI design-family
//!   enumerations as an axis,
//! * [`executor`] — a multi-threaded work-queue executor whose reports
//!   are byte-identical for any worker count,
//! * [`fingerprint`] — stable 128-bit content fingerprints of scenario
//!   cells (what the cache is addressed by),
//! * [`cache`] — an in-memory + on-disk result cache, so re-runs and
//!   overlapping campaigns skip completed cells,
//! * [`aggregate`] — summaries, per-architecture rollups and Pareto
//!   extraction via [`griffin_core::dse::pareto_front`],
//! * [`scenario`] — declarative scenario files (a TOML-subset) that
//!   define whole campaigns as versionable data, plus the token
//!   registry the CLI and parser share,
//! * [`report`] — deterministic, dependency-free CSV/JSON writers and
//!   parsers,
//! * [`json`] — the small JSON engine behind the cache and reports.
//!
//! # Example
//!
//! ```
//! use griffin_sweep::cache::ResultCache;
//! use griffin_sweep::executor::run_campaign;
//! use griffin_sweep::spec::SweepSpec;
//! use griffin_core::arch::ArchSpec;
//! use griffin_core::category::DnnCategory;
//!
//! let spec = SweepSpec::new("demo")
//!     .adhoc_layer("gemm", 32, 256, 32, 1.0, 0.2)
//!     .category(DnnCategory::B)
//!     .archs([ArchSpec::dense(), ArchSpec::sparse_b_star(), ArchSpec::griffin()])
//!     .seeds([1, 2]);
//!
//! let cache = ResultCache::in_memory();
//! let report = run_campaign(&spec, &cache, 4).unwrap();
//! assert_eq!(report.cells.len(), 6);
//!
//! // A second run of the same campaign is served from the cache.
//! let rerun = run_campaign(&spec, &cache, 1).unwrap();
//! assert_eq!(rerun.cache.hits, 6);
//! assert_eq!(rerun.cells, report.cells); // any worker count, same output
//! ```

pub mod aggregate;
pub mod cache;
pub mod executor;
pub mod fingerprint;
pub mod json;
pub mod report;
pub mod scenario;
pub mod spec;

pub use aggregate::{pareto_designs, per_arch, summarize, ArchAggregate, Summary};
pub use cache::{
    disk_stats, merge_dirs, prune_dir, CacheStats, CellMetrics, DiskCacheInfo, MergeReport,
    PruneReport, ResultCache,
};
pub use executor::{
    default_workers, no_observer, run_campaign, run_cells, run_cells_bounded, workload_memo_stats,
    CampaignReport, CellEvent, CellRecord, MemoStats, SweepError,
};
pub use fingerprint::Fingerprint;
pub use scenario::{ArchEntry, FleetSettings, Scenario, ScenarioError, ScenarioProvenance};
pub use spec::{ArchFamily, Cell, SweepSpec, WorkloadSpec};
