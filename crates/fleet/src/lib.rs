//! Resumable campaign orchestration for the Griffin sweep engine.
//!
//! `griffin-sweep` executes one campaign in one pass; this crate makes
//! that pass a **fleet** campaign that survives being stopped: progress
//! streams as append-only JSONL events, completions are journaled for
//! crash-safe resume, and the pass writes one campaign cache. The
//! report is **byte-identical** to a single-process sweep of the same
//! spec.
//!
//! Campaigns are **resumable**: a failure, an interrupt or a cancel
//! fails the campaign with a terminal `campaign_failed` event, and
//! `--resume` skips every journaled cell and finishes it. Every failure
//! and recovery path is exercised deterministically through
//! [`fault::FaultPlan`].
//!
//! * [`plan`] — the campaign spec fingerprint that guards resume,
//! * [`events`] — the JSONL event schema and its sinks,
//! * [`journal`] — the append-only completed-cell journal behind
//!   `--resume`,
//! * [`jsonl`] — the one-record-one-write line framing every
//!   append-only stream (events, journal, serve wire) goes through,
//! * [`tail`] — the truncation-tolerant line-tail rule shared by the
//!   journal loader and live event-stream consumers,
//! * [`coordinator`] — the campaign coordinator ([`run_fleet`]),
//! * [`fault`] — deterministic fault injection (a kill, cache and
//!   journal corruption) for chaos tests.
//!
//! # Example
//!
//! ```
//! use griffin_fleet::coordinator::{run_fleet, FleetConfig};
//! use griffin_fleet::events::NullSink;
//! use griffin_sweep::executor::run_campaign;
//! use griffin_sweep::report::to_csv;
//! use griffin_sweep::cache::ResultCache;
//! use griffin_sweep::spec::SweepSpec;
//! use griffin_core::arch::ArchSpec;
//! use griffin_core::category::DnnCategory;
//!
//! let spec = SweepSpec::new("demo")
//!     .adhoc_layer("gemm", 32, 256, 32, 1.0, 0.2)
//!     .category(DnnCategory::B)
//!     .archs([ArchSpec::dense(), ArchSpec::sparse_b_star()])
//!     .seeds([1, 2]);
//!
//! let dir = std::env::temp_dir().join(format!("fleet-doc-{}", std::process::id()));
//! let fleet = run_fleet(&spec, &FleetConfig::new(&dir, 2), &mut NullSink).unwrap(); // 2 workers
//! let single = run_campaign(&spec, &ResultCache::in_memory(), 1).unwrap();
//! assert_eq!(to_csv(&fleet), to_csv(&single)); // byte-identical
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod coordinator;
pub mod events;
pub mod fault;
pub mod journal;
pub mod jsonl;
pub mod plan;
pub mod tail;

pub use coordinator::{
    cache_dir, default_events_path, journal_path, run_fleet, FleetConfig, FleetError,
};
pub use events::{Event, EventError, EventSink, JsonlSink, NullSink, EVENTS_FORMAT};
pub use fault::{Fault, FaultError, FaultPlan, FAULT_ENV};
pub use journal::{Journal, JournalError, JournalHeader, JOURNAL_FORMAT};
pub use plan::spec_fingerprint;
pub use tail::{complete_lines, split_partial_tail, TailCursor, TailPoll};
