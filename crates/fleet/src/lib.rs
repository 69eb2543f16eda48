//! Sharded campaign orchestration for the Griffin sweep engine.
//!
//! `griffin-sweep` executes one campaign on one machine; this crate
//! scales that to a **fleet**: the grid is deterministically partitioned
//! into shards by cell fingerprint, shards run in-process or as
//! subprocesses with an append-only JSONL event stream, completions are
//! journaled for crash-safe resume, and per-shard caches are unioned by
//! fingerprint into a merged cache from which the final report is
//! assembled — **byte-identical** to a single-process sweep of the same
//! spec.
//!
//! Campaigns are **fault-tolerant**: a worker that dies or goes silent
//! past the heartbeat timeout has its remaining cells re-queued onto a
//! respawned worker (bounded by
//! [`FleetConfig::max_shard_retries`](coordinator::FleetConfig)), and
//! every recovery path is exercised deterministically through
//! [`fault::FaultPlan`].
//!
//! * [`plan`] — content-addressed shard partitioning and the campaign
//!   spec fingerprint that guards resume and worker handshakes,
//! * [`events`] — the JSONL event schema, sinks, and the worker stdout
//!   protocol,
//! * [`journal`] — the append-only completed-cell journal behind
//!   `--resume`,
//! * [`jsonl`] — the one-record-one-write line framing every
//!   append-only stream (events, journal, serve wire) goes through,
//! * [`tail`] — the truncation-tolerant line-tail rule shared by the
//!   journal loader and live event-stream consumers,
//! * [`coordinator`] — the in-process and subprocess campaign drivers
//!   plus the shard-worker entry point,
//! * [`transport`] — how workers are launched on a machine
//!   ([`LocalExec`] subprocesses, [`SshExec`] remote workers, and the
//!   fault-enacting [`ChaosExec`] decorator behind multi-host chaos
//!   tests),
//! * [`fault`] — deterministic fault injection (worker kill/stall,
//!   host partition/refusal, cache and journal corruption) for chaos
//!   tests.
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
//! let fleet = run_fleet(&spec, &FleetConfig::new(&dir, 2), &mut NullSink).unwrap();
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
pub mod transport;

pub use coordinator::{
    default_events_path, journal_path, merged_cache_dir, retry_backoff_ms, run_fleet,
    run_fleet_hosted, run_fleet_spawned, run_shard_worker, shard_cache_dir, verify_shard_sources,
    FleetConfig, FleetError, WorkerConfig, WorkerSpawn,
};
pub use events::{Event, EventError, EventSink, JsonlSink, NullSink, EVENTS_FORMAT};
pub use fault::{AttemptGate, Fault, FaultError, FaultPlan, ATTEMPT_ENV, FAULT_ENV};
pub use journal::{Journal, JournalError, JournalHeader, JOURNAL_FORMAT};
pub use plan::{host_of, remaining_cells, shard_of, spec_fingerprint, PlanError, ShardPlan};
pub use tail::{complete_lines, split_partial_tail, TailCursor, TailPoll};
pub use transport::{ChaosExec, ExecTransport, LocalExec, SshExec, WorkerHandle, WorkerInvocation};
