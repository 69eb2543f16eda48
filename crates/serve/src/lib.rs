//! Resident campaign daemon for the Griffin sweep engine.
//!
//! A one-shot `griffin-cli sweep` starts from a cold result cache on
//! every invocation. This crate keeps the cache resident: [`Daemon`]
//! holds one warm disk-backed
//! [`ResultCache`](griffin_sweep::cache::ResultCache) across campaigns,
//! queues scenario submissions under admission control, and
//! **deduplicates by scenario fingerprint** — two clients submitting
//! the same scenario share one execution and receive the identical
//! event stream.
//!
//! Clients speak `griffin-serve-wire/1` ([`wire`]): line-delimited
//! JSON over a unix socket or TCP ([`net`]), with hello/version
//! negotiation, submission by inline scenario text or daemon-side
//! path, mid-flight subscription, cancellation, aggregate status
//! (`griffin-serve-status/1`), and report retrieval. Each campaign
//! runs through the ordinary fleet coordinator with its events teed
//! ([`tee`]) to every subscriber and journaled to a per-campaign
//! directory, so `fleet watch`, `fleet report` and `--resume` keep
//! working on daemon-run campaigns unchanged — and the final reports
//! are byte-identical to a standalone `griffin-cli sweep` of the same
//! scenario.
//!
//! * [`wire`] — the versioned message set and its parser,
//! * [`tee`] — per-campaign replay-buffer broadcast of event streams,
//! * [`daemon`] — queue, dedup, warm state, retention, drain,
//! * [`net`] — unix/tcp listeners and the per-connection protocol loop,
//! * [`client`] — the connect/submit/subscribe/status helpers the CLI
//!   and the bench probe use.

pub mod client;
pub mod daemon;
pub mod net;
pub mod tee;
pub mod wire;

pub use client::{Client, ClientError};
pub use daemon::{Accepted, Daemon, ServeConfig, ServeError, STATUS_FORMAT};
pub use net::{serve_connections, Listener, ServeAddr, MAX_LINE_BYTES};
pub use tee::{Tee, TeeItem, TeeSink};
pub use wire::{Message, ReportKind, ScenarioSource, StreamOutcome, WireError, WIRE_FORMAT};
