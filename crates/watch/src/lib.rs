//! Live observability for Griffin fleet campaigns.
//!
//! A fleet run narrates itself through an append-only JSONL event
//! stream (`griffin-fleet-events/4`); this crate is the consumer side:
//! it attaches to that stream — live or finished — **without ever
//! writing to the run directory**, folds it into a [`CampaignModel`],
//! and renders the result as a terminal dashboard, a machine-readable
//! JSON summary, or a self-contained static HTML report.
//!
//! The design splits cleanly along purity lines:
//!
//! * [`model`] — [`CampaignModel`], a *pure* replay fold over
//!   [`griffin_fleet::events::Event`]: no clock, no I/O, identical on
//!   live, finished, and resumed streams, property-testable against
//!   arbitrary event sequences. Time-derived rates ([`RateTracker`])
//!   are clocked explicitly by the caller.
//! * [`follow`] — [`Watcher`], the incremental tailer: a
//!   [`griffin_fleet::TailCursor`] (the fleet's torn-line rule)
//!   feeding the model, poll by poll.
//! * [`render`] — plain-ANSI [`dashboard`] frames and the
//!   [`status_line`] fallback for pipes and dumb terminals.
//! * [`html`] — [`report_html`], one inline-everything page for
//!   post-hoc campaign archaeology.
//!
//! # Example: summarizing a finished run
//!
//! ```no_run
//! use griffin_watch::CampaignModel;
//!
//! let m = CampaignModel::from_file("runs/fleet/events.jsonl".as_ref()).unwrap();
//! println!("{}", m.summary().write()); // griffin-watch-summary/2
//! assert!(m.state.is_terminal());
//! ```

pub mod follow;
pub mod html;
pub mod model;
pub mod render;

pub use follow::{PollReport, WatchOutcome, Watcher, DEFAULT_RATE_TAU_MS};
pub use html::report_html;
pub use model::{CampaignModel, CampaignState, RateTracker, SUMMARY_FORMAT};
pub use render::{dashboard, fmt_duration_ms, status_line};
