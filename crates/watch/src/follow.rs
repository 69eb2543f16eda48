//! Incremental follower: a [`TailCursor`] feeding a [`CampaignModel`].
//!
//! [`Watcher`] owns the cursor, the model, and the [`RateTracker`]; one
//! [`poll`](Watcher::poll) drains whatever the producer appended and
//! folds it. The watcher never writes to the run directory — it opens
//! the stream read-only, so fleet output (reports, caches, journal)
//! stays byte-identical whether or not anyone is watching.
//!
//! The driver loop (sleep cadence, terminal redraws, exit codes) lives
//! in the caller; this type holds only the stream-to-model plumbing so
//! it is testable without a clock or a terminal.

use crate::model::{CampaignModel, RateTracker};
use griffin_fleet::TailCursor;
use std::io;
use std::path::{Path, PathBuf};

/// Default smoothing window for the live cells/sec EMA (ms).
pub const DEFAULT_RATE_TAU_MS: f64 = 10_000.0;

/// How one poll changed the watcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollReport {
    /// Events folded by this poll (0 = nothing new).
    pub folded: usize,
    /// The stream was truncated and re-grown by a fresh campaign; the
    /// model was rebuilt from the new stream's first lines.
    pub restarted: bool,
}

/// A live event-stream follower.
#[derive(Debug)]
pub struct Watcher {
    cursor: TailCursor,
    model: CampaignModel,
    rates: RateTracker,
}

impl Watcher {
    /// A watcher over `events_path` (which need not exist yet — the
    /// fleet may not have started).
    pub fn new(events_path: impl Into<PathBuf>) -> Self {
        Watcher {
            cursor: TailCursor::new(events_path),
            model: CampaignModel::new(),
            rates: RateTracker::new(DEFAULT_RATE_TAU_MS),
        }
    }

    /// The followed stream path.
    pub fn path(&self) -> &Path {
        self.cursor.path()
    }

    /// The current model.
    pub fn model(&self) -> &CampaignModel {
        &self.model
    }

    /// The caller-clocked throughput tracker.
    pub fn rates(&self) -> &RateTracker {
        &self.rates
    }

    /// Drains newly appended complete lines into the model and feeds
    /// the rate tracker at `now_ms` (any monotone caller clock).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the stream not existing
    /// yet.
    pub fn poll(&mut self, now_ms: u64) -> io::Result<PollReport> {
        let tail = self.cursor.poll()?;
        if tail.truncated {
            self.model = CampaignModel::new();
            self.rates = RateTracker::new(DEFAULT_RATE_TAU_MS);
        }
        for line in &tail.lines {
            self.model.apply_line(line);
        }
        self.rates.observe(now_ms, self.model.done());
        Ok(PollReport {
            folded: tail.lines.len(),
            restarted: tail.truncated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CampaignState;
    use griffin_fleet::events::Event;
    use griffin_sweep::fingerprint::Fingerprint;
    use std::io::Write;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "griffin-watch-follow-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn watcher_follows_a_stream_to_its_terminal_event() {
        let path = tmp("terminal");
        let _ = std::fs::remove_file(&path);
        let mut w = Watcher::new(&path);
        // Nothing yet: empty poll, no campaign.
        assert_eq!(w.poll(0).unwrap().folded, 0);
        assert_eq!(w.model().state, CampaignState::Waiting);

        let start = Event::CampaignStart {
            campaign: "f".into(),
            spec_fp: Fingerprint(1, 1),
            cells: 1,
            resumed: 0,
            scenario: None,
        };
        let done_line = Event::CampaignDone {
            cells: 1,
            elapsed_ms: 9,
        }
        .to_line();
        let mut f = std::fs::File::create(&path).unwrap();
        // A torn tail: the terminal event is only half-appended.
        write!(f, "{}\n{}", start.to_line(), &done_line[..10]).unwrap();
        f.flush().unwrap();
        let p = w.poll(100).unwrap();
        assert_eq!(p.folded, 1);
        assert_eq!(
            w.model().state,
            CampaignState::Running,
            "torn terminal line is not terminal"
        );

        // The rest of the line lands.
        writeln!(f, "{}", &done_line[10..]).unwrap();
        f.flush().unwrap();
        w.poll(200).unwrap();
        assert_eq!(
            w.model().state,
            CampaignState::Done {
                cells: 1,
                elapsed_ms: 9
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_rebuilds_the_model() {
        let path = tmp("rebuild");
        let start = |name: &str| Event::CampaignStart {
            campaign: name.into(),
            spec_fp: Fingerprint(2, 2),
            cells: 5,
            resumed: 0,
            scenario: None,
        };
        std::fs::write(
            &path,
            format!("{}\n{}\n", start("old").to_line(), start("old").to_line()),
        )
        .unwrap();
        let mut w = Watcher::new(&path);
        w.poll(0).unwrap();
        assert_eq!(w.model().restarts, 1);

        // A fresh campaign rewrites the stream shorter.
        std::fs::write(&path, format!("{}\n", start("new").to_line())).unwrap();
        let p = w.poll(10).unwrap();
        assert!(p.restarted);
        assert_eq!(w.model().campaign, "new");
        assert_eq!(w.model().restarts, 0, "model rebuilt, not appended to");
        std::fs::remove_file(&path).unwrap();
    }
}
