//! The campaign model: a pure replay fold over fleet events.
//!
//! [`CampaignModel::apply`] consumes [`Event`]s one at a time and
//! maintains everything the dashboards render — progress, the
//! cache-hit split, the live clock and the terminal state (with its
//! failure message). The fold is *pure*: it never reads a clock,
//! a file, or an environment variable, so the same event sequence
//! always produces the same model whether it arrives from a live tail,
//! a finished stream, or a property-test generator. Time-derived
//! metrics (windowed cells/sec, ETA) live in [`RateTracker`], which the
//! caller feeds an explicit timestamp.
//!
//! A resumed campaign appends a fresh `campaign_start` to the same
//! stream; the model resets on each one (counting [`restarts`]) so the
//! fold of the whole file always describes the *latest* run, with
//! earlier completions folded into `resumed`.
//!
//! Legacy lines of v1–v3 streams (the shard lifecycle, retries,
//! merges, hosts) are counted in [`events_folded`] and otherwise
//! ignored: a campaign's totals, state and failure message never came
//! from them.
//!
//! [`restarts`]: CampaignModel::restarts
//! [`events_folded`]: CampaignModel::events_folded

use griffin_fleet::events::Event;
use griffin_sweep::fingerprint::Fingerprint;
use griffin_sweep::json::Json;
use griffin_sweep::scenario::ScenarioProvenance;
use std::collections::BTreeSet;

/// Where the campaign is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CampaignState {
    /// No `campaign_start` folded yet (stream empty or still torn).
    #[default]
    Waiting,
    /// Between `campaign_start` and the terminal event.
    Running,
    /// Terminal: the final report was assembled.
    Done {
        /// Total grid cells reported.
        cells: usize,
        /// Wall-clock milliseconds of the whole fleet run.
        elapsed_ms: u64,
    },
    /// Terminal: the campaign aborted.
    Failed {
        /// Human-readable cause.
        msg: String,
    },
}

impl CampaignState {
    /// `done` / `failed` / `running` / `waiting` — the JSON summary tag.
    pub fn tag(&self) -> &'static str {
        match self {
            CampaignState::Waiting => "waiting",
            CampaignState::Running => "running",
            CampaignState::Done { .. } => "done",
            CampaignState::Failed { .. } => "failed",
        }
    }

    /// Whether the stream can emit nothing further.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            CampaignState::Done { .. } | CampaignState::Failed { .. }
        )
    }
}

/// Format tag of the JSON summary emitted by [`CampaignModel::summary`].
pub const SUMMARY_FORMAT: &str = "griffin-watch-summary/2";

/// A campaign reconstructed by folding its event stream.
///
/// All counters are defined directly in terms of raw event counts, so a
/// summary can be checked against `events.jsonl` with nothing fancier
/// than `grep -c`:
/// * [`done`](Self::done) = `resumed` + distinct `cell_done` cells,
/// * [`cache_hits`](Self::cache_hits) = `cell_done` lines with
///   `"cached":true`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignModel {
    /// Campaign name (empty until `campaign_start`).
    pub campaign: String,
    /// Stable grid identity from the campaign header.
    pub spec_fp: Option<Fingerprint>,
    /// Total grid cells the campaign will report.
    pub total_cells: usize,
    /// Cells the run's resume found in the campaign cache at start
    /// (`campaign_start`'s `resumed`).
    pub resumed: usize,
    /// Scenario provenance, when launched from a scenario file.
    pub scenario: Option<ScenarioProvenance>,
    /// `campaign_start` events beyond the first — i.e. how many times a
    /// resume appended a fresh run to this stream.
    pub restarts: usize,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Raw count of `cell_done` events (distinct or not).
    pub cell_events: usize,
    /// `cell_done` events with `cached == true`.
    pub cache_hits: usize,
    /// Milliseconds into the run, from the latest heartbeat (0 until
    /// one arrives).
    pub live_elapsed_ms: u64,
    /// Total events folded since the last campaign (re)start.
    pub events_folded: usize,
    /// Complete lines that failed to parse as events (skipped).
    pub parse_errors: usize,
    done_cells: BTreeSet<usize>,
}

impl CampaignModel {
    /// An empty model awaiting its first event.
    pub fn new() -> Self {
        CampaignModel::default()
    }

    /// Cells complete toward [`total_cells`](Self::total_cells):
    /// resumed cells plus distinct `cell_done` cells this run.
    pub fn done(&self) -> usize {
        self.resumed.saturating_add(self.done_cells.len())
    }

    /// Fraction complete in `[0, 1]` (0 when the total is unknown).
    pub fn progress(&self) -> f64 {
        if self.total_cells == 0 {
            0.0
        } else {
            self.done() as f64 / self.total_cells as f64
        }
    }

    /// Cache-hit ratio over this run's `cell_done` events (`None` until
    /// the first one).
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        (self.cell_events > 0).then(|| self.cache_hits as f64 / self.cell_events as f64)
    }

    /// Folds one event into the model. Never panics, for any sequence.
    pub fn apply(&mut self, ev: &Event) {
        self.events_folded = self.events_folded.saturating_add(1);
        match ev {
            Event::CampaignStart {
                campaign,
                spec_fp,
                cells,
                resumed,
                scenario,
            } => {
                // A fresh run (possibly a resume) owns the stream from
                // here on: reset everything except the restart count.
                let restarts = if self.state == CampaignState::Waiting {
                    self.restarts
                } else {
                    self.restarts.saturating_add(1)
                };
                *self = CampaignModel {
                    campaign: campaign.clone(),
                    spec_fp: Some(*spec_fp),
                    total_cells: *cells,
                    resumed: *resumed,
                    scenario: scenario.clone(),
                    restarts,
                    state: CampaignState::Running,
                    events_folded: 1,
                    ..CampaignModel::default()
                };
            }
            Event::CellDone { cell, cached, .. } => {
                self.done_cells.insert(*cell);
                self.cell_events = self.cell_events.saturating_add(1);
                if *cached {
                    self.cache_hits = self.cache_hits.saturating_add(1);
                }
            }
            Event::Heartbeat { elapsed_ms, .. } => {
                // The max keeps the clock monotone, also over the
                // per-shard heartbeats of legacy streams.
                self.live_elapsed_ms = self.live_elapsed_ms.max(*elapsed_ms);
            }
            Event::CampaignDone { cells, elapsed_ms } => {
                self.state = CampaignState::Done {
                    cells: *cells,
                    elapsed_ms: *elapsed_ms,
                };
            }
            Event::CampaignFailed { msg } => {
                self.state = CampaignState::Failed { msg: msg.clone() };
            }
            // Cell starts carry nothing the model keeps; legacy lines
            // are counted and otherwise ignored.
            Event::CellStart { .. }
            | Event::ShardStart { .. }
            | Event::ShardDone { .. }
            | Event::ShardFailed { .. }
            | Event::CellsRequeued { .. }
            | Event::ShardRetried { .. }
            | Event::HostLost { .. }
            | Event::HostRetired { .. }
            | Event::MergeDone { .. } => {}
        }
    }

    /// Parses and folds one stream line; malformed lines are counted in
    /// [`parse_errors`](Self::parse_errors) and skipped — a live tailer
    /// must outlive a corrupt line, unlike the resume-critical journal
    /// header.
    pub fn apply_line(&mut self, line: &str) {
        match Event::parse_line(line) {
            Ok(ev) => self.apply(&ev),
            Err(_) => self.parse_errors = self.parse_errors.saturating_add(1),
        }
    }

    /// Folds every complete line of an event-stream buffer (one-shot
    /// read of a finished or in-flight `events.jsonl`).
    pub fn fold_text(text: &str) -> CampaignModel {
        let mut m = CampaignModel::new();
        for line in griffin_fleet::complete_lines(text) {
            m.apply_line(line);
        }
        m
    }

    /// One-shot fold of an event-stream file.
    ///
    /// # Errors
    ///
    /// Propagates the read error if the file cannot be read.
    pub fn from_file(path: &std::path::Path) -> std::io::Result<CampaignModel> {
        Ok(Self::fold_text(&std::fs::read_to_string(path)?))
    }

    /// Campaign wall-clock milliseconds: the terminal elapsed time once
    /// done, else the live clock from the latest heartbeat.
    pub fn elapsed_ms(&self) -> u64 {
        match &self.state {
            CampaignState::Done { elapsed_ms, .. } => *elapsed_ms,
            _ => self.live_elapsed_ms,
        }
    }

    /// Cumulative cells/sec over the campaign (`None` before any
    /// elapsed time is known). Uses completions *this run* — resumed
    /// cells cost no time, so they would inflate the rate.
    pub fn cumulative_cells_per_sec(&self) -> Option<f64> {
        let ms = self.elapsed_ms();
        (ms > 0).then(|| self.done_cells.len() as f64 * 1000.0 / ms as f64)
    }

    /// Estimated milliseconds to finish the remaining cells at the
    /// cumulative rate. `None` — rendered as `"n/a"` in the summary —
    /// when no estimate exists: the campaign is already terminal, no
    /// time has elapsed yet (campaign start), or nothing has completed
    /// this run (zero rate). Those cases must never surface as `0` or a
    /// saturated huge value.
    pub fn eta_ms(&self) -> Option<u64> {
        if self.state.is_terminal() {
            return None;
        }
        let cps = self
            .cumulative_cells_per_sec()
            .filter(|r| *r > f64::EPSILON)?;
        let remaining = self.total_cells.saturating_sub(self.done());
        Some((remaining as f64 * 1000.0 / cps) as u64)
    }

    /// The scripting summary (`griffin-watch-summary/2`): every counter
    /// the acceptance checks grep out of `events.jsonl`, and the
    /// failure message of a failed campaign.
    pub fn summary(&self) -> Json {
        let num = |x: usize| Json::Num(x as f64);
        let mut o: Vec<(String, Json)> = vec![
            ("format".into(), Json::Str(SUMMARY_FORMAT.into())),
            ("state".into(), Json::Str(self.state.tag().into())),
            ("campaign".into(), Json::Str(self.campaign.clone())),
            ("cells".into(), num(self.total_cells)),
            ("done".into(), num(self.done())),
            ("resumed".into(), num(self.resumed)),
            ("restarts".into(), num(self.restarts)),
            ("cell_events".into(), num(self.cell_events)),
            ("cache_hits".into(), num(self.cache_hits)),
            ("parse_errors".into(), num(self.parse_errors)),
            ("events".into(), num(self.events_folded)),
            ("elapsed_ms".into(), Json::Num(self.elapsed_ms() as f64)),
            (
                "eta_ms".into(),
                match self.eta_ms() {
                    Some(ms) => Json::Num(ms as f64),
                    None => Json::Str("n/a".into()),
                },
            ),
        ];
        if let Some(fp) = self.spec_fp {
            o.push(("spec_fp".into(), Json::Str(fp.to_string())));
        }
        if let Some(r) = self.cache_hit_ratio() {
            o.push(("cache_hit_ratio".into(), Json::from_f64(r)));
        }
        if let Some(cps) = self.cumulative_cells_per_sec() {
            o.push(("cells_per_sec".into(), Json::from_f64(cps)));
        }
        if let Some(s) = &self.scenario {
            o.push(("scenario_file".into(), Json::Str(s.file.clone())));
        }
        if let CampaignState::Failed { msg } = &self.state {
            o.push(("error".into(), Json::Str(msg.clone())));
        }
        Json::obj(o)
    }
}

/// Windowed-EMA throughput over completion counts, clocked entirely by
/// the caller — the model stays pure; only this tracker knows the time.
///
/// The smoothing factor adapts to the actual gap between observations
/// (`alpha = 1 - exp(-dt/tau)`), so irregular poll intervals — long GC
/// of a quiet stream, bursts after a stall — don't bias the average.
#[derive(Debug, Clone)]
pub struct RateTracker {
    tau_ms: f64,
    last: Option<(u64, usize)>,
    ema: Option<f64>,
}

impl RateTracker {
    /// A tracker smoothing over roughly `tau_ms` of history.
    pub fn new(tau_ms: f64) -> Self {
        RateTracker {
            tau_ms: tau_ms.max(1.0),
            last: None,
            ema: None,
        }
    }

    /// Feeds the completion count observed at `now_ms`. Non-monotone
    /// clocks and counter resets (a campaign restart) re-seed the
    /// tracker instead of producing negative rates.
    pub fn observe(&mut self, now_ms: u64, done: usize) {
        let Some((t0, d0)) = self.last else {
            self.last = Some((now_ms, done));
            return;
        };
        if now_ms <= t0 || done < d0 {
            self.last = Some((now_ms, done));
            self.ema = if done < d0 { None } else { self.ema };
            return;
        }
        let dt = (now_ms - t0) as f64;
        let inst = (done - d0) as f64 * 1000.0 / dt;
        let alpha = 1.0 - (-dt / self.tau_ms).exp();
        self.ema = Some(match self.ema {
            Some(prev) => prev + alpha * (inst - prev),
            None => inst,
        });
        self.last = Some((now_ms, done));
    }

    /// Smoothed cells/sec (`None` until two observations arrive).
    pub fn cells_per_sec(&self) -> Option<f64> {
        self.ema
    }

    /// Estimated milliseconds to finish `remaining` cells at the
    /// current smoothed rate (`None` when the rate is unknown or zero).
    pub fn eta_ms(&self, remaining: usize) -> Option<u64> {
        let cps = self.ema.filter(|r| *r > f64::EPSILON)?;
        Some((remaining as f64 * 1000.0 / cps) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(cells: usize, resumed: usize) -> Event {
        Event::CampaignStart {
            campaign: "m".into(),
            spec_fp: Fingerprint(7, 9),
            cells,
            resumed,
            scenario: None,
        }
    }

    fn cell_done(cell: usize, cached: bool) -> Event {
        Event::CellDone {
            cell,
            fp: Fingerprint(cell as u64, 0),
            cached,
            metrics: griffin_sweep::cache::CellMetrics {
                speedup: 1.0,
                cycles: 1.0,
                dense_cycles: 1,
                power_mw: 1.0,
                area_mm2: 1.0,
                tops_per_w: 1.0,
                tops_per_mm2: 1.0,
            },
        }
    }

    /// `ev`'s line as a sharded (v3) coordinator wrote it: `shard` on
    /// the cell lines, `shards` and the v3 tag on the header.
    fn v3_line(ev: &Event, shard: usize) -> String {
        let line = ev.to_line();
        match ev {
            Event::CampaignStart { .. } => {
                line.replace("events/4", "events/3")
                    .replacen('{', "{\"shards\":2,", 1)
            }
            _ => line.replacen('{', &format!("{{\"shard\":{shard},"), 1),
        }
    }

    fn fold(lines: &[String]) -> CampaignModel {
        let mut m = CampaignModel::new();
        for line in lines {
            m.apply_line(line);
        }
        m
    }

    #[test]
    fn a_clean_two_shard_run_folds_to_done() {
        // A v3 stream of a 2-shard campaign: the shard lines are legacy,
        // and the campaign totals come from the cell and campaign lines.
        let mut lines = vec![v3_line(&start(4, 0), 0)];
        for shard in 0..2 {
            lines.push(format!(
                r#"{{"cells":2,"ev":"shard_start","shard":{shard},"skipped":0}}"#
            ));
        }
        lines.push(v3_line(&cell_done(0, false), 0));
        lines.push(v3_line(&cell_done(1, true), 0));
        lines.push(v3_line(&cell_done(2, false), 1));
        lines.push(v3_line(&cell_done(3, false), 1));
        for shard in 0..2 {
            lines.push(format!(
                r#"{{"cached":1,"elapsed_ms":50,"ev":"shard_done","shard":{shard},"simulated":1}}"#
            ));
        }
        lines.push(r#"{"cells":4,"elapsed_ms":80,"ev":"campaign_done"}"#.into());
        let m = fold(&lines);
        assert_eq!(m.parse_errors, 0);
        assert_eq!(m.done(), 4);
        assert_eq!(m.cache_hits, 1);
        assert!(m.state.is_terminal());
        assert_eq!(m.state.tag(), "done");
        assert_eq!(m.elapsed_ms(), 80);
        assert_eq!(m.cumulative_cells_per_sec(), Some(4.0 * 1000.0 / 80.0));
        let line = m.summary().write();
        assert!(line.contains("\"format\":\"griffin-watch-summary/2\""));
        assert!(line.contains("\"done\":4"));
        assert!(!line.contains("shard"), "{line}");
    }

    #[test]
    fn retry_lifecycle_counts_and_failure_log() {
        // A v2/v3 retry lifecycle: cells from the failed attempt still
        // count, and the failure message is the terminal one.
        let lines: Vec<String> = vec![
            v3_line(&start(3, 0), 0),
            r#"{"cells":3,"ev":"shard_start","shard":0,"skipped":0}"#.into(),
            v3_line(&cell_done(0, false), 0),
            r#"{"attempt":0,"ev":"shard_failed","msg":"worker exited","shard":0}"#.into(),
            r#"{"cells":2,"ev":"cells_requeued","shard":0}"#.into(),
            r#"{"attempt":1,"backoff_ms":0,"ev":"shard_retried","shard":0}"#.into(),
            r#"{"cells":3,"ev":"shard_start","shard":0,"skipped":1}"#.into(),
            v3_line(&cell_done(1, false), 0),
            r#"{"ev":"campaign_failed","msg":"shard 0 failed: worker exited"}"#.into(),
        ];
        let m = fold(&lines);
        assert_eq!(m.parse_errors, 0);
        assert_eq!(m.done(), 2, "cells from the failed attempt still count");
        assert_eq!(
            m.state,
            CampaignState::Failed {
                msg: "shard 0 failed: worker exited".into()
            }
        );
        let line = m.summary().write();
        assert!(
            line.contains("\"error\":\"shard 0 failed: worker exited\""),
            "{line}"
        );
        assert!(
            !line.contains("retries") && !line.contains("failure_log"),
            "{line}"
        );
    }

    #[test]
    fn resume_restart_resets_but_counts() {
        let mut m = CampaignModel::new();
        m.apply(&start(3, 0));
        m.apply(&cell_done(0, false));
        m.apply(&Event::CampaignFailed { msg: "kill".into() });
        // The resume appends a fresh header claiming the cached cell.
        m.apply(&start(3, 1));
        assert_eq!(m.restarts, 1);
        assert_eq!(m.done(), 1, "resumed cells count as done");
        m.apply(&cell_done(1, false));
        m.apply(&cell_done(2, false));
        m.apply(&Event::CampaignDone {
            cells: 3,
            elapsed_ms: 5,
        });
        assert_eq!(m.done(), 3);
        assert_eq!(m.state.tag(), "done");
    }

    #[test]
    fn fold_text_skips_torn_tail_and_counts_bad_lines() {
        let text = format!(
            "{}\n{}\nnot-json\n{}",
            start(2, 0).to_line(),
            cell_done(0, false).to_line(),
            "{\"ev\":\"cell_done\",\"torn" // no newline: not yet a line
        );
        let m = CampaignModel::fold_text(&text);
        assert_eq!(m.done(), 1);
        assert_eq!(m.parse_errors, 1, "malformed complete line skipped");
        assert_eq!(m.state.tag(), "running");
    }

    #[test]
    fn heartbeat_enrichment_feeds_live_elapsed() {
        let mut m = CampaignModel::new();
        m.apply(&start(10, 0));
        m.apply(&Event::Heartbeat {
            done: 4,
            total: 10,
            elapsed_ms: 400,
            cached: 3,
        });
        assert_eq!(m.elapsed_ms(), 400, "live elapsed from the heartbeat");
        // An older heartbeat never winds the clock back.
        m.apply(&Event::Heartbeat {
            done: 2,
            total: 10,
            elapsed_ms: 300,
            cached: 1,
        });
        assert_eq!(m.live_elapsed_ms, 400);
    }

    #[test]
    fn eta_is_na_at_campaign_start_and_under_zero_rate() {
        let mut m = CampaignModel::new();
        assert_eq!(m.eta_ms(), None, "no campaign, no estimate");

        // Campaign start: zero elapsed, zero completions. The summary
        // must say "n/a" — never 0 and never a saturated huge value.
        m.apply(&start(100, 0));
        assert_eq!(m.eta_ms(), None);
        assert!(m.summary().write().contains("\"eta_ms\":\"n/a\""));

        // Time passing with zero completions (a stalled fleet) is a
        // zero rate: still "n/a", not a division blow-up.
        m.apply(&Event::Heartbeat {
            done: 0,
            total: 100,
            elapsed_ms: 5000,
            cached: 0,
        });
        assert_eq!(m.eta_ms(), None, "zero rate has no projection");
        assert!(m.summary().write().contains("\"eta_ms\":\"n/a\""));
    }

    #[test]
    fn eta_projects_remaining_cells_then_clears_when_terminal() {
        let mut m = CampaignModel::new();
        m.apply(&start(10, 0));
        for c in 0..4 {
            m.apply(&cell_done(c, false));
        }
        m.apply(&Event::Heartbeat {
            done: 4,
            total: 10,
            elapsed_ms: 2000,
            cached: 0,
        });
        // 4 cells in 2 s → 2 cells/s → 6 remaining ≈ 3000 ms.
        assert_eq!(m.eta_ms(), Some(3000));
        assert!(m.summary().write().contains("\"eta_ms\":3000"));

        // A finished campaign has no ETA, even though the rate is known.
        m.apply(&Event::CampaignDone {
            cells: 10,
            elapsed_ms: 5000,
        });
        assert_eq!(m.eta_ms(), None);
        assert!(m.summary().write().contains("\"eta_ms\":\"n/a\""));
    }

    /// Streams written by the removed multi-host fleet: shard events
    /// stamped with a `host` field, plus `host_lost` / `host_retired`
    /// lines. Folding them gives the model of the same stream without
    /// any host line, and the summary carries no host state.
    #[test]
    fn legacy_host_lines_fold_to_the_host_free_model() {
        let stream = |with_hosts: bool| -> Vec<String> {
            let stamp = |ev: Event, host: &str| -> String {
                let line = ev.to_line();
                if with_hosts {
                    line.replacen('{', &format!("{{\"host\":\"{host}\","), 1)
                } else {
                    line
                }
            };
            let mut lines = vec![v3_line(&start(4, 0), 0)];
            for (shard, host) in [(0, "h0"), (1, "h1")] {
                let ev = Event::ShardStart {
                    shard,
                    cells: 2,
                    skipped: 0,
                };
                lines.push(stamp(ev, host));
            }
            let failed = Event::ShardFailed {
                shard: 1,
                attempt: 0,
                msg: "stream ended".into(),
            };
            lines.push(stamp(failed, "h1"));
            if with_hosts {
                lines.push(r#"{"ev":"host_lost","host":"h1","shards":1}"#.into());
            }
            let retried = Event::ShardRetried {
                shard: 1,
                attempt: 1,
                backoff_ms: 250,
            };
            lines.push(stamp(retried, "h0"));
            lines.push(v3_line(&cell_done(0, false), 0));
            if with_hosts {
                lines.push(r#"{"ev":"host_retired","host":"h0"}"#.into());
                lines.push(r#"{"ev":"host_retired","host":"h1"}"#.into());
            }
            lines
        };
        let (mut hosted, plain) = (fold(&stream(true)), fold(&stream(false)));
        assert_eq!(hosted.parse_errors, 0);
        assert_eq!(hosted.done(), 1);
        // The three host lines are folded (counted) and otherwise ignored.
        assert_eq!(hosted.events_folded, plain.events_folded + 3);
        hosted.events_folded = plain.events_folded;
        assert_eq!(hosted, plain);
        let line = hosted.summary().write();
        assert!(!line.contains("host"), "{line}");
        assert_eq!(line, plain.summary().write());
    }

    #[test]
    fn rate_tracker_zero_elapsed_and_zero_rate_windows_yield_no_eta() {
        // One observation: no window yet, no rate, no ETA.
        let mut r = RateTracker::new(1000.0);
        r.observe(5, 0);
        assert_eq!(r.cells_per_sec(), None);
        assert_eq!(r.eta_ms(100), None, "single observation has no ETA");

        // Zero-elapsed window (same timestamp): re-seeds instead of
        // dividing by zero; still no ETA.
        r.observe(5, 10);
        assert_eq!(r.cells_per_sec(), None);
        assert_eq!(r.eta_ms(100), None, "zero-elapsed window has no ETA");

        // Zero-rate window (time passes, nothing completes): the EMA is
        // exactly 0, which must read as "n/a" — not ETA 0, not a
        // saturated huge value.
        let mut idle = RateTracker::new(1000.0);
        idle.observe(0, 0);
        idle.observe(1000, 0);
        assert_eq!(idle.cells_per_sec(), Some(0.0));
        assert_eq!(idle.eta_ms(100), None, "zero rate has no ETA");
        // And with nothing remaining the ETA is trivially 0 once a real
        // rate exists — never "n/a" misreported the other way.
        idle.observe(2000, 10);
        assert_eq!(idle.eta_ms(0), Some(0));
    }

    #[test]
    fn rate_tracker_smooths_and_projects() {
        let mut r = RateTracker::new(1000.0);
        assert_eq!(r.cells_per_sec(), None);
        r.observe(0, 0);
        r.observe(1000, 10); // 10 cells/s instantaneous
        let first = r.cells_per_sec().unwrap();
        assert!((first - 10.0).abs() < 1e-9, "first window seeds the EMA");
        r.observe(2000, 30); // 20 cells/s window pulls the EMA up
        let second = r.cells_per_sec().unwrap();
        assert!(second > first && second < 20.0);
        let eta = r.eta_ms(100).unwrap();
        assert!(eta > 100 * 1000 / 20 && eta < 100 * 1000 / 10);
        // Clock stall and counter reset re-seed rather than blow up.
        r.observe(2000, 30);
        r.observe(3000, 5);
        assert_eq!(r.cells_per_sec(), None, "reset forgets the stale rate");
    }
}
