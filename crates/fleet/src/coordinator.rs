//! The fleet coordinator: drives a campaign end to end, resumably.
//!
//! A fleet run owns one state directory:
//!
//! ```text
//! <dir>/journal.jsonl   append-only resume journal (coordinator-owned)
//! <dir>/events.jsonl    JSONL event stream (the CLI's default sink)
//! <dir>/cache/          the campaign's result cache
//! ```
//!
//! [`run_fleet`] is one pass of the sweep executor over the whole grid,
//! against one result cache (`<dir>/cache/`, or
//! [`FleetConfig::shared_cache`] when a resident driver supplies one).
//! Its observer streams the campaign's events and journals every
//! completed cell; cells the journal held at start are served again
//! (from the cache, or re-simulated if only an old directory layout held
//! them) but stay silent. The records of that pass are the report,
//! which makes fleet reports **byte-identical** to a single-process
//! [`run_campaign`](griffin_sweep::executor::run_campaign) of the same
//! spec, regardless of interruption or resume history.
//!
//! # Failure and resume
//!
//! An injected fault from [`FleetConfig::fault`] (see
//! [`fault::FaultPlan`]), a journal or sink error or an executor error
//! fails the campaign; **every** exit path, success or any failure,
//! ends the event stream with exactly one terminal event
//! (`campaign_done` / `campaign_failed`). The journal is left
//! resumable: `--resume` skips every journaled cell and finishes the
//! campaign. The external abort flag ([`FleetConfig::abort`] — the
//! CLI's SIGINT handler, the serve daemon's cancel) is checked before
//! each (family, layer) work item and fails the campaign the same way.
//!
//! Directories written before the fleet kept one cache (per-shard
//! `shard-<i>/` caches and a `merged/` union) still resume: their
//! journal is honoured, and the pass re-simulates the cells the new
//! `cache/` does not hold yet.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use griffin_sweep::cache::{CacheStats, ResultCache};
use griffin_sweep::executor::{run_cells, CampaignReport, CellEvent, SweepError};
use griffin_sweep::fingerprint::Fingerprint;
use griffin_sweep::scenario::ScenarioProvenance;
use griffin_sweep::spec::{Cell, SweepSpec};

use crate::events::{Event, EventSink};
use crate::fault::{self, Fault, FaultPlan};
use crate::journal::{Journal, JournalError, JournalHeader};
use crate::plan::spec_fingerprint;

/// Configuration of a fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulation worker threads.
    pub workers: usize,
    /// Fleet state directory (journal, event stream, result cache).
    pub dir: PathBuf,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Emit a heartbeat every this many cell completions (0 disables
    /// heartbeats).
    pub heartbeat_every: usize,
    /// External abort flag (the CLI's SIGINT handler and the serve
    /// daemon's cancel set it): the executor checks it before each
    /// (family, layer) work item, and the campaign fails with
    /// [`FleetError::Interrupted`] — journal intact, stream closed by a
    /// terminal `campaign_failed`.
    pub abort: Option<Arc<AtomicBool>>,
    /// Deterministic fault injection for chaos tests (see
    /// [`crate::fault`]). `None` in production.
    pub fault: Option<FaultPlan>,
    /// Scenario provenance of the campaign, recorded in the journal
    /// header and the `campaign_start` event when the campaign was
    /// launched from a scenario file. Informational — it never affects
    /// the grid or resume matching.
    pub scenario: Option<ScenarioProvenance>,
    /// Warm result cache shared across campaigns by a resident driver
    /// (the serve daemon). When set, the coordinator runs against this
    /// cache instead of opening `<dir>/cache/`.
    pub shared_cache: Option<Arc<ResultCache>>,
}

impl FleetConfig {
    /// A config with `workers` simulation threads, the default
    /// heartbeat cadence, and no fault plan.
    pub fn new(dir: impl Into<PathBuf>, workers: usize) -> Self {
        FleetConfig {
            workers,
            dir: dir.into(),
            resume: false,
            heartbeat_every: 32,
            abort: None,
            fault: None,
            scenario: None,
            shared_cache: None,
        }
    }
}

/// Fleet campaign failure.
#[derive(Debug)]
pub enum FleetError {
    /// The journal could not be opened, verified or appended.
    Journal(JournalError),
    /// Filesystem or event-stream failure.
    Io(std::io::Error),
    /// The underlying sweep executor failed.
    Sweep(SweepError),
    /// A [`FaultPlan`] fault fired (chaos tests only).
    Injected(Fault),
    /// The external abort flag ([`FleetConfig::abort`]) was raised —
    /// typically the CLI's SIGINT handler. The journal stays resumable.
    Interrupted,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Journal(e) => write!(f, "{e}"),
            FleetError::Io(e) => write!(f, "fleet i/o error: {e}"),
            FleetError::Sweep(e) => write!(f, "{e}"),
            FleetError::Injected(fault) => write!(f, "fault injected: {fault}"),
            FleetError::Interrupted => write!(
                f,
                "campaign aborted by interrupt (journal intact; rerun with --resume)"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<JournalError> for FleetError {
    fn from(e: JournalError) -> Self {
        FleetError::Journal(e)
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

impl From<SweepError> for FleetError {
    fn from(e: SweepError) -> Self {
        match e {
            SweepError::Interrupted => FleetError::Interrupted,
            e => FleetError::Sweep(e),
        }
    }
}

/// The journal's location inside a fleet directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.jsonl")
}

/// The campaign's result cache directory inside a fleet directory.
pub fn cache_dir(dir: &Path) -> PathBuf {
    dir.join("cache")
}

/// The default event-stream path inside a fleet directory.
pub fn default_events_path(dir: &Path) -> PathBuf {
    dir.join("events.jsonl")
}

/// Sink + journal behind one lock: events and journal appends from the
/// executor's worker threads serialize through it, and the first
/// failure parks here — later events and appends are dropped instead of
/// carrying on against a broken sink or journal, and the pass returns
/// the error once the executor is done.
struct Shared<'a> {
    sink: &'a mut dyn EventSink,
    journal: &'a mut Journal,
    err: Option<FleetError>,
    /// `cell_done` events so far (which drive the heartbeat and the
    /// truncate-journal fault point), and how many were cached.
    done: usize,
    cached: usize,
    truncate_journal_after: Option<usize>,
}

impl Shared<'_> {
    fn emit(&mut self, ev: &Event) {
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.sink.emit(ev) {
            self.err = Some(FleetError::Io(e));
        }
    }

    fn record_done(&mut self, cell: usize, fp: Fingerprint) {
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.journal.append(cell, fp) {
            self.err = Some(FleetError::Io(e));
            return;
        }
        if self.truncate_journal_after == Some(self.done) {
            // Simulated coordinator crash mid-append: tear the tail and
            // abort.
            let _ = self.journal.tear_tail_for_fault();
            self.err = Some(FleetError::Injected(Fault::TruncateJournal {
                after: self.done,
            }));
        }
    }
}

/// Guarantees the terminal-event invariant: any failure, from any exit
/// path, closes the stream with `campaign_failed` (best-effort — the
/// sink itself may be what broke). Success already ended with
/// `campaign_done`.
fn finish_with_terminal(
    sink: &mut dyn EventSink,
    result: Result<CampaignReport, FleetError>,
) -> Result<CampaignReport, FleetError> {
    if let Err(e) = &result {
        let _ = sink.emit(&Event::CampaignFailed { msg: e.to_string() });
    }
    result
}

/// Runs a campaign as one pass over its grid, with completions streamed
/// to `sink` and journaled for resume. See the module docs for the
/// state layout, the byte-identity guarantee and the failure model.
///
/// On success, `resumed` on `campaign_start` plus the `cell_done`
/// events of the run add up to the grid's cell count.
///
/// # Errors
///
/// [`FleetError`] on journal/executor failures, an injected fault or an
/// interrupt; a sink write failure aborts the campaign too.
/// Already-journaled cells resume, and every failure still terminates
/// the stream with `campaign_failed`.
pub fn run_fleet(
    spec: &SweepSpec,
    cfg: &FleetConfig,
    sink: &mut dyn EventSink,
) -> Result<CampaignReport, FleetError> {
    let result = run_fleet_inner(spec, cfg, sink);
    finish_with_terminal(sink, result)
}

fn run_fleet_inner(
    spec: &SweepSpec,
    cfg: &FleetConfig,
    sink: &mut dyn EventSink,
) -> Result<CampaignReport, FleetError> {
    let start = Instant::now();
    if !spec.is_runnable() {
        return Err(SweepError::EmptySpec.into());
    }
    let spec_fp = spec_fingerprint(spec);
    let cells = spec.cells();
    std::fs::create_dir_all(&cfg.dir)?;
    let mut journal = Journal::open(
        journal_path(&cfg.dir),
        &JournalHeader {
            campaign: spec.name.clone(),
            spec_fp,
            cells: cells.len(),
            scenario: cfg.scenario.clone(),
        },
        cfg.resume,
    )?;
    let resumed: Vec<bool> = cells
        .iter()
        .map(|c| journal.is_completed(c.index))
        .collect();
    let resumed_count = resumed.iter().filter(|&&r| r).count();
    sink.emit(&Event::CampaignStart {
        campaign: spec.name.clone(),
        spec_fp,
        cells: cells.len(),
        resumed: resumed_count,
        scenario: cfg.scenario.clone(),
    })?;
    let local_cache;
    let cache: &ResultCache = match &cfg.shared_cache {
        Some(shared) => shared,
        None => {
            local_cache = ResultCache::at_dir(cache_dir(&cfg.dir))?;
            &local_cache
        }
    };
    let fault = cfg.fault.as_ref();
    // A kill runs the first K cells the journal does not hold, then
    // dies; every other run is one pass over the whole grid.
    let kill = fault.and_then(FaultPlan::kill_after);
    let todo: Vec<Cell> = match kill {
        Some(k) => cells
            .iter()
            .filter(|c| !resumed[c.index])
            .take(k)
            .cloned()
            .collect(),
        None => cells,
    };
    let total = todo.iter().filter(|c| !resumed[c.index]).count();
    let never = AtomicBool::new(false);
    let abort = cfg.abort.as_deref().unwrap_or(&never);
    let stats0 = cache.stats();
    let shared = Mutex::new(Shared {
        sink,
        journal: &mut journal,
        err: None,
        done: 0,
        cached: 0,
        truncate_journal_after: fault.and_then(FaultPlan::journal_truncate_after),
    });
    let heartbeat_every = cfg.heartbeat_every;
    let observe = |ev: &CellEvent<'_>| match ev {
        // Cells the journal held at start were reported by an earlier
        // run: the pass serves them again, silently.
        CellEvent::Started { cell, .. } | CellEvent::Finished { cell, .. }
            if resumed[cell.index] => {}
        CellEvent::Started { cell, fingerprint } => {
            shared.lock().expect("fleet lock").emit(&Event::CellStart {
                cell: cell.index,
                fp: *fingerprint,
            });
        }
        CellEvent::Finished {
            cell,
            fingerprint,
            metrics,
            cached,
        } => {
            let mut g = shared.lock().expect("fleet lock");
            g.emit(&Event::CellDone {
                cell: cell.index,
                fp: *fingerprint,
                cached: *cached,
                metrics: *metrics,
            });
            g.done += 1;
            g.cached += usize::from(*cached);
            g.record_done(cell.index, *fingerprint);
            if heartbeat_every > 0 && g.done.is_multiple_of(heartbeat_every) {
                let hb = Event::Heartbeat {
                    done: g.done,
                    total,
                    elapsed_ms: start.elapsed().as_millis() as u64,
                    cached: g.cached,
                };
                g.emit(&hb);
            }
        }
    };
    let records = run_cells(spec, &todo, cache, cfg.workers, &observe, abort);
    let shared = shared.into_inner().expect("fleet lock");
    if let Some(e) = shared.err {
        return Err(e);
    }
    let records = records?;
    if fault.is_some_and(FaultPlan::corrupts_cache) {
        fault::corrupt_shard_cache(cache_dir(&cfg.dir))?;
    }
    if let Some(after) = kill {
        return Err(FleetError::Injected(Fault::Kill { after }));
    }
    let stats = cache.stats();
    let report = CampaignReport {
        campaign: spec.name.clone(),
        cells: records,
        cache: CacheStats {
            hits: stats.hits - stats0.hits,
            misses: stats.misses - stats0.misses,
            disk_hits: stats.disk_hits - stats0.disk_hits,
            stores: stats.stores - stats0.stores,
        },
        workers: cfg.workers,
        elapsed_ms: start.elapsed().as_millis(),
    };
    shared.sink.emit(&Event::CampaignDone {
        cells: report.cells.len(),
        elapsed_ms: report.elapsed_ms as u64,
    })?;
    Ok(report)
}
