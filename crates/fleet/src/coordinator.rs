//! The fleet coordinator: drives a sharded campaign end to end.
//!
//! A fleet run owns one state directory:
//!
//! ```text
//! <dir>/journal.jsonl   append-only resume journal (coordinator-owned)
//! <dir>/events.jsonl    JSONL event stream (the CLI's default sink)
//! <dir>/cache/          the campaign's result cache, shared by every shard
//! ```
//!
//! [`run_fleet`] runs the shards in this process, one after another,
//! each over the executor's worker pool and against one result cache
//! (`<dir>/cache/`, or [`FleetConfig::shared_cache`] when a resident
//! driver supplies one). It streams the campaign's events, journals
//! every completed cell, and ends the same way every time: the final
//! report is assembled by replaying the whole grid against that cache —
//! which is what makes fleet reports **byte-identical** to a
//! single-process [`run_campaign`] of the same spec, regardless of
//! shard count, interruption or resume history.
//!
//! # Failure and resume
//!
//! Each shard runs once. When it fails — an injected fault from
//! [`FleetConfig::fault`] (see [`fault::FaultPlan`]), a journal or sink
//! error, an executor error — the coordinator emits `shard_failed` and
//! the campaign fails; **every** exit path, success or any failure,
//! ends the event stream with exactly one terminal event
//! (`campaign_done` / `campaign_failed`). The journal is left
//! resumable: `--resume` skips every journaled cell and finishes the
//! campaign. An external abort flag ([`FleetConfig::abort`] — the CLI's
//! SIGINT handler) is checked before every shard and fails the campaign
//! the same way.
//!
//! Directories written before the fleet kept one cache (per-shard
//! `shard-<i>/` caches and a `merged/` union) still resume: their
//! journal is honoured, and the final replay re-simulates the cells the
//! new `cache/` does not hold yet.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use griffin_sweep::cache::ResultCache;
use griffin_sweep::executor::{run_campaign, run_cells, CampaignReport, CellEvent, SweepError};
use griffin_sweep::fingerprint::Fingerprint;
use griffin_sweep::scenario::ScenarioProvenance;
use griffin_sweep::spec::{Cell, SweepSpec};

use crate::events::{Event, EventSink};
use crate::fault::{self, Fault, FaultPlan};
use crate::journal::{Journal, JournalError, JournalHeader};
use crate::plan::{remaining_cells, PlanError, ShardPlan};

/// Configuration of a fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard count (≥ 1).
    pub shards: usize,
    /// Simulation worker threads (per shard run, and for the final
    /// assembly pass).
    pub workers: usize,
    /// Fleet state directory (journal, event stream, result cache).
    pub dir: PathBuf,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Emit a heartbeat every this many cell completions per shard
    /// (0 disables heartbeats).
    pub heartbeat_every: usize,
    /// External abort flag (the CLI's SIGINT handler sets it): the
    /// coordinator stops before the next shard and fails the campaign
    /// with [`FleetError::Interrupted`] — journal intact, stream closed
    /// by a terminal `campaign_failed`. A shard already running
    /// completes first.
    pub abort: Option<Arc<AtomicBool>>,
    /// Deterministic fault injection for chaos tests (see
    /// [`crate::fault`]). `None` in production.
    pub fault: Option<FaultPlan>,
    /// Scenario provenance of the campaign, recorded in the journal
    /// header and the `campaign_start` event when the campaign was
    /// launched from a scenario file. Informational — it never affects
    /// planning, sharding, or resume matching.
    pub scenario: Option<ScenarioProvenance>,
    /// Warm result cache shared across campaigns by a resident driver
    /// (the serve daemon). When set, the coordinator runs every shard
    /// and the final replay against this cache instead of opening
    /// `<dir>/cache/`.
    pub shared_cache: Option<Arc<ResultCache>>,
}

impl FleetConfig {
    /// A config with the default worker count and heartbeat cadence,
    /// and no fault plan.
    pub fn new(dir: impl Into<PathBuf>, shards: usize) -> Self {
        FleetConfig {
            shards,
            workers: griffin_sweep::executor::default_workers(),
            dir: dir.into(),
            resume: false,
            heartbeat_every: 32,
            abort: None,
            fault: None,
            scenario: None,
            shared_cache: None,
        }
    }

    /// Whether the external abort flag is raised.
    fn abort_requested(&self) -> bool {
        self.abort
            .as_ref()
            .is_some_and(|a| a.load(Ordering::Relaxed))
    }
}

/// Fleet campaign failure.
#[derive(Debug)]
pub enum FleetError {
    /// The shard plan could not be constructed.
    Plan(PlanError),
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
            FleetError::Plan(e) => write!(f, "{e}"),
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

impl From<PlanError> for FleetError {
    fn from(e: PlanError) -> Self {
        FleetError::Plan(e)
    }
}

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
        FleetError::Sweep(e)
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

/// The journal header a spec/plan pair implies (plus the provenance of
/// the scenario the campaign came from, when it came from one).
fn plan_header(
    spec: &SweepSpec,
    plan: &ShardPlan,
    scenario: Option<&ScenarioProvenance>,
) -> JournalHeader {
    JournalHeader {
        campaign: spec.name.clone(),
        spec_fp: plan.spec_fp,
        cells: plan.cell_count(),
        scenario: scenario.cloned(),
    }
}

/// Sink + journal behind one lock: events and journal appends from the
/// executor's worker threads serialize through it, and the first
/// failure parks here — later events and appends are dropped instead of
/// carrying on against a broken sink or journal, and the shard run
/// returns the error once the executor is done.
struct Shared<'a> {
    sink: &'a mut dyn EventSink,
    journal: &'a mut Journal,
    err: Option<FleetError>,
    /// Journal appends so far (campaign-wide), driving the
    /// truncate-journal fault point.
    appends: usize,
    truncate_journal_after: Option<usize>,
}

impl<'a> Shared<'a> {
    fn new(
        sink: &'a mut dyn EventSink,
        journal: &'a mut Journal,
        appends: usize,
        truncate_journal_after: Option<usize>,
    ) -> Self {
        Shared {
            sink,
            journal,
            err: None,
            appends,
            truncate_journal_after,
        }
    }

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
        self.appends += 1;
        if self.truncate_journal_after == Some(self.appends) {
            // Simulated coordinator crash mid-append: tear the tail and
            // abort.
            let _ = self.journal.tear_tail_for_fault();
            self.err = Some(FleetError::Injected(Fault::TruncateJournal {
                after: self.appends,
            }));
        }
    }

    fn take_err(&mut self) -> Result<(), FleetError> {
        self.err.take().map_or(Ok(()), Err)
    }
}

/// Executes one shard's cells against its cache, streaming events and
/// journaling completions. `planned` / `skipped` describe the full
/// shard for `shard_start` (with fault truncation, `todo` can be
/// shorter than `planned - skipped`); `emit_done` is cleared when a
/// fault will kill this run before its `shard_done`.
#[allow(clippy::too_many_arguments)]
fn run_shard_cells(
    spec: &SweepSpec,
    shard: usize,
    todo: &[Cell],
    planned: usize,
    skipped: usize,
    cache: &ResultCache,
    workers: usize,
    heartbeat_every: usize,
    shared: &Mutex<Shared<'_>>,
    emit_done: bool,
) -> Result<(), FleetError> {
    let start = Instant::now();
    shared.lock().expect("fleet lock").emit(&Event::ShardStart {
        shard,
        cells: planned,
        skipped,
    });
    let stats0 = cache.stats();
    let done = AtomicUsize::new(0);
    let cached_hits = AtomicUsize::new(0);
    let observe = |ev: &CellEvent<'_>| {
        let mut g = shared.lock().expect("fleet lock");
        match ev {
            CellEvent::Started { cell, fingerprint } => g.emit(&Event::CellStart {
                shard,
                cell: cell.index,
                fp: *fingerprint,
            }),
            CellEvent::Finished {
                cell,
                fingerprint,
                metrics,
                cached,
            } => {
                g.emit(&Event::CellDone {
                    shard,
                    cell: cell.index,
                    fp: *fingerprint,
                    cached: *cached,
                    metrics: *metrics,
                });
                g.record_done(cell.index, *fingerprint);
                if *cached {
                    cached_hits.fetch_add(1, Ordering::Relaxed);
                }
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                if heartbeat_every > 0 && d.is_multiple_of(heartbeat_every) {
                    g.emit(&Event::Heartbeat {
                        shard,
                        done: d,
                        total: todo.len(),
                        elapsed_ms: start.elapsed().as_millis() as u64,
                        cached: cached_hits.load(Ordering::Relaxed),
                    });
                }
            }
        }
    };
    run_cells(spec, todo, cache, workers, &observe)?;
    let mut g = shared.lock().expect("fleet lock");
    g.take_err()?;
    if emit_done {
        let stats = cache.stats();
        g.emit(&Event::ShardDone {
            shard,
            simulated: (stats.stores - stats0.stores) as usize,
            cached: (stats.hits - stats0.hits) as usize,
            elapsed_ms: start.elapsed().as_millis() as u64,
        });
    }
    g.take_err()
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

/// Runs a sharded campaign: shards execute one after another, each over
/// the executor's worker pool and against one cache, with completions
/// streamed to `sink` and journaled for resume. See the module docs for
/// the state layout, the byte-identity guarantee and the failure model.
///
/// # Errors
///
/// [`FleetError`] on plan/journal/executor failures, an injected fault
/// or an interrupt; a sink write failure aborts the campaign too.
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
    let plan = ShardPlan::new(spec, cfg.shards)?;
    std::fs::create_dir_all(&cfg.dir)?;
    let mut journal = Journal::open(
        journal_path(&cfg.dir),
        &plan_header(spec, &plan, cfg.scenario.as_ref()),
        cfg.resume,
    )?;
    sink.emit(&Event::CampaignStart {
        campaign: spec.name.clone(),
        spec_fp: plan.spec_fp,
        cells: plan.cell_count(),
        shards: plan.shards,
        resumed: journal.completed().len(),
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
    let truncate_after = fault.and_then(FaultPlan::journal_truncate_after);
    let mut appends = 0usize;

    for (shard, shard_cells) in plan.cells.iter().enumerate() {
        if cfg.abort_requested() {
            return Err(FleetError::Interrupted);
        }
        let mut todo = remaining_cells(shard_cells, |i| journal.is_completed(i));
        let skipped = shard_cells.len() - todo.len();
        let die = fault.and_then(|f| f.kill_after(shard));
        if let Some(k) = die {
            todo.truncate(k);
        }
        let shared = Mutex::new(Shared::new(sink, &mut journal, appends, truncate_after));
        let run = run_shard_cells(
            spec,
            shard,
            &todo,
            shard_cells.len(),
            skipped,
            cache,
            cfg.workers,
            cfg.heartbeat_every,
            &shared,
            die.is_none(),
        );
        appends = shared.into_inner().expect("fleet lock").appends;
        let outcome = run.and_then(|()| {
            if fault.is_some_and(|f| f.corrupts_cache(shard)) {
                fault::corrupt_shard_cache(cache_dir(&cfg.dir))?;
            }
            match die {
                Some(after) => Err(FleetError::Injected(Fault::Kill { shard, after })),
                None => Ok(()),
            }
        });
        if let Err(e) = outcome {
            // A sink failure while reporting never hides the root cause.
            let _ = sink.emit(&Event::ShardFailed {
                shard,
                attempt: 0,
                msg: e.to_string(),
            });
            return Err(e);
        }
    }
    // Replaying the full grid against the campaign's cache yields the
    // same record list a single-process run produces — and re-simulates
    // any cell whose cached result went missing (or was torn), so the
    // report is always complete.
    let mut report = run_campaign(spec, cache, cfg.workers)?;
    report.workers = cfg.workers;
    report.elapsed_ms = start.elapsed().as_millis();
    sink.emit(&Event::CampaignDone {
        cells: report.cells.len(),
        elapsed_ms: report.elapsed_ms as u64,
    })?;
    Ok(report)
}
