//! The fleet coordinator: drives a sharded campaign end to end.
//!
//! A fleet run owns one state directory:
//!
//! ```text
//! <dir>/journal.jsonl   append-only resume journal (coordinator-owned)
//! <dir>/shard-<i>/      per-shard result cache (one writer each)
//! <dir>/merged/         fingerprint union of every shard cache
//! ```
//!
//! [`run_fleet`] runs the shards in this process, one after another,
//! each over the executor's worker pool. It streams the campaign's
//! events, journals every completed cell, and ends the same way every
//! time: shard caches are unioned with [`merge_dirs`] (conflicts abort),
//! and the final report is assembled by replaying the whole grid against
//! the merged cache — which is what makes fleet reports
//! **byte-identical** to a single-process [`run_campaign`] of the same
//! spec, regardless of shard count, interruption, retries or resume
//! history.
//!
//! # Fault tolerance
//!
//! When a shard attempt dies — an injected kill from
//! [`FleetConfig::fault`] (see [`fault::FaultPlan`]) — the coordinator
//! emits `shard_failed`, re-queues the shard's remaining (non-journaled)
//! cells, emits `cells_requeued` + `shard_retried`, and runs a fresh
//! attempt (which skips everything already journaled, so work is never
//! repeated). Attempts are bounded by [`FleetConfig::max_shard_retries`];
//! exhaustion fails the campaign cleanly, and **every** exit path —
//! success or any failure — ends the event stream with exactly one
//! terminal event (`campaign_done` / `campaign_failed`).
//!
//! Retries back off exponentially ([`retry_backoff_ms`], deterministic
//! jitter). An external abort flag ([`FleetConfig::abort`] — the CLI's
//! SIGINT handler) is checked before every shard attempt and throughout
//! every backoff: it ends the stream with a terminal `campaign_failed`
//! while leaving the journal resumable.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use griffin_sweep::cache::{merge_dirs, ResultCache};
use griffin_sweep::executor::{run_campaign, run_cells, CampaignReport, CellEvent, SweepError};
use griffin_sweep::fingerprint::{Fingerprint, Hasher};
use griffin_sweep::scenario::ScenarioProvenance;
use griffin_sweep::spec::{Cell, SweepSpec};

use crate::events::{Event, EventSink};
use crate::fault::{self, AttemptGate, Fault, FaultPlan};
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
    /// Fleet state directory (journal, shard caches, merged cache).
    pub dir: PathBuf,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Emit a heartbeat every this many cell completions per shard
    /// (0 disables heartbeats).
    pub heartbeat_every: usize,
    /// How many times a failed shard is retried before the campaign
    /// gives up (0 = a single attempt, no retries).
    pub max_shard_retries: usize,
    /// Base of the bounded exponential backoff before a shard retry:
    /// attempt `n` waits `base << min(n-1, 6)` ms plus a deterministic
    /// jitter of up to `base / 4` ms seeded from (shard, attempt) — see
    /// [`retry_backoff_ms`]. 0 disables backoff (tests).
    pub retry_backoff_ms: u64,
    /// External abort flag (the CLI's SIGINT handler sets it): the
    /// coordinator stops before the next shard attempt, or during a
    /// retry backoff, and fails the campaign with
    /// [`FleetError::Interrupted`] — journal intact, stream closed by a
    /// terminal `campaign_failed`. A shard attempt already running
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
    /// against this cache instead of per-shard `shard-<i>/` directories,
    /// and the final report replays the grid against it directly — no
    /// merge step.
    pub shared_cache: Option<Arc<ResultCache>>,
}

impl FleetConfig {
    /// A config with the default worker count, heartbeat cadence and
    /// retry budget, and no fault plan.
    pub fn new(dir: impl Into<PathBuf>, shards: usize) -> Self {
        FleetConfig {
            shards,
            workers: griffin_sweep::executor::default_workers(),
            dir: dir.into(),
            resume: false,
            heartbeat_every: 32,
            max_shard_retries: 2,
            retry_backoff_ms: 250,
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
    /// The cache merge found entries with the same fingerprint but
    /// different content (the listed fingerprints).
    MergeConflicts(Vec<String>),
    /// A shard kept failing until [`FleetConfig::max_shard_retries`]
    /// was exhausted.
    ShardExhausted {
        /// Shard index that gave up.
        shard: usize,
        /// Attempts made (retries + 1).
        attempts: usize,
        /// The final attempt's failure.
        msg: String,
    },
    /// A [`FaultPlan`] fault fired (chaos tests only).
    Injected(Fault),
    /// The external abort flag ([`FleetConfig::abort`]) was raised —
    /// typically the CLI's SIGINT handler. The journal stays resumable.
    Interrupted,
    /// A shard cache directory exists but cannot be read — permissions,
    /// a file squatting on the name — so the merge would silently drop
    /// its results.
    ShardDirUnreadable {
        /// The unreadable directory.
        dir: PathBuf,
        /// The underlying probe failure.
        err: std::io::Error,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Plan(e) => write!(f, "{e}"),
            FleetError::Journal(e) => write!(f, "{e}"),
            FleetError::Io(e) => write!(f, "fleet i/o error: {e}"),
            FleetError::Sweep(e) => write!(f, "{e}"),
            FleetError::MergeConflicts(fps) => write!(
                f,
                "cache merge found {} conflicting fingerprint(s): {} \
                 (same scenario, different results — caches are corrupt)",
                fps.len(),
                fps.join(", ")
            ),
            FleetError::ShardExhausted {
                shard,
                attempts,
                msg,
            } => write!(
                f,
                "shard {shard} failed {attempts} attempt(s), retries exhausted: {msg}"
            ),
            FleetError::Injected(fault) => write!(f, "fault injected: {fault}"),
            FleetError::Interrupted => write!(
                f,
                "campaign aborted by interrupt (journal intact; rerun with --resume)"
            ),
            FleetError::ShardDirUnreadable { dir, err } => write!(
                f,
                "shard cache dir `{}` is unreadable ({err}); merging would drop its results",
                dir.display()
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

/// Is a new attempt worth launching after this failure? An injected
/// kill stands for a dying worker, which is transient; everything else —
/// plan, journal, sink, coordinator-side faults — is deterministic and
/// would fail identically again.
fn retryable(e: &FleetError) -> bool {
    matches!(e, FleetError::Injected(Fault::Kill { .. }))
}

/// The backoff before launching attempt `attempt` of a shard (0 for the
/// first attempt, which is not a retry): bounded exponential growth
/// over [`FleetConfig::retry_backoff_ms`] plus a deterministic jitter
/// seeded from (shard, attempt) — retries de-synchronize across shards
/// without a random source, so chaos tests can assert the exact
/// schedule.
pub fn retry_backoff_ms(shard: usize, attempt: usize, base_ms: u64) -> u64 {
    if base_ms == 0 || attempt == 0 {
        return 0;
    }
    let exp = base_ms << (attempt - 1).min(6) as u32;
    let mut h = Hasher::new();
    h.str("griffin-fleet-backoff-v1")
        .usize(shard)
        .usize(attempt);
    exp + h.finish().0 % (base_ms / 4).max(1)
}

/// Sleeps `ms` in small increments, bailing out with
/// [`FleetError::Interrupted`] the moment the abort flag is raised — a
/// backoff must never delay a requested shutdown.
fn sleep_backoff(ms: u64, abort: Option<&AtomicBool>) -> Result<(), FleetError> {
    let deadline = Instant::now() + Duration::from_millis(ms);
    loop {
        if abort.is_some_and(|a| a.load(Ordering::Relaxed)) {
            return Err(FleetError::Interrupted);
        }
        let now = Instant::now();
        if now >= deadline {
            return Ok(());
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(25)));
    }
}

/// The journal's location inside a fleet directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.jsonl")
}

/// One shard's cache directory inside a fleet directory.
pub fn shard_cache_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

/// The merged cache directory inside a fleet directory.
pub fn merged_cache_dir(dir: &Path) -> PathBuf {
    dir.join("merged")
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
            // abort (the fault is coordinator-side, so no retry).
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
/// fault will kill this attempt before its `shard_done`.
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

/// Every existing `shard-*` cache directory under `dir`, sorted — not
/// just the current plan's shards, so a resume with a different shard
/// count still merges results produced under the old partitioning.
fn existing_shard_dirs(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut v = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let is_shard = name.to_str().is_some_and(|n| n.starts_with("shard-"));
        if is_shard && entry.file_type()?.is_dir() {
            v.push(entry.path());
        }
    }
    v.sort();
    Ok(v)
}

/// Probes every shard cache source for readability before the merge.
/// An unreadable directory — permissions stripped, a file squatting on
/// the name — would otherwise surface as an opaque io error halfway
/// through [`merge_dirs`] (or worse, silently contribute nothing);
/// here it becomes a typed [`FleetError::ShardDirUnreadable`] naming
/// the directory.
pub fn verify_shard_sources(sources: &[PathBuf]) -> Result<(), FleetError> {
    for dir in sources {
        let probe = std::fs::read_dir(dir).and_then(|entries| {
            for e in entries {
                e?;
            }
            Ok(())
        });
        if let Err(err) = probe {
            return Err(FleetError::ShardDirUnreadable {
                dir: dir.clone(),
                err,
            });
        }
    }
    Ok(())
}

/// Merges shard caches and assembles the final deterministic report.
fn finalize(
    spec: &SweepSpec,
    cfg: &FleetConfig,
    sink: &mut dyn EventSink,
    start: Instant,
) -> Result<CampaignReport, FleetError> {
    if let Some(shared) = &cfg.shared_cache {
        // A resident driver's shards all wrote into one warm cache —
        // there are no shard directories and nothing to merge. Replaying
        // the grid against it yields the same record list a standalone
        // single-process run produces (the byte-identity guarantee is
        // the replay, not the merge).
        let mut report = run_campaign(spec, shared, cfg.workers)?;
        report.workers = cfg.workers;
        report.elapsed_ms = start.elapsed().as_millis();
        sink.emit(&Event::CampaignDone {
            cells: report.cells.len(),
            elapsed_ms: report.elapsed_ms as u64,
        })?;
        return Ok(report);
    }
    let sources = existing_shard_dirs(&cfg.dir)?;
    verify_shard_sources(&sources)?;
    let merged_dir = merged_cache_dir(&cfg.dir);
    let mr = merge_dirs(&merged_dir, &sources)?;
    sink.emit(&Event::MergeDone {
        sources: sources.len(),
        merged: mr.merged,
        identical: mr.identical,
        healed: mr.healed,
        conflicts: mr.conflicts.len() as u64,
    })?;
    if !mr.conflicts.is_empty() {
        return Err(FleetError::MergeConflicts(mr.conflicts));
    }
    // Replaying the full grid against the merged cache yields the same
    // record list a single-process run produces — and re-simulates any
    // cell whose cached result went missing (or was torn by a dying
    // worker), so the report is always complete. Its cache counters
    // describe this assembly pass (hits ≈ every fleet-computed cell).
    let cache = ResultCache::at_dir(&merged_dir)?;
    let mut report = run_campaign(spec, &cache, cfg.workers)?;
    report.workers = cfg.workers;
    report.elapsed_ms = start.elapsed().as_millis();
    sink.emit(&Event::CampaignDone {
        cells: report.cells.len(),
        elapsed_ms: report.elapsed_ms as u64,
    })?;
    Ok(report)
}

/// Guarantees the terminal-event invariant: any failure, from any exit
/// path, closes the stream with `campaign_failed` (best-effort — the
/// sink itself may be what broke). Success already ended with
/// `campaign_done` inside [`finalize`].
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
/// the executor's worker pool, with completions streamed to
/// `sink`, journaled for resume, and failed shard attempts retried up
/// to [`FleetConfig::max_shard_retries`] (the re-queue skips journaled
/// cells). See the module docs for the state layout, the byte-identity
/// guarantee and the fault-tolerance model.
///
/// # Errors
///
/// [`FleetError`] on plan/journal/merge/executor failures; a sink write
/// failure aborts the campaign (already-journaled cells resume). Every
/// failure still terminates the stream with `campaign_failed`.
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
    let fault = cfg.fault.as_ref();
    let truncate_after = fault.and_then(FaultPlan::journal_truncate_after);
    let mut appends = 0usize;

    for (shard, shard_cells) in plan.cells.iter().enumerate() {
        let cache_dir = shard_cache_dir(&cfg.dir, shard);
        let local_cache;
        let cache: &ResultCache = match &cfg.shared_cache {
            Some(shared) => shared,
            None => {
                local_cache = ResultCache::at_dir(&cache_dir)?;
                &local_cache
            }
        };
        let mut attempt = 0usize;
        loop {
            if cfg.abort_requested() {
                return Err(FleetError::Interrupted);
            }
            let full_todo = remaining_cells(shard_cells, |i| journal.is_completed(i));
            let skipped = shard_cells.len() - full_todo.len();
            let die = fault.and_then(|f| f.kill_after(shard, attempt));
            let mut todo = full_todo;
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
            let attempt_result = run.and_then(|()| {
                if fault.is_some_and(|f| f.corrupts_cache(shard, attempt)) {
                    fault::corrupt_shard_cache(&cache_dir)?;
                }
                match die {
                    Some(after) => Err(FleetError::Injected(Fault::Kill {
                        shard,
                        after,
                        attempt: AttemptGate::Only(attempt),
                    })),
                    None => Ok(()),
                }
            });
            let e = match attempt_result {
                Ok(()) => break,
                Err(e) => e,
            };
            // The failure lifecycle: `shard_failed`, then either the
            // campaign's end or a re-queue and a retry after a backoff.
            // A sink failure while reporting never hides the root cause.
            let msg = e.to_string();
            let reported = sink.emit(&Event::ShardFailed {
                shard,
                attempt,
                msg: msg.clone(),
            });
            if !retryable(&e) {
                return Err(e);
            }
            if attempt >= cfg.max_shard_retries {
                return Err(FleetError::ShardExhausted {
                    shard,
                    attempts: attempt + 1,
                    msg,
                });
            }
            reported?;
            let requeued = shard_cells
                .iter()
                .filter(|c| !journal.is_completed(c.index))
                .count();
            attempt += 1;
            let backoff = retry_backoff_ms(shard, attempt, cfg.retry_backoff_ms);
            sink.emit(&Event::CellsRequeued {
                shard,
                cells: requeued,
            })?;
            sink.emit(&Event::ShardRetried {
                shard,
                attempt,
                backoff_ms: backoff,
            })?;
            sleep_backoff(backoff, cfg.abort.as_deref())?;
        }
    }
    finalize(spec, cfg, sink, start)
}
