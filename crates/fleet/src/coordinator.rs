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
//! Shards execute either **in-process** ([`run_fleet`], sequential
//! shards over the executor's worker pool) or as **subprocesses**
//! ([`run_fleet_spawned`], one `griffin-cli shard-worker` per shard,
//! concurrent, JSONL events over stdout). Both modes stream the same
//! event schema, append the same journal, and end the same way: shard
//! caches are unioned with [`merge_dirs`] (conflicts abort), and the
//! final report is assembled by replaying the whole grid against the
//! merged cache — which is what makes fleet reports **byte-identical**
//! to a single-process [`run_campaign`] of the same spec, regardless of
//! shard count, scheduling order, interruption, retries or resume
//! history.
//!
//! # Fault tolerance
//!
//! A campaign survives the death of its workers. When a shard attempt
//! fails — the subprocess exits abnormally, breaks protocol, or (with
//! [`FleetConfig::heartbeat_timeout_ms`]) goes silent past the liveness
//! deadline and is killed — the coordinator emits `shard_failed`,
//! re-queues the shard's remaining (non-journaled) cells, emits
//! `cells_requeued` + `shard_retried`, and launches a fresh attempt
//! (the respawn skips everything already journaled, so work is never
//! repeated). Attempts are bounded by [`FleetConfig::max_shard_retries`];
//! exhaustion fails the campaign cleanly, and **every** exit path —
//! success or any failure — ends the event stream with exactly one
//! terminal event (`campaign_done` / `campaign_failed`).
//!
//! Recovery paths are exercised deterministically through
//! [`fault::FaultPlan`]: the in-process coordinator consults
//! [`FleetConfig::fault`] directly, spawned workers arm their own
//! faults from the inherited
//! [`GRIFFIN_FAULT`](crate::fault::FAULT_ENV) environment (gated by the
//! attempt number the coordinator exports per respawn).
//!
//! Respawns back off exponentially ([`retry_backoff_ms`], deterministic
//! jitter) instead of hammering a struggling machine, and an external
//! abort flag ([`FleetConfig::abort`] — the CLI's SIGINT handler)
//! drains workers and ends the stream with a terminal `campaign_failed`
//! while leaving the journal resumable.
//!
//! # Multi-host fleets
//!
//! [`run_fleet_hosted`] runs the spawned mode across several machines:
//! each shard is planned onto a home host fingerprint-stably
//! ([`host_of`]), workers launch through an [`ExecTransport`] per host,
//! and shard events carry the host label. A host whose launches or
//! workers keep failing
//! ([`FleetConfig::host_failure_limit`] consecutive failures, while
//! other hosts survive) is declared **lost** (`host_lost`): its pending
//! shards re-queue onto the surviving hosts, and the campaign only
//! fails when every host is gone. Remote shard caches are pulled back
//! after each successful worker and verified (a torn pull is re-pulled
//! once; what remains torn is healed by the merge and re-simulated by
//! the final replay — byte identity never depends on a clean pull).

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use griffin_sweep::cache::{merge_dirs, scan_dir, ResultCache};
use griffin_sweep::executor::{
    default_workers, run_campaign, run_cells_pooled, CampaignReport, CellEvent, ScratchPool,
    SweepError,
};
use griffin_sweep::fingerprint::{Fingerprint, Hasher};
use griffin_sweep::scenario::ScenarioProvenance;
use griffin_sweep::spec::{Cell, SweepSpec};

use crate::events::{Event, EventSink, JsonlSink};
use crate::fault::{self, AttemptGate, Fault, FaultPlan};
use crate::journal::{Journal, JournalError, JournalHeader};
use crate::plan::{host_of, remaining_cells, PlanError, ShardPlan};
use crate::transport::{ExecTransport, LocalExec, WorkerInvocation};

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
    /// Liveness deadline for spawned workers: a worker that emits no
    /// event for this many milliseconds is declared dead, killed, and
    /// retried. 0 disables the watchdog. Must comfortably exceed the
    /// worst-case single-cell simulation time — completions are the
    /// liveness signal.
    pub heartbeat_timeout_ms: u64,
    /// Base of the bounded exponential backoff before a shard respawn:
    /// attempt `n` waits `base << min(n-1, 6)` ms plus a deterministic
    /// jitter of up to `base / 4` ms seeded from (shard, attempt) — see
    /// [`retry_backoff_ms`]. 0 disables backoff (tests).
    pub retry_backoff_ms: u64,
    /// Consecutive failures on one host before it is declared lost and
    /// its shards re-queue onto surviving hosts (multi-host fleets
    /// only; a host is never declared lost while it is the last one).
    pub host_failure_limit: usize,
    /// External abort flag (the CLI's SIGINT handler sets it): the
    /// coordinator stops launching work, kills running workers, and
    /// fails the campaign with [`FleetError::Interrupted`] — journal
    /// intact, stream closed by a terminal `campaign_failed`.
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
    /// (the serve daemon). When set, the **in-process** coordinator runs
    /// every shard against this cache instead of per-shard `shard-<i>/`
    /// directories, and the final report replays the grid against it
    /// directly — no merge step. Spawned/hosted fleets ignore it (their
    /// workers are separate processes with private caches).
    pub shared_cache: Option<Arc<ResultCache>>,
    /// Scratch pool shared across campaigns by a resident driver:
    /// in-process shard workers check their simulation scratches out of
    /// it, so buffer capacity survives from one campaign to the next.
    /// `None` (one-shot runs) makes each worker build a fresh scratch,
    /// as ever.
    pub scratch_pool: Option<Arc<ScratchPool>>,
}

impl FleetConfig {
    /// A config with the default worker count, heartbeat cadence and
    /// retry budget, and no watchdog or fault plan.
    pub fn new(dir: impl Into<PathBuf>, shards: usize) -> Self {
        FleetConfig {
            shards,
            workers: griffin_sweep::executor::default_workers(),
            dir: dir.into(),
            resume: false,
            heartbeat_every: 32,
            max_shard_retries: 2,
            heartbeat_timeout_ms: 0,
            retry_backoff_ms: 250,
            host_failure_limit: 2,
            abort: None,
            fault: None,
            scenario: None,
            shared_cache: None,
            scratch_pool: None,
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
    /// A shard's plan fingerprint did not match the coordinator's.
    SpecFingerprint {
        /// Fingerprint the coordinator expects.
        expected: Fingerprint,
        /// Fingerprint this worker computed.
        found: Fingerprint,
    },
    /// The cache merge found entries with the same fingerprint but
    /// different content (the listed fingerprints).
    MergeConflicts(Vec<String>),
    /// A shard-worker subprocess failed or broke protocol.
    Worker {
        /// Shard index of the failing worker.
        shard: usize,
        /// What went wrong.
        msg: String,
    },
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
    /// The campaign was already aborted by an earlier failure on
    /// another shard (reported alongside the root cause).
    Aborted,
    /// The external abort flag ([`FleetConfig::abort`]) was raised —
    /// typically the CLI's SIGINT handler. The journal stays resumable.
    Interrupted,
    /// Every host of a multi-host fleet was declared lost.
    HostsExhausted {
        /// Total hosts the fleet started with.
        hosts: usize,
    },
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
            FleetError::SpecFingerprint { expected, found } => write!(
                f,
                "shard spec fingerprint mismatch: expected {expected}, got {found} \
                 (the worker is running a different campaign grid)"
            ),
            FleetError::MergeConflicts(fps) => write!(
                f,
                "cache merge found {} conflicting fingerprint(s): {} \
                 (same scenario, different results — caches are corrupt)",
                fps.len(),
                fps.join(", ")
            ),
            FleetError::Worker { shard, msg } => write!(f, "shard {shard} worker failed: {msg}"),
            FleetError::ShardExhausted {
                shard,
                attempts,
                msg,
            } => write!(
                f,
                "shard {shard} failed {attempts} attempt(s), retries exhausted: {msg}"
            ),
            FleetError::Injected(fault) => write!(f, "fault injected: {fault}"),
            FleetError::Aborted => write!(f, "campaign aborted by an earlier failure"),
            FleetError::Interrupted => write!(
                f,
                "campaign aborted by interrupt (journal intact; rerun with --resume)"
            ),
            FleetError::HostsExhausted { hosts } => {
                write!(
                    f,
                    "all {hosts} fleet host(s) lost; no machine left to run shards"
                )
            }
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

/// Is a new attempt worth launching after this failure? Worker deaths
/// (real or injected) are transient; everything else — plan, journal,
/// sink, spec mismatches, coordinator-side faults — is deterministic
/// and would fail identically again.
fn retryable(e: &FleetError) -> bool {
    matches!(
        e,
        FleetError::Worker { .. } | FleetError::Injected(Fault::Kill { .. } | Fault::Stall { .. })
    )
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

/// Sink + journal behind one lock: events and journal appends from
/// worker threads serialize through it, and the first coordinator-side
/// failure parks here to abort the run (`failed` stays set after the
/// error is taken, so late threads stop emitting and report
/// [`FleetError::Aborted`] instead of carrying on against a broken
/// sink or journal).
struct Shared<'a> {
    sink: &'a mut dyn EventSink,
    journal: Option<&'a mut Journal>,
    err: Option<FleetError>,
    failed: bool,
    /// Journal appends so far (campaign-wide), driving the
    /// truncate-journal fault point.
    appends: usize,
    truncate_journal_after: Option<usize>,
}

impl<'a> Shared<'a> {
    fn new(
        sink: &'a mut dyn EventSink,
        journal: Option<&'a mut Journal>,
        appends: usize,
        truncate_journal_after: Option<usize>,
    ) -> Self {
        Shared {
            sink,
            journal,
            err: None,
            failed: false,
            appends,
            truncate_journal_after,
        }
    }

    fn set_err(&mut self, e: FleetError) {
        self.err = Some(e);
        self.failed = true;
    }

    fn emit(&mut self, ev: &Event) {
        if self.failed {
            return;
        }
        if let Err(e) = self.sink.emit(ev) {
            self.set_err(FleetError::Io(e));
        }
    }

    fn record_done(&mut self, cell: usize, fp: Fingerprint) {
        if self.failed {
            return;
        }
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        if let Err(e) = j.append(cell, fp) {
            self.set_err(FleetError::Io(e));
            return;
        }
        self.appends += 1;
        if self.truncate_journal_after == Some(self.appends) {
            // Simulated coordinator crash mid-append: tear the tail and
            // abort (the fault is coordinator-side, so no retry).
            let _ = j.tear_tail_for_fault();
            self.set_err(FleetError::Injected(Fault::TruncateJournal {
                after: self.appends,
            }));
        }
    }

    /// Whether a cell is journaled as complete (false without a journal).
    fn is_done(&self, cell: usize) -> bool {
        self.journal
            .as_deref()
            .is_some_and(|j| j.is_completed(cell))
    }

    fn take_err(&mut self) -> Result<(), FleetError> {
        match self.err.take() {
            Some(e) => Err(e),
            None if self.failed => Err(FleetError::Aborted),
            None => Ok(()),
        }
    }
}

/// Executes one shard's cells against its cache, streaming events (and
/// journaling completions when a journal is attached). `planned` /
/// `skipped` describe the full shard for `shard_start` (with fault
/// truncation, `todo` can be shorter than `planned - skipped`);
/// `emit_done` is cleared when a fault will kill this attempt before
/// its `shard_done`. `build_workers` bounds the executor's phase-2
/// build pool: the whole machine for the in-process coordinator, the
/// worker's pinned thread budget for spawned shards (N concurrent
/// siblings share the cores). `pool` is the resident driver's warm
/// scratch pool, when one exists (`None` = fresh scratches).
#[allow(clippy::too_many_arguments)]
fn run_shard_cells(
    spec: &SweepSpec,
    shard: usize,
    todo: &[Cell],
    planned: usize,
    skipped: usize,
    cache: &ResultCache,
    workers: usize,
    build_workers: usize,
    heartbeat_every: usize,
    shared: &Mutex<Shared<'_>>,
    emit_done: bool,
    pool: Option<&ScratchPool>,
) -> Result<(), FleetError> {
    let start = Instant::now();
    shared.lock().expect("fleet lock").emit(&Event::ShardStart {
        shard,
        cells: planned,
        skipped,
        // Host labels are the coordinator's knowledge, stamped on the
        // consumer side: a worker does not know which machine it is.
        host: None,
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
    let throwaway = ScratchPool::new();
    run_cells_pooled(
        spec,
        todo,
        cache,
        workers,
        build_workers,
        &observe,
        pool.unwrap_or(&throwaway),
    )?;
    let mut g = shared.lock().expect("fleet lock");
    g.take_err()?;
    if emit_done {
        let stats = cache.stats();
        g.emit(&Event::ShardDone {
            shard,
            simulated: (stats.stores - stats0.stores) as usize,
            cached: (stats.hits - stats0.hits) as usize,
            elapsed_ms: start.elapsed().as_millis() as u64,
            host: None,
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

/// Emits the failure lifecycle for one dead shard attempt and decides
/// whether to retry. Returns the next attempt number, or the error to
/// abort with. `requeued` is the shard's remaining non-journaled cell
/// count at the moment of death; `backoff_ms` is the wait the caller
/// will impose before the respawn (announced on `shard_retried` so
/// observers can account for the quiet period). `hosts` carries the
/// (failed, next) host labels in multi-host fleets, `(None, None)`
/// otherwise.
#[allow(clippy::too_many_arguments)]
fn shard_failure(
    shard: usize,
    attempt: usize,
    max_retries: usize,
    requeued: usize,
    backoff_ms: u64,
    hosts: (Option<String>, Option<String>),
    e: FleetError,
    emit: &mut dyn FnMut(&Event),
) -> Result<usize, FleetError> {
    let can_retry = retryable(&e) && attempt < max_retries;
    emit(&Event::ShardFailed {
        shard,
        attempt,
        msg: e.to_string(),
        host: hosts.0,
    });
    if !can_retry {
        return Err(if retryable(&e) {
            FleetError::ShardExhausted {
                shard,
                attempts: attempt + 1,
                msg: e.to_string(),
            }
        } else {
            e
        });
    }
    emit(&Event::CellsRequeued {
        shard,
        cells: requeued,
    });
    emit(&Event::ShardRetried {
        shard,
        attempt: attempt + 1,
        backoff_ms,
        host: hosts.1,
    });
    Ok(attempt + 1)
}

/// Runs a sharded campaign **in-process**: shards execute sequentially,
/// each over the executor's worker pool, with completions streamed to
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
    let resumed = journal.completed().len();
    sink.emit(&Event::CampaignStart {
        campaign: spec.name.clone(),
        spec_fp: plan.spec_fp,
        cells: plan.cell_count(),
        shards: plan.shards,
        resumed,
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
            // In-process, a stall cannot "go silent" without hanging
            // the whole campaign, so it degrades to a kill: the
            // liveness-timeout path proper is exercised in spawn mode.
            let die = fault.and_then(|f| {
                f.kill_after(shard, attempt)
                    .or_else(|| f.stall_after(shard, attempt))
            });
            let mut todo = full_todo;
            if let Some(k) = die {
                todo.truncate(k);
            }
            let shared = Mutex::new(Shared::new(
                sink,
                Some(&mut journal),
                appends,
                truncate_after,
            ));
            let run = run_shard_cells(
                spec,
                shard,
                &todo,
                shard_cells.len(),
                skipped,
                cache,
                cfg.workers,
                // In-process: this is the machine's only campaign
                // process, so builds use every core as plain `sweep`
                // does.
                cfg.workers.max(default_workers()),
                cfg.heartbeat_every,
                &shared,
                die.is_none(),
                cfg.scratch_pool.as_deref(),
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
            match attempt_result {
                Ok(()) => break,
                Err(e) => {
                    let requeued = shard_cells
                        .iter()
                        .filter(|c| !journal.is_completed(c.index))
                        .count();
                    let backoff = retry_backoff_ms(shard, attempt + 1, cfg.retry_backoff_ms);
                    let mut sink_err = None;
                    attempt = shard_failure(
                        shard,
                        attempt,
                        cfg.max_shard_retries,
                        requeued,
                        backoff,
                        (None, None),
                        e,
                        &mut |ev| {
                            if sink_err.is_none() {
                                sink_err = sink.emit(ev).err();
                            }
                        },
                    )?;
                    if let Some(e) = sink_err {
                        return Err(FleetError::Io(e));
                    }
                    sleep_backoff(backoff, cfg.abort.as_deref())?;
                }
            }
        }
    }
    finalize(spec, cfg, sink, start)
}

/// What the coordinator tells the CLI about one shard-worker launch.
#[derive(Debug, Clone)]
pub struct WorkerSpawn {
    /// Shard index the worker must execute.
    pub shard: usize,
    /// Shard count of the plan.
    pub shards: usize,
    /// The worker's private cache directory.
    pub cache_dir: PathBuf,
    /// The journal to consult (read-only) for completed cells.
    pub journal: PathBuf,
    /// The plan fingerprint the worker must verify.
    pub expect_fp: Fingerprint,
    /// Attempt number of this launch (0 = first; also exported to the
    /// subprocess via [`fault::ATTEMPT_ENV`]).
    pub attempt: usize,
}

/// How the coordinator turns a [`WorkerSpawn`] into something a
/// transport can launch: the legacy [`Command`]-building callback of
/// [`run_fleet_spawned`], or the transport-agnostic
/// [`WorkerInvocation`] callback of [`run_fleet_hosted`].
enum WorkerLauncher<'a> {
    Command(&'a (dyn Fn(&WorkerSpawn) -> Command + Sync)),
    Invocation(&'a (dyn Fn(&WorkerSpawn) -> WorkerInvocation + Sync)),
}

impl WorkerLauncher<'_> {
    fn invocation(&self, w: &WorkerSpawn) -> WorkerInvocation {
        match self {
            WorkerLauncher::Command(f) => WorkerInvocation::from_command(&f(w)),
            WorkerLauncher::Invocation(f) => f(w),
        }
    }
}

/// What [`HostBoard::note_failure`] reports when a failure crossed the
/// host-loss threshold.
struct HostLoss {
    host: String,
    /// Shards that were pending on the host when it was lost (they
    /// re-queue onto survivors on their next retry).
    moved: usize,
}

/// Shard→host bookkeeping for one campaign: which host each shard is
/// currently assigned to, which hosts are lost, and how close each is
/// to being declared so. `named = false` (the single-machine
/// [`run_fleet_spawned`] path) suppresses host labels and host events
/// entirely — streams look exactly as they did before transports.
struct HostBoard<'t> {
    transports: &'t [Box<dyn ExecTransport>],
    named: bool,
    spec_fp: Fingerprint,
    state: Mutex<BoardState>,
}

struct BoardState {
    lost: Vec<bool>,
    /// Consecutive failures per host (any shard), reset on any success.
    consecutive: Vec<usize>,
    /// Shards currently assigned per host.
    pending: Vec<usize>,
    /// Hosts that already emitted `host_retired` (once per host).
    retired: Vec<bool>,
    /// Current host index per shard.
    current: Vec<Option<usize>>,
}

impl<'t> HostBoard<'t> {
    fn new(
        transports: &'t [Box<dyn ExecTransport>],
        named: bool,
        spec_fp: Fingerprint,
        shards: usize,
    ) -> Self {
        let n = transports.len();
        HostBoard {
            transports,
            named,
            spec_fp,
            state: Mutex::new(BoardState {
                lost: vec![false; n],
                consecutive: vec![0; n],
                pending: vec![0; n],
                retired: vec![false; n],
                current: vec![None; shards],
            }),
        }
    }

    fn transport(&self, host: usize) -> &dyn ExecTransport {
        self.transports[host].as_ref()
    }

    /// The host label stamped on events — `None` for anonymous
    /// single-machine fleets.
    fn label(&self, host: usize) -> Option<String> {
        self.named.then(|| self.transports[host].host().to_string())
    }

    /// Assigns (or re-confirms) the shard's host: its fingerprint-stable
    /// home host, or — walking forward deterministically — the first
    /// surviving host after it.
    ///
    /// # Errors
    ///
    /// [`FleetError::HostsExhausted`] when every host is lost.
    fn assign(&self, shard: usize) -> Result<usize, FleetError> {
        let n = self.transports.len();
        let mut s = self.state.lock().expect("host board");
        let home = host_of(self.spec_fp, shard, n);
        let Some(idx) = (0..n).map(|o| (home + o) % n).find(|&i| !s.lost[i]) else {
            return Err(FleetError::HostsExhausted { hosts: n });
        };
        if s.current[shard] != Some(idx) {
            if let Some(old) = s.current[shard] {
                s.pending[old] -= 1;
            }
            s.pending[idx] += 1;
            s.current[shard] = Some(idx);
        }
        Ok(idx)
    }

    /// Records one failed attempt on `host`. Crossing
    /// `failure_limit` consecutive failures — while at least one other
    /// host survives — declares the host lost and reports what moved.
    fn note_failure(&self, host: usize, failure_limit: usize) -> Option<HostLoss> {
        let mut s = self.state.lock().expect("host board");
        s.consecutive[host] += 1;
        let live = s.lost.iter().filter(|l| !**l).count();
        let crossed = self.named
            && !s.lost[host]
            && failure_limit > 0
            && s.consecutive[host] >= failure_limit
            && live > 1;
        if !crossed {
            return None;
        }
        s.lost[host] = true;
        Some(HostLoss {
            host: self.transports[host].host().to_string(),
            moved: s.pending[host],
        })
    }

    /// Records the shard's successful completion; returns the host's
    /// name when this was its last pending shard (to emit
    /// `host_retired`, once per host).
    fn complete(&self, shard: usize) -> Option<String> {
        let mut s = self.state.lock().expect("host board");
        let host = s.current[shard]?;
        s.consecutive[host] = 0;
        s.pending[host] -= 1;
        let retire = self.named && !s.lost[host] && s.pending[host] == 0 && !s.retired[host];
        if !retire {
            return None;
        }
        s.retired[host] = true;
        Some(self.transports[host].host().to_string())
    }
}

/// Runs a sharded campaign by **spawning one subprocess per shard**
/// (concurrently), consuming each worker's JSONL event stream from its
/// stdout: events are validated, re-emitted into `sink`, and `cell_done`
/// lines drive the coordinator-owned journal. A worker that dies —
/// abnormal exit, protocol break, or silence past
/// [`FleetConfig::heartbeat_timeout_ms`] (the watchdog kills it) — has
/// its remaining cells re-queued onto a respawned worker (after the
/// [`retry_backoff_ms`] wait), up to [`FleetConfig::max_shard_retries`]
/// attempts per shard. `make_command` turns a [`WorkerSpawn`] into the
/// `griffin-cli shard-worker …` invocation (or any protocol-compatible
/// program); stdout is piped, stderr inherits, and the coordinator
/// exports the attempt number via [`fault::ATTEMPT_ENV`].
///
/// This is the single-machine entry point: it routes through the same
/// transport machinery as [`run_fleet_hosted`] over one anonymous
/// [`LocalExec`], so its event streams carry no host labels.
///
/// # Errors
///
/// As [`run_fleet`], plus [`FleetError::Worker`] /
/// [`FleetError::ShardExhausted`] when a shard keeps failing. Every
/// failure still terminates the stream with `campaign_failed`.
pub fn run_fleet_spawned(
    spec: &SweepSpec,
    cfg: &FleetConfig,
    make_command: &(dyn Fn(&WorkerSpawn) -> Command + Sync),
    sink: &mut dyn EventSink,
) -> Result<CampaignReport, FleetError> {
    let transports: [Box<dyn ExecTransport>; 1] = [Box::new(LocalExec::default())];
    let launcher = WorkerLauncher::Command(make_command);
    let result = run_fleet_transports_inner(spec, cfg, &transports, false, &launcher, sink);
    finish_with_terminal(sink, result)
}

/// Runs a sharded campaign across a **multi-host fleet**: one
/// [`ExecTransport`] per machine, shards planned onto home hosts
/// fingerprint-stably ([`host_of`]), shard events stamped with host
/// labels, and `host_lost` / `host_retired` tracking
/// per-machine liveness. A host that keeps failing
/// ([`FleetConfig::host_failure_limit`] consecutive failures while
/// others survive) is declared lost and its shards re-queue onto the
/// surviving hosts; remote shard caches are pulled back and verified
/// after each successful worker. `make_invocation` builds the
/// transport-agnostic worker command line.
///
/// # Errors
///
/// As [`run_fleet_spawned`], plus [`FleetError::HostsExhausted`] when
/// every host is lost (or `transports` is empty). Every failure still
/// terminates the stream with `campaign_failed`.
pub fn run_fleet_hosted(
    spec: &SweepSpec,
    cfg: &FleetConfig,
    transports: &[Box<dyn ExecTransport>],
    make_invocation: &(dyn Fn(&WorkerSpawn) -> WorkerInvocation + Sync),
    sink: &mut dyn EventSink,
) -> Result<CampaignReport, FleetError> {
    let launcher = WorkerLauncher::Invocation(make_invocation);
    let result = run_fleet_transports_inner(spec, cfg, transports, true, &launcher, sink);
    finish_with_terminal(sink, result)
}

fn run_fleet_transports_inner(
    spec: &SweepSpec,
    cfg: &FleetConfig,
    transports: &[Box<dyn ExecTransport>],
    named: bool,
    launcher: &WorkerLauncher<'_>,
    sink: &mut dyn EventSink,
) -> Result<CampaignReport, FleetError> {
    let start = Instant::now();
    if transports.is_empty() {
        return Err(FleetError::HostsExhausted { hosts: 0 });
    }
    let plan = ShardPlan::new(spec, cfg.shards)?;
    std::fs::create_dir_all(&cfg.dir)?;
    let mut journal = Journal::open(
        journal_path(&cfg.dir),
        &plan_header(spec, &plan, cfg.scenario.as_ref()),
        cfg.resume,
    )?;
    let resumed = journal.completed().len();
    sink.emit(&Event::CampaignStart {
        campaign: spec.name.clone(),
        spec_fp: plan.spec_fp,
        cells: plan.cell_count(),
        shards: plan.shards,
        resumed,
        scenario: cfg.scenario.clone(),
    })?;
    let truncate_after = cfg
        .fault
        .as_ref()
        .and_then(FaultPlan::journal_truncate_after);

    let board = HostBoard::new(transports, named, plan.spec_fp, cfg.shards);
    let shared = Mutex::new(Shared::new(sink, Some(&mut journal), 0, truncate_after));
    let results: Vec<Result<(), FleetError>> = std::thread::scope(|s| {
        let shared = &shared;
        let plan = &plan;
        let board = &board;
        let handles: Vec<_> = plan
            .cells
            .iter()
            .enumerate()
            .map(|(shard, shard_cells)| {
                s.spawn(move || {
                    drive_spawned_shard(shard, shard_cells, plan, cfg, launcher, board, shared)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard driver thread"))
            .collect()
    });
    // Prefer a root-cause error over the `Aborted` echoes other
    // drivers report once the campaign is already going down.
    let shared = shared.into_inner().expect("fleet lock");
    let mut errs: Vec<FleetError> = shared
        .err
        .into_iter()
        .chain(results.into_iter().filter_map(Result::err))
        .collect();
    if !errs.is_empty() {
        let pos = errs
            .iter()
            .position(|e| !matches!(e, FleetError::Aborted))
            .unwrap_or(0);
        return Err(errs.swap_remove(pos));
    }
    if cfg.abort_requested() {
        // The interrupt landed after the last worker drained but before
        // the merge: still a clean abort, not a completed campaign.
        return Err(FleetError::Interrupted);
    }
    finalize(spec, cfg, sink, start)
}

/// Owns one shard's lifecycle in spawn mode: assign a host, launch a
/// worker through its transport, consume its stream, and retry — with
/// backoff, possibly on another host — until the shard completes or
/// the retry budget / host pool is spent.
fn drive_spawned_shard(
    shard: usize,
    shard_cells: &[Cell],
    plan: &ShardPlan,
    cfg: &FleetConfig,
    launcher: &WorkerLauncher<'_>,
    board: &HostBoard<'_>,
    shared: &Mutex<Shared<'_>>,
) -> Result<(), FleetError> {
    let mut attempt = 0usize;
    loop {
        if cfg.abort_requested() {
            return Err(FleetError::Interrupted);
        }
        // (Re-)assign every iteration: the host may have been declared
        // lost by a sibling shard while this one slept in backoff.
        let host = board.assign(shard)?;
        let label = board.label(host);
        let res = spawn_worker_attempt(
            shard,
            shard_cells,
            plan,
            attempt,
            cfg,
            launcher,
            board.transport(host),
            label.as_deref(),
            shared,
        );
        match res {
            Ok(()) => {
                let retired = board.complete(shard);
                let mut g = shared.lock().expect("fleet lock");
                if let Some(host) = retired {
                    g.emit(&Event::HostRetired { host });
                }
                return g.take_err();
            }
            // An interrupt is a shutdown, not a shard failure: no
            // failure lifecycle, no host accounting.
            Err(FleetError::Interrupted) => return Err(FleetError::Interrupted),
            Err(e) => {
                let loss = board.note_failure(host, cfg.host_failure_limit);
                let mut g = shared.lock().expect("fleet lock");
                let requeued = shard_cells.iter().filter(|c| !g.is_done(c.index)).count();
                let can_retry = retryable(&e) && attempt < cfg.max_shard_retries;
                g.emit(&Event::ShardFailed {
                    shard,
                    attempt,
                    msg: e.to_string(),
                    host: label,
                });
                if let Some(loss) = loss {
                    g.emit(&Event::HostLost {
                        host: loss.host,
                        shards: loss.moved,
                    });
                }
                if !can_retry {
                    // The root cause outranks any sink trouble while
                    // reporting it.
                    let _ = g.take_err();
                    return Err(if retryable(&e) {
                        FleetError::ShardExhausted {
                            shard,
                            attempts: attempt + 1,
                            msg: e.to_string(),
                        }
                    } else {
                        e
                    });
                }
                // Re-queue onto the (possibly different) next host.
                let next = match board.assign(shard) {
                    Ok(h) => h,
                    Err(err) => {
                        let _ = g.take_err();
                        return Err(err);
                    }
                };
                let backoff = retry_backoff_ms(shard, attempt + 1, cfg.retry_backoff_ms);
                g.emit(&Event::CellsRequeued {
                    shard,
                    cells: requeued,
                });
                g.emit(&Event::ShardRetried {
                    shard,
                    attempt: attempt + 1,
                    backoff_ms: backoff,
                    host: board.label(next),
                });
                g.take_err()?;
                drop(g);
                sleep_backoff(backoff, cfg.abort.as_deref())?;
                attempt += 1;
            }
        }
    }
}

/// Launches and fully consumes one worker attempt for one shard,
/// through `transport`. A shard with nothing left to do (journal caught
/// up — including after a predecessor attempt journaled everything but
/// died before `shard_done`) is reported locally without paying a
/// process spawn or a cache pull (the final replay re-simulates
/// anything a never-pulled cache would have contributed).
#[allow(clippy::too_many_arguments)]
fn spawn_worker_attempt(
    shard: usize,
    shard_cells: &[Cell],
    plan: &ShardPlan,
    attempt: usize,
    cfg: &FleetConfig,
    launcher: &WorkerLauncher<'_>,
    transport: &dyn ExecTransport,
    host: Option<&str>,
    shared: &Mutex<Shared<'_>>,
) -> Result<(), FleetError> {
    {
        let mut g = shared.lock().expect("fleet lock");
        let remaining = shard_cells.iter().filter(|c| !g.is_done(c.index)).count();
        if remaining == 0 {
            g.emit(&Event::ShardStart {
                shard,
                cells: shard_cells.len(),
                skipped: shard_cells.len(),
                host: host.map(str::to_string),
            });
            g.emit(&Event::ShardDone {
                shard,
                simulated: 0,
                cached: 0,
                elapsed_ms: 0,
                host: host.map(str::to_string),
            });
            return g.take_err();
        }
        g.take_err()?;
    }
    let info = WorkerSpawn {
        shard,
        shards: plan.shards,
        cache_dir: shard_cache_dir(&cfg.dir, shard),
        journal: journal_path(&cfg.dir),
        expect_fp: plan.spec_fp,
        attempt,
    };
    let host_tag = host.map(|h| format!(" on host `{h}`")).unwrap_or_default();
    let mut inv = launcher.invocation(&info);
    inv.env
        .push((fault::ATTEMPT_ENV.to_string(), attempt.to_string()));
    let mut handle = transport
        .spawn(&info, &inv)
        .map_err(|e| FleetError::Worker {
            shard,
            msg: format!("spawn failed{host_tag}: {e}"),
        })?;
    let stdout = match handle.take_stdout() {
        Some(s) => s,
        None => {
            let _ = handle.kill();
            let _ = handle.wait();
            return Err(FleetError::Worker {
                shard,
                msg: format!("transport produced no stdout{host_tag}"),
            });
        }
    };

    // Liveness watchdog: any stream line is a proof of life; a worker
    // silent past the deadline is killed (its reader then sees EOF and
    // reports the death, which routes into the retry path). The same
    // poll loop watches the abort flag, so an interrupt kills running
    // workers instead of waiting them out.
    let handle = Mutex::new(handle);
    let t0 = Instant::now();
    let last_event_ms = AtomicU64::new(0);
    let reader_done = AtomicBool::new(false);
    let timed_out = AtomicBool::new(false);
    let abort_killed = AtomicBool::new(false);
    let stream_res = std::thread::scope(|ws| {
        if cfg.heartbeat_timeout_ms > 0 || cfg.abort.is_some() {
            ws.spawn(|| {
                let poll = Duration::from_millis(if cfg.heartbeat_timeout_ms > 0 {
                    (cfg.heartbeat_timeout_ms / 8).clamp(10, 250)
                } else {
                    50
                });
                loop {
                    std::thread::sleep(poll);
                    if reader_done.load(Ordering::Acquire) {
                        break;
                    }
                    if cfg.abort_requested() {
                        abort_killed.store(true, Ordering::Release);
                        let _ = handle.lock().expect("worker handle").kill();
                        break;
                    }
                    if cfg.heartbeat_timeout_ms > 0 {
                        let now = t0.elapsed().as_millis() as u64;
                        let last = last_event_ms.load(Ordering::Acquire);
                        if now.saturating_sub(last) > cfg.heartbeat_timeout_ms {
                            timed_out.store(true, Ordering::Release);
                            let _ = handle.lock().expect("worker handle").kill();
                            break;
                        }
                    }
                }
            });
        }
        let r = consume_worker_stream(shard, plan.cell_count(), stdout, host, shared, &|| {
            last_event_ms.store(t0.elapsed().as_millis() as u64, Ordering::Release);
        });
        reader_done.store(true, Ordering::Release);
        r
    });
    let mut handle = handle.into_inner().expect("worker handle");
    if stream_res.is_err() {
        // Protocol break with the process possibly still alive: reap it
        // before reporting, or the retry races a zombie writer.
        let _ = handle.kill();
    }
    let status = handle.wait();
    // The watchdog verdict only explains an attempt that actually
    // failed: a worker that got its final burst out and exited cleanly
    // in the same instant the watchdog fired still succeeded (the kill
    // landed on an already-finished process).
    let outcome = stream_res.and(match status {
        Ok(st) if st.success() => Ok(()),
        Ok(st) => Err(FleetError::Worker {
            shard,
            msg: format!("exited with {st}{host_tag}"),
        }),
        Err(e) => Err(FleetError::Worker {
            shard,
            msg: format!("wait failed{host_tag}: {e}"),
        }),
    });
    match outcome {
        // A failure while draining for an interrupt *is* the interrupt:
        // the kill was ours.
        Err(_) if abort_killed.load(Ordering::Acquire) || cfg.abort_requested() => {
            Err(FleetError::Interrupted)
        }
        Err(_) if timed_out.load(Ordering::Acquire) => Err(FleetError::Worker {
            shard,
            msg: format!(
                "no events for over {} ms (heartbeat timeout); worker killed{host_tag}",
                cfg.heartbeat_timeout_ms
            ),
        }),
        Err(e) => Err(e),
        Ok(()) => pull_shard_cache(shard, &info, transport, &host_tag),
    }
}

/// Pulls a remote shard cache back and verifies the copy. A failed
/// pull is retried once, then fails the attempt (burning a shard retry,
/// which also feeds host-failure accounting). A pulled copy containing
/// torn entries is re-pulled once and then **accepted** either way:
/// the merge heals torn entries where it can and the final replay
/// re-simulates anything still missing, so verification limits damage
/// but never gates correctness.
fn pull_shard_cache(
    shard: usize,
    info: &WorkerSpawn,
    transport: &dyn ExecTransport,
    host_tag: &str,
) -> Result<(), FleetError> {
    let pulled = match transport.pull_cache(info) {
        Ok(p) => p,
        Err(first) => transport.pull_cache(info).map_err(|e| FleetError::Worker {
            shard,
            msg: format!("cache pull failed twice{host_tag}: {first}; then: {e}"),
        })?,
    };
    if !pulled {
        return Ok(());
    }
    let scan = scan_dir(&info.cache_dir)?;
    if scan.torn > 0 {
        let _ = transport.pull_cache(info);
    }
    Ok(())
}

/// Reads one worker's JSONL stream, validating shard provenance and
/// cell range, forwarding events and journaling completions. `host` is
/// stamped onto the shard lifecycle events — the worker doesn't know
/// which machine it runs on; the coordinator does. `tick` is called
/// once per stream line (the liveness signal for the watchdog).
fn consume_worker_stream(
    shard: usize,
    cells: usize,
    stdout: impl std::io::Read,
    host: Option<&str>,
    shared: &Mutex<Shared<'_>>,
    tick: &(dyn Fn() + Sync),
) -> Result<(), FleetError> {
    let mut saw_done = false;
    for line in std::io::BufReader::new(stdout).lines() {
        let line = line.map_err(|e| FleetError::Worker {
            shard,
            msg: format!("stream read failed: {e}"),
        })?;
        tick();
        if line.trim().is_empty() {
            continue;
        }
        let mut ev = Event::parse_line(&line).map_err(|e| FleetError::Worker {
            shard,
            msg: format!("bad event line: {e}"),
        })?;
        if let Some(h) = host {
            match &mut ev {
                Event::ShardStart { host: eh, .. } | Event::ShardDone { host: eh, .. } => {
                    *eh = Some(h.to_string());
                }
                _ => {}
            }
        }
        let claimed = match &ev {
            Event::ShardStart { shard, .. }
            | Event::CellStart { shard, .. }
            | Event::CellDone { shard, .. }
            | Event::Heartbeat { shard, .. }
            | Event::ShardDone { shard, .. } => *shard,
            other => {
                return Err(FleetError::Worker {
                    shard,
                    msg: format!("campaign-level event from a worker: {:?}", other),
                })
            }
        };
        if claimed != shard {
            return Err(FleetError::Worker {
                shard,
                msg: format!("event claims shard {claimed}"),
            });
        }
        if let Event::CellDone { cell, .. } | Event::CellStart { cell, .. } = &ev {
            // Never journal (or forward) an out-of-range index: a bad
            // entry would make every future resume of this state dir
            // fail the journal's range check.
            if *cell >= cells {
                return Err(FleetError::Worker {
                    shard,
                    msg: format!("cell {cell} out of range (grid has {cells} cells)"),
                });
            }
        }
        let mut g = shared.lock().expect("fleet lock");
        if let Event::CellDone { cell, fp, .. } = &ev {
            g.record_done(*cell, *fp);
        }
        if let Event::ShardDone { .. } = &ev {
            saw_done = true;
        }
        g.emit(&ev);
        g.take_err()?;
    }
    if !saw_done {
        return Err(FleetError::Worker {
            shard,
            msg: "stream ended before shard_done".into(),
        });
    }
    Ok(())
}

/// Configuration of one shard-worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Shard count of the plan.
    pub shards: usize,
    /// This worker's shard index.
    pub shard: usize,
    /// Plan fingerprint to verify against (reject a mismatched grid).
    pub expect_fp: Option<Fingerprint>,
    /// Journal to consult (read-only) for completed cells.
    pub journal: Option<PathBuf>,
    /// This worker's cache directory.
    pub cache_dir: PathBuf,
    /// Simulation worker threads.
    pub workers: usize,
    /// Heartbeat cadence in cell completions (0 disables).
    pub heartbeat_every: usize,
    /// Fault plan to arm (chaos tests; the CLI reads
    /// [`fault::FAULT_ENV`]).
    pub fault: Option<FaultPlan>,
    /// Attempt number this launch is (gates the fault plan; the CLI
    /// reads [`fault::ATTEMPT_ENV`]).
    pub attempt: usize,
}

/// Runs one shard of a campaign and streams its events to `out` — the
/// body of `griffin-cli shard-worker`, also callable in-process for
/// tests. The worker recomputes the plan from the spec, verifies it
/// against `expect_fp`, skips journal-completed cells, and writes
/// results only to its own cache directory (the journal stays
/// coordinator-owned).
///
/// An armed [`WorkerConfig::fault`] matching this shard and attempt
/// makes the worker die on schedule: its work list is truncated to the
/// fault's `after` count (so the journaled set at death is
/// deterministic), `shard_done` is suppressed, the cache is torn when
/// the plan says so, and [`FleetError::Injected`] comes back for the
/// caller to turn into an abrupt exit (kill) or silence (stall).
///
/// # Errors
///
/// [`FleetError::SpecFingerprint`] when the recomputed plan does not
/// match `expect_fp`; [`FleetError::Injected`] when a fault fired;
/// otherwise as [`run_fleet`].
pub fn run_shard_worker(
    spec: &SweepSpec,
    cfg: &WorkerConfig,
    out: impl Write + Send,
) -> Result<(), FleetError> {
    let plan = ShardPlan::new(spec, cfg.shards)?;
    if let Some(expected) = cfg.expect_fp {
        if plan.spec_fp != expected {
            return Err(FleetError::SpecFingerprint {
                expected,
                found: plan.spec_fp,
            });
        }
    }
    let shard_cells = plan.cells.get(cfg.shard).ok_or(FleetError::Worker {
        shard: cfg.shard,
        msg: format!("shard index out of range (plan has {})", plan.shards),
    })?;
    let completed = match &cfg.journal {
        Some(path) if path.exists() => {
            Journal::peek_completed(path, &plan_header(spec, &plan, None))?
        }
        _ => Default::default(),
    };
    let full_todo = remaining_cells(shard_cells, |i| completed.contains_key(&i));
    let skipped = shard_cells.len() - full_todo.len();
    let fault_plan = cfg.fault.as_ref();
    let kill = fault_plan.and_then(|f| f.kill_after(cfg.shard, cfg.attempt));
    let stall = fault_plan.and_then(|f| f.stall_after(cfg.shard, cfg.attempt));
    let die = kill.or(stall);
    let mut todo = full_todo;
    if let Some(k) = die {
        todo.truncate(k);
    }
    let cache = ResultCache::at_dir(&cfg.cache_dir)?;
    let mut sink = JsonlSink::new(out);
    let shared = Mutex::new(Shared::new(&mut sink, None, 0, None));
    run_shard_cells(
        spec,
        cfg.shard,
        &todo,
        shard_cells.len(),
        skipped,
        &cache,
        cfg.workers,
        // A spawned worker shares the machine with its sibling shards:
        // builds stay inside the pinned thread budget too.
        cfg.workers,
        cfg.heartbeat_every,
        &shared,
        die.is_none(),
        None,
    )?;
    if fault_plan.is_some_and(|f| f.corrupts_cache(cfg.shard, cfg.attempt)) {
        fault::corrupt_shard_cache(&cfg.cache_dir)?;
    }
    let gate = AttemptGate::Only(cfg.attempt);
    match die {
        Some(after) if kill.is_some() => Err(FleetError::Injected(Fault::Kill {
            shard: cfg.shard,
            after,
            attempt: gate,
        })),
        Some(after) => Err(FleetError::Injected(Fault::Stall {
            shard: cfg.shard,
            after,
            attempt: gate,
        })),
        None => Ok(()),
    }
}
