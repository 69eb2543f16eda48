//! The resident campaign daemon.
//!
//! A [`Daemon`] owns what a one-shot `griffin-cli sweep`/`fleet run`
//! process throws away at exit: one warm [`ResultCache`] at
//! `<dir>/cache` (disk-backed, so it survives daemon restarts too).
//! Simulation scratches are not kept: each campaign worker owns one for
//! that campaign, and it holds buffer capacity only. Submissions queue
//! FIFO under admission control (each campaign gets the whole `workers`
//! budget; at most one runs at a time, at most `queue_cap` wait), and
//! are **deduplicated by scenario fingerprint**: two clients submitting
//! the same scenario share one execution, and both subscribe to the
//! identical event stream through the campaign's [`Tee`].
//!
//! Every campaign runs through the ordinary fleet coordinator with its
//! own state directory `<dir>/campaigns/<id>/` (journal.jsonl +
//! events.jsonl), so `fleet watch`, `fleet report --html` and
//! `--resume` tooling keep working on daemon-run campaigns unchanged.
//! Finished campaigns additionally get a rendered `report.html`;
//! retention keeps the newest [`ServeConfig::retain`] finished
//! campaigns and evicts the rest: their directories, report bytes and
//! event replay are dropped, so the daemon's memory stays bounded.
//!
//! Draining ([`Daemon::drain`]) refuses new submissions, cancels
//! queued campaigns with a synthesized terminal event, and aborts the
//! in-flight one through the coordinator's abort flag — which journals
//! its completed cells and emits its terminal event — so every
//! subscriber of every campaign sees exactly one terminal.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use griffin_fleet::coordinator::{run_fleet, FleetConfig};
use griffin_fleet::events::Event;
use griffin_sweep::cache::ResultCache;
use griffin_sweep::fingerprint::Fingerprint;
use griffin_sweep::json::Json;
use griffin_sweep::scenario::{Scenario, ScenarioProvenance};
use griffin_sweep::spec::SweepSpec;
use griffin_watch::model::CampaignModel;

use crate::tee::{Tee, TeeItem};
use crate::wire::{ScenarioSource, StreamOutcome};

/// Format tag of the [`Daemon::status`] object.
pub const STATUS_FORMAT: &str = "griffin-serve-status/1";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State directory: `cache/` (the warm disk cache) and
    /// `campaigns/<id>/` (per-campaign journal + events + report).
    pub dir: PathBuf,
    /// Simulation worker budget — each campaign runs with this many
    /// workers, which is also the admission-control unit (campaigns
    /// run one at a time so no two share the cores).
    pub workers: usize,
    /// Read by nothing: campaigns are one pass over the grid, and the
    /// field stays only so existing callers that assign it still build.
    pub shards: usize,
    /// Maximum campaigns waiting in the queue (the running one not
    /// counted). Submissions beyond it are refused.
    pub queue_cap: usize,
    /// Finished campaigns kept; older ones are evicted — directory
    /// deleted, report bytes and event replay dropped. An evicted
    /// campaign stays listed in the status object.
    pub retain: usize,
    /// Server identity announced in `hello_ok`.
    pub server: String,
}

impl ServeConfig {
    /// Defaults: the machine's worker count, a queue of 16, and the 8
    /// newest finished campaigns retained.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            dir: dir.into(),
            workers: griffin_sweep::executor::default_workers(),
            shards: 2,
            queue_cap: 16,
            retain: 8,
            server: format!("griffin-serve/{}", env!("CARGO_PKG_VERSION")),
        }
    }
}

/// Why a request was not served.
#[derive(Debug)]
pub enum ServeError {
    /// The daemon is draining and takes no new submissions.
    Draining,
    /// The queue is at [`ServeConfig::queue_cap`].
    QueueFull,
    /// The scenario failed to load or parse.
    Scenario(String),
    /// No campaign matches the given id (or none exists yet).
    UnknownCampaign(String),
    /// The campaign has not finished, or its report was evicted.
    NoReport(String),
    /// The campaign was evicted by retention; its event stream is gone.
    Evicted(String),
    /// Filesystem failure in the daemon's state directory.
    Io(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Draining => write!(f, "daemon is draining; submission refused"),
            ServeError::QueueFull => write!(f, "queue is full; submission refused"),
            ServeError::Scenario(msg) => write!(f, "bad scenario: {msg}"),
            ServeError::UnknownCampaign(id) => write!(f, "unknown campaign `{id}`"),
            ServeError::NoReport(id) => write!(f, "no report for campaign `{id}`"),
            ServeError::Evicted(id) => write!(f, "campaign `{id}` was evicted"),
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A submission verdict (mirrors the wire `accepted` message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accepted {
    /// Campaign id (handle for subscribe/cancel/report).
    pub campaign: String,
    /// The scenario's canonical fingerprint — the dedup key.
    pub scenario_fp: Fingerprint,
    /// Grid cells of the campaign.
    pub cells: usize,
    /// Whether this submission attached to an existing queued/running
    /// campaign instead of creating a new execution.
    pub deduped: bool,
    /// Campaigns queued ahead of this one (0 = running or next up).
    pub queue_depth: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Finished(StreamOutcome),
}

#[derive(Debug, Clone, Copy, Default)]
struct ClientStats {
    submissions: usize,
    deduped: usize,
    cells: usize,
}

#[derive(Debug)]
struct CampaignEntry {
    fp: Fingerprint,
    spec: SweepSpec,
    provenance: ScenarioProvenance,
    cells: usize,
    phase: Phase,
    tee: Arc<Tee>,
    abort: Arc<AtomicBool>,
    /// `(csv, json)` report bytes once finished successfully —
    /// identical to what a standalone sweep of the scenario writes.
    reports: Option<(String, String)>,
    /// Monotonic finish order (drives retention).
    finished_at: Option<usize>,
    /// Evicted by retention: directory deleted, reports and event
    /// replay dropped.
    evicted: bool,
}

#[derive(Debug, Default)]
struct State {
    seq: usize,
    finish_seq: usize,
    queue: VecDeque<String>,
    campaigns: BTreeMap<String, CampaignEntry>,
    /// Dedup index over queued + running campaigns only.
    by_fp: HashMap<Fingerprint, String>,
    running: Option<String>,
    submissions: usize,
    deduped: usize,
    served: usize,
    cancelled: usize,
    clients: BTreeMap<String, ClientStats>,
    draining: bool,
    shutdown: bool,
}

/// What the executor thread needs to run one campaign (cloned out of
/// the state lock).
struct Job {
    id: String,
    fp: Fingerprint,
    spec: SweepSpec,
    provenance: ScenarioProvenance,
    tee: Arc<Tee>,
    abort: Arc<AtomicBool>,
}

/// The resident campaign daemon. See the module docs.
pub struct Daemon {
    cfg: ServeConfig,
    cache: Arc<ResultCache>,
    sync: Arc<(Mutex<State>, Condvar)>,
    executor: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("dir", &self.cfg.dir)
            .finish()
    }
}

impl Daemon {
    /// Opens the state directory (warming the disk cache in it) and
    /// starts the executor thread.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures creating the state directory.
    pub fn start(cfg: ServeConfig) -> io::Result<Daemon> {
        fs::create_dir_all(cfg.dir.join("campaigns"))?;
        let cache = Arc::new(ResultCache::at_dir(cfg.dir.join("cache"))?);
        let sync = Arc::new((Mutex::new(State::default()), Condvar::new()));
        let executor = {
            let cfg = cfg.clone();
            let cache = Arc::clone(&cache);
            let sync = Arc::clone(&sync);
            thread::Builder::new()
                .name("serve-executor".into())
                .spawn(move || executor_loop(&cfg, &cache, &sync))?
        };
        Ok(Daemon {
            cfg,
            cache,
            sync,
            executor: Some(executor),
        })
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The warm cross-campaign cache (shared with every campaign run).
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// Submits a scenario on behalf of `client`. A submission whose
    /// fingerprint matches a queued or running campaign attaches to it
    /// (`deduped = true`) instead of creating a second execution.
    ///
    /// # Errors
    ///
    /// [`ServeError::Draining`], [`ServeError::QueueFull`], or
    /// [`ServeError::Scenario`] on an unloadable/unparseable scenario.
    pub fn submit(
        &self,
        client: &str,
        source: &ScenarioSource,
        name: Option<&str>,
    ) -> Result<Accepted, ServeError> {
        let (scenario, display) = match source {
            ScenarioSource::Inline(text) => {
                let sc = Scenario::parse(text).map_err(|e| ServeError::Scenario(e.to_string()))?;
                let display = name.unwrap_or("inline").to_string();
                (sc, display)
            }
            ScenarioSource::Path(path) => {
                let sc = Scenario::load(path).map_err(|e| ServeError::Scenario(e.to_string()))?;
                let display = name.map_or_else(|| path.clone(), str::to_string);
                (sc, display)
            }
        };
        let fp = scenario.fingerprint();
        let cells = scenario.cell_count();
        let spec = scenario.to_spec();
        let provenance = scenario.provenance(&display);

        let (lock, cv) = &*self.sync;
        let mut st = lock.lock().expect("serve state lock");
        if st.draining {
            return Err(ServeError::Draining);
        }
        st.submissions += 1;
        let entry = st.clients.entry(client.to_string()).or_default();
        entry.submissions += 1;
        entry.cells += cells;

        if let Some(id) = st.by_fp.get(&fp).cloned() {
            // A twin whose terminal event is already published is
            // finished in every way a client can observe, even if the
            // executor has not swept it out of the index yet — a new
            // submission must re-run (warm-hit), not attach to it.
            let live = st
                .campaigns
                .get(&id)
                .is_some_and(|e| e.tee.outcome().is_none());
            if live {
                st.deduped += 1;
                st.clients.entry(client.to_string()).or_default().deduped += 1;
                let queue_depth = st.queue.iter().position(|q| q == &id).unwrap_or(0);
                return Ok(Accepted {
                    campaign: id,
                    scenario_fp: fp,
                    cells,
                    deduped: true,
                    queue_depth,
                });
            }
            st.by_fp.remove(&fp);
        }
        if st.queue.len() >= self.cfg.queue_cap {
            return Err(ServeError::QueueFull);
        }
        st.seq += 1;
        let id = format!("c{:06}-{:08x}", st.seq, (fp.0 >> 32) as u32);
        let queue_depth = st.queue.len();
        st.campaigns.insert(
            id.clone(),
            CampaignEntry {
                fp,
                spec,
                provenance,
                cells,
                phase: Phase::Queued,
                tee: Arc::new(Tee::new()),
                abort: Arc::new(AtomicBool::new(false)),
                reports: None,
                finished_at: None,
                evicted: false,
            },
        );
        st.by_fp.insert(fp, id.clone());
        st.queue.push_back(id.clone());
        cv.notify_all();
        Ok(Accepted {
            campaign: id,
            scenario_fp: fp,
            cells,
            deduped: false,
            queue_depth,
        })
    }

    /// Attaches to a campaign's event stream: full replay, then the
    /// live tail, then exactly one [`TeeItem::End`]. `None` picks the
    /// running campaign, else the newest one.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownCampaign`] when the id (or any campaign at
    /// all, for `None`) does not exist; [`ServeError::Evicted`] when
    /// retention has dropped the campaign's stream.
    pub fn subscribe(
        &self,
        campaign: Option<&str>,
    ) -> Result<(String, Receiver<TeeItem>), ServeError> {
        let (lock, _) = &*self.sync;
        let st = lock.lock().expect("serve state lock");
        let id = match campaign {
            Some(id) => id.to_string(),
            None => st
                .running
                .clone()
                .or_else(|| st.campaigns.keys().next_back().cloned())
                .ok_or_else(|| ServeError::UnknownCampaign("<none>".into()))?,
        };
        let entry = st
            .campaigns
            .get(&id)
            .ok_or_else(|| ServeError::UnknownCampaign(id.clone()))?;
        if entry.evicted {
            return Err(ServeError::Evicted(id));
        }
        Ok((id, entry.tee.subscribe()))
    }

    /// Cancels a campaign. Queued: removed and terminated with a
    /// synthesized `campaign_failed`. Running: the coordinator's abort
    /// flag is raised — it journals completed cells and emits its
    /// terminal. Finished: returns `false`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownCampaign`] when the id does not exist.
    pub fn cancel(&self, campaign: &str) -> Result<bool, ServeError> {
        let (lock, _) = &*self.sync;
        let mut st = lock.lock().expect("serve state lock");
        let Some(entry) = st.campaigns.get_mut(campaign) else {
            return Err(ServeError::UnknownCampaign(campaign.into()));
        };
        match entry.phase {
            Phase::Finished(_) => Ok(false),
            Phase::Running => {
                entry.abort.store(true, Ordering::Relaxed);
                Ok(true)
            }
            Phase::Queued => {
                entry.phase = Phase::Finished(StreamOutcome::Failed);
                let fp = entry.fp;
                let tee = Arc::clone(&entry.tee);
                st.finish_seq += 1;
                let at = st.finish_seq;
                st.campaigns
                    .get_mut(campaign)
                    .expect("entry just accessed")
                    .finished_at = Some(at);
                st.by_fp.remove(&fp);
                st.queue.retain(|q| q != campaign);
                st.cancelled += 1;
                tee.publish(
                    Event::CampaignFailed {
                        msg: "cancelled before execution".into(),
                    }
                    .to_line(),
                    Some(StreamOutcome::Failed),
                );
                Ok(true)
            }
        }
    }

    /// A finished campaign's report bytes: `(csv, json)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownCampaign`] for a bad id;
    /// [`ServeError::NoReport`] while the campaign is still queued /
    /// running, after it failed, or after eviction.
    pub fn reports(&self, campaign: &str) -> Result<(String, String), ServeError> {
        let (lock, cv) = &*self.sync;
        let mut st = lock.lock().expect("serve state lock");
        loop {
            let entry = st
                .campaigns
                .get(campaign)
                .ok_or_else(|| ServeError::UnknownCampaign(campaign.into()))?;
            if let Phase::Finished(_) = entry.phase {
                return entry
                    .reports
                    .clone()
                    .ok_or_else(|| ServeError::NoReport(campaign.into()));
            }
            if entry.tee.outcome().is_none() {
                // Genuinely still queued/running.
                return Err(ServeError::NoReport(campaign.into()));
            }
            // Terminal published but the executor has not stored the
            // reports yet — a client racing its own stream's End.
            // It will notify within microseconds.
            st = cv.wait(st).expect("serve state lock");
        }
    }

    /// The `griffin-serve-status/1` aggregate-counter object.
    pub fn status(&self) -> Json {
        let num = |x: usize| Json::Num(x as f64);
        let (lock, _) = &*self.sync;
        let st = lock.lock().expect("serve state lock");
        let cache = self.cache.stats();
        let lookups = cache.hits + cache.misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        };
        let campaigns: Vec<Json> = st
            .campaigns
            .iter()
            .map(|(id, e)| {
                let phase = match e.phase {
                    Phase::Queued => "queued",
                    Phase::Running => "running",
                    Phase::Finished(StreamOutcome::Done) => "done",
                    Phase::Finished(StreamOutcome::Failed) => "failed",
                };
                Json::obj([
                    ("id".into(), Json::Str(id.clone())),
                    ("phase".into(), Json::Str(phase.into())),
                    ("cells".into(), num(e.cells)),
                    ("scenario_fp".into(), Json::Str(e.fp.to_string())),
                ])
            })
            .collect();
        let clients = Json::Obj(
            st.clients
                .iter()
                .map(|(name, c)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("submissions".into(), num(c.submissions)),
                            ("deduped".into(), num(c.deduped)),
                            ("cells".into(), num(c.cells)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("format".into(), Json::Str(STATUS_FORMAT.into())),
            ("server".into(), Json::Str(self.cfg.server.clone())),
            ("workers".into(), num(self.cfg.workers)),
            ("queue_depth".into(), num(st.queue.len())),
            (
                "running".into(),
                st.running.clone().map_or(Json::Null, Json::Str),
            ),
            ("submissions".into(), num(st.submissions)),
            ("deduped".into(), num(st.deduped)),
            ("campaigns_served".into(), num(st.served)),
            ("cancelled".into(), num(st.cancelled)),
            ("draining".into(), Json::Bool(st.draining)),
            (
                "cache".into(),
                Json::obj([
                    ("hits".into(), num(cache.hits as usize)),
                    ("misses".into(), num(cache.misses as usize)),
                    ("disk_hits".into(), num(cache.disk_hits as usize)),
                    ("stores".into(), num(cache.stores as usize)),
                    ("entries".into(), num(self.cache.len())),
                    ("hit_rate".into(), Json::Num(hit_rate)),
                ]),
            ),
            ("clients".into(), clients),
            ("campaigns".into(), Json::Arr(campaigns)),
        ])
    }

    /// Blocks until the daemon is idle: nothing queued, nothing
    /// running, all retention deletions applied. Test and bench
    /// synchronization; wire clients never need it.
    pub fn wait_idle(&self) {
        let (lock, cv) = &*self.sync;
        let mut st = lock.lock().expect("serve state lock");
        while !st.queue.is_empty() || st.running.is_some() {
            st = cv.wait(st).expect("serve state lock");
        }
    }

    /// Whether the daemon is draining (refusing submissions).
    pub fn draining(&self) -> bool {
        let (lock, _) = &*self.sync;
        lock.lock().expect("serve state lock").draining
    }

    /// Starts the graceful drain: refuse new submissions, cancel every
    /// queued campaign with a synthesized terminal event, and raise
    /// the abort flag of the running one (its completed cells stay
    /// journaled; its subscribers get its real terminal). Idempotent.
    pub fn drain(&self) {
        let (lock, cv) = &*self.sync;
        let mut st = lock.lock().expect("serve state lock");
        if st.draining {
            return;
        }
        st.draining = true;
        let queued: Vec<String> = st.queue.drain(..).collect();
        for id in queued {
            let Some(entry) = st.campaigns.get_mut(&id) else {
                continue;
            };
            entry.phase = Phase::Finished(StreamOutcome::Failed);
            let fp = entry.fp;
            let tee = Arc::clone(&entry.tee);
            st.finish_seq += 1;
            let at = st.finish_seq;
            st.campaigns.get_mut(&id).expect("entry exists").finished_at = Some(at);
            st.by_fp.remove(&fp);
            st.cancelled += 1;
            tee.publish(
                Event::CampaignFailed {
                    msg: "daemon draining: cancelled before execution".into(),
                }
                .to_line(),
                Some(StreamOutcome::Failed),
            );
        }
        if let Some(id) = &st.running {
            if let Some(entry) = st.campaigns.get(id) {
                entry.abort.store(true, Ordering::Relaxed);
            }
        }
        cv.notify_all();
    }

    /// Drains (if not already draining) and blocks until the executor
    /// finishes the in-flight campaign and exits.
    pub fn shutdown(mut self) {
        self.drain();
        {
            let (lock, cv) = &*self.sync;
            lock.lock().expect("serve state lock").shutdown = true;
            cv.notify_all();
        }
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.executor.take() {
            self.drain();
            let (lock, cv) = &*self.sync;
            lock.lock().expect("serve state lock").shutdown = true;
            cv.notify_all();
            let _ = h.join();
        }
    }
}

fn executor_loop(cfg: &ServeConfig, cache: &Arc<ResultCache>, sync: &Arc<(Mutex<State>, Condvar)>) {
    let (lock, cv) = &**sync;
    loop {
        let job = {
            let mut st = lock.lock().expect("serve state lock");
            loop {
                if let Some(id) = st.queue.pop_front() {
                    let entry = st.campaigns.get_mut(&id).expect("queued entry exists");
                    entry.phase = Phase::Running;
                    let job = Job {
                        id: id.clone(),
                        fp: entry.fp,
                        spec: entry.spec.clone(),
                        provenance: entry.provenance.clone(),
                        tee: Arc::clone(&entry.tee),
                        abort: Arc::clone(&entry.abort),
                    };
                    st.running = Some(id);
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = cv.wait(st).expect("serve state lock");
            }
        };
        let (outcome, reports) = run_job(cfg, cache, &job);
        // `running` stays set through retention deletion so wait_idle
        // cannot observe the daemon idle with eviction still pending.
        let evict = {
            let mut st = lock.lock().expect("serve state lock");
            st.finish_seq += 1;
            let at = st.finish_seq;
            let entry = st.campaigns.get_mut(&job.id).expect("running entry exists");
            entry.phase = Phase::Finished(outcome);
            entry.reports = reports;
            entry.finished_at = Some(at);
            st.by_fp.remove(&job.fp);
            st.served += 1;
            cv.notify_all(); // reports()/status waiters
            retention_victims(&mut st, cfg.retain)
        };
        for id in evict {
            let _ = fs::remove_dir_all(cfg.dir.join("campaigns").join(id));
        }
        let mut st = lock.lock().expect("serve state lock");
        st.running = None;
        cv.notify_all();
        drop(st);
    }
}

/// Finished campaigns beyond the retention cap, oldest first, not yet
/// evicted. Marks them evicted and drops their stored report bytes and
/// their tee's replay lines, so a resident daemon's memory does not grow
/// with every campaign it ever ran.
fn retention_victims(st: &mut State, retain: usize) -> Vec<String> {
    let mut finished: Vec<(usize, String)> = st
        .campaigns
        .iter()
        .filter(|(_, e)| !e.evicted && e.finished_at.is_some())
        .map(|(id, e)| (e.finished_at.expect("filtered"), id.clone()))
        .collect();
    finished.sort_unstable();
    if finished.len() <= retain {
        return Vec::new();
    }
    let victims: Vec<String> = finished[..finished.len() - retain]
        .iter()
        .map(|(_, id)| id.clone())
        .collect();
    for id in &victims {
        let entry = st.campaigns.get_mut(id).expect("victim exists");
        entry.evicted = true;
        entry.reports = None;
        entry.tee.forget_replay();
    }
    victims
}

/// Runs one campaign through the fleet coordinator against the warm
/// cache, teeing events to `events.jsonl` and every subscriber, and
/// rendering `report.html` afterwards. Returns the outcome and, on
/// success, the `(csv, json)` report bytes.
fn run_job(
    cfg: &ServeConfig,
    cache: &Arc<ResultCache>,
    job: &Job,
) -> (StreamOutcome, Option<(String, String)>) {
    let dir = cfg.dir.join("campaigns").join(&job.id);
    let result = fs::create_dir_all(&dir)
        .map_err(|e| format!("campaign dir: {e}"))
        .and_then(|()| {
            let events_path = dir.join("events.jsonl");
            let file = fs::File::create(&events_path).map_err(|e| format!("events file: {e}"))?;
            let mut fleet = FleetConfig::new(&dir, cfg.workers);
            fleet.scenario = Some(job.provenance.clone());
            fleet.shared_cache = Some(Arc::clone(cache));
            fleet.abort = Some(Arc::clone(&job.abort));
            let mut sink = crate::tee::TeeSink::new(file, Arc::clone(&job.tee));
            run_fleet(&job.spec, &fleet, &mut sink).map_err(|e| e.to_string())
        });
    // The coordinator emits exactly one terminal on every path it
    // controls; the remaining paths (state-dir I/O above, a sink whose
    // file write failed mid-campaign) get a synthesized one so each
    // subscriber still sees exactly one End.
    let (outcome, reports) = match result {
        Ok(report) => {
            let csv = griffin_sweep::report::to_csv(&report);
            let json = griffin_sweep::report::to_json(&report);
            (StreamOutcome::Done, Some((csv, json)))
        }
        Err(msg) => {
            if job.tee.outcome().is_none() {
                job.tee.publish(
                    Event::CampaignFailed { msg }.to_line(),
                    Some(StreamOutcome::Failed),
                );
            }
            (StreamOutcome::Failed, None)
        }
    };
    write_html_report(&dir, &job.tee);
    (outcome, reports)
}

/// Renders the finished campaign's event stream to `report.html` —
/// the same artifact `fleet report --html` produces from the file.
fn write_html_report(dir: &std::path::Path, tee: &Tee) {
    let mut model = CampaignModel::new();
    let rx = tee.subscribe();
    for item in rx.try_iter() {
        if let TeeItem::Line(line) = item {
            model.apply_line(&line);
        }
    }
    let html = griffin_watch::html::report_html(&model);
    let _ = fs::write(dir.join("report.html"), html);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = r#"
[scenario]
name = "serve-smoke"
seeds = [1]
categories = ["b"]

[sim]
tiles = 2
sample_seed = 48879

[[workload]]
synthetic = "synth"
layers = 4

[[arch]]
preset = "baseline"

[[arch]]
family = "b"
fanin = 3
"#;

    fn daemon(dir: &std::path::Path) -> Daemon {
        let mut cfg = ServeConfig::new(dir);
        cfg.workers = 2;
        Daemon::start(cfg).unwrap()
    }

    fn drain_stream(rx: Receiver<TeeItem>) -> (Vec<String>, StreamOutcome) {
        let mut lines = Vec::new();
        for item in rx {
            match item {
                TeeItem::Line(l) => lines.push(l),
                TeeItem::End(outcome) => return (lines, outcome),
            }
        }
        panic!("stream ended without a terminal End");
    }

    #[test]
    fn duplicate_submissions_share_one_execution_and_stream() {
        let tmp = tempdir("serve-dedup");
        let d = daemon(&tmp);
        let src = ScenarioSource::Inline(SMOKE.into());
        let a = d.submit("alice", &src, None).unwrap();
        let b = d.submit("bob", &src, None).unwrap();
        assert_eq!(a.campaign, b.campaign);
        assert!(!a.deduped);
        assert!(b.deduped);
        assert_eq!(a.cells, 7);

        let (_, rx_a) = d.subscribe(Some(&a.campaign)).unwrap();
        let (_, rx_b) = d.subscribe(Some(&b.campaign)).unwrap();
        let (lines_a, out_a) = drain_stream(rx_a);
        let (lines_b, out_b) = drain_stream(rx_b);
        assert_eq!(out_a, StreamOutcome::Done);
        assert_eq!(out_b, StreamOutcome::Done);
        assert_eq!(lines_a, lines_b, "both clients see the identical stream");

        // Exactly one campaign directory: one execution.
        let dirs: Vec<_> = fs::read_dir(tmp.join("campaigns"))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(dirs.len(), 1, "{dirs:?}");

        let (csv, json) = d.reports(&a.campaign).unwrap();
        assert!(csv.contains("synth"));
        assert!(json.contains("serve-smoke"));
        d.shutdown();
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn second_submission_after_finish_is_all_cache_hits() {
        let tmp = tempdir("serve-warm");
        let d = daemon(&tmp);
        let src = ScenarioSource::Inline(SMOKE.into());
        let first = d.submit("cli", &src, None).unwrap();
        let (_, rx) = d.subscribe(Some(&first.campaign)).unwrap();
        drain_stream(rx);
        d.wait_idle();

        d.cache().reset_stats();
        let second = d.submit("cli", &src, None).unwrap();
        assert_ne!(
            second.campaign, first.campaign,
            "finished fp is re-runnable"
        );
        assert!(!second.deduped);
        let (_, rx) = d.subscribe(Some(&second.campaign)).unwrap();
        let (lines, outcome) = drain_stream(rx);
        assert_eq!(outcome, StreamOutcome::Done);
        // 100% cache hits: no cell ever started simulating.
        assert!(
            !lines.iter().any(|l| l.contains("\"cell_start\"")),
            "warm rerun must not simulate: {lines:?}"
        );
        let stats = d.cache().stats();
        assert_eq!(stats.misses, 0, "{stats:?}");
        assert!(stats.hits > 0);

        let (csv1, json1) = d.reports(&first.campaign).unwrap();
        let (csv2, json2) = d.reports(&second.campaign).unwrap();
        assert_eq!(csv1, csv2);
        assert_eq!(json1, json2);
        d.shutdown();
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn drain_refuses_submissions_and_terminates_queued_streams() {
        let tmp = tempdir("serve-drain");
        let d = daemon(&tmp);
        let src = ScenarioSource::Inline(SMOKE.into());
        let first = d.submit("cli", &src, None).unwrap();
        d.drain();
        assert!(matches!(
            d.submit("cli", &src, None),
            Err(ServeError::Draining)
        ));
        // Whatever state the campaign was in when drain hit, its
        // stream still ends with exactly one terminal.
        let (_, rx) = d.subscribe(Some(&first.campaign)).unwrap();
        let (_, _outcome) = drain_stream(rx);
        d.shutdown();
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn cancel_of_a_queued_campaign_synthesizes_the_terminal() {
        let tmp = tempdir("serve-cancel");
        let d = daemon(&tmp);
        // Two distinct scenarios: the second stays queued behind the
        // first long enough to be cancelled (and even if the first
        // finishes instantly, cancel of a finished campaign returns
        // false rather than erroring — assert on the stream instead).
        let src_a = ScenarioSource::Inline(SMOKE.into());
        let src_b = ScenarioSource::Inline(SMOKE.replace("seeds = [1]", "seeds = [2]"));
        let a = d.submit("cli", &src_a, None).unwrap();
        let b = d.submit("cli", &src_b, None).unwrap();
        assert_ne!(a.campaign, b.campaign);
        let cancelled = d.cancel(&b.campaign).unwrap();
        let (_, rx) = d.subscribe(Some(&b.campaign)).unwrap();
        let (_, outcome) = drain_stream(rx);
        if cancelled {
            assert_eq!(outcome, StreamOutcome::Failed);
        }
        assert!(matches!(
            d.cancel("c999999-deadbeef"),
            Err(ServeError::UnknownCampaign(_))
        ));
        d.shutdown();
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn retention_deletes_oldest_finished_dirs() {
        let tmp = tempdir("serve-retain");
        let mut cfg = ServeConfig::new(&tmp);
        cfg.workers = 2;
        cfg.retain = 1;
        let d = Daemon::start(cfg).unwrap();
        let mut ids = Vec::new();
        for seed in 1..=3 {
            let text = SMOKE.replace("seeds = [1]", &format!("seeds = [{seed}]"));
            let acc = d
                .submit("cli", &ScenarioSource::Inline(text), None)
                .unwrap();
            let (_, rx) = d.subscribe(Some(&acc.campaign)).unwrap();
            drain_stream(rx);
            ids.push(acc.campaign);
        }
        d.wait_idle();
        let dirs: Vec<_> = fs::read_dir(tmp.join("campaigns"))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(dirs.len(), 1, "retain=1 keeps only the newest: {dirs:?}");
        let status = d.status();
        assert_eq!(
            status.req("campaigns").unwrap().as_arr().unwrap().len(),
            3,
            "evicted campaigns stay listed"
        );
        // The oldest campaign's stream is gone: subscribing is a typed
        // error, and its replay buffer holds nothing.
        let oldest = &ids[0];
        assert!(matches!(d.subscribe(Some(oldest)), Err(ServeError::Evicted(id)) if &id == oldest));
        assert_eq!(d.sync.0.lock().unwrap().campaigns[oldest].tee.len(), 0);
        d.shutdown();
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn status_reports_the_counters() {
        let tmp = tempdir("serve-status");
        let d = daemon(&tmp);
        let src = ScenarioSource::Inline(SMOKE.into());
        let acc = d.submit("alice", &src, None).unwrap();
        d.submit("bob", &src, None).unwrap();
        let (_, rx) = d.subscribe(Some(&acc.campaign)).unwrap();
        drain_stream(rx);
        d.wait_idle();
        let status = d.status();
        assert_eq!(
            status.req("format").unwrap().as_str().unwrap(),
            STATUS_FORMAT
        );
        assert_eq!(status.req("submissions").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(status.req("deduped").unwrap().as_f64().unwrap(), 1.0);
        let clients = status.req("clients").unwrap();
        assert!(clients.get("alice").is_some() && clients.get("bob").is_some());
        d.shutdown();
        let _ = fs::remove_dir_all(&tmp);
    }

    fn tempdir(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("griffin-{tag}-{pid}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }
}
