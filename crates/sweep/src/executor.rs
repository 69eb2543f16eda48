//! Multi-threaded campaign execution.
//!
//! The executor materializes a [`SweepSpec`] grid, probes the
//! [`ResultCache`] for every cell, then drives the remaining cells
//! through a pool of `std::thread` workers pulling from a shared atomic
//! work queue (run-to-idle work stealing: a fast worker simply takes the
//! next item, so stragglers never gate throughput). Cells that differ
//! only by architecture and mask seed form one *family*; the queue's
//! unit is one (family, layer) pair, so even a single-family campaign
//! spreads over every worker. Two properties hold for any worker count:
//!
//! * **deterministic output** — results are assembled by grid index, so
//!   the report is byte-identical for 1 or 64 workers;
//! * **workload reuse** — each distinct (workload, category, seed)
//!   triple is built exactly once and shared read-only across workers,
//!   because mask construction dominates small-cell campaigns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use griffin_core::accelerator::{Accelerator, Workload};
use griffin_core::category::DnnCategory;
use griffin_sim::report::{LayerReport, NetworkReport};
use griffin_sim::scratch::SimScratch;

use crate::cache::{CacheStats, CellMetrics, ResultCache};
use crate::fingerprint::{Fingerprint, Hasher};
use crate::spec::{Cell, SweepSpec};

/// One finished cell of a campaign report, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Grid index (stable across worker counts and cache states).
    pub index: usize,
    /// Workload display name.
    pub workload: String,
    /// Category axis value.
    pub category: DnnCategory,
    /// Architecture display name.
    pub arch: String,
    /// Mask seed.
    pub seed: u64,
    /// Stable scenario fingerprint (hex).
    pub fingerprint: String,
    /// Simulation results.
    pub metrics: CellMetrics,
}

/// A completed campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name from the spec.
    pub campaign: String,
    /// Every cell in deterministic grid order.
    pub cells: Vec<CellRecord>,
    /// Cache activity during this campaign only.
    pub cache: CacheStats,
    /// Worker threads used (not serialized; informational).
    pub workers: usize,
    /// Wall-clock milliseconds (not serialized; informational).
    pub elapsed_ms: u128,
}

/// Campaign failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The spec had an empty axis.
    EmptySpec,
    /// A workload failed to build (e.g. degenerate ad-hoc dimensions).
    Workload(String),
    /// The caller's abort flag was raised before every work item ran.
    /// The families it cut short were neither cached nor reported.
    Interrupted,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptySpec => write!(f, "sweep spec has an empty axis"),
            SweepError::Workload(e) => write!(f, "workload construction failed: {e}"),
            SweepError::Interrupted => write!(f, "campaign interrupted"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Default worker count for campaign drivers: every available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One family's phase-3 inputs: its seed-plane workloads, one
/// accelerator per architecture unit, and its depth.
struct FamilyRun {
    planes: Vec<Arc<Workload>>,
    accels: Vec<Accelerator>,
    depth: usize,
}

/// One family's phase-3 progress.
struct FamilyProgress {
    /// The finished layers' `[arch][plane]` reports.
    layers: Vec<Vec<Vec<LayerReport>>>,
    /// Work items still out.
    left: usize,
    /// An item was skipped after the abort: the family is never
    /// finalized.
    cut: bool,
}

/// Phase-3 progress shared by the workers.
struct Progress {
    families: Vec<FamilyProgress>,
    /// A worker unwound; waiting owners stop waiting.
    panicked: bool,
}

/// Held by each phase-3 worker: if it unwinds, it flags the panic and
/// wakes every waiting owner, so the campaign fails instead of leaving
/// an owner waiting for a layer that never lands.
struct PanicWake<'a> {
    progress: &'a Mutex<Progress>,
    landed: &'a Condvar,
}

impl Drop for PanicWake<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.progress
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .panicked = true;
            self.landed.notify_all();
        }
    }
}

/// Key identifying a unique workload build within a campaign.
fn workload_key(cell: &Cell) -> Fingerprint {
    let mut h = Hasher::new();
    h.feed(&cell.workload).feed(&cell.category).u64(cell.seed);
    h.finish()
}

/// Process-wide memo of built workloads, keyed by [`workload_key`].
/// Workload construction is deterministic in the key, so a hit is
/// value-identical to a fresh build — back-to-back campaigns over the
/// same workloads (benchmark passes, a daemon re-running a workload set
/// under new architectures, a resumed fleet campaign) skip the
/// synthesis cost without any observable difference.
///
/// Its bound is one campaign's working set: phase 2 of every campaign
/// that builds anything first drops each entry its own build keys do
/// not name ([`scope_memo`]), so the memo never holds more than the
/// workloads the running campaigns hold anyway. Entries are large — one
/// BERT DNN.B workload holds 10,616,832 bytes of masks; its all-ones
/// operands hold none — so a cap counted in entries would not bound
/// memory. The trade-off: campaigns alternating between
/// disjoint workload sets rebuild on every switch. Cells the
/// [`ResultCache`] serves never reach phase 2, so warm resubmissions
/// neither build nor evict.
fn workload_memo() -> &'static Mutex<HashMap<Fingerprint, Arc<Workload>>> {
    static MEMO: std::sync::OnceLock<Mutex<HashMap<Fingerprint, Arc<Workload>>>> =
        std::sync::OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Scopes `memo` to one campaign's build `keys`: drops every entry the
/// keys do not name, moves each hit into `built`, and returns the
/// indices (in `keys` order) of the keys that still need a build.
fn scope_memo<W>(
    memo: &mut HashMap<Fingerprint, Arc<W>>,
    keys: &[Fingerprint],
    built: &mut HashMap<Fingerprint, Arc<W>>,
) -> Vec<usize> {
    memo.retain(|key, _| keys.contains(key));
    (0..keys.len())
        .filter(|&k| match memo.get(&keys[k]) {
            Some(wl) => {
                built.insert(keys[k], Arc::clone(wl));
                false
            }
            None => true,
        })
        .collect()
}

/// What the process-wide workload memo holds right now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Resident workloads.
    pub workloads: usize,
    /// Heap bytes of their A and B masks; an all-ones mask holds none.
    pub mask_bytes: usize,
}

/// Reads the process-wide workload memo's size: after a campaign that
/// built anything, it holds that campaign's distinct (workload,
/// category, seed) builds and nothing else.
pub fn workload_memo_stats() -> MemoStats {
    let memo = workload_memo().lock().expect("workload memo lock");
    MemoStats {
        workloads: memo.len(),
        mask_bytes: memo
            .values()
            .flat_map(|wl| &wl.layers)
            .map(|l| l.a.heap_bytes() + l.b.heap_bytes())
            .sum(),
    }
}

/// Key identifying a seed group: cells agreeing on everything but the
/// mask seed simulate as the seed planes of one
/// [`Accelerator::run_family_layer`] call per layer.
fn seed_group_key(cell: &Cell) -> Fingerprint {
    let mut h = Hasher::new();
    h.str("griffin-batch-group-v1")
        .feed(&cell.workload)
        .feed(&cell.category)
        .feed(&cell.arch);
    h.finish()
}

/// A live progress event emitted by [`run_cells`] while a campaign is
/// executing. Events fire from worker threads in completion order (not
/// grid order); the final cell list is still assembled deterministically.
///
/// Observer contract, for any worker count:
///
/// * every simulated cell gets exactly one `Started` and then exactly
///   one `Finished { cached: false }`, **both on the same thread**. A
///   family's layers may run on several workers, but the worker that
///   claims its first layer announces all its cells and is also the one
///   that finishes them, once every layer is in. A family the abort
///   flag cuts short (see [`run_cells`]) gets no `Finished`;
/// * a cache hit gets only `Finished { cached: true }`, from the
///   calling thread before any worker starts, so a fully warm rerun
///   emits no `Started` at all;
/// * an in-campaign twin (a cell whose fingerprint another cell of the
///   campaign simulates) gets only `Finished { cached: true }`, from
///   the thread that finishes its representative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellEvent<'a> {
    /// A worker began simulating a cell (cache misses only).
    Started {
        /// The cell being simulated.
        cell: &'a Cell,
        /// Its stable scenario fingerprint.
        fingerprint: Fingerprint,
    },
    /// A cell's metrics became available.
    Finished {
        /// The finished cell.
        cell: &'a Cell,
        /// Its stable scenario fingerprint.
        fingerprint: Fingerprint,
        /// The simulation results.
        metrics: CellMetrics,
        /// `true` when served without a fresh simulation (a cache hit,
        /// or an in-campaign twin of a cell simulated this run).
        cached: bool,
    },
}

/// No-op observer for drivers that don't stream progress.
pub fn no_observer(_: &CellEvent<'_>) {}

/// Runs every grid cell of `spec`, using `cache` to skip scenarios that
/// were already simulated (by this process or, with a directory-backed
/// cache, by any earlier one).
///
/// `workers` is clamped to `[1, cells]`. Cache counters in the returned
/// report cover this campaign only.
///
/// # Errors
///
/// [`SweepError::EmptySpec`] when an axis is empty and
/// [`SweepError::Workload`] when a workload fails validation.
pub fn run_campaign(
    spec: &SweepSpec,
    cache: &ResultCache,
    workers: usize,
) -> Result<CampaignReport, SweepError> {
    if !spec.is_runnable() {
        return Err(SweepError::EmptySpec);
    }
    let start = Instant::now();
    let stats_before = cache.stats();
    let never = AtomicBool::new(false);
    let records = run_cells(spec, &spec.cells(), cache, workers, &no_observer, &never)?;

    let after = cache.stats();
    Ok(CampaignReport {
        campaign: spec.name.clone(),
        cells: records,
        cache: CacheStats {
            hits: after.hits - stats_before.hits,
            misses: after.misses - stats_before.misses,
            disk_hits: after.disk_hits - stats_before.disk_hits,
            stores: after.stores - stats_before.stores,
        },
        workers,
        elapsed_ms: start.elapsed().as_millis(),
    })
}

/// Runs an arbitrary subset of a campaign's grid cells — the primitive
/// behind [`run_campaign`] (all cells) and the fleet coordinator's one
/// pass (the whole grid, or the first cells of a fault-killed run).
///
/// Returns one [`CellRecord`] per input cell, in input order; `cells`
/// keep their *global* grid indices, so records from disjoint subsets
/// can be recombined into a full campaign. `observe` is called from
/// worker threads as cells start and finish (see [`CellEvent`]) and must
/// therefore be `Sync`; pass [`no_observer`] when progress streaming is
/// not needed.
///
/// `abort` is checked before each (family, layer) work item. Once it is
/// raised, workers still claim the remaining items but do not simulate
/// them, so every family's outstanding count reaches zero and no owner
/// waits on a layer nobody will run. A family with a skipped layer is
/// not finalized: no `Finished` events, no cache inserts. Cells that
/// finished before the flag was seen stay cached and streamed.
///
/// The phase-2 workload-build pool uses every core regardless of
/// `workers` (builds never affect the report, so a `--workers 1`
/// simulation run shouldn't serialize its cross-seed mask builds);
/// a caller that must hold builds to a thread budget — a benchmark
/// timing a fixed thread count — bounds it via [`run_cells_bounded`].
///
/// # Errors
///
/// [`SweepError::Workload`] when a workload fails validation, and
/// [`SweepError::Interrupted`] when `abort` cut any family short. An
/// empty subset is not an error (returns no records).
pub fn run_cells(
    spec: &SweepSpec,
    cells: &[Cell],
    cache: &ResultCache,
    workers: usize,
    observe: &(dyn Fn(&CellEvent<'_>) + Sync),
    abort: &AtomicBool,
) -> Result<Vec<CellRecord>, SweepError> {
    execute(
        spec,
        cells,
        cache,
        workers,
        workers.max(default_workers()),
        observe,
        abort,
    )
}

/// [`run_cells`] with an explicit phase-2 build-pool bound and no abort
/// flag — for callers pinned to a thread budget.
///
/// # Errors
///
/// [`SweepError::Workload`] when a workload fails validation.
pub fn run_cells_bounded(
    spec: &SweepSpec,
    cells: &[Cell],
    cache: &ResultCache,
    workers: usize,
    build_workers: usize,
    observe: &(dyn Fn(&CellEvent<'_>) + Sync),
) -> Result<Vec<CellRecord>, SweepError> {
    let never = AtomicBool::new(false);
    execute(spec, cells, cache, workers, build_workers, observe, &never)
}

/// The body behind [`run_cells`] and [`run_cells_bounded`].
///
/// Each phase-3 worker owns one fresh [`SimScratch`] for the whole
/// campaign: it holds buffer capacity only, never results, so reports
/// cannot depend on which worker ran which item.
fn execute(
    spec: &SweepSpec,
    cells: &[Cell],
    cache: &ResultCache,
    workers: usize,
    build_workers: usize,
    observe: &(dyn Fn(&CellEvent<'_>) + Sync),
    abort: &AtomicBool,
) -> Result<Vec<CellRecord>, SweepError> {
    let fingerprints: Vec<Fingerprint> = cells.iter().map(|c| c.fingerprint(&spec.sim)).collect();

    // Phase 1: probe the cache, and deduplicate identical scenarios
    // within this campaign (e.g. a repeated seed): each distinct
    // fingerprint is simulated once, then fanned out to every cell
    // that shares it.
    let mut metrics: Vec<Option<CellMetrics>> =
        fingerprints.iter().map(|&fp| cache.lookup(fp)).collect();
    let mut missing: Vec<usize> = Vec::new(); // one representative per fingerprint
    let mut twins: HashMap<Fingerprint, Vec<usize>> = HashMap::new();
    for i in 0..cells.len() {
        match metrics[i] {
            Some(m) => observe(&CellEvent::Finished {
                cell: &cells[i],
                fingerprint: fingerprints[i],
                metrics: m,
                cached: true,
            }),
            None => {
                let bucket = twins.entry(fingerprints[i]).or_default();
                if bucket.is_empty() {
                    missing.push(i);
                }
                bucket.push(i);
            }
        }
    }

    if !missing.is_empty() {
        // Group the missing cells into units: cells differing only by
        // mask seed simulate as the seed planes of one layer call. Units
        // keep the grid order of `missing` (architecture-major).
        let mut units: Vec<Vec<usize>> = Vec::new();
        {
            let mut unit_of: HashMap<Fingerprint, usize> = HashMap::new();
            for &i in &missing {
                let key = seed_group_key(&cells[i]);
                match unit_of.get(&key) {
                    Some(&u) => units[u].push(i),
                    None => {
                        unit_of.insert(key, units.len());
                        units.push(vec![i]);
                    }
                }
            }
        }
        // Widen units into *families*: units agreeing on everything but
        // the architecture — same workload, category and seed-plane list
        // — hand their whole architecture family to one
        // `Accelerator::run_family_layer` call per layer, where every
        // single-sparse design of a side shares each tile grid. The seed
        // tuple is part of the key so partially-cached families (some
        // arches' cells already served) split into runs with identical
        // planes.
        let mut families: Vec<Vec<usize>> = Vec::new();
        {
            let mut fam_of: HashMap<Fingerprint, usize> = HashMap::new();
            for (u, unit) in units.iter().enumerate() {
                let lead = &cells[unit[0]];
                let mut h = Hasher::new();
                h.str("griffin-family-group-v1")
                    .feed(&lead.workload)
                    .feed(&lead.category);
                for &i in unit {
                    h.u64(cells[i].seed);
                }
                let key = h.finish();
                match fam_of.get(&key) {
                    Some(&f) => families[f].push(u),
                    None => {
                        fam_of.insert(key, families.len());
                        families.push(vec![u]);
                    }
                }
            }
        }

        // Phase 2: build each distinct workload once, in parallel.
        let mut keys: Vec<Fingerprint> = Vec::new();
        let mut key_cells: Vec<&Cell> = Vec::new();
        {
            let mut seen = HashMap::new();
            for &i in &missing {
                let key = workload_key(&cells[i]);
                if seen.insert(key, ()).is_none() {
                    keys.push(key);
                    key_cells.push(&cells[i]);
                }
            }
        }
        // Take the memo's hits after scoping it to this campaign (see
        // [`workload_memo`]); the memo holds `Arc`s, so sharing a hit
        // costs one clone.
        let memo = workload_memo();
        let mut built: HashMap<Fingerprint, Arc<Workload>> = HashMap::new();
        let mut todo = scope_memo(
            &mut memo.lock().expect("workload memo lock"),
            &keys,
            &mut built,
        );
        // Costliest build first, so the longest one never starts last
        // on a worker that finished a short one; the stable sort keeps
        // grid order among equal costs.
        todo.sort_by_cached_key(|&k| {
            std::cmp::Reverse(key_cells[k].workload.build_cost(key_cells[k].category))
        });
        let built = Mutex::new(built);
        // The pool bound comes from the caller (all cores by default,
        // or the caller's pinned thread budget); builds never reach the
        // report, so the bound cannot affect results.
        let build_workers = build_workers.clamp(1, todo.len().max(1));
        let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let next_key = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..build_workers {
                s.spawn(|| {
                    while let Some(&k) = todo.get(next_key.fetch_add(1, Ordering::Relaxed)) {
                        let cell = key_cells[k];
                        match cell.workload.build(cell.category, cell.seed) {
                            Ok(wl) => {
                                let wl = Arc::new(wl);
                                built
                                    .lock()
                                    .expect("build lock")
                                    .insert(keys[k], Arc::clone(&wl));
                                memo.lock().expect("workload memo lock").insert(keys[k], wl);
                            }
                            Err(e) => errors
                                .lock()
                                .expect("error lock")
                                .push(format!("{}: {e}", cell.workload.name())),
                        }
                    }
                });
            }
        });
        let mut errors = errors.into_inner().expect("error lock");
        if !errors.is_empty() {
            errors.sort();
            return Err(SweepError::Workload(errors.join("; ")));
        }
        let built = built.into_inner().expect("build lock");

        // Phase 3: simulate (family, layer) work items, any worker, any
        // order. A layer's reports depend only on the layer, the mode
        // and the simulator config (tile sampling is seeded per layer),
        // so one family's layers spread over every worker — a campaign
        // that is a single family still fills the pool. Each item runs
        // the family's whole architecture axis over the layer's seed
        // planes in one call, which schedules every tile grid under all
        // the family's windows.
        let runs: Vec<FamilyRun> = families
            .iter()
            .map(|family| {
                // Every unit of a family shares its seed-plane list
                // (it's part of the family key), so one workload list
                // serves all of them.
                let unit0 = &units[family[0]];
                let planes: Vec<Arc<Workload>> = unit0
                    .iter()
                    .map(|&i| Arc::clone(&built[&workload_key(&cells[i])]))
                    .collect();
                let accels = family
                    .iter()
                    .map(|&u| Accelerator::new(cells[units[u][0]].arch.clone(), spec.sim))
                    .collect();
                // Seed variants of one workload spec have the same
                // layer count, so plane 0's depth is the family's.
                let depth = planes[0].layers.len();
                FamilyRun {
                    planes,
                    accels,
                    depth,
                }
            })
            .collect();
        // Items run family by family, layers in order. A layerless
        // workload still needs one item, whose owner finishes the
        // family's cells.
        let items: Vec<(usize, usize)> = runs
            .iter()
            .enumerate()
            .flat_map(|(f, run)| (0..run.depth.max(1)).map(move |l| (f, l)))
            .collect();
        let workers = workers.clamp(1, items.len());
        // The worker that claims a family's first layer owns it and
        // finalizes it once its count reaches 0; `landed` wakes owners
        // whose queue has run dry.
        let progress = Mutex::new(Progress {
            families: runs
                .iter()
                .map(|run| FamilyProgress {
                    layers: vec![Vec::new(); run.depth],
                    left: run.depth.max(1),
                    cut: false,
                })
                .collect(),
            panicked: false,
        });
        let landed = Condvar::new();
        let done: Mutex<Vec<(usize, CellMetrics)>> = Mutex::new(Vec::with_capacity(missing.len()));
        let next_item = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                let (units, families, runs, items, fingerprints, twins) =
                    (&units, &families, &runs, &items, &fingerprints, &twins);
                let (progress, landed, done, next_item) = (&progress, &landed, &done, &next_item);
                // Prices a finished family and streams its cells: the
                // owner's last step for each family it claimed.
                let finalize = move |f: usize, layers: Vec<Vec<Vec<LayerReport>>>| {
                    let run = &runs[f];
                    for (a, (&u, accel)) in families[f].iter().zip(&run.accels).enumerate() {
                        for (p, &i) in units[u].iter().enumerate() {
                            let network = NetworkReport {
                                layers: layers.iter().map(|row| row[a][p]).collect(),
                            };
                            let report = accel.finish(&run.planes[p], network);
                            let m = CellMetrics {
                                speedup: report.speedup,
                                cycles: report.network.cycles(),
                                dense_cycles: report.network.dense_cycles(),
                                power_mw: report.cost.power_mw(),
                                area_mm2: report.cost.area_mm2(),
                                tops_per_w: report.effective_tops_per_w,
                                tops_per_mm2: report.effective_tops_per_mm2,
                            };
                            cache.insert(fingerprints[i], m);
                            // Stream completion for the simulated cell
                            // and every in-campaign twin it resolves.
                            for &twin in &twins[&fingerprints[i]] {
                                observe(&CellEvent::Finished {
                                    cell: &cells[twin],
                                    fingerprint: fingerprints[twin],
                                    metrics: m,
                                    cached: twin != i,
                                });
                            }
                            done.lock().expect("done lock").push((i, m));
                        }
                    }
                };
                s.spawn(move || {
                    let _wake = PanicWake { progress, landed };
                    let mut scratch = SimScratch::new();
                    let mut owned: Vec<usize> = Vec::new();
                    loop {
                        // Finalize owned families whose layers are all in;
                        // drop the ones the abort cut short.
                        let mut ready: Vec<(usize, Vec<Vec<Vec<LayerReport>>>)> = Vec::new();
                        {
                            let mut st = progress.lock().expect("progress lock");
                            owned.retain(|&f| {
                                let fam = &mut st.families[f];
                                if fam.left > 0 {
                                    return true;
                                }
                                if !fam.cut {
                                    ready.push((f, std::mem::take(&mut fam.layers)));
                                }
                                false
                            });
                        }
                        for (f, layers) in ready {
                            finalize(f, layers);
                        }

                        let k = next_item.fetch_add(1, Ordering::Relaxed);
                        let Some(&(f, l)) = items.get(k) else {
                            if owned.is_empty() {
                                break;
                            }
                            // The queue is dry but an owned family still
                            // has layers in flight elsewhere: sleep until
                            // one of them lands.
                            let mut st = progress.lock().expect("progress lock");
                            while !st.panicked && owned.iter().all(|&f| st.families[f].left > 0) {
                                st = landed.wait(st).expect("progress lock");
                            }
                            if st.panicked {
                                // The scope re-raises the worker's panic.
                                return;
                            }
                            continue;
                        };
                        if abort.load(Ordering::Relaxed) {
                            // Claimed but not run: the count still
                            // reaches 0, and the family is never
                            // finalized.
                            let mut st = progress.lock().expect("progress lock");
                            let fam = &mut st.families[f];
                            fam.cut = true;
                            fam.left -= 1;
                            if fam.left == 0 {
                                landed.notify_all();
                            }
                            continue;
                        }
                        let run = &runs[f];
                        if l == 0 {
                            owned.push(f);
                            for &u in &families[f] {
                                for &i in &units[u] {
                                    observe(&CellEvent::Started {
                                        cell: &cells[i],
                                        fingerprint: fingerprints[i],
                                    });
                                }
                            }
                        }
                        let reports = if l < run.depth {
                            let accels: Vec<&Accelerator> = run.accels.iter().collect();
                            let planes: Vec<&Workload> =
                                run.planes.iter().map(Arc::as_ref).collect();
                            Accelerator::run_family_layer(&accels, &planes, l, &mut scratch)
                        } else {
                            Vec::new()
                        };
                        let mut st = progress.lock().expect("progress lock");
                        let fam = &mut st.families[f];
                        if l < run.depth {
                            fam.layers[l] = reports;
                        }
                        fam.left -= 1;
                        if fam.left == 0 {
                            landed.notify_all();
                        }
                    }
                });
            }
        });
        let progress = progress.into_inner().expect("progress lock");
        if progress.families.iter().any(|fam| fam.cut) {
            return Err(SweepError::Interrupted);
        }
        for (i, m) in done.into_inner().expect("done lock") {
            for &twin in &twins[&fingerprints[i]] {
                metrics[twin] = Some(m);
            }
        }
    }

    // Assemble in input (grid) order — identical output for any worker
    // count.
    Ok(cells
        .iter()
        .zip(&fingerprints)
        .zip(metrics)
        .map(|((cell, fp), m)| CellRecord {
            index: cell.index,
            workload: cell.workload.name(),
            category: cell.category,
            arch: cell.arch.name.clone(),
            seed: cell.seed,
            fingerprint: fp.to_string(),
            metrics: m.expect("every cell resolved"),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_core::arch::ArchSpec;
    use griffin_sim::config::{Fidelity, SimConfig};

    /// An abort flag nobody raises.
    static NEVER: AtomicBool = AtomicBool::new(false);

    /// Runs one campaign's phase-2 memo policy over `keys` against a
    /// local memo, "building" the misses, and returns the hit keys.
    fn memo_campaign(memo: &mut HashMap<Fingerprint, Arc<u64>>, keys: &[u64]) -> Vec<u64> {
        let fps: Vec<Fingerprint> = keys
            .iter()
            .map(|&k| {
                let mut h = Hasher::new();
                h.u64(k);
                h.finish()
            })
            .collect();
        let mut built = HashMap::new();
        let todo = scope_memo(memo, &fps, &mut built);
        for &k in &todo {
            memo.insert(fps[k], Arc::new(keys[k]));
        }
        let mut hits: Vec<u64> = built.values().map(|v| **v).collect();
        hits.sort_unstable();
        let mut resident: Vec<u64> = memo.values().map(|v| **v).collect();
        resident.sort_unstable();
        assert_eq!(
            resident, keys,
            "the memo holds exactly this campaign's keys"
        );
        hits
    }

    #[test]
    fn the_memo_holds_one_campaign_and_serves_its_repeats() {
        let mut memo = HashMap::new();
        let (s1, s2) = ([1, 2, 3], [3, 4]);
        assert_eq!(memo_campaign(&mut memo, &s1), Vec::<u64>::new());
        // A new set keeps only what it shares with the last one.
        assert_eq!(memo_campaign(&mut memo, &s2), vec![3]);
        // Returning to S1 rebuilds what S2 evicted: the stated trade-off.
        assert_eq!(memo_campaign(&mut memo, &s1), vec![3]);
        // A back-to-back repeat is all hits.
        assert_eq!(memo_campaign(&mut memo, &s1), vec![1, 2, 3]);
        assert_eq!(memo_campaign(&mut memo, &[]), Vec::<u64>::new());
    }

    fn small_spec() -> SweepSpec {
        SweepSpec::new("unit")
            .adhoc_layer("l0", 32, 256, 32, 1.0, 0.2)
            .adhoc_layer("l1", 16, 128, 64, 0.5, 0.5)
            .category(DnnCategory::B)
            .arch(ArchSpec::dense())
            .arch(ArchSpec::sparse_b_star())
            .arch(ArchSpec::griffin())
            .seeds([1, 2])
            .sim(SimConfig {
                fidelity: Fidelity::Sampled { tiles: 4, seed: 1 },
                ..SimConfig::default()
            })
    }

    #[test]
    fn campaign_covers_every_cell_in_order() {
        let cache = ResultCache::in_memory();
        let r = run_campaign(&small_spec(), &cache, 2).unwrap();
        assert_eq!(r.cells.len(), 12);
        for (i, c) in r.cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert!(c.metrics.speedup > 0.0);
        }
        assert_eq!(r.cache.misses, 12);
        assert_eq!(r.cache.stores, 12);
        assert_eq!(r.cache.hits, 0);
    }

    #[test]
    fn rerun_is_fully_cached() {
        let cache = ResultCache::in_memory();
        let first = run_campaign(&small_spec(), &cache, 3).unwrap();
        let second = run_campaign(&small_spec(), &cache, 3).unwrap();
        assert_eq!(second.cache.hits, 12);
        assert_eq!(second.cache.misses, 0);
        assert_eq!(first.cells, second.cells);
    }

    #[test]
    fn duplicate_cells_simulate_once_and_fan_out() {
        // A repeated seed duplicates every scenario; each distinct
        // fingerprint must be simulated (stored) once, with the result
        // shared by its twin cells.
        let spec = small_spec().seeds([1, 1]);
        let cache = ResultCache::in_memory();
        let r = run_campaign(&spec, &cache, 2).unwrap();
        assert_eq!(r.cells.len(), 12);
        assert_eq!(r.cache.stores, 6, "one simulation per distinct scenario");
        // Grid order is workload → category → seed → arch, so the twin
        // of each cell under the duplicated seed sits one arch-block
        // (3 cells) later inside the same workload block of 6.
        for block in r.cells.chunks(6) {
            let (first, second) = block.split_at(3);
            for (a, b) in first.iter().zip(second) {
                assert_eq!(a.metrics, b.metrics);
                assert_eq!(a.fingerprint, b.fingerprint);
            }
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        let cache = ResultCache::in_memory();
        let spec = SweepSpec::new("nothing");
        assert_eq!(run_campaign(&spec, &cache, 1), Err(SweepError::EmptySpec));
    }

    #[test]
    fn invalid_adhoc_workload_is_an_error() {
        let cache = ResultCache::in_memory();
        let spec = SweepSpec::new("bad")
            .adhoc_layer("zero", 0, 16, 16, 1.0, 1.0)
            .category(DnnCategory::Dense)
            .arch(ArchSpec::dense());
        match run_campaign(&spec, &cache, 2) {
            Err(SweepError::Workload(msg)) => assert!(msg.contains("zero")),
            other => panic!("expected workload error, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_subsets_recombine_into_the_full_campaign() {
        let spec = small_spec();
        let cells = spec.cells();
        let cache = ResultCache::in_memory();
        // Interleaved split: subsets are not contiguous grid ranges.
        let evens: Vec<Cell> = cells.iter().filter(|c| c.index % 2 == 0).cloned().collect();
        let odds: Vec<Cell> = cells.iter().filter(|c| c.index % 2 == 1).cloned().collect();
        let mut recs = run_cells(&spec, &evens, &cache, 2, &no_observer, &NEVER).unwrap();
        recs.extend(run_cells(&spec, &odds, &cache, 3, &no_observer, &NEVER).unwrap());
        recs.sort_by_key(|r| r.index);
        let full = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
        assert_eq!(recs, full.cells);
        // Empty subsets are fine.
        assert_eq!(
            run_cells(&spec, &[], &cache, 2, &no_observer, &NEVER),
            Ok(vec![])
        );
    }

    #[test]
    fn observer_streams_every_cell_exactly_once() {
        let spec = small_spec();
        let cache = ResultCache::in_memory();
        let started = AtomicUsize::new(0);
        let finished: Mutex<Vec<(usize, bool)>> = Mutex::new(Vec::new());
        run_cells(
            &spec,
            &spec.cells(),
            &cache,
            3,
            &|ev| match ev {
                CellEvent::Started { .. } => {
                    started.fetch_add(1, Ordering::Relaxed);
                }
                CellEvent::Finished { cell, cached, .. } => {
                    finished.lock().unwrap().push((cell.index, *cached));
                }
            },
            &NEVER,
        )
        .unwrap();
        let mut fin = finished.into_inner().unwrap();
        fin.sort_unstable();
        assert_eq!(started.load(Ordering::Relaxed), 12);
        assert_eq!(
            fin,
            (0..12).map(|i| (i, false)).collect::<Vec<_>>(),
            "cold run: every cell finishes uncached, exactly once"
        );

        // Warm rerun: all finishes are cached, nothing starts.
        let started2 = AtomicUsize::new(0);
        let cached2 = AtomicUsize::new(0);
        run_cells(
            &spec,
            &spec.cells(),
            &cache,
            3,
            &|ev| match ev {
                CellEvent::Started { .. } => {
                    started2.fetch_add(1, Ordering::Relaxed);
                }
                CellEvent::Finished { cached: true, .. } => {
                    cached2.fetch_add(1, Ordering::Relaxed);
                }
                CellEvent::Finished { .. } => {}
            },
            &NEVER,
        )
        .unwrap();
        assert_eq!(started2.load(Ordering::Relaxed), 0);
        assert_eq!(cached2.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn observer_marks_twin_cells_cached() {
        // A duplicated seed: 6 distinct scenarios, each with one twin.
        let spec = small_spec().seeds([1, 1]);
        let cache = ResultCache::in_memory();
        let fresh = AtomicUsize::new(0);
        let twinned = AtomicUsize::new(0);
        run_cells(
            &spec,
            &spec.cells(),
            &cache,
            2,
            &|ev| {
                if let CellEvent::Finished { cached, .. } = ev {
                    if *cached {
                        twinned.fetch_add(1, Ordering::Relaxed);
                    } else {
                        fresh.fetch_add(1, Ordering::Relaxed);
                    }
                }
            },
            &NEVER,
        )
        .unwrap();
        assert_eq!(fresh.load(Ordering::Relaxed), 6);
        assert_eq!(twinned.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn worker_count_never_changes_records() {
        let spec = small_spec();
        let run = |workers| {
            run_campaign(&spec, &ResultCache::in_memory(), workers)
                .unwrap()
                .cells
        };
        let serial = run(1);
        for workers in [2, 4] {
            assert_eq!(serial, run(workers), "{workers} workers");
        }
    }

    #[test]
    fn arch_family_batching_never_changes_records() {
        // A genuine single-sparse family (not the mixed-mode small_spec
        // archs): every member goes through one tile-driver call per
        // layer and plane, which must report exactly what each
        // architecture's own `run_with` does, at any worker count.
        use crate::spec::ArchFamily;
        let spec = SweepSpec::new("family")
            .adhoc_layer("l0", 32, 256, 32, 1.0, 0.2)
            .category(DnnCategory::B)
            .family(ArchFamily::SparseB { max_fanin: 4 })
            .seeds([1, 2])
            .sim(SimConfig {
                fidelity: Fidelity::Sampled { tiles: 2, seed: 1 },
                ..SimConfig::default()
            });
        let cells = spec.cells();
        let serial = run_cells(
            &spec,
            &cells,
            &ResultCache::in_memory(),
            1,
            &no_observer,
            &NEVER,
        )
        .unwrap();
        let mut scratch = SimScratch::new();
        for (cell, rec) in cells.iter().zip(&serial) {
            let wl = cell.workload.build(cell.category, cell.seed).unwrap();
            let r = Accelerator::new(cell.arch.clone(), spec.sim).run_with(&wl, &mut scratch);
            assert_eq!(rec.metrics.cycles, r.network.cycles(), "{}", rec.arch);
            assert_eq!(rec.metrics.speedup, r.speedup, "{}", rec.arch);
        }
        for workers in [2, 4] {
            let split = run_cells(
                &spec,
                &cells,
                &ResultCache::in_memory(),
                workers,
                &no_observer,
                &NEVER,
            )
            .unwrap();
            assert_eq!(serial, split, "{workers} workers");
        }
    }

    #[test]
    fn dense_arch_reports_unit_speedup() {
        let cache = ResultCache::in_memory();
        let r = run_campaign(&small_spec(), &cache, 2).unwrap();
        for c in r.cells.iter().filter(|c| c.arch == "Baseline") {
            assert!((c.metrics.speedup - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn layer_split_family_keeps_the_observer_contract() {
        // One family (mixed modes, two seed planes) over a 4-layer
        // network: 4 (family, layer) items, so 3 workers all take
        // layers of the same family.
        use std::thread::ThreadId;
        let spec = SweepSpec::new("contract")
            .synthetic("net", 4)
            .category(DnnCategory::B)
            .arch(ArchSpec::dense())
            .arch(ArchSpec::sparse_b_star())
            .arch(ArchSpec::griffin())
            .seeds([1, 2])
            .sim(SimConfig {
                fidelity: Fidelity::Sampled { tiles: 1, seed: 1 },
                ..SimConfig::default()
            });
        let cells = spec.cells();
        let cache = ResultCache::in_memory();
        let events: Mutex<Vec<(usize, bool, ThreadId)>> = Mutex::new(Vec::new());
        let split = run_cells(
            &spec,
            &cells,
            &cache,
            3,
            &|ev| {
                let (cell, started) = match ev {
                    CellEvent::Started { cell, .. } => (cell.index, true),
                    CellEvent::Finished { cell, cached, .. } => {
                        assert!(!cached, "cold run, no twins: nothing is cached");
                        (cell.index, false)
                    }
                };
                let tid = std::thread::current().id();
                events.lock().unwrap().push((cell, started, tid));
            },
            &NEVER,
        )
        .unwrap();
        let events = events.into_inner().unwrap();
        for c in &cells {
            let mine: Vec<(bool, ThreadId)> = events
                .iter()
                .filter(|e| e.0 == c.index)
                .map(|e| (e.1, e.2))
                .collect();
            assert_eq!(mine.len(), 2, "cell {}: one Started, one Finished", c.index);
            assert!(mine[0].0 && !mine[1].0, "cell {}: Started first", c.index);
            assert_eq!(mine[0].1, mine[1].1, "cell {}: same thread", c.index);
        }
        let serial = run_cells(
            &spec,
            &cells,
            &ResultCache::in_memory(),
            1,
            &no_observer,
            &NEVER,
        )
        .unwrap();
        assert_eq!(split, serial, "the layer split never changes records");

        // Warm rerun: every cell is a cache hit, nothing starts.
        let warm: Mutex<Vec<bool>> = Mutex::new(Vec::new());
        run_cells(
            &spec,
            &cells,
            &cache,
            3,
            &|ev| match ev {
                CellEvent::Started { .. } => warm.lock().unwrap().push(false),
                CellEvent::Finished { cached, .. } => warm.lock().unwrap().push(*cached),
            },
            &NEVER,
        )
        .unwrap();
        assert_eq!(warm.into_inner().unwrap(), vec![true; cells.len()]);
    }

    #[test]
    fn abort_at_the_first_started_interrupts_and_caches_nothing() {
        // One 8-layer family over 2 workers: the abort lands while its
        // first layer runs, so the later layers are claimed but skipped.
        // A regression that leaves the owner waiting would hang, so the
        // call runs on a thread joined with a timeout.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let spec = SweepSpec::new("abort")
                .synthetic("net", 8)
                .category(DnnCategory::B)
                .arch(ArchSpec::dense())
                .arch(ArchSpec::sparse_b_star())
                .arch(ArchSpec::griffin())
                .seeds([1, 2])
                .sim(SimConfig {
                    fidelity: Fidelity::Sampled { tiles: 1, seed: 1 },
                    ..SimConfig::default()
                });
            let cells = spec.cells();
            let cache = ResultCache::in_memory();
            let abort = AtomicBool::new(false);
            let finished = AtomicUsize::new(0);
            let out = run_cells(
                &spec,
                &cells,
                &cache,
                2,
                &|ev| match ev {
                    CellEvent::Started { .. } => abort.store(true, Ordering::Relaxed),
                    CellEvent::Finished { .. } => {
                        finished.fetch_add(1, Ordering::Relaxed);
                    }
                },
                &abort,
            );
            let cached = cells
                .iter()
                .filter(|c| cache.lookup(c.fingerprint(&spec.sim)).is_some())
                .count();
            tx.send((out, cache.stats().stores, cached, finished.into_inner()))
                .unwrap();
        });
        let (out, stores, cached, finished) = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("an aborted run must return, not hang");
        assert_eq!(out, Err(SweepError::Interrupted));
        assert_eq!((stores, cached), (0, 0), "the cut family is not cached");
        assert_eq!(finished, 0, "the cut family streams no Finished");
    }

    #[test]
    fn layerless_workload_still_finishes_its_cells() {
        // No layers means no layer items; the family still needs an
        // owner to finish its cells (at unit speedup).
        let spec = SweepSpec::new("empty")
            .synthetic("none", 0)
            .category(DnnCategory::B)
            .arch(ArchSpec::dense())
            .arch(ArchSpec::sparse_b_star())
            .seeds([1, 2]);
        let r = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
        assert_eq!(r.cells.len(), 4);
        assert!(r.cells.iter().all(|c| c.metrics.speedup == 1.0));
    }
}
