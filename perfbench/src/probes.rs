//! Per-layer probes of the traced run. Each one times calls into one
//! layer's public functions on the workload's own inputs:
//!
//! * `executor` — [`ExecTrace`], a `CellEvent` observer on a traced
//!   `run_cells_bounded` call;
//! * `workloads` — single-threaded `WorkloadSpec::build` per distinct key;
//! * `sim` — every cell once through `Accelerator::run_with` (one reused
//!   `SimScratch`), and each architecture family once through
//!   `Accelerator::run_family_batch`;
//! * `cache` — `ResultCache` insert/lookup on a directory-backed cache,
//!   then `merge_dirs` (the fleet's merge step);
//! * `report`, `scenario` — `to_csv`, `to_json`, `Scenario::parse`;
//! * `fleet` — `run_fleet` with 2 shards against a warm shared cache.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use griffin_core::accelerator::{Accelerator, Workload};
use griffin_core::category::DnnCategory;
use griffin_fleet::{run_fleet, FleetConfig, NullSink};
use griffin_sim::config::SparsityMode;
use griffin_sim::scratch::SimScratch;
use griffin_sweep::cache::merge_dirs;
use griffin_sweep::executor::CellEvent;
use griffin_sweep::report::{to_csv, to_json};
use griffin_sweep::{CampaignReport, ResultCache, Scenario, SweepSpec};

use crate::trace::{SpanId, Tracer};
use crate::util::{median, ms};
use crate::{Ctx, Metrics};

/// Repetitions of the sub-millisecond probes (median reported).
const FAST_REPS: usize = 30;
/// Repetitions of the fleet and merge probes (median reported).
const FLEET_REPS: usize = 3;

#[derive(Default)]
struct ExecState {
    first_start: Option<Instant>,
    last_finish: Option<Instant>,
    /// Per worker thread: the open family's start and latest finish.
    open: HashMap<ThreadId, (Instant, Option<Instant>)>,
    families: Vec<(Instant, Instant)>,
}

/// Executor accounting from `CellEvent`s. A worker announces every cell
/// of a family (`Started`) before simulating it and reports them all
/// (`Finished`) after, so one family is the interval from its first
/// `Started` to its last `Finished` on one thread.
pub struct ExecTrace {
    call: Instant,
    state: Mutex<ExecState>,
}

/// What [`ExecTrace::finish`] measured.
pub struct ExecStats {
    prep_ms: f64,
    sim_wall_ms: f64,
    busy_ms: f64,
    families: usize,
    tail_ms: f64,
}

impl ExecTrace {
    /// Starts the clock at the executor call.
    pub fn new() -> Self {
        ExecTrace {
            call: Instant::now(),
            state: Mutex::new(ExecState::default()),
        }
    }

    /// The observer body.
    pub fn observe(&self, ev: &CellEvent<'_>) {
        let now = Instant::now();
        let tid = std::thread::current().id();
        let mut st = self.state.lock().expect("executor trace lock");
        match ev {
            CellEvent::Started { .. } => {
                st.first_start.get_or_insert(now);
                match st.open.get(&tid).copied() {
                    Some((start, Some(fin))) => {
                        st.families.push((start, fin));
                        st.open.insert(tid, (now, None));
                    }
                    Some((_, None)) => {}
                    None => {
                        st.open.insert(tid, (now, None));
                    }
                }
            }
            CellEvent::Finished { .. } => {
                // Cache hits are announced by the calling thread before
                // any worker starts; they belong to no family.
                if let Some(slot) = st.open.get_mut(&tid) {
                    slot.1 = Some(now);
                    st.last_finish = Some(now);
                }
            }
        }
    }

    /// Closes the trace at the executor's return; records one `sim`
    /// span per family under `parent`.
    pub fn finish(&self, tracer: &Tracer, parent: Option<SpanId>, req: u64) -> ExecStats {
        let ret = Instant::now();
        let mut st = std::mem::take(&mut *self.state.lock().expect("executor trace lock"));
        let open: Vec<(Instant, Option<Instant>)> = st.open.values().copied().collect();
        for (start, fin) in open {
            st.families.push((start, fin.unwrap_or(start)));
        }
        for &(a, b) in &st.families {
            tracer.record("sim", parent, req, a, b);
        }
        let (first, last) = match (st.first_start, st.last_finish) {
            (Some(f), Some(l)) => (f, l),
            _ => (ret, ret),
        };
        ExecStats {
            prep_ms: ms(first - self.call),
            sim_wall_ms: ms(last.saturating_duration_since(first)),
            busy_ms: st.families.iter().map(|&(a, b)| ms(b - a)).sum(),
            families: st.families.len(),
            tail_ms: ms(ret.saturating_duration_since(last)),
        }
    }
}

impl ExecStats {
    /// Emits the `executor.*` metrics; busy is relative to `threads`
    /// requested workers over the simulation wall time.
    pub fn put(&self, m: &Metrics, threads: usize) {
        m.put("executor.prep_ms", self.prep_ms, "ms");
        m.put("executor.sim_wall_ms", self.sim_wall_ms, "ms");
        // An empty simulation window gives NaN, which the result line
        // reports as an unmeasurable metric.
        let busy = 100.0 * self.busy_ms / (threads as f64 * self.sim_wall_ms);
        m.put("executor.busy_pct", busy, "%");
        m.put("executor.families", self.families as f64, "count");
        m.put("executor.tail_ms", self.tail_ms, "ms");
    }
}

/// The workload's inputs and results the probes run on.
pub struct ProbeInput<'a> {
    /// The workload's campaign spec (at the workload seed).
    pub spec: &'a SweepSpec,
    /// Its scenario text.
    pub text: &'a str,
    /// Its cold campaign report and CSV.
    pub report: &'a CampaignReport,
    pub csv: &'a str,
}

fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(ms(t0.elapsed()));
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Runs every probe and fills the per-layer metrics.
pub fn run(ctx: &Ctx, input: &ProbeInput<'_>) {
    let tr = &ctx.tracer;
    let m = &ctx.metrics;
    let spec = input.spec;

    // scenario / report
    let (parse_ms, parsed) = tr.span("scenario", None, 0, |_| {
        median_of(FAST_REPS, || Scenario::parse(input.text))
    });
    ctx.ops
        .check(parsed.is_ok(), || "probe scenario parse".into());
    m.put("scenario.parse_us", parse_ms * 1e3, "us");
    let (csv_ms, csv) = tr.span("report", None, 0, |_| {
        median_of(FAST_REPS, || to_csv(input.report))
    });
    ctx.ops
        .check(csv == input.csv, || "to_csv is not deterministic".into());
    m.put("report.csv_ms", csv_ms, "ms");
    let (json_ms, _) = tr.span("report", None, 0, |_| {
        median_of(FAST_REPS, || to_json(input.report))
    });
    m.put("report.json_ms", json_ms, "ms");

    // workloads: one single-threaded build per distinct key.
    let mut built: HashMap<(usize, DnnCategory, u64), Workload> = HashMap::new();
    let mut build_ms = 0.0;
    tr.span("workloads", None, 0, |_| {
        for (wi, w) in spec.workloads.iter().enumerate() {
            for &cat in &spec.categories {
                for &seed in &spec.seeds {
                    let t0 = Instant::now();
                    match w.build(cat, seed) {
                        Ok(wl) => {
                            build_ms += ms(t0.elapsed());
                            built.insert((wi, cat, seed), wl);
                        }
                        Err(e) => ctx.ops.error(format!("workload build: {e}")),
                    }
                }
            }
        }
    });
    m.put("workloads.build_ms", build_ms, "ms");
    m.put("workloads.builds", built.len() as f64, "count");

    // sim: every cell once through run_with, bucketed by mode.
    let mut buckets: HashMap<&'static str, f64> = HashMap::new();
    let mut dense_cat = 0.0;
    let mut run_with_ms = 0.0;
    let mut scratch = SimScratch::new();
    let cells = spec.cells();
    tr.span("sim", None, 0, |_| {
        for (cell, rec) in cells.iter().zip(&input.report.cells) {
            let wi = spec
                .workloads
                .iter()
                .position(|w| *w == cell.workload)
                .expect("cell workload is on the axis");
            let Some(wl) = built.get(&(wi, cell.category, cell.seed)) else {
                continue;
            };
            let accel = Accelerator::new(cell.arch.clone(), spec.sim);
            let t0 = Instant::now();
            let r = accel.run_with(wl, &mut scratch);
            let t = ms(t0.elapsed());
            ctx.ops.check(
                r.network.cycles() == rec.metrics.cycles && r.speedup == rec.metrics.speedup,
                || format!("run_with disagrees with the campaign on {}", rec.arch),
            );
            run_with_ms += t;
            if cell.category == DnnCategory::Dense {
                dense_cat += t;
            }
            let bucket = match cell.arch.mode_for(cell.category) {
                SparsityMode::Dense => "dense",
                SparsityMode::SparseA { .. } => "sparse_a",
                SparsityMode::SparseB { .. } => "sparse_b",
                SparsityMode::SparseAB { .. } => "sparse_ab",
                SparsityMode::SparTen { .. } => "sparten",
            };
            *buckets.entry(bucket).or_default() += t;
        }
    });
    for b in ["sparse_b", "sparse_a", "sparse_ab", "sparten", "dense"] {
        m.put(
            format!("sim.{b}_ms"),
            buckets.get(b).copied().unwrap_or(0.0),
            "ms",
        );
    }
    m.put("sim.dense_cat_ms", dense_cat, "ms");
    m.put("sim.cells", cells.len() as f64, "count");

    // sim (family): each (workload, category) family once through
    // run_family_batch over all its architectures and seed planes.
    let accels: Vec<Accelerator> = spec
        .archs
        .iter()
        .map(|a| Accelerator::new(a.clone(), spec.sim))
        .collect();
    let accel_refs: Vec<&Accelerator> = accels.iter().collect();
    let mut family_ms = 0.0;
    tr.span("sim", None, 1, |_| {
        let mut token = 0u128;
        for wi in 0..spec.workloads.len() {
            for &cat in &spec.categories {
                let planes: Vec<&Workload> = spec
                    .seeds
                    .iter()
                    .filter_map(|&s| built.get(&(wi, cat, s)))
                    .collect();
                token += 1;
                let t0 = Instant::now();
                scratch.begin_reuse_scope(token);
                let out = Accelerator::run_family_batch(&accel_refs, &planes, &mut scratch);
                family_ms += ms(t0.elapsed());
                ctx.ops.check(out.len() == accels.len(), || {
                    "family batch lost archs".into()
                });
            }
        }
    });
    m.put("sim.family_ms", family_ms, "ms");
    m.put("sim.family_gain", run_with_ms / family_ms, "x");

    cache_and_merge(ctx, input);

    // fleet: 2 in-process shards against a cache holding every cell; the
    // report must be byte-identical to the campaign's.
    let warm = Arc::new(ResultCache::in_memory());
    for (cell, rec) in cells.iter().zip(&input.report.cells) {
        warm.insert(cell.fingerprint(&spec.sim), rec.metrics);
    }
    let mut fleet_times = Vec::new();
    tr.span("fleet", None, 0, |_| {
        for r in 0..FLEET_REPS {
            let mut cfg = FleetConfig::new(ctx.state.join(format!("fleet-{r}")), 2);
            cfg.workers = ctx.threads;
            cfg.shared_cache = Some(Arc::clone(&warm));
            let t0 = Instant::now();
            let out = run_fleet(spec, &cfg, &mut NullSink);
            fleet_times.push(ms(t0.elapsed()));
            match out {
                Ok(rep) => {
                    ctx.ops.check(to_csv(&rep) == input.csv, || {
                        "warm fleet report differs from the campaign".into()
                    });
                }
                Err(e) => ctx.ops.error(format!("fleet: {e}")),
            }
        }
    });
    m.put("fleet.warm_run_ms", median(&fleet_times), "ms");
    let st = warm.stats();
    m.put(
        "cache.warm_hit_pct",
        100.0 * st.hits as f64 / (st.hits + st.misses).max(1) as f64,
        "%",
    );
}

/// `cache.*` and `fleet.merge_ms`: each campaign cell inserted into one
/// of two directory-backed shard caches, looked up again from a fresh
/// handle (a disk read), then the shard directories merged.
fn cache_and_merge(ctx: &Ctx, input: &ProbeInput<'_>) {
    let cells = input.spec.cells();
    let (mut ins, mut look, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    ctx.tracer.span("cache", None, 0, |_| {
        for r in 0..FLEET_REPS {
            let root = ctx.state.join(format!("merge-{r}"));
            let shards = [root.join("s0"), root.join("s1")];
            let caches: Vec<ResultCache> = match shards.iter().map(ResultCache::at_dir).collect() {
                Ok(c) => c,
                Err(e) => return ctx.ops.error(format!("cache dir: {e}")),
            };
            let fps: Vec<_> = cells
                .iter()
                .map(|c| c.fingerprint(&input.spec.sim))
                .collect();
            for (i, (fp, rec)) in fps.iter().zip(&input.report.cells).enumerate() {
                let t0 = Instant::now();
                caches[i % 2].insert(*fp, rec.metrics);
                ins.push(ms(t0.elapsed()) * 1e3);
            }
            for (s, dir) in shards.iter().enumerate() {
                let fresh = match ResultCache::at_dir(dir) {
                    Ok(c) => c,
                    Err(e) => return ctx.ops.error(format!("cache dir: {e}")),
                };
                for (i, (fp, rec)) in fps.iter().zip(&input.report.cells).enumerate() {
                    if i % 2 == s {
                        let t0 = Instant::now();
                        let hit = fresh.lookup(*fp);
                        look.push(ms(t0.elapsed()) * 1e3);
                        ctx.ops.check(hit == Some(rec.metrics), || {
                            "disk cache lost an entry".into()
                        });
                    }
                }
            }
            let t0 = Instant::now();
            let merged = merge_dirs(root.join("merged"), &shards);
            merge.push(ms(t0.elapsed()));
            match merged {
                Ok(mr) => {
                    ctx.ops.check(
                        mr.merged as usize == cells.len() && mr.conflicts.is_empty(),
                        || format!("merge_dirs merged {} of {} entries", mr.merged, cells.len()),
                    );
                }
                Err(e) => ctx.ops.error(format!("merge_dirs: {e}")),
            }
        }
    });
    ctx.metrics.put("cache.insert_us", median(&ins), "us");
    ctx.metrics.put("cache.lookup_us", median(&look), "us");
    ctx.metrics.put("fleet.merge_ms", median(&merge), "ms");
}
