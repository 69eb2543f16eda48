//! `griffin-cli bench` — machine-readable scheduler performance
//! telemetry (`BENCH_sched.json`).
//!
//! Three probes, designed to track the perf trajectory of the
//! event-driven scheduler core across PRs:
//!
//! * **micro** — representative tile grids (the `Sparse.B*` routing, a
//!   wide lane-reach window, a narrow window, a dense tile) scheduled
//!   by the event-driven core and by the retained naive reference,
//!   reporting ns/call, ns/op and the event/reference speedup;
//! * **multi_window** — a K-window family (one reach, varying depths)
//!   scheduled by [`schedule_multi`] versus K independent
//!   [`schedule_with`] passes, on an iid tile (replay never fires; the
//!   honest no-win overhead) and a structured 2:4 tile (bounded
//!   run-ahead lag, where saturating-depth replay collapses the
//!   family);
//! * **alloc** — allocations per tile in the steady state (grid rebuild
//!   plus schedule with a reused scratch), counted by the process-wide
//!   [`griffin::telemetry::CountingAlloc`] — the zero-alloc contract,
//!   measured rather than asserted;
//! * **campaign** — a small synthetic sweep through the full campaign
//!   engine, reporting cells/second;
//! * **share** — the campaign family run through
//!   [`Accelerator::run_family_batch`] with the sharing counters from
//!   [`SimScratch::share_stats`] reported: windows requested,
//!   event-core passes executed, replays, and window-keyed cache hits
//!   — the share rate on real masks, observable rather than assumed;
//! * **fleet** — the same sweep through the sharded fleet coordinator
//!   (2 in-process shards, journal, merge, assembly), reporting the
//!   orchestration overhead over a plain campaign;
//! * **watch** — a deterministic 54-cell event stream (per-cell events
//!   regenerated through `events::sample`, with v3 host stamps,
//!   scenario provenance, a mid-flight retry episode and non-finite
//!   metric floats) replayed through the observability fold
//!   ([`griffin::watch::CampaignModel`]), reporting events/second
//!   parsed-and-folded — the consumer must stay far ahead of any
//!   realistic producer (target: >10⁵ events/s);
//! * **serve** — the resident daemon's warm-path win: one scenario
//!   submitted twice to an in-process [`griffin::serve::Daemon`] —
//!   cold submit→first-`cell_done` latency and total campaign time,
//!   then the warm rerun answered from the resident cache — next to a
//!   cold one-shot campaign of the same scenario (what a fresh CLI
//!   invocation pays).
//!
//! Regeneration preserves hand-recorded data: top-level sections of an
//! existing output file that this probe set doesn't produce (e.g.
//! machine-measured PR-to-PR comparisons) are carried over verbatim by
//! [`merge_unknown_sections`].

use std::time::Instant;

use griffin::core::accelerator::Accelerator;
use griffin::core::category::DnnCategory;
use griffin::fleet::coordinator::{run_fleet, FleetConfig};
use griffin::fleet::events::NullSink;
use griffin::serve::{Daemon, ScenarioSource, ServeConfig, TeeItem};
use griffin::sim::config::{Fidelity, Priority, SimConfig};
use griffin::sim::engine::{reference, schedule_multi, schedule_with, OpGrid, SchedScratch};
use griffin::sim::grid::build_b_grid;
use griffin::sim::shuffle::LaneMap;
use griffin::sim::window::{BorrowWindow, EffectiveWindow};
use griffin::sim::SimScratch;
use griffin::sweep::json::Json;
use griffin::sweep::scenario::Scenario;
use griffin::sweep::{run_campaign, ResultCache, SweepSpec};
use griffin::telemetry::count_allocations;
use griffin::tensor::block::BTileView;
use griffin::tensor::gen::TensorGen;
use griffin::tensor::shape::CoreDims;

/// Options of the `bench` subcommand.
pub struct BenchArgs {
    /// Output path for the JSON report.
    pub out: String,
    /// Reduced iteration counts for CI smoke runs.
    pub quick: bool,
}

pub fn parse_bench_args(args: &[String]) -> Option<BenchArgs> {
    let mut out = BenchArgs {
        out: "BENCH_sched.json".into(),
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out.out = it.next()?.clone(),
            "--quick" => out.quick = true,
            _ => return None,
        }
    }
    Some(out)
}

struct MicroCase {
    name: &'static str,
    win: EffectiveWindow,
}

fn tile_grid(t_rows: usize, density: f64, seed: u64) -> OpGrid {
    let core = CoreDims::PAPER;
    let mask = TensorGen::seeded(seed).bernoulli_mask(t_rows * core.k0, core.n0, density);
    let view = BTileView::new(&mask, core, 0);
    let mut grid = OpGrid::default();
    let mut span = Vec::new();
    build_b_grid(&mut grid, &mut span, &view, LaneMap::Rotate);
    grid
}

/// Number of timing chunks `time_per_call` splits its iterations into.
/// The fastest chunk is reported: for deterministic CPU-bound work the
/// minimum is the least-interfered estimate, which keeps the JSON stable
/// across runs on a shared machine (see `machine_variance_note`).
const TIMING_CHUNKS: usize = 8;

fn time_per_call(mut f: impl FnMut(), iters: usize) -> f64 {
    // One untimed call so lazily-built scratch (tap tables, wake
    // buckets) doesn't land in the first chunk.
    f();
    let per_chunk = (iters / TIMING_CHUNKS).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..TIMING_CHUNKS {
        let start = Instant::now();
        for _ in 0..per_chunk {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / per_chunk as f64);
    }
    best
}

pub fn run_bench(args: &BenchArgs) -> Result<Json, String> {
    let iters = if args.quick { 40 } else { 400 };
    let t_rows = if args.quick { 24 } else { 96 };
    println!(
        "bench: {} iterations/case on {}-row tiles{}",
        iters,
        t_rows,
        if args.quick { " (--quick)" } else { "" }
    );

    // --- micro: event core vs retained reference -----------------------
    let grid = tile_grid(t_rows, 0.19, 1);
    let dense = tile_grid(t_rows, 1.0, 2);
    let cases = [
        MicroCase {
            name: "sparse_b_star", // the paper's Sparse.B*(4,0,1)
            win: EffectiveWindow::for_b(BorrowWindow::new(4, 0, 1)),
        },
        MicroCase {
            name: "lane_reach", // contended arbitration, 9-tap tables
            win: EffectiveWindow::for_b(BorrowWindow::new(2, 2, 2)),
        },
        MicroCase {
            name: "narrow_window", // no reach: the specialized own-only loop
            win: EffectiveWindow::for_b(BorrowWindow::new(1, 0, 0)),
        },
    ];

    let mut scratch = SchedScratch::new();
    let mut micro = Vec::new();
    let mut push_case = |name: &str,
                         g: &OpGrid,
                         win: EffectiveWindow,
                         scratch: &mut SchedScratch| {
        let event_ns = time_per_call(
            || {
                schedule_with(g, win, Priority::OwnFirst, scratch);
            },
            iters,
        );
        let ref_ns = time_per_call(
            || {
                reference::schedule(g, win, Priority::OwnFirst);
            },
            iters,
        );
        let ops = g.total_ops() as f64;
        println!(
            "  {name:<16} event {event_ns:>10.0} ns/tile  ref {ref_ns:>10.0} ns/tile  ({:.2}x, {:.2} ns/op)",
            ref_ns / event_ns,
            event_ns / ops
        );
        micro.push(Json::obj([
            ("name".into(), Json::Str(name.into())),
            ("ops_per_tile".into(), Json::from_f64(ops)),
            ("event_ns_per_tile".into(), Json::from_f64(event_ns)),
            ("reference_ns_per_tile".into(), Json::from_f64(ref_ns)),
            ("event_ns_per_op".into(), Json::from_f64(event_ns / ops)),
            (
                "speedup_vs_reference".into(),
                Json::from_f64(ref_ns / event_ns),
            ),
        ]));
    };
    for case in &cases {
        push_case(case.name, &grid, case.win, &mut scratch);
    }
    push_case("dense_tile", &dense, EffectiveWindow::dense(), &mut scratch);

    // --- multi_window: K-window family vs K independent passes ---------
    // One shared reach (lane 0, cols 1), depths 2..=9 — a depth column
    // of the executor's arch axis after window dedup. On iid masks
    // every slot's run-ahead lag diverges and `schedule_multi` honestly
    // pays a full pass per window; on structured 2:4 masks the lag
    // stays bounded, so the deepest window's tracked pass replays the
    // shallower family members.
    let fam: Vec<EffectiveWindow> = (1..=8)
        .map(|d| EffectiveWindow::for_b(BorrowWindow::new(d, 0, 1)))
        .collect();
    let structured = {
        let core = CoreDims::PAPER;
        OpGrid::from_fn(t_rows, core.k0, 1, core.n0, |t, l, _, c| {
            (t + l * 7 + c * 13) % 4 < 2
        })
    };
    let mut multi_out = Vec::new();
    let mut multi_window = Vec::new();
    for (name, g) in [("iid_tile", &grid), ("structured_2of4", &structured)] {
        let multi_ns = time_per_call(
            || {
                schedule_multi(g, &fam, Priority::OwnFirst, &mut scratch, &mut multi_out);
            },
            iters,
        );
        let singles_ns = time_per_call(
            || {
                for w in &fam {
                    schedule_with(g, *w, Priority::OwnFirst, &mut scratch);
                }
            },
            iters,
        );
        let share = schedule_multi(g, &fam, Priority::OwnFirst, &mut scratch, &mut multi_out);
        println!(
            "  multi_window {name:<16} {} wins: multi {multi_ns:>10.0} ns  singles {singles_ns:>10.0} ns  ({:.2}x, {} replayed)",
            fam.len(),
            singles_ns / multi_ns,
            share.replayed
        );
        multi_window.push(Json::obj([
            ("name".into(), Json::Str(name.into())),
            ("windows".into(), Json::from_f64(fam.len() as f64)),
            ("replayed".into(), Json::from_f64(share.replayed as f64)),
            ("multi_ns_per_family".into(), Json::from_f64(multi_ns)),
            ("singles_ns_per_family".into(), Json::from_f64(singles_ns)),
            (
                "speedup_vs_singles".into(),
                Json::from_f64(singles_ns / multi_ns),
            ),
        ]));
    }

    // --- alloc: the zero-alloc steady-state contract -------------------
    let core = CoreDims::PAPER;
    let mask = TensorGen::seeded(3).bernoulli_mask(t_rows * core.k0, core.n0, 0.19);
    let view = BTileView::new(&mask, core, 0);
    let mut g = OpGrid::default();
    let mut span = Vec::new();
    let win = EffectiveWindow::for_b(BorrowWindow::new(4, 0, 1));
    // Warm up every buffer, then count a steady-state tile loop.
    for _ in 0..3 {
        build_b_grid(&mut g, &mut span, &view, LaneMap::Rotate);
        schedule_with(&g, win, Priority::OwnFirst, &mut scratch);
    }
    let tiles = iters.max(100);
    let (_, allocs, bytes) = count_allocations(|| {
        for _ in 0..tiles {
            build_b_grid(&mut g, &mut span, &view, LaneMap::Rotate);
            schedule_with(&g, win, Priority::OwnFirst, &mut scratch);
        }
    });
    let allocs_per_tile = allocs as f64 / tiles as f64;
    println!(
        "  steady state: {allocs_per_tile:.3} allocations/tile ({} allocs, {} bytes over {} tiles)",
        allocs, bytes, tiles
    );

    // --- campaign: cells/second through the sweep engine ---------------
    // Multiple mask seeds so the executor's seed-variant batching (one
    // word-parallel `run_batch` per arch across all seeds) is on the
    // measured path, exactly as in real sweeps.
    let layers = if args.quick { 2 } else { 4 };
    let seeds: Vec<u64> = if args.quick {
        vec![1, 2]
    } else {
        vec![1, 2, 3]
    };
    let spec = SweepSpec::new("bench")
        .synthetic("bench-synth", layers)
        .category(DnnCategory::B)
        .family(ArchFamilyB { quick: args.quick }.family())
        .seeds(seeds.iter().copied())
        .sim(SimConfig {
            fidelity: Fidelity::Sampled { tiles: 4, seed: 1 },
            ..SimConfig::default()
        });
    // Single-worker baseline.
    let cache = ResultCache::in_memory();
    let report = run_campaign(&spec, &cache, 1).map_err(|e| e.to_string())?;
    let secs_1w = (report.elapsed_ms as f64 / 1e3).max(1e-9);
    let cells_per_sec_1w = report.cells.len() as f64 / secs_1w;
    // Headline throughput: up to 4 workers, clamped to the machine's
    // actual parallelism (spawning more threads than cores only adds
    // scheduling noise on a scheduling-bound workload). The pinned
    // count is recorded in the JSON — compare only like against like.
    let campaign_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4);
    let report_mw = run_campaign(&spec, &ResultCache::in_memory(), campaign_workers)
        .map_err(|e| e.to_string())?;
    let secs_mw = (report_mw.elapsed_ms as f64 / 1e3).max(1e-9);
    let cells_per_sec = report_mw.cells.len() as f64 / secs_mw;
    println!(
        "  campaign: {} cells in {} ms ({cells_per_sec:.1} cells/s, {campaign_workers} workers; \
         {cells_per_sec_1w:.1} cells/s single-worker)",
        report_mw.cells.len(),
        report_mw.elapsed_ms
    );

    // --- share: sharing counters across the campaign arch family ------
    // The same family the campaign sweeps, run as one family batch with
    // the counters read back. On real Bernoulli masks the windows are
    // pairwise distinct and run-ahead lags diverge, so the honest
    // numbers here are passes ≈ windows and replays ≈ 0 — the adaptive
    // multi-window walk wins by shared grid builds and cache locality,
    // not by schedule dedup (see ROADMAP item 4).
    let fam_archs = ArchFamilyB { quick: args.quick }.family().enumerate();
    let share_wl =
        griffin::workloads::synth::synthetic_workload("bench-synth", DnnCategory::B, layers, 1)
            .map_err(|e| e.to_string())?;
    let share_sim = SimConfig {
        fidelity: Fidelity::Sampled { tiles: 4, seed: 1 },
        ..SimConfig::default()
    };
    let accel_objs: Vec<Accelerator> = fam_archs
        .iter()
        .map(|a| Accelerator::new(a.clone(), share_sim))
        .collect();
    let accels: Vec<&Accelerator> = accel_objs.iter().collect();
    let mut sim_scratch = SimScratch::new();
    sim_scratch.begin_reuse_scope(0xBE7C);
    let share_planes = [&share_wl];
    let _ = Accelerator::run_family_batch(&accels, &share_planes, &mut sim_scratch);
    let st = sim_scratch.share_stats();
    let share_rate = st.shared() as f64 / st.multi_windows.max(1) as f64;
    println!(
        "  share: {} archs, {} windows -> {} passes ({} replayed, {} cache hits; {:.1}% shared)",
        fam_archs.len(),
        st.multi_windows,
        st.multi_passes,
        st.multi_replayed,
        st.sched_cache_hits,
        share_rate * 100.0
    );

    // --- fleet: orchestration overhead of the sharded coordinator -----
    let fleet_dir = std::env::temp_dir().join(format!(
        "griffin-bench-fleet-{}-{}",
        std::process::id(),
        if args.quick { "q" } else { "f" }
    ));
    let _ = std::fs::remove_dir_all(&fleet_dir);
    let mut fleet_cfg = FleetConfig::new(&fleet_dir, 2);
    fleet_cfg.workers = 1;
    // The overhead base: a plain campaign at the fleet's worker budget
    // (in-process shards run one after another, each on
    // `fleet_cfg.workers` workers), timed right before the fleet so
    // both see the same warm workload memo; the first campaign above
    // also pays for mask synthesis.
    let base = run_campaign(&spec, &ResultCache::in_memory(), fleet_cfg.workers)
        .map_err(|e| e.to_string())?;
    let fleet_report = run_fleet(&spec, &fleet_cfg, &mut NullSink).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&fleet_dir);
    let fleet_secs = (fleet_report.elapsed_ms as f64 / 1e3).max(1e-9);
    let fleet_cells_per_sec = fleet_report.cells.len() as f64 / fleet_secs;
    let overhead = fleet_report.elapsed_ms as f64 / (base.elapsed_ms as f64).max(1.0);
    println!(
        "  fleet: {} cells in {} ms over 2 shards ({fleet_cells_per_sec:.1} cells/s, \
         {overhead:.2}x of plain campaign incl. journal+merge+assembly)",
        fleet_report.cells.len(),
        fleet_report.elapsed_ms
    );

    // --- watch: the observability fold keeps up with the stream -------
    let stream = watch_stream_lines();
    let passes = if args.quick { 50 } else { 500 };
    let start = Instant::now();
    let mut last_done = 0;
    for _ in 0..passes {
        let mut model = griffin::watch::CampaignModel::new();
        for line in &stream {
            model.apply_line(line);
        }
        // A line the model can't parse folds cheaper than a real one,
        // which would quietly inflate the throughput number.
        assert_eq!(model.parse_errors, 0, "bench stream must parse cleanly");
        last_done = model.done();
    }
    let folded = (stream.len() * passes) as f64;
    let events_per_sec = folded / start.elapsed().as_secs_f64().max(1e-9);
    println!(
        "  watch: {} events x {passes} passes folded at {events_per_sec:.0} events/s \
         ({last_done}-cell campaign model)",
        stream.len()
    );

    // --- serve: warm-daemon latency vs a cold one-shot campaign -------
    let serve_dir = std::env::temp_dir().join(format!(
        "griffin-bench-serve-{}-{}",
        std::process::id(),
        if args.quick { "q" } else { "f" }
    ));
    let _ = std::fs::remove_dir_all(&serve_dir);
    std::fs::create_dir_all(&serve_dir).map_err(|e| e.to_string())?;
    let scenario_text = format!(
        "[scenario]\nname = \"bench-serve\"\nseeds = [1]\ncategories = [\"b\"]\n\n\
         [sim]\ntiles = 4\nsample_seed = 1\n\n\
         [[workload]]\nsynthetic = \"bench-synth\"\nlayers = {layers}\n\n\
         [[arch]]\npreset = \"baseline\"\n\n\
         [[arch]]\nfamily = \"b\"\nfanin = {}\n",
        if args.quick { 3 } else { 6 }
    );

    // What a fresh `griffin-cli sweep` pays: a brand-new disk cache,
    // the whole grid simulated.
    let scen_path = serve_dir.join("bench-serve.toml");
    std::fs::write(&scen_path, &scenario_text).map_err(|e| e.to_string())?;
    let scen = Scenario::load(&scen_path).map_err(|e| e.to_string())?;
    let cold_spec = scen.to_spec();
    let cli_cache = ResultCache::at_dir(serve_dir.join("cli-cache")).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let cli_report = run_campaign(&cold_spec, &cli_cache, 1).map_err(|e| e.to_string())?;
    let cold_cli_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut serve_cfg = ServeConfig::new(serve_dir.join("daemon"));
    serve_cfg.workers = 1;
    serve_cfg.shards = 2;
    let daemon = Daemon::start(serve_cfg).map_err(|e| e.to_string())?;
    let source = ScenarioSource::Inline(scenario_text);
    // One streamed submission: latency to first cell_done, then total.
    let streamed_submit = |label: &str| -> Result<(f64, Option<f64>, usize, usize), String> {
        let t = Instant::now();
        let acc = daemon
            .submit(label, &source, None)
            .map_err(|e| e.to_string())?;
        let (_, rx) = daemon
            .subscribe(Some(&acc.campaign))
            .map_err(|e| e.to_string())?;
        let mut first_cell_ms = None;
        let (mut done_cells, mut cached_cells) = (0usize, 0usize);
        for item in rx {
            match item {
                TeeItem::Line(line) if line.contains("\"ev\":\"cell_done\"") => {
                    first_cell_ms.get_or_insert(t.elapsed().as_secs_f64() * 1e3);
                    done_cells += 1;
                    cached_cells += usize::from(line.contains("\"cached\":true"));
                }
                TeeItem::Line(_) => {}
                TeeItem::End(_) => break,
            }
        }
        Ok((
            t.elapsed().as_secs_f64() * 1e3,
            first_cell_ms,
            done_cells,
            cached_cells,
        ))
    };
    let (cold_total_ms, cold_first_ms, cold_cells, _) = streamed_submit("bench-cold")?;
    let (warm_total_ms, _, warm_cells, warm_cached) = streamed_submit("bench-warm")?;
    drop(daemon);
    let _ = std::fs::remove_dir_all(&serve_dir);
    let warm_speedup = cold_total_ms / warm_total_ms.max(1e-9);
    println!(
        "  serve: cold submit→first cell {:.1} ms, cold total {cold_total_ms:.1} ms \
         (one-shot campaign {cold_cli_ms:.1} ms), warm rerun {warm_total_ms:.1} ms \
         ({warm_speedup:.1}x, {warm_cached}/{warm_cells} cells cached)",
        cold_first_ms.unwrap_or(cold_total_ms)
    );

    Ok(Json::obj([
        ("schema".into(), Json::Str("griffin-bench-sched/1".into())),
        ("quick".into(), Json::Bool(args.quick)),
        ("iters".into(), Json::from_f64(iters as f64)),
        ("timing_chunks".into(), Json::from_f64(TIMING_CHUNKS as f64)),
        (
            "machine_variance_note".into(),
            Json::Str(
                "micro numbers are the fastest of `timing_chunks` chunks of \
                 `iters / timing_chunks` calls each (least-interfered estimate); \
                 wall-clock probes (campaign/fleet/serve) are single runs and can \
                 swing ±15% between machines and runs — compare them only against \
                 numbers produced on the same host. The headline campaign rate is \
                 pinned to `campaign.workers` threads (recorded alongside it) and the \
                 single-worker rate uses one. `fleet.overhead_vs_campaign` divides \
                 the 2-shard fleet's time by `fleet.base_elapsed_ms`: a plain \
                 campaign at the same `fleet.workers` budget, run just before the \
                 fleet with the same warm workload memo"
                    .into(),
            ),
        ),
        ("micro".into(), Json::Arr(micro)),
        ("multi_window".into(), Json::Arr(multi_window)),
        (
            "alloc".into(),
            Json::obj([
                ("tiles".into(), Json::from_f64(tiles as f64)),
                ("allocs_per_tile".into(), Json::from_f64(allocs_per_tile)),
                (
                    "bytes_per_tile".into(),
                    Json::from_f64(bytes as f64 / tiles as f64),
                ),
            ]),
        ),
        (
            "campaign".into(),
            Json::obj([
                ("cells".into(), Json::from_f64(report_mw.cells.len() as f64)),
                ("workers".into(), Json::from_f64(campaign_workers as f64)),
                ("seeds".into(), Json::from_f64(seeds.len() as f64)),
                (
                    "elapsed_ms".into(),
                    Json::from_f64(report_mw.elapsed_ms as f64),
                ),
                ("cells_per_sec".into(), Json::from_f64(cells_per_sec)),
                (
                    "elapsed_ms_1_worker".into(),
                    Json::from_f64(report.elapsed_ms as f64),
                ),
                (
                    "cells_per_sec_1_worker".into(),
                    Json::from_f64(cells_per_sec_1w),
                ),
            ]),
        ),
        (
            "share".into(),
            Json::obj([
                ("archs".into(), Json::from_f64(fam_archs.len() as f64)),
                ("windows".into(), Json::from_f64(st.multi_windows as f64)),
                ("passes".into(), Json::from_f64(st.multi_passes as f64)),
                ("replayed".into(), Json::from_f64(st.multi_replayed as f64)),
                (
                    "sched_cache_hits".into(),
                    Json::from_f64(st.sched_cache_hits as f64),
                ),
                ("shared".into(), Json::from_f64(st.shared() as f64)),
                ("share_rate".into(), Json::from_f64(share_rate)),
            ]),
        ),
        (
            "fleet".into(),
            Json::obj([
                ("shards".into(), Json::from_f64(2.0)),
                (
                    "cells".into(),
                    Json::from_f64(fleet_report.cells.len() as f64),
                ),
                (
                    "elapsed_ms".into(),
                    Json::from_f64(fleet_report.elapsed_ms as f64),
                ),
                ("cells_per_sec".into(), Json::from_f64(fleet_cells_per_sec)),
                ("workers".into(), Json::from_f64(fleet_cfg.workers as f64)),
                (
                    "base_elapsed_ms".into(),
                    Json::from_f64(base.elapsed_ms as f64),
                ),
                ("overhead_vs_campaign".into(), Json::from_f64(overhead)),
            ]),
        ),
        (
            "watch".into(),
            Json::obj([
                ("stream_events".into(), Json::from_f64(stream.len() as f64)),
                ("passes".into(), Json::from_f64(passes as f64)),
                ("events_per_sec".into(), Json::from_f64(events_per_sec)),
            ]),
        ),
        (
            "serve".into(),
            Json::obj([
                (
                    "cells".into(),
                    Json::from_f64(cli_report.cells.len() as f64),
                ),
                ("cold_cli_ms".into(), Json::from_f64(cold_cli_ms)),
                (
                    "cold_first_cell_ms".into(),
                    Json::from_f64(cold_first_ms.unwrap_or(cold_total_ms)),
                ),
                ("cold_total_ms".into(), Json::from_f64(cold_total_ms)),
                ("warm_total_ms".into(), Json::from_f64(warm_total_ms)),
                ("warm_speedup".into(), Json::from_f64(warm_speedup)),
                (
                    "warm_cached_cells".into(),
                    Json::from_f64(warm_cached as f64),
                ),
                ("cold_done_cells".into(), Json::from_f64(cold_cells as f64)),
            ]),
        ),
    ]))
}

/// The recorded stream behind the `watch` probe: a deterministic
/// 54-cell, 2-shard campaign — headers, every cell's start/done pair,
/// heartbeats every 8 completions, a mid-flight shard failure and
/// retry, the shard/merge/campaign footers — serialized exactly as the
/// fleet writes it (one JSON line per event).
///
/// Per-cell and recovery events come from the schema sample generator
/// (`events::sample::build_event`, the same one behind the event and
/// watch-model property tests), so the fold is measured against the
/// full wire surface: escaped strings, occasional non-finite metric
/// floats, and the v3 host/provenance fields the old hand-rolled
/// stream never carried.
fn watch_stream_lines() -> Vec<String> {
    use griffin::fleet::events::sample::build_event;
    use griffin::fleet::events::Event;
    use griffin::sweep::scenario::ScenarioProvenance;
    use griffin::sweep::Fingerprint;

    const CELLS: usize = 54;
    const PLANNED: usize = CELLS / 2;
    let mut evs = vec![Event::CampaignStart {
        campaign: "bench-watch".into(),
        spec_fp: Fingerprint(0xBE, 0xEF),
        cells: CELLS,
        shards: 2,
        resumed: 0,
        scenario: Some(ScenarioProvenance {
            file: "bench-watch.toml".into(),
            fp: Fingerprint(0xF0, 0x0D),
        }),
    }];
    for shard in 0..2usize {
        evs.push(Event::ShardStart {
            shard,
            cells: PLANNED,
            skipped: 0,
            host: Some(format!("host-{shard}")),
        });
        for d in 0..PLANNED {
            let cell = shard * PLANNED + d;
            // `build_event` derives the shard from `a % 100_000` and
            // the cell from `b`, so `a = shard + 100_000·cell` keeps
            // the campaign coherent while the fingerprint and metric
            // draws still vary per cell. Every 13th cell draws a
            // non-finite metric float (the lossless-float wire path).
            let a = (shard + 100_000 * cell) as u64;
            evs.push(build_event(2, a, cell as u64, false, 0));
            evs.push(build_event(
                3,
                a,
                cell as u64,
                cell.is_multiple_of(3),
                u64::from(cell.is_multiple_of(13)),
            ));
            if (d + 1) % 8 == 0 {
                evs.push(Event::Heartbeat {
                    shard,
                    done: d + 1,
                    total: PLANNED,
                    elapsed_ms: (d as u64 + 1) * 11,
                    cached: (d + 1) / 3,
                });
            }
            // Mid-flight recovery on shard 1: its host drops, the
            // remaining cells requeue, the shard retries (the v2/v3
            // recovery variants, via the same sample generator).
            if shard == 1 && d == 12 {
                evs.push(build_event(11, 0, 1, true, 0)); // host_lost
                evs.push(build_event(6, 1, 0, true, 0)); // shard_failed
                evs.push(build_event(7, 1, (PLANNED - d - 1) as u64, false, 0)); // cells_requeued
                evs.push(build_event(8, 1, 0, true, 0)); // shard_retried
                evs.push(build_event(12, 0, 0, true, 0)); // host_retired
            }
        }
        evs.push(Event::ShardDone {
            shard,
            simulated: PLANNED - PLANNED / 3,
            cached: PLANNED / 3,
            elapsed_ms: 321,
            host: Some(format!("host-{shard}")),
        });
    }
    evs.push(Event::MergeDone {
        sources: 2,
        merged: CELLS as u64,
        identical: 0,
        healed: 0,
        conflicts: 0,
    });
    evs.push(Event::CampaignDone {
        cells: CELLS,
        elapsed_ms: 345,
    });
    evs.iter().map(Event::to_line).collect()
}

/// Carries over top-level sections of an existing report file that the
/// fresh report doesn't produce — hand-recorded data (like the measured
/// `sweep_bert_b_workers1` PR comparison) survives regeneration; probe
/// sections are always replaced by their fresh values.
pub fn merge_unknown_sections(fresh: Json, out_path: &str) -> Json {
    let Json::Obj(mut new) = fresh else {
        return fresh;
    };
    if let Ok(Json::Obj(old)) = std::fs::read_to_string(out_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
    {
        for (k, v) in old {
            if let std::collections::btree_map::Entry::Vacant(slot) = new.entry(k) {
                println!(
                    "  keeping section `{}` from existing {out_path}",
                    slot.key()
                );
                slot.insert(v);
            }
        }
    }
    Json::Obj(new)
}

/// Small helper so quick mode sweeps a smaller family.
struct ArchFamilyB {
    quick: bool,
}

impl ArchFamilyB {
    fn family(&self) -> griffin::sweep::ArchFamily {
        griffin::sweep::ArchFamily::SparseB {
            max_fanin: if self.quick { 4 } else { 8 },
        }
    }
}
