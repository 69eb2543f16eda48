//! The campaign workloads, `sweep-b` and `lineup-4cat`.
//!
//! Set-up (repeated, median reported as `setup_s`): parse the generated
//! scenario and warm the process-wide workload memo with one
//! `run_cells_bounded` call over the baseline cells only. Timed phase:
//! cold campaigns against a fresh in-memory cache (call → CSV report),
//! at least two, whose reports must agree byte for byte. Afterwards
//! the default-seed campaign's CSV is checked against its golden digest
//! and scored against the paper.

use std::time::{Duration, Instant};

use griffin_core::arch::ArchKind;
use griffin_sweep::executor::{no_observer, run_cells_bounded};
use griffin_sweep::report::to_csv;
use griffin_sweep::{CacheStats, CampaignReport, Cell, ResultCache, Scenario, SweepSpec};

use crate::probes::{self, ExecStats, ExecTrace, ProbeInput};
use crate::trace::{SpanId, Tracer};
use crate::util::{fnv1a64, median, peak_rss_mb, reset_peak_rss};
use crate::{scen, serve_probe, Ctx, Workload};

/// Set-up repetitions per run; each pays cold mask synthesis.
const SETUP_REPS: usize = 3;
/// Offset of the throwaway mask seeds the earlier set-up repetitions
/// build (so every repetition synthesizes masks cold).
const DECOY_STRIDE: u64 = 1 << 32;

struct Kind {
    text: fn(&[u64]) -> String,
    seeds: fn(u64) -> Vec<u64>,
    golden: &'static str,
    paper_dev: fn(&CampaignReport) -> Option<f64>,
}

fn kind(w: Workload) -> Kind {
    match w {
        Workload::SweepB => Kind {
            text: scen::sweep_b,
            seeds: scen::sweep_b_seeds,
            golden: scen::GOLDEN_SWEEP_B,
            paper_dev: scen::fig5_dev_pct,
        },
        Workload::Lineup4Cat => Kind {
            text: scen::lineup_4cat,
            seeds: scen::lineup_seeds,
            golden: scen::GOLDEN_LINEUP_4CAT,
            paper_dev: scen::fig8_dev_pct,
        },
    }
}

/// A finished campaign: its report, CSV bytes and call → CSV time.
struct Done {
    report: CampaignReport,
    csv: String,
    took: Duration,
    /// Executor accounting, when traced.
    exec: Option<ExecStats>,
}

/// Parses a generated scenario into its spec.
fn spec_of(ctx: &Ctx, text: &str, parent: Option<SpanId>) -> Option<SweepSpec> {
    match ctx
        .tracer
        .span("scenario", parent, 0, |_| Scenario::parse(text))
    {
        Ok(s) => Some(s.to_spec()),
        Err(e) => {
            ctx.ops.error(format!("scenario parse: {e}"));
            None
        }
    }
}

/// Runs `cells` of `spec` against `cache` and assembles the CSV report,
/// timing call → CSV. A recording `tracer` also observes the executor,
/// so its simulation time lands in `sim` spans, not in `executor`.
fn campaign(
    tracer: &Tracer,
    threads: usize,
    spec: &SweepSpec,
    cells: &[Cell],
    cache: &ResultCache,
    parent: Option<SpanId>,
    req: u64,
) -> Result<Done, String> {
    let t0 = Instant::now();
    let et = tracer.on().then(ExecTrace::new);
    let (records, exec) = tracer.span("executor", parent, req, |p| {
        let records = match &et {
            Some(et) => run_cells_bounded(spec, cells, cache, threads, threads, &|ev| {
                et.observe(ev);
            }),
            None => run_cells_bounded(spec, cells, cache, threads, threads, &no_observer),
        };
        (records, et.as_ref().map(|et| et.finish(tracer, p, req)))
    });
    let records = records.map_err(|e| e.to_string())?;
    let report = CampaignReport {
        campaign: spec.name.clone(),
        cells: records,
        cache: CacheStats::default(),
        workers: threads,
        elapsed_ms: 0,
    };
    let csv = tracer.span("report", parent, req, |_| to_csv(&report));
    Ok(Done {
        report,
        csv,
        took: t0.elapsed(),
        exec,
    })
}

/// Runs a campaign workload and fills `ctx.metrics`.
pub fn run(ctx: &Ctx, w: Workload) {
    let k = kind(w);
    let seeds = (k.seeds)(ctx.seed);
    let default_seeds = (k.seeds)(0);
    let threads = ctx.threads;

    // Set-up: every repetition parses its scenario and synthesizes its
    // masks cold (earlier repetitions use throwaway seeds); the last
    // one leaves the memo warm for the timed seeds.
    let mut setup = Vec::new();
    let mut spec = None;
    for r in 0..SETUP_REPS {
        let rep_seeds: Vec<u64> = if r + 1 == SETUP_REPS {
            seeds.clone()
        } else {
            let off = DECOY_STRIDE * (r as u64 + 1);
            seeds.iter().map(|s| s.wrapping_add(off)).collect()
        };
        let t0 = Instant::now();
        let ok = ctx.tracer.span("setup", None, r as u64, |p| {
            let s = spec_of(ctx, &(k.text)(&rep_seeds), p)?;
            let baseline: Vec<Cell> = s
                .cells()
                .into_iter()
                .filter(|c| c.arch.kind == ArchKind::Dense)
                .collect();
            let run = campaign(
                &ctx.tracer,
                threads,
                &s,
                &baseline,
                &ResultCache::in_memory(),
                p,
                r as u64,
            );
            ctx.ops
                .check(run.is_ok(), || format!("set-up campaign: {:?}", run.err()));
            Some(s)
        });
        setup.push(t0.elapsed().as_secs_f64());
        if r + 1 == SETUP_REPS {
            spec = ok;
        }
    }
    let Some(spec) = spec else { return };
    let cells = spec.cells();

    // Timed phase.
    let mut cold: Vec<Done> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let mut overhead = None;
    let mut exec = None;
    let started = Instant::now();
    loop {
        let n = cold.len() as u64;
        let cache = ResultCache::in_memory();
        reset_peak_rss();
        // The traced run times one untraced campaign, then one traced
        // campaign: their ratio is the tracing overhead.
        let traced = ctx.tracer.on() && n == 1;
        let off = Tracer::new(false);
        let tracer = if traced { &ctx.tracer } else { &off };
        let run = tracer.span("campaign", None, n, |p| {
            campaign(tracer, threads, &spec, &cells, &cache, p, n)
        });
        peaks.push(peak_rss_mb());
        let mut done = match run {
            Ok(d) => d,
            Err(e) => {
                ctx.ops.error(format!("campaign: {e}"));
                return;
            }
        };
        if let Some(first) = cold.first() {
            ctx.ops.check(first.csv == done.csv, || {
                "two cold campaigns of the same seed disagree".into()
            });
            if traced {
                exec = done.exec.take();
                overhead = Some((done.took.as_secs_f64() / first.took.as_secs_f64() - 1.0) * 100.0);
            }
        } else {
            ctx.ops.check(done.report.cells.len() == cells.len(), || {
                "cold campaign lost cells".into()
            });
        }
        cold.push(done);
        let enough = if ctx.tracer.on() {
            cold.len() >= 2
        } else {
            cold.len() >= 2 && started.elapsed().as_secs_f64() >= ctx.seconds
        };
        if enough {
            break;
        }
    }

    // Accuracy: the default-seed campaign against its golden digest and
    // the paper. At the default seed the timed campaigns are that
    // campaign; otherwise it runs once more, untimed.
    let golden_run = if seeds == default_seeds {
        None
    } else {
        let out = ctx.tracer.span("golden", None, 0, |p| {
            let s = spec_of(ctx, &(k.text)(&default_seeds), p)?;
            match campaign(
                &ctx.tracer,
                threads,
                &s,
                &s.cells(),
                &ResultCache::in_memory(),
                p,
                0,
            ) {
                Ok(d) => Some(d),
                Err(e) => {
                    ctx.ops.error(format!("golden campaign: {e}"));
                    None
                }
            }
        });
        Some(out)
    };
    let golden = match &golden_run {
        None => cold.first(),
        Some(g) => g.as_ref(),
    };
    if let Some(g) = golden {
        let digest = fnv1a64(g.csv.as_bytes());
        ctx.ops.check(digest == k.golden, || {
            format!("default-seed CSV digest {digest} != golden {}", k.golden)
        });
        match (k.paper_dev)(&g.report) {
            Some(d) if !ctx.tracer.on() => ctx.metrics.put("paper_dev_pct", d, "%"),
            Some(_) => {}
            None => ctx
                .ops
                .error("paper reference designs missing from the report"),
        }
    }

    if ctx.tracer.on() {
        let first = &cold[0];
        if let Some(o) = overhead {
            ctx.metrics.put("trace.overhead_pct", o, "%");
        }
        if let Some(e) = exec {
            e.put(&ctx.metrics, threads);
        }
        let text = (k.text)(&seeds);
        probes::run(
            ctx,
            &ProbeInput {
                spec: &spec,
                text: &text,
                report: &first.report,
                csv: &first.csv,
            },
        );
        serve_probe::layer_probe(ctx);
        return;
    }

    let wall: f64 = cold.iter().map(|d| d.took.as_secs_f64()).sum();
    let cells_done: usize = cold.iter().map(|d| d.report.cells.len()).sum();
    let m = &ctx.metrics;
    m.put("setup_s", median(&setup), "s");
    m.put("cells_per_s", cells_done as f64 / wall, "1/s");
    // The lowest per-campaign peak: how much two workers' simulations
    // overlap in time moves any single peak.
    m.put(
        "peak_rss_mb",
        peaks.iter().copied().fold(f64::INFINITY, f64::min),
        "MiB",
    );
}
