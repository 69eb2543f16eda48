//! `griffin-cli` — command-line front end for the Griffin reproduction.
//!
//! ```console
//! $ griffin-cli list                         # architectures & benchmarks
//! $ griffin-cli run resnet50 ab griffin      # one (benchmark, category, arch)
//! $ griffin-cli compare bert b               # all architectures on one workload
//! $ griffin-cli layer 196 1152 256 0.57 0.19 # ad-hoc layer on the star designs
//! $ griffin-cli sweep bert b --workers 8 --cache .sweep-cache --csv out.csv
//! $ griffin-cli sweep --scenario scenarios/fig5-bert-b.toml --csv out.csv
//! $ griffin-cli pareto resnet50 b            # §VI Pareto front of a family
//! $ griffin-cli fleet bert b                 # resumable campaign
//! $ griffin-cli fleet --scenario scenarios/fig5-bert-b.toml
//! $ griffin-cli fleet watch .griffin-fleet   # live dashboard over events.jsonl
//! $ griffin-cli fleet watch .griffin-fleet --json   # one-shot summary
//! $ griffin-cli fleet report .griffin-fleet --html report.html
//! $ griffin-cli serve .griffin-serve         # resident campaign daemon
//! $ griffin-cli serve submit scenarios/fig5-bert-b.toml \
//!       --connect unix:.griffin-serve/serve.sock --csv out.csv
//! $ griffin-cli fleet watch --connect unix:.griffin-serve/serve.sock
//! $ griffin-cli scenario list                # shipped scenario library
//! $ griffin-cli scenario validate scenarios  # parse + validate data files
//! $ griffin-cli bench --out BENCH_sched.json # scheduler perf telemetry
//! $ griffin-cli cache stats .sweep-cache     # on-disk result cache usage
//! $ griffin-cli cache prune .sweep-cache --max-bytes 64m
//! ```
//!
//! Argument parsing is deliberately dependency-free (no clap): fixed
//! subcommands with positional arguments plus `--flag value` options
//! for the campaign commands. Workload / category / architecture /
//! family tokens come from the registry in
//! [`griffin::sweep::scenario`], which also parses the declarative
//! scenario files behind `--scenario`.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use griffin::core::accelerator::Accelerator;
use griffin::core::arch::ArchSpec;
use griffin::core::category::DnnCategory;
use griffin::fleet::coordinator::{default_events_path, run_fleet, FleetConfig};
use griffin::fleet::events::JsonlSink;
use griffin::fleet::fault;
use griffin::sim::config::{Fidelity, SimConfig};
use griffin::sweep::report::{to_csv, to_json, write_file};
use griffin::sweep::scenario::{self, Scenario};
use griffin::sweep::{
    default_workers, disk_stats, pareto_designs, per_arch, prune_dir, run_campaign, summarize,
    ArchFamily, ResultCache, ScenarioProvenance, SweepSpec,
};
use griffin::workloads::suite::{build_workload, Benchmark};
use griffin::workloads::synth::synthetic_layer;

#[path = "griffin-cli/bench.rs"]
mod bench;

/// Count every allocation so `griffin-cli bench` can report the
/// scheduler's steady-state allocation behaviour (see
/// [`griffin::telemetry`]).
#[global_allocator]
static ALLOC: griffin::telemetry::CountingAlloc = griffin::telemetry::CountingAlloc;

// Token parsing lives in the scenario registry
// (`griffin::sweep::scenario`), shared with the scenario-file parser so
// the CLI and data files accept the same vocabulary. The `*_or_explain`
// helpers turn an unknown token into a diagnostic naming the valid set
// and the nearest match.

fn parse_benchmark_or_explain(s: &str) -> Result<Benchmark, String> {
    scenario::parse_suite(s)
        .ok_or_else(|| scenario::unknown_token("benchmark", s, scenario::SUITE_TOKENS))
}

fn parse_category_or_explain(s: &str) -> Result<DnnCategory, String> {
    scenario::parse_category(s)
        .ok_or_else(|| scenario::unknown_token("category", s, scenario::CATEGORY_TOKENS))
}

fn parse_arch_or_explain(s: &str) -> Result<ArchSpec, String> {
    scenario::parse_arch(s)
        .ok_or_else(|| scenario::unknown_token("architecture", s, scenario::ARCH_TOKENS))
}

fn usage() -> ExitCode {
    eprintln!("griffin-cli — Griffin (HPCA 2022) reproduction");
    eprintln!();
    eprintln!("USAGE:");
    eprintln!("  griffin-cli list");
    eprintln!("  griffin-cli run <benchmark> <category> <arch>");
    eprintln!("  griffin-cli compare <benchmark> <category>");
    eprintln!("  griffin-cli layer <M> <K> <N> <a_density> <b_density>");
    eprintln!("  griffin-cli sweep <benchmark|synth> <category> [sweep options]");
    eprintln!("  griffin-cli sweep --scenario <FILE> [--workers N --cache DIR --csv/--json PATH]");
    eprintln!("  griffin-cli pareto <benchmark|synth> <family> [sweep options]");
    eprintln!("  griffin-cli fleet <benchmark|synth> <category> [fleet/sweep options]");
    eprintln!("  griffin-cli fleet --scenario <FILE> [fleet options override the file's [fleet]]");
    eprintln!("  griffin-cli fleet watch <DIR> [--json | --json-follow | --no-tty]");
    eprintln!("                         [--interval MS --timeout MS --events PATH]");
    eprintln!("  griffin-cli fleet watch --connect <ADDR> [--campaign ID]");
    eprintln!("                         [--json-follow | --no-tty] [--interval MS]");
    eprintln!("  griffin-cli fleet report <DIR> [--html PATH] [--events PATH]");
    eprintln!("  griffin-cli serve <DIR> [--tcp ADDR --workers N --queue N --retain N]");
    eprintln!("                          (daemon; ^C drains)");
    eprintln!("  griffin-cli serve submit <FILE> --connect <ADDR> [--csv/--json PATH --quiet]");
    eprintln!("  griffin-cli serve status --connect <ADDR>");
    eprintln!("  griffin-cli serve cancel <ID> --connect <ADDR>");
    eprintln!("      ADDR: unix:<path> or tcp:<host:port>; the daemon always listens");
    eprintln!("      on <DIR>/serve.sock, --tcp adds a TCP listener");
    eprintln!("  griffin-cli scenario list [DIR]              (default scenarios/)");
    eprintln!("  griffin-cli scenario show <FILE>");
    eprintln!("  griffin-cli scenario validate <FILE|DIR>...");
    eprintln!("  griffin-cli bench [--quick] [--out PATH]     (default BENCH_sched.json)");
    eprintln!("  griffin-cli cache stats <DIR>");
    eprintln!("  griffin-cli cache prune <DIR> --max-bytes N[k|m|g]");
    eprintln!();
    eprintln!("  benchmarks: alexnet googlenet resnet50 inceptionv3 mobilenetv2 bert");
    eprintln!("  categories: dense a b ab");
    eprintln!("  archs: baseline sparse.a* sparse.b* sparse.ab* griffin tcl.b");
    eprintln!("         tensordash sparten[.a|.b] cnvlutin cambricon-x");
    eprintln!();
    eprintln!("SWEEP OPTIONS:");
    eprintln!("  --family a|b|ab     design family axis (default: from category, else b)");
    eprintln!("  --fanin N           mux fan-in bound for the family (default: 8)");
    eprintln!("  --lineup            sweep the Table VII lineup instead of a family");
    eprintln!("  --workers N         simulation worker threads (default: all cores;");
    eprintln!("                      workload builds always use all cores)");
    eprintln!("  --seeds a,b,c       mask seeds (default: 42,43)");
    eprintln!("  --tiles N           sampled tiles per layer (default: 12)");
    eprintln!("  --cache DIR         on-disk result cache shared across runs");
    eprintln!("  --csv PATH          write the per-cell report as CSV");
    eprintln!("  --json PATH         write the per-cell report as JSON");
    eprintln!();
    eprintln!("FLEET OPTIONS (with any sweep option; the campaign is one resumable pass):");
    eprintln!("  --dir DIR           state dir: journal, event stream, result cache");
    eprintln!("                      (default .griffin-fleet)");
    eprintln!("  --events PATH|-     JSONL event stream (default DIR/events.jsonl, - = stdout)");
    eprintln!("  --resume            skip the cells DIR/cache holds (the journal's spec");
    eprintln!("                      fingerprint is verified first)");
    eprintln!("  --heartbeat N       heartbeat every N cells (default 32, 0 = off)");
    eprintln!();
    eprintln!("  GRIFFIN_FAULT       deterministic fault injection for chaos tests, e.g.");
    eprintln!("                      kill:after=2;corrupt-cache (see docs)");
    ExitCode::from(2)
}

/// Options shared by `sweep` and `pareto`.
struct SweepArgs {
    family: Option<ArchFamily>,
    lineup: bool,
    fanin: usize,
    workers: usize,
    seeds: Vec<u64>,
    tiles: usize,
    cache_dir: Option<String>,
    csv: Option<String>,
    json: Option<String>,
}

fn parse_family_or_explain(s: &str, fanin: usize) -> Result<ArchFamily, String> {
    scenario::parse_family(s, fanin)
        .ok_or_else(|| scenario::unknown_token("family", s, scenario::FAMILY_TOKENS))
}

/// Parses sweep options. `owner` names the flag sets the command
/// accepts, for the unknown-flag error (`fleet` forwards every flag it
/// does not know here, so its errors name both sets).
fn parse_sweep_args(args: &[String], owner: &str) -> Result<SweepArgs, String> {
    let mut out = SweepArgs {
        family: None,
        lineup: false,
        fanin: 8,
        workers: default_workers(),
        seeds: vec![42, 43],
        tiles: 12,
        cache_dir: None,
        csv: None,
        json: None,
    };
    let mut family_token: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--family" => family_token = Some(val()?),
            "--lineup" => out.lineup = true,
            "--fanin" => {
                out.fanin = val()?
                    .parse()
                    .map_err(|_| "--fanin must be an integer".to_string())?;
            }
            "--workers" => {
                out.workers = val()?
                    .parse::<usize>()
                    .ok()
                    .filter(|&w| w > 0)
                    .ok_or_else(|| "--workers must be a positive integer".to_string())?;
            }
            "--seeds" => {
                let raw = val()?;
                out.seeds = raw
                    .split(',')
                    .map(|s| s.trim().parse().ok())
                    .collect::<Option<Vec<u64>>>()
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| format!("--seeds must be a,b,c integers, got `{raw}`"))?;
            }
            "--tiles" => {
                out.tiles = val()?
                    .parse::<usize>()
                    .ok()
                    .filter(|&t| t > 0)
                    .ok_or_else(|| "--tiles must be a positive integer".to_string())?;
            }
            "--cache" => out.cache_dir = Some(val()?),
            "--csv" => out.csv = Some(val()?),
            "--json" => out.json = Some(val()?),
            other => return Err(format!("`{other}` is not a {owner} option")),
        }
    }
    if let Some(tok) = family_token {
        out.family = Some(parse_family_or_explain(&tok, out.fanin)?);
    }
    Ok(out)
}

/// Workload token: a Table-IV benchmark name or `synth` (a 4-layer
/// synthetic network, handy for fast smoke campaigns).
fn add_workload(mut spec: SweepSpec, token: &str) -> Result<SweepSpec, String> {
    let w = scenario::parse_workload(token)
        .ok_or_else(|| scenario::unknown_token("workload", token, scenario::WORKLOAD_TOKENS))?;
    spec.workloads.push(w);
    Ok(spec)
}

fn open_cache(dir: &Option<String>) -> Result<ResultCache, ExitCode> {
    match dir {
        None => Ok(ResultCache::in_memory()),
        Some(d) => ResultCache::at_dir(d).map_err(|e| {
            eprintln!("cannot open cache directory {d}: {e}");
            ExitCode::FAILURE
        }),
    }
}

fn campaign_sim(tiles: usize) -> SimConfig {
    SimConfig {
        fidelity: Fidelity::Sampled {
            tiles,
            seed: 0xBEEF,
        },
        ..SimConfig::default()
    }
}

/// Writes the report files. `quiet` routes the confirmations to stderr
/// — `fleet --events -` gives stdout to the JSONL stream, which must
/// stay pure JSON lines.
fn finish_reports(
    report: &griffin::sweep::CampaignReport,
    csv: &Option<String>,
    json: &Option<String>,
    quiet: bool,
) -> Result<(), ExitCode> {
    for (path, contents) in [(csv, to_csv(report)), (json, to_json(report))] {
        if let Some(p) = path {
            if let Err(e) = write_file(p, &contents) {
                eprintln!("cannot write {p}: {e}");
                return Err(ExitCode::FAILURE);
            }
            if quiet {
                eprintln!("wrote {p}");
            } else {
                println!("wrote {p}");
            }
        }
    }
    Ok(())
}

/// Builds the campaign spec the `sweep` and `fleet` commands share. The
/// spec — including its name — must be identical between them: fleet
/// reports are pinned byte-identical to single-process sweep reports.
fn build_sweep_spec(workload: &str, cat: &str, opts: &SweepArgs) -> Result<SweepSpec, String> {
    let c = parse_category_or_explain(cat)?;
    let mut spec = SweepSpec::new(format!("sweep-{workload}-{cat}"))
        .category(c)
        .seeds(opts.seeds.clone())
        .sim(campaign_sim(opts.tiles));
    spec = add_workload(spec, workload)?;
    Ok(if opts.lineup {
        spec.archs(ArchSpec::table7_lineup())
    } else {
        // Default family follows the category's home axis.
        let family = opts.family.unwrap_or(match c {
            DnnCategory::A => ArchFamily::SparseA {
                max_fanin: opts.fanin,
            },
            DnnCategory::AB => ArchFamily::SparseAB {
                max_fanin: opts.fanin,
            },
            _ => ArchFamily::SparseB {
                max_fanin: opts.fanin,
            },
        });
        spec.arch(ArchSpec::dense()).family(family)
    })
}

/// Prints a diagnostic and returns the usage exit code (2) — for
/// errors where the full usage wall would bury the actual problem.
fn explain(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(2)
}

/// Flags that define campaign *axes* — meaningless together with a
/// scenario file, which defines the axes itself.
const AXIS_FLAGS: &[&str] = &["--family", "--lineup", "--fanin", "--seeds", "--tiles"];

/// Loads a scenario file for `sweep`/`fleet --scenario`, rejecting
/// axis flags in `rest` (runtime flags like `--workers` stay valid).
fn load_scenario(path: &str, rest: &[String]) -> Result<Scenario, ExitCode> {
    for f in rest {
        if AXIS_FLAGS.contains(&f.as_str()) {
            return Err(explain(&format!(
                "{f} conflicts with --scenario: the scenario file defines the campaign axes"
            )));
        }
    }
    Scenario::load(path).map_err(|e| explain(&format!("scenario {path}: {e}")))
}

fn cmd_sweep(workload: &str, cat: &str, rest: &[String]) -> ExitCode {
    // `sweep --scenario <file> [runtime options]`: the campaign comes
    // from a scenario file instead of tokens.
    if workload == "--scenario" {
        let scen = match load_scenario(cat, rest) {
            Ok(s) => s,
            Err(code) => return code,
        };
        let opts = match parse_sweep_args(rest, "sweep") {
            Ok(o) => o,
            Err(e) => return explain(&e),
        };
        return run_sweep_campaign(&scen.to_spec(), &opts);
    }
    let opts = match parse_sweep_args(rest, "sweep") {
        Ok(o) => o,
        Err(e) => return explain(&e),
    };
    let spec = match build_sweep_spec(workload, cat, &opts) {
        Ok(s) => s,
        Err(e) => return explain(&e),
    };
    run_sweep_campaign(&spec, &opts)
}

fn run_sweep_campaign(spec: &SweepSpec, opts: &SweepArgs) -> ExitCode {
    let cache = match open_cache(&opts.cache_dir) {
        Ok(c) => c,
        Err(code) => return code,
    };
    println!(
        "campaign `{}`: {} cells on {} workers...",
        spec.name,
        spec.cell_count(),
        opts.workers
    );
    let report = match run_campaign(spec, &cache, opts.workers) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Persist the machine-readable reports before any further stdout:
    // a consumer piping through `head` must still get its files.
    if finish_reports(&report, &opts.csv, &opts.json, false).is_err() {
        return ExitCode::FAILURE;
    }

    let s = summarize(&report);
    println!(
        "{} cells in {} ms  (cache: {} hits / {} misses, {:.0}% hit rate)",
        s.cells,
        report.elapsed_ms,
        report.cache.hits,
        report.cache.misses,
        report.cache.hit_rate() * 100.0
    );
    println!(
        "geomean speedup {:.2}x over {} architectures",
        s.geomean_speedup, s.archs
    );
    if let Some((arch, wl, speedup)) = &s.best {
        println!("best cell: {arch} on {wl} at {speedup:.2}x");
    }
    println!();
    println!("top architectures by effective TOPS/W:");
    let mut rollup = per_arch(&report, None);
    rollup.sort_by(|a, b| b.tops_per_w.total_cmp(&a.tops_per_w));
    println!(
        "{:<24} {:>8} {:>10} {:>10}",
        "arch", "speedup", "TOPS/W", "TOPS/mm2"
    );
    for a in rollup.iter().take(10) {
        println!(
            "{:<24} {:>7.2}x {:>10.2} {:>10.2}",
            a.arch, a.speedup, a.tops_per_w, a.tops_per_mm2
        );
    }
    ExitCode::SUCCESS
}

fn cmd_pareto(workload: &str, family_tok: &str, rest: &[String]) -> ExitCode {
    let opts = match parse_sweep_args(rest, "sweep") {
        Ok(o) => o,
        Err(e) => return explain(&e),
    };
    // `pareto` takes its family positionally; silently ignoring a
    // conflicting --family/--lineup would Pareto-reduce the wrong
    // design set.
    if opts.lineup {
        return explain("pareto sweeps a design family; --lineup is not applicable");
    }
    if opts.family.is_some() {
        return explain("pareto takes its family positionally; drop --family");
    }
    let family = match parse_family_or_explain(family_tok, opts.fanin) {
        Ok(f) => f,
        Err(e) => return explain(&e),
    };
    let sparse_cat = match family {
        ArchFamily::SparseA { .. } => DnnCategory::A,
        ArchFamily::SparseB { .. } => DnnCategory::B,
        ArchFamily::SparseAB { .. } => DnnCategory::AB,
    };
    let mut spec = SweepSpec::new(format!("pareto-{workload}-{family_tok}"))
        .categories([sparse_cat, DnnCategory::Dense])
        .seeds(opts.seeds.clone())
        .sim(campaign_sim(opts.tiles))
        .family(family);
    spec = match add_workload(spec, workload) {
        Ok(s) => s,
        Err(e) => return explain(&e),
    };

    let cache = match open_cache(&opts.cache_dir) {
        Ok(c) => c,
        Err(code) => return code,
    };
    println!(
        "campaign `{}`: {} cells on {} workers...",
        spec.name,
        spec.cell_count(),
        opts.workers
    );
    let report = match run_campaign(&spec, &cache, opts.workers) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if finish_reports(&report, &opts.csv, &opts.json, false).is_err() {
        return ExitCode::FAILURE;
    }
    println!(
        "{} cells in {} ms  (cache: {} hits / {} misses)",
        report.cells.len(),
        report.elapsed_ms,
        report.cache.hits,
        report.cache.misses
    );
    println!();
    println!(
        "Pareto front (TOPS/W on {} vs TOPS/W on {}):",
        sparse_cat,
        DnnCategory::Dense
    );
    let front = pareto_designs(&report, &spec.archs, sparse_cat, DnnCategory::Dense);
    println!("{:<24} {:>12} {:>12}", "arch", "sparse", "dense");
    for p in &front {
        println!(
            "{:<24} {:>12.2} {:>12.2}",
            p.spec.name, p.sparse_metric, p.dense_metric
        );
    }
    ExitCode::SUCCESS
}

/// Fleet-specific flags, split off before the shared sweep options.
/// Tunables are `Option`s so a scenario file's `[fleet]` section can
/// provide defaults without overriding explicit flags.
struct FleetCliArgs {
    dir: String,
    events: Option<String>,
    resume: bool,
    heartbeat: Option<usize>,
    /// Remaining (sweep) options, for [`parse_sweep_args`].
    sweep_rest: Vec<String>,
}

impl FleetCliArgs {
    /// The heartbeat cadence: an explicit flag wins; a scenario's
    /// `[fleet]` section fills the gap; the built-in default covers the
    /// rest.
    fn heartbeat(&self, scen: Option<&griffin::sweep::FleetSettings>) -> usize {
        self.heartbeat
            .or(scen.and_then(|s| s.heartbeat_every))
            .unwrap_or(32)
    }
}

/// Splits fleet flags from an argument list, leaving sweep options in
/// `sweep_rest`. A flag fleet does not know is forwarded with its value
/// (every sweep flag takes one except the boolean `--lineup`), so
/// [`parse_sweep_args`] names any unknown flag as not a fleet or sweep
/// option. A bad or missing fleet flag value is an error naming the
/// flag and the value.
fn split_fleet_args(args: &[String]) -> Result<FleetCliArgs, String> {
    let mut out = FleetCliArgs {
        dir: ".griffin-fleet".into(),
        events: None,
        resume: false,
        heartbeat: None,
        sweep_rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let count = |v: String| {
            v.parse::<usize>()
                .map_err(|_| format!("{flag} must be a cell count (0 = off), got `{v}`"))
        };
        match flag.as_str() {
            "--dir" => out.dir = val()?,
            "--events" => out.events = Some(val()?),
            "--resume" => out.resume = true,
            "--heartbeat" => out.heartbeat = Some(count(val()?)?),
            other => {
                out.sweep_rest.push(other.to_string());
                if other != "--lineup" {
                    out.sweep_rest.extend(it.next().cloned());
                }
            }
        }
    }
    Ok(out)
}

/// Opens the fleet event sink: a JSONL file in the state dir by
/// default, an explicit path, or stdout (`-`). Returns the sink and
/// whether human chatter must be suppressed (events own stdout).
fn open_event_sink(
    dir: &std::path::Path,
    events: &Option<String>,
    resume: bool,
) -> Result<(JsonlSink<Box<dyn std::io::Write + Send>>, bool), ExitCode> {
    if events.as_deref() == Some("-") {
        return Ok((JsonlSink::new(Box::new(std::io::stdout())), true));
    }
    let path = events
        .as_ref()
        .map_or_else(|| default_events_path(dir), PathBuf::from);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create event stream directory: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    // A fresh campaign starts a fresh stream; a resume appends to it.
    let mut o = std::fs::OpenOptions::new();
    if resume {
        o.append(true).create(true);
    } else {
        o.write(true).create(true).truncate(true);
    }
    match o.open(&path) {
        Ok(f) => Ok((JsonlSink::new(Box::new(f)), false)),
        Err(e) => {
            eprintln!("cannot open event stream {}: {e}", path.display());
            Err(ExitCode::FAILURE)
        }
    }
}

/// The abort flag shared between the SIGINT handler and the fleet
/// coordinator. A handler can only touch async-signal-safe state, so
/// it is a process-global atomic the coordinator polls.
static SIGINT_ABORT: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_sigint(_sig: i32) {
    if let Some(flag) = SIGINT_ABORT.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

/// Installs a SIGINT handler that raises the fleet abort flag: ^C stops
/// the campaign before its next (family, layer) work item and fails it
/// with a terminal `campaign_failed` — cache intact, so `--resume`
/// picks up where the interrupt landed. Returns the flag for
/// [`FleetConfig::abort`].
fn install_sigint_abort() -> Arc<AtomicBool> {
    let flag = SIGINT_ABORT
        .get_or_init(|| Arc::new(AtomicBool::new(false)))
        .clone();
    #[cfg(unix)]
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
    flag
}

/// Flags of `fleet watch <dir>`.
struct WatchCliArgs {
    /// `--json`: one-shot summary of the stream as it stands, then exit.
    json_once: bool,
    /// `--json-follow`: stream a summary line whenever the model moves.
    json_follow: bool,
    /// `--no-tty`: line-mode output instead of full-frame redraws.
    no_tty: bool,
    /// `--interval MS`: poll cadence (default 250).
    interval_ms: u64,
    /// `--timeout MS`: give up following after this long (0 = never).
    timeout_ms: u64,
    /// `--events PATH`: explicit stream path (default DIR/events.jsonl).
    events: Option<String>,
}

fn split_watch_args(args: &[String]) -> Option<WatchCliArgs> {
    let mut out = WatchCliArgs {
        json_once: false,
        json_follow: false,
        no_tty: false,
        interval_ms: 250,
        timeout_ms: 0,
        events: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => out.json_once = true,
            "--json-follow" => out.json_follow = true,
            "--no-tty" => out.no_tty = true,
            "--interval" => out.interval_ms = it.next()?.parse().ok().filter(|&n| n > 0)?,
            "--timeout" => out.timeout_ms = it.next()?.parse().ok()?,
            "--events" => out.events = Some(it.next()?.clone()),
            _ => return None,
        }
    }
    (!(out.json_once && out.json_follow)).then_some(out)
}

/// Resolves the stream path for the observability commands: explicit
/// `--events`, else `<dir>/events.jsonl`.
fn watch_events_path(dir: &str, events: &Option<String>) -> PathBuf {
    events.as_ref().map_or_else(
        || default_events_path(PathBuf::from(dir).as_path()),
        PathBuf::from,
    )
}

/// Draws one frame of `model` in the mode `opts` picks, and once the
/// model is terminal, says how the campaign ended and returns the exit
/// code. Shared by the file and the daemon watchers, so both end on
/// the campaign's own terminal event.
fn watch_frame(
    opts: &WatchCliArgs,
    model: &griffin::watch::CampaignModel,
    rates: &griffin::watch::RateTracker,
) -> Option<ExitCode> {
    use griffin::watch::{dashboard, fmt_duration_ms, status_line, CampaignState};
    if opts.json_follow {
        println!("{}", model.summary().write());
    } else if opts.no_tty {
        println!("{}", status_line(model, rates));
    } else {
        // Full-frame redraw: clear, home, draw.
        print!("\x1b[2J\x1b[H{}", dashboard(model, rates, 80, true));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    match &model.state {
        CampaignState::Done { cells, elapsed_ms } => {
            if !opts.json_follow {
                eprintln!(
                    "campaign done: {cells} cells in {}",
                    fmt_duration_ms(*elapsed_ms)
                );
            }
            Some(ExitCode::SUCCESS)
        }
        CampaignState::Failed { msg } => {
            eprintln!("campaign failed: {msg}");
            Some(ExitCode::FAILURE)
        }
        CampaignState::Waiting | CampaignState::Running => None,
    }
}

/// `fleet watch --connect <addr>` — the same dashboard, fed from a
/// resident daemon's subscription stream instead of an events.jsonl
/// file. The daemon replays the campaign from its first event, so a
/// late watcher still folds the complete stream into the same
/// [`CampaignModel`](griffin::watch::CampaignModel).
fn cmd_fleet_watch_connected(addr: &str, rest: &[String]) -> ExitCode {
    use griffin::serve::{Client, Message, ServeAddr};
    use griffin::watch::{CampaignModel, RateTracker, DEFAULT_RATE_TAU_MS};

    // `--campaign` is connect-only; everything else is the shared
    // watch flag set.
    let mut campaign: Option<String> = None;
    let mut flags: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--campaign" {
            match it.next() {
                Some(v) => campaign = Some(v.clone()),
                None => return usage(),
            }
        } else {
            flags.push(flag.clone());
        }
    }
    let Some(opts) = split_watch_args(&flags) else {
        return usage();
    };
    if opts.json_once {
        return explain("--json snapshots an events file; with --connect use --json-follow");
    }
    if opts.events.is_some() {
        return explain("--events names a file; with --connect the daemon is the stream");
    }
    if opts.timeout_ms > 0 {
        return explain("--timeout polls a file; with --connect the daemon pushes events");
    }

    let mut client = match Client::connect(&ServeAddr::parse(addr), "fleet-watch") {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to serve daemon at {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = client.subscribe(campaign.as_deref()) {
        eprintln!("cannot subscribe: {e}");
        return ExitCode::FAILURE;
    }

    let mut model = CampaignModel::new();
    let mut rates = RateTracker::new(DEFAULT_RATE_TAU_MS);
    let started = std::time::Instant::now();
    // Events arrive one per cell; redraw at most once per interval.
    let mut next_render_ms = 0u64;
    loop {
        let item = match client.next_stream_item() {
            Ok(m) => m,
            Err(e) => {
                eprintln!("stream from {addr} broke: {e}");
                return ExitCode::FAILURE;
            }
        };
        let now_ms = started.elapsed().as_millis() as u64;
        match item {
            Message::Event { event, .. } => {
                model.apply_line(&event.write());
                rates.observe(now_ms, model.done());
                // The terminal frame waits for the stream's end.
                if !model.state.is_terminal() && now_ms >= next_render_ms {
                    next_render_ms = now_ms + opts.interval_ms;
                    watch_frame(&opts, &model, &rates);
                }
            }
            Message::StreamEnd { .. } => {
                // The daemon publishes the terminal event before the
                // stream's end, so the model already holds how the
                // campaign ended.
                return watch_frame(&opts, &model, &rates).unwrap_or_else(|| {
                    eprintln!("stream from {addr} ended without a terminal event");
                    ExitCode::FAILURE
                });
            }
            _ => unreachable!("next_stream_item filters other variants"),
        }
    }
}

/// `fleet watch <dir>` — attach to a campaign's event stream (live or
/// finished) read-only and render it until the terminal event.
fn cmd_fleet_watch(dir: &str, rest: &[String]) -> ExitCode {
    if dir == "--connect" {
        let Some((addr, rest)) = rest.split_first() else {
            return usage();
        };
        return cmd_fleet_watch_connected(addr, rest);
    }
    let Some(opts) = split_watch_args(rest) else {
        return usage();
    };
    let path = watch_events_path(dir, &opts.events);

    if opts.json_once {
        // One-shot: fold whatever the stream holds right now. Running
        // campaigns summarize too — exit code stays 0; scripts branch
        // on the summary's `state` field.
        let model = match griffin::watch::CampaignModel::from_file(&path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("cannot read event stream {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        println!("{}", model.summary().write());
        return ExitCode::SUCCESS;
    }

    // Follow mode: poll until the stream reaches its terminal event.
    let mut w = griffin::watch::Watcher::new(&path);
    let started = std::time::Instant::now();
    let tick = std::time::Duration::from_millis(opts.interval_ms);
    loop {
        let now_ms = started.elapsed().as_millis() as u64;
        let report = match w.poll(now_ms) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot read event stream {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        // Only a fold can change the state, so a still stream needs
        // neither a frame nor a terminal check.
        if report.folded > 0 || report.restarted {
            if let Some(code) = watch_frame(&opts, w.model(), w.rates()) {
                return code;
            }
        }
        if opts.timeout_ms > 0 && started.elapsed().as_millis() as u64 >= opts.timeout_ms {
            eprintln!(
                "watch timed out after {} without a terminal event",
                griffin::watch::fmt_duration_ms(opts.timeout_ms)
            );
            return ExitCode::FAILURE;
        }
        std::thread::sleep(tick);
    }
}

/// `fleet report <dir> --html PATH` — fold the (finished or in-flight)
/// stream into the self-contained HTML report page.
fn cmd_fleet_report(dir: &str, rest: &[String]) -> ExitCode {
    let mut html_out: Option<String> = None;
    let mut events: Option<String> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--html", Some(v)) => html_out = Some(v.clone()),
            ("--events", Some(v)) => events = Some(v.clone()),
            _ => return usage(),
        }
    }
    let path = watch_events_path(dir, &events);
    let model = match griffin::watch::CampaignModel::from_file(&path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot read event stream {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let out = html_out.map_or_else(|| PathBuf::from(dir).join("report.html"), PathBuf::from);
    let page = griffin::watch::report_html(&model);
    if let Err(e) = write_file(out.display().to_string(), &page) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}

fn cmd_fleet(workload: &str, cat: &str, rest: &[String]) -> ExitCode {
    // Observability subcommands ride under `fleet`: they consume the
    // run directory a campaign wrote (or is writing) instead of tokens.
    if workload == "watch" {
        return cmd_fleet_watch(cat, rest);
    }
    if workload == "report" {
        return cmd_fleet_report(cat, rest);
    }
    let fleet_args = match split_fleet_args(rest) {
        Ok(a) => a,
        Err(e) => return explain(&e),
    };
    let opts = match parse_sweep_args(&fleet_args.sweep_rest, "fleet or sweep") {
        Ok(o) => o,
        Err(e) => return explain(&e),
    };
    if opts.cache_dir.is_some() {
        return explain("fleet manages its own cache under --dir; drop --cache");
    }
    // `fleet --scenario <file>`: the campaign (and fleet defaults) come
    // from a scenario file; its provenance is recorded in the journal
    // header and the campaign_start event.
    let mut scenario_loaded = None;
    let spec = if workload == "--scenario" {
        let scen = match load_scenario(cat, &fleet_args.sweep_rest) {
            Ok(s) => s,
            Err(code) => return code,
        };
        let spec = scen.to_spec();
        scenario_loaded = Some(scen);
        spec
    } else {
        match build_sweep_spec(workload, cat, &opts) {
            Ok(s) => s,
            Err(e) => return explain(&e),
        }
    };
    let provenance: Option<ScenarioProvenance> =
        scenario_loaded.as_ref().map(|s| s.provenance(cat));
    // A typoed chaos experiment must fail loudly, not run clean.
    let fault_plan = match fault::plan_from_env() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", fault::FAULT_ENV);
            return ExitCode::FAILURE;
        }
    };
    let dir = PathBuf::from(&fleet_args.dir);
    let mut cfg = FleetConfig::new(dir.clone(), opts.workers);
    cfg.resume = fleet_args.resume;
    cfg.heartbeat_every =
        fleet_args.heartbeat(scenario_loaded.as_ref().and_then(|s| s.fleet.as_ref()));
    cfg.fault = fault_plan;
    cfg.scenario = provenance;
    // ^C fails the campaign cleanly before the next work item instead
    // of tearing the stream mid-line; the cache survives for --resume.
    cfg.abort = Some(install_sigint_abort());
    let (mut sink, quiet) = match open_event_sink(&dir, &fleet_args.events, fleet_args.resume) {
        Ok(s) => s,
        Err(code) => return code,
    };
    if !quiet {
        println!(
            "fleet `{}`: {} cells{}...",
            spec.name,
            spec.cell_count(),
            if cfg.resume { ", resuming" } else { "" }
        );
    }

    let report = match run_fleet(&spec, &cfg, &mut sink) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if finish_reports(&report, &opts.csv, &opts.json, quiet).is_err() {
        return ExitCode::FAILURE;
    }
    if !quiet {
        let s = summarize(&report);
        println!("{} cells in {} ms", s.cells, report.elapsed_ms);
        println!(
            "geomean speedup {:.2}x over {} architectures",
            s.geomean_speedup, s.archs
        );
        if fleet_args.events.is_none() {
            println!("event stream: {}", default_events_path(&dir).display());
        }
        println!(
            "journal: {} (resume with --resume)",
            dir.join("journal.jsonl").display()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_list() -> ExitCode {
    println!("architectures:");
    for spec in ArchSpec::table7_lineup() {
        println!(
            "  {:<12} a={} b={} shuffle={}",
            spec.name, spec.a, spec.b, spec.shuffle
        );
    }
    println!();
    println!("benchmarks (Table IV):");
    for b in Benchmark::ALL {
        let i = b.info();
        println!(
            "  {:<14} B-sparsity {:>3.0}%  A-sparsity {:>3.0}%  dense {:.1e} cycles",
            i.name,
            i.b_sparsity * 100.0,
            i.a_sparsity * 100.0,
            i.paper_dense_cycles
        );
    }
    ExitCode::SUCCESS
}

fn report(acc: &Accelerator, wl: &griffin::core::accelerator::Workload) {
    let r = acc.run(wl);
    println!(
        "{:<12} {:>8.2}x speedup  {:>7.1} mW  {:>6.2} TOPS/W  {:>6.2} TOPS/mm2",
        r.arch,
        r.speedup,
        r.cost.power_mw(),
        r.effective_tops_per_w,
        r.effective_tops_per_mm2
    );
}

fn cmd_run(bench: &str, cat: &str, arch: &str) -> ExitCode {
    let parsed = parse_benchmark_or_explain(bench).and_then(|b| {
        parse_category_or_explain(cat).and_then(|c| parse_arch_or_explain(arch).map(|a| (b, c, a)))
    });
    let (b, c, a) = match parsed {
        Ok(t) => t,
        Err(e) => return explain(&e),
    };
    let wl = build_workload(b, c, 42);
    println!("{} on {} ({c:?} masks, seed 42):", a.name, wl.name);
    report(&Accelerator::with_defaults(a), &wl);
    ExitCode::SUCCESS
}

fn cmd_compare(bench: &str, cat: &str) -> ExitCode {
    let parsed = parse_benchmark_or_explain(bench)
        .and_then(|b| parse_category_or_explain(cat).map(|c| (b, c)));
    let (b, c) = match parsed {
        Ok(t) => t,
        Err(e) => return explain(&e),
    };
    let wl = build_workload(b, c, 42);
    println!("{} / {c:?}:", wl.name);
    for spec in ArchSpec::table7_lineup() {
        report(&Accelerator::with_defaults(spec), &wl);
    }
    ExitCode::SUCCESS
}

fn cmd_layer(args: &[String]) -> ExitCode {
    let parsed: Option<(usize, usize, usize, f64, f64)> = (|| {
        Some((
            args.first()?.parse().ok()?,
            args.get(1)?.parse().ok()?,
            args.get(2)?.parse().ok()?,
            args.get(3)?.parse().ok()?,
            args.get(4)?.parse().ok()?,
        ))
    })();
    let Some((m, k, n, da, db)) = parsed else {
        return usage();
    };
    let Ok(layer) = synthetic_layer(m, k, n, db, da, 42) else {
        eprintln!("invalid layer dimensions");
        return ExitCode::from(2);
    };
    println!("layer {m}x{k}x{n}, A density {da}, B density {db}:");
    for spec in [
        ArchSpec::dense(),
        ArchSpec::sparse_b_star(),
        ArchSpec::sparse_a_star(),
        ArchSpec::sparse_ab_star(),
        ArchSpec::griffin(),
    ] {
        let acc = Accelerator::with_defaults(spec);
        match acc.run_layer(&layer) {
            Ok(r) => println!(
                "{:<12} {:>10.0} cycles  {:>6.2}x",
                acc.spec().name,
                r.cycles,
                r.speedup()
            ),
            Err(e) => {
                eprintln!("{}: {e}", acc.spec().name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_bench(rest: &[String]) -> ExitCode {
    let Some(opts) = bench::parse_bench_args(rest) else {
        return usage();
    };
    match bench::run_bench(&opts) {
        Ok(json) => {
            if let Err(e) = write_file(&opts.out, &json.write()) {
                eprintln!("cannot write {}: {e}", opts.out);
                return ExitCode::FAILURE;
            }
            println!("wrote {}", opts.out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses a byte budget with optional `k`/`m`/`g` suffix (powers of
/// 1024).
fn parse_bytes(s: &str) -> Option<u64> {
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d,
            match lower.as_bytes()[lower.len() - 1] {
                b'k' => 1024u64,
                b'm' => 1024 * 1024,
                _ => 1024 * 1024 * 1024,
            },
        ),
        None => (lower.as_str(), 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

fn cmd_cache(rest: &[String]) -> ExitCode {
    match rest {
        [action, dir] if action == "stats" => match disk_stats(dir) {
            Ok(info) => {
                println!("cache {dir}:");
                println!("  {:>10} entries", info.entries);
                println!(
                    "  {:>10} bytes ({:.2} MiB)",
                    info.total_bytes,
                    info.total_bytes as f64 / (1024.0 * 1024.0)
                );
                if info.stale_tmp > 0 {
                    println!(
                        "  {:>10} stale temp files (run `cache prune` to clean)",
                        info.stale_tmp
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot read cache directory {dir}: {e}");
                ExitCode::FAILURE
            }
        },
        [action, dir, flag, value] if action == "prune" && flag == "--max-bytes" => {
            let Some(max) = parse_bytes(value) else {
                eprintln!("invalid --max-bytes value: {value}");
                return usage();
            };
            match prune_dir(dir, max) {
                Ok(r) => {
                    println!(
                        "pruned {dir}: evicted {} entries ({} bytes), removed {} stale temp files",
                        r.evicted, r.freed_bytes, r.tmp_removed
                    );
                    println!(
                        "kept {} entries, {} bytes (budget {max})",
                        r.kept.entries, r.kept.total_bytes
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot prune cache directory {dir}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

/// Scenario files under a path: the file itself, or every `*.toml`
/// directly inside a directory (sorted).
fn scenario_files(path: &str) -> Result<Vec<PathBuf>, String> {
    let p = PathBuf::from(path);
    if p.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&p)
            .map_err(|e| format!("cannot read {path}: {e}"))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no *.toml scenario files under {path}"));
        }
        return Ok(files);
    }
    if !p.exists() {
        return Err(format!("no such file or directory: {path}"));
    }
    Ok(vec![p])
}

/// One-line axis summary of a scenario (`2w x 1c x 43a x 2s`).
fn scenario_shape(s: &Scenario) -> String {
    format!(
        "{}w x {}c x {}a x {}s = {} cells",
        s.workloads.len(),
        s.categories.len(),
        s.expanded_archs().len(),
        s.seeds.len(),
        s.cell_count()
    )
}

fn cmd_scenario(rest: &[String]) -> ExitCode {
    match rest {
        [action] if action == "list" => cmd_scenario_list("scenarios"),
        [action, dir] if action == "list" => cmd_scenario_list(dir),
        [action, file] if action == "show" => cmd_scenario_show(file),
        [action, paths @ ..] if action == "validate" && !paths.is_empty() => {
            cmd_scenario_validate(paths)
        }
        _ => usage(),
    }
}

fn cmd_scenario_list(dir: &str) -> ExitCode {
    let files = match scenario_files(dir) {
        Ok(f) => f,
        Err(e) => return explain(&e),
    };
    println!("{:<28} {:<20} {:<28} fleet", "file", "name", "grid");
    for path in files {
        let file = path.file_name().map_or_else(
            || path.display().to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
        match Scenario::load(&path) {
            Ok(s) => {
                let fleet = s.fleet.as_ref().map_or("-".to_string(), |f| {
                    f.heartbeat_every
                        .map_or("defaults".to_string(), |n| format!("heartbeat {n}"))
                });
                println!(
                    "{file:<28} {:<20} {:<28} {fleet}",
                    s.name,
                    scenario_shape(&s)
                );
            }
            Err(e) => println!("{file:<28} INVALID: {e}"),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_scenario_show(file: &str) -> ExitCode {
    let s = match Scenario::load(file) {
        Ok(s) => s,
        Err(e) => return explain(&format!("scenario {file}: {e}")),
    };
    let spec = s.to_spec();
    println!("scenario `{}` ({file})", s.name);
    println!("  grid:         {}", scenario_shape(&s));
    println!("  scenario fp:  {}", s.fingerprint());
    println!(
        "  spec fp:      {}",
        griffin::fleet::spec_fingerprint(&spec)
    );
    println!(
        "  workloads:    {}",
        spec.workloads
            .iter()
            .map(griffin::sweep::WorkloadSpec::name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  categories:   {}",
        s.categories
            .iter()
            .map(|c| scenario::category_token(*c))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("  architectures ({}):", spec.archs.len());
    for a in spec.archs.iter().take(12) {
        println!("    {}", a.canonical());
    }
    if spec.archs.len() > 12 {
        println!("    ... and {} more", spec.archs.len() - 12);
    }
    if let Some(n) = s.fleet.as_ref().and_then(|f| f.heartbeat_every) {
        println!("  fleet:        heartbeat every {n} cells");
    }
    println!();
    println!("canonical form:");
    print!("{}", s.canonical());
    ExitCode::SUCCESS
}

fn cmd_scenario_validate(paths: &[String]) -> ExitCode {
    let mut files = Vec::new();
    for p in paths {
        match scenario_files(p) {
            Ok(f) => files.extend(f),
            Err(e) => return explain(&e),
        }
    }
    let mut failed = 0usize;
    for path in &files {
        match Scenario::load(path) {
            Ok(s) => println!(
                "ok   {} `{}` fp {} ({})",
                path.display(),
                s.name,
                s.fingerprint(),
                scenario_shape(&s)
            ),
            Err(e) => {
                failed += 1;
                eprintln!("FAIL {}: {e}", path.display());
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} of {} scenario file(s) invalid", files.len());
        return ExitCode::FAILURE;
    }
    println!("{} scenario file(s) valid", files.len());
    ExitCode::SUCCESS
}

/// `serve` — the resident campaign daemon and its client verbs.
fn cmd_serve(rest: &[String]) -> ExitCode {
    match rest.first().map(String::as_str) {
        Some("submit") => cmd_serve_submit(&rest[1..]),
        Some("status") => cmd_serve_status(&rest[1..]),
        Some("cancel") => cmd_serve_cancel(&rest[1..]),
        Some(dir) if !dir.starts_with("--") => cmd_serve_daemon(dir, &rest[1..]),
        _ => usage(),
    }
}

/// `serve <dir>` — run the daemon: bind `<dir>/serve.sock` (and an
/// optional TCP listener), accept wire clients until SIGINT, then
/// drain gracefully — queued campaigns get terminal events, the
/// running one aborts onto its journal, every subscriber sees exactly
/// one `stream_end`.
fn cmd_serve_daemon(dir: &str, rest: &[String]) -> ExitCode {
    use griffin::serve::{serve_connections, Daemon, Listener, ServeAddr, ServeConfig};

    let mut cfg = ServeConfig::new(dir);
    let mut tcp: Option<String> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return explain(&format!("{flag} requires a value"));
        };
        let parsed = val.parse::<usize>().ok().filter(|&n| n > 0);
        match flag.as_str() {
            "--tcp" => tcp = Some(val.clone()),
            "--workers" => match parsed {
                Some(n) => cfg.workers = n,
                None => return explain("--workers must be a positive integer"),
            },
            "--queue" => match parsed {
                Some(n) => cfg.queue_cap = n,
                None => return explain("--queue must be a positive integer"),
            },
            "--retain" => match val.parse::<usize>() {
                Ok(n) => cfg.retain = n,
                Err(_) => return explain("--retain must be an integer"),
            },
            other => return explain(&format!("unknown serve option `{other}`")),
        }
    }

    let sock = PathBuf::from(dir).join("serve.sock");
    let mut listeners = Vec::new();
    match Listener::bind(&ServeAddr::Unix(sock.clone())) {
        Ok(l) => listeners.push(l),
        Err(e) => {
            eprintln!("cannot bind unix:{}: {e}", sock.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(hostport) = &tcp {
        match Listener::bind(&ServeAddr::Tcp(hostport.clone())) {
            Ok(l) => listeners.push(l),
            Err(e) => {
                eprintln!("cannot bind tcp:{hostport}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let daemon = match Daemon::start(cfg) {
        Ok(d) => Arc::new(d),
        Err(e) => {
            eprintln!("cannot start serve daemon in {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} listening on unix:{}{} — dir {dir}, {} workers, queue {}, retain {}",
        daemon.config().server,
        sock.display(),
        tcp.as_ref()
            .map_or(String::new(), |t| format!(" and tcp:{t}")),
        daemon.config().workers,
        daemon.config().queue_cap,
        daemon.config().retain,
    );

    // SIGINT raises the flag; the accept loop sees it, but a handler
    // mid-stream blocks on its tee until a terminal event arrives —
    // so the drain (which produces those terminals) must run
    // concurrently, not after serve_connections returns.
    let stop = install_sigint_abort();
    let drainer = {
        let daemon = Arc::clone(&daemon);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            eprintln!("draining: refusing submissions, finishing in-flight campaigns");
            daemon.drain();
        })
    };
    let served = serve_connections(&daemon, listeners, &stop);
    stop.store(true, Ordering::SeqCst); // also unblocks the drainer on error paths
    let _ = drainer.join();
    eprintln!("final status: {}", daemon.status().write());
    match Arc::try_unwrap(daemon) {
        Ok(d) => d.shutdown(),
        Err(d) => {
            d.drain();
            d.wait_idle();
        }
    }
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Splits `--connect ADDR` off a client-verb argument list.
fn split_connect(rest: &[String]) -> Result<(String, Vec<String>), String> {
    let mut addr = None;
    let mut out = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--connect" {
            match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return Err("--connect requires an address".into()),
            }
        } else {
            out.push(flag.clone());
        }
    }
    addr.map(|a| (a, out))
        .ok_or_else(|| "serve client commands need --connect <ADDR>".into())
}

fn serve_client(addr: &str, name: &str) -> Result<griffin::serve::Client, String> {
    griffin::serve::Client::connect(&griffin::serve::ServeAddr::parse(addr), name)
        .map_err(|e| format!("cannot connect to serve daemon at {addr}: {e}"))
}

/// `serve submit <file> --connect ADDR` — ship the scenario text to the
/// daemon, follow its event stream, and optionally fetch the finished
/// reports (byte-identical to a standalone `sweep` of the scenario).
fn cmd_serve_submit(rest: &[String]) -> ExitCode {
    use griffin::serve::{ReportKind, ScenarioSource, StreamOutcome};
    use griffin::watch::{status_line, CampaignModel, RateTracker, DEFAULT_RATE_TAU_MS};

    let (addr, rest) = match split_connect(rest) {
        Ok(split) => split,
        Err(e) => return explain(&e),
    };
    let mut file = None;
    let mut csv = None;
    let mut json = None;
    let mut quiet = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--csv" => match it.next() {
                Some(v) => csv = Some(v.clone()),
                None => return explain("--csv requires a path"),
            },
            "--json" => match it.next() {
                Some(v) => json = Some(v.clone()),
                None => return explain("--json requires a path"),
            },
            "--quiet" => quiet = true,
            other if !other.starts_with("--") && file.is_none() => file = Some(other.to_string()),
            other => return explain(&format!("unknown serve submit option `{other}`")),
        }
    }
    let Some(file) = file else {
        return explain("serve submit needs a scenario file");
    };
    // Ship by content, not path: the daemon need not share a
    // filesystem with the client (TCP), and validation errors name
    // the daemon-side parse position either way.
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => return explain(&format!("cannot read scenario {file}: {e}")),
    };
    let mut client = match serve_client(&addr, "serve-submit") {
        Ok(c) => c,
        Err(e) => return explain(&e),
    };
    let mut model = CampaignModel::new();
    let mut rates = RateTracker::new(DEFAULT_RATE_TAU_MS);
    let started = std::time::Instant::now();
    let mut next_print_ms = 0u64;
    let streamed = client.submit_and_stream(&ScenarioSource::Inline(text), None, |_, event| {
        model.apply_line(&event.write());
        let now_ms = started.elapsed().as_millis() as u64;
        rates.observe(now_ms, model.done());
        if !quiet && now_ms >= next_print_ms {
            next_print_ms = now_ms + 250;
            eprintln!("{}", status_line(&model, &rates));
        }
    });
    let (accepted, outcome) = match streamed {
        Ok(r) => r,
        Err(e) => return explain(&format!("serve submit failed: {e}")),
    };
    if !quiet {
        eprintln!(
            "campaign {} ({} cells{}) on {}",
            accepted.campaign,
            accepted.cells,
            if accepted.deduped {
                ", deduplicated onto an in-flight run"
            } else {
                ""
            },
            client.server,
        );
    }
    if outcome == StreamOutcome::Failed {
        eprintln!("campaign {} failed", accepted.campaign);
        return ExitCode::FAILURE;
    }
    for (path, kind) in [(csv, ReportKind::Csv), (json, ReportKind::Json)] {
        let Some(path) = path else { continue };
        let body = match client.report(&accepted.campaign, kind) {
            Ok(b) => b,
            Err(e) => return explain(&format!("cannot fetch report: {e}")),
        };
        if let Err(e) = write_file(&path, &body) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("wrote {path}");
        }
    }
    println!(
        "campaign {} done: {} cells in {}",
        accepted.campaign,
        model.done(),
        griffin::watch::fmt_duration_ms(started.elapsed().as_millis() as u64)
    );
    ExitCode::SUCCESS
}

/// `serve status --connect ADDR` — print the daemon's
/// `griffin-serve-status/1` object.
fn cmd_serve_status(rest: &[String]) -> ExitCode {
    let (addr, extra) = match split_connect(rest) {
        Ok(split) => split,
        Err(e) => return explain(&e),
    };
    if !extra.is_empty() {
        return explain(&format!("unknown serve status option `{}`", extra[0]));
    }
    let mut client = match serve_client(&addr, "serve-status") {
        Ok(c) => c,
        Err(e) => return explain(&e),
    };
    match client.status() {
        Ok(status) => {
            println!("{}", status.write());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("status failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `serve cancel <id> --connect ADDR`.
fn cmd_serve_cancel(rest: &[String]) -> ExitCode {
    let (addr, extra) = match split_connect(rest) {
        Ok(split) => split,
        Err(e) => return explain(&e),
    };
    let [campaign] = extra.as_slice() else {
        return explain("serve cancel needs exactly one campaign id");
    };
    let mut client = match serve_client(&addr, "serve-cancel") {
        Ok(c) => c,
        Err(e) => return explain(&e),
    };
    match client.cancel(campaign) {
        Ok(true) => {
            println!("cancelled {campaign}");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("{campaign} already finished; nothing to cancel");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cancel failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") if args.len() == 4 => cmd_run(&args[1], &args[2], &args[3]),
        Some("compare") if args.len() == 3 => cmd_compare(&args[1], &args[2]),
        Some("layer") => cmd_layer(&args[1..]),
        Some("sweep") if args.len() >= 3 => cmd_sweep(&args[1], &args[2], &args[3..]),
        Some("pareto") if args.len() >= 3 => cmd_pareto(&args[1], &args[2], &args[3..]),
        Some("fleet") if args.len() >= 3 => cmd_fleet(&args[1], &args[2], &args[3..]),
        Some("scenario") => cmd_scenario(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        _ => usage(),
    }
}
