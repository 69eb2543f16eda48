//! Outside-in end-to-end benchmark of the Griffin reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-b|lineup-4cat> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every layer is measured from outside, by timing calls into the
//! crates' public functions. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). The
//! process exits non-zero when any check failed. See
//! `perfbench/README.md` for the workloads, metric definitions and the
//! layer → end-to-end prediction table.

mod campaign;
mod probes;
mod scen;
mod serve_probe;
mod trace;
mod util;

use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 5 campaign: BERT, DNN.B, baseline + 54 `Sparse.B` designs.
    SweepB,
    /// Table VII lineup on ResNet-50 over all four categories.
    Lineup4Cat,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "sweep-b" => Some(Workload::SweepB),
            "lineup-4cat" => Some(Workload::Lineup4Cat),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SweepB => "sweep-b",
            Workload::Lineup4Cat => "lineup-4cat",
        }
    }
}

/// Everything a workload run needs.
pub struct Ctx {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Minimum measured time (`--seconds`).
    pub seconds: f64,
    /// Thread budget: `min(2, available cores)`.
    pub threads: usize,
    /// Scratch state directory (relative to the checkout), removed at exit.
    pub state: PathBuf,
    /// Span recorder (records only in the traced run).
    pub tracer: Tracer,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Metrics in output order.
    pub metrics: Metrics,
}

/// Correctness accounting: every checked operation counts as attempted;
/// a mismatch, error or refusal counts as failed.
#[derive(Debug, Default)]
pub struct Ops {
    attempted: Cell<u64>,
    failed: Cell<u64>,
}

impl Ops {
    /// Counts one operation; a failure is reported on stderr with `what`.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted.set(self.attempted.get() + 1);
        if !ok {
            self.failed.set(self.failed.get() + 1);
            eprintln!("perfbench: FAILED: {}", what());
        }
        ok
    }

    /// Counts an operation that returned an error.
    pub fn error(&self, what: impl std::fmt::Display) {
        self.check(false, || what.to_string());
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(RefCell<Vec<(String, f64, &'static str)>>);

impl Metrics {
    /// Sets (or replaces) a metric.
    pub fn put(&self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let mut all = self.0.borrow_mut();
        match all.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => all.push((name, value, unit)),
        }
    }

    /// Removes every metric whose value is NaN or infinite (JSON has no
    /// such numbers) and returns their names.
    fn take_unmeasurable(&self) -> Vec<String> {
        let mut all = self.0.borrow_mut();
        let bad = all
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect();
        all.retain(|(_, v, _)| v.is_finite());
        bad
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .borrow()
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload `{val}`"))?);
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed `{val}`"))?,
            "--seconds" => {
                seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds `{val}`"))?;
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{val}` (0 or 1)")),
                };
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (sweep-b, lineup-4cat)")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = PathBuf::from(".bench_out");
    let state = out.join(format!("state-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&state) {
        eprintln!("perfbench: cannot create {}: {e}", state.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads: cores.min(2),
        state: state.clone(),
        tracer: Tracer::new(args.trace),
        ops: Ops::default(),
        metrics: Metrics::default(),
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={} cores={} state_fs={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.threads,
        cores,
        util::fs_type(&state),
    );

    let (t0, steal0) = (std::time::Instant::now(), util::steal_ticks());
    campaign::run(&ctx, args.workload);
    // CPU time taken from this machine by its hypervisor, as a share of
    // the run's core-seconds: on a shared host it is the main source of
    // run-to-run spread.
    let stolen = (util::steal_ticks() - steal0) as f64 / 100.0;
    println!(
        "perfbench: steal {:.1}% of {} core-seconds",
        100.0 * stolen / (t0.elapsed().as_secs_f64() * cores as f64),
        (t0.elapsed().as_secs_f64() * cores as f64).round()
    );

    if ctx.tracer.on() {
        let path =
            out.join("trace")
                .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => println!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        println!("perfbench: self time per layer (ms):");
        let own = ctx.tracer.self_times_ms();
        for name in trace::LAYERS {
            let t = own.get(name).copied().unwrap_or(0.0);
            println!("  {name:<16} {t:>12.3}");
            ctx.metrics.put(format!("self.{name}_ms"), t, "ms");
        }
    }
    // Remove the state and commit the removal before exiting, so the
    // next run's journal fsyncs do not pay for this run's deletions.
    let _ = std::fs::remove_dir_all(&state);
    util::sync_dir(&out);

    // A metric that could not be measured is left out and counts as a
    // failed operation, rather than read as a (perfect) zero.
    for name in ctx.metrics.take_unmeasurable() {
        ctx.ops
            .error(format!("metric {name} could not be measured"));
    }
    let (attempted, failed) = (ctx.ops.attempted.get(), ctx.ops.failed.get());
    let correct = failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        ctx.metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
