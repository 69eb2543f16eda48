//! The `serve.*` probe of the traced run: a resident `Daemon` (1 worker,
//! 2 in-process shards) behind `serve_connections` on a unix socket,
//! driven by one `Client` over one persistent connection.
//!
//! Set-up: start the daemon, connect, and submit [`SETUP_SCENARIOS`]
//! small synthetic scenarios to fill its warm cache. Then a closed loop
//! of [`PAIRS`] pairs: a new cold scenario, then a warm resubmission of a
//! set-up scenario (round-robin), each submit → `stream_end` → CSV
//! report fetch, recorded as `serve.*` spans.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use griffin_serve::{
    serve_connections, Client, Daemon, Listener, ReportKind, ScenarioSource, ServeAddr,
    ServeConfig, StreamOutcome,
};
use griffin_sweep::json::Json;

use crate::trace::Tracer;
use crate::util::{median, ms, splitmix64};
use crate::{scen, Ctx, Metrics};

/// Scenarios submitted in set-up; the warm half of the loop cycles
/// through them.
const SETUP_SCENARIOS: usize = 4;
/// Cold/warm pairs in the traced loop.
const PAIRS: usize = 25;

/// A running daemon with one connected client. Dropping it disconnects,
/// stops the accept loop and shuts the daemon down, joining every
/// thread it started.
struct Session {
    client: Option<Client>,
    daemon: Option<Arc<Daemon>>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<std::io::Result<()>>>,
}

impl Session {
    fn start(dir: &Path) -> Result<Session, String> {
        let mut cfg = ServeConfig::new(dir);
        cfg.workers = 1;
        cfg.shards = 2;
        let addr = ServeAddr::Unix(dir.join("serve.sock"));
        let listener = Listener::bind(&addr).map_err(|e| format!("bind: {e}"))?;
        let daemon = Arc::new(Daemon::start(cfg).map_err(|e| format!("daemon: {e}"))?);
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let (daemon, stop) = (Arc::clone(&daemon), Arc::clone(&stop));
            std::thread::spawn(move || serve_connections(&daemon, vec![listener], &stop))
        };
        let mut session = Session {
            client: None,
            daemon: Some(daemon),
            stop,
            accept: Some(accept),
        };
        session.client =
            Some(Client::connect(&addr, "perfbench").map_err(|e| format!("connect: {e}"))?);
        Ok(session)
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("connected in start")
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.client = None;
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(d) = self.daemon.take() {
            match Arc::try_unwrap(d) {
                Ok(d) => d.shutdown(),
                Err(d) => {
                    d.drain();
                    d.wait_idle();
                }
            }
        }
    }
}

/// One submission's phases and stream accounting.
struct Sub {
    accept: Duration,
    stream: Duration,
    report: Duration,
    cells: usize,
    events: usize,
    starts: usize,
    done: usize,
    cached: usize,
    csv: String,
}

/// Submit → `stream_end` → CSV report, recording `serve.*` spans.
fn submit(tracer: &Tracer, client: &mut Client, text: &str, req: u64) -> Result<Sub, String> {
    let t0 = Instant::now();
    let acc = client
        .submit(&ScenarioSource::Inline(text.to_string()), None)
        .map_err(|e| format!("submit: {e}"))?;
    let t1 = Instant::now();
    let (mut events, mut starts, mut done, mut cached) = (0, 0, 0, 0);
    let outcome = client
        .consume_stream(|_, ev| {
            events += 1;
            match ev.get("ev").and_then(|e| e.as_str().ok()) {
                Some("cell_start") => starts += 1,
                Some("cell_done") => {
                    done += 1;
                    if matches!(ev.get("cached"), Some(Json::Bool(true))) {
                        cached += 1;
                    }
                }
                _ => {}
            }
        })
        .map_err(|e| format!("stream: {e}"))?;
    let t2 = Instant::now();
    if outcome != StreamOutcome::Done {
        return Err(format!("campaign {} ended {outcome:?}", acc.campaign));
    }
    let csv = client
        .report(&acc.campaign, ReportKind::Csv)
        .map_err(|e| format!("report: {e}"))?;
    let t3 = Instant::now();
    let p = tracer.record("serve.submit", None, req, t0, t3);
    tracer.record("serve.accept", p, req, t0, t1);
    tracer.record("serve.stream", p, req, t1, t2);
    tracer.record("serve.report", p, req, t2, t3);
    Ok(Sub {
        accept: t1 - t0,
        stream: t2 - t1,
        report: t3 - t2,
        cells: acc.cells,
        events,
        starts,
        done,
        cached,
        csv,
    })
}

/// Mask seed `k` of stream `stream` for workload seed `n`.
fn mask_seed(n: u64, stream: u64, k: u64) -> u64 {
    splitmix64(splitmix64(n ^ (stream << 56)) ^ k) >> 24
}

/// Starts the daemon, connects, and submits the set-up scenarios.
/// Returns the session and each set-up scenario with its CSV.
fn set_up(ctx: &Ctx) -> Option<(Session, Vec<(String, String)>)> {
    let mut s = match Session::start(&ctx.state.join("serve")) {
        Ok(s) => s,
        Err(e) => {
            ctx.ops.error(format!("daemon start: {e}"));
            return None;
        }
    };
    let mut warm = Vec::new();
    for k in 0..SETUP_SCENARIOS as u64 {
        let text = scen::synthetic(mask_seed(ctx.seed, 1, k));
        match submit(&ctx.tracer, s.client(), &text, k) {
            Ok(sub)
                if ctx
                    .ops
                    .check(sub.done == sub.cells, || "set-up lost cells".into()) =>
            {
                warm.push((text, sub.csv));
            }
            Ok(_) => return None,
            Err(e) => {
                ctx.ops.error(format!("set-up submission: {e}"));
                return None;
            }
        }
    }
    Some((s, warm))
}

/// The closed loop's two halves.
#[derive(Default)]
struct Loop {
    cold: Vec<Sub>,
    warm: Vec<Sub>,
}

impl Loop {
    /// Runs [`PAIRS`] cold/warm pairs, checking every submission.
    fn drive(&mut self, ctx: &Ctx, s: &mut Session, warm_set: &[(String, String)]) {
        for i in 0..PAIRS {
            let text = scen::synthetic(mask_seed(ctx.seed, 0, i as u64));
            match submit(&ctx.tracer, s.client(), &text, 2 * i as u64) {
                Ok(sub) => {
                    let ok = sub.done == sub.cells && sub.starts > 0;
                    ctx.ops.check(ok, || "cold submission incomplete".into());
                    self.cold.push(sub);
                }
                Err(e) => ctx.ops.error(format!("cold submission: {e}")),
            }
            let (text, csv) = &warm_set[i % warm_set.len()];
            match submit(&ctx.tracer, s.client(), text, 2 * i as u64 + 1) {
                Ok(sub) => {
                    let ok = sub.starts == 0
                        && sub.cached == sub.cells
                        && sub.done == sub.cells
                        && sub.csv == *csv;
                    ctx.ops.check(ok, || {
                        "warm resubmission simulated or changed its report".into()
                    });
                    self.warm.push(sub);
                }
                Err(e) => ctx.ops.error(format!("warm submission: {e}")),
            }
        }
    }

    /// The `serve.*` per-layer metrics.
    fn put_layers(&self, m: &Metrics) {
        for (side, subs) in [("cold", &self.cold), ("warm", &self.warm)] {
            let p = |f: fn(&Sub) -> Duration| {
                median(&subs.iter().map(|s| ms(f(s))).collect::<Vec<_>>())
            };
            m.put(format!("serve.{side}.accept_ms"), p(|s| s.accept), "ms");
            m.put(format!("serve.{side}.stream_ms"), p(|s| s.stream), "ms");
            m.put(format!("serve.{side}.report_ms"), p(|s| s.report), "ms");
        }
        let all: Vec<&Sub> = self.cold.iter().chain(&self.warm).collect();
        let events: usize = all.iter().map(|s| s.events).sum();
        m.put(
            "serve.events_per_submit",
            events as f64 / all.len() as f64,
            "count",
        );
    }
}

/// Runs the serve probe and fills the `serve.*` metrics.
pub fn layer_probe(ctx: &Ctx) {
    let Some((mut s, warm_set)) = set_up(ctx) else {
        return;
    };
    let mut lp = Loop::default();
    lp.drive(ctx, &mut s, &warm_set);
    lp.put_layers(&ctx.metrics);
}
