//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer of the program (the program itself is not
//! instrumented). Each span has a name (its layer), start, end, parent
//! span and request id; spans stay in memory and are written out as
//! JSONL when the run ends. With tracing off every call is a plain
//! pass-through, so untraced runs pay nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Every span name the benchmark records, one per layer boundary; the
/// traced run prints a self time for each, 0 where a workload has none.
pub const LAYERS: [&str; 14] = [
    "setup",
    "scenario",
    "campaign",
    "executor",
    "sim",
    "report",
    "golden",
    "workloads",
    "cache",
    "fleet",
    "serve.submit",
    "serve.accept",
    "serve.stream",
    "serve.report",
];

/// Identifier of a recorded span (0 is never used).
pub type SpanId = u64;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    id: SpanId,
    parent: Option<SpanId>,
    req: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// Span recorder; disabled recorders record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// use as the parent of nested spans (`None` when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end: Instant::now(),
        });
        out
    }

    /// Records a span whose interval was measured elsewhere (e.g. from
    /// executor progress events); returns its id for use as a parent.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end: end.max(start),
        });
        Some(id)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the part of it its children's intervals cover, summed per
    /// name.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list lock");
        let mut children: BTreeMap<SpanId, Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let mut kids: Vec<(Instant, Instant)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.clamp(s.start, s.end), b.clamp(s.start, s.end)))
                        .collect()
                })
                .unwrap_or_default();
            kids.sort();
            // Union of the (possibly overlapping) child intervals.
            let mut covered = 0.0;
            let mut cur: Option<(Instant, Instant)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += (cb - ca).as_secs_f64();
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += (cb - ca).as_secs_f64();
            }
            let own = ((s.end - s.start).as_secs_f64() - covered).max(0.0);
            *out.entry(s.name).or_default() += own * 1e3;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id,
                s.req,
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_overlapping_children() {
        let t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        t.span("root", None, 0, |root| {
            // Children covering [10, 40) of the root, overlapping.
            t.record("kid", root, 0, at(10), at(30));
            t.record("kid", root, 0, at(20), at(40));
        });
        let st = t.self_times_ms();
        assert!((st["kid"] - 40.0).abs() < 1e-6);
        // The root's own duration is ~0 here (the records lie in the
        // future), so its clipped self time cannot go negative.
        assert!(st["root"] >= 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, |p| p), None);
        assert_eq!(t.record("x", None, 0, Instant::now(), Instant::now()), None);
        assert!(t.self_times_ms().is_empty());
    }
}
