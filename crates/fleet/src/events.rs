//! The append-only JSONL campaign event stream.
//!
//! Every line is one self-contained JSON object with an `"ev"`
//! discriminant, so long campaigns can be tailed into dashboards while
//! they run and partially-written streams stay parseable up to the last
//! complete line.
//!
//! Schema (`griffin-fleet-events/4`):
//!
//! | `ev`              | fields                                                      |
//! |-------------------|-------------------------------------------------------------|
//! | `campaign_start`  | `format`, `campaign`, `spec_fp`, `cells`, `resumed`, `scenario_file`?, `scenario_fp`? |
//! | `cell_start`      | `cell`, `fp`                                                |
//! | `cell_done`       | `cell`, `fp`, `cached`, `metrics{…}`                        |
//! | `heartbeat`       | `done`, `total`, `elapsed_ms`, `cached`                     |
//! | `campaign_done`   | `cells`, `elapsed_ms`                                       |
//! | `campaign_failed` | `msg`                                                       |
//!
//! Lines of the legacy kinds in [`LEGACY_EVENTS`] — `shard_start`,
//! `shard_done`, `shard_failed`, `cells_requeued`, `shard_retried`,
//! `host_lost`, `host_retired` and `merge_done`, the shard lifecycle,
//! retries, hosts and cache merges of v1–v3 streams — still parse, as
//! [`Event::Legacy`], but only their `ev` name is read: every other
//! field is ignored. No coordinator emits them.
//!
//! Cell indices are grid positions (`usize` as JSON numbers);
//! fingerprints are 32-digit hex strings; `metrics` is the same object
//! the result cache stores ([`CellMetrics::to_json`]). Cells complete in
//! whatever order the executor's workers finish them, not grid order.
//!
//! **Versioning.** `campaign_start` carries the schema tag in `format`:
//! [`EVENTS_FORMAT`] today, one of [`LEGACY_FORMATS`] in older streams,
//! none at all in v1 ones; any other tag is refused. Consumers must
//! tolerate unknown *fields* inside known events (they are ignored),
//! and a stream always ends with exactly one terminal event —
//! `campaign_done` on success, `campaign_failed` on any abort. The
//! optional scenario provenance pair (`scenario_file` + `scenario_fp`)
//! on `campaign_start` rides on that unknown-field tolerance: campaigns
//! launched from a scenario file carry it, token-built campaigns and
//! older streams don't. The `heartbeat` enrichment (`elapsed_ms` +
//! `cached`, letting a live watcher track throughput and the warm/cold
//! split without replaying `cell_done` history) rides on it the same
//! way: streams written before it parse with both fields as 0.
//!
//! v4 retires shards: a campaign is one pass over the grid, so
//! `campaign_start` loses `shards`, `cell_start`, `cell_done` and
//! `heartbeat` lose `shard`, and a heartbeat counts the whole pass
//! (v1–v3 heartbeats counted one shard's run). Older streams still
//! parse: the dropped fields are ignored like any unknown field, and
//! the legacy lines fold into nothing but the event count, so a v1–v3
//! stream folds to the same campaign totals, state and failure message
//! it always did.

use std::io::{self, Write};

use griffin_sweep::cache::CellMetrics;
use griffin_sweep::fingerprint::Fingerprint;
use griffin_sweep::json::Json;
use griffin_sweep::scenario::ScenarioProvenance;

/// Current schema tag, written into every `campaign_start` line.
pub const EVENTS_FORMAT: &str = "griffin-fleet-events/4";

/// Schema tags of older streams (v1–v3), still accepted on
/// `campaign_start`. A v1 stream may also carry no tag at all.
pub const LEGACY_FORMATS: [&str; 3] = [
    "griffin-fleet-events/1",
    "griffin-fleet-events/2",
    "griffin-fleet-events/3",
];

/// The `ev` names of the legacy lines of v1–v3 streams: the shard
/// lifecycle, retries, hosts and cache merges. They parse to
/// [`Event::Legacy`] with every other field ignored; nothing emits
/// them.
pub const LEGACY_EVENTS: [&str; 8] = [
    "shard_start",
    "shard_done",
    "shard_failed",
    "cells_requeued",
    "shard_retried",
    "host_lost",
    "host_retired",
    "merge_done",
];

/// One line of the campaign event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The coordinator accepted a plan and wrote (or, on a resume,
    /// verified) the journal header.
    CampaignStart {
        /// Campaign name from the spec.
        campaign: String,
        /// Stable grid identity ([`crate::journal::spec_fingerprint`]).
        spec_fp: Fingerprint,
        /// Total grid cells.
        cells: usize,
        /// Cells a resume found in the campaign cache at start: served
        /// again silently, with no `cell_start`/`cell_done` (0 on a
        /// fresh run).
        resumed: usize,
        /// Scenario provenance (`scenario_file` + `scenario_fp` on the
        /// wire) when the campaign was launched from a scenario file;
        /// absent for token-built campaigns and pre-scenario streams.
        scenario: Option<ScenarioProvenance>,
    },
    /// A worker thread began simulating a cell (cache misses only).
    CellStart {
        /// Grid index of the cell.
        cell: usize,
        /// Scenario fingerprint.
        fp: Fingerprint,
    },
    /// A cell's metrics became available.
    CellDone {
        /// Grid index of the cell.
        cell: usize,
        /// Scenario fingerprint.
        fp: Fingerprint,
        /// Served from cache / in-campaign dedup rather than simulated.
        cached: bool,
        /// The simulation results.
        metrics: CellMetrics,
    },
    /// Periodic liveness signal (every
    /// [`FleetConfig::heartbeat_every`](crate::coordinator::FleetConfig)
    /// completions). v1–v3 heartbeats counted one shard's run.
    Heartbeat {
        /// Cells finished so far (this run).
        done: usize,
        /// Cells this run set out to finish.
        total: usize,
        /// Wall-clock milliseconds since this run started (additive
        /// field; absent in older streams, parsed as 0).
        elapsed_ms: u64,
        /// Of `done`, the cells served from cache / in-campaign dedup
        /// (additive field; absent in older streams, parsed as 0).
        cached: usize,
    },
    /// The report was assembled.
    CampaignDone {
        /// Total grid cells reported.
        cells: usize,
        /// Wall-clock milliseconds of the whole fleet run.
        elapsed_ms: u64,
    },
    /// The campaign aborted (v2). Terminal — every stream ends with
    /// either this or `campaign_done`, on every exit path.
    CampaignFailed {
        /// Human-readable cause.
        msg: String,
    },
    /// A line of one of the [`LEGACY_EVENTS`] kinds of v1–v3 streams.
    /// Only its name is kept; nothing emits it.
    Legacy {
        /// The line's `ev` name.
        ev: &'static str,
    },
}

/// Event decode error.
#[derive(Debug, Clone, PartialEq)]
pub struct EventError {
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for EventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event error: {}", self.msg)
    }
}

impl std::error::Error for EventError {}

fn fail<T>(msg: impl Into<String>) -> Result<T, EventError> {
    Err(EventError { msg: msg.into() })
}

fn get_usize(v: &Json, key: &str) -> Result<usize, EventError> {
    let n = v
        .req(key)
        .and_then(|x| x.as_f64())
        .map_err(|e| EventError { msg: e.to_string() })?;
    if n < 0.0 || n.fract() != 0.0 {
        return fail(format!("bad count `{key}`"));
    }
    Ok(n as usize)
}

/// Like [`get_usize`] but reading an absent key as 0 — the heartbeat
/// enrichment older streams don't carry.
fn get_usize_or_0(v: &Json, key: &str) -> Result<usize, EventError> {
    match v.get(key) {
        None => Ok(0),
        Some(_) => get_usize(v, key),
    }
}

fn get_str(v: &Json, key: &str) -> Result<String, EventError> {
    Ok(v.req(key)
        .and_then(|x| x.as_str())
        .map_err(|e| EventError { msg: e.to_string() })?
        .to_string())
}

fn get_fp(v: &Json, key: &str) -> Result<Fingerprint, EventError> {
    let s = v
        .req(key)
        .and_then(|x| x.as_str())
        .map_err(|e| EventError { msg: e.to_string() })?;
    Fingerprint::parse(s).map_or_else(|| fail(format!("bad fingerprint `{s}`")), Ok)
}

impl Event {
    /// Serializes to the JSON object of one stream line.
    pub fn to_json(&self) -> Json {
        let num = |n: usize| Json::Num(n as f64);
        match self {
            Event::CampaignStart {
                campaign,
                spec_fp,
                cells,
                resumed,
                scenario,
            } => {
                let mut entries = vec![
                    ("ev".into(), Json::Str("campaign_start".into())),
                    ("format".into(), Json::Str(EVENTS_FORMAT.into())),
                    ("campaign".into(), Json::Str(campaign.clone())),
                    ("spec_fp".into(), Json::Str(spec_fp.to_string())),
                    ("cells".into(), num(*cells)),
                    ("resumed".into(), num(*resumed)),
                ];
                if let Some(s) = scenario {
                    entries.push(("scenario_file".into(), Json::Str(s.file.clone())));
                    entries.push(("scenario_fp".into(), Json::Str(s.fp.to_string())));
                }
                Json::obj(entries)
            }
            Event::CellStart { cell, fp } => Json::obj([
                ("ev".into(), Json::Str("cell_start".into())),
                ("cell".into(), num(*cell)),
                ("fp".into(), Json::Str(fp.to_string())),
            ]),
            Event::CellDone {
                cell,
                fp,
                cached,
                metrics,
            } => Json::obj([
                ("ev".into(), Json::Str("cell_done".into())),
                ("cell".into(), num(*cell)),
                ("fp".into(), Json::Str(fp.to_string())),
                ("cached".into(), Json::Bool(*cached)),
                ("metrics".into(), metrics.to_json()),
            ]),
            Event::Heartbeat {
                done,
                total,
                elapsed_ms,
                cached,
            } => Json::obj([
                ("ev".into(), Json::Str("heartbeat".into())),
                ("done".into(), num(*done)),
                ("total".into(), num(*total)),
                ("elapsed_ms".into(), num(*elapsed_ms as usize)),
                ("cached".into(), num(*cached)),
            ]),
            Event::CampaignDone { cells, elapsed_ms } => Json::obj([
                ("ev".into(), Json::Str("campaign_done".into())),
                ("cells".into(), num(*cells)),
                ("elapsed_ms".into(), num(*elapsed_ms as usize)),
            ]),
            Event::CampaignFailed { msg } => Json::obj([
                ("ev".into(), Json::Str("campaign_failed".into())),
                ("msg".into(), Json::Str(msg.clone())),
            ]),
            Event::Legacy { ev } => Json::obj([("ev".into(), Json::Str((*ev).into()))]),
        }
    }

    /// One stream line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().write()
    }

    /// Parses one stream line.
    ///
    /// # Errors
    ///
    /// [`EventError`] on malformed JSON or an unknown/incomplete event.
    pub fn parse_line(line: &str) -> Result<Event, EventError> {
        let v = Json::parse(line).map_err(|e| EventError { msg: e.to_string() })?;
        let ev = v
            .req("ev")
            .and_then(|x| x.as_str())
            .map_err(|e| EventError { msg: e.to_string() })?;
        match ev {
            "campaign_start" => {
                // `format` is absent in v1 streams; any *known* tag is
                // accepted, an unknown one is a stream we must not
                // silently misread.
                if let Some(tag) = v.get("format") {
                    let tag = tag
                        .as_str()
                        .map_err(|e| EventError { msg: e.to_string() })?;
                    if tag != EVENTS_FORMAT && !LEGACY_FORMATS.contains(&tag) {
                        return fail(format!("unknown event-stream format `{tag}`"));
                    }
                }
                let scenario = match (v.get("scenario_file"), v.get("scenario_fp")) {
                    (None, None) => None,
                    (Some(_), Some(_)) => Some(ScenarioProvenance {
                        file: get_str(&v, "scenario_file")?,
                        fp: get_fp(&v, "scenario_fp")?,
                    }),
                    _ => return fail("scenario_file and scenario_fp must appear together"),
                };
                Ok(Event::CampaignStart {
                    campaign: get_str(&v, "campaign")?,
                    spec_fp: get_fp(&v, "spec_fp")?,
                    cells: get_usize(&v, "cells")?,
                    resumed: get_usize(&v, "resumed")?,
                    scenario,
                })
            }
            "cell_start" => Ok(Event::CellStart {
                cell: get_usize(&v, "cell")?,
                fp: get_fp(&v, "fp")?,
            }),
            "cell_done" => Ok(Event::CellDone {
                cell: get_usize(&v, "cell")?,
                fp: get_fp(&v, "fp")?,
                cached: match v
                    .req("cached")
                    .map_err(|e| EventError { msg: e.to_string() })?
                {
                    Json::Bool(b) => *b,
                    _ => return fail("bad `cached`"),
                },
                metrics: CellMetrics::from_json(
                    v.req("metrics")
                        .map_err(|e| EventError { msg: e.to_string() })?,
                )
                .map_err(|e| EventError { msg: e.to_string() })?,
            }),
            "heartbeat" => Ok(Event::Heartbeat {
                done: get_usize(&v, "done")?,
                total: get_usize(&v, "total")?,
                elapsed_ms: get_usize_or_0(&v, "elapsed_ms")? as u64,
                cached: get_usize_or_0(&v, "cached")?,
            }),
            "campaign_done" => Ok(Event::CampaignDone {
                cells: get_usize(&v, "cells")?,
                elapsed_ms: get_usize(&v, "elapsed_ms")? as u64,
            }),
            "campaign_failed" => Ok(Event::CampaignFailed {
                msg: get_str(&v, "msg")?,
            }),
            other => match LEGACY_EVENTS.iter().find(|&&name| name == other) {
                Some(name) => Ok(Event::Legacy { ev: name }),
                None => fail(format!("unknown event `{other}`")),
            },
        }
    }
}

/// A consumer of the campaign event stream.
pub trait EventSink: Send {
    /// Delivers one event. Errors abort the campaign (a broken stream
    /// means the consumer — a pipe, a dashboard file — is gone).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    fn emit(&mut self, ev: &Event) -> io::Result<()>;
}

/// Writes events as JSON lines, flushing after each line so consumers
/// tailing the stream see completed cells immediately.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    w: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer (a file opened for append, a pipe, stdout).
    pub fn new(w: W) -> Self {
        JsonlSink { w }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&mut self, ev: &Event) -> io::Result<()> {
        crate::jsonl::append_line(&mut self.w, &ev.to_line())
    }
}

/// Discards every event (drivers that only want the final report).
#[derive(Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _: &Event) -> io::Result<()> {
        Ok(())
    }
}

/// Deterministic sample-event construction shared by the schema
/// property tests here and the consumer-side (`griffin-watch`) model
/// property tests — one generator, so every stream consumer is
/// exercised against the exact same variant coverage. Not a public API.
#[doc(hidden)]
pub mod sample {
    use super::{Event, LEGACY_EVENTS};
    use griffin_sweep::cache::CellMetrics;
    use griffin_sweep::fingerprint::Fingerprint;

    /// Deterministic metrics from two draws; `special` selects a
    /// non-finite float injection (JSON numbers cannot express them, so
    /// they stress the lossless float encoding).
    pub fn metrics_from(a: u64, b: u64, special: u64) -> CellMetrics {
        let f = |x: u64| (x % 1_000_000) as f64 / 7.0;
        let mut m = CellMetrics {
            speedup: f(a ^ 1),
            cycles: f(a ^ 2),
            dense_cycles: a,
            power_mw: f(b ^ 3),
            area_mm2: f(b ^ 4),
            tops_per_w: f(a ^ b),
            tops_per_mm2: f(b ^ 5),
        };
        match special % 4 {
            1 => m.tops_per_w = f64::NAN,
            2 => m.tops_per_mm2 = f64::INFINITY,
            3 => m.power_mw = f64::NEG_INFINITY,
            _ => {}
        }
        m
    }

    /// How many variants [`build_event`] draws from.
    pub const VARIANTS: usize = 7;

    /// One event of each schema variant (`variant % VARIANTS`, in the
    /// order of [`Event`]'s variants), fields derived from the draws.
    /// The legacy variant takes its name from `a`. Strings mix in
    /// characters that need JSON escaping; `flag` toggles the optional
    /// fields (scenario provenance, `cached`), so both shapes stay
    /// covered.
    pub fn build_event(variant: usize, a: u64, b: u64, flag: bool, special: u64) -> Event {
        let s = |tag: &str| format!("{tag}-\"{a}\"\n\\{b}");
        let n = |x: u64| (x % 100_000) as usize;
        match variant % VARIANTS {
            0 => Event::CampaignStart {
                campaign: s("camp"),
                spec_fp: Fingerprint(a, b),
                cells: n(a),
                resumed: n(a ^ b),
                // The optional provenance pair exercises both shapes.
                scenario: flag.then(|| griffin_sweep::scenario::ScenarioProvenance {
                    file: s("scenario"),
                    fp: Fingerprint(b ^ 7, a ^ 9),
                }),
            },
            1 => Event::CellStart {
                cell: n(b),
                fp: Fingerprint(b, a),
            },
            2 => Event::CellDone {
                cell: n(b),
                fp: Fingerprint(a, a),
                cached: flag,
                metrics: metrics_from(a, b, special),
            },
            3 => Event::Heartbeat {
                done: n(b),
                total: n(b) + n(a),
                elapsed_ms: a % 1_000_000_000,
                cached: n(a ^ 3),
            },
            4 => Event::CampaignDone {
                cells: n(a),
                elapsed_ms: b % 1_000_000_000,
            },
            5 => Event::CampaignFailed { msg: s("gave up") },
            _ => Event::Legacy {
                ev: LEGACY_EVENTS[(a % LEGACY_EVENTS.len() as u64) as usize],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> CellMetrics {
        CellMetrics {
            speedup: 2.5,
            cycles: 400.0,
            dense_cycles: 1000,
            power_mw: 331.0,
            area_mm2: 0.97,
            tops_per_w: 24.5,
            tops_per_mm2: 8.25,
        }
    }

    #[test]
    fn every_event_roundtrips_through_its_line() {
        let legacy = LEGACY_EVENTS.map(|ev| Event::Legacy { ev });
        let events = [
            Event::CampaignStart {
                campaign: "sweep-synth-b".into(),
                spec_fp: Fingerprint(1, 2),
                cells: 40,
                resumed: 7,
                scenario: None,
            },
            Event::CampaignStart {
                campaign: "sweep-synth-b".into(),
                spec_fp: Fingerprint(1, 2),
                cells: 40,
                resumed: 0,
                scenario: Some(ScenarioProvenance {
                    file: "ci-smoke.toml".into(),
                    fp: Fingerprint(3, 4),
                }),
            },
            Event::CellStart {
                cell: 17,
                fp: Fingerprint(3, 4),
            },
            Event::CellDone {
                cell: 17,
                fp: Fingerprint(3, 4),
                cached: false,
                metrics: metrics(),
            },
            Event::Heartbeat {
                done: 5,
                total: 7,
                elapsed_ms: 210,
                cached: 2,
            },
            Event::CampaignDone {
                cells: 40,
                elapsed_ms: 9999,
            },
            Event::CampaignFailed {
                msg: "fault injected: kill:after=2".into(),
            },
        ];
        for ev in events.into_iter().chain(legacy) {
            let line = ev.to_line();
            assert!(!line.contains('\n'), "one event, one line");
            assert_eq!(Event::parse_line(&line), Ok(ev.clone()), "{line}");
        }
    }

    #[test]
    fn degenerate_metrics_survive_the_stream() {
        let ev = Event::CellDone {
            cell: 1,
            fp: Fingerprint(5, 6),
            cached: true,
            metrics: CellMetrics {
                tops_per_w: f64::NAN,
                tops_per_mm2: f64::INFINITY,
                ..metrics()
            },
        };
        let back = Event::parse_line(&ev.to_line()).unwrap();
        let Event::CellDone { metrics: m, .. } = back else {
            panic!("wrong event");
        };
        assert!(m.tops_per_w.is_nan());
        assert_eq!(m.tops_per_mm2, f64::INFINITY);
    }

    #[test]
    fn garbage_lines_are_rejected() {
        assert!(Event::parse_line("").is_err());
        assert!(Event::parse_line("not json").is_err());
        assert!(Event::parse_line("{}").is_err());
        assert!(Event::parse_line("{\"ev\":\"warp_drive\"}").is_err());
        assert!(Event::parse_line("{\"ev\":\"heartbeat\",\"done\":0}").is_err());
        assert!(Event::parse_line("{\"ev\":\"cell_start\",\"cell\":1,\"fp\":\"xy\"}").is_err());
        assert!(Event::parse_line("{\"ev\":\"campaign_failed\"}").is_err());
        // A legacy line must still be JSON with a string `ev` naming a
        // legacy kind.
        assert!(Event::parse_line("{\"ev\":\"shard_start\"").is_err());
        assert!(Event::parse_line("{\"ev\":[\"shard_start\"]}").is_err());
        assert!(Event::parse_line("{\"ev\":\"shard_starts\"}").is_err());
    }

    #[test]
    fn v1_lines_still_parse_and_unknown_formats_are_refused() {
        // A v1 campaign_start has no `format` field.
        let v1 = "{\"campaign\":\"old\",\"cells\":4,\"ev\":\"campaign_start\",\
                  \"resumed\":0,\"shards\":2,\
                  \"spec_fp\":\"00000000000000010000000000000002\"}";
        let ev = Event::parse_line(v1).unwrap();
        assert!(matches!(ev, Event::CampaignStart { cells: 4, .. }));
        // An explicit v1 tag is fine; an unknown tag is not.
        let tagged = v1.replace(
            "\"campaign\":\"old\"",
            "\"campaign\":\"old\",\"format\":\"griffin-fleet-events/1\"",
        );
        assert!(Event::parse_line(&tagged).is_ok());
        // v2 and v3 tags are also still accepted, and their `shards`
        // count is ignored like any unknown field.
        for old in ["events/2", "events/3"] {
            let ev = Event::parse_line(&tagged.replace("events/1", old)).unwrap();
            assert_eq!(ev, Event::parse_line(v1).unwrap(), "{old}");
        }
        let future = tagged.replace("events/1", "events/99");
        assert!(Event::parse_line(&future).is_err());
        // A pre-enrichment heartbeat has no elapsed_ms/cached: parsed
        // as 0. Its `shard` is ignored.
        let hb = "{\"done\":5,\"ev\":\"heartbeat\",\"shard\":1,\"total\":9}";
        assert_eq!(
            Event::parse_line(hb),
            Ok(Event::Heartbeat {
                done: 5,
                total: 9,
                elapsed_ms: 0,
                cached: 0,
            })
        );
        // Legacy lines of every version parse by their name alone:
        // missing, extra or mistyped fields are never read.
        for line in [
            "{\"attempt\":1,\"ev\":\"shard_retried\",\"shard\":4}",
            "{\"attempt\":1,\"backoff_ms\":250,\"ev\":\"shard_retried\",\"host\":\"h0\",\"shard\":4}",
            "{\"ev\":\"shard_retried\",\"shard\":\"four\"}",
        ] {
            assert_eq!(
                Event::parse_line(line),
                Ok(Event::Legacy {
                    ev: "shard_retried"
                }),
                "{line}"
            );
        }
        let merge =
            "{\"conflicts\":0,\"ev\":\"merge_done\",\"identical\":1,\"merged\":2,\"sources\":3}";
        let ev = Event::parse_line(merge).unwrap();
        assert_eq!(ev, Event::Legacy { ev: "merge_done" });
        assert_eq!(ev.to_line(), "{\"ev\":\"merge_done\"}");
    }

    #[test]
    fn jsonl_sink_writes_one_flushed_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&Event::Heartbeat {
            done: 2,
            total: 3,
            elapsed_ms: 0,
            cached: 0,
        })
        .unwrap();
        sink.emit(&Event::CampaignDone {
            cells: 3,
            elapsed_ms: 1,
        })
        .unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(text.ends_with('\n'));
        for l in lines {
            Event::parse_line(l).unwrap();
        }
    }
}
