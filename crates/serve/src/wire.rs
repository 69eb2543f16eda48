//! The `griffin-serve-wire/1` message set.
//!
//! One self-contained JSON object per line, exactly like the fleet
//! event stream it multiplexes — the same [`crate::jsonl`
//! framing](griffin_fleet::jsonl) on the writer side, the same
//! torn-tail tolerance on the reader side. Every line carries the
//! `format` tag (version negotiation is per-line: an unknown tag is
//! refused with a typed error, never misread) and a `"type"`
//! discriminant:
//!
//! | `type`       | direction | fields                                              |
//! |--------------|-----------|-----------------------------------------------------|
//! | `hello`      | client →  | `client`                                            |
//! | `hello_ok`   | → client  | `server`, `workers`                                 |
//! | `submit`     | client →  | `scenario` *or* `path`, `name`?                     |
//! | `accepted`   | → client  | `campaign`, `scenario_fp`, `cells`, `deduped`, `queue_depth` |
//! | `subscribe`  | client →  | `campaign`? (absent = the active campaign)          |
//! | `event`      | → client  | `campaign`, `event{…}` (one fleet event object)     |
//! | `stream_end` | → client  | `campaign`, `outcome` (`done`/`failed`)             |
//! | `cancel`     | client →  | `campaign`                                          |
//! | `cancel_ok`  | → client  | `campaign`, `cancelled`                             |
//! | `status`     | client →  | —                                                   |
//! | `status_ok`  | → client  | `status{…}` (a `griffin-serve-status/1` object)     |
//! | `report`     | client →  | `campaign`, `kind` (`csv`/`json`)                   |
//! | `report_ok`  | → client  | `campaign`, `kind`, `body`                          |
//! | `error`      | → client  | `msg`                                               |
//!
//! Unknown *fields* inside known messages are ignored (consumers of a
//! future `griffin-serve-wire/1.x` line keep working); an unknown
//! `type` or `format` is a typed [`WireError`]. A `submit`/`subscribe`
//! puts the connection into streaming mode: `accepted`, then one
//! `event` per fleet event (ending with exactly one terminal
//! `campaign_done`/`campaign_failed`), then one `stream_end`, after
//! which the connection is back in request mode.

use griffin_sweep::fingerprint::Fingerprint;
use griffin_sweep::json::Json;

/// Wire format tag, present on every line in both directions.
pub const WIRE_FORMAT: &str = "griffin-serve-wire/1";

/// How a `submit` carries its scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioSource {
    /// The scenario file's text, inline (`scenario` field).
    Inline(String),
    /// A path the daemon resolves and reads (`path` field).
    Path(String),
}

/// Terminal outcome of a streamed campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOutcome {
    /// The campaign completed (`campaign_done` was streamed).
    Done,
    /// The campaign failed, was cancelled, or the daemon drained
    /// (`campaign_failed` was streamed).
    Failed,
}

impl StreamOutcome {
    fn token(self) -> &'static str {
        match self {
            StreamOutcome::Done => "done",
            StreamOutcome::Failed => "failed",
        }
    }
}

/// Report encoding a client can fetch after a campaign finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// The CSV report (`griffin-cli sweep --csv` bytes).
    Csv,
    /// The JSON report (`griffin-cli sweep --json` bytes).
    Json,
}

impl ReportKind {
    fn token(self) -> &'static str {
        match self {
            ReportKind::Csv => "csv",
            ReportKind::Json => "json",
        }
    }
}

/// One wire line, either direction (see the module table).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client's opening handshake.
    Hello {
        /// Client identity (free-form; keys per-client counters).
        client: String,
    },
    /// Daemon's handshake acknowledgment.
    HelloOk {
        /// Server identity string.
        server: String,
        /// The daemon's worker budget (admission control).
        workers: usize,
    },
    /// Scenario submission.
    Submit {
        /// Inline text or daemon-side path.
        source: ScenarioSource,
        /// Display name recorded as scenario provenance (defaults to
        /// the path's base name, or `inline`).
        name: Option<String>,
    },
    /// The submission was queued (or deduplicated onto a live twin).
    Accepted {
        /// Campaign id (subscribe/cancel/report handle).
        campaign: String,
        /// [`Scenario::fingerprint`](griffin_sweep::scenario::Scenario::fingerprint)
        /// of the canonical scenario — the dedup key.
        scenario_fp: Fingerprint,
        /// Grid cells the campaign will run.
        cells: usize,
        /// `true` when this submission attached to an already
        /// queued/running campaign of the same fingerprint instead of
        /// creating a new execution.
        deduped: bool,
        /// Campaigns queued ahead (0 = runs next / already running).
        queue_depth: usize,
    },
    /// Attach to a campaign's event stream (replay + live tail).
    Subscribe {
        /// Campaign id; `None` picks the running (else newest) one.
        campaign: Option<String>,
    },
    /// One fleet event of a subscribed campaign.
    Event {
        /// Campaign id the event belongs to.
        campaign: String,
        /// The event object, exactly as `events.jsonl` records it.
        event: Json,
    },
    /// End of a subscription stream (follows the terminal event).
    StreamEnd {
        /// Campaign id the stream belonged to.
        campaign: String,
        /// How the campaign ended.
        outcome: StreamOutcome,
    },
    /// Cancel a queued or running campaign.
    Cancel {
        /// Campaign id to cancel.
        campaign: String,
    },
    /// Cancellation verdict.
    CancelOk {
        /// Campaign id the cancel addressed.
        campaign: String,
        /// `false` when the campaign had already finished.
        cancelled: bool,
    },
    /// Request the daemon's aggregate counters.
    Status,
    /// The daemon's counters (a `griffin-serve-status/1` object).
    StatusOk {
        /// The status object (see [`crate::daemon::STATUS_FORMAT`]).
        status: Json,
    },
    /// Fetch a finished campaign's report.
    Report {
        /// Campaign id.
        campaign: String,
        /// Encoding to fetch.
        kind: ReportKind,
    },
    /// A finished campaign's report body.
    ReportOk {
        /// Campaign id.
        campaign: String,
        /// Encoding of `body`.
        kind: ReportKind,
        /// The report bytes — identical to what a standalone
        /// `griffin-cli sweep` of the same scenario writes.
        body: String,
    },
    /// Request-level failure (the connection stays usable).
    Error {
        /// What went wrong.
        msg: String,
    },
}

/// A malformed, unknown-format or unknown-type wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the line.
    pub msg: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad wire line: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

fn fail<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError { msg: msg.into() })
}

fn get_str(v: &Json, key: &str) -> Result<String, WireError> {
    v.req(key)
        .and_then(|x| x.as_str())
        .map(str::to_string)
        .map_err(|e| WireError { msg: e.to_string() })
}

fn get_opt_str(v: &Json, key: &str) -> Result<Option<String>, WireError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_str()
            .map(|s| Some(s.to_string()))
            .map_err(|e| WireError { msg: e.to_string() }),
    }
}

fn get_usize(v: &Json, key: &str) -> Result<usize, WireError> {
    let n = v
        .req(key)
        .and_then(|x| x.as_f64())
        .map_err(|e| WireError { msg: e.to_string() })?;
    if n < 0.0 || n.fract() != 0.0 {
        return fail(format!("bad `{key}`: {n}"));
    }
    Ok(n as usize)
}

fn get_bool(v: &Json, key: &str) -> Result<bool, WireError> {
    match v.req(key).map_err(|e| WireError { msg: e.to_string() })? {
        Json::Bool(b) => Ok(*b),
        _ => fail(format!("bad `{key}`: expected a bool")),
    }
}

fn get_fp(v: &Json, key: &str) -> Result<Fingerprint, WireError> {
    let s = get_str(v, key)?;
    Fingerprint::parse(&s).map_or_else(|| fail(format!("bad fingerprint `{s}`")), Ok)
}

impl Message {
    /// Serializes to the JSON object of one wire line.
    pub fn to_json(&self) -> Json {
        let base = |ty: &str| {
            vec![
                ("format".into(), Json::Str(WIRE_FORMAT.into())),
                ("type".into(), Json::Str(ty.into())),
            ]
        };
        let num = |n: usize| Json::Num(n as f64);
        match self {
            Message::Hello { client } => {
                let mut e = base("hello");
                e.push(("client".into(), Json::Str(client.clone())));
                Json::obj(e)
            }
            Message::HelloOk { server, workers } => {
                let mut e = base("hello_ok");
                e.push(("server".into(), Json::Str(server.clone())));
                e.push(("workers".into(), num(*workers)));
                Json::obj(e)
            }
            Message::Submit { source, name } => {
                let mut e = base("submit");
                match source {
                    ScenarioSource::Inline(text) => {
                        e.push(("scenario".into(), Json::Str(text.clone())));
                    }
                    ScenarioSource::Path(p) => e.push(("path".into(), Json::Str(p.clone()))),
                }
                if let Some(n) = name {
                    e.push(("name".into(), Json::Str(n.clone())));
                }
                Json::obj(e)
            }
            Message::Accepted {
                campaign,
                scenario_fp,
                cells,
                deduped,
                queue_depth,
            } => {
                let mut e = base("accepted");
                e.push(("campaign".into(), Json::Str(campaign.clone())));
                e.push(("scenario_fp".into(), Json::Str(scenario_fp.to_string())));
                e.push(("cells".into(), num(*cells)));
                e.push(("deduped".into(), Json::Bool(*deduped)));
                e.push(("queue_depth".into(), num(*queue_depth)));
                Json::obj(e)
            }
            Message::Subscribe { campaign } => {
                let mut e = base("subscribe");
                if let Some(c) = campaign {
                    e.push(("campaign".into(), Json::Str(c.clone())));
                }
                Json::obj(e)
            }
            Message::Event { campaign, event } => {
                let mut e = base("event");
                e.push(("campaign".into(), Json::Str(campaign.clone())));
                e.push(("event".into(), event.clone()));
                Json::obj(e)
            }
            Message::StreamEnd { campaign, outcome } => {
                let mut e = base("stream_end");
                e.push(("campaign".into(), Json::Str(campaign.clone())));
                e.push(("outcome".into(), Json::Str(outcome.token().into())));
                Json::obj(e)
            }
            Message::Cancel { campaign } => {
                let mut e = base("cancel");
                e.push(("campaign".into(), Json::Str(campaign.clone())));
                Json::obj(e)
            }
            Message::CancelOk {
                campaign,
                cancelled,
            } => {
                let mut e = base("cancel_ok");
                e.push(("campaign".into(), Json::Str(campaign.clone())));
                e.push(("cancelled".into(), Json::Bool(*cancelled)));
                Json::obj(e)
            }
            Message::Status => Json::obj(base("status")),
            Message::StatusOk { status } => {
                let mut e = base("status_ok");
                e.push(("status".into(), status.clone()));
                Json::obj(e)
            }
            Message::Report { campaign, kind } => {
                let mut e = base("report");
                e.push(("campaign".into(), Json::Str(campaign.clone())));
                e.push(("kind".into(), Json::Str(kind.token().into())));
                Json::obj(e)
            }
            Message::ReportOk {
                campaign,
                kind,
                body,
            } => {
                let mut e = base("report_ok");
                e.push(("campaign".into(), Json::Str(campaign.clone())));
                e.push(("kind".into(), Json::Str(kind.token().into())));
                e.push(("body".into(), Json::Str(body.clone())));
                Json::obj(e)
            }
            Message::Error { msg } => {
                let mut e = base("error");
                e.push(("msg".into(), Json::Str(msg.clone())));
                Json::obj(e)
            }
        }
    }

    /// One wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().write()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed JSON, a missing/unknown `format` tag
    /// (version negotiation: never misread a future wire), an unknown
    /// `type`, or incomplete fields.
    pub fn parse_line(line: &str) -> Result<Message, WireError> {
        let v = Json::parse(line).map_err(|e| WireError { msg: e.to_string() })?;
        let tag = get_str(&v, "format")?;
        if tag != WIRE_FORMAT {
            return fail(format!("unsupported wire format `{tag}`"));
        }
        let ty = get_str(&v, "type")?;
        match ty.as_str() {
            "hello" => Ok(Message::Hello {
                client: get_str(&v, "client")?,
            }),
            "hello_ok" => Ok(Message::HelloOk {
                server: get_str(&v, "server")?,
                workers: get_usize(&v, "workers")?,
            }),
            "submit" => {
                let source = match (get_opt_str(&v, "scenario")?, get_opt_str(&v, "path")?) {
                    (Some(text), None) => ScenarioSource::Inline(text),
                    (None, Some(p)) => ScenarioSource::Path(p),
                    (Some(_), Some(_)) => return fail("submit carries both `scenario` and `path`"),
                    (None, None) => return fail("submit needs `scenario` or `path`"),
                };
                Ok(Message::Submit {
                    source,
                    name: get_opt_str(&v, "name")?,
                })
            }
            "accepted" => Ok(Message::Accepted {
                campaign: get_str(&v, "campaign")?,
                scenario_fp: get_fp(&v, "scenario_fp")?,
                cells: get_usize(&v, "cells")?,
                deduped: get_bool(&v, "deduped")?,
                queue_depth: get_usize(&v, "queue_depth")?,
            }),
            "subscribe" => Ok(Message::Subscribe {
                campaign: get_opt_str(&v, "campaign")?,
            }),
            "event" => Ok(Message::Event {
                campaign: get_str(&v, "campaign")?,
                event: v
                    .req("event")
                    .map_err(|e| WireError { msg: e.to_string() })?
                    .clone(),
            }),
            "stream_end" => Ok(Message::StreamEnd {
                campaign: get_str(&v, "campaign")?,
                outcome: match get_str(&v, "outcome")?.as_str() {
                    "done" => StreamOutcome::Done,
                    "failed" => StreamOutcome::Failed,
                    other => return fail(format!("unknown outcome `{other}`")),
                },
            }),
            "cancel" => Ok(Message::Cancel {
                campaign: get_str(&v, "campaign")?,
            }),
            "cancel_ok" => Ok(Message::CancelOk {
                campaign: get_str(&v, "campaign")?,
                cancelled: get_bool(&v, "cancelled")?,
            }),
            "status" => Ok(Message::Status),
            "status_ok" => Ok(Message::StatusOk {
                status: v
                    .req("status")
                    .map_err(|e| WireError { msg: e.to_string() })?
                    .clone(),
            }),
            "report" | "report_ok" => {
                let kind = match get_str(&v, "kind")?.as_str() {
                    "csv" => ReportKind::Csv,
                    "json" => ReportKind::Json,
                    other => return fail(format!("unknown report kind `{other}`")),
                };
                let campaign = get_str(&v, "campaign")?;
                if ty == "report" {
                    Ok(Message::Report { campaign, kind })
                } else {
                    Ok(Message::ReportOk {
                        campaign,
                        kind,
                        body: get_str(&v, "body")?,
                    })
                }
            }
            "error" => Ok(Message::Error {
                msg: get_str(&v, "msg")?,
            }),
            other => fail(format!("unknown message type `{other}`")),
        }
    }
}

/// Deterministic sample-message construction shared by the wire
/// property tests — one generator covering every variant, exactly like
/// [`griffin_fleet::events::sample`]. Not a public API.
#[doc(hidden)]
pub mod sample {
    use super::{Message, ReportKind, ScenarioSource, StreamOutcome};
    use griffin_fleet::events::sample::build_event;
    use griffin_sweep::fingerprint::Fingerprint;

    /// One message of each wire variant (`variant % 14`), fields
    /// derived from the draws. Strings mix in characters that need
    /// JSON escaping (quotes, newlines, backslashes); `flag` toggles
    /// every optional field, and the `event` payload reuses the fleet
    /// event generator so the embedded objects cover that whole schema
    /// too.
    pub fn build_message(variant: usize, a: u64, b: u64, flag: bool) -> Message {
        let s = |tag: &str| format!("{tag}-\"{a}\"\n\\{b}");
        let n = |x: u64| (x % 100_000) as usize;
        let kind = if flag {
            ReportKind::Csv
        } else {
            ReportKind::Json
        };
        match variant % 14 {
            0 => Message::Hello { client: s("cli") },
            1 => Message::HelloOk {
                server: s("griffin-serve"),
                workers: n(a) + 1,
            },
            2 => Message::Submit {
                source: if flag {
                    ScenarioSource::Inline(s("[scenario]"))
                } else {
                    ScenarioSource::Path(s("scenarios/x.toml"))
                },
                name: flag.then(|| s("name")),
            },
            3 => Message::Accepted {
                campaign: s("c"),
                scenario_fp: Fingerprint(a, b),
                cells: n(b),
                deduped: flag,
                queue_depth: n(a ^ b),
            },
            4 => Message::Subscribe {
                campaign: flag.then(|| s("c")),
            },
            5 => Message::Event {
                campaign: s("c"),
                event: build_event(n(a), a, b, flag, 0).to_json(),
            },
            6 => Message::StreamEnd {
                campaign: s("c"),
                outcome: if flag {
                    StreamOutcome::Done
                } else {
                    StreamOutcome::Failed
                },
            },
            7 => Message::Cancel { campaign: s("c") },
            8 => Message::CancelOk {
                campaign: s("c"),
                cancelled: flag,
            },
            9 => Message::Status,
            10 => Message::StatusOk {
                status: Message::Accepted {
                    campaign: s("nested"),
                    scenario_fp: Fingerprint(b, a),
                    cells: n(a),
                    deduped: !flag,
                    queue_depth: n(b),
                }
                .to_json(),
            },
            11 => Message::Report {
                campaign: s("c"),
                kind,
            },
            12 => Message::ReportOk {
                campaign: s("c"),
                kind,
                body: s("workload,category\nbert,b"),
            },
            _ => Message::Error { msg: s("oops") },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_variant() {
        for variant in 0..14 {
            for flag in [false, true] {
                let m = sample::build_message(variant, 7, 9, flag);
                let line = m.to_line();
                assert!(!line.contains('\n'), "one message, one line: {line}");
                let back = Message::parse_line(&line).expect(&line);
                assert_eq!(back, m, "{line}");
            }
        }
    }

    #[test]
    fn unknown_format_and_type_are_refused() {
        let future = r#"{"format":"griffin-serve-wire/2","type":"hello","client":"x"}"#;
        let err = Message::parse_line(future).unwrap_err();
        assert!(err.msg.contains("unsupported wire format"), "{err}");
        let unknown = r#"{"format":"griffin-serve-wire/1","type":"frobnicate"}"#;
        let err = Message::parse_line(unknown).unwrap_err();
        assert!(err.msg.contains("unknown message type"), "{err}");
        assert!(Message::parse_line("not json at all").is_err());
        // No format tag at all: refused, not guessed.
        assert!(Message::parse_line(r#"{"type":"status"}"#).is_err());
    }

    #[test]
    fn submit_source_is_exactly_one_of_inline_or_path() {
        let both = r#"{"format":"griffin-serve-wire/1","type":"submit","scenario":"x","path":"y"}"#;
        assert!(Message::parse_line(both).is_err());
        let neither = r#"{"format":"griffin-serve-wire/1","type":"submit"}"#;
        assert!(Message::parse_line(neither).is_err());
    }
}
