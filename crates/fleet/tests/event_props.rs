//! Property tests of the full fleet event schema: every variant (v1
//! to v4), serialized and parsed back, over randomized field
//! values — including degenerate floats, strings that need escaping,
//! unknown fields (which must be tolerated) and legacy lines (which
//! must still parse) — plus literal lines from multi-host v3 streams,
//! which must still parse and fold like the same stream without them.

use griffin_fleet::events::sample::{build_event, VARIANTS};
use griffin_fleet::events::Event;
use griffin_sweep::fingerprint::Fingerprint;
use griffin_sweep::json::Json;
use griffin_watch::CampaignModel;
use proptest::prelude::*;

/// Serializes `ev` with extra unknown fields injected into the object.
fn with_unknown_fields(ev: &Event) -> String {
    let Json::Obj(mut m) = ev.to_json() else {
        panic!("events serialize to objects");
    };
    m.insert("aaa_unknown".into(), Json::Num(42.0));
    m.insert(
        "zz_future".into(),
        Json::obj([("nested".into(), Json::Bool(true))]),
    );
    Json::Obj(m).write()
}

/// Serializes `ev` as a v1 producer would have written it: no `format`
/// tag and no heartbeat enrichment (`elapsed_ms`, `cached`).
fn as_v1_line(ev: &Event) -> String {
    let Json::Obj(mut m) = ev.to_json() else {
        panic!("events serialize to objects");
    };
    m.remove("format");
    if matches!(ev, Event::Heartbeat { .. }) {
        m.remove("elapsed_ms");
        m.remove("cached");
    }
    Json::Obj(m).write()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// serialize → parse is the identity on every variant, for any
    /// field values (NaN metrics compared through their canonical
    /// line, since NaN breaks `PartialEq`).
    #[test]
    fn every_event_roundtrips_for_arbitrary_fields(
        variant in 0..VARIANTS,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        flag in proptest::bool::ANY,
        special in 0u64..4,
    ) {
        let ev = build_event(variant, a, b, flag, special);
        let line = ev.to_line();
        prop_assert!(!line.contains('\n'), "one event, one line: {line}");
        let back = Event::parse_line(&line).expect(&line);
        prop_assert_eq!(back.to_line(), line.clone(), "canonical form is a fixpoint");
        if special % 4 == 0 {
            prop_assert_eq!(back, ev, "{}", line);
        }
    }

    /// Unknown fields inside known events are ignored, and v1 lines
    /// (no `format` tag, no heartbeat enrichment) still parse to the
    /// same event.
    #[test]
    fn unknown_fields_and_v1_lines_are_tolerated(
        variant in 0..VARIANTS,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        flag in proptest::bool::ANY,
    ) {
        let ev = build_event(variant, a, b, flag, 0);
        let noisy = Event::parse_line(&with_unknown_fields(&ev)).expect("unknown fields ignored");
        prop_assert_eq!(&noisy, &ev);
        // v1 compatibility only differs for campaign_start/heartbeat,
        // but stripping nothing from the rest must be harmless too.
        let from_v1 = Event::parse_line(&as_v1_line(&ev)).expect("v1 line parses");
        match from_v1 {
            Event::Heartbeat { elapsed_ms, cached, done, total } => {
                prop_assert_eq!((elapsed_ms, cached), (0, 0), "v1 heartbeat is unenriched");
                let Event::Heartbeat { done: d, total: t, .. } = ev else {
                    unreachable!()
                };
                prop_assert_eq!((done, total), (d, t));
            }
            other => prop_assert_eq!(other, ev),
        }
    }
}

/// A retried two-cell campaign as the removed multi-host fleet wrote
/// it: its `shard_start`, `shard_failed`, `shard_retried` and
/// `shard_done` lines carry `"host"`, and `host_lost` / `host_retired`
/// lines sit among them. `with_hosts = false` gives the
/// same stream without any host field or host line.
fn legacy_stream(with_hosts: bool) -> Vec<String> {
    let host = |line: &str| -> String {
        if with_hosts {
            line.replacen('{', "{\"host\":\"h1\",", 1)
        } else {
            line.to_string()
        }
    };
    let start = Event::CampaignStart {
        campaign: "legacy".into(),
        spec_fp: Fingerprint(1, 2),
        cells: 2,
        resumed: 0,
        scenario: None,
    };
    let cell_done = |cell: u64| {
        build_event(2, 0, cell, false, 0)
            .to_line()
            .replacen('{', "{\"shard\":0,", 1)
    };
    let mut lines = vec![
        start.to_line(),
        host(r#"{"cells":2,"ev":"shard_start","shard":0,"skipped":0}"#),
        cell_done(0),
        host(r#"{"attempt":0,"ev":"shard_failed","msg":"stream ended","shard":0}"#),
    ];
    if with_hosts {
        lines.push(r#"{"ev":"host_lost","host":"h1","shards":1}"#.into());
    }
    lines.extend([
        r#"{"cells":1,"ev":"cells_requeued","shard":0}"#.into(),
        host(r#"{"attempt":1,"backoff_ms":250,"ev":"shard_retried","shard":0}"#),
        host(r#"{"cells":2,"ev":"shard_start","shard":0,"skipped":1}"#),
        cell_done(1),
        host(r#"{"cached":0,"elapsed_ms":9,"ev":"shard_done","shard":0,"simulated":1}"#),
    ]);
    if with_hosts {
        lines.push(r#"{"ev":"host_retired","host":"h1"}"#.into());
    }
    lines.push(r#"{"cells":2,"elapsed_ms":12,"ev":"campaign_done"}"#.into());
    lines
}

/// Streams written by the removed multi-host fleet stay readable: every
/// line parses (a `host` field is ignored like any unknown field; the
/// host events parse as legacy lines), and folding them gives the
/// same campaign as the stream without the host lines.
#[test]
fn legacy_host_lines_parse_and_fold_like_the_stream_without_them() {
    let hosted = legacy_stream(true);
    let plain = legacy_stream(false);
    for line in &hosted {
        Event::parse_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    // Each host-stamped lifecycle line parses to the host-free event.
    let stamped: Vec<&String> = hosted
        .iter()
        .filter(|l| l.starts_with("{\"host\""))
        .collect();
    let bare = [&plain[1], &plain[3], &plain[5], &plain[6], &plain[8]];
    assert_eq!(stamped.len(), bare.len());
    for (h, p) in stamped.into_iter().zip(bare) {
        assert_eq!(Event::parse_line(h), Event::parse_line(p), "{h}");
    }
    let fold = |lines: &[String]| {
        let mut m = CampaignModel::new();
        for line in lines {
            m.apply_line(line);
        }
        m
    };
    let (mut with, without) = (fold(&hosted), fold(&plain));
    assert_eq!(with.parse_errors, 0);
    assert_eq!(with.done(), 2);
    assert_eq!(with.state.tag(), "done");
    // The two host lines are folded (counted) and otherwise ignored.
    assert_eq!(with.events_folded, without.events_folded + 2);
    with.events_folded = without.events_folded;
    assert_eq!(with, without);
}
