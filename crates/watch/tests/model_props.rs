//! Property tests of the campaign-model fold: arbitrary sequences of
//! valid schema events (v1 and v2 wire forms, via the fleet's shared
//! sample generator) must never panic the model, progress must be
//! monotone within a run, and terminal state must track exactly the
//! terminal events.

use griffin_fleet::events::sample::build_event;
use griffin_fleet::events::Event;
use griffin_sweep::json::Json;
use griffin_watch::{CampaignModel, CampaignState};
use proptest::prelude::*;

/// Draws one event from the shared schema generator. `special` is
/// pinned to 0 so metrics stay finite (the model ignores metrics, but
/// serialized lines must round-trip cleanly for the v1/v2 comparison).
fn event_from(draw: (usize, u64, u64, bool)) -> Event {
    let (variant, a, b, flag) = draw;
    build_event(variant % 14, a, b, flag, 0)
}

/// Serializes `ev` the way a v1 producer would have: no v2/v3-only
/// optional fields (`healed` on merge_done; the enrichment pair on
/// heartbeat; `backoff_ms` on shard_retried).
fn as_v1_line(ev: &Event) -> String {
    let Json::Obj(mut m) = ev.to_json() else {
        panic!("events serialize to objects");
    };
    m.remove("format");
    m.remove("healed");
    m.remove("backoff_ms");
    if matches!(ev, Event::Heartbeat { .. }) {
        m.remove("elapsed_ms");
        m.remove("cached");
    }
    Json::Obj(m).write()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Folding any event sequence never panics, keeps progress monotone
    /// within a run (only `campaign_start` may reset it), and lands in
    /// a terminal state exactly when the last lifecycle event was
    /// terminal.
    #[test]
    fn fold_is_total_monotone_and_terminal_correct(
        draws in proptest::collection::vec(
            (0usize..14, 0u64..u64::MAX, 0u64..u64::MAX, proptest::bool::ANY),
            0..120,
        ),
    ) {
        let mut m = CampaignModel::new();
        let mut prev_done = 0usize;
        let mut expect_terminal = false;
        for draw in &draws {
            let ev = event_from(*draw);
            m.apply(&ev);
            match &ev {
                Event::CampaignStart { .. } => expect_terminal = false,
                Event::CampaignDone { .. } | Event::CampaignFailed { .. } => {
                    expect_terminal = true;
                }
                _ => {}
            }
            if matches!(ev, Event::CampaignStart { .. }) {
                prev_done = m.done(); // a restart may legally reset progress
            } else {
                prop_assert!(
                    m.done() >= prev_done,
                    "progress went backwards: {} -> {} on {:?}",
                    prev_done, m.done(), ev
                );
                prev_done = m.done();
            }
            prop_assert_eq!(
                m.state.is_terminal(),
                expect_terminal,
                "terminal state must track the lifecycle events exactly"
            );
            prop_assert!(m.progress() >= 0.0 && m.progress() <= 1.0 || m.done() > m.total_cells,
                "progress stays in [0,1] whenever done <= total");
        }
        // The fold is deterministic: replaying yields an equal model.
        let mut again = CampaignModel::new();
        for draw in &draws {
            again.apply(&event_from(*draw));
        }
        prop_assert_eq!(&again, &m);
        // The summary never panics and always carries its format tag.
        prop_assert!(m.summary().write().contains("griffin-watch-summary/1"));
    }

    /// The wire-level fold agrees with the in-memory fold, and a v1
    /// stream (no enrichment fields) agrees on every counter that does
    /// not come from the enrichment: done, retries, cache hits, state.
    #[test]
    fn v2_lines_match_events_and_v1_lines_match_on_core_counters(
        draws in proptest::collection::vec(
            (0usize..14, 0u64..u64::MAX, 0u64..u64::MAX, proptest::bool::ANY),
            0..60,
        ),
    ) {
        let events: Vec<Event> = draws.iter().map(|d| event_from(*d)).collect();

        let mut direct = CampaignModel::new();
        let mut from_v2 = CampaignModel::new();
        let mut from_v1 = CampaignModel::new();
        for ev in &events {
            direct.apply(ev);
            from_v2.apply_line(&ev.to_line());
            from_v1.apply_line(&as_v1_line(ev));
        }
        prop_assert_eq!(&from_v2, &direct, "serialize -> parse -> fold is the identity");
        prop_assert_eq!(from_v1.parse_errors, 0, "v1 lines all parse");
        prop_assert_eq!(from_v1.done(), direct.done());
        prop_assert_eq!(from_v1.retries, direct.retries);
        prop_assert_eq!(from_v1.cache_hits, direct.cache_hits);
        prop_assert_eq!(from_v1.requeued_cells, direct.requeued_cells);
        prop_assert_eq!(from_v1.failures.len(), direct.failures.len());
        prop_assert_eq!(from_v1.state.tag(), direct.state.tag());
    }

    /// A well-formed run — start, per-shard starts, every cell done
    /// exactly once, shard/campaign footers — always folds to a model
    /// where done == total and the state is `done`, independent of how
    /// cells interleave across shards.
    #[test]
    fn complete_runs_always_reach_done_equals_total(
        cells in 1usize..40,
        shards in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let mut m = CampaignModel::new();
        m.apply(&build_event(0, 0, 0, false, 0)); // arbitrary header...
        // ...replaced by a coherent one.
        m.apply(&Event::CampaignStart {
            campaign: "prop".into(),
            spec_fp: griffin_sweep::fingerprint::Fingerprint(seed, seed),
            cells,
            shards,
            resumed: 0,
            scenario: None,
        });
        for s in 0..shards {
            m.apply(&Event::ShardStart {
                shard: s,
                cells: cells / shards,
                skipped: 0,
            });
        }
        // A deterministic shuffle of cell completion order.
        let mut order: Vec<usize> = (0..cells).collect();
        for i in (1..cells).rev() {
            let j = ((seed >> (i % 48)) as usize).wrapping_add(i * 7919) % (i + 1);
            order.swap(i, j);
        }
        for (k, cell) in order.iter().enumerate() {
            if let Event::CellDone { fp, cached, metrics, .. } =
                build_event(3, seed ^ k as u64, *cell as u64, k % 3 == 0, 0)
            {
                m.apply(&Event::CellDone {
                    shard: cell % shards,
                    cell: *cell,
                    fp,
                    cached,
                    metrics,
                });
            }
            prop_assert_eq!(m.done(), k + 1, "each first-time completion advances done");
        }
        m.apply(&Event::CampaignDone { cells, elapsed_ms: 1 });
        prop_assert_eq!(m.done(), cells);
        prop_assert!(matches!(m.state, CampaignState::Done { .. }));
        prop_assert!((m.progress() - 1.0).abs() < 1e-12);
    }
}
