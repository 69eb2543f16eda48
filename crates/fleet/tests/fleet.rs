//! Integration tests of the fleet coordinator: byte-identity with a
//! single-process sweep, resume from the campaign cache, the `resumed` +
//! `cell_done` = cells invariant, and resume from directories written
//! by older coordinators (per-cell journal entries, per-shard caches).

use std::collections::BTreeSet;
use std::path::PathBuf;

use griffin_core::arch::ArchSpec;
use griffin_core::category::DnnCategory;
use griffin_fleet::coordinator::{cache_dir, journal_path, run_fleet, FleetConfig, FleetError};
use griffin_fleet::events::{Event, EventSink, NullSink};
use griffin_sim::config::{Fidelity, SimConfig};
use griffin_sweep::cache::ResultCache;
use griffin_sweep::executor::run_campaign;
use griffin_sweep::report::{to_csv, to_json};
use griffin_sweep::spec::SweepSpec;

fn spec() -> SweepSpec {
    SweepSpec::new("fleet-it")
        .adhoc_layer("l0", 32, 256, 32, 1.0, 0.2)
        .adhoc_layer("l1", 16, 128, 64, 0.5, 0.5)
        .category(DnnCategory::B)
        .arch(ArchSpec::dense())
        .arch(ArchSpec::sparse_b_star())
        .arch(ArchSpec::griffin())
        .seeds([1, 2])
        .sim(SimConfig {
            fidelity: Fidelity::Sampled { tiles: 4, seed: 1 },
            ..SimConfig::default()
        })
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "griffin-fleet-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Collects the event stream in memory for assertions.
#[derive(Default)]
struct Recorder(Vec<Event>);

impl EventSink for Recorder {
    fn emit(&mut self, ev: &Event) -> std::io::Result<()> {
        self.0.push(ev.clone());
        Ok(())
    }
}

/// Deletes the cache entries of the grid's last `n` cells, as a crash
/// before those cells were cached would leave the directory.
fn drop_last_cached(spec: &SweepSpec, dir: &std::path::Path, n: usize) {
    let cells = spec.cells();
    for c in &cells[cells.len() - n..] {
        let fp = c.fingerprint(&spec.sim);
        std::fs::remove_file(cache_dir(dir).join(format!("{fp}.json"))).unwrap();
    }
}

/// `resumed` on the stream's `campaign_start` and its `cell_done`
/// count, plus the `cell_done` events served uncached.
fn resumed_and_done(events: &[Event]) -> (usize, usize, usize) {
    let Some(Event::CampaignStart { resumed, .. }) = events.first() else {
        panic!("stream must open with campaign_start");
    };
    let done = |cached: bool| {
        events
            .iter()
            .filter(|e| matches!(e, Event::CellDone { cached: c, .. } if *c == cached))
            .count()
    };
    (*resumed, done(false) + done(true), done(false))
}

#[test]
fn fleet_reports_are_byte_identical_to_a_single_sweep() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    for workers in [1, 2, 3] {
        let dir = scratch_dir(&format!("ident-{workers}"));
        let fleet = run_fleet(&spec, &FleetConfig::new(&dir, workers), &mut NullSink).unwrap();
        assert_eq!(
            to_csv(&fleet),
            to_csv(&single),
            "{workers}-worker CSV must match"
        );
        assert_eq!(
            to_json(&fleet),
            to_json(&single),
            "{workers}-worker JSON must match"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn event_stream_covers_every_cell_once() {
    let spec = spec();
    let dir = scratch_dir("events");
    let mut rec = Recorder::default();
    let mut cfg = FleetConfig::new(&dir, 3);
    cfg.heartbeat_every = 2;
    run_fleet(&spec, &cfg, &mut rec).unwrap();
    let events = rec.0;

    let Some(Event::CampaignStart { cells, resumed, .. }) = events.first() else {
        panic!("stream must open with campaign_start");
    };
    assert_eq!((*cells, *resumed), (12, 0));
    assert!(matches!(
        events.last(),
        Some(Event::CampaignDone { cells: 12, .. })
    ));

    let mut done_cells = BTreeSet::new();
    let mut heartbeats = Vec::new();
    for ev in &events {
        match ev {
            Event::CellDone { cell, cached, .. } => {
                assert!(!cached, "cold run simulates everything");
                assert!(done_cells.insert(*cell), "cell {cell} done twice");
            }
            Event::Heartbeat { done, total, .. } => heartbeats.push((*done, *total)),
            _ => {}
        }
    }
    assert_eq!(done_cells.len(), 12, "every cell streams exactly once");
    assert_eq!(
        heartbeats,
        (1..=6).map(|k| (2 * k, 12)).collect::<Vec<_>>(),
        "a heartbeat every 2 completions, counting the whole pass"
    );
    // No shard, retry or merge lifecycle: those events are legacy-only.
    assert!(!events.iter().any(|e| matches!(
        e,
        Event::ShardStart { .. }
            | Event::ShardDone { .. }
            | Event::ShardFailed { .. }
            | Event::MergeDone { .. }
            | Event::ShardRetried { .. }
            | Event::CellsRequeued { .. }
    )));

    // The on-disk cache now holds every cell, and the journal is its
    // one header line.
    let cache = ResultCache::at_dir(cache_dir(&dir)).unwrap();
    assert!(spec
        .cells()
        .iter()
        .all(|c| cache.holds(c.fingerprint(&spec.sim))));
    let journal = std::fs::read_to_string(journal_path(&dir)).unwrap();
    assert_eq!(journal.lines().count(), 1, "{journal}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_skips_journaled_cells_and_recomputes_lost_ones() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let dir = scratch_dir("resume");
    let cfg = FleetConfig::new(&dir, 2);
    run_fleet(&spec, &cfg, &mut NullSink).unwrap();

    // Forge an interruption: drop the last cell's cached result, so
    // resume must actually re-simulate it.
    drop_last_cached(&spec, &dir, 1);

    let mut rec = Recorder::default();
    let mut cfg = cfg;
    cfg.resume = true;
    let fleet = run_fleet(&spec, &cfg, &mut rec).unwrap();
    assert_eq!(
        to_csv(&fleet),
        to_csv(&single),
        "resumed CSV byte-identical"
    );

    let (resumed, done, simulated) = resumed_and_done(&rec.0);
    assert_eq!(resumed, 11, "all but the forged-lost cell resumed");
    assert_eq!(
        (done, simulated),
        (1, 1),
        "exactly the lost cell re-simulated"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// On success, `resumed` + `cell_done` events == cells, whether the
/// run is fresh, resumed mid-campaign, or a warm rerun of a finished
/// directory.
#[test]
fn resumed_plus_cell_done_covers_the_grid_on_every_run() {
    let spec = spec();
    let dir = scratch_dir("invariant");
    let cfg = FleetConfig::new(&dir, 2);

    let mut fresh = Recorder::default();
    run_fleet(&spec, &cfg, &mut fresh).unwrap();
    assert_eq!(resumed_and_done(&fresh.0), (0, 12, 12), "fresh");

    // Drop the last four cached cells: a resume reports just those.
    drop_last_cached(&spec, &dir, 4);
    let mut cfg = cfg;
    cfg.resume = true;
    let mut resumed = Recorder::default();
    run_fleet(&spec, &cfg, &mut resumed).unwrap();
    assert_eq!(
        resumed_and_done(&resumed.0),
        (8, 4, 4),
        "resumed: the four uncached cells are simulated"
    );

    // A warm rerun of the finished directory reports nothing new.
    let mut warm = Recorder::default();
    run_fleet(&spec, &cfg, &mut warm).unwrap();
    assert_eq!(resumed_and_done(&warm.0), (12, 0, 0), "warm");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_directory_in_the_old_shard_cache_layout_still_resumes() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let dir = scratch_dir("old-layout");
    run_fleet(&spec, &FleetConfig::new(&dir, 2), &mut NullSink).unwrap();

    // Rewrite the directory into the older layout: results under a
    // per-shard `shard-0/` and a `merged/` union, no `cache/`.
    std::fs::rename(cache_dir(&dir), dir.join("shard-0")).unwrap();
    std::fs::create_dir(dir.join("merged")).unwrap();

    let mut cfg = FleetConfig::new(&dir, 2);
    cfg.resume = true;
    let mut rec = Recorder::default();
    let fleet = run_fleet(&spec, &cfg, &mut rec).unwrap();
    assert_eq!(to_csv(&fleet), to_csv(&single));
    assert_eq!(to_json(&fleet), to_json(&single));
    assert_eq!(
        fleet.cache.misses, 12,
        "the pass re-simulates what only the old layout held"
    );
    assert_eq!(
        resumed_and_done(&rec.0),
        (0, 12, 12),
        "and reports every cell its `cache/` lacked"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Older coordinators appended one journal line per completed cell
/// after the header. Such a directory still resumes: the lines are
/// never read, and `resumed` comes from the cache.
#[test]
fn a_journal_with_per_cell_entry_lines_still_resumes() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let dir = scratch_dir("entry-lines");
    run_fleet(&spec, &FleetConfig::new(&dir, 2), &mut NullSink).unwrap();

    // Every cell journaled as an entry line, the last one torn, while
    // the cache lost the last two cells.
    let jpath = journal_path(&dir);
    let mut text = std::fs::read_to_string(&jpath).unwrap();
    for c in spec.cells() {
        let fp = c.fingerprint(&spec.sim);
        text.push_str(&format!("{{\"cell\":{},\"fp\":\"{fp}\"}}\n", c.index));
    }
    text.push_str("{\"cell\":");
    std::fs::write(&jpath, &text).unwrap();
    drop_last_cached(&spec, &dir, 2);

    let mut cfg = FleetConfig::new(&dir, 2);
    cfg.resume = true;
    let mut rec = Recorder::default();
    let fleet = run_fleet(&spec, &cfg, &mut rec).unwrap();
    assert_eq!(to_csv(&fleet), to_csv(&single));
    assert_eq!(to_json(&fleet), to_json(&single));
    assert_eq!(
        resumed_and_done(&rec.0),
        (10, 2, 2),
        "the cells the cache lacks are simulated, whatever the journal lists"
    );
    assert_eq!(
        std::fs::read_to_string(&jpath).unwrap(),
        text,
        "resume never writes the journal"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resuming_a_different_grid_is_rejected() {
    let spec = spec();
    let dir = scratch_dir("reject");
    run_fleet(&spec, &FleetConfig::new(&dir, 2), &mut NullSink).unwrap();

    let other = spec.clone().seeds([1, 3]); // different grid
    let mut cfg = FleetConfig::new(&dir, 2);
    cfg.resume = true;
    match run_fleet(&other, &cfg, &mut NullSink) {
        Err(FleetError::Journal(griffin_fleet::JournalError::Mismatch { .. })) => {}
        other => panic!("expected journal mismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
