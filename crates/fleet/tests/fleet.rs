//! Integration tests of the fleet coordinator: byte-identity with a
//! single-process sweep, journaled resume, and lossless cache merging.

use std::collections::BTreeSet;
use std::path::PathBuf;

use griffin_core::arch::ArchSpec;
use griffin_core::category::DnnCategory;
use griffin_fleet::coordinator::{
    journal_path, merged_cache_dir, run_fleet, shard_cache_dir, FleetConfig, FleetError,
};
use griffin_fleet::events::{Event, EventSink, NullSink};
use griffin_fleet::plan::ShardPlan;
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

#[test]
fn fleet_reports_are_byte_identical_to_a_single_sweep() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    for shards in [1, 3, 4] {
        let dir = scratch_dir(&format!("ident-{shards}"));
        let fleet = run_fleet(&spec, &FleetConfig::new(&dir, shards), &mut NullSink).unwrap();
        assert_eq!(
            to_csv(&fleet),
            to_csv(&single),
            "{shards}-shard CSV must match"
        );
        assert_eq!(
            to_json(&fleet),
            to_json(&single),
            "{shards}-shard JSON must match"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn event_stream_covers_every_cell_and_shard() {
    let spec = spec();
    let dir = scratch_dir("events");
    let mut rec = Recorder::default();
    let mut cfg = FleetConfig::new(&dir, 3);
    cfg.heartbeat_every = 2;
    run_fleet(&spec, &cfg, &mut rec).unwrap();
    let events = rec.0;

    let Some(Event::CampaignStart {
        cells,
        shards,
        resumed,
        ..
    }) = events.first()
    else {
        panic!("stream must open with campaign_start");
    };
    assert_eq!((*cells, *shards, *resumed), (12, 3, 0));
    assert!(matches!(
        events.last(),
        Some(Event::CampaignDone { cells: 12, .. })
    ));

    let mut done_cells = BTreeSet::new();
    let mut shard_starts = 0;
    let mut shard_dones = 0;
    let mut heartbeats = 0;
    for ev in &events {
        match ev {
            Event::CellDone { cell, cached, .. } => {
                assert!(!cached, "cold run simulates everything");
                assert!(done_cells.insert(*cell), "cell {cell} done twice");
            }
            Event::ShardStart { .. } => shard_starts += 1,
            Event::ShardDone { .. } => shard_dones += 1,
            Event::Heartbeat { .. } => heartbeats += 1,
            _ => {}
        }
    }
    assert_eq!(done_cells.len(), 12, "every cell streams exactly once");
    assert_eq!((shard_starts, shard_dones), (3, 3));
    assert!(
        heartbeats > 0,
        "heartbeat cadence 2 over 12 cells must fire"
    );
    assert!(matches!(
        events.iter().rev().nth(1),
        Some(Event::MergeDone { conflicts: 0, .. })
    ));

    // The on-disk journal now knows every cell.
    assert_eq!(
        griffin_fleet::Journal::peek_completed(
            journal_path(&dir),
            &griffin_fleet::JournalHeader {
                campaign: spec.name.clone(),
                spec_fp: ShardPlan::new(&spec, 3).unwrap().spec_fp,
                cells: 12,
                scenario: None,
            },
        )
        .unwrap()
        .len(),
        12
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_skips_journaled_cells_and_recomputes_lost_ones() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let dir = scratch_dir("resume");
    let cfg = FleetConfig::new(&dir, 2);
    run_fleet(&spec, &cfg, &mut NullSink).unwrap();

    // Forge an interruption: drop the journal's last entry AND that
    // cell's cached result, so resume must actually re-simulate it.
    let jpath = journal_path(&dir);
    let text = std::fs::read_to_string(&jpath).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap();
    let lost_fp = last.split("\"fp\":\"").nth(1).unwrap()[..32].to_string();
    std::fs::write(&jpath, format!("{}\n", lines.join("\n"))).unwrap();
    let mut removed = 0;
    for shard in 0..2 {
        let p = shard_cache_dir(&dir, shard).join(format!("{lost_fp}.json"));
        if p.exists() {
            std::fs::remove_file(&p).unwrap();
            removed += 1;
        }
    }
    let merged_entry = merged_cache_dir(&dir).join(format!("{lost_fp}.json"));
    std::fs::remove_file(&merged_entry).unwrap();
    assert_eq!(removed, 1, "the lost cell lived in exactly one shard");

    let mut rec = Recorder::default();
    let mut cfg = cfg;
    cfg.resume = true;
    let fleet = run_fleet(&spec, &cfg, &mut rec).unwrap();
    assert_eq!(
        to_csv(&fleet),
        to_csv(&single),
        "resumed CSV byte-identical"
    );

    let Some(Event::CampaignStart { resumed, .. }) = rec.0.first() else {
        panic!("no campaign_start");
    };
    assert_eq!(*resumed, 11, "all but the forged-lost cell resumed");
    let simulated: usize = rec
        .0
        .iter()
        .filter_map(|e| match e {
            Event::ShardDone { simulated, .. } => Some(*simulated),
            _ => None,
        })
        .sum();
    assert_eq!(simulated, 1, "exactly the lost cell was re-simulated");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_with_a_different_shard_count_still_matches() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let dir = scratch_dir("reshard");
    run_fleet(&spec, &FleetConfig::new(&dir, 4), &mut NullSink).unwrap();

    // Resharding is allowed: the journal identity is the grid, not the
    // partition, and old shard-* caches still merge.
    let mut cfg = FleetConfig::new(&dir, 2);
    cfg.resume = true;
    let mut rec = Recorder::default();
    let fleet = run_fleet(&spec, &cfg, &mut rec).unwrap();
    assert_eq!(to_csv(&fleet), to_csv(&single));
    let simulated: usize = rec
        .0
        .iter()
        .filter_map(|e| match e {
            Event::ShardDone { simulated, .. } => Some(*simulated),
            _ => None,
        })
        .sum();
    assert_eq!(simulated, 0, "nothing recomputed across the reshard");
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
