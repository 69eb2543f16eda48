//! Chaos tests of the fleet's failure handling: every failure is driven
//! by a deterministic [`FaultPlan`] (or the abort flag) and pinned to
//! the same invariant — the campaign fails cleanly with a terminal
//! `campaign_failed` event, and `--resume` then produces a report
//! **byte-identical** to an unfaulted single-process sweep.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use griffin_core::arch::ArchSpec;
use griffin_core::category::DnnCategory;
use griffin_fleet::coordinator::{cache_dir, journal_path, run_fleet, FleetConfig, FleetError};
use griffin_fleet::events::{Event, EventSink};
use griffin_fleet::fault::{Fault, FaultPlan};
use griffin_fleet::plan::ShardPlan;
use griffin_sim::config::{Fidelity, SimConfig};
use griffin_sweep::cache::ResultCache;
use griffin_sweep::executor::{run_campaign, CampaignReport};
use griffin_sweep::report::{to_csv, to_json};
use griffin_sweep::spec::SweepSpec;

fn spec() -> SweepSpec {
    SweepSpec::new("fleet-chaos")
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
        "griffin-chaos-{tag}-{}-{:?}",
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

/// A shard guaranteed to have planned cells (fault targets must bite).
fn nonempty_shard(plan: &ShardPlan) -> usize {
    (0..plan.shards)
        .max_by_key(|&s| plan.cells[s].len())
        .expect("plan has shards")
}

/// Resumes the campaign in `cfg.dir` with the fault cleared and pins
/// the report byte-identical to `single`; returns the resumed report
/// and its event stream.
fn resume_matches(
    spec: &SweepSpec,
    cfg: &FleetConfig,
    single: &CampaignReport,
) -> (CampaignReport, Vec<Event>) {
    let mut cfg = cfg.clone();
    cfg.fault = None;
    cfg.abort = None;
    cfg.resume = true;
    let mut rec = Recorder::default();
    let fleet = run_fleet(spec, &cfg, &mut rec).unwrap();
    assert_eq!(to_csv(&fleet), to_csv(single), "resumed CSV byte-identical");
    assert_eq!(
        to_json(&fleet),
        to_json(single),
        "resumed JSON byte-identical"
    );
    assert!(matches!(rec.0.last(), Some(Event::CampaignDone { .. })));
    (fleet, rec.0)
}

fn count(events: &[Event], pred: impl Fn(&Event) -> bool) -> usize {
    events.iter().filter(|e| pred(e)).count()
}

#[test]
fn in_process_kill_fails_the_campaign_and_resume_stays_byte_identical() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let shards = 3;
    let plan = ShardPlan::new(&spec, shards).unwrap();
    let victim = nonempty_shard(&plan);
    let dir = scratch_dir("kill");

    let mut cfg = FleetConfig::new(&dir, shards);
    cfg.fault = Some(FaultPlan::parse(&format!("kill:shard={victim}:after=1")).unwrap());
    let mut rec = Recorder::default();
    match run_fleet(&spec, &cfg, &mut rec) {
        Err(FleetError::Injected(Fault::Kill { shard, after: 1 })) => assert_eq!(shard, victim),
        other => panic!("expected the injected kill, got {other:?}"),
    }

    // Failure lifecycle: one `shard_failed` for the victim's only run,
    // no retry, no later shard, and a terminal `campaign_failed`.
    let failed: Vec<_> = rec
        .0
        .iter()
        .filter(|e| matches!(e, Event::ShardFailed { .. }))
        .collect();
    assert_eq!(failed.len(), 1);
    let Event::ShardFailed {
        shard,
        attempt,
        msg,
    } = failed[0]
    else {
        unreachable!()
    };
    assert_eq!((*shard, *attempt), (victim, 0));
    assert!(msg.contains("fault injected"), "{msg}");
    assert_eq!(
        count(&rec.0, |e| matches!(
            e,
            Event::ShardRetried { .. } | Event::CellsRequeued { .. }
        )),
        0,
        "a failed shard is not retried"
    );
    assert_eq!(
        count(&rec.0, |e| matches!(e, Event::ShardStart { .. })),
        victim + 1,
        "no shard starts after the victim"
    );
    assert!(matches!(rec.0.last(), Some(Event::CampaignFailed { .. })));

    // The N killed-before cells are journaled: the resume skips every
    // one of them, including the victim's first cell.
    let journaled: usize = plan.cells[..victim].iter().map(Vec::len).sum::<usize>() + 1;
    let (_, events) = resume_matches(&spec, &cfg, &single);
    let Some(Event::CampaignStart { resumed, .. }) = events.first() else {
        panic!("no campaign_start");
    };
    assert_eq!(*resumed, journaled);
    let victim_skipped = events.iter().find_map(|e| match e {
        Event::ShardStart { shard, skipped, .. } if *shard == victim => Some(*skipped),
        _ => None,
    });
    assert_eq!(victim_skipped, Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_cache_is_re_simulated_by_the_resume() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let shards = 3;
    let plan = ShardPlan::new(&spec, shards).unwrap();
    let victim = nonempty_shard(&plan);
    let dir = scratch_dir("corrupt");

    // Standalone cache corruption: the shard completes, but the cache
    // directory looks like a writer died mid-write (torn entry + stray
    // tmp). The running campaign still reports from memory.
    let mut cfg = FleetConfig::new(&dir, shards);
    cfg.fault = Some(FaultPlan::parse(&format!("corrupt-cache:shard={victim}")).unwrap());
    let fleet = run_fleet(&spec, &cfg, &mut Recorder::default()).unwrap();
    assert_eq!(to_csv(&fleet), to_csv(&single));
    assert!(
        cache_dir(&dir).join("fault.tmp.0.0").exists(),
        "the stray tmp was left in the campaign cache"
    );

    // Every cell is journaled, so the resume runs no shard work; its
    // final replay reads the torn directory and re-simulates exactly
    // the torn entry.
    let (resumed, events) = resume_matches(&spec, &cfg, &single);
    let simulated: usize = events
        .iter()
        .filter_map(|e| match e {
            Event::ShardDone { simulated, .. } => Some(*simulated),
            _ => None,
        })
        .sum();
    assert_eq!(simulated, 0, "every cell was journaled");
    assert_eq!(resumed.cache.misses, 1, "only the torn entry re-simulates");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Raises the abort flag at the first `shard_done`, as a ^C landing
/// while the first shard runs would.
struct AbortAtFirstShardDone {
    events: Vec<Event>,
    abort: Arc<AtomicBool>,
}

impl EventSink for AbortAtFirstShardDone {
    fn emit(&mut self, ev: &Event) -> std::io::Result<()> {
        if matches!(ev, Event::ShardDone { .. }) {
            self.abort.store(true, Ordering::Relaxed);
        }
        self.events.push(ev.clone());
        Ok(())
    }
}

#[test]
fn abort_after_the_first_shard_fails_cleanly_and_resume_recovers() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let dir = scratch_dir("abort");

    let abort = Arc::new(AtomicBool::new(false));
    let mut cfg = FleetConfig::new(&dir, 3);
    cfg.abort = Some(Arc::clone(&abort));
    let mut sink = AbortAtFirstShardDone {
        events: Vec::new(),
        abort,
    };
    match run_fleet(&spec, &cfg, &mut sink) {
        Err(FleetError::Interrupted) => {}
        other => panic!("expected an interrupt, got {other:?}"),
    }
    let events = sink.events;
    assert_eq!(
        count(&events, |e| matches!(e, Event::ShardStart { .. })),
        1,
        "the abort is honoured before the second shard starts"
    );
    match events.last() {
        Some(Event::CampaignFailed { msg }) => assert!(msg.contains("interrupt"), "{msg}"),
        other => panic!("expected a terminal campaign_failed, got {other:?}"),
    }

    let (_, events) = resume_matches(&spec, &cfg, &single);
    let first_shard = ShardPlan::new(&spec, 3).unwrap().cells[0].len();
    let Some(Event::CampaignStart { resumed, .. }) = events.first() else {
        panic!("no campaign_start");
    };
    assert_eq!(*resumed, first_shard, "the finished shard stays journaled");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_journal_aborts_terminally_and_resume_recovers() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let dir = scratch_dir("torn-journal");

    let mut cfg = FleetConfig::new(&dir, 2);
    cfg.fault = Some(FaultPlan::parse("truncate-journal:after=3").unwrap());
    let mut rec = Recorder::default();
    match run_fleet(&spec, &cfg, &mut rec) {
        Err(FleetError::Injected(Fault::TruncateJournal { after: 3 })) => {}
        other => panic!("expected the injected journal fault, got {other:?}"),
    }
    assert!(matches!(rec.0.last(), Some(Event::CampaignFailed { .. })));
    let text = std::fs::read_to_string(journal_path(&dir)).unwrap();
    assert!(
        !text.ends_with('\n'),
        "the journal tail is torn mid-append: {text:?}"
    );
    assert_eq!(text.lines().count(), 5, "header + 3 entries + torn tail");

    cfg.fault = None;
    cfg.resume = true;
    let mut rec = Recorder::default();
    let fleet = run_fleet(&spec, &cfg, &mut rec).unwrap();
    assert_eq!(to_csv(&fleet), to_csv(&single), "resume after torn tail");
    let Some(Event::CampaignStart { resumed, .. }) = rec.0.first() else {
        panic!("no campaign_start");
    };
    assert_eq!(*resumed, 3, "exactly the cleanly-journaled cells resumed");
    std::fs::remove_dir_all(&dir).unwrap();
}
