//! Chaos tests of the fleet's failure handling: every failure is driven
//! by a deterministic [`FaultPlan`], the abort flag or a failing sink,
//! and pinned to the same invariant — the campaign fails cleanly with a terminal
//! `campaign_failed` event, and `--resume` then produces a report
//! **byte-identical** to an unfaulted single-process sweep.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use griffin_core::arch::ArchSpec;
use griffin_core::category::DnnCategory;
use griffin_fleet::coordinator::{cache_dir, run_fleet, FleetConfig, FleetError};
use griffin_fleet::events::{Event, EventSink};
use griffin_fleet::fault::{Fault, FaultPlan};
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

/// `resumed` on the stream's `campaign_start`, and its `cell_done`
/// count.
fn resumed_and_done(events: &[Event]) -> (usize, usize) {
    let Some(Event::CampaignStart { resumed, .. }) = events.first() else {
        panic!("no campaign_start");
    };
    (
        *resumed,
        count(events, |e| matches!(e, Event::CellDone { .. })),
    )
}

#[test]
fn in_process_kill_fails_the_campaign_and_resume_stays_byte_identical() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let dir = scratch_dir("kill");

    let mut cfg = FleetConfig::new(&dir, 2);
    cfg.fault = Some(FaultPlan::parse("kill:after=1").unwrap());
    let mut rec = Recorder::default();
    match run_fleet(&spec, &cfg, &mut rec) {
        Err(FleetError::Injected(Fault::Kill { after: 1 })) => {}
        other => panic!("expected the injected kill, got {other:?}"),
    }

    // The first cell in grid order completes and is cached; then the
    // campaign dies with a terminal `campaign_failed`, and no shard
    // lifecycle line is written.
    let done: Vec<usize> = rec
        .0
        .iter()
        .filter_map(|e| match e {
            Event::CellDone { cell, .. } => Some(*cell),
            _ => None,
        })
        .collect();
    assert_eq!(done, vec![0]);
    assert_eq!(count(&rec.0, |e| matches!(e, Event::Legacy { .. })), 0);
    match rec.0.last() {
        Some(Event::CampaignFailed { msg }) => {
            assert!(msg.contains("fault injected: kill:after=1"), "{msg}")
        }
        other => panic!("expected a terminal campaign_failed, got {other:?}"),
    }

    // The resume skips the killed run's cell and reports the other 11.
    let (_, events) = resume_matches(&spec, &cfg, &single);
    assert_eq!(resumed_and_done(&events), (1, 11));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_cache_is_re_simulated_by_the_resume() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let dir = scratch_dir("corrupt");

    // Standalone cache corruption: the pass completes, but the cache
    // directory looks like a writer died mid-write (torn entry + stray
    // tmp). The running campaign still reports from memory.
    let mut cfg = FleetConfig::new(&dir, 2);
    cfg.fault = Some(FaultPlan::parse("corrupt-cache").unwrap());
    let fleet = run_fleet(&spec, &cfg, &mut Recorder::default()).unwrap();
    assert_eq!(to_csv(&fleet), to_csv(&single));
    assert!(
        cache_dir(&dir).join("fault.tmp.0.0").exists(),
        "the stray tmp was left in the campaign cache"
    );

    // The torn entry is not a readable cache entry, so the resume
    // reports exactly that cell, re-simulated; the rest are resumed.
    let (resumed, events) = resume_matches(&spec, &cfg, &single);
    assert_eq!(
        resumed_and_done(&events),
        (11, 1),
        "only the torn cell is not resumed"
    );
    assert_eq!(resumed.cache.misses, 1, "only the torn entry re-simulates");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Raises the abort flag at the first `cell_done`, as a ^C landing
/// while the campaign runs would.
struct AbortAtFirstCellDone {
    events: Vec<Event>,
    abort: Arc<AtomicBool>,
}

impl EventSink for AbortAtFirstCellDone {
    fn emit(&mut self, ev: &Event) -> std::io::Result<()> {
        if matches!(ev, Event::CellDone { .. }) {
            self.abort.store(true, Ordering::Relaxed);
        }
        self.events.push(ev.clone());
        Ok(())
    }
}

/// Three families of eight layers each: a stop at the first
/// `cell_done` lands when the first family finishes, with most
/// (family, layer) items unclaimed.
fn three_families() -> SweepSpec {
    SweepSpec::new("fleet-abort")
        .synthetic("net", 8)
        .categories([DnnCategory::A, DnnCategory::B, DnnCategory::Dense])
        .arch(ArchSpec::dense())
        .arch(ArchSpec::sparse_b_star())
        .arch(ArchSpec::griffin())
        .seeds([1, 2])
        .sim(SimConfig {
            fidelity: Fidelity::Sampled { tiles: 2, seed: 1 },
            ..SimConfig::default()
        })
}

#[test]
fn abort_at_the_first_cell_done_fails_cleanly_and_resume_recovers() {
    let spec = three_families();
    let cells = spec.cell_count();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let dir = scratch_dir("abort");

    let abort = Arc::new(AtomicBool::new(false));
    let mut cfg = FleetConfig::new(&dir, 2);
    cfg.abort = Some(Arc::clone(&abort));
    let mut sink = AbortAtFirstCellDone {
        events: Vec::new(),
        abort,
    };
    match run_fleet(&spec, &cfg, &mut sink) {
        Err(FleetError::Interrupted) => {}
        other => panic!("expected an interrupt, got {other:?}"),
    }
    let events = sink.events;
    let (_, done) = resumed_and_done(&events);
    assert!(
        done > 0 && done < cells,
        "the abort stops the pass within the campaign: {done} of {cells} cells"
    );
    match events.last() {
        Some(Event::CampaignFailed { msg }) => assert!(msg.contains("interrupt"), "{msg}"),
        other => panic!("expected a terminal campaign_failed, got {other:?}"),
    }

    // Every streamed cell was cached; the resume reports the rest.
    let (_, resumed_events) = resume_matches(&spec, &cfg, &single);
    assert_eq!(resumed_and_done(&resumed_events), (done, cells - done));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Fails its first `cell_done` write, as a full disk under the event
/// stream would, and records every event it accepts.
#[derive(Default)]
struct FailAtFirstCellDone {
    events: Vec<Event>,
    failed: bool,
}

impl EventSink for FailAtFirstCellDone {
    fn emit(&mut self, ev: &Event) -> std::io::Result<()> {
        if matches!(ev, Event::CellDone { .. }) && !self.failed {
            self.failed = true;
            return Err(std::io::Error::other("sink disk full"));
        }
        self.events.push(ev.clone());
        Ok(())
    }
}

#[test]
fn a_failing_sink_stops_the_pass_and_its_error_is_returned() {
    let spec = three_families();
    let cells = spec.cell_count();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let dir = scratch_dir("sink-fails");

    let cfg = FleetConfig::new(&dir, 2);
    let mut sink = FailAtFirstCellDone::default();
    match run_fleet(&spec, &cfg, &mut sink) {
        Err(FleetError::Io(e)) => assert!(e.to_string().contains("sink disk full"), "{e}"),
        other => panic!("expected the sink's i/o error, got {other:?}"),
    }
    match sink.events.last() {
        Some(Event::CampaignFailed { msg }) => assert!(msg.contains("sink disk full"), "{msg}"),
        other => panic!("expected a terminal campaign_failed, got {other:?}"),
    }
    // The parked error stops the executor within the pass: the rest of
    // the grid is neither simulated nor cached.
    let cached = std::fs::read_dir(cache_dir(&dir))
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "json")
        })
        .count();
    assert!(cached < cells, "{cached} of {cells} cells cached");

    resume_matches(&spec, &cfg, &single);
    std::fs::remove_dir_all(&dir).unwrap();
}
