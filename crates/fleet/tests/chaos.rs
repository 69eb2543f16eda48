//! Chaos tests of the fleet's fault tolerance: every recovery path is
//! driven by a deterministic [`FaultPlan`] and pinned to the same
//! invariant — the final report is **byte-identical** to an unfaulted
//! single-process sweep, or the campaign fails cleanly with a terminal
//! `campaign_failed` event.

use std::path::PathBuf;

use griffin_core::arch::ArchSpec;
use griffin_core::category::DnnCategory;
use griffin_fleet::coordinator::{
    journal_path, retry_backoff_ms, run_fleet, shard_cache_dir, verify_shard_sources, FleetConfig,
    FleetError,
};
use griffin_fleet::events::{Event, EventSink};
use griffin_fleet::fault::{Fault, FaultPlan};
use griffin_fleet::plan::ShardPlan;
use griffin_sim::config::{Fidelity, SimConfig};
use griffin_sweep::cache::ResultCache;
use griffin_sweep::executor::run_campaign;
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

#[test]
fn in_process_kill_is_retried_and_stays_byte_identical() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let shards = 3;
    let plan = ShardPlan::new(&spec, shards).unwrap();
    let victim = nonempty_shard(&plan);
    let dir = scratch_dir("kill");

    let mut cfg = FleetConfig::new(&dir, shards);
    cfg.retry_backoff_ms = 0;
    cfg.fault = Some(FaultPlan::parse(&format!("kill:shard={victim}:after=1")).unwrap());
    let mut rec = Recorder::default();
    let fleet = run_fleet(&spec, &cfg, &mut rec).unwrap();
    assert_eq!(to_csv(&fleet), to_csv(&single), "killed + retried == clean");
    assert_eq!(to_json(&fleet), to_json(&single));

    // Failure lifecycle: one failure, the completed cell stays
    // journaled, the rest re-queues, the retry announces attempt 1.
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
        ..
    } = failed[0]
    else {
        unreachable!()
    };
    assert_eq!((*shard, *attempt), (victim, 0));
    assert!(msg.contains("fault injected"), "{msg}");
    assert!(rec.0.contains(&Event::CellsRequeued {
        shard: victim,
        cells: plan.cells[victim].len() - 1,
    }));
    assert!(rec.0.contains(&Event::ShardRetried {
        shard: victim,
        attempt: 1,
        backoff_ms: 0,
    }));
    // The victim shard started twice; the retry skipped the journaled
    // cell.
    let victim_starts: Vec<usize> = rec
        .0
        .iter()
        .filter_map(|e| match e {
            Event::ShardStart { shard, skipped, .. } if *shard == victim => Some(*skipped),
            _ => None,
        })
        .collect();
    assert_eq!(victim_starts, vec![0, 1]);
    assert!(matches!(rec.0.last(), Some(Event::CampaignDone { .. })));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exhausted_retries_fail_cleanly_and_resume_recovers() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let shards = 2;
    let plan = ShardPlan::new(&spec, shards).unwrap();
    let victim = nonempty_shard(&plan);
    let dir = scratch_dir("exhaust");

    let mut cfg = FleetConfig::new(&dir, shards);
    cfg.max_shard_retries = 1;
    cfg.retry_backoff_ms = 0;
    cfg.fault =
        Some(FaultPlan::parse(&format!("kill:shard={victim}:after=0:attempt=any")).unwrap());
    let mut rec = Recorder::default();
    match run_fleet(&spec, &cfg, &mut rec) {
        Err(FleetError::ShardExhausted {
            shard, attempts, ..
        }) => {
            assert_eq!((shard, attempts), (victim, 2), "initial try + 1 retry");
        }
        other => panic!("expected exhausted retries, got {other:?}"),
    }
    let failures = rec
        .0
        .iter()
        .filter(|e| matches!(e, Event::ShardFailed { .. }))
        .count();
    assert_eq!(failures, 2, "every attempt's death is reported");
    assert!(
        matches!(rec.0.last(), Some(Event::CampaignFailed { .. })),
        "failure is terminal on every exit path: {:?}",
        rec.0.last()
    );

    // The state dir is not poisoned: dropping the fault and resuming
    // completes the campaign byte-identically.
    cfg.fault = None;
    cfg.resume = true;
    let mut rec = Recorder::default();
    let fleet = run_fleet(&spec, &cfg, &mut rec).unwrap();
    assert_eq!(to_csv(&fleet), to_csv(&single));
    assert!(matches!(rec.0.last(), Some(Event::CampaignDone { .. })));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn retry_backoff_schedule_is_exact_and_bounded() {
    let spec = spec();
    let shards = 2;
    let plan = ShardPlan::new(&spec, shards).unwrap();
    let victim = nonempty_shard(&plan);
    let dir = scratch_dir("backoff");

    // A shard that dies on every attempt walks the whole backoff
    // schedule before exhausting its budget.
    let mut cfg = FleetConfig::new(&dir, shards);
    cfg.max_shard_retries = 3;
    cfg.retry_backoff_ms = 8;
    cfg.fault =
        Some(FaultPlan::parse(&format!("kill:shard={victim}:after=0:attempt=any")).unwrap());
    let mut rec = Recorder::default();
    assert!(matches!(
        run_fleet(&spec, &cfg, &mut rec),
        Err(FleetError::ShardExhausted { .. })
    ));

    let schedule: Vec<(usize, u64)> = rec
        .0
        .iter()
        .filter_map(|e| match e {
            Event::ShardRetried {
                shard,
                attempt,
                backoff_ms,
                ..
            } if *shard == victim => Some((*attempt, *backoff_ms)),
            _ => None,
        })
        .collect();
    let expect: Vec<(usize, u64)> = (1..=3)
        .map(|a| (a, retry_backoff_ms(victim, a, 8)))
        .collect();
    assert_eq!(
        schedule, expect,
        "every retry announces the exact planned backoff"
    );
    // Bounded exponential with deterministic jitter: attempt N waits
    // base << (N-1) plus a jitter strictly under max(base/4, 1).
    for (a, ms) in &expect {
        let exp = 8u64 << (a - 1).min(6);
        assert!(*ms >= exp && *ms < exp + 2, "attempt {a} waited {ms}ms");
    }
    // The exponent is capped: attempt 70 waits no longer than attempt 7.
    assert!(retry_backoff_ms(victim, 70, 8) <= retry_backoff_ms(victim, 7, 8) + 2);
    // Zero base (the fast-test escape hatch) and attempt 0 never wait.
    assert_eq!(retry_backoff_ms(victim, 1, 0), 0);
    assert_eq!(retry_backoff_ms(victim, 0, 8), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_shard_cache_heals_through_merge_and_replay() {
    let spec = spec();
    let single = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
    let shards = 3;
    let plan = ShardPlan::new(&spec, shards).unwrap();
    let victim = nonempty_shard(&plan);
    let dir = scratch_dir("corrupt");

    // Standalone cache corruption: the shard "completes", but its cache
    // looks like a process died mid-write (torn entry + stray tmp).
    let mut cfg = FleetConfig::new(&dir, shards);
    cfg.fault = Some(FaultPlan::parse(&format!("corrupt-cache:shard={victim}")).unwrap());
    let mut rec = Recorder::default();
    let fleet = run_fleet(&spec, &cfg, &mut rec).unwrap();
    assert_eq!(
        to_csv(&fleet),
        to_csv(&single),
        "replay re-simulates whatever the torn entry held"
    );
    assert!(
        shard_cache_dir(&dir, victim).join("fault.tmp.0.0").exists(),
        "the stray tmp was left for merge to skip"
    );
    let Some(Event::MergeDone { conflicts, .. }) =
        rec.0.iter().find(|e| matches!(e, Event::MergeDone { .. }))
    else {
        panic!("no merge_done");
    };
    assert_eq!(*conflicts, 0, "torn entries are skipped, not conflicts");
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

/// The pre-merge probe turns "something squatting on a shard cache
/// name" into a typed error naming the path, instead of an opaque io
/// failure halfway through the merge.
#[test]
fn a_file_squatting_on_a_shard_dir_is_a_typed_merge_error() {
    let dir = scratch_dir("merge-squat");
    std::fs::create_dir_all(&dir).unwrap();
    let squatter = dir.join("shard-0");
    std::fs::write(&squatter, b"not a directory").unwrap();
    match verify_shard_sources(std::slice::from_ref(&squatter)) {
        Err(e @ FleetError::ShardDirUnreadable { .. }) => {
            let FleetError::ShardDirUnreadable { dir: d, .. } = &e else {
                unreachable!()
            };
            assert_eq!(d, &squatter);
            // The operator-facing message names the path.
            assert!(e.to_string().contains("shard-0"), "{e}");
        }
        other => panic!("expected ShardDirUnreadable, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A shard cache whose permissions were stripped fails the campaign
/// with the typed error (and a terminal `campaign_failed`), not a
/// partial merge. Self-skips under root, where DAC is bypassed and
/// the directory stays readable.
#[cfg(unix)]
#[test]
fn an_unreadable_shard_dir_fails_the_merge_with_a_typed_error() {
    use std::os::unix::fs::PermissionsExt;
    let spec = spec();
    let shards = 2;
    let dir = scratch_dir("merge-denied");

    let mut cfg = FleetConfig::new(&dir, shards);
    cfg.retry_backoff_ms = 0;
    run_fleet(&spec, &cfg, &mut Recorder::default()).unwrap();

    let victim = shard_cache_dir(&dir, 0);
    std::fs::set_permissions(&victim, std::fs::Permissions::from_mode(0o000)).unwrap();
    let readable = std::fs::read_dir(&victim).is_ok();
    if readable {
        // Root reads it anyway; nothing to assert on this machine.
        std::fs::set_permissions(&victim, std::fs::Permissions::from_mode(0o755)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }

    // Resume: every cell is journaled, so the campaign goes straight
    // to the merge — which must refuse the unreadable source.
    let mut cfg = FleetConfig::new(&dir, shards);
    cfg.resume = true;
    cfg.retry_backoff_ms = 0;
    let mut rec = Recorder::default();
    match run_fleet(&spec, &cfg, &mut rec) {
        Err(FleetError::ShardDirUnreadable { dir: d, .. }) => assert_eq!(d, victim),
        other => panic!("expected ShardDirUnreadable, got {other:?}"),
    }
    assert!(
        matches!(rec.0.last(), Some(Event::CampaignFailed { .. })),
        "the stream still terminates"
    );
    std::fs::set_permissions(&victim, std::fs::Permissions::from_mode(0o755)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
