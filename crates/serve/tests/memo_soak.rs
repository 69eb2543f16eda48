//! Soak test of the daemon's resident workload memory: an in-process
//! daemon runs many distinct-seed campaigns back to back, and the
//! process-wide workload memo never holds more than one campaign's
//! distinct (workload, category, seed) builds, nor more mask bytes than
//! one campaign needs.
//!
//! The memo is process-wide, so this file holds a single test: no other
//! campaign in this test process can move the counts.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use griffin_serve::{Daemon, ScenarioSource, ServeConfig};
use griffin_sweep::{workload_memo_stats, MemoStats};

/// Campaigns submitted; each uses a seed no earlier one used.
const CAMPAIGNS: u64 = 50;

/// Distinct workload builds per campaign: one workload, two categories,
/// one seed.
const KEYS_PER_CAMPAIGN: usize = 2;

fn scenario(seed: u64) -> String {
    format!(
        "[scenario]\nname = \"soak\"\nseeds = [{seed}]\ncategories = [\"b\", \"ab\"]\n\n\
         [sim]\ntiles = 1\nsample_seed = 1\n\n\
         [[workload]]\nsynthetic = \"soak\"\nlayers = 1\n\n\
         [[arch]]\npreset = \"baseline\"\n"
    )
}

/// Raises the flag when dropped, including during a panic.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn resident_workloads_stay_one_campaign_deep() {
    let tmp = std::env::temp_dir().join(format!("griffin-memo-soak-{}", std::process::id()));
    let _ = fs::remove_dir_all(&tmp);
    let mut cfg = ServeConfig::new(&tmp);
    cfg.workers = 2;
    let d = Daemon::start(cfg).unwrap();

    // Poll the memo while campaigns run, not only between them. The
    // poller stops when the submitting side finishes or panics, so a
    // failed assertion fails the test instead of hanging the scope.
    let stop = AtomicBool::new(false);
    let (first, peak) = std::thread::scope(|s| {
        let stop_guard = StopOnDrop(&stop);
        let poller = s.spawn(|| {
            let mut peak = MemoStats::default();
            while !stop.load(Ordering::Relaxed) {
                let now = workload_memo_stats();
                peak.workloads = peak.workloads.max(now.workloads);
                peak.mask_bytes = peak.mask_bytes.max(now.mask_bytes);
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        });
        let mut first = None;
        for seed in 0..CAMPAIGNS {
            let acc = d
                .submit("soak", &ScenarioSource::Inline(scenario(seed)), None)
                .unwrap();
            assert!(!acc.deduped, "seed {seed} is a new scenario");
            d.wait_idle();
            d.reports(&acc.campaign)
                .unwrap_or_else(|e| panic!("campaign {seed}: {e}"));
            let after = workload_memo_stats();
            assert_eq!(after.workloads, KEYS_PER_CAMPAIGN, "after campaign {seed}");
            // Same shapes every campaign: the resident bytes stop growing
            // after the first one.
            assert_eq!(*first.get_or_insert(after), after, "after campaign {seed}");
        }
        drop(stop_guard);
        (first.unwrap(), poller.join().unwrap())
    });
    assert!(first.mask_bytes > 0);
    assert!(peak.workloads <= KEYS_PER_CAMPAIGN, "peak {peak:?}");
    assert!(peak.mask_bytes <= first.mask_bytes, "peak {peak:?}");

    // The status object reports the same numbers.
    let status = d.status();
    let memo = status.req("workload_memo").unwrap();
    assert_eq!(
        memo.req("workloads").unwrap().as_f64().unwrap(),
        KEYS_PER_CAMPAIGN as f64
    );
    assert_eq!(
        memo.req("mask_bytes").unwrap().as_f64().unwrap(),
        first.mask_bytes as f64
    );
    d.shutdown();
    let _ = fs::remove_dir_all(&tmp);
}
