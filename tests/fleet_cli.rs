//! End-to-end CLI test of `griffin-cli fleet`: subprocess shard
//! workers, journaled resume, and byte-identity with `griffin-cli
//! sweep` — the acceptance pin of the fleet subsystem at the binary
//! boundary.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const CLI: &str = env!("CARGO_BIN_EXE_griffin-cli");

/// Tiny fast campaign: synth workload, one seed, fan-in 3 family
/// (7 cells).
const CAMPAIGN: &[&str] = &["synth", "b", "--tiles", "2", "--seeds", "1", "--fanin", "3"];

/// The [`CAMPAIGN`] tokens as the spec the CLI builds from them — the
/// same construction `build_sweep_spec` performs, so tests can compute
/// the deterministic shard plan the coordinator will use.
fn campaign_spec() -> griffin::sweep::SweepSpec {
    let mut spec = griffin::sweep::SweepSpec::new("sweep-synth-b")
        .category(griffin::core::category::DnnCategory::B)
        .seeds([1])
        .sim(griffin::sim::config::SimConfig {
            fidelity: griffin::sim::config::Fidelity::Sampled {
                tiles: 2,
                seed: 0xBEEF,
            },
            ..Default::default()
        });
    spec.workloads
        .push(griffin::sweep::scenario::parse_workload("synth").expect("synth token"));
    spec.arch(griffin::core::arch::ArchSpec::dense())
        .family(griffin::sweep::ArchFamily::SparseB { max_fanin: 3 })
}

/// Polls `path` until it contains `needle` (files the campaign is
/// still writing), or gives up after `timeout`.
fn wait_for_marker(path: &Path, needle: &str, timeout: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if std::fs::read_to_string(path).is_ok_and(|s| s.contains(needle)) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("griffin-fleet-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str], cwd: &Path) -> std::process::Output {
    let out = Command::new(CLI)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn griffin-cli");
    assert!(
        out.status.success(),
        "`griffin-cli {}` failed:\n{}\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn spawned_fleet_matches_sweep_and_resumes_from_the_journal() {
    let dir = scratch_dir("spawn");

    let mut sweep_args = vec!["sweep"];
    sweep_args.extend(CAMPAIGN);
    sweep_args.extend([
        "--workers",
        "2",
        "--csv",
        "single.csv",
        "--json",
        "single.json",
    ]);
    run(&sweep_args, &dir);

    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend([
        "--shards",
        "2",
        "--spawn",
        "--dir",
        "fs",
        "--csv",
        "fleet.csv",
        "--json",
        "fleet.json",
    ]);
    run(&fleet_args, &dir);

    let single_csv = std::fs::read(dir.join("single.csv")).unwrap();
    assert_eq!(
        single_csv,
        std::fs::read(dir.join("fleet.csv")).unwrap(),
        "spawned fleet CSV must be byte-identical to sweep"
    );
    assert_eq!(
        std::fs::read(dir.join("single.json")).unwrap(),
        std::fs::read(dir.join("fleet.json")).unwrap(),
        "spawned fleet JSON must be byte-identical to sweep"
    );

    // Interrupt simulation: drop the journal's last completed cell,
    // then resume (still spawned) and compare again.
    let jpath = dir.join("fs/journal.jsonl");
    let text = std::fs::read_to_string(&jpath).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 2, "journal has header + entries");
    lines.pop();
    std::fs::write(&jpath, format!("{}\n", lines.join("\n"))).unwrap();

    let mut resume_args = vec!["fleet"];
    resume_args.extend(CAMPAIGN);
    resume_args.extend([
        "--shards",
        "2",
        "--spawn",
        "--resume",
        "--dir",
        "fs",
        "--csv",
        "resumed.csv",
    ]);
    run(&resume_args, &dir);
    assert_eq!(
        single_csv,
        std::fs::read(dir.join("resumed.csv")).unwrap(),
        "resumed fleet CSV must be byte-identical to sweep"
    );

    // The event stream is valid JSONL with a campaign_done terminator.
    let events = std::fs::read_to_string(dir.join("fs/events.jsonl")).unwrap();
    let last = events.lines().last().unwrap();
    assert!(
        last.contains("\"campaign_done\""),
        "stream ends the campaign: {last}"
    );
    for line in events.lines() {
        griffin::fleet::Event::parse_line(line).expect("every stream line parses");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_worker_is_retried_and_the_report_still_matches_sweep() {
    let dir = scratch_dir("chaos");

    let mut sweep_args = vec!["sweep"];
    sweep_args.extend(CAMPAIGN);
    sweep_args.extend(["--workers", "2", "--csv", "single.csv"]);
    run(&sweep_args, &dir);

    // Kill shard 1's worker after one completed cell; the coordinator
    // must re-queue its remaining cells onto a respawned worker and
    // still produce the byte-identical report.
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend([
        "--shards",
        "3",
        "--spawn",
        "--dir",
        "fs",
        "--csv",
        "fleet.csv",
    ]);
    let out = Command::new(CLI)
        .args(&fleet_args)
        .env("GRIFFIN_FAULT", "kill:shard=1:after=1")
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "chaos fleet must recover:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(dir.join("single.csv")).unwrap(),
        std::fs::read(dir.join("fleet.csv")).unwrap(),
        "a retried campaign is byte-identical to sweep"
    );

    let events = std::fs::read_to_string(dir.join("fs/events.jsonl")).unwrap();
    for marker in [
        "\"ev\":\"shard_failed\"",
        "\"ev\":\"cells_requeued\"",
        "\"ev\":\"shard_retried\"",
        "griffin-fleet-events/3",
    ] {
        assert!(events.contains(marker), "stream must record {marker}");
    }
    let last = events.lines().last().unwrap();
    assert!(last.contains("\"campaign_done\""), "terminal event: {last}");
    for line in events.lines() {
        griffin::fleet::Event::parse_line(line).expect("every stream line parses");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exhausted_retries_fail_with_a_terminal_campaign_failed() {
    let dir = scratch_dir("chaos-exhaust");
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend([
        "--shards",
        "2",
        "--spawn",
        "--dir",
        "fs",
        "--max-shard-retries",
        "1",
    ]);
    let out = Command::new(CLI)
        .args(&fleet_args)
        .env("GRIFFIN_FAULT", "kill:shard=0:after=0:attempt=any")
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success(), "a shard that always dies must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("retries exhausted"), "stderr: {stderr}");

    let events = std::fs::read_to_string(dir.join("fs/events.jsonl")).unwrap();
    let last = events.lines().last().unwrap();
    assert!(
        last.contains("\"campaign_failed\""),
        "failures are terminal too: {last}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_garbage_fault_plan_is_refused_loudly() {
    let dir = scratch_dir("chaos-typo");
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(["--shards", "2", "--dir", "fs"]);
    let out = Command::new(CLI)
        .args(&fleet_args)
        .env("GRIFFIN_FAULT", "kill:shard=one")
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "a typoed chaos experiment must not run a clean campaign"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("GRIFFIN_FAULT"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fleet_rejects_resuming_a_different_campaign_grid() {
    let dir = scratch_dir("mismatch");
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(["--shards", "2", "--dir", "fs"]);
    run(&fleet_args, &dir);

    // Same state dir, different seed axis → different grid → refused.
    let out = Command::new(CLI)
        .args([
            "fleet", "synth", "b", "--tiles", "2", "--seeds", "2", "--fanin", "3", "--shards", "2",
            "--dir", "fs", "--resume",
        ])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("different campaign"),
        "stderr should explain the mismatch: {stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sigint_drains_cleanly_and_resume_completes_byte_identical() {
    let dir = scratch_dir("sigint");

    let mut sweep_args = vec!["sweep"];
    sweep_args.extend(CAMPAIGN);
    sweep_args.extend(["--workers", "2", "--csv", "single.csv"]);
    run(&sweep_args, &dir);

    // A worker that goes silent after one cell keeps the campaign
    // running forever (no heartbeat timeout is set) — the interrupt is
    // the only way out, exactly the operator scenario.
    let plan = griffin::fleet::plan::ShardPlan::new(&campaign_spec(), 2).unwrap();
    let victim = (0..2).max_by_key(|&s| plan.cells[s].len()).unwrap();
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend([
        "--shards",
        "2",
        "--spawn",
        "--dir",
        "fs",
        "--csv",
        "fleet.csv",
    ]);
    let mut child = Command::new(CLI)
        .args(&fleet_args)
        .env(
            "GRIFFIN_FAULT",
            format!("stall:shard={victim}:after=1:attempt=any"),
        )
        .current_dir(&dir)
        .spawn()
        .unwrap();

    // Wait until real work is journaled, then ^C the coordinator.
    assert!(
        wait_for_marker(
            &dir.join("fs/events.jsonl"),
            "\"ev\":\"cell_done\"",
            Duration::from_secs(60),
        ),
        "the campaign never started producing cells"
    );
    assert!(Command::new("kill")
        .args(["-2", &child.id().to_string()])
        .status()
        .unwrap()
        .success());
    let waited = Instant::now();
    let status = loop {
        if let Some(s) = child.try_wait().unwrap() {
            break s;
        }
        assert!(
            waited.elapsed() < Duration::from_secs(60),
            "interrupted fleet did not exit"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(!status.success(), "an interrupted campaign is a failure");

    // The stream terminated with a campaign_failed naming the
    // interrupt, and every line still parses.
    let events = std::fs::read_to_string(dir.join("fs/events.jsonl")).unwrap();
    let last = events.lines().last().unwrap();
    assert!(
        last.contains("\"campaign_failed\"") && last.contains("interrupt"),
        "terminal event: {last}"
    );
    for line in events.lines() {
        griffin::fleet::Event::parse_line(line).expect("every stream line parses");
    }

    // The journal survived: a resume (fault cleared) finishes the
    // campaign byte-identical to the single-process sweep.
    let mut resume_args = vec!["fleet"];
    resume_args.extend(CAMPAIGN);
    resume_args.extend([
        "--shards",
        "2",
        "--spawn",
        "--resume",
        "--dir",
        "fs",
        "--csv",
        "resumed.csv",
    ]);
    run(&resume_args, &dir);
    assert_eq!(
        std::fs::read(dir.join("single.csv")).unwrap(),
        std::fs::read(dir.join("resumed.csv")).unwrap(),
        "resumed-after-interrupt CSV must be byte-identical to sweep"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_removed_hosts_flag_is_an_unknown_flag() {
    let dir = scratch_dir("hosts");
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(["--shards", "2", "--hosts", "local", "--dir", "fs"]);
    let out = Command::new(CLI)
        .args(&fleet_args)
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "a usage error, not a run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`--hosts`") && stderr.contains("fleet"),
        "the error names the flag and the fleet flag set: {stderr}"
    );
    assert!(
        !dir.join("fs").exists(),
        "refused before any state is written"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
