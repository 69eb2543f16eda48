//! End-to-end CLI test of `griffin-cli fleet`: one-pass runs, journaled
//! resume, injected kills, interrupts and byte-identity with
//! `griffin-cli sweep` — the acceptance pin of the fleet subsystem at
//! the binary boundary.

use std::path::{Path, PathBuf};
use std::process::Command;

const CLI: &str = env!("CARGO_BIN_EXE_griffin-cli");

/// Tiny fast campaign: synth workload, one seed, fan-in 3 family
/// (7 cells).
const CAMPAIGN: &[&str] = &["synth", "b", "--tiles", "2", "--seeds", "1", "--fanin", "3"];

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
fn fleet_matches_sweep_and_resumes_from_the_journal() {
    let dir = scratch_dir("resume");

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
    fleet_args.extend(["--dir", "fs", "--csv", "fleet.csv", "--json", "fleet.json"]);
    run(&fleet_args, &dir);

    let single_csv = std::fs::read(dir.join("single.csv")).unwrap();
    assert_eq!(
        single_csv,
        std::fs::read(dir.join("fleet.csv")).unwrap(),
        "fleet CSV must be byte-identical to sweep"
    );
    assert_eq!(
        std::fs::read(dir.join("single.json")).unwrap(),
        std::fs::read(dir.join("fleet.json")).unwrap(),
        "fleet JSON must be byte-identical to sweep"
    );

    // Interrupt simulation: drop the journal's last completed cell,
    // then resume and compare again.
    let jpath = dir.join("fs/journal.jsonl");
    let text = std::fs::read_to_string(&jpath).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 2, "journal has header + entries");
    lines.pop();
    std::fs::write(&jpath, format!("{}\n", lines.join("\n"))).unwrap();

    let mut resume_args = vec!["fleet"];
    resume_args.extend(CAMPAIGN);
    resume_args.extend(["--resume", "--dir", "fs", "--csv", "resumed.csv"]);
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
fn a_killed_shard_fails_the_campaign_and_resume_matches_sweep() {
    let dir = scratch_dir("chaos");

    let mut sweep_args = vec!["sweep"];
    sweep_args.extend(CAMPAIGN);
    sweep_args.extend(["--workers", "2", "--csv", "single.csv"]);
    run(&sweep_args, &dir);

    // Kill the campaign after one completed cell: it fails with a
    // terminal event, and no shard lifecycle line is written.
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(["--dir", "fs", "--csv", "fleet.csv"]);
    let out = Command::new(CLI)
        .args(&fleet_args)
        .env("GRIFFIN_FAULT", "kill:after=1")
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "a killed campaign fails");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fault injected"), "stderr: {stderr}");
    assert!(
        !dir.join("fleet.csv").exists(),
        "no report from a failed run"
    );

    let events = std::fs::read_to_string(dir.join("fs/events.jsonl")).unwrap();
    assert_eq!(events.matches("\"ev\":\"cell_done\"").count(), 1);
    assert!(!events.contains("\"ev\":\"shard_"), "{events}");
    let last = events.lines().last().unwrap();
    assert!(
        last.contains("\"campaign_failed\""),
        "terminal event: {last}"
    );

    // Resume with the fault cleared: byte-identical to sweep.
    let mut resume_args = fleet_args.clone();
    resume_args.push("--resume");
    run(&resume_args, &dir);
    assert_eq!(
        std::fs::read(dir.join("single.csv")).unwrap(),
        std::fs::read(dir.join("fleet.csv")).unwrap(),
        "a killed-then-resumed campaign is byte-identical to sweep"
    );
    let events = std::fs::read_to_string(dir.join("fs/events.jsonl")).unwrap();
    let last = events.lines().last().unwrap();
    assert!(last.contains("\"campaign_done\""), "terminal event: {last}");
    for line in events.lines() {
        griffin::fleet::Event::parse_line(line).expect("every stream line parses");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_garbage_fault_plan_is_refused_loudly() {
    let dir = scratch_dir("chaos-typo");
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(["--dir", "fs"]);
    let out = Command::new(CLI)
        .args(&fleet_args)
        .env("GRIFFIN_FAULT", "kill:after=one")
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
    fleet_args.extend(["--dir", "fs"]);
    run(&fleet_args, &dir);

    // Same state dir, different seed axis → different grid → refused.
    let out = Command::new(CLI)
        .args([
            "fleet", "synth", "b", "--tiles", "2", "--seeds", "2", "--fanin", "3", "--dir", "fs",
            "--resume",
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

/// Whether process `pid` has a handler installed for SIGINT, from the
/// `SigCgt` mask in `/proc/<pid>/status`.
#[cfg(target_os = "linux")]
fn catches_sigint(pid: u32) -> bool {
    const SIGINT: u32 = 2;
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("SigCgt:"))
        .and_then(|mask| u64::from_str_radix(mask.trim(), 16).ok())
        .is_some_and(|mask| mask & (1 << (SIGINT - 1)) != 0)
}

/// The interrupt lands at a fixed point, with no timing: `--events`
/// names a FIFO nobody has opened, so the fleet blocks opening it after
/// installing its SIGINT handler. The signal is sent while it is parked
/// there; the open resumes once the test opens the read end, and the
/// run sees the abort before its first work item.
#[cfg(target_os = "linux")]
#[test]
fn sigint_drains_cleanly_and_resume_completes_byte_identical() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = scratch_dir("sigint");

    let mut sweep_args = vec!["sweep"];
    sweep_args.extend(CAMPAIGN);
    sweep_args.extend(["--workers", "2", "--csv", "single.csv"]);
    run(&sweep_args, &dir);

    let fifo = dir.join("events.fifo");
    assert!(Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .unwrap()
        .success());
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(["--dir", "fs", "--csv", "fleet.csv"]);
    let child = Command::new(CLI)
        .args(&fleet_args)
        .args(["--events", "events.fifo"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    let pid = child.id();
    let waited = Instant::now();
    while !catches_sigint(pid) {
        assert!(
            waited.elapsed() < Duration::from_secs(60),
            "the fleet never installed its SIGINT handler"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(Command::new("kill")
        .args(["-INT", &pid.to_string()])
        .status()
        .unwrap()
        .success());
    // Opening the read end lets the fleet's open return; reading to EOF
    // waits for the run to close the stream.
    let events = std::fs::read_to_string(&fifo).unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1), "an interrupted campaign fails");
    assert!(
        !dir.join("fleet.csv").exists(),
        "no report from a failed run"
    );

    // The stream terminated with a campaign_failed naming the
    // interrupt before any cell started, and every line parses.
    let last = events.lines().last().unwrap();
    assert!(
        last.contains("\"campaign_failed\"") && last.contains("interrupt"),
        "terminal event: {last}"
    );
    assert!(!events.contains("\"ev\":\"cell_start\""), "{events}");
    assert!(!events.contains("\"ev\":\"cell_done\""), "{events}");
    for line in events.lines() {
        griffin::fleet::Event::parse_line(line).expect("every stream line parses");
    }

    // The journal survived: a resume finishes the campaign
    // byte-identical to the single-process sweep.
    let mut resume_args = vec!["fleet"];
    resume_args.extend(CAMPAIGN);
    resume_args.extend(["--resume", "--dir", "fs", "--csv", "resumed.csv"]);
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
    fleet_args.extend(["--hosts", "local", "--dir", "fs"]);
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

/// Runs `fleet` over [`CAMPAIGN`] with `extra` flags in `dir` and
/// returns the output, for the refusal tests.
fn fleet_with(extra: &[&str], dir: &Path) -> std::process::Output {
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(extra);
    Command::new(CLI)
        .args(&fleet_args)
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn the_removed_spawn_and_heartbeat_timeout_flags_are_unknown_flags() {
    let dir = scratch_dir("spawn-flags");
    for (flag, value) in [
        ("--spawn", None),
        ("--no-spawn", None),
        ("--heartbeat-timeout", Some("500")),
    ] {
        // Anywhere on the line, last or followed by other flags.
        let mut last = vec!["--dir", "fs", flag];
        last.extend(value);
        let mut first = vec![flag];
        first.extend(value);
        first.extend(["--dir", "fs"]);
        for args in [last, first] {
            let out = fleet_with(&args, &dir);
            assert_eq!(out.status.code(), Some(2), "{args:?}: a usage error");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("`{flag}`")) && stderr.contains("fleet"),
                "the error names the flag and the fleet flag set: {stderr}"
            );
            assert!(!dir.join("fs").exists(), "refused before any state");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_removed_retry_flag_is_an_unknown_flag() {
    let dir = scratch_dir("retries-flag");
    let out = fleet_with(&["--max-shard-retries", "1", "--dir", "fs"], &dir);
    assert_eq!(out.status.code(), Some(2), "a usage error, not a run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`--max-shard-retries`") && stderr.contains("fleet"),
        "the error names the flag and the fleet flag set: {stderr}"
    );
    assert!(!dir.join("fs").exists(), "refused before any state");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_fleet_flag_values_name_the_flag_and_the_value() {
    let dir = scratch_dir("bad-values");
    for (args, expect) in [
        (
            &["--heartbeat", "-1", "--dir", "fs"][..],
            "--heartbeat must be a cell count (0 = off), got `-1`",
        ),
        (
            &["--heartbeat", "x", "--dir", "fs"][..],
            "--heartbeat must be a cell count (0 = off), got `x`",
        ),
        (
            &["--dir", "fs", "--heartbeat"][..],
            "--heartbeat requires a value",
        ),
    ] {
        let out = fleet_with(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}: a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("USAGE:"),
            "a pointed error, not the usage dump: {stderr}"
        );
        assert!(!dir.join("fs").exists(), "refused before any state");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_removed_stall_fault_is_refused_loudly() {
    let dir = scratch_dir("stall");
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(["--dir", "fs"]);
    let out = Command::new(CLI)
        .args(&fleet_args)
        .env("GRIFFIN_FAULT", "stall:shard=0:after=1:attempt=any")
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "refused, not run clean");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("GRIFFIN_FAULT") && stderr.contains("unknown fault `stall`"),
        "stderr: {stderr}"
    );
    assert!(!dir.join("fs").exists(), "refused before any state");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every input the retired shards read is refused by name, before any
/// state is written: `fleet --shards`, `serve --shards`, a scenario's
/// `[fleet] shards` and the fault plan's `shard=` field.
#[test]
fn the_removed_shard_inputs_are_refused_by_name() {
    let dir = scratch_dir("shard-inputs");

    let out = fleet_with(&["--shards", "2", "--dir", "fs"], &dir);
    assert_eq!(out.status.code(), Some(2), "a usage error, not a run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`--shards` is not a fleet or sweep option"),
        "{stderr}"
    );

    let out = Command::new(CLI)
        .args(["serve", "sd", "--shards", "2"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "a usage error, not a daemon");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown serve option `--shards`"),
        "{stderr}"
    );
    assert!(!dir.join("sd").exists(), "no daemon state");

    std::fs::write(
        dir.join("sharded.toml"),
        "[scenario]\nname = \"x\"\ncategories = [\"b\"]\nseeds = [1]\n\
         [[workload]]\nsynthetic = \"synth\"\nlayers = 4\n\
         [[arch]]\npreset = \"baseline\"\n[fleet]\nshards = 2\n",
    )
    .unwrap();
    let out = Command::new(CLI)
        .args(["fleet", "--scenario", "sharded.toml", "--dir", "fs"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "a usage error, not a run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 11") && stderr.contains("`shards` in [fleet] is no longer supported"),
        "{stderr}"
    );

    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(["--dir", "fs"]);
    let out = Command::new(CLI)
        .args(&fleet_args)
        .env("GRIFFIN_FAULT", "kill:shard=1:after=1")
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "refused, not run clean");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("GRIFFIN_FAULT") && stderr.contains("the `shard` field was removed"),
        "{stderr}"
    );
    assert!(!dir.join("fs").exists(), "refused before any state");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_worker_is_not_a_subcommand() {
    let dir = scratch_dir("shard-worker");
    let out = Command::new(CLI)
        .args([
            "shard-worker",
            "synth",
            "b",
            "--shards",
            "2",
            "--shard",
            "0",
            "--cache",
            "c",
        ])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "usage, exit 2");
    assert!(out.stdout.is_empty(), "no event stream on stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE:"), "stderr: {stderr}");
    assert!(!stderr.contains("shard-worker"), "usage no longer lists it");
    assert!(!dir.join("c").exists(), "nothing ran");
    std::fs::remove_dir_all(&dir).unwrap();
}
