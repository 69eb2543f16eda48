//! End-to-end CLI tests of the observability layer: `fleet watch`
//! (one-shot JSON, live follow) and `fleet report --html`, pinned
//! against `events.jsonl` ground truth — including on a chaos fleet
//! whose shard is killed mid-campaign and then resumed.

use std::path::{Path, PathBuf};
use std::process::Command;

use griffin::sweep::json::Json;

const CLI: &str = env!("CARGO_BIN_EXE_griffin-cli");

/// Tiny fast campaign: synth workload, one seed, fan-in 3 family
/// (7 cells).
const CAMPAIGN: &[&str] = &["synth", "b", "--tiles", "2", "--seeds", "1", "--fanin", "3"];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("griffin-watch-cli-{tag}-{}", std::process::id()));
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

/// Parses the one-line `griffin-watch-summary/1` JSON from stdout.
fn summary_of(out: &std::process::Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find(|l| l.contains("griffin-watch-summary/1"))
        .unwrap_or_else(|| panic!("no summary line in: {text}"));
    Json::parse(line).expect("summary parses")
}

fn field(j: &Json, key: &str) -> f64 {
    j.req(key).and_then(Json::as_f64).unwrap()
}

/// Runs the [`CAMPAIGN`] fleet in `dir` with shard 1 killed after one
/// cell, and checks that it fails. Returns the fleet flags, so the
/// caller can resume with them.
fn killed_fleet(dir: &Path) -> Vec<&'static str> {
    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(["--shards", "2", "--dir", "fs", "--heartbeat", "1"]);
    let out = Command::new(CLI)
        .args(&fleet_args)
        .env("GRIFFIN_FAULT", "kill:shard=1:after=1")
        .current_dir(dir)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "a killed fleet fails:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    fleet_args
}

#[test]
fn watch_json_matches_event_stream_ground_truth_on_a_chaos_fleet() {
    let dir = scratch_dir("chaos");

    // A fleet whose shard 1 dies after one cell fails; the resume
    // appends a second run to the same stream and finishes it.
    let mut fleet_args = killed_fleet(&dir);
    fleet_args.push("--resume");
    run(&fleet_args, &dir);

    let events = std::fs::read_to_string(dir.join("fs/events.jsonl")).unwrap();
    let starts: Vec<usize> = events
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("\"ev\":\"campaign_start\""))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(starts.len(), 2, "the killed run and its resume");
    assert_eq!(
        events
            .lines()
            .filter(|l| l.contains("\"ev\":\"shard_failed\""))
            .count(),
        1,
        "the killed run failed once"
    );
    // The model resets at each campaign_start, so its counters are the
    // resumed run's.
    let resumed_run: Vec<&str> = events.lines().skip(starts[1]).collect();
    let count = |marker: &str| resumed_run.iter().filter(|l| l.contains(marker)).count();

    let watch = run(&["fleet", "watch", "fs", "--json"], &dir);
    let s = summary_of(&watch);

    // The acceptance pin: every summary counter equals what grep finds
    // in the stream itself.
    assert_eq!(
        field(&s, "restarts") as usize,
        1,
        "killed once, resumed once"
    );
    assert_eq!(
        field(&s, "retries") as usize,
        count("\"ev\":\"shard_retried\""),
    );
    assert_eq!(field(&s, "retries") as usize, 0, "no retries");
    assert_eq!(field(&s, "done") as usize, field(&s, "cells") as usize);
    assert_eq!(field(&s, "cells") as usize, 7, "synth fan-in 3 grid");
    assert_eq!(
        field(&s, "cell_events") as usize,
        count("\"ev\":\"cell_done\""),
    );
    assert_eq!(
        field(&s, "cache_hits") as usize,
        resumed_run
            .iter()
            .filter(|l| l.contains("\"ev\":\"cell_done\"") && l.contains("\"cached\":true"))
            .count(),
    );
    assert_eq!(
        field(&s, "failures") as usize,
        count("\"ev\":\"shard_failed\""),
    );
    assert_eq!(field(&s, "parse_errors") as usize, 0);
    assert_eq!(s.req("state").unwrap().as_str().unwrap(), "done");

    // The v2 heartbeat enrichment is on the wire.
    let hb = events
        .lines()
        .find(|l| l.contains("\"ev\":\"heartbeat\""))
        .expect("--heartbeat 1 produces heartbeats");
    assert!(hb.contains("\"elapsed_ms\":"), "enriched heartbeat: {hb}");
    assert!(hb.contains("\"cached\":"), "enriched heartbeat: {hb}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn live_watch_follows_a_running_chaos_fleet_to_campaign_done() {
    let dir = scratch_dir("live");

    // Kill the fleet mid-run, then start its resume WITHOUT waiting,
    // streaming to a file the watcher follows from before it exists.
    let mut fleet_args = killed_fleet(&dir);
    fleet_args.extend(["--resume", "--events", "live.jsonl"]);
    let mut fleet = Command::new(CLI)
        .args(&fleet_args)
        .current_dir(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Attach a live watcher concurrently; it must ride through the
    // resumed run and exit 0 at the terminal campaign_done.
    let watch = Command::new(CLI)
        .args([
            "fleet",
            "watch",
            "fs",
            "--events",
            "live.jsonl",
            "--no-tty",
            "--interval",
            "25",
            "--timeout",
            "120000",
        ])
        .current_dir(&dir)
        .output()
        .unwrap();
    let fleet_status = fleet.wait().unwrap();
    assert!(fleet_status.success(), "the resumed chaos fleet completes");
    let stdout = String::from_utf8_lossy(&watch.stdout);
    let stderr = String::from_utf8_lossy(&watch.stderr);
    assert!(
        watch.status.success(),
        "live watch must exit 0 on campaign_done:\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.lines().last().unwrap().contains("state=done"),
        "line mode ends in the terminal state: {stdout}"
    );
    assert!(
        stdout.contains("done=7/7"),
        "final progress reaches the full grid: {stdout}"
    );
    assert!(
        stderr.contains("campaign done"),
        "human confirmation on stderr: {stderr}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn html_report_is_emitted_and_self_contained() {
    let dir = scratch_dir("html");

    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(["--shards", "2", "--dir", "fs"]);
    run(&fleet_args, &dir);

    run(&["fleet", "report", "fs", "--html", "page.html"], &dir);
    let page = std::fs::read_to_string(dir.join("page.html")).unwrap();
    assert!(page.starts_with("<!DOCTYPE html>"));
    assert!(
        !page.contains("http"),
        "self-contained page references nothing external"
    );
    assert!(page.contains("sweep-synth-b"), "campaign name on the page");
    assert!(page.contains("7 of 7 cells (100.0%)"), "progress rendered");
    assert!(page.contains("griffin-watch-summary/1"), "summary embedded");

    // Default output path: <dir>/report.html.
    run(&["fleet", "report", "fs"], &dir);
    assert!(dir.join("fs/report.html").is_file());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn watch_json_follow_streams_summaries_and_watch_errors_cleanly() {
    let dir = scratch_dir("follow");

    let mut fleet_args = vec!["fleet"];
    fleet_args.extend(CAMPAIGN);
    fleet_args.extend(["--shards", "2", "--dir", "fs"]);
    run(&fleet_args, &dir);

    // --json-follow on a finished stream: at least one summary line,
    // the last one terminal.
    let out = run(
        &[
            "fleet",
            "watch",
            "fs",
            "--json-follow",
            "--interval",
            "25",
            "--timeout",
            "60000",
        ],
        &dir,
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let last = Json::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(last.req("state").unwrap().as_str().unwrap(), "done");
    assert_eq!(field(&last, "done") as usize, 7);

    // One-shot --json on a missing stream is a loud failure, not a
    // silent empty summary.
    let missing = Command::new(CLI)
        .args(["fleet", "watch", "no-such-dir", "--json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(!missing.status.success());
    assert!(
        String::from_utf8_lossy(&missing.stderr).contains("cannot read event stream"),
        "stderr names the problem"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
