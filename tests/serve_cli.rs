//! End-to-end tests of the resident serve daemon: a real `griffin-cli
//! serve` process on a unix socket, two concurrent wire clients
//! deduplicated onto one execution, reports byte-identical to a
//! standalone `sweep`, the socket-backed `fleet watch --connect`, the
//! `serve submit/status` client verbs, and the SIGINT drain.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use griffin::serve::{Client, ReportKind, ScenarioSource, ServeAddr, StreamOutcome};
use griffin::sweep::json::Json;

const CLI: &str = env!("CARGO_BIN_EXE_griffin-cli");
const SCENARIO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/ci-smoke.toml");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("griffin-serve-cli-{tag}-{}", std::process::id()));
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

/// Starts `griffin-cli serve <dir>` and waits until its unix socket
/// accepts a handshake.
fn start_daemon(cwd: &Path, dir: &str) -> (Child, ServeAddr) {
    let child = Command::new(CLI)
        .args(["serve", dir])
        .current_dir(cwd)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve daemon");
    let addr = ServeAddr::Unix(cwd.join(dir).join("serve.sock"));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match Client::connect(&addr, "probe") {
            Ok(_) => return (child, addr),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("daemon never came up at {addr}: {e}"),
        }
    }
}

/// SIGINTs the daemon and returns its captured stderr; asserts a clean
/// (drained) exit.
fn stop_daemon(child: Child) -> String {
    let pid = child.id().to_string();
    assert!(Command::new("kill")
        .args(["-INT", &pid])
        .status()
        .unwrap()
        .success());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "daemon must drain cleanly:\n{stderr}");
    stderr
}

fn consume(client: &mut Client) -> (Vec<String>, StreamOutcome) {
    let mut lines = Vec::new();
    let outcome = client
        .consume_stream(|_, ev| lines.push(ev.write()))
        .expect("stream to terminal");
    (lines, outcome)
}

#[test]
fn two_clients_one_execution_reports_identical_to_sweep() {
    let dir = scratch_dir("dedup");
    // Ground truth: the standalone sweep of the same scenario.
    run(
        &[
            "sweep",
            "--scenario",
            SCENARIO,
            "--workers",
            "2",
            "--csv",
            "single.csv",
        ],
        &dir,
    );
    let single = std::fs::read_to_string(dir.join("single.csv")).unwrap();

    let (child, addr) = start_daemon(&dir, "sd");
    let text = std::fs::read_to_string(SCENARIO).unwrap();
    let src = ScenarioSource::Inline(text);

    // Two clients, one execution: Bob submits while Alice's campaign
    // is in flight and gets attached to it.
    let mut alice = Client::connect(&addr, "alice").unwrap();
    let mut bob = Client::connect(&addr, "bob").unwrap();
    let acc_a = alice.submit(&src, None).unwrap();
    let acc_b = bob.submit(&src, None).unwrap();
    assert_eq!(acc_a.campaign, acc_b.campaign, "same fingerprint, one run");
    assert!(!acc_a.deduped);
    assert!(acc_b.deduped, "second submission rides the first");
    assert_eq!(acc_a.cells, 7);

    // Both streams drain concurrently and must be identical.
    let bob_thread = std::thread::spawn(move || {
        let got = consume(&mut bob);
        (bob, got)
    });
    let (lines_a, out_a) = consume(&mut alice);
    let (mut bob, (lines_b, out_b)) = bob_thread.join().unwrap();
    assert_eq!(out_a, StreamOutcome::Done);
    assert_eq!(out_b, StreamOutcome::Done);
    assert_eq!(lines_a, lines_b, "both clients see the identical stream");
    assert!(lines_a.iter().any(|l| l.contains("campaign_done")));

    // One execution — exactly one per-campaign journal directory.
    let dirs: Vec<_> = std::fs::read_dir(dir.join("sd/campaigns"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(dirs.len(), 1, "{dirs:?}");
    assert!(dirs[0].join("events.jsonl").is_file());

    // Both clients' reports are byte-identical to the standalone sweep.
    let csv_a = alice.report(&acc_a.campaign, ReportKind::Csv).unwrap();
    let csv_b = bob.report(&acc_b.campaign, ReportKind::Csv).unwrap();
    assert_eq!(csv_a, csv_b);
    assert_eq!(csv_a, single, "daemon report == standalone sweep");

    // The journaled stream works with the ordinary file-based tooling.
    let campaign_dir = dirs[0].to_str().unwrap().to_string();
    let watch = run(&["fleet", "watch", &campaign_dir, "--json"], &dir);
    let summary = Json::parse(
        String::from_utf8_lossy(&watch.stdout)
            .lines()
            .find(|l| l.contains("griffin-watch-summary/2"))
            .expect("summary line"),
    )
    .unwrap();
    assert_eq!(summary.req("state").unwrap().as_str().unwrap(), "done");
    assert_eq!(summary.req("done").unwrap().as_f64().unwrap(), 7.0);

    // Warm rerun of the finished fingerprint: a fresh campaign, served
    // entirely from the resident cache — no cell ever starts
    // simulating, and the report is still identical.
    let warm = alice.submit(&src, None).unwrap();
    assert_ne!(warm.campaign, acc_a.campaign);
    assert!(!warm.deduped, "a finished campaign is re-runnable");
    let (warm_lines, warm_out) = consume(&mut alice);
    assert_eq!(warm_out, StreamOutcome::Done);
    assert!(
        !warm_lines.iter().any(|l| l.contains("cell_start")),
        "warm rerun must not simulate: {warm_lines:?}"
    );
    let warm_csv = alice.report(&warm.campaign, ReportKind::Csv).unwrap();
    assert_eq!(warm_csv, single);

    // The socket-backed watcher replays the finished campaign and
    // exits on its terminal, same contract as the file watcher.
    let connected = run(
        &[
            "fleet",
            "watch",
            "--connect",
            &addr.to_string(),
            "--campaign",
            &warm.campaign,
            "--no-tty",
            "--interval",
            "25",
        ],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&connected.stdout);
    assert!(
        stdout.lines().last().unwrap().contains("state=done"),
        "connected watch ends terminal: {stdout}"
    );

    // Status counters over the wire: 3 submissions, 1 deduplicated,
    // per-client attribution.
    let status_out = run(&["serve", "status", "--connect", &addr.to_string()], &dir);
    let status = Json::parse(String::from_utf8_lossy(&status_out.stdout).trim()).unwrap();
    assert_eq!(
        status.req("format").unwrap().as_str().unwrap(),
        "griffin-serve-status/1"
    );
    assert_eq!(status.req("submissions").unwrap().as_f64().unwrap(), 3.0);
    assert_eq!(status.req("deduped").unwrap().as_f64().unwrap(), 1.0);
    assert_eq!(
        status.req("campaigns_served").unwrap().as_f64().unwrap(),
        2.0
    );
    let clients = status.req("clients").unwrap();
    assert!(clients.get("alice").is_some() && clients.get("bob").is_some());

    let stderr = stop_daemon(child);
    assert!(stderr.contains("draining"), "drain announced: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_submit_verb_fetches_sweep_identical_reports() {
    let dir = scratch_dir("verb");
    run(
        &[
            "sweep",
            "--scenario",
            SCENARIO,
            "--workers",
            "2",
            "--csv",
            "single.csv",
        ],
        &dir,
    );
    let (child, addr) = start_daemon(&dir, "sd");

    let submit = run(
        &[
            "serve",
            "submit",
            SCENARIO,
            "--connect",
            &addr.to_string(),
            "--csv",
            "daemon.csv",
            "--json",
            "daemon.json",
            "--quiet",
        ],
        &dir,
    );
    assert!(
        String::from_utf8_lossy(&submit.stdout).contains("done: 7 cells"),
        "{submit:?}"
    );
    let single = std::fs::read_to_string(dir.join("single.csv")).unwrap();
    let daemon_csv = std::fs::read_to_string(dir.join("daemon.csv")).unwrap();
    assert_eq!(daemon_csv, single, "serve submit --csv == standalone sweep");
    assert!(dir.join("daemon.json").is_file());

    stop_daemon(child);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs `griffin-cli` with `args` in `cwd` and returns its exit code
/// and the `campaign …` line it ended on (stderr).
fn watch_end(args: &[&str], cwd: &Path) -> (Option<i32>, String) {
    let out = Command::new(CLI)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn griffin-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let end = stderr
        .lines()
        .rfind(|l| l.starts_with("campaign "))
        .unwrap_or_else(|| panic!("no campaign end line: {stderr}"));
    (out.status.code(), end.to_string())
}

/// The daemon watcher ends on the campaign's own terminal event: a
/// finished campaign reads the same as through the file watcher, and a
/// cancelled one names its cause.
#[test]
fn connected_watcher_reports_the_campaign_end_like_the_file_watcher() {
    let dir = scratch_dir("watch-end");
    let (child, addr) = start_daemon(&dir, "sd");
    let addr_s = addr.to_string();
    let text = std::fs::read_to_string(SCENARIO).unwrap();
    let mut client = Client::connect(&addr, "watch-end").unwrap();

    let done = client
        .submit(&ScenarioSource::Inline(text.clone()), None)
        .unwrap();
    assert_eq!(consume(&mut client).1, StreamOutcome::Done);
    let connected = watch_end(
        &[
            "fleet",
            "watch",
            "--connect",
            &addr_s,
            "--campaign",
            &done.campaign,
            "--no-tty",
        ],
        &dir,
    );
    let campaign_dir = format!("sd/campaigns/{}", done.campaign);
    let file = watch_end(&["fleet", "watch", &campaign_dir, "--no-tty"], &dir);
    assert_eq!(connected, file);
    assert_eq!(connected.0, Some(0));
    assert!(
        connected.1.starts_with("campaign done: 7 cells in "),
        "{connected:?}"
    );

    // A campaign queued behind a running one, cancelled before it runs.
    // A submitting client is subscribed to its campaign's stream, so
    // each submission gets its own client.
    let submit = |seeds: &str| {
        let src = ScenarioSource::Inline(text.replace("seeds = [1]", seeds));
        let mut c = Client::connect(&addr, "watch-end").unwrap();
        let campaign = c.submit(&src, None).unwrap().campaign;
        (c, campaign)
    };
    let (_running_client, running) = submit("seeds = [2, 3, 4, 5, 6, 7, 8, 9]");
    let (_queued_client, queued) = submit("seeds = [10]");
    assert!(client.cancel(&queued).unwrap());
    assert!(client.cancel(&running).unwrap());
    let cancelled = watch_end(
        &[
            "fleet",
            "watch",
            "--connect",
            &addr_s,
            "--campaign",
            &queued,
            "--no-tty",
        ],
        &dir,
    );
    assert_eq!(
        cancelled,
        (
            Some(1),
            "campaign failed: cancelled before execution".to_string()
        )
    );

    stop_daemon(child);
    std::fs::remove_dir_all(&dir).unwrap();
}
