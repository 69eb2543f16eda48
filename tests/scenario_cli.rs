//! End-to-end CLI tests of the scenario subsystem at the binary
//! boundary: `scenario validate/show`, `sweep --scenario` byte-identity
//! with the token spelling (including a warm shared cache), and
//! `fleet --scenario` provenance in the journal header and the
//! `campaign_start` event — the acceptance pins of the scenario
//! refactor.

use std::path::{Path, PathBuf};
use std::process::Command;

use griffin::fleet::{Event, JournalHeader, JOURNAL_FORMAT};
use griffin::sweep::json::Json;

const CLI: &str = env!("CARGO_BIN_EXE_griffin-cli");

fn repo_file(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("griffin-scenario-cli-{tag}-{}", std::process::id()));
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

fn run_fail(args: &[&str], cwd: &Path) -> String {
    let out = Command::new(CLI)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn griffin-cli");
    assert!(
        !out.status.success(),
        "`griffin-cli {}` unexpectedly succeeded",
        args.join(" ")
    );
    format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn scenario_sweep_is_byte_identical_to_tokens_and_shares_the_cache() {
    let dir = scratch_dir("sweep");
    let scen = repo_file("scenarios/ci-smoke.toml");

    // Token spelling first, populating a shared disk cache.
    run(
        &[
            "sweep",
            "synth",
            "b",
            "--tiles",
            "2",
            "--seeds",
            "1",
            "--fanin",
            "3",
            "--workers",
            "2",
            "--cache",
            "warm",
            "--csv",
            "tok.csv",
            "--json",
            "tok.json",
        ],
        &dir,
    );
    // Scenario spelling against the warm cache: byte-identical reports,
    // 100% hits (the acceptance criterion of the scenario subsystem).
    let out = run(
        &[
            "sweep",
            "--scenario",
            &scen,
            "--workers",
            "2",
            "--cache",
            "warm",
            "--csv",
            "scen.csv",
            "--json",
            "scen.json",
        ],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("7 hits / 0 misses"),
        "warm cache must fully hit:\n{stdout}"
    );
    for (a, b) in [("tok.csv", "scen.csv"), ("tok.json", "scen.json")] {
        assert_eq!(
            std::fs::read(dir.join(a)).unwrap(),
            std::fs::read(dir.join(b)).unwrap(),
            "{a} and {b} must be byte-identical"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scenario_fleet_records_provenance_and_matches_sweep() {
    let dir = scratch_dir("fleet");
    let scen = repo_file("scenarios/ci-smoke.toml");

    run(
        &[
            "sweep",
            "synth",
            "b",
            "--tiles",
            "2",
            "--seeds",
            "1",
            "--fanin",
            "3",
            "--workers",
            "2",
            "--csv",
            "single.csv",
        ],
        &dir,
    );
    // A scenario needs no fleet flags.
    run(
        &[
            "fleet",
            "--scenario",
            &scen,
            "--dir",
            "fs",
            "--csv",
            "fleet.csv",
        ],
        &dir,
    );
    assert_eq!(
        std::fs::read(dir.join("single.csv")).unwrap(),
        std::fs::read(dir.join("fleet.csv")).unwrap(),
        "scenario fleet must be byte-identical to the token sweep"
    );

    // Journal header carries the provenance pair...
    let journal = std::fs::read_to_string(dir.join("fs/journal.jsonl")).unwrap();
    let header = Json::parse(journal.lines().next().unwrap()).unwrap();
    assert_eq!(
        header.req("format").unwrap().as_str().unwrap(),
        JOURNAL_FORMAT
    );
    assert_eq!(
        header.req("scenario_file").unwrap().as_str().unwrap(),
        "ci-smoke.toml"
    );
    let journal_fp = header
        .req("scenario_fp")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // ...and campaign_start carries the same pair.
    let events = std::fs::read_to_string(dir.join("fs/events.jsonl")).unwrap();
    let first = Event::parse_line(events.lines().next().unwrap()).unwrap();
    let Event::CampaignStart { scenario, .. } = first else {
        panic!("stream must open with campaign_start");
    };
    let prov = scenario.expect("scenario-launched campaign records provenance");
    assert_eq!(prov.file, "ci-smoke.toml");
    assert_eq!(prov.fp.to_string(), journal_fp);
    // It matches the fingerprint of the shipped file itself.
    let loaded = griffin::sweep::Scenario::load(&scen).unwrap();
    assert_eq!(prov.fp, loaded.fingerprint());
    for line in events.lines() {
        Event::parse_line(line).expect("every stream line parses");
    }

    // A token-mode resume of the scenario-written journal works (and
    // vice versa): provenance never blocks the grid identity.
    let token_header = JournalHeader {
        campaign: "sweep-synth-b".into(),
        spec_fp: griffin::fleet::spec_fingerprint(&loaded.to_spec()),
        cells: 7,
        scenario: None,
    };
    griffin::fleet::Journal::peek_completed(dir.join("fs/journal.jsonl"), &token_header)
        .expect("token header must accept a scenario-written journal");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scenario_validate_show_and_diagnostics() {
    let dir = scratch_dir("validate");

    // The whole shipped library validates.
    let out = run(&["scenario", "validate", &repo_file("scenarios")], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scenario file(s) valid"), "{stdout}");
    assert!(stdout.contains("fig5-bert-b.toml"), "{stdout}");

    // show prints the grid and both fingerprints.
    let out = run(
        &["scenario", "show", &repo_file("scenarios/fig5-bert-b.toml")],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scenario `sweep-bert-b`"), "{stdout}");
    assert!(stdout.contains("spec fp"), "{stdout}");
    assert!(stdout.contains("canonical form:"), "{stdout}");

    // A malformed file fails validation with a line-anchored error.
    let bad = dir.join("bad.toml");
    std::fs::write(
        &bad,
        "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n\n[[workload]]\nsuite = \"brt\"\n\
         \n[[arch]]\npreset = \"baseline\"\n",
    )
    .unwrap();
    let msg = run_fail(&["scenario", "validate", bad.to_str().unwrap()], &dir);
    assert!(msg.contains("line 6"), "{msg}");
    assert!(msg.contains("did you mean `bert`"), "{msg}");

    // Axis flags conflict with --scenario.
    let msg = run_fail(
        &[
            "sweep",
            "--scenario",
            &repo_file("scenarios/ci-smoke.toml"),
            "--seeds",
            "9",
        ],
        &dir,
    );
    assert!(msg.contains("--seeds conflicts with --scenario"), "{msg}");

    // Unknown tokens in the token spelling explain themselves.
    let msg = run_fail(&["sweep", "bertt", "b"], &dir);
    assert!(msg.contains("did you mean `bert`"), "{msg}");
    assert!(msg.contains("valid workloads"), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}
