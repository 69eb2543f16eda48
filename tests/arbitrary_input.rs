//! Arbitrary-input properties for every parser that reads text from
//! outside the process: `sweep::json::Json::parse` (wire, event and
//! journal lines), `Scenario::parse` (scenario files and inline
//! submissions) and `serve::Message::parse_line` (the daemon's wire).
//! Random byte vectors, decoded lossily, and valid inputs with a few
//! bytes replaced, inserted or deleted, each also cut short at a random
//! byte, must come back as `Ok` or as a typed error that renders; no
//! input may panic.
//!
//! The same holds for the files a campaign reads back from disk: a
//! mutated journal header given to `JournalHeader::verify`, and mutated
//! cache entries (content and file name) in a `merge_dirs` source.

use std::os::unix::ffi::OsStrExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use griffin::fleet::events::sample::build_event;
use griffin::fleet::JournalHeader;
use griffin::serve::wire::sample::build_message;
use griffin::serve::Message;
use griffin::sweep::json::Json;
use griffin::sweep::scenario::Scenario;
use griffin::sweep::{merge_dirs, CellMetrics, Fingerprint};
use proptest::prelude::*;

/// Every shipped scenario: valid inputs to mutate.
const SCENARIOS: [&str; 7] = [
    include_str!("../scenarios/bert-seeds.toml"),
    include_str!("../scenarios/ci-smoke.toml"),
    include_str!("../scenarios/design-space.toml"),
    include_str!("../scenarios/fig5-alexnet-b.toml"),
    include_str!("../scenarios/fig5-bert-b.toml"),
    include_str!("../scenarios/pareto-bert-b.toml"),
    include_str!("../scenarios/table7-lineup.toml"),
];

/// Bytes that steer random input toward the parsers' syntax: JSON and
/// TOML structure, quotes and escapes, digits, signs and newlines.
const SYNTAX: &[u8] = b"[]{}\":,.=#\\-+0123456789eEtrufalsn \n\tux";

/// Applies `(position, byte, op)` edits to `base`: op 0 replaces the
/// byte at `position % len`, op 1 inserts before it, op 2 deletes it.
fn mutate(base: &str, edits: &[(usize, u8, usize)]) -> String {
    String::from_utf8_lossy(&mutate_bytes(base.as_bytes(), edits)).into_owned()
}

/// [`mutate`] on raw bytes, which may leave invalid UTF-8 (as a file on
/// disk can hold).
fn mutate_bytes(base: &[u8], edits: &[(usize, u8, usize)]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for &(pos, byte, op) in edits {
        let at = pos % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.push(byte),
        }
    }
    bytes
}

/// Characters for text-level edits: hex digits and their near misses,
/// JSON structure, and multi-byte characters that byte edits almost
/// never assemble into valid UTF-8.
const CHARS: [char; 12] = ['0', 'f', 'F', 'g', '+', '-', '"', '\\', '.', 'é', '€', '😀'];

/// Applies `(position, char, op)` edits to `base` as [`mutate`] does,
/// over characters drawn from [`CHARS`].
fn mutate_chars(base: &str, edits: &[(usize, usize, usize)]) -> String {
    let mut chars: Vec<char> = base.chars().collect();
    for &(pos, pick, op) in edits {
        let at = pos % (chars.len() + 1);
        let c = CHARS[pick % CHARS.len()];
        match op {
            0 if at < chars.len() => chars[at] = c,
            1 => chars.insert(at, c),
            _ if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

/// A fresh, empty directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "griffin-arbitrary-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The campaign identity the journal properties verify against.
fn journal_header() -> JournalHeader {
    JournalHeader {
        campaign: "arbitrary".into(),
        spec_fp: Fingerprint(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210),
        cells: 12,
        scenario: None,
    }
}

/// A valid journal's bytes: the header, then `entries` per-cell entry
/// lines as older coordinators appended them (resume ignores them).
fn journal_bytes(dir: &Path, entries: usize) -> Vec<u8> {
    let path = dir.join("base.jsonl");
    journal_header().write(&path).expect("write header");
    let mut bytes = std::fs::read(&path).expect("read journal");
    for cell in 0..entries {
        let fp = Fingerprint(cell as u64, 7);
        bytes.extend(format!("{{\"cell\":{},\"fp\":\"{fp}\"}}\n", cell * 5 % 12).bytes());
    }
    bytes
}

/// Cache entry `i`: its fingerprint and canonical file content.
fn cache_entry(i: u64) -> (Fingerprint, String) {
    let m = CellMetrics {
        speedup: 1.0 + i as f64 / 8.0,
        cycles: 1000.0 + i as f64,
        dense_cycles: 2000 + i,
        power_mw: 150.5,
        area_mm2: 0.25,
        tops_per_w: 9.75,
        tops_per_mm2: 7.5,
    };
    (Fingerprint(i, i * 31), m.to_json().write())
}

/// Number of `*.json` files in `dir`: what a merge reads as entries.
fn json_files(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read dir")
        .filter(|e| {
            let p = e.as_ref().expect("entry").path();
            p.extension().is_some_and(|x| x == "json")
        })
        .count() as u64
}

/// Feeds `text`, and its first `cut % (len + 1)` bytes decoded lossily,
/// to all three parsers; each must return, and every error must render
/// a message. The cut lands end-of-input inside tokens, where a parser
/// that indexes ahead without a bounds check would panic.
fn parse_all(text: &str, cut: usize) {
    let bytes = text.as_bytes();
    let prefix = String::from_utf8_lossy(&bytes[..cut % (bytes.len() + 1)]);
    for input in [text, &prefix] {
        if let Err(e) = Json::parse(input) {
            assert!(!e.to_string().is_empty());
        }
        if let Err(e) = Scenario::parse(input) {
            assert!(!e.to_string().is_empty());
        }
        if let Err(e) = Message::parse_line(input) {
            assert!(!e.to_string().is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Uniformly random bytes, decoded lossily.
    #[test]
    fn random_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=u8::MAX, 0..512),
        cut in 0usize..512,
    ) {
        parse_all(&String::from_utf8_lossy(&bytes), cut);
    }

    /// Random strings over the parsers' own syntax characters, which
    /// reach far deeper into each grammar than uniform bytes do.
    #[test]
    fn random_syntax_never_panics(
        picks in proptest::collection::vec(0usize..SYNTAX.len(), 0..512),
        cut in 0usize..512,
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| SYNTAX[i]).collect();
        parse_all(&String::from_utf8_lossy(&bytes), cut);
    }

    /// Valid wire lines (every message variant) and fleet event lines
    /// with up to five bytes edited.
    #[test]
    fn mutated_wire_and_event_lines_never_panic(
        variant in 0usize..14,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
        flag in proptest::bool::ANY,
        edits in proptest::collection::vec((0usize..100_000, 0u8..=u8::MAX, 0usize..3), 0..6),
        cut in 0usize..100_000,
    ) {
        let wire = build_message(variant, a, b, flag).to_line();
        parse_all(&mutate(&wire, &edits), cut);
        let event = build_event(variant, a, b, flag, 0).to_json().write();
        parse_all(&mutate(&event, &edits), cut);
    }

    /// Every shipped scenario file with up to five bytes edited.
    #[test]
    fn mutated_scenarios_never_panic(
        which in 0usize..SCENARIOS.len(),
        edits in proptest::collection::vec((0usize..100_000, 0u8..=u8::MAX, 0usize..3), 0..6),
        cut in 0usize..100_000,
    ) {
        parse_all(&mutate(SCENARIOS[which], &edits), cut);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A journal with up to five characters and five bytes edited, cut
    /// short at a random byte past its middle, verifies as `Ok` with a
    /// header of the same grid, or as a typed error that renders.
    #[test]
    fn mutated_journals_resume_or_refuse(
        entries in 0usize..3,
        char_edits in proptest::collection::vec((0usize..100_000, 0usize..CHARS.len(), 0usize..3), 0..6),
        edits in proptest::collection::vec((0usize..100_000, 0u8..=u8::MAX, 0usize..3), 0..6),
        cut in 0usize..100_000,
    ) {
        let dir = fresh_dir("journal");
        let text = String::from_utf8(journal_bytes(&dir, entries)).expect("journal is UTF-8");
        let mut bytes = mutate_bytes(mutate_chars(&text, &char_edits).as_bytes(), &edits);
        bytes.truncate(cut % (bytes.len() + 1) + bytes.len() / 2);
        let path = dir.join("journal.jsonl");
        std::fs::write(&path, &bytes).expect("write journal");
        let header = journal_header();
        match header.verify(&path) {
            Ok(found) => prop_assert!(found.same_grid(&header), "{:?}", found),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    /// A merge source whose first entry has up to five bytes of content
    /// and up to two bytes and two characters of its file name edited:
    /// every entry is merged, identical, invalid, healed or a conflict,
    /// and merging the same source again copies and heals nothing.
    #[test]
    fn mutated_cache_entries_merge_or_refuse(
        edits in proptest::collection::vec((0usize..100_000, 0u8..=u8::MAX, 0usize..3), 0..6),
        name_chars in proptest::collection::vec((0usize..64, 0usize..CHARS.len(), 0usize..3), 0..3),
        name_edits in proptest::collection::vec((0usize..64, 1u8..=u8::MAX, 0usize..3), 0..3),
        in_dest in proptest::bool::ANY,
    ) {
        let (src, dest) = (fresh_dir("merge-src"), fresh_dir("merge-dest"));
        for i in 1..4 {
            let (fp, text) = cache_entry(i);
            std::fs::write(src.join(format!("{fp}.json")), text).expect("write entry");
        }
        let (fp, text) = cache_entry(0);
        if in_dest {
            std::fs::write(dest.join(format!("{fp}.json")), &text).expect("write dest entry");
        }
        // A file name holds any byte but `/` and NUL (the edits never
        // produce NUL).
        let stem = mutate_chars(&fp.to_string(), &name_chars);
        let mut stem = mutate_bytes(stem.as_bytes(), &name_edits);
        stem.retain(|&b| b != b'/');
        stem.extend_from_slice(b".json");
        let name = std::ffi::OsStr::from_bytes(&stem);
        std::fs::write(src.join(name), mutate_bytes(text.as_bytes(), &edits))
            .expect("write mutated entry");

        let entries = json_files(&src);
        let r = merge_dirs(&dest, &[&src]).expect("merge reads its source");
        let accounted = r.merged + r.identical + r.invalid + r.healed + r.conflicts.len() as u64;
        prop_assert_eq!(accounted, entries, "{:?}", r);
        let again = merge_dirs(&dest, &[&src]).expect("second merge");
        prop_assert_eq!((again.merged, again.healed), (0, 0), "{:?}", again);
        std::fs::remove_dir_all(&src).expect("clean up");
        std::fs::remove_dir_all(&dest).expect("clean up");
    }
}

/// The unmutated inputs the properties start from are valid, so the
/// mutations really begin inside each grammar.
#[test]
fn mutation_bases_parse() {
    for text in SCENARIOS {
        Scenario::parse(text).expect("shipped scenario parses");
    }
    for variant in 0..14 {
        let msg = build_message(variant, 7, 11, variant % 2 == 0);
        assert_eq!(Message::parse_line(&msg.to_line()).expect("wire line"), msg);
        Json::parse(&build_event(variant, 7, 11, true, 0).to_json().write()).expect("event line");
    }
    let dir = fresh_dir("bases");
    let path = dir.join("journal.jsonl");
    for entries in [0, 2] {
        std::fs::write(&path, journal_bytes(&dir, entries)).expect("write journal");
        let found = journal_header().verify(&path).expect("journal verifies");
        assert_eq!(found, journal_header());
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}
