//! Arbitrary-input properties for every parser that reads text from
//! outside the process: `sweep::json::Json::parse` (wire, event and
//! journal lines), `Scenario::parse` (scenario files and inline
//! submissions) and `serve::Message::parse_line` (the daemon's wire).
//! Random byte vectors, decoded lossily, and valid inputs with a few
//! bytes replaced, inserted or deleted, each also cut short at a random
//! byte, must come back as `Ok` or as a typed error that renders; no
//! input may panic.

use griffin::fleet::events::sample::build_event;
use griffin::serve::wire::sample::build_message;
use griffin::serve::Message;
use griffin::sweep::json::Json;
use griffin::sweep::scenario::Scenario;
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
    let mut bytes = base.as_bytes().to_vec();
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
    String::from_utf8_lossy(&bytes).into_owned()
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
}
