//! Declarative scenario files: whole campaigns as data.
//!
//! A scenario file is a small TOML-subset document that defines
//! everything a campaign needs — workload axes, categories,
//! architectures (named presets, §VI design families, or arbitrary
//! validated window combinations), mask seeds, the simulator
//! configuration, and optional fleet settings — so campaigns can be
//! exchanged, versioned, and reproduced as artifacts instead of shell
//! history. The parser is dependency-free and line-anchored: every
//! error carries the 1-based line it was found on.
//!
//! # Format
//!
//! ```toml
//! [scenario]
//! name = "sweep-bert-b"        # campaign name (reports, cache identity)
//! seeds = [42, 43]             # mask seeds (default [0])
//! categories = ["b"]           # dense | a | b | ab
//!
//! [sim]                        # optional; defaults = SimConfig::default()
//! fidelity = "sampled"         # or "exact"
//! tiles = 12                   # sampled tiles per layer
//! sample_seed = 0xBEEF         # tile-subset RNG seed
//! priority = "own_first"       # or "earliest_first"
//! core = [16, 16, 4]           # (K0, N0, M0), each 1..=4096
//! bandwidth = "provisioned"    # or [a, b, dram] bytes/cycle
//!
//! [[workload]]
//! suite = "bert"               # a Table-IV benchmark …
//!
//! [[workload]]
//! synthetic = "pruned"         # … or a synthetic network …
//! layers = 4
//!
//! [[workload]]
//! adhoc = "gemm"               # … or one ad-hoc GEMM layer
//! m = 32
//! k = 256
//! n = 32
//! a_density = 1.0
//! b_density = 0.2
//!
//! [[arch]]
//! preset = "baseline"          # a named preset (or "table7-lineup")
//!
//! [[arch]]
//! family = "b"                 # a §VI design-family enumeration
//! fanin = 8
//!
//! [[arch]]
//! kind = "sparse.b"            # an arbitrary validated design point
//! b = [8, 0, 1]
//! shuffle = true
//! # name = "…"                 # optional display-name override
//!
//! [fleet]                      # optional defaults for `fleet --scenario`
//! shards = 2
//! ```
//!
//! # Identity
//!
//! [`Scenario::to_spec`] is lossless: the resulting [`SweepSpec`]
//! fingerprints cell-for-cell identically to the equivalent hand-built
//! spec, so disk caches and fleet journals produced by token-based CLI
//! invocations keep hitting. [`Scenario::fingerprint`] hashes the
//! [`Scenario::canonical`] text — the provenance identity that fleet
//! runs record in the journal header and `campaign_start` event.
//!
//! The module doubles as the **token registry**: the valid
//! workload/category/architecture/family token sets (and their
//! parsers) that the CLI and the scenario parser consume uniformly,
//! plus nearest-match suggestions for typos.

use std::fmt;
use std::path::Path;

use griffin_core::arch::{ArchKind, ArchSpec};
use griffin_core::category::DnnCategory;
use griffin_sim::bandwidth::BwPolicy;
use griffin_sim::config::{Fidelity, Priority, SimConfig};
use griffin_tensor::shape::CoreDims;
use griffin_workloads::suite::Benchmark;

use crate::fingerprint::{Fingerprint, Hasher};
use crate::spec::{ArchFamily, SweepSpec, WorkloadSpec};

// ---------------------------------------------------------------------
// Token registry
// ---------------------------------------------------------------------

/// Valid workload tokens (Table-IV benchmarks plus `synth`).
pub const WORKLOAD_TOKENS: &[&str] = &[
    "alexnet",
    "googlenet",
    "resnet50",
    "inceptionv3",
    "mobilenetv2",
    "bert",
    "synth",
];

/// Valid `[[workload]] suite = …` tokens (the six benchmarks).
pub const SUITE_TOKENS: &[&str] = &[
    "alexnet",
    "googlenet",
    "resnet50",
    "inceptionv3",
    "mobilenetv2",
    "bert",
];

/// Valid category tokens.
pub const CATEGORY_TOKENS: &[&str] = &["dense", "a", "b", "ab"];

/// Valid architecture preset tokens (canonical spellings).
pub const ARCH_TOKENS: &[&str] = &[
    "baseline",
    "sparse.a*",
    "sparse.b*",
    "sparse.ab*",
    "griffin",
    "tcl.b",
    "tensordash",
    "sparten.a",
    "sparten.b",
    "sparten.ab",
    "cnvlutin",
    "cambricon-x",
];

/// Valid `[[arch]] preset = …` tokens ([`ARCH_TOKENS`] plus the
/// Table VII lineup).
pub const PRESET_TOKENS: &[&str] = &[
    "baseline",
    "sparse.a*",
    "sparse.b*",
    "sparse.ab*",
    "griffin",
    "tcl.b",
    "tensordash",
    "sparten.a",
    "sparten.b",
    "sparten.ab",
    "cnvlutin",
    "cambricon-x",
    "table7-lineup",
];

/// Valid design-family tokens.
pub const FAMILY_TOKENS: &[&str] = &["a", "b", "ab"];

/// Parses a Table-IV benchmark token (with the common aliases).
pub fn parse_suite(s: &str) -> Option<Benchmark> {
    match s.to_ascii_lowercase().as_str() {
        "alexnet" => Some(Benchmark::AlexNet),
        "googlenet" => Some(Benchmark::GoogleNet),
        "resnet50" | "resnet" => Some(Benchmark::ResNet50),
        "inceptionv3" | "inception" => Some(Benchmark::InceptionV3),
        "mobilenetv2" | "mobilenet" => Some(Benchmark::MobileNetV2),
        "bert" => Some(Benchmark::Bert),
        _ => None,
    }
}

/// Parses a workload token: a benchmark, or `synth` (the standard
/// 4-layer synthetic network used for fast smoke campaigns).
pub fn parse_workload(s: &str) -> Option<WorkloadSpec> {
    if s.eq_ignore_ascii_case("synth") {
        return Some(WorkloadSpec::Synthetic {
            name: "synth".into(),
            layers: 4,
        });
    }
    parse_suite(s).map(WorkloadSpec::Suite)
}

/// Parses a category token, or a category's display form (`DNN.B`),
/// case-insensitively.
pub fn parse_category(s: &str) -> Option<DnnCategory> {
    match s.to_ascii_lowercase().as_str() {
        "dense" | "dnn.dense" => Some(DnnCategory::Dense),
        "a" | "dnn.a" => Some(DnnCategory::A),
        "b" | "dnn.b" => Some(DnnCategory::B),
        "ab" | "dnn.ab" => Some(DnnCategory::AB),
        _ => None,
    }
}

/// The category's stable token (inverse of [`parse_category`]), as
/// scenario files and campaign reports write it.
pub fn category_token(c: DnnCategory) -> &'static str {
    match c {
        DnnCategory::Dense => "dense",
        DnnCategory::A => "a",
        DnnCategory::B => "b",
        DnnCategory::AB => "ab",
    }
}

/// The named presets: canonical token → constructor.
fn presets() -> [(&'static str, ArchSpec); 12] {
    [
        ("baseline", ArchSpec::dense()),
        ("sparse.a*", ArchSpec::sparse_a_star()),
        ("sparse.b*", ArchSpec::sparse_b_star()),
        ("sparse.ab*", ArchSpec::sparse_ab_star()),
        ("griffin", ArchSpec::griffin()),
        ("tcl.b", ArchSpec::tcl_b()),
        ("tensordash", ArchSpec::tensordash()),
        ("sparten.a", ArchSpec::sparten_a()),
        ("sparten.b", ArchSpec::sparten_b()),
        ("sparten.ab", ArchSpec::sparten_ab()),
        ("cnvlutin", ArchSpec::cnvlutin()),
        ("cambricon-x", ArchSpec::cambricon_x()),
    ]
}

/// Parses an architecture preset token (with the common aliases).
pub fn parse_arch(s: &str) -> Option<ArchSpec> {
    let canon = match s.to_ascii_lowercase().as_str() {
        "baseline" | "dense" => "baseline",
        "sparse.a" | "a*" | "sparse.a*" => "sparse.a*",
        "sparse.b" | "b*" | "sparse.b*" => "sparse.b*",
        "sparse.ab" | "ab*" | "sparse.ab*" => "sparse.ab*",
        "griffin" => "griffin",
        "tcl" | "tcl.b" | "bittactical" => "tcl.b",
        "tensordash" | "tdash" => "tensordash",
        "sparten" | "sparten.ab" => "sparten.ab",
        "sparten.a" => "sparten.a",
        "sparten.b" => "sparten.b",
        "cnvlutin" => "cnvlutin",
        "cambricon" | "cambricon-x" => "cambricon-x",
        _ => return None,
    };
    presets()
        .into_iter()
        .find(|(t, _)| *t == canon)
        .map(|p| p.1)
}

/// The canonical preset token of a spec, when it *is* a preset.
pub fn preset_token(a: &ArchSpec) -> Option<&'static str> {
    presets().into_iter().find(|(_, p)| p == a).map(|p| p.0)
}

/// Parses a design-family token into an [`ArchFamily`] axis.
pub fn parse_family(s: &str, fanin: usize) -> Option<ArchFamily> {
    match s.to_ascii_lowercase().as_str() {
        "a" | "sparse.a" => Some(ArchFamily::SparseA { max_fanin: fanin }),
        "b" | "sparse.b" => Some(ArchFamily::SparseB { max_fanin: fanin }),
        "ab" | "sparse.ab" => Some(ArchFamily::SparseAB { max_fanin: fanin }),
        _ => None,
    }
}

/// The family's stable token.
pub fn family_token(f: ArchFamily) -> &'static str {
    match f {
        ArchFamily::SparseA { .. } => "a",
        ArchFamily::SparseB { .. } => "b",
        ArchFamily::SparseAB { .. } => "ab",
    }
}

/// Parses an `[[arch]] preset = …` token: a preset, or the whole
/// Table VII lineup.
pub fn parse_preset(s: &str) -> Option<Vec<ArchSpec>> {
    if matches!(
        s.to_ascii_lowercase().as_str(),
        "table7-lineup" | "lineup" | "table7"
    ) {
        return Some(ArchSpec::table7_lineup());
    }
    parse_arch(s).map(|a| vec![a])
}

/// Edit distance for typo suggestions (two rows of the DP table).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1; b.len() + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The closest candidate to a mistyped token, if any is close enough to
/// be a plausible intention (edit distance ≤ 2, or a prefix match).
pub fn suggest<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let lower = input.to_ascii_lowercase();
    candidates
        .iter()
        .map(|c| (edit_distance(&lower, c), *c))
        .filter(|(d, c)| *d <= 2 || c.starts_with(&lower) || lower.starts_with(*c))
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c)
}

/// A ready-to-print diagnostic for an unknown token: names the valid
/// set and the nearest match.
pub fn unknown_token(kind: &str, token: &str, candidates: &[&str]) -> String {
    let mut msg = format!("unknown {kind} `{token}`");
    if let Some(s) = suggest(token, candidates) {
        msg.push_str(&format!(" (did you mean `{s}`?)"));
    }
    let plural = match kind.strip_suffix('y') {
        Some(stem) => format!("{stem}ies"),
        None => format!("{kind}s"),
    };
    msg.push_str(&format!("\n  valid {plural}: {}", candidates.join(" ")));
    msg
}

// ---------------------------------------------------------------------
// Scenario model
// ---------------------------------------------------------------------

/// One declarative architecture-axis entry, as spelled in the file
/// (kept unexpanded so the canonical form stays readable).
#[derive(Debug, Clone, PartialEq)]
pub enum ArchEntry {
    /// A named preset by canonical token (or `table7-lineup`).
    Preset(String),
    /// A §VI design-family enumeration.
    Family(ArchFamily),
    /// An arbitrary validated design point.
    Custom(ArchSpec),
}

impl ArchEntry {
    /// The concrete architectures this entry contributes, in order.
    ///
    /// # Panics
    ///
    /// On a `Preset` token that is not in [`PRESET_TOKENS`]. Entries
    /// produced by [`Scenario::parse`] / [`Scenario::from_spec`] are
    /// always valid; only hand-constructed `ArchEntry::Preset` values
    /// can carry an unknown token.
    pub fn expand(&self) -> Vec<ArchSpec> {
        match self {
            ArchEntry::Preset(tok) => parse_preset(tok)
                .unwrap_or_else(|| panic!("unknown preset token `{tok}` in ArchEntry::Preset")),
            ArchEntry::Family(f) => f.enumerate(),
            ArchEntry::Custom(a) => vec![a.clone()],
        }
    }
}

/// Fleet settings a scenario may carry as defaults for
/// `fleet --scenario` (explicit CLI flags still win).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSettings {
    /// Shard count.
    pub shards: usize,
    /// Heartbeat cadence in cell completions.
    pub heartbeat_every: Option<usize>,
}

/// Scenario provenance: which file a campaign came from, and the
/// fingerprint of its canonical form. Fleet runs record this in the
/// journal header and the `campaign_start` event so result artifacts
/// stay traceable to the scenario that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioProvenance {
    /// Scenario file name (base name, host-independent).
    pub file: String,
    /// [`Scenario::fingerprint`] of the canonical form.
    pub fp: Fingerprint,
}

/// A parsed, validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Campaign name.
    pub name: String,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Category axis.
    pub categories: Vec<DnnCategory>,
    /// Architecture axis, unexpanded.
    pub archs: Vec<ArchEntry>,
    /// Mask-seed axis.
    pub seeds: Vec<u64>,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Optional fleet defaults.
    pub fleet: Option<FleetSettings>,
}

/// A line-anchored scenario error (`line` is 1-based; 0 means the
/// failure concerns the file as a whole).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line of the offending construct (0 = whole file).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            f.write_str(&self.msg)
        }
    }
}

impl std::error::Error for ScenarioError {}

fn fail<T>(line: usize, msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError {
        line,
        msg: msg.into(),
    })
}

// ---------------------------------------------------------------------
// Raw TOML-subset reader
// ---------------------------------------------------------------------

/// A raw scalar/array value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i128),
    Float(f64),
    Bool(bool),
    Arr(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Arr(_) => "array",
        }
    }
}

/// One `key = value` binding with its source line.
#[derive(Debug, Clone)]
struct Binding {
    line: usize,
    key: String,
    value: Value,
}

/// One table: a section header line plus its bindings.
#[derive(Debug, Clone)]
struct Table {
    header_line: usize,
    bindings: Vec<Binding>,
}

impl Table {
    fn get(&self, key: &str) -> Option<&Binding> {
        self.bindings.iter().find(|b| b.key == key)
    }

    /// Errors on any binding whose key is not in `known`.
    fn check_keys(&self, section: &str, known: &[&str]) -> Result<(), ScenarioError> {
        for b in &self.bindings {
            if !known.contains(&b.key.as_str()) {
                let mut msg = format!("unknown key `{}` in [{section}]", b.key);
                if let Some(s) = suggest(&b.key, known) {
                    msg.push_str(&format!(" (did you mean `{s}`?)"));
                }
                return fail(b.line, msg);
            }
        }
        Ok(())
    }
}

/// Strips a trailing `#` comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_scalar(s: &str, line: usize) -> Result<Value, ScenarioError> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return fail(line, format!("unterminated string `{s}`"));
        };
        // Reject an interior closing quote (`"a" junk "b"`).
        let mut out = String::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    other => {
                        return fail(
                            line,
                            format!("bad string escape `\\{}`", other.unwrap_or(' ')),
                        )
                    }
                },
                '"' => return fail(line, format!("unexpected `\"` inside string `{s}`")),
                c => out.push(c),
            }
        }
        return Ok(Value::Str(out));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return match i128::from_str_radix(hex, 16) {
            Ok(v) => Ok(Value::Int(v)),
            Err(_) => fail(line, format!("bad hex integer `{s}`")),
        };
    }
    if let Ok(v) = s.parse::<i128>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = s.parse::<f64>() {
        if v.is_finite() {
            return Ok(Value::Float(v));
        }
    }
    fail(line, format!("bad value `{s}`"))
}

/// Splits an array body at top-level commas (strings may contain
/// commas).
fn split_array_items(s: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            ',' if !in_str => {
                items.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        escaped = false;
    }
    items.push(&s[start..]);
    items
}

fn parse_value(s: &str, line: usize) -> Result<Value, ScenarioError> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return fail(line, format!("unterminated array `{s}`"));
        };
        if inner.trim().is_empty() {
            return Ok(Value::Arr(Vec::new()));
        }
        let items = split_array_items(inner)
            .into_iter()
            .map(|item| parse_scalar(item, line))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Value::Arr(items));
    }
    parse_scalar(s, line)
}

/// The raw document: the three scalar sections plus the two
/// array-of-tables sections.
#[derive(Debug, Default)]
struct RawDoc {
    scenario: Option<Table>,
    sim: Option<Table>,
    fleet: Option<Table>,
    workloads: Vec<Table>,
    archs: Vec<Table>,
}

fn read_document(text: &str) -> Result<RawDoc, ScenarioError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Section {
        None,
        Scenario,
        Sim,
        Fleet,
        Workload,
        Arch,
    }
    let mut doc = RawDoc::default();
    let mut section = Section::None;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let stripped = strip_comment(raw).trim();
        if stripped.is_empty() {
            continue;
        }
        if let Some(h) = stripped.strip_prefix("[[") {
            let Some(name) = h.strip_suffix("]]") else {
                return fail(line, format!("malformed section header `{stripped}`"));
            };
            section = match name.trim() {
                "workload" => {
                    doc.workloads.push(Table {
                        header_line: line,
                        bindings: Vec::new(),
                    });
                    Section::Workload
                }
                "arch" => {
                    doc.archs.push(Table {
                        header_line: line,
                        bindings: Vec::new(),
                    });
                    Section::Arch
                }
                other => {
                    return fail(
                        line,
                        format!(
                            "unknown section `[[{other}]]` (expected [[workload]] or [[arch]])"
                        ),
                    )
                }
            };
            continue;
        }
        if let Some(h) = stripped.strip_prefix('[') {
            let Some(name) = h.strip_suffix(']') else {
                return fail(line, format!("malformed section header `{stripped}`"));
            };
            let (slot, sec) = match name.trim() {
                "scenario" => (&mut doc.scenario, Section::Scenario),
                "sim" => (&mut doc.sim, Section::Sim),
                "fleet" => (&mut doc.fleet, Section::Fleet),
                other => {
                    let mut msg = format!("unknown section `[{other}]`");
                    if let Some(s) = suggest(other, &["scenario", "sim", "fleet"]) {
                        msg.push_str(&format!(" (did you mean `[{s}]`?)"));
                    }
                    return fail(line, msg);
                }
            };
            if slot.is_some() {
                return fail(line, format!("duplicate section `[{}]`", name.trim()));
            }
            *slot = Some(Table {
                header_line: line,
                bindings: Vec::new(),
            });
            section = sec;
            continue;
        }
        let Some((key, value)) = stripped.split_once('=') else {
            return fail(line, format!("expected `key = value`, got `{stripped}`"));
        };
        let key = key.trim().to_string();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return fail(line, format!("bad key `{key}`"));
        }
        let value = parse_value(value, line)?;
        let table = match section {
            Section::None => return fail(line, "key outside any section (start with [scenario])"),
            Section::Scenario => doc.scenario.as_mut().expect("current section"),
            Section::Sim => doc.sim.as_mut().expect("current section"),
            Section::Fleet => doc.fleet.as_mut().expect("current section"),
            Section::Workload => doc.workloads.last_mut().expect("current section"),
            Section::Arch => doc.archs.last_mut().expect("current section"),
        };
        if table.get(&key).is_some() {
            return fail(line, format!("duplicate key `{key}`"));
        }
        table.bindings.push(Binding { line, key, value });
    }
    Ok(doc)
}

// ---------------------------------------------------------------------
// Typed accessors
// ---------------------------------------------------------------------

fn as_str(b: &Binding) -> Result<&str, ScenarioError> {
    match &b.value {
        Value::Str(s) => Ok(s),
        other => fail(
            b.line,
            format!("`{}` must be a string, got {}", b.key, other.type_name()),
        ),
    }
}

fn as_bool(b: &Binding) -> Result<bool, ScenarioError> {
    match &b.value {
        Value::Bool(v) => Ok(*v),
        other => fail(
            b.line,
            format!("`{}` must be a boolean, got {}", b.key, other.type_name()),
        ),
    }
}

fn int_in_range(b: &Binding, v: i128, min: i128, max: i128) -> Result<i128, ScenarioError> {
    if v < min || v > max {
        return fail(
            b.line,
            format!("`{}` = {v} out of range [{min}, {max}]", b.key),
        );
    }
    Ok(v)
}

fn as_usize(b: &Binding, min: usize) -> Result<usize, ScenarioError> {
    as_usize_in(b, min, usize::MAX)
}

fn as_usize_in(b: &Binding, min: usize, max: usize) -> Result<usize, ScenarioError> {
    match &b.value {
        Value::Int(v) => Ok(int_in_range(b, *v, min as i128, max as i128)? as usize),
        other => fail(
            b.line,
            format!("`{}` must be an integer, got {}", b.key, other.type_name()),
        ),
    }
}

fn as_u64(b: &Binding) -> Result<u64, ScenarioError> {
    match &b.value {
        Value::Int(v) => Ok(int_in_range(b, *v, 0, u64::MAX as i128)? as u64),
        other => fail(
            b.line,
            format!("`{}` must be an integer, got {}", b.key, other.type_name()),
        ),
    }
}

fn as_f64(b: &Binding) -> Result<f64, ScenarioError> {
    match &b.value {
        Value::Int(v) => Ok(*v as f64),
        Value::Float(v) => Ok(*v),
        other => fail(
            b.line,
            format!("`{}` must be a number, got {}", b.key, other.type_name()),
        ),
    }
}

fn scalar_u64(v: &Value, b: &Binding) -> Result<u64, ScenarioError> {
    match v {
        Value::Int(x) if *x >= 0 && *x <= u64::MAX as i128 => Ok(*x as u64),
        _ => fail(
            b.line,
            format!("`{}` items must be non-negative integers", b.key),
        ),
    }
}

/// A `[d1, d2, d3]` borrowing-window array.
fn as_window(b: &Binding) -> Result<griffin_sim::window::BorrowWindow, ScenarioError> {
    let Value::Arr(items) = &b.value else {
        return fail(b.line, format!("`{}` must be an array [d1, d2, d3]", b.key));
    };
    if items.len() != 3 {
        return fail(
            b.line,
            format!(
                "`{}` must have exactly 3 distances, got {}",
                b.key,
                items.len()
            ),
        );
    }
    let mut d = [0usize; 3];
    for (i, item) in items.iter().enumerate() {
        d[i] = scalar_u64(item, b)? as usize;
    }
    Ok(griffin_sim::window::BorrowWindow::new(d[0], d[1], d[2]))
}

// ---------------------------------------------------------------------
// Section builders
// ---------------------------------------------------------------------

fn build_scenario_section(
    t: &Table,
) -> Result<(String, Vec<u64>, Vec<DnnCategory>), ScenarioError> {
    t.check_keys("scenario", &["name", "seeds", "categories"])?;
    let name = match t.get("name") {
        Some(b) => {
            let s = as_str(b)?;
            if s.trim().is_empty() {
                return fail(b.line, "`name` must not be empty");
            }
            s.to_string()
        }
        None => return fail(t.header_line, "[scenario] requires `name`"),
    };
    let seeds = match t.get("seeds") {
        None => vec![0],
        Some(b) => {
            let Value::Arr(items) = &b.value else {
                return fail(b.line, "`seeds` must be an array of integers");
            };
            if items.is_empty() {
                return fail(b.line, "`seeds` must not be empty");
            }
            items
                .iter()
                .map(|v| scalar_u64(v, b))
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let categories = match t.get("categories") {
        None => return fail(t.header_line, "[scenario] requires `categories`"),
        Some(b) => {
            let Value::Arr(items) = &b.value else {
                return fail(b.line, "`categories` must be an array of strings");
            };
            if items.is_empty() {
                return fail(b.line, "`categories` must not be empty");
            }
            items
                .iter()
                .map(|v| match v {
                    Value::Str(s) => parse_category(s).ok_or_else(|| ScenarioError {
                        line: b.line,
                        msg: unknown_token("category", s, CATEGORY_TOKENS),
                    }),
                    other => fail(
                        b.line,
                        format!(
                            "`categories` items must be strings, got {}",
                            other.type_name()
                        ),
                    ),
                })
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    Ok((name, seeds, categories))
}

fn build_sim_section(t: &Table) -> Result<SimConfig, ScenarioError> {
    t.check_keys(
        "sim",
        &[
            "fidelity",
            "tiles",
            "sample_seed",
            "priority",
            "core",
            "bandwidth",
        ],
    )?;
    let mut cfg = SimConfig::default();
    let exact = match t.get("fidelity") {
        None => false,
        Some(b) => match as_str(b)? {
            "sampled" => false,
            "exact" => true,
            other => {
                return fail(
                    b.line,
                    format!("`fidelity` must be \"sampled\" or \"exact\", got \"{other}\""),
                )
            }
        },
    };
    if exact {
        for key in ["tiles", "sample_seed"] {
            if let Some(b) = t.get(key) {
                return fail(
                    b.line,
                    format!("`{key}` makes no sense with fidelity = \"exact\""),
                );
            }
        }
        cfg.fidelity = Fidelity::Exact;
    } else {
        let (mut tiles, mut seed) = match Fidelity::default() {
            Fidelity::Sampled { tiles, seed } => (tiles, seed),
            Fidelity::Exact => unreachable!("default fidelity is sampled"),
        };
        if let Some(b) = t.get("tiles") {
            tiles = as_usize(b, 1)?;
        }
        if let Some(b) = t.get("sample_seed") {
            seed = as_u64(b)?;
        }
        cfg.fidelity = Fidelity::Sampled { tiles, seed };
    }
    if let Some(b) = t.get("priority") {
        cfg.priority = match as_str(b)? {
            "own_first" => Priority::OwnFirst,
            "earliest_first" => Priority::EarliestFirst,
            other => {
                return fail(
                    b.line,
                    format!(
                        "`priority` must be \"own_first\" or \"earliest_first\", got \"{other}\""
                    ),
                )
            }
        };
    }
    if let Some(b) = t.get("core") {
        let Value::Arr(items) = &b.value else {
            return fail(b.line, "`core` must be an array [k0, n0, m0]");
        };
        if items.len() != 3 {
            return fail(b.line, "`core` must have exactly 3 dimensions");
        }
        let mut d = [0usize; 3];
        for (i, item) in items.iter().enumerate() {
            d[i] = scalar_u64(item, b)? as usize;
            if d[i] == 0 {
                return fail(b.line, "`core` dimensions must be positive");
            }
            if d[i] > MAX_CORE_DIM {
                return fail(
                    b.line,
                    format!("`core` dimension {} exceeds {MAX_CORE_DIM}", d[i]),
                );
            }
        }
        cfg.core = CoreDims {
            k0: d[0],
            n0: d[1],
            m0: d[2],
        };
    }
    if let Some(b) = t.get("bandwidth") {
        cfg.bw = match &b.value {
            Value::Str(s) if s == "provisioned" => BwPolicy::Provisioned,
            Value::Str(s) => {
                return fail(
                    b.line,
                    format!("`bandwidth` must be \"provisioned\" or [a, b, dram], got \"{s}\""),
                )
            }
            Value::Arr(items) if items.len() == 3 => {
                let mut v = [0.0f64; 3];
                for (i, item) in items.iter().enumerate() {
                    v[i] = match item {
                        Value::Int(x) => *x as f64,
                        Value::Float(x) => *x,
                        other => {
                            return fail(
                                b.line,
                                format!(
                                    "`bandwidth` items must be numbers, got {}",
                                    other.type_name()
                                ),
                            )
                        }
                    };
                    if v[i] <= 0.0 || v[i].is_nan() {
                        return fail(b.line, "`bandwidth` budgets must be positive");
                    }
                }
                BwPolicy::Fixed {
                    a_bytes_per_cycle: v[0],
                    b_bytes_per_cycle: v[1],
                    dram_bytes_per_cycle: v[2],
                }
            }
            _ => {
                return fail(
                    b.line,
                    "`bandwidth` must be \"provisioned\" or [a, b, dram]",
                )
            }
        };
    }
    Ok(cfg)
}

/// Largest `layers` of a synthetic workload. The deepest suite network,
/// BERT (MNLI), has 96 layers; the bound leaves ten times that headroom
/// and refuses a runaway layer count before any mask is built.
const MAX_SYNTHETIC_LAYERS: usize = 1024;

/// Largest `m`, `k` or `n` of an ad-hoc GEMM layer, above every GEMM
/// extent in the suite (InceptionV3's largest `M` is 22 201, AlexNet's
/// largest `K` is 9 216).
const MAX_ADHOC_DIM: usize = 32_768;

/// Largest `core` dimension: 256 times the paper's widest (`K0 = N0 =
/// 16`), and inside what the simulators index with 16-bit lanes and PE
/// columns (the dual pipeline's stage-1 placements).
const MAX_CORE_DIM: usize = 4096;

fn build_workload(t: &Table) -> Result<WorkloadSpec, ScenarioError> {
    let variants: Vec<&str> = ["suite", "synthetic", "adhoc"]
        .into_iter()
        .filter(|k| t.get(k).is_some())
        .collect();
    if variants.len() != 1 {
        return fail(
            t.header_line,
            "[[workload]] must set exactly one of `suite`, `synthetic`, `adhoc`",
        );
    }
    match variants[0] {
        "suite" => {
            t.check_keys("workload", &["suite"])?;
            let b = t.get("suite").expect("checked");
            let tok = as_str(b)?;
            let bench = parse_suite(tok).ok_or_else(|| ScenarioError {
                line: b.line,
                msg: unknown_token("benchmark", tok, SUITE_TOKENS),
            })?;
            Ok(WorkloadSpec::Suite(bench))
        }
        "synthetic" => {
            t.check_keys("workload", &["synthetic", "layers"])?;
            let name = as_str(t.get("synthetic").expect("checked"))?.to_string();
            let layers = match t.get("layers") {
                Some(b) => as_usize_in(b, 1, MAX_SYNTHETIC_LAYERS)?,
                None => return fail(t.header_line, "synthetic workload requires `layers`"),
            };
            Ok(WorkloadSpec::Synthetic { name, layers })
        }
        _ => {
            t.check_keys(
                "workload",
                &["adhoc", "m", "k", "n", "a_density", "b_density"],
            )?;
            let name = as_str(t.get("adhoc").expect("checked"))?.to_string();
            let mut dims = [0usize; 3];
            for (i, key) in ["m", "k", "n"].iter().enumerate() {
                let Some(b) = t.get(key) else {
                    return fail(t.header_line, format!("adhoc workload requires `{key}`"));
                };
                dims[i] = as_usize_in(b, 1, MAX_ADHOC_DIM)?;
            }
            let mut dens = [0.0f64; 2];
            for (i, key) in ["a_density", "b_density"].iter().enumerate() {
                let Some(b) = t.get(key) else {
                    return fail(t.header_line, format!("adhoc workload requires `{key}`"));
                };
                dens[i] = as_f64(b)?;
                if !(0.0..=1.0).contains(&dens[i]) {
                    return fail(b.line, format!("`{key}` must be within [0, 1]"));
                }
            }
            Ok(WorkloadSpec::AdHoc {
                name,
                m: dims[0],
                k: dims[1],
                n: dims[2],
                a_density: dens[0],
                b_density: dens[1],
            })
        }
    }
}

fn build_arch(t: &Table) -> Result<ArchEntry, ScenarioError> {
    let variants: Vec<&str> = ["preset", "family", "kind"]
        .into_iter()
        .filter(|k| t.get(k).is_some())
        .collect();
    if variants.len() != 1 {
        return fail(
            t.header_line,
            "[[arch]] must set exactly one of `preset`, `family`, `kind`",
        );
    }
    match variants[0] {
        "preset" => {
            t.check_keys("arch", &["preset"])?;
            let b = t.get("preset").expect("checked");
            let tok = as_str(b)?;
            // Store the canonical spelling so equal entries compare equal.
            let canon = match parse_arch(tok) {
                Some(a) => preset_token(&a).expect("parse_arch yields presets"),
                None if parse_preset(tok).is_some() => "table7-lineup",
                None => return fail(b.line, unknown_token("preset", tok, PRESET_TOKENS)),
            };
            Ok(ArchEntry::Preset(canon.to_string()))
        }
        "family" => {
            t.check_keys("arch", &["family", "fanin"])?;
            let fanin = match t.get("fanin") {
                Some(b) => as_usize(b, 1)?,
                None => 8,
            };
            let b = t.get("family").expect("checked");
            let tok = as_str(b)?;
            let family = parse_family(tok, fanin).ok_or_else(|| ScenarioError {
                line: b.line,
                msg: unknown_token("family", tok, FAMILY_TOKENS),
            })?;
            Ok(ArchEntry::Family(family))
        }
        _ => {
            t.check_keys("arch", &["kind", "a", "b", "shuffle", "name"])?;
            let kb = t.get("kind").expect("checked");
            let tok = as_str(kb)?;
            let Some(kind) = ArchKind::from_token(tok) else {
                let tokens: Vec<&str> = ArchKind::ALL.iter().map(|k| k.token()).collect();
                return fail(kb.line, unknown_token("kind", tok, &tokens));
            };
            let mut builder = ArchSpec::builder(kind);
            if let Some(b) = t.get("a") {
                builder = builder.a(as_window(b)?);
            }
            if let Some(b) = t.get("b") {
                builder = builder.b(as_window(b)?);
            }
            if let Some(b) = t.get("shuffle") {
                builder = builder.shuffle(as_bool(b)?);
            }
            if let Some(b) = t.get("name") {
                builder = builder.name(as_str(b)?);
            }
            let spec = builder.build().map_err(|e| {
                // Anchor the error at the most relevant key line.
                let line = match &e {
                    griffin_core::arch::ArchError::WindowOutOfRange { side, .. }
                    | griffin_core::arch::ArchError::UnusedWindow { side, .. } => {
                        t.get(&side.to_string()).map_or(kb.line, |b| b.line)
                    }
                    griffin_core::arch::ArchError::UnusedShuffle { .. } => {
                        t.get("shuffle").map_or(kb.line, |b| b.line)
                    }
                    _ => t.get("name").map_or(kb.line, |b| b.line),
                };
                ScenarioError {
                    line,
                    msg: e.to_string(),
                }
            })?;
            Ok(ArchEntry::Custom(spec))
        }
    }
}

/// `[fleet]` keys of removed features, each with why it went. Any value
/// of such a key gets the removal answer on the key's own line.
const REMOVED_FLEET_KEYS: &[(&str, &str)] = &[
    (
        "hosts",
        "multi-host fleets were removed; fleets run on this machine",
    ),
    (
        "spawn",
        "subprocess shards were removed; shards always run in-process",
    ),
    (
        "heartbeat_timeout_ms",
        "the liveness watchdog was removed with subprocess shards",
    ),
    (
        "max_shard_retries",
        "shard retries were removed; a failed shard fails the campaign and `--resume` finishes it",
    ),
];

fn build_fleet_section(t: &Table) -> Result<FleetSettings, ScenarioError> {
    for (key, why) in REMOVED_FLEET_KEYS {
        if let Some(b) = t.get(key) {
            return fail(
                b.line,
                format!("`{key}` in [fleet] is no longer supported: {why} (drop the key)"),
            );
        }
    }
    t.check_keys("fleet", &["shards", "heartbeat"])?;
    let shards = match t.get("shards") {
        Some(b) => as_usize(b, 1)?,
        None => return fail(t.header_line, "[fleet] requires `shards`"),
    };
    let heartbeat_every = t.get("heartbeat").map(|b| as_usize(b, 0)).transpose()?;
    Ok(FleetSettings {
        shards,
        heartbeat_every,
    })
}

// ---------------------------------------------------------------------
// Scenario API
// ---------------------------------------------------------------------

impl Scenario {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// A line-anchored [`ScenarioError`] on any malformed line, unknown
    /// section/key/token, duplicate key, out-of-range window, duplicate
    /// expanded architecture name, or empty axis.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = read_document(text)?;
        let Some(scenario_table) = &doc.scenario else {
            return fail(0, "missing [scenario] section");
        };
        let (name, seeds, categories) = build_scenario_section(scenario_table)?;
        let sim = match &doc.sim {
            Some(t) => build_sim_section(t)?,
            None => SimConfig::default(),
        };
        let fleet = doc.fleet.as_ref().map(build_fleet_section).transpose()?;
        if doc.workloads.is_empty() {
            return fail(0, "scenario defines no [[workload]] entries");
        }
        let workloads = doc
            .workloads
            .iter()
            .map(build_workload)
            .collect::<Result<Vec<_>, _>>()?;
        if doc.archs.is_empty() {
            return fail(0, "scenario defines no [[arch]] entries");
        }
        let mut archs = Vec::with_capacity(doc.archs.len());
        let mut seen_names = std::collections::BTreeSet::new();
        for t in &doc.archs {
            let entry = build_arch(t)?;
            for a in entry.expand() {
                if !seen_names.insert(a.name.clone()) {
                    return fail(
                        t.header_line,
                        format!("duplicate architecture name `{}`", a.name),
                    );
                }
            }
            archs.push(entry);
        }
        Ok(Scenario {
            name,
            workloads,
            categories,
            archs,
            seeds,
            sim,
            fleet,
        })
    }

    /// Reads and parses a scenario file.
    ///
    /// # Errors
    ///
    /// As [`Scenario::parse`]; I/O failures report as line 0.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError {
            line: 0,
            msg: format!("cannot read {}: {e}", path.display()),
        })?;
        Scenario::parse(&text)
    }

    /// The concrete architecture axis, entries expanded in order.
    pub fn expanded_archs(&self) -> Vec<ArchSpec> {
        self.archs.iter().flat_map(ArchEntry::expand).collect()
    }

    /// Lossless conversion into the executable [`SweepSpec`]: the
    /// result fingerprints cell-for-cell identically to a hand-built
    /// spec with the same axes, so existing caches and journals keep
    /// matching.
    pub fn to_spec(&self) -> SweepSpec {
        SweepSpec {
            name: self.name.clone(),
            workloads: self.workloads.clone(),
            categories: self.categories.clone(),
            archs: self.expanded_archs(),
            seeds: self.seeds.clone(),
            sim: self.sim,
        }
    }

    /// The inverse of [`Scenario::to_spec`]: re-expresses a spec as a
    /// scenario (presets are recognized by value; everything else
    /// becomes a `Custom` entry). `to_spec(from_spec(s)) == s` holds
    /// for every spec.
    pub fn from_spec(spec: &SweepSpec, fleet: Option<FleetSettings>) -> Scenario {
        let archs = spec
            .archs
            .iter()
            .map(|a| match preset_token(a) {
                Some(tok) => ArchEntry::Preset(tok.to_string()),
                None => ArchEntry::Custom(a.clone()),
            })
            .collect();
        Scenario {
            name: spec.name.clone(),
            workloads: spec.workloads.clone(),
            categories: spec.categories.clone(),
            archs,
            seeds: spec.seeds.clone(),
            sim: spec.sim,
            fleet,
        }
    }

    /// The canonical scenario text: fully explicit, deterministic, and
    /// exactly re-parseable (`parse(canonical(s)) == s`).
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        // Every escape parse_scalar understands, so line-breaking and
        // quoting characters in names survive the round-trip.
        let esc = |s: &str| {
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
                .replace('\t', "\\t")
                .replace('\r', "\\r")
        };
        out.push_str("[scenario]\n");
        out.push_str(&format!("name = \"{}\"\n", esc(&self.name)));
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        out.push_str(&format!("seeds = [{}]\n", seeds.join(", ")));
        let cats: Vec<String> = self
            .categories
            .iter()
            .map(|c| format!("\"{}\"", category_token(*c)))
            .collect();
        out.push_str(&format!("categories = [{}]\n", cats.join(", ")));

        out.push_str("\n[sim]\n");
        match self.sim.fidelity {
            Fidelity::Exact => out.push_str("fidelity = \"exact\"\n"),
            Fidelity::Sampled { tiles, seed } => {
                out.push_str("fidelity = \"sampled\"\n");
                out.push_str(&format!("tiles = {tiles}\n"));
                out.push_str(&format!("sample_seed = {seed}\n"));
            }
        }
        out.push_str(&format!(
            "priority = \"{}\"\n",
            match self.sim.priority {
                Priority::OwnFirst => "own_first",
                Priority::EarliestFirst => "earliest_first",
            }
        ));
        out.push_str(&format!(
            "core = [{}, {}, {}]\n",
            self.sim.core.k0, self.sim.core.n0, self.sim.core.m0
        ));
        match self.sim.bw {
            BwPolicy::Provisioned => out.push_str("bandwidth = \"provisioned\"\n"),
            BwPolicy::Fixed {
                a_bytes_per_cycle,
                b_bytes_per_cycle,
                dram_bytes_per_cycle,
            } => out.push_str(&format!(
                "bandwidth = [{a_bytes_per_cycle}, {b_bytes_per_cycle}, {dram_bytes_per_cycle}]\n"
            )),
        }

        for w in &self.workloads {
            out.push_str("\n[[workload]]\n");
            match w {
                WorkloadSpec::Suite(b) => {
                    let tok = SUITE_TOKENS
                        .iter()
                        .find(|t| parse_suite(t) == Some(*b))
                        .expect("every benchmark has a token");
                    out.push_str(&format!("suite = \"{tok}\"\n"));
                }
                WorkloadSpec::Synthetic { name, layers } => {
                    out.push_str(&format!("synthetic = \"{}\"\n", esc(name)));
                    out.push_str(&format!("layers = {layers}\n"));
                }
                WorkloadSpec::AdHoc {
                    name,
                    m,
                    k,
                    n,
                    a_density,
                    b_density,
                } => {
                    out.push_str(&format!("adhoc = \"{}\"\n", esc(name)));
                    out.push_str(&format!("m = {m}\nk = {k}\nn = {n}\n"));
                    out.push_str(&format!("a_density = {a_density}\n"));
                    out.push_str(&format!("b_density = {b_density}\n"));
                }
            }
        }

        for a in &self.archs {
            out.push_str("\n[[arch]]\n");
            match a {
                ArchEntry::Preset(tok) => out.push_str(&format!("preset = \"{tok}\"\n")),
                ArchEntry::Family(f) => {
                    let fanin = match f {
                        ArchFamily::SparseA { max_fanin }
                        | ArchFamily::SparseB { max_fanin }
                        | ArchFamily::SparseAB { max_fanin } => *max_fanin,
                    };
                    out.push_str(&format!("family = \"{}\"\n", family_token(*f)));
                    out.push_str(&format!("fanin = {fanin}\n"));
                }
                ArchEntry::Custom(spec) => {
                    out.push_str(&format!("kind = \"{}\"\n", spec.kind.token()));
                    if !spec.a.is_zero() {
                        out.push_str(&format!(
                            "a = [{}, {}, {}]\n",
                            spec.a.d1, spec.a.d2, spec.a.d3
                        ));
                    }
                    if !spec.b.is_zero() {
                        out.push_str(&format!(
                            "b = [{}, {}, {}]\n",
                            spec.b.d1, spec.b.d2, spec.b.d3
                        ));
                    }
                    if spec.shuffle {
                        out.push_str("shuffle = true\n");
                    }
                    let default = ArchSpec::builder(spec.kind)
                        .a(spec.a)
                        .b(spec.b)
                        .shuffle(spec.shuffle)
                        .build()
                        .map(|d| d.name);
                    if default.as_deref() != Ok(&spec.name) {
                        out.push_str(&format!("name = \"{}\"\n", esc(&spec.name)));
                    }
                }
            }
        }

        if let Some(f) = &self.fleet {
            out.push_str("\n[fleet]\n");
            out.push_str(&format!("shards = {}\n", f.shards));
            if let Some(v) = f.heartbeat_every {
                out.push_str(&format!("heartbeat = {v}\n"));
            }
        }
        out
    }

    /// The stable fingerprint of this scenario's canonical form — the
    /// provenance identity fleet runs record.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = Hasher::new();
        h.str("griffin-scenario-v1").str(&self.canonical());
        h.finish()
    }

    /// Provenance for a scenario loaded from `path` (records the base
    /// name, which is host-independent).
    pub fn provenance(&self, path: impl AsRef<Path>) -> ScenarioProvenance {
        let p = path.as_ref();
        let file = p.file_name().map_or_else(
            || p.display().to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
        ScenarioProvenance {
            file,
            fp: self.fingerprint(),
        }
    }

    /// Total grid cells of the campaign this scenario defines.
    pub fn cell_count(&self) -> usize {
        self.to_spec().cell_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_sim::window::BorrowWindow;

    const BASIC: &str = r#"
# a comment
[scenario]
name = "sweep-bert-b"
seeds = [42, 43]
categories = ["b"]   # trailing comment

[sim]
tiles = 12
sample_seed = 0xBEEF

[[workload]]
suite = "bert"

[[arch]]
preset = "baseline"

[[arch]]
family = "b"
fanin = 8
"#;

    #[test]
    fn basic_scenario_matches_hand_built_spec() {
        let s = Scenario::parse(BASIC).unwrap();
        let hand = SweepSpec::new("sweep-bert-b")
            .category(DnnCategory::B)
            .seeds([42, 43])
            .sim(SimConfig {
                fidelity: Fidelity::Sampled {
                    tiles: 12,
                    seed: 0xBEEF,
                },
                ..SimConfig::default()
            })
            .benchmark(Benchmark::Bert)
            .arch(ArchSpec::dense())
            .family(ArchFamily::SparseB { max_fanin: 8 });
        assert_eq!(s.to_spec(), hand);
        assert!(s.fleet.is_none());
    }

    #[test]
    fn canonical_roundtrips() {
        let s = Scenario::parse(BASIC).unwrap();
        let text = s.canonical();
        assert_eq!(Scenario::parse(&text).unwrap(), s, "{text}");
        // Fingerprint is a function of the canonical form.
        assert_eq!(
            s.fingerprint(),
            Scenario::parse(&text).unwrap().fingerprint()
        );
    }

    #[test]
    fn control_characters_in_names_roundtrip() {
        // Raw newlines/tabs/CRs in names must be re-escaped by
        // canonical(), or the emitted document breaks its own lines.
        let spec = SweepSpec::new("multi\nline\ttab\rcr \"q\" \\b")
            .synthetic("syn\nthetic", 2)
            .category(DnnCategory::B)
            .arch(ArchSpec::dense());
        let scen = Scenario::from_spec(&spec, None);
        let text = scen.canonical();
        assert_eq!(Scenario::parse(&text).unwrap(), scen, "{text}");
    }

    #[test]
    fn from_spec_is_a_left_inverse_of_to_spec() {
        let spec = SweepSpec::new("mix")
            .adhoc_layer("g", 32, 256, 32, 1.0, 0.2)
            .synthetic("syn", 3)
            .categories([DnnCategory::AB, DnnCategory::Dense])
            .arch(ArchSpec::griffin())
            .arch(ArchSpec::sparse_b(BorrowWindow::new(8, 0, 1), true))
            .seeds([7]);
        let scen = Scenario::from_spec(&spec, None);
        assert_eq!(scen.to_spec(), spec);
        assert!(matches!(&scen.archs[0], ArchEntry::Preset(t) if t == "griffin"));
        assert!(matches!(&scen.archs[1], ArchEntry::Custom(_)));
        // And its canonical text round-trips too.
        assert_eq!(Scenario::parse(&scen.canonical()).unwrap(), scen);
    }

    #[test]
    fn custom_archs_and_all_sim_keys_parse() {
        let text = r#"
[scenario]
name = "custom"
categories = ["ab", "dense"]
seeds = [1, 2, 3]

[sim]
fidelity = "sampled"
tiles = 5
sample_seed = 99
priority = "earliest_first"
core = [8, 8, 2]
bandwidth = [64, 256, 62.5]

[[workload]]
adhoc = "gemm"
m = 32
k = 128
n = 64
a_density = 0.5
b_density = 0.25

[[arch]]
kind = "sparse.ab"
a = [1, 2, 0]
b = [3, 0, 1]
shuffle = true
name = "my point"

[fleet]
shards = 4
heartbeat = 16
"#;
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.sim.priority, Priority::EarliestFirst);
        assert_eq!(s.sim.core.k0, 8);
        assert!(matches!(s.sim.bw, BwPolicy::Fixed { .. }));
        let archs = s.expanded_archs();
        assert_eq!(archs.len(), 1);
        assert_eq!(archs[0].name, "my point");
        assert_eq!(archs[0].a, BorrowWindow::new(1, 2, 0));
        let fleet = s.fleet.clone().unwrap();
        assert_eq!(fleet.shards, 4);
        assert_eq!(fleet.heartbeat_every, Some(16));
        // Round-trip.
        assert_eq!(Scenario::parse(&s.canonical()).unwrap(), s);
    }

    /// A minimal valid scenario with the given `[fleet]` body appended.
    fn with_fleet(body: &str) -> String {
        format!(
            "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n\
             [[workload]]\nsuite = \"bert\"\n[[arch]]\npreset = \"griffin\"\n\
             [fleet]\n{body}"
        )
    }

    #[test]
    fn fleet_hosts_are_refused_as_removed() {
        let err = Scenario::parse(&with_fleet(
            "shards = 4\nhosts = [\"local:h0\", \"db@rack2\"]\n",
        ))
        .unwrap_err();
        assert_eq!(err.line, 10, "{err}");
        assert!(err.msg.contains("`hosts`"), "{err}");
        assert!(err.msg.contains("multi-host fleets were removed"), "{err}");
    }

    #[test]
    fn fleet_hosts_of_any_shape_get_the_removal_error() {
        // The shapes the old `hosts` validation refused each get the
        // removal answer on the key's line, not a type or shape error.
        for hosts in [
            "[]",
            "[\"h0\", \"h1\", \"h0\"]",
            "[\"h0\", 3]",
            "[\"  \"]",
            "\"h0\"",
        ] {
            let err = Scenario::parse(&with_fleet(&format!("shards = 2\nhosts = {hosts}\n")))
                .unwrap_err();
            assert_eq!(err.line, 10, "{hosts}: {err}");
            assert!(err.msg.contains("`hosts`"), "{hosts}: {err}");
            assert!(
                err.msg.contains("multi-host fleets were removed"),
                "{hosts}: {err}"
            );
        }
    }

    #[test]
    fn fleet_spawn_and_heartbeat_timeout_are_refused_as_removed() {
        for key in ["spawn", "heartbeat_timeout_ms"] {
            for value in ["true", "false", "0", "5000", "\"yes\"", "[1]"] {
                let err = Scenario::parse(&with_fleet(&format!(
                    "shards = 2\nheartbeat = 4\n{key} = {value}\n"
                )))
                .unwrap_err();
                assert_eq!(err.line, 11, "{key} = {value}: {err}");
                assert!(err.msg.contains(&format!("`{key}`")), "{err}");
                assert!(err.msg.contains("no longer supported"), "{err}");
                assert!(err.msg.contains("subprocess shards"), "{err}");
            }
        }
    }

    #[test]
    fn fleet_retry_budget_is_refused_as_removed() {
        for value in ["0", "2", "\"many\""] {
            let err = Scenario::parse(&with_fleet(&format!(
                "shards = 2\nheartbeat = 4\nmax_shard_retries = {value}\n"
            )))
            .unwrap_err();
            assert_eq!(err.line, 11, "max_shard_retries = {value}: {err}");
            assert!(err.msg.contains("`max_shard_retries`"), "{err}");
            assert!(err.msg.contains("no longer supported"), "{err}");
            assert!(err.msg.contains("--resume"), "{err}");
        }
    }

    #[test]
    fn exact_fidelity_roundtrips_and_rejects_tiles() {
        let s = Scenario::parse(
            "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n[sim]\nfidelity = \"exact\"\n\
             [[workload]]\nsuite = \"bert\"\n[[arch]]\npreset = \"griffin\"\n",
        )
        .unwrap();
        assert_eq!(s.sim.fidelity, Fidelity::Exact);
        assert_eq!(Scenario::parse(&s.canonical()).unwrap(), s);

        let err = Scenario::parse(
            "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n[sim]\nfidelity = \"exact\"\ntiles = 4\n\
             [[workload]]\nsuite = \"bert\"\n[[arch]]\npreset = \"griffin\"\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.msg.contains("exact"), "{err}");
    }

    #[test]
    fn oversized_workloads_are_refused_with_their_line() {
        let err = Scenario::parse(
            "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n\n\
             [[workload]]\nsynthetic = \"s\"\nlayers = 50000000\n\n\
             [[arch]]\npreset = \"baseline\"\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 7);
        assert!(
            err.msg
                .contains("`layers` = 50000000 out of range [1, 1024]"),
            "{err}"
        );

        let adhoc = |m: usize| {
            format!(
                "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n\n\
                 [[workload]]\nadhoc = \"g\"\nm = {m}\nk = 8\nn = 8\na_density = 0.5\nb_density = 0.5\n\n\
                 [[arch]]\npreset = \"baseline\"\n"
            )
        };
        let err = Scenario::parse(&adhoc(MAX_ADHOC_DIM + 1)).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.msg.contains("`m` = 32769 out of range"), "{err}");
        assert!(Scenario::parse(&adhoc(MAX_ADHOC_DIM)).is_ok());

        let core = |k0: usize| {
            format!(
                "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n\n\
                 [sim]\ncore = [{k0}, 16, 4]\n\n\
                 [[workload]]\nsynthetic = \"s\"\nlayers = 1\n\n\
                 [[arch]]\npreset = \"baseline\"\n"
            )
        };
        let err = Scenario::parse(&core(MAX_CORE_DIM + 1)).unwrap_err();
        assert!(
            err.msg.contains("`core` dimension 4097 exceeds 4096"),
            "{err}"
        );
        assert!(Scenario::parse(&core(MAX_CORE_DIM)).is_ok());
    }

    #[test]
    fn errors_are_line_anchored() {
        // Unknown key with suggestion.
        let err = Scenario::parse("[scenario]\nname = \"x\"\nseedz = [1]\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(
            err.msg.contains("seedz") && err.msg.contains("seeds"),
            "{err}"
        );

        // Malformed value.
        let err = Scenario::parse("[scenario]\nname = \"x\nseeds = [1]\n").unwrap_err();
        assert_eq!(err.line, 2);

        // Unknown section.
        let err = Scenario::parse("[scenari]\nname = \"x\"\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("scenario"), "{err}");

        // Duplicate key.
        let err = Scenario::parse("[scenario]\nname = \"x\"\nname = \"y\"\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("duplicate key"), "{err}");

        // Key outside any section.
        let err = Scenario::parse("name = \"x\"\n").unwrap_err();
        assert_eq!(err.line, 1);

        // Unknown category token with suggestion.
        let err = Scenario::parse("[scenario]\nname = \"x\"\ncategories = [\"bb\"]\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("did you mean"), "{err}");
    }

    #[test]
    fn out_of_range_windows_anchor_at_the_window_line() {
        let text = "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n\
                    [[workload]]\nsuite = \"bert\"\n\
                    [[arch]]\nkind = \"sparse.b\"\nb = [400, 0, 0]\n";
        let err = Scenario::parse(text).unwrap_err();
        assert_eq!(err.line, 8, "{err}");
        assert!(err.msg.contains("out of range"), "{err}");

        // A window on an unrouted side anchors there too.
        let text = "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n\
                    [[workload]]\nsuite = \"bert\"\n\
                    [[arch]]\nkind = \"sparse.b\"\na = [1, 0, 0]\n";
        let err = Scenario::parse(text).unwrap_err();
        assert_eq!(err.line, 8, "{err}");
    }

    #[test]
    fn duplicate_arch_names_are_rejected() {
        let text = "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n\
                    [[workload]]\nsuite = \"bert\"\n\
                    [[arch]]\npreset = \"griffin\"\n\
                    [[arch]]\npreset = \"griffin\"\n";
        let err = Scenario::parse(text).unwrap_err();
        assert_eq!(err.line, 8, "{err}");
        assert!(err.msg.contains("duplicate architecture name"), "{err}");

        // Also across a preset and the lineup that contains it.
        let text = "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n\
                    [[workload]]\nsuite = \"bert\"\n\
                    [[arch]]\npreset = \"table7-lineup\"\n\
                    [[arch]]\npreset = \"baseline\"\n";
        assert!(Scenario::parse(text).is_err());
    }

    #[test]
    fn empty_axes_are_rejected() {
        let err = Scenario::parse("[scenario]\nname = \"x\"\ncategories = [\"b\"]\n").unwrap_err();
        assert!(err.msg.contains("no [[workload]]"), "{err}");
        let err = Scenario::parse(
            "[scenario]\nname = \"x\"\ncategories = [\"b\"]\n[[workload]]\nsuite = \"bert\"\n",
        )
        .unwrap_err();
        assert!(err.msg.contains("no [[arch]]"), "{err}");
        let err = Scenario::parse("[scenario]\ncategories = [\"b\"]\n").unwrap_err();
        assert!(err.msg.contains("name"), "{err}");
    }

    #[test]
    fn registry_suggestions_are_helpful() {
        assert_eq!(suggest("resnet5", WORKLOAD_TOKENS), Some("resnet50"));
        assert_eq!(suggest("grffin", ARCH_TOKENS), Some("griffin"));
        assert_eq!(suggest("dens", CATEGORY_TOKENS), Some("dense"));
        assert_eq!(suggest("zzz", CATEGORY_TOKENS), None);
        let msg = unknown_token("category", "bee", CATEGORY_TOKENS);
        assert!(
            msg.contains("`bee`") && msg.contains("valid categories"),
            "{msg}"
        );
        assert!(msg.contains("dense a b ab"), "{msg}");
    }

    #[test]
    fn every_category_token_and_display_form_parses_back() {
        for c in DnnCategory::ALL {
            assert_eq!(parse_category(category_token(c)), Some(c), "{c}");
            let shown = c.to_string();
            assert_eq!(parse_category(&shown), Some(c), "{shown}");
            assert_eq!(parse_category(&shown.to_ascii_uppercase()), Some(c));
        }
        for t in CATEGORY_TOKENS {
            let c = parse_category(t).unwrap();
            assert_eq!(category_token(c), *t, "canonical token roundtrip");
        }
        assert_eq!(parse_category("dnn"), None);
        assert_eq!(parse_category("??"), None);
    }

    #[test]
    fn registry_tokens_all_parse() {
        for t in WORKLOAD_TOKENS {
            assert!(parse_workload(t).is_some(), "{t}");
        }
        for t in CATEGORY_TOKENS {
            assert!(parse_category(t).is_some(), "{t}");
        }
        for t in ARCH_TOKENS {
            let a = parse_arch(t).unwrap();
            assert_eq!(preset_token(&a), Some(*t), "canonical token roundtrip");
        }
        for t in FAMILY_TOKENS {
            assert!(parse_family(t, 8).is_some(), "{t}");
        }
        for t in PRESET_TOKENS {
            assert!(parse_preset(t).is_some(), "{t}");
        }
        assert_eq!(parse_preset("table7-lineup").unwrap().len(), 8);
    }

    #[test]
    fn provenance_uses_the_base_name() {
        let s = Scenario::parse(BASIC).unwrap();
        let p = s.provenance("/some/long/path/fig5-bert-b.toml");
        assert_eq!(p.file, "fig5-bert-b.toml");
        assert_eq!(p.fp, s.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_content_not_formatting() {
        let a = Scenario::parse(BASIC).unwrap();
        let reformatted = BASIC.replace("seeds = [42, 43]", "seeds = [ 42 ,43 ]  # same");
        let b = Scenario::parse(&reformatted).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let changed = BASIC.replace("seeds = [42, 43]", "seeds = [42]");
        let c = Scenario::parse(&changed).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
