//! Dependency-free JSON reading and writing.
//!
//! The sweep engine serializes campaign reports and cache entries as
//! JSON without pulling in serde (the build environment is offline).
//! Numbers are written with Rust's shortest-round-trip float formatting,
//! so `parse(write(x)) == x` holds exactly for every `f64` the simulator
//! produces; integers that must survive beyond 2^53 (seeds) are written
//! as strings by the callers.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every document
/// the program writes nests a handful of levels; the bound keeps the
/// recursive parser's stack use fixed, so hostile input (a wire line of
/// 500,000 `[`) is refused instead of overflowing a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Parse or access error.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description with byte offset.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError { msg: msg.into() })
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(entries: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Obj(entries.into_iter().collect())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Required member lookup.
    pub fn req(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .map_or_else(|| err(format!("missing key `{key}`")), Ok)
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(v) => Ok(*v),
            _ => err("expected number"),
        }
    }

    /// Encodes an `f64` losslessly: finite values as numbers, the
    /// non-finite values (which JSON numbers cannot express) as the
    /// strings `"NaN"` / `"inf"` / `"-inf"`. Decode with
    /// [`Json::as_f64_lossless`].
    pub fn from_f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else if v.is_nan() {
            Json::Str("NaN".into())
        } else if v > 0.0 {
            Json::Str("inf".into())
        } else {
            Json::Str("-inf".into())
        }
    }

    /// Decodes the encoding of [`Json::from_f64`].
    pub fn as_f64_lossless(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(v) => Ok(*v),
            Json::Str(s) => match s.as_str() {
                "NaN" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                _ => err(format!("bad float `{s}`")),
            },
            _ => err("expected number"),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => err("expected string"),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            _ => err("expected array"),
        }
    }

    /// The value as a `u64`, accepting both numbers and decimal strings
    /// (the writer uses strings for full 64-bit precision).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Ok(*v as u64),
            Json::Str(s) => s.parse().map_err(|_| JsonError {
                msg: format!("bad u64 `{s}`"),
            }),
            _ => err("expected u64"),
        }
    }

    /// Serializes to compact JSON.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (must consume all non-whitespace input).
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

fn write_num(v: f64, out: &mut String) {
    if v.is_finite() {
        // Rust's float Display is shortest-round-trip; integers render
        // without a fraction, which JSON accepts.
        out.push_str(&v.to_string());
    } else {
        // JSON has no Inf/NaN; null is the conventional substitute.
        out.push_str("null");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, `depth` containers deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match b.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii slice");
    match text.parse::<f64>() {
        Ok(v) => Ok(Json::Num(v)),
        Err(_) => err(format!("bad number `{text}` at byte {start}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or(JsonError {
                                msg: "bad \\u escape".into(),
                            })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                            msg: format!("bad \\u{hex}"),
                        })?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return err("bad escape"),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash.
                // Both are ASCII, so the run ends on a character
                // boundary; validating one run at a time keeps a long
                // string linear (re-validating the rest of the input
                // per character made a 1 MiB wire line take ~25 s).
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |i| *pos + i);
                let run = std::str::from_utf8(&b[*pos..end]).map_err(|_| JsonError {
                    msg: "invalid utf-8".into(),
                })?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return err(format!("expected , or ] at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return err(format!("expected key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return err(format!("expected : at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos, depth)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return err(format!("expected , or }} at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for src in ["null", "true", "false", "0", "-1.5", "\"hi\"", "[]", "{}"] {
            let v = Json::parse(src).unwrap();
            assert_eq!(Json::parse(&v.write()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for v in [0.1, 1.0 / 3.0, 2.5e-17, f64::MAX, 123456789.123456] {
            let j = Json::Num(v);
            let back = Json::parse(&j.write()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn nested_structures() {
        let src = r#"{"a": [1, 2, {"b": "x,y", "c": null}], "d": true}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.req("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.req("a").unwrap().as_arr().unwrap()[2]
                .req("b")
                .unwrap()
                .as_str()
                .unwrap(),
            "x,y"
        );
        assert_eq!(Json::parse(&v.write()).unwrap(), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "quote\" slash\\ newline\n tab\t unicode é control\u{1}";
        let j = Json::Str(s.to_string());
        assert_eq!(Json::parse(&j.write()).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn u64_precision_via_strings() {
        let big = u64::MAX - 1;
        let j = Json::Str(big.to_string());
        assert_eq!(j.as_u64().unwrap(), big);
        assert_eq!(Json::Num(42.0).as_u64().unwrap(), 42);
        assert!(Json::Num(0.5).as_u64().is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::Null.req("x").is_err());
    }

    #[test]
    fn hostile_nesting_is_refused_not_a_stack_overflow() {
        // Half a million `[` used to recurse once per byte and abort
        // the process.
        let too_deep = format!("nesting deeper than {MAX_DEPTH}");
        let e = Json::parse(&"[".repeat(500_000)).unwrap_err();
        assert!(e.msg.starts_with(&too_deep), "{e}");
        let e = Json::parse(&"{\"a\":".repeat(500_000)).unwrap_err();
        assert!(e.msg.starts_with(&too_deep), "{e}");
        // The limit itself parses; one level more does not.
        let at = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at).is_ok());
        let e = Json::parse(&format!("[{at}]")).unwrap_err();
        assert!(e.msg.starts_with(&too_deep), "{e}");
        // Ordinary malformed input keeps its own message.
        let e = Json::parse("[1,]").unwrap_err();
        assert!(!e.msg.starts_with(&too_deep), "{e}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A wire line is capped at 1 MiB; one string that long must
        // parse in milliseconds, not in time quadratic in its length.
        let body = "aé\\\"\\u00e9€".repeat(80_000);
        let line = format!("{{\"msg\":\"{body}\"}}");
        assert!(line.len() > 1 << 20);
        let t = std::time::Instant::now();
        let v = Json::parse(&line).unwrap();
        let took = t.elapsed();
        assert_eq!(
            v.req("msg").unwrap().as_str().unwrap(),
            "aé\"é€".repeat(80_000)
        );
        assert!(took.as_secs_f64() < 5.0, "1 MiB string took {took:?}");
    }

    #[test]
    fn nan_and_inf_write_as_null() {
        assert_eq!(Json::Num(f64::NAN).write(), "null");
        assert_eq!(Json::Num(f64::INFINITY).write(), "null");
    }
}
