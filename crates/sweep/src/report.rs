//! Machine-readable campaign reports: dependency-free CSV and JSON
//! writers with matching parsers (used for round-trip tests and for
//! consuming earlier reports).
//!
//! Both formats are **deterministic functions of the cell list**:
//! wall-clock time, worker count and cache counters are deliberately
//! excluded so that re-running a campaign — with any worker count, hot
//! or cold cache — yields byte-identical files. Floats are written with
//! Rust's shortest-round-trip formatting, so `parse(write(r)) == r`
//! exactly.

use std::fmt;
use std::path::Path;

use crate::cache::CellMetrics;
use crate::executor::{CampaignReport, CellRecord};
use crate::json::{Json, JsonError};
use crate::scenario::{category_token, parse_category};

/// Report parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportError {
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "report error: {}", self.msg)
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(e: JsonError) -> Self {
        ReportError { msg: e.to_string() }
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, ReportError> {
    Err(ReportError { msg: msg.into() })
}

const CSV_HEADER: &str = "index,workload,category,arch,seed,fingerprint,speedup,cycles,\
                          dense_cycles,power_mw,area_mm2,tops_per_w,tops_per_mm2";

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serializes the campaign's cells as CSV (header + one row per cell).
pub fn to_csv(report: &CampaignReport) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for c in &report.cells {
        let m = &c.metrics;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            c.index,
            csv_field(&c.workload),
            category_token(c.category),
            csv_field(&c.arch),
            c.seed,
            c.fingerprint,
            m.speedup,
            m.cycles,
            m.dense_cycles,
            m.power_mw,
            m.area_mm2,
            m.tops_per_w,
            m.tops_per_mm2,
        ));
    }
    out
}

/// Splits one CSV record into fields, honouring quoting (a record may
/// span physical lines when a quoted field contains `\n`).
fn split_csv_line(line: &str) -> Result<Vec<String>, ReportError> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    loop {
        match chars.next() {
            None => {
                if quoted {
                    return err("unterminated quote");
                }
                fields.push(cur);
                return Ok(fields);
            }
            Some('"') if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            Some('"') if cur.is_empty() => quoted = true,
            Some(',') if !quoted => {
                fields.push(std::mem::take(&mut cur));
            }
            Some(c) => cur.push(c),
        }
    }
}

/// Splits CSV text into records, keeping newlines that fall inside
/// quoted fields as part of their record (unlike `str::lines`).
fn split_csv_records(text: &str) -> Vec<&str> {
    let mut records = Vec::new();
    let bytes = text.as_bytes();
    let mut start = 0;
    let mut quoted = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => quoted = !quoted,
            b'\n' if !quoted => {
                let end = if i > start && bytes[i - 1] == b'\r' {
                    i - 1
                } else {
                    i
                };
                records.push(&text[start..end]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < text.len() {
        records.push(&text[start..]);
    }
    records
}

/// Parses the CSV produced by [`to_csv`] back into cell records.
///
/// # Errors
///
/// Returns [`ReportError`] on a missing/garbled header, wrong column
/// counts or unparsable values.
pub fn parse_csv(text: &str) -> Result<Vec<CellRecord>, ReportError> {
    let mut lines = split_csv_records(text).into_iter();
    match lines.next() {
        Some(h) if h == CSV_HEADER => {}
        other => return err(format!("bad header: {other:?}")),
    }
    let mut cells = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let f = split_csv_line(line)?;
        if f.len() != 13 {
            return err(format!(
                "line {}: expected 13 fields, got {}",
                lineno + 2,
                f.len()
            ));
        }
        let num = |i: usize| -> Result<f64, ReportError> {
            f[i].parse().map_err(|_| ReportError {
                msg: format!("line {}: bad number `{}`", lineno + 2, f[i]),
            })
        };
        cells.push(CellRecord {
            index: num(0)? as usize,
            workload: f[1].clone(),
            category: parse_category(&f[2]).ok_or_else(|| ReportError {
                msg: format!("bad category `{}`", f[2]),
            })?,
            arch: f[3].clone(),
            seed: f[4].parse().map_err(|_| ReportError {
                msg: format!("bad seed `{}`", f[4]),
            })?,
            fingerprint: f[5].clone(),
            metrics: CellMetrics {
                speedup: num(6)?,
                cycles: num(7)?,
                dense_cycles: f[8].parse().map_err(|_| ReportError {
                    msg: format!("bad dense_cycles `{}`", f[8]),
                })?,
                power_mw: num(9)?,
                area_mm2: num(10)?,
                tops_per_w: num(11)?,
                tops_per_mm2: num(12)?,
            },
        });
    }
    Ok(cells)
}

/// Serializes the whole campaign as a deterministic JSON document.
pub fn to_json(report: &CampaignReport) -> String {
    let cells: Vec<Json> = report
        .cells
        .iter()
        .map(|c| {
            let mut obj = match c.metrics.to_json() {
                Json::Obj(m) => m,
                _ => unreachable!("metrics serialize to an object"),
            };
            obj.insert("index".into(), Json::Num(c.index as f64));
            obj.insert("workload".into(), Json::Str(c.workload.clone()));
            obj.insert(
                "category".into(),
                Json::Str(category_token(c.category).into()),
            );
            obj.insert("arch".into(), Json::Str(c.arch.clone()));
            obj.insert("seed".into(), Json::Str(c.seed.to_string()));
            obj.insert("fingerprint".into(), Json::Str(c.fingerprint.clone()));
            Json::Obj(obj)
        })
        .collect();
    Json::obj([
        ("campaign".into(), Json::Str(report.campaign.clone())),
        ("format".into(), Json::Str("griffin-sweep-v1".into())),
        ("cells".into(), Json::Arr(cells)),
    ])
    .write()
}

/// Parses the JSON produced by [`to_json`]. The returned report has
/// zeroed cache/worker/elapsed fields (they are not serialized).
///
/// # Errors
///
/// Returns [`ReportError`] on malformed JSON or a wrong format tag.
pub fn parse_json(text: &str) -> Result<CampaignReport, ReportError> {
    let v = Json::parse(text)?;
    if v.req("format")?.as_str()? != "griffin-sweep-v1" {
        return err("unknown report format");
    }
    let cells = v
        .req("cells")?
        .as_arr()?
        .iter()
        .map(|c| -> Result<CellRecord, ReportError> {
            Ok(CellRecord {
                index: c.req("index")?.as_f64()? as usize,
                workload: c.req("workload")?.as_str()?.to_string(),
                category: parse_category(c.req("category")?.as_str()?).ok_or_else(|| {
                    ReportError {
                        msg: "bad category".into(),
                    }
                })?,
                arch: c.req("arch")?.as_str()?.to_string(),
                seed: c.req("seed")?.as_u64()?,
                fingerprint: c.req("fingerprint")?.as_str()?.to_string(),
                metrics: CellMetrics::from_json(c)?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CampaignReport {
        campaign: v.req("campaign")?.as_str()?.to_string(),
        cells,
        cache: Default::default(),
        workers: 0,
        elapsed_ms: 0,
    })
}

/// Writes `contents` to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_file(path: impl AsRef<Path>, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_core::category::DnnCategory;

    fn sample_report() -> CampaignReport {
        let mk = |i: usize, arch: &str, speedup: f64| CellRecord {
            index: i,
            workload: "BERT (MNLI)".into(),
            category: DnnCategory::B,
            arch: arch.into(),
            seed: 42,
            fingerprint: format!("{:032x}", i + 1),
            metrics: CellMetrics {
                speedup,
                cycles: 1e6 / speedup,
                dense_cycles: 1_000_000,
                power_mw: 330.25,
                area_mm2: 0.974,
                tops_per_w: 10.0 * speedup / 3.0,
                tops_per_mm2: 8.0 + speedup,
            },
        };
        CampaignReport {
            campaign: "roundtrip".into(),
            // Arch names with commas exercise CSV quoting.
            cells: vec![mk(0, "Sparse.B(4,0,1),on", 2.5), mk(1, "Baseline", 1.0)],
            cache: Default::default(),
            workers: 4,
            elapsed_ms: 123,
        }
    }

    #[test]
    fn csv_roundtrip_is_exact() {
        let r = sample_report();
        let csv = to_csv(&r);
        let back = parse_csv(&csv).unwrap();
        assert_eq!(back, r.cells);
    }

    #[test]
    fn csv_quoting_handles_commas_and_quotes() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        let f = split_csv_line("\"a,b\",c,\"say \"\"hi\"\"\"").unwrap();
        assert_eq!(f, vec!["a,b", "c", "say \"hi\""]);
    }

    #[test]
    fn csv_roundtrip_survives_newlines_in_names() {
        let mut r = sample_report();
        r.cells[0].workload = "multi\nline, \"name\"".into();
        r.cells[1].arch = "trailing\r\nreturn".into();
        let csv = to_csv(&r);
        assert_eq!(parse_csv(&csv).unwrap(), r.cells);
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let r = sample_report();
        let back = parse_json(&to_json(&r)).unwrap();
        assert_eq!(back.campaign, r.campaign);
        assert_eq!(back.cells, r.cells);
    }

    #[test]
    fn json_excludes_run_variant_fields() {
        let mut r = sample_report();
        let a = to_json(&r);
        r.workers = 64;
        r.elapsed_ms = 999_999;
        r.cache.hits = 1000;
        assert_eq!(to_json(&r), a, "report JSON depends only on cells");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_csv("nope\n1,2,3").is_err());
        assert!(parse_csv(&format!("{CSV_HEADER}\n1,2,3\n")).is_err());
        assert!(parse_json("{}").is_err());
        assert!(parse_json("{\"format\":\"other\",\"campaign\":\"x\",\"cells\":[]}").is_err());
    }

    #[test]
    fn category_tokens_roundtrip() {
        // Reports write and read categories through the registry's token
        // pair, so every category survives both formats.
        for c in DnnCategory::ALL {
            let mut r = sample_report();
            for cell in &mut r.cells {
                cell.category = c;
            }
            assert_eq!(parse_csv(&to_csv(&r)).unwrap()[0].category, c);
            assert_eq!(parse_json(&to_json(&r)).unwrap().cells[0].category, c);
        }
    }
}
