//! The campaign journal: the grid identity that guards `--resume`.
//!
//! A fleet campaign writes `journal.jsonl` once, at start: one header
//! line carrying the campaign's spec fingerprint ([`spec_fingerprint`])
//! and cell count. `--resume` reads only that first line and refuses to
//! resume a different grid.
//!
//! Which cells are done is not journaled. The executor writes each cell
//! to the campaign cache *before* it reports the cell, so at any crash
//! point the cache already holds every completed cell: the cache, not
//! the journal, is the resume record. Lines after the header (per-cell
//! entries written by older coordinators) are ignored.

use std::fmt;
use std::io::{self, BufRead, Read};
use std::path::Path;

use griffin_sweep::fingerprint::{Fingerprint, Hasher};
use griffin_sweep::json::Json;
use griffin_sweep::scenario::ScenarioProvenance;
use griffin_sweep::spec::SweepSpec;

/// Format tag of the header line.
pub const JOURNAL_FORMAT: &str = "griffin-fleet-journal/1";

/// Longest header line read back; a real header is a few hundred bytes,
/// so a longer first line is corrupt, and is never read whole.
const MAX_HEADER_BYTES: u64 = 64 << 10;

/// The stable identity of a whole campaign grid: name, cell count, and
/// every cell fingerprint in deterministic grid order. Two specs share
/// a spec fingerprint exactly when they would produce byte-identical
/// reports, which is the invariant resume checks.
pub fn spec_fingerprint(spec: &SweepSpec) -> Fingerprint {
    let mut h = Hasher::new();
    h.str("griffin-fleet-spec-v1").str(&spec.name);
    let cells = spec.cells();
    h.usize(cells.len());
    for c in &cells {
        let fp = c.fingerprint(&spec.sim);
        h.u64(fp.0).u64(fp.1);
    }
    h.finish()
}

/// Identity of the campaign a journal belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign name (informational; identity is the fingerprint).
    pub campaign: String,
    /// Stable grid identity ([`spec_fingerprint`]).
    pub spec_fp: Fingerprint,
    /// Total grid cells.
    pub cells: usize,
    /// Scenario provenance of the campaign, when it was launched from a
    /// scenario file. Informational — resume matches on the grid
    /// identity only, so journals written before the scenario subsystem
    /// (or by token-based runs of the same grid) still resume.
    pub scenario: Option<ScenarioProvenance>,
}

impl JournalHeader {
    /// Whether two headers describe the same campaign grid (the resume
    /// criterion: name, spec fingerprint and cell count — scenario
    /// provenance is deliberately excluded).
    pub fn same_grid(&self, other: &JournalHeader) -> bool {
        self.campaign == other.campaign
            && self.spec_fp == other.spec_fp
            && self.cells == other.cells
    }

    fn to_line(&self) -> String {
        let mut entries = vec![
            ("format".into(), Json::Str(JOURNAL_FORMAT.into())),
            ("campaign".into(), Json::Str(self.campaign.clone())),
            ("spec_fp".into(), Json::Str(self.spec_fp.to_string())),
            ("cells".into(), Json::Num(self.cells as f64)),
        ];
        if let Some(s) = &self.scenario {
            entries.push(("scenario_file".into(), Json::Str(s.file.clone())));
            entries.push(("scenario_fp".into(), Json::Str(s.fp.to_string())));
        }
        Json::obj(entries).write()
    }

    fn parse_line(line: &str) -> Result<JournalHeader, JournalError> {
        let corrupt = |e: griffin_sweep::json::JsonError| JournalError::Corrupt(e.to_string());
        let v = Json::parse(line).map_err(corrupt)?;
        let fmt_tag = v.req("format").and_then(|x| x.as_str()).map_err(corrupt)?;
        if fmt_tag != JOURNAL_FORMAT {
            return Err(JournalError::Corrupt(format!(
                "unknown journal format `{fmt_tag}`"
            )));
        }
        let fp_str = v.req("spec_fp").and_then(|x| x.as_str()).map_err(corrupt)?;
        let spec_fp = Fingerprint::parse(fp_str)
            .ok_or_else(|| JournalError::Corrupt(format!("bad spec_fp `{fp_str}`")))?;
        let cells = v.req("cells").and_then(|x| x.as_f64()).map_err(corrupt)?;
        let scenario = match (v.get("scenario_file"), v.get("scenario_fp")) {
            (None, None) => None,
            (Some(file), Some(fp)) => {
                let file = file.as_str().map_err(corrupt)?.to_string();
                let fp_str = fp.as_str().map_err(corrupt)?;
                let fp = Fingerprint::parse(fp_str)
                    .ok_or_else(|| JournalError::Corrupt(format!("bad scenario_fp `{fp_str}`")))?;
                Some(ScenarioProvenance { file, fp })
            }
            _ => {
                return Err(JournalError::Corrupt(
                    "scenario_file and scenario_fp must appear together".into(),
                ))
            }
        };
        Ok(JournalHeader {
            campaign: v
                .req("campaign")
                .and_then(|x| x.as_str())
                .map_err(corrupt)?
                .to_string(),
            spec_fp,
            cells: cells as usize,
            scenario,
        })
    }

    /// Starts a fresh journal at `path` (truncating any previous one):
    /// the header line, synced to disk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        crate::jsonl::append_line(&mut file, &self.to_line())?;
        file.sync_data()
    }

    /// Reads the header of the journal at `path` — its first line only —
    /// and checks that it describes the same grid as `self`. Returns
    /// the header found.
    ///
    /// # Errors
    ///
    /// [`JournalError::Mismatch`] when the journal records a different
    /// grid, [`JournalError::Corrupt`] when the header is unreadable,
    /// and [`JournalError::Io`] on filesystem failures.
    pub fn verify(&self, path: impl AsRef<Path>) -> Result<JournalHeader, JournalError> {
        let mut line = Vec::new();
        io::BufReader::new(std::fs::File::open(path)?)
            .take(MAX_HEADER_BYTES + 1)
            .read_until(b'\n', &mut line)?;
        if line.len() as u64 > MAX_HEADER_BYTES {
            return Err(JournalError::Corrupt("header line too long".into()));
        }
        let line = String::from_utf8(line)
            .map_err(|_| JournalError::Corrupt("header is not UTF-8".into()))?;
        if line.trim().is_empty() {
            return Err(JournalError::Corrupt("empty journal".into()));
        }
        let found = JournalHeader::parse_line(line.trim_end())?;
        if !found.same_grid(self) {
            return Err(JournalError::Mismatch {
                found: Box::new(found),
                expected: Box::new(self.clone()),
            });
        }
        Ok(found)
    }
}

/// Journal failure.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The journal belongs to a different campaign grid.
    Mismatch {
        /// Identity recorded in the journal.
        found: Box<JournalHeader>,
        /// Identity of the campaign being resumed.
        expected: Box<JournalHeader>,
    },
    /// The journal's header is unreadable.
    Corrupt(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Mismatch { found, expected } => write!(
                f,
                "journal belongs to a different campaign: found `{}` ({} cells, spec {}), \
                 expected `{}` ({} cells, spec {})",
                found.campaign,
                found.cells,
                found.spec_fp,
                expected.campaign,
                expected.cells,
                expected.spec_fp
            ),
            JournalError::Corrupt(msg) => write!(f, "journal corrupt: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_core::arch::ArchSpec;
    use griffin_core::category::DnnCategory;
    use std::path::PathBuf;

    fn header() -> JournalHeader {
        JournalHeader {
            campaign: "t".into(),
            spec_fp: Fingerprint(0xAB, 0xCD),
            cells: 10,
            scenario: None,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "griffin-fleet-journal-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn spec() -> SweepSpec {
        SweepSpec::new("plan")
            .adhoc_layer("l0", 32, 256, 32, 1.0, 0.2)
            .adhoc_layer("l1", 16, 128, 64, 0.5, 0.5)
            .category(DnnCategory::B)
            .category(DnnCategory::Dense)
            .arch(ArchSpec::dense())
            .arch(ArchSpec::sparse_b_star())
            .arch(ArchSpec::griffin())
            .seeds([1, 2])
    }

    #[test]
    fn spec_fingerprint_tracks_report_identity() {
        let base = spec_fingerprint(&spec());
        assert_eq!(base, spec_fingerprint(&spec()), "deterministic");
        // Anything that changes the report changes the identity: the
        // name (serialized in JSON), a seed, the grid order.
        let renamed = SweepSpec {
            name: "other".into(),
            ..spec()
        };
        assert_ne!(base, spec_fingerprint(&renamed));
        assert_ne!(base, spec_fingerprint(&spec().seeds([1, 3])));
        let reordered = SweepSpec {
            seeds: vec![2, 1],
            ..spec()
        };
        assert_ne!(base, spec_fingerprint(&reordered));
    }

    #[test]
    fn a_written_header_verifies_and_later_lines_are_ignored() {
        let path = tmp("roundtrip");
        header().write(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        assert_eq!(header().verify(&path).unwrap(), header());
        // Entry lines written by older coordinators are never read, nor
        // is anything after them.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"cell\":3,\"fp\":\"00000000000000030000000000000003\"}\n");
        text.push_str("{\"cell\":99,\"fp\":\"bad\"}\nnot json\n");
        std::fs::write(&path, &text).unwrap();
        assert_eq!(header().verify(&path).unwrap(), header());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_tolerates_a_truncated_tail() {
        // A journal written by an older coordinator that died mid-append
        // ends in a partial entry line; the header still verifies.
        let path = tmp("truncated");
        header().write(&path).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(
            "{\"cell\":1,\"fp\":\"00000000000000010000000000000001\"}\n{\"cell\":2,\"fp\":\"00",
        );
        std::fs::write(&path, &text).unwrap();
        assert_eq!(header().verify(&path).unwrap(), header());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_a_different_grid() {
        let path = tmp("mismatch");
        header().write(&path).unwrap();
        let other = JournalHeader {
            spec_fp: Fingerprint(0xFF, 0xEE),
            ..header()
        };
        match other.verify(&path) {
            Err(JournalError::Mismatch { found, expected }) => {
                assert_eq!(found.spec_fp, Fingerprint(0xAB, 0xCD));
                assert_eq!(expected.spec_fp, Fingerprint(0xFF, 0xEE));
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_cell_count_mismatch_is_a_mismatch_not_a_crash() {
        // Same campaign name and spec fingerprint but a different cell
        // count (a hand-edited or stale header) must be refused as a
        // mismatch — the count is part of the journal's identity.
        let path = tmp("cell-count");
        header().write(&path).unwrap();
        let other = JournalHeader {
            cells: 11,
            ..header()
        };
        match other.verify(&path) {
            Err(JournalError::Mismatch { found, expected }) => {
                assert_eq!(found.cells, 10);
                assert_eq!(expected.cells, 11);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_headers_are_corrupt() {
        let path = tmp("corrupt");
        for text in ["", "\n", "not json\n", "{\"format\":\"other/1\"}\n"] {
            std::fs::write(&path, text).unwrap();
            assert!(
                matches!(header().verify(&path), Err(JournalError::Corrupt(_))),
                "{text:?}"
            );
        }
        std::fs::write(&path, "x".repeat(MAX_HEADER_BYTES as usize + 1)).unwrap();
        assert!(matches!(
            header().verify(&path),
            Err(JournalError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scenario_provenance_roundtrips_and_never_blocks_resume() {
        let with_prov = JournalHeader {
            scenario: Some(ScenarioProvenance {
                file: "fig5-bert-b.toml".into(),
                fp: Fingerprint(0x11, 0x22),
            }),
            ..header()
        };
        // The header line carries the provenance and parses back.
        let line = with_prov.to_line();
        assert!(line.contains("fig5-bert-b.toml"), "{line}");
        assert_eq!(JournalHeader::parse_line(&line).unwrap(), with_prov);

        // A journal written by a scenario run verifies under a token run
        // of the same grid, and vice versa: provenance is informational.
        let path = tmp("prov");
        with_prov.write(&path).unwrap();
        assert_eq!(header().verify(&path).unwrap(), with_prov);
        header().write(&path).unwrap();
        assert_eq!(with_prov.verify(&path).unwrap(), header());

        // A different *grid* is still refused, provenance or not.
        let other_grid = JournalHeader {
            spec_fp: Fingerprint(0xFF, 0xEE),
            ..with_prov.clone()
        };
        assert!(matches!(
            other_grid.verify(&path),
            Err(JournalError::Mismatch { .. })
        ));

        // Half-present provenance keys are corruption.
        let torn = line.replace(",\"scenario_fp\":\"00000000000000110000000000000022\"", "");
        assert!(matches!(
            JournalHeader::parse_line(&torn),
            Err(JournalError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
