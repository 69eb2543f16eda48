//! The campaign journal: crash-safe resume proof.
//!
//! A fleet campaign appends one JSON line per completed cell to
//! `journal.jsonl` next to its cache. The first line is a header
//! carrying the campaign's spec fingerprint and cell count; `--resume`
//! re-opens the file, verifies the header matches the *current* plan
//! (refusing to resume a different grid), and restores the completed
//! set so finished cells are never re-entered into a shard's work list.
//!
//! The file is append-only and written through a single coordinator, so
//! interruption can only lose or truncate the final line; loading
//! therefore tolerates a partial trailing line (and nothing else). Cell
//! results themselves live in the campaign cache — the journal is the
//! index that proves which grid they belong to and which cells are done.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use griffin_sweep::fingerprint::Fingerprint;
use griffin_sweep::json::Json;
use griffin_sweep::scenario::ScenarioProvenance;

/// Format tag of the header line.
pub const JOURNAL_FORMAT: &str = "griffin-fleet-journal/1";

/// Identity of the campaign a journal belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign name (informational; identity is the fingerprint).
    pub campaign: String,
    /// Stable grid identity ([`crate::plan::spec_fingerprint`]).
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
        let v = Json::parse(line).map_err(|e| JournalError::Corrupt(e.to_string()))?;
        let fmt_tag = v
            .req("format")
            .and_then(|x| x.as_str())
            .map_err(|e| JournalError::Corrupt(e.to_string()))?;
        if fmt_tag != JOURNAL_FORMAT {
            return Err(JournalError::Corrupt(format!(
                "unknown journal format `{fmt_tag}`"
            )));
        }
        let fp_str = v
            .req("spec_fp")
            .and_then(|x| x.as_str())
            .map_err(|e| JournalError::Corrupt(e.to_string()))?;
        let spec_fp = Fingerprint::parse(fp_str)
            .ok_or_else(|| JournalError::Corrupt(format!("bad spec_fp `{fp_str}`")))?;
        let cells = v
            .req("cells")
            .and_then(|x| x.as_f64())
            .map_err(|e| JournalError::Corrupt(e.to_string()))?;
        let scenario = match (v.get("scenario_file"), v.get("scenario_fp")) {
            (None, None) => None,
            (Some(file), Some(fp)) => {
                let file = file
                    .as_str()
                    .map_err(|e| JournalError::Corrupt(e.to_string()))?
                    .to_string();
                let fp_str = fp
                    .as_str()
                    .map_err(|e| JournalError::Corrupt(e.to_string()))?;
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
                .map_err(|e| JournalError::Corrupt(e.to_string()))?
                .to_string(),
            spec_fp,
            cells: cells as usize,
            scenario,
        })
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
        /// Identity of the plan being resumed.
        expected: Box<JournalHeader>,
    },
    /// The journal is unreadable beyond simple truncation.
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

/// An open, append-mode campaign journal.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
    path: PathBuf,
    completed: BTreeMap<usize, Fingerprint>,
}

fn entry_line(cell: usize, fp: Fingerprint) -> String {
    Json::obj([
        ("cell".into(), Json::Num(cell as f64)),
        ("fp".into(), Json::Str(fp.to_string())),
    ])
    .write()
}

fn parse_entry(line: &str) -> Option<(usize, Fingerprint)> {
    let v = Json::parse(line).ok()?;
    let cell = v.req("cell").ok()?.as_f64().ok()?;
    if cell < 0.0 || cell.fract() != 0.0 {
        return None;
    }
    let fp = Fingerprint::parse(v.req("fp").ok()?.as_str().ok()?)?;
    Some((cell as usize, fp))
}

impl Journal {
    /// Starts a fresh journal at `path` (truncating any previous one)
    /// with an empty completed set.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: impl AsRef<Path>, header: &JournalHeader) -> Result<Journal, JournalError> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::File::create(&path)?;
        crate::jsonl::append_line(&mut file, &header.to_line())?;
        file.sync_data()?;
        Ok(Journal {
            file,
            path: path.as_ref().to_path_buf(),
            completed: BTreeMap::new(),
        })
    }

    /// What a read of a journal file yields: the validated completed
    /// set, the byte length of the cleanly-terminated valid prefix, the
    /// file length, and — when the final line was complete JSON missing
    /// only its `\n` (a crash between an entry's bytes and its newline)
    /// — that accepted-but-unterminated entry.
    #[allow(clippy::type_complexity)]
    fn load(
        path: impl AsRef<Path>,
        expected: &JournalHeader,
    ) -> Result<
        (
            BTreeMap<usize, Fingerprint>,
            usize,
            usize,
            Option<(usize, Fingerprint)>,
        ),
        JournalError,
    > {
        let text = std::fs::read_to_string(&path)?;
        // The torn-tail rule lives in `tail`: every byte of `clean`
        // belongs to a terminated line, `partial` is an interrupted
        // append (shared with the event-stream watcher).
        let (clean, partial) = crate::tail::split_partial_tail(&text);
        let mut segments = clean
            .split_inclusive('\n')
            .map(|s| (s, true))
            .chain((!partial.is_empty()).then_some((partial, false)));
        let Some((header_seg, _)) = segments.next() else {
            return Err(JournalError::Corrupt("empty journal".into()));
        };
        let found = JournalHeader::parse_line(header_seg.trim_end())?;
        if !found.same_grid(expected) {
            return Err(JournalError::Mismatch {
                found: Box::new(found),
                expected: Box::new(expected.clone()),
            });
        }
        let mut completed = BTreeMap::new();
        let mut valid_len = header_seg.len();
        let mut tail_entry = None;
        for (seg, terminated) in segments {
            let line = seg.trim_end();
            if line.is_empty() {
                valid_len += seg.len();
                continue;
            }
            let Some((cell, fp)) = parse_entry(line) else {
                break; // truncated tail from an interrupted append
            };
            if cell >= expected.cells {
                return Err(JournalError::Corrupt(format!(
                    "cell {cell} out of range (grid has {} cells)",
                    expected.cells
                )));
            }
            // Duplicate lines happen legitimately (a retried shard
            // replays a cell whose completion event was lost); they
            // dedupe by fingerprint. The same cell under two *different*
            // fingerprints can only mean corruption — two grids wrote
            // into one journal.
            if let Some(prev) = completed.insert(cell, fp) {
                if prev != fp {
                    return Err(JournalError::Corrupt(format!(
                        "cell {cell} journaled with two fingerprints ({prev} and {fp})"
                    )));
                }
            }
            if !terminated {
                // A complete entry missing only its newline (a crash
                // between the bytes and the `\n`) still counts; resume
                // rewrites it whole.
                tail_entry = Some((cell, fp));
                break;
            }
            valid_len += seg.len();
        }
        Ok((completed, valid_len, text.len(), tail_entry))
    }

    /// Re-opens an existing journal for resume: verifies the header
    /// matches `expected` and loads the completed-cell set. A partial
    /// trailing line (an interrupted append) is ignored and truncated
    /// away; loading stops at the first malformed line, treating
    /// everything after it as unwritten. The caller must be the sole
    /// writer (the coordinator) — resume repairs the file tail, unlike
    /// the strictly read-only [`Journal::peek_completed`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Mismatch`] when the journal records a different
    /// grid, [`JournalError::Corrupt`] when even the header is
    /// unreadable, and [`JournalError::Io`] on filesystem failures.
    pub fn resume(
        path: impl AsRef<Path>,
        expected: &JournalHeader,
    ) -> Result<Journal, JournalError> {
        let (completed, valid_len, total_len, tail_entry) = Self::load(&path, expected)?;
        // Drop anything after the cleanly-terminated prefix — a garbage
        // tail, or the one unterminated final entry (rewritten whole
        // below) — so the next append starts on a fresh line instead of
        // gluing onto a partial one.
        if valid_len < total_len {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)?
                .set_len(valid_len as u64)?;
        }
        let mut file = std::fs::OpenOptions::new().append(true).open(&path)?;
        if let Some((cell, fp)) = tail_entry {
            crate::jsonl::append_line(&mut file, &entry_line(cell, fp))?;
        }
        Ok(Journal {
            file,
            path: path.as_ref().to_path_buf(),
            completed,
        })
    }

    /// Opens a journal: [`Journal::resume`] when `resume` is set and the
    /// file exists, otherwise a fresh [`Journal::create`].
    ///
    /// # Errors
    ///
    /// See [`Journal::create`] / [`Journal::resume`].
    pub fn open(
        path: impl AsRef<Path>,
        header: &JournalHeader,
        resume: bool,
    ) -> Result<Journal, JournalError> {
        if resume && path.as_ref().exists() {
            Journal::resume(path, header)
        } else {
            Journal::create(path, header)
        }
    }

    /// Records a completed cell (idempotent) and flushes the line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, and refuses (with
    /// [`io::ErrorKind::InvalidData`], journal untouched) a cell that
    /// is already journaled under a *different* fingerprint — the same
    /// corruption the resume path rejects must not be accepted, and
    /// hidden, at write time.
    pub fn append(&mut self, cell: usize, fp: Fingerprint) -> io::Result<()> {
        match self.completed.insert(cell, fp) {
            None => crate::jsonl::append_line(&mut self.file, &entry_line(cell, fp)),
            Some(prev) if prev == fp => Ok(()), // already journaled (twin / cached replay)
            Some(prev) => {
                self.completed.insert(cell, prev); // keep the journaled truth
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("cell {cell} is journaled as {prev}; refusing to record {fp}"),
                ))
            }
        }
    }

    /// The completed cells (grid index → scenario fingerprint).
    pub fn completed(&self) -> &BTreeMap<usize, Fingerprint> {
        &self.completed
    }

    /// Whether a cell is journaled as complete.
    pub fn is_completed(&self, cell: usize) -> bool {
        self.completed.contains_key(&cell)
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Fault-injection support: writes a torn, newline-less half entry,
    /// simulating a coordinator crash between an append's bytes and its
    /// newline. The journal must not be appended to afterwards — the
    /// injecting coordinator aborts the campaign, and the next
    /// `--resume` truncates the torn tail away.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn tear_tail_for_fault(&mut self) -> io::Result<()> {
        write!(self.file, "{{\"cell\":")
    }

    /// Reads the completed set of a journal **without writing to the
    /// file at all** — for readers that must never repair the tail a
    /// running coordinator is appending to (a torn in-flight entry
    /// simply doesn't count yet).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Journal::resume`].
    pub fn peek_completed(
        path: impl AsRef<Path>,
        expected: &JournalHeader,
    ) -> Result<BTreeMap<usize, Fingerprint>, JournalError> {
        Ok(Journal::load(&path, expected)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn create_append_resume_roundtrip() {
        let path = tmp("roundtrip");
        {
            let mut j = Journal::create(&path, &header()).unwrap();
            j.append(3, Fingerprint(3, 3)).unwrap();
            j.append(7, Fingerprint(7, 7)).unwrap();
            j.append(3, Fingerprint(3, 3)).unwrap(); // idempotent
        }
        let j = Journal::resume(&path, &header()).unwrap();
        assert_eq!(
            j.completed().iter().map(|(&c, _)| c).collect::<Vec<_>>(),
            vec![3, 7]
        );
        // A conflicting re-append is refused without touching either
        // the file or the in-memory truth.
        let mut j = j;
        let err = j.append(3, Fingerprint(9, 9)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(j.completed()[&3], Fingerprint(3, 3));
        drop(j);
        let j = Journal::resume(&path, &header()).unwrap();
        assert_eq!(j.completed()[&3], Fingerprint(3, 3));
        assert!(j.is_completed(7));
        assert!(!j.is_completed(4));
        // The idempotent append wrote exactly one line for cell 3.
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines, 3, "header + two entries");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_tolerates_a_truncated_tail() {
        let path = tmp("truncated");
        {
            let mut j = Journal::create(&path, &header()).unwrap();
            j.append(1, Fingerprint(1, 1)).unwrap();
        }
        // Simulate an interrupted append: a partial final line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"cell\":2,\"fp\":\"00");
        std::fs::write(&path, &text).unwrap();
        let mut j = Journal::resume(&path, &header()).unwrap();
        assert_eq!(j.completed().len(), 1, "partial line ignored");
        // Appending after a resume keeps the file loadable.
        j.append(5, Fingerprint(5, 5)).unwrap();
        drop(j);
        let j = Journal::resume(&path, &header()).unwrap();
        assert!(j.is_completed(5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_terminates_a_newline_less_final_entry() {
        // A crash between an entry's bytes and its newline leaves a
        // complete-but-unterminated last line; resume must keep the
        // entry *and* not glue the next append onto it.
        let path = tmp("no-newline");
        drop(Journal::create(&path, &header()).unwrap());
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&entry_line(4, Fingerprint(4, 4))); // no '\n'
        std::fs::write(&path, &text).unwrap();
        let mut j = Journal::resume(&path, &header()).unwrap();
        assert!(j.is_completed(4), "unterminated entry still counts");
        j.append(6, Fingerprint(6, 6)).unwrap();
        drop(j);
        let j = Journal::resume(&path, &header()).unwrap();
        assert!(j.is_completed(4) && j.is_completed(6));
        assert_eq!(j.completed().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_a_different_grid() {
        let path = tmp("mismatch");
        drop(Journal::create(&path, &header()).unwrap());
        let other = JournalHeader {
            spec_fp: Fingerprint(0xFF, 0xEE),
            ..header()
        };
        match Journal::resume(&path, &other) {
            Err(JournalError::Mismatch { found, expected }) => {
                assert_eq!(found.spec_fp, Fingerprint(0xAB, 0xCD));
                assert_eq!(expected.spec_fp, Fingerprint(0xFF, 0xEE));
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_cells_and_bad_headers_are_corrupt() {
        let path = tmp("corrupt");
        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(
            Journal::resume(&path, &header()),
            Err(JournalError::Corrupt(_))
        ));
        let mut text = header().to_line();
        text.push_str("\n{\"cell\":99,\"fp\":\"00000000000000ab00000000000000cd\"}\n");
        std::fs::write(&path, &text).unwrap();
        assert!(matches!(
            Journal::resume(&path, &header()),
            Err(JournalError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interleaved_retried_shard_writes_resume_cleanly() {
        // A retried shard's appends interleave arbitrarily with the
        // surviving shards' — completion order is no order at all. The
        // journal must restore the union regardless.
        let path = tmp("interleaved");
        {
            let mut j = Journal::create(&path, &header()).unwrap();
            // shard A: 0, 4; shard B: 1; shard A dies; retry of A
            // interleaves with B finishing.
            for cell in [0, 4, 1, 5, 2, 8, 3] {
                j.append(cell, Fingerprint(cell as u64, cell as u64))
                    .unwrap();
            }
        }
        let j = Journal::resume(&path, &header()).unwrap();
        assert_eq!(
            j.completed().keys().copied().collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5, 8]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_entries_dedupe_by_fingerprint() {
        // Resume-after-retry can replay a cell whose completion event
        // was lost with the dead worker: the duplicate line (same cell,
        // same fingerprint) is one completion, not two — and a raw
        // duplicate *file line* (bypassing the idempotent append) must
        // behave identically.
        let path = tmp("dup");
        drop(Journal::create(&path, &header()).unwrap());
        let mut text = std::fs::read_to_string(&path).unwrap();
        let line = entry_line(6, Fingerprint(6, 6));
        text.push_str(&format!(
            "{line}\n{}\n{line}\n",
            entry_line(2, Fingerprint(2, 2))
        ));
        std::fs::write(&path, &text).unwrap();
        let j = Journal::resume(&path, &header()).unwrap();
        assert_eq!(j.completed().len(), 2);
        assert_eq!(j.completed()[&6], Fingerprint(6, 6));

        // The same cell under a *different* fingerprint is corruption.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&format!("{}\n", entry_line(6, Fingerprint(9, 9))));
        std::fs::write(&path, &text).unwrap();
        match Journal::resume(&path, &header()) {
            Err(JournalError::Corrupt(msg)) => {
                assert!(msg.contains("two fingerprints"), "{msg}");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_cell_count_mismatch_is_a_mismatch_not_a_crash() {
        // Same campaign name and spec fingerprint but a different cell
        // count (a hand-edited or stale header) must be refused as a
        // mismatch — the count is part of the journal's identity.
        let path = tmp("cell-count");
        drop(Journal::create(&path, &header()).unwrap());
        let other = JournalHeader {
            cells: 11,
            ..header()
        };
        match Journal::resume(&path, &other) {
            Err(JournalError::Mismatch { found, expected }) => {
                assert_eq!(found.cells, 10);
                assert_eq!(expected.cells, 11);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_from_fault_injection_resumes() {
        let path = tmp("torn");
        {
            let mut j = Journal::create(&path, &header()).unwrap();
            j.append(1, Fingerprint(1, 1)).unwrap();
            j.tear_tail_for_fault().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.ends_with('\n'), "the tail is torn");
        let mut j = Journal::resume(&path, &header()).unwrap();
        assert_eq!(j.completed().len(), 1);
        j.append(2, Fingerprint(2, 2)).unwrap();
        drop(j);
        let j = Journal::resume(&path, &header()).unwrap();
        assert!(j.is_completed(1) && j.is_completed(2));
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

        // A journal created by a scenario run resumes under a token run
        // of the same grid, and vice versa: provenance is informational.
        let path = tmp("prov");
        drop(Journal::create(&path, &with_prov).unwrap());
        assert!(Journal::resume(&path, &header()).is_ok());
        drop(Journal::create(&path, &header()).unwrap());
        assert!(Journal::resume(&path, &with_prov).is_ok());

        // A different *grid* is still refused, provenance or not.
        let other_grid = JournalHeader {
            spec_fp: Fingerprint(0xFF, 0xEE),
            ..with_prov.clone()
        };
        assert!(matches!(
            Journal::resume(&path, &other_grid),
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

    #[test]
    fn open_respects_the_resume_flag() {
        let path = tmp("open");
        {
            let mut j = Journal::create(&path, &header()).unwrap();
            j.append(2, Fingerprint(2, 2)).unwrap();
        }
        let j = Journal::open(&path, &header(), true).unwrap();
        assert_eq!(j.completed().len(), 1);
        drop(j);
        // Without --resume, an existing journal is restarted fresh.
        let j = Journal::open(&path, &header(), false).unwrap();
        assert!(j.completed().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
