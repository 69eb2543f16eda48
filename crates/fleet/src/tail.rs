//! Truncation-tolerant line tailing over append-only JSONL files.
//!
//! The campaign event stream (and the serve daemon's wire) is appended
//! one `\n`-terminated JSON line at a time, so an interruption can only
//! leave a *partial trailing line*. This module is the one place that
//! rule is implemented: [`split_partial_tail`] separates a buffer's
//! cleanly-terminated prefix from its torn tail (used by one-shot stream
//! readers), and [`TailCursor`] turns the same rule into an incremental
//! follower for live consumers (`fleet watch`) — a torn tail is simply
//! *not yet* a line, and is yielded whole once its remaining bytes (and
//! newline) arrive.
//!
//! The cursor also survives the one legal non-append transition: a
//! fresh campaign truncating and rewriting the stream file. A shrink is
//! reported as [`TailPoll::truncated`] so the consumer can reset its
//! state before folding the new stream from the top.
//!
//! Memory stays bounded whatever the producer writes: one poll reads at
//! most [`MAX_POLL_BYTES`] (the rest waits for the next poll), and a
//! line longer than [`MAX_LINE_BYTES`] is dropped through its next
//! newline and counted in [`TailPoll::oversized`] instead of being
//! buffered.

use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Splits a buffer at its final newline: the cleanly-terminated prefix
/// (every byte of it belongs to a complete line) and the partial
/// trailing line — an interrupted append — which is empty exactly when
/// the buffer ends on `\n`. `text == prefix ⧺ partial` always holds.
pub fn split_partial_tail(text: &str) -> (&str, &str) {
    match text.rfind('\n') {
        Some(i) => text.split_at(i + 1),
        None => ("", text),
    }
}

/// The complete lines of a buffer, torn tail excluded — the one-shot
/// (non-follow) read of an event stream. Lines are trimmed of their
/// terminators; empty lines are skipped.
pub fn complete_lines(text: &str) -> impl Iterator<Item = &str> {
    let (clean, _) = split_partial_tail(text);
    clean
        .split_inclusive('\n')
        .map(str::trim_end)
        .filter(|l| !l.is_empty())
}

/// Bytes one [`TailCursor::poll`] reads at most; a longer backlog is
/// read by the following polls.
pub const MAX_POLL_BYTES: u64 = 1 << 20;

/// Longest line (terminator excluded) a [`TailCursor`] yields or
/// buffers. Real event lines are a few hundred bytes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What one [`TailCursor::poll`] observed.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TailPoll {
    /// New complete lines since the previous poll (terminators
    /// stripped, empty lines skipped).
    pub lines: Vec<String>,
    /// The file shrank (a fresh campaign truncated the stream): the
    /// cursor restarted from byte 0, and `lines` already holds the new
    /// stream's first complete lines. Consumers must reset their fold.
    pub truncated: bool,
    /// Lines longer than [`MAX_LINE_BYTES`] dropped by this poll. Each
    /// is counted once, by the poll that first sees it exceed the cap.
    pub oversized: u64,
}

/// An incremental follower of an append-only line stream.
///
/// Each [`poll`](TailCursor::poll) reads whatever bytes the producer
/// has appended since the last one and yields only *complete* lines; a
/// partial trailing line (a torn in-flight append, or a flush that
/// landed mid-line) is buffered and completed by a later poll. A
/// missing file yields no lines — the producer simply hasn't started
/// yet — and a shrunken file resets the cursor (see [`TailPoll`]).
#[derive(Debug)]
pub struct TailCursor {
    path: PathBuf,
    offset: u64,
    pending: Vec<u8>,
    /// Inside an oversized line: discard input through its newline.
    skipping: bool,
}

impl TailCursor {
    /// A cursor at the start of `path` (which need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        TailCursor {
            path: path.into(),
            offset: 0,
            pending: Vec::new(),
            skipping: false,
        }
    }

    /// The followed path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads what was appended since the last poll, up to
    /// [`MAX_POLL_BYTES`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the file not existing
    /// (which is an empty poll, not an error).
    pub fn poll(&mut self) -> io::Result<TailPoll> {
        let mut out = TailPoll::default();
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        let len = file.metadata()?.len();
        if len < self.offset {
            // The stream was rewritten from scratch; start over.
            self.offset = 0;
            self.pending.clear();
            self.skipping = false;
            out.truncated = true;
        }
        if len == self.offset {
            return Ok(out);
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let read = file
            .take((len - self.offset).min(MAX_POLL_BYTES))
            .read_to_end(&mut self.pending)?;
        self.offset += read as u64;
        if self.skipping {
            // The rest of an oversized line, counted when it was cut.
            match self.pending.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    self.pending.drain(..=i);
                    self.skipping = false;
                }
                None => {
                    self.pending.clear();
                    return Ok(out);
                }
            }
        }
        // Drain every complete line; keep the torn tail pending.
        if let Some(i) = self.pending.iter().rposition(|&b| b == b'\n') {
            for raw in self.pending[..=i].split_inclusive(|&b| b == b'\n') {
                if raw.len() > MAX_LINE_BYTES + 1 {
                    out.oversized += 1;
                    continue;
                }
                let line = String::from_utf8_lossy(raw);
                let line = line.trim_end();
                if !line.is_empty() {
                    out.lines.push(line.to_string());
                }
            }
            self.pending.drain(..=i);
        }
        if self.pending.len() > MAX_LINE_BYTES {
            self.pending.clear();
            self.skipping = true;
            out.oversized += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "griffin-fleet-tail-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn split_partial_tail_covers_every_shape() {
        assert_eq!(split_partial_tail(""), ("", ""));
        assert_eq!(split_partial_tail("a\nb\n"), ("a\nb\n", ""));
        assert_eq!(split_partial_tail("a\nb\ntorn"), ("a\nb\n", "torn"));
        assert_eq!(split_partial_tail("torn"), ("", "torn"));
        let (clean, partial) = split_partial_tail("x\n{\"cell\":");
        assert_eq!(format!("{clean}{partial}"), "x\n{\"cell\":");
    }

    #[test]
    fn complete_lines_skips_the_torn_tail_and_blanks() {
        let text = "one\n\ntwo\r\nthree";
        assert_eq!(complete_lines(text).collect::<Vec<_>>(), ["one", "two"]);
        assert_eq!(complete_lines("").count(), 0);
        assert_eq!(complete_lines("no newline").count(), 0);
    }

    #[test]
    fn cursor_yields_lines_incrementally_and_completes_torn_tails() {
        let path = tmp("incremental");
        let _ = std::fs::remove_file(&path);
        let mut cur = TailCursor::new(&path);
        // Missing file: an empty poll, not an error.
        assert_eq!(cur.poll().unwrap(), TailPoll::default());

        let mut f = std::fs::File::create(&path).unwrap();
        write!(f, "alpha\nbra").unwrap();
        f.flush().unwrap();
        let p = cur.poll().unwrap();
        assert_eq!(p.lines, ["alpha"], "torn tail held back");
        assert!(!p.truncated);

        write!(f, "vo\ncharlie\n").unwrap();
        f.flush().unwrap();
        let p = cur.poll().unwrap();
        assert_eq!(p.lines, ["bravo", "charlie"], "tail completed whole");

        // Nothing new: empty poll.
        assert_eq!(cur.poll().unwrap(), TailPoll::default());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_torn_line_is_dropped_and_memory_stays_bounded() {
        let path = tmp("oversized");
        let _ = std::fs::remove_file(&path);
        let mut cur = TailCursor::new(&path);
        let mut f = std::fs::File::create(&path).unwrap();

        // A 2 MiB newline-less append, flushed in two parts, each caught
        // up with a capped read at a time; the part after the cut must
        // be discarded, not buffered as a new line.
        let (mut lines, mut oversized) = (Vec::new(), 0);
        for part in [3 << 19, 1 << 19] {
            f.write_all(&vec![b'x'; part]).unwrap();
            f.flush().unwrap();
            for _ in 0..3 {
                let p = cur.poll().unwrap();
                lines.extend(p.lines);
                oversized += p.oversized;
                assert!(cur.pending.len() <= MAX_LINE_BYTES, "pending bounded");
            }
        }
        assert_eq!(cur.offset, 2 << 20, "the whole append was consumed");

        write!(f, "\nalpha\n").unwrap();
        f.flush().unwrap();
        let p = cur.poll().unwrap();
        lines.extend(p.lines);
        oversized += p.oversized;
        assert_eq!(
            lines,
            ["alpha"],
            "the line after the oversized one survives"
        );
        assert_eq!(oversized, 1, "the oversized line is counted once");

        // An oversized line whose newline lands within the cap's reach
        // completes in `pending` and is dropped all the same.
        f.write_all(&vec![b'y'; 3 << 19]).unwrap();
        write!(f, "\nbeta\n").unwrap();
        f.flush().unwrap();
        let (first, second) = (cur.poll().unwrap(), cur.poll().unwrap());
        assert_eq!((first.oversized, second.oversized), (0, 1));
        assert!(first.lines.is_empty());
        assert_eq!(second.lines, ["beta"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cursor_resets_on_truncation() {
        let path = tmp("truncate");
        std::fs::write(&path, "old-1\nold-2\nold-3\n").unwrap();
        let mut cur = TailCursor::new(&path);
        assert_eq!(cur.poll().unwrap().lines.len(), 3);

        // A fresh campaign rewrites the stream shorter.
        std::fs::write(&path, "new-1\n").unwrap();
        let p = cur.poll().unwrap();
        assert!(p.truncated, "shrink must be reported");
        assert_eq!(p.lines, ["new-1"], "new stream read from the top");
        std::fs::remove_file(&path).unwrap();
    }
}
