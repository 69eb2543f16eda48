//! Shared JSONL line framing.
//!
//! Every append-only stream in the workspace — the fleet event stream
//! and the serve daemon's wire protocol — writes one JSON object per
//! line and is read back through the torn-tail rule in [`crate::tail`]
//! (the campaign journal's one header line is written the same way). This module is the single writer-side half of
//! that contract: a record and its terminating newline are emitted as
//! **one** `write_all` call, so an interrupted append can only ever
//! leave a partial *line*, never interleave with a concurrent record or
//! split a record from its terminator across two syscalls.

use std::io::{self, Write};

/// Appends `line` and its terminating newline as a single write, then
/// flushes so tailing consumers observe the record immediately.
///
/// `line` must not itself contain a newline — that would silently frame
/// two records; debug builds assert it.
///
/// # Errors
///
/// Propagates the underlying writer's errors.
pub fn append_line<W: Write + ?Sized>(w: &mut W, line: &str) -> io::Result<()> {
    debug_assert!(!line.contains('\n'), "a JSONL record must be a single line");
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    w.write_all(framed.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_one_line_per_record() {
        let mut buf: Vec<u8> = Vec::new();
        append_line(&mut buf, "{\"a\":1}").unwrap();
        append_line(&mut buf, "{\"b\":2}").unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn each_record_is_a_single_write() {
        // A writer that records the byte span of every `write` call:
        // the framing guarantee is record+newline in one syscall.
        struct Spans(Vec<usize>);
        impl Write for Spans {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Spans(Vec::new());
        append_line(&mut w, "{\"cell\":3}").unwrap();
        assert_eq!(w.0, vec!["{\"cell\":3}\n".len()]);
    }

    #[test]
    fn round_trips_through_the_tail_rule() {
        let mut buf: Vec<u8> = Vec::new();
        append_line(&mut buf, "{\"x\":1}").unwrap();
        append_line(&mut buf, "{\"y\":2}").unwrap();
        let text = String::from_utf8(buf).unwrap();
        let (clean, partial) = crate::tail::split_partial_tail(&text);
        assert_eq!(clean, text, "every framed record is cleanly terminated");
        assert!(partial.is_empty());
    }
}
