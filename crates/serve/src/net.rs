//! Socket transport of the serve wire: unix sockets and TCP behind one
//! listener/connection pair, plus the per-connection protocol loop.
//!
//! Reading follows the event stream's torn-line discipline: a final
//! fragment without a trailing newline (a client that died
//! mid-message) is *not* a protocol error — the fragment is dropped
//! and the connection counts as cleanly closed, mirroring
//! [`griffin_fleet::split_partial_tail`]. A complete line that fails
//! to parse gets an `error` reply and the connection stays usable. A
//! line longer than [`MAX_LINE_BYTES`] gets an `error` reply and ends
//! the connection, so no client can grow the daemon's memory without
//! bound. The daemon then half-closes and drains the client's unread
//! input for up to one second (`DRAIN`) before closing: closing a TCP
//! socket with unread data sends a reset, which can discard the reply
//! before the client reads it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use griffin_fleet::jsonl;

use crate::daemon::Daemon;
use crate::tee::TeeItem;
use crate::wire::{Message, ReportKind, StreamOutcome, WIRE_FORMAT};

/// How often blocked reads and the accept loop re-check the stop flag.
const POLL: Duration = Duration::from_millis(50);

/// Longest wire line the daemon reads, newline excluded. A scenario
/// submitted by content is a few KB; anything past this is refused.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Longest a refused connection's unread input is drained before the
/// socket closes.
const DRAIN: Duration = Duration::from_secs(1);

/// A serve endpoint address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A unix socket path.
    Unix(PathBuf),
    /// A TCP `host:port`.
    Tcp(String),
}

impl ServeAddr {
    /// Parses an address: `unix:<path>` / `tcp:<host:port>` prefixes
    /// are explicit; otherwise anything containing a `/` is a unix
    /// socket path and the rest is TCP.
    pub fn parse(s: &str) -> ServeAddr {
        if let Some(rest) = s.strip_prefix("unix:") {
            ServeAddr::Unix(PathBuf::from(rest))
        } else if let Some(rest) = s.strip_prefix("tcp:") {
            ServeAddr::Tcp(rest.to_string())
        } else if s.contains('/') {
            ServeAddr::Unix(PathBuf::from(s))
        } else {
            ServeAddr::Tcp(s.to_string())
        }
    }
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            ServeAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// One client connection (either transport).
#[derive(Debug)]
pub enum Conn {
    /// Over a unix socket.
    Unix(UnixStream),
    /// Over TCP.
    Tcp(TcpStream),
}

impl Conn {
    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(t),
            Conn::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// A bound serve listener (either transport).
#[derive(Debug)]
pub enum Listener {
    /// On a unix socket (the path is unlinked on drop).
    Unix(UnixListener, PathBuf),
    /// On TCP.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds the address. An existing unix socket file is replaced
    /// (stale sockets of a crashed daemon would otherwise wedge every
    /// restart).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &ServeAddr) -> io::Result<Listener> {
        match addr {
            ServeAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
            ServeAddr::Tcp(hostport) => Ok(Listener::Tcp(TcpListener::bind(hostport.as_str())?)),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l, _) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs the accept loop until `stop` is raised: each connection gets a
/// handler thread speaking the wire protocol against `daemon`. Returns
/// once the loop has stopped *and* every connection thread has
/// finished (their reads poll `stop`, so none outlives a drain by more
/// than a poll interval plus the in-flight stream tail).
///
/// # Errors
///
/// Propagates listener setup failures; per-connection I/O errors only
/// end that connection.
pub fn serve_connections(
    daemon: &Arc<Daemon>,
    listeners: Vec<Listener>,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    for l in &listeners {
        l.set_nonblocking(true)?;
    }
    let handlers: Mutex<Vec<thread::JoinHandle<()>>> = Mutex::new(Vec::new());
    while !stop.load(Ordering::Relaxed) {
        let mut accepted_any = false;
        for l in &listeners {
            match l.accept() {
                Ok(conn) => {
                    accepted_any = true;
                    let daemon = Arc::clone(daemon);
                    let stop = Arc::clone(stop);
                    let h = thread::Builder::new()
                        .name("serve-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(&daemon, conn, &stop);
                        })?;
                    handlers.lock().expect("handler list lock").push(h);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {}
            }
        }
        if !accepted_any {
            thread::sleep(POLL);
        }
    }
    for h in handlers.into_inner().expect("handler list lock") {
        let _ = h.join();
    }
    Ok(())
}

/// Reads one newline-terminated line. `Ok(None)` ends the connection:
/// true EOF, or a torn final fragment (mid-message client death), which
/// per the event stream's tail rule is dropped, not diagnosed — or a line
/// over [`MAX_LINE_BYTES`], which is answered with an `error` on `w`
/// and a bounded drain first. `stop` is polled during read timeouts.
fn read_line(
    r: &mut BufReader<Conn>,
    w: &mut Conn,
    stop: &Arc<AtomicBool>,
) -> io::Result<Option<String>> {
    // Accumulate raw bytes: unlike `read_line`, `read_until` keeps
    // partial data in the buffer across timeout errors even when a
    // read lands mid-UTF-8-sequence.
    let mut buf = Vec::new();
    loop {
        // Room for the longest allowed line plus its newline.
        let room = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match r.by_ref().take(room).read_until(b'\n', &mut buf) {
            Ok(_) if buf.last() == Some(&b'\n') => {
                buf.pop();
                let line = String::from_utf8(buf)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                return Ok(Some(line));
            }
            Ok(_) if buf.len() > MAX_LINE_BYTES => {
                send(
                    w,
                    &err_msg(format!("wire line exceeds {MAX_LINE_BYTES} bytes")),
                )?;
                w.shutdown_write()?;
                drain(r, stop);
                return Ok(None);
            }
            Ok(0) => {
                // EOF. A non-empty buf here is a torn final line:
                // dropped per the tail rule, not a protocol error.
                return Ok(None);
            }
            // A short read without newline: keep accumulating.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Relaxed) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Discards input until the client closes, [`DRAIN`] passes or `stop`
/// is raised.
fn drain(r: &mut BufReader<Conn>, stop: &Arc<AtomicBool>) {
    let deadline = Instant::now() + DRAIN;
    let mut sink = [0u8; 8192];
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        match r.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

fn send(w: &mut Conn, msg: &Message) -> io::Result<()> {
    jsonl::append_line(w, &msg.to_line())
}

/// Drives one connection: handshake, then request/reply with streaming
/// interludes after `submit`/`subscribe`.
fn handle_connection(daemon: &Arc<Daemon>, conn: Conn, stop: &Arc<AtomicBool>) -> io::Result<()> {
    conn.set_read_timeout(Some(POLL))?;
    let mut w = conn.try_clone()?;
    let mut r = BufReader::new(conn);

    // Handshake: the first line must be a well-formed hello.
    let Some(line) = read_line(&mut r, &mut w, stop)? else {
        return Ok(());
    };
    let client = match Message::parse_line(&line) {
        Ok(Message::Hello { client }) => client,
        Ok(_) => {
            send(&mut w, &err_msg(format!("expected hello ({WIRE_FORMAT})")))?;
            return Ok(());
        }
        Err(e) => {
            send(&mut w, &err_msg(e.to_string()))?;
            return Ok(());
        }
    };
    send(
        &mut w,
        &Message::HelloOk {
            server: daemon.config().server.clone(),
            workers: daemon.config().workers,
        },
    )?;

    while let Some(line) = read_line(&mut r, &mut w, stop)? {
        let msg = match Message::parse_line(&line) {
            Ok(m) => m,
            Err(e) => {
                send(&mut w, &err_msg(e.to_string()))?;
                continue;
            }
        };
        match msg {
            Message::Submit { source, name } => {
                match daemon.submit(&client, &source, name.as_deref()) {
                    Ok(acc) => {
                        let campaign = acc.campaign.clone();
                        send(
                            &mut w,
                            &Message::Accepted {
                                campaign: acc.campaign,
                                scenario_fp: acc.scenario_fp,
                                cells: acc.cells,
                                deduped: acc.deduped,
                                queue_depth: acc.queue_depth,
                            },
                        )?;
                        stream_campaign(daemon, &mut w, &campaign)?;
                    }
                    Err(e) => send(&mut w, &err_msg(e.to_string()))?,
                }
            }
            Message::Subscribe { campaign } => {
                match daemon.subscribe(campaign.as_deref()) {
                    Ok((id, _rx)) => {
                        // Re-subscribe inside stream_campaign for a
                        // single code path; tees replay identically.
                        stream_campaign(daemon, &mut w, &id)?;
                    }
                    Err(e) => send(&mut w, &err_msg(e.to_string()))?,
                }
            }
            Message::Cancel { campaign } => match daemon.cancel(&campaign) {
                Ok(cancelled) => send(
                    &mut w,
                    &Message::CancelOk {
                        campaign,
                        cancelled,
                    },
                )?,
                Err(e) => send(&mut w, &err_msg(e.to_string()))?,
            },
            Message::Status => send(
                &mut w,
                &Message::StatusOk {
                    status: daemon.status(),
                },
            )?,
            Message::Report { campaign, kind } => match daemon.reports(&campaign) {
                Ok((csv, json)) => {
                    let body = match kind {
                        ReportKind::Csv => csv,
                        ReportKind::Json => json,
                    };
                    send(
                        &mut w,
                        &Message::ReportOk {
                            campaign,
                            kind,
                            body,
                        },
                    )?;
                }
                Err(e) => send(&mut w, &err_msg(e.to_string()))?,
            },
            other => {
                send(
                    &mut w,
                    &err_msg(format!("unexpected message in request position: {other:?}")),
                )?;
            }
        }
    }
    Ok(())
}

fn err_msg(msg: String) -> Message {
    Message::Error { msg }
}

/// Streams one campaign to the client: every event line (replay +
/// live), the terminal included, then exactly one `stream_end`.
fn stream_campaign(daemon: &Arc<Daemon>, w: &mut Conn, campaign: &str) -> io::Result<()> {
    let (id, rx) = match daemon.subscribe(Some(campaign)) {
        Ok(sub) => sub,
        Err(e) => return send(w, &err_msg(e.to_string())),
    };
    let mut outcome = StreamOutcome::Failed;
    for item in rx {
        match item {
            TeeItem::Line(line) => {
                // The event line is already canonical JSON; re-wrap it
                // in the wire envelope.
                let event = griffin_sweep::json::Json::parse(&line)
                    .unwrap_or(griffin_sweep::json::Json::Null);
                send(
                    w,
                    &Message::Event {
                        campaign: id.clone(),
                        event,
                    },
                )?;
            }
            TeeItem::End(o) => {
                outcome = o;
                break;
            }
        }
    }
    send(
        w,
        &Message::StreamEnd {
            campaign: id,
            outcome,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parsing_covers_the_three_spellings() {
        assert_eq!(
            ServeAddr::parse("unix:/tmp/griffin.sock"),
            ServeAddr::Unix(PathBuf::from("/tmp/griffin.sock"))
        );
        assert_eq!(
            ServeAddr::parse("/run/griffin/serve.sock"),
            ServeAddr::Unix(PathBuf::from("/run/griffin/serve.sock"))
        );
        assert_eq!(
            ServeAddr::parse("tcp:127.0.0.1:7171"),
            ServeAddr::Tcp("127.0.0.1:7171".into())
        );
        assert_eq!(
            ServeAddr::parse("127.0.0.1:7171"),
            ServeAddr::Tcp("127.0.0.1:7171".into())
        );
    }
}
