//! Hostile wire input against a running daemon: a line nested half a
//! million arrays deep, and a line longer than [`MAX_LINE_BYTES`]. The
//! first is refused with a typed `error` on a connection that stays
//! usable; the second is refused and its connection closed, over a
//! unix socket and over TCP alike. Either way the daemon keeps serving,
//! and a later client's report is byte-identical to one fetched before
//! the attack.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use griffin_serve::{
    serve_connections, Client, Daemon, Listener, Message, ReportKind, ScenarioSource, ServeAddr,
    ServeConfig, StreamOutcome, MAX_LINE_BYTES,
};

const SCENARIO: &str = "[scenario]\nname = \"hostile\"\nseeds = [1]\ncategories = [\"b\"]\n\n\
     [sim]\ntiles = 2\nsample_seed = 1\n\n\
     [[workload]]\nsynthetic = \"net\"\nlayers = 2\n\n\
     [[arch]]\npreset = \"baseline\"\n\n\
     [[arch]]\nfamily = \"b\"\nfanin = 2\n";

/// Submits [`SCENARIO`] on a fresh connection and returns its CSV report.
fn submit_and_fetch(addr: &ServeAddr, who: &str) -> String {
    let mut client = Client::connect(addr, who).expect("connect");
    let acc = client
        .submit(&ScenarioSource::Inline(SCENARIO.into()), None)
        .expect("submit");
    let outcome = client.consume_stream(|_, _| {}).expect("stream");
    assert_eq!(outcome, StreamOutcome::Done);
    client
        .report(&acc.campaign, ReportKind::Csv)
        .expect("report")
}

/// A daemon that stopped answering fails the test instead of hanging it.
const REPLY_TIMEOUT: Option<Duration> = Some(Duration::from_secs(20));

/// Takes a raw connection (a write half and a read half) past the
/// handshake.
fn raw_session<S: Read + Write>(mut s: S, read_half: S) -> (S, BufReader<S>) {
    let hello = Message::Hello {
        client: "hostile".into(),
    };
    writeln!(s, "{}", hello.to_line()).expect("hello");
    let mut r = BufReader::new(read_half);
    let mut line = String::new();
    r.read_line(&mut line).expect("hello_ok");
    assert!(matches!(
        Message::parse_line(line.trim_end()),
        Ok(Message::HelloOk { .. })
    ));
    (s, r)
}

fn unix_session(sock: &std::path::Path) -> (UnixStream, BufReader<UnixStream>) {
    let s = UnixStream::connect(sock).expect("unix connect");
    s.set_read_timeout(REPLY_TIMEOUT).unwrap();
    raw_session(s.try_clone().expect("clone"), s)
}

/// Sends one never-terminated line past the cap and checks the daemon
/// answers with exactly one length error before closing.
fn assert_overflow_refused<S: Read + Write>((mut s, mut r): (S, BufReader<S>)) {
    // The daemon stops reading at the cap; whatever it does not drain
    // may fail this write with a broken pipe, which is fine.
    let _ = s.write_all(&vec![b'x'; MAX_LINE_BYTES + 4096]);
    let mut replies = Vec::new();
    loop {
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => replies.push(line),
            Err(e) => panic!("the reply must survive the close: {e} after {replies:?}"),
        }
    }
    assert_eq!(replies.len(), 1, "one error, then the close: {replies:?}");
    match Message::parse_line(replies[0].trim_end()) {
        Ok(Message::Error { msg }) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("expected a length error, got {other:?}"),
    }
}

#[test]
fn hostile_lines_are_refused_and_the_daemon_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("griffin-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("serve.sock");
    let addr = ServeAddr::Unix(sock.clone());
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    let listener = Listener::bind(&addr).unwrap();
    let tcp = Listener::bind(&ServeAddr::Tcp("127.0.0.1:0".into())).unwrap();
    let Listener::Tcp(l) = &tcp else {
        unreachable!("a TCP address binds a TCP listener")
    };
    let tcp_addr = l.local_addr().unwrap();
    let daemon = Arc::new(Daemon::start(cfg).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let (daemon, stop) = (Arc::clone(&daemon), Arc::clone(&stop));
        std::thread::spawn(move || serve_connections(&daemon, vec![listener, tcp], &stop))
    };

    let before = submit_and_fetch(&addr, "before");

    // 500,000 `[`: used to overflow the connection thread's stack and
    // abort the daemon. Now a typed error, and the connection lives on.
    let (mut s, mut r) = unix_session(&sock);
    writeln!(s, "{}", "[".repeat(500_000)).unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    match Message::parse_line(line.trim_end()) {
        Ok(Message::Error { msg }) => assert!(msg.contains("nesting"), "{msg}"),
        other => panic!("expected a nesting error, got {other:?}"),
    }
    writeln!(s, "{}", Message::Status.to_line()).unwrap();
    line.clear();
    r.read_line(&mut line).unwrap();
    assert!(matches!(
        Message::parse_line(line.trim_end()),
        Ok(Message::StatusOk { .. })
    ));

    // A line past the cap, never terminated: refused, connection
    // closed. Over TCP the reply must not be lost to a reset.
    assert_overflow_refused(unix_session(&sock));
    let t = TcpStream::connect(tcp_addr).expect("tcp connect");
    t.set_read_timeout(REPLY_TIMEOUT).unwrap();
    assert_overflow_refused(raw_session(t.try_clone().expect("clone"), t));

    let after = submit_and_fetch(&addr, "after");
    assert_eq!(before, after, "a later client's report is byte-identical");

    stop.store(true, Ordering::SeqCst);
    accept.join().unwrap().unwrap();
    match Arc::try_unwrap(daemon) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("every connection thread has exited"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
