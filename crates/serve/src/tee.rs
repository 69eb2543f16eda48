//! Teeing one campaign's event stream to many subscribers.
//!
//! Each campaign the daemon runs has a single writer — the fleet
//! coordinator emitting into a [`TeeSink`] — and any number of readers
//! attached at any time: clients that submitted it, clients that
//! deduplicated onto it, watchers that subscribed mid-flight or after
//! the fact. The [`Tee`] keeps the full line-for-line replay buffer
//! (the same bytes `events.jsonl` records), so every subscriber sees
//! the identical stream regardless of when it attached: replay first,
//! then the live tail, then exactly one [`TeeItem::End`].
//!
//! The snapshot-and-register step happens under one lock, so a
//! subscriber can neither miss an event between replay and live tail
//! nor see one twice.

use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use griffin_fleet::events::{Event, EventSink};
use griffin_fleet::jsonl;

use crate::wire::StreamOutcome;

/// One delivery to a subscriber.
#[derive(Debug, Clone, PartialEq)]
pub enum TeeItem {
    /// One event line, exactly as `events.jsonl` records it.
    Line(String),
    /// The stream is over; no further items follow. Sent exactly once
    /// per subscriber, after the terminal event's own `Line`.
    End(StreamOutcome),
}

#[derive(Debug, Default)]
struct TeeState {
    /// Every line published so far, in order — the replay buffer.
    lines: Vec<String>,
    /// Live subscribers; a failed send (receiver gone) evicts.
    subs: Vec<Sender<TeeItem>>,
    /// Set once the terminal event has been published.
    done: Option<StreamOutcome>,
}

/// The replay-buffer broadcast hub of one campaign's event stream.
#[derive(Debug, Default)]
pub struct Tee {
    state: Mutex<TeeState>,
}

impl Tee {
    /// A fresh tee with no history and no subscribers.
    pub fn new() -> Self {
        Tee::default()
    }

    /// Attaches a subscriber: the full replay so far, then the live
    /// tail. A subscriber joining after the terminal event gets the
    /// whole replay followed immediately by [`TeeItem::End`].
    pub fn subscribe(&self) -> Receiver<TeeItem> {
        let (tx, rx) = channel();
        let mut st = self.state.lock().expect("tee lock");
        for line in &st.lines {
            // The receiver is still in scope; these cannot fail.
            let _ = tx.send(TeeItem::Line(line.clone()));
        }
        match st.done {
            Some(outcome) => {
                let _ = tx.send(TeeItem::End(outcome));
            }
            None => st.subs.push(tx),
        }
        rx
    }

    /// Publishes one event line to the buffer and every subscriber.
    /// `terminal` ends the stream: subscribers get the line, then
    /// `End`, and later subscribers replay-then-end.
    pub fn publish(&self, line: String, terminal: Option<StreamOutcome>) {
        let mut st = self.state.lock().expect("tee lock");
        if st.done.is_some() {
            // Defensive: the fleet contract is one terminal event per
            // stream; anything after it is dropped rather than
            // delivered out of contract.
            return;
        }
        st.subs
            .retain(|tx| tx.send(TeeItem::Line(line.clone())).is_ok());
        st.lines.push(line);
        if let Some(outcome) = terminal {
            st.done = Some(outcome);
            for tx in st.subs.drain(..) {
                let _ = tx.send(TeeItem::End(outcome));
            }
        }
    }

    /// Drops the replay buffer. Used when retention evicts a finished
    /// campaign; the daemon refuses later subscriptions to it.
    pub(crate) fn forget_replay(&self) {
        self.state.lock().expect("tee lock").lines = Vec::new();
    }

    /// The terminal outcome, once published.
    pub fn outcome(&self) -> Option<StreamOutcome> {
        self.state.lock().expect("tee lock").done
    }

    /// Lines published so far (replay-buffer length).
    pub fn len(&self) -> usize {
        self.state.lock().expect("tee lock").lines.len()
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which [`StreamOutcome`] an event terminates a stream with, if any.
pub fn terminal_outcome(ev: &Event) -> Option<StreamOutcome> {
    match ev {
        Event::CampaignDone { .. } => Some(StreamOutcome::Done),
        Event::CampaignFailed { .. } => Some(StreamOutcome::Failed),
        _ => None,
    }
}

/// The [`EventSink`] a daemon campaign runs through: every event goes
/// to the campaign's `events.jsonl` (one [`jsonl::append_line`] write,
/// so `fleet watch` and `fleet report` keep working on the file
/// unchanged) *and* to the tee's subscribers.
#[derive(Debug)]
pub struct TeeSink<W: io::Write + Send> {
    w: W,
    tee: Arc<Tee>,
}

impl<W: io::Write + Send> TeeSink<W> {
    /// Wraps the journal writer (`events.jsonl`) and the tee.
    pub fn new(w: W, tee: Arc<Tee>) -> Self {
        TeeSink { w, tee }
    }
}

impl<W: io::Write + Send> EventSink for TeeSink<W> {
    fn emit(&mut self, ev: &Event) -> io::Result<()> {
        let line = ev.to_line();
        jsonl::append_line(&mut self.w, &line)?;
        self.tee.publish(line, terminal_outcome(ev));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: usize) -> String {
        Event::Heartbeat {
            done: i,
            total: i + 1,
            elapsed_ms: 0,
            cached: 0,
        }
        .to_line()
    }

    #[test]
    fn late_and_early_subscribers_see_the_identical_stream() {
        let tee = Tee::new();
        let early = tee.subscribe();
        tee.publish(line(0), None);
        let mid = tee.subscribe();
        tee.publish(line(1), None);
        tee.publish(
            Event::CampaignDone {
                cells: 2,
                elapsed_ms: 5,
            }
            .to_line(),
            Some(StreamOutcome::Done),
        );
        let late = tee.subscribe();

        let drain = |rx: Receiver<TeeItem>| rx.into_iter().collect::<Vec<_>>();
        let expect = drain(early);
        assert_eq!(expect.len(), 4, "{expect:?}"); // 3 lines + End
        assert_eq!(expect.last(), Some(&TeeItem::End(StreamOutcome::Done)));
        assert_eq!(drain(mid), expect);
        assert_eq!(drain(late), expect);
    }

    #[test]
    fn publishes_after_the_terminal_are_dropped() {
        let tee = Tee::new();
        tee.publish(line(0), Some(StreamOutcome::Failed));
        tee.publish(line(1), None);
        assert_eq!(tee.len(), 1);
        let items: Vec<_> = tee.subscribe().into_iter().collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1], TeeItem::End(StreamOutcome::Failed));
    }

    #[test]
    fn dead_subscribers_are_evicted() {
        let tee = Tee::new();
        drop(tee.subscribe());
        tee.publish(line(0), None); // must not panic or wedge
        assert_eq!(tee.state.lock().unwrap().subs.len(), 0);
    }

    #[test]
    fn sink_writes_the_file_and_feeds_the_tee() {
        let tee = Arc::new(Tee::new());
        let mut buf = Vec::new();
        {
            let mut sink = TeeSink::new(&mut buf, Arc::clone(&tee));
            sink.emit(&Event::Heartbeat {
                done: 0,
                total: 3,
                elapsed_ms: 0,
                cached: 0,
            })
            .unwrap();
            sink.emit(&Event::CampaignDone {
                cells: 3,
                elapsed_ms: 1,
            })
            .unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(tee.outcome(), Some(StreamOutcome::Done));
        let items: Vec<_> = tee.subscribe().into_iter().collect();
        match &items[0] {
            TeeItem::Line(l) => assert_eq!(Some(l.as_str()), text.lines().next()),
            other => panic!("expected a line, got {other:?}"),
        }
    }
}
