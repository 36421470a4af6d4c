//! The mpsc event loop: an [`EventSink`] owned by a dedicated thread,
//! driven through a cloneable-free, ordered channel.
//!
//! [`LiveServer::spawn`] moves a fresh [`LiveBook`] onto a worker thread
//! and hands back a [`LiveHandle`]; [`LiveServer::spawn_sink`] does the
//! same for any [`EventSink`] — the durability tier wraps the book in a
//! journaling sink and drives it through this exact loop. Mutations are
//! fire-and-forget sends (the loop applies them in arrival order); queries
//! carry a reply channel. [`LiveHandle::enqueue_query`] takes the query's
//! place in that order and returns a [`PendingAnswer`] at once;
//! [`PendingAnswer::wait`] then blocks the *caller* — never the loop —
//! until the answer line comes back, with an optional deadline.
//! [`LiveHandle::query`] and [`LiveHandle::query_deadline`] are the two
//! in one call. Splitting them is what lets the TCP front release its
//! ordering gate before a query's answer is awaited. Because one thread
//! owns all state, answers are linearisable: a query observes exactly the
//! mutations sent before it.
//!
//! A sent mutation is queued, not yet applied or journaled: the loop (and
//! a durable sink's journal append) runs after `send` returns.
//!
//! A sink error (an unknown id — impossible for scripts that went through
//! [`parse_script`](crate::parse_script), which validates ids statically —
//! or a journal write failure) stops the loop: subsequent sends report
//! [`ServeError::Gone`], and [`LiveHandle::shutdown`] surfaces the
//! original error. Sends after `shutdown()` report [`ServeError::Closed`]
//! instead of panicking.

use std::error::Error;
use std::fmt;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use flexoffers_engine::{Engine, EngineError};
use flexoffers_model::FlexOffer;

use crate::config::ServeConfig;
use crate::event::{Event, QueryKind};
use crate::live::{LiveBook, LiveError};
use crate::sequencer::Sequencer;

/// Why a handle could not deliver an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// This handle was shut down; events after [`LiveHandle::shutdown`]
    /// are rejected, not panicked on.
    Closed,
    /// The loop terminated on its own — it stopped on a sink error
    /// ([`LiveHandle::shutdown`] reports which).
    Gone,
    /// A [`PendingAnswer::wait`] deadline expired before the answer
    /// arrived. The query still runs to completion inside the loop (its
    /// slot in the serialization order is already taken); only the wait
    /// for its answer was abandoned.
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Closed => f.write_str("serving handle closed by shutdown()"),
            ServeError::Gone => f.write_str("serving loop terminated — shutdown() reports why"),
            ServeError::DeadlineExceeded => {
                f.write_str("query deadline exceeded — the answer wait was abandoned")
            }
        }
    }
}

impl Error for ServeError {}

/// A consumer of serving events — what the loop thread owns and drives.
///
/// [`LiveBook`] is the memory-only sink; the storage crate's `Durable`
/// journals each mutation before delegating to the book it wraps, which
/// is how "journal before apply" rides the unchanged serving loop.
pub trait EventSink: Send + 'static {
    /// What stops the loop (surfaced by [`LiveHandle::shutdown`]).
    type Error: Send + 'static;

    /// Applies one event: mutations return `Ok(None)`, queries
    /// `Ok(Some(answer_line))`. An `Err` terminates the loop.
    fn apply(&mut self, event: Event) -> Result<Option<String>, Self::Error>;

    /// Called once when the channel drains cleanly (shutdown or last
    /// handle dropped) — the sink's chance to flush.
    fn finish(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }

    /// The sink's id history — what a front validates mutations against
    /// before they reach the loop.
    fn sequencer(&self) -> Sequencer;
}

impl EventSink for LiveBook {
    type Error = LiveError;

    fn apply(&mut self, event: Event) -> Result<Option<String>, LiveError> {
        LiveBook::apply(self, event)
    }

    fn sequencer(&self) -> Sequencer {
        Sequencer::seeded(self.live_ids(), self.next_id())
    }
}

enum Request {
    Mutate(Event),
    Query(QueryKind, mpsc::Sender<String>),
}

/// Spawner for the serving loop.
pub struct LiveServer;

impl LiveServer {
    /// Spawns a serving loop over an empty [`LiveBook`] with the given
    /// shard count and engine budget.
    pub fn spawn(
        config: ServeConfig,
        shards: usize,
        engine: Engine,
    ) -> Result<LiveHandle, EngineError> {
        let book = LiveBook::new(config, shards, engine)?;
        Ok(Self::spawn_sink(book))
    }

    /// Spawns the serving loop over an arbitrary [`EventSink`] — same
    /// ordering and linearisability guarantees as [`spawn`](Self::spawn).
    pub fn spawn_sink<S: EventSink>(mut sink: S) -> LiveHandle<S::Error> {
        let (tx, rx) = mpsc::channel::<Request>();
        let thread = std::thread::spawn(move || {
            for request in rx {
                match request {
                    Request::Mutate(event) => {
                        sink.apply(event)?;
                    }
                    Request::Query(kind, reply) => {
                        let answer = sink
                            .apply(Event::Query(kind))?
                            .expect("queries always answer");
                        // Explicitly ignored: the receiver is gone when a
                        // `query_deadline` wait already expired (or the
                        // caller hung up). `send` into a dropped channel
                        // returns `Err` — it cannot panic — and the loop
                        // carries on, so an abandoned answer never wedges
                        // the worker that served it.
                        let _ = reply.send(answer);
                    }
                }
            }
            sink.finish()
        });
        LiveHandle {
            tx: Some(tx),
            thread: Some(thread),
        }
    }
}

/// The caller's side of the serving loop.
#[derive(Debug)]
pub struct LiveHandle<E = LiveError> {
    tx: Option<mpsc::Sender<Request>>,
    thread: Option<JoinHandle<Result<(), E>>>,
}

impl<E> LiveHandle<E> {
    fn sender(&self) -> Result<&mpsc::Sender<Request>, ServeError> {
        self.tx.as_ref().ok_or(ServeError::Closed)
    }

    /// Sends one event: mutations return `Ok(None)` immediately (applied
    /// in order by the loop), queries block for their answer line.
    pub fn send(&self, event: Event) -> Result<Option<String>, ServeError> {
        match event {
            Event::Query(kind) => self.query(kind).map(Some),
            mutation => self
                .sender()?
                .send(Request::Mutate(mutation))
                .map(|()| None)
                .map_err(|_| ServeError::Gone),
        }
    }

    /// Enqueues an add (the loop assigns the next logical id).
    pub fn add(&self, offer: FlexOffer) -> Result<(), ServeError> {
        self.send(Event::Add(offer)).map(|_| ())
    }

    /// Enqueues an in-place update of offer `id`.
    pub fn update(&self, id: u64, offer: FlexOffer) -> Result<(), ServeError> {
        self.send(Event::Update { id, offer }).map(|_| ())
    }

    /// Enqueues a removal of offer `id`.
    pub fn remove(&self, id: u64) -> Result<(), ServeError> {
        self.send(Event::Remove { id }).map(|_| ())
    }

    /// Runs a query against the state after every previously sent event
    /// and blocks until its one-line JSON answer arrives.
    pub fn query(&self, kind: QueryKind) -> Result<String, ServeError> {
        self.enqueue_query(kind)?.wait(None)
    }

    /// [`query`](Self::query), but waits at most `deadline` for the
    /// answer. On [`ServeError::DeadlineExceeded`] the query itself still
    /// runs (it was already enqueued in serialization order; dropping the
    /// reply receiver just discards the answer) — because queries never
    /// mutate the book, an abandoned answer leaves the event history
    /// exactly as if the query had been answered.
    pub fn query_deadline(
        &self,
        kind: QueryKind,
        deadline: Duration,
    ) -> Result<String, ServeError> {
        self.enqueue_query(kind)?.wait(Some(deadline))
    }

    /// Enqueues a query behind every previously sent event and returns at
    /// once; the answer is collected later through the returned
    /// [`PendingAnswer`]. The query's place in the serialization order is
    /// taken here, so the caller may release whatever lock ordered the
    /// send before it waits.
    pub fn enqueue_query(&self, kind: QueryKind) -> Result<PendingAnswer, ServeError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.sender()?
            .send(Request::Query(kind, reply_tx))
            .map_err(|_| ServeError::Gone)?;
        Ok(PendingAnswer(reply_rx))
    }

    /// Closes the channel, drains the loop, and reports how it ended:
    /// `Ok(())` after a clean drain, or the sink error that stopped it.
    /// Idempotent — a second call returns `Ok(())`; sends after the first
    /// call report [`ServeError::Closed`].
    pub fn shutdown(&mut self) -> Result<(), E> {
        self.tx.take();
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        match thread.join() {
            Ok(result) => result,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// A query already enqueued by [`LiveHandle::enqueue_query`], whose
/// answer line has not been collected yet. Dropping it abandons the
/// answer; the query still runs in its place.
#[derive(Debug)]
pub struct PendingAnswer(mpsc::Receiver<String>);

impl PendingAnswer {
    /// Blocks until the answer line arrives, or at most `deadline` when
    /// one is given ([`ServeError::DeadlineExceeded`] on expiry, with the
    /// answer abandoned). [`ServeError::Gone`] means the loop stopped
    /// before answering.
    pub fn wait(self, deadline: Option<Duration>) -> Result<String, ServeError> {
        match deadline {
            None => self.0.recv().map_err(|_| ServeError::Gone),
            Some(deadline) => self.0.recv_timeout(deadline).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => ServeError::DeadlineExceeded,
                mpsc::RecvTimeoutError::Disconnected => ServeError::Gone,
            }),
        }
    }
}

impl<E> Drop for LiveHandle<E> {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(thread) = self.thread.take() {
            // A drop without shutdown() still drains the loop; apply
            // errors are intentionally discarded here.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::Slice;

    fn offer(tes: i64) -> FlexOffer {
        FlexOffer::new(tes, tes + 2, vec![Slice::new(1, 3).unwrap()]).unwrap()
    }

    fn spawn() -> LiveHandle {
        LiveServer::spawn(ServeConfig::default(), 3, Engine::sequential()).unwrap()
    }

    #[test]
    fn queries_observe_all_prior_events_in_order() {
        let mut handle = spawn();
        for tes in 0..10 {
            handle.add(offer(tes)).unwrap();
        }
        handle.remove(4).unwrap();
        handle.update(5, offer(99)).unwrap();
        let served = handle.query(QueryKind::Measure).unwrap();

        let mut direct = LiveBook::new(ServeConfig::default(), 3, Engine::sequential()).unwrap();
        for tes in 0..10 {
            direct.add(offer(tes));
        }
        direct.remove(4).unwrap();
        direct.update(5, offer(99)).unwrap();
        assert_eq!(served, direct.answer(QueryKind::Measure));
        handle.shutdown().unwrap();
    }

    #[test]
    fn zero_shards_is_rejected_at_spawn() {
        assert_eq!(
            LiveServer::spawn(ServeConfig::default(), 0, Engine::sequential()).unwrap_err(),
            EngineError::ZeroShards
        );
    }

    #[test]
    fn mutation_errors_stop_the_loop_and_surface_at_shutdown() {
        let mut handle = spawn();
        handle.remove(42).unwrap(); // enqueued fine; fails in the loop
                                    // The channel is ordered, so the loop hits the bad remove (and
                                    // exits) before it could ever answer this query.
        let gone = handle.query(QueryKind::Measure).unwrap_err();
        assert_eq!(gone, ServeError::Gone);
        assert!(gone.to_string().contains("terminated"));
        assert_eq!(
            handle.shutdown().unwrap_err(),
            LiveError::UnknownId { id: 42 }
        );
    }

    #[test]
    fn sends_after_shutdown_report_closed_not_panic() {
        let mut handle = spawn();
        handle.add(offer(0)).unwrap();
        handle.shutdown().unwrap();

        assert_eq!(handle.add(offer(1)).unwrap_err(), ServeError::Closed);
        assert_eq!(handle.update(0, offer(2)).unwrap_err(), ServeError::Closed);
        assert_eq!(handle.remove(0).unwrap_err(), ServeError::Closed);
        assert_eq!(
            handle.query(QueryKind::Measure).unwrap_err(),
            ServeError::Closed
        );
        assert_eq!(
            handle.send(Event::Add(offer(3))).unwrap_err(),
            ServeError::Closed
        );
        assert!(ServeError::Closed.to_string().contains("closed"));

        // shutdown() is idempotent.
        assert_eq!(handle.shutdown(), Ok(()));
    }

    #[test]
    fn spawn_sink_drives_a_custom_sink_and_calls_finish() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        struct Recorder {
            lines: Vec<String>,
            finished: Arc<AtomicBool>,
            fail_on_remove: bool,
        }
        #[derive(Debug, PartialEq)]
        struct RecorderError;
        impl EventSink for Recorder {
            type Error = RecorderError;
            fn sequencer(&self) -> Sequencer {
                Sequencer::default()
            }
            fn apply(&mut self, event: Event) -> Result<Option<String>, RecorderError> {
                if matches!(event, Event::Remove { .. }) && self.fail_on_remove {
                    return Err(RecorderError);
                }
                self.lines.push(event.to_json_line());
                Ok(match event {
                    Event::Query(_) => Some(format!("answer {}", self.lines.len())),
                    _ => None,
                })
            }
            fn finish(&mut self) -> Result<(), RecorderError> {
                self.finished.store(true, Ordering::SeqCst);
                Ok(())
            }
        }

        let finished = Arc::new(AtomicBool::new(false));
        let mut handle = LiveServer::spawn_sink(Recorder {
            lines: Vec::new(),
            finished: Arc::clone(&finished),
            fail_on_remove: false,
        });
        handle.add(offer(0)).unwrap();
        assert_eq!(handle.query(QueryKind::Measure).unwrap(), "answer 2");
        handle.shutdown().unwrap();
        assert!(finished.load(Ordering::SeqCst), "clean drain flushes");

        let failed_finish = Arc::new(AtomicBool::new(false));
        let mut failing = LiveServer::spawn_sink(Recorder {
            lines: Vec::new(),
            finished: Arc::clone(&failed_finish),
            fail_on_remove: true,
        });
        failing.remove(7).unwrap(); // enqueued; the sink rejects it
        assert_eq!(failing.shutdown().unwrap_err(), RecorderError);
        assert!(
            !failed_finish.load(Ordering::SeqCst),
            "an errored loop does not fake a clean flush"
        );
    }

    #[test]
    fn send_routes_queries_and_mutations() {
        let mut handle = spawn();
        assert_eq!(handle.send(Event::Add(offer(1))).unwrap(), None);
        let answer = handle
            .send(Event::Query(QueryKind::Aggregate))
            .unwrap()
            .expect("queries answer");
        assert!(answer.contains("\"offers\":1"), "{answer}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn query_deadline_abandons_slow_answers_but_not_fast_ones() {
        use std::time::Duration;

        struct SlowSink;
        impl EventSink for SlowSink {
            type Error = LiveError;
            fn sequencer(&self) -> Sequencer {
                Sequencer::default()
            }
            fn apply(&mut self, event: Event) -> Result<Option<String>, LiveError> {
                Ok(match event {
                    Event::Query(_) => {
                        std::thread::sleep(Duration::from_millis(200));
                        Some("slow answer".to_owned())
                    }
                    _ => None,
                })
            }
        }

        let mut slow = LiveServer::spawn_sink(SlowSink);
        assert_eq!(
            slow.query_deadline(QueryKind::Measure, Duration::from_millis(1))
                .unwrap_err(),
            ServeError::DeadlineExceeded
        );
        // The abandoned query still ran; the loop survives and later
        // queries with room to breathe succeed.
        assert_eq!(
            slow.query_deadline(QueryKind::Measure, Duration::from_secs(30))
                .unwrap(),
            "slow answer"
        );
        slow.shutdown().unwrap();
        assert!(ServeError::DeadlineExceeded
            .to_string()
            .contains("deadline"));

        let mut handle = spawn();
        handle.add(offer(0)).unwrap();
        let timed = handle
            .query_deadline(QueryKind::Measure, Duration::from_secs(30))
            .unwrap();
        assert_eq!(timed, handle.query(QueryKind::Measure).unwrap());
        handle.shutdown().unwrap();
        assert_eq!(
            handle
                .query_deadline(QueryKind::Measure, Duration::from_secs(1))
                .unwrap_err(),
            ServeError::Closed
        );
    }

    #[test]
    fn back_to_back_expired_queries_do_not_wedge_the_loop() {
        use std::time::Duration;

        struct SlowSink;
        impl EventSink for SlowSink {
            type Error = LiveError;
            fn sequencer(&self) -> Sequencer {
                Sequencer::default()
            }
            fn apply(&mut self, event: Event) -> Result<Option<String>, LiveError> {
                Ok(match event {
                    Event::Query(_) => {
                        std::thread::sleep(Duration::from_millis(20));
                        Some("slow answer".to_owned())
                    }
                    _ => None,
                })
            }
        }

        // Every expired wait drops its reply receiver while the query is
        // still queued (or running) in the loop; the loop's send into the
        // dropped channel must be a no-op, not a panic, N times in a row.
        let mut slow = LiveServer::spawn_sink(SlowSink);
        for i in 0..8 {
            assert_eq!(
                slow.query_deadline(QueryKind::Measure, Duration::from_millis(1))
                    .unwrap_err(),
                ServeError::DeadlineExceeded,
                "expiry #{i}"
            );
        }
        // The loop drained all eight abandoned queries and still answers.
        assert_eq!(
            slow.query_deadline(QueryKind::Measure, Duration::from_secs(30))
                .unwrap(),
            "slow answer"
        );
        slow.shutdown().unwrap();
    }

    #[test]
    fn dropping_the_handle_does_not_hang() {
        let handle = spawn();
        handle.add(offer(0)).unwrap();
        drop(handle);
    }
}
