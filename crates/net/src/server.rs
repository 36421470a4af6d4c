//! The framed TCP server over one serving loop.
//!
//! A fixed pool of [`NetConfig::max_conns`] worker threads pulls accepted
//! connections off a queue; each worker owns one connection at a time and
//! reads `{"id":…,"event":…}` frames line by line. Every request — from
//! any connection — passes through one mutex-guarded gate that holds the
//! [`LiveHandle`], the live-id set and the record writer. The gate covers
//! only what ordering needs: the [`Sequencer`] check and commit, the
//! enqueue onto the serving loop, and the `--record` line. So the order
//! the server acknowledges is exactly the order the book applies and the
//! order the record file shows.
//!
//! The gate does not cover a query's answer wait. Inside the gate a query
//! is enqueued and handed to the one answer stage; the gate is then
//! released, and the connection waits for its answer (bounded by
//! `--deadline-ms`) while other connections' mutations are acknowledged.
//! The answer stage takes the answers in loop order, appends each to the
//! answer stream and hands it to its connection. A query whose wait
//! expired still ran: it keeps its record line and its answer line, so
//! replaying the recorded log through `flexctl serve --script --batch`
//! reproduces the answer stream byte for byte. Only a zero deadline
//! refuses a query before it is enqueued; that query is neither recorded
//! nor answered.
//!
//! An acknowledgement means "queued in serialization order": for a
//! `--journal` server it still precedes the journal append (the commit
//! loop in `ROADMAP.md` item 7 is what will move it behind the fsync).
//!
//! The gate validates ids through the sink's [`Sequencer`] — the same
//! check `parse_script_from` runs on a script: updates/removes of ids
//! that are not live are refused at the gate (an `unknown_id` error
//! response) instead of reaching the sink, where they would kill the loop
//! for every connection.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

use flexoffers_serving::{Event, LiveHandle, PendingAnswer, QueryKind, Sequencer};

use crate::conn::{Line, LineReader};
use crate::frame::{self, ErrorCode};

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(15);
/// Socket read timeout — bounds how long a drain waits on an idle reader.
const READ_POLL: Duration = Duration::from_millis(50);
/// How long an idle worker waits for the next queued connection.
const DISPATCH_POLL: Duration = Duration::from_millis(25);
/// Why a request is refused once a record or answer write has failed.
const HALTING: &str = "an earlier record/answer write failed; the server is halting";
/// Why a query is refused if the answer stage died (it only panics).
const STAGE_GONE: &str = "the answer stage stopped";

/// Tunables of a [`NetServer`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Fixed worker-pool size, at least 1; connections beyond it queue
    /// until a worker frees up (`flexctl serve --max-conns`).
    pub max_conns: usize,
    /// Per-query bound on the answer wait (`--deadline-ms`). `None` waits
    /// indefinitely; an expired wait still leaves the query recorded and
    /// answered in the stream. A zero duration refuses every query before
    /// it is enqueued — a deterministic drill switch.
    pub deadline: Option<Duration>,
    /// Write every applied mutation and enqueued query to this path as a
    /// canonical serve script (`--record`) — the byte-identity oracle's
    /// input.
    pub record: Option<PathBuf>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_conns: 4,
            deadline: None,
            record: None,
        }
    }
}

/// What a finished [`NetServer::run`] reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Frames read (including ones answered with an error).
    pub requests: u64,
    /// Mutations acknowledged and applied.
    pub mutations: u64,
    /// Queries answered within their deadline.
    pub queries: u64,
    /// Error responses sent (all codes, deadline expiries included).
    pub errors: u64,
    /// The subset of `errors` that were deadline expiries.
    pub deadline_expired: u64,
}

impl fmt::Display for NetSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "served {} connections, {} requests ({} mutations, {} queries, {} errors, {} deadline-expired)",
            self.connections, self.requests, self.mutations, self.queries, self.errors,
            self.deadline_expired
        )
    }
}

/// Why the server stopped instead of reporting a summary.
#[derive(Debug)]
pub enum NetError<E> {
    /// The listener, the record file, or the answer writer failed.
    Io(io::Error),
    /// The serving loop's sink failed (surfaced by its shutdown).
    Sink(E),
}

impl<E: fmt::Display> fmt::Display for NetError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network serving I/O error: {e}"),
            NetError::Sink(e) => write!(f, "serving sink failed: {e}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for NetError<E> {}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    mutations: AtomicU64,
    queries: AtomicU64,
    errors: AtomicU64,
    deadline_expired: AtomicU64,
}

impl Counters {
    fn summary(&self) -> NetSummary {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        NetSummary {
            connections: load(&self.connections),
            requests: load(&self.requests),
            mutations: load(&self.mutations),
            queries: load(&self.queries),
            errors: load(&self.errors),
            deadline_expired: load(&self.deadline_expired),
        }
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The serialization point: a request holds it only to validate, enqueue
/// and record, so acknowledged order == applied order == recorded order.
/// A query is also handed to the answer stage inside it, which is what
/// keeps the answer stream in loop order; the answer itself is awaited
/// after the gate is released.
struct Gate<E> {
    handle: LiveHandle<E>,
    ids: Sequencer,
    record: Option<BufWriter<File>>,
    io_failure: Option<io::Error>,
}

impl<E> Gate<E> {
    fn record_line(&mut self, line: Option<String>) -> io::Result<()> {
        match (&mut self.record, line) {
            (Some(record), Some(line)) => writeln!(record, "{line}"),
            _ => Ok(()),
        }
    }
}

/// A query enqueued under the gate, on its way to the answer stage. The
/// stage replies with the answer line, or with the `server_error` message
/// the connection should send instead.
struct Waiting {
    answer: PendingAnswer,
    reply: mpsc::Sender<Result<String, String>>,
}

/// What every connection worker shares.
struct Front<'a, E> {
    gate: Mutex<Gate<E>>,
    counters: Counters,
    stop: &'a AtomicBool,
    deadline: Option<Duration>,
    /// Whether a `--record` file is open: record lines are encoded only
    /// then, and before the gate is taken.
    recording: bool,
    /// A record or answer write failed; every later request is refused.
    halted: AtomicBool,
}

/// The TCP front: a listener plus the state [`run`](Self::run) turns into
/// a worker pool.
pub struct NetServer<E: Send + 'static> {
    listener: TcpListener,
    addr: SocketAddr,
    config: NetConfig,
    handle: LiveHandle<E>,
    ids: Sequencer,
    record: Option<BufWriter<File>>,
}

impl<E: Send + 'static> NetServer<E> {
    /// Creates the record file (if any), then binds the listener and wires
    /// it to a serving loop's handle — so a record path that cannot be
    /// created fails here, before the server has an address to announce.
    ///
    /// `ids` is the sink's id history ([`EventSink::sequencer`], possibly
    /// journal-recovered) — server-side validation continues it. A
    /// `max_conns` of 0 is an [`io::ErrorKind::InvalidInput`] error.
    ///
    /// [`EventSink::sequencer`]: flexoffers_serving::EventSink::sequencer
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: NetConfig,
        handle: LiveHandle<E>,
        ids: Sequencer,
    ) -> io::Result<Self> {
        if config.max_conns == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_conns must be at least 1",
            ));
        }
        let record = match &config.record {
            Some(path) => Some(BufWriter::new(File::create(path).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("creating record file {}: {e}", path.display()),
                )
            })?)),
            None => None,
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            addr,
            config,
            handle,
            ids,
            record,
        })
    }

    /// The bound address (`--listen 127.0.0.1:0` resolves here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until `stop` flips: stops accepting, drains requests already
    /// received, joins the workers and then the answer stage, flushes, and
    /// shuts the serving loop down — running the sink's `finish()` (journal
    /// sync + shutdown snapshot for a durable sink). Every enqueued query's
    /// answer line streams to `answers` in serialization order — the same
    /// bytes `serve --script` would print for the recorded log.
    pub fn run<W: Write + Send>(
        self,
        stop: &AtomicBool,
        answers: W,
    ) -> Result<NetSummary, NetError<E>> {
        let NetServer {
            listener,
            addr: _,
            config,
            handle,
            ids,
            record,
        } = self;
        listener.set_nonblocking(true).map_err(NetError::Io)?;
        let front = Front {
            recording: record.is_some(),
            gate: Mutex::new(Gate {
                handle,
                ids,
                record,
                io_failure: None,
            }),
            counters: Counters::default(),
            stop,
            deadline: config.deadline,
            halted: AtomicBool::new(false),
        };
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Mutex::new(conn_rx);
        let (feed_tx, feed_rx) = mpsc::channel::<Waiting>();

        let (accept_error, staged) = std::thread::scope(|scope| {
            let (front, conn_rx) = (&front, &conn_rx);
            let stage = scope.spawn(move || answer_stage(feed_rx, answers, front));
            // Each worker feeds the stage through its own sender, only
            // ever under the gate; the stage ends once every worker has
            // exited and dropped it.
            for _ in 0..config.max_conns {
                let feed = feed_tx.clone();
                scope.spawn(move || front.worker(conn_rx, &feed));
            }
            drop(feed_tx);
            let mut accept_error = None;
            loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        bump(&front.counters.connections);
                        let _ = stream.set_nodelay(true);
                        if stream.set_read_timeout(Some(READ_POLL)).is_err() {
                            continue;
                        }
                        if conn_tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        stop.store(true, Ordering::SeqCst);
                        accept_error = Some(e);
                        break;
                    }
                }
            }
            // Dropping the sender is what lets idle workers exit; busy
            // ones finish their drain first. The stage drains every
            // answer they enqueued before it returns the writer.
            drop(conn_tx);
            let staged = stage
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (accept_error, staged)
        });

        let (mut answers, answer_failure) = staged;
        let Front { gate, counters, .. } = front;
        let mut gate = gate
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner());
        let flush_failure = match gate.record.as_mut() {
            Some(record) => record.flush().and_then(|()| answers.flush()),
            None => answers.flush(),
        }
        .err();
        gate.handle.shutdown().map_err(NetError::Sink)?;
        if let Some(e) = accept_error
            .or(gate.io_failure)
            .or(answer_failure)
            .or(flush_failure)
        {
            return Err(NetError::Io(e));
        }
        Ok(counters.summary())
    }
}

/// The answer stage: takes each enqueued query in gate order, waits for
/// its answer, appends it to the `answers` stream and hands it to the
/// waiting connection. A connection whose deadline expired no longer
/// listens, but its answer is still written, so the stream and the
/// `--record` log keep every query the gate enqueued.
fn answer_stage<E, W: Write>(
    feed: mpsc::Receiver<Waiting>,
    mut answers: W,
    front: &Front<'_, E>,
) -> (W, Option<io::Error>) {
    let mut failure = None;
    for Waiting { answer, reply } in feed {
        let outcome = match answer.wait(None) {
            Err(err) => {
                front.stop.store(true, Ordering::SeqCst);
                Err(err.to_string())
            }
            Ok(_) if failure.is_some() => Err(HALTING.to_owned()),
            Ok(line) => match writeln!(answers, "{line}").and_then(|()| answers.flush()) {
                Ok(()) => Ok(line),
                Err(e) => {
                    failure = Some(e);
                    front.halt();
                    Err("writing the answered query failed; the server is halting".to_owned())
                }
            },
        };
        // Explicitly ignored: the connection stopped listening when its
        // deadline expired.
        let _ = reply.send(outcome);
    }
    (answers, failure)
}

impl<E> Front<'_, E> {
    fn halt(&self) {
        self.halted.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
    }

    fn worker(&self, conn_rx: &Mutex<mpsc::Receiver<TcpStream>>, feed: &mpsc::Sender<Waiting>) {
        loop {
            let next = {
                let rx = conn_rx.lock().unwrap_or_else(|poison| poison.into_inner());
                rx.recv_timeout(DISPATCH_POLL)
            };
            match next {
                Ok(stream) => self.handle_conn(stream, feed),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    fn handle_conn(&self, stream: TcpStream, feed: &mpsc::Sender<Waiting>) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = LineReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        let mut last_id: Option<u64> = None;
        loop {
            let line = match reader.next_line(Some(self.stop)) {
                Line::Eof => return,
                Line::Oversize => {
                    bump(&self.counters.errors);
                    let reply = frame::error_line(
                        None,
                        ErrorCode::BadFrame,
                        &format!(
                            "frame exceeds the {}-byte line limit",
                            frame::MAX_LINE_BYTES
                        ),
                    );
                    let _ = writeln!(writer, "{reply}");
                    let _ = writer.flush();
                    return;
                }
                Line::Data(line) => line,
            };
            if line.trim().is_empty() {
                continue;
            }
            bump(&self.counters.requests);
            let (reply, error) = self.respond(feed, &line, &mut last_id);
            if writeln!(writer, "{reply}").is_err() || writer.flush().is_err() {
                return;
            }
            if error.is_some_and(ErrorCode::closes_connection) {
                return;
            }
        }
    }

    fn respond(
        &self,
        feed: &mpsc::Sender<Waiting>,
        line: &str,
        last_id: &mut Option<u64>,
    ) -> (String, Option<ErrorCode>) {
        let frame = match frame::parse(line) {
            Err(rejection) => {
                bump(&self.counters.errors);
                return (rejection.line(), Some(rejection.code));
            }
            Ok(frame) => frame,
        };
        if let Some(prev) = *last_id {
            if frame.id <= prev {
                bump(&self.counters.errors);
                return (
                    frame::error_line(
                        Some(frame.id),
                        ErrorCode::BadFrame,
                        &format!(
                            "request id {} is not greater than predecessor {prev} \
                             (ids are strictly increasing per connection)",
                            frame.id
                        ),
                    ),
                    Some(ErrorCode::BadFrame),
                );
            }
        }
        *last_id = Some(frame.id);
        match frame.event {
            Event::Query(kind) => self.query(feed, frame.id, kind),
            mutation => self.mutate(frame.id, mutation),
        }
    }

    fn fail(&self, request_id: u64, code: ErrorCode, message: &str) -> (String, Option<ErrorCode>) {
        bump(&self.counters.errors);
        (
            frame::error_line(Some(request_id), code, message),
            Some(code),
        )
    }

    /// Takes the gate, failing fast once the server is halting.
    fn lock_gate(
        &self,
        request_id: u64,
    ) -> Result<MutexGuard<'_, Gate<E>>, (String, Option<ErrorCode>)> {
        let gate = self
            .gate
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if self.halted.load(Ordering::SeqCst) {
            return Err(self.fail(request_id, ErrorCode::ServerError, HALTING));
        }
        Ok(gate)
    }

    /// Enqueues the query and registers it with the answer stage under
    /// the gate, then waits for the answer outside it.
    fn query(
        &self,
        feed: &mpsc::Sender<Waiting>,
        request_id: u64,
        kind: QueryKind,
    ) -> (String, Option<ErrorCode>) {
        let expired = || {
            bump(&self.counters.deadline_expired);
            self.fail(
                request_id,
                ErrorCode::Deadline,
                &format!("query `{kind}` missed its deadline; the answer was abandoned"),
            )
        };
        if self.deadline.is_some_and(|d| d.is_zero()) {
            return expired();
        }
        let line = self.recording.then(|| Event::Query(kind).to_json_line());
        let (reply, answered) = mpsc::channel();
        {
            let mut gate = match self.lock_gate(request_id) {
                Ok(gate) => gate,
                Err(refused) => return refused,
            };
            let answer = match gate.handle.enqueue_query(kind) {
                Ok(answer) => answer,
                Err(err) => {
                    self.stop.store(true, Ordering::SeqCst);
                    return self.fail(request_id, ErrorCode::ServerError, &err.to_string());
                }
            };
            if let Err(e) = gate.record_line(line) {
                // The pending answer drops here: the query is neither
                // recorded nor streamed.
                gate.io_failure = Some(e);
                self.halt();
                return self.fail(
                    request_id,
                    ErrorCode::ServerError,
                    "recording the query failed; the server is halting",
                );
            }
            if feed.send(Waiting { answer, reply }).is_err() {
                self.stop.store(true, Ordering::SeqCst);
                return self.fail(request_id, ErrorCode::ServerError, STAGE_GONE);
            }
        }
        let answered = match self.deadline {
            Some(d) => answered.recv_timeout(d),
            None => answered
                .recv()
                .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        };
        match answered {
            Ok(Ok(answer)) => {
                bump(&self.counters.queries);
                (frame::ok_answer(request_id, &answer), None)
            }
            Ok(Err(message)) => self.fail(request_id, ErrorCode::ServerError, &message),
            Err(mpsc::RecvTimeoutError::Timeout) => expired(),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                self.fail(request_id, ErrorCode::ServerError, STAGE_GONE)
            }
        }
    }

    fn mutate(&self, request_id: u64, mutation: Event) -> (String, Option<ErrorCode>) {
        let line = self.recording.then(|| mutation.to_json_line());
        let mut gate = match self.lock_gate(request_id) {
            Ok(gate) => gate,
            Err(refused) => return refused,
        };
        let checked = match gate.ids.check(&mutation) {
            Ok(checked) => checked,
            Err(unknown) => {
                return self.fail(request_id, ErrorCode::UnknownId, &unknown.to_string())
            }
        };
        if let Err(err) = gate.handle.send(mutation) {
            self.stop.store(true, Ordering::SeqCst);
            return self.fail(request_id, ErrorCode::ServerError, &err.to_string());
        }
        let assigned = gate.ids.commit(checked);
        if let Err(e) = gate.record_line(line) {
            gate.io_failure = Some(e);
            self.halt();
            return self.fail(
                request_id,
                ErrorCode::ServerError,
                "recording the mutation failed; the server is halting",
            );
        }
        drop(gate);
        bump(&self.counters.mutations);
        let reply = match assigned {
            Some(id) => frame::ok_assigned(request_id, id),
            None => frame::ok_true(request_id),
        };
        (reply, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{NetClient, Reply};
    use flexoffers_engine::Engine;
    use flexoffers_model::{FlexOffer, Slice};
    use flexoffers_serving::batch::BatchBook;
    use flexoffers_serving::{
        parse_script, EventSink, LiveBook, LiveError, LiveServer, QueryKind, ServeConfig,
    };
    use std::sync::Arc;
    use std::time::Instant;

    fn offer(tes: i64) -> FlexOffer {
        FlexOffer::new(tes, tes + 3, vec![Slice::new(-1, 2).unwrap()]).unwrap()
    }

    /// The answer stream, captured for comparison.
    #[derive(Clone, Default)]
    struct Captured(Arc<Mutex<Vec<u8>>>);

    impl Write for Captured {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    struct Running {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        answers: Captured,
        thread: Option<
            std::thread::JoinHandle<Result<NetSummary, NetError<flexoffers_serving::LiveError>>>,
        >,
    }

    impl Running {
        fn start(config: NetConfig) -> Self {
            let handle =
                LiveServer::spawn(ServeConfig::default(), 2, Engine::sequential()).unwrap();
            Self::serve(handle, Sequencer::default(), config)
        }

        fn serve(
            handle: LiveHandle<flexoffers_serving::LiveError>,
            ids: Sequencer,
            config: NetConfig,
        ) -> Self {
            let server = NetServer::bind("127.0.0.1:0", config, handle, ids).unwrap();
            let addr = server.local_addr();
            let stop = Arc::new(AtomicBool::new(false));
            let run_stop = Arc::clone(&stop);
            let answers = Captured::default();
            let stream = answers.clone();
            let thread = std::thread::spawn(move || server.run(&run_stop, stream));
            Self {
                addr,
                stop,
                answers,
                thread: Some(thread),
            }
        }

        fn finish(mut self) -> NetSummary {
            self.stop.store(true, Ordering::SeqCst);
            self.thread.take().unwrap().join().unwrap().unwrap()
        }
    }

    impl Drop for Running {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    /// A live book whose queries each take `delay`, counting the queries
    /// it has started and finished.
    struct SlowBook {
        book: LiveBook,
        delay: Duration,
        started: Arc<AtomicU64>,
        finished: Arc<AtomicU64>,
    }

    impl SlowBook {
        fn spawn(delay: Duration) -> (LiveHandle<LiveError>, Arc<AtomicU64>, Arc<AtomicU64>) {
            let sink = SlowBook {
                book: LiveBook::new(ServeConfig::default(), 2, Engine::sequential()).unwrap(),
                delay,
                started: Arc::default(),
                finished: Arc::default(),
            };
            let counts = (Arc::clone(&sink.started), Arc::clone(&sink.finished));
            (LiveServer::spawn_sink(sink), counts.0, counts.1)
        }
    }

    impl EventSink for SlowBook {
        type Error = LiveError;
        fn sequencer(&self) -> Sequencer {
            self.book.sequencer()
        }
        fn apply(&mut self, event: Event) -> Result<Option<String>, LiveError> {
            let query = matches!(event, Event::Query(_));
            if query {
                self.started.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(self.delay);
            }
            let answer = self.book.apply(event)?;
            if query {
                self.finished.fetch_add(1, Ordering::SeqCst);
            }
            Ok(answer)
        }
    }

    #[test]
    fn a_pool_of_zero_connections_is_refused_at_bind() {
        let handle = LiveServer::spawn(ServeConfig::default(), 1, Engine::sequential()).unwrap();
        let config = NetConfig {
            max_conns: 0,
            ..NetConfig::default()
        };
        let err = NetServer::bind("127.0.0.1:0", config, handle, Sequencer::default())
            .err()
            .expect("zero connection slots");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn requests_round_trip_and_count() {
        let server = Running::start(NetConfig::default());
        let mut client = NetClient::connect(server.addr).unwrap();
        let added = client.send_event(&Event::Add(offer(0))).unwrap();
        assert_eq!(added.assigned_id(), Some(0));
        let added = client.send_event(&Event::Add(offer(1))).unwrap();
        assert_eq!(added.assigned_id(), Some(1));
        assert_eq!(
            client
                .send_event(&Event::Update {
                    id: 0,
                    offer: offer(5)
                })
                .unwrap(),
            Reply::Ok {
                id: 2,
                payload: "true".to_owned()
            }
        );
        let Reply::Ok { payload, .. } = client
            .send_event(&Event::Query(QueryKind::Measure))
            .unwrap()
        else {
            panic!("queries answer")
        };
        assert!(payload.contains("\"offers\":2"), "{payload}");
        let summary = server.finish();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.mutations, 3);
        assert_eq!(summary.queries, 1);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn unknown_ids_fail_softly_and_bad_frames_close() {
        let server = Running::start(NetConfig::default());
        let mut client = NetClient::connect(server.addr).unwrap();
        let reply = client.send_event(&Event::Remove { id: 9 }).unwrap();
        assert_eq!(
            reply,
            Reply::Err {
                id: Some(0),
                code: "unknown_id".to_owned(),
                message: "remove of unknown offer id 9".to_owned()
            }
        );
        // The connection survived; the sink never saw the bad remove.
        assert!(client.send_event(&Event::Add(offer(0))).unwrap().is_ok());

        // A malformed frame closes the connection after the error line.
        let raw = client.send_raw("this is not a frame").unwrap().unwrap();
        assert!(
            raw.starts_with("{\"id\":null,\"error\":{\"code\":\"bad_frame\""),
            "{raw}"
        );
        // The connection is gone: either a clean EOF or a broken pipe.
        assert!(
            !matches!(client.send_raw("{}"), Ok(Some(_))),
            "closed after bad frame"
        );

        // Non-monotone ids are a framing violation too.
        let mut strict = NetClient::connect(server.addr).unwrap();
        let line = frame::request_line(5, &Event::Query(QueryKind::Measure));
        assert!(strict.send_raw(&line).unwrap().unwrap().contains("\"ok\""));
        let replayed = strict.send_raw(&line).unwrap().unwrap();
        assert!(replayed.contains("bad_frame"), "{replayed}");
        assert!(replayed.contains("strictly increasing"), "{replayed}");
        assert!(!matches!(strict.send_raw(&line), Ok(Some(_))));

        let summary = server.finish();
        assert_eq!(summary.errors, 3);
        assert_eq!(summary.mutations, 1);
    }

    #[test]
    fn zero_deadline_refuses_queries_but_not_mutations() {
        let server = Running::start(NetConfig {
            deadline: Some(Duration::ZERO),
            ..NetConfig::default()
        });
        let mut client = NetClient::connect(server.addr).unwrap();
        assert!(client.send_event(&Event::Add(offer(0))).unwrap().is_ok());
        let Reply::Err { code, message, .. } = client
            .send_event(&Event::Query(QueryKind::Measure))
            .unwrap()
        else {
            panic!("zero deadline must refuse")
        };
        assert_eq!(code, "deadline");
        assert!(message.contains("missed its deadline"), "{message}");
        // Deadline errors keep the connection open.
        assert!(client.send_event(&Event::Add(offer(1))).unwrap().is_ok());
        let summary = server.finish();
        assert_eq!(summary.deadline_expired, 1);
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.mutations, 2);
    }

    #[test]
    fn back_to_back_expired_queries_do_not_wedge_the_pool() {
        // A sink whose queries always outlive the deadline: every query
        // expires, every reply lands in a dropped channel. The regression
        // being pinned: N such expiries must not leave workers wedged —
        // the pool keeps serving mutations and fresh connections.
        struct SlowSink;
        impl flexoffers_serving::EventSink for SlowSink {
            type Error = flexoffers_serving::LiveError;
            fn sequencer(&self) -> Sequencer {
                Sequencer::default()
            }
            fn apply(
                &mut self,
                event: Event,
            ) -> Result<Option<String>, flexoffers_serving::LiveError> {
                Ok(match event {
                    Event::Query(_) => {
                        std::thread::sleep(Duration::from_millis(15));
                        Some("{\"slow\":true}".to_owned())
                    }
                    _ => None,
                })
            }
        }

        let handle = LiveServer::spawn_sink(SlowSink);
        let config = NetConfig {
            max_conns: 2,
            deadline: Some(Duration::from_millis(1)),
            record: None,
        };
        let server = Running::serve(handle, Sequencer::default(), config);

        let n = 6;
        let mut client = NetClient::connect(server.addr).unwrap();
        for i in 0..n {
            let Reply::Err { code, .. } = client
                .send_event(&Event::Query(QueryKind::Measure))
                .unwrap()
            else {
                panic!("query #{i} must expire")
            };
            assert_eq!(code, "deadline", "query #{i}");
        }
        // The pool is still alive: the same connection takes a mutation,
        // and a brand-new connection gets a worker slot.
        assert!(client.send_event(&Event::Add(offer(0))).unwrap().is_ok());
        let mut fresh = NetClient::connect(server.addr).unwrap();
        assert!(fresh.send_event(&Event::Add(offer(1))).unwrap().is_ok());

        drop(client);
        drop(fresh);
        let answers = server.answers.clone();
        let summary = server.finish();
        assert_eq!(summary.deadline_expired, n);
        assert_eq!(summary.mutations, 2);
        // Every expired query still ran and was answered into the stream.
        let streamed = String::from_utf8(answers.0.lock().unwrap().clone()).unwrap();
        assert_eq!(streamed, "{\"slow\":true}\n".repeat(n as usize));
    }

    #[test]
    fn the_record_log_is_a_valid_continuation_script() {
        let path = std::env::temp_dir().join(format!(
            "flexoffers_net_record_{}.jsonl",
            std::process::id()
        ));
        let server = Running::start(NetConfig {
            record: Some(path.clone()),
            ..NetConfig::default()
        });
        let mut client = NetClient::connect(server.addr).unwrap();
        client.send_event(&Event::Add(offer(0))).unwrap();
        client.send_event(&Event::Add(offer(1))).unwrap();
        client.send_event(&Event::Remove { id: 0 }).unwrap();
        client
            .send_event(&Event::Query(QueryKind::Aggregate))
            .unwrap();
        // A refused mutation must not be recorded.
        client.send_event(&Event::Remove { id: 0 }).unwrap();
        drop(client);
        server.finish();

        let recorded = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let events = parse_script(&recorded).unwrap();
        assert_eq!(events.len(), 4, "{recorded}");
        assert_eq!(events[2], Event::Remove { id: 0 });
        assert_eq!(events[3], Event::Query(QueryKind::Aggregate));
    }

    #[test]
    fn seeded_validation_continues_a_recovered_history() {
        // Ids 0 and 2 live, next add owns 4 — the state a recovered
        // journal would hand over.
        let handle = LiveServer::spawn(ServeConfig::default(), 2, Engine::sequential()).unwrap();
        for tes in 0..4 {
            handle.add(offer(tes)).unwrap();
        }
        handle.remove(1).unwrap();
        handle.remove(3).unwrap();
        let ids = Sequencer::seeded([0, 2], 4);
        let server = Running::serve(handle, ids, NetConfig::default());

        let mut client = NetClient::connect(server.addr).unwrap();
        assert!(client
            .send_event(&Event::Update {
                id: 2,
                offer: offer(9)
            })
            .unwrap()
            .is_ok());
        let Reply::Err { code, .. } = client.send_event(&Event::Remove { id: 1 }).unwrap() else {
            panic!("dead id must be refused")
        };
        assert_eq!(code, "unknown_id");
        let added = client.send_event(&Event::Add(offer(10))).unwrap();
        assert_eq!(added.assigned_id(), Some(4), "adds continue the history");

        drop(client);
        server.finish();
    }

    #[test]
    fn an_answer_write_failure_halts_the_server() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("answer stream closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let handle = LiveServer::spawn(ServeConfig::default(), 2, Engine::sequential()).unwrap();
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetConfig::default(),
            handle,
            Sequencer::default(),
        )
        .unwrap();
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let run_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || server.run(&run_stop, Broken));

        let mut client = NetClient::connect(addr).unwrap();
        assert!(client.send_event(&Event::Add(offer(0))).unwrap().is_ok());
        let Reply::Err { code, message, .. } = client
            .send_event(&Event::Query(QueryKind::Measure))
            .unwrap()
        else {
            panic!("an unwritable answer must fail the query")
        };
        assert_eq!(code, "server_error");
        assert!(message.contains("halting"), "{message}");
        // The server stops on its own and reports the write failure.
        let Err(NetError::Io(e)) = thread.join().unwrap() else {
            panic!("the write failure is the server's error")
        };
        assert!(e.to_string().contains("answer stream closed"), "{e}");
    }

    #[test]
    fn a_mutation_is_acked_while_another_connections_query_runs() {
        const SLOW: Duration = Duration::from_millis(300);
        let (handle, started, finished) = SlowBook::spawn(SLOW);
        let server = Running::serve(handle, Sequencer::default(), NetConfig::default());
        let mut device = NetClient::connect(server.addr).unwrap();
        assert!(device.send_event(&Event::Add(offer(0))).unwrap().is_ok());

        let addr = server.addr;
        let operator = std::thread::spawn(move || {
            NetClient::connect(addr)
                .unwrap()
                .send_event(&Event::Query(QueryKind::Measure))
                .unwrap()
        });
        let waiting = Instant::now();
        while started.load(Ordering::SeqCst) == 0 {
            assert!(
                waiting.elapsed() < Duration::from_secs(30),
                "query never ran"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        // The operator's query is running: a device's mutation on another
        // connection is acknowledged without waiting for its answer.
        let sent = Instant::now();
        assert!(device.send_event(&Event::Add(offer(1))).unwrap().is_ok());
        let acked = sent.elapsed();
        assert_eq!(
            finished.load(Ordering::SeqCst),
            0,
            "the ack waited for the running query ({acked:?})"
        );
        assert!(acked < SLOW, "ack took {acked:?}");

        // The running query answers the book before the mutation; a query
        // sent after the ack observes it.
        let Reply::Ok { payload, .. } = operator.join().unwrap() else {
            panic!("the operator's query answers")
        };
        assert!(payload.contains("\"offers\":1"), "{payload}");
        let Reply::Ok { payload, .. } = device
            .send_event(&Event::Query(QueryKind::Measure))
            .unwrap()
        else {
            panic!("the device's query answers")
        };
        assert!(payload.contains("\"offers\":2"), "{payload}");
        drop(device);
        server.finish();
    }

    #[test]
    fn expired_queries_keep_their_place_in_the_record_and_the_answer_stream() {
        let path = std::env::temp_dir().join(format!(
            "flexoffers_net_expired_{}.jsonl",
            std::process::id()
        ));
        // Every query sleeps 20 ms in the loop against a 1 ms deadline, so
        // every wait expires while the query still runs.
        let (handle, _, _) = SlowBook::spawn(Duration::from_millis(20));
        let server = Running::serve(
            handle,
            Sequencer::default(),
            NetConfig {
                max_conns: 2,
                deadline: Some(Duration::from_millis(1)),
                record: Some(path.clone()),
            },
        );
        let clients: Vec<_> = (0..2i64)
            .map(|c| {
                let addr = server.addr;
                std::thread::spawn(move || {
                    let mut client = NetClient::connect(addr).unwrap();
                    let mut mine = Vec::new();
                    let mut expired = 0u64;
                    for step in 0..12i64 {
                        let event = match step % 4 {
                            0 | 1 => Event::Add(offer(10 * c + step)),
                            2 => Event::Update {
                                id: *mine.last().unwrap(),
                                offer: offer(step - c),
                            },
                            _ => Event::Query(QueryKind::all()[(step / 4) as usize % 4]),
                        };
                        match client.send_event(&event).unwrap() {
                            Reply::Err { code, .. } => {
                                assert_eq!(code, "deadline", "step {step}");
                                expired += 1;
                            }
                            reply => mine.extend(reply.assigned_id()),
                        }
                    }
                    let first = mine[0];
                    assert!(client
                        .send_event(&Event::Remove { id: first })
                        .unwrap()
                        .is_ok());
                    expired
                })
            })
            .collect();
        let expired: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        let answers = server.answers.clone();
        let summary = server.finish();
        assert_eq!(
            (expired, summary.deadline_expired, summary.queries),
            (6, 6, 0)
        );

        // The expired queries were recorded and answered in loop order:
        // the record replayed through the batch oracle reproduces the
        // served answer stream byte for byte.
        let recorded = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let events = parse_script(&recorded).unwrap();
        assert_eq!(events.len(), 2 * 12 + 2, "{recorded}");
        let mut batch = BatchBook::new(ServeConfig::default(), Engine::sequential());
        let replayed: String = events
            .into_iter()
            .filter_map(|event| batch.apply(event).unwrap())
            .map(|answer| answer + "\n")
            .collect();
        let served = String::from_utf8(answers.0.lock().unwrap().clone()).unwrap();
        assert_eq!(served.lines().count(), 6);
        assert_eq!(served, replayed);
    }
}
