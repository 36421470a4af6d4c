//! The framed TCP server over one serving loop.
//!
//! A fixed pool of [`NetConfig::max_conns`] worker threads pulls accepted
//! connections off a queue; each worker owns one connection at a time and
//! reads `{"id":…,"event":…}` frames line by line. Every request — from
//! any connection — passes through one mutex-guarded gate that holds the
//! [`LiveHandle`], the live-id set, and the record/answer writers, so the
//! order the server acknowledges is exactly the order the book applied and
//! the order the record file shows. That single serialization point is
//! what makes the recorded log a byte-identity oracle: replaying it
//! through `flexctl serve --script --batch` reproduces every answered
//! query byte-for-byte.
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
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use flexoffers_serving::{Event, LiveHandle, Sequencer, ServeError};

use crate::conn::{Line, LineReader};
use crate::frame::{self, ErrorCode};

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(15);
/// Socket read timeout — bounds how long a drain waits on an idle reader.
const READ_POLL: Duration = Duration::from_millis(50);
/// How long an idle worker waits for the next queued connection.
const DISPATCH_POLL: Duration = Duration::from_millis(25);

/// Tunables of a [`NetServer`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Fixed worker-pool size, at least 1; connections beyond it queue
    /// until a worker frees up (`flexctl serve --max-conns`).
    pub max_conns: usize,
    /// Per-query bound on the answer wait (`--deadline-ms`). `None` waits
    /// indefinitely; a zero duration refuses every query immediately — a
    /// deterministic drill switch.
    pub deadline: Option<Duration>,
    /// Write every applied mutation and answered query to this path as a
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

/// The single serialization point: every request holds this across
/// validate + send + record, so acknowledged order == applied order ==
/// recorded order.
struct Gate<E, W> {
    handle: LiveHandle<E>,
    ids: Sequencer,
    answers: W,
    record: Option<BufWriter<File>>,
    io_failure: Option<io::Error>,
}

impl<E, W: Write> Gate<E, W> {
    fn record_line(&mut self, line: &str) -> io::Result<()> {
        if let Some(record) = &mut self.record {
            writeln!(record, "{line}")?;
        }
        Ok(())
    }

    fn answer_lines(&mut self, query_line: &str, answer: &str) -> io::Result<()> {
        self.record_line(query_line)?;
        writeln!(self.answers, "{answer}")?;
        self.answers.flush()
    }
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
    /// received, joins the workers, then shuts the serving loop down —
    /// running the sink's `finish()` (journal sync + shutdown snapshot for
    /// a durable sink). Answered query lines stream to `answers` in
    /// serialization order — the same bytes `serve --script` would print
    /// for the recorded log.
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
        let deadline = config.deadline;
        let gate = Mutex::new(Gate {
            handle,
            ids,
            answers,
            record,
            io_failure: None,
        });
        let counters = Counters::default();
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Mutex::new(conn_rx);

        let accept_error = std::thread::scope(|scope| {
            for _ in 0..config.max_conns {
                scope.spawn(|| worker(&conn_rx, &gate, &counters, stop, deadline));
            }
            let mut accept_error = None;
            loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        bump(&counters.connections);
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
            // ones finish their drain first (the scope joins them).
            drop(conn_tx);
            accept_error
        });

        let mut gate = gate
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner());
        let flush_failure = match gate.record.as_mut() {
            Some(record) => record.flush().and_then(|()| gate.answers.flush()),
            None => gate.answers.flush(),
        }
        .err();
        gate.handle.shutdown().map_err(NetError::Sink)?;
        if let Some(e) = accept_error {
            return Err(NetError::Io(e));
        }
        if let Some(e) = gate.io_failure {
            return Err(NetError::Io(e));
        }
        if let Some(e) = flush_failure {
            return Err(NetError::Io(e));
        }
        Ok(counters.summary())
    }
}

fn worker<E: Send + 'static, W: Write + Send>(
    conn_rx: &Mutex<mpsc::Receiver<TcpStream>>,
    gate: &Mutex<Gate<E, W>>,
    counters: &Counters,
    stop: &AtomicBool,
    deadline: Option<Duration>,
) {
    loop {
        let next = {
            let rx = conn_rx.lock().unwrap_or_else(|poison| poison.into_inner());
            rx.recv_timeout(DISPATCH_POLL)
        };
        match next {
            Ok(stream) => handle_conn(stream, gate, counters, stop, deadline),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn handle_conn<E: Send + 'static, W: Write + Send>(
    stream: TcpStream,
    gate: &Mutex<Gate<E, W>>,
    counters: &Counters,
    stop: &AtomicBool,
    deadline: Option<Duration>,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut last_id: Option<u64> = None;
    loop {
        let line = match reader.next_line(Some(stop)) {
            Line::Eof => return,
            Line::Oversize => {
                bump(&counters.errors);
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
        bump(&counters.requests);
        let (reply, error) = respond(gate, counters, deadline, stop, &line, &mut last_id);
        if writeln!(writer, "{reply}").is_err() || writer.flush().is_err() {
            return;
        }
        if error.is_some_and(ErrorCode::closes_connection) {
            return;
        }
    }
}

fn respond<E, W: Write>(
    gate: &Mutex<Gate<E, W>>,
    counters: &Counters,
    deadline: Option<Duration>,
    stop: &AtomicBool,
    line: &str,
    last_id: &mut Option<u64>,
) -> (String, Option<ErrorCode>) {
    let frame = match frame::parse(line) {
        Err(rejection) => {
            bump(&counters.errors);
            return (rejection.line(), Some(rejection.code));
        }
        Ok(frame) => frame,
    };
    if let Some(prev) = *last_id {
        if frame.id <= prev {
            bump(&counters.errors);
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
    process(gate, counters, deadline, stop, frame.id, frame.event)
}

fn process<E, W: Write>(
    gate: &Mutex<Gate<E, W>>,
    counters: &Counters,
    deadline: Option<Duration>,
    stop: &AtomicBool,
    request_id: u64,
    event: Event,
) -> (String, Option<ErrorCode>) {
    let mut gate = gate.lock().unwrap_or_else(|poison| poison.into_inner());
    let fail = |code: ErrorCode, message: &str| {
        bump(&counters.errors);
        (
            frame::error_line(Some(request_id), code, message),
            Some(code),
        )
    };
    if gate.io_failure.is_some() {
        return fail(
            ErrorCode::ServerError,
            "an earlier record/answer write failed; the server is halting",
        );
    }
    match event {
        Event::Query(kind) => {
            let result = match deadline {
                Some(d) if d.is_zero() => Err(ServeError::DeadlineExceeded),
                Some(d) => gate.handle.query_deadline(kind, d),
                None => gate.handle.query(kind),
            };
            match result {
                Ok(answer) => {
                    let query_line = Event::Query(kind).to_json_line();
                    if let Err(e) = gate.answer_lines(&query_line, &answer) {
                        gate.io_failure = Some(e);
                        stop.store(true, Ordering::SeqCst);
                        return fail(
                            ErrorCode::ServerError,
                            "recording the answered query failed; the server is halting",
                        );
                    }
                    bump(&counters.queries);
                    (frame::ok_answer(request_id, &answer), None)
                }
                Err(ServeError::DeadlineExceeded) => {
                    bump(&counters.deadline_expired);
                    fail(
                        ErrorCode::Deadline,
                        &format!("query `{kind}` missed its deadline; the answer was abandoned"),
                    )
                }
                Err(err) => {
                    stop.store(true, Ordering::SeqCst);
                    fail(ErrorCode::ServerError, &err.to_string())
                }
            }
        }
        mutation => {
            let checked = match gate.ids.check(&mutation) {
                Ok(checked) => checked,
                Err(unknown) => return fail(ErrorCode::UnknownId, &unknown.to_string()),
            };
            let line = mutation.to_json_line();
            if let Err(err) = gate.handle.send(mutation) {
                stop.store(true, Ordering::SeqCst);
                return fail(ErrorCode::ServerError, &err.to_string());
            }
            let assigned = gate.ids.commit(checked);
            if let Err(e) = gate.record_line(&line) {
                gate.io_failure = Some(e);
                stop.store(true, Ordering::SeqCst);
                return fail(
                    ErrorCode::ServerError,
                    "recording the mutation failed; the server is halting",
                );
            }
            bump(&counters.mutations);
            let reply = match assigned {
                Some(id) => frame::ok_assigned(request_id, id),
                None => frame::ok_true(request_id),
            };
            (reply, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{NetClient, Reply};
    use flexoffers_engine::Engine;
    use flexoffers_model::{FlexOffer, Slice};
    use flexoffers_serving::{parse_script, LiveServer, QueryKind, ServeConfig};
    use std::sync::Arc;

    fn offer(tes: i64) -> FlexOffer {
        FlexOffer::new(tes, tes + 3, vec![Slice::new(-1, 2).unwrap()]).unwrap()
    }

    struct Running {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        thread: Option<
            std::thread::JoinHandle<Result<NetSummary, NetError<flexoffers_serving::LiveError>>>,
        >,
    }

    impl Running {
        fn start(config: NetConfig) -> Self {
            let handle =
                LiveServer::spawn(ServeConfig::default(), 2, Engine::sequential()).unwrap();
            let server =
                NetServer::bind("127.0.0.1:0", config, handle, Sequencer::default()).unwrap();
            let addr = server.local_addr();
            let stop = Arc::new(AtomicBool::new(false));
            let run_stop = Arc::clone(&stop);
            let thread = std::thread::spawn(move || server.run(&run_stop, std::io::sink()));
            Self {
                addr,
                stop,
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
        let server = NetServer::bind("127.0.0.1:0", config, handle, Sequencer::default()).unwrap();
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let run_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || server.run(&run_stop, std::io::sink()));

        let n = 6;
        let mut client = NetClient::connect(addr).unwrap();
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
        let mut fresh = NetClient::connect(addr).unwrap();
        assert!(fresh.send_event(&Event::Add(offer(1))).unwrap().is_ok());

        drop(client);
        drop(fresh);
        stop.store(true, Ordering::SeqCst);
        let summary = thread.join().unwrap().unwrap();
        assert_eq!(summary.deadline_expired, n);
        assert_eq!(summary.mutations, 2);
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
        let server = NetServer::bind("127.0.0.1:0", NetConfig::default(), handle, ids).unwrap();
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let run_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || server.run(&run_stop, std::io::sink()));

        let mut client = NetClient::connect(addr).unwrap();
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
        stop.store(true, Ordering::SeqCst);
        thread.join().unwrap().unwrap();
    }
}
