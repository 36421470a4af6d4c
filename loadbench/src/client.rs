//! The benchmark's side of the wire: framed requests over one TCP
//! connection, either closed loop ([`Conn::call`]), pipelined through a
//! window ([`Conn::pipeline`]), or as an open loop on a fixed schedule
//! ([`open_loop`]).

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use flexoffers_net::{frame, parse_reply, Reply};
use flexoffers_serving::Event;

/// The longest a reply may take before the run fails.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// What came back for one request.
#[derive(Debug)]
pub enum Answer {
    /// An add's assigned id.
    Added(u64),
    /// An update or remove acknowledgement.
    Acked,
    /// A query's answer line.
    Line(String),
    /// An error reply, or an ok reply of the wrong shape.
    Failed(String),
}

impl Answer {
    fn from_reply(reply: Reply, event: &Event) -> Self {
        match (reply, event) {
            (reply @ Reply::Ok { .. }, Event::Add(_)) => match reply.assigned_id() {
                Some(id) => Answer::Added(id),
                None => Answer::Failed(format!("add answered {reply:?}")),
            },
            (Reply::Ok { payload, .. }, Event::Query(_)) => Answer::Line(payload),
            (Reply::Ok { payload, .. }, _) if payload == "true" => Answer::Acked,
            (reply, _) => Answer::Failed(format!("{reply:?}")),
        }
    }
}

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    next_id: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            stream,
            reader,
            line: Vec::new(),
            next_id: 0,
        })
    }

    /// Writes one framed request and returns its request id.
    pub fn send(&mut self, event: &Event) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = frame::request_line(id, event);
        line.push('\n');
        self.stream.write_all(line.as_bytes())?;
        Ok(id)
    }

    /// Reads one whole reply line; `Ok(None)` on a read timeout that left
    /// a partial line buffered (the next call continues it).
    fn read_line(&mut self) -> io::Result<Option<Reply>> {
        match self.reader.read_until(b'\n', &mut self.line) {
            Ok(0) => Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
            Ok(_) if self.line.ends_with(b"\n") => {
                let text = String::from_utf8_lossy(&self.line).trim_end().to_owned();
                self.line.clear();
                parse_reply(&text)
                    .map(Some)
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))
            }
            Ok(_) => Ok(None),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reads the reply to request `id` (replies arrive in request order).
    pub fn recv(&mut self, id: u64, event: &Event) -> io::Result<Answer> {
        let started = Instant::now();
        loop {
            if let Some(reply) = self.read_line()? {
                let got = match &reply {
                    Reply::Ok { id, .. } => Some(*id),
                    Reply::Err { id, .. } => *id,
                };
                if got != Some(id) {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        format!("expected the reply to request {id}, got {reply:?}"),
                    ));
                }
                return Ok(Answer::from_reply(reply, event));
            }
            if started.elapsed() > REPLY_TIMEOUT {
                return Err(io::Error::new(ErrorKind::TimedOut, "no reply"));
            }
        }
    }

    /// One closed-loop request: send, wait for the reply, time the round.
    pub fn call(&mut self, event: &Event) -> io::Result<(Answer, Duration)> {
        let started = Instant::now();
        let id = self.send(event)?;
        let answer = self.recv(id, event)?;
        Ok((answer, started.elapsed()))
    }

    /// Sends `events` keeping up to `window` requests in flight, and hands
    /// each reply to `on_reply` with its event, send time and reply time.
    pub fn pipeline(
        &mut self,
        events: impl IntoIterator<Item = Event>,
        window: usize,
        mut on_reply: impl FnMut(&Event, Answer, Instant, Instant),
    ) -> io::Result<()> {
        let mut in_flight: VecDeque<(u64, Event, Instant)> = VecDeque::with_capacity(window);
        let mut events = events.into_iter().peekable();
        while events.peek().is_some() || !in_flight.is_empty() {
            while in_flight.len() < window.max(1) {
                let Some(event) = events.next() else { break };
                let sent = Instant::now();
                let id = self.send(&event)?;
                in_flight.push_back((id, event, sent));
            }
            let (id, event, sent) = in_flight.pop_front().expect("a request is in flight");
            let answer = self.recv(id, &event)?;
            on_reply(&event, answer, sent, Instant::now());
        }
        Ok(())
    }
}

/// One request of an open loop: when it was due, when it went out, and
/// when its reply came back.
#[derive(Debug)]
pub struct Timed {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub event: Event,
    pub answer: Answer,
}

/// Sends `next()`'s events at `rate` per second, each due at
/// `start + k / rate`, while reading replies as they arrive, until
/// `stop()` says so; then drains the replies still in flight. A late
/// generator sends as soon as it can, so a stall shows as latency counted
/// from the due time.
pub fn open_loop(
    conn: &mut Conn,
    rate: f64,
    mut next: impl FnMut() -> Event,
    mut stop: impl FnMut() -> bool,
) -> io::Result<Vec<Timed>> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut sent_count: u32 = 0;
    let mut in_flight: VecDeque<(u64, Event, Instant, Instant)> = VecDeque::new();
    let mut done = Vec::new();
    let mut stopping = false;
    loop {
        let now = Instant::now();
        let due = start + interval * sent_count;
        if !stopping && stop() {
            stopping = true;
        }
        if stopping && in_flight.is_empty() {
            return Ok(done);
        }
        if !stopping && now >= due {
            let event = next();
            let id = conn.send(&event)?;
            in_flight.push_back((id, event, due, Instant::now()));
            sent_count += 1;
            continue;
        }
        // Wait for a reply until the next send is due (`stop` is polled
        // at least that often).
        let wait = if stopping {
            Duration::from_millis(5)
        } else {
            due.saturating_duration_since(now)
                .max(Duration::from_micros(100))
        };
        conn.stream.set_read_timeout(Some(wait))?;
        let reply = conn.read_line();
        conn.stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let Some(reply) = reply? else {
            if let Some((_, _, _, sent)) = in_flight.front() {
                if sent.elapsed() > REPLY_TIMEOUT {
                    return Err(io::Error::new(ErrorKind::TimedOut, "no reply"));
                }
            }
            continue;
        };
        let at = Instant::now();
        let (id, event, due, sent) = in_flight
            .pop_front()
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "unsolicited reply"))?;
        let got = match &reply {
            Reply::Ok { id, .. } => Some(*id),
            Reply::Err { id, .. } => *id,
        };
        if got != Some(id) {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("expected the reply to request {id}, got {reply:?}"),
            ));
        }
        let answer = Answer::from_reply(reply, &event);
        done.push(Timed {
            due,
            sent,
            done: at,
            event,
            answer,
        });
    }
}
