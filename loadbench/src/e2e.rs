//! The end-to-end runs: `flexctl serve --listen` driven over loopback
//! from this process, with at most two threads and two connections.
//!
//! Every workload runs the same outline in each of a few sessions: set a
//! fresh server up (spawn, preload the book with pipelined adds, first
//! answered query), run the session's share of the timed traffic, query
//! the final state, check the answers against an in-process [`LiveBook`]
//! fed the same mutations, then restart the server and time its way back
//! to an answered query. Samples are pooled over the sessions.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use flexoffers_engine::{Budget, Engine};
use flexoffers_model::FlexOffer;
use flexoffers_serving::{Event, LiveBook, QueryKind, ServeConfig};

use crate::client::{open_loop, Answer, Conn};
use crate::gen::{Generator, OPERATOR_ID};
use crate::procfs;
use crate::server::Server;
use crate::speed::Speed;
use crate::stats::{median, min_samples, Report};
use crate::trace::Tracer;

/// Requests kept in flight by a pipelining connection.
const WINDOW: usize = 128;
/// Server lifetimes per run. Each session sets a fresh server up, runs its
/// share of the timed traffic, checks the answers and restarts the server,
/// so set-up, restart and latency samples are spread over the whole run
/// instead of bunched at one end: on a shared host the CPU speed can
/// change by 1.7x from one second to the next.
const SESSIONS: usize = 5;
/// The device stream's fixed rate (mutations per second): well below the
/// ~120/s a query-saturated 19k-offer server can acknowledge.
const DEVICE_RATE: f64 = 40.0;
/// Mutations per second of `--seconds` that `durable-ingest` pipelines:
/// a fixed count, so the journal a restart recovers does not grow with
/// the speed of the run.
const INGEST_PER_SECOND: f64 = 20000.0;
/// Mutations between two measure queries in `durable-ingest`'s pipeline.
/// The server acknowledges a mutation before its serving loop applies it,
/// and a query waits for the loop, so the queries bound the backlog of
/// acknowledged but unapplied mutations. Without them the backlog grew
/// through the whole ingest by as much as the host's speed allowed, and
/// the server's peak RSS moved by 20 % from one session to the next.
const INGEST_QUERY_EVERY: usize = 8192;
/// Mutations per `cluster-gather` round: an update in shard 0, a removal
/// in shard 1 and an add, so every round's first query gathers both
/// shards dirty.
const ROUND_MUTATIONS: usize = 3;
/// Closed-loop mutations per session on an idle server, for the unloaded
/// round trip of the traced run.
const RTT_PROBES: usize = 80;
/// Restarts per session (`recover_s` is their median over the run).
const RESTARTS: usize = 2;
/// Operator cycles per session of `durable-ingest`'s read phase.
const READ_CYCLES: usize = 30;
/// Device acks per session of `cluster-gather`'s device phase: the acks
/// wait behind queries from 6 to 100 ms long, so their median needs many.
const CLUSTER_ACKS: usize = 60;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    QueryMix,
    DurableIngest,
    ClusterGather,
}

impl Workload {
    pub const ALL: [Self; 3] = [Self::QueryMix, Self::DurableIngest, Self::ClusterGather];

    pub fn name(self) -> &'static str {
        match self {
            Self::QueryMix => "query-mix",
            Self::DurableIngest => "durable-ingest",
            Self::ClusterGather => "cluster-gather",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// City households of the preloaded book (~3.38 offers each).
    pub fn households(self) -> usize {
        match self {
            Self::QueryMix => 5600,      // ~19k offers
            Self::DurableIngest => 3000, // ~10k offers
            Self::ClusterGather => 1200, // ~4k offers
        }
    }

    /// The server flags that are part of the workload's definition.
    pub fn server_args(self, dir: &Path) -> Vec<String> {
        match self {
            Self::QueryMix => vec!["--threads".into(), "2".into()],
            Self::DurableIngest => vec![
                "--journal".into(),
                dir.join("events.jsonl").display().to_string(),
            ],
            Self::ClusterGather => vec!["--workers".into(), "2".into()],
        }
    }

    /// Whether a restart recovers the book from disk (otherwise devices
    /// re-submit it).
    pub fn durable(self) -> bool {
        self == Self::DurableIngest
    }

    /// Shard count of the server's book.
    pub fn shards(self) -> usize {
        match self {
            Self::ClusterGather => 2,
            _ => 1,
        }
    }

    /// The engine budget the server's flags select.
    pub fn budget(self) -> Budget {
        match self {
            Self::QueryMix => Budget::with_threads(2).expect("2 threads is a valid budget"),
            _ => Budget::detected(),
        }
    }

    /// Which shard the `k`-th mutation of a round targets.
    pub fn target(self, k: usize) -> Option<(usize, usize)> {
        (self == Self::ClusterGather).then_some((k % 2, 2))
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub flexctl: PathBuf,
}

/// A query answer to compare with the oracle once the session is over:
/// the answer the server gave after the first `at` mutations of the
/// session's history.
struct Check {
    at: usize,
    kind: QueryKind,
    answer: String,
    label: &'static str,
}

/// Latencies of a phase that mixes an operator and a device stream.
#[derive(Default)]
struct Mixed {
    query_ms: [Vec<f64>; 4],
    mutation_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    queries: usize,
    elapsed: Duration,
}

/// Samples pooled over the sessions of a run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    recover_s: Vec<f64>,
    query_ms: [Vec<f64>; 4],
    mutation_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    rss_mib: Vec<f64>,
    rtt_us: Vec<f64>,
    /// Throughput numerator (requests of the saturating client) and the
    /// seconds it took.
    work: usize,
    busy_s: f64,
    cpu_ms: f64,
    cpu_requests: u64,
}

pub struct Run<'a> {
    opts: &'a Opts,
    dir: &'a Path,
    deadline: Instant,
    pub tracer: Rc<Tracer>,
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Reference probes spread over the run; the time metrics are scaled
    /// by their median (see [`crate::speed`]).
    pub speed: Speed,
    /// The city every session preloads, and the in-process answer to the
    /// first query over it.
    preload: Vec<FlexOffer>,
    first_answer: String,
    samples: Samples,
    // The current session:
    generator: Generator,
    /// Every mutation the server acknowledged, in the order it applied.
    history: Vec<Event>,
    next_add: u64,
    checks: Vec<Check>,
}

fn io<E: std::fmt::Display>(context: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{context}: {e}")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Two revisions of the operator's offer with different grouping keys.
/// The operator of a mixed phase alternates them before each query, so
/// every query pays for a changed book and a changed grouping; otherwise
/// whether a device mutation slipped in before a query would decide its
/// cost, and that share moves with the host's speed.
fn touches(preload: &[FlexOffer]) -> [Event; 2] {
    let key = |o: &FlexOffer| (o.earliest_start(), o.time_flexibility());
    let first = &preload[OPERATOR_ID as usize];
    let other = preload
        .iter()
        .find(|o| key(o) != key(first))
        .expect("the city has more than one grouping key");
    [first, other].map(|offer| Event::Update {
        id: OPERATOR_ID,
        offer: offer.clone(),
    })
}

/// The share of each session's pooled samples a p90 needs.
fn per_session(samples: usize) -> usize {
    samples.div_ceil(SESSIONS)
}

impl<'a> Run<'a> {
    pub fn new(opts: &'a Opts, dir: &'a Path, deadline: Instant) -> Self {
        let (generator, preload) = Generator::new(opts.seed, opts.workload.households());
        Self {
            opts,
            dir,
            deadline,
            tracer: Rc::new(Tracer::new(opts.trace)),
            report: Report::default(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            speed: Speed::default(),
            preload,
            first_answer: String::new(),
            samples: Samples::default(),
            generator,
            history: Vec::new(),
            next_add: 0,
            checks: Vec::new(),
        }
    }

    fn check_time(&self) -> Result<(), String> {
        if Instant::now() > self.deadline {
            return Err("the run exceeded its time limit".to_owned());
        }
        Ok(())
    }

    fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    /// The in-process oracle: an empty book under the server's config.
    fn oracle(&self) -> Result<LiveBook, String> {
        let mut book = LiveBook::new(
            ServeConfig::default(),
            self.opts.workload.shards(),
            Engine::new(Budget::detected()),
        )
        .map_err(io("oracle"))?;
        for offer in &self.preload {
            book.add(offer.clone());
        }
        Ok(book)
    }

    /// Counts one reply; a mutation's reply also extends the history.
    fn tally(&mut self, event: &Event, answer: &Answer) {
        self.attempted += 1;
        match (event, answer) {
            (Event::Add(_), Answer::Added(id)) => {
                if *id != self.next_add {
                    self.failed += 1;
                    let expected = self.next_add;
                    self.problem(format!("add assigned id {id}, expected {expected}"));
                }
                self.next_add = id + 1;
            }
            (Event::Update { .. } | Event::Remove { .. }, Answer::Acked) => {}
            (Event::Query(_), Answer::Line(_)) => {}
            (_, Answer::Failed(message)) => {
                self.failed += 1;
                self.problem(format!("request failed: {message}"));
            }
            (event, answer) => {
                self.failed += 1;
                self.problem(format!("{event:?} answered {answer:?}"));
            }
        }
        if !matches!(event, Event::Query(_)) && !matches!(answer, Answer::Failed(_)) {
            self.history.push(event.clone());
        }
    }

    /// One closed-loop request, counted and traced.
    fn call(
        &mut self,
        conn: &mut Conn,
        event: &Event,
        span: &'static str,
    ) -> Result<(Answer, f64), String> {
        let request = self.attempted;
        let (answer, took) = self
            .tracer
            .span(span, request, || conn.call(event))
            .map_err(io("request"))?;
        self.tally(event, &answer);
        Ok((answer, ms(took)))
    }

    /// A closed-loop query whose answer is checked against the oracle.
    fn query(
        &mut self,
        conn: &mut Conn,
        kind: QueryKind,
        label: &'static str,
    ) -> Result<f64, String> {
        let (answer, took) = self.call(conn, &Event::Query(kind), "request.query")?;
        if let Answer::Line(answer) = answer {
            self.checks.push(Check {
                at: self.history.len(),
                kind,
                answer,
                label,
            });
        }
        Ok(took)
    }

    /// Pipelines adds of `offers` through `conn`.
    fn preload(&mut self, conn: &mut Conn, offers: &[FlexOffer]) -> Result<(), String> {
        let mut replies = Vec::with_capacity(offers.len());
        conn.pipeline(
            offers.iter().cloned().map(Event::Add),
            WINDOW,
            |event, answer, _, _| replies.push((event.clone(), answer)),
        )
        .map_err(io("preload"))?;
        // The preload is the oracle's starting book, not history.
        let mark = self.history.len();
        for (event, answer) in replies {
            self.tally(&event, &answer);
        }
        self.history.truncate(mark);
        Ok(())
    }

    fn spawn(&self, dir: &Path, tag: &str) -> Result<Server, String> {
        let args = self.opts.workload.server_args(dir);
        Server::spawn(
            &self.opts.flexctl,
            self.dir,
            tag,
            &args,
            Duration::from_secs(60),
        )
    }

    /// The whole run: [`SESSIONS`] server lifetimes, then the metrics.
    pub fn run(&mut self) -> Result<(), String> {
        self.first_answer = self.oracle()?.answer(QueryKind::Measure);
        self.speed.quiet_point();
        for session in 0..SESSIONS {
            self.check_time()?;
            Rc::clone(&self.tracer)
                .span("phase.session", session as u64, || self.session(session))?;
        }
        self.summarize();
        Ok(())
    }

    /// Set-up, the session's share of the timed traffic, final answers,
    /// the oracle check, then one restart.
    fn session(&mut self, session: usize) -> Result<(), String> {
        let seed = self.opts.seed ^ (session as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.generator = Generator::new(seed, self.opts.workload.households()).0;
        self.history.clear();
        self.checks.clear();
        self.next_add = 0;
        let dir = self.dir.join(format!("session-{session}"));
        std::fs::create_dir_all(&dir).map_err(io("scratch dir"))?;

        self.speed.quiet_point();
        let started = Instant::now();
        let server = self.spawn(&dir, &format!("session-{session}"))?;
        let mut conn = Conn::connect(server.addr).map_err(io("connect"))?;
        let preload = std::mem::take(&mut self.preload);
        let setup = Rc::clone(&self.tracer).span("phase.setup", session as u64, || {
            self.preload(&mut conn, &preload)?;
            self.call(
                &mut conn,
                &Event::Query(QueryKind::Measure),
                "request.query",
            )
        });
        self.preload = preload;
        let (first, _) = setup?;
        self.samples.setup_s.push(started.elapsed().as_secs_f64());
        if !matches!(&first, Answer::Line(a) if *a == self.first_answer) {
            self.failed += 1;
            self.problem(format!(
                "first answer of session {session} differs from the in-process book"
            ));
        }

        let pids = server.pids();
        let cpu_before = procfs::cpu_ms(&pids);
        let requests_before = self.attempted;
        let share = self.opts.seconds / SESSIONS as f64;
        let workload = self.opts.workload;
        Rc::clone(&self.tracer).span("phase.main", session as u64, || match workload {
            Workload::QueryMix => self.query_mix(&mut conn, server.addr, share),
            Workload::DurableIngest => self.durable_ingest(&mut conn, server.addr, share),
            Workload::ClusterGather => self.cluster_gather(&mut conn, server.addr, share),
        })?;
        if let (Some(before), Some(after)) = (cpu_before, procfs::cpu_ms(&pids)) {
            self.samples.cpu_ms += after - before;
            self.samples.cpu_requests += self.attempted - requests_before;
        }
        if self.opts.trace {
            self.unloaded_rtt(&mut conn)?;
        }
        for kind in QueryKind::all() {
            self.query(&mut conn, kind, "final answer")?;
        }
        let rss = procfs::peak_rss_mib(&pids).ok_or("reading the server's peak RSS")?;
        self.samples.rss_mib.push(rss);
        drop(conn);
        let mut oracle =
            Rc::clone(&self.tracer).span("phase.verify", session as u64, || self.verify())?;
        server.stop()?;
        let expected = oracle.answer(QueryKind::Measure);
        let book = if workload.durable() {
            Vec::new()
        } else {
            oracle.to_portfolio().into_offers()
        };
        for rep in 0..RESTARTS {
            self.speed.quiet_point();
            self.restart(&dir, &format!("restart-{session}-{rep}"), &book, &expected)?;
        }
        Ok(())
    }

    fn query_mix(&mut self, conn: &mut Conn, addr: SocketAddr, share: f64) -> Result<(), String> {
        let min = per_session(min_samples(90.0));
        let mixed = self.mixed(conn, addr, share, min, min)?;
        self.samples.work += mixed.queries;
        self.samples.busy_s += mixed.elapsed.as_secs_f64();
        self.pool(mixed, true);
        Ok(())
    }

    fn durable_ingest(
        &mut self,
        conn: &mut Conn,
        addr: SocketAddr,
        share: f64,
    ) -> Result<(), String> {
        let count = (share * INGEST_PER_SECOND).round().max(1.0) as usize;
        let started = Instant::now();
        let mut generator = self.generator.clone();
        let mut replies = Vec::with_capacity(count + count / INGEST_QUERY_EVERY);
        let requests = (1..=count).flat_map(|k| {
            let query = (k % INGEST_QUERY_EVERY == 0).then_some(Event::Query(QueryKind::Measure));
            std::iter::once(generator.next(None)).chain(query)
        });
        Rc::clone(&self.tracer)
            .span("phase.ingest", 0, || {
                conn.pipeline(requests, WINDOW, |event, answer, _, _| {
                    replies.push((event.clone(), answer))
                })
            })
            .map_err(io("ingest"))?;
        self.generator = generator;
        for (event, answer) in replies {
            self.tally(&event, &answer);
            if let (Event::Query(kind), Answer::Line(answer)) = (event, answer) {
                self.checks.push(Check {
                    at: self.history.len(),
                    kind,
                    answer,
                    label: "measure during ingest",
                });
            }
        }
        // The phase ends when a query sent after the last mutation is
        // answered: acknowledged but unapplied mutations count.
        self.query(conn, QueryKind::Measure, "closing measure after ingest")?;
        self.samples.work += count;
        self.samples.busy_s += started.elapsed().as_secs_f64();
        // The read side of the same server: an operator querying while
        // devices keep submitting.
        let min = per_session(min_samples(90.0));
        let mixed = self.mixed(conn, addr, 0.0, READ_CYCLES.max(min), min)?;
        self.pool(mixed, true);
        Ok(())
    }

    fn cluster_gather(
        &mut self,
        conn: &mut Conn,
        addr: SocketAddr,
        share: f64,
    ) -> Result<(), String> {
        let workload = self.opts.workload;
        let started = Instant::now();
        let min_rounds = per_session(min_samples(90.0));
        let mut rounds = 0;
        while started.elapsed().as_secs_f64() < share || rounds < min_rounds {
            self.check_time()?;
            for k in 0..ROUND_MUTATIONS {
                let event = self.generator.next(workload.target(k));
                self.call(conn, &event, "request.mutation")?;
            }
            // Measure gathers both shards dirty; the rest find them cached.
            for (k, kind) in QueryKind::all().into_iter().enumerate() {
                let took = self.query(conn, kind, "cluster answer")?;
                self.samples.query_ms[k].push(took);
            }
            rounds += 1;
        }
        self.samples.work += rounds * (ROUND_MUTATIONS + 4);
        self.samples.busy_s += started.elapsed().as_secs_f64();
        // Device acks waiting behind cluster queries.
        let min = per_session(min_samples(90.0));
        let mixed = self.mixed(conn, addr, 0.0, 0, CLUSTER_ACKS.max(min))?;
        self.pool(mixed, false);
        Ok(())
    }

    /// Adds a mixed phase's samples to the run's (its query latencies
    /// only when the phase is the workload's source of them).
    fn pool(&mut self, mixed: Mixed, queries: bool) {
        if queries {
            for (pooled, samples) in self.samples.query_ms.iter_mut().zip(mixed.query_ms) {
                pooled.extend(samples);
            }
        }
        self.samples.mutation_ms.extend(mixed.mutation_ms);
        self.samples.lateness_ms.extend(mixed.lateness_ms);
    }

    /// An operator cycling measure → aggregate → schedule → trade in a
    /// closed loop on `conn`, each query preceded by a revision of the
    /// operator's own offer (see [`touches`]), while a device stream on a
    /// second connection
    /// sends the generator's mutations open loop at [`DEVICE_RATE`]. Runs
    /// for at least `min_secs`, `min_cycles` operator cycles and
    /// `min_acks` device mutations.
    fn mixed(
        &mut self,
        conn: &mut Conn,
        addr: SocketAddr,
        min_secs: f64,
        min_cycles: usize,
        min_acks: usize,
    ) -> Result<Mixed, String> {
        let mut device = Conn::connect(addr).map_err(io("connect"))?;
        let stop = AtomicBool::new(false);
        let sent = AtomicUsize::new(0);
        let mut generator = self.generator.clone();
        let workload = self.opts.workload;
        let device_tracer = Tracer::with_origin(self.tracer.enabled(), self.tracer.origin());
        let touches = touches(&self.preload);
        let mut out = Mixed::default();
        let started = Instant::now();
        let (device_side, operator) = std::thread::scope(|scope| {
            let (device, generator, stop, sent) = (&mut device, &mut generator, &stop, &sent);
            let stream = scope.spawn(move || {
                let timed = open_loop(
                    device,
                    DEVICE_RATE,
                    || {
                        let k = sent.fetch_add(1, Ordering::Relaxed);
                        generator.next(workload.target(k))
                    },
                    || stop.load(Ordering::SeqCst),
                );
                if let Ok(timed) = &timed {
                    for t in timed {
                        device_tracer.record("request.device", 0, t.due, t.done);
                    }
                }
                (timed, device_tracer)
            });
            let mut cycles = 0;
            let operator = loop {
                let done = started.elapsed().as_secs_f64() >= min_secs
                    && cycles >= min_cycles
                    && sent.load(Ordering::Relaxed) >= min_acks;
                if done {
                    break Ok(());
                }
                if Instant::now() > self.deadline {
                    break Err("the run exceeded its time limit".to_owned());
                }
                let mut failure = None;
                for (k, kind) in QueryKind::all().into_iter().enumerate() {
                    let request = self.attempted;
                    let touch = &touches[k % 2];
                    let event = Event::Query(kind);
                    let result = self
                        .tracer
                        .span("request.touch", request, || conn.call(touch))
                        .and_then(|(touched, _)| {
                            let queried = self
                                .tracer
                                .span("request.query", request + 1, || conn.call(&event))?;
                            Ok((touched, queried))
                        });
                    match result {
                        Ok((touched, (answer, took))) => {
                            self.tally(touch, &touched);
                            self.tally(&event, &answer);
                            out.query_ms[k].push(ms(took));
                            out.queries += 1;
                        }
                        Err(e) => {
                            failure = Some(format!("operator: {e}"));
                            break;
                        }
                    }
                }
                if let Some(failure) = failure {
                    break Err(failure);
                }
                cycles += 1;
            };
            out.elapsed = started.elapsed();
            stop.store(true, Ordering::SeqCst);
            (stream.join(), operator)
        });
        let (timed, device_tracer) =
            device_side.map_err(|_| "the device thread panicked".to_owned())?;
        self.generator = generator;
        self.tracer.absorb(device_tracer);
        operator?;
        let timed = timed.map_err(io("device stream"))?;
        for t in timed {
            out.mutation_ms.push(ms(t.done - t.due));
            out.lateness_ms
                .push(ms(t.sent.saturating_duration_since(t.due)));
            self.tally(&t.event, &t.answer);
        }
        Ok(out)
    }

    /// Closed-loop mutations on an otherwise idle server.
    fn unloaded_rtt(&mut self, conn: &mut Conn) -> Result<(), String> {
        for k in 0..RTT_PROBES {
            let event = self.generator.next(self.opts.workload.target(k));
            let (_, took) = self.call(conn, &event, "request.mutation")?;
            self.samples.rtt_us.push(took * 1e3);
        }
        Ok(())
    }

    /// Replays the session's history into an in-process book and compares
    /// every recorded answer; returns the book at the end of the history.
    fn verify(&mut self) -> Result<LiveBook, String> {
        let mut book = self.oracle()?;
        let history = std::mem::take(&mut self.history);
        let mut checks = std::mem::take(&mut self.checks);
        checks.sort_by_key(|c| c.at);
        let mut applied = 0;
        for check in &checks {
            self.check_time()?;
            while applied < check.at {
                book.apply(history[applied].clone())
                    .map_err(|e| format!("oracle replay: {e}"))?;
                applied += 1;
            }
            if book.answer(check.kind) != check.answer {
                self.failed += 1;
                self.problem(format!(
                    "{} ({}) after {} mutations differs from the in-process book",
                    check.label, check.kind, check.at
                ));
            }
        }
        for event in &history[applied..] {
            book.apply(event.clone())
                .map_err(|e| format!("oracle replay: {e}"))?;
        }
        Ok(book)
    }

    /// Restarts the stopped server and times its way to the first
    /// answered query. A durable server recovers its journal; an
    /// in-memory one comes back empty and its devices re-submit the book.
    /// `book` is what the devices re-submit (empty for a durable server),
    /// `expected` the oracle's measure answer.
    fn restart(
        &mut self,
        dir: &Path,
        tag: &str,
        book: &[FlexOffer],
        expected: &str,
    ) -> Result<(), String> {
        self.next_add = 0;
        let started = Instant::now();
        let server = self.spawn(dir, tag)?;
        let mut conn = Conn::connect(server.addr).map_err(io("connect"))?;
        let (answer, _) = Rc::clone(&self.tracer).span("phase.restart", 0, || {
            self.preload(&mut conn, book)?;
            self.call(
                &mut conn,
                &Event::Query(QueryKind::Measure),
                "request.query",
            )
        })?;
        self.samples.recover_s.push(started.elapsed().as_secs_f64());
        if !matches!(&answer, Answer::Line(a) if a == expected) {
            self.failed += 1;
            self.problem(format!(
                "measure after {tag} differs from the in-process book"
            ));
        }
        drop(conn);
        server.stop()
    }

    /// The run's metrics from the pooled samples, times scaled to the
    /// reference host's speed.
    fn summarize(&mut self) {
        let s = &self.samples;
        let r = &mut self.report;
        let slowdown = self.speed.slowdown();
        let scaled =
            |samples: &[f64]| -> Vec<f64> { samples.iter().map(|t| t / slowdown).collect() };
        r.put(
            "setup_s",
            median(&s.setup_s) / slowdown,
            "s",
            s.setup_s.len(),
        );
        r.put(
            "throughput_rps",
            s.work as f64 / s.busy_s * slowdown,
            "1/s",
            s.work,
        );
        r.p50_p90("mutation", &scaled(&s.mutation_ms), "ms");
        for (kind, samples) in QueryKind::all().into_iter().zip(&s.query_ms) {
            r.p50_p90(kind.name(), &scaled(samples), "ms");
        }
        r.put(
            "recover_s",
            median(&s.recover_s) / slowdown,
            "s",
            s.recover_s.len(),
        );
        r.put("peak_rss_mb", median(&s.rss_mib), "MiB", s.rss_mib.len());
        r.put(
            "host.probe_ms",
            self.speed.probe_ms(),
            "ms",
            self.speed.probes(),
        );
        let late = s.lateness_ms.iter().copied().fold(0.0, f64::max);
        r.put("client.lateness_ms", late, "ms", s.lateness_ms.len());
        if s.cpu_requests > 0 {
            r.put(
                "proc.server_cpu_ms_per_request",
                s.cpu_ms / s.cpu_requests as f64,
                "ms",
                s.cpu_requests as usize,
            );
        }
        if !s.rtt_us.is_empty() {
            r.pct("net.mutation_rtt_us", &s.rtt_us, 50.0, "us");
        }
    }
}
