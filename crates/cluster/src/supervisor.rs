//! The cluster supervisor: route each mutation to its worker and apply it
//! to a persistent merged book; a query confirms the workers and answers
//! from that book.
//!
//! A [`ClusterBook`] owns one OS process per shard. Each worker holds a
//! one-shard [`LiveBook`] of the offers routed to it, so the supervisor's
//! routing — the same [`flexoffers_engine::stable_shard`] placement the
//! merged book uses — keeps worker `w`'s shard byte-equal to shard `w`
//! of the merged book.
//!
//! # The merged book
//!
//! The supervisor keeps a **merged book** — a real in-process
//! [`LiveBook`] with one shard per worker — and applies every mutation it
//! routes to it once the owning worker has acknowledged. Queries answer
//! straight off the merged book, so the answer bytes come from the
//! *same code* as the in-process tier at any workers × threads budget.
//!
//! A query's gather ships no shard. It pipelines one O(1) `confirm` to
//! every worker; each answers its shard's live count and key digest, and
//! the supervisor compares them with the merged book's
//! [`shard_sizes`](LiveBook::shard_sizes) and
//! [`key_digests`](LiveBook::key_digests). The gather then refreshes the
//! merged book's baseline partials, so a trade query finds them warm.
//! [`answer_full`](ClusterBook::answer_full) keeps the full-gather path —
//! every worker ships its whole shard into a fresh book — as the
//! byte-identity oracle.
//!
//! # Failure handling
//!
//! Worker death is detected on the pipe (a failed write or an EOF read)
//! and repaired in place: the supervisor respawns the process and loads it
//! with the merged book's copy of its shard. A mutation whose pipe failed
//! is then replayed into the fresh process — it is the only request the
//! merged book does not hold yet — and applied to the merged book once
//! acknowledged. A gather whose confirm fails, or reads counters that
//! disagree with the merged book, respawns that worker the same way.
//! Respawn attempts are bounded; exhaustion surfaces as the structured
//! [`ClusterError::WorkerLost`], never a panic or a hang. A coded worker
//! error is deterministic, so it is returned as [`ClusterError::Worker`]
//! and leaves the merged book — and with it the id history — untouched.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use flexoffers_engine::{stable_shard, Budget, Engine};
use flexoffers_model::FlexOffer;
use flexoffers_serving::{
    BookExport, Event, EventSink, ImportError, LiveBook, QueryKind, Sequencer, ServeConfig,
};
use flexoffers_storage::{value_to_shard, Book};

use crate::wire::{
    parse_confirm, parse_reply, write_request_line, Confirmed, WorkerReply, WorkerRequest,
};

/// How many consecutive boot attempts a single respawn may make before
/// the worker is declared lost.
pub const RESPAWN_ATTEMPTS: usize = 3;

/// What a cluster operation can fail with. Every variant is a named,
/// structured condition — worker death mid-operation is repaired
/// internally and only surfaces here once repair itself is exhausted.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// A worker count of zero was requested; the cluster always needs at
    /// least one shard process.
    ZeroWorkers,
    /// A worker process could not be started at all (bad program path,
    /// exec failure).
    Spawn {
        /// The worker index.
        worker: usize,
        /// The spawn failure detail.
        message: String,
    },
    /// A worker died and every respawn attempt failed — the cluster can
    /// no longer answer for its shard.
    WorkerLost {
        /// The lost worker's index (== its shard).
        worker: usize,
    },
    /// A worker answered with a coded protocol error. These are
    /// deterministic (a replay would hit them again), so they are fatal
    /// rather than respawn-and-retried.
    Worker {
        /// The worker index.
        worker: usize,
        /// The machine-readable error code.
        code: String,
        /// The human-readable detail.
        message: String,
    },
    /// A shard shipped to the full-gather oracle failed
    /// [`LiveBook::import_shard`] validation — the worker shipped a
    /// structurally corrupt shard.
    Import(ImportError),
    /// An update or remove referenced an id that is not live.
    UnknownId {
        /// The dead id.
        id: u64,
    },
    /// A seeded add named an id that is already live.
    IdTaken {
        /// The live id.
        id: u64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::ZeroWorkers => f.write_str("worker count must be at least 1"),
            ClusterError::Spawn { worker, message } => {
                write!(f, "failed to start cluster worker {worker}: {message}")
            }
            ClusterError::WorkerLost { worker } => {
                write!(
                    f,
                    "cluster worker {worker} lost — {RESPAWN_ATTEMPTS} respawn attempts exhausted"
                )
            }
            ClusterError::Worker {
                worker,
                code,
                message,
            } => write!(f, "cluster worker {worker} failed [{code}]: {message}"),
            ClusterError::Import(e) => write!(f, "gathered shard export rejected: {e}"),
            ClusterError::UnknownId { id } => write!(f, "unknown offer id {id} — not live"),
            ClusterError::IdTaken { id } => {
                write!(
                    f,
                    "offer id {id} is already live — seeded ids must be fresh"
                )
            }
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Import(e) => Some(e),
            _ => None,
        }
    }
}

/// How to start one worker process. The supervisor spawns `program` with
/// `args`, a piped stdin/stdout, and an inherited stderr (worker logs
/// land in the supervisor's stderr stream).
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    /// The program to execute — `flexctl` (whose hidden `shard-worker`
    /// subcommand runs the loop) or the standalone `flex_shard_worker`.
    pub program: PathBuf,
    /// Arguments to pass before the worker takes over stdio.
    pub args: Vec<String>,
}

impl WorkerSpec {
    /// A spec running `program` with no arguments.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        Self {
            program: program.into(),
            args: Vec::new(),
        }
    }

    /// Appends one argument.
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }
}

/// Cumulative gather-path counters — what the cluster's queries moved
/// over the pipes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatherStats {
    /// How many gathers ran.
    pub gathers: u64,
    /// Shards shipped to the supervisor on the query path. A gather
    /// confirms shards instead of shipping them, so this stays 0.
    pub dirty_shards: u64,
    /// Shards a gather confirmed: the worker's live count and key digest
    /// matched the merged book's copy.
    pub cached_shards: u64,
    /// Reply bytes of the shards shipped on the query path; 0, like
    /// [`dirty_shards`](Self::dirty_shards).
    pub dirty_bytes: u64,
}

/// Why one pipe round-trip failed — drives the repair decision.
enum ConnFailure {
    /// The pipe broke (EPIPE, EOF, or an unreadable reply stream): the
    /// process is dead or poisoned. Repairable by respawn.
    Io(String),
    /// The worker answered with a coded error: deterministic, fatal.
    Fault {
        /// The machine-readable code.
        code: String,
        /// The human-readable detail.
        message: String,
    },
}

/// One live worker process and its pipes. The request and reply line
/// buffers live here so the per-event scatter and per-query gather reuse
/// their allocations across round-trips instead of allocating two strings
/// per pipe exchange.
struct WorkerConn {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    next_request: u64,
    write_buf: String,
    reply_buf: String,
}

impl WorkerConn {
    fn spawn(spec: &WorkerSpec) -> io::Result<Self> {
        let mut child = Command::new(&spec.program)
            .args(&spec.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Self {
            child,
            stdin,
            stdout,
            next_request: 0,
            write_buf: String::new(),
            reply_buf: String::new(),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Writes one request line; returns its id for the matching read.
    fn send(&mut self, request: &WorkerRequest) -> io::Result<u64> {
        let id = self.next_request;
        self.next_request += 1;
        write_request_line(&mut self.write_buf, id, request);
        self.write_buf.push('\n');
        self.stdin.write_all(self.write_buf.as_bytes())?;
        self.stdin.flush()?;
        Ok(id)
    }

    /// Reads one reply line and checks it echoes `expect`. Anything that
    /// breaks the strict request/reply cadence — EOF, garbage, a stray
    /// id — means the stream can no longer be trusted and reads as a
    /// repairable [`ConnFailure::Io`].
    fn read_reply(&mut self, expect: u64) -> Result<serde::Value, ConnFailure> {
        self.reply_buf.clear();
        let n = self
            .stdout
            .read_line(&mut self.reply_buf)
            .map_err(|e| ConnFailure::Io(e.to_string()))?;
        if n == 0 {
            return Err(ConnFailure::Io("worker closed its pipe".to_owned()));
        }
        let (id, reply) = parse_reply(self.reply_buf.trim_end()).map_err(ConnFailure::Io)?;
        if id != Some(expect) {
            return Err(ConnFailure::Io(format!(
                "reply id {id:?} does not echo request {expect}"
            )));
        }
        match reply {
            WorkerReply::Ok(payload) => Ok(payload),
            WorkerReply::Err { code, message } => Err(ConnFailure::Fault { code, message }),
        }
    }

    fn roundtrip(&mut self, request: &WorkerRequest) -> Result<serde::Value, ConnFailure> {
        let id = self
            .send(request)
            .map_err(|e| ConnFailure::Io(e.to_string()))?;
        self.read_reply(id)
    }
}

impl Drop for WorkerConn {
    fn drop(&mut self) {
        // Best effort: a replaced or abandoned connection must not leak
        // its process or leave a zombie.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Boots one worker process to operational state: spawn, `init`, `load`
/// the shard image, then replay the one mutation the image does not hold
/// yet, if any.
fn try_boot(
    spec: &WorkerSpec,
    budget: Budget,
    load: &WorkerRequest,
    in_flight: Option<&WorkerRequest>,
) -> Result<WorkerConn, ConnFailure> {
    let mut conn = WorkerConn::spawn(spec).map_err(|e| ConnFailure::Io(e.to_string()))?;
    conn.roundtrip(&WorkerRequest::Init {
        threads: budget.threads(),
    })?;
    conn.roundtrip(load)?;
    if let Some(request) = in_flight {
        conn.roundtrip(request)?;
    }
    Ok(conn)
}

/// The `load` request that rehydrates worker `w` from the merged book's
/// copy of its shard — the empty shard at first boot.
fn load_request(merged: &LiveBook, w: usize) -> WorkerRequest {
    WorkerRequest::Load {
        next_id: merged.next_id(),
        shard: merged.export_shard(w),
    }
}

/// A coded worker error, as the cluster reports it.
fn fault(worker: usize, code: String, message: String) -> ClusterError {
    ClusterError::Worker {
        worker,
        code,
        message,
    }
}

/// The supervisor: a live book whose shards are worker processes.
///
/// Mutations go to the owning worker synchronously (one pipe round-trip)
/// and then to the supervisor's persistent merged [`LiveBook`]; queries
/// confirm every worker and answer from the merged book. The public
/// surface mirrors [`LiveBook`] — [`apply`](ClusterBook::apply) speaks
/// the same [`Event`] stream, and [`EventSink`] lets
/// [`LiveServer::spawn_sink`](flexoffers_serving::LiveServer::spawn_sink)
/// and the TCP tier drive a cluster exactly like a local book.
pub struct ClusterBook {
    budget: Budget,
    spec: WorkerSpec,
    /// One connection per worker, by shard.
    conns: Vec<WorkerConn>,
    /// Every shard, current with every acknowledged mutation, behind the
    /// same engine the in-process tier answers with. Doubles as the
    /// respawn store — worker `w` rehydrates from `merged.export_shard(w)`
    /// — and as the id history: its owner table says which ids are live.
    merged: LiveBook,
    respawns: u64,
    stats: GatherStats,
}

impl ClusterBook {
    /// Spawns `workers` shard processes, each initialized with the given
    /// evaluation budget and loaded with its (empty) shard.
    pub fn spawn(
        config: ServeConfig,
        budget: Budget,
        workers: usize,
        spec: WorkerSpec,
    ) -> Result<Self, ClusterError> {
        if workers == 0 {
            return Err(ClusterError::ZeroWorkers);
        }
        let merged = LiveBook::new(config, workers, Engine::new(budget))
            .expect("workers >= 1, so the merged book has shards");
        let mut conns = Vec::with_capacity(workers);
        for w in 0..workers {
            let conn =
                try_boot(&spec, budget, &load_request(&merged, w), None).map_err(|e| match e {
                    ConnFailure::Io(message) => ClusterError::Spawn { worker: w, message },
                    ConnFailure::Fault { code, message } => fault(w, code, message),
                })?;
            eprintln!("cluster worker {w} started (pid {})", conn.pid());
            conns.push(conn);
        }
        Ok(Self {
            budget,
            spec,
            conns,
            merged,
            respawns: 0,
            stats: GatherStats::default(),
        })
    }

    /// The number of worker processes (== the cluster shard count).
    pub fn workers(&self) -> usize {
        self.conns.len()
    }

    /// The number of live offers.
    pub fn len(&self) -> usize {
        self.merged.len()
    }

    /// Whether no offers are live.
    pub fn is_empty(&self) -> bool {
        self.merged.is_empty()
    }

    /// Every live id, ascending.
    pub fn live_ids(&self) -> Vec<u64> {
        self.merged.live_ids()
    }

    /// The next id [`add`](ClusterBook::add) will assign.
    pub fn next_id(&self) -> u64 {
        self.merged.next_id()
    }

    /// How many worker respawns the supervisor has performed.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Cumulative gather counters.
    pub fn gather_stats(&self) -> GatherStats {
        self.stats
    }

    /// The current worker process ids, by shard.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.conns.iter().map(WorkerConn::pid).collect()
    }

    /// Kills worker `w`'s process outright (SIGKILL) without telling the
    /// supervisor — a failure-injection hook for tests and the CI smoke
    /// script. The next operation touching the shard detects the broken
    /// pipe and respawns.
    pub fn kill_worker(&mut self, w: usize) {
        let _ = self.conns[w].child.kill();
        let _ = self.conns[w].child.wait();
    }

    /// Rebuilds worker `w` from the merged book's copy of its shard, then
    /// replays `in_flight` — a mutation whose round-trip failed, which
    /// the merged book does not hold yet. Bounded attempts; exhaustion is
    /// [`ClusterError::WorkerLost`].
    fn respawn(&mut self, w: usize, in_flight: Option<&WorkerRequest>) -> Result<(), ClusterError> {
        let load = load_request(&self.merged, w);
        for _ in 0..RESPAWN_ATTEMPTS {
            match try_boot(&self.spec, self.budget, &load, in_flight) {
                Ok(conn) => {
                    eprintln!("cluster worker {w} respawned (pid {})", conn.pid());
                    self.conns[w] = conn;
                    self.respawns += 1;
                    return Ok(());
                }
                // A fresh process failing with an I/O error may be bad
                // luck (it died again); try the next attempt.
                Err(ConnFailure::Io(_)) => continue,
                // A coded error replaying known-good state is a bug a
                // retry cannot fix.
                Err(ConnFailure::Fault { code, message }) => return Err(fault(w, code, message)),
            }
        }
        Err(ClusterError::WorkerLost { worker: w })
    }

    /// Routes one mutation request for offer `id` to its owning worker,
    /// then applies it to the merged book once the worker holds it. A
    /// broken pipe respawns the worker with this request replayed; a
    /// coded error returns before the merged book is touched.
    fn route(&mut self, id: u64, request: WorkerRequest) -> Result<(), ClusterError> {
        let w = stable_shard(id, self.conns.len());
        match self.conns[w].roundtrip(&request) {
            Ok(_) => {}
            Err(ConnFailure::Io(_)) => self.respawn(w, Some(&request))?,
            Err(ConnFailure::Fault { code, message }) => return Err(fault(w, code, message)),
        }
        match request {
            WorkerRequest::Add { offer_id, offer } => self.merged.add_at(offer_id, offer),
            WorkerRequest::Update { offer_id, offer } => self.merged.update(offer_id, offer),
            WorkerRequest::Remove { offer_id } => self.merged.remove(offer_id),
            other => unreachable!("only mutations are routed, not {other:?}"),
        }
        .expect("the merged book admitted the mutation before it was routed");
        Ok(())
    }

    /// Inserts an offer under a caller-assigned id (the journal-replay
    /// seeding path); the id must be fresh.
    pub fn add_at(&mut self, id: u64, offer: FlexOffer) -> Result<(), ClusterError> {
        if self.merged.is_live(id) {
            return Err(ClusterError::IdTaken { id });
        }
        self.route(
            id,
            WorkerRequest::Add {
                offer_id: id,
                offer,
            },
        )
    }

    /// Inserts an offer and returns its assigned id.
    pub fn add(&mut self, offer: FlexOffer) -> Result<u64, ClusterError> {
        let id = self.merged.next_id();
        self.apply(Event::Add(offer))?;
        Ok(id)
    }

    /// Replaces the offer with the given id.
    pub fn update(&mut self, id: u64, offer: FlexOffer) -> Result<(), ClusterError> {
        self.apply(Event::Update { id, offer }).map(|_| ())
    }

    /// Removes the offer with the given id.
    pub fn remove(&mut self, id: u64) -> Result<(), ClusterError> {
        self.apply(Event::Remove { id }).map(|_| ())
    }

    /// Writes `request` to every worker before reading any reply, so the
    /// workers answer in parallel; returns the replies in shard order. A
    /// failed write reads as a broken pipe.
    fn broadcast(&mut self, request: &WorkerRequest) -> Vec<Result<serde::Value, ConnFailure>> {
        let sent: Vec<io::Result<u64>> = self.conns.iter_mut().map(|c| c.send(request)).collect();
        self.conns
            .iter_mut()
            .zip(sent)
            .map(|(conn, sent)| match sent {
                Ok(id) => conn.read_reply(id),
                Err(e) => Err(ConnFailure::Io(e.to_string())),
            })
            .collect()
    }

    /// Checks every worker against the merged book, then refreshes the
    /// merged book's baseline partials. A worker whose `confirm` reads the
    /// merged shard's live count and key digest is counted as confirmed;
    /// one whose pipe failed, or whose counters disagree, is respawned
    /// from the merged shard. Nothing is shipped or imported, so the
    /// answer never depends on bytes a worker sends.
    fn gather(&mut self) -> Result<(), ClusterError> {
        let replies = self.broadcast(&WorkerRequest::Confirm);
        let sizes = self.merged.shard_sizes();
        let digests = self.merged.key_digests();
        let mut confirmed = 0u64;
        for (w, reply) in replies.into_iter().enumerate() {
            let expect = Confirmed {
                len: sizes[w] as u64,
                key_digest: digests[w],
            };
            match reply {
                Ok(payload) if parse_confirm(&payload) == Ok(expect) => confirmed += 1,
                Ok(_) | Err(ConnFailure::Io(_)) => self.respawn(w, None)?,
                Err(ConnFailure::Fault { code, message }) => return Err(fault(w, code, message)),
            }
        }
        self.merged.refresh();
        self.stats.gathers += 1;
        self.stats.cached_shards += confirmed;
        Ok(())
    }

    /// Confirms the workers and returns the merged book's export — what a
    /// snapshot of the cluster persists. The gather refreshed every
    /// shard, so the export is as query-ready as an in-process book's.
    pub fn export(&mut self) -> Result<BookExport, ClusterError> {
        self.gather()?;
        Ok(self.merged.export())
    }

    /// Raises the id counter to at least `next_id` — the journal-replay
    /// seeding path, where ids past the last live offer (removed tail
    /// ids) must not be reassigned.
    pub fn reserve_ids(&mut self, next_id: u64) {
        self.merged.reserve_ids(next_id);
    }

    /// Answers one query: confirm the workers, then answer off the merged
    /// book — the very same [`LiveBook`] code the in-process tier runs,
    /// so the byte-identity contract is enforced rather than
    /// re-implemented.
    pub fn answer(&mut self, kind: QueryKind) -> Result<String, ClusterError> {
        self.gather()?;
        Ok(self.merged.answer(kind))
    }

    /// Answers one query over full exports from every worker, rebuilt
    /// into a fresh book — the byte-identity oracle the confirm gather is
    /// tested against. Touches neither the merged book nor the gather
    /// counters, so interleaving oracle queries never helps the query
    /// path. A worker whose pipe failed is respawned from the merged
    /// shard and asked once more.
    pub fn answer_full(&mut self, kind: QueryKind) -> Result<String, ClusterError> {
        let replies = self.broadcast(&WorkerRequest::Export);
        let mut shards = Vec::with_capacity(replies.len());
        for (w, reply) in replies.into_iter().enumerate() {
            let reply = match reply {
                Err(ConnFailure::Io(_)) => {
                    self.respawn(w, None)?;
                    self.conns[w]
                        .roundtrip(&WorkerRequest::Export)
                        .map_err(|e| match e {
                            ConnFailure::Io(_) => ClusterError::WorkerLost { worker: w },
                            ConnFailure::Fault { code, message } => fault(w, code, message),
                        })
                }
                Err(ConnFailure::Fault { code, message }) => Err(fault(w, code, message)),
                Ok(payload) => Ok(payload),
            }?;
            shards.push(value_to_shard(&reply).map_err(|e| fault(w, "bad_export".to_owned(), e))?);
        }
        let export = BookExport {
            next_id: self.merged.next_id(),
            shards,
        };
        let mut book = LiveBook::from_export(
            self.merged.config().clone(),
            Engine::new(self.budget),
            export,
        )
        .map_err(ClusterError::Import)?;
        Ok(book.answer(kind))
    }

    /// Applies one event — the cluster-side mirror of
    /// [`LiveBook::apply`]: mutations answer `Ok(None)`, queries
    /// `Ok(Some(answer_line))`. An update or remove of an id that is not
    /// live is [`ClusterError::UnknownId`], checked against the merged
    /// book before anything is routed.
    pub fn apply(&mut self, event: Event) -> Result<Option<String>, ClusterError> {
        let (offer_id, request) = match event {
            Event::Add(offer) => {
                let offer_id = self.merged.next_id();
                (offer_id, WorkerRequest::Add { offer_id, offer })
            }
            Event::Update { id, .. } | Event::Remove { id } if !self.merged.is_live(id) => {
                return Err(ClusterError::UnknownId { id })
            }
            Event::Update {
                id: offer_id,
                offer,
            } => (offer_id, WorkerRequest::Update { offer_id, offer }),
            Event::Remove { id: offer_id } => (offer_id, WorkerRequest::Remove { offer_id }),
            Event::Query(kind) => return self.answer(kind).map(Some),
        };
        self.route(offer_id, request).map(|()| None)
    }

    /// Shuts every worker down gracefully (best effort — a worker that is
    /// already dead is simply reaped by the connection's drop), then logs
    /// the cluster's gather totals on stderr.
    pub fn shutdown(&mut self) {
        for conn in &mut self.conns {
            if conn.roundtrip(&WorkerRequest::Shutdown).is_ok() {
                let _ = conn.child.wait();
            }
        }
        let GatherStats {
            gathers,
            dirty_shards,
            cached_shards,
            ..
        } = self.stats;
        eprintln!(
            "cluster gather totals: {gathers} gathers, {cached_shards} confirmed, \
             {dirty_shards} shipped, {} respawns",
            self.respawns
        );
    }
}

impl EventSink for ClusterBook {
    type Error = ClusterError;

    fn apply(&mut self, event: Event) -> Result<Option<String>, ClusterError> {
        ClusterBook::apply(self, event)
    }

    fn finish(&mut self) -> Result<(), ClusterError> {
        self.shutdown();
        Ok(())
    }

    fn sequencer(&self) -> Sequencer {
        self.merged.sequencer()
    }
}

/// The cluster is spawned with the given worker count and program, then
/// seeded with the recovered offers in ascending id order — the same
/// shard-local orders a compacted in-process book has, so the seeded
/// cluster answers byte-identically to the recovered book.
impl Book for ClusterBook {
    type Spawn = (usize, WorkerSpec);

    fn from_recovered(
        recovered: LiveBook,
        (workers, spec): (usize, WorkerSpec),
    ) -> Result<Self, ClusterError> {
        let config = recovered.config().clone();
        let mut cluster = ClusterBook::spawn(config, recovered.budget(), workers, spec)?;
        for (id, offer) in recovered
            .live_ids()
            .into_iter()
            .zip(recovered.to_portfolio())
        {
            cluster.add_at(id, offer)?;
        }
        cluster.reserve_ids(recovered.next_id());
        Ok(cluster)
    }

    fn export(&mut self) -> Result<BookExport, ClusterError> {
        ClusterBook::export(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn cluster_errors_display_their_structure() {
        let e = ClusterError::Worker {
            worker: 2,
            code: "bad_event".to_owned(),
            message: "nope".to_owned(),
        };
        assert_eq!(e.to_string(), "cluster worker 2 failed [bad_event]: nope");
        assert!(ClusterError::WorkerLost { worker: 1 }
            .to_string()
            .contains("respawn attempts exhausted"));
        assert!(ClusterError::Import(ImportError::ZeroShards)
            .source()
            .is_some());
    }
}
