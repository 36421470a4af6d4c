//! The cluster supervisor: scatter mutations, delta-gather shard exports,
//! answer from a persistent merged book.
//!
//! A [`ClusterBook`] owns one OS process per shard. Each worker holds a
//! one-shard [`LiveBook`] of the offers routed to it, so the supervisor's
//! routing — the same [`flexoffers_engine::stable_shard`] placement the
//! in-process book uses — keeps worker `w`'s shard byte-equal to shard `w`
//! of an in-process K-shard book fed the same serialized mutation
//! stream.
//!
//! # Delta gather
//!
//! The supervisor keeps a persistent **merged book** — a real in-process
//! [`LiveBook`] holding every shard as of the last gather — plus, per
//! slot, the worker's last confirmed state digest. A gather pipelines
//! `export {if_digest}` to every worker; clean workers answer the tiny
//! `not_modified` frame (digest equality over the canonical shard JSON
//! implies content equality, so the merged book's copy is already exact),
//! and only dirty workers ship their shard, which
//! [`LiveBook::import_shard`] splices into the merged book in place.
//! Queries then answer straight off the merged book — the merge and the
//! answer bytes come from the *same code* as the in-process tier, which
//! is what makes cross-process answers byte-identical at any
//! workers × threads budget, and a mostly-clean book pays for
//! one dirty shard instead of K full exports. `import_shard`'s structural
//! validation (placement, duplicate ids, digests, array shapes) doubles
//! as wire-integrity checking on everything a worker ships back, and
//! [`answer_full`](ClusterBook::answer_full) keeps the old
//! full-gather path alive as a byte-identity oracle.
//!
//! # Failure handling
//!
//! Worker death is detected on the pipe (a failed write or an EOF read)
//! and repaired in place: the supervisor respawns the process, rehydrates
//! it from the merged book's copy of its shard plus a replay of the
//! mutation suffix routed to it since the last gather, and retries the
//! in-flight operation. The suffix is recorded *before* the pipe
//! round-trip, so an op that killed the pipe mid-flight is replayed into
//! the fresh process exactly once. A respawn also clears the slot's
//! digest, so the next gather always pulls (and re-validates) a full
//! export from the rebuilt process rather than trusting a cached hash.
//! Respawn attempts are bounded; exhaustion surfaces as the structured
//! [`ClusterError::WorkerLost`], never a panic or a hang.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use flexoffers_engine::{stable_shard, Budget, Engine};
use flexoffers_model::FlexOffer;
use flexoffers_serving::{
    BookExport, Checked, Event, EventSink, ImportError, LiveBook, QueryKind, Sequencer, ServeConfig,
};
use flexoffers_storage::Book;

use crate::wire::{
    parse_export_payload, parse_reply, write_request_line, ExportPayload, WorkerReply,
    WorkerRequest,
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
    /// A gathered shard failed [`LiveBook::import_shard`] validation — a
    /// worker shipped a structurally corrupt shard.
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

/// Cumulative gather-path counters — how much of the cluster's query
/// traffic the delta path absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatherStats {
    /// How many gathers ran.
    pub gathers: u64,
    /// Shard exports that shipped in full (digest miss or first contact).
    pub dirty_shards: u64,
    /// Shard exports answered `not_modified` (digest hit; nothing
    /// deserialized, nothing imported).
    pub cached_shards: u64,
    /// Total reply-line bytes of the full exports — what the delta path
    /// actually moved over the pipes.
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
    /// repairable [`ConnFailure::Io`]. The raw line stays in `reply_buf`
    /// until the next read, so [`last_reply_len`](Self::last_reply_len)
    /// can meter what a full export actually cost on the wire.
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

    /// The byte length of the most recently read reply line.
    fn last_reply_len(&self) -> usize {
        self.reply_buf.trim_end().len()
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

/// One worker slot: the live connection, the state digest the worker
/// confirmed at the last gather (`None` until first contact and after
/// every respawn — a `None` digest forces the next gather to pull a full
/// export), and the mutation requests routed since the last gather (the
/// replay unit for respawn). The respawn baseline is *not* stored here:
/// the supervisor's merged book already holds every shard as of the last
/// gather, so one copy serves both querying and worker rehydration.
struct Slot {
    conn: WorkerConn,
    digest: Option<u64>,
    suffix: Vec<WorkerRequest>,
}

/// Boots one worker process to operational state: spawn, `init`, `load`
/// the shard image, replay the suffix. Free function so `respawn` can
/// call it while borrowing slot state immutably.
fn try_boot(
    spec: &WorkerSpec,
    budget: Budget,
    load: &WorkerRequest,
    suffix: &[WorkerRequest],
) -> Result<WorkerConn, ConnFailure> {
    let mut conn = WorkerConn::spawn(spec).map_err(|e| ConnFailure::Io(e.to_string()))?;
    conn.roundtrip(&WorkerRequest::Init {
        threads: budget.threads(),
    })?;
    conn.roundtrip(load)?;
    for request in suffix {
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

/// A worker shipped an export the supervisor cannot use.
fn bad_export(worker: usize, message: String) -> ClusterError {
    ClusterError::Worker {
        worker,
        code: "bad_export".to_owned(),
        message,
    }
}

/// The supervisor: a live book whose shards are worker processes.
///
/// Mutations scatter to the owning worker synchronously (one pipe
/// round-trip); queries delta-gather — conditional exports confirm clean
/// shards by digest and ship only dirty ones, which are imported into the
/// supervisor's persistent merged [`LiveBook`] before it answers. The
/// public surface mirrors [`LiveBook`] — [`apply`](ClusterBook::apply)
/// speaks the same [`Event`] stream, and [`EventSink`] lets
/// [`LiveServer::spawn_sink`](flexoffers_serving::LiveServer::spawn_sink)
/// and the TCP tier drive a cluster exactly like a local book.
pub struct ClusterBook {
    budget: Budget,
    spec: WorkerSpec,
    slots: Vec<Slot>,
    /// Every shard as of the last gather, behind the same engine the
    /// in-process tier answers with. Doubles as the respawn baseline
    /// store: worker `w` rehydrates from `merged.export_shard(w)`.
    merged: LiveBook,
    ids: Sequencer,
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
        let mut slots = Vec::with_capacity(workers);
        for w in 0..workers {
            let conn =
                try_boot(&spec, budget, &load_request(&merged, w), &[]).map_err(|e| match e {
                    ConnFailure::Io(message) => ClusterError::Spawn { worker: w, message },
                    ConnFailure::Fault { code, message } => ClusterError::Worker {
                        worker: w,
                        code,
                        message,
                    },
                })?;
            eprintln!("cluster worker {w} started (pid {})", conn.pid());
            slots.push(Slot {
                conn,
                digest: None,
                suffix: Vec::new(),
            });
        }
        Ok(Self {
            budget,
            spec,
            slots,
            merged,
            ids: Sequencer::default(),
            respawns: 0,
            stats: GatherStats::default(),
        })
    }

    /// The number of worker processes (== the cluster shard count).
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// The number of live offers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no offers are live.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Every live id, ascending.
    pub fn live_ids(&self) -> Vec<u64> {
        self.ids.live_ids()
    }

    /// The next id [`add`](ClusterBook::add) will assign.
    pub fn next_id(&self) -> u64 {
        self.ids.next_id()
    }

    /// How many worker respawns the supervisor has performed.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Cumulative delta-gather counters.
    pub fn gather_stats(&self) -> GatherStats {
        self.stats
    }

    /// The current worker process ids, by shard.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.slots.iter().map(|s| s.conn.pid()).collect()
    }

    /// Kills worker `w`'s process outright (SIGKILL) without telling the
    /// supervisor — a failure-injection hook for tests and the CI smoke
    /// script. The next operation touching the shard detects the broken
    /// pipe and respawns.
    pub fn kill_worker(&mut self, w: usize) {
        let _ = self.slots[w].conn.child.kill();
        let _ = self.slots[w].conn.child.wait();
    }

    /// Rebuilds worker `w` from the merged book's copy of its shard plus
    /// the slot's suffix, and clears the slot digest — a rebuilt process
    /// must prove its state with a full export on the next gather.
    /// Bounded attempts; exhaustion is [`ClusterError::WorkerLost`].
    fn respawn(&mut self, w: usize) -> Result<(), ClusterError> {
        let load = load_request(&self.merged, w);
        for _ in 0..RESPAWN_ATTEMPTS {
            let boot = try_boot(&self.spec, self.budget, &load, &self.slots[w].suffix);
            match boot {
                Ok(conn) => {
                    eprintln!("cluster worker {w} respawned (pid {})", conn.pid());
                    self.slots[w].conn = conn;
                    self.slots[w].digest = None;
                    self.respawns += 1;
                    return Ok(());
                }
                // A fresh process failing with an I/O error may be bad
                // luck (it died again); try the next attempt.
                Err(ConnFailure::Io(_)) => continue,
                // A coded error replaying known-good state is a bug a
                // retry cannot fix.
                Err(ConnFailure::Fault { code, message }) => {
                    return Err(ClusterError::Worker {
                        worker: w,
                        code,
                        message,
                    })
                }
            }
        }
        Err(ClusterError::WorkerLost { worker: w })
    }

    /// Routes one mutation request for offer `id` to its owning worker.
    /// The suffix entry is recorded *before* the round-trip so a pipe
    /// failure respawns into a state that already includes this request.
    fn route(&mut self, id: u64, request: WorkerRequest) -> Result<(), ClusterError> {
        let w = stable_shard(id, self.slots.len());
        let slot = &mut self.slots[w];
        slot.suffix.push(request);
        match slot
            .conn
            .roundtrip(slot.suffix.last().expect("pushed above"))
        {
            Ok(_) => Ok(()),
            Err(ConnFailure::Io(_)) => self.respawn(w),
            Err(ConnFailure::Fault { code, message }) => Err(ClusterError::Worker {
                worker: w,
                code,
                message,
            }),
        }
    }

    /// Inserts an offer under a caller-assigned id (the journal-replay
    /// seeding path); the id must be fresh.
    pub fn add_at(&mut self, id: u64, offer: FlexOffer) -> Result<(), ClusterError> {
        if self.ids.is_live(id) {
            return Err(ClusterError::IdTaken { id });
        }
        self.route(
            id,
            WorkerRequest::Add {
                offer_id: id,
                offer,
            },
        )?;
        self.ids.commit(Checked::Add(id));
        Ok(())
    }

    /// Inserts an offer and returns its assigned id.
    pub fn add(&mut self, offer: FlexOffer) -> Result<u64, ClusterError> {
        let id = self.ids.next_id();
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

    /// Collects worker `w`'s export on a connection that just failed:
    /// respawn, then one retry on the fresh process. The respawn cleared
    /// the slot digest, so the retry is unconditional and must ship full.
    fn regather_one(&mut self, w: usize) -> Result<serde::Value, ClusterError> {
        self.respawn(w)?;
        let request = WorkerRequest::Export { if_digest: None };
        match self.slots[w].conn.roundtrip(&request) {
            Ok(value) => Ok(value),
            Err(ConnFailure::Io(_)) => Err(ClusterError::WorkerLost { worker: w }),
            Err(ConnFailure::Fault { code, message }) => Err(ClusterError::Worker {
                worker: w,
                code,
                message,
            }),
        }
    }

    /// The gather loop both query paths share: write one export request
    /// to every worker (conditional on the slot's digest when
    /// `conditional`) before reading any reply, so workers refresh their
    /// caches (and hash their shards) in parallel; then hand each reply
    /// payload to `take` in shard order. A worker whose pipe failed is
    /// respawned and asked again, unconditionally.
    fn collect(
        &mut self,
        conditional: bool,
        mut take: impl FnMut(&mut Self, usize, ExportPayload) -> Result<(), ClusterError>,
    ) -> Result<(), ClusterError> {
        let pending: Vec<Option<u64>> = self
            .slots
            .iter_mut()
            .map(|slot| {
                let if_digest = slot.digest.filter(|_| conditional);
                slot.conn.send(&WorkerRequest::Export { if_digest }).ok()
            })
            .collect();
        for (w, request) in pending.into_iter().enumerate() {
            let first = match request {
                Some(id) => self.slots[w].conn.read_reply(id),
                None => Err(ConnFailure::Io("export request write failed".to_owned())),
            };
            let value = match first {
                Ok(value) => value,
                Err(ConnFailure::Io(_)) => self.regather_one(w)?,
                Err(ConnFailure::Fault { code, message }) => {
                    return Err(ClusterError::Worker {
                        worker: w,
                        code,
                        message,
                    })
                }
            };
            let payload = parse_export_payload(&value).map_err(|e| bad_export(w, e))?;
            take(self, w, payload)?;
        }
        Ok(())
    }

    /// Brings the merged book up to date with every worker: conditional
    /// exports confirm clean shards by digest, and only the dirty ones
    /// are imported. A gathered worker's slot resets (digest := confirmed
    /// value, suffix := empty) — the merged book *is* the respawn
    /// baseline, so the two advance together here and nowhere else. A
    /// digest hit is sound because the digest covers the canonical shard
    /// JSON: equal digest ⇒ equal canonical bytes ⇒ the merged book's
    /// copy is the worker's exact state, suffix included.
    fn gather(&mut self) -> Result<(), ClusterError> {
        self.merged.reserve_ids(self.ids.next_id());
        let (mut dirty, mut cached, mut dirty_bytes) = (0u64, 0u64, 0u64);
        self.collect(true, |this, w, payload| {
            let slot = &mut this.slots[w];
            match payload {
                ExportPayload::NotModified { digest } => {
                    if slot.digest != Some(digest) {
                        return Err(bad_export(
                            w,
                            format!(
                                "not_modified confirmed digest {digest}, supervisor expected {:?}",
                                slot.digest
                            ),
                        ));
                    }
                    cached += 1;
                }
                ExportPayload::Full { digest, shard } => {
                    dirty_bytes += slot.conn.last_reply_len() as u64;
                    this.merged
                        .import_shard(w, shard)
                        .map_err(ClusterError::Import)?;
                    slot.digest = Some(digest);
                    dirty += 1;
                }
            }
            slot.suffix.clear();
            Ok(())
        })?;
        self.stats.gathers += 1;
        self.stats.dirty_shards += dirty;
        self.stats.cached_shards += cached;
        self.stats.dirty_bytes += dirty_bytes;
        eprintln!("cluster gather: {dirty} dirty / {cached} cached");
        Ok(())
    }

    /// Gathers and merges the cluster's current state into one
    /// [`BookExport`] — what a snapshot of the cluster persists. Shards
    /// arrive warm (workers refresh before exporting), so the export is
    /// as query-ready as an in-process book's.
    pub fn export(&mut self) -> Result<BookExport, ClusterError> {
        self.gather()?;
        Ok(self.merged.export())
    }

    /// Raises the id counter to at least `next_id` — the journal-replay
    /// seeding path, where ids past the last live offer (removed tail
    /// ids) must not be reassigned.
    pub fn reserve_ids(&mut self, next_id: u64) {
        self.ids.reserve(next_id);
    }

    /// Answers one query: delta-gather, then answer off the merged book —
    /// the very same [`LiveBook`] code the in-process tier runs, so the
    /// byte-identity contract is enforced rather than re-implemented.
    pub fn answer(&mut self, kind: QueryKind) -> Result<String, ClusterError> {
        self.gather()?;
        Ok(self.merged.answer(kind))
    }

    /// Answers one query over unconditional full exports from every
    /// worker, rebuilding a fresh book from scratch — the pre-delta
    /// gather path, kept as the byte-identity oracle the delta path is
    /// tested (and benchmarked) against. Deliberately touches no slot
    /// digest, no suffix, and not the merged book, so interleaving oracle
    /// queries never helps the delta path.
    pub fn answer_full(&mut self, kind: QueryKind) -> Result<String, ClusterError> {
        let mut shards = Vec::with_capacity(self.slots.len());
        self.collect(false, |_, w, payload| match payload {
            ExportPayload::Full { shard, .. } => {
                shards.push(shard);
                Ok(())
            }
            ExportPayload::NotModified { .. } => Err(bad_export(
                w,
                "worker answered not_modified to an unconditional export".to_owned(),
            )),
        })?;
        let merged = BookExport {
            next_id: self.ids.next_id(),
            shards,
        };
        let mut book = LiveBook::from_export(
            self.merged.config().clone(),
            Engine::new(self.budget),
            merged,
        )
        .map_err(ClusterError::Import)?;
        Ok(book.answer(kind))
    }

    /// Applies one event — the cluster-side mirror of
    /// [`LiveBook::apply`]: mutations answer `Ok(None)`, queries
    /// `Ok(Some(answer_line))`. An update or remove of an id that is not
    /// live is [`ClusterError::UnknownId`], checked through the
    /// supervisor's [`Sequencer`] before anything is routed.
    pub fn apply(&mut self, event: Event) -> Result<Option<String>, ClusterError> {
        let checked = self
            .ids
            .check(&event)
            .map_err(|unknown| ClusterError::UnknownId { id: unknown.id })?;
        let (offer_id, request) = match event {
            Event::Add(offer) => {
                let offer_id = self.ids.next_id();
                (offer_id, WorkerRequest::Add { offer_id, offer })
            }
            Event::Update {
                id: offer_id,
                offer,
            } => (offer_id, WorkerRequest::Update { offer_id, offer }),
            Event::Remove { id: offer_id } => (offer_id, WorkerRequest::Remove { offer_id }),
            Event::Query(kind) => return self.answer(kind).map(Some),
        };
        self.route(offer_id, request)?;
        self.ids.commit(checked);
        Ok(None)
    }

    /// Shuts every worker down gracefully (best effort — a worker that is
    /// already dead is simply reaped by the connection's drop).
    pub fn shutdown(&mut self) {
        for slot in &mut self.slots {
            if slot.conn.roundtrip(&WorkerRequest::Shutdown).is_ok() {
                let _ = slot.conn.child.wait();
            }
        }
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
        self.ids.clone()
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
