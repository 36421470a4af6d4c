//! The live book: incremental per-shard state between queries.
//!
//! A [`LiveBook`] is the event-driven counterpart of a batch portfolio
//! evaluation. Offers carry stable logical ids (a monotone counter, never
//! reused); adds route through the stable hash placement
//! ([`flexoffers_engine::stable_shard`]), and the *logical
//! portfolio* at any instant is the live offers in id order — exactly the
//! portfolio a from-scratch build would hold, which is what every query
//! answer is pinned against.
//!
//! # Cache architecture
//!
//! Three layers of incremental state, each invalidated as narrowly as the
//! mutation allows:
//!
//! * **Per-shard measure rows** — the prepared-offer row pass
//!   ([`Engine::per_offer_rows`]) cached per shard behind a dirty bit. A
//!   single-offer update re-runs the pass on exactly one shard (asserted
//!   by the per-shard evaluation counters, [`LiveBook::evaluations`]); the
//!   merge gathers cached rows from everyone else.
//! * **Per-shard baseline partials** — the no-flexibility load summed per
//!   shard; integer series addition is exact, so folding partials equals
//!   the flat [`Engine::baseline_load_parallel`] bit for bit.
//! * **Group-key state** — a sorted
//!   [`flexoffers_aggregation::KeyIndex`] maintained per event
//!   (no per-query sort), a cached position grouping, and per-shard
//!   **key digests** (a commutative multiset hash of the shard's
//!   `(tes, tf)` keys, maintained in O(1) per mutation). An update that
//!   keeps its offer's grouping key leaves every digest unchanged and
//!   keeps the grouping cache warm (the in-process check compares the old
//!   and new key directly — exact, collision-free; the digests are the
//!   equivalent shard-level summary, exposed for observability and as the
//!   16-byte-per-shard comparison a future *cross-process* shard would
//!   ship instead of its keys). Only key-changing mutations force the
//!   (linear, sort-free) re-sweep.
//!
//! Queries recombine this state through the engine's own public reduction
//! and report-assembly functions, which is what makes every answer
//! byte-identical to a batch rebuild ([`crate::batch::answer`]).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

use flexoffers_aggregation::{aggregate, Aggregate, KeyIndex};
use flexoffers_engine::scenario::{flatten_rows, ScenarioError};
use flexoffers_engine::{
    parallel_map, reduce_measure_rows, splitmix64, stable_shard, Budget, Engine, EngineError,
    PortfolioReport, ScenarioKind,
};
use flexoffers_market::baseline_load;
use flexoffers_measures::{all_measures, ColumnarBatch, MeasureError};
use flexoffers_model::{Assignment, FlexOffer, Portfolio};
use flexoffers_scheduling::{earliest_start_assignment, Schedule};
use flexoffers_timeseries::ops::sum_series;
use flexoffers_timeseries::Series;
use flexoffers_workloads::OfferEvent;

use crate::config::ServeConfig;
use crate::event::{Event, QueryKind};
use crate::report::{aggregate_report, answer_line, error_line};

/// One per-offer row of measure values (all eight measures) — what the
/// per-shard cache stores and what a snapshot serializes.
pub type MeasureRow = Vec<Result<f64, MeasureError>>;

/// Local alias kept for brevity.
type Row = MeasureRow;

/// Errors applying a mutation to a live book.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LiveError {
    /// An update or remove referenced an id that is not live (never added,
    /// or already removed — ids are not reused).
    UnknownId {
        /// The dead id.
        id: u64,
    },
    /// An [`add_at`](LiveBook::add_at) named an id that is already live —
    /// caller-assigned ids must be fresh.
    IdTaken {
        /// The live id.
        id: u64,
    },
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::UnknownId { id } => write!(f, "unknown offer id {id} — not live"),
            LiveError::IdTaken { id } => {
                write!(
                    f,
                    "offer id {id} is already live — caller-assigned ids must be fresh"
                )
            }
        }
    }
}

impl Error for LiveError {}

/// Why a [`BookExport`] could not be turned back into a [`LiveBook`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImportError {
    /// The export held no shards.
    ZeroShards,
    /// The same logical id appeared twice.
    DuplicateId {
        /// The repeated id.
        id: u64,
    },
    /// An id sat in a shard other than its `stable_shard` placement.
    MisplacedId {
        /// The misplaced id.
        id: u64,
    },
    /// The id counter was not strictly past every live id — replaying a
    /// journal suffix would reassign a live id.
    StaleNextId {
        /// The exported counter.
        next_id: u64,
        /// A live id it failed to clear.
        id: u64,
    },
    /// A shard's stored key digest disagreed with its offers.
    DigestMismatch {
        /// The offending shard index.
        shard: usize,
    },
    /// A shard's parallel arrays (ids/offers, or cached rows) disagreed in
    /// length.
    CacheShape {
        /// The offending shard index.
        shard: usize,
    },
    /// An [`import_shard`](LiveBook::import_shard) named a shard index the
    /// book does not have.
    NoSuchShard {
        /// The out-of-range index.
        shard: usize,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::ZeroShards => f.write_str("export holds no shards"),
            ImportError::DuplicateId { id } => write!(f, "duplicate offer id {id}"),
            ImportError::MisplacedId { id } => {
                write!(f, "offer id {id} is not in its stable shard")
            }
            ImportError::StaleNextId { next_id, id } => {
                write!(f, "next id {next_id} does not clear live id {id}")
            }
            ImportError::DigestMismatch { shard } => {
                write!(f, "shard {shard}: key digest disagrees with its offers")
            }
            ImportError::CacheShape { shard } => {
                write!(f, "shard {shard}: parallel arrays disagree in length")
            }
            ImportError::NoSuchShard { shard } => {
                write!(f, "shard index {shard} is out of range")
            }
        }
    }
}

impl Error for ImportError {}

/// A serializable image of one shard's cached evaluation state — the rows
/// and baseline partial a clean shard would otherwise recompute.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardCacheExport {
    /// Per-offer measure rows, aligned with the shard's local offer order.
    pub rows: Vec<MeasureRow>,
    /// The shard's no-flexibility baseline partial.
    pub baseline: Series<i64>,
}

/// A serializable image of one [`LiveBook`] shard.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardExport {
    /// The shard's live ids, in local (arrival/swap-remove) order.
    pub ids: Vec<u64>,
    /// The offers, aligned with `ids`.
    pub offers: Vec<FlexOffer>,
    /// The shard's commutative `(tes, tf)` key digest.
    pub key_digest: u64,
    /// The cached evaluation state, when the shard was clean.
    pub cache: Option<ShardCacheExport>,
}

/// A full serializable image of a live book's incremental state — what a
/// snapshot persists and [`LiveBook::from_export`] validates back into a
/// book. Deliberately excludes the evaluation counters (observability,
/// reset on import) and the scratch arenas (rebuilt on first refresh).
#[derive(Clone, Debug, PartialEq)]
pub struct BookExport {
    /// The monotone id counter (strictly past every live id).
    pub next_id: u64,
    /// Per-shard state, in shard order.
    pub shards: Vec<ShardExport>,
}

/// Locks a scratch arena, recovering from poison: the arena holds no
/// results — only reusable buffers that every pass overwrites before
/// reading — so a worker panicking mid-fill leaves nothing worth
/// preserving and nothing that can corrupt a later refresh.
fn lock_scratch(arena: &Mutex<ColumnarBatch>) -> std::sync::MutexGuard<'_, ColumnarBatch> {
    arena
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Unwraps a scratch arena back out of its fan-out wrapper, recovering
/// from poison for the same reason as [`lock_scratch`].
fn reclaim_scratch(arena: Mutex<ColumnarBatch>) -> ColumnarBatch {
    arena
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The cached evaluation state of one shard, valid only while the shard is
/// clean (any mutation of the shard drops the whole cache).
struct ShardCache {
    /// Per-offer measure rows, aligned with the shard's local offer order.
    rows: Vec<Row>,
    /// The shard's no-flexibility baseline partial.
    baseline: Series<i64>,
}

/// One shard of a [`LiveBook`]: parallel id/offer arrays (local order is
/// arrival order with swap-remove holes — global order is restored through
/// the id ranks, never from shard order).
struct LiveShard {
    ids: Vec<u64>,
    offers: Vec<FlexOffer>,
    cache: Option<ShardCache>,
    key_digest: u64,
    evaluations: usize,
    /// The shard's columnar scratch arena: the measure pass and baseline
    /// partial run inside it ([`Engine::per_offer_rows_in`]), and its
    /// buffers persist across refreshes — once a shard has been evaluated
    /// at its steady-state size, re-evaluations allocate nothing in the
    /// kernels.
    arena: ColumnarBatch,
}

impl LiveShard {
    fn new() -> Self {
        Self {
            ids: Vec::new(),
            offers: Vec::new(),
            cache: None,
            key_digest: 0,
            evaluations: 0,
            arena: ColumnarBatch::new(),
        }
    }
}

/// An offer's grouping key — the 16 bytes the aggregation layer sweeps.
fn grouping_key(offer: &FlexOffer) -> (i64, i64) {
    (offer.earliest_start(), offer.time_flexibility())
}

/// A commutative multiset hash of one grouping key: shard digests are the
/// wrapping sum of member key hashes, so insert/remove/update maintain
/// them in O(1) and equal key multisets give equal digests regardless of
/// arrival order. (The engine's [`splitmix64`] twice — the exact mix the
/// hash partitioner uses — so near-identical keys do not cancel.)
fn key_hash((tes, tf): (i64, i64)) -> u64 {
    splitmix64(splitmix64(tes as u64) ^ (tf as u64))
}

/// The event-driven book — see the module docs for the cache architecture
/// and the crate docs for the byte-identity contract.
pub struct LiveBook {
    config: ServeConfig,
    engine: Engine,
    shards: Vec<LiveShard>,
    /// `owners[id] = (shard, local)` for every live id; iteration order is
    /// id order, i.e. logical portfolio order.
    owners: BTreeMap<u64, (usize, usize)>,
    next_id: u64,
    /// The live `(tes, tf)` keys, kept sorted across mutations.
    keys: KeyIndex,
    /// The grouping as *positions* into the logical portfolio, cached
    /// until a mutation changes the key multiset or the id set.
    groups_cache: Option<Vec<Vec<usize>>>,
}

impl LiveBook {
    /// An empty book over `shards` shards, answering queries under
    /// `config` with `engine`'s budget.
    pub fn new(config: ServeConfig, shards: usize, engine: Engine) -> Result<Self, EngineError> {
        if shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        Ok(Self {
            config,
            engine,
            shards: (0..shards).map(|_| LiveShard::new()).collect(),
            owners: BTreeMap::new(),
            next_id: 0,
            keys: KeyIndex::new(),
            groups_cache: None,
        })
    }

    /// Number of live offers.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// `true` when no offers are live.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard live offer counts, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.ids.len()).collect()
    }

    /// The serving configuration queries run under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The evaluation budget queries run under.
    pub fn budget(&self) -> Budget {
        self.engine.budget()
    }

    /// How many times each shard's measure pass has run — the observable
    /// the incremental contract is asserted on: after a warm query, a
    /// single-offer update followed by another query bumps exactly one
    /// shard's counter.
    pub fn evaluations(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.evaluations).collect()
    }

    /// Per-shard group-key digests (commutative multiset hashes of the
    /// shard's `(tes, tf)` keys). Equal digests across a mutation mean the
    /// grouping inputs did not change. In process the warm-cache decision
    /// uses the exact old-vs-new key comparison (see
    /// [`update`](Self::update)); the digests are the shard-level summary
    /// of the same fact — what tests observe, and what a cross-process
    /// shard would ship to prove its key multiset unchanged without
    /// resending the keys.
    pub fn key_digests(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.key_digest).collect()
    }

    /// `true` while the cached position grouping is valid (no key- or
    /// id-set-changing mutation since it was computed).
    pub fn groups_cached(&self) -> bool {
        self.groups_cache.is_some()
    }

    /// The live ids in logical (id) order.
    pub fn live_ids(&self) -> Vec<u64> {
        self.owners.keys().copied().collect()
    }

    /// The id the next add will receive. Together with
    /// [`live_ids`](Self::live_ids) this is the book's
    /// [`Sequencer`](crate::Sequencer) — what a script that *continues*
    /// this book's history is validated against.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The logical portfolio at this instant: live offers in id order —
    /// exactly what a from-scratch build would evaluate. Clones every
    /// offer; meant for oracles and tests, not the serving hot path.
    pub fn to_portfolio(&self) -> Portfolio {
        self.owners
            .values()
            .map(|&(s, local)| self.shards[s].offers[local].clone())
            .collect()
    }

    /// A serializable image of the book's incremental state — per-shard
    /// ids, offers, key digests, cached rows/baseline partials, and the id
    /// counter. Clones everything; meant for the snapshot path, which runs
    /// off the hot loop's cadence.
    pub fn export(&self) -> BookExport {
        BookExport {
            next_id: self.next_id,
            shards: (0..self.shards.len())
                .map(|s| self.export_shard(s))
                .collect(),
        }
    }

    /// A serializable image of one shard — the per-shard slice of
    /// [`export`](Self::export). The cluster tier uses it on both sides of
    /// the pipe: a shard worker serializes *its own* shard (the rest of
    /// its book is empty), and the supervisor extracts a respawn baseline
    /// for one worker from its persistent merged book.
    ///
    /// # Panics
    ///
    /// If `s` is not a shard index of this book.
    pub fn export_shard(&self, s: usize) -> ShardExport {
        let shard = &self.shards[s];
        ShardExport {
            ids: shard.ids.clone(),
            offers: shard.offers.clone(),
            key_digest: shard.key_digest,
            cache: shard.cache.as_ref().map(|cache| ShardCacheExport {
                rows: cache.rows.clone(),
                baseline: cache.baseline.clone(),
            }),
        }
    }

    /// Rebuilds a book from an export, revalidating every structural
    /// invariant a fresh build would have established: unique ids in their
    /// stable shards, an id counter strictly past every live id, key
    /// digests that match the offers, and aligned parallel arrays. The
    /// owner table and sorted key index are reconstructed (they are pure
    /// functions of the shard arrays); evaluation counters reset and the
    /// grouping cache starts cold.
    pub fn from_export(
        config: ServeConfig,
        engine: Engine,
        export: BookExport,
    ) -> Result<Self, ImportError> {
        if export.shards.is_empty() {
            return Err(ImportError::ZeroShards);
        }
        let shard_count = export.shards.len();
        let mut owners = BTreeMap::new();
        let mut keys = KeyIndex::new();
        let mut shards = Vec::with_capacity(shard_count);
        for (s, shard) in export.shards.into_iter().enumerate() {
            if shard.ids.len() != shard.offers.len() {
                return Err(ImportError::CacheShape { shard: s });
            }
            if let Some(cache) = &shard.cache {
                if cache.rows.len() != shard.offers.len() {
                    return Err(ImportError::CacheShape { shard: s });
                }
            }
            let mut digest = 0u64;
            for (local, (&id, offer)) in shard.ids.iter().zip(&shard.offers).enumerate() {
                if stable_shard(id, shard_count) != s {
                    return Err(ImportError::MisplacedId { id });
                }
                if owners.insert(id, (s, local)).is_some() {
                    return Err(ImportError::DuplicateId { id });
                }
                if id >= export.next_id {
                    return Err(ImportError::StaleNextId {
                        next_id: export.next_id,
                        id,
                    });
                }
                let key = grouping_key(offer);
                digest = digest.wrapping_add(key_hash(key));
                keys.insert(id, key);
            }
            if digest != shard.key_digest {
                return Err(ImportError::DigestMismatch { shard: s });
            }
            shards.push(LiveShard {
                ids: shard.ids,
                offers: shard.offers,
                cache: shard.cache.map(|cache| ShardCache {
                    rows: cache.rows,
                    baseline: cache.baseline,
                }),
                key_digest: shard.key_digest,
                evaluations: 0,
                arena: ColumnarBatch::new(),
            });
        }
        Ok(Self {
            config,
            engine,
            shards,
            owners,
            next_id: export.next_id,
            keys,
            groups_cache: None,
        })
    }

    /// Advances the id counter to at least `next_id` (it never rewinds).
    /// The delta-gather supervisor owns the global counter and raises its
    /// merged book's before importing shards, so
    /// [`import_shard`](Self::import_shard)'s `StaleNextId` check is
    /// against the *global* horizon, not whatever this book last saw.
    pub fn reserve_ids(&mut self, next_id: u64) {
        self.next_id = self.next_id.max(next_id);
    }

    /// Replaces shard `s` wholesale with an exported image — the delta
    /// gather's merge step: a persistent merged book swaps in only the
    /// shards whose digests changed, instead of
    /// [`from_export`](Self::from_export) rebuilding all of them.
    ///
    /// Revalidates everything `from_export` would for that shard (stable
    /// placement, no duplicate ids — including against offers *other*
    /// shards of this book already hold — an id counter that clears every
    /// imported id, a key digest matching the offers, aligned parallel
    /// arrays) **before** mutating, so a failed import leaves the book
    /// untouched. Callers whose counter may trail the import call
    /// [`reserve_ids`](Self::reserve_ids) first.
    ///
    /// The owner table and sorted key index are patched incrementally; the
    /// grouping cache survives exactly when the shard's id sequence and
    /// per-position grouping keys are unchanged (a profile-only refresh),
    /// and the shard's scratch arena and evaluation counter are kept.
    pub fn import_shard(&mut self, s: usize, shard: ShardExport) -> Result<(), ImportError> {
        let shard_count = self.shards.len();
        if s >= shard_count {
            return Err(ImportError::NoSuchShard { shard: s });
        }
        if shard.ids.len() != shard.offers.len() {
            return Err(ImportError::CacheShape { shard: s });
        }
        if let Some(cache) = &shard.cache {
            if cache.rows.len() != shard.offers.len() {
                return Err(ImportError::CacheShape { shard: s });
            }
        }
        let mut digest = 0u64;
        let mut fresh = std::collections::BTreeSet::new();
        for (&id, offer) in shard.ids.iter().zip(&shard.offers) {
            if stable_shard(id, shard_count) != s {
                return Err(ImportError::MisplacedId { id });
            }
            // An owner entry pointing at shard `s` is being replaced; one
            // pointing anywhere else means the id is live twice.
            if !fresh.insert(id) || self.owners.get(&id).is_some_and(|&(owner, _)| owner != s) {
                return Err(ImportError::DuplicateId { id });
            }
            if id >= self.next_id {
                return Err(ImportError::StaleNextId {
                    next_id: self.next_id,
                    id,
                });
            }
            digest = digest.wrapping_add(key_hash(grouping_key(offer)));
        }
        if digest != shard.key_digest {
            return Err(ImportError::DigestMismatch { shard: s });
        }

        // Validation passed — commit. First decide whether the grouping
        // inputs changed (exact per-position comparison, the same standard
        // `update` applies in process: digests summarize, ids + keys
        // decide).
        let unchanged = {
            let old = &self.shards[s];
            old.ids == shard.ids
                && old
                    .offers
                    .iter()
                    .zip(&shard.offers)
                    .all(|(old, new)| grouping_key(old) == grouping_key(new))
        };
        for local in 0..self.shards[s].ids.len() {
            let id = self.shards[s].ids[local];
            let key = grouping_key(&self.shards[s].offers[local]);
            self.owners.remove(&id);
            assert!(self.keys.remove(id, key), "owner table and keys agree");
        }
        for (local, (&id, offer)) in shard.ids.iter().zip(&shard.offers).enumerate() {
            self.owners.insert(id, (s, local));
            self.keys.insert(id, grouping_key(offer));
        }
        let live = &mut self.shards[s];
        live.ids = shard.ids;
        live.offers = shard.offers;
        live.key_digest = shard.key_digest;
        live.cache = shard.cache.map(|cache| ShardCache {
            rows: cache.rows,
            baseline: cache.baseline,
        });
        if !unchanged {
            self.groups_cache = None;
        }
        Ok(())
    }

    /// Applies one mutation or query. Mutations return `Ok(None)`; queries
    /// return `Ok(Some(answer))` with the one-line JSON answer.
    pub fn apply(&mut self, event: Event) -> Result<Option<String>, LiveError> {
        match event {
            Event::Add(offer) => {
                self.add(offer);
                Ok(None)
            }
            Event::Update { id, offer } => self.update(id, offer).map(|()| None),
            Event::Remove { id } => self.remove(id).map(|()| None),
            Event::Query(kind) => Ok(Some(self.answer(kind))),
        }
    }

    /// Applies one workload mutation ([`flexoffers_workloads::OfferEvent`]).
    pub fn apply_offer_event(&mut self, event: OfferEvent) -> Result<(), LiveError> {
        self.apply(event.into()).map(|answer| {
            debug_assert!(answer.is_none(), "offer events are never queries");
        })
    }

    /// Adds an offer, assigning and returning the next logical id. Routes
    /// to `stable_shard(id, shards)`; the placement is irrelevant to
    /// answers (the merge is partition-independent), it only spreads
    /// load.
    pub fn add(&mut self, offer: FlexOffer) -> u64 {
        let id = self.next_id;
        self.add_at(id, offer)
            .expect("next_id is strictly past every live id");
        id
    }

    /// Adds an offer under a *caller-assigned* logical id — the
    /// cross-process shard worker's entry point: the supervisor owns the
    /// monotone id counter, and a worker inserts each routed offer under
    /// the global id it arrived with, so the worker's shard arrays stay
    /// byte-equal to the in-process book's. The id must not be live
    /// ([`LiveError::IdTaken`] otherwise) but *may* sit below
    /// [`next_id`](Self::next_id): a respawned worker replays journal
    /// events whose ids its counter already passed. The counter only ever
    /// advances (`next_id = max(next_id, id + 1)`, saturating), keeping
    /// the export invariant that it strictly clears every live id.
    pub fn add_at(&mut self, id: u64, offer: FlexOffer) -> Result<(), LiveError> {
        if self.owners.contains_key(&id) {
            return Err(LiveError::IdTaken { id });
        }
        self.next_id = self.next_id.max(id.saturating_add(1));
        let s = stable_shard(id, self.shards.len());
        let key = grouping_key(&offer);
        let shard = &mut self.shards[s];
        self.owners.insert(id, (s, shard.ids.len()));
        shard.ids.push(id);
        shard.offers.push(offer);
        shard.cache = None;
        shard.key_digest = shard.key_digest.wrapping_add(key_hash(key));
        self.keys.insert(id, key);
        self.groups_cache = None;
        Ok(())
    }

    /// Replaces the offer with logical id `id` in place. Dirties exactly
    /// that offer's shard; when the replacement keeps the offer's grouping
    /// key, the key index, digests, and cached grouping all stay warm.
    pub fn update(&mut self, id: u64, offer: FlexOffer) -> Result<(), LiveError> {
        let &(s, local) = self.owners.get(&id).ok_or(LiveError::UnknownId { id })?;
        let shard = &mut self.shards[s];
        let old_key = grouping_key(&shard.offers[local]);
        let new_key = grouping_key(&offer);
        if old_key != new_key {
            assert!(self.keys.remove(id, old_key), "owner table and keys agree");
            self.keys.insert(id, new_key);
            shard.key_digest = shard
                .key_digest
                .wrapping_sub(key_hash(old_key))
                .wrapping_add(key_hash(new_key));
            self.groups_cache = None;
        }
        shard.offers[local] = offer;
        shard.cache = None;
        Ok(())
    }

    /// Removes the offer with logical id `id` (ids are never reused).
    pub fn remove(&mut self, id: u64) -> Result<(), LiveError> {
        let (s, local) = self.owners.remove(&id).ok_or(LiveError::UnknownId { id })?;
        let shard = &mut self.shards[s];
        let key = grouping_key(&shard.offers[local]);
        shard.ids.swap_remove(local);
        shard.offers.swap_remove(local);
        if let Some(&moved) = shard.ids.get(local) {
            // swap_remove relocated the former tail into the hole.
            self.owners.insert(moved, (s, local));
        }
        shard.cache = None;
        shard.key_digest = shard.key_digest.wrapping_sub(key_hash(key));
        assert!(self.keys.remove(id, key), "owner table and keys agree");
        self.groups_cache = None;
        Ok(())
    }

    /// Answers one query from the incremental state as a single JSON line
    /// — byte-identical to a from-scratch batch evaluation of the current
    /// logical portfolio ([`crate::batch::answer`]).
    pub fn answer(&mut self, kind: QueryKind) -> String {
        match kind {
            QueryKind::Measure => self.measure_answer(),
            QueryKind::Aggregate => self.aggregate_answer(),
            QueryKind::Schedule => self.schedule_answer(),
            QueryKind::Trade => self.trade_answer(),
        }
    }

    fn measure_answer(&mut self) -> String {
        let started = Instant::now();
        self.refresh_dirty();
        let measures = all_measures();
        let rows = self.gather_rows();
        let summaries = reduce_measure_rows(&measures, &rows);
        let report = PortfolioReport {
            offers: rows.len(),
            threads: self.engine.budget().threads(),
            chunk_size: self.engine.budget().chunk_size_for(rows.len()),
            elapsed: started.elapsed(),
            summaries,
        };
        answer_line(QueryKind::Measure, &report.json())
    }

    fn aggregate_answer(&mut self) -> String {
        self.ensure_groups();
        let aggregates = self.aggregate_groups(self.cached_groups());
        answer_line(
            QueryKind::Aggregate,
            &aggregate_report(self.len(), &aggregates),
        )
    }

    fn schedule_answer(&mut self) -> String {
        let kind = QueryKind::Schedule;
        if self.is_empty() {
            return error_line(kind, &ScenarioError::EmptyPortfolio.to_string());
        }
        let started = Instant::now();
        self.refresh_dirty();
        self.ensure_groups();
        let groups = self.cached_groups();
        let scenario = self.config.scenario(ScenarioKind::Schedule);
        let n = self.len();
        let target = scenario.target_for(n);

        // The Scenario 1 pipeline over incrementally grouped state — the
        // engine's own back half, so the stages cannot drift from the
        // batch path.
        let aggregates = self.aggregate_groups(groups);
        let scheduler = scenario.scheduler.build();
        let outcome = match self.engine.schedule_aggregates(
            &aggregates,
            groups,
            n,
            &target,
            scheduler.as_ref(),
        ) {
            Ok(outcome) => outcome,
            Err(e) => return error_line(kind, &ScenarioError::from(e).to_string()),
        };

        // Earliest-start baseline: per-offer, computed per shard and
        // scattered back to logical order.
        let per_shard: Vec<Vec<Assignment>> =
            parallel_map(&self.shards, self.engine.budget().threads(), |shard| {
                shard.offers.iter().map(earliest_start_assignment).collect()
            });
        let baseline = Schedule::new(self.scatter(per_shard));
        let imbalance_before = baseline.imbalance(&target);
        let imbalance_after = outcome.schedule.imbalance(&target);

        // Correlations reuse the cached measure rows; shifts come from the
        // realized schedule against each offer's earliest start.
        let rows = flatten_rows(self.gather_rows());
        let earliest: Vec<i64> = self
            .owners
            .values()
            .map(|&(s, local)| self.shards[s].offers[local].earliest_start())
            .collect();
        let shifts: Vec<f64> = outcome
            .schedule
            .assignments()
            .iter()
            .zip(&earliest)
            .map(|(a, tes)| (a.start() - tes) as f64)
            .collect();

        let report = self.engine.schedule_report(
            &scenario,
            n,
            &outcome,
            imbalance_before,
            imbalance_after,
            &rows,
            &shifts,
            started,
        );
        answer_line(kind, &report.json())
    }

    fn trade_answer(&mut self) -> String {
        let kind = QueryKind::Trade;
        if self.is_empty() {
            return error_line(kind, &ScenarioError::EmptyPortfolio.to_string());
        }
        let started = Instant::now();
        self.refresh_dirty();
        self.ensure_groups();
        let scenario = self.config.scenario(ScenarioKind::Market);
        let aggregates = self.aggregate_groups(self.cached_groups());
        // The baseline folds the cached per-shard partials — integer
        // series addition makes this the flat baseline bit for bit.
        let baseline = sum_series(
            self.shards
                .iter()
                .map(|s| &s.cache.as_ref().expect("refreshed above").baseline),
        );
        let report =
            self.engine
                .market_report(&scenario, self.len(), &aggregates, &baseline, started);
        answer_line(kind, &report.json())
    }

    /// Refreshes every dirty shard's cached rows and baseline partial —
    /// the public face of the per-query refresh, for callers that need a
    /// warm [`export`](Self::export) *without* answering a query: a
    /// cross-process shard worker refreshes before shipping its state, so
    /// the supervisor's merge gathers only clean caches and re-evaluates
    /// nothing.
    pub fn refresh(&mut self) {
        self.refresh_dirty();
    }

    /// Re-runs the measure pass and the baseline partial on every dirty
    /// shard (dirty shards fan out across the budget's threads, each
    /// worker getting a per-shard split of the budget over the *dirty*
    /// count — on the one-dirty-shard hot path that single worker gets the
    /// whole thread budget; the split is throughput-only, results are
    /// budget-invariant) and bumps those shards' evaluation counters.
    /// Clean shards are not touched — this is the "one shard per
    /// single-offer update" contract.
    fn refresh_dirty(&mut self) {
        let dirty: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, shard)| shard.cache.is_none())
            .map(|(i, _)| i)
            .collect();
        if dirty.is_empty() {
            return;
        }
        let worker = Engine::new(self.engine.budget().per_shard(dirty.len()));
        let measures = all_measures();
        // Each dirty shard's arena is taken out of the shard (and wrapped
        // for the fan-out) so a worker can mutate it while the shard's
        // offers stay borrowed, then handed back below — the buffers
        // survive the round trip, which is what makes steady-state
        // refreshes allocation-free in the kernels.
        let arenas: Vec<Mutex<ColumnarBatch>> = dirty
            .iter()
            .map(|&i| Mutex::new(std::mem::take(&mut self.shards[i].arena)))
            .collect();
        let computed: Vec<ShardCache> = {
            let work: Vec<(&[FlexOffer], &Mutex<ColumnarBatch>)> = dirty
                .iter()
                .zip(&arenas)
                .map(|(&i, arena)| (&self.shards[i].offers[..], arena))
                .collect();
            parallel_map(&work, self.engine.budget().threads(), |&(offers, arena)| {
                let mut arena = lock_scratch(arena);
                ShardCache {
                    rows: worker.per_offer_rows_in(&mut arena, offers, &measures),
                    baseline: if offers.is_empty() {
                        baseline_load(&[])
                    } else {
                        worker.baseline_load_parallel_in(&mut arena, offers)
                    },
                }
            })
        };
        for ((i, cache), arena) in dirty.into_iter().zip(computed).zip(arenas) {
            self.shards[i].cache = Some(cache);
            self.shards[i].evaluations += 1;
            self.shards[i].arena = reclaim_scratch(arena);
        }
    }

    /// Cached per-offer measure rows in logical portfolio order. Callers
    /// must [`refresh_dirty`](Self::refresh_dirty) first.
    fn gather_rows(&self) -> Vec<Row> {
        self.owners
            .values()
            .map(|&(s, local)| {
                self.shards[s].cache.as_ref().expect("refreshed").rows[local].clone()
            })
            .collect()
    }

    /// Fills the grouping cache if a mutation invalidated it: the
    /// tolerance grouping as positions into the logical portfolio. The
    /// sweep runs over the already-sorted [`KeyIndex`] — no per-query
    /// sort — and id order is position order, so the groups are exactly
    /// [`flexoffers_aggregation::group_keys`] over the logical portfolio.
    /// Borrow the result with [`cached_groups`](Self::cached_groups) —
    /// the warm path is allocation-free.
    fn ensure_groups(&mut self) {
        if self.groups_cache.is_some() {
            return;
        }
        let ids: Vec<u64> = self.owners.keys().copied().collect();
        let groups: Vec<Vec<usize>> = self
            .keys
            .group_ids(&self.config.grouping)
            .into_iter()
            .map(|group| {
                group
                    .into_iter()
                    .map(|id| ids.binary_search(&id).expect("grouped ids are live"))
                    .collect()
            })
            .collect();
        self.groups_cache = Some(groups);
    }

    /// The cached grouping; callers run
    /// [`ensure_groups`](Self::ensure_groups) first.
    fn cached_groups(&self) -> &[Vec<usize>] {
        self.groups_cache.as_deref().expect("ensure_groups ran")
    }

    /// Aggregates every group in parallel, members gathered through the
    /// owner table in group order — the live counterpart of the batch
    /// book's per-group aggregation, same output order and content.
    fn aggregate_groups(&self, groups: &[Vec<usize>]) -> Vec<Aggregate> {
        let flat: Vec<&FlexOffer> = self
            .owners
            .values()
            .map(|&(s, local)| &self.shards[s].offers[local])
            .collect();
        parallel_map(groups, self.engine.budget().threads(), |indices| {
            let members: Vec<FlexOffer> = indices.iter().map(|&g| flat[g].clone()).collect();
            aggregate(&members).expect("grouping never yields empty groups")
        })
    }

    /// The merge tier's scatter: per-shard results reassembled into
    /// logical portfolio order through the id ranks.
    fn scatter<T>(&self, per_shard: Vec<Vec<T>>) -> Vec<T> {
        let ids: Vec<u64> = self.owners.keys().copied().collect();
        let mut out: Vec<Option<T>> = (0..ids.len()).map(|_| None).collect();
        for (shard, results) in self.shards.iter().zip(per_shard) {
            assert_eq!(shard.ids.len(), results.len(), "one result per offer");
            for (&id, r) in shard.ids.iter().zip(results) {
                let pos = ids.binary_search(&id).expect("shard ids are live");
                out[pos] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("shards partition the book"))
            .collect()
    }
}

impl fmt::Debug for LiveBook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveBook")
            .field("offers", &self.len())
            .field("shards", &self.shard_count())
            .field("next_id", &self.next_id)
            .field("groups_cached", &self.groups_cached())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::Slice;

    fn offer(tes: i64, window: i64, lo: i64) -> FlexOffer {
        FlexOffer::new(tes, tes + window, vec![Slice::new(lo, lo + 2).unwrap()]).unwrap()
    }

    fn book(shards: usize) -> LiveBook {
        LiveBook::new(ServeConfig::default(), shards, Engine::sequential()).unwrap()
    }

    #[test]
    fn zero_shards_is_the_documented_error() {
        assert_eq!(
            LiveBook::new(ServeConfig::default(), 0, Engine::sequential()).unwrap_err(),
            EngineError::ZeroShards
        );
    }

    #[test]
    fn ids_are_monotone_and_the_logical_portfolio_is_id_ordered() {
        let mut book = book(3);
        let a = book.add(offer(0, 2, 1));
        let b = book.add(offer(1, 3, -1));
        let c = book.add(offer(2, 1, 0));
        assert_eq!((a, b, c), (0, 1, 2));
        book.remove(b).unwrap();
        let d = book.add(offer(5, 2, 2));
        assert_eq!(d, 3, "ids are never reused");
        let logical = book.to_portfolio();
        assert_eq!(logical.len(), 3);
        assert_eq!(logical.as_slice()[0], offer(0, 2, 1));
        assert_eq!(logical.as_slice()[1], offer(2, 1, 0));
        assert_eq!(logical.as_slice()[2], offer(5, 2, 2));
    }

    #[test]
    fn unknown_ids_are_reported_not_panicked() {
        let mut book = book(2);
        assert_eq!(
            book.update(4, offer(0, 1, 0)).unwrap_err(),
            LiveError::UnknownId { id: 4 }
        );
        assert_eq!(book.remove(4).unwrap_err(), LiveError::UnknownId { id: 4 });
        assert!(LiveError::UnknownId { id: 4 }
            .to_string()
            .contains("unknown offer id 4"));
    }

    #[test]
    fn single_offer_update_reevaluates_exactly_one_shard() {
        let mut book = book(4);
        let ids: Vec<u64> = (0..40).map(|i| book.add(offer(i % 5, i % 3, -1))).collect();
        book.answer(QueryKind::Measure);
        let warm = book.evaluations();
        assert!(warm.iter().all(|&e| e == 1), "first query evaluates all");

        let victim = ids[7];
        let &(victim_shard, _) = book.owners.get(&victim).unwrap();
        book.update(victim, offer(9, 1, 1)).unwrap();
        book.answer(QueryKind::Measure);
        let after = book.evaluations();
        for (s, (&w, &a)) in warm.iter().zip(&after).enumerate() {
            if s == victim_shard {
                assert_eq!(a, w + 1, "dirty shard re-evaluates");
            } else {
                assert_eq!(a, w, "clean shard {s} must not re-evaluate");
            }
        }

        // A query with nothing dirty evaluates nothing.
        book.answer(QueryKind::Measure);
        assert_eq!(book.evaluations(), after);
    }

    #[test]
    fn key_preserving_updates_keep_the_grouping_cache_warm() {
        let mut book = book(2);
        let id = book.add(offer(0, 2, 1));
        book.add(offer(0, 2, -1));
        book.answer(QueryKind::Aggregate);
        assert!(book.groups_cached());
        let digests = book.key_digests();

        // Same (tes, tf), different profile: grouping inputs unchanged.
        book.update(id, offer(0, 2, 0)).unwrap();
        assert_eq!(book.key_digests(), digests, "digest spots the no-op");
        assert!(book.groups_cached(), "grouping cache survives");

        // A key-changing update invalidates.
        book.update(id, offer(7, 2, 0)).unwrap();
        assert_ne!(book.key_digests(), digests);
        assert!(!book.groups_cached());
    }

    #[test]
    fn adds_and_removes_invalidate_the_grouping_cache() {
        let mut book = book(2);
        book.add(offer(0, 2, 1));
        book.answer(QueryKind::Aggregate);
        assert!(book.groups_cached());
        let id = book.add(offer(1, 2, 1));
        assert!(!book.groups_cached());
        book.answer(QueryKind::Aggregate);
        assert!(book.groups_cached());
        book.remove(id).unwrap();
        assert!(!book.groups_cached());
    }

    #[test]
    fn empty_book_answers_match_the_batch_semantics() {
        let mut book = book(3);
        let measure = book.answer(QueryKind::Measure);
        assert!(measure.contains("\"offers\":0"), "{measure}");
        let aggregate = book.answer(QueryKind::Aggregate);
        assert!(aggregate.contains("\"aggregates\":0"), "{aggregate}");
        for kind in [QueryKind::Schedule, QueryKind::Trade] {
            let answer = book.answer(kind);
            assert!(answer.contains("\"error\":\"empty portfolio"), "{answer}");
        }
    }

    #[test]
    fn a_panicking_worker_does_not_poison_subsequent_refreshes() {
        let mut book = book(2);
        book.add(offer(0, 2, 1));
        book.add(offer(1, 3, -1));

        // Simulate a measure kernel panicking while it holds a shard's
        // scratch arena — the scenario that used to trip the refresh-time
        // `expect` on the poisoned lock.
        let arena = Mutex::new(std::mem::take(&mut book.shards[0].arena));
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let _guard = lock_scratch(&arena);
                panic!("custom measure panicked");
            });
            assert!(worker.join().is_err());
        });
        assert!(arena.is_poisoned());
        drop(lock_scratch(&arena)); // the lock path recovers
        book.shards[0].arena = reclaim_scratch(arena); // the reclaim path too

        // Refreshes keep working on the recovered arena.
        let answer = book.answer(QueryKind::Measure);
        assert!(answer.contains("\"offers\":2"), "{answer}");
        let again = book.answer(QueryKind::Measure);
        assert_eq!(answer, again);
    }

    #[test]
    fn add_at_inserts_under_caller_ids_and_rejects_live_ones() {
        let mut routed = book(3);
        let mut direct = book(3);
        for i in 0..12 {
            direct.add(offer(i, 2, 1));
            routed.add_at(i as u64, offer(i, 2, 1)).unwrap();
        }
        // Same ids in the same order → byte-equal shard state.
        assert_eq!(routed.export(), direct.export());

        let taken = routed.add_at(3, offer(0, 1, 0)).unwrap_err();
        assert_eq!(taken, LiveError::IdTaken { id: 3 });
        assert!(taken.to_string().contains("already live"));

        // A dead below-counter id is insertable again — exactly what a
        // respawned worker's journal replay does — without rewinding the
        // counter.
        routed.remove(3).unwrap();
        routed.add_at(3, offer(3, 2, 1)).unwrap();
        assert_eq!(routed.next_id(), 12, "counter already cleared id 3");

        // Gaps advance the counter past the id.
        routed.add_at(100, offer(0, 2, 1)).unwrap();
        assert_eq!(routed.next_id(), 101);
        assert_eq!(routed.add(offer(1, 1, 1)), 101);
    }

    #[test]
    fn refresh_warms_the_export_without_a_query() {
        let mut book = book(2);
        for i in 0..8 {
            book.add(offer(i, 2, 1));
        }
        assert!(book.export().shards.iter().all(|s| s.cache.is_none()));
        book.refresh();
        assert!(book.export().shards.iter().all(|s| s.cache.is_some()));
        // The refreshed caches are the ones a query would have computed.
        let evals = book.evaluations();
        book.answer(QueryKind::Measure);
        assert_eq!(book.evaluations(), evals, "query found everything warm");
    }

    #[test]
    fn export_round_trips_and_answers_identically() {
        let mut book = book(3);
        for i in 0..20 {
            book.add(offer(i % 5, i % 3 + 1, -1));
        }
        book.remove(7).unwrap();
        book.update(3, offer(9, 2, 2)).unwrap();
        book.answer(QueryKind::Measure); // warm the caches

        let export = book.export();
        let mut revived =
            LiveBook::from_export(ServeConfig::default(), Engine::sequential(), export.clone())
                .unwrap();
        assert_eq!(revived.live_ids(), book.live_ids());
        assert_eq!(revived.key_digests(), book.key_digests());
        for kind in QueryKind::all() {
            assert_eq!(revived.answer(kind), book.answer(kind), "{kind}");
        }
        // A warm export revives with warm caches: the first measure query
        // re-evaluates nothing.
        assert!(revived.evaluations().iter().all(|&e| e == 0));
        // And mutation after import keeps going where the export left off.
        let id = revived.add(offer(1, 1, 0));
        assert_eq!(id, 20, "ids continue past the exported counter");
        assert_eq!(revived.export().next_id, 21);
        // Round trip of the round trip is exact.
        let again = LiveBook::from_export(
            ServeConfig::default(),
            Engine::sequential(),
            revived.export(),
        )
        .unwrap()
        .export();
        assert_eq!(again, revived.export());
        let _ = export;
    }

    #[test]
    fn imports_revalidate_structural_invariants() {
        let mut book = book(3);
        for i in 0..9 {
            book.add(offer(i, 2, 1));
        }
        book.answer(QueryKind::Measure); // warm the caches
        let export = book.export();
        let full = export
            .shards
            .iter()
            .position(|s| !s.offers.is_empty())
            .expect("nine offers fill some shard");
        let config = ServeConfig::default;
        let import = |e| LiveBook::from_export(config(), Engine::sequential(), e);

        assert_eq!(
            import(BookExport {
                next_id: 0,
                shards: Vec::new()
            })
            .unwrap_err(),
            ImportError::ZeroShards
        );

        let mut stale = export.clone();
        stale.next_id = 5;
        assert!(matches!(
            import(stale).unwrap_err(),
            ImportError::StaleNextId { next_id: 5, .. }
        ));

        let mut tampered = export.clone();
        tampered.shards[0].key_digest ^= 1;
        assert_eq!(
            import(tampered).unwrap_err(),
            ImportError::DigestMismatch { shard: 0 }
        );

        let mut misplaced = export.clone();
        let moved = misplaced.shards[0].ids[0];
        let moved_offer = misplaced.shards[0].offers[0].clone();
        let wrong = (stable_shard(moved, 3) + 1) % 3;
        misplaced.shards[wrong].ids.push(moved);
        misplaced.shards[wrong].offers.push(moved_offer);
        misplaced.shards[wrong].cache = None;
        let err = import(misplaced).unwrap_err();
        assert_eq!(err, ImportError::MisplacedId { id: moved });

        let mut duplicated = export.clone();
        let dup = duplicated.shards[0].ids[0];
        let dup_offer = duplicated.shards[0].offers[0].clone();
        duplicated.shards[0].ids.push(dup);
        duplicated.shards[0].offers.push(dup_offer);
        duplicated.shards[0].cache = None;
        assert_eq!(
            import(duplicated).unwrap_err(),
            ImportError::DuplicateId { id: dup }
        );

        let mut ragged = export.clone();
        ragged.shards[full].offers.pop();
        ragged.shards[full].ids.pop();
        assert_eq!(
            import(ragged).unwrap_err(),
            ImportError::CacheShape { shard: full }
        );

        let mut short_rows = export;
        short_rows.shards[full]
            .cache
            .as_mut()
            .expect("caches were warmed")
            .rows
            .pop();
        assert_eq!(
            import(short_rows).unwrap_err(),
            ImportError::CacheShape { shard: full }
        );
    }

    #[test]
    fn import_shard_swaps_one_shard_and_answers_like_a_full_rebuild() {
        // Reference: an in-process book driven through a mutation history.
        let mut reference = book(3);
        for i in 0..20 {
            reference.add(offer(i % 5, i % 3 + 1, -1));
        }
        reference.answer(QueryKind::Measure);

        // Merged: seeded from the same export, then kept current shard by
        // shard as the reference mutates.
        let mut merged = LiveBook::from_export(
            ServeConfig::default(),
            Engine::sequential(),
            reference.export(),
        )
        .unwrap();

        reference.update(3, offer(9, 2, 2)).unwrap();
        reference.remove(7).unwrap();
        let id = reference.add(offer(2, 4, 1));
        reference.answer(QueryKind::Measure); // warm the dirty shards

        let dirty: Vec<usize> = [3, 7, id]
            .iter()
            .map(|&id| stable_shard(id, 3))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        merged.reserve_ids(reference.next_id());
        for &s in &dirty {
            merged.import_shard(s, reference.export_shard(s)).unwrap();
        }
        assert_eq!(merged.export(), reference.export(), "state converges");
        let evals_before = merged.evaluations();
        for kind in QueryKind::all() {
            assert_eq!(merged.answer(kind), reference.answer(kind), "{kind}");
        }
        // The imported caches were warm, so the merged book re-evaluated
        // nothing — the O(dirty) contract.
        assert_eq!(merged.evaluations(), evals_before);
    }

    #[test]
    fn import_shard_validates_before_mutating() {
        let mut book3 = book(3);
        for i in 0..9 {
            book3.add(offer(i, 2, 1));
        }
        book3.answer(QueryKind::Measure);
        let pristine = book3.export();
        let full = pristine
            .shards
            .iter()
            .position(|s| !s.offers.is_empty())
            .expect("nine offers fill some shard");

        assert_eq!(
            book3
                .import_shard(3, pristine.shards[0].clone())
                .unwrap_err(),
            ImportError::NoSuchShard { shard: 3 }
        );
        assert!(ImportError::NoSuchShard { shard: 3 }
            .to_string()
            .contains("out of range"));

        // Misplaced: a shard image handed to the wrong index.
        let wrong = (full + 1) % 3;
        let err = book3
            .import_shard(wrong, pristine.shards[full].clone())
            .unwrap_err();
        assert!(matches!(err, ImportError::MisplacedId { .. }), "{err}");

        // Duplicate against an id another shard already holds.
        let mut invaded = pristine.shards[full].clone();
        let foreign = pristine
            .shards
            .iter()
            .enumerate()
            .find(|(s, shard)| *s != full && !shard.ids.is_empty())
            .expect("another populated shard");
        invaded.ids.push(foreign.1.ids[0]);
        invaded.offers.push(foreign.1.offers[0].clone());
        invaded.cache = None;
        invaded.key_digest = invaded
            .key_digest
            .wrapping_add(key_hash(grouping_key(&foreign.1.offers[0])));
        // (placement check fires first only if the id routes elsewhere —
        // pick the error without pinning which one)
        assert!(book3.import_shard(full, invaded).is_err());

        // An id at or past the counter is stale until reserved.
        let horizon = book3.next_id();
        let mut future = pristine.shards[full].clone();
        let future_id = (horizon..).find(|&id| stable_shard(id, 3) == full).unwrap();
        future.ids.push(future_id);
        future.offers.push(offer(1, 2, 1));
        future.cache = None;
        future.key_digest = future
            .key_digest
            .wrapping_add(key_hash(grouping_key(&offer(1, 2, 1))));
        assert!(matches!(
            book3.import_shard(full, future.clone()).unwrap_err(),
            ImportError::StaleNextId { .. }
        ));
        book3.reserve_ids(future_id + 1);
        book3.import_shard(full, future).unwrap();

        // Tampered digest and ragged arrays are named; the failed imports
        // above and below leave the book coherent (round-trips exactly).
        let mut tampered = book3.export_shard(full);
        tampered.key_digest ^= 1;
        assert_eq!(
            book3.import_shard(full, tampered).unwrap_err(),
            ImportError::DigestMismatch { shard: full }
        );
        let mut ragged = book3.export_shard(full);
        ragged.ids.pop();
        assert_eq!(
            book3.import_shard(full, ragged).unwrap_err(),
            ImportError::CacheShape { shard: full }
        );
        let snapshot = book3.export();
        let revived = LiveBook::from_export(
            ServeConfig::default(),
            Engine::sequential(),
            snapshot.clone(),
        )
        .unwrap();
        assert_eq!(revived.export(), snapshot);
    }

    #[test]
    fn import_shard_keeps_the_grouping_cache_only_for_key_preserving_swaps() {
        let mut source = book(2);
        let mut merged = book(2);
        let id = source.add(offer(0, 2, 1));
        source.add(offer(0, 2, -1));
        source.refresh();
        merged.reserve_ids(source.next_id());
        for s in 0..2 {
            merged.import_shard(s, source.export_shard(s)).unwrap();
        }
        merged.answer(QueryKind::Aggregate);
        assert!(merged.groups_cached());

        // Same (tes, tf), different profile: the re-imported shard keeps
        // the grouping warm.
        source.update(id, offer(0, 2, 0)).unwrap();
        source.refresh();
        let s = stable_shard(id, 2);
        merged.import_shard(s, source.export_shard(s)).unwrap();
        assert!(merged.groups_cached(), "key-preserving import stays warm");

        // A key-changing update invalidates through the import too.
        source.update(id, offer(7, 2, 0)).unwrap();
        source.refresh();
        merged.import_shard(s, source.export_shard(s)).unwrap();
        assert!(!merged.groups_cached());
        assert_eq!(
            merged.answer(QueryKind::Aggregate),
            source.answer(QueryKind::Aggregate)
        );
    }

    #[test]
    fn apply_routes_queries_and_mutations() {
        let mut book = book(2);
        assert_eq!(book.apply(Event::Add(offer(0, 1, 1))).unwrap(), None);
        let answer = book
            .apply(Event::Query(QueryKind::Measure))
            .unwrap()
            .expect("queries answer");
        assert!(answer.starts_with("{\"query\":\"measure\""));
        assert_eq!(
            book.apply(Event::Remove { id: 9 }).unwrap_err(),
            LiveError::UnknownId { id: 9 }
        );
    }
}
