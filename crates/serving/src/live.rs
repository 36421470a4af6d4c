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
//! # Query path and cache architecture
//!
//! A query runs the same code as the batch oracle ([`crate::batch`]):
//! the measure pass ([`Engine::measure_portfolio_all`]), the per-group
//! aggregation ([`Engine::aggregate_groups`]) and the scenario pipeline
//! ([`Engine::simulate_grouped`]). The book supplies only their three
//! inputs: one id-ordered borrowed view of the offers (`Vec<&FlexOffer>`,
//! walked off the owner table), its cached tolerance grouping, and its
//! folded baseline partials. No offer is cloned for the view, and no
//! measure value is cached between queries.
//!
//! Two layers of incremental state remain, each invalidated as narrowly
//! as the mutation allows:
//!
//! * **Per-shard baseline partials** — the no-flexibility load summed per
//!   shard behind a dirty bit; integer series addition is exact, so
//!   folding partials equals the flat [`Engine::baseline_load_parallel`]
//!   bit for bit. A single-offer update recomputes exactly one shard's
//!   partial (asserted by the per-shard evaluation counters,
//!   [`LiveBook::evaluations`]) on the next schedule or trade query or
//!   [`LiveBook::refresh`].
//! * **Group-key state** — an ordered
//!   [`flexoffers_aggregation::KeyIndex`] maintained in `O(log n)` per
//!   event (no per-query sort), a cached position grouping, and per-shard
//!   **key digests** (a commutative multiset hash of the shard's
//!   `(tes, tf)` keys, maintained in O(1) per mutation). An update that
//!   keeps its offer's grouping key leaves every digest unchanged and
//!   keeps the grouping cache warm (the in-process check compares the old
//!   and new key directly — exact, collision-free; the digests are the
//!   equivalent shard-level summary, exposed for observability and as the
//!   16-byte-per-shard comparison a future *cross-process* shard would
//!   ship instead of its keys). Only key-changing mutations force the
//!   re-sweep: one in-order pass over the key set, with no sort.
//!
//! The batch oracle computes the same two inputs from scratch, so every
//! answer is byte-identical to a batch rebuild ([`crate::batch::answer`])
//! as long as the cached grouping and partials are exact.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use flexoffers_aggregation::KeyIndex;
use flexoffers_engine::{splitmix64, stable_shard, Budget, Engine, EngineError};
use flexoffers_model::{FlexOffer, Portfolio};
use flexoffers_timeseries::ops::sum_series;
use flexoffers_timeseries::Series;
use flexoffers_workloads::OfferEvent;

use crate::config::ServeConfig;
use crate::event::{Event, QueryKind};
use crate::report;

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
    /// A shard's parallel `ids`/`offers` arrays disagreed in length.
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

/// A serializable image of one [`LiveBook`] shard.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardExport {
    /// The shard's live ids, in local (arrival/swap-remove) order.
    pub ids: Vec<u64>,
    /// The offers, aligned with `ids`.
    pub offers: Vec<FlexOffer>,
    /// The shard's commutative `(tes, tf)` key digest.
    pub key_digest: u64,
    /// The shard's no-flexibility baseline partial, when the shard was
    /// clean — the one piece of evaluation state a shard caches.
    pub cache: Option<Series<i64>>,
}

/// A full serializable image of a live book's incremental state — what a
/// snapshot persists and [`LiveBook::from_export`] validates back into a
/// book. Deliberately excludes the evaluation counters (observability,
/// reset on import).
#[derive(Clone, Debug, PartialEq)]
pub struct BookExport {
    /// The monotone id counter (strictly past every live id).
    pub next_id: u64,
    /// Per-shard state, in shard order.
    pub shards: Vec<ShardExport>,
}

/// One shard of a [`LiveBook`]: parallel id/offer arrays (local order is
/// arrival order with swap-remove holes — global order is restored through
/// the id ranks, never from shard order).
struct LiveShard {
    ids: Vec<u64>,
    offers: Vec<FlexOffer>,
    /// The no-flexibility baseline partial, valid only while the shard is
    /// clean (any mutation of the shard drops it).
    baseline: Option<Series<i64>>,
    key_digest: u64,
    evaluations: usize,
}

impl LiveShard {
    fn new() -> Self {
        Self {
            ids: Vec::new(),
            offers: Vec::new(),
            baseline: None,
            key_digest: 0,
            evaluations: 0,
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

/// The checks [`LiveBook::import_shard`] runs on shard `s`'s image, in
/// the order they report: aligned parallel arrays; then, id by id, the
/// stable placement, a repeat of an earlier id, and the id counter; then
/// the key digest. Placement is what keeps ids unique *across* shards: an
/// id can only sit in its `stable_shard`.
fn validate_shard(
    s: usize,
    shard: &ShardExport,
    shard_count: usize,
    next_id: u64,
) -> Result<(), ImportError> {
    if shard.ids.len() != shard.offers.len() {
        return Err(ImportError::CacheShape { shard: s });
    }
    // Each run of equal ids in (id, position) order repeats at its
    // second position; the scan below reports the earliest such one.
    let mut order: Vec<(u64, usize)> = shard.ids.iter().copied().zip(0..).collect();
    order.sort_unstable();
    let first_repeat = order
        .windows(2)
        .filter(|pair| pair[0].0 == pair[1].0)
        .map(|pair| pair[1].1)
        .min();
    let mut digest = 0u64;
    for (local, (&id, offer)) in shard.ids.iter().zip(&shard.offers).enumerate() {
        if stable_shard(id, shard_count) != s {
            return Err(ImportError::MisplacedId { id });
        }
        if Some(local) == first_repeat {
            return Err(ImportError::DuplicateId { id });
        }
        if id >= next_id {
            return Err(ImportError::StaleNextId { next_id, id });
        }
        digest = digest.wrapping_add(key_hash(grouping_key(offer)));
    }
    if digest != shard.key_digest {
        return Err(ImportError::DigestMismatch { shard: s });
    }
    Ok(())
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
    /// The live `(tes, tf)` keys, kept in `(key, id)` order across
    /// mutations.
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

    /// How many times each shard's baseline partial has been recomputed —
    /// the observable the incremental contract is asserted on: after a
    /// [`refresh`](Self::refresh), a single-offer update followed by
    /// another refresh (or a schedule or trade query) bumps exactly one shard's
    /// counter.
    pub fn evaluations(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.evaluations).collect()
    }

    /// Per-shard group-key digests (commutative multiset hashes of the
    /// shard's `(tes, tf)` keys). Equal digests across a mutation mean the
    /// grouping inputs did not change. In process the warm-cache decision
    /// uses the exact old-vs-new key comparison (see
    /// [`update`](Self::update)); the digests are the shard-level summary
    /// of the same fact. The cluster tier's query gather compares them,
    /// with [`shard_sizes`](Self::shard_sizes), against each worker's
    /// `confirm` reply: O(1) on both sides, and no key is resent.
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
    /// ids, offers, key digests, cached baseline partials, and the id
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
    /// the pipe: a shard worker serializes the one shard its book holds,
    /// and the supervisor extracts a respawn baseline for one worker from
    /// its persistent merged book.
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
            cache: shard.baseline.clone(),
        }
    }

    /// Rebuilds a book from an export: an empty book with the export's
    /// shard count and id counter, then [`import_shard`](Self::import_shard)
    /// for each shard in order, which revalidates every structural
    /// invariant a fresh build would have established (unique ids in their
    /// stable shards, an id counter strictly past every live id, key
    /// digests that match the offers, aligned parallel arrays) and
    /// reconstructs the owner table and ordered key index. Evaluation
    /// counters start at zero and the grouping cache starts cold.
    pub fn from_export(
        config: ServeConfig,
        engine: Engine,
        export: BookExport,
    ) -> Result<Self, ImportError> {
        let mut book =
            Self::new(config, export.shards.len(), engine).map_err(|_| ImportError::ZeroShards)?;
        book.reserve_ids(export.next_id);
        for (s, shard) in export.shards.into_iter().enumerate() {
            book.import_shard(s, shard)?;
        }
        Ok(book)
    }

    /// Advances the id counter to at least `next_id` (it never rewinds).
    /// A respawned shard worker raises its counter to the cluster's before
    /// loading its shard, so [`import_shard`](Self::import_shard)'s
    /// `StaleNextId` check is against the *global* horizon, not whatever
    /// this book last saw.
    pub fn reserve_ids(&mut self, next_id: u64) {
        self.next_id = self.next_id.max(next_id);
    }

    /// Replaces shard `s` wholesale with an exported image — how
    /// [`from_export`](Self::from_export) rebuilds a book shard by shard,
    /// and how a respawned shard worker loads its shard.
    ///
    /// Revalidates the shard (stable placement, no repeated ids, an id
    /// counter that clears every imported id, a key digest matching the
    /// offers, aligned parallel arrays) **before** mutating, so a failed
    /// import leaves the book untouched. Stable placement also rules out
    /// an id that another shard of this book holds. Callers whose counter
    /// may trail the import call [`reserve_ids`](Self::reserve_ids)
    /// first.
    ///
    /// The owner table and ordered key index are patched incrementally; the
    /// grouping cache survives exactly when the shard's id sequence and
    /// per-position grouping keys are unchanged (a profile-only refresh),
    /// and the shard's evaluation counter is kept.
    pub fn import_shard(&mut self, s: usize, shard: ShardExport) -> Result<(), ImportError> {
        let shard_count = self.shards.len();
        if s >= shard_count {
            return Err(ImportError::NoSuchShard { shard: s });
        }
        validate_shard(s, &shard, shard_count, self.next_id)?;

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
        live.baseline = shard.cache;
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
        shard.baseline = None;
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
        shard.baseline = None;
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
        shard.baseline = None;
        shard.key_digest = shard.key_digest.wrapping_sub(key_hash(key));
        assert!(self.keys.remove(id, key), "owner table and keys agree");
        self.groups_cache = None;
        Ok(())
    }

    /// Answers one query from the incremental state as a single JSON line
    /// — byte-identical to a from-scratch batch evaluation of the current
    /// logical portfolio ([`crate::batch::answer`]). Both run the same
    /// query path; this book supplies its id-ordered view, its cached
    /// grouping (every kind but measure) and its folded shard partials
    /// (schedule and trade, so the one refreshed after a mutation serves
    /// both kinds).
    pub fn answer(&mut self, kind: QueryKind) -> String {
        // An empty book refuses a scenario before it reads a partial, so
        // it leaves the partials as they are.
        if matches!(kind, QueryKind::Schedule | QueryKind::Trade) && !self.is_empty() {
            self.refresh();
        }
        if kind != QueryKind::Measure {
            self.ensure_groups();
        }
        report::answer(
            &self.engine,
            &self.config,
            &self.view(),
            kind,
            || self.cached_groups(),
            // Integer series addition makes the folded partials the flat
            // baseline bit for bit.
            || {
                sum_series(
                    self.shards
                        .iter()
                        .map(|s| s.baseline.as_ref().expect("refreshed")),
                )
            },
        )
    }

    /// Recomputes the baseline partial of every dirty shard and bumps
    /// those shards' evaluation counters; clean shards are not touched —
    /// the "one shard per single-offer update" contract. Schedule and
    /// trade queries refresh first; the cluster supervisor refreshes its
    /// merged book on every gather, so a query finds the partials warm.
    pub fn refresh(&mut self) {
        let engine = self.engine;
        for shard in self.shards.iter_mut().filter(|s| s.baseline.is_none()) {
            shard.baseline = Some(engine.baseline_load_parallel(&shard.offers));
            shard.evaluations += 1;
        }
    }

    /// Fills the grouping cache if a mutation invalidated it: the
    /// tolerance grouping as positions into the logical portfolio. The
    /// sweep runs over the ordered [`KeyIndex`] — no per-query sort —
    /// and id order is position order, so the groups are exactly
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

    /// The logical portfolio as a borrowed view: live offers in id order,
    /// walked off the owner table. Every query builds it once and reads
    /// the offers through it — nothing is cloned.
    fn view(&self) -> Vec<&FlexOffer> {
        self.owners
            .values()
            .map(|&(s, local)| &self.shards[s].offers[local])
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
        book.refresh();
        let warm = book.evaluations();
        assert!(warm.iter().all(|&e| e == 1), "first refresh evaluates all");

        // Either scenario query refreshes the one dirty shard first.
        let victim = ids[7];
        let &(victim_shard, _) = book.owners.get(&victim).unwrap();
        let mut warm = warm;
        for (kind, lo) in [(QueryKind::Schedule, 1), (QueryKind::Trade, 2)] {
            book.update(victim, offer(9, 1, lo)).unwrap();
            book.answer(kind);
            let after = book.evaluations();
            for (s, (&w, &a)) in warm.iter().zip(&after).enumerate() {
                if s == victim_shard {
                    assert_eq!(a, w + 1, "{kind:?}: dirty shard re-evaluates");
                } else {
                    assert_eq!(a, w, "{kind:?}: clean shard {s} must not re-evaluate");
                }
            }
            warm = after;
        }
        let after = warm;

        // A schedule or trade query with nothing dirty evaluates nothing,
        // and the other kinds never touch the partials.
        for kind in QueryKind::all() {
            book.answer(kind);
        }
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
        // The refreshed partials are the ones a trade query would have
        // computed.
        let evals = book.evaluations();
        book.answer(QueryKind::Trade);
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
        book.refresh(); // warm the partials

        let export = book.export();
        let mut revived =
            LiveBook::from_export(ServeConfig::default(), Engine::sequential(), export.clone())
                .unwrap();
        assert_eq!(revived.live_ids(), book.live_ids());
        assert_eq!(revived.key_digests(), book.key_digests());
        for kind in QueryKind::all() {
            assert_eq!(revived.answer(kind), book.answer(kind), "{kind}");
        }
        // A warm export revives with warm partials: the trade query above
        // re-evaluated nothing.
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
        book.refresh(); // warm the partials
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

        let mut ragged = export;
        ragged.shards[full].offers.pop();
        assert_eq!(
            import(ragged).unwrap_err(),
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
        reference.refresh();

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
        reference.refresh(); // warm the dirty shards

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
        // The imported partials were warm, so the merged book re-evaluated
        // nothing — the O(dirty) contract.
        assert_eq!(merged.evaluations(), evals_before);
    }

    #[test]
    fn import_shard_validates_before_mutating() {
        let mut book3 = book(3);
        for i in 0..9 {
            book3.add(offer(i, 2, 1));
        }
        book3.refresh();
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
