//! `flexoffers_cluster` — cross-process shard workers for the serving
//! tier.
//!
//! A [`LiveBook`](flexoffers_serving::LiveBook) can partition its offers
//! into shards by a stable hash; this crate places each shard in its own
//! OS process without moving the answer bytes by a single bit. A shard is
//! a worker: the in-process book runs one shard, and a cluster of K
//! workers runs K.
//!
//! * [`wire`] — the supervisor ↔ worker JSONL protocol over stdio pipes,
//!   reusing the stack's event and snapshot codecs so the wire format and
//!   the persistence format are the same bytes.
//! * [`worker`] ([`run_stdio_worker`]) — the shard executor loop: a
//!   one-shard book of exactly the offers routed to the worker.
//! * [`supervisor`] ([`ClusterBook`]) — route each mutation to its
//!   worker by the owner hash, then apply it to a persistent merged book
//!   (one shard per worker), so the answer comes from the same code as
//!   the in-process tier. A query confirms each worker's live count and
//!   key digest in O(1) and ships no shard. Worker death is repaired by
//!   respawning from the merged book's copy of the shard, invisibly to
//!   the answer stream.
//! * Durability: [`ClusterBook`] is a storage
//!   [`Book`](flexoffers_storage::Book), so
//!   [`Durable`](flexoffers_storage::Durable)`<ClusterBook>` composes
//!   cross-process sharding with the journal: recover in process, seed
//!   the fleet, journal every mutation before it scatters, snapshot from
//!   the merged book's export.
//!
//! # Byte identity
//!
//! The cluster inherits the serving tier's contract: `serve --workers N`
//! answers bitwise equal to the in-process book and to the batch oracle,
//! at any workers × threads budget, with or without a worker
//! being killed mid-stream. This is pinned by the crate's proptests
//! (random event interleavings × worker counts × threads, plus a
//! kill-a-worker-at-a-random-event case).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod supervisor;
pub mod wire;
pub mod worker;

pub use supervisor::{ClusterBook, ClusterError, GatherStats, WorkerSpec, RESPAWN_ATTEMPTS};
pub use wire::{WorkerReply, WorkerRequest, WORKER_PROTOCOL};
pub use worker::{run_stdio_worker, run_worker};
