//! `flexoffers_storage` — durability for the serving tier.
//!
//! The serving tier's JSONL event wire format is a write-ahead log in
//! disguise, and its per-shard export boundary is a snapshot format. This
//! crate makes both literal:
//!
//! * [`Journal`] — an append-only event journal. Each applied mutation is
//!   the existing [`Event::to_json_line`](flexoffers_serving::Event) as
//!   one line, fsync-batched, sequence numbers implicit in line order —
//!   the journal file **is** a replayable
//!   [`parse_script`](flexoffers_serving::parse_script) script.
//! * [`Snapshot`] / [`save_snapshot`] / [`load_snapshot`] — the
//!   [`BookExport`](flexoffers_serving::BookExport) (per-shard ids,
//!   offers, key digests, cached baseline partials) serialized at a
//!   recorded journal sequence, written atomically (temp file + fsync +
//!   rename) under a checksummed header. Older bodies that also carry
//!   cached measure rows still load; the rows are ignored.
//! * [`recover()`] — latest valid snapshot + journal suffix replay, with
//!   torn-tail truncation: an unterminated final journal line is
//!   discarded, never an error. Corrupt files (a bad checksum, terminated
//!   garbage) are named [`StorageError`] variants, never panics.
//! * [`Durable`] — the journal-before-apply
//!   [`EventSink`](flexoffers_serving::EventSink) over any [`Book`] (the
//!   in-process `LiveBook`, or the cluster supervisor):
//!   [`LiveServer::spawn_sink`](flexoffers_serving::LiveServer::spawn_sink)
//!   drives it through the unchanged serving loop, so durability changes
//!   where bytes live, never what bytes a query answers.
//!
//! # Byte identity
//!
//! Recovery inherits the serving tier's contract: recover-then-query is
//! bitwise equal to an uninterrupted run and to the batch oracle, at any
//! shards × threads budget and any crash point. Snapshots store
//! baselines and offers as integers — nothing in the persistence path
//! rounds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod durable;
pub mod error;
pub mod journal;
pub mod recover;
pub mod snapshot;

#[cfg(test)]
mod testutil;

pub use durable::{Book, Durable, DurableError};
pub use error::StorageError;
pub use journal::{read_journal, Journal, JournalContents};
pub use recover::{recover, RecoveryReport};
pub use snapshot::{
    export_to_value, fnv1a64, load_snapshot, save_snapshot, shard_digest, shard_to_value,
    value_to_export, value_to_shard, Snapshot, SNAPSHOT_FORMAT,
};
