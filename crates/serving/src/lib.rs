//! `flexoffers_serving` — the live serving tier on top of the engine.
//!
//! The paper's measures are defined over a portfolio *snapshot*; a
//! production flexibility platform receives a continuous stream of
//! flex-offers (adds, revisions, withdrawals) and must answer
//! measure/schedule/trade queries *between* updates. Rebuilding the
//! portfolio and restarting the batch pipelines on every query re-parses,
//! re-sorts and re-groups the whole book for every answer.
//!
//! This crate keeps the book live instead:
//!
//! * [`LiveBook`] — the event-driven book. Adds route to a shard by the
//!   stable hash placement
//!   ([`stable_shard`](flexoffers_engine::stable_shard)). Queries read
//!   the offers in place through one id-ordered borrowed view and answer
//!   through the same query path as the batch oracle.
//!   Each shard caches only its integer **baseline partial**, guarded by
//!   a dirty bit, so a trade query recomputes dirtied shards only. A
//!   per-shard **group-key digest** spots updates that leave the `(tes,
//!   tf)` key multiset unchanged, keeping the grouping cache warm; when
//!   keys do change, re-grouping is one in-order sweep of the ordered
//!   [`KeyIndex`](flexoffers_aggregation::KeyIndex), which each mutation
//!   updates in `O(log n)` — no per-query sort.
//! * [`LiveServer`] / [`LiveHandle`] — the mpsc event loop:
//!   [`Event`]`::{Add, Update, Remove, Query}` messages drain into a
//!   `LiveBook` on a dedicated thread, queries reply with one JSON line.
//! * [`Event`] / script parsing ([`parse_script`]) — the JSONL wire format
//!   `flexctl serve --script` replays, statically validated (line-numbered
//!   errors, unknown-id references, empty scripts).
//! * [`Sequencer`] — the one live-id check: script parsing, the TCP
//!   front and the cluster supervisor all decide through it which ids an
//!   update or remove may name and which id an add owns.
//! * [`batch`] — the from-scratch oracle: the same queries answered by
//!   rebuilding the portfolio and running the flat engine.
//!
//! # Determinism
//!
//! Every query answer is **byte-identical** to rebuilding the book from
//! scratch at that point and running the flat engine ([`batch::answer`]),
//! at any shards × threads × chunk budget. Both books answer through one
//! query path, written once over three inputs: the logical portfolio as
//! a borrowed slice in id order, its tolerance grouping, and its
//! no-flexibility baseline. The batch oracle computes the grouping and
//! the baseline from scratch; the live book supplies its cached grouping
//! and its folded shard partials. The property suite in `tests/props.rs`
//! pins live against batch across random Add/Update/Remove/Query
//! interleavings, which checks the incremental inputs. Since the two
//! share the assembly code, `tests/golden.rs` pins both to answers
//! recorded from an earlier build.
//!
//! # Quickstart
//!
//! ```
//! use flexoffers_engine::Engine;
//! use flexoffers_serving::{LiveBook, QueryKind, ServeConfig};
//! use flexoffers_workloads::event_stream;
//!
//! let mut book = LiveBook::new(ServeConfig::default(), 4, Engine::sequential())?;
//! for event in event_stream(7, 30, 0.1) {
//!     book.apply_offer_event(event)?;
//! }
//! let answer = book.answer(QueryKind::Measure);
//! assert!(answer.starts_with("{\"query\":\"measure\""));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod config;
pub mod event;
pub mod live;
pub mod report;
pub mod sequencer;
pub mod server;

pub use config::{DurabilityConfig, ServeConfig};
pub use event::{parse_script, parse_script_from, Event, QueryKind, ScriptError};
pub use live::{BookExport, ImportError, LiveBook, LiveError, ShardExport};
pub use report::{AggregateReportJson, AggregateSummaryJson};
pub use sequencer::{Checked, Sequencer, UnknownId};
pub use server::{EventSink, LiveHandle, LiveServer, PendingAnswer, ServeError};
