//! `flexoffers` — a Rust implementation of the flex-offer energy-flexibility
//! stack around **“Measuring and Comparing Energy Flexibilities”**
//! (Valsomatzis, Hose, Pedersen, Šikšnys — EDBT/ICDT 2015 Workshops).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`model`] — flex-offers, assignments, enumeration, counting, sampling;
//! * [`measures`] — the paper's eight flexibility measures and the Table 1
//!   characteristics harness (the paper's primary contribution);
//! * [`timeseries`] — the discrete series algebra underneath;
//! * [`area`] — grid-cell area semantics (Definitions 9–10) and ASCII
//!   figure rendering;
//! * [`aggregation`] — start-alignment aggregation, grouping,
//!   flow-exact disaggregation, balance-aware grouping, loss evaluation;
//! * [`scheduling`] — baseline/greedy/hill-climbing/exhaustive schedulers
//!   against a target supply profile;
//! * [`workloads`] — seeded synthetic prosumer devices, districts, RES and
//!   price traces;
//! * [`market`] — the Scenario 2 balancing-market simulation;
//! * [`engine`] — batched, multi-threaded portfolio-scale evaluation of
//!   the measures, aggregation, and the two end-to-end scenario pipelines
//!   (schedule toward a target, trade on the balancing market), with
//!   deterministic merge order — bitwise identical at any thread count,
//!   up to million-offer portfolios;
//! * [`serving`] — the live tier on top: an event-driven
//!   [`LiveBook`](serving::LiveBook) whose queries run the batch engine's
//!   passes over a borrowed view of its offers, beside per-shard
//!   incremental state (baseline partials, group-key digests, a cached
//!   grouping), answering measure/aggregate/schedule/trade queries between
//!   updates, byte-identical to a from-scratch batch rebuild;
//! * [`storage`] — durability for the serving tier: an append-only event
//!   journal (itself a replayable event script), checksummed atomic
//!   per-shard snapshots of the live book's export, and crash recovery
//!   ([`storage::recover()`]) that truncates torn journal tails and
//!   preserves byte-identity at any crash point;
//! * [`net`] — the TCP front of the serving tier: request-id framed JSONL
//!   over a fixed worker pool ([`net::NetServer`]), per-query deadlines,
//!   graceful SIGTERM drain, and a recording byte-identity oracle (the
//!   wire format is specified in `docs/PROTOCOL.md`);
//! * [`cluster`] — cross-process shard workers: a supervisor
//!   ([`cluster::ClusterBook`]) that scatters mutations to one OS process
//!   per shard over stdio pipes, gathers warmed shard exports per query,
//!   merges them through the in-process engine (byte-identical answers),
//!   and repairs worker death by respawn-and-replay.
//!
//! The most common types are re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use flexoffers::{all_measures, FlexOffer, Slice};
//!
//! // The paper's Figure 1 flex-offer.
//! let f = FlexOffer::new(1, 6, vec![
//!     Slice::new(1, 3)?,
//!     Slice::new(2, 4)?,
//!     Slice::new(0, 5)?,
//!     Slice::new(0, 3)?,
//! ])?;
//!
//! for measure in all_measures() {
//!     match measure.of(&f) {
//!         Ok(v) => println!("{:<12} {v:.3}", measure.short_name()),
//!         Err(e) => println!("{:<12} n/a ({e})", measure.short_name()),
//!     }
//! }
//! # Ok::<(), flexoffers::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use flexoffers_aggregation as aggregation;
pub use flexoffers_area as area;
pub use flexoffers_cluster as cluster;
pub use flexoffers_engine as engine;
pub use flexoffers_market as market;
pub use flexoffers_measures as measures;
pub use flexoffers_model as model;
pub use flexoffers_net as net;
pub use flexoffers_scheduling as scheduling;
pub use flexoffers_serving as serving;
pub use flexoffers_storage as storage;
pub use flexoffers_timeseries as timeseries;
pub use flexoffers_workloads as workloads;

pub use flexoffers_aggregation::{aggregate, Aggregate, GroupingParams};
pub use flexoffers_engine::{
    Budget, Engine, PortfolioReport, Scenario, ScenarioKind, ScenarioReport, SchedulerChoice,
};
pub use flexoffers_measures::{all_measures, Measure, MeasureError, Norm};
pub use flexoffers_model::{
    Assignment, Energy, FlexOffer, FlexOfferBuilder, ModelError, Portfolio, SignClass, Slice,
    TimeSlot,
};
pub use flexoffers_scheduling::{Scheduler, SchedulingProblem};
pub use flexoffers_timeseries::Series;
