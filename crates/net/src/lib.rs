//! `flexoffers_net` — the TCP front of the serving tier.
//!
//! The serving crate's [`LiveHandle`](flexoffers_serving::LiveHandle) is an
//! in-process channel; this crate puts it on a socket. A [`NetServer`] is a
//! [`std::net::TcpListener`] plus a fixed worker pool speaking the
//! `flexoffers-jsonl/1` script protocol framed one request per line:
//!
//! ```text
//! → {"id":0,"event":{"event":"add","offer":{...}}}
//! ← {"id":0,"ok":{"id":17}}
//! → {"id":1,"event":{"event":"query","kind":"measure"}}
//! ← {"id":1,"ok":{"query":"measure",...}}
//! → {"id":2,"event":{"event":"remove","id":9999}}
//! ← {"id":2,"error":{"code":"unknown_id","message":"remove of unknown offer id 9999"}}
//! ```
//!
//! `docs/PROTOCOL.md` at the repository root is the normative spec of both
//! the nested event objects and this envelope.
//!
//! # Guarantees
//!
//! * **Serialization** — every request from every connection goes through
//!   one gate into the one serving loop; the order the server acknowledges
//!   is the order the book applied, so a [`NetConfig::record`] log replayed
//!   through `flexctl serve --script --batch` reproduces each answered
//!   query byte-for-byte. The gate is held only to check, enqueue and
//!   record; a query's answer is awaited outside it, so mutations on other
//!   connections are acknowledged while a query runs.
//! * **Deadlines** — [`NetConfig::deadline`] bounds each query's answer
//!   wait; an expired wait returns a structured `deadline` error instead of
//!   hanging the connection. The query itself still runs and keeps its
//!   place in the record log and the answer stream.
//! * **Graceful drain** — flipping the `stop` flag (wired to
//!   SIGINT/SIGTERM via [`signal`]) stops accepting, drains requests
//!   already received, then shuts the serving loop down — which runs the
//!   durable sink's `finish()`, so a signal composes with `--journal`
//!   exactly like a clean `--script` run.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::sync::Arc;
//!
//! use flexoffers_engine::Engine;
//! use flexoffers_model::{FlexOffer, Slice};
//! use flexoffers_net::{NetClient, NetConfig, NetServer, Reply};
//! use flexoffers_serving::{Event, LiveServer, QueryKind, Sequencer, ServeConfig};
//!
//! let handle = LiveServer::spawn(ServeConfig::default(), 2, Engine::sequential())?;
//! let server = NetServer::bind("127.0.0.1:0", NetConfig::default(), handle, Sequencer::default())?;
//! let addr = server.local_addr();
//! let stop = Arc::new(AtomicBool::new(false));
//! let serving = {
//!     let stop = Arc::clone(&stop);
//!     std::thread::spawn(move || server.run(&stop, std::io::sink()))
//! };
//!
//! let mut client = NetClient::connect(addr)?;
//! let offer = FlexOffer::new(0, 4, vec![Slice::new(-1, 2)?])?;
//! let added = client.send_event(&Event::Add(offer))?;
//! assert_eq!(added.assigned_id(), Some(0));
//! let Reply::Ok { payload, .. } = client.send_event(&Event::Query(QueryKind::Measure))? else {
//!     panic!("queries answer");
//! };
//! assert!(payload.starts_with("{\"query\":\"measure\""));
//!
//! drop(client);
//! stop.store(true, Ordering::SeqCst);
//! let summary = serving.join().unwrap()?;
//! assert_eq!((summary.connections, summary.requests), (1, 2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod conn;

pub mod client;
pub mod frame;
pub mod server;
pub mod signal;
pub mod stats;

pub use client::{parse_reply, NetClient, Reply};
pub use frame::{ErrorCode, Frame, FrameRejection, MAX_LINE_BYTES, PROTOCOL_VERSION};
pub use server::{NetConfig, NetError, NetServer, NetSummary};
pub use stats::percentile;
