//! Persists the network tier's throughput/latency baseline:
//! `BENCH_net.json`.
//!
//! Runs an in-process [`flexoffers_net::NetServer`] on a loopback port and
//! drives it with 1/4/8 concurrent [`flexoffers_net::NetClient`]
//! connections, each sending a seeded adds-plus-measure-queries mix (a
//! query every 16th request, so ids never cross connections and every
//! request is valid regardless of interleaving). Each engine run records
//! sustained requests/s across all connections plus the p50/p99/p999
//! round-trip latency of the query requests. The `sequential` section
//! applies the same event count to an in-process
//! [`flexoffers_serving::LiveBook`] — the no-network ceiling the wire
//! runs are compared against.
//!
//! The emitted JSON uses the `flexoffers-engine-bench/1` schema, so the
//! existing `bench_check` regression gate consumes it unchanged (each run
//! carries extra `conns`/`queries`/`query_p*_ms` fields the gate ignores;
//! `threads` records the connection count, `offers_per_sec` is requests
//! acknowledged per second). The headline is the requests/s scaling from
//! 1 connection to the largest connection count.
//!
//! ```text
//! cargo run --release -p flexoffers_bench --bin bench_net            # full sweep
//! cargo run --release -p flexoffers_bench --bin bench_net -- --quick # smaller (CI)
//! cargo run ... -- --out path/to.json                                # custom output
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use flexoffers_bench::timing::time_best;
use flexoffers_engine::Engine;
use flexoffers_measures::all_measures;
use flexoffers_model::FlexOffer;
use flexoffers_net::{percentile, NetClient, NetConfig, NetServer};
use flexoffers_serving::{Event, LiveBook, LiveServer, QueryKind, Sequencer, ServeConfig};
use flexoffers_workloads::city_stream;
use serde::Serialize;

const SEED: u64 = 7;
/// Every 16th request on a connection is a measure query.
const QUERY_STRIDE: u64 = 16;

#[derive(Serialize)]
struct Run {
    offers: usize,
    /// Mirrors the gate's `threads` field: concurrent connections.
    threads: usize,
    conns: usize,
    queries: usize,
    query_p50_ms: f64,
    query_p99_ms: f64,
    query_p999_ms: f64,
    secs: f64,
    /// Requests acknowledged per second across all connections — the
    /// field the per-core gate normalises.
    offers_per_sec: f64,
}

#[derive(Serialize)]
struct SequentialRun {
    offers: usize,
    secs: f64,
    offers_per_sec: f64,
}

#[derive(Serialize)]
struct NetBenchReport {
    schema: &'static str,
    workload: String,
    measures: usize,
    host_cpus: usize,
    /// The no-network ceiling: the same events applied in process.
    sequential: Vec<SequentialRun>,
    /// Wire runs at increasing connection counts.
    engine: Vec<Run>,
    /// Requests/s at the largest connection count over 1 connection.
    speedup_8_threads_largest: f64,
}

/// The per-connection request script: adds from a per-connection seeded
/// city, a measure query every [`QUERY_STRIDE`]th request.
fn connection_events(conn: u64, requests: u64) -> Vec<Event> {
    let offers: Vec<FlexOffer> = city_stream(SEED.wrapping_add(conn), 8).collect();
    (0..requests)
        .map(|i| {
            if i % QUERY_STRIDE == QUERY_STRIDE - 1 {
                Event::Query(QueryKind::Measure)
            } else {
                Event::Add(offers[i as usize % offers.len()].clone())
            }
        })
        .collect()
}

/// What one timed pass over the wire observed.
struct WireObservation {
    secs: f64,
    requests: usize,
    query_latencies_ms: Vec<f64>,
}

/// One fresh server + `conns` concurrent clients, each sending
/// `requests_per_conn` requests; wall time covers the client phase only.
fn wire_pass(conns: usize, requests_per_conn: u64) -> WireObservation {
    let handle = LiveServer::spawn(ServeConfig::default(), 1, Engine::sequential())
        .expect("one-shard serving loop spawns");
    let config = NetConfig {
        max_conns: conns,
        deadline: None,
        record: None,
    };
    let server = NetServer::bind("127.0.0.1:0", config, handle, Sequencer::default())
        .expect("loopback binds");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || server.run(&stop, std::io::sink()))
    };

    let started = Instant::now();
    let per_conn: Vec<(usize, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut client =
                        NetClient::connect(addr).expect("bench client connects to loopback");
                    let mut latencies = Vec::new();
                    let mut acknowledged = 0usize;
                    for event in connection_events(c as u64, requests_per_conn) {
                        let is_query = matches!(event, Event::Query(_));
                        let sent = Instant::now();
                        let reply = client.send_event(&event).expect("server stays up");
                        let elapsed_ms = sent.elapsed().as_secs_f64() * 1e3;
                        assert!(reply.is_ok(), "bench scripts only send valid requests");
                        acknowledged += 1;
                        if is_query {
                            latencies.push(elapsed_ms);
                        }
                    }
                    (acknowledged, latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench connection thread"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();

    stop.store(true, Ordering::SeqCst);
    let summary = server_thread
        .join()
        .expect("server thread")
        .expect("server shuts down cleanly");
    assert_eq!(summary.errors, 0, "bench run must be error-free");

    let mut requests = 0usize;
    let mut query_latencies_ms = Vec::new();
    for (acknowledged, latencies) in per_conn {
        requests += acknowledged;
        query_latencies_ms.extend(latencies);
    }
    WireObservation {
        secs,
        requests,
        query_latencies_ms,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = String::from("BENCH_net.json");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match iter.next() {
                Some(path) if !path.starts_with("--") => out_path = path.clone(),
                _ => {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "error: unknown argument {other}\nusage: bench_net [--quick] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let total_requests: u64 = if quick { 1_024 } else { 4_096 };
    let conn_counts: &[usize] = &[1, 4, 8];
    let passes = if quick { 1 } else { 2 };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench_net: {total_requests} requests over loopback NetServer · conns {conn_counts:?} \
         · {host_cpus} host cpu(s)"
    );

    // The no-network ceiling: the same request count applied in process.
    let events: Vec<Event> = connection_events(0, total_requests);
    let seq_secs = time_best(|| {
        let mut book =
            LiveBook::new(ServeConfig::default(), 1, Engine::sequential()).expect("one shard");
        for event in &events {
            book.apply(event.clone()).expect("valid stream");
        }
        std::hint::black_box(&book);
    });
    let seq_rate = events.len() as f64 / seq_secs;
    println!(
        "  in-process               {total_requests:>7} events  {seq_secs:>9.4}s \
         ({seq_rate:>9.0} events/s)"
    );
    let sequential = vec![SequentialRun {
        offers: total_requests as usize,
        secs: seq_secs,
        offers_per_sec: seq_rate,
    }];

    let mut engine_runs = Vec::new();
    let mut rate_at_1 = 0.0f64;
    let mut rate_at_max = 0.0f64;
    for &conns in conn_counts {
        let requests_per_conn = (total_requests / conns as u64).max(1);
        let mut best: Option<WireObservation> = None;
        for _ in 0..passes {
            let pass = wire_pass(conns, requests_per_conn);
            if best.as_ref().is_none_or(|b| pass.secs < b.secs) {
                best = Some(pass);
            }
        }
        let best = best.expect("at least one pass");
        let rate = best.requests as f64 / best.secs;
        let p50 = percentile(&best.query_latencies_ms, 50.0).unwrap_or(0.0);
        let p99 = percentile(&best.query_latencies_ms, 99.0).unwrap_or(0.0);
        let p999 = percentile(&best.query_latencies_ms, 99.9).unwrap_or(0.0);
        println!(
            "  {conns} conn(s)                {:>7} reqs    {:>9.4}s ({rate:>9.0} req/s, \
             query p50 {p50:.3} ms, p99 {p99:.3} ms, p999 {p999:.3} ms)",
            best.requests, best.secs
        );
        if conns == 1 {
            rate_at_1 = rate;
        }
        rate_at_max = rate;
        engine_runs.push(Run {
            offers: best.requests,
            threads: conns,
            conns,
            queries: best.query_latencies_ms.len(),
            query_p50_ms: p50,
            query_p99_ms: p99,
            query_p999_ms: p999,
            secs: best.secs,
            offers_per_sec: rate,
        });
    }
    let headline = if rate_at_1 > 0.0 {
        rate_at_max / rate_at_1
    } else {
        1.0
    };

    let report = NetBenchReport {
        schema: "flexoffers-engine-bench/1",
        workload: format!(
            "loopback NetServer (1-shard LiveBook, sequential engine) under concurrent \
             NetClient connections; per connection: city_stream adds with a measure query \
             every {QUERY_STRIDE}th request; offers_per_sec = requests acknowledged/s across \
             all connections; threads = connection count; sequential = the same events \
             applied in process (no network); query_p*_ms = query round-trip percentiles; \
             speedup = requests/s at the largest connection count over 1 connection"
        ),
        measures: all_measures().len(),
        host_cpus,
        sequential,
        engine: engine_runs,
        speedup_8_threads_largest: headline,
    };
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&report).expect("report serializes") + "\n",
    )
    .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");
}
