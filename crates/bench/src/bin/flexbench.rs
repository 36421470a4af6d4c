//! `flexbench` — the benchmark harness behind the committed
//! `BENCH_<layer>.json` baselines, and their regression gate.
//!
//! ```text
//! flexbench measure   [--quick] [--out PATH]   # the eight measures over a city portfolio
//! flexbench scenarios [--quick] [--out PATH]   # Scenario 1 (schedule) and 2 (market) pipelines
//! flexbench serving   [--quick] [--out PATH]   # event replay through the live book
//! flexbench journal   [--quick] [--out PATH]   # journaled replay and crash recovery
//! flexbench check --baseline PATH --candidate PATH
//! ```
//!
//! Each layer writes one `flexoffers-bench/2` report (see
//! `flexoffers_bench::gate`) to `BENCH_<layer>.json` unless `--out` says
//! otherwise; `--quick` runs the smaller sweep CI uses. `check` exits 0
//! when the candidate passes the gate, 1 when it regressed, and 2 on bad
//! arguments or an unreadable report, including one of another schema.
//!
//! Throughput is wall-clock and host-dependent; every report records
//! `host_cpus`, and the thread sweep includes the host's CPU count so a
//! multi-core host records the `multi_core_speedup` ratio the gate's
//! second leg compares.

use std::hint::black_box;
use std::path::Path;

use flexoffers_bench::gate::{self, Ratio, Report, Run, MULTI_CORE};
use flexoffers_bench::timing::{median_ratio, time_best};
use flexoffers_engine::{Budget, Engine, Scenario, ScenarioKind};
use flexoffers_market::baseline_load;
use flexoffers_measures::{all_measures, Measure, MeasureError, PreparedOffer};
use flexoffers_model::FlexOffer;
use flexoffers_scheduling::{schedule_via_aggregation, GreedyScheduler, SchedulingProblem};
use flexoffers_serving::{
    batch, DurabilityConfig, Event, EventSink, LiveBook, QueryKind, ServeConfig,
};
use flexoffers_storage::{recover, Durable};
use flexoffers_workloads::{city, city_households_for, event_stream};

const SEED: u64 = 7;
const USAGE: &str =
    "usage: flexbench <measure|scenarios|serving|journal> [--quick] [--out PATH]\n       \
                     flexbench check --baseline PATH --candidate PATH";
/// The `measure` layer's portfolio size for [`MULTI_CORE`]; both the
/// quick and the full sweep include it, so CI compares like with like.
const SCALING_OFFERS: usize = 10_000;
/// Journal fsync batching of the `journal` layer.
const SYNC_EVERY: u64 = 64;
/// Offer churn of the `journal` layer's event stream.
const JOURNAL_CHURN: f64 = 0.01;
/// Alternated rounds behind each bounded ratio (see `median_ratio`).
const RATIO_ROUNDS: usize = 15;

fn die(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((layer, rest)) = args.split_first() else {
        die("missing layer")
    };
    if layer == "check" {
        check(rest);
        return;
    }
    if !gate::LAYERS.contains(&layer.as_str()) {
        die(&format!("unknown layer {layer}"));
    }
    let mut quick = false;
    let mut out = format!("BENCH_{layer}.json");
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match iter.next() {
                Some(path) if !path.starts_with("--") => out = path.clone(),
                _ => die("--out needs a path"),
            },
            other => die(&format!("unknown argument {other}")),
        }
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bench = match layer.as_str() {
        "measure" => measure(host_cpus, quick),
        "scenarios" => scenarios(host_cpus, quick),
        "serving" => serving(host_cpus, quick),
        _ => journal(host_cpus, quick),
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&bench.report).expect("report serializes") + "\n",
    )
    .unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
    println!("wrote {out}");
}

fn check(args: &[String]) {
    let (mut baseline, mut candidate) = (None, None);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let slot = match arg.as_str() {
            "--baseline" => &mut baseline,
            "--candidate" => &mut candidate,
            other => die(&format!("unknown check argument {other}")),
        };
        *slot = Some(
            iter.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{arg} needs a path"))),
        );
    }
    let load = |side: &str, path: Option<String>| {
        let path = path.unwrap_or_else(|| die(&format!("check needs --{side} PATH")));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("reading {side} report {path}: {e}")));
        let report =
            Report::parse(&text).unwrap_or_else(|e| die(&format!("{side} report {path}: {e}")));
        (path, report)
    };
    let (baseline_path, baseline) = load("baseline", baseline);
    let (candidate_path, candidate) = load("candidate", candidate);
    println!(
        "flexbench check {}: {candidate_path} (host_cpus {}) vs {baseline_path} (host_cpus {})",
        baseline.layer, candidate.host_cpus, baseline.host_cpus
    );
    let verdict = gate::check(&baseline, &candidate).unwrap_or_else(|e| die(&e.to_string()));
    println!("{}", verdict.render());
    if !verdict.passed() {
        std::process::exit(1);
    }
}

/// A report under construction, printing each timing as it lands.
struct Bench {
    report: Report,
}

impl Bench {
    fn new(layer: &str, workload: String, unit: &str, host_cpus: usize) -> Self {
        println!("flexbench {layer}: {workload} · {host_cpus} host cpu(s)");
        Self {
            report: Report::new(layer, workload, unit, host_cpus),
        }
    }

    /// Times `f` (best pass, see `time_best`), which processes `items`
    /// units of the report's rate per pass, and records it as `run`.
    fn time(&mut self, run: Run, items: usize, f: impl FnMut()) {
        let secs = time_best(f);
        self.record(run, secs, items as f64 / secs);
    }

    fn record(&mut self, run: Run, secs: f64, rate: f64) {
        println!(
            "  {:<24} {:>7} offers  {} thread(s)  {} shard(s)  {secs:>9.4}s  {rate:>10.0} {}",
            run.path, run.offers, run.threads, run.shards, self.report.unit
        );
        self.report.runs.push(Run { secs, rate, ..run });
    }

    /// The recorded run of `path` at `offers` and `threads`.
    fn recorded(&self, path: &str, offers: usize, threads: usize) -> &Run {
        self.report
            .runs
            .iter()
            .find(|r| r.path == path && r.offers == offers && r.threads == threads)
            .unwrap_or_else(|| panic!("{path} at {offers} offers, {threads} thread(s) was run"))
    }

    fn ratio(&mut self, name: &str, value: f64, about: String) {
        println!("  {name} = {value:.2} ({about})");
        self.report.ratios.push(Ratio {
            name: name.to_owned(),
            value,
            about,
        });
    }

    /// Records `slow`'s seconds over `fast`'s, each at `offers` and
    /// `(path, threads)`.
    fn speedup(&mut self, name: &str, offers: usize, slow: (&str, usize), fast: (&str, usize)) {
        let value =
            self.recorded(slow.0, offers, slow.1).secs / self.recorded(fast.0, offers, fast.1).secs;
        let about = format!(
            "{} at {} thread(s) over {} at {} thread(s), seconds, {offers} offers",
            slow.0, slow.1, fast.0, fast.1
        );
        self.ratio(name, value, about);
    }
}

/// A run still to be timed: `secs` and `rate` are filled in by
/// [`Bench::record`]. Every path runs on one shard.
fn run(path: &str, reference: bool, offers: usize, threads: usize) -> Run {
    Run {
        path: path.to_owned(),
        reference,
        offers,
        threads,
        shards: 1,
        secs: 0.0,
        rate: 0.0,
    }
}

/// 1/4/8 worker threads, plus the host's CPU count when it lies between,
/// so a multi-core host always has a run at full parallelism.
fn thread_sweep(host_cpus: usize) -> Vec<usize> {
    let mut threads = vec![1, 4, 8];
    if !threads.contains(&host_cpus) && host_cpus < 8 {
        threads.push(host_cpus);
        threads.sort_unstable();
    }
    threads
}

/// The eight measures over a seeded city portfolio: the engine at each
/// thread count (gated), against the per-measure `of_set` loop and the
/// scalar kernel — the prepared-offer loop, [`prepared_rows`] — at one
/// thread (references).
fn measure(host_cpus: usize, quick: bool) -> Bench {
    let sizes: &[usize] = if quick {
        &[1_000, SCALING_OFFERS]
    } else {
        &[1_000, SCALING_OFFERS, 100_000]
    };
    let largest = *sizes.last().expect("at least one size");
    let mut portfolio = city(SEED, city_households_for(largest));
    portfolio.truncate(largest);
    let offers: &[FlexOffer] = portfolio.as_slice();
    let measures = all_measures();
    let mut bench = Bench::new(
        "measure",
        format!(
            "all {} measures per offer over workloads::city(seed {SEED}), truncated per size; \
             engine = the columnar batch path",
            measures.len()
        ),
        "offers/s",
        host_cpus,
    );

    assert_kernels_identical(&Engine::sequential(), offers);
    println!("  kernels agree bit-for-bit over {} offers", offers.len());

    let threads = thread_sweep(host_cpus);
    for &size in sizes {
        let slice = &offers[..size];
        bench.time(run("of_set loop", true, size, 1), size, || {
            for m in &measures {
                let _ = black_box(m.of_set(black_box(slice)));
            }
        });
        bench.time(run("scalar kernel", true, size, 1), size, || {
            black_box(prepared_rows(black_box(slice), &measures));
        });
        for &t in &threads {
            let engine = Engine::new(Budget::with_threads(t).expect("non-zero"));
            bench.time(run("engine", false, size, t), size, || {
                black_box(engine.measure_portfolio_all(black_box(slice)));
            });
        }
    }
    bench.speedup(
        "engine_speedup_vs_of_set_loop",
        largest,
        ("of_set loop", 1),
        ("engine", 1),
    );
    bench.speedup(
        "engine_speedup_vs_scalar_kernel",
        largest,
        ("scalar kernel", 1),
        ("engine", 1),
    );
    if let Some(&parallel) = threads.iter().filter(|&&t| t <= host_cpus).max() {
        if parallel > 1 {
            bench.speedup(
                MULTI_CORE,
                SCALING_OFFERS,
                ("engine", 1),
                ("engine", parallel),
            );
        }
    }
    bench
}

/// One row of `measures` per offer, each offer wrapped once in a
/// [`PreparedOffer`] and every measure evaluated through `of_prepared` on
/// the calling thread — the scalar reference the engine's columnar
/// batches must reproduce bit for bit.
fn prepared_rows(
    offers: &[FlexOffer],
    measures: &[Box<dyn Measure>],
) -> Vec<Vec<Result<f64, MeasureError>>> {
    offers
        .iter()
        .map(|fo| {
            let prepared = PreparedOffer::new(fo);
            measures.iter().map(|m| m.of_prepared(&prepared)).collect()
        })
        .collect()
}

/// Panics unless `engine` agrees bit-for-bit with the prepared-offer loop
/// on every per-offer measure value and with the market crate's
/// earliest-start baseline — a throughput number for an engine that
/// diverges would be meaningless.
fn assert_kernels_identical(engine: &Engine, offers: &[FlexOffer]) {
    let measures = all_measures();
    let scalar_rows = prepared_rows(offers, &measures);
    let engine_columns = engine.per_offer_columns(offers, &measures);
    assert_eq!(engine_columns.len(), measures.len());
    for (m, e_column) in engine_columns.iter().enumerate() {
        assert_eq!(scalar_rows.len(), e_column.len());
        for (i, (s_row, e)) in scalar_rows.iter().zip(e_column).enumerate() {
            let s = &s_row[m];
            let same = match (s, e) {
                (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            assert!(same, "offer {i}, measure {m}: scalar {s:?} != engine {e:?}");
        }
    }
    assert_eq!(
        baseline_load(offers),
        engine.baseline_load_parallel(offers),
        "earliest-start baseline diverged from the market crate's"
    );
}

/// Both scenario pipelines — `Engine::schedule_portfolio` (group →
/// aggregate → schedule → realize) and `Engine::trade_portfolio` (group →
/// plan → settle) — at each thread count (gated), against the sequential
/// library paths (references). Knobs come from the `Scenario` defaults
/// `flexctl simulate` uses.
fn scenarios(host_cpus: usize, quick: bool) -> Bench {
    let sizes: &[usize] = if quick { &[1_000] } else { &[1_000, 10_000] };
    let mut bench = Bench::new(
        "scenarios",
        format!("workloads::city(seed {SEED}), truncated per size, Scenario defaults"),
        "offers/s",
        host_cpus,
    );
    let threads = thread_sweep(host_cpus);
    for &size in sizes {
        let scenario = Scenario::city_portfolio(ScenarioKind::Schedule, city_households_for(size));
        let mut portfolio = scenario.portfolio();
        portfolio.truncate(size);
        let offers: &[FlexOffer] = portfolio.as_slice();
        let problem = SchedulingProblem::new(offers.to_vec(), scenario.target_for(offers.len()));
        let scheduler = GreedyScheduler::new();
        let market = scenario.spot_market();
        let aggregator = scenario.aggregator();

        bench.time(run("schedule library", true, size, 1), size, || {
            black_box(schedule_via_aggregation(&problem, &scenario.grouping, &scheduler).unwrap());
        });
        for &t in &threads {
            let engine = Engine::new(Budget::with_threads(t).expect("non-zero"));
            bench.time(run("schedule engine", false, size, t), size, || {
                black_box(
                    engine
                        .schedule_portfolio(&problem, &scenario.grouping, &scheduler)
                        .unwrap(),
                );
            });
        }
        bench.time(run("market library", true, size, 1), size, || {
            black_box(aggregator.run(&portfolio, &market));
        });
        for &t in &threads {
            let engine = Engine::new(Budget::with_threads(t).expect("non-zero"));
            bench.time(run("market engine", false, size, t), size, || {
                black_box(engine.trade_portfolio(&portfolio, &aggregator, &market));
            });
        }
    }
    let largest = *sizes.last().expect("at least one size");
    for (name, slow, fast) in [
        (
            "schedule_engine_speedup_vs_library",
            "schedule library",
            "schedule engine",
        ),
        (
            "market_engine_speedup_vs_library",
            "market library",
            "market engine",
        ),
    ] {
        bench.speedup(name, largest, (slow, 1), (fast, 1));
    }
    bench
}

/// `event_stream` scripts (adds + churn) replayed through a one-shard
/// `LiveBook` at 1 and 2 engine threads (gated), plus the warm incremental
/// hot path — one single-offer update followed by a measure query
/// (reference) — which the `warm_query_speedup_vs_batch` ratio quotes at 2
/// threads against a from-scratch 1-thread batch measure query. The full
/// sweep also
/// records `churn_cost_growth`: how much a replayed event's cost grows
/// from a 10k- to a 100k-offer book, about 1 when churn is `O(log n)`.
/// Both bounded ratios are medians of [`RATIO_ROUNDS`] alternated rounds,
/// not quotients of two separately timed runs.
fn serving(host_cpus: usize, quick: bool) -> Bench {
    let sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
    let churns: &[f64] = if quick { &[0.01] } else { &[0.01, 0.10] };
    let thread_counts: &[usize] = &[1, 2];
    let mut bench = Bench::new(
        "serving",
        format!(
            "workloads::event_stream(seed {SEED}) replayed through LiveBook; churn {churns:?}; \
             update+query = one update then a measure query on the replayed book"
        ),
        "events/s",
        host_cpus,
    );
    let config = ServeConfig::default();
    let stream = |size: usize, churn: f64| -> Vec<Event> {
        event_stream(SEED, city_households_for(size), churn)
            .map(Event::from)
            .collect()
    };
    let replay = |engine: Engine, events: &[Event]| {
        let mut book = LiveBook::new(config.clone(), 1, engine).expect("one shard is valid");
        for event in events {
            book.apply(event.clone()).expect("valid stream");
        }
        book
    };
    for &size in sizes {
        for &churn in churns {
            let events = stream(size, churn);
            let churn_label = format!("churn {}%", churn * 100.0);
            for &threads in thread_counts {
                let engine = Engine::new(Budget::with_threads(threads).expect("non-zero"));
                let path = format!("replay {churn_label}");
                bench.time(run(&path, false, size, threads), events.len(), || {
                    black_box(replay(engine, &events));
                });

                // Time the incremental hot path.
                let mut book = replay(engine, &events);
                let victim = book.live_ids()[0];
                let replacement = book.to_portfolio().as_slice()[0].clone();
                let warm = time_best(|| {
                    book.update(victim, replacement.clone()).expect("live id");
                    black_box(book.answer(QueryKind::Measure));
                });
                let path = format!("update+query {churn_label}");
                bench.record(run(&path, true, size, threads), warm, 1.0 / warm);

                let headline = size == *sizes.last().expect("non-empty")
                    && churn == churns[0]
                    && threads == *thread_counts.last().expect("non-empty");
                if headline {
                    let logical = book.to_portfolio();
                    let flat = Engine::sequential();
                    let speedup = median_ratio(
                        RATIO_ROUNDS,
                        || {
                            black_box(batch::answer(
                                &flat,
                                &config,
                                logical.as_slice(),
                                QueryKind::Measure,
                            ));
                        },
                        || {
                            book.update(victim, replacement.clone()).expect("live id");
                            black_box(book.answer(QueryKind::Measure));
                        },
                    );
                    bench.ratio(
                        "warm_query_speedup_vs_batch",
                        speedup,
                        format!(
                            "batch measure query at 1 thread over {path} at {threads} \
                             thread(s), seconds, {size} offers, median of {RATIO_ROUNDS} \
                             alternated rounds"
                        ),
                    );
                }
            }
        }
    }
    if !quick {
        let (small, large) = (stream(10_000, 0.10), stream(100_000, 0.10));
        let per_event = median_ratio(
            RATIO_ROUNDS,
            || {
                black_box(replay(Engine::sequential(), &large));
            },
            || {
                black_box(replay(Engine::sequential(), &small));
            },
        );
        bench.ratio(
            "churn_cost_growth",
            per_event * small.len() as f64 / large.len() as f64,
            format!(
                "per-event seconds of replay churn 10% at 1 thread, 100000 offers over 10000 \
                 offers, median of {RATIO_ROUNDS} alternated rounds"
            ),
        );
    }
    bench
}

/// Scratch dir for journal and snapshot files, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_config(journal: &Path, snapshot_every: Option<u64>) -> ServeConfig {
    let mut durability = DurabilityConfig::new(journal);
    durability.snapshot_every = snapshot_every;
    durability.sync_every = SYNC_EVERY;
    ServeConfig {
        durability: Some(durability),
        ..ServeConfig::default()
    }
}

/// Replays `events` through a fresh `Durable<LiveBook>` on an empty
/// journal.
fn durable_replay(config: &ServeConfig, events: &[Event]) -> Durable<LiveBook> {
    let durability = config.durability.as_ref().expect("durable config");
    let _ = std::fs::remove_file(&durability.journal);
    let _ = std::fs::remove_file(durability.snapshot_path());
    let (mut book, _) = Durable::<LiveBook>::open(config.clone(), Engine::sequential(), ())
        .expect("fresh journal opens");
    for event in events {
        book.apply(event.clone()).expect("valid stream");
    }
    book
}

/// `event_stream` scripts replayed through a `Durable<LiveBook>` with and
/// without periodic snapshots, then recovered from the journal alone and
/// from the shutdown snapshot (all gated), against the same replay with
/// journaling off (reference).
fn journal(host_cpus: usize, quick: bool) -> Bench {
    let sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
    let mut bench = Bench::new(
        "journal",
        format!(
            "workloads::event_stream(seed {SEED}, churn {JOURNAL_CHURN}) through \
             Durable<LiveBook>, sync_every {SYNC_EVERY}; recover-replay = journal only, \
             recover-snapshot = shutdown snapshot + empty suffix"
        ),
        "events/s",
        host_cpus,
    );
    let scratch =
        ScratchDir(std::env::temp_dir().join(format!("flexbench_journal_{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create scratch dir");
    let journal_path = scratch.0.join("events.journal");

    for &size in sizes {
        let events: Vec<Event> = event_stream(SEED, city_households_for(size), JOURNAL_CHURN)
            .map(Event::from)
            .collect();
        let n = events.len();
        bench.time(run("journal off", true, size, 1), n, || {
            let mut book =
                LiveBook::new(ServeConfig::default(), 1, Engine::sequential()).expect("one shard");
            for event in &events {
                book.apply(event.clone()).expect("valid stream");
            }
            black_box(&book);
        });
        for (mode, snapshot_every) in [
            ("journal", None),
            ("journal+snapshots", Some((n as u64 / 8).max(1))),
        ] {
            let config = durable_config(&journal_path, snapshot_every);
            bench.time(run(mode, false, size, 1), n, || {
                black_box(durable_replay(&config, &events));
            });
        }

        // One journaled run, synced and snapshotted at shutdown, feeds
        // both recoveries.
        let config = durable_config(&journal_path, None);
        durable_replay(&config, &events)
            .finish()
            .expect("final sync + snapshot");
        let snapshot_path = config.durability.as_ref().expect("durable").snapshot_path();
        bench.time(run("recover-snapshot", false, size, 1), n, || {
            let (book, report) = recover(&config, 1, Engine::sequential()).expect("recovers");
            assert_eq!(report.replayed, 0, "shutdown snapshot satisfies recovery");
            black_box(&book);
        });
        std::fs::remove_file(&snapshot_path).expect("drop snapshot for replay-only recovery");
        bench.time(run("recover-replay", false, size, 1), n, || {
            let (book, report) = recover(&config, 1, Engine::sequential()).expect("recovers");
            assert!(report.snapshot_seq.is_none(), "journal-only recovery");
            black_box(&book);
        });
    }
    let largest = *sizes.last().expect("non-empty");
    bench.speedup(
        "journal_slowdown",
        largest,
        ("journal", 1),
        ("journal off", 1),
    );
    bench.speedup(
        "recover_snapshot_speedup_vs_replay",
        largest,
        ("recover-replay", 1),
        ("recover-snapshot", 1),
    );
    bench
}
