//! Persists the durability tier's throughput baseline:
//! `BENCH_journal.json`.
//!
//! Replays [`flexoffers_workloads::event_stream`] scripts through the
//! serving tier with journaling **off** (a plain
//! [`flexoffers_serving::LiveBook`] — the `sequential` section) and
//! **on** (a [`flexoffers_storage::Durable`]`<LiveBook>` appending every
//! mutation to an fsync-batched journal, with and without periodic
//! snapshots — the `engine` section), then times **recovery**:
//! rebuilding the book from
//! the journal alone (full replay) and from the shutdown snapshot plus an
//! empty suffix. The headline is the journaling-off / journaling-on
//! throughput ratio at the largest size — the write-amplification cost of
//! durability, which the `bench_check` per-core gate keeps honest.
//!
//! The emitted JSON uses the `flexoffers-engine-bench/1` schema, so the
//! existing `bench_check` regression gate consumes it unchanged (each run
//! carries extra `mode`/`events`/`sync_every` fields the gate ignores;
//! `offers_per_sec` is events applied — or replayed, for recovery modes —
//! per second).
//!
//! ```text
//! cargo run --release -p flexoffers_bench --bin bench_journal            # full sweep (100k events)
//! cargo run --release -p flexoffers_bench --bin bench_journal -- --quick # 10k events (CI)
//! cargo run ... -- --out path/to.json                                    # custom output
//! ```

use std::path::{Path, PathBuf};

use flexoffers_bench::timing::time_best;
use flexoffers_engine::Engine;
use flexoffers_measures::all_measures;
use flexoffers_serving::{DurabilityConfig, Event, EventSink, LiveBook, ServeConfig};
use flexoffers_storage::{recover, Durable};
use flexoffers_workloads::{city_households_for, event_stream};
use serde::Serialize;

const SEED: u64 = 7;
const CHURN: f64 = 0.01;
const SYNC_EVERY: u64 = 64;

#[derive(Serialize)]
struct Run {
    offers: usize,
    threads: usize,
    /// What this run measured: `journal`, `journal+snapshots`,
    /// `recover-replay` (journal only) or `recover-snapshot`.
    mode: String,
    events: usize,
    sync_every: u64,
    secs: f64,
    /// Events applied (or replayed) per second — the field the per-core
    /// gate normalises.
    offers_per_sec: f64,
}

#[derive(Serialize)]
struct SequentialRun {
    offers: usize,
    secs: f64,
    offers_per_sec: f64,
}

#[derive(Serialize)]
struct JournalBenchReport {
    schema: &'static str,
    workload: String,
    measures: usize,
    host_cpus: usize,
    /// Journaling-off replays (plain in-memory `LiveBook`).
    sequential: Vec<SequentialRun>,
    /// Journaling-on replays and recovery timings.
    engine: Vec<Run>,
    /// Journaling-off / journaling-on replay throughput at the largest
    /// size — durability's write-amplification factor.
    speedup_8_threads_largest: f64,
}

/// Scratch dir for journal/snapshot files, removed on drop.
struct ScratchDir(PathBuf);

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

/// Replays `events` through a fresh `Durable<LiveBook>` on a truncated
/// journal.
fn durable_replay(config: &ServeConfig, events: &[Event]) -> Durable<LiveBook> {
    let journal = &config.durability.as_ref().expect("durable config").journal;
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(config.durability.as_ref().unwrap().snapshot_path());
    let (mut book, _) = Durable::<LiveBook>::open(config.clone(), 1, Engine::sequential(), ())
        .expect("fresh journal opens");
    for event in events {
        book.apply(event.clone()).expect("valid stream");
    }
    book
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = String::from("BENCH_journal.json");
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
                    "error: unknown argument {other}\nusage: bench_journal [--quick] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench_journal: event_stream(seed {SEED}, churn {CHURN}) through Durable<LiveBook> \
         (sync_every {SYNC_EVERY}) · sizes {sizes:?} · {host_cpus} host cpu(s)"
    );

    let scratch = ScratchDir(
        std::env::temp_dir().join(format!("flexoffers_bench_journal_{}", std::process::id())),
    );
    std::fs::create_dir_all(&scratch.0).expect("create scratch dir");
    let journal_path = scratch.0.join("events.journal");

    let mut sequential = Vec::new();
    let mut engine_runs = Vec::new();
    let mut headline = 1.0f64;
    for &size in sizes {
        let households = city_households_for(size);
        let events: Vec<Event> = event_stream(SEED, households, CHURN)
            .map(Event::from)
            .collect();

        // Journaling off: the in-memory baseline the durable runs compare
        // against.
        let plain_config = ServeConfig::default();
        let off_secs = time_best(|| {
            let mut book =
                LiveBook::new(plain_config.clone(), 1, Engine::sequential()).expect("one shard");
            for event in &events {
                book.apply(event.clone()).expect("valid stream");
            }
            std::hint::black_box(&book);
        });
        let off_rate = events.len() as f64 / off_secs;
        println!(
            "  journaling off           {size:>7} offers  {off_secs:>9.4}s \
             ({off_rate:>9.0} events/s)"
        );
        sequential.push(SequentialRun {
            offers: size,
            secs: off_secs,
            offers_per_sec: off_rate,
        });

        // Journaling on, with and without periodic snapshots.
        let mut on_rate_plain = off_rate;
        for (mode, snapshot_every) in [
            ("journal", None),
            ("journal+snapshots", Some((events.len() as u64 / 8).max(1))),
        ] {
            let config = durable_config(&journal_path, snapshot_every);
            let secs = time_best(|| {
                std::hint::black_box(durable_replay(&config, &events));
            });
            let rate = events.len() as f64 / secs;
            if mode == "journal" {
                on_rate_plain = rate;
            }
            println!(
                "  {mode:<24} {size:>7} offers  {secs:>9.4}s ({rate:>9.0} events/s, \
                 {:.2}x off)",
                off_rate / rate
            );
            engine_runs.push(Run {
                offers: size,
                threads: 1,
                mode: mode.to_owned(),
                events: events.len(),
                sync_every: SYNC_EVERY,
                secs,
                offers_per_sec: rate,
            });
        }
        if size == *sizes.last().expect("non-empty") {
            headline = off_rate / on_rate_plain;
        }

        // Recovery: journal-only full replay, then snapshot + empty
        // suffix. One journaled run (synced, snapshotted at the end)
        // feeds both.
        let config = durable_config(&journal_path, None);
        let mut book = durable_replay(&config, &events);
        book.finish().expect("final sync + snapshot");
        drop(book);
        let snapshot_path = config.durability.as_ref().unwrap().snapshot_path();
        let snapshot_bytes = std::fs::metadata(&snapshot_path).map_or(0, |m| m.len());

        let with_snapshot_secs = time_best(|| {
            let (book, report) =
                recover(&config, 1, Engine::sequential()).expect("recovery succeeds");
            assert_eq!(report.replayed, 0, "shutdown snapshot satisfies recovery");
            std::hint::black_box(&book);
        });
        std::fs::remove_file(&snapshot_path).expect("drop snapshot for replay-only recovery");
        let replay_secs = time_best(|| {
            let (book, report) =
                recover(&config, 1, Engine::sequential()).expect("recovery succeeds");
            assert!(report.snapshot_seq.is_none(), "journal-only recovery");
            std::hint::black_box(&book);
        });
        for (mode, secs) in [
            ("recover-replay", replay_secs),
            ("recover-snapshot", with_snapshot_secs),
        ] {
            let rate = events.len() as f64 / secs;
            println!("  {mode:<24} {size:>7} offers  {secs:>9.4}s ({rate:>9.0} events/s)");
            engine_runs.push(Run {
                offers: size,
                threads: 1,
                mode: mode.to_owned(),
                events: events.len(),
                sync_every: SYNC_EVERY,
                secs,
                offers_per_sec: rate,
            });
        }
        println!(
            "  snapshot size            {size:>7} offers  {:>9.1} KiB",
            snapshot_bytes as f64 / 1024.0
        );
    }

    let report = JournalBenchReport {
        schema: "flexoffers-engine-bench/1",
        workload: format!(
            "workloads::event_stream(seed {SEED}, churn {CHURN}) through Durable<LiveBook> \
             (sync_every {SYNC_EVERY}; offers_per_sec = events/s; sequential = journaling-off \
             LiveBook replay; engine modes: journal, journal+snapshots, recover-replay \
             [journal-only recovery], recover-snapshot [shutdown snapshot + empty suffix]; \
             speedup = journaling-off / journaling-on replay throughput at the largest size)"
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
