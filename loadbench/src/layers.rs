//! The traced replay: the run's generated requests fed straight to each
//! layer's public functions, with a span around every call, so per-layer
//! time is measured from outside the program.
//!
//! The replay preloads the workload's book, then runs [`CYCLES`] cycles of
//! three generated mutations followed by a refresh and the four queries —
//! the shape of an operator cycle or a `cluster-gather` round.

use std::path::Path;
use std::time::Instant;

use flexoffers_cluster::{ClusterBook, WorkerSpec};
use flexoffers_engine::Engine;
use flexoffers_net::frame;
use flexoffers_serving::{
    BookExport, DurabilityConfig, Event, LiveBook, LiveServer, QueryKind, ServeConfig, ShardExport,
};
use flexoffers_storage::{
    export_to_value, load_snapshot, read_journal, recover, save_snapshot, value_to_export, Journal,
    Snapshot,
};

use crate::e2e::Workload;
use crate::gen::Generator;
use crate::stats::{median, Report};
use crate::trace::Tracer;

/// Replay cycles through the in-process layers.
const CYCLES: usize = 20;
/// Replay cycles through a real cluster (each gathers dirty shards).
const CLUSTER_CYCLES: usize = 5;
/// Mutations per cycle.
const CYCLE_MUTATIONS: usize = 3;
/// Repetitions of the one-shot codec calls (snapshot, recovery, shard
/// encode/decode), reported as medians.
const CODEC_REPEATS: usize = 3;

pub struct Replay<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub flexctl: &'a Path,
    pub dir: &'a Path,
}

/// The requests a replay feeds every layer.
struct Requests {
    preload: Vec<Event>,
    cycles: Vec<Vec<Event>>,
}

impl Requests {
    fn new(workload: Workload, seed: u64, cycles: usize) -> Self {
        let (mut generator, preload) = Generator::new(seed, workload.households());
        let cycles = (0..cycles)
            .map(|_| {
                (0..CYCLE_MUTATIONS)
                    .map(|k| generator.next(workload.target(k)))
                    .collect()
            })
            .collect();
        Self {
            preload: preload.into_iter().map(Event::Add).collect(),
            cycles,
        }
    }

    fn mutations(&self) -> impl Iterator<Item = &Event> {
        self.preload.iter().chain(self.cycles.iter().flatten())
    }
}

fn us_of(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer
        .self_ms(name)
        .into_iter()
        .map(|ms| ms * 1e3)
        .collect()
}

impl Replay<'_> {
    fn engine(&self) -> Engine {
        Engine::new(self.workload.budget())
    }

    fn book(&self) -> Result<LiveBook, String> {
        LiveBook::new(
            ServeConfig::default(),
            self.workload.shards(),
            self.engine(),
        )
        .map_err(|e| format!("replay book: {e}"))
    }

    /// Runs every layer's replay into `tracer` and derives the per-layer
    /// metrics into `report`.
    pub fn run(&self, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
        let requests = Requests::new(self.workload, self.seed, CYCLES);
        let (mut book, snapshot_at) = tracer.span("replay.serving", 0, || {
            self.serving(tracer, report, &requests)
        })?;
        tracer.span("replay.net", 0, || self.net(tracer, report, &requests))?;
        tracer.span("replay.storage", 0, || {
            self.storage(tracer, report, &requests, &mut book, snapshot_at)
        })?;
        tracer.span("replay.cluster", 0, || self.cluster(tracer, report, &book))?;
        Ok(())
    }

    /// `LiveBook` apply/refresh/answer and `LiveHandle::send`. Returns the
    /// final book and its export before the last cycle (the snapshot the
    /// storage replay recovers from).
    fn serving(
        &self,
        tracer: &Tracer,
        report: &mut Report,
        requests: &Requests,
    ) -> Result<(LiveBook, BookExport), String> {
        let mut book = self.book()?;
        let apply = |book: &mut LiveBook, event: &Event, i: usize| {
            tracer
                .span("serving.apply", i as u64, || book.apply(event.clone()))
                .map_err(|e| format!("replay apply: {e}"))
        };
        for (i, event) in requests.preload.iter().enumerate() {
            apply(&mut book, event, i)?;
        }
        tracer.span("serving.refresh_initial", 0, || book.refresh());
        let mut refreshed = Vec::new();
        let mut useful = Vec::new();
        let mut bytes = Vec::new();
        let mut before_last = None;
        for (c, cycle) in requests.cycles.iter().enumerate() {
            if c + 1 == requests.cycles.len() {
                before_last = Some(book.export());
            }
            for event in cycle {
                apply(&mut book, event, c)?;
            }
            let evaluations = book.evaluations();
            tracer.span("serving.refresh", c as u64, || book.refresh());
            let offers: usize = book
                .evaluations()
                .iter()
                .zip(&evaluations)
                .zip(book.shard_sizes())
                .filter(|((after, before), _)| after > before)
                .map(|(_, size)| size)
                .sum();
            refreshed.push(offers as f64);
            useful.push(cycle.len() as f64 / offers.max(1) as f64);
            for kind in QueryKind::all() {
                let answer = tracer.span(answer_span(kind), c as u64, || book.answer(kind));
                bytes.push(answer.len() as f64);
            }
        }
        report.put(
            "serving.refresh_ms",
            median(&tracer.self_ms("serving.refresh")),
            "ms",
            refreshed.len(),
        );
        report.put(
            "serving.refresh_offers",
            median(&refreshed),
            "count",
            refreshed.len(),
        );
        report.put(
            "serving.refresh_useful_ratio",
            median(&useful),
            "ratio",
            useful.len(),
        );
        for kind in QueryKind::all() {
            let samples = tracer.self_ms(answer_span(kind));
            report.put(
                &format!("serving.answer_{}_ms", kind.name()),
                median(&samples),
                "ms",
                samples.len(),
            );
        }
        report.put(
            "serving.answer_bytes",
            bytes.iter().sum::<f64>() / bytes.len() as f64,
            "bytes",
            bytes.len(),
        );
        let applies = us_of(tracer, "serving.apply");
        report.put("serving.apply_us", median(&applies), "us", applies.len());

        // The serving loop's enqueue, on a loop of its own.
        let mut handle = LiveServer::spawn(
            ServeConfig::default(),
            self.workload.shards(),
            self.engine(),
        )
        .map_err(|e| format!("replay serving loop: {e}"))?;
        for (i, event) in requests.mutations().enumerate() {
            tracer
                .span("serving.send", i as u64, || handle.send(event.clone()))
                .map_err(|e| format!("replay send: {e}"))?;
        }
        let looped = handle
            .query(QueryKind::Measure)
            .map_err(|e| format!("replay query: {e}"))?;
        handle
            .shutdown()
            .map_err(|e| format!("replay serving loop: {e}"))?;
        if looped != book.answer(QueryKind::Measure) {
            return Err("the serving loop and the replay book disagree".to_owned());
        }
        let sends = us_of(tracer, "serving.send");
        report.put("serving.send_us", median(&sends), "us", sends.len());
        Ok((book, before_last.expect("at least one cycle")))
    }

    /// Request frame parsing.
    fn net(&self, tracer: &Tracer, report: &mut Report, requests: &Requests) -> Result<(), String> {
        let queries = QueryKind::all().map(Event::Query);
        let lines: Vec<String> = requests
            .mutations()
            .chain(&queries)
            .enumerate()
            .map(|(i, event)| frame::request_line(i as u64, event))
            .collect();
        for (i, line) in lines.iter().enumerate() {
            tracer
                .span("net.frame_parse", i as u64, || frame::parse(line))
                .map_err(|e| format!("replay frame parse: {}", e.message))?;
        }
        let parses = us_of(tracer, "net.frame_parse");
        report.put("net.frame_parse_us", median(&parses), "us", parses.len());
        Ok(())
    }

    /// Journal append/sync, snapshot save/load, rebuild, recovery, and
    /// the export codec.
    fn storage(
        &self,
        tracer: &Tracer,
        report: &mut Report,
        requests: &Requests,
        book: &mut LiveBook,
        before_last: BookExport,
    ) -> Result<(), String> {
        let dir = self.dir.join("replay-storage");
        std::fs::create_dir_all(&dir).map_err(|e| format!("replay dir: {e}"))?;
        let durability = DurabilityConfig::new(dir.join("events.jsonl"));
        let path = durability.journal.clone();
        let fail = |e: flexoffers_storage::StorageError| format!("replay storage: {e}");
        let mut journal = Journal::create(&path, durability.sync_every).map_err(fail)?;
        let mutations: Vec<&Event> = requests.mutations().collect();
        let last_cycle = requests.cycles.last().map_or(0, Vec::len);
        let snapshot_seq = mutations.len() - last_cycle;
        let mut written = 0u64;
        let mut appends = Vec::with_capacity(mutations.len());
        let mut syncs = Vec::new();
        for (i, event) in mutations.iter().enumerate() {
            if i == snapshot_seq {
                let snapshot = Snapshot {
                    seq: snapshot_seq as u64,
                    export: before_last.clone(),
                };
                journal.sync().map_err(fail)?;
                tracer
                    .span("storage.snapshot_save", 0, || {
                        save_snapshot(&durability.snapshot_path(), &snapshot)
                    })
                    .map_err(fail)?;
            }
            let started = Instant::now();
            journal.append(event).map_err(fail)?;
            let ended = Instant::now();
            let took = (ended - started).as_secs_f64() * 1e3;
            written += event.to_json_line().len() as u64 + 1;
            // A sync flushes the whole buffer: afterwards the file holds
            // every byte appended so far.
            let on_disk = std::fs::metadata(&path)
                .map_err(|e| format!("replay journal: {e}"))?
                .len();
            if on_disk == written {
                syncs.push(took);
            } else {
                appends.push(took * 1e3);
            }
            tracer.record("storage.append", i as u64, started, ended);
        }
        tracer
            .span("storage.sync", 0, || journal.sync())
            .map_err(fail)?;
        syncs.extend(tracer.self_ms("storage.sync"));
        drop(journal);
        report.put("storage.append_us", median(&appends), "us", appends.len());
        report.put("storage.sync_ms", median(&syncs), "ms", syncs.len());
        report.put(
            "storage.syncs_per_1k",
            syncs.len() as f64 * 1000.0 / mutations.len() as f64,
            "count",
            mutations.len(),
        );
        report.put(
            "storage.journal_bytes_per_mutation",
            written as f64 / mutations.len() as f64,
            "bytes",
            mutations.len(),
        );
        let snapshot_bytes = std::fs::metadata(durability.snapshot_path())
            .map_err(|e| format!("replay snapshot: {e}"))?
            .len();
        report.put("storage.snapshot_bytes", snapshot_bytes as f64, "bytes", 1);

        let config = ServeConfig {
            durability: Some(durability.clone()),
            ..ServeConfig::default()
        };
        let expected = book.answer(QueryKind::Measure);
        let mut replayed = 0;
        for rep in 0..CODEC_REPEATS {
            let rep = rep as u64;
            if rep > 0 {
                // The same snapshot again: only its timing is new.
                let snapshot = Snapshot {
                    seq: snapshot_seq as u64,
                    export: before_last.clone(),
                };
                tracer
                    .span("storage.snapshot_save", rep, || {
                        save_snapshot(&durability.snapshot_path(), &snapshot)
                    })
                    .map_err(fail)?;
            }
            tracer
                .span("storage.journal_read", rep, || read_journal(&path))
                .map_err(fail)?;
            let loaded = tracer
                .span("storage.snapshot_load", rep, || {
                    load_snapshot(&durability.snapshot_path())
                })
                .map_err(fail)?
                .ok_or("replay snapshot vanished")?;
            tracer
                .span("storage.rebuild", rep, || {
                    LiveBook::from_export(ServeConfig::default(), self.engine(), loaded.export)
                })
                .map_err(|e| format!("replay rebuild: {e}"))?;
            let (mut recovered, recovery) = tracer
                .span("storage.recover", rep, || {
                    recover(&config, self.workload.shards(), self.engine())
                })
                .map_err(fail)?;
            replayed = recovery.replayed;
            if recovered.answer(QueryKind::Measure) != expected {
                return Err("the recovered replay book answers differently".to_owned());
            }
            let export = book.export();
            let text = tracer.span("storage.encode", rep, || {
                serde_json::to_string(&export_to_value(&export)).expect("export values serialize")
            });
            let decoded = tracer.span("storage.decode", rep, || {
                serde_json::from_str(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|v| value_to_export(&v))
            })?;
            if decoded != export {
                return Err("the export codec does not round-trip".to_owned());
            }
        }
        for (metric, span) in [
            ("storage.journal_read_ms", "storage.journal_read"),
            ("storage.snapshot_load_ms", "storage.snapshot_load"),
            ("storage.rebuild_ms", "storage.rebuild"),
            ("storage.recover_ms", "storage.recover"),
            ("storage.snapshot_save_ms", "storage.snapshot_save"),
            ("storage.encode_ms", "storage.encode"),
            ("storage.decode_ms", "storage.decode"),
        ] {
            let samples = tracer.self_ms(span);
            report.put(metric, median(&samples), "ms", samples.len());
        }
        report.put("storage.recover_replayed", replayed as f64, "count", 1);
        Ok(())
    }

    /// A real two-worker cluster driven in process: scatter, dirty and
    /// clean gathers, plus the shard codec a gather runs.
    fn cluster(&self, tracer: &Tracer, report: &mut Report, book: &LiveBook) -> Result<(), String> {
        let requests = Requests::new(self.workload, self.seed, CLUSTER_CYCLES);
        let spec = WorkerSpec::new(self.flexctl).arg("shard-worker");
        let workers = 2;
        let fail = |e: flexoffers_cluster::ClusterError| format!("replay cluster: {e}");
        let mut cluster = ClusterBook::spawn(
            ServeConfig::default(),
            self.workload.budget(),
            workers,
            spec,
        )
        .map_err(fail)?;
        let result = (|| {
            for (i, event) in requests.mutations().enumerate() {
                if i == requests.preload.len() {
                    tracer
                        .span("cluster.answer_first", 0, || {
                            cluster.answer(QueryKind::Measure)
                        })
                        .map_err(fail)?;
                }
                tracer
                    .span("cluster.scatter", i as u64, || cluster.apply(event.clone()))
                    .map_err(fail)?;
                if (i + 1)
                    .checked_sub(requests.preload.len())
                    .is_some_and(|k| k > 0 && k % CYCLE_MUTATIONS == 0)
                {
                    let c = i as u64;
                    tracer
                        .span("cluster.answer_dirty", c, || {
                            cluster.answer(QueryKind::Measure)
                        })
                        .map_err(fail)?;
                    tracer
                        .span("cluster.answer_clean", c, || {
                            cluster.answer(QueryKind::Aggregate)
                        })
                        .map_err(fail)?;
                }
            }
            Ok::<_, String>((cluster.gather_stats(), cluster.respawns()))
        })();
        cluster.shutdown();
        let (stats, respawns) = result?;
        let scatter = us_of(tracer, "cluster.scatter");
        report.put("cluster.scatter_us", median(&scatter), "us", scatter.len());
        let dirty = tracer.self_ms("cluster.answer_dirty");
        let clean = tracer.self_ms("cluster.answer_clean");
        report.put("cluster.answer_dirty_ms", median(&dirty), "ms", dirty.len());
        report.put("cluster.answer_clean_ms", median(&clean), "ms", clean.len());
        let in_process = report.get("serving.refresh_ms").unwrap_or(0.0)
            + report.get("serving.answer_measure_ms").unwrap_or(0.0);
        report.put(
            "cluster.gather_overhead_ms",
            median(&dirty) - in_process,
            "ms",
            dirty.len(),
        );
        let gathered = stats.dirty_shards + stats.cached_shards;
        report.put(
            "cluster.dirty_bytes_per_query",
            stats.dirty_bytes as f64 / stats.gathers.max(1) as f64,
            "bytes",
            stats.gathers as usize,
        );
        report.put(
            "cluster.gather_hit_rate",
            stats.cached_shards as f64 / gathered.max(1) as f64,
            "ratio",
            gathered as usize,
        );
        report.put("cluster.respawns", respawns as f64, "count", 1);

        // The shard codec of one gather: a worker encodes its shard of the
        // workload's book, the supervisor decodes and imports it.
        let mut sharded = LiveBook::new(ServeConfig::default(), workers, self.engine())
            .map_err(|e| format!("replay book: {e}"))?;
        for offer in book.to_portfolio().into_offers() {
            sharded.add(offer);
        }
        sharded.refresh();
        let next_id = sharded.next_id();
        for rep in 0..CODEC_REPEATS as u64 {
            let export = BookExport {
                next_id,
                shards: vec![sharded.export_shard(0), empty_shard()],
            };
            let text = tracer.span("cluster.shard_encode", rep, || {
                serde_json::to_string(&export_to_value(&export)).expect("export values serialize")
            });
            let mut decoded = tracer.span("cluster.shard_decode", rep, || {
                serde_json::from_str(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|v| value_to_export(&v))
            })?;
            let mut merged = LiveBook::new(ServeConfig::default(), workers, self.engine())
                .map_err(|e| format!("replay book: {e}"))?;
            merged.reserve_ids(next_id);
            let shard = decoded.shards.swap_remove(0);
            tracer
                .span("cluster.import_shard", rep, || {
                    merged.import_shard(0, shard)
                })
                .map_err(|e| format!("replay import: {e}"))?;
        }
        for (metric, span) in [
            ("cluster.shard_encode_ms", "cluster.shard_encode"),
            ("cluster.import_shard_ms", "cluster.import_shard"),
        ] {
            let samples = tracer.self_ms(span);
            report.put(metric, median(&samples), "ms", samples.len());
        }
        Ok(())
    }
}

/// What a worker ships for a shard it does not own.
fn empty_shard() -> ShardExport {
    ShardExport {
        ids: Vec::new(),
        offers: Vec::new(),
        key_digest: 0,
        cache: None,
    }
}

fn answer_span(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Measure => "serving.answer_measure",
        QueryKind::Aggregate => "serving.answer_aggregate",
        QueryKind::Schedule => "serving.answer_schedule",
        QueryKind::Trade => "serving.answer_trade",
    }
}
