//! `flexctl` — command-line access to the flexibility measures.
//!
//! ```text
//! flexctl measure <file.json|-> [measure-name ...]   measure a flex-offer
//! flexctl measure --portfolio <file.json|->          measure a whole portfolio
//!         [--threads N] [--json]                     (engine-parallel)
//!         [measure-name ...]
//! flexctl measure --portfolio --city H [--seed S]    same, over a generated
//!         [--threads N] [--json]                     city
//! flexctl simulate --scenario <schedule|market>      run a scenario pipeline
//!         [--city H] [--seed S] [--threads N]        on a generated city
//!         [--scheduler greedy|hillclimb] [--json]    (--households is an
//!                                                    alias of --city)
//! flexctl serve --script <events.jsonl|->            replay an event stream
//!         [--workers W] [--threads N] [--seed S]     through the live book;
//!         [--batch]                                  one JSON line per query
//!         [--journal PATH [--snapshot-every N]       (--workers W shards the
//!          [--sync-every N]]                         book across W worker
//!                                                    OS processes)
//! flexctl serve --listen ADDR [--max-conns N]        serve the framed JSONL
//!         [--deadline-ms D] [--record PATH]          protocol over TCP
//!         [--workers W] [--threads N] [--seed S]     (docs/PROTOCOL.md);
//!         [--journal PATH [--snapshot-every N]       SIGTERM/ctrl-c drains
//!          [--sync-every N]]                         and snapshots cleanly
//! flexctl bomb --addr HOST:PORT [--conns N]          load-generate against a
//!         [--events M] [--seed S]                    --listen server
//! flexctl recover --journal PATH                     recover a killed serve
//!         [--threads N] [--seed S]                   and answer the four
//!                                                    query kinds
//! flexctl events --city H [--seed S] [--churn PCT]   generate such a script
//!         [--queries N]                              from the city workload
//! flexctl render  <file.json|->                      ASCII-render it
//! flexctl count   <file.json|->                      assignment-space sizes
//! flexctl names                                      list measure names
//! flexctl template [--portfolio]                     print example JSON
//! flexctl help                                       print this usage
//! ```
//!
//! Flex-offers are read as JSON in the model crate's serde format; `-`
//! reads stdin. Portfolios are read either as `{"offers": [...]}` or as a
//! bare JSON array of flex-offers. Try
//! `flexctl template | flexctl measure -` or
//! `flexctl template --portfolio | flexctl measure --portfolio -`.
//!
//! `--city H` generates the portfolio instead of reading a file:
//! `flexctl measure --portfolio --city 296000 --threads 2 --json` measures
//! a million offers. A batch portfolio (`measure --portfolio`,
//! `simulate`) has one path: flat, parallel by `--threads N`; the
//! `--json` output is byte-identical at any thread count.
//!
//! An in-process `serve` or `recover` runs a one-shard live book.
//! `--threads N` is one budget for the whole book: every query pass runs over all live
//! offers on `N` threads (answers never change — threads are
//! throughput-only).
//!
//! Every failure prints one `error: …` line (plus the usage where the
//! arguments were at fault) to stderr and exits 1.
//!
//! `serve` replays a JSONL event script (see `flexctl events` and the
//! serving crate's event schema: one `{"event": "add|update|remove|query",
//! ...}` object per line) through the live serving tier and prints one
//! deterministic JSON line per query. `--batch` answers every query by
//! rebuilding the portfolio from scratch through the flat engine instead —
//! the outputs are byte-identical, which CI `cmp`s.
//!
//! `serve --journal PATH` makes the run durable: every mutation is
//! appended to the journal (itself a replayable serve script) *before* it
//! is applied, the journal is fsynced every `--sync-every` events (default
//! 64), and a checksummed snapshot of the live state lands next to the
//! journal every `--snapshot-every` mutations and at clean shutdown. After
//! a crash, `flexctl recover --journal PATH` rebuilds the book from the
//! latest valid snapshot plus the journal suffix (a torn final line is
//! truncated, never an error), prints a recovery summary to stderr, and
//! answers the four query kinds in wire order on stdout — byte-identical
//! to what an uninterrupted run would have answered.
//!
//! `serve --workers W` runs the book as W shard worker OS processes
//! behind a supervisor (`flexoffers::cluster`): mutations scatter to the
//! owning worker over stdio pipes, queries gather per-shard exports and
//! merge them through the in-process engine, so the answers stay
//! byte-identical to plain `serve` at any workers × threads. A
//! worker that dies is respawned and replayed invisibly (watch for
//! `cluster worker W respawned` on stderr). Each worker is one shard;
//! `--workers` composes with `--script`, `--listen`, `--journal`,
//! `--record` and `--deadline-ms` alike. The workers are spawned from the
//! current `flexctl` executable (an internal `shard-worker` subcommand
//! speaks the supervisor protocol on stdio).
//!
//! `serve --listen ADDR` swaps the script for a TCP socket: the same
//! events arrive framed as `{"id":…,"event":{…}}` request lines over any
//! number of connections (the wire spec is `docs/PROTOCOL.md`), answered
//! queries print to stdout exactly as `--script` would, and `--record
//! PATH` writes the serialized history as a canonical script — replaying
//! that record through `serve --script --batch` reproduces the answers
//! byte-for-byte, which CI asserts. `--max-conns` (at least 1) sizes the
//! worker pool, `--deadline-ms` bounds each query's answer wait (expiries
//! return a structured `deadline` error; the query still ran and stays in
//! the record and the answer stream), and SIGTERM/ctrl-c drains
//! in-flight requests before the durable sink's final sync + snapshot.
//! `flexctl bomb` is the matching load generator: `--conns` concurrent
//! connections each sending `--events` add/update/remove/query requests,
//! reporting throughput and latency percentiles for mutations and
//! queries apart.

use std::io::{Read, Write};
use std::process::ExitCode;

use flexoffers::area::{render_flexoffer, render_union};
use flexoffers::cluster::{ClusterBook, WorkerSpec};
use flexoffers::engine::{Budget, Engine};
use flexoffers::measures::{all_measures, available_names, measure_by_name, Measure};
use flexoffers::net::{percentile, signal, NetClient, NetConfig, NetServer, Reply};
use flexoffers::serving::batch::BatchBook;
use flexoffers::serving::{
    parse_script, parse_script_from, DurabilityConfig, Event, EventSink, LiveBook, LiveHandle,
    LiveServer, QueryKind, Sequencer, ServeConfig,
};
use flexoffers::storage::{recover as recover_book, Durable, RecoveryReport};
use flexoffers::workloads::{city_stream, district, event_stream, event_stream_len, EvCharger};
use flexoffers::{FlexOffer, Portfolio, Scenario, ScenarioKind, SchedulerChoice};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => run(cmd, rest),
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// What a subcommand returns: `Err` carries the message [`run`] prints
/// after `error: `.
type Outcome = Result<(), String>;

const USAGE: &str = "usage:
  flexctl measure <file.json|-> [measure-name ...]
  flexctl measure --portfolio <file.json|-> [--threads N] [--json]
                  [measure-name ...]
  flexctl measure --portfolio --city H [--seed S] [--threads N] [--json]
  flexctl simulate --scenario <schedule|market> [--city H] [--seed S]
                   [--threads N] [--scheduler greedy|hillclimb] [--json]
  flexctl serve --script <events.jsonl|-> [--workers W] [--threads N] [--seed S]
                [--batch] [--journal PATH [--snapshot-every N] [--sync-every N]]
  flexctl serve --listen ADDR [--max-conns N] [--deadline-ms D] [--record PATH]
                [--workers W] [--threads N] [--seed S]
                [--journal PATH [--snapshot-every N] [--sync-every N]]
  flexctl bomb --addr HOST:PORT [--conns N] [--events M] [--seed S]
  flexctl recover --journal PATH [--threads N] [--seed S]
  flexctl events --city H [--seed S] [--churn PCT] [--queries N]
  flexctl render  <file.json|->
  flexctl count   <file.json|->
  flexctl names
  flexctl template [--portfolio]
  flexctl help

measure --portfolio and simulate run one flat batch path, parallel by
--threads; for serve and recover, --threads is one budget for the whole
live book. Answers never depend on --threads.

serve flag combinations: --script and --listen are exclusive modes — give
exactly one. --batch applies only to --script (the from-scratch oracle);
it excludes --journal (nothing durable to resume) and --workers (the
oracle is deliberately the flat engine). --record, --max-conns and
--deadline-ms apply only to --listen. --journal composes with --script
and --listen alike; --max-conns N (N >= 1, default 4) sizes the --listen
connection worker pool; --snapshot-every/--sync-every need --journal, and
both take N >= 1 (--sync-every N fsyncs every Nth mutation, 1 = every
mutation; --snapshot-every N snapshots every Nth mutation — omit it for
shutdown-only snapshots). --workers W (W >= 1) runs the book as W shard
worker OS processes and composes with every other serve flag. --threads
and --seed apply to every serve mode.";

/// Dispatches one subcommand and prints its failure, if any, as the one
/// `error: …` line of the run.
fn run(cmd: &str, rest: &[String]) -> ExitCode {
    let outcome = match cmd {
        "help" | "--help" | "-h" => with_stdout(|out| writeln!(out, "{USAGE}")),
        "names" => with_stdout(|out| {
            available_names()
                .iter()
                .try_for_each(|name| writeln!(out, "{name}"))
        }),
        "template" => {
            let json = if rest.iter().any(|a| a == "--portfolio") {
                // A small deterministic district: enough device variety to
                // exercise every measure, small enough to read.
                serde_json::to_string_pretty(&district(7, 2))
            } else {
                serde_json::to_string_pretty(&EvCharger::paper_use_case())
            };
            let json = json.expect("model types serialize");
            with_stdout(|out| writeln!(out, "{json}"))
        }
        // Internal (not in USAGE): the shard-worker loop `serve --workers`
        // spawns via the current executable. Speaks the supervisor wire
        // protocol on stdin/stdout; useless interactively.
        "shard-worker" => {
            flexoffers::cluster::run_stdio_worker().map_err(|e| format!("shard worker io: {e}"))
        }
        "simulate" => simulate(rest),
        "serve" => serve(rest),
        "recover" => recover(rest),
        "events" => events(rest),
        "bomb" => bomb(rest),
        "measure" if rest.iter().any(|a| a == "--portfolio") => measure_portfolio(rest),
        "measure" | "render" | "count" => single_offer(cmd, rest),
        _ => Err(format!("unknown command {cmd}\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `measure`, `render` and `count` over one flex-offer read from a file
/// or stdin.
fn single_offer(cmd: &str, rest: &[String]) -> Outcome {
    let path = rest
        .first()
        .ok_or_else(|| format!("{cmd} needs a flex-offer file (or - for stdin)\n{USAGE}"))?;
    let fo = load(path)?;
    match cmd {
        "measure" => measure(&fo, &rest[1..]),
        "render" => {
            with_stdout(|out| write!(out, "{}{}", render_flexoffer(&fo), render_union(&fo)))
        }
        _ => count(&fo),
    }
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buffer)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn load(path: &str) -> Result<FlexOffer, String> {
    let text = read_input(path)?;
    serde_json::from_str(&text).map_err(|e| format!("parsing flex-offer JSON: {e}"))
}

fn load_portfolio(path: &str) -> Result<Portfolio, String> {
    let text = read_input(path)?;
    // A bare array of offers is accepted alongside the canonical
    // `{"offers": [...]}`; pick the parse by the leading token so errors
    // point at the format the caller actually wrote.
    if text.trim_start().starts_with('[') {
        serde_json::from_str::<Vec<FlexOffer>>(&text).map(Portfolio::from_offers)
    } else {
        serde_json::from_str::<Portfolio>(&text)
    }
    .map_err(|e| format!("parsing portfolio JSON: {e}"))
}

/// Parses the value of a numeric flag out of the argument iterator — the
/// one implementation behind every `--threads/--workers/--city/--seed/...`
/// across the subcommands, so the error wording cannot drift.
fn count_flag(flag: &str, args: &mut std::slice::Iter<'_, String>) -> Result<u64, String> {
    let Some(value) = args.next() else {
        return Err(format!("{flag} needs a value"));
    };
    value
        .parse::<u64>()
        .map_err(|_| format!("{flag} takes a number, got {value}"))
}

/// The engine budget for an optional `--threads` value.
fn budget_for(threads: Option<usize>) -> Result<Budget, String> {
    match threads {
        Some(n) => Budget::with_threads(n).map_err(|e| e.to_string()),
        None => Ok(Budget::detected()),
    }
}

/// The value of a flag that takes a string, or `missing` as the error.
fn string_flag(args: &mut std::slice::Iter<'_, String>, missing: &str) -> Result<String, String> {
    args.next().cloned().ok_or_else(|| missing.to_owned())
}

fn resolve_measures(names: &[String]) -> Result<Vec<Box<dyn Measure>>, String> {
    if names.is_empty() {
        return Ok(all_measures());
    }
    let mut out = Vec::new();
    for name in names {
        match measure_by_name(name) {
            Some(m) => out.push(m),
            None => return Err(format!("unknown measure {name}; see `flexctl names`")),
        }
    }
    Ok(out)
}

/// The `measure --portfolio` path: parse flags, build an engine, run one
/// batched pass over a file or a generated city, and print the report
/// (text or `--json`; the JSON mirror is byte-identical at any thread
/// count).
fn measure_portfolio(rest: &[String]) -> Outcome {
    let mut positionals: Vec<String> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut city: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut json = false;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--portfolio" => {}
            "--json" => json = true,
            flag @ ("--threads" | "--city" | "--seed") => {
                let n = count_flag(flag, &mut args)?;
                match flag {
                    "--threads" => threads = Some(n as usize),
                    "--city" => city = Some(n as usize),
                    _ => seed = Some(n),
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown measure argument {other}\n{USAGE}"));
            }
            other => positionals.push(other.to_owned()),
        }
    }
    // Positionals are classified only after every flag is parsed, so the
    // meaning of `time` in `measure --portfolio time --city 10` does not
    // depend on whether it precedes or follows `--city`: with --city all
    // positionals are measure names, otherwise the first is the file.
    let (path, names): (Option<String>, Vec<String>) = if city.is_some() {
        (None, positionals)
    } else if positionals.is_empty() {
        (None, Vec::new())
    } else {
        (Some(positionals.remove(0)), positionals)
    };
    if seed.is_some() && city.is_none() {
        return Err("--seed only applies to a generated portfolio; pair it with --city".to_owned());
    }
    let seed = seed.unwrap_or(7);

    let engine = Engine::new(budget_for(threads)?);
    let measures = resolve_measures(&names)?;
    let portfolio: Portfolio = match (city, path) {
        (Some(households), _) => city_stream(seed, households).collect(),
        (None, Some(path)) => load_portfolio(&path)?,
        (None, None) => {
            return Err(format!(
                "measure --portfolio needs a portfolio file (or - for stdin) or --city H\n{USAGE}"
            ))
        }
    };
    if portfolio.is_empty() {
        return Err("empty portfolio — nothing to measure".to_owned());
    }
    let report = engine.measure_portfolio(portfolio.as_slice(), &measures);
    let text = if json {
        serde_json::to_string_pretty(&report.json()).expect("report serializes") + "\n"
    } else {
        report.render()
    };
    with_stdout(|out| out.write_all(text.as_bytes()))
}

/// The `simulate` path: parse flags, run the scenario over its generated
/// city (the portfolio `measure --portfolio --city` measures; `--city` and
/// `--households` name the same knob), print the report (text or
/// `--json`; the JSON mirror is deterministic across thread counts).
fn simulate(rest: &[String]) -> Outcome {
    // ~3.4 offers per household puts the default portfolio above the
    // 10k-offer scale the engine pipelines are sized for.
    let mut households: Option<usize> = None;
    let mut city: Option<usize> = None;
    let mut seed: u64 = 7;
    let mut kind: Option<ScenarioKind> = None;
    let mut scheduler = SchedulerChoice::Greedy;
    let mut threads: Option<usize> = None;
    let mut json = false;

    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--scenario" => {
                let value =
                    string_flag(&mut args, "--scenario needs a value (schedule or market)")?;
                kind = Some(ScenarioKind::parse(&value).ok_or_else(|| {
                    format!("unknown scenario {value}; expected schedule or market")
                })?);
            }
            "--scheduler" => {
                let value =
                    string_flag(&mut args, "--scheduler needs a value (greedy or hillclimb)")?;
                scheduler = SchedulerChoice::parse(&value).ok_or_else(|| {
                    format!("unknown scheduler {value}; expected greedy or hillclimb")
                })?;
            }
            flag @ ("--city" | "--households" | "--seed" | "--threads") => {
                let n = count_flag(flag, &mut args)?;
                match flag {
                    "--city" => city = Some(n as usize),
                    "--households" => households = Some(n as usize),
                    "--seed" => seed = n,
                    _ => threads = Some(n as usize),
                }
            }
            other => return Err(format!("unknown simulate argument {other}\n{USAGE}")),
        }
    }
    let kind = kind.ok_or_else(|| format!("simulate needs --scenario schedule|market\n{USAGE}"))?;
    let households = match (city, households) {
        (Some(_), Some(_)) => {
            return Err("--city and --households name the same knob; give one".to_owned())
        }
        (Some(h), None) | (None, Some(h)) => h,
        (None, None) => 3_000,
    };
    let engine = Engine::new(budget_for(threads)?);

    let mut scenario = Scenario::city_portfolio(kind, households).with_seed(seed);
    scenario.scheduler = scheduler;
    let report = engine.simulate(&scenario).map_err(|e| e.to_string())?;
    let text = if json {
        serde_json::to_string_pretty(&report.json()).expect("report serializes") + "\n"
    } else {
        report.render()
    };
    with_stdout(|out| out.write_all(text.as_bytes()))
}

/// The `serve` path: parse and statically validate a JSONL event script,
/// then replay it — through the live mpsc serving loop (default), or
/// through the from-scratch batch oracle (`--batch`). Every query prints
/// one JSON line; the two modes are byte-identical.
fn serve(rest: &[String]) -> Outcome {
    let mut script: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut record: Option<String> = None;
    let mut max_conns: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut workers: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut batch = false;
    let mut journal: Option<String> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut sync_every: Option<u64> = None;

    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--batch" => batch = true,
            "--script" => {
                script = Some(string_flag(
                    &mut args,
                    "--script needs a path (or - for stdin)",
                )?);
            }
            "--listen" => {
                listen = Some(string_flag(
                    &mut args,
                    "--listen needs an address (e.g. 127.0.0.1:7070)",
                )?);
            }
            "--record" => record = Some(string_flag(&mut args, "--record needs a path")?),
            "--journal" => journal = Some(string_flag(&mut args, "--journal needs a path")?),
            flag @ ("--workers" | "--threads" | "--seed" | "--snapshot-every" | "--sync-every"
            | "--max-conns" | "--deadline-ms") => {
                let n = count_flag(flag, &mut args)?;
                match flag {
                    "--workers" => workers = Some(n as usize),
                    "--threads" => threads = Some(n as usize),
                    "--snapshot-every" => snapshot_every = Some(n),
                    "--sync-every" => sync_every = Some(n),
                    "--max-conns" => max_conns = Some(n as usize),
                    "--deadline-ms" => deadline_ms = Some(n),
                    _ => seed = Some(n),
                }
            }
            other => return Err(format!("unknown serve argument {other}\n{USAGE}")),
        }
    }
    // The flag matrix, each rule with the message it fails with.
    let conflicts = [
        (
            script.is_some() && listen.is_some(),
            "--script and --listen are exclusive serve modes; give exactly one",
        ),
        // The batch oracle replays a finished script; a live socket has no
        // script until it is recorded (serve --listen --record, then
        // replay that through --script --batch).
        (
            batch && listen.is_some(),
            "--batch does not apply to --listen (record a session with --record and replay it through --script --batch)",
        ),
        (
            listen.is_none() && (record.is_some() || max_conns.is_some() || deadline_ms.is_some()),
            "--record/--max-conns/--deadline-ms need --listen ADDR",
        ),
        // The batch oracle rebuilds from scratch per query; journaling it
        // would record a history no recovery could resume.
        (
            batch && journal.is_some(),
            "--journal does not apply to --batch (durability is the live tier's)",
        ),
        (
            journal.is_none() && (snapshot_every.is_some() || sync_every.is_some()),
            "--snapshot-every/--sync-every need --journal PATH",
        ),
        (
            batch && workers.is_some(),
            "--workers does not apply to --batch (the batch oracle is the flat in-process engine)",
        ),
        (
            workers == Some(0),
            "--workers must be at least 1 (each worker is one shard process)",
        ),
        (
            max_conns == Some(0),
            "--max-conns must be at least 1 (each connection slot is one worker thread)",
        ),
        (
            sync_every == Some(0),
            "--sync-every must be at least 1 (1 fsyncs every mutation)",
        ),
        (
            snapshot_every == Some(0),
            "--snapshot-every must be at least 1 (omit it for shutdown-only snapshots)",
        ),
    ];
    if let Some((_, message)) = conflicts.iter().find(|(conflict, _)| *conflict) {
        return Err((*message).to_owned());
    }
    if script.is_none() && listen.is_none() {
        return Err(format!(
            "serve needs --script <events.jsonl|-> or --listen ADDR\n{USAGE}"
        ));
    }
    let budget = budget_for(threads)?;
    let mut config = ServeConfig::default();
    if let Some(seed) = seed {
        config.seed = seed;
    }
    if let Some(journal) = journal {
        let mut durability = DurabilityConfig::new(journal);
        durability.snapshot_every = snapshot_every;
        if let Some(n) = sync_every {
            durability.sync_every = n;
        }
        config.durability = Some(durability);
    }
    let engine = Engine::new(budget);

    let front = match (listen, script) {
        (Some(addr), _) => Front::Listen(
            addr,
            NetConfig {
                max_conns: max_conns.unwrap_or(4),
                deadline: deadline_ms.map(std::time::Duration::from_millis),
                record: record.map(std::path::PathBuf::from),
            },
        ),
        (None, script) => {
            let text = read_input(&script.expect("checked above"))?;
            if batch {
                return serve_batch(&text, BatchBook::new(config, engine));
            }
            Front::Script(text)
        }
    };

    // Build the sink — in process or a worker fleet, memory-only or
    // journaled — then drive it through the front. A journaled sink
    // recovers first, so the front continues the recovered id history.
    let durable = config.durability.is_some();
    match workers {
        None if durable => {
            let opened =
                Durable::<LiveBook>::open(config, engine, ()).map_err(|e| e.to_string())?;
            serve_sink(resumed(opened), front)
        }
        None => {
            let book = LiveBook::new(config, 1, engine).map_err(|e| e.to_string())?;
            serve_sink(book, front)
        }
        Some(workers) => {
            let spec = shard_worker_spec()?;
            if durable {
                let opened = Durable::<ClusterBook>::open(config, engine, (workers, spec))
                    .map_err(|e| e.to_string())?;
                serve_sink(resumed(opened), front)
            } else {
                let cluster =
                    ClusterBook::spawn(config, budget, workers, spec).map_err(|e| e.to_string())?;
                serve_sink(cluster, front)
            }
        }
    }
}

/// Where `serve` takes its events from.
enum Front {
    /// A script's text (`--script`), validated against the sink's ids.
    Script(String),
    /// The TCP front (`--listen ADDR`).
    Listen(String, NetConfig),
}

/// `serve --script --batch`: the from-scratch oracle, one answer line per
/// query.
fn serve_batch(text: &str, mut book: BatchBook) -> Outcome {
    for event in parse_script(text).map_err(|e| e.to_string())? {
        // Unreachable for a validated script; kept as a guard.
        if let Some(line) = book.apply(event).map_err(|e| e.to_string())? {
            println!("{line}");
        }
    }
    Ok(())
}

/// Drives a built sink through `front` on the serving loop. Both fronts
/// validate ids against the sink's own [`Sequencer`]. A script that fails
/// validation drops the sink unserved (a fleet's workers are killed and
/// reaped with it).
fn serve_sink<S: EventSink>(sink: S, front: Front) -> Outcome
where
    S::Error: std::fmt::Debug + std::fmt::Display,
{
    let ids = sink.sequencer();
    match front {
        Front::Script(text) => {
            let events = parse_script_from(&text, ids).map_err(|e| e.to_string())?;
            drive(LiveServer::spawn_sink(sink), events)
        }
        Front::Listen(addr, config) => {
            listen_serve(&addr, config, LiveServer::spawn_sink(sink), ids)
        }
    }
}

/// The spec `serve --workers` spawns shard workers from: this same
/// `flexctl` executable re-invoked with the internal `shard-worker`
/// subcommand, so a deployed cluster is still a single binary.
fn shard_worker_spec() -> Result<WorkerSpec, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the flexctl executable to spawn shard workers: {e}"))?;
    Ok(WorkerSpec::new(exe).arg("shard-worker"))
}

/// Announces a resumed journal on stderr (silent for a fresh one) and
/// hands back the opened sink.
fn resumed<S>((sink, report): (S, RecoveryReport)) -> S {
    if report.journal_events > 0 {
        eprintln!(
            "resumed journal at seq {} ({} replayed on top of {})",
            report.journal_events,
            report.replayed,
            match report.snapshot_seq {
                Some(seq) => format!("snapshot seq {seq}"),
                None => "the empty book".to_owned(),
            }
        );
    }
    sink
}

/// Feeds a parsed script through a spawned serving loop, printing one line
/// per query, and reports how the loop shut down.
fn drive<E: std::fmt::Display>(mut handle: LiveHandle<E>, events: Vec<Event>) -> Outcome {
    for event in events {
        match handle.send(event) {
            Ok(Some(line)) => println!("{line}"),
            Ok(None) => {}
            Err(_) => break, // the loop died; shutdown() reports why
        }
    }
    handle.shutdown().map_err(|e| e.to_string())
}

/// The `serve --listen` path: bind the TCP front over a spawned serving
/// loop, install the SIGINT/SIGTERM latch, and serve until a signal fires.
/// Answer lines stream to stdout in serialization order (the bytes a
/// `--record` replay through `--script` reproduces); the bound address,
/// lifecycle notes and the final summary go to stderr.
fn listen_serve<E: std::fmt::Debug + std::fmt::Display + Send + 'static>(
    addr: &str,
    config: NetConfig,
    handle: LiveHandle<E>,
    ids: Sequencer,
) -> Outcome {
    let server = NetServer::bind(addr, config, handle, ids)
        .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    // Flushed line-by-line so a harness can scrape the bound port even
    // when --listen 127.0.0.1:0 picked it.
    eprintln!("listening on {}", server.local_addr());
    if !signal::install() {
        eprintln!(
            "warning: no SIGINT/SIGTERM handler on this platform; graceful drain unavailable"
        );
    }
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                if signal::fired() {
                    stop.store(true, std::sync::atomic::Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        })
    };
    let result = server.run(&stop, std::io::stdout());
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = watcher.join();
    let summary = result.map_err(|e| e.to_string())?;
    eprintln!("{summary}");
    Ok(())
}

/// What one `bomb` connection observed: per-request wall latencies, kept
/// apart for mutations and queries, plus how many replies came back as
/// protocol errors.
#[derive(Default)]
struct BombReport {
    mutation_ms: Vec<f64>,
    query_ms: Vec<f64>,
    errors: u64,
}

/// The `bomb` load generator: N concurrent connections, each sending a
/// deterministic seeded mix of adds, updates/removes of its own offers,
/// and queries, timing every request round trip. Fails after printing the
/// summary when a connection failed or any reply was an error.
fn bomb(rest: &[String]) -> Outcome {
    let mut addr: Option<String> = None;
    let mut conns: usize = 4;
    let mut events_per_conn: u64 = 256;
    let mut seed: u64 = 7;

    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(string_flag(&mut args, "--addr needs HOST:PORT")?),
            flag @ ("--conns" | "--events" | "--seed") => {
                let n = count_flag(flag, &mut args)?;
                match flag {
                    "--conns" => conns = n as usize,
                    "--events" => events_per_conn = n,
                    _ => seed = n,
                }
            }
            other => return Err(format!("unknown bomb argument {other}\n{USAGE}")),
        }
    }
    let addr = addr.ok_or_else(|| format!("bomb needs --addr HOST:PORT\n{USAGE}"))?;
    if conns == 0 || events_per_conn == 0 {
        return Err("--conns and --events must be at least 1".to_owned());
    }

    let started = std::time::Instant::now();
    let reports: Vec<Result<BombReport, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || {
                    bomb_connection(&addr, seed.wrapping_add(c as u64), events_per_conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".to_owned()))
            })
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut total = BombReport::default();
    let mut failures = Vec::new();
    for (c, report) in reports.into_iter().enumerate() {
        match report {
            Ok(report) => {
                total.mutation_ms.extend(report.mutation_ms);
                total.query_ms.extend(report.query_ms);
                total.errors += report.errors;
            }
            Err(e) => failures.push(format!("connection {c}: {e}")),
        }
    }
    let errors = total.errors;
    let requests = total.mutation_ms.len() + total.query_ms.len();
    let rate = if elapsed > 0.0 {
        requests as f64 / elapsed
    } else {
        0.0
    };
    with_stdout(|out| {
        writeln!(
            out,
            "bomb: {conns} conns x {events_per_conn} events -> {requests} requests in {elapsed:.3}s ({rate:.0} req/s), {errors} error replies"
        )?;
        for (class, latencies) in [("mutation", &total.mutation_ms), ("query", &total.query_ms)] {
            if latencies.is_empty() {
                continue;
            }
            write!(out, "  {class} ({} requests):", latencies.len())?;
            for (label, p) in [("p50", 50.0), ("p99", 99.0), ("p999", 99.9)] {
                if let Some(ms) = percentile(latencies, p) {
                    write!(out, " {label} {ms:.3} ms")?;
                }
            }
            writeln!(out)?;
        }
        Ok(())
    })?;
    if errors > 0 {
        failures.push(format!("{errors} error replies"));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// One bomb connection: adds dominate; every 8th request updates and
/// every 12th removes an offer this connection itself added (so ids are
/// always valid regardless of interleaving); every 16th queries, cycling
/// the four kinds in wire order.
fn bomb_connection(addr: &str, seed: u64, events: u64) -> Result<BombReport, String> {
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let offers: Vec<FlexOffer> = city_stream(seed, 8).collect();
    let mut owned: Vec<u64> = Vec::new();
    let mut report = BombReport::default();
    let mut queries = 0usize;
    for i in 0..events {
        let event = if i % 16 == 9 {
            let kind = QueryKind::all()[queries % 4];
            queries += 1;
            Event::Query(kind)
        } else if i % 8 == 5 && !owned.is_empty() {
            let id = owned[i as usize % owned.len()];
            let offer = offers[(i as usize + 3) % offers.len()].clone();
            Event::Update { id, offer }
        } else if i % 12 == 7 && !owned.is_empty() {
            let id = owned.remove(i as usize % owned.len());
            Event::Remove { id }
        } else {
            Event::Add(offers[i as usize % offers.len()].clone())
        };
        let was_add = matches!(event, Event::Add(_));
        let class = match event {
            Event::Query(_) => &mut report.query_ms,
            _ => &mut report.mutation_ms,
        };
        let sent = std::time::Instant::now();
        let reply = client
            .send_event(&event)
            .map_err(|e| format!("request {i}: {e}"))?;
        class.push(sent.elapsed().as_secs_f64() * 1e3);
        match reply {
            Reply::Ok { .. } if was_add => match reply.assigned_id() {
                Some(id) => owned.push(id),
                None => report.errors += 1,
            },
            Reply::Ok { .. } => {}
            Reply::Err { .. } => report.errors += 1,
        }
    }
    Ok(report)
}

/// The `recover` path: rebuild a killed `serve --journal` run from its
/// snapshot + journal suffix, print a recovery summary to stderr, and
/// answer the four query kinds in wire order on stdout — byte-identical
/// to what the uninterrupted run would have answered.
fn recover(rest: &[String]) -> Outcome {
    let mut journal: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;

    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--journal" => journal = Some(string_flag(&mut args, "--journal needs a path")?),
            flag @ ("--threads" | "--seed") => {
                let n = count_flag(flag, &mut args)?;
                match flag {
                    "--threads" => threads = Some(n as usize),
                    _ => seed = Some(n),
                }
            }
            other => return Err(format!("unknown recover argument {other}\n{USAGE}")),
        }
    }
    let journal = journal.ok_or_else(|| format!("recover needs --journal PATH\n{USAGE}"))?;
    let engine = Engine::new(budget_for(threads)?);
    let mut config = ServeConfig::default();
    if let Some(seed) = seed {
        config.seed = seed;
    }
    config.durability = Some(DurabilityConfig::new(journal));

    let (mut book, report) = recover_book(&config, 1, engine).map_err(|e| e.to_string())?;
    eprintln!(
        "recovered {} events ({} bytes{}) from {}; replayed {}",
        report.journal_events,
        report.committed_bytes,
        if report.dropped_torn_tail {
            ", torn tail dropped"
        } else {
            ""
        },
        match report.snapshot_seq {
            Some(seq) => format!("snapshot seq {seq}"),
            None => "the empty book".to_owned(),
        },
        report.replayed,
    );
    with_stdout(|out| {
        QueryKind::all()
            .into_iter()
            .try_for_each(|kind| writeln!(out, "{}", book.answer(kind)))
    })
}

/// The `events` path: generate a deterministic JSONL event script from
/// the city workload ([`event_stream`]) with `--queries` query events
/// (cycling measure/aggregate/schedule/trade) spread evenly through the
/// stream — the input `flexctl serve` replays and CI diffs live-vs-batch.
fn events(rest: &[String]) -> Outcome {
    let mut city: Option<usize> = None;
    let mut seed: u64 = 7;
    let mut churn_pct: f64 = 0.0;
    let mut queries: usize = 4;

    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--churn" => {
                let value = string_flag(&mut args, "--churn needs a value (percent of offers)")?;
                let pct = value
                    .parse::<f64>()
                    .map_err(|_| format!("--churn takes a number, got {value}"))?;
                if !pct.is_finite() || !(0.0..=100.0).contains(&pct) {
                    return Err(format!(
                        "--churn is a percentage between 0 and 100, got {value}"
                    ));
                }
                churn_pct = pct;
            }
            flag @ ("--city" | "--seed" | "--queries") => {
                let n = count_flag(flag, &mut args)?;
                match flag {
                    "--city" => city = Some(n as usize),
                    "--seed" => seed = n,
                    _ => queries = n as usize,
                }
            }
            other => return Err(format!("unknown events argument {other}\n{USAGE}")),
        }
    }
    let households = city.ok_or_else(|| format!("events needs --city H\n{USAGE}"))?;
    let churn = churn_pct / 100.0;
    let total = event_stream_len(households, churn);
    // Queries go out every `stride` mutations (and any remainder at the
    // end), cycling the four kinds in wire order.
    let stride = if queries == 0 {
        usize::MAX
    } else {
        total.div_ceil(queries).max(1)
    };
    with_stdout(|out| {
        let mut emitted_queries = 0usize;
        for (i, event) in event_stream(seed, households, churn).enumerate() {
            writeln!(out, "{}", Event::from(event).to_json_line())?;
            if (i + 1) % stride == 0 && emitted_queries < queries {
                let kind = QueryKind::all()[emitted_queries % 4];
                writeln!(out, "{}", Event::Query(kind).to_json_line())?;
                emitted_queries += 1;
            }
        }
        while emitted_queries < queries {
            let kind = QueryKind::all()[emitted_queries % 4];
            writeln!(out, "{}", Event::Query(kind).to_json_line())?;
            emitted_queries += 1;
        }
        Ok(())
    })
}

fn measure(fo: &FlexOffer, names: &[String]) -> Outcome {
    let measures = resolve_measures(names)?;
    with_stdout(|out| {
        writeln!(out, "flex-offer: {fo}")?;
        for m in measures {
            match m.of(fo) {
                Ok(v) => writeln!(out, "{:<14} {v:.6}", m.short_name())?,
                Err(e) => writeln!(out, "{:<14} n/a ({e})", m.short_name())?,
            }
        }
        Ok(())
    })
}

fn count(fo: &FlexOffer) -> Outcome {
    with_stdout(|out| {
        match fo.unconstrained_assignment_count() {
            Some(n) => writeln!(out, "unconstrained assignments (Def. 8): {n}")?,
            None => writeln!(
                out,
                "unconstrained assignments (Def. 8): 2^{:.1} (overflows u128)",
                fo.log2_assignment_count()
            )?,
        }
        match fo.constrained_assignment_count() {
            Some(n) => writeln!(out, "valid assignments |L(f)|:           {n}"),
            None => writeln!(
                out,
                "valid assignments |L(f)|:           ~{:.3e}",
                fo.constrained_assignment_count_f64()
            ),
        }
    })
}

/// Runs `write` against a buffered stdout and flushes it. A reader that
/// closes early (`flexctl names | head -1`, `flexctl events ... | head`)
/// is a normal way to stop consuming output, so `BrokenPipe` ends the
/// command cleanly instead of panicking the way `println!` does; any
/// other write error fails the command.
fn with_stdout(write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) -> Outcome {
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    match write(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("writing stdout: {e}")),
        _ => Ok(()),
    }
}
