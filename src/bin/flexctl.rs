//! `flexctl` — command-line access to the flexibility measures.
//!
//! ```text
//! flexctl measure <file.json|-> [measure-name ...]   measure a flex-offer
//! flexctl measure --portfolio <file.json|->          measure a whole portfolio
//!         [--threads N] [--json]                     (engine-parallel)
//!         [--kernel scalar|columnar|auto]
//!         [measure-name ...]
//! flexctl measure --portfolio --city H [--seed S]    same, over a generated
//!         [--threads N] [--json]                     city
//!         [--kernel scalar|columnar|auto]
//! flexctl simulate --scenario <schedule|market>      run a scenario pipeline
//!         [--city H] [--seed S] [--threads N]        on a generated city
//!         [--scheduler greedy|hillclimb]             (--households is an
//!         [--kernel scalar|columnar|auto] [--json]    alias of --city)
//! flexctl serve --script <events.jsonl|->            replay an event stream
//!         [--shards K | --workers W] [--threads N]   through the live book;
//!         [--seed S] [--kernel scalar|columnar|auto] one JSON line per query
//!         [--batch]                                  (--workers W shards the
//!         [--journal PATH [--snapshot-every N]       book across W worker
//!          [--sync-every N]]                         OS processes)
//! flexctl serve --listen ADDR [--max-conns N]        serve the framed JSONL
//!         [--deadline-ms D] [--record PATH]          protocol over TCP
//!         [--shards K | --workers W] [--threads N]   (docs/PROTOCOL.md);
//!         [--seed S] [--kernel scalar|columnar|auto] SIGTERM/ctrl-c drains
//!         [--journal PATH [--snapshot-every N]       and snapshots cleanly
//!          [--sync-every N]]
//! flexctl bomb --addr HOST:PORT [--conns N]          load-generate against a
//!         [--events M] [--seed S]                    --listen server
//! flexctl recover --journal PATH [--shards K]        recover a killed serve
//!         [--threads N] [--seed S]                   and answer the four
//!         [--kernel scalar|columnar|auto]            query kinds
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
//! `--shards K` applies to `serve` and `recover` only: it splits the live
//! book into K shards, and `--threads N` is then one *shared* budget, not
//! per-shard — the shards re-evaluated by one query split `N` threads
//! between them, floored at 1 each (answers never change — the budget
//! split is throughput-only). `--kernel` picks the measure/baseline kernel
//! implementation: `scalar` is the per-offer prepared loop, `columnar` the
//! struct-of-arrays batch kernels, and the default `auto` picks columnar
//! whenever every requested measure has a columnar form. All three produce
//! bitwise-identical output.
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
//! byte-identical to plain `serve` at any workers × threads × kernel. A
//! worker that dies is respawned and replayed invisibly (watch for
//! `cluster worker W respawned` on stderr). `--workers` *is* the shard
//! count, so it excludes `--shards`; it composes with `--script`,
//! `--listen`, `--journal`, `--record` and `--deadline-ms` alike. The
//! workers are spawned from the current `flexctl` executable (an internal
//! `shard-worker` subcommand speaks the supervisor protocol on stdio).
//!
//! `serve --listen ADDR` swaps the script for a TCP socket: the same
//! events arrive framed as `{"id":…,"event":{…}}` request lines over any
//! number of connections (the wire spec is `docs/PROTOCOL.md`), answered
//! queries print to stdout exactly as `--script` would, and `--record
//! PATH` writes the serialized history as a canonical script — replaying
//! that record through `serve --script --batch` reproduces the answers
//! byte-for-byte, which CI asserts. `--max-conns` (at least 1) sizes the
//! worker pool, `--deadline-ms` bounds each query's answer wait (expiries
//! return a structured `deadline` error), and SIGTERM/ctrl-c drains
//! in-flight requests before the durable sink's final sync + snapshot.
//! `flexctl bomb` is the matching load generator: `--conns` concurrent
//! connections each sending `--events` add/update/remove/query requests,
//! reporting throughput and latency percentiles.

use std::io::{Read, Write};
use std::process::ExitCode;

use flexoffers::area::{render_flexoffer, render_union};
use flexoffers::cluster::{ClusterBook, WorkerSpec};
use flexoffers::engine::{Budget, Engine, Kernel};
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

const USAGE: &str = "usage:
  flexctl measure <file.json|-> [measure-name ...]
  flexctl measure --portfolio <file.json|-> [--threads N]
                  [--kernel scalar|columnar|auto] [--json] [measure-name ...]
  flexctl measure --portfolio --city H [--seed S] [--threads N]
                  [--kernel scalar|columnar|auto] [--json]
  flexctl simulate --scenario <schedule|market> [--city H] [--seed S]
                   [--threads N] [--scheduler greedy|hillclimb]
                   [--kernel scalar|columnar|auto] [--json]
  flexctl serve --script <events.jsonl|-> [--shards K | --workers W]
                [--threads N] [--seed S] [--kernel scalar|columnar|auto]
                [--batch] [--journal PATH [--snapshot-every N] [--sync-every N]]
  flexctl serve --listen ADDR [--max-conns N] [--deadline-ms D] [--record PATH]
                [--shards K | --workers W] [--threads N] [--seed S]
                [--kernel scalar|columnar|auto]
                [--journal PATH [--snapshot-every N] [--sync-every N]]
  flexctl bomb --addr HOST:PORT [--conns N] [--events M] [--seed S]
  flexctl recover --journal PATH [--shards K] [--threads N] [--seed S]
                  [--kernel scalar|columnar|auto]
  flexctl events --city H [--seed S] [--churn PCT] [--queries N]
  flexctl render  <file.json|->
  flexctl count   <file.json|->
  flexctl names
  flexctl template [--portfolio]
  flexctl help

measure --portfolio and simulate run one flat batch path, parallel by
--threads. --shards applies only to serve and recover (the live book);
there --threads is one shared budget that the shards re-evaluated by a
query split between them, floored at 1 each. --kernel selects the measure/baseline kernel (default
auto = columnar whenever every requested measure has a columnar form);
scalar, columnar and auto produce bitwise-identical output.

serve flag combinations: --script and --listen are exclusive modes — give
exactly one. --batch applies only to --script (the from-scratch oracle);
it excludes --journal (nothing durable to resume), --shards (the oracle
is deliberately the flat engine) and --workers. --record, --max-conns and
--deadline-ms apply only to --listen. --journal composes with --script
and --listen alike; --max-conns N (N >= 1, default 4) sizes the --listen
connection worker pool; --snapshot-every/--sync-every need --journal, and
both take N >= 1 (--sync-every N fsyncs every Nth mutation, 1 = every
mutation; --snapshot-every N snapshots every Nth mutation — omit it for
shutdown-only snapshots). --workers W (W >= 1) runs the book as W shard
worker OS processes; it excludes --shards (the worker count is the shard
count) and composes with every other serve flag. --shards, --threads,
--seed and --kernel apply to every serve mode (except --shards under
--batch and --workers, as above).";

fn run(cmd: &str, rest: &[String]) -> ExitCode {
    match cmd {
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
        "shard-worker" => match flexoffers::cluster::run_stdio_worker() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: shard worker io: {e}");
                ExitCode::FAILURE
            }
        },
        "simulate" => simulate(rest),
        "serve" => serve(rest),
        "recover" => recover(rest),
        "events" => events(rest),
        "bomb" => bomb(rest),
        "measure" if rest.iter().any(|a| a == "--portfolio") => measure_portfolio(rest),
        "measure" | "render" | "count" => {
            let Some(path) = rest.first() else {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            };
            let fo = match load(path) {
                Ok(fo) => fo,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match cmd {
                "measure" => measure(&fo, &rest[1..]),
                "render" => {
                    with_stdout(|out| write!(out, "{}{}", render_flexoffer(&fo), render_union(&fo)))
                }
                _ => count(&fo),
            }
        }
        _ => {
            eprintln!("unknown command {cmd}\n{USAGE}");
            ExitCode::FAILURE
        }
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
/// one implementation behind every `--threads/--shards/--city/--seed/...`
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

/// Parses the value of a `--kernel` flag — the one spelling across
/// `measure`/`simulate`/`serve`.
fn kernel_flag(args: &mut std::slice::Iter<'_, String>) -> Result<Kernel, String> {
    let Some(value) = args.next() else {
        return Err("--kernel needs a value (scalar, columnar or auto)".to_owned());
    };
    Kernel::parse(value)
        .ok_or_else(|| format!("unknown kernel {value}; expected scalar, columnar or auto"))
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
fn measure_portfolio(rest: &[String]) -> ExitCode {
    let mut positionals: Vec<String> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut city: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut kernel = Kernel::Auto;
    let mut json = false;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--portfolio" => {}
            "--json" => json = true,
            "--kernel" => {
                kernel = match kernel_flag(&mut args) {
                    Ok(k) => k,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            flag @ ("--threads" | "--city" | "--seed") => {
                let n = match count_flag(flag, &mut args) {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match flag {
                    "--threads" => threads = Some(n as usize),
                    "--city" => city = Some(n as usize),
                    _ => seed = Some(n),
                }
            }
            other if other.starts_with("--") => {
                eprintln!("error: unknown measure argument {other}\n{USAGE}");
                return ExitCode::FAILURE;
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
        eprintln!("error: --seed only applies to a generated portfolio; pair it with --city");
        return ExitCode::FAILURE;
    }
    let seed = seed.unwrap_or(7);

    let budget = match budget_for(threads) {
        Ok(b) => b.with_kernel(kernel),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let measures = match resolve_measures(&names) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let engine = Engine::new(budget);

    let loaded = match (city, path) {
        (Some(households), _) => Ok(city_stream(seed, households).collect()),
        (None, Some(path)) => load_portfolio(&path),
        (None, None) => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let portfolio: Portfolio = match loaded {
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        Ok(portfolio) if portfolio.is_empty() => {
            eprintln!("error: empty portfolio — nothing to measure");
            return ExitCode::FAILURE;
        }
        Ok(portfolio) => portfolio,
    };
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
fn simulate(rest: &[String]) -> ExitCode {
    // ~3.4 offers per household puts the default portfolio above the
    // 10k-offer scale the engine pipelines are sized for.
    let mut households: Option<usize> = None;
    let mut city: Option<usize> = None;
    let mut seed: u64 = 7;
    let mut kind: Option<ScenarioKind> = None;
    let mut scheduler = SchedulerChoice::Greedy;
    let mut threads: Option<usize> = None;
    let mut kernel = Kernel::Auto;
    let mut json = false;

    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--kernel" => {
                kernel = match kernel_flag(&mut args) {
                    Ok(k) => k,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--scenario" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --scenario needs a value (schedule or market)");
                    return ExitCode::FAILURE;
                };
                match ScenarioKind::parse(value) {
                    Some(k) => kind = Some(k),
                    None => {
                        eprintln!("error: unknown scenario {value}; expected schedule or market");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--scheduler" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --scheduler needs a value (greedy or hillclimb)");
                    return ExitCode::FAILURE;
                };
                match SchedulerChoice::parse(value) {
                    Some(s) => scheduler = s,
                    None => {
                        eprintln!("error: unknown scheduler {value}; expected greedy or hillclimb");
                        return ExitCode::FAILURE;
                    }
                }
            }
            flag @ ("--city" | "--households" | "--seed" | "--threads") => {
                let n = match count_flag(flag, &mut args) {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match flag {
                    "--city" => city = Some(n as usize),
                    "--households" => households = Some(n as usize),
                    "--seed" => seed = n,
                    _ => threads = Some(n as usize),
                }
            }
            other => {
                eprintln!("error: unknown simulate argument {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(kind) = kind else {
        eprintln!("error: simulate needs --scenario schedule|market\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let households = match (city, households) {
        (Some(_), Some(_)) => {
            eprintln!("error: --city and --households name the same knob; give one");
            return ExitCode::FAILURE;
        }
        (Some(h), None) | (None, Some(h)) => h,
        (None, None) => 3_000,
    };
    let budget = match budget_for(threads) {
        Ok(b) => b.with_kernel(kernel),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut scenario = Scenario::city_portfolio(kind, households).with_seed(seed);
    scenario.scheduler = scheduler;
    match Engine::new(budget).simulate(&scenario) {
        Ok(report) => {
            let text = if json {
                serde_json::to_string_pretty(&report.json()).expect("report serializes") + "\n"
            } else {
                report.render()
            };
            with_stdout(|out| out.write_all(text.as_bytes()))
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `serve` path: parse and statically validate a JSONL event script,
/// then replay it — through the live mpsc serving loop (default), or
/// through the from-scratch batch oracle (`--batch`). Every query prints
/// one JSON line; the two modes are byte-identical.
fn serve(rest: &[String]) -> ExitCode {
    let mut script: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut record: Option<String> = None;
    let mut max_conns: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut shards: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut kernel = Kernel::Auto;
    let mut batch = false;
    let mut journal: Option<String> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut sync_every: Option<u64> = None;

    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--batch" => batch = true,
            "--kernel" => {
                kernel = match kernel_flag(&mut args) {
                    Ok(k) => k,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--script" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --script needs a path (or - for stdin)");
                    return ExitCode::FAILURE;
                };
                script = Some(value.clone());
            }
            "--listen" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --listen needs an address (e.g. 127.0.0.1:7070)");
                    return ExitCode::FAILURE;
                };
                listen = Some(value.clone());
            }
            "--record" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --record needs a path");
                    return ExitCode::FAILURE;
                };
                record = Some(value.clone());
            }
            "--journal" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --journal needs a path");
                    return ExitCode::FAILURE;
                };
                journal = Some(value.clone());
            }
            flag @ ("--shards" | "--workers" | "--threads" | "--seed" | "--snapshot-every"
            | "--sync-every" | "--max-conns" | "--deadline-ms") => {
                let n = match count_flag(flag, &mut args) {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match flag {
                    "--shards" => shards = Some(n as usize),
                    "--workers" => workers = Some(n as usize),
                    "--threads" => threads = Some(n as usize),
                    "--snapshot-every" => snapshot_every = Some(n),
                    "--sync-every" => sync_every = Some(n),
                    "--max-conns" => max_conns = Some(n as usize),
                    "--deadline-ms" => deadline_ms = Some(n),
                    _ => seed = Some(n),
                }
            }
            other => {
                eprintln!("error: unknown serve argument {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if script.is_some() && listen.is_some() {
        eprintln!("error: --script and --listen are exclusive serve modes; give exactly one");
        return ExitCode::FAILURE;
    }
    if batch && listen.is_some() {
        // The batch oracle replays a finished script; a live socket has no
        // script until it is recorded (serve --listen --record, then
        // replay that through --script --batch).
        eprintln!("error: --batch does not apply to --listen (record a session with --record and replay it through --script --batch)");
        return ExitCode::FAILURE;
    }
    if listen.is_none() && (record.is_some() || max_conns.is_some() || deadline_ms.is_some()) {
        eprintln!("error: --record/--max-conns/--deadline-ms need --listen ADDR");
        return ExitCode::FAILURE;
    }
    if batch && journal.is_some() {
        // The batch oracle rebuilds from scratch per query; journaling it
        // would record a history no recovery could resume.
        eprintln!("error: --journal does not apply to --batch (durability is the live tier's)");
        return ExitCode::FAILURE;
    }
    if journal.is_none() && (snapshot_every.is_some() || sync_every.is_some()) {
        eprintln!("error: --snapshot-every/--sync-every need --journal PATH");
        return ExitCode::FAILURE;
    }
    if batch && shards.is_some() {
        // The batch oracle is deliberately the *flat* engine; silently
        // accepting --shards would mislabel what was measured.
        eprintln!(
            "error: --shards does not apply to --batch (the batch oracle is the flat engine)"
        );
        return ExitCode::FAILURE;
    }
    if batch && workers.is_some() {
        eprintln!(
            "error: --workers does not apply to --batch (the batch oracle is the flat in-process engine)"
        );
        return ExitCode::FAILURE;
    }
    if workers.is_some() && shards.is_some() {
        eprintln!(
            "error: --workers and --shards are exclusive (the worker count is the cluster's shard count)"
        );
        return ExitCode::FAILURE;
    }
    if workers == Some(0) {
        eprintln!("error: --workers must be at least 1 (each worker is one shard process)");
        return ExitCode::FAILURE;
    }
    if max_conns == Some(0) {
        eprintln!(
            "error: --max-conns must be at least 1 (each connection slot is one worker thread)"
        );
        return ExitCode::FAILURE;
    }
    if sync_every == Some(0) {
        eprintln!("error: --sync-every must be at least 1 (1 fsyncs every mutation)");
        return ExitCode::FAILURE;
    }
    if snapshot_every == Some(0) {
        eprintln!(
            "error: --snapshot-every must be at least 1 (omit it for shutdown-only snapshots)"
        );
        return ExitCode::FAILURE;
    }
    let shards = shards.unwrap_or(1);
    if script.is_none() && listen.is_none() {
        eprintln!("error: serve needs --script <events.jsonl|-> or --listen ADDR\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let budget = match budget_for(threads) {
        Ok(b) => b.with_kernel(kernel),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
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
            let text = match read_input(&script.expect("checked above")) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
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
    let served = match workers {
        None if durable => Durable::<LiveBook>::open(config, shards, engine, ())
            .map(|opened| serve_sink(resumed(opened), front))
            .map_err(|e| e.to_string()),
        None => LiveBook::new(config, shards, engine)
            .map(|book| serve_sink(book, front))
            .map_err(|e| e.to_string()),
        Some(workers) => shard_worker_spec().and_then(|spec| {
            if durable {
                Durable::<ClusterBook>::open(config, workers, engine, spec)
                    .map(|opened| serve_sink(resumed(opened), front))
                    .map_err(|e| e.to_string())
            } else {
                ClusterBook::spawn(config, budget, workers, spec)
                    .map(|cluster| serve_sink(cluster, front))
                    .map_err(|e| e.to_string())
            }
        }),
    };
    served.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
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
fn serve_batch(text: &str, mut book: BatchBook) -> ExitCode {
    let events = match parse_script(text) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for event in events {
        match book.apply(event) {
            Ok(Some(line)) => println!("{line}"),
            Ok(None) => {}
            Err(e) => {
                // Unreachable for a validated script; kept as a guard.
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Drives a built sink through `front` on the serving loop. Both fronts
/// validate ids against the sink's own [`Sequencer`]. A script that fails
/// validation drops the sink unserved (a fleet's workers are killed and
/// reaped with it).
fn serve_sink<S: EventSink>(sink: S, front: Front) -> ExitCode
where
    S::Error: std::fmt::Debug + std::fmt::Display,
{
    let ids = sink.sequencer();
    match front {
        Front::Script(text) => match parse_script_from(&text, ids) {
            Ok(events) => drive(LiveServer::spawn_sink(sink), events),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
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
fn drive<E: std::fmt::Display>(mut handle: LiveHandle<E>, events: Vec<Event>) -> ExitCode {
    for event in events {
        match handle.send(event) {
            Ok(Some(line)) => println!("{line}"),
            Ok(None) => {}
            Err(_) => break, // the loop died; shutdown() reports why
        }
    }
    match handle.shutdown() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
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
) -> ExitCode {
    let server = match NetServer::bind(addr, config, handle, ids) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot serve on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
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
    match result {
        Ok(summary) => {
            eprintln!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one `bomb` connection observed: per-request wall latencies plus
/// how many replies came back as protocol errors.
struct BombReport {
    latencies_ms: Vec<f64>,
    errors: u64,
}

/// The `bomb` load generator: N concurrent connections, each sending a
/// deterministic seeded mix of adds, updates/removes of its own offers,
/// and queries, timing every request round trip.
fn bomb(rest: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut conns: usize = 4;
    let mut events_per_conn: u64 = 256;
    let mut seed: u64 = 7;

    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --addr needs HOST:PORT");
                    return ExitCode::FAILURE;
                };
                addr = Some(value.clone());
            }
            flag @ ("--conns" | "--events" | "--seed") => {
                let n = match count_flag(flag, &mut args) {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match flag {
                    "--conns" => conns = n as usize,
                    "--events" => events_per_conn = n,
                    _ => seed = n,
                }
            }
            other => {
                eprintln!("error: unknown bomb argument {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: bomb needs --addr HOST:PORT\n{USAGE}");
        return ExitCode::FAILURE;
    };
    if conns == 0 || events_per_conn == 0 {
        eprintln!("error: --conns and --events must be at least 1");
        return ExitCode::FAILURE;
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

    let mut latencies = Vec::new();
    let mut errors = 0u64;
    let mut failed = false;
    for (c, report) in reports.into_iter().enumerate() {
        match report {
            Ok(report) => {
                latencies.extend(report.latencies_ms);
                errors += report.errors;
            }
            Err(e) => {
                eprintln!("error: connection {c}: {e}");
                failed = true;
            }
        }
    }
    let requests = latencies.len();
    let rate = if elapsed > 0.0 {
        requests as f64 / elapsed
    } else {
        0.0
    };
    let printed = with_stdout(|out| {
        writeln!(
            out,
            "bomb: {conns} conns x {events_per_conn} events -> {requests} requests in {elapsed:.3}s ({rate:.0} req/s), {errors} error replies"
        )?;
        for (label, p) in [("p50", 50.0), ("p99", 99.0), ("p999", 99.9)] {
            if let Some(ms) = percentile(&latencies, p) {
                writeln!(out, "  {label} {ms:.3} ms")?;
            }
        }
        Ok(())
    });
    if failed || errors > 0 {
        return ExitCode::FAILURE;
    }
    printed
}

/// One bomb connection: adds dominate; every 8th request updates and
/// every 12th removes an offer this connection itself added (so ids are
/// always valid regardless of interleaving); every 16th queries, cycling
/// the four kinds in wire order.
fn bomb_connection(addr: &str, seed: u64, events: u64) -> Result<BombReport, String> {
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let offers: Vec<FlexOffer> = city_stream(seed, 8).collect();
    let mut owned: Vec<u64> = Vec::new();
    let mut latencies_ms = Vec::with_capacity(events as usize);
    let mut errors = 0u64;
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
        let sent = std::time::Instant::now();
        let reply = client
            .send_event(&event)
            .map_err(|e| format!("request {i}: {e}"))?;
        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        match reply {
            Reply::Ok { .. } if was_add => match reply.assigned_id() {
                Some(id) => owned.push(id),
                None => errors += 1,
            },
            Reply::Ok { .. } => {}
            Reply::Err { .. } => errors += 1,
        }
    }
    Ok(BombReport {
        latencies_ms,
        errors,
    })
}

/// The `recover` path: rebuild a killed `serve --journal` run from its
/// snapshot + journal suffix, print a recovery summary to stderr, and
/// answer the four query kinds in wire order on stdout — byte-identical
/// to what the uninterrupted run would have answered.
fn recover(rest: &[String]) -> ExitCode {
    let mut journal: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut kernel = Kernel::Auto;

    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--kernel" => {
                kernel = match kernel_flag(&mut args) {
                    Ok(k) => k,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--journal" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --journal needs a path");
                    return ExitCode::FAILURE;
                };
                journal = Some(value.clone());
            }
            flag @ ("--shards" | "--threads" | "--seed") => {
                let n = match count_flag(flag, &mut args) {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match flag {
                    "--shards" => shards = Some(n as usize),
                    "--threads" => threads = Some(n as usize),
                    _ => seed = Some(n),
                }
            }
            other => {
                eprintln!("error: unknown recover argument {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(journal) = journal else {
        eprintln!("error: recover needs --journal PATH\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let budget = match budget_for(threads) {
        Ok(b) => b.with_kernel(kernel),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut config = ServeConfig::default();
    if let Some(seed) = seed {
        config.seed = seed;
    }
    config.durability = Some(DurabilityConfig::new(journal));

    let (mut book, report) = match recover_book(&config, shards.unwrap_or(1), Engine::new(budget)) {
        Ok(recovered) => recovered,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
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
fn events(rest: &[String]) -> ExitCode {
    let mut city: Option<usize> = None;
    let mut seed: u64 = 7;
    let mut churn_pct: f64 = 0.0;
    let mut queries: usize = 4;

    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--churn" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --churn needs a value (percent of offers)");
                    return ExitCode::FAILURE;
                };
                let Ok(pct) = value.parse::<f64>() else {
                    eprintln!("error: --churn takes a number, got {value}");
                    return ExitCode::FAILURE;
                };
                if !pct.is_finite() || !(0.0..=100.0).contains(&pct) {
                    eprintln!("error: --churn is a percentage between 0 and 100, got {value}");
                    return ExitCode::FAILURE;
                }
                churn_pct = pct;
            }
            flag @ ("--city" | "--seed" | "--queries") => {
                let n = match count_flag(flag, &mut args) {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match flag {
                    "--city" => city = Some(n as usize),
                    "--seed" => seed = n,
                    _ => queries = n as usize,
                }
            }
            other => {
                eprintln!("error: unknown events argument {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(households) = city else {
        eprintln!("error: events needs --city H\n{USAGE}");
        return ExitCode::FAILURE;
    };
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

fn measure(fo: &FlexOffer, names: &[String]) -> ExitCode {
    let measures = match resolve_measures(names) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
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

fn count(fo: &FlexOffer) -> ExitCode {
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
/// other write error is reported and fails the command.
fn with_stdout(write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) -> ExitCode {
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    match write(&mut out).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::FAILURE
        }
    }
}
