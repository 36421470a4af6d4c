//! `loadbench` — the end-to-end benchmark of `flexctl serve --listen`.
//!
//! ```text
//! loadbench --flexctl PATH --scratch DIR --workload query-mix|durable-ingest|cluster-gather
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric with its unit and sample count, then, as the last
//! line, one JSON object `{"correct","attempted","failed","metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (and the
//! traced run's end-to-end metrics as `traced.*`) with `--trace 1`. An
//! answer that differs from the in-process book makes the exit code 1.
//! Time metrics are scaled to a reference host speed measured in the same
//! run (see `speed`).
//! `README.md` beside this package explains the workloads and metrics.

mod client;
mod e2e;
mod gen;
mod layers;
mod procfs;
mod server;
mod speed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use e2e::{Opts, Run, Workload};
use layers::Replay;
use server::ScratchDir;
use trace::Tracer;

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 14] = [
    "setup_s",
    "throughput_rps",
    "mutation_p50_ms",
    "mutation_p90_ms",
    "measure_p50_ms",
    "measure_p90_ms",
    "aggregate_p50_ms",
    "aggregate_p90_ms",
    "schedule_p50_ms",
    "schedule_p90_ms",
    "trade_p50_ms",
    "trade_p90_ms",
    "recover_s",
    "peak_rss_mb",
];

/// The per-layer metrics, as `BENCHMARK.json` lists them (followed there
/// by `traced.<name>` for every end-to-end metric).
const PER_LAYER: [&str; 41] = [
    "serving.refresh_ms",
    "serving.refresh_offers",
    "serving.refresh_useful_ratio",
    "serving.answer_measure_ms",
    "serving.answer_aggregate_ms",
    "serving.answer_schedule_ms",
    "serving.answer_trade_ms",
    "serving.answer_bytes",
    "serving.apply_us",
    "serving.send_us",
    "net.frame_parse_us",
    "net.mutation_rtt_us",
    "net.mutation_wait_ms",
    "storage.append_us",
    "storage.sync_ms",
    "storage.syncs_per_1k",
    "storage.journal_bytes_per_mutation",
    "storage.journal_read_ms",
    "storage.snapshot_load_ms",
    "storage.rebuild_ms",
    "storage.recover_ms",
    "storage.recover_replayed",
    "storage.snapshot_save_ms",
    "storage.snapshot_bytes",
    "storage.encode_ms",
    "storage.decode_ms",
    "cluster.scatter_us",
    "cluster.answer_dirty_ms",
    "cluster.answer_clean_ms",
    "cluster.gather_overhead_ms",
    "cluster.shard_encode_ms",
    "cluster.import_shard_ms",
    "cluster.dirty_bytes_per_query",
    "cluster.gather_hit_rate",
    "cluster.respawns",
    "proc.server_cpu_ms_per_request",
    "client.lateness_ms",
    "client.self_ms",
    "trace.spans",
    "trace.record_ns",
    "host.probe_ms",
];

/// A run past this stops at its next check, cleans up and fails.
const RUN_LIMIT: Duration = Duration::from_secs(160);
/// A run still going then (a call that hangs) is ended by the watchdog;
/// a run must be over within 180 s.
const HARD_TIMEOUT: Duration = Duration::from_secs(172);

struct Args {
    opts: Opts,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut flexctl = None;
    let mut scratch = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--flexctl" => flexctl = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        opts: Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            flexctl: flexctl.ok_or("--flexctl is required")?,
        },
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

/// The cost of recording one span, measured on a throwaway tracer.
fn span_cost_ns() -> f64 {
    let tracer = Tracer::new(true);
    let n = 20_000;
    let started = Instant::now();
    for i in 0..n {
        tracer.span("probe", i, || std::hint::black_box(i));
    }
    started.elapsed().as_nanos() as f64 / n as f64
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let deadline = Instant::now() + RUN_LIMIT;
    let opts = &args.opts;
    let scratch = match ScratchDir::create(&args.scratch) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: scratch dir under {}: {e}", args.scratch.display());
            return ExitCode::FAILURE;
        }
    };
    server::watchdog(HARD_TIMEOUT, scratch.path().to_owned());
    let mut run = Run::new(opts, scratch.path(), deadline);
    let mut result = run.run();
    if opts.trace && result.is_ok() {
        let replay = Replay {
            workload: opts.workload,
            seed: opts.seed,
            flexctl: &opts.flexctl,
            dir: scratch.path(),
        };
        result = replay.run(&run.tracer, &mut run.report);
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        for problem in &run.problems {
            eprintln!("  {problem}");
        }
        return ExitCode::FAILURE;
    }

    let names: Vec<String> = if opts.trace {
        let report = &mut run.report;
        if let (Some(ack), Some(rtt)) = (
            report.get("mutation_p50_ms"),
            report.get("net.mutation_rtt_us"),
        ) {
            report.put("net.mutation_wait_ms", ack - rtt / 1e3, "ms", 1);
        }
        let main_self = run.tracer.self_ms("phase.main");
        report.put(
            "client.self_ms",
            main_self.iter().sum(),
            "ms",
            main_self.len(),
        );
        let spans = run.tracer.spans().len();
        report.put("trace.spans", spans as f64, "count", spans);
        report.put("trace.record_ns", span_cost_ns(), "ns", 20_000);
        for name in END_TO_END {
            if let Some(m) = report.metrics.iter().find(|m| m.name == name).cloned() {
                report.put(&format!("traced.{name}"), m.value, m.unit, m.samples);
            }
        }
        let traces = args.scratch.join("traces");
        let path = traces.join(format!("{}.spans.jsonl", opts.workload.name()));
        if let Err(e) = std::fs::create_dir_all(&traces)
            .and_then(|()| std::fs::write(&path, run.tracer.to_jsonl()))
        {
            eprintln!("warning: writing {}: {e}", path.display());
        }
        PER_LAYER
            .iter()
            .map(|n| n.to_string())
            .chain(END_TO_END.iter().map(|n| format!("traced.{n}")))
            .collect()
    } else {
        END_TO_END.iter().map(|n| n.to_string()).collect()
    };

    println!(
        "{} seed {} ({} requests):",
        opts.workload.name(),
        opts.seed,
        run.attempted
    );
    print!("{}", run.report.table());
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let missing: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| run.report.get(n).is_none())
        .collect();
    if !missing.is_empty() {
        eprintln!("error: metrics not measured: {}", missing.join(", "));
        for note in &run.report.unsupported {
            eprintln!("  {note}");
        }
        return ExitCode::FAILURE;
    }
    let correct = run.failed == 0 && run.problems.is_empty();
    for problem in &run.problems {
        eprintln!("check failed: {problem}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.attempted,
        run.failed,
        run.report.json(&names)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let value: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            match value.get(key) {
                Some(serde::Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        m.get("name")
                            .and_then(serde::Value::as_str)
                            .expect("named")
                            .to_owned()
                    })
                    .collect(),
                _ => panic!("{key} is a list"),
            }
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|n| n.to_string())
            .chain(END_TO_END.iter().map(|n| format!("traced.{n}")))
            .collect();
        assert_eq!(names("per_layer"), per_layer);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
    }
}
