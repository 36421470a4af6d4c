//! The one benchmark schema, `flexoffers-bench/2`, and its regression
//! gate.
//!
//! `flexbench <layer>` writes one [`Report`] per layer. CI regenerates
//! each with `--quick` on whatever runner it lands on, and `flexbench
//! check` compares it against the committed `BENCH_<layer>.json`.
//! Absolute throughput is meaningless across hosts, so both sides are
//! normalised to *per-core* throughput: each gated run's rate divided by
//! the parallelism it could actually use (`min(threads, host_cpus)`). The
//! gate fails when the candidate's best per-core figure drops below
//! [`MIN_RATIO`] of the baseline's, or, when both reports recorded the
//! [`MULTI_CORE`] ratio, when the candidate's scaling drops below
//! [`MIN_RATIO`] of the baseline's. That tolerates runner noise and CPU
//! generation gaps while still catching a hot path that got an order of
//! magnitude slower.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The schema tag every report carries.
pub const SCHEMA: &str = "flexoffers-bench/2";

/// The layers `flexbench` measures; each has a committed
/// `BENCH_<layer>.json` baseline.
pub const LAYERS: [&str; 4] = ["measure", "scenarios", "serving", "journal"];

/// The gate's threshold: a candidate below half the baseline fails.
pub const MIN_RATIO: f64 = 0.5;

/// The named ratio the multi-core leg of the gate compares. Reports
/// record it only on hosts with more than one CPU.
pub const MULTI_CORE: &str = "multi_core_speedup";

/// One layer's benchmark report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// One of [`LAYERS`].
    pub layer: String,
    /// What the runs replay or evaluate.
    pub workload: String,
    /// The unit of every run's `rate`, e.g. `offers/s` or `events/s`.
    pub unit: String,
    /// CPUs the host offered when the report was recorded.
    pub host_cpus: usize,
    /// Every timed run.
    pub runs: Vec<Run>,
    /// Named ratios between runs; see each one's `about`.
    pub ratios: Vec<Ratio>,
}

/// One timed path at one size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Run {
    /// What was timed, e.g. `engine` or `recover-replay`.
    pub path: String,
    /// Reference runs are what the gated paths are quoted against; the
    /// gate reads only the runs that are not references.
    pub reference: bool,
    /// Offers in the portfolio or book.
    pub offers: usize,
    /// Engine worker threads.
    pub threads: usize,
    /// `LiveBook` shards (1 where the path is not sharded).
    pub shards: usize,
    /// Wall-clock seconds of the fastest pass.
    pub secs: f64,
    /// Throughput, in the report's `unit`.
    pub rate: f64,
}

/// A named ratio between two timings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ratio {
    /// Stable name, e.g. [`MULTI_CORE`].
    pub name: String,
    /// The ratio itself.
    pub value: f64,
    /// Which timings were divided, at which size.
    pub about: String,
}

impl Report {
    /// An empty report for `layer` on a host with `host_cpus` CPUs.
    pub fn new(layer: &str, workload: String, unit: &str, host_cpus: usize) -> Self {
        Self {
            schema: SCHEMA.to_owned(),
            layer: layer.to_owned(),
            workload,
            unit: unit.to_owned(),
            host_cpus,
            runs: Vec::new(),
            ratios: Vec::new(),
        }
    }

    /// Parses a report, refusing any other schema by name before the
    /// typed parse can fail on a missing field.
    pub fn parse(text: &str) -> Result<Self, GateError> {
        let value: serde::Value =
            serde_json::from_str(text).map_err(|e| GateError::Malformed(e.to_string()))?;
        match value.get("schema").and_then(serde::Value::as_str) {
            Some(SCHEMA) => {
                Self::from_value(&value).map_err(|e| GateError::Malformed(e.to_string()))
            }
            found => Err(GateError::Schema {
                found: found.unwrap_or("none").to_owned(),
            }),
        }
    }

    /// The value of the ratio called `name`, if the report recorded it.
    pub fn ratio(&self, name: &str) -> Option<f64> {
        self.ratios.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// The best per-core rate over the gated runs: each run's rate
    /// divided by the parallelism it could actually use. `None` when the
    /// report has no gated runs.
    pub fn per_core_peak(&self) -> Option<f64> {
        self.runs
            .iter()
            .filter(|r| !r.reference)
            .map(|r| r.rate / r.threads.min(self.host_cpus).max(1) as f64)
            .reduce(f64::max)
    }
}

/// Why a comparison could not be carried out (distinct from a failed
/// gate, which is a [`Verdict`] with `passed() == false`).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum GateError {
    /// The report carries another schema tag.
    Schema {
        /// The tag found (`none` when absent).
        found: String,
    },
    /// The report is not JSON, or not a `flexoffers-bench/2` report.
    Malformed(String),
    /// The two reports measure different layers.
    LayerMismatch {
        /// The baseline's layer.
        baseline: String,
        /// The candidate's layer.
        candidate: String,
    },
    /// A report has no gated runs to normalise.
    NoGatedRuns {
        /// Which side was empty (`baseline` / `candidate`).
        side: &'static str,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Schema { found } => {
                write!(f, "schema {found:?} is not {SCHEMA:?}")
            }
            GateError::Malformed(e) => write!(f, "malformed {SCHEMA} report: {e}"),
            GateError::LayerMismatch {
                baseline,
                candidate,
            } => write!(
                f,
                "baseline measures layer {baseline:?} but candidate measures {candidate:?}"
            ),
            GateError::NoGatedRuns { side } => write!(f, "{side} report has no gated runs"),
        }
    }
}

impl std::error::Error for GateError {}

/// The outcome of comparing a candidate report against a baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// The unit of both per-core figures (per core).
    pub unit: String,
    /// Baseline per-core peak.
    pub baseline_per_core: f64,
    /// Candidate per-core peak.
    pub candidate_per_core: f64,
    /// Candidate [`MULTI_CORE`] over the baseline's; `None` unless both
    /// reports recorded it (a single-core runner cannot be judged on
    /// scaling).
    pub multi_core_ratio: Option<f64>,
}

impl Verdict {
    /// Candidate per-core peak over the baseline's.
    pub fn ratio(&self) -> f64 {
        if self.baseline_per_core == 0.0 {
            // A zero baseline cannot regress.
            f64::INFINITY
        } else {
            self.candidate_per_core / self.baseline_per_core
        }
    }

    /// `true` when the candidate clears [`MIN_RATIO`]: per-core always,
    /// and multi-core scaling too when both sides recorded it.
    pub fn passed(&self) -> bool {
        self.ratio() >= MIN_RATIO && self.multi_core_ratio.is_none_or(|r| r >= MIN_RATIO)
    }

    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        let multi_core = match self.multi_core_ratio {
            Some(r) => format!("; {MULTI_CORE} ratio {r:.2}x"),
            None => String::new(),
        };
        format!(
            "per-core peak: baseline {:.0} {unit}/core, candidate {:.0} {unit}/core \
             — ratio {:.2}x{multi_core} (gate: >= {MIN_RATIO:.2}x) => {}",
            self.baseline_per_core,
            self.candidate_per_core,
            self.ratio(),
            if self.passed() { "PASS" } else { "FAIL" },
            unit = self.unit,
        )
    }
}

/// Compares `candidate` against `baseline`.
pub fn check(baseline: &Report, candidate: &Report) -> Result<Verdict, GateError> {
    if baseline.layer != candidate.layer {
        return Err(GateError::LayerMismatch {
            baseline: baseline.layer.clone(),
            candidate: candidate.layer.clone(),
        });
    }
    let peak = |side, report: &Report| {
        report
            .per_core_peak()
            .ok_or(GateError::NoGatedRuns { side })
    };
    Ok(Verdict {
        unit: baseline.unit.clone(),
        baseline_per_core: peak("baseline", baseline)?,
        candidate_per_core: peak("candidate", candidate)?,
        multi_core_ratio: match (baseline.ratio(MULTI_CORE), candidate.ratio(MULTI_CORE)) {
            (Some(b), Some(c)) if b > 0.0 => Some(c / b),
            _ => None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(host_cpus: usize, runs: &[(usize, f64)]) -> Report {
        let mut r = Report::new("measure", "test".to_owned(), "offers/s", host_cpus);
        r.runs = runs
            .iter()
            .map(|&(threads, rate)| Run {
                path: "engine".to_owned(),
                reference: false,
                offers: 1000,
                threads,
                shards: 1,
                secs: 1000.0 / rate,
                rate,
            })
            .collect();
        r
    }

    fn with_multi_core(mut r: Report, speedup: f64) -> Report {
        r.ratios.push(Ratio {
            name: MULTI_CORE.to_owned(),
            value: speedup,
            about: "test".to_owned(),
        });
        r
    }

    #[test]
    fn per_core_normalises_by_usable_parallelism() {
        // 8 threads on a 4-cpu host only count as 4-way parallelism.
        let r = report(4, &[(1, 100.0), (8, 400.0)]);
        assert_eq!(r.per_core_peak(), Some(100.0));
        // On a 1-cpu host every run is per-core as measured.
        let single = report(1, &[(8, 250.0)]);
        assert_eq!(single.per_core_peak(), Some(250.0));
        // Reference runs never count.
        let mut with_reference = report(1, &[(1, 100.0)]);
        with_reference.runs[0].reference = true;
        assert_eq!(with_reference.per_core_peak(), None);
    }

    #[test]
    fn equal_reports_pass_and_big_drops_fail() {
        let baseline = report(4, &[(4, 400.0)]);
        let same = check(&baseline, &baseline.clone()).unwrap();
        assert!(same.passed());
        assert!((same.ratio() - 1.0).abs() < 1e-12);

        let slow = report(4, &[(4, 100.0)]);
        let verdict = check(&baseline, &slow).unwrap();
        assert!(!verdict.passed(), "{}", verdict.render());
        assert!(verdict.render().contains("FAIL"));
    }

    #[test]
    fn cross_host_comparison_uses_per_core_figures() {
        // Baseline on 1 cpu, candidate on 8: raw throughput differs 6x but
        // per-core the candidate is fine.
        let baseline = report(1, &[(1, 1000.0)]);
        let candidate = report(8, &[(8, 6000.0)]);
        let verdict = check(&baseline, &candidate).unwrap();
        assert!((verdict.candidate_per_core - 750.0).abs() < 1e-9);
        assert!(verdict.passed());
    }

    #[test]
    fn schema_and_empty_reports_are_rejected() {
        let good = report(1, &[(1, 100.0)]);
        let old = r#"{"schema": "flexoffers-engine-bench/1", "engine": []}"#;
        assert_eq!(
            Report::parse(old),
            Err(GateError::Schema {
                found: "flexoffers-engine-bench/1".to_owned()
            })
        );
        let mut other_layer = good.clone();
        other_layer.layer = "journal".to_owned();
        assert!(matches!(
            check(&good, &other_layer),
            Err(GateError::LayerMismatch { .. })
        ));
        let empty = report(1, &[]);
        let err = check(&empty, &good).unwrap_err();
        assert_eq!(err.to_string(), "baseline report has no gated runs");
    }

    #[test]
    fn multi_core_gate_only_engages_when_both_sides_recorded_it() {
        let flat = report(4, &[(4, 400.0)]);
        let scaled = with_multi_core(report(4, &[(4, 400.0)]), 3.6);

        // One-sided ratios never engage the leg: cross-host runs where
        // only the baseline (or only the candidate) is multi-core still
        // gate on per-core throughput alone.
        for (b, c) in [(&flat, &scaled), (&scaled, &flat), (&flat, &flat)] {
            let verdict = check(b, c).unwrap();
            assert_eq!(verdict.multi_core_ratio, None);
            assert!(verdict.passed());
            assert!(!verdict.render().contains(MULTI_CORE));
        }

        // Both sides recorded: scaling holds → pass, with the ratio shown.
        let still_scaled = with_multi_core(report(4, &[(4, 400.0)]), 3.4);
        let verdict = check(&scaled, &still_scaled).unwrap();
        assert!(verdict.multi_core_ratio.is_some());
        assert!(verdict.passed());
        assert!(verdict.render().contains(MULTI_CORE));

        // Scaling collapsed (3.6x -> 1.1x) while per-core throughput held:
        // the gate fails on the multi-core leg alone.
        let collapsed = with_multi_core(report(4, &[(4, 400.0)]), 1.1);
        let verdict = check(&scaled, &collapsed).unwrap();
        assert!((verdict.ratio() - 1.0).abs() < 1e-12);
        assert!(!verdict.passed(), "{}", verdict.render());
    }

    #[test]
    fn reports_round_trip_through_json() {
        let r = with_multi_core(report(2, &[(1, 100.0), (2, 180.0)]), 1.8);
        let text = serde_json::to_string_pretty(&r).unwrap();
        assert_eq!(Report::parse(&text), Ok(r));
    }

    #[test]
    fn zero_baseline_cannot_fail_the_gate() {
        let zero = report(1, &[(1, 0.0)]);
        let candidate = report(1, &[(1, 1.0)]);
        assert!(check(&zero, &candidate).unwrap().passed());
    }

    /// The committed `BENCH_<layer>.json` at the workspace root.
    fn committed(layer: &str) -> Report {
        let path = format!("{}/../../BENCH_{layer}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("committed baseline {path}: {e}"));
        Report::parse(&text).unwrap_or_else(|e| panic!("BENCH_{layer}.json: {e}"))
    }

    /// Asserts that the committed `layer` baseline holds reference runs on
    /// each of `references`, gated runs on each of `gated`, and every one
    /// of `ratios`: the runs a layer's headline ratios are divided from.
    fn assert_records(layer: &str, references: &[&str], gated: &[&str], ratios: &[&str]) {
        let baseline = committed(layer);
        let has = |path: &str, reference: bool| {
            baseline
                .runs
                .iter()
                .any(|run| run.path == path && run.reference == reference)
        };
        for path in references {
            assert!(
                has(path, true),
                "BENCH_{layer}.json: no `{path}` reference run"
            );
        }
        for path in gated {
            assert!(
                has(path, false),
                "BENCH_{layer}.json: no gated `{path}` run"
            );
        }
        for name in ratios {
            assert!(
                baseline.ratio(name).is_some(),
                "BENCH_{layer}.json: no `{name}` ratio"
            );
        }
    }

    #[test]
    fn every_committed_baseline_parses_names_its_layer_and_passes_against_itself() {
        for layer in LAYERS {
            let baseline = committed(layer);
            assert_eq!(baseline.layer, layer, "BENCH_{layer}.json names its layer");
            assert!(
                baseline.host_cpus > 0,
                "BENCH_{layer}.json records host_cpus"
            );
            let verdict = check(&baseline, &baseline).expect("gated runs present");
            assert!(verdict.passed(), "BENCH_{layer}.json: {}", verdict.render());
        }
    }

    #[test]
    fn committed_measure_baseline_keeps_the_scalar_kernel_reference() {
        assert_records(
            "measure",
            &["of_set loop", "scalar kernel"],
            &["engine"],
            &[
                "engine_speedup_vs_of_set_loop",
                "engine_speedup_vs_scalar_kernel",
            ],
        );
    }

    #[test]
    fn committed_serving_baseline_records_replay_and_update_query_runs() {
        assert_records(
            "serving",
            &["update+query churn 1%", "update+query churn 10%"],
            &["replay churn 1%", "replay churn 10%"],
            &["warm_query_speedup_vs_batch"],
        );
    }

    #[test]
    fn committed_journal_baseline_records_the_unjournaled_reference_and_both_recoveries() {
        assert_records(
            "journal",
            &["journal off"],
            &[
                "journal",
                "journal+snapshots",
                "recover-replay",
                "recover-snapshot",
            ],
            &["journal_slowdown", "recover_snapshot_speedup_vs_replay"],
        );
    }
}
