//! Metric collection with a sample guard: a percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it, and every metric
//! carries the number of samples it was computed from.

use std::fmt::Write as _;

use flexoffers_net::percentile;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The fewest samples for which `p` may be reported.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| guarded_percentile_ok(n, p))
        .expect("a bound exists")
}

fn guarded_percentile_ok(n: usize, p: f64) -> bool {
    // Nearest rank, as `flexoffers_net::stats::percentile` computes it.
    let rank = (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    n > 0 && n - rank >= MIN_BEYOND
}

/// The `p`-th percentile, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn guarded_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if !guarded_percentile_ok(samples.len(), p) {
        return None;
    }
    percentile(samples, p)
}

/// The median of a non-empty set of per-run measurements (set-up and
/// restart times, which are repeated a few times per run rather than
/// sampled).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).expect("median of a non-empty set")
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, in insertion order, plus the names of metrics
/// whose samples did not support them.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub unsupported: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// Records the guarded `p`-th percentile of `samples`, or notes the
    /// metric as unsupported.
    pub fn pct(&mut self, name: &str, samples: &[f64], p: f64, unit: &'static str) {
        match guarded_percentile(samples, p) {
            Some(value) => self.put(name, value, unit, samples.len()),
            None => self.unsupported.push(format!(
                "{name}: {} samples cannot support p{p}",
                samples.len()
            )),
        }
    }

    /// Records the p50 and p90 of `samples` as `<stem>_p50_<unit>` and
    /// `<stem>_p90_<unit>`.
    pub fn p50_p90(&mut self, stem: &str, samples: &[f64], unit: &'static str) {
        self.pct(&format!("{stem}_p50_{unit}"), samples, 50.0, unit);
        self.pct(&format!("{stem}_p90_{unit}"), samples, 90.0, unit);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// A human-readable table: name, value, unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<36} {:>14.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The `metrics` object of the result line, restricted to `names` in
    /// that order (a name without a metric is skipped; the caller checks
    /// completeness first).
    pub fn json(&self, names: &[&str]) -> String {
        let fields: Vec<String> = names
            .iter()
            .filter_map(|name| {
                let m = self.metrics.iter().find(|m| m.name == *name)?;
                Some(format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                ))
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A finite number in its shortest round-trip form (JSON has no NaN).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_guard_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(min_samples(90.0), 100);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(guarded_percentile(&ninety_nine, 90.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(guarded_percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(guarded_percentile(&hundred[..19], 50.0), None);
        assert_eq!(guarded_percentile(&hundred[..20], 50.0), Some(10.0));
        assert_eq!(guarded_percentile(&[], 50.0), None);
    }

    #[test]
    fn unsupported_percentiles_are_noted_not_emitted() {
        let mut report = Report::default();
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        report.p50_p90("measure", &few, "ms");
        assert_eq!(report.get("measure_p50_ms"), Some(24.0));
        assert_eq!(report.get("measure_p90_ms"), None);
        assert_eq!(report.unsupported.len(), 1);
        assert!(report.unsupported[0].contains("50 samples"));
        assert_eq!(report.metrics[0].samples, 50);
    }

    #[test]
    fn json_keeps_value_and_unit_only() {
        let mut report = Report::default();
        report.put("setup_s", 0.8127, "s", 3);
        report.put("other", 1.0, "count", 1);
        assert_eq!(
            report.json(&["setup_s"]),
            "{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}"
        );
    }
}
