//! The host's speed, measured inside a run.
//!
//! On a shared host the same work can take twice as long from one minute to
//! the next, so wall-clock times of two runs compare the host's phases as
//! much as the program. A run therefore also times a fixed reference
//! workload — the benchmark's own code, independent of the program under
//! test — at quiet points spread over the run, and scales its time metrics
//! by `REFERENCE_MS / median probe`: the values read as on a host whose
//! probe takes [`REFERENCE_MS`]. The wall-clock value of a time metric is
//! its value times [`Speed::slowdown`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::gen::Rng;
use crate::stats::median;

/// The probe's median on the 2-vCPU Xeon host the benchmark was built
/// on, in a quiet phase.
pub const REFERENCE_MS: f64 = 2.0;
/// Items each probe thread works through in one round.
const ITEMS: usize = 512;
/// Rounds of one probe.
const ROUNDS: usize = 8;
/// Probes per quiet point.
pub const PER_POINT: usize = 12;

/// The reference work of one thread, a small version of the server's mix:
/// passes of floating-point arithmetic over an array (the measure
/// kernels), grouping by key in a `BTreeMap` (aggregation), a sort, and
/// printing numbers to text and parsing them back (the JSON codec).
fn reference_work(seed: u64) -> u64 {
    let mut rng = Rng::new(seed);
    let keys: Vec<u64> = (0..ITEMS).map(|_| rng.next_u64()).collect();
    let values: Vec<f64> = keys
        .iter()
        .map(|k| (k >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    let mut acc = 0.0f64;
    for pass in 1..=8 {
        let (mut run, mut low, mut high) = (0.0f64, f64::MAX, f64::MIN);
        for v in &values {
            run += v * pass as f64;
            low = low.min(run - v);
            high = high.max(run + v);
        }
        acc += high - low;
    }
    let mut groups: BTreeMap<(u64, u64), Vec<u32>> = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        groups.entry((k % 97, k % 13)).or_default().push(i as u32);
    }
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let mut text = String::new();
    for v in &values {
        let _ = write!(text, "{v:.6},");
    }
    let parsed: f64 = text.split(',').filter_map(|t| t.parse::<f64>().ok()).sum();
    acc.to_bits() ^ parsed.to_bits() ^ groups.len() as u64 ^ sorted[ITEMS / 2]
}

/// One probe: [`ROUNDS`] rounds of the reference work on two threads, a
/// scoped thread spawned for each round as the server's engine spawns its
/// workers, timed until the last round is done. A host that is slow to
/// hand a woken thread a core slows the probe as it slows the server.
pub fn probe() -> Duration {
    let started = Instant::now();
    let mut out = 0;
    for round in 0..ROUNDS as u64 {
        out ^= std::thread::scope(|scope| {
            let other = scope.spawn(move || reference_work(2 * round + 1));
            let mine = reference_work(2 * round);
            mine ^ other.join().expect("the probe thread does not panic")
        });
    }
    std::hint::black_box(out);
    started.elapsed()
}

/// The probes of one run.
#[derive(Debug, Default)]
pub struct Speed {
    probes_ms: Vec<f64>,
}

impl Speed {
    /// Probes [`PER_POINT`] times: at a quiet point of the run, when no
    /// server is busy.
    pub fn quiet_point(&mut self) {
        for _ in 0..PER_POINT {
            self.probes_ms.push(probe().as_secs_f64() * 1e3);
        }
    }

    pub fn probes(&self) -> usize {
        self.probes_ms.len()
    }

    /// The median probe (`REFERENCE_MS` before any probe).
    pub fn probe_ms(&self) -> f64 {
        if self.probes_ms.is_empty() {
            REFERENCE_MS
        } else {
            median(&self.probes_ms)
        }
    }

    /// How much slower than the reference host this run's host was.
    pub fn slowdown(&self) -> f64 {
        self.probe_ms() / REFERENCE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_deterministic() {
        assert_eq!(reference_work(7), reference_work(7));
        assert_ne!(reference_work(7), reference_work(8));
    }

    #[test]
    fn slowdown_is_the_median_probe_over_the_reference() {
        let mut speed = Speed::default();
        assert_eq!(speed.slowdown(), 1.0);
        speed.probes_ms = vec![REFERENCE_MS * 3.0, REFERENCE_MS, REFERENCE_MS * 2.0];
        assert_eq!(speed.slowdown(), 2.0);
    }

    #[test]
    fn a_quiet_point_probes_several_times() {
        let mut speed = Speed::default();
        speed.quiet_point();
        assert_eq!(speed.probes(), PER_POINT);
        assert!(speed.probe_ms() > 0.0);
    }
}
