//! The wall-clock timing policy every `flexbench` layer uses, so the
//! committed baselines stay comparable: changing the policy here changes
//! them all.

use std::time::Instant;

/// Times `f`, re-running it until at least 0.2 s have elapsed (max 5
/// passes) and returning the fastest single pass — enough repetition to
/// de-noise small workloads without making large sweeps crawl.
pub fn time_best(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    for _ in 0..5 {
        let start = Instant::now();
        f();
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        spent += secs;
        if spent >= 0.2 {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_a_positive_duration_and_runs_at_least_once() {
        let mut runs = 0;
        let secs = time_best(|| runs += 1);
        assert!(secs >= 0.0 && secs.is_finite());
        assert!((1..=5).contains(&runs));
    }
}
