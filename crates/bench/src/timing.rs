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

/// Times `numerator` and `denominator` in alternation, one pass of each
/// per round for `rounds` rounds, and returns the median of the per-round
/// ratios `secs(numerator) / secs(denominator)`. Both sides of a ratio
/// then run through the same host phases, so a noisy stretch moves them
/// together instead of skewing one side, and neither side gets more
/// passes than the other the way [`time_best`]'s time budget would give a
/// short run.
pub fn median_ratio(
    rounds: usize,
    mut numerator: impl FnMut(),
    mut denominator: impl FnMut(),
) -> f64 {
    assert!(rounds > 0, "at least one round");
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            numerator();
            let top = start.elapsed().as_secs_f64();
            let start = Instant::now();
            denominator();
            top / start.elapsed().as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[rounds / 2]
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

    #[test]
    fn median_ratio_alternates_the_sides_and_takes_the_median() {
        let order = std::cell::RefCell::new(Vec::new());
        let ratio = median_ratio(
            3,
            || {
                order.borrow_mut().push('n');
                std::thread::sleep(std::time::Duration::from_millis(4));
            },
            || order.borrow_mut().push('d'),
        );
        assert_eq!(order.into_inner(), ['n', 'd', 'n', 'd', 'n', 'd']);
        assert!(ratio > 1.0 && ratio.is_finite());
    }
}
