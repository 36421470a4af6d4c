//! Tiny sample statistics shared by `flexctl bomb` and loadbench.

/// Nearest-rank percentile (`p` in `[0, 100]`) over unsorted samples;
/// `None` on an empty slice or when `p` is outside `[0, 100]` (including
/// a NaN `p` — an out-of-range rank is a caller bug, not a statistic).
/// `p = 50` is the median sample, `p = 0` the minimum, `p = 100` the
/// maximum; NaN *samples* sort last under the IEEE total order.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // The epsilon keeps FP noise (0.999 * 1000 = 999.0000000000001) from
    // pushing an exact rank over its ceiling.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn nearest_rank_matches_by_hand() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));

        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.9), Some(999.0));

        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.5], 99.9), Some(7.5));
        // Order must not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn out_of_range_p_is_rejected_not_clamped() {
        let samples = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 100.1), None);
        assert_eq!(percentile(&samples, 1000.0), None);
        assert_eq!(percentile(&samples, -0.1), None);
        assert_eq!(percentile(&samples, f64::NAN), None);
        // The boundaries themselves stay valid.
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 100.0), Some(3.0));
    }

    #[test]
    fn single_sample_answers_every_valid_p() {
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(percentile(&[42.0], p), Some(42.0), "p = {p}");
        }
    }

    #[test]
    fn nan_samples_sort_last_under_total_order() {
        // NaNs are worst-case latencies: they occupy the top ranks.
        let samples = [f64::NAN, 1.0, f64::NAN, 2.0];
        assert_eq!(percentile(&samples, 50.0), Some(2.0));
        assert!(percentile(&samples, 100.0).unwrap().is_nan());
        // An all-NaN slice still answers (pinned): every rank is NaN.
        let all_nan = [f64::NAN, f64::NAN];
        assert!(percentile(&all_nan, 50.0).unwrap().is_nan());
    }
}
