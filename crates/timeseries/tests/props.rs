//! Property-based tests for the series algebra.

use flexoffers_timeseries::ops::{pointwise_max, pointwise_min, sum_series};
use flexoffers_timeseries::{Norm, Series};
use proptest::prelude::*;

fn arb_series() -> impl Strategy<Value = Series<i64>> {
    (-20i64..20, prop::collection::vec(-50i64..50, 0..24))
        .prop_map(|(start, values)| Series::new(start, values))
}

proptest! {
    #[test]
    fn add_is_commutative(a in arb_series(), b in arb_series()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_is_associative(a in arb_series(), b in arb_series(), c in arb_series()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn zero_is_identity(a in arb_series()) {
        let zero: Series<i64> = Series::empty();
        prop_assert_eq!(&a + &zero, a.clone());
        prop_assert_eq!(&zero + &a, a);
    }

    #[test]
    fn sub_then_add_round_trips(a in arb_series(), b in arb_series()) {
        prop_assert_eq!(&(&a - &b) + &b, a);
    }

    #[test]
    fn neg_is_sub_from_zero(a in arb_series()) {
        let zero: Series<i64> = Series::empty();
        prop_assert_eq!(-&a, &zero - &a);
    }

    #[test]
    fn shift_is_invertible_and_preserves_norms(a in arb_series(), dt in -50i64..50) {
        let moved = a.shifted(dt);
        prop_assert_eq!(moved.shifted(-dt), a.clone());
        for n in [Norm::L1, Norm::L2, Norm::LInf] {
            prop_assert_eq!(n.of(&moved), n.of(&a));
        }
    }

    #[test]
    fn trim_preserves_function(a in arb_series()) {
        prop_assert_eq!(a.trimmed(), a);
    }

    #[test]
    fn with_domain_preserves_function(a in arb_series(), lo in -30i64..30, len in 0i64..30) {
        prop_assert_eq!(a.with_domain(lo..lo + len), a);
    }

    #[test]
    fn triangle_inequality(a in arb_series(), b in arb_series()) {
        for n in [Norm::L1, Norm::L2, Norm::LInf] {
            let lhs = n.of(&(&a + &b));
            let rhs = n.of(&a) + n.of(&b);
            prop_assert!(lhs <= rhs + 1e-9, "{} > {}", lhs, rhs);
        }
    }

    #[test]
    fn norm_zero_iff_zero_series(a in arb_series()) {
        let is_zero = a == Series::empty();
        for n in [Norm::L1, Norm::L2, Norm::LInf] {
            prop_assert_eq!(n.of(&a) == 0.0, is_zero);
        }
    }

    #[test]
    fn norm_ordering_l1_ge_l2_ge_linf(a in arb_series()) {
        let (l1, l2, linf) = (Norm::L1.of(&a), Norm::L2.of(&a), Norm::LInf.of(&a));
        prop_assert!(l1 + 1e-9 >= l2);
        prop_assert!(l2 + 1e-9 >= linf);
    }

    /// The one-pass sum is the pairwise fold, stored over the same span —
    /// with empty operands (anchored anywhere) mixed in a quarter of the
    /// time.
    #[test]
    fn sum_series_matches_fold(
        xs in prop::collection::vec((arb_series(), 0u8..4), 0..8),
    ) {
        let xs: Vec<Series<i64>> = xs
            .into_iter()
            .map(|(s, keep)| if keep == 0 { Series::new(s.start(), Vec::new()) } else { s })
            .collect();
        let total = sum_series(xs.iter());
        let folded = xs.iter().fold(Series::empty(), |acc, s| &acc + s);
        prop_assert_eq!(total.into_parts(), folded.into_parts());
    }

    #[test]
    fn min_le_max_pointwise(a in arb_series(), b in arb_series()) {
        let mn = pointwise_min(&a, &b);
        let mx = pointwise_max(&a, &b);
        let lo = mn.start().min(mx.start()) - 2;
        let hi = mn.end().max(mx.end()) + 2;
        for slot in lo..hi {
            prop_assert!(mn.at(slot) <= mx.at(slot));
            prop_assert_eq!(mn.at(slot) + mx.at(slot), a.at(slot) + b.at(slot));
        }
    }

    #[test]
    fn restrict_union_covers(a in arb_series(), split in -20i64..20) {
        // Restriction to complementary ranges sums back to the original.
        let left = a.restrict(i64::MIN / 2..split);
        let right = a.restrict(split..i64::MAX / 2);
        prop_assert_eq!(&left + &right, a);
    }

    #[test]
    fn downsample_sum_preserves_total(a in arb_series(), factor in 1usize..5) {
        let d = flexoffers_timeseries::resample::downsample(
            &a, factor, flexoffers_timeseries::Aggregation::Sum).unwrap();
        prop_assert_eq!(d.sum(), a.sum());
    }

    #[test]
    fn upsample_spread_preserves_total(a in arb_series(), factor in 1usize..5) {
        let u = flexoffers_timeseries::resample::upsample(&a, factor, true).unwrap();
        prop_assert_eq!(u.sum(), a.sum());
    }
}
