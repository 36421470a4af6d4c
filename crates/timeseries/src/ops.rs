//! Arithmetic over series, aligned on the union of their domains.
//!
//! The operators borrow their operands (`&a + &b`); series are typically
//! reused after participating in arithmetic, so taking ownership would force
//! clones at most call sites.

use std::ops::{Add, Neg, Sub};

use crate::series::Series;
use crate::value::SeriesValue;
use crate::Slot;

impl<T: SeriesValue> Add for &Series<T> {
    type Output = Series<T>;

    fn add(self, rhs: Self) -> Series<T> {
        self.zip_union(rhs, |a, b| a + b)
    }
}

impl<T: SeriesValue> Sub for &Series<T> {
    type Output = Series<T>;

    fn sub(self, rhs: Self) -> Series<T> {
        self.zip_union(rhs, |a, b| a - b)
    }
}

impl<T: SeriesValue> Neg for &Series<T> {
    type Output = Series<T>;

    fn neg(self) -> Series<T> {
        self.map(|v| -v)
    }
}

/// Sums an iterator of series over the union of all their domains: the
/// left fold `acc + s` from [`Series::empty`], stored over the same span
/// (the hull of the non-empty operands), in one pass into one buffer.
pub fn sum_series<'a, T: SeriesValue + 'a>(
    iter: impl IntoIterator<Item = &'a Series<T>>,
) -> Series<T> {
    let parts: Vec<&Series<T>> = iter.into_iter().collect();
    sum_spans(parts.iter().map(|s| (s.start(), s.values())))
}

/// Sums value spans, each `(start, values)` standing for the series
/// `Series::new(start, values)`, exactly as [`sum_series`] sums those
/// series: the result is stored over the hull of the non-empty spans
/// (the empty series when there is none). `spans` is walked twice, once
/// for the hull and once to accumulate, so the cost is linear in the
/// span count, the values and the hull.
pub fn sum_spans<'a, T: SeriesValue + 'a>(
    spans: impl IntoIterator<Item = (Slot, &'a [T])> + Clone,
) -> Series<T> {
    let hull = spans
        .clone()
        .into_iter()
        .filter(|(_, values)| !values.is_empty())
        .map(|(start, values)| (start, start + values.len() as Slot))
        .reduce(|(lo, hi), (s, e)| (lo.min(s), hi.max(e)));
    let Some((lo, hi)) = hull else {
        return Series::empty();
    };
    let mut acc = vec![T::ZERO; (hi - lo) as usize];
    // An empty span stores nothing, wherever it is anchored.
    for (start, values) in spans.into_iter().filter(|(_, values)| !values.is_empty()) {
        let offset = (start - lo) as usize;
        for (slot, &v) in acc[offset..].iter_mut().zip(values) {
            *slot = *slot + v;
        }
    }
    Series::new(lo, acc)
}

/// Pointwise minimum over the union domain.
pub fn pointwise_min<T: SeriesValue>(a: &Series<T>, b: &Series<T>) -> Series<T> {
    a.zip_union(b, |x, y| if x < y { x } else { y })
}

/// Pointwise maximum over the union domain.
pub fn pointwise_max<T: SeriesValue>(a: &Series<T>, b: &Series<T>) -> Series<T> {
    a.zip_union(b, |x, y| if x > y { x } else { y })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_aligns_domains() {
        let a = Series::new(0, vec![1i64, 2, 3]);
        let b = Series::new(2, vec![10i64, 20]);
        let c = &a + &b;
        assert_eq!(c.start(), 0);
        assert_eq!(c.values(), &[1, 2, 13, 20]);
    }

    #[test]
    fn sub_gives_paper_example_5_difference() {
        // f1 = ([0,1], <[0,1]>): f_min = <0> @ 0, f_max = <1> @ 1.
        let f_min = Series::new(0, vec![0i64]);
        let f_max = Series::new(1, vec![1i64]);
        let d = &f_max - &f_min;
        assert_eq!(d, Series::new(0, vec![0i64, 1]));
    }

    #[test]
    fn neg_negates() {
        let a = Series::new(0, vec![1i64, -2]);
        assert_eq!((-&a).values(), &[-1, 2]);
    }

    #[test]
    fn add_then_sub_round_trips() {
        let a = Series::new(-1, vec![4i64, 5, 6]);
        let b = Series::new(1, vec![7i64, 8]);
        let c = &(&a + &b) - &b;
        assert_eq!(c, a);
    }

    #[test]
    fn sum_of_none_is_empty() {
        let out: Series<i64> = sum_series(std::iter::empty::<&Series<i64>>());
        assert!(out.is_empty());
    }

    #[test]
    fn sum_of_many() {
        let xs = [
            Series::new(0, vec![1i64]),
            Series::new(1, vec![2i64]),
            Series::new(0, vec![0i64, 3]),
        ];
        let total = sum_series(xs.iter());
        assert_eq!(total, Series::new(0, vec![1i64, 5]));
    }

    #[test]
    fn sum_ignores_the_anchor_of_empty_operands() {
        // `Series::empty()` is anchored at 0, outside this hull.
        let xs = [
            Series::new(5, vec![1i64, 2]),
            Series::empty(),
            Series::new(9, Vec::new()),
            Series::new(6, vec![3i64]),
        ];
        assert_eq!(
            sum_series(xs.iter()).into_parts(),
            (5, vec![1i64, 5]),
            "the hull of the non-empty operands"
        );
    }

    #[test]
    fn pointwise_min_max() {
        let a = Series::new(0, vec![1i64, 5]);
        let b = Series::new(0, vec![3i64, 2]);
        assert_eq!(pointwise_min(&a, &b).values(), &[1, 2]);
        assert_eq!(pointwise_max(&a, &b).values(), &[3, 5]);
    }

    #[test]
    fn min_against_zero_outside_domain() {
        let a = Series::new(0, vec![5i64]);
        let b = Series::new(1, vec![5i64]);
        // Outside each stored domain the other side is 0.
        assert_eq!(pointwise_min(&a, &b).values(), &[0, 0]);
        assert_eq!(pointwise_max(&a, &b).values(), &[5, 5]);
    }
}
