//! The [`Series`] type: a dense, offset-anchored discrete time series.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::value::SeriesValue;
use crate::Slot;

/// A discrete time series: a total function from time slots (`i64`) to values
/// of type `T`.
///
/// A series stores a contiguous block of values beginning at [`Series::start`]
/// and is implicitly [`SeriesValue::ZERO`] everywhere outside the stored
/// block. Two series are considered equal ([`PartialEq`]) when they are equal
/// *as functions* — leading or trailing explicit zeros and the anchor of an
/// all-zero series do not affect equality. This matches the paper's usage,
/// where an assignment "is a time series" (Definition 2) independent of how
/// much zero padding a representation happens to carry.
#[derive(Clone, Serialize, Deserialize)]
pub struct Series<T = i64> {
    start: Slot,
    values: Vec<T>,
}

impl<T: SeriesValue> Series<T> {
    /// Creates a series whose first stored value sits at slot `start`.
    pub fn new(start: Slot, values: Vec<T>) -> Self {
        Self { start, values }
    }

    /// Creates the everywhere-zero series.
    pub fn empty() -> Self {
        Self {
            start: 0,
            values: Vec::new(),
        }
    }

    /// Creates a series of `len` copies of `value` starting at `start`.
    pub fn constant(start: Slot, len: usize, value: T) -> Self {
        Self {
            start,
            values: vec![value; len],
        }
    }

    /// Creates a series of `len` values starting at `start`, with the value at
    /// slot `start + i` produced by `f(start + i)`.
    pub fn from_fn(start: Slot, len: usize, mut f: impl FnMut(Slot) -> T) -> Self {
        Self {
            start,
            values: (0..len as i64).map(|i| f(start + i)).collect(),
        }
    }

    /// Creates a series with a single stored value.
    pub fn singleton(slot: Slot, value: T) -> Self {
        Self {
            start: slot,
            values: vec![value],
        }
    }

    /// The slot of the first stored value. Meaningless for an empty series.
    pub fn start(&self) -> Slot {
        self.start
    }

    /// One past the slot of the last stored value.
    pub fn end(&self) -> Slot {
        self.start + self.values.len() as i64
    }

    /// The stored domain `start..end`.
    pub fn domain(&self) -> Range<Slot> {
        self.start..self.end()
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no values are stored (the series is everywhere zero).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The stored values, without their slot anchors.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Consumes the series, returning its anchor and values.
    pub fn into_parts(self) -> (Slot, Vec<T>) {
        (self.start, self.values)
    }

    /// The stored value at `slot`, or `None` outside the stored domain.
    pub fn get(&self, slot: Slot) -> Option<T> {
        if slot < self.start {
            return None;
        }
        self.values.get((slot - self.start) as usize).copied()
    }

    /// The value of the series *as a function* at `slot`: the stored value
    /// inside the domain, zero outside.
    pub fn at(&self, slot: Slot) -> T {
        self.get(slot).unwrap_or(T::ZERO)
    }

    /// Iterates over `(slot, value)` pairs of the stored domain.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, T)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, v)| (self.start + i as i64, *v))
    }

    /// Iterates over the `(slot, value)` pairs whose value is non-zero.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Slot, T)> + '_ {
        self.iter().filter(|(_, v)| !v.is_zero())
    }

    /// Returns the same function shifted `dt` slots to the right
    /// (`shifted(s)(t) = s(t - dt)`).
    pub fn shifted(&self, dt: Slot) -> Self {
        Self {
            start: self.start + dt,
            values: self.values.clone(),
        }
    }

    /// The inclusive slot span `(first, last)` carrying non-zero values, or
    /// `None` if the series is everywhere zero.
    pub fn support(&self) -> Option<(Slot, Slot)> {
        let first = self.iter().find(|(_, v)| !v.is_zero())?.0;
        let last = self
            .iter()
            .filter(|(_, v)| !v.is_zero())
            .last()
            .expect("a first non-zero implies a last non-zero")
            .0;
        Some((first, last))
    }

    /// A copy with leading and trailing stored zeros removed. An all-zero
    /// series trims to [`Series::empty`].
    pub fn trimmed(&self) -> Self {
        match self.support() {
            None => Self::empty(),
            Some((first, last)) => self.restrict(first..last + 1),
        }
    }

    /// The restriction of the series to `range` (zero outside `range`),
    /// stored over exactly the intersection of `range` and the domain.
    pub fn restrict(&self, range: Range<Slot>) -> Self {
        let lo = range.start.max(self.start);
        let hi = range.end.min(self.end());
        if lo >= hi {
            return Self::empty();
        }
        let values = self.values[(lo - self.start) as usize..(hi - self.start) as usize].to_vec();
        Self { start: lo, values }
    }

    /// A copy whose stored domain is padded with zeros to cover `range` as
    /// well as the existing domain.
    pub fn with_domain(&self, range: Range<Slot>) -> Self {
        if range.start >= range.end {
            return self.clone();
        }
        if self.is_empty() {
            return Self::constant(range.start, (range.end - range.start) as usize, T::ZERO);
        }
        let lo = range.start.min(self.start);
        let hi = range.end.max(self.end());
        let mut values = vec![T::ZERO; (hi - lo) as usize];
        for (slot, v) in self.iter() {
            values[(slot - lo) as usize] = v;
        }
        Self { start: lo, values }
    }

    /// Sets the value at `slot`, growing the stored domain with zeros if
    /// needed.
    pub fn set(&mut self, slot: Slot, value: T) {
        self.ensure_contains(slot);
        let idx = (slot - self.start) as usize;
        self.values[idx] = value;
    }

    /// Adds `value` to the value at `slot`, growing the stored domain with
    /// zeros if needed.
    pub fn add_at(&mut self, slot: Slot, value: T) {
        self.ensure_contains(slot);
        let idx = (slot - self.start) as usize;
        self.values[idx] = self.values[idx] + value;
    }

    /// Adds `values`, anchored at slot `start`, into this series in place:
    /// the result is `&self + &Series::new(start, values)`, stored over the
    /// same union domain, without building either operand. For `f64`
    /// series a stored `-0.0` outside the span stays `-0.0`, where the
    /// operator would give `+0.0`; integer series agree exactly.
    pub fn add_span(&mut self, start: Slot, values: &[T]) {
        self.combine_span(start, values, |a, b| a + b);
    }

    /// Subtracts `values`, anchored at slot `start`, from this series in
    /// place: `&self - &Series::new(start, values)` as
    /// [`add_span`](Series::add_span) is the sum.
    pub fn sub_span(&mut self, start: Slot, values: &[T]) {
        self.combine_span(start, values, |a, b| a - b);
    }

    fn combine_span(&mut self, start: Slot, values: &[T], f: impl Fn(T, T) -> T) {
        if values.is_empty() {
            return;
        }
        let end = start + values.len() as Slot;
        if self.is_empty() {
            self.start = start;
            self.values.clear();
            self.values.resize(values.len(), T::ZERO);
        } else {
            if start < self.start {
                let pad = (self.start - start) as usize;
                self.values.splice(0..0, std::iter::repeat_n(T::ZERO, pad));
                self.start = start;
            }
            if end > self.end() {
                let len = (end - self.start) as usize;
                self.values.resize(len, T::ZERO);
            }
        }
        let offset = (start - self.start) as usize;
        for (slot, &v) in self.values[offset..].iter_mut().zip(values) {
            *slot = f(*slot, v);
        }
    }

    fn ensure_contains(&mut self, slot: Slot) {
        if self.is_empty() {
            self.start = slot;
            self.values.push(T::ZERO);
            return;
        }
        if slot < self.start {
            let pad = (self.start - slot) as usize;
            let mut new_values = vec![T::ZERO; pad];
            new_values.append(&mut self.values);
            self.values = new_values;
            self.start = slot;
        } else if slot >= self.end() {
            let pad = (slot - self.end() + 1) as usize;
            self.values.extend(std::iter::repeat_n(T::ZERO, pad));
        }
    }

    /// Sum of all values.
    pub fn sum(&self) -> T {
        self.values.iter().fold(T::ZERO, |acc, v| acc + *v)
    }

    /// Applies `f` to every stored value, preserving the anchor.
    pub fn map<U: SeriesValue>(&self, f: impl Fn(T) -> U) -> Series<U> {
        Series {
            start: self.start,
            values: self.values.iter().map(|v| f(*v)).collect(),
        }
    }

    /// Converts to a `f64`-valued series.
    pub fn to_f64(&self) -> Series<f64> {
        self.map(SeriesValue::to_f64)
    }

    /// Multiplies every value by `k`.
    pub fn scaled(&self, k: T) -> Self {
        self.map(|v| v * k)
    }

    /// Pointwise combination over the union of both stored domains; slots
    /// that only one side stores contribute [`SeriesValue::ZERO`] for the
    /// other side. The result stores the full union domain.
    pub fn zip_union<U: SeriesValue, R: SeriesValue>(
        &self,
        other: &Series<U>,
        f: impl Fn(T, U) -> R,
    ) -> Series<R> {
        if self.is_empty() && other.is_empty() {
            return Series::empty();
        }
        let (lo, hi) = if self.is_empty() {
            (other.start, other.end())
        } else if other.is_empty() {
            (self.start, self.end())
        } else {
            (self.start.min(other.start), self.end().max(other.end()))
        };
        Series::from_fn(lo, (hi - lo) as usize, |slot| {
            f(self.at(slot), other.at(slot))
        })
    }
}

impl<T: SeriesValue> Default for Series<T> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<T: SeriesValue> PartialEq for Series<T> {
    /// Function equality: equal values at every slot, ignoring zero padding.
    fn eq(&self, other: &Self) -> bool {
        if self.is_empty() && other.is_empty() {
            return true;
        }
        let lo = self.start.min(other.start);
        let hi = self.end().max(other.end());
        (lo..hi).all(|slot| self.at(slot) == other.at(slot))
    }
}

impl<T: SeriesValue> fmt::Debug for Series<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Series@{}{:?}", self.start, self.values)
    }
}

impl<T: SeriesValue + fmt::Display> fmt::Display for Series<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{t={}: <", self.start)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">}}")
    }
}

impl<T: SeriesValue> FromIterator<(Slot, T)> for Series<T> {
    /// Builds a series from `(slot, value)` pairs; later pairs overwrite
    /// earlier ones at the same slot, and gaps are filled with zeros.
    fn from_iter<I: IntoIterator<Item = (Slot, T)>>(iter: I) -> Self {
        let mut s = Self::empty();
        for (slot, v) in iter {
            s.set(slot, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let s = Series::new(2, vec![1i64, 2, 3]);
        assert_eq!(s.start(), 2);
        assert_eq!(s.end(), 5);
        assert_eq!(s.len(), 3);
        assert_eq!(s.at(2), 1);
        assert_eq!(s.at(4), 3);
        assert_eq!(s.at(1), 0);
        assert_eq!(s.at(5), 0);
        assert_eq!(s.get(1), None);
        assert_eq!(s.get(2), Some(1));
    }

    #[test]
    fn empty_series_is_zero_function() {
        let s: Series<i64> = Series::empty();
        assert!(s.is_empty());
        assert_eq!(s.at(0), 0);
        assert_eq!(s.at(-100), 0);
        assert_eq!(s.sum(), 0);
        assert_eq!(s.support(), None);
    }

    #[test]
    fn function_equality_ignores_padding() {
        let a = Series::new(1, vec![0i64, 5, 0]);
        let b = Series::new(2, vec![5i64]);
        assert_eq!(a, b);
        let c = Series::new(0, vec![0i64, 0]);
        assert_eq!(c, Series::empty());
    }

    #[test]
    fn inequality_detected() {
        let a = Series::new(0, vec![1i64]);
        let b = Series::new(1, vec![1i64]);
        assert_ne!(a, b);
    }

    #[test]
    fn shifted_moves_the_function() {
        let s = Series::new(0, vec![7i64, 8]);
        let t = s.shifted(3);
        assert_eq!(t.at(3), 7);
        assert_eq!(t.at(4), 8);
        assert_eq!(t.at(0), 0);
    }

    #[test]
    fn support_and_trim() {
        let s = Series::new(0, vec![0i64, 0, 3, 0, 4, 0]);
        assert_eq!(s.support(), Some((2, 4)));
        let t = s.trimmed();
        assert_eq!(t.start(), 2);
        assert_eq!(t.values(), &[3, 0, 4]);
        assert_eq!(s, t);
    }

    #[test]
    fn restrict_clips() {
        let s = Series::new(0, vec![1i64, 2, 3, 4]);
        let r = s.restrict(1..3);
        assert_eq!(r.start(), 1);
        assert_eq!(r.values(), &[2, 3]);
        assert!(s.restrict(10..20).is_empty());
        assert!(s.restrict(3..3).is_empty());
    }

    #[test]
    fn with_domain_pads() {
        let s = Series::new(2, vec![5i64]);
        let p = s.with_domain(0..5);
        assert_eq!(p.start(), 0);
        assert_eq!(p.values(), &[0, 0, 5, 0, 0]);
        assert_eq!(p, s);
    }

    #[test]
    fn set_and_add_grow_domain() {
        let mut s: Series<i64> = Series::empty();
        s.set(3, 5);
        assert_eq!(s.values(), &[5]);
        s.add_at(1, 2);
        assert_eq!(s.start(), 1);
        assert_eq!(s.values(), &[2, 0, 5]);
        s.add_at(4, -1);
        assert_eq!(s.values(), &[2, 0, 5, -1]);
        s.add_at(3, 5);
        assert_eq!(s.at(3), 10);
    }

    #[test]
    fn zip_union_covers_both_domains() {
        let a = Series::new(0, vec![1i64, 2]);
        let b = Series::new(3, vec![10i64]);
        let c = a.zip_union(&b, |x, y| x + y);
        assert_eq!(c.start(), 0);
        assert_eq!(c.values(), &[1, 2, 0, 10]);
    }

    #[test]
    fn zip_union_with_empty() {
        let a = Series::new(5, vec![1i64]);
        let e: Series<i64> = Series::empty();
        assert_eq!(a.zip_union(&e, |x, y| x + y), a);
        assert_eq!(e.zip_union(&a, |x, y| x + y), a);
        assert!(e.zip_union(&e, |x: i64, y: i64| x + y).is_empty());
    }

    #[test]
    fn from_iter_fills_gaps() {
        let s: Series<i64> = [(2, 5), (5, 7)].into_iter().collect();
        assert_eq!(s.start(), 2);
        assert_eq!(s.values(), &[5, 0, 0, 7]);
    }

    #[test]
    fn map_scale_sum() {
        let s = Series::new(0, vec![1i64, -2, 3]);
        assert_eq!(s.sum(), 2);
        assert_eq!(s.scaled(2).values(), &[2, -4, 6]);
        let f = s.to_f64();
        assert_eq!(f.values(), &[1.0, -2.0, 3.0]);
    }

    #[test]
    fn display_format() {
        let s = Series::new(1, vec![2i64, 3]);
        assert_eq!(format!("{s}"), "{t=1: <2, 3>}");
    }
}
