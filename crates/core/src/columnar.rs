//! Struct-of-arrays kernels for the measure and baseline hot paths.
//!
//! The row-oriented hot loop ([`Measure::of_prepared`] per offer) touches
//! every offer's `FlexOffer` allocation once per measure and re-derives
//! shared intermediates (profile sums, assignment series, the union-area
//! sweep's scratch) per offer, per call. A [`ColumnarBatch`] flips the
//! layout: one `load` pass flattens a chunk of offers into contiguous
//! columns, and each measure then runs as a single pass over those columns
//! ([`ColumnarBatch::eval_into`]) — no per-offer allocation, no virtual
//! dispatch inside the loop, and the union-area sweep reuses one arena of
//! scratch buffers for the whole chunk.
//!
//! # Layout invariants
//!
//! A loaded batch of `n` offers holds:
//!
//! * **Per-offer columns**, all of length `n`, index-aligned with the
//!   loaded slice: `tes` (earliest start), `tf` (time flexibility
//!   `tls - tes`), `total_min`/`total_max` (the paper's `cmin`/`cmax`),
//!   and the profile span `(slice_start, slice_len)`.
//! * **Per-slice columns** `es_min`/`es_max`: every offer's slice bounds
//!   flattened back to back, so offer `i`'s slices occupy
//!   `es_min[slice_start[i] .. slice_start[i] + slice_len[i]]` (and the
//!   same range of `es_max`). `slice_start` is monotone:
//!   `slice_start[i] + slice_len[i] == slice_start[i + 1]`.
//! * **Lazy union sizes** `union_size`, filled on the first area-measure
//!   kernel and reused by both area measures (mirroring how a
//!   [`PreparedOffer`] shares one union per offer).
//!
//! `load` truncates and refills every column in place, retaining
//! capacity — a batch reloaded with a same-sized chunk allocates nothing.
//!
//! # Bitwise identity
//!
//! Every kernel replicates the scalar measure's arithmetic operation for
//! operation — same integer expressions, same `f64` accumulation order,
//! same error precedence — so for any offer the columnar value (or error)
//! is **bitwise identical** to [`Measure::of_prepared`]. That is what
//! lets the portfolio engine evaluate every pass through a batch; its
//! proptests pin the identity for all eight measures, the kernel-less
//! fallback and the baseline at arbitrary threads × chunking.

use std::borrow::Borrow;

use flexoffers_area::{ColumnExtent, UnionArea};
use flexoffers_model::{FlexOffer, SignClass};
use flexoffers_timeseries::{Norm, Series};

use crate::abs_area::MixedPolicy;
use crate::assignments::CountScale;
use crate::error::MeasureError;
use crate::measure::Measure;
use crate::prepared::PreparedOffer;

/// One per-offer row of measure values, in measure order.
type Row = Vec<Result<f64, MeasureError>>;

/// The columnar kernel evaluating one measure as a single pass over a
/// [`ColumnarBatch`]'s columns. A measure advertises its kernel through
/// [`Measure::columnar_kernel`]; measures without one (the constrained
/// assignment count, wrappers like the weighted combination) fall back to
/// the scalar [`Measure::of_prepared`] path inside
/// [`ColumnarBatch::rows`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ColumnarKernel {
    /// Time flexibility `tls - tes`.
    Time,
    /// Energy flexibility `cmax - cmin`.
    Energy,
    /// Product flexibility `tf * ef`.
    Product,
    /// Vector flexibility: the norm of `<tf, ef>`.
    Vector(Norm),
    /// Time-series flexibility: the norm of `f_max - f_min`.
    TimeSeries(Norm),
    /// Unconstrained assignment count (Definition 8) at the given scale.
    /// The constrained `|L(f)|` count has no columnar kernel.
    Assignments(CountScale),
    /// Absolute area flexibility under the given mixed-sign policy.
    AbsArea(MixedPolicy),
    /// Relative area flexibility under the given mixed-sign policy.
    RelArea(MixedPolicy),
}

/// A monotonic sliding-window deque over slice indices, backed by a
/// reusable buffer (indices are only appended; the front advances through
/// a head cursor). Replaces the per-offer `VecDeque` allocations of the
/// scalar union sweep.
#[derive(Debug, Default)]
struct MonoDeque {
    buf: Vec<usize>,
    head: usize,
}

impl MonoDeque {
    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

    fn front(&self) -> Option<usize> {
        self.buf.get(self.head).copied()
    }

    fn back(&self) -> Option<usize> {
        if self.buf.len() > self.head {
            self.buf.last().copied()
        } else {
            None
        }
    }

    fn push_back(&mut self, i: usize) {
        self.buf.push(i);
    }

    fn pop_back(&mut self) {
        self.buf.pop();
    }

    fn pop_front(&mut self) {
        self.head += 1;
    }
}

/// A struct-of-arrays view of a chunk of flex-offers plus the scratch
/// arena the kernels run in — see the module docs for the layout
/// invariants. Create once ([`ColumnarBatch::new`]), [`load`] per chunk;
/// all buffers retain capacity across loads.
///
/// The portfolio engine's only evaluation route: every measure pass
/// ([`columns`](ColumnarBatch::columns), [`rows`](ColumnarBatch::rows))
/// and every baseline pass
/// ([`baseline_partial`](ColumnarBatch::baseline_partial)) runs through a
/// batch, with kernel-less measures evaluated per offer inside it.
///
/// [`load`]: ColumnarBatch::load
#[derive(Debug, Default)]
pub struct ColumnarBatch {
    // Per-offer columns.
    tes: Vec<i64>,
    tf: Vec<i64>,
    total_min: Vec<i64>,
    total_max: Vec<i64>,
    slice_start: Vec<usize>,
    slice_len: Vec<usize>,
    // Per-slice columns (flattened).
    es_min: Vec<i64>,
    es_max: Vec<i64>,
    // Per-offer sign class, derived during the same load pass that
    // flattens the slices (the area kernels would otherwise re-scan every
    // offer's slices per evaluation).
    sign: Vec<SignClass>,
    // Lazy per-offer union-area sizes.
    union_size: Vec<u64>,
    union_ready: bool,
    // Scratch: per-slice achievable bands and the sweep's deques.
    band_above: Vec<i64>,
    band_below: Vec<i64>,
    dq_above: MonoDeque,
    dq_below: MonoDeque,
    // Scratch: the baseline's per-offer fitted midpoints.
    fit_buf: Vec<i64>,
    // Scratch: the time-series kernel's per-offer difference values.
    ts_buf: Vec<f64>,
}

impl ColumnarBatch {
    /// An empty batch. Buffers grow on first [`load`](ColumnarBatch::load)
    /// and are retained afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of offers currently loaded.
    pub fn len(&self) -> usize {
        self.tes.len()
    }

    /// `true` when no offers are loaded.
    pub fn is_empty(&self) -> bool {
        self.tes.is_empty()
    }

    /// Flattens `offers` into the batch's columns, replacing any previous
    /// load. Capacity is retained — reloading a same-sized chunk allocates
    /// nothing. Owned offers and borrowed views (`&[&FlexOffer]`) load
    /// alike.
    pub fn load<O: Borrow<FlexOffer>>(&mut self, offers: &[O]) {
        self.tes.clear();
        self.tf.clear();
        self.total_min.clear();
        self.total_max.clear();
        self.slice_start.clear();
        self.slice_len.clear();
        self.es_min.clear();
        self.es_max.clear();
        self.sign.clear();
        self.union_size.clear();
        self.union_ready = false;

        self.tes.reserve(offers.len());
        self.tf.reserve(offers.len());
        self.total_min.reserve(offers.len());
        self.total_max.reserve(offers.len());
        self.slice_start.reserve(offers.len());
        self.slice_len.reserve(offers.len());
        self.sign.reserve(offers.len());
        for fo in offers {
            let fo = fo.borrow();
            self.tes.push(fo.earliest_start());
            self.tf.push(fo.time_flexibility());
            self.total_min.push(fo.total_min());
            self.total_max.push(fo.total_max());
            self.slice_start.push(self.es_min.len());
            self.slice_len.push(fo.slice_count());
            let mut any_pos = false;
            let mut any_neg = false;
            for s in fo.slices() {
                any_pos |= s.max() > 0;
                any_neg |= s.min() < 0;
                self.es_min.push(s.min());
                self.es_max.push(s.max());
            }
            self.sign.push(match (any_pos, any_neg) {
                (false, false) => SignClass::Zero,
                (true, false) => SignClass::Positive,
                (false, true) => SignClass::Negative,
                (true, true) => SignClass::Mixed,
            });
        }
    }

    /// Offer `i`'s slice-bound columns.
    fn slices_of(&self, i: usize) -> (&[i64], &[i64]) {
        let range = self.slice_start[i]..self.slice_start[i] + self.slice_len[i];
        (&self.es_min[range.clone()], &self.es_max[range])
    }

    /// The absolute-area measure's inflexible base for offer `i` — the
    /// columnar mirror of `AbsoluteAreaFlexibility::inflexible_base`,
    /// reading the sign class the load pass derived (the same
    /// any-positive/any-negative scan [`SignClass::of`] runs).
    fn inflexible_base(&self, i: usize, policy: MixedPolicy) -> Result<i64, MeasureError> {
        match self.sign[i] {
            SignClass::Positive | SignClass::Zero => Ok(self.total_min[i]),
            SignClass::Negative => Ok(-self.total_max[i]),
            SignClass::Mixed => match policy {
                MixedPolicy::DefinitionLiteral => Ok(self.total_min[i]),
                MixedPolicy::Reject => Err(MeasureError::MixedNotSupported {
                    measure: "Abs. Area",
                }),
            },
        }
    }

    /// Runs offer `i`'s union-area sweep — achievable bands from hoisted
    /// profile sums, then the monotonic-deque sliding maxima over the
    /// occupancy window — emitting one `(slot, above, below)` extent per
    /// column. Integer arithmetic throughout, identical per column to
    /// [`flexoffers_area::union_area`]; the profile sums are computed once
    /// per offer here where the scalar `achievable_band` re-derives them
    /// per slice.
    fn union_columns(&mut self, i: usize, mut emit: impl FnMut(i64, u64, u64)) {
        let start = self.slice_start[i];
        let len = self.slice_len[i];
        let s_min = &self.es_min[start..start + len];
        let s_max = &self.es_max[start..start + len];
        let profile_min: i64 = s_min.iter().sum();
        let profile_max: i64 = s_max.iter().sum();
        let tes = self.tes[i];

        if self.tf[i] == 0 {
            // No start flexibility: each column holds exactly one slice, so
            // the sliding-maxima window is a single band — emit it directly,
            // no band storage, no deques.
            for k in 0..len {
                let others_min = profile_min - s_min[k];
                let others_max = profile_max - s_max[k];
                let hi = s_max[k].min(self.total_max[i] - others_min);
                let lo = s_min[k].max(self.total_min[i] - others_max);
                debug_assert!(lo <= hi, "achievable band empty for slice {k}");
                emit(tes + k as i64, hi.max(0) as u64, (-lo).max(0) as u64);
            }
            return;
        }

        self.band_above.clear();
        self.band_below.clear();
        for k in 0..len {
            let others_min = profile_min - s_min[k];
            let others_max = profile_max - s_max[k];
            let hi = s_max[k].min(self.total_max[i] - others_min);
            let lo = s_min[k].max(self.total_min[i] - others_max);
            debug_assert!(lo <= hi, "achievable band empty for slice {k}");
            self.band_above.push(hi.max(0));
            self.band_below.push((-lo).max(0));
        }

        let tls = tes + self.tf[i];
        self.dq_above.clear();
        self.dq_below.clear();
        for c in tes..tls + len as i64 {
            let enter = c - tes;
            let leave = c - tls;
            if enter >= 0 && (enter as usize) < len {
                let k = enter as usize;
                while self
                    .dq_above
                    .back()
                    .is_some_and(|j| self.band_above[j] <= self.band_above[k])
                {
                    self.dq_above.pop_back();
                }
                self.dq_above.push_back(k);
                while self
                    .dq_below
                    .back()
                    .is_some_and(|j| self.band_below[j] <= self.band_below[k])
                {
                    self.dq_below.pop_back();
                }
                self.dq_below.push_back(k);
            }
            while self.dq_above.front().is_some_and(|j| (j as i64) < leave) {
                self.dq_above.pop_front();
            }
            while self.dq_below.front().is_some_and(|j| (j as i64) < leave) {
                self.dq_below.pop_front();
            }
            let above = self.dq_above.front().map_or(0, |j| self.band_above[j]) as u64;
            let below = self.dq_below.front().map_or(0, |j| self.band_below[j]) as u64;
            emit(c, above, below);
        }
    }

    /// Fills the `union_size` column (one sweep per offer) if it is not
    /// already warm. Both area kernels share the result, exactly as the
    /// two scalar area measures share one [`PreparedOffer`] union.
    fn ensure_union(&mut self) {
        if self.union_ready {
            return;
        }
        for i in 0..self.len() {
            let mut size = 0u64;
            self.union_columns(i, |_, above, below| size += above + below);
            self.union_size.push(size);
        }
        self.union_ready = true;
    }

    /// Materialises offer `i`'s full [`UnionArea`] (per-column extents,
    /// not just the size) from the batch's columns — what
    /// [`ColumnarBatch::rows`] injects into fallback [`PreparedOffer`]s
    /// via [`PreparedOffer::with_union`], so scalar-path measures in a
    /// mixed measure set never re-run the sweep.
    pub fn union_area_of(&mut self, i: usize) -> UnionArea {
        let mut columns = Vec::with_capacity(self.tf[i] as usize + self.slice_len[i]);
        self.union_columns(i, |slot, above, below| {
            columns.push(ColumnExtent { slot, above, below });
        });
        UnionArea::from_columns(columns)
    }

    /// The unconstrained assignment count for offer `i` — the columnar
    /// mirror of `FlexOffer::unconstrained_assignment_count` (same checked
    /// `u128` product, same overflow signalling).
    fn unconstrained_count(&self, i: usize) -> Option<u128> {
        let (mins, maxes) = self.slices_of(i);
        let mut product: u128 = (self.tf[i] as u128).checked_add(1)?;
        for (&lo, &hi) in mins.iter().zip(maxes) {
            let cardinality = (hi - lo) as u64 + 1;
            product = product.checked_mul(cardinality as u128)?;
        }
        Some(product)
    }

    /// The base-2 logarithm of offer `i`'s assignment count — the columnar
    /// mirror of `FlexOffer::log2_assignment_count`, accumulating in the
    /// same slice order so the float result is bitwise identical.
    fn log2_count(&self, i: usize) -> f64 {
        let (mins, maxes) = self.slices_of(i);
        let mut log = ((self.tf[i] + 1) as f64).log2();
        for (&lo, &hi) in mins.iter().zip(maxes) {
            let cardinality = (hi - lo) as u64 + 1;
            log += (cardinality as f64).log2();
        }
        log
    }

    /// Evaluates `kernel` over every loaded offer in one pass, replacing
    /// `out`'s contents with one value (or error) per offer in load order.
    /// Each value is bitwise identical to the corresponding scalar
    /// measure's [`Measure::of_prepared`].
    pub fn eval_into(&mut self, kernel: ColumnarKernel, out: &mut Vec<Result<f64, MeasureError>>) {
        out.clear();
        out.reserve(self.len());
        match kernel {
            ColumnarKernel::Time => {
                out.extend(self.tf.iter().map(|&tf| Ok(tf as f64)));
            }
            ColumnarKernel::Energy => {
                out.extend(
                    self.total_min
                        .iter()
                        .zip(&self.total_max)
                        .map(|(&lo, &hi)| Ok((hi - lo) as f64)),
                );
            }
            ColumnarKernel::Product => {
                out.extend(
                    self.tf
                        .iter()
                        .zip(self.total_min.iter().zip(&self.total_max))
                        .map(|(&tf, (&lo, &hi))| Ok(tf as f64 * (hi - lo) as f64)),
                );
            }
            ColumnarKernel::Vector(norm) => {
                out.extend(
                    self.tf
                        .iter()
                        .zip(self.total_min.iter().zip(&self.total_max))
                        .map(|(&tf, (&lo, &hi))| Ok(norm.of_vec2(tf as f64, (hi - lo) as f64))),
                );
            }
            ColumnarKernel::TimeSeries(norm) => {
                for i in 0..self.len() {
                    let start = self.slice_start[i];
                    let len = self.slice_len[i];
                    let mins = &self.es_min[start..start + len];
                    let maxes = &self.es_max[start..start + len];
                    let tf = self.tf[i] as usize;
                    // The difference series f_max - f_min over its stored
                    // domain tes .. tls + s (tf + len slots), in slot
                    // order — the exact value stream `Norm::of` reads off
                    // the materialised series. f_min occupies the first
                    // `len` slots, f_max the last `len`; filled segment by
                    // segment (min-only head, overlap, zero gap, max-only
                    // tail) so the hot loops are branch-free, producing
                    // the identical f64 per slot.
                    let buf = &mut self.ts_buf;
                    buf.clear();
                    let head = tf.min(len);
                    for &lo in &mins[..head] {
                        buf.push((0 - lo) as f64);
                    }
                    if tf < len {
                        for (&hi, &lo) in maxes[..len - tf].iter().zip(&mins[tf..]) {
                            buf.push((hi - lo) as f64);
                        }
                    } else {
                        buf.resize(tf, 0.0);
                    }
                    for &hi in &maxes[len - head..] {
                        buf.push(hi as f64);
                    }
                    debug_assert_eq!(buf.len(), tf + len);
                    out.push(Ok(norm.of_values(buf.iter().copied())));
                }
            }
            ColumnarKernel::Assignments(scale) => {
                for i in 0..self.len() {
                    out.push(match scale {
                        CountScale::Linear => Ok(match self.unconstrained_count(i) {
                            Some(n) => n as f64,
                            None => self.log2_count(i).exp2(),
                        }),
                        CountScale::Log2 => Ok(self.log2_count(i)),
                    });
                }
            }
            ColumnarKernel::AbsArea(policy) => {
                self.ensure_union();
                for i in 0..self.len() {
                    out.push(
                        self.inflexible_base(i, policy)
                            .map(|base| self.union_size[i] as f64 - base as f64),
                    );
                }
            }
            ColumnarKernel::RelArea(policy) => {
                self.ensure_union();
                for i in 0..self.len() {
                    // Denominator check first, then the mixed-policy
                    // check — the scalar measure's error precedence.
                    let denominator =
                        self.total_min[i].unsigned_abs() + self.total_max[i].unsigned_abs();
                    if denominator == 0 {
                        out.push(Err(MeasureError::UndefinedDenominator));
                        continue;
                    }
                    out.push(self.inflexible_base(i, policy).map(|base| {
                        let abs = self.union_size[i] as f64 - base as f64;
                        2.0 * abs / denominator as f64
                    }));
                }
            }
        }
    }

    /// Per-measure columns of `measures` over `offers` — loads the batch,
    /// runs every kernel-backed measure as a columnar pass, and evaluates
    /// the rest through one [`PreparedOffer`] per offer (seeded with the
    /// batch's cached union when the area kernels already swept it). The
    /// result is measure-major: `columns[j][i]` is measure `j` on offer
    /// `i`, bitwise identical to the scalar prepared-offer loop. Reducing
    /// straight off these columns (the engine's portfolio summaries do)
    /// skips the row transpose entirely.
    pub fn columns<O: Borrow<FlexOffer>>(
        &mut self,
        offers: &[O],
        measures: &[Box<dyn Measure>],
    ) -> Vec<Vec<Result<f64, MeasureError>>> {
        self.load(offers);
        let kernels: Vec<Option<ColumnarKernel>> =
            measures.iter().map(|m| m.columnar_kernel()).collect();
        let mut columns: Vec<Vec<Result<f64, MeasureError>>> =
            measures.iter().map(|_| Vec::new()).collect();
        for (j, kernel) in kernels.iter().enumerate() {
            if let Some(kernel) = *kernel {
                let mut column = std::mem::take(&mut columns[j]);
                self.eval_into(kernel, &mut column);
                columns[j] = column;
            }
        }
        if kernels.iter().any(Option::is_none) {
            for (i, fo) in offers.iter().enumerate() {
                let fo = fo.borrow();
                let prepared = if self.union_ready {
                    PreparedOffer::with_union(fo, self.union_area_of(i))
                } else {
                    PreparedOffer::new(fo)
                };
                for (j, kernel) in kernels.iter().enumerate() {
                    if kernel.is_none() {
                        columns[j].push(measures[j].of_prepared(&prepared));
                    }
                }
            }
        }
        columns
    }

    /// Per-offer rows of `measures` over `offers` —
    /// [`columns`](ColumnarBatch::columns) transposed back to the offer ×
    /// measure layout of the scalar prepared-offer loop, bitwise
    /// identical to it.
    pub fn rows<O: Borrow<FlexOffer>>(
        &mut self,
        offers: &[O],
        measures: &[Box<dyn Measure>],
    ) -> Vec<Row> {
        let columns = self.columns(offers, measures);
        (0..offers.len())
            .map(|i| columns.iter().map(|column| column[i].clone()).collect())
            .collect()
    }

    /// The no-flexibility baseline load of `offers` — the columnar mirror
    /// of the market crate's earliest-start midpoint baseline
    /// (`baseline_load`): per offer, slice midpoints fitted to the total
    /// bounds by the same forward drop/raise passes, accumulated into one
    /// dense series anchored at the chunk's earliest start. Integer
    /// arithmetic throughout; the returned series matches the scalar fold
    /// representation exactly (same anchor, same stored span), so chunked
    /// partials merge bitwise identically.
    pub fn baseline_partial<O: Borrow<FlexOffer>>(&mut self, offers: &[O]) -> Series<i64> {
        self.load(offers);
        if self.is_empty() {
            return Series::empty();
        }
        let lo = self.tes.iter().copied().min().expect("non-empty batch");
        let hi = self
            .tes
            .iter()
            .zip(&self.slice_len)
            .map(|(&tes, &len)| tes + len as i64)
            .max()
            .expect("non-empty batch");
        let mut acc = vec![0i64; (hi - lo) as usize];
        for i in 0..self.len() {
            let start = self.slice_start[i];
            let len = self.slice_len[i];
            self.fit_buf.clear();
            for k in start..start + len {
                let (min, max) = (self.es_min[k], self.es_max[k]);
                self.fit_buf.push(min + (max - min) / 2);
            }
            // The market crate's `fit`: one forward pass dropping toward
            // cmax, one forward pass raising toward cmin.
            let mut total: i64 = self.fit_buf.iter().sum();
            for (v, k) in self.fit_buf.iter_mut().zip(start..start + len) {
                if total <= self.total_max[i] {
                    break;
                }
                let drop = (*v - self.es_min[k]).min(total - self.total_max[i]);
                *v -= drop;
                total -= drop;
            }
            for (v, k) in self.fit_buf.iter_mut().zip(start..start + len) {
                if total >= self.total_min[i] {
                    break;
                }
                let add = (self.es_max[k] - *v).min(self.total_min[i] - total);
                *v += add;
                total += add;
            }
            let offset = (self.tes[i] - lo) as usize;
            for (k, v) in self.fit_buf.iter().enumerate() {
                acc[offset + k] += v;
            }
        }
        Series::new(lo, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::all_measures;
    use flexoffers_area::union_area;
    use flexoffers_model::Slice;

    fn figure1() -> FlexOffer {
        FlexOffer::new(
            1,
            6,
            vec![
                Slice::new(1, 3).unwrap(),
                Slice::new(2, 4).unwrap(),
                Slice::new(0, 5).unwrap(),
                Slice::new(0, 3).unwrap(),
            ],
        )
        .unwrap()
    }

    fn mixed() -> FlexOffer {
        // The paper's Figure 7 f6 — mixed sign, union area 24.
        FlexOffer::new(
            0,
            2,
            vec![
                Slice::new(-1, 2).unwrap(),
                Slice::new(-4, -1).unwrap(),
                Slice::new(-3, 1).unwrap(),
            ],
        )
        .unwrap()
    }

    fn batch_of(offers: &[FlexOffer]) -> ColumnarBatch {
        let mut batch = ColumnarBatch::new();
        batch.load(offers);
        batch
    }

    #[test]
    fn load_flattens_and_reload_reuses() {
        let offers = vec![figure1(), mixed()];
        let mut batch = batch_of(&offers);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.slice_len, vec![4, 3]);
        assert_eq!(batch.slice_start, vec![0, 4]);
        assert_eq!(batch.es_min.len(), 7);
        batch.load(&offers[..1]);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.es_min.len(), 4);
        batch.load::<FlexOffer>(&[]);
        assert!(batch.is_empty());
    }

    #[test]
    fn union_sizes_match_the_scalar_sweep() {
        let offers = vec![
            figure1(),
            mixed(),
            FlexOffer::new(0, 4, vec![Slice::new(2, 2).unwrap()]).unwrap(),
            FlexOffer::with_totals(
                0,
                0,
                vec![Slice::new(0, 5).unwrap(), Slice::new(0, 5).unwrap()],
                0,
                4,
            )
            .unwrap(),
        ];
        let mut batch = batch_of(&offers);
        batch.ensure_union();
        for (i, fo) in offers.iter().enumerate() {
            assert_eq!(batch.union_size[i], union_area(fo).size(), "offer {i}");
            assert_eq!(batch.union_area_of(i), union_area(fo), "offer {i}");
        }
    }

    #[test]
    fn rows_match_the_prepared_offer_loop_bitwise() {
        let offers = vec![figure1(), mixed()];
        let measures = all_measures();
        let rows = ColumnarBatch::new().rows(&offers, &measures);
        for (fo, row) in offers.iter().zip(&rows) {
            let prepared = PreparedOffer::new(fo);
            for (m, got) in measures.iter().zip(row) {
                assert_eq!(*got, m.of_prepared(&prepared), "{}", m.name());
            }
        }
    }

    #[test]
    fn fallback_measures_ride_along_with_the_cached_union() {
        // A set mixing kernel-backed area measures with a kernel-less one
        // (the constrained count): the fallback path must produce scalar
        // values and the kernels must still run.
        let offers = vec![figure1()];
        let measures: Vec<Box<dyn Measure>> = vec![
            Box::new(crate::abs_area::AbsoluteAreaFlexibility::default()),
            Box::new(crate::assignments::AssignmentFlexibility::exact()),
        ];
        assert!(measures[1].columnar_kernel().is_none());
        let rows = ColumnarBatch::new().rows(&offers, &measures);
        let prepared = PreparedOffer::new(&offers[0]);
        assert_eq!(rows[0][0], measures[0].of_prepared(&prepared));
        assert_eq!(rows[0][1], measures[1].of_prepared(&prepared));
    }

    #[test]
    fn empty_batch_yields_no_rows_and_an_empty_baseline() {
        let mut batch = ColumnarBatch::new();
        assert!(batch.rows::<FlexOffer>(&[], &all_measures()).is_empty());
        assert!(batch.baseline_partial::<FlexOffer>(&[]).is_empty());
    }

    #[test]
    fn rel_area_error_precedence_is_denominator_first() {
        // A zero mixed offer is impossible; use a zero offer (denominator
        // 0) and a mixed offer under Reject to see both errors.
        let zero = FlexOffer::new(0, 1, vec![Slice::new(0, 0).unwrap()]).unwrap();
        let offers = vec![zero, mixed()];
        let mut batch = batch_of(&offers);
        let mut out = Vec::new();
        batch.eval_into(ColumnarKernel::RelArea(MixedPolicy::Reject), &mut out);
        assert_eq!(out[0], Err(MeasureError::UndefinedDenominator));
        assert_eq!(
            out[1],
            Err(MeasureError::MixedNotSupported {
                measure: "Abs. Area"
            })
        );
    }
}
