//! Greedy residual-tracking scheduler.

use flexoffers_model::{Assignment, Energy, FlexOffer, Slice, TimeSlot};
use flexoffers_timeseries::Series;

use crate::error::SchedulingError;
use crate::imbalance::Schedule;
use crate::problem::{Scheduler, SchedulingProblem};

/// The order flex-offers are fitted in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderHeuristic {
    /// As given in the problem.
    InputOrder,
    /// Least time-flexible first — rigid offers get first pick of the
    /// residual, flexible ones fill what remains (the classic dispatch
    /// heuristic).
    #[default]
    LeastFlexibleFirst,
    /// Largest expected |energy| first.
    LargestEnergyFirst,
}

/// One-pass greedy scheduler: offers are fitted one at a time against the
/// *residual* target (target minus load committed so far); each offer gets
/// the start time and water-filled amounts minimising the squared-error
/// delta it causes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GreedyScheduler {
    /// Fit order.
    pub order: OrderHeuristic,
}

impl GreedyScheduler {
    /// Greedy with the default least-flexible-first order.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The best valid assignment of `fo` against a residual target, plus the
/// squared-error delta it causes. Exposed for reuse by the hill-climber.
pub fn best_fit_assignment(fo: &FlexOffer, residual: &Series<i64>) -> (Assignment, f64) {
    let n = fo.slice_count();
    let (es, ls) = (fo.earliest_start(), fo.latest_start());
    // The residual over every column some start can reach, read once; the
    // desired amounts at start `t` are its `n` values from `t - es` on.
    let window: Vec<Energy> = (es..ls + n as TimeSlot).map(|t| residual.at(t)).collect();
    let mut values: Vec<Energy> = Vec::with_capacity(n);
    let mut best_values: Vec<Energy> = Vec::with_capacity(n);
    let mut best: Option<(TimeSlot, f64)> = None;
    for (t, desired) in (es..=ls).zip(window.windows(n)) {
        water_fill(fo, desired, &mut values);
        // Delta of global squared error caused by placing these amounts:
        // sum((r - v)^2 - r^2) over the offer's columns. Comparable across
        // start times because untouched columns contribute zero.
        let delta: f64 = desired
            .iter()
            .zip(&values)
            .map(|(&r, &v)| {
                let after = (r - v) as f64;
                let before = r as f64;
                after * after - before * before
            })
            .sum();
        if best.is_none_or(|(_, d)| delta < d) {
            best = Some((t, delta));
            std::mem::swap(&mut best_values, &mut values);
        }
    }
    let (t, delta) = best.expect("start window is never empty");
    (Assignment::new(t, best_values), delta)
}

/// Per-slice clamp toward `desired`, then total-constraint repair choosing
/// the cheapest unit adjustments, written into `values`. The marginal cost
/// of moving a slice away from its desired amount grows with the distance
/// already moved, so the repair always shifts the slice currently
/// *closest* to its desired value in the helpful direction — exact for the
/// convex squared-error objective. [`drain`] takes all those unit steps at
/// once.
fn water_fill(fo: &FlexOffer, desired: &[Energy], values: &mut Vec<Energy>) {
    values.clear();
    values.extend(fo.slices().iter().zip(desired).map(|(s, &d)| s.clamp(d)));
    let total: Energy = values.iter().sum();
    if total > fo.total_max() {
        // Decrement the slices whose values exceed their desired amounts
        // the most (marginal gain 2(v-d)-1 is the largest).
        drain(values, desired, fo.slices(), 1, total - fo.total_max());
    } else if total < fo.total_min() {
        drain(values, desired, fo.slices(), -1, fo.total_min() - total);
    }
}

/// Moves `excess` units of `values` toward the slice bounds, one unit at a
/// time to the movable slice with the largest key, ties to the highest
/// index (`max_by_key`'s last maximum) — in closed form. `dir` 1 lowers
/// toward `min` with key `v - d`; `dir` -1 raises toward `max` with key
/// `d - v`. In the signed frame `u = dir * v` both lower `u` toward the
/// floor `dir * bound`, and the unit steps pour off the top key level by
/// level: after them every slice sits at `max(floor, min(u, dir * d +
/// level))` for the lowest `level` that costs at most `excess` units
/// (found by bisection), and the units left over come off the slices at
/// exactly that level, highest index first.
fn drain(values: &mut [Energy], desired: &[Energy], slices: &[Slice], dir: Energy, excess: Energy) {
    let floor = |j: usize| {
        if dir > 0 {
            slices[j].min()
        } else {
            -slices[j].max()
        }
    };
    let capped = |j: usize, u: Energy, level: Energy| floor(j).max(u.min(dir * desired[j] + level));
    let cost = |values: &[Energy], level: Energy| -> Energy {
        values
            .iter()
            .enumerate()
            .map(|(j, &v)| dir * v - capped(j, dir * v, level))
            .sum()
    };
    // At level `lo` every slice sits on its floor; at `hi` none moves
    // (cost 0). Find the lowest level in between costing <= excess.
    let (mut lo, mut hi) = (0..values.len())
        .map(|j| (floor(j) - dir * desired[j], dir * (values[j] - desired[j])))
        .reduce(|(lo, hi), (a, b)| (lo.min(a), hi.max(b)))
        .expect("an offer has at least one slice");
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cost(values, mid) <= excess {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let level = lo;
    let mut left = excess - cost(values, level);
    for (j, v) in values.iter_mut().enumerate() {
        *v = dir * capped(j, dir * *v, level);
    }
    for j in (0..values.len()).rev() {
        if left == 0 {
            break;
        }
        let u = dir * values[j];
        if u > floor(j) && u - dir * desired[j] == level {
            values[j] -= dir;
            left -= 1;
        }
    }
    assert_eq!(left, 0, "the total window guarantees repair can proceed");
}

impl GreedyScheduler {
    fn ordered_indices(&self, offers: &[FlexOffer]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..offers.len()).collect();
        match self.order {
            OrderHeuristic::InputOrder => {}
            OrderHeuristic::LeastFlexibleFirst => {
                idx.sort_by_key(|&i| {
                    (offers[i].time_flexibility(), offers[i].energy_flexibility())
                });
            }
            OrderHeuristic::LargestEnergyFirst => {
                idx.sort_by_key(|&i| -(offers[i].total_min().abs() + offers[i].total_max().abs()));
            }
        }
        idx
    }
}

impl Scheduler for GreedyScheduler {
    fn name(&self) -> &'static str {
        "greedy residual tracking"
    }

    fn schedule(&self, problem: &SchedulingProblem) -> Result<Schedule, SchedulingError> {
        let offers = problem.offers();
        let mut residual = problem.target().clone();
        let mut assignments: Vec<Option<Assignment>> = vec![None; offers.len()];
        for i in self.ordered_indices(offers) {
            let (assignment, _) = best_fit_assignment(&offers[i], &residual);
            residual.sub_span(assignment.start(), assignment.values());
            assignments[i] = Some(assignment);
        }
        Ok(Schedule::new(
            assignments
                .into_iter()
                .map(|a| a.expect("every offer fitted"))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_timeseries::Series;
    use proptest::prelude::*;

    #[test]
    fn tracks_a_trackable_target_exactly() {
        // One offer can match the target perfectly by shifting to slot 2.
        let fo = FlexOffer::new(
            0,
            3,
            vec![Slice::new(0, 5).unwrap(), Slice::new(0, 5).unwrap()],
        )
        .unwrap();
        let target = Series::new(2, vec![3, 4]);
        let p = SchedulingProblem::new(vec![fo], target.clone());
        let s = GreedyScheduler::new().schedule(&p).unwrap();
        assert!(p.is_feasible(&s));
        assert_eq!(s.imbalance(&target).l1, 0.0);
        assert_eq!(s.assignments()[0].start(), 2);
    }

    #[test]
    fn beats_or_matches_baseline() {
        use crate::baseline::EarliestStartScheduler;
        let offers = vec![
            FlexOffer::new(0, 4, vec![Slice::new(0, 3).unwrap()]).unwrap(),
            FlexOffer::new(
                0,
                4,
                vec![Slice::new(1, 4).unwrap(), Slice::new(0, 2).unwrap()],
            )
            .unwrap(),
            FlexOffer::new(2, 6, vec![Slice::new(0, 2).unwrap()]).unwrap(),
        ];
        let target = Series::new(3, vec![4, 4, 2]);
        let p = SchedulingProblem::new(offers, target.clone());
        let greedy = GreedyScheduler::new().schedule(&p).unwrap();
        let base = EarliestStartScheduler.schedule(&p).unwrap();
        assert!(p.is_feasible(&greedy));
        assert!(greedy.imbalance(&target).l2 <= base.imbalance(&target).l2);
    }

    #[test]
    fn water_fill_respects_totals_and_tracks_desired() {
        let fo = FlexOffer::with_totals(
            0,
            0,
            vec![Slice::new(0, 5).unwrap(), Slice::new(0, 5).unwrap()],
            4,
            6,
        )
        .unwrap();
        // Desired total 10 must shrink to 6, taken from the most
        // over-desired slices evenly.
        let mut v = Vec::new();
        water_fill(&fo, &[5, 5], &mut v);
        assert_eq!(v, [3, 3]);
        assert!(fo.is_valid_assignment(&Assignment::new(0, v.clone())));
        // Desired total 0 must rise to 4.
        water_fill(&fo, &[0, 0], &mut v);
        assert_eq!(v, [2, 2]);
    }

    /// The unit-step repair [`water_fill`] replaced: clamp, then one unit
    /// at a time to the slice with the largest key (`max_by_key`, so ties
    /// go to the last index) until the total fits.
    fn water_fill_unit_steps(fo: &FlexOffer, desired: &[Energy]) -> Vec<Energy> {
        let mut values: Vec<Energy> = fo
            .slices()
            .iter()
            .zip(desired)
            .map(|(s, &d)| s.clamp(d))
            .collect();
        let mut total: Energy = values.iter().sum();
        while total > fo.total_max() {
            let j = (0..values.len())
                .filter(|&j| values[j] > fo.slices()[j].min())
                .max_by_key(|&j| values[j] - desired[j])
                .expect("cmin <= sum(amin) guarantees repair can proceed");
            values[j] -= 1;
            total -= 1;
        }
        while total < fo.total_min() {
            let j = (0..values.len())
                .filter(|&j| values[j] < fo.slices()[j].max())
                .max_by_key(|&j| desired[j] - values[j])
                .expect("cmax >= sum(amax) guarantees repair can proceed");
            values[j] += 1;
            total += 1;
        }
        values
    }

    /// A random offer with its total window anywhere inside the slice
    /// bounds' sum range, and a desired profile around (and beyond) the
    /// slice ranges. Small ranges make equal keys (ties) common; the
    /// window decides the repair direction.
    fn arb_fill() -> impl Strategy<Value = (FlexOffer, Vec<Energy>)> {
        (
            prop::collection::vec((-6i64..4, 0i64..5, -9i64..10), 1..7),
            0i64..1000,
            0i64..1000,
        )
            .prop_map(|(raw, a, b)| {
                let slices: Vec<Slice> = raw
                    .iter()
                    .map(|&(min, width, _)| Slice::new(min, min + width).unwrap())
                    .collect();
                let lo: Energy = slices.iter().map(Slice::min).sum();
                let hi: Energy = slices.iter().map(Slice::max).sum();
                let span = hi - lo + 1;
                let (x, y) = (lo + a % span, lo + b % span);
                let fo = FlexOffer::with_totals(0, 0, slices, x.min(y), x.max(y)).unwrap();
                let desired = raw.iter().map(|&(_, _, d)| d).collect();
                (fo, desired)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn closed_form_water_fill_matches_the_unit_steps(case in arb_fill()) {
            let (fo, desired) = case;
            let mut values = vec![99; 3];
            water_fill(&fo, &desired, &mut values);
            prop_assert_eq!(&values, &water_fill_unit_steps(&fo, &desired), "{}", fo);
        }
    }

    #[test]
    fn production_offers_track_negative_targets() {
        let fo = FlexOffer::new(0, 2, vec![Slice::new(-4, 0).unwrap()]).unwrap();
        let target = Series::new(1, vec![-3]);
        let p = SchedulingProblem::new(vec![fo], target.clone());
        let s = GreedyScheduler::new().schedule(&p).unwrap();
        assert!(p.is_feasible(&s));
        assert_eq!(s.imbalance(&target).l1, 0.0);
    }

    #[test]
    fn order_heuristics_cover_all_offers() {
        let offers = vec![
            FlexOffer::new(0, 9, vec![Slice::new(0, 1).unwrap()]).unwrap(),
            FlexOffer::new(0, 0, vec![Slice::new(5, 9).unwrap()]).unwrap(),
        ];
        for order in [
            OrderHeuristic::InputOrder,
            OrderHeuristic::LeastFlexibleFirst,
            OrderHeuristic::LargestEnergyFirst,
        ] {
            let p = SchedulingProblem::new(offers.clone(), Series::new(0, vec![5]));
            let s = GreedyScheduler { order }.schedule(&p).unwrap();
            assert!(p.is_feasible(&s));
        }
    }

    #[test]
    fn best_fit_prefers_aligned_start() {
        let fo = FlexOffer::new(0, 5, vec![Slice::new(2, 2).unwrap()]).unwrap();
        let residual = Series::new(4, vec![2]);
        let (a, delta) = best_fit_assignment(&fo, &residual);
        assert_eq!(a.start(), 4);
        assert!(delta < 0.0);
    }
}
