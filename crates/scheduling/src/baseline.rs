//! The no-flexibility baseline scheduler.

use flexoffers_model::{Assignment, Energy, FlexOffer};

use crate::error::SchedulingError;
use crate::imbalance::Schedule;
use crate::problem::{Scheduler, SchedulingProblem};

/// Schedules every flex-offer at its earliest start with midpoint amounts —
/// the behaviour of a grid that ignores flexibility entirely. Experiments
/// use it as the "inflexible world" reference: the value of flexibility is
/// whatever a real scheduler saves relative to this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EarliestStartScheduler;

/// Clamps `values` into the flex-offer's total energy window by walking
/// amounts toward slice bounds, spreading the adjustment across slices.
/// Values must already respect the per-slice ranges.
pub(crate) fn fit_totals(fo: &FlexOffer, mut values: Vec<Energy>) -> Vec<Energy> {
    let mut total: Energy = values.iter().sum();
    while total > fo.total_max() {
        let mut need = total - fo.total_max();
        for (v, s) in values.iter_mut().zip(fo.slices()) {
            let drop = (*v - s.min()).min(need);
            *v -= drop;
            need -= drop;
            if need == 0 {
                break;
            }
        }
        total = fo.total_max();
    }
    while total < fo.total_min() {
        let mut need = fo.total_min() - total;
        for (v, s) in values.iter_mut().zip(fo.slices()) {
            let add = (s.max() - *v).min(need);
            *v += add;
            need -= add;
            if need == 0 {
                break;
            }
        }
        total = fo.total_min();
    }
    values
}

/// The baseline assignment for one flex-offer: earliest start, midpoint
/// amounts clamped into the total-energy window. A pure per-offer function
/// — [`EarliestStartScheduler`] maps it over the problem, and partitioned
/// evaluators (the serving tier's live book) map it per shard and
/// scatter, producing the exact same schedule.
pub fn earliest_start_assignment(fo: &FlexOffer) -> Assignment {
    let midpoints: Vec<Energy> = fo.slices().iter().map(|s| s.midpoint()).collect();
    Assignment::new(fo.earliest_start(), fit_totals(fo, midpoints))
}

impl Scheduler for EarliestStartScheduler {
    fn name(&self) -> &'static str {
        "earliest-start baseline"
    }

    fn schedule(&self, problem: &SchedulingProblem) -> Result<Schedule, SchedulingError> {
        Ok(Schedule::new(
            problem
                .offers()
                .iter()
                .map(earliest_start_assignment)
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::Slice;
    use flexoffers_timeseries::Series;

    #[test]
    fn baseline_is_always_feasible() {
        let problem = SchedulingProblem::new(
            vec![
                FlexOffer::new(0, 5, vec![Slice::new(0, 4).unwrap()]).unwrap(),
                FlexOffer::with_totals(
                    1,
                    3,
                    vec![Slice::new(0, 5).unwrap(), Slice::new(0, 5).unwrap()],
                    8,
                    9,
                )
                .unwrap(),
            ],
            Series::new(0, vec![2, 2, 2]),
        );
        let s = EarliestStartScheduler.schedule(&problem).unwrap();
        assert!(problem.is_feasible(&s));
        // Starts pinned at earliest.
        assert_eq!(s.assignments()[0].start(), 0);
        assert_eq!(s.assignments()[1].start(), 1);
    }

    #[test]
    fn midpoints_raised_to_meet_total_min() {
        // Midpoints are 2+2 = 4 < cmin 8: fit_totals must raise them.
        let fo = FlexOffer::with_totals(
            0,
            0,
            vec![Slice::new(0, 5).unwrap(), Slice::new(0, 5).unwrap()],
            8,
            10,
        )
        .unwrap();
        let p = SchedulingProblem::new(vec![fo.clone()], Series::empty());
        let s = EarliestStartScheduler.schedule(&p).unwrap();
        assert!(fo.is_valid_assignment(&s.assignments()[0]));
        assert_eq!(s.assignments()[0].total(), 8);
    }

    #[test]
    fn midpoints_lowered_to_meet_total_max() {
        let fo = FlexOffer::with_totals(
            0,
            0,
            vec![Slice::new(0, 6).unwrap(), Slice::new(0, 6).unwrap()],
            0,
            2,
        )
        .unwrap();
        let p = SchedulingProblem::new(vec![fo.clone()], Series::empty());
        let s = EarliestStartScheduler.schedule(&p).unwrap();
        assert!(fo.is_valid_assignment(&s.assignments()[0]));
        assert_eq!(s.assignments()[0].total(), 2);
    }

    #[test]
    fn production_midpoints_work_too() {
        let fo = FlexOffer::new(0, 2, vec![Slice::new(-5, -1).unwrap()]).unwrap();
        let p = SchedulingProblem::new(vec![fo.clone()], Series::empty());
        let s = EarliestStartScheduler.schedule(&p).unwrap();
        assert!(fo.is_valid_assignment(&s.assignments()[0]));
    }

    #[test]
    fn empty_problem_gives_empty_schedule() {
        let p = SchedulingProblem::new(vec![], Series::empty());
        let s = EarliestStartScheduler.schedule(&p).unwrap();
        assert!(s.assignments().is_empty());
    }
}
