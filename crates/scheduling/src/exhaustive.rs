//! Provably optimal scheduling by exhaustive search over the joint
//! assignment space — the paper calls the problem "highly complex" \[12\], and
//! this module is why: the space is the *product* of the members' `L(f)`.
//! Guarded by a size limit; used as the yardstick for the heuristics.

use flexoffers_model::Assignment;
use flexoffers_timeseries::{Norm, Series};

use crate::error::SchedulingError;
use crate::imbalance::Schedule;
use crate::problem::{Scheduler, SchedulingProblem};

/// Exhaustive optimal scheduler (squared-error objective).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExhaustiveScheduler {
    /// Maximum joint assignment count it will attempt.
    pub limit: u128,
}

impl ExhaustiveScheduler {
    /// An exhaustive scheduler with the given search-space limit.
    pub fn new(limit: u128) -> Self {
        Self { limit }
    }
}

impl Default for ExhaustiveScheduler {
    fn default() -> Self {
        Self { limit: 100_000 }
    }
}

impl Scheduler for ExhaustiveScheduler {
    fn name(&self) -> &'static str {
        "exhaustive optimal"
    }

    fn schedule(&self, problem: &SchedulingProblem) -> Result<Schedule, SchedulingError> {
        // Refuse oversized spaces before touching them.
        let mut space: u128 = 1;
        for fo in problem.offers() {
            let count = fo
                .constrained_assignment_count()
                .ok_or(SchedulingError::SearchSpaceTooLarge { limit: self.limit })?;
            space = space
                .checked_mul(count)
                .ok_or(SchedulingError::SearchSpaceTooLarge { limit: self.limit })?;
            if space > self.limit {
                return Err(SchedulingError::SearchSpaceTooLarge { limit: self.limit });
            }
        }

        let mut best: Option<(f64, Vec<Assignment>)> = None;
        let mut current: Vec<Assignment> = Vec::with_capacity(problem.offers().len());
        // Residual starts as the target; leaves evaluate its L2 norm.
        let mut residual = problem.target().clone();
        search(problem, 0, &mut residual, &mut current, &mut best);
        let (_, assignments) = best.expect("space is non-empty: every offer has assignments");
        Ok(Schedule::new(assignments))
    }
}

fn search(
    problem: &SchedulingProblem,
    depth: usize,
    residual: &mut Series<i64>,
    current: &mut Vec<Assignment>,
    best: &mut Option<(f64, Vec<Assignment>)>,
) {
    if depth == problem.offers().len() {
        let cost = Norm::L2.of(residual);
        if best.as_ref().is_none_or(|(b, _)| cost < *b) {
            *best = Some((cost, current.clone()));
        }
        return;
    }
    for a in problem.offers()[depth].assignments() {
        // The residual is updated in place and restored on the way back
        // (integer addition is exact).
        residual.sub_span(a.start(), a.values());
        current.push(a);
        search(problem, depth + 1, residual, current, best);
        let a = current.pop().expect("pushed above");
        residual.add_span(a.start(), a.values());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyScheduler;
    use crate::hillclimb::HillClimbScheduler;
    use flexoffers_model::{FlexOffer, Slice};

    fn small_problem() -> SchedulingProblem {
        let offers = vec![
            FlexOffer::new(0, 2, vec![Slice::new(0, 2).unwrap()]).unwrap(),
            FlexOffer::new(0, 1, vec![Slice::new(1, 3).unwrap()]).unwrap(),
        ];
        SchedulingProblem::new(offers, Series::new(1, vec![4, 1]))
    }

    #[test]
    fn finds_the_optimum() {
        let p = small_problem();
        let s = ExhaustiveScheduler::default().schedule(&p).unwrap();
        assert!(p.is_feasible(&s));
        // Target <4,1> at slots 1,2. The single-slice offers can jointly
        // cover at most 3+2 = 5 units but never split 4+1 exactly: the best
        // layouts (e.g. 3@1 + 1@2) leave exactly one unit of deviation.
        assert_eq!(s.imbalance(p.target()).l2, 1.0);
        assert_eq!(s.imbalance(p.target()).l1, 1.0);
    }

    #[test]
    fn heuristics_never_beat_the_optimum() {
        let p = small_problem();
        let opt = ExhaustiveScheduler::default()
            .schedule(&p)
            .unwrap()
            .imbalance(p.target())
            .l2;
        for s in [
            GreedyScheduler::new().schedule(&p).unwrap(),
            HillClimbScheduler::default().schedule(&p).unwrap(),
        ] {
            assert!(s.imbalance(p.target()).l2 + 1e-9 >= opt);
        }
    }

    #[test]
    fn limit_enforced() {
        let offers = vec![
            FlexOffer::new(
                0,
                50,
                vec![Slice::new(0, 50).unwrap(), Slice::new(0, 50).unwrap()]
            )
            .unwrap();
            3
        ];
        let p = SchedulingProblem::new(offers, Series::empty());
        assert!(matches!(
            ExhaustiveScheduler::new(1000).schedule(&p),
            Err(SchedulingError::SearchSpaceTooLarge { limit: 1000 })
        ));
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let p = SchedulingProblem::new(vec![], Series::new(0, vec![1]));
        let s = ExhaustiveScheduler::default().schedule(&p).unwrap();
        assert!(s.assignments().is_empty());
    }
}
