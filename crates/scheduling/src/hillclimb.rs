//! Seeded stochastic hill-climbing on top of the greedy schedule.
//!
//! The authors' own scheduling work (\[13\], evolutionary) is approximated
//! here by a simpler local search: start from greedy, then repeatedly pick a
//! flex-offer, lift its assignment out of the load, and re-fit it against
//! the refreshed residual (ruin-and-recreate). Re-fitting never worsens the
//! squared error, so the climb is monotone; randomising the victim order
//! lets offers unwind each other's early greedy commitments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::SchedulingError;
use crate::greedy::{best_fit_assignment, GreedyScheduler};
use crate::imbalance::Schedule;
use crate::problem::{Scheduler, SchedulingProblem};

/// Stochastic hill-climbing scheduler (deterministic under a fixed seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HillClimbScheduler {
    /// RNG seed; equal seeds give identical schedules.
    pub seed: u64,
    /// Number of ruin-and-recreate steps.
    pub iterations: usize,
}

impl HillClimbScheduler {
    /// A climber with the given seed and step budget.
    pub fn new(seed: u64, iterations: usize) -> Self {
        Self { seed, iterations }
    }
}

impl Default for HillClimbScheduler {
    fn default() -> Self {
        Self {
            seed: 42,
            iterations: 512,
        }
    }
}

impl Scheduler for HillClimbScheduler {
    fn name(&self) -> &'static str {
        "stochastic hill-climbing"
    }

    fn schedule(&self, problem: &SchedulingProblem) -> Result<Schedule, SchedulingError> {
        let offers = problem.offers();
        let initial = GreedyScheduler::new().schedule(problem)?;
        if offers.is_empty() {
            return Ok(initial);
        }
        let mut assignments = initial.assignments().to_vec();
        let mut residual = problem.target().clone();
        for a in &assignments {
            residual.sub_span(a.start(), a.values());
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.iterations {
            let i = rng.gen_range(0..offers.len());
            // Lift offer i out, re-fit against the refreshed residual.
            residual.add_span(assignments[i].start(), assignments[i].values());
            let (refit, _) = best_fit_assignment(&offers[i], &residual);
            residual.sub_span(refit.start(), refit.values());
            assignments[i] = refit;
        }
        Ok(Schedule::new(assignments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::{FlexOffer, Slice};
    use flexoffers_timeseries::Series;

    fn hard_problem() -> SchedulingProblem {
        // Several overlapping offers competing for a peaked target; greedy
        // order matters, so local search has room to improve.
        let offers = vec![
            FlexOffer::new(
                0,
                4,
                vec![Slice::new(0, 3).unwrap(), Slice::new(0, 3).unwrap()],
            )
            .unwrap(),
            FlexOffer::new(0, 4, vec![Slice::new(1, 2).unwrap()]).unwrap(),
            FlexOffer::new(1, 5, vec![Slice::new(0, 4).unwrap()]).unwrap(),
            FlexOffer::new(
                2,
                3,
                vec![Slice::new(2, 3).unwrap(), Slice::new(0, 1).unwrap()],
            )
            .unwrap(),
        ];
        SchedulingProblem::new(offers, Series::new(2, vec![6, 5, 2]))
    }

    #[test]
    fn never_worse_than_greedy() {
        let p = hard_problem();
        let greedy = GreedyScheduler::new().schedule(&p).unwrap();
        let climbed = HillClimbScheduler::default().schedule(&p).unwrap();
        assert!(p.is_feasible(&climbed));
        assert!(climbed.imbalance(p.target()).l2 <= greedy.imbalance(p.target()).l2 + 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let p = hard_problem();
        let a = HillClimbScheduler::new(7, 128).schedule(&p).unwrap();
        let b = HillClimbScheduler::new(7, 128).schedule(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_iterations_equals_greedy() {
        let p = hard_problem();
        let greedy = GreedyScheduler::new().schedule(&p).unwrap();
        let climbed = HillClimbScheduler::new(1, 0).schedule(&p).unwrap();
        assert_eq!(greedy, climbed);
    }

    #[test]
    fn empty_problem() {
        let p = SchedulingProblem::new(vec![], Series::new(0, vec![1]));
        let s = HillClimbScheduler::default().schedule(&p).unwrap();
        assert!(s.assignments().is_empty());
    }

    #[test]
    fn monotone_improvement_across_budgets() {
        let p = hard_problem();
        let short = HillClimbScheduler::new(3, 8).schedule(&p).unwrap();
        let long = HillClimbScheduler::new(3, 512).schedule(&p).unwrap();
        assert!(
            long.imbalance(p.target()).l2 <= short.imbalance(p.target()).l2 + 1e-9,
            "longer climbs never regress under the same seed"
        );
    }
}
