//! Simulated annealing — the escape hatch the pure hill-climber lacks.
//!
//! The hill-climber's per-offer re-fit is monotone and stalls in local
//! optima where improving any *single* offer is impossible but jointly
//! moving two would pay off. Annealing adds a classic Metropolis rule over
//! a *perturbation* move (force one offer to a random different start, then
//! re-fit amounts) so the search can walk through moderately worse states
//! early on, cooling toward pure improvement.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flexoffers_model::Assignment;

use crate::error::SchedulingError;
use crate::greedy::{best_fit_assignment, GreedyScheduler};
use crate::imbalance::Schedule;
use crate::problem::{Scheduler, SchedulingProblem};

/// Simulated-annealing scheduler (deterministic under a fixed seed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnnealingScheduler {
    /// RNG seed.
    pub seed: u64,
    /// Number of proposal steps.
    pub iterations: usize,
    /// Initial temperature, in squared-error units. Zero degenerates to
    /// hill-climbing on the perturbation move.
    pub initial_temperature: f64,
    /// Multiplicative cooling per step, in `(0, 1]`.
    pub cooling: f64,
}

impl AnnealingScheduler {
    /// An annealer with sensible defaults for district-scale problems.
    pub fn new(seed: u64, iterations: usize) -> Self {
        Self {
            seed,
            iterations,
            initial_temperature: 64.0,
            cooling: 0.995,
        }
    }
}

impl Scheduler for AnnealingScheduler {
    fn name(&self) -> &'static str {
        "simulated annealing"
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
        // Track the running and best costs via the residual's square sum.
        let cost_of = |r: &flexoffers_timeseries::Series<i64>| -> f64 {
            r.iter().map(|(_, v)| (v * v) as f64).sum()
        };
        let mut cost = cost_of(&residual);
        let mut best = (cost, assignments.clone());
        let mut temperature = self.initial_temperature;
        let mut rng = StdRng::seed_from_u64(self.seed);

        for _ in 0..self.iterations {
            let i = rng.gen_range(0..offers.len());
            let fo = &offers[i];
            // The residual without offer i, updated in place; a rejected
            // proposal is undone below (integer addition is exact).
            residual.add_span(assignments[i].start(), assignments[i].values());

            // Proposal: pin a random start, water-fill the amounts there.
            let start = rng.gen_range(fo.earliest_start()..=fo.latest_start());
            let pinned = flexoffers_model::FlexOffer::with_totals(
                start,
                start,
                fo.slices().to_vec(),
                fo.total_min(),
                fo.total_max(),
            )
            .expect("pinning a start inside the window preserves invariants");
            let (proposal, _) = best_fit_assignment(&pinned, &residual);
            let proposal = Assignment::new(start, proposal.values().to_vec());

            residual.sub_span(proposal.start(), proposal.values());
            let next_cost = cost_of(&residual);
            let accept = next_cost <= cost
                || rng.gen::<f64>() < ((cost - next_cost) / temperature.max(1e-9)).exp();
            if accept {
                assignments[i] = proposal;
                cost = next_cost;
                if cost < best.0 {
                    best = (cost, assignments.clone());
                }
            } else {
                residual.add_span(proposal.start(), proposal.values());
                residual.sub_span(assignments[i].start(), assignments[i].values());
            }
            temperature *= self.cooling;
        }
        Ok(Schedule::new(best.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::{FlexOffer, Slice};
    use flexoffers_timeseries::Series;

    fn problem() -> SchedulingProblem {
        let offers = vec![
            FlexOffer::new(
                0,
                5,
                vec![Slice::new(0, 3).unwrap(), Slice::new(0, 3).unwrap()],
            )
            .unwrap(),
            FlexOffer::new(0, 5, vec![Slice::new(1, 2).unwrap()]).unwrap(),
            FlexOffer::new(2, 6, vec![Slice::new(0, 4).unwrap()]).unwrap(),
            FlexOffer::with_totals(1, 4, vec![Slice::new(0, 3).unwrap(); 2], 2, 5).unwrap(),
        ];
        SchedulingProblem::new(offers, Series::new(2, vec![7, 6, 2, 1]))
    }

    #[test]
    fn produces_feasible_schedules() {
        let p = problem();
        let s = AnnealingScheduler::new(3, 400).schedule(&p).unwrap();
        assert!(p.is_feasible(&s));
    }

    #[test]
    fn deterministic_under_seed() {
        let p = problem();
        let a = AnnealingScheduler::new(5, 300).schedule(&p).unwrap();
        let b = AnnealingScheduler::new(5, 300).schedule(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn never_worse_than_greedy_thanks_to_best_tracking() {
        let p = problem();
        let greedy = GreedyScheduler::new()
            .schedule(&p)
            .unwrap()
            .imbalance(p.target())
            .l2;
        let annealed = AnnealingScheduler::new(11, 600)
            .schedule(&p)
            .unwrap()
            .imbalance(p.target())
            .l2;
        assert!(annealed <= greedy + 1e-9);
    }

    #[test]
    fn zero_iterations_returns_greedy() {
        let p = problem();
        let greedy = GreedyScheduler::new().schedule(&p).unwrap();
        let annealed = AnnealingScheduler::new(1, 0).schedule(&p).unwrap();
        assert_eq!(greedy, annealed);
    }

    #[test]
    fn empty_problem_is_fine() {
        let p = SchedulingProblem::new(vec![], Series::new(0, vec![3]));
        let s = AnnealingScheduler::new(1, 100).schedule(&p).unwrap();
        assert!(s.assignments().is_empty());
    }
}
