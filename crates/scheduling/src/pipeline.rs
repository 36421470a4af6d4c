//! The full Scenario 1 pipeline: aggregate → schedule → disaggregate.
//!
//! "To reduce the complexity of scheduling, flex-offer aggregation plays a
//! crucial role" (paper, Scenario 1). This module wires the three stages
//! together: a portfolio is grouped and aggregated, the (much smaller)
//! aggregate problem is scheduled, and each aggregate's assignment is
//! disaggregated back to its members. Aggregates whose scheduled assignment
//! proves *unrealizable* (the overestimation effect) are transparently
//! re-scheduled at member level, so the pipeline always returns a feasible
//! member-level schedule.

use flexoffers_aggregation::{aggregate_indices, group_indices, Aggregate, GroupingParams};
use flexoffers_model::Assignment;
use flexoffers_timeseries::Series;

use crate::error::SchedulingError;
use crate::imbalance::Schedule;
use crate::problem::{Scheduler, SchedulingProblem};

/// Outcome of the aggregate-then-schedule pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineOutcome {
    /// Member-level schedule, offer-ordered to match the input problem.
    pub schedule: Schedule,
    /// Number of aggregates the reduced problem contained.
    pub aggregates: usize,
    /// Aggregates whose scheduled assignment had to be re-planned at member
    /// level because no member combination realized it.
    pub unrealizable_plans: usize,
}

/// Schedules `problem` through aggregation: group with `params`, schedule
/// the aggregates with `scheduler`, disaggregate. The returned schedule is
/// always feasible for the *original* member-level problem.
pub fn schedule_via_aggregation(
    problem: &SchedulingProblem,
    params: &GroupingParams,
    scheduler: &dyn Scheduler,
) -> Result<PipelineOutcome, SchedulingError> {
    let offers = problem.offers();
    let groups = group_indices(offers, params);
    let aggregates: Vec<Aggregate> = groups
        .iter()
        .map(|g| aggregate_indices(offers, g).expect("grouping never yields empty groups"))
        .collect();
    let reduced = SchedulingProblem::new(
        aggregates.iter().map(|a| a.flexoffer().clone()).collect(),
        problem.target().clone(),
    );
    let aggregate_schedule = scheduler.schedule(&reduced)?;

    // Realize each aggregate's plan at member level and scatter the parts
    // back to the input positions the group owns.
    let realized: Vec<(Vec<Assignment>, bool)> = aggregates
        .iter()
        .zip(aggregate_schedule.assignments())
        .map(|(agg, assignment)| realize_aggregate(agg, assignment))
        .collect();
    let outcome = assemble_member_schedule(offers.len(), &groups, realized);
    debug_assert!(problem.is_feasible(&outcome.schedule));
    Ok(outcome)
}

/// Scatters per-aggregate realized parts back to the input positions each
/// group owns and counts the fallbacks — the deterministic merge step both
/// [`schedule_via_aggregation`] and the batch engine's parallel pipeline
/// end on, kept in one place so the two stay bitwise interchangeable.
/// `realized` pairs positionally with `groups` (one
/// [`realize_aggregate`] result per group).
///
/// # Panics
///
/// Panics if `groups` does not partition `0..offers_len` or a part list
/// does not match its group's length.
pub fn assemble_member_schedule(
    offers_len: usize,
    groups: &[Vec<usize>],
    realized: Vec<(Vec<Assignment>, bool)>,
) -> PipelineOutcome {
    let mut member_assignments: Vec<Option<Assignment>> = vec![None; offers_len];
    let mut unrealizable = 0;
    for (indices, (parts, fell_back)) in groups.iter().zip(realized) {
        if fell_back {
            unrealizable += 1;
        }
        assert_eq!(indices.len(), parts.len(), "one part per group member");
        for (idx, part) in indices.iter().zip(parts) {
            member_assignments[*idx] = Some(part);
        }
    }
    PipelineOutcome {
        schedule: Schedule::new(
            member_assignments
                .into_iter()
                .map(|a| a.expect("groups partition the input"))
                .collect(),
        ),
        aggregates: groups.len(),
        unrealizable_plans: unrealizable,
    }
}

/// Realizes one aggregate's scheduled assignment at member level: exact
/// disaggregation when the plan is realizable, otherwise (the
/// overestimation effect) a member-by-member greedy fit against the load
/// the aggregate was scheduled to produce — each aggregate's plan *is* its
/// partition of the residual target. Returns the member assignments (in
/// member order) and whether the fallback fired.
///
/// Each aggregate is realized independently of every other, so a batch
/// engine can fan this out across worker threads and merge in group order;
/// `schedule_via_aggregation` is the sequential fold of exactly this
/// function.
pub fn realize_aggregate(agg: &Aggregate, assignment: &Assignment) -> (Vec<Assignment>, bool) {
    match agg.disaggregate(assignment) {
        Ok(parts) => (parts, false),
        Err(_) => {
            let mut residual: Series<i64> = assignment.as_series();
            let parts = agg
                .members()
                .iter()
                .map(|member| {
                    let (fit, _) = crate::greedy::best_fit_assignment(member, &residual);
                    residual.sub_span(fit.start(), fit.values());
                    fit
                })
                .collect();
            (parts, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyScheduler;
    use flexoffers_model::{FlexOffer, Slice};

    fn offers() -> Vec<FlexOffer> {
        vec![
            FlexOffer::new(0, 2, vec![Slice::new(0, 3).unwrap()]).unwrap(),
            FlexOffer::new(0, 2, vec![Slice::new(1, 4).unwrap()]).unwrap(),
            FlexOffer::new(
                3,
                6,
                vec![Slice::new(0, 2).unwrap(), Slice::new(0, 2).unwrap()],
            )
            .unwrap(),
            FlexOffer::with_totals(3, 6, vec![Slice::new(0, 5).unwrap(); 2], 4, 8).unwrap(),
        ]
    }

    #[test]
    fn pipeline_returns_feasible_member_schedules() {
        let problem = SchedulingProblem::new(offers(), Series::new(1, vec![5, 4, 3, 2, 2]));
        let outcome = schedule_via_aggregation(
            &problem,
            &GroupingParams::with_tolerances(2, 2),
            &GreedyScheduler::new(),
        )
        .unwrap();
        assert!(problem.is_feasible(&outcome.schedule));
        assert!(outcome.aggregates <= problem.offers().len());
    }

    #[test]
    fn single_group_still_feasible_and_smaller() {
        let problem = SchedulingProblem::new(offers(), Series::new(0, vec![6, 6, 6, 6]));
        let outcome = schedule_via_aggregation(
            &problem,
            &GroupingParams::single_group(),
            &GreedyScheduler::new(),
        )
        .unwrap();
        assert_eq!(outcome.aggregates, 1);
        assert!(problem.is_feasible(&outcome.schedule));
    }

    #[test]
    fn strict_grouping_equals_direct_scheduling_quality() {
        // Singleton aggregates: the pipeline degenerates to scheduling the
        // members directly (identical spaces), so quality matches greedy.
        let problem = SchedulingProblem::new(offers(), Series::new(1, vec![4, 4, 4]));
        let direct = GreedyScheduler::new().schedule(&problem).unwrap();
        let outcome =
            schedule_via_aggregation(&problem, &GroupingParams::strict(), &GreedyScheduler::new())
                .unwrap();
        assert!(problem.is_feasible(&outcome.schedule));
        // Strict grouping may still merge identical offers; only compare
        // when it stayed singleton.
        if outcome.aggregates == problem.offers().len() {
            assert_eq!(
                outcome.schedule.imbalance(problem.target()).l2,
                direct.imbalance(problem.target()).l2
            );
        }
    }

    #[test]
    fn duplicate_offers_map_to_distinct_indices() {
        // index_map must not assign the same input index twice when the
        // portfolio contains equal flex-offers.
        let twin = FlexOffer::new(0, 1, vec![Slice::new(0, 2).unwrap()]).unwrap();
        let problem = SchedulingProblem::new(vec![twin.clone(), twin], Series::new(0, vec![3, 3]));
        let outcome = schedule_via_aggregation(
            &problem,
            &GroupingParams::single_group(),
            &GreedyScheduler::new(),
        )
        .unwrap();
        assert_eq!(outcome.schedule.assignments().len(), 2);
        assert!(problem.is_feasible(&outcome.schedule));
    }

    #[test]
    fn unrealizable_plans_are_counted_and_recovered() {
        // Members with incompatible totals (the overestimation fixture).
        let m1 = FlexOffer::with_totals(0, 0, vec![Slice::new(0, 1).unwrap(); 2], 2, 2).unwrap();
        let m2 = FlexOffer::with_totals(0, 0, vec![Slice::new(0, 1).unwrap(); 2], 0, 0).unwrap();
        let problem = SchedulingProblem::new(
            vec![m1, m2],
            // Target <2,0> makes the aggregate's best plan exactly the
            // unrealizable <2,0>.
            Series::new(0, vec![2, 0]),
        );
        let outcome = schedule_via_aggregation(
            &problem,
            &GroupingParams::single_group(),
            &GreedyScheduler::new(),
        )
        .unwrap();
        assert!(problem.is_feasible(&outcome.schedule));
        assert_eq!(outcome.unrealizable_plans, 1);
    }
}
