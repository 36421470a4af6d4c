//! The batched evaluation pipeline itself.

use std::borrow::Borrow;
use std::time::Instant;

use flexoffers_aggregation::{aggregate_indices, group_indices, Aggregate, GroupingParams};
use flexoffers_market::{Aggregator, LotDecision, MarketOutcome, SpotMarket};
use flexoffers_measures::{all_measures, ColumnarBatch, Measure, MeasureError, SetAggregation};
use flexoffers_model::{Assignment, FlexOffer, Portfolio};
use flexoffers_scheduling::{
    assemble_member_schedule, realize_aggregate, PipelineOutcome, Scheduler, SchedulingError,
    SchedulingProblem,
};
use flexoffers_timeseries::ops::sum_series;
use flexoffers_timeseries::Series;

use crate::budget::Budget;
use crate::chunk::{chunk_ranges, parallel_map};
use crate::report::{MeasureSummary, PortfolioReport};

/// Result of [`Engine::trade_portfolio`]: the settled market outcome plus
/// pipeline context.
#[derive(Clone, Debug, PartialEq)]
pub struct TradeOutcome {
    /// The settled market outcome — bitwise identical to the sequential
    /// [`Aggregator::run`] on the same inputs.
    pub outcome: MarketOutcome,
    /// Number of aggregates the grouping produced (admitted + rejected).
    pub aggregates: usize,
}

/// A portfolio-scale evaluator with a fixed [`Budget`].
///
/// The engine is a pure scheduler: all semantics live in the primitives
/// it drives ([`ColumnarBatch`], whose kernels and per-offer
/// [`Measure::of_prepared`] fallback are bitwise identical to the
/// prepared-offer loop, and [`aggregate_indices`]). Every measure and
/// baseline pass takes the one columnar route; the [`Budget`] changes
/// throughput only — see the crate docs for the determinism guarantee.
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    budget: Budget,
}

impl Engine {
    /// An engine over the given budget.
    pub fn new(budget: Budget) -> Self {
        Self { budget }
    }

    /// A single-threaded engine.
    pub fn sequential() -> Self {
        Self::new(Budget::sequential())
    }

    /// An engine sized to the host (see [`Budget::detected`]).
    pub fn detected() -> Self {
        Self::new(Budget::detected())
    }

    /// The engine's budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Evaluates `measures` over every offer and reduces to set-level
    /// values, exactly as the sequential
    /// [`Measure::of_set`] loop would — same values, same errors, same
    /// floating-point addition order — but with the per-offer work chunked
    /// across worker threads, each chunk evaluated as one [`ColumnarBatch`]
    /// pass. `offers` may be owned or a borrowed view (`&[&FlexOffer]`);
    /// the live book passes its id-ordered view, so no offer is cloned to
    /// answer a query.
    pub fn measure_portfolio<O: Borrow<FlexOffer> + Sync>(
        &self,
        offers: &[O],
        measures: &[Box<dyn Measure>],
    ) -> PortfolioReport {
        let started = Instant::now();
        let chunk_size = self.budget.chunk_size_for(offers.len());
        // Workers hand back measure-major columns per chunk and each
        // measure's fold walks the chunks in range order — the per-offer
        // value sequence of the sequential loop, without ever
        // materialising a row.
        let ranges = chunk_ranges(offers.len(), chunk_size);
        let chunked: Vec<Vec<Vec<Result<f64, MeasureError>>>> =
            parallel_map(&ranges, self.budget.threads(), |range| {
                ColumnarBatch::new().columns(&offers[range.clone()], measures)
            });
        let summaries = measures
            .iter()
            .enumerate()
            .map(|(j, m)| {
                reduce_measure_values(
                    m.as_ref(),
                    offers.len(),
                    chunked.iter().flat_map(|columns| columns[j].iter()),
                )
            })
            .collect();

        PortfolioReport {
            offers: offers.len(),
            threads: self.budget.threads(),
            chunk_size,
            elapsed: started.elapsed(),
            summaries,
        }
    }

    /// [`Engine::measure_portfolio`] over the paper's eight measures.
    pub fn measure_portfolio_all<O: Borrow<FlexOffer> + Sync>(
        &self,
        offers: &[O],
    ) -> PortfolioReport {
        self.measure_portfolio(offers, &all_measures())
    }

    /// Per-offer values of `measures` over `offers` — each chunk evaluated
    /// as one [`ColumnarBatch`] pass across workers, rows merged in
    /// portfolio order. Each value is bitwise identical to the measure's
    /// [`Measure::of_prepared`] on that offer; nothing is reduced off the
    /// calling thread.
    ///
    /// The Scenario 1 correlations read these rows
    /// ([`Engine::simulate_grouped`]), over an owned portfolio or a
    /// borrowed view alike.
    pub fn per_offer_rows<O: Borrow<FlexOffer> + Sync>(
        &self,
        offers: &[O],
        measures: &[Box<dyn Measure>],
    ) -> Vec<Vec<Result<f64, MeasureError>>> {
        let chunk_size = self.budget.chunk_size_for(offers.len());
        let ranges = chunk_ranges(offers.len(), chunk_size);
        let chunks = parallel_map(&ranges, self.budget.threads(), |range| {
            ColumnarBatch::new().rows(&offers[range.clone()], measures)
        });
        chunks.into_iter().flatten().collect()
    }

    /// Start-alignment-aggregates each of `groups` (index lists into
    /// `offers`, e.g. from [`group_indices`]), groups fanned out across
    /// worker threads and merged in group order — the one parallel
    /// per-group aggregation behind every pipeline. `offers` may be owned
    /// or a borrowed view; each member is cloned once, into its aggregate.
    ///
    /// # Panics
    ///
    /// Panics if a group is empty or names an index outside `offers`.
    pub fn aggregate_groups<O: Borrow<FlexOffer> + Sync>(
        &self,
        offers: &[O],
        groups: &[Vec<usize>],
    ) -> Vec<Aggregate> {
        parallel_map(groups, self.budget.threads(), |indices| {
            aggregate_indices(offers, indices).expect("grouping never yields empty groups")
        })
    }

    /// Groups `offers` under `params` and start-alignment-aggregates each
    /// group, groups fanned out across worker threads. Output order (and
    /// content) is identical to the sequential
    /// [`flexoffers_aggregation::aggregate_portfolio`].
    pub fn aggregate_portfolio(
        &self,
        offers: &[FlexOffer],
        params: &GroupingParams,
    ) -> Vec<Aggregate> {
        self.aggregate_groups(offers, &group_indices(offers, params))
    }

    /// The full Scenario 1 pipeline at portfolio scale: group with
    /// `params`, aggregate every tolerance group in parallel, schedule the
    /// (much smaller) aggregate problem with `scheduler` on the calling
    /// thread, then realize every aggregate's plan at member level in
    /// parallel — each aggregate's scheduled load is its partition of the
    /// residual target, and
    /// [`realize_aggregate`] fits members against exactly that partition
    /// when the plan proves unrealizable.
    ///
    /// The parallel units are the tolerance groups (a pure function of the
    /// portfolio, never of the budget), and the merge scatters member
    /// assignments back to input positions in group order, so the outcome
    /// is **bitwise identical** at any thread count and chunk size — and
    /// bitwise identical to the sequential
    /// [`flexoffers_scheduling::schedule_via_aggregation`].
    pub fn schedule_portfolio(
        &self,
        problem: &SchedulingProblem,
        params: &GroupingParams,
        scheduler: &dyn Scheduler,
    ) -> Result<PipelineOutcome, SchedulingError> {
        let offers = problem.offers();
        let groups = group_indices(offers, params);
        let aggregates = self.aggregate_groups(offers, &groups);
        self.schedule_aggregates(offers, &aggregates, &groups, problem.target(), scheduler)
    }

    /// The back half of the Scenario 1 pipeline, from the aggregates of
    /// `groups` over `offers`: schedule the reduced problem on the calling
    /// thread, realize every aggregate's plan at member level in parallel,
    /// and scatter the member assignments back to input positions.
    pub(crate) fn schedule_aggregates<O: Borrow<FlexOffer>>(
        &self,
        offers: &[O],
        aggregates: &[Aggregate],
        groups: &[Vec<usize>],
        target: &Series<i64>,
        scheduler: &dyn Scheduler,
    ) -> Result<PipelineOutcome, SchedulingError> {
        let reduced = SchedulingProblem::new(
            aggregates.iter().map(|a| a.flexoffer().clone()).collect(),
            target.clone(),
        );
        let aggregate_schedule = scheduler.schedule(&reduced)?;

        let planned: Vec<(&Aggregate, &Assignment)> = aggregates
            .iter()
            .zip(aggregate_schedule.assignments())
            .collect();
        let realized: Vec<(Vec<Assignment>, bool)> =
            parallel_map(&planned, self.budget.threads(), |(agg, assignment)| {
                realize_aggregate(agg, assignment)
            });

        let outcome = assemble_member_schedule(offers.len(), groups, realized);
        debug_assert!(
            offers
                .iter()
                .zip(outcome.schedule.assignments())
                .all(|(fo, a)| fo.borrow().is_valid_assignment(a)),
            "every member assignment is feasible"
        );
        Ok(outcome)
    }

    /// The full Scenario 2 pipeline at portfolio scale: group and
    /// aggregate in parallel ([`Engine::aggregate_portfolio`]), evaluate
    /// every aggregate against the market in parallel
    /// ([`Aggregator::evaluate`]: admission, planning, realizability), and
    /// settle the decisions on the calling thread in aggregate order.
    ///
    /// The baseline load is summed in parallel over portfolio chunks —
    /// integer series addition is exact, so chunking cannot perturb it —
    /// and the settlement fold reproduces the sequential accumulation
    /// order, making the outcome **bitwise identical** to
    /// [`Aggregator::run`] at any thread count and chunk size.
    pub fn trade_portfolio(
        &self,
        portfolio: &Portfolio,
        aggregator: &Aggregator,
        market: &SpotMarket,
    ) -> TradeOutcome {
        let offers = portfolio.as_slice();
        let aggregates = self.aggregate_portfolio(offers, &aggregator.grouping);
        let (outcome, _) = self.trade_aggregates(
            &aggregates,
            aggregator,
            market,
            || self.baseline_load_parallel(offers),
            |_, _| (),
        );
        TradeOutcome {
            outcome,
            aggregates: aggregates.len(),
        }
    }

    /// Scenario 2's market stage, shared by [`Engine::trade_portfolio`]
    /// and [`Engine::simulate_grouped`]: evaluate every aggregate against
    /// the market in parallel (plus `per_lot`, on the same worker, with
    /// the aggregate and its decision), then settle the decisions in
    /// aggregate order against the cost of `baseline`. Returns the outcome
    /// and `per_lot`'s values in aggregate order.
    pub(crate) fn trade_aggregates<T: Send>(
        &self,
        aggregates: &[Aggregate],
        aggregator: &Aggregator,
        market: &SpotMarket,
        baseline: impl FnOnce() -> Series<i64>,
        per_lot: impl Fn(&Aggregate, &LotDecision) -> T + Sync,
    ) -> (MarketOutcome, Vec<T>) {
        let evaluated: Vec<(LotDecision, T)> =
            parallel_map(aggregates, self.budget.threads(), |agg| {
                let decision = aggregator.evaluate(agg, market);
                let extra = per_lot(agg, &decision);
                (decision, extra)
            });
        let (decisions, extras): (Vec<LotDecision>, Vec<T>) = evaluated.into_iter().unzip();
        let outcome = Aggregator::settle(decisions, market.cost_of(&baseline()), market);
        (outcome, extras)
    }

    /// The portfolio's no-flexibility baseline load, chunked across
    /// workers. Partial sums are integer series, so the chunked total is
    /// exactly [`flexoffers_market::baseline_load`] over the whole slice —
    /// and exactly the fold of any other partition's partials (the live
    /// book keeps one partial per shard, refreshed only when the shard is
    /// dirty, and sums them on every trade query).
    pub fn baseline_load_parallel<O: Borrow<FlexOffer> + Sync>(&self, offers: &[O]) -> Series<i64> {
        let chunk_size = self.budget.chunk_size_for(offers.len());
        let ranges = chunk_ranges(offers.len(), chunk_size);
        let partials = parallel_map(&ranges, self.budget.threads(), |range| {
            ColumnarBatch::new().baseline_partial(&offers[range.clone()])
        });
        sum_series(partials.iter())
    }
}

/// One measure's reduction over its per-offer values in portfolio order,
/// mirroring its [`Measure::of_set`] semantics (short-circuit on the first
/// error; sum, or average for relative area). `offer_count` is the
/// portfolio size the values were drawn from; the fold consumes exactly
/// one value per offer.
fn reduce_measure_values<'a>(
    m: &dyn Measure,
    offer_count: usize,
    values: impl Iterator<Item = &'a Result<f64, MeasureError>>,
) -> MeasureSummary {
    let mut total = 0.0;
    let mut first_error: Option<MeasureError> = None;
    let mut evaluated = 0usize;
    let mut failed = 0usize;
    let mut min: Option<f64> = None;
    let mut max: Option<f64> = None;
    for value in values {
        match value {
            Ok(v) => {
                evaluated += 1;
                min = Some(min.map_or(*v, |m| m.min(*v)));
                max = Some(max.map_or(*v, |m| m.max(*v)));
                if first_error.is_none() {
                    total += v;
                }
            }
            Err(e) => {
                failed += 1;
                if first_error.is_none() {
                    first_error = Some(e.clone());
                }
            }
        }
    }
    let value = match first_error {
        Some(e) => Err(e),
        None => match m.set_aggregation() {
            SetAggregation::Sum => Ok(total),
            SetAggregation::Average => {
                if offer_count == 0 {
                    Err(MeasureError::EmptySet {
                        measure: m.short_name(),
                    })
                } else {
                    Ok(total / offer_count as f64)
                }
            }
        },
    };
    MeasureSummary {
        measure: m.short_name(),
        value,
        evaluated,
        failed,
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::Slice;

    fn offers() -> Vec<FlexOffer> {
        vec![
            FlexOffer::new(0, 2, vec![Slice::new(1, 3).unwrap()]).unwrap(),
            FlexOffer::new(1, 5, vec![Slice::new(0, 2).unwrap()]).unwrap(),
            FlexOffer::new(2, 4, vec![Slice::new(-3, -1).unwrap()]).unwrap(),
        ]
    }

    #[test]
    fn matches_sequential_of_set_exactly() {
        let fos = offers();
        let report = Engine::new(Budget::with_threads(3).unwrap()).measure_portfolio_all(&fos);
        for (summary, m) in report.summaries.iter().zip(all_measures()) {
            assert_eq!(summary.value, m.of_set(&fos), "{}", summary.measure);
            assert_eq!(summary.evaluated + summary.failed, fos.len());
        }
    }

    #[test]
    fn empty_portfolio_reduces_like_of_set() {
        let report = Engine::sequential().measure_portfolio_all::<FlexOffer>(&[]);
        assert_eq!(report.offers, 0);
        for (summary, m) in report.summaries.iter().zip(all_measures()) {
            assert_eq!(summary.value, m.of_set(&[]), "{}", summary.measure);
        }
    }

    #[test]
    fn mixed_offer_short_circuits_like_of_set() {
        // A mixed flex-offer makes the strict measures error; the engine
        // must surface the same error of_set does.
        let mut fos = offers();
        fos.push(FlexOffer::new(0, 1, vec![Slice::new(-1, 1).unwrap()]).unwrap());
        let strict: Vec<Box<dyn Measure>> = vec![Box::new(
            flexoffers_measures::AbsoluteAreaFlexibility::rejecting_mixed(),
        )];
        let report = Engine::detected().measure_portfolio(&fos, &strict);
        assert_eq!(report.summaries[0].value, strict[0].of_set(&fos));
        assert!(report.summaries[0].value.is_err());
        assert_eq!(report.summaries[0].failed, 1);
    }

    #[test]
    fn schedule_portfolio_matches_sequential_pipeline() {
        use flexoffers_scheduling::{schedule_via_aggregation, GreedyScheduler};
        let fos = offers();
        let problem = SchedulingProblem::new(fos, Series::new(0, vec![4, 4, 2, 2, 1]));
        for params in [
            GroupingParams::strict(),
            GroupingParams::single_group(),
            GroupingParams::with_tolerances(2, 2),
        ] {
            let sequential =
                schedule_via_aggregation(&problem, &params, &GreedyScheduler::new()).unwrap();
            let parallel = Engine::new(Budget::with_threads(4).unwrap())
                .schedule_portfolio(&problem, &params, &GreedyScheduler::new())
                .unwrap();
            assert_eq!(parallel, sequential);
            assert!(problem.is_feasible(&parallel.schedule));
        }
    }

    #[test]
    fn trade_portfolio_matches_sequential_aggregator() {
        use flexoffers_market::SpotMarket;
        let portfolio = Portfolio::from_offers(offers());
        let market = SpotMarket::new(Series::new(0, vec![2.0, 5.0, 3.0, 1.5, 4.0]), 2.0).unwrap();
        for params in [
            GroupingParams::strict(),
            GroupingParams::single_group(),
            GroupingParams::with_tolerances(2, 2),
        ] {
            let aggregator = Aggregator::new(params, 3);
            let sequential = aggregator.run(&portfolio, &market);
            let traded = Engine::new(Budget::with_threads(4).unwrap()).trade_portfolio(
                &portfolio,
                &aggregator,
                &market,
            );
            assert_eq!(traded.outcome, sequential);
            assert_eq!(
                traded.aggregates,
                traded.outcome.orders.len() + traded.outcome.rejected_lots
            );
        }
    }

    #[test]
    fn parallel_aggregation_matches_sequential() {
        let fos = offers();
        for params in [
            GroupingParams::strict(),
            GroupingParams::single_group(),
            GroupingParams::with_tolerances(1, 2),
        ] {
            let parallel =
                Engine::new(Budget::with_threads(4).unwrap()).aggregate_portfolio(&fos, &params);
            let sequential = flexoffers_aggregation::aggregate_portfolio(&fos, &params);
            assert_eq!(parallel, sequential);
        }
    }
}
