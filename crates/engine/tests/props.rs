//! Engine determinism properties.
//!
//! The engine's contract is that *no* scheduling knob is observable in its
//! results: any thread count, any chunk size, and the plain sequential
//! prepared-offer loop all produce bitwise-identical values and errors —
//! including for measures without a columnar kernel, which the engine's
//! batches evaluate per offer. These
//! properties drive randomly shaped portfolios (mixed signs included, so
//! the error paths get exercised) through every comparison.

use flexoffers_aggregation::{aggregate_portfolio, group_indices, GroupingParams};
use flexoffers_engine::scenario::correlate;
use flexoffers_engine::{Budget, Engine, Scenario, ScenarioError, ScenarioKind};
use flexoffers_market::{baseline_load, Aggregator, SpotMarket};
use flexoffers_measures::{
    all_measures, AbsoluteAreaFlexibility, AssignmentFlexibility, Measure, MeasureError,
    PreparedOffer, RelativeAreaFlexibility, TimeFlexibility, WeightedMeasure,
};
use flexoffers_model::{FlexOffer, Portfolio, Slice};
use flexoffers_scheduling::{
    earliest_start_assignment, schedule_via_aggregation, EarliestStartScheduler, GreedyScheduler,
    Schedule, Scheduler, SchedulingProblem,
};
use flexoffers_timeseries::Series;
use proptest::prelude::*;

fn arb_flexoffer() -> impl Strategy<Value = FlexOffer> {
    (
        0i64..4,
        0i64..5,
        prop::collection::vec((-5i64..5, 0i64..5), 1..5),
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(tes, window, raw, cmin_pos, cmax_pos)| {
            let slices: Vec<Slice> = raw
                .into_iter()
                .map(|(min, w)| Slice::new(min, min + w).unwrap())
                .collect();
            let pmin: i64 = slices.iter().map(Slice::min).sum();
            let pmax: i64 = slices.iter().map(Slice::max).sum();
            let cmin = pmin + ((pmax - pmin) as f64 * cmin_pos) as i64;
            let cmax = cmin + ((pmax - cmin) as f64 * cmax_pos) as i64;
            FlexOffer::with_totals(tes, tes + window, slices, cmin, cmax).unwrap()
        })
}

fn arb_portfolio() -> impl Strategy<Value = Vec<FlexOffer>> {
    prop::collection::vec(arb_flexoffer(), 0..33)
}

/// Production offers whose slices all sit at or below zero with odd
/// widths, where the midpoint rounds toward the minimum (away from zero),
/// mixed into an [`arb_portfolio`].
fn arb_baseline_portfolio() -> impl Strategy<Value = Vec<FlexOffer>> {
    let production = (
        0i64..4,
        0i64..5,
        prop::collection::vec((0i64..4, 0i64..4), 1..5),
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(tes, window, raw, cmin_pos, cmax_pos)| {
            let slices: Vec<Slice> = raw
                .into_iter()
                .map(|(top, half)| Slice::new(-top - 2 * half - 1, -top).unwrap())
                .collect();
            let pmin: i64 = slices.iter().map(Slice::min).sum();
            let pmax: i64 = slices.iter().map(Slice::max).sum();
            let cmin = pmin + ((pmax - pmin) as f64 * cmin_pos) as i64;
            let cmax = cmin + ((pmax - cmin) as f64 * cmax_pos) as i64;
            FlexOffer::with_totals(tes, tes + window, slices, cmin, cmax).unwrap()
        });
    (arb_portfolio(), prop::collection::vec(production, 0..12)).prop_map(|(mut fos, prod)| {
        for (k, fo) in prod.into_iter().enumerate() {
            let at = (k * 7) % (fos.len() + 1);
            fos.insert(at, fo);
        }
        fos
    })
}

fn arb_target() -> impl Strategy<Value = Series<i64>> {
    prop::collection::vec(-6i64..12, 1..10).prop_map(|values| Series::new(0, values))
}

fn arb_market() -> impl Strategy<Value = SpotMarket> {
    (prop::collection::vec(0.5f64..20.0, 1..10), 1.0f64..4.0)
        .prop_map(|(prices, penalty)| SpotMarket::new(Series::new(0, prices), penalty).unwrap())
}

/// Measures with a columnar kernel mixed with kernel-less ones (the
/// constrained assignment count and a weighted combination), so a batch
/// both runs columns and falls back per offer, area union shared between
/// them.
fn mixed_measures() -> Vec<Box<dyn Measure>> {
    vec![
        Box::new(TimeFlexibility),
        Box::new(AssignmentFlexibility::exact()),
        Box::new(AbsoluteAreaFlexibility::rejecting_mixed()),
        Box::new(WeightedMeasure::new(vec![
            (0.5, Box::new(TimeFlexibility)),
            (2.0, Box::new(AbsoluteAreaFlexibility::new())),
        ])),
        Box::new(RelativeAreaFlexibility::new()),
    ]
}

/// The scalar reference: one `PreparedOffer` per offer, every measure
/// through `of_prepared`, on the calling thread; measure-major, so
/// `columns[j][i]` is measure `j` on offer `i`.
fn prepared_columns(
    fos: &[FlexOffer],
    measures: &[Box<dyn Measure>],
) -> Vec<Vec<Result<f64, MeasureError>>> {
    let mut columns: Vec<Vec<Result<f64, MeasureError>>> =
        measures.iter().map(|_| Vec::new()).collect();
    for fo in fos {
        let prepared = PreparedOffer::new(fo);
        for (column, m) in columns.iter_mut().zip(measures) {
            column.push(m.of_prepared(&prepared));
        }
    }
    columns
}

/// A realistic seeded workload (not just the proptest shapes): regenerating
/// the same city portfolio and measuring it at 1 vs 8 threads is
/// reproducible end to end.
#[test]
fn seeded_city_portfolio_is_reproducible_across_thread_counts() {
    let a = flexoffers_workloads::city(3, 300);
    let b = flexoffers_workloads::city(3, 300);
    assert_eq!(a, b, "same seed must regenerate the same portfolio");
    let one = Engine::sequential().measure_portfolio_all(a.as_slice());
    let eight = Engine::new(Budget::with_threads(8).unwrap()).measure_portfolio_all(b.as_slice());
    assert_eq!(one.summaries, eight.summaries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same portfolio, 1 vs N threads: identical summaries, bit for bit.
    #[test]
    fn thread_count_never_changes_results(
        fos in arb_portfolio(),
        threads in 2usize..9,
    ) {
        let one = Engine::sequential().measure_portfolio_all(&fos);
        let many = Engine::new(Budget::with_threads(threads).unwrap())
            .measure_portfolio_all(&fos);
        prop_assert_eq!(one.summaries, many.summaries);
    }

    /// Chunk size is a throughput knob only.
    #[test]
    fn chunk_size_never_changes_results(
        fos in arb_portfolio(),
        chunk in 1usize..17,
        threads in 1usize..9,
    ) {
        let default = Engine::new(Budget::with_threads(threads).unwrap())
            .measure_portfolio_all(&fos);
        let pinned = Engine::new(
            Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap(),
        )
        .measure_portfolio_all(&fos);
        prop_assert_eq!(default.summaries, pinned.summaries);
    }

    /// The engine agrees exactly with the sequential per-offer `of_set`
    /// loop — values where the loop succeeds, the same error where it
    /// short-circuits.
    #[test]
    fn engine_matches_sequential_of_set(fos in arb_portfolio()) {
        let report = Engine::new(Budget::with_threads(8).unwrap())
            .measure_portfolio_all(&fos);
        for (summary, m) in report.summaries.iter().zip(all_measures()) {
            prop_assert_eq!(
                summary.value.clone(),
                m.of_set(&fos),
                "{} diverges from its sequential loop",
                summary.measure
            );
            prop_assert_eq!(summary.evaluated + summary.failed, fos.len());
        }
    }

    /// The engine's batches reproduce the direct prepared-offer loop bit
    /// for bit at any threads × chunk combination — including chunks
    /// larger than the portfolio, empty portfolios, and singletons — for
    /// the eight measures and for a mixed set whose kernel-less measures
    /// fall back per offer.
    #[test]
    fn kernel_never_changes_per_offer_rows(
        fos in arb_portfolio(),
        threads in 1usize..5,
        chunk in 1usize..40,
    ) {
        let engine = Engine::new(
            Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap(),
        );
        for measures in [all_measures(), mixed_measures()] {
            let reference = prepared_columns(&fos, &measures);
            let columns = engine.per_offer_columns(&fos, &measures);
            prop_assert_eq!(columns.len(), measures.len());
            for (j, (r_column, e_column)) in reference.iter().zip(&columns).enumerate() {
                prop_assert_eq!(r_column.len(), e_column.len());
                for (i, (r, e)) in r_column.iter().zip(e_column).enumerate() {
                    match (r, e) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(
                            a.to_bits(), b.to_bits(),
                            "offer {} measure {}: {} vs {}", i, j, a, b
                        ),
                        (Err(a), Err(b)) => prop_assert_eq!(a, b),
                        (a, b) => prop_assert!(
                            false,
                            "offer {} measure {}: {:?} vs {:?}", i, j, a, b
                        ),
                    }
                }
            }
        }
    }

    /// The chunked baseline partials merge to exactly the market crate's
    /// sequential earliest-start baseline.
    #[test]
    fn baseline_kernels_agree_with_the_market_baseline(
        fos in arb_portfolio(),
        threads in 1usize..5,
        chunk in 1usize..40,
    ) {
        let engine = Engine::new(
            Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap(),
        );
        prop_assert_eq!(
            engine.baseline_load_parallel(&fos),
            flexoffers_market::baseline_load(&fos)
        );
    }

    /// Scenario 1 reads its "before" load off the baseline that Scenario 2
    /// prices, so three copies of the earliest-start midpoint fit must
    /// agree: the scheduling crate's `earliest_start_assignment` summed by
    /// `Schedule::load`, the market crate's `baseline_load`, and the
    /// engine's columnar `baseline_load_parallel` at any threads × chunk
    /// budget — as series and in their stored anchor and span.
    #[test]
    fn earliest_start_load_is_the_market_and_columnar_baseline(
        fos in arb_baseline_portfolio(),
        threads in 1usize..5,
        chunk in 1usize..40,
    ) {
        let engine = Engine::new(
            Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap(),
        );
        let load = Schedule::new(fos.iter().map(earliest_start_assignment).collect()).load();
        let market = baseline_load(&fos);
        let columnar = engine.baseline_load_parallel(&fos);
        prop_assert_eq!(&load, &market);
        prop_assert_eq!(&market, &columnar);
        prop_assert_eq!(load.into_parts(), market.clone().into_parts());
        prop_assert_eq!(market.into_parts(), columnar.into_parts());
    }

    /// A mixed measure set — columnar kernels and per-offer fallbacks in
    /// one batch — measures exactly like the sequential loops at any
    /// threads × chunk budget: each value equals `of_set`, and
    /// `evaluated`/`failed`/`min`/`max` equal the prepared-offer rows'.
    #[test]
    fn columnar_measure_matches_flat_scalar(
        fos in arb_portfolio(),
        threads in 1usize..5,
        chunk in 1usize..17,
    ) {
        let measures = mixed_measures();
        let budget = Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap();
        let report = Engine::new(budget).measure_portfolio(&fos, &measures);
        prop_assert_eq!(report.offers, fos.len());
        let columns = prepared_columns(&fos, &measures);
        for (j, (summary, m)) in report.summaries.iter().zip(&measures).enumerate() {
            prop_assert_eq!(&summary.value, &m.of_set(&fos), "{}", summary.measure);
            let values: Vec<f64> = columns[j].iter().filter_map(|v| v.clone().ok()).collect();
            prop_assert_eq!(summary.evaluated, values.len());
            prop_assert_eq!(summary.failed, fos.len() - values.len());
            let min = values.iter().copied().reduce(f64::min);
            let max = values.iter().copied().reduce(f64::max);
            prop_assert_eq!(summary.min.map(f64::to_bits), min.map(f64::to_bits));
            prop_assert_eq!(summary.max.map(f64::to_bits), max.map(f64::to_bits));
        }
    }

    /// Parallel grouping + aggregation reproduces the sequential
    /// `aggregate_portfolio` exactly, group order included.
    #[test]
    fn parallel_aggregation_matches_sequential(
        fos in arb_portfolio(),
        est in 0i64..6,
        tft in 0i64..6,
        threads in 1usize..9,
    ) {
        let params = GroupingParams::with_tolerances(est, tft);
        let parallel = Engine::new(Budget::with_threads(threads).unwrap())
            .aggregate_portfolio(&fos, &params);
        prop_assert_eq!(parallel, aggregate_portfolio(&fos, &params));
    }

    /// The parallel Scenario 1 pipeline reproduces the sequential
    /// `schedule_via_aggregation` exactly — schedule, aggregate count and
    /// unrealizable count — at any thread count.
    #[test]
    fn schedule_portfolio_matches_sequential_pipeline(
        fos in arb_portfolio(),
        target in arb_target(),
        est in 0i64..6,
        tft in 0i64..6,
        threads in 1usize..9,
    ) {
        let problem = SchedulingProblem::new(fos, target);
        let params = GroupingParams::with_tolerances(est, tft);
        let scheduler = GreedyScheduler::new();
        let sequential = schedule_via_aggregation(&problem, &params, &scheduler).unwrap();
        let parallel = Engine::new(Budget::with_threads(threads).unwrap())
            .schedule_portfolio(&problem, &params, &scheduler)
            .unwrap();
        prop_assert_eq!(&parallel, &sequential);
        prop_assert!(problem.is_feasible(&parallel.schedule));
    }

    /// Scheduling knobs (threads, chunk size) are throughput-only for the
    /// Scenario 1 pipeline: 1 thread vs N threads vs a pinned chunk size
    /// all match bit for bit.
    #[test]
    fn schedule_portfolio_thread_and_chunk_invariance(
        fos in arb_portfolio(),
        target in arb_target(),
        threads in 2usize..9,
        chunk in 1usize..17,
    ) {
        let problem = SchedulingProblem::new(fos, target);
        let params = GroupingParams::with_tolerances(2, 2);
        let scheduler = GreedyScheduler::new();
        let one = Engine::sequential()
            .schedule_portfolio(&problem, &params, &scheduler)
            .unwrap();
        let many = Engine::new(Budget::with_threads(threads).unwrap())
            .schedule_portfolio(&problem, &params, &scheduler)
            .unwrap();
        let pinned = Engine::new(
            Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap(),
        )
        .schedule_portfolio(&problem, &params, &scheduler)
        .unwrap();
        prop_assert_eq!(&one, &many);
        prop_assert_eq!(&one, &pinned);
    }

    /// The parallel Scenario 2 pipeline reproduces the sequential
    /// `Aggregator::run` exactly — orders, all cost accumulators, the
    /// baseline — at any thread count and chunk size.
    #[test]
    fn trade_portfolio_matches_sequential_aggregator(
        fos in arb_portfolio(),
        market in arb_market(),
        est in 0i64..6,
        tft in 0i64..6,
        min_lot in 0i64..8,
        threads in 1usize..9,
        chunk in 1usize..17,
    ) {
        let portfolio = Portfolio::from_offers(fos);
        let aggregator = Aggregator::new(GroupingParams::with_tolerances(est, tft), min_lot);
        let sequential = aggregator.run(&portfolio, &market);
        let budget = Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap();
        let traded = Engine::new(budget).trade_portfolio(&portfolio, &aggregator, &market);
        prop_assert_eq!(&traded.outcome, &sequential);
        prop_assert_eq!(
            traded.aggregates,
            traded.outcome.orders.len() + traded.outcome.rejected_lots
        );
    }

    /// The grouped scenario entry point — the one pipeline behind the CLI,
    /// the batch oracle and the live book — matches the sequential library
    /// references over a borrowed view at any threads × chunk budget.
    /// Scenario 1's aggregate and unrealizable counts, both imbalances and
    /// the correlation table equal `schedule_via_aggregation`, the
    /// earliest-start scheduler and the prepared-offer rows; Scenario 2's
    /// settlement equals `Aggregator::run`.
    #[test]
    fn simulate_grouped_matches_sequential_references(
        fos in arb_portfolio(),
        est in 0i64..6,
        tft in 0i64..6,
        threads in 1usize..5,
        chunk in 1usize..17,
    ) {
        let budget = Budget::with_threads(threads).unwrap().with_chunk_size(chunk).unwrap();
        let engine = Engine::new(budget);
        let view: Vec<&FlexOffer> = fos.iter().collect();
        for kind in [ScenarioKind::Schedule, ScenarioKind::Market] {
            let mut scenario = Scenario::city_portfolio(kind, 0);
            scenario.grouping = GroupingParams::with_tolerances(est, tft);
            let groups = group_indices(&fos, &scenario.grouping);
            let result = engine.simulate_grouped(&scenario, &view, &groups, || baseline_load(&fos));
            if fos.is_empty() {
                prop_assert_eq!(result.unwrap_err(), ScenarioError::EmptyPortfolio);
                continue;
            }
            let report = result.unwrap();
            match kind {
                ScenarioKind::Schedule => {
                    let target = scenario.target_for(fos.len());
                    let problem = SchedulingProblem::new(fos.clone(), target.clone());
                    let outcome =
                        schedule_via_aggregation(&problem, &scenario.grouping, &GreedyScheduler::new())
                            .unwrap();
                    let earliest = EarliestStartScheduler.schedule(&problem).unwrap();
                    let summary = report.schedule.expect("schedule summary");
                    prop_assert_eq!(report.aggregates, outcome.aggregates);
                    prop_assert_eq!(summary.unrealizable_plans, outcome.unrealizable_plans);
                    prop_assert_eq!(summary.imbalance_after, outcome.schedule.imbalance(&target));
                    prop_assert_eq!(summary.imbalance_before, earliest.imbalance(&target));
                    let columns: Vec<Vec<Option<f64>>> = prepared_columns(&fos, &all_measures())
                        .into_iter()
                        .map(|column| column.into_iter().map(Result::ok).collect())
                        .collect();
                    let shifts: Vec<f64> = outcome
                        .schedule
                        .assignments()
                        .iter()
                        .zip(&fos)
                        .map(|(a, fo)| (a.start() - fo.earliest_start()) as f64)
                        .collect();
                    prop_assert_eq!(
                        format!("{:?}", report.correlations),
                        format!("{:?}", correlate(&columns, &shifts))
                    );
                }
                ScenarioKind::Market => {
                    let portfolio = Portfolio::from_offers(fos.clone());
                    let sequential = scenario.aggregator().run(&portfolio, &scenario.spot_market());
                    let m = report.market.expect("market summary");
                    prop_assert_eq!(
                        report.aggregates,
                        sequential.orders.len() + sequential.rejected_lots
                    );
                    prop_assert_eq!(m.orders, sequential.orders.len());
                    prop_assert_eq!(m.rejected_lots, sequential.rejected_lots);
                    prop_assert_eq!(m.procurement_cost.to_bits(), sequential.procurement_cost.to_bits());
                    prop_assert_eq!(m.imbalance_cost.to_bits(), sequential.imbalance_cost.to_bits());
                    prop_assert_eq!(m.rejected_cost.to_bits(), sequential.rejected_cost.to_bits());
                    prop_assert_eq!(m.baseline_cost.to_bits(), sequential.baseline_cost.to_bits());
                }
            }
        }
    }
}
