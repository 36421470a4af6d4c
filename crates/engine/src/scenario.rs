//! Scenario configuration and the engine's end-to-end simulation entry
//! point.
//!
//! The paper's two application scenarios — Scenario 1 scheduling a
//! portfolio toward a target profile, Scenario 2 trading aggregates on a
//! balancing market — share a workload (a seeded city portfolio), knobs
//! (grouping tolerances, scheduler, market parameters) and a reporting
//! shape. [`Scenario`] bundles the knobs, [`Engine::simulate`] runs the
//! selected pipeline through the parallel engine
//! ([`Engine::schedule_portfolio`] / [`Engine::trade_portfolio`]) and
//! returns a [`ScenarioReport`].
//!
//! Everything is deterministic: the portfolio, target and price traces are
//! pure functions of the scenario's seed, and the engine's pipelines are
//! bitwise identical at any thread count, so two simulations of the same
//! scenario agree byte for byte regardless of the budget.

use std::error::Error;
use std::fmt;
use std::time::Instant;

use flexoffers_aggregation::GroupingParams;
use flexoffers_market::{baseline_load, Aggregator, LotDecision, SpotMarket};
use flexoffers_measures::all_measures;
use flexoffers_model::Portfolio;
use flexoffers_scheduling::{
    EarliestStartScheduler, GreedyScheduler, HillClimbScheduler, Scheduler, SchedulingError,
    SchedulingProblem,
};
use flexoffers_timeseries::Series;
use flexoffers_workloads::city;
use flexoffers_workloads::price::{price_trace, PriceTraceConfig};
use flexoffers_workloads::res::{res_production_trace, ResTraceConfig};

use crate::chunk::parallel_map;
use crate::engine::Engine;
use crate::scenario_report::{CorrelationSummary, MarketSummary, ScenarioReport, ScheduleSummary};

/// Which of the paper's two application scenarios to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Scenario 1: schedule the portfolio toward a renewable-production
    /// target profile via aggregation.
    Schedule,
    /// Scenario 2: trade the aggregated portfolio on a spot market with
    /// imbalance settlement.
    Market,
}

impl ScenarioKind {
    /// The CLI-facing scenario name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Schedule => "schedule",
            ScenarioKind::Market => "market",
        }
    }

    /// Parses a CLI-facing scenario name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "schedule" => Some(ScenarioKind::Schedule),
            "market" => Some(ScenarioKind::Market),
            _ => None,
        }
    }
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which scheduler drives the Scenario 1 aggregate problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerChoice {
    /// One-pass greedy residual tracking (fast, deterministic).
    Greedy,
    /// Seeded stochastic hill-climbing on top of greedy.
    HillClimb {
        /// RNG seed (deterministic under equal seeds).
        seed: u64,
        /// Ruin-and-recreate step budget.
        iterations: usize,
    },
}

impl SchedulerChoice {
    /// The CLI-facing scheduler name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerChoice::Greedy => "greedy",
            SchedulerChoice::HillClimb { .. } => "hillclimb",
        }
    }

    /// Parses a CLI-facing scheduler name (hill-climb gets default knobs).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "greedy" => Some(SchedulerChoice::Greedy),
            "hillclimb" => Some(SchedulerChoice::HillClimb {
                seed: 42,
                iterations: 512,
            }),
            _ => None,
        }
    }

    /// Constructs the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedulerChoice::Greedy => Box::new(GreedyScheduler::new()),
            SchedulerChoice::HillClimb { seed, iterations } => {
                Box::new(HillClimbScheduler::new(seed, iterations))
            }
        }
    }
}

/// A complete scenario configuration: workload source, tolerance knobs,
/// scheduler choice, and market parameters. Every derived artefact
/// (portfolio, target profile, spot prices) is a pure function of these
/// fields.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scenario {
    /// Which application scenario to run.
    pub kind: ScenarioKind,
    /// Seed for the portfolio and the target/price traces.
    pub seed: u64,
    /// City size; [`flexoffers_workloads::city`] turns this into roughly
    /// 3.4 flex-offers per household.
    pub households: usize,
    /// Grouping tolerances for aggregation (both scenarios).
    pub grouping: GroupingParams,
    /// Scheduler for the Scenario 1 aggregate problem.
    pub scheduler: SchedulerChoice,
    /// Horizon of the target and price traces, in days.
    pub days: usize,
    /// Scenario 2 minimum tradeable lot volume.
    pub min_lot: i64,
    /// Scenario 2 imbalance penalty, as a multiple of the peak spot price.
    pub penalty_multiplier: f64,
}

impl Scenario {
    /// A scenario over a seeded city portfolio with the default knobs:
    /// seed 7, grouping tolerances (2, 2), greedy scheduling, a 2-day
    /// horizon, minimum lot 25, penalty multiplier 2.0.
    pub fn city_portfolio(kind: ScenarioKind, households: usize) -> Self {
        Self {
            kind,
            seed: 7,
            households,
            grouping: GroupingParams::with_tolerances(2, 2),
            scheduler: SchedulerChoice::Greedy,
            days: 2,
            min_lot: 25,
            penalty_multiplier: 2.0,
        }
    }

    /// The same scenario under a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The scenario's portfolio (deterministic under the seed).
    pub fn portfolio(&self) -> Portfolio {
        city(self.seed, self.households)
    }

    /// The Scenario 1 target profile: a renewable production trace whose
    /// capacity scales with the portfolio size, so imbalance numbers stay
    /// comparable across city sizes.
    pub fn target_for(&self, offers: usize) -> Series<i64> {
        res_production_trace(&ResTraceConfig {
            seed: self.seed,
            days: self.days,
            solar_capacity: (offers as i64) / 2,
            wind_capacity: (offers as i64) * 3 / 4,
        })
    }

    /// The Scenario 2 spot market (deterministic under the seed).
    ///
    /// # Panics
    ///
    /// Panics if `penalty_multiplier < 1` — scenario construction keeps it
    /// valid, so a panic here means the field was edited out of range.
    pub fn spot_market(&self) -> SpotMarket {
        SpotMarket::new(
            price_trace(&PriceTraceConfig {
                seed: self.seed,
                days: self.days,
                ..PriceTraceConfig::default()
            }),
            self.penalty_multiplier,
        )
        .expect("scenario penalty multiplier is >= 1")
    }

    /// The Scenario 2 aggregator (safe planning).
    pub fn aggregator(&self) -> Aggregator {
        Aggregator::new(self.grouping, self.min_lot)
    }
}

/// Errors running a scenario simulation.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The scenario's portfolio has no flex-offers (zero households).
    EmptyPortfolio,
    /// The Scenario 1 scheduler failed on the aggregate problem.
    Scheduling(SchedulingError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::EmptyPortfolio => {
                write!(f, "empty portfolio — nothing to simulate")
            }
            ScenarioError::Scheduling(e) => write!(f, "scheduling the aggregate problem: {e}"),
        }
    }
}

impl Error for ScenarioError {}

impl From<SchedulingError> for ScenarioError {
    fn from(e: SchedulingError) -> Self {
        ScenarioError::Scheduling(e)
    }
}

impl Engine {
    /// Runs `scenario` end to end through the parallel pipelines and
    /// reports the outcome.
    ///
    /// * [`ScenarioKind::Schedule`]: generate the portfolio and target,
    ///   run [`Engine::schedule_portfolio`], compare against the
    ///   earliest-start baseline, and correlate each measure's per-offer
    ///   value with the start shift the schedule realized.
    /// * [`ScenarioKind::Market`]: generate the portfolio and market, run
    ///   the [`Engine::trade_portfolio`] pipeline, and correlate each
    ///   measure's per-aggregate value with the aggregate's realized
    ///   savings over its members' baseline cost.
    ///
    /// Reports are bitwise identical across thread counts and chunk sizes
    /// (the [`ScenarioReport::json`](crate::ScenarioReport::json) mirror
    /// excludes wall-clock fields for exactly this reason).
    pub fn simulate(&self, scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
        self.simulate_portfolio(scenario, scenario.portfolio())
    }

    /// Runs `scenario`'s pipeline over a *caller-supplied* portfolio
    /// instead of the scenario's own generated city — the entry point for
    /// portfolios that arrived some other way (a file, a replayed event
    /// stream). The scenario still contributes every knob and derived
    /// trace: grouping, scheduler, target profile (scaled to the given
    /// portfolio's size), spot market. [`Engine::simulate`] is exactly
    /// this over [`Scenario::portfolio`].
    ///
    /// The portfolio is taken by value: Scenario 1 moves its offers into
    /// the [`SchedulingProblem`] instead of cloning the whole book.
    pub fn simulate_portfolio(
        &self,
        scenario: &Scenario,
        portfolio: Portfolio,
    ) -> Result<ScenarioReport, ScenarioError> {
        let started = Instant::now();
        if portfolio.is_empty() {
            return Err(ScenarioError::EmptyPortfolio);
        }
        match scenario.kind {
            ScenarioKind::Schedule => self.simulate_schedule(scenario, portfolio, started),
            ScenarioKind::Market => Ok(self.simulate_market(scenario, &portfolio, started)),
        }
    }

    fn simulate_schedule(
        &self,
        scenario: &Scenario,
        portfolio: Portfolio,
        started: Instant,
    ) -> Result<ScenarioReport, ScenarioError> {
        let target = scenario.target_for(portfolio.len());
        let problem = SchedulingProblem::new(portfolio.into_offers(), target);
        let offers = problem.offers();
        let scheduler = scenario.scheduler.build();
        let outcome = self.schedule_portfolio(&problem, &scenario.grouping, scheduler.as_ref())?;
        let baseline = EarliestStartScheduler.schedule(&problem)?;
        let imbalance_before = baseline.imbalance(problem.target());
        let imbalance_after = outcome.schedule.imbalance(problem.target());

        // Which measure predicted how much an offer's flexibility got
        // used? Per-offer measure values (parallel, merged in portfolio
        // order) against the realized start shift.
        let rows = flatten_rows(self.per_offer_rows(offers, &all_measures()));
        let shifts: Vec<f64> = outcome
            .schedule
            .assignments()
            .iter()
            .zip(offers)
            .map(|(a, fo)| (a.start() - fo.earliest_start()) as f64)
            .collect();
        Ok(self.schedule_report(
            scenario,
            offers.len(),
            &outcome,
            imbalance_before,
            imbalance_after,
            &rows,
            &shifts,
            started,
        ))
    }

    /// Assembles the Scenario 1 report from an already-run pipeline — one
    /// code path for the batch and live-serving paths, so their reports
    /// cannot drift. `rows` are the per-offer measure values
    /// (errors flattened, see [`flatten_rows`]) and `shifts` the realized
    /// start shifts, both in portfolio order.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_report(
        &self,
        scenario: &Scenario,
        offers: usize,
        outcome: &flexoffers_scheduling::PipelineOutcome,
        imbalance_before: flexoffers_scheduling::Imbalance,
        imbalance_after: flexoffers_scheduling::Imbalance,
        rows: &[Vec<Option<f64>>],
        shifts: &[f64],
        started: Instant,
    ) -> ScenarioReport {
        ScenarioReport {
            scenario: scenario.kind,
            seed: scenario.seed,
            households: scenario.households,
            offers,
            aggregates: outcome.aggregates,
            threads: self.budget().threads(),
            elapsed: started.elapsed(),
            schedule: Some(ScheduleSummary {
                scheduler: scenario.scheduler.name(),
                unrealizable_plans: outcome.unrealizable_plans,
                imbalance_before,
                imbalance_after,
            }),
            market: None,
            correlations: correlate(rows, shifts),
        }
    }

    fn simulate_market(
        &self,
        scenario: &Scenario,
        portfolio: &Portfolio,
        started: Instant,
    ) -> ScenarioReport {
        let offers = portfolio.as_slice();
        let aggregator = scenario.aggregator();
        let aggregates = self.aggregate_portfolio(offers, &aggregator.grouping);
        let baseline = self.baseline_load_parallel(offers);
        self.market_report(scenario, offers.len(), &aggregates, &baseline, started)
    }

    /// Runs the market evaluation over already-gathered aggregates and
    /// assembles the Scenario 2 report — one code path for the batch and
    /// live-serving paths, so their reports cannot drift. `baseline` is
    /// the portfolio's no-flexibility load (the live book folds per-shard
    /// partials; integer series addition makes any partition exact).
    pub fn market_report(
        &self,
        scenario: &Scenario,
        offers: usize,
        aggregates: &[flexoffers_aggregation::Aggregate],
        baseline: &Series<i64>,
        started: Instant,
    ) -> ScenarioReport {
        let market = scenario.spot_market();
        let aggregator = scenario.aggregator();

        // One parallel pass per aggregate: the market decision, the eight
        // measure values of the aggregate flex-offer, and — for admitted
        // lots only — the members' baseline cost (the reference their
        // savings are quoted against; rejected lots never trade, and their
        // baseline was already priced inside `evaluate`).
        let measures = all_measures();
        type Evaluated = (LotDecision, Vec<Option<f64>>, Option<f64>);
        let evaluated: Vec<Evaluated> = parallel_map(aggregates, self.budget().threads(), |agg| {
            let decision = aggregator.evaluate(agg, &market);
            let prepared = flexoffers_measures::PreparedOffer::new(agg.flexoffer());
            let values = measures
                .iter()
                .map(|m| m.of_prepared(&prepared).ok())
                .collect();
            let member_baseline = match &decision {
                LotDecision::Admitted(_) => Some(market.cost_of(&baseline_load(agg.members()))),
                LotDecision::Rejected { .. } => None,
            };
            (decision, values, member_baseline)
        });

        // Correlate per-aggregate measure values with realized savings.
        let mut rows = Vec::new();
        let mut savings = Vec::new();
        for (decision, values, member_baseline) in &evaluated {
            if let LotDecision::Admitted(order) = decision {
                rows.push(values.clone());
                let member_baseline = member_baseline.expect("admitted lots carry a baseline");
                savings
                    .push(member_baseline - (order.cost + market.imbalance_cost(order.imbalance)));
            }
        }
        let correlations = correlate(&rows, &savings);

        let baseline_cost = market.cost_of(baseline);
        let outcome = Aggregator::settle(
            evaluated.into_iter().map(|(decision, _, _)| decision),
            baseline_cost,
            &market,
        );

        ScenarioReport {
            scenario: scenario.kind,
            seed: scenario.seed,
            households: scenario.households,
            offers,
            aggregates: aggregates.len(),
            threads: self.budget().threads(),
            elapsed: started.elapsed(),
            schedule: None,
            market: Some(MarketSummary {
                orders: outcome.orders.len(),
                rejected_lots: outcome.rejected_lots,
                procurement_cost: outcome.procurement_cost,
                imbalance_cost: outcome.imbalance_cost,
                rejected_cost: outcome.rejected_cost,
                baseline_cost: outcome.baseline_cost,
                savings: outcome.savings(),
                relative_savings: outcome.relative_savings(),
            }),
            correlations,
        }
    }
}

/// Errors flattened to `None` for the correlation filter — the adapter
/// between [`Engine::per_offer_rows`] output and [`correlate`]. Public so
/// the live book's schedule answer, which runs the rows pass over its own
/// id-ordered view, feeds the exact pipeline the scenario reports use.
pub fn flatten_rows(
    rows: Vec<Vec<Result<f64, flexoffers_measures::MeasureError>>>,
) -> Vec<Vec<Option<f64>>> {
    rows.into_iter()
        .map(|row| row.into_iter().map(Result::ok).collect())
        .collect()
}

/// Pearson correlation of each measure's column in `rows` against `ys`,
/// skipping rows where the measure errored or either side is non-finite.
/// One implementation for the batch and live-serving report paths, so
/// their correlation tables cannot drift.
pub fn correlate(rows: &[Vec<Option<f64>>], ys: &[f64]) -> Vec<CorrelationSummary> {
    all_measures()
        .iter()
        .enumerate()
        .map(|(j, m)| {
            let mut xs = Vec::new();
            let mut matched = Vec::new();
            for (row, y) in rows.iter().zip(ys) {
                if let Some(v) = row[j] {
                    if v.is_finite() && y.is_finite() {
                        xs.push(v);
                        matched.push(*y);
                    }
                }
            }
            CorrelationSummary {
                measure: m.short_name(),
                r: flexoffers_market::pearson(&xs, &matched),
                evaluated: xs.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn kind_and_scheduler_parse_round_trip() {
        for kind in [ScenarioKind::Schedule, ScenarioKind::Market] {
            assert_eq!(ScenarioKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ScenarioKind::parse("arbitrage"), None);
        for name in ["greedy", "hillclimb"] {
            assert_eq!(SchedulerChoice::parse(name).unwrap().name(), name);
        }
        assert_eq!(SchedulerChoice::parse("simplex"), None);
    }

    #[test]
    fn scenario_artefacts_are_deterministic() {
        let s = Scenario::city_portfolio(ScenarioKind::Schedule, 30);
        assert_eq!(s.portfolio(), s.portfolio());
        assert_eq!(s.target_for(100), s.target_for(100));
        assert_eq!(s.spot_market(), s.spot_market());
        assert_ne!(
            s.portfolio(),
            s.with_seed(8).portfolio(),
            "seed must matter"
        );
    }

    #[test]
    fn empty_portfolio_is_rejected() {
        let s = Scenario::city_portfolio(ScenarioKind::Schedule, 0);
        let err = Engine::sequential().simulate(&s).unwrap_err();
        assert_eq!(err, ScenarioError::EmptyPortfolio);
        assert!(err.to_string().contains("empty portfolio"));
    }

    #[test]
    fn schedule_scenario_reports_improvement_fields() {
        let s = Scenario::city_portfolio(ScenarioKind::Schedule, 30);
        let report = Engine::new(Budget::with_threads(2).unwrap())
            .simulate(&s)
            .unwrap();
        assert_eq!(report.scenario, ScenarioKind::Schedule);
        assert!(report.offers > 0);
        assert!(report.aggregates > 0);
        let summary = report.schedule.as_ref().expect("schedule summary");
        assert!(summary.imbalance_after.l1 <= summary.imbalance_before.l1);
        assert!(report.market.is_none());
        assert_eq!(report.correlations.len(), 8);
    }

    #[test]
    fn market_scenario_reports_settlement_fields() {
        let s = Scenario::city_portfolio(ScenarioKind::Market, 30);
        let report = Engine::new(Budget::with_threads(2).unwrap())
            .simulate(&s)
            .unwrap();
        assert_eq!(report.scenario, ScenarioKind::Market);
        let summary = report.market.as_ref().expect("market summary");
        assert!(summary.baseline_cost > 0.0);
        assert_eq!(
            summary.orders + summary.rejected_lots,
            report.aggregates,
            "every aggregate is either traded or rejected"
        );
        assert!(report.schedule.is_none());
    }

    #[test]
    fn market_summary_pins_to_trade_portfolio_exactly() {
        // The simulate path re-wires the same building blocks as
        // trade_portfolio for correlation access; this pins the two market
        // paths to each other so they cannot silently diverge.
        let s = Scenario::city_portfolio(ScenarioKind::Market, 40);
        let engine = Engine::new(Budget::with_threads(3).unwrap());
        let report = engine.simulate(&s).unwrap();
        let traded = engine.trade_portfolio(&s.portfolio(), &s.aggregator(), &s.spot_market());
        let m = report.market.expect("market summary");
        assert_eq!(m.orders, traded.outcome.orders.len());
        assert_eq!(m.rejected_lots, traded.outcome.rejected_lots);
        assert_eq!(m.procurement_cost, traded.outcome.procurement_cost);
        assert_eq!(m.imbalance_cost, traded.outcome.imbalance_cost);
        assert_eq!(m.rejected_cost, traded.outcome.rejected_cost);
        assert_eq!(m.baseline_cost, traded.outcome.baseline_cost);
        assert_eq!(m.savings, traded.outcome.savings());
        assert_eq!(m.relative_savings, traded.outcome.relative_savings());
        assert_eq!(report.aggregates, traded.aggregates);
    }

    #[test]
    fn simulate_is_bitwise_identical_across_thread_counts() {
        for kind in [ScenarioKind::Schedule, ScenarioKind::Market] {
            let s = Scenario::city_portfolio(kind, 40);
            let one = Engine::sequential().simulate(&s).unwrap();
            let four = Engine::new(Budget::with_threads(4).unwrap())
                .simulate(&s)
                .unwrap();
            assert_eq!(
                serde_json::to_string(&one.json()).unwrap(),
                serde_json::to_string(&four.json()).unwrap(),
                "{kind} scenario diverged across thread counts"
            );
        }
    }
}
