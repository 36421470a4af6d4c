//! Scenario configuration and the engine's end-to-end simulation entry
//! point.
//!
//! The paper's two application scenarios — Scenario 1 scheduling a
//! portfolio toward a target profile, Scenario 2 trading aggregates on a
//! balancing market — share a workload (a seeded city portfolio), knobs
//! (grouping tolerances, scheduler, market parameters) and a reporting
//! shape. [`Scenario`] bundles the knobs, and [`Engine::simulate_grouped`]
//! runs the selected pipeline through the parallel engine over a grouped
//! portfolio and returns a [`ScenarioReport`] — bitwise the outcome of
//! [`Engine::schedule_portfolio`] / [`Engine::trade_portfolio`].
//! [`Engine::simulate`] feeds it the scenario's own city.
//!
//! Everything is deterministic: the portfolio, target and price traces are
//! pure functions of the scenario's seed, and the engine's pipelines are
//! bitwise identical at any thread count, so two simulations of the same
//! scenario agree byte for byte regardless of the budget.

use std::borrow::Borrow;
use std::error::Error;
use std::fmt;
use std::time::Instant;

use flexoffers_aggregation::{group_indices, GroupingParams};
use flexoffers_market::{baseline_load, Aggregator, LotDecision, SpotMarket};
use flexoffers_measures::{all_measures, PreparedOffer};
use flexoffers_model::{FlexOffer, Portfolio};
use flexoffers_scheduling::{
    GreedyScheduler, HillClimbScheduler, Imbalance, Scheduler, SchedulingError,
};
use flexoffers_timeseries::Series;
use flexoffers_workloads::city;
use flexoffers_workloads::price::{price_trace, PriceTraceConfig};
use flexoffers_workloads::res::{res_production_trace, ResTraceConfig};

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
    /// reports the outcome: [`Engine::simulate_portfolio`] over
    /// [`Scenario::portfolio`].
    ///
    /// Reports are bitwise identical across thread counts and chunk sizes
    /// (the [`ScenarioReport::json`](crate::ScenarioReport::json) mirror
    /// excludes wall-clock fields for exactly this reason).
    pub fn simulate(&self, scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
        self.simulate_portfolio(scenario, scenario.portfolio().as_slice())
    }

    /// Runs `scenario`'s pipeline over a *caller-supplied* portfolio
    /// instead of the scenario's own generated city — the entry point for
    /// portfolios that arrived some other way (a file, a replayed event
    /// stream). The scenario still contributes every knob and derived
    /// trace: grouping, scheduler, target profile (scaled to the given
    /// portfolio's size), spot market. This is [`group_indices`] and
    /// [`Engine::baseline_load_parallel`] over `offers`, fed to
    /// [`Engine::simulate_grouped`].
    pub fn simulate_portfolio<O: Borrow<FlexOffer> + Sync>(
        &self,
        scenario: &Scenario,
        offers: &[O],
    ) -> Result<ScenarioReport, ScenarioError> {
        let groups = group_indices(offers, &scenario.grouping);
        self.simulate_grouped(scenario, offers, &groups, || {
            self.baseline_load_parallel(offers)
        })
    }

    /// Runs `scenario`'s pipeline over `offers` (the logical portfolio, in
    /// order, owned or borrowed), already grouped under the scenario's
    /// tolerances, with `baseline` giving the portfolio's no-flexibility
    /// load — the one scenario pipeline behind the CLI, the batch oracle
    /// and the live book, which differ only in how they supply the
    /// grouping and the baseline. `baseline` is called once by either
    /// scenario: Scenario 1 measures the imbalance before scheduling on
    /// it (the earliest-start schedule's load), Scenario 2 prices it.
    ///
    /// * [`ScenarioKind::Schedule`]: aggregate each group, schedule the
    ///   aggregates toward the target, realize the plans at member level,
    ///   compare against the baseline load, and correlate each
    ///   measure's per-offer value with the start shift the schedule
    ///   realized. The outcome is bitwise identical to
    ///   [`Engine::schedule_portfolio`].
    /// * [`ScenarioKind::Market`]: aggregate each group, evaluate every
    ///   aggregate against the spot market, settle in aggregate order, and
    ///   correlate each measure's per-aggregate value with the aggregate's
    ///   realized savings over its members' baseline cost. The settlement
    ///   is bitwise identical to [`Engine::trade_portfolio`].
    ///
    /// `groups` must be [`group_indices`] of `offers` under
    /// `scenario.grouping` (or the same partition reached another way) and
    /// `baseline` must be [`flexoffers_market::baseline_load`] of `offers`
    /// (any partition of it summed, since integer addition is exact).
    pub fn simulate_grouped<O: Borrow<FlexOffer> + Sync>(
        &self,
        scenario: &Scenario,
        offers: &[O],
        groups: &[Vec<usize>],
        baseline: impl FnOnce() -> Series<i64>,
    ) -> Result<ScenarioReport, ScenarioError> {
        let started = Instant::now();
        if offers.is_empty() {
            return Err(ScenarioError::EmptyPortfolio);
        }
        let aggregates = self.aggregate_groups(offers, groups);
        let (schedule, market, correlations) = match scenario.kind {
            ScenarioKind::Schedule => {
                let target = scenario.target_for(offers.len());
                let scheduler = scenario.scheduler.build();
                let outcome = self.schedule_aggregates(
                    offers,
                    &aggregates,
                    groups,
                    &target,
                    scheduler.as_ref(),
                )?;
                // Which measure predicted how much an offer's flexibility
                // got used? Per-offer measure values (parallel, joined in
                // portfolio order) against the realized start shift.
                let columns: Vec<Vec<Option<f64>>> = self
                    .per_offer_columns(offers, &all_measures())
                    .into_iter()
                    .map(|column| column.into_iter().map(Result::ok).collect())
                    .collect();
                let shifts: Vec<f64> = outcome
                    .schedule
                    .assignments()
                    .iter()
                    .zip(offers)
                    .map(|(a, fo)| (a.start() - fo.borrow().earliest_start()) as f64)
                    .collect();
                let summary = ScheduleSummary {
                    scheduler: scenario.scheduler.name(),
                    unrealizable_plans: outcome.unrealizable_plans,
                    // The earliest-start schedule's load is the baseline.
                    imbalance_before: Imbalance::between(&baseline(), &target),
                    imbalance_after: outcome.schedule.imbalance(&target),
                };
                (Some(summary), None, correlate(&columns, &shifts))
            }
            ScenarioKind::Market => {
                let market = scenario.spot_market();
                let aggregator = scenario.aggregator();

                // One parallel pass per aggregate beside its market
                // decision: for admitted lots only, the eight measure
                // values of the aggregate flex-offer and its realized
                // savings over its members' baseline cost (rejected lots
                // never trade, and their baseline was already priced
                // inside `evaluate`).
                let measures = all_measures();
                let (outcome, admitted) = self.trade_aggregates(
                    &aggregates,
                    &aggregator,
                    &market,
                    baseline,
                    |agg, decision| {
                        let LotDecision::Admitted(order) = decision else {
                            return None;
                        };
                        let prepared = PreparedOffer::new(agg.flexoffer());
                        let values: Vec<Option<f64>> = measures
                            .iter()
                            .map(|m| m.of_prepared(&prepared).ok())
                            .collect();
                        let member_baseline = market.cost_of(&baseline_load(agg.members()));
                        let saved =
                            member_baseline - (order.cost + market.imbalance_cost(order.imbalance));
                        Some((values, saved))
                    },
                );

                // Correlate per-aggregate measure values with realized
                // savings.
                let mut columns: Vec<Vec<Option<f64>>> = vec![Vec::new(); measures.len()];
                let mut savings = Vec::new();
                for (values, saved) in admitted.into_iter().flatten() {
                    for (column, value) in columns.iter_mut().zip(values) {
                        column.push(value);
                    }
                    savings.push(saved);
                }
                let correlations = correlate(&columns, &savings);

                let summary = MarketSummary {
                    orders: outcome.orders.len(),
                    rejected_lots: outcome.rejected_lots,
                    procurement_cost: outcome.procurement_cost,
                    imbalance_cost: outcome.imbalance_cost,
                    rejected_cost: outcome.rejected_cost,
                    baseline_cost: outcome.baseline_cost,
                    savings: outcome.savings(),
                    relative_savings: outcome.relative_savings(),
                };
                (None, Some(summary), correlations)
            }
        };
        Ok(ScenarioReport {
            scenario: scenario.kind,
            seed: scenario.seed,
            households: scenario.households,
            offers: offers.len(),
            aggregates: aggregates.len(),
            threads: self.budget().threads(),
            elapsed: started.elapsed(),
            schedule,
            market,
            correlations,
        })
    }
}

/// Pearson correlation of each measure's column in `columns` (one per
/// measure of [`all_measures`], `columns[j][i]` pairing with `ys[i]`)
/// against `ys`, skipping entries where the measure errored or either
/// side is non-finite. Both scenarios' correlation tables come from here;
/// public so tests can build a sequential reference table.
pub fn correlate(columns: &[Vec<Option<f64>>], ys: &[f64]) -> Vec<CorrelationSummary> {
    all_measures()
        .iter()
        .zip(columns)
        .map(|(m, column)| {
            let mut xs = Vec::new();
            let mut matched = Vec::new();
            for (value, y) in column.iter().zip(ys) {
                if let Some(v) = *value {
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
        // The grouped entry point re-wires the same building blocks as
        // trade_portfolio for correlation access; this pins its settlement
        // to the parallel trade pipeline and to the sequential
        // Aggregator::run, so the market paths cannot silently diverge.
        let s = Scenario::city_portfolio(ScenarioKind::Market, 40);
        let portfolio = s.portfolio();
        let offers = portfolio.as_slice();
        let engine = Engine::new(Budget::with_threads(3).unwrap());
        let groups = group_indices(offers, &s.grouping);
        let report = engine
            .simulate_grouped(&s, offers, &groups, || baseline_load(offers))
            .unwrap();
        let traded = engine.trade_portfolio(&portfolio, &s.aggregator(), &s.spot_market());
        let sequential = s.aggregator().run(&portfolio, &s.spot_market());
        assert_eq!(traded.outcome, sequential);
        let m = report.market.expect("market summary");
        assert_eq!(m.orders, sequential.orders.len());
        assert_eq!(m.rejected_lots, sequential.rejected_lots);
        assert_eq!(m.procurement_cost, sequential.procurement_cost);
        assert_eq!(m.imbalance_cost, sequential.imbalance_cost);
        assert_eq!(m.rejected_cost, sequential.rejected_cost);
        assert_eq!(m.baseline_cost, sequential.baseline_cost);
        assert_eq!(m.savings, sequential.savings());
        assert_eq!(m.relative_savings, sequential.relative_savings());
        assert_eq!(report.aggregates, traded.aggregates);
    }

    #[test]
    fn simulate_is_bitwise_identical_across_thread_counts() {
        // The grouped entry point over an owned slice on one thread, and
        // over a borrowed view on four threads with the baseline folded
        // from two partials (as a sharded book supplies it), against the
        // sequential reference: the grouping and baseline of the
        // aggregation and market crates.
        for kind in [ScenarioKind::Schedule, ScenarioKind::Market] {
            let s = Scenario::city_portfolio(kind, 40);
            let portfolio = s.portfolio();
            let offers = portfolio.as_slice();
            let groups = group_indices(offers, &s.grouping);
            let one = Engine::sequential()
                .simulate_grouped(&s, offers, &groups, || baseline_load(offers))
                .unwrap();
            let view: Vec<&FlexOffer> = offers.iter().collect();
            let (left, right) = offers.split_at(offers.len() / 2);
            let four = Engine::new(Budget::with_threads(4).unwrap())
                .simulate_grouped(&s, &view, &groups, || {
                    &baseline_load(left) + &baseline_load(right)
                })
                .unwrap();
            let json = |r: &ScenarioReport| serde_json::to_string(&r.json()).unwrap();
            assert_eq!(
                json(&one),
                json(&four),
                "{kind} scenario diverged across thread counts"
            );
            assert_eq!(
                json(&one),
                json(
                    &Engine::new(Budget::with_threads(2).unwrap())
                        .simulate(&s)
                        .unwrap()
                )
            );
        }
    }
}
