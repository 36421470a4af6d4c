//! Query answers: the one query path both books run, rendered as one
//! deterministic JSON line per query.
//!
//! Measure answers embed the engine's
//! [`PortfolioReportJson`](flexoffers_engine::report::PortfolioReportJson),
//! schedule/trade answers its
//! [`ScenarioReportJson`](flexoffers_engine::scenario_report::ScenarioReportJson)
//! — both deliberately exclude threads/timing, so the live and batch paths
//! serialise identical bytes. Aggregate answers get their own mirror here
//! ([`AggregateReportJson`]). Every answer is wrapped in a `{"query": ...,
//! "report": ...}` envelope (or `{"query": ..., "error": ...}` when the
//! underlying pipeline refuses, e.g. a schedule query over an empty book).

use std::borrow::Borrow;

use serde::{Serialize, Value};

use flexoffers_aggregation::Aggregate;
use flexoffers_engine::{Engine, ScenarioKind};
use flexoffers_model::FlexOffer;
use flexoffers_timeseries::Series;

use crate::config::ServeConfig;
use crate::event::QueryKind;

/// Answers one query over `offers` (the logical portfolio, in id order)
/// as one JSON line — the one query path of both books. A book supplies
/// only its view of the offers and two lazy inputs, each asked for only
/// by the kinds that read it: `groups`, the tolerance grouping under
/// `config.grouping` as positions into `offers` (aggregate, schedule and
/// trade), and `baseline`, the no-flexibility load (schedule and trade).
pub(crate) fn answer<O, G>(
    engine: &Engine,
    config: &ServeConfig,
    offers: &[O],
    kind: QueryKind,
    groups: impl FnOnce() -> G,
    baseline: impl FnOnce() -> Series<i64>,
) -> String
where
    O: Borrow<FlexOffer> + Sync,
    G: Borrow<[Vec<usize>]>,
{
    let scenario = match kind {
        QueryKind::Measure => {
            return answer_line(kind, &engine.measure_portfolio_all(offers).json());
        }
        QueryKind::Aggregate => {
            let aggregates = engine.aggregate_groups(offers, groups().borrow());
            return answer_line(kind, &aggregate_report(offers.len(), &aggregates));
        }
        QueryKind::Schedule => config.scenario(ScenarioKind::Schedule),
        QueryKind::Trade => config.scenario(ScenarioKind::Market),
    };
    match engine.simulate_grouped(&scenario, offers, groups().borrow(), baseline) {
        Ok(report) => answer_line(kind, &report.json()),
        Err(e) => error_line(kind, &e.to_string()),
    }
}

/// Serialisable mirror of an aggregate-query result: the grouping outcome
/// plus a per-aggregate summary, all pure functions of the logical
/// portfolio and the grouping tolerances.
#[derive(Clone, Debug, Serialize)]
pub struct AggregateReportJson {
    /// Portfolio size the grouping ran over.
    pub offers: usize,
    /// Number of aggregates produced.
    pub aggregates: usize,
    /// Per-aggregate summaries, in grouping order.
    pub groups: Vec<AggregateSummaryJson>,
}

/// One aggregate, flattened for reporting.
#[derive(Clone, Debug, Serialize)]
pub struct AggregateSummaryJson {
    /// Member count.
    pub members: usize,
    /// The aggregate flex-offer's earliest start.
    pub earliest_start: i64,
    /// The aggregate flex-offer's time flexibility (the minimum over
    /// members — what start-alignment aggregation retains).
    pub time_flexibility: i64,
    /// The aggregate's total minimum energy.
    pub total_min: i64,
    /// The aggregate's total maximum energy.
    pub total_max: i64,
}

/// Builds the aggregate-query mirror from the engine's aggregation output.
pub fn aggregate_report(offers: usize, aggregates: &[Aggregate]) -> AggregateReportJson {
    AggregateReportJson {
        offers,
        aggregates: aggregates.len(),
        groups: aggregates
            .iter()
            .map(|agg| {
                let fo = agg.flexoffer();
                AggregateSummaryJson {
                    members: agg.members().len(),
                    earliest_start: fo.earliest_start(),
                    time_flexibility: fo.time_flexibility(),
                    total_min: fo.total_min(),
                    total_max: fo.total_max(),
                }
            })
            .collect(),
    }
}

/// Wraps a query report in the one-line answer envelope.
pub fn answer_line(kind: QueryKind, report: &impl Serialize) -> String {
    let envelope = Value::Object(vec![
        ("query".to_owned(), Value::Str(kind.name().to_owned())),
        ("report".to_owned(), report.to_value()),
    ]);
    serde_json::to_string(&envelope).expect("answer envelopes serialize")
}

/// Wraps a query refusal in the one-line answer envelope. Both the live
/// and the batch paths route their pipeline errors through here, so a
/// refused query still compares byte-for-byte.
pub fn error_line(kind: QueryKind, message: &str) -> String {
    let envelope = Value::Object(vec![
        ("query".to_owned(), Value::Str(kind.name().to_owned())),
        ("error".to_owned(), Value::Str(message.to_owned())),
    ]);
    serde_json::to_string(&envelope).expect("answer envelopes serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_aggregation::{aggregate_portfolio, GroupingParams};
    use flexoffers_model::{FlexOffer, Slice};

    #[test]
    fn aggregate_report_flattens_the_grouping() {
        let offers = vec![
            FlexOffer::new(0, 2, vec![Slice::new(1, 3).unwrap()]).unwrap(),
            FlexOffer::new(0, 2, vec![Slice::new(0, 2).unwrap()]).unwrap(),
            FlexOffer::new(9, 12, vec![Slice::new(2, 4).unwrap()]).unwrap(),
        ];
        let aggregates = aggregate_portfolio(&offers, &GroupingParams::with_tolerances(1, 1));
        let report = aggregate_report(offers.len(), &aggregates);
        assert_eq!(report.offers, 3);
        assert_eq!(report.aggregates, aggregates.len());
        assert_eq!(report.groups[0].members, 2);
        let line = answer_line(QueryKind::Aggregate, &report);
        assert!(line.starts_with("{\"query\":\"aggregate\",\"report\":{"));
        assert!(!line.contains('\n'), "answers are single lines");
    }

    #[test]
    fn error_lines_carry_the_kind_and_message() {
        let line = error_line(QueryKind::Schedule, "empty portfolio — nothing to simulate");
        assert_eq!(
            line,
            "{\"query\":\"schedule\",\"error\":\"empty portfolio — nothing to simulate\"}"
        );
    }
}
