//! The [`Measure`] trait: one interface over all eight flexibility measures.

use flexoffers_model::FlexOffer;

use crate::abs_area::AbsoluteAreaFlexibility;
use crate::assignments::AssignmentFlexibility;
use crate::characteristics::Characteristics;
use crate::energy::EnergyFlexibility;
use crate::error::MeasureError;
use crate::prepared::PreparedOffer;
use crate::product::ProductFlexibility;
use crate::rel_area::RelativeAreaFlexibility;
use crate::series::TimeSeriesFlexibility;
use crate::set::SetAggregation;
use crate::time::TimeFlexibility;
use crate::vector::VectorFlexibility;

/// A single-valued flexibility measure over flex-offers.
///
/// The paper requires each measure to (a) produce a single value for one
/// flex-offer and (b) lift to sets of flex-offers for comparing portfolios
/// (Section 4). The default set semantics is the sum of member values — the
/// paper's rule for product, vector, time-series, assignments and absolute
/// area — and [`RelativeAreaFlexibility`] overrides it with the average, as
/// Section 4 prescribes ("the sum of relative flexibilities is not
/// meaningful, instead the average relative flexibility could be used").
///
/// Measures are `Send + Sync`: they are immutable evaluation rules, and the
/// portfolio engine fans them out across worker threads.
pub trait Measure: Send + Sync {
    /// Full name, e.g. `"product flexibility"`.
    fn name(&self) -> &'static str;

    /// Table 1 column header, e.g. `"Product"`.
    fn short_name(&self) -> &'static str;

    /// The measure's value for one flex-offer.
    fn of(&self, fo: &FlexOffer) -> Result<f64, MeasureError>;

    /// The measure's value for a prepared flex-offer, reusing any
    /// intermediates the [`PreparedOffer`] carries (the union area, for the
    /// two area measures). Defaults to the plain [`Measure::of`] path;
    /// results are always identical — preparation only removes repeated
    /// work, never changes arithmetic.
    fn of_prepared(&self, prepared: &PreparedOffer<'_>) -> Result<f64, MeasureError> {
        self.of(prepared.offer())
    }

    /// The measure's value for a set of flex-offers. Default: sum.
    fn of_set(&self, fos: &[FlexOffer]) -> Result<f64, MeasureError> {
        let mut total = 0.0;
        for fo in fos {
            total += self.of(fo)?;
        }
        Ok(total)
    }

    /// The columnar kernel evaluating this measure as a single pass over a
    /// [`ColumnarBatch`](crate::columnar::ColumnarBatch), or `None` when the
    /// measure has no columnar form (wrappers, the constrained assignment
    /// count) and must run through the scalar [`Measure::of_prepared`]
    /// fallback. An implementation may only return a kernel whose batch
    /// evaluation is bitwise identical to `of_prepared` — the engine
    /// evaluates every measure through a batch on that contract.
    fn columnar_kernel(&self) -> Option<crate::columnar::ColumnarKernel> {
        None
    }

    /// How [`Measure::of_set`] combines member values: [`SetAggregation::Sum`]
    /// by default, [`SetAggregation::Average`] for relative area (Section 4).
    /// Batch evaluators (the portfolio engine) use this to merge per-offer
    /// values without re-running the sequential `of_set` loop; every
    /// override must keep the two in agreement.
    fn set_aggregation(&self) -> SetAggregation {
        SetAggregation::Sum
    }

    /// The measure's declared qualitative characteristics — its column of
    /// the paper's Table 1. [`probe`](crate::probe) re-derives these
    /// empirically.
    fn declared_characteristics(&self) -> Characteristics;
}

/// The paper's eight measures with their default configurations (vector and
/// time-series use the Manhattan norm; assignments use the linear count;
/// absolute/relative area use the definition-literal mixed policy so
/// Example 15 reproduces).
pub fn all_measures() -> Vec<Box<dyn Measure>> {
    vec![
        Box::new(TimeFlexibility),
        Box::new(EnergyFlexibility),
        Box::new(ProductFlexibility),
        Box::new(VectorFlexibility::default()),
        Box::new(TimeSeriesFlexibility::default()),
        Box::new(AssignmentFlexibility::default()),
        Box::new(AbsoluteAreaFlexibility::default()),
        Box::new(RelativeAreaFlexibility::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::Slice;

    fn figure1() -> FlexOffer {
        FlexOffer::new(
            1,
            6,
            vec![
                Slice::new(1, 3).unwrap(),
                Slice::new(2, 4).unwrap(),
                Slice::new(0, 5).unwrap(),
                Slice::new(0, 3).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_measures_has_eight_in_table_order() {
        let names: Vec<&str> = all_measures().iter().map(|m| m.short_name()).collect();
        assert_eq!(
            names,
            vec![
                "Time",
                "Energy",
                "Product",
                "Vector",
                "Time-series",
                "Assignments",
                "Abs. Area",
                "Rel. Area"
            ]
        );
    }

    #[test]
    fn all_measures_evaluate_figure1() {
        let f = figure1();
        for m in all_measures() {
            let v = m.of(&f).unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            assert!(v.is_finite());
            assert!(v >= 0.0, "{} produced {v}", m.name());
        }
    }

    #[test]
    fn default_set_semantics_is_sum() {
        let f = figure1();
        let set = vec![f.clone(), f.clone(), f];
        for m in all_measures()
            .iter()
            .filter(|m| m.short_name() != "Rel. Area")
        {
            let single = m.of(&set[0]).unwrap();
            let total = m.of_set(&set).unwrap();
            assert!(
                (total - 3.0 * single).abs() < 1e-9,
                "{}: {total} != 3 * {single}",
                m.name()
            );
        }
    }

    #[test]
    fn empty_set_sums_to_zero() {
        for m in all_measures()
            .iter()
            .filter(|m| m.short_name() != "Rel. Area")
        {
            assert_eq!(m.of_set(&[]).unwrap(), 0.0);
        }
    }

    #[test]
    fn declared_characteristics_match_paper_table1() {
        let table = crate::characteristics::paper_table1();
        for (m, (name, expected)) in all_measures().iter().zip(table) {
            assert_eq!(m.short_name(), name);
            assert_eq!(m.declared_characteristics(), expected, "{name}");
        }
    }
}
