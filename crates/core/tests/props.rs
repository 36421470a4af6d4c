//! Property tests for measure invariants.

use flexoffers_measures::{
    all_measures, AbsoluteAreaFlexibility, AssignmentFlexibility, ColumnarBatch, EnergyFlexibility,
    Measure, Norm, PreparedOffer, ProductFlexibility, RelativeAreaFlexibility, TimeFlexibility,
    TimeSeriesFlexibility, VectorFlexibility,
};
use flexoffers_model::{FlexOffer, Slice};
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

/// A pure-consumption flex-offer (non-negative slice minima).
fn arb_positive_flexoffer() -> impl Strategy<Value = FlexOffer> {
    (
        0i64..4,
        0i64..5,
        prop::collection::vec((0i64..5, 0i64..5), 1..5),
    )
        .prop_map(|(tes, window, raw)| {
            let slices: Vec<Slice> = raw
                .into_iter()
                .map(|(min, w)| Slice::new(min, min + w).unwrap())
                .collect();
            FlexOffer::new(tes, tes + window, slices).unwrap()
        })
}

fn mirror(f: &FlexOffer) -> FlexOffer {
    FlexOffer::with_totals(
        f.earliest_start(),
        f.latest_start(),
        f.slices()
            .iter()
            .map(|s| Slice::new(-s.max(), -s.min()).unwrap())
            .collect(),
        -f.total_max(),
        -f.total_min(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_measures_nonnegative_where_defined(fo in arb_flexoffer()) {
        for m in all_measures() {
            if let Ok(v) = m.of(&fo) {
                prop_assert!(v >= -1e-9, "{} gave {v} on {}", m.name(), fo);
            }
        }
    }

    #[test]
    fn all_measures_mirror_symmetric_where_meaningful(fo in arb_flexoffer()) {
        // The area measures' definition-literal mixed handling subtracts
        // cmin, which is sign-asymmetric — the very unsoundness behind
        // Table 1's mixed "No" (see abs_area unit tests). Symmetry is
        // asserted for every measure on non-mixed inputs and for the
        // mixed-capable measures everywhere.
        let mf = mirror(&fo);
        let is_mixed = fo.sign() == flexoffers_model::SignClass::Mixed;
        // The time-series measure anchors minimum values at the earliest
        // start and maximum values at the latest; mirroring swaps the value
        // roles but not the anchors, so with partially overlapping extremes
        // (0 < tf < s) the measure is genuinely orientation-dependent — a
        // documented finding (see series.rs tests and EXPERIMENTS.md).
        let partial_overlap =
            fo.time_flexibility() > 0 && (fo.time_flexibility() as usize) < fo.slice_count();
        for m in all_measures() {
            if is_mixed && !m.declared_characteristics().mixed {
                continue;
            }
            if m.short_name() == "Time-series" && partial_overlap {
                continue;
            }
            match (m.of(&fo), m.of(&mf)) {
                (Ok(a), Ok(b)) => prop_assert!(
                    (a - b).abs() < 1e-9,
                    "{}: {a} vs {b} on {}", m.name(), fo
                ),
                // Definedness must also be symmetric.
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "{}: asymmetric {:?} vs {:?}", m.name(), a, b),
            }
        }
    }

    #[test]
    fn product_is_time_times_energy(fo in arb_flexoffer()) {
        let t = TimeFlexibility.of(&fo).unwrap();
        let e = EnergyFlexibility.of(&fo).unwrap();
        prop_assert_eq!(ProductFlexibility.of(&fo).unwrap(), t * e);
    }

    #[test]
    fn vector_l1_is_time_plus_energy(fo in arb_flexoffer()) {
        let t = TimeFlexibility.of(&fo).unwrap();
        let e = EnergyFlexibility.of(&fo).unwrap();
        prop_assert_eq!(VectorFlexibility::new(Norm::L1).of(&fo).unwrap(), t + e);
        // L2 <= L1 and L2 >= each component.
        let l2 = VectorFlexibility::new(Norm::L2).of(&fo).unwrap();
        prop_assert!(l2 <= t + e + 1e-9);
        prop_assert!(l2 + 1e-9 >= t.max(e));
    }

    #[test]
    fn widening_window_never_decreases_window_aware_measures(fo in arb_flexoffer()) {
        let wider = FlexOffer::with_totals(
            fo.earliest_start(),
            fo.latest_start() + 1,
            fo.slices().to_vec(),
            fo.total_min(),
            fo.total_max(),
        ).unwrap();
        for m in [
            Box::new(TimeFlexibility) as Box<dyn Measure>,
            Box::new(ProductFlexibility),
            Box::new(VectorFlexibility::default()),
            Box::new(AssignmentFlexibility::default()),
        ] {
            let before = m.of(&fo).unwrap();
            let after = m.of(&wider).unwrap();
            prop_assert!(after + 1e-9 >= before, "{} shrank", m.name());
        }
        // Area measures too, where defined.
        let abs = AbsoluteAreaFlexibility::new();
        if let (Ok(b), Ok(a)) = (abs.of(&fo), abs.of(&wider)) {
            prop_assert!(a + 1e-9 >= b);
        }
    }

    #[test]
    fn series_flexibility_zero_iff_extremes_coincide(fo in arb_flexoffer()) {
        let m = TimeSeriesFlexibility::default();
        let v = m.of(&fo).unwrap();
        let extremes_equal =
            fo.min_assignment().as_series() == fo.max_assignment().as_series();
        prop_assert_eq!(v == 0.0, extremes_equal);
    }

    #[test]
    fn assignment_measure_matches_model_count(fo in arb_flexoffer()) {
        let m = AssignmentFlexibility::default();
        let expected = fo.unconstrained_assignment_count().unwrap() as f64;
        prop_assert_eq!(m.of(&fo).unwrap(), expected);
        let exact = AssignmentFlexibility::exact();
        prop_assert_eq!(
            exact.of(&fo).unwrap(),
            fo.constrained_assignment_count().unwrap() as f64
        );
    }

    #[test]
    fn relative_area_invariant_under_amount_scaling(fo in arb_positive_flexoffer(), k in 2i64..5) {
        // Scaling all amounts by k scales the union area and the totals by
        // k, leaving the relative measure unchanged (the paper's
        // "size-independent" intent, Definition 11).
        let scaled = FlexOffer::with_totals(
            fo.earliest_start(),
            fo.latest_start(),
            fo.slices().iter().map(|s| Slice::new(s.min() * k, s.max() * k).unwrap()).collect(),
            fo.total_min() * k,
            fo.total_max() * k,
        ).unwrap();
        let m = RelativeAreaFlexibility::new();
        match (m.of(&fo), m.of(&scaled)) {
            (Ok(a), Ok(b)) => prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}"),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "definedness changed: {:?} vs {:?}", a, b),
        }
    }

    #[test]
    fn absolute_area_scales_linearly_with_amounts(fo in arb_positive_flexoffer(), k in 2i64..5) {
        let scaled = FlexOffer::with_totals(
            fo.earliest_start(),
            fo.latest_start(),
            fo.slices().iter().map(|s| Slice::new(s.min() * k, s.max() * k).unwrap()).collect(),
            fo.total_min() * k,
            fo.total_max() * k,
        ).unwrap();
        let m = AbsoluteAreaFlexibility::new();
        prop_assert!((m.of(&scaled).unwrap() - k as f64 * m.of(&fo).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn translation_leaves_flexibility_primitives_unchanged(fo in arb_positive_flexoffer(), d in 1i64..50) {
        // Shifting all amounts by +d changes the size but not tf/ef.
        let shifted = FlexOffer::with_totals(
            fo.earliest_start(),
            fo.latest_start(),
            fo.slices().iter().map(|s| Slice::new(s.min() + d, s.max() + d).unwrap()).collect(),
            fo.total_min() + d * fo.slice_count() as i64,
            fo.total_max() + d * fo.slice_count() as i64,
        ).unwrap();
        prop_assert_eq!(TimeFlexibility.of(&fo).unwrap(), TimeFlexibility.of(&shifted).unwrap());
        prop_assert_eq!(EnergyFlexibility.of(&fo).unwrap(), EnergyFlexibility.of(&shifted).unwrap());
        prop_assert_eq!(ProductFlexibility.of(&fo).unwrap(), ProductFlexibility.of(&shifted).unwrap());
        prop_assert_eq!(
            AssignmentFlexibility::default().of(&fo).unwrap(),
            AssignmentFlexibility::default().of(&shifted).unwrap()
        );
    }

    #[test]
    fn set_sum_equals_sum_of_parts(fos in prop::collection::vec(arb_positive_flexoffer(), 1..5)) {
        for m in all_measures().iter().filter(|m| m.short_name() != "Rel. Area") {
            let total = m.of_set(&fos).unwrap();
            let parts: f64 = fos.iter().map(|f| m.of(f).unwrap()).sum();
            prop_assert!((total - parts).abs() < 1e-6, "{}", m.name());
        }
    }

    /// Columnar kernels are bitwise identical to the scalar prepared-offer
    /// loop — every value and every error, for all eight default measures
    /// plus the reject-mixed, log-scaled and (kernel-less, fallback-path)
    /// exact variants, over portfolios with mixed signs, empty sets and
    /// singletons.
    #[test]
    fn columnar_rows_match_the_scalar_loop_bitwise(
        fos in prop::collection::vec(arb_flexoffer(), 0..12),
    ) {
        let measures = kernel_suite();
        let columns = ColumnarBatch::new().columns(&fos, &measures);
        prop_assert_eq!(columns.len(), measures.len());
        for (i, fo) in fos.iter().enumerate() {
            let prepared = PreparedOffer::new(fo);
            for (j, m) in measures.iter().enumerate() {
                prop_assert_eq!(columns[j].len(), fos.len());
                let scalar = m.of_prepared(&prepared);
                match (&columns[j][i], &scalar) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "{} on {}: {} vs {}", m.name(), fo, a, b
                    ),
                    (Err(a), Err(b)) => prop_assert_eq!(a, b, "{} on {}", m.name(), fo),
                    (a, b) => prop_assert!(
                        false,
                        "{} on {}: {:?} vs {:?}", m.name(), fo, a, b
                    ),
                }
            }
        }
    }

    /// One batch arena reloaded across differently sized chunks gives the
    /// same values as a fresh batch per chunk — scratch reuse is
    /// observationally inert.
    #[test]
    fn arena_reuse_never_changes_values(
        fos in prop::collection::vec(arb_flexoffer(), 1..12),
        split in 0usize..12,
    ) {
        let measures = kernel_suite();
        let split = split.min(fos.len());
        let mut arena = ColumnarBatch::new();
        let reused = [
            arena.columns(&fos[..split], &measures),
            arena.columns(&fos[split..], &measures),
        ];
        let fresh = [
            ColumnarBatch::new().columns(&fos[..split], &measures),
            ColumnarBatch::new().columns(&fos[split..], &measures),
        ];
        prop_assert_eq!(reused, fresh);
    }
}

/// The eight default measures plus the variants that flip kernel-relevant
/// knobs: mixed-sign rejection (error paths), the log₂ assignment scale,
/// and the constrained count, which has no columnar kernel and must ride
/// the fallback path.
fn kernel_suite() -> Vec<Box<dyn Measure>> {
    let mut measures = all_measures();
    measures.push(Box::new(AbsoluteAreaFlexibility::rejecting_mixed()));
    measures.push(Box::new(RelativeAreaFlexibility::rejecting_mixed()));
    measures.push(Box::new(AssignmentFlexibility::log_scaled()));
    measures.push(Box::new(AssignmentFlexibility::exact()));
    measures
}
