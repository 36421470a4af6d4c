//! Property tests: aggregation invariants, disaggregation round-trips,
//! and the live key index against the from-scratch grouping.

use std::collections::BTreeMap;

use flexoffers_aggregation::{aggregate, group_indices, group_keys, GroupingParams, KeyIndex};
use flexoffers_model::{FlexOffer, Slice};
use flexoffers_timeseries::ops::sum_series;
use proptest::prelude::*;

fn arb_flexoffer() -> impl Strategy<Value = FlexOffer> {
    (
        0i64..4,
        0i64..4,
        prop::collection::vec((-3i64..4, 0i64..3), 1..4),
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

fn arb_group() -> impl Strategy<Value = Vec<FlexOffer>> {
    prop::collection::vec(arb_flexoffer(), 1..4)
}

/// One edit of a [`KeyIndex`], interpreted against the ids live at apply
/// time so any generated sequence is valid.
#[derive(Clone, Copy, Debug)]
enum KeyOp {
    /// Insert the next fresh id (a monotone counter) under a key.
    Insert((i64, i64)),
    /// Move the `pick`-th live id (wrapping) to a new key.
    ReKey(usize, (i64, i64)),
    /// Remove the `pick`-th live id (wrapping) under its own key.
    RemoveLive(usize),
    /// Remove an id under a key, whether or not that entry is live.
    Remove(u64, (i64, i64)),
}

fn arb_key_ops() -> impl Strategy<Value = Vec<KeyOp>> {
    // Keys from a 3×3 grid, so most entries tie with another.
    let op = (0usize..4, 0usize..64, 0i64..3, 0i64..3).prop_map(|(sel, pick, tes, tf)| {
        let key = (tes, tf);
        match sel {
            0 => KeyOp::Insert(key),
            1 => KeyOp::ReKey(pick, key),
            2 => KeyOp::RemoveLive(pick),
            _ => KeyOp::Remove(pick as u64, key),
        }
    });
    prop::collection::vec(op, 0..40)
}

/// Applies `ops` to a [`KeyIndex`] and to an id-ordered key map, and after
/// every step requires `group_ids` to equal `group_keys` over the map's
/// keys (ids standing in for positions) under strict, single-group,
/// tolerance and size-capped params.
fn replay_key_ops(ops: &[KeyOp]) -> Result<(), TestCaseError> {
    let params = [
        GroupingParams::strict(),
        GroupingParams::single_group(),
        GroupingParams::with_tolerances(1, 1),
        GroupingParams {
            est_tolerance: 2,
            tf_tolerance: 2,
            max_group_size: Some(2),
        },
    ];
    let mut index = KeyIndex::new();
    let mut live: BTreeMap<u64, (i64, i64)> = BTreeMap::new();
    let mut next_id = 0u64;
    for &op in ops {
        let nth_live = |pick: usize| live.keys().nth(pick % live.len().max(1)).copied();
        match op {
            KeyOp::Insert(key) => {
                index.insert(next_id, key);
                live.insert(next_id, key);
                next_id += 1;
            }
            KeyOp::ReKey(pick, key) => {
                if let Some(id) = nth_live(pick) {
                    prop_assert!(index.remove(id, live[&id]), "re-key of live id {}", id);
                    index.insert(id, key);
                    live.insert(id, key);
                }
            }
            KeyOp::RemoveLive(pick) => {
                if let Some(id) = nth_live(pick) {
                    prop_assert!(index.remove(id, live[&id]), "remove of live id {}", id);
                    live.remove(&id);
                }
            }
            KeyOp::Remove(id, key) => {
                let present = live.get(&id) == Some(&key);
                prop_assert_eq!(index.remove(id, key), present, "{:?}", op);
                if present {
                    live.remove(&id);
                }
            }
        }
        prop_assert_eq!(index.len(), live.len());
        prop_assert_eq!(index.is_empty(), live.is_empty());
        let ids: Vec<u64> = live.keys().copied().collect();
        let keys: Vec<(i64, i64)> = live.values().copied().collect();
        for params in &params {
            let expected: Vec<Vec<u64>> = group_keys(&keys, params)
                .into_iter()
                .map(|group| group.into_iter().map(|pos| ids[pos]).collect())
                .collect();
            let grouped = index.group_ids(params);
            prop_assert_eq!(grouped, expected, "{:?} after {:?}", params, op);
        }
    }
    Ok(())
}

#[test]
fn key_index_removes_and_regroups_between_inserts() {
    // Removes of the newest and of an older entry, absent entries (dead
    // id, wrong key, never-used id), and groupings between inserts.
    replay_key_ops(&[
        KeyOp::Insert((5, 5)),
        KeyOp::Insert((0, 0)),
        KeyOp::Remove(0, (5, 5)),
        KeyOp::Insert((0, 0)),
        KeyOp::Remove(1, (0, 0)),
        KeyOp::Remove(1, (0, 0)),
        KeyOp::Remove(2, (5, 5)),
        KeyOp::Remove(99, (0, 0)),
    ])
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn key_index_matches_group_keys_under_random_edits(ops in arb_key_ops()) {
        replay_key_ops(&ops)?;
    }

    #[test]
    fn aggregate_structure_invariants(group in arb_group()) {
        let agg = aggregate(&group).unwrap();
        let fo = agg.flexoffer();
        // Time flexibility is the member minimum.
        let min_tf = group.iter().map(FlexOffer::time_flexibility).min().unwrap();
        prop_assert_eq!(fo.time_flexibility(), min_tf);
        // Totals and profile bounds sum.
        prop_assert_eq!(fo.total_min(), group.iter().map(FlexOffer::total_min).sum::<i64>());
        prop_assert_eq!(fo.total_max(), group.iter().map(FlexOffer::total_max).sum::<i64>());
        prop_assert_eq!(fo.profile_min(), group.iter().map(FlexOffer::profile_min).sum::<i64>());
        prop_assert_eq!(fo.profile_max(), group.iter().map(FlexOffer::profile_max).sum::<i64>());
        // Earliest start is the member minimum.
        prop_assert_eq!(
            fo.earliest_start(),
            group.iter().map(FlexOffer::earliest_start).min().unwrap()
        );
    }

    #[test]
    fn member_sum_assignments_are_valid_for_aggregate(group in arb_group(), seed in 0u64..100) {
        // The converse of disaggregation: any combination of member
        // assignments at a shared alignment produces a valid aggregate
        // assignment. (This direction never fails — the overestimation only
        // goes the other way.)
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let agg = aggregate(&group).unwrap();
        let fo = agg.flexoffer();
        let t = rng.gen_range(fo.earliest_start()..=fo.latest_start());
        let mut values = vec![0i64; fo.slice_count()];
        for (m, off) in group.iter().zip(agg.offsets()) {
            let a = m.sample_assignment(&mut rng);
            // Re-anchor the sampled assignment at the shared alignment.
            for (j, v) in a.values().iter().enumerate() {
                values[(*off + j as i64) as usize] += v;
            }
        }
        let combined = flexoffers_model::Assignment::new(t, values);
        prop_assert!(fo.is_valid_assignment(&combined),
            "member combination invalid for aggregate: {}", combined);
    }

    #[test]
    fn disaggregation_round_trips_when_realizable(group in arb_group()) {
        let agg = aggregate(&group).unwrap();
        for a in agg.flexoffer().assignments().take(64) {
            match agg.disaggregate(&a) {
                Ok(parts) => {
                    prop_assert_eq!(parts.len(), group.len());
                    for (m, p) in group.iter().zip(&parts) {
                        prop_assert!(m.is_valid_assignment(p));
                    }
                    let series: Vec<_> = parts.iter().map(|p| p.as_series()).collect();
                    prop_assert_eq!(sum_series(series.iter()), a.as_series());
                }
                Err(flexoffers_aggregation::DisaggregationError::Unrealizable) => {
                    // Legal: the aggregate overestimates. The exact flow
                    // solver must agree with the combined solver.
                    prop_assert!(agg.disaggregate_flow(&a).is_err());
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }

    #[test]
    fn greedy_success_implies_flow_success(group in arb_group()) {
        let agg = aggregate(&group).unwrap();
        for a in agg.flexoffer().assignments().take(32) {
            if agg.disaggregate_greedy(&a).is_ok() {
                prop_assert!(agg.disaggregate_flow(&a).is_ok());
            }
        }
    }

    #[test]
    fn default_totals_make_every_assignment_realizable(
        raw in prop::collection::vec(
            (0i64..3, 0i64..3, prop::collection::vec((-3i64..3, 0i64..3), 1..3)), 1..4)
    ) {
        // Without explicit total constraints the transportation problem
        // decomposes per column and is always feasible.
        let group: Vec<FlexOffer> = raw
            .into_iter()
            .map(|(tes, w, slices)| {
                FlexOffer::new(
                    tes,
                    tes + w,
                    slices
                        .into_iter()
                        .map(|(min, sw)| Slice::new(min, min + sw).unwrap())
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let agg = aggregate(&group).unwrap();
        for a in agg.flexoffer().assignments().take(64) {
            prop_assert!(agg.disaggregate(&a).is_ok(), "unrealizable {a}");
        }
    }

    #[test]
    fn grouping_partitions_and_respects_tolerances(
        offers in prop::collection::vec(arb_flexoffer(), 0..8),
        est in 0i64..4,
        tft in 0i64..4,
    ) {
        let params = GroupingParams::with_tolerances(est, tft);
        let groups = group_indices(&offers, &params);
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..offers.len()).collect::<Vec<_>>());
        for g in &groups {
            let first = &offers[g[0]];
            for &i in g {
                prop_assert!(offers[i].earliest_start() - first.earliest_start() <= est);
                prop_assert!(
                    (offers[i].time_flexibility() - first.time_flexibility()).abs() <= tft
                );
            }
        }
    }
}
