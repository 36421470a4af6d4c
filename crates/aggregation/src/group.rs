//! Tolerance-based grouping of flex-offers before aggregation.
//!
//! Start-alignment aggregation keeps only the *minimum* member time
//! flexibility, so throwing dissimilar flex-offers into one aggregate
//! destroys flexibility. Following the grouping parameters of Šikšnys et
//! al. (SSDBM 2012), offers are grouped only while their earliest start
//! times and time flexibilities stay within configured tolerances — the
//! knobs the flexibility-loss experiment sweeps.

use serde::{Deserialize, Serialize};

use flexoffers_model::FlexOffer;

/// Grouping tolerances.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupingParams {
    /// Maximum spread of earliest start times within a group (the EST
    /// tolerance of SSDBM 2012).
    pub est_tolerance: i64,
    /// Maximum spread of time flexibilities within a group (the TFT
    /// tolerance).
    pub tf_tolerance: i64,
    /// Optional cap on group size (e.g. a market lot limit).
    pub max_group_size: Option<usize>,
}

impl GroupingParams {
    /// Tolerances of zero: only identical `(tes, tf)` profiles group.
    pub fn strict() -> Self {
        Self {
            est_tolerance: 0,
            tf_tolerance: 0,
            max_group_size: None,
        }
    }

    /// Unbounded tolerances: everything lands in one group.
    pub fn single_group() -> Self {
        Self {
            est_tolerance: i64::MAX,
            tf_tolerance: i64::MAX,
            max_group_size: None,
        }
    }

    /// Symmetric tolerances without a size cap.
    pub fn with_tolerances(est_tolerance: i64, tf_tolerance: i64) -> Self {
        Self {
            est_tolerance,
            tf_tolerance,
            max_group_size: None,
        }
    }
}

/// Partitions `offers` into groups of indices honouring the tolerances.
///
/// Offers are sorted by `(tes, tf)` and swept greedily: an offer joins the
/// current group while its `tes` stays within `est_tolerance` of the group's
/// first `tes`, its `tf` within `tf_tolerance` of the group's first `tf`,
/// and the size cap is not hit. Groups are returned in sweep order; indices
/// refer to the *input* slice.
pub fn group_indices(offers: &[FlexOffer], params: &GroupingParams) -> Vec<Vec<usize>> {
    let keys: Vec<(i64, i64)> = offers
        .iter()
        .map(|fo| (fo.earliest_start(), fo.time_flexibility()))
        .collect();
    group_keys(&keys, params)
}

/// The grouping sweep over bare `(tes, tf)` keys — the one implementation
/// behind [`group_indices`], exposed so callers holding a *partitioned*
/// offer book (one that never materialises a flat `&[FlexOffer]`) can still
/// compute the exact same global grouping from 16 bytes per offer.
///
/// `keys[i]` is offer `i`'s `(earliest_start, time_flexibility)`; the
/// returned index groups are identical to what [`group_indices`] yields on
/// a slice with those keys, in the same order.
pub fn group_keys(keys: &[(i64, i64)], params: &GroupingParams) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    sweep_grouping(order.into_iter().map(|i| (keys[i], i)), params)
}

/// The greedy tolerance sweep shared by [`group_keys`] and
/// [`KeyIndex::group_ids`]: entries must arrive sorted by `(key, tag)`, and
/// each entry joins the current group while its `tes` stays within
/// `est_tolerance` of the group's first `tes`, its `tf` within
/// `tf_tolerance` of the group's first `tf`, and the size cap is not hit.
/// Keeping the sweep in one function is what makes the incremental and the
/// from-scratch grouping identical by construction.
fn sweep_grouping<T>(
    sorted: impl Iterator<Item = ((i64, i64), T)>,
    params: &GroupingParams,
) -> Vec<Vec<T>> {
    let mut groups: Vec<Vec<T>> = Vec::new();
    let mut anchor: Option<(i64, i64)> = None;
    for ((tes, tf), tag) in sorted {
        let fits = match (anchor, groups.last()) {
            (Some((a_tes, a_tf)), Some(last)) => {
                tes - a_tes <= params.est_tolerance
                    && (tf - a_tf).abs() <= params.tf_tolerance
                    && params.max_group_size.is_none_or(|cap| last.len() < cap)
            }
            _ => false,
        };
        if fits {
            groups.last_mut().expect("fits implies a group").push(tag);
        } else {
            anchor = Some((tes, tf));
            groups.push(vec![tag]);
        }
    }
    groups
}

/// An incrementally maintained sorted multiset of `(tes, tf)` grouping keys,
/// tagged with caller-chosen `u64` ids — the aggregation layer's piece of a
/// *live* portfolio book.
///
/// [`group_keys`] pays an `O(n log n)` sort on every call; a serving tier
/// that re-groups after every single-offer update cannot afford that. A
/// `KeyIndex` keeps a sorted main run plus an O(1)-append pending buffer:
/// inserts land in the buffer, and [`group_ids`](KeyIndex::group_ids)
/// settles it (sort the *buffer only*, one linear merge) before its
/// linear sweep — the exact sweep `group_keys` runs after sorting. Bulk loads stay linearithmic in
/// the *batch* size, and the steady-state single-offer update re-groups
/// with one `O(n)` merge pass and **no sort of the book's keys**.
///
/// # Equivalence
///
/// Entries are ordered by `(key, id)`. When ids are assigned in the same
/// order as positions in a logical portfolio (id order ⇔ position order —
/// true for a monotone id counter over a stream of adds, and removals keep
/// the remaining order), `group_ids` returns exactly the groups
/// [`group_keys`] produces over that portfolio's key slice, with ids in
/// place of positions: `group_keys`'s stable sort of distinct positions by
/// key *is* the `(key, position)` order. The round-trip test below and the
/// serving crate's proptests pin this.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyIndex {
    /// Sorted by `(key, id)`; ids are unique across both runs.
    sorted: Vec<((i64, i64), u64)>,
    /// Not-yet-merged inserts, in arrival order.
    pending: Vec<((i64, i64), u64)>,
}

impl KeyIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.sorted.len() + self.pending.len()
    }

    /// `true` when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty() && self.pending.is_empty()
    }

    /// Inserts `id` with `key` (amortised O(1) — the entry waits in the
    /// pending buffer until the next settle). A million-offer bulk load is
    /// a million O(1) pushes plus *one* sort-and-merge at the first query.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present under `key` in the settled run
    /// (debug builds also scan the pending buffer) — an id must be
    /// [`remove`](KeyIndex::remove)d (with its old key) before it can be
    /// re-inserted, or the index would silently hold duplicates.
    pub fn insert(&mut self, id: u64, key: (i64, i64)) {
        let entry = (key, id);
        assert!(
            self.sorted.binary_search(&entry).is_err(),
            "key index already holds id {id} under {key:?}"
        );
        // The pending scan is linear; keeping it out of release builds is
        // what makes bulk loads O(1) per insert.
        debug_assert!(
            !self.pending.contains(&entry),
            "key index already holds id {id} under {key:?}"
        );
        self.pending.push(entry);
    }

    /// Removes `id`, which the caller knows is stored under `key` (the
    /// serving book holds the offer and therefore its old key). Returns
    /// `false` when no such entry exists.
    pub fn remove(&mut self, id: u64, key: (i64, i64)) -> bool {
        // A large pending buffer would make the fallback scan below the
        // hot cost (removals right after a bulk load); settle first so
        // removal is a binary search plus one bounded scan.
        if self.pending.len() > 64 {
            self.settle();
        }
        let entry = (key, id);
        if let Ok(at) = self.sorted.binary_search(&entry) {
            self.sorted.remove(at);
            return true;
        }
        if let Some(at) = self.pending.iter().position(|e| *e == entry) {
            self.pending.swap_remove(at);
            return true;
        }
        false
    }

    /// Merges the pending buffer into the sorted run: sort the buffer
    /// (only), then one linear two-run merge.
    fn settle(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable();
        let mut merged = Vec::with_capacity(self.len());
        let mut a = std::mem::take(&mut self.sorted).into_iter().peekable();
        let mut b = std::mem::take(&mut self.pending).into_iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x <= y {
                        merged.push(a.next().expect("peeked"));
                    } else {
                        merged.push(b.next().expect("peeked"));
                    }
                }
                (Some(_), None) => merged.push(a.next().expect("peeked")),
                (None, Some(_)) => merged.push(b.next().expect("peeked")),
                (None, None) => break,
            }
        }
        self.sorted = merged;
    }

    /// The tolerance grouping over the live entries: identical to
    /// [`group_keys`] over the same key multiset (see the type docs for the
    /// id/position correspondence), with no sort of the book's keys on the
    /// query path (only a fresh pending buffer, if any, gets sorted).
    pub fn group_ids(&mut self, params: &GroupingParams) -> Vec<Vec<u64>> {
        self.settle();
        sweep_grouping(self.sorted.iter().map(|&(key, id)| (key, id)), params)
    }
}

/// Like [`group_indices`] but returning cloned flex-offer groups.
pub fn group_offers(offers: &[FlexOffer], params: &GroupingParams) -> Vec<Vec<FlexOffer>> {
    group_indices(offers, params)
        .into_iter()
        .map(|idx| idx.into_iter().map(|i| offers[i].clone()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexoffers_model::Slice;

    fn fo(tes: i64, tls: i64) -> FlexOffer {
        FlexOffer::new(tes, tls, vec![Slice::new(0, 2).unwrap()]).unwrap()
    }

    #[test]
    fn strict_groups_only_identical_shapes() {
        let offers = vec![fo(0, 2), fo(0, 2), fo(0, 3), fo(1, 3)];
        let groups = group_indices(&offers, &GroupingParams::strict());
        assert_eq!(groups, vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn single_group_swallows_everything() {
        let offers = vec![fo(0, 2), fo(50, 90), fo(7, 7)];
        let groups = group_indices(&offers, &GroupingParams::single_group());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn tolerances_split_on_both_axes() {
        let offers = vec![
            fo(0, 2),  // tes 0, tf 2
            fo(1, 3),  // tes 1, tf 2 -> within est 2, tf 0
            fo(5, 7),  // tes 5 -> too far
            fo(5, 20), // tf 15 -> too different
        ];
        let groups = group_indices(&offers, &GroupingParams::with_tolerances(2, 1));
        assert_eq!(groups, vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn size_cap_splits_groups() {
        let offers = vec![fo(0, 2); 5];
        let params = GroupingParams {
            est_tolerance: 10,
            tf_tolerance: 10,
            max_group_size: Some(2),
        };
        let groups = group_indices(&offers, &params);
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.len() <= 2));
    }

    #[test]
    fn groups_partition_the_input() {
        let offers = vec![fo(3, 5), fo(0, 1), fo(2, 2), fo(9, 12)];
        let groups = group_indices(&offers, &GroupingParams::with_tolerances(3, 2));
        let mut seen: Vec<usize> = groups.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(group_indices(&[], &GroupingParams::single_group()).is_empty());
        assert!(group_offers(&[], &GroupingParams::strict()).is_empty());
    }

    #[test]
    fn group_keys_is_exactly_group_indices_on_keys() {
        let offers = vec![fo(3, 5), fo(0, 1), fo(2, 2), fo(9, 12), fo(0, 1)];
        let keys: Vec<(i64, i64)> = offers
            .iter()
            .map(|f| (f.earliest_start(), f.time_flexibility()))
            .collect();
        for params in [
            GroupingParams::strict(),
            GroupingParams::single_group(),
            GroupingParams::with_tolerances(3, 2),
            GroupingParams {
                est_tolerance: 10,
                tf_tolerance: 10,
                max_group_size: Some(2),
            },
        ] {
            assert_eq!(
                group_keys(&keys, &params),
                group_indices(&offers, &params),
                "{params:?}"
            );
        }
    }

    #[test]
    fn key_index_matches_group_keys_after_incremental_edits() {
        // Build a key list, mirror it through a KeyIndex with interleaved
        // inserts/removes/re-inserts, and require the exact group_keys
        // output (ids standing in for positions).
        let mut keys: Vec<(i64, i64)> = vec![(0, 2), (1, 2), (5, 7), (0, 2), (5, 20), (2, 3)];
        let mut index = KeyIndex::new();
        for (i, &key) in keys.iter().enumerate() {
            index.insert(i as u64, key);
        }
        // Remove position 2, update position 4's key: the flat view drops
        // and rewrites in place, the index removes/re-inserts.
        assert!(index.remove(2, keys[2]));
        assert!(index.remove(4, keys[4]));
        index.insert(4, (1, 3));
        keys.remove(2);
        keys[3] = (1, 3); // old position 4
        assert!(!index.remove(99, (0, 0)), "unknown id reports false");

        // Live ids in position order (id 2 is gone; ids stay monotone).
        let live_ids: Vec<u64> = vec![0, 1, 3, 4, 5];
        for params in [
            GroupingParams::strict(),
            GroupingParams::single_group(),
            GroupingParams::with_tolerances(2, 1),
            GroupingParams {
                est_tolerance: 10,
                tf_tolerance: 10,
                max_group_size: Some(2),
            },
        ] {
            let expected: Vec<Vec<u64>> = group_keys(&keys, &params)
                .into_iter()
                .map(|group| group.into_iter().map(|pos| live_ids[pos]).collect())
                .collect();
            assert_eq!(index.group_ids(&params), expected, "{params:?}");
        }
        assert_eq!(index.len(), 5);
        assert!(!index.is_empty());
    }

    #[test]
    fn key_index_ties_stay_in_id_order() {
        // Equal keys must sweep in id order — the stable-sort behaviour of
        // group_keys — regardless of insertion order.
        let mut index = KeyIndex::new();
        for id in [3u64, 0, 2, 1] {
            index.insert(id, (4, 4));
        }
        assert_eq!(
            index.group_ids(&GroupingParams::single_group()),
            vec![vec![0, 1, 2, 3]]
        );
    }

    #[test]
    #[should_panic(expected = "already holds id")]
    fn key_index_rejects_duplicate_ids() {
        let mut index = KeyIndex::new();
        index.insert(7, (1, 1));
        index.insert(7, (1, 1));
    }

    #[test]
    fn empty_key_index_groups_to_nothing() {
        let mut index = KeyIndex::new();
        assert!(index.group_ids(&GroupingParams::strict()).is_empty());
        assert!(index.is_empty());
    }

    #[test]
    fn pending_entries_are_visible_before_and_after_settling() {
        // Entries removed while still pending, and groupings interleaved
        // with inserts, behave exactly as if every insert merged eagerly.
        let mut index = KeyIndex::new();
        index.insert(0, (5, 5));
        index.insert(1, (0, 0));
        assert_eq!(index.len(), 2);
        assert!(index.remove(0, (5, 5)), "remove out of the pending buffer");
        assert_eq!(
            index.group_ids(&GroupingParams::single_group()),
            vec![vec![1]]
        );
        index.insert(2, (0, 0));
        assert!(index.remove(1, (0, 0)), "remove out of the sorted run");
        assert_eq!(
            index.group_ids(&GroupingParams::single_group()),
            vec![vec![2]]
        );
    }

    #[test]
    fn group_offers_mirrors_indices() {
        let offers = vec![fo(0, 2), fo(0, 2), fo(8, 9)];
        let by_offers = group_offers(&offers, &GroupingParams::with_tolerances(1, 1));
        assert_eq!(by_offers.len(), 2);
        assert_eq!(by_offers[0].len(), 2);
        assert_eq!(by_offers[1][0], offers[2]);
    }
}
