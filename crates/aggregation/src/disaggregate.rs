//! Disaggregation: splitting an aggregate's assignment into one valid
//! assignment per member.
//!
//! The aggregate's slice ranges and totals are *sums* of the members', so an
//! aggregated assignment prescribes, per column, an amount the participating
//! member slices must jointly supply, and, overall, a total each member must
//! keep inside its own `[cmin, cmax]`. That is a transportation problem with
//! interval bounds.
//!
//! Two solvers:
//!
//! * [`Aggregate::disaggregate_greedy`] — one left-to-right pass
//!   maintaining per-member feasibility invariants (assigned-so-far plus the
//!   reachable range of the member's remaining slices must still intersect
//!   its total window). Fast, and complete in the common case, but the
//!   per-column surplus heuristic can strand *cross-member* feasibility.
//! * [`Aggregate::disaggregate_flow`] — an exact feasible-flow formulation
//!   ([`crate::flow`]); finds a split whenever one exists.
//!
//! [`Aggregate::disaggregate`] runs greedy first and falls back to flow, so
//! callers always get an exact answer at greedy speed in the common case.
//! When even the flow is infeasible the aggregate genuinely admits an
//! assignment its members cannot realise — start-alignment aggregation over
//! heterogeneous total constraints *overestimates* flexibility, a
//! phenomenon quantified in the loss experiments and demonstrated in the
//! tests below.

use flexoffers_model::{Assignment, Energy, TimeSlot};

use crate::error::DisaggregationError;
use crate::flow::FlowNetwork;
use crate::start_align::Aggregate;

impl Aggregate {
    /// Splits `assignment` into one valid assignment per member (input
    /// order), trying greedy first and falling back to the exact flow
    /// solver.
    pub fn disaggregate(
        &self,
        assignment: &Assignment,
    ) -> Result<Vec<Assignment>, DisaggregationError> {
        self.check(assignment)?;
        match self.greedy_split(assignment) {
            Some(parts) => Ok(parts),
            None => self.flow_split(assignment),
        }
    }

    /// Greedy-only disaggregation; `Err(Unrealizable)` when the heuristic
    /// gets stuck (which does *not* prove infeasibility — use
    /// [`Aggregate::disaggregate`] for an exact answer).
    pub fn disaggregate_greedy(
        &self,
        assignment: &Assignment,
    ) -> Result<Vec<Assignment>, DisaggregationError> {
        self.check(assignment)?;
        self.greedy_split(assignment)
            .ok_or(DisaggregationError::Unrealizable)
    }

    /// Exact flow-based disaggregation.
    pub fn disaggregate_flow(
        &self,
        assignment: &Assignment,
    ) -> Result<Vec<Assignment>, DisaggregationError> {
        self.check(assignment)?;
        self.flow_split(assignment)
    }

    fn check(&self, assignment: &Assignment) -> Result<(), DisaggregationError> {
        self.flexoffer()
            .check_assignment(assignment)
            .map_err(DisaggregationError::InvalidAggregateAssignment)
    }

    /// One pass over columns, each visiting only the members that cover
    /// it. For member `i` at its slice `j`:
    /// `L = max(amin_j, cmin_i - assigned - suffix_max)` and
    /// `U = min(amax_j, cmax_i - assigned - suffix_min)` keep the member's
    /// own completion feasible; the column then needs
    /// `sum(L) <= v(k) <= sum(U)`, with the surplus `v(k) - sum(L)` dealt to
    /// members by descending slack.
    fn greedy_split(&self, assignment: &Assignment) -> Option<Vec<Assignment>> {
        let members = self.members();
        let offsets = self.offsets();
        let start = assignment.start();
        let n_cols = assignment.len();
        let mut values: Vec<Vec<Energy>> = members
            .iter()
            .map(|m| Vec::with_capacity(m.slice_count()))
            .collect();
        let mut assigned: Vec<Energy> = vec![0; members.len()];

        // Participants per column, in member order, as one flat list:
        // column k's members are `participants[first[k]..first[k + 1]]`.
        let cols = |i: usize| {
            let clip = |t: TimeSlot| t.clamp(0, n_cols as TimeSlot) as usize;
            clip(offsets[i])..clip(offsets[i] + members[i].slice_count() as TimeSlot)
        };
        let mut first = vec![0usize; n_cols + 1];
        for i in 0..members.len() {
            for k in cols(i) {
                first[k + 1] += 1;
            }
        }
        for k in 0..n_cols {
            first[k + 1] += first[k];
        }
        let mut participants = vec![0usize; first[n_cols]];
        let mut fill = first.clone();
        for i in 0..members.len() {
            for k in cols(i) {
                participants[fill[k]] = i;
                fill[k] += 1;
            }
        }

        // Suffix sums of slice bounds per member, flat: the reachable range
        // of member `i`'s slices from position j on is
        // `suffix[base[i] + j]`, with a zero entry one past its last slice.
        let mut base = Vec::with_capacity(members.len());
        let mut suffix: Vec<(Energy, Energy)> = Vec::new();
        for m in members {
            base.push(suffix.len());
            let from = suffix.len();
            suffix.resize(from + m.slice_count() + 1, (0, 0));
            for (j, sl) in m.slices().iter().enumerate().rev() {
                let (lo, hi) = suffix[from + j + 1];
                suffix[from + j] = (lo + sl.min(), hi + sl.max());
            }
        }

        let mut bounds: Vec<(usize, Energy, Energy)> = Vec::new();
        for (k, &v) in assignment.values().iter().enumerate() {
            bounds.clear();
            let mut sum_lo = 0;
            let mut sum_hi = 0;
            for &i in &participants[first[k]..first[k + 1]] {
                let m = &members[i];
                let j = (k as i64 - offsets[i]) as usize;
                let sl = &m.slices()[j];
                let (suf_min, suf_max) = suffix[base[i] + j + 1];
                let lo = sl.min().max(m.total_min() - assigned[i] - suf_max);
                let hi = sl.max().min(m.total_max() - assigned[i] - suf_min);
                if lo > hi {
                    return None; // member-level invariant broken earlier
                }
                sum_lo += lo;
                sum_hi += hi;
                bounds.push((i, lo, hi));
            }
            if v < sum_lo || v > sum_hi {
                return None;
            }
            // Give everyone the floor, deal the surplus by descending slack.
            let mut surplus = v - sum_lo;
            bounds.sort_by_key(|&(_, lo, hi)| -(hi - lo));
            for &(i, lo, hi) in &bounds {
                let give = surplus.min(hi - lo);
                surplus -= give;
                assigned[i] += lo + give;
                values[i].push(lo + give);
            }
            debug_assert_eq!(surplus, 0, "surplus fits because v <= sum_hi");
        }
        let parts: Vec<Assignment> = values
            .into_iter()
            .zip(offsets)
            .map(|(vals, off)| Assignment::new(start + off, vals))
            .collect();
        // Final validity check: totals may be violated only through a bug;
        // keep the guard cheap and unconditional.
        if members
            .iter()
            .zip(&parts)
            .all(|(m, a)| m.is_valid_assignment(a))
        {
            Some(parts)
        } else {
            None
        }
    }

    /// Exact split via feasible flow. Nodes: source, one per member, one per
    /// column, sink. Source->member edges carry the member's total window,
    /// member->column edges the slice ranges, column->sink edges exactly the
    /// aggregated value. Amounts may be negative, so every edge is shifted
    /// by its lower bound before entering the (non-negative) flow network —
    /// the [`FlowNetwork`] handles that internally via its lower-bound
    /// transformation.
    fn flow_split(&self, assignment: &Assignment) -> Result<Vec<Assignment>, DisaggregationError> {
        let members = self.members();
        let offsets = self.offsets();
        let n_members = members.len();
        let n_cols = assignment.len();
        let source = 0;
        let member_node = |i: usize| 1 + i;
        let col_node = |k: usize| 1 + n_members + k;
        let sink = 1 + n_members + n_cols;
        let mut net = FlowNetwork::new(sink + 1);

        for (i, m) in members.iter().enumerate() {
            net.add_edge(source, member_node(i), m.total_min(), m.total_max());
        }
        // member -> column edges, remembering (member, slice index, edge id).
        let mut slice_edges: Vec<(usize, usize, usize)> = Vec::new();
        for (i, m) in members.iter().enumerate() {
            for (j, sl) in m.slices().iter().enumerate() {
                let k = (offsets[i] + j as i64) as usize;
                let id = net.add_edge(member_node(i), col_node(k), sl.min(), sl.max());
                slice_edges.push((i, j, id));
            }
        }
        for (k, &v) in assignment.values().iter().enumerate() {
            net.add_edge(col_node(k), sink, v, v);
        }

        let flows = net
            .solve(source, sink)
            .ok_or(DisaggregationError::Unrealizable)?;

        let mut values: Vec<Vec<Energy>> =
            members.iter().map(|m| vec![0; m.slice_count()]).collect();
        for (i, j, id) in slice_edges {
            values[i][j] = flows[id];
        }
        Ok(members
            .iter()
            .zip(values)
            .zip(offsets)
            .map(|((_, vals), off)| Assignment::new(assignment.start() + off, vals))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::start_align::aggregate;
    use flexoffers_model::{FlexOffer, Slice};
    use flexoffers_timeseries::ops::sum_series;

    fn fo(tes: i64, tls: i64, slices: Vec<(i64, i64)>) -> FlexOffer {
        FlexOffer::new(
            tes,
            tls,
            slices
                .into_iter()
                .map(|(a, b)| Slice::new(a, b).unwrap())
                .collect(),
        )
        .unwrap()
    }

    fn assert_exact_split(agg: &Aggregate, a: &Assignment, parts: &[Assignment]) {
        assert_eq!(parts.len(), agg.len());
        for (m, p) in agg.members().iter().zip(parts) {
            assert!(m.is_valid_assignment(p), "member got invalid {p}");
        }
        let series: Vec<_> = parts.iter().map(Assignment::as_series).collect();
        let total = sum_series(series.iter());
        assert_eq!(total, a.as_series(), "parts must sum to the aggregate");
    }

    #[test]
    fn aligned_pair_round_trips() {
        let f = fo(0, 2, vec![(1, 3), (0, 2)]);
        let g = fo(0, 3, vec![(2, 4), (1, 1)]);
        let agg = aggregate(&[f, g]).unwrap();
        for a in agg.flexoffer().assignments() {
            let parts = agg.disaggregate(&a).expect("realizable");
            assert_exact_split(&agg, &a, &parts);
        }
    }

    #[test]
    fn offset_members_round_trip() {
        let early = fo(0, 2, vec![(1, 2)]);
        let late = fo(2, 4, vec![(0, 3)]);
        let agg = aggregate(&[early, late]).unwrap();
        for a in agg.flexoffer().assignments() {
            let parts = agg.disaggregate(&a).expect("realizable");
            assert_exact_split(&agg, &a, &parts);
            // Member starts respect the stored offsets.
            assert_eq!(parts[0].start(), a.start());
            assert_eq!(parts[1].start(), a.start() + 2);
        }
    }

    #[test]
    fn production_and_consumption_round_trip() {
        let consumer = fo(0, 1, vec![(1, 4)]);
        let producer = fo(0, 1, vec![(-3, -1)]);
        let agg = aggregate(&[consumer, producer]).unwrap();
        for a in agg.flexoffer().assignments() {
            let parts = agg.disaggregate(&a).expect("realizable");
            assert_exact_split(&agg, &a, &parts);
        }
    }

    #[test]
    fn heterogeneous_totals_create_unrealizable_assignments() {
        // Both members: two [0,1] slices. Member 1 must total exactly 2,
        // member 2 exactly 0. Aggregate: slices [0,2],[0,2], totals [2,2].
        // The aggregated assignment <2,0> is valid for the aggregate but
        // member 1 can put at most 1 into column 0 while member 2 must put
        // 0 everywhere -> column 0 cannot reach 2.
        let m1 = FlexOffer::with_totals(
            0,
            0,
            vec![Slice::new(0, 1).unwrap(), Slice::new(0, 1).unwrap()],
            2,
            2,
        )
        .unwrap();
        let m2 = FlexOffer::with_totals(
            0,
            0,
            vec![Slice::new(0, 1).unwrap(), Slice::new(0, 1).unwrap()],
            0,
            0,
        )
        .unwrap();
        let agg = aggregate(&[m1, m2]).unwrap();
        let ghost = Assignment::new(0, vec![2, 0]);
        assert!(agg.flexoffer().is_valid_assignment(&ghost));
        assert_eq!(
            agg.disaggregate(&ghost),
            Err(DisaggregationError::Unrealizable)
        );
        // The balanced assignment <1,1> is realizable.
        let fair = Assignment::new(0, vec![1, 1]);
        let parts = agg.disaggregate(&fair).unwrap();
        assert_exact_split(&agg, &fair, &parts);
    }

    #[test]
    fn flow_agrees_with_greedy_when_greedy_succeeds() {
        let f = fo(0, 2, vec![(0, 3), (1, 2)]);
        let g = fo(1, 3, vec![(2, 5)]);
        let agg = aggregate(&[f, g]).unwrap();
        for a in agg.flexoffer().assignments() {
            let greedy = agg.disaggregate_greedy(&a);
            let flow = agg.disaggregate_flow(&a);
            match (greedy, flow) {
                (Ok(gp), Ok(fp)) => {
                    assert_exact_split(&agg, &a, &gp);
                    assert_exact_split(&agg, &a, &fp);
                }
                (Err(_), Ok(fp)) => assert_exact_split(&agg, &a, &fp),
                (Ok(_), Err(_)) => panic!("greedy found a split the flow missed"),
                (Err(_), Err(_)) => panic!("assignment of the aggregate unrealizable: {a}"),
            }
        }
    }

    #[test]
    fn invalid_aggregate_assignment_rejected_up_front() {
        let agg = aggregate(&[fo(0, 1, vec![(0, 2)])]).unwrap();
        let bad = Assignment::new(9, vec![1]);
        assert!(matches!(
            agg.disaggregate(&bad),
            Err(DisaggregationError::InvalidAggregateAssignment(_))
        ));
    }

    #[test]
    fn singleton_disaggregation_is_identity() {
        let f = fo(1, 4, vec![(0, 2), (1, 3)]);
        let agg = aggregate(std::slice::from_ref(&f)).unwrap();
        let a = Assignment::new(2, vec![1, 2]);
        let parts = agg.disaggregate(&a).unwrap();
        assert_eq!(parts, vec![a]);
    }
}
