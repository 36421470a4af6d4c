//! `realize_aggregate` against the implementation it replaced.
//!
//! The disaggregation kernels (the greedy column split, the feasible-flow
//! solver and the member-level fallback fit) were rewritten to run in time
//! linear in their input. The rewrite keeps every algorithm, so it must
//! keep every answer: this file carries the previous implementation,
//! trimmed to what `realize_aggregate` runs — per-column member scans, a
//! per-node adjacency list and per-phase buffers in Dinic, unit-step
//! water filling and a residual rebuilt by series subtraction — and
//! holds the two equal, assignment for assignment, on aggregates whose
//! greedy split fails, so both the flow path and the fallback path are
//! compared.

use flexoffers_aggregation::{aggregate, Aggregate};
use flexoffers_model::{Assignment, Energy, FlexOffer, Slice};
use flexoffers_scheduling::realize_aggregate;
use flexoffers_timeseries::Series;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The previous implementation, used only as the oracle.
mod reference {
    use super::*;

    pub fn realize(agg: &Aggregate, assignment: &Assignment) -> (Vec<Assignment>, bool) {
        match disaggregate(agg, assignment) {
            Some(parts) => (parts, false),
            None => {
                let mut residual: Series<i64> = assignment.as_series();
                let parts = agg
                    .members()
                    .iter()
                    .map(|member| {
                        let (fit, _) = best_fit_assignment(member, &residual);
                        residual = &residual - &fit.as_series();
                        fit
                    })
                    .collect();
                (parts, true)
            }
        }
    }

    fn disaggregate(agg: &Aggregate, assignment: &Assignment) -> Option<Vec<Assignment>> {
        agg.flexoffer().check_assignment(assignment).ok()?;
        greedy_split(agg, assignment).or_else(|| flow_split(agg, assignment))
    }

    fn greedy_split(agg: &Aggregate, assignment: &Assignment) -> Option<Vec<Assignment>> {
        let members = agg.members();
        let offsets = agg.offsets();
        let start = assignment.start();
        let mut values: Vec<Vec<Energy>> = members
            .iter()
            .map(|m| Vec::with_capacity(m.slice_count()))
            .collect();
        let mut assigned: Vec<Energy> = vec![0; members.len()];
        let suffix: Vec<Vec<(Energy, Energy)>> = members
            .iter()
            .map(|m| {
                let s = m.slice_count();
                let mut acc = vec![(0, 0); s + 1];
                for j in (0..s).rev() {
                    let sl = &m.slices()[j];
                    acc[j] = (acc[j + 1].0 + sl.min(), acc[j + 1].1 + sl.max());
                }
                acc
            })
            .collect();
        for (k, &v) in assignment.values().iter().enumerate() {
            let k = k as i64;
            let mut bounds: Vec<(usize, Energy, Energy)> = Vec::new();
            let mut sum_lo = 0;
            let mut sum_hi = 0;
            for (i, m) in members.iter().enumerate() {
                let j = k - offsets[i];
                if j < 0 || j >= m.slice_count() as i64 {
                    continue;
                }
                let j = j as usize;
                let sl = &m.slices()[j];
                let (suf_min, suf_max) = suffix[i][j + 1];
                let lo = sl.min().max(m.total_min() - assigned[i] - suf_max);
                let hi = sl.max().min(m.total_max() - assigned[i] - suf_min);
                if lo > hi {
                    return None;
                }
                sum_lo += lo;
                sum_hi += hi;
                bounds.push((i, lo, hi));
            }
            if v < sum_lo || v > sum_hi {
                return None;
            }
            let mut surplus = v - sum_lo;
            bounds.sort_by_key(|&(_, lo, hi)| -(hi - lo));
            for &(i, lo, hi) in &bounds {
                let give = surplus.min(hi - lo);
                surplus -= give;
                assigned[i] += lo + give;
                values[i].push(lo + give);
            }
        }
        let parts: Vec<Assignment> = members
            .iter()
            .zip(&values)
            .zip(offsets)
            .map(|((_, vals), off)| Assignment::new(start + off, vals.clone()))
            .collect();
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

    fn flow_split(agg: &Aggregate, assignment: &Assignment) -> Option<Vec<Assignment>> {
        let members = agg.members();
        let offsets = agg.offsets();
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
        let flows = net.solve(source, sink)?;
        let mut values: Vec<Vec<Energy>> =
            members.iter().map(|m| vec![0; m.slice_count()]).collect();
        for (i, j, id) in slice_edges {
            values[i][j] = flows[id];
        }
        Some(
            values
                .into_iter()
                .zip(offsets)
                .map(|(vals, off)| Assignment::new(assignment.start() + off, vals))
                .collect(),
        )
    }

    struct FlowNetwork {
        to: Vec<usize>,
        cap: Vec<i64>,
        adj: Vec<Vec<usize>>,
        excess: Vec<i64>,
        originals: Vec<(usize, i64)>,
    }

    impl FlowNetwork {
        fn new(n: usize) -> Self {
            Self {
                to: Vec::new(),
                cap: Vec::new(),
                adj: vec![Vec::new(); n],
                excess: vec![0; n],
                originals: Vec::new(),
            }
        }

        fn push_edge(&mut self, u: usize, v: usize, cap: i64) -> usize {
            let idx = self.to.len();
            self.to.push(v);
            self.cap.push(cap);
            self.adj[u].push(idx);
            self.to.push(u);
            self.cap.push(0);
            self.adj[v].push(idx + 1);
            idx
        }

        fn add_edge(&mut self, u: usize, v: usize, lower: i64, upper: i64) -> usize {
            let idx = self.push_edge(u, v, upper - lower);
            self.excess[v] += lower;
            self.excess[u] -= lower;
            self.originals.push((idx, lower));
            self.originals.len() - 1
        }

        fn solve(mut self, s: usize, t: usize) -> Option<Vec<i64>> {
            let n = self.adj.len();
            let (super_source, super_sink) = (n, n + 1);
            self.adj.push(Vec::new());
            self.adj.push(Vec::new());
            self.excess.push(0);
            self.excess.push(0);
            self.push_edge(t, s, i64::MAX / 4);
            self.push_edge(s, t, i64::MAX / 4);
            let mut required = 0;
            for node in 0..n {
                let e = self.excess[node];
                if e > 0 {
                    self.push_edge(super_source, node, e);
                    required += e;
                } else if e < 0 {
                    self.push_edge(node, super_sink, -e);
                }
            }
            let initial_caps = self.cap.clone();
            if self.dinic(super_source, super_sink) != required {
                return None;
            }
            Some(
                self.originals
                    .iter()
                    .map(|&(idx, lower)| lower + (initial_caps[idx] - self.cap[idx]))
                    .collect(),
            )
        }

        fn dinic(&mut self, s: usize, t: usize) -> i64 {
            let n = self.adj.len();
            let mut total = 0;
            loop {
                let mut level = vec![usize::MAX; n];
                level[s] = 0;
                let mut queue = std::collections::VecDeque::from([s]);
                while let Some(u) = queue.pop_front() {
                    for &e in &self.adj[u] {
                        let v = self.to[e];
                        if self.cap[e] > 0 && level[v] == usize::MAX {
                            level[v] = level[u] + 1;
                            queue.push_back(v);
                        }
                    }
                }
                if level[t] == usize::MAX {
                    return total;
                }
                let mut iter = vec![0usize; n];
                loop {
                    let pushed = self.dfs(s, t, i64::MAX / 4, &level, &mut iter);
                    if pushed == 0 {
                        break;
                    }
                    total += pushed;
                }
            }
        }

        fn dfs(
            &mut self,
            u: usize,
            t: usize,
            limit: i64,
            level: &[usize],
            iter: &mut [usize],
        ) -> i64 {
            if u == t {
                return limit;
            }
            while iter[u] < self.adj[u].len() {
                let e = self.adj[u][iter[u]];
                let v = self.to[e];
                if self.cap[e] > 0 && level[v] == level[u] + 1 {
                    let pushed = self.dfs(v, t, limit.min(self.cap[e]), level, iter);
                    if pushed > 0 {
                        self.cap[e] -= pushed;
                        self.cap[e ^ 1] += pushed;
                        return pushed;
                    }
                }
                iter[u] += 1;
            }
            0
        }
    }

    fn best_fit_assignment(fo: &FlexOffer, residual: &Series<i64>) -> (Assignment, f64) {
        let mut best: Option<(Assignment, f64)> = None;
        for t in fo.earliest_start()..=fo.latest_start() {
            let desired: Vec<Energy> = (0..fo.slice_count())
                .map(|j| residual.at(t + j as i64))
                .collect();
            let values = water_fill(fo, &desired);
            let delta: f64 = desired
                .iter()
                .zip(&values)
                .map(|(&r, &v)| {
                    let after = (r - v) as f64;
                    let before = r as f64;
                    after * after - before * before
                })
                .sum();
            if best.as_ref().is_none_or(|(_, d)| delta < *d) {
                best = Some((Assignment::new(t, values), delta));
            }
        }
        best.expect("start window is never empty")
    }

    fn water_fill(fo: &FlexOffer, desired: &[Energy]) -> Vec<Energy> {
        let mut values: Vec<Energy> = fo
            .slices()
            .iter()
            .zip(desired)
            .map(|(s, &d)| s.clamp(d))
            .collect();
        let mut total: Energy = values.iter().sum();
        while total > fo.total_max() {
            let j = (0..values.len())
                .filter(|&j| values[j] > fo.slices()[j].min())
                .max_by_key(|&j| values[j] - desired[j])
                .expect("repair can proceed");
            values[j] -= 1;
            total -= 1;
        }
        while total < fo.total_min() {
            let j = (0..values.len())
                .filter(|&j| values[j] < fo.slices()[j].max())
                .max_by_key(|&j| desired[j] - values[j])
                .expect("repair can proceed");
            values[j] += 1;
            total += 1;
        }
        values
    }
}

/// A member with a start window, one to four slices (production, mixed
/// and consumption ranges) and a total window drawn anywhere inside its
/// profile's sum range — narrow windows are what strand the greedy split.
fn arb_member() -> impl Strategy<Value = FlexOffer> {
    (
        0i64..3,
        0i64..4,
        prop::collection::vec((-4i64..4, 0i64..4), 1..5),
        0i64..1000,
        0i64..1000,
    )
        .prop_map(|(tes, tf, raw, a, b)| {
            let slices: Vec<Slice> = raw
                .into_iter()
                .map(|(min, w)| Slice::new(min, min + w).unwrap())
                .collect();
            let lo: Energy = slices.iter().map(Slice::min).sum();
            let hi: Energy = slices.iter().map(Slice::max).sum();
            let span = hi - lo + 1;
            let (x, y) = (lo + a % span, lo + b % span);
            FlexOffer::with_totals(tes, tes + tf, slices, x.min(y), x.max(y)).unwrap()
        })
}

/// An aggregate of two to seven members and a valid assignment of it: a
/// start in its window, per-slice picks in the slice ranges, then the
/// total walked into the aggregate's window one forward pass at a time.
fn arb_plan() -> impl Strategy<Value = (Aggregate, Assignment)> {
    (
        prop::collection::vec(arb_member(), 2..8),
        0i64..1000,
        prop::collection::vec(0i64..1000, 32..33),
    )
        .prop_map(|(members, start_pick, picks)| {
            let agg = aggregate(&members).expect("non-empty members");
            let fo = agg.flexoffer();
            let window = fo.latest_start() - fo.earliest_start() + 1;
            let start = fo.earliest_start() + start_pick % window;
            let mut values: Vec<Energy> = fo
                .slices()
                .iter()
                .zip(picks.iter().cycle())
                .map(|(s, p)| s.min() + p % (s.max() - s.min() + 1))
                .collect();
            let mut total: Energy = values.iter().sum();
            for (v, s) in values.iter_mut().zip(fo.slices()) {
                let drop = (*v - s.min()).min((total - fo.total_max()).max(0));
                *v -= drop;
                total -= drop;
                let add = (s.max() - *v).min((fo.total_min() - total).max(0));
                *v += add;
                total += add;
            }
            let assignment = Assignment::new(start, values);
            assert!(fo.is_valid_assignment(&assignment), "plan generator");
            (agg, assignment)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn realize_matches_the_previous_implementation_when_greedy_fails(case in arb_plan()) {
        let (agg, assignment) = case;
        prop_assume!(agg.disaggregate_greedy(&assignment).is_err());
        prop_assert_eq!(
            realize_aggregate(&agg, &assignment),
            reference::realize(&agg, &assignment)
        );
    }
}

/// The plan generator reaches both sides of the comparison above: among
/// plans the greedy split cannot realize, some are realized by the flow
/// solver and some fall back to member-level fitting.
#[test]
fn plan_generator_covers_the_flow_and_fallback_paths() {
    let (mut flow, mut fallback) = (0, 0);
    for seed in 0..400 {
        let (agg, assignment) = arb_plan().gen(&mut TestRng::from_seed(seed));
        if agg.disaggregate_greedy(&assignment).is_ok() {
            continue;
        }
        if realize_aggregate(&agg, &assignment).1 {
            fallback += 1;
        } else {
            flow += 1;
        }
    }
    assert!(
        flow >= 10 && fallback >= 10,
        "flow-realized {flow}, fallback {fallback} of 400 plans"
    );
}
