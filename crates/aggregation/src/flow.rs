//! A small feasible-flow solver (Dinic's algorithm plus the standard
//! lower-bound transformation), the exact engine behind
//! [`disaggregate`](crate::disaggregate).
//!
//! Disaggregation is a transportation problem: member-slice values must sit
//! in their slice ranges, member totals in their `[cmin, cmax]` windows, and
//! column sums must equal the aggregated assignment. Greedy splitting can
//! paint itself into a corner; a feasible flow either produces an exact
//! split or proves none exists.

/// A directed flow network with per-edge lower and upper bounds.
#[derive(Debug)]
pub struct FlowNetwork {
    /// Forward/backward edge pairs: edge `2k` is forward, `2k+1` its
    /// residual twin, so edge `e` leaves node `to[e ^ 1]`.
    to: Vec<usize>,
    cap: Vec<i64>,
    /// Node excess induced by the lower-bound transformation; one entry
    /// per node.
    excess: Vec<i64>,
    /// For each original (caller-visible) edge: internal index and lower
    /// bound, to reconstruct flows.
    originals: Vec<(usize, i64)>,
}

/// The residual graph's adjacency, flat: node `u`'s edges, in the order
/// they were added, are `edges[first[u]..first[u + 1]]`.
struct Adjacency {
    first: Vec<usize>,
    edges: Vec<usize>,
}

impl Adjacency {
    /// Groups the edge ids of `to` by source node, each node's list in
    /// ascending id order — the order the edges were pushed in.
    fn of(to: &[usize], nodes: usize) -> Self {
        let mut first = vec![0usize; nodes + 1];
        for e in 0..to.len() {
            first[to[e ^ 1] + 1] += 1;
        }
        for u in 0..nodes {
            first[u + 1] += first[u];
        }
        let mut fill = first.clone();
        let mut edges = vec![0usize; to.len()];
        for e in 0..to.len() {
            let u = to[e ^ 1];
            edges[fill[u]] = e;
            fill[u] += 1;
        }
        Self { first, edges }
    }
}

impl FlowNetwork {
    /// Creates a network with `n` nodes (indices `0..n`).
    pub fn new(n: usize) -> Self {
        Self {
            to: Vec::new(),
            cap: Vec::new(),
            excess: vec![0; n],
            originals: Vec::new(),
        }
    }

    fn push_edge(&mut self, u: usize, v: usize, cap: i64) -> usize {
        let idx = self.to.len();
        self.to.push(v);
        self.cap.push(cap);
        self.to.push(u);
        self.cap.push(0);
        idx
    }

    /// Adds an edge `u -> v` carrying between `lower` and `upper` units.
    /// Returns the edge's id for [`FlowNetwork::solve`]'s flow vector.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, lower: i64, upper: i64) -> usize {
        assert!(lower <= upper, "edge bounds inverted: [{lower}, {upper}]");
        assert!(
            u < self.excess.len() && v < self.excess.len(),
            "node out of range"
        );
        let idx = self.push_edge(u, v, upper - lower);
        self.excess[v] += lower;
        self.excess[u] -= lower;
        let original_id = self.originals.len();
        self.originals.push((idx, lower));
        original_id
    }

    /// Finds a feasible `s -> t` flow respecting all bounds. Returns the
    /// per-original-edge flows, or `None` if no feasible flow exists.
    pub fn solve(mut self, s: usize, t: usize) -> Option<Vec<i64>> {
        let n = self.excess.len();
        let super_source = n;
        let super_sink = n + 1;

        // Close the circulation in both directions: production-side
        // networks carry *negative* lower bounds, whose transformed demands
        // can require net flow from t back to s as well as s to t.
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
        let adjacency = Adjacency::of(&self.to, n + 2);
        let pushed = self.dinic(&adjacency, super_source, super_sink);
        if pushed != required {
            return None;
        }
        Some(
            self.originals
                .iter()
                .map(|&(idx, lower)| lower + (initial_caps[idx] - self.cap[idx]))
                .collect(),
        )
    }

    /// Dinic's max flow from `s` to `t`. The level, iterator and queue
    /// buffers are allocated once and reset each phase; `iter[u]` is a
    /// position in `adj.edges`, starting each phase at `adj.first[u]`.
    fn dinic(&mut self, adj: &Adjacency, s: usize, t: usize) -> i64 {
        let n = adj.first.len() - 1;
        let mut total = 0;
        let mut level = vec![usize::MAX; n];
        let mut iter = vec![0usize; n];
        let mut queue = std::collections::VecDeque::with_capacity(n);
        loop {
            // BFS level graph.
            level.fill(usize::MAX);
            level[s] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &e in &adj.edges[adj.first[u]..adj.first[u + 1]] {
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
            // DFS blocking flow with iteration pointers.
            iter.copy_from_slice(&adj.first[..n]);
            loop {
                let pushed = self.dfs(adj, s, t, i64::MAX / 4, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                total += pushed;
            }
        }
    }

    fn dfs(
        &mut self,
        adj: &Adjacency,
        u: usize,
        t: usize,
        limit: i64,
        level: &[usize],
        iter: &mut [usize],
    ) -> i64 {
        if u == t {
            return limit;
        }
        while iter[u] < adj.first[u + 1] {
            let e = adj.edges[iter[u]];
            let v = self.to[e];
            if self.cap[e] > 0 && level[v] == level[u] + 1 {
                let pushed = self.dfs(adj, v, t, limit.min(self.cap[e]), level, iter);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_path_flow() {
        // s -> a -> t, demand forced by lower bounds.
        let mut net = FlowNetwork::new(3);
        let e1 = net.add_edge(0, 1, 2, 5);
        let e2 = net.add_edge(1, 2, 2, 5);
        let flows = net.solve(0, 2).expect("feasible");
        assert!(flows[e1] >= 2 && flows[e1] <= 5);
        assert_eq!(flows[e1], flows[e2]);
    }

    #[test]
    fn infeasible_lower_bounds_detected() {
        // Edge demands at least 3 but downstream capacity is 1.
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 3, 5);
        net.add_edge(1, 2, 0, 1);
        assert!(net.solve(0, 2).is_none());
    }

    #[test]
    fn split_across_parallel_paths() {
        // s -> {a, b} -> t, both paths carrying at least 1: conservation
        // holds per path and lower bounds are honoured.
        let mut net = FlowNetwork::new(4);
        let ea = net.add_edge(0, 1, 1, 3);
        let eb = net.add_edge(0, 2, 1, 3);
        let eat = net.add_edge(1, 3, 1, 3);
        let ebt = net.add_edge(2, 3, 1, 3);
        let flows = net.solve(0, 3).expect("feasible");
        assert!(flows[ea] >= 1 && flows[eb] >= 1);
        assert_eq!(flows[ea], flows[eat]);
        assert_eq!(flows[eb], flows[ebt]);
    }

    #[test]
    fn exact_column_demand() {
        // Transportation shape: two suppliers, one column demanding
        // exactly 4; supplier totals bounded [0,2] and [0,3].
        let mut net = FlowNetwork::new(5);
        let s = 0;
        let m1 = 1;
        let m2 = 2;
        let col = 3;
        let t = 4;
        net.add_edge(s, m1, 0, 2);
        net.add_edge(s, m2, 0, 3);
        let x1 = net.add_edge(m1, col, 0, 4);
        let x2 = net.add_edge(m2, col, 0, 4);
        net.add_edge(col, t, 4, 4);
        let flows = net.solve(s, t).expect("feasible");
        assert_eq!(flows[x1] + flows[x2], 4);
        assert!(flows[x1] <= 2 && flows[x2] <= 3);
    }

    #[test]
    fn all_negative_bounds_feasible() {
        // Production-shaped problem: every edge must carry exactly -1.
        let mut net = FlowNetwork::new(3);
        let e1 = net.add_edge(0, 1, -1, -1);
        let e2 = net.add_edge(1, 2, -1, -1);
        let flows = net.solve(0, 2).expect("feasible negative circulation");
        assert_eq!(flows[e1], -1);
        assert_eq!(flows[e2], -1);
    }

    #[test]
    fn mixed_sign_bounds_feasible() {
        // One member supplies [-2, 1] into a column demanding exactly -1.
        let mut net = FlowNetwork::new(3);
        let e1 = net.add_edge(0, 1, -2, 1);
        let e2 = net.add_edge(1, 2, -1, -1);
        let flows = net.solve(0, 2).expect("feasible");
        assert_eq!(flows[e1], -1);
        assert_eq!(flows[e2], -1);
    }

    #[test]
    fn exact_demand_infeasible_when_supply_short() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 0, 1);
        net.add_edge(1, 2, 0, 5);
        net.add_edge(2, 3, 3, 3); // demand 3, supply caps at 1
        assert!(net.solve(0, 3).is_none());
    }

    #[test]
    #[should_panic(expected = "edge bounds inverted")]
    fn inverted_bounds_panic() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 5, 2);
    }
}
