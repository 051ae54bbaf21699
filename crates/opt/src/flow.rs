//! Maximum-flow substrate (Dinic's algorithm) and the flow-based
//! schedulability test.
//!
//! The related work the paper compares against ([Albers et al.] and
//! [Angel et al.], the papers' refs [2] and [4]) reduces speed-scaling on
//! multiprocessors to repeated maximum-flow computations. We implement the
//! underlying reduction once as a substrate: a task set is feasible on `m`
//! cores at uniform frequency cap `f` iff the following network admits a
//! flow saturating the source:
//!
//! ```text
//! source ──C_i/f──▶ task_i ──Δ_j──▶ subinterval_j ──m·Δ_j──▶ sink
//!                     (edge iff window covers subinterval)
//! ```
//!
//! This is the exact feasibility oracle; the interval-based conditions in
//! `esched-subinterval::analysis` are its combinatorial shadow. Binary
//! searching the cap over this oracle yields the minimum feasible uniform
//! frequency to any accuracy — the `O(n·f(n)·log U)` scheme of ref [4].

// Indexed loops below walk several parallel arrays at once; iterator
// zips would obscure the numerics. Silence clippy's range-loop lint here.
#![allow(clippy::needless_range_loop)]

use esched_subinterval::Timeline;
use esched_types::TaskSet;

/// An edge in the flow network (paired with its reverse). The flow an
/// edge carries is its reverse edge's residual capacity.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    cap: f64,
    /// Index of the reverse edge in `graph[to]`.
    rev: usize,
}

/// Opaque handle to an edge, for querying its flow after `max_flow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeHandle {
    from: usize,
    index: usize,
}

/// Dinic's maximum-flow solver over `f64` capacities.
#[derive(Debug, Clone)]
pub struct Dinic {
    graph: Vec<Vec<Edge>>,
    /// Capacities below this are treated as zero when building levels.
    eps: f64,
}

impl Dinic {
    /// Create a network with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            graph: vec![Vec::new(); n],
            eps: 1e-12,
        }
    }

    /// Add a directed edge `from → to` with capacity `cap ≥ 0`. Returns a
    /// handle usable with [`Dinic::flow_of`] after [`Dinic::max_flow`].
    pub fn add_edge(&mut self, from: usize, to: usize, cap: f64) -> EdgeHandle {
        assert!(cap >= 0.0 && cap.is_finite());
        let rev_from = self.graph[to].len();
        let rev_to = self.graph[from].len();
        self.graph[from].push(Edge {
            to,
            cap,
            rev: rev_from,
        });
        self.graph[to].push(Edge {
            to: from,
            cap: 0.0,
            rev: rev_to,
        });
        EdgeHandle {
            from,
            index: rev_to,
        }
    }

    /// Flow pushed through an edge (valid after [`Dinic::max_flow`]),
    /// clamped at 0.
    pub fn flow_of(&self, handle: EdgeHandle) -> f64 {
        let e = &self.graph[handle.from][handle.index];
        self.graph[e.to][e.rev].cap.max(0.0)
    }

    /// Withdraw `amount` units of flow from an edge, returning them to its
    /// residual capacity. The caller keeps flow conserved by withdrawing
    /// the same amount along a whole source–sink path.
    fn withdraw(&mut self, handle: EdgeHandle, amount: f64) {
        let e = self.graph[handle.from][handle.index];
        self.graph[handle.from][handle.index].cap += amount;
        self.graph[e.to][e.rev].cap -= amount;
    }

    /// Nodes reachable from `s` through edges with residual capacity —
    /// after [`Dinic::max_flow`], the source side of the minimal minimum
    /// cut.
    fn reachable(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.graph.len()];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(v) = stack.pop() {
            for e in &self.graph[v] {
                if e.cap > self.eps && !seen[e.to] {
                    seen[e.to] = true;
                    stack.push(e.to);
                }
            }
        }
        seen
    }

    fn bfs_levels(&self, s: usize, t: usize) -> Option<Vec<i32>> {
        let mut level = vec![-1; self.graph.len()];
        let mut queue = std::collections::VecDeque::new();
        level[s] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for e in &self.graph[v] {
                if e.cap > self.eps && level[e.to] < 0 {
                    level[e.to] = level[v] + 1;
                    queue.push_back(e.to);
                }
            }
        }
        (level[t] >= 0).then_some(level)
    }

    fn dfs_augment(
        &mut self,
        v: usize,
        t: usize,
        pushed: f64,
        level: &[i32],
        iter: &mut [usize],
    ) -> f64 {
        if v == t {
            return pushed;
        }
        while iter[v] < self.graph[v].len() {
            let (to, cap, rev) = {
                let e = &self.graph[v][iter[v]];
                (e.to, e.cap, e.rev)
            };
            if cap > self.eps && level[to] == level[v] + 1 {
                let d = self.dfs_augment(to, t, pushed.min(cap), level, iter);
                if d > self.eps {
                    self.graph[v][iter[v]].cap -= d;
                    self.graph[to][rev].cap += d;
                    return d;
                }
            }
            iter[v] += 1;
        }
        0.0
    }

    /// Augment the current flow from `s` to `t` until it is maximum, and
    /// return the amount added. On a fresh network this is the maximum
    /// flow; on one that already carries flow, the residual capacities are
    /// reused and only the difference is pushed.
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        let mut flow = 0.0;
        while let Some(level) = self.bfs_levels(s, t) {
            let mut iter = vec![0usize; self.graph.len()];
            loop {
                let f = self.dfs_augment(s, t, f64::INFINITY, &level, &mut iter);
                if f <= self.eps {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

/// The `source → task → subinterval → sink` network of the module docs,
/// with adjustable per-task demands on the source edges.
///
/// Node layout: `0` is the source, `1 + i` task `i`, `1 + n + j`
/// subinterval `j`, and the last node the sink. Each task node's edge list
/// holds the reverse of its source edge first, then its subinterval edges
/// in span order, so a task's flows are read and withdrawn by position.
/// The network persists across demand changes: [`TaskNetwork::set_demand`]
/// withdraws flow a lowered demand no longer admits, and
/// [`TaskNetwork::augment`] tops the flow back up to a maximum from the
/// residual instead of starting over.
#[derive(Debug, Clone)]
pub struct TaskNetwork {
    net: Dinic,
    /// Subinterval range `[a, b)` of each task.
    spans: Vec<(usize, usize)>,
    /// Handle of each subinterval's edge to the sink.
    sink_edges: Vec<EdgeHandle>,
}

impl TaskNetwork {
    /// Build the network for tasks covering the subinterval ranges
    /// `spans`, subinterval lengths `deltas`, and `cores` cores. Every
    /// demand starts at zero.
    pub(crate) fn new(spans: Vec<(usize, usize)>, deltas: &[f64], cores: usize) -> Self {
        let n = spans.len();
        let nsub = deltas.len();
        let sink = n + nsub + 1;
        let mut net = Dinic::new(n + nsub + 2);
        // Resolve flows relative to the shortest subinterval, so near-EPS
        // subintervals keep full relative precision.
        let shortest = deltas
            .iter()
            .copied()
            .filter(|&d| d > 0.0)
            .fold(1.0_f64, f64::min);
        net.eps = 1e-12 * shortest;
        for i in 0..n {
            net.add_edge(0, 1 + i, 0.0);
        }
        for (i, &(a, b)) in spans.iter().enumerate() {
            for j in a..b {
                net.add_edge(1 + i, 1 + n + j, deltas[j]);
            }
        }
        let sink_edges = (0..nsub)
            .map(|j| net.add_edge(1 + n + j, sink, cores as f64 * deltas[j]))
            .collect();
        Self {
            net,
            spans,
            sink_edges,
        }
    }

    /// The network for `tasks` over `timeline` on `cores` cores.
    pub fn from_timeline(timeline: &Timeline, tasks: usize, cores: usize) -> Self {
        let spans = (0..tasks)
            .map(|i| {
                let r = timeline.span(i);
                (r.start, r.end)
            })
            .collect();
        let deltas: Vec<f64> = (0..timeline.len()).map(|j| timeline.delta(j)).collect();
        Self::new(spans, &deltas, cores)
    }

    fn sink(&self) -> usize {
        self.net.graph.len() - 1
    }

    /// Flow currently routed through task `task`.
    fn served(&self, task: usize) -> f64 {
        self.net.graph[1 + task][0].cap.max(0.0)
    }

    /// Set task `task`'s demand (its source-edge capacity). Lowering it
    /// below the flow the task carries withdraws the excess along the
    /// task's own subinterval edges, so the network stays a valid flow.
    pub fn set_demand(&mut self, task: usize, demand: f64) {
        assert!(demand >= 0.0 && demand.is_finite());
        let node = 1 + task;
        let mut served = self.served(task);
        let (a, b) = self.spans[task];
        let mut k = 0;
        while served > demand && k < b - a {
            let edge = EdgeHandle {
                from: node,
                index: 1 + k,
            };
            let take = self.net.flow_of(edge).min(served - demand);
            if take > 0.0 {
                self.net.withdraw(edge, take);
                self.net.withdraw(self.sink_edges[a + k], take);
                served -= take;
            }
            k += 1;
        }
        let served = served.min(demand);
        self.net.graph[node][0].cap = served;
        self.net.graph[0][task].cap = demand - served;
    }

    /// Augment to a maximum flow for the current demands and return the
    /// total flow served.
    pub fn augment(&mut self) -> f64 {
        let sink = self.sink();
        self.net.max_flow(0, sink);
        (0..self.spans.len()).map(|i| self.served(i)).sum()
    }

    /// Per-task membership of the source side of the minimal minimum cut:
    /// after [`TaskNetwork::augment`], the tasks whose demands the network
    /// cannot all serve together (empty when every demand is met).
    pub fn overloaded(&self) -> Vec<bool> {
        let seen = self.net.reachable(0);
        seen[1..=self.spans.len()].to_vec()
    }

    /// The flow's task→subinterval times, task-major and in span order —
    /// the flat `x_{i,j}` layout of [`crate::EnergyProgram`].
    pub(crate) fn flat_allocation(&self) -> Vec<f64> {
        let mut x = Vec::new();
        for (i, &(a, b)) in self.spans.iter().enumerate() {
            x.extend((0..b - a).map(|k| {
                self.net.flow_of(EdgeHandle {
                    from: 1 + i,
                    index: 1 + k,
                })
            }));
        }
        x
    }
}

/// The network for `tasks` with every demand set to `C_i / f_cap`, after
/// augmenting to a maximum flow; returns it with the total demand.
fn network_at_frequency(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    f_cap: f64,
) -> (TaskNetwork, f64) {
    assert!(f_cap > 0.0);
    let mut net = TaskNetwork::from_timeline(timeline, tasks.len(), cores);
    let mut required = 0.0;
    for (i, t) in tasks.iter() {
        let need = t.wcec / f_cap;
        required += need;
        net.set_demand(i, need);
    }
    (net, required)
}

fn serves(flow: f64, required: f64) -> bool {
    flow >= required * (1.0 - 1e-9) - 1e-9
}

/// Exact schedulability test: can `tasks` be feasibly scheduled on `cores`
/// cores with every frequency at most `f_cap` (preemption + migration
/// allowed)?
pub fn feasible_at_frequency(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    f_cap: f64,
) -> bool {
    let (mut net, required) = network_at_frequency(tasks, timeline, cores, f_cap);
    serves(net.augment(), required)
}

/// Compute a feasible per-(task, subinterval) execution-time matrix at
/// uniform frequency `f_cap`, or `None` when the instance is infeasible at
/// that cap. `result[i][j]` is the time task `i` executes during
/// subinterval `j`; row sums equal `C_i / f_cap`.
///
/// This is the constructive counterpart of [`feasible_at_frequency`]: the
/// max-flow's task→subinterval edge flows *are* the execution times.
pub fn feasible_allocation(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    f_cap: f64,
) -> Option<Vec<Vec<f64>>> {
    let (mut net, required) = network_at_frequency(tasks, timeline, cores, f_cap);
    if !serves(net.augment(), required) {
        return None;
    }
    let flat = net.flat_allocation();
    let mut x = vec![vec![0.0; timeline.len()]; tasks.len()];
    let mut k = 0;
    for (i, row) in x.iter_mut().enumerate() {
        for j in timeline.span(i) {
            row[j] = flat[k];
            k += 1;
        }
    }
    Some(x)
}

/// Binary-search the minimum uniform frequency cap at which the instance
/// is feasible, to relative accuracy `tol` — the ref-[4] scheme.
pub fn min_frequency_by_flow(tasks: &TaskSet, timeline: &Timeline, cores: usize, tol: f64) -> f64 {
    // Upper bound: serialize everything on one core inside the shortest
    // window — crude but safe.
    let mut hi = tasks
        .iter()
        .map(|(_, t)| t.intensity())
        .fold(0.0_f64, f64::max)
        .max(
            tasks.total_work()
                / timeline
                    .subintervals()
                    .iter()
                    .map(|s| s.delta())
                    .sum::<f64>()
                * tasks.len() as f64,
        )
        .max(1e-12);
    // Make sure hi is actually feasible (double until it is).
    while !feasible_at_frequency(tasks, timeline, cores, hi) {
        hi *= 2.0;
        assert!(hi.is_finite());
    }
    let mut lo = 0.0;
    while hi - lo > tol * (1.0 + hi) {
        let mid = 0.5 * (lo + hi);
        if mid <= 0.0 {
            break;
        }
        if feasible_at_frequency(tasks, timeline, cores, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_subinterval::{min_feasible_frequency, Timeline};
    use esched_types::TaskSet;

    #[test]
    fn dinic_textbook_instance() {
        // Classic 6-node example with known max flow 23.
        let mut d = Dinic::new(6);
        d.add_edge(0, 1, 16.0);
        d.add_edge(0, 2, 13.0);
        d.add_edge(1, 2, 10.0);
        d.add_edge(2, 1, 4.0);
        d.add_edge(1, 3, 12.0);
        d.add_edge(3, 2, 9.0);
        d.add_edge(2, 4, 14.0);
        d.add_edge(4, 3, 7.0);
        d.add_edge(3, 5, 20.0);
        d.add_edge(4, 5, 4.0);
        assert!((d.max_flow(0, 5) - 23.0).abs() < 1e-9);
    }

    #[test]
    fn dinic_disconnected_is_zero() {
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 5.0);
        d.add_edge(2, 3, 5.0);
        assert_eq!(d.max_flow(0, 3), 0.0);
    }

    #[test]
    fn flow_feasibility_matches_interval_conditions() {
        let ts = TaskSet::from_triples(&[
            (0.0, 4.0, 6.0),
            (1.0, 5.0, 3.0),
            (0.0, 8.0, 2.0),
            (2.0, 6.0, 5.0),
        ]);
        let tl = Timeline::build(&ts);
        for m in [1usize, 2, 3] {
            let f_interval = min_feasible_frequency(&ts, m);
            assert!(
                feasible_at_frequency(&ts, &tl, m, f_interval * (1.0 + 1e-9)),
                "m={m}"
            );
            assert!(
                !feasible_at_frequency(&ts, &tl, m, f_interval * 0.98),
                "m={m}"
            );
            let f_flow = min_frequency_by_flow(&ts, &tl, m, 1e-9);
            assert!(
                (f_flow - f_interval).abs() < 1e-6 * (1.0 + f_interval),
                "m={m}: flow {f_flow} vs interval {f_interval}"
            );
        }
    }

    #[test]
    fn flow_rejects_parallelism_infeasible_instance() {
        // The interval conditions accept this, the flow does not: jobs 0
        // and 1 saturate both cores of [0,2], leaving job 2 only 2 time
        // units for 3 units of work (it cannot run on two cores at once).
        let ts = TaskSet::from_triples(&[(0.0, 2.0, 2.0), (0.0, 2.0, 2.0), (0.0, 4.0, 3.0)]);
        let tl = Timeline::build(&ts);
        assert!(min_feasible_frequency(&ts, 2) <= 1.0 + 1e-12);
        assert!(!feasible_at_frequency(&ts, &tl, 2, 1.0));
        // True minimum: job 2 needs 3/f ≤ 2 + (4 − 4/f) ⇒ f ≥ 7/6.
        let f = min_frequency_by_flow(&ts, &tl, 2, 1e-10);
        assert!((f - 7.0 / 6.0).abs() < 1e-6, "flow minimum {f} vs 7/6");
        assert!(feasible_at_frequency(&ts, &tl, 2, f * (1.0 + 1e-9)));
        assert!(!feasible_at_frequency(&ts, &tl, 2, f * (1.0 - 1e-6)));
    }

    #[test]
    fn feasible_allocation_extracts_a_valid_spread() {
        let ts = TaskSet::from_triples(&[(0.0, 2.0, 2.0), (0.0, 2.0, 2.0), (0.0, 4.0, 3.0)]);
        let tl = Timeline::build(&ts);
        let f = min_frequency_by_flow(&ts, &tl, 2, 1e-10) * (1.0 + 1e-9);
        let x = feasible_allocation(&ts, &tl, 2, f).expect("feasible at flow minimum");
        // Row sums = C_i / f.
        for (i, t) in ts.iter() {
            let sum: f64 = x[i].iter().sum();
            assert!(
                (sum - t.wcec / f).abs() < 1e-6,
                "task {i}: {sum} vs {}",
                t.wcec / f
            );
        }
        // Column sums within capacity; entries within Δ.
        for j in 0..tl.len() {
            let col: f64 = (0..ts.len()).map(|i| x[i][j]).sum();
            assert!(col <= 2.0 * tl.delta(j) + 1e-9);
            for i in 0..ts.len() {
                assert!(x[i][j] <= tl.delta(j) + 1e-9);
            }
        }
    }

    #[test]
    fn intro_example_feasible_on_two_cores_at_unit_frequency() {
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)]);
        let tl = Timeline::build(&ts);
        assert!(feasible_at_frequency(&ts, &tl, 2, 1.0));
        // τ3 alone forces f ≥ 1, so 0.9 is infeasible on any core count.
        assert!(!feasible_at_frequency(&ts, &tl, 8, 0.9));
    }
}
