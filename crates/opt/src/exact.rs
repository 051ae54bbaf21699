//! The exact combinatorial solver: `E^OPT` by min-cut peeling.
//!
//! The energy program depends on `x` only through the per-task totals
//! `X_i`, and each task's term `C_i·(γ f^{α−1} + p₀/f)` at `f = C_i/X_i` is
//! the same convex function of the frequency for every task. The totals a
//! schedule can realize form a polymatroid whose rank is the cut of the
//! `source → task → subinterval → sink` network of [`crate::flow`]:
//!
//! ```text
//! f(S) = Σ_j Δ_j · min(m, |S ∩ O_j|)     (O_j: tasks covering subinterval j)
//! ```
//!
//! Minimizing a sum of such terms over a polymatroid is solved by
//! Fujishige's lexicographically optimal base — the multiprocessor
//! generalization of YDS that the max-flow algorithms of the paper's refs
//! [2] and [4] compute:
//!
//! 1. With `F` the tasks already fixed, find the densest remaining set
//!    `S`, maximizing `λ(S) = C(S) / (f(S ∪ F) − f(F))`.
//! 2. Run every task of `S` at frequency `λ(S)` (`X_i = C_i / λ(S)`), add
//!    `S` to `F` and repeat. The levels come out non-increasing.
//! 3. Static power makes running below `f_crit = (p₀/(γ(α−1)))^{1/α}`
//!    wasteful, so once a level drops below `f_crit` every remaining task
//!    runs at `f_crit` instead (the critical-speed rule); lowering totals
//!    never leaves the polymatroid.
//!
//! The densest set is found by Dinkelbach iteration: at a candidate `λ`
//! (the density of some real set, so `λ ≤ λ*`), set every remaining
//! task's demand to `C_i / λ` and take the source side of the minimal
//! minimum cut. It is empty exactly when `λ` is the maximum density;
//! otherwise it is a set of strictly larger density, which becomes the
//! next candidate. Only the source capacities change between steps and
//! levels, so one [`TaskNetwork`] carries its residual flow through the
//! whole solve.
//!
//! Each level's frequency is computed exactly from the set's ratio, never
//! bisected on a flow tolerance: bisection slack can land entirely on the
//! tight set, overcommitting it and making the next round infeasible.
//!
//! The schedule `x` is the network's final flow, and
//! [`crate::kkt::kkt_report`] certifies it independently.

use crate::energy_program::EnergyProgram;
use crate::flow::TaskNetwork;
use crate::kkt::kkt_report;
use crate::solver::{SolveResult, SolverTelemetry};
use esched_obs::{event, span, Level};
use std::time::Instant;

/// Solve `ep` exactly by min-cut peeling (see the module docs). `iters`
/// counts the max-flow computations; the result is always converged.
pub fn solve_exact(ep: &EnergyProgram) -> SolveResult {
    let n = ep.task_count();
    let nsub = ep.subinterval_count();
    let _span = span!(Level::Debug, "solve_exact", tasks = n, dim = ep.dim());
    let t_start = Instant::now();

    let spans = (0..n).map(|i| ep.span_of_task(i)).collect();
    let deltas: Vec<f64> = (0..nsub).map(|j| ep.delta_of_sub(j)).collect();
    let mut net = TaskNetwork::new(spans, &deltas, ep.cores);
    let mut peel = Peel {
        ep,
        fixed: vec![false; n],
        covered: vec![0; nsub],
        scratch: vec![0; nsub],
    };
    let f_crit = ep.power.critical_frequency();
    let mut max_flows = 0usize;
    let mut levels = 0usize;

    loop {
        let remaining: Vec<usize> = (0..n).filter(|&i| !peel.fixed[i]).collect();
        if remaining.is_empty() {
            break;
        }
        // Dinkelbach from the density of everything that is left.
        let mut set = remaining.clone();
        let mut lambda = peel.density(&set);
        loop {
            for &i in &remaining {
                net.set_demand(i, ep.work_of_task(i) / lambda);
            }
            net.augment();
            max_flows += 1;
            let side = net.overloaded();
            let denser: Vec<usize> = remaining.iter().copied().filter(|&i| side[i]).collect();
            if denser.is_empty() {
                break;
            }
            let d = peel.density(&denser);
            if d <= lambda {
                break;
            }
            set = denser;
            lambda = d;
        }
        levels += 1;
        if lambda < f_crit {
            // Every later level is slower still: all of them run at f_crit.
            for &i in &remaining {
                net.set_demand(i, ep.work_of_task(i) / f_crit);
                peel.fixed[i] = true;
            }
            break;
        }
        for &i in &set {
            net.set_demand(i, ep.work_of_task(i) / lambda);
        }
        peel.fix(&set);
    }
    net.augment();
    max_flows += 1;

    let x = net.flat_allocation();
    let objective = ep.objective(&x);
    let gap = kkt_report(ep, &x).duality_gap;
    let telemetry = SolverTelemetry {
        iters: max_flows,
        stalls: 0,
        gap_evals: 1,
        backtracks: 0,
        wall_s: t_start.elapsed().as_secs_f64(),
        final_gap: gap,
        converged: true,
    };
    telemetry.publish("exact");
    event!(
        Level::Debug,
        "exact done",
        levels = levels,
        max_flows = max_flows,
        gap = gap,
    );
    SolveResult {
        x,
        objective,
        gap,
        iters: max_flows,
        converged: true,
        telemetry,
        iter_trace: None,
    }
}

/// Peeling state: which tasks are fixed (`F`) and how many fixed tasks
/// cover each subinterval, so marginal ranks are exact sums of `Δ_j`.
struct Peel<'a> {
    ep: &'a EnergyProgram,
    fixed: Vec<bool>,
    /// `|F ∩ O_j|` per subinterval.
    covered: Vec<usize>,
    /// `|S ∩ O_j|` while evaluating a set; all zero between calls.
    scratch: Vec<usize>,
}

impl Peel<'_> {
    /// `C(S) / (f(S ∪ F) − f(F))` for a set of unfixed tasks.
    fn density(&mut self, set: &[usize]) -> f64 {
        let m = self.ep.cores;
        let mut work = 0.0;
        for &i in set {
            work += self.ep.work_of_task(i);
            let (a, b) = self.ep.span_of_task(i);
            for c in &mut self.scratch[a..b] {
                *c += 1;
            }
        }
        let mut rank = 0.0;
        for &i in set {
            let (a, b) = self.ep.span_of_task(i);
            for j in a..b {
                let s = std::mem::take(&mut self.scratch[j]);
                if s > 0 {
                    let before = self.covered[j].min(m);
                    rank +=
                        self.ep.delta_of_sub(j) * ((self.covered[j] + s).min(m) - before) as f64;
                }
            }
        }
        work / rank
    }

    fn fix(&mut self, set: &[usize]) {
        for &i in set {
            self.fixed[i] = true;
            let (a, b) = self.ep.span_of_task(i);
            for c in &mut self.covered[a..b] {
                *c += 1;
            }
        }
    }
}
