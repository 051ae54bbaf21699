//! The paper's reformulated convex energy program (Section IV.B).
//!
//! Variables: execution time `x_{i,j}` of task `i` during subinterval `j`,
//! restricted to the pairs where task `i`'s window covers subinterval `j`.
//! Writing `X_i = Σ_j x_{i,j}` for the total execution time of task `i`,
//! the objective is
//!
//! ```text
//! E(x) = Σ_i [ γ · C_i^α / X_i^{α−1} + p₀ · X_i ]
//! ```
//!
//! (each task runs at its equal-frequency optimum `f_i = C_i / X_i`,
//! by Observation 1), subject to
//!
//! ```text
//! 0 ≤ x_{i,j} ≤ Δ_j                    (box per available pair)
//! Σ_i x_{i,j} ≤ m · Δ_j                (capacity per subinterval)
//! ```
//!
//! The feasible set is a Cartesian product of capped simplices — one per
//! subinterval — so Euclidean projection decomposes blockwise
//! ([`crate::projection`]). This module owns the variable layout, the
//! objective/gradient oracle, blockwise projection and LMO, and a feasible
//! starting point. The iterative solver in [`crate::gradient`] is generic
//! over this oracle.

// Indexed loops below walk several parallel arrays at once; iterator
// zips would obscure the numerics. Silence clippy's range-loop lint here.
#![allow(clippy::needless_range_loop)]

use crate::projection::{lmo_capped_simplex, project_capped_simplex};
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, TaskSet};

/// Minimum total execution time any task is allowed to shrink to, as a
/// fraction of the time it would need at an (arbitrarily chosen) very high
/// reference frequency. Keeps the objective and gradient finite; the true
/// optimum is always far from this floor because energy diverges as
/// `X_i → 0`.
const X_FLOOR: f64 = 1e-9;

/// The convex program instance: layout plus oracle.
#[derive(Debug, Clone)]
pub struct EnergyProgram {
    /// Number of cores `m`.
    pub cores: usize,
    /// Power model (continuous).
    pub power: PolynomialPower,
    /// `C_i` per task.
    works: Vec<f64>,
    /// `Δ_j` per subinterval.
    deltas: Vec<f64>,
    /// Per-task contiguous range of subinterval indices (from the
    /// timeline).
    spans: Vec<(usize, usize)>,
    /// Flat-variable offset of each task's block; task `i`'s variables are
    /// `flat[offsets[i] .. offsets[i] + span_len(i)]`, ordered by
    /// subinterval.
    offsets: Vec<usize>,
    /// Total variable count.
    dim: usize,
    /// For each subinterval `j`: the flat indices of the variables that
    /// participate in its capacity constraint.
    block_vars: Vec<Vec<usize>>,
}

impl EnergyProgram {
    /// Build the program for `tasks` on `cores` cores under `power`, using
    /// `timeline` for the variable layout.
    pub fn new(tasks: &TaskSet, timeline: &Timeline, cores: usize, power: PolynomialPower) -> Self {
        assert!(cores > 0);
        let works: Vec<f64> = tasks.tasks().iter().map(|t| t.wcec).collect();
        let deltas: Vec<f64> = (0..timeline.len()).map(|j| timeline.delta(j)).collect();
        let mut spans = Vec::with_capacity(tasks.len());
        let mut offsets = Vec::with_capacity(tasks.len());
        let mut dim = 0usize;
        for i in 0..tasks.len() {
            let r = timeline.span(i);
            spans.push((r.start, r.end));
            offsets.push(dim);
            dim += r.len();
        }
        let mut block_vars = vec![Vec::new(); timeline.len()];
        for i in 0..tasks.len() {
            let (a, b) = spans[i];
            for j in a..b {
                block_vars[j].push(offsets[i] + (j - a));
            }
        }
        Self {
            cores,
            power,
            works,
            deltas,
            spans,
            offsets,
            dim,
            block_vars,
        }
    }

    /// Number of flat variables.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.works.len()
    }

    /// Number of subintervals.
    pub fn subinterval_count(&self) -> usize {
        self.deltas.len()
    }

    /// Capacity `m·Δ_j` of subinterval `j`'s coupling constraint.
    pub fn capacity(&self, sub: usize) -> f64 {
        self.cores as f64 * self.deltas[sub]
    }

    /// Subinterval length `Δ_j`.
    pub fn delta_of_sub(&self, sub: usize) -> f64 {
        self.deltas[sub]
    }

    /// Execution requirement `C_i` of task `i`.
    pub fn work_of_task(&self, task: usize) -> f64 {
        self.works[task]
    }

    /// The contiguous subinterval range `[a, b)` task `i`'s window covers.
    pub fn span_of_task(&self, task: usize) -> (usize, usize) {
        self.spans[task]
    }

    /// Flat indices of the variables participating in subinterval `j`'s
    /// capacity constraint (ascending).
    pub fn vars_of_sub(&self, sub: usize) -> &[usize] {
        &self.block_vars[sub]
    }

    /// Flat index of `x_{i,j}`, if task `i` is available in subinterval
    /// `j`.
    pub fn flat_index(&self, task: usize, sub: usize) -> Option<usize> {
        let (a, b) = self.spans[task];
        (a..b)
            .contains(&sub)
            .then(|| self.offsets[task] + (sub - a))
    }

    /// Total execution time `X_i` of task `i` under `x`.
    pub fn total_time(&self, x: &[f64], task: usize) -> f64 {
        let (a, b) = self.spans[task];
        let o = self.offsets[task];
        x[o..o + (b - a)].iter().sum()
    }

    /// Per-task total times as a vector.
    pub fn total_times(&self, x: &[f64]) -> Vec<f64> {
        (0..self.works.len())
            .map(|i| self.total_time(x, i))
            .collect()
    }

    /// Objective value `E(x)`. Infinite when some `X_i` is ~0.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let a = self.power.alpha;
        let mut e = 0.0;
        for (i, &c) in self.works.iter().enumerate() {
            let xi = self.total_time(x, i).max(X_FLOOR);
            e += self.power.gamma * c.powf(a) / xi.powf(a - 1.0) + self.power.p0 * xi;
        }
        e
    }

    /// Gradient of the objective into `g`. The partial w.r.t. every
    /// variable of task `i` is the same:
    /// `∂E/∂x_{i,j} = −γ(α−1)·C_i^α / X_i^α + p₀`.
    pub fn gradient(&self, x: &[f64], g: &mut [f64]) {
        assert_eq!(g.len(), self.dim);
        let a = self.power.alpha;
        for (i, &c) in self.works.iter().enumerate() {
            let (s0, s1) = self.spans[i];
            let o = self.offsets[i];
            let xi = self.total_time(x, i).max(X_FLOOR);
            let gi = -self.power.gamma * (a - 1.0) * c.powf(a) / xi.powf(a) + self.power.p0;
            for k in 0..(s1 - s0) {
                g[o + k] = gi;
            }
        }
    }

    /// Project `z` onto the feasible polytope, blockwise per subinterval.
    pub fn project(&self, z: &[f64], out: &mut [f64]) {
        assert_eq!(z.len(), self.dim);
        assert_eq!(out.len(), self.dim);
        // Scratch buffers per block; blocks are small (≤ n), reuse one.
        let mut zb: Vec<f64> = Vec::new();
        let mut ub: Vec<f64> = Vec::new();
        let mut ob: Vec<f64> = Vec::new();
        for (j, vars) in self.block_vars.iter().enumerate() {
            if vars.is_empty() {
                continue;
            }
            let delta = self.deltas[j];
            zb.clear();
            ub.clear();
            zb.extend(vars.iter().map(|&k| z[k]));
            ub.extend(std::iter::repeat_n(delta, vars.len()));
            ob.clear();
            ob.resize(vars.len(), 0.0);
            project_capped_simplex(&zb, &ub, self.cores as f64 * delta, &mut ob);
            for (&k, &v) in vars.iter().zip(&ob) {
                out[k] = v;
            }
        }
    }

    /// Linear-minimization oracle over the feasible polytope (blockwise).
    pub fn lmo(&self, g: &[f64], out: &mut [f64]) {
        assert_eq!(g.len(), self.dim);
        assert_eq!(out.len(), self.dim);
        let mut gb: Vec<f64> = Vec::new();
        let mut ub: Vec<f64> = Vec::new();
        let mut ob: Vec<f64> = Vec::new();
        for (j, vars) in self.block_vars.iter().enumerate() {
            if vars.is_empty() {
                continue;
            }
            let delta = self.deltas[j];
            gb.clear();
            ub.clear();
            gb.extend(vars.iter().map(|&k| g[k]));
            ub.extend(std::iter::repeat_n(delta, vars.len()));
            ob.clear();
            ob.resize(vars.len(), 0.0);
            lmo_capped_simplex(&gb, &ub, self.cores as f64 * delta, &mut ob);
            for (&k, &v) in vars.iter().zip(&ob) {
                out[k] = v;
            }
        }
    }

    /// Certified duality gap at feasible `x`:
    /// `gap(x) = ⟨∇E(x), x − s⟩` with `s` the LMO minimizer. For convex `E`,
    /// `E(x) − E* ≤ gap(x)`.
    pub fn duality_gap(&self, x: &[f64]) -> f64 {
        let mut g = vec![0.0; self.dim];
        let mut s = vec![0.0; self.dim];
        self.gradient(x, &mut g);
        self.lmo(&g, &mut s);
        g.iter()
            .zip(x.iter().zip(&s))
            .map(|(&gk, (&xk, &sk))| gk * (xk - sk))
            .sum()
    }

    /// A feasible, interior-ish starting point: in every subinterval give
    /// each overlapping task `min(Δ_j, m·Δ_j/n_j)` — the evenly allocating
    /// rule, which is feasible by construction and keeps every `X_i`
    /// comfortably positive.
    pub fn initial_point(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.dim];
        for (j, vars) in self.block_vars.iter().enumerate() {
            if vars.is_empty() {
                continue;
            }
            let share =
                (self.cores as f64 * self.deltas[j] / vars.len() as f64).min(self.deltas[j]);
            for &k in vars {
                x[k] = share;
            }
        }
        x
    }

    /// Build a feasible warm-start point whose per-task totals track a
    /// previous optimum's `X_i` — the remap used when the task set
    /// mutated between solves (online arrivals, completions, window
    /// shifts change both `dim` and the subinterval layout, so the raw
    /// `x` vector cannot carry over). The objective depends on `x` only
    /// through the totals `X_i`, so any point reproducing the old totals
    /// re-enters the new program at (nearly) the old objective value.
    ///
    /// `totals[i]` is the target total of task `i`; tasks beyond
    /// `totals.len()` (arrivals) keep the evenly-allocating share, and
    /// non-finite or non-positive targets are ignored. Each target is
    /// spread uniformly over the task's span, clamped to the box, and
    /// the result is projected onto the block constraints.
    pub fn warm_start_from_totals(&self, totals: &[f64]) -> Vec<f64> {
        let mut x = self.initial_point();
        for i in 0..self.task_count() {
            let Some(&target) = totals.get(i) else {
                continue;
            };
            if !target.is_finite() || target <= 0.0 {
                continue;
            }
            let (a, b) = self.spans[i];
            if a == b {
                continue;
            }
            let per = target / (b - a) as f64;
            let o = self.offsets[i];
            for (k, j) in (a..b).enumerate() {
                x[o + k] = per.min(self.deltas[j]);
            }
        }
        let mut out = vec![0.0; self.dim];
        self.project(&x, &mut out);
        out
    }

    /// Is `x` feasible (within `tol`)?
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        for (j, vars) in self.block_vars.iter().enumerate() {
            let delta = self.deltas[j];
            let mut sum = 0.0;
            for &k in vars {
                if x[k] < -tol || x[k] > delta + tol {
                    return false;
                }
                sum += x[k];
            }
            if sum > self.cores as f64 * delta + tol {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_subinterval::Timeline;
    use esched_types::TaskSet;

    fn intro_program(cores: usize, alpha: f64, p0: f64) -> (EnergyProgram, TaskSet) {
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)]);
        let tl = Timeline::build(&ts);
        let p = PolynomialPower::paper(alpha, p0);
        (EnergyProgram::new(&ts, &tl, cores, p), ts)
    }

    #[test]
    fn layout_counts() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        // Spans: τ0 covers all 5 subintervals, τ1 covers 3, τ2 covers 1.
        assert_eq!(ep.dim(), 9);
        assert_eq!(ep.task_count(), 3);
        assert_eq!(ep.subinterval_count(), 5);
        assert_eq!(ep.flat_index(0, 0), Some(0));
        assert_eq!(ep.flat_index(0, 4), Some(4));
        assert_eq!(ep.flat_index(1, 0), None);
        assert_eq!(ep.flat_index(1, 1), Some(5));
        assert_eq!(ep.flat_index(2, 2), Some(8));
    }

    #[test]
    fn initial_point_is_feasible() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        let x0 = ep.initial_point();
        assert!(ep.is_feasible(&x0, 1e-9));
        // Every task gets positive time.
        for i in 0..3 {
            assert!(ep.total_time(&x0, i) > 0.0);
        }
    }

    #[test]
    fn objective_matches_hand_computation() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        // Put τ0's full window to use: X0 = 32/3, X1 = 16/3, X2 = 4 (the
        // paper's optimal solution). E = Σ C³/X² + 0.01·ΣX.
        let mut x = vec![0.0; ep.dim()];
        // τ0 occupies [0,2],[2,4] fully, 8/3 of [4,8], [8,10],[10,12] fully.
        x[ep.flat_index(0, 0).unwrap()] = 2.0;
        x[ep.flat_index(0, 1).unwrap()] = 2.0;
        x[ep.flat_index(0, 2).unwrap()] = 8.0 / 3.0;
        x[ep.flat_index(0, 3).unwrap()] = 2.0;
        x[ep.flat_index(0, 4).unwrap()] = 2.0;
        // τ1: [2,4] full, 4/3 of [4,8], [8,10] full.
        x[ep.flat_index(1, 1).unwrap()] = 2.0;
        x[ep.flat_index(1, 2).unwrap()] = 4.0 / 3.0;
        x[ep.flat_index(1, 3).unwrap()] = 2.0;
        // τ2: 4 of [4,8].
        x[ep.flat_index(2, 2).unwrap()] = 4.0;
        assert!(ep.is_feasible(&x, 1e-9));
        let expect = 64.0 / (32.0_f64 / 3.0).powi(2)
            + 8.0 / (16.0_f64 / 3.0).powi(2)
            + 64.0 / 16.0
            + 0.01 * (32.0 / 3.0 + 16.0 / 3.0 + 4.0);
        assert!((ep.objective(&x) - expect).abs() < 1e-10);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (ep, _) = intro_program(2, 3.0, 0.05);
        let x = ep.initial_point();
        let mut g = vec![0.0; ep.dim()];
        ep.gradient(&x, &mut g);
        let h = 1e-6;
        for k in 0..ep.dim() {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[k] += h;
            xm[k] -= h;
            let fd = (ep.objective(&xp) - ep.objective(&xm)) / (2.0 * h);
            assert!(
                (g[k] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "k={k}: {g:?} vs fd {fd}",
                g = g[k]
            );
        }
    }

    #[test]
    fn projection_produces_feasible_points() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        let z: Vec<f64> = (0..ep.dim()).map(|k| 3.0 - k as f64 * 0.7).collect();
        let mut out = vec![0.0; ep.dim()];
        ep.project(&z, &mut out);
        assert!(ep.is_feasible(&out, 1e-9));
    }

    #[test]
    fn lmo_produces_feasible_vertices() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        let x = ep.initial_point();
        let mut g = vec![0.0; ep.dim()];
        ep.gradient(&x, &mut g);
        let mut s = vec![0.0; ep.dim()];
        ep.lmo(&g, &mut s);
        assert!(ep.is_feasible(&s, 1e-9));
    }

    #[test]
    fn duality_gap_nonnegative_and_zero_at_optimum_direction() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        let x = ep.initial_point();
        assert!(ep.duality_gap(&x) >= -1e-9);
    }

    #[test]
    fn total_times_sum_matches_blocks() {
        let (ep, _) = intro_program(2, 3.0, 0.0);
        let x = ep.initial_point();
        let tt = ep.total_times(&x);
        for (i, &t) in tt.iter().enumerate() {
            assert!((t - ep.total_time(&x, i)).abs() < 1e-12);
        }
    }
}
