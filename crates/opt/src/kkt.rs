//! KKT residual certification for the energy program.
//!
//! Theorem 1 rests on the reformulated problem being convex; a candidate
//! `x` is therefore globally optimal iff the KKT conditions hold. This
//! module measures how far a point is from satisfying them, giving the
//! test suite and the experiment harness an *independent* optimality
//! certificate that does not trust the solver that produced the point.
//!
//! For the program
//! `min E(x) s.t. 0 ≤ x_{i,j} ≤ Δ_j, Σ_i x_{i,j} ≤ m·Δ_j`,
//! stationarity requires, for each variable `k` in subinterval block `j`
//! (with `g = ∇E(x)` and block multiplier `μ_j ≥ 0`):
//!
//! * `x_k` interior (0 < x_k < Δ_j, block slack): `g_k = 0`
//! * interior but block tight: `g_k = −μ_j`
//! * `x_k = 0`: `g_k + μ_j ≥ 0`
//! * `x_k = Δ_j`: `g_k + μ_j ≤ 0`
//!
//! Instead of reconstructing multipliers explicitly, we use the equivalent
//! *projected-gradient residual* `‖x − P(x − ∇E(x))‖∞` (zero iff KKT
//! holds) plus the Frank–Wolfe duality gap as a function-value bound.

use crate::energy_program::EnergyProgram;

/// Optimality certificate for a feasible point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KktReport {
    /// `‖x − P(x − ∇E(x))‖∞`: zero exactly at KKT points.
    pub projected_gradient_residual: f64,
    /// Frank–Wolfe duality gap `⟨∇E(x), x − s_LMO⟩ ≥ E(x) − E*`.
    pub duality_gap: f64,
    /// Worst primal constraint violation (should be ~0 for feasible input).
    pub feasibility_violation: f64,
    /// Objective at the point.
    pub objective: f64,
}

impl KktReport {
    /// Is the point optimal within `tol` (relative)?
    pub fn is_optimal(&self, tol: f64) -> bool {
        let scale = 1.0 + self.objective.abs();
        self.feasibility_violation <= tol * scale
            && (self.duality_gap <= tol * scale || self.projected_gradient_residual <= tol)
    }
}

/// Compute the KKT certificate of `x` for program `ep`.
pub fn kkt_report(ep: &EnergyProgram, x: &[f64]) -> KktReport {
    let dim = ep.dim();
    assert_eq!(x.len(), dim);

    let mut g = vec![0.0; dim];
    ep.gradient(x, &mut g);

    // Projected-gradient residual.
    let mut shifted = vec![0.0; dim];
    for k in 0..dim {
        shifted[k] = x[k] - g[k];
    }
    let mut proj = vec![0.0; dim];
    ep.project(&shifted, &mut proj);
    let residual = x
        .iter()
        .zip(&proj)
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0_f64, f64::max);

    // Feasibility violation: project x itself and measure displacement.
    let mut pfeas = vec![0.0; dim];
    ep.project(x, &mut pfeas);
    let feas = x
        .iter()
        .zip(&pfeas)
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0_f64, f64::max);

    KktReport {
        projected_gradient_residual: residual,
        duality_gap: ep.duality_gap(x),
        feasibility_violation: feas,
        objective: ep.objective(x),
    }
}

/// Recover the per-subinterval capacity prices `μ_j ≥ 0` implied by a
/// (near-)optimal point.
///
/// At a KKT point every interior variable (`0 < x_k < Δ_j`) of a tight
/// block pins the block multiplier to `μ_j = −g_k`; an unsaturated block
/// has `μ_j = 0` by complementary slackness. For each saturated
/// subinterval this takes the mean of `−g_k` over its interior variables
/// (clamped into the dual-feasible interval the boundary variables allow);
/// a block with no interior variable falls back to the midpoint of that
/// interval. The output is the input to [`price_certificate`].
pub fn subinterval_prices(ep: &EnergyProgram, x: &[f64]) -> Vec<f64> {
    let dim = ep.dim();
    assert_eq!(x.len(), dim);
    let mut g = vec![0.0; dim];
    ep.gradient(x, &mut g);

    let n_subs = ep.subinterval_count();
    let mut prices = vec![0.0; n_subs];
    for (j, price) in prices.iter_mut().enumerate() {
        let vars = ep.vars_of_sub(j);
        if vars.is_empty() {
            continue;
        }
        let delta = ep.delta_of_sub(j);
        let cap = ep.capacity(j);
        let tol = 1e-9 * (1.0 + delta);
        let load: f64 = vars.iter().map(|&k| x[k]).sum();
        if load < cap - tol {
            // Slack capacity: complementary slackness forces μ_j = 0.
            continue;
        }
        // Dual-feasible interval from the boundary variables:
        // x_k = 0 needs μ ≥ −g_k, x_k = Δ needs μ ≤ −g_k.
        let mut lo = 0.0_f64;
        let mut hi = f64::INFINITY;
        let mut interior_sum = 0.0;
        let mut interior_n = 0usize;
        for &k in vars {
            let m = -g[k];
            if x[k] <= tol {
                lo = lo.max(m);
            } else if x[k] >= delta - tol {
                hi = hi.min(m);
            } else {
                interior_sum += m;
                interior_n += 1;
            }
        }
        let guess = if interior_n > 0 {
            interior_sum / interior_n as f64
        } else if hi.is_finite() {
            0.5 * (lo + hi.max(lo))
        } else {
            lo
        };
        *price = guess.clamp(lo, hi.max(lo)).max(0.0);
    }
    prices
}

/// Residual of the KKT conditions under an *explicit* price vector (one
/// `μ_j ≥ 0` per subinterval): the largest violation, across all
/// variables and blocks, of stationarity
/// (`g_k + μ_j = 0` interior, `≥ 0` at zero, `≤ 0` at the cap) and
/// complementary slackness (`μ_j · (m·Δ_j − Σ_i x_{i,j}) = 0`), scaled
/// relative to `1 + |E(x)|`.
///
/// Zero exactly at a KKT point with correct prices; feed it the prices
/// recovered by [`subinterval_prices`] to certify a solve with an
/// explicit dual witness rather than only the projected-gradient
/// residual.
pub fn price_certificate(ep: &EnergyProgram, x: &[f64], prices: &[f64]) -> f64 {
    let dim = ep.dim();
    assert_eq!(x.len(), dim);
    assert_eq!(prices.len(), ep.subinterval_count());
    let mut g = vec![0.0; dim];
    ep.gradient(x, &mut g);
    let scale = 1.0 + ep.objective(x).abs();

    let mut worst = 0.0_f64;
    for (j, &mu) in prices.iter().enumerate() {
        worst = worst.max(-mu); // dual feasibility: μ_j ≥ 0
        let vars = ep.vars_of_sub(j);
        if vars.is_empty() {
            continue;
        }
        let delta = ep.delta_of_sub(j);
        let tol = 1e-9 * (1.0 + delta);
        let load: f64 = vars.iter().map(|&k| x[k]).sum();
        worst = worst.max(mu * (ep.capacity(j) - load) / scale);
        for &k in vars {
            let r = g[k] + mu;
            let viol = if x[k] <= tol {
                (-r).max(0.0)
            } else if x[k] >= delta - tol {
                r.max(0.0)
            } else {
                r.abs()
            };
            worst = worst.max(viol / scale);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::solve_pgd;
    use crate::solver::SolveOptions;
    use esched_subinterval::Timeline;
    use esched_types::{PolynomialPower, TaskSet};

    fn intro() -> (EnergyProgram, TaskSet) {
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)]);
        let tl = Timeline::build(&ts);
        let ep = EnergyProgram::new(&ts, &tl, 2, PolynomialPower::paper(3.0, 0.01));
        (ep, ts)
    }

    #[test]
    fn solver_output_passes_kkt() {
        let (ep, _) = intro();
        let r = solve_pgd(&ep, ep.initial_point(), &SolveOptions::precise());
        let report = kkt_report(&ep, &r.x);
        assert!(
            report.is_optimal(1e-5),
            "residual {}, gap {}",
            report.projected_gradient_residual,
            report.duality_gap
        );
    }

    #[test]
    fn non_optimal_point_fails_kkt() {
        let (ep, _) = intro();
        let x0 = ep.initial_point();
        let report = kkt_report(&ep, &x0);
        assert!(!report.is_optimal(1e-6));
        assert!(report.duality_gap > 1e-3);
    }

    #[test]
    fn recovered_prices_certify_an_optimal_point() {
        let (ep, _) = intro();
        let r = solve_pgd(&ep, ep.initial_point(), &SolveOptions::precise());
        let prices = subinterval_prices(&ep, &r.x);
        assert!(prices.iter().all(|&p| p >= 0.0));
        let res = price_certificate(&ep, &r.x, &prices);
        assert!(res < 1e-4, "price residual {res}");
    }

    #[test]
    fn wrong_prices_fail_the_certificate() {
        let (ep, _) = intro();
        let r = solve_pgd(&ep, ep.initial_point(), &SolveOptions::precise());
        let bogus = vec![42.0; ep.subinterval_count()];
        assert!(price_certificate(&ep, &r.x, &bogus) > 1e-2);
    }

    #[test]
    fn infeasible_point_is_flagged() {
        let (ep, _) = intro();
        let x = vec![100.0; ep.dim()];
        let report = kkt_report(&ep, &x);
        assert!(report.feasibility_violation > 1.0);
        assert!(!report.is_optimal(1e-6));
    }
}
