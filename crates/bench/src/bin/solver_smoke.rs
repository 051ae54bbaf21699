//! `solver_smoke` — the CI gate for the exact min-cut E^OPT solver.
//!
//! At n = 4096 (grid-snapped `WorkloadSpec::large_n`, `α = 3`,
//! `p₀ = 0.2`), every point of the fig8-style cores sweep
//! `m ∈ {2, 4, 6, 8, 10, 12}` is solved by [`solve_exact`], and each
//! point must, fatally on failure:
//!
//! 1. **Certify**: report convergence and pass the solver-independent
//!    KKT certificate ([`kkt_report`]) at 1e-9.
//! 2. **Repeat bit-for-bit**: a second solve of the same program must
//!    agree in primal, objective, gap, and max-flow count.
//!
//! The solver's speed is guarded by the gated `opt/exact/*` benchjson
//! entries, not here.

use esched_opt::{kkt_report, solve_exact, EnergyProgram};
use esched_subinterval::Timeline;
use esched_types::PolynomialPower;
use esched_workload::WorkloadSpec;
use std::time::Instant;

const N: usize = 4096;
const SWEEP_CORES: [usize; 6] = [2, 4, 6, 8, 10, 12];
const KKT_TOL: f64 = 1e-9;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn main() {
    let tasks = WorkloadSpec::large_n(N).instantiate(3);
    let tl = Timeline::build(&tasks);
    let power = PolynomialPower::paper(3.0, 0.2);

    for cores in SWEEP_CORES {
        let ep = EnergyProgram::new(&tasks, &tl, cores, power);
        let t0 = Instant::now();
        let r = solve_exact(&ep);
        let wall = t0.elapsed().as_secs_f64();
        assert!(r.converged, "cores={cores}: exact did not converge");
        let kkt = kkt_report(&ep, &r.x);
        assert!(
            kkt.is_optimal(KKT_TOL),
            "cores={cores}: KKT certificate failed at {KKT_TOL:e} \
             (residual {:e}, gap {:e}, feasibility {:e})",
            kkt.projected_gradient_residual,
            kkt.duality_gap,
            kkt.feasibility_violation
        );

        let again = solve_exact(&ep);
        assert_eq!(bits(&again.x), bits(&r.x), "cores={cores}: primal differs");
        assert_eq!(
            again.objective.to_bits(),
            r.objective.to_bits(),
            "cores={cores}: objective differs"
        );
        assert_eq!(
            again.gap.to_bits(),
            r.gap.to_bits(),
            "cores={cores}: gap differs"
        );
        assert_eq!(
            again.iters, r.iters,
            "cores={cores}: max-flow count differs"
        );

        println!(
            "solver_smoke: cores={cores} certified at {KKT_TOL:e} in {wall:.2}s \
             ({} max-flows, gap {:.1e}, obj {:.6e}), repeat bit-identical",
            r.iters, kkt.duality_gap, r.objective
        );
    }
}
