//! `solver_smoke` — the CI gate for the decomposed ADMM E^OPT solver and
//! the exact min-cut solver it cross-checks.
//!
//! Three checks at n = 4096 (grid-snapped `WorkloadSpec::large_n`), all
//! fatal on failure:
//!
//! 1. **Fig8-style cores sweep certifies**: every point of the
//!    `m ∈ {2, 4, 6, 8, 10, 12}` sweep (`α = 3`, `p₀ = 0.2`), solved by
//!    [`solve_admm_in`] with the primal *and dual* point warm-chained
//!    between sweep positions, must converge AND pass the independent
//!    KKT certificate at 1e-5.
//! 2. **Exact ground truth**: [`solve_exact`] must pass the KKT
//!    certificate at 1e-9 at `m = 4`; every sweep point's ADMM objective
//!    must lie within 2e-5 relative of the exact optimum of the same
//!    instance; and the exact solve at `m = 4` must be at least 5× faster
//!    than the best-of-3 cold ADMM solve.
//! 3. **Byte-identity across worker counts**: the cold `m = 4` solve
//!    repeated on explicit 1-, 4-, and 8-worker pools must agree
//!    bit-for-bit in primal, dual, objective, gap, and iteration count.
//!    CI additionally launches this binary under
//!    `ESCHED_ENGINE_THREADS=4`, which sizes every pool the harness
//!    creates implicitly; the explicit pools cover 1 and 8 regardless.

use esched_core::Pool;
use esched_opt::{kkt_report, solve_admm_in, solve_exact, EnergyProgram, SolveOptions};
use esched_subinterval::Timeline;
use esched_types::PolynomialPower;
use esched_workload::WorkloadSpec;
use std::time::Instant;

const N: usize = 4096;
const SWEEP_CORES: [usize; 6] = [2, 4, 6, 8, 10, 12];
const KKT_TOL: f64 = 1e-5;
const EXACT_KKT_TOL: f64 = 1e-9;
/// ADMM's objective must sit within this relative distance of the exact
/// optimum at every sweep point.
const AGREEMENT_TOL: f64 = 2e-5;
const MIN_SPEEDUP: f64 = 5.0;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn main() {
    let tasks = WorkloadSpec::large_n(N).instantiate(3);
    let tl = Timeline::build(&tasks);
    let power = PolynomialPower::paper(3.0, 0.2);
    let pool = Pool::with_threads(8);

    // --- 1. fig8-style cores sweep, every point KKT-certified ---
    let mut warm: Option<(Vec<f64>, Vec<f64>)> = None;
    let mut sweep = Vec::new();
    for cores in SWEEP_CORES {
        let ep = EnergyProgram::new(&tasks, &tl, cores, power);
        let mut opts = SolveOptions::fast();
        if let Some((x, y)) = warm.take() {
            opts = opts.with_warm_start(x).with_warm_start_dual(y);
        }
        let t0 = Instant::now();
        let r = solve_admm_in(&ep, &opts, &pool);
        let wall = t0.elapsed().as_secs_f64();
        assert!(
            r.converged,
            "cores={cores}: admm did not converge (gap {:e})",
            r.gap
        );
        let kkt = kkt_report(&ep, &r.x);
        assert!(
            kkt.is_optimal(KKT_TOL),
            "cores={cores}: KKT certificate failed (residual {:e}, gap {:e})",
            kkt.projected_gradient_residual,
            kkt.duality_gap
        );
        println!(
            "solver_smoke: cores={cores} certified in {wall:.2}s ({} iters, obj {:.6e})",
            r.iters, r.objective
        );
        sweep.push((cores, r.objective));
        let dual = r.dual.clone().expect("admm returns its dual point");
        warm = Some((r.x, dual));
    }

    // --- 2. exact ground truth: certificate, agreement, >=5x vs ADMM ---
    for (cores, admm_objective) in sweep {
        let ep = EnergyProgram::new(&tasks, &tl, cores, power);
        let exact = solve_exact(&ep);
        let rel = (admm_objective - exact.objective).abs() / exact.objective.abs();
        assert!(
            rel <= AGREEMENT_TOL,
            "cores={cores}: admm {admm_objective:.12e} vs exact {:.12e} \
             (relative {rel:.2e} > {AGREEMENT_TOL:e})",
            exact.objective
        );
        println!("solver_smoke: cores={cores} admm within {rel:.2e} of exact");
    }
    let ep = EnergyProgram::new(&tasks, &tl, 4, power);
    let t0 = Instant::now();
    let exact = solve_exact(&ep);
    let exact_wall = t0.elapsed().as_secs_f64();
    let kkt = kkt_report(&ep, &exact.x);
    assert!(
        kkt.is_optimal(EXACT_KKT_TOL),
        "exact at m=4: KKT certificate failed (residual {:e}, gap {:e})",
        kkt.projected_gradient_residual,
        kkt.duality_gap
    );
    let mut admm_best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = solve_admm_in(&ep, &SolveOptions::fast(), &pool);
        let wall = t0.elapsed().as_secs_f64();
        assert!(r.converged, "cold admm at m=4 did not converge");
        admm_best = admm_best.min(wall);
    }
    let speedup = admm_best / exact_wall;
    assert!(
        speedup >= MIN_SPEEDUP,
        "exact {exact_wall:.2}s vs admm best {admm_best:.2}s: \
         speedup {speedup:.1}x < {MIN_SPEEDUP}x"
    );
    println!(
        "solver_smoke: exact {exact_wall:.2}s ({} max-flows, gap {:.1e}) vs admm best \
         {admm_best:.2}s -> {speedup:.1}x (>= {MIN_SPEEDUP}x required)",
        exact.iters, kkt.duality_gap
    );

    // --- 3. byte-identity at 1, 4, 8 workers ---
    let reference = solve_admm_in(&ep, &SolveOptions::fast(), &Pool::with_threads(1));
    for workers in [4usize, 8] {
        let r = solve_admm_in(&ep, &SolveOptions::fast(), &Pool::with_threads(workers));
        assert_eq!(
            bits(&r.x),
            bits(&reference.x),
            "{workers} workers: primal diverged from serial"
        );
        assert_eq!(
            r.dual.as_deref().map(bits),
            reference.dual.as_deref().map(bits),
            "{workers} workers: dual diverged from serial"
        );
        assert_eq!(r.objective.to_bits(), reference.objective.to_bits());
        assert_eq!(r.gap.to_bits(), reference.gap.to_bits());
        assert_eq!(r.iters, reference.iters);
    }
    println!("solver_smoke: n={N} m=4 solve byte-identical at 1/4/8 workers");
}
