//! Every way this workspace computes `E^OPT`, head to head on one
//! instance — with certificates, and the iterative solvers measured
//! against the exact optimum.
//!
//! ```text
//! cargo run --release --example solver_comparison
//! ```

use esched::core::{analyze, optimal_energy_with};
use esched::opt::{kkt_report, EnergyProgram, SolveOptions, SolverKind};
use esched::prelude::*;
use std::time::Instant;

fn main() {
    let mut gen = WorkloadGenerator::new(GeneratorConfig::paper_default(), 7);
    let tasks = gen.generate();
    let power = PolynomialPower::paper(3.0, 0.1);
    let cores = 4;

    println!(
        "instance: {} tasks on {cores} cores, p(f) = f^3 + 0.1\n",
        tasks.len()
    );
    println!(
        "{:<20} {:>12} {:>10} {:>8} {:>10}",
        "solver", "E^OPT", "gap", "iters", "ms"
    );
    let tl = Timeline::build(&tasks);
    let ep = EnergyProgram::new(&tasks, &tl, cores, power);
    let exact = SolverKind::Exact.solve(&ep, &SolveOptions::default());
    let mut sol = None;
    for solver in SolverKind::ALL {
        let t0 = Instant::now();
        let s = optimal_energy_with(&tasks, cores, &power, &SolveOptions::default(), solver);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:<20} {:>12.6} {:>10.2e} {:>8} {:>10.2}",
            solver.name(),
            s.energy,
            s.gap,
            s.iters,
            ms
        );
        validate_schedule(&s.schedule, &tasks).assert_legal();
        if solver == SolverKind::Exact {
            sol = Some(s);
        } else {
            println!(
                "{:<20} {:>12.2e} above the exact optimum",
                "",
                (s.energy - exact.objective) / exact.objective
            );
        }
    }
    let sol = sol.expect("SolverKind::ALL includes Exact");

    // Independent certification of the exact solution.
    let report = kkt_report(&ep, &exact.x);
    println!(
        "\nexact optimum certified: duality gap {:.1e}, KKT residual {:.1e}",
        report.duality_gap, report.projected_gradient_residual
    );
    let report = kkt_report(&ep, &ep.initial_point());
    println!(
        "for contrast, the naive even-allocation start point has duality gap {:.3}",
        report.duality_gap
    );

    // What the optimal schedule looks like, qualitatively.
    let q = analyze(&sol.schedule, &tasks, &power);
    println!(
        "optimal schedule: {} segments, {} migrations, utilization {:.2}, static fraction {:.1}%",
        sol.schedule.len(),
        q.migrations,
        q.utilization,
        100.0 * q.static_energy / q.energy
    );
}
