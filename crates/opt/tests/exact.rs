//! Ground-truth tests for the exact min-cut solver: the paper's closed
//! form, dominance over the iterative solvers' certified bounds, the
//! degenerate instance shapes, and the level-slack regression.

use esched_obs::rng::ChaCha8;
use esched_opt::{
    kkt_report, min_frequency_by_flow, solve_exact, EnergyProgram, SolveOptions, SolverKind,
    TaskNetwork,
};
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, Task, TaskSet};

const KKT_TOL: f64 = 1e-9;

fn program(tasks: &TaskSet, cores: usize, power: PolynomialPower) -> EnergyProgram {
    let tl = Timeline::build(tasks);
    EnergyProgram::new(tasks, &tl, cores, power)
}

fn section_ii() -> TaskSet {
    TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)])
}

fn assert_certified(ep: &EnergyProgram, what: &str) -> f64 {
    let r = solve_exact(ep);
    assert!(r.converged, "{what}: not converged");
    assert!(ep.is_feasible(&r.x, 1e-12), "{what}: infeasible");
    let kkt = kkt_report(ep, &r.x);
    assert!(
        kkt.is_optimal(KKT_TOL),
        "{what}: KKT failed (gap {:e}, residual {:e}, objective {})",
        kkt.duality_gap,
        kkt.projected_gradient_residual,
        kkt.objective
    );
    r.objective
}

/// Energy of running each task alone at its own optimal frequency
/// `max(f_crit, C_i / window_i)` — the optimum whenever no subinterval
/// holds more than `m` tasks.
fn uncontended_energy(tasks: &TaskSet, power: &PolynomialPower) -> f64 {
    tasks
        .iter()
        .map(|(_, t)| {
            let f = power.optimal_frequency(t.wcec, t.window_len());
            t.wcec * (power.gamma * f.powf(power.alpha - 1.0) + power.p0 / f)
        })
        .sum()
}

#[test]
fn section_ii_matches_the_closed_form() {
    let ep = program(&section_ii(), 2, PolynomialPower::paper(3.0, 0.01));
    let expect = 155.0 / 32.0 + 0.2;
    let got = assert_certified(&ep, "section II");
    assert!(
        ((got - expect) / expect).abs() <= 1e-12,
        "E^OPT {got} vs {expect}"
    );
}

#[test]
fn exact_lower_bounds_every_solver_within_its_certified_gap() {
    let mut rng = ChaCha8::seed_from_u64(0xe8ac_7001);
    for case in 0..30 {
        let n = rng.gen_range_usize(1, 14);
        let tasks = TaskSet::new(
            (0..n)
                .map(|_| {
                    let r = rng.gen_range_f64(0.0, 30.0);
                    let len = rng.gen_range_f64(0.5, 25.0);
                    let intensity = rng.gen_range_f64(0.05, 1.2);
                    Task::of(r, r + len, (len * intensity).max(1e-3))
                })
                .collect(),
        )
        .unwrap();
        let cores = rng.gen_range_usize(1, 5);
        let p0 = [0.0, 0.05, 0.2, 1.0][rng.gen_range_usize(0, 4)];
        let alpha = if rng.gen_bool(0.5) { 3.0 } else { 2.0 };
        let ep = program(&tasks, cores, PolynomialPower::paper(alpha, p0));
        let exact = assert_certified(&ep, &format!("case {case}"));
        for kind in SolverKind::ALL {
            let r = kind.solve(&ep, &SolveOptions::default());
            let slack = 1e-12 * (1.0 + exact.abs());
            assert!(
                exact <= r.objective + slack,
                "case {case}: exact {exact} above {} {}",
                kind.name(),
                r.objective
            );
            assert!(
                r.objective - exact <= r.gap + slack,
                "case {case}: {} objective {} exceeds exact {exact} by more than its gap {:e}",
                kind.name(),
                r.objective,
                r.gap
            );
        }
    }
}

#[test]
fn lightly_overlapped_and_m_at_least_n_run_every_task_alone() {
    let power = PolynomialPower::paper(3.0, 0.1);
    // At most two tasks share any instant on two cores.
    let light = TaskSet::from_triples(&[
        (0.0, 4.0, 1.0),
        (2.0, 7.0, 3.0),
        (5.0, 9.0, 0.5),
        (8.0, 12.0, 2.0),
    ]);
    let got = assert_certified(&program(&light, 2, power), "light overlap");
    let want = uncontended_energy(&light, &power);
    assert!(((got - want) / want).abs() <= 1e-12, "{got} vs {want}");

    // Everything overlaps, but there is a core per task.
    let dense = TaskSet::from_triples(&[
        (0.0, 10.0, 6.0),
        (1.0, 9.0, 4.0),
        (2.0, 8.0, 5.0),
        (0.5, 3.0, 2.0),
    ]);
    for cores in [4, 7] {
        let got = assert_certified(&program(&dense, cores, power), "m >= n");
        let want = uncontended_energy(&dense, &power);
        assert!(
            ((got - want) / want).abs() <= 1e-12,
            "m={cores}: {got} vs {want}"
        );
    }
}

#[test]
fn every_task_below_f_crit_runs_at_f_crit() {
    // p0 = 5 puts f_crit = (5/2)^(1/3) ≈ 1.36 above every stretch
    // frequency, even under contention on one core.
    let power = PolynomialPower::paper(3.0, 5.0);
    let f_crit = power.critical_frequency();
    let tasks = TaskSet::from_triples(&[(0.0, 10.0, 2.0), (1.0, 9.0, 3.0), (4.0, 12.0, 1.0)]);
    let ep = program(&tasks, 1, power);
    let got = assert_certified(&ep, "below f_crit");
    let want: f64 = tasks
        .iter()
        .map(|(_, t)| t.wcec * (f_crit.powi(2) + power.p0 / f_crit))
        .sum();
    assert!(((got - want) / want).abs() <= 1e-12, "{got} vs {want}");
    let r = solve_exact(&ep);
    for (i, t) in tasks.iter() {
        let x = ep.total_time(&r.x, i);
        assert!(
            (x - t.wcec / f_crit).abs() <= 1e-12 * t.wcec,
            "task {i}: X = {x}"
        );
    }
}

#[test]
fn single_task_uses_its_window_or_f_crit() {
    for p0 in [0.0, 0.01, 0.25, 3.0] {
        let power = PolynomialPower::paper(2.0, p0);
        let tasks = TaskSet::from_triples(&[(1.0, 6.0, 2.0)]);
        let got = assert_certified(&program(&tasks, 1, power), "single task");
        let want = uncontended_energy(&tasks, &power);
        assert!(
            ((got - want) / want).abs() <= 1e-12,
            "p0={p0}: {got} vs {want}"
        );
    }
}

#[test]
fn near_eps_subintervals_certify() {
    // Boundaries jittered by the fuzz generator's offsets around the
    // comparison tolerance, so subinterval lengths land near EPS.
    const JITTERS: [f64; 6] = [-1e-6, -2e-7, -1e-8, 1e-8, 2e-7, 1e-6];
    let mut rng = ChaCha8::seed_from_u64(0xe8ac_7002);
    for case in 0..40 {
        let grid = [0.0, 2.5, 5.0, 7.5, 10.0];
        let n = rng.gen_range_usize(2, 9);
        let tasks = TaskSet::new(
            (0..n)
                .map(|_| {
                    let a = rng.gen_range_usize(0, grid.len() - 1);
                    let b = rng.gen_range_usize(a + 1, grid.len());
                    let mut r = grid[a];
                    let mut d = grid[b];
                    if rng.gen_bool(0.5) {
                        r += JITTERS[rng.gen_range_usize(0, JITTERS.len())].abs();
                    }
                    if rng.gen_bool(0.5) {
                        d += JITTERS[rng.gen_range_usize(0, JITTERS.len())];
                    }
                    let intensity = rng.gen_range_f64(0.2, 1.1);
                    Task::of(r, d, (d - r) * intensity)
                })
                .collect(),
        )
        .unwrap();
        let cores = rng.gen_range_usize(1, 4);
        let p0 = [0.0, 0.2, 1.0][rng.gen_range_usize(0, 3)];
        let ep = program(&tasks, cores, PolynomialPower::paper(3.0, p0));
        assert_certified(&ep, &format!("near-EPS case {case}"));
    }
}

/// Regression: computing a level's frequency by bisecting on a tolerant
/// flow test lands the frequency a hair *below* the exact ratio, so the
/// tight set's demands `C_i / f` overcommit its capacity and the next
/// peel (here `{τ0, τ1}` at 3/8) no longer fits beside it. The exact
/// ratios fit with every demand served.
#[test]
fn bisected_level_slack_makes_the_next_peel_infeasible() {
    let tasks = section_ii();
    let tl = Timeline::build(&tasks);
    let next_peel = [(0, 4.0 / 0.375), (1, 2.0 / 0.375)];
    let fits = |tight_level: f64| {
        let mut net = TaskNetwork::from_timeline(&tl, tasks.len(), 2);
        net.set_demand(2, 4.0 / tight_level);
        for (i, demand) in next_peel {
            net.set_demand(i, demand);
        }
        net.augment();
        net.overloaded().iter().all(|&o| !o)
    };
    // The first level is τ2 alone at exactly f = 4/4 = 1.
    let f_bisected = min_frequency_by_flow(&tasks, &tl, 2, 1e-13);
    assert!(f_bisected < 1.0, "bisection landed at {f_bisected}");
    assert!(!fits(f_bisected), "the slack must overcommit the tight set");
    assert!(fits(1.0));

    let ep = program(&tasks, 2, PolynomialPower::paper(3.0, 0.01));
    let r = solve_exact(&ep);
    for (i, want) in [(0, 0.375), (1, 0.375), (2, 1.0)] {
        let f = ep.work_of_task(i) / ep.total_time(&r.x, i);
        assert!((f - want).abs() <= 1e-15, "task {i} at {f}, level {want}");
    }
}
