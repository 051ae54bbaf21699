//! Solver study: every [`SolverKind`] on the energy program at several
//! instance sizes — the exact min-cut solver, and projected gradient (the
//! harness default) measured against it.
//!
//! This is the evidence behind trusting the NEC normalizations: the
//! iterative objective must sit within its certified duality gap of the
//! exact optimum, well below the margins the figures report.

use crate::report::write_artifact;
use esched_obs::chrome::{convergence_trace, ConvergencePoint};
use esched_obs::{RunReport, TrialRecord, Value};
use esched_opt::{kkt_report, EnergyProgram, SolveOptions, SolverKind, SolverTelemetry};
use esched_subinterval::Timeline;
use esched_types::PolynomialPower;
use esched_workload::{GeneratorConfig, WorkloadGenerator};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One solver's run record.
#[derive(Debug, Clone)]
pub struct SolverRun {
    /// Solver name.
    pub name: &'static str,
    /// Instance size (tasks).
    pub tasks: usize,
    /// Final objective.
    pub objective: f64,
    /// Certified duality gap.
    pub gap: f64,
    /// Iterations used.
    pub iters: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Projected-gradient KKT residual (solver-independent certificate).
    pub kkt_residual: f64,
    /// The solver's own telemetry (stalls, gap evaluations, backtracks).
    pub telemetry: SolverTelemetry,
}

/// Run every solver on instances of each size.
pub fn run(sizes: &[usize], seed: u64) -> Vec<SolverRun> {
    let mut out = Vec::new();
    for &n in sizes {
        let tasks =
            WorkloadGenerator::new(GeneratorConfig::paper_default().with_tasks(n), seed).generate();
        let tl = Timeline::build(&tasks);
        let ep = EnergyProgram::new(&tasks, &tl, 4, PolynomialPower::paper(3.0, 0.1));
        let opts = SolveOptions::default();
        for kind in SolverKind::ALL {
            let t0 = Instant::now();
            let r = kind.solve(&ep, &opts);
            let seconds = t0.elapsed().as_secs_f64();
            let kkt = kkt_report(&ep, &r.x);
            out.push(SolverRun {
                name: kind.name(),
                tasks: n,
                objective: r.objective,
                gap: r.gap,
                iters: r.iters,
                seconds,
                kkt_residual: kkt.projected_gradient_residual,
                telemetry: r.telemetry,
            });
        }
    }
    out
}

/// The exact optimum of the `tasks`-task instance.
fn exact_objective(runs: &[SolverRun], tasks: usize) -> f64 {
    runs.iter()
        .find(|r| r.tasks == tasks && r.name == SolverKind::Exact.name())
        .expect("every size has an exact run")
        .objective
}

/// Render and persist the study.
pub fn run_and_report(seed: u64, outdir: &Path) -> String {
    let runs = run(&[10, 20, 40], seed);
    let mut out = String::from("Solver study (m=4, alpha=3, p0=0.1; default tolerances)\n");
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>14} {:>11} {:>11} {:>8} {:>9} {:>11}",
        "tasks", "solver", "objective", "vs_exact", "gap", "iters", "seconds", "kkt_resid"
    );
    let mut csv = String::from(
        "tasks,solver,objective,rel_excess_over_exact,gap,iters,seconds,kkt_residual\n",
    );
    for r in &runs {
        let excess = r.objective / exact_objective(&runs, r.tasks) - 1.0;
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>14.6} {:>11.2e} {:>11.2e} {:>8} {:>9.4} {:>11.2e}",
            r.tasks, r.name, r.objective, excess, r.gap, r.iters, r.seconds, r.kkt_residual
        );
        let _ = writeln!(
            csv,
            "{},{},{:.9},{:.3e},{:.3e},{},{:.5},{:.3e}",
            r.tasks, r.name, r.objective, excess, r.gap, r.iters, r.seconds, r.kkt_residual
        );
    }
    // Agreement line: the largest distance from the exact optimum.
    for &n in &[10usize, 20, 40] {
        let worst = runs
            .iter()
            .filter(|r| r.tasks == n)
            .map(|r| (r.objective / exact_objective(&runs, n) - 1.0).abs())
            .fold(0.0_f64, f64::max);
        let _ = writeln!(
            out,
            "n = {n}: largest distance from the exact optimum = {worst:.2e} (relative)"
        );
    }
    let _ = write_artifact(outdir, "solvers.csv", &csv);
    // Structured artifact: one trial record per (size, solver) run.
    let mut report = RunReport::new("solvers").with_meta("seed", Value::Num(seed as f64));
    for (k, r) in runs.iter().enumerate() {
        let t = &r.telemetry;
        let mut rec = TrialRecord::new(k as u64, seed);
        rec.solver_iters = t.iters as u64;
        rec.gap_evals = t.gap_evals as u64;
        rec.converged = t.converged;
        rec.final_gap = t.final_gap;
        rec.solve_wall_s = t.wall_s;
        rec.extra
            .push(("solver".to_string(), Value::Str(r.name.to_string())));
        rec.extra
            .push(("tasks".to_string(), Value::Num(r.tasks as f64)));
        rec.extra
            .push(("objective".to_string(), Value::Num(r.objective)));
        rec.extra
            .push(("kkt_residual".to_string(), Value::Num(r.kkt_residual)));
        rec.extra
            .push(("backtracks".to_string(), Value::Num(t.backtracks as f64)));
        rec.extra
            .push(("stalls".to_string(), Value::Num(t.stalls as f64)));
        report.push(rec);
    }
    let _ = report.write_to_dir(outdir);

    // Convergence traces: re-run every solver on the n=20 instance with
    // per-iteration tracing on and render each run as Chrome counter
    // tracks (objective / gap / step over iterations), loadable in
    // Perfetto alongside a span capture.
    let tasks =
        WorkloadGenerator::new(GeneratorConfig::paper_default().with_tasks(20), seed).generate();
    let tl = Timeline::build(&tasks);
    let ep = EnergyProgram::new(&tasks, &tl, 4, PolynomialPower::paper(3.0, 0.1));
    let opts = SolveOptions::default().with_trace_iters(true);
    for kind in SolverKind::ALL {
        let r = kind.solve(&ep, &opts);
        let points: Vec<ConvergencePoint> = r
            .iter_trace
            .unwrap_or_default()
            .iter()
            .map(|s| ConvergencePoint {
                iter: s.iter,
                objective: s.objective,
                gap: s.gap,
                step: s.step,
            })
            .collect();
        let doc = convergence_trace(kind.name(), &points);
        let file = format!("convergence_{}.trace.json", kind.name());
        let _ = write_artifact(outdir, &file, &doc.to_string_pretty());
        let _ = writeln!(out, "convergence trace: {file} ({} samples)", points.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_solvers_agree_within_tolerance() {
        let runs = run(&[10], 77);
        assert_eq!(runs.len(), SolverKind::ALL.len());
        for r in &runs {
            // Never below the exact optimum, and above it by at most the
            // run's own certified gap.
            let excess = r.objective - exact_objective(&runs, r.tasks);
            assert!(excess >= -1e-9, "{}: below exact by {excess:e}", r.name);
            assert!(
                excess <= r.gap + 1e-9,
                "{}: excess {excess:e} over exact exceeds its gap {:e}",
                r.name,
                r.gap
            );
            assert!(r.gap >= -1e-9, "{}: negative gap {}", r.name, r.gap);
            assert!(r.seconds >= 0.0);
        }
    }

    #[test]
    fn every_solver_yields_an_iteration_trace_when_asked() {
        let tasks =
            WorkloadGenerator::new(GeneratorConfig::paper_default().with_tasks(10), 7).generate();
        let tl = Timeline::build(&tasks);
        let ep = EnergyProgram::new(&tasks, &tl, 4, PolynomialPower::paper(3.0, 0.1));
        let opts = SolveOptions::fast().with_trace_iters(true);
        for kind in SolverKind::ALL {
            let r = kind.solve(&ep, &opts);
            let trace = r.iter_trace.unwrap_or_default();
            assert!(!trace.is_empty(), "{}: empty iteration trace", kind.name());
            // Iteration numbers are positive and non-decreasing.
            let mut prev = 0usize;
            for s in &trace {
                assert!(s.iter >= prev.max(1), "{}: iter order", kind.name());
                assert!(s.objective.is_finite());
                prev = s.iter;
            }
            let doc = convergence_trace(
                kind.name(),
                &trace
                    .iter()
                    .map(|s| ConvergencePoint {
                        iter: s.iter,
                        objective: s.objective,
                        gap: s.gap,
                        step: s.step,
                    })
                    .collect::<Vec<_>>(),
            );
            assert!(!doc
                .get("traceEvents")
                .and_then(Value::as_array)
                .unwrap()
                .is_empty());
        }
    }
}
