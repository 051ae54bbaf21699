//! The per-request phase taxonomy: every stage of the pipeline records
//! its wall time under one of eight names, and together the phases
//! account for the request's wall time.

use esched_engine::{Engine, EngineConfig, OnlineEngine, OnlineEvent, ScheduleRequest};
use esched_obs::TraceCtx;
use esched_opt::SolverKind;
use esched_types::{PolynomialPower, Task};
use esched_workload::{xscale_discrete, xscale_paper_fit, WorkloadSpec};
use std::time::Instant;

const PHASES: &str = "timeline ideal allocate refine materialize solve verify discrete";

/// Every stage on: an `E^OPT` solve (and so NEC), simulator, discrete.
fn all_stages() -> EngineConfig {
    EngineConfig::new()
        .with_telemetry(true)
        .with_solver(SolverKind::Exact)
        .with_sim_verify(true)
        .with_discrete(xscale_discrete())
}

fn names(trace: &TraceCtx) -> Vec<&'static str> {
    trace.phases.iter().map(|&(name, _)| name).collect()
}

#[test]
fn engine_run_records_every_stage_under_its_phase_name() {
    let tasks = WorkloadSpec::xscale().with_scale(12).instantiate(7);
    let request = ScheduleRequest::new(tasks, 4, xscale_paper_fit()).with_config(all_stages());
    let outcome = Engine::with_threads(1).run(&request).expect("no panic");
    // The chosen (DER) heuristic's front and tail, then the evenly
    // allocating heuristic NEC normalizes by, then the rest of the tail:
    // all eight phases, nothing else.
    assert_eq!(
        names(&outcome.trace.expect("telemetry is on")).join(" "),
        "timeline ideal allocate refine materialize allocate refine materialize \
         solve verify discrete"
    );
}

#[test]
fn online_outcome_records_only_pipeline_phases() {
    let tasks = WorkloadSpec::xscale().with_scale(12).instantiate(11);
    let mut engine = OnlineEngine::new(tasks, 4, xscale_paper_fit()).with_config(all_stages());
    let horizon = engine.tasks().latest_deadline();
    engine
        .apply(&OnlineEvent::Arrive(Task::of(0.0, horizon, 1.0)))
        .expect("a valid arrival");
    let recorded = names(&engine.outcome().trace.expect("telemetry is on"));
    for name in &recorded {
        assert!(
            PHASES.split(' ').any(|p| p == *name),
            "unknown phase {name}"
        );
    }
    for name in ["refine", "materialize", "solve", "verify", "discrete"] {
        assert!(recorded.contains(&name), "phase {name} not recorded");
    }
}

/// The coverage gate: on a paper-profile request, the phases must account
/// for at least 95% of the wall time `Engine::run` takes, so no stage of
/// the request goes unattributed.
#[test]
fn phases_cover_the_request_wall_time() {
    let tasks = WorkloadSpec::paper().with_scale(512).instantiate(2014);
    let request = ScheduleRequest::new(tasks, 8, PolynomialPower::paper(3.0, 0.1));
    let engine = Engine::with_threads(1);
    let best = (0..3)
        .map(|_| {
            let start = Instant::now();
            let outcome = engine.run(&request).expect("no panic");
            let wall = start.elapsed().as_nanos() as f64;
            outcome
                .trace
                .expect("telemetry is on by default")
                .total_ns() as f64
                / wall
        })
        .fold(0.0, f64::max);
    assert!(
        best >= 0.95,
        "phases cover only {:.1}% of the request's wall time",
        100.0 * best
    );
}
