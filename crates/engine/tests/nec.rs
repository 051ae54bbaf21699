//! Normalized Energy Consumption through the engine: a request with a
//! solver set carries the paper's five NEC values, normalized by `E^OPT`.

use esched_core::NecPoint;
use esched_engine::{Engine, EngineConfig, ScheduleRequest};
use esched_opt::SolverKind;
use esched_types::{PolynomialPower, TaskSet};

/// The NEC point of the Section V.D example (`p(f) = f³`, four cores).
fn vd_nec() -> NecPoint {
    let tasks = TaskSet::from_triples(&[
        (0.0, 10.0, 8.0),
        (2.0, 18.0, 14.0),
        (4.0, 16.0, 8.0),
        (6.0, 14.0, 4.0),
        (8.0, 20.0, 10.0),
        (12.0, 22.0, 6.0),
    ]);
    let request = ScheduleRequest::new(tasks, 4, PolynomialPower::cubic())
        .with_config(EngineConfig::new().with_solver(SolverKind::ProjectedGradient));
    let outcome = Engine::with_threads(1).run(&request).expect("no panic");
    outcome.nec.expect("a solver was set")
}

#[test]
fn heuristic_necs_are_at_least_one() {
    let nec = vd_nec();
    for (label, v) in [
        ("i1", nec.i1),
        ("f1", nec.f1),
        ("i2", nec.i2),
        ("f2", nec.f2),
    ] {
        assert!(v >= 1.0 - 1e-4, "{label} = {v} below 1");
    }
    // Finals improve on intermediates.
    assert!(nec.f1 <= nec.i1 + 1e-9);
    assert!(nec.f2 <= nec.i2 + 1e-9);
}

#[test]
fn ideal_lower_bounds_opt_when_static_power_is_zero() {
    let nec = vd_nec();
    assert!(nec.ideal <= 1.0 + 1e-6, "ideal NEC = {}", nec.ideal);
}

#[test]
fn vd_example_f2_beats_f1() {
    let nec = vd_nec();
    assert!(nec.f2 < nec.f1, "f2 {} vs f1 {}", nec.f2, nec.f1);
}
