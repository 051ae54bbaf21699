//! Online/offline equivalence: after any event stream, the online
//! engine's outcome must be *byte-identical* to running the offline
//! pipeline on the same final task set — across worker counts.

use esched_engine::online::{OnlineEngine, OnlineEvent};
use esched_engine::{AuditConfig, Engine, EngineConfig};
use esched_obs::health::{HealthState, SloPolicy};
use esched_obs::json::ToJson;
use esched_opt::SolverKind;
use esched_types::{PolynomialPower, Task, TaskSet};
use esched_workload::{GeneratorConfig, WorkloadGenerator};
use std::time::Duration;

fn seed_set() -> TaskSet {
    TaskSet::from_triples(&[
        (0.0, 10.0, 8.0),
        (2.0, 18.0, 14.0),
        (4.0, 16.0, 8.0),
        (6.0, 14.0, 4.0),
        (8.0, 20.0, 10.0),
        (12.0, 22.0, 6.0),
    ])
}

fn mixed_events() -> Vec<OnlineEvent> {
    vec![
        OnlineEvent::Arrive(Task::of(5.0, 27.0, 3.0)),
        OnlineEvent::Complete {
            task: 1,
            actual_work: 9.0,
        },
        OnlineEvent::Shift {
            task: 3,
            release: 7.0,
            deadline: 15.0,
        },
        OnlineEvent::Arrive(Task::of(1.0, 3.0, 1.0)),
        // Off-grid arrival: forces subinterval splits.
        OnlineEvent::Arrive(Task::of(4.5, 13.25, 2.0)),
        OnlineEvent::Complete {
            task: 0,
            actual_work: 6.5,
        },
        // Shift onto existing boundaries: exercises the in-place patch.
        OnlineEvent::Shift {
            task: 2,
            release: 4.0,
            deadline: 18.0,
        },
        // Near-boundary arrival within tolerance: forces the full-rebuild
        // fallback (the satellite-1 divergence case).
        OnlineEvent::Arrive(Task::of(10.0 - 5e-8, 21.0, 2.0)),
    ]
}

fn assert_byte_identical(online: &mut OnlineEngine, workers: &[usize]) {
    let request = online.as_request();
    let got = online.outcome();
    for &w in workers {
        let want = Engine::with_threads(w)
            .run(&request)
            .expect("offline run failed");
        assert_eq!(got, want, "outcome diverged at {w} workers");
        assert_eq!(
            got.to_json().to_string(),
            want.to_json().to_string(),
            "JSON encoding diverged at {w} workers"
        );
    }
}

#[test]
fn online_outcome_matches_offline_after_every_event() {
    let mut engine = OnlineEngine::new(seed_set(), 4, PolynomialPower::cubic());
    assert_byte_identical(&mut engine, &[1]);
    for event in mixed_events() {
        let report = engine.apply(&event).expect("event rejected");
        assert!(report.final_energy.is_finite());
        assert_byte_identical(&mut engine, &[1]);
    }
}

#[test]
fn online_outcome_matches_offline_across_worker_counts() {
    let mut engine = OnlineEngine::new(seed_set(), 4, PolynomialPower::paper(3.0, 0.1));
    for event in mixed_events() {
        engine.apply(&event).expect("event rejected");
    }
    assert_byte_identical(&mut engine, &[1, 4, 8]);
}

#[test]
fn online_outcome_matches_offline_with_all_stages_enabled() {
    let cfg = EngineConfig::new()
        .with_solver(esched_opt::SolverKind::ProjectedGradient)
        .with_sim_verify(true)
        .with_discrete(esched_types::DiscretePower::from_pairs(&[
            (0.3, 0.077),
            (0.5, 0.175),
            (0.7, 0.393),
            (0.9, 0.779),
            (1.0, 1.05),
        ]))
        .with_telemetry(false);
    let mut engine =
        OnlineEngine::new(seed_set(), 4, PolynomialPower::paper(3.0, 0.05)).with_config(cfg);
    for event in mixed_events().into_iter().take(4) {
        engine.apply(&event).expect("event rejected");
    }
    assert_byte_identical(&mut engine, &[1, 4]);
}

#[test]
fn online_matches_offline_on_random_streams() {
    for case in 0u64..40 {
        let config = GeneratorConfig {
            tasks: 4 + (case as usize % 5),
            release_span: 30.0,
            ..GeneratorConfig::paper_default()
        };
        let mut gen = WorkloadGenerator::new(config, 0x0417_11e5 ^ case);
        let tasks = gen.generate();
        let mut engine = OnlineEngine::new(tasks, 1 + case as usize % 4, PolynomialPower::cubic());
        for step in 0..6usize {
            let n = engine.len();
            let event = match (case as usize + step) % 3 {
                0 => {
                    // Deterministic off-grid arrivals spread over the horizon.
                    let r = 1.5 * (case as f64) + 3.7 * (step as f64);
                    OnlineEvent::Arrive(Task::of(r, r + 4.0 + step as f64, 2.0 + step as f64))
                }
                1 => OnlineEvent::Complete {
                    task: step % n,
                    actual_work: engine.tasks().get(step % n).wcec * 0.75,
                },
                _ => {
                    let id = (step * 2 + 1) % n;
                    let t = *engine.tasks().get(id);
                    OnlineEvent::Shift {
                        task: id,
                        release: t.release + 0.5,
                        deadline: t.deadline + 1.5,
                    }
                }
            };
            engine.apply(&event).expect("event rejected");
        }
        assert_byte_identical(&mut engine, &[1]);
    }
}

#[test]
fn verify_and_recertify_accept_repaired_plans() {
    let mut engine = OnlineEngine::new(seed_set(), 4, PolynomialPower::cubic())
        .with_verify(true)
        .with_recertify(true);
    for event in mixed_events() {
        let report = engine.apply(&event).expect("event rejected");
        let recert = report.recertified.expect("recertification enabled");
        assert!(
            recert.kkt.is_optimal(1e-4),
            "repaired plan not certified: {:?}",
            recert.kkt
        );
    }
    engine
        .verify_current()
        .expect("final plan fails the oracle");
}

#[test]
fn exact_recertification_certifies_every_repair_at_1e_9() {
    let mut engine = OnlineEngine::new(seed_set(), 4, PolynomialPower::paper(3.0, 0.1))
        .with_config(EngineConfig::new().with_solver(SolverKind::Exact))
        .with_recertify(true);
    let events = mixed_events();
    assert!(events.iter().any(|e| matches!(e, OnlineEvent::Arrive(_))));
    assert!(events
        .iter()
        .any(|e| matches!(e, OnlineEvent::Complete { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, OnlineEvent::Shift { .. })));
    for event in &events {
        let report = engine.apply(event).expect("event rejected");
        let recert = report.recertified.expect("recertification enabled");
        assert!(
            recert.converged,
            "exact solve did not converge after {event:?}"
        );
        assert!(
            recert.kkt.is_optimal(1e-9),
            "exact optimum not certified at 1e-9 after {event:?}: {:?}",
            recert.kkt
        );
    }
}

#[test]
fn health_and_audit_preserve_byte_identity_across_worker_counts() {
    // The full observability stack on: sliding-window health recording,
    // per-event SLO evaluation, and a synchronous shadow audit on every
    // event. None of it may perturb the plan — the outcome must stay
    // byte-identical to the offline pipeline at 1, 4, and 8 workers.
    let policy = SloPolicy::new(Duration::from_secs(10))
        .with_replan_p99(Duration::from_secs(5))
        .with_regret_ceiling(10.0)
        .with_fallback_rate_ceiling(1.0);
    let mut engine = OnlineEngine::new(seed_set(), 4, PolynomialPower::paper(3.0, 0.1))
        .with_health(policy)
        .with_audit(AuditConfig::default().with_every(1).with_synchronous(true));
    for event in mixed_events() {
        engine.apply(&event).expect("event rejected");
    }
    assert_byte_identical(&mut engine, &[1, 4, 8]);

    let monitor = engine.health().expect("health enabled");
    assert_eq!(monitor.state(), HealthState::Healthy);
    assert_eq!(
        monitor.audits(),
        mixed_events().len() as u64,
        "every event audited"
    );
    let regret = monitor.regret().expect("audit published a regret");
    assert!(
        regret > -1e-6 && regret < 10.0,
        "heuristic regret out of range: {regret}"
    );
    let report = monitor.report();
    assert_eq!(report.divergences, 0, "live plan diverged from offline");
}

#[test]
fn invalid_events_leave_the_plan_untouched() {
    let mut engine = OnlineEngine::new(seed_set(), 4, PolynomialPower::cubic());
    let before = engine.outcome();
    let bad = [
        OnlineEvent::Complete {
            task: 99,
            actual_work: 1.0,
        },
        OnlineEvent::Complete {
            task: 0,
            actual_work: 0.0,
        },
        OnlineEvent::Shift {
            task: 1,
            release: 5.0,
            deadline: 5.0,
        },
        OnlineEvent::Arrive(Task {
            release: 3.0,
            deadline: 1.0,
            wcec: 2.0,
        }),
    ];
    for event in bad {
        engine.apply(&event).expect_err("event should be rejected");
    }
    let after = engine.outcome();
    assert_eq!(before, after);
}

#[test]
fn slack_reclamation_lowers_corunner_frequencies() {
    // Two tasks sharing one core and one window: when task 0 finishes at
    // half its worst case, the reclaimed time goes to task 1 and its final
    // frequency drops.
    let ts = TaskSet::from_triples(&[(0.0, 10.0, 6.0), (0.0, 10.0, 6.0)]);
    let mut engine = OnlineEngine::new(ts, 1, PolynomialPower::cubic());
    let before = engine.assignment().freq[1];
    engine
        .apply(&OnlineEvent::Complete {
            task: 0,
            actual_work: 3.0,
        })
        .unwrap();
    let after = engine.assignment().freq[1];
    assert!(
        after < before - 1e-9,
        "co-runner frequency did not drop: {before} -> {after}"
    );
    assert_byte_identical(&mut engine, &[1]);
}
