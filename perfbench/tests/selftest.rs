//! Self-tests of the benchmark's own arithmetic and of the staged
//! replay's fidelity. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use esched_engine::{Engine, EngineConfig, OnlineEngine, OnlineEvent, ScheduleRequest};
use esched_opt::{SolveOptions, SolverKind};
use esched_perfbench::layers::{root_self_median_ms, stage_coverage};
use esched_perfbench::pins::{hex, unhex, Pins};
use esched_perfbench::stages::{self, OnlinePlan};
use esched_perfbench::stats::{beyond, median, min_samples_for, percentile};
use esched_perfbench::trace::{self_time_by_name, self_times, Span, Tracer};
use esched_perfbench::workloads::{self, Workload, HELD_OUT_SEED, SEED_GROUPS};
use esched_perfbench::{Metric, Report, Tally, END_TO_END};
use esched_types::{PolynomialPower, Task};
use esched_workload::WorkloadSpec;
use std::time::Instant;

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    // Nearest rank: p75 of 40 samples is the 30th, leaving 10 above.
    assert_eq!(beyond(40, 750), 10);
    assert_eq!(beyond(39, 750), 9);
    assert_eq!(min_samples_for(750), 40);
    assert_eq!(min_samples_for(950), 200);
    assert_eq!(min_samples_for(990), 1000);
    assert_eq!(min_samples_for(500), 20);
    assert_eq!(beyond(999, 990), 9);
    assert_eq!(beyond(1000, 990), 10);
    // Every workload's fixed percentile holds at its sample floor.
    for w in Workload::ALL {
        let p = w.tail_permille();
        assert!(beyond(min_samples_for(p), p) >= 10, "{}", w.name());
    }
}

#[test]
fn percentiles_and_medians_match_their_definitions() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 500), 5.0);
    assert_eq!(percentile(&v, 750), 8.0);
    assert_eq!(percentile(&v, 1000), 10.0);
    assert_eq!(median(&v), 5.5);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn failed_frac_counts_failed_operations_over_attempted() {
    let mut t = Tally::default();
    assert_eq!(t.failed_frac(), 0.0);
    for _ in 0..8 {
        t.attempt();
    }
    t.fail(1, "engine error");
    t.fail(2, "instance failed its check");
    assert_eq!((t.attempted, t.failed), (8, 3));
    assert_eq!(t.failed_frac(), 3.0 / 8.0);
    assert_eq!(t.failures.len(), 2);

    let metric = |name| Metric {
        name,
        value: 1.5,
        samples: 3,
    };
    let mut report = Report {
        tally: t,
        metrics: END_TO_END.iter().map(|(n, _)| metric(n)).collect(),
    };
    assert!(!report.correct());
    report.tally.failed = 0;
    assert!(report.correct());
    let json = report.to_json();
    let keys: Vec<&str> = match &json {
        esched_obs::Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("object expected"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let m = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
    assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some("s"));
    assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1.5));
}

#[test]
fn span_self_time_is_parent_minus_covered_children() {
    let span = |name, start_ns, dur_ns, parent| Span {
        name,
        start_ns,
        dur_ns,
        parent,
    };
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 5, 30, Some(0)),
        span("a.inner", 10, 12, Some(1)),
        span("b", 40, 20, Some(0)),
        span("a", 70, 10, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![40, 18, 12, 20, 10]);
    let by_name = self_time_by_name(&spans);
    assert_eq!(by_name["root"], 40);
    assert_eq!(by_name["a"], 28);
    assert_eq!(by_name["b"], 20);
    // Self times partition the root's duration.
    assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    // `engine.overhead_ms` is the median root self time over operations.
    let other_op = vec![span("root", 0, 50, None), span("a", 0, 20, Some(0))];
    let third_op = vec![span("root", 0, 90, None)];
    assert_eq!(
        root_self_median_ms(&[spans.clone(), other_op, third_op]),
        40.0 / 1e6
    );
    // Paired coverage: the stage spans' 60 ns of self time over an
    // untraced twin of 120 ns.
    assert_eq!(
        stage_coverage(std::slice::from_ref(&spans), &[120.0 / 1e6], 1.0),
        0.5
    );

    let mut tr = Tracer::new(Instant::now());
    let root = tr.enter("root");
    let x = tr.stage("child", || busy_work(1000));
    tr.exit(root);
    assert!(x > 0);
    let spans = tr.take();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].dur_ns >= spans[1].dur_ns);
}

fn busy_work(n: u64) -> u64 {
    (0..n).map(|i| i * i % 7).sum()
}

#[test]
fn seed_groups_and_pins_round_trip() {
    assert_eq!(workloads::seed_group(HELD_OUT_SEED), SEED_GROUPS);
    for seed in [0, 1, 7, 8, 123_456_789, u64::MAX] {
        assert!(workloads::seed_group(seed) < SEED_GROUPS);
    }
    let held_out = workloads::fig10_base_seed(SEED_GROUPS);
    for g in 0..SEED_GROUPS {
        let b = workloads::fig10_base_seed(g);
        assert!(b + 100 <= held_out, "held-out trials overlap group {g}");
    }
    for x in [1.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300] {
        assert_eq!(unhex(&hex(x)).map(f64::to_bits), Some(x.to_bits()));
    }
    let mut pins = Pins::default();
    pins.offline
        .entry("offline_paper_1024".into())
        .or_default()
        .insert("10000+3".into(), 1.0 / 7.0);
    pins.fig10
        .insert(40_000, vec![[1.0, 1.1, 1.2, 1.3, 1.4]; 2]);
    assert_eq!(Pins::from_json(&pins.to_json()), Some(pins));
    // The compiled-in pins cover every group of every pinned workload.
    let embedded = Pins::embedded();
    for w in [Workload::OfflinePaper1024, Workload::OfflineLargeN65k] {
        for g in workloads::all_groups() {
            for id in workloads::offline_instances(w, g) {
                let key = id.to_string();
                assert!(
                    embedded.offline[w.name()].contains_key(&key),
                    "{} {key}",
                    w.name()
                );
            }
        }
    }
    for g in workloads::all_groups() {
        assert_eq!(embedded.fig10[&workloads::fig10_base_seed(g)].len(), 8);
    }
}

fn paper_request(n: usize, seed: u64, cores: usize) -> ScheduleRequest {
    let tasks = WorkloadSpec::paper().with_scale(n).instantiate(seed);
    ScheduleRequest::new(tasks, cores, PolynomialPower::paper(3.0, 0.1))
}

#[test]
fn staged_offline_replay_reproduces_engine_run_exactly() {
    let engine = Engine::new();
    let mut reqs: Vec<ScheduleRequest> = (0..3).map(|s| paper_request(60, s, 4)).collect();
    // The intra-instance fan-out path, forced on a small grid instance.
    reqs.push(
        ScheduleRequest::new(
            WorkloadSpec::large_n(2048).instantiate(5),
            8,
            PolynomialPower::paper(3.0, 0.1),
        )
        .with_config(EngineConfig::new().with_intra_parallelism(16)),
    );
    for req in &reqs {
        let out = engine.run(req).unwrap();
        let mut tr = Tracer::new(Instant::now());
        let staged = stages::offline_request(&mut tr, req);
        assert_eq!(staged.der.energy.to_bits(), out.energy.to_bits());
        assert_eq!(
            staged.der.intermediate_energy.to_bits(),
            out.intermediate_energy.to_bits()
        );
        assert_eq!(staged.der.segments, out.schedule.len());
        assert_eq!(
            staged.pool_alloc_ns.is_some(),
            req.config.intra_parallelism.is_some()
        );
        let names: Vec<&str> = tr.take().iter().map(|s| s.name).collect();
        assert_eq!(names[0], stages::names::REQUEST);
        assert!(names.contains(&stages::names::MATERIALIZE));
    }
}

#[test]
fn staged_trial_replay_reproduces_the_solver_pipeline_exactly() {
    let solver = SolverKind::from_name(workloads::FIG10_SOLVER).unwrap();
    let config = EngineConfig::new()
        .with_solver(solver)
        .with_solve_options(SolveOptions::fast())
        .with_sim_verify(true);
    for seed in 0..3 {
        let req = paper_request(12, seed, 4).with_config(config.clone());
        let out = Engine::new().run(&req).unwrap();
        let mut scratch = esched_core::Scratch::new();
        let mut tr = Tracer::new(Instant::now());
        let staged = stages::fig10_trial(&mut tr, &mut scratch, &req, solver);
        let nec = out.nec.unwrap();
        assert_eq!(staged.nec.f2.to_bits(), nec.f2.to_bits());
        assert_eq!(staged.nec.f1.to_bits(), nec.f1.to_bits());
        assert_eq!(staged.nec.ideal.to_bits(), nec.ideal.to_bits());
        assert_eq!(staged.iters, out.opt.as_ref().unwrap().iters);
        assert_eq!(staged.segments, out.schedule.len());
        assert_eq!(staged.sim_clean, out.sim.unwrap().clean);
    }
}

#[test]
fn staged_online_replay_reproduces_apply_exactly() {
    let req = paper_request(80, 11, 4);
    let mut engine = OnlineEngine::new(req.tasks.clone(), req.cores, req.power);
    let mut plan = OnlinePlan::boot(req.tasks.clone(), req.cores, req.power);
    let events = [
        OnlineEvent::Arrive(Task::of(10.0, 30.0, 5.0)),
        OnlineEvent::Complete {
            task: 3,
            actual_work: req.tasks.get(3).wcec * 0.6,
        },
        OnlineEvent::Shift {
            task: 7,
            release: req.tasks.get(7).release + 0.2,
            deadline: req.tasks.get(7).deadline + 0.2,
        },
        OnlineEvent::Arrive(Task::of(0.5, 9.0, 2.0)),
    ];
    let mut tr = Tracer::new(Instant::now());
    for event in &events {
        let rep = engine.apply(event).unwrap();
        let staged = plan.apply(&mut tr, event);
        assert_eq!(staged.final_energy.to_bits(), rep.final_energy.to_bits());
        assert_eq!(staged.timeline_rebuilt, rep.timeline_rebuilt);
        assert_eq!(staged.der, rep.der);
    }
    assert_eq!(plan.assignment(), engine.assignment());
    assert_eq!(
        plan.final_energy().to_bits(),
        engine.final_energy().to_bits()
    );
}

#[test]
fn online_stream_is_valid_and_seed_determined() {
    let (boot, events) = workloads::online_inputs(5);
    assert_eq!(boot.len(), workloads::ONLINE_BOOT_TASKS);
    assert_eq!(events.len(), workloads::ONLINE_EVENTS);
    assert_eq!(workloads::online_inputs(5), (boot.clone(), events.clone()));
    // Seeds of one group share their inputs; other groups differ.
    assert_eq!(workloads::online_inputs(5 + SEED_GROUPS).1, events);
    assert_ne!(workloads::online_inputs(6).1, events);
    assert_ne!(workloads::online_inputs(HELD_OUT_SEED).1, events);
    let arrivals = events
        .iter()
        .filter(|e| matches!(e, OnlineEvent::Arrive(_)))
        .count();
    assert!((150..=250).contains(&arrivals), "{arrivals} arrivals");
    let mut engine = OnlineEngine::new(boot, workloads::CORES, workloads::power());
    for e in events.iter().take(60) {
        engine.apply(e).expect("the stream holds only valid events");
    }
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics_and_workloads() {
    let text =
        std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repo root");
    let bench = esched_obs::json::parse(&text).unwrap();
    let list = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let declared = |consts: &[(&str, &str)]| -> Vec<(String, String)> {
        consts
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), declared(&END_TO_END));
    assert_eq!(list("per_layer"), declared(&esched_perfbench::PER_LAYER));
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn calibration_scales_by_the_smoothed_kernel_median() {
    use esched_perfbench::calib::{reference_factors, to_reference, Calibrated, REFERENCE_MS};
    use std::time::Duration;
    // A kernel at the reference time leaves times as they are; one twice
    // as slow halves them.
    assert_eq!(to_reference(REFERENCE_MS), 1.0);
    assert_eq!(to_reference(2.0 * REFERENCE_MS), 0.5);
    // Each block takes the median of its own kernel time and four on each
    // side, so one outlying kernel run scales nothing, and a lasting
    // slowdown scales the blocks around it.
    let r = REFERENCE_MS;
    let spike = [r, r, r, r, 4.0 * r, r, r, r, r];
    assert!(reference_factors(&spike).iter().all(|&f| f == 1.0));
    let step: Vec<f64> = [r; 6].into_iter().chain([2.0 * r; 6]).collect();
    let f = reference_factors(&step);
    assert_eq!(f[0], 1.0);
    assert_eq!(f[11], 0.5);
    // Off (traced runs): no kernel runs and times pass through.
    let mut ops = Calibrated::new(false);
    ops.op(Duration::from_millis(150));
    ops.block(&[40.0, 60.0], Duration::from_millis(70));
    ops.op(Duration::from_millis(50));
    assert_eq!(ops.len(), 4);
    let (lat, measured_ms, kernels) = ops.finish();
    assert_eq!(lat, vec![150.0, 40.0, 60.0, 50.0]);
    assert!((measured_ms - 270.0).abs() < 1e-9);
    assert!(kernels.is_empty());
}
