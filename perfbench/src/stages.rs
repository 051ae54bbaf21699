//! The staged replay: the engine's per-request and per-event pipelines
//! rebuilt from the layers' public functions, one [`Tracer`] span per
//! stage.
//!
//! Each function mirrors one code path of `esched-engine` (`Engine::run`
//! for a DER request, `OnlineEngine::apply`, and a Figure 10 trial), so
//! its outputs are bit-identical to the untraced run's; the workloads
//! check that they are before reporting any per-layer number.

use crate::trace::Tracer;
use esched_core::{
    allocate, allocate_even, final_assignment, final_schedule_with, ideal_schedule,
    intermediate_schedule_with, optimal_energy_in_pool, reallocate_der_patched, AllocRequest,
    AvailMatrix, DerRepairStats, IdealSolution, NecPoint, Pool, Scratch,
    DEFAULT_PARALLEL_THRESHOLD,
};
use esched_engine::online::DEFAULT_FALLBACK_FRACTION;
use esched_engine::{OnlineEvent, ScheduleRequest};
use esched_opt::SolverKind;
use esched_sim::simulate;
use esched_subinterval::Timeline;
use esched_types::{FrequencyAssignment, PolynomialPower, Task, TaskSet};

/// Span names, one per stage; the per-layer metric of a stage is its
/// name plus `_ms`.
pub mod names {
    /// Root span of one offline request.
    pub const REQUEST: &str = "engine.request";
    /// Root span of one online event.
    pub const EVENT: &str = "engine.event";
    /// Root span of one Figure 10 trial.
    pub const TRIAL: &str = "engine.trial";
    /// Timeline build or patch.
    pub const TIMELINE: &str = "subinterval.timeline";
    /// Ideal (unlimited-core) schedule.
    pub const IDEAL: &str = "core.ideal";
    /// Availability allocation (full or patched).
    pub const ALLOCATE: &str = "core.allocate";
    /// Totals, final frequencies and analytic energy.
    pub const REFINE: &str = "core.refine";
    /// Intermediate and final schedule materialization.
    pub const MATERIALIZE: &str = "core.materialize";
    /// Convex `E^OPT` solve.
    pub const SOLVE: &str = "opt.solve";
    /// Discrete-event simulation of the final schedule.
    pub const VERIFY: &str = "sim.verify";
    /// Every stage span, in pipeline order.
    pub const STAGES: [&str; 7] = [
        TIMELINE,
        IDEAL,
        ALLOCATE,
        REFINE,
        MATERIALIZE,
        SOLVE,
        VERIFY,
    ];
}

/// What one heuristic's refine + materialize tail produced.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicParts {
    /// Final analytic energy (`E^F`).
    pub energy: f64,
    /// Intermediate schedule energy (`E^I`).
    pub intermediate_energy: f64,
    /// Segments of the final schedule.
    pub segments: usize,
    /// Segments of the intermediate schedule.
    pub intermediate_segments: usize,
    /// The final schedule (kept only when a later stage needs it).
    pub schedule: Option<esched_types::Schedule>,
}

/// CSR cells of a timeline (Σ overlap-list lengths).
fn cells(timeline: &Timeline) -> usize {
    timeline
        .subintervals()
        .iter()
        .map(|s| s.overlapping.len())
        .sum()
}

/// `build_outcome_with` split into its refine and materialize stages.
/// Like `build_outcome_with`, it consumes the allocation; the
/// materialize stage, its last user, also frees it and the intermediate
/// schedule.
#[allow(clippy::too_many_arguments)]
fn refine_and_materialize(
    tr: &mut Tracer,
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    power: &PolynomialPower,
    ideal: &IdealSolution,
    avail: AvailMatrix,
    scratch: &mut Scratch,
    keep_schedule: bool,
) -> HeuristicParts {
    let (assignment, energy) = tr.stage(names::REFINE, || {
        let total_avail = avail.totals();
        let assignment = final_assignment(tasks, &total_avail, power);
        let works: Vec<f64> = tasks.tasks().iter().map(|t| t.wcec).collect();
        let energy = assignment.energy(&works, power);
        (assignment, energy)
    });
    tr.stage(names::MATERIALIZE, || {
        let intermediate =
            intermediate_schedule_with(timeline, cores, ideal, &avail, &mut scratch.items);
        let schedule = final_schedule_with(
            tasks,
            timeline,
            cores,
            &avail,
            &assignment,
            &mut scratch.items,
            &mut scratch.scale,
        );
        let parts = HeuristicParts {
            energy,
            intermediate_energy: intermediate.energy(power),
            segments: schedule.len(),
            intermediate_segments: intermediate.len(),
            schedule: keep_schedule.then_some(schedule),
        };
        drop((avail, intermediate));
        parts
    })
}

/// Per-request outputs of the staged offline pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineStaged {
    /// The DER heuristic's outputs.
    pub der: HeuristicParts,
    /// Timeline CSR cells.
    pub cells: usize,
    /// Wall and process-CPU nanoseconds of the allocation stage, when it
    /// ran on the intra-instance pool.
    pub pool_alloc_ns: Option<(u64, u64)>,
}

/// `Engine::run` of a DER request without solver, simulator or discrete
/// stage, one span per stage. Like `Engine::run`, each request starts
/// from a fresh [`Scratch`].
pub fn offline_request(tr: &mut Tracer, req: &ScheduleRequest) -> OfflineStaged {
    let root = tr.enter(names::REQUEST);
    let scratch = &mut Scratch::new();
    let timeline = tr.stage(names::TIMELINE, || {
        Timeline::build_with(&req.tasks, &mut scratch.timeline)
    });
    let ideal = tr.stage(names::IDEAL, || ideal_schedule(&req.tasks, &req.power));
    let cfg = &req.config;
    let intra_pool = cfg.intra_parallelism.map(|_| Pool::new());
    let cpu0 = crate::sys::process_cpu_ns();
    let t0 = std::time::Instant::now();
    let avail = tr.stage(names::ALLOCATE, || {
        let mut alloc =
            AllocRequest::new(&req.tasks, &timeline, req.cores, &ideal).with_scratch(&mut *scratch);
        if let (Some(threshold), Some(pool)) = (cfg.intra_parallelism, intra_pool.as_ref()) {
            alloc = alloc.with_pool(pool).with_parallel_threshold(threshold);
        }
        allocate(alloc)
    });
    let pool_alloc_ns = intra_pool.as_ref().map(|_| {
        (
            t0.elapsed().as_nanos() as u64,
            crate::sys::process_cpu_ns() - cpu0,
        )
    });
    let der = refine_and_materialize(
        tr, &req.tasks, &timeline, req.cores, &req.power, &ideal, avail, scratch, false,
    );
    let cells = cells(&timeline);
    scratch.timeline.recycle(timeline);
    tr.exit(root);
    OfflineStaged {
        der,
        cells,
        pool_alloc_ns,
    }
}

/// Per-trial outputs of the staged Figure 10 pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialStaged {
    /// The five normalized energies.
    pub nec: NecPoint,
    /// Solver iterations.
    pub iters: usize,
    /// Solver convergence flag.
    pub converged: bool,
    /// Certified duality gap at exit.
    pub gap: f64,
    /// Simulator verdict on the DER schedule.
    pub sim_clean: bool,
    /// DER schedule segments.
    pub segments: usize,
    /// Timeline CSR cells.
    pub cells: usize,
}

/// One experiments-harness trial (DER schedule, evenly-allocating
/// normalizer, `E^OPT` solve, simulator cross-check) — the path
/// `Engine::run_batch` takes for a request configured with `solver` and
/// `sim_verify`, one span per stage.
pub fn fig10_trial(
    tr: &mut Tracer,
    scratch: &mut Scratch,
    req: &ScheduleRequest,
    solver: SolverKind,
) -> TrialStaged {
    let root = tr.enter(names::TRIAL);
    let (tasks, cores, power) = (&req.tasks, req.cores, &req.power);
    let timeline = tr.stage(names::TIMELINE, || {
        Timeline::build_with(tasks, &mut scratch.timeline)
    });
    let ideal = tr.stage(names::IDEAL, || ideal_schedule(tasks, power));
    let der_avail = tr.stage(names::ALLOCATE, || {
        allocate(AllocRequest::new(tasks, &timeline, cores, &ideal).with_scratch(&mut *scratch))
    });
    let der = refine_and_materialize(
        tr, tasks, &timeline, cores, power, &ideal, der_avail, scratch, true,
    );
    let even_avail = tr.stage(names::ALLOCATE, || allocate_even(tasks, &timeline, cores));
    let even = refine_and_materialize(
        tr, tasks, &timeline, cores, power, &ideal, even_avail, scratch, false,
    );
    let sol = tr.stage(names::SOLVE, || {
        optimal_energy_in_pool(
            tasks,
            &timeline,
            cores,
            power,
            &req.config.solve_options,
            solver,
            None,
        )
    });
    let e = sol.energy;
    let nec = NecPoint {
        ideal: ideal.energy / e,
        i1: even.intermediate_energy / e,
        f1: even.energy / e,
        i2: der.intermediate_energy / e,
        f2: der.energy / e,
        opt_energy: e,
    };
    let cells = cells(&timeline);
    scratch.timeline.recycle(timeline);
    let schedule = der.schedule.as_ref().expect("kept for simulation");
    let sim_clean = tr.stage(names::VERIFY, || {
        simulate(schedule, tasks, power).is_clean()
    });
    tr.exit(root);
    TrialStaged {
        nec,
        iters: sol.iters,
        converged: sol.telemetry.converged,
        gap: sol.gap,
        sim_clean,
        segments: der.segments,
        cells,
    }
}

/// The online engine's maintained plan, rebuilt from public functions.
#[derive(Debug)]
pub struct OnlinePlan {
    tasks: Vec<Task>,
    cores: usize,
    power: PolynomialPower,
    task_set: TaskSet,
    timeline: Timeline,
    ideal: IdealSolution,
    avail: AvailMatrix,
    assignment: FrequencyAssignment,
    final_energy: f64,
    scratch: Scratch,
}

/// What one staged online event did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventStaged {
    /// Whether the timeline patch fell back to a full build.
    pub timeline_rebuilt: bool,
    /// Column-repair statistics.
    pub der: DerRepairStats,
    /// Final analytic energy after the event.
    pub final_energy: f64,
    /// Timeline CSR cells after the event.
    pub cells: usize,
}

impl OnlinePlan {
    /// `OnlineEngine::new` (default configuration).
    pub fn boot(tasks: TaskSet, cores: usize, power: PolynomialPower) -> Self {
        let timeline = Timeline::build(&tasks);
        let ideal = ideal_schedule(&tasks, &power);
        let mut scratch = Scratch::new();
        let avail = allocate(
            AllocRequest::new(&tasks, &timeline, cores, &ideal).with_scratch(&mut scratch),
        );
        let total_avail = avail.totals();
        let assignment = final_assignment(&tasks, &total_avail, &power);
        let works: Vec<f64> = tasks.tasks().iter().map(|t| t.wcec).collect();
        let final_energy = assignment.energy(&works, &power);
        Self {
            tasks: tasks.tasks().to_vec(),
            cores,
            power,
            task_set: tasks,
            timeline,
            ideal,
            avail,
            assignment,
            final_energy,
            scratch,
        }
    }

    /// Final analytic energy of the current plan.
    pub fn final_energy(&self) -> f64 {
        self.final_energy
    }

    /// The frequency assignment of the current plan.
    pub fn assignment(&self) -> &FrequencyAssignment {
        &self.assignment
    }

    /// `OnlineEngine::apply` for a valid event, one span per stage.
    ///
    /// # Panics
    /// On an event the online engine would reject (the benchmark's
    /// streams contain none).
    pub fn apply(&mut self, tr: &mut Tracer, event: &OnlineEvent) -> EventStaged {
        let root = tr.enter(names::EVENT);
        let (dirty_task, patched) = match *event {
            OnlineEvent::Arrive(task) => {
                self.tasks.push(task);
                let id = self.tasks.len() - 1;
                self.task_set = TaskSet::new(self.tasks.clone()).expect("valid stream");
                let (timeline, task_set) = (&mut self.timeline, &self.task_set);
                let patched = tr.stage(names::TIMELINE, || timeline.rebuild_inserted(task_set, id));
                (None, patched)
            }
            OnlineEvent::Complete { task, actual_work } => {
                self.tasks[task].wcec = actual_work;
                self.task_set = TaskSet::new(self.tasks.clone()).expect("valid stream");
                (Some(task), true)
            }
            OnlineEvent::Shift {
                task,
                release,
                deadline,
            } => {
                self.tasks[task].release = release;
                self.tasks[task].deadline = deadline;
                self.task_set = TaskSet::new(self.tasks.clone()).expect("valid stream");
                let (timeline, task_set) = (&mut self.timeline, &self.task_set);
                let patched =
                    tr.stage(names::TIMELINE, || timeline.rebuild_shifted(task_set, task));
                (Some(task), patched)
            }
        };
        let (task_set, power) = (&self.task_set, &self.power);
        self.ideal = tr.stage(names::IDEAL, || ideal_schedule(task_set, power));
        let dirty: &[usize] = match &dirty_task {
            Some(id) => std::slice::from_ref(id),
            None => &[],
        };
        // The stage ends once the old allocation is replaced (and freed),
        // as in `OnlineEngine::apply`.
        let (timeline, ideal, avail, scratch) = (
            &self.timeline,
            &self.ideal,
            &mut self.avail,
            &mut self.scratch,
        );
        let der = tr.stage(names::ALLOCATE, || {
            let (patched, der) = reallocate_der_patched(
                task_set,
                timeline,
                self.cores,
                ideal,
                avail,
                dirty,
                DEFAULT_FALLBACK_FRACTION,
                None,
                DEFAULT_PARALLEL_THRESHOLD,
                scratch,
            );
            *avail = patched;
            der
        });
        let (avail, tasks) = (&self.avail, &self.tasks);
        let (assignment, final_energy) = tr.stage(names::REFINE, || {
            let total_avail = avail.totals();
            let assignment = final_assignment(task_set, &total_avail, power);
            let works: Vec<f64> = tasks.iter().map(|t| t.wcec).collect();
            let e = assignment.energy(&works, power);
            (assignment, e)
        });
        self.assignment = assignment;
        self.final_energy = final_energy;
        tr.exit(root);
        EventStaged {
            timeline_rebuilt: !patched,
            der,
            final_energy,
            cells: cells(&self.timeline),
        }
    }
}
