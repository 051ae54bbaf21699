//! The per-instance pipeline: one [`ScheduleRequest`] in, one
//! [`ScheduleOutcome`] out, all hot allocations drawn from a worker's
//! [`Scratch`].
//!
//! [`Stages`] is the paper's chain written once: [`execute`] runs its
//! front and tail, the online engine runs the tail on its maintained
//! state, and its boot and the shadow audit run the front and
//! [`refine_frequencies`]. Each stage is one [`TraceCtx::phase`]:
//! `timeline`, `ideal`, `allocate`, `refine`, `materialize`, `solve`,
//! `verify`, `discrete`.

use crate::config::{Algorithm, EngineConfig, ScheduleRequest};
use crate::outcome::{DiscreteSummary, OptSummary, ScheduleOutcome, SimVerdict};
use esched_core::{
    allocate, allocate_even, ideal_schedule, materialize_schedules, optimal_energy_in,
    quantize_schedule, refine_frequencies, AllocRequest, AvailMatrix, IdealSolution, NecPoint,
    Pool, QuantizePolicy, Scratch,
};
use esched_obs::{RequestId, RequestScope, TraceCtx};
use esched_sim::simulate;
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, Schedule, TaskSet};

/// Run the full pipeline for one request.
///
/// Panics on a malformed request (`cores == 0`); the pool catches the
/// unwind and reports the job as a failed outcome, so one bad instance
/// never takes down a batch. Each call allocates a fresh [`RequestId`] and
/// holds a [`RequestScope`] for the whole pipeline, so spans, flight
/// records, and metric events emitted anywhere below carry the request —
/// including the panic stamp a malformed request leaves in the flight
/// recorder on its way out.
pub fn execute(scratch: &mut Scratch, request: &ScheduleRequest) -> ScheduleOutcome {
    let request_id = RequestId::next();
    let _req_scope = RequestScope::enter(request_id);
    let _flight = esched_obs::flight_span!("engine_execute");
    let mut trace = TraceCtx::new(request_id);
    assert!(
        request.cores >= 1,
        "ScheduleRequest requires at least one core"
    );
    let _span = esched_obs::span!(
        esched_obs::Level::Debug,
        "engine_execute",
        n_tasks = request.tasks.len(),
        cores = request.cores,
    );
    // The intra-instance pool is only materialized when the knob is set;
    // it shares sizing rules (`ESCHED_ENGINE_THREADS`) with the batch
    // pool, and chunking keeps the outcome byte-identical either way.
    let intra_pool = request.config.intra_parallelism.map(|_| Pool::new());
    let stages = Stages::new(request, intra_pool.as_ref());
    let (timeline, ideal, avail) = stages.front(&mut trace, scratch);
    let outcome = stages.tail(trace, scratch, &timeline, &ideal, &avail);
    scratch.timeline.recycle(timeline);
    outcome
}

/// The stages of one request's pipeline.
pub(crate) struct Stages<'a> {
    tasks: &'a TaskSet,
    cores: usize,
    power: &'a PolynomialPower,
    config: &'a EngineConfig,
    /// The intra-instance allocation pool; used only when
    /// `config.intra_parallelism` is set.
    intra_pool: Option<&'a Pool>,
}

impl<'a> Stages<'a> {
    pub fn new(request: &'a ScheduleRequest, intra_pool: Option<&'a Pool>) -> Self {
        Self {
            tasks: &request.tasks,
            cores: request.cores,
            power: &request.power,
            config: &request.config,
            intra_pool,
        }
    }

    /// The front: the timeline and ideal case every later stage shares,
    /// and the configured heuristic's allocation on them.
    pub fn front(
        &self,
        trace: &mut TraceCtx,
        scratch: &mut Scratch,
    ) -> (Timeline, IdealSolution, AvailMatrix) {
        let timeline = trace.phase("timeline", || {
            Timeline::build_with(self.tasks, &mut scratch.timeline)
        });
        let ideal = trace.phase("ideal", || ideal_schedule(self.tasks, self.power));
        let avail = trace.phase("allocate", || {
            self.allocate(self.config.algorithm, &timeline, &ideal, scratch)
        });
        (timeline, ideal, avail)
    }

    /// The tail, from the configured heuristic's allocation `avail` to the
    /// assembled outcome carrying `trace`.
    pub fn tail(
        &self,
        mut trace: TraceCtx,
        scratch: &mut Scratch,
        timeline: &Timeline,
        ideal: &IdealSolution,
        avail: &AvailMatrix,
    ) -> ScheduleOutcome {
        let cfg = self.config;
        let ((intermediate_energy, energy), schedule) =
            self.refine_and_materialize(&mut trace, scratch, timeline, ideal, avail);
        let (opt, nec, opt_x) = match cfg.solver {
            Some(kind) => {
                // NEC normalizes *both* heuristics, so run the one not
                // chosen as well.
                let other_algorithm = match cfg.algorithm {
                    Algorithm::Der => Algorithm::Even,
                    Algorithm::Even => Algorithm::Der,
                };
                let other_avail = trace.phase("allocate", || {
                    self.allocate(other_algorithm, timeline, ideal, scratch)
                });
                let (other, _) =
                    self.refine_and_materialize(&mut trace, scratch, timeline, ideal, &other_avail);
                let ((i1, f1), (i2, f2)) = match cfg.algorithm {
                    Algorithm::Der => (other, (intermediate_energy, energy)),
                    Algorithm::Even => ((intermediate_energy, energy), other),
                };
                let sol = trace.phase("solve", || {
                    optimal_energy_in(
                        self.tasks,
                        timeline,
                        self.cores,
                        self.power,
                        &cfg.solve_options,
                        kind,
                    )
                });
                let e = sol.energy;
                let nec = NecPoint {
                    ideal: ideal.energy / e,
                    i1: i1 / e,
                    f1: f1 / e,
                    i2: i2 / e,
                    f2: f2 / e,
                    opt_energy: e,
                };
                let opt = OptSummary {
                    solver: kind.name(),
                    energy: sol.energy,
                    gap: sol.gap,
                    iters: sol.iters,
                    converged: sol.telemetry.converged,
                    telemetry: cfg.telemetry.then_some(sol.telemetry),
                };
                (Some(opt), Some(nec), Some(sol.x))
            }
            None => (None, None, None),
        };
        let sim = cfg.sim_verify.then(|| {
            let report = trace.phase("verify", || simulate(&schedule, self.tasks, self.power));
            SimVerdict {
                clean: report.is_clean(),
                deadline_misses: report.deadline_misses.len(),
                conflicts: report.conflicts.len(),
                energy: report.energy,
            }
        });
        let discrete = cfg.discrete.as_ref().map(|table| {
            let policy = QuantizePolicy::NextUp;
            let out = trace.phase("discrete", || quantize_schedule(&schedule, table, policy));
            DiscreteSummary {
                energy: out.energy,
                misses: out.misses.len(),
                feasible: out.feasible,
            }
        });
        ScheduleOutcome {
            algorithm: cfg.algorithm,
            energy,
            intermediate_energy,
            schedule,
            nec,
            opt,
            opt_x,
            sim,
            discrete,
            trace: cfg.telemetry.then_some(trace),
        }
    }

    /// Available time for `algorithm` on the shared timeline and ideal
    /// case; DER fans out on the intra-instance pool when configured.
    fn allocate(
        &self,
        algorithm: Algorithm,
        timeline: &Timeline,
        ideal: &IdealSolution,
        scratch: &mut Scratch,
    ) -> AvailMatrix {
        match algorithm {
            Algorithm::Even => allocate_even(self.tasks, timeline, self.cores),
            Algorithm::Der => {
                let mut request = AllocRequest::new(self.tasks, timeline, self.cores, ideal)
                    .with_scratch(scratch);
                if let (Some(threshold), Some(pool)) =
                    (self.config.intra_parallelism, self.intra_pool)
                {
                    request = request.with_pool(pool).with_parallel_threshold(threshold);
                }
                allocate(request)
            }
        }
    }

    /// Refine and materialize one allocation: `((E^I, E^F), S^F)`.
    fn refine_and_materialize(
        &self,
        trace: &mut TraceCtx,
        scratch: &mut Scratch,
        timeline: &Timeline,
        ideal: &IdealSolution,
        avail: &AvailMatrix,
    ) -> ((f64, f64), Schedule) {
        let (assignment, final_energy) = trace.phase("refine", || {
            refine_frequencies(self.tasks, avail, self.power)
        });
        let (intermediate_energy, schedule) = trace.phase("materialize", || {
            // Only `E^I` is kept: `S^I` is freed inside the phase.
            let (_, intermediate_energy, schedule) = materialize_schedules(
                self.tasks,
                timeline,
                self.cores,
                self.power,
                ideal,
                avail,
                &assignment,
                scratch,
            );
            (intermediate_energy, schedule)
        });
        ((intermediate_energy, final_energy), schedule)
    }
}
