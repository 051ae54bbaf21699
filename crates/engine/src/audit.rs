//! Energy-regret shadow audit for the online engine.
//!
//! A live [`OnlineEngine`](crate::OnlineEngine) keeps its plan bit-identical
//! to the offline pipeline — but "identical to the heuristic" says nothing
//! about "close to optimal". The paper's convex program gives a principled
//! yardstick: E^OPT, the optimal-energy lower bound the DER heuristic is
//! scored against (the same reference MORA-style slack reclamation uses).
//! The shadow audit samples the live stream — every
//! [`AuditConfig::every`] applied events — and re-certifies the plan *off
//! the hot path*:
//!
//! 1. **Divergence check**: replay the from-scratch offline pipeline
//!    (timeline build → ideal case → DER water-filling → final assignment)
//!    on a snapshot of the live task set and compare its `E^{F2}` against
//!    the engine's maintained energy *bit-for-bit*. Any mismatch means the
//!    incremental state has silently drifted — the one failure mode the
//!    byte-identity tests cannot catch in production.
//! 2. **Energy regret**: solve the convex program (warm-started from the
//!    previous audit's per-task totals via
//!    [`EnergyProgram::warm_start_from_totals`]) and publish
//!    `esched.online.energy_regret` = (live − E^OPT) / E^OPT.
//!
//! Results flow into the stream's [`HealthMonitor`], where the
//! [`SloPolicy`](esched_obs::SloPolicy) regret ceiling and the
//! always-armed divergence check turn silent plan-quality drift into
//! latched, alertable `HealthEvent`s.
//!
//! The audit runs on a dedicated background worker thread (one per
//! auditor, at most one job in flight — an audit that would overlap a
//! still-running one is *skipped* and counted under
//! `esched.online.audits_skipped`, keeping the sampler strictly
//! non-blocking). [`AuditConfig::synchronous`] runs jobs inline on the
//! caller instead, which tests use for determinism.

use esched_core::{allocate, final_assignment, ideal_schedule, AllocRequest, Scratch};
use esched_obs::health::HealthMonitor;
use esched_opt::{EnergyProgram, SolveOptions, SolverKind};
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, TaskSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Configuration of the energy-regret shadow audit.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Audit every `every`-th applied event (`0` disables periodic
    /// sampling; [`OnlineEngine::force_audit`](crate::OnlineEngine::force_audit)
    /// still works).
    pub every: u64,
    /// Solver used to recompute E^OPT.
    pub solver: SolverKind,
    /// Options for the E^OPT solve (warm starts are layered on top).
    pub solve_options: SolveOptions,
    /// Replay the offline pipeline and flag any bitwise energy mismatch.
    pub divergence_check: bool,
    /// Run audits inline on the caller instead of the background worker.
    /// Deterministic, but puts the solve on the hot path — tests only.
    pub synchronous: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            every: 64,
            solver: SolverKind::default(),
            solve_options: SolveOptions::default(),
            divergence_check: true,
            synchronous: false,
        }
    }
}

impl AuditConfig {
    /// Set the sampling period (audit every `every`-th event).
    pub fn with_every(mut self, every: u64) -> Self {
        self.every = every;
        self
    }

    /// Select the E^OPT solver.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Replace the solve options.
    pub fn with_solve_options(mut self, opts: SolveOptions) -> Self {
        self.solve_options = opts;
        self
    }

    /// Enable or disable the offline-pipeline divergence check.
    pub fn with_divergence_check(mut self, on: bool) -> Self {
        self.divergence_check = on;
        self
    }

    /// Run audits inline on the caller (deterministic; tests only).
    pub fn with_synchronous(mut self, on: bool) -> Self {
        self.synchronous = on;
        self
    }
}

/// One audit job: an immutable snapshot of the live plan.
struct AuditJob {
    tasks: TaskSet,
    cores: usize,
    power: PolynomialPower,
    live_energy: f64,
}

/// State shared between the sampler side and the audit worker.
struct AuditShared {
    monitor: Arc<HealthMonitor>,
    solver: SolverKind,
    solve_options: SolveOptions,
    divergence_check: bool,
    /// Warm-start carrier between audits (same trick as online
    /// re-certification): per-task totals `X_i` of the previous audit's
    /// optimum, remapped onto the new layout via
    /// [`EnergyProgram::warm_start_from_totals`].
    warm_totals: Mutex<Option<Vec<f64>>>,
    /// Multiplier applied to the live energy before computing regret.
    /// `0.0` in production; fault-injection tests raise it to simulate a
    /// quality regression without perturbing the actual plan.
    inflation_bits: AtomicU64,
}

impl AuditShared {
    fn inflation(&self) -> f64 {
        f64::from_bits(self.inflation_bits.load(Ordering::Relaxed))
    }

    /// Run one audit job to completion and publish to the monitor.
    fn run(&self, job: &AuditJob) {
        let _flight = esched_obs::flight_span!("shadow_audit_job");
        // From-scratch offline replay: must land on the live energy bits.
        let timeline = Timeline::build(&job.tasks);
        let ideal = ideal_schedule(&job.tasks, &job.power);
        let mut scratch = Scratch::new();
        let avail = allocate(
            AllocRequest::new(&job.tasks, &timeline, job.cores, &ideal).with_scratch(&mut scratch),
        );
        let totals = avail.totals();
        let assignment = final_assignment(&job.tasks, &totals, &job.power);
        let works: Vec<f64> = job.tasks.tasks().iter().map(|t| t.wcec).collect();
        let offline_energy = assignment.energy(&works, &job.power);
        let diverged =
            self.divergence_check && offline_energy.to_bits() != job.live_energy.to_bits();

        // E^OPT, warm-started from the previous audit when the task count
        // still matches (arrivals grow the set between audits).
        let ep = EnergyProgram::new(&job.tasks, &timeline, job.cores, job.power);
        let mut warm = self.warm_totals.lock().unwrap_or_else(|e| e.into_inner());
        let opts = match warm.as_ref() {
            Some(totals) if totals.len() == job.tasks.len() => self
                .solve_options
                .clone()
                .with_warm_start(ep.warm_start_from_totals(totals)),
            _ => self.solve_options.clone(),
        };
        let sol = self.solver.solve(&ep, &opts);
        *warm = Some(ep.total_times(&sol.x));
        drop(warm);

        let e_opt = sol.objective;
        let live = job.live_energy * (1.0 + self.inflation());
        let regret = if e_opt > 0.0 && e_opt.is_finite() {
            (live - e_opt) / e_opt
        } else {
            0.0
        };
        self.monitor.observe_audit(regret, diverged);
    }
}

/// The sampled background auditor. Owned by the engine; dropping it shuts
/// the worker down (the channel closes and the thread drains and exits).
pub struct ShadowAuditor {
    every: u64,
    shared: Arc<AuditShared>,
    /// True while a job is in flight on the worker; offers are dropped
    /// (and counted) rather than queued behind it.
    pending: Arc<AtomicBool>,
    tx: Option<mpsc::Sender<AuditJob>>,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ShadowAuditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowAuditor")
            .field("every", &self.every)
            .field("synchronous", &self.tx.is_none())
            .finish_non_exhaustive()
    }
}

impl ShadowAuditor {
    /// Build an auditor publishing into `monitor`. Spawns the background
    /// worker unless [`AuditConfig::synchronous`] is set.
    pub fn new(cfg: &AuditConfig, monitor: Arc<HealthMonitor>) -> Self {
        let shared = Arc::new(AuditShared {
            monitor,
            solver: cfg.solver,
            solve_options: cfg.solve_options.clone(),
            divergence_check: cfg.divergence_check,
            warm_totals: Mutex::new(None),
            inflation_bits: AtomicU64::new(0.0f64.to_bits()),
        });
        let pending = Arc::new(AtomicBool::new(false));
        let (tx, worker) = if cfg.synchronous {
            (None, None)
        } else {
            let (tx, rx) = mpsc::channel::<AuditJob>();
            let shared2 = Arc::clone(&shared);
            let pending2 = Arc::clone(&pending);
            let handle = std::thread::Builder::new()
                .name("esched-audit".into())
                .spawn(move || {
                    for job in rx {
                        shared2.run(&job);
                        pending2.store(false, Ordering::Release);
                    }
                })
                .expect("spawn audit worker");
            (Some(tx), Some(handle))
        };
        Self {
            every: cfg.every,
            shared,
            pending,
            tx,
            worker,
        }
    }

    /// Whether the `n`-th applied event should trigger an audit.
    pub fn due(&self, events_seen: u64) -> bool {
        self.every > 0 && events_seen.is_multiple_of(self.every)
    }

    /// Set the fault-injection energy multiplier: regret is computed from
    /// `live_energy * (1 + inflation)`. Production value is `0.0`.
    pub fn set_energy_inflation(&self, inflation: f64) {
        self.shared
            .inflation_bits
            .store(inflation.to_bits(), Ordering::Relaxed);
    }

    /// Offer a sampled job. Non-blocking: if the worker is busy, the job
    /// is dropped and `esched.online.audits_skipped` incremented. In
    /// synchronous mode the job runs inline instead.
    fn offer(&self, job: AuditJob) {
        match &self.tx {
            None => self.shared.run(&job),
            Some(tx) => {
                if self.pending.swap(true, Ordering::AcqRel) {
                    esched_obs::metric_counter!("esched.online.audits_skipped").inc();
                    return;
                }
                if tx.send(job).is_err() {
                    // Worker died (only on panic); surface as a skip.
                    self.pending.store(false, Ordering::Release);
                    esched_obs::metric_counter!("esched.online.audits_skipped").inc();
                }
            }
        }
    }

    /// Offer a sampled audit of the given plan snapshot (non-blocking).
    pub(crate) fn offer_snapshot(
        &self,
        tasks: &TaskSet,
        cores: usize,
        power: PolynomialPower,
        live_energy: f64,
    ) {
        self.offer(AuditJob {
            tasks: tasks.clone(),
            cores,
            power,
            live_energy,
        });
    }

    /// Run one audit inline on the calling thread, bypassing the sampler
    /// and the busy check. Blocking and deterministic.
    pub(crate) fn force(
        &self,
        tasks: &TaskSet,
        cores: usize,
        power: PolynomialPower,
        live_energy: f64,
    ) {
        self.shared.run(&AuditJob {
            tasks: tasks.clone(),
            cores,
            power,
            live_energy,
        });
    }
}

impl Drop for ShadowAuditor {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}
