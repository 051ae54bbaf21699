//! Monte-Carlo driver shared by every experiment.
//!
//! Each figure point is the mean of `trials` independent task sets
//! (the paper uses 100). Trials are submitted as one batch to the
//! `esched-engine` work-stealing pool; the per-trial seed is
//! `base_seed + trial_index` and the engine indexes results by
//! submission order, so results are bit-identical regardless of worker
//! count or interleaving.
//!
//! The NEC sweep experiments (fig6–fig10) are all instances of one
//! generic [`ExperimentSpec`]: a list of [`SweepPoint`]s (platform +
//! workload distribution per x value) plus presentation labels. Each fig
//! module now only declares its spec; the run/report plumbing lives here
//! once.

use crate::report::{nec_csv_with_std, nec_table, write_artifact};
use esched_core::{mean_nec, NecPoint, Pool};
use esched_engine::{Engine, EngineConfig, ScheduleRequest};
use esched_obs::{RunReport, TrialRecord, Value};
use esched_opt::{SolveOptions, SolverKind};
use esched_types::PolynomialPower;
use esched_workload::{GeneratorConfig, WorkloadGenerator};
use std::path::Path;

/// One experiment setting: a platform plus a workload distribution.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpec {
    /// Number of cores.
    pub cores: usize,
    /// Platform power model.
    pub power: PolynomialPower,
    /// Workload distribution.
    pub config: GeneratorConfig,
    /// Monte-Carlo repetitions.
    pub trials: usize,
    /// Base RNG seed; trial `k` uses `base_seed + k`.
    pub base_seed: u64,
}

/// Per-trial warm-start seeds harvested from the previous sweep point,
/// keyed by the `(n, m)` shape they were solved under. Sweep experiments
/// vary a platform parameter while reusing the same `base_seed`, so trial
/// `k` at point `p+1` is the *same task set* as trial `k` at point `p`
/// under slightly different power — the previous optimum is one projection
/// away from the new one. A key or dimension mismatch (e.g. fig10's task
/// count sweep) simply falls back to the cold start inside the solver.
#[derive(Debug, Clone, Default)]
pub struct WarmSeeds {
    /// `(n_tasks, cores)` the seeds were solved under.
    key: (usize, usize),
    /// Trial-indexed final iterates of the previous point's solves.
    by_trial: Vec<Option<Vec<f64>>>,
}

impl WarmSeeds {
    fn seed_for(&self, spec: &TrialSpec, trial: usize) -> Option<Vec<f64>> {
        if self.key != (spec.config.tasks, spec.cores) {
            return None;
        }
        self.by_trial.get(trial)?.clone()
    }
}

/// Build the engine requests for a spec's trials: trial `k` gets the task
/// set generated from `base_seed + k` and a full-battery pipeline (DER
/// schedule, fast `E^OPT` solve for NEC, optional sim cross-check).
/// `warm` carries the previous sweep point's solutions; seeding happens
/// here, at submission time, so results stay bit-identical regardless of
/// worker count.
fn trial_requests(spec: &TrialSpec, sim_verify: bool, warm: &WarmSeeds) -> Vec<ScheduleRequest> {
    let config = EngineConfig::new()
        .with_solver(SolverKind::ProjectedGradient)
        .with_solve_options(SolveOptions::fast())
        .with_sim_verify(sim_verify);
    (0..spec.trials)
        .map(|k| {
            let mut gen = WorkloadGenerator::new(spec.config, spec.base_seed + k as u64);
            let mut config = config.clone();
            config.solve_options.warm_start = warm.seed_for(spec, k);
            ScheduleRequest {
                tasks: gen.generate(),
                cores: spec.cores,
                power: spec.power,
                config,
            }
        })
        .collect()
}

/// Mean NEC over the spec's trials (engine batch).
pub fn mean_nec_for(spec: &TrialSpec) -> NecPoint {
    nec_stats_for(spec).0
}

/// `(mean, sample std)` of the NEC over the spec's trials (engine batch).
pub fn nec_stats_for(spec: &TrialSpec) -> (NecPoint, NecPoint) {
    let outcomes = Engine::new().run_batch(&trial_requests(spec, false, &WarmSeeds::default()));
    let points: Vec<NecPoint> = outcomes
        .into_iter()
        .map(|r| {
            r.expect("trial pipeline panicked")
                .nec
                .expect("solver configured")
        })
        .collect();
    (mean_nec(&points), esched_core::std_nec(&points))
}

/// [`nec_stats_for`] that also appends one [`TrialRecord`] per trial to
/// `report`: convex-solver telemetry (iterations, gap evaluations, wall
/// time, certified gap), a clean-sim verdict from simulating the `S^F2`
/// schedule, and the trial's F2 NEC. `point` labels which sweep setting
/// the trials belong to (e.g. `"p0=0.10"`).
pub fn nec_stats_reported(
    spec: &TrialSpec,
    point: &str,
    report: &mut RunReport,
) -> (NecPoint, NecPoint) {
    let mut warm = WarmSeeds::default();
    nec_stats_warmed(spec, point, report, &mut warm)
}

/// [`nec_stats_reported`] that additionally reads warm-start seeds from
/// `warm` (the previous sweep point's solutions) and replaces them with
/// this point's solutions on return — the chaining primitive behind
/// [`ExperimentSpec::run_stats_reported`].
pub fn nec_stats_warmed(
    spec: &TrialSpec,
    point: &str,
    report: &mut RunReport,
    warm: &mut WarmSeeds,
) -> (NecPoint, NecPoint) {
    let outcomes = Engine::new().run_batch(&trial_requests(spec, true, warm));
    warm.key = (spec.config.tasks, spec.cores);
    warm.by_trial.clear();
    warm.by_trial.resize(outcomes.len(), None);
    let mut points: Vec<NecPoint> = Vec::with_capacity(outcomes.len());
    let base = report.trials.len() as u64;
    for (k, result) in outcomes.into_iter().enumerate() {
        let mut outcome = result.expect("trial pipeline panicked");
        warm.by_trial[k] = outcome.opt_x.take();
        let nec = outcome.nec.expect("solver configured");
        let opt = outcome.opt.as_ref().expect("solver configured");
        let t = opt.telemetry.expect("telemetry enabled by default");
        let seed = spec.base_seed + k as u64;
        let mut rec = TrialRecord::new(base + k as u64, seed);
        rec.solver_iters = t.iters as u64;
        rec.gap_evals = t.gap_evals as u64;
        rec.converged = t.converged;
        rec.final_gap = t.final_gap;
        rec.solve_wall_s = t.wall_s;
        rec.sim_clean = outcome.sim.map(|s| s.clean);
        rec.extra
            .push(("point".to_string(), Value::Str(point.to_string())));
        rec.extra.push(("nec_f2".to_string(), Value::Num(nec.f2)));
        report.push(rec);
        points.push(nec);
    }
    (mean_nec(&points), esched_core::std_nec(&points))
}

/// One x value of a sweep experiment: its labels plus the platform and
/// workload distribution to draw trials from.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// x-axis label in tables and CSVs (e.g. `"0.10"`, `"[0.3,1]"`).
    pub x: String,
    /// The `point` tag written into each trial record (e.g. `"p0=0.10"`).
    pub tag: String,
    /// Number of cores.
    pub cores: usize,
    /// Platform power model.
    pub power: PolynomialPower,
    /// Workload distribution.
    pub config: GeneratorConfig,
}

/// A whole NEC sweep experiment (one figure): presentation labels plus
/// the sweep points. The run/report driver shared by fig6–fig10.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Short name: the [`RunReport`] name and the CSV file stem
    /// (e.g. `"fig6"`).
    pub name: &'static str,
    /// x column label in the printed table.
    pub table_x: &'static str,
    /// x column label in the CSV (usually equals `table_x`).
    pub csv_x: &'static str,
    /// Title up to (but excluding) the trailing `", {trials} trials)"`.
    pub title: &'static str,
    /// The swept settings, in x order.
    pub points: Vec<SweepPoint>,
}

impl ExperimentSpec {
    /// Run every point's trials through the engine; returns
    /// `(x labels, mean rows, std rows, per-trial report)`.
    pub fn run_stats_reported(
        &self,
        trials: usize,
        base_seed: u64,
    ) -> (Vec<String>, Vec<NecPoint>, Vec<NecPoint>, RunReport) {
        let mut report = RunReport::new(self.name)
            .with_meta("trials_per_point", Value::Num(trials as f64))
            .with_meta("base_seed", Value::Num(base_seed as f64));
        let mut xs = Vec::new();
        let mut rows = Vec::new();
        let mut stds = Vec::new();
        // Seed every point's solves from the previous point's solutions:
        // sweep neighbors share task sets (same base_seed), so the
        // previous optimum is a near-feasible guess for the next solve.
        let mut warm = WarmSeeds::default();
        for point in &self.points {
            let spec = TrialSpec {
                cores: point.cores,
                power: point.power,
                config: point.config,
                trials,
                base_seed,
            };
            xs.push(point.x.clone());
            let (mean, std) = nec_stats_warmed(&spec, &point.tag, &mut report, &mut warm);
            rows.push(mean);
            stds.push(std);
        }
        (xs, rows, stds, report)
    }

    /// Run the sweep; returns `(x labels, mean rows, std rows)`.
    pub fn run_stats(
        &self,
        trials: usize,
        base_seed: u64,
    ) -> (Vec<String>, Vec<NecPoint>, Vec<NecPoint>) {
        let (xs, rows, stds, _) = self.run_stats_reported(trials, base_seed);
        (xs, rows, stds)
    }

    /// Run the sweep; returns `(x labels, mean rows)`.
    pub fn run(&self, trials: usize, base_seed: u64) -> (Vec<String>, Vec<NecPoint>) {
        let (xs, rows, _) = self.run_stats(trials, base_seed);
        (xs, rows)
    }

    /// Run, render the table, and write `<name>.csv` plus the run report
    /// to `outdir`.
    pub fn run_and_report(&self, trials: usize, base_seed: u64, outdir: &Path) -> String {
        let (xs, rows, stds, report) = self.run_stats_reported(trials, base_seed);
        let table = nec_table(self.table_x, &xs, &rows);
        let _ = write_artifact(
            outdir,
            &format!("{}.csv", self.name),
            &nec_csv_with_std(self.csv_x, &xs, &rows, &stds),
        );
        let _ = report.write_to_dir(outdir);
        format!("{}, {trials} trials)\n{table}", self.title)
    }
}

/// Run a closure once per trial on the work-stealing [`Pool`] and collect
/// the results in trial order — for experiments that measure more than
/// NEC (e.g. deadline misses). A panicking trial re-panics here.
pub fn per_trial<T: Send>(
    config: GeneratorConfig,
    trials: usize,
    base_seed: u64,
    f: impl Fn(u64, esched_types::TaskSet) -> T + Sync,
) -> Vec<T> {
    let seeds: Vec<u64> = (0..trials as u64).map(|k| base_seed + k).collect();
    Pool::new()
        .batch_map_with(
            || (),
            seeds,
            |_, seed| f(seed, WorkloadGenerator::new(config, seed).generate()),
        )
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("trial {}: {e}", base_seed + e.index as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_nec_is_deterministic_and_sane() {
        let spec = TrialSpec {
            cores: 4,
            power: PolynomialPower::paper(3.0, 0.1),
            config: GeneratorConfig::paper_default().with_tasks(8),
            trials: 4,
            base_seed: 99,
        };
        let a = mean_nec_for(&spec);
        let b = mean_nec_for(&spec);
        assert_eq!(a, b);
        // NECs of heuristics ≥ ~1.
        assert!(a.f2 >= 0.999, "f2 = {}", a.f2);
        assert!(a.f1 >= 0.999, "f1 = {}", a.f1);
        assert!(a.i1 >= a.f1 - 1e-9);
        assert!(a.i2 >= a.f2 - 1e-9);
    }

    #[test]
    fn per_trial_passes_distinct_seeds() {
        let seeds = per_trial(
            GeneratorConfig::paper_default().with_tasks(3),
            5,
            1000,
            |seed, _tasks| seed,
        );
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1000, 1001, 1002, 1003, 1004]);
    }
}
