//! The four named workloads: inputs from a seed, the untraced run that
//! yields the end-to-end metrics, the traced replay that yields the
//! per-layer metrics, and the output checks.

use crate::calib::{self, Calibrated};
use crate::layers::{per_layer_metrics, LayerInputs};
use crate::pins::{Pins, FIG10_NEC_RTOL};
use crate::stages::{self, OnlinePlan};
use crate::stats::{median, min_samples_for, percentile};
use crate::trace::{Span, Tracer};
use crate::{sys, Metric, Report, Tally};
use esched_core::{ideal_schedule, DEFAULT_PARALLEL_THRESHOLD};
use esched_engine::{Engine, EngineConfig, OnlineEngine, OnlineEvent, ScheduleRequest};
use esched_experiments::fig10;
use esched_experiments::harness::ExperimentSpec;
use esched_obs::json::ToJson;
use esched_obs::recorder::{self, FlightKind};
use esched_obs::rng::ChaCha8;
use esched_obs::{TrialRecord, Value};
use esched_opt::{SolveOptions, SolverKind};
use esched_sim::simulate;
use esched_types::{PolynomialPower, TaskSet};
use esched_workload::{WorkloadGenerator, WorkloadSpec};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Cores of the offline and online workloads.
pub const CORES: usize = 8;
/// Seed groups reachable from ordinary `--seed` values (`seed % 8`).
pub const SEED_GROUPS: u64 = 8;
/// The held-out seed: it alone maps to group [`SEED_GROUPS`], so no
/// tuning run sees its inputs.
pub const HELD_OUT_SEED: u64 = 2014;
/// Events per online epoch; each epoch replays the same stream from a
/// fresh boot. One epoch alone holds the p99 sample floor
/// (`min_samples_for(990)`), so the tail is made of distinct events.
pub const ONLINE_EVENTS: usize = 1000;
/// Tasks the online engine boots with.
pub const ONLINE_BOOT_TASKS: usize = 1024;
/// Figure 10 trials per point (the paper's 100).
pub const FIG10_TRIALS: usize = 100;
/// Solver the experiments harness uses for `E^OPT`.
pub const FIG10_SOLVER: &str = "pgd";
/// Offline requests that must pass the simulator energy check.
pub const SIM_ENERGY_RTOL: f64 = 1e-9;
/// Upper bound on one run's measuring, whatever the sample floor asks.
const MEASURE_CAP: Duration = Duration::from_secs(90);

/// Power model of the offline and online workloads.
pub fn power() -> PolynomialPower {
    PolynomialPower::paper(3.0, 0.1)
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Default-config DER requests, paper workload, n = 1024, m = 8.
    OfflinePaper1024,
    /// DER requests on `WorkloadSpec::large_n(65_536)`, m = 8, with
    /// intra-instance parallelism.
    OfflineLargeN65k,
    /// Online event stream over a paper n = 1024, m = 8 boot.
    OnlinePaper1024,
    /// The Figure 10 sweep at 100 trials per point.
    PaperFig10,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::OfflinePaper1024,
        Workload::OfflineLargeN65k,
        Workload::OnlinePaper1024,
        Workload::PaperFig10,
    ];

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflinePaper1024 => "offline_paper_1024",
            Workload::OfflineLargeN65k => "offline_large_n_65k",
            Workload::OnlinePaper1024 => "online_paper_1024",
            Workload::PaperFig10 => "paper_fig10",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed tail percentile (per-mille) `latency_tail_ms` reports.
    pub fn tail_permille(self) -> u32 {
        match self {
            Workload::OfflinePaper1024 | Workload::OfflineLargeN65k => 750,
            Workload::OnlinePaper1024 => 990,
            Workload::PaperFig10 => 950,
        }
    }

    /// Cold set-ups per run, each in a fresh child process; `setup_s` is
    /// their median. The cheap set-ups (tens of milliseconds) take more.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::OfflinePaper1024 | Workload::OfflineLargeN65k => 9,
            Workload::OnlinePaper1024 | Workload::PaperFig10 => 21,
        }
    }

    /// Whether untraced times are scaled to the reference host speed:
    /// the calibration kernel tracks memory-bound work, not the
    /// solver-bound Figure 10 batch (see [`calib`]).
    pub fn calibrated(self) -> bool {
        self != Workload::PaperFig10
    }

    /// Distinct instances one offline run cycles through.
    pub fn instances_per_run(self) -> u64 {
        match self {
            Workload::OfflinePaper1024 => 4,
            Workload::OfflineLargeN65k => 3,
            _ => 0,
        }
    }
}

/// The seed group of a `--seed` value.
pub fn seed_group(seed: u64) -> u64 {
    if seed == HELD_OUT_SEED {
        SEED_GROUPS
    } else {
        seed % SEED_GROUPS
    }
}

/// Every seed group, held-out included.
pub fn all_groups() -> std::ops::RangeInclusive<u64> {
    0..=SEED_GROUPS
}

/// How one run measures.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The `--seed` argument.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced replay (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out_dir: Option<PathBuf>,
}

/// Run `workload` and report.
pub fn run(workload: Workload, opts: &RunOptions) -> Report {
    if !opts.trace && workload.calibrated() {
        // Map the kernel's buffer before anything else, so it is resident
        // at every moment the peak resident memory could be reached.
        calib::kernel_ms();
    }
    match workload {
        Workload::OfflinePaper1024 | Workload::OfflineLargeN65k => run_offline(workload, opts),
        Workload::OnlinePaper1024 => run_online(opts),
        Workload::PaperFig10 => run_fig10(opts),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a fold of output bits, the fingerprint a set-up reports.
fn fold(bits: impl IntoIterator<Item = u64>) -> u64 {
    bits.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One cold set-up of `workload` for `seed`, meant to run first thing in
/// a fresh process: the inputs are built untimed, then the set-up is
/// timed. Offline: `Engine::new()` and the first request. Online: the
/// `OnlineEngine::new` boot, which plans the boot set. Figure 10: trial
/// generation, engine construction and the first point's batch.
/// Returns the seconds and a fingerprint of the set-up's output (0 when
/// it failed), which the run compares with its own.
pub fn cold_setup(workload: Workload, seed: u64) -> (f64, u64) {
    let group = seed_group(seed);
    match workload {
        Workload::OfflinePaper1024 | Workload::OfflineLargeN65k => {
            let req = offline_request(workload, offline_instances(workload, group)[0]);
            let t = Instant::now();
            let engine = Engine::new();
            let out = engine.run(&req);
            let d = t.elapsed();
            (
                d.as_secs_f64(),
                out.map_or(0, |o| fold([o.energy.to_bits()])),
            )
        }
        Workload::OnlinePaper1024 => {
            let (boot, _) = online_inputs(seed);
            let t = Instant::now();
            let engine = OnlineEngine::new(boot, CORES, power());
            let d = t.elapsed();
            (d.as_secs_f64(), fold([engine.final_energy().to_bits()]))
        }
        Workload::PaperFig10 => {
            let first_point = ExperimentSpec {
                points: fig10::spec().points[..1].to_vec(),
                ..fig10::spec()
            };
            let t = Instant::now();
            let (_, _, _, report) =
                first_point.run_stats_reported(FIG10_TRIALS, fig10_base_seed(group));
            let d = t.elapsed();
            let print = fold(report.trials.iter().map(|r| nec_f2_of(r).to_bits()));
            (d.as_secs_f64(), print)
        }
    }
}

/// Cold set-ups for `setup_s`, each timed by [`cold_setup`] in a fresh
/// child process (this executable with `--cold-setup`) and scaled to the
/// reference host speed by a calibration kernel run right after it. They
/// are spread evenly over the measuring budget; the run's own set-up
/// stays untimed.
struct ColdSetups {
    workload: Workload,
    seed: u64,
    budget: Duration,
    reps: usize,
    secs: Vec<f64>,
    prints: Vec<u64>,
}

impl ColdSetups {
    /// [`Workload::setup_reps`] set-ups over the budget; none for a
    /// traced run.
    fn new(workload: Workload, opts: &RunOptions) -> Self {
        Self {
            workload,
            seed: opts.seed,
            budget: Duration::from_secs_f64(opts.seconds),
            reps: if opts.trace { 0 } else { workload.setup_reps() },
            secs: Vec::new(),
            prints: Vec::new(),
        }
    }

    /// Run every set-up due once `spent` of the budget is measured.
    fn catch_up(&mut self, spent: Duration, tally: &mut Tally) {
        while self.prints.len() < self.reps {
            let due = self
                .budget
                .mul_f64(self.prints.len() as f64 / self.reps as f64);
            if spent < due {
                break;
            }
            tally.attempt();
            match self.in_child() {
                Ok((secs, print)) => {
                    let scale = if self.workload.calibrated() {
                        calib::to_reference(calib::kernel_ms())
                    } else {
                        1.0
                    };
                    self.secs.push(secs * scale);
                    self.prints.push(print);
                }
                Err(why) => {
                    tally.fail(1, format!("cold set-up: {why}"));
                    self.prints.push(0);
                }
            }
        }
    }

    fn in_child(&self) -> Result<(f64, u64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let out = Command::new(exe)
            .args(["--cold-setup", self.workload.name()])
            .args(["--seed", &self.seed.to_string()])
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = stdout.lines().last().and_then(|line| {
            let (secs, print) = line.split_once(' ')?;
            Some((secs.parse().ok()?, print.parse().ok()?))
        });
        match parsed {
            Some(r) if out.status.success() => Ok(r),
            _ => Err(format!(
                "child exited with {} and printed {stdout:?}",
                out.status
            )),
        }
    }

    /// Run the set-ups still due, check each fingerprint against the
    /// run's own output of the same set-up, and return the median seconds (0 when
    /// none ran).
    fn finish(mut self, expected: Option<u64>, tally: &mut Tally) -> f64 {
        self.catch_up(Duration::MAX, tally);
        let mismatched = self
            .prints
            .iter()
            .filter(|&&p| p != 0 && Some(p) != expected)
            .count();
        if mismatched > 0 {
            tally.fail(
                mismatched as u64,
                "cold set-up output differs from the run's own",
            );
        }
        if self.secs.is_empty() {
            0.0
        } else {
            median(&self.secs)
        }
    }
}

/// Whether a measuring loop may stop: the time budget is spent and the
/// tail percentile has enough samples — or the hard cap is hit.
fn done(spent: Duration, budget: Duration, ops: usize, min_ops: usize, started: Instant) -> bool {
    (spent >= budget && ops >= min_ops) || started.elapsed() >= MEASURE_CAP
}

/// Peak resident memory of the workload, MiB: the process's peak less
/// the calibration kernel's buffer (see [`calib::resident_mb`]).
fn peak_rss_mb() -> f64 {
    sys::peak_rss_mb().unwrap_or(f64::NAN) - calib::resident_mb()
}

/// End-to-end metrics from an untraced measurement, with every time at
/// the reference host speed (see [`calib`]).
struct Untraced {
    setup_s: f64,
    latencies_ms: Vec<f64>,
    measured_ms: f64,
    peak_rss_mb: f64,
    nec_f2: Vec<f64>,
    /// Share of certified `E^OPT` solves; 1 on workloads without a solve.
    certified_frac: f64,
}

impl Untraced {
    fn new(
        workload: Workload,
        setup_s: f64,
        ops: Calibrated,
        peak_rss_mb: f64,
        nec_f2: Vec<f64>,
        certified_frac: f64,
    ) -> Self {
        let (latencies_ms, measured_ms, kernels_ms) = ops.finish();
        if !kernels_ms.is_empty() {
            eprintln!(
                "{}: calibration kernel median {:.3} ms over {} runs (reference {} ms)",
                workload.name(),
                median(&kernels_ms),
                kernels_ms.len(),
                calib::REFERENCE_MS
            );
        }
        Self {
            setup_s,
            latencies_ms,
            measured_ms,
            peak_rss_mb,
            nec_f2,
            certified_frac,
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / (self.measured_ms / 1e3)
    }

    fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms)
    }

    fn metrics(&self, workload: Workload) -> Vec<Metric> {
        let n = self.latencies_ms.len();
        let m = |name, value, samples| Metric {
            name,
            value,
            samples,
        };
        vec![
            m("setup_s", self.setup_s, workload.setup_reps()),
            m("latency_p50_ms", self.p50_ms(), n),
            m(
                "latency_tail_ms",
                percentile(&self.latencies_ms, workload.tail_permille()),
                n,
            ),
            m("ops_per_s", self.ops_per_s(), n),
            m("peak_rss_mb", self.peak_rss_mb, 1),
            m(
                "nec_f2_mean",
                crate::stats::mean(&self.nec_f2),
                self.nec_f2.len(),
            ),
            m("certified_frac", self.certified_frac, self.nec_f2.len()),
        ]
    }
}

fn write_spans(opts: &RunOptions, workload: Workload, ops: &[Vec<Span>]) {
    let Some(dir) = &opts.out_dir else { return };
    let path = dir.join(format!("spans-{}-seed{}.json", workload.name(), opts.seed));
    let doc = crate::trace::to_chrome(ops).to_string();
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc)) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        eprintln!("spans written to {}", path.display());
    }
}

// ---------------------------------------------------------------------
// Offline workloads
// ---------------------------------------------------------------------

/// One input instance: `n` consecutive tasks of a seeded task stream
/// (`n` = the spec's scale), starting `offset` tasks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct InstanceId {
    /// Seed of the task stream.
    pub stream: u64,
    /// First task of the window.
    pub offset: u64,
}

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}+{}", self.stream, self.offset)
    }
}

/// The windows of a seed group over streams `base + i`, `i < count`.
/// Ordinary groups slide the window one task per group, so any two of
/// them share all but at most [`SEED_GROUPS`] tasks of every instance
/// (which keeps instance cost comparable across seeds); the held-out
/// group reads disjoint streams.
pub fn instance_windows(base: u64, count: u64, group: u64) -> Vec<InstanceId> {
    (0..count)
        .map(|i| {
            if group == SEED_GROUPS {
                InstanceId {
                    stream: base + 100 + i,
                    offset: 0,
                }
            } else {
                InstanceId {
                    stream: base + i,
                    offset: group,
                }
            }
        })
        .collect()
}

/// Materialize an instance window of `spec`.
pub fn windowed(spec: WorkloadSpec, id: InstanceId) -> TaskSet {
    let n = spec.scale();
    let stream = spec
        .with_scale(n + SEED_GROUPS as usize)
        .instantiate(id.stream);
    let start = id.offset as usize;
    TaskSet::new(stream.tasks()[start..start + n].to_vec()).expect("a window of valid tasks")
}

/// The instances one offline run of `group` cycles through.
pub fn offline_instances(workload: Workload, group: u64) -> Vec<InstanceId> {
    let base = match workload {
        Workload::OfflinePaper1024 => 10_000,
        Workload::OfflineLargeN65k => 20_000,
        _ => panic!("{} is not an offline workload", workload.name()),
    };
    instance_windows(base, workload.instances_per_run(), group)
}

/// The request an offline workload issues for one instance.
pub fn offline_request(workload: Workload, id: InstanceId) -> ScheduleRequest {
    let (spec, config) = match workload {
        Workload::OfflinePaper1024 => (WorkloadSpec::paper().with_scale(1024), EngineConfig::new()),
        Workload::OfflineLargeN65k => (
            WorkloadSpec::large_n(65_536),
            EngineConfig::new().with_intra_parallelism(DEFAULT_PARALLEL_THRESHOLD),
        ),
        _ => panic!("{} is not an offline workload", workload.name()),
    };
    ScheduleRequest::new(windowed(spec, id), CORES, power()).with_config(config)
}

/// The output fingerprint the loop compares across repeats.
type OfflineKey = (u64, u64, usize);

fn offline_key(energy: f64, intermediate_energy: f64, segments: usize) -> OfflineKey {
    (energy.to_bits(), intermediate_energy.to_bits(), segments)
}

fn run_offline(workload: Workload, opts: &RunOptions) -> Report {
    let seeds = offline_instances(workload, seed_group(opts.seed));
    let reqs: Vec<ScheduleRequest> = seeds
        .iter()
        .map(|&s| offline_request(workload, s))
        .collect();
    let mut tally = Tally::default();
    let mut setups = ColdSetups::new(workload, opts);

    // The timed loop. With tracing on, every request is followed by its
    // staged replay, so both see the same allocator and cache state.
    let budget = Duration::from_secs_f64(opts.seconds);
    let min_ops = if opts.trace {
        reqs.len()
    } else {
        min_samples_for(workload.tail_permille())
    };
    let engine = Engine::new();
    let mut keys: Vec<Option<OfflineKey>> = vec![None; reqs.len()];
    let mut ops_on: Vec<u64> = vec![0; reqs.len()];
    let mut ops = Calibrated::new(!opts.trace && workload.calibrated());
    let mut spent = Duration::ZERO;
    let origin = Instant::now();
    let mut traced = Vec::new();
    let mut traced_spent = Duration::ZERO;
    let mut x = LayerInputs::default();
    let (mut pool_wall, mut pool_cpu) = (0u64, 0u64);
    // Stop only after whole cycles, so every instance weighs the same.
    let mut i = 0;
    while i % reqs.len() != 0 || !done(spent + traced_spent, budget, ops.len(), min_ops, origin) {
        setups.catch_up(spent, &mut tally);
        let idx = i % reqs.len();
        i += 1;
        let t = Instant::now();
        let result = engine.run(&reqs[idx]);
        let d = t.elapsed();
        spent += d;
        ops.op(d);
        tally.attempt();
        ops_on[idx] += 1;
        match result {
            Ok(out) => {
                let key = offline_key(out.energy, out.intermediate_energy, out.schedule.len());
                if *keys[idx].get_or_insert(key) != key {
                    tally.fail(
                        1,
                        format!("instance {}: output changed on repeat", seeds[idx]),
                    );
                }
            }
            Err(e) => tally.fail(1, format!("instance {}: {e:?}", seeds[idx])),
        }
        if !opts.trace {
            continue;
        }
        let mut tr = Tracer::new(origin);
        let t = Instant::now();
        let staged = stages::offline_request(&mut tr, &reqs[idx]);
        traced_spent += t.elapsed();
        tally.attempt();
        ops_on[idx] += 1;
        let der = &staged.der;
        if keys[idx]
            != Some(offline_key(
                der.energy,
                der.intermediate_energy,
                der.segments,
            ))
        {
            tally.fail(
                1,
                format!("instance {}: staged replay diverged", seeds[idx]),
            );
        }
        if let Some((wall, cpu)) = staged.pool_alloc_ns {
            pool_wall += wall;
            pool_cpu += cpu;
        }
        x.untraced_paired_ms.push(ms(d));
        x.cells.push(staged.cells as f64);
        x.segments
            .push((der.segments + der.intermediate_segments) as f64);
        traced.push(tr.take());
    }
    let peak_rss_mb = peak_rss_mb();
    let setup_s = setups.finish(keys[0].map(|k| fold([k.0])), &mut tally);

    // Output checks, once per distinct instance, outside the timed loop.
    let pins = Pins::embedded().offline.get(workload.name());
    let mut nec_f2 = Vec::new();
    for (idx, req) in reqs.iter().enumerate() {
        let seed = seeds[idx];
        let pin = pins.and_then(|p| p.get(&seed.to_string())).copied();
        if let Err(why) = check_offline(&engine, req, pin, keys[idx]) {
            tally.fail(ops_on[idx], format!("instance {seed}: {why}"));
        }
        if let Some((energy, _, _)) = keys[idx] {
            nec_f2.push(f64::from_bits(energy) / ideal_schedule(&req.tasks, &req.power).energy);
        }
    }
    let untraced = Untraced::new(workload, setup_s, ops, peak_rss_mb, nec_f2, 1.0);
    if !opts.trace {
        return Report {
            metrics: untraced.metrics(workload),
            tally,
        };
    }
    let workers = engine.threads() as f64;
    x.pool_busy_frac = (pool_wall > 0).then(|| pool_cpu as f64 / (pool_wall as f64 * workers));
    x.untraced_p50_ms = untraced.p50_ms();
    x.untraced_ops_per_s = untraced.ops_per_s();
    x.traced_ops_per_s = traced.len() as f64 / traced_spent.as_secs_f64();
    write_spans(opts, workload, &traced);
    Report {
        metrics: per_layer_metrics(&traced, &x),
        tally,
    }
}

/// Check one offline instance: the simulator runs the schedule clean and
/// integrates the analytic energy, `E^F2` equals its pin bit for bit, and
/// the output equals what the timed loop saw.
fn check_offline(
    engine: &Engine,
    req: &ScheduleRequest,
    pin: Option<f64>,
    seen: Option<OfflineKey>,
) -> Result<(), String> {
    let out = engine.run(req).map_err(|e| format!("{e:?}"))?;
    if seen
        != Some(offline_key(
            out.energy,
            out.intermediate_energy,
            out.schedule.len(),
        ))
    {
        return Err("check run differs from the timed loop".into());
    }
    let sim = simulate(&out.schedule, &req.tasks, &req.power);
    if !sim.is_clean() {
        return Err(format!(
            "simulator: {} misses, {} conflicts",
            sim.deadline_misses.len(),
            sim.conflicts.len()
        ));
    }
    if (sim.energy - out.energy).abs() > SIM_ENERGY_RTOL * out.energy.abs() {
        return Err(format!(
            "simulated energy {} vs analytic {}",
            sim.energy, out.energy
        ));
    }
    match pin {
        Some(p) if p.to_bits() == out.energy.to_bits() => {}
        Some(p) => return Err(format!("E^F2 {} differs from pin {p}", out.energy)),
        None => return Err("no pinned E^F2".into()),
    }
    Ok(())
}

/// `E^F2` of every instance of every seed group, for the pin file.
pub fn offline_pins(workload: Workload) -> Vec<(String, f64)> {
    let engine = Engine::new();
    all_groups()
        .flat_map(|g| offline_instances(workload, g))
        .map(|id| {
            let out = engine
                .run(&offline_request(workload, id))
                .expect("pinning run succeeds");
            (id.to_string(), out.energy)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Online workload
// ---------------------------------------------------------------------

/// The online workload's boot task set and event stream for `seed`. The
/// boot set is the seed group's window over one task stream (see
/// [`instance_windows`]). The [`ONLINE_EVENTS`] events come from one
/// sequence of draws (another for the held-out group), applied to the
/// group's live task set: roughly ⅕ arrivals (paper-distributed tasks),
/// ⅖ early completions (50–95% of the current requirement) and ⅖ window
/// shifts (±0.25).
pub fn online_inputs(seed: u64) -> (TaskSet, Vec<OnlineEvent>) {
    let group = seed_group(seed);
    let boot = windowed(
        WorkloadSpec::paper().with_scale(ONLINE_BOOT_TASKS),
        instance_windows(30_000, 1, group)[0],
    );
    let held_out = if group == SEED_GROUPS { 100 } else { 0 };
    let arrivals = WorkloadSpec::paper()
        .with_scale(ONLINE_EVENTS)
        .instantiate(31_000 + held_out);
    let mut rng = ChaCha8::seed_from_u64(32_000 + held_out);
    let mut live = boot.tasks().to_vec();
    let mut next_arrival = 0;
    let events = (0..ONLINE_EVENTS)
        .map(|_| {
            let r = rng.gen_f64();
            if r < 0.2 {
                let task = *arrivals.get(next_arrival);
                next_arrival += 1;
                live.push(task);
                OnlineEvent::Arrive(task)
            } else if r < 0.6 {
                let task = rng.gen_range_usize(0, live.len());
                let actual_work = live[task].wcec * rng.gen_range_f64(0.5, 0.95);
                live[task].wcec = actual_work;
                OnlineEvent::Complete { task, actual_work }
            } else {
                let task = rng.gen_range_usize(0, live.len());
                let mut delta = rng.gen_range_f64(-0.25, 0.25);
                if live[task].release + delta < 0.0 {
                    delta = -delta;
                }
                live[task].release += delta;
                live[task].deadline += delta;
                OnlineEvent::Shift {
                    task,
                    release: live[task].release,
                    deadline: live[task].deadline,
                }
            }
        })
        .collect();
    (boot, events)
}

/// What the untraced online loop records per event of the first epoch.
type EventKey = (u64, bool, esched_core::DerRepairStats);

fn run_online(opts: &RunOptions) -> Report {
    let workload = Workload::OnlinePaper1024;
    let (boot, events) = online_inputs(opts.seed);
    let mut tally = Tally::default();
    let mut setups = ColdSetups::new(workload, opts);

    // Whole epochs of the same stream, each from a fresh (untimed) boot:
    // an event's cost depends on its place in the stream, so a partial
    // epoch would weigh the early events more. With tracing on, the
    // staged plan follows the engine in lockstep, one event behind, so
    // both see the same allocator and cache state.
    let budget = Duration::from_secs_f64(opts.seconds);
    let min_ops = if opts.trace {
        events.len()
    } else {
        min_samples_for(workload.tail_permille())
    };
    let mut first_epoch: Vec<Option<EventKey>> = Vec::with_capacity(events.len());
    let mut ops = Calibrated::new(!opts.trace && workload.calibrated());
    let mut spent = Duration::ZERO;
    let origin = Instant::now();
    let mut traced = Vec::new();
    let mut traced_spent = Duration::ZERO;
    let mut x = LayerInputs::default();
    let mut epoch = 0;
    let mut boot_print = None;
    loop {
        let mut engine = OnlineEngine::new(boot.clone(), CORES, power());
        boot_print.get_or_insert_with(|| fold([engine.final_energy().to_bits()]));
        let mut plan = opts
            .trace
            .then(|| OnlinePlan::boot(boot.clone(), CORES, power()));
        for (i, event) in events.iter().enumerate() {
            setups.catch_up(spent, &mut tally);
            let t = Instant::now();
            let result = engine.apply(event);
            let d = t.elapsed();
            spent += d;
            ops.op(d);
            tally.attempt();
            let key = match result {
                Ok(rep) => Some((rep.final_energy.to_bits(), rep.timeline_rebuilt, rep.der)),
                Err(e) => {
                    tally.fail(1, format!("epoch {epoch} event {i}: {e}"));
                    None
                }
            };
            if epoch == 0 {
                first_epoch.push(key);
            } else if key.is_some() && key != first_epoch[i] {
                tally.fail(
                    1,
                    format!("epoch {epoch} event {i}: replan differs from epoch 0"),
                );
            }
            let Some(plan) = plan.as_mut() else { continue };
            let mut tr = Tracer::new(origin);
            let t = Instant::now();
            let staged = plan.apply(&mut tr, event);
            traced_spent += t.elapsed();
            tally.attempt();
            let key = (
                staged.final_energy.to_bits(),
                staged.timeline_rebuilt,
                staged.der,
            );
            if first_epoch[i] != Some(key) {
                tally.fail(1, format!("event {i}: staged replay diverged"));
            }
            if !matches!(event, OnlineEvent::Complete { .. }) {
                x.rebuilt.push(f64::from(u8::from(staged.timeline_rebuilt)));
            }
            x.dirty_frac
                .push(staged.der.dirty_columns as f64 / staged.der.total_columns as f64);
            x.fell_back.push(f64::from(u8::from(staged.der.fell_back)));
            x.untraced_paired_ms.push(ms(d));
            x.cells.push(staged.cells as f64);
            traced.push(tr.take());
        }
        epoch += 1;
        if done(spent + traced_spent, budget, ops.len(), min_ops, origin) {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb();
    let setup_s = setups.finish(boot_print, &mut tally);

    // Output checks on one more (untimed) epoch: the oracle at the
    // midpoint and the end, then online⇔offline identity.
    let mut engine = OnlineEngine::new(boot.clone(), CORES, power());
    for (i, event) in events.iter().enumerate() {
        let key = engine
            .apply(event)
            .ok()
            .map(|rep| (rep.final_energy.to_bits(), rep.timeline_rebuilt, rep.der));
        if key != first_epoch[i] {
            tally.fail(
                1,
                format!("check epoch event {i}: replan differs from epoch 0"),
            );
        }
        if i + 1 == events.len() / 2 || i + 1 == events.len() {
            if let Err(why) = engine.verify_current() {
                tally.fail(1, format!("verify_current after event {i}: {why}"));
            }
        }
    }
    if let Err(why) = online_identity(&mut engine) {
        tally.fail(1, why);
    }
    let ideal = ideal_schedule(engine.tasks(), &power()).energy;
    let nec_f2 = vec![engine.final_energy() / ideal];
    let untraced = Untraced::new(workload, setup_s, ops, peak_rss_mb, nec_f2, 1.0);
    if !opts.trace {
        return Report {
            metrics: untraced.metrics(workload),
            tally,
        };
    }
    x.untraced_p50_ms = untraced.p50_ms();
    x.untraced_ops_per_s = untraced.ops_per_s();
    x.traced_ops_per_s = traced.len() as f64 / traced_spent.as_secs_f64();
    write_spans(opts, workload, &traced);
    Report {
        metrics: per_layer_metrics(&traced, &x),
        tally,
    }
}

/// Online⇔offline identity: the live plan's outcome equals (and encodes
/// byte for byte like) `Engine::run` on the equivalent request.
fn online_identity(engine: &mut OnlineEngine) -> Result<(), String> {
    let online = engine.outcome();
    let offline = Engine::new()
        .run(&engine.as_request())
        .map_err(|e| format!("offline run of the online request: {e:?}"))?;
    if online != offline || online.to_json().to_string() != offline.to_json().to_string() {
        return Err("online outcome differs from Engine::run on as_request()".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Figure 10 sweep
// ---------------------------------------------------------------------

/// Figure 10 base seed of a seed group. Trial `k` of every point uses
/// task-set seed `base + k`, so the ordinary groups slide a 100-trial
/// window one trial at a time along one stream (any two share at least
/// 93 of each point's trials, which keeps the solver's heavy-tailed cost
/// comparable across seeds); the held-out group's window is disjoint.
pub fn fig10_base_seed(group: u64) -> u64 {
    if group == SEED_GROUPS {
        41_000
    } else {
        40_000 + group
    }
}

/// One untraced sweep.
struct Sweep {
    rows: Vec<esched_core::NecPoint>,
    trials: Vec<TrialRecord>,
    wall: Duration,
    trial_ms: Vec<f64>,
}

fn fig10_sweep(base_seed: u64) -> Sweep {
    recorder::clear();
    let t = Instant::now();
    let (_, rows, _, report) = fig10::spec().run_stats_reported(FIG10_TRIALS, base_seed);
    let wall = t.elapsed();
    // Per-trial latency: the engine's own always-on `engine_execute`
    // flight span around each request.
    let trial_ms: Vec<f64> = recorder::snapshot()
        .into_iter()
        .filter(|r| r.kind == FlightKind::Span && r.name == "engine_execute")
        .map(|r| r.value as f64 / 1e6)
        .collect();
    assert_eq!(
        trial_ms.len(),
        report.trials.len(),
        "one engine_execute flight span per trial (is ESCHED_FLIGHT=0 set?)"
    );
    Sweep {
        rows,
        trials: report.trials,
        wall,
        trial_ms,
    }
}

/// The requests the experiments harness builds for a sweep, tagged with
/// their point index.
pub fn fig10_requests(base_seed: u64) -> Vec<(usize, ScheduleRequest)> {
    let solver = SolverKind::from_name(FIG10_SOLVER).expect("known solver");
    let config = EngineConfig::new()
        .with_solver(solver)
        .with_solve_options(SolveOptions::fast())
        .with_sim_verify(true);
    fig10::spec()
        .points
        .iter()
        .enumerate()
        .flat_map(|(p, point)| {
            let config = config.clone();
            (0..FIG10_TRIALS).map(move |k| {
                let tasks = WorkloadGenerator::new(point.config, base_seed + k as u64).generate();
                let req = ScheduleRequest {
                    tasks,
                    cores: point.cores,
                    power: point.power,
                    config: config.clone(),
                };
                (p, req)
            })
        })
        .collect()
}

fn nec_f2_of(rec: &TrialRecord) -> f64 {
    rec.extra
        .iter()
        .find(|(k, _)| k == "nec_f2")
        .and_then(|(_, v)| match v {
            Value::Num(x) => Some(*x),
            _ => None,
        })
        .expect("trial record carries nec_f2")
}

/// Check a sweep: every trial simulator-clean, with `NEC_ideal ≤ 1` and
/// `NEC_F2 ≥ 1 − ε`; every point's mean NEC within [`FIG10_NEC_RTOL`] of
/// its pin. Failures are counted in `tally`. Returns the share of trials
/// whose `E^OPT` is certified: converged with a duality gap within the
/// solve's tolerance.
fn check_fig10(
    sweep: &Sweep,
    base_seed: u64,
    reqs: &[(usize, ScheduleRequest)],
    tally: &mut Tally,
) -> f64 {
    let gap_tol = SolveOptions::fast().gap_tol;
    assert_eq!(sweep.trials.len(), reqs.len(), "one record per trial");
    // E^F2 and E^ideal of every trial, to recover NEC_ideal.
    let plain: Vec<ScheduleRequest> = reqs
        .iter()
        .map(|(_, r)| ScheduleRequest::new(r.tasks.clone(), r.cores, r.power))
        .collect();
    let f2 = Engine::new().run_batch(&plain);
    let mut certified = 0usize;
    for (i, ((_, req), rec)) in reqs.iter().zip(&sweep.trials).enumerate() {
        let nec_f2 = nec_f2_of(rec);
        let why = match &f2[i] {
            Err(e) => Some(format!("{e:?}")),
            Ok(out) => {
                let e_opt = out.energy / nec_f2;
                let eps = gap_tol * (1.0 + 1.0 / e_opt);
                let nec_ideal = ideal_schedule(&req.tasks, &req.power).energy / e_opt;
                if rec.converged && rec.final_gap <= gap_tol * (1.0 + e_opt) {
                    certified += 1;
                }
                if rec.sim_clean != Some(true) {
                    Some("simulator not clean".into())
                } else if nec_ideal > 1.0 + 1e-12 {
                    Some(format!("NEC_ideal {nec_ideal} > 1"))
                } else if nec_f2 < 1.0 - eps {
                    Some(format!("NEC_F2 {nec_f2} < 1 - {eps}"))
                } else {
                    None
                }
            }
        };
        if let Some(why) = why {
            tally.fail(1, format!("trial {i} (seed {}): {why}", rec.seed));
        }
    }
    match Pins::embedded().fig10.get(&base_seed) {
        None => tally.fail(
            reqs.len() as u64,
            format!("no pinned NEC for base seed {base_seed}"),
        ),
        Some(pinned) => {
            for (p, (row, pin)) in sweep.rows.iter().zip(pinned).enumerate() {
                let got = [row.ideal, row.i1, row.f1, row.i2, row.f2];
                if got
                    .iter()
                    .zip(pin)
                    .any(|(g, w)| (g - w).abs() > FIG10_NEC_RTOL * w.abs())
                {
                    tally.fail(
                        FIG10_TRIALS as u64,
                        format!("point {p}: mean NEC {got:?} vs pinned {pin:?}"),
                    );
                }
            }
        }
    }
    certified as f64 / reqs.len() as f64
}

/// Per-point mean NEC of every seed group's sweep, for the pin file.
pub fn fig10_pins() -> Vec<(u64, Vec<[f64; 5]>)> {
    all_groups()
        .map(|g| {
            let base = fig10_base_seed(g);
            let (_, rows, _, _) = fig10::spec().run_stats_reported(FIG10_TRIALS, base);
            let rows = rows
                .iter()
                .map(|r| [r.ideal, r.i1, r.f1, r.i2, r.f2])
                .collect();
            (base, rows)
        })
        .collect()
}

fn run_fig10(opts: &RunOptions) -> Report {
    let workload = Workload::PaperFig10;
    let base_seed = fig10_base_seed(seed_group(opts.seed));
    let reqs = fig10_requests(base_seed);
    let mut tally = Tally::default();
    let mut setups = ColdSetups::new(workload, opts);

    let budget = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let mut ops = Calibrated::new(!opts.trace && workload.calibrated());
    let mut spent = Duration::ZERO;
    let mut nec_f2 = Vec::new();
    let mut certified_frac = 0.0;
    let mut first: Option<Vec<u64>> = None;
    let started = Instant::now();
    while first.is_none() || !done(spent, budget, 0, 0, started) {
        setups.catch_up(spent, &mut tally);
        let sweep = fig10_sweep(base_seed);
        spent += sweep.wall;
        ops.block(&sweep.trial_ms, sweep.wall);
        tally.attempted += reqs.len() as u64;
        let bits: Vec<u64> = sweep
            .trials
            .iter()
            .map(|r| nec_f2_of(r).to_bits())
            .collect();
        match &first {
            None => {
                certified_frac = check_fig10(&sweep, base_seed, &reqs, &mut tally);
                nec_f2 = sweep.trials.iter().map(nec_f2_of).collect();
                first = Some(bits);
            }
            Some(f) if *f != bits => tally.fail(reqs.len() as u64, "sweep differs on repeat"),
            Some(_) => {}
        }
    }
    // `latency_*` summarize per-trial engine spans; `ops_per_s` is trials
    // over sweep wall time (the batch runs trials in parallel).
    let peak_rss_mb = peak_rss_mb();
    let first_point_print = first
        .as_ref()
        .map(|bits| fold(bits[..FIG10_TRIALS].iter().copied()));
    let setup_s = setups.finish(first_point_print, &mut tally);
    let untraced = Untraced::new(workload, setup_s, ops, peak_rss_mb, nec_f2, certified_frac);
    if !opts.trace {
        return Report {
            metrics: untraced.metrics(workload),
            tally,
        };
    }

    // Traced replay: the same trials, one engine batch per point.
    let solver = SolverKind::from_name(FIG10_SOLVER).expect("known solver");
    let expected = first.expect("one sweep ran");
    let engine = Engine::new();
    let origin = Instant::now();
    let mut ops = Vec::new();
    let mut x = LayerInputs::default();
    let (mut wall, mut cpu) = (Duration::ZERO, 0u64);
    for p in 0..fig10::spec().points.len() {
        let items: Vec<(usize, &ScheduleRequest)> = reqs
            .iter()
            .enumerate()
            .filter(|(_, (pt, _))| *pt == p)
            .map(|(i, (_, r))| (i, r))
            .collect();
        let cpu0 = sys::process_cpu_ns();
        let submitted = Instant::now();
        let results = engine.batch_map(items, |scratch, (i, req)| {
            let wait = submitted.elapsed();
            let mut tr = Tracer::new(origin);
            let out = stages::fig10_trial(&mut tr, scratch, req, solver);
            (i, wait, out, tr.take())
        });
        wall += submitted.elapsed();
        cpu += sys::process_cpu_ns() - cpu0;
        for r in results {
            tally.attempt();
            let Ok((i, wait, out, spans)) = r else {
                tally.fail(1, format!("point {p}: traced trial panicked"));
                continue;
            };
            if out.nec.f2.to_bits() != expected[i] {
                tally.fail(1, format!("trial {i}: staged replay diverged"));
            }
            x.queue_wait_ms.push(ms(wait));
            x.cells.push(out.cells as f64);
            x.segments.push(out.segments as f64);
            x.iters.push(out.iters as f64);
            let e_opt = out.nec.opt_energy;
            let certified =
                out.converged && out.gap <= SolveOptions::fast().gap_tol * (1.0 + e_opt);
            x.certified.push(f64::from(u8::from(certified)));
            if !out.sim_clean {
                tally.fail(1, format!("trial {i}: simulator not clean in replay"));
            }
            ops.push(spans);
        }
    }
    x.pool_busy_frac = Some(cpu as f64 / (wall.as_secs_f64() * 1e9 * engine.threads() as f64));
    x.untraced_p50_ms = untraced.p50_ms();
    x.untraced_ops_per_s = untraced.ops_per_s();
    x.traced_ops_per_s = ops.len() as f64 / wall.as_secs_f64();
    write_spans(opts, workload, &ops);
    Report {
        metrics: per_layer_metrics(&ops, &x),
        tally,
    }
}
