//! # esched-perfbench
//!
//! The repository's benchmark: four named workloads driven through the
//! public APIs of `esched-engine` and `esched-experiments`, each
//! reporting end-to-end metrics (untraced run) or per-layer metrics (a
//! traced, stage-by-stage replay of the same operations). See
//! `perfbench/README.md` for the workloads, metrics and findings.

pub mod calib;
pub mod layers;
pub mod pins;
pub mod stages;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use esched_obs::json::Value;

/// End-to-end metrics, `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("nec_f2_mean", "ratio"),
    ("certified_frac", "frac"),
];

/// Per-layer metrics, `(name, unit)`, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 19] = [
    ("subinterval.timeline_ms", "ms"),
    ("subinterval.cells", "count"),
    ("subinterval.rebuild_frac", "frac"),
    ("core.ideal_ms", "ms"),
    ("core.allocate_ms", "ms"),
    ("core.dirty_column_frac", "frac"),
    ("core.repair_fallback_frac", "frac"),
    ("core.refine_ms", "ms"),
    ("core.materialize_ms", "ms"),
    ("core.segments", "count"),
    ("opt.solve_ms", "ms"),
    ("opt.iters", "count"),
    ("opt.certified_frac", "frac"),
    ("sim.verify_ms", "ms"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.pool_busy_frac", "frac"),
    ("engine.overhead_ms", "ms"),
    ("obs.trace_overhead_frac", "frac"),
    ("obs.stage_coverage_frac", "frac"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Operation accounting: every attempted operation, and the ones that
/// failed (an engine or online error, or a failed output check).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Count `ops` failed operations for `why`.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        stats::failed_frac(self.failed, self.attempted)
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Operation accounting.
    pub tally: Tally,
    /// Metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Unit of a declared metric.
    pub fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("declared metric")
    }

    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::obj(vec![
                        ("value", Value::Num(m.value)),
                        ("unit", Value::Str(Self::unit_of(m.name).to_string())),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.tally.attempted as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    /// Human-readable lines: every metric with unit and sample count,
    /// plus `failed_frac`.
    pub fn summary(&self, workload: &str) -> Vec<String> {
        let mut lines = vec![format!(
            "{workload}: failed_frac = {} ({} of {} operations failed)",
            self.tally.failed_frac(),
            self.tally.failed,
            self.tally.attempted
        )];
        for m in &self.metrics {
            lines.push(format!(
                "{workload}: {} = {} {} (n={})",
                m.name,
                m.value,
                Self::unit_of(m.name),
                m.samples
            ));
        }
        lines
    }
}
