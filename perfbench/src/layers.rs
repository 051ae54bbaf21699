//! Per-layer metrics from a traced replay.
//!
//! A stage metric (`<stage>_ms`) is the median over traced operations of
//! the stage's summed self time in that operation (0 in operations that
//! skip the stage). `engine.overhead_ms` is the median self time of the
//! operation's root span: time inside the operation that no stage span
//! covers. Coverage compares stage time with untraced latency: per
//! operation, where every traced operation directly follows its untraced
//! twin (offline, online), so both see the same host conditions;
//! otherwise as the sum of the stage medians over the untraced median.

use crate::stages::names;
use crate::stats::{mean, median};
use crate::trace::{self_time_by_name, self_times, Span};
use crate::Metric;

/// Everything besides spans that the per-layer metrics summarize. Empty
/// sample vectors report 0 (the layer does not run on the workload).
#[derive(Debug, Clone, Default)]
pub struct LayerInputs {
    /// Timeline CSR cells per operation.
    pub cells: Vec<f64>,
    /// Per timeline patch: 1 when it fell back to a full build.
    pub rebuilt: Vec<f64>,
    /// Per allocation repair: dirty share of its columns.
    pub dirty_frac: Vec<f64>,
    /// Per allocation repair: 1 when it fell back to a full allocation.
    pub fell_back: Vec<f64>,
    /// Materialized segments per operation.
    pub segments: Vec<f64>,
    /// Solver iterations per solve.
    pub iters: Vec<f64>,
    /// Per solve: 1 when certified.
    pub certified: Vec<f64>,
    /// Per pool job: wait from batch submission to start, in ms.
    pub queue_wait_ms: Vec<f64>,
    /// Process CPU over `wall × workers` while the pool ran, if it ran.
    pub pool_busy_frac: Option<f64>,
    /// Untraced median operation latency, ms.
    pub untraced_p50_ms: f64,
    /// Per traced operation, in order: the latency of the untraced run
    /// of the same operation just before it, ms. Empty where the run
    /// does not pair them.
    pub untraced_paired_ms: Vec<f64>,
    /// Untraced throughput.
    pub untraced_ops_per_s: f64,
    /// Traced throughput.
    pub traced_ops_per_s: f64,
}

fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn avg(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        mean(v)
    }
}

/// Median per-operation self time of each stage, ms, in
/// [`names::STAGES`] order.
pub fn stage_medians_ms(ops: &[Vec<Span>]) -> Vec<(&'static str, f64)> {
    let per_op: Vec<_> = ops.iter().map(|s| self_time_by_name(s)).collect();
    names::STAGES
        .iter()
        .map(|&stage| {
            let samples: Vec<f64> = per_op
                .iter()
                .map(|m| m.get(stage).copied().unwrap_or(0) as f64 / 1e6)
                .collect();
            (stage, med(&samples))
        })
        .collect()
}

/// Self time of one operation's spans, ms, summed over root spans
/// (`root = true`) or over stage spans (`root = false`).
fn self_ms(spans: &[Span], root: bool) -> f64 {
    let ns: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.parent.is_none() == root)
        .map(|(_, t)| t)
        .sum();
    ns as f64 / 1e6
}

/// Median per-operation self time of the root spans, ms.
pub fn root_self_median_ms(ops: &[Vec<Span>]) -> f64 {
    let samples: Vec<f64> = ops.iter().map(|spans| self_ms(spans, true)).collect();
    med(&samples)
}

/// Share of the untraced latency the stage spans cover: the median over
/// operations of stage time over the paired untraced latency when
/// `paired_ms` pairs every operation, else the sum of the stage medians
/// over `untraced_p50_ms`.
pub fn stage_coverage(ops: &[Vec<Span>], paired_ms: &[f64], untraced_p50_ms: f64) -> f64 {
    if !ops.is_empty() && paired_ms.len() == ops.len() {
        let ratios: Vec<f64> = ops
            .iter()
            .zip(paired_ms)
            .map(|(spans, &u)| self_ms(spans, false) / u)
            .collect();
        return med(&ratios);
    }
    let covered: f64 = stage_medians_ms(ops).iter().map(|(_, v)| v).sum();
    covered / untraced_p50_ms
}

/// Every [`crate::PER_LAYER`] metric, in declaration order.
pub fn per_layer_metrics(ops: &[Vec<Span>], x: &LayerInputs) -> Vec<Metric> {
    let n = ops.len();
    let stages = stage_medians_ms(ops);
    let stage = |name: &str| stages.iter().find(|(s, _)| *s == name).expect("stage").1;
    let m = |name: &'static str, value: f64, samples: usize| Metric {
        name,
        value,
        samples,
    };
    vec![
        m("subinterval.timeline_ms", stage(names::TIMELINE), n),
        m("subinterval.cells", med(&x.cells), x.cells.len()),
        m("subinterval.rebuild_frac", avg(&x.rebuilt), x.rebuilt.len()),
        m("core.ideal_ms", stage(names::IDEAL), n),
        m("core.allocate_ms", stage(names::ALLOCATE), n),
        m(
            "core.dirty_column_frac",
            avg(&x.dirty_frac),
            x.dirty_frac.len(),
        ),
        m(
            "core.repair_fallback_frac",
            avg(&x.fell_back),
            x.fell_back.len(),
        ),
        m("core.refine_ms", stage(names::REFINE), n),
        m("core.materialize_ms", stage(names::MATERIALIZE), n),
        m("core.segments", med(&x.segments), x.segments.len()),
        m("opt.solve_ms", stage(names::SOLVE), n),
        m("opt.iters", med(&x.iters), x.iters.len()),
        m("opt.certified_frac", avg(&x.certified), x.certified.len()),
        m("sim.verify_ms", stage(names::VERIFY), n),
        m(
            "engine.queue_wait_ms",
            med(&x.queue_wait_ms),
            x.queue_wait_ms.len(),
        ),
        m(
            "engine.pool_busy_frac",
            x.pool_busy_frac.unwrap_or(0.0),
            usize::from(x.pool_busy_frac.is_some()),
        ),
        m("engine.overhead_ms", root_self_median_ms(ops), n),
        m(
            "obs.trace_overhead_frac",
            x.untraced_ops_per_s / x.traced_ops_per_s - 1.0,
            n,
        ),
        m(
            "obs.stage_coverage_frac",
            stage_coverage(ops, &x.untraced_paired_ms, x.untraced_p50_ms),
            n,
        ),
    ]
}
