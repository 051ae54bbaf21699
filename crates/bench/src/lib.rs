//! The curated benchmark suite ([`harness`], run by the `benchjson`
//! binary), its shared fixtures, and the CI smoke-gate binaries.
//!
//! This is where the paper's "lightweight, suitable for real-time
//! systems" claim becomes a measured number: the heuristics must sit
//! orders of magnitude below the convex solver.

use esched_types::TaskSet;
use esched_workload::{GeneratorConfig, WorkloadGenerator};

pub mod harness;

/// A deterministic paper-style task set with `n` tasks.
pub fn paper_tasks(n: usize, seed: u64) -> TaskSet {
    WorkloadGenerator::new(GeneratorConfig::paper_default().with_tasks(n), seed).generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(paper_tasks(10, 1), paper_tasks(10, 1));
    }
}
