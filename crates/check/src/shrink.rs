//! Auto-shrinking of failing instances.
//!
//! A raw counterexample from the generator typically has jittered,
//! 17-significant-digit boundary times and more tasks than the bug needs.
//! The shrinker greedily minimizes it while preserving the *failing oracle
//! class* (not the exact message — shrinking legitimately changes details
//! like which task index trips the check), using five passes to a
//! fixpoint:
//!
//! 1. drop tasks (largest index first),
//! 2. reduce the core count,
//! 3. simplify the power model (zero static power, integer alpha),
//! 4. round release/deadline times to fewer decimal digits,
//! 5. shrink work requirements (halve, round, clamp to the window).
//!
//! Every candidate is re-validated through [`Task::new`]/[`TaskSet::new`],
//! so the shrunk instance is always a *legal* input — the corpus never
//! accumulates repros that only fail because they are malformed.

use crate::case::Shrunk;
use crate::instance::Instance;
use crate::oracles::{check_instance, OracleClass};
use esched_types::{PolynomialPower, Task, TaskSet};

/// Minimize `inst` while `check_instance` keeps reporting a violation of
/// `class`. `max_evals` bounds the number of oracle evaluations (each one
/// runs the full pipeline).
pub fn shrink(inst: &Instance, class: OracleClass, max_evals: usize) -> Shrunk<Instance> {
    let mut evals = 0;
    let case = shrink_by(
        inst,
        |cand| check_instance(cand).iter().any(|v| v.class == class),
        max_evals,
        &mut evals,
    );
    Shrunk { case, evals }
}

/// Generic greedy fixpoint minimizer over an arbitrary failure predicate.
/// Exposed for testing the shrink moves without needing a real pipeline
/// bug on hand.
pub fn shrink_by(
    inst: &Instance,
    mut fails: impl FnMut(&Instance) -> bool,
    max_evals: usize,
    evals: &mut usize,
) -> Instance {
    let mut best = inst.clone();
    let mut accept = |cand: &Instance, evals: &mut usize| -> bool {
        if *evals >= max_evals {
            return false;
        }
        *evals += 1;
        fails(cand)
    };

    loop {
        let mut progressed = false;

        // Pass 1: drop tasks, largest index first so indices stay stable.
        let mut i = best.tasks.len();
        while i > 0 && best.tasks.len() > 1 {
            i -= 1;
            let mut reduced: Vec<Task> = best.tasks.tasks().to_vec();
            reduced.remove(i);
            if let Ok(ts) = TaskSet::new(reduced) {
                let cand = Instance::new(ts, best.cores, best.power);
                if accept(&cand, evals) {
                    best = cand;
                    progressed = true;
                }
            }
        }

        // Pass 2: reduce cores.
        for m in [1, best.cores / 2, best.cores.saturating_sub(1)] {
            if m >= 1 && m < best.cores {
                let cand = Instance::new(best.tasks.clone(), m, best.power);
                if accept(&cand, evals) {
                    best = cand;
                    progressed = true;
                }
            }
        }

        // Pass 3: simplify the power model.
        for p in [
            PolynomialPower::paper(best.power.alpha, 0.0),
            PolynomialPower::paper(3.0, best.power.p0),
            PolynomialPower::cubic(),
        ] {
            if p != best.power {
                let cand = Instance::new(best.tasks.clone(), best.cores, p);
                if accept(&cand, evals) {
                    best = cand;
                    progressed = true;
                }
            }
        }

        // Pass 4: round times to fewer decimal digits (coarsest first).
        for idx in 0..best.tasks.len() {
            for digits in [0_i32, 1, 3, 6] {
                let t = best.tasks.tasks()[idx];
                let r = round_to(t.release, digits);
                let d = round_to(t.deadline, digits);
                if (r, d) == (t.release, t.deadline) {
                    continue;
                }
                if let Some(cand) = replace_task(&best, idx, Task::new(r, d, t.wcec)) {
                    if accept(&cand, evals) {
                        best = cand;
                        progressed = true;
                        break;
                    }
                }
            }
        }

        // Pass 5: shrink work requirements.
        for idx in 0..best.tasks.len() {
            let t = best.tasks.tasks()[idx];
            for w in [
                round_to(t.wcec, 0),
                round_to(t.wcec, 2),
                t.wcec / 2.0,
                t.window_len(),
            ] {
                if w <= 0.0 || w >= t.wcec {
                    continue;
                }
                if let Some(cand) = replace_task(&best, idx, Task::new(t.release, t.deadline, w)) {
                    if accept(&cand, evals) {
                        best = cand;
                        progressed = true;
                        break;
                    }
                }
            }
        }

        if !progressed || *evals >= max_evals {
            return best;
        }
    }
}

fn round_to(x: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

fn replace_task(
    base: &Instance,
    idx: usize,
    task: Result<Task, esched_types::TaskError>,
) -> Option<Instance> {
    let task = task.ok()?;
    let mut tasks: Vec<Task> = base.tasks.tasks().to_vec();
    tasks[idx] = task;
    let ts = TaskSet::new(tasks).ok()?;
    Some(Instance::new(ts, base.cores, base.power))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(triples: &[(f64, f64, f64)], cores: usize) -> Instance {
        Instance::new(
            TaskSet::from_triples(triples),
            cores,
            PolynomialPower::paper(2.0, 0.7),
        )
    }

    #[test]
    fn minimizes_under_synthetic_predicate() {
        // "Bug" fires whenever some task has wcec > 2 on >= 2 cores: the
        // shrinker should strip unrelated tasks, drop to 2 cores, and
        // shrink the culprit's work toward the threshold.
        let start = inst(
            &[
                (0.0, 10.0, 8.123_456_7),
                (1.337, 5.911, 2.0),
                (2.71, 9.33, 1.25),
            ],
            8,
        );
        let mut evals = 0;
        let out = shrink_by(
            &start,
            |c| c.cores >= 2 && c.tasks.tasks().iter().any(|t| t.wcec > 2.0),
            5_000,
            &mut evals,
        );
        assert_eq!(out.tasks.len(), 1, "unrelated tasks dropped: {out:?}");
        assert_eq!(out.cores, 2, "cores reduced to the threshold");
        assert!(out.tasks.tasks()[0].wcec > 2.0 && out.tasks.tasks()[0].wcec < 8.2);
        assert!(evals > 0);
    }

    #[test]
    fn rounds_times_when_bug_is_time_independent() {
        let start = inst(&[(1.000_000_1, 7.999_999_9, 3.0)], 4);
        let mut evals = 0;
        let out = shrink_by(&start, |c| c.tasks.tasks()[0].wcec > 1.0, 5_000, &mut evals);
        let t = out.tasks.tasks()[0];
        assert_eq!(t.release, 1.0);
        assert_eq!(t.deadline, 8.0);
        assert_eq!(out.cores, 1);
    }

    #[test]
    fn passing_instance_survives_unchanged() {
        let start = inst(&[(0.0, 4.0, 2.0)], 2);
        let mut evals = 0;
        let out = shrink_by(&start, |_| false, 100, &mut evals);
        assert_eq!(out, start);
    }

    #[test]
    fn respects_eval_budget() {
        let start = inst(&[(0.0, 10.0, 8.0), (1.0, 6.0, 2.0)], 8);
        let mut evals = 0;
        let _ = shrink_by(&start, |_| true, 7, &mut evals);
        assert!(evals <= 7);
    }
}
