//! Aperiodic task and task-set types.
//!
//! A task is the paper's triple `τ_i = (R_i, D_i, C_i)`: release time,
//! deadline, and execution requirement. The execution requirement is the
//! number of work units the task must receive; running at frequency `f` for
//! `t` time units completes `f·t` work units, so a requirement `C` executed
//! entirely at frequency `f` occupies a core for `C/f` time.

use crate::time::{approx_le, definitely_lt, sort_dedup_times, Interval};
use std::fmt;

/// Identifier of a task within a [`TaskSet`] (its index).
pub type TaskId = usize;

/// An independent, preemptive, migratable aperiodic task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Release time `R_i`: the task cannot execute before this instant.
    pub release: f64,
    /// Absolute deadline `D_i`: the task must be complete by this instant.
    pub deadline: f64,
    /// Execution requirement `C_i` in work units (cycles at unit frequency).
    pub wcec: f64,
}

/// Errors raised by [`Task::new`] / [`TaskSet::new`] validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// A field was NaN or infinite.
    NonFinite {
        /// Which task (set-level errors use the offending index).
        index: usize,
    },
    /// `deadline ≤ release`, leaving no execution window.
    EmptyWindow {
        /// Which task.
        index: usize,
    },
    /// `wcec ≤ 0`; zero-work tasks must simply be omitted.
    NonPositiveWork {
        /// Which task.
        index: usize,
    },
    /// The task set is empty.
    EmptySet,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::NonFinite { index } => {
                write!(f, "task {index}: release/deadline/wcec must be finite")
            }
            TaskError::EmptyWindow { index } => {
                write!(f, "task {index}: deadline must be strictly after release")
            }
            TaskError::NonPositiveWork { index } => {
                write!(f, "task {index}: execution requirement must be positive")
            }
            TaskError::EmptySet => write!(f, "task set must contain at least one task"),
        }
    }
}

impl std::error::Error for TaskError {}

impl Task {
    /// Create a task, validating its invariants.
    ///
    /// # Errors
    /// [`TaskError`] if any field is non-finite, the window `[release,
    /// deadline]` is empty, or the execution requirement is non-positive.
    pub fn new(release: f64, deadline: f64, wcec: f64) -> Result<Self, TaskError> {
        let t = Self {
            release,
            deadline,
            wcec,
        };
        t.validate(0)?;
        Ok(t)
    }

    /// Like [`Task::new`] but panicking; convenient in tests and examples.
    ///
    /// # Panics
    /// If validation fails.
    pub fn of(release: f64, deadline: f64, wcec: f64) -> Self {
        Self::new(release, deadline, wcec).expect("invalid task")
    }

    fn validate(&self, index: usize) -> Result<(), TaskError> {
        if !(self.release.is_finite() && self.deadline.is_finite() && self.wcec.is_finite()) {
            return Err(TaskError::NonFinite { index });
        }
        if !definitely_lt(self.release, self.deadline) {
            return Err(TaskError::EmptyWindow { index });
        }
        if self.wcec <= 0.0 {
            return Err(TaskError::NonPositiveWork { index });
        }
        Ok(())
    }

    /// The execution window `[R_i, D_i]`.
    #[inline]
    pub fn window(&self) -> Interval {
        Interval::new(self.release, self.deadline)
    }

    /// Window length `D_i − R_i`.
    #[inline]
    pub fn window_len(&self) -> f64 {
        self.deadline - self.release
    }

    /// The paper's *intensity* `C_i / (D_i − R_i)`: the minimum constant
    /// frequency at which the task can complete if it runs during its whole
    /// window. Intensity 1 means the window has no slack at unit frequency.
    #[inline]
    pub fn intensity(&self) -> f64 {
        self.wcec / self.window_len()
    }

    /// Laxity at unit frequency: `window_len − C_i`. Negative laxity means
    /// the task needs frequency above 1 to meet its deadline even running
    /// continuously.
    #[inline]
    pub fn laxity(&self) -> f64 {
        self.window_len() - self.wcec
    }

    /// Does this task's window fully cover `iv`? (This is the paper's
    /// criterion for `τ` being an *overlapping task* of subinterval `iv`.)
    #[inline]
    pub fn covers(&self, iv: &Interval) -> bool {
        self.window().covers(iv)
    }
}

/// An immutable, validated collection of tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Validate and wrap a vector of tasks.
    ///
    /// # Errors
    /// The first [`TaskError`] found, or [`TaskError::EmptySet`].
    pub fn new(tasks: Vec<Task>) -> Result<Self, TaskError> {
        if tasks.is_empty() {
            return Err(TaskError::EmptySet);
        }
        for (i, t) in tasks.iter().enumerate() {
            t.validate(i)?;
        }
        Ok(Self { tasks })
    }

    /// Append `task` and return its id.
    ///
    /// # Errors
    /// The [`TaskError`] [`TaskSet::new`] would report for `task` at its
    /// new index; the set is then unchanged.
    pub fn push(&mut self, task: Task) -> Result<TaskId, TaskError> {
        task.validate(self.tasks.len())?;
        self.tasks.push(task);
        Ok(self.tasks.len() - 1)
    }

    /// Replace task `id` with `task`. Panics if `id` is out of range.
    ///
    /// # Errors
    /// The [`TaskError`] [`TaskSet::new`] would report for `task` at `id`;
    /// the set is then unchanged.
    pub fn replace(&mut self, id: TaskId, task: Task) -> Result<(), TaskError> {
        task.validate(id)?;
        self.tasks[id] = task;
        Ok(())
    }

    /// Build from `(release, deadline, wcec)` triples, panicking on invalid
    /// input. Convenient in tests and examples.
    ///
    /// # Panics
    /// If any triple is invalid or the list is empty.
    pub fn from_triples(triples: &[(f64, f64, f64)]) -> Self {
        Self::new(triples.iter().map(|&(r, d, c)| Task::of(r, d, c)).collect())
            .expect("invalid task set")
    }

    /// Number of tasks `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the set is empty (unreachable for validated sets, but kept
    /// for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks as a slice.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Task by id.
    #[inline]
    pub fn get(&self, id: TaskId) -> &Task {
        &self.tasks[id]
    }

    /// Iterate over `(id, task)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate()
    }

    /// Earliest release time `R̄ = min_i R_i`.
    pub fn earliest_release(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.release)
            .fold(f64::INFINITY, f64::min)
    }

    /// Latest deadline `D̄ = max_i D_i`.
    pub fn latest_deadline(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.deadline)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The scheduling horizon `[R̄, D̄]`.
    pub fn horizon(&self) -> Interval {
        Interval::new(self.earliest_release(), self.latest_deadline())
    }

    /// Total execution requirement `Σ_i C_i`.
    pub fn total_work(&self) -> f64 {
        crate::time::compensated_sum(self.tasks.iter().map(|t| t.wcec))
    }

    /// All distinct release/deadline event points, sorted ascending —
    /// the `t_1 < t_2 < … < t_N` boundary set of Section IV.
    pub fn event_points(&self) -> Vec<f64> {
        let mut pts = Vec::new();
        self.event_points_into(&mut pts);
        pts
    }

    /// [`Self::event_points`] into a caller-owned buffer (cleared first),
    /// so batch pipelines can reuse one allocation across task sets.
    pub fn event_points_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(2 * self.tasks.len());
        for t in &self.tasks {
            out.push(t.release);
            out.push(t.deadline);
        }
        sort_dedup_times(out);
    }

    /// Work released in `[t1, t2]`: the paper's `C(t1, t2)` — total
    /// requirement of tasks with `R_i ≥ t1` and `D_i ≤ t2`. This drives the
    /// YDS intensity computation and feasibility checks.
    pub fn demand(&self, t1: f64, t2: f64) -> f64 {
        crate::time::compensated_sum(
            self.tasks
                .iter()
                .filter(|t| approx_le(t1, t.release) && approx_le(t.deadline, t2))
                .map(|t| t.wcec),
        )
    }

    /// Maximum over all event-point pairs of the interval intensity
    /// `C(t1,t2)/(t2−t1)` — the peak processing density of the set. On a
    /// uniprocessor this is exactly the maximum frequency YDS will use.
    pub fn peak_intensity(&self) -> f64 {
        let pts = self.event_points();
        let mut peak: f64 = 0.0;
        for (a, &t1) in pts.iter().enumerate() {
            for &t2 in &pts[a + 1..] {
                let len = t2 - t1;
                if len > crate::time::EPS {
                    peak = peak.max(self.demand(t1, t2) / len);
                }
            }
        }
        peak
    }

    /// Ids of the tasks whose window covers `iv` (the *overlapping tasks* of
    /// a subinterval, in paper terms).
    pub fn overlapping(&self, iv: &Interval) -> Vec<TaskId> {
        self.iter()
            .filter(|(_, t)| t.covers(iv))
            .map(|(i, _)| i)
            .collect()
    }
}

impl std::ops::Index<TaskId> for TaskSet {
    type Output = Task;
    fn index(&self, id: TaskId) -> &Task {
        &self.tasks[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_intro_tasks() -> TaskSet {
        // Fig. 1(a): R = (0, 2, 4), D = (12, 10, 8), C = (4, 2, 4).
        TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)])
    }

    #[test]
    fn task_validation() {
        assert!(Task::new(0.0, 1.0, 1.0).is_ok());
        assert_eq!(
            Task::new(1.0, 1.0, 1.0),
            Err(TaskError::EmptyWindow { index: 0 })
        );
        assert_eq!(
            Task::new(2.0, 1.0, 1.0),
            Err(TaskError::EmptyWindow { index: 0 })
        );
        assert_eq!(
            Task::new(0.0, 1.0, 0.0),
            Err(TaskError::NonPositiveWork { index: 0 })
        );
        assert_eq!(
            Task::new(f64::NAN, 1.0, 1.0),
            Err(TaskError::NonFinite { index: 0 })
        );
    }

    #[test]
    fn push_and_replace_validate_like_new() {
        let mut ts = paper_intro_tasks();
        let mut bad = Task::of(3.0, 5.0, 2.0);
        bad.wcec = 0.0;
        assert_eq!(ts.push(bad), Err(TaskError::NonPositiveWork { index: 3 }));
        assert_eq!(
            ts.replace(1, bad),
            Err(TaskError::NonPositiveWork { index: 1 })
        );
        assert_eq!(ts, paper_intro_tasks(), "a rejected edit left a trace");
        assert_eq!(ts.push(Task::of(1.0, 5.0, 1.0)), Ok(3));
        ts.replace(0, Task::of(0.0, 6.0, 3.0)).unwrap();
        let edited = [
            (0.0, 6.0, 3.0),
            (2.0, 10.0, 2.0),
            (4.0, 8.0, 4.0),
            (1.0, 5.0, 1.0),
        ];
        assert_eq!(ts, TaskSet::from_triples(&edited));
    }

    #[test]
    fn task_derived_quantities() {
        let t = Task::of(2.0, 10.0, 4.0);
        assert_eq!(t.window_len(), 8.0);
        assert_eq!(t.intensity(), 0.5);
        assert_eq!(t.laxity(), 4.0);
        assert!(t.covers(&Interval::new(4.0, 8.0)));
        assert!(!t.covers(&Interval::new(0.0, 4.0)));
    }

    #[test]
    fn task_set_validation_reports_index() {
        let bad = TaskSet::new(vec![
            Task {
                release: 0.0,
                deadline: 1.0,
                wcec: 1.0,
            },
            Task {
                release: 3.0,
                deadline: 2.0,
                wcec: 1.0,
            },
        ]);
        assert_eq!(bad, Err(TaskError::EmptyWindow { index: 1 }));
        assert_eq!(TaskSet::new(vec![]), Err(TaskError::EmptySet));
    }

    #[test]
    fn horizon_and_events() {
        let ts = paper_intro_tasks();
        assert_eq!(ts.earliest_release(), 0.0);
        assert_eq!(ts.latest_deadline(), 12.0);
        assert_eq!(ts.event_points(), vec![0.0, 2.0, 4.0, 8.0, 10.0, 12.0]);
        assert_eq!(ts.total_work(), 10.0);
    }

    #[test]
    fn demand_matches_paper_intro_example() {
        let ts = paper_intro_tasks();
        // Only τ3 = (4, 8, 4) is fully inside [4, 8].
        assert_eq!(ts.demand(4.0, 8.0), 4.0);
        // All three tasks inside the full horizon.
        assert_eq!(ts.demand(0.0, 12.0), 10.0);
        // Nothing fits into [0, 4].
        assert_eq!(ts.demand(0.0, 4.0), 0.0);
    }

    #[test]
    fn peak_intensity_matches_yds_first_interval() {
        // The paper: the max-intensity interval is [4, 8] with intensity 1.
        let ts = paper_intro_tasks();
        assert!((ts.peak_intensity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_tasks_of_a_subinterval() {
        let ts = paper_intro_tasks();
        // During [4, 8] all three windows cover the subinterval.
        assert_eq!(ts.overlapping(&Interval::new(4.0, 8.0)), vec![0, 1, 2]);
        // During [0, 2] only τ1 has been released.
        assert_eq!(ts.overlapping(&Interval::new(0.0, 2.0)), vec![0]);
        // During [10, 12] only τ1's deadline is still open.
        assert_eq!(ts.overlapping(&Interval::new(10.0, 12.0)), vec![0]);
    }

    #[test]
    fn json_round_trip() {
        use esched_obs::json::{parse, FromJson, ToJson};
        let ts = paper_intro_tasks();
        let json = ts.to_json().to_string();
        let back = TaskSet::from_json(&parse(&json).unwrap()).unwrap();
        assert_eq!(ts, back);
    }
}
