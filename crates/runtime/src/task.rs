//! TinyOS task model: cooperative, non-preemptive tasks with splitting.
//!
//! "Generated TinyOS tasks must be neither too short nor too long. Tasks
//! with very short durations incur unnecessary overhead, and tasks that run
//! too long degrade system performance" (§5.2). The compiler CPS-converts
//! work functions so that `emit` is a yield point and, "based on profiling
//! data, additional yield points can be inserted to split tasks to adjust
//! granularity" — using the loop begin/end timestamps and iteration counts
//! collected by the profiler (§3).

/// Task-granularity model for a node runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskModel {
    /// Target maximum duration of a single task, seconds. Operator
    /// invocations longer than this are split at loop boundaries.
    pub max_task_s: f64,
    /// Fixed scheduling overhead per posted task, seconds (post + dispatch).
    pub task_overhead_s: f64,
}

impl TaskModel {
    /// Defaults appropriate for a TinyOS-class mote: tasks should stay in
    /// the low-millisecond range; posting costs tens of microseconds.
    pub fn tinyos() -> Self {
        TaskModel {
            max_task_s: 0.005,
            task_overhead_s: 30e-6,
        }
    }

    /// A model with no splitting and negligible overhead (threaded OSes:
    /// the C backend "requires virtually no runtime", §5.1).
    pub fn threaded() -> Self {
        TaskModel {
            max_task_s: f64::INFINITY,
            task_overhead_s: 1e-6,
        }
    }

    /// How many tasks one operator invocation of `busy_s` seconds becomes.
    ///
    /// Only the loop-resident share of the work (`loop_fraction`) can be
    /// subdivided — straight-line code cannot be split, exactly as in the
    /// paper where splitting happens at loop boundaries.
    pub(crate) fn tasks_for(&self, busy_s: f64, loop_fraction: f64) -> u32 {
        if busy_s <= self.max_task_s || !self.max_task_s.is_finite() {
            return 1;
        }
        let divisible = busy_s * loop_fraction.clamp(0.0, 1.0);
        let indivisible = busy_s - divisible;
        if divisible <= 0.0 {
            return 1;
        }
        // The indivisible part rides in one slice; the divisible part is
        // cut so no slice exceeds max_task_s.
        let slices = (divisible / (self.max_task_s - indivisible.min(self.max_task_s * 0.5)))
            .ceil()
            .max(1.0);
        slices.min(1e6) as u32
    }

    /// Wall-clock cost of one invocation including task overheads.
    pub fn total_time(&self, busy_s: f64, loop_fraction: f64) -> f64 {
        let tasks = self.tasks_for(busy_s, loop_fraction);
        busy_s + f64::from(tasks) * self.task_overhead_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_tasks_are_not_split() {
        let m = TaskModel::tinyos();
        assert_eq!(m.tasks_for(0.001, 1.0), 1);
        assert_eq!(m.tasks_for(0.005, 1.0), 1);
    }

    #[test]
    fn long_loopy_tasks_split() {
        let m = TaskModel::tinyos();
        let t = m.tasks_for(0.050, 0.95);
        assert!(
            t >= 10,
            "50ms of loop work should split into >=10 slices, got {t}"
        );
    }

    #[test]
    fn straight_line_code_cannot_split() {
        let m = TaskModel::tinyos();
        assert_eq!(m.tasks_for(0.050, 0.0), 1);
    }

    #[test]
    fn total_time_includes_overheads() {
        let m = TaskModel {
            max_task_s: 0.01,
            task_overhead_s: 0.001,
        };
        let t = m.total_time(0.05, 1.0);
        assert!(t > 0.05 + 0.004, "five-way split adds >=5 overheads: {t}");
        // Overhead is proportionally small for sane parameters.
        let m2 = TaskModel::tinyos();
        let t2 = m2.total_time(0.002, 1.0);
        assert!(t2 < 0.00207);
    }

    #[test]
    fn threaded_model_never_splits() {
        let m = TaskModel::threaded();
        assert_eq!(m.tasks_for(10.0, 1.0), 1);
    }
}
