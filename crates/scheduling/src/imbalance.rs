//! Schedules and imbalance metrics.

use serde::{Deserialize, Serialize};

use flexoffers_model::Assignment;
use flexoffers_timeseries::ops::{pointwise_min, sum_spans};
use flexoffers_timeseries::{Norm, Series};

/// One assignment per flex-offer of a
/// [`SchedulingProblem`](crate::SchedulingProblem), positionally paired.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    assignments: Vec<Assignment>,
}

impl Schedule {
    /// Creates a schedule from per-offer assignments.
    pub fn new(assignments: Vec<Assignment>) -> Self {
        Self { assignments }
    }

    /// The per-offer assignments.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// The summed load series of all assignments, accumulated in one pass
    /// into one buffer over the hull of their profiles.
    pub fn load(&self) -> Series<i64> {
        sum_spans(self.assignments.iter().map(|a| (a.start(), a.values())))
    }

    /// Imbalance of this schedule's load against `target`.
    pub fn imbalance(&self, target: &Series<i64>) -> Imbalance {
        Imbalance::between(&self.load(), target)
    }
}

/// Deviation metrics between a realized load and a target profile.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Imbalance {
    /// Total absolute deviation (the energy volume settled at penalty
    /// prices in Scenario 2).
    pub l1: f64,
    /// Euclidean deviation (the usual scheduling objective).
    pub l2: f64,
    /// Worst single-slot deviation (what a congested feeder cares about).
    pub peak: f64,
}

impl Imbalance {
    /// Computes all metrics between `load` and `target`.
    pub fn between(load: &Series<i64>, target: &Series<i64>) -> Self {
        let diff = load - target;
        Imbalance {
            l1: Norm::L1.of(&diff),
            l2: Norm::L2.of(&diff),
            peak: Norm::LInf.of(&diff),
        }
    }
}

/// Fraction of a (non-negative) target actually covered by the load:
/// `sum(min(load, target)) / sum(target)`, clamped to `[0, 1]`. In the RES
/// experiments the target is forecast renewable production and coverage is
/// "how much green energy the flexible demand absorbed"; 1.0 when the
/// target is empty.
pub fn coverage(load: &Series<i64>, target: &Series<i64>) -> f64 {
    let total: i64 = target.iter().map(|(_, v)| v.max(0)).sum();
    if total == 0 {
        return 1.0;
    }
    let covered: i64 = pointwise_min(load, target)
        .iter()
        .map(|(_, v)| v.max(0))
        .sum();
    (covered as f64 / total as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_sums_assignments() {
        let s = Schedule::new(vec![
            Assignment::new(0, vec![1, 2]),
            Assignment::new(1, vec![3]),
        ]);
        assert_eq!(s.load(), Series::new(0, vec![1, 5]));
    }

    #[test]
    fn empty_schedule_has_empty_load() {
        let s = Schedule::new(vec![]);
        assert!(s.load().is_empty());
    }

    #[test]
    fn imbalance_metrics() {
        let load = Series::new(0, vec![3, 0]);
        let target = Series::new(0, vec![0, 4]);
        let im = Imbalance::between(&load, &target);
        assert_eq!(im.l1, 7.0);
        assert_eq!(im.l2, 5.0);
        assert_eq!(im.peak, 4.0);
    }

    #[test]
    fn perfect_tracking_is_zero_imbalance() {
        let load = Series::new(2, vec![1, 2, 3]);
        let im = Imbalance::between(&load, &load.clone());
        assert_eq!((im.l1, im.l2, im.peak), (0.0, 0.0, 0.0));
    }

    #[test]
    fn coverage_full_partial_none() {
        let target = Series::new(0, vec![2, 2]);
        assert_eq!(coverage(&Series::new(0, vec![2, 2]), &target), 1.0);
        assert_eq!(coverage(&Series::new(0, vec![2, 0]), &target), 0.5);
        assert_eq!(coverage(&Series::empty(), &target), 0.0);
        // Overshoot does not count extra.
        assert_eq!(coverage(&Series::new(0, vec![9, 9]), &target), 1.0);
    }

    #[test]
    fn coverage_of_empty_target_is_one() {
        assert_eq!(coverage(&Series::new(0, vec![5]), &Series::empty()), 1.0);
    }

    #[test]
    fn schedule_imbalance_convenience() {
        let s = Schedule::new(vec![Assignment::new(0, vec![1])]);
        let target = Series::new(0, vec![1]);
        assert_eq!(s.imbalance(&target).l1, 0.0);
    }
}
