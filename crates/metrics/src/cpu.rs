//! CPU-time accounting by thread class.
//!
//! §7.3 of the paper compares total CPU time across schemes and attributes
//! most of the overhead to GC threads ("Fleet incurs an additional 0.16% CPU
//! time compared to Android on average"). [`CpuAccounting`] tracks simulated
//! CPU time per [`ThreadClass`] so the experiment driver can report the same
//! breakdown.

use fleet_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Classification of who consumed CPU time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThreadClass {
    /// Application (mutator) threads.
    Mutator,
    /// The garbage-collector thread.
    Gc,
    /// Kernel work on behalf of the process (reclaim, swap I/O management).
    Kernel,
}

impl ThreadClass {
    /// All classes, in reporting order.
    pub const ALL: [ThreadClass; 3] = [ThreadClass::Mutator, ThreadClass::Gc, ThreadClass::Kernel];
}

impl std::fmt::Display for ThreadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadClass::Mutator => write!(f, "mutator"),
            ThreadClass::Gc => write!(f, "gc"),
            ThreadClass::Kernel => write!(f, "kernel"),
        }
    }
}

/// Accumulated CPU time per thread class.
///
/// # Examples
///
/// ```
/// use fleet_metrics::{CpuAccounting, ThreadClass};
/// use fleet_sim::SimDuration;
///
/// let mut cpu = CpuAccounting::new();
/// cpu.charge(ThreadClass::Mutator, SimDuration::from_millis(900));
/// cpu.charge(ThreadClass::Gc, SimDuration::from_millis(100));
/// assert!((cpu.share_percent(ThreadClass::Gc) - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuAccounting {
    mutator: SimDuration,
    gc: SimDuration,
    kernel: SimDuration,
}

impl CpuAccounting {
    /// Creates an empty accounting record.
    pub fn new() -> Self {
        CpuAccounting::default()
    }

    /// Charges `dt` of CPU time to `class`.
    pub fn charge(&mut self, class: ThreadClass, dt: SimDuration) {
        *self.slot_mut(class) += dt;
    }

    fn slot_mut(&mut self, class: ThreadClass) -> &mut SimDuration {
        match class {
            ThreadClass::Mutator => &mut self.mutator,
            ThreadClass::Gc => &mut self.gc,
            ThreadClass::Kernel => &mut self.kernel,
        }
    }

    /// CPU time charged to `class`.
    pub fn time(&self, class: ThreadClass) -> SimDuration {
        match class {
            ThreadClass::Mutator => self.mutator,
            ThreadClass::Gc => self.gc,
            ThreadClass::Kernel => self.kernel,
        }
    }

    /// Total CPU time across all classes.
    pub fn total(&self) -> SimDuration {
        self.mutator + self.gc + self.kernel
    }

    /// Percentage of total CPU time consumed by `class` (0 when idle).
    pub fn share_percent(&self, class: ThreadClass) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            0.0
        } else {
            100.0 * self.time(class).as_nanos() as f64 / total as f64
        }
    }

    /// Merges another accounting record into this one.
    pub fn merge(&mut self, other: &CpuAccounting) {
        self.mutator += other.mutator;
        self.gc += other.gc;
        self.kernel += other.kernel;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_class() {
        let mut cpu = CpuAccounting::new();
        cpu.charge(ThreadClass::Mutator, SimDuration::from_millis(10));
        cpu.charge(ThreadClass::Mutator, SimDuration::from_millis(5));
        cpu.charge(ThreadClass::Gc, SimDuration::from_millis(3));
        cpu.charge(ThreadClass::Kernel, SimDuration::from_millis(2));
        assert_eq!(cpu.time(ThreadClass::Mutator), SimDuration::from_millis(15));
        assert_eq!(cpu.total(), SimDuration::from_millis(20));
    }

    #[test]
    fn shares_sum_to_100() {
        let mut cpu = CpuAccounting::new();
        for class in ThreadClass::ALL {
            cpu.charge(class, SimDuration::from_millis(10));
        }
        let sum: f64 = ThreadClass::ALL.iter().map(|&c| cpu.share_percent(c)).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn idle_record_has_zero_shares() {
        let cpu = CpuAccounting::new();
        assert_eq!(cpu.share_percent(ThreadClass::Gc), 0.0);
    }

    #[test]
    fn merge_combines_all_classes() {
        let mut a = CpuAccounting::new();
        a.charge(ThreadClass::Gc, SimDuration::from_millis(1));
        let mut b = CpuAccounting::new();
        b.charge(ThreadClass::Gc, SimDuration::from_millis(2));
        b.charge(ThreadClass::Kernel, SimDuration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.time(ThreadClass::Gc), SimDuration::from_millis(3));
        assert_eq!(a.time(ThreadClass::Kernel), SimDuration::from_millis(3));
    }
}
