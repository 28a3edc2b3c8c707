//! Run statistics.
//!
//! [`Stats`] counts the kernel's work over one run: polls, delta cycles,
//! time steps, wakeups, notifications and signal changes. Experiments
//! E1–E3 and E11 report *simulation speed* — simulated cycles per
//! wall-clock second, the figure the paper quotes as "200 kHz" (level 2)
//! and "30 kHz" (level 3) on the authors' workstation; the benchmark
//! computes it from a level's simulated ticks and its own wall clock.

use crate::time::SimTime;

/// Counters accumulated over one [`crate::Simulator::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total process polls performed.
    pub polls: u64,
    /// Delta cycles executed.
    pub delta_cycles: u64,
    /// Distinct time points at which activity occurred.
    pub time_steps: u64,
    /// Timed wakeups scheduled.
    pub timed_wakeups: u64,
    /// Event notifications delivered.
    pub notifications: u64,
    /// Signal updates that changed a committed value.
    pub signal_changes: u64,
    /// Final simulation time reached.
    pub final_time: SimTime,
}
