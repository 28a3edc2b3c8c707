//! Level 3: the reconfigurable platform model.
//!
//! "Level 3 of the methodology flow is the heart of the reconfigurable
//! platform. Here the dynamic reconfigurable device (FPGA) is instantiated
//! into the design and some of the HW modules … are carried inside the
//! FPGA" (§4.1). DISTANCE (with its CALCDIST accumulator) and ROOT live in
//! contexts `config1`/`config2`; the software loads a configuration before
//! calling into it, and bitstream downloads ride the same bus as the data.
//!
//! This module runs the shared timed model on [`TimedSetup::level3`].
//! Other context splits, reconfiguration strategies, platforms, fault
//! campaigns and TL/RTL co-simulation are [`timed::run`] on a changed
//! setup.

use crate::timed::{self, TimedReport, TimedSetup};
use crate::workload::Workload;
use sim::SimError;

/// Runs the level-3 model with the paper's context split and hoisted
/// reconfiguration ([`TimedSetup::level3`]); bus spans, per-frame CPU
/// spans, FPGA reconfiguration spans and latency histograms, and kernel
/// counters are reported through `instrument`.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn run_instrumented(
    workload: &Workload,
    instrument: &telemetry::SharedInstrument,
) -> Result<TimedReport, SimError> {
    timed::run(TimedSetup::level3(workload), instrument).map_err(timed::fault_free)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::{MatcherKind, ReconfigStrategy};
    use crate::Partition;

    fn run(setup: TimedSetup<'_>) -> TimedReport {
        timed::run(setup, &telemetry::noop()).expect("level-3 run")
    }

    fn with_matcher(w: &Workload, strategy: ReconfigStrategy, rtl_cosim: bool) -> TimedSetup<'_> {
        TimedSetup {
            matcher_kind: MatcherKind::Fpga {
                strategy,
                rtl_cosim,
            },
            ..TimedSetup::level3(w)
        }
    }

    #[test]
    fn level3_matches_reference_and_level2() {
        let w = Workload::small();
        let l3 = run_instrumented(&w, &telemetry::noop()).expect("level-3 run");
        assert!(l3.matches_reference, "mismatch: {:?}", l3.mismatch);
        let l2 = run(TimedSetup::level2(&w));
        assert_eq!(l2.recognized, l3.recognized);
        assert!(l2.trace.matches_untimed(&l3.trace).is_ok());
    }

    #[test]
    fn reconfiguration_costs_time_and_bus() {
        let w = Workload::small();
        let l2 = run(TimedSetup::level2(&w));
        let l3 = run(TimedSetup::level3(&w));
        let fpga = l3.fpga.as_ref().expect("level 3 has an FPGA");
        // Two contexts ping-pong once per frame: 2 reconfigs per frame
        // (the very first distance load included).
        assert_eq!(fpga.reconfigurations, 2 * w.probes.len() as u64);
        assert!(fpga.download_words > 0);
        // Reconfiguration + slower fabric make level 3 slower than level 2.
        assert!(
            l3.total_ticks > l2.total_ticks,
            "l3 {} vs l2 {}",
            l3.total_ticks,
            l2.total_ticks
        );
    }

    #[test]
    fn rtl_cosimulation_is_functionally_identical() {
        let w = Workload::small();
        let native = run(TimedSetup::level3(&w));
        let cosim = run(with_matcher(&w, ReconfigStrategy::Hoisted, true));
        // Same recognitions, same trace, same simulated time — only the
        // host-side cost differs (measured in the report/bench harness).
        assert_eq!(native.recognized, cosim.recognized);
        assert!(native.trace.matches_untimed(&cosim.trace).is_ok());
        assert_eq!(native.total_ticks, cosim.total_ticks);
    }

    #[test]
    fn naive_strategy_reconfigures_far_more() {
        let w = Workload::small();
        let hoisted = run(TimedSetup::level3(&w));
        let naive = run(with_matcher(&w, ReconfigStrategy::Naive, false));
        let h = hoisted.fpga.as_ref().unwrap().reconfigurations;
        let n = naive.fpga.as_ref().unwrap().reconfigurations;
        assert!(
            n > 4 * h,
            "naive ({n}) must reconfigure much more than hoisted ({h})"
        );
        assert!(naive.total_ticks > hoisted.total_ticks);
        assert_eq!(naive.recognized, hoisted.recognized);
    }

    #[test]
    fn merged_context_avoids_ping_pong() {
        let w = Workload::small();
        let split = run(TimedSetup::level3(&w));
        let merged = run(TimedSetup {
            partition: Partition::merged_context(),
            ..TimedSetup::level3(&w)
        });
        let ms = merged.fpga.as_ref().unwrap();
        let ss = split.fpga.as_ref().unwrap();
        // One context: a single download, ever.
        assert_eq!(ms.reconfigurations, 1);
        assert!(ss.reconfigurations > ms.reconfigurations);
        assert_eq!(merged.recognized, split.recognized);
    }
}
