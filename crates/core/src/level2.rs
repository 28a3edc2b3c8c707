//! Level 2: the HW/SW-partitioned timed transaction-level model.
//!
//! "At level 2, the description obtained is mapped onto an architecture …
//! simulation is used intensively for evaluating the different possible
//! architectures" (§3.2). This module instantiates the shared timed model
//! with a hardwired matcher (no reconfigurable hardware yet) and the
//! paper's level-2 partition by default.

use crate::level1::reference_trace;
use crate::msg::Msg;
use crate::partition::{ArchConfig, Partition};
use crate::timed::{self, MatcherKind, RecoveryPolicy, RunError, TimedReport, TimedSetup};
use crate::workload::Workload;
use sim::{SimError, Trace};

/// Runs the level-2 model with the paper's default partition.
///
/// ```
/// let workload = symbad_core::Workload::small();
/// let report = symbad_core::level2::run(&workload).expect("level-2 simulation");
/// // The timed mapping must preserve level-1 functionality and yield a
/// // measurable throughput — the quantities §3.2 simulates for.
/// assert!(report.matches_reference);
/// assert!(report.ticks_per_frame > 0.0);
/// ```
///
/// # Errors
///
/// Propagates kernel errors.
pub fn run(workload: &Workload) -> Result<TimedReport, SimError> {
    run_with(workload, &Partition::paper_level2(), &ArchConfig::default())
}

/// [`run`] with telemetry: bus spans, FIFO gauges, and kernel counters are
/// reported through `instrument`.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn run_instrumented(
    workload: &Workload,
    instrument: &telemetry::SharedInstrument,
) -> Result<TimedReport, SimError> {
    let expected = reference_trace(&workload.reference_results());
    run_against(workload, &expected, instrument)
}

/// The level-2 body: runs the paper's level-2 mapping and compares its
/// trace with `expected`, the workload's [`reference_trace`].
///
/// # Errors
///
/// Propagates kernel errors.
pub(crate) fn run_against(
    workload: &Workload,
    expected: &Trace<Msg>,
    instrument: &telemetry::SharedInstrument,
) -> Result<TimedReport, SimError> {
    let setup = TimedSetup {
        workload,
        partition: &Partition::paper_level2(),
        arch: &ArchConfig::default(),
        matcher_kind: MatcherKind::Hardwired,
        faults: None,
        recovery: RecoveryPolicy::default(),
    };
    timed::run_against(setup, expected, instrument).map_err(|e| match e {
        RunError::Sim(e) => e,
        RunError::Platform(f) => unreachable!("platform fault without a fault plan: {f}"),
    })
}

/// Runs the level-2 model with an explicit partition and platform
/// configuration (the architecture-exploration entry point).
///
/// # Errors
///
/// Propagates kernel errors.
pub fn run_with(
    workload: &Workload,
    partition: &Partition,
    arch: &ArchConfig,
) -> Result<TimedReport, SimError> {
    timed::run(workload, partition, arch, MatcherKind::Hardwired)
}

/// LPV FIFO dimensioning applied to the level-2 model's own channels:
/// derives producer/consumer rates from the annotated module timings and
/// returns the minimal safe capacity per inter-process channel.
///
/// The returned bounds are what E6 calls "FIFO channel dimensioning"; the
/// test below checks them against watermarks observed in simulation.
pub fn dimension_channels(
    workload: &Workload,
    partition: &Partition,
    arch: &ArchConfig,
) -> Vec<(String, lp::FifoBound)> {
    dimension_channels_mode(workload, partition, arch, exec::ExecMode::Sequential)
}

/// [`dimension_channels`] with each channel dimensioned as an independent
/// LP obligation, optionally across worker threads. Bounds are
/// bit-identical to the sequential run (the rate derivation is pure and
/// the batch preserves channel order).
pub fn dimension_channels_mode(
    workload: &Workload,
    partition: &Partition,
    arch: &ArchConfig,
    mode: exec::ExecMode,
) -> Vec<(String, lp::FifoBound)> {
    let (names, rates): (Vec<&str>, Vec<lp::ChannelRates>) =
        channel_rates(workload, partition, arch).into_iter().unzip();
    let bounds = lp::dimension_fifo_batch(&rates, mode);
    names.into_iter().map(str::to_owned).zip(bounds).collect()
}

/// The producer/consumer rates of the level-2 model's inter-process
/// channels, by channel name: what [`dimension_channels`] dimensions.
pub fn channel_rates(
    workload: &Workload,
    partition: &Partition,
    arch: &ArchConfig,
) -> [(&'static str, lp::ChannelRates); 2] {
    use media::profile::module_mix;
    let config = workload.dataset.config();
    let gallery = workload.gallery_len();
    let charge = |module: &str| -> u64 {
        let mix = module_mix(module, config, gallery);
        match partition.domain(module) {
            crate::Domain::Sw => arch.cpu.cycles(mix),
            _ => arch.hw_cycles(mix.total()),
        }
    };
    // Channel `front→cpu`: producer = HW front-end (camera+bay+erosion per
    // frame), consumer = CPU task (SW front half + match orchestration).
    let front_period: u64 = ["camera", "bay", "erosion"].iter().map(|m| charge(m)).sum();
    let cpu_period: u64 = [
        "edge", "ellipse", "crtbord", "crtline", "calcline", "winner",
    ]
    .iter()
    .map(|m| charge(m))
    .sum::<u64>()
        + charge("distance")
        + charge("calcdist")
        + charge("root");
    let horizon = (front_period + cpu_period) * workload.probes.len() as u64;
    // Channel `matcher→cpu`: the matcher bursts one response per gallery
    // entry while the CPU drains them one at a time.
    let match_entry: u64 = (charge("distance") + charge("calcdist"))
        .div_ceil(gallery as u64)
        .max(1);
    [
        (
            "front→cpu",
            lp::ChannelRates {
                producer_burst: 1,
                producer_period: front_period.max(1),
                consumer_period: cpu_period.max(1),
                consumer_latency: 0,
                horizon: horizon.max(1),
            },
        ),
        (
            "matcher→cpu",
            lp::ChannelRates {
                producer_burst: 1,
                producer_period: match_entry,
                consumer_period: 1,
                consumer_latency: match_entry * gallery as u64,
                horizon: horizon.max(1),
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level2_matches_reference() {
        let w = Workload::small();
        let report = run(&w).expect("level-2 run");
        assert!(report.matches_reference, "mismatch: {:?}", report.mismatch);
        assert!(report.total_ticks > 0, "time must advance at level 2");
        assert!(report.fpga.is_none());
    }

    #[test]
    fn level2_matches_level1_functionally() {
        let w = Workload::small();
        let l1 = crate::level1::run(&w).expect("level 1");
        let l2 = run(&w).expect("level 2");
        assert_eq!(l1.recognized, l2.recognized);
        // Full untimed trace equivalence between adjacent levels — the
        // paper's per-refinement verification step.
        assert!(l1.trace.matches_untimed(&l2.trace).is_ok());
    }

    #[test]
    fn bus_sees_traffic_from_all_masters() {
        let w = Workload::small();
        let report = run(&w).expect("run");
        for m in &report.bus.masters {
            assert!(
                m.transactions > 0,
                "master {} issued no transactions",
                m.name
            );
        }
        assert!(report.bus.utilization > 0.0);
    }

    #[test]
    fn lpv_fifo_bounds_are_positive_and_finite() {
        let w = Workload::small();
        let bounds = dimension_channels(&w, &Partition::paper_level2(), &ArchConfig::default());
        assert_eq!(bounds.len(), 2);
        for (name, b) in &bounds {
            assert!(b.capacity >= 1, "{name} bound must be at least one token");
            assert!(
                b.capacity <= 4096,
                "{name} bound implausibly large: {}",
                b.capacity
            );
        }
        // The slow-consumer response channel needs more slack than the
        // frame channel (the matcher bursts a whole gallery's worth).
        assert!(bounds[1].1.capacity >= bounds[0].1.capacity);
    }

    #[test]
    fn parallel_dimensioning_is_bit_identical() {
        let w = Workload::small();
        let partition = Partition::paper_level2();
        let arch = ArchConfig::default();
        let reference = dimension_channels(&w, &partition, &arch);
        for workers in [2, 8] {
            assert_eq!(
                dimension_channels_mode(
                    &w,
                    &partition,
                    &arch,
                    exec::ExecMode::Parallel { workers }
                ),
                reference
            );
        }
    }

    #[test]
    fn all_sw_partition_is_much_slower() {
        let w = Workload::small();
        let hw = run(&w).expect("partitioned");
        let sw = run_with(&w, &Partition::all_sw(), &ArchConfig::default()).expect("all-sw");
        assert!(
            sw.total_ticks > 2 * hw.total_ticks,
            "all-SW ({}) should be far slower than partitioned ({})",
            sw.total_ticks,
            hw.total_ticks
        );
        assert_eq!(sw.recognized, hw.recognized, "functionality unchanged");
    }
}
