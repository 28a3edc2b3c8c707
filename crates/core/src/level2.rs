//! Level 2: the HW/SW-partitioned timed transaction-level model.
//!
//! "At level 2, the description obtained is mapped onto an architecture …
//! simulation is used intensively for evaluating the different possible
//! architectures" (§3.2). This module runs the shared timed model on
//! [`TimedSetup::level2`] — the paper's level-2 partition with a
//! hardwired matcher (no reconfigurable hardware yet) — and dimensions
//! its FIFO channels with LPV. Other partitions and platforms are
//! [`timed::run`] on a changed setup (the exploration sweeps of
//! [`crate::explore`]).

use crate::partition::{ArchConfig, Partition};
use crate::timed::{self, TimedReport, TimedSetup};
use crate::workload::Workload;
use sim::SimError;

/// Runs the level-2 model with the paper's default partition; bus spans,
/// FIFO gauges, and kernel counters are reported through `instrument`.
///
/// ```
/// let workload = symbad_core::Workload::small();
/// let report = symbad_core::level2::run_instrumented(&workload, &telemetry::noop())
///     .expect("level-2 simulation");
/// // The timed mapping must preserve level-1 functionality and yield a
/// // measurable throughput — the quantities §3.2 simulates for.
/// assert!(report.matches_reference);
/// assert!(report.ticks_per_frame > 0.0);
/// ```
///
/// # Errors
///
/// Propagates kernel errors.
pub fn run_instrumented(
    workload: &Workload,
    instrument: &telemetry::SharedInstrument,
) -> Result<TimedReport, SimError> {
    timed::run(TimedSetup::level2(workload), instrument).map_err(timed::fault_free)
}

/// LPV FIFO dimensioning applied to the level-2 model's own channels:
/// derives producer/consumer rates from the annotated module timings and
/// returns the minimal safe capacity per inter-process channel, each
/// channel dimensioned as an independent LP obligation, optionally across
/// worker threads. Bounds are bit-identical to the sequential run (the
/// rate derivation is pure and the batch preserves channel order).
///
/// The returned bounds are what E6 calls "FIFO channel dimensioning";
/// `tests/sim_tlm_properties.rs` checks the LP bound against watermarks
/// observed in simulation.
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
/// channels, by channel name: what [`dimension_channels_mode`] dimensions.
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

    fn run(workload: &Workload) -> TimedReport {
        run_instrumented(workload, &telemetry::noop()).expect("level-2 run")
    }

    #[test]
    fn level2_matches_reference() {
        let w = Workload::small();
        let report = run(&w);
        assert!(report.matches_reference, "mismatch: {:?}", report.mismatch);
        assert!(report.total_ticks > 0, "time must advance at level 2");
        assert!(report.fpga.is_none());
    }

    #[test]
    fn level2_matches_level1_functionally() {
        let w = Workload::small();
        let l1 = crate::level1::run_instrumented(&w, &telemetry::noop()).expect("level 1");
        let l2 = run(&w);
        assert_eq!(l1.recognized, l2.recognized);
        // Full untimed trace equivalence between adjacent levels — the
        // paper's per-refinement verification step.
        assert!(l1.trace.matches_untimed(&l2.trace).is_ok());
    }

    #[test]
    fn bus_sees_traffic_from_all_masters() {
        let w = Workload::small();
        let report = run(&w);
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
        let (partition, arch) = (Partition::paper_level2(), ArchConfig::default());
        let bounds = dimension_channels_mode(&w, &partition, &arch, exec::ExecMode::Sequential);
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
        let reference = dimension_channels_mode(&w, &partition, &arch, exec::ExecMode::Sequential);
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
        let hw = run(&w);
        let all_sw = TimedSetup {
            partition: Partition::all_sw(),
            ..TimedSetup::level2(&w)
        };
        let sw = timed::run(all_sw, &telemetry::noop()).expect("all-sw");
        assert!(
            sw.total_ticks > 2 * hw.total_ticks,
            "all-SW ({}) should be far slower than partitioned ({})",
            sw.total_ticks,
            hw.total_ticks
        );
        assert_eq!(sw.recognized, hw.recognized, "functionality unchanged");
    }
}
