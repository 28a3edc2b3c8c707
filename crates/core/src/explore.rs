//! Architecture exploration: the level-2/3 design-space sweeps.
//!
//! "This process includes a number of iterations through II-III-IV steps to
//! find the best product trade-off" (§2). The sweeps here regenerate the
//! exploration data of experiments E9 (context partitioning) and E10
//! (reconfiguration placement), plus the HW/SW partition curve that
//! motivates the level-2 mapping.

use crate::level1::reference_trace;
use crate::msg::Msg;
use crate::partition::{ArchConfig, Domain, Partition};
use crate::timed::{self, MatcherKind, ReconfigStrategy, TimedSetup};
use crate::workload::Workload;
use media::profile::build_profile;
use sim::{SimError, Trace};

/// One point of an exploration sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Candidate label.
    pub name: String,
    /// Total simulated ticks for the workload.
    pub total_ticks: u64,
    /// Ticks per frame.
    pub ticks_per_frame: f64,
    /// Bus utilization (0..1).
    pub bus_utilization: f64,
    /// FPGA reconfigurations (0 when no FPGA).
    pub reconfigurations: u64,
    /// Bitstream words downloaded.
    pub download_words: u64,
    /// Whether the candidate still recognizes probes identically to the
    /// reference (functionality must never change during exploration).
    pub functional: bool,
}

/// Simulates the candidate `setup` and summarizes it as a sweep point.
/// `expected` is the workload's reference trace, which a sweep builds
/// once for all its points.
fn point(name: &str, setup: TimedSetup<'_>, expected: &Trace<Msg>) -> Result<SweepPoint, SimError> {
    let report =
        timed::run_against(setup, expected, &telemetry::noop()).map_err(timed::fault_free)?;
    Ok(SweepPoint {
        name: name.to_owned(),
        total_ticks: report.total_ticks,
        ticks_per_frame: report.ticks_per_frame,
        bus_utilization: report.bus.utilization,
        reconfigurations: report
            .fpga
            .as_ref()
            .map(|f| f.reconfigurations)
            .unwrap_or(0),
        download_words: report.fpga.as_ref().map(|f| f.download_words).unwrap_or(0),
        functional: report.matches_reference,
    })
}

/// The HW/SW partition curve: starting from all-SW, the profiling ranking's
/// heaviest HW-mappable modules are moved to hardware one by one.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn partition_sweep(
    workload: &Workload,
    arch: &ArchConfig,
) -> Result<Vec<SweepPoint>, SimError> {
    const HW_MAPPABLE: [&str; 8] = [
        "camera", "bay", "erosion", "edge", "ellipse", "distance", "calcdist", "root",
    ];
    let profile = build_profile(workload.dataset.config(), workload.gallery_len());
    let ranked: Vec<&str> = profile
        .ranking()
        .into_iter()
        .map(|(m, _)| m)
        .filter(|m| HW_MAPPABLE.contains(m))
        .collect();

    let expected = reference_trace(&workload.reference_results());
    let mut setup = TimedSetup {
        partition: Partition::all_sw(),
        arch: arch.clone(),
        ..TimedSetup::level2(workload)
    };
    let mut points = vec![point("0 HW modules", setup.clone(), &expected)?];
    for (k, module) in ranked.iter().enumerate() {
        setup.partition.assign(module, Domain::Hw);
        let name = format!("{} HW modules (+{})", k + 1, module);
        points.push(point(&name, setup.clone(), &expected)?);
    }
    Ok(points)
}

/// E9: context-partitioning ablation — static hardwired matcher vs the
/// paper's config1/config2 split vs a single merged context, all on the
/// platform `arch`.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn context_ablation(
    workload: &Workload,
    arch: &ArchConfig,
) -> Result<Vec<SweepPoint>, SimError> {
    let split = TimedSetup {
        arch: arch.clone(),
        ..TimedSetup::level3(workload)
    };
    let static_hw = TimedSetup {
        arch: arch.clone(),
        ..TimedSetup::level2(workload)
    };
    let merged = TimedSetup {
        partition: Partition::merged_context(),
        ..split.clone()
    };
    let expected = reference_trace(&workload.reference_results());
    Ok(vec![
        point("static HW (no FPGA)", static_hw, &expected)?,
        point("split contexts (config1/config2)", split, &expected)?,
        point("merged single context", merged, &expected)?,
    ])
}

/// E10: reconfiguration-placement ablation — hoisted vs naive call-site
/// instrumentation on the paper's split-context mapping.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn strategy_ablation(
    workload: &Workload,
    arch: &ArchConfig,
) -> Result<Vec<SweepPoint>, SimError> {
    let expected = reference_trace(&workload.reference_results());
    let mut points = Vec::new();
    for (name, strategy) in [
        ("hoisted reconfiguration", ReconfigStrategy::Hoisted),
        ("naive per-call reconfiguration", ReconfigStrategy::Naive),
    ] {
        let setup = TimedSetup {
            arch: arch.clone(),
            matcher_kind: MatcherKind::Fpga {
                strategy,
                rtl_cosim: false,
            },
            ..TimedSetup::level3(workload)
        };
        points.push(point(name, setup, &expected)?);
    }
    Ok(points)
}

/// Bus-bandwidth sweep on the level-3 mapping: the paper's architecture
/// exploration tunes "power consumption, bus loading and memory accesses";
/// this sweep shows when the reconfigurable design becomes bus-bound.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn bus_sweep(workload: &Workload, base: &ArchConfig) -> Result<Vec<SweepPoint>, SimError> {
    let expected = reference_trace(&workload.reference_results());
    let mut points = Vec::new();
    for cycles_per_word in [1u64, 2, 4, 8] {
        let mut arch = base.clone();
        arch.bus.cycles_per_word = cycles_per_word;
        let setup = TimedSetup {
            arch,
            ..TimedSetup::level3(workload)
        };
        points.push(point(
            &format!("{cycles_per_word} cycles/word"),
            setup,
            &expected,
        )?);
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_sweep_slower_bus_costs_time() {
        let w = Workload::small();
        let points = bus_sweep(&w, &ArchConfig::default()).expect("sweep");
        assert_eq!(points.len(), 4);
        for pair in points.windows(2) {
            assert!(
                pair[1].total_ticks > pair[0].total_ticks,
                "slower bus must cost simulated time: {pair:?}"
            );
        }
        assert!(points.iter().all(|p| p.functional));
    }

    #[test]
    fn partition_sweep_is_monotone_enough() {
        let w = Workload::small();
        let points = partition_sweep(&w, &ArchConfig::default()).expect("sweep");
        assert_eq!(points.len(), 9);
        assert!(points.iter().all(|p| p.functional));
        // Moving everything to HW must be far faster than all-SW.
        let first = points.first().unwrap().total_ticks;
        let last = points.last().unwrap().total_ticks;
        assert!(
            last * 3 < first,
            "full-HW ({last}) should be ≥3× faster than all-SW ({first})"
        );
    }

    #[test]
    fn context_ablation_orders_as_expected() {
        let w = Workload::small();
        let points = context_ablation(&w, &ArchConfig::default()).expect("ablation");
        assert_eq!(points.len(), 3);
        let static_hw = &points[0];
        let split = &points[1];
        let merged = &points[2];
        assert_eq!(static_hw.reconfigurations, 0);
        assert!(split.reconfigurations > merged.reconfigurations);
        // Static HW is fastest; merged beats split on reconfig traffic.
        assert!(static_hw.total_ticks < split.total_ticks);
        assert!(merged.download_words < split.download_words);
        assert!(points.iter().all(|p| p.functional));
    }

    #[test]
    fn context_ablation_runs_every_point_on_the_sweeps_platform() {
        let w = Workload::small();
        let mut slow_bus = ArchConfig::default();
        slow_bus.bus.cycles_per_word = 8;
        let points = context_ablation(&w, &slow_bus).expect("ablation");
        let level2 = TimedSetup {
            arch: slow_bus,
            ..TimedSetup::level2(&w)
        };
        let l2 = timed::run(level2, &telemetry::noop()).expect("level 2");
        assert_eq!(points[0].name, "static HW (no FPGA)");
        assert_eq!(points[0].total_ticks, l2.total_ticks);
    }

    #[test]
    fn strategy_ablation_shows_hoisting_wins() {
        let w = Workload::small();
        let points = strategy_ablation(&w, &ArchConfig::default()).expect("ablation");
        let hoisted = &points[0];
        let naive = &points[1];
        assert!(naive.reconfigurations > hoisted.reconfigurations);
        assert!(naive.total_ticks > hoisted.total_ticks);
        assert!(naive.download_words > hoisted.download_words);
    }
}
