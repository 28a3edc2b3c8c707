//! Cross-crate integration: the paper's per-refinement functional
//! verification — every level's trace must match the previous level's and
//! ultimately the C reference model.

use symbad_core::workload::Workload;
use symbad_core::{level1, level2, level3};
use telemetry::noop;

#[test]
fn all_levels_agree_with_reference_and_each_other() {
    let workload = Workload::small();
    let l1 = level1::run_instrumented(&workload, &noop()).expect("level 1");
    let l2 = level2::run_instrumented(&workload, &noop()).expect("level 2");
    let l3 = level3::run_instrumented(&workload, &noop()).expect("level 3");

    assert!(l1.matches_reference, "{:?}", l1.mismatch);
    assert!(l2.matches_reference, "{:?}", l2.mismatch);
    assert!(l3.matches_reference, "{:?}", l3.mismatch);

    assert!(l1.trace.matches_untimed(&l2.trace).is_ok());
    assert!(l2.trace.matches_untimed(&l3.trace).is_ok());
    assert_eq!(l1.recognized, l2.recognized);
    assert_eq!(l2.recognized, l3.recognized);
}

#[test]
fn abstraction_costs_simulation_detail() {
    // The paper's motivation for TL modelling: more detail = slower
    // simulation. Level 3 adds reconfiguration activity on top of level 2,
    // so its simulated end-to-end time is strictly larger.
    let workload = Workload::small();
    let l2 = level2::run_instrumented(&workload, &noop()).expect("level 2");
    let l3 = level3::run_instrumented(&workload, &noop()).expect("level 3");
    assert!(l3.total_ticks > l2.total_ticks);
    // And level 1 is untimed: its kernel never advances time.
    let l1 = level1::run_instrumented(&workload, &noop()).expect("level 1");
    assert_eq!(l1.outcome.stats.final_time.ticks(), 0);
}

#[test]
fn recognition_accuracy_survives_refinement() {
    // Across a slightly larger probe set, the recognized identities are
    // identical at every level (bit-exact functional refinement).
    let workload = Workload::new(
        media::dataset::DatasetConfig {
            identities: 6,
            poses: 2,
            width: 64,
            height: 64,
            noise_amp: 5,
        },
        6,
    );
    let l1 = level1::run_instrumented(&workload, &noop()).expect("level 1");
    let l3 = level3::run_instrumented(&workload, &noop()).expect("level 3");
    assert_eq!(l1.recognized, l3.recognized);
    // Recognition itself works: most probes map to the right identity.
    let correct = workload
        .probes
        .iter()
        .zip(&l1.recognized)
        .filter(|(&(id, _, _), &rec)| id == rec)
        .count();
    assert!(
        correct * 10 >= workload.probes.len() * 8,
        "accuracy too low: {correct}/{}",
        workload.probes.len()
    );
}

#[test]
fn bus_and_fpga_reports_are_consistent() {
    let workload = Workload::small();
    let l3 = level3::run_instrumented(&workload, &noop()).expect("level 3");
    let fpga = l3.fpga.expect("level 3 has an FPGA");
    // Bitstream words must show up as bus traffic from the CPU master
    // (which initiates downloads).
    let cpu_words: u64 = l3
        .bus
        .masters
        .iter()
        .find(|m| m.name == "cpu")
        .expect("cpu master")
        .words;
    assert!(cpu_words >= fpga.download_words);
    // The FPGA computed every distance and root evaluation.
    let expected_calls = (workload.probes.len() * workload.gallery_len() * 2) as u64;
    assert_eq!(fpga.calls, expected_calls);
}
