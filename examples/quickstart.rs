//! Quickstart: build a workload, run the level-1 functional model, and
//! check it against the C reference model.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use symbad_core::level1;
use symbad_core::workload::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small synthetic face workload: 4 identities × 2 poses enrolled,
    // 2 noisy probes presented to the camera model.
    let workload = Workload::small();
    println!(
        "gallery: {} entries; probes: {}",
        workload.gallery_len(),
        workload.probes.len()
    );

    // Level 1: the untimed Figure-2 dataflow network.
    let report = level1::run_instrumented(&workload, &telemetry::noop())?;

    println!("simulation outcome: {:?}", report.outcome.result);
    assert!(report.outcome.is_quiescent());
    println!("kernel polls: {}", report.outcome.stats.polls);
    for (i, (&(id, pose, seed), recognized)) in
        workload.probes.iter().zip(&report.recognized).enumerate()
    {
        println!(
            "probe {i}: identity {id} pose {pose} (noise seed {seed}) → recognized as {recognized}"
        );
    }
    println!(
        "trace matches C reference model: {}",
        report.matches_reference
    );
    assert!(report.matches_reference);
    Ok(())
}
