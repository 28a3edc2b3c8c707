//! The full Symbad refinement flow on the face-recognition case study:
//! level 1 (untimed) → level 2 (timed HW/SW) → level 3 (reconfigurable)
//! → level 4 (RTL + formal), with the cross-level checks the paper
//! performs at each step.
//!
//! ```text
//! cargo run --release --example face_recognition_flow
//! ```

use std::time::Instant;
use symbad_core::workload::Workload;
use symbad_core::{level1, level2, level3, level4};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::paper(2);
    let noop = telemetry::noop();
    println!(
        "case study: {}-entry gallery, {} probes\n",
        workload.gallery_len(),
        workload.probes.len()
    );

    // ── Level 1 ────────────────────────────────────────────────────────
    let t = Instant::now();
    let l1 = level1::run_instrumented(&workload, &noop)?;
    println!(
        "level 1 (untimed): {:.2}s wall, matches reference: {}",
        t.elapsed().as_secs_f64(),
        l1.matches_reference
    );

    // ── Level 2 ────────────────────────────────────────────────────────
    let t = Instant::now();
    let l2 = level2::run_instrumented(&workload, &noop)?;
    println!(
        "level 2 (timed TL): {:.2}s wall, {} simulated ticks ({:.0} ticks/frame)",
        t.elapsed().as_secs_f64(),
        l2.total_ticks,
        l2.ticks_per_frame
    );
    println!(
        "  trace matches level 1: {}",
        l1.trace.matches_untimed(&l2.trace).is_ok()
    );
    println!("  bus utilization: {:.1}%", l2.bus.utilization * 100.0);

    // ── Level 3 ────────────────────────────────────────────────────────
    let t = Instant::now();
    let l3 = level3::run_instrumented(&workload, &noop)?;
    let fpga = l3.fpga.as_ref().expect("level 3 has an FPGA");
    println!(
        "level 3 (reconfigurable): {:.2}s wall, {} simulated ticks ({:.0} ticks/frame)",
        t.elapsed().as_secs_f64(),
        l3.total_ticks,
        l3.ticks_per_frame
    );
    println!(
        "  trace matches level 2: {}",
        l2.trace.matches_untimed(&l3.trace).is_ok()
    );
    println!(
        "  reconfigurations: {}, bitstream words: {}, bus utilization: {:.1}%",
        fpga.reconfigurations,
        fpga.download_words,
        l3.bus.utilization * 100.0
    );

    // ── Level 4 ────────────────────────────────────────────────────────
    let t = Instant::now();
    let l4 = level4::run_cached(exec::ExecMode::Sequential, &noop, cache::noop());
    println!(
        "level 4 (RTL + formal): {:.2}s wall",
        t.elapsed().as_secs_f64()
    );
    for (name, nodes, equivalent) in &l4.kernels {
        println!("  kernel {name}: {nodes} nodes, RTL ≡ behavioural: {equivalent}");
    }
    for (name, engine, proven) in &l4.properties {
        println!("  property {name} [{engine}]: proven = {proven}");
    }
    let coverage = |r: &Option<pcc::PccReport>| {
        r.as_ref()
            .map_or_else(|| "no report".to_owned(), |r| format!("{:.0}%", r.pct()))
    };
    println!(
        "  PCC coverage: initial {} → extended {}",
        coverage(&l4.pcc_initial),
        coverage(&l4.pcc_extended)
    );
    Ok(())
}
