//! Fault injection and recovery on the level-3 platform model.
//!
//! Runs the same workload three ways — fault-free, faulted with recovery,
//! and faulted with recovery disabled — and prints what the injected
//! faults cost and how the driver absorbed them.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use sim::faults::FaultPlan;
use symbad_core::timed::{self, addr, RecoveryPolicy, TimedSetup};
use symbad_core::Workload;

fn main() {
    let workload = Workload::small();
    let noop = telemetry::noop();

    let clean = timed::run(TimedSetup::level3(&workload), &noop).expect("fault-free level-3 run");
    println!(
        "fault-free : {} ticks, recognized {:?}",
        clean.total_ticks, clean.recognized
    );

    let plan = || {
        FaultPlan::new(7)
            .with_bitstream_corruption(400_000) // 40% of downloads corrupted
            .with_bus_errors(addr::FLASH_BASE, addr::FLASH_SIZE, 150_000)
    };
    let faulted = |recovery| TimedSetup {
        faults: Some(plan()),
        recovery,
        ..TimedSetup::level3(&workload)
    };

    let recovered = timed::run(faulted(RecoveryPolicy::default()), &noop)
        .expect("recovery absorbs the injected faults");
    let fr = recovered.faults.as_ref().expect("fault report");
    println!(
        "recovered  : {} ticks (+{:.1}%), recognized {:?}",
        recovered.total_ticks,
        100.0 * (recovered.total_ticks as f64 / clean.total_ticks as f64 - 1.0),
        recovered.recognized
    );
    println!(
        "             injected={} retries={} recovered={} degraded={:?}",
        fr.injected.total(),
        fr.retries,
        fr.recovered,
        fr.degraded
    );
    assert_eq!(
        recovered.recognized, clean.recognized,
        "faults change timing, never function"
    );

    match timed::run(faulted(RecoveryPolicy::disabled()), &noop) {
        Err(e) => println!("no recovery: typed failure: {e}"),
        Ok(r) => println!(
            "no recovery: this seed's faults happened to miss ({} ticks)",
            r.total_ticks
        ),
    }
}
