//! Golden-file tests: telemetry exports are byte-stable.
//!
//! The collector records only simulation-time-keyed data by default
//! (wall-clock capture is opt-in and off here), every export sorts by
//! deterministic keys, and the JSON writer formats numbers reproducibly —
//! so a fixed-seed run must reproduce its exports byte-for-byte. These
//! tests pin that contract: any accidental nondeterminism (map iteration
//! order, wall-time leakage, float formatting drift) shows up as a diff.
//!
//! To regenerate after an intentional model or exporter change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test telemetry_golden
//! ```

use symbad_core::flow::run_full_flow_cached;
use symbad_core::level3;
use symbad_core::workload::Workload;
use symbad_suite::testkit::assert_golden;
use telemetry::{chrome_trace, Collector, SharedInstrument};

#[test]
fn level3_chrome_trace_is_byte_identical() {
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    let report = level3::run_instrumented(&Workload::small(), &instr).expect("level-3 run");
    assert!(report.matches_reference);

    let trace = chrome_trace(&collector);
    // Wall-clock capture is off: every span's wall_us arg must be zero.
    assert!(!trace.is_empty());
    assert_golden("level3_trace.json", &trace);

    // Re-running the same seed reproduces the export exactly.
    let collector2 = Collector::shared();
    let instr2: SharedInstrument = collector2.clone();
    level3::run_instrumented(&Workload::small(), &instr2).expect("level-3 rerun");
    assert_eq!(trace, chrome_trace(&collector2));
}

#[test]
fn flow_report_json_is_byte_identical() {
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    let report = run_full_flow_cached(
        &Workload::small(),
        &instr,
        exec::ExecMode::Sequential,
        cache::noop(),
    )
    .expect("flow runs");
    assert!(report.all_ok());
    assert_golden("flow_report.json", &report.to_json());
}

#[test]
fn faulted_run_exports_recovery_counters() {
    use sim::faults::FaultPlan;
    use symbad_core::timed::{self, TimedSetup};

    let w = Workload::small();
    let plan = || {
        FaultPlan::new(7)
            .with_bitstream_corruption(400_000)
            .with_bus_errors(
                symbad_core::timed::addr::FLASH_BASE,
                symbad_core::timed::addr::FLASH_SIZE,
                150_000,
            )
    };
    let faulted = || TimedSetup {
        faults: Some(plan()),
        ..TimedSetup::level3(&w)
    };
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    let run = timed::run(faulted(), &instr).expect("recovered run");
    let faults = run.faults.expect("fault report present");
    assert!(faults.retries > 0, "this seed must inject something");

    // The fault/recovery summary surfaces as counters.
    assert_eq!(collector.counter("recovery.retries"), faults.retries);
    assert_eq!(collector.counter("recovery.recovered"), faults.recovered);
    let injected = collector.counter("faults.bitstream_corruptions")
        + collector.counter("faults.bus_errors")
        + collector.counter("faults.load_timeouts")
        + collector.counter("faults.slave_stalls");
    assert!(injected > 0);

    // Telemetry leaves the faulted run itself untouched: same report as
    // the uninstrumented path, bit for bit.
    let plain = timed::run(faulted(), &telemetry::noop()).expect("plain recovered run");
    assert_eq!(plain.total_ticks, run.total_ticks);
    assert_eq!(plain.recognized, run.recognized);
    assert_eq!(plain.faults, Some(faults));
}

#[test]
fn instrumentation_does_not_perturb_the_run() {
    let w = Workload::small();
    let plain = level3::run_instrumented(&w, &telemetry::noop()).expect("plain run");
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    let instrumented = level3::run_instrumented(&w, &instr).expect("instrumented run");
    // Bit-identical functional and timing results either way.
    assert_eq!(plain.recognized, instrumented.recognized);
    assert_eq!(plain.total_ticks, instrumented.total_ticks);
    assert!(plain.trace.matches_untimed(&instrumented.trace).is_ok());
    assert_eq!(
        plain.fpga.as_ref().map(|f| f.reconfigurations),
        instrumented.fpga.as_ref().map(|f| f.reconfigurations)
    );
}
