//! Fault injection, retry, and graceful degradation (level 3).
//!
//! The contract under test: injected platform faults may change *timing*
//! (retries, watchdog windows, software fallback) but never *function* —
//! with recovery enabled a faulted run matches the reference bit-for-bit,
//! and with recovery disabled every injected fault surfaces as a typed
//! error, never a silently wrong answer.

use proptest::prelude::*;
use sim::faults::{FaultPlan, PPM};
use sim::SimTime;
use symbad_core::timed::{self, addr, RecoveryPolicy, RunError, TimedReport, TimedSetup};
use symbad_core::Workload;

/// Level 3 on `w` without faults.
fn fault_free(w: &Workload) -> TimedReport {
    timed::run(TimedSetup::level3(w), &telemetry::noop()).expect("fault-free run")
}

/// Level 3 on `w` with `plan` installed under `recovery`.
fn faulted(
    w: &Workload,
    plan: FaultPlan,
    recovery: RecoveryPolicy,
) -> Result<TimedReport, RunError> {
    let setup = TimedSetup {
        faults: Some(plan),
        recovery,
        ..TimedSetup::level3(w)
    };
    timed::run(setup, &telemetry::noop())
}

#[test]
fn error_displays_are_informative() {
    use platform::FpgaError;
    use tlm::BusError;

    let decode = BusError::Decode { addr: 0xDEAD_0000 };
    assert!(decode.to_string().contains("no mapped region"));
    assert!(decode.to_string().contains("0xdead0000"));

    let slave = BusError::Slave {
        slave: "flash".to_owned(),
        addr: 0x0010_0000,
        at: SimTime::from_ticks(42),
    };
    assert!(slave.to_string().contains("flash"));
    assert!(slave.to_string().contains("0x100000"));

    let master = BusError::UnknownMaster { master: 9 };
    assert!(master.to_string().contains('9'));

    let corrupt = FpgaError::BitstreamCorrupted {
        context: "config1".to_owned(),
        expected_crc: 0x1234_5678,
        got_crc: 0x8765_4321,
    };
    assert!(corrupt.to_string().contains("config1"));
    assert!(corrupt.to_string().contains("0x12345678"));
    assert!(corrupt.to_string().contains("0x87654321"));

    let timeout = FpgaError::LoadTimeout {
        context: "config2".to_owned(),
    };
    assert!(timeout.to_string().contains("timed out"));

    let wrapped = FpgaError::Bus(decode);
    assert!(wrapped.to_string().contains("download failed on the bus"));
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(6))]

    /// An all-zero-rate plan performs no random draws, so — whatever its
    /// seed — the run is observationally identical to the fault-free one.
    #[test]
    fn zero_rate_plan_reproduces_fault_free_run(seed in 0u64..1_000_000) {
        let w = Workload::small();
        let base = fault_free(&w);
        let inert = faulted(&w, FaultPlan::new(seed), RecoveryPolicy::default())
            .expect("inert plan cannot fail a run");
        prop_assert_eq!(base.total_ticks, inert.total_ticks);
        prop_assert_eq!(&base.recognized, &inert.recognized);
        prop_assert!(base.trace.matches_untimed(&inert.trace).is_ok());
        prop_assert_eq!(&base.fpga, &inert.fpga);
        let fr = inert.faults.expect("a plan was installed");
        prop_assert_eq!(fr.injected.total(), 0);
        prop_assert_eq!(fr.retries, 0);
        prop_assert!(fr.degraded.is_empty());
    }
}

#[test]
fn faulted_run_is_seed_reproducible() {
    let w = Workload::small();
    let plan = || {
        FaultPlan::new(1301)
            .with_bitstream_corruption(400_000)
            .with_bus_errors(addr::FLASH_BASE, addr::FLASH_SIZE, 150_000)
    };
    let a = faulted(&w, plan(), RecoveryPolicy::default()).expect("run a");
    let b = faulted(&w, plan(), RecoveryPolicy::default()).expect("run b");
    assert_eq!(a.total_ticks, b.total_ticks);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.recognized, b.recognized);
}

#[test]
fn recovery_preserves_function_under_injected_faults() {
    let w = Workload::small();
    let base = fault_free(&w);
    let plan = FaultPlan::new(7)
        .with_bitstream_corruption(400_000)
        .with_bus_errors(addr::FLASH_BASE, addr::FLASH_SIZE, 150_000);
    let faulted = faulted(&w, plan, RecoveryPolicy::default()).expect("recovery absorbs");
    // Degradation and retries change timing, never function.
    assert_eq!(faulted.recognized, base.recognized);
    assert!(
        faulted.trace.matches_untimed(&base.trace).is_ok(),
        "functional trace must match the fault-free run"
    );
    assert!(
        faulted.matches_reference,
        "mismatch: {:?}",
        faulted.mismatch
    );
    let fr = faulted.faults.expect("fault report present");
    assert!(fr.injected.total() > 0, "this seed must inject faults");
    assert!(fr.retries > 0, "injected faults must trigger retries");
    assert!(
        faulted.total_ticks > base.total_ticks,
        "faults cost time: {} vs {}",
        faulted.total_ticks,
        base.total_ticks
    );
}

#[test]
fn permanent_download_failure_degrades_to_software() {
    let w = Workload::small();
    let base = fault_free(&w);
    // Every download corrupted: retries exhaust and both contexts fall
    // back to software execution.
    let plan = FaultPlan::new(3).with_bitstream_corruption(PPM);
    let degraded = faulted(&w, plan, RecoveryPolicy::default()).expect("degrades, not fails");
    assert_eq!(degraded.recognized, base.recognized);
    assert!(degraded.trace.matches_untimed(&base.trace).is_ok());
    let fr = degraded.faults.expect("fault report present");
    assert!(
        fr.degraded.contains(&"distance".to_owned()) && fr.degraded.contains(&"root".to_owned()),
        "both kernels degrade: {:?}",
        fr.degraded
    );
    // The FPGA never successfully loaded anything.
    let fpga = degraded.fpga.expect("level 3 has an FPGA");
    assert_eq!(fpga.reconfigurations, 0);
    assert!(fpga.failed_loads > 0);
    assert!(degraded.total_ticks > base.total_ticks);
}

#[test]
fn disabled_recovery_surfaces_typed_errors() {
    let w = Workload::small();
    let plan = FaultPlan::new(11).with_bitstream_corruption(PPM);
    let err = faulted(&w, plan, RecoveryPolicy::disabled())
        .expect_err("unrecovered fault must abort the run");
    match err {
        RunError::Platform(fault) => {
            let msg = fault.to_string();
            assert!(
                msg.contains("corrupted") || msg.contains("not resident"),
                "typed fault, got: {msg}"
            );
        }
        RunError::Sim(e) => panic!("platform fault must win over kernel symptom, got: {e}"),
    }
}
