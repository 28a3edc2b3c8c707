//! The parallel backbone's contract: verdicts, counterexamples, coverage,
//! and rendered reports are bit-identical across worker counts.
//!
//! Every verification obligation builds its own engine state, so fan-out
//! must not change a single bit of any result. These tests pin that
//! invariant for workers ∈ {1, 2, 8} against the sequential run.

use symbad_core::cascade;
use symbad_core::flow::run_full_flow_cached;
use symbad_core::workload::Workload;

const MODES: [exec::ExecMode; 3] = [
    exec::ExecMode::Parallel { workers: 1 },
    exec::ExecMode::Parallel { workers: 2 },
    exec::ExecMode::Parallel { workers: 8 },
];

#[test]
fn flow_report_json_is_bit_identical_across_worker_counts() {
    let w = Workload::small();
    let reference = run_full_flow_cached(
        &w,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        cache::noop(),
    )
    .expect("sequential flow runs")
    .to_json();
    for mode in MODES {
        let report = run_full_flow_cached(&w, &telemetry::noop(), mode, cache::noop())
            .expect("parallel flow runs");
        assert_eq!(
            report.to_json(),
            reference,
            "flow report diverged at {mode:?}"
        );
    }
}

#[test]
fn cold_cached_flow_matches_the_uncached_flow_at_every_worker_count() {
    // A cold obligation cache still replays repeats within the run (the
    // extended PCC set re-checks the initial set's mutants); the replays
    // must leave the report equal to the uncached sequential one at
    // every worker count.
    let w = Workload::small();
    let reference = run_full_flow_cached(
        &w,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        cache::noop(),
    )
    .expect("sequential flow runs")
    .to_json();
    for mode in [exec::ExecMode::Sequential].into_iter().chain(MODES) {
        let cold =
            run_full_flow_cached(&w, &telemetry::noop(), mode, &cache::ObligationCache::new())
                .expect("cold cached flow runs");
        assert_eq!(
            cold.to_json(),
            reference,
            "cold cached report diverged at {mode:?}"
        );
    }
}

#[test]
fn cascade_report_is_bit_identical_across_worker_counts() {
    let reference = cascade::run();
    let policy = symbad_core::SupervisionPolicy::default();
    for mode in MODES {
        assert_eq!(
            cascade::run_supervised(mode, cache::noop(), &policy).0,
            reference,
            "cascade diverged at {mode:?}"
        );
    }
}

#[test]
fn instrumented_flow_telemetry_matches_sequential_key_state() {
    // Parallel obligations record into private collectors that are
    // replayed in obligation order; the merged keyed state (counters,
    // gauges) must equal the sequential instrument's.
    let w = Workload::small();
    let seq = telemetry::Collector::shared();
    let seq_instr: telemetry::SharedInstrument = seq.clone();
    run_full_flow_cached(&w, &seq_instr, exec::ExecMode::Sequential, cache::noop())
        .expect("sequential flow runs");
    for workers in [2, 8] {
        let par = telemetry::Collector::shared();
        let par_instr: telemetry::SharedInstrument = par.clone();
        run_full_flow_cached(
            &w,
            &par_instr,
            exec::ExecMode::Parallel { workers },
            cache::noop(),
        )
        .expect("parallel flow runs");
        // Counter totals must agree exactly.
        for key in [
            "sim.polls",
            "bus.transactions",
            "fpga.reconfigurations",
            "bmc.sat_calls",
            "level4.properties_checked",
            "sat.solve_calls",
            "sat.decisions",
            "sat.conflicts",
            "sat.propagations",
        ] {
            assert_eq!(
                par.counter(key),
                seq.counter(key),
                "counter {key} diverged at {workers} workers"
            );
        }
        // The flow track (one span per phase) is identical.
        let seq_spans: Vec<_> = seq
            .spans()
            .into_iter()
            .filter(|s| s.track == "flow")
            .collect();
        let par_spans: Vec<_> = par
            .spans()
            .into_iter()
            .filter(|s| s.track == "flow")
            .collect();
        assert_eq!(par_spans, seq_spans);
    }
}
