//! Supervised-execution contract tests: with supervision idle, the
//! supervised flow reproduces the legacy flow exactly and the legacy
//! report still renders without a `degradation` section (so the pinned
//! goldens are untouched); a starved effort budget degrades the flow
//! gracefully and bit-identically for workers 1, 2, and 8.
//!
//! Scripted engine panics are covered by `symbad-core`'s own unit tests
//! (`supervise::tests`), which can name the obligations that panic.

use symbad_core::flow::{run_full_flow_cached, run_full_flow_supervised, FlowReport};
use symbad_core::supervise::SupervisionPolicy;
use symbad_core::workload::Workload;

fn supervised_with(
    workers: usize,
    policy: &SupervisionPolicy,
    instrument: &telemetry::SharedInstrument,
) -> FlowReport {
    // Fresh cache per run: the degradation pattern must come from the
    // budget/faults, never from which verdicts a previous run cached.
    let cache = cache::ObligationCache::new();
    run_full_flow_supervised(
        &Workload::small(),
        instrument,
        exec::ExecMode::from_workers(workers),
        &cache,
        policy,
        None,
    )
    .expect("supervised flow runs")
}

fn supervised(workers: usize, policy: &SupervisionPolicy) -> FlowReport {
    supervised_with(workers, policy, &telemetry::noop())
}

#[test]
fn idle_supervision_reproduces_the_legacy_flow() {
    let w = Workload::small();
    let legacy_cache = cache::ObligationCache::new();
    let legacy = run_full_flow_cached(
        &w,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &legacy_cache,
    )
    .expect("legacy flow runs");
    // The legacy report has no degradation section — the golden
    // `flow_report.json` (pinned by tests/telemetry_golden.rs) is
    // untouched by the supervision layer.
    assert!(legacy.degradation.is_none());
    assert!(!legacy.to_json().contains("\"degradation\""));
    assert!(legacy.conclusive());

    let report = supervised(1, &SupervisionPolicy::default());
    assert_eq!(report.phases, legacy.phases);
    assert_eq!(report.recognized, legacy.recognized);
    assert_eq!(report.metrics, legacy.metrics);
    assert!(report.all_ok());
    assert!(report.conclusive());
    let d = report.degradation.as_ref().expect("supervised taxonomy");
    assert!(d.is_clean());
    assert_eq!(d.total, 12, "3 flow obligations + 9 level-4 obligations");
    assert_eq!((d.unknown, d.panicked, d.retries), (0, 0, 0));
    assert_eq!(d.proved, d.total);
    assert!(report.to_json().contains("\"degradation\""));
}

#[test]
fn idle_supervision_emits_no_supervision_counters() {
    let collector = telemetry::Collector::shared();
    let instr: telemetry::SharedInstrument = collector.clone();
    let report = supervised_with(1, &SupervisionPolicy::default(), &instr);
    assert!(report.conclusive());
    assert_eq!(collector.counter("sat.budget_exhausted"), 0);
    assert_eq!(collector.counter("exec.panics_caught"), 0);
    assert_eq!(collector.counter("flow.degraded_obligations"), 0);
    assert_eq!(collector.counter("flow.retries"), 0);
}

#[test]
fn starved_budget_degrades_bit_identically_across_worker_counts() {
    let starve = exec::Effort {
        sat_conflicts: None,
        sat_decisions: Some(0),
        bdd_nodes: Some(1),
    };
    let policy = SupervisionPolicy::with_effort(starve);
    let collector = telemetry::Collector::shared();
    let instr: telemetry::SharedInstrument = collector.clone();
    let reference = supervised_with(1, &policy, &instr);

    let d = reference.degradation.as_ref().expect("taxonomy");
    assert!(d.unknown > 0, "starved budgets must surface as Unknown");
    assert_eq!(d.panicked, 0, "budgets degrade without panics");
    assert_eq!(d.retries, 0);
    assert!(!reference.conclusive());
    assert!(!reference.all_ok());
    // The simulations and the engine-less checks are untouched.
    assert_eq!(reference.recognized, vec![0, 1]);
    for phase in &reference.phases {
        if !phase.phase.starts_with("level 4") {
            assert!(phase.ok, "{} degraded under a SAT budget", phase.phase);
        }
    }
    // Telemetry names the degradation.
    assert!(collector.counter("sat.budget_exhausted") > 0);
    assert!(collector.counter("flow.degraded_obligations") > 0);
    assert_eq!(collector.counter("exec.panics_caught"), 0);

    // The partial report is bit-identical for any worker count.
    let json = reference.to_json();
    assert!(json.contains("\"degradation\""));
    assert!(json.contains("budget exhausted"));
    for workers in [2, 8] {
        assert_eq!(
            supervised(workers, &policy).to_json(),
            json,
            "{workers} workers diverged"
        );
    }
}
