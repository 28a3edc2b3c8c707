//! Flight-recorder contract tests: the journal's deterministic lane and
//! the profile's deterministic report are bit-identical for workers 1,
//! 2, and 8, every journal line satisfies the checked-in schema, and the
//! Prometheus exposition round-trips through its own parser.
//!
//! The lane and schema tests run under the idle policy and under a
//! zero-conflict SAT budget, because the deterministic-lane guarantee is
//! most valuable exactly when obligations degrade: the flight recording
//! of a degraded run must still not depend on the worker count. Scripted
//! panics and retries on the lane are covered by `symbad-core`'s unit
//! tests (`supervise::tests`).

use symbad_core::flow::run_full_flow_supervised;
use symbad_core::supervise::SupervisionPolicy;
use symbad_core::workload::Workload;
use telemetry::{journal, EventKind, FlowProfile, Journal};

/// A SAT budget of zero conflicts per call: every solve that needs
/// search gives up, which leaves exactly two wrapper properties
/// undecided (the same policy as `examples/supervised_flow.rs`).
fn zero_conflicts() -> SupervisionPolicy {
    SupervisionPolicy::with_effort(exec::Effort {
        sat_conflicts: Some(0),
        ..exec::Effort::unbounded()
    })
}

/// The idle policy and the zero-conflict budget.
fn policies() -> [SupervisionPolicy; 2] {
    [SupervisionPolicy::default(), zero_conflicts()]
}

/// Runs the journaled supervised flow on a fresh cache and returns its
/// journal. Wall clock stays off: these tests compare lanes byte for
/// byte, and `ObligationWall` events would differ run to run.
fn journaled(workers: usize, policy: &SupervisionPolicy) -> Journal {
    let cache = cache::ObligationCache::new();
    let journal = Journal::new();
    run_full_flow_supervised(
        &Workload::small(),
        &telemetry::noop(),
        exec::ExecMode::from_workers(workers),
        &cache,
        policy,
        Some(&journal),
    )
    .expect("supervised flow runs");
    journal
}

#[test]
fn deterministic_lane_is_bit_identical_across_worker_counts() {
    for policy in policies() {
        let reference = journaled(1, &policy);
        let det = reference.deterministic_jsonl();
        let profile = FlowProfile::from_journal(&reference)
            .deterministic_report()
            .to_text();
        assert!(!det.is_empty(), "journal must record the flow");
        for workers in [2usize, 8] {
            let j = journaled(workers, &policy);
            assert_eq!(
                j.deterministic_jsonl(),
                det,
                "deterministic journal lane diverged with {workers} workers"
            );
            assert_eq!(
                FlowProfile::from_journal(&j)
                    .deterministic_report()
                    .to_text(),
                profile,
                "deterministic profile report diverged with {workers} workers"
            );
        }
    }
}

#[test]
fn every_journal_line_satisfies_the_schema() {
    for policy in policies() {
        let j = journaled(2, &policy);
        let jsonl = j.to_jsonl();
        assert!(jsonl.lines().count() > 0);
        for line in jsonl.lines() {
            journal::validate_line(line)
                .unwrap_or_else(|e| panic!("journal line failed schema validation: {e}\n  {line}"));
        }
        assert_eq!(j.dropped(), (0, 0), "the default capacity must not drop");
    }
}

#[test]
fn journal_obligations_cover_the_whole_flow() {
    let j = journaled(1, &SupervisionPolicy::default());
    let profile = FlowProfile::from_journal(&j);
    // Started and Finished pair up one-to-one.
    let started = j
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ObligationStarted { .. }))
        .count();
    assert_eq!(started, profile.obligations.len());
    // The flow discharges the two LPV analyses, the SymbC consistency
    // check, two equivalence miters, five properties, and two PCC
    // passes: twelve obligations.
    assert_eq!(profile.obligations.len(), 12);
    // Each known engine appears.
    for engine in ["lpv", "symbc", "level4.miter", "pcc"] {
        assert!(
            profile.engines.contains_key(engine),
            "engine {engine} missing from the profile"
        );
    }
    // Provenance fingerprints are nonzero and unique per obligation.
    let mut fps: Vec<u128> = profile.obligations.iter().map(|p| p.fingerprint).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), profile.obligations.len());
    assert!(fps.iter().all(|&fp| fp != 0));
}

#[test]
fn prometheus_exposition_round_trips() {
    let collector = telemetry::Collector::shared();
    let instr: telemetry::SharedInstrument = collector.clone();
    let cache = cache::ObligationCache::new();
    let journal = Journal::new();
    run_full_flow_supervised(
        &Workload::small(),
        &instr,
        exec::ExecMode::Sequential,
        &cache,
        &SupervisionPolicy::default(),
        Some(&journal),
    )
    .expect("supervised flow runs");
    let text = telemetry::prometheus_text(&collector);
    let samples = telemetry::parse_exposition(&text).expect("exposition parses");
    assert!(samples.len() > 16, "sparse exposition: {}", samples.len());
    let nonzero = samples.iter().filter(|s| s.value > 0.0).count();
    assert!(nonzero > 8, "exposition has only {nonzero} nonzero series");
}

/// Pins the obligation event order across commits, not just across
/// worker counts: any change to what the flow journals, or in which
/// order, shows up as a diff. Regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test --test observability`.
#[test]
fn deterministic_lane_matches_its_golden() {
    symbad_suite::testkit::assert_golden(
        "flow_journal_det.jsonl",
        &journaled(1, &SupervisionPolicy::default()).deterministic_jsonl(),
    );
}

#[test]
fn honest_runs_record_no_degradations() {
    let j = journaled(1, &SupervisionPolicy::default());
    let profile = FlowProfile::from_journal(&j);
    assert!(profile.degradations.is_empty());
    assert!(j
        .events()
        .iter()
        .all(|e| !matches!(e.kind, EventKind::Panic { .. } | EventKind::Retry { .. })));
    assert_eq!(profile.outcomes.get("proved"), Some(&12));
}

#[test]
fn budget_exhaustion_lands_on_the_deterministic_lane() {
    let j = journaled(1, &zero_conflicts());
    let profile = FlowProfile::from_journal(&j);
    let degraded: Vec<(&str, &str)> = profile
        .degradations
        .iter()
        .map(|d| (d.obligation.as_str(), d.status.as_str()))
        .collect();
    assert_eq!(
        degraded,
        [
            ("property:request_advances", "unknown"),
            ("property:done_returns_to_idle", "unknown"),
        ]
    );
    // The budget-spend records show at least one axis pinned at its cap.
    let at_cap: u64 = profile.budget.values().map(|a| a.at_cap).sum();
    assert!(at_cap > 0, "a zero-conflict budget must exhaust an axis");
}
