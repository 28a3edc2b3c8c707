//! The supervised flow end to end:
//! [`symbad_core::flow::run_full_flow_supervised`] executes the
//! whole methodology under panic isolation and a deterministic effort
//! budget with the flight recorder attached, then proves the degradation
//! contract by rerunning the flow with 1, 2, and 8 workers (fresh
//! obligation cache each time) and asserting that the report, the
//! journal's deterministic lane, and the profile's deterministic report
//! are all bit-identical.
//!
//! The same example serves three CI regimes:
//!
//! * default build: supervision is idle, the taxonomy is clean, and the
//!   report is conclusive;
//! * `--features panic-mutant`: the SAT solver panics every 256th
//!   propagation — the flow still completes and the partial report counts
//!   the panicked obligations and their retries;
//! * `--features diverge-mutant`: every second budgeted solve burns its
//!   whole budget — the example runs under a bounded effort so the
//!   divergence surfaces as deterministic `unknown` obligations.
//!
//! The degradation timeline printed at the end is reconstructed from the
//! journal, not from the report: each degraded obligation is shown with
//! its attempt count, outcome, and the engine effort it spent before
//! degrading.
//!
//! Writes `target/report_supervised.json`,
//! `target/flow/supervised_journal.jsonl`, and
//! `target/flow/supervised_profile.txt`.
//!
//! ```text
//! cargo run --release --example supervised_flow
//! ```

use std::fs;
use symbad_core::flow::{run_full_flow_supervised, FlowReport};
use symbad_core::supervise::SupervisionPolicy;
use symbad_core::workload::Workload;
use telemetry::{EventKind, FlowProfile, Journal};

/// The per-regime policy: bounded under `diverge-mutant` (divergence only
/// affects budgeted solves), unbounded otherwise.
fn policy() -> SupervisionPolicy {
    #[cfg(feature = "diverge-mutant")]
    {
        SupervisionPolicy::with_effort(exec::Effort::bounded(100_000))
    }
    #[cfg(not(feature = "diverge-mutant"))]
    {
        SupervisionPolicy::default()
    }
}

fn run_with(
    workers: usize,
    policy: &SupervisionPolicy,
) -> Result<(FlowReport, Journal), sim::SimError> {
    // A fresh cache per run: the degradation pattern must come from the
    // budget and the injected faults, never from previously cached
    // verdicts. The journal stays wall-clock-free so its deterministic
    // lane is the only lane with obligation data — timing events here are
    // limited to queue depths and worker attribution, which legitimately
    // differ across worker counts.
    let cache = cache::ObligationCache::new();
    let journal = Journal::new();
    let report = run_full_flow_supervised(
        &Workload::small(),
        &telemetry::noop(),
        exec::ExecMode::from_workers(workers),
        &cache,
        policy,
        Some(&journal),
    )?;
    Ok((report, journal))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    exec::silence_injected_panics();
    let policy = policy();

    let (reference, journal) = run_with(1, &policy)?;
    let json = reference.to_json();
    let det_jsonl = journal.deterministic_jsonl();
    let det_report = FlowProfile::from_journal(&journal)
        .deterministic_report()
        .to_text();
    for workers in [2usize, 8] {
        let (report, j) = run_with(workers, &policy)?;
        assert_eq!(
            report.to_json(),
            json,
            "supervised flow report diverged with {workers} workers"
        );
        assert_eq!(
            j.deterministic_jsonl(),
            det_jsonl,
            "journal deterministic lane diverged with {workers} workers"
        );
        assert_eq!(
            FlowProfile::from_journal(&j)
                .deterministic_report()
                .to_text(),
            det_report,
            "deterministic profile report diverged with {workers} workers"
        );
    }
    println!(
        "supervised flow report, journal deterministic lane, and profile \
         bit-identical for workers 1, 2, 8"
    );

    let d = reference
        .degradation
        .as_ref()
        .expect("supervised runs always carry a degradation taxonomy");
    println!(
        "obligations: {} total — {} proved, {} refuted, {} unknown, \
         {} panicked ({} retried)",
        d.total, d.proved, d.refuted, d.unknown, d.panicked, d.retries
    );

    // Degradation timeline, reconstructed from the journal alone: for each
    // degraded obligation, its provenance record carries the attempt count
    // (retried ⇒ 2 attempts) and the effort the engine spent before the
    // supervisor gave up on it.
    let profile = FlowProfile::from_journal(&journal);
    println!(
        "degradation timeline ({} entries):",
        profile.degradations.len()
    );
    for entry in &profile.degradations {
        let prov = profile
            .obligations
            .iter()
            .find(|p| p.obligation == entry.obligation)
            .expect("every degradation has a finished-obligation record");
        println!(
            "  [{}] {} — attempts {}, spent {}: {}",
            entry.status,
            entry.obligation,
            if prov.retried { 2 } else { 1 },
            prov.effort.to_line(),
            entry.detail
        );
    }
    // The journal's degradation lane and the report's taxonomy must agree.
    assert_eq!(
        profile.degradations.len(),
        d.unknown + d.panicked,
        "journal degradation timeline must match the report taxonomy"
    );
    let retried_in_journal = journal
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Retry { .. }))
        .count();
    assert_eq!(
        retried_in_journal, d.retries,
        "journal retry events must match the report taxonomy"
    );
    println!(
        "conclusive: {} (all phases ok: {})",
        reference.conclusive(),
        reference.all_ok()
    );

    // Under an injected fault the report must be partial, never absent;
    // with honest engines and an unbounded budget it must be conclusive.
    #[cfg(any(feature = "panic-mutant", feature = "diverge-mutant"))]
    assert!(
        !reference.conclusive() && d.total > 0,
        "injected faults must surface as a partial verdict"
    );
    #[cfg(not(any(feature = "panic-mutant", feature = "diverge-mutant")))]
    assert!(
        reference.conclusive(),
        "idle supervision must be conclusive"
    );

    fs::create_dir_all("target/flow")?;
    fs::write("target/report_supervised.json", &json)?;
    fs::write("target/flow/supervised_journal.jsonl", journal.to_jsonl())?;
    fs::write(
        "target/flow/supervised_profile.txt",
        profile.report().to_text(),
    )?;
    println!(
        "wrote target/report_supervised.json, target/flow/supervised_journal.jsonl, \
         target/flow/supervised_profile.txt"
    );
    Ok(())
}
