//! The batch verification service under a mixed multi-tenant workload.
//!
//! Three tenants submit twelve jobs spanning every job axis — designs
//! (probe counts), seeded fault campaigns, platform variants — and the
//! service drains them through the shared obligation cache:
//!
//! * **batch A** (cold, 8 workers): jobs run one at a time with their
//!   verification obligations fanned out; the service journal is
//!   streamed incrementally (`Service::flush_events` after every job,
//!   exactly as an operator's log shipper would) and every line is
//!   schema-checked,
//! * **batch B** (warm, same service): the same twelve specs resubmitted
//!   — obligations replay from cache entries batch A inserted, the
//!   cross-tenant hit counters become non-zero, and every report is
//!   asserted bit-identical to its batch-A counterpart.
//!
//! Artifacts land under `target/serve/`:
//!
//! * `service_journal.jsonl` — the streamed service lifecycle lane,
//! * `job-XXXX.jsonl` — each batch-A job's private flight recorder.
//!
//! Service throughput and latency are measured by the `service_batch`
//! workload of the standalone benchmark under `perfbench/`.
//!
//! ```text
//! cargo run --release --example batch_service
//! ```

use std::fs;
use std::path::Path;

use serve::{JobRecord, Service, ServiceConfig};
use symbad_core::job::{FaultPlanSpec, JobSpec};
use telemetry::journal;

/// The mixed workload: every tenant submits one job per axis variant.
fn spec_matrix() -> Vec<JobSpec> {
    let base = JobSpec::default();
    let mut lean = base;
    lean.design.probes = 1;
    let mut faulted = base;
    faulted.faults = Some(FaultPlanSpec::seeded(7));
    let mut fast_fabric = base;
    fast_fabric.platform.hw_speedup = 8;
    vec![base, lean, faulted, fast_fabric]
}

fn submissions() -> Vec<(&'static str, JobSpec)> {
    let mut subs = Vec::new();
    for tenant in ["alpha", "beta", "gamma"] {
        for spec in spec_matrix() {
            subs.push((tenant, spec));
        }
    }
    subs
}

/// Per-job report JSONs keyed by (tenant, spec fingerprint), sorted —
/// the batch identity the determinism assertions compare.
fn keyed_reports(records: &[JobRecord]) -> Vec<((String, u128), String)> {
    let mut out: Vec<((String, u128), String)> = records
        .iter()
        .map(|r| {
            let report = r
                .report()
                .unwrap_or_else(|| panic!("{} completed", r.id))
                .to_json();
            ((r.tenant.clone(), r.spec.fingerprint().0), report)
        })
        .collect();
    out.sort();
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = Path::new("target/serve");
    fs::create_dir_all(out_dir)?;
    let subs = submissions();

    // ── Batch A: cold cache, 8 workers, streamed journal ──────────────
    let mut svc = Service::new(ServiceConfig {
        mode: exec::ExecMode::from_workers(8),
        wall_clock: true,
        ..ServiceConfig::default()
    });
    let mut streamed = String::new();
    for (tenant, spec) in &subs {
        svc.submit(tenant, *spec)?;
    }
    streamed.push_str(&svc.flush_events());
    let mut records_a = Vec::new();
    while let Some(record) = svc.run_next() {
        // The incremental stream an operator would tail: admissions were
        // flushed above, and each iteration flushes exactly one job's
        // started/obligation/finished lines (plus its wall timing).
        streamed.push_str(&svc.flush_events());
        records_a.push(record);
    }
    for line in streamed.lines() {
        journal::validate_line(line).map_err(|e| format!("bad journal line: {e}"))?;
    }
    let reports_a = keyed_reports(&records_a);
    assert!(
        records_a
            .iter()
            .all(|r| r.report().is_some_and(|rep| rep.all_ok())),
        "batch A: every job's flow passes"
    );
    let obligations_a: u64 = records_a.iter().map(JobRecord::obligations).sum();

    // ── Batch B: warm cache, same service — bit-identical, shared ─────
    for (tenant, spec) in &subs {
        svc.submit(tenant, *spec)?;
    }
    let warm = svc.drain();
    assert_eq!(
        keyed_reports(&warm.records),
        reports_a,
        "warm reports are bit-identical to cold ones"
    );
    let cross = svc.cross_tenant_hits();
    let cross_total: u64 = cross.iter().map(|(_, n)| n).sum();
    assert!(
        cross_total > 0,
        "tenants share fingerprint-identical obligations, got {cross:?}"
    );

    // ── Artifacts ─────────────────────────────────────────────────────
    fs::write(out_dir.join("service_journal.jsonl"), &streamed)?;
    for record in &records_a {
        fs::write(
            out_dir.join(format!("{}.jsonl", record.id)),
            record.journal.to_jsonl(),
        )?;
    }

    println!(
        "batch service: {} jobs × 2 batches, warm reports bit-identical to cold",
        subs.len()
    );
    println!("  cold batch: {obligations_a} obligations discharged");
    for (tenant, stats) in svc.tenant_cache_stats() {
        println!(
            "  {tenant}: {} hits / {} misses ({:.2} hit rate)",
            stats.hits,
            stats.misses,
            stats.hit_rate()
        );
    }
    println!("  cross-tenant cache hits: {cross_total} ({cross:?})");
    println!("artifacts: target/serve/");
    Ok(())
}
