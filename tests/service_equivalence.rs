//! Batch-service contract tests.
//!
//! The `serve` crate's three contracts, pinned end to end:
//!
//! * **Single-job transparency** — a service running one default job is
//!   bit-identical (report JSON *and* journal deterministic lane) to
//!   calling the supervised flow directly.
//! * **Batch determinism** — per-job reports depend only on the job
//!   spec: submission order, worker count and cache warmth never change
//!   a byte.
//! * **Typed overload** — admission control answers with
//!   [`serve::AdmissionError`], never a panic and never a silent drop,
//!   and the queue keeps serving afterwards.

use serve::{AdmissionError, Service, ServiceConfig};
use symbad_core::flow;
use symbad_core::job::{FaultPlanSpec, JobSpec};
use symbad_core::supervise::SupervisionPolicy;
use symbad_core::workload::Workload;

/// A cheap job (2-identity gallery, one probe) for batch tests.
fn quick_spec() -> JobSpec {
    let mut spec = JobSpec::default();
    spec.design.dataset.identities = 2;
    spec.design.probes = 1;
    spec
}

/// Four specs spanning every job axis: design, faults, platform.
fn spec_matrix() -> Vec<JobSpec> {
    let s1 = quick_spec();
    let mut s2 = quick_spec();
    s2.design.probes = 2;
    let mut s3 = quick_spec();
    s3.faults = Some(FaultPlanSpec::seeded(7));
    let mut s4 = quick_spec();
    s4.platform.hw_speedup = 8;
    vec![s1, s2, s3, s4]
}

fn service(config: ServiceConfig) -> Service {
    Service::new(config)
}

/// Drains a fresh service over `submissions`, returning per-job
/// `(tenant, spec-fingerprint) → report JSON`, sorted.
fn batch_reports(
    mode: exec::ExecMode,
    submissions: &[(&str, JobSpec)],
) -> Vec<((String, u128), String)> {
    let mut svc = service(ServiceConfig {
        mode,
        ..ServiceConfig::default()
    });
    for (tenant, spec) in submissions {
        svc.submit(tenant, *spec).expect("queue has room");
    }
    let batch = svc.drain();
    assert_eq!(batch.records.len(), submissions.len());
    let mut out: Vec<((String, u128), String)> = batch
        .records
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

#[test]
fn single_default_job_is_bit_identical_to_the_supervised_flow() {
    // Reference: the library entry point on a fresh cache, journaled.
    let reference_cache = cache::ObligationCache::new();
    let reference_journal = telemetry::Journal::new();
    let reference = flow::run_full_flow_supervised(
        &Workload::small(),
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &reference_cache,
        &SupervisionPolicy::default(),
        Some(&reference_journal),
    )
    .expect("supervised flow runs");

    // Service: one default job on a fresh service.
    let mut svc = service(ServiceConfig::default());
    svc.submit("solo", JobSpec::default()).expect("admitted");
    let batch = svc.drain();
    assert_eq!(batch.records.len(), 1);
    let record = &batch.records[0];

    let report = record.report().expect("job completed");
    assert_eq!(report.to_json(), reference.to_json());
    // The job's private flight recorder carries the same deterministic
    // lane the direct call produces.
    assert_eq!(
        record.journal.deterministic_jsonl(),
        reference_journal.deterministic_jsonl()
    );
}

#[test]
fn batch_reports_are_independent_of_order_and_workers() {
    let tenants = ["alpha", "beta", "gamma"];
    let mut submissions: Vec<(&str, JobSpec)> = Vec::new();
    for tenant in tenants {
        for spec in spec_matrix() {
            submissions.push((tenant, spec));
        }
    }
    assert_eq!(submissions.len(), 12);

    let baseline = batch_reports(exec::ExecMode::Sequential, &submissions);

    // Reversed submission order: same reports, keyed by (tenant, spec).
    let mut reversed = submissions.clone();
    reversed.reverse();
    assert_eq!(
        batch_reports(exec::ExecMode::Sequential, &reversed),
        baseline
    );

    // Worker counts 2 and 8: same reports.
    for workers in [2, 8] {
        assert_eq!(
            batch_reports(exec::ExecMode::from_workers(workers), &submissions),
            baseline,
            "{workers}-worker batch diverged from sequential"
        );
    }
}

#[test]
fn a_jobs_faults_and_platform_reach_its_level_3_run() {
    // The level-3 phase alone: the platform also changes the LPV
    // dimensioning phase, which would hide a level 3 that ignores it.
    let level3_detail = |spec: &JobSpec| {
        let report = flow::run_full_flow_job(
            spec,
            &spec.design.workload(),
            &telemetry::noop(),
            exec::ExecMode::Sequential,
            &cache::ObligationCache::new(),
            None,
        )
        .expect("job runs");
        let phase = report
            .phases
            .into_iter()
            .find(|p| p.phase == "level 3: reconfigurable platform")
            .expect("the flow has a level-3 phase");
        assert!(phase.ok, "{}", phase.detail);
        phase.detail
    };
    let [default, _, faulted, platform]: [JobSpec; 4] =
        spec_matrix().try_into().expect("four specs");
    let baseline = level3_detail(&default);
    assert_ne!(level3_detail(&faulted), baseline, "fault campaign ignored");
    assert_ne!(level3_detail(&platform), baseline, "platform ignored");
}

#[test]
fn overload_is_a_typed_answer_and_the_queue_keeps_serving() {
    let mut svc = service(ServiceConfig {
        queue_depth: 3,
        tenant_depth: 2,
        ..ServiceConfig::default()
    });
    svc.submit("a", quick_spec()).expect("admitted");
    svc.submit("a", quick_spec()).expect("admitted");
    // Third submission from "a" trips the per-tenant bound…
    assert_eq!(
        svc.submit("a", quick_spec()),
        Err(AdmissionError::TenantQueueFull {
            tenant: "a".to_owned(),
            queued: 2,
            tenant_depth: 2,
        })
    );
    svc.submit("b", quick_spec()).expect("admitted");
    // …then the service-wide bound…
    assert_eq!(
        svc.submit("c", quick_spec()),
        Err(AdmissionError::QueueFull {
            queued: 3,
            queue_depth: 3,
        })
    );
    // …and an unattributable submission is refused outright.
    assert_eq!(
        svc.submit("", quick_spec()),
        Err(AdmissionError::EmptyTenant)
    );

    // Rejections are on the journal; admitted jobs still run to
    // completion.
    let rejected = svc
        .journal()
        .events()
        .iter()
        .filter(|e| e.kind.label() == "job_rejected")
        .count();
    assert_eq!(rejected, 3);
    let batch = svc.drain();
    assert_eq!(batch.stats.jobs, 3);
    assert_eq!(batch.stats.failed, 0);
    assert!(batch.all_ok());
}

#[test]
fn cross_tenant_cache_sharing_is_observable_and_sound() {
    let specs = [quick_spec(), {
        let mut s = quick_spec();
        s.platform.hw_speedup = 8;
        s
    }];

    // One service, two successive batches from different tenants with
    // identical specs: the second tenant's obligations replay from
    // entries the first tenant inserted.
    let mut svc = service(ServiceConfig::default());
    for spec in &specs {
        svc.submit("alpha", *spec).expect("admitted");
    }
    let cold = svc.drain();
    for spec in &specs {
        svc.submit("beta", *spec).expect("admitted");
    }
    let warm = svc.drain();

    let cross: Vec<(String, u64)> = svc.cross_tenant_hits();
    let beta_cross = cross
        .iter()
        .find(|(t, _)| t == "beta")
        .map_or(0, |(_, n)| *n);
    assert!(
        beta_cross > 0,
        "beta should hit alpha-owned cache entries, got {cross:?}"
    );
    // Soundness: the shared cache changed beta's cost, not its reports.
    for (cold_rec, warm_rec) in cold.records.iter().zip(&warm.records) {
        assert_eq!(cold_rec.spec.fingerprint(), warm_rec.spec.fingerprint());
        assert_eq!(
            cold_rec.report().expect("alpha completed").to_json(),
            warm_rec.report().expect("beta completed").to_json(),
        );
    }
    // And the per-tenant traffic is attributed.
    let stats = svc.tenant_cache_stats();
    assert!(stats.iter().any(|(t, s)| t == "alpha" && s.inserts > 0));
    assert!(stats.iter().any(|(t, s)| t == "beta" && s.hits > 0));
}
