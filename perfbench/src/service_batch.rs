//! `service_batch`: closed-loop batches through the multi-tenant
//! verification service. Each batch is a fresh `serve::Service` given
//! three tenants × four job specs; the next batch is submitted only
//! after the previous one drains.
//!
//! It exercises `serve`, deficit-round-robin fairness and the cache
//! *read* path (level-4 obligations do not depend on the design, so most
//! probes hit) on small designs, so `sim` is light.

use crate::run::{self, median, ms, quantile, ratio, us, Report, Run, WORKERS};
use serve::{JobId, JobRecord, Service, ServiceConfig};
use std::collections::BTreeMap;
use std::time::Instant;
use symbad_core::job::{FaultPlanSpec, JobSpec};

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
const JOBS: u64 = 12;
/// Batches in a trace sweep.
const TRACE_BATCHES: usize = 24;
const TINY_TRACE_BATCHES: usize = 2;
/// Batches per block of an end-to-end run (about half a second).
const BATCHES_PER_BLOCK: usize = 4;
/// `exec::map` calls timed for `exec.dispatch_us`, their worker count
/// (`nproc` of the reference host), and items per call.
const DISPATCH_CALLS: usize = 200;
const DISPATCH_WORKERS: usize = 2;
const DISPATCH_ITEMS: usize = 64;
const STREAM: u64 = 2;

/// The four spec variants every tenant submits: the default design, a
/// one-probe design, a seeded fault campaign and a faster fabric.
fn specs(seed: u64) -> [JobSpec; 4] {
    let base = JobSpec::default();
    let mut lean = base;
    lean.design.probes = 1;
    let mut faulted = base;
    faulted.faults = Some(FaultPlanSpec::seeded(run::rng(seed, STREAM, 0).next_u64()));
    let mut fast_fabric = base;
    fast_fabric.platform.hw_speedup = 8;
    [base, lean, faulted, fast_fabric]
}

fn service() -> Service {
    Service::new(ServiceConfig {
        mode: exec::ExecMode::from_workers(WORKERS),
        ..ServiceConfig::default()
    })
}

/// Wall times of one job, stamped from outside the service.
struct JobTimes {
    submit_us: f64,
    queue_wait_ms: f64,
    run_next_ms: f64,
    /// Submit → report.
    latency_ms: f64,
}

struct Batch {
    jobs: Vec<JobTimes>,
    wall_s: f64,
    records: Vec<JobRecord>,
    stats: cache::CacheStats,
    cross_tenant_hits: u64,
}

/// Submits every job, then drains the queue one `run_next` at a time.
fn batch(specs: &[JobSpec; 4]) -> Result<Batch, String> {
    let mut svc = service();
    let t0 = Instant::now();
    let mut submitted: BTreeMap<JobId, (Instant, f64)> = BTreeMap::new();
    for tenant in TENANTS {
        for spec in specs {
            let at = Instant::now();
            let id = svc.submit(tenant, *spec).map_err(|e| e.to_string())?;
            submitted.insert(id, (at, us(at.elapsed())));
        }
    }
    let mut jobs = Vec::new();
    let mut records = Vec::new();
    loop {
        let start = Instant::now();
        let Some(record) = svc.run_next() else { break };
        let end = Instant::now();
        let (at, submit_us) = submitted[&record.id];
        jobs.push(JobTimes {
            submit_us,
            queue_wait_ms: ms(start - at),
            run_next_ms: ms(end - start),
            latency_ms: ms(end - at),
        });
        records.push(record);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Batch {
        jobs,
        wall_s,
        records,
        stats: svc.cache().stats(),
        cross_tenant_hits: svc.cross_tenant_hits().iter().map(|(_, n)| n).sum(),
    })
}

/// Each job's report JSON keyed by (tenant, spec fingerprint), sorted.
type Expected = Vec<((String, u128), String)>;

fn keyed_reports(records: &[JobRecord]) -> Result<Expected, String> {
    let mut out = Vec::new();
    for r in records {
        let report = r
            .report()
            .ok_or_else(|| format!("{} did not complete: {:?}", r.id, r.outcome))?;
        if !report.all_ok() {
            return Err(format!("{} has a failing phase", r.id));
        }
        out.push(((r.tenant.clone(), r.spec.fingerprint().0), report.to_json()));
    }
    out.sort();
    Ok(out)
}

/// Checks a batch against the first batch's reports.
fn check(batch: &Batch, expected: &Expected) -> Result<(), String> {
    if batch.records.len() as u64 != JOBS {
        return Err(format!("{} of {JOBS} jobs ran", batch.records.len()));
    }
    if keyed_reports(&batch.records)? != *expected {
        return Err("a job report differs from the first batch's".into());
    }
    Ok(())
}

/// The specs and the reports every later batch is checked against, from
/// a first batch outside any timing.
fn reference(run: &Run, rep: &mut Report) -> Option<([JobSpec; 4], Expected)> {
    let specs = specs(run.seed);
    let expected = rep.attempt(JOBS, "service_batch reference batch", || {
        let first = batch(&specs)?;
        let expected = keyed_reports(&first.records)?;
        check(&first, &expected)?;
        Ok(expected)
    })?;
    Some((specs, expected))
}

pub fn measure(run: &Run, rep: &mut Report) {
    let Some((_, expected)) = reference(run, rep) else {
        return;
    };
    let blocks = run::blocks(
        run,
        rep,
        BATCHES_PER_BLOCK,
        |rep| {
            // Set-up: derive the specs, start a service and run one
            // warm-up job through it.
            let ((specs, warm_up), setup_s) = run::timed(|| {
                let specs = specs(run.seed);
                let mut svc = service();
                let warm_up = svc.submit(TENANTS[0], specs[0]).map(|_| svc.run_next());
                (specs, warm_up)
            });
            rep.attempt(1, "service_batch set-up", || {
                let record = warm_up.map_err(|e| e.to_string())?.ok_or("no job ran")?;
                let report = keyed_reports(std::slice::from_ref(&record))?;
                if !expected.contains(&report[0]) {
                    return Err("the warm-up job's report differs from the first batch's".into());
                }
                Ok(())
            })?;
            Some((specs, setup_s))
        },
        |rep, specs| {
            let b = rep.attempt(JOBS, "service_batch batch", || {
                let b = batch(specs)?;
                check(&b, &expected)?;
                Ok(b)
            })?;
            Some((b.jobs.iter().map(|j| j.latency_ms).collect(), b.wall_s))
        },
    );
    rep.end_to_end(&blocks);
    rep.size("batches_per_block", BATCHES_PER_BLOCK as u64);
    rep.size("jobs_per_batch", JOBS);
    rep.size("tenants", TENANTS.len() as u64);
    rep.size("workers", WORKERS as u64);
}

pub fn trace(run: &Run, rep: &mut Report) {
    let batches = if run.tiny {
        TINY_TRACE_BATCHES
    } else {
        TRACE_BATCHES
    };
    let Some((specs, expected)) = reference(run, rep) else {
        return;
    };
    let mut jobs = Vec::new();
    let mut obligations = 0u64;
    let (mut hits, mut misses, mut cross) = (0u64, 0u64, 0u64);
    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    for _ in 0..batches {
        rep.attempt(JOBS, "service_batch traced batch", || {
            let b = batch(&specs)?;
            check(&b, &expected)?;
            obligations += b.records.iter().map(JobRecord::obligations).sum::<u64>();
            hits += b.stats.hits;
            misses += b.stats.misses;
            cross += b.cross_tenant_hits;
            jobs.extend(b.jobs);
            Ok(())
        });
        rep.attempt(1, "level-4 cold/warm", || {
            let mode = exec::ExecMode::from_workers(WORKERS);
            let obligations = cache::ObligationCache::new();
            let noop = telemetry::noop();
            let t = Instant::now();
            let cold = symbad_core::level4::run_cached(mode, &noop, &obligations);
            cold_ms.push(ms(t.elapsed()));
            let t = Instant::now();
            let warm = symbad_core::level4::run_cached(mode, &noop, &obligations);
            warm_ms.push(ms(t.elapsed()));
            if format!("{cold:?}") != format!("{warm:?}") {
                return Err("warm level-4 report differs from the cold one".into());
            }
            Ok(())
        });
    }

    let mut dispatch_us = Vec::new();
    rep.attempt(1, "exec dispatch", || {
        let mode = exec::ExecMode::from_workers(DISPATCH_WORKERS);
        for _ in 0..DISPATCH_CALLS {
            let items: Vec<usize> = (0..DISPATCH_ITEMS).collect();
            let t = Instant::now();
            let out = exec::map(mode, items, |_, x| x);
            dispatch_us.push(us(t.elapsed()) / DISPATCH_ITEMS as f64);
            if out != (0..DISPATCH_ITEMS).collect::<Vec<_>>() {
                return Err("exec::map lost or reordered items".into());
            }
        }
        Ok(())
    });

    let pick = |f: fn(&JobTimes) -> f64| jobs.iter().map(f).collect::<Vec<_>>();
    let run_next_ms = pick(|j| j.run_next_ms);
    rep.metric("serve.submit_us_p50", "us", median(&pick(|j| j.submit_us)));
    rep.metric("serve.run_next_ms_p50", "ms", median(&run_next_ms));
    rep.metric("serve.run_next_ms_p99", "ms", quantile(&run_next_ms, 0.99));
    rep.metric(
        "serve.queue_wait_ms_p50",
        "ms",
        median(&pick(|j| j.queue_wait_ms)),
    );
    rep.metric(
        "serve.obligations_per_job",
        "count",
        ratio(obligations as f64, jobs.len() as f64),
    );
    rep.metric("cache.hits", "count", hits as f64);
    rep.metric("cache.misses", "count", misses as f64);
    rep.metric(
        "cache.hit_ratio",
        "ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    rep.metric("cache.cross_tenant_hits", "count", cross as f64);
    rep.metric("core.level4_cold_ms", "ms", median(&cold_ms));
    rep.metric("core.level4_warm_ms", "ms", median(&warm_ms));
    rep.metric("exec.dispatch_us", "us", median(&dispatch_us));
    rep.size("trace_batches", batches as u64);
    rep.size("dispatch_workers", DISPATCH_WORKERS as u64);
}
