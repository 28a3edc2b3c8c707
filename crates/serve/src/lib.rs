//! Verification-as-a-service: a multi-tenant batch server over the flow.
//!
//! [`Service`] turns the library entry point
//! [`symbad_core::flow::run_full_flow_job`] into an operated surface:
//! tenants [`submit`](Service::submit) [`JobSpec`]s through admission
//! control (bounded queue depths, typed [`AdmissionError`]s — overload is
//! an answer, never a panic or a silent drop), a deficit-round-robin
//! scheduler drains the backlog fairly across tenants, every job's
//! verification obligations share one content-addressed
//! [`cache::ObligationCache`], and the whole lifecycle streams onto a
//! [`telemetry::Journal`] as `job_*` events an operator can tail.
//!
//! Three contracts make the service auditable (all pinned by
//! `tests/service_equivalence.rs`):
//!
//! 1. **Single-job transparency** — a service running one default job
//!    produces a [`FlowReport`] bit-identical to calling
//!    [`symbad_core::flow::run_full_flow_supervised`] directly.
//! 2. **Batch determinism** — per-job reports depend only on the job's
//!    spec: admission order, tenant mix, worker count and cache warmth
//!    never change a verdict (see `docs/SERVICE.md` for the soundness
//!    argument).
//! 3. **Fairness** — a tenant with one queued job is served within one
//!    round-robin round regardless of how many jobs the others queued.
//!
//! The service is deliberately `!Sync`: one coordinator thread owns the
//! queue and the journal, and parallelism lives *inside* each job
//! ([`exec::ExecMode`] fans the verification obligations out across
//! workers). That keeps the journal's deterministic lane an ordered,
//! replayable record — the property every downstream tool
//! ([`telemetry::FlowProfile`], the flight-recorder CLI) builds on.
//!
//! ```
//! use serve::{Service, ServiceConfig};
//! use symbad_core::job::JobSpec;
//!
//! let mut service = Service::new(ServiceConfig::default());
//! service.submit("acme", JobSpec::default()).expect("queue has room");
//! let batch = service.drain();
//! assert_eq!(batch.records.len(), 1);
//! assert!(batch.records[0].report().expect("job completed").all_ok());
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use symbad_core::flow::{self, FlowReport};
use symbad_core::job::JobSpec;

/// Admission and scheduling knobs of a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum queued jobs across all tenants; further submissions get
    /// [`AdmissionError::QueueFull`].
    pub queue_depth: usize,
    /// Maximum queued jobs per tenant; further submissions from that
    /// tenant get [`AdmissionError::TenantQueueFull`].
    pub tenant_depth: usize,
    /// Deficit-round-robin quantum, in job-cost units granted to each
    /// backlogged tenant per round (see [`exec::DrrScheduler`]).
    pub quantum: u64,
    /// Execution mode for each job's verification obligations (the jobs
    /// themselves run one at a time on the coordinator thread).
    pub mode: exec::ExecMode,
    /// Whether per-job wall latencies are measured and emitted on the
    /// journals' timing lanes. Off by default: the deterministic lane
    /// stays complete without it, and leaving it off keeps every journal
    /// byte reproducible.
    pub wall_clock: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 64,
            tenant_depth: 16,
            quantum: 4,
            mode: exec::ExecMode::Sequential,
            wall_clock: false,
        }
    }
}

/// Why a submission was refused. Admission control answers with a typed
/// error — the queue never panics and never silently drops a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The service-wide queue is at capacity.
    QueueFull {
        /// Jobs currently queued.
        queued: usize,
        /// Configured service-wide bound.
        queue_depth: usize,
    },
    /// The submitting tenant's own queue is at capacity.
    TenantQueueFull {
        /// The tenant.
        tenant: String,
        /// Jobs the tenant has queued.
        queued: usize,
        /// Configured per-tenant bound.
        tenant_depth: usize,
    },
    /// The tenant label was empty — jobs must be attributable.
    EmptyTenant,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull {
                queued,
                queue_depth,
            } => {
                write!(f, "service queue full ({queued}/{queue_depth})")
            }
            AdmissionError::TenantQueueFull {
                tenant,
                queued,
                tenant_depth,
            } => write!(f, "tenant {tenant} queue full ({queued}/{tenant_depth})"),
            AdmissionError::EmptyTenant => write!(f, "tenant label must be non-empty"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Stable identity of an admitted job, unique within its [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// The journal label of this job (`job-0001`, `job-0002`, …).
    pub fn label(&self) -> String {
        format!("job-{:04}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The flow ran to completion (its report may still contain failing
    /// phases — that is a verification verdict, not a service failure).
    Completed(FlowReport),
    /// The flow itself failed: a simulation kernel error or a panic that
    /// escaped obligation-level supervision. Isolated to this job; the
    /// service keeps serving.
    Failed {
        /// Deterministic one-line description.
        error: String,
    },
}

/// Everything the service retains about one executed job.
#[derive(Debug)]
pub struct JobRecord {
    /// The job's service-assigned identity.
    pub id: JobId,
    /// Tenant that submitted the job.
    pub tenant: String,
    /// The spec as submitted.
    pub spec: JobSpec,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// The job's private flight recorder: phases, obligation lifecycle,
    /// effort attribution — [`telemetry::FlowProfile::from_journal`]
    /// aggregates it.
    pub journal: telemetry::Journal,
    /// Wall latency of the job in microseconds; 0 unless
    /// [`ServiceConfig::wall_clock`] is on.
    pub wall_us: u64,
}

impl JobRecord {
    /// The flow report, when the job completed.
    pub fn report(&self) -> Option<&FlowReport> {
        match &self.outcome {
            JobOutcome::Completed(report) => Some(report),
            JobOutcome::Failed { .. } => None,
        }
    }

    /// Cost-attribution profile aggregated from the job's journal.
    pub fn profile(&self) -> telemetry::FlowProfile {
        telemetry::FlowProfile::from_journal(&self.journal)
    }

    /// Finished verification obligations recorded in the job's journal.
    pub fn obligations(&self) -> u64 {
        self.journal
            .events()
            .iter()
            .filter(|e| matches!(e.kind, telemetry::EventKind::ObligationFinished(_)))
            .count() as u64
    }
}

/// Aggregate statistics of one [`Service::drain`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Jobs executed in this batch.
    pub jobs: u64,
    /// Jobs whose flow ran to completion.
    pub completed: u64,
    /// Jobs that failed (kernel error or escaped panic).
    pub failed: u64,
    /// Verification obligations finished across the batch.
    pub obligations: u64,
    /// Total wall time of the batch in microseconds (0 with the wall
    /// clock off).
    pub wall_us: u64,
    /// Per-job wall-latency distribution (all zeros with the wall clock
    /// off).
    pub latency: telemetry::HistogramSummary,
    /// Sustained obligations per second over the batch (0.0 with the
    /// wall clock off).
    pub obligations_per_sec: f64,
}

/// The result of draining the queue: per-job records in dispatch order,
/// plus batch aggregates.
#[derive(Debug)]
pub struct BatchReport {
    /// Executed jobs, in the deterministic DRR dispatch order.
    pub records: Vec<JobRecord>,
    /// Aggregates over `records`.
    pub stats: BatchStats,
}

impl BatchReport {
    /// Whether every job completed with every flow phase passing.
    pub fn all_ok(&self) -> bool {
        self.records
            .iter()
            .all(|r| r.report().is_some_and(FlowReport::all_ok))
    }
}

/// One queued job.
#[derive(Debug)]
struct QueuedJob {
    id: JobId,
    spec: JobSpec,
}

/// A multi-tenant batch verification service over the full flow.
///
/// See the [crate docs](crate) for the contracts and a quickstart. The
/// service owns its obligation cache, its journal and its queue; it is
/// intentionally not `Sync` — one coordinator thread drives it, and
/// parallelism lives inside each job via [`ServiceConfig::mode`].
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    cache: cache::ObligationCache,
    journal: telemetry::Journal,
    instrument: telemetry::SharedInstrument,
    queue: exec::DrrScheduler<QueuedJob>,
    queued_per_tenant: BTreeMap<String, usize>,
    next_id: u64,
    admissions: u64,
}

impl Service {
    /// An empty service with a cold cache and a fresh journal.
    pub fn new(config: ServiceConfig) -> Self {
        let journal = if config.wall_clock {
            telemetry::Journal::with_wall_clock()
        } else {
            telemetry::Journal::new()
        };
        Service {
            config,
            cache: cache::ObligationCache::new(),
            journal,
            instrument: telemetry::noop(),
            queue: exec::DrrScheduler::new(config.quantum),
            queued_per_tenant: BTreeMap::new(),
            next_id: 1,
            admissions: 0,
        }
    }

    /// Replaces the (default no-op) instrument the service emits
    /// `service.*` counters/gauges on and runs every job's flow under.
    #[must_use]
    pub fn with_instrument(mut self, instrument: telemetry::SharedInstrument) -> Self {
        self.instrument = instrument;
        self
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared obligation cache (for persistence via
    /// [`cache::ObligationCache::save`], or inspection).
    pub fn cache(&self) -> &cache::ObligationCache {
        &self.cache
    }

    /// The service journal carrying the `job_*` lifecycle events.
    pub fn journal(&self) -> &telemetry::Journal {
        &self.journal
    }

    /// Drains journal lines appended since the last call — the streaming
    /// surface an operator tails into a log file (each line passes
    /// [`telemetry::journal::validate_line`]).
    pub fn flush_events(&self) -> String {
        self.journal.flush_new()
    }

    /// Jobs currently queued across all tenants.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Queued jobs per tenant, in round-robin order.
    pub fn backlog(&self) -> Vec<(String, usize)> {
        self.queue.backlog()
    }

    /// Per-tenant cache traffic (hits/misses/inserts attributed to the
    /// tenant whose job was running), sorted by tenant.
    pub fn tenant_cache_stats(&self) -> Vec<(String, cache::TagStats)> {
        self.cache.stats_by_tenant()
    }

    /// Per-tenant count of cache hits served from entries another tenant
    /// inserted — the measure of cross-tenant sharing.
    pub fn cross_tenant_hits(&self) -> Vec<(String, u64)> {
        self.cache.cross_tenant_hits()
    }

    /// Submits a job for `tenant`, returning its [`JobId`] or a typed
    /// [`AdmissionError`]. Every decision lands on the journal
    /// (`job_admitted` / `job_rejected`).
    ///
    /// # Errors
    ///
    /// [`AdmissionError::EmptyTenant`] for an empty tenant label,
    /// [`AdmissionError::TenantQueueFull`] /
    /// [`AdmissionError::QueueFull`] at the configured bounds.
    pub fn submit(&mut self, tenant: &str, spec: JobSpec) -> Result<JobId, AdmissionError> {
        let err = if tenant.is_empty() {
            Some(AdmissionError::EmptyTenant)
        } else {
            let tenant_queued = self.queued_per_tenant.get(tenant).copied().unwrap_or(0);
            if tenant_queued >= self.config.tenant_depth {
                Some(AdmissionError::TenantQueueFull {
                    tenant: tenant.to_owned(),
                    queued: tenant_queued,
                    tenant_depth: self.config.tenant_depth,
                })
            } else if self.queue.len() >= self.config.queue_depth {
                Some(AdmissionError::QueueFull {
                    queued: self.queue.len(),
                    queue_depth: self.config.queue_depth,
                })
            } else {
                None
            }
        };
        if let Some(err) = err {
            self.journal.emit(telemetry::EventKind::JobRejected {
                tenant: tenant.to_owned(),
                reason: err.to_string(),
            });
            self.instrument.counter_add("service.jobs_rejected", 1);
            return Err(err);
        }

        let id = JobId(self.next_id);
        self.next_id += 1;
        let cost = spec.cost();
        self.queue.push(tenant, cost, QueuedJob { id, spec });
        *self.queued_per_tenant.entry(tenant.to_owned()).or_insert(0) += 1;
        self.journal.emit(telemetry::EventKind::JobAdmitted {
            job: id.label(),
            tenant: tenant.to_owned(),
            cost,
        });
        self.instrument.counter_add("service.jobs_admitted", 1);
        self.admissions += 1;
        self.instrument.gauge_set(
            "service.queue_depth",
            self.admissions,
            self.queue.len() as i64,
        );
        Ok(id)
    }

    /// Runs the next job in fair-queue order, or returns `None` when the
    /// queue is empty. The job's flow executes panic-isolated on this
    /// thread; its obligations fan out per [`ServiceConfig::mode`] and
    /// consult the shared cache under the tenant's attribution.
    pub fn run_next(&mut self) -> Option<JobRecord> {
        let (tenant, job) = self.queue.pop()?;
        if let Some(n) = self.queued_per_tenant.get_mut(&tenant) {
            *n = n.saturating_sub(1);
        }
        self.journal.emit(telemetry::EventKind::JobStarted {
            job: job.id.label(),
            tenant: tenant.clone(),
        });

        let job_journal = if self.config.wall_clock {
            telemetry::Journal::with_wall_clock()
        } else {
            telemetry::Journal::new()
        };
        self.cache.set_tenant(Some(&tenant));
        let started = Instant::now();
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            flow::run_full_flow_job(
                &job.spec,
                &self.instrument,
                self.config.mode,
                &self.cache,
                Some(&job_journal),
            )
        }));
        let wall_us = if self.config.wall_clock {
            started.elapsed().as_micros() as u64
        } else {
            0
        };
        self.cache.set_tenant(None);

        let outcome = match run {
            Ok(Ok(report)) => JobOutcome::Completed(report),
            Ok(Err(sim_err)) => JobOutcome::Failed {
                error: format!("simulation error: {sim_err:?}"),
            },
            Err(payload) => JobOutcome::Failed {
                error: format!("panicked: {}", exec::panic_message(payload)),
            },
        };

        // Mirror the job's obligation completions onto the service lane,
        // in the job journal's deterministic order.
        let mut obligations = 0u64;
        for event in job_journal.events() {
            if let telemetry::EventKind::ObligationFinished(p) = &event.kind {
                obligations += 1;
                self.journal.emit(telemetry::EventKind::JobObligationDone {
                    job: job.id.label(),
                    obligation: p.obligation.clone(),
                    outcome: p.outcome.clone(),
                });
            }
        }
        if obligations > 0 {
            self.instrument
                .counter_add("service.obligations_completed", obligations);
        }

        let (ok, conclusive) = match &outcome {
            JobOutcome::Completed(report) => (report.all_ok(), report.conclusive()),
            JobOutcome::Failed { .. } => (false, false),
        };
        self.journal.emit(telemetry::EventKind::JobFinished {
            job: job.id.label(),
            tenant: tenant.clone(),
            ok,
            conclusive,
        });
        if self.config.wall_clock {
            self.journal.emit_timing(telemetry::TimingKind::JobWall {
                job: job.id.label(),
                wall_us,
            });
        }
        match &outcome {
            JobOutcome::Completed(_) => self.instrument.counter_add("service.jobs_completed", 1),
            JobOutcome::Failed { .. } => self.instrument.counter_add("service.jobs_failed", 1),
        }

        Some(JobRecord {
            id: job.id,
            tenant,
            spec: job.spec,
            outcome,
            journal: job_journal,
            wall_us,
        })
    }

    /// Runs every queued job in fair-queue order and returns the batch:
    /// per-job records plus latency/throughput aggregates.
    pub fn drain(&mut self) -> BatchReport {
        let cross_before: u64 = self.cross_tenant_hits().iter().map(|(_, n)| n).sum();
        let mut records = Vec::new();
        let mut latency = telemetry::Histogram::new();
        while let Some(record) = self.run_next() {
            latency.record(record.wall_us);
            records.push(record);
        }
        let cross_after: u64 = self.cross_tenant_hits().iter().map(|(_, n)| n).sum();
        if cross_after > cross_before {
            self.instrument.counter_add(
                "service.cross_tenant_cache_hits",
                cross_after - cross_before,
            );
        }

        let jobs = records.len() as u64;
        let completed = records
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Completed(_)))
            .count() as u64;
        let obligations: u64 = records.iter().map(JobRecord::obligations).sum();
        let wall_us: u64 = records.iter().map(|r| r.wall_us).sum();
        let obligations_per_sec = if wall_us > 0 {
            obligations as f64 * 1_000_000.0 / wall_us as f64
        } else {
            0.0
        };
        BatchReport {
            stats: BatchStats {
                jobs,
                completed,
                failed: jobs - completed,
                obligations,
                wall_us,
                latency: latency.summary(),
                obligations_per_sec,
            },
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> JobSpec {
        // A deliberately tiny design: one probe over a 2-identity
        // gallery keeps the simulation levels cheap in debug tests.
        let mut spec = JobSpec::default();
        spec.design.dataset.identities = 2;
        spec.design.probes = 1;
        spec
    }

    #[test]
    fn lifecycle_events_land_on_the_journal_in_order() {
        let mut service = Service::new(ServiceConfig::default());
        let id = service.submit("acme", quick_spec()).expect("admitted");
        assert_eq!(id.label(), "job-0001");
        assert_eq!(service.queue_len(), 1);
        let record = service.run_next().expect("one job queued");
        assert_eq!(record.id, id);
        assert_eq!(record.tenant, "acme");
        assert!(record.report().expect("completed").all_ok());
        assert!(record.obligations() > 0);
        assert!(service.run_next().is_none());

        let labels: Vec<&'static str> = service
            .journal()
            .events()
            .iter()
            .map(|e| e.kind.label())
            .collect();
        assert_eq!(labels.first(), Some(&"job_admitted"));
        assert_eq!(labels.get(1), Some(&"job_started"));
        assert_eq!(labels.last(), Some(&"job_finished"));
        assert!(
            labels
                .iter()
                .filter(|l| **l == "job_obligation_done")
                .count()
                > 0
        );
        // Every streamed line is schema-valid.
        for line in service.journal().deterministic_jsonl().lines() {
            telemetry::journal::validate_line(line).expect("valid journal line");
        }
    }

    #[test]
    fn admission_errors_are_typed_and_journaled() {
        let mut service = Service::new(ServiceConfig {
            queue_depth: 2,
            tenant_depth: 1,
            ..ServiceConfig::default()
        });
        assert_eq!(
            service.submit("", quick_spec()),
            Err(AdmissionError::EmptyTenant)
        );
        service.submit("a", quick_spec()).expect("admitted");
        assert_eq!(
            service.submit("a", quick_spec()),
            Err(AdmissionError::TenantQueueFull {
                tenant: "a".to_owned(),
                queued: 1,
                tenant_depth: 1,
            })
        );
        service.submit("b", quick_spec()).expect("admitted");
        assert_eq!(
            service.submit("c", quick_spec()),
            Err(AdmissionError::QueueFull {
                queued: 2,
                queue_depth: 2,
            })
        );
        let rejected = service
            .journal()
            .events()
            .iter()
            .filter(|e| e.kind.label() == "job_rejected")
            .count();
        assert_eq!(rejected, 3);
        // The queue still drains normally after rejections.
        let batch = service.drain();
        assert_eq!(batch.stats.jobs, 2);
        assert_eq!(batch.stats.failed, 0);
    }

    #[test]
    fn drain_serves_tenants_fairly() {
        // Quantum 1: each backlogged tenant gets one cost unit per round.
        let mut service = Service::new(ServiceConfig {
            quantum: 1,
            ..ServiceConfig::default()
        });
        for _ in 0..3 {
            service.submit("heavy", quick_spec()).expect("admitted");
        }
        service.submit("light", quick_spec()).expect("admitted");
        let batch = service.drain();
        let tenants: Vec<&str> = batch.records.iter().map(|r| r.tenant.as_str()).collect();
        // DRR: the light tenant is served in the first round, not last.
        assert_eq!(tenants[1], "light");
        assert!(batch.all_ok());
    }
}
