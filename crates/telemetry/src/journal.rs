//! The flight recorder: a bounded, typed, streaming event journal.
//!
//! Where the [`crate::Collector`] answers "how much" (counters, gauges,
//! histograms), the journal answers "what happened, in what order, and
//! what did each step cost": obligation lifecycles with per-obligation
//! effort provenance, cache probes, budget spend, panics/retries/
//! degradations, FPGA reconfigurations, phase transitions, and worker
//! queue activity.
//!
//! # Two lanes
//!
//! Events are split into two lanes with independent sequence counters:
//!
//! * the **deterministic lane** ([`EventKind`], field `seq`) carries only
//!   schedule-independent facts — obligation names, engine tags,
//!   fingerprints, effort spent in solver conflicts/decisions/BDD nodes,
//!   outcomes. For a fixed workload its JSONL rendering is bit-identical
//!   across worker counts, which is what makes it golden-testable;
//! * the **timing lane** ([`TimingKind`], field `tseq`) carries wall
//!   clock, worker ids and queue depths — honest performance data that is
//!   *expected* to differ run to run and is therefore kept out of the
//!   deterministic stream entirely.
//!
//! Emission is coordinator-only: worker threads never hold a journal
//! handle (the interior `RefCell` is deliberately `!Sync`, so the
//! compiler rejects a journal captured by an `exec::map` closure). The
//! coordinator emits events in obligation order, exactly like the
//! per-obligation collector replay discipline of the parallel backbone.
//!
//! # Bounding and streaming
//!
//! The ring keeps at most `capacity` events per lane; overflow drops the
//! oldest and counts it ([`Journal::dropped`]), so a journal can run for
//! the lifetime of a long service without unbounded growth.
//! [`Journal::flush_new`] renders only the lines appended since the last
//! flush — the incremental streaming primitive the batch-server roadmap
//! item needs.

use crate::collect::Collector;
use crate::json::Json;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Default per-lane ring capacity.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Deterministic effort spent by one obligation (or one phase), measured
/// on machine-independent axes — never wall-clock.
///
/// Derived from the counters an obligation's private [`Collector`]
/// accumulated ([`EffortSpent::from_collector`]), so attribution reuses
/// the exact instrumentation stream the engines already emit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffortSpent {
    /// SAT conflicts.
    pub sat_conflicts: u64,
    /// SAT decisions.
    pub sat_decisions: u64,
    /// SAT unit propagations.
    pub sat_propagations: u64,
    /// BDD nodes allocated.
    pub bdd_nodes: u64,
    /// Obligation-cache hits.
    pub cache_hits: u64,
    /// Obligation-cache misses.
    pub cache_misses: u64,
}

impl EffortSpent {
    /// Reads the effort axes out of a collector's counters (the counter
    /// names are the workspace-standard ones; see `docs/METRICS.md`).
    pub fn from_collector(c: &Collector) -> Self {
        EffortSpent {
            sat_conflicts: c.counter("sat.conflicts"),
            sat_decisions: c.counter("sat.decisions"),
            sat_propagations: c.counter("sat.propagations"),
            bdd_nodes: c.counter("bdd.nodes_allocated"),
            cache_hits: c.counter("cache.hits"),
            cache_misses: c.counter("cache.misses"),
        }
    }

    /// `after - before`, saturating (counters are monotonic, so a
    /// negative delta means a caller mixed up snapshots — clamp, don't
    /// wrap).
    pub fn delta(before: &EffortSpent, after: &EffortSpent) -> Self {
        EffortSpent {
            sat_conflicts: after.sat_conflicts.saturating_sub(before.sat_conflicts),
            sat_decisions: after.sat_decisions.saturating_sub(before.sat_decisions),
            sat_propagations: after
                .sat_propagations
                .saturating_sub(before.sat_propagations),
            bdd_nodes: after.bdd_nodes.saturating_sub(before.bdd_nodes),
            cache_hits: after.cache_hits.saturating_sub(before.cache_hits),
            cache_misses: after.cache_misses.saturating_sub(before.cache_misses),
        }
    }

    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &EffortSpent) {
        self.sat_conflicts += other.sat_conflicts;
        self.sat_decisions += other.sat_decisions;
        self.sat_propagations += other.sat_propagations;
        self.bdd_nodes += other.bdd_nodes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Scalar cost score used to rank obligations: search effort
    /// (conflicts + decisions) plus BDD growth. Propagations and cache
    /// traffic are reported but not scored — they are consequences of
    /// search, not independent work.
    pub fn score(&self) -> u64 {
        self.sat_conflicts + self.sat_decisions + self.bdd_nodes
    }

    /// Whether every axis is zero.
    pub fn is_zero(&self) -> bool {
        *self == EffortSpent::default()
    }

    /// Compact one-line rendering for logs and timelines.
    pub fn to_line(&self) -> String {
        format!(
            "conflicts {}, decisions {}, propagations {}, bdd nodes {}, cache {}/{}",
            self.sat_conflicts,
            self.sat_decisions,
            self.sat_propagations,
            self.bdd_nodes,
            self.cache_hits,
            self.cache_hits + self.cache_misses
        )
    }
}

/// Full provenance of one finished obligation: identity, engine, effort
/// and outcome — the per-event record the flow profiler aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Stable obligation name (`miter:distance`, `property:state_in_range`,
    /// `phase:level 4: RTL, model checking, PCC`, …).
    pub obligation: String,
    /// Engine tag (`level4.miter`, `bmc`, `bdd-reach`, `flow.phase`, …).
    pub engine: String,
    /// 128-bit obligation identity fingerprint (the same dual-FNV lane
    /// construction the obligation cache uses), rendered as 32 hex
    /// digits in the JSONL stream.
    pub fingerprint: u128,
    /// Effort spent across all attempts.
    pub effort: EffortSpent,
    /// Outcome label (`proved`, `refuted`, `unknown`, `panicked`,
    /// `pass`, `fail`).
    pub outcome: String,
    /// Whether a panicked first attempt was retried.
    pub retried: bool,
}

/// One deterministic-lane event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An obligation was dispatched.
    ObligationStarted {
        /// Obligation name.
        obligation: String,
        /// Engine tag.
        engine: String,
    },
    /// An obligation finished, with full cost provenance.
    ObligationFinished(Provenance),
    /// Obligation-cache traffic attributed to one obligation.
    CacheProbe {
        /// Obligation name.
        obligation: String,
        /// Lookups served from the cache.
        hits: u64,
        /// Lookups that missed.
        misses: u64,
    },
    /// Deterministic budget spend on one effort axis.
    BudgetSpend {
        /// Obligation name.
        obligation: String,
        /// Axis label (`sat_conflicts`, `sat_decisions`, `bdd_nodes`).
        axis: &'static str,
        /// Effort spent on the axis.
        spent: u64,
        /// Per-call cap configured for the axis.
        cap: u64,
    },
    /// A supervised obligation panicked (rendered payload).
    Panic {
        /// Obligation name.
        obligation: String,
        /// Deterministic panic message.
        message: String,
    },
    /// A panicked obligation was retried.
    Retry {
        /// Obligation name.
        obligation: String,
    },
    /// An obligation degraded (ended Unknown or Panicked).
    Degradation {
        /// Obligation name.
        obligation: String,
        /// Final status label.
        status: String,
        /// One line of evidence.
        detail: String,
    },
    /// FPGA reconfiguration summary for a simulation level.
    FpgaReconfig {
        /// Context downloads performed.
        reconfigurations: u64,
        /// Bitstream words moved over the bus.
        download_words: u64,
    },
    /// A flow phase completed.
    Phase {
        /// Phase index on the flow axis.
        index: u64,
        /// Phase name.
        name: String,
        /// Whether the phase's checks passed.
        ok: bool,
    },
    /// A batch-service job passed admission control and joined its
    /// tenant's queue (the `serve` crate's lifecycle lane).
    JobAdmitted {
        /// Stable job label (`job-0001`, …).
        job: String,
        /// Tenant that submitted the job.
        tenant: String,
        /// Scheduling cost charged against the tenant's deficit.
        cost: u64,
    },
    /// A batch-service job left its queue and started running.
    JobStarted {
        /// Stable job label.
        job: String,
        /// Tenant that submitted the job.
        tenant: String,
    },
    /// One verification obligation of a running batch-service job
    /// finished (mirrored from the job's private journal, in obligation
    /// order).
    JobObligationDone {
        /// Stable job label.
        job: String,
        /// Obligation name.
        obligation: String,
        /// Outcome label (`proved`, `refuted`, `unknown`, `panicked`).
        outcome: String,
    },
    /// A batch-service job finished (successfully or not).
    JobFinished {
        /// Stable job label.
        job: String,
        /// Tenant that submitted the job.
        tenant: String,
        /// Whether every flow phase passed.
        ok: bool,
        /// Whether every supervised obligation ended conclusively.
        conclusive: bool,
    },
    /// A submission was rejected by admission control (the job never
    /// got an id — the rejection is the whole record).
    JobRejected {
        /// Tenant that attempted the submission.
        tenant: String,
        /// Deterministic one-line rejection reason.
        reason: String,
    },
}

impl EventKind {
    /// Stable `kind` label used in the JSONL stream.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::ObligationStarted { .. } => "obligation_started",
            EventKind::ObligationFinished(_) => "obligation_finished",
            EventKind::CacheProbe { .. } => "cache_probe",
            EventKind::BudgetSpend { .. } => "budget_spend",
            EventKind::Panic { .. } => "panic",
            EventKind::Retry { .. } => "retry",
            EventKind::Degradation { .. } => "degradation",
            EventKind::FpgaReconfig { .. } => "fpga_reconfig",
            EventKind::Phase { .. } => "phase",
            EventKind::JobAdmitted { .. } => "job_admitted",
            EventKind::JobStarted { .. } => "job_started",
            EventKind::JobObligationDone { .. } => "job_obligation_done",
            EventKind::JobFinished { .. } => "job_finished",
            EventKind::JobRejected { .. } => "job_rejected",
        }
    }
}

/// One timing-lane event. Everything here is allowed to differ between
/// runs and worker counts.
#[derive(Debug, Clone, PartialEq)]
pub enum TimingKind {
    /// Wall-clock latency of one obligation (all attempts).
    ObligationWall {
        /// Obligation name.
        obligation: String,
        /// Microseconds of wall time.
        wall_us: u64,
    },
    /// Queue shape of one dispatched batch.
    QueueDepth {
        /// Batch label (`level4.miters`, `level4.properties`, …).
        batch: String,
        /// Jobs enqueued.
        jobs: u64,
        /// Worker threads serving the batch.
        workers: u64,
        /// Deepest observed backlog while draining.
        peak_depth: u64,
    },
    /// Which worker ran which job (per-job attribution).
    WorkerJob {
        /// Batch label.
        batch: String,
        /// Job name (obligation name when known, else the index).
        job: String,
        /// Worker index within the batch's pool.
        worker: u64,
    },
    /// Wall-clock of a whole run section (used for obligations/sec).
    RunWall {
        /// Section label (`flow.cold`, `flow.supervised`, …).
        label: String,
        /// Microseconds of wall time.
        wall_us: u64,
    },
    /// End-to-end wall-clock latency of one batch-service job
    /// (queue-exit to finish; the `serve` crate's latency lane).
    JobWall {
        /// Stable job label.
        job: String,
        /// Microseconds of wall time.
        wall_us: u64,
    },
}

impl TimingKind {
    /// Stable `kind` label used in the JSONL stream.
    pub fn label(&self) -> &'static str {
        match self {
            TimingKind::ObligationWall { .. } => "obligation_wall",
            TimingKind::QueueDepth { .. } => "queue_depth",
            TimingKind::WorkerJob { .. } => "worker_job",
            TimingKind::RunWall { .. } => "run_wall",
            TimingKind::JobWall { .. } => "job_wall",
        }
    }
}

/// A deterministic-lane event with its sequence number (the ordering key
/// of the deterministic stream).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// 1-based deterministic-lane sequence number.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

/// A timing-lane event with its own sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingEvent {
    /// 1-based timing-lane sequence number.
    pub tseq: u64,
    /// Payload.
    pub kind: TimingKind,
}

impl Event {
    /// Renders as one compact JSON object (one JSONL line, no newline).
    pub fn to_jsonl(&self) -> String {
        let mut members: Vec<(&str, Json)> = vec![
            ("seq", Json::UInt(self.seq)),
            ("kind", Json::Str(self.kind.label().to_owned())),
        ];
        match &self.kind {
            EventKind::ObligationStarted { obligation, engine } => {
                members.push(("obligation", Json::Str(obligation.clone())));
                members.push(("engine", Json::Str(engine.clone())));
            }
            EventKind::ObligationFinished(p) => {
                members.push(("obligation", Json::Str(p.obligation.clone())));
                members.push(("engine", Json::Str(p.engine.clone())));
                members.push(("fingerprint", Json::Str(format!("{:032x}", p.fingerprint))));
                members.push(("outcome", Json::Str(p.outcome.clone())));
                members.push(("retried", Json::Bool(p.retried)));
                members.push(("sat_conflicts", Json::UInt(p.effort.sat_conflicts)));
                members.push(("sat_decisions", Json::UInt(p.effort.sat_decisions)));
                members.push(("sat_propagations", Json::UInt(p.effort.sat_propagations)));
                members.push(("bdd_nodes", Json::UInt(p.effort.bdd_nodes)));
                members.push(("cache_hits", Json::UInt(p.effort.cache_hits)));
                members.push(("cache_misses", Json::UInt(p.effort.cache_misses)));
            }
            EventKind::CacheProbe {
                obligation,
                hits,
                misses,
            } => {
                members.push(("obligation", Json::Str(obligation.clone())));
                members.push(("hits", Json::UInt(*hits)));
                members.push(("misses", Json::UInt(*misses)));
            }
            EventKind::BudgetSpend {
                obligation,
                axis,
                spent,
                cap,
            } => {
                members.push(("obligation", Json::Str(obligation.clone())));
                members.push(("axis", Json::Str((*axis).to_owned())));
                members.push(("spent", Json::UInt(*spent)));
                members.push(("cap", Json::UInt(*cap)));
            }
            EventKind::Panic {
                obligation,
                message,
            } => {
                members.push(("obligation", Json::Str(obligation.clone())));
                members.push(("message", Json::Str(message.clone())));
            }
            EventKind::Retry { obligation } => {
                members.push(("obligation", Json::Str(obligation.clone())));
            }
            EventKind::Degradation {
                obligation,
                status,
                detail,
            } => {
                members.push(("obligation", Json::Str(obligation.clone())));
                members.push(("status", Json::Str(status.clone())));
                members.push(("detail", Json::Str(detail.clone())));
            }
            EventKind::FpgaReconfig {
                reconfigurations,
                download_words,
            } => {
                members.push(("reconfigurations", Json::UInt(*reconfigurations)));
                members.push(("download_words", Json::UInt(*download_words)));
            }
            EventKind::Phase { index, name, ok } => {
                members.push(("index", Json::UInt(*index)));
                members.push(("name", Json::Str(name.clone())));
                members.push(("ok", Json::Bool(*ok)));
            }
            EventKind::JobAdmitted { job, tenant, cost } => {
                members.push(("job", Json::Str(job.clone())));
                members.push(("tenant", Json::Str(tenant.clone())));
                members.push(("cost", Json::UInt(*cost)));
            }
            EventKind::JobStarted { job, tenant } => {
                members.push(("job", Json::Str(job.clone())));
                members.push(("tenant", Json::Str(tenant.clone())));
            }
            EventKind::JobObligationDone {
                job,
                obligation,
                outcome,
            } => {
                members.push(("job", Json::Str(job.clone())));
                members.push(("obligation", Json::Str(obligation.clone())));
                members.push(("outcome", Json::Str(outcome.clone())));
            }
            EventKind::JobFinished {
                job,
                tenant,
                ok,
                conclusive,
            } => {
                members.push(("job", Json::Str(job.clone())));
                members.push(("tenant", Json::Str(tenant.clone())));
                members.push(("ok", Json::Bool(*ok)));
                members.push(("conclusive", Json::Bool(*conclusive)));
            }
            EventKind::JobRejected { tenant, reason } => {
                members.push(("tenant", Json::Str(tenant.clone())));
                members.push(("reason", Json::Str(reason.clone())));
            }
        }
        Json::obj(members).render()
    }
}

impl TimingEvent {
    /// Renders as one compact JSON object (one JSONL line, no newline).
    pub fn to_jsonl(&self) -> String {
        let mut members: Vec<(&str, Json)> = vec![
            ("tseq", Json::UInt(self.tseq)),
            ("kind", Json::Str(self.kind.label().to_owned())),
        ];
        match &self.kind {
            TimingKind::ObligationWall {
                obligation,
                wall_us,
            } => {
                members.push(("obligation", Json::Str(obligation.clone())));
                members.push(("wall_us", Json::UInt(*wall_us)));
            }
            TimingKind::QueueDepth {
                batch,
                jobs,
                workers,
                peak_depth,
            } => {
                members.push(("batch", Json::Str(batch.clone())));
                members.push(("jobs", Json::UInt(*jobs)));
                members.push(("workers", Json::UInt(*workers)));
                members.push(("peak_depth", Json::UInt(*peak_depth)));
            }
            TimingKind::WorkerJob { batch, job, worker } => {
                members.push(("batch", Json::Str(batch.clone())));
                members.push(("job", Json::Str(job.clone())));
                members.push(("worker", Json::UInt(*worker)));
            }
            TimingKind::RunWall { label, wall_us } => {
                members.push(("label", Json::Str(label.clone())));
                members.push(("wall_us", Json::UInt(*wall_us)));
            }
            TimingKind::JobWall { job, wall_us } => {
                members.push(("job", Json::Str(job.clone())));
                members.push(("wall_us", Json::UInt(*wall_us)));
            }
        }
        Json::obj(members).render()
    }
}

#[derive(Debug, Default)]
struct JournalInner {
    seq: u64,
    tseq: u64,
    events: VecDeque<Event>,
    timing: VecDeque<TimingEvent>,
    dropped: u64,
    timing_dropped: u64,
    /// Highest sequence numbers already rendered by [`Journal::flush_new`].
    flushed_seq: u64,
    flushed_tseq: u64,
}

/// The flight recorder. Interior-mutable and deliberately `!Sync` —
/// emission is a coordinator-thread activity, exactly like the collector
/// replay discipline; a journal captured by a worker closure is a
/// compile error.
#[derive(Debug)]
pub struct Journal {
    inner: RefCell<JournalInner>,
    capacity: usize,
    /// Whether the coordinator should bother capturing wall-clock for
    /// timing-lane events. Off by default so test journals stay free of
    /// host noise.
    wall_enabled: bool,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// A journal with the default ring capacity and wall capture off
    /// (the deterministic configuration used by tests).
    pub fn new() -> Self {
        Journal::with_capacity(DEFAULT_CAPACITY)
    }

    /// A journal with an explicit per-lane ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Journal {
            inner: RefCell::new(JournalInner::default()),
            capacity: capacity.max(1),
            wall_enabled: false,
        }
    }

    /// A journal whose coordinator also records wall-clock timing events
    /// (obligation latency, run throughput). The deterministic lane is
    /// unaffected.
    pub fn with_wall_clock() -> Self {
        Journal {
            wall_enabled: true,
            ..Journal::new()
        }
    }

    /// Whether the coordinator should capture wall-clock timing.
    pub fn wall_enabled(&self) -> bool {
        self.wall_enabled
    }

    /// Appends one deterministic-lane event.
    pub fn emit(&self, kind: EventKind) {
        let mut i = self.inner.borrow_mut();
        i.seq += 1;
        let seq = i.seq;
        if i.events.len() >= self.capacity {
            i.events.pop_front();
            i.dropped += 1;
        }
        i.events.push_back(Event { seq, kind });
    }

    /// Appends one timing-lane event.
    pub fn emit_timing(&self, kind: TimingKind) {
        let mut i = self.inner.borrow_mut();
        i.tseq += 1;
        let tseq = i.tseq;
        if i.timing.len() >= self.capacity {
            i.timing.pop_front();
            i.timing_dropped += 1;
        }
        i.timing.push_back(TimingEvent { tseq, kind });
    }

    /// Snapshot of the deterministic lane, in sequence order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.borrow().events.iter().cloned().collect()
    }

    /// Snapshot of the timing lane, in sequence order.
    pub fn timing_events(&self) -> Vec<TimingEvent> {
        self.inner.borrow().timing.iter().cloned().collect()
    }

    /// Events currently retained (deterministic lane, timing lane).
    pub fn len(&self) -> (usize, usize) {
        let i = self.inner.borrow();
        (i.events.len(), i.timing.len())
    }

    /// True when both lanes are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }

    /// Events dropped to ring overflow (deterministic lane, timing lane).
    pub fn dropped(&self) -> (u64, u64) {
        let i = self.inner.borrow();
        (i.dropped, i.timing_dropped)
    }

    /// The deterministic lane as JSONL (one event per line, trailing
    /// newline). Bit-identical across worker counts for a fixed workload.
    pub fn deterministic_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.inner.borrow().events.iter() {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// The timing lane as JSONL.
    pub fn timing_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.inner.borrow().timing.iter() {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Both lanes as JSONL: the deterministic stream first, then the
    /// timing stream (each line self-describes its lane via `seq` vs
    /// `tseq`).
    pub fn to_jsonl(&self) -> String {
        let mut out = self.deterministic_jsonl();
        out.push_str(&self.timing_jsonl());
        out
    }

    /// Renders only the lines appended since the previous `flush_new`
    /// call — the incremental streaming primitive (a service can call
    /// this on a cadence and append to a log sink). Returns an empty
    /// string when nothing new happened.
    pub fn flush_new(&self) -> String {
        let mut i = self.inner.borrow_mut();
        let mut out = String::new();
        let from_seq = i.flushed_seq;
        for e in i.events.iter().filter(|e| e.seq > from_seq) {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        let from_tseq = i.flushed_tseq;
        for e in i.timing.iter().filter(|e| e.tseq > from_tseq) {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        i.flushed_seq = i.seq;
        i.flushed_tseq = i.tseq;
        out
    }
}

// ── JSONL schema validation ──────────────────────────────────────────────

/// Validates one JSONL journal line against the event schema: the line
/// must parse as a JSON object whose first member is `seq` (deterministic
/// lane) or `tseq` (timing lane) holding an unsigned integer, whose second
/// is `kind` holding a string that names a kind of that lane, and whose
/// remaining members are exactly the keys that kind requires, in order,
/// each holding the type [`Event::to_jsonl`] or [`TimingEvent::to_jsonl`]
/// writes for it. A nested value is always of the wrong type, so journal
/// lines are flat.
///
/// This is what the `observability-smoke` CI job runs over every line the
/// flow example streams out.
pub fn validate_line(line: &str) -> Result<(), String> {
    let Some(Json::Obj(members)) = crate::json::parse(line) else {
        return Err("line is not a JSON object".to_owned());
    };
    let deterministic = match members.first() {
        Some((lane, Json::UInt(_))) if lane == "seq" => true,
        Some((lane, Json::UInt(_))) if lane == "tseq" => false,
        _ => return Err("first member must be seq/tseq holding an unsigned integer".to_owned()),
    };
    let kind = match members.get(1) {
        Some((key, Json::Str(kind))) if key == "kind" => kind.as_str(),
        _ => return Err("second member must be 'kind' holding a string".to_owned()),
    };
    let expected: &[&str] = match (deterministic, kind) {
        (true, "obligation_started") => &["obligation", "engine"],
        (true, "obligation_finished") => &[
            "obligation",
            "engine",
            "fingerprint",
            "outcome",
            "retried",
            "sat_conflicts",
            "sat_decisions",
            "sat_propagations",
            "bdd_nodes",
            "cache_hits",
            "cache_misses",
        ],
        (true, "cache_probe") => &["obligation", "hits", "misses"],
        (true, "budget_spend") => &["obligation", "axis", "spent", "cap"],
        (true, "panic") => &["obligation", "message"],
        (true, "retry") => &["obligation"],
        (true, "degradation") => &["obligation", "status", "detail"],
        (true, "fpga_reconfig") => &["reconfigurations", "download_words"],
        (true, "phase") => &["index", "name", "ok"],
        (true, "job_admitted") => &["job", "tenant", "cost"],
        (true, "job_started") => &["job", "tenant"],
        (true, "job_obligation_done") => &["job", "obligation", "outcome"],
        (true, "job_finished") => &["job", "tenant", "ok", "conclusive"],
        (true, "job_rejected") => &["tenant", "reason"],
        (false, "obligation_wall") => &["obligation", "wall_us"],
        (false, "queue_depth") => &["batch", "jobs", "workers", "peak_depth"],
        (false, "worker_job") => &["batch", "job", "worker"],
        (false, "run_wall") => &["label", "wall_us"],
        (false, "job_wall") => &["job", "wall_us"],
        (lane, kind) => {
            return Err(format!(
                "unknown kind {kind:?} on the {} lane",
                if lane { "deterministic" } else { "timing" }
            ))
        }
    };
    let fields = &members[2..];
    let got: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
    if got != expected {
        return Err(format!(
            "kind {kind:?} expects keys {expected:?}, found {got:?}"
        ));
    }
    for (key, value) in fields {
        let typed = match key.as_str() {
            "retried" | "ok" | "conclusive" => matches!(value, Json::Bool(_)),
            "obligation" | "engine" | "fingerprint" | "outcome" | "axis" | "message" | "status"
            | "detail" | "name" | "job" | "tenant" | "reason" | "batch" | "label" => {
                matches!(value, Json::Str(_))
            }
            _ => matches!(value, Json::UInt(_)),
        };
        if !typed {
            return Err(format!(
                "key {key:?} holds {}, a value of the wrong type",
                value.render()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(name: &str, conflicts: u64) -> EventKind {
        EventKind::ObligationFinished(Provenance {
            obligation: name.to_owned(),
            engine: "bmc".to_owned(),
            fingerprint: 0xDEAD_BEEF,
            effort: EffortSpent {
                sat_conflicts: conflicts,
                ..EffortSpent::default()
            },
            outcome: "proved".to_owned(),
            retried: false,
        })
    }

    #[test]
    fn events_get_monotonic_seq_and_round_trip_jsonl() {
        let j = Journal::new();
        j.emit(EventKind::ObligationStarted {
            obligation: "miter:distance".into(),
            engine: "level4.miter".into(),
        });
        j.emit(finished("miter:distance", 12));
        j.emit_timing(TimingKind::ObligationWall {
            obligation: "miter:distance".into(),
            wall_us: 99,
        });
        let events = j.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        assert_eq!(j.timing_events()[0].tseq, 1);
        assert_eq!(j.len(), (2, 1));
        assert!(!j.is_empty());
        for line in j.to_jsonl().lines() {
            validate_line(line).expect(line);
        }
        assert!(j
            .deterministic_jsonl()
            .contains("\"fingerprint\":\"000000000000000000000000deadbeef\""));
        assert!(j.timing_jsonl().contains("\"wall_us\":99"));
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let j = Journal::with_capacity(2);
        for i in 0..5 {
            j.emit(finished(&format!("o{i}"), i));
        }
        let events = j.events();
        assert_eq!(events.len(), 2);
        // Oldest dropped; seq numbers keep counting.
        assert_eq!(events[0].seq, 4);
        assert_eq!(events[1].seq, 5);
        assert_eq!(j.dropped(), (3, 0));
    }

    #[test]
    fn flush_new_is_incremental() {
        let j = Journal::new();
        j.emit(finished("a", 1));
        let first = j.flush_new();
        assert_eq!(first.lines().count(), 1);
        assert!(j.flush_new().is_empty());
        j.emit(finished("b", 2));
        j.emit_timing(TimingKind::RunWall {
            label: "flow".into(),
            wall_us: 5,
        });
        let second = j.flush_new();
        assert_eq!(second.lines().count(), 2);
        assert!(second.contains("\"obligation\":\"b\""));
        assert!(second.contains("\"run_wall\""));
        assert!(!second.contains("\"obligation\":\"a\""));
    }

    #[test]
    fn effort_delta_and_score() {
        let before = EffortSpent {
            sat_conflicts: 5,
            sat_decisions: 10,
            sat_propagations: 100,
            bdd_nodes: 2,
            cache_hits: 1,
            cache_misses: 0,
        };
        let after = EffortSpent {
            sat_conflicts: 9,
            sat_decisions: 30,
            sat_propagations: 150,
            bdd_nodes: 4,
            cache_hits: 1,
            cache_misses: 2,
        };
        let d = EffortSpent::delta(&before, &after);
        assert_eq!(d.sat_conflicts, 4);
        assert_eq!(d.sat_decisions, 20);
        assert_eq!(d.sat_propagations, 50);
        assert_eq!(d.bdd_nodes, 2);
        assert_eq!((d.cache_hits, d.cache_misses), (0, 2));
        assert_eq!(d.score(), 4 + 20 + 2);
        assert!(!d.is_zero());
        assert!(EffortSpent::default().is_zero());
        // Swapped snapshots clamp instead of wrapping.
        assert_eq!(EffortSpent::delta(&after, &before).sat_conflicts, 0);
        let mut acc = EffortSpent::default();
        acc.add(&d);
        acc.add(&d);
        assert_eq!(acc.sat_conflicts, 8);
        assert!(d.to_line().contains("conflicts 4"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line("{\"kind\":\"phase\"}").is_err());
        assert!(validate_line("{\"seq\":1,\"kind\":\"no_such_kind\"}").is_err());
        // Missing required key.
        assert!(validate_line("{\"seq\":1,\"kind\":\"retry\"}").is_err());
        assert!(validate_line("{\"seq\":1,\"kind\":\"retry\",\"obligation\":\"x\"}").is_ok());
        // Extra key.
        assert!(
            validate_line("{\"seq\":1,\"kind\":\"retry\",\"obligation\":\"x\",\"z\":1}").is_err()
        );
        // Nested values are rejected (journal lines are flat).
        assert!(validate_line("{\"seq\":1,\"kind\":\"retry\",\"obligation\":{}}").is_err());
        // Not JSON, or a value of the wrong type for its key.
        for line in [
            "{\"seq\":x,\"kind\":\"retry\",\"obligation\":\"a\"}",
            "{\"seq\":1,\"kind\":\"retry\",\"obligation\":tru e}",
            "{\"seq\":\"1\",\"kind\":\"retry\",\"obligation\":\"a\"}",
            "{\"seq\":1,\"kind\":\"retry\",\"obligation\":7}",
            "{\"tseq\":-1,\"kind\":\"run_wall\",\"label\":\"flow\",\"wall_us\":5}",
            "{\"tseq\":1,\"kind\":\"run_wall\",\"label\":\"flow\",\"wall_us\":1.5e9}",
        ] {
            assert!(validate_line(line).is_err(), "{line}");
        }
    }

    #[test]
    fn every_kind_validates_against_its_own_rendering() {
        let j = Journal::new();
        j.emit(EventKind::ObligationStarted {
            obligation: "o".into(),
            engine: "e".into(),
        });
        j.emit(finished("o", 3));
        j.emit(EventKind::CacheProbe {
            obligation: "o".into(),
            hits: 1,
            misses: 2,
        });
        j.emit(EventKind::BudgetSpend {
            obligation: "o".into(),
            axis: "sat_conflicts",
            spent: 7,
            cap: 100,
        });
        j.emit(EventKind::Panic {
            obligation: "o".into(),
            message: "boom \"quoted\"".into(),
        });
        j.emit(EventKind::Retry {
            obligation: "o".into(),
        });
        j.emit(EventKind::Degradation {
            obligation: "o".into(),
            status: "unknown".into(),
            detail: "budget".into(),
        });
        j.emit(EventKind::FpgaReconfig {
            reconfigurations: 4,
            download_words: 4096,
        });
        j.emit(EventKind::Phase {
            index: 0,
            name: "level 1".into(),
            ok: true,
        });
        j.emit(EventKind::JobAdmitted {
            job: "job-0001".into(),
            tenant: "acme".into(),
            cost: 2,
        });
        j.emit(EventKind::JobStarted {
            job: "job-0001".into(),
            tenant: "acme".into(),
        });
        j.emit(EventKind::JobObligationDone {
            job: "job-0001".into(),
            obligation: "miter:distance".into(),
            outcome: "proved".into(),
        });
        j.emit(EventKind::JobFinished {
            job: "job-0001".into(),
            tenant: "acme".into(),
            ok: true,
            conclusive: true,
        });
        j.emit(EventKind::JobRejected {
            tenant: "acme".into(),
            reason: "queue full: 64 of 64 jobs queued".into(),
        });
        j.emit_timing(TimingKind::JobWall {
            job: "job-0001".into(),
            wall_us: 1234,
        });
        j.emit_timing(TimingKind::ObligationWall {
            obligation: "o".into(),
            wall_us: 1,
        });
        j.emit_timing(TimingKind::QueueDepth {
            batch: "b".into(),
            jobs: 5,
            workers: 2,
            peak_depth: 5,
        });
        j.emit_timing(TimingKind::WorkerJob {
            batch: "b".into(),
            job: "o".into(),
            worker: 1,
        });
        j.emit_timing(TimingKind::RunWall {
            label: "flow".into(),
            wall_us: 10,
        });
        for line in j.to_jsonl().lines() {
            validate_line(line).expect(line);
        }
    }

    #[test]
    fn wall_flag_defaults_off() {
        assert!(!Journal::new().wall_enabled());
        assert!(Journal::with_wall_clock().wall_enabled());
    }
}
