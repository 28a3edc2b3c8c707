//! Supervised execution: panic isolation, deterministic effort budgets,
//! and partial-verdict degradation for the verification flow.
//!
//! The ROADMAP's verification-as-a-service north star needs a flow that
//! *survives* misbehaving obligations: a panicking engine, a diverging
//! SAT search, or a corrupted cache entry must degrade one obligation,
//! never the whole run. This module provides the shared vocabulary:
//!
//! * [`ObligationOutcome`] / [`ObligationStatus`] — the per-obligation
//!   taxonomy (Proved / Refuted / Unknown / Panicked) collected by
//!   [`crate::flow::run_full_flow_supervised`],
//!   [`crate::level4::run_supervised`], and
//!   [`crate::cascade::run_supervised`],
//! * [`SupervisionPolicy`] — the effort budget ([`exec::Effort`]), the
//!   retry-once policy for panicked obligations, and the simulation
//!   cross-check fallback parameters for budget-exhausted model-checking
//!   obligations (the semiformal routing of Grimm et al. / Kumar et al.,
//!   PAPERS.md),
//! * [`DegradationSummary`] — the counts + degraded-obligation list that
//!   [`crate::flow::FlowReport`] renders in its `degradation` section.
//!
//! It also holds the one obligation driver. The flow and level 4 declare
//! each obligation as data — name, engine tag, whether the policy budget
//! applies, and the engine closure — and a crate-private driver runs
//! every one through the same steps: start event, panic-isolated
//! dispatch, batch scheduling facts, effort attribution, telemetry
//! replay, classification, flight-recorder record, outcome. The plain
//! entry points ([`crate::flow::run_full_flow`],
//! [`crate::level4::run`], …) are that driver under the idle
//! [`SupervisionPolicy::default`], so there is no second, unsupervised
//! copy of any obligation.
//!
//! Everything here is deterministic by construction: budgets are
//! effort-based (never wall-clock), panics are rendered to their exact
//! payload text, retries re-run the same closure on the same inputs, and
//! outcomes are collected in obligation order — so a degraded report is
//! bit-identical across worker counts.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a supervised obligation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObligationStatus {
    /// The engine reached the verdict the flow wanted (equivalence held,
    /// property proven, stage caught-and-certified, coverage measured).
    Proved,
    /// The engine conclusively decided *against* the obligation — a real
    /// counterexample or failed check, not an infrastructure problem.
    Refuted,
    /// The effort budget ran out before a verdict (and, for
    /// model-checking obligations, the simulation cross-check found no
    /// violation either).
    Unknown,
    /// The obligation panicked — on every attempt the policy allowed.
    Panicked,
}

impl ObligationStatus {
    /// Stable lower-case label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ObligationStatus::Proved => "proved",
            ObligationStatus::Refuted => "refuted",
            ObligationStatus::Unknown => "unknown",
            ObligationStatus::Panicked => "panicked",
        }
    }
}

/// One supervised obligation's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ObligationOutcome {
    /// Stable obligation name (`miter:distance`, `property:state_in_range`,
    /// `pcc:initial`, `cascade:Model checking (BMC)`, …).
    pub name: String,
    /// How it ended.
    pub status: ObligationStatus,
    /// One line of evidence: verdict, panic message, or fallback route.
    pub detail: String,
    /// Whether a panicked first attempt was retried (the retry may have
    /// succeeded — then `status` reflects the retry's verdict).
    pub retried: bool,
}

impl ObligationOutcome {
    /// Whether this outcome degrades the report (inconclusive or
    /// panicked, as opposed to a definite verdict either way).
    pub fn is_degraded(&self) -> bool {
        matches!(
            self.status,
            ObligationStatus::Unknown | ObligationStatus::Panicked
        )
    }
}

/// How the supervised entry points isolate, bound, and degrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionPolicy {
    /// Deterministic effort budget handed to every budgeted engine call.
    /// [`exec::Effort::unbounded`] keeps supervision idle: every engine
    /// behaves exactly like its unbudgeted entry point.
    pub effort: exec::Effort,
    /// Retry a panicked obligation once (same closure, same inputs). A
    /// deterministic panic repeats; a corrupted-state panic may clear.
    pub retry_panicked: bool,
    /// Random input vectors for the simulation cross-check of
    /// budget-exhausted model-checking obligations.
    pub sim_vectors: u32,
    /// Cycles per cross-check vector.
    pub sim_cycles: u32,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        SupervisionPolicy {
            effort: exec::Effort::unbounded(),
            retry_panicked: true,
            sim_vectors: 32,
            sim_cycles: 16,
        }
    }
}

impl SupervisionPolicy {
    /// A policy with the given effort budget and the default fallbacks.
    pub fn with_effort(effort: exec::Effort) -> Self {
        SupervisionPolicy {
            effort,
            ..SupervisionPolicy::default()
        }
    }
}

/// The degradation section of a supervised report: taxonomy counts plus
/// the degraded obligations themselves, in obligation order.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationSummary {
    /// Obligations supervised in total.
    pub total: usize,
    /// Count with [`ObligationStatus::Proved`].
    pub proved: usize,
    /// Count with [`ObligationStatus::Refuted`].
    pub refuted: usize,
    /// Count with [`ObligationStatus::Unknown`].
    pub unknown: usize,
    /// Count with [`ObligationStatus::Panicked`].
    pub panicked: usize,
    /// Panicked first attempts that were retried.
    pub retries: usize,
    /// The non-conclusive outcomes (Unknown/Panicked), in obligation
    /// order — the work list a larger budget or a fix would clear.
    pub degraded: Vec<ObligationOutcome>,
}

impl DegradationSummary {
    /// Tallies outcomes (kept in obligation order).
    pub fn from_outcomes(outcomes: &[ObligationOutcome]) -> Self {
        let count = |s: ObligationStatus| outcomes.iter().filter(|o| o.status == s).count();
        DegradationSummary {
            total: outcomes.len(),
            proved: count(ObligationStatus::Proved),
            refuted: count(ObligationStatus::Refuted),
            unknown: count(ObligationStatus::Unknown),
            panicked: count(ObligationStatus::Panicked),
            retries: outcomes.iter().filter(|o| o.retried).count(),
            degraded: outcomes
                .iter()
                .filter(|o| o.is_degraded())
                .cloned()
                .collect(),
        }
    }

    /// Whether every obligation ended conclusively (no Unknown, no
    /// Panicked — Refuted counts as conclusive).
    pub fn is_clean(&self) -> bool {
        self.unknown == 0 && self.panicked == 0
    }
}

/// Result of running one obligation closure under supervision.
#[derive(Debug)]
pub(crate) struct Supervised<R> {
    /// The closure's result, when some attempt completed.
    pub value: Option<R>,
    /// The first attempt's panic message, when it panicked.
    pub panic: Option<String>,
    /// Whether a retry was attempted.
    pub retried: bool,
    /// Wall-clock microseconds across all attempts. Timing-lane material
    /// only: it feeds the journal's `obligation_wall` events and must
    /// never influence a verdict or the deterministic stream.
    pub wall_us: u64,
}

impl<R> Supervised<R> {
    /// Panics caught across all attempts (0, 1, or 2).
    pub fn panics_caught(&self) -> u64 {
        match (&self.panic, &self.value, self.retried) {
            (None, _, _) => 0,
            (Some(_), None, true) => 2, // both attempts panicked
            (Some(_), _, _) => 1,
        }
    }
}

/// Runs `f` under `catch_unwind`, retrying once on panic when `retry` is
/// set. Deterministic: the panic message is the exact payload rendering
/// of [`exec::panic_message`], and the retry re-runs the same closure on
/// the same inputs — so for a deterministic fault the retry panics at the
/// same point and the recorded outcome is schedule-independent.
pub(crate) fn run_supervised_job<R>(retry: bool, f: impl Fn() -> R) -> Supervised<R> {
    let start = std::time::Instant::now();
    let mut sup = match catch_unwind(AssertUnwindSafe(&f)) {
        Ok(value) => Supervised {
            value: Some(value),
            panic: None,
            retried: false,
            wall_us: 0,
        },
        Err(payload) => {
            let message = exec::panic_message(payload);
            if !retry {
                Supervised {
                    value: None,
                    panic: Some(message),
                    retried: false,
                    wall_us: 0,
                }
            } else {
                match catch_unwind(AssertUnwindSafe(&f)) {
                    Ok(value) => Supervised {
                        value: Some(value),
                        panic: Some(message),
                        retried: true,
                        wall_us: 0,
                    },
                    Err(_) => Supervised {
                        value: None,
                        panic: Some(message),
                        retried: true,
                        wall_us: 0,
                    },
                }
            }
        }
    };
    sup.wall_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    sup
}

/// Runs one obligation closure under supervision with a private telemetry
/// collector (when `enabled`): the closure records into the collector,
/// caught panics are tallied as `exec.panics_caught`, and the collector is
/// returned for in-order replay into the run's shared instrument — the
/// same merge discipline the parallel backbone uses, so supervised
/// telemetry is worker-count independent.
///
/// When telemetry is disabled the closure gets the no-op instrument and no
/// collector is allocated.
fn supervised_obligation<R>(
    enabled: bool,
    retry: bool,
    f: impl Fn(&telemetry::SharedInstrument) -> R,
) -> (Supervised<R>, Option<telemetry::Collector>) {
    if !enabled {
        let noop = telemetry::noop();
        return (run_supervised_job(retry, || f(&noop)), None);
    }
    let local = std::rc::Rc::new(telemetry::Collector::new());
    let shared: telemetry::SharedInstrument = local.clone();
    let sup = run_supervised_job(retry, || f(&shared));
    let caught = sup.panics_caught();
    if caught > 0 {
        shared.counter_add("exec.panics_caught", caught);
    }
    drop(shared);
    let collector =
        std::rc::Rc::try_unwrap(local).expect("obligation dropped every instrument handle");
    (sup, Some(collector))
}

/// What every supervised obligation of one run shares: the dispatch
/// mode, the telemetry sink, the obligation cache, the supervision
/// policy, and the optional flight recorder.
#[derive(Clone, Copy)]
pub(crate) struct RunCtx<'a> {
    pub mode: exec::ExecMode,
    pub instrument: &'a telemetry::SharedInstrument,
    pub cache: &'a cache::ObligationCache,
    pub policy: &'a SupervisionPolicy,
    pub journal: Option<&'a telemetry::Journal>,
}

/// One verification obligation, declared as data.
pub(crate) struct Obligation<'a, R> {
    /// Stable name (`miter:root`, `pcc:initial`, …).
    pub name: String,
    /// Engine tag of the journal's provenance record.
    pub engine: &'static str,
    /// Whether the engine runs under the policy's effort budget; only
    /// those obligations journal per-axis `budget_spend` lines.
    pub budgeted: bool,
    /// The engine call. It records into the instrument it is handed,
    /// which is the obligation's private collector.
    pub run: Box<dyn Fn(&telemetry::SharedInstrument) -> R + Sync + 'a>,
}

/// A discharged obligation: the engine's value (`None` when every
/// attempt panicked) and how the run classified it.
pub(crate) struct Discharged<R> {
    pub value: Option<R>,
    pub status: ObligationStatus,
    pub detail: String,
}

impl RunCtx<'_> {
    /// The one obligation driver. Every supervised obligation of the
    /// flow, level 4 included, goes through these steps:
    ///
    /// 1. journal an `obligation_started` per obligation, in batch order;
    /// 2. dispatch the batch across `mode`'s workers, each obligation
    ///    panic-isolated with a private collector;
    /// 3. journal the batch's queue shape and worker attribution (timing
    ///    lane);
    ///
    /// then per obligation, in batch order:
    ///
    /// 4. degrade a pool fault to a panicked obligation;
    /// 5. attribute effort from the private collector;
    /// 6. replay the collector into the run's instrument;
    /// 7. classify the value with `classify` (a panic classifies itself);
    /// 8. journal the obligation's flight-recorder record;
    /// 9. push its [`ObligationOutcome`] onto `outcomes`.
    ///
    /// Coordinator-side steps run in batch order, so the deterministic
    /// lane, the merged telemetry and the outcomes are bit-identical for
    /// any worker count.
    pub(crate) fn discharge<R: Send>(
        &self,
        batch: &str,
        mode: exec::ExecMode,
        obligations: Vec<Obligation<'_, R>>,
        classify: impl Fn(&R) -> (ObligationStatus, String),
        outcomes: &mut Vec<ObligationOutcome>,
    ) -> Vec<Discharged<R>> {
        if let Some(j) = self.journal {
            for o in &obligations {
                j.emit(telemetry::EventKind::ObligationStarted {
                    obligation: o.name.clone(),
                    engine: o.engine.to_owned(),
                });
            }
        }
        // Private collectors feed both the telemetry replay and the
        // journal's effort attribution, so a journaled run keeps them
        // even under a no-op instrument.
        let enabled = self.instrument.enabled() || self.journal.is_some();
        let retry = self.policy.retry_panicked;
        let jobs: Vec<usize> = (0..obligations.len()).collect();
        let (results, stats) = exec::map_supervised_stats(mode, jobs, |_, i| {
            supervised_obligation(enabled, retry, &*obligations[i].run)
        });
        if let Some(j) = self.journal {
            journal_batch(j, batch, &obligations, &stats);
        }
        results
            .into_iter()
            .zip(obligations)
            .map(|(out, o)| {
                let (sup, collector) = unwrap_job(out);
                let spent = collector
                    .as_ref()
                    .map(telemetry::EffortSpent::from_collector)
                    .unwrap_or_default();
                if let Some(collector) = collector {
                    collector.replay_into(self.instrument.as_ref());
                }
                let (status, detail) = match &sup.value {
                    Some(value) => classify(value),
                    None => (
                        ObligationStatus::Panicked,
                        format!("panicked: {}", sup.panic.as_deref().unwrap_or("?")),
                    ),
                };
                if let Some(j) = self.journal {
                    let budget = o.budgeted.then_some(&self.policy.effort);
                    journal_obligation(j, &o, &sup, &spent, budget, status, &detail);
                }
                outcomes.push(ObligationOutcome {
                    name: o.name,
                    status,
                    detail: detail.clone(),
                    retried: sup.retried,
                });
                Discharged {
                    value: sup.value,
                    status,
                    detail,
                }
            })
            .collect()
    }

    /// [`RunCtx::discharge`] for one obligation run on the calling
    /// thread, as its own batch.
    pub(crate) fn discharge_one<R: Send>(
        &self,
        obligation: Obligation<'_, R>,
        classify: impl Fn(&R) -> (ObligationStatus, String),
        outcomes: &mut Vec<ObligationOutcome>,
    ) -> Discharged<R> {
        let batch = obligation.name.clone();
        let mut discharged = self.discharge(
            &batch,
            exec::ExecMode::Sequential,
            vec![obligation],
            classify,
            outcomes,
        );
        discharged.pop().expect("one obligation, one result")
    }
}

/// Unwraps one supervised pool slot. The dispatched closures catch their
/// own panics ([`supervised_obligation`]), so the outer
/// [`exec::JobOutcome`] is always `Ok` in practice; a `Panicked`/`Missing`
/// slot (a pool fault, not an engine fault) degrades to a panicked
/// obligation instead of aborting the run.
fn unwrap_job<R>(
    out: exec::JobOutcome<(Supervised<R>, Option<telemetry::Collector>)>,
) -> (Supervised<R>, Option<telemetry::Collector>) {
    let panic = match out {
        exec::JobOutcome::Ok(v) => return v,
        exec::JobOutcome::Panicked { message } => message,
        exec::JobOutcome::Missing => "missing worker result".to_owned(),
    };
    let sup = Supervised {
        value: None,
        panic: Some(panic),
        retried: false,
        wall_us: 0,
    };
    (sup, None)
}

/// Emits one drained batch's scheduling facts on the journal's timing
/// lane: the queue shape and the per-job worker attribution. Timing-lane
/// only — worker ids and queue depths are honest schedule data and differ
/// run to run.
fn journal_batch<R>(
    journal: &telemetry::Journal,
    batch: &str,
    obligations: &[Obligation<'_, R>],
    stats: &exec::PoolRunStats,
) {
    journal.emit_timing(telemetry::TimingKind::QueueDepth {
        batch: batch.to_owned(),
        jobs: stats.jobs as u64,
        workers: stats.workers as u64,
        peak_depth: stats.peak_depth() as u64,
    });
    for (o, worker) in obligations.iter().zip(&stats.worker_for_job) {
        if let Some(worker) = worker {
            journal.emit_timing(telemetry::TimingKind::WorkerJob {
                batch: batch.to_owned(),
                job: o.name.clone(),
                worker: *worker as u64,
            });
        }
    }
}

/// Emits one finished obligation's full flight-recorder record: panic and
/// retry events, the cache probe, per-axis budget spend, the
/// [`telemetry::Provenance`] line, a degradation entry for inconclusive
/// outcomes, and (when the journal captures wall clock) the timing-lane
/// latency.
///
/// Called by the coordinator in obligation order, after the obligation's
/// private collector has been read into `effort` — so the deterministic
/// lane is bit-identical across worker counts. `budget` is `Some` only
/// for obligations that ran under the policy's effort budget.
fn journal_obligation<R>(
    journal: &telemetry::Journal,
    o: &Obligation<'_, R>,
    sup: &Supervised<R>,
    effort: &telemetry::EffortSpent,
    budget: Option<&exec::Effort>,
    status: ObligationStatus,
    detail: &str,
) {
    let (name, engine) = (o.name.as_str(), o.engine);
    if let Some(message) = &sup.panic {
        journal.emit(telemetry::EventKind::Panic {
            obligation: name.to_owned(),
            message: message.clone(),
        });
    }
    if sup.retried {
        journal.emit(telemetry::EventKind::Retry {
            obligation: name.to_owned(),
        });
    }
    if effort.cache_hits + effort.cache_misses > 0 {
        journal.emit(telemetry::EventKind::CacheProbe {
            obligation: name.to_owned(),
            hits: effort.cache_hits,
            misses: effort.cache_misses,
        });
    }
    if let Some(b) = budget {
        for (axis, spent, cap) in [
            ("sat_conflicts", effort.sat_conflicts, b.sat_conflicts),
            ("sat_decisions", effort.sat_decisions, b.sat_decisions),
            ("bdd_nodes", effort.bdd_nodes, b.bdd_nodes),
        ] {
            if let Some(cap) = cap {
                journal.emit(telemetry::EventKind::BudgetSpend {
                    obligation: name.to_owned(),
                    axis,
                    spent,
                    cap,
                });
            }
        }
    }
    journal.emit(telemetry::EventKind::ObligationFinished(
        telemetry::Provenance {
            obligation: name.to_owned(),
            engine: engine.to_owned(),
            // Identity fingerprint: same dual-FNV lane construction the
            // obligation cache uses, over the engine tag + stable name.
            fingerprint: cache::FingerprintBuilder::new(engine).text(name).finish().0,
            effort: *effort,
            outcome: status.as_str().to_owned(),
            retried: sup.retried,
        },
    ));
    if matches!(
        status,
        ObligationStatus::Unknown | ObligationStatus::Panicked
    ) {
        journal.emit(telemetry::EventKind::Degradation {
            obligation: name.to_owned(),
            status: status.as_str().to_owned(),
            detail: detail.to_owned(),
        });
    }
    if journal.wall_enabled() {
        journal.emit_timing(telemetry::TimingKind::ObligationWall {
            obligation: name.to_owned(),
            wall_us: sup.wall_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn statuses_render_and_tally() {
        let outcomes = vec![
            ObligationOutcome {
                name: "a".into(),
                status: ObligationStatus::Proved,
                detail: "ok".into(),
                retried: false,
            },
            ObligationOutcome {
                name: "b".into(),
                status: ObligationStatus::Unknown,
                detail: "budget".into(),
                retried: false,
            },
            ObligationOutcome {
                name: "c".into(),
                status: ObligationStatus::Panicked,
                detail: "boom".into(),
                retried: true,
            },
        ];
        let summary = DegradationSummary::from_outcomes(&outcomes);
        assert_eq!(
            (summary.total, summary.proved, summary.refuted), //
            (3, 1, 0)
        );
        assert_eq!(
            (summary.unknown, summary.panicked, summary.retries),
            (1, 1, 1)
        );
        assert!(!summary.is_clean());
        assert_eq!(
            summary
                .degraded
                .iter()
                .map(|o| o.name.as_str())
                .collect::<Vec<_>>(),
            vec!["b", "c"]
        );
        assert_eq!(ObligationStatus::Refuted.as_str(), "refuted");
        assert!(DegradationSummary::from_outcomes(&[]).is_clean());
    }

    #[test]
    fn retry_once_policy() {
        exec::silence_injected_panics();
        // Always panics: retried once, then reported.
        let sup = run_supervised_job(true, || -> u32 { panic!("injected panic: always") });
        assert_eq!(sup.value, None);
        assert_eq!(sup.panic.as_deref(), Some("injected panic: always"));
        assert!(sup.retried);
        assert_eq!(sup.panics_caught(), 2);

        // Panics once, then succeeds: the retry's value wins.
        let attempts = Cell::new(0u32);
        let sup = run_supervised_job(true, || {
            attempts.set(attempts.get() + 1);
            if attempts.get() == 1 {
                panic!("injected panic: transient");
            }
            42u32
        });
        assert_eq!(sup.value, Some(42));
        assert!(sup.retried);
        assert_eq!(sup.panics_caught(), 1);

        // No retry allowed: one attempt, no value.
        let sup = run_supervised_job(false, || -> u32 { panic!("injected panic: once") });
        assert_eq!(sup.value, None);
        assert!(!sup.retried);
        assert_eq!(sup.panics_caught(), 1);

        // Healthy closures are untouched.
        let sup = run_supervised_job(true, || 7u32);
        assert_eq!(sup.value, Some(7));
        assert_eq!(sup.panics_caught(), 0);
        assert!(!sup.retried);
    }
}
