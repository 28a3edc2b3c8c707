//! The complete Figure-1 flow as one call.
//!
//! [`run_full_flow`] executes every phase of the methodology in order —
//! level-1 functional model, LPV checks, level-2 mapping, level-3
//! reconfigurable platform, SymbC, level-4 RTL + model checking + PCC —
//! with the cross-level equivalence checks between refinements, and
//! aggregates the evidence into one [`FlowReport`]. This is the "system
//! level design platform" deliverable the abstract promises, as a library
//! entry point.
//!
//! Four entry points share one private flow body:
//!
//! * [`run_full_flow`] — the workload alone;
//! * [`run_full_flow_cached`] — plus telemetry, an execution mode, and the
//!   obligation cache;
//! * [`run_full_flow_supervised`] — plus a [`SupervisionPolicy`] and an
//!   optional flight-recorder [`telemetry::Journal`];
//! * [`run_full_flow_job`] — the supervised flow a [`JobSpec`] describes.
//!
//! Every verification obligation runs through the supervised driver; the
//! first two entry points use the idle policy and report without the
//! `degradation` section.

use crate::job::JobSpec;
use crate::partition::ArchConfig;
use crate::supervise::{
    DegradationSummary, Discharged, Obligation, ObligationOutcome, ObligationStatus, RunCtx,
    SupervisionPolicy,
};
use crate::timed::{self, MatcherKind, ReconfigStrategy, RecoveryPolicy, RunError};
use crate::workload::Workload;
use crate::{cascade, level1, level2, level4};
use lp::lpv::LivenessVerdict;
use sim::{FaultPlan, SimError};

/// One phase's summary line.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Phase name.
    pub phase: &'static str,
    /// Whether the phase's checks all passed.
    pub ok: bool,
    /// Evidence in one line.
    pub detail: String,
}

/// Key quantitative results of a flow run, pulled out of the phase
/// summaries for programmatic consumption (benchmark harnesses, the CI
/// `BENCH_flow.json` artifact).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowMetrics {
    /// Probe frames processed per level.
    pub frames: u64,
    /// Level-2 total simulated ticks.
    pub l2_total_ticks: u64,
    /// Level-2 ticks per frame.
    pub l2_ticks_per_frame: f64,
    /// Level-3 total simulated ticks.
    pub l3_total_ticks: u64,
    /// Level-3 ticks per frame.
    pub l3_ticks_per_frame: f64,
    /// Level-3 bus utilization (0..1).
    pub l3_bus_utilization: f64,
    /// Level-3 context downloads.
    pub fpga_reconfigurations: u64,
    /// Level-3 bitstream words moved over the bus.
    pub fpga_download_words: u64,
}

/// Aggregated evidence of a full flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Per-phase summaries in flow order.
    pub phases: Vec<PhaseSummary>,
    /// Recognized identity per probe (identical across all levels when
    /// the flow is healthy).
    pub recognized: Vec<usize>,
    /// Quantitative summary across the levels.
    pub metrics: FlowMetrics,
    /// Supervision outcome taxonomy — `Some` only from
    /// [`run_full_flow_supervised`] and [`run_full_flow_job`];
    /// [`run_full_flow`] and [`run_full_flow_cached`] leave it `None` and
    /// render without a `degradation` section.
    pub degradation: Option<DegradationSummary>,
}

impl FlowReport {
    /// Whether every phase passed.
    pub fn all_ok(&self) -> bool {
        self.phases.iter().all(|p| p.ok)
    }

    /// Whether every phase passed *and* every supervised obligation ended
    /// conclusively (no budget-exhausted Unknowns, no panics). Without a
    /// taxonomy this equals [`FlowReport::all_ok`]; for the
    /// supervised flow it is the stronger claim — a degraded report can
    /// have `all_ok() == false` with `conclusive() == false` telling you
    /// whether the failures are verdicts or missing evidence.
    pub fn conclusive(&self) -> bool {
        self.all_ok()
            && self
                .degradation
                .as_ref()
                .is_none_or(DegradationSummary::is_clean)
    }

    /// Builds the structured report (phases, metrics, recognition).
    pub fn to_report(&self) -> telemetry::Report {
        let mut phases = telemetry::Section::new("phases");
        for p in &self.phases {
            phases.push(
                p.phase,
                format!("[{}] {}", if p.ok { "PASS" } else { "FAIL" }, p.detail),
            );
        }
        let metrics = telemetry::Section::new("metrics")
            .entry("frames", self.metrics.frames)
            .entry("l2_total_ticks", self.metrics.l2_total_ticks)
            .entry("l2_ticks_per_frame", self.metrics.l2_ticks_per_frame)
            .entry("l3_total_ticks", self.metrics.l3_total_ticks)
            .entry("l3_ticks_per_frame", self.metrics.l3_ticks_per_frame)
            .entry("l3_bus_utilization", self.metrics.l3_bus_utilization)
            .entry("fpga_reconfigurations", self.metrics.fpga_reconfigurations)
            .entry("fpga_download_words", self.metrics.fpga_download_words);
        let recognition = telemetry::Section::new("recognition")
            .entry("recognized", format!("{:?}", self.recognized))
            .entry("all_ok", self.all_ok());
        let mut report = telemetry::Report::new("Symbad full-flow report")
            .section(phases)
            .section(metrics)
            .section(recognition);
        // Only supervised runs carry the degradation section — the plain
        // entry points' reports (and their goldens) stay byte-identical.
        if let Some(d) = &self.degradation {
            let mut degradation = telemetry::Section::new("degradation")
                .entry("obligations", d.total as u64)
                .entry("proved", d.proved as u64)
                .entry("refuted", d.refuted as u64)
                .entry("unknown", d.unknown as u64)
                .entry("panicked", d.panicked as u64)
                .entry("retries", d.retries as u64)
                .entry("conclusive", self.conclusive());
            for o in &d.degraded {
                degradation.push(
                    &o.name,
                    format!(
                        "[{}{}] {}",
                        o.status.as_str().to_uppercase(),
                        if o.retried { ", retried" } else { "" },
                        o.detail
                    ),
                );
            }
            report = report.section(degradation);
        }
        report
    }

    /// Renders as aligned human-readable text.
    pub fn to_text(&self) -> String {
        self.to_report().to_text()
    }

    /// Renders as deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_report().to_json()
    }
}

/// Runs the complete four-level flow on a workload.
///
/// ```
/// let workload = symbad_core::Workload::small();
/// let report = symbad_core::flow::run_full_flow(&workload).expect("flow runs");
/// // Every phase of Figure 1 passes and the probes are recognized.
/// assert!(report.all_ok());
/// assert_eq!(report.recognized, vec![0, 1]);
/// ```
///
/// # Errors
///
/// Propagates kernel errors from the simulations.
pub fn run_full_flow(workload: &Workload) -> Result<FlowReport, SimError> {
    run_full_flow_cached(
        workload,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        cache::noop(),
    )
}

/// [`run_full_flow`] with telemetry, an execution mode, and the
/// obligation cache. This is [`run_full_flow_supervised`] under the idle
/// [`SupervisionPolicy`], reported without the `degradation` section.
///
/// * **Telemetry:** every level runs with the given instrument (bus
///   spans, FPGA activity, engine counters accumulate into one
///   collector), and the flow itself adds a `flow` track whose time axis
///   is the *phase index* — one span per Figure-1 phase plus a
///   `flow.phase_ok` gauge.
/// * **Mode:** with a parallel `mode` the verification obligations fan
///   out across worker threads — the LPV dimensioning, the level-4 miters
///   and the wrapper properties. The simulations of levels 1–3 stay
///   sequential (they are single trajectories). The report and the merged
///   telemetry are bit-identical to the sequential run for any worker
///   count.
/// * **Cache:** every SAT/BDD verification obligation of the flow — the
///   level-4 kernel miters, wrapper model checking, and PCC kill checks —
///   consults `cache` before running an engine and stores its verdict
///   after. On a warm cache the verification phases replay from stored
///   verdicts, and the [`FlowReport`] is bit-identical to the cold run.
///   The cache is in-memory; persist it across processes with
///   [`cache::ObligationCache::save`] /
///   [`cache::ObligationCache::load_or_empty`] (see
///   `examples/full_flow.rs`, which keeps it under
///   `target/symbad-cache/`).
///
/// ```
/// use symbad_core::flow::run_full_flow_cached;
///
/// let workload = symbad_core::Workload::small();
/// let obligations = cache::ObligationCache::new();
/// let cold = run_full_flow_cached(
///     &workload, &telemetry::noop(), exec::ExecMode::Sequential, &obligations,
/// ).expect("cold flow runs");
/// let warm = run_full_flow_cached(
///     &workload, &telemetry::noop(), exec::ExecMode::Sequential, &obligations,
/// ).expect("warm flow runs");
/// // The warm run replays every obligation from the cache…
/// let stats = obligations.stats();
/// assert!(stats.hits > 0);
/// // …and the report is bit-identical to the cold one.
/// assert_eq!(warm.to_json(), cold.to_json());
/// ```
///
/// # Errors
///
/// Propagates kernel errors from the simulations.
pub fn run_full_flow_cached(
    workload: &Workload,
    instrument: &telemetry::SharedInstrument,
    mode: exec::ExecMode,
    cache: &cache::ObligationCache,
) -> Result<FlowReport, SimError> {
    let policy = SupervisionPolicy::default();
    let ctx = RunCtx {
        mode,
        instrument,
        cache,
        policy: &policy,
        journal: None,
    };
    let report = run_flow(workload, &ArchConfig::default(), None, &ctx)?;
    Ok(FlowReport {
        degradation: None,
        ..report
    })
}

/// [`run_full_flow_cached`] under a [`SupervisionPolicy`], with an
/// optional flight recorder. The verification obligations of the flow —
/// LPV liveness, LPV FIFO dimensioning, SymbC, and every level-4
/// obligation — run panic-isolated and effort-budgeted, and the report
/// carries the [`DegradationSummary`] taxonomy in `degradation` (rendered
/// as a `degradation` section by [`FlowReport::to_report`]).
///
/// The levels 1–3 *simulations* are not supervised: they are the flow's
/// subject, propagate their own typed [`SimError`]s, and a corrupted
/// simulation invalidates everything downstream anyway.
///
/// Degradation is graceful and deterministic: a panicked obligation is
/// retried once (when the policy says so) and then recorded as
/// `Panicked` with its exact panic message; a budget-exhausted
/// model-checking obligation is cross-checked by deterministic
/// simulation and recorded as `Refuted` (witness found) or `Unknown`;
/// phases over degraded obligations report `ok: false` with the
/// degradation spelled out in their detail line. The partial report is
/// bit-identical across worker counts.
///
/// With a `journal`, phases, the FPGA reconfiguration summary, and the
/// complete lifecycle of every obligation — start, cache probes,
/// per-axis budget spend, panics/retries, provenance-carrying finishes
/// with effort attribution, degradations — stream onto the journal's
/// deterministic lane in obligation order; wall latencies and
/// worker/queue attribution go to its timing lane. The journal never
/// perturbs results, and its deterministic lane is bit-identical across
/// worker counts.
///
/// # Errors
///
/// Propagates kernel errors from the simulations (supervision does not
/// mask them).
pub fn run_full_flow_supervised(
    workload: &Workload,
    instrument: &telemetry::SharedInstrument,
    mode: exec::ExecMode,
    cache: &cache::ObligationCache,
    policy: &SupervisionPolicy,
    journal: Option<&telemetry::Journal>,
) -> Result<FlowReport, SimError> {
    let ctx = RunCtx {
        mode,
        instrument,
        cache,
        policy,
        journal,
    };
    run_flow(workload, &ArchConfig::default(), None, &ctx)
}

/// Runs the complete supervised flow a [`JobSpec`] describes: the spec's
/// design becomes the workload, its platform variant drives the level-3
/// architecture and the level-2 FIFO dimensioning, its fault campaign
/// (if any) is injected into the level-3 simulation under the default
/// [`RecoveryPolicy`], and its supervision policy budgets the
/// verification obligations. With `JobSpec::default()` this is exactly
/// [`run_full_flow_supervised`] on [`Workload::small`] — same phases,
/// same verdicts, bit-identical JSON, same journal (pinned by
/// `tests/service_equivalence.rs`).
///
/// This is the batch service's per-job entry point, but it is an
/// ordinary library call: no queue, no tenancy, usable directly.
///
/// # Errors
///
/// Propagates kernel errors from the simulations.
pub fn run_full_flow_job(
    spec: &JobSpec,
    instrument: &telemetry::SharedInstrument,
    mode: exec::ExecMode,
    cache: &cache::ObligationCache,
    journal: Option<&telemetry::Journal>,
) -> Result<FlowReport, SimError> {
    let ctx = RunCtx {
        mode,
        instrument,
        cache,
        policy: &spec.policy,
        journal,
    };
    run_flow(
        &spec.design.workload(),
        &spec.platform.arch(),
        spec.faults.map(|f| f.plan()),
        &ctx,
    )
}

/// A flow-level obligation (LPV liveness, LPV dimensioning, SymbC): it is
/// panic-supervised but not effort-budgeted, and its engine takes no
/// instrument, so its journal record attributes zero effort.
fn flow_obligation<'a, R>(
    name: &str,
    engine: &'static str,
    run: impl Fn() -> R + Sync + 'a,
) -> Obligation<'a, R> {
    Obligation {
        name: name.to_owned(),
        engine,
        budgeted: false,
        run: Box::new(move |_: &telemetry::SharedInstrument| run()),
    }
}

/// The phase line of a flow-level obligation: it passes exactly when the
/// obligation proved, and its detail is the obligation's evidence.
fn obligation_phase<R>(phase: &'static str, discharged: Discharged<R>) -> PhaseSummary {
    PhaseSummary {
        phase,
        ok: discharged.status == ObligationStatus::Proved,
        detail: discharged.detail,
    }
}

/// The one flow body behind every entry point.
fn run_flow(
    workload: &Workload,
    arch: &ArchConfig,
    faults: Option<FaultPlan>,
    ctx: &RunCtx<'_>,
) -> Result<FlowReport, SimError> {
    use ObligationStatus::{Proved, Refuted};
    let proved_if = |ok: bool| if ok { Proved } else { Refuted };

    let (mode, instrument, journal) = (ctx.mode, ctx.instrument, ctx.journal);
    let mut phases: Vec<PhaseSummary> = Vec::new();
    let mut outcomes: Vec<ObligationOutcome> = Vec::new();
    let note_phase = |phases: &mut Vec<PhaseSummary>, summary: PhaseSummary| {
        let idx = phases.len() as u64;
        instrument.span("flow", summary.phase, idx, idx + 1);
        instrument.gauge_set("flow.phase_ok", idx, i64::from(summary.ok));
        if let Some(j) = journal {
            j.emit(telemetry::EventKind::Phase {
                index: idx,
                name: summary.phase.to_owned(),
                ok: summary.ok,
            });
        }
        phases.push(summary);
    };

    // ── Level 1: functional model vs reference ────────────────────────
    let l1 = level1::run_instrumented(workload, instrument)?;
    note_phase(
        &mut phases,
        PhaseSummary {
            phase: "level 1: functional model",
            ok: l1.matches_reference && l1.outcome.is_quiescent(),
            detail: format!(
                "trace vs C reference: {}; clean completion: {}",
                l1.matches_reference,
                l1.outcome.is_quiescent()
            ),
        },
    );

    // ── Level 1 verification: LPV deadlock freeness ────────────────────
    let liveness = ctx.discharge_one(
        flow_obligation("lpv:liveness", "lpv", || {
            lp::check_liveness(&cascade::fig2_petri_net(1))
        }),
        |liveness| {
            let detail = match liveness {
                LivenessVerdict::Live { min_cycle_tokens } => {
                    format!("live; min cycle tokens {min_cycle_tokens}")
                }
                other => format!("{other:?}"),
            };
            (proved_if(liveness.is_live()), detail)
        },
        &mut outcomes,
    );
    note_phase(
        &mut phases,
        obligation_phase("level 1: LPV deadlock freeness", liveness),
    );

    // ── Level 2: architecture mapping ──────────────────────────────────
    let l2 = level2::run_instrumented(workload, instrument)?;
    let l2_matches_l1 = l1.trace.matches_untimed(&l2.trace).is_ok();
    note_phase(
        &mut phases,
        PhaseSummary {
            phase: "level 2: timed TL mapping",
            ok: l2.matches_reference && l2_matches_l1,
            detail: format!(
                "{:.0} ticks/frame; bus {:.1}%; trace ≡ level 1: {l2_matches_l1}",
                l2.ticks_per_frame,
                l2.bus.utilization * 100.0
            ),
        },
    );

    // ── Level 2 verification: deadline LP ──────────────────────────────
    let bounds = ctx.discharge_one(
        flow_obligation("lpv:dimensioning", "lpv", || {
            let partition = crate::Partition::paper_level2();
            level2::dimension_channels_mode(workload, &partition, arch, mode)
        }),
        |bounds| {
            let detail = bounds
                .iter()
                .map(|(n, b)| format!("{n}: {} tokens", b.capacity))
                .collect::<Vec<_>>()
                .join(", ");
            (
                proved_if(bounds.iter().all(|(_, b)| b.capacity >= 1)),
                detail,
            )
        },
        &mut outcomes,
    );
    note_phase(
        &mut phases,
        obligation_phase("level 2: LPV FIFO dimensioning", bounds),
    );

    // ── Level 3: reconfigurable platform ───────────────────────────────
    // The job surface only exposes fault kinds the default recovery
    // policy always absorbs (retry or degrade-to-software), so a platform
    // error here is a contract violation, not a reachable outcome.
    let l3 = timed::run_faulted_instrumented(
        workload,
        &crate::Partition::paper_level3(),
        arch,
        MatcherKind::Fpga {
            strategy: ReconfigStrategy::Hoisted,
            rtl_cosim: false,
        },
        faults,
        RecoveryPolicy::default(),
        instrument,
    )
    .map_err(|e| match e {
        RunError::Sim(e) => e,
        RunError::Platform(f) => unreachable!("default recovery absorbs platform faults: {f}"),
    })?;
    let l3_matches_l2 = l2.trace.matches_untimed(&l3.trace).is_ok();
    let fpga = l3.fpga.clone().expect("level 3 has an FPGA");
    note_phase(
        &mut phases,
        PhaseSummary {
            phase: "level 3: reconfigurable platform",
            ok: l3.matches_reference && l3_matches_l2,
            detail: format!(
            "{:.0} ticks/frame; {} reconfigs, {} bitstream words; trace ≡ level 2: {l3_matches_l2}",
            l3.ticks_per_frame, fpga.reconfigurations, fpga.download_words
        ),
        },
    );
    if let Some(j) = journal {
        j.emit(telemetry::EventKind::FpgaReconfig {
            reconfigurations: fpga.reconfigurations,
            download_words: fpga.download_words,
        });
    }

    // ── Level 3 verification: SymbC ────────────────────────────────────
    let symbc_verdict = ctx.discharge_one(
        flow_obligation("symbc:consistency", "symbc", || {
            let (sw, map) = cascade::instrumented_sw(true);
            symbc::check(&sw, &map)
        }),
        |verdict| (proved_if(verdict.is_consistent()), format!("{verdict:?}")),
        &mut outcomes,
    );
    note_phase(
        &mut phases,
        obligation_phase("level 3: SymbC consistency", symbc_verdict),
    );

    // ── Level 4: RTL + formal ──────────────────────────────────────────
    let l4 = level4::run_in(ctx, &mut outcomes);
    let kernels_ok = l4.kernels.iter().all(|(_, _, eq)| *eq);
    let props_ok = l4.properties.iter().all(|(_, _, p)| *p);
    note_phase(
        &mut phases,
        PhaseSummary {
            phase: "level 4: RTL, model checking, PCC",
            ok: kernels_ok && props_ok && l4.pcc_extended.pct() > l4.pcc_initial.pct(),
            detail: format!(
                "kernels equivalent: {kernels_ok}; {} properties proven; PCC {:.0}% → {:.0}%",
                l4.properties.len(),
                l4.pcc_initial.pct(),
                l4.pcc_extended.pct()
            ),
        },
    );

    let degradation = DegradationSummary::from_outcomes(&outcomes);
    if instrument.enabled() {
        if !degradation.degraded.is_empty() {
            instrument.counter_add(
                "flow.degraded_obligations",
                degradation.degraded.len() as u64,
            );
        }
        if degradation.retries > 0 {
            instrument.counter_add("flow.retries", degradation.retries as u64);
        }
    }

    let metrics = FlowMetrics {
        frames: workload.probes.len() as u64,
        l2_total_ticks: l2.total_ticks,
        l2_ticks_per_frame: l2.ticks_per_frame,
        l3_total_ticks: l3.total_ticks,
        l3_ticks_per_frame: l3.ticks_per_frame,
        l3_bus_utilization: l3.bus.utilization,
        fpga_reconfigurations: fpga.reconfigurations,
        fpga_download_words: fpga.download_words,
    };
    Ok(FlowReport {
        phases,
        recognized: l1.recognized,
        metrics,
        degradation: Some(degradation),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_flow_passes_on_small_workload() {
        let w = Workload::small();
        let collector = telemetry::Collector::shared();
        let instr: telemetry::SharedInstrument = collector.clone();
        let report = run_full_flow_cached(&w, &instr, exec::ExecMode::Sequential, cache::noop())
            .expect("flow runs");
        assert_eq!(report.phases.len(), 7);
        for p in &report.phases {
            assert!(p.ok, "{} failed: {}", p.phase, p.detail);
        }
        assert!(report.all_ok());
        assert_eq!(report.recognized.len(), w.probes.len());

        // Metrics mirror the phase evidence.
        assert!(report.metrics.l3_total_ticks > report.metrics.l2_total_ticks);
        assert!(report.metrics.fpga_reconfigurations > 0);
        assert_eq!(report.metrics.frames, w.probes.len() as u64);

        // The flow track carries one span per phase, in order.
        let flow_spans: Vec<_> = collector
            .spans()
            .into_iter()
            .filter(|s| s.track == "flow")
            .collect();
        assert_eq!(flow_spans.len(), 7);
        for (i, s) in flow_spans.iter().enumerate() {
            assert_eq!((s.start, s.end), (i as u64, i as u64 + 1));
            assert_eq!(s.name, report.phases[i].phase);
        }
        // Substrate and engine signals from every level accumulated.
        assert!(collector.counter("bus.transactions") > 0);
        assert!(collector.counter("fpga.reconfigurations") > 0);
        assert!(collector.counter("sat.solve_calls") > 0);
        assert!(collector.counter("sim.polls") > 0);

        // Both renderings carry the phase verdicts.
        let text = report.to_text();
        assert!(text.contains("level 3: reconfigurable platform"));
        assert!(text.contains("[PASS]"));
        let json = report.to_json();
        assert!(json.contains("\"fpga_reconfigurations\""));
    }
}
