//! The verification cascade of Figure 1, end to end (experiment E12).
//!
//! "Four approaches are exploited in a cascade fashion to address different
//! verification problems at different design levels: ATPG to quickly remove
//! easy-to-detect design errors on the behavioral description, linear
//! programming verification to verify real-time properties …, abstract
//! interpretation to check reconfiguration consistency after FPGA mapping,
//! and model checking to verify the correctness of the final RTL
//! description" (§2). This module seeds one representative error of each
//! class and shows the corresponding stage catching it.

use crate::supervise::{ObligationOutcome, ObligationStatus, SupervisionPolicy};
use behav::{Expr, Function, FunctionBuilder};
use hdl::fsm::FsmBuilder;
use lp::lpv::{check_deadline, check_liveness, DeadlineVerdict, LivenessVerdict};
use lp::petri::PetriNet;
use lp::TaskGraph;
use mc::prop::{BoolExpr, Property};
use mc::{bmc, Verdict};
use media::profile::{build_profile, MODULES};
use symbc::{check, ConfigMap, Verdict as SymbcVerdict};

/// Result of one cascade stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageResult {
    /// Stage name (tool).
    pub stage: &'static str,
    /// Level of the flow at which the stage runs.
    pub level: u8,
    /// Description of the seeded error class.
    pub seeded_error: &'static str,
    /// Whether the stage caught its seeded error.
    pub caught: bool,
    /// Whether the stage certifies the corrected artifact.
    pub clean_passes: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// Full cascade report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeReport {
    /// Per-stage results in flow order.
    pub stages: Vec<StageResult>,
}

impl CascadeReport {
    /// Whether every stage caught its seeded error *and* certified the
    /// corrected artifact.
    pub fn all_effective(&self) -> bool {
        self.stages.iter().all(|s| s.caught && s.clean_passes)
    }
}

/// The Figure-2 network as a Petri net (modules = transitions, channels =
/// places), closed by a frame-credit loop from WINNER back to CAMERA with
/// `credits` initial tokens — the flow-control feedback whose
/// mis-dimensioning is the classic level-1 deadlock.
pub fn fig2_petri_net(credits: u64) -> PetriNet {
    let mut net = PetriNet::new();
    let transitions: Vec<_> = MODULES.iter().map(|&m| net.add_transition(m)).collect();
    // Chain places along the dataflow order.
    for pair in transitions.windows(2) {
        let from_name = net.transition_name(pair[0]).to_owned();
        let to_name = net.transition_name(pair[1]).to_owned();
        net.add_channel(&format!("{from_name}→{to_name}"), pair[0], pair[1], 0);
    }
    // Frame-credit feedback: winner → camera.
    let camera = transitions[0];
    let winner = *transitions.last().expect("modules non-empty");
    net.add_channel("credit", winner, camera, credits);
    net
}

/// Stage 1 artifact: a behavioural kernel with a seeded
/// memory-initialization error (only half the buffer written when
/// `initialize_fully` is false).
pub fn buggy_lut_kernel(initialize_fully: bool) -> Function {
    let mut fb = FunctionBuilder::new("lut_kernel", 16);
    let idx = fb.param("idx", 8);
    let lut = fb.array("lut", 16, 8);
    let i = fb.local("i", 8);
    let bound = if initialize_fully { 8 } else { 4 };
    fb.while_(Expr::lt(Expr::var(i), Expr::constant(bound, 8)), |b| {
        b.store(
            lut,
            Expr::var(i),
            Expr::mul(Expr::var(i), Expr::constant(3, 16)),
        );
        b.assign(i, Expr::add(Expr::var(i), Expr::constant(1, 8)));
    });
    let out = fb.local("out", 16);
    fb.assign(
        out,
        Expr::index(lut, Expr::rem(Expr::var(idx), Expr::constant(8, 8))),
    );
    fb.ret(Expr::var(out));
    fb.build()
}

/// Stage 3 artifact: instrumented SW with (when `correct` is false) a
/// missing reconfiguration before the ROOT calls.
pub fn instrumented_sw(correct: bool) -> (Function, ConfigMap) {
    let mut map = ConfigMap::new();
    let c1 = map.add_config("config1");
    let c2 = map.add_config("config2");
    map.add_function(c1, "distance");
    map.add_function(c2, "root");

    let mut fb = FunctionBuilder::new("sw", 32);
    let n = fb.param("entries", 8);
    let i = fb.local("i", 8);
    let acc = fb.local("acc", 32);
    fb.reconfigure(c1);
    fb.while_(Expr::lt(Expr::var(i), Expr::var(n)), |b| {
        b.resource_call("distance", vec![Expr::var(i)], Some(acc));
        b.assign(i, Expr::add(Expr::var(i), Expr::constant(1, 8)));
    });
    if correct {
        fb.reconfigure(c2);
    }
    fb.assign(i, Expr::constant(0, 8));
    fb.while_(Expr::lt(Expr::var(i), Expr::var(n)), |b| {
        b.resource_call("root", vec![Expr::var(acc)], Some(acc));
        b.assign(i, Expr::add(Expr::var(i), Expr::constant(1, 8)));
    });
    fb.ret(Expr::var(acc));
    (fb.build(), map)
}

/// Stage 4 artifact: the bus wrapper FSM with (when `correct` is false) a
/// seeded transition bug — DONE fails to return to IDLE.
pub fn wrapper(correct: bool) -> hdl::Rtl {
    let mut b = FsmBuilder::new("bus_wrapper");
    let idle = b.state("IDLE");
    let request = b.state("REQUEST");
    let wait_ack = b.state("WAIT_ACK");
    let done = b.state("DONE");
    let start = b.input("start");
    let ack = b.input("ack");
    b.transition(idle, vec![(start, true)], request);
    b.transition(request, vec![], wait_ack);
    b.transition(wait_ack, vec![(ack, true)], done);
    if correct {
        b.transition(done, vec![], idle);
    } else {
        // BUG: DONE latches forever.
        b.transition(done, vec![], done);
    }
    b.moore_output("bus_req", 1, &[0, 1, 1, 0]);
    b.moore_output("done", 1, &[0, 0, 0, 1]);
    b.build()
}

/// Runs the whole cascade: each stage on its buggy artifact (must catch)
/// and on the corrected artifact (must certify).
pub fn run() -> CascadeReport {
    run_mode(exec::ExecMode::Sequential)
}

/// [`run`] with each stage executed as an independent obligation,
/// optionally across worker threads: [`run_supervised`] under the idle
/// [`SupervisionPolicy`], without the outcome list. Every stage builds
/// its own artifacts and engines, and each is deterministic, so the
/// report is bit-identical to the sequential run (stages stay in flow
/// order).
pub fn run_mode(mode: exec::ExecMode) -> CascadeReport {
    run_supervised(mode, cache::noop(), &SupervisionPolicy::default()).0
}

/// Stage metadata used to fabricate a degraded [`StageResult`] when a
/// stage panics and never returns one: `(stage, level, seeded_error)` in
/// flow order, mirroring the constructors below.
const STAGE_META: [(&str, u8, &str); 5] = [
    (
        "ATPG (memory inspection)",
        1,
        "uninitialized LUT entries read by the kernel",
    ),
    (
        "LPV (deadlock freeness)",
        1,
        "frame-credit loop dimensioned with zero credits",
    ),
    (
        "LPV (deadline achievement)",
        2,
        "frame deadline set below the provable latency",
    ),
    (
        "SymbC (reconfiguration consistency)",
        3,
        "missing reconfigure(config2) before the ROOT calls",
    ),
    (
        "Model checking (BMC)",
        4,
        "DONE state latches instead of returning to IDLE",
    ),
];

/// Runs the cascade under a [`SupervisionPolicy`]: each stage runs
/// panic-isolated (caught, optionally retried once), the model-checking
/// stage consults `cache` and honours the policy's effort budget via
/// [`bmc::check_budgeted`], and the report is accompanied by the
/// per-stage [`ObligationOutcome`] taxonomy. A
/// panicked stage degrades to a fabricated `StageResult` (from the
/// crate-private `STAGE_META` table) with `caught: false`,
/// `clean_passes: false`, and the panic message as detail — the cascade
/// always returns all five stages, bit-identically for any worker count.
pub fn run_supervised(
    mode: exec::ExecMode,
    cache: &cache::ObligationCache,
    policy: &SupervisionPolicy,
) -> (CascadeReport, Vec<ObligationOutcome>) {
    let effort = policy.effort;
    let retry = policy.retry_panicked;
    let jobs: Vec<usize> = (0..STAGE_META.len()).collect();
    let supervised = exec::map(mode, jobs, |_, i| {
        crate::supervise::run_supervised_job(retry, || match i {
            0 => (stage_atpg(), false),
            1 => (stage_lpv_liveness(), false),
            2 => (stage_lpv_deadline(), false),
            3 => (stage_symbc(), false),
            _ => stage_model_checking(cache, &effort),
        })
    });

    let mut stages = Vec::new();
    let mut outcomes = Vec::new();
    for (i, sup) in supervised.into_iter().enumerate() {
        let (stage, status, detail) = match sup.value {
            Some((stage, budget_exhausted)) => {
                let status = if budget_exhausted {
                    ObligationStatus::Unknown
                } else if stage.caught && stage.clean_passes {
                    ObligationStatus::Proved
                } else {
                    ObligationStatus::Refuted
                };
                let detail = stage.detail.clone();
                (stage, status, detail)
            }
            None => {
                let (name, level, seeded_error) = STAGE_META[i];
                let msg = sup.panic.as_deref().unwrap_or("?");
                let detail = format!("stage panicked: {msg}");
                (
                    StageResult {
                        stage: name,
                        level,
                        seeded_error,
                        caught: false,
                        clean_passes: false,
                        detail: detail.clone(),
                    },
                    ObligationStatus::Panicked,
                    detail,
                )
            }
        };
        outcomes.push(ObligationOutcome {
            name: format!("cascade:{}", stage.stage),
            status,
            detail,
            retried: sup.retried,
        });
        stages.push(stage);
    }
    (CascadeReport { stages }, outcomes)
}

/// Stage 1: ATPG (Laerte++) at level 1.
fn stage_atpg() -> StageResult {
    let buggy = buggy_lut_kernel(false);
    let clean = buggy_lut_kernel(true);
    // Coverage metrics cannot distinguish LUT indices (no branch depends
    // on them), so a coverage-greedy testbench may keep a single vector.
    // Memory inspection therefore runs on the full generated testbench:
    // the greedy survivors plus a directed index sweep — exactly how
    // Laerte++ pairs generated patterns with its memory inspector.
    let mut tb = atpg::tpg::random_tpg(
        &buggy,
        &atpg::tpg::RandomConfig {
            rounds: 64,
            seed: 5,
        },
    );
    tb.vectors.extend((0..16u64).map(|i| vec![i]));
    let findings = atpg::metrics::memory_inspection(&buggy, &tb);
    let clean_findings = atpg::metrics::memory_inspection(&clean, &tb);
    StageResult {
        stage: "ATPG (memory inspection)",
        level: 1,
        seeded_error: "uninitialized LUT entries read by the kernel",
        caught: !findings.is_empty(),
        clean_passes: clean_findings.is_empty(),
        detail: format!(
            "{} uninitialized reads on the buggy kernel, {} on the fixed one",
            findings.len(),
            clean_findings.len()
        ),
    }
}

/// Stage 2a: LPV deadlock freeness at level 1.
fn stage_lpv_liveness() -> StageResult {
    let buggy = fig2_petri_net(0);
    let clean = fig2_petri_net(1);
    let buggy_verdict = check_liveness(&buggy);
    let clean_verdict = check_liveness(&clean);
    let caught = matches!(buggy_verdict, LivenessVerdict::TokenFreeCycle { .. });
    StageResult {
        stage: "LPV (deadlock freeness)",
        level: 1,
        seeded_error: "frame-credit loop dimensioned with zero credits",
        caught,
        clean_passes: clean_verdict.is_live(),
        detail: format!("buggy: {buggy_verdict:?}; clean: {clean_verdict:?}"),
    }
}

/// Stage 2b: LPV deadline achievement at level 2. The seeded "bug" is an
/// over-optimistic frame deadline on the paper partition's annotated task
/// graph.
fn stage_lpv_deadline() -> StageResult {
    let config = media::dataset::DatasetConfig::default();
    let profile = build_profile(&config, 80);
    let cpu = platform::CpuModel::arm7tdmi();
    let arch = crate::partition::ArchConfig::default();
    let partition = crate::Partition::paper_level2();
    let mut g = TaskGraph::new();
    let mut prev = None;
    for m in MODULES {
        let mix = profile.mix(m);
        let cycles = match partition.domain(m) {
            crate::Domain::Sw => cpu.cycles(mix),
            _ => arch.hw_cycles(mix.total()),
        };
        let t = g.add_task(m, cycles);
        if let Some(p) = prev {
            g.add_dep(p, t);
        }
        prev = Some(t);
    }
    let latency = g.latency_lp();
    let too_tight = (latency.to_f64() * 0.5) as u64;
    let achievable = (latency.to_f64() * 1.2) as u64;
    let tight_verdict = check_deadline(&g, too_tight);
    let ok_verdict = check_deadline(&g, achievable);
    StageResult {
        stage: "LPV (deadline achievement)",
        level: 2,
        seeded_error: "frame deadline set below the provable latency",
        caught: matches!(tight_verdict, DeadlineVerdict::Violated { .. }),
        clean_passes: ok_verdict.is_met(),
        detail: format!("worst-case latency {latency} cycles"),
    }
}

/// Stage 3: SymbC at level 3.
fn stage_symbc() -> StageResult {
    let (buggy_sw, map) = instrumented_sw(false);
    let (clean_sw, _) = instrumented_sw(true);
    let buggy_verdict = check(&buggy_sw, &map);
    let clean_verdict = check(&clean_sw, &map);
    StageResult {
        stage: "SymbC (reconfiguration consistency)",
        level: 3,
        seeded_error: "missing reconfigure(config2) before the ROOT calls",
        caught: !buggy_verdict.is_consistent(),
        clean_passes: clean_verdict.is_consistent(),
        detail: match &buggy_verdict {
            SymbcVerdict::Inconsistent(v) => {
                format!("{} violation(s), first: {}", v.len(), v[0])
            }
            SymbcVerdict::Consistent(_) => "unexpected certificate".to_owned(),
        },
    }
}

/// Stage 4: model checking at level 4. Both BMC verdicts go through
/// [`bmc::check_budgeted`], and the second element reports whether
/// either query exhausted the budget (the stage then certifies nothing —
/// an exhausted verdict is evidence of nothing).
fn stage_model_checking(
    cache: &cache::ObligationCache,
    effort: &exec::Effort,
) -> (StageResult, bool) {
    let buggy = wrapper(false);
    let clean = wrapper(true);
    let p = Property::response(
        "done_returns_to_idle",
        BoolExpr::eq("state", 3),
        BoolExpr::eq("state", 0),
        1,
    );
    let buggy_verdict = bmc::check_budgeted(&buggy, &p, 10, effort, &telemetry::noop(), cache);
    let clean_verdict = bmc::check_budgeted(&clean, &p, 10, effort, &telemetry::noop(), cache);
    let budget_exhausted =
        buggy_verdict.is_budget_exhausted() || clean_verdict.is_budget_exhausted();
    let stage = StageResult {
        stage: "Model checking (BMC)",
        level: 4,
        seeded_error: "DONE state latches instead of returning to IDLE",
        caught: buggy_verdict.is_violated(),
        clean_passes: matches!(clean_verdict, Verdict::NoViolationUpTo(_)),
        detail: if budget_exhausted {
            format!("budget exhausted: buggy {buggy_verdict:?}, clean {clean_verdict:?}")
        } else {
            format!("buggy verdict: {buggy_verdict:?}")
        },
    };
    (stage, budget_exhausted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stage_catches_its_bug_and_certifies_the_fix() {
        let report = run();
        assert_eq!(report.stages.len(), 5);
        for s in &report.stages {
            assert!(s.caught, "{} failed to catch: {}", s.stage, s.detail);
            assert!(
                s.clean_passes,
                "{} failed to certify the fix: {}",
                s.stage, s.detail
            );
        }
        assert!(report.all_effective());
    }

    #[test]
    fn stages_are_ordered_by_level() {
        let report = run();
        let levels: Vec<u8> = report.stages.iter().map(|s| s.level).collect();
        let mut sorted = levels.clone();
        sorted.sort_unstable();
        assert_eq!(levels, sorted);
    }

    #[test]
    fn fig2_net_is_a_marked_graph() {
        let net = fig2_petri_net(1);
        assert!(net.is_marked_graph());
        assert_eq!(net.num_transitions(), MODULES.len());
        // Chain places + the credit loop.
        assert_eq!(net.num_places(), MODULES.len());
    }

    #[test]
    fn parallel_cascade_is_bit_identical() {
        let reference = run();
        for workers in [2, 8] {
            assert_eq!(run_mode(exec::ExecMode::Parallel { workers }), reference);
        }
    }

    #[cfg(not(any(feature = "panic-mutant", feature = "diverge-mutant")))]
    #[test]
    fn supervised_cascade_idle_equals_legacy() {
        let reference = run();
        let policy = SupervisionPolicy::default();
        let (report, outcomes) = run_supervised(exec::ExecMode::Sequential, cache::noop(), &policy);
        assert_eq!(report, reference);
        assert_eq!(outcomes.len(), 5);
        for o in &outcomes {
            assert_eq!(
                o.status,
                ObligationStatus::Proved,
                "{}: {}",
                o.name,
                o.detail
            );
            assert!(!o.retried);
        }
    }

    #[cfg(not(any(feature = "panic-mutant", feature = "diverge-mutant")))]
    #[test]
    fn starved_cascade_degrades_only_the_bmc_stage() {
        let starve = exec::Effort {
            sat_conflicts: None,
            sat_decisions: Some(0),
            bdd_nodes: None,
        };
        let policy = SupervisionPolicy::with_effort(starve);
        let run_once = |mode| {
            let cache = cache::ObligationCache::new();
            run_supervised(mode, &cache, &policy)
        };
        let (report, outcomes) = run_once(exec::ExecMode::Sequential);
        // The four engine-less stages are untouched by a SAT budget…
        for o in &outcomes[..4] {
            assert_eq!(
                o.status,
                ObligationStatus::Proved,
                "{}: {}",
                o.name,
                o.detail
            );
        }
        // …and the BMC stage degrades to Unknown instead of crashing.
        assert_eq!(outcomes[4].status, ObligationStatus::Unknown);
        assert!(!report.stages[4].caught);
        assert!(report.stages[4].detail.contains("budget exhausted"));
        // Bit-identical for any worker count.
        for workers in [2, 8] {
            let (r, o) = run_once(exec::ExecMode::Parallel { workers });
            assert_eq!(r, report, "{workers} workers");
            assert_eq!(o, outcomes, "{workers} workers");
        }
    }

    #[test]
    fn more_credits_stay_live() {
        for credits in 1..=4 {
            assert!(
                check_liveness(&fig2_petri_net(credits)).is_live(),
                "{credits} credits"
            );
        }
    }
}
