//! Level 4: RTL generation and formal verification.
//!
//! "At level 4, the RTL code is produced … Model checking and SAT solving
//! are used at this level" (§3.4). This module:
//!
//! 1. behaviourally synthesizes the FPGA kernels (DISTANCE step, unrolled
//!    ROOT) from their `behav` sources to combinational RTL,
//! 2. proves RTL/behavioural equivalence by SAT miter (the synthesis
//!    correctness check),
//! 3. generates the bus-interface wrapper FSM ("the construction of
//!    dedicated wrappers … was manually performed for each HW module" —
//!    here it is automated, as the paper anticipates),
//! 4. model-checks the interface properties (BMC + exact BDD reachability),
//! 5. runs PCC to measure property-set completeness, demonstrating the
//!    paper's refinement loop: the initial property set leaves faults
//!    uncovered; the extended set closes the gap.
//!
//! Every step-2, step-4 and step-5 check is a supervised obligation of
//! [`run_supervised`]; [`run`] and [`run_cached`] are that path under the
//! idle [`SupervisionPolicy`].

use crate::supervise::{
    Obligation, ObligationOutcome, ObligationStatus, RunCtx, SupervisionPolicy,
};
use behav::unroll::unroll;
use behav::Function;
use hdl::fsm::bus_wrapper_fsm;
use hdl::lower::{lower, BitCtx, CnfBackend};
use hdl::synth::synthesize;
use hdl::Rtl;
use mc::prop::{BoolExpr, Property};
use mc::{bmc, reach, Verdict};
use media::kernels::{distance_step_function, root_function, ROOT_ITERATIONS};
use pcc::{check_coverage_cached, PccConfig, PccReport};

/// Outcome of the level-4 phase.
#[derive(Debug, Clone)]
pub struct Level4Report {
    /// Synthesized kernels: `(name, nodes, proven equivalent)`.
    pub kernels: Vec<(String, usize, bool)>,
    /// Wrapper property verdicts: `(property name, engine, proven)`.
    pub properties: Vec<(String, &'static str, bool)>,
    /// PCC coverage of the *initial* property set.
    pub pcc_initial: PccReport,
    /// PCC coverage after extending the property set.
    pub pcc_extended: PccReport,
}

/// Proves RTL ≡ behavioural source with a SAT miter over all inputs.
///
/// Returns `true` when no distinguishing input exists.
pub fn prove_equivalence(func: &Function, rtl: &Rtl) -> bool {
    let unbounded = exec::Effort::unbounded();
    prove_equivalence_budgeted(func, rtl, &unbounded, &telemetry::noop(), cache::noop())
        .expect("an unbounded solve always decides")
}

/// [`prove_equivalence`] under a deterministic effort budget, with
/// telemetry and the obligation cache (engine tag `"level4.miter"`).
///
/// The cache fingerprint covers the full miter CNF, the shared input
/// literal layout, and the "any output bit differs" root, so a hit returns
/// the stored equivalence verdict without solving. The miter runs on the
/// single canonical solver, so the exhaustion point is a pure function of
/// the CNF and the budget, independent of worker count.
///
/// Returns `Some(equivalent)` on a verdict and `None` when the budget ran
/// out first. Verdicts are cached; exhaustion is never cached, because a
/// larger budget may still decide the query. Only an effort that leaves
/// SAT unbounded seeds the solve from the cache's lemma pool.
pub fn prove_equivalence_budgeted(
    func: &Function,
    rtl: &Rtl,
    effort: &exec::Effort,
    instrument: &telemetry::SharedInstrument,
    cache: &cache::ObligationCache,
) -> Option<bool> {
    let mut ctx = CnfBackend::new();
    if instrument.enabled() {
        ctx.builder_mut().set_instrument(instrument.clone());
    }
    let (input_bits, any) = build_miter(func, rtl, &mut ctx);
    let fp = if cache.is_enabled() {
        let fp = miter_fingerprint(&mut ctx, &input_bits, any);
        if let Some(payload) = cache.lookup_tagged("level4.miter", fp) {
            if let Some(equivalent) = cache::decode_bool(&payload) {
                instrument.counter_add("cache.hits", 1);
                return Some(equivalent);
            }
        }
        instrument.counter_add("cache.misses", 1);
        Some(fp)
    } else {
        None
    };
    let builder = ctx.builder_mut();
    builder.assert_lit(any);
    let equivalent = if effort.bounds_sat() {
        match builder.solve_budgeted(&[], effort).decided() {
            Some(result) => result.is_unsat(),
            // Budget exhausted: cube-and-conquer fallback. Split on the
            // probe solver's top-activity variables and re-solve each cube
            // under the same per-cube budget; cubes run sequentially so the
            // exhaustion point stays a pure function of CNF and budget. No
            // lemma-pool seeding on a budget — a warm pool could move the
            // exhaustion point and flip Exhausted <-> Decided across runs.
            None => {
                instrument.counter_add("sat.cube_splits", 1);
                let split = builder.solver().top_activity_vars(CUBE_SPLIT_VARS);
                let cnf = builder.solver().export_cnf();
                let report = sat::cube::conquer(&cnf, &split, effort, exec::ExecMode::Sequential);
                report.verdict?.is_unsat()
            }
        }
    } else {
        // Lemma-pool warm start: seed clauses learnt by an earlier solve of
        // a fingerprint-identical miter (same canonical CNF, same asserted
        // root), then collect this solve's own short learnts back into the
        // pool. Seeds are entailed by the exporter's CNF — byte-identical
        // to ours — so they can shrink the search, never flip the verdict.
        if let Some(fp) = fp {
            seed_from_pool(builder.solver_mut(), cache.lemmas(), fp, instrument);
            builder.solver_mut().set_share(sat::SolverShare::collector(
                sat::ShareFilter::default(),
                cache::pool::MAX_CLAUSES_PER_ENTRY,
            ));
        }
        let equivalent = builder.solve().is_unsat();
        if let Some(fp) = fp {
            if let Some(share) = builder.solver_mut().take_share() {
                cache.lemmas().insert(fp, &share.into_pool_exports());
            }
        }
        equivalent
    };
    if let Some(fp) = fp {
        cache.insert_tagged("level4.miter", fp, cache::encode_bool(equivalent));
    }
    Some(equivalent)
}

/// Number of top-activity variables the budgeted miter splits on when
/// its direct solve exhausts (2^k cubes; 3 → 8 cubes, enough to break
/// symmetric hard instances without exploding the sequential sweep).
const CUBE_SPLIT_VARS: usize = 3;

/// Imports the lemma-pool entry for `fp` (if any) into `solver` at
/// decision level 0, reporting pool telemetry. Returns early on a
/// conflicting import — the solver is then already UNSAT and the caller's
/// solve call reports it.
fn seed_from_pool(
    solver: &mut sat::Solver,
    pool: &cache::LemmaPool,
    fp: cache::Fingerprint,
    instrument: &telemetry::SharedInstrument,
) {
    let seeds = pool.lookup(fp);
    if seeds.is_empty() {
        return;
    }
    instrument.counter_add("sat.pool_hits", 1);
    let (mut imported, mut rejected) = (0u64, 0u64);
    for clause in &seeds {
        match solver.import_clause(clause) {
            sat::ImportResult::Added => imported += 1,
            sat::ImportResult::Redundant => rejected += 1,
            // The seeds alone are UNSAT under the level-0 trail; further
            // imports cannot change that verdict.
            sat::ImportResult::Conflict => break,
        }
    }
    instrument.counter_add("sat.pool_imports", imported);
    instrument.counter_add("sat.pool_rejects", rejected);
}

/// Content-addresses a built (un-asserted) miter: input literal layout,
/// difference root, canonicalised clauses.
fn miter_fingerprint(
    ctx: &mut CnfBackend,
    input_bits: &[Vec<sat::Lit>],
    root: sat::Lit,
) -> cache::Fingerprint {
    let flat: Vec<sat::Lit> = input_bits.iter().flatten().copied().collect();
    let cnf = ctx.builder_mut().solver().export_cnf();
    cache::FingerprintBuilder::new("level4.miter")
        .lits(&flat)
        .lits(&[root])
        .cnf(&cnf)
        .finish()
}

/// Builds the RTL-vs-resynthesized-source miter in `ctx`, returning the
/// input literals and the *un-asserted* "any output bit differs" literal
/// (callers assert it after any cache fingerprinting).
fn build_miter(func: &Function, rtl: &Rtl, ctx: &mut CnfBackend) -> (Vec<Vec<sat::Lit>>, sat::Lit) {
    let input_bits: Vec<Vec<sat::Lit>> = rtl
        .inputs()
        .iter()
        .map(|&i| (0..rtl.width(i)).map(|_| ctx.bit_fresh()).collect())
        .collect();
    let lowered = lower(rtl, ctx, &input_bits, &[]);
    let rtl_out = lowered.outputs(rtl)[0].1.clone();

    // Synthesize a second copy from the behavioural source and compare.
    // (The behavioural interpreter cannot be bit-blasted directly; the
    // synthesis path itself is validated against the interpreter by
    // extensive simulation in `hdl::synth` tests, and the miter here
    // guards every later transformation of the netlist.)
    let golden = synthesize(func).expect("kernel is synthesizable");
    let lowered_g = lower(&golden, ctx, &input_bits, &[]);
    let golden_out = lowered_g.outputs(&golden)[0].1.clone();

    let mut diffs = Vec::new();
    for (&a, &b) in rtl_out.iter().zip(&golden_out) {
        diffs.push(ctx.bit_xor(a, b));
    }
    let builder = ctx.builder_mut();
    let any = diffs
        .iter()
        .fold(None::<sat::Lit>, |acc, &d| match acc {
            None => Some(d),
            Some(x) => Some(builder.or_gate(x, d)),
        })
        .expect("at least one output bit");
    (input_bits, any)
}

/// The initial (incomplete) wrapper property set the designer writes first:
/// a range check, the done-flag encoding, and a liveness hope. It proves —
/// and PCC then shows how much behaviour it leaves unconstrained.
pub fn initial_properties() -> Vec<Property> {
    vec![
        Property::invariant("state_in_range", BoolExpr::le("state", 3)),
        Property::invariant(
            "done_iff_done_state",
            BoolExpr::and(
                BoolExpr::implies(BoolExpr::eq("state", 3), BoolExpr::eq("done", 1)),
                BoolExpr::implies(BoolExpr::ne("state", 3), BoolExpr::eq("done", 0)),
            ),
        ),
        Property::response(
            "req_eventually_done",
            BoolExpr::eq("bus_req", 1),
            BoolExpr::eq("done", 1),
            3,
        ),
    ]
}

/// The extended property set after the PCC-driven refinement iteration.
pub fn extended_properties() -> Vec<Property> {
    let mut props = vec![
        Property::invariant("state_in_range", BoolExpr::le("state", 3)),
        // Output encodings pinned per state.
        Property::invariant(
            "req_iff_active",
            BoolExpr::and(
                BoolExpr::implies(
                    BoolExpr::or(BoolExpr::eq("state", 1), BoolExpr::eq("state", 2)),
                    BoolExpr::eq("bus_req", 1),
                ),
                BoolExpr::implies(
                    BoolExpr::or(BoolExpr::eq("state", 0), BoolExpr::eq("state", 3)),
                    BoolExpr::eq("bus_req", 0),
                ),
            ),
        ),
        Property::invariant(
            "done_iff_done_state",
            BoolExpr::and(
                BoolExpr::implies(BoolExpr::eq("state", 3), BoolExpr::eq("done", 1)),
                BoolExpr::implies(BoolExpr::ne("state", 3), BoolExpr::eq("done", 0)),
            ),
        ),
        // Transition structure: REQUEST always advances, DONE always
        // returns to IDLE.
        Property::response(
            "request_advances",
            BoolExpr::eq("state", 1),
            BoolExpr::eq("state", 2),
            1,
        ),
        Property::response(
            "done_returns_to_idle",
            BoolExpr::eq("state", 3),
            BoolExpr::eq("state", 0),
            1,
        ),
    ];
    // Keep the bounded-liveness property from the initial set.
    props.push(Property::response(
        "req_eventually_done",
        BoolExpr::eq("bus_req", 1),
        BoolExpr::eq("done", 1),
        3,
    ));
    props
}

/// Properties provable on the *open* wrapper (free `ack` input): liveness
/// toward DONE depends on the environment providing `ack`, so only the
/// safety subset is checked against the open model.
fn provable_on_open_model(p: &Property) -> bool {
    p.name() != "req_eventually_done"
}

/// The engine that decides a wrapper property.
fn property_engine(p: &Property) -> &'static str {
    match p {
        Property::Invariant { .. } => "bdd-reach",
        Property::Response { .. } => "bmc",
    }
}

/// Runs the complete level-4 phase.
///
/// ```
/// let report = symbad_core::level4::run();
/// // Both FPGA kernels synthesize to RTL and prove equivalent to their
/// // behavioural source; extending the property set lifts PCC coverage.
/// assert!(report.kernels.iter().all(|&(_, _, equivalent)| equivalent));
/// assert!(report.pcc_extended.covered >= report.pcc_initial.covered);
/// ```
///
/// # Panics
///
/// Panics if a kernel unexpectedly fails to synthesize (a programming
/// error, not an input condition).
pub fn run() -> Level4Report {
    run_cached(
        exec::ExecMode::Sequential,
        &telemetry::noop(),
        cache::noop(),
    )
}

/// [`run`] with telemetry, an execution mode, and the obligation cache:
/// [`run_supervised`] under the idle [`SupervisionPolicy`], without the
/// outcome list. Every SAT/BDD obligation of the level — kernel miters,
/// wrapper properties, PCC kill checks — is looked up before an engine
/// runs and stored after; the report is bit-identical for a cold or warm
/// cache and for any worker count.
///
/// # Panics
///
/// Same as [`run`].
pub fn run_cached(
    mode: exec::ExecMode,
    instrument: &telemetry::SharedInstrument,
    cache: &cache::ObligationCache,
) -> Level4Report {
    let policy = SupervisionPolicy::default();
    run_supervised(mode, instrument, cache, &policy, None).0
}

/// Runs level 4 under a [`SupervisionPolicy`]: every level-4 obligation —
/// two kernel miters, five wrapper properties, two PCC coverage runs — is
/// panic-isolated (caught, optionally retried once), effort-budgeted, and
/// reported in the [`ObligationOutcome`] taxonomy alongside the (possibly
/// partial) [`Level4Report`].
///
/// Degraded entries keep the report well-formed: an undecided or panicked
/// miter/property is recorded as not-proven, and a failed PCC run falls
/// back to an empty coverage report. Budget-exhausted model-checking
/// obligations are routed to the deterministic simulation cross-check
/// ([`mc::simcheck`]): a witnessed violation upgrades them to *Refuted*.
///
/// With a `journal`, every obligation's lifecycle — start, cache probe,
/// per-axis budget spend, panic/retry, provenance-carrying finish,
/// degradation — lands on its deterministic lane in obligation order, and
/// the batch scheduling facts (queue depth, worker attribution, wall
/// latency) on its timing lane. The journal never perturbs results.
///
/// Determinism: with a parallel `mode` the miters and the properties fan
/// out across workers, each on the canonical budgeted solver with a
/// private telemetry collector replayed in obligation order. The PCC runs
/// execute sequentially — a panic escaping a parallel inner PCC sweep
/// would leave worker-count-dependent cache state behind, so supervised
/// PCC trades parallelism for reproducibility. The outcome list, the
/// report and the journal's deterministic lane are bit-identical across
/// worker counts, faults or no faults.
///
/// # Panics
///
/// Kernel synthesis panics propagate (programming errors, same as
/// [`run`]); engine panics are supervised.
pub fn run_supervised(
    mode: exec::ExecMode,
    instrument: &telemetry::SharedInstrument,
    cache: &cache::ObligationCache,
    policy: &SupervisionPolicy,
    journal: Option<&telemetry::Journal>,
) -> (Level4Report, Vec<ObligationOutcome>) {
    let ctx = RunCtx {
        mode,
        instrument,
        cache,
        policy,
        journal,
    };
    let mut outcomes = Vec::new();
    let report = run_in(&ctx, &mut outcomes);
    (report, outcomes)
}

/// The level-4 body: its obligations, declared for the supervised driver.
pub(crate) fn run_in(ctx: &RunCtx<'_>, outcomes: &mut Vec<ObligationOutcome>) -> Level4Report {
    use ObligationStatus::{Proved, Refuted, Unknown};

    let cache = ctx.cache;
    let effort = ctx.policy.effort;
    let (sim_vectors, sim_cycles) = (ctx.policy.sim_vectors, ctx.policy.sim_cycles);

    // 1–2: synthesize deterministically (no SAT involved), then prove the
    // miters.
    let dist = distance_step_function();
    let dist_rtl = synthesize(&dist).expect("distance step synthesizes");
    let root_unrolled = unroll(&root_function(), ROOT_ITERATIONS);
    let root_rtl = synthesize(&root_unrolled).expect("unrolled root synthesizes");
    let miters: [(&str, &Function, &Rtl); 2] = [
        ("distance", &dist, &dist_rtl),
        ("root", &root_unrolled, &root_rtl),
    ];
    let obligations = miters
        .iter()
        .map(|&(name, func, rtl)| Obligation {
            name: format!("miter:{name}"),
            engine: "level4.miter",
            budgeted: true,
            run: Box::new(move |instr: &telemetry::SharedInstrument| {
                prove_equivalence_budgeted(func, rtl, &effort, instr, cache)
            }),
        })
        .collect();
    let discharged = ctx.discharge(
        "level4.miters",
        ctx.mode,
        obligations,
        |equivalent| match equivalent {
            Some(true) => (Proved, "equivalent (miter UNSAT)".to_owned()),
            Some(false) => (Refuted, "distinguishing input exists".to_owned()),
            None => (Unknown, "SAT budget exhausted before a verdict".to_owned()),
        },
        outcomes,
    );
    let kernels = miters
        .iter()
        .zip(&discharged)
        .map(|(&(name, _, rtl), d)| (name.to_owned(), rtl.num_nodes(), d.status == Proved))
        .collect();

    // 3–4: wrapper properties, with the simulation cross-check behind
    // budget exhaustion.
    let wrapper = bus_wrapper_fsm("bus_wrapper");
    let props: Vec<Property> = extended_properties()
        .into_iter()
        .filter(provable_on_open_model)
        .collect();
    let obligations = props
        .iter()
        .map(|p| Obligation {
            name: format!("property:{}", p.name()),
            engine: property_engine(p),
            budgeted: true,
            run: Box::new(|instr: &telemetry::SharedInstrument| {
                let verdict = match p {
                    Property::Invariant { .. } => {
                        reach::check_budgeted(&wrapper, p, &effort, instr, cache)
                    }
                    Property::Response { .. } => {
                        bmc::check_budgeted(&wrapper, p, 12, &effort, instr, cache)
                    }
                };
                instr.counter_add("level4.properties_checked", 1);
                let cross_check = verdict
                    .is_budget_exhausted()
                    .then(|| mc::simcheck::simulate_violates(&wrapper, p, sim_vectors, sim_cycles));
                (verdict, cross_check)
            }),
        })
        .collect();
    let discharged = ctx.discharge(
        "level4.properties",
        ctx.mode,
        obligations,
        |(verdict, cross_check)| match verdict {
            Verdict::Proven => (Proved, "proven".to_owned()),
            Verdict::NoViolationUpTo(k) => (Proved, format!("no violation up to {k} cycles")),
            Verdict::Violated(_) => (Refuted, "counterexample found".to_owned()),
            Verdict::Unknown(mc::UnknownReason::BudgetExhausted) => match cross_check {
                Some(true) => (
                    Refuted,
                    "budget exhausted; refuted by simulation cross-check".to_owned(),
                ),
                _ => (
                    Unknown,
                    format!(
                        "budget exhausted; simulation cross-check found no violation \
                         in {sim_vectors} vectors"
                    ),
                ),
            },
            Verdict::Unknown(mc::UnknownReason::NotInductive) => {
                (Unknown, "engine could not decide".to_owned())
            }
        },
        outcomes,
    );
    let properties = props
        .iter()
        .zip(&discharged)
        .map(|(p, d)| (p.name().to_owned(), property_engine(p), d.status == Proved))
        .collect();

    // 5: the two PCC coverage runs, each on the calling thread (see the
    // determinism note on `run_supervised`). They are panic-supervised but
    // not effort-budgeted; a panicked or failed run degrades to an empty
    // report so the flow can still render coverage.
    let cfg = PccConfig { bmc_bound: 10 };
    let initial: Vec<Property> = initial_properties()
        .into_iter()
        .filter(provable_on_open_model)
        .collect();
    let [pcc_initial, pcc_extended] =
        [("pcc:initial", &initial), ("pcc:extended", &props)].map(|(name, set)| {
            let obligation = Obligation {
                name: name.to_owned(),
                engine: "pcc",
                budgeted: false,
                run: Box::new(|_: &telemetry::SharedInstrument| {
                    check_coverage_cached(&wrapper, set, &cfg, exec::ExecMode::Sequential, cache)
                }),
            };
            let discharged = ctx.discharge_one(
                obligation,
                |coverage| match coverage {
                    Ok(report) => (Proved, format!("coverage {:.1}%", report.pct())),
                    Err(err) => (Refuted, format!("coverage not measurable: {err}")),
                },
                outcomes,
            );
            discharged
                .value
                .and_then(Result::ok)
                .unwrap_or_else(|| PccReport {
                    total: 0,
                    covered: 0,
                    uncovered: Vec::new(),
                    per_property: Vec::new(),
                })
        });

    Level4Report {
        kernels,
        properties,
        pcc_initial,
        pcc_extended,
    }
}

/// Emits the level-4 VHDL deliverables: both synthesized kernels and the
/// bus wrapper, as `(entity name, vhdl source)` pairs — the "FPGA RTL
/// VHDL" box of Figure 1.
pub fn export_vhdl() -> Vec<(String, String)> {
    let mut artifacts = Vec::new();
    let dist = distance_step_function();
    let dist_rtl = synthesize(&dist).expect("distance step synthesizes");
    artifacts.push(("distance".to_owned(), hdl::vhdl::to_vhdl(&dist_rtl)));
    let root = root_function();
    let root_rtl = synthesize(&unroll(&root, ROOT_ITERATIONS)).expect("unrolled root synthesizes");
    artifacts.push(("root".to_owned(), hdl::vhdl::to_vhdl(&root_rtl)));
    let wrapper = bus_wrapper_fsm("bus_wrapper");
    artifacts.push(("bus_wrapper".to_owned(), hdl::vhdl::to_vhdl(&wrapper)));
    artifacts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_synthesize_and_verify() {
        let report = run();
        assert_eq!(report.kernels.len(), 2);
        for (name, nodes, equivalent) in &report.kernels {
            assert!(*nodes > 0, "{name} has an empty netlist");
            assert!(*equivalent, "{name} RTL is not equivalent to source");
        }
    }

    #[test]
    fn parallel_level4_matches_sequential() {
        let reference = run();
        for workers in [2, 8] {
            let par = run_cached(
                exec::ExecMode::Parallel { workers },
                &telemetry::noop(),
                cache::noop(),
            );
            assert_eq!(par.kernels, reference.kernels);
            assert_eq!(par.properties, reference.properties);
            assert_eq!(par.pcc_initial.covered, reference.pcc_initial.covered);
            assert_eq!(par.pcc_initial.uncovered, reference.pcc_initial.uncovered);
            assert_eq!(par.pcc_extended.covered, reference.pcc_extended.covered);
            assert_eq!(par.pcc_extended.uncovered, reference.pcc_extended.uncovered);
        }
    }

    #[test]
    fn wrapper_properties_all_prove() {
        let report = run();
        assert!(!report.properties.is_empty());
        for (name, engine, proven) in &report.properties {
            assert!(proven, "property {name} failed under {engine}");
        }
    }

    #[test]
    fn pcc_refinement_raises_coverage() {
        let report = run();
        assert!(
            report.pcc_extended.pct() > report.pcc_initial.pct(),
            "extended set {}% must beat initial {}%",
            report.pcc_extended.pct(),
            report.pcc_initial.pct()
        );
        assert!(
            !report.pcc_initial.uncovered.is_empty(),
            "the initial set must leave uncovered behaviour — that's the E8 story"
        );
    }

    #[cfg(not(any(feature = "panic-mutant", feature = "diverge-mutant")))]
    #[test]
    fn supervised_level4_idle_matches_legacy() {
        let reference = run();
        let policy = SupervisionPolicy::default();
        let (report, outcomes) = run_supervised(
            exec::ExecMode::Sequential,
            &telemetry::noop(),
            cache::noop(),
            &policy,
            None,
        );
        assert_eq!(report.kernels, reference.kernels);
        assert_eq!(report.properties, reference.properties);
        assert_eq!(report.pcc_initial, reference.pcc_initial);
        assert_eq!(report.pcc_extended, reference.pcc_extended);
        assert_eq!(outcomes.len(), 9);
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
    fn starved_level4_degrades_deterministically() {
        let starve = exec::Effort {
            sat_conflicts: None,
            sat_decisions: Some(0),
            bdd_nodes: Some(1),
        };
        let policy = SupervisionPolicy::with_effort(starve);
        let run_once = |mode| {
            let cache = cache::ObligationCache::new();
            run_supervised(mode, &telemetry::noop(), &cache, &policy, None)
        };
        let (report, outcomes) = run_once(exec::ExecMode::Sequential);
        // The miters still prove: their UNSAT proofs are pure level-0
        // propagation, and budgets cap *search* (conflicts, decisions) —
        // a query decidable without search cannot be starved. Every
        // wrapper property, by contrast, exhausts its budget; they are
        // all true on the wrapper, so the simulation cross-check finds no
        // violation and they degrade to Unknown rather than Refuted.
        for o in &outcomes[..2] {
            assert_eq!(
                o.status,
                ObligationStatus::Proved,
                "{}: {}",
                o.name,
                o.detail
            );
        }
        for o in &outcomes[2..7] {
            assert_eq!(
                o.status,
                ObligationStatus::Unknown,
                "{}: {}",
                o.name,
                o.detail
            );
        }
        assert!(report.kernels.iter().all(|&(_, _, eq)| eq));
        assert!(report.properties.iter().all(|&(_, _, p)| !p));
        // PCC takes no SAT budget (it is panic-supervised only) and still
        // measures coverage.
        assert_eq!(outcomes[7].status, ObligationStatus::Proved);
        assert_eq!(outcomes[8].status, ObligationStatus::Proved);
        assert!(report.pcc_extended.total > 0);
        // Bit-identical for any worker count (fresh cache each run).
        for workers in [2, 8] {
            let (r, o) = run_once(exec::ExecMode::Parallel { workers });
            assert_eq!(r.kernels, report.kernels, "{workers} workers");
            assert_eq!(r.properties, report.properties, "{workers} workers");
            assert_eq!(o, outcomes, "{workers} workers");
        }
    }

    #[test]
    fn distance_rtl_computes() {
        let dist = distance_step_function();
        let rtl = synthesize(&dist).expect("synth");
        // |7-3|² + 100 = 116.
        assert_eq!(rtl.eval_combinational(&[7, 3, 100])[0], 116);
        assert_eq!(rtl.eval_combinational(&[3, 7, 100])[0], 116);
    }

    #[test]
    fn vhdl_artifacts_are_emitted() {
        let artifacts = export_vhdl();
        assert_eq!(artifacts.len(), 3);
        let names: Vec<&str> = artifacts.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["distance", "root", "bus_wrapper"]);
        for (name, vhdl) in &artifacts {
            // The ROOT kernel's module is named `root_unrolled` after the
            // loop-unrolling pass, so check the prefix, not equality.
            assert!(
                vhdl.contains(&format!("entity {name}")),
                "{name} entity missing"
            );
            assert!(vhdl.contains("end architecture rtl;"));
        }
        // The wrapper is sequential: it carries the register process.
        assert!(artifacts[2].1.contains("rising_edge(clk)"));
    }

    #[test]
    fn root_rtl_computes() {
        let root = root_function();
        let unrolled = unroll(&root, ROOT_ITERATIONS);
        let rtl = synthesize(&unrolled).expect("synth");
        assert_eq!(rtl.eval_combinational(&[49])[0], 7);
        assert_eq!(rtl.eval_combinational(&[65536])[0], 256);
        assert_eq!(rtl.eval_combinational(&[0])[0], 0);
    }
}
