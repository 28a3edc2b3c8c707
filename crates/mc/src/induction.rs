//! k-induction: full safety proofs from bounded reasoning.
//!
//! `G φ` is proven if (base) no violation exists within `k` cycles of
//! reset, and (step) any `k` consecutive φ-states are followed by another
//! φ-state. The step case starts from an unconstrained state, so failure of
//! the step is *not* a refutation — the verdict is then
//! [`Verdict::Unknown`] and a larger `k` (or the exact BDD engine) is
//! needed.

use crate::prop::Property;
use crate::unrolling::{InitMode, Unroller};
use crate::{UnknownReason, Verdict};
use hdl::Rtl;

/// Attempts to prove the invariant `property` by k-induction.
///
/// # Panics
///
/// Panics if called with a response property (only invariants are
/// inductively checkable here; compile response properties to monitors
/// first).
pub fn check(rtl: &Rtl, property: &Property, k: u32) -> Verdict {
    check_instrumented(rtl, property, k, &telemetry::noop())
}

/// [`check`] with telemetry: `induction.sat_calls`, one
/// `induction.solver_constructions` per obligation, and the underlying
/// SAT solver's per-call statistics.
///
/// Base and step cases share one solver over one `InitMode::Free`
/// unrolling: the base case pins frame 0 to the reset state with
/// assumption literals (see `Unroller::reset_assumptions`), the step case
/// drops them and assumes φ on frames `0..k` instead. The
/// transition-relation clauses — and every clause learnt from them while
/// discharging the base case — carry over to the step query, because
/// assumptions are scoped decisions and never contaminate the learnt
/// clause database.
///
/// # Panics
///
/// Panics if called with a response property or `k == 0`.
pub fn check_instrumented(
    rtl: &Rtl,
    property: &Property,
    k: u32,
    instrument: &telemetry::SharedInstrument,
) -> Verdict {
    check_effort(rtl, property, k, &exec::Effort::unbounded(), instrument)
}

/// The shared base/step body, with every SAT query routed through
/// [`sat::Solver::solve_budgeted`] under `effort`. An exhausted query
/// short-circuits the whole obligation to
/// [`Verdict::Unknown`]`(`[`UnknownReason::BudgetExhausted`]`)` — partial
/// base-case progress is not a verdict. With an unbounded effort this is
/// exactly the historical [`check_instrumented`] behaviour.
fn check_effort(
    rtl: &Rtl,
    property: &Property,
    k: u32,
    effort: &exec::Effort,
    instrument: &telemetry::SharedInstrument,
) -> Verdict {
    let expr = match property {
        Property::Invariant { expr, .. } => expr,
        Property::Response { .. } => {
            panic!("k-induction expects an invariant property")
        }
    };
    assert!(k >= 1, "k-induction requires k >= 1");

    instrument.counter_add("induction.solver_constructions", 1);
    let mut unroller = Unroller::new(rtl, InitMode::Free);
    if instrument.enabled() {
        unroller
            .ctx
            .builder_mut()
            .set_instrument(instrument.clone());
    }
    unroller.ensure_frames(k as usize);
    let phis: Vec<sat::Lit> = (0..=k as usize)
        .map(|i| unroller.compile_expr(expr, i))
        .collect();
    let reset = unroller.reset_assumptions();

    // Base case: no violation in the first k cycles from reset.
    for (d, &phi) in phis.iter().enumerate().take(k as usize) {
        let mut assumptions = reset.clone();
        assumptions.push(!phi);
        instrument.counter_add("induction.sat_calls", 1);
        match unroller
            .ctx
            .builder_mut()
            .solve_budgeted(&assumptions, effort)
            .decided()
        {
            None => return Verdict::Unknown(UnknownReason::BudgetExhausted),
            Some(r) if r.is_sat() => {
                let trace = unroller.extract_trace(d);
                return Verdict::Violated(trace);
            }
            Some(_) => {}
        }
    }

    // Step case: φ(s_0) ∧ … ∧ φ(s_{k-1}) ∧ ¬φ(s_k) unsatisfiable?
    let mut assumptions: Vec<sat::Lit> = phis[..k as usize].to_vec();
    assumptions.push(!phis[k as usize]);
    instrument.counter_add("induction.sat_calls", 1);
    match unroller
        .ctx
        .builder_mut()
        .solve_budgeted(&assumptions, effort)
        .decided()
    {
        None => Verdict::Unknown(UnknownReason::BudgetExhausted),
        Some(r) if r.is_unsat() => Verdict::Proven,
        Some(_) => Verdict::Unknown(UnknownReason::NotInductive),
    }
}

/// [`check_instrumented`] backed by the obligation cache (engine tag
/// `"induction"`, parameter `k`). A hit replays the stored verdict —
/// including a base-case counterexample trace — without constructing a
/// solver; [`cache::noop()`] short-circuits to the uncached path. This is
/// [`check_budgeted`] with an unbounded effort.
pub fn check_cached(
    rtl: &Rtl,
    property: &Property,
    k: u32,
    instrument: &telemetry::SharedInstrument,
    cache: &cache::ObligationCache,
) -> Verdict {
    let unbounded = exec::Effort::unbounded();
    check_budgeted(rtl, property, k, &unbounded, instrument, cache)
}

/// [`check_cached`] under a deterministic SAT effort budget. Cache
/// fingerprints are the *standard* ones (engine `"induction"`, parameter
/// `k` — no budget axis), so a conclusive verdict computed here is shared
/// with unbudgeted callers and vice versa. Budget-exhausted verdicts are
/// never inserted: they describe the budget, not the obligation, and a
/// retry with more effort may decide them.
pub fn check_budgeted(
    rtl: &Rtl,
    property: &Property,
    k: u32,
    effort: &exec::Effort,
    instrument: &telemetry::SharedInstrument,
    cache: &cache::ObligationCache,
) -> Verdict {
    if !cache.is_enabled() {
        return check_effort(rtl, property, k, effort, instrument);
    }
    let fp = crate::obligation::fingerprint("induction", rtl, property, &[u64::from(k)]);
    if let Some(payload) = cache.lookup_tagged("induction", fp) {
        if let Some(verdict) = crate::cachefmt::decode_verdict(rtl, &payload) {
            instrument.counter_add("cache.hits", 1);
            return verdict;
        }
    }
    instrument.counter_add("cache.misses", 1);
    let verdict = check_effort(rtl, property, k, effort, instrument);
    if !verdict.is_budget_exhausted() {
        cache.insert_tagged("induction", fp, crate::cachefmt::encode_verdict(&verdict));
    }
    verdict
}

/// Attempts each invariant as an independent k-induction obligation,
/// optionally across worker threads. Verdicts are bit-identical to
/// mapping [`check`] over the slice sequentially (each obligation builds
/// its own unroller and solver).
pub fn check_many(
    rtl: &Rtl,
    properties: &[Property],
    k: u32,
    mode: exec::ExecMode,
) -> Vec<Verdict> {
    let jobs: Vec<usize> = (0..properties.len()).collect();
    exec::map(mode, jobs, |_, pi| check(rtl, &properties[pi], k))
}

/// [`check_many`] with a shared obligation cache and per-obligation
/// telemetry collectors replayed in property order (the same merging
/// discipline as [`bmc::check_many_cached`](crate::bmc::check_many_cached)).
pub fn check_many_cached(
    rtl: &Rtl,
    properties: &[Property],
    k: u32,
    mode: exec::ExecMode,
    instrument: &telemetry::SharedInstrument,
    cache: &cache::ObligationCache,
) -> Vec<Verdict> {
    let enabled = instrument.enabled();
    let jobs: Vec<usize> = (0..properties.len()).collect();
    let results = exec::map(mode, jobs, |_, pi| {
        let property = &properties[pi];
        if !enabled {
            return (
                check_cached(rtl, property, k, &telemetry::noop(), cache),
                None,
            );
        }
        let local = std::rc::Rc::new(telemetry::Collector::new());
        let shared: telemetry::SharedInstrument = local.clone();
        let verdict = check_cached(rtl, property, k, &shared, cache);
        drop(shared);
        let collector =
            std::rc::Rc::try_unwrap(local).expect("obligation dropped every instrument handle");
        (verdict, Some(collector))
    });
    results
        .into_iter()
        .map(|(verdict, collector)| {
            if let Some(c) = collector {
                c.replay_into(instrument.as_ref());
            }
            verdict
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::BoolExpr;
    use behav::BinOp;
    use hdl::Rtl;

    /// Counter that wraps at `modulus` (stays in 0..modulus).
    fn mod_counter(width: u32, modulus: u64) -> Rtl {
        let mut rtl = Rtl::new("modc");
        let q = rtl.reg("q", width, 0);
        let one = rtl.constant(1, width);
        let maxc = rtl.constant(modulus - 1, width);
        let zero = rtl.constant(0, width);
        let inc = rtl.binary(BinOp::Add, q, one);
        let at_max = rtl.binary(BinOp::Eq, q, maxc);
        let next = rtl.mux(at_max, zero, inc);
        rtl.set_next(q, next);
        rtl.output("q", q);
        rtl
    }

    #[test]
    fn inductive_invariant_is_proven() {
        // q < 5 is 1-inductive for the mod-5 counter.
        let rtl = mod_counter(3, 5);
        let p = Property::invariant("lt5", BoolExpr::lt("q", 5));
        assert_eq!(check(&rtl, &p, 1), Verdict::Proven);
    }

    #[test]
    fn non_inductive_invariant_is_unknown_at_k1_but_proven_at_k2() {
        // q != 6 holds (6 unreachable) but is not 1-inductive: from the
        // unreachable state q=5 the next state is 6. It *is* 2-inductive
        // because q=5 itself has no predecessor.
        let rtl = mod_counter(3, 5);
        let p = Property::invariant("ne6", BoolExpr::ne("q", 6));
        assert_eq!(
            check(&rtl, &p, 1),
            Verdict::Unknown(UnknownReason::NotInductive)
        );
        assert_eq!(check(&rtl, &p, 2), Verdict::Proven);
    }

    #[test]
    fn false_invariant_is_refuted_in_base_case() {
        let rtl = mod_counter(3, 5);
        let p = Property::invariant("lt3", BoolExpr::lt("q", 3));
        assert!(check(&rtl, &p, 4).is_violated());
    }

    #[test]
    fn stronger_invariant_proves_at_higher_k_or_stays_unknown() {
        // With larger k the path constraint-free induction may still fail;
        // the verdict must never be wrong, only Unknown.
        let rtl = mod_counter(3, 5);
        let p = Property::invariant("ne6", BoolExpr::ne("q", 6));
        for k in 1..=4 {
            let v = check(&rtl, &p, k);
            assert!(
                v == Verdict::Proven || v == Verdict::Unknown(UnknownReason::NotInductive),
                "unsound verdict {v:?} at k={k}"
            );
        }
    }

    #[test]
    fn check_many_agrees_with_sequential() {
        let rtl = mod_counter(3, 5);
        let properties = vec![
            Property::invariant("lt5", BoolExpr::lt("q", 5)),
            Property::invariant("ne6", BoolExpr::ne("q", 6)),
            Property::invariant("lt3", BoolExpr::lt("q", 3)),
        ];
        let reference: Vec<Verdict> = properties.iter().map(|p| check(&rtl, p, 2)).collect();
        for mode in [
            exec::ExecMode::Sequential,
            exec::ExecMode::Parallel { workers: 2 },
            exec::ExecMode::Parallel { workers: 8 },
        ] {
            assert_eq!(check_many(&rtl, &properties, 2, mode), reference);
        }
    }

    #[test]
    fn base_and_step_share_one_solver() {
        let rtl = mod_counter(3, 5);
        let p = Property::invariant("ne6", BoolExpr::ne("q", 6));
        let collector = telemetry::Collector::shared();
        let instr: telemetry::SharedInstrument = collector.clone();
        assert_eq!(check_instrumented(&rtl, &p, 2, &instr), Verdict::Proven);
        // One solver serves two base-case queries and the step query.
        assert_eq!(collector.counter("induction.solver_constructions"), 1);
        assert_eq!(collector.counter("induction.sat_calls"), 3);
        assert_eq!(collector.counter("sat.solve_calls"), 3);
        // Calls after the first on the same solver are incremental.
        assert_eq!(collector.counter("sat.incremental_solve_calls"), 2);
    }

    #[test]
    fn cached_verdicts_replay_without_solving() {
        let rtl = mod_counter(3, 5);
        let properties = [
            Property::invariant("ne6", BoolExpr::ne("q", 6)),
            Property::invariant("lt3", BoolExpr::lt("q", 3)),
        ];
        let cache = cache::ObligationCache::new();
        let cold: Vec<Verdict> = properties
            .iter()
            .map(|p| check_cached(&rtl, p, 2, &telemetry::noop(), &cache))
            .collect();
        assert_eq!(cache.stats().misses, 2);

        let collector = telemetry::Collector::shared();
        let instr: telemetry::SharedInstrument = collector.clone();
        let warm: Vec<Verdict> = properties
            .iter()
            .map(|p| check_cached(&rtl, p, 2, &instr, &cache))
            .collect();
        assert_eq!(warm, cold);
        assert_eq!(cache.stats().hits, 2);
        // No solver was built for the warm pass.
        assert_eq!(collector.counter("induction.solver_constructions"), 0);
        assert_eq!(collector.counter("cache.hits"), 2);
    }

    #[cfg(not(any(feature = "panic-mutant", feature = "diverge-mutant")))]
    #[test]
    fn budgeted_check_degrades_and_never_caches_exhaustion() {
        let rtl = mod_counter(3, 5);
        let p = Property::invariant("ne6", BoolExpr::ne("q", 6));
        let cache = cache::ObligationCache::new();
        let starve = exec::Effort {
            sat_conflicts: None,
            sat_decisions: Some(0),
            bdd_nodes: None,
        };
        assert_eq!(
            check_budgeted(&rtl, &p, 2, &starve, &telemetry::noop(), &cache),
            Verdict::Unknown(UnknownReason::BudgetExhausted)
        );
        // Exhaustion was not cached: the generous retry re-solves and
        // reaches the real verdict, then shares it with unbudgeted calls.
        let generous = exec::Effort::bounded(10_000);
        assert_eq!(
            check_budgeted(&rtl, &p, 2, &generous, &telemetry::noop(), &cache),
            Verdict::Proven
        );
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(
            check_cached(&rtl, &p, 2, &telemetry::noop(), &cache),
            Verdict::Proven
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    #[should_panic(expected = "expects an invariant")]
    fn response_properties_are_rejected() {
        let rtl = mod_counter(3, 5);
        let p = Property::response("r", BoolExpr::Const(true), BoolExpr::Const(true), 1);
        let _ = check(&rtl, &p, 1);
    }
}
