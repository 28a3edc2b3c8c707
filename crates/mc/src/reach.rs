//! Exact symbolic model checking by BDD reachability.
//!
//! Variable layout: current-state bits occupy BDD variables `0..n`,
//! next-state bits `n..2n`, primary-input bits `2n..`. The reachable-state
//! set is computed by iterated image computation (`∃ current, inputs.
//! R ∧ T` renamed back to the current frame); the invariant is checked
//! against every reachable state under every input valuation. Unlike BMC
//! this is a decision procedure — it either proves the invariant or reports
//! a violation (without a trace; re-run BMC to extract one).

use crate::prop::{BoolExpr, Cmp, Property};
use crate::{CexTrace, UnknownReason, Verdict};
use hdl::lower::{bv, lower, BddBackend, BitCtx};
use hdl::Rtl;

/// Decides the invariant `property` on `rtl` by exact reachability.
///
/// # Panics
///
/// Panics if called with a response property (compile those to monitor
/// FSMs first) or if the state space is too wide (> 28 state bits) to
/// enumerate symbolically with the naive variable order used here.
pub fn check(rtl: &Rtl, property: &Property) -> Verdict {
    check_with_budget(rtl, property, None)
}

/// [`check`] under a soft BDD node budget. The manager's node ceiling
/// ([`bdd::Manager::set_node_budget`]) is polled after each construction
/// stage and at the top of every fixpoint iteration; once allocation
/// crosses it the engine abandons the computation with
/// [`Verdict::Unknown`]`(`[`UnknownReason::BudgetExhausted`]`)`. Node
/// allocation is a deterministic progress axis, so exhaustion happens at
/// the same iteration on every run. `None` is exactly [`check`].
pub fn check_with_budget(rtl: &Rtl, property: &Property, node_budget: Option<usize>) -> Verdict {
    check_counting(rtl, property, node_budget).0
}

/// The engine body, also reporting how many BDD nodes the run allocated
/// (the `bdd_nodes` effort axis — a deterministic progress measure the
/// observability layer attributes per obligation).
fn check_counting(rtl: &Rtl, property: &Property, node_budget: Option<usize>) -> (Verdict, u64) {
    let expr = match property {
        Property::Invariant { expr, .. } => expr,
        Property::Response { .. } => panic!("reachability expects an invariant property"),
    };
    let n = rtl.state_bits() as usize;
    assert!(
        n <= 28,
        "state space too wide for the naive BDD order ({n} bits)"
    );

    let mut mgr = bdd::Manager::new();
    mgr.set_node_budget(node_budget);
    // Current-state bits per register.
    let mut reg_bits: Vec<Vec<bdd::Ref>> = Vec::new();
    let mut var = 0u32;
    for &(r, _) in &rtl.registers() {
        let w = rtl.width(r);
        let bits: Vec<bdd::Ref> = (0..w).map(|i| mgr.var(var + i)).collect();
        var += w;
        reg_bits.push(bits);
    }
    debug_assert_eq!(var as usize, n);

    // Lower with inputs allocated from 2n.
    let (outputs, next_state, input_var_count) = {
        let mut ctx = BddBackend::new(&mut mgr, 2 * n as u32);
        let input_bits: Vec<Vec<bdd::Ref>> = rtl
            .inputs()
            .iter()
            .map(|&i| {
                let w = rtl.width(i) as usize;
                (0..w).map(|_| ctx.bit_fresh()).collect()
            })
            .collect();
        let lowered = lower(rtl, &mut ctx, &input_bits, &reg_bits);
        let outputs = lowered.outputs(rtl);
        let next_state = lowered.next_state(rtl);
        let count = ctx.next_var() - 2 * n as u32;
        (outputs, next_state, count)
    };

    let input_vars: Vec<u32> = (0..input_var_count).map(|i| 2 * n as u32 + i).collect();
    let current_vars: Vec<u32> = (0..n as u32).collect();

    // Transition relation T(current, input, next).
    let mut trans = mgr.constant(true);
    let mut bit_idx = 0u32;
    for reg_next in &next_state {
        for &next_bit in reg_next {
            let next_var = mgr.var(n as u32 + bit_idx);
            let iff = mgr.iff(next_var, next_bit);
            trans = mgr.and(trans, iff);
            bit_idx += 1;
        }
    }

    // The ceiling is polled between stages, never mid-operation — a
    // half-built BDD is unusable, so each construction step runs to
    // completion and exhaustion is detected at the next seam.
    if mgr.node_budget_exhausted() {
        let nodes = mgr.node_count() as u64;
        return (Verdict::Unknown(UnknownReason::BudgetExhausted), nodes);
    }

    // Bad states: ∃ inputs. ¬φ(outputs(current, inputs)).
    let phi = compile_expr(&mut mgr, n, &outputs, expr);
    let not_phi = mgr.not(phi);
    let bad_states = mgr.exists_many(not_phi, &input_vars);

    // Initial state cube.
    let reset = rtl.reset_state();
    let mut init = mgr.constant(true);
    let mut bit = 0u32;
    for (ri, &(r, _)) in rtl.registers().iter().enumerate() {
        let w = rtl.width(r);
        for i in 0..w {
            let v = if reset[ri] >> i & 1 == 1 {
                mgr.var(bit)
            } else {
                mgr.nvar(bit)
            };
            init = mgr.and(init, v);
            bit += 1;
        }
    }

    // Fixpoint reachability.
    let quantify: Vec<u32> = current_vars
        .iter()
        .copied()
        .chain(input_vars.iter().copied())
        .collect();
    let rename_map: Vec<(u32, u32)> = (0..n as u32).map(|i| (n as u32 + i, i)).collect();
    let mut reached = init;
    loop {
        if mgr.node_budget_exhausted() {
            let nodes = mgr.node_count() as u64;
            return (Verdict::Unknown(UnknownReason::BudgetExhausted), nodes);
        }
        let overlap = mgr.and(reached, bad_states);
        if overlap != bdd::Ref::FALSE {
            let nodes = mgr.node_count() as u64;
            return (Verdict::Violated(CexTrace { frames: Vec::new() }), nodes);
        }
        let img_next = mgr.and_exists(reached, trans, &quantify);
        let img = mgr.rename(img_next, &rename_map);
        let new_reached = mgr.or(reached, img);
        if new_reached == reached {
            let nodes = mgr.node_count() as u64;
            return (Verdict::Proven, nodes);
        }
        reached = new_reached;
    }
}

/// [`check`] backed by the obligation cache (engine tag `"reach"`, no
/// numeric parameters — the engine is exact). A hit replays the stored
/// verdict without building a BDD manager; [`cache::noop()`]
/// short-circuits to the uncached path. Hits and misses are surfaced as
/// `cache.hits` / `cache.misses` counters on `instrument`; engine runs
/// additionally report their BDD allocation as `bdd.nodes_allocated`
/// (the effort axis the observability journal attributes per
/// obligation). This is [`check_budgeted`] with an unbounded effort.
///
/// # Panics
///
/// As [`check`]: response properties and state spaces wider than 28 bits
/// are rejected (before any cache lookup, so cached and uncached paths
/// reject identically).
pub fn check_cached(
    rtl: &Rtl,
    property: &Property,
    instrument: &telemetry::SharedInstrument,
    cache: &cache::ObligationCache,
) -> Verdict {
    check_budgeted(rtl, property, &exec::Effort::unbounded(), instrument, cache)
}

/// [`check_cached`] under a BDD node budget taken from
/// `effort.bdd_nodes` (no `bdd_nodes` axis means no budget). The cache
/// fingerprint is the *standard* one (engine `"reach"`, no parameters),
/// so conclusive verdicts are shared with unbudgeted callers;
/// budget-exhausted verdicts are never inserted.
///
/// # Panics
///
/// As [`check_cached`].
pub fn check_budgeted(
    rtl: &Rtl,
    property: &Property,
    effort: &exec::Effort,
    instrument: &telemetry::SharedInstrument,
    cache: &cache::ObligationCache,
) -> Verdict {
    let budget = effort
        .bdd_nodes
        .map(|nodes| usize::try_from(nodes).unwrap_or(usize::MAX));
    assert!(
        matches!(property, Property::Invariant { .. }),
        "reachability expects an invariant property"
    );
    assert!(
        rtl.state_bits() <= 28,
        "state space too wide for the naive BDD order ({} bits)",
        rtl.state_bits()
    );
    let fp = cache
        .is_enabled()
        .then(|| crate::obligation::fingerprint("reach", rtl, property, &[]));
    if let Some(fp) = fp {
        if let Some(payload) = cache.lookup_tagged("reach", fp) {
            if let Some(verdict) = crate::cachefmt::decode_verdict(rtl, &payload) {
                instrument.counter_add("cache.hits", 1);
                return verdict;
            }
        }
        instrument.counter_add("cache.misses", 1);
    }
    let (verdict, nodes) = check_counting(rtl, property, budget);
    instrument.counter_add("bdd.nodes_allocated", nodes);
    if let Some(fp) = fp {
        if !verdict.is_budget_exhausted() {
            cache.insert_tagged("reach", fp, crate::cachefmt::encode_verdict(&verdict));
        }
    }
    verdict
}

#[allow(clippy::only_used_in_recursion)]
fn compile_expr(
    mgr: &mut bdd::Manager,
    n: usize,
    outputs: &[(String, Vec<bdd::Ref>)],
    expr: &BoolExpr,
) -> bdd::Ref {
    match expr {
        BoolExpr::Const(b) => mgr.constant(*b),
        BoolExpr::Atom(a) => {
            let bits = &outputs
                .iter()
                .find(|(nm, _)| nm == &a.output)
                .unwrap_or_else(|| panic!("no output named `{}`", a.output))
                .1;
            // Fresh vars are never needed for constants/comparisons, so the
            // backend's starting index is irrelevant here.
            let mut ctx = BddBackend::new(mgr, u32::MAX - 1024);
            let w = bits.len();
            let m = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
            let cst = bv::constant(&mut ctx, a.value & m, w);
            match a.cmp {
                Cmp::Eq => bv::eq(&mut ctx, bits, &cst),
                Cmp::Ne => {
                    let e = bv::eq(&mut ctx, bits, &cst);
                    ctx.bit_not(e)
                }
                Cmp::Lt => bv::lt(&mut ctx, bits, &cst),
                Cmp::Le => bv::le(&mut ctx, bits, &cst),
                Cmp::Gt => {
                    let le = bv::le(&mut ctx, bits, &cst);
                    ctx.bit_not(le)
                }
                Cmp::Ge => {
                    let lt = bv::lt(&mut ctx, bits, &cst);
                    ctx.bit_not(lt)
                }
            }
        }
        BoolExpr::Not(e) => {
            let x = compile_expr(mgr, n, outputs, e);
            mgr.not(x)
        }
        BoolExpr::And(a, b) => {
            let x = compile_expr(mgr, n, outputs, a);
            let y = compile_expr(mgr, n, outputs, b);
            mgr.and(x, y)
        }
        BoolExpr::Or(a, b) => {
            let x = compile_expr(mgr, n, outputs, a);
            let y = compile_expr(mgr, n, outputs, b);
            mgr.or(x, y)
        }
        BoolExpr::Implies(a, b) => {
            let x = compile_expr(mgr, n, outputs, a);
            let y = compile_expr(mgr, n, outputs, b);
            mgr.implies(x, y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmc;
    use crate::prop::BoolExpr;
    use behav::BinOp;
    use hdl::fsm::bus_wrapper_fsm;
    use hdl::Rtl;

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
    fn proves_unreachable_state_exactly() {
        // q != 6 is NOT 1-inductive but IS true: the exact engine proves it.
        let rtl = mod_counter(3, 5);
        let p = Property::invariant("ne6", BoolExpr::ne("q", 6));
        assert_eq!(check(&rtl, &p), Verdict::Proven);
    }

    #[test]
    fn refutes_false_invariant() {
        let rtl = mod_counter(3, 5);
        let p = Property::invariant("lt3", BoolExpr::lt("q", 3));
        assert!(check(&rtl, &p).is_violated());
    }

    #[test]
    fn agrees_with_bmc_on_fsm_invariants() {
        let rtl = bus_wrapper_fsm("w");
        let cases = [
            (Property::invariant("range", BoolExpr::le("state", 3)), true),
            (
                // bus_req is never high in DONE (state 3).
                Property::invariant(
                    "no_req_in_done",
                    BoolExpr::implies(BoolExpr::eq("state", 3), BoolExpr::eq("bus_req", 0)),
                ),
                true,
            ),
            (
                Property::invariant("never_done", BoolExpr::eq("done", 0)),
                false,
            ),
        ];
        for (p, expect_proven) in cases {
            let exact = check(&rtl, &p);
            let bounded = bmc::check(&rtl, &p, 10);
            if expect_proven {
                assert_eq!(exact, Verdict::Proven, "{}", p.name());
                assert!(
                    matches!(bounded, Verdict::NoViolationUpTo(_)),
                    "{}",
                    p.name()
                );
            } else {
                assert!(exact.is_violated(), "{}", p.name());
                assert!(bounded.is_violated(), "{}", p.name());
            }
        }
    }

    #[test]
    fn input_dependent_invariant() {
        // Module: out = in0 & in1. Invariant "out ≤ 1" holds; "out == 0"
        // fails because some input valuation makes out 1. State-free models
        // still work (no registers).
        let mut rtl = Rtl::new("comb");
        let a = rtl.input("a", 1);
        let b = rtl.input("b", 1);
        let o = rtl.binary(BinOp::And, a, b);
        rtl.output("o", o);
        assert_eq!(
            check(&rtl, &Property::invariant("le1", BoolExpr::le("o", 1))),
            Verdict::Proven
        );
        assert!(check(&rtl, &Property::invariant("zero", BoolExpr::eq("o", 0))).is_violated());
    }

    #[test]
    fn node_budget_degrades_deterministically_and_skips_the_cache() {
        let rtl = mod_counter(3, 5);
        let p = Property::invariant("ne6", BoolExpr::ne("q", 6));
        let starve = exec::Effort {
            sat_conflicts: None,
            sat_decisions: None,
            bdd_nodes: Some(8),
        };
        let cache = cache::ObligationCache::new();
        for _ in 0..2 {
            assert_eq!(
                check_budgeted(&rtl, &p, &starve, &telemetry::noop(), &cache),
                Verdict::Unknown(UnknownReason::BudgetExhausted)
            );
        }
        assert_eq!(cache.stats().misses, 2);
        // A generous budget concludes and its verdict is shared with
        // unbudgeted callers through the standard fingerprint.
        let generous = exec::Effort {
            sat_conflicts: None,
            sat_decisions: None,
            bdd_nodes: Some(1 << 20),
        };
        assert_eq!(
            check_budgeted(&rtl, &p, &generous, &telemetry::noop(), &cache),
            Verdict::Proven
        );
        assert_eq!(
            check_cached(&rtl, &p, &telemetry::noop(), &cache),
            Verdict::Proven
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    #[should_panic(expected = "expects an invariant")]
    fn response_rejected() {
        let rtl = mod_counter(3, 5);
        let p = Property::response("r", BoolExpr::Const(true), BoolExpr::Const(true), 1);
        let _ = check(&rtl, &p);
    }
}
