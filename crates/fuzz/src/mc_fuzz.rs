//! The model-checking oracle family: random sequential netlists with
//! exhaustively known reachable-state ground truth.
//!
//! Cases are built from a [`McCase`] recipe — pools of word- and
//! bit-width signals, random ops, random register feedback — sized so an
//! explicit-state breadth-first search over all states and input
//! combinations is exact and cheap. Every output is input-independent by
//! construction, so an invariant's truth value at a state is well
//! defined; the BFS yields the earliest violation depth, and these
//! independent engines must agree with it and with each other:
//!
//! * [`mc::bmc`] within the bound (earliest-depth trace, replayed
//!   concretely through [`hdl::Rtl::step`]),
//! * [`mc::induction`] (sound verdicts only; `Unknown` is allowed),
//! * [`mc::reach`] BDD reachability (exact),
//! * cached cold/warm runs vs the uncached engine,
//! * instrumented vs plain BMC,
//! * the case and a sibling one recipe edit away through one shared
//!   cache: no cached verdict may differ from its uncached engine, so
//!   two obligations that share a cache key by mistake are caught.

use crate::rng::FuzzRng;
use crate::shrink;
use crate::{Evaluation, FamilyOutcome};
use behav::BinOp;
use hdl::Rtl;
use mc::prop::{BoolExpr, Property};
use mc::Verdict;
use std::collections::HashMap;

/// One random op in the recipe; `kind` selects the shape, operand
/// indices are taken modulo the pool sizes so any recipe builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecipe {
    /// Shape selector (interpreted modulo the number of shapes).
    pub kind: u8,
    /// First operand (pool index).
    pub a: usize,
    /// Second operand (pool index).
    pub b: usize,
    /// Third operand (mux selector; pool index).
    pub c: usize,
}

/// One register: value width class, reset value, and the pool index of
/// its next-state driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegRecipe {
    /// True for a 1-bit register, false for a word register.
    pub bit: bool,
    /// Reset value (masked to the width).
    pub init: u64,
    /// Next-state driver (index into the matching pool, modulo its size).
    pub next: usize,
}

/// One invariant atom: `o<output> <cmp> value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomRecipe {
    /// Output index (modulo the output count).
    pub output: usize,
    /// Comparison selector.
    pub cmp: u8,
    /// Right-hand constant (masked to the word width).
    pub value: u64,
}

/// A full model-checking fuzz case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McCase {
    /// Word width for the value pool (bit pool is always width 1).
    pub word_width: u32,
    /// Registers (at least one).
    pub regs: Vec<RegRecipe>,
    /// Primary inputs (`true` = 1-bit, `false` = word).
    pub inputs: Vec<bool>,
    /// Combinational ops layered over the pools.
    pub ops: Vec<OpRecipe>,
    /// Output drivers (indices into the input-independent word pool).
    pub outputs: Vec<usize>,
    /// Invariant atoms (at least one).
    pub atoms: Vec<AtomRecipe>,
    /// True to AND the atoms, false to OR them.
    pub conjunction: bool,
    /// BMC bound.
    pub bound: u32,
    /// Induction depth.
    pub k: u32,
}

/// Generates one random case under the coverage bias.
pub fn generate(rng: &mut FuzzRng, bias: u64) -> McCase {
    let word_width = 2 + (bias & 1) as u32;
    let regs = (0..rng.range(1, 1 + (bias >> 1 & 1)) + 1)
        .map(|_| RegRecipe {
            bit: rng.chance(1, 4),
            init: rng.below(1 << word_width),
            next: rng.range_usize(0, 40),
        })
        .collect();
    let inputs = (0..rng.range(0, 2)).map(|_| rng.flip()).collect();
    let ops = (0..rng.range(2, 6 + (bias >> 2 & 3)))
        .map(|_| OpRecipe {
            kind: rng.below(8) as u8,
            a: rng.range_usize(0, 40),
            b: rng.range_usize(0, 40),
            c: rng.range_usize(0, 40),
        })
        .collect();
    let outputs = (0..rng.range(1, 3))
        .map(|_| rng.range_usize(0, 40))
        .collect();
    let atoms = (0..rng.range(1, 2 + (bias >> 4 & 1)))
        .map(|_| AtomRecipe {
            output: rng.range_usize(0, 8),
            cmp: rng.below(6) as u8,
            value: rng.below(1 << word_width),
        })
        .collect();
    McCase {
        word_width,
        regs,
        inputs,
        ops,
        outputs,
        atoms,
        conjunction: rng.flip(),
        bound: rng.range(2, 6) as u32,
        k: rng.range(1, 4) as u32,
    }
}

/// Builds the recipe into a netlist and its invariant property.
///
/// Construction is total: every index is reduced modulo its pool, so any
/// recipe (including shrunk ones) yields a well-formed [`Rtl`]. Outputs
/// draw only from input-independent signals, which is what makes the
/// explicit-state ground truth in [`ground_truth_depth`] exact.
pub fn build(case: &McCase) -> (Rtl, Property) {
    let mut rtl = Rtl::new("fuzzed");
    let w = case.word_width;
    // (signal, depends-on-input) pools.
    let mut words: Vec<(hdl::SigId, bool)> = Vec::new();
    let mut bits: Vec<(hdl::SigId, bool)> = Vec::new();
    for v in [0u64, 1, (1 << w) - 1] {
        let c = rtl.constant(v, w);
        words.push((c, false));
    }
    for v in [0u64, 1] {
        let c = rtl.constant(v, 1);
        bits.push((c, false));
    }
    let mut reg_ids = Vec::new();
    for (i, r) in case.regs.iter().enumerate() {
        let width = if r.bit { 1 } else { w };
        let id = rtl.reg(&format!("r{i}"), width, r.init & ((1 << width) - 1));
        reg_ids.push(id);
        if r.bit {
            bits.push((id, false));
        } else {
            words.push((id, false));
        }
    }
    for (i, &bit) in case.inputs.iter().enumerate() {
        let id = rtl.input(&format!("i{i}"), if bit { 1 } else { w });
        if bit {
            bits.push((id, true));
        } else {
            words.push((id, true));
        }
    }
    for op in &case.ops {
        match op.kind % 8 {
            0..=2 => {
                let bin = [BinOp::Add, BinOp::Sub, BinOp::Xor][(op.kind % 8) as usize];
                let (a, da) = words[op.a % words.len()];
                let (b, db) = words[op.b % words.len()];
                let id = rtl.binary(bin, a, b);
                words.push((id, da || db));
            }
            3 => {
                let bin = [BinOp::And, BinOp::Or][op.a % 2];
                let (a, da) = words[op.a % words.len()];
                let (b, db) = words[op.b % words.len()];
                let id = rtl.binary(bin, a, b);
                words.push((id, da || db));
            }
            4 => {
                let (s, ds) = bits[op.c % bits.len()];
                let (a, da) = words[op.a % words.len()];
                let (b, db) = words[op.b % words.len()];
                let id = rtl.mux(s, a, b);
                words.push((id, ds || da || db));
            }
            5 => {
                let cmp = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Ge][op.c % 4];
                let (a, da) = words[op.a % words.len()];
                let (b, db) = words[op.b % words.len()];
                let id = rtl.binary(cmp, a, b);
                bits.push((id, da || db));
            }
            6 => {
                let bin = [BinOp::And, BinOp::Or, BinOp::Xor][op.c % 3];
                let (a, da) = bits[op.a % bits.len()];
                let (b, db) = bits[op.b % bits.len()];
                let id = rtl.binary(bin, a, b);
                bits.push((id, da || db));
            }
            _ => {
                let (a, da) = words[op.a % words.len()];
                let id = rtl.not(a);
                words.push((id, da));
            }
        }
    }
    for (i, r) in case.regs.iter().enumerate() {
        let pool = if r.bit { &bits } else { &words };
        let (next, _) = pool[r.next % pool.len()];
        rtl.set_next(reg_ids[i], next);
    }
    // Outputs: input-independent word signals only (constants guarantee
    // the candidate list is never empty).
    let free: Vec<hdl::SigId> = words
        .iter()
        .filter(|&&(_, d)| !d)
        .map(|&(s, _)| s)
        .collect();
    for (i, &sel) in case.outputs.iter().enumerate() {
        rtl.output(&format!("o{i}"), free[sel % free.len()]);
    }
    let n_out = case.outputs.len().max(1);
    let mut expr: Option<BoolExpr> = None;
    for atom in &case.atoms {
        let name = format!("o{}", atom.output % n_out);
        let value = atom.value & ((1 << w) - 1);
        let a = match atom.cmp % 6 {
            0 => BoolExpr::eq(&name, value),
            1 => BoolExpr::ne(&name, value),
            2 => BoolExpr::lt(&name, value),
            3 => BoolExpr::le(&name, value),
            4 => BoolExpr::gt(&name, value),
            _ => BoolExpr::ge(&name, value),
        };
        expr = Some(match expr {
            None => a,
            Some(e) if case.conjunction => BoolExpr::and(e, a),
            Some(e) => BoolExpr::or(e, a),
        });
    }
    let prop = Property::invariant("fuzzed", expr.expect("at least one atom"));
    (rtl, prop)
}

/// All input assignments of the netlist, as flat vectors.
fn input_space(rtl: &Rtl) -> Vec<Vec<u64>> {
    let widths: Vec<u32> = rtl.inputs().iter().map(|&i| rtl.width(i)).collect();
    let mut combos = vec![Vec::new()];
    for w in widths {
        let mut next = Vec::new();
        for c in &combos {
            for v in 0..(1u64 << w) {
                let mut c = c.clone();
                c.push(v);
                next.push(c);
            }
        }
        combos = next;
    }
    combos
}

/// Whether the invariant holds on the outputs produced in `state`
/// (outputs are input-independent, so any input vector works).
fn holds_in_state(rtl: &Rtl, prop: &Property, state: &[u64], inputs: &[u64]) -> bool {
    let (out_values, _) = rtl.step(inputs, state);
    let frame: Vec<(String, u64)> = rtl
        .outputs()
        .iter()
        .zip(out_values)
        .map(|((name, _), v)| (name.clone(), v))
        .collect();
    prop.holds_on_trace(&[frame])
}

/// Explicit-state BFS ground truth: the earliest cycle at which some
/// reachable state violates the invariant, or `None` if none does.
pub fn ground_truth_depth(rtl: &Rtl, prop: &Property) -> Option<u64> {
    let inputs = input_space(rtl);
    let zero_inputs = &inputs[0];
    let mut depth: HashMap<Vec<u64>, u64> = HashMap::new();
    let mut frontier = vec![rtl.reset_state()];
    depth.insert(frontier[0].clone(), 0);
    let mut violation: Option<u64> = None;
    let mut d = 0u64;
    while !frontier.is_empty() {
        for state in &frontier {
            if violation.is_none() && !holds_in_state(rtl, prop, state, zero_inputs) {
                violation = Some(d);
            }
        }
        if violation.is_some() {
            return violation;
        }
        let mut next_frontier = Vec::new();
        for state in &frontier {
            for iv in &inputs {
                let (_, next) = rtl.step(iv, state);
                if !depth.contains_key(&next) {
                    depth.insert(next.clone(), d + 1);
                    next_frontier.push(next);
                }
            }
        }
        frontier = next_frontier;
        d += 1;
    }
    None
}

/// Replays a BMC counterexample trace through the concrete simulator and
/// the property evaluator; returns a complaint if anything mismatches.
fn validate_trace(rtl: &Rtl, prop: &Property, trace: &mc::CexTrace) -> Option<String> {
    if trace.is_empty() {
        return Some("violation trace is empty".into());
    }
    let mut state = rtl.reset_state();
    for (cycle, frame) in trace.frames.iter().enumerate() {
        if frame.state != state {
            return Some(format!(
                "trace state diverges from Rtl::step at cycle {cycle}"
            ));
        }
        let (out_values, next) = rtl.step(&frame.inputs, &state);
        let expect: Vec<(String, u64)> = rtl
            .outputs()
            .iter()
            .zip(out_values)
            .map(|((name, _), v)| (name.clone(), v))
            .collect();
        if frame.outputs != expect {
            return Some(format!(
                "trace outputs diverge from Rtl::step at cycle {cycle}"
            ));
        }
        state = next;
    }
    let frames: Vec<Vec<(String, u64)>> = trace.frames.iter().map(|f| f.outputs.clone()).collect();
    if prop.holds_on_trace(&frames) {
        return Some("violation trace satisfies the property it claims to refute".into());
    }
    None
}

/// Where the reach, BMC and induction verdicts on a case contradict its
/// BFS truth. Reach is exact; BMC must find exactly the earliest
/// violation depth within `bound`, with a concretely replayable trace;
/// induction may be incomplete but never unsound.
fn truth_disagreement(
    rtl: &Rtl,
    prop: &Property,
    bound: u32,
    truth: Option<u64>,
    [reach, bmc, ind]: [&Verdict; 3],
) -> Option<String> {
    match (reach, truth) {
        (Verdict::Proven, None) | (Verdict::Violated(_), Some(_)) => {}
        _ => {
            return Some(format!(
                "reach said {reach:?} but BFS ground truth is depth {truth:?}"
            ))
        }
    }
    match (bmc, truth) {
        (Verdict::Violated(trace), Some(d)) if d <= u64::from(bound) => {
            if trace.len() as u64 != d + 1 {
                return Some(format!(
                    "bmc trace has {} frames but earliest violation depth is {d}",
                    trace.len()
                ));
            }
            if let Some(msg) = validate_trace(rtl, prop, trace) {
                return Some(format!("bmc {msg}"));
            }
        }
        (Verdict::NoViolationUpTo(b), t) if *b == bound => {
            if let Some(d) = t.filter(|&d| d <= u64::from(bound)) {
                return Some(format!(
                    "bmc missed a depth-{d} violation within bound {bound}"
                ));
            }
        }
        _ => {
            return Some(format!(
                "bmc said {bmc:?} against truth {truth:?} at bound {bound}"
            ))
        }
    }
    match ind {
        Verdict::Proven if truth.is_some() => Some(format!(
            "induction proved a property violated at depth {truth:?}"
        )),
        Verdict::Proven | Verdict::Unknown(_) => None,
        Verdict::Violated(_) if truth.is_none() => {
            Some("induction refuted a true invariant".into())
        }
        Verdict::Violated(trace) => {
            validate_trace(rtl, prop, trace).map(|msg| format!("induction {msg}"))
        }
        other => Some(format!("induction returned {other:?}")),
    }
}

/// Runs every engine on the case and cross-checks against the BFS truth.
pub fn evaluate(case: &McCase) -> Evaluation {
    let (rtl, prop) = build(case);
    let truth = ground_truth_depth(&rtl, &prop);
    let mut counters = vec![
        u64::from(rtl.state_bits()),
        rtl.num_nodes() as u64,
        truth.map_or(0, |d| d + 1),
    ];
    let fail = |msg: String, counters: Vec<u64>| Evaluation {
        disagreement: Some(msg),
        counters,
    };

    // BMC runs instrumented here and plain below; both must agree.
    let reach = mc::reach::check(&rtl, &prop);
    let collector = telemetry::Collector::shared();
    let instr: telemetry::SharedInstrument = collector.clone();
    let unbounded = exec::Effort::unbounded();
    let bmc = mc::bmc::check_budgeted(&rtl, &prop, case.bound, &unbounded, &instr, cache::noop());
    counters.push(collector.counter("bmc.sat_calls"));
    counters.push(collector.counter("sat.conflicts"));
    let ind = mc::induction::check(&rtl, &prop, case.k);
    if let Some(msg) = truth_disagreement(&rtl, &prop, case.bound, truth, [&reach, &bmc, &ind]) {
        return fail(msg, counters);
    }

    // Plain (uninstrumented) BMC must agree with the instrumented run.
    let plain = mc::bmc::check(&rtl, &prop, case.bound);
    if plain != bmc {
        return fail("instrumented and plain bmc disagree".into(), counters);
    }

    // Cached cold run then warm run: both must equal the uncached verdict.
    let store = cache::ObligationCache::new();
    let cold = mc::bmc::check_cached(&rtl, &prop, case.bound, &telemetry::noop(), &store);
    let warm = mc::bmc::check_cached(&rtl, &prop, case.bound, &telemetry::noop(), &store);
    if cold != bmc || warm != bmc {
        return fail(
            "cached bmc verdict diverges from the uncached engine".into(),
            counters,
        );
    }
    if store.stats().hits != 1 {
        return fail(
            "warm cached bmc rerun did not hit the cache".into(),
            counters,
        );
    }

    if let Some(msg) = cross_case_disagreement(case, &cache::ObligationCache::new()) {
        return fail(msg, counters);
    }

    Evaluation {
        disagreement: None,
        counters,
    }
}

/// The case's sibling, one deterministic edit away: a register's reset
/// value, an op's kind, or an atom's value, picked from the recipe
/// itself. Each edit survives [`build`]'s masking, so the sibling is a
/// different obligation (whether or not it behaves differently).
fn sibling(case: &McCase) -> McCase {
    let mut sib = case.clone();
    let pick = case.bound as usize + case.k as usize + case.ops.len();
    match pick % 3 {
        1 if !sib.ops.is_empty() => {
            let i = pick % sib.ops.len();
            sib.ops[i].kind = sib.ops[i].kind.wrapping_add(1) % 8;
        }
        2 => {
            let i = pick % sib.atoms.len();
            sib.atoms[i].value ^= 1;
        }
        _ => {
            let i = pick % sib.regs.len();
            sib.regs[i].init ^= 1;
        }
    }
    sib
}

/// Reach, BMC and induction through `store`, in that order.
fn cached_verdicts(
    rtl: &Rtl,
    prop: &Property,
    case: &McCase,
    store: &cache::ObligationCache,
) -> [Verdict; 3] {
    let noop = telemetry::noop();
    [
        mc::reach::check_cached(rtl, prop, &noop, store),
        mc::bmc::check_cached(rtl, prop, case.bound, &noop, store),
        mc::induction::check_cached(rtl, prop, case.k, &noop, store),
    ]
}

/// Runs the case and then its one-edit sibling through one shared
/// `store`. Each must agree with its own BFS truth, and every cached
/// verdict must equal the same engine's uncached one. A cache key that
/// merged the two obligations would hand the sibling the case's verdict,
/// and this check would report it.
fn cross_case_disagreement(case: &McCase, store: &cache::ObligationCache) -> Option<String> {
    for (who, c) in [("case", case), ("sibling", &sibling(case))] {
        let (rtl, prop) = build(c);
        let uncached = cached_verdicts(&rtl, &prop, c, cache::noop());
        let truth = ground_truth_depth(&rtl, &prop);
        if let Some(msg) = truth_disagreement(&rtl, &prop, c.bound, truth, uncached.each_ref()) {
            return Some(format!("{who}: {msg}"));
        }
        let cached = cached_verdicts(&rtl, &prop, c, store);
        for (engine, (got, want)) in ["reach", "bmc", "induction"]
            .into_iter()
            .zip(cached.iter().zip(&uncached))
        {
            if got != want {
                return Some(format!(
                    "cached {engine} verdict on the {who} ({got:?}) differs from the uncached \
                     engine ({want:?}) on a cache shared with its one-edit sibling"
                ));
            }
        }
    }
    None
}

fn shrink_candidates(case: &McCase) -> Vec<McCase> {
    let mut out = Vec::new();
    // Drop trailing ops first: indices are modular, so the build stays
    // total, but smaller recipes read better.
    if !case.ops.is_empty() {
        let mut c = case.clone();
        c.ops.pop();
        out.push(c);
    }
    for i in 0..case.ops.len() {
        let mut c = case.clone();
        c.ops.remove(i);
        out.push(c);
    }
    if case.outputs.len() > 1 {
        for i in 0..case.outputs.len() {
            let mut c = case.clone();
            c.outputs.remove(i);
            out.push(c);
        }
    }
    if case.atoms.len() > 1 {
        for i in 0..case.atoms.len() {
            let mut c = case.clone();
            c.atoms.remove(i);
            out.push(c);
        }
    }
    if case.regs.len() > 1 {
        let mut c = case.clone();
        c.regs.pop();
        out.push(c);
    }
    if !case.inputs.is_empty() {
        let mut c = case.clone();
        c.inputs.pop();
        out.push(c);
    }
    if case.bound > 1 {
        let mut c = case.clone();
        c.bound -= 1;
        out.push(c);
    }
    if case.k > 1 {
        let mut c = case.clone();
        c.k -= 1;
        out.push(c);
    }
    out
}

/// One fuzz iteration: generate, evaluate, shrink on disagreement.
pub(crate) fn run_one(rng: &mut FuzzRng, bias: u64) -> FamilyOutcome {
    let case = generate(rng, bias);
    let eval = evaluate(&case);
    let failure = eval.disagreement.map(|detail| {
        let min = shrink::minimize(case, 400, shrink_candidates, |c| {
            evaluate(c).disagreement.is_some()
        });
        let (rtl, prop) = build(&min);
        crate::Failure {
            detail,
            minimized: format!("{min:?}\n{rtl}\nproperty: {prop:?}"),
        }
    });
    FamilyOutcome {
        counters: eval.counters,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_matches_reach_on_the_doc_counter() {
        // The mod-5 counter from the mc crate docs: q ≤ 4 proven, q ≠ 3
        // violated at depth 3.
        let mut rtl = Rtl::new("mod5");
        let q = rtl.reg("q", 3, 0);
        let one = rtl.constant(1, 3);
        let four = rtl.constant(4, 3);
        let zero = rtl.constant(0, 3);
        let inc = rtl.binary(BinOp::Add, q, one);
        let at_max = rtl.binary(BinOp::Eq, q, four);
        let next = rtl.mux(at_max, zero, inc);
        rtl.set_next(q, next);
        rtl.output("q", q);
        let good = Property::invariant("bounded", BoolExpr::le("q", 4));
        let bad = Property::invariant("never3", BoolExpr::ne("q", 3));
        assert_eq!(ground_truth_depth(&rtl, &good), None);
        assert_eq!(ground_truth_depth(&rtl, &bad), Some(3));
    }

    #[test]
    fn random_recipes_build_and_agree() {
        let mut rng = FuzzRng::new(7);
        for bias in 0..25u64 {
            let case = generate(&mut rng, bias);
            let eval = evaluate(&case);
            assert_eq!(eval.disagreement, None, "case {case:?}");
        }
    }

    #[test]
    fn a_key_shared_with_the_sibling_is_caught() {
        // A case whose sibling some engine decides differently.
        let mut rng = FuzzRng::new(3);
        let case = (0..200u64)
            .map(|bias| generate(&mut rng, bias))
            .find(|case| {
                let sib = sibling(case);
                let ((rtl, prop), (srtl, sprop)) = (build(case), build(&sib));
                cached_verdicts(&rtl, &prop, case, cache::noop())
                    != cached_verdicts(&srtl, &sprop, &sib, cache::noop())
            })
            .expect("some sibling behaves differently");
        assert_eq!(
            cross_case_disagreement(&case, &cache::ObligationCache::new()),
            None
        );

        // Plant the case's payloads under the sibling's keys: exactly
        // what a key too coarse to tell the two apart would do.
        let donor = cache::ObligationCache::new();
        let (rtl, prop) = build(&case);
        cached_verdicts(&rtl, &prop, &case, &donor);
        let sib = sibling(&case);
        let (srtl, sprop) = build(&sib);
        let poisoned = cache::ObligationCache::new();
        let bound = [u64::from(case.bound)];
        let k = [u64::from(case.k)];
        for (engine, params) in [
            ("reach", &[][..]),
            ("bmc", &bound[..]),
            ("induction", &k[..]),
        ] {
            let key = |rtl: &Rtl, prop: &Property| {
                mc::obligation::Sources {
                    engine,
                    params,
                    netlists: &[rtl],
                    property: Some(prop),
                }
                .key()
            };
            let payload = donor.lookup(key(&rtl, &prop)).expect("the case's verdict");
            poisoned.insert(key(&srtl, &sprop), payload);
        }
        let caught = cross_case_disagreement(&case, &poisoned).expect("the poisoned key fires");
        assert!(caught.contains("sibling"), "{caught}");
    }

    #[test]
    fn a_planted_wrong_truth_shrinks() {
        // Force a failing predicate ("BFS finds any violation") and check
        // the shrinker still produces a buildable, smaller recipe.
        let mut rng = FuzzRng::new(11);
        let mut case = None;
        for bias in 0..200u64 {
            let c = generate(&mut rng, bias);
            let (rtl, prop) = build(&c);
            if ground_truth_depth(&rtl, &prop).is_some() {
                case = Some(c);
                break;
            }
        }
        let case = case.expect("some generated case violates its invariant");
        let min = shrink::minimize(case.clone(), 400, shrink_candidates, |c| {
            let (rtl, prop) = build(c);
            ground_truth_depth(&rtl, &prop).is_some()
        });
        let (rtl, prop) = build(&min);
        assert!(ground_truth_depth(&rtl, &prop).is_some());
        assert!(min.ops.len() <= case.ops.len());
    }
}
