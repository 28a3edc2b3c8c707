//! The lemma-pool oracle family: every clause a solver exports must be
//! entailed by the formula it was learnt from, and no import may ever
//! change an answer.
//!
//! Each iteration runs three sub-cases:
//!
//! **Small case** (the SAT family's planted generator, ≤ 14 vars): one
//! solver carries a [`sat::SolverShare`] collector across the cold solve
//! plus repeated assumption-pinned re-solves (assumptions enter the
//! search as decisions, never clauses, so every export is entailed by
//! the CNF alone). The legs:
//!
//! 1. **Entailment**: brute force proves `cnf ∧ ¬c` UNSAT for every
//!    exported clause `c` — the ground truth the lemma pool rests on.
//! 2. **Seeded re-solve**: a fresh solver seeded at decision level 0 via
//!    [`sat::Solver::import_clause`] under a randomized import budget
//!    agrees with the planted expectation and the cold verdict, and any
//!    model satisfies the original clauses.
//!
//! **Chained cases**: a sequence of small planted cases solved through
//! ONE share handle (mirroring the cross-obligation lemma pool, where a
//! long-lived pool sees many obligations). The share's export counter
//! persists across solves, so the chain reliably walks past the
//! `share-mutant` corruption stride of 64 even though each small case
//! only learns a handful of clauses. Every export is attributed to the
//! case that produced it (pool-export list segments) and checked against
//! that case's *enumerated model set* — exact entailment, no sampling —
//! so a corrupt export is caught wherever in the stream it lands.
//!
//! **Conflict-rich case**: planted random 3-XOR-SAT (satisfiable by
//! construction, resolution-hard), where a single solve learns well
//! past the `share-mutant` corruption stride of 64. Every export must
//! be satisfied by the planted model and by the cold solver's own
//! (directly validated) model — necessary conditions of entailment —
//! and a fresh share-free solver hunts a witness model of `cnf ∧ ¬c`
//! for each early export under a conflict budget; a found witness is
//! re-validated against the clauses before it is flagged, so a flag is
//! irrefutable evidence of a non-entailed export. Entailment on an
//! *unsatisfiable* formula is vacuous, so only a satisfiable
//! conflict-rich family can catch export corruption at volume.
//!
//! With `--features share-mutant` the exporter flips one literal in
//! every 64th offered clause; the conflict-rich legs catch the
//! non-entailed clause within the first few iterations, and the small
//! case's legs 1–2 guard the seeding path.

use crate::rng::FuzzRng;
use crate::sat_fuzz::{self, CnfCase};
use crate::shrink;
use crate::{Evaluation, FamilyOutcome};
use sat::{Lit, Solver, Var};

/// Exports to accumulate before the transport/seeding legs run — just
/// past the mutant's corruption stride so at least one flipped clause is
/// in flight whenever the feature is compiled in.
const EXPORT_TARGET: usize = 96;

/// Cap on assumption-pinned solve rounds per iteration (keeps an
/// export-starved case from spinning; the chained-case leg, not this
/// loop, is what crosses the mutant stride).
const MAX_ROUNDS: usize = 6;

fn load_solver(case: &CnfCase) -> (Solver, Vec<Var>) {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..case.num_vars).map(|_| solver.new_var()).collect();
    for clause in &case.clauses {
        solver.add_clause(
            clause
                .iter()
                .map(|&l| Lit::with_polarity(vars[(l.unsigned_abs() - 1) as usize], l > 0)),
        );
    }
    (solver, vars)
}

fn extract_model(solver: &Solver, vars: &[Var]) -> Vec<bool> {
    vars.iter()
        .map(|&v| solver.value(v) == Some(true))
        .collect()
}

/// Is `clause` (solver literals) entailed by the case's CNF? Brute
/// force: `cnf ∧ ¬clause` must have no model. Callers cap `num_vars`.
pub fn brute_force_entailed(case: &CnfCase, clause: &[Lit]) -> bool {
    let num_vars = case.num_vars;
    (0u64..(1u64 << num_vars)).all(|bits| {
        let satisfies_cnf = case.clauses.iter().all(|c| {
            c.iter()
                .any(|&l| (bits >> (l.unsigned_abs() - 1)) & 1 == (l > 0) as u64)
        });
        if !satisfies_cnf {
            return true;
        }
        // Every CNF model must satisfy the clause.
        clause
            .iter()
            .any(|&l| (bits >> l.var().index()) & 1 == l.is_positive() as u64)
    })
}

/// Drives one solver over `rounds` assumption-pinned re-solves with a
/// single collector share, returning the exported pool clauses. The
/// assumptions vary the search (forcing fresh conflicts) but never enter
/// the clause database, so every export is entailed by the CNF alone.
fn collect_exports(
    case: &CnfCase,
    rng: &mut FuzzRng,
    pool_cap: usize,
) -> (Vec<Vec<Lit>>, sat::ShareStats, bool) {
    let (mut solver, vars) = load_solver(case);
    solver.set_share(sat::SolverShare::collector(
        sat::ShareFilter::permissive(16),
        pool_cap,
    ));
    let cold = solver.solve().is_sat();
    let mut rounds = 0;
    while rounds < MAX_ROUNDS {
        rounds += 1;
        let exported = solver
            .take_share()
            .map(|share| {
                let n = share.pool_exports().len();
                solver.set_share(share);
                n
            })
            .unwrap_or(0);
        if exported >= EXPORT_TARGET.min(pool_cap) {
            break;
        }
        let mut assumptions: Vec<Lit> = Vec::with_capacity(vars.len());
        for &v in &vars {
            if rng.chance(60, 100) {
                assumptions.push(Lit::with_polarity(v, rng.flip()));
            }
        }
        solver.solve_under_assumptions(&assumptions);
    }
    let share = solver.take_share().expect("collector share is attached");
    let stats = share.stats();
    (share.into_pool_exports(), stats, cold)
}

/// Runs every small-case leg on `case` and reports the first
/// disagreement.
pub fn evaluate(case: &CnfCase, rng: &mut FuzzRng) -> Evaluation {
    let pool_cap = 64 + rng.below(4) as usize * 64; // 64..=256
    let import_budget = 1 + rng.below(96) as usize; // 1..=96

    let (exports, stats, cold) = collect_exports(case, rng, pool_cap);
    let counters = vec![
        stats.exported,
        stats.export_rejected,
        exports.len() as u64,
        cold as u64,
    ];
    let report = |detail: String| Evaluation {
        disagreement: Some(detail),
        counters: counters.clone(),
    };

    if let Some(expected) = case.expected {
        if cold != expected {
            return report(format!("cold solver says {cold}, planted is {expected}"));
        }
    }

    // Leg 1: every export is entailed by the CNF (brute force).
    if case.num_vars <= 12 {
        for clause in &exports {
            if !brute_force_entailed(case, clause) {
                return report(format!(
                    "exported clause {clause:?} is NOT entailed by the formula"
                ));
            }
        }
    }

    // Leg 2: budget-limited seeding via import_clause at decision level 0;
    // the verdict must not move.
    let (mut seeded, svars) = load_solver(case);
    for clause in exports.iter().take(import_budget) {
        if seeded.import_clause(clause) == sat::ImportResult::Conflict {
            break;
        }
    }
    let sv = seeded.solve().is_sat();
    if sv != cold {
        return report(format!(
            "import-seeded solver (budget {import_budget}) flipped {cold} -> {sv}"
        ));
    }
    if sv {
        let model = extract_model(&seeded, &svars);
        if let Some(ci) = sat_fuzz::violated_clause(&case.clauses, &model) {
            return report(format!("import-seeded model violates clause {ci}"));
        }
    }

    Evaluation {
        disagreement: None,
        counters,
    }
}

/// Export volume the chained-case leg drives the shared handle past —
/// comfortably beyond the mutant's 64-export corruption stride.
const CHAIN_EXPORT_TARGET: u64 = 80;

/// Cap on chained cases per iteration (bounds a chain of
/// export-starved cases).
const MAX_CHAIN_CASES: u64 = 48;

/// Generates one chain link: unplanted random 3-SAT at 10–12 variables
/// near the threshold ratio — small enough to enumerate every model
/// (the exact entailment reference), dense enough that each solve
/// contributes a few learnt exports toward the stride.
fn generate_chain_case(rng: &mut FuzzRng) -> CnfCase {
    let num_vars = 10 + rng.below(3) as usize; // 10, 11, 12
    let num_clauses = num_vars * 4 + rng.below(6) as usize;
    let clauses: Vec<Vec<i64>> = (0..num_clauses)
        .map(|_| {
            let mut vars: Vec<usize> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.range_usize(1, num_vars);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| if rng.flip() { v as i64 } else { -(v as i64) })
                .collect()
        })
        .collect();
    CnfCase {
        num_vars,
        clauses,
        expected: None,
        planted: None,
    }
}

/// Enumerates every model of a small case as variable bitmasks (bit `v`
/// = DIMACS variable `v + 1`). Exponential — callers cap `num_vars`.
fn enumerate_models(case: &CnfCase) -> Vec<u64> {
    (0u64..(1u64 << case.num_vars))
        .filter(|&bits| {
            case.clauses.iter().all(|clause| {
                clause
                    .iter()
                    .any(|&l| (bits >> (l.unsigned_abs() - 1)) & 1 == (l > 0) as u64)
            })
        })
        .collect()
}

/// Drives many small cases through ONE collector share — the
/// cross-obligation idiom — then exactly checks every export against
/// the *enumerated* model set of the case that produced it: an entailed
/// clause is satisfied by every model, so one violating model convicts
/// the export. On a disagreement, the second return value is the
/// convicting case (reported as the witness instance).
pub fn evaluate_chain(rng: &mut FuzzRng) -> (Evaluation, Option<CnfCase>) {
    let mut share = sat::SolverShare::collector(sat::ShareFilter::permissive(16), 4096);
    let mut segments: Vec<(CnfCase, usize)> = Vec::new();
    let mut case_no = 0u64;
    while case_no < MAX_CHAIN_CASES && share.stats().exported < CHAIN_EXPORT_TARGET {
        case_no += 1;
        let case = generate_chain_case(rng);
        let (mut solver, _) = load_solver(&case);
        solver.set_share(share);
        solver.solve();
        share = solver.take_share().expect("collector share is attached");
        segments.push((case, share.pool_exports().len()));
    }
    let stats = share.stats();
    let exports = share.into_pool_exports();
    let counters = vec![stats.exported, exports.len() as u64, case_no];
    let report = |detail: String| Evaluation {
        disagreement: Some(detail),
        counters: counters.clone(),
    };
    let mut start = 0usize;
    for (case, end) in &segments {
        let segment = &exports[start..*end];
        start = *end;
        if segment.is_empty() {
            continue;
        }
        if case.num_vars <= 12 {
            let models = enumerate_models(case);
            for clause in segment {
                let convicting = models.iter().find(|&&m| {
                    !clause
                        .iter()
                        .any(|&l| (m >> l.var().index()) & 1 == l.is_positive() as u64)
                });
                if let Some(m) = convicting {
                    return (
                        report(format!(
                            "chained export {clause:?} is NOT entailed (model {m:#x} violates it)"
                        )),
                        Some(case.clone()),
                    );
                }
            }
        } else if let Some(planted) = &case.planted {
            for clause in segment {
                let satisfied = clause
                    .iter()
                    .any(|&l| planted[l.var().index()] == l.is_positive());
                if !satisfied {
                    return (
                        report(format!(
                            "chained export {clause:?} is NOT entailed (planted model violates it)"
                        )),
                        Some(case.clone()),
                    );
                }
            }
        }
    }
    (
        Evaluation {
            disagreement: None,
            counters,
        },
        None,
    )
}

/// Generates the conflict-rich sub-case: planted random 3-XOR-SAT. A
/// consistent GF(2) system (parities computed from a planted model, so
/// the case is satisfiable *by construction*) is Tseitin-encoded into 4
/// clauses per equation. XOR systems are resolution-hard, so CDCL
/// learns hundreds of clauses — far past the mutant's 64-export stride
/// — while the planted model keeps entailment checkable: entailment on
/// an UNSAT formula would be vacuous.
pub fn generate_hard(rng: &mut FuzzRng) -> CnfCase {
    let num_vars = 176 + rng.below(3) as usize * 16; // 176, 192, 208
    let num_eqs = num_vars * 108 / 100 + rng.below(num_vars as u64 / 16) as usize;
    let model: Vec<bool> = (0..num_vars).map(|_| rng.flip()).collect();
    let mut clauses: Vec<Vec<i64>> = Vec::with_capacity(num_eqs * 4);
    for _ in 0..num_eqs {
        let mut vars: Vec<usize> = Vec::with_capacity(3);
        while vars.len() < 3 {
            let v = rng.range_usize(1, num_vars);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let parity = vars.iter().fold(false, |acc, &v| acc ^ model[v - 1]);
        // a ⊕ b ⊕ c = parity: one clause per falsifying assignment.
        for assign in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| assign >> i & 1 == 1).collect();
            if bits.iter().fold(false, |acc, &b| acc ^ b) != parity {
                clauses.push(
                    vars.iter()
                        .zip(&bits)
                        .map(|(&v, &b)| if b { -(v as i64) } else { v as i64 })
                        .collect(),
                );
            }
        }
    }
    CnfCase {
        num_vars,
        clauses,
        expected: Some(true),
        planted: Some(model),
    }
}

/// Exact-entailment checks to run per conflict-rich iteration. Covers
/// the mutant's first corruption point (export 64) with headroom.
const HARD_CHECKS: usize = 80;

/// Conflict budget per entailment witness hunt; an exhausted hunt is
/// skipped (never flagged), so the budget bounds cost, not soundness.
const HARD_CHECK_CONFLICTS: u64 = 2000;

/// Drives the conflict-rich legs: collect a high-volume export stream
/// from one solve, then attack every export's entailment.
pub fn evaluate_hard(case: &CnfCase) -> Evaluation {
    let (mut solver, vars) = load_solver(case);
    solver.set_share(sat::SolverShare::collector(
        sat::ShareFilter::permissive(32),
        512,
    ));
    let verdict = solver.solve().is_sat();
    let share = solver.take_share().expect("collector share is attached");
    let stats = share.stats();
    let exports = share.into_pool_exports();
    let counters = vec![
        stats.exported,
        stats.export_rejected,
        exports.len() as u64,
        solver.conflicts(),
        verdict as u64,
    ];
    let report = |detail: String| Evaluation {
        disagreement: Some(detail),
        counters: counters.clone(),
    };
    if let Some(expected) = case.expected {
        if verdict != expected {
            return report(format!(
                "hard-case solver says {verdict}, planted expectation is {expected}"
            ));
        }
    }
    if !verdict {
        // Entailment under an UNSAT formula is vacuous — nothing to check.
        return Evaluation {
            disagreement: None,
            counters,
        };
    }
    let model = extract_model(&solver, &vars);
    if let Some(ci) = sat_fuzz::violated_clause(&case.clauses, &model) {
        return report(format!("hard-case solver model violates clause {ci}"));
    }
    // Necessary condition: every model of the CNF satisfies every
    // entailed clause, so an export violated by the solver's own model
    // or by the planted model cannot be entailed.
    let mut witnesses: Vec<&Vec<bool>> = vec![&model];
    if let Some(planted) = &case.planted {
        witnesses.push(planted);
    }
    for clause in &exports {
        for m in &witnesses {
            let satisfied = clause
                .iter()
                .any(|&l| m[l.var().index()] == l.is_positive());
            if !satisfied {
                return report(format!(
                    "exported clause {clause:?} is NOT entailed (a known model violates it)"
                ));
            }
        }
    }
    // Exact condition, witness-verified: hunt a model of cnf ∧ ¬c on a
    // fresh share-free solver. Any hit is double-checked against the
    // original clauses before flagging, so false alarms are impossible.
    let (mut checker, cvars) = load_solver(case);
    let effort = exec::Effort {
        sat_conflicts: Some(HARD_CHECK_CONFLICTS),
        sat_decisions: None,
        bdd_nodes: None,
    };
    for clause in exports.iter().take(HARD_CHECKS) {
        let negated: Vec<Lit> = clause.iter().map(|&l| !l).collect();
        if let Some(result) = checker.solve_budgeted(&negated, &effort).decided() {
            if result.is_sat() {
                let witness = extract_model(&checker, &cvars);
                let violates_export = !clause
                    .iter()
                    .any(|&l| witness[l.var().index()] == l.is_positive());
                if sat_fuzz::violated_clause(&case.clauses, &witness).is_none() && violates_export {
                    return report(format!(
                        "exported clause {clause:?} is NOT entailed (witness model found)"
                    ));
                }
            }
        }
    }
    Evaluation {
        disagreement: None,
        counters,
    }
}

/// One fuzz iteration: run the small-case legs, the chained-case leg,
/// and the conflict-rich legs; shrink (or report the convicting witness
/// for) whichever disagreed first. The shrink predicates re-run their
/// leg with a fresh deterministic RNG (derived from the case shape) so
/// reductions are reproducible.
pub(crate) fn run_one(rng: &mut FuzzRng, bias: u64) -> FamilyOutcome {
    let case = sat_fuzz::generate(rng, bias);
    let eval = evaluate(&case, rng);
    let (chain_eval, chain_case) = evaluate_chain(rng);
    let hard_case = generate_hard(rng);
    let hard_eval = evaluate_hard(&hard_case);
    let mut counters = eval.counters;
    counters.extend_from_slice(&chain_eval.counters);
    counters.extend_from_slice(&hard_eval.counters);
    let failure = if let Some(detail) = eval.disagreement {
        let still_fails = |c: &CnfCase| {
            let mut r = FuzzRng::new(c.clauses.len() as u64 ^ (c.num_vars as u64) << 32);
            evaluate(c, &mut r).disagreement.is_some()
        };
        let minimized = shrink::minimize(case, 500, sat_fuzz::shrink_candidates, still_fails);
        Some(crate::Failure {
            detail,
            minimized: sat_fuzz::render(&minimized),
        })
    } else if let Some(detail) = chain_eval.disagreement {
        // The chain disagreement already names the non-entailed clause
        // and its violating model; the convicting case is the witness
        // instance (re-deriving the exact export stream during shrinking
        // would need the whole chain replayed, so it is reported whole).
        Some(crate::Failure {
            detail,
            minimized: chain_case
                .as_ref()
                .map(sat_fuzz::render)
                .unwrap_or_default(),
        })
    } else if let Some(detail) = hard_eval.disagreement {
        let still_fails = |c: &CnfCase| evaluate_hard(c).disagreement.is_some();
        let minimized = shrink::minimize(hard_case, 200, sat_fuzz::shrink_candidates, still_fails);
        Some(crate::Failure {
            detail,
            minimized: sat_fuzz::render(&minimized),
        })
    } else {
        None
    };
    FamilyOutcome { counters, failure }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entailment_oracle_accepts_and_rejects_correctly() {
        let case = CnfCase {
            num_vars: 3,
            clauses: vec![vec![1, 2], vec![-2, 3]],
            expected: None,
            planted: None,
        };
        let lit =
            |l: i64| Lit::with_polarity(Var::from_index((l.unsigned_abs() - 1) as usize), l > 0);
        // (1 ∨ 2) ∧ (¬2 ∨ 3) entails (1 ∨ 2) and the resolvent (1 ∨ 3).
        assert!(brute_force_entailed(&case, &[lit(1), lit(2)]));
        assert!(brute_force_entailed(&case, &[lit(1), lit(3)]));
        // It does not entail the unit 3.
        assert!(!brute_force_entailed(&case, &[lit(3)]));
    }

    #[test]
    #[cfg(not(any(feature = "sat-mutant", feature = "share-mutant")))]
    fn healthy_sharing_legs_agree_on_generated_cases() {
        let mut r = FuzzRng::new(77);
        for i in 0..12 {
            let case = sat_fuzz::generate(&mut r, i * 997);
            let eval = evaluate(&case, &mut r);
            assert_eq!(eval.disagreement, None, "case {case:?}");
            assert!(!eval.counters.is_empty());
        }
    }

    #[test]
    #[cfg(not(any(feature = "sat-mutant", feature = "share-mutant")))]
    fn chained_cases_cross_the_mutant_export_stride() {
        // The chained-case leg must actually walk the shared handle past
        // the mutant's 64-export stride, or the share-mutant gate is
        // toothless.
        let mut r = FuzzRng::new(3);
        for i in 0..4 {
            let (eval, case) = evaluate_chain(&mut r);
            assert_eq!(eval.disagreement, None);
            assert!(case.is_none());
            assert!(
                eval.counters[0] >= 64,
                "chain {i} only offered {} exports",
                eval.counters[0]
            );
        }
    }

    #[test]
    #[cfg(not(any(feature = "sat-mutant", feature = "share-mutant")))]
    fn hard_cases_are_conflict_rich() {
        let mut r = FuzzRng::new(3);
        let mut best = 0u64;
        for _ in 0..3 {
            let case = generate_hard(&mut r);
            let eval = evaluate_hard(&case);
            assert_eq!(eval.disagreement, None);
            best = best.max(eval.counters[0]);
        }
        assert!(best >= 32, "best hard run only offered {best} clauses");
    }
}
