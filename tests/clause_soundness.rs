//! Property tests for the lemma pool's soundness contract.
//!
//! The lemma pool (DESIGN.md §16) rests on two facts:
//!
//! 1. **Every exported clause is entailed by the formula it was learnt
//!    from.** Learnt clauses are resolvents of the permanent clause set
//!    — assumptions enter the search as decisions, never clauses — so
//!    `cnf ∧ ¬c` must be unsatisfiable for every export `c`. Checked
//!    here by brute-force enumeration.
//! 2. **Imports never change an answer.** Seeding a solver with entailed
//!    clauses at decision level 0 may change effort, never the verdict,
//!    and any model produced still satisfies the original clauses.

use proptest::prelude::*;
use symbad_suite::testkit::{brute_force_sat, solver_from_clauses};

/// A small random CNF as (num_vars, clauses of (var index, polarity)).
fn cnf_strategy() -> impl Strategy<Value = (usize, Vec<Vec<(usize, bool)>>)> {
    (3usize..=8).prop_flat_map(|n| {
        let clause = proptest::collection::vec((0..n, any::<bool>()), 1..=3);
        let clauses = proptest::collection::vec(clause, 2..=24);
        (Just(n), clauses)
    })
}

/// Does every model of the CNF satisfy `clause`? (Entailment by
/// enumeration; vacuously true for UNSAT formulas.)
fn entailed(n: usize, clauses: &[Vec<(usize, bool)>], clause: &[sat::Lit]) -> bool {
    (0u32..(1u32 << n)).all(|bits| {
        let is_model = clauses
            .iter()
            .all(|c| c.iter().any(|&(v, pos)| (bits >> v & 1 == 1) == pos));
        !is_model
            || clause
                .iter()
                .any(|&l| (bits >> l.var().index() & 1 == 1) == l.is_positive())
    })
}

/// Solves with a permissive collector share attached (plus a few
/// assumption-pinned re-solves to stir extra conflicts), returning the
/// verdict of the plain solve and every exported clause.
fn solve_collecting(n: usize, clauses: &[Vec<(usize, bool)>]) -> (bool, Vec<Vec<sat::Lit>>) {
    let (mut solver, vars) = solver_from_clauses(n, clauses);
    solver.set_share(sat::SolverShare::collector(
        sat::ShareFilter::permissive(16),
        1024,
    ));
    let verdict = solver.solve().is_sat();
    for round in 0..4u32 {
        let assumptions: Vec<sat::Lit> = vars
            .iter()
            .enumerate()
            .filter(|(i, _)| (round >> (i % 3)) & 1 == 0)
            .map(|(i, &v)| sat::Lit::with_polarity(v, (round as usize + i).is_multiple_of(2)))
            .collect();
        solver.solve_under_assumptions(&assumptions);
    }
    let share = solver.take_share().expect("collector share is attached");
    (verdict, share.into_pool_exports())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_exported_clause_is_entailed((n, clauses) in cnf_strategy()) {
        let (_, exports) = solve_collecting(n, &clauses);
        for clause in &exports {
            prop_assert!(
                entailed(n, &clauses, clause),
                "export {:?} is not entailed by {:?}",
                clause,
                clauses
            );
        }
    }

    #[test]
    fn imports_never_change_the_verdict_or_break_the_model((n, clauses) in cnf_strategy()) {
        let expected = brute_force_sat(n, &clauses);
        let (verdict, exports) = solve_collecting(n, &clauses);
        prop_assert_eq!(verdict, expected);

        // Direct level-0 imports of the exports.
        let (mut seeded, svars) = solver_from_clauses(n, &clauses);
        for clause in &exports {
            if seeded.import_clause(clause) == sat::ImportResult::Conflict {
                break;
            }
        }
        prop_assert_eq!(seeded.solve().is_sat(), expected);
        if expected {
            for c in &clauses {
                let satisfied = c.iter().any(|&(v, pos)| seeded.value(svars[v]) == Some(pos));
                prop_assert!(satisfied, "seeded model violates {:?}", c);
            }
        }
    }
}
