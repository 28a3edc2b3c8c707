//! Deterministic cube-and-conquer fallback for budget-exhausted queries.
//!
//! When a budgeted solve runs out of `Effort` without a verdict, the
//! caller can split the search space on the solver's highest-activity
//! unassigned variables: `k` split variables yield `2^k` *cubes*
//! (complete sign assignments to the split set), each solved in index
//! order by a fresh solver with the full budget.
//!
//! The verdict is taken in cube index order: the first `Sat` cube (by
//! index) wins with its model; `Unsat` only when *every* cube decided
//! `Unsat`; otherwise the split is still exhausted and the caller keeps
//! its `Unknown` verdict. A `Sat` short-circuit past exhausted
//! lower-index cubes is sound — satisfiability of one cube settles the
//! formula no matter what the others would have said.

use crate::solver::{BudgetedResult, Cnf, SolveResult, Solver};
use crate::types::{Lit, Var};

/// Outcome of a cube-and-conquer attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeReport {
    /// The merged verdict, or `None` when at least one cube also
    /// exhausted its budget (and none decided `Sat`).
    pub verdict: Option<SolveResult>,
    /// How many cubes were solved (0 when no split happened).
    pub cubes: usize,
    /// A full model when the verdict is `Sat`, indexed by variable.
    pub model: Option<Vec<bool>>,
}

fn snapshot_model(solver: &Solver, num_vars: usize) -> Vec<bool> {
    (0..num_vars)
        .map(|i| solver.value(Var::from_index(i)) == Some(true))
        .collect()
}

/// Splits `cnf` on `split_on` and conquers the cubes in index order,
/// merging their verdicts. Each cube is a fresh solver run under
/// `effort` with the cube literals as assumptions, so the per-call cost
/// is bounded by `2^k · effort`.
pub fn conquer(cnf: &Cnf, split_on: &[Var], effort: &exec::Effort) -> CubeReport {
    if split_on.is_empty() {
        return CubeReport {
            verdict: None,
            cubes: 0,
            model: None,
        };
    }
    let k = split_on.len().min(usize::BITS as usize - 1);
    let split = &split_on[..k];
    let cubes: Vec<Vec<Lit>> = (0..1usize << k)
        .map(|mask| {
            split
                .iter()
                .enumerate()
                .map(|(bit, &var)| Lit::with_polarity(var, (mask >> bit) & 1 == 1))
                .collect()
        })
        .collect();
    let total = cubes.len();
    let results: Vec<(BudgetedResult, Option<Vec<bool>>)> = cubes
        .iter()
        .map(|cube| {
            let mut solver = Solver::new();
            cnf.load_into(&mut solver);
            let result = solver.solve_budgeted(cube, effort);
            let model = match result {
                BudgetedResult::Decided(SolveResult::Sat) => {
                    Some(snapshot_model(&solver, cnf.num_vars))
                }
                _ => None,
            };
            (result, model)
        })
        .collect();
    let mut all_unsat = true;
    for (result, model) in results {
        match result {
            BudgetedResult::Decided(SolveResult::Sat) => {
                return CubeReport {
                    verdict: Some(SolveResult::Sat),
                    cubes: total,
                    model,
                };
            }
            BudgetedResult::Decided(SolveResult::Unsat) => {}
            BudgetedResult::Exhausted => all_unsat = false,
        }
    }
    CubeReport {
        verdict: all_unsat.then_some(SolveResult::Unsat),
        cubes: total,
        model: None,
    }
}

#[cfg(test)]
#[cfg(not(any(feature = "panic-mutant", feature = "diverge-mutant")))]
mod tests {
    use super::*;

    /// Pigeonhole CNF: `pigeons` into `holes`, unsatisfiable when
    /// pigeons > holes. Hard for CDCL, so small budgets exhaust on it.
    fn php_cnf(pigeons: usize, holes: usize) -> Cnf {
        let var = |p: usize, h: usize| Var::from_index(p * holes + h);
        let mut clauses = Vec::new();
        for p in 0..pigeons {
            clauses.push((0..holes).map(|h| Lit::pos(var(p, h))).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    clauses.push(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        Cnf {
            num_vars: pigeons * holes,
            clauses,
        }
    }

    fn model_satisfies(cnf: &Cnf, model: &[bool]) -> bool {
        cnf.clauses.iter().all(|clause| {
            clause
                .iter()
                .any(|lit| model[lit.var().index()] == lit.is_positive())
        })
    }

    #[test]
    fn exhausted_unsat_query_is_decided_by_cubes() {
        // PHP(6,5) exhausts a tiny conflict budget directly, but each
        // cube (with two pigeons pinned) is easier; with the cube-side
        // budget high enough the split decides Unsat.
        let cnf = php_cnf(6, 5);
        let starved = exec::Effort {
            sat_conflicts: Some(20),
            sat_decisions: None,
            bdd_nodes: None,
        };
        let mut probe = Solver::new();
        cnf.load_into(&mut probe);
        assert!(probe.solve_budgeted(&[], &starved).is_exhausted());

        let split = probe.top_activity_vars(3);
        assert_eq!(split.len(), 3);
        let generous = exec::Effort {
            sat_conflicts: Some(100_000),
            sat_decisions: None,
            bdd_nodes: None,
        };
        let report = conquer(&cnf, &split, &generous);
        assert_eq!(report.cubes, 8);
        assert_eq!(report.verdict, Some(SolveResult::Unsat));
    }

    #[test]
    fn sat_cube_yields_a_validated_model() {
        // Satisfiable random-ish CNF; force the split path by starving
        // the probe on a harder instance is unnecessary — exercise
        // `conquer` directly on a chosen split.
        let cnf = Cnf {
            num_vars: 4,
            clauses: vec![
                vec![Lit::pos(Var::from_index(0)), Lit::pos(Var::from_index(1))],
                vec![Lit::neg(Var::from_index(0)), Lit::pos(Var::from_index(2))],
                vec![Lit::neg(Var::from_index(1)), Lit::pos(Var::from_index(3))],
            ],
        };
        let report = conquer(
            &cnf,
            &[Var::from_index(0), Var::from_index(1)],
            &exec::Effort::bounded(1024),
        );
        assert_eq!(report.verdict, Some(SolveResult::Sat));
        assert_eq!(report.cubes, 4);
        assert!(model_satisfies(&cnf, report.model.as_ref().unwrap()));
    }
}
