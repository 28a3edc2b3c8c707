//! The SAT oracle family: planted CNF instances cross-checked across
//! every independent SAT implementation in the workspace.
//!
//! Each iteration plants a case with a *known* verdict — a random model
//! with every clause forced to satisfy it (SAT), or a full sign-cube
//! over a small variable subset buried in random filler (UNSAT) — and
//! then demands agreement between: the CDCL solver, brute-force
//! enumeration, the BDD package (verdict *and* model count), a second
//! incremental solve on the same solver, an assumption-pinned replay of
//! the planted model, an instrumented solver, and a DIMACS render/parse
//! round trip. Any model returned is validated against the clauses
//! directly.

use crate::rng::FuzzRng;
use crate::shrink;
use crate::{Evaluation, FamilyOutcome};
use sat::{Lit, Solver, Var};

/// One generated CNF case, in DIMACS literal convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnfCase {
    /// Number of variables (literal magnitudes are `1..=num_vars`).
    pub num_vars: usize,
    /// Clauses of non-zero DIMACS-signed literals.
    pub clauses: Vec<Vec<i64>>,
    /// Ground-truth verdict, when known (`true` = satisfiable).
    pub expected: Option<bool>,
    /// The planted model for planted-SAT cases (`planted[v]` for DIMACS
    /// variable `v + 1`).
    pub planted: Option<Vec<bool>>,
}

/// Brute-force satisfiability by full enumeration — the reference even
/// differential pairs cannot argue with. Callers cap `num_vars` (the
/// cost is `2^num_vars · Σ|clause|`).
pub fn brute_force_sat(num_vars: usize, clauses: &[Vec<i64>]) -> bool {
    assert!(
        num_vars < 26,
        "brute force is exponential; keep cases small"
    );
    (0u64..(1u64 << num_vars)).any(|bits| {
        clauses.iter().all(|clause| {
            clause
                .iter()
                .any(|&l| (bits >> (l.unsigned_abs() - 1)) & 1 == (l > 0) as u64)
        })
    })
}

/// Does `model` satisfy every clause? Returns the index of the first
/// violated clause otherwise.
pub fn violated_clause(clauses: &[Vec<i64>], model: &[bool]) -> Option<usize> {
    clauses.iter().position(|clause| {
        !clause
            .iter()
            .any(|&l| model[(l.unsigned_abs() - 1) as usize] == (l > 0))
    })
}

/// Renders the case as DIMACS with the expectation as a comment — the
/// form minimized reproducers are reported in.
pub fn render(case: &CnfCase) -> String {
    let expectation = match case.expected {
        Some(true) => "SAT",
        Some(false) => "UNSAT",
        None => "unknown",
    };
    let dimacs = sat::Dimacs {
        num_vars: case.num_vars,
        clauses: case.clauses.clone(),
    };
    format!("c expected {expectation}\n{}", dimacs.render())
}

/// Generation profile decoded from the coverage-steering bias word.
struct Profile {
    vars_lo: usize,
    vars_hi: usize,
    ratio: u64,
    unsat_pct: u64,
    long_clause_pct: u64,
}

impl Profile {
    fn from_bias(bias: u64) -> Profile {
        let vars_lo = 3 + (bias & 7) as usize; // 3..=10
        Profile {
            vars_lo,
            vars_hi: (vars_lo + 1 + ((bias >> 3) & 7) as usize).min(14),
            ratio: 2 + ((bias >> 6) & 3),
            unsat_pct: 25 + ((bias >> 8) & 3) * 15,
            long_clause_pct: 10 + ((bias >> 10) & 3) * 20,
        }
    }
}

fn random_clause(rng: &mut FuzzRng, num_vars: usize, profile: &Profile) -> Vec<i64> {
    let len = if rng.chance(profile.long_clause_pct, 100) {
        4
    } else {
        // Mostly 2-3 literals, occasionally units.
        match rng.below(10) {
            0 => 1,
            1..=4 => 2,
            _ => 3,
        }
    }
    .min(num_vars);
    let mut vars: Vec<usize> = Vec::with_capacity(len);
    while vars.len() < len {
        let v = rng.range_usize(1, num_vars);
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.into_iter()
        .map(|v| if rng.flip() { v as i64 } else { -(v as i64) })
        .collect()
}

/// Generates one planted case under the steering profile.
pub fn generate(rng: &mut FuzzRng, bias: u64) -> CnfCase {
    let profile = Profile::from_bias(bias);
    let num_vars = rng.range_usize(profile.vars_lo, profile.vars_hi);
    let num_clauses = (num_vars as u64 * profile.ratio + rng.below(4)) as usize;
    if rng.chance(profile.unsat_pct, 100) {
        // Planted UNSAT: all 2^k sign combinations over a k-variable
        // subset form an unsatisfiable core; filler clauses cannot fix it.
        let k = rng.range_usize(2, 3.min(num_vars));
        let mut core_vars: Vec<usize> = Vec::with_capacity(k);
        while core_vars.len() < k {
            let v = rng.range_usize(1, num_vars);
            if !core_vars.contains(&v) {
                core_vars.push(v);
            }
        }
        let mut clauses: Vec<Vec<i64>> = Vec::with_capacity(num_clauses + (1 << k));
        for signs in 0..(1u32 << k) {
            clauses.push(
                core_vars
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        if signs >> i & 1 == 1 {
                            v as i64
                        } else {
                            -(v as i64)
                        }
                    })
                    .collect(),
            );
        }
        for _ in 0..num_clauses {
            let clause = random_clause(rng, num_vars, &profile);
            let at = rng.range_usize(0, clauses.len());
            clauses.insert(at, clause);
        }
        CnfCase {
            num_vars,
            clauses,
            expected: Some(false),
            planted: None,
        }
    } else {
        // Planted SAT: draw a model, then force every clause to contain
        // at least one literal the model satisfies.
        let model: Vec<bool> = (0..num_vars).map(|_| rng.flip()).collect();
        let clauses: Vec<Vec<i64>> = (0..num_clauses)
            .map(|_| {
                let mut clause = random_clause(rng, num_vars, &profile);
                let satisfied = clause
                    .iter()
                    .any(|&l| model[(l.unsigned_abs() - 1) as usize] == (l > 0));
                if !satisfied {
                    let fix = rng.range_usize(0, clause.len() - 1);
                    clause[fix] = -clause[fix];
                }
                clause
            })
            .collect();
        CnfCase {
            num_vars,
            clauses,
            expected: Some(true),
            planted: Some(model),
        }
    }
}

pub(crate) fn load_solver(case: &CnfCase) -> (Solver, Vec<Var>) {
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

pub(crate) fn extract_model(solver: &Solver, vars: &[Var]) -> Vec<bool> {
    vars.iter()
        .map(|&v| solver.value(v) == Some(true))
        .collect()
}

fn bdd_verdict(case: &CnfCase) -> (bool, u64) {
    let mut mgr = bdd::Manager::new();
    let mut formula = mgr.constant(true);
    for clause in &case.clauses {
        let mut clause_bdd = mgr.constant(false);
        for &l in clause {
            let v = (l.unsigned_abs() - 1) as u32;
            let lit = if l > 0 { mgr.var(v) } else { mgr.nvar(v) };
            clause_bdd = mgr.or(clause_bdd, lit);
        }
        formula = mgr.and(formula, clause_bdd);
    }
    let count = mgr.sat_count(formula, case.num_vars as u32);
    (formula != bdd::Ref::FALSE, count)
}

/// Runs every engine pairing on `case` and reports the first
/// disagreement, plus the behaviour counters used as coverage feedback.
pub fn evaluate(case: &CnfCase) -> Evaluation {
    let report = |detail: String, counters: Vec<u64>| Evaluation {
        disagreement: Some(detail),
        counters,
    };

    // Engine 1: the CDCL solver, with its model validated directly.
    let (mut solver, vars) = load_solver(case);
    let verdict = solver.solve().is_sat();
    let counters = vec![
        solver.conflicts(),
        solver.decisions(),
        solver.propagations(),
        solver.num_learnt() as u64,
        verdict as u64,
    ];
    if verdict {
        let model = extract_model(&solver, &vars);
        if let Some(ci) = violated_clause(&case.clauses, &model) {
            return report(
                format!("solver model violates clause {ci} ({:?})", case.clauses[ci]),
                counters,
            );
        }
    }

    // Ground truth: the planted verdict, and brute force when affordable.
    if let Some(expected) = case.expected {
        if verdict != expected {
            return report(
                format!("solver says {verdict}, planted expectation is {expected}"),
                counters,
            );
        }
    }
    if case.num_vars <= 12 {
        let brute = brute_force_sat(case.num_vars, &case.clauses);
        if verdict != brute {
            return report(
                format!("solver says {verdict}, brute force says {brute}"),
                counters,
            );
        }
    }

    // Engine 2: the BDD package — verdict and model count must agree.
    let (bdd_sat, bdd_count) = bdd_verdict(case);
    if bdd_sat != verdict {
        return report(
            format!("solver says {verdict}, bdd says {bdd_sat}"),
            counters,
        );
    }
    if (bdd_count > 0) != verdict {
        return report(
            format!("bdd sat_count {bdd_count} contradicts verdict {verdict}"),
            counters,
        );
    }

    // Incremental re-solve on the same solver must not change its mind.
    let again = solver.solve().is_sat();
    if again != verdict {
        return report(
            format!("incremental re-solve flipped {verdict} -> {again}"),
            counters,
        );
    }
    // The planted model, pinned via assumptions, must be accepted.
    if let Some(model) = &case.planted {
        let assumptions: Vec<Lit> = vars
            .iter()
            .zip(model)
            .map(|(&v, &b)| Lit::with_polarity(v, b))
            .collect();
        if !solver.solve_under_assumptions(&assumptions).is_sat() {
            return report(
                "solver rejects the planted model under assumptions".into(),
                counters,
            );
        }
    }

    // Instrumented vs plain: telemetry must not perturb the verdict.
    let collector = telemetry::Collector::shared();
    let instr: telemetry::SharedInstrument = collector.clone();
    let (mut instrumented, ivars) = load_solver(case);
    instrumented.set_instrument(instr);
    let iverdict = instrumented.solve().is_sat();
    if iverdict != verdict {
        return report(
            format!("instrumented solver says {iverdict}, plain says {verdict}"),
            counters,
        );
    }
    if iverdict {
        let model = extract_model(&instrumented, &ivars);
        if violated_clause(&case.clauses, &model).is_some() {
            return report(
                "instrumented solver model violates a clause".into(),
                counters,
            );
        }
    }

    // DIMACS round trip: render, reparse, resolve.
    let dimacs = sat::Dimacs {
        num_vars: case.num_vars,
        clauses: case.clauses.clone(),
    };
    match sat::dimacs::parse(&dimacs.render()) {
        Err(e) => return report(format!("rendered DIMACS fails to reparse: {e}"), counters),
        Ok(reparsed) => {
            if reparsed != dimacs {
                return report("DIMACS round trip altered the instance".into(), counters);
            }
            let (mut rs, _) = reparsed.into_solver();
            let rv = rs.solve().is_sat();
            if rv != verdict {
                return report(
                    format!("DIMACS round-trip solver says {rv}, original says {verdict}"),
                    counters,
                );
            }
        }
    }

    Evaluation {
        disagreement: None,
        counters,
    }
}

/// Remaps literals so used variables are dense `1..=k`; drops the
/// planted model (shrinking invalidates it) and recomputes the expected
/// verdict by brute force.
fn canonicalize(case: &CnfCase) -> CnfCase {
    let mut map: Vec<usize> = vec![0; case.num_vars + 1];
    let mut next = 0usize;
    let clauses: Vec<Vec<i64>> = case
        .clauses
        .iter()
        .map(|clause| {
            clause
                .iter()
                .map(|&l| {
                    let v = l.unsigned_abs() as usize;
                    if map[v] == 0 {
                        next += 1;
                        map[v] = next;
                    }
                    map[v] as i64 * l.signum()
                })
                .collect()
        })
        .collect();
    with_ground_truth(CnfCase {
        num_vars: next,
        clauses,
        expected: None,
        planted: None,
    })
}

fn with_ground_truth(mut case: CnfCase) -> CnfCase {
    case.planted = None;
    case.expected = if case.num_vars <= 12 {
        Some(brute_force_sat(case.num_vars, &case.clauses))
    } else {
        None
    };
    case
}

fn shrink_candidates(case: &CnfCase) -> Vec<CnfCase> {
    let mut out = Vec::new();
    for i in 0..case.clauses.len() {
        let mut c = case.clone();
        c.clauses.remove(i);
        out.push(with_ground_truth(c));
    }
    for (i, clause) in case.clauses.iter().enumerate() {
        if clause.len() <= 1 {
            continue;
        }
        for j in 0..clause.len() {
            let mut c = case.clone();
            c.clauses[i].remove(j);
            out.push(with_ground_truth(c));
        }
    }
    let canonical = canonicalize(case);
    if canonical.num_vars < case.num_vars {
        out.push(canonical);
    }
    out
}

/// Greedy delta-debugging: any case on which [`evaluate`] still reports
/// a disagreement is a valid reduction.
pub fn shrink_case(case: CnfCase) -> CnfCase {
    shrink::minimize(case, 3000, shrink_candidates, |c| {
        evaluate(c).disagreement.is_some()
    })
}

/// One fuzz iteration: generate, cross-check, and shrink on failure.
pub(crate) fn run_one(rng: &mut FuzzRng, bias: u64) -> FamilyOutcome {
    let case = generate(rng, bias);
    let eval = evaluate(&case);
    let failure = eval.disagreement.map(|detail| {
        let minimized = shrink_case(case);
        crate::Failure {
            detail,
            minimized: render(&minimized),
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

    fn rng(seed: u64) -> FuzzRng {
        FuzzRng::new(seed)
    }

    #[test]
    fn planted_expectations_match_brute_force() {
        let mut r = rng(11);
        for bias in [0u64, 0x5A5A, u64::MAX] {
            for _ in 0..40 {
                let case = generate(&mut r, bias);
                if case.num_vars <= 12 {
                    assert_eq!(
                        case.expected,
                        Some(brute_force_sat(case.num_vars, &case.clauses)),
                        "planting failed for {case:?}"
                    );
                }
                if let Some(model) = &case.planted {
                    assert_eq!(violated_clause(&case.clauses, model), None);
                }
            }
        }
    }

    #[test]
    fn healthy_engines_agree_on_generated_cases() {
        let mut r = rng(23);
        for i in 0..30 {
            let case = generate(&mut r, i);
            let eval = evaluate(&case);
            assert_eq!(eval.disagreement, None, "case {case:?}");
            assert!(!eval.counters.is_empty());
        }
    }

    #[test]
    fn a_forced_disagreement_shrinks_to_a_minimal_core() {
        // Corrupt the expectation on a tiny SAT instance: the oracle must
        // flag it, and the shrinker (which re-derives ground truth) must
        // strip it down to clauses that genuinely disagree — here, none,
        // so the wrongly-expected case collapses to the empty instance.
        let case = CnfCase {
            num_vars: 3,
            clauses: vec![vec![1, 2], vec![-1, 3], vec![2, 3], vec![-2, -3], vec![1]],
            expected: Some(false), // wrong on purpose: the instance is SAT
            planted: None,
        };
        assert!(evaluate(&case).disagreement.is_some());
        // Shrinking recomputes ground truth, so the disagreement vanishes
        // on every reduction: the minimum equals the original case.
        let shrunk = shrink_case(case.clone());
        assert_eq!(shrunk, case);
    }

    #[test]
    fn shrinking_a_real_failure_predicate_is_deterministic() {
        // Drive the generic minimizer with the family's candidate
        // function and a stand-in failure ("mentions variable 2"), and
        // pin that the result is minimal and reproducible.
        let case = CnfCase {
            num_vars: 4,
            clauses: vec![vec![1, -2, 3], vec![2, 4], vec![-4, 1], vec![-2]],
            expected: None,
            planted: None,
        };
        let fails = |c: &CnfCase| c.clauses.iter().flatten().any(|&l| l.unsigned_abs() == 2);
        let a = crate::shrink::minimize(case.clone(), 10_000, shrink_candidates, |c| fails(c));
        let b = crate::shrink::minimize(case, 10_000, shrink_candidates, |c| fails(c));
        assert_eq!(a, b);
        assert_eq!(
            a.clauses,
            vec![vec![-2]],
            "a single unit mentioning the pinned variable"
        );
    }
}
