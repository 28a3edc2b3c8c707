//! The supervision oracle family: random panic and budget scripts
//! against the supervised execution layer's survival invariants.
//!
//! Each iteration generates two scripts:
//!
//! 1. **Pool survival** — a batch of jobs, each scripted to panic (with a
//!    unique marker message) or to return a value. The expected
//!    [`exec::JobOutcome`] vector is computed directly from the script;
//!    [`exec::map_supervised`] must reproduce it bit-identically for
//!    worker counts 1, 2, and 3 (panicked slots carry their exact
//!    message; every healthy job still completes), and a follow-up plain
//!    [`exec::map`] proves the process survived the poisoned queues.
//! 2. **Budget determinism** — a random CNF solved under a small random
//!    [`exec::Effort`] by two fresh solvers: both must reach the same
//!    outcome (exhausted at the same point, or the same verdict), and a
//!    decided budgeted verdict must agree with the unbudgeted reference.
//!
//! All injected panics carry the `injected panic` marker so
//! [`exec::silence_injected_panics`] keeps the test output clean.

use crate::rng::FuzzRng;
use crate::{Failure, FamilyOutcome};
use sat::{Lit, Solver, Var};

/// One scripted job for the pool script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    /// Panic with `injected panic #<code>`.
    Panic(u64),
    /// Return the value.
    Value(u64),
}

/// Generation profile decoded from the coverage-steering bias word.
struct Profile {
    jobs_lo: usize,
    jobs_hi: usize,
    panic_pct: u64,
    vars_lo: usize,
    vars_hi: usize,
    conflict_cap_hi: u64,
}

impl Profile {
    fn from_bias(bias: u64) -> Profile {
        let jobs_lo = 2 + (bias & 3) as usize; // 2..=5
        let vars_lo = 4 + ((bias >> 6) & 3) as usize; // 4..=7
        Profile {
            jobs_lo,
            jobs_hi: jobs_lo + 3 + ((bias >> 2) & 7) as usize,
            panic_pct: 20 + ((bias >> 5) & 1) * 30,
            vars_lo,
            vars_hi: (vars_lo + 1 + ((bias >> 8) & 3) as usize).min(10),
            conflict_cap_hi: 2 + ((bias >> 10) & 15),
        }
    }
}

fn job_message(code: u64) -> String {
    format!("injected panic #{code}")
}

fn run_job(job: Job) -> u64 {
    match job {
        Job::Panic(code) => panic!("{}", job_message(code)),
        Job::Value(v) => v.wrapping_mul(3).wrapping_add(1),
    }
}

fn render_jobs(label: &str, jobs: &[Job]) -> String {
    let script: Vec<String> = jobs
        .iter()
        .map(|j| match j {
            Job::Panic(code) => format!("panic#{code}"),
            Job::Value(v) => format!("value:{v}"),
        })
        .collect();
    format!("{label} script: [{}]", script.join(", "))
}

fn random_cnf(rng: &mut FuzzRng, profile: &Profile) -> (usize, Vec<Vec<i64>>) {
    let num_vars = rng.range_usize(profile.vars_lo, profile.vars_hi);
    let num_clauses = num_vars * 4;
    let clauses = (0..num_clauses)
        .map(|_| {
            let len = 2 + (rng.below(2) as usize);
            (0..len)
                .map(|_| {
                    let v = rng.range_usize(1, num_vars) as i64;
                    if rng.flip() {
                        v
                    } else {
                        -v
                    }
                })
                .collect()
        })
        .collect();
    (num_vars, clauses)
}

fn load_solver(num_vars: usize, clauses: &[Vec<i64>]) -> Solver {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
    for clause in clauses {
        solver.add_clause(
            clause
                .iter()
                .map(|&l| Lit::with_polarity(vars[(l.unsigned_abs() - 1) as usize], l > 0)),
        );
    }
    solver
}

/// Runs one supervision iteration. See the module docs for the scripts.
pub fn run_one(rng: &mut FuzzRng, bias: u64) -> FamilyOutcome {
    exec::silence_injected_panics();
    let profile = Profile::from_bias(bias);
    let mut counters: Vec<u64> = Vec::new();
    let mut failure: Option<Failure> = None;
    let fail = |failure: &mut Option<Failure>, detail: String, minimized: String| {
        if failure.is_none() {
            *failure = Some(Failure { detail, minimized });
        }
    };

    // ── Script 1: pool survival under scripted panics ─────────────────
    let n = rng.range_usize(profile.jobs_lo, profile.jobs_hi);
    let jobs: Vec<Job> = (0..n)
        .map(|_| {
            if rng.chance(profile.panic_pct, 100) {
                Job::Panic(rng.below(1 << 16))
            } else {
                Job::Value(rng.below(1 << 16))
            }
        })
        .collect();
    let expected: Vec<exec::JobOutcome<u64>> = jobs
        .iter()
        .map(|&j| match j {
            Job::Panic(code) => exec::JobOutcome::Panicked {
                message: job_message(code),
            },
            Job::Value(v) => exec::JobOutcome::Ok(v.wrapping_mul(3).wrapping_add(1)),
        })
        .collect();
    let panicking = jobs.iter().filter(|j| matches!(j, Job::Panic(_))).count();
    counters.push(n as u64);
    counters.push(panicking as u64);
    for workers in [1usize, 2, 3] {
        let got = exec::map_supervised(
            exec::ExecMode::from_workers(workers),
            jobs.clone(),
            |_, j| run_job(j),
        );
        if got != expected {
            fail(
                &mut failure,
                format!(
                    "map_supervised with {workers} workers diverged from the script: \
                     got {got:?}, expected {expected:?}"
                ),
                render_jobs("pool", &jobs),
            );
        }
    }
    // The process (and any queue mutex) survived every panic: a plain
    // parallel map over fresh values must still complete.
    let probe: Vec<u64> = (0..n as u64).collect();
    let echoed = exec::map(
        exec::ExecMode::Parallel { workers: 2 },
        probe.clone(),
        |_, x| x,
    );
    if echoed != probe {
        fail(
            &mut failure,
            format!("post-panic pool probe returned {echoed:?}"),
            render_jobs("pool", &jobs),
        );
    }

    // ── Script 2: deterministic budget exhaustion ─────────────────────
    let (num_vars, clauses) = random_cnf(rng, &profile);
    let effort = exec::Effort {
        sat_conflicts: Some(rng.below(profile.conflict_cap_hi)),
        sat_decisions: Some(rng.range(1, 64)),
        bdd_nodes: None,
    };
    let outcome_of = |result: &sat::BudgetedResult| match result.decided() {
        None => 0u64,
        Some(r) if r.is_unsat() => 1,
        Some(_) => 2,
    };
    let first = load_solver(num_vars, &clauses).solve_budgeted(&[], &effort);
    let second = load_solver(num_vars, &clauses).solve_budgeted(&[], &effort);
    if outcome_of(&first) != outcome_of(&second) {
        fail(
            &mut failure,
            format!(
                "same CNF + same budget {effort:?} gave different outcomes: \
                 {first:?} vs {second:?}"
            ),
            format!("{num_vars} vars, clauses {clauses:?}"),
        );
    }
    counters.push(outcome_of(&first));
    if let Some(decided) = first.decided() {
        let reference = load_solver(num_vars, &clauses).solve();
        if decided.is_unsat() != reference.is_unsat() {
            fail(
                &mut failure,
                format!(
                    "budgeted verdict {decided:?} disagrees with the unbudgeted \
                     reference {reference:?}"
                ),
                format!("{num_vars} vars, clauses {clauses:?}"),
            );
        }
    }

    FamilyOutcome { counters, failure }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::ReproId;
    use crate::Family;

    #[test]
    fn scripted_iterations_find_no_failures() {
        for iter in 0..24 {
            let id = ReproId {
                seed: 11,
                family: Family::Supervise,
                iter,
            };
            let mut rng = FuzzRng::for_iter(&id);
            let outcome = run_one(&mut rng, iter.wrapping_mul(0x9E37_79B9));
            assert_eq!(outcome.failure.map(|f| f.detail), None, "iteration {iter}");
            assert!(!outcome.counters.is_empty());
        }
    }

    #[test]
    fn iterations_are_deterministic() {
        let id = ReproId {
            seed: 3,
            family: Family::Supervise,
            iter: 5,
        };
        let a = run_one(&mut FuzzRng::for_iter(&id), 7);
        let b = run_one(&mut FuzzRng::for_iter(&id), 7);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.failure, b.failure);
    }
}
