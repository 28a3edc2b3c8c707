//! The conflict-rich 3-XOR generator: planted random 3-XOR-SAT cases
//! that CDCL cannot solve by propagation alone. The module holds nothing
//! else; `perfbench`'s `engine_corpus` and `tests/engine_properties.rs`
//! import the generator from this path.

use crate::rng::FuzzRng;
use crate::sat_fuzz::CnfCase;

/// Generates planted random 3-XOR-SAT. A consistent GF(2) system
/// (parities computed from a planted model, so the case is satisfiable
/// *by construction*) is Tseitin-encoded into 4 clauses per equation.
/// XOR systems are resolution-hard, so CDCL fights through tens to
/// hundreds of conflicts, while the planted model keeps the verdict
/// known.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat_fuzz::{extract_model, load_solver, violated_clause};

    /// The fewest conflicts any of the 40 cases below needs (case 23 of
    /// the seed-3 stream): a solver or generator change that makes the
    /// cases easy falls under it.
    const CONFLICT_FLOOR: u64 = 11;

    #[test]
    fn hard_cases_are_conflict_rich() {
        let mut r = FuzzRng::new(3);
        for i in 0..40 {
            let case = generate_hard(&mut r);
            let (mut solver, vars) = load_solver(&case);
            assert_eq!(Some(solver.solve().is_sat()), case.expected, "case {i}");
            let model = extract_model(&solver, &vars);
            assert_eq!(violated_clause(&case.clauses, &model), None, "case {i}");
            assert!(
                solver.conflicts() >= CONFLICT_FLOOR,
                "case {i} took only {} conflicts",
                solver.conflicts()
            );
        }
    }
}
