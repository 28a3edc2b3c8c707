//! Tseitin gate encodings on top of the solver.
//!
//! [`CnfBuilder`] is the interface the `hdl` crate uses to bit-blast RTL
//! netlists: every gate output becomes a fresh literal constrained to equal
//! the gate function of its inputs.

use crate::solver::{SolveResult, Solver};
use crate::types::Lit;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GateOp {
    And,
    Xor,
    Mux,
}

/// Incrementally builds a CNF with named gate semantics.
///
/// The builder owns a [`Solver`]; call [`CnfBuilder::solve`] (or extract the
/// solver with [`CnfBuilder::into_solver`]) once constraints are in place.
///
/// # Example
///
/// ```
/// use sat::CnfBuilder;
///
/// let mut b = CnfBuilder::new();
/// let x = b.new_lit();
/// let y = b.new_lit();
/// let xor = b.xor_gate(x, y);
/// b.assert_lit(xor);          // force x ≠ y
/// assert!(b.solve().is_sat());
/// let (vx, vy) = (b.lit_value(x), b.lit_value(y));
/// assert_ne!(vx, vy);
/// ```
#[derive(Debug, Default)]
pub struct CnfBuilder {
    solver: Solver,
    true_lit: Option<Lit>,
    /// Structural-hashing cache: identical gates share one output literal.
    /// This is what keeps equivalence miters of structurally identical
    /// netlists trivial, exactly as in industrial combinational
    /// equivalence checkers.
    gate_cache: HashMap<(GateOp, Lit, Lit, Lit), Lit>,
}

impl CnfBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CnfBuilder::default()
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    /// A literal constrained to be true (allocated lazily once).
    pub fn lit_true(&mut self) -> Lit {
        match self.true_lit {
            Some(l) => l,
            None => {
                let l = self.new_lit();
                self.solver.add_clause([l]);
                self.true_lit = Some(l);
                l
            }
        }
    }

    /// A literal constrained to be false.
    pub fn lit_false(&mut self) -> Lit {
        !self.lit_true()
    }

    /// Asserts that `l` holds.
    pub fn assert_lit(&mut self, l: Lit) {
        self.solver.add_clause([l]);
    }

    /// Adds a raw clause.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.solver.add_clause(lits);
    }

    /// Returns a literal equal to `a ∧ b`.
    pub fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return a;
        }
        if a == !b {
            return self.lit_false();
        }
        if let Some(t) = self.true_lit {
            if a == t {
                return b;
            }
            if b == t {
                return a;
            }
            if a == !t || b == !t {
                return !t;
            }
        }
        let (x, y) = if a.code() <= b.code() { (a, b) } else { (b, a) };
        let key = (GateOp::And, x, y, x);
        if let Some(&o) = self.gate_cache.get(&key) {
            return o;
        }
        let o = self.new_lit();
        self.solver.add_clause([!a, !b, o]);
        self.solver.add_clause([a, !o]);
        self.solver.add_clause([b, !o]);
        self.gate_cache.insert(key, o);
        o
    }

    /// Returns a literal equal to `a ∨ b`.
    pub fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and_gate(!a, !b)
    }

    /// Returns a literal equal to `a ⊕ b`.
    pub fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return self.lit_false();
        }
        if a == !b {
            return self.lit_true();
        }
        if let Some(t) = self.true_lit {
            if a == t {
                return !b;
            }
            if b == t {
                return !a;
            }
            if a == !t {
                return b;
            }
            if b == !t {
                return a;
            }
        }
        let (x, y) = if a.code() <= b.code() { (a, b) } else { (b, a) };
        let key = (GateOp::Xor, x, y, x);
        if let Some(&o) = self.gate_cache.get(&key) {
            return o;
        }
        let o = self.new_lit();
        self.solver.add_clause([!a, !b, !o]);
        self.solver.add_clause([a, b, !o]);
        self.solver.add_clause([!a, b, o]);
        self.solver.add_clause([a, !b, o]);
        self.gate_cache.insert(key, o);
        o
    }

    /// Returns a literal equal to `sel ? then_ : else_`.
    pub fn mux_gate(&mut self, sel: Lit, then_: Lit, else_: Lit) -> Lit {
        if then_ == else_ {
            return then_;
        }
        if let Some(t) = self.true_lit {
            if sel == t {
                return then_;
            }
            if sel == !t {
                return else_;
            }
        }
        let key = (GateOp::Mux, sel, then_, else_);
        if let Some(&o) = self.gate_cache.get(&key) {
            return o;
        }
        let o = self.new_lit();
        self.solver.add_clause([!sel, !then_, o]);
        self.solver.add_clause([!sel, then_, !o]);
        self.solver.add_clause([sel, !else_, o]);
        self.solver.add_clause([sel, else_, !o]);
        self.gate_cache.insert(key, o);
        o
    }

    /// Returns a literal equal to `a ↔ b`.
    pub fn eq_gate(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor_gate(a, b)
    }

    /// Conjunction of many literals (true for an empty list).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        match lits.split_first() {
            None => self.lit_true(),
            Some((&first, rest)) => {
                let mut acc = first;
                for &l in rest {
                    acc = self.and_gate(acc, l);
                }
                acc
            }
        }
    }

    /// Disjunction of many literals (false for an empty list).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        match lits.split_first() {
            None => self.lit_false(),
            Some((&first, rest)) => {
                let mut acc = first;
                for &l in rest {
                    acc = self.or_gate(acc, l);
                }
                acc
            }
        }
    }

    /// Full adder: returns `(sum, carry)` of `a + b + cin`.
    pub fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let ab = self.xor_gate(a, b);
        let sum = self.xor_gate(ab, cin);
        let c1 = self.and_gate(a, b);
        let c2 = self.and_gate(ab, cin);
        let carry = self.or_gate(c1, c2);
        (sum, carry)
    }

    /// Solves the accumulated constraints.
    pub fn solve(&mut self) -> SolveResult {
        self.solver.solve()
    }

    /// Solves under assumptions.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solver.solve_under_assumptions(assumptions)
    }

    /// Solves under assumptions with a deterministic effort budget (see
    /// [`Solver::solve_budgeted`]).
    pub fn solve_budgeted(
        &mut self,
        assumptions: &[Lit],
        effort: &exec::Effort,
    ) -> crate::solver::BudgetedResult {
        self.solver.solve_budgeted(assumptions, effort)
    }

    /// Model value of a literal after a SAT answer.
    ///
    /// # Panics
    ///
    /// Panics if the literal's variable is unassigned (no model available).
    pub fn lit_value(&self, l: Lit) -> bool {
        self.solver
            .lit_is_true(l)
            .expect("literal assigned in model")
    }

    /// Access the underlying solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Attaches a telemetry instrument to the underlying solver (see
    /// [`Solver::set_instrument`]).
    pub fn set_instrument(&mut self, instrument: telemetry::SharedInstrument) {
        self.solver.set_instrument(instrument);
    }

    /// Extracts the underlying solver.
    pub fn into_solver(self) -> Solver {
        self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively checks a 2-input gate encoding against a truth table.
    fn check_gate2(f: impl Fn(&mut CnfBuilder, Lit, Lit) -> Lit, table: [bool; 4]) {
        for (i, &expected) in table.iter().enumerate() {
            let (va, vb) = (i & 1 != 0, i & 2 != 0);
            let mut b = CnfBuilder::new();
            let a = b.new_lit();
            let bb = b.new_lit();
            let o = f(&mut b, a, bb);
            let assumptions = [
                Lit::with_polarity(a.var(), va),
                Lit::with_polarity(bb.var(), vb),
            ];
            assert!(b.solve_with(&assumptions).is_sat());
            assert_eq!(b.lit_value(o), expected, "inputs {va} {vb}");
        }
    }

    #[test]
    fn and_gate_truth_table() {
        check_gate2(|b, x, y| b.and_gate(x, y), [false, false, false, true]);
    }

    #[test]
    fn or_gate_truth_table() {
        check_gate2(|b, x, y| b.or_gate(x, y), [false, true, true, true]);
    }

    #[test]
    fn xor_gate_truth_table() {
        check_gate2(|b, x, y| b.xor_gate(x, y), [false, true, true, false]);
    }

    #[test]
    fn eq_gate_truth_table() {
        check_gate2(|b, x, y| b.eq_gate(x, y), [true, false, false, true]);
    }

    #[test]
    fn mux_selects_correctly() {
        for sel in [false, true] {
            for t in [false, true] {
                for e in [false, true] {
                    let mut b = CnfBuilder::new();
                    let s = b.new_lit();
                    let tl = b.new_lit();
                    let el = b.new_lit();
                    let o = b.mux_gate(s, tl, el);
                    let assumptions = [
                        Lit::with_polarity(s.var(), sel),
                        Lit::with_polarity(tl.var(), t),
                        Lit::with_polarity(el.var(), e),
                    ];
                    assert!(b.solve_with(&assumptions).is_sat());
                    assert_eq!(b.lit_value(o), if sel { t } else { e });
                }
            }
        }
    }

    #[test]
    fn full_adder_truth_table() {
        for bits in 0..8u32 {
            let (va, vb, vc) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let mut b = CnfBuilder::new();
            let a = b.new_lit();
            let bb = b.new_lit();
            let c = b.new_lit();
            let (sum, carry) = b.full_adder(a, bb, c);
            let assumptions = [
                Lit::with_polarity(a.var(), va),
                Lit::with_polarity(bb.var(), vb),
                Lit::with_polarity(c.var(), vc),
            ];
            assert!(b.solve_with(&assumptions).is_sat());
            let total = va as u8 + vb as u8 + vc as u8;
            assert_eq!(b.lit_value(sum), total & 1 == 1);
            assert_eq!(b.lit_value(carry), total >= 2);
        }
    }

    #[test]
    fn and_or_many_reduce() {
        let mut b = CnfBuilder::new();
        let lits: Vec<Lit> = (0..4).map(|_| b.new_lit()).collect();
        let all = b.and_many(&lits);
        b.assert_lit(all);
        assert!(b.solve().is_sat());
        for &l in &lits {
            assert!(b.lit_value(l));
        }

        let mut b2 = CnfBuilder::new();
        let lits2: Vec<Lit> = (0..4).map(|_| b2.new_lit()).collect();
        let any = b2.or_many(&lits2);
        b2.assert_lit(!any);
        assert!(b2.solve().is_sat());
        for &l in &lits2 {
            assert!(!b2.lit_value(l));
        }
    }

    #[test]
    fn empty_reductions_are_constants() {
        let mut b = CnfBuilder::new();
        let t = b.and_many(&[]);
        let f = b.or_many(&[]);
        b.assert_lit(t);
        b.assert_lit(!f);
        assert!(b.solve().is_sat());
    }

    #[test]
    fn gate_simplifications() {
        let mut b = CnfBuilder::new();
        let a = b.new_lit();
        assert_eq!(b.and_gate(a, a), a);
        let contradiction = b.and_gate(a, !a);
        let tautology = b.xor_gate(a, !a);
        b.assert_lit(!contradiction);
        b.assert_lit(tautology);
        assert!(b.solve().is_sat());
    }
}
