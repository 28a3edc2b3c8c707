//! Two-phase primal simplex over exact rationals.
//!
//! Bland's rule is used for both the entering and leaving choices, which
//! guarantees termination (no cycling) at the cost of speed — the right
//! trade-off for a verification engine whose answers become certificates.
//!
//! All decision variables are constrained to `x ≥ 0`, the form every LPV
//! encoding in this crate naturally produces (markings, firing counts,
//! backlogs and start times are non-negative).
#![allow(clippy::needless_range_loop)]

use crate::rational::Rational;

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `coeffs · x ≤ rhs`
    Le,
    /// `coeffs · x ≥ rhs`
    Ge,
    /// `coeffs · x = rhs`
    Eq,
}

/// One linear constraint.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Coefficients, one per decision variable.
    pub coeffs: Vec<Rational>,
    /// Relation between the linear form and `rhs`.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: Rational,
}

/// Result of solving a [`Problem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solution {
    /// An optimum exists; carries the objective value and one optimal point.
    Optimal {
        /// Optimal objective value.
        value: Rational,
        /// An optimal assignment (one per decision variable).
        point: Vec<Rational>,
    },
    /// The constraint set is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl Solution {
    /// The optimal value, if one exists.
    pub fn value(&self) -> Option<Rational> {
        match self {
            Solution::Optimal { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Whether the problem was feasible.
    pub fn is_feasible(&self) -> bool {
        !matches!(self, Solution::Infeasible)
    }
}

/// A linear program over non-negative variables.
///
/// # Example
///
/// ```
/// use lp::{Problem, Rational};
///
/// // max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18   (optimum 36 at (2,6))
/// let mut p = Problem::new(2);
/// p.maximize(&[3.into(), 5.into()]);
/// p.add_le(&[1.into(), 0.into()], 4.into());
/// p.add_le(&[0.into(), 2.into()], 12.into());
/// p.add_le(&[3.into(), 2.into()], 18.into());
/// let sol = p.solve();
/// assert_eq!(sol.value(), Some(Rational::integer(36)));
/// ```
#[derive(Debug, Clone)]
pub struct Problem {
    num_vars: usize,
    objective: Vec<Rational>,
    maximize: bool,
    constraints: Vec<Constraint>,
}

impl Problem {
    /// Creates a problem with `num_vars` non-negative decision variables and
    /// a zero objective (a pure feasibility problem until an objective is
    /// set).
    pub fn new(num_vars: usize) -> Self {
        Problem {
            num_vars,
            objective: vec![Rational::ZERO; num_vars],
            maximize: true,
            constraints: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Sets a maximization objective.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != num_vars`.
    pub fn maximize(&mut self, coeffs: &[Rational]) {
        assert_eq!(coeffs.len(), self.num_vars);
        self.objective = coeffs.to_vec();
        self.maximize = true;
    }

    /// Sets a minimization objective.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != num_vars`.
    pub fn minimize(&mut self, coeffs: &[Rational]) {
        assert_eq!(coeffs.len(), self.num_vars);
        self.objective = coeffs.to_vec();
        self.maximize = false;
    }

    fn add(&mut self, coeffs: &[Rational], relation: Relation, rhs: Rational) {
        assert_eq!(coeffs.len(), self.num_vars, "constraint arity mismatch");
        self.constraints.push(Constraint {
            coeffs: coeffs.to_vec(),
            relation,
            rhs,
        });
    }

    /// Adds `coeffs · x ≤ rhs`.
    pub fn add_le(&mut self, coeffs: &[Rational], rhs: Rational) {
        self.add(coeffs, Relation::Le, rhs);
    }

    /// Adds `coeffs · x ≥ rhs`.
    pub fn add_ge(&mut self, coeffs: &[Rational], rhs: Rational) {
        self.add(coeffs, Relation::Ge, rhs);
    }

    /// Adds `coeffs · x = rhs`.
    pub fn add_eq(&mut self, coeffs: &[Rational], rhs: Rational) {
        self.add(coeffs, Relation::Eq, rhs);
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Solves the program with two-phase simplex.
    pub fn solve(&self) -> Solution {
        Tableau::build(self).solve().0
    }

    /// [`Problem::solve`] with telemetry: emits the pivot count of this
    /// solve (`lp.pivots` counter, `lp.pivots_per_solve` histogram) and an
    /// `lp.solve_calls` counter through `instrument`.
    pub fn solve_instrumented(&self, instrument: &telemetry::SharedInstrument) -> Solution {
        let (solution, pivots) = Tableau::build(self).solve();
        instrument.counter_add("lp.solve_calls", 1);
        instrument.counter_add("lp.pivots", pivots);
        instrument.record("lp.pivots_per_solve", pivots);
        solution
    }
}

/// Simplex tableau in canonical form, stored densely; every row update
/// skips zero entries.
struct Tableau {
    /// rows[i][j], j in 0..total_cols; last column is the RHS.
    rows: Vec<Vec<Rational>>,
    /// cost[j] for j in 0..total_cols-1 (reduced costs, minimization).
    cost: Vec<Rational>,
    /// Objective constant accumulated by pricing out.
    cost_rhs: Rational,
    basis: Vec<usize>,
    num_structural: usize,
    first_artificial: usize,
    total_cols: usize, // includes RHS column
    maximize: bool,
    objective: Vec<Rational>,
    /// Pivot operations performed (both phases) — the solver's work metric.
    pivots: u64,
}

impl Tableau {
    fn build(p: &Problem) -> Tableau {
        let m = p.constraints.len();
        // Column layout: structural | slack/surplus | artificial | RHS.
        let mut num_slack = 0;
        for c in &p.constraints {
            if matches!(c.relation, Relation::Le | Relation::Ge) {
                num_slack += 1;
            }
        }
        let first_slack = p.num_vars;
        let first_artificial = first_slack + num_slack;
        // Worst case: one artificial per row.
        let total_cols = first_artificial + m + 1;
        let rhs_col = total_cols - 1;

        let mut rows = vec![vec![Rational::ZERO; total_cols]; m];
        let mut basis = vec![usize::MAX; m];
        let mut next_slack = first_slack;
        let mut next_artificial = first_artificial;

        for (i, c) in p.constraints.iter().enumerate() {
            let flip = c.rhs.is_negative();
            let sign = if flip { -Rational::ONE } else { Rational::ONE };
            for (j, &a) in c.coeffs.iter().enumerate() {
                rows[i][j] = sign * a;
            }
            rows[i][rhs_col] = sign * c.rhs;
            let relation = match (c.relation, flip) {
                (Relation::Le, false) | (Relation::Ge, true) => Relation::Le,
                (Relation::Ge, false) | (Relation::Le, true) => Relation::Ge,
                (Relation::Eq, _) => Relation::Eq,
            };
            match relation {
                Relation::Le => {
                    rows[i][next_slack] = Rational::ONE;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    rows[i][next_slack] = -Rational::ONE;
                    next_slack += 1;
                    rows[i][next_artificial] = Rational::ONE;
                    basis[i] = next_artificial;
                    next_artificial += 1;
                }
                Relation::Eq => {
                    rows[i][next_artificial] = Rational::ONE;
                    basis[i] = next_artificial;
                    next_artificial += 1;
                }
            }
        }

        Tableau {
            rows,
            cost: vec![Rational::ZERO; total_cols - 1],
            cost_rhs: Rational::ZERO,
            basis,
            num_structural: p.num_vars,
            first_artificial,
            total_cols,
            maximize: p.maximize,
            objective: p.objective.clone(),
            pivots: 0,
        }
    }

    fn rhs_col(&self) -> usize {
        self.total_cols - 1
    }

    /// Pivots on `(row, col)`. Only the pivot row's nonzero entries take
    /// part: `v − f·0 = v` exactly, and every entry is in lowest terms, so
    /// an update through a zero entry would return its input unchanged.
    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let pivot_val = self.rows[row][col];
        debug_assert!(!pivot_val.is_zero());
        let inv = pivot_val.recip();
        let mut pivot_row = Vec::new();
        for (j, v) in self.rows[row].iter_mut().enumerate() {
            if !v.is_zero() {
                *v = *v * inv;
                pivot_row.push((j, *v));
            }
        }
        for (i, r) in self.rows.iter_mut().enumerate() {
            if i == row {
                continue;
            }
            let factor = r[col];
            if factor.is_zero() {
                continue;
            }
            for &(j, pv) in &pivot_row {
                r[j] -= factor * pv;
            }
        }
        // Cost row.
        let factor = self.cost[col];
        if !factor.is_zero() {
            let rhs_col = self.rhs_col();
            for &(j, pv) in &pivot_row {
                if j == rhs_col {
                    self.cost_rhs -= factor * pv;
                } else {
                    self.cost[j] -= factor * pv;
                }
            }
        }
        self.basis[row] = col;
    }

    /// Runs simplex iterations until optimal/unbounded. `allowed` masks the
    /// columns permitted to enter the basis. Returns `false` on unbounded.
    fn iterate(&mut self, allowed: &dyn Fn(usize) -> bool) -> bool {
        loop {
            // Bland's rule: smallest index with negative reduced cost.
            let entering = (0..self.cost.len()).find(|&j| allowed(j) && self.cost[j].is_negative());
            let Some(col) = entering else {
                return true; // optimal
            };
            // Ratio test; Bland tie-break on smallest basis variable.
            let rhs_col = self.rhs_col();
            let mut best: Option<(usize, Rational)> = None;
            for i in 0..self.rows.len() {
                let a = self.rows[i][col];
                if a.is_positive() {
                    let ratio = self.rows[i][rhs_col] / a;
                    match best {
                        None => best = Some((i, ratio)),
                        Some((bi, br)) => {
                            if ratio < br || (ratio == br && self.basis[i] < self.basis[bi]) {
                                best = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            match best {
                None => return false, // unbounded
                Some((row, _)) => self.pivot(row, col),
            }
        }
    }

    fn solve(mut self) -> (Solution, u64) {
        let solution = self.solve_inner();
        (solution, self.pivots)
    }

    fn solve_inner(&mut self) -> Solution {
        let rhs_col = self.rhs_col();
        let has_artificials = self.basis.iter().any(|&b| b >= self.first_artificial);

        if has_artificials {
            // Phase 1: minimize the sum of artificial variables.
            for j in self.first_artificial..self.total_cols - 1 {
                self.cost[j] = Rational::ONE;
            }
            // Price out rows whose basic variable is artificial.
            for i in 0..self.rows.len() {
                if self.basis[i] >= self.first_artificial {
                    for (c, &v) in self.cost.iter_mut().zip(&self.rows[i]) {
                        if !v.is_zero() {
                            *c -= v;
                        }
                    }
                    self.cost_rhs -= self.rows[i][rhs_col];
                }
            }
            let bounded = self.iterate(&|_| true);
            debug_assert!(bounded, "phase-1 objective is bounded below by 0");
            // Optimal phase-1 value = -cost_rhs (cost row tracks -z).
            if !self.cost_rhs.is_zero() {
                return Solution::Infeasible;
            }
            // Drive any remaining artificial variables out of the basis.
            for i in 0..self.rows.len() {
                if self.basis[i] >= self.first_artificial {
                    let col = (0..self.first_artificial).find(|&j| !self.rows[i][j].is_zero());
                    if let Some(col) = col {
                        self.pivot(i, col);
                    }
                    // If no pivot column exists the row is 0 = 0 (redundant);
                    // the artificial stays basic at value 0, which is safe
                    // because artificials are barred from re-entering.
                }
            }
        }

        // Phase 2: the real objective (internally minimized).
        for c in &mut self.cost {
            *c = Rational::ZERO;
        }
        self.cost_rhs = Rational::ZERO;
        for j in 0..self.num_structural {
            self.cost[j] = if self.maximize {
                -self.objective[j]
            } else {
                self.objective[j]
            };
        }
        // Price out current basis.
        for i in 0..self.rows.len() {
            let b = self.basis[i];
            let cb = self.cost[b];
            if !cb.is_zero() {
                for (c, &v) in self.cost.iter_mut().zip(&self.rows[i]) {
                    if !v.is_zero() {
                        *c -= cb * v;
                    }
                }
                self.cost_rhs -= cb * self.rows[i][rhs_col];
            }
        }
        let first_artificial = self.first_artificial;
        let bounded = self.iterate(&|j| j < first_artificial);
        if !bounded {
            return Solution::Unbounded;
        }

        let mut point = vec![Rational::ZERO; self.num_structural];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.num_structural {
                point[b] = self.rows[i][rhs_col];
            }
        }
        // Internal min of (±objective); cost_rhs tracks -z.
        let z = -self.cost_rhs;
        let value = if self.maximize { -z } else { z };
        Solution::Optimal { value, point }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rational {
        Rational::integer(n)
    }

    fn rq(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn instrumented_solve_reports_pivots() {
        let collector = telemetry::Collector::shared();
        let instr: telemetry::SharedInstrument = collector.clone();
        let mut p = Problem::new(2);
        p.maximize(&[r(3), r(5)]);
        p.add_le(&[r(1), r(0)], r(4));
        p.add_le(&[r(0), r(2)], r(12));
        p.add_le(&[r(3), r(2)], r(18));
        let sol = p.solve_instrumented(&instr);
        assert_eq!(sol, p.solve());
        assert_eq!(collector.counter("lp.solve_calls"), 1);
        assert!(collector.counter("lp.pivots") >= 1);
        assert_eq!(collector.histogram("lp.pivots_per_solve").count(), 1);
    }

    #[test]
    fn classic_max_problem() {
        let mut p = Problem::new(2);
        p.maximize(&[r(3), r(5)]);
        p.add_le(&[r(1), r(0)], r(4));
        p.add_le(&[r(0), r(2)], r(12));
        p.add_le(&[r(3), r(2)], r(18));
        match p.solve() {
            Solution::Optimal { value, point } => {
                assert_eq!(value, r(36));
                assert_eq!(point, vec![r(2), r(6)]);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn minimization() {
        // min x + y  s.t.  x + y ≥ 2, x ≥ 0, y ≥ 0 → 2.
        let mut p = Problem::new(2);
        p.minimize(&[r(1), r(1)]);
        p.add_ge(&[r(1), r(1)], r(2));
        assert_eq!(p.solve().value(), Some(r(2)));
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(1);
        p.maximize(&[r(1)]);
        p.add_le(&[r(1)], r(1));
        p.add_ge(&[r(1)], r(2));
        assert_eq!(p.solve(), Solution::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(1);
        p.maximize(&[r(1)]);
        p.add_ge(&[r(1)], r(0));
        assert_eq!(p.solve(), Solution::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // max x − y  s.t.  x + y = 10, x ≤ 7 → x=7, y=3, value 4.
        let mut p = Problem::new(2);
        p.maximize(&[r(1), r(-1)]);
        p.add_eq(&[r(1), r(1)], r(10));
        p.add_le(&[r(1), r(0)], r(7));
        match p.solve() {
            Solution::Optimal { value, point } => {
                assert_eq!(value, r(4));
                assert_eq!(point, vec![r(7), r(3)]);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x − y ≤ −1  means  y ≥ x + 1; min y s.t. that and x ≥ 2 → y = 3.
        let mut p = Problem::new(2);
        p.minimize(&[r(0), r(1)]);
        p.add_le(&[r(1), r(-1)], r(-1));
        p.add_ge(&[r(1), r(0)], r(2));
        assert_eq!(p.solve().value(), Some(r(3)));
    }

    #[test]
    fn fractional_optimum_is_exact() {
        // max x  s.t.  3x ≤ 1 → x = 1/3 exactly.
        let mut p = Problem::new(1);
        p.maximize(&[r(1)]);
        p.add_le(&[r(3)], r(1));
        assert_eq!(p.solve().value(), Some(rq(1, 3)));
    }

    /// Beale's classic cycling example must terminate under Bland's rule.
    #[test]
    fn beale_cycling_example_terminates() {
        // min -3/4 x1 + 150 x2 - 1/50 x3 + 6 x4
        // s.t. 1/4 x1 - 60 x2 - 1/25 x3 + 9 x4 ≤ 0
        //      1/2 x1 - 90 x2 - 1/50 x3 + 3 x4 ≤ 0
        //      x3 ≤ 1
        let mut p = Problem::new(4);
        p.minimize(&[rq(-3, 4), r(150), rq(-1, 50), r(6)]);
        p.add_le(&[rq(1, 4), r(-60), rq(-1, 25), r(9)], r(0));
        p.add_le(&[rq(1, 2), r(-90), rq(-1, 50), r(3)], r(0));
        p.add_le(&[r(0), r(0), r(1), r(0)], r(1));
        match p.solve() {
            Solution::Optimal { value, .. } => assert_eq!(value, rq(-1, 20)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn pure_feasibility_problem() {
        let mut p = Problem::new(2);
        p.add_eq(&[r(1), r(1)], r(5));
        p.add_ge(&[r(1), r(0)], r(2));
        let sol = p.solve();
        assert!(sol.is_feasible());
        if let Solution::Optimal { point, .. } = sol {
            assert_eq!(point[0] + point[1], r(5));
            assert!(point[0] >= r(2));
        }
    }

    #[test]
    fn redundant_equalities_do_not_break_phase_one() {
        let mut p = Problem::new(2);
        p.maximize(&[r(1), r(0)]);
        p.add_eq(&[r(1), r(1)], r(4));
        p.add_eq(&[r(2), r(2)], r(8)); // redundant copy
        p.add_le(&[r(1), r(0)], r(3));
        assert_eq!(p.solve().value(), Some(r(3)));
    }

    #[test]
    fn solution_point_satisfies_all_constraints() {
        let mut p = Problem::new(3);
        p.maximize(&[r(2), r(3), r(1)]);
        p.add_le(&[r(1), r(1), r(1)], r(10));
        p.add_le(&[r(2), r(1), r(0)], r(8));
        p.add_ge(&[r(0), r(1), r(1)], r(2));
        match p.solve() {
            Solution::Optimal { point, .. } => {
                let dot = |c: &[Rational]| -> Rational {
                    c.iter()
                        .zip(&point)
                        .fold(Rational::ZERO, |acc, (&a, &x)| acc + a * x)
                };
                assert!(dot(&[r(1), r(1), r(1)]) <= r(10));
                assert!(dot(&[r(2), r(1), r(0)]) <= r(8));
                assert!(dot(&[r(0), r(1), r(1)]) >= r(2));
                for &x in &point {
                    assert!(!x.is_negative());
                }
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
