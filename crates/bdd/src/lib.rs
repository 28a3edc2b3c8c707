//! A reduced ordered binary decision diagram (ROBDD) package.
//!
//! The Symbad flow's level-4 verification uses symbolic model checking in
//! the RuleBase/SMV tradition; this crate provides the underlying BDD
//! engine: hash-consed nodes, the `ite` operator with memoization, boolean
//! connectives, quantification, the relational product
//! ([`Manager::and_exists`]) used for image computation, variable renaming
//! for current/next-state frames, model extraction and model counting.
//!
//! # Example
//!
//! ```
//! use bdd::Manager;
//!
//! let mut m = Manager::new();
//! let x = m.var(0);
//! let y = m.var(1);
//! let f = m.and(x, y);
//! let g = m.or(x, y);
//! assert!(m.implies_check(f, g));      // x∧y ⇒ x∨y
//! assert_eq!(m.sat_count(f, 2), 1);    // only (1,1)
//! assert_eq!(m.sat_count(g, 2), 3);
//! ```

use std::collections::HashMap;

/// Index of a BDD node inside a [`Manager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ref(u32);

impl Ref {
    /// The constant-false terminal.
    pub const FALSE: Ref = Ref(0);
    /// The constant-true terminal.
    pub const TRUE: Ref = Ref(1);

    /// Whether this is a terminal node.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    low: Ref,
    high: Ref,
}

/// A BDD manager: node storage, unique table, operation caches.
///
/// Variables are identified by `u32` indices; the variable order is the
/// numeric order (lower index = closer to the root).
#[derive(Debug, Default)]
pub struct Manager {
    nodes: Vec<Node>,
    unique: HashMap<Node, Ref>,
    ite_cache: HashMap<(Ref, Ref, Ref), Ref>,
    /// Soft node-allocation ceiling (see [`Manager::set_node_budget`]).
    /// `None` means unbounded — the default.
    node_budget: Option<usize>,
}

impl Manager {
    /// Creates a manager containing only the two terminals.
    pub fn new() -> Self {
        let mut m = Manager::default();
        // Terminals occupy slots 0 and 1 with a sentinel variable index.
        m.nodes.push(Node {
            var: u32::MAX,
            low: Ref::FALSE,
            high: Ref::FALSE,
        });
        m.nodes.push(Node {
            var: u32::MAX,
            low: Ref::TRUE,
            high: Ref::TRUE,
        });
        m
    }

    /// Number of allocated nodes (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Installs a *soft* node-allocation ceiling: once [`Manager::node_count`]
    /// reaches `budget`, [`Manager::node_budget_exhausted`] turns true.
    /// Operations are never interrupted mid-way (a half-built BDD would be
    /// unusable); instead, effort-bounded clients (the `mc::reach` engine)
    /// poll the flag between operations and abandon the computation with a
    /// deterministic `Unknown(BudgetExhausted)` verdict. The ceiling counts
    /// allocated nodes — a machine-independent progress axis — so
    /// exhaustion is bit-reproducible, unlike wall-clock limits.
    pub fn set_node_budget(&mut self, budget: Option<usize>) {
        self.node_budget = budget;
    }

    /// Whether the node budget (if any) has been reached.
    pub fn node_budget_exhausted(&self) -> bool {
        self.node_budget
            .is_some_and(|budget| self.nodes.len() >= budget)
    }

    /// The BDD for the single variable `v`.
    pub fn var(&mut self, v: u32) -> Ref {
        self.mk(v, Ref::FALSE, Ref::TRUE)
    }

    /// The BDD for the negation of variable `v`.
    pub fn nvar(&mut self, v: u32) -> Ref {
        self.mk(v, Ref::TRUE, Ref::FALSE)
    }

    /// The constant BDD for `value`.
    pub fn constant(&self, value: bool) -> Ref {
        if value {
            Ref::TRUE
        } else {
            Ref::FALSE
        }
    }

    fn mk(&mut self, var: u32, low: Ref, high: Ref) -> Ref {
        if low == high {
            return low;
        }
        let node = Node { var, low, high };
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = Ref(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, r);
        r
    }

    fn top_var(&self, r: Ref) -> u32 {
        self.nodes[r.0 as usize].var
    }

    fn cofactors(&self, r: Ref, var: u32) -> (Ref, Ref) {
        let node = self.nodes[r.0 as usize];
        if r.is_const() || node.var != var {
            (r, r)
        } else {
            (node.low, node.high)
        }
    }

    /// If-then-else: the core ROBDD operator.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        // Terminal cases.
        if f == Ref::TRUE {
            return g;
        }
        if f == Ref::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == Ref::TRUE && h == Ref::FALSE {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let top = [f, g, h]
            .iter()
            .filter(|r| !r.is_const())
            .map(|&r| self.top_var(r))
            .min()
            .expect("at least one non-terminal");
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let r = self.mk(top, low, high);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    /// Negation.
    pub fn not(&mut self, f: Ref) -> Ref {
        self.ite(f, Ref::FALSE, Ref::TRUE)
    }

    /// Conjunction.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, Ref::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::TRUE)
    }

    /// Biconditional `f ↔ g`.
    pub fn iff(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Checks `f → g` is a tautology without building the implication BDD
    /// for the caller.
    pub fn implies_check(&mut self, f: Ref, g: Ref) -> bool {
        self.implies(f, g) == Ref::TRUE
    }

    /// Existential quantification of one variable.
    pub fn exists(&mut self, f: Ref, var: u32) -> Ref {
        let (f0, f1) = self.restrict_pair(f, var);
        self.or(f0, f1)
    }

    /// Universal quantification of one variable.
    pub fn forall(&mut self, f: Ref, var: u32) -> Ref {
        let (f0, f1) = self.restrict_pair(f, var);
        self.and(f0, f1)
    }

    /// Existential quantification of a set of variables.
    pub fn exists_many(&mut self, mut f: Ref, vars: &[u32]) -> Ref {
        for &v in vars {
            f = self.exists(f, v);
        }
        f
    }

    fn restrict_pair(&mut self, f: Ref, var: u32) -> (Ref, Ref) {
        (self.restrict(f, var, false), self.restrict(f, var, true))
    }

    /// Cofactor: `f` with `var` fixed to `value`.
    pub fn restrict(&mut self, f: Ref, var: u32, value: bool) -> Ref {
        if f.is_const() {
            return f;
        }
        let node = self.nodes[f.0 as usize];
        if node.var > var {
            return f; // var does not appear (below in order)
        }
        if node.var == var {
            return if value { node.high } else { node.low };
        }
        let low = self.restrict(node.low, var, value);
        let high = self.restrict(node.high, var, value);
        self.mk(node.var, low, high)
    }

    /// Relational product: `∃ vars. f ∧ g`, the workhorse of symbolic image
    /// computation. (Computed pairwise; adequate for the model sizes in this
    /// reproduction.)
    pub fn and_exists(&mut self, f: Ref, g: Ref, vars: &[u32]) -> Ref {
        let conj = self.and(f, g);
        self.exists_many(conj, vars)
    }

    /// Renames variables according to `map` (pairs `(from, to)`); a
    /// variable not in `map` keeps its index.
    ///
    /// Used to move an image from the next-state frame back to the
    /// current one during reachability: `mc::reach` numbers current-state
    /// bits `0..n` and next-state bits `n..2n`, and renames `n + i` to
    /// `i`. Each node is rebuilt with `ite` on its renamed variable, so the
    /// map need not preserve the variable order.
    pub fn rename(&mut self, f: Ref, map: &[(u32, u32)]) -> Ref {
        if f.is_const() {
            return f;
        }
        let node = self.nodes[f.0 as usize];
        let low = self.rename(node.low, map);
        let high = self.rename(node.high, map);
        let var = map
            .iter()
            .find(|(from, _)| *from == node.var)
            .map(|&(_, to)| to)
            .unwrap_or(node.var);
        // Rebuild via ite on the renamed variable to restore ordering.
        let v = self.var(var);
        self.ite(v, high, low)
    }

    /// Evaluates `f` under a total assignment (index = variable).
    pub fn eval(&self, f: Ref, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let node = self.nodes[cur.0 as usize];
            cur = if assignment[node.var as usize] {
                node.high
            } else {
                node.low
            };
        }
        cur == Ref::TRUE
    }

    /// Number of satisfying assignments over `num_vars` variables
    /// (variables indexed `0..num_vars`).
    pub fn sat_count(&self, f: Ref, num_vars: u32) -> u64 {
        let mut memo: HashMap<Ref, f64> = HashMap::new();
        let frac = self.sat_fraction(f, &mut memo);
        (frac * 2f64.powi(num_vars as i32)).round() as u64
    }

    fn sat_fraction(&self, f: Ref, memo: &mut HashMap<Ref, f64>) -> f64 {
        if f == Ref::FALSE {
            return 0.0;
        }
        if f == Ref::TRUE {
            return 1.0;
        }
        if let Some(&v) = memo.get(&f) {
            return v;
        }
        let node = self.nodes[f.0 as usize];
        let v = 0.5 * self.sat_fraction(node.low, memo) + 0.5 * self.sat_fraction(node.high, memo);
        memo.insert(f, v);
        v
    }

    /// Extracts one satisfying assignment as `(var, value)` pairs, or `None`
    /// when `f` is unsatisfiable. Variables not mentioned are don't-cares.
    pub fn any_sat(&self, f: Ref) -> Option<Vec<(u32, bool)>> {
        if f == Ref::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !cur.is_const() {
            let node = self.nodes[cur.0 as usize];
            if node.low != Ref::FALSE {
                path.push((node.var, false));
                cur = node.low;
            } else {
                path.push((node.var, true));
                cur = node.high;
            }
        }
        Some(path)
    }

    /// The set of variables `f` depends on, ascending.
    pub fn support(&self, f: Ref) -> Vec<u32> {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        let mut visited = std::collections::HashSet::new();
        while let Some(r) = stack.pop() {
            if r.is_const() || !visited.insert(r) {
                continue;
            }
            let node = self.nodes[r.0 as usize];
            seen.insert(node.var);
            stack.push(node.low);
            stack.push(node.high);
        }
        seen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_behave() {
        let mut m = Manager::new();
        assert_eq!(m.constant(true), Ref::TRUE);
        assert_eq!(m.constant(false), Ref::FALSE);
        let t = m.not(Ref::FALSE);
        assert_eq!(t, Ref::TRUE);
    }

    #[test]
    fn variables_are_hash_consed() {
        let mut m = Manager::new();
        let a1 = m.var(3);
        let a2 = m.var(3);
        assert_eq!(a1, a2);
        let n = m.node_count();
        let _a3 = m.var(3);
        assert_eq!(m.node_count(), n);
    }

    #[test]
    fn basic_laws() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        // Idempotence, complement, absorption.
        assert_eq!(m.and(x, x), x);
        assert_eq!(m.or(x, x), x);
        let nx = m.not(x);
        assert_eq!(m.and(x, nx), Ref::FALSE);
        assert_eq!(m.or(x, nx), Ref::TRUE);
        let xy = m.and(x, y);
        assert_eq!(m.or(x, xy), x);
        // De Morgan.
        let lhs = {
            let a = m.and(x, y);
            m.not(a)
        };
        let rhs = {
            let nx = m.not(x);
            let ny = m.not(y);
            m.or(nx, ny)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn eval_matches_truth_table_for_random_exprs() {
        // Build f = (x0 ⊕ x1) ∨ (x2 ∧ ¬x0) and compare against direct eval.
        let mut m = Manager::new();
        let x0 = m.var(0);
        let x1 = m.var(1);
        let x2 = m.var(2);
        let a = m.xor(x0, x1);
        let nx0 = m.not(x0);
        let b = m.and(x2, nx0);
        let f = m.or(a, b);
        for bits in 0..8u32 {
            let asn = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let expected = (asn[0] ^ asn[1]) || (asn[2] && !asn[0]);
            assert_eq!(m.eval(f, &asn), expected, "assignment {asn:?}");
        }
    }

    #[test]
    fn quantification() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.and(x, y);
        // ∃x. x∧y  =  y ;  ∀x. x∧y  =  false
        assert_eq!(m.exists(f, 0), y);
        assert_eq!(m.forall(f, 0), Ref::FALSE);
        let g = m.or(x, y);
        // ∀x. x∨y  =  y
        assert_eq!(m.forall(g, 0), y);
        // ∃ over both vars of something satisfiable = true.
        assert_eq!(m.exists_many(f, &[0, 1]), Ref::TRUE);
    }

    #[test]
    fn restrict_is_cofactor() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.xor(x, y);
        let f_x1 = m.restrict(f, 0, true);
        let ny = m.not(y);
        assert_eq!(f_x1, ny);
        let f_x0 = m.restrict(f, 0, false);
        assert_eq!(f_x0, y);
    }

    #[test]
    fn sat_count_known_functions() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        let f = m.and(x, y);
        assert_eq!(m.sat_count(f, 3), 2); // x∧y with z free
        let g = m.or(x, y);
        assert_eq!(m.sat_count(g, 2), 3);
        let xyz = m.and(f, z);
        assert_eq!(m.sat_count(xyz, 3), 1);
        assert_eq!(m.sat_count(Ref::TRUE, 4), 16);
        assert_eq!(m.sat_count(Ref::FALSE, 4), 0);
    }

    #[test]
    fn any_sat_finds_model() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let nx = m.not(x);
        let f = m.and(nx, y);
        let model = m.any_sat(f).expect("satisfiable");
        let mut asn = [false; 2];
        for (v, b) in model {
            asn[v as usize] = b;
        }
        assert!(m.eval(f, &asn));
        assert!(m.any_sat(Ref::FALSE).is_none());
    }

    #[test]
    fn rename_swaps_frames() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(2);
        let f = m.and(x, y);
        // Rename 0→1, 2→3.
        let g = m.rename(f, &[(0, 1), (2, 3)]);
        let x1 = m.var(1);
        let y1 = m.var(3);
        let expected = m.and(x1, y1);
        assert_eq!(g, expected);
    }

    #[test]
    fn and_exists_is_relational_product() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        // ∃x. (x ∨ y) ∧ (¬x ∨ y)  =  y
        let a = m.or(x, y);
        let nx = m.not(x);
        let b = m.or(nx, y);
        let r = m.and_exists(a, b, &[0]);
        assert_eq!(r, y);
    }

    #[test]
    fn support_lists_dependencies() {
        let mut m = Manager::new();
        let x = m.var(0);
        let z = m.var(5);
        let f = m.and(x, z);
        assert_eq!(m.support(f), vec![0, 5]);
        assert!(m.support(Ref::TRUE).is_empty());
    }

    #[test]
    fn node_budget_is_a_soft_polled_ceiling() {
        let mut m = Manager::new();
        assert!(!m.node_budget_exhausted()); // unbounded by default
        m.set_node_budget(Some(4));
        assert!(!m.node_budget_exhausted()); // only the two terminals yet
        let x = m.var(0);
        let y = m.var(1);
        assert!(m.node_count() >= 4);
        assert!(m.node_budget_exhausted());
        // Soft: operations past the ceiling still complete correctly.
        let f = m.and(x, y);
        assert_eq!(m.sat_count(f, 2), 1);
        m.set_node_budget(None);
        assert!(!m.node_budget_exhausted());
    }
}
