//! The CDCL solver core.
#![allow(clippy::needless_range_loop)]

use crate::types::{Lit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (query it via [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
}

impl SolveResult {
    /// Whether the result is [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        matches!(self, SolveResult::Sat)
    }

    /// Whether the result is [`SolveResult::Unsat`].
    pub fn is_unsat(self) -> bool {
        matches!(self, SolveResult::Unsat)
    }
}

/// Outcome of a [`Solver::solve_budgeted`] call: either a definite
/// verdict, or a deterministic report that the effort budget ran out
/// before one was reached. Exhaustion is *not* a solver failure — the
/// solver rests at decision level 0, keeps everything it learnt, and a
/// later call (budgeted or not) picks up from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetedResult {
    /// The search concluded within budget.
    Decided(SolveResult),
    /// A conflict/decision cap was hit first. The caller maps this to an
    /// `Unknown(BudgetExhausted)` verdict, never to Sat/Unsat.
    Exhausted,
}

impl BudgetedResult {
    /// Whether the budget ran out before a verdict.
    pub fn is_exhausted(self) -> bool {
        matches!(self, BudgetedResult::Exhausted)
    }

    /// The verdict, when one was reached.
    pub fn decided(self) -> Option<SolveResult> {
        match self {
            BudgetedResult::Decided(r) => Some(r),
            BudgetedResult::Exhausted => None,
        }
    }
}

const UNASSIGNED: u8 = 2;

/// Value of `l` under `assign`: 1 true, 0 false, [`UNASSIGNED`] otherwise.
#[inline]
fn lit_value(assign: &[u8], l: Lit) -> u8 {
    let a = assign[l.var().index()];
    if a == UNASSIGNED {
        UNASSIGNED
    } else {
        a ^ (l.code() as u8 & 1)
    }
}

/// A clause reference: the offset of the clause's header word in
/// [`Solver`]'s clause arena.
type CRef = u32;

/// A watch-list entry: the watched clause and a *blocker*, one of its
/// other literals. A true blocker proves the clause satisfied without
/// touching the arena.
#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: CRef,
    blocker: Lit,
}

/// `VarOrder::position` of a variable that is not in the heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// Activity-ordered variable heap (MiniSat-style).
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<Var>,
    /// Heap index of each variable, or [`NOT_IN_HEAP`].
    position: Vec<u32>,
}

impl VarOrder {
    fn grow(&mut self, n: usize) {
        if self.position.len() < n {
            self.position.resize(n, NOT_IN_HEAP);
        }
    }

    fn contains(&self, v: Var) -> bool {
        self.position[v.index()] != NOT_IN_HEAP
    }

    fn push(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            self.position[last.index()] = NOT_IN_HEAP;
            return Some(last);
        }
        let top = std::mem::replace(&mut self.heap[0], last);
        self.position[top.index()] = NOT_IN_HEAP;
        self.sift_down(0, act);
        Some(top)
    }

    fn bump(&mut self, v: Var, act: &[f64]) {
        let pos = self.position[v.index()];
        if pos != NOT_IN_HEAP {
            self.sift_up(pos as usize, act);
        }
    }

    /// Moves the variable at heap index `i` up past every parent of
    /// strictly lower activity, shifting each such parent down one level.
    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        let a = act[v.index()];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if a <= act[pv.index()] {
                break;
            }
            self.heap[i] = pv;
            self.position[pv.index()] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.position[v.index()] = i as u32;
    }

    /// Moves the variable at heap index `i` down while its larger child
    /// (the right one only when strictly larger than the left) has
    /// strictly higher activity, shifting that child up one level.
    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        let a = act[v.index()];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && act[self.heap[r].index()] > act[self.heap[l].index()] {
                r
            } else {
                l
            };
            let cv = self.heap[child];
            if act[cv.index()] <= a {
                break;
            }
            self.heap[i] = cv;
            self.position[cv.index()] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.position[v.index()] = i as u32;
    }
}

/// A conflict-driven clause-learning SAT solver.
///
/// Supports incremental use: clauses persist across [`solve`](Solver::solve)
/// calls, and [`solve_under_assumptions`](Solver::solve_under_assumptions)
/// solves under temporary assumptions.
#[derive(Debug)]
pub struct Solver {
    /// Every stored clause (original and learnt) in attach order, each a
    /// header word `len << 1 | learnt` followed by its literal codes. A
    /// [`CRef`] is a header's offset. Nothing deletes clauses, so the
    /// arena only grows and offsets never move.
    arena: Vec<u32>,
    /// Clauses in the arena (original + learnt).
    num_clauses: usize,
    watches: Vec<Vec<Watch>>,
    assign: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<Option<CRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    queue_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    polarity: Vec<bool>,
    /// Conflict analysis's per-variable mark, all `false` between
    /// conflicts (grown by `new_var`, reused by every `analyze`).
    seen: Vec<bool>,
    /// Conflict analysis's learnt-clause buffer, reused across conflicts.
    learnt: Vec<Lit>,
    unsat: bool,
    model: Vec<u8>,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    /// Learnt-clause count, maintained incrementally on attach (there is
    /// no clause-deletion path) so telemetry reads are O(1) instead of a
    /// full clause-database scan.
    num_learnt: usize,
    /// Luby restart multiplier (conflicts before restart = scale × luby).
    restart_scale: u64,
    /// Optional telemetry sink; `None` (the default) keeps the search loop
    /// free of any instrumentation cost.
    instrument: Option<telemetry::SharedInstrument>,
    /// Counter values already flushed to the instrument, so incremental
    /// solve calls emit per-call deltas.
    flushed: (u64, u64, u64),
    /// Solve calls flushed so far (the gauge axis for per-call series).
    flush_calls: u64,
    /// Absolute counter ceilings for the budgeted call in flight
    /// ([`Solver::solve_budgeted`]); `None` outside budgeted calls, so
    /// the plain entry points pay one branch per search iteration and
    /// behave exactly as before.
    budget_conflicts: Option<u64>,
    /// See [`Solver::budget_conflicts`](struct field above).
    budget_decisions: Option<u64>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            arena: Vec::new(),
            num_clauses: 0,
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            queue_head: 0,
            activity: Vec::new(),
            // Historical quirk kept for reproducibility: default-constructed
            // solvers (e.g. inside `CnfBuilder::default`) bump activities by
            // 0, so their decision order is allocation order. `Solver::new`
            // enables real VSIDS via `var_inc = 1.0`.
            var_inc: 0.0,
            order: VarOrder::default(),
            polarity: Vec::new(),
            seen: Vec::new(),
            learnt: Vec::new(),
            unsat: false,
            model: Vec::new(),
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            num_learnt: 0,
            restart_scale: 100,
            instrument: None,
            flushed: (0, 0, 0),
            flush_calls: 0,
            budget_conflicts: None,
            budget_decisions: None,
        }
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow(self.assign.len());
        self.order.push(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of stored clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Number of learnt (conflict-derived) clauses currently stored.
    /// O(1): maintained incrementally by the attach path, not recomputed
    /// by scanning the clause database.
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Conflicts encountered so far (across all solve calls).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Decisions made so far (across all solve calls).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Unit propagations performed so far (across all solve calls).
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Attaches a telemetry instrument. After every solve call
    /// the solver emits decision/conflict/propagation counter deltas and a
    /// conflicts-per-call histogram sample.
    pub fn set_instrument(&mut self, instrument: telemetry::SharedInstrument) {
        self.instrument = Some(instrument);
    }

    /// Adds a clause. Returns `false` when the clause (after level-0
    /// simplification) makes the formula trivially unsatisfiable.
    ///
    /// Must be called at decision level 0 (i.e. not between `solve` steps of
    /// a single search; between whole `solve` calls is fine).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        debug_assert!(self.trail_lim.is_empty());
        if self.unsat {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        lits.sort_unstable();
        lits.dedup();
        // Tautology / falsified-literal simplification at level 0.
        let mut simplified = Vec::with_capacity(lits.len());
        let mut i = 0;
        while i < lits.len() {
            let l = lits[i];
            if i + 1 < lits.len() && lits[i + 1] == !l {
                return true; // tautology: l and ¬l adjacent after sort
            }
            match lit_value(&self.assign, l) {
                1 => return true,        // already satisfied at level 0
                0 => {}                  // falsified at level 0: drop it
                _ => simplified.push(l), // unassigned: keep
            }
            i += 1;
        }
        match simplified.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                if !self.enqueue(simplified[0], None) {
                    self.unsat = true;
                    return false;
                }
                if self.propagate().is_some() {
                    self.unsat = true;
                    return false;
                }
                true
            }
            _ => {
                self.attach_clause(&simplified, false);
                true
            }
        }
    }

    /// Appends a clause of at least two literals to the arena and
    /// watches its first two.
    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        let cr = CRef::try_from(self.arena.len())
            .expect("clause arena offset exceeds u32::MAX; the solver addresses clauses by u32");
        let header = u32::try_from(lits.len() << 1).expect("clause length fits a header word");
        self.arena.push(header | learnt as u32);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.watches[(!lits[0]).code()].push(Watch {
            clause: cr,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watch {
            clause: cr,
            blocker: lits[0],
        });
        self.num_clauses += 1;
        self.num_learnt += learnt as usize;
        cr
    }

    /// The literal codes of the clause at `cr`.
    #[inline]
    fn clause(&self, cr: CRef) -> &[u32] {
        let start = cr as usize + 1;
        &self.arena[start..start + (self.arena[cr as usize] >> 1) as usize]
    }

    /// Every stored clause in attach order, as (learnt, literal codes),
    /// read from the arena's header words.
    fn clauses(&self) -> impl Iterator<Item = (bool, &[u32])> {
        let mut at = 0;
        std::iter::from_fn(move || {
            let header = *self.arena.get(at)?;
            let start = at + 1;
            at = start + (header >> 1) as usize;
            Some((header & 1 == 1, &self.arena[start..at]))
        })
    }

    fn enqueue(&mut self, l: Lit, reason: Option<CRef>) -> bool {
        match lit_value(&self.assign, l) {
            0 => false,
            1 => true,
            _ => {
                let v = l.var().index();
                self.assign[v] = if l.is_positive() { 1 } else { 0 };
                self.level[v] = self.trail_lim.len() as u32;
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Propagates until fixpoint; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<CRef> {
        while self.queue_head < self.trail.len() {
            let p = self.trail[self.queue_head];
            self.queue_head += 1;
            self.propagations += 1;
            let false_lit = (!p).0;
            let mut watch_list = std::mem::take(&mut self.watches[p.code()]);
            let mut keep = 0;
            let mut conflict = None;
            let mut wi = 0;
            while wi < watch_list.len() {
                let watch = watch_list[wi];
                wi += 1;
                if lit_value(&self.assign, watch.blocker) == 1 {
                    watch_list[keep] = watch;
                    keep += 1;
                    continue;
                }
                let start = watch.clause as usize + 1;
                let len = (self.arena[start - 1] >> 1) as usize;
                let lits = &mut self.arena[start..start + len];
                // Ensure lits[0] is the other watched literal.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                let first = Lit(lits[0]);
                if first != watch.blocker && lit_value(&self.assign, first) == 1 {
                    watch_list[keep] = Watch {
                        clause: watch.clause,
                        blocker: first,
                    };
                    keep += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let unfalsified = lits[2..]
                    .iter()
                    .position(|&code| lit_value(&self.assign, Lit(code)) != 0);
                if let Some(k) = unfalsified {
                    lits.swap(1, k + 2);
                    self.watches[(!Lit(lits[1])).code()].push(Watch {
                        clause: watch.clause,
                        blocker: first,
                    });
                    continue;
                }
                // Clause is unit or conflicting.
                watch_list[keep] = Watch {
                    clause: watch.clause,
                    blocker: first,
                };
                keep += 1;
                if !self.enqueue(first, Some(watch.clause)) {
                    // Conflict: keep the remaining watches and bail out.
                    while wi < watch_list.len() {
                        watch_list[keep] = watch_list[wi];
                        keep += 1;
                        wi += 1;
                    }
                    self.queue_head = self.trail.len();
                    conflict = Some(watch.clause);
                }
            }
            watch_list.truncate(keep);
            self.watches[p.code()] = watch_list;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bump(v, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
    }

    /// First-UIP conflict analysis. Writes the learnt clause into
    /// `learnt` (asserting literal first, then one of the highest
    /// remaining level) and returns the backtrack level. Allocates
    /// nothing once `learnt` has grown: reason clauses are read in place
    /// from the arena, and `seen` is all `false` again on return.
    fn analyze(&mut self, mut conflict: CRef, learnt: &mut Vec<Lit>) -> u32 {
        learnt.clear();
        learnt.push(Lit::pos(Var(0))); // placeholder for asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current_level = self.trail_lim.len() as u32;

        loop {
            // Read the clause in place; after the first step, skip the
            // literal the reason clause asserted (slot 0).
            let base = conflict as usize + 1;
            let len = self.clause(conflict).len();
            for at in base + usize::from(p.is_some())..base + len {
                let q = Lit(self.arena[at]);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] == current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find next literal to resolve on.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.expect("found");
                break;
            }
            conflict = self.reason[pv.index()].expect("non-decision has reason");
        }
        // Every current-level mark was cleared on the trail walk; the
        // lower-level ones are exactly the learnt clause's other literals.
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }

        // Backtrack level: second-highest decision level in the clause.
        if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        }
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("non-empty");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("non-empty");
                let v = l.var();
                self.polarity[v.index()] = l.is_positive();
                self.assign[v.index()] = UNASSIGNED;
                self.reason[v.index()] = None;
                self.order.push(v, &self.activity);
            }
        }
        // Never advance past unpropagated literals: when the solver is
        // already at (or below) `level` — e.g. a restart right after a
        // backjump to level 0 enqueued an asserting unit — the pending
        // tail of the trail must still be propagated, not skipped.
        self.queue_head = self.queue_head.min(self.trail.len());
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v.index()] == UNASSIGNED {
                return Some(v);
            }
        }
        None
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_under_assumptions(&[])
    }

    /// Solves under temporary `assumptions` — literals forced true for
    /// this call only, retracted afterwards. This is the incremental
    /// entry point: everything the previous calls paid for — learnt
    /// clauses, variable activities, saved phases — is retained, so a
    /// caller that keeps one solver alive (the BMC unroller adding frame
    /// k+1 on top of frame k, or k-induction sharing the transition
    /// relation between base and step cases) re-solves only what the new
    /// clauses add. Keeping learnt clauses across calls is sound because
    /// each one is a resolvent of the *permanent* clause set: assumptions
    /// enter the search as scoped decisions, never as clauses, so no
    /// learnt clause can depend on a retracted assumption.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_inner(assumptions)
            .expect("unbudgeted solve always reaches a verdict")
    }

    /// Like [`Solver::solve_under_assumptions`], but gives up
    /// deterministically once the search has spent `effort`'s conflict or
    /// decision allowance (measured from this call's starting counters, so
    /// budgets compose across incremental calls). An unbounded `effort` is
    /// exactly `solve_under_assumptions`. Budgets are effort-based, never
    /// wall-clock: the same query with the same budget exhausts at the
    /// same point on every machine and worker count. On exhaustion the solver backtracks to
    /// level 0 and keeps its learnt clauses, so retrying with a larger
    /// budget resumes rather than restarts.
    pub fn solve_budgeted(&mut self, assumptions: &[Lit], effort: &exec::Effort) -> BudgetedResult {
        self.budget_conflicts = effort
            .sat_conflicts
            .map(|cap| self.conflicts.saturating_add(cap));
        self.budget_decisions = effort
            .sat_decisions
            .map(|cap| self.decisions.saturating_add(cap));
        let result = self.solve_inner(assumptions);
        self.budget_conflicts = None;
        self.budget_decisions = None;
        match result {
            Some(r) => BudgetedResult::Decided(r),
            None => {
                // Bump `sat.budget_exhausted` and flush the effort the
                // abandoned call did spend, which `solve_inner` skips for
                // verdict-less returns.
                if let Some(i) = self.instrument.as_ref().filter(|i| i.enabled()) {
                    i.counter_add("sat.budget_exhausted", 1);
                }
                self.flush_telemetry();
                BudgetedResult::Exhausted
            }
        }
    }

    fn solve_inner(&mut self, assumptions: &[Lit]) -> Option<SolveResult> {
        if self.unsat {
            self.flush_telemetry();
            return Some(SolveResult::Unsat);
        }
        if self.propagate().is_some() {
            self.unsat = true;
            self.flush_telemetry();
            return Some(SolveResult::Unsat);
        }
        let result = self.search(assumptions);
        if let Some(r) = result {
            if r.is_sat() {
                // Snapshot the model before clearing search state.
                self.model.clone_from(&self.assign);
            }
        }
        // Leave level-0 state only.
        self.backtrack_to(0);
        if result.is_some() {
            self.flush_telemetry();
        }
        result
    }

    /// Emits counter deltas accumulated since the previous flush plus one
    /// conflicts-per-call histogram sample.
    fn flush_telemetry(&mut self) {
        let Some(i) = self.instrument.as_ref().filter(|i| i.enabled()) else {
            return;
        };
        let (dec, con, prop) = self.flushed;
        self.flush_calls += 1;
        i.counter_add("sat.solve_calls", 1);
        // Calls after the first on the same solver reuse its learnt
        // clauses and activities — the incremental-solving payoff.
        if self.flush_calls > 1 {
            i.counter_add("sat.incremental_solve_calls", 1);
        }
        i.counter_add("sat.decisions", self.decisions.saturating_sub(dec));
        i.counter_add("sat.conflicts", self.conflicts.saturating_sub(con));
        i.counter_add("sat.propagations", self.propagations.saturating_sub(prop));
        i.record(
            "sat.conflicts_per_solve",
            self.conflicts.saturating_sub(con),
        );
        // Clause-database growth per call; O(1) thanks to the incremental
        // learnt count (gauge axis = solve-call ordinal).
        i.gauge_set(
            "sat.learnt_clauses",
            self.flush_calls,
            self.num_learnt as i64,
        );
        self.flushed = (self.decisions, self.conflicts, self.propagations);
    }

    fn luby(i: u64) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        let mut k = 1u32;
        loop {
            if i == (1u64 << k) - 1 {
                return 1u64 << (k - 1);
            }
            if i < (1u64 << k) - 1 {
                return Self::luby(i - (1u64 << (k - 1)) + 1);
            }
            k += 1;
        }
    }

    fn search(&mut self, assumptions: &[Lit]) -> Option<SolveResult> {
        let mut restart_count = 1u64;
        let mut conflict_budget = self.restart_scale * Self::luby(restart_count);
        let mut conflicts_here = 0u64;

        loop {
            // Deterministic effort budget ([`Solver::solve_budgeted`]):
            // abandon the search once either lifetime counter reaches its
            // absolute ceiling. Checked on the same progress axis on every
            // run, so exhaustion is bit-reproducible — unlike wall-clock.
            if self
                .budget_conflicts
                .is_some_and(|cap| self.conflicts >= cap)
                || self
                    .budget_decisions
                    .is_some_and(|cap| self.decisions >= cap)
            {
                return None;
            }
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                conflicts_here += 1;
                // The conflicting clause may be falsified entirely below the
                // current decision level (possible with assumption levels
                // that introduced no assignment). Backtrack to the highest
                // level actually involved so analysis sees a literal at the
                // conflict level.
                let conflict_level = self
                    .clause(conflict)
                    .iter()
                    .map(|&code| self.level[Lit(code).var().index()])
                    .max()
                    .unwrap_or(0);
                if conflict_level == 0 {
                    self.unsat = true;
                    return Some(SolveResult::Unsat);
                }
                if conflict_level < self.trail_lim.len() as u32 {
                    self.backtrack_to(conflict_level);
                }
                let mut learnt = std::mem::take(&mut self.learnt);
                let bt = self.analyze(conflict, &mut learnt);
                self.backtrack_to(bt);
                let reason = (learnt.len() > 1).then(|| self.attach_clause(&learnt, true));
                let asserted = self.enqueue(learnt[0], reason);
                self.learnt = learnt;
                if !asserted {
                    self.unsat = true;
                    return Some(SolveResult::Unsat);
                }
                self.decay_activities();
                if conflicts_here >= conflict_budget {
                    // Restart.
                    conflicts_here = 0;
                    restart_count += 1;
                    conflict_budget = self.restart_scale * Self::luby(restart_count);
                    self.backtrack_to(0);
                }
            } else {
                // Re-apply assumptions that got undone (e.g. by restarts).
                let decision_level = self.trail_lim.len();
                if decision_level < assumptions.len() {
                    let a = assumptions[decision_level];
                    match lit_value(&self.assign, a) {
                        1 => {
                            // Already true: open a level anyway to keep the
                            // level/assumption correspondence simple.
                            self.trail_lim.push(self.trail.len());
                        }
                        0 => return Some(SolveResult::Unsat),
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => return Some(SolveResult::Sat),
                    Some(v) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::with_polarity(v, self.polarity[v.index()]);
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }

    /// Value of `var` in the most recent model (complete after a
    /// [`SolveResult::Sat`] answer; variables created later are `None`).
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.model.get(var.index()).copied().unwrap_or(UNASSIGNED) {
            1 => Some(true),
            0 => Some(false),
            _ => None,
        }
    }

    /// Value of a literal in the most recent model (see [`Solver::value`]).
    pub fn lit_is_true(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|v| v == lit.is_positive())
    }

    /// Snapshots the *original* problem as a standalone CNF: every
    /// non-learnt clause, plus the level-0 forced literals as unit
    /// clauses (units are enqueued on the trail at add time, never stored
    /// in the clause database), plus the empty clause when the formula is
    /// already known unsatisfiable. Call between solve calls (the solver
    /// rests at decision level 0 then). Stored clauses come out in
    /// attach order.
    pub fn export_cnf(&self) -> Cnf {
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        if self.unsat {
            clauses.push(Vec::new());
        }
        for &l in &self.trail {
            if self.level[l.var().index()] == 0 {
                clauses.push(vec![l]);
            }
        }
        for (learnt, lits) in self.clauses() {
            if !learnt {
                clauses.push(lits.iter().map(|&code| Lit(code)).collect());
            }
        }
        Cnf {
            num_vars: self.num_vars(),
            clauses,
        }
    }
}

/// A standalone CNF snapshot (see [`Solver::export_cnf`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables the clauses range over.
    pub num_vars: usize,
    /// Clauses; an empty inner vector is the empty (unsatisfiable) clause.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Loads this CNF into a fresh or compatible solver (allocates
    /// variables up to `num_vars` first, preserving variable identity).
    pub fn load_into(&self, solver: &mut Solver) {
        while solver.num_vars() < self.num_vars {
            solver.new_var();
        }
        for clause in &self.clauses {
            solver.add_clause(clause.iter().copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Solver {
        /// Sets the Luby restart multiplier (default 100 conflicts), so a
        /// regression test can restart on every conflict.
        fn set_restart_scale(&mut self, scale: u64) {
            self.restart_scale = scale.max(1);
        }
    }

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn instrument_sees_per_call_deltas() {
        let collector = telemetry::Collector::shared();
        let mut s = Solver::new();
        s.set_instrument(collector.clone());
        let v = vars(&mut s, 3);
        s.add_clause([Lit::pos(v[0]), Lit::pos(v[1])]);
        s.add_clause([Lit::neg(v[0]), Lit::pos(v[2])]);
        assert!(s.solve().is_sat());
        assert!(s.solve_under_assumptions(&[Lit::neg(v[1])]).is_sat());
        assert_eq!(collector.counter("sat.solve_calls"), 2);
        // Two flushes means two histogram samples, and the counter matches
        // the solver's own running total (deltas, not double-counted sums).
        assert_eq!(collector.histogram("sat.conflicts_per_solve").count(), 2);
        assert_eq!(collector.counter("sat.decisions"), s.decisions());
        assert_eq!(collector.counter("sat.conflicts"), s.conflicts());
        assert_eq!(collector.counter("sat.propagations"), s.propagations());
    }

    #[test]
    fn unit_clauses_force_values() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([Lit::pos(v[0])]);
        s.add_clause([Lit::neg(v[1])]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.value(v[1]), Some(false));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([Lit::pos(v)]);
        let ok = s.add_clause([Lit::neg(v)]);
        assert!(!ok);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause([Lit::pos(v), Lit::neg(v)]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn three_sat_instance_with_unique_model() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        // Force v0=1, v1=0, v2=1 via implications.
        s.add_clause([Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        s.add_clause([Lit::pos(v[0])]);
        s.add_clause([Lit::neg(v[0]), Lit::neg(v[1])]);
        s.add_clause([Lit::pos(v[1]), Lit::pos(v[2])]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.value(v[1]), Some(false));
        assert_eq!(s.value(v[2]), Some(true));
    }

    /// Pigeonhole principle PHP(n+1, n) is unsatisfiable; n=4 forces real
    /// conflict analysis and restarts.
    #[test]
    fn pigeonhole_is_unsat() {
        let pigeons = 5;
        let holes = 4;
        let mut s = Solver::new();
        let mut x = vec![vec![Var(0); holes]; pigeons];
        for p in 0..pigeons {
            for h in 0..holes {
                x[p][h] = s.new_var();
            }
        }
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| Lit::pos(x[p][h])));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause([Lit::neg(x[p1][h]), Lit::neg(x[p2][h])]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        assert!(s.conflicts() > 0);
    }

    /// Builds the (unsatisfiable) pigeonhole instance PHP(5, 4) — hard
    /// enough that a one-conflict budget cannot finish it.
    fn pigeonhole_solver() -> Solver {
        let pigeons = 5;
        let holes = 4;
        let mut s = Solver::new();
        let mut x = vec![vec![Var(0); holes]; pigeons];
        for p in 0..pigeons {
            for h in 0..holes {
                x[p][h] = s.new_var();
            }
        }
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| Lit::pos(x[p][h])));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause([Lit::neg(x[p1][h]), Lit::neg(x[p2][h])]);
                }
            }
        }
        s
    }

    #[test]
    fn unbounded_budget_matches_plain_solve() {
        let mut budgeted = pigeonhole_solver();
        let mut plain = pigeonhole_solver();
        assert_eq!(
            budgeted.solve_budgeted(&[], &exec::Effort::unbounded()),
            BudgetedResult::Decided(plain.solve())
        );
        assert_eq!(budgeted.conflicts(), plain.conflicts());
        assert_eq!(budgeted.decisions(), plain.decisions());
    }

    #[test]
    fn tiny_budget_exhausts_deterministically_and_solver_stays_usable() {
        let effort = exec::Effort {
            sat_conflicts: Some(1),
            sat_decisions: None,
            bdd_nodes: None,
        };
        let mut a = pigeonhole_solver();
        let mut b = pigeonhole_solver();
        assert!(a.solve_budgeted(&[], &effort).is_exhausted());
        assert!(b.solve_budgeted(&[], &effort).is_exhausted());
        // Same effort, same query ⇒ exhaustion at the same point.
        assert_eq!(a.conflicts(), b.conflicts());
        assert_eq!(a.decisions(), b.decisions());
        // The solver rests at level 0 and a later unbudgeted call
        // resumes (learnt clauses intact) to the real verdict.
        assert!(a.solve().is_unsat());
    }

    #[test]
    fn budget_exhaustion_emits_telemetry_counter() {
        let collector = telemetry::Collector::shared();
        let mut s = pigeonhole_solver();
        s.set_instrument(collector.clone());
        let effort = exec::Effort {
            sat_conflicts: Some(1),
            sat_decisions: None,
            bdd_nodes: None,
        };
        assert!(s.solve_budgeted(&[], &effort).is_exhausted());
        assert_eq!(collector.counter("sat.budget_exhausted"), 1);
        // The abandoned call's effort is still flushed as deltas.
        assert_eq!(collector.counter("sat.solve_calls"), 1);
        assert_eq!(collector.counter("sat.conflicts"), s.conflicts());
    }

    #[test]
    fn satisfiable_graph_coloring() {
        // 3-color a 5-cycle (chromatic number 3 → satisfiable).
        let n = 5;
        let k = 3;
        let mut s = Solver::new();
        let mut c = vec![vec![Var(0); k]; n];
        for (i, row) in c.iter_mut().enumerate() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
                let _ = i;
            }
        }
        for row in &c {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
            for a in 0..k {
                for b in (a + 1)..k {
                    s.add_clause([Lit::neg(row[a]), Lit::neg(row[b])]);
                }
            }
        }
        for i in 0..n {
            let j = (i + 1) % n;
            for color in 0..k {
                s.add_clause([Lit::neg(c[i][color]), Lit::neg(c[j][color])]);
            }
        }
        assert!(s.solve().is_sat());
        // Verify the model is a proper coloring.
        for i in 0..n {
            let color_i = (0..k).find(|&a| s.value(c[i][a]) == Some(true));
            assert!(color_i.is_some());
            let j = (i + 1) % n;
            let color_j = (0..k).find(|&a| s.value(c[j][a]) == Some(true));
            assert_ne!(color_i, color_j);
        }
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::neg(a), Lit::pos(b)]); // a -> b
                                                  // Under assumption a ∧ ¬b: unsat.
        assert!(s
            .solve_under_assumptions(&[Lit::pos(a), Lit::neg(b)])
            .is_unsat());
        // Without assumptions: still sat.
        assert!(s.solve().is_sat());
        // Under a alone: b must be true.
        assert!(s.solve_under_assumptions(&[Lit::pos(a)]).is_sat());
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([Lit::pos(v[0]), Lit::pos(v[1])]);
        assert!(s.solve().is_sat());
        s.add_clause([Lit::neg(v[0])]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v[1]), Some(true));
        s.add_clause([Lit::neg(v[1])]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn learnt_count_is_maintained_incrementally() {
        let pigeons = 5;
        let holes = 4;
        let mut s = Solver::new();
        let mut x = vec![vec![Var(0); holes]; pigeons];
        for p in 0..pigeons {
            for h in 0..holes {
                x[p][h] = s.new_var();
            }
        }
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| Lit::pos(x[p][h])));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause([Lit::neg(x[p1][h]), Lit::neg(x[p2][h])]);
                }
            }
        }
        assert_eq!(s.num_learnt(), 0);
        assert!(s.solve().is_unsat());
        // The incremental count matches a fresh scan of the database.
        let scanned = s.clauses().filter(|&(learnt, _)| learnt).count();
        assert!(scanned > 0, "PHP(5,4) must learn clauses");
        assert_eq!(s.num_learnt(), scanned);
    }

    #[test]
    fn aggressive_restarts_never_produce_invalid_models() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..10 {
            let n = 30usize;
            let m = 110usize; // near the 3-SAT phase transition: conflicts abound
            let mut s = Solver::new();
            s.set_restart_scale(1);
            let v = vars(&mut s, n);
            let mut clauses = Vec::new();
            for _ in 0..m {
                let mut lits = Vec::new();
                for _ in 0..3 {
                    let var = v[(next() % n as u64) as usize];
                    let neg = next() % 2 == 0;
                    lits.push(Lit::with_polarity(var, !neg));
                }
                clauses.push(lits.clone());
                s.add_clause(lits);
            }
            if s.solve().is_sat() {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.lit_is_true(l) == Some(true)),
                        "model violates clause under aggressive restarts"
                    );
                }
            }
        }
    }

    #[test]
    fn exported_cnf_reproduces_the_problem() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([Lit::pos(v[0])]); // unit → lands on the trail
        s.add_clause([Lit::neg(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        s.add_clause([Lit::neg(v[1]), Lit::neg(v[2])]);
        assert!(s.solve().is_sat());
        let cnf = s.export_cnf();
        // The exported problem contains the unit (trail) and both stored
        // clauses, but no learnt clauses.
        assert_eq!(cnf.num_vars, 3);
        assert!(cnf.clauses.contains(&vec![Lit::pos(v[0])]));
        // A fresh solver loaded from the export agrees, and keeps agreeing
        // after the original formula is strengthened to UNSAT.
        let mut fresh = Solver::new();
        cnf.load_into(&mut fresh);
        assert!(fresh.solve().is_sat());
        assert_eq!(fresh.value(v[0]), Some(true));

        s.add_clause([Lit::pos(v[1])]);
        s.add_clause([Lit::pos(v[2])]);
        assert!(s.solve().is_unsat());
        let mut fresh2 = Solver::new();
        s.export_cnf().load_into(&mut fresh2);
        assert!(fresh2.solve().is_unsat());
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    /// Random 3-SAT at low clause density should be satisfiable and the
    /// model must actually satisfy every clause.
    #[test]
    fn random_3sat_models_verify() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..10 {
            let n = 30usize;
            let m = 60usize;
            let mut s = Solver::new();
            let v = vars(&mut s, n);
            let mut clauses = Vec::new();
            for _ in 0..m {
                let mut lits = Vec::new();
                for _ in 0..3 {
                    let var = v[(next() % n as u64) as usize];
                    let neg = next() % 2 == 0;
                    lits.push(Lit::with_polarity(var, !neg));
                }
                clauses.push(lits.clone());
                s.add_clause(lits);
            }
            if s.solve().is_sat() {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.lit_is_true(l) == Some(true)),
                        "model violates clause"
                    );
                }
            }
        }
    }
}
