//! LPV: linear-programming verification.
//!
//! Re-implements the verification style of Dellacherie, Devulder and
//! Lambert, *"Software verification based on linear programming"* (the
//! paper's reference \[7\]), as used by the Symbad flow:
//!
//! * **Deadlock freeness (level 1, experiment E5)** — for marked-graph
//!   abstractions of the dataflow model, liveness holds iff every directed
//!   cycle carries a token (Murata's theorem). The minimum token count over
//!   all cycles is itself a linear program over circulations; a strictly
//!   positive optimum is a liveness *certificate*, a zero optimum yields a
//!   token-free cycle as counterexample.
//! * **Unreachability (level 1)** — the paper turns each deadlock situation
//!   into an unreachability property. Reachable markings satisfy the state
//!   equation `m = m0 + C·σ, σ ≥ 0`; if the LP has no solution the marking
//!   is unreachable (certificate). Feasibility alone is *not* proof of
//!   reachability, so that direction is reported as "possibly reachable".
//! * **Deadline achievement (level 2, experiment E6)** — the worst-case
//!   end-to-end latency of an (acyclic) annotated task graph is the optimum
//!   of a scheduling LP.
//! * **FIFO dimensioning (level 2, experiment E6)** — the minimal safe
//!   channel capacity is the optimum of a backlog LP over arrival/service
//!   rate bounds.
#![allow(clippy::needless_range_loop)]

use crate::petri::{PetriNet, PlaceId, TransitionId};
use crate::rational::Rational;
use crate::simplex::{Problem, Solution};

/// Verdict of the marked-graph liveness (deadlock-freeness) check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LivenessVerdict {
    /// Every directed cycle carries at least `min_cycle_tokens` tokens
    /// (strictly positive): the net is live, hence deadlock-free.
    Live {
        /// The LP optimum: the minimum token count over all cycles.
        min_cycle_tokens: Rational,
    },
    /// A token-free directed cycle exists; the places on it form a
    /// structural deadlock witness.
    TokenFreeCycle {
        /// Places (channels) forming the token-free cycle.
        places: Vec<PlaceId>,
    },
    /// The net is not a marked graph, so the cycle LP is not exact; the
    /// caller should fall back to other techniques.
    NotMarkedGraph,
}

impl LivenessVerdict {
    /// Whether deadlock freeness was certified.
    pub fn is_live(&self) -> bool {
        matches!(self, LivenessVerdict::Live { .. })
    }
}

/// Proves deadlock-freeness of a marked-graph net, or produces a token-free
/// cycle as a counterexample.
///
/// The LP minimizes `m0 · y` over circulations `y ≥ 0, Σy = 1` in the
/// channel graph. Extreme points of that polytope are directed cycles, so a
/// strictly positive optimum certifies that every cycle carries a token
/// (Murata: a marked graph is live iff no token-free directed circuit).
pub fn check_liveness(net: &PetriNet) -> LivenessVerdict {
    if !net.is_marked_graph() {
        return LivenessVerdict::NotMarkedGraph;
    }
    let num_p = net.num_places();
    match liveness_problem(net).solve() {
        Solution::Infeasible => {
            // No circulation at all: the channel graph is acyclic, hence no
            // directed circuit, hence live.
            LivenessVerdict::Live {
                min_cycle_tokens: Rational::ZERO,
            }
        }
        Solution::Unbounded => unreachable!("objective bounded below by 0"),
        Solution::Optimal { value, point } => {
            if value.is_positive() {
                LivenessVerdict::Live {
                    min_cycle_tokens: value,
                }
            } else {
                let support: Vec<PlaceId> = (0..num_p)
                    .filter(|&p| point[p].is_positive())
                    .map(PlaceId)
                    .collect();
                let cycle = extract_cycle(net, &support).unwrap_or(support);
                LivenessVerdict::TokenFreeCycle { places: cycle }
            }
        }
    }
}

/// The circulation LP that [`check_liveness`] solves: minimize `m0 · y`
/// over `y ≥ 0` with flow conservation at every transition and `Σy = 1`.
pub fn liveness_problem(net: &PetriNet) -> Problem {
    let num_p = net.num_places();
    let num_t = net.num_transitions();
    let c = net.incidence();
    let m0 = net.initial_marking();

    // Variables: y_p ≥ 0 per place (flow on the channel edge).
    let mut lp = Problem::new(num_p);
    lp.minimize(
        &m0.iter()
            .map(|&tokens| Rational::integer(tokens as i128))
            .collect::<Vec<_>>(),
    );
    // Flow conservation at every transition: Σ_p C[p][t]·y_p = 0.
    // (For a marked graph C[p][t] ∈ {−1,0,1}: +1 if t produces into p,
    //  −1 if t consumes from p, so this equates in-flow and out-flow.)
    for t in 0..num_t {
        let row: Vec<Rational> = (0..num_p)
            .map(|p| Rational::integer(c[p][t] as i128))
            .collect();
        lp.add_eq(&row, Rational::ZERO);
    }
    // Normalization picks out a non-trivial circulation.
    lp.add_eq(&vec![Rational::ONE; num_p], Rational::ONE);
    lp
}

/// Walks the support of a zero-token circulation to produce one concrete
/// directed cycle of places.
fn extract_cycle(net: &PetriNet, support: &[PlaceId]) -> Option<Vec<PlaceId>> {
    if support.is_empty() {
        return None;
    }
    // In a marked graph, each place has a unique producing and consuming
    // transition; follow consumer → next place in the support.
    let producer_of = |p: PlaceId| -> Option<TransitionId> {
        (0..net.num_transitions())
            .map(TransitionId)
            .find(|&t| net.post(t).contains_key(&p))
    };
    let consumer_of = |p: PlaceId| -> Option<TransitionId> {
        (0..net.num_transitions())
            .map(TransitionId)
            .find(|&t| net.pre(t).contains_key(&p))
    };
    let start = support[0];
    let mut cycle = vec![start];
    let mut current = start;
    for _ in 0..support.len() {
        let consumer = consumer_of(current)?;
        // Next support place produced by that consumer.
        let next = support
            .iter()
            .copied()
            .find(|&p| producer_of(p) == Some(consumer))?;
        if next == start {
            return Some(cycle);
        }
        cycle.push(next);
        current = next;
    }
    None
}

/// A linear constraint on a marking used to describe a (bad) state set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkingConstraint {
    /// The constrained place.
    pub place: PlaceId,
    /// Relation of the token count to `tokens`.
    pub relation: MarkingRelation,
    /// Token count bound.
    pub tokens: u64,
}

/// Relation used in a [`MarkingConstraint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkingRelation {
    /// Token count is at least the bound.
    AtLeast,
    /// Token count is at most the bound.
    AtMost,
    /// Token count equals the bound.
    Exactly,
}

/// Verdict of the state-equation unreachability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reachability {
    /// The state equation is infeasible: no firing sequence can reach a
    /// marking satisfying the constraints. This is a proof.
    Unreachable,
    /// The state equation admits a solution. The marking *may* be reachable;
    /// the rational firing-count vector is returned as a hint for directed
    /// simulation.
    PossiblyReachable {
        /// Per-transition firing counts solving the state equation.
        firing_counts: Vec<Rational>,
    },
}

impl Reachability {
    /// Whether unreachability was proven.
    pub fn is_unreachable(&self) -> bool {
        matches!(self, Reachability::Unreachable)
    }
}

/// Checks whether any marking satisfying `constraints` is reachable,
/// using the state-equation relaxation `m = m0 + C·σ` (exact in the
/// unreachable direction only — LPV's "reachability as LP" idea).
pub fn check_unreachable(net: &PetriNet, constraints: &[MarkingConstraint]) -> Reachability {
    let num_p = net.num_places();
    let num_t = net.num_transitions();
    let c = net.incidence();
    let m0 = net.initial_marking();

    // Variables: m_p (marking) then σ_t (firing counts), all ≥ 0.
    let mut lp = Problem::new(num_p + num_t);
    // State equation per place: m_p − Σ_t C[p][t] σ_t = m0_p.
    for p in 0..num_p {
        let mut row = vec![Rational::ZERO; num_p + num_t];
        row[p] = Rational::ONE;
        for t in 0..num_t {
            row[num_p + t] = Rational::integer(-(c[p][t] as i128));
        }
        lp.add_eq(&row, Rational::integer(m0[p] as i128));
    }
    for cons in constraints {
        let mut row = vec![Rational::ZERO; num_p + num_t];
        row[cons.place.index()] = Rational::ONE;
        let rhs = Rational::integer(cons.tokens as i128);
        match cons.relation {
            MarkingRelation::AtLeast => lp.add_ge(&row, rhs),
            MarkingRelation::AtMost => lp.add_le(&row, rhs),
            MarkingRelation::Exactly => lp.add_eq(&row, rhs),
        }
    }
    match lp.solve() {
        Solution::Infeasible => Reachability::Unreachable,
        Solution::Unbounded | Solution::Optimal { .. } => {
            let point = match lp.solve() {
                Solution::Optimal { point, .. } => point,
                _ => vec![Rational::ZERO; num_p + num_t],
            };
            Reachability::PossiblyReachable {
                firing_counts: point[num_p..].to_vec(),
            }
        }
    }
}

/// An independently checkable unreachability certificate: a non-negative
/// *place invariant* `y` (a conservation law `y·C = 0`, so `y·m` is
/// constant over every firing) whose initial value contradicts the target
/// constraints.
///
/// This is the classical LPV artifact: the verdict is not "the solver said
/// so" but a small witness anyone can re-check with integer arithmetic —
/// see [`InvariantCertificate::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantCertificate {
    /// The invariant weights, one per place (non-negative).
    pub weights: Vec<Rational>,
    /// The conserved quantity: `weights · m0`.
    pub initial_value: Rational,
    /// Lower bound on `weights · m` forced by the target constraints.
    pub target_lower_bound: Rational,
}

impl InvariantCertificate {
    /// Re-checks the certificate against the net and constraints from
    /// scratch: (1) `y ≥ 0`, (2) `y·C = 0`, (3) every marking satisfying
    /// the constraints has `y·m ≥ target_lower_bound > initial_value`.
    ///
    /// Step (3) is sound for `AtLeast`/`Exactly` constraints used as lower
    /// bounds; `AtMost` constraints contribute nothing to the bound.
    pub fn verify(&self, net: &PetriNet, constraints: &[MarkingConstraint]) -> bool {
        let num_p = net.num_places();
        if self.weights.len() != num_p {
            return false;
        }
        if self.weights.iter().any(|w| w.is_negative()) {
            return false;
        }
        // y·C = 0 (conservation).
        let c = net.incidence();
        for t in 0..net.num_transitions() {
            let mut dot = Rational::ZERO;
            for p in 0..num_p {
                dot += self.weights[p] * Rational::integer(c[p][t] as i128);
            }
            if !dot.is_zero() {
                return false;
            }
        }
        // Conserved value at m0.
        let m0 = net.initial_marking();
        let mut init = Rational::ZERO;
        for p in 0..num_p {
            init += self.weights[p] * Rational::integer(m0[p] as i128);
        }
        if init != self.initial_value {
            return false;
        }
        // Lower bound from the constraints: Σ over AtLeast/Exactly places
        // of weight·bound (weights are non-negative and markings too, so
        // other places only add).
        let mut bound = Rational::ZERO;
        for cons in constraints {
            match cons.relation {
                MarkingRelation::AtLeast | MarkingRelation::Exactly => {
                    bound +=
                        self.weights[cons.place.index()] * Rational::integer(cons.tokens as i128);
                }
                MarkingRelation::AtMost => {}
            }
        }
        bound == self.target_lower_bound && self.initial_value < bound
    }
}

/// Searches for an [`InvariantCertificate`] proving the constraints
/// unreachable: an LP over invariant weights `y ≥ 0, y·C = 0` maximizing
/// the slack `bound(y) − y·m0`. Returns `None` when no single place
/// invariant separates the target (the state-equation check
/// [`check_unreachable`] may still succeed — the two relaxations are
/// incomparable in general).
pub fn unreachability_certificate(
    net: &PetriNet,
    constraints: &[MarkingConstraint],
) -> Option<InvariantCertificate> {
    let num_p = net.num_places();
    let num_t = net.num_transitions();
    let c = net.incidence();
    let m0 = net.initial_marking();

    // Variables: y_p ≥ 0. Maximize bound(y) − y·m0, normalized by Σy ≤ 1
    // (otherwise the objective is unbounded whenever positive).
    let mut lp = Problem::new(num_p);
    let mut objective = vec![Rational::ZERO; num_p];
    for (p, obj) in objective.iter_mut().enumerate() {
        let mut coeff = -Rational::integer(m0[p] as i128);
        for cons in constraints {
            if cons.place.index() == p {
                match cons.relation {
                    MarkingRelation::AtLeast | MarkingRelation::Exactly => {
                        coeff += Rational::integer(cons.tokens as i128);
                    }
                    MarkingRelation::AtMost => {}
                }
            }
        }
        *obj = coeff;
    }
    lp.maximize(&objective);
    for t in 0..num_t {
        let row: Vec<Rational> = (0..num_p)
            .map(|p| Rational::integer(c[p][t] as i128))
            .collect();
        lp.add_eq(&row, Rational::ZERO);
    }
    lp.add_le(&vec![Rational::ONE; num_p], Rational::ONE);

    match lp.solve() {
        Solution::Optimal { value, point } if value.is_positive() => {
            let mut initial_value = Rational::ZERO;
            for p in 0..num_p {
                initial_value += point[p] * Rational::integer(m0[p] as i128);
            }
            let mut bound = Rational::ZERO;
            for cons in constraints {
                match cons.relation {
                    MarkingRelation::AtLeast | MarkingRelation::Exactly => {
                        bound += point[cons.place.index()] * Rational::integer(cons.tokens as i128);
                    }
                    MarkingRelation::AtMost => {}
                }
            }
            let cert = InvariantCertificate {
                weights: point,
                initial_value,
                target_lower_bound: bound,
            };
            debug_assert!(cert.verify(net, constraints));
            Some(cert)
        }
        _ => None,
    }
}

/// An annotated task in a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Task name (module or SW-task name).
    pub name: String,
    /// Worst-case execution time in ticks (from profiling/annotation).
    pub duration: u64,
}

/// An acyclic dependency graph of annotated tasks — the level-2 timing
/// abstraction on which deadline properties are proven.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    /// (from, to): `to` cannot start before `from` finishes.
    deps: Vec<(usize, usize)>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Adds a task with a worst-case execution time; returns its index.
    pub fn add_task(&mut self, name: &str, duration: u64) -> usize {
        self.tasks.push(Task {
            name: name.to_owned(),
            duration,
        });
        self.tasks.len() - 1
    }

    /// Declares that `to` depends on (starts after) `from`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add_dep(&mut self, from: usize, to: usize) {
        assert!(from < self.tasks.len() && to < self.tasks.len());
        self.deps.push((from, to));
    }

    /// Tasks in insertion order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The critical path (longest path) by dynamic programming — used to
    /// cross-check the LP bound and to name the path in counterexamples.
    ///
    /// # Panics
    ///
    /// Panics if the dependency graph has a cycle.
    pub fn critical_path(&self) -> (u64, Vec<usize>) {
        let n = self.tasks.len();
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &self.deps {
            indeg[b] += 1;
            succ[a].push(b);
        }
        let mut order: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut head = 0;
        let mut finish = vec![0u64; n];
        let mut pred = vec![usize::MAX; n];
        while head < order.len() {
            let i = order[head];
            head += 1;
            let f = finish[i] + self.tasks[i].duration;
            finish[i] = f;
            for &j in &succ[i] {
                if finish[j] < f {
                    finish[j] = f;
                    pred[j] = i;
                }
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    order.push(j);
                }
            }
        }
        assert!(order.len() == n, "task graph has a cycle");
        let end = (0..n).max_by_key(|&i| finish[i]).unwrap_or(0);
        let mut path = vec![end];
        let mut cur = end;
        while pred[cur] != usize::MAX {
            cur = pred[cur];
            path.push(cur);
        }
        path.reverse();
        (finish.get(end).copied().unwrap_or(0), path)
    }

    /// Worst-case end-to-end latency as a linear program: minimize the
    /// makespan `M` subject to `s_j ≥ s_i + d_i` for every dependency and
    /// `M ≥ s_i + d_i` for every task. The optimum equals the critical-path
    /// length; computing it by LP is the LPV formulation of "timing deadline
    /// achievement".
    pub fn latency_lp(&self) -> Rational {
        if self.tasks.is_empty() {
            return Rational::ZERO;
        }
        match self.latency_problem().solve() {
            Solution::Optimal { value, .. } => value,
            _ => unreachable!("scheduling LP is feasible and bounded"),
        }
    }

    /// The scheduling LP that [`TaskGraph::latency_lp`] solves.
    pub fn latency_problem(&self) -> Problem {
        let n = self.tasks.len();
        // Variables: s_0..s_{n-1}, M.
        let mut lp = Problem::new(n + 1);
        let mut obj = vec![Rational::ZERO; n + 1];
        obj[n] = Rational::ONE;
        lp.minimize(&obj);
        for &(a, b) in &self.deps {
            // s_b − s_a ≥ d_a
            let mut row = vec![Rational::ZERO; n + 1];
            row[b] = Rational::ONE;
            row[a] = -Rational::ONE;
            lp.add_ge(&row, Rational::integer(self.tasks[a].duration as i128));
        }
        for i in 0..n {
            // M − s_i ≥ d_i
            let mut row = vec![Rational::ZERO; n + 1];
            row[n] = Rational::ONE;
            row[i] = -Rational::ONE;
            lp.add_ge(&row, Rational::integer(self.tasks[i].duration as i128));
        }
        lp
    }
}

/// Verdict of a deadline check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlineVerdict {
    /// The worst-case latency provably meets the deadline.
    Met {
        /// Proven worst-case latency.
        latency: Rational,
    },
    /// The worst-case latency exceeds the deadline; the critical path is the
    /// counterexample.
    Violated {
        /// Worst-case latency.
        latency: Rational,
        /// Task indices on the critical path.
        critical_path: Vec<usize>,
    },
}

impl DeadlineVerdict {
    /// Whether the deadline was met.
    pub fn is_met(&self) -> bool {
        matches!(self, DeadlineVerdict::Met { .. })
    }
}

/// Proves or refutes a frame deadline on an annotated task graph.
pub fn check_deadline(graph: &TaskGraph, deadline: u64) -> DeadlineVerdict {
    let latency = graph.latency_lp();
    if latency <= Rational::integer(deadline as i128) {
        DeadlineVerdict::Met { latency }
    } else {
        let (_, path) = graph.critical_path();
        DeadlineVerdict::Violated {
            latency,
            critical_path: path,
        }
    }
}

/// Rate specification of one producer/consumer channel for FIFO sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelRates {
    /// Producer burst: tokens that may arrive at once.
    pub producer_burst: u64,
    /// Producer period: ticks per produced token (sustained rate).
    pub producer_period: u64,
    /// Consumer period: ticks per consumed token (sustained rate).
    pub consumer_period: u64,
    /// Consumer start-up latency in ticks before the first read.
    pub consumer_latency: u64,
    /// Analysis horizon in ticks (bounds the backlog when the consumer is
    /// slower than the producer).
    pub horizon: u64,
}

/// Result of FIFO dimensioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoBound {
    /// Minimal capacity (tokens) under which the producer never blocks.
    pub capacity: u64,
    /// Whether the bound holds for an unbounded horizon (consumer at least
    /// as fast as producer) or only up to the given horizon.
    pub sustained: bool,
}

/// Computes the minimal safe FIFO capacity for a channel as a backlog LP:
/// maximize `P(t) − C(t)` where `P(t) ≤ burst + t/Tp` bounds arrivals and
/// `C(t) ≥ (t − L)/Tc` bounds service, over `0 ≤ t ≤ horizon`.
pub fn dimension_fifo(rates: &ChannelRates) -> FifoBound {
    assert!(rates.producer_period > 0 && rates.consumer_period > 0);
    let [seg1, seg2] = backlog_segments(rates).map(|s| s.max_backlog());
    let bound = seg1.max(seg2);
    // Round up to an integer token capacity, minimum 1.
    let capacity = {
        let n = bound.numer();
        let d = bound.denom();
        let up = if n <= 0 { 0 } else { (n + d - 1) / d };
        (up.max(1)) as u64
    };
    FifoBound {
        capacity,
        sustained: rates.consumer_period <= rates.producer_period,
    }
}

/// Dimensions each channel as an independent obligation, optionally
/// across worker threads; bounds are bit-identical to mapping
/// [`dimension_fifo`] over the slice in order.
pub fn dimension_fifo_batch(rates: &[ChannelRates], mode: exec::ExecMode) -> Vec<FifoBound> {
    let jobs: Vec<usize> = (0..rates.len()).collect();
    exec::map(mode, jobs, |_, i| dimension_fifo(&rates[i]))
}

/// The one-variable LPs that [`dimension_fifo`] solves, one per backlog
/// segment whose time window is non-empty.
pub fn fifo_problems(rates: &ChannelRates) -> Vec<Problem> {
    backlog_segments(rates)
        .iter()
        .filter_map(Segment::problem)
        .collect()
}

/// The backlog bound `intercept + slope·t` over `lo ≤ t ≤ hi`.
struct Segment {
    intercept: Rational,
    slope: Rational,
    lo: Rational,
    hi: Rational,
}

/// The two backlog segments of a channel: before the consumer starts
/// (`0 ≤ t ≤ L`) and after it (`L ≤ t ≤ H`).
fn backlog_segments(rates: &ChannelRates) -> [Segment; 2] {
    let tp = Rational::integer(rates.producer_period as i128);
    let tc = Rational::integer(rates.consumer_period as i128);
    let burst = Rational::integer(rates.producer_burst as i128);
    let lat = Rational::integer(rates.consumer_latency as i128);
    let horizon = Rational::integer(rates.horizon as i128);
    [
        // Segment 1: backlog ≤ burst + t/Tp.
        Segment {
            intercept: burst,
            slope: tp.recip(),
            lo: Rational::ZERO,
            hi: lat.min(horizon),
        },
        // Segment 2: backlog ≤ burst + t/Tp − (t−L)/Tc.
        Segment {
            intercept: burst + lat / tc,
            slope: tp.recip() - tc.recip(),
            lo: lat.min(horizon),
            hi: horizon,
        },
    ]
}

impl Segment {
    /// Maximizes the bound over `u = t − lo`, `0 ≤ u ≤ hi − lo` (shifted
    /// to a non-negative variable, as the simplex core requires); `None`
    /// when the window is empty.
    fn problem(&self) -> Option<Problem> {
        if self.hi < self.lo {
            return None;
        }
        let mut lp = Problem::new(1);
        lp.maximize(&[self.slope]);
        lp.add_le(&[Rational::ONE], self.hi - self.lo);
        Some(lp)
    }

    fn max_backlog(&self) -> Rational {
        let at_lo = self.intercept + self.slope * self.lo;
        match self.problem().map(|lp| lp.solve()) {
            None => at_lo,
            Some(Solution::Optimal { value, .. }) => at_lo + value,
            Some(_) => unreachable!("segment LP is feasible and bounded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure-2 style ring: a → b → c → a with one initial token.
    fn ring(tokens_on_ca: u64) -> PetriNet {
        let mut net = PetriNet::new();
        let a = net.add_transition("a");
        let b = net.add_transition("b");
        let c = net.add_transition("c");
        net.add_channel("ab", a, b, 0);
        net.add_channel("bc", b, c, 0);
        net.add_channel("ca", c, a, tokens_on_ca);
        net
    }

    #[test]
    fn live_ring_is_certified() {
        let verdict = check_liveness(&ring(1));
        match verdict {
            LivenessVerdict::Live { min_cycle_tokens } => {
                assert!(min_cycle_tokens.is_positive());
            }
            other => panic!("expected live, got {other:?}"),
        }
    }

    #[test]
    fn token_free_ring_yields_cycle_counterexample() {
        let verdict = check_liveness(&ring(0));
        match verdict {
            LivenessVerdict::TokenFreeCycle { places } => {
                assert_eq!(places.len(), 3);
            }
            other => panic!("expected token-free cycle, got {other:?}"),
        }
    }

    #[test]
    fn acyclic_net_is_live() {
        let mut net = PetriNet::new();
        let a = net.add_transition("a");
        let b = net.add_transition("b");
        net.add_channel("ab", a, b, 0);
        assert!(check_liveness(&net).is_live());
    }

    #[test]
    fn non_marked_graph_is_rejected() {
        let mut net = PetriNet::new();
        let a = net.add_transition("a");
        let b = net.add_transition("b");
        let p = net.add_place("shared", 1);
        net.add_input_arc(p, a, 1);
        net.add_input_arc(p, b, 1); // two consumers: not a marked graph
        assert_eq!(check_liveness(&net), LivenessVerdict::NotMarkedGraph);
    }

    #[test]
    fn counterexample_cycle_is_confirmed_by_simulation() {
        let net = ring(0);
        let (fired, marking) = net.simulate(10);
        assert!(fired.is_empty());
        assert!(net.is_dead(&marking));
    }

    #[test]
    fn unreachable_marking_is_proven() {
        // In the 1-token ring the total token count is invariant (= 1), so a
        // marking with 2 tokens on `ab` is unreachable.
        let net = ring(1);
        let verdict = check_unreachable(
            &net,
            &[MarkingConstraint {
                place: PlaceId(0),
                relation: MarkingRelation::AtLeast,
                tokens: 2,
            }],
        );
        assert!(verdict.is_unreachable());
    }

    #[test]
    fn reachable_marking_is_not_excluded() {
        let net = ring(1);
        // One token on `ab` (place 0) is reachable by firing `a`.
        let verdict = check_unreachable(
            &net,
            &[MarkingConstraint {
                place: PlaceId(0),
                relation: MarkingRelation::Exactly,
                tokens: 1,
            }],
        );
        assert!(matches!(verdict, Reachability::PossiblyReachable { .. }));
    }

    #[test]
    fn invariant_certificate_separates_unreachable_marking() {
        // 1-token ring: total tokens conserved; 2 tokens anywhere is
        // unreachable, and the uniform invariant proves it.
        let net = ring(1);
        let constraints = [MarkingConstraint {
            place: PlaceId(0),
            relation: MarkingRelation::AtLeast,
            tokens: 2,
        }];
        let cert = unreachability_certificate(&net, &constraints)
            .expect("a place invariant separates this target");
        assert!(cert.verify(&net, &constraints));
        assert!(cert.initial_value < cert.target_lower_bound);
        // And it agrees with the state-equation check.
        assert!(check_unreachable(&net, &constraints).is_unreachable());
    }

    #[test]
    fn no_certificate_for_reachable_marking() {
        let net = ring(1);
        let constraints = [MarkingConstraint {
            place: PlaceId(0),
            relation: MarkingRelation::AtLeast,
            tokens: 1, // reachable by firing `a`
        }];
        assert!(unreachability_certificate(&net, &constraints).is_none());
    }

    #[test]
    fn tampered_certificate_fails_verification() {
        let net = ring(1);
        let constraints = [MarkingConstraint {
            place: PlaceId(0),
            relation: MarkingRelation::AtLeast,
            tokens: 2,
        }];
        let mut cert = unreachability_certificate(&net, &constraints).expect("cert");
        cert.weights[0] += Rational::ONE; // break y·C = 0
        assert!(!cert.verify(&net, &constraints));
        let mut cert2 = unreachability_certificate(&net, &constraints).expect("cert");
        cert2.initial_value = cert2.target_lower_bound; // break the gap
        assert!(!cert2.verify(&net, &constraints));
    }

    fn diamond() -> TaskGraph {
        // a(5) → b(3) → d(2) ; a → c(7) → d : critical path a,c,d = 14.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 5);
        let b = g.add_task("b", 3);
        let c = g.add_task("c", 7);
        let d = g.add_task("d", 2);
        g.add_dep(a, b);
        g.add_dep(a, c);
        g.add_dep(b, d);
        g.add_dep(c, d);
        g
    }

    #[test]
    fn lp_latency_equals_critical_path() {
        let g = diamond();
        let (dp, path) = g.critical_path();
        assert_eq!(dp, 14);
        assert_eq!(path, vec![0, 2, 3]);
        assert_eq!(g.latency_lp(), Rational::integer(14));
    }

    #[test]
    fn deadline_check_verdicts() {
        let g = diamond();
        assert!(check_deadline(&g, 14).is_met());
        assert!(check_deadline(&g, 20).is_met());
        match check_deadline(&g, 13) {
            DeadlineVerdict::Violated {
                latency,
                critical_path,
            } => {
                assert_eq!(latency, Rational::integer(14));
                assert_eq!(critical_path, vec![0, 2, 3]);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn empty_task_graph_has_zero_latency() {
        let g = TaskGraph::new();
        assert_eq!(g.latency_lp(), Rational::ZERO);
    }

    #[test]
    fn fifo_fast_consumer_bound_is_small() {
        // Consumer strictly faster, small latency: capacity ≈ burst + L/Tp.
        let b = dimension_fifo(&ChannelRates {
            producer_burst: 1,
            producer_period: 10,
            consumer_period: 5,
            consumer_latency: 20,
            horizon: 10_000,
        });
        assert!(b.sustained);
        assert_eq!(b.capacity, 3); // 1 + 20/10 = 3
    }

    #[test]
    fn fifo_slow_consumer_grows_with_horizon() {
        let small = dimension_fifo(&ChannelRates {
            producer_burst: 0,
            producer_period: 5,
            consumer_period: 10,
            consumer_latency: 0,
            horizon: 100,
        });
        let large = dimension_fifo(&ChannelRates {
            producer_burst: 0,
            producer_period: 5,
            consumer_period: 10,
            consumer_latency: 0,
            horizon: 1000,
        });
        assert!(!small.sustained);
        assert!(large.capacity > small.capacity);
        // Backlog rate = 1/5 − 1/10 = 1/10 token per tick.
        assert_eq!(small.capacity, 10);
        assert_eq!(large.capacity, 100);
    }

    #[test]
    fn fifo_capacity_is_at_least_one() {
        let b = dimension_fifo(&ChannelRates {
            producer_burst: 0,
            producer_period: 10,
            consumer_period: 1,
            consumer_latency: 0,
            horizon: 100,
        });
        assert_eq!(b.capacity, 1);
    }

    #[test]
    fn fifo_batch_is_bit_identical_to_sequential() {
        let rates = vec![
            ChannelRates {
                producer_burst: 1,
                producer_period: 10,
                consumer_period: 5,
                consumer_latency: 20,
                horizon: 10_000,
            },
            ChannelRates {
                producer_burst: 0,
                producer_period: 5,
                consumer_period: 10,
                consumer_latency: 0,
                horizon: 100,
            },
        ];
        let fifo_ref: Vec<_> = rates.iter().map(dimension_fifo).collect();
        for mode in [
            exec::ExecMode::Sequential,
            exec::ExecMode::Parallel { workers: 2 },
            exec::ExecMode::Parallel { workers: 8 },
        ] {
            assert_eq!(dimension_fifo_batch(&rates, mode), fifo_ref);
        }
    }
}
