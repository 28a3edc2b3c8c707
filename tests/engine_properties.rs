//! Property-based cross-checks of the formal engines against brute force
//! and against each other — the "two independent reasoning paths must
//! agree" discipline the repo uses everywhere.

use proptest::prelude::*;
use symbad_suite::testkit::{bdd_from_clauses, brute_force_sat, solver_from_clauses};

/// A small random CNF as (num_vars, clauses of literal codes).
fn cnf_strategy() -> impl Strategy<Value = (usize, Vec<Vec<(usize, bool)>>)> {
    (2usize..=6).prop_flat_map(|n| {
        let clause = proptest::collection::vec((0..n, any::<bool>()), 1..=3);
        let clauses = proptest::collection::vec(clause, 1..=12);
        (Just(n), clauses)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sat_solver_agrees_with_brute_force((n, clauses) in cnf_strategy()) {
        let (mut solver, vars) = solver_from_clauses(n, &clauses);
        let expected = brute_force_sat(n, &clauses);
        let got = solver.solve().is_sat();
        prop_assert_eq!(got, expected);
        if got {
            // The model must satisfy every clause.
            for c in &clauses {
                let satisfied = c.iter().any(|&(v, pos)| solver.value(vars[v]) == Some(pos));
                prop_assert!(satisfied);
            }
        }
    }

    #[test]
    fn bdd_agrees_with_brute_force((n, clauses) in cnf_strategy()) {
        let (mgr, formula) = bdd_from_clauses(&clauses);
        let expected = brute_force_sat(n, &clauses);
        prop_assert_eq!(formula != bdd::Ref::FALSE, expected);
        // Model count cross-check against enumeration.
        let count = (0..(1u32 << n)).filter(|&bits| {
            clauses.iter().all(|c| c.iter().any(|&(v, pos)| (bits >> v & 1 == 1) == pos))
        }).count() as u64;
        prop_assert_eq!(mgr.sat_count(formula, n as u32), count);
    }

    #[test]
    fn sat_and_bdd_agree_with_each_other((n, clauses) in cnf_strategy()) {
        let (mut solver, _) = solver_from_clauses(n, &clauses);
        let (_mgr, formula) = bdd_from_clauses(&clauses);
        prop_assert_eq!(solver.solve().is_sat(), formula != bdd::Ref::FALSE);
    }

    #[test]
    fn simplex_optimum_dominates_random_feasible_points(
        coeffs in proptest::collection::vec(1i128..=9, 3),
        bounds in proptest::collection::vec(1i128..=50, 3),
        samples in proptest::collection::vec((0i128..=50, 0i128..=50, 0i128..=50), 10),
    ) {
        use lp::{Problem, Rational};
        // max c·x subject to x_i ≤ b_i (box): optimum = Σ c_i b_i.
        let mut p = Problem::new(3);
        let c: Vec<Rational> = coeffs.iter().map(|&v| Rational::integer(v)).collect();
        p.maximize(&c);
        for (i, &b) in bounds.iter().enumerate() {
            let mut row = vec![Rational::ZERO; 3];
            row[i] = Rational::ONE;
            p.add_le(&row, Rational::integer(b));
        }
        let sol = p.solve();
        let value = sol.value().expect("bounded box LP");
        let expected: i128 = coeffs.iter().zip(&bounds).map(|(&c, &b)| c * b).sum();
        prop_assert_eq!(value, Rational::integer(expected));
        // And the optimum dominates every feasible sample point.
        for (x, y, z) in samples {
            let clamped = [x.min(bounds[0]), y.min(bounds[1]), z.min(bounds[2])];
            let v: i128 = coeffs.iter().zip(&clamped).map(|(&c, &x)| c * x).sum();
            prop_assert!(Rational::integer(v) <= value);
        }
    }

    #[test]
    fn rtl_lowering_agrees_with_simulator_on_random_words(
        a in any::<u16>(),
        b in any::<u16>(),
        op_idx in 0usize..10,
    ) {
        use behav::BinOp;
        let ops = [
            BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or,
            BinOp::Xor, BinOp::Eq, BinOp::Lt, BinOp::Le, BinOp::Gt,
        ];
        let op = ops[op_idx];
        let mut rtl = hdl::Rtl::new("prop");
        let x = rtl.input("x", 16);
        let y = rtl.input("y", 16);
        let o = rtl.binary(op, x, y);
        rtl.output("o", o);
        let expected = rtl.eval_combinational(&[a as u64, b as u64])[0];

        use hdl::lower::{lower, BitCtx, CnfBackend};
        let mut ctx = CnfBackend::new();
        let bits_x: Vec<sat::Lit> = (0..16).map(|_| ctx.bit_fresh()).collect();
        let bits_y: Vec<sat::Lit> = (0..16).map(|_| ctx.bit_fresh()).collect();
        let lowered = lower(&rtl, &mut ctx, &[bits_x.clone(), bits_y.clone()], &[]);
        let out = lowered.outputs(&rtl)[0].1.clone();
        let mut assumptions = Vec::new();
        for (i, &l) in bits_x.iter().enumerate() {
            assumptions.push(sat::Lit::with_polarity(l.var(), a as u64 >> i & 1 == 1));
        }
        for (i, &l) in bits_y.iter().enumerate() {
            assumptions.push(sat::Lit::with_polarity(l.var(), b as u64 >> i & 1 == 1));
        }
        let builder = ctx.builder_mut();
        prop_assert!(builder.solve_with(&assumptions).is_sat());
        let mut got = 0u64;
        for (i, &l) in out.iter().enumerate() {
            if builder.lit_value(l) {
                got |= 1 << i;
            }
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn symbc_certificate_implies_no_concrete_violation(
        branch_count in 1usize..4,
        reconfig_mask in 0u32..16,
    ) {
        // Generate SW with `branch_count` if-blocks; each block reconfigures
        // to config2 in its then-arm iff the mask bit is set, and always
        // calls `root` afterwards. SymbC's verdict must be sound: if it
        // certifies, no concrete branch valuation may hit a missing config.
        use behav::{Expr, FunctionBuilder};
        let mut map = symbc::ConfigMap::new();
        let c1 = map.add_config("config1");
        let c2 = map.add_config("config2");
        map.add_function(c1, "distance");
        map.add_function(c2, "root");

        let mut fb = FunctionBuilder::new("gen", 8);
        let x = fb.param("x", 8);
        fb.reconfigure(c1);
        for i in 0..branch_count {
            let set = reconfig_mask >> i & 1 == 1;
            fb.if_else(
                Expr::eq(
                    Expr::and(Expr::var(x), Expr::constant(1 << i, 8)),
                    Expr::constant(0, 8),
                ),
                |t| {
                    if set {
                        t.reconfigure(c2);
                    } else {
                        t.reconfigure(c1);
                    }
                },
                |e| {
                    e.reconfigure(c2);
                },
            );
            fb.resource_call("root", vec![], None);
        }
        fb.ret(Expr::constant(0, 8));
        let sw = fb.build();
        let verdict = symbc::check(&sw, &map);

        // Concrete check over all inputs via the interpreter with an FPGA
        // emulation handler.
        let mut any_violation = false;
        for input in 0..=255u64 {
            let mut current: Option<behav::ConfigId> = None;
            let mut violated = false;
            // Re-run the abstract machine concretely by interpreting and
            // watching the call trace.
            let out = behav::interp::Interpreter::new(&sw)
                .run(&[input])
                .expect("runs");
            for ev in out.call_trace {
                match ev {
                    behav::interp::CallEvent::Reconfigure(c) => current = Some(c),
                    behav::interp::CallEvent::Resource { func, .. } => {
                        let ok = matches!(current, Some(c) if map.provides(c, &func));
                        if !ok {
                            violated = true;
                        }
                    }
                }
            }
            any_violation |= violated;
        }
        if verdict.is_consistent() {
            prop_assert!(!any_violation, "SymbC certified an unsound program");
        } else {
            // Conversely the abstract analysis found something; for this
            // branch-only program family the analysis is exact, so a
            // concrete violation must exist.
            prop_assert!(any_violation, "SymbC flagged a clean program of an exact family");
        }
    }
}

/// One call of an incremental script, `(kind, literals, cap, assumed)`.
/// Kind `0` adds the first literal as a unit clause, `1..=11` add all
/// three literals as a clause, `12..=13` solve under the first `assumed`
/// literals, and `14..=15` make a budgeted call under them, capped at
/// `cap` conflicts.
type Step = (u8, Vec<(usize, bool)>, u64, usize);

/// A random incremental script over at most 10 variables. Literals are
/// drawn with replacement, so clauses with duplicate literals and
/// tautologies occur, as do contradictory assumptions.
fn script_strategy() -> impl Strategy<Value = (usize, Vec<Step>)> {
    (1usize..=10).prop_flat_map(|n| {
        let step = (
            0u8..=15,
            proptest::collection::vec((0..n, any::<bool>()), 3),
            1u64..=3,
            0usize..=3,
        );
        (Just(n), proptest::collection::vec(step, 1..=60))
    })
}

proptest! {
    // Few tiny-budget calls run out (about one in sixty), so the
    // exhausted-then-resumed leg needs many scripts to be exercised.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Incremental use against brute force: clauses added between calls
    /// (after learnt clauses exist), assumptions, and budgeted calls.
    /// Every decided verdict equals brute force over the clauses so far
    /// plus the assumptions, every model satisfies both, and the call
    /// after an exhausted one reaches the verdict.
    #[test]
    fn incremental_calls_agree_with_brute_force((n, script) in script_strategy()) {
        let mut solver = sat::Solver::new();
        let vars: Vec<sat::Var> = (0..n).map(|_| solver.new_var()).collect();
        let lits = |c: &[(usize, bool)]| -> Vec<sat::Lit> {
            c.iter().map(|&(v, pos)| sat::Lit::with_polarity(vars[v], pos)).collect()
        };
        let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
        for (kind, step, cap, assumed) in script {
            if kind <= 11 {
                let clause = if kind == 0 { step[..1].to_vec() } else { step };
                solver.add_clause(lits(&clause));
                clauses.push(clause);
                continue;
            }
            let assumed = &step[..assumed];
            // Assumptions act as unit clauses for the reference.
            let mut constrained = clauses.clone();
            constrained.extend(assumed.iter().map(|&l| vec![l]));
            let expected = brute_force_sat(n, &constrained);
            let assumptions = lits(assumed);
            let verdict = if kind <= 13 {
                Some(solver.solve_under_assumptions(&assumptions))
            } else {
                let effort = exec::Effort {
                    sat_conflicts: Some(cap),
                    sat_decisions: None,
                    bdd_nodes: None,
                };
                solver.solve_budgeted(&assumptions, &effort).decided()
            };
            let verdict = verdict.unwrap_or_else(|| solver.solve_under_assumptions(&assumptions));
            prop_assert_eq!(verdict.is_sat(), expected);
            if verdict.is_sat() {
                for c in &constrained {
                    let satisfied = c.iter().any(|&(v, pos)| solver.value(vars[v]) == Some(pos));
                    prop_assert!(satisfied, "model violates {:?}", c);
                }
            }
        }
    }
}

/// FNV-1a (64-bit) over little-endian words: the digest the trajectory
/// pin folds each solver's observable state into.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the solver's state after a call that returned `verdict`
    /// (`None` = budget exhausted): the verdict, the last model, the
    /// counters, the clause counts and the exported original problem.
    fn fold(&mut self, s: &sat::Solver, verdict: Option<sat::SolveResult>) {
        self.word(match verdict {
            Some(sat::SolveResult::Unsat) => 0,
            Some(sat::SolveResult::Sat) => 1,
            None => 2,
        });
        for v in 0..s.num_vars() {
            self.word(match s.value(sat::Var::from_index(v)) {
                Some(false) => 0,
                Some(true) => 1,
                None => 2,
            });
        }
        for w in [
            s.conflicts(),
            s.decisions(),
            s.propagations(),
            s.num_learnt() as u64,
            s.num_clauses() as u64,
        ] {
            self.word(w);
        }
        let cnf = s.export_cnf();
        self.word(cnf.num_vars as u64);
        self.word(cnf.clauses.len() as u64);
        for clause in &cnf.clauses {
            self.word(clause.len() as u64);
            for l in clause {
                self.word(l.code() as u64);
            }
        }
    }
}

/// The pinned corpus's three search counters, summed over its cases and
/// asserted on their own so a failing pin says which one moved.
#[derive(Default)]
struct Totals {
    conflicts: u64,
    decisions: u64,
    propagations: u64,
}

impl Totals {
    /// Adds one finished case's counters.
    fn add(&mut self, s: &sat::Solver) {
        self.conflicts += s.conflicts();
        self.decisions += s.decisions();
        self.propagations += s.propagations();
    }
}

/// Loads a DIMACS-convention case into a fresh VSIDS solver.
fn load_case(case: &fuzz::sat_fuzz::CnfCase) -> (sat::Solver, Vec<sat::Var>) {
    let mut s = sat::Solver::new();
    let vars: Vec<sat::Var> = (0..case.num_vars).map(|_| s.new_var()).collect();
    for clause in &case.clauses {
        s.add_clause(dimacs_lits(&vars, clause));
    }
    (s, vars)
}

fn dimacs_lits(vars: &[sat::Var], clause: &[i64]) -> Vec<sat::Lit> {
    clause
        .iter()
        .map(|&l| sat::Lit::with_polarity(vars[(l.unsigned_abs() - 1) as usize], l > 0))
        .collect()
}

/// A three-operand `width`-bit sum as a ripple-carry chain, either
/// `(a + b) + c` or `a + (b + c)`.
fn add3(b: &mut sat::CnfBuilder, x: &[sat::Lit], y: &[sat::Lit], z: &[sat::Lit]) -> Vec<sat::Lit> {
    let add = |b: &mut sat::CnfBuilder, p: &[sat::Lit], q: &[sat::Lit]| {
        let mut carry = b.lit_false();
        p.iter()
            .zip(q)
            .map(|(&pi, &qi)| {
                let (sum, c) = b.full_adder(pi, qi, carry);
                carry = c;
                sum
            })
            .collect::<Vec<_>>()
    };
    let xy = add(b, x, y);
    add(b, &xy, z)
}

/// The CDCL search, pinned bit for bit: verdicts, models, counters,
/// clause counts and exported CNFs over a fixed corpus. A change to the
/// solver's data layout must leave every value here unchanged; only a
/// deliberate change to the search itself may re-pin them.
#[test]
fn cdcl_search_trajectory_is_pinned() {
    use fuzz::rng::FuzzRng;
    use fuzz::{sat_fuzz, share_fuzz};

    let mut rng = FuzzRng::new(20_031);
    let mut t = Totals::default();

    // Conflict-heavy planted 3-XOR systems.
    let mut d = Fnv::new();
    for _ in 0..8 {
        let (mut s, _) = load_case(&share_fuzz::generate_hard(&mut rng));
        let r = s.solve();
        d.fold(&s, Some(r));
        t.add(&s);
    }
    let hard = d.0;

    // Small planted SAT and UNSAT cases.
    let mut d = Fnv::new();
    for _ in 0..100 {
        let bias = rng.next_u64();
        let (mut s, _) = load_case(&sat_fuzz::generate(&mut rng, bias));
        let r = s.solve();
        d.fold(&s, Some(r));
        t.add(&s);
    }
    let planted = d.0;

    // One incremental script: assumptions, clauses appended after learnt
    // clauses, and a budgeted call that exhausts and is then resumed.
    let mut d = Fnv::new();
    let case = share_fuzz::generate_hard(&mut rng);
    let model = case.planted.clone().expect("hard cases are planted");
    let mut s = sat::Solver::new();
    let vars: Vec<sat::Var> = (0..case.num_vars).map(|_| s.new_var()).collect();
    let half = case.clauses.len() / 2;
    for clause in &case.clauses[..half] {
        s.add_clause(dimacs_lits(&vars, clause));
    }
    let agree: Vec<sat::Lit> = (0..4)
        .map(|i| sat::Lit::with_polarity(vars[i], model[i]))
        .collect();
    let r = s.solve_under_assumptions(&agree);
    d.fold(&s, Some(r));
    let r = s.solve_under_assumptions(&[!agree[0], agree[1]]);
    d.fold(&s, Some(r));
    for clause in &case.clauses[half..] {
        s.add_clause(dimacs_lits(&vars, clause));
    }
    let effort = exec::Effort {
        sat_conflicts: Some(25),
        sat_decisions: None,
        bdd_nodes: None,
    };
    let r = s.solve_budgeted(&[], &effort);
    assert!(r.is_exhausted(), "25 conflicts cannot decide a hard case");
    d.fold(&s, r.decided());
    let r = s.solve();
    assert!(r.is_sat(), "the planted model satisfies the case");
    d.fold(&s, Some(r));
    let r = s.solve_under_assumptions(&agree);
    d.fold(&s, Some(r));
    t.add(&s);
    let incremental = d.0;

    // A default-constructed builder (`var_inc = 0`, so decisions follow
    // allocation order) proving a small associativity miter.
    let mut d = Fnv::new();
    let mut b = sat::CnfBuilder::default();
    let width = 5;
    let ops: Vec<Vec<sat::Lit>> = (0..3)
        .map(|_| (0..width).map(|_| b.new_lit()).collect())
        .collect();
    let left = add3(&mut b, &ops[0], &ops[1], &ops[2]);
    let right = add3(&mut b, &ops[1], &ops[2], &ops[0]);
    let diffs: Vec<sat::Lit> = left
        .iter()
        .zip(&right)
        .map(|(&l, &r)| b.xor_gate(l, r))
        .collect();
    let any = b.or_many(&diffs);
    b.assert_lit(any);
    let r = b.solve();
    assert!(r.is_unsat(), "addition is associative and commutative");
    d.fold(b.solver(), Some(r));
    t.add(b.solver());
    let miter = d.0;

    assert_eq!(
        (t.conflicts, t.decisions, t.propagations),
        (2_863, 3_877, 103_607),
        "summed conflicts, decisions, propagations"
    );
    assert_eq!(
        [hard, planted, incremental, miter],
        [
            0xd676_0fd8_d19e_2c61,
            0x11fd_483d_d5c1_909c,
            0xfba4_1ccb_b1f5_a8a4,
            0x9083_446d_4a9e_66c0,
        ],
        "digests of the hard, planted, incremental and miter cases"
    );
}

/// One LP's solve and pivot count, through the instrumented entry point.
fn solve_counting(p: &lp::Problem) -> (lp::Solution, u64) {
    let collector = telemetry::Collector::shared();
    let instrument: telemetry::SharedInstrument = collector.clone();
    let solution = p.solve_instrumented(&instrument);
    (solution, collector.counter("lp.pivots"))
}

impl Fnv {
    fn rational(&mut self, r: lp::Rational) {
        self.word(r.numer() as u64);
        self.word((r.numer() >> 64) as u64);
        self.word(r.denom() as u64);
        self.word((r.denom() >> 64) as u64);
    }

    /// Folds one solve: the outcome, the optimum and its point, and the
    /// pivot count.
    fn lp(&mut self, (solution, pivots): &(lp::Solution, u64)) {
        match solution {
            lp::Solution::Infeasible => self.word(0),
            lp::Solution::Unbounded => self.word(1),
            lp::Solution::Optimal { value, point } => {
                self.word(2);
                self.rational(*value);
                self.word(point.len() as u64);
                for &x in point {
                    self.rational(x);
                }
            }
        }
        self.word(*pivots);
    }
}

/// A random LP: 1–6 variables, 1–6 rows of small integer coefficients
/// (a third of them zero), each row `≤` (half of them), `≥` or `=`, and a
/// random objective to maximize or minimize.
fn random_lp(rng: &mut fuzz::rng::FuzzRng) -> lp::Problem {
    let small = |rng: &mut fuzz::rng::FuzzRng, lo: i64, hi: i64| {
        lp::Rational::from(lo + rng.below((hi - lo + 1) as u64) as i64)
    };
    let n = rng.range_usize(1, 6);
    let mut p = lp::Problem::new(n);
    let objective: Vec<lp::Rational> = (0..n).map(|_| small(rng, -4, 4)).collect();
    if rng.flip() {
        p.maximize(&objective);
    } else {
        p.minimize(&objective);
    }
    for _ in 0..rng.range_usize(1, 6) {
        let row: Vec<lp::Rational> = (0..n)
            .map(|_| {
                if rng.chance(1, 3) {
                    lp::Rational::ZERO
                } else {
                    small(rng, -3, 5)
                }
            })
            .collect();
        let rhs = small(rng, -2, 12);
        match rng.below(4) {
            0 | 1 => p.add_le(&row, rhs),
            2 => p.add_ge(&row, rhs),
            _ => p.add_eq(&row, rhs),
        }
    }
    p
}

/// The exact simplex, pinned bit for bit: every solution (outcome,
/// optimum, point) and pivot count over seeded random LPs and over the
/// LPs the flow solves. A change to the tableau's arithmetic must leave
/// every value here unchanged; only a deliberate change to the pivoting
/// rule may re-pin them.
#[test]
fn simplex_trajectory_is_pinned() {
    use symbad_core::{cascade, level2, partition::ArchConfig, Partition, Workload};

    let mut rng = fuzz::rng::FuzzRng::new(26_001);
    let mut d = Fnv::new();
    let mut kinds = [0u32; 3];
    let mut pivots = 0u64;
    for _ in 0..400 {
        let solved = solve_counting(&random_lp(&mut rng));
        kinds[match solved.0 {
            lp::Solution::Infeasible => 0,
            lp::Solution::Unbounded => 1,
            lp::Solution::Optimal { .. } => 2,
        }] += 1;
        pivots += solved.1;
        d.lp(&solved);
    }
    let random = d.0;

    // The flow's LPs: liveness of the Figure-2 net with and without its
    // frame credit, the level-2 deadline LP, and the FIFO-dimensioning
    // LPs of both level-2 channels on the small and paper workloads.
    let mut d = Fnv::new();
    let mut flow = Vec::new();
    for credits in [0, 1] {
        flow.push(lp::liveness_problem(&cascade::fig2_petri_net(credits)));
    }
    flow.push(cascade::deadline_task_graph().latency_problem());
    for w in [Workload::small(), Workload::paper(20)] {
        for (_, rates) in
            level2::channel_rates(&w, &Partition::paper_level2(), &ArchConfig::default())
        {
            flow.extend(lp::fifo_problems(&rates));
        }
    }
    let mut flow_pivots = 0u64;
    for p in &flow {
        let solved = solve_counting(p);
        flow_pivots += solved.1;
        d.lp(&solved);
    }
    let flow_digest = d.0;

    assert_eq!(kinds, [203, 100, 97], "infeasible, unbounded, optimal");
    assert_eq!((pivots, flow.len(), flow_pivots), (723, 11, 58), "pivots");
    assert_eq!(
        [random, flow_digest],
        [0x3fdd_32f5_453e_90f5, 0xb6c3_89ba_7d95_c8d6],
        "digests of the random and flow LPs"
    );
}
