//! The bytecode-VM oracle family: random behavioural functions through
//! the tree-walking [`Interpreter`] and the register-bytecode [`Vm`],
//! whole [`behav::interp::RunOutput`]s compared bit for bit.
//!
//! The interpreter is the executable semantics of the IR; the VM is the
//! decode-once fast path the hot callers use. This family generates
//! functions that exercise every corner the compiler must preserve —
//! nested bounded loops, early returns, mux laziness, uninitialized
//! reads, out-of-bounds array traffic, stores through non-array
//! variables, resource calls and reconfiguration points, injected bit
//! faults, and tiny step limits — and demands that the two engines
//! agree on the *entire* instrumented output: return value, coverage
//! set, op counts, step count, uninitialized reads, out-of-bounds
//! records, and the call trace (or on the identical
//! [`behav::interp::ExecError`]) — and on how many times each called its
//! resource handler, error runs included. The VM's two lean entry
//! points, which carry the hot paths, are held to the same reference:
//! [`Vm::run_value`] must return the interpreter's return value or error,
//! and [`Vm::run_signature`] (the ATPG fault sweep) its return value and
//! call trace. [`Vm::run_rows`] (the DISTANCE calls of levels 1–3) runs
//! all of a case's vectors as one batch, lane-parallel when the function
//! is lane-eligible and row by row otherwise, and must return the same
//! values and errors row by row.
//!
//! With the `vm-mutant` feature the VM deliberately skips the width
//! mask on every third scalar assignment; `tests/vm_mutant.rs` proves
//! this family catches that miscompile within the CI smoke budget.

use crate::rng::FuzzRng;
use crate::shrink;
use crate::{Evaluation, FamilyOutcome};
use behav::bytecode::{compile, Vm};
use behav::interp::{enumerate_bit_faults, mask, BitFault, ExecError, Interpreter};
use behav::{BlockBuilder, ConfigId, Expr, Function, FunctionBuilder, VarId};
use sim::faults::{fnv1a, mix64};

/// A VM fuzz case: the knobs that deterministically regenerate one
/// random behavioural function plus the inputs it is driven with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmCase {
    /// Seed of the function-shape stream ([`FuzzRng::new`]).
    pub func_seed: u64,
    /// Parameter count (1..=3).
    pub params: u32,
    /// Arrays declared (0..=2).
    pub arrays: u32,
    /// Top-level statement budget (1..=8; nested blocks get half).
    pub stmts: u32,
    /// Maximum `if`/`while` nesting depth (0..=2).
    pub depth: u32,
    /// Loop trip-count bound (1..=6 per loop counter).
    pub trips: u64,
    /// Allow `ResourceCall`/`Reconfigure` statements.
    pub calls: bool,
    /// Input vectors, each `params` wide.
    pub vectors: Vec<Vec<u64>>,
    /// Injected bit fault: an index into [`enumerate_bit_faults`]
    /// (modulo its length), or `None` for a clean run.
    pub fault_pick: Option<u64>,
    /// Dynamic step limit (small values exercise the error path).
    pub step_limit: u64,
}

/// Generates one random case under the coverage bias.
pub fn generate(rng: &mut FuzzRng, bias: u64) -> VmCase {
    let params = rng.range(1, 3) as u32;
    let vectors = (0..rng.range(1, 4))
        .map(|_| (0..params).map(|_| rng.next_u64()).collect())
        .collect();
    VmCase {
        func_seed: rng.next_u64() ^ mix64(bias),
        params,
        arrays: rng.range(0, 2) as u32,
        stmts: rng.range(1, 8) as u32,
        depth: ((bias >> 3) % 3) as u32,
        trips: rng.range(1, 6),
        calls: (bias & 1) == 0 || rng.chance(1, 3),
        vectors,
        fault_pick: if rng.chance(1, 3) {
            Some(rng.next_u64())
        } else {
            None
        },
        step_limit: if rng.chance(1, 6) {
            rng.range(1, 40)
        } else {
            1_000_000
        },
    }
}

/// Bit widths the generator draws from (1-bit flags through full words).
const WIDTHS: [u32; 7] = [1, 5, 8, 13, 16, 32, 64];

/// Narrow widths favoured for locals: a narrow assignment target is where
/// width-mask bugs (the seeded `vm-mutant` miscompile included) surface.
const NARROW: [u32; 5] = [3, 4, 5, 8, 13];

/// The shared deterministic resource-call model both engines consult.
fn resource_model(name: &str, args: &[u64]) -> u64 {
    mix64(fnv1a(name.as_bytes()) ^ args.iter().fold(0u64, |h, &a| mix64(h ^ a)))
}

/// The random-function generator state: the scalar pool statements may
/// assign (loop counters are deliberately excluded so every loop stays
/// bounded by construction), the declared arrays, and the shape stream.
struct Shape {
    rng: FuzzRng,
    scalars: Vec<(VarId, u32)>,
    arrays: Vec<(VarId, u32, u32)>,
    next_loop: u32,
    trips: u64,
    calls: bool,
}

impl Shape {
    fn width(&mut self) -> u32 {
        WIDTHS[self.rng.range_usize(0, WIDTHS.len() - 1)]
    }

    fn narrow(&mut self) -> u32 {
        NARROW[self.rng.range_usize(0, NARROW.len() - 1)]
    }

    fn scalar(&mut self) -> (VarId, u32) {
        self.scalars[self.rng.range_usize(0, self.scalars.len() - 1)]
    }

    /// A random expression of bounded depth. Leaves deliberately include
    /// possibly-uninitialized variables and possibly-out-of-bounds array
    /// indices: both are recorded observations the engines must agree on.
    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.rng.chance(1, 3) {
            return match self.rng.below(4) {
                0 => {
                    let w = self.width();
                    Expr::constant(self.rng.next_u64() & mask(w), w)
                }
                1 | 2 => Expr::var(self.scalar().0),
                _ if !self.arrays.is_empty() => {
                    let (arr, _, len) = self.arrays[self.rng.range_usize(0, self.arrays.len() - 1)];
                    // One past the end with probability ~1/3: an OOB read.
                    Expr::index(arr, Expr::constant(self.rng.below(len as u64 + 2), 8))
                }
                _ => Expr::var(self.scalar().0),
            };
        }
        match self.rng.below(8) {
            0 => Expr::not(self.expr(depth - 1)),
            1 => Expr::neg(self.expr(depth - 1)),
            2 => Expr::mux(
                self.cmp(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1),
            ),
            _ => {
                let lhs = self.expr(depth - 1);
                let rhs = self.expr(depth - 1);
                match self.rng.below(16) {
                    0 => Expr::add(lhs, rhs),
                    1 => Expr::sub(lhs, rhs),
                    2 => Expr::mul(lhs, rhs),
                    3 => Expr::div(lhs, rhs),
                    4 => Expr::rem(lhs, rhs),
                    5 => Expr::and(lhs, rhs),
                    6 => Expr::or(lhs, rhs),
                    7 => Expr::xor(lhs, rhs),
                    8 => Expr::shl(lhs, rhs),
                    9 => Expr::shr(lhs, rhs),
                    10 => Expr::eq(lhs, rhs),
                    11 => Expr::ne(lhs, rhs),
                    12 => Expr::lt(lhs, rhs),
                    13 => Expr::le(lhs, rhs),
                    14 => Expr::gt(lhs, rhs),
                    _ => Expr::ge(lhs, rhs),
                }
            }
        }
    }

    /// A single random comparison atom.
    fn cmp(&mut self, depth: u32) -> Expr {
        let lhs = self.expr(depth);
        let rhs = self.expr(depth);
        match self.rng.below(6) {
            0 => Expr::eq(lhs, rhs),
            1 => Expr::ne(lhs, rhs),
            2 => Expr::lt(lhs, rhs),
            3 => Expr::le(lhs, rhs),
            4 => Expr::gt(lhs, rhs),
            _ => Expr::ge(lhs, rhs),
        }
    }

    /// A branch/loop condition: one to three comparison atoms combined
    /// with `and`/`or`, so condition-coverage slot bookkeeping is
    /// exercised (the interpreter bug class fixed alongside the VM).
    fn cond(&mut self) -> Expr {
        let mut c = self.cmp(1);
        for _ in 0..self.rng.below(2) {
            let next = self.cmp(1);
            c = if self.rng.flip() {
                Expr::and(c, next)
            } else {
                Expr::or(c, next)
            };
        }
        c
    }

    fn block(&mut self, bb: &mut BlockBuilder<'_>, depth: u32, budget: u32) {
        for _ in 0..budget {
            match self.rng.below(10) {
                0..=3 => {
                    let (v, _) = self.scalar();
                    let e = self.expr(3);
                    bb.assign(v, e);
                }
                4 if !self.arrays.is_empty() => {
                    let (arr, _, len) = if self.rng.chance(1, 8) {
                        // A store through a *scalar* variable: the IR
                        // defines it as counted-but-dropped; the VM
                        // must not turn it into a write.
                        let (v, w) = self.scalar();
                        (v, w, 1)
                    } else {
                        self.arrays[self.rng.range_usize(0, self.arrays.len() - 1)]
                    };
                    let idx = Expr::constant(self.rng.below(len as u64 + 2), 8);
                    let val = self.expr(2);
                    bb.store(arr, idx, val);
                }
                5 if depth > 0 => {
                    let c = self.cond();
                    let inner = (budget / 2).max(1);
                    if self.rng.flip() {
                        // The else arm stays empty (two closures cannot
                        // both borrow the generator); an untaken empty arm
                        // still exercises branch-false coverage.
                        bb.if_else(c, |t| self.block(t, depth - 1, inner), |_| {});
                    } else {
                        bb.if_(c, |t| self.block(t, depth - 1, inner));
                    }
                }
                6 if depth > 0 => {
                    let ctr = bb.local(&format!("ctr{}", self.next_loop), 8);
                    self.next_loop += 1;
                    bb.assign(ctr, Expr::constant(0, 8));
                    let trips = self.rng.range(1, self.trips);
                    let mut c = Expr::lt(Expr::var(ctr), Expr::constant(trips, 8));
                    if self.rng.chance(1, 4) {
                        c = Expr::and(c, self.cmp(1));
                    }
                    let inner = (budget / 2).max(1);
                    bb.while_(c, |body| {
                        self.block(body, depth - 1, inner);
                        body.assign(ctr, Expr::add(Expr::var(ctr), Expr::constant(1, 8)));
                    });
                }
                7 if self.calls => {
                    let name = ["alpha", "beta", "gamma"][self.rng.range_usize(0, 2)];
                    let args = (0..self.rng.below(3)).map(|_| self.expr(2)).collect();
                    let target = if self.rng.flip() {
                        Some(self.scalar().0)
                    } else {
                        None
                    };
                    bb.resource_call(name, args, target);
                }
                8 if self.calls && self.rng.chance(1, 2) => {
                    bb.reconfigure(ConfigId(self.rng.below(3) as u32));
                }
                9 if self.rng.chance(1, 8) => {
                    let e = self.expr(2);
                    bb.ret(e);
                }
                _ => {
                    let (v, _) = self.scalar();
                    let e = self.expr(2);
                    bb.assign(v, e);
                }
            }
        }
    }
}

/// Deterministically rebuilds the case's random function.
pub fn build_function(case: &VmCase) -> Function {
    let mut shape = Shape {
        rng: FuzzRng::new(case.func_seed),
        scalars: Vec::new(),
        arrays: Vec::new(),
        next_loop: 0,
        trips: case.trips.max(1),
        calls: case.calls,
    };
    let ret_width = WIDTHS[shape.rng.range_usize(0, WIDTHS.len() - 1)];
    let mut fb = FunctionBuilder::new("fuzzed", ret_width);
    for i in 0..case.params.max(1) {
        let w = shape.width();
        let v = fb.param(&format!("p{i}"), w);
        shape.scalars.push((v, w));
    }
    for i in 0..shape.rng.range(1, 3) {
        let w = shape.narrow();
        let v = fb.local(&format!("l{i}"), w);
        shape.scalars.push((v, w));
    }
    for i in 0..case.arrays {
        let w = shape.width();
        let len = shape.rng.range(2, 4) as u32;
        let v = fb.array(&format!("a{i}"), w, len);
        shape.arrays.push((v, w, len));
    }
    let (depth, stmts) = (case.depth.min(2), case.stmts.clamp(1, 12));
    // The generator works on `BlockBuilder`s; a trivially-true `if` turns
    // the function body into one (and exercises the constant-condition,
    // zero-atom branch bookkeeping as a bonus).
    fb.if_(Expr::constant(1, 1), |top| shape.block(top, depth, stmts));
    if shape.rng.chance(1, 8) {
        fb.ret_void();
    } else {
        // XOR-fold every scalar into the return value so divergence in
        // *any* register is observable, not just the luckily-read ones.
        let mut e = shape.expr(2);
        for &(v, _) in &shape.scalars {
            e = Expr::xor(e, Expr::var(v));
        }
        fb.ret(e);
    }
    fb.build()
}

/// The case's injected fault, if any, resolved against its function.
fn pick_fault(case: &VmCase, func: &Function) -> Option<BitFault> {
    let faults = enumerate_bit_faults(func);
    case.fault_pick.and_then(|k| {
        if faults.is_empty() {
            None
        } else {
            Some(faults[(k % faults.len() as u64) as usize])
        }
    })
}

/// The case's input vectors, padded with zeros or cut to the arity.
fn padded_vectors(case: &VmCase, func: &Function) -> Vec<Vec<u64>> {
    case.vectors
        .iter()
        .map(|v| {
            v.iter()
                .copied()
                .chain(std::iter::repeat(0))
                .take(func.num_params())
                .collect()
        })
        .collect()
}

/// The reference interpreter under the case's step limit and fault, with
/// no resource handler yet.
fn interpreter<'f, 'h>(
    func: &'f Function,
    case: &VmCase,
    fault: Option<BitFault>,
) -> Interpreter<'f, 'h> {
    let interp = Interpreter::new(func).with_step_limit(case.step_limit);
    match fault {
        Some(f) => interp.with_fault(f),
        None => interp,
    }
}

/// The batch leg of the oracle: every vector through one [`Vm::run_rows`]
/// call, held row by row to `want`, each vector's return value or error
/// from a handler-free run. [`evaluate`] passes the per-vector
/// [`Vm::run_value`] results, which it has already held to the
/// interpreter.
fn rows_disagreement(
    vm: &mut Vm,
    vectors: &[Vec<u64>],
    want: &[Result<Option<u64>, ExecError>],
    fault: Option<BitFault>,
) -> Option<String> {
    let batch = vm.run_rows(vectors);
    (batch != want).then(|| {
        format!(
            "vm run_rows diverged from interpreter on {vectors:?} (fault {fault:?}, \
             lane-eligible {}): run_rows {batch:?} vs {want:?}",
            vm.program().is_lane_eligible()
        )
    })
}

/// Runs the differential oracle on the case.
pub fn evaluate(case: &VmCase) -> Evaluation {
    let func = build_function(case);
    let fault = pick_fault(case, &func);
    let mut vm = Vm::new(compile(&func)).with_step_limit(case.step_limit);
    vm.set_fault(fault);
    let mut counters = vec![
        func.num_statements() as u64,
        func.num_conditions() as u64,
        0,
        0,
        0,
        0,
    ];
    let vectors = padded_vectors(case, &func);
    let mut want_values = Vec::with_capacity(vectors.len());
    for v in &vectors {
        // Each engine's handler counts its calls: an error discards the
        // call trace, so only the counts show a call one engine made
        // before hitting its step limit and the other did not.
        let (mut interp_calls, mut vm_calls) = (0u64, 0u64);
        let reference = {
            let mut interp = interpreter(&func, case, fault);
            if case.calls {
                interp = interp.with_resource_handler(Box::new(|name: &str, args: &[u64]| {
                    interp_calls += 1;
                    resource_model(name, args)
                }));
            }
            interp.run(v)
        };
        let observed = if case.calls {
            let mut h = |name: &str, args: &[u64]| {
                vm_calls += 1;
                resource_model(name, args)
            };
            vm.run_with_handler(v, Some(&mut h))
        } else {
            vm.run(v)
        };
        if reference != observed || interp_calls != vm_calls {
            return Evaluation {
                disagreement: Some(format!(
                    "vm diverged from interpreter on {v:?} (fault {fault:?}): \
                     interp {reference:?} after {interp_calls} handler calls vs \
                     vm {observed:?} after {vm_calls}"
                )),
                counters,
            };
        }
        // The lean entry points the hot paths call take no resource
        // handler, so their reference is an interpreter run without one.
        let unhandled = if case.calls {
            interpreter(&func, case, fault).run(v)
        } else {
            reference.clone()
        };
        let value = vm.run_value(v);
        let want_value = unhandled.clone().map(|out| out.return_value);
        let signature = vm.run_signature(v);
        let want_signature = unhandled.map(|out| (out.return_value, out.call_trace));
        if value != want_value || signature != want_signature {
            return Evaluation {
                disagreement: Some(format!(
                    "vm fast paths diverged from interpreter on {v:?} (fault {fault:?}): \
                     run_value {value:?} vs {want_value:?}, \
                     run_signature {signature:?} vs {want_signature:?}"
                )),
                counters,
            };
        }
        match &reference {
            Ok(out) => {
                counters[2] += out.ops.total();
                counters[3] += out.steps;
                counters[4] += (out.uninitialized_reads.len() + out.out_of_bounds.len()) as u64;
                counters[5] += out.call_trace.len() as u64 + u64::from(out.return_value.is_some());
            }
            Err(_) => counters[5] += 1,
        }
        want_values.push(value);
    }
    Evaluation {
        disagreement: rows_disagreement(&mut vm, &vectors, &want_values, fault),
        counters,
    }
}

fn shrink_candidates(case: &VmCase) -> Vec<VmCase> {
    let mut out = Vec::new();
    if case.stmts > 1 {
        let mut c = case.clone();
        c.stmts -= 1;
        out.push(c);
    }
    if case.depth > 0 {
        let mut c = case.clone();
        c.depth -= 1;
        out.push(c);
    }
    if case.trips > 1 {
        let mut c = case.clone();
        c.trips -= 1;
        out.push(c);
    }
    if case.arrays > 0 {
        let mut c = case.clone();
        c.arrays -= 1;
        out.push(c);
    }
    if case.calls {
        let mut c = case.clone();
        c.calls = false;
        out.push(c);
    }
    if case.fault_pick.is_some() {
        let mut c = case.clone();
        c.fault_pick = None;
        out.push(c);
    }
    if case.step_limit != 1_000_000 {
        let mut c = case.clone();
        c.step_limit = 1_000_000;
        out.push(c);
    }
    if case.vectors.len() > 1 {
        for i in 0..case.vectors.len() {
            let mut c = case.clone();
            c.vectors.remove(i);
            out.push(c);
        }
    }
    out
}

/// One fuzz iteration: generate, evaluate, shrink on disagreement.
pub(crate) fn run_one(rng: &mut FuzzRng, bias: u64) -> FamilyOutcome {
    let case = generate(rng, bias);
    let eval = evaluate(&case);
    let failure = eval.disagreement.map(|detail| {
        let min = shrink::minimize(case, 60, shrink_candidates, |c| {
            evaluate(c).disagreement.is_some()
        });
        let func = build_function(&min);
        crate::Failure {
            detail,
            minimized: format!(
                "{min:?}\n{}",
                behav::pretty::function_to_string(&func, true)
            ),
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

    #[test]
    fn case_generation_is_deterministic() {
        let mk = || {
            let mut rng = FuzzRng::new(31);
            generate(&mut rng, 9)
        };
        assert_eq!(mk(), mk());
        let f = build_function(&mk());
        assert_eq!(
            behav::pretty::function_to_string(&f, true),
            behav::pretty::function_to_string(&build_function(&mk()), true)
        );
    }

    #[test]
    #[cfg(not(feature = "vm-mutant"))]
    fn random_cases_agree_across_engines() {
        let mut rng = FuzzRng::new(77);
        for bias in 0..12u64 {
            let case = generate(&mut rng, bias * 7);
            let eval = evaluate(&case);
            assert_eq!(eval.disagreement, None, "case {case:?}");
        }
    }

    /// The seeded miscompile bites the lane path too, and the batch leg
    /// catches it on its own: held to the interpreter, a lane-parallel
    /// `run_rows` batch of the mutant VM disagrees within a few hundred
    /// generated cases.
    #[test]
    #[cfg(feature = "vm-mutant")]
    fn the_batch_leg_alone_catches_the_miscompile_in_lanes() {
        let mut rng = FuzzRng::new(0);
        let caught = (0..400u64).find_map(|bias| {
            let case = generate(&mut rng, bias);
            let func = build_function(&case);
            let program = compile(&func);
            if !program.is_lane_eligible() || u64::from(func.num_statements()) > case.step_limit {
                return None;
            }
            let fault = pick_fault(&case, &func);
            let vectors = padded_vectors(&case, &func);
            let want: Vec<_> = vectors
                .iter()
                .map(|v| {
                    interpreter(&func, &case, fault)
                        .run(v)
                        .map(|o| o.return_value)
                })
                .collect();
            let mut vm = Vm::new(program).with_step_limit(case.step_limit);
            vm.set_fault(fault);
            rows_disagreement(&mut vm, &vectors, &want, fault)
        });
        assert!(
            caught.is_some(),
            "no lane-parallel batch of the mutant VM disagreed"
        );
    }

    #[test]
    fn generator_reaches_loops_calls_and_faults() {
        // The family only earns its keep if the interesting constructs
        // actually appear: across a modest sample there must be cases
        // with conditions, with resource calls, and with injected faults.
        let mut rng = FuzzRng::new(5);
        let (mut conds, mut calls, mut faults) = (0, 0, 0);
        for bias in 0..24u64 {
            let case = generate(&mut rng, bias);
            let func = build_function(&case);
            conds += u64::from(func.num_conditions() > 1);
            calls += u64::from(case.calls);
            faults += u64::from(case.fault_pick.is_some());
        }
        assert!(conds > 0, "no generated function had branch conditions");
        assert!(calls > 0, "no generated case allowed resource calls");
        assert!(faults > 0, "no generated case injected a fault");
    }
}
