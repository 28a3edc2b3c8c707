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
//! Three patches of the committed mutation set (`mutants/`) break the
//! VM on purpose, and `tests/fuzz_smoke.rs` must catch each through this
//! family at its default budget: `vm-scalar-mask` skips the width mask
//! on every third scalar assignment, `vm-lane-mask` skips it in one lane
//! of the lane pass, and `vm-lane-join` drops lanes parked at a jump
//! target that two branches share.

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
/// width-mask bugs (`mutants/vm-scalar-mask.patch` and
/// `mutants/vm-lane-mask.patch` among them) surface.
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

/// A lane-join case: a lane-eligible function whose outer `if` ends in
/// an inner `if`, so both branches park lanes at one join target, and
/// rows that split across both. [`generate`] rarely emits that shape, so
/// this leg has a generator of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCase {
    /// Seed of the function-shape stream ([`FuzzRng::new`]).
    pub func_seed: u64,
    /// Whether the outer `if` has an else arm.
    pub outer_else: bool,
    /// Whether the inner `if` has an else arm.
    pub inner_else: bool,
    /// The outer condition is `p0 < outer`, the inner one `p1 < inner`.
    pub thresholds: (u64, u64),
    /// Input rows `[p0, p1, p2]`. Each row takes one of three paths: past
    /// the outer `if`, past the inner `if` only, or through both. The
    /// generator sends rows down at least two of them.
    pub rows: Vec<Vec<u64>>,
    /// Injected bit fault, as in [`VmCase::fault_pick`].
    pub fault_pick: Option<u64>,
}

/// Generates one lane-join case.
pub fn generate_join(rng: &mut FuzzRng) -> JoinCase {
    let thresholds = (rng.range(1, 100), rng.range(1, 100));
    let (ko, ki) = thresholds;
    // Which paths the rows take: at least two, each by at least one row.
    // Without a row past the inner `if` only, the inner branch parks no
    // lane at the join target while the outer branch already has.
    let taken: &[u64] = [&[0, 2][..], &[0, 1], &[1, 2], &[0, 1, 2]][rng.range_usize(0, 3)];
    let mut paths = taken.to_vec();
    for _ in 0..rng.below(4) {
        paths.push(taken[rng.range_usize(0, taken.len() - 1)]);
    }
    // Rotate so that any path may come first.
    let first = rng.range_usize(0, paths.len() - 1);
    paths.rotate_left(first);
    let mut below = |k: u64, pass: bool| {
        if pass {
            rng.below(k)
        } else {
            k + rng.below(50)
        }
    };
    let rows = paths
        .iter()
        .map(|&path| {
            let p0 = below(ko, path > 0);
            let p1 = below(ki, path > 1);
            vec![p0, p1, below(100, true)]
        })
        .collect();
    JoinCase {
        func_seed: rng.next_u64(),
        outer_else: rng.flip(),
        inner_else: rng.flip(),
        thresholds,
        rows,
        fault_pick: if rng.chance(1, 3) {
            Some(rng.next_u64())
        } else {
            None
        },
    }
}

/// Deterministically rebuilds a lane-join case's function: three wide
/// parameters, one to three narrow locals, random assignments to the
/// locals in every arm, and a return value that folds in every scalar.
/// The parameters are never assigned, so each row takes the path the
/// generator chose for it.
pub fn build_join_function(case: &JoinCase) -> Function {
    let mut shape = Shape {
        rng: FuzzRng::new(case.func_seed),
        scalars: Vec::new(),
        arrays: Vec::new(),
        next_loop: 0,
        trips: 1,
        calls: false,
    };
    let ret_width = shape.width();
    let mut fb = FunctionBuilder::new("fuzzed_join", ret_width);
    let params: Vec<VarId> = (0..3)
        .map(|i| {
            let w = [8, 16, 32, 64][shape.rng.range_usize(0, 3)];
            let v = fb.param(&format!("p{i}"), w);
            shape.scalars.push((v, w));
            v
        })
        .collect();
    let locals: Vec<VarId> = (0..shape.rng.range(1, 3))
        .map(|i| {
            let w = shape.narrow();
            let v = fb.local(&format!("l{i}"), w);
            shape.scalars.push((v, w));
            v
        })
        .collect();
    let arm = |shape: &mut Shape, lo: u64, hi: u64| -> Vec<(VarId, Expr)> {
        (0..shape.rng.range(lo, hi))
            .map(|_| {
                let v = locals[shape.rng.range_usize(0, locals.len() - 1)];
                (v, shape.expr(3))
            })
            .collect()
    };
    let before = arm(&mut shape, 0, 2);
    let outer_prefix = arm(&mut shape, 0, 2);
    let inner_then = arm(&mut shape, 1, 3);
    let inner_else = arm(&mut shape, 1, 2);
    let outer_else = arm(&mut shape, 1, 2);
    let after = arm(&mut shape, 0, 2);
    let threshold = |p: VarId, k: u64| Expr::lt(Expr::var(p), Expr::constant(k, 8));
    let (outer, inner) = (
        threshold(params[0], case.thresholds.0),
        threshold(params[1], case.thresholds.1),
    );
    let assign_all = |bb: &mut BlockBuilder<'_>, stmts: Vec<(VarId, Expr)>| {
        for (v, e) in stmts {
            bb.assign(v, e);
        }
    };
    let inner_has_else = case.inner_else;
    let outer_then = |bb: &mut BlockBuilder<'_>| {
        assign_all(bb, outer_prefix);
        if inner_has_else {
            bb.if_else(
                inner,
                |t| assign_all(t, inner_then),
                |e| assign_all(e, inner_else),
            );
        } else {
            bb.if_(inner, |t| assign_all(t, inner_then));
        }
    };
    fb.if_(Expr::constant(1, 1), |top| {
        assign_all(top, before);
        if case.outer_else {
            top.if_else(outer, outer_then, |e| assign_all(e, outer_else));
        } else {
            top.if_(outer, outer_then);
        }
        assign_all(top, after);
    });
    let mut e = shape.expr(2);
    for &(v, _) in &shape.scalars {
        e = Expr::xor(e, Expr::var(v));
    }
    fb.ret(e);
    fb.build()
}

/// Runs a lane-join case's rows as one [`Vm::run_rows`] batch and holds
/// it row by row to [`Vm::run_value`] and to the interpreter.
pub fn evaluate_join(case: &JoinCase) -> Option<String> {
    let func = build_join_function(case);
    let faults = enumerate_bit_faults(&func);
    let fault = case
        .fault_pick
        .filter(|_| !faults.is_empty())
        .map(|k| faults[(k % faults.len() as u64) as usize]);
    let mut vm = Vm::new(compile(&func));
    vm.set_fault(fault);
    let mut want = Vec::with_capacity(case.rows.len());
    for row in &case.rows {
        let interp = Interpreter::new(&func);
        let mut interp = match fault {
            Some(f) => interp.with_fault(f),
            None => interp,
        };
        let reference = interp.run(row).map(|out| out.return_value);
        let value = vm.run_value(row);
        if value != reference {
            return Some(format!(
                "vm run_value diverged from interpreter on {row:?} (fault {fault:?}): \
                 {value:?} vs {reference:?}"
            ));
        }
        want.push(value);
    }
    rows_disagreement(&mut vm, &case.rows, &want, fault)
}

fn shrink_join(case: &JoinCase) -> Vec<JoinCase> {
    let mut out = Vec::new();
    if case.fault_pick.is_some() {
        out.push(JoinCase {
            fault_pick: None,
            ..case.clone()
        });
    }
    if case.outer_else {
        out.push(JoinCase {
            outer_else: false,
            ..case.clone()
        });
    }
    if case.inner_else {
        out.push(JoinCase {
            inner_else: false,
            ..case.clone()
        });
    }
    if case.rows.len() > 1 {
        for i in 0..case.rows.len() {
            let mut c = case.clone();
            c.rows.remove(i);
            out.push(c);
        }
    }
    out
}

/// One fuzz iteration: generate, evaluate, shrink on disagreement; then,
/// from the same stream, one lane-join case. The lane-join leg leaves
/// the coverage counters to the main case.
pub(crate) fn run_one(rng: &mut FuzzRng, bias: u64) -> FamilyOutcome {
    let case = generate(rng, bias);
    let eval = evaluate(&case);
    let failure = match eval.disagreement {
        Some(detail) => {
            let min = shrink::minimize(case, 60, shrink_candidates, |c| {
                evaluate(c).disagreement.is_some()
            });
            let func = build_function(&min);
            Some(crate::Failure {
                detail,
                minimized: format!(
                    "{min:?}\n{}",
                    behav::pretty::function_to_string(&func, true)
                ),
            })
        }
        None => {
            let join = generate_join(rng);
            evaluate_join(&join).map(|detail| {
                let min = shrink::minimize(join, 60, shrink_join, |c| evaluate_join(c).is_some());
                let func = build_join_function(&min);
                crate::Failure {
                    detail,
                    minimized: format!(
                        "{min:?}\n{}",
                        behav::pretty::function_to_string(&func, true)
                    ),
                }
            })
        }
    };
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
    fn join_cases_run_in_lanes_split_across_both_ifs_and_agree() {
        let mut rng = FuzzRng::new(26);
        let mut paths_seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let case = generate_join(&mut rng);
            assert!(
                compile(&build_join_function(&case)).is_lane_eligible(),
                "{case:?}"
            );
            // The rows take at least two of the three paths: past the
            // outer `if`, past the inner `if` only, and through both.
            let (ko, ki) = case.thresholds;
            let path = |r: &Vec<u64>| u8::from(r[0] < ko) + u8::from(r[0] < ko && r[1] < ki);
            let mut seen: Vec<u8> = case.rows.iter().map(path).collect();
            seen.sort_unstable();
            seen.dedup();
            assert!(seen.len() >= 2, "{case:?}");
            paths_seen.insert(seen);
            assert_eq!(evaluate_join(&case), None, "{case:?}");
        }
        assert_eq!(paths_seen.len(), 4, "every combination of paths occurs");
    }

    #[test]
    fn random_cases_agree_across_engines() {
        let mut rng = FuzzRng::new(77);
        for bias in 0..12u64 {
            let case = generate(&mut rng, bias * 7);
            let eval = evaluate(&case);
            assert_eq!(eval.disagreement, None, "case {case:?}");
        }
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
