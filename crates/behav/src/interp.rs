//! The behavioural interpreter.
//!
//! One engine serves four flow roles:
//!
//! * **functional execution** of reference-model kernels,
//! * **profiling** — operation counts per run feed the `platform` crate's
//!   automatic SW timing annotation (the paper's "annotation instead of
//!   ISS"),
//! * **coverage recording** for the ATPG metrics,
//! * **high-level fault injection** (bit faults on assignment targets, the
//!   Ferrandi/Fummi/Sciuto model of the paper's reference \[6\]) plus
//!   *memory inspection*: reads of never-written array elements are
//!   recorded, which is how Laerte++ exposed the case study's
//!   memory-initialization bugs,
//! * **level-3 instrumentation tracing** — `reconfigure`/resource-call
//!   events are logged for SymbC cross-checking and FPGA cost accounting.

use crate::coverage::CoverageSet;
use crate::expr::{BinOp, Expr, UnaryOp};
use crate::func::{Function, VarId, VarKind};
use crate::stmt::{ConfigId, Stmt};
use std::fmt;

/// Counts of executed operations, grouped the way a processor cycle model
/// prices them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Additions, subtractions, bitwise ops, shifts, comparisons, moves.
    pub alu: u64,
    /// Multiplications.
    pub mul: u64,
    /// Divisions and remainders.
    pub div: u64,
    /// Array loads and stores.
    pub mem: u64,
    /// Conditional branches evaluated.
    pub branch: u64,
    /// Resource / reconfiguration calls.
    pub call: u64,
}

impl OpCounts {
    /// Total operation count.
    pub fn total(&self) -> u64 {
        self.alu + self.mul + self.div + self.mem + self.branch + self.call
    }
}

/// A stuck-at fault on one bit of an assignment target — the high-level
/// fault model behind the bit-coverage metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitFault {
    /// Variable whose assignments are faulted.
    pub var: VarId,
    /// Bit position (must be below the variable's width).
    pub bit: u32,
    /// Stuck value (`true` = stuck-at-1).
    pub stuck_at: bool,
}

/// An entry in the level-3 instrumentation trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallEvent {
    /// A `reconfigure(config)` was executed.
    Reconfigure(ConfigId),
    /// A hardware resource call was executed.
    Resource {
        /// Resource (FPGA function) name.
        func: String,
        /// Evaluated argument values.
        args: Vec<u64>,
        /// Result delivered by the resource handler.
        result: u64,
    },
}

/// Which way an out-of-bounds array access went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OobKind {
    /// A read past the end of the array.
    Load,
    /// A write past the end of the array (the value is dropped).
    Store,
}

/// One out-of-bounds array access — the second half of the memory
/// inspection report, alongside uninitialized reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobAccess {
    /// The array that was accessed.
    pub var: VarId,
    /// The (out-of-range) element index.
    pub index: u64,
    /// Load or store.
    pub kind: OobKind,
}

/// Everything observed during one run.
///
/// Equality is bit-for-bit over every field; the VM in
/// [`crate::bytecode`] must produce outputs equal to the interpreter's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    /// Value of the executed `return`, or `None` if the body fell through.
    pub return_value: Option<u64>,
    /// Coverage recorded during this run.
    pub coverage: CoverageSet,
    /// Operation profile.
    pub ops: OpCounts,
    /// Statements executed (dynamic count).
    pub steps: u64,
    /// Array reads that happened before any write to that element:
    /// `(array, element index)` — the memory-inspection report.
    pub uninitialized_reads: Vec<(VarId, u64)>,
    /// Out-of-bounds array accesses in execution order. Loads return the
    /// garbage pattern (so the bug propagates); stores are dropped.
    pub out_of_bounds: Vec<OobAccess>,
    /// Reconfiguration / resource-call trace in execution order.
    pub call_trace: Vec<CallEvent>,
}

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The dynamic step limit was exceeded (runaway loop).
    StepLimit {
        /// The configured limit.
        limit: u64,
    },
    /// Wrong number of inputs supplied.
    ArityMismatch {
        /// Parameters the function declares.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StepLimit { limit } => write!(f, "step limit of {limit} exceeded"),
            ExecError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Handler invoked for [`Stmt::ResourceCall`]; maps `(name, args)` to the
/// result value.
pub type ResourceHandler<'h> = dyn FnMut(&str, &[u64]) -> u64 + 'h;

/// Executes a [`Function`] with configurable instrumentation.
pub struct Interpreter<'f, 'h> {
    func: &'f Function,
    step_limit: u64,
    fault: Option<BitFault>,
    resource_handler: Option<Box<ResourceHandler<'h>>>,
    /// Value produced by reads of uninitialized array elements. A
    /// recognizable garbage pattern (masked to width) rather than zero, so
    /// initialization bugs actually propagate to outputs.
    garbage: u64,
}

impl<'f> fmt::Debug for Interpreter<'f, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interpreter")
            .field("func", &self.func.name())
            .field("step_limit", &self.step_limit)
            .field("fault", &self.fault)
            .finish_non_exhaustive()
    }
}

impl<'f, 'h> Interpreter<'f, 'h> {
    /// Creates an interpreter for `func` with default settings.
    pub fn new(func: &'f Function) -> Self {
        Interpreter {
            func,
            step_limit: 1_000_000,
            fault: None,
            resource_handler: None,
            garbage: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    /// Sets the dynamic step limit.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Injects a bit fault for this interpreter's runs.
    pub fn with_fault(mut self, fault: BitFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Installs the handler for FPGA resource calls.
    pub fn with_resource_handler(mut self, h: Box<ResourceHandler<'h>>) -> Self {
        self.resource_handler = Some(h);
        self
    }

    /// Overrides the garbage value returned by uninitialized reads.
    pub fn with_garbage(mut self, garbage: u64) -> Self {
        self.garbage = garbage;
        self
    }

    /// Runs the function on `inputs` (one per parameter).
    ///
    /// # Errors
    ///
    /// [`ExecError::ArityMismatch`] for a wrong input count and
    /// [`ExecError::StepLimit`] when execution exceeds the step limit.
    pub fn run(&mut self, inputs: &[u64]) -> Result<RunOutput, ExecError> {
        if inputs.len() != self.func.num_params() {
            return Err(ExecError::ArityMismatch {
                expected: self.func.num_params(),
                got: inputs.len(),
            });
        }
        let mut state = State::new(self.func, inputs, self.garbage);
        let mut out = RunOutput {
            return_value: None,
            coverage: CoverageSet::new(self.func),
            ops: OpCounts::default(),
            steps: 0,
            uninitialized_reads: Vec::new(),
            out_of_bounds: Vec::new(),
            call_trace: Vec::new(),
        };
        let flow = self.exec_block(self.func.body(), &mut state, &mut out)?;
        if let Flow::Return(v) = flow {
            out.return_value = v;
        }
        out.uninitialized_reads = state.uninit_reads;
        out.out_of_bounds = state.oob;
        Ok(out)
    }

    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        state: &mut State,
        out: &mut RunOutput,
    ) -> Result<Flow, ExecError> {
        for s in stmts {
            match self.exec_stmt(s, state, out)? {
                Flow::Continue => {}
                ret @ Flow::Return(_) => return Ok(ret),
            }
        }
        Ok(Flow::Continue)
    }

    fn exec_stmt(
        &mut self,
        s: &Stmt,
        state: &mut State,
        out: &mut RunOutput,
    ) -> Result<Flow, ExecError> {
        out.steps += 1;
        if out.steps > self.step_limit {
            return Err(ExecError::StepLimit {
                limit: self.step_limit,
            });
        }
        out.coverage.hit_statement(s.id());
        match s {
            Stmt::Assign { target, value, .. } => {
                let mut v = self.eval(value, state, out);
                v = self.apply_fault(*target, v, state);
                state.write_scalar(*target, v);
                out.ops.alu += 1;
                Ok(Flow::Continue)
            }
            Stmt::Store {
                array,
                index,
                value,
                ..
            } => {
                let idx = self.eval(index, state, out);
                let mut v = self.eval(value, state, out);
                v = self.apply_fault(*array, v, state);
                state.store(*array, idx, v);
                out.ops.mem += 1;
                Ok(Flow::Continue)
            }
            Stmt::If {
                cond_id,
                cond,
                then_,
                else_,
                ..
            } => {
                let taken = self.eval_condition(*cond_id, cond, state, out);
                if taken {
                    self.exec_block(then_, state, out)
                } else {
                    self.exec_block(else_, state, out)
                }
            }
            Stmt::While {
                cond_id,
                cond,
                body,
                ..
            } => {
                loop {
                    let taken = self.eval_condition(*cond_id, cond, state, out);
                    if !taken {
                        break;
                    }
                    match self.exec_block(body, state, out)? {
                        Flow::Continue => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    out.steps += 1;
                    if out.steps > self.step_limit {
                        return Err(ExecError::StepLimit {
                            limit: self.step_limit,
                        });
                    }
                }
                Ok(Flow::Continue)
            }
            Stmt::Return { value, .. } => {
                let v = value.as_ref().map(|e| self.eval(e, state, out));
                Ok(Flow::Return(v))
            }
            Stmt::Reconfigure { config, .. } => {
                out.ops.call += 1;
                out.call_trace.push(CallEvent::Reconfigure(*config));
                Ok(Flow::Continue)
            }
            Stmt::ResourceCall {
                func, args, target, ..
            } => {
                let arg_vals: Vec<u64> = args.iter().map(|a| self.eval(a, state, out)).collect();
                out.ops.call += 1;
                let result = match self.resource_handler.as_mut() {
                    Some(h) => h(func, &arg_vals),
                    None => 0,
                };
                out.call_trace.push(CallEvent::Resource {
                    func: func.clone(),
                    args: arg_vals,
                    result,
                });
                if let Some(t) = target {
                    let masked = result & mask(self.func.var(*t).width);
                    let faulted = self.apply_fault(*t, masked, state);
                    state.write_scalar(*t, faulted);
                }
                Ok(Flow::Continue)
            }
        }
    }

    fn apply_fault(&self, target: VarId, value: u64, state: &State) -> u64 {
        match self.fault {
            Some(f) if f.var == target => {
                let width = state.width(target);
                if f.bit >= width {
                    return value;
                }
                if f.stuck_at {
                    value | (1u64 << f.bit)
                } else {
                    value & !(1u64 << f.bit)
                }
            }
            _ => value,
        }
    }

    /// Evaluates a branch condition exactly once, recording the value of
    /// each atomic comparison for condition coverage *during* that single
    /// evaluation. Atom indices follow the same pre-order numbering as
    /// [`Expr::atomic_conditions`]; atoms inside the untaken arm of a mux
    /// are skipped (never executed, so never recorded).
    fn eval_condition(
        &mut self,
        cond_id: crate::stmt::CondId,
        cond: &Expr,
        state: &mut State,
        out: &mut RunOutput,
    ) -> bool {
        let mut next_atom = 0usize;
        let taken = self.eval_in(cond, Some(cond_id), &mut next_atom, state, out) != 0;
        out.ops.branch += 1;
        out.coverage.hit_branch(cond_id, taken);
        taken
    }

    fn eval(&mut self, e: &Expr, state: &mut State, out: &mut RunOutput) -> u64 {
        self.eval_in(e, None, &mut 0, state, out)
    }

    /// Expression evaluation, optionally inside a branch condition
    /// (`cond_ctx`), in which case comparison nodes claim atom indices in
    /// pre-order and record their outcome as they produce it.
    fn eval_in(
        &mut self,
        e: &Expr,
        cond_ctx: Option<crate::stmt::CondId>,
        next_atom: &mut usize,
        state: &mut State,
        out: &mut RunOutput,
    ) -> u64 {
        match e {
            Expr::Const { value, .. } => *value,
            Expr::Var(v) => state.read_scalar(*v),
            Expr::Index { array, index } => {
                let idx = self.eval_in(index, cond_ctx, next_atom, state, out);
                out.ops.mem += 1;
                state.load(*array, idx)
            }
            Expr::Unary { op, arg } => {
                let a = self.eval_in(arg, cond_ctx, next_atom, state, out);
                let w = self.expr_width(arg, state);
                out.ops.alu += 1;
                match op {
                    UnaryOp::Not => !a & mask(w),
                    UnaryOp::Neg => a.wrapping_neg() & mask(w),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                // Claim the atom slot before descending: atomic_conditions()
                // pushes a comparison node before visiting its operands.
                let my_atom = match cond_ctx {
                    Some(_) if op.is_comparison() => {
                        let i = *next_atom;
                        *next_atom += 1;
                        Some(i)
                    }
                    _ => None,
                };
                let a = self.eval_in(lhs, cond_ctx, next_atom, state, out);
                let b = self.eval_in(rhs, cond_ctx, next_atom, state, out);
                let w = self.expr_width(lhs, state).max(self.expr_width(rhs, state));
                match op {
                    BinOp::Mul => out.ops.mul += 1,
                    BinOp::Div | BinOp::Rem => out.ops.div += 1,
                    _ => out.ops.alu += 1,
                }
                let v = apply_binop(*op, a, b, w);
                if let (Some(id), Some(atom)) = (cond_ctx, my_atom) {
                    out.coverage.hit_atom(id, atom, v != 0);
                }
                v
            }
            Expr::Mux { cond, then_, else_ } => {
                let c = self.eval_in(cond, cond_ctx, next_atom, state, out);
                out.ops.alu += 1;
                if c != 0 {
                    let v = self.eval_in(then_, cond_ctx, next_atom, state, out);
                    if cond_ctx.is_some() {
                        *next_atom += count_atoms(else_);
                    }
                    v
                } else {
                    if cond_ctx.is_some() {
                        *next_atom += count_atoms(then_);
                    }
                    self.eval_in(else_, cond_ctx, next_atom, state, out)
                }
            }
        }
    }

    /// Static width of an expression (comparisons are 1 bit; otherwise the
    /// max operand width, the convention the synthesis path also uses).
    fn expr_width(&self, e: &Expr, state: &State) -> u32 {
        match e {
            Expr::Const { width, .. } => *width,
            Expr::Var(v) => state.width(*v),
            Expr::Index { array, .. } => state.width(*array),
            Expr::Unary { arg, .. } => self.expr_width(arg, state),
            Expr::Binary { op, lhs, rhs } => {
                if op.is_comparison() {
                    1
                } else {
                    self.expr_width(lhs, state).max(self.expr_width(rhs, state))
                }
            }
            Expr::Mux { then_, else_, .. } => self
                .expr_width(then_, state)
                .max(self.expr_width(else_, state)),
        }
    }
}

/// Pure binary-operator semantics at a given width; shared with the RTL
/// synthesis equivalence tests. Inlined into the VM's dispatch loop and
/// the RTL evaluator, which call it per op.
#[inline(always)]
pub fn apply_binop(op: BinOp, a: u64, b: u64, width: u32) -> u64 {
    let m = mask(width);
    let (a, b) = (a & m, b & m);
    match op {
        BinOp::Add => a.wrapping_add(b) & m,
        BinOp::Sub => a.wrapping_sub(b) & m,
        BinOp::Mul => a.wrapping_mul(b) & m,
        // Division by zero yields all-ones, as in many HW cores.
        BinOp::Div => a.checked_div(b).map_or(m, |q| q & m),
        BinOp::Rem => {
            if b == 0 {
                a
            } else {
                (a % b) & m
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            let sh = (b % width as u64) as u32;
            (a << sh) & m
        }
        BinOp::Shr => {
            let sh = (b % width as u64) as u32;
            a >> sh
        }
        BinOp::Eq => (a == b) as u64,
        BinOp::Ne => (a != b) as u64,
        BinOp::Lt => (a < b) as u64,
        BinOp::Le => (a <= b) as u64,
        BinOp::Gt => (a > b) as u64,
        BinOp::Ge => (a >= b) as u64,
    }
}

/// Number of atomic conditions (comparison nodes) in an expression —
/// used to skip the atom slots of an unexecuted mux arm.
fn count_atoms(e: &Expr) -> usize {
    match e {
        Expr::Const { .. } | Expr::Var(_) => 0,
        Expr::Index { index, .. } => count_atoms(index),
        Expr::Unary { arg, .. } => count_atoms(arg),
        Expr::Binary { op, lhs, rhs } => {
            usize::from(op.is_comparison()) + count_atoms(lhs) + count_atoms(rhs)
        }
        Expr::Mux { cond, then_, else_ } => {
            count_atoms(cond) + count_atoms(then_) + count_atoms(else_)
        }
    }
}

/// Bit mask for a width.
pub fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

enum Flow {
    Continue,
    Return(Option<u64>),
}

struct State {
    scalars: Vec<u64>,
    widths: Vec<u32>,
    arrays: Vec<Option<ArrayState>>,
    garbage: u64,
    uninit_reads: Vec<(VarId, u64)>,
    oob: Vec<OobAccess>,
}

struct ArrayState {
    data: Vec<u64>,
    written: Vec<bool>,
}

impl State {
    fn new(func: &Function, inputs: &[u64], garbage: u64) -> State {
        let mut scalars = vec![0u64; func.vars().len()];
        let mut widths = vec![0u32; func.vars().len()];
        let mut arrays: Vec<Option<ArrayState>> = Vec::with_capacity(func.vars().len());
        // Params bind by *ordinal* (the i-th Param declaration gets
        // inputs[i]), not by variable index: a rebuilt function may declare
        // a parameter after a local.
        let mut ordinal = 0usize;
        for (i, decl) in func.vars().iter().enumerate() {
            widths[i] = decl.width;
            match decl.kind {
                VarKind::Param => {
                    scalars[i] = inputs[ordinal] & mask(decl.width);
                    ordinal += 1;
                    arrays.push(None);
                }
                VarKind::Local => arrays.push(None),
                VarKind::Array { len } => arrays.push(Some(ArrayState {
                    data: vec![0; len as usize],
                    written: vec![false; len as usize],
                })),
            }
        }
        State {
            scalars,
            widths,
            arrays,
            garbage,
            uninit_reads: Vec::new(),
            oob: Vec::new(),
        }
    }

    fn width(&self, v: VarId) -> u32 {
        self.widths[v.index()]
    }

    fn read_scalar(&self, v: VarId) -> u64 {
        self.scalars[v.index()]
    }

    fn write_scalar(&mut self, v: VarId, value: u64) {
        let w = self.widths[v.index()];
        self.scalars[v.index()] = value & mask(w);
    }

    fn load(&mut self, array: VarId, index: u64) -> u64 {
        let w = self.widths[array.index()];
        let garbage = self.garbage;
        match self.arrays[array.index()].as_mut() {
            Some(a) => {
                let i = index as usize;
                if i < a.data.len() {
                    if !a.written[i] {
                        self.uninit_reads.push((array, index));
                        return garbage & mask(w);
                    }
                    a.data[i]
                } else {
                    // Out of bounds: record it and return the garbage
                    // pattern so the bug propagates instead of reading as a
                    // quiet zero.
                    self.oob.push(OobAccess {
                        var: array,
                        index,
                        kind: OobKind::Load,
                    });
                    garbage & mask(w)
                }
            }
            None => 0,
        }
    }

    fn store(&mut self, array: VarId, index: u64, value: u64) {
        let w = self.widths[array.index()];
        if let Some(a) = self.arrays[array.index()].as_mut() {
            let i = index as usize;
            if i < a.data.len() {
                a.data[i] = value & mask(w);
                a.written[i] = true;
            } else {
                // The write is dropped, but the access is reported.
                self.oob.push(OobAccess {
                    var: array,
                    index,
                    kind: OobKind::Store,
                });
            }
        }
    }
}

/// Enumerates every bit fault on assignment targets of `func` — the fault
/// list of the bit-coverage metric.
pub fn enumerate_bit_faults(func: &Function) -> Vec<BitFault> {
    let mut targets = std::collections::BTreeSet::new();
    func.visit_stmts(&mut |s| match s {
        Stmt::Assign { target, .. } => {
            targets.insert(*target);
        }
        Stmt::Store { array, .. } => {
            targets.insert(*array);
        }
        Stmt::ResourceCall {
            target: Some(t), ..
        } => {
            targets.insert(*t);
        }
        _ => {}
    });
    let mut faults = Vec::new();
    for var in targets {
        let width = func.var(var).width;
        for bit in 0..width {
            for stuck_at in [false, true] {
                faults.push(BitFault { var, bit, stuck_at });
            }
        }
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FunctionBuilder;

    /// gcd(a, b) by repeated subtraction — loops, branches, comparisons.
    fn gcd_func() -> Function {
        let mut fb = FunctionBuilder::new("gcd", 16);
        let a = fb.param("a", 16);
        let b = fb.param("b", 16);
        fb.while_(Expr::ne(Expr::var(b), Expr::constant(0, 16)), |blk| {
            let t = blk.local("t", 16);
            blk.assign(t, Expr::rem(Expr::var(a), Expr::var(b)));
            blk.assign(a, Expr::var(b));
            blk.assign(b, Expr::var(t));
        });
        fb.ret(Expr::var(a));
        fb.build()
    }

    #[test]
    fn gcd_computes_correctly() {
        let f = gcd_func();
        let mut interp = Interpreter::new(&f);
        assert_eq!(interp.run(&[48, 18]).unwrap().return_value, Some(6));
        assert_eq!(interp.run(&[7, 13]).unwrap().return_value, Some(1));
        assert_eq!(interp.run(&[0, 5]).unwrap().return_value, Some(5));
    }

    #[test]
    fn coverage_is_recorded() {
        let f = gcd_func();
        let out = Interpreter::new(&f).run(&[48, 18]).unwrap();
        let r = out.coverage.report();
        assert_eq!(r.statement_pct(), 100.0);
        assert_eq!(r.branch_pct(), 100.0); // loop taken and exited
        assert_eq!(r.condition_pct(), 100.0);
    }

    #[test]
    fn partial_coverage_shows_uncovered_branch() {
        let f = gcd_func();
        // b = 0: loop never taken → "true" branch uncovered.
        let out = Interpreter::new(&f).run(&[5, 0]).unwrap();
        let r = out.coverage.report();
        assert!(r.branch_pct() < 100.0);
        assert_eq!(r.uncovered_branches.len(), 1);
        assert!(r.uncovered_branches[0].1); // the `true` direction
    }

    #[test]
    fn op_counts_accumulate() {
        let f = gcd_func();
        let out = Interpreter::new(&f).run(&[48, 18]).unwrap();
        assert!(out.ops.div > 0);
        assert!(out.ops.alu > 0);
        assert!(out.ops.branch > 0);
        assert_eq!(out.ops.call, 0);
        assert!(out.ops.total() > 5);
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut fb = FunctionBuilder::new("inf", 8);
        fb.while_(Expr::constant(1, 1), |_| {});
        fb.ret(Expr::constant(0, 8));
        let f = fb.build();
        let err = Interpreter::new(&f)
            .with_step_limit(100)
            .run(&[])
            .unwrap_err();
        assert_eq!(err, ExecError::StepLimit { limit: 100 });
    }

    #[test]
    fn arity_is_checked() {
        let f = gcd_func();
        let err = Interpreter::new(&f).run(&[1]).unwrap_err();
        assert_eq!(
            err,
            ExecError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn values_are_masked_to_width() {
        let mut fb = FunctionBuilder::new("wrap", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
        fb.assign(x, Expr::add(Expr::var(a), Expr::constant(200, 8)));
        fb.ret(Expr::var(x));
        let f = fb.build();
        let out = Interpreter::new(&f).run(&[100]).unwrap();
        assert_eq!(out.return_value, Some((100u64 + 200) & 0xFF));
    }

    #[test]
    fn uninitialized_array_reads_are_reported() {
        let mut fb = FunctionBuilder::new("buggy", 16);
        let arr = fb.array("buf", 16, 4);
        let x = fb.local("x", 16);
        // Write only element 0, then read element 2 (a seeded init bug).
        fb.store(arr, Expr::constant(0, 8), Expr::constant(42, 16));
        fb.assign(x, Expr::index(arr, Expr::constant(2, 8)));
        fb.ret(Expr::var(x));
        let f = fb.build();
        let out = Interpreter::new(&f).run(&[]).unwrap();
        assert_eq!(out.uninitialized_reads, vec![(arr, 2)]);
        // Garbage propagates to the output (bug is observable).
        assert_ne!(out.return_value, Some(0));
    }

    #[test]
    fn initialized_array_reads_are_clean() {
        let mut fb = FunctionBuilder::new("ok", 16);
        let arr = fb.array("buf", 16, 4);
        let i = fb.local("i", 8);
        fb.while_(Expr::lt(Expr::var(i), Expr::constant(4, 8)), |b| {
            b.store(arr, Expr::var(i), Expr::constant(7, 16));
            b.assign(i, Expr::add(Expr::var(i), Expr::constant(1, 8)));
        });
        let x = fb.local("x", 16);
        fb.assign(x, Expr::index(arr, Expr::constant(3, 8)));
        fb.ret(Expr::var(x));
        let f = fb.build();
        let out = Interpreter::new(&f).run(&[]).unwrap();
        assert!(out.uninitialized_reads.is_empty());
        assert_eq!(out.return_value, Some(7));
    }

    #[test]
    fn bit_fault_changes_output() {
        let mut fb = FunctionBuilder::new("id", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
        fb.assign(x, Expr::var(a));
        fb.ret(Expr::var(x));
        let f = fb.build();
        let x_id = f.var_by_name("x").unwrap();
        let good = Interpreter::new(&f).run(&[0]).unwrap();
        let bad = Interpreter::new(&f)
            .with_fault(BitFault {
                var: x_id,
                bit: 3,
                stuck_at: true,
            })
            .run(&[0])
            .unwrap();
        assert_eq!(good.return_value, Some(0));
        assert_eq!(bad.return_value, Some(8));
    }

    #[test]
    fn fault_enumeration_covers_targets() {
        let f = gcd_func();
        let faults = enumerate_bit_faults(&f);
        // Targets: a, b, t — each 16 bits × 2 polarities.
        assert_eq!(faults.len(), 3 * 16 * 2);
    }

    #[test]
    fn resource_calls_are_traced_and_handled() {
        let mut fb = FunctionBuilder::new("sw", 16);
        let x = fb.local("x", 16);
        fb.reconfigure(ConfigId(1));
        fb.resource_call("root", vec![Expr::constant(49, 16)], Some(x));
        fb.ret(Expr::var(x));
        let f = fb.build();
        let mut interp =
            Interpreter::new(&f).with_resource_handler(Box::new(|name: &str, args: &[u64]| {
                assert_eq!(name, "root");
                (args[0] as f64).sqrt() as u64
            }));
        let out = interp.run(&[]).unwrap();
        assert_eq!(out.return_value, Some(7));
        assert_eq!(out.call_trace.len(), 2);
        assert_eq!(out.call_trace[0], CallEvent::Reconfigure(ConfigId(1)));
        match &out.call_trace[1] {
            CallEvent::Resource { func, args, result } => {
                assert_eq!(func, "root");
                assert_eq!(args, &vec![49]);
                assert_eq!(*result, 7);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn mux_expression_selects() {
        let mut fb = FunctionBuilder::new("m", 8);
        let a = fb.param("a", 8);
        let out_v = fb.local("o", 8);
        fb.assign(
            out_v,
            Expr::mux(
                Expr::ge(Expr::var(a), Expr::constant(10, 8)),
                Expr::constant(1, 8),
                Expr::constant(0, 8),
            ),
        );
        fb.ret(Expr::var(out_v));
        let f = fb.build();
        assert_eq!(
            Interpreter::new(&f).run(&[15]).unwrap().return_value,
            Some(1)
        );
        assert_eq!(
            Interpreter::new(&f).run(&[5]).unwrap().return_value,
            Some(0)
        );
    }

    /// Regression for the condition double-evaluation bug: atoms used to be
    /// evaluated once for coverage and then the whole condition was
    /// evaluated again, double-counting every op in the condition and
    /// reporting an uninitialized read inside it twice.
    #[test]
    fn condition_atoms_are_evaluated_exactly_once() {
        let mut fb = FunctionBuilder::new("cond", 8);
        let arr = fb.array("buf", 8, 4);
        let x = fb.local("x", 8);
        // `if buf[2] < 5` over a never-written element: exactly one load,
        // one comparison, one branch — and one uninit-read report.
        fb.if_else(
            Expr::lt(Expr::index(arr, Expr::constant(2, 8)), Expr::constant(5, 8)),
            |t| t.assign(x, Expr::constant(1, 8)),
            |e| e.assign(x, Expr::constant(2, 8)),
        );
        fb.ret(Expr::var(x));
        let f = fb.build();
        let out = Interpreter::new(&f).run(&[]).unwrap();
        assert_eq!(
            out.ops,
            OpCounts {
                alu: 2, // the comparison + the taken arm's assignment
                mul: 0,
                div: 0,
                mem: 1, // exactly one array load
                branch: 1,
                call: 0,
            }
        );
        assert_eq!(out.uninitialized_reads, vec![(arr, 2)]);
        // Condition coverage is still recorded from the single evaluation.
        let r = out.coverage.report();
        assert_eq!(r.conditions_total, 2);
        assert_eq!(r.conditions_hit, 1);
    }

    /// Atoms in the untaken arm of a mux inside a condition keep their
    /// pre-order slots but are not recorded (they never execute).
    #[test]
    fn mux_arm_atoms_keep_their_slots() {
        let mut fb = FunctionBuilder::new("muxcond", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
        // if (a < 3 ? (a == 0) : (a > 7)) { ... }: atoms in pre-order are
        // [a<3, a==0, a>7]. With a = 9 only `a<3` and `a>7` execute.
        fb.if_(
            Expr::mux(
                Expr::lt(Expr::var(a), Expr::constant(3, 8)),
                Expr::eq(Expr::var(a), Expr::constant(0, 8)),
                Expr::gt(Expr::var(a), Expr::constant(7, 8)),
            ),
            |t| t.assign(x, Expr::constant(1, 8)),
        );
        fb.ret(Expr::var(x));
        let f = fb.build();
        let out = Interpreter::new(&f).run(&[9]).unwrap();
        let r = out.coverage.report();
        assert_eq!(r.conditions_total, 6); // 3 atoms × 2 outcomes
        assert_eq!(r.conditions_hit, 2); // (a<3)=false, (a>7)=true
                                         // mux-cond comparison + mux select + taken-arm comparison, and the
                                         // branch is taken so its assignment adds one more.
        assert_eq!(out.ops.alu, 4);
        assert_eq!(out.ops.branch, 1);
    }

    /// Regression for silent out-of-bounds accesses: loads past the end now
    /// return the garbage pattern and both loads and stores are reported.
    #[test]
    fn out_of_bounds_accesses_are_reported() {
        let mut fb = FunctionBuilder::new("oob", 16);
        let arr = fb.array("buf", 16, 4);
        let x = fb.local("x", 16);
        fb.store(arr, Expr::constant(9, 8), Expr::constant(1, 16)); // dropped
        fb.assign(x, Expr::index(arr, Expr::constant(7, 8))); // garbage
        fb.ret(Expr::var(x));
        let f = fb.build();
        let out = Interpreter::new(&f).run(&[]).unwrap();
        assert_eq!(
            out.out_of_bounds,
            vec![
                OobAccess {
                    var: arr,
                    index: 9,
                    kind: OobKind::Store,
                },
                OobAccess {
                    var: arr,
                    index: 7,
                    kind: OobKind::Load,
                },
            ]
        );
        // The OOB load propagates garbage, not zero.
        assert_eq!(out.return_value, Some(0xDEAD_BEEF_CAFE_F00D & 0xFFFF));
        assert!(out.uninitialized_reads.is_empty());
    }

    /// Regression for positional param binding: a rebuilt function that
    /// declares a parameter *after* a local must still bind inputs by
    /// parameter ordinal.
    #[test]
    fn rebuilt_function_binds_params_by_ordinal() {
        use crate::func::{VarDecl, VarKind};
        // var 0 is a local, var 1 is the (only) parameter.
        let vars = vec![
            VarDecl {
                name: "tmp".into(),
                width: 8,
                kind: VarKind::Local,
            },
            VarDecl {
                name: "a".into(),
                width: 8,
                kind: VarKind::Param,
            },
        ];
        let tmp = VarId::from_index(0);
        let a = VarId::from_index(1);
        let body = vec![
            Stmt::Assign {
                id: crate::stmt::StmtId::placeholder(),
                target: tmp,
                value: Expr::add(Expr::var(a), Expr::constant(1, 8)),
            },
            Stmt::Return {
                id: crate::stmt::StmtId::placeholder(),
                value: Some(Expr::var(tmp)),
            },
        ];
        let f = Function::rebuild("rebuilt".to_owned(), vars, 1, 8, body);
        assert_eq!(f.params(), vec![a]);
        let out = Interpreter::new(&f).run(&[41]).unwrap();
        assert_eq!(out.return_value, Some(42));
    }

    #[test]
    fn binop_semantics_edge_cases() {
        assert_eq!(apply_binop(BinOp::Div, 5, 0, 8), 0xFF);
        assert_eq!(apply_binop(BinOp::Rem, 5, 0, 8), 5);
        assert_eq!(apply_binop(BinOp::Shl, 1, 8, 8), 1); // shift mod width
        assert_eq!(apply_binop(BinOp::Sub, 0, 1, 8), 0xFF);
        assert_eq!(apply_binop(BinOp::Add, 0xFF, 1, 8), 0);
        assert_eq!(apply_binop(BinOp::Lt, 3, 200, 8), 1);
        assert_eq!(mask(64), u64::MAX);
        assert_eq!(mask(1), 1);
    }
}
