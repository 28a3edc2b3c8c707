//! Bytecode compilation and the register VM — the decode-once /
//! execute-many fast path for behavioural execution.
//!
//! The tree-walking [`Interpreter`] re-decodes
//! the IR on every run: every statement dispatch chases `Box`es, every
//! expression recomputes static widths, and every branch condition clones
//! coverage bookkeeping. That is fine for one run, but the hot callers
//! (ATPG fault sweeps, per-frame kernel execution) run the *same* function
//! thousands of times. [`compile`] lowers a [`Function`] once into a flat
//! [`Program`] — expressions linearized into virtual registers, structured
//! control flow into conditional jumps, widths and atom indices resolved at
//! compile time — and [`Vm`] executes it with a single branch-predictable
//! dispatch loop and register/array state that is reused across runs.
//!
//! Instrumentation (coverage, op counts, uninit-read tracking, OOB
//! tracking, call tracing) is selected at *compile time* through a private
//! `VmHooks` trait: the uninstrumented [`Vm::run_value`] path
//! monomorphizes every hook to a no-op and pays nothing for observability
//! it does not use.
//!
//! A run that provably never returns is cut short: once a run has taken
//! a few thousand steps, the VM compares the state at each loop back-edge
//! with an earlier one (Brent's cycle detection), and a repeat ends the
//! run with the [`ExecError::StepLimit`] it would have reached anyway.
//!
//! The tree-walker stays as the differential oracle: [`Vm::run`] must
//! produce a [`RunOutput`] bit-for-bit equal to the interpreter's on every
//! function, input, and fault — a contract enforced by the kernel
//! equivalence tests and the `fuzz` crate's `vm` oracle family.

use crate::coverage::CoverageSet;
use crate::expr::{BinOp, Expr, UnaryOp};
use crate::func::{Function, VarId, VarKind};
use crate::interp::{
    apply_binop, mask, BitFault, CallEvent, ExecError, Interpreter, OobAccess, OobKind, OpCounts,
    ResourceHandler, RunOutput,
};
use crate::stmt::{CondId, ConfigId, Stmt, StmtId};

/// A virtual register index.
type Reg = u16;

/// One decoded instruction. Register operands index the VM's flat register
/// file; jump targets are absolute op indices.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    /// `dst = value`.
    Const { dst: Reg, value: u64 },
    /// `dst = src` (register move used to merge mux arms; not an observable
    /// operation, so it is never counted).
    Copy { dst: Reg, src: Reg },
    /// Unary op at the operand's static width.
    Unary {
        op: UnaryOp,
        dst: Reg,
        src: Reg,
        mask: u64,
    },
    /// Binary op at the statically computed width.
    Binary {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
        width: u32,
    },
    /// Array element load with uninit/OOB inspection.
    Load { dst: Reg, arr: u16, idx: Reg },
    /// Index into a non-array variable: counts as a memory op, yields 0
    /// (mirrors the interpreter's total semantics).
    LoadMissing { dst: Reg },
    /// Array element store (fault point, masked, bounds-checked).
    StoreArr { arr: u16, idx: Reg, src: Reg },
    /// Scalar assignment (fault point, masked to the variable's width).
    AssignVar { dst: Reg, src: Reg, mask: u64 },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Branch-coverage point: counts a branch, records the outcome, and
    /// jumps to `target` when the condition register is zero.
    BranchIfZero { cond: CondId, src: Reg, target: u32 },
    /// Mux select: counts one ALU op and jumps to the else-arm when the
    /// selector register is zero.
    MuxJumpIfZero { src: Reg, target: u32 },
    /// Condition-coverage point: records the value of atomic condition
    /// `atom` of branch `cond`. Atoms in an unexecuted mux arm are simply
    /// never reached, matching the interpreter's single-pass evaluation.
    Atom { cond: CondId, atom: u32, src: Reg },
    /// Fused compare-and-branch: computes `lhs <op> rhs` at `width`,
    /// fires the same hooks in the same order as the unfused
    /// `Binary` + (`Atom`) + `BranchIfZero` sequence it replaces, then
    /// jumps to `target` when the result is zero. One dispatch instead of
    /// two or three on every loop back-edge and `if` head.
    CmpBranch {
        op: BinOp,
        lhs: Reg,
        rhs: Reg,
        width: u32,
        atom: Option<u32>,
        cond: CondId,
        target: u32,
    },
    /// Statement entry: bumps the step counter (checking the limit) and
    /// records statement coverage.
    BeginStmt { id: StmtId },
    /// Fused loop back-edge: one completed iteration (step accounting,
    /// identical to the interpreter's) plus the jump to the loop head.
    LoopJump { target: u32 },
    /// Return with an optional value.
    Return { src: Option<Reg> },
    /// `reconfigure(config)` — call-counted and traced.
    Reconfigure { config: ConfigId },
    /// FPGA resource call; `args` index into the program's argument pool.
    ResourceCall {
        func: u16,
        args_start: u32,
        args_len: u16,
        target: Option<(Reg, u64)>,
    },
    /// End of the body (fell through without a return).
    Halt,
}

/// Compile-time description of one array variable.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ArrayInfo {
    var: VarId,
    len: u32,
    mask: u64,
}

/// A [`Function`] compiled to a flat register program. Immutable once
/// compiled; share or clone it freely and instantiate [`Vm`]s from it.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    num_params: usize,
    /// Register of the i-th parameter (by declaration ordinal).
    param_regs: Vec<Reg>,
    param_masks: Vec<u64>,
    /// Scalar register of every variable (arrays also get a scalar shadow
    /// slot, mirroring the interpreter's state layout).
    var_regs: Vec<Reg>,
    /// Array slot of array variables.
    var_arrays: Vec<Option<u16>>,
    /// Declared width of every variable (for fault compilation).
    var_widths: Vec<u32>,
    arrays: Vec<ArrayInfo>,
    num_regs: usize,
    ops: Vec<Op>,
    /// Flat pool of argument registers for resource calls.
    call_args: Vec<Reg>,
    /// Interned resource-call names.
    func_names: Vec<String>,
    /// All-uncovered coverage sized for the source function; cloned per
    /// instrumented run.
    coverage_proto: CoverageSet,
}

impl Program {
    /// Name of the source function.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parameters the program expects.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Number of decoded ops (including control ops).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Size of the register file (variables + expression temporaries).
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// A fresh all-uncovered coverage set sized for the source function.
    pub fn new_coverage(&self) -> CoverageSet {
        self.coverage_proto.clone()
    }
}

/// Collects every distinct constant value in a block, in first-use order.
/// Each gets a dedicated register materialized once per run, so a constant
/// inside a loop body costs zero dispatches per iteration.
fn collect_consts(stmts: &[Stmt], out: &mut Vec<u64>) {
    fn walk_expr(e: &Expr, out: &mut Vec<u64>) {
        match e {
            Expr::Const { value, .. } => {
                if !out.contains(value) {
                    out.push(*value);
                }
            }
            Expr::Var(_) => {}
            Expr::Index { index, .. } => walk_expr(index, out),
            Expr::Unary { arg, .. } => walk_expr(arg, out),
            Expr::Binary { lhs, rhs, .. } => {
                walk_expr(lhs, out);
                walk_expr(rhs, out);
            }
            Expr::Mux { cond, then_, else_ } => {
                walk_expr(cond, out);
                walk_expr(then_, out);
                walk_expr(else_, out);
            }
        }
    }
    for s in stmts {
        match s {
            Stmt::Assign { value, .. } => walk_expr(value, out),
            Stmt::Store { index, value, .. } => {
                walk_expr(index, out);
                walk_expr(value, out);
            }
            Stmt::If {
                cond, then_, else_, ..
            } => {
                walk_expr(cond, out);
                collect_consts(then_, out);
                collect_consts(else_, out);
            }
            Stmt::While { cond, body, .. } => {
                walk_expr(cond, out);
                collect_consts(body, out);
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    walk_expr(e, out);
                }
            }
            Stmt::Reconfigure { .. } => {}
            Stmt::ResourceCall { args, .. } => {
                for a in args {
                    walk_expr(a, out);
                }
            }
        }
    }
}

/// Compiles a function to a [`Program`].
///
/// Scalar variables get dedicated low registers; constants are deduplicated
/// and pinned above them (materialized once per run by a preamble);
/// expression temporaries use a bump-allocated scratch area above both that
/// resets at each statement, so the register file stays small and
/// cache-resident.
pub fn compile(func: &Function) -> Program {
    let nvars = func.vars().len();
    let mut var_regs = vec![0 as Reg; nvars];
    let mut var_arrays = vec![None; nvars];
    let mut var_widths = vec![0u32; nvars];
    let mut arrays = Vec::new();
    let mut param_regs = Vec::new();
    let mut param_masks = Vec::new();
    let mut next: Reg = 0;
    for (i, decl) in func.vars().iter().enumerate() {
        var_regs[i] = next;
        var_widths[i] = decl.width;
        next += 1;
        match decl.kind {
            VarKind::Param => {
                param_regs.push(var_regs[i]);
                param_masks.push(mask(decl.width));
            }
            VarKind::Local => {}
            VarKind::Array { len } => {
                var_arrays[i] = Some(arrays.len() as u16);
                arrays.push(ArrayInfo {
                    var: VarId::from_index(i),
                    len,
                    mask: mask(decl.width),
                });
            }
        }
    }
    let mut const_values = Vec::new();
    collect_consts(func.body(), &mut const_values);
    let const_regs: Vec<(u64, Reg)> = const_values
        .into_iter()
        .map(|v| {
            let r = next;
            next += 1;
            (v, r)
        })
        .collect();
    let mut c = Compiler {
        func,
        var_regs: &var_regs,
        var_arrays: &var_arrays,
        const_regs: &const_regs,
        ops: Vec::new(),
        call_args: Vec::new(),
        func_names: Vec::new(),
        num_var_regs: next,
        tp: next,
        max_regs: next,
    };
    for &(value, dst) in &const_regs {
        c.ops.push(Op::Const { dst, value });
    }
    c.compile_block(func.body());
    c.ops.push(Op::Halt);
    let (ops, call_args, func_names, max_regs) = (c.ops, c.call_args, c.func_names, c.max_regs);
    Program {
        name: func.name().to_owned(),
        num_params: func.num_params(),
        param_regs,
        param_masks,
        var_regs,
        var_arrays,
        var_widths,
        arrays,
        num_regs: max_regs as usize,
        ops,
        call_args,
        func_names,
        coverage_proto: CoverageSet::new(func),
    }
}

struct Compiler<'f> {
    func: &'f Function,
    var_regs: &'f [Reg],
    var_arrays: &'f [Option<u16>],
    /// Deduplicated constants pinned to registers by the preamble.
    const_regs: &'f [(u64, Reg)],
    ops: Vec<Op>,
    call_args: Vec<Reg>,
    func_names: Vec<String>,
    /// First temporary register (one past the last variable register).
    num_var_regs: Reg,
    /// Bump pointer for expression temporaries.
    tp: Reg,
    /// High-water mark → the VM's register file size.
    max_regs: Reg,
}

impl Compiler<'_> {
    fn alloc(&mut self) -> Reg {
        let r = self.tp;
        self.tp = self.tp.checked_add(1).expect("register file overflow");
        self.max_regs = self.max_regs.max(self.tp);
        r
    }

    fn patch(&mut self, at: usize) {
        let t = self.ops.len() as u32;
        match &mut self.ops[at] {
            Op::Jump { target }
            | Op::BranchIfZero { target, .. }
            | Op::MuxJumpIfZero { target, .. }
            | Op::CmpBranch { target, .. } => *target = t,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    /// Emits the conditional branch of an `if`/`while` head, fusing the
    /// condition's final ALU op (and its atom record) into the branch when
    /// it produced the condition register directly. Returns the index of
    /// the op whose `target` awaits [`Compiler::patch`].
    fn emit_branch(&mut self, cond: CondId, creg: Reg) -> usize {
        let n = self.ops.len();
        if n >= 2 {
            if let (
                &Op::Binary {
                    op,
                    dst,
                    lhs,
                    rhs,
                    width,
                },
                &Op::Atom { cond: c, atom, src },
            ) = (&self.ops[n - 2], &self.ops[n - 1])
            {
                if dst == creg && src == creg && c == cond {
                    self.ops.truncate(n - 2);
                    let at = self.ops.len();
                    self.ops.push(Op::CmpBranch {
                        op,
                        lhs,
                        rhs,
                        width,
                        atom: Some(atom),
                        cond,
                        target: 0,
                    });
                    return at;
                }
            }
        }
        if let Some(&Op::Binary {
            op,
            dst,
            lhs,
            rhs,
            width,
        }) = self.ops.last()
        {
            if dst == creg {
                self.ops.pop();
                let at = self.ops.len();
                self.ops.push(Op::CmpBranch {
                    op,
                    lhs,
                    rhs,
                    width,
                    atom: None,
                    cond,
                    target: 0,
                });
                return at;
            }
        }
        let at = self.ops.len();
        self.ops.push(Op::BranchIfZero {
            cond,
            src: creg,
            target: 0,
        });
        at
    }

    /// Static width of an expression — identical to the interpreter's
    /// convention (comparisons 1 bit, else max operand width).
    fn width_of(&self, e: &Expr) -> u32 {
        match e {
            Expr::Const { width, .. } => *width,
            Expr::Var(v) => self.func.var(*v).width,
            Expr::Index { array, .. } => self.func.var(*array).width,
            Expr::Unary { arg, .. } => self.width_of(arg),
            Expr::Binary { op, lhs, rhs } => {
                if op.is_comparison() {
                    1
                } else {
                    self.width_of(lhs).max(self.width_of(rhs))
                }
            }
            Expr::Mux { then_, else_, .. } => self.width_of(then_).max(self.width_of(else_)),
        }
    }

    fn compile_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.compile_stmt(s);
        }
    }

    fn compile_stmt(&mut self, s: &Stmt) {
        self.ops.push(Op::BeginStmt { id: s.id() });
        // Temporaries from the previous statement are dead; reuse them.
        self.tp = self.num_var_regs;
        match s {
            Stmt::Assign { target, value, .. } => {
                let src = self.compile_expr(value, None, &mut 0);
                self.ops.push(Op::AssignVar {
                    dst: self.var_regs[target.index()],
                    src,
                    mask: mask(self.func.var(*target).width),
                });
            }
            Stmt::Store {
                array,
                index,
                value,
                ..
            } => {
                let idx = self.compile_expr(index, None, &mut 0);
                let src = self.compile_expr(value, None, &mut 0);
                match self.var_arrays[array.index()] {
                    Some(arr) => self.ops.push(Op::StoreArr { arr, idx, src }),
                    // Store to a non-array variable: the interpreter drops
                    // the value but still counts the memory op.
                    None => {
                        let dst = self.alloc();
                        self.ops.push(Op::LoadMissing { dst });
                    }
                }
            }
            Stmt::If {
                cond_id,
                cond,
                then_,
                else_,
                ..
            } => {
                let mut next_atom = 0u32;
                let creg = self.compile_expr(cond, Some(*cond_id), &mut next_atom);
                let br = self.emit_branch(*cond_id, creg);
                self.compile_block(then_);
                if else_.is_empty() {
                    self.patch(br);
                } else {
                    let j = self.ops.len();
                    self.ops.push(Op::Jump { target: 0 });
                    self.patch(br);
                    self.compile_block(else_);
                    self.patch(j);
                }
            }
            Stmt::While {
                cond_id,
                cond,
                body,
                ..
            } => {
                // BeginStmt runs once on arrival; each completed iteration
                // costs one LoopJump step — matching the interpreter's
                // step accounting exactly.
                let head = self.ops.len() as u32;
                let mut next_atom = 0u32;
                let creg = self.compile_expr(cond, Some(*cond_id), &mut next_atom);
                let br = self.emit_branch(*cond_id, creg);
                self.compile_block(body);
                self.ops.push(Op::LoopJump { target: head });
                self.patch(br);
                // The condition re-evaluates each iteration; its temps must
                // not collide with the loop body's statements (they reset
                // tp themselves, so re-entry is fine).
                self.tp = self.num_var_regs;
            }
            Stmt::Return { value, .. } => {
                let src = value.as_ref().map(|e| self.compile_expr(e, None, &mut 0));
                self.ops.push(Op::Return { src });
            }
            Stmt::Reconfigure { config, .. } => {
                self.ops.push(Op::Reconfigure { config: *config });
            }
            Stmt::ResourceCall {
                func, args, target, ..
            } => {
                // Arguments are evaluated left to right; each result stays
                // live (the bump pointer is not reset between them).
                let arg_regs: Vec<Reg> = args
                    .iter()
                    .map(|a| self.compile_expr(a, None, &mut 0))
                    .collect();
                let args_start = self.call_args.len() as u32;
                let args_len = arg_regs.len() as u16;
                self.call_args.extend(arg_regs);
                let fidx = self.intern_name(func);
                let target =
                    target.map(|t| (self.var_regs[t.index()], mask(self.func.var(t).width)));
                self.ops.push(Op::ResourceCall {
                    func: fidx,
                    args_start,
                    args_len,
                    target,
                });
            }
        }
    }

    fn intern_name(&mut self, name: &str) -> u16 {
        match self.func_names.iter().position(|n| n == name) {
            Some(i) => i as u16,
            None => {
                self.func_names.push(name.to_owned());
                (self.func_names.len() - 1) as u16
            }
        }
    }

    /// Compiles an expression, returning the register holding its value.
    ///
    /// Inside a branch condition (`cond` is `Some`), comparison nodes claim
    /// atom indices in pre-order — the same numbering as
    /// [`Expr::atomic_conditions`] — and emit [`Op::Atom`] records. Atoms
    /// inside mux arms land in the arm's emitted code, so an untaken arm's
    /// atoms are never recorded, exactly like the single-pass interpreter.
    fn compile_expr(&mut self, e: &Expr, cond: Option<CondId>, next_atom: &mut u32) -> Reg {
        match e {
            Expr::Const { value, .. } => self
                .const_regs
                .iter()
                .find(|&&(v, _)| v == *value)
                .map(|&(_, r)| r)
                .expect("every constant was pre-scanned"),
            Expr::Var(v) => self.var_regs[v.index()],
            Expr::Index { array, index } => {
                let base = self.tp;
                let idx = self.compile_expr(index, cond, next_atom);
                self.tp = base;
                let dst = self.alloc();
                match self.var_arrays[array.index()] {
                    Some(arr) => self.ops.push(Op::Load { dst, arr, idx }),
                    None => self.ops.push(Op::LoadMissing { dst }),
                }
                dst
            }
            Expr::Unary { op, arg } => {
                let base = self.tp;
                let src = self.compile_expr(arg, cond, next_atom);
                let m = mask(self.width_of(arg));
                self.tp = base;
                let dst = self.alloc();
                self.ops.push(Op::Unary {
                    op: *op,
                    dst,
                    src,
                    mask: m,
                });
                dst
            }
            Expr::Binary { op, lhs, rhs } => {
                let my_atom = match cond {
                    Some(_) if op.is_comparison() => {
                        let i = *next_atom;
                        *next_atom += 1;
                        Some(i)
                    }
                    _ => None,
                };
                let base = self.tp;
                let l = self.compile_expr(lhs, cond, next_atom);
                let r = self.compile_expr(rhs, cond, next_atom);
                let width = self.width_of(lhs).max(self.width_of(rhs));
                self.tp = base;
                let dst = self.alloc();
                self.ops.push(Op::Binary {
                    op: *op,
                    dst,
                    lhs: l,
                    rhs: r,
                    width,
                });
                if let (Some(id), Some(atom)) = (cond, my_atom) {
                    self.ops.push(Op::Atom {
                        cond: id,
                        atom,
                        src: dst,
                    });
                }
                dst
            }
            Expr::Mux {
                cond: sel,
                then_,
                else_,
            } => {
                let base = self.tp;
                let creg = self.compile_expr(sel, cond, next_atom);
                self.tp = base;
                let dst = self.alloc();
                let jz = self.ops.len();
                self.ops.push(Op::MuxJumpIfZero {
                    src: creg,
                    target: 0,
                });
                let tr = self.compile_expr(then_, cond, next_atom);
                self.ops.push(Op::Copy { dst, src: tr });
                let j = self.ops.len();
                self.ops.push(Op::Jump { target: 0 });
                self.patch(jz);
                self.tp = base + 1; // dst stays live across the arms
                let er = self.compile_expr(else_, cond, next_atom);
                self.ops.push(Op::Copy { dst, src: er });
                self.patch(j);
                self.tp = base + 1;
                dst
            }
        }
    }
}

/// Compile-time-selected instrumentation for [`Vm`] runs.
///
/// Every hook defaults to a no-op; the dispatch loop is monomorphized per
/// hook set, so an unused hook costs literally nothing (the call inlines
/// to nothing). `TRACE_CALLS` additionally gates construction of
/// [`CallEvent`] values, which would otherwise allocate even if dropped.
trait VmHooks {
    /// Whether [`CallEvent`]s should be constructed and delivered.
    const TRACE_CALLS: bool = false;

    /// A statement began executing.
    #[inline(always)]
    fn on_stmt(&mut self, _id: StmtId) {}
    /// A branch outcome was decided.
    #[inline(always)]
    fn on_branch(&mut self, _cond: CondId, _taken: bool) {}
    /// An atomic condition produced a value.
    #[inline(always)]
    fn on_atom(&mut self, _cond: CondId, _atom: u32, _value: bool) {}
    /// One ALU operation executed.
    #[inline(always)]
    fn count_alu(&mut self) {}
    /// One multiplication executed.
    #[inline(always)]
    fn count_mul(&mut self) {}
    /// One division/remainder executed.
    #[inline(always)]
    fn count_div(&mut self) {}
    /// One memory (array) operation executed.
    #[inline(always)]
    fn count_mem(&mut self) {}
    /// One conditional branch evaluated.
    #[inline(always)]
    fn count_branch(&mut self) {}
    /// One resource/reconfigure call executed.
    #[inline(always)]
    fn count_call(&mut self) {}
    /// A never-written array element was read.
    #[inline(always)]
    fn on_uninit_read(&mut self, _var: VarId, _index: u64) {}
    /// An out-of-bounds array access happened.
    #[inline(always)]
    fn on_oob(&mut self, _access: OobAccess) {}
    /// A traced call event (only delivered when `TRACE_CALLS` is true).
    #[inline(always)]
    fn on_call(&mut self, _event: CallEvent) {}
}

/// No instrumentation: the pure-throughput path.
#[derive(Debug, Default, Clone, Copy)]
struct NoHooks;

impl VmHooks for NoHooks {}

/// Full instrumentation — everything the interpreter's [`RunOutput`]
/// reports.
#[derive(Debug, Clone)]
struct FullHooks {
    /// Coverage recorded during the run.
    coverage: CoverageSet,
    /// Operation profile.
    ops: OpCounts,
    /// Uninitialized-read report in execution order.
    uninit: Vec<(VarId, u64)>,
    /// Out-of-bounds report in execution order.
    oob: Vec<OobAccess>,
    /// Call trace in execution order.
    trace: Vec<CallEvent>,
}

impl VmHooks for FullHooks {
    const TRACE_CALLS: bool = true;

    #[inline(always)]
    fn on_stmt(&mut self, id: StmtId) {
        self.coverage.hit_statement(id);
    }
    #[inline(always)]
    fn on_branch(&mut self, cond: CondId, taken: bool) {
        self.coverage.hit_branch(cond, taken);
    }
    #[inline(always)]
    fn on_atom(&mut self, cond: CondId, atom: u32, value: bool) {
        self.coverage.hit_atom(cond, atom as usize, value);
    }
    #[inline(always)]
    fn count_alu(&mut self) {
        self.ops.alu += 1;
    }
    #[inline(always)]
    fn count_mul(&mut self) {
        self.ops.mul += 1;
    }
    #[inline(always)]
    fn count_div(&mut self) {
        self.ops.div += 1;
    }
    #[inline(always)]
    fn count_mem(&mut self) {
        self.ops.mem += 1;
    }
    #[inline(always)]
    fn count_branch(&mut self) {
        self.ops.branch += 1;
    }
    #[inline(always)]
    fn count_call(&mut self) {
        self.ops.call += 1;
    }
    #[inline(always)]
    fn on_uninit_read(&mut self, var: VarId, index: u64) {
        self.uninit.push((var, index));
    }
    #[inline(always)]
    fn on_oob(&mut self, access: OobAccess) {
        self.oob.push(access);
    }
    #[inline(always)]
    fn on_call(&mut self, event: CallEvent) {
        self.trace.push(event);
    }
}

/// Call-trace-only hooks: what an ATPG fault signature needs beyond the
/// return value.
#[derive(Debug, Default, Clone)]
struct SigHooks {
    /// Call trace in execution order.
    trace: Vec<CallEvent>,
}

impl VmHooks for SigHooks {
    const TRACE_CALLS: bool = true;

    #[inline(always)]
    fn on_call(&mut self, event: CallEvent) {
        self.trace.push(event);
    }
}

/// A bit fault resolved against a compiled program: the OR/AND masks to
/// apply at every write of the faulted variable's scalar register or
/// array slot.
#[derive(Debug, Clone, Copy)]
struct CompiledFault {
    reg: Reg,
    arr: Option<u16>,
    or: u64,
    and: u64,
}

/// Per-array runtime state. `written` holds the stamp of the run that last
/// wrote each element, so resetting between runs is a single counter bump
/// instead of a memset.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ArrayBuf {
    data: Vec<u64>,
    written: Vec<u64>,
}

/// Steps a run takes before its loop back-edges are checked for a repeated
/// state. It only decides how soon detection starts, never a result; the
/// kernels' fault-free runs stay far below it and pay nothing.
const CYCLE_CHECK_AFTER: u64 = 4096;

/// Brent's cycle detection over the states a run passes at its loop
/// back-edges.
///
/// From a back-edge, the rest of a run is fully determined by the loop
/// head it jumps to, the register file, and the array buffers (data plus
/// written-this-run stamps), given the run's constants: program, fault,
/// step limit and garbage value. A resource handler may hold state of its
/// own, so the caller never consults the detector for a run that has one
/// and a program that calls it. If a back-edge state equals an earlier
/// one of the same run, the run is in a cycle that never reaches
/// `Return` or `Halt`, and its only possible outcome is the step-limit
/// error.
///
/// The snapshot lives in the [`Vm`] and is armed lazily: a snapshot
/// stamped with another run's generation counts as empty, so runs that
/// never reach [`CYCLE_CHECK_AFTER`] steps never touch it.
#[derive(Debug, Clone, Default)]
struct CycleDetector {
    /// Generation stamp of the run the snapshot belongs to.
    stamp: u64,
    /// Snapshot: loop head, register file, array buffers.
    pc: u32,
    regs: Vec<u64>,
    arrays: Vec<ArrayBuf>,
    /// Back-edges since the snapshot, and how many pass before the
    /// snapshot moves forward (doubling each time).
    since: u64,
    power: u64,
}

impl CycleDetector {
    /// Whether the state at this back-edge equals an earlier back-edge
    /// state of the run stamped `stamp`.
    #[cold]
    #[inline(never)]
    fn repeats(&mut self, stamp: u64, pc: u32, regs: &[u64], arrays: &[ArrayBuf]) -> bool {
        if self.stamp == stamp {
            if self.pc == pc && self.regs == regs && self.arrays == arrays {
                return true;
            }
            self.since += 1;
            if self.since < self.power {
                return false;
            }
            self.power *= 2;
        } else {
            self.stamp = stamp;
            self.power = 1;
        }
        self.since = 0;
        self.pc = pc;
        self.regs.clear();
        self.regs.extend_from_slice(regs);
        self.arrays.clear();
        self.arrays.extend_from_slice(arrays);
        false
    }
}

/// Executes a [`Program`] with reusable state: compile once, then run per
/// frame / per test vector / per fault without re-decoding or
/// re-allocating.
#[derive(Debug, Clone)]
pub struct Vm {
    program: Program,
    regs: Vec<u64>,
    arrays: Vec<ArrayBuf>,
    /// Current run's generation stamp for array-write tracking.
    stamp: u64,
    step_limit: u64,
    fault: Option<CompiledFault>,
    garbage: u64,
    detector: CycleDetector,
}

impl Vm {
    /// Creates a VM for a compiled program with default settings (matching
    /// the interpreter's defaults).
    pub fn new(program: Program) -> Vm {
        let regs = vec![0u64; program.num_regs];
        let arrays = program
            .arrays
            .iter()
            .map(|a| ArrayBuf {
                data: vec![0u64; a.len as usize],
                written: vec![0u64; a.len as usize],
            })
            .collect();
        Vm {
            program,
            regs,
            arrays,
            stamp: 0,
            step_limit: 1_000_000,
            fault: None,
            garbage: 0xDEAD_BEEF_CAFE_F00D,
            detector: CycleDetector::default(),
        }
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Sets the dynamic step limit (builder form).
    pub fn with_step_limit(mut self, limit: u64) -> Vm {
        self.step_limit = limit;
        self
    }

    /// Overrides the garbage value returned by uninitialized reads
    /// (builder form).
    pub fn with_garbage(mut self, garbage: u64) -> Vm {
        self.garbage = garbage;
        self
    }

    /// Installs (or clears) the injected bit fault for subsequent runs.
    /// Cheap — this is the per-fault step of an ATPG sweep over one
    /// compiled program.
    pub fn set_fault(&mut self, fault: Option<BitFault>) {
        self.fault = fault.and_then(|f| {
            // A fault on a variable the program does not declare matches no
            // assignment target, and one on a bit outside the variable's
            // width never changes a value (the interpreter's guard): drop
            // either entirely.
            let &width = self.program.var_widths.get(f.var.index())?;
            if f.bit >= width {
                return None;
            }
            Some(CompiledFault {
                reg: self.program.var_regs[f.var.index()],
                arr: self.program.var_arrays[f.var.index()],
                or: if f.stuck_at { 1u64 << f.bit } else { 0 },
                and: if f.stuck_at {
                    u64::MAX
                } else {
                    !(1u64 << f.bit)
                },
            })
        });
    }

    /// Fully instrumented run — produces a [`RunOutput`] bit-for-bit equal
    /// to the interpreter's.
    ///
    /// # Errors
    ///
    /// Same contract as [`Interpreter::run`]: arity mismatch or step-limit
    /// exhaustion.
    pub fn run(&mut self, inputs: &[u64]) -> Result<RunOutput, ExecError> {
        self.run_with_handler(inputs, None)
    }

    /// Fully instrumented run with a resource-call handler.
    ///
    /// # Errors
    ///
    /// Same contract as [`Interpreter::run`].
    pub fn run_with_handler(
        &mut self,
        inputs: &[u64],
        handler: Option<&mut ResourceHandler<'_>>,
    ) -> Result<RunOutput, ExecError> {
        let mut hooks = FullHooks {
            coverage: self.program.coverage_proto.clone(),
            ops: OpCounts::default(),
            uninit: Vec::new(),
            oob: Vec::new(),
            trace: Vec::new(),
        };
        let (return_value, steps) = self.run_hooked(inputs, &mut hooks, handler)?;
        Ok(RunOutput {
            return_value,
            coverage: hooks.coverage,
            ops: hooks.ops,
            steps,
            uninitialized_reads: hooks.uninit,
            out_of_bounds: hooks.oob,
            call_trace: hooks.trace,
        })
    }

    /// Uninstrumented run: just the return value, at full throughput.
    ///
    /// # Errors
    ///
    /// Same contract as [`Interpreter::run`].
    pub fn run_value(&mut self, inputs: &[u64]) -> Result<Option<u64>, ExecError> {
        let mut hooks = NoHooks;
        Ok(self.run_hooked(inputs, &mut hooks, None)?.0)
    }

    /// Fault-signature run: return value plus call trace, nothing else —
    /// the ATPG sweep's inner loop.
    ///
    /// # Errors
    ///
    /// Same contract as [`Interpreter::run`].
    pub fn run_signature(
        &mut self,
        inputs: &[u64],
    ) -> Result<(Option<u64>, Vec<CallEvent>), ExecError> {
        let mut hooks = SigHooks::default();
        let (ret, _) = self.run_hooked(inputs, &mut hooks, None)?;
        Ok((ret, hooks.trace))
    }

    /// The generic dispatch loop, monomorphized per hook set. Returns the
    /// return value (if any) and the dynamic step count.
    ///
    /// # Errors
    ///
    /// Same contract as [`Interpreter::run`].
    fn run_hooked<H: VmHooks>(
        &mut self,
        inputs: &[u64],
        hooks: &mut H,
        mut handler: Option<&mut ResourceHandler<'_>>,
    ) -> Result<(Option<u64>, u64), ExecError> {
        let program = &self.program;
        if inputs.len() != program.num_params {
            return Err(ExecError::ArityMismatch {
                expected: program.num_params,
                got: inputs.len(),
            });
        }
        // Reset reusable state: registers to zero, arrays by bumping the
        // generation stamp (elements written by older runs read as
        // uninitialized again, with no memset).
        self.regs.fill(0);
        for (i, &v) in inputs.iter().enumerate() {
            self.regs[program.param_regs[i] as usize] = v & program.param_masks[i];
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let regs = &mut self.regs;
        let arrays = &mut self.arrays;
        let fault = self.fault;
        let step_limit = self.step_limit;
        // Back-edges past this step count take the cold path, which
        // enforces the step limit and looks for a repeated state.
        let check_at = step_limit.min(CYCLE_CHECK_AFTER);
        let detector = &mut self.detector;
        let garbage = self.garbage;
        #[cfg(feature = "vm-mutant")]
        let mut mutant_writes = 0u64;
        let ops: &[Op] = &program.ops;
        let mut pc = 0usize;
        let mut steps = 0u64;
        let ret = loop {
            let op = &ops[pc];
            pc += 1;
            match *op {
                Op::Const { dst, value } => regs[dst as usize] = value,
                Op::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
                Op::Unary { op, dst, src, mask } => {
                    let a = regs[src as usize];
                    hooks.count_alu();
                    regs[dst as usize] = match op {
                        UnaryOp::Not => !a & mask,
                        UnaryOp::Neg => a.wrapping_neg() & mask,
                    };
                }
                Op::Binary {
                    op,
                    dst,
                    lhs,
                    rhs,
                    width,
                } => {
                    let a = regs[lhs as usize];
                    let b = regs[rhs as usize];
                    match op {
                        BinOp::Mul => hooks.count_mul(),
                        BinOp::Div | BinOp::Rem => hooks.count_div(),
                        _ => hooks.count_alu(),
                    }
                    regs[dst as usize] = apply_binop(op, a, b, width);
                }
                Op::Load { dst, arr, idx } => {
                    let i = regs[idx as usize];
                    hooks.count_mem();
                    let buf = &arrays[arr as usize];
                    let info = &program.arrays[arr as usize];
                    regs[dst as usize] = if (i as usize) < buf.data.len() {
                        if buf.written[i as usize] == stamp {
                            buf.data[i as usize]
                        } else {
                            hooks.on_uninit_read(info.var, i);
                            garbage & info.mask
                        }
                    } else {
                        hooks.on_oob(OobAccess {
                            var: info.var,
                            index: i,
                            kind: OobKind::Load,
                        });
                        garbage & info.mask
                    };
                }
                Op::LoadMissing { dst } => {
                    hooks.count_mem();
                    regs[dst as usize] = 0;
                }
                Op::StoreArr { arr, idx, src } => {
                    let i = regs[idx as usize];
                    let mut v = regs[src as usize];
                    if let Some(f) = fault {
                        if f.arr == Some(arr) {
                            v = (v | f.or) & f.and;
                        }
                    }
                    let buf = &mut arrays[arr as usize];
                    let info = &program.arrays[arr as usize];
                    if (i as usize) < buf.data.len() {
                        buf.data[i as usize] = v & info.mask;
                        buf.written[i as usize] = stamp;
                    } else {
                        hooks.on_oob(OobAccess {
                            var: info.var,
                            index: i,
                            kind: OobKind::Store,
                        });
                    }
                    hooks.count_mem();
                }
                Op::AssignVar { dst, src, mask } => {
                    let mut v = regs[src as usize];
                    if let Some(f) = fault {
                        if f.reg == dst {
                            v = (v | f.or) & f.and;
                        }
                    }
                    #[cfg(feature = "vm-mutant")]
                    let mask = {
                        // Seeded miscompile: skip the width mask on every
                        // third scalar assignment. The differential oracle
                        // must catch this.
                        mutant_writes += 1;
                        if mutant_writes.is_multiple_of(3) {
                            u64::MAX
                        } else {
                            mask
                        }
                    };
                    regs[dst as usize] = v & mask;
                    hooks.count_alu();
                }
                Op::Jump { target } => pc = target as usize,
                Op::BranchIfZero { cond, src, target } => {
                    let taken = regs[src as usize] != 0;
                    hooks.count_branch();
                    hooks.on_branch(cond, taken);
                    if !taken {
                        pc = target as usize;
                    }
                }
                Op::MuxJumpIfZero { src, target } => {
                    hooks.count_alu();
                    if regs[src as usize] == 0 {
                        pc = target as usize;
                    }
                }
                Op::CmpBranch {
                    op,
                    lhs,
                    rhs,
                    width,
                    atom,
                    cond,
                    target,
                } => {
                    let a = regs[lhs as usize];
                    let b = regs[rhs as usize];
                    match op {
                        BinOp::Mul => hooks.count_mul(),
                        BinOp::Div | BinOp::Rem => hooks.count_div(),
                        _ => hooks.count_alu(),
                    }
                    let v = apply_binop(op, a, b, width);
                    if let Some(atom) = atom {
                        hooks.on_atom(cond, atom, v != 0);
                    }
                    let taken = v != 0;
                    hooks.count_branch();
                    hooks.on_branch(cond, taken);
                    if !taken {
                        pc = target as usize;
                    }
                }
                Op::Atom { cond, atom, src } => {
                    hooks.on_atom(cond, atom, regs[src as usize] != 0);
                }
                Op::BeginStmt { id } => {
                    steps += 1;
                    if steps > step_limit {
                        return Err(ExecError::StepLimit { limit: step_limit });
                    }
                    hooks.on_stmt(id);
                }
                Op::LoopJump { target } => {
                    steps += 1;
                    if steps > check_at {
                        // No detection when the run depends on state the
                        // detector cannot see: a handler the program calls
                        // (`func_names` lists its resource calls), or the
                        // `vm-mutant` miscompile's write counter.
                        let unseen = cfg!(feature = "vm-mutant")
                            || (handler.is_some() && !program.func_names.is_empty());
                        if steps > step_limit
                            || (!unseen && detector.repeats(stamp, target, regs, arrays))
                        {
                            return Err(ExecError::StepLimit { limit: step_limit });
                        }
                    }
                    pc = target as usize;
                }
                Op::Return { src } => break src.map(|r| regs[r as usize]),
                Op::Reconfigure { config } => {
                    hooks.count_call();
                    if H::TRACE_CALLS {
                        hooks.on_call(CallEvent::Reconfigure(config));
                    }
                }
                Op::ResourceCall {
                    func,
                    args_start,
                    args_len,
                    target,
                } => {
                    let arg_regs = &program.call_args
                        [args_start as usize..args_start as usize + args_len as usize];
                    let args: Vec<u64> = arg_regs.iter().map(|&r| regs[r as usize]).collect();
                    hooks.count_call();
                    let name = &program.func_names[func as usize];
                    let result = match handler.as_mut() {
                        Some(h) => h(name, &args),
                        None => 0,
                    };
                    if H::TRACE_CALLS {
                        hooks.on_call(CallEvent::Resource {
                            func: name.clone(),
                            args,
                            result,
                        });
                    }
                    if let Some((dst, m)) = target {
                        let mut v = result & m;
                        if let Some(f) = fault {
                            if f.reg == dst {
                                v = (v | f.or) & f.and;
                            }
                        }
                        regs[dst as usize] = v & m;
                    }
                }
                Op::Halt => break None,
            }
        };
        Ok((ret, steps))
    }
}

/// Engine choice for behavioural execution in hot callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BehavExec {
    /// The tree-walking interpreter — the reference semantics, retained as
    /// the differential oracle.
    Interp,
    /// The register bytecode VM — the default fast path.
    #[default]
    Vm,
}

impl BehavExec {
    /// Short engine name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            BehavExec::Interp => "interp",
            BehavExec::Vm => "vm",
        }
    }
}

/// A compile-once executor for one function under either engine — what a
/// hot caller holds so the engine choice is a construction-time decision.
#[derive(Debug)]
pub enum Runner {
    /// Tree-walking oracle (decodes the IR each run).
    Interp(Function),
    /// Compiled program with reusable VM state.
    Vm(Box<Vm>),
}

impl Runner {
    /// Builds a runner for `func` under the chosen engine.
    pub fn new(func: &Function, exec: BehavExec) -> Runner {
        match exec {
            BehavExec::Interp => Runner::Interp(func.clone()),
            BehavExec::Vm => Runner::Vm(Box::new(Vm::new(compile(func)))),
        }
    }

    /// Executes on `inputs`, returning only the return value.
    ///
    /// # Errors
    ///
    /// Same contract as [`Interpreter::run`].
    pub fn run_value(&mut self, inputs: &[u64]) -> Result<Option<u64>, ExecError> {
        match self {
            Runner::Interp(f) => Interpreter::new(f).run(inputs).map(|o| o.return_value),
            Runner::Vm(vm) => vm.run_value(inputs),
        }
    }

    /// Fully instrumented execution.
    ///
    /// # Errors
    ///
    /// Same contract as [`Interpreter::run`].
    pub fn run(&mut self, inputs: &[u64]) -> Result<RunOutput, ExecError> {
        match self {
            Runner::Interp(f) => Interpreter::new(f).run(inputs),
            Runner::Vm(vm) => vm.run(inputs),
        }
    }
}

#[cfg(all(test, not(feature = "vm-mutant")))]
mod tests {
    use super::*;
    use crate::func::FunctionBuilder;
    use crate::interp::enumerate_bit_faults;
    use crate::unroll::unroll;

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

    fn assert_agree(f: &Function, inputs: &[u64]) {
        let mut vm = Vm::new(compile(f));
        let interp = Interpreter::new(f).run(inputs);
        let vm_out = vm.run(inputs);
        assert_eq!(interp, vm_out, "divergence on {} {:?}", f.name(), inputs);
    }

    #[test]
    fn gcd_agrees_bit_for_bit() {
        let f = gcd_func();
        for v in [[48u64, 18], [7, 13], [0, 5], [5, 0], [1, 1]] {
            assert_agree(&f, &v);
        }
    }

    #[test]
    fn vm_state_is_reusable_across_runs() {
        let f = gcd_func();
        let mut vm = Vm::new(compile(&f));
        let first = vm.run(&[48, 18]).unwrap();
        let second = vm.run(&[48, 18]).unwrap();
        assert_eq!(first, second);
        assert_eq!(second.return_value, Some(6));
    }

    #[test]
    fn array_state_resets_between_runs() {
        // Run 1 writes the array; run 2 must still see it uninitialized.
        let mut fb = FunctionBuilder::new("arr", 16);
        let a = fb.param("write", 1);
        let arr = fb.array("buf", 16, 4);
        let x = fb.local("x", 16);
        fb.if_(Expr::var(a), |t| {
            t.store(arr, Expr::constant(2, 8), Expr::constant(9, 16));
        });
        fb.assign(x, Expr::index(arr, Expr::constant(2, 8)));
        fb.ret(Expr::var(x));
        let f = fb.build();
        let mut vm = Vm::new(compile(&f));
        assert_eq!(vm.run(&[1]).unwrap().return_value, Some(9));
        let out = vm.run(&[0]).unwrap();
        assert_eq!(out.uninitialized_reads, vec![(arr, 2)]);
        assert_ne!(out.return_value, Some(9));
        assert_eq!(out, Interpreter::new(&f).run(&[0]).unwrap());
    }

    #[test]
    fn oob_and_uninit_reports_match_interpreter() {
        let mut fb = FunctionBuilder::new("mem", 16);
        let arr = fb.array("buf", 16, 3);
        let x = fb.local("x", 16);
        fb.store(arr, Expr::constant(5, 8), Expr::constant(1, 16)); // OOB store
        fb.assign(x, Expr::index(arr, Expr::constant(9, 8))); // OOB load
        fb.assign(
            x,
            Expr::add(Expr::var(x), Expr::index(arr, Expr::constant(1, 8))),
        ); // uninit
        fb.ret(Expr::var(x));
        let f = fb.build();
        assert_agree(&f, &[]);
        let out = Vm::new(compile(&f)).run(&[]).unwrap();
        assert_eq!(out.out_of_bounds.len(), 2);
        assert_eq!(out.uninitialized_reads, vec![(arr, 1)]);
    }

    #[test]
    fn condition_coverage_and_op_counts_match() {
        let mut fb = FunctionBuilder::new("cond", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
        fb.if_else(
            Expr::and(
                Expr::lt(Expr::var(a), Expr::constant(10, 8)),
                Expr::gt(Expr::var(a), Expr::constant(2, 8)),
            ),
            |t| t.assign(x, Expr::constant(1, 8)),
            |e| e.assign(x, Expr::constant(2, 8)),
        );
        fb.ret(Expr::var(x));
        let f = fb.build();
        for v in 0..16 {
            assert_agree(&f, &[v]);
        }
    }

    #[test]
    fn mux_atoms_in_conditions_match() {
        let mut fb = FunctionBuilder::new("muxcond", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
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
        for v in 0..12 {
            assert_agree(&f, &[v]);
        }
    }

    #[test]
    fn faulted_runs_match_interpreter() {
        let f = gcd_func();
        let mut vm = Vm::new(compile(&f));
        for fault in enumerate_bit_faults(&f) {
            vm.set_fault(Some(fault));
            for v in [[48u64, 18], [9, 6]] {
                let interp = Interpreter::new(&f).with_fault(fault).run(&v);
                assert_eq!(interp, vm.run(&v), "fault {fault:?} diverged");
            }
        }
        // Clearing the fault restores golden behaviour.
        vm.set_fault(None);
        assert_eq!(vm.run(&[48, 18]).unwrap().return_value, Some(6));
    }

    #[test]
    fn resource_calls_and_reconfigure_match() {
        let mut fb = FunctionBuilder::new("sw", 16);
        let x = fb.local("x", 16);
        fb.reconfigure(ConfigId(1));
        fb.resource_call(
            "root",
            vec![Expr::constant(49, 16), Expr::constant(1, 8)],
            Some(x),
        );
        fb.ret(Expr::var(x));
        let f = fb.build();
        let mut handler1 = |name: &str, args: &[u64]| -> u64 { name.len() as u64 + args[0] };
        let mut handler2 = |name: &str, args: &[u64]| -> u64 { name.len() as u64 + args[0] };
        let interp = Interpreter::new(&f)
            .with_resource_handler(Box::new(&mut handler1))
            .run(&[]);
        let mut vm = Vm::new(compile(&f));
        let vm_out = vm.run_with_handler(&[], Some(&mut handler2));
        assert_eq!(interp, vm_out);
        assert_eq!(vm_out.unwrap().return_value, Some(53));
    }

    #[test]
    fn step_limit_errors_match() {
        let mut fb = FunctionBuilder::new("inf", 8);
        fb.while_(Expr::constant(1, 1), |_| {});
        fb.ret(Expr::constant(0, 8));
        let f = fb.build();
        let interp = Interpreter::new(&f).with_step_limit(100).run(&[]);
        let vm = Vm::new(compile(&f)).with_step_limit(100).run(&[]);
        assert_eq!(interp, vm);
        assert_eq!(vm.unwrap_err(), ExecError::StepLimit { limit: 100 });
    }

    /// The `media` crate's ROOT kernel (bit-pair integer square root of a
    /// 32-bit input), returned with its 8-bit loop counter `i`.
    fn root_func() -> (Function, VarId) {
        let mut fb = FunctionBuilder::new("root", 16);
        let x = fb.param("x", 32);
        let rem = fb.local("rem", 32);
        let res = fb.local("res", 32);
        let bit = fb.local("bit", 32);
        let i = fb.local("i", 8);
        fb.assign(rem, Expr::var(x));
        fb.assign(res, Expr::constant(0, 32));
        fb.assign(bit, Expr::constant(1 << 30, 32));
        fb.assign(i, Expr::constant(0, 8));
        fb.while_(Expr::lt(Expr::var(i), Expr::constant(16, 8)), |body| {
            let t = body.local("try", 32);
            body.assign(t, Expr::add(Expr::var(res), Expr::var(bit)));
            body.if_else(
                Expr::ge(Expr::var(rem), Expr::var(t)),
                |then_| {
                    then_.assign(rem, Expr::sub(Expr::var(rem), Expr::var(t)));
                    then_.assign(
                        res,
                        Expr::add(
                            Expr::shr(Expr::var(res), Expr::constant(1, 32)),
                            Expr::var(bit),
                        ),
                    );
                },
                |else_| else_.assign(res, Expr::shr(Expr::var(res), Expr::constant(1, 32))),
            );
            body.assign(bit, Expr::shr(Expr::var(bit), Expr::constant(2, 32)));
            body.assign(i, Expr::add(Expr::var(i), Expr::constant(1, 8)));
        });
        fb.ret(Expr::var(res));
        (fb.build(), i)
    }

    #[test]
    fn faulted_root_loop_ends_without_a_step_limit() {
        let (f, i) = root_func();
        let fault = BitFault {
            var: i,
            bit: 0,
            stuck_at: false,
        };
        let mut vm = Vm::new(compile(&f)).with_step_limit(50_000);
        vm.set_fault(Some(fault));
        let interp = Interpreter::new(&f)
            .with_step_limit(50_000)
            .with_fault(fault)
            .run(&[49]);
        assert_eq!(vm.run(&[49]), interp);
        // With no limit at all, only the detector can end these runs.
        let mut vm = Vm::new(compile(&f)).with_step_limit(u64::MAX);
        vm.set_fault(Some(fault));
        let diverged = ExecError::StepLimit { limit: u64::MAX };
        assert_eq!(vm.run(&[49]).unwrap_err(), diverged);
        assert_eq!(vm.run_signature(&[49]).unwrap_err(), diverged);
        assert_eq!(vm.run_value(&[49]).unwrap_err(), diverged);
        // The same VM still runs the fault-free kernel exactly.
        vm.set_fault(None);
        assert_eq!(vm.run(&[49]), Interpreter::new(&f).run(&[49]));
        assert_eq!(vm.run_value(&[49]), Ok(Some(7)));
    }

    #[test]
    fn period_two_cycle_is_detected() {
        // `n` should count to 3 while `flag` toggles; with n[1] stuck-at-0
        // it falls back from 2 to 0, so the back-edge state alternates
        // between two values forever.
        let mut fb = FunctionBuilder::new("toggle", 1);
        let n = fb.local("n", 2);
        let flag = fb.local("flag", 1);
        fb.while_(Expr::ne(Expr::var(n), Expr::constant(3, 2)), |body| {
            body.assign(flag, Expr::xor(Expr::var(flag), Expr::constant(1, 1)));
            body.assign(n, Expr::add(Expr::var(n), Expr::constant(1, 2)));
        });
        fb.ret(Expr::var(flag));
        let f = fb.build();
        let fault = BitFault {
            var: n,
            bit: 1,
            stuck_at: false,
        };
        let mut vm = Vm::new(compile(&f)).with_step_limit(u64::MAX);
        vm.set_fault(Some(fault));
        assert_eq!(
            vm.run(&[]).unwrap_err(),
            ExecError::StepLimit { limit: u64::MAX }
        );
        let mut vm = Vm::new(compile(&f)).with_step_limit(50_000);
        vm.set_fault(Some(fault));
        let interp = Interpreter::new(&f)
            .with_step_limit(50_000)
            .with_fault(fault)
            .run(&[]);
        assert_eq!(vm.run(&[]), interp);
    }

    #[test]
    fn array_progress_is_not_taken_for_a_cycle() {
        // Every register repeats at the back-edge: the body's last
        // statement overwrites the only temporary with a constant sum.
        // Only `count[0]` moves, and it reaches the exit after ~9,000
        // steps.
        let mut fb = FunctionBuilder::new("count", 16);
        let count = fb.array("count", 16, 1);
        let scratch = fb.local("scratch", 16);
        let at0 = || Expr::index(count, Expr::constant(0, 1));
        fb.store(count, Expr::constant(0, 1), Expr::constant(0, 16));
        fb.while_(Expr::ne(at0(), Expr::constant(3000, 16)), |body| {
            body.store(
                count,
                Expr::constant(0, 1),
                Expr::add(at0(), Expr::constant(1, 16)),
            );
            body.assign(
                scratch,
                Expr::add(Expr::constant(1, 16), Expr::constant(2, 16)),
            );
        });
        fb.ret(at0());
        let f = fb.build();
        let out = Vm::new(compile(&f)).with_step_limit(u64::MAX).run(&[]);
        assert_eq!(out, Interpreter::new(&f).run(&[]));
        let out = out.unwrap();
        assert_eq!(out.return_value, Some(3000));
        assert!(out.steps > CYCLE_CHECK_AFTER);
    }

    #[test]
    fn a_stateful_handler_is_never_taken_for_a_cycle() {
        // `ready` stays 0, and every back-edge state is the same, until
        // the handler changes its answer on its 10,001st call.
        let mut fb = FunctionBuilder::new("poll", 1);
        let ready = fb.local("ready", 1);
        fb.while_(Expr::eq(Expr::var(ready), Expr::constant(0, 1)), |body| {
            body.resource_call("poll", vec![], Some(ready));
        });
        fb.ret(Expr::var(ready));
        let f = fb.build();
        let polling = || {
            let mut calls = 0u64;
            move |_: &str, _: &[u64]| -> u64 {
                calls += 1;
                u64::from(calls > 10_000)
            }
        };
        let (mut h1, mut h2) = (polling(), polling());
        let interp = Interpreter::new(&f)
            .with_resource_handler(Box::new(&mut h1))
            .run(&[]);
        let mut vm = Vm::new(compile(&f)).with_step_limit(u64::MAX);
        let out = vm.run_with_handler(&[], Some(&mut h2));
        assert_eq!(out, interp);
        assert_eq!(out.unwrap().return_value, Some(1));
        // Without a handler every call yields 0, so the loop never ends.
        assert_eq!(
            vm.run(&[]).unwrap_err(),
            ExecError::StepLimit { limit: u64::MAX }
        );
    }

    #[test]
    fn long_terminating_loop_reports_exact_steps() {
        let mut fb = FunctionBuilder::new("long", 16);
        let n = fb.param("n", 16);
        let i = fb.local("i", 16);
        fb.while_(Expr::ne(Expr::var(i), Expr::var(n)), |body| {
            body.assign(i, Expr::add(Expr::var(i), Expr::constant(1, 16)));
        });
        fb.ret(Expr::var(i));
        let f = fb.build();
        let out = Vm::new(compile(&f)).run(&[5000]);
        assert_eq!(out, Interpreter::new(&f).run(&[5000]));
        assert!(out.unwrap().steps > CYCLE_CHECK_AFTER);
    }

    #[test]
    fn faults_on_undeclared_variables_are_ignored() {
        let f = gcd_func();
        let fault = BitFault {
            var: VarId::from_index(f.vars().len() + 3),
            bit: 0,
            stuck_at: true,
        };
        let mut vm = Vm::new(compile(&f));
        vm.set_fault(Some(fault));
        let interp = Interpreter::new(&f).with_fault(fault).run(&[48, 18]);
        assert_eq!(vm.run(&[48, 18]), interp);
        assert_eq!(interp.unwrap().return_value, Some(6));
    }

    #[test]
    fn arity_errors_match() {
        let f = gcd_func();
        let mut vm = Vm::new(compile(&f));
        assert_eq!(
            vm.run(&[1]).unwrap_err(),
            ExecError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn unrolled_functions_match() {
        let f = unroll(&gcd_func(), 8);
        let mut vm = Vm::new(compile(&f));
        for v in [[48u64, 18], [7, 13], [255, 34]] {
            assert_eq!(Interpreter::new(&f).run(&v), vm.run(&v));
        }
    }

    #[test]
    fn rebuilt_param_after_local_matches() {
        use crate::func::{VarDecl, VarKind};
        use crate::stmt::StmtId;
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
                id: StmtId::placeholder(),
                target: tmp,
                value: Expr::add(Expr::var(a), Expr::constant(1, 8)),
            },
            Stmt::Return {
                id: StmtId::placeholder(),
                value: Some(Expr::var(tmp)),
            },
        ];
        let f = Function::rebuild("rebuilt".to_owned(), vars, 1, 8, body);
        assert_agree(&f, &[41]);
        assert_eq!(
            Vm::new(compile(&f)).run(&[41]).unwrap().return_value,
            Some(42)
        );
    }

    #[test]
    fn run_value_matches_full_run() {
        let f = gcd_func();
        let mut vm = Vm::new(compile(&f));
        let full = vm.run(&[300, 252]).unwrap().return_value;
        assert_eq!(vm.run_value(&[300, 252]).unwrap(), full);
    }

    #[test]
    fn runner_engines_agree() {
        let f = gcd_func();
        let mut interp = Runner::new(&f, BehavExec::Interp);
        let mut vm = Runner::new(&f, BehavExec::Vm);
        assert_eq!(BehavExec::default(), BehavExec::Vm);
        for v in [[48u64, 18], [640, 480]] {
            assert_eq!(interp.run(&v), vm.run(&v));
            assert_eq!(interp.run_value(&v), vm.run_value(&v));
        }
    }

    #[test]
    fn program_reports_shape() {
        let p = compile(&gcd_func());
        assert_eq!(p.name(), "gcd");
        assert_eq!(p.num_params(), 2);
        assert!(p.num_ops() > 5);
        assert!(p.num_regs() >= 3); // a, b, t + temps
        assert_eq!(p.new_coverage().report().statements_hit, 0);
    }
}

#[cfg(all(test, feature = "vm-mutant"))]
mod mutant_tests {
    use super::*;
    use crate::func::FunctionBuilder;

    /// With the seeded miscompile enabled, a function whose expressions
    /// exceed the target's width must diverge from the interpreter.
    #[test]
    fn seeded_miscompile_diverges_from_interpreter() {
        let mut fb = FunctionBuilder::new("narrow", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 4);
        // Three assignments whose 8-bit RHS exceeds 4 bits: the mutant
        // skips the mask on the third one.
        fb.assign(x, Expr::add(Expr::var(a), Expr::constant(0, 8)));
        fb.assign(x, Expr::add(Expr::var(a), Expr::constant(1, 8)));
        fb.assign(x, Expr::add(Expr::var(a), Expr::constant(2, 8)));
        fb.ret(Expr::var(x));
        let f = fb.build();
        let interp = Interpreter::new(&f).run(&[0xF0]).unwrap();
        let vm = Vm::new(compile(&f)).run(&[0xF0]).unwrap();
        assert_ne!(interp.return_value, vm.return_value);
    }
}
