//! Bytecode compilation and the register VM — the decode-once /
//! execute-many fast path for behavioural execution.
//!
//! The tree-walking [`Interpreter`](crate::interp::Interpreter) re-decodes
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
//! Statements are charged per straight-line block, not one by one: a
//! block is entered only at its first op and ends at every branch, jump,
//! return, loop back-edge and call, so the `Block` op at its head adds
//! all its statements to the step count and checks the limit once. Every
//! statement of an entered block runs, an error discards everything but
//! the resource calls already made, and no call sits inside a block, so
//! the charge is exact: results, step counts and handler calls equal the
//! interpreter's, error runs included.
//!
//! A run that provably never returns is cut short: once a run has taken
//! a few thousand steps, the VM compares the state at each loop back-edge
//! with an earlier one (Brent's cycle detection), and a repeat ends the
//! run with the [`ExecError::StepLimit`] it would have reached anyway.
//!
//! [`Vm::run_rows`] runs one program once per row of arguments. For a
//! lane-eligible program ([`Program::is_lane_eligible`]: no loop, array
//! access, reconfiguration or resource call) it executes each op once
//! over all the rows, the *lanes*, that reach it, with one register row
//! of lanes per register. Such a program only jumps forward, so a single
//! pass over its ops follows every lane's path in order: each lane
//! carries a mask that is all ones or zero, a branch splits the masks, a
//! jump parks lanes at its target, and arriving at a target ORs them
//! back in. Every per-lane choice is a blend or a mask operation, never a
//! branch on lane data: which way a kernel's `a ≥ b` goes depends on the
//! data, and a per-lane branch would mispredict as often as a scalar run
//! does. No lane run of such a program can fail, call a handler or read
//! garbage, so the result equals per-row [`Vm::run_value`], which is the
//! fallback for every other program, arity or step limit.
//!
//! The tree-walker stays as the differential oracle: [`Vm::run`] must
//! produce a [`RunOutput`] bit-for-bit equal to the interpreter's on every
//! function, input, and fault — a contract enforced by the kernel
//! equivalence tests and the `fuzz` crate's `vm` oracle family.

use crate::coverage::CoverageSet;
use crate::expr::{BinOp, Expr, UnaryOp};
use crate::func::{Function, VarId, VarKind};
use crate::interp::{
    apply_binop, mask, BitFault, CallEvent, ExecError, OobAccess, OobKind, OpCounts,
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
    /// Fused `dst = lhs <op> rhs`: the `Binary` and the `AssignVar` of a
    /// statement whose value is a binary expression, with their hooks in
    /// the same order. The temporary the pair would pass the value
    /// through is dead after the statement, so skipping it is invisible.
    AssignBinary {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
        width: u32,
        mask: u64,
    },
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
    /// Head of a straight-line block: charges the block's `count`
    /// statements (ids `stmt_ids[first..first + count]`) to the step
    /// counter, checks the limit once, and records their coverage.
    Block { first: u32, count: u32 },
    /// Fused loop back-edge: one completed iteration (step accounting,
    /// identical to the interpreter's) plus the jump to the loop head.
    LoopJump { target: u32 },
    /// Return with an optional value.
    Return { src: Option<Reg> },
    /// Fused `return lhs <op> rhs`.
    ReturnBinary {
        op: BinOp,
        lhs: Reg,
        rhs: Reg,
        width: u32,
    },
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

impl Op {
    /// Whether the op ends a straight-line block: control may leave the
    /// block here, or the op is a call, which a handler may observe.
    fn ends_block(&self) -> bool {
        matches!(
            self,
            Op::Jump { .. }
                | Op::BranchIfZero { .. }
                | Op::MuxJumpIfZero { .. }
                | Op::CmpBranch { .. }
                | Op::LoopJump { .. }
                | Op::Return { .. }
                | Op::ReturnBinary { .. }
                | Op::Reconfigure { .. }
                | Op::ResourceCall { .. }
                | Op::Halt
        )
    }
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
    /// Registers of the locals and array shadow slots: the only ones a
    /// run must zero. Parameters are bound on entry, constants written by
    /// the preamble, and temporaries written before they are read.
    local_regs: Vec<Reg>,
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
    /// Statement ids of every block, contiguous per `Block` op.
    stmt_ids: Vec<StmtId>,
    /// Flat pool of argument registers for resource calls.
    call_args: Vec<Reg>,
    /// Interned resource-call names.
    func_names: Vec<String>,
    /// All-uncovered coverage sized for the source function; cloned per
    /// instrumented run.
    coverage_proto: CoverageSet,
    /// How [`Vm::run_rows`] parks lanes, or `None` when the program must
    /// run row by row.
    lane_plan: Option<LanePlan>,
}

/// Marks an op that no jump targets.
const NO_SLOT: u32 = u32::MAX;

/// The parking slots of a lane-eligible program: the slot of every op
/// that a jump targets ([`NO_SLOT`] for the rest), and their number.
#[derive(Debug, Clone)]
struct LanePlan {
    slot: Vec<u32>,
    slots: usize,
}

/// The lane plan of a compiled program, or `None` when a loop back-edge,
/// an array load or store, a reconfiguration or a resource call rules the
/// lane pass out. The remaining jumps must all point forward; the
/// compiler emits no other kind, and this checks it.
fn lane_plan(ops: &[Op]) -> Option<LanePlan> {
    let mut slot = vec![NO_SLOT; ops.len()];
    let mut slots = 0u32;
    for (pc, op) in ops.iter().enumerate() {
        let target = match *op {
            Op::Load { .. }
            | Op::StoreArr { .. }
            | Op::LoopJump { .. }
            | Op::Reconfigure { .. }
            | Op::ResourceCall { .. } => return None,
            Op::Jump { target }
            | Op::BranchIfZero { target, .. }
            | Op::MuxJumpIfZero { target, .. }
            | Op::CmpBranch { target, .. } => target as usize,
            _ => continue,
        };
        if target <= pc {
            return None;
        }
        if slot[target] == NO_SLOT {
            slot[target] = slots;
            slots += 1;
        }
    }
    Some(LanePlan {
        slot,
        slots: slots as usize,
    })
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

    /// Whether [`Vm::run_rows`] can run this program lane-parallel: it
    /// has no loop, array access, reconfiguration or resource call. A
    /// call also needs rows of [`Program::num_params`] values each and a
    /// step limit no smaller than the function's statement count;
    /// otherwise it runs row by row.
    pub fn is_lane_eligible(&self) -> bool {
        self.lane_plan.is_some()
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
    let mut local_regs = Vec::with_capacity(nvars);
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
            VarKind::Local => local_regs.push(var_regs[i]),
            VarKind::Array { len } => {
                local_regs.push(var_regs[i]);
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
        stmt_ids: Vec::with_capacity(func.num_statements() as usize),
        block: None,
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
    c.emit(Op::Halt);
    let (ops, stmt_ids, call_args, func_names, max_regs) =
        (c.ops, c.stmt_ids, c.call_args, c.func_names, c.max_regs);
    let lane_plan = lane_plan(&ops);
    Program {
        name: func.name().to_owned(),
        num_params: func.num_params(),
        param_regs,
        param_masks,
        local_regs,
        var_regs,
        var_arrays,
        var_widths,
        arrays,
        num_regs: max_regs as usize,
        ops,
        stmt_ids,
        call_args,
        func_names,
        coverage_proto: CoverageSet::new(func),
        lane_plan,
    }
}

struct Compiler<'f> {
    func: &'f Function,
    var_regs: &'f [Reg],
    var_arrays: &'f [Option<u16>],
    /// Deduplicated constants pinned to registers by the preamble.
    const_regs: &'f [(u64, Reg)],
    ops: Vec<Op>,
    stmt_ids: Vec<StmtId>,
    /// The open straight-line block's `Block` op, while the next
    /// statement may still join it.
    block: Option<usize>,
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

    /// Appends an op; one that ends a block closes the open one.
    fn emit(&mut self, op: Op) {
        if op.ends_block() {
            self.block = None;
        }
        self.ops.push(op);
    }

    /// The position of the next op as a jump target. A target starts a
    /// new block, so the open one closes.
    fn label(&mut self) -> u32 {
        self.block = None;
        self.ops.len() as u32
    }

    /// Charges statement `id` to the open block, opening a new one when
    /// the last closed.
    fn begin_stmt(&mut self, id: StmtId) {
        let at = match self.block {
            Some(at) => at,
            None => {
                let at = self.ops.len();
                self.ops.push(Op::Block {
                    first: self.stmt_ids.len() as u32,
                    count: 0,
                });
                self.block = Some(at);
                at
            }
        };
        self.stmt_ids.push(id);
        if let Op::Block { count, .. } = &mut self.ops[at] {
            *count += 1;
        }
    }

    fn patch(&mut self, at: usize) {
        let t = self.label();
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
                    self.emit(Op::CmpBranch {
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
                self.emit(Op::CmpBranch {
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
        self.emit(Op::BranchIfZero {
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
        self.begin_stmt(s.id());
        // Temporaries from the previous statement are dead; reuse them.
        self.tp = self.num_var_regs;
        match s {
            Stmt::Assign { target, value, .. } => {
                let dst = self.var_regs[target.index()];
                let mask = mask(self.func.var(*target).width);
                let op = match value {
                    Expr::Binary { op, lhs, rhs } => {
                        let (lhs, rhs, width) = self.compile_operands(lhs, rhs, None, &mut 0);
                        Op::AssignBinary {
                            op: *op,
                            dst,
                            lhs,
                            rhs,
                            width,
                            mask,
                        }
                    }
                    _ => Op::AssignVar {
                        dst,
                        src: self.compile_expr(value, None, &mut 0),
                        mask,
                    },
                };
                self.emit(op);
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
                    Some(arr) => self.emit(Op::StoreArr { arr, idx, src }),
                    // Store to a non-array variable: the interpreter drops
                    // the value but still counts the memory op.
                    None => {
                        let dst = self.alloc();
                        self.emit(Op::LoadMissing { dst });
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
                    self.emit(Op::Jump { target: 0 });
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
                // The statement is charged once on arrival, by the block
                // before the loop head; each completed iteration costs one
                // LoopJump step — matching the interpreter's step
                // accounting exactly.
                let head = self.label();
                let mut next_atom = 0u32;
                let creg = self.compile_expr(cond, Some(*cond_id), &mut next_atom);
                let br = self.emit_branch(*cond_id, creg);
                self.compile_block(body);
                self.emit(Op::LoopJump { target: head });
                self.patch(br);
                // The condition re-evaluates each iteration; its temps must
                // not collide with the loop body's statements (they reset
                // tp themselves, so re-entry is fine).
                self.tp = self.num_var_regs;
            }
            Stmt::Return { value, .. } => {
                let op = match value {
                    Some(Expr::Binary { op, lhs, rhs }) => {
                        let (lhs, rhs, width) = self.compile_operands(lhs, rhs, None, &mut 0);
                        Op::ReturnBinary {
                            op: *op,
                            lhs,
                            rhs,
                            width,
                        }
                    }
                    _ => Op::Return {
                        src: value.as_ref().map(|e| self.compile_expr(e, None, &mut 0)),
                    },
                };
                self.emit(op);
            }
            Stmt::Reconfigure { config, .. } => {
                self.emit(Op::Reconfigure { config: *config });
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
                self.emit(Op::ResourceCall {
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

    /// Compiles the operands of a binary node left to right, returning
    /// their registers and the node's width. The operands' temporaries are
    /// released, so the node's own result (if any) reuses the first.
    fn compile_operands(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        cond: Option<CondId>,
        next_atom: &mut u32,
    ) -> (Reg, Reg, u32) {
        let base = self.tp;
        let l = self.compile_expr(lhs, cond, next_atom);
        let r = self.compile_expr(rhs, cond, next_atom);
        self.tp = base;
        (l, r, self.width_of(lhs).max(self.width_of(rhs)))
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
                    Some(arr) => self.emit(Op::Load { dst, arr, idx }),
                    None => self.emit(Op::LoadMissing { dst }),
                }
                dst
            }
            Expr::Unary { op, arg } => {
                let base = self.tp;
                let src = self.compile_expr(arg, cond, next_atom);
                let m = mask(self.width_of(arg));
                self.tp = base;
                let dst = self.alloc();
                self.emit(Op::Unary {
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
                let (l, r, width) = self.compile_operands(lhs, rhs, cond, next_atom);
                let dst = self.alloc();
                self.emit(Op::Binary {
                    op: *op,
                    dst,
                    lhs: l,
                    rhs: r,
                    width,
                });
                if let (Some(id), Some(atom)) = (cond, my_atom) {
                    self.emit(Op::Atom {
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
                self.emit(Op::MuxJumpIfZero {
                    src: creg,
                    target: 0,
                });
                let tr = self.compile_expr(then_, cond, next_atom);
                self.emit(Op::Copy { dst, src: tr });
                let j = self.ops.len();
                self.emit(Op::Jump { target: 0 });
                self.patch(jz);
                self.tp = base + 1; // dst stays live across the arms
                let er = self.compile_expr(else_, cond, next_atom);
                self.emit(Op::Copy { dst, src: er });
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
    /// Whether the statement ids of each entered block are delivered.
    const STATEMENTS: bool = false;

    /// The statements of an entered block (only delivered when
    /// `STATEMENTS` is true).
    #[inline(always)]
    fn on_stmts(&mut self, _ids: &[StmtId]) {}
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
    /// One binary operation executed, counted by its class.
    #[inline(always)]
    fn count_binop(&mut self, op: BinOp) {
        match op {
            BinOp::Mul => self.count_mul(),
            BinOp::Div | BinOp::Rem => self.count_div(),
            _ => self.count_alu(),
        }
    }
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
    const STATEMENTS: bool = true;

    #[inline(always)]
    fn on_stmts(&mut self, ids: &[StmtId]) {
        for &id in ids {
            self.coverage.hit_statement(id);
        }
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

/// `v` as written to scalar register `dst`: with the injected fault's
/// bit forced when the fault targets `dst`.
#[inline(always)]
fn faulted(fault: Option<CompiledFault>, dst: Reg, v: u64) -> u64 {
    match fault {
        Some(f) if f.reg == dst => (v | f.or) & f.and,
        _ => v,
    }
}

/// Lane state of [`Vm::run_rows`], struct-of-arrays over `n` lanes,
/// kept in the [`Vm`] and reused across calls.
#[derive(Debug, Clone, Default)]
struct Lanes {
    /// Register `r` of lane `i` at `regs[r * n + i]`.
    regs: Vec<u64>,
    /// All ones for each lane that executes the current op, else zero.
    active: Vec<u64>,
    /// Lanes waiting at each jump-target slot (`slot * n + i`), and
    /// whether any lane waits there.
    parked: Vec<u64>,
    parked_any: Vec<bool>,
    /// The current op's value in every lane, before it is blended in.
    val: Vec<u64>,
    /// Each lane's return value, and all ones once it returned one.
    ret: Vec<u64>,
    has_ret: Vec<u64>,
}

/// The `n` lanes of register `r`.
#[inline(always)]
fn lanes_of(regs: &[u64], n: usize, r: Reg) -> &[u64] {
    &regs[r as usize * n..][..n]
}

/// The `n` lanes of register `r`, for writing.
#[inline(always)]
fn lanes_of_mut(regs: &mut [u64], n: usize, r: Reg) -> &mut [u64] {
    &mut regs[r as usize * n..][..n]
}

/// Clears `v` to `len` copies of `value`.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// `dst = val` in the active lanes; the others keep their value.
#[inline(always)]
fn blend(dst: &mut [u64], val: &[u64], active: &[u64]) {
    for ((d, &v), &m) in dst.iter_mut().zip(val).zip(active) {
        *d = (v & m) | (*d & !m);
    }
}

/// The OR and AND masks the installed fault applies to a write of
/// scalar register `dst`: the same for every lane.
#[inline(always)]
fn fault_bits(fault: Option<CompiledFault>, dst: Reg) -> (u64, u64) {
    match fault {
        Some(f) if f.reg == dst => (f.or, f.and),
        _ => (0, u64::MAX),
    }
}

/// A scalar assignment in the active lanes: `dst = val` with the fault's
/// `(or, and)` bits forced and the variable's width `mask` applied.
#[inline(always)]
fn assign_lanes(dst: &mut [u64], val: &[u64], active: &[u64], (or, and): (u64, u64), mask: u64) {
    for ((d, &v), &a) in dst.iter_mut().zip(val).zip(active) {
        let v = (v | or) & and & mask;
        *d = (v & a) | (*d & !a);
    }
}

/// Records `val` as the return value of every active lane.
#[inline(always)]
fn record_return(ret: &mut [u64], has_ret: &mut [u64], val: &[u64], active: &[u64]) {
    blend(ret, val, active);
    for (h, &a) in has_ret.iter_mut().zip(active) {
        *h |= a;
    }
}

/// Sends the active lanes whose `cond` is zero to a jump target's
/// `parked` slot; the others stay active. Returns whether any lane stays
/// and whether any left.
#[inline(always)]
fn split(active: &mut [u64], parked: &mut [u64], cond: &[u64]) -> (bool, bool) {
    let (mut stay, mut left) = (0u64, 0u64);
    for ((a, p), &c) in active.iter_mut().zip(parked).zip(cond) {
        let taken = u64::from(c != 0).wrapping_neg();
        let jump = *a & !taken;
        *p |= jump;
        *a &= taken;
        stay |= *a;
        left |= jump;
    }
    (stay != 0, left != 0)
}

/// `out = op(src)` in every lane, as the scalar `Unary` op computes it.
fn unary_lanes(op: UnaryOp, mask: u64, src: &[u64], out: &mut [u64]) {
    match op {
        UnaryOp::Not => {
            for (o, &a) in out.iter_mut().zip(src) {
                *o = !a & mask;
            }
        }
        UnaryOp::Neg => {
            for (o, &a) in out.iter_mut().zip(src) {
                *o = a.wrapping_neg() & mask;
            }
        }
    }
}

/// `out = lhs <op> rhs` at `width` in every lane: [`apply_binop`] with
/// the operator matched once, outside the lane loop. Lanes that do not
/// execute the op compute garbage that is never blended in, so no
/// operator may panic on any operand: division and remainder by zero
/// take [`apply_binop`]'s values, and the wrapping shifts equal its
/// `<<` and `>>` for every amount below 64, the only ones a width of at
/// most 64 leaves.
fn binop_lanes(op: BinOp, width: u32, lhs: &[u64], rhs: &[u64], out: &mut [u64]) {
    let m = mask(width);
    let w = u64::from(width);
    macro_rules! lanes {
        (|$a:ident, $b:ident| $value:expr) => {
            for ((o, &$a), &$b) in out.iter_mut().zip(lhs).zip(rhs) {
                let ($a, $b) = ($a & m, $b & m);
                *o = $value;
            }
        };
    }
    match op {
        BinOp::Add => lanes!(|a, b| a.wrapping_add(b) & m),
        BinOp::Sub => lanes!(|a, b| a.wrapping_sub(b) & m),
        BinOp::Mul => lanes!(|a, b| a.wrapping_mul(b) & m),
        BinOp::Div => lanes!(|a, b| a.checked_div(b).map_or(m, |q| q & m)),
        BinOp::Rem => lanes!(|a, b| a.checked_rem(b).map_or(a, |r| r & m)),
        BinOp::And => lanes!(|a, b| a & b),
        BinOp::Or => lanes!(|a, b| a | b),
        BinOp::Xor => lanes!(|a, b| a ^ b),
        BinOp::Shl => lanes!(|a, b| a.wrapping_shl((b % w) as u32) & m),
        BinOp::Shr => lanes!(|a, b| a.wrapping_shr((b % w) as u32)),
        BinOp::Eq => lanes!(|a, b| u64::from(a == b)),
        BinOp::Ne => lanes!(|a, b| u64::from(a != b)),
        BinOp::Lt => lanes!(|a, b| u64::from(a < b)),
        BinOp::Le => lanes!(|a, b| u64::from(a <= b)),
        BinOp::Gt => lanes!(|a, b| u64::from(a > b)),
        BinOp::Ge => lanes!(|a, b| u64::from(a >= b)),
    }
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
    lanes: Lanes,
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
            lanes: Lanes::default(),
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
    /// Same contract as
    /// [`Interpreter::run`](crate::interp::Interpreter::run): arity
    /// mismatch or step-limit exhaustion.
    pub fn run(&mut self, inputs: &[u64]) -> Result<RunOutput, ExecError> {
        self.run_with_handler(inputs, None)
    }

    /// Fully instrumented run with a resource-call handler.
    ///
    /// # Errors
    ///
    /// Same contract as
    /// [`Interpreter::run`](crate::interp::Interpreter::run).
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
    /// Same contract as
    /// [`Interpreter::run`](crate::interp::Interpreter::run).
    pub fn run_value(&mut self, inputs: &[u64]) -> Result<Option<u64>, ExecError> {
        let mut hooks = NoHooks;
        Ok(self.run_hooked(inputs, &mut hooks, None)?.0)
    }

    /// Fault-signature run: return value plus call trace, nothing else —
    /// the ATPG sweep's inner loop.
    ///
    /// # Errors
    ///
    /// Same contract as
    /// [`Interpreter::run`](crate::interp::Interpreter::run).
    pub fn run_signature(
        &mut self,
        inputs: &[u64],
    ) -> Result<(Option<u64>, Vec<CallEvent>), ExecError> {
        let mut hooks = SigHooks::default();
        let (ret, _) = self.run_hooked(inputs, &mut hooks, None)?;
        Ok((ret, hooks.trace))
    }

    /// Runs the program once per row of `rows`, each row a complete and
    /// independent run under the installed fault and step limit. The
    /// result equals `rows.iter().map(|r| vm.run_value(r.as_ref())).collect()`.
    ///
    /// A lane-eligible program ([`Program::is_lane_eligible`]) runs
    /// lane-parallel, executing each op once over every row that reaches
    /// it, when every row holds [`Program::num_params`] values and the
    /// step limit is no smaller than the function's statement count.
    /// Every other call runs the rows one by one through
    /// [`Vm::run_value`].
    pub fn run_rows<R: AsRef<[u64]>>(&mut self, rows: &[R]) -> Vec<Result<Option<u64>, ExecError>> {
        let program = &self.program;
        let lanes_fit = program.lane_plan.is_some()
            && program.stmt_ids.len() as u64 <= self.step_limit
            && rows.iter().all(|r| r.as_ref().len() == program.num_params);
        if lanes_fit {
            self.run_lanes(rows)
        } else {
            rows.iter().map(|r| self.run_value(r.as_ref())).collect()
        }
    }

    /// The lane pass of [`Vm::run_rows`]: one pass over the ops in order.
    /// Every jump points forward, so a lane parked at a target is merged
    /// back in before the target's op runs. No lane can fail: each block
    /// runs at most once, so a lane takes at most as many steps as the
    /// function has statements.
    fn run_lanes<R: AsRef<[u64]>>(&mut self, rows: &[R]) -> Vec<Result<Option<u64>, ExecError>> {
        let program = &self.program;
        let plan = program
            .lane_plan
            .as_ref()
            .expect("run_rows checks the lane plan");
        let n = rows.len();
        let Lanes {
            regs,
            active,
            parked,
            parked_any,
            val,
            ret,
            has_ret,
        } = &mut self.lanes;
        // As in a scalar run: locals start at zero, parameters are bound
        // masked, constants come from the preamble ops, and temporaries
        // are written before they are read.
        regs.resize(program.num_regs * n, 0);
        for &r in &program.local_regs {
            lanes_of_mut(regs, n, r).fill(0);
        }
        for (k, (&r, &m)) in program
            .param_regs
            .iter()
            .zip(&program.param_masks)
            .enumerate()
        {
            for (d, row) in lanes_of_mut(regs, n, r).iter_mut().zip(rows) {
                *d = row.as_ref()[k] & m;
            }
        }
        refill(active, n, u64::MAX);
        refill(parked, plan.slots * n, 0);
        refill(parked_any, plan.slots, false);
        refill(has_ret, n, 0);
        val.resize(n, 0);
        ret.resize(n, 0);
        let fault = self.fault;
        let slot_of = |target: u32| plan.slot[target as usize] as usize;
        // Whether any lane executes the current op.
        let mut live = n > 0;
        for (pc, op) in program.ops.iter().enumerate() {
            let s = plan.slot[pc];
            if s != NO_SLOT && parked_any[s as usize] {
                let waiting = &parked[s as usize * n..][..n];
                for (a, &p) in active.iter_mut().zip(waiting) {
                    *a |= p;
                }
                live = true;
            }
            if !live {
                continue;
            }
            match *op {
                Op::Const { dst, value } => {
                    val.fill(value);
                    blend(lanes_of_mut(regs, n, dst), val, active);
                }
                Op::Copy { dst, src } => {
                    val.copy_from_slice(lanes_of(regs, n, src));
                    blend(lanes_of_mut(regs, n, dst), val, active);
                }
                Op::Unary { op, dst, src, mask } => {
                    unary_lanes(op, mask, lanes_of(regs, n, src), val);
                    blend(lanes_of_mut(regs, n, dst), val, active);
                }
                Op::Binary {
                    op,
                    dst,
                    lhs,
                    rhs,
                    width,
                } => {
                    binop_lanes(
                        op,
                        width,
                        lanes_of(regs, n, lhs),
                        lanes_of(regs, n, rhs),
                        val,
                    );
                    blend(lanes_of_mut(regs, n, dst), val, active);
                }
                Op::LoadMissing { dst } => {
                    val.fill(0);
                    blend(lanes_of_mut(regs, n, dst), val, active);
                }
                Op::AssignVar { dst, src, mask } => {
                    val.copy_from_slice(lanes_of(regs, n, src));
                    let bits = fault_bits(fault, dst);
                    assign_lanes(lanes_of_mut(regs, n, dst), val, active, bits, mask);
                }
                Op::AssignBinary {
                    op,
                    dst,
                    lhs,
                    rhs,
                    width,
                    mask,
                } => {
                    binop_lanes(
                        op,
                        width,
                        lanes_of(regs, n, lhs),
                        lanes_of(regs, n, rhs),
                        val,
                    );
                    let bits = fault_bits(fault, dst);
                    assign_lanes(lanes_of_mut(regs, n, dst), val, active, bits, mask);
                }
                Op::Jump { target } => {
                    let s = slot_of(target);
                    for (p, a) in parked[s * n..][..n].iter_mut().zip(active.iter_mut()) {
                        *p |= *a;
                        *a = 0;
                    }
                    parked_any[s] = true;
                    live = false;
                }
                Op::BranchIfZero { src, target, .. } | Op::MuxJumpIfZero { src, target } => {
                    let s = slot_of(target);
                    let (stay, left) =
                        split(active, &mut parked[s * n..][..n], lanes_of(regs, n, src));
                    parked_any[s] |= left;
                    live = stay;
                }
                Op::CmpBranch {
                    op,
                    lhs,
                    rhs,
                    width,
                    target,
                    ..
                } => {
                    binop_lanes(
                        op,
                        width,
                        lanes_of(regs, n, lhs),
                        lanes_of(regs, n, rhs),
                        val,
                    );
                    let s = slot_of(target);
                    let (stay, left) = split(active, &mut parked[s * n..][..n], val);
                    parked_any[s] |= left;
                    live = stay;
                }
                Op::Block { .. } | Op::Atom { .. } => {}
                Op::Return { src } => {
                    if let Some(src) = src {
                        record_return(ret, has_ret, lanes_of(regs, n, src), active);
                    }
                    active.fill(0);
                    live = false;
                }
                Op::ReturnBinary {
                    op,
                    lhs,
                    rhs,
                    width,
                } => {
                    binop_lanes(
                        op,
                        width,
                        lanes_of(regs, n, lhs),
                        lanes_of(regs, n, rhs),
                        val,
                    );
                    record_return(ret, has_ret, val, active);
                    active.fill(0);
                    live = false;
                }
                // The lanes still active fall through without a return.
                Op::Halt => break,
                Op::Load { .. }
                | Op::StoreArr { .. }
                | Op::LoopJump { .. }
                | Op::Reconfigure { .. }
                | Op::ResourceCall { .. } => unreachable!("the lane plan rules out {op:?}"),
            }
        }
        ret.iter()
            .zip(has_ret.iter())
            .map(|(&v, &h)| Ok((h != 0).then_some(v)))
            .collect()
    }

    /// The generic dispatch loop, monomorphized per hook set. Returns the
    /// return value (if any) and the dynamic step count.
    ///
    /// # Errors
    ///
    /// Same contract as
    /// [`Interpreter::run`](crate::interp::Interpreter::run).
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
        // Reset reusable state: locals to zero, arrays by bumping the
        // generation stamp (elements written by older runs read as
        // uninitialized again, with no memset).
        for &r in &program.local_regs {
            self.regs[r as usize] = 0;
        }
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
                    hooks.count_binop(op);
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
                    regs[dst as usize] = faulted(fault, dst, regs[src as usize]) & mask;
                    hooks.count_alu();
                }
                Op::AssignBinary {
                    op,
                    dst,
                    lhs,
                    rhs,
                    width,
                    mask,
                } => {
                    let a = regs[lhs as usize];
                    let b = regs[rhs as usize];
                    hooks.count_binop(op);
                    let v = apply_binop(op, a, b, width);
                    regs[dst as usize] = faulted(fault, dst, v) & mask;
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
                    hooks.count_binop(op);
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
                Op::Block { first, count } => {
                    steps += u64::from(count);
                    if steps > step_limit {
                        return Err(ExecError::StepLimit { limit: step_limit });
                    }
                    if H::STATEMENTS {
                        let first = first as usize;
                        hooks.on_stmts(&program.stmt_ids[first..first + count as usize]);
                    }
                }
                Op::LoopJump { target } => {
                    steps += 1;
                    if steps > check_at {
                        // No detection when the run depends on state the
                        // detector cannot see: a handler the program calls
                        // (`func_names` lists its resource calls).
                        let unseen = handler.is_some() && !program.func_names.is_empty();
                        if steps > step_limit
                            || (!unseen && detector.repeats(stamp, target, regs, arrays))
                        {
                            return Err(ExecError::StepLimit { limit: step_limit });
                        }
                    }
                    pc = target as usize;
                }
                Op::Return { src } => break src.map(|r| regs[r as usize]),
                Op::ReturnBinary {
                    op,
                    lhs,
                    rhs,
                    width,
                } => {
                    let a = regs[lhs as usize];
                    let b = regs[rhs as usize];
                    hooks.count_binop(op);
                    break Some(apply_binop(op, a, b, width));
                }
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
                        regs[dst as usize] = faulted(fault, dst, result & m) & m;
                    }
                }
                Op::Halt => break None,
            }
        };
        Ok((ret, steps))
    }
}

/// Engine choice for callers that can run either engine, such as the
/// `atpg` coverage sweeps, so the two can be cross-checked.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FunctionBuilder;
    use crate::interp::{enumerate_bit_faults, Interpreter};
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

    /// Straight-line statements with resource calls between them: each
    /// call must end its block, or a limit that falls just after a call
    /// would stop the VM before a call the interpreter makes.
    fn calls_between_func() -> Function {
        let mut fb = FunctionBuilder::new("calls", 16);
        let a = fb.param("a", 16);
        let x = fb.local("x", 16);
        let y = fb.local("y", 16);
        fb.assign(x, Expr::add(Expr::var(a), Expr::constant(1, 16)));
        fb.resource_call("probe", vec![Expr::var(x)], Some(y));
        fb.assign(y, Expr::xor(Expr::var(y), Expr::var(x)));
        fb.reconfigure(ConfigId(2));
        fb.resource_call("probe", vec![Expr::var(y)], None);
        fb.assign(x, Expr::mul(Expr::var(x), Expr::var(y)));
        fb.ret(Expr::add(Expr::var(x), Expr::var(y)));
        fb.build()
    }

    #[test]
    fn block_step_accounting_is_exact_at_every_limit() {
        let (root, _) = root_func();
        let cases = [
            (gcd_func(), vec![48u64, 18]),
            (root, vec![49]),
            (calls_between_func(), vec![7]),
        ];
        let answer = |args: &[u64]| args.first().map_or(3, |&a| a * 5 + 1);
        for (f, inputs) in &cases {
            let steps = Interpreter::new(f).run(inputs).unwrap().steps;
            let mut vm = Vm::new(compile(f));
            for limit in 0..=steps {
                let (mut interp_calls, mut vm_calls) = (0u32, 0u32);
                let interp = Interpreter::new(f)
                    .with_step_limit(limit)
                    .with_resource_handler(Box::new(|_: &str, args: &[u64]| {
                        interp_calls += 1;
                        answer(args)
                    }))
                    .run(inputs);
                vm.step_limit = limit;
                let mut handler = |_: &str, args: &[u64]| {
                    vm_calls += 1;
                    answer(args)
                };
                let out = vm.run_with_handler(inputs, Some(&mut handler));
                assert_eq!(out, interp, "{} at step limit {limit}", f.name());
                assert_eq!(
                    vm_calls,
                    interp_calls,
                    "{} handler calls at step limit {limit}",
                    f.name()
                );
            }
        }
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
        // statement computes its inner sum `1 + 2` in the only temporary,
        // overwriting the store's `count[0] + 1` (an outermost binary
        // expression fuses into its assignment and writes no temporary).
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
                Expr::add(
                    Expr::add(Expr::constant(1, 16), Expr::constant(2, 16)),
                    Expr::constant(0, 16),
                ),
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

    /// `run_rows` against `run_value` on each row, and against the
    /// interpreter under the same fault and step limit.
    fn assert_rows_match(f: &Function, vm: &mut Vm, fault: Option<BitFault>, rows: &[Vec<u64>]) {
        vm.set_fault(fault);
        let lanes = vm.run_rows(rows);
        let per_row: Vec<_> = rows.iter().map(|r| vm.run_value(r)).collect();
        assert_eq!(lanes, per_row, "{} under fault {fault:?}", f.name());
        for (row, got) in rows.iter().zip(&lanes) {
            let mut interp = Interpreter::new(f).with_step_limit(vm.step_limit);
            if let Some(fault) = fault {
                interp = interp.with_fault(fault);
            }
            let want = interp.run(row).map(|out| out.return_value);
            assert_eq!(got, &want, "{} on {row:?} under fault {fault:?}", f.name());
        }
    }

    /// Every (a, b) pair of `values`.
    fn pairs(values: &[u64]) -> Vec<Vec<u64>> {
        values
            .iter()
            .flat_map(|&a| values.iter().map(move |&b| vec![a, b]))
            .collect()
    }

    /// A loop-free program whose lanes split at every branch: a mux inside
    /// a condition, nested `if`s with returns inside them, two pairs of
    /// nested `if`s whose inner and outer branch jump to the same op, a
    /// fall-through without `return`, division, remainder and shifts by
    /// zero and past the width, a store through and an index into a
    /// scalar, and narrow targets.
    fn diverging_func() -> Function {
        let mut fb = FunctionBuilder::new("diverging", 16);
        let a = fb.param("a", 8);
        let b = fb.param("b", 8);
        let x = fb.local("x", 8);
        let y = fb.local("y", 4);
        let (va, vb, vx, vy) = (Expr::var(a), Expr::var(b), Expr::var(x), Expr::var(y));
        let c = |v: u64| Expr::constant(v, 8);
        fb.if_else(
            Expr::mux(
                Expr::lt(va.clone(), c(16)),
                Expr::ne(vb.clone(), c(1)),
                Expr::gt(va.clone(), vb.clone()),
            ),
            |t| {
                t.assign(x, Expr::div(va.clone(), vb.clone()));
                t.if_else(
                    Expr::ne(vx.clone(), c(0)),
                    |tt| {
                        tt.assign(y, Expr::rem(va.clone(), vb.clone()));
                        tt.ret(Expr::add(vx.clone(), Expr::not(vy.clone())));
                    },
                    |te| te.assign(y, Expr::shl(va.clone(), vb.clone())),
                );
            },
            |e| {
                e.assign(x, Expr::shr(va.clone(), vb.clone()));
                e.store(y, c(0), va.clone());
                e.if_(Expr::lt(vx.clone(), c(4)), |et| {
                    et.ret(Expr::neg(Expr::index(y, c(1))));
                });
                e.assign(y, Expr::sub(vx.clone(), vb.clone()));
            },
        );
        fb.if_(Expr::ge(vy.clone(), Expr::constant(8, 4)), |t| {
            let inner = Expr::mux(
                Expr::le(vx.clone(), vb.clone()),
                Expr::ne(va.clone(), c(0)),
                Expr::gt(vb.clone(), c(4)),
            );
            t.if_(inner, |tt| tt.ret(Expr::xor(vx.clone(), vy.clone())));
        });
        let outer = Expr::mux(
            Expr::lt(va.clone(), c(128)),
            Expr::ge(vx.clone(), c(2)),
            Expr::eq(vb.clone(), c(3)),
        );
        fb.if_(outer, |t| {
            t.if_(Expr::lt(vx.clone(), vb.clone()), |tt| {
                tt.ret(Expr::mul(va.clone(), vb.clone()));
            });
        });
        fb.if_(Expr::lt(vx.clone(), c(200)), |t| {
            t.ret(Expr::sub(vx.clone(), va.clone()));
        });
        fb.build()
    }

    #[test]
    fn diverging_lanes_match_row_runs_and_the_interpreter() {
        let f = diverging_func();
        let mut vm = Vm::new(compile(&f));
        assert!(vm.program().is_lane_eligible());
        let rows = pairs(&[0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 200, 255, 256, u64::MAX]);
        let lanes = vm.run_rows(&rows);
        assert!(lanes.contains(&Ok(None)), "some lane must fall through");
        assert!(lanes.iter().any(|r| matches!(r, Ok(Some(_)))));
        assert_rows_match(&f, &mut vm, None, &rows);
        for fault in enumerate_bit_faults(&f) {
            assert_rows_match(&f, &mut vm, Some(fault), &rows);
        }
        // Every two-row batch, after the full one: buffers sized for many
        // rows must not leak into fewer, and one lane may leave at a branch
        // while the other stays at a later branch to the same target.
        vm.set_fault(None);
        for (r1, want1) in rows.iter().zip(&lanes) {
            for (r2, want2) in rows.iter().zip(&lanes) {
                let got = vm.run_rows(&[r1, r2]);
                assert_eq!(got, [want1.clone(), want2.clone()], "{r1:?} {r2:?}");
            }
        }
    }

    #[test]
    fn ineligible_programs_and_calls_run_row_by_row() {
        let one_param = |name: &str, body: &dyn Fn(&mut FunctionBuilder, VarId)| {
            let mut fb = FunctionBuilder::new(name, 16);
            let a = fb.param("a", 16);
            body(&mut fb, a);
            fb.build()
        };
        let load = one_param("load", &|fb, a| {
            let arr = fb.array("buf", 16, 4);
            fb.ret(Expr::add(
                Expr::var(a),
                Expr::index(arr, Expr::constant(1, 8)),
            ));
        });
        let store = one_param("store", &|fb, a| {
            let arr = fb.array("buf", 16, 4);
            fb.store(arr, Expr::constant(2, 8), Expr::var(a));
            fb.ret(Expr::var(a));
        });
        let call = one_param("call", &|fb, a| {
            let x = fb.local("x", 16);
            fb.resource_call("probe", vec![Expr::var(a)], Some(x));
            fb.ret(Expr::add(Expr::var(x), Expr::var(a)));
        });
        let reconfigure = one_param("reconfigure", &|fb, a| {
            fb.reconfigure(ConfigId(1));
            fb.ret(Expr::var(a));
        });
        let values = [0, 1, 3, 48, 18, 1000, u64::MAX];
        let one_column: Vec<Vec<u64>> = values.iter().map(|&v| vec![v]).collect();
        for (f, rows) in [
            (gcd_func(), pairs(&values)),
            (load, one_column.clone()),
            (store, one_column.clone()),
            (call, one_column.clone()),
            (reconfigure, one_column),
        ] {
            let mut vm = Vm::new(compile(&f));
            assert!(!vm.program().is_lane_eligible(), "{}", f.name());
            assert_rows_match(&f, &mut vm, None, &rows);
            // Under a small limit, the rows whose loop runs out of steps
            // fail, each on its own, and the others still return.
            let mut vm = vm.with_step_limit(7);
            assert_rows_match(&f, &mut vm, None, &rows);
        }
        // An eligible program with a step limit below its statement count,
        // rows of the wrong arity, or no rows at all.
        let f = diverging_func();
        let rows = pairs(&[0, 5, 17, 255]);
        let mut vm = Vm::new(compile(&f)).with_step_limit(2);
        assert!(u64::from(f.num_statements()) > vm.step_limit);
        assert_rows_match(&f, &mut vm, None, &rows);
        assert!(vm.run_rows(&rows).iter().any(Result::is_err));
        let mut vm = Vm::new(compile(&f));
        let ragged = vec![vec![1, 2], vec![3], vec![4, 5, 6], vec![7, 8]];
        assert_eq!(
            vm.run_rows(&ragged),
            ragged.iter().map(|r| vm.run_value(r)).collect::<Vec<_>>()
        );
        assert_eq!(
            vm.run_rows(&ragged)[1],
            Err(ExecError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(vm.run_rows::<Vec<u64>>(&[]), vec![]);
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
