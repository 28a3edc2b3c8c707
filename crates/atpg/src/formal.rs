//! SAT-based (formal) test pattern generation.
//!
//! The simulation engines plateau on hard-to-reach branches and
//! hard-to-excite faults; Laerte++'s answer — and this module's — is to
//! compile the question into SAT:
//!
//! * **branch targeting** ([`sat_branch_tpg`]): a reachability *probe* is
//!   planted in the target branch arm and the instrumented function is
//!   synthesized to combinational RTL; a model of "probe output = 1" is a
//!   test vector reaching the branch (or `None` proves the branch dead),
//! * **fault targeting** ([`sat_fault_tpg`]): a stuck-at bit fault is
//!   injected *behaviourally* (masking every assignment to the target
//!   variable), both versions are synthesized, and a miter asks for inputs
//!   on which they differ; `None` proves the fault untestable.
//!
//! Both run on loop-free functions (unroll first — the same precondition as
//! synthesis).

use crate::Testbench;
use behav::interp::{BitFault, Interpreter};
use behav::{CondId, Expr, Function, Stmt, VarId};
use hdl::lower::{lower, BitCtx, CnfBackend};
use hdl::synth::{synthesize, SynthError};
use sat::Lit;

/// Errors from the formal engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormalError {
    /// The function could not be synthesized (loops/arrays/…).
    Synth(SynthError),
    /// The requested branch condition id does not exist.
    NoSuchCondition(CondId),
}

impl From<SynthError> for FormalError {
    fn from(e: SynthError) -> Self {
        FormalError::Synth(e)
    }
}

impl std::fmt::Display for FormalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormalError::Synth(e) => write!(f, "synthesis failed: {e}"),
            FormalError::NoSuchCondition(c) => {
                write!(f, "no branch condition with id {}", c.index())
            }
        }
    }
}

impl std::error::Error for FormalError {}

/// Rewrites `func` so that it returns 1 iff the branch `(cond_id, dir)` is
/// executed in direction `dir`. Early returns keep their control effect but
/// the returned value becomes the probe.
fn instrument_branch(func: &Function, cond_id: CondId, dir: bool) -> Option<Function> {
    // The probe is a fresh local appended to the variable table.
    let mut vars = func.vars().to_vec();
    vars.push(behav::VarDecl {
        name: "__probe".to_owned(),
        width: 1,
        kind: behav::VarKind::Local,
    });
    let probe = VarId::from_index(vars.len() - 1);
    let mut found = false;
    let mut body = rewrite_block(func.body(), cond_id, dir, probe, &mut found);
    if !found {
        return None;
    }
    // Final fall-through return of the probe.
    body.push(Stmt::Return {
        id: behav::StmtId::placeholder(),
        value: Some(Expr::var(probe)),
    });
    Some(behav::Function::rebuild(
        format!("{}_probe", func.name()),
        vars,
        func.num_params(),
        1,
        body,
    ))
}

fn rewrite_block(
    stmts: &[Stmt],
    cond_id: CondId,
    dir: bool,
    probe: VarId,
    found: &mut bool,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::If {
                id,
                cond_id: cid,
                cond,
                then_,
                else_,
            } => {
                let mut then_2 = rewrite_block(then_, cond_id, dir, probe, found);
                let mut else_2 = rewrite_block(else_, cond_id, dir, probe, found);
                if *cid == cond_id {
                    *found = true;
                    let mark = Stmt::Assign {
                        id: behav::StmtId::placeholder(),
                        target: probe,
                        value: Expr::constant(1, 1),
                    };
                    if dir {
                        then_2.insert(0, mark);
                    } else {
                        else_2.insert(0, mark);
                    }
                }
                out.push(Stmt::If {
                    id: *id,
                    cond_id: *cid,
                    cond: cond.clone(),
                    then_: then_2,
                    else_: else_2,
                });
            }
            Stmt::Return { id, .. } => {
                // Keep the control effect; the value becomes the probe.
                out.push(Stmt::Return {
                    id: *id,
                    value: Some(Expr::var(probe)),
                });
            }
            other => out.push(other.clone()),
        }
    }
    out
}

/// Finds an input vector that drives branch `(cond_id, dir)` of the
/// (loop-free) function, or returns `Ok(None)` — a *proof* that the branch
/// direction is unreachable (dead code).
///
/// # Errors
///
/// Returns [`FormalError`] when the function cannot be synthesized or the
/// condition id does not exist.
pub fn sat_branch_tpg(
    func: &Function,
    cond_id: CondId,
    dir: bool,
) -> Result<Option<Vec<u64>>, FormalError> {
    let instrumented =
        instrument_branch(func, cond_id, dir).ok_or(FormalError::NoSuchCondition(cond_id))?;
    let rtl = synthesize(&instrumented)?;
    let mut ctx = CnfBackend::new();
    let input_bits: Vec<Vec<Lit>> = rtl
        .inputs()
        .iter()
        .map(|&i| (0..rtl.width(i)).map(|_| ctx.bit_fresh()).collect())
        .collect();
    let lowered = lower(&rtl, &mut ctx, &input_bits, &[]);
    let probe_bit = lowered.outputs(&rtl)[0].1[0];
    let builder = ctx.builder_mut();
    builder.assert_lit(probe_bit);
    Ok(solve_for_vector(builder, &input_bits))
}

/// Injects a bit fault behaviourally: every assignment to `fault.var` has
/// the faulty bit forced. This mirrors the interpreter's fault semantics,
/// so SAT answers agree with fault simulation.
pub fn inject_fault(func: &Function, fault: BitFault) -> Function {
    let body = inject_block(func.body(), fault, func);
    behav::Function::rebuild(
        format!("{}_faulty", func.name()),
        func.vars().to_vec(),
        func.num_params(),
        func.ret_width(),
        body,
    )
}

fn faulty_value(value: &Expr, fault: BitFault, width: u32) -> Expr {
    if fault.bit >= width {
        return value.clone();
    }
    if fault.stuck_at {
        Expr::or(value.clone(), Expr::constant(1u64 << fault.bit, width))
    } else {
        let m = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        Expr::and(
            value.clone(),
            Expr::constant(m & !(1u64 << fault.bit), width),
        )
    }
}

fn inject_block(stmts: &[Stmt], fault: BitFault, func: &Function) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign { id, target, value } if *target == fault.var => Stmt::Assign {
                id: *id,
                target: *target,
                value: faulty_value(value, fault, func.var(*target).width),
            },
            Stmt::If {
                id,
                cond_id,
                cond,
                then_,
                else_,
            } => Stmt::If {
                id: *id,
                cond_id: *cond_id,
                cond: cond.clone(),
                then_: inject_block(then_, fault, func),
                else_: inject_block(else_, fault, func),
            },
            Stmt::While {
                id,
                cond_id,
                cond,
                body,
            } => Stmt::While {
                id: *id,
                cond_id: *cond_id,
                cond: cond.clone(),
                body: inject_block(body, fault, func),
            },
            other => other.clone(),
        })
        .collect()
}

/// Finds an input vector on which the fault changes the function's output
/// (a *test* for the fault), or `Ok(None)` — a proof the fault is
/// untestable. Loop-free functions only.
///
/// # Errors
///
/// Returns [`FormalError::Synth`] when either version cannot be
/// synthesized.
pub fn sat_fault_tpg(func: &Function, fault: BitFault) -> Result<Option<Vec<u64>>, FormalError> {
    let good = synthesize(func)?;
    let bad = synthesize(&inject_fault(func, fault))?;
    let mut ctx = CnfBackend::new();
    let input_bits: Vec<Vec<Lit>> = good
        .inputs()
        .iter()
        .map(|&i| (0..good.width(i)).map(|_| ctx.bit_fresh()).collect())
        .collect();
    let lg = lower(&good, &mut ctx, &input_bits, &[]);
    let lb = lower(&bad, &mut ctx, &input_bits, &[]);
    let out_g = lg.outputs(&good)[0].1.clone();
    let out_b = lb.outputs(&bad)[0].1.clone();
    // Miter: outputs differ in at least one bit.
    let mut diff_bits = Vec::new();
    for (&g, &b) in out_g.iter().zip(&out_b) {
        diff_bits.push(ctx.bit_xor(g, b));
    }
    let builder = ctx.builder_mut();
    let any = diff_bits
        .iter()
        .fold(None::<Lit>, |acc, &d| match acc {
            None => Some(d),
            Some(a) => Some(builder.or_gate(a, d)),
        })
        .expect("at least one output bit");
    builder.assert_lit(any);
    Ok(solve_for_vector(builder, &input_bits))
}

/// Completes a testbench's *bit coverage* formally: for every fault left
/// undetected by `tb`, asks SAT for a distinguishing vector (appending it)
/// or proves the fault untestable. Returns the extended testbench and the
/// number of proven-untestable faults. Loop-free functions only.
///
/// After this, `metrics::bit_coverage` detects every testable fault — the
/// formal engine finishing what the simulation engines plateaued on,
/// exactly Laerte++'s division of labour.
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn complete_faults_with_sat(
    func: &Function,
    tb: &Testbench,
) -> Result<(Testbench, u32), FormalError> {
    let mut out = tb.clone();
    let mut untestable = 0u32;
    for fault in crate::metrics::bit_coverage(func, tb).undetected {
        match sat_fault_tpg(func, fault)? {
            Some(v) => out.vectors.push(v),
            None => untestable += 1,
        }
    }
    Ok((out, untestable))
}

/// Solves the asserted query: `None` proves the target unreachable or
/// untestable, `Some` is the input vector read back from the model.
fn solve_for_vector(builder: &mut sat::CnfBuilder, input_bits: &[Vec<Lit>]) -> Option<Vec<u64>> {
    if builder.solve().is_unsat() {
        return None;
    }
    let vector = input_bits
        .iter()
        .map(|bits| {
            let mut v = 0u64;
            for (i, &l) in bits.iter().enumerate() {
                if builder.lit_value(l) {
                    v |= 1 << i;
                }
            }
            v
        })
        .collect();
    Some(vector)
}

/// Completes a testbench formally: for every branch direction left
/// uncovered by `tb`, asks SAT for a vector (appending it when one exists).
/// Returns the extended testbench and the number of branch directions
/// proven unreachable.
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn complete_with_sat(func: &Function, tb: &Testbench) -> Result<(Testbench, u32), FormalError> {
    let report = crate::metrics::evaluate(func, &tb.vectors).report();
    let mut out = tb.clone();
    let mut unreachable = 0u32;
    for (cond, dir) in report.uncovered_branches {
        match sat_branch_tpg(func, cond, dir)? {
            Some(v) => {
                // Cross-check with the interpreter before trusting SAT.
                let run = Interpreter::new(func).run(&v);
                debug_assert!(run.is_ok());
                out.vectors.push(v);
            }
            None => unreachable += 1,
        }
    }
    Ok((out, unreachable))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use behav::{Expr, FunctionBuilder};

    /// Needle in a 16-bit haystack: a*3+7 == 0x1234 has exactly one
    /// solution, hopeless for random search.
    fn needle() -> Function {
        let mut fb = FunctionBuilder::new("needle", 8);
        let a = fb.param("a", 16);
        let x = fb.local("x", 16);
        fb.assign(
            x,
            Expr::add(
                Expr::mul(Expr::var(a), Expr::constant(3, 16)),
                Expr::constant(7, 16),
            ),
        );
        fb.if_else(
            Expr::eq(Expr::var(x), Expr::constant(0x1234, 16)),
            |t| t.ret(Expr::constant(1, 8)),
            |e| e.ret(Expr::constant(0, 8)),
        );
        fb.build()
    }

    #[test]
    fn sat_finds_the_needle_branch() {
        let f = needle();
        // cond_id 0 is the (only) if condition; direction true.
        let v = sat_branch_tpg(&f, cond_of(&f, 0), true)
            .expect("synthesizable")
            .expect("reachable");
        // The vector genuinely drives the branch.
        let out = Interpreter::new(&f).run(&v).unwrap();
        assert_eq!(out.return_value, Some(1));
    }

    #[test]
    fn dead_branch_is_proven_unreachable() {
        // if (a & 1) == 2 — impossible for a 1-bit result… build an
        // genuinely dead condition: x = a & 0; if x == 1 {…}.
        let mut fb = FunctionBuilder::new("dead", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
        fb.assign(x, Expr::and(Expr::var(a), Expr::constant(0, 8)));
        fb.if_else(
            Expr::eq(Expr::var(x), Expr::constant(1, 8)),
            |t| t.ret(Expr::constant(1, 8)),
            |e| e.ret(Expr::constant(0, 8)),
        );
        let f = fb.build();
        let res = sat_branch_tpg(&f, cond_of(&f, 0), true).expect("synthesizable");
        assert_eq!(res, None, "branch must be proven dead");
        // The false direction is reachable.
        assert!(sat_branch_tpg(&f, cond_of(&f, 0), false).unwrap().is_some());
    }

    #[test]
    fn fault_tpg_finds_test_vector() {
        let mut fb = FunctionBuilder::new("inc", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
        fb.assign(x, Expr::add(Expr::var(a), Expr::constant(1, 8)));
        fb.ret(Expr::var(x));
        let f = fb.build();
        let x_id = f.var_by_name("x").unwrap();
        let fault = BitFault {
            var: x_id,
            bit: 0,
            stuck_at: false,
        };
        let v = sat_fault_tpg(&f, fault)
            .expect("synthesizable")
            .expect("testable");
        // Verify by fault simulation.
        let good = Interpreter::new(&f).run(&v).unwrap().return_value;
        let bad = Interpreter::new(&f)
            .with_fault(fault)
            .run(&v)
            .unwrap()
            .return_value;
        assert_ne!(good, bad);
    }

    #[test]
    fn untestable_fault_is_proven() {
        // x is assigned but never observed: faults on it are untestable.
        let mut fb = FunctionBuilder::new("deadvar", 8);
        let a = fb.param("a", 8);
        let x = fb.local("x", 8);
        fb.assign(x, Expr::var(a));
        fb.ret(Expr::var(a));
        let f = fb.build();
        let x_id = f.var_by_name("x").unwrap();
        let res = sat_fault_tpg(
            &f,
            BitFault {
                var: x_id,
                bit: 3,
                stuck_at: true,
            },
        )
        .expect("synthesizable");
        assert_eq!(res, None);
    }

    #[test]
    fn complete_with_sat_reaches_full_branch_coverage() {
        let f = needle();
        let tb = Testbench {
            vectors: vec![vec![0], vec![1]], // random-ish: misses the needle
        };
        let before = metrics::evaluate(&f, &tb.vectors).report();
        assert!(before.branch_pct() < 100.0);
        let (completed, unreachable) = complete_with_sat(&f, &tb).expect("works");
        assert_eq!(unreachable, 0);
        let after = metrics::evaluate(&f, &completed.vectors).report();
        assert_eq!(after.branch_pct(), 100.0);
    }

    #[test]
    fn complete_faults_reaches_full_testable_bit_coverage() {
        let f = needle();
        // Start from a weak testbench.
        let tb = Testbench {
            vectors: vec![vec![0]],
        };
        let before = metrics::bit_coverage(&f, &tb);
        assert!(before.detected < before.total);
        let (completed, untestable) = complete_faults_with_sat(&f, &tb).expect("works");
        let after = metrics::bit_coverage(&f, &completed);
        assert_eq!(
            after.detected as u32 + untestable,
            after.total as u32,
            "every fault either detected or proven untestable: {after:?}"
        );
        assert!(after.detected > before.detected);
    }

    /// Helper: the `i`-th condition id of a function.
    fn cond_of(func: &Function, i: usize) -> CondId {
        let mut ids = Vec::new();
        func.visit_stmts(&mut |s| match s {
            Stmt::If { cond_id, .. } | Stmt::While { cond_id, .. } => ids.push(*cond_id),
            _ => {}
        });
        ids[i]
    }
}
