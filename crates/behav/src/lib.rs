//! Behavioural IR: the "C level" of the Symbad flow.
//!
//! Levels 1–3 of the methodology operate on behavioural descriptions —
//! the reference C model, SystemC module bodies, and the embedded software
//! instrumented with reconfiguration calls. This crate is the shared
//! intermediate representation for all of them:
//!
//! * word-level [`Expr`]essions and structured [`Stmt`]ements (assignments,
//!   conditionals, bounded loops, array accesses, returns),
//! * the two level-3 instrumentation primitives, [`Stmt::Reconfigure`] and
//!   [`Stmt::ResourceCall`], checked by the `symbc` crate,
//! * a deterministic [`interp`]reter with operation counting (feeding the
//!   `platform` crate's automatic SW timing annotation), coverage recording
//!   and high-level (bit) fault injection for the `atpg` crate,
//! * coverage bookkeeping ([`coverage`]) for the statement / branch /
//!   condition / bit metrics of Laerte++,
//! * a bounded [`unroll`] transform producing the loop-free form consumed
//!   by the `hdl` crate's behavioural synthesis,
//! * a [`bytecode`] compiler and register VM — the decode-once
//!   execute-many fast path for hot callers (ATPG fault sweeps, per-frame
//!   kernel execution), differentially validated against the interpreter.
//!
//! # Example
//!
//! ```
//! use behav::{Expr, FunctionBuilder, interp::Interpreter};
//!
//! // f(a, b) = |a - b|
//! let mut fb = FunctionBuilder::new("absdiff", 16);
//! let a = fb.param("a", 16);
//! let b = fb.param("b", 16);
//! let lt = Expr::lt(Expr::var(a), Expr::var(b));
//! fb.if_else(
//!     lt,
//!     |t| t.ret(Expr::sub(Expr::var(b), Expr::var(a))),
//!     |e| e.ret(Expr::sub(Expr::var(a), Expr::var(b))),
//! );
//! let f = fb.build();
//! let out = Interpreter::new(&f).run(&[3, 10]).unwrap();
//! assert_eq!(out.return_value, Some(7));
//! ```

pub mod bytecode;
pub mod coverage;
pub mod expr;
pub mod func;
pub mod interp;
pub mod pretty;
pub mod stmt;
pub mod unroll;

pub use bytecode::{BehavExec, Program, Vm};
pub use coverage::{CoverageReport, CoverageSet};
pub use expr::{BinOp, Expr, UnaryOp};
pub use func::{BlockBuilder, Function, FunctionBuilder, VarDecl, VarId, VarKind};
pub use stmt::{CondId, ConfigId, Stmt, StmtId};
