//! A CDCL SAT solver.
//!
//! The Symbad flow uses SAT in three places: the formal engine of the
//! Laerte++-style ATPG (level 1), bounded model checking of the RTL
//! (level 4), and property-coverage checking (PCC). This crate is a
//! self-contained conflict-driven clause-learning solver with:
//!
//! * two-watched-literal propagation,
//! * first-UIP conflict analysis,
//! * VSIDS-style activity-based decision heuristics,
//! * Luby-sequence restarts,
//! * incremental solving under assumptions,
//! * deterministic effort budgets ([`Solver::solve_budgeted`]).
//!
//! [`cnf::CnfBuilder`] layers Tseitin gate encodings (AND/OR/XOR/MUX/equality)
//! on top, which is how the `hdl` crate bit-blasts netlists into CNF.
//!
//! # Example
//!
//! ```
//! use sat::{Solver, Lit};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b)  has the unique model a=1, b=1.
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a), Lit::pos(b)]);
//! s.add_clause([Lit::pos(a), Lit::neg(b)]);
//! assert!(s.solve().is_sat());
//! assert_eq!(s.value(a), Some(true));
//! assert_eq!(s.value(b), Some(true));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cnf;
pub mod dimacs;
pub mod solver;
pub mod types;

pub use cnf::CnfBuilder;
pub use dimacs::Dimacs;
pub use solver::{BudgetedResult, Cnf, SolveResult, Solver};
pub use types::{Lit, Var};
