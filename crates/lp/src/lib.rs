//! Linear-programming verification (LPV) for the Symbad flow.
//!
//! Re-implementation of the LPV technology the paper adopts from
//! TNI-Valiosys (reference \[7\]): verification questions are compiled to
//! linear programs whose infeasibility or optimum value constitutes a
//! *certificate*. The crate contains:
//!
//! * [`rational`] — exact `i128` rational arithmetic,
//! * [`simplex`] — a two-phase primal simplex solver (Bland's rule, hence
//!   guaranteed termination) over those rationals,
//! * [`petri`] — Petri-net abstractions of the transaction-level model,
//! * [`lpv`] — the four verification encodings used at levels 1–2 of the
//!   flow: deadlock freeness, marking unreachability, deadline achievement
//!   and FIFO dimensioning.
//!
//! # Example: proving a dataflow ring deadlock-free
//!
//! ```
//! use lp::petri::PetriNet;
//! use lp::lpv::{check_liveness, LivenessVerdict};
//!
//! let mut net = PetriNet::new();
//! let a = net.add_transition("producer");
//! let b = net.add_transition("consumer");
//! net.add_channel("data", a, b, 0);
//! net.add_channel("credit", b, a, 4); // 4-deep FIFO modelled as credits
//! assert!(matches!(check_liveness(&net), LivenessVerdict::Live { .. }));
//! ```

pub mod lpv;
pub mod petri;
pub mod rational;
pub mod simplex;

pub use lpv::{
    check_deadline, check_liveness, check_unreachable, dimension_fifo, dimension_fifo_batch,
    fifo_problems, liveness_problem, ChannelRates, DeadlineVerdict, FifoBound, LivenessVerdict,
    MarkingConstraint, MarkingRelation, Reachability, TaskGraph,
};
pub use petri::{PetriNet, PlaceId, TransitionId};
pub use rational::Rational;
pub use simplex::{Problem, Relation, Solution};
