//! Symbad: the integrated four-level design and verification flow.
//!
//! This crate is the paper's primary contribution — the methodology of
//! Figure 1 — assembled from the substrate crates:
//!
//! | Level | Module | Model | Verification |
//! |-------|--------|-------|--------------|
//! | 1 | [`level1`] | untimed functional dataflow network (Figure 2) on the `sim` kernel | trace match vs the C reference (`media::reference`); ATPG (`atpg`); LPV deadlock freeness (`lp`) |
//! | 2 | [`level2`] | HW/SW-partitioned timed TL model: CPU + AMBA-class bus, automatic SW annotation | trace match vs level 1; LPV deadlines and FIFO sizing |
//! | 3 | [`level3`] | level 2 + embedded FPGA with contexts and bitstream downloads | trace match vs level 2; SymbC consistency |
//! | 4 | [`level4`] | behavioural synthesis of the FPGA kernels to RTL + bus wrapper FSMs | model checking (BMC / k-induction / BDD) + PCC property coverage |
//!
//! [`partition`] holds the architecture description shared by levels 2–4;
//! [`explore`] implements the architecture-exploration sweeps (partitioning
//! and context-splitting ablations, experiments E9/E10); [`cascade`] runs
//! the full verification cascade of Figure 1 end-to-end and attributes each
//! seeded error class to the stage that catches it (experiment E12);
//! [`supervise`] provides the supervised-execution vocabulary (panic
//! isolation, deterministic effort budgets, degraded partial verdicts)
//! and the one obligation driver behind every entry point of [`flow`]
//! and [`level4`]; [`cascade`] supervises its stages with the same
//! vocabulary.
//!
//! # Quickstart
//!
//! ```
//! use symbad_core::workload::Workload;
//! use symbad_core::level1;
//!
//! // A small workload: 4 identities × 2 poses, 2 probe frames.
//! let workload = Workload::small();
//! let report = level1::run_instrumented(&workload, &telemetry::noop())
//!     .expect("level-1 simulation");
//! assert!(report.matches_reference);
//! ```

pub mod cascade;
pub mod explore;
pub mod flow;
pub mod job;
pub mod level1;
pub mod level2;
pub mod level3;
pub mod level4;
pub mod msg;
pub mod partition;
pub mod supervise;
pub mod timed;
pub mod workload;

pub use msg::Msg;
pub use partition::{Domain, Partition};
pub use supervise::{DegradationSummary, ObligationOutcome, ObligationStatus, SupervisionPolicy};
pub use timed::{FaultReport, PlatformFault, RecoveryPolicy, RunError};
pub use workload::Workload;
