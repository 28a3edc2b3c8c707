//! Discrete-event simulation kernel — the SystemC analog of the Symbad flow.
//!
//! The Symbad methodology (Borgatti et al., DATE 2004) models every level of
//! the design as a network of concurrent processes communicating through
//! channels, executed by the SystemC 2.0 kernel. This crate provides the
//! equivalent substrate, built from scratch:
//!
//! * [`SimTime`] — discrete simulation time in kernel ticks,
//! * [`Process`] — cooperatively scheduled processes polled as state machines,
//! * bounded FIFO channels with blocking read/write semantics,
//! * signal evaluate/update (delta-cycle) semantics as in SystemC,
//! * named events with timed notification,
//! * deterministic scheduling (strict `(time, delta, sequence)` order),
//! * deadlock detection (every live process blocked, nothing pending),
//! * per-run [`Stats`] and a [`Trace`] recorder used by the flow's
//!   cross-level trace-equivalence checks.
//!
//! The kernel is generic over the message type `T` carried by channels, so
//! the level-1 untimed model can move whole video frames per token while the
//! level-4 model moves bus words.
//!
//! # Example
//!
//! A producer/consumer pair over a bounded FIFO:
//!
//! ```
//! use sim::{Activation, ProcessCtx, Process, SimTime, Simulator};
//!
//! struct Producer { out: sim::FifoId, next: u64 }
//! impl Process<u64> for Producer {
//!     fn poll(&mut self, ctx: &mut ProcessCtx<'_, u64>) -> Activation {
//!         if self.next == 4 { return Activation::Done; }
//!         match ctx.try_write(self.out, self.next) {
//!             Ok(()) => { self.next += 1; Activation::WaitTime(SimTime::from_ticks(1)) }
//!             Err(_) => Activation::WaitFifoWritable(self.out),
//!         }
//!     }
//!     fn name(&self) -> &str { "producer" }
//! }
//!
//! struct Consumer { inp: sim::FifoId, sum: u64, remaining: u32 }
//! impl Process<u64> for Consumer {
//!     fn poll(&mut self, ctx: &mut ProcessCtx<'_, u64>) -> Activation {
//!         if self.remaining == 0 { return Activation::Done; }
//!         match ctx.try_read(self.inp) {
//!             Some(v) => { self.sum += v; self.remaining -= 1; Activation::Continue }
//!             None => Activation::WaitFifoReadable(self.inp),
//!         }
//!     }
//!     fn name(&self) -> &str { "consumer" }
//! }
//!
//! # fn main() -> Result<(), sim::SimError> {
//! let mut sim = Simulator::new();
//! let ch = sim.add_fifo("ch", 2);
//! sim.add_process(Producer { out: ch, next: 0 });
//! sim.add_process(Consumer { inp: ch, sum: 0, remaining: 4 });
//! let outcome = sim.run(SimTime::MAX)?;
//! assert!(outcome.is_quiescent());
//! # Ok(())
//! # }
//! ```

pub mod event;
pub mod faults;
pub mod fifo;
pub mod kernel;
pub mod process;
pub mod signal;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::EventId;
pub use faults::{FaultKind, FaultLog, FaultPlan, SharedFaultPlan};
pub use fifo::FifoId;
pub use kernel::{Outcome, RunResult, SimError, Simulator};
pub use process::{Activation, Process, ProcessCtx, ProcessId};
pub use signal::SignalId;
pub use stats::Stats;
pub use time::SimTime;
pub use trace::{Trace, TraceEntry};
