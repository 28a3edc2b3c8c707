//! Flow-wide telemetry: spans, metrics and exportable traces.
//!
//! The paper's level-2/3 models exist to *measure* — bus loading, FIFO
//! dimensioning, reconfiguration overhead are the quantities the
//! architecture exploration optimizes. This crate is the instrumentation
//! layer those measurements flow through:
//!
//! * [`Instrument`] — the hook trait every substrate component talks to.
//!   All methods default to no-ops, so a component holding the [`Noop`]
//!   instrument (the default everywhere) pays one virtual call to an empty
//!   function on its hot path and allocates nothing.
//! * [`Collector`] — the recording implementation: hierarchical spans
//!   keyed by simulation time (wall time is an optional, off-by-default
//!   field so exports stay deterministic), monotonic counters, gauge
//!   time-series and histograms.
//! * Exporters — [`chrome::chrome_trace`] (open in `chrome://tracing` or
//!   [ui.perfetto.dev](https://ui.perfetto.dev)), [`vcd::vcd_dump`]
//!   (gauge series as a VCD waveform) and [`report::Report`] (structured
//!   human text + JSON).
//! * [`json`] — the workspace's one JSON codec (no serde, the build is
//!   offline): a deterministic writer and [`json::parse`], a
//!   depth-bounded parser for untrusted text such as the persisted
//!   obligation cache and journal lines.
//! * The flight recorder — [`journal::Journal`], a bounded two-lane ring
//!   of typed events with per-obligation cost provenance, streamed as
//!   JSONL; [`profile::FlowProfile`], the "explain this run" aggregation
//!   (top-K costliest obligations, per-engine cache ratios, budget
//!   utilization, degradation timeline, latency percentiles); and
//!   [`prom::prometheus_text`], a scrapeable Prometheus-style exposition
//!   of the collector's keyed state.
//!
//! Everything is deterministic under a fixed seed: records are keyed by
//! sim-time and a collector-local sequence number, exports sort by those
//! keys, and the JSON writer formats numbers reproducibly. That is what
//! makes the exports golden-testable.
//!
//! # Example
//!
//! ```
//! use telemetry::{Collector, Instrument};
//!
//! let collector = Collector::shared();
//! let instr: telemetry::SharedInstrument = collector.clone();
//! instr.span("bus:cpu", "ram:W8", 10, 19);
//! instr.counter_add("bus.transactions", 1);
//! instr.record("bus.wait_ticks", 0);
//! let trace = telemetry::chrome::chrome_trace(&collector);
//! assert!(trace.contains("\"ram:W8\""));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod collect;
pub mod instrument;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod prom;
pub mod report;
pub mod vcd;

pub use chrome::chrome_trace;
pub use collect::{Collector, Span};
pub use instrument::{noop, Instrument, Noop, SharedInstrument};
pub use journal::{EffortSpent, Event, EventKind, Journal, Provenance, TimingEvent, TimingKind};
pub use json::Json;
pub use metrics::{Histogram, HistogramSummary};
pub use profile::FlowProfile;
pub use prom::{parse_exposition, prometheus_text};
pub use report::{Report, Section};
pub use vcd::vcd_dump;
