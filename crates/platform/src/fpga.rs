//! The reconfigurable device: contexts, bitstream downloads, calls.
//!
//! The case study maps DISTANCE and ROOT into an embedded FPGA, split over
//! two contexts (`config1`, `config2`). "Downloading bit-streams is costly
//! in terms of bus loading" (§3.3): loading a context issues a burst
//! transaction of `bitstream_words` on the bus, and the per-run report
//! exposes reconfiguration counts and download traffic — the quantities
//! experiments E3/E9/E10 sweep.

use sim::faults::SharedFaultPlan;
use sim::SimTime;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use telemetry::SharedInstrument;
use tlm::{AccessKind, BusError, Payload, Reservation, SharedBus};

/// Byte-at-a-time lookup table of the reflected CRC-32 polynomial
/// `0xEDB88320`: entry `b` is the register after shifting byte `b`
/// through eight bit-serial steps.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
};

/// CRC-32 (reflected, polynomial `0xEDB88320`) over a stream of words,
/// little-endian byte order. This is the checksum the FPGA verifies after
/// every bitstream download: a single corrupted word always changes it.
pub fn crc32_words(words: impl Iterator<Item = u32>) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for word in words {
        for byte in word.to_le_bytes() {
            crc = CRC32_TABLE[usize::from(crc as u8 ^ byte)] ^ (crc >> 8);
        }
    }
    !crc
}

/// Identifier of a context (configuration) of an [`Fpga`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextId(pub usize);

impl ContextId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One FPGA configuration: a set of resident functions plus its bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Context {
    /// Context name (e.g. `config1`).
    pub name: String,
    /// Functions resident when this context is loaded, with their
    /// hardware execution cost in cycles per invocation.
    pub functions: Vec<(String, u64)>,
    /// Bitstream size in bus words (download cost driver).
    pub bitstream_words: u32,
}

impl Context {
    /// This context's pseudo-bitstream, `bitstream_words` words in
    /// download order. The stream content is synthesized
    /// deterministically from the context name (hashed once per stream)
    /// so the model carries no real configuration data yet still has a
    /// well-defined CRC that corruption faults can break.
    pub fn bitstream(&self) -> impl Iterator<Item = u32> {
        let name = sim::faults::fnv1a(self.name.as_bytes());
        (0..self.bitstream_words).map(move |i| sim::faults::mix64(name ^ u64::from(i)) as u32)
    }

    /// Reference CRC-32 of the full bitstream, as recorded at "design
    /// time". Downloads are verified against this value.
    pub fn crc(&self) -> u32 {
        crc32_words(self.bitstream())
    }
}

/// Runtime errors of the reconfigurable device — exactly the class of bug
/// SymbC proves absent before this model ever runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FpgaError {
    /// A function was called while not resident in the loaded context.
    FunctionNotLoaded {
        /// The requested function.
        func: String,
        /// The currently loaded context, if any.
        loaded: Option<ContextId>,
    },
    /// The named function exists in no context.
    UnknownFunction {
        /// The requested function.
        func: String,
    },
    /// A downloaded bitstream failed the post-download CRC check.
    BitstreamCorrupted {
        /// The context whose download was corrupted.
        context: String,
        /// CRC recorded at design time.
        expected_crc: u32,
        /// CRC computed over the received stream.
        got_crc: u32,
    },
    /// A context download did not complete within the watchdog window.
    LoadTimeout {
        /// The context being downloaded.
        context: String,
    },
    /// The bitstream download transaction failed on the bus.
    Bus(BusError),
}

impl fmt::Display for FpgaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FpgaError::FunctionNotLoaded { func, loaded } => write!(
                f,
                "function `{func}` called while context {loaded:?} is loaded"
            ),
            FpgaError::UnknownFunction { func } => {
                write!(f, "function `{func}` exists in no context")
            }
            FpgaError::BitstreamCorrupted {
                context,
                expected_crc,
                got_crc,
            } => write!(
                f,
                "bitstream for context `{context}` corrupted: \
                 expected CRC {expected_crc:#010x}, got {got_crc:#010x}"
            ),
            FpgaError::LoadTimeout { context } => {
                write!(f, "download of context `{context}` timed out")
            }
            FpgaError::Bus(e) => write!(f, "bitstream download failed on the bus: {e}"),
        }
    }
}

impl std::error::Error for FpgaError {}

impl From<BusError> for FpgaError {
    fn from(e: BusError) -> Self {
        FpgaError::Bus(e)
    }
}

/// A failed [`Fpga::load`]: the error plus the simulation time at which
/// the device (and bus) are free again, so the caller can schedule a retry
/// deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadFault {
    /// What went wrong.
    pub error: FpgaError,
    /// When the failed attempt's bus/device occupancy ends. Retries must
    /// not start before this time.
    pub busy_until: SimTime,
}

impl fmt::Display for LoadFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (device busy until {})", self.error, self.busy_until)
    }
}

impl std::error::Error for LoadFault {}

/// The embedded FPGA model.
#[derive(Debug)]
pub struct Fpga {
    name: String,
    contexts: Vec<Context>,
    /// Design-time CRC of each context's bitstream, recorded once by
    /// [`Fpga::add_context`] (a context never changes once added).
    reference_crcs: Vec<u32>,
    loaded: Option<ContextId>,
    /// Bus address of the configuration port (bitstreams are written here).
    config_port_addr: u64,
    /// Extra context-switch latency on top of the bus transfer.
    switch_cycles: u64,
    reconfigurations: u64,
    download_words: u64,
    failed_loads: u64,
    calls: u64,
    busy_cycles: u64,
    faults: Option<SharedFaultPlan>,
    instrument: SharedInstrument,
}

/// Watchdog budget for a context download, in multiples of
/// `switch_cycles`: a timed-out load occupies the device this much longer
/// than a clean context switch before the CPU gives up.
const LOAD_TIMEOUT_WATCHDOG_FACTOR: u64 = 4;

/// Shared handle to an [`Fpga`].
pub type SharedFpga = Rc<RefCell<Fpga>>;

impl Fpga {
    /// Creates an FPGA with no contexts loaded.
    pub fn new(name: &str, config_port_addr: u64, switch_cycles: u64) -> Self {
        Fpga {
            name: name.to_owned(),
            contexts: Vec::new(),
            reference_crcs: Vec::new(),
            loaded: None,
            config_port_addr,
            switch_cycles,
            reconfigurations: 0,
            download_words: 0,
            failed_loads: 0,
            calls: 0,
            busy_cycles: 0,
            faults: None,
            instrument: telemetry::noop(),
        }
    }

    /// Attaches a telemetry instrument: context downloads then emit spans
    /// on the `fpga` track, reconfiguration-latency histogram samples and
    /// a loaded-context gauge (0 = nothing loaded, `i + 1` = context `i`).
    pub fn set_instrument(&mut self, instrument: SharedInstrument) {
        self.instrument = instrument;
    }

    /// Installs a fault plan; bitstream downloads consult it for injected
    /// corruption and timeouts. Without a plan (or with a zero-rate plan)
    /// every download succeeds.
    pub fn set_fault_plan(&mut self, plan: SharedFaultPlan) {
        self.faults = Some(plan);
    }

    /// Creates a shared handle.
    pub fn shared(name: &str, config_port_addr: u64, switch_cycles: u64) -> SharedFpga {
        Rc::new(RefCell::new(Fpga::new(
            name,
            config_port_addr,
            switch_cycles,
        )))
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a context and records its design-time CRC, which every
    /// later download of it is verified against.
    pub fn add_context(&mut self, context: Context) -> ContextId {
        self.reference_crcs.push(context.crc());
        self.contexts.push(context);
        ContextId(self.contexts.len() - 1)
    }

    /// The currently loaded context.
    pub fn loaded(&self) -> Option<ContextId> {
        self.loaded
    }

    /// All contexts.
    pub fn contexts(&self) -> &[Context] {
        &self.contexts
    }

    /// The context providing `func`, if any.
    pub fn context_of(&self, func: &str) -> Option<ContextId> {
        self.contexts
            .iter()
            .position(|c| c.functions.iter().any(|(n, _)| n == func))
            .map(ContextId)
    }

    /// Loads `context`: reserves a bitstream-download burst on `bus` at
    /// time `now`, verifies the received stream's CRC against the
    /// design-time reference, and returns the reservation (caller sleeps
    /// until `reservation.end`, which already includes `switch_cycles`).
    /// Loading the already-loaded context is a no-op costing nothing
    /// (`Ok(None)`).
    ///
    /// # Errors
    ///
    /// Any failed download leaves the device with **no** loaded context —
    /// a partially written configuration memory is never trusted — so a
    /// subsequent `call` surfaces as [`FpgaError::FunctionNotLoaded`]
    /// rather than a silent wrong answer. The returned [`LoadFault`]
    /// carries the time at which the failed attempt's occupancy ends.
    ///
    /// # Panics
    ///
    /// Panics if `context` is out of range.
    pub fn load(
        &mut self,
        context: ContextId,
        now: SimTime,
        bus: &SharedBus,
        master: usize,
    ) -> Result<Option<Reservation>, LoadFault> {
        assert!(context.0 < self.contexts.len(), "unknown context");
        if self.loaded == Some(context) {
            return Ok(None);
        }
        let ctx = &self.contexts[context.0];
        let (ctx_name, words) = (ctx.name.clone(), ctx.bitstream_words);
        let expected_crc = self.reference_crcs[context.0];
        let reservation = match bus.borrow_mut().transfer(
            now,
            &Payload::burst(master, self.config_port_addr, AccessKind::Write, words),
        ) {
            Ok(r) => r,
            Err(e) => {
                // The burst aborted mid-flight: configuration memory is in
                // an undefined state, so drop whatever was loaded.
                self.loaded = None;
                self.failed_loads += 1;
                let busy_until = match &e {
                    BusError::Slave { at, .. } => *at,
                    _ => now,
                };
                self.note_failed_load(&ctx_name, now, busy_until);
                return Err(LoadFault {
                    error: FpgaError::Bus(e),
                    busy_until,
                });
            }
        };
        self.download_words += words as u64;
        if self
            .faults
            .as_ref()
            .is_some_and(|p| p.borrow_mut().load_timeout(&ctx_name))
        {
            self.loaded = None;
            self.failed_loads += 1;
            let busy_until = reservation
                .end
                .saturating_add_ticks(self.switch_cycles * LOAD_TIMEOUT_WATCHDOG_FACTOR);
            self.note_failed_load(&ctx_name, now, busy_until);
            return Err(LoadFault {
                error: FpgaError::LoadTimeout { context: ctx_name },
                busy_until,
            });
        }
        let got_crc = match self
            .faults
            .as_ref()
            .and_then(|p| p.borrow_mut().bitstream_corruption(&ctx_name, words))
        {
            Some((index, mask)) => {
                let stream = self.contexts[context.0].bitstream().zip(0..);
                crc32_words(stream.map(|(w, i)| if i == index { w ^ mask } else { w }))
            }
            None => expected_crc,
        };
        if got_crc != expected_crc {
            self.loaded = None;
            self.failed_loads += 1;
            let busy_until = reservation.end.saturating_add_ticks(self.switch_cycles);
            self.note_failed_load(&ctx_name, now, busy_until);
            return Err(LoadFault {
                error: FpgaError::BitstreamCorrupted {
                    context: ctx_name,
                    expected_crc,
                    got_crc,
                },
                busy_until,
            });
        }
        self.loaded = Some(context);
        self.reconfigurations += 1;
        let end = reservation.end.saturating_add_ticks(self.switch_cycles);
        if self.instrument.enabled() {
            let i = &self.instrument;
            i.span(
                "fpga",
                &format!("load {ctx_name}"),
                now.ticks(),
                end.ticks(),
            );
            i.counter_add("fpga.reconfigurations", 1);
            i.counter_add("fpga.download_words", words as u64);
            i.record("fpga.reconfig_latency", end.ticks_since(now));
            i.gauge_set("fpga.context", end.ticks(), context.0 as i64 + 1);
        }
        Ok(Some(Reservation {
            start: reservation.start,
            end,
            waited: reservation.waited,
        }))
    }

    /// Telemetry for a failed download: a span covering the occupied
    /// window, a failure counter and the context gauge dropping to 0
    /// (nothing loaded).
    fn note_failed_load(&self, ctx_name: &str, now: SimTime, busy_until: SimTime) {
        if self.instrument.enabled() {
            let i = &self.instrument;
            i.span(
                "fpga",
                &format!("load {ctx_name} (failed)"),
                now.ticks(),
                busy_until.ticks(),
            );
            i.counter_add("fpga.failed_loads", 1);
            i.gauge_set("fpga.context", busy_until.ticks(), 0);
        }
    }

    /// Invokes `func` on the currently loaded context; returns the
    /// execution cycles the caller must wait.
    ///
    /// # Errors
    ///
    /// [`FpgaError::FunctionNotLoaded`] when the function is not resident —
    /// the consistency violation SymbC exists to rule out — and
    /// [`FpgaError::UnknownFunction`] when no context provides it.
    pub fn call(&mut self, func: &str) -> Result<u64, FpgaError> {
        if self.context_of(func).is_none() {
            return Err(FpgaError::UnknownFunction {
                func: func.to_owned(),
            });
        }
        let loaded = self.loaded;
        let cycles = loaded
            .and_then(|c| {
                self.contexts[c.0]
                    .functions
                    .iter()
                    .find(|(n, _)| n == func)
                    .map(|&(_, cyc)| cyc)
            })
            .ok_or(FpgaError::FunctionNotLoaded {
                func: func.to_owned(),
                loaded,
            })?;
        self.calls += 1;
        self.busy_cycles += cycles;
        if self.instrument.enabled() {
            self.instrument.counter_add("fpga.calls", 1);
        }
        Ok(cycles)
    }

    /// Activity report.
    pub fn report(&self) -> FpgaReport {
        FpgaReport {
            fpga: self.name.clone(),
            reconfigurations: self.reconfigurations,
            download_words: self.download_words,
            failed_loads: self.failed_loads,
            calls: self.calls,
            busy_cycles: self.busy_cycles,
        }
    }
}

/// Reconfiguration activity summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FpgaReport {
    /// Device name.
    pub fpga: String,
    /// Context switches performed.
    pub reconfigurations: u64,
    /// Total bitstream words downloaded over the bus (including words of
    /// downloads that subsequently failed verification).
    pub download_words: u64,
    /// Downloads that failed (bus error, timeout, or CRC mismatch).
    pub failed_loads: u64,
    /// Function invocations served.
    pub calls: u64,
    /// Cycles spent computing.
    pub busy_cycles: u64,
}

/// Hardware cost table: cycles a module takes per invocation when
/// implemented in FPGA fabric vs. as a software [`crate::OpMix`] on the CPU. Used
/// by the exploration step to decide the mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImplCost {
    /// Cycles per invocation in hardware.
    pub hw_cycles: u64,
    /// Operation mix per invocation in software.
    pub sw_mix_total: u64,
}

impl ImplCost {
    /// Hardware speed-up factor over a CPU pricing the mix at ~1
    /// cycle/op (coarse screening metric for partitioning).
    pub fn speedup(&self) -> f64 {
        if self.hw_cycles == 0 {
            f64::INFINITY
        } else {
            self.sw_mix_total as f64 / self.hw_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlm::{Bus, BusConfig};

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    fn device() -> (Fpga, SharedBus, usize) {
        let bus = Bus::shared("amba", BusConfig::default());
        let master = {
            let mut b = bus.borrow_mut();
            b.map_region("fpga_cfg", 0x1000, 0x100, 0);
            b.add_master("cpu")
        };
        let mut fpga = Fpga::new("efpga", 0x1000, 8);
        fpga.add_context(Context {
            name: "config1".to_owned(),
            functions: vec![("distance".to_owned(), 16)],
            bitstream_words: 256,
        });
        fpga.add_context(Context {
            name: "config2".to_owned(),
            functions: vec![("root".to_owned(), 24)],
            bitstream_words: 128,
        });
        (fpga, bus, master)
    }

    #[test]
    fn context_lookup() {
        let (fpga, _, _) = device();
        assert_eq!(fpga.context_of("distance"), Some(ContextId(0)));
        assert_eq!(fpga.context_of("root"), Some(ContextId(1)));
        assert_eq!(fpga.context_of("ghost"), None);
    }

    #[test]
    fn loading_charges_the_bus() {
        let (mut fpga, bus, m) = device();
        let r = fpga
            .load(ContextId(0), t(0), &bus, m)
            .expect("load succeeds")
            .expect("first load is not a no-op");
        // 1 arbitration + 256 words + 8 switch cycles.
        assert_eq!(r.end, t(1 + 256 + 8));
        assert_eq!(fpga.loaded(), Some(ContextId(0)));
        let report = bus.borrow().report(r.end);
        assert_eq!(report.masters[m].words, 256);
    }

    #[test]
    fn reloading_same_context_is_free() {
        let (mut fpga, bus, m) = device();
        fpga.load(ContextId(1), t(0), &bus, m).expect("load");
        assert!(fpga
            .load(ContextId(1), t(500), &bus, m)
            .expect("reload")
            .is_none());
        assert_eq!(fpga.report().reconfigurations, 1);
        assert_eq!(fpga.report().download_words, 128);
    }

    #[test]
    fn calls_respect_residency() {
        let (mut fpga, bus, m) = device();
        // Nothing loaded yet.
        assert_eq!(
            fpga.call("distance"),
            Err(FpgaError::FunctionNotLoaded {
                func: "distance".to_owned(),
                loaded: None
            })
        );
        fpga.load(ContextId(0), t(0), &bus, m).expect("load");
        assert_eq!(fpga.call("distance"), Ok(16));
        // root lives in config2: calling it now is the SymbC-class error.
        assert_eq!(
            fpga.call("root"),
            Err(FpgaError::FunctionNotLoaded {
                func: "root".to_owned(),
                loaded: Some(ContextId(0))
            })
        );
        fpga.load(ContextId(1), t(100), &bus, m).expect("load");
        assert_eq!(fpga.call("root"), Ok(24));
        let report = fpga.report();
        assert_eq!(report.calls, 2);
        assert_eq!(report.busy_cycles, 40);
        assert_eq!(report.reconfigurations, 2);
    }

    #[test]
    fn unknown_function_is_distinguished() {
        let (mut fpga, _, _) = device();
        assert_eq!(
            fpga.call("fft"),
            Err(FpgaError::UnknownFunction {
                func: "fft".to_owned()
            })
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC-32 of the bytes 01 00 00 00 02 00 00 00 (words 1, 2 LE),
        // cross-checked against zlib.crc32.
        assert_eq!(crc32_words([1u32, 2u32].into_iter()), 0x0381_177C);
        // Flipping a single bit changes the checksum.
        assert_ne!(
            crc32_words([1u32 ^ 0x8000, 2u32].into_iter()),
            crc32_words([1u32, 2u32].into_iter())
        );
    }

    #[test]
    fn bitstream_checksums_are_pinned() {
        // Design-time CRCs of a few streams, and the CRC of config1's
        // stream as received under the corruption fault of plan seed 7.
        for (name, words, crc) in [
            ("config1", 256, 0x4F50_FFB9),
            ("config2", 128, 0x95A7_EC23),
            ("", 1, 0x7FFC_D26D),
            ("ctx", 4096, 0x6D4E_554A),
            ("z", 0, 0),
        ] {
            let context = Context {
                name: name.to_owned(),
                functions: Vec::new(),
                bitstream_words: words,
            };
            assert_eq!(context.bitstream().count(), words as usize);
            assert_eq!(context.crc(), crc, "{name}/{words}");
        }
        let (mut fpga, bus, m) = device();
        fpga.set_fault_plan(
            sim::FaultPlan::new(7)
                .with_bitstream_corruption(sim::faults::PPM)
                .shared(),
        );
        let fault = fpga
            .load(ContextId(0), t(0), &bus, m)
            .expect_err("corrupted");
        assert_eq!(
            fault.error,
            FpgaError::BitstreamCorrupted {
                context: "config1".to_owned(),
                expected_crc: 0x4F50_FFB9,
                got_crc: 0x1070_D5C6,
            }
        );
    }

    #[test]
    fn corrupted_download_fails_crc_and_unloads() {
        use sim::FaultPlan;
        let (mut fpga, bus, m) = device();
        fpga.load(ContextId(1), t(0), &bus, m).expect("clean load");
        let plan = FaultPlan::new(7)
            .with_bitstream_corruption(sim::faults::PPM)
            .shared();
        fpga.set_fault_plan(plan);
        let fault = fpga
            .load(ContextId(0), t(500), &bus, m)
            .expect_err("corrupted load must fail");
        assert!(
            matches!(fault.error, FpgaError::BitstreamCorrupted { ref context, expected_crc, got_crc }
                if context == "config1" && expected_crc != got_crc),
            "unexpected fault: {fault}"
        );
        // The recorded reference is the context's own design-time CRC.
        let FpgaError::BitstreamCorrupted { expected_crc, .. } = fault.error else {
            unreachable!("checked above");
        };
        assert_eq!(expected_crc, fpga.contexts()[0].crc());
        // Partially configured device trusts nothing: even the previously
        // loaded context is gone, so calls fail loudly instead of silently.
        assert_eq!(fpga.loaded(), None);
        assert!(matches!(
            fpga.call("root"),
            Err(FpgaError::FunctionNotLoaded { .. })
        ));
        assert_eq!(fpga.report().failed_loads, 1);
        assert_eq!(fpga.report().reconfigurations, 1);
    }

    #[test]
    fn load_timeout_charges_watchdog_window() {
        use sim::FaultPlan;
        let (mut fpga, bus, m) = device();
        fpga.set_fault_plan(
            FaultPlan::new(3)
                .with_load_timeouts(sim::faults::PPM)
                .shared(),
        );
        let fault = fpga
            .load(ContextId(0), t(0), &bus, m)
            .expect_err("timed-out load must fail");
        assert!(matches!(fault.error, FpgaError::LoadTimeout { .. }));
        // 1 arbitration + 256 words, then 4 watchdog windows of 8 cycles.
        assert_eq!(fault.busy_until, t(1 + 256 + 4 * 8));
        assert_eq!(fpga.loaded(), None);
    }

    #[test]
    fn zero_rate_plan_loads_normally() {
        use sim::FaultPlan;
        let (mut fpga, bus, m) = device();
        fpga.set_fault_plan(FaultPlan::new(99).shared());
        let r = fpga
            .load(ContextId(0), t(0), &bus, m)
            .expect("inert plan never fires")
            .expect("first load");
        assert_eq!(r.end, t(1 + 256 + 8));
        assert_eq!(fpga.report().failed_loads, 0);
    }

    #[test]
    fn collector_tracks_reconfigurations_and_failures() {
        use sim::FaultPlan;
        let collector = telemetry::Collector::shared();
        let (mut fpga, bus, m) = device();
        fpga.set_instrument(collector.clone());
        fpga.load(ContextId(0), t(0), &bus, m).expect("load 1");
        fpga.load(ContextId(1), t(500), &bus, m).expect("load 2");
        fpga.call("root").expect("resident");
        assert_eq!(collector.counter("fpga.reconfigurations"), 2);
        assert_eq!(collector.counter("fpga.download_words"), 256 + 128);
        assert_eq!(collector.counter("fpga.calls"), 1);
        // First load: 1 arbitration + 256 words + 8 switch cycles.
        assert_eq!(collector.histogram("fpga.reconfig_latency").min(), 137);
        assert_eq!(
            collector.gauge_series("fpga.context"),
            vec![(265, 1), (500 + 137, 2)]
        );
        let spans = collector.spans();
        assert_eq!(spans[0].track, "fpga");
        assert_eq!(spans[0].name, "load config1");

        // A corrupted download shows up as a failure and gauge drop.
        fpga.set_fault_plan(
            FaultPlan::new(7)
                .with_bitstream_corruption(sim::faults::PPM)
                .shared(),
        );
        fpga.load(ContextId(0), t(1000), &bus, m)
            .expect_err("corrupted");
        assert_eq!(collector.counter("fpga.failed_loads"), 1);
        assert_eq!(collector.gauge_series("fpga.context").last().unwrap().1, 0);
        assert!(collector
            .spans()
            .iter()
            .any(|s| s.name == "load config1 (failed)"));
    }

    #[test]
    fn impl_cost_speedup() {
        let c = ImplCost {
            hw_cycles: 10,
            sw_mix_total: 500,
        };
        assert!((c.speedup() - 50.0).abs() < 1e-9);
    }
}
