//! The shared timed transaction-level model behind levels 2 and 3.
//!
//! Three masters contend for the AMBA-class bus, mirroring the case-study
//! architecture:
//!
//! * **HW front-end** — the hardwired pixel pipeline (CAMERA, BAY,
//!   EROSION); writes the processed frame to CPU memory over the bus.
//! * **CPU task** — the paper's "single large SW task" executing every
//!   SW-mapped module in cyclostatic order, with simulated time advancing
//!   by the automatic annotation (operation mix × CPU cycle table). At
//!   level 3 the CPU also initiates FPGA reconfigurations, following a
//!   [`ReconfigStrategy`].
//! * **Matcher** — DISTANCE/CALCDIST/ROOT as hardwired logic (level 2) or
//!   FPGA contexts (level 3). It fetches gallery signatures from the flash
//!   DATABASE over the bus and serves requests from the CPU.
//!
//! The *functional* results are computed by the very same `media` kernels
//! as level 1 and the reference model, so the cross-level trace comparison
//! is meaningful; only the timing annotations differ between levels.

use crate::msg::Msg;
use crate::partition::{ArchConfig, Domain, Partition};
use crate::workload::Workload;
use media::kernels::CompiledKernel;
use media::pipeline::{
    bay, calcdist, calcline, crtbord, crtline, edge, ellipse, erosion, root, winner, FeatureVector,
};
use media::profile::module_mix;
use platform::{Context, ContextId, Fpga, FpgaError, FpgaReport, SharedFpga};
use sim::faults::{FaultLog, FaultPlan, SharedFaultPlan};
use sim::{Activation, FifoId, Outcome, Process, ProcessCtx, SimError, SimTime, Simulator, Trace};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;
use tlm::{AccessKind, Bus, BusError, BusReport, Payload, Reservation, SharedBus};

/// When the SW issues reconfiguration calls (experiment E10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigStrategy {
    /// Load the needed context once per *batch* of calls (loop-invariant
    /// hoisting — the paper's manually optimized instrumentation).
    Hoisted,
    /// Load the needed context before *every* resource call (the naive
    /// instrumentation the paper warns about).
    Naive,
}

/// The matcher implementation chosen by the level.
#[derive(Debug, Clone)]
pub enum MatcherKind {
    /// Hardwired DISTANCE/CALCDIST/ROOT (level 2).
    Hardwired,
    /// FPGA-resident kernels with the given context assignment
    /// (module → context index) and reconfiguration strategy (level 3).
    Fpga {
        /// Reconfiguration placement strategy.
        strategy: ReconfigStrategy,
        /// When set, the ROOT function's results are computed by
        /// *simulating the synthesized RTL netlist* instead of the native
        /// kernel — TL/RTL co-simulation. Functionally identical (the
        /// netlist is proven equivalent), dramatically more host work per
        /// call: the cost the paper calls "still too expensive".
        rtl_cosim: bool,
    },
}

/// How the level-3 driver reacts to platform faults (failed bitstream
/// downloads, bus error responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retry attempts per operation before giving up (0 = fail fast).
    pub max_retries: u32,
    /// Ticks to back off after a failed attempt before retrying.
    pub backoff_ticks: u64,
    /// When a context download permanently fails, fall back to executing
    /// its functions in software (slower, functionally identical) instead
    /// of aborting the run.
    pub degrade_to_sw: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_ticks: 256,
            degrade_to_sw: true,
        }
    }
}

impl RecoveryPolicy {
    /// No retries, no degradation: every injected fault surfaces as a
    /// typed [`RunError::Platform`] — never a silent wrong answer.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            backoff_ticks: 0,
            degrade_to_sw: false,
        }
    }
}

/// A platform-level fault that recovery could not (or was not allowed to)
/// absorb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformFault {
    /// The reconfigurable device failed (download CRC, timeout, residency).
    Fpga(FpgaError),
    /// A data transfer failed on the bus.
    Bus(BusError),
}

impl fmt::Display for PlatformFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformFault::Fpga(e) => write!(f, "FPGA fault: {e}"),
            PlatformFault::Bus(e) => write!(f, "bus fault: {e}"),
        }
    }
}

impl std::error::Error for PlatformFault {}

/// Why a timed run failed: either the simulation kernel itself, or an
/// unrecovered platform fault (the latter only with fault injection on).
#[derive(Debug)]
pub enum RunError {
    /// Kernel error (deadlock, poll-limit, …).
    Sim(SimError),
    /// Unrecovered platform fault.
    Platform(PlatformFault),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation error: {e}"),
            RunError::Platform(e) => write!(f, "unrecovered platform fault: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// What fault injection did to a run, and what recovery did about it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults the plan injected, by kind.
    pub injected: FaultLog,
    /// Retry attempts issued (bus transfers and context downloads).
    pub retries: u64,
    /// Operations that succeeded after at least one retry.
    pub recovered: u64,
    /// Functions degraded to their software fallback, in sorted order.
    pub degraded: Vec<String>,
}

/// Recovery bookkeeping shared by the processes of one run.
#[derive(Debug, Default)]
struct RecoveryState {
    retries: u64,
    recovered: u64,
    degraded: BTreeSet<String>,
    failure: Option<PlatformFault>,
}

type SharedRecovery = Rc<RefCell<RecoveryState>>;

/// Records the first unrecovered fault and retires the process; the
/// driver surfaces the fault in preference to the deadlock that follows.
fn fail(state: &SharedRecovery, fault: PlatformFault) -> Activation {
    let mut s = state.borrow_mut();
    if s.failure.is_none() {
        s.failure = Some(fault);
    }
    Activation::Done
}

/// Issues `payload` at `start`, retrying transient slave errors under
/// `policy` (each failed attempt still occupies the bus; retries start at
/// the failed burst's end plus the backoff). Permanent decode/master
/// errors are never retried.
fn transfer_with_recovery(
    bus: &SharedBus,
    policy: &RecoveryPolicy,
    state: &SharedRecovery,
    start: SimTime,
    payload: &Payload,
) -> Result<Reservation, PlatformFault> {
    let mut at = start;
    let mut attempts = 0u32;
    loop {
        match bus.borrow_mut().transfer(at, payload) {
            Ok(r) => {
                if attempts > 0 {
                    state.borrow_mut().recovered += 1;
                }
                return Ok(r);
            }
            Err(BusError::Slave { at: end, .. }) if attempts < policy.max_retries => {
                attempts += 1;
                state.borrow_mut().retries += 1;
                at = end.saturating_add_ticks(policy.backoff_ticks);
            }
            Err(e) => return Err(PlatformFault::Bus(e)),
        }
    }
}

/// Everything a timed run reports.
#[derive(Debug, Clone)]
pub struct TimedReport {
    /// Recognized identity per probe.
    pub recognized: Vec<usize>,
    /// Whether the functional trace matches the reference model's.
    pub matches_reference: bool,
    /// First divergence if any.
    pub mismatch: Option<String>,
    /// Kernel outcome and statistics.
    pub outcome: Outcome,
    /// Total simulated ticks.
    pub total_ticks: u64,
    /// Ticks per processed frame (end-to-end throughput).
    pub ticks_per_frame: f64,
    /// Bus contention report.
    pub bus: BusReport,
    /// FPGA activity (level 3 only).
    pub fpga: Option<FpgaReport>,
    /// Fault-injection summary (only when a fault plan was installed).
    pub faults: Option<FaultReport>,
    /// The observation trace.
    pub trace: Trace<Msg>,
}

/// Bus address map used by the timed models.
pub mod addr {
    /// CPU main memory.
    pub const RAM_BASE: u64 = 0x0000_0000;
    /// CPU memory size (bytes of address space).
    pub const RAM_SIZE: u64 = 0x0010_0000;
    /// Flash region holding the face DATABASE.
    pub const FLASH_BASE: u64 = 0x0010_0000;
    /// Flash size.
    pub const FLASH_SIZE: u64 = 0x0010_0000;
    /// Matcher (HW block or FPGA data port).
    pub const MATCH_BASE: u64 = 0x0020_0000;
    /// Matcher region size.
    pub const MATCH_SIZE: u64 = 0x0001_0000;
    /// FPGA configuration port (bitstream downloads).
    pub const FPGA_CFG_BASE: u64 = 0x0021_0000;
    /// FPGA configuration region size.
    pub const FPGA_CFG_SIZE: u64 = 0x0001_0000;
}

/// The hardwired front-end: per probe, charges CAMERA/BAY/EROSION time,
/// then DMA-writes the processed frame into CPU memory.
struct HwFront {
    frames: VecDeque<(media::image::GrayImage, u64)>, // (processed, charge)
    out: FifoId,
    bus: SharedBus,
    master: usize,
    policy: RecoveryPolicy,
    recovery: SharedRecovery,
    /// Phase: 0 = charge compute, 1 = bus write, 2 = hand over.
    phase: u8,
    staged: Option<media::image::GrayImage>,
}

impl Process<Msg> for HwFront {
    fn poll(&mut self, ctx: &mut ProcessCtx<'_, Msg>) -> Activation {
        match self.phase {
            0 => match self.frames.pop_front() {
                None => Activation::Done,
                Some((img, charge)) => {
                    self.staged = Some(img);
                    self.phase = 1;
                    Activation::WaitTime(SimTime::from_ticks(charge))
                }
            },
            1 => {
                let img = self.staged.as_ref().expect("staged");
                let words = (img.data.len() as u32).div_ceil(4);
                let r = match transfer_with_recovery(
                    &self.bus,
                    &self.policy,
                    &self.recovery,
                    ctx.now(),
                    &Payload::burst(self.master, addr::RAM_BASE, AccessKind::Write, words),
                ) {
                    Ok(r) => r,
                    Err(f) => return fail(&self.recovery, f),
                };
                self.phase = 2;
                Activation::WaitTime(r.delay_from(ctx.now()))
            }
            _ => {
                let img = self.staged.take().expect("staged");
                match ctx.try_write(self.out, Msg::Frame(crate::level1::gray_as_frame(img))) {
                    Ok(()) => {
                        self.phase = 0;
                        Activation::Continue
                    }
                    Err(Msg::Frame(f)) => {
                        self.staged = Some(crate::level1::frame_as_gray(f));
                        Activation::WaitFifoWritable(self.out)
                    }
                    Err(_) => unreachable!("we wrote a frame"),
                }
            }
        }
    }
    fn name(&self) -> &str {
        "hw_front"
    }
}

/// The matcher: hardwired block or FPGA. Serves jobs from the CPU.
struct Matcher {
    inp: FifoId,
    out: FifoId,
    bus: SharedBus,
    master: usize,
    gallery: Rc<Vec<(usize, usize, FeatureVector)>>,
    /// Cycles per gallery entry for the distance+calcdist pass.
    distance_cycles: u64,
    /// Cycles per root evaluation.
    root_cycles: u64,
    /// Software-fallback cycles per gallery entry (graceful degradation).
    distance_sw_cycles: u64,
    /// Software-fallback cycles per root evaluation.
    root_sw_cycles: u64,
    fpga: Option<SharedFpga>,
    policy: RecoveryPolicy,
    recovery: SharedRecovery,
    /// RTL netlist co-simulated for ROOT calls (level 3 co-simulation).
    root_rtl: Option<hdl::Rtl>,
    /// DISTANCE step kernel compiled once per run (bytecode-VM fast path).
    distance_kernel: CompiledKernel,
    /// ROOT kernel compiled once per run, used when no RTL is co-simulated.
    root_kernel: CompiledKernel,
    /// In-flight work: the remaining per-entry distance jobs.
    current: Option<(FeatureVector, usize)>,
    pending: VecDeque<Msg>,
}

impl Matcher {
    /// Cycles to charge for `func`: hardwired cycles (level 2), the
    /// FPGA's residency-checked cost (level 3), or the software fallback
    /// when the function was degraded after a permanent download failure.
    /// A residency violation — the SymbC-class error — surfaces as a
    /// typed [`PlatformFault::Fpga`], never a silent wrong answer.
    fn compute_cycles(&self, func: &str) -> Result<u64, PlatformFault> {
        let (hw, sw) = match func {
            "distance" => (self.distance_cycles, self.distance_sw_cycles),
            _ => (self.root_cycles, self.root_sw_cycles),
        };
        match &self.fpga {
            None => Ok(hw),
            Some(f) => {
                if self.recovery.borrow().degraded.contains(func) {
                    return Ok(sw);
                }
                f.borrow_mut().call(func).map_err(PlatformFault::Fpga)
            }
        }
    }

    fn transfer(&self, start: SimTime, payload: &Payload) -> Result<Reservation, PlatformFault> {
        transfer_with_recovery(&self.bus, &self.policy, &self.recovery, start, payload)
    }
}

impl Process<Msg> for Matcher {
    fn poll(&mut self, ctx: &mut ProcessCtx<'_, Msg>) -> Activation {
        // Drain pending responses (bus-written back to CPU memory).
        while let Some(tok) = self.pending.pop_front() {
            if let Err(tok) = ctx.try_write(self.out, tok) {
                self.pending.push_front(tok);
                return Activation::WaitFifoWritable(self.out);
            }
        }
        // Continue an in-flight distance batch: one gallery entry per poll.
        if let Some((features, next_entry)) = self.current.take() {
            let entry = next_entry;
            let (_, _, g) = &self.gallery[entry];
            // Fetch the signature from flash over the bus.
            let words = (g.len() as u32).div_ceil(2);
            let fetch = match self.transfer(
                ctx.now(),
                &Payload::burst(self.master, addr::FLASH_BASE, AccessKind::Read, words),
            ) {
                Ok(r) => r,
                Err(f) => return fail(&self.recovery, f),
            };
            // Per-element squares through the compiled kernel, one run per
            // element in one lane-parallel call — exact for u16 features
            // (|x − y|² < 2³²), so sums match `distance`.
            let rows: Vec<[u64; 3]> = features
                .iter()
                .zip(g)
                .map(|(&x, &y)| [x as u64, y as u64, 0])
                .collect();
            let sq = self.distance_kernel.run_rows(&rows);
            let sum = calcdist(&sq);
            // Residency check + cycles (FPGA, SW fallback, or hardwired).
            let compute = match self.compute_cycles("distance") {
                Ok(c) => c,
                Err(f) => return fail(&self.recovery, f),
            };
            // Write the 2-word response into CPU memory.
            let resp = match self.transfer(
                fetch.end.saturating_add_ticks(compute),
                &Payload::burst(self.master, addr::RAM_BASE, AccessKind::Write, 2),
            ) {
                Ok(r) => r,
                Err(f) => return fail(&self.recovery, f),
            };
            self.pending.push_back(Msg::SumSq(entry, sum));
            if entry + 1 < self.gallery.len() {
                self.current = Some((features, entry + 1));
            }
            return Activation::WaitTime(resp.end - ctx.now());
        }
        match ctx.try_read(self.inp) {
            None => Activation::WaitFifoReadable(self.inp),
            Some(Msg::Features(f)) => {
                self.current = Some((f, 0));
                Activation::Continue
            }
            Some(Msg::SumSq(i, s)) => {
                let compute = match self.compute_cycles("root") {
                    Ok(c) => c,
                    Err(f) => return fail(&self.recovery, f),
                };
                let r = match &self.root_rtl {
                    // Co-simulation: evaluate the synthesized netlist. The
                    // 32-bit kernel roots the sum in two halves to cover
                    // 64-bit sums exactly when they fit in 32 bits (the
                    // feature arithmetic guarantees this: 128 × 255² ≪ 2³²).
                    Some(rtl) => {
                        debug_assert!(s < (1u64 << 32), "sum exceeds kernel width");
                        rtl.eval_combinational(&[s])[0] as u32
                    }
                    None => {
                        if s < (1u64 << 32) {
                            self.root_kernel.run(&[s]) as u32
                        } else {
                            root(s)
                        }
                    }
                };
                let resp = match self.transfer(
                    ctx.now().saturating_add_ticks(compute),
                    &Payload::write(self.master, addr::RAM_BASE),
                ) {
                    Ok(res) => res,
                    Err(f) => return fail(&self.recovery, f),
                };
                self.pending.push_back(Msg::Dist(i, r));
                Activation::WaitTime(resp.end - ctx.now())
            }
            Some(other) => panic!("matcher got unexpected {other:?}"),
        }
    }
    fn name(&self) -> &str {
        "matcher"
    }
}

/// Phases of the CPU task's cyclostatic schedule (one cycle per probe).
enum CpuPhase {
    AwaitFrame,
    ChargeFrontSw {
        /// Remaining ticks already scheduled (we enter the next phase).
        features: FeatureVector,
        trace: Vec<(&'static str, Msg)>,
    },
    LoadContext {
        context: ContextId,
        then: Box<CpuPhase>,
    },
    SendFeatures {
        features: FeatureVector,
    },
    CollectSums {
        sums: Vec<(usize, u64)>,
    },
    SendSum {
        sums: Vec<(usize, u64)>, // remaining to send
        sent: usize,
        dists: Vec<(usize, u32)>,
    },
    CollectDists {
        outstanding: usize,
        dists: Vec<(usize, u32)>,
    },
    ChargeWinner {
        dists: Vec<(usize, u32)>,
    },
}

/// The collapsed SW task.
struct CpuTask {
    inp_frames: FifoId,
    to_matcher: FifoId,
    from_matcher: FifoId,
    bus: SharedBus,
    master: usize,
    fpga: Option<SharedFpga>,
    policy: RecoveryPolicy,
    recovery: SharedRecovery,
    strategy: ReconfigStrategy,
    distance_ctx: ContextId,
    root_ctx: ContextId,
    front_sw_cycles: u64,
    winner_cycles: u64,
    gallery_len: usize,
    phase: CpuPhase,
    frames_left: usize,
}

impl CpuTask {
    /// Issues a context load; returns ticks to wait (0 if already loaded).
    ///
    /// Failed downloads are retried under the recovery policy (each
    /// attempt consumes real bus time; retries start at the failed
    /// attempt's `busy_until` plus the backoff). When retries exhaust:
    /// with `degrade_to_sw` the context's functions are marked degraded —
    /// the matcher computes them in software from then on and the load is
    /// never attempted again — otherwise the fault is returned and the
    /// run aborts with a typed error.
    fn reconfigure(&self, ctx_id: ContextId, now: SimTime) -> Result<u64, PlatformFault> {
        let fpga = self.fpga.as_ref().expect("reconfigure only at level 3");
        let all_degraded = {
            let st = self.recovery.borrow();
            let fb = fpga.borrow();
            let funcs = &fb.contexts()[ctx_id.0].functions;
            !funcs.is_empty() && funcs.iter().all(|(n, _)| st.degraded.contains(n))
        };
        if all_degraded {
            return Ok(0);
        }
        let mut at = now;
        let mut attempts = 0u32;
        loop {
            let attempt = fpga.borrow_mut().load(ctx_id, at, &self.bus, self.master);
            match attempt {
                Ok(Some(r)) => {
                    if attempts > 0 {
                        self.recovery.borrow_mut().recovered += 1;
                    }
                    return Ok(r.end.ticks_since(now));
                }
                Ok(None) => return Ok(0),
                Err(fault) if attempts < self.policy.max_retries => {
                    attempts += 1;
                    self.recovery.borrow_mut().retries += 1;
                    at = fault
                        .busy_until
                        .saturating_add_ticks(self.policy.backoff_ticks);
                }
                Err(fault) => {
                    if self.policy.degrade_to_sw {
                        let fb = fpga.borrow();
                        let mut st = self.recovery.borrow_mut();
                        for (name, _) in &fb.contexts()[ctx_id.0].functions {
                            st.degraded.insert(name.clone());
                        }
                        // The failed attempts consumed real bus time.
                        return Ok(fault.busy_until.ticks_since(now));
                    }
                    return Err(PlatformFault::Fpga(fault.error));
                }
            }
        }
    }
}

impl Process<Msg> for CpuTask {
    fn poll(&mut self, ctx: &mut ProcessCtx<'_, Msg>) -> Activation {
        match std::mem::replace(&mut self.phase, CpuPhase::AwaitFrame) {
            CpuPhase::AwaitFrame => {
                if self.frames_left == 0 {
                    return Activation::Done;
                }
                match ctx.try_read(self.inp_frames) {
                    None => Activation::WaitFifoReadable(self.inp_frames),
                    Some(Msg::Frame(f)) => {
                        let instr = ctx.instrument();
                        if instr.enabled() {
                            instr.span_begin("cpu", "frame", ctx.now().ticks());
                        }
                        let gray = crate::level1::frame_as_gray(f);
                        // Execute the SW front half natively (edge …
                        // calcline), recording the same checkpoints as the
                        // other levels. Time is charged next.
                        let edges = edge(&gray);
                        let fit = ellipse(&edges);
                        let region = crtbord(gray.width, gray.height, &fit);
                        let raw = crtline(&gray, &region);
                        let features = calcline(&raw);
                        let trace = vec![
                            ("edge", Msg::Scalar(edges.count_ones() as u64)),
                            (
                                "ellipse",
                                Msg::Scalar(crate::level1::pack_ellipse(
                                    fit.cx, fit.cy, fit.a, fit.b,
                                )),
                            ),
                            ("calcline", Msg::Features(features.clone())),
                        ];
                        self.phase = CpuPhase::ChargeFrontSw { features, trace };
                        Activation::WaitTime(SimTime::from_ticks(self.front_sw_cycles))
                    }
                    Some(other) => panic!("cpu expected frame, got {other:?}"),
                }
            }
            CpuPhase::ChargeFrontSw { features, trace } => {
                for (src, obs) in trace {
                    ctx.trace(src, obs);
                }
                if self.fpga.is_some() {
                    // Level 3: make sure config1 (distance) is loaded. Both
                    // strategies load here; they differ in the root phase.
                    self.phase = CpuPhase::LoadContext {
                        context: self.distance_ctx,
                        then: Box::new(CpuPhase::SendFeatures { features }),
                    };
                } else {
                    self.phase = CpuPhase::SendFeatures { features };
                }
                Activation::Continue
            }
            CpuPhase::LoadContext { context, then } => {
                let wait = match self.reconfigure(context, ctx.now()) {
                    Ok(w) => w,
                    Err(f) => return fail(&self.recovery, f),
                };
                self.phase = *then;
                if wait > 0 {
                    Activation::WaitTime(SimTime::from_ticks(wait))
                } else {
                    Activation::Continue
                }
            }
            CpuPhase::SendFeatures { features } => {
                // Bus-write the signature to the matcher.
                let words = (features.len() as u32).div_ceil(2);
                let r = match transfer_with_recovery(
                    &self.bus,
                    &self.policy,
                    &self.recovery,
                    ctx.now(),
                    &Payload::burst(self.master, addr::MATCH_BASE, AccessKind::Write, words),
                ) {
                    Ok(r) => r,
                    Err(f) => return fail(&self.recovery, f),
                };
                match ctx.try_write(self.to_matcher, Msg::Features(features)) {
                    Ok(()) => {
                        self.phase = CpuPhase::CollectSums { sums: Vec::new() };
                        Activation::WaitTime(r.delay_from(ctx.now()))
                    }
                    Err(Msg::Features(f)) => {
                        self.phase = CpuPhase::SendFeatures { features: f };
                        Activation::WaitFifoWritable(self.to_matcher)
                    }
                    Err(_) => unreachable!(),
                }
            }
            CpuPhase::CollectSums { mut sums } => match ctx.try_read(self.from_matcher) {
                None => {
                    self.phase = CpuPhase::CollectSums { sums };
                    Activation::WaitFifoReadable(self.from_matcher)
                }
                Some(Msg::SumSq(i, s)) => {
                    sums.push((i, s));
                    if sums.len() == self.gallery_len {
                        if self.fpga.is_some() {
                            self.phase = CpuPhase::LoadContext {
                                context: self.root_ctx,
                                then: Box::new(CpuPhase::SendSum {
                                    sums,
                                    sent: 0,
                                    dists: Vec::new(),
                                }),
                            };
                        } else {
                            self.phase = CpuPhase::SendSum {
                                sums,
                                sent: 0,
                                dists: Vec::new(),
                            };
                        }
                    } else {
                        self.phase = CpuPhase::CollectSums { sums };
                    }
                    Activation::Continue
                }
                Some(other) => panic!("cpu expected sum, got {other:?}"),
            },
            CpuPhase::SendSum { sums, sent, dists } => {
                if sent == sums.len() {
                    self.phase = CpuPhase::CollectDists {
                        outstanding: sums.len() - dists.len(),
                        dists,
                    };
                    return Activation::Continue;
                }
                // Naive strategy: reconfigure before *every* call. The
                // matcher context ping-pong comes from re-loading the
                // distance context after each root at the *next* frame; for
                // the naive ablation we alternate eagerly.
                if self.fpga.is_some() && self.strategy == ReconfigStrategy::Naive {
                    let wait = match self.reconfigure(self.root_ctx, ctx.now()) {
                        Ok(w) => w,
                        Err(f) => return fail(&self.recovery, f),
                    };
                    if wait > 0 {
                        self.phase = CpuPhase::SendSum { sums, sent, dists };
                        return Activation::WaitTime(SimTime::from_ticks(wait));
                    }
                }
                let (i, s) = sums[sent];
                let r = match transfer_with_recovery(
                    &self.bus,
                    &self.policy,
                    &self.recovery,
                    ctx.now(),
                    &Payload::burst(self.master, addr::MATCH_BASE, AccessKind::Write, 2),
                ) {
                    Ok(r) => r,
                    Err(f) => return fail(&self.recovery, f),
                };
                match ctx.try_write(self.to_matcher, Msg::SumSq(i, s)) {
                    Ok(()) => {
                        // In the naive ablation the FPGA is immediately
                        // flipped back to the distance context, simulating
                        // unhoisted per-call instrumentation.
                        let extra = if self.fpga.is_some()
                            && self.strategy == ReconfigStrategy::Naive
                            && sent + 1 < sums.len()
                        {
                            let flip = self
                                .reconfigure(self.distance_ctx, r.end)
                                .and_then(|_| self.reconfigure(self.root_ctx, r.end));
                            match flip {
                                Ok(back) => back,
                                Err(f) => return fail(&self.recovery, f),
                            }
                        } else {
                            0
                        };
                        self.phase = CpuPhase::SendSum {
                            sums,
                            sent: sent + 1,
                            dists,
                        };
                        Activation::WaitTime(r.delay_from(ctx.now()).saturating_add_ticks(extra))
                    }
                    Err(_) => {
                        self.phase = CpuPhase::SendSum { sums, sent, dists };
                        Activation::WaitFifoWritable(self.to_matcher)
                    }
                }
            }
            CpuPhase::CollectDists {
                outstanding,
                mut dists,
            } => match ctx.try_read(self.from_matcher) {
                None => {
                    self.phase = CpuPhase::CollectDists { outstanding, dists };
                    Activation::WaitFifoReadable(self.from_matcher)
                }
                Some(Msg::Dist(i, d)) => {
                    dists.push((i, d));
                    if dists.len() == self.gallery_len {
                        self.phase = CpuPhase::ChargeWinner { dists };
                        Activation::WaitTime(SimTime::from_ticks(self.winner_cycles))
                    } else {
                        self.phase = CpuPhase::CollectDists {
                            outstanding: outstanding - 1,
                            dists,
                        };
                        Activation::Continue
                    }
                }
                Some(other) => panic!("cpu expected dist, got {other:?}"),
            },
            CpuPhase::ChargeWinner { mut dists } => {
                dists.sort_by_key(|&(i, _)| i);
                for &(i, d) in &dists {
                    ctx.trace("root", Msg::Dist(i, d));
                }
                let values: Vec<u32> = dists.iter().map(|&(_, d)| d).collect();
                let best = winner(&values);
                ctx.trace("winner", Msg::Winner(best));
                let instr = ctx.instrument();
                if instr.enabled() {
                    instr.span_end("cpu", ctx.now().ticks());
                }
                self.frames_left -= 1;
                self.phase = CpuPhase::AwaitFrame;
                Activation::Continue
            }
        }
    }
    fn name(&self) -> &str {
        "cpu_task"
    }
}

/// What one timed run simulates: the workload on a partitioned
/// architecture, with the level's matcher and an optional fault campaign
/// under a recovery policy. [`TimedSetup::level2`] and
/// [`TimedSetup::level3`] are the paper's mappings; any other run changes
/// their fields, for example
/// `TimedSetup { faults: Some(plan), ..TimedSetup::level3(&workload) }`.
#[derive(Debug, Clone)]
pub struct TimedSetup<'a> {
    /// The design under simulation.
    pub workload: &'a Workload,
    /// Where each Figure-2 module executes.
    pub partition: Partition,
    /// The platform constants: CPU, bus, HW and FPGA timing.
    pub arch: ArchConfig,
    /// Hardwired matcher (level 2) or FPGA contexts (level 3).
    pub matcher_kind: MatcherKind,
    /// The fault campaign installed into the bus and the FPGA, if any.
    pub faults: Option<FaultPlan>,
    /// How the run reacts to injected faults.
    pub recovery: RecoveryPolicy,
}

impl<'a> TimedSetup<'a> {
    /// The paper's level-2 mapping: [`Partition::paper_level2`] on the
    /// default platform, with a hardwired matcher and no faults.
    pub fn level2(workload: &'a Workload) -> Self {
        TimedSetup {
            workload,
            partition: Partition::paper_level2(),
            arch: ArchConfig::default(),
            matcher_kind: MatcherKind::Hardwired,
            faults: None,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The paper's level-3 mapping: [`Partition::paper_level3`]'s context
    /// split (`config1` = DISTANCE, `config2` = ROOT) on the default
    /// platform, with hoisted reconfiguration, native kernels and no
    /// faults.
    pub fn level3(workload: &'a Workload) -> Self {
        TimedSetup {
            partition: Partition::paper_level3(),
            matcher_kind: MatcherKind::Fpga {
                strategy: ReconfigStrategy::Hoisted,
                rtl_cosim: false,
            },
            ..TimedSetup::level2(workload)
        }
    }
}

/// Builds and runs the timed model `setup` describes, and compares its
/// trace with the workload's [`crate::level1::reference_trace`].
///
/// `instrument` is installed into the kernel, the bus, and (at level 3)
/// the FPGA; the CPU task opens a `cpu`-track span per frame. Telemetry
/// never perturbs scheduling, timing, or functional results.
///
/// With a fault plan this is the level-3 robustness run: the plan is
/// installed into both the bus and the FPGA, the processes retry and
/// degrade per `setup.recovery`, the report carries a [`FaultReport`],
/// and the summary is flushed as `faults.*` / `recovery.*` counters.
///
/// ```
/// use symbad_core::timed::{self, TimedSetup};
///
/// let workload = symbad_core::Workload::small();
/// let report = timed::run(TimedSetup::level3(&workload), &telemetry::noop())
///     .expect("level-3 simulation");
/// assert!(report.matches_reference);
/// // Level 3 instantiates the FPGA: kernels now live in contexts, so the
/// // run must have reconfigured and downloaded bitstreams over the bus.
/// let fpga = report.fpga.expect("level 3 reports FPGA activity");
/// assert!(fpga.reconfigurations > 0);
/// assert!(fpga.download_words > 0);
/// ```
///
/// # Errors
///
/// [`RunError::Sim`] on kernel errors; [`RunError::Platform`] when an
/// injected fault exhausts the recovery policy (always a typed error —
/// injected faults never produce silently wrong results).
///
/// # Panics
///
/// Panics if the partition maps front-end pixel modules to the FPGA (the
/// case study only maps the match kernels there).
pub fn run(
    setup: TimedSetup<'_>,
    instrument: &telemetry::SharedInstrument,
) -> Result<TimedReport, RunError> {
    let expected = crate::level1::reference_trace(&setup.workload.reference_results());
    run_against(setup, &expected, instrument)
}

/// The kernel error of a run without a fault plan. Without a plan nothing
/// injects platform faults, and decode/master errors are construction
/// bugs [`run_against`] rules out.
pub(crate) fn fault_free(e: RunError) -> SimError {
    match e {
        RunError::Sim(e) => e,
        RunError::Platform(f) => unreachable!("platform fault without a fault plan: {f}"),
    }
}

/// The timed body behind levels 2 and 3: [`run`] with `expected`, the
/// workload's [`crate::level1::reference_trace`], built by the caller.
/// The flow builds that trace once and hands it to every level.
///
/// # Errors
///
/// Same as [`run`].
#[allow(clippy::too_many_lines)]
pub(crate) fn run_against(
    setup: TimedSetup<'_>,
    expected: &Trace<Msg>,
    instrument: &telemetry::SharedInstrument,
) -> Result<TimedReport, RunError> {
    let TimedSetup {
        workload,
        partition,
        arch,
        matcher_kind,
        faults,
        recovery,
    } = setup;
    let config = *workload.dataset.config();
    let gallery_len = workload.gallery_len();

    // Per-module cycle charges.
    let charge = |module: &str| -> u64 {
        let mix = module_mix(module, &config, gallery_len);
        match partition.domain(module) {
            Domain::Sw => arch.cpu.cycles(mix),
            Domain::Hw => arch.hw_cycles(mix.total()),
            Domain::Fpga(_) => arch.fpga_cycles(mix.total()),
        }
    };
    // The matcher charges are *per gallery entry*.
    let distance_entry_cycles =
        (charge("distance") + charge("calcdist")).div_ceil(gallery_len as u64);
    let root_entry_cycles = charge("root").div_ceil(gallery_len as u64);

    // Software-fallback matcher costs (per gallery entry), used when a
    // context download permanently fails and the run degrades gracefully.
    let sw_charge =
        |module: &str| -> u64 { arch.cpu.cycles(module_mix(module, &config, gallery_len)) };
    let distance_sw_entry_cycles =
        (sw_charge("distance") + sw_charge("calcdist")).div_ceil(gallery_len as u64);
    let root_sw_entry_cycles = sw_charge("root").div_ceil(gallery_len as u64);

    let plan: Option<SharedFaultPlan> = faults.map(FaultPlan::shared);
    let recovery_state: SharedRecovery = Rc::new(RefCell::new(RecoveryState::default()));

    let mut sim: Simulator<Msg> = Simulator::new();
    sim.set_poll_limit(500_000_000);
    sim.set_instrument(instrument.clone());
    let bus = Bus::shared("amba", arch.bus);
    bus.borrow_mut().set_instrument(instrument.clone());
    if let Some(p) = &plan {
        bus.borrow_mut().set_fault_plan(p.clone());
    }
    {
        let mut b = bus.borrow_mut();
        b.map_region("ram", addr::RAM_BASE, addr::RAM_SIZE, 0);
        b.map_region("flash", addr::FLASH_BASE, addr::FLASH_SIZE, 4);
        b.map_region("match", addr::MATCH_BASE, addr::MATCH_SIZE, 0);
        b.map_region("fpga_cfg", addr::FPGA_CFG_BASE, addr::FPGA_CFG_SIZE, 0);
    }
    let m_front = bus.borrow_mut().add_master("hw_front");
    let m_cpu = bus.borrow_mut().add_master("cpu");
    let m_match = bus.borrow_mut().add_master("matcher");

    // FPGA (level 3 only).
    let fpga: Option<SharedFpga> = match matcher_kind {
        MatcherKind::Hardwired => None,
        MatcherKind::Fpga { .. } => {
            let f = Fpga::shared("efpga", addr::FPGA_CFG_BASE, arch.fpga_switch_cycles);
            f.borrow_mut().set_instrument(instrument.clone());
            if let Some(p) = &plan {
                f.borrow_mut().set_fault_plan(p.clone());
            }
            let num_ctx = partition.num_contexts().max(1);
            let mut per_ctx: Vec<Vec<(String, u64)>> = vec![Vec::new(); num_ctx];
            for (module, c) in partition.fpga_modules() {
                let mix = module_mix(module, &config, gallery_len);
                let per_call = match module {
                    "distance" | "calcdist" | "root" => {
                        arch.fpga_cycles(mix.total()).div_ceil(gallery_len as u64)
                    }
                    other => panic!("module `{other}` cannot be FPGA-mapped in this model"),
                };
                per_ctx[c].push((module.to_owned(), per_call));
            }
            // Merge distance+calcdist into the single "distance" resource.
            {
                let mut fb = f.borrow_mut();
                for (ci, funcs) in per_ctx.into_iter().enumerate() {
                    let mut merged: Vec<(String, u64)> = Vec::new();
                    let mut dist_cycles = 0u64;
                    for (name, cyc) in funcs {
                        if name == "distance" || name == "calcdist" {
                            dist_cycles += cyc;
                        } else {
                            merged.push((name, cyc));
                        }
                    }
                    if dist_cycles > 0 {
                        merged.push(("distance".to_owned(), dist_cycles));
                    }
                    let words = arch.bitstream_words_per_function * merged.len().max(1) as u32;
                    fb.add_context(Context {
                        name: format!("config{}", ci + 1),
                        functions: merged,
                        bitstream_words: words,
                    });
                }
            }
            Some(f)
        }
    };
    let (strategy, rtl_cosim) = match matcher_kind {
        MatcherKind::Hardwired => (ReconfigStrategy::Hoisted, false),
        MatcherKind::Fpga {
            strategy,
            rtl_cosim,
        } => (strategy, rtl_cosim),
    };
    let root_rtl = if rtl_cosim {
        let unrolled = behav::unroll::unroll(
            &media::kernels::root_function(),
            media::kernels::ROOT_ITERATIONS,
        );
        Some(hdl::synth::synthesize(&unrolled).expect("root kernel synthesizes"))
    } else {
        None
    };
    let distance_ctx = fpga
        .as_ref()
        .and_then(|f| f.borrow().context_of("distance"))
        .unwrap_or(ContextId(0));
    let root_ctx = fpga
        .as_ref()
        .and_then(|f| f.borrow().context_of("root"))
        .unwrap_or(ContextId(0));

    // Channels.
    let ch_frames = sim.add_fifo("front→cpu", 2);
    let ch_req = sim.add_fifo("cpu→matcher", 2);
    let ch_resp = sim.add_fifo("matcher→cpu", gallery_len.max(2));

    // HW front-end: the eroded frames it hands over, with their charges,
    // and the bay/erosion checksums, all from one pass per probe. The
    // checkpoints are traced in-simulation, by a thin wrapper process
    // reading the handover FIFO.
    let front_charge: u64 = ["camera", "bay", "erosion"].iter().map(|m| charge(m)).sum();
    let checksum = |g: &media::image::GrayImage| -> u64 { g.data.iter().map(|&p| p as u64).sum() };
    let mut frames: VecDeque<(media::image::GrayImage, u64)> = VecDeque::new();
    let mut bay_sums: VecDeque<(u64, u64)> = VecDeque::new();
    for &(id, pose, seed) in &workload.probes {
        let gray = bay(&workload.dataset.frame(id, pose, seed));
        let eroded = erosion(&gray);
        bay_sums.push_back((checksum(&gray), checksum(&eroded)));
        frames.push_back((eroded, front_charge));
    }
    let ch_traced = sim.add_fifo("front_traced", 2);
    sim.add_process(HwFront {
        frames,
        out: ch_frames,
        bus: bus.clone(),
        master: m_front,
        policy: recovery,
        recovery: recovery_state.clone(),
        phase: 0,
        staged: None,
    });
    sim.add_process(FrontTracer {
        inp: ch_frames,
        out: ch_traced,
        checksums: bay_sums,
        staged: None,
    });

    sim.add_process(CpuTask {
        inp_frames: ch_traced,
        to_matcher: ch_req,
        from_matcher: ch_resp,
        bus: bus.clone(),
        master: m_cpu,
        fpga: fpga.clone(),
        policy: recovery,
        recovery: recovery_state.clone(),
        strategy,
        distance_ctx,
        root_ctx,
        front_sw_cycles: ["edge", "ellipse", "crtbord", "crtline", "calcline"]
            .iter()
            .map(|m| charge(m))
            .sum(),
        winner_cycles: charge("winner"),
        gallery_len,
        phase: CpuPhase::AwaitFrame,
        frames_left: workload.probes.len(),
    });

    sim.add_process(Matcher {
        inp: ch_req,
        out: ch_resp,
        bus: bus.clone(),
        master: m_match,
        gallery: Rc::new(workload.gallery.entries.clone()),
        distance_cycles: distance_entry_cycles,
        root_cycles: root_entry_cycles,
        distance_sw_cycles: distance_sw_entry_cycles,
        root_sw_cycles: root_sw_entry_cycles,
        fpga: fpga.clone(),
        policy: recovery,
        recovery: recovery_state.clone(),
        root_rtl,
        distance_kernel: CompiledKernel::distance_step(),
        root_kernel: CompiledKernel::root(),
        current: None,
        pending: VecDeque::new(),
    });

    let sim_result = sim.run(SimTime::MAX);
    // An unrecovered platform fault retires its process and usually
    // starves the others into a deadlock; report the root cause, not the
    // symptom.
    if let Some(fault) = recovery_state.borrow_mut().failure.take() {
        return Err(RunError::Platform(fault));
    }
    let outcome = sim_result?;
    let trace = sim.take_trace();
    let total_ticks = outcome.stats.final_time.ticks();

    let cmp = trace.matches_untimed(expected);
    let recognized: Vec<usize> = trace
        .items_for("winner")
        .into_iter()
        .map(|m| match m {
            Msg::Winner(entry) => workload.gallery.entries[*entry].0,
            other => panic!("winner trace holds {other:?}"),
        })
        .collect();

    let bus_report = bus.borrow().report(outcome.stats.final_time);
    let fpga_report = fpga.map(|f| f.borrow().report());
    let fault_report = plan.map(|p| {
        let st = recovery_state.borrow();
        FaultReport {
            injected: *p.borrow().log(),
            retries: st.retries,
            recovered: st.recovered,
            degraded: st.degraded.iter().cloned().collect(),
        }
    });
    if instrument.enabled() {
        instrument.counter_add("run.frames", workload.probes.len() as u64);
        if let Some(fr) = &fault_report {
            instrument.counter_add(
                "faults.bitstream_corruptions",
                fr.injected.bitstream_corruptions,
            );
            instrument.counter_add("faults.bus_errors", fr.injected.bus_errors);
            instrument.counter_add("faults.load_timeouts", fr.injected.load_timeouts);
            instrument.counter_add("faults.slave_stalls", fr.injected.slave_stalls);
            instrument.counter_add("recovery.retries", fr.retries);
            instrument.counter_add("recovery.recovered", fr.recovered);
            instrument.counter_add("recovery.degraded_functions", fr.degraded.len() as u64);
        }
    }
    Ok(TimedReport {
        recognized,
        matches_reference: cmp.is_ok(),
        mismatch: cmp.err().map(|e| e.to_string()),
        outcome,
        total_ticks,
        ticks_per_frame: if workload.probes.is_empty() {
            0.0
        } else {
            total_ticks as f64 / workload.probes.len() as f64
        },
        bus: bus_report,
        fpga: fpga_report,
        faults: fault_report,
        trace,
    })
}

/// Emits the bay/erosion checkpoints as frames pass the handover FIFO.
struct FrontTracer {
    inp: FifoId,
    out: FifoId,
    checksums: VecDeque<(u64, u64)>,
    staged: Option<Msg>,
}

impl Process<Msg> for FrontTracer {
    fn poll(&mut self, ctx: &mut ProcessCtx<'_, Msg>) -> Activation {
        if let Some(tok) = self.staged.take() {
            if let Err(tok) = ctx.try_write(self.out, tok) {
                self.staged = Some(tok);
                return Activation::WaitFifoWritable(self.out);
            }
            return Activation::Continue;
        }
        match ctx.try_read(self.inp) {
            None => Activation::WaitFifoReadable(self.inp),
            Some(tok) => {
                let (bay_sum, ero_sum) = self
                    .checksums
                    .pop_front()
                    .expect("one checksum pair per frame");
                ctx.trace("bay", Msg::Scalar(bay_sum));
                ctx.trace("erosion", Msg::Scalar(ero_sum));
                self.staged = Some(tok);
                Activation::Continue
            }
        }
    }
    fn name(&self) -> &str {
        "front_tracer"
    }
}
