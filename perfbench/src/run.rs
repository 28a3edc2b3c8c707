//! What every workload shares: the run settings, op accounting under
//! `catch_unwind`, the block structure of an end-to-end run, and the
//! statistics.

use fuzz::rng::FuzzRng;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Blocks after which `peak_rss_mb` is read: a fixed amount of work, so
/// the reading does not depend on how many ops the run fits in.
const RSS_BLOCKS: usize = 4;

/// Worker threads every op runs on. The reference host has `nproc` = 2,
/// but service jobs at two workers measured slower and noisier than at
/// one (job p50 77 ms against 68 ms, spread 19% against 5%).
pub const WORKERS: usize = 1;

/// Settings of one child run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed every generated input is derived from.
    pub seed: u64,
    /// Wall-clock length of an end-to-end run's measured blocks.
    pub seconds: u64,
    /// Shrinks the fixed-size trace sweep to a smoke-test size.
    pub tiny: bool,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a child run reports: op accounting, metrics, and the sizes of
/// the work it did.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub sizes: Vec<(&'static str, u64)>,
}

impl Report {
    /// Runs one op of `weight` units under `catch_unwind`. A panic or an
    /// `Err` (a failed correctness check) counts every unit as failed.
    pub fn attempt<R>(
        &mut self,
        weight: u64,
        what: &str,
        op: impl FnOnce() -> Result<R, String>,
    ) -> Option<R> {
        self.attempted += weight;
        let outcome = match panic::catch_unwind(AssertUnwindSafe(op)) {
            Ok(outcome) => outcome,
            Err(payload) => Err(format!("panicked: {}", exec::panic_message(payload))),
        };
        outcome
            .map_err(|msg| {
                self.failed += weight;
                eprintln!("bench: {what} failed: {msg}");
            })
            .ok()
    }

    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn size(&mut self, name: &'static str, value: u64) {
        self.sizes.push((name, value));
    }

    /// The end-to-end metrics every workload reports: set-up time, op
    /// latency median and p90 and throughput, taken over the quietest
    /// quarter of the run's blocks, and peak memory after the first
    /// [`RSS_BLOCKS`] blocks.
    ///
    /// The host shares its cores: for seconds at a time, sometimes for
    /// most of a run, every op runs about half again slower. Contention
    /// only ever slows work down, so the blocks are ranked by their median
    /// op latency and the fastest quarter is kept; set-up time is measured
    /// in the same blocks.
    pub fn end_to_end(&mut self, blocks: &[Block]) {
        if blocks.is_empty() {
            return; // every op failed; the failures are already counted
        }
        let mut ranked: Vec<(f64, &Block)> = blocks.iter().map(|b| (median(&b.op_ms), b)).collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let kept: Vec<&Block> = ranked[..blocks.len().div_ceil(4)]
            .iter()
            .map(|(_, b)| *b)
            .collect();
        let setup_s: Vec<f64> = kept.iter().map(|b| b.setup_s).collect();
        let op_ms: Vec<f64> = kept.iter().flat_map(|b| b.op_ms.clone()).collect();
        let busy_s: f64 = kept.iter().map(|b| b.busy_s).sum();

        self.metric("setup_s", "s", median(&setup_s));
        self.metric("op_ms_p50", "ms", quantile(&op_ms, 0.50));
        self.metric("op_ms_p90", "ms", quantile(&op_ms, 0.90));
        self.metric("ops_per_s", "1/s", ratio(op_ms.len() as f64, busy_s));
        let rss_block = &blocks[blocks.len().min(RSS_BLOCKS) - 1];
        self.metric("peak_rss_mb", "MB", rss_block.peak_rss_mb);
        self.size("blocks", blocks.len() as u64);
        self.size("blocks_kept", kept.len() as u64);
        let ops: usize = blocks.iter().map(|b| b.op_ms.len()).sum();
        self.size("ops", ops as u64);
        self.size("ops_kept", op_ms.len() as u64);
    }
}

/// One block of an end-to-end run: a fresh set-up, then a fixed number
/// of timed units on it.
#[derive(Debug, Default)]
pub struct Block {
    setup_s: f64,
    /// Latencies of the ops the units completed.
    op_ms: Vec<f64>,
    /// Wall time the units kept the system busy.
    busy_s: f64,
    /// Peak resident set size of the process when the block ended.
    peak_rss_mb: f64,
}

/// Runs blocks for `run.seconds` (at least one). Each block times
/// `setup`, which also checks what it built, then runs `units` calls of
/// `unit`, which returns the latencies of the ops it completed and the
/// seconds it was busy, or `None` when its op failed.
pub fn blocks<S>(
    run: &Run,
    rep: &mut Report,
    units: usize,
    mut setup: impl FnMut(&mut Report) -> Option<(S, f64)>,
    mut unit: impl FnMut(&mut Report, &S) -> Option<(Vec<f64>, f64)>,
) -> Vec<Block> {
    let deadline = Instant::now() + Duration::from_secs(run.seconds);
    let mut blocks = Vec::new();
    loop {
        let mut block = Block::default();
        if let Some((made, setup_s)) = setup(rep) {
            block.setup_s = setup_s;
            for _ in 0..units {
                if let Some((op_ms, busy_s)) = unit(rep, &made) {
                    block.op_ms.extend(op_ms);
                    block.busy_s += busy_s;
                }
            }
        }
        if !block.op_ms.is_empty() {
            block.peak_rss_mb = peak_rss_mb();
            blocks.push(block);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    blocks
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Linear-interpolated quantile (`q` in 0..=1); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kib * 1024.0 / 1e6
}

/// The generator stream for input `index` of `stream` under `seed`: each
/// key part is folded in through the SplitMix64 finalizer, so streams
/// and indices never share draws.
pub fn rng(seed: u64, stream: u64, index: u64) -> FuzzRng {
    let key = [stream, index]
        .into_iter()
        .fold(FuzzRng::new(seed).next_u64(), |key, part| {
            FuzzRng::new(key ^ part).next_u64()
        });
    FuzzRng::new(key)
}
