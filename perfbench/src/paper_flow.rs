//! `paper_flow`: the paper-scale face-recognition flow, one run after
//! another on one thread, each with a cold obligation cache.
//!
//! Levels 1–3 (`sim`, `tlm`, `platform`, `media` and the `behav` VM
//! kernels) take most of each run; SAT, BDD and `serve` are nearly idle,
//! so a kernel or bus change shows here and an engine change should not.

use crate::run::{self, median, ms, ratio, Report, Run};
use std::time::Instant;
use symbad_core::flow::{run_full_flow_cached, FlowReport};
use symbad_core::partition::ArchConfig;
use symbad_core::{cascade, level1, level2, level3, level4, Partition, Workload};
use telemetry::{Collector, SharedInstrument};

/// Probe frames per flow, over the 80-entry paper gallery.
const PROBES: usize = 20;
/// Flows in a trace sweep.
const TRACE_FLOWS: usize = 50;
const TINY_TRACE_FLOWS: usize = 2;
/// Flows per block of an end-to-end run (about half a second).
const FLOWS_PER_BLOCK: usize = 6;
const STREAM: u64 = 1;

/// The paper-scale workload with its probe identities, poses and sensor
/// noise seeds drawn from `seed`.
fn workload(seed: u64) -> Workload {
    let mut w = Workload::paper(PROBES);
    let config = *w.dataset.config();
    let mut rng = run::rng(seed, STREAM, 0);
    let mut entries: Vec<(usize, usize)> = (0..config.identities)
        .flat_map(|id| (0..config.poses).map(move |pose| (id, pose)))
        .collect();
    // Fisher–Yates: the first PROBES entries of a seeded permutation.
    for i in 0..PROBES {
        let j = rng.range_usize(i, entries.len() - 1);
        entries.swap(i, j);
    }
    w.probes = entries[..PROBES]
        .iter()
        .map(|&(id, pose)| (id, pose, rng.range(1, u64::from(u32::MAX))))
        .collect();
    w
}

fn flow(w: &Workload, instrument: &SharedInstrument) -> Result<FlowReport, String> {
    let obligations = cache::ObligationCache::new();
    run_full_flow_cached(w, instrument, exec::ExecMode::Sequential, &obligations)
        .map_err(|e| format!("simulation error: {e:?}"))
}

/// What every flow of a run must reproduce.
struct Expected {
    identities: Vec<usize>,
    json: String,
}

impl Expected {
    /// The reference identities come from `media::reference`, the JSON
    /// from the set-up's warm-up flow.
    fn new(w: &Workload, warm_up: &FlowReport) -> Result<Expected, String> {
        let expected = Expected {
            identities: w.reference_results().iter().map(|r| r.identity).collect(),
            json: warm_up.to_json(),
        };
        expected.check(warm_up)?;
        Ok(expected)
    }

    fn check(&self, report: &FlowReport) -> Result<(), String> {
        if !report.all_ok() {
            return Err(format!("a phase failed: {:?}", report.phases));
        }
        if report.recognized != self.identities {
            return Err(format!(
                "recognized {:?}, reference {:?}",
                report.recognized, self.identities
            ));
        }
        if report.to_json() != self.json {
            return Err("report JSON differs from the first run".into());
        }
        Ok(())
    }
}

/// The workload and the expectations every later flow is checked
/// against, from a first flow outside any timing.
fn reference(run: &Run, rep: &mut Report) -> Option<(Workload, Expected)> {
    let w = workload(run.seed);
    let expected = rep.attempt(1, "paper_flow reference flow", || {
        Expected::new(&w, &flow(&w, &telemetry::noop())?)
    })?;
    Some((w, expected))
}

pub fn measure(run: &Run, rep: &mut Report) {
    let Some((w, expected)) = reference(run, rep) else {
        return;
    };
    let noop = telemetry::noop();
    let blocks = run::blocks(
        run,
        rep,
        FLOWS_PER_BLOCK,
        |rep| {
            // Set-up: build the workload and run one warm-up flow.
            let ((w, warm_up), setup_s) = run::timed(|| {
                let w = workload(run.seed);
                let warm_up = flow(&w, &noop);
                (w, warm_up)
            });
            rep.attempt(1, "paper_flow set-up", || expected.check(&warm_up?))?;
            Some((w, setup_s))
        },
        |rep, w| {
            let flow_ms = rep.attempt(1, "paper_flow flow", || {
                let t0 = Instant::now();
                let report = flow(w, &noop)?;
                let elapsed = ms(t0.elapsed());
                expected.check(&report)?;
                Ok(elapsed)
            })?;
            Some((vec![flow_ms], flow_ms / 1e3))
        },
    );
    rep.end_to_end(&blocks);
    rep.size("flows_per_block", FLOWS_PER_BLOCK as u64);
    rep.size("probes_per_flow", PROBES as u64);
    rep.size("gallery_entries", w.gallery_len() as u64);
}

/// The flow's phases in flow order, each timed on its own through the
/// public entry point the flow calls.
const PHASES: [&str; 7] = [
    "core.level1_ms",
    "lp.liveness_ms",
    "core.level2_ms",
    "lp.fifo_ms",
    "core.level3_ms",
    "symbc.check_ms",
    "core.level4_ms",
];

/// Per-flow counts: the metric and the `telemetry::Collector` key
/// (`docs/METRICS.md`) it reads.
const COUNTS: [(&str, &str); 8] = [
    ("sim.polls", "sim.polls"),
    ("sim.time_steps", "sim.time_steps"),
    ("sim.timed_wakeups", "sim.timed_wakeups"),
    ("tlm.transactions", "bus.transactions"),
    ("tlm.words", "bus.words"),
    ("platform.fpga_calls", "fpga.calls"),
    ("platform.reconfigurations", "fpga.reconfigurations"),
    ("platform.download_words", "fpga.download_words"),
];

/// Runs every phase once; returns their wall times in [`PHASES`] order
/// and the simulated kHz of levels 2 and 3.
fn phases(w: &Workload) -> Result<([f64; 7], f64, f64), String> {
    let noop = telemetry::noop();
    let sim_err = |e| format!("simulation error: {e:?}");
    let (l1, l1_s) = run::timed(|| level1::run_instrumented(w, &noop));
    let (live, live_s) = run::timed(|| lp::check_liveness(&cascade::fig2_petri_net(1)));
    let (l2, l2_s) = run::timed(|| level2::run_instrumented(w, &noop));
    let (fifo, fifo_s) = run::timed(|| {
        level2::dimension_channels_mode(
            w,
            &Partition::paper_level2(),
            &ArchConfig::default(),
            exec::ExecMode::Sequential,
        )
    });
    let (l3, l3_s) = run::timed(|| level3::run_instrumented(w, &noop));
    let (consistent, symbc_s) = run::timed(|| {
        let (sw, map) = cascade::instrumented_sw(true);
        symbc::check(&sw, &map).is_consistent()
    });
    let (l4, l4_s) = run::timed(|| {
        level4::run_cached(
            exec::ExecMode::Sequential,
            &noop,
            &cache::ObligationCache::new(),
        )
    });
    let (l1, l2, l3) = (
        l1.map_err(sim_err)?,
        l2.map_err(sim_err)?,
        l3.map_err(sim_err)?,
    );
    let ok = l1.matches_reference
        && live.is_live()
        && l2.matches_reference
        && fifo.iter().all(|(_, b)| b.capacity >= 1)
        && l3.matches_reference
        && consistent
        && l4.kernels.iter().all(|(_, _, eq)| *eq)
        && l4.properties.iter().all(|(_, _, proven)| *proven);
    if !ok {
        return Err("a phase called on its own failed its check".into());
    }
    let phase_ms = [l1_s, live_s, l2_s, fifo_s, l3_s, symbc_s, l4_s].map(|s| s * 1e3);
    // Simulated ticks per host millisecond are simulated kHz.
    let khz = |ticks: u64, s: f64| ticks as f64 / (s * 1e3);
    Ok((
        phase_ms,
        khz(l2.total_ticks, l2_s),
        khz(l3.total_ticks, l3_s),
    ))
}

pub fn trace(run: &Run, rep: &mut Report) {
    let flows = if run.tiny {
        TINY_TRACE_FLOWS
    } else {
        TRACE_FLOWS
    };
    let Some((w, expected)) = reference(run, rep) else {
        return;
    };

    let mut workload_ms = Vec::new();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut glue_ms = Vec::new();
    let mut phase_ms: [Vec<f64>; 7] = Default::default();
    let mut khz: [Vec<f64>; 2] = Default::default();
    let mut counts = [0u64; COUNTS.len()];
    let mut wait_ticks = telemetry::Histogram::new();
    for _ in 0..flows {
        let (_, workload_s) = run::timed(|| workload(run.seed));
        workload_ms.push(workload_s * 1e3);
        rep.attempt(1, "paper_flow traced flow", || {
            let (plain, plain_s) = run::timed(|| flow(&w, &telemetry::noop()));
            expected.check(&plain?)?;

            let collector = Collector::shared();
            let instrument: SharedInstrument = collector.clone();
            let (traced, traced_s) = run::timed(|| flow(&w, &instrument));
            expected.check(&traced?)?;

            let (phases_ms, l2_khz, l3_khz) = phases(&w)?;
            plain_ms.push(plain_s * 1e3);
            traced_ms.push(traced_s * 1e3);
            glue_ms.push(plain_s * 1e3 - phases_ms.iter().sum::<f64>());
            for (samples, v) in phase_ms.iter_mut().zip(phases_ms) {
                samples.push(v);
            }
            khz[0].push(l2_khz);
            khz[1].push(l3_khz);
            for (total, (_, key)) in counts.iter_mut().zip(COUNTS) {
                *total += collector.counter(key);
            }
            wait_ticks.merge(&collector.histogram("bus.wait_ticks"));
            Ok(())
        });
    }

    let phase_p50 = phase_ms.each_ref().map(|v| median(v));
    for (name, p50) in PHASES.into_iter().zip(phase_p50) {
        rep.metric(name, "ms", p50);
    }
    rep.metric("core.flow_glue_ms", "ms", median(&glue_ms));
    rep.metric("core.level2_sim_khz", "kHz", median(&khz[0]));
    rep.metric("core.level3_sim_khz", "kHz", median(&khz[1]));
    let per_flow = counts.map(|total| total as f64 / flows as f64);
    for ((name, _), n) in COUNTS.into_iter().zip(per_flow) {
        rep.metric(name, "count", n);
    }
    // Rates over the phases that do the work: polls in levels 1–3, bus
    // transactions in levels 2–3 (indices into PHASES and COUNTS).
    let [l1, _, l2, _, l3, _, _] = phase_p50;
    rep.metric(
        "sim.polls_per_s",
        "1/s",
        ratio(per_flow[0], (l1 + l2 + l3) / 1e3),
    );
    rep.metric(
        "tlm.transactions_per_s",
        "1/s",
        ratio(per_flow[3], (l2 + l3) / 1e3),
    );
    rep.metric(
        "tlm.wait_ticks_p95",
        "ticks",
        wait_ticks.percentile(95) as f64,
    );
    rep.metric("media.workload_ms", "ms", median(&workload_ms));
    rep.metric(
        "telemetry.trace_overhead_pct",
        "%",
        100.0 * (ratio(median(&traced_ms), median(&plain_ms)) - 1.0),
    );
    rep.size("trace_flows", flows as u64);
}
