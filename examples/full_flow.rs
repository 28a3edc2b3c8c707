//! The whole methodology in one call: [`symbad_core::flow::run_full_flow`]
//! executes levels 1–4 with every verification phase, prints the
//! aggregated evidence, and exports the flow's telemetry. Every artifact
//! lands under `target/flow/` (the repo root stays clean):
//!
//! * `report_output.txt` / `report_output.json` — the structured
//!   [`symbad_core::flow::FlowReport`], as text and JSON,
//! * `flow_trace.json` — Chrome-trace spans (open in `chrome://tracing`
//!   or <https://ui.perfetto.dev>),
//! * `flow_signals.vcd` — gauge time-series as a VCD waveform,
//! * `journal.jsonl` — the flight-recorder event journal (deterministic
//!   lane first, then the timing lane), one JSON object per line,
//! * `profile.txt` / `profile.json` — the [`telemetry::FlowProfile`]
//!   aggregation of the journal: costliest obligations, per-engine cache
//!   hit ratios, budget utilisation, obligations/sec, latency percentiles,
//! * `prometheus.txt` — the collector counters/gauges/histograms in
//!   Prometheus text exposition format 0.0.4.
//!
//! The example also exercises the obligation cache end to end: the
//! instrumented primary run is cold (fresh cache, so the engine counters
//! reflect real solver work), a warm rerun on the populated cache must
//! reproduce the report bit for bit, and the cache is persisted to
//! `target/symbad-cache/` for the next invocation. Timing measurements
//! live in the standalone benchmark under `perfbench/`.
//!
//! ```text
//! cargo run --release --example full_flow
//! ```

use std::fs;
use std::path::Path;
use std::time::Instant;
use symbad_core::flow::{run_full_flow_cached, run_full_flow_supervised};
use symbad_core::supervise::SupervisionPolicy;
use symbad_core::workload::Workload;
use telemetry::{
    chrome_trace, journal, prom, vcd_dump, Collector, FlowProfile, Journal, SharedInstrument,
    TimingKind,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::small();
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    let out_dir = Path::new("target/flow");
    fs::create_dir_all(out_dir)?;

    // Obligation cache lifecycle. A previous invocation may have persisted
    // proved obligations under target/symbad-cache/ — report how many we
    // would inherit — but run the instrumented primary flow against a
    // FRESH cache: a warm cache replays verdicts without touching the
    // solvers, which would zero the engine counters exported below.
    let cache_dir = Path::new("target/symbad-cache");
    let entries_loaded = cache::ObligationCache::load_or_empty(cache_dir).len();
    let obligations = cache::ObligationCache::new();

    let report = run_full_flow_cached(&workload, &instr, exec::ExecMode::Sequential, &obligations)?;
    let cold = obligations.stats();

    // Warm rerun on the now-populated cache: every verification obligation
    // is replayed from its cached verdict, and the report — verdicts,
    // counterexamples, coverage, JSON rendering — must be bit-identical.
    let warm_report = run_full_flow_cached(
        &workload,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        &obligations,
    )?;
    assert_eq!(
        warm_report.to_json(),
        report.to_json(),
        "warm (cached) flow report must be bit-identical to the cold one"
    );
    let total = obligations.stats();
    obligations.save(cache_dir)?;
    println!(
        "cache: {entries_loaded} entries loaded from disk; cold run {} hits / {} misses; \
         warm rerun {} hits / {} misses; {} entries saved",
        cold.hits,
        cold.misses,
        total.hits - cold.hits,
        total.misses - cold.misses,
        obligations.len(),
    );

    // Flight recorder: rerun the flow supervised and journaled (a fresh
    // cache again, so every obligation does real engine work and the
    // attributed effort is non-trivial). The journal records every phase,
    // the FPGA reconfiguration summary, and the full obligation lifecycle
    // — started / cache probe / budget spend / finished with provenance —
    // on the deterministic lane, and wall times, queue depths, and worker
    // attribution on the timing lane.
    let journal = Journal::with_wall_clock();
    let fr_start = Instant::now();
    let supervised = run_full_flow_supervised(
        &workload,
        &instr,
        exec::ExecMode::Sequential,
        &cache::ObligationCache::new(),
        &SupervisionPolicy::default(),
        Some(&journal),
    )?;
    journal.emit_timing(TimingKind::RunWall {
        label: "flow.supervised".to_owned(),
        wall_us: u64::try_from(fr_start.elapsed().as_micros()).unwrap_or(u64::MAX),
    });
    assert!(supervised.all_ok(), "supervised flight-recorder run failed");

    // Every journal line must satisfy the checked-in schema, and the
    // Prometheus exposition must parse back with a non-trivial series set.
    let jsonl = journal.to_jsonl();
    for line in jsonl.lines() {
        journal::validate_line(line)
            .unwrap_or_else(|e| panic!("journal line failed schema validation: {e}\n  {line}"));
    }
    let (det_events, timing_events) = journal.len();
    assert_eq!(journal.dropped(), (0, 0), "journal must not drop events");
    let prom_text = prom::prometheus_text(&collector);
    let samples = prom::parse_exposition(&prom_text)
        .unwrap_or_else(|e| panic!("prometheus exposition failed to parse: {e}"));
    assert!(
        samples.len() > 16,
        "prometheus exposition unexpectedly sparse: {} series",
        samples.len()
    );
    for key in ["sat_solve_calls", "bmc_sat_calls", "bus_transactions"] {
        let series = format!("symbad_{key}");
        assert!(
            prom::sample_value(&samples, &series).map(|v| v > 0.0) == Some(true),
            "expected nonzero series {series} in the exposition"
        );
    }
    let profile = FlowProfile::from_journal(&journal);
    println!(
        "journal: {det_events} deterministic + {timing_events} timing events; \
         {} obligations profiled",
        profile.obligations.len(),
    );

    let text = report.to_text();
    print!("{text}");
    println!(
        "\nrecognized identities: {:?} (expected {:?})",
        report.recognized,
        workload
            .probes
            .iter()
            .map(|&(id, _, _)| id)
            .collect::<Vec<_>>()
    );
    println!("flow healthy: {}", report.all_ok());

    fs::write(out_dir.join("report_output.txt"), &text)?;
    fs::write(out_dir.join("report_output.json"), report.to_json())?;
    fs::write(out_dir.join("flow_trace.json"), chrome_trace(&collector))?;
    fs::write(out_dir.join("flow_signals.vcd"), vcd_dump(&collector))?;
    fs::write(out_dir.join("journal.jsonl"), &jsonl)?;
    fs::write(out_dir.join("profile.txt"), profile.report().to_text())?;
    fs::write(out_dir.join("profile.json"), profile.report().to_json())?;
    fs::write(out_dir.join("prometheus.txt"), &prom_text)?;
    println!(
        "wrote target/flow/{{report_output.txt,report_output.json,flow_trace.json,\
         flow_signals.vcd,journal.jsonl,profile.txt,profile.json,prometheus.txt}}"
    );

    assert!(report.all_ok());
    Ok(())
}
