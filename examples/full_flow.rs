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
//!   hit ratios, budget utilisation, latency percentiles,
//! * `prometheus.txt` — the collector counters/gauges/histograms in
//!   Prometheus text exposition format 0.0.4,
//! * `BENCH_flow.json` — the benchmark summary (kernel cycle counts, bus
//!   utilisation, reconfiguration latency, obligation-cache hit rates,
//!   obligations/sec and latency percentiles) consumed by CI.
//!
//! The example also exercises the obligation cache end to end: the
//! instrumented primary run is cold (fresh cache, so the engine counters
//! reflect real solver work), a warm rerun on the populated cache must
//! reproduce the report bit for bit, and the cache is persisted to
//! `target/symbad-cache/` for the next invocation.
//!
//! ```text
//! cargo run --release --example full_flow
//! ```

use atpg::metrics::bit_coverage_with;
use atpg::Testbench;
use behav::bytecode::{compile, BehavExec, Vm};
use behav::interp::{enumerate_bit_faults, Interpreter};
use media::kernels::root_function;
use std::fs;
use std::path::Path;
use std::time::Instant;
use symbad_core::cascade;
use symbad_core::flow::{run_full_flow_cached, run_full_flow_supervised, FlowReport};
use symbad_core::supervise::SupervisionPolicy;
use symbad_core::workload::Workload;
use telemetry::{
    chrome_trace, journal, prom, vcd_dump, Collector, FlowProfile, Journal, Json, SharedInstrument,
    TimingKind,
};

/// Sequential-vs-parallel wall times of the verification work. Wall time
/// is host-dependent (CI machine, core count); the verdict bit-identity
/// asserted in `main` is not. `None` when the host runs with a single
/// worker — a "parallel" run would be the sequential one relabelled, so
/// the bench reports the mode instead of a vacuous speedup of 1.0.
struct ExecCompare {
    flow_seq_ms: f64,
    flow_par_ms: f64,
    cascade_seq_ms: f64,
    cascade_par_ms: f64,
}

/// Obligation-cache behaviour across the cold primary run and the warm
/// rerun, plus the incremental-solving counters that show one solver
/// served every BMC depth (`bmc_solver_constructions` ≪ `bmc_sat_calls`).
struct CacheBench {
    entries_loaded: usize,
    entries_saved: usize,
    cold_hits: u64,
    cold_misses: u64,
    inserts: u64,
    warm_hits: u64,
    warm_misses: u64,
    warm_hit_rate: f64,
}

/// Cooperative-SAT behaviour (DESIGN.md §16): lemma-pool contents after
/// the cold flow, pool traffic on a warm-pool rerun (cold verdicts, warm
/// lemmas, via `retain_lemmas`), and a deterministic conflict-rich
/// microbench — a planted 3-XOR chain, solved cold with a collector
/// share and again seeded from the pool — pinning the conflict
/// reduction the pool buys. The flow's own miters discharge in
/// near-zero conflicts, so the microbench is where the reduction is
/// measurable.
struct SatBench {
    pool_entries: u64,
    pool_clauses: u64,
    flow_pool_hits: u64,
    flow_pool_imports: u64,
    flow_pool_rejects: u64,
    cube_splits: u64,
    micro_cold_conflicts: u64,
    micro_seeded_conflicts: u64,
    micro_pool_hits: u64,
    micro_imports: u64,
    micro_conflict_reduction: f64,
}

/// Deterministic planted 3-XOR chain over `n` variables: each equation
/// `a ^ b ^ c = 1` rules out its four even-parity assignments, giving a
/// satisfiable instance the CDCL loop still has to fight for.
fn xor_chain_cnf(n: usize) -> sat::Cnf {
    let lit = |v: usize, pos: bool| sat::Lit::with_polarity(sat::Var::from_index(v), pos);
    let mut clauses = Vec::new();
    for i in 0..n {
        let (a, b, c) = (i, (i * 7 + 3) % n, (i * 13 + 5) % n);
        if a == b || b == c || a == c {
            continue;
        }
        for mask in 0..8u32 {
            if (mask.count_ones() % 2) == 1 {
                continue;
            }
            clauses.push(vec![
                lit(a, mask & 1 == 0),
                lit(b, mask & 2 == 0),
                lit(c, mask & 4 == 0),
            ]);
        }
    }
    sat::Cnf {
        num_vars: n,
        clauses,
    }
}

/// Measures the [`SatBench`] microbench half: cold solve exporting into
/// a fresh lemma pool, then a pool-seeded re-solve of the byte-identical
/// CNF. Verdicts must match (sharing changes effort, never answers) and
/// the seeded solve must fight fewer conflicts.
fn bench_sat_pool() -> (u64, u64, u64, u64, f64) {
    let cnf = xor_chain_cnf(48);
    let mut cold = sat::Solver::new();
    cnf.load_into(&mut cold);
    cold.set_share(sat::SolverShare::collector(
        sat::ShareFilter::permissive(16),
        cache::pool::MAX_CLAUSES_PER_ENTRY,
    ));
    let cold_verdict = cold.solve();
    let exports = cold
        .take_share()
        .expect("collector share is attached")
        .into_pool_exports();
    assert!(
        !exports.is_empty(),
        "the microbench CNF must produce learnt-clause exports"
    );

    let pool = cache::LemmaPool::new();
    let fp = cache::Fingerprint(0x5a7b_ad00_1337_c0de_5a7b_ad00_1337_c0de);
    pool.insert(fp, &exports);

    let mut seeded = sat::Solver::new();
    cnf.load_into(&mut seeded);
    let mut imports = 0u64;
    for clause in pool.lookup(fp) {
        if seeded.import_clause(&clause) == sat::ImportResult::Added {
            imports += 1;
        }
    }
    let seeded_verdict = seeded.solve();
    assert_eq!(
        seeded_verdict, cold_verdict,
        "a pool-seeded solve must reach the cold verdict"
    );
    assert!(
        seeded.conflicts() < cold.conflicts(),
        "the warm pool must reduce conflicts ({} cold vs {} seeded)",
        cold.conflicts(),
        seeded.conflicts()
    );
    let reduction = 1.0 - seeded.conflicts() as f64 / cold.conflicts().max(1) as f64;
    (
        cold.conflicts(),
        seeded.conflicts(),
        pool.stats().hits,
        imports,
        reduction,
    )
}

/// Interpreter-vs-VM throughput on the ATPG bit-fault sweep of the ROOT
/// kernel (the hottest behavioural workload in the flow), plus the wall
/// time of the level-2 frame loop that now runs its kernels on the VM.
struct BehavBench {
    faults: usize,
    vectors: usize,
    interp_runs_per_sec: f64,
    vm_runs_per_sec: f64,
    speedup: f64,
    l2_wall_ms: f64,
}

/// Measures [`BehavBench`]. Correctness first (both engines must produce
/// the identical coverage verdict and identical per-run signatures), then
/// the full `faults × vectors` sweep without early exit so both engines do
/// exactly the same number of runs — mirroring the code paths
/// [`bit_coverage_with`] actually takes per engine.
fn bench_behav(workload: &Workload) -> Result<BehavBench, Box<dyn std::error::Error>> {
    let func = root_function();
    let tb = Testbench {
        vectors: (0..48u64)
            .map(|i| vec![i.wrapping_mul(2_654_435_761) & 0xFFFF_FFFF])
            .collect(),
    };
    let interp_cov = bit_coverage_with(&func, &tb, BehavExec::Interp);
    let vm_cov = bit_coverage_with(&func, &tb, BehavExec::Vm);
    assert_eq!(
        interp_cov, vm_cov,
        "engines disagree on the bit-coverage sweep"
    );

    let faults = enumerate_bit_faults(&func);
    let runs = (faults.len() + 1) * tb.len();
    let sweep = std::iter::once(None).chain(faults.iter().copied().map(Some));

    // A fault stuck on the loop condition can make the kernel diverge, so
    // both engines run under the same tight step budget and fold a runaway
    // into the sink rather than panicking. A healthy root run takes ~109
    // steps, so the cap never fires on one.
    const STEP_LIMIT: u64 = 1_000;

    let t = Instant::now();
    let mut interp_sink = 0u64;
    for fault in sweep.clone() {
        for v in &tb.vectors {
            let mut interp = Interpreter::new(&func).with_step_limit(STEP_LIMIT);
            if let Some(f) = fault {
                interp = interp.with_fault(f);
            }
            interp_sink ^= match interp.run(v) {
                Ok(out) => out.return_value.unwrap_or(0),
                Err(_) => u64::MAX,
            };
        }
    }
    let interp_s = t.elapsed().as_secs_f64().max(1e-9);

    let mut vm = Vm::new(compile(&func)).with_step_limit(STEP_LIMIT);
    let t = Instant::now();
    let mut vm_sink = 0u64;
    for fault in sweep {
        vm.set_fault(fault);
        for v in &tb.vectors {
            vm_sink ^= match vm.run_signature(v) {
                Ok((ret, _)) => ret.unwrap_or(0),
                Err(_) => u64::MAX,
            };
        }
    }
    let vm_s = t.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(interp_sink, vm_sink, "engines disagree on sweep outputs");

    let t = Instant::now();
    let l2 = symbad_core::level2::run(workload)?;
    let l2_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(l2);

    Ok(BehavBench {
        faults: faults.len(),
        vectors: tb.len(),
        interp_runs_per_sec: runs as f64 / interp_s,
        vm_runs_per_sec: runs as f64 / vm_s,
        speedup: interp_s / vm_s,
        l2_wall_ms,
    })
}

/// Builds the `BENCH_flow.json` payload. Everything except `host.wall_ms`,
/// the `exec` wall times, and the `observability` throughput/latency
/// figures is deterministic (simulated cycles, counters, histogram
/// summaries), so regressions in the deterministic sections are
/// attributable to model changes alone.
#[allow(clippy::too_many_arguments)] // one section struct per argument
fn bench_json(
    report: &FlowReport,
    collector: &Collector,
    wall_ms: f64,
    workers: usize,
    compare: &Option<ExecCompare>,
    cache_bench: &CacheBench,
    profile: &FlowProfile,
    behav_bench: &BehavBench,
    sat_bench: &SatBench,
) -> String {
    let latency = collector.histogram("fpga.reconfig_latency").summary();
    let cache_section = Json::obj(vec![
        (
            "entries_loaded",
            Json::UInt(cache_bench.entries_loaded as u64),
        ),
        (
            "entries_saved",
            Json::UInt(cache_bench.entries_saved as u64),
        ),
        ("cold_hits", Json::UInt(cache_bench.cold_hits)),
        ("cold_misses", Json::UInt(cache_bench.cold_misses)),
        ("inserts", Json::UInt(cache_bench.inserts)),
        ("warm_hits", Json::UInt(cache_bench.warm_hits)),
        ("warm_misses", Json::UInt(cache_bench.warm_misses)),
        ("warm_hit_rate", Json::Num(cache_bench.warm_hit_rate)),
        (
            "bmc_solver_constructions",
            Json::UInt(collector.counter("bmc.solver_constructions")),
        ),
        (
            "bmc_sat_calls",
            Json::UInt(collector.counter("bmc.sat_calls")),
        ),
        (
            "sat_incremental_solve_calls",
            Json::UInt(collector.counter("sat.incremental_solve_calls")),
        ),
    ]);
    let mut exec_section = vec![
        ("workers", Json::UInt(workers as u64)),
        (
            "mode",
            Json::Str(
                if compare.is_some() {
                    "parallel"
                } else {
                    "sequential"
                }
                .into(),
            ),
        ),
    ];
    if let Some(c) = compare {
        exec_section.push(("flow_sequential_ms", Json::Num(c.flow_seq_ms)));
        exec_section.push(("flow_parallel_ms", Json::Num(c.flow_par_ms)));
        exec_section.push((
            "flow_speedup",
            Json::Num(c.flow_seq_ms / c.flow_par_ms.max(1e-9)),
        ));
        exec_section.push(("cascade_sequential_ms", Json::Num(c.cascade_seq_ms)));
        exec_section.push(("cascade_parallel_ms", Json::Num(c.cascade_par_ms)));
        exec_section.push((
            "cascade_speedup",
            Json::Num(c.cascade_seq_ms / c.cascade_par_ms.max(1e-9)),
        ));
    }
    exec_section.push(("cache", cache_section));
    let lat = profile.latency_summary();
    Json::obj(vec![
        (
            "kernel",
            Json::obj(vec![
                ("polls", Json::UInt(collector.counter("sim.polls"))),
                (
                    "delta_cycles",
                    Json::UInt(collector.counter("sim.delta_cycles")),
                ),
                (
                    "time_steps",
                    Json::UInt(collector.counter("sim.time_steps")),
                ),
                ("l2_total_ticks", Json::UInt(report.metrics.l2_total_ticks)),
                ("l3_total_ticks", Json::UInt(report.metrics.l3_total_ticks)),
                (
                    "l3_ticks_per_frame",
                    Json::Num(report.metrics.l3_ticks_per_frame),
                ),
            ]),
        ),
        (
            "bus",
            Json::obj(vec![
                (
                    "transactions",
                    Json::UInt(collector.counter("bus.transactions")),
                ),
                ("words", Json::UInt(collector.counter("bus.words"))),
                (
                    "l3_utilization",
                    Json::Num(report.metrics.l3_bus_utilization),
                ),
                (
                    "wait_ticks_p95",
                    Json::UInt(collector.histogram("bus.wait_ticks").percentile(95)),
                ),
            ]),
        ),
        (
            "fpga",
            Json::obj(vec![
                (
                    "reconfigurations",
                    Json::UInt(report.metrics.fpga_reconfigurations),
                ),
                (
                    "download_words",
                    Json::UInt(report.metrics.fpga_download_words),
                ),
                ("reconfig_latency_min", Json::UInt(latency.min)),
                ("reconfig_latency_p50", Json::UInt(latency.p50)),
                ("reconfig_latency_max", Json::UInt(latency.max)),
            ]),
        ),
        (
            "engines",
            Json::obj(vec![
                (
                    "sat_solve_calls",
                    Json::UInt(collector.counter("sat.solve_calls")),
                ),
                (
                    "sat_conflicts",
                    Json::UInt(collector.counter("sat.conflicts")),
                ),
                (
                    "bmc_sat_calls",
                    Json::UInt(collector.counter("bmc.sat_calls")),
                ),
            ]),
        ),
        (
            "observability",
            Json::obj(vec![
                ("obligations", Json::UInt(profile.obligations.len() as u64)),
                ("journal_events", Json::UInt(profile.events.0 as u64)),
                ("journal_events_dropped", Json::UInt(profile.events.1)),
                (
                    "obligations_per_sec",
                    Json::Num(profile.obligations_per_sec()),
                ),
                ("obligation_latency_p50_us", Json::UInt(lat.p50)),
                ("obligation_latency_p95_us", Json::UInt(lat.p95)),
                ("obligation_latency_p99_us", Json::UInt(lat.p99)),
                ("obligation_latency_max_us", Json::UInt(lat.max)),
            ]),
        ),
        (
            "behav",
            Json::obj(vec![
                ("fault_sweep_faults", Json::UInt(behav_bench.faults as u64)),
                (
                    "fault_sweep_vectors",
                    Json::UInt(behav_bench.vectors as u64),
                ),
                (
                    "interp_runs_per_sec",
                    Json::Num(behav_bench.interp_runs_per_sec),
                ),
                ("vm_runs_per_sec", Json::Num(behav_bench.vm_runs_per_sec)),
                ("vm_speedup", Json::Num(behav_bench.speedup)),
                ("l2_wall_ms", Json::Num(behav_bench.l2_wall_ms)),
            ]),
        ),
        (
            "sat",
            Json::obj(vec![
                ("pool_entries", Json::UInt(sat_bench.pool_entries)),
                ("pool_clauses", Json::UInt(sat_bench.pool_clauses)),
                ("flow_pool_hits", Json::UInt(sat_bench.flow_pool_hits)),
                ("flow_pool_imports", Json::UInt(sat_bench.flow_pool_imports)),
                ("flow_pool_rejects", Json::UInt(sat_bench.flow_pool_rejects)),
                ("cube_splits", Json::UInt(sat_bench.cube_splits)),
                (
                    "micro_cold_conflicts",
                    Json::UInt(sat_bench.micro_cold_conflicts),
                ),
                (
                    "micro_seeded_conflicts",
                    Json::UInt(sat_bench.micro_seeded_conflicts),
                ),
                ("micro_pool_hits", Json::UInt(sat_bench.micro_pool_hits)),
                ("micro_pool_imports", Json::UInt(sat_bench.micro_imports)),
                (
                    "micro_conflict_reduction",
                    Json::Num(sat_bench.micro_conflict_reduction),
                ),
            ]),
        ),
        ("host", Json::obj(vec![("wall_ms", Json::Num(wall_ms))])),
        ("exec", Json::obj(exec_section)),
    ])
    .render_pretty()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let start = Instant::now();
    let workload = Workload::small();
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    let out_dir = Path::new("target/flow");
    fs::create_dir_all(out_dir)?;

    // Obligation cache lifecycle. A previous invocation may have persisted
    // proved obligations under target/symbad-cache/ — report how many we
    // would inherit — but run the instrumented primary flow against a
    // FRESH cache: a warm cache replays verdicts without touching the
    // solvers, which would zero the engine counters benchmarked below.
    let cache_dir = Path::new("target/symbad-cache");
    let entries_loaded = cache::ObligationCache::load_or_empty(cache_dir).len();
    let obligations = cache::ObligationCache::new();

    let report = run_full_flow_cached(&workload, &instr, exec::ExecMode::Sequential, &obligations)?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
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
    let cache_bench = CacheBench {
        entries_loaded,
        entries_saved: obligations.len(),
        cold_hits: cold.hits,
        cold_misses: cold.misses,
        inserts: total.inserts,
        warm_hits: total.hits - cold.hits,
        warm_misses: total.misses - cold.misses,
        warm_hit_rate: {
            let warm_total = (total.hits - cold.hits) + (total.misses - cold.misses);
            if warm_total == 0 {
                0.0
            } else {
                (total.hits - cold.hits) as f64 / warm_total as f64
            }
        },
    };
    obligations.save(cache_dir)?;
    println!(
        "cache: {} entries loaded from disk; cold run {} hits / {} misses; \
         warm rerun {} hits / {} misses ({:.0}% hit rate); {} entries saved",
        cache_bench.entries_loaded,
        cache_bench.cold_hits,
        cache_bench.cold_misses,
        cache_bench.warm_hits,
        cache_bench.warm_misses,
        cache_bench.warm_hit_rate * 100.0,
        cache_bench.entries_saved,
    );

    // Cooperative-SAT pool behaviour. The cold run above populated the
    // cache's lemma pool alongside its verdicts; rerun the flow with
    // warm lemmas but COLD verdicts (`retain_lemmas`), so every miter
    // re-solves seeded from the pool — the report must not move by a
    // bit, and the pool counters land in the bench. The microbench half
    // pins a measurable conflict reduction on a CNF hard enough to need
    // one (the flow's miters are near-trivial for the solver).
    let pool_stats = obligations.lemmas().stats();
    let pool_only = obligations.retain_lemmas();
    let sat_collector = Collector::shared();
    let sat_instr: SharedInstrument = sat_collector.clone();
    let warm_pool_report = run_full_flow_cached(
        &workload,
        &sat_instr,
        exec::ExecMode::Sequential,
        &pool_only,
    )?;
    assert_eq!(
        warm_pool_report.to_json(),
        report.to_json(),
        "warm-lemma-pool flow report must be bit-identical to the cold one"
    );
    let (micro_cold, micro_seeded, micro_hits, micro_imports, micro_reduction) = bench_sat_pool();
    let sat_bench = SatBench {
        pool_entries: pool_stats.entries,
        pool_clauses: pool_stats.clauses,
        flow_pool_hits: sat_collector.counter("sat.pool_hits"),
        flow_pool_imports: sat_collector.counter("sat.pool_imports"),
        flow_pool_rejects: sat_collector.counter("sat.pool_rejects"),
        cube_splits: collector.counter("sat.cube_splits"),
        micro_cold_conflicts: micro_cold,
        micro_seeded_conflicts: micro_seeded,
        micro_pool_hits: micro_hits,
        micro_imports,
        micro_conflict_reduction: micro_reduction,
    };
    println!(
        "sat: lemma pool {} entries / {} clauses; warm-pool flow {} hits, \
         {} imports, {} rejects; microbench {} → {} conflicts seeded \
         ({:.0}% fewer)",
        sat_bench.pool_entries,
        sat_bench.pool_clauses,
        sat_bench.flow_pool_hits,
        sat_bench.flow_pool_imports,
        sat_bench.flow_pool_rejects,
        sat_bench.micro_cold_conflicts,
        sat_bench.micro_seeded_conflicts,
        sat_bench.micro_conflict_reduction * 100.0,
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
    let fr_cache = cache::ObligationCache::new();
    let supervised = run_full_flow_supervised(
        &workload,
        &instr,
        exec::ExecMode::Sequential,
        &fr_cache,
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
         {} obligations profiled at {:.0} obligations/sec",
        profile.obligations.len(),
        profile.obligations_per_sec()
    );

    // Sequential-vs-parallel comparison of the verification work, on an
    // UNCACHED flow so both sides do the same solver work (SYMBAD_WORKERS
    // overrides the default of the host's core count). With one worker the
    // comparison is vacuous, so it is skipped and the bench labels the run
    // sequential instead of reporting a speedup of 1.0.
    let mode = if std::env::var_os("SYMBAD_WORKERS").is_some() {
        exec::ExecMode::from_env()
    } else {
        exec::ExecMode::host_parallel()
    };
    let compare = if mode.is_parallel() {
        let seq_start = Instant::now();
        let noop = telemetry::noop();
        let seq_report =
            run_full_flow_cached(&workload, &noop, exec::ExecMode::Sequential, cache::noop())?;
        let flow_seq_ms = seq_start.elapsed().as_secs_f64() * 1e3;
        let par_start = Instant::now();
        let par_report = run_full_flow_cached(&workload, &noop, mode, cache::noop())?;
        let flow_par_ms = par_start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            par_report.to_json(),
            seq_report.to_json(),
            "parallel flow report must be bit-identical to the sequential one"
        );
        assert_eq!(par_report.to_json(), report.to_json());

        // The verification cascade alone (the level-1..4 checking stages
        // with no simulation in between) is where the fan-out pays off most.
        let cas_start = Instant::now();
        let cas_seq = cascade::run();
        let cascade_seq_ms = cas_start.elapsed().as_secs_f64() * 1e3;
        let cas_start = Instant::now();
        let cas_par = cascade::run_mode(mode);
        let cascade_par_ms = cas_start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(cas_par, cas_seq, "parallel cascade must be bit-identical");
        println!(
            "exec: {} workers; flow {flow_seq_ms:.0} ms → {flow_par_ms:.0} ms; \
             cascade {cascade_seq_ms:.0} ms → {cascade_par_ms:.0} ms",
            mode.workers()
        );
        Some(ExecCompare {
            flow_seq_ms,
            flow_par_ms,
            cascade_seq_ms,
            cascade_par_ms,
        })
    } else {
        println!("exec: 1 worker; sequential run (speedup comparison skipped)");
        None
    };

    // Interpreter-vs-VM throughput on the ATPG fault sweep (the win the
    // bytecode engine exists for), pinned into the bench for CI.
    let behav_bench = bench_behav(&workload)?;
    println!(
        "behav: {} faults × {} vectors; interp {:.0} runs/s, vm {:.0} runs/s \
         ({:.1}x); level 2 in {:.0} ms",
        behav_bench.faults,
        behav_bench.vectors,
        behav_bench.interp_runs_per_sec,
        behav_bench.vm_runs_per_sec,
        behav_bench.speedup,
        behav_bench.l2_wall_ms,
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
    fs::write(
        out_dir.join("BENCH_flow.json"),
        bench_json(
            &report,
            &collector,
            wall_ms,
            mode.workers(),
            &compare,
            &cache_bench,
            &profile,
            &behav_bench,
            &sat_bench,
        ),
    )?;
    println!(
        "wrote target/flow/{{report_output.txt,report_output.json,flow_trace.json,\
         flow_signals.vcd,journal.jsonl,profile.txt,profile.json,prometheus.txt,\
         BENCH_flow.json}}"
    );

    assert!(report.all_ok());
    Ok(())
}
