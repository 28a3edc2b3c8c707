//! Regenerates every experiment row of EXPERIMENTS.md (E1–E12).
//!
//! Run with `cargo run --release -p bench --bin report`. Absolute wall-clock
//! numbers depend on the host; the *shape* (orderings, ratios, catch/miss
//! outcomes) is what reproduces the paper. See DESIGN.md §4 for the
//! experiment-to-paper mapping.

use mc::prop::Property;
use std::time::Instant;
use symbad_core::cascade;
use symbad_core::explore;
use symbad_core::level4;
use symbad_core::partition::ArchConfig;
use symbad_core::timed::{MatcherKind, ReconfigStrategy, TimedSetup};
use symbad_core::workload::Workload;
use symbad_core::{level1, level2, level3};

fn main() {
    println!("Symbad reproduction — experiment report");
    println!("=======================================\n");

    let workload = Workload::paper(10);
    println!(
        "workload: {} identities × {} poses ({} gallery entries), {} probes, {}×{} frames\n",
        workload.dataset.config().identities,
        workload.dataset.config().poses,
        workload.gallery_len(),
        workload.probes.len(),
        workload.dataset.config().width,
        workload.dataset.config().height,
    );

    e1_e2_e3_e11(&workload);
    e4();
    e5_e6(&workload);
    e7();
    e8();
    e9_e10(&workload);
    e12();
}

fn hz(ticks: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        ticks as f64 / seconds
    }
}

fn e1_e2_e3_e11(workload: &Workload) {
    println!("── E1/E2/E3/E11: simulation speed per abstraction level ──");
    println!("paper: L1 run <15 s wall; L2 ≈200 kHz; L3 ≈30 kHz (Sun U80);");
    println!("       RTL simulation 'tens of hours' motivates TL modelling\n");

    // Best-of-3 wall times: the runs are fast enough that timer noise
    // otherwise dominates.
    fn timed<R>(mut f: impl FnMut() -> R) -> (R, f64) {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let r = f();
            best = best.min(t0.elapsed().as_secs_f64());
            out = Some(r);
        }
        (out.expect("ran at least once"), best)
    }
    let noop = telemetry::noop();
    let (l1, l1_wall) = timed(|| level1::run_instrumented(workload, &noop).expect("level 1"));
    let (l2, l2_wall) = timed(|| level2::run_instrumented(workload, &noop).expect("level 2"));
    let (l3, l3_wall) = timed(|| level3::run_instrumented(workload, &noop).expect("level 3"));

    // Level 4 representative: cycle-level RTL evaluation of the ROOT
    // kernel for every distance evaluation in the workload.
    let root = media::kernels::root_function();
    let unrolled = behav::unroll::unroll(&root, media::kernels::ROOT_ITERATIONS);
    let rtl = hdl::synth::synthesize(&unrolled).expect("synthesizable");
    // Enough evaluations that the wall time is measurable.
    let evals = (workload.probes.len() * workload.gallery_len()).max(10_000);
    let t0 = Instant::now();
    let mut sink = 0u64;
    for i in 0..evals {
        sink = sink.wrapping_add(rtl.eval_combinational(&[(i as u64) * 37 % 65536])[0]);
    }
    let l4_wall = t0.elapsed().as_secs_f64().max(1e-9);
    let l4_cycles = (evals as u64) * media::kernels::ROOT_ITERATIONS as u64;
    std::hint::black_box(sink);

    println!("| level | model | wall s | simulated ticks | simulated kHz | functional |");
    println!("|-------|-------|--------|-----------------|---------------|------------|");
    println!(
        "| 1 | untimed functional | {:.3} | (untimed) | — | matches reference: {} |",
        l1_wall, l1.matches_reference
    );
    println!(
        "| 2 | timed TL, HW/SW | {:.3} | {} | {:.1} | matches reference: {} |",
        l2_wall,
        l2.total_ticks,
        hz(l2.total_ticks, l2_wall) / 1000.0,
        l2.matches_reference
    );
    println!(
        "| 3 | + FPGA reconfig | {:.3} | {} | {:.1} | matches reference: {} |",
        l3_wall,
        l3.total_ticks,
        hz(l3.total_ticks, l3_wall) / 1000.0,
        l3.matches_reference
    );
    println!(
        "| 4 | RTL (ROOT kernel, cycle-level) | {:.3} | {} | {:.1} | equivalence proven (E8) |",
        l4_wall,
        l4_cycles,
        hz(l4_cycles, l4_wall) / 1000.0
    );
    // Shape checks. The paper's per-level slowdown is wall-clock cost of
    // the added modelling detail; in this event-driven reproduction the
    // honest equivalents are (a) wall time per frame rising with the
    // level, and (b) host cost per *simulated cycle* exploding at RTL.
    let frames = workload.probes.len() as f64;
    println!(
        "\nwall time per frame: L1 {:.1} µs → L2 {:.1} µs → L3 {:.1} µs (detail costs wall time)",
        1e6 * l1_wall / frames,
        1e6 * l2_wall / frames,
        1e6 * l3_wall / frames
    );
    let l2_ns_per_cycle = 1e9 * l2_wall / l2.total_ticks as f64;
    let l4_ns_per_cycle = 1e9 * l4_wall / l4_cycles as f64;
    println!(
        "host ns per simulated cycle: TL (L2) {:.2} vs RTL (L4, one small kernel) {:.2} → RTL ≈{:.0}× slower per cycle",
        l2_ns_per_cycle,
        l4_ns_per_cycle,
        l4_ns_per_cycle / l2_ns_per_cycle.max(1e-12)
    );
    println!(
        "simulated time per frame: L2 {:.0} ticks → L3 {:.0} ticks (reconfiguration stalls)",
        l2.ticks_per_frame, l3.ticks_per_frame
    );
    println!(
        "bus utilization: L2 {:.1}% → L3 {:.1}% (reconfiguration adds bus load)",
        l2.bus.utilization * 100.0,
        l3.bus.utilization * 100.0
    );
    // TL/RTL co-simulation: same functionality and simulated time, the
    // host pays for netlist evaluation — the paper's "co-simulation is
    // still too expensive" claim, measured.
    let cosim_setup = TimedSetup {
        matcher_kind: MatcherKind::Fpga {
            strategy: ReconfigStrategy::Hoisted,
            rtl_cosim: true,
        },
        ..TimedSetup::level3(workload)
    };
    let (cosim, cosim_wall) =
        timed(|| symbad_core::timed::run(cosim_setup.clone(), &noop).expect("cosim"));
    assert_eq!(cosim.recognized, l3.recognized);
    println!(
        "TL/RTL co-simulation of ROOT: wall {:.1} µs/frame vs native {:.1} µs/frame → {:.2}× slower, functionally identical\n",
        1e6 * cosim_wall / frames,
        1e6 * l3_wall / frames,
        cosim_wall / l3_wall.max(1e-12)
    );
}

fn e4() {
    println!("── E4: ATPG (Laerte++) coverage on the case-study kernels ──");
    println!("paper: GA + SAT engines; statement/branch/condition/bit metrics;");
    println!("       memory-inspection found the memory-initialization errors\n");

    let distance = media::kernels::distance_step_function();
    for (name, func) in [
        ("distance", &distance),
        ("root", &media::kernels::root_function()),
    ] {
        let random = atpg::tpg::random_tpg(
            func,
            &atpg::tpg::RandomConfig {
                rounds: 64,
                seed: 7,
            },
        );
        let cov = atpg::metrics::evaluate(func, &random.vectors).report();
        let bits = atpg::metrics::bit_coverage(func, &random);
        println!(
            "| {name} | random({} vec) | stmt {:.0}% | branch {:.0}% | cond {:.0}% | bit {:.1}% |",
            random.len(),
            cov.statement_pct(),
            cov.branch_pct(),
            cov.condition_pct(),
            bits.pct()
        );
    }
    // GA vs random on a narrow-branch kernel.
    let ga = atpg::tpg::genetic_tpg(
        &distance,
        &atpg::tpg::GaConfig {
            population: 20,
            vectors_per_individual: 6,
            generations: 30,
            mutation_per_mille: 60,
            tournament: 3,
            seed: 11,
        },
    );
    println!(
        "| distance | GA | reached {}/{} coverage score in {} generations |",
        ga.history.last().unwrap(),
        ga.target,
        ga.history.len()
    );
    // SAT completion and memory inspection. Coverage-greedy testbenches
    // cannot distinguish LUT indices, so the inspector runs on the
    // generated patterns plus a directed index sweep (as in the cascade).
    let buggy = cascade::buggy_lut_kernel(false);
    let mut tb = atpg::tpg::random_tpg(
        &buggy,
        &atpg::tpg::RandomConfig {
            rounds: 64,
            seed: 5,
        },
    );
    tb.vectors.extend((0..16u64).map(|i| vec![i]));
    let findings = atpg::metrics::memory_inspection(&buggy, &tb);
    println!(
        "| lut_kernel (seeded bug) | memory inspection | {} uninitialized reads found |",
        findings.len()
    );
    let (completed, unreachable) =
        atpg::formal::complete_with_sat(&distance, &atpg::Testbench::new()).expect("sat tpg");
    let after = atpg::metrics::evaluate(&distance, &completed.vectors).report();
    println!(
        "| distance | SAT completion from empty TB | branch {:.0}% ({} proven unreachable) |",
        after.branch_pct(),
        unreachable
    );
    // Bit-coverage completion: simulation plateaus, SAT finishes the job.
    let weak = atpg::Testbench {
        vectors: vec![vec![0, 0, 0]],
    };
    let before_bits = atpg::metrics::bit_coverage(&distance, &weak);
    let (full, untestable) =
        atpg::formal::complete_faults_with_sat(&distance, &weak).expect("fault tpg");
    let after_bits = atpg::metrics::bit_coverage(&distance, &full);
    println!(
        "| distance | SAT fault completion | bit {:.1}% → {:.1}% ({} proven untestable) |",
        before_bits.pct(),
        after_bits.pct(),
        untestable
    );
    // GA parameter ablation: population size vs generations to converge.
    for population in [6usize, 12, 24] {
        let ga = atpg::tpg::genetic_tpg(
            &distance,
            &atpg::tpg::GaConfig {
                population,
                vectors_per_individual: 4,
                generations: 60,
                mutation_per_mille: 60,
                tournament: 3,
                seed: 21,
            },
        );
        println!(
            "| distance | GA pop={population} | best {}/{} after {} generations |",
            ga.history.last().unwrap(),
            ga.target,
            ga.history.len()
        );
    }
    println!();
}

fn e5_e6(workload: &Workload) {
    println!("── E5/E6: LPV — deadlock freeness, deadlines, FIFO sizing ──");
    println!("paper: 'LPV allowed efficient hunt of deadlock conditions';");
    println!("       'LPV has been used to prove real-time properties like timing");
    println!("        deadline achievement and FIFO channel dimensioning'\n");

    for credits in [0u64, 1, 2] {
        let net = cascade::fig2_petri_net(credits);
        let verdict = lp::check_liveness(&net);
        println!("| fig2 net, {credits} frame credits | {verdict:?} |");
    }

    let config = workload.dataset.config();
    let profile = media::profile::build_profile(config, workload.gallery_len());
    let cpu = platform::CpuModel::arm7tdmi();
    let arch = ArchConfig::default();
    let partition = symbad_core::Partition::paper_level2();
    let mut g = lp::TaskGraph::new();
    let mut prev = None;
    for m in media::profile::MODULES {
        let mix = profile.mix(m);
        let cycles = match partition.domain(m) {
            symbad_core::Domain::Sw => cpu.cycles(mix),
            _ => arch.hw_cycles(mix.total()),
        };
        let t = g.add_task(m, cycles);
        if let Some(p) = prev {
            g.add_dep(p, t);
        }
        prev = Some(t);
    }
    let latency = g.latency_lp();
    println!("| per-frame worst-case latency (LP = critical path) | {latency} cycles |");
    for (factor, label) in [(2.0, "relaxed"), (0.5, "over-tight")] {
        let deadline = (latency.to_f64() * factor) as u64;
        let verdict = lp::check_deadline(&g, deadline);
        let met = matches!(verdict, lp::DeadlineVerdict::Met { .. });
        println!("| deadline {deadline} cycles ({label}) | met: {met} |");
    }

    let bound = lp::dimension_fifo(&lp::ChannelRates {
        producer_burst: 1,
        producer_period: 8,
        consumer_period: 6,
        consumer_latency: 120,
        horizon: 1_000_000,
    });
    println!(
        "| FIFO sizing (Tp=8, Tc=6, L=120) | capacity {} tokens, sustained: {} |\n",
        bound.capacity, bound.sustained
    );
}

fn e7() {
    println!("── E7: SymbC reconfiguration consistency ──");
    println!("paper: 'a certificate of consistency … or a counter-example'\n");
    let (clean, map) = cascade::instrumented_sw(true);
    let (buggy, _) = cascade::instrumented_sw(false);
    match symbc::check(&clean, &map) {
        symbc::Verdict::Consistent(cert) => println!(
            "| correct SW | certificate: {} calls checked, {} reconfigurations |",
            cert.checked_calls, cert.reconfigurations
        ),
        v => println!("| correct SW | UNEXPECTED {v:?} |"),
    }
    match symbc::check(&buggy, &map) {
        symbc::Verdict::Inconsistent(violations) => {
            println!(
                "| buggy SW (missing reconfigure) | counterexample: {} |",
                violations[0]
            );
        }
        v => println!("| buggy SW | UNEXPECTED {v:?} |"),
    }
    println!();
}

fn e8() {
    println!("── E8: model checking + PCC at level 4 ──");
    println!("paper: 'PCC allowed us to identify property missing in the initial");
    println!("        verification plan'\n");
    let report = level4::run_cached(
        exec::ExecMode::Sequential,
        &telemetry::noop(),
        cache::noop(),
    );
    for (name, nodes, equivalent) in &report.kernels {
        println!("| kernel {name} | {nodes} RTL nodes | RTL ≡ behavioural: {equivalent} |");
    }
    for (name, engine, proven) in &report.properties {
        println!("| property {name} | {engine} | proven: {proven} |");
    }
    for (set, run) in [
        ("initial", &report.pcc_initial),
        ("extended", &report.pcc_extended),
    ] {
        match run {
            Some(r) => println!(
                "| PCC {set} property set | {:.1}% fault coverage ({} uncovered) |",
                r.pct(),
                r.uncovered.len()
            ),
            None => println!("| PCC {set} property set | no report |"),
        }
    }
    println!();
}

fn e9_e10(workload: &Workload) {
    println!("── E9/E10: reconfiguration ablations ──");
    println!("paper: context partitioning 'must be thoroughly tuned'; reducing");
    println!("       reconfigurations is 'rather tricky to ensure automatically'\n");
    let arch = ArchConfig::default();
    println!("| mapping | ticks/frame | reconfigs | bitstream words | bus util |");
    println!("|---------|-------------|-----------|-----------------|----------|");
    for p in explore::context_ablation(workload, &arch).expect("ablation") {
        println!(
            "| {} | {:.0} | {} | {} | {:.1}% |",
            p.name,
            p.ticks_per_frame,
            p.reconfigurations,
            p.download_words,
            p.bus_utilization * 100.0
        );
    }
    for p in explore::strategy_ablation(workload, &arch).expect("ablation") {
        println!(
            "| {} | {:.0} | {} | {} | {:.1}% |",
            p.name,
            p.ticks_per_frame,
            p.reconfigurations,
            p.download_words,
            p.bus_utilization * 100.0
        );
    }
    println!("\npartition sweep (level 2, modules moved to HW by profiling rank):");
    for p in explore::partition_sweep(workload, &arch).expect("sweep") {
        println!("| {} | {:.0} ticks/frame |", p.name, p.ticks_per_frame);
    }
    println!();
}

fn e12() {
    println!("── E12: the verification cascade end-to-end ──");
    let report = cascade::run();
    println!("| stage | level | seeded error | caught | fix certified |");
    println!("|-------|-------|--------------|--------|---------------|");
    for s in &report.stages {
        println!(
            "| {} | {} | {} | {} | {} |",
            s.stage, s.level, s.seeded_error, s.caught, s.clean_passes
        );
    }
    println!(
        "\ncascade effective (every stage catches its class): {}\n",
        report.all_effective()
    );
    let _ = Property::invariant("doc", mc::prop::BoolExpr::Const(true));
}
