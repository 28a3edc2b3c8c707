//! `engine_corpus`: a seeded corpus from the fuzz generators, pushed
//! through the verification engines with no simulation in the way.
//!
//! CDCL does conflict-heavy work on planted 3-XOR systems; every model
//! checking probe misses the round's fresh cache and inserts (the cache
//! *write* path); `behav` is used compile-heavy on many small functions
//! and execute-heavy in the ATPG bit-fault sweep. `sim`, `tlm` and
//! `serve` are absent.
//!
//! One op is a *slice*: 25 hard CNFs, 250 planted CNFs, 125 netlists,
//! 250 VM functions and a bit-fault sweep of the ROOT and DISTANCE
//! kernels over 32 vectors. A round is [`SLICES_PER_ROUND`] slices
//! sharing one fresh obligation cache; it is also one block of an
//! end-to-end run.

use crate::run::{self, median, ms, ratio, us, Report, Run};
use atpg::metrics::{bit_coverage_with, BitCoverage};
use atpg::Testbench;
use behav::bytecode::{compile, BehavExec, Vm};
use behav::interp::{enumerate_bit_faults, BitFault, ExecError, Interpreter, RunOutput};
use behav::Function;
use fuzz::mc_fuzz::{self, McCase};
use fuzz::sat_fuzz::{self, CnfCase};
use fuzz::{share_fuzz, vm_fuzz};
use hdl::Rtl;
use mc::prop::Property;
use mc::Verdict;
use std::time::Instant;
use telemetry::{Collector, SharedInstrument};

const SLICES_PER_ROUND: u64 = 4;
const HARD: usize = 25;
const PLANTED: usize = 250;
const NETLISTS: usize = 125;
const FUNCTIONS: usize = 250;
const SWEEP_VECTORS: u64 = 32;
/// Step limit of a VM run. Terminating generated functions take at most
/// a few hundred steps; about one in a thousand loops forever (a fault
/// lands on its loop counter) and would otherwise run to the fuzzer's
/// limit of a million steps, dominating the slice it lands in.
const MAX_STEPS: u64 = 10_000;
/// Rounds in a trace sweep.
const TRACE_ROUNDS: u64 = 10;
const STREAM: u64 = 3;

struct Netlist {
    case: McCase,
    rtl: Rtl,
    prop: Property,
}

struct VmJob {
    func: Function,
    fault: Option<BitFault>,
    step_limit: u64,
    vectors: Vec<Vec<u64>>,
}

/// The inputs of one slice, generated outside the timed region.
struct Slice {
    index: u64,
    hard: Vec<CnfCase>,
    planted: Vec<CnfCase>,
    netlists: Vec<Netlist>,
    vm_jobs: Vec<VmJob>,
    root_tb: Testbench,
    distance_tb: Testbench,
}

fn slice(seed: u64, index: u64) -> Slice {
    let mut rng = run::rng(seed, STREAM, index);
    let hard = (0..HARD)
        .map(|_| share_fuzz::generate_hard(&mut rng))
        .collect();
    let planted = (0..PLANTED)
        .map(|_| {
            let bias = rng.next_u64();
            sat_fuzz::generate(&mut rng, bias)
        })
        .collect();
    let netlists = (0..NETLISTS)
        .map(|_| {
            let bias = rng.next_u64();
            let case = mc_fuzz::generate(&mut rng, bias);
            let (rtl, prop) = mc_fuzz::build(&case);
            Netlist { case, rtl, prop }
        })
        .collect();
    let vm_jobs = (0..FUNCTIONS)
        .map(|_| {
            let bias = rng.next_u64();
            let case = vm_fuzz::generate(&mut rng, bias);
            let func = vm_fuzz::build_function(&case);
            let faults = enumerate_bit_faults(&func);
            let fault = case
                .fault_pick
                .filter(|_| !faults.is_empty())
                .map(|k| faults[(k % faults.len() as u64) as usize]);
            let vectors = case
                .vectors
                .iter()
                .map(|v| {
                    v.iter()
                        .copied()
                        .chain(std::iter::repeat(0))
                        .take(func.num_params())
                        .collect()
                })
                .collect();
            VmJob {
                func,
                fault,
                step_limit: case.step_limit.min(MAX_STEPS),
                vectors,
            }
        })
        .collect();
    let root_tb = Testbench {
        vectors: (0..SWEEP_VECTORS)
            .map(|_| vec![rng.next_u64() & 0xFFFF_FFFF])
            .collect(),
    };
    let distance_tb = Testbench {
        vectors: (0..SWEEP_VECTORS)
            .map(|_| {
                vec![
                    rng.below(1 << 16),
                    rng.below(1 << 16),
                    rng.next_u64() & 0xFFFF_FFFF,
                ]
            })
            .collect(),
    };
    Slice {
        index,
        hard,
        planted,
        netlists,
        vm_jobs,
        root_tb,
        distance_tb,
    }
}

/// The FPGA resource model both VM and interpreter runs call out to.
fn resource(name: &str, args: &[u64]) -> u64 {
    let h = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    args.iter()
        .fold(h, |h, &a| (h ^ a).wrapping_mul(0x0100_0000_01B3))
}

/// Per-layer wall times and work counts, accumulated on every op (the
/// stamps cost nanoseconds against microsecond-scale items).
#[derive(Default)]
struct Layers {
    hard_solve_ms: Vec<f64>,
    sat_s: f64,
    conflicts: u64,
    propagations: u64,
    decisions: u64,
    reach_ms: f64,
    bmc_ms: f64,
    induction_ms: f64,
    compile_us: Vec<f64>,
    vm_runs: u64,
    vm_run_s: f64,
    sweep_ms: Vec<f64>,
    detected: u64,
    faults: u64,
}

/// What a slice produced, checked outside the timed region.
struct SliceOut {
    /// Verdict and, for satisfiable cases, the model.
    sat: Vec<(bool, Option<Vec<bool>>)>,
    /// `(reach, bmc, induction)` per netlist.
    mc: Vec<(Verdict, Verdict, Verdict)>,
    vm: Vec<Vec<Result<RunOutput, ExecError>>>,
    coverage: (BitCoverage, BitCoverage),
}

/// Solves `case` on a fresh CDCL solver; returns the verdict, the model
/// of a satisfiable case, and the wall time.
fn solve(case: &CnfCase, layers: &mut Layers) -> ((bool, Option<Vec<bool>>), f64) {
    let t = Instant::now();
    let mut solver = sat::Solver::new();
    let vars: Vec<sat::Var> = (0..case.num_vars).map(|_| solver.new_var()).collect();
    for clause in &case.clauses {
        solver.add_clause(
            clause
                .iter()
                .map(|&l| sat::Lit::with_polarity(vars[(l.unsigned_abs() - 1) as usize], l > 0)),
        );
    }
    let is_sat = solver.solve().is_sat();
    let model = is_sat.then(|| {
        vars.iter()
            .map(|&v| solver.value(v) == Some(true))
            .collect()
    });
    let elapsed = t.elapsed();
    layers.sat_s += elapsed.as_secs_f64();
    layers.conflicts += solver.conflicts();
    layers.propagations += solver.propagations();
    layers.decisions += solver.decisions();
    ((is_sat, model), ms(elapsed))
}

/// Model checks every netlist of the slice with reachability, BMC and
/// k-induction through `obligations`.
fn model_check(
    s: &Slice,
    instrument: &SharedInstrument,
    obligations: &cache::ObligationCache,
    layers: &mut Layers,
) -> Vec<(Verdict, Verdict, Verdict)> {
    s.netlists
        .iter()
        .map(|n| {
            let t = Instant::now();
            let reach = mc::reach::check_cached(&n.rtl, &n.prop, instrument, obligations);
            let t_bmc = Instant::now();
            let bmc = mc::bmc::check_cached(&n.rtl, &n.prop, n.case.bound, instrument, obligations);
            let t_ind = Instant::now();
            let ind =
                mc::induction::check_cached(&n.rtl, &n.prop, n.case.k, instrument, obligations);
            let end = Instant::now();
            layers.reach_ms += ms(t_bmc - t);
            layers.bmc_ms += ms(t_ind - t_bmc);
            layers.induction_ms += ms(end - t_ind);
            (reach, bmc, ind)
        })
        .collect()
}

fn run_slice(
    s: &Slice,
    instrument: &SharedInstrument,
    obligations: &cache::ObligationCache,
    layers: &mut Layers,
) -> SliceOut {
    let mut sat = Vec::with_capacity(HARD + PLANTED);
    for case in &s.hard {
        let (outcome, elapsed_ms) = solve(case, layers);
        layers.hard_solve_ms.push(elapsed_ms);
        sat.push(outcome);
    }
    for case in &s.planted {
        sat.push(solve(case, layers).0);
    }
    let mc = model_check(s, instrument, obligations, layers);
    let vm = s
        .vm_jobs
        .iter()
        .map(|job| {
            let t = Instant::now();
            let program = compile(&job.func);
            let t_run = Instant::now();
            let mut vm = Vm::new(program).with_step_limit(job.step_limit);
            vm.set_fault(job.fault);
            let mut handler = resource;
            let outs: Vec<_> = job
                .vectors
                .iter()
                .map(|v| vm.run_with_handler(v, Some(&mut handler)))
                .collect();
            layers.compile_us.push(us(t_run - t));
            layers.vm_run_s += t_run.elapsed().as_secs_f64();
            layers.vm_runs += outs.len() as u64;
            outs
        })
        .collect();
    let t = Instant::now();
    let coverage = (
        bit_coverage_with(&media::kernels::root_function(), &s.root_tb, BehavExec::Vm),
        bit_coverage_with(
            &media::kernels::distance_step_function(),
            &s.distance_tb,
            BehavExec::Vm,
        ),
    );
    layers.sweep_ms.push(ms(t.elapsed()));
    for c in [&coverage.0, &coverage.1] {
        layers.detected += c.detected as u64;
        layers.faults += c.total as u64;
    }
    SliceOut {
        sat,
        mc,
        vm,
        coverage,
    }
}

/// Checks a slice's outputs against independent ground truth: planted
/// verdicts and models, BFS-exact violation depths, the behavioural
/// interpreter, and (on round 0) interpreter-driven coverage.
fn check(s: &Slice, out: &SliceOut) -> Result<(), String> {
    let cnfs = s.hard.iter().chain(&s.planted);
    for (i, (case, (is_sat, model))) in cnfs.zip(&out.sat).enumerate() {
        if case.expected != Some(*is_sat) {
            return Err(format!(
                "cnf {i}: solver says {is_sat}, planted {:?}",
                case.expected
            ));
        }
        if let Some(ci) = model
            .as_ref()
            .and_then(|m| sat_fuzz::violated_clause(&case.clauses, m))
        {
            return Err(format!("cnf {i}: model violates clause {ci}"));
        }
    }
    for (i, (n, (reach, bmc, ind))) in s.netlists.iter().zip(&out.mc).enumerate() {
        let truth = mc_fuzz::ground_truth_depth(&n.rtl, &n.prop);
        let reach_ok = matches!(
            (reach, truth),
            (Verdict::Proven, None) | (Verdict::Violated(_), Some(_))
        );
        let bound = u64::from(n.case.bound);
        let bmc_ok = match (bmc, truth) {
            (Verdict::Violated(trace), Some(d)) => d <= bound && trace.len() as u64 == d + 1,
            (Verdict::NoViolationUpTo(b), t) => *b == n.case.bound && t.is_none_or(|d| d > bound),
            _ => false,
        };
        let ind_ok = match ind {
            Verdict::Proven => truth.is_none(),
            Verdict::Violated(_) => truth.is_some(),
            Verdict::Unknown(_) => true,
            _ => false,
        };
        if !(reach_ok && bmc_ok && ind_ok) {
            return Err(format!(
                "netlist {i}: reach {reach:?}, bmc {bmc:?}, induction {ind:?}, truth {truth:?}"
            ));
        }
    }
    for (i, (job, outs)) in s.vm_jobs.iter().zip(&out.vm).enumerate() {
        for (v, observed) in job.vectors.iter().zip(outs) {
            let mut interp = Interpreter::new(&job.func)
                .with_step_limit(job.step_limit)
                .with_resource_handler(Box::new(resource));
            if let Some(f) = job.fault {
                interp = interp.with_fault(f);
            }
            if &interp.run(v) != observed {
                return Err(format!(
                    "function {i}: VM diverges from the interpreter on {v:?}"
                ));
            }
        }
    }
    if s.index < SLICES_PER_ROUND {
        let reference = (
            bit_coverage_with(
                &media::kernels::root_function(),
                &s.root_tb,
                BehavExec::Interp,
            ),
            bit_coverage_with(
                &media::kernels::distance_step_function(),
                &s.distance_tb,
                BehavExec::Interp,
            ),
        );
        if reference != out.coverage {
            return Err("VM bit coverage differs from the interpreter's".into());
        }
    }
    Ok(())
}

/// Runs slice `s` on `obligations` and checks it; returns its wall
/// time, or `None` when the op failed.
fn slice_op(
    rep: &mut Report,
    s: &Slice,
    instrument: &SharedInstrument,
    obligations: &cache::ObligationCache,
    layers: &mut Layers,
) -> Option<f64> {
    rep.attempt(1, "engine_corpus slice", || {
        let t = Instant::now();
        let out = run_slice(s, instrument, obligations, layers);
        let elapsed = ms(t.elapsed());
        check(s, &out)?;
        Ok(elapsed)
    })
}

pub fn measure(run: &Run, rep: &mut Report) {
    let noop = telemetry::noop();
    let mut round = 0;
    let mut next = 0;
    // A block is one round: its set-up generates the round's first slice
    // and runs it once as a warm-up on a scratch cache.
    let blocks = run::blocks(
        run,
        rep,
        SLICES_PER_ROUND as usize,
        |rep| {
            let ((s, warm_up), setup_s) = run::timed(|| {
                let s = slice(run.seed, round * SLICES_PER_ROUND);
                let scratch = cache::ObligationCache::new();
                let warm_up = run_slice(&s, &noop, &scratch, &mut Layers::default());
                (s, warm_up)
            });
            round += 1;
            rep.attempt(1, "engine_corpus set-up", || check(&s, &warm_up))?;
            Some((cache::ObligationCache::new(), setup_s))
        },
        |rep, obligations| {
            let s = slice(run.seed, next);
            next += 1;
            let slice_ms = slice_op(rep, &s, &noop, obligations, &mut Layers::default())?;
            Some((vec![slice_ms], slice_ms / 1e3))
        },
    );
    rep.end_to_end(&blocks);
    for (name, n) in [
        ("slices_per_round", SLICES_PER_ROUND),
        ("hard_cnfs_per_slice", HARD as u64),
        ("planted_cnfs_per_slice", PLANTED as u64),
        ("netlists_per_slice", NETLISTS as u64),
        ("functions_per_slice", FUNCTIONS as u64),
        ("sweep_vectors_per_slice", SWEEP_VECTORS),
    ] {
        rep.size(name, n);
    }
}

pub fn trace(run: &Run, rep: &mut Report) {
    let total = if run.tiny {
        1
    } else {
        TRACE_ROUNDS * SLICES_PER_ROUND
    };
    let collector = Collector::shared();
    let instrument: SharedInstrument = collector.clone();
    let mut layers = Layers::default();
    let mut uncached_ms = 0.0;
    let mut inserts = 0;
    let mut obligations = cache::ObligationCache::new();
    for index in 0..total {
        if index % SLICES_PER_ROUND == 0 {
            inserts += obligations.stats().inserts;
            obligations = cache::ObligationCache::new();
        }
        let s = slice(run.seed, index);
        slice_op(rep, &s, &instrument, &obligations, &mut layers);
        // The same model checking, equally instrumented, without a cache:
        // the difference to the cached pass is the cost of fingerprinting
        // and inserting.
        let scratch: SharedInstrument = Collector::shared();
        let t = Instant::now();
        model_check(&s, &scratch, cache::noop(), &mut Layers::default());
        uncached_ms += ms(t.elapsed());
    }
    inserts += obligations.stats().inserts;
    let cached_ms = layers.reach_ms + layers.bmc_ms + layers.induction_ms;

    rep.metric("sat.solve_ms_p50", "ms", median(&layers.hard_solve_ms));
    rep.metric("sat.conflicts", "count", layers.conflicts as f64);
    rep.metric("sat.propagations", "count", layers.propagations as f64);
    rep.metric("sat.decisions", "count", layers.decisions as f64);
    rep.metric(
        "sat.propagations_per_s",
        "1/s",
        ratio(layers.propagations as f64, layers.sat_s),
    );
    rep.metric(
        "sat.conflicts_per_s",
        "1/s",
        ratio(layers.conflicts as f64, layers.sat_s),
    );
    rep.metric("mc.reach_ms", "ms", layers.reach_ms);
    rep.metric("mc.bmc_ms", "ms", layers.bmc_ms);
    rep.metric("mc.induction_ms", "ms", layers.induction_ms);
    rep.metric(
        "mc.bmc_sat_calls",
        "count",
        collector.counter("bmc.sat_calls") as f64,
    );
    rep.metric(
        "bdd.nodes_allocated",
        "count",
        collector.counter("bdd.nodes_allocated") as f64,
    );
    rep.metric("cache.inserts", "count", inserts as f64);
    rep.metric("cache.write_overhead_ms", "ms", cached_ms - uncached_ms);
    rep.metric("behav.compile_us_p50", "us", median(&layers.compile_us));
    rep.metric(
        "behav.vm_runs_per_s",
        "1/s",
        ratio(layers.vm_runs as f64, layers.vm_run_s),
    );
    rep.metric("atpg.bit_coverage_ms", "ms", median(&layers.sweep_ms));
    rep.metric(
        "atpg.coverage_pct",
        "%",
        100.0 * ratio(layers.detected as f64, layers.faults as f64),
    );
    rep.size("trace_slices", total);
}
