//! Four-way equivalence of the FPGA kernels: pure Rust (`media::pipeline`)
//! ≡ behavioural IR (`behav` interpreter) ≡ bytecode VM (`behav::bytecode`)
//! ≡ synthesized RTL (`hdl`), checked by simulation sampling,
//! property-based testing and SAT. The interpreter and VM legs compare the
//! *whole* instrumented output (coverage, op counts, memory inspection),
//! not just the return value, and must agree on the whole bit-coverage
//! fault sweep.

use atpg::metrics::{bit_coverage_with, BitCoverage};
use atpg::Testbench;
use behav::bytecode::{compile, BehavExec, Vm};
use behav::interp::{BitFault, Interpreter};
use behav::unroll::unroll;
use behav::{Function, VarId};
use hdl::synth::synthesize;
use media::kernels::{distance_step_function, root_function, CompiledKernel, ROOT_ITERATIONS};
use media::pipeline::{distance, root as rust_root};
use media::reference::extract_features;
use proptest::prelude::*;
use symbad_core::workload::Workload;

#[test]
fn distance_four_way_equivalence_sampled() {
    let func = distance_step_function();
    let rtl = synthesize(&func).expect("synthesizable");
    let mut vm = Vm::new(compile(&func));
    for (a, b, acc) in [
        (0u64, 0u64, 0u64),
        (65535, 0, 0),
        (0, 65535, 0),
        (1234, 4321, 999_999),
        (40000, 39999, u32::MAX as u64),
    ] {
        let rust = {
            let d = (a as i64 - b as i64).unsigned_abs();
            (acc + d * d) & 0xFFFF_FFFF
        };
        let interp = Interpreter::new(&func).run(&[a, b, acc]).expect("runs");
        let hw = rtl.eval_combinational(&[a, b, acc])[0];
        assert_eq!(
            Some(rust),
            interp.return_value,
            "interp a={a} b={b} acc={acc}"
        );
        assert_eq!(Ok(interp), vm.run(&[a, b, acc]), "vm a={a} b={b} acc={acc}");
        assert_eq!(rust, hw, "rtl a={a} b={b} acc={acc}");
    }
}

#[test]
fn root_four_way_equivalence_sampled() {
    let func = root_function();
    let unrolled = unroll(&func, ROOT_ITERATIONS);
    let rtl = synthesize(&unrolled).expect("synthesizable");
    let mut vm = Vm::new(compile(&func));
    let mut unrolled_vm = Vm::new(compile(&unrolled));
    for x in [
        0u64,
        1,
        2,
        48,
        49,
        50,
        65535,
        65536,
        1 << 31,
        u32::MAX as u64,
    ] {
        let rust = rust_root(x) as u64 & 0xFFFF;
        let interp = Interpreter::new(&func).run(&[x]).expect("runs");
        let hw = rtl.eval_combinational(&[x])[0];
        assert_eq!(Some(rust), interp.return_value, "interp x={x}");
        assert_eq!(Ok(interp), vm.run(&[x]), "vm x={x}");
        assert_eq!(
            Interpreter::new(&unrolled).run(&[x]),
            unrolled_vm.run(&[x]),
            "unrolled vm x={x}"
        );
        assert_eq!(rust, hw, "rtl x={x}");
    }
}

/// Levels 1–3 run DISTANCE lane-parallel, one `CompiledKernel::run_rows`
/// call per (probe, gallery entry) pair. On every such pair of the small
/// workload, that call must equal one `run` per element, the interpreter
/// and `media::pipeline::distance`.
#[test]
fn distance_rows_match_on_every_workload_feature_pair() {
    let w = Workload::small();
    let func = distance_step_function();
    let mut interp = Interpreter::new(&func);
    let mut kernel = CompiledKernel::distance_step();
    for &(id, pose, seed) in &w.probes {
        let (probe, _) = extract_features(&w.dataset.frame(id, pose, seed));
        for (_, _, entry) in &w.gallery.entries {
            let rows: Vec<[u64; 3]> = probe
                .iter()
                .zip(entry)
                .map(|(&x, &y)| [u64::from(x), u64::from(y), 0])
                .collect();
            let lanes = kernel.run_rows(&rows);
            let per_call: Vec<u64> = rows.iter().map(|r| kernel.run(r)).collect();
            let interpreted: Vec<u64> = rows
                .iter()
                .map(|r| interp.run(r).expect("runs").return_value.expect("returns"))
                .collect();
            assert_eq!(lanes, per_call, "probe {id}/{pose}");
            assert_eq!(lanes, interpreted, "probe {id}/{pose}");
            assert_eq!(lanes, distance(&probe, entry), "probe {id}/{pose}");
        }
    }
}

/// Bit coverage of `func` over a fixed 32-vector testbench, asserted
/// identical under both engines, undetected list included.
fn agreed_bit_coverage(func: &Function) -> BitCoverage {
    let mut word = 0x5EED_u64;
    let tb = Testbench {
        vectors: (0..32)
            .map(|_| {
                (0..func.num_params())
                    .map(|_| {
                        word = word.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                        word >> 16
                    })
                    .collect()
            })
            .collect(),
    };
    let vm = bit_coverage_with(func, &tb, BehavExec::Vm);
    assert_eq!(
        vm,
        bit_coverage_with(func, &tb, BehavExec::Interp),
        "{}",
        func.name()
    );
    vm
}

#[test]
fn vm_and_interpreter_bit_coverage_agree_on_the_kernels() {
    assert_eq!(agreed_bit_coverage(&distance_step_function()).total, 160);
    let root = root_function();
    let coverage = agreed_bit_coverage(&root);
    assert_eq!(coverage.total, 272);
    // Stuck-at-0 on any of the low five bits of the loop counter keeps
    // `i < 16` true forever: the run ends in a step-limit error, which no
    // fault-free run produces.
    let i = root
        .vars()
        .iter()
        .position(|d| d.name == "i")
        .map(VarId::from_index)
        .expect("ROOT has a loop counter `i`");
    for bit in 0..5 {
        let fault = BitFault {
            var: i,
            bit,
            stuck_at: false,
        };
        assert!(
            !coverage.undetected.contains(&fault),
            "{fault:?} undetected"
        );
    }
}

#[test]
fn sat_miter_proves_rtl_equivalence() {
    use symbad_core::level4::prove_equivalence;
    let dist = distance_step_function();
    let dist_rtl = synthesize(&dist).expect("synth");
    assert!(prove_equivalence(&dist, &dist_rtl));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distance_equivalence_random(a in 0u64..=0xFFFF, b in 0u64..=0xFFFF, acc in 0u64..=0xFFFF_FFFF) {
        let func = distance_step_function();
        let rtl = synthesize(&func).expect("synthesizable");
        let d = (a as i64 - b as i64).unsigned_abs();
        let rust = (acc + d * d) & 0xFFFF_FFFF;
        let interp = Interpreter::new(&func).run(&[a, b, acc]).unwrap();
        let vm = Vm::new(compile(&func)).run(&[a, b, acc]).unwrap();
        let hw = rtl.eval_combinational(&[a, b, acc])[0];
        prop_assert_eq!(Some(rust), interp.return_value);
        prop_assert_eq!(interp, vm);
        prop_assert_eq!(rust, hw);
    }

    #[test]
    fn root_equivalence_random(x in 0u64..=u32::MAX as u64) {
        let func = root_function();
        let rust = rust_root(x) as u64 & 0xFFFF;
        let interp = Interpreter::new(&func).run(&[x]).unwrap();
        let vm = Vm::new(compile(&func)).run(&[x]).unwrap();
        prop_assert_eq!(Some(rust), interp.return_value);
        prop_assert_eq!(interp, vm);
    }

    #[test]
    fn root_result_is_true_isqrt(x in 0u64..=u32::MAX as u64) {
        let r = rust_root(x) as u64;
        prop_assert!(r * r <= x);
        prop_assert!((r + 1) * (r + 1) > x);
    }
}
