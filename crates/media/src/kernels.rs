//! DISTANCE and ROOT as behavioural (`behav`) functions.
//!
//! These are the two modules the case study maps into the embedded FPGA
//! ("it has been quite reasonable that modules DISTANCE and ROOT be mapped
//! both into the FPGA. They have been split into two different contexts,
//! named config1 and config2", §4.1). Having them in the behavioural IR
//! lets every formal tool of the flow touch the *same* kernels: ATPG
//! generates tests for them at level 1, `hdl::synth` turns them into RTL at
//! level 4, and the equivalence tests pin all three versions (pure Rust,
//! interpreter, netlist) to each other.

use behav::bytecode::{compile, Vm};
use behav::{Expr, Function, FunctionBuilder};

/// Width of feature elements processed by the DISTANCE kernel.
pub const DISTANCE_WIDTH: u32 = 16;

/// The DISTANCE step kernel: `acc' = acc + (a − b)²` over one feature
/// element, with the subtraction direction chosen by a comparison (so the
/// kernel has a branch for coverage metrics to chew on).
///
/// Inputs: `a`, `b` (feature elements), `acc` (running sum).
/// Output: the updated accumulator (32-bit).
pub fn distance_step_function() -> Function {
    let mut fb = FunctionBuilder::new("distance", 32);
    let a = fb.param("a", DISTANCE_WIDTH);
    let b = fb.param("b", DISTANCE_WIDTH);
    let acc = fb.param("acc", 32);
    let d = fb.local("d", DISTANCE_WIDTH);
    fb.if_else(
        Expr::ge(Expr::var(a), Expr::var(b)),
        |t| t.assign(d, Expr::sub(Expr::var(a), Expr::var(b))),
        |e| e.assign(d, Expr::sub(Expr::var(b), Expr::var(a))),
    );
    // Widen the 16-bit difference to 32 bits before squaring — the IR's
    // result width is the max operand width, so a 16-bit multiply would
    // wrap (exactly the class of subtle width bug bit-coverage catches).
    let d32 = fb.local("d32", 32);
    fb.assign(d32, Expr::var(d));
    let sq = fb.local("sq", 32);
    fb.assign(sq, Expr::mul(Expr::var(d32), Expr::var(d32)));
    fb.ret(Expr::add(Expr::var(acc), Expr::var(sq)));
    fb.build()
}

/// Input width of the ROOT kernel.
pub const ROOT_IN_WIDTH: u32 = 32;

/// Loop trip count of [`root_function`]: one iteration per result bit.
pub const ROOT_ITERATIONS: u32 = ROOT_IN_WIDTH / 2;

/// The ROOT kernel: integer square root of a 32-bit value by the bit-pair
/// (non-restoring) method — a bounded loop of exactly
/// [`ROOT_ITERATIONS`] iterations, unrollable for synthesis.
pub fn root_function() -> Function {
    let mut fb = FunctionBuilder::new("root", 16);
    let x = fb.param("x", ROOT_IN_WIDTH);
    let rem = fb.local("rem", ROOT_IN_WIDTH);
    let res = fb.local("res", ROOT_IN_WIDTH);
    let bit = fb.local("bit", ROOT_IN_WIDTH);
    let i = fb.local("i", 8);
    fb.assign(rem, Expr::var(x));
    fb.assign(res, Expr::constant(0, ROOT_IN_WIDTH));
    fb.assign(
        bit,
        Expr::constant(1u64 << (ROOT_IN_WIDTH - 2), ROOT_IN_WIDTH),
    );
    fb.assign(i, Expr::constant(0, 8));
    fb.while_(
        Expr::lt(Expr::var(i), Expr::constant(ROOT_ITERATIONS as u64, 8)),
        |body| {
            let try_v = body.local("try", ROOT_IN_WIDTH);
            body.assign(try_v, Expr::add(Expr::var(res), Expr::var(bit)));
            body.if_else(
                Expr::ge(Expr::var(rem), Expr::var(try_v)),
                |t| {
                    t.assign(rem, Expr::sub(Expr::var(rem), Expr::var(try_v)));
                    t.assign(
                        res,
                        Expr::add(
                            Expr::shr(Expr::var(res), Expr::constant(1, ROOT_IN_WIDTH)),
                            Expr::var(bit),
                        ),
                    );
                },
                |e| {
                    e.assign(
                        res,
                        Expr::shr(Expr::var(res), Expr::constant(1, ROOT_IN_WIDTH)),
                    );
                },
            );
            body.assign(
                bit,
                Expr::shr(Expr::var(bit), Expr::constant(2, ROOT_IN_WIDTH)),
            );
            body.assign(i, Expr::add(Expr::var(i), Expr::constant(1, 8)));
        },
    );
    fb.ret(Expr::var(res));
    fb.build()
}

/// A media kernel compiled once and executed many times on the bytecode
/// [`Vm`] — the per-frame fast path. The tree-walking interpreter stays
/// the reference the equivalence tests hold the VM to.
///
/// [`CompiledKernel::run`] makes one run; [`CompiledKernel::run_rows`]
/// makes one run per row in a single call. DISTANCE is loop-free, so its
/// rows run lane-parallel ([`Vm::run_rows`]); ROOT has a loop, so its
/// rows would run one by one.
#[derive(Debug)]
pub struct CompiledKernel {
    vm: Vm,
}

impl CompiledKernel {
    /// Compiles an arbitrary kernel function.
    pub fn new(func: &Function) -> CompiledKernel {
        CompiledKernel {
            vm: Vm::new(compile(func)),
        }
    }

    /// The DISTANCE step kernel, ready to run per feature element.
    pub fn distance_step() -> CompiledKernel {
        CompiledKernel::new(&distance_step_function())
    }

    /// The ROOT kernel, ready to run per frame.
    pub fn root() -> CompiledKernel {
        CompiledKernel::new(&root_function())
    }

    /// Executes the kernel on `inputs`.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or if the kernel fails to return a value
    /// within the default step limit — impossible for the bounded-loop
    /// media kernels.
    #[inline]
    pub fn run(&mut self, inputs: &[u64]) -> u64 {
        self.vm
            .run_value(inputs)
            .expect("kernel exceeds step limit")
            .expect("kernel returns a value")
    }

    /// Executes the kernel once per row of `rows`, each row an
    /// independent run: the result equals [`CompiledKernel::run`] on each
    /// row in turn.
    ///
    /// # Panics
    ///
    /// As [`CompiledKernel::run`], on any row.
    pub fn run_rows<R: AsRef<[u64]>>(&mut self, rows: &[R]) -> Vec<u64> {
        self.vm
            .run_rows(rows)
            .into_iter()
            .map(|r| {
                r.expect("kernel exceeds step limit")
                    .expect("kernel returns a value")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::root as rust_root;
    use behav::bytecode::{compile, Vm};
    use behav::interp::{enumerate_bit_faults, Interpreter};
    use behav::unroll::unroll;

    #[test]
    fn distance_step_matches_rust() {
        let f = distance_step_function();
        for (a, b, acc) in [
            (0u64, 0u64, 0u64),
            (10, 3, 100),
            (3, 10, 100),
            (65535, 0, 0),
            (1000, 2000, 123456),
        ] {
            let out = Interpreter::new(&f)
                .run(&[a, b, acc])
                .expect("runs")
                .return_value
                .expect("returns");
            let d = (a as i64 - b as i64).unsigned_abs();
            let expected = (acc + d * d) & 0xFFFF_FFFF;
            assert_eq!(out, expected, "a={a} b={b} acc={acc}");
        }
    }

    #[test]
    fn root_kernel_matches_rust_isqrt() {
        let f = root_function();
        for x in [
            0u64,
            1,
            2,
            3,
            4,
            15,
            16,
            17,
            49,
            1023,
            1024,
            65535,
            100_000,
            4_000_000_000,
        ] {
            let out = Interpreter::new(&f)
                .run(&[x])
                .expect("runs")
                .return_value
                .expect("returns");
            assert_eq!(out, rust_root(x) as u64 & 0xFFFF, "x={x}");
        }
    }

    #[test]
    fn root_kernel_exhaustive_low_range() {
        let f = root_function();
        let mut interp = Interpreter::new(&f);
        for x in 0..=400u64 {
            let out = interp.run(&[x]).unwrap().return_value.unwrap();
            assert_eq!(out, rust_root(x) as u64, "x={x}");
        }
    }

    #[test]
    fn root_unrolls_loop_free_with_known_bound() {
        let f = root_function();
        let u = unroll(&f, ROOT_ITERATIONS);
        assert!(behav::unroll::is_loop_free(&u));
        for x in [0u64, 49, 65535, 999_999] {
            let a = Interpreter::new(&f).run(&[x]).unwrap().return_value;
            let b = Interpreter::new(&u).run(&[x]).unwrap().return_value;
            assert_eq!(a, b, "x={x}");
        }
    }

    #[test]
    fn kernels_have_branches_for_coverage() {
        // Both kernels must expose conditions, otherwise E4's coverage
        // experiment degenerates.
        assert!(distance_step_function().num_conditions() >= 1);
        assert!(root_function().num_conditions() >= 2);
    }

    /// Every kernel, through interpreter AND VM, bit-for-bit — including
    /// the unrolled variants the synthesis path consumes.
    #[test]
    fn kernels_agree_across_engines() {
        let distance = distance_step_function();
        let root = root_function();
        let cases: [(&Function, Vec<Vec<u64>>); 4] = [
            (
                &distance,
                vec![
                    vec![0, 0, 0],
                    vec![10, 3, 100],
                    vec![3, 10, 100],
                    vec![65535, 0, 0],
                    vec![1000, 2000, 123_456],
                ],
            ),
            (
                &root,
                vec![
                    vec![0],
                    vec![49],
                    vec![1023],
                    vec![65535],
                    vec![4_000_000_000],
                ],
            ),
            (&unroll(&distance, 1), vec![vec![9, 4, 7]]),
            (
                &unroll(&root, ROOT_ITERATIONS),
                vec![vec![0], vec![49], vec![999_999]],
            ),
        ];
        for (f, vectors) in &cases {
            let mut vm = Vm::new(compile(f));
            for v in vectors {
                let interp = Interpreter::new(f).run(v);
                assert_eq!(interp, vm.run(v), "{} diverged on {v:?}", f.name());
            }
        }
    }

    /// Faulted kernel runs must also agree — the ATPG sweep depends on it.
    #[test]
    fn faulted_kernels_agree_across_engines() {
        for f in [distance_step_function(), root_function()] {
            let mut vm = Vm::new(compile(&f));
            let vector: Vec<u64> = (0..f.num_params() as u64).map(|i| 100 + i * 37).collect();
            // Sampled faults keep the debug-build runtime reasonable.
            for fault in enumerate_bit_faults(&f).into_iter().step_by(5) {
                vm.set_fault(Some(fault));
                let interp = Interpreter::new(&f).with_fault(fault).run(&vector);
                assert_eq!(interp, vm.run(&vector), "{} fault {fault:?}", f.name());
            }
        }
    }

    #[test]
    fn compiled_kernels_match_reference_functions() {
        let mut droot = CompiledKernel::root();
        let xs = [0u64, 1, 50, 65_535, 1_000_000];
        for x in xs {
            assert_eq!(droot.run(&[x]), rust_root(x) as u64 & 0xFFFF);
        }
        let roots: Vec<u64> = xs.iter().map(|&x| rust_root(x) as u64 & 0xFFFF).collect();
        assert_eq!(droot.run_rows(&xs.map(|x| [x])), roots);
        let f = distance_step_function();
        let mut dist = CompiledKernel::distance_step();
        let rows = [[0u64, 0u64, 0u64], [9, 4, 11], [4, 9, 11], [65535, 0, 7]];
        for [a, b, acc] in rows {
            let got = dist.run(&[a, b, acc]);
            let interp = Interpreter::new(&f).run(&[a, b, acc]).unwrap();
            assert_eq!(Some(got), interp.return_value);
            let d = (a as i64 - b as i64).unsigned_abs();
            assert_eq!(got, (acc + d * d) & 0xFFFF_FFFF);
        }
        let per_call: Vec<u64> = rows.iter().map(|r| dist.run(r)).collect();
        assert_eq!(dist.run_rows(&rows), per_call);
    }

    /// Levels 1–3 run DISTANCE through `run_rows`, which is lane-parallel
    /// only for a lane-eligible program. Without this pin, a compiler
    /// change that sent DISTANCE back to one run per element would show
    /// only as host time. ROOT has a loop and runs one row at a time.
    #[test]
    fn distance_is_lane_eligible_and_root_is_not() {
        assert!(compile(&distance_step_function()).is_lane_eligible());
        assert!(!compile(&root_function()).is_lane_eligible());
    }
}
