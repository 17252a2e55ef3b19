//! Cross-crate property test: the lane-oriented batch executor is
//! bit-identical to the scalar path over random `(program, arch,
//! steps, noise seed, sigma)` tuples.
//!
//! The grid suite in `ft-machine` pins the equivalence over a fixed
//! sweep; this fuzzes the same claim end-to-end through the real
//! toolchain — outlined workload programs as well as synthetic ones,
//! every architecture model and arbitrary run shapes.

use funcytuner::compiler::{Compiler, LoopFeatures, Module, ProgramIr};
use funcytuner::flags::rng::rng_for;
use funcytuner::flags::Cv;
use funcytuner::machine::{
    execute, execute_batch, execute_batch_total, execute_total, link, Architecture, BatchPlan,
    ExecOptions, ExecShape, LinkedProgram,
};
use funcytuner::outline::outline_with_defaults;
use funcytuner::workloads::workload_by_name;
use proptest::prelude::*;

fn synthetic_program(n_loops: usize, seed: u64) -> ProgramIr {
    let mut modules = Vec::new();
    for i in 0..n_loops {
        modules.push(Module::hot_loop(
            i,
            &format!("k{i}"),
            LoopFeatures::synthetic(seed.wrapping_add(i as u64 * 17)),
            &[1],
        ));
    }
    modules.push(Module::non_loop(n_loops, 0.05, 3e4));
    ProgramIr::new("prop-batch", modules, vec![])
}

/// A real outlined workload program (exercises call edges, shared
/// structs, and non-synthetic feature distributions).
fn workload_program(arch: &Architecture, seed: u64) -> ProgramIr {
    let compiler = Compiler::icc(arch.target);
    let w = workload_by_name("swim").expect("bench exists");
    let ir = w.instantiate(w.tuning_input(arch.name));
    let (outlined, _) = outline_with_defaults(&ir, &compiler, arch, 3, seed % 13);
    outlined.ir
}

fn arch_for(sel: u8) -> Architecture {
    let mut archs = Architecture::extended();
    archs.remove(usize::from(sel) % archs.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-lane `to_bits` equality between `execute_batch_total` and W
    /// scalar `execute_total` runs, between every module time
    /// `execute_batch` keeps and `execute(..).per_module_s`, and
    /// between `execute(..).total_s` and `execute_total`, instrumented
    /// and plain, over random tuples.
    #[test]
    fn batch_path_is_bit_identical_to_scalar(
        seed in any::<u64>(),
        arch_sel in any::<u8>(),
        n in 2usize..7,
        w in 1usize..10,
        steps in 1u32..12,
        noise_root in any::<u64>(),
        sigma_sel in 0u8..3,
        instrumented in any::<bool>(),
        use_workload in any::<bool>(),
    ) {
        let arch = arch_for(arch_sel);
        let ir = if use_workload {
            workload_program(&arch, seed)
        } else {
            synthetic_program(n, seed)
        };
        let c = Compiler::icc(arch.target);
        let mut rng = rng_for(seed, "prop-batch");
        let linked: Vec<LinkedProgram> = (0..w)
            .map(|k| {
                let objects = if k % 2 == 0 {
                    c.compile_program(&ir, &c.space().sample(&mut rng))
                } else {
                    let a: Vec<Cv> =
                        (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect();
                    c.compile_mixed(&ir, &a)
                };
                link(objects, &ir, &arch)
            })
            .collect();
        let shape = ExecShape {
            steps,
            sigma: [0.0, 0.006, 0.04][usize::from(sigma_sel)],
            instrumented,
        };
        let plan = BatchPlan::new(&ir, &arch, shape);
        let lanes: Vec<(&LinkedProgram, u64)> = linked
            .iter()
            .enumerate()
            .map(|(k, l)| (l, noise_root.wrapping_add(k as u64 * 0x9E37_79B9)))
            .collect();

        let batch = execute_batch_total(&plan, &lanes);
        let scalar: Vec<f64> = lanes
            .iter()
            .map(|(l, s)| execute_total(l, &arch, &plan.shape().options(*s)))
            .collect();
        for k in 0..w {
            prop_assert_eq!(
                scalar[k].to_bits(),
                batch[k].to_bits(),
                "lane {}: scalar {} != batch {} ({:?} on {})",
                k, scalar[k], batch[k], shape, arch.name
            );
        }

        // `execute` sums its per-module vector; `execute_total` keeps a
        // running sum in the same order, so the totals share every bit.
        // The batch kernel's per-module output is `execute`'s vector.
        for instrumented in [false, true] {
            let plan = BatchPlan::new(&ir, &arch, ExecShape { instrumented, ..shape });
            let times = execute_batch(&plan, &lanes);
            for (k, (l, s)) in lanes.iter().enumerate() {
                let opts = plan.shape().options(*s);
                let meas = execute(l, &arch, &opts);
                let total = execute_total(l, &arch, &opts);
                prop_assert_eq!(
                    meas.total_s.to_bits(),
                    total.to_bits(),
                    "lane seed {}: execute vs execute_total (instrumented {})",
                    s, instrumented
                );
                prop_assert_eq!(times.totals[k].to_bits(), total.to_bits());
                for (i, t) in meas.per_module_s.iter().enumerate() {
                    prop_assert_eq!(
                        t.to_bits(),
                        times.per_module[i][k].to_bits(),
                        "lane {} module {}: execute vs execute_batch (instrumented {})",
                        k, i, instrumented
                    );
                }
            }
        }
    }

    /// The options round-trip the plan shape: a plan built from
    /// `ExecShape::of(opts)` re-issues `opts` for the same seed, so
    /// scalar replays of batch lanes can never diverge by shape.
    #[test]
    fn shape_roundtrip(steps in 1u32..50, seed in any::<u64>(), instrumented in any::<bool>()) {
        let opts = if instrumented {
            ExecOptions::instrumented(steps, seed)
        } else {
            ExecOptions::new(steps, seed)
        };
        let shape = ExecShape::of(&opts);
        prop_assert_eq!(shape.options(seed), opts);
    }
}
