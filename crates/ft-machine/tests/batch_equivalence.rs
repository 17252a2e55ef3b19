//! Bit-exactness of the lane-oriented batch executor.
//!
//! Every lane of [`execute_batch_total`] must reproduce the scalar
//! path's `execute_total` bit-for-bit — same program, same
//! architecture, same run shape, same noise seed — and every module
//! time [`execute_batch`] keeps must reproduce the scalar
//! `execute(..).per_module_s` entry. The grid here sweeps
//! programs × architectures (including the AVX-512 future platform) ×
//! noise seeds × shapes (noisy, noise-free, instrumented); the
//! cross-crate proptest in the workspace root fuzzes the same
//! equivalence over random tuples.

use ft_compiler::{Compiler, LoopFeatures, Module, ProgramIr};
use ft_flags::rng::rng_for;
use ft_flags::Cv;
use ft_machine::{
    execute, execute_batch, execute_batch_total, execute_total, link, Architecture, BatchPlan,
    ExecOptions, ExecShape, LinkedProgram,
};

fn program(n_loops: usize, seed: u64) -> ProgramIr {
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
    ProgramIr::new("batch-eq", modules, vec![])
}

/// W linked candidates of `ir` on `arch`: a mix of uniform and
/// per-module assignments so LTO overrides and conflict factors vary
/// across lanes.
fn candidates(ir: &ProgramIr, arch: &Architecture, w: usize, seed: u64) -> Vec<LinkedProgram> {
    let c = Compiler::icc(arch.target);
    let mut rng = rng_for(seed, "batch-eq");
    (0..w)
        .map(|k| {
            let objects = if k % 2 == 0 {
                c.compile_program(ir, &c.space().sample(&mut rng))
            } else {
                let a: Vec<Cv> = (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect();
                c.compile_mixed(ir, &a)
            };
            link(objects, ir, arch)
        })
        .collect()
}

fn assert_lanes_bit_equal(plan: &BatchPlan, lanes: &[(&LinkedProgram, u64)], arch: &Architecture) {
    let batch = execute_batch_total(plan, lanes);
    let times = execute_batch(plan, lanes);
    assert_eq!(times.per_module.len(), plan.module_count());
    for (k, ((linked, seed), b)) in lanes.iter().zip(&batch).enumerate() {
        let opts = plan.shape().options(*seed);
        let scalar = execute_total(linked, arch, &opts);
        assert_eq!(
            scalar.to_bits(),
            b.to_bits(),
            "lane {k}: scalar {scalar} != batch {b} (shape {:?})",
            plan.shape()
        );
        assert_eq!(times.totals[k].to_bits(), b.to_bits(), "lane {k}: totals");
        let per_module = execute(linked, arch, &opts).per_module_s;
        for (i, t) in per_module.iter().enumerate() {
            assert_eq!(
                t.to_bits(),
                times.per_module[i][k].to_bits(),
                "lane {k} module {i}: scalar {t} != batch {} (shape {:?})",
                times.per_module[i][k],
                plan.shape()
            );
        }
    }
}

#[test]
fn batch_matches_scalar_across_architectures_and_shapes() {
    let shapes = [
        ExecShape::of(&ExecOptions::new(7, 0)),
        ExecShape::of(&ExecOptions::exact(7)),
        ExecShape::of(&ExecOptions::instrumented(7, 0)),
    ];
    for (p, arch) in Architecture::extended().into_iter().enumerate() {
        let ir = program(3 + p % 3, 0xB0_0B5 + p as u64);
        let linked = candidates(&ir, &arch, 9, 40 + p as u64);
        for shape in shapes {
            let plan = BatchPlan::new(&ir, &arch, shape);
            let lanes: Vec<(&LinkedProgram, u64)> = linked
                .iter()
                .enumerate()
                .map(|(k, l)| (l, 1000 * p as u64 + k as u64 * 31))
                .collect();
            assert_lanes_bit_equal(&plan, &lanes, &arch);
        }
    }
}

#[test]
fn batch_matches_scalar_across_noise_seeds() {
    let arch = Architecture::broadwell();
    let ir = program(5, 77);
    let linked = candidates(&ir, &arch, 4, 78);
    let plan = BatchPlan::new(&ir, &arch, ExecShape::of(&ExecOptions::new(11, 0)));
    for round in 0..16u64 {
        let lanes: Vec<(&LinkedProgram, u64)> = linked
            .iter()
            .enumerate()
            .map(|(k, l)| (l, round.wrapping_mul(0x9E37) ^ k as u64))
            .collect();
        assert_lanes_bit_equal(&plan, &lanes, &arch);
    }
}

#[test]
fn duplicate_candidates_under_different_seeds_differ_only_by_noise() {
    // The same linked program in two lanes with two seeds: both lanes
    // must match their own scalar runs (the per-lane seed is really
    // honored, not shared).
    let arch = Architecture::sandy_bridge();
    let ir = program(4, 5);
    let linked = candidates(&ir, &arch, 1, 6);
    let plan = BatchPlan::new(&ir, &arch, ExecShape::of(&ExecOptions::new(9, 0)));
    let lanes = vec![(&linked[0], 1u64), (&linked[0], 2u64)];
    assert_lanes_bit_equal(&plan, &lanes, &arch);
    let t = execute_batch_total(&plan, &lanes);
    assert_ne!(t[0], t[1], "different seeds must roll different noise");
}

#[test]
fn empty_batch_is_empty() {
    let arch = Architecture::broadwell();
    let ir = program(2, 1);
    let plan = BatchPlan::new(&ir, &arch, ExecShape::of(&ExecOptions::new(3, 0)));
    assert!(execute_batch_total(&plan, &[]).is_empty());
    let times = execute_batch(&plan, &[]);
    assert!(times.totals.is_empty());
    assert_eq!(
        times.per_module,
        vec![Vec::<f64>::new(); plan.module_count()]
    );
}

#[test]
#[should_panic(expected = "module count mismatch")]
fn module_count_mismatch_panics() {
    let arch = Architecture::broadwell();
    let ir_small = program(2, 9);
    let ir_big = program(5, 9);
    let plan = BatchPlan::new(&ir_small, &arch, ExecShape::of(&ExecOptions::new(3, 0)));
    let linked = candidates(&ir_big, &arch, 1, 10);
    let lanes = vec![(&linked[0], 0u64)];
    let _ = execute_batch_total(&plan, &lanes);
}
