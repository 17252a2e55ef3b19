//! Shared plumbing for the experiment registry.

use crate::config::ReproConfig;
use ft_compiler::{Compiler, PgoProfile};
use ft_core::{EvalContext, Tuner, TuningRun};
use ft_flags::rng::{derive_seed, derive_seed_idx};
use ft_flags::Cv;
use ft_machine::Architecture;
use ft_outline::outline_with_hot_set;
use ft_workloads::{InputConfig, Workload};

/// Runs the full FuncyTuner pipeline (outline, collection, Random, FR,
/// G, CFR) for one workload on one architecture.
pub fn tune_workload(w: &Workload, arch: &Architecture, cfg: &ReproConfig) -> TuningRun {
    let mut tuner = Tuner::new(w, arch)
        .budget(cfg.k)
        .focus(cfg.x)
        .seed(derive_seed(
            cfg.seed,
            &format!("{}-{}", w.meta.name, arch.name),
        ))
        .faults(cfg.fault_model())
        .cache_capacity(cfg.capacity());
    if let Some(cap) = cfg.steps_cap {
        tuner = tuner.cap_steps(cap);
    }
    tuner.run()
}

/// Builds an evaluation context for a workload on an arbitrary input,
/// keeping the hot-loop set of an existing tuning run (the §4.3
/// frozen-executable protocol).
pub fn ctx_on_input(
    run: &TuningRun,
    w: &Workload,
    input: &InputConfig,
    cfg: &ReproConfig,
) -> EvalContext {
    let mut input = input.clone();
    input.steps = cfg.steps(input.steps);
    let raw_ir = w.instantiate(&input);
    let compiler = Compiler::icc(run.ctx.arch.target);
    let hot: Vec<usize> = run.outlined.original_id[..run.outlined.j].to_vec();
    let outlined = outline_with_hot_set(
        &raw_ir,
        &hot,
        &compiler,
        &run.ctx.arch,
        input.steps,
        derive_seed(cfg.seed, &format!("xin-{}-{}", w.meta.name, input.name)),
    );
    EvalContext::new(
        outlined.ir,
        compiler,
        run.ctx.arch.clone(),
        input.steps,
        derive_seed(
            cfg.seed,
            &format!("xin-noise-{}-{}", w.meta.name, input.name),
        ),
    )
    .with_cache_capacity(cfg.capacity())
}

/// Speedup of an assignment over `-O3` in a context (mean of repeats).
pub fn speedup_in_ctx(ctx: &EvalContext, assignment: &[Cv], repeats: u32) -> f64 {
    let base = vec![ctx.space().baseline(); ctx.modules()];
    let mut tuned = 0.0;
    let mut o3 = 0.0;
    for r in 0..repeats.max(1) {
        tuned += ctx
            .measure(assignment, derive_seed_idx(ctx.noise_root, u64::from(r)))
            .total_s;
        o3 += ctx
            .measure(&base, derive_seed_idx(ctx.noise_root ^ 0x0F, u64::from(r)))
            .total_s;
    }
    o3 / tuned
}

/// Speedup of the PGO-built executable over `-O3` in a context.
///
/// Returns 1.0 speedups for PGO-hostile programs (the binary ships at
/// plain `-O3` when instrumentation fails).
pub fn pgo_speedup_in_ctx(ctx: &EvalContext, repeats: u32) -> f64 {
    let base = ctx.space().baseline();
    match PgoProfile::collect(&ctx.ir) {
        Err(_) => 1.0,
        Ok(profile) => {
            let objects: Vec<_> = ctx
                .ir
                .modules
                .iter()
                .map(|m| ctx.compiler.compile_module_with_profile(m, &base, &profile))
                .collect();
            let linked = ft_machine::link(objects, &ctx.ir, &ctx.arch);
            let base = vec![base; ctx.modules()];
            let mut tuned = 0.0;
            let mut o3 = 0.0;
            for r in 0..repeats.max(1) {
                tuned += ft_machine::execute(
                    &linked,
                    &ctx.arch,
                    &ft_machine::ExecOptions::new(ctx.steps, derive_seed_idx(0x960, u64::from(r))),
                )
                .total_s;
                o3 += ctx
                    .measure(&base, derive_seed_idx(ctx.noise_root ^ 0x1F, u64::from(r)))
                    .total_s;
            }
            o3 / tuned
        }
    }
}

/// Formats a speedup for figure notes.
pub fn fmt_pct(speedup: f64) -> String {
    format!("{:+.1}%", (speedup - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_workloads::workload_by_name;

    #[test]
    fn tune_workload_quick_is_coherent() {
        let cfg = ReproConfig::quick();
        let arch = Architecture::broadwell();
        let w = workload_by_name("swim").unwrap();
        let run = tune_workload(&w, &arch, &cfg);
        assert_eq!(run.workload, "swim");
        assert!(run.cfr.speedup() > 0.95);
        assert!(run.greedy.independent_speedup > 1.0);
    }

    #[test]
    fn ctx_on_input_keeps_hot_set() {
        let cfg = ReproConfig::quick();
        let arch = Architecture::broadwell();
        let w = workload_by_name("swim").unwrap();
        let run = tune_workload(&w, &arch, &cfg);
        let ctx = ctx_on_input(&run, &w, &w.large, &cfg);
        assert_eq!(ctx.modules(), run.outlined.j + 1);
        let s = speedup_in_ctx(&ctx, &run.cfr.assignment, 3);
        assert!(s > 0.9, "large-input speedup collapsed: {s}");
    }

    #[test]
    fn pgo_speedup_handles_hostile_programs() {
        let cfg = ReproConfig::quick();
        let arch = Architecture::broadwell();
        let w = workload_by_name("LULESH").unwrap();
        let run = tune_workload(&w, &arch, &cfg);
        let ctx = ctx_on_input(&run, &w, w.tuning_input(arch.name), &cfg);
        assert_eq!(pgo_speedup_in_ctx(&ctx, 2), 1.0);
    }

    #[test]
    fn fmt_pct_formats() {
        assert_eq!(fmt_pct(1.094), "+9.4%");
        assert_eq!(fmt_pct(0.95), "-5.0%");
    }
}
