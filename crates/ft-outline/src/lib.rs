//! Hot-loop detection and loop outlining (paper §3.3).
//!
//! FuncyTuner profiles the target application at
//! `-O3 -qopenmp -fp-model source` with Caliper, then outlines **every
//! loop whose runtime is at least 1.0 % of the end-to-end baseline**
//! into its own compilation module. Loops below the threshold — and
//! all scattered non-loop code — are folded into a single residual
//! module whose runtime is *derived* by subtraction rather than
//! measured directly.
//!
//! In this reproduction the workload models arrive with all candidate
//! loops as modules; [`outline`] performs the selection and folding,
//! producing the `J+1`-module [`ProgramIr`] the search algorithms run
//! on. Outlining is architecture-specific (profiling happens on the
//! target platform), exactly as in the paper.

use ft_caliper::Caliper;
use ft_compiler::{Compiler, Module, ModuleKind, ProgramIr};
use ft_machine::{execute_profiled, Architecture, ExecOptions};
use serde::{Deserialize, Serialize};

/// The paper's hot-loop threshold: ≥ 1 % of end-to-end runtime.
pub const HOT_THRESHOLD: f64 = 0.01;

/// Result of baseline profiling: per-loop shares at `-O3`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotLoopReport {
    /// Program profiled.
    pub program: String,
    /// Architecture profiled on.
    pub arch: &'static str,
    /// Baseline end-to-end seconds (instrumented run).
    pub end_to_end_s: f64,
    /// `(module id, name, seconds, fraction)` per original module, in
    /// module order.
    pub shares: Vec<(usize, String, f64, f64)>,
    /// Ids of loops at or above the threshold.
    pub hot: Vec<usize>,
    /// Ids of loops below the threshold (to be folded away).
    pub cold: Vec<usize>,
    /// Threshold used.
    pub threshold: f64,
    /// Time-steps of the profiling run.
    pub steps: u32,
}

/// Profiles `ir` at `-O3` on `arch` through Caliper and classifies
/// loops against `threshold`.
pub fn detect_hot_loops(
    ir: &ProgramIr,
    compiler: &Compiler,
    arch: &Architecture,
    steps: u32,
    threshold: f64,
    noise_seed: u64,
) -> HotLoopReport {
    let caliper = Caliper::real_time();
    let objects = compiler.compile_program(ir, &compiler.space().baseline());
    let linked = ft_machine::link(objects, ir, arch);
    let meas = execute_profiled(
        &linked,
        arch,
        &ExecOptions::instrumented(steps, noise_seed),
        &caliper,
    );
    let snap = caliper.snapshot();

    let mut shares = Vec::with_capacity(ir.len());
    let mut hot = Vec::new();
    let mut cold = Vec::new();
    for m in &ir.modules {
        let secs = snap.inclusive(&m.name);
        let frac = secs / meas.total_s;
        shares.push((m.id, m.name.clone(), secs, frac));
        if m.features().is_some() {
            if frac >= threshold {
                hot.push(m.id);
            } else {
                cold.push(m.id);
            }
        }
    }
    HotLoopReport {
        program: ir.name.clone(),
        arch: arch.name,
        end_to_end_s: meas.total_s,
        shares,
        hot,
        cold,
        threshold,
        steps,
    }
}

/// An outlined program: hot loops as modules 0..J, the folded
/// non-loop+cold module last, and the mapping back to original ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutlinedProgram {
    /// The `J+1`-module program the tuner operates on.
    pub ir: ProgramIr,
    /// `original_id[j]` is the source-module id of outlined module `j`
    /// (the folded module maps to the original non-loop module).
    pub original_id: Vec<usize>,
    /// Number of outlined hot loops (the paper's J).
    pub j: usize,
}

/// Outlines hot loops into modules and folds cold loops into the
/// non-loop module, using baseline per-loop times from `report`.
pub fn outline(ir: &ProgramIr, report: &HotLoopReport, arch: &Architecture) -> OutlinedProgram {
    assert_eq!(ir.name, report.program, "report belongs to another program");
    let steps = f64::from(report.steps.max(1));
    let mut modules = Vec::new();
    let mut original_id = Vec::new();
    for &id in &report.hot {
        let src = &ir.modules[id];
        let mut m = src.clone();
        m.id = modules.len();
        modules.push(m);
        original_id.push(id);
    }
    let j = modules.len();
    assert!(j > 0, "no hot loops above threshold");

    // Fold cold loops + original non-loop into the residual module.
    let (mut residual_secs, mut residual_code, nl_id) = ir
        .modules
        .iter()
        .find_map(|m| match m.kind {
            ModuleKind::NonLoop {
                seconds_per_step,
                code_bytes,
            } => Some((seconds_per_step, code_bytes, m.id)),
            _ => None,
        })
        .expect("program must have a non-loop module");
    for &id in &report.cold {
        let measured = report.shares[id].2;
        // Convert the measured (parallel, arch-specific) time back into
        // the serial-reference convention the non-loop model divides by.
        residual_secs += measured / steps * arch.scalar_speed;
        residual_code += ir.modules[id].base_code_bytes() * 0.5;
    }
    modules.push(Module::non_loop(j, residual_secs, residual_code));
    original_id.push(nl_id);

    // Remap call edges whose endpoints survived; edges touching folded
    // loops are redirected to the residual module.
    let remap = |orig: usize| -> usize { original_id.iter().position(|o| *o == orig).unwrap_or(j) };
    let mut edges = Vec::new();
    for e in &ir.call_edges {
        let from = remap(e.from);
        let to = remap(e.to);
        if from != to {
            edges.push(ft_compiler::CallEdge {
                from,
                to,
                calls_per_step: e.calls_per_step,
            });
        }
    }

    let mut out = ProgramIr::new(&ir.name, modules, edges);
    out.pgo_hostile = ir.pgo_hostile;
    OutlinedProgram {
        ir: out,
        original_id,
        j,
    }
}

/// Outlines `ir` using a *fixed* hot-loop set (module ids of `ir`).
///
/// Used by the §4.3 input-sensitivity experiments: the executable is
/// tuned once on the tuning input, so its module structure is frozen;
/// evaluating on another input must keep the same outlining. The
/// function re-profiles `ir` (for the cold-loop residual times on the
/// new input) but classifies loops by `hot_ids` instead of the
/// threshold.
pub fn outline_with_hot_set(
    ir: &ProgramIr,
    hot_ids: &[usize],
    compiler: &Compiler,
    arch: &Architecture,
    steps: u32,
    noise_seed: u64,
) -> OutlinedProgram {
    let mut report = detect_hot_loops(ir, compiler, arch, steps, 0.0, noise_seed);
    report.hot = hot_ids.to_vec();
    report.cold = ir
        .hot_loop_ids()
        .into_iter()
        .filter(|id| !hot_ids.contains(id))
        .collect();
    outline(ir, &report, arch)
}

/// Convenience: profile + outline with the paper's 1 % threshold.
pub fn outline_with_defaults(
    ir: &ProgramIr,
    compiler: &Compiler,
    arch: &Architecture,
    steps: u32,
    noise_seed: u64,
) -> (OutlinedProgram, HotLoopReport) {
    let report = detect_hot_loops(ir, compiler, arch, steps, HOT_THRESHOLD, noise_seed);
    let outlined = outline(ir, &report, arch);
    (outlined, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_workloads::{suite, workload_by_name};

    fn bdw_setup(name: &str) -> (ProgramIr, Compiler, Architecture, u32) {
        let arch = Architecture::broadwell();
        let w = workload_by_name(name).unwrap();
        let input = w.tuning_input(arch.name).clone();
        let ir = w.instantiate(&input);
        (ir, Compiler::icc(arch.target), arch, input.steps)
    }

    #[test]
    fn threshold_splits_hot_and_cold() {
        let (ir, c, arch, steps) = bdw_setup("CloverLeaf");
        let report = detect_hot_loops(&ir, &c, &arch, steps, HOT_THRESHOLD, 7);
        assert!(!report.hot.is_empty());
        assert!(!report.cold.is_empty(), "CloverLeaf model has sub-1% loops");
        // The five Table 3 kernels must all be hot.
        for k in ["dt", "cell3", "cell7", "mom9", "acc"] {
            let id = ir.module_by_name(k).unwrap().id;
            assert!(report.hot.contains(&id), "{k} not hot");
        }
        // Fractions sum to ~1 (instrumentation overhead aside).
        let total: f64 = report.shares.iter().map(|(_, _, _, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
    }

    #[test]
    fn outline_renumbers_and_folds() {
        let (ir, c, arch, steps) = bdw_setup("CloverLeaf");
        let (outlined, report) = outline_with_defaults(&ir, &c, &arch, steps, 7);
        assert_eq!(outlined.j, report.hot.len());
        assert_eq!(outlined.ir.len(), outlined.j + 1);
        assert_eq!(outlined.ir.hot_loop_count(), outlined.j);
        // Ids are dense and the non-loop module is last.
        assert!(outlined.ir.modules.last().unwrap().features().is_none());
        // Folded residual is bigger than the raw non-loop share.
        let raw_nl = ir
            .modules
            .iter()
            .find_map(|m| match m.kind {
                ModuleKind::NonLoop {
                    seconds_per_step, ..
                } => Some(seconds_per_step),
                _ => None,
            })
            .unwrap();
        let folded_nl = outlined
            .ir
            .modules
            .last()
            .and_then(|m| match m.kind {
                ModuleKind::NonLoop {
                    seconds_per_step, ..
                } => Some(seconds_per_step),
                _ => None,
            })
            .unwrap();
        assert!(folded_nl > raw_nl);
    }

    #[test]
    fn outlining_preserves_pgo_hostility() {
        let (ir, c, arch, steps) = bdw_setup("LULESH");
        let (outlined, _) = outline_with_defaults(&ir, &c, &arch, steps, 7);
        assert!(outlined.ir.pgo_hostile);
    }

    #[test]
    fn j_matches_paper_range_for_all_benchmarks() {
        let arch = Architecture::broadwell();
        let c = Compiler::icc(arch.target);
        for w in suite() {
            let input = w.tuning_input(arch.name).clone();
            let ir = w.instantiate(&input);
            let (outlined, _) = outline_with_defaults(&ir, &c, &arch, input.steps, 3);
            assert!(
                (4..=33).contains(&outlined.j),
                "{}: J = {}",
                w.meta.name,
                outlined.j
            );
        }
    }

    #[test]
    fn edges_are_remapped_not_dangling() {
        let (ir, c, arch, steps) = bdw_setup("LULESH");
        let (outlined, _) = outline_with_defaults(&ir, &c, &arch, steps, 7);
        for e in &outlined.ir.call_edges {
            assert!(e.from < outlined.ir.len());
            assert!(e.to < outlined.ir.len());
        }
    }

    #[test]
    #[should_panic(expected = "report belongs to another program")]
    fn outline_rejects_mismatched_report() {
        let (ir, c, arch, steps) = bdw_setup("swim");
        let report = detect_hot_loops(&ir, &c, &arch, steps, HOT_THRESHOLD, 7);
        let (other, ..) = bdw_setup("AMG");
        let _ = outline(&other, &report, &arch);
    }

    #[test]
    #[ignore = "calibration printout, run manually"]
    fn print_baseline_calibration() {
        for arch in Architecture::all() {
            let c = Compiler::icc(arch.target);
            for w in suite() {
                let input = w.tuning_input(arch.name).clone();
                let ir = w.instantiate(&input);
                let report = detect_hot_loops(&ir, &c, &arch, input.steps, HOT_THRESHOLD, 3);
                println!(
                    "{:<13} {:<11} steps={:<3} O3 end-to-end = {:7.2} s (J_hot={})",
                    arch.name,
                    w.meta.name,
                    input.steps,
                    report.end_to_end_s,
                    report.hot.len()
                );
                if w.meta.name == "CloverLeaf" && arch.name == "Broadwell" {
                    for (_, name, secs, frac) in &report.shares {
                        println!("    {name:<15} {secs:8.3} s  {:5.2} %", frac * 100.0);
                    }
                }
            }
        }
    }
}
