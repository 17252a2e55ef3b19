//! The roofline execution model.
//!
//! Prices one linked executable on one architecture: per-loop compute
//! throughput (SIMD width and hardware efficiency, divergence masking,
//! unroll overhead removal, ILP, spills, back-end quality, I-cache
//! pressure), memory traffic (stride utilization, prefetch, streaming
//! stores, LLC residency, NUMA), OpenMP thread scaling, cross-module
//! call costs, and lognormal measurement noise. Per-loop times can be
//! recorded through `ft-caliper` exactly like the paper's instrumented
//! data-collection runs.

use crate::arch::Architecture;
use crate::batch;
use crate::link::LinkedProgram;
use crate::noise;
use ft_caliper::Caliper;
use ft_compiler::decisions::CompiledModule;
use ft_compiler::ir::ModuleKind;
use ft_compiler::response::jitter;
use ft_compiler::FaultModel;
use ft_flags::rng::derive_seed_idx;
use serde::{Deserialize, Serialize};

/// Execution parameters for one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecOptions {
    /// Simulation time-steps to run.
    pub steps: u32,
    /// Seed for measurement noise; vary it to model run-to-run
    /// variation, fix it for exact reproducibility.
    pub noise_seed: u64,
    /// Relative noise level (lognormal sigma).
    pub sigma: f64,
    /// True when the binary carries Caliper instrumentation (adds the
    /// paper's < 3 % overhead).
    pub instrumented: bool,
}

impl ExecOptions {
    /// `steps` time-steps with the default noise model, no
    /// instrumentation.
    pub fn new(steps: u32, noise_seed: u64) -> Self {
        ExecOptions {
            steps,
            noise_seed,
            sigma: noise::DEFAULT_SIGMA,
            instrumented: false,
        }
    }

    /// Same, with Caliper instrumentation enabled.
    pub fn instrumented(steps: u32, noise_seed: u64) -> Self {
        ExecOptions {
            instrumented: true,
            ..Self::new(steps, noise_seed)
        }
    }

    /// Noise-free variant (for model analysis and tests).
    pub fn exact(steps: u32) -> Self {
        ExecOptions {
            steps,
            noise_seed: 0,
            sigma: 0.0,
            instrumented: false,
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMeasurement {
    /// End-to-end wall time, seconds.
    pub total_s: f64,
    /// Per-module wall time, seconds (hot loops measured, non-loop
    /// derived — same convention as §3.3).
    pub per_module_s: Vec<f64>,
    /// Steps executed.
    pub steps: u32,
}

impl RunMeasurement {
    /// Per-module time for the module with the given id, or `None`
    /// for an out-of-range id (e.g. a module index from a differently
    /// outlined program).
    pub fn module_s(&self, id: usize) -> Option<f64> {
        self.per_module_s.get(id).copied()
    }
}

/// The outcome of one *fallible* run under a [`FaultModel`].
///
/// [`execute`] itself stays infallible (the zero-fault fast path);
/// [`try_execute`] wraps it with the seeded fault rolls and reports
/// failures here instead of panicking, so a resilient harness can
/// retry, quarantine, or charge a timeout budget.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The run completed and measured (possibly as a noisy outlier).
    Ok(RunMeasurement),
    /// A module failed to compile; no executable was ever produced.
    /// Deterministic per `(module, CV)` — retrying cannot help.
    CompileError {
        /// Id of the module whose compilation failed.
        module: usize,
    },
    /// The run crashed partway through (transient; retryable).
    Crash {
        /// Wall-clock spent before the crash, seconds — still charged.
        elapsed_s: f64,
    },
    /// The run exceeded its wall-clock budget and was killed.
    /// Deterministic per executable — retrying cannot help.
    Timeout {
        /// The budget that was charged, seconds.
        budget_s: f64,
    },
}

impl RunOutcome {
    /// End-to-end time for scoring: the measurement on success,
    /// `+inf` for any failure (an infinite time never wins an argmin).
    pub fn total_s(&self) -> f64 {
        match self {
            RunOutcome::Ok(m) => m.total_s,
            _ => f64::INFINITY,
        }
    }

    /// Machine time this outcome costs the tuning ledger: the full
    /// measurement, the partial time before a crash, or the killed
    /// run's whole budget. Compile errors cost no machine time.
    pub fn charged_s(&self) -> f64 {
        match self {
            RunOutcome::Ok(m) => m.total_s,
            RunOutcome::CompileError { .. } => 0.0,
            RunOutcome::Crash { elapsed_s } => *elapsed_s,
            RunOutcome::Timeout { budget_s } => *budget_s,
        }
    }

    /// True on a completed measurement.
    pub fn is_ok(&self) -> bool {
        matches!(self, RunOutcome::Ok(_))
    }
}

/// Component costs of one loop's per-step time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoopCost {
    /// Parallel compute time, seconds per step.
    pub compute_s: f64,
    /// Memory-traffic time, seconds per step.
    pub memory_s: f64,
    /// Barriers, calls, and interference overheads, seconds per step.
    pub overhead_s: f64,
    /// Total per-step time (roofline combination of the above).
    pub total_s: f64,
}

impl LoopCost {
    /// True when the memory roof limits this loop.
    pub fn memory_bound(&self) -> bool {
        self.memory_s > self.compute_s
    }
}

/// True per-step cost breakdown of one hot loop, before noise.
///
/// A thin wrapper over the shared per-module kernel: the
/// candidate-invariant terms ([`batch::LoopInvariants`]) and the
/// candidate's resolved decisions ([`batch::lane_for_module`]) feed the
/// same branch-free [`batch::loop_cost_kernel`] the batch path runs per
/// lane — scalar and batch costs are bit-identical by construction.
fn loop_cost_per_step(
    m: &CompiledModule,
    arch: &Architecture,
    icache_factor: f64,
    conflict: f64,
    combo_seed: u64,
) -> LoopCost {
    let f = m.features().expect("loop module");
    let inv = batch::LoopInvariants::new(f, arch);
    let lane = batch::lane_for_module(m, f, &inv, arch, icache_factor, conflict, combo_seed);
    batch::loop_cost_kernel(&inv, &lane)
}

/// True per-step time of the non-loop module, before noise.
fn non_loop_time_per_step(m: &CompiledModule, arch: &Architecture, call_cost_s: f64) -> f64 {
    let ModuleKind::NonLoop {
        seconds_per_step, ..
    } = m.module.kind
    else {
        panic!("non-loop module expected");
    };
    batch::non_loop_kernel(
        seconds_per_step / arch.scalar_speed,
        m.decisions.backend_quality,
        call_cost_s,
    )
}

/// Measured wall time of module `i` under this run's options.
fn module_time(linked: &LinkedProgram, arch: &Architecture, opts: &ExecOptions, i: usize) -> f64 {
    let m = &linked.modules[i];
    let per_step = match m.module.kind {
        ModuleKind::HotLoop(_) => {
            loop_cost_per_step(
                m,
                arch,
                linked.icache_factor,
                linked.conflict_factor[i],
                linked.combo_seed,
            )
            .total_s
        }
        ModuleKind::NonLoop { .. } => non_loop_time_per_step(m, arch, linked.call_cost_s),
    };
    let mut t = per_step * f64::from(opts.steps);
    if opts.instrumented {
        // Caliper annotation overhead: < 3 %, loop-specific.
        let seed = ft_flags::rng::hash_label(&m.module.name);
        t *= 1.0 + 0.015 * jitter(seed, "caliper-ovh", 0.3, 1.8);
    }
    if opts.sigma > 0.0 {
        let seed = derive_seed_idx(opts.noise_seed, i as u64);
        t = noise::noisy(t, seed, &m.module.name, opts.sigma);
    }
    t
}

/// Runs a linked executable and measures end-to-end and per-module
/// times.
pub fn execute(linked: &LinkedProgram, arch: &Architecture, opts: &ExecOptions) -> RunMeasurement {
    let mut per_module = Vec::with_capacity(linked.modules.len());
    for i in 0..linked.modules.len() {
        per_module.push(module_time(linked, arch, opts, i));
    }
    let total_s: f64 = per_module.iter().sum();
    RunMeasurement {
        total_s,
        per_module_s: per_module,
        steps: opts.steps,
    }
}

/// Runs a linked executable and measures only the end-to-end time —
/// [`execute`] without the per-module vector.
///
/// The accumulation order matches `execute`'s push-then-sum exactly,
/// so the returned f64 is bit-identical while allocating nothing.
/// This is the hot path of batched candidate evaluation, where the
/// per-module breakdown is discarded anyway.
pub fn execute_total(linked: &LinkedProgram, arch: &Architecture, opts: &ExecOptions) -> f64 {
    let mut total_s = 0.0;
    for i in 0..linked.modules.len() {
        total_s += module_time(linked, arch, opts, i);
    }
    total_s
}

/// Per-step cost breakdown for every hot loop of a linked executable
/// (noise-free; the analysis companion to [`execute`]).
pub fn breakdown(linked: &LinkedProgram, arch: &Architecture) -> Vec<(usize, LoopCost)> {
    linked
        .modules
        .iter()
        .enumerate()
        .filter(|(_, m)| m.module.features().is_some())
        .map(|(i, m)| {
            (
                i,
                loop_cost_per_step(
                    m,
                    arch,
                    linked.icache_factor,
                    linked.conflict_factor[i],
                    linked.combo_seed,
                ),
            )
        })
        .collect()
}

/// Like [`execute`], additionally recording per-module times into a
/// Caliper session (path = module name), mirroring the paper's
/// instrumented collection runs.
pub fn execute_profiled(
    linked: &LinkedProgram,
    arch: &Architecture,
    opts: &ExecOptions,
    caliper: &Caliper,
) -> RunMeasurement {
    let meas = execute(linked, arch, opts);
    for (m, t) in linked.modules.iter().zip(&meas.per_module_s) {
        let count = match m.module.kind {
            ModuleKind::HotLoop(ref f) => {
                (f.invocations_per_step * f64::from(opts.steps)).round() as u64
            }
            ModuleKind::NonLoop { .. } => u64::from(opts.steps),
        };
        caliper.record_flat(&m.module.name, *t, count.max(1));
    }
    meas
}

/// When no explicit timeout budget is given, a hung run is charged this
/// multiple of what the healthy run would have measured — the factor a
/// watchdog without an incumbent reference would use.
pub const DEFAULT_HANG_CHARGE_FACTOR: f64 = 20.0;

/// A fault the model injects into one run of an executable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunFault {
    /// The run hung and was killed; `budget_s` is charged.
    Hang {
        /// The budget that was charged, seconds.
        budget_s: f64,
    },
    /// The run crashed after `elapsed_s` (transient; retryable).
    Crash {
        /// Wall-clock spent before the crash, seconds — still charged.
        elapsed_s: f64,
    },
    /// The run completed, but every time it measured is inflated by
    /// `factor`.
    Outlier {
        /// Multiplier on the end-to-end and every per-module time.
        factor: f64,
    },
}

/// The seeded fault rolls of one run of the program fingerprinted
/// `fp` under `noise_seed`, whose healthy end-to-end time is `total_s`
/// (the bits of [`execute`]'s `total_s`, [`execute_total`] or a batch
/// lane alike). `None` means the run measures cleanly.
///
/// The rolls, in order:
///
/// 1. a **hang** (deterministic per executable) is killed at
///    `timeout_s` (or [`DEFAULT_HANG_CHARGE_FACTOR`] × `total_s` when
///    no budget is supplied) and charged that budget;
/// 2. a **crash** (transient per noise seed) costs the partial time
///    spent before the fault;
/// 3. an **outlier** completes but reports an inflated measurement.
///
/// The caller skips the rolls for a zero model and for a program whose
/// every module carries the exempt digest, as [`try_execute`] does.
pub fn roll_run_fault(
    faults: &FaultModel,
    fp: u64,
    noise_seed: u64,
    total_s: f64,
    timeout_s: Option<f64>,
) -> Option<RunFault> {
    if faults.hangs(fp) {
        let budget_s = timeout_s.unwrap_or(total_s * DEFAULT_HANG_CHARGE_FACTOR);
        return Some(RunFault::Hang { budget_s });
    }
    if faults.crashes(fp, noise_seed) {
        let elapsed_s = total_s * faults.crash_fraction(fp, noise_seed);
        return Some(RunFault::Crash { elapsed_s });
    }
    faults
        .outlier_factor(fp, noise_seed)
        .map(|factor| RunFault::Outlier { factor })
}

/// Fallible variant of [`execute`]: measures the run, then applies
/// [`roll_run_fault`] to it.
///
/// With `faults.is_zero()`, or a program built wholly from the exempt
/// CV, this is exactly `RunOutcome::Ok(execute(…))` — no rolls, no
/// perturbation, bit-identical measurements. Compile failures are
/// decided before an executable exists, so the `CompileError` variant
/// is produced by the compile layer, not here.
pub fn try_execute(
    linked: &LinkedProgram,
    arch: &Architecture,
    opts: &ExecOptions,
    faults: &FaultModel,
    timeout_s: Option<f64>,
) -> RunOutcome {
    let mut meas = execute(linked, arch, opts);
    if faults.is_zero() {
        return RunOutcome::Ok(meas);
    }
    let digests: Vec<u64> = linked.modules.iter().map(|m| m.cv_digest).collect();
    if faults.all_exempt(&digests) {
        return RunOutcome::Ok(meas);
    }
    let fp = FaultModel::program_fingerprint(&digests);
    match roll_run_fault(faults, fp, opts.noise_seed, meas.total_s, timeout_s) {
        None => RunOutcome::Ok(meas),
        Some(RunFault::Hang { budget_s }) => RunOutcome::Timeout { budget_s },
        Some(RunFault::Crash { elapsed_s }) => RunOutcome::Crash { elapsed_s },
        Some(RunFault::Outlier { factor }) => {
            meas.total_s *= factor;
            for t in &mut meas.per_module_s {
                *t *= factor;
            }
            RunOutcome::Ok(meas)
        }
    }
}

/// Shared fault-quarantine lists: `(module, CV digest)` pairs whose
/// compilation is known to ICE and program fingerprints known to hang.
///
/// Built for many concurrent readers and rare writers: only newly
/// discovered faults take the write lock. Evaluation gates each batch
/// through these lists in proposal order, one candidate after another,
/// so a context whose batches run one at a time attributes every
/// `+inf` to a deterministic counter. Two cases still interleave. Phases
/// that share one quarantine under the overlapped schedule gate their
/// batches concurrently: whether one phase observes an entry before or
/// after another inserts it never changes an evaluation's *value* (a
/// quarantined candidate scores `+inf` either by skip or by re-deriving
/// the same deterministic fault); only which counter the `+inf` is
/// attributed to can shift, which is why equivalence checks across
/// schedules compare results, not attribution.
///
/// The same caveat extends across *process* boundaries: each worker
/// of a distributed evaluation plane owns its own quarantine, so a
/// deterministic fault a single-process run discovers once (one
/// `timeout`/`compile_failure`, then `quarantined` skips) may be
/// rediscovered by several workers independently. Values stay
/// byte-identical, `ok_runs`/`crashes`/`retries` stay exactly equal,
/// and the sum `compile_failures + timeouts + quarantined` is
/// conserved — only the split can move. The topology-equivalence
/// suite pins exactly this contract.
#[derive(Debug, Default)]
pub struct FaultQuarantine {
    /// `(module, CV digest)` pairs whose compilation ICEs.
    compiles: std::sync::RwLock<std::collections::HashSet<(usize, u64)>>,
    /// Program fingerprints that hang.
    programs: std::sync::RwLock<std::collections::HashSet<u64>>,
}

impl FaultQuarantine {
    /// An empty quarantine.
    pub fn new() -> Self {
        FaultQuarantine::default()
    }

    /// Is this `(module, CV digest)` pair known to ICE?
    pub fn compile_is_bad(&self, module: usize, digest: u64) -> bool {
        self.compiles.read().unwrap().contains(&(module, digest))
    }

    /// Quarantines a compile pair; returns true if it was new.
    pub fn ban_compile(&self, module: usize, digest: u64) -> bool {
        self.compiles.write().unwrap().insert((module, digest))
    }

    /// Is this program fingerprint known to hang?
    pub fn program_is_bad(&self, fingerprint: u64) -> bool {
        self.programs.read().unwrap().contains(&fingerprint)
    }

    /// Quarantines a program fingerprint; returns true if it was new.
    pub fn ban_program(&self, fingerprint: u64) -> bool {
        self.programs.write().unwrap().insert(fingerprint)
    }

    /// Both lists, sorted — a deterministic serialization order no
    /// matter what insertion interleaving produced them.
    pub fn snapshot(&self) -> (Vec<(usize, u64)>, Vec<u64>) {
        let mut compiles: Vec<(usize, u64)> =
            self.compiles.read().unwrap().iter().copied().collect();
        compiles.sort_unstable();
        let mut programs: Vec<u64> = self.programs.read().unwrap().iter().copied().collect();
        programs.sort_unstable();
        (compiles, programs)
    }

    /// Re-seeds the lists from a snapshot (campaign resume).
    pub fn restore(&self, compiles: &[(usize, u64)], programs: &[u64]) {
        self.compiles.write().unwrap().extend(compiles.iter());
        self.programs.write().unwrap().extend(programs.iter());
    }

    /// Distinct quarantined entries: `(compile pairs, programs)`.
    pub fn len(&self) -> (usize, usize) {
        (
            self.compiles.read().unwrap().len(),
            self.programs.read().unwrap().len(),
        )
    }

    /// True when nothing has been quarantined.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::link;
    use ft_compiler::ir::MemStride;
    use ft_compiler::{Compiler, LoopFeatures, Module, ProgramIr};
    use ft_flags::rng::rng_for;

    fn ir() -> ProgramIr {
        let mut f0 = LoopFeatures::synthetic(11);
        f0.ops_per_iter = 300.0;
        let mut f1 = LoopFeatures::synthetic(23);
        f1.stride = MemStride::Indirect;
        f1.bytes_per_iter = 160.0;
        f1.ops_per_iter = 25.0;
        ProgramIr::new(
            "t",
            vec![
                Module::hot_loop(0, "compute", f0, &[1]),
                Module::hot_loop(1, "gather", f1, &[1]),
                Module::non_loop(2, 0.05, 3e4),
            ],
            vec![],
        )
    }

    fn run(arch: &Architecture, cv_seed: u64, opts: &ExecOptions) -> RunMeasurement {
        let c = Compiler::icc(arch.target);
        let cv = if cv_seed == 0 {
            c.space().baseline()
        } else {
            c.space().sample(&mut rng_for(cv_seed, "exec"))
        };
        let linked = link(c.compile_program(&ir(), &cv), &ir(), arch);
        execute(&linked, arch, opts)
    }

    #[test]
    fn execution_is_deterministic() {
        let arch = Architecture::broadwell();
        let a = run(&arch, 3, &ExecOptions::new(10, 42));
        let b = run(&arch, 3, &ExecOptions::new(10, 42));
        assert_eq!(a, b);
    }

    #[test]
    fn noise_seed_changes_measurement_slightly() {
        let arch = Architecture::broadwell();
        let a = run(&arch, 3, &ExecOptions::new(10, 1));
        let b = run(&arch, 3, &ExecOptions::new(10, 2));
        assert_ne!(a.total_s, b.total_s);
        let rel = (a.total_s - b.total_s).abs() / a.total_s;
        assert!(rel < 0.05, "noise too large: {rel}");
    }

    #[test]
    fn total_is_sum_of_modules() {
        let arch = Architecture::broadwell();
        let m = run(&arch, 0, &ExecOptions::exact(10));
        let sum: f64 = m.per_module_s.iter().sum();
        assert!((m.total_s - sum).abs() < 1e-12);
        assert_eq!(m.per_module_s.len(), 3);
    }

    #[test]
    fn more_steps_take_proportionally_longer() {
        let arch = Architecture::broadwell();
        let a = run(&arch, 0, &ExecOptions::exact(10));
        let b = run(&arch, 0, &ExecOptions::exact(20));
        assert!((b.total_s / a.total_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn broadwell_beats_opteron() {
        let a = run(&Architecture::opteron(), 0, &ExecOptions::exact(10));
        let b = run(&Architecture::broadwell(), 0, &ExecOptions::exact(10));
        assert!(b.total_s < a.total_s, "{} vs {}", b.total_s, a.total_s);
    }

    #[test]
    fn instrumentation_overhead_is_small_but_positive() {
        let arch = Architecture::broadwell();
        let plain = run(&arch, 0, &ExecOptions::exact(10));
        let mut inst_opts = ExecOptions::exact(10);
        inst_opts.instrumented = true;
        let inst = run(&arch, 0, &inst_opts);
        let ovh = inst.total_s / plain.total_s - 1.0;
        assert!(ovh > 0.0 && ovh < 0.03, "overhead = {ovh}");
    }

    #[test]
    fn profiled_run_feeds_caliper() {
        let arch = Architecture::broadwell();
        let c = Compiler::icc(arch.target);
        let linked = link(
            c.compile_program(&ir(), &c.space().baseline()),
            &ir(),
            &arch,
        );
        let cali = Caliper::real_time();
        let meas = execute_profiled(&linked, &arch, &ExecOptions::exact(5), &cali);
        let snap = cali.snapshot();
        assert!((snap.inclusive("compute") - meas.per_module_s[0]).abs() < 1e-12);
        assert!(snap.count("compute") >= 1);
        assert!(snap.inclusive("non-loop") > 0.0);
    }

    #[test]
    fn flags_change_runtime() {
        // Different CVs must produce different runtimes — the whole
        // premise of iterative compilation.
        let arch = Architecture::broadwell();
        let base = run(&arch, 0, &ExecOptions::exact(10)).total_s;
        let mut distinct = 0;
        for s in 1..=20 {
            let t = run(&arch, s, &ExecOptions::exact(10)).total_s;
            if (t - base).abs() / base > 0.005 {
                distinct += 1;
            }
        }
        assert!(distinct >= 15, "only {distinct}/20 CVs changed runtime");
    }

    #[test]
    fn streaming_stores_help_streaming_loops_and_hurt_cached_ones() {
        let arch = Architecture::broadwell();
        let c = Compiler::icc(arch.target);
        let sp = c.space();
        let id = sp.index_of("qopt-streaming-stores").unwrap();
        let mk = |working_set: f64| {
            let mut f = LoopFeatures::synthetic(7);
            f.streaming = 0.9;
            f.write_fraction = 0.6;
            f.bytes_per_iter = 400.0;
            f.ops_per_iter = 10.0;
            f.working_set_mb = working_set;
            ProgramIr::new(
                "s",
                vec![
                    Module::hot_loop(0, "stream", f, &[]),
                    Module::non_loop(1, 0.01, 1e4),
                ],
                vec![],
            )
        };
        for (ws, expect_help) in [(512.0, true), (4.0, false)] {
            let irp = mk(ws);
            let never = sp.baseline().with(sp, id, 2);
            let always = sp.baseline().with(sp, id, 1);
            let t_never = execute(
                &link(c.compile_program(&irp, &never), &irp, &arch),
                &arch,
                &ExecOptions::exact(10),
            )
            .total_s;
            let t_always = execute(
                &link(c.compile_program(&irp, &always), &irp, &arch),
                &arch,
                &ExecOptions::exact(10),
            )
            .total_s;
            if expect_help {
                assert!(
                    t_always < t_never,
                    "NT stores should help: {t_always} vs {t_never}"
                );
            } else {
                assert!(
                    t_always > t_never,
                    "NT stores should hurt in-cache: {t_always} vs {t_never}"
                );
            }
        }
    }

    #[test]
    fn prefetch_helps_indirect_loops_monotonically() {
        let arch = Architecture::broadwell();
        let c = Compiler::icc(arch.target);
        let sp = c.space();
        let mut f = LoopFeatures::synthetic(41);
        f.stride = MemStride::Indirect;
        f.bytes_per_iter = 300.0;
        f.ops_per_iter = 12.0;
        let irp = ProgramIr::new(
            "pf",
            vec![
                Module::hot_loop(0, "gather", f, &[]),
                Module::non_loop(1, 0.01, 1e4),
            ],
            vec![],
        );
        let id = sp.index_of("qopt-prefetch").unwrap();
        // Flag value order is [2, 0, 1, 3, 4]; map to levels.
        let time_at = |value_idx: u8| {
            let cv = sp.baseline().with(sp, id, value_idx);
            execute(
                &link(c.compile_program(&irp, &cv), &irp, &arch),
                &arch,
                &ExecOptions::exact(5),
            )
            .per_module_s[0]
        };
        let t0 = time_at(1); // level 0
        let t2 = time_at(0); // level 2 (default)
        let t4 = time_at(4); // level 4
        assert!(t0 > t2, "no prefetch must be slower: {t0} vs {t2}");
        assert!(t2 > t4, "deeper prefetch must help gathers: {t2} vs {t4}");
    }

    #[test]
    fn unrolling_helps_small_body_loops() {
        let arch = Architecture::broadwell();
        let c = Compiler::icc(arch.target);
        let sp = c.space();
        let mut f = LoopFeatures::synthetic(43);
        f.ops_per_iter = 8.0; // loop overhead dominates
        f.bytes_per_iter = 8.0;
        f.ilp = 2.0;
        let irp = ProgramIr::new(
            "u",
            vec![
                Module::hot_loop(0, "small", f, &[]),
                Module::non_loop(1, 0.01, 1e4),
            ],
            vec![],
        );
        let id = sp.index_of("unroll").unwrap();
        let t_at = |v: u8| {
            let cv = sp.baseline().with(sp, id, v);
            execute(
                &link(c.compile_program(&irp, &cv), &irp, &arch),
                &arch,
                &ExecOptions::exact(5),
            )
            .per_module_s[0]
        };
        let none = t_at(1); // -unroll=0
        let four = t_at(3); // -unroll=4
        assert!(
            four < none,
            "unroll must amortize loop overhead: {four} vs {none}"
        );
    }

    #[test]
    fn fma_only_pays_on_broadwell() {
        // The same vectorized FP loop gains more on the FMA-capable
        // Broadwell than on Sandy Bridge beyond the bandwidth/frequency
        // difference - checked via the compute-bound vector speedup.
        let mk = |arch: &Architecture| {
            let c = Compiler::icc(arch.target);
            let sp = c.space();
            let mut f = LoopFeatures::synthetic(44);
            f.ops_per_iter = 500.0;
            f.bytes_per_iter = 8.0;
            f.fp_fraction = 1.0;
            f.divergence = 0.0;
            let irp = ProgramIr::new(
                "fma",
                vec![
                    Module::hot_loop(0, "gemmish", f, &[]),
                    Module::non_loop(1, 0.001, 1e4),
                ],
                vec![],
            );
            let wide = sp
                .baseline()
                .with(sp, sp.index_of("simd-width").unwrap(), 2);
            let scalar = sp.baseline().with(sp, sp.index_of("vec").unwrap(), 1);
            let t = |cv: &ft_flags::Cv| {
                execute(
                    &link(c.compile_program(&irp, cv), &irp, arch),
                    arch,
                    &ExecOptions::exact(5),
                )
                .per_module_s[0]
            };
            t(&scalar) / t(&wide) // vector speedup on this arch
        };
        let snb = mk(&Architecture::sandy_bridge());
        let bdw = mk(&Architecture::broadwell());
        assert!(bdw > snb, "AVX2+FMA must out-speed AVX1: {bdw} vs {snb}");
    }

    #[test]
    fn oversubscribed_opteron_scales_worse() {
        // 16 threads on 8 Opteron cores vs 16 real cores on Broadwell:
        // the parallel component must scale worse on Opteron.
        let mk = |arch: &Architecture, pf: f64| {
            let c = Compiler::icc(arch.target);
            let mut f = LoopFeatures::synthetic(45);
            f.parallel_fraction = pf;
            f.bytes_per_iter = 4.0;
            let irp = ProgramIr::new(
                "par",
                vec![
                    Module::hot_loop(0, "l", f, &[]),
                    Module::non_loop(1, 0.001, 1e4),
                ],
                vec![],
            );
            execute(
                &link(c.compile_program(&irp, &c.space().baseline()), &irp, arch),
                arch,
                &ExecOptions::exact(5),
            )
            .per_module_s[0]
        };
        let opteron = Architecture::opteron();
        let bdw = Architecture::broadwell();
        let opt_scaling = mk(&opteron, 0.0) / mk(&opteron, 0.99);
        let bdw_scaling = mk(&bdw, 0.0) / mk(&bdw, 0.99);
        assert!(
            bdw_scaling > opt_scaling,
            "16 threads on 8 cores must scale worse: {opt_scaling} vs {bdw_scaling}"
        );
    }

    #[test]
    fn breakdown_components_are_consistent_with_execution() {
        let arch = Architecture::broadwell();
        let c = Compiler::icc(arch.target);
        let linked = link(
            c.compile_program(&ir(), &c.space().baseline()),
            &ir(),
            &arch,
        );
        let rows = breakdown(&linked, &arch);
        assert_eq!(rows.len(), 2, "two hot loops");
        let exact = execute(&linked, &arch, &ExecOptions::exact(1));
        for (i, cost) in &rows {
            assert!(cost.compute_s > 0.0 && cost.memory_s > 0.0);
            // The codegen-luck factor (±3%) may pull the realized total
            // slightly below the ideal roofline max.
            assert!(cost.total_s >= 0.9 * cost.compute_s.max(cost.memory_s));
            // The exact (noise-free, instrumentation-free) run must match
            // the breakdown total for one step.
            assert!(
                (exact.per_module_s[*i] - cost.total_s).abs() < 1e-12,
                "module {i}: {} vs {}",
                exact.per_module_s[*i],
                cost.total_s
            );
        }
        // The indirect gather loop is firmly memory-bound. (The compute
        // loop's classification depends on whether O3 vectorized it, so
        // it is not asserted.)
        assert!(rows[1].1.memory_bound(), "{:?}", rows[1]);
    }

    #[test]
    fn module_s_is_checked() {
        let arch = Architecture::broadwell();
        let m = run(&arch, 0, &ExecOptions::exact(10));
        assert_eq!(m.module_s(0), Some(m.per_module_s[0]));
        assert_eq!(m.module_s(2), Some(m.per_module_s[2]));
        assert_eq!(m.module_s(3), None, "out-of-range id must not panic");
        assert_eq!(m.module_s(usize::MAX), None);
    }

    #[test]
    fn try_execute_zero_faults_is_bit_exact() {
        let arch = Architecture::broadwell();
        let c = Compiler::icc(arch.target);
        let cv = c.space().sample(&mut rng_for(5, "exec"));
        let linked = link(c.compile_program(&ir(), &cv), &ir(), &arch);
        let opts = ExecOptions::new(10, 42);
        let plain = execute(&linked, &arch, &opts);
        match try_execute(&linked, &arch, &opts, &FaultModel::zero(), Some(1.0)) {
            RunOutcome::Ok(m) => assert_eq!(m, plain),
            other => panic!("zero-fault run failed: {other:?}"),
        }
    }

    #[test]
    fn try_execute_replays_identically() {
        let arch = Architecture::broadwell();
        let c = Compiler::icc(arch.target);
        let faults = FaultModel::with_rates(3, 0.0, 0.3, 0.3, 0.3);
        for s in 0..30u64 {
            let cv = c.space().sample(&mut rng_for(s, "exec"));
            let linked = link(c.compile_program(&ir(), &cv), &ir(), &arch);
            let opts = ExecOptions::new(5, s);
            let a = try_execute(&linked, &arch, &opts, &faults, Some(9.0));
            let b = try_execute(&linked, &arch, &opts, &faults, Some(9.0));
            assert_eq!(a, b, "seed {s} diverged");
        }
    }

    #[test]
    fn try_execute_produces_every_failure_mode() {
        let arch = Architecture::broadwell();
        let c = Compiler::icc(arch.target);
        let faults = FaultModel::with_rates(3, 0.0, 0.25, 0.25, 0.25);
        let (mut ok, mut crash, mut hang, mut outlier) = (0, 0, 0, 0);
        for s in 0..80u64 {
            let cv = c.space().sample(&mut rng_for(s, "exec"));
            let linked = link(c.compile_program(&ir(), &cv), &ir(), &arch);
            let opts = ExecOptions::new(5, s);
            let healthy = execute(&linked, &arch, &opts).total_s;
            match try_execute(&linked, &arch, &opts, &faults, Some(77.0)) {
                RunOutcome::Ok(m) => {
                    assert!(m.total_s.is_finite());
                    if m.total_s > healthy * 1.5 {
                        outlier += 1;
                        // Outliers inflate uniformly; the sum invariant
                        // survives the scaling.
                        let sum: f64 = m.per_module_s.iter().sum();
                        assert!((m.total_s - sum).abs() < 1e-9 * m.total_s);
                    }
                    ok += 1;
                }
                RunOutcome::Crash { elapsed_s } => {
                    assert!(elapsed_s > 0.0 && elapsed_s < healthy);
                    crash += 1;
                }
                RunOutcome::Timeout { budget_s } => {
                    assert_eq!(budget_s, 77.0, "explicit budget must be charged");
                    hang += 1;
                }
                RunOutcome::CompileError { .. } => {
                    panic!("execute layer cannot produce compile errors")
                }
            }
        }
        assert!(ok > 0 && crash > 0 && hang > 0, "{ok}/{crash}/{hang}");
        assert!(outlier > 0, "no outliers at 25% rate over 80 runs");
    }

    #[test]
    fn hang_without_budget_charges_the_default_factor() {
        let arch = Architecture::broadwell();
        let c = Compiler::icc(arch.target);
        let faults = FaultModel::with_rates(3, 0.0, 0.0, 1.0, 0.0);
        let cv = c.space().sample(&mut rng_for(1, "exec"));
        let linked = link(c.compile_program(&ir(), &cv), &ir(), &arch);
        let opts = ExecOptions::new(5, 9);
        let healthy = execute(&linked, &arch, &opts).total_s;
        match try_execute(&linked, &arch, &opts, &faults, None) {
            RunOutcome::Timeout { budget_s } => {
                assert!((budget_s - healthy * DEFAULT_HANG_CHARGE_FACTOR).abs() < 1e-12);
            }
            other => panic!("rate-1.0 hang did not hang: {other:?}"),
        }
    }

    #[test]
    fn outcome_scoring_and_charging() {
        let meas = RunMeasurement {
            total_s: 2.0,
            per_module_s: vec![2.0],
            steps: 1,
        };
        let ok = RunOutcome::Ok(meas);
        assert!(ok.is_ok());
        assert_eq!(ok.total_s(), 2.0);
        assert_eq!(ok.charged_s(), 2.0);
        let crash = RunOutcome::Crash { elapsed_s: 0.7 };
        assert_eq!(crash.total_s(), f64::INFINITY);
        assert_eq!(crash.charged_s(), 0.7);
        let hang = RunOutcome::Timeout { budget_s: 40.0 };
        assert_eq!(hang.total_s(), f64::INFINITY);
        assert_eq!(hang.charged_s(), 40.0);
        let ice = RunOutcome::CompileError { module: 3 };
        assert_eq!(ice.total_s(), f64::INFINITY);
        assert_eq!(ice.charged_s(), 0.0);
        assert!(!ice.is_ok());
    }

    #[test]
    fn novec_beats_forced_wide_vec_on_divergent_loop() {
        let arch = Architecture::broadwell();
        let c = Compiler::icc(arch.target);
        let sp = c.space();
        let mut f = LoopFeatures::synthetic(99);
        f.divergence = 0.92;
        f.ops_per_iter = 150.0;
        let irp = ProgramIr::new(
            "d",
            vec![
                Module::hot_loop(0, "dt", f, &[]),
                Module::non_loop(1, 0.01, 1e4),
            ],
            vec![],
        );
        let novec = sp.baseline().with(sp, sp.index_of("vec").unwrap(), 1);
        let wide = sp
            .baseline()
            .with(sp, sp.index_of("simd-width").unwrap(), 2);
        let t_novec = execute(
            &link(c.compile_program(&irp, &novec), &irp, &arch),
            &arch,
            &ExecOptions::exact(10),
        )
        .total_s;
        let t_wide = execute(
            &link(c.compile_program(&irp, &wide), &irp, &arch),
            &arch,
            &ExecOptions::exact(10),
        )
        .total_s;
        assert!(
            t_novec < t_wide,
            "scalar should beat 256-bit on divergent loop: {t_novec} vs {t_wide}"
        );
    }

    #[test]
    fn quarantine_round_trips_a_sorted_snapshot() {
        let q = FaultQuarantine::new();
        assert!(q.is_empty());
        assert!(q.ban_compile(3, 77));
        assert!(q.ban_compile(1, 99));
        assert!(!q.ban_compile(3, 77), "duplicate ban reports not-new");
        assert!(q.ban_program(0xDEAD));
        assert!(q.compile_is_bad(3, 77));
        assert!(!q.compile_is_bad(3, 78));
        assert!(q.program_is_bad(0xDEAD));
        let (compiles, programs) = q.snapshot();
        assert_eq!(compiles, vec![(1, 99), (3, 77)]);
        assert_eq!(programs, vec![0xDEAD]);

        let r = FaultQuarantine::new();
        r.restore(&compiles, &programs);
        assert_eq!(r.snapshot(), q.snapshot());
        assert_eq!(r.len(), (2, 1));
    }

    #[test]
    fn quarantine_snapshot_is_insertion_order_independent() {
        // Concurrent inserters land entries in arbitrary order; the
        // snapshot must come out identical regardless.
        let q = FaultQuarantine::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..64u64 {
                        q.ban_compile((i % 7) as usize, i.rotate_left(t as u32));
                        q.ban_program(i * 31 + t);
                    }
                });
            }
        });
        let serial = FaultQuarantine::new();
        for t in 0..4u64 {
            for i in 0..64u64 {
                serial.ban_compile((i % 7) as usize, i.rotate_left(t as u32));
                serial.ban_program(i * 31 + t);
            }
        }
        assert_eq!(q.snapshot(), serial.snapshot());
    }
}
