//! Lane-oriented batch execution: evaluate W candidates at once.
//!
//! A tuning campaign spends nearly all of its work in candidate
//! evaluation, and every candidate of one `(program, architecture,
//! run-shape)` triple shares most of the execution model's inputs:
//! loop features, architecture constants, iteration counts, barrier
//! and call terms. [`BatchPlan`] hoists all of that out of the
//! per-candidate loop once; [`execute_batch_total`] then evaluates W
//! linked candidates simultaneously in structure-of-arrays form —
//! per-module W-wide lanes of pre-selected `f64` scalars fed through a
//! branch-free arithmetic kernel that the compiler can auto-vectorize.
//! [`execute_batch`] runs the same kernel body and also keeps every
//! module's time, the per-loop view an instrumented collection run
//! records.
//!
//! Bit-exactness is structural, not approximate: the scalar path
//! (`exec::loop_cost_per_step` / `exec::non_loop_time_per_step`) is a
//! thin wrapper over the *same* [`loop_cost_kernel`] /
//! [`non_loop_kernel`] this module runs per lane, each lane accumulates
//! its per-module times in exactly `execute`'s module order, and every
//! hoisted table entry is produced by the same helper function the
//! scalar path calls. `tests/batch_equivalence.rs` and the cross-crate
//! proptest pin per-lane `f64::to_bits` equality.

use crate::arch::Architecture;
use crate::exec::{ExecOptions, LoopCost};
use crate::link::LinkedProgram;
use crate::noise;
use ft_compiler::decisions::{vector_efficiency, CompiledModule, VecWidth};
use ft_compiler::ir::{LoopFeatures, MemStride, ModuleKind, ProgramIr};
use ft_compiler::response::{jitter, unit, unit_hashed};
use ft_flags::rng::{derive_seed_idx, hash_label, mix};

/// The candidate-invariant part of [`ExecOptions`]: everything except
/// the per-run noise seed. One [`BatchPlan`] serves every candidate
/// evaluated under the same shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecShape {
    /// Simulation time-steps per run.
    pub steps: u32,
    /// Relative noise level (lognormal sigma).
    pub sigma: f64,
    /// True when runs carry Caliper instrumentation.
    pub instrumented: bool,
}

impl ExecShape {
    /// The shape of an existing options value.
    pub fn of(opts: &ExecOptions) -> Self {
        ExecShape {
            steps: opts.steps,
            sigma: opts.sigma,
            instrumented: opts.instrumented,
        }
    }

    /// Reconstitutes full options for one run of this shape.
    pub fn options(&self, noise_seed: u64) -> ExecOptions {
        ExecOptions {
            steps: self.steps,
            noise_seed,
            sigma: self.sigma,
            instrumented: self.instrumented,
        }
    }
}

/// All four SIMD widths, in table-index order (see [`width_index`]).
const WIDTHS: [VecWidth; 4] = [
    VecWidth::Scalar,
    VecWidth::W128,
    VecWidth::W256,
    VecWidth::W512,
];

/// Table index of a SIMD width.
#[inline]
fn width_index(w: VecWidth) -> usize {
    match w {
        VecWidth::Scalar => 0,
        VecWidth::W128 => 1,
        VecWidth::W256 => 2,
        VecWidth::W512 => 3,
    }
}

// ---------------------------------------------------------------------
// Shared per-field helpers. Each candidate-dependent lane value has
// exactly one source of truth here; the scalar wrapper calls these per
// run, the plan calls them once per `(module, table index)`.
// ---------------------------------------------------------------------

/// Realized vector speedup of `f` at `width` on `arch` (1.0 scalar).
/// Panics when the width is unsupported on the architecture.
pub(crate) fn vec_gain_for(f: &LoopFeatures, arch: &Architecture, width: VecWidth) -> f64 {
    let hw = arch.simd_efficiency(width.bits());
    assert!(
        width == VecWidth::Scalar || hw > 0.0,
        "width {:?} unsupported on {}",
        width,
        arch.name
    );
    if width == VecWidth::Scalar {
        1.0
    } else {
        (vector_efficiency(f, width) * hw).max(0.25)
    }
}

/// FMA contraction gain: only vectorized code on an FMA target fuses.
pub(crate) fn fma_for(arch: &Architecture, width: VecWidth, fp_fraction: f64) -> f64 {
    if arch.target.fma && width != VecWidth::Scalar {
        1.0 + 0.15 * fp_fraction
    } else {
        1.0
    }
}

/// Cycles-to-seconds denominator at `width`, including the AVX-512
/// license downclock: `freq_ghz * throttle * 1e9`.
pub(crate) fn freq_denom_for(arch: &Architecture, width: VecWidth) -> f64 {
    let freq = arch.freq_ghz
        * if width == VecWidth::W512 {
            arch.avx512_freq_factor
        } else {
            1.0
        };
    freq * 1e9
}

/// A loop's idiosyncratic response to software prefetch: the
/// candidate-invariant coefficient, with the prefetch level applied
/// per candidate via [`PrefetchResponse::multiplier`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum PrefetchResponse {
    /// Indirect / strided access: each prefetch level recovers
    /// `per_level` of the lost utilization.
    Irregular {
        /// Utilization gain per prefetch level.
        per_level: f64,
    },
    /// Unit stride: the hardware prefetcher already covers the stream;
    /// the software distance helps or hurts a little around level 2.
    Unit {
        /// Signed utilization slope per level away from the default.
        slope: f64,
    },
}

impl PrefetchResponse {
    /// The loop-specific response coefficient.
    pub(crate) fn of(f: &LoopFeatures) -> Self {
        match f.stride {
            MemStride::Indirect | MemStride::Strided(_) => PrefetchResponse::Irregular {
                per_level: 0.05 + 0.08 * unit(f.response_seed, "pf-gain"),
            },
            MemStride::Unit => PrefetchResponse::Unit {
                slope: 0.06 * jitter(f.response_seed, "pf-unit", -0.5, 1.2),
            },
        }
    }

    /// Utilization multiplier at a prefetch level.
    #[inline]
    pub(crate) fn multiplier(&self, prefetch: u8) -> f64 {
        match self {
            PrefetchResponse::Irregular { per_level } => 1.0 + per_level * f64::from(prefetch),
            PrefetchResponse::Unit { slope } => 1.0 + slope * (f64::from(prefetch) - 2.0),
        }
    }
}

/// Static jitter-axis label for a layout version — the allocation-free
/// equivalent of `format!("layout-{v}")` over the full 0..=7 range
/// (`layout_level` 0..=3 plus the align-structs bit).
pub(crate) fn layout_axis(v: u8) -> &'static str {
    match v {
        0 => "layout-0",
        1 => "layout-1",
        2 => "layout-2",
        3 => "layout-3",
        4 => "layout-4",
        5 => "layout-5",
        6 => "layout-6",
        7 => "layout-7",
        other => panic!("layout_version {other} out of range 0..=7"),
    }
}

/// Utilization multiplier of a layout version for one loop.
pub(crate) fn layout_mul_for(response_seed: u64, v: u8) -> f64 {
    1.0 + 0.11 * jitter(response_seed, layout_axis(v), -1.0, 1.0)
}

/// Bytes multiplier charged when streaming stores are emitted: useful
/// for truly streaming out-of-cache write sets, harmful in-cache.
pub(crate) fn nt_bytes_factor(f: &LoopFeatures, in_cache: bool) -> f64 {
    let suit = ((f.streaming - 0.3) / 0.6).clamp(0.0, 1.0);
    if in_cache {
        1.0 + 0.35 * f.write_fraction
    } else {
        1.0 - 0.42 * f.write_fraction * suit + 0.25 * f.write_fraction * (1.0 - suit)
    }
}

/// Seed of the codegen-luck roll: keyed by the loop, its CV, the final
/// width/unroll, and the whole-program combination seed.
#[inline]
pub(crate) fn luck_seed_for(
    response_seed: u64,
    cv_digest: u64,
    combo_seed: u64,
    width: VecWidth,
    unroll: u8,
) -> u64 {
    mix(response_seed
        ^ cv_digest.rotate_left(17)
        ^ combo_seed
        ^ (u64::from(width.bits()) << 32)
        ^ u64::from(unroll))
}

/// ±3 % multiplicative luck factor from the luck roll's uniform.
#[inline]
pub(crate) fn luck_mul_from_unit(u: f64) -> f64 {
    1.0 + 0.03 * (u - 0.5) * 2.0
}

/// Out-call cost discount earned by inlining.
#[inline]
pub(crate) fn call_discount_for(inline_depth: u8, inline_factor: f64) -> f64 {
    1.0 - 0.3 * f64::from(inline_depth.min(2)) / 2.0 * inline_factor.min(2.0) / 2.0
}

// ---------------------------------------------------------------------
// The shared kernels.
// ---------------------------------------------------------------------

/// Candidate-invariant inputs of one hot loop's cost: loop features
/// combined with architecture constants, hoisted once per plan (or per
/// scalar call).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopInvariants {
    /// `trip_count * invocations_per_step`.
    pub(crate) iters: f64,
    /// Scalar arithmetic ops per iteration.
    pub(crate) ops_per_iter: f64,
    /// Independent instruction chains per iteration.
    pub(crate) ilp: f64,
    /// Architecture issue width (IPC roof).
    pub(crate) issue_width: f64,
    /// `2 * trip_count.max(1)` — chunk-remainder denominator.
    pub(crate) two_trip: f64,
    /// Amdahl speedup of the OpenMP configuration.
    pub(crate) par: f64,
    /// Memory traffic per step before the streaming-store factor.
    pub(crate) bytes0: f64,
    /// Base bandwidth utilization of the access pattern.
    pub(crate) util0: f64,
    /// Effective bandwidth, bytes/s (NUMA- and residency-adjusted).
    pub(crate) bw: f64,
    /// Fork/join + barrier seconds per step.
    pub(crate) barrier_term: f64,
    /// `iters * calls_out * 15ns` — undiscounted out-call seconds.
    pub(crate) call_base: f64,
    /// Streaming-store bytes factor if the candidate emits NT stores.
    pub(crate) nt_factor: f64,
    /// Loop-specific prefetch response coefficient.
    pub(crate) pf: PrefetchResponse,
}

impl LoopInvariants {
    /// Hoists the candidate-invariant part of one loop's cost.
    pub(crate) fn new(f: &LoopFeatures, arch: &Architecture) -> Self {
        let iters = f.trip_count * f.invocations_per_step;
        let util0 = match f.stride {
            MemStride::Unit => 1.0,
            MemStride::Strided(k) => (1.0 / f64::from(k.max(1))).max(0.125),
            MemStride::Indirect => 0.30,
        };
        let in_cache = f.working_set_mb < arch.llc_mb;
        let bw = arch.mem_bw_gbs * 1e9 * arch.numa_bw_factor() * if in_cache { 3.0 } else { 1.0 };
        let barrier = 5e-6
            * (f64::from(arch.omp_threads) / 16.0)
            * if arch.numa_nodes > 2 { 1.5 } else { 1.0 };
        LoopInvariants {
            iters,
            ops_per_iter: f.ops_per_iter,
            ilp: f.ilp,
            issue_width: arch.issue_width,
            two_trip: 2.0 * f.trip_count.max(1.0),
            par: 1.0
                / ((1.0 - f.parallel_fraction) + f.parallel_fraction / arch.parallel_capacity()),
            bytes0: f.bytes_per_step(),
            util0,
            bw,
            barrier_term: f.invocations_per_step * barrier,
            call_base: iters * f.calls_out * 15e-9,
            nt_factor: nt_bytes_factor(f, in_cache),
            pf: PrefetchResponse::of(f),
        }
    }
}

/// Candidate-dependent inputs of one hot loop's cost: every branchy
/// decision already resolved to a plain `f64`, so the kernel below is
/// pure arithmetic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopLane {
    /// Realized vector speedup.
    pub(crate) vec_gain: f64,
    /// FMA contraction gain.
    pub(crate) fma: f64,
    /// Cycles-to-seconds denominator (AVX-512 throttle applied).
    pub(crate) freq_denom: f64,
    /// Unroll factor as f64 (≥ 1).
    pub(crate) unroll: f64,
    /// `unroll.ln()`.
    pub(crate) ln_unroll: f64,
    /// 1.05 when software-pipelined, else 1.0.
    pub(crate) pipe_mul: f64,
    /// 1.08 when unroll-and-jammed, else 1.0.
    pub(crate) jam_mul: f64,
    /// Back-end quality divisor.
    pub(crate) bq: f64,
    /// Register-spill intensity.
    pub(crate) spill: f64,
    /// `unroll * simd lanes` — remainder chunk width.
    pub(crate) chunk: f64,
    /// Whole-executable I-cache pressure factor.
    pub(crate) icache: f64,
    /// Layout/alias conflict factor of this module.
    pub(crate) conflict: f64,
    /// Prefetch utilization multiplier at this candidate's level.
    pub(crate) pf_mul: f64,
    /// Layout-version utilization multiplier.
    pub(crate) layout_mul: f64,
    /// Streaming-store bytes multiplier (1.0 when not emitted).
    pub(crate) nt_mul: f64,
    /// Codegen-luck factor.
    pub(crate) luck_mul: f64,
    /// Out-call inlining discount.
    pub(crate) call_discount: f64,
}

/// The per-lane roofline arithmetic — branch-free except for
/// `f64::min`/`max`, shared verbatim by the scalar and batch paths, so
/// both produce bit-identical costs by construction.
#[inline(always)]
pub(crate) fn loop_cost_kernel(inv: &LoopInvariants, l: &LoopLane) -> LoopCost {
    // --- Compute side --------------------------------------------------
    let loop_overhead_ops = 4.0 / l.unroll;
    let ilp_eff = inv.ilp * (1.0 + 0.14 * l.ln_unroll) * l.pipe_mul * l.jam_mul;
    let ipc = ilp_eff.min(inv.issue_width);
    let mut cycles_per_iter =
        (inv.ops_per_iter / (l.vec_gain * l.fma) + loop_overhead_ops) / ipc / l.bq;
    cycles_per_iter *= 1.0 + l.spill;
    // Remainder iterations wasted by wide unroll/vector chunks.
    cycles_per_iter *= 1.0 + (l.chunk - 1.0) / inv.two_trip;
    // Front-end pressure from the whole executable's hot code.
    cycles_per_iter *= l.icache;
    let serial_compute_s = inv.iters * cycles_per_iter / l.freq_denom;
    let compute_s = serial_compute_s / inv.par;

    // --- Memory side ---------------------------------------------------
    let bytes = inv.bytes0 * l.nt_mul;
    let util = inv.util0 * l.pf_mul * l.layout_mul;
    let mem_s = bytes / (inv.bw * util);

    // --- Combine -------------------------------------------------------
    let roofline = compute_s.max(mem_s) + 0.25 * compute_s.min(mem_s);
    let mut t = roofline * l.conflict;
    t *= l.luck_mul;
    t += inv.barrier_term;
    t += inv.call_base * l.call_discount;
    LoopCost {
        compute_s,
        memory_s: mem_s,
        overhead_s: (t - roofline).max(0.0),
        total_s: t,
    }
}

/// The non-loop module's per-step time from its hoisted base.
#[inline(always)]
pub(crate) fn non_loop_kernel(base: f64, backend_quality: f64, call_cost_s: f64) -> f64 {
    base / backend_quality + call_cost_s
}

/// Builds the lane scalars of one candidate's module directly (the
/// scalar path — one candidate, no tables).
pub(crate) fn lane_for_module(
    m: &CompiledModule,
    f: &LoopFeatures,
    inv: &LoopInvariants,
    arch: &Architecture,
    icache_factor: f64,
    conflict: f64,
    combo_seed: u64,
) -> LoopLane {
    let d = &m.decisions;
    let unroll = f64::from(d.unroll.max(1));
    LoopLane {
        vec_gain: vec_gain_for(f, arch, d.width),
        fma: fma_for(arch, d.width, f.fp_fraction),
        freq_denom: freq_denom_for(arch, d.width),
        unroll,
        ln_unroll: unroll.ln(),
        pipe_mul: if d.sw_pipelined { 1.05 } else { 1.0 },
        jam_mul: if d.unroll_jam { 1.08 } else { 1.0 },
        bq: d.backend_quality,
        spill: d.register_spill,
        chunk: unroll * d.width.lanes(),
        icache: icache_factor,
        conflict,
        pf_mul: inv.pf.multiplier(d.prefetch),
        layout_mul: layout_mul_for(f.response_seed, d.layout_version),
        nt_mul: if d.streaming_stores {
            inv.nt_factor
        } else {
            1.0
        },
        luck_mul: luck_mul_from_unit(unit(
            luck_seed_for(f.response_seed, m.cv_digest, combo_seed, d.width, d.unroll),
            "codegen-luck",
        )),
        call_discount: call_discount_for(d.inline_depth, d.inline_factor),
    }
}

// ---------------------------------------------------------------------
// The plan.
// ---------------------------------------------------------------------

/// One hot loop's hoisted tables: invariants plus every decision axis
/// pre-evaluated over its (small, closed) value domain, so the batch
/// gather is pure table lookup — no hashing, no jitter, no allocation
/// per candidate.
#[derive(Debug, Clone)]
struct LoopPlan {
    inv: LoopInvariants,
    response_seed: u64,
    /// Vector gain by [`width_index`]; NaN marks an unsupported width.
    vec_gain: [f64; 4],
    fma: [f64; 4],
    freq_denom: [f64; 4],
    /// Prefetch utilization multiplier by level 0..=4.
    pf_mul: [f64; 5],
    /// Layout utilization multiplier by version 0..=7.
    layout_mul: [f64; 8],
    /// `hash_label(module name)` — the noise label, pre-hashed.
    name_hash: u64,
    /// Caliper annotation overhead factor (applied when instrumented).
    inst_mul: f64,
}

/// The non-loop module's hoisted scalars.
#[derive(Debug, Clone)]
struct NonLoopPlan {
    /// `seconds_per_step / arch.scalar_speed`.
    base: f64,
    name_hash: u64,
    inst_mul: f64,
}

// Nearly every module in a real program is a hot loop, so the plan
// vector is almost entirely `Loop` variants and the gather phase walks
// it once per batch. Keeping `LoopPlan` inline (rather than boxed)
// trades a few wasted bytes on the rare `NonLoop` entries for
// contiguous table reads on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum ModulePlan {
    Loop(LoopPlan),
    NonLoop(NonLoopPlan),
}

/// Everything candidate-invariant about evaluating one
/// `(program, architecture, run-shape)` triple, precomputed once.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    shape: ExecShape,
    /// `f64::from(shape.steps)`.
    steps_f: f64,
    arch_name: &'static str,
    /// `hash_label("codegen-luck")`.
    luck_hash: u64,
    /// `ln(max(u, 1))` for every u8 unroll factor.
    ln_unroll: Box<[f64; 256]>,
    modules: Vec<ModulePlan>,
}

impl BatchPlan {
    /// Precomputes the plan for one program × architecture × shape.
    pub fn new(program: &ProgramIr, arch: &Architecture, shape: ExecShape) -> Self {
        let mut ln_unroll = Box::new([0.0f64; 256]);
        for (u, slot) in ln_unroll.iter_mut().enumerate() {
            *slot = (u.max(1) as f64).ln();
        }
        let modules = program
            .modules
            .iter()
            .map(|m| {
                let name_hash = hash_label(&m.name);
                let inst_mul = 1.0 + 0.015 * jitter(name_hash, "caliper-ovh", 0.3, 1.8);
                match &m.kind {
                    ModuleKind::HotLoop(f) => {
                        let inv = LoopInvariants::new(f, arch);
                        let mut vec_gain = [f64::NAN; 4];
                        let mut fma = [0.0f64; 4];
                        let mut freq_denom = [0.0f64; 4];
                        for (i, w) in WIDTHS.iter().enumerate() {
                            if *w == VecWidth::Scalar || arch.simd_efficiency(w.bits()) > 0.0 {
                                vec_gain[i] = vec_gain_for(f, arch, *w);
                            }
                            fma[i] = fma_for(arch, *w, f.fp_fraction);
                            freq_denom[i] = freq_denom_for(arch, *w);
                        }
                        let pf_mul = std::array::from_fn(|p| inv.pf.multiplier(p as u8));
                        let layout_mul =
                            std::array::from_fn(|v| layout_mul_for(f.response_seed, v as u8));
                        ModulePlan::Loop(LoopPlan {
                            inv,
                            response_seed: f.response_seed,
                            vec_gain,
                            fma,
                            freq_denom,
                            pf_mul,
                            layout_mul,
                            name_hash,
                            inst_mul,
                        })
                    }
                    ModuleKind::NonLoop {
                        seconds_per_step, ..
                    } => ModulePlan::NonLoop(NonLoopPlan {
                        base: seconds_per_step / arch.scalar_speed,
                        name_hash,
                        inst_mul,
                    }),
                }
            })
            .collect();
        BatchPlan {
            shape,
            steps_f: f64::from(shape.steps),
            arch_name: arch.name,
            luck_hash: hash_label("codegen-luck"),
            ln_unroll,
            modules,
        }
    }

    /// The run shape this plan was built for.
    pub fn shape(&self) -> &ExecShape {
        &self.shape
    }

    /// Number of modules the planned program has.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }
}

// ---------------------------------------------------------------------
// The batch executor.
// ---------------------------------------------------------------------

/// W-wide structure-of-arrays scratch for one module's lanes: flat
/// `f64` arrays, one per [`LoopLane`] field, refilled per module.
struct LaneSoa {
    vec_gain: Vec<f64>,
    fma: Vec<f64>,
    freq_denom: Vec<f64>,
    unroll: Vec<f64>,
    ln_unroll: Vec<f64>,
    pipe_mul: Vec<f64>,
    jam_mul: Vec<f64>,
    bq: Vec<f64>,
    spill: Vec<f64>,
    chunk: Vec<f64>,
    icache: Vec<f64>,
    conflict: Vec<f64>,
    pf_mul: Vec<f64>,
    layout_mul: Vec<f64>,
    nt_mul: Vec<f64>,
    luck_mul: Vec<f64>,
    call_discount: Vec<f64>,
}

impl LaneSoa {
    fn new(w: usize) -> Self {
        LaneSoa {
            vec_gain: vec![0.0; w],
            fma: vec![0.0; w],
            freq_denom: vec![0.0; w],
            unroll: vec![0.0; w],
            ln_unroll: vec![0.0; w],
            pipe_mul: vec![0.0; w],
            jam_mul: vec![0.0; w],
            bq: vec![0.0; w],
            spill: vec![0.0; w],
            chunk: vec![0.0; w],
            icache: vec![0.0; w],
            conflict: vec![0.0; w],
            pf_mul: vec![0.0; w],
            layout_mul: vec![0.0; w],
            nt_mul: vec![0.0; w],
            luck_mul: vec![0.0; w],
            call_discount: vec![0.0; w],
        }
    }

    /// Gather: resolve one candidate's decisions for module `i` into
    /// lane `k` — the only branchy part of the batch path.
    fn gather(
        &mut self,
        k: usize,
        plan: &BatchPlan,
        lp: &LoopPlan,
        linked: &LinkedProgram,
        i: usize,
    ) {
        let m = &linked.modules[i];
        let d = &m.decisions;
        let wi = width_index(d.width);
        let vg = lp.vec_gain[wi];
        assert!(
            !vg.is_nan(),
            "width {:?} unsupported on {}",
            d.width,
            plan.arch_name
        );
        self.vec_gain[k] = vg;
        self.fma[k] = lp.fma[wi];
        self.freq_denom[k] = lp.freq_denom[wi];
        let unroll = f64::from(d.unroll.max(1));
        self.unroll[k] = unroll;
        self.ln_unroll[k] = plan.ln_unroll[usize::from(d.unroll.max(1))];
        self.pipe_mul[k] = if d.sw_pipelined { 1.05 } else { 1.0 };
        self.jam_mul[k] = if d.unroll_jam { 1.08 } else { 1.0 };
        self.bq[k] = d.backend_quality;
        self.spill[k] = d.register_spill;
        self.chunk[k] = unroll * d.width.lanes();
        self.icache[k] = linked.icache_factor;
        self.conflict[k] = linked.conflict_factor[i];
        self.pf_mul[k] = lp.pf_mul[usize::from(d.prefetch)];
        self.layout_mul[k] = lp.layout_mul[usize::from(d.layout_version)];
        self.nt_mul[k] = if d.streaming_stores {
            lp.inv.nt_factor
        } else {
            1.0
        };
        let luck_seed = luck_seed_for(
            lp.response_seed,
            m.cv_digest,
            linked.combo_seed,
            d.width,
            d.unroll,
        );
        self.luck_mul[k] = luck_mul_from_unit(unit_hashed(luck_seed, plan.luck_hash));
        self.call_discount[k] = call_discount_for(d.inline_depth, d.inline_factor);
    }

    /// Lane `k` as the kernel's input struct (all fields `Copy`).
    #[inline(always)]
    fn lane(&self, k: usize) -> LoopLane {
        LoopLane {
            vec_gain: self.vec_gain[k],
            fma: self.fma[k],
            freq_denom: self.freq_denom[k],
            unroll: self.unroll[k],
            ln_unroll: self.ln_unroll[k],
            pipe_mul: self.pipe_mul[k],
            jam_mul: self.jam_mul[k],
            bq: self.bq[k],
            spill: self.spill[k],
            chunk: self.chunk[k],
            icache: self.icache[k],
            conflict: self.conflict[k],
            pf_mul: self.pf_mul[k],
            layout_mul: self.layout_mul[k],
            nt_mul: self.nt_mul[k],
            luck_mul: self.luck_mul[k],
            call_discount: self.call_discount[k],
        }
    }
}

/// Per-lane end-to-end and per-module times of one batch (see
/// [`execute_batch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTimes {
    /// Lane `k`'s end-to-end time.
    pub totals: Vec<f64>,
    /// `per_module[i][k]`: module `i`'s time in lane `k`.
    pub per_module: Vec<Vec<f64>>,
}

/// Evaluates W candidates of the plan's program at once, each with its
/// own noise seed, returning each lane's end-to-end time.
///
/// Per lane, the result is bit-identical to
/// `execute_total(linked, arch, &plan.shape().options(noise_seed))`:
/// the same per-module kernels run in the same module order with the
/// same f64 accumulation. The lanes are laid out structure-of-arrays
/// so the arithmetic pass over W is branch-free and auto-vectorizable.
pub fn execute_batch_total(plan: &BatchPlan, lanes: &[(&LinkedProgram, u64)]) -> Vec<f64> {
    run_batch(plan, lanes, |_| {})
}

/// [`execute_batch_total`] that also keeps every module's time: per
/// lane, `totals[k]` has the bits of `execute_total` and
/// `per_module[i][k]` those of `execute(..).per_module_s[i]` under the
/// lane's seed.
pub fn execute_batch(plan: &BatchPlan, lanes: &[(&LinkedProgram, u64)]) -> BatchTimes {
    let mut per_module = Vec::with_capacity(plan.modules.len());
    let totals = run_batch(plan, lanes, |times| per_module.push(times.to_vec()));
    BatchTimes { totals, per_module }
}

/// The one batch kernel body. Per module, in `execute`'s module order,
/// it fills every lane's time (instrumentation and noise multipliers
/// applied), hands the lanes to `module_out`, then adds them
/// into each lane's running total.
fn run_batch(
    plan: &BatchPlan,
    lanes: &[(&LinkedProgram, u64)],
    mut module_out: impl FnMut(&[f64]),
) -> Vec<f64> {
    let w = lanes.len();
    let mut totals = vec![0.0f64; w];
    for (linked, _) in lanes {
        assert_eq!(
            linked.modules.len(),
            plan.modules.len(),
            "candidate/plan module count mismatch"
        );
    }
    let mut soa = LaneSoa::new(w);
    let mut per_lane = vec![0.0f64; w];
    for (i, mp) in plan.modules.iter().enumerate() {
        let (name_hash, inst_mul) = match mp {
            ModulePlan::Loop(lp) => {
                // Gather phase: branchy decision extraction into lanes.
                for (k, (linked, _)) in lanes.iter().enumerate() {
                    soa.gather(k, plan, lp, linked, i);
                }
                // Arithmetic phase: branch-free over the W lanes.
                for (k, t) in per_lane.iter_mut().enumerate() {
                    *t = loop_cost_kernel(&lp.inv, &soa.lane(k)).total_s * plan.steps_f;
                }
                (lp.name_hash, lp.inst_mul)
            }
            ModulePlan::NonLoop(np) => {
                for (k, (linked, _)) in lanes.iter().enumerate() {
                    per_lane[k] = non_loop_kernel(
                        np.base,
                        linked.modules[i].decisions.backend_quality,
                        linked.call_cost_s,
                    ) * plan.steps_f;
                }
                (np.name_hash, np.inst_mul)
            }
        };
        if plan.shape.instrumented {
            for t in per_lane.iter_mut() {
                *t *= inst_mul;
            }
        }
        if plan.shape.sigma > 0.0 {
            for (t, (_, noise_seed)) in per_lane.iter_mut().zip(lanes) {
                let seed = derive_seed_idx(*noise_seed, i as u64);
                *t *= noise::factor_hashed(seed, name_hash, plan.shape.sigma);
            }
        }
        module_out(&per_lane);
        // Per-lane accumulation in exactly `execute`'s module order.
        for (total, t) in totals.iter_mut().zip(&per_lane) {
            *total += *t;
        }
    }
    totals
}
