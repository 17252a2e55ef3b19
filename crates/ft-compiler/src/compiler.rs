//! The simulated optimizing compiler.

use crate::decisions::{vector_efficiency, CodegenDecisions, CompiledModule, IselChoice, VecWidth};
use crate::ir::{LoopFeatures, Module, ModuleKind, ProgramIr};
use crate::pgo::PgoProfile;
use crate::response::{jitter_hashed, unit_hashed};
use ft_flags::rng::hash_label;
use ft_flags::{Cv, FlagId, FlagSpace};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Compiler family being modelled. Personalities differ in vectorizer
/// aggressiveness and heuristic tuning, which is why the Figure 1
/// combined-elimination results differ between GCC and ICC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Personality {
    /// Intel-like: aggressive vectorizer, strong loop optimizer.
    IccLike,
    /// GNU-like: more conservative vectorization profitability model.
    GccLike,
}

impl Personality {
    /// Row of this personality in the per-personality label tables.
    fn index(self) -> usize {
        match self {
            Personality::IccLike => 0,
            Personality::GccLike => 1,
        }
    }
}

/// `hash_label(&format!("misest-vec-{bits}-{salt}"))`, the axis of the
/// vectorizer's per-width profitability misestimate, by
/// [`Personality::index`] (`salt` is `icc`, then `gcc`) and then by
/// vector width (128, 256, 512 bits; scalar code is never estimated).
const MISEST_VEC: [[u64; 3]; 2] = [
    [
        hash_label("misest-vec-128-icc"),
        hash_label("misest-vec-256-icc"),
        hash_label("misest-vec-512-icc"),
    ],
    [
        hash_label("misest-vec-128-gcc"),
        hash_label("misest-vec-256-gcc"),
        hash_label("misest-vec-512-gcc"),
    ],
];

/// `hash_label(&format!("u-heur-{salt}"))`, the axis of the `-O3`
/// unroll heuristic, by [`Personality::index`].
const U_HEUR: [u64; 2] = [hash_label("u-heur-icc"), hash_label("u-heur-gcc")];

/// Column of a vector width in [`MISEST_VEC`].
fn misest_column(w: VecWidth) -> usize {
    match w {
        VecWidth::W128 => 0,
        VecWidth::W256 => 1,
        VecWidth::W512 => 2,
        VecWidth::Scalar => unreachable!("scalar code has no vectorization estimate"),
    }
}

/// Code-generation target: the processor-specific `-x` flag of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Target {
    /// Target name for reports.
    pub name: &'static str,
    /// Widest SIMD the target supports (128 for SSE-class, 256 for
    /// AVX/AVX2-class).
    pub max_vector_bits: u32,
    /// Fused multiply-add available (AVX2/Broadwell).
    pub fma: bool,
    /// The processor-specific flag rendered in command lines.
    pub proc_flag: &'static str,
}

impl Target {
    /// AMD Opteron 6128 (no AVX; `default` processor flag in Table 2).
    pub fn sse_128() -> Self {
        Target {
            name: "sse",
            max_vector_bits: 128,
            fma: false,
            proc_flag: "default",
        }
    }

    /// Intel Sandy Bridge (`-xAVX`).
    pub fn avx_256() -> Self {
        Target {
            name: "avx",
            max_vector_bits: 256,
            fma: false,
            proc_flag: "-xAVX",
        }
    }

    /// Intel Broadwell (`-xCORE-AVX2`).
    pub fn avx2_256() -> Self {
        Target {
            name: "avx2",
            max_vector_bits: 256,
            fma: true,
            proc_flag: "-xCORE-AVX2",
        }
    }

    /// Intel Skylake-SP class (`-xCORE-AVX512`) — the future-platform
    /// extension beyond the paper's testbeds.
    pub fn avx512_512() -> Self {
        Target {
            name: "avx512",
            max_vector_bits: 512,
            fma: true,
            proc_flag: "-xCORE-AVX512",
        }
    }

    /// Clamps a width request to the widest the target supports.
    pub fn clamp(self, w: VecWidth) -> VecWidth {
        if w.bits() <= self.max_vector_bits {
            return w;
        }
        match self.max_vector_bits {
            bits if bits >= 512 => VecWidth::W512,
            bits if bits >= 256 => VecWidth::W256,
            _ => VecWidth::W128,
        }
    }
}

/// Unrolling request decoded from the CV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnrollReq {
    /// Heuristic default.
    Default,
    /// `-unroll=0`: disable unrolling.
    Disable,
    /// `-unroll=n`: force factor n.
    Force(u8),
}

/// Streaming-store request decoded from the CV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamReq {
    /// `-qopt-streaming-stores=auto`.
    Auto,
    /// `=always`.
    Always,
    /// `=never`.
    Never,
}

/// Three-state loop-restructuring request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriState {
    /// Compiler default heuristic.
    Default,
    /// Explicitly off.
    Off,
    /// Explicitly aggressive.
    Aggressive,
}

/// A CV decoded into compiler-internal semantics, independent of which
/// concrete [`FlagSpace`] (ICC-like or GCC-like) produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct FlagSemantics {
    pub opt_level: u8,
    pub vec_enabled: bool,
    pub forced_width: Option<VecWidth>,
    pub vec_threshold: f64,
    pub unroll: UnrollReq,
    pub unroll_aggressive: bool,
    pub ipo: bool,
    pub inline_level: u8,
    pub inline_factor: f64,
    pub stream: StreamReq,
    pub ansi_alias: bool,
    pub prefetch: u8,
    pub scalar_rep: bool,
    pub hoist: bool,
    pub gcse: bool,
    pub licm: bool,
    pub branch_comb: bool,
    pub jump_tables: bool,
    pub layout_level: u8,
    pub fuse: bool,
    pub swp: bool,
    pub isched_aggressive: bool,
    pub isel: IselChoice,
    pub regalloc_aggressive: bool,
    pub align_loops: u8,
    pub tail_dup: bool,
    pub if_convert: TriState,
    pub multiversion: TriState,
    pub collapse: bool,
    pub align_structs: bool,
    pub matmul: bool,
    pub unroll_jam: bool,
    pub distribute: bool,
}

impl Default for FlagSemantics {
    /// `-O3` baseline semantics.
    fn default() -> Self {
        FlagSemantics {
            opt_level: 3,
            vec_enabled: true,
            forced_width: None,
            vec_threshold: 100.0,
            unroll: UnrollReq::Default,
            unroll_aggressive: false,
            ipo: false,
            inline_level: 2,
            inline_factor: 1.0,
            stream: StreamReq::Auto,
            ansi_alias: true,
            prefetch: 2,
            scalar_rep: true,
            hoist: true,
            gcse: true,
            licm: true,
            branch_comb: true,
            jump_tables: true,
            layout_level: 2,
            fuse: true,
            swp: true,
            isched_aggressive: false,
            isel: IselChoice::Default,
            regalloc_aggressive: false,
            align_loops: 0,
            tail_dup: false,
            if_convert: TriState::Default,
            multiversion: TriState::Default,
            collapse: false,
            align_structs: false,
            matmul: false,
            unroll_jam: false,
            distribute: false,
        }
    }
}

/// Resolved flag indices for the ICC-like space.
#[derive(Debug, Clone)]
struct IccIdx {
    o: FlagId,
    vec: FlagId,
    simd_width: FlagId,
    vec_threshold: FlagId,
    unroll: FlagId,
    unroll_aggr: FlagId,
    ipo: FlagId,
    inline_level: FlagId,
    inline_factor: FlagId,
    stream: FlagId,
    ansi_alias: FlagId,
    prefetch: FlagId,
    scalar_rep: FlagId,
    layout: FlagId,
    fuse: FlagId,
    swp: FlagId,
    isched: FlagId,
    isel: FlagId,
    regalloc: FlagId,
    align_loops: FlagId,
    hoist: FlagId,
    gcse: FlagId,
    licm: FlagId,
    tail_dup: FlagId,
    branch_comb: FlagId,
    if_convert: FlagId,
    multiversion: FlagId,
    collapse: FlagId,
    align_structs: FlagId,
    matmul: FlagId,
    jump_tables: FlagId,
    unroll_jam: FlagId,
    distribute: FlagId,
}

impl IccIdx {
    fn resolve(space: &FlagSpace) -> Self {
        let g = |n: &str| {
            space
                .index_of(n)
                .unwrap_or_else(|| panic!("missing flag {n}"))
        };
        IccIdx {
            o: g("O"),
            vec: g("vec"),
            simd_width: g("simd-width"),
            vec_threshold: g("qopt-vec-threshold"),
            unroll: g("unroll"),
            unroll_aggr: g("unroll-aggressive"),
            ipo: g("ipo"),
            inline_level: g("inline-level"),
            inline_factor: g("inline-factor"),
            stream: g("qopt-streaming-stores"),
            ansi_alias: g("ansi-alias"),
            prefetch: g("qopt-prefetch"),
            scalar_rep: g("scalar-rep"),
            layout: g("qopt-mem-layout-trans"),
            fuse: g("fuse-loops"),
            swp: g("sw-pipelining"),
            isched: g("isched"),
            isel: g("isel"),
            regalloc: g("regalloc-aggressive"),
            align_loops: g("align-loops"),
            hoist: g("code-hoisting"),
            gcse: g("gcse"),
            licm: g("licm"),
            tail_dup: g("tail-dup"),
            branch_comb: g("branch-combine"),
            if_convert: g("if-convert"),
            multiversion: g("loop-multiversion"),
            collapse: g("collapse-loops"),
            align_structs: g("align-structs"),
            matmul: g("opt-matmul"),
            jump_tables: g("jump-tables"),
            unroll_jam: g("unroll-jam"),
            distribute: g("distribute-loops"),
        }
    }
}

/// Resolved flag indices for the GCC-like space (subset of semantics).
#[derive(Debug, Clone)]
struct GccIdx {
    o: FlagId,
    tree_vec: FlagId,
    slp_vec: FlagId,
    unroll: FlagId,
    peel: FlagId,
    ipa_cp: FlagId,
    ipa_pta: FlagId,
    inline_fns: FlagId,
    early_inline: FlagId,
    strict_alias: FlagId,
    prefetch: FlagId,
    gcse_ar: FlagId,
    loop_im: FlagId,
    tree_pre: FlagId,
    pred_common: FlagId,
    loop_dist: FlagId,
    split_loops: FlagId,
    unswitch: FlagId,
    sched_pressure: FlagId,
    sched_insns: FlagId,
    ira_hoist: FlagId,
    reorder_blocks: FlagId,
    align_loops: FlagId,
    partial_pre: FlagId,
    graphite: FlagId,
}

impl GccIdx {
    fn resolve(space: &FlagSpace) -> Self {
        let g = |n: &str| {
            space
                .index_of(n)
                .unwrap_or_else(|| panic!("missing flag {n}"))
        };
        GccIdx {
            o: g("O"),
            tree_vec: g("ftree-vectorize"),
            slp_vec: g("ftree-slp-vectorize"),
            unroll: g("funroll-loops"),
            peel: g("fpeel-loops"),
            ipa_cp: g("fipa-cp-clone"),
            ipa_pta: g("fipa-pta"),
            inline_fns: g("finline-functions"),
            early_inline: g("fearly-inlining"),
            strict_alias: g("fstrict-aliasing"),
            prefetch: g("fprefetch-loop-arrays"),
            gcse_ar: g("fgcse-after-reload"),
            loop_im: g("ftree-loop-im"),
            tree_pre: g("ftree-pre"),
            pred_common: g("fpredictive-commoning"),
            loop_dist: g("ftree-loop-distribution"),
            split_loops: g("fsplit-loops"),
            unswitch: g("funswitch-loops"),
            sched_pressure: g("fsched-pressure"),
            sched_insns: g("fschedule-insns"),
            ira_hoist: g("fira-hoist-pressure"),
            reorder_blocks: g("freorder-blocks-and-partition"),
            align_loops: g("falign-loops"),
            partial_pre: g("ftree-partial-pre"),
            graphite: g("fgraphite-identity"),
        }
    }
}

enum SpaceIdx {
    Icc(IccIdx),
    Gcc(GccIdx),
}

/// The simulated compiler: a personality, a target, and the flag space
/// it accepts.
pub struct Compiler {
    personality: Personality,
    target: Target,
    space: FlagSpace,
    idx: SpaceIdx,
}

impl Compiler {
    /// Builds a compiler for a flag space (`icc` or `gcc`).
    pub fn new(personality: Personality, target: Target, space: FlagSpace) -> Self {
        let idx = match space.name() {
            "icc" => SpaceIdx::Icc(IccIdx::resolve(&space)),
            "gcc" => SpaceIdx::Gcc(GccIdx::resolve(&space)),
            other => panic!("unknown flag space {other}"),
        };
        Compiler {
            personality,
            target,
            space,
            idx,
        }
    }

    /// ICC-like compiler for a target — the configuration used by all
    /// main-line experiments.
    pub fn icc(target: Target) -> Self {
        Compiler::new(Personality::IccLike, target, FlagSpace::icc())
    }

    /// GCC-like compiler (used by the Figure 1 motivation experiment).
    pub fn gcc(target: Target) -> Self {
        Compiler::new(Personality::GccLike, target, FlagSpace::gcc())
    }

    /// The flag space this compiler accepts.
    pub fn space(&self) -> &FlagSpace {
        &self.space
    }

    /// The code-generation target.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The modelled compiler family.
    pub fn personality(&self) -> Personality {
        self.personality
    }

    /// Decodes a CV into flag semantics.
    pub fn semantics(&self, cv: &Cv) -> FlagSemantics {
        match &self.idx {
            SpaceIdx::Icc(ix) => self.icc_semantics(ix, cv),
            SpaceIdx::Gcc(ix) => self.gcc_semantics(ix, cv),
        }
    }

    fn icc_semantics(&self, ix: &IccIdx, cv: &Cv) -> FlagSemantics {
        let tri = |v: u8| match v {
            0 => TriState::Default,
            1 => TriState::Off,
            _ => TriState::Aggressive,
        };
        FlagSemantics {
            opt_level: if cv.get(ix.o) == 0 { 3 } else { 2 },
            vec_enabled: cv.get(ix.vec) == 0,
            forced_width: match cv.get(ix.simd_width) {
                0 => None,
                1 => Some(VecWidth::W128),
                _ => Some(VecWidth::W256),
            },
            vec_threshold: [100.0, 0.0, 25.0, 50.0, 75.0][cv.get(ix.vec_threshold) as usize],
            unroll: match cv.get(ix.unroll) {
                0 => UnrollReq::Default,
                1 => UnrollReq::Disable,
                v => UnrollReq::Force([0u8, 0, 2, 4, 8, 16][v as usize]),
            },
            unroll_aggressive: cv.get(ix.unroll_aggr) == 1,
            ipo: cv.get(ix.ipo) == 1,
            inline_level: [2u8, 0, 1][cv.get(ix.inline_level) as usize],
            inline_factor: [1.0, 0.25, 0.5, 2.0][cv.get(ix.inline_factor) as usize],
            stream: [StreamReq::Auto, StreamReq::Always, StreamReq::Never]
                [cv.get(ix.stream) as usize],
            ansi_alias: cv.get(ix.ansi_alias) == 0,
            prefetch: [2u8, 0, 1, 3, 4][cv.get(ix.prefetch) as usize],
            scalar_rep: cv.get(ix.scalar_rep) == 0,
            layout_level: [2u8, 0, 1, 3][cv.get(ix.layout) as usize],
            fuse: cv.get(ix.fuse) == 0,
            swp: cv.get(ix.swp) == 0,
            isched_aggressive: cv.get(ix.isched) == 1,
            isel: [IselChoice::Default, IselChoice::Size, IselChoice::Speed]
                [cv.get(ix.isel) as usize],
            regalloc_aggressive: cv.get(ix.regalloc) == 1,
            align_loops: [0u8, 8, 16, 32, 64][cv.get(ix.align_loops) as usize],
            hoist: cv.get(ix.hoist) == 0,
            gcse: cv.get(ix.gcse) == 0,
            licm: cv.get(ix.licm) == 0,
            tail_dup: cv.get(ix.tail_dup) == 1,
            branch_comb: cv.get(ix.branch_comb) == 0,
            jump_tables: cv.get(ix.jump_tables) == 0,
            if_convert: tri(cv.get(ix.if_convert)),
            multiversion: tri(cv.get(ix.multiversion)),
            collapse: cv.get(ix.collapse) == 1,
            align_structs: cv.get(ix.align_structs) == 1,
            matmul: cv.get(ix.matmul) == 1,
            unroll_jam: cv.get(ix.unroll_jam) == 1,
            distribute: cv.get(ix.distribute) == 1,
        }
    }

    fn gcc_semantics(&self, ix: &GccIdx, cv: &Cv) -> FlagSemantics {
        // GCC binary flags: index 0 = on (the -O3 default), 1 = off.
        let on = |id: FlagId| cv.get(id) == 0;
        FlagSemantics {
            opt_level: if cv.get(ix.o) == 0 { 3 } else { 2 },
            vec_enabled: on(ix.tree_vec),
            forced_width: None,
            // SLP vectorization off makes the profitability model more
            // conservative.
            vec_threshold: if on(ix.slp_vec) { 100.0 } else { 120.0 },
            unroll: if on(ix.unroll) {
                UnrollReq::Default
            } else {
                UnrollReq::Disable
            },
            unroll_aggressive: on(ix.peel) && on(ix.split_loops),
            ipo: on(ix.ipa_cp) && on(ix.ipa_pta),
            inline_level: if on(ix.inline_fns) { 2 } else { 0 },
            inline_factor: if on(ix.early_inline) { 1.0 } else { 0.5 },
            stream: StreamReq::Auto,
            ansi_alias: on(ix.strict_alias),
            prefetch: if on(ix.prefetch) { 2 } else { 0 },
            scalar_rep: on(ix.pred_common),
            layout_level: if on(ix.graphite) { 2 } else { 0 },
            fuse: true,
            swp: on(ix.sched_insns),
            isched_aggressive: on(ix.sched_pressure),
            isel: if on(ix.reorder_blocks) {
                IselChoice::Default
            } else {
                IselChoice::Size
            },
            regalloc_aggressive: on(ix.ira_hoist),
            align_loops: if on(ix.align_loops) { 16 } else { 0 },
            hoist: on(ix.ira_hoist),
            gcse: on(ix.gcse_ar),
            licm: on(ix.loop_im),
            tail_dup: false,
            branch_comb: on(ix.tree_pre),
            jump_tables: on(ix.partial_pre),
            if_convert: if on(ix.unswitch) {
                TriState::Default
            } else {
                TriState::Off
            },
            multiversion: TriState::Default,
            collapse: false,
            align_structs: false,
            matmul: false,
            unroll_jam: false,
            distribute: on(ix.loop_dist),
        }
    }

    /// Compiles one module with one CV. The object gets a descriptor
    /// of its own; callers compiling a module many times share one
    /// through [`Compiler::compile_shared`].
    pub fn compile_module(&self, module: &Module, cv: &Cv) -> CompiledModule {
        self.compile_shared(&Arc::new(module.clone()), cv)
    }

    /// Compiles one module with one CV; the object points at `module`
    /// instead of copying it. Equal (`==`) to
    /// [`Compiler::compile_module`] on the same module.
    pub fn compile_shared(&self, module: &Arc<Module>, cv: &Cv) -> CompiledModule {
        let decisions = match &module.kind {
            ModuleKind::HotLoop(f) => self.decide_loop(f, &self.semantics(cv), None),
            ModuleKind::NonLoop { code_bytes, .. } => {
                self.decide_non_loop(*code_bytes, &self.semantics(cv), module)
            }
        };
        CompiledModule {
            module: Arc::clone(module),
            decisions,
            cv_digest: cv.digest(),
        }
    }

    /// Compiles every module of a program with the *same* CV — the
    /// traditional compilation model and the per-loop data-collection
    /// step of Figure 4.
    pub fn compile_program(&self, ir: &ProgramIr, cv: &Cv) -> Vec<CompiledModule> {
        ir.modules
            .iter()
            .map(|m| self.compile_module(m, cv))
            .collect()
    }

    /// Compiles module `j` with `assignment[j]` — the per-loop
    /// compilation model used by FR, G and CFR.
    pub fn compile_mixed(&self, ir: &ProgramIr, assignment: &[Cv]) -> Vec<CompiledModule> {
        assert_eq!(assignment.len(), ir.modules.len(), "one CV per module");
        ir.modules
            .iter()
            .zip(assignment)
            .map(|(m, cv)| self.compile_module(m, cv))
            .collect()
    }

    /// Compiles a module using a PGO profile: heuristic estimates of
    /// trip counts and call targets are replaced by measured values.
    pub fn compile_module_with_profile(
        &self,
        module: &Module,
        cv: &Cv,
        profile: &PgoProfile,
    ) -> CompiledModule {
        let decisions = match &module.kind {
            ModuleKind::HotLoop(f) => self.decide_loop(f, &self.semantics(cv), Some(profile)),
            ModuleKind::NonLoop { code_bytes, .. } => {
                let mut d = self.decide_non_loop(*code_bytes, &self.semantics(cv), module);
                // Call-target knowledge improves non-loop code slightly.
                d.backend_quality *= 1.0 + 0.01 * profile.call_knowledge;
                d
            }
        };
        CompiledModule {
            module: Arc::new(module.clone()),
            decisions,
            cv_digest: cv.digest() ^ 0x9_60,
        }
    }

    /// The unified loop code-generation decision procedure.
    fn decide_loop(
        &self,
        f: &LoopFeatures,
        sem: &FlagSemantics,
        profile: Option<&PgoProfile>,
    ) -> CodegenDecisions {
        let seed = f.response_seed;
        let personality = self.personality.index();

        // --- Trip-count knowledge -------------------------------------
        // Statically the compiler only guesses the trip count; PGO
        // replaces the guess with the measured value.
        let trip_est = match profile {
            Some(_) => f.trip_count,
            None => f.trip_count * jitter_hashed(seed, const { hash_label("trip-est") }, 0.25, 3.0),
        };

        // --- Vectorization --------------------------------------------
        let legal = !f.carried_dependence;
        let gcc_consv = if self.personality == Personality::GccLike {
            0.92
        } else {
            1.0
        };
        let est = |w: VecWidth| {
            let axis = MISEST_VEC[personality][misest_column(w)];
            vector_efficiency(f, w) * jitter_hashed(seed, axis, 0.65, 1.45) * gcc_consv
        };
        let width = if !sem.vec_enabled || !legal {
            VecWidth::Scalar
        } else if let Some(wreq) = sem.forced_width {
            let w = self.target.clamp(wreq);
            // A forced width is still subject to the legality check but
            // not the profitability threshold.
            w
        } else {
            // Auto: pick the estimated-best width that clears the
            // profitability threshold (threshold 100 = must beat scalar).
            let mut best = VecWidth::Scalar;
            let mut best_gain = sem.vec_threshold / 100.0;
            // 128-bit is always a candidate; wider ones when the target
            // has them.
            let candidates = [VecWidth::W128, VecWidth::W256, VecWidth::W512];
            for w in candidates {
                if w != VecWidth::W128 && self.target.max_vector_bits < w.bits() {
                    continue;
                }
                let g = est(w);
                if g >= best_gain {
                    best_gain = g;
                    best = w;
                }
            }
            best
        };

        // --- Unrolling --------------------------------------------------
        let small_body = f.ops_per_iter < 60.0;
        let unroll = match sem.unroll {
            UnrollReq::Disable => 1,
            UnrollReq::Force(n) => n.max(1),
            UnrollReq::Default => {
                if small_body && trip_est > 128.0 {
                    // O3 heuristic: unroll small hot loops 2-4x,
                    // loop-specifically.
                    2 + (unit_hashed(seed, U_HEUR[personality]) * 2.2) as u8
                } else {
                    1
                }
            }
        };
        let unroll = if sem.unroll_aggressive {
            (unroll * 2).min(16)
        } else {
            unroll.min(16)
        };
        let unroll_jam = sem.unroll_jam && f.divergence < 0.3;

        // --- Register pressure / spilling -------------------------------
        let lanes = width.lanes();
        let pressure = f.ilp
            * (1.0 + 0.35 * (f64::from(unroll)).ln().max(0.0))
            * (1.0 + 0.4 * (lanes - 1.0) / 3.0)
            * (if sem.swp { 1.15 } else { 1.0 })
            * jitter_hashed(seed, const { hash_label("pressure") }, 0.8, 1.25);
        let capacity = if sem.regalloc_aggressive { 7.5 } else { 6.5 };
        let register_spill = ((pressure / capacity) - 1.0).max(0.0) * 0.35;

        // --- Streaming stores -------------------------------------------
        let streaming_stores = match sem.stream {
            StreamReq::Always => true,
            StreamReq::Never => false,
            StreamReq::Auto => {
                f.streaming > jitter_hashed(seed, const { hash_label("nt-thresh") }, 0.55, 0.75)
                    && f.write_fraction > 0.35
            }
        };

        // --- Back-end quality -------------------------------------------
        // Product of small loop-specific gains/losses from scalar and
        // back-end flags. 1.0 is the -O3 default configuration quality;
        // the jitter ranges straddle zero so *disabling* a pass is
        // sometimes the winning move for a specific loop.
        let mut q: f64 = 1.0;
        // Each pass: (enabled, on by default, gain axis, scale, lo, hi).
        #[rustfmt::skip]
        let passes = [
            (sem.licm, true, const { hash_label("licm") }, 0.16, 0.2, 1.6),
            (sem.gcse, true, const { hash_label("gcse") }, 0.105, -0.4, 1.5),
            (sem.scalar_rep, true, const { hash_label("srep") }, 0.13, -0.3, 1.5),
            (sem.hoist, true, const { hash_label("hoist") }, 0.08, -0.6, 1.4),
            (sem.branch_comb, true, const { hash_label("bcomb") }, 0.07, -0.5, 1.4),
            (sem.jump_tables, true, const { hash_label("jt") }, 0.022, -1.0, 1.5),
            (sem.fuse, true, const { hash_label("fuse") }, 0.08, -0.8, 1.4),
            (sem.isched_aggressive, false, const { hash_label("isched") }, 0.15, -1.4, 1.4),
            (sem.tail_dup, false, const { hash_label("taildup") }, 0.10, -1.4, 1.4),
            (sem.collapse, false, const { hash_label("collapse") }, 0.08, -1.4, 1.4),
            (sem.distribute, false, const { hash_label("dist") }, 0.13, -1.4, 1.4),
            (sem.matmul, false, const { hash_label("matmul") }, 0.045, -1.4, 1.4),
        ];
        for (on, default_on, axis, scale, lo, hi) in passes {
            if on != default_on {
                let gain = scale * jitter_hashed(seed, axis, lo, hi);
                // Deviating from the default applies (or removes) the
                // pass effect relative to the O3 baseline.
                if default_on {
                    q /= 1.0 + gain;
                } else {
                    q *= 1.0 + gain;
                }
            }
        }
        // Software pipelining: pays off on regular high-ILP bodies,
        // hurts divergent ones.
        let swp_gain = 0.13
            * (f.ilp / 4.0).min(1.5)
            * (1.0 - 1.8 * f.divergence)
            * jitter_hashed(seed, const { hash_label("swp") }, 0.5, 1.5);
        if sem.swp {
            q *= 1.0 + swp_gain.max(-0.12);
        }
        // Instruction selection.
        match sem.isel {
            IselChoice::Default => {}
            IselChoice::Speed => {
                q *= 1.0 + 0.15 * jitter_hashed(seed, const { hash_label("isel-speed") }, -1.3, 1.4)
            }
            IselChoice::Size => {
                q *= 1.0 + 0.09 * jitter_hashed(seed, const { hash_label("isel-size") }, -1.8, 0.8)
            }
        }
        // Loop alignment: small, loop-specific.
        if sem.align_loops >= 32 {
            q *= 1.0 + 0.06 * jitter_hashed(seed, const { hash_label("align") }, -1.2, 1.3);
        }
        // Aggressive if-conversion trades branches for predication.
        if sem.if_convert == TriState::Aggressive {
            q *= 1.0
                + 0.20
                    * (f.divergence - 0.35)
                    * jitter_hashed(seed, const { hash_label("ifcvt") }, 0.4, 1.6);
        } else if sem.if_convert == TriState::Off && f.divergence > 0.4 {
            q *= 1.0 - 0.02 * jitter_hashed(seed, const { hash_label("ifcvt-off") }, 0.0, 1.0);
        }
        // Strict aliasing unlocks reordering on most loops but the
        // assumption occasionally back-fires (the paper's case study
        // finds -no-ansi-alias among critical flags).
        let alias_gain = 0.15 * jitter_hashed(seed, const { hash_label("alias") }, -1.2, 1.3);
        if !sem.ansi_alias {
            q /= 1.0 + alias_gain;
        }
        // O2 loses a little codegen quality across the board.
        if sem.opt_level == 2 {
            q *= 1.0 - 0.025 * jitter_hashed(seed, const { hash_label("o2") }, 0.4, 1.6);
        }
        // Multi-versioning costs dispatch overhead unless it enables a
        // better specialized body for this loop.
        match sem.multiversion {
            TriState::Aggressive => {
                q *= 1.0 + 0.105 * jitter_hashed(seed, const { hash_label("mv") }, -1.4, 1.4)
            }
            TriState::Off => {
                q *= 1.0 + 0.03 * jitter_hashed(seed, const { hash_label("mv-off") }, -1.0, 1.2)
            }
            TriState::Default => {}
        }
        // PGO sharpens block layout and branch hints a touch.
        if profile.is_some() {
            q *= 1.0 + 0.012 * jitter_hashed(seed, const { hash_label("pgo-layout") }, 0.2, 1.4);
        }

        // --- Inlining ---------------------------------------------------
        let inline_depth = sem.inline_level;
        let inline_factor = sem.inline_factor;

        // --- Code size ---------------------------------------------------
        let width_size = match width {
            VecWidth::Scalar => 1.0,
            VecWidth::W128 => 1.25,
            VecWidth::W256 => 1.45,
            VecWidth::W512 => 1.65,
        };
        let mv_size = match sem.multiversion {
            TriState::Aggressive => 1.6,
            TriState::Default if width != VecWidth::Scalar => 1.3,
            _ => 1.0,
        };
        let isel_size = match sem.isel {
            IselChoice::Speed => 1.12,
            IselChoice::Size => 0.82,
            IselChoice::Default => 1.0,
        };
        let code_bytes = f.base_code_bytes
            * (1.0 + 0.35 * f64::from(unroll.saturating_sub(1)))
            * width_size
            * mv_size
            * isel_size
            * (if unroll_jam { 1.25 } else { 1.0 })
            * (1.0 + 0.10 * f64::from(inline_depth) * inline_factor)
            * (if sem.opt_level == 2 { 0.9 } else { 1.0 })
            * (if sem.tail_dup { 1.1 } else { 1.0 })
            * (if sem.distribute { 1.15 } else { 1.0 })
            * (if sem.if_convert == TriState::Aggressive {
                1.08
            } else {
                1.0
            });

        CodegenDecisions {
            opt_level: sem.opt_level,
            width,
            unroll,
            unroll_jam,
            sw_pipelined: sem.swp,
            streaming_stores,
            prefetch: sem.prefetch,
            inline_depth,
            inline_factor,
            sched_aggressive: sem.isched_aggressive,
            isel: sem.isel,
            backend_quality: q,
            register_spill,
            alias_optimistic: sem.ansi_alias,
            layout_version: sem.layout_level + if sem.align_structs { 4 } else { 0 },
            code_bytes,
            ipo: sem.ipo,
        }
    }

    /// Decision procedure for the aggregated non-loop module.
    fn decide_non_loop(
        &self,
        code_bytes: f64,
        sem: &FlagSemantics,
        module: &Module,
    ) -> CodegenDecisions {
        let seed = hash_label(&module.name) ^ 0x5eed;
        let mut d = CodegenDecisions::o3_default(code_bytes);
        d.opt_level = sem.opt_level;
        d.ipo = sem.ipo;
        d.inline_depth = sem.inline_level;
        d.inline_factor = sem.inline_factor;
        d.isel = sem.isel;
        d.alias_optimistic = sem.ansi_alias;
        d.layout_version = sem.layout_level + if sem.align_structs { 4 } else { 0 };
        // Non-loop code is mostly branchy scalar code: O level and
        // inlining dominate, everything else is noise.
        let mut q: f64 = 1.0;
        if sem.opt_level == 2 {
            q *= 0.985;
        }
        q *= 1.0 + 0.01 * (f64::from(sem.inline_level) - 2.0) / 2.0;
        if sem.isel == IselChoice::Size {
            q *= 1.0 - 0.008;
        }
        if !sem.licm {
            q *= 0.995;
        }
        if !sem.gcse {
            q *= 0.997;
        }
        q *= 1.0 + 0.004 * jitter_hashed(seed, const { hash_label("nl-jitter") }, -1.0, 1.0);
        d.backend_quality = q;
        d.code_bytes = code_bytes
            * (1.0 + 0.15 * f64::from(sem.inline_level) * sem.inline_factor / 2.0)
            * (if sem.opt_level == 2 { 0.92 } else { 1.0 });
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_flags::rng::rng_for;

    fn icc() -> Compiler {
        Compiler::icc(Target::avx2_256())
    }

    fn loop_module(seed: u64) -> Module {
        Module::hot_loop(0, "k", LoopFeatures::synthetic(seed), &[1])
    }

    #[test]
    fn o3_semantics_are_defaults() {
        let c = icc();
        let sem = c.semantics(&c.space().baseline());
        assert_eq!(sem, FlagSemantics::default());
    }

    #[test]
    fn novec_forces_scalar() {
        let c = icc();
        let cv = c
            .space()
            .baseline()
            .with(c.space(), c.space().index_of("vec").unwrap(), 1);
        let cm = c.compile_module(&loop_module(1), &cv);
        assert_eq!(cm.decisions.width, VecWidth::Scalar);
    }

    #[test]
    fn forced_width_clamped_to_target() {
        let c = Compiler::icc(Target::sse_128());
        let id = c.space().index_of("simd-width").unwrap();
        let cv = c.space().baseline().with(c.space(), id, 2); // request 256
        let cm = c.compile_module(&loop_module(1), &cv);
        assert_eq!(cm.decisions.width, VecWidth::W128, "Opteron has no AVX");
    }

    #[test]
    fn clean_loop_auto_vectorizes_on_avx2() {
        let c = icc();
        let cm = c.compile_module(&loop_module(1), &c.space().baseline());
        assert_ne!(cm.decisions.width, VecWidth::Scalar);
    }

    #[test]
    fn carried_dependence_blocks_vectorization() {
        let c = icc();
        let mut f = LoopFeatures::synthetic(1);
        f.carried_dependence = true;
        let m = Module::hot_loop(0, "dep", f, &[]);
        for seed in 0..20 {
            let cv = c.space().sample(&mut rng_for(seed, "dep"));
            assert_eq!(c.compile_module(&m, &cv).decisions.width, VecWidth::Scalar);
        }
    }

    #[test]
    fn unroll_flag_forces_factor() {
        let c = icc();
        let id = c.space().index_of("unroll").unwrap();
        let cv = c.space().baseline().with(c.space(), id, 4); // -unroll=8
        let cm = c.compile_module(&loop_module(1), &cv);
        assert_eq!(cm.decisions.unroll, 8);
        let cv0 = c.space().baseline().with(c.space(), id, 1); // -unroll=0
        assert_eq!(c.compile_module(&loop_module(1), &cv0).decisions.unroll, 1);
    }

    #[test]
    fn heavy_unroll_wide_vec_spills() {
        let c = icc();
        let sp = c.space();
        let mut cv = sp.baseline();
        cv = cv.with(sp, sp.index_of("unroll").unwrap(), 5); // 16x
        cv = cv.with(sp, sp.index_of("simd-width").unwrap(), 2); // 256
        let mut f = LoopFeatures::synthetic(3);
        f.ilp = 6.0;
        let m = Module::hot_loop(0, "fat", f, &[]);
        let cm = c.compile_module(&m, &cv);
        assert!(
            cm.decisions.register_spill > 0.05,
            "{}",
            cm.decisions.register_spill
        );
    }

    #[test]
    fn streaming_always_and_never() {
        let c = icc();
        let sp = c.space();
        let id = sp.index_of("qopt-streaming-stores").unwrap();
        let always = c.compile_module(&loop_module(1), &sp.baseline().with(sp, id, 1));
        assert!(always.decisions.streaming_stores);
        let never = c.compile_module(&loop_module(1), &sp.baseline().with(sp, id, 2));
        assert!(!never.decisions.streaming_stores);
    }

    #[test]
    fn code_size_grows_with_unroll() {
        let c = icc();
        let sp = c.space();
        let id = sp.index_of("unroll").unwrap();
        let base = c.compile_module(&loop_module(1), &sp.baseline());
        let unrolled = c.compile_module(&loop_module(1), &sp.baseline().with(sp, id, 5));
        assert!(unrolled.decisions.code_bytes > base.decisions.code_bytes * 2.0);
    }

    #[test]
    fn backend_quality_is_loop_specific() {
        let c = icc();
        let sp = c.space();
        let cv = sp.baseline().with(sp, sp.index_of("isched").unwrap(), 1);
        let a = c
            .compile_module(&loop_module(1), &cv)
            .decisions
            .backend_quality;
        let b = c
            .compile_module(&loop_module(77), &cv)
            .decisions
            .backend_quality;
        assert_ne!(a, b);
    }

    #[test]
    fn disabling_a_pass_helps_some_loop() {
        // Across many loops, -no-licm (or friends) must help at least
        // one and hurt at least one: jitter straddles zero.
        let c = icc();
        let sp = c.space();
        let cv = sp.baseline().with(sp, sp.index_of("gcse").unwrap(), 1);
        let mut helped = 0;
        let mut hurt = 0;
        for seed in 0..60 {
            let q = c
                .compile_module(&loop_module(seed), &cv)
                .decisions
                .backend_quality;
            if q > 1.0 {
                helped += 1;
            }
            if q < 1.0 {
                hurt += 1;
            }
        }
        assert!(helped > 3, "no loop liked -no-gcse ({helped})");
        assert!(hurt > 10, "-no-gcse should usually hurt ({hurt})");
    }

    #[test]
    fn compile_program_is_deterministic() {
        let c = icc();
        let p = ProgramIr::new(
            "p",
            vec![loop_module(1), Module::non_loop(1, 0.2, 1e4)],
            vec![],
        );
        let cv = c.space().sample(&mut rng_for(5, "det"));
        let a = c.compile_program(&p, &cv);
        let b = c.compile_program(&p, &cv);
        assert_eq!(a, b);
    }

    #[test]
    fn compile_mixed_requires_full_assignment() {
        let c = icc();
        let p = ProgramIr::new(
            "p",
            vec![loop_module(1), Module::non_loop(1, 0.2, 1e4)],
            vec![],
        );
        let cvs = vec![c.space().baseline(), c.space().baseline()];
        assert_eq!(c.compile_mixed(&p, &cvs).len(), 2);
    }

    #[test]
    #[should_panic(expected = "one CV per module")]
    fn compile_mixed_rejects_short_assignment() {
        let c = icc();
        let p = ProgramIr::new(
            "p",
            vec![loop_module(1), Module::non_loop(1, 0.2, 1e4)],
            vec![],
        );
        let _ = c.compile_mixed(&p, &[c.space().baseline()]);
    }

    #[test]
    fn gcc_space_compiles() {
        let c = Compiler::gcc(Target::avx2_256());
        let cm = c.compile_module(&loop_module(1), &c.space().baseline());
        assert!(cm.decisions.backend_quality > 0.5);
        let off =
            c.space()
                .baseline()
                .with(c.space(), c.space().index_of("ftree-vectorize").unwrap(), 1);
        assert_eq!(
            c.compile_module(&loop_module(1), &off).decisions.width,
            VecWidth::Scalar
        );
    }

    #[test]
    fn personalities_decide_differently_somewhere() {
        let icc = Compiler::icc(Target::avx2_256());
        let mut diff = false;
        for seed in 0..40 {
            let m = loop_module(seed);
            let a = icc.compile_module(&m, &icc.space().baseline());
            // Compare auto width to a GCC-personality compiler over the
            // same ICC space (constructed manually for the test).
            let gcc = Compiler::new(Personality::GccLike, Target::avx2_256(), FlagSpace::icc());
            let b = gcc.compile_module(&m, &gcc.space().baseline());
            if a.decisions.width != b.decisions.width || a.decisions.unroll != b.decisions.unroll {
                diff = true;
                break;
            }
        }
        assert!(diff, "personalities never disagreed");
    }

    #[test]
    fn label_tables_match_their_formatted_labels() {
        for (p, salt) in [(Personality::IccLike, "icc"), (Personality::GccLike, "gcc")] {
            for w in [VecWidth::W128, VecWidth::W256, VecWidth::W512] {
                assert_eq!(
                    MISEST_VEC[p.index()][misest_column(w)],
                    hash_label(&format!("misest-vec-{}-{salt}", w.bits())),
                    "{p:?} {w:?}"
                );
            }
            assert_eq!(U_HEUR[p.index()], hash_label(&format!("u-heur-{salt}")));
        }
    }
}
