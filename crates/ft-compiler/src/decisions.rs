//! Code-generation decisions: the observable output of a compilation.
//!
//! [`CodegenDecisions`] is the paper's Table 3 made explicit — for each
//! compiled loop it records whether and how wide the loop was
//! vectorized, the unroll factor, whether aggressive instruction
//! reordering (IO) / instruction selection (IS) were applied, register
//! spilling (RS), streaming stores, prefetch distance, inlining and
//! layout choices, and the resulting machine-code size. The
//! `ft-machine` execution model prices these decisions; the link model
//! may override some of them (LTO interference).

use crate::ir::{LoopFeatures, Module};
use crate::response::jitter;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// SIMD width of generated code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum VecWidth {
    /// Not vectorized (`S` in Table 3).
    Scalar,
    /// 128-bit SIMD (SSE-class).
    W128,
    /// 256-bit SIMD (AVX/AVX2-class).
    W256,
    /// 512-bit SIMD (AVX-512-class; the future-platform extension —
    /// not present on the paper's three testbeds).
    W512,
}

impl VecWidth {
    /// Number of `f64` lanes.
    pub fn lanes(self) -> f64 {
        match self {
            VecWidth::Scalar => 1.0,
            VecWidth::W128 => 2.0,
            VecWidth::W256 => 4.0,
            VecWidth::W512 => 8.0,
        }
    }

    /// Width in bits (0 for scalar).
    pub fn bits(self) -> u32 {
        match self {
            VecWidth::Scalar => 0,
            VecWidth::W128 => 128,
            VecWidth::W256 => 256,
            VecWidth::W512 => 512,
        }
    }

    /// Table 3 rendering.
    pub fn label(self) -> &'static str {
        match self {
            VecWidth::Scalar => "S",
            VecWidth::W128 => "128",
            VecWidth::W256 => "256",
            VecWidth::W512 => "512",
        }
    }

    /// The jitter axis label for this width's true vector response,
    /// `"true-vec-{bits}"`, without allocating per call.
    pub fn true_vec_axis(self) -> &'static str {
        match self {
            VecWidth::Scalar => "true-vec-0",
            VecWidth::W128 => "true-vec-128",
            VecWidth::W256 => "true-vec-256",
            VecWidth::W512 => "true-vec-512",
        }
    }
}

/// Instruction-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IselChoice {
    /// Compiler default.
    Default,
    /// Optimize for code size.
    Size,
    /// Optimize for speed (`IS` in Table 3).
    Speed,
}

/// The *true* compute-speedup factor of vectorizing loop `f` at `width`
/// relative to scalar code, as realized on hardware.
///
/// This is the ground truth the machine model charges; the compiler
/// only sees a misestimated version of it (see
/// [`crate::compiler::Compiler`]). Divergent control flow needs mask
/// and permute operations whose cost grows with width — the paper's dt
/// kernel is the canonical example of 256-bit vectorization losing to
/// scalar code (§4.4 observation 1).
pub fn vector_efficiency(f: &LoopFeatures, width: VecWidth) -> f64 {
    let lanes = width.lanes();
    if lanes <= 1.0 {
        return 1.0;
    }
    let friend = f.stride.vector_friendliness();
    // Masking/permutation overhead: worse for wider vectors.
    let wide = match width {
        VecWidth::Scalar | VecWidth::W128 => 0.0,
        VecWidth::W256 => 1.0,
        VecWidth::W512 => 1.8,
    };
    let div_pen = (1.0 - f.divergence * (0.55 + 0.30 * wide)).max(0.10);
    let red_pen = if f.reduction { 0.85 } else { 1.0 };
    // Idiosyncratic true response of this loop to this width.
    let idio = jitter(f.response_seed, width.true_vec_axis(), 0.72, 1.25);
    (lanes * friend * div_pen * red_pen * idio).max(0.30)
}

/// Complete record of the code generated for one module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodegenDecisions {
    /// Optimization level actually used (2 or 3).
    pub opt_level: u8,
    /// SIMD width.
    pub width: VecWidth,
    /// Unroll factor (≥ 1; 1 = not unrolled).
    pub unroll: u8,
    /// Outer-loop unroll-and-jam applied.
    pub unroll_jam: bool,
    /// Software pipelining applied.
    pub sw_pipelined: bool,
    /// Non-temporal streaming stores emitted.
    pub streaming_stores: bool,
    /// Software prefetch aggressiveness (0–4).
    pub prefetch: u8,
    /// Inlining depth (0–2) applied to out-calls.
    pub inline_depth: u8,
    /// Inline size budget relative to default (1.0 = `-inline-factor=100`).
    pub inline_factor: f64,
    /// Aggressive instruction reordering (`IO` in Table 3).
    pub sched_aggressive: bool,
    /// Instruction-selection strategy (`IS` in Table 3 when `Speed`).
    pub isel: IselChoice,
    /// Combined quality of scalar/back-end optimizations: the machine
    /// model divides compute time by this. 1.0 = `-O3` default quality.
    pub backend_quality: f64,
    /// Register-spill intensity (`RS` in Table 3 when above ~0.08):
    /// fraction of iteration work spent on spill traffic.
    pub register_spill: f64,
    /// Strict-aliasing assumed (`-ansi-alias`).
    pub alias_optimistic: bool,
    /// Data-layout transformation version (0–7); modules sharing data
    /// structures must agree or pay a link-time conflict penalty.
    pub layout_version: u8,
    /// Generated machine-code size, bytes.
    pub code_bytes: f64,
    /// Compiled with `-ipo` (participates in link-time optimization).
    pub ipo: bool,
}

impl CodegenDecisions {
    /// `-O3` defaults for a module of baseline size `code_bytes`.
    pub fn o3_default(code_bytes: f64) -> Self {
        CodegenDecisions {
            opt_level: 3,
            width: VecWidth::Scalar,
            unroll: 1,
            unroll_jam: false,
            sw_pipelined: true,
            streaming_stores: false,
            prefetch: 2,
            inline_depth: 2,
            inline_factor: 1.0,
            sched_aggressive: false,
            isel: IselChoice::Default,
            backend_quality: 1.0,
            register_spill: 0.0,
            alias_optimistic: true,
            layout_version: 2,
            code_bytes,
            ipo: false,
        }
    }

    /// Table 3-style one-line summary, e.g. `256, unroll2, IS, IO`.
    pub fn summary(&self) -> String {
        let mut parts = vec![self.width.label().to_string()];
        if self.unroll > 1 {
            parts.push(format!("unroll{}", self.unroll));
        }
        if self.unroll_jam {
            parts.push("jam".to_string());
        }
        if matches!(self.isel, IselChoice::Speed) {
            parts.push("IS".to_string());
        }
        if self.sched_aggressive {
            parts.push("IO".to_string());
        }
        if self.register_spill > 0.08 {
            parts.push("RS".to_string());
        }
        if self.streaming_stores {
            parts.push("NT".to_string());
        }
        parts.join(", ")
    }
}

/// One compiled compilation module: the module, what the compiler did
/// to it, and a digest of the CV that produced it (used to derive
/// deterministic link-time behaviour).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModule {
    /// The source module's descriptor, shared by every object compiled
    /// from it (see [`crate::Compiler::compile_shared`]).
    pub module: Arc<Module>,
    /// What the compiler decided.
    pub decisions: CodegenDecisions,
    /// Digest of the compilation vector used.
    pub cv_digest: u64,
}

impl CompiledModule {
    /// Convenience: the loop features, for hot-loop modules.
    pub fn features(&self) -> Option<&LoopFeatures> {
        self.module.features()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::MemStride;

    #[test]
    fn lanes_and_bits() {
        assert_eq!(VecWidth::Scalar.lanes(), 1.0);
        assert_eq!(VecWidth::W128.lanes(), 2.0);
        assert_eq!(VecWidth::W256.bits(), 256);
        assert_eq!(VecWidth::W256.label(), "256");
    }

    #[test]
    fn vector_efficiency_scalar_is_one() {
        let f = LoopFeatures::synthetic(1);
        assert_eq!(vector_efficiency(&f, VecWidth::Scalar), 1.0);
    }

    #[test]
    fn clean_unit_stride_loop_vectorizes_well() {
        let f = LoopFeatures::synthetic(1);
        let e = vector_efficiency(&f, VecWidth::W256);
        assert!(e > 2.0, "clean loop should gain from AVX: {e}");
    }

    #[test]
    fn divergence_kills_wide_vectorization() {
        let mut f = LoopFeatures::synthetic(1);
        f.divergence = 0.9;
        let e256 = vector_efficiency(&f, VecWidth::W256);
        let clean = vector_efficiency(&LoopFeatures::synthetic(1), VecWidth::W256);
        assert!(
            e256 < clean * 0.5,
            "divergence must hurt 256-bit: {e256} vs {clean}"
        );
    }

    #[test]
    fn indirect_access_hurts() {
        let mut f = LoopFeatures::synthetic(1);
        f.stride = MemStride::Indirect;
        assert!(vector_efficiency(&f, VecWidth::W256) < 1.2);
    }

    #[test]
    fn efficiency_is_loop_specific() {
        let a = LoopFeatures::synthetic(1);
        let b = LoopFeatures::synthetic(2);
        assert_ne!(
            vector_efficiency(&a, VecWidth::W256),
            vector_efficiency(&b, VecWidth::W256)
        );
    }

    #[test]
    fn summary_formats_table3_style() {
        let mut d = CodegenDecisions::o3_default(100.0);
        d.width = VecWidth::W256;
        d.unroll = 2;
        d.isel = IselChoice::Speed;
        d.sched_aggressive = true;
        d.register_spill = 0.2;
        assert_eq!(d.summary(), "256, unroll2, IS, IO, RS");
        let plain = CodegenDecisions::o3_default(100.0);
        assert_eq!(plain.summary(), "S");
    }
}
