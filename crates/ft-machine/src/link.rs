//! The whole-program link step and its interference model.
//!
//! Prior per-region tuners (PEAK, Cere) assume compilation modules are
//! independent; the paper shows they are not. Three coupling channels
//! are modelled here, all zero when every module is compiled with the
//! same CV (so uniform-compilation measurements are interference-free):
//!
//! * **LTO overrides** — Intel's `xild` re-runs inter-procedural
//!   optimization over the whole program. When the object files carry
//!   heterogeneous optimization directives, the linker may re-derive a
//!   module's codegen (the paper observes G.realized's `mom9` being
//!   re-vectorized to 256-bit AVX2 and unrolled, while the per-module
//!   CV said otherwise). Whether a module is overridden is a
//!   deterministic — but, from the search's viewpoint, unpredictable —
//!   function of *all* modules' CV digests: a rugged field over
//!   combinations that only end-to-end measurement can navigate.
//! * **Layout/aliasing conflicts** — modules sharing a data structure
//!   but disagreeing on `-qopt-mem-layout-trans`/`-align-structs` or
//!   strict-aliasing assumptions pay a pairwise penalty.
//! * **I-cache pressure** — the aggregate hot-loop code size compared
//!   to the per-core instruction-cache budget; aggressive unrolling and
//!   multi-versioning in many modules slows everyone down.

use crate::arch::Architecture;
use ft_compiler::decisions::{CompiledModule, VecWidth};
use ft_compiler::response::{jitter_hashed, unit_hashed};
use ft_compiler::{CallEdge, ModuleId, ProgramIr};
use ft_flags::rng::{hash_label, mix};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A codegen decision the linker re-derived against the module's CV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LtoOverride {
    /// Module affected.
    pub module: ModuleId,
    /// Width before / after.
    pub width: (VecWidth, VecWidth),
    /// Unroll before / after.
    pub unroll: (u8, u8),
    /// Back-end quality multiplier applied (usually < 1).
    pub quality_factor: f64,
}

/// A linked executable: final (possibly overridden) decisions plus the
/// interference factors the execution model will charge.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedProgram {
    /// Final per-module compilation results: the objects the linker
    /// was handed, shared rather than copied, except that a module an
    /// LTO override rewrote is the linker's own copy.
    pub modules: Vec<Arc<CompiledModule>>,
    /// Per-module multiplicative slowdown from layout/alias conflicts
    /// (1.0 = none).
    pub conflict_factor: Vec<f64>,
    /// Whole-program front-end slowdown from I-cache pressure
    /// (1.0 = hot code fits).
    pub icache_factor: f64,
    /// Cross-module call cost per step, seconds (ABI transitions).
    pub call_cost_s: f64,
    /// LTO overrides that fired.
    pub overrides: Vec<LtoOverride>,
    /// Fraction of modules compiled with distinct CVs, `0..1`.
    pub heterogeneity: f64,
    /// Order-sensitive hash of the exact object-file combination the
    /// linker saw; seeds the context-dependent part of codegen.
    pub combo_seed: u64,
}

impl LinkedProgram {
    /// Modeled executable size in bytes: the per-module machine code
    /// (at least one byte per module) plus the interference
    /// bookkeeping, which is negligible next to it.
    pub fn code_bytes(&self) -> f64 {
        self.modules
            .iter()
            .map(|m| m.decisions.code_bytes.max(1.0))
            .sum()
    }

    /// True when the linker changed module `m`'s decisions.
    pub fn was_overridden(&self, m: ModuleId) -> bool {
        self.overrides.iter().any(|o| o.module == m)
    }

    /// Human-readable explanation of every interference effect the
    /// link step applied — the §4.4 "why did my greedy build get
    /// slower" narrative, mechanized.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "link: {} modules, heterogeneity {:.0}%\n",
            self.modules.len(),
            self.heterogeneity * 100.0
        ));
        if self.icache_factor > 1.0005 {
            out.push_str(&format!(
                "  I-cache pressure: hot code over budget, front-end slowdown x{:.3}\n",
                self.icache_factor
            ));
        }
        for o in &self.overrides {
            let name = &self.modules[o.module].module.name;
            out.push_str(&format!(
                "  LTO override on `{name}`: width {} -> {}, unroll {} -> {}, quality x{:.3}\n",
                o.width.0.label(),
                o.width.1.label(),
                o.unroll.0,
                o.unroll.1,
                o.quality_factor
            ));
        }
        for (i, f) in self.conflict_factor.iter().enumerate() {
            if *f > 1.0005 {
                out.push_str(&format!(
                    "  layout/alias conflict on `{}`: x{:.3}\n",
                    self.modules[i].module.name, f
                ));
            }
        }
        if self.call_cost_s > 0.0 {
            out.push_str(&format!(
                "  cross-module call cost: {:.2} us per step\n",
                self.call_cost_s * 1e6
            ));
        }
        if self.overrides.is_empty()
            && self.icache_factor <= 1.0005
            && self.conflict_factor.iter().all(|f| *f <= 1.0005)
        {
            out.push_str("  clean link: no interference\n");
        }
        out
    }
}

/// A pair of modules that share a data structure, with the penalty
/// each kind of disagreement between them costs.
#[derive(Debug, Clone, Copy)]
struct SharingPair {
    i: ModuleId,
    j: ModuleId,
    /// `0.004 * jitter(pair, "layout-pen", 0.0, 1.6)`.
    layout_pen: f64,
    /// `0.003 * jitter(pair, "alias-pen", 0.0, 1.5)`.
    alias_pen: f64,
}

/// Everything about linking one program on one architecture that does
/// not depend on the objects: the linker's view of the program's
/// structure, computed once and shared by every link of it.
///
/// [`LinkPlan::link`] is the one link body; the free [`link`] builds a
/// plan per call. Every hoisted value is a pure function of the
/// program, the architecture or a literal label, so a linked program is
/// bit-identical whichever way it was produced.
#[derive(Debug, Clone)]
pub struct LinkPlan {
    /// `hash_label(name)` per module, in `ir.modules` order.
    name_hashes: Vec<u64>,
    /// `hash_label(arch.name)`: the start of the combination seed.
    arch_hash: u64,
    /// Struct-sharing module pairs, in `(i, j)` order with `i < j`.
    sharing: Vec<SharingPair>,
    /// Hot-loop module ids.
    hot: Vec<ModuleId>,
    /// Median and spread of the whole-program IPO damage, from the
    /// fraction of hot-loop pairs that share a data structure.
    ipo_median: f64,
    ipo_sd: f64,
    /// The program's cross-module call edges.
    call_edges: Vec<CallEdge>,
    /// The width an LTO re-vectorization picks: the target's widest.
    lto_width: VecWidth,
    /// Per-core instruction-cache budget, bytes.
    icache_budget: f64,
}

impl LinkPlan {
    /// Precomputes the plan for `ir` on `arch`.
    pub fn new(ir: &ProgramIr, arch: &Architecture) -> Self {
        let n = ir.modules.len();
        let name_hashes: Vec<u64> = ir.modules.iter().map(|m| hash_label(&m.name)).collect();
        let mut sharing = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if !ir.share_structs(i, j) {
                    continue;
                }
                // Coupling strength is pair-specific and deterministic.
                let pair = mix(name_hashes[i] ^ name_hashes[j]);
                sharing.push(SharingPair {
                    i,
                    j,
                    layout_pen: 0.004
                        * jitter_hashed(pair, const { hash_label("layout-pen") }, 0.0, 1.6),
                    alias_pen: 0.003
                        * jitter_hashed(pair, const { hash_label("alias-pen") }, 0.0, 1.5),
                });
            }
        }
        let hot = ir.hot_loop_ids();
        let mut pairs = 0usize;
        let mut coupled = 0usize;
        for (a, &i) in hot.iter().enumerate() {
            for &j in hot.iter().skip(a + 1) {
                pairs += 1;
                if ir.share_structs(i, j) {
                    coupled += 1;
                }
            }
        }
        let coupling = if pairs == 0 {
            0.0
        } else {
            coupled as f64 / pairs as f64
        };
        LinkPlan {
            name_hashes,
            arch_hash: hash_label(arch.name),
            sharing,
            hot,
            ipo_median: 0.05 + 0.20 * coupling,
            ipo_sd: 0.05 + 0.13 * coupling,
            call_edges: ir.call_edges.clone(),
            lto_width: arch.target.clamp(VecWidth::W512),
            icache_budget: arch.icache_kb * 1024.0,
        }
    }

    /// Mixing hash over all CV digests, order-sensitive: the linker
    /// sees the exact combination of object files.
    fn combination_seed(&self, modules: &[Arc<CompiledModule>]) -> u64 {
        let mut h = self.arch_hash;
        for m in modules {
            h = mix(h ^ m.cv_digest.rotate_left((m.module.id % 63) as u32));
        }
        h
    }

    /// Links compiled modules into an executable of the planned
    /// program. Object `i` must be module `i`'s. Owned objects and
    /// shared ones (the `Arc`s a cache holds) link alike; a shared
    /// object is copied only if an LTO override rewrites it.
    pub fn link<M: Into<Arc<CompiledModule>>>(&self, modules: Vec<M>) -> LinkedProgram {
        assert_eq!(
            modules.len(),
            self.name_hashes.len(),
            "one object per module"
        );
        let modules: Vec<Arc<CompiledModule>> = modules.into_iter().map(Into::into).collect();
        // Overrides and the combination seed key on module ids, the
        // conflict and call-edge passes on slots: they must agree.
        for (i, m) in modules.iter().enumerate() {
            assert_eq!(
                m.module.id, i,
                "object {i} compiles module {}, not {i}",
                m.module.id
            );
            debug_assert_eq!(
                hash_label(&m.module.name),
                self.name_hashes[i],
                "object {i} compiles `{}`, not a module of the planned program",
                m.module.name
            );
        }
        let n = modules.len();

        // --- Heterogeneity -----------------------------------------------
        let mut digests: Vec<u64> = modules.iter().map(|m| m.cv_digest).collect();
        digests.sort_unstable();
        digests.dedup();
        let heterogeneity = if n > 1 {
            (digests.len() - 1) as f64 / (n - 1) as f64
        } else {
            0.0
        };

        let combo = self.combination_seed(&modules);
        let ipo_frac = modules.iter().filter(|m| m.decisions.ipo).count() as f64 / n.max(1) as f64;

        // --- LTO overrides ------------------------------------------------
        let mut out = modules;
        let mut overrides = Vec::new();
        if heterogeneity > 0.0 {
            for (m, name_hash) in out.iter_mut().zip(&self.name_hashes) {
                let module = Arc::clone(&m.module);
                let Some(f) = module.features() else {
                    continue;
                };
                let bloat =
                    ((m.decisions.code_bytes / f.base_code_bytes.max(1.0)) - 1.0).clamp(0.0, 1.0);
                let p = heterogeneity * (0.07 + 0.10 * bloat + 0.08 * ipo_frac);
                let h = mix(combo ^ m.cv_digest ^ name_hash);
                if unit_hashed(h, const { hash_label("lto-fire") }) >= p.min(0.65) {
                    continue;
                }
                // The linker re-derives decisions from whole-program
                // heuristics, ignoring the module's own CV. Only the
                // rewritten module is copied out of a shared object.
                let d = &mut Arc::make_mut(m).decisions;
                let before_w = d.width;
                let before_u = d.unroll;
                let roll = unit_hashed(h, const { hash_label("lto-kind") });
                if roll < 0.45 && !f.carried_dependence {
                    // Re-vectorize at the target's widest SIMD.
                    d.width = self.lto_width;
                } else if roll < 0.70 {
                    d.unroll = (d.unroll.max(1) * 2).min(16);
                    d.register_spill += 0.04;
                } else {
                    // Cross-module inlining reshuffles the block layout.
                    d.inline_depth = 2;
                }
                let q = jitter_hashed(h, const { hash_label("lto-quality") }, 0.72, 1.02);
                d.backend_quality *= q;
                d.code_bytes *= 1.12;
                overrides.push(LtoOverride {
                    module: module.id,
                    width: (before_w, d.width),
                    unroll: (before_u, d.unroll),
                    quality_factor: q,
                });
            }
        }

        // --- Layout / aliasing conflicts -----------------------------------
        let mut conflict_factor = vec![1.0f64; n];
        for sp in &self.sharing {
            let di = &out[sp.i].decisions;
            let dj = &out[sp.j].decisions;
            let layout_clash = di.layout_version != dj.layout_version;
            let alias_clash = di.alias_optimistic != dj.alias_optimistic;
            if !(layout_clash || alias_clash) {
                continue;
            }
            let mut pen = 0.0;
            if layout_clash {
                pen += sp.layout_pen;
            }
            if alias_clash {
                pen += sp.alias_pen;
            }
            conflict_factor[sp.i] *= 1.0 + pen;
            conflict_factor[sp.j] *= 1.0 + pen;
        }
        // Disagreeing with many partners is not much worse than with one:
        // cap the per-module conflict tax.
        for f in conflict_factor.iter_mut() {
            *f = f.min(1.03);
        }

        // --- Whole-program IPO compatibility -------------------------------
        // Beyond pairwise clashes, the link-time optimizer's global
        // decisions (code layout, cross-module scheduling) depend
        // chaotically on the exact combination of heterogeneous objects.
        // The damage distribution is centred well above zero — combining
        // modules compiled differently is *usually* somewhat harmful, and
        // the more tightly the modules share data (coupling), the worse —
        // but its tail is wide: a few combinations compose almost freely.
        // Greedy assembly draws once and eats the expectation; CFR's 1000
        // end-to-end measurements find the benign tail. This is the
        // quantitative heart of the paper's G.realized ≪ G.Independent gap.
        if heterogeneity > 0.0 {
            // Approximate normal from three uniforms (Irwin-Hall).
            let z = (unit_hashed(combo, const { hash_label("ipo-z1") })
                + unit_hashed(combo, const { hash_label("ipo-z2") })
                + unit_hashed(combo, const { hash_label("ipo-z3") })
                - 1.5)
                * 2.0;
            let damage = (self.ipo_median + self.ipo_sd * z).max(0.0) * heterogeneity;
            for &i in &self.hot {
                conflict_factor[i] *= 1.0 + damage;
            }
        }

        // --- I-cache pressure ----------------------------------------------
        let hot_code: f64 = out
            .iter()
            .filter(|m| m.module.features().is_some())
            .map(|m| m.decisions.code_bytes)
            .sum();
        let ratio = hot_code / self.icache_budget;
        let icache_factor = 1.0 + 0.03 * (ratio - 1.0).clamp(0.0, 2.5);

        // --- Vector-ABI transitions on cross-module calls -------------------
        let mut call_cost_s = 0.0;
        for e in &self.call_edges {
            let wf = out[e.from].decisions.width;
            let wt = out[e.to].decisions.width;
            let base = 25e-9; // call + spill/restore
            let abi = if wf != wt && (wf == VecWidth::W256 || wt == VecWidth::W256) {
                // SSE<->AVX transition stalls.
                3.0
            } else if wf != wt {
                1.5
            } else {
                1.0
            };
            let inline_discount =
                1.0 - 0.3 * f64::from(out[e.from].decisions.inline_depth.min(2)) / 2.0;
            call_cost_s += e.calls_per_step * base * abi * inline_discount;
        }

        LinkedProgram {
            modules: out,
            conflict_factor,
            icache_factor,
            call_cost_s,
            overrides,
            heterogeneity,
            combo_seed: combo,
        }
    }
}

/// Links compiled modules into an executable against `ir`'s structure:
/// `LinkPlan::new(ir, arch).link(modules)`. Callers that link the same
/// program many times keep the plan instead.
pub fn link<M: Into<Arc<CompiledModule>>>(
    modules: Vec<M>,
    ir: &ProgramIr,
    arch: &Architecture,
) -> LinkedProgram {
    LinkPlan::new(ir, arch).link(modules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_compiler::{Compiler, LoopFeatures, Module, Target};
    use ft_flags::rng::rng_for;

    fn program(j: usize) -> ProgramIr {
        let mut modules = Vec::new();
        for i in 0..j {
            let mut f = LoopFeatures::synthetic(i as u64 * 31 + 5);
            f.base_code_bytes = 2500.0;
            modules.push(Module::hot_loop(
                i,
                &format!("k{i}"),
                f,
                &[1, (i % 3) as u32 + 2],
            ));
        }
        modules.push(Module::non_loop(j, 0.3, 5.0e4));
        ProgramIr::new(
            "p",
            modules,
            vec![ft_compiler::CallEdge {
                from: 0,
                to: 1,
                calls_per_step: 1e5,
            }],
        )
    }

    fn compiler() -> Compiler {
        Compiler::icc(Target::avx2_256())
    }

    #[test]
    fn uniform_compilation_has_no_interference() {
        let ir = program(8);
        let c = compiler();
        let cv = c.space().sample(&mut rng_for(3, "u"));
        let linked = link(c.compile_program(&ir, &cv), &ir, &Architecture::broadwell());
        assert_eq!(linked.heterogeneity, 0.0);
        assert!(linked.overrides.is_empty());
        assert!(linked.conflict_factor.iter().all(|f| *f == 1.0));
    }

    #[test]
    fn mixed_compilation_declares_heterogeneity() {
        let ir = program(8);
        let c = compiler();
        let mut rng = rng_for(4, "m");
        let assignment: Vec<_> = (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect();
        let linked = link(
            c.compile_mixed(&ir, &assignment),
            &ir,
            &Architecture::broadwell(),
        );
        assert!(linked.heterogeneity > 0.9);
    }

    #[test]
    fn overrides_fire_for_some_mixed_combinations() {
        let ir = program(10);
        let c = compiler();
        let arch = Architecture::broadwell();
        let mut fired = 0;
        let mut clean = 0;
        for s in 0..200u64 {
            let mut rng = rng_for(s, "ov");
            let assignment: Vec<_> = (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect();
            let linked = link(c.compile_mixed(&ir, &assignment), &ir, &arch);
            if linked.overrides.is_empty() {
                clean += 1;
            } else {
                fired += 1;
            }
        }
        assert!(fired > 100, "LTO overrides almost never fire ({fired}/200)");
        assert!(
            clean >= 1,
            "some combinations must link cleanly ({clean}/200)"
        );
    }

    #[test]
    fn override_is_deterministic_per_combination() {
        let ir = program(10);
        let c = compiler();
        let arch = Architecture::broadwell();
        let mut rng = rng_for(9, "det");
        let assignment: Vec<_> = (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect();
        let a = link(c.compile_mixed(&ir, &assignment), &ir, &arch);
        let b = link(c.compile_mixed(&ir, &assignment), &ir, &arch);
        assert_eq!(a, b);
    }

    #[test]
    fn conflicts_require_shared_structs_and_disagreement() {
        let ir = program(6);
        let c = compiler();
        let sp = c.space();
        // Two CVs differing only in layout-trans: modules sharing
        // structs must pay, the non-loop module must not.
        let a = sp.baseline();
        let b = sp
            .baseline()
            .with(sp, sp.index_of("qopt-mem-layout-trans").unwrap(), 1);
        let assignment: Vec<_> = (0..ir.len())
            .map(|i| if i % 2 == 0 { a.clone() } else { b.clone() })
            .collect();
        let linked = link(
            c.compile_mixed(&ir, &assignment),
            &ir,
            &Architecture::broadwell(),
        );
        let hot_pay = linked.conflict_factor[..6]
            .iter()
            .filter(|f| **f > 1.0)
            .count();
        assert!(hot_pay >= 2, "layout clash must penalize sharing modules");
        assert_eq!(linked.conflict_factor[6], 1.0, "non-loop shares nothing");
    }

    #[test]
    fn icache_pressure_grows_with_code_bloat() {
        let ir = program(12);
        let c = compiler();
        let sp = c.space();
        let lean = link(
            c.compile_program(&ir, &sp.baseline()),
            &ir,
            &Architecture::broadwell(),
        );
        let mut fat_cv = sp.baseline();
        fat_cv = fat_cv.with(sp, sp.index_of("unroll").unwrap(), 5); // 16x
        fat_cv = fat_cv.with(sp, sp.index_of("loop-multiversion").unwrap(), 2);
        let fat = link(
            c.compile_program(&ir, &fat_cv),
            &ir,
            &Architecture::broadwell(),
        );
        assert!(
            fat.icache_factor > lean.icache_factor,
            "{} vs {}",
            fat.icache_factor,
            lean.icache_factor
        );
    }

    #[test]
    fn abi_transition_costs_more_when_widths_differ() {
        let ir = program(4);
        let c = compiler();
        let sp = c.space();
        let scalar = sp.baseline().with(sp, sp.index_of("vec").unwrap(), 1);
        let wide = sp
            .baseline()
            .with(sp, sp.index_of("simd-width").unwrap(), 2);
        let mixed: Vec<_> = (0..ir.len())
            .map(|i| if i == 0 { scalar.clone() } else { wide.clone() })
            .collect();
        let uniform: Vec<_> = (0..ir.len()).map(|_| wide.clone()).collect();
        let lm = link(
            c.compile_mixed(&ir, &mixed),
            &ir,
            &Architecture::broadwell(),
        );
        let lu = link(
            c.compile_mixed(&ir, &uniform),
            &ir,
            &Architecture::broadwell(),
        );
        assert!(lm.call_cost_s > lu.call_cost_s);
    }

    #[test]
    fn explain_names_the_interference() {
        let ir = program(10);
        let c = compiler();
        let arch = Architecture::broadwell();
        // Uniform link: clean.
        let cv = c.space().baseline();
        let clean = link(c.compile_program(&ir, &cv), &ir, &arch);
        let text = clean.explain();
        assert!(text.contains("heterogeneity 0%"), "{text}");
        assert!(!text.contains("LTO override"), "{text}");
        assert!(!text.contains("conflict"), "{text}");
        // Mixed link with an override somewhere across seeds.
        for s in 0..40u64 {
            let mut rng = rng_for(s, "ex");
            let assignment: Vec<_> = (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect();
            let linked = link(c.compile_mixed(&ir, &assignment), &ir, &arch);
            if !linked.overrides.is_empty() {
                let text = linked.explain();
                assert!(text.contains("LTO override"), "{text}");
                return;
            }
        }
        panic!("no override found across 40 mixed links");
    }

    #[test]
    #[should_panic(expected = "object 0 compiles module 1, not 0")]
    fn link_rejects_misordered_objects() {
        let ir = program(3);
        let c = compiler();
        let mut objs = c.compile_program(&ir, &c.space().baseline());
        objs.swap(0, 1);
        let _ = link(objs, &ir, &Architecture::broadwell());
    }

    #[test]
    fn plan_links_like_the_free_function() {
        let ir = program(10);
        let c = compiler();
        let arch = Architecture::broadwell();
        let plan = LinkPlan::new(&ir, &arch);
        for s in 0..20u64 {
            let mut rng = rng_for(s, "plan");
            let assignment: Vec<_> = (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect();
            let objects = c.compile_mixed(&ir, &assignment);
            assert_eq!(plan.link(objects.clone()), link(objects, &ir, &arch));
        }
    }

    #[test]
    #[should_panic(expected = "one object per module")]
    fn plan_rejects_another_programs_objects() {
        let plan = LinkPlan::new(&program(4), &Architecture::broadwell());
        let other = program(6);
        let c = compiler();
        let _ = plan.link(c.compile_program(&other, &c.space().baseline()));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not a module of the planned program")]
    fn plan_rejects_same_sized_foreign_objects() {
        let plan = LinkPlan::new(&program(4), &Architecture::broadwell());
        let mut other = program(4);
        other.modules[2].name = "elsewhere".to_string();
        let c = compiler();
        let _ = plan.link(c.compile_program(&other, &c.space().baseline()));
    }

    #[test]
    #[should_panic(expected = "one object per module")]
    fn link_rejects_partial_objects() {
        let ir = program(3);
        let c = compiler();
        let objs = vec![c.compile_module(&ir.modules[0], &c.space().baseline())];
        let _ = link(objs, &ir, &Architecture::broadwell());
    }
}
