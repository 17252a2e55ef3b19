//! `LinkPlan::link` against the per-call link body it replaced.
//!
//! A `LinkPlan` hoists everything about a link that does not depend on
//! the objects: module-name hashes, the architecture hash that seeds
//! the combination seed, the struct-sharing pairs with their penalties,
//! the hot-loop ids with the IPO coupling terms, and the call edges.
//! This suite keeps the pre-plan body verbatim as a reference and holds
//! every field of every linked program to it by bit pattern: uniform,
//! mixed and PGO objects, for every suite workload (raw and outlined)
//! on every architecture the daemon and worker handshake accept.

use ft_compiler::decisions::{CodegenDecisions, CompiledModule, VecWidth};
use ft_compiler::response::{jitter, unit};
use ft_compiler::{Compiler, ModuleId, PgoProfile, ProgramIr};
use ft_core::arch_by_name;
use ft_flags::rng::{hash_label, mix, rng_for};
use ft_flags::Cv;
use ft_machine::{link, Architecture, LinkPlan, LinkedProgram, LtoOverride};
use ft_outline::outline_with_defaults;
use ft_workloads::suite;
use std::sync::Arc;

/// The link body as it was before `LinkPlan`, kept as the reference.
fn reference_link(
    modules: Vec<CompiledModule>,
    ir: &ProgramIr,
    arch: &Architecture,
) -> LinkedProgram {
    assert_eq!(modules.len(), ir.modules.len(), "one object per module");
    let modules: Vec<Arc<CompiledModule>> = modules.into_iter().map(Arc::new).collect();
    for (i, m) in modules.iter().enumerate() {
        assert_eq!(m.module.id, i);
    }
    let n = modules.len();

    let mut digests: Vec<u64> = modules.iter().map(|m| m.cv_digest).collect();
    digests.sort_unstable();
    digests.dedup();
    let heterogeneity = if n > 1 {
        (digests.len() - 1) as f64 / (n - 1) as f64
    } else {
        0.0
    };

    let combo = {
        let mut h = hash_label(arch.name);
        for m in &modules {
            h = mix(h ^ m.cv_digest.rotate_left((m.module.id % 63) as u32));
        }
        h
    };
    let ipo_frac = modules.iter().filter(|m| m.decisions.ipo).count() as f64 / n.max(1) as f64;

    let mut out = modules;
    let mut overrides = Vec::new();
    if heterogeneity > 0.0 {
        for m in out.iter_mut() {
            let module = Arc::clone(&m.module);
            let Some(f) = module.features() else {
                continue;
            };
            let bloat =
                ((m.decisions.code_bytes / f.base_code_bytes.max(1.0)) - 1.0).clamp(0.0, 1.0);
            let p = heterogeneity * (0.07 + 0.10 * bloat + 0.08 * ipo_frac);
            let h = mix(combo ^ m.cv_digest ^ hash_label(&m.module.name));
            if unit(h, "lto-fire") >= p.min(0.65) {
                continue;
            }
            let d = &mut Arc::make_mut(m).decisions;
            let before_w = d.width;
            let before_u = d.unroll;
            let roll = unit(h, "lto-kind");
            if roll < 0.45 && !f.carried_dependence {
                d.width = arch.target.clamp(VecWidth::W512);
            } else if roll < 0.70 {
                d.unroll = (d.unroll.max(1) * 2).min(16);
                d.register_spill += 0.04;
            } else {
                d.inline_depth = 2;
            }
            let q = jitter(h, "lto-quality", 0.72, 1.02);
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

    let mut conflict_factor = vec![1.0f64; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if !ir.share_structs(i, j) {
                continue;
            }
            let di = &out[i].decisions;
            let dj = &out[j].decisions;
            let layout_clash = di.layout_version != dj.layout_version;
            let alias_clash = di.alias_optimistic != dj.alias_optimistic;
            if !(layout_clash || alias_clash) {
                continue;
            }
            let pair = mix(hash_label(&ir.modules[i].name) ^ hash_label(&ir.modules[j].name));
            let mut pen = 0.0;
            if layout_clash {
                pen += 0.004 * jitter(pair, "layout-pen", 0.0, 1.6);
            }
            if alias_clash {
                pen += 0.003 * jitter(pair, "alias-pen", 0.0, 1.5);
            }
            conflict_factor[i] *= 1.0 + pen;
            conflict_factor[j] *= 1.0 + pen;
        }
    }
    for f in conflict_factor.iter_mut() {
        *f = f.min(1.03);
    }

    if heterogeneity > 0.0 {
        let hot: Vec<ModuleId> = ir.hot_loop_ids();
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
        let median = 0.05 + 0.20 * coupling;
        let sd = 0.05 + 0.13 * coupling;
        let z = (unit(combo, "ipo-z1") + unit(combo, "ipo-z2") + unit(combo, "ipo-z3") - 1.5) * 2.0;
        let damage = (median + sd * z).max(0.0) * heterogeneity;
        for &i in &hot {
            conflict_factor[i] *= 1.0 + damage;
        }
    }

    let hot_code: f64 = out
        .iter()
        .filter(|m| m.module.features().is_some())
        .map(|m| m.decisions.code_bytes)
        .sum();
    let budget = arch.icache_kb * 1024.0;
    let ratio = hot_code / budget;
    let icache_factor = 1.0 + 0.03 * (ratio - 1.0).clamp(0.0, 2.5);

    let mut call_cost_s = 0.0;
    for e in &ir.call_edges {
        let wf = out[e.from].decisions.width;
        let wt = out[e.to].decisions.width;
        let base = 25e-9;
        let abi = if wf != wt && (wf == VecWidth::W256 || wt == VecWidth::W256) {
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_decisions_bit_equal(a: &CodegenDecisions, b: &CodegenDecisions, what: &str) {
    assert_eq!(a.opt_level, b.opt_level, "{what}: opt_level");
    assert_eq!(a.width, b.width, "{what}: width");
    assert_eq!(a.unroll, b.unroll, "{what}: unroll");
    assert_eq!(a.unroll_jam, b.unroll_jam, "{what}: unroll_jam");
    assert_eq!(a.sw_pipelined, b.sw_pipelined, "{what}: sw_pipelined");
    assert_eq!(a.streaming_stores, b.streaming_stores, "{what}: nt");
    assert_eq!(a.prefetch, b.prefetch, "{what}: prefetch");
    assert_eq!(a.inline_depth, b.inline_depth, "{what}: inline_depth");
    assert_eq!(
        a.inline_factor.to_bits(),
        b.inline_factor.to_bits(),
        "{what}: inline_factor"
    );
    assert_eq!(a.sched_aggressive, b.sched_aggressive, "{what}: sched");
    assert_eq!(a.isel, b.isel, "{what}: isel");
    assert_eq!(
        a.backend_quality.to_bits(),
        b.backend_quality.to_bits(),
        "{what}: backend_quality"
    );
    assert_eq!(
        a.register_spill.to_bits(),
        b.register_spill.to_bits(),
        "{what}: register_spill"
    );
    assert_eq!(a.alias_optimistic, b.alias_optimistic, "{what}: alias");
    assert_eq!(a.layout_version, b.layout_version, "{what}: layout");
    assert_eq!(
        a.code_bytes.to_bits(),
        b.code_bytes.to_bits(),
        "{what}: code_bytes"
    );
    assert_eq!(a.ipo, b.ipo, "{what}: ipo");
}

/// Every field of two linked programs, floats by bit pattern.
fn assert_linked_bit_equal(a: &LinkedProgram, b: &LinkedProgram, what: &str) {
    assert_eq!(a.modules.len(), b.modules.len(), "{what}: modules");
    for (i, (ma, mb)) in a.modules.iter().zip(&b.modules).enumerate() {
        assert_eq!(ma.module, mb.module, "{what}: module {i} descriptor");
        assert_eq!(ma.cv_digest, mb.cv_digest, "{what}: module {i} digest");
        assert_decisions_bit_equal(&ma.decisions, &mb.decisions, &format!("{what}: module {i}"));
    }
    assert_eq!(
        bits(&a.conflict_factor),
        bits(&b.conflict_factor),
        "{what}: conflict_factor"
    );
    assert_eq!(
        a.icache_factor.to_bits(),
        b.icache_factor.to_bits(),
        "{what}: icache_factor"
    );
    assert_eq!(
        a.call_cost_s.to_bits(),
        b.call_cost_s.to_bits(),
        "{what}: call_cost_s"
    );
    assert_eq!(a.overrides.len(), b.overrides.len(), "{what}: overrides");
    for (oa, ob) in a.overrides.iter().zip(&b.overrides) {
        assert_eq!(oa.module, ob.module, "{what}: override module");
        assert_eq!(oa.width, ob.width, "{what}: override width");
        assert_eq!(oa.unroll, ob.unroll, "{what}: override unroll");
        assert_eq!(
            oa.quality_factor.to_bits(),
            ob.quality_factor.to_bits(),
            "{what}: override quality"
        );
    }
    assert_eq!(
        a.heterogeneity.to_bits(),
        b.heterogeneity.to_bits(),
        "{what}: heterogeneity"
    );
    assert_eq!(a.combo_seed, b.combo_seed, "{what}: combo_seed");
}

/// What the sweep exercised, so a vacuous pass is caught.
#[derive(Default)]
struct Coverage {
    links: usize,
    overrides: usize,
    conflicts: usize,
    call_costs: usize,
}

/// Links uniform, mixed, PGO and mixed PGO/plain objects of `ir` on
/// `arch` three ways — through one shared plan, through the free
/// `link`, and through the reference body — and holds them bit-equal.
fn sweep(ir: &ProgramIr, arch: &Architecture, seed: u64, cov: &mut Coverage) {
    let c = Compiler::icc(arch.target);
    let plan = LinkPlan::new(ir, arch);
    let mut pgo_ir = ir.clone();
    pgo_ir.pgo_hostile = false;
    let profile = PgoProfile::collect(&pgo_ir).expect("PGO-friendly copy");
    let mut rng = rng_for(seed, "link-equivalence");
    let mut sample = |n: usize| -> Vec<Cv> { (0..n).map(|_| c.space().sample(&mut rng)).collect() };
    let mut objects: Vec<(&str, Vec<CompiledModule>)> = Vec::new();
    for cv in sample(3) {
        objects.push(("uniform", c.compile_program(ir, &cv)));
    }
    for _ in 0..6 {
        objects.push(("mixed", c.compile_mixed(ir, &sample(ir.len()))));
    }
    let uniform_pgo = sample(1).remove(0);
    objects.push((
        "uniform PGO",
        ir.modules
            .iter()
            .map(|m| c.compile_module_with_profile(m, &uniform_pgo, &profile))
            .collect(),
    ));
    for _ in 0..3 {
        let cvs = sample(ir.len());
        let pgo: Vec<CompiledModule> = ir
            .modules
            .iter()
            .zip(&cvs)
            .map(|(m, cv)| c.compile_module_with_profile(m, cv, &profile))
            .collect();
        let half: Vec<CompiledModule> = ir
            .modules
            .iter()
            .zip(&cvs)
            .enumerate()
            .map(|(i, (m, cv))| {
                if i % 2 == 0 {
                    c.compile_module_with_profile(m, cv, &profile)
                } else {
                    c.compile_module(m, cv)
                }
            })
            .collect();
        objects.push(("mixed PGO", pgo));
        objects.push(("PGO and plain", half));
    }
    for (k, (kind, objs)) in objects.into_iter().enumerate() {
        let what = format!("{} on {}, {kind} #{k}", ir.name, arch.name);
        let expected = reference_link(objs.clone(), ir, arch);
        assert_linked_bit_equal(&plan.link(objs.clone()), &expected, &what);
        assert_linked_bit_equal(&link(objs, ir, arch), &expected, &what);
        cov.links += 1;
        cov.overrides += expected.overrides.len();
        cov.conflicts += expected
            .conflict_factor
            .iter()
            .filter(|f| **f > 1.0)
            .count();
        cov.call_costs += usize::from(expected.call_cost_s > 0.0);
    }
}

const ARCHS: [&str; 4] = ["opteron", "sandybridge", "broadwell", "skylake"];

#[test]
fn plan_links_every_suite_program_bit_identically() {
    let mut cov = Coverage::default();
    for (w_idx, w) in suite().into_iter().enumerate() {
        for (a_idx, name) in ARCHS.iter().enumerate() {
            let arch = arch_by_name(name).expect("known architecture");
            let ir = w.instantiate(w.tuning_input(arch.name));
            sweep(&ir, &arch, (w_idx * 8 + a_idx) as u64, &mut cov);
        }
    }
    assert!(cov.links > 0);
    assert!(cov.overrides > 0, "no LTO override fired in the sweep");
    assert!(cov.conflicts > 0, "no layout/alias conflict in the sweep");
    assert!(cov.call_costs > 0, "no cross-module call cost in the sweep");
}

#[test]
fn plan_links_every_outlined_suite_program_bit_identically() {
    let mut cov = Coverage::default();
    let arch = arch_by_name("broadwell").expect("known architecture");
    let compiler = Compiler::icc(arch.target);
    for (w_idx, w) in suite().into_iter().enumerate() {
        let input = w.tuning_input(arch.name);
        let (outlined, _) =
            outline_with_defaults(&w.instantiate(input), &compiler, &arch, input.steps, 11);
        sweep(&outlined.ir, &arch, 100 + w_idx as u64, &mut cov);
    }
    assert!(cov.overrides > 0, "no LTO override fired in the sweep");
}
