//! Shared compiled objects: a linked program points at the store's
//! objects instead of copying them, and every object of a module points
//! at one module descriptor.
//!
//! Sharing must be unobservable in results. A program linked from the
//! store's `Arc`s equals one linked from fresh owned compiles and
//! executes to the same bits; only the modules an LTO override
//! rewrote are the linker's own copies; and a program keeps its
//! objects alive after the store evicts them.

use funcytuner::compiler::{
    CacheCapacity, CallEdge, CompiledModule, Compiler, LoopFeatures, Module, ProgramIr,
};
use funcytuner::flags::rng::rng_for;
use funcytuner::flags::Cv;
use funcytuner::machine::{execute_total, link, Architecture, ExecOptions, LinkedProgram};
use funcytuner::outline::outline_with_defaults;
use funcytuner::tuning::store::{
    compiler_fingerprint, link_fingerprint, module_fingerprint, object_scope,
};
use funcytuner::tuning::{EvalContext, ObjectStore};
use funcytuner::workloads::workload_by_name;
use std::sync::Arc;

/// Random assignments checked per program.
const ASSIGNMENTS: u64 = 24;

/// The outlined CloverLeaf program on Broadwell.
fn cloverleaf(arch: &Architecture) -> (ProgramIr, u32) {
    let compiler = Compiler::icc(arch.target);
    let w = workload_by_name("CloverLeaf").expect("CloverLeaf in suite");
    let input = w.tuning_input(arch.name).clone();
    let steps = input.steps.min(5);
    let ir = w.instantiate(&input);
    let (outlined, _) = outline_with_defaults(&ir, &compiler, arch, steps, 7);
    (outlined.ir, steps)
}

/// Nine hot loops and the non-loop module, with shared structures and
/// call edges so the conflict and call-edge passes both run.
fn synthetic() -> (ProgramIr, u32) {
    let mut modules: Vec<Module> = (0..9)
        .map(|i| {
            let mut f = LoopFeatures::synthetic(i as u64 * 29 + 3);
            f.base_code_bytes = 2200.0;
            Module::hot_loop(i, &format!("k{i}"), f, &[1, (i % 3) as u32 + 2])
        })
        .collect();
    modules.push(Module::non_loop(9, 0.2, 4.0e4));
    let edges = (0..8)
        .map(|i| CallEdge {
            from: i,
            to: i + 1,
            calls_per_step: 5e4,
        })
        .collect();
    (ProgramIr::new("synthetic-10", modules, edges), 4)
}

/// A context bound to `store`, plus the keys it files its objects and
/// links under there.
struct Bound {
    ctx: EvalContext,
    store: Arc<ObjectStore>,
    scopes: Vec<u64>,
    link_fp: u64,
}

impl Bound {
    fn new(ir: ProgramIr, arch: &Architecture, steps: u32, store: Arc<ObjectStore>) -> Self {
        let compiler = Compiler::icc(arch.target);
        let compiler_fp = compiler_fingerprint(&compiler);
        let scopes = ir
            .modules
            .iter()
            .map(|m| object_scope(compiler_fp, module_fingerprint(m)))
            .collect();
        let link_fp = link_fingerprint(&ir, arch, compiler_fp);
        let ctx = EvalContext::new(ir, compiler, arch.clone(), steps, 11)
            .with_shared_store(store.clone());
        Bound {
            ctx,
            store,
            scopes,
            link_fp,
        }
    }

    /// Measures `assignment` through the context, then returns the
    /// program it linked, as the store holds it.
    fn linked(&self, assignment: &[Cv]) -> Arc<LinkedProgram> {
        self.ctx.measure(assignment, 0);
        let digests: Vec<u64> = assignment.iter().map(Cv::digest).collect();
        let (linked, hit) = self.store.link(self.link_fp, &digests, || {
            unreachable!("measure linked this assignment")
        });
        assert!(hit, "measure linked this assignment");
        linked
    }

    /// The store's object of module `j` compiled with `cv`.
    fn object(&self, j: usize, cv: &Cv) -> Arc<CompiledModule> {
        let (obj, hit) = self.store.object(self.scopes[j], cv.digest(), || {
            unreachable!("measure compiled this object")
        });
        assert!(hit, "measure compiled this object");
        obj
    }

    /// The same program linked from fresh owned compiles.
    fn fresh(&self, assignment: &[Cv]) -> LinkedProgram {
        let c = &self.ctx.compiler;
        link(
            c.compile_mixed(&self.ctx.ir, assignment),
            &self.ctx.ir,
            &self.ctx.arch,
        )
    }

    fn total_bits(&self, linked: &LinkedProgram, seed: u64) -> u64 {
        execute_total(
            linked,
            &self.ctx.arch,
            &ExecOptions::new(self.ctx.steps, seed),
        )
        .to_bits()
    }
}

/// Assignment `k`: a random CV per module.
fn assignment(ctx: &EvalContext, k: u64) -> Vec<Cv> {
    let mut rng = rng_for(k, "shared-objects");
    (0..ctx.modules())
        .map(|_| ctx.space().sample(&mut rng))
        .collect()
}

fn store_links_equal_fresh_links_and_share_objects(ir: ProgramIr, steps: u32) {
    let arch = Architecture::broadwell();
    let b = Bound::new(ir, &arch, steps, Arc::new(ObjectStore::new()));
    let first = assignment(&b.ctx, 0);
    let mut overridden = 0;
    for k in 0..ASSIGNMENTS {
        let cvs = assignment(&b.ctx, k);
        let linked = b.linked(&cvs);
        let fresh = b.fresh(&cvs);
        assert_eq!(*linked, fresh, "assignment {k}");
        assert_eq!(
            b.total_bits(&linked, k),
            b.total_bits(&fresh, k),
            "assignment {k}"
        );
        for (j, (slot, cv)) in linked.modules.iter().zip(&cvs).enumerate() {
            let obj = b.object(j, cv);
            if linked.was_overridden(j) {
                overridden += 1;
                assert!(!Arc::ptr_eq(slot, &obj), "assignment {k}, slot {j}");
                assert!(Arc::ptr_eq(&slot.module, &obj.module));
                assert_eq!(slot.cv_digest, obj.cv_digest);
                assert_ne!(slot.decisions, obj.decisions, "assignment {k}, slot {j}");
            } else {
                assert!(Arc::ptr_eq(slot, &obj), "assignment {k}, slot {j}");
            }
            // Every object of module j points at the same descriptor.
            let descriptor = &b.object(j, &first[j]).module;
            assert!(Arc::ptr_eq(&obj.module, descriptor), "slot {j}");
        }
    }
    assert!(
        overridden > 0,
        "no LTO override fired in {ASSIGNMENTS} links"
    );
}

#[test]
fn cloverleaf_links_share_the_stores_objects() {
    let (ir, steps) = cloverleaf(&Architecture::broadwell());
    store_links_equal_fresh_links_and_share_objects(ir, steps);
}

#[test]
fn synthetic_links_share_the_stores_objects() {
    let (ir, steps) = synthetic();
    store_links_equal_fresh_links_and_share_objects(ir, steps);
}

#[test]
fn a_program_outlives_the_eviction_of_its_objects() {
    let arch = Architecture::broadwell();
    let (ir, steps) = cloverleaf(&arch);
    let store = Arc::new(ObjectStore::with_capacity(CacheCapacity::Entries(1)));
    let b = Bound::new(ir, &arch, steps, store);
    let kept_cvs = assignment(&b.ctx, 0);
    let before = b.ctx.measure(&kept_cvs, 5);
    let kept = b.linked(&kept_cvs);
    for k in 1..=64 {
        b.ctx.measure(&assignment(&b.ctx, k), k);
    }
    // Only this handle is left: the store evicted the program and at
    // least one of the objects it shares (overridden slots are the
    // program's own copies, so they prove nothing).
    assert_eq!(Arc::strong_count(&kept), 1, "program still resident");
    assert!(
        (0..kept.modules.len())
            .any(|j| !kept.was_overridden(j) && Arc::strong_count(&kept.modules[j]) == 1),
        "no shared object was evicted"
    );
    let fresh = b.fresh(&kept_cvs);
    assert_eq!(*kept, fresh);
    for seed in [0, 5, 99] {
        assert_eq!(b.total_bits(&kept, seed), b.total_bits(&fresh, seed));
    }
    // Re-measuring recompiles and relinks to the same bits.
    let again = b.ctx.measure(&kept_cvs, 5);
    assert_eq!(again.total_s.to_bits(), before.total_s.to_bits());
}
