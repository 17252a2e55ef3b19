//! Object store: the compile/link memoization every context uses.
//!
//! Every [`crate::EvalContext`] compiles and links through an
//! [`ObjectStore`], the analogue of the build-system object reuse the
//! paper's prototype gets from `xiar`/`xild`. By default the store is
//! private to the context and keyed positionally (one context fixes
//! the compiler, program and architecture). But `repro` builds a fresh
//! context per experiment row, so fig5a, fig5b, fig5c, and the
//! ablations would recompile identical `(module, CV)` pairs several
//! times over; there, contexts share one process-wide store, keyed by
//! content fingerprints so distinct programs, inputs, compilers, or
//! architectures can never collide:
//!
//! * objects by `(object scope, CV digest)` — the scope folds the
//!   compiler fingerprint and a module fingerprint that hashes the
//!   module's serialized content (features, idiosyncrasy seed, shared
//!   structs), not just its slot index, because different workloads
//!   and inputs reuse slot ids;
//! * links by `(link fingerprint, per-module CV digests)` — the link
//!   fingerprint hashes the whole `ProgramIr`, the architecture, and
//!   the compiler fingerprint, since `link` reads all three.
//!
//! Both layers are [`ShardedLru`]s under one [`CacheCapacity`]:
//! `Unbounded` by default, which never evicts and keeps no recency
//! index, or an `Entries` budget that evicts least recently used
//! first. Compilation and linking are pure functions of those keys, so
//! sharing (like eviction) is result-invariant: a store hit returns a
//! value bit-identical to what the borrowing context would have
//! computed itself. Only the *fault quarantine* stays per-context —
//! fault models are context configuration and must not leak between
//! experiments. Sharing is proved result-invariant by the
//! `cache_equivalence` suite against the golden canonical digests.

use ft_compiler::lru::{CacheCapacity, LruStats, ShardedLru};
use ft_compiler::{CompiledModule, Compiler, Module, ProgramIr};
use ft_flags::rng::{hash_label, mix};
use ft_machine::{Architecture, LinkedProgram};
use std::sync::Arc;

/// Fingerprint of a compiler configuration: personality, target, and
/// flag space. Two compilers with equal fingerprints generate
/// identical code for any `(module, CV)` pair.
pub fn compiler_fingerprint(compiler: &Compiler) -> u64 {
    let target = serde_json::to_string(&compiler.target()).expect("Target serializes");
    let personality =
        serde_json::to_string(&compiler.personality()).expect("Personality serializes");
    let space = serde_json::to_string(compiler.space()).expect("FlagSpace serializes");
    mix(hash_label(&personality) ^ hash_label(&target).rotate_left(21) ^ hash_label(&space))
}

/// Content fingerprint of one module: everything `compile_module`
/// reads (slot id, name, kind, features, idiosyncrasy, shared
/// structs), via its canonical serde encoding.
pub fn module_fingerprint(module: &Module) -> u64 {
    hash_label(&serde_json::to_string(module).expect("Module serializes"))
}

/// Object-layer scope of one module under one compiler: the two
/// fingerprints folded into one word, so an object key is two words.
/// For a fixed compiler, distinct module fingerprints get distinct
/// scopes (`mix` is a bijection).
pub fn object_scope(compiler_fp: u64, module_fp: u64) -> u64 {
    mix(compiler_fp ^ module_fp.rotate_left(32))
}

/// Fingerprint of a whole link configuration: the outlined program,
/// the architecture, and the compiler. `link` is a pure function of
/// these plus the per-module CV digests.
pub fn link_fingerprint(ir: &ProgramIr, arch: &Architecture, compiler_fp: u64) -> u64 {
    let ir_json = serde_json::to_string(ir).expect("ProgramIr serializes");
    let arch_json = serde_json::to_string(arch).expect("Architecture serializes");
    mix(hash_label(&ir_json) ^ hash_label(&arch_json).rotate_left(17) ^ compiler_fp)
}

/// A compile/link store, optionally entry-bounded, private to one
/// [`crate::EvalContext`] or shared by many (see module docs).
pub struct ObjectStore {
    objects: ShardedLru<(u64, u64), CompiledModule>,
    links: ShardedLru<(u64, Vec<u64>), LinkedProgram>,
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectStore {
    /// An unbounded store.
    pub fn new() -> Self {
        Self::with_capacity(CacheCapacity::Unbounded)
    }

    /// A store whose object and link layers each evict LRU-first past
    /// `capacity`.
    pub fn with_capacity(capacity: CacheCapacity) -> Self {
        ObjectStore {
            objects: ShardedLru::new(capacity),
            links: ShardedLru::new(capacity),
        }
    }

    /// The configured capacity (same for both layers).
    pub fn capacity(&self) -> CacheCapacity {
        self.objects.capacity()
    }

    /// Looks up (or computes, single-flight) one compiled object of
    /// the module `scope` names (see [`object_scope`]). Returns the
    /// shared object and whether this was a hit.
    pub fn object(
        &self,
        scope: u64,
        cv_digest: u64,
        compute: impl FnOnce() -> CompiledModule,
    ) -> (Arc<CompiledModule>, bool) {
        self.objects.get_or_compute((scope, cv_digest), compute)
    }

    /// Looks up (or computes, single-flight) one linked program.
    /// Returns the shared program and whether this was a hit.
    pub fn link(
        &self,
        link_fp: u64,
        digests: &[u64],
        compute: impl FnOnce() -> LinkedProgram,
    ) -> (Arc<LinkedProgram>, bool) {
        let mut key = Vec::with_capacity(digests.len());
        key.extend_from_slice(digests);
        self.links.get_or_compute((link_fp, key), compute)
    }

    /// Counter snapshot of the object layer.
    pub fn object_stats(&self) -> LruStats {
        self.objects.stats()
    }

    /// Counter snapshot of the link layer.
    pub fn link_stats(&self) -> LruStats {
        self.links.stats()
    }

    /// Resident entries `(objects, links)`.
    pub fn len(&self) -> (usize, usize) {
        (self.objects.resident(), self.links.resident())
    }

    /// High-water marks `(objects, links)` of resident entries.
    pub fn peak_resident(&self) -> (u64, u64) {
        (self.objects.peak_resident(), self.links.peak_resident())
    }
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("capacity", &self.capacity())
            .field("objects", &self.object_stats())
            .field("links", &self.link_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_compiler::{CallEdge, LoopFeatures, Target};
    use ft_flags::rng::rng_for;
    use ft_flags::Cv;
    use ft_machine::link;

    /// A `j`-loop program with shared structs and one call edge, so
    /// links carry layout conflicts and ABI costs.
    fn program(j: usize) -> ProgramIr {
        let mut modules: Vec<Module> = (0..j)
            .map(|i| {
                let mut f = LoopFeatures::synthetic(i as u64 * 31 + 5);
                f.base_code_bytes = 2500.0;
                Module::hot_loop(i, &format!("k{i}"), f, &[1, (i % 3) as u32 + 2])
            })
            .collect();
        modules.push(Module::non_loop(j, 0.3, 5.0e4));
        let edge = CallEdge {
            from: 0,
            to: 1,
            calls_per_step: 1e5,
        };
        ProgramIr::new("p", modules, vec![edge])
    }

    fn digests(assignment: &[Cv]) -> Vec<u64> {
        assignment.iter().map(Cv::digest).collect()
    }

    #[test]
    fn compiler_fingerprint_separates_configurations() {
        let icc = Compiler::icc(Target::avx2_256());
        let icc2 = Compiler::icc(Target::avx2_256());
        let gcc = Compiler::gcc(Target::avx2_256());
        let icc_sse = Compiler::icc(Target::sse_128());
        assert_eq!(compiler_fingerprint(&icc), compiler_fingerprint(&icc2));
        assert_ne!(compiler_fingerprint(&icc), compiler_fingerprint(&gcc));
        assert_ne!(compiler_fingerprint(&icc), compiler_fingerprint(&icc_sse));
    }

    #[test]
    fn module_fingerprint_is_content_addressed() {
        let a = Module::hot_loop(0, "k", LoopFeatures::synthetic(5), &[]);
        let same = Module::hot_loop(0, "k", LoopFeatures::synthetic(5), &[]);
        let other_features = Module::hot_loop(0, "k", LoopFeatures::synthetic(6), &[]);
        let other_slot = Module::hot_loop(1, "k", LoopFeatures::synthetic(5), &[]);
        assert_eq!(module_fingerprint(&a), module_fingerprint(&same));
        assert_ne!(module_fingerprint(&a), module_fingerprint(&other_features));
        assert_ne!(module_fingerprint(&a), module_fingerprint(&other_slot));
    }

    #[test]
    fn object_scope_separates_compilers_and_modules() {
        let icc = compiler_fingerprint(&Compiler::icc(Target::avx2_256()));
        let gcc = compiler_fingerprint(&Compiler::gcc(Target::avx2_256()));
        let m0 = module_fingerprint(&Module::hot_loop(0, "k", LoopFeatures::synthetic(5), &[]));
        let m1 = module_fingerprint(&Module::hot_loop(1, "k", LoopFeatures::synthetic(5), &[]));
        assert_ne!(object_scope(icc, m0), object_scope(gcc, m0));
        assert_ne!(object_scope(icc, m0), object_scope(icc, m1));
    }

    #[test]
    fn store_shares_objects_across_equal_keys() {
        let c = Compiler::icc(Target::avx2_256());
        let m = Module::hot_loop(0, "k", LoopFeatures::synthetic(5), &[]);
        let cv = c.space().sample(&mut rng_for(1, "store"));
        let store = ObjectStore::new();
        let scope = object_scope(compiler_fingerprint(&c), module_fingerprint(&m));
        let (a, hit_a) = store.object(scope, cv.digest(), || c.compile_module(&m, &cv));
        let (b, hit_b) = store.object(scope, cv.digest(), || {
            panic!("hit must not recompile");
        });
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.object_stats().computes, 1);
    }

    #[test]
    fn bounded_store_evicts_and_recomputes_identically() {
        let c = Compiler::icc(Target::avx2_256());
        let cv = c.space().sample(&mut rng_for(2, "store"));
        let store = ObjectStore::with_capacity(CacheCapacity::Entries(1));
        let cfp = compiler_fingerprint(&c);
        let modules: Vec<Module> = (0..40)
            .map(|i| Module::hot_loop(i, &format!("k{i}"), LoopFeatures::synthetic(i as u64), &[]))
            .collect();
        let objects = || -> Vec<Arc<CompiledModule>> {
            modules
                .iter()
                .map(|m| {
                    let scope = object_scope(cfp, module_fingerprint(m));
                    store
                        .object(scope, cv.digest(), || c.compile_module(m, &cv))
                        .0
                })
                .collect()
        };
        let first = objects();
        assert_eq!(first, objects());
        assert!(store.object_stats().evictions > 0);
    }

    // The link layer is keyed here as a private context keys it: link
    // fingerprint 0, since one context fixes program, arch and compiler.

    #[test]
    fn link_hits_share_the_program() {
        let ir = program(8);
        let c = Compiler::icc(Target::avx2_256());
        let arch = Architecture::broadwell();
        let mut rng = rng_for(12, "lc");
        let assignment: Vec<Cv> = (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect();
        let key = digests(&assignment);
        let store = ObjectStore::new();
        let (a, hit_a) = store.link(0, &key, || {
            link(c.compile_mixed(&ir, &assignment), &ir, &arch)
        });
        let (b, hit_b) = store.link(0, &key, || panic!("hit must not recompile"));
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit must be a pointer bump");
        assert_eq!(*a, link(c.compile_mixed(&ir, &assignment), &ir, &arch));
        let s = store.link_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(store.len(), (0, 1));
    }

    #[test]
    fn link_layer_distinguishes_assignments() {
        let ir = program(6);
        let c = Compiler::icc(Target::avx2_256());
        let arch = Architecture::broadwell();
        let store = ObjectStore::new();
        let mut rng = rng_for(13, "lc2");
        for _ in 0..10 {
            let assignment: Vec<Cv> = (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect();
            let (linked, _) = store.link(0, &digests(&assignment), || {
                link(c.compile_mixed(&ir, &assignment), &ir, &arch)
            });
            assert_eq!(*linked, link(c.compile_mixed(&ir, &assignment), &ir, &arch));
        }
        assert_eq!(
            store.len(),
            (0, 10),
            "distinct assignments, distinct entries"
        );
        assert_eq!(store.link_stats().hits, 0);
    }

    #[test]
    fn bounded_link_layer_relinks_identically() {
        let ir = program(6);
        let c = Compiler::icc(Target::avx2_256());
        let arch = Architecture::broadwell();
        let bounded = ObjectStore::with_capacity(CacheCapacity::Entries(1));
        let unbounded = ObjectStore::new();
        let mut rng = rng_for(21, "blc");
        let assignments: Vec<Vec<Cv>> = (0..20)
            .map(|_| (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect())
            .collect();
        // Two sweeps: the bounded store thrashes and re-links, the
        // unbounded one hits; results must be bit-identical.
        for _ in 0..2 {
            for a in &assignments {
                let key = digests(a);
                let relink = || link(c.compile_mixed(&ir, a), &ir, &arch);
                let (lb, _) = bounded.link(0, &key, relink);
                let (lu, _) = unbounded.link(0, &key, relink);
                assert_eq!(*lb, *lu);
            }
        }
        let s = bounded.link_stats();
        assert!(s.evictions > 0, "tiny store must evict");
        assert_eq!(s.hits + s.misses, s.lookups);
        assert_eq!(s.computes, s.misses);
        assert_eq!(unbounded.link_stats().evictions, 0);
    }
}
