//! Object cache: compile each `(module, CV)` pair once.
//!
//! The paper's framework drives a real build system (modified to use
//! Intel's `xiar`/`xild`, §3.2); per-loop tuning naturally reuses
//! object files — CFR's re-sampling phase recombines the same top-X
//! per-module objects a thousand times and only the *link* step is
//! new. This cache reproduces that build-system behaviour outside an
//! evaluation context, which compiles through ft-core's `ObjectStore`
//! instead: benches use it to time one object lookup on its own.
//!
//! Built on an unbounded [`ShardedLru`]: lock-striped (searches
//! evaluate candidates from rayon worker threads) and single-flight
//! (concurrent lookups of one key block instead of racing duplicate
//! compiles). Entries are shared as `Arc<CompiledModule>` so a hit is
//! a pointer bump rather than a deep clone of the compiled decisions.

use crate::compiler::Compiler;
use crate::decisions::CompiledModule;
use crate::ir::Module;
use crate::lru::{CacheCapacity, ShardedLru};
use ft_flags::Cv;
use std::sync::Arc;

/// A concurrent compile cache keyed by `(module id, CV digest)`.
///
/// ```
/// use ft_compiler::{Compiler, LoopFeatures, Module, ObjectCache, Target};
/// use std::sync::Arc;
/// let compiler = Compiler::icc(Target::avx2_256());
/// let module = Module::hot_loop(0, "k", LoopFeatures::synthetic(1), &[]);
/// let cache = ObjectCache::new();
/// let cv = compiler.space().baseline();
/// let a = cache.compile_arc(&compiler, &module, &cv);
/// let b = cache.compile_arc(&compiler, &module, &cv);
/// assert!(Arc::ptr_eq(&a, &b)); // the second lookup hit
/// ```
pub struct ObjectCache {
    lru: ShardedLru<(usize, u64), CompiledModule>,
}

impl Default for ObjectCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        ObjectCache {
            lru: ShardedLru::new(CacheCapacity::Unbounded),
        }
    }

    /// Compiles `module` with `cv`, reusing a cached object when one
    /// exists. The result is bit-identical to
    /// [`Compiler::compile_module`] (compilation is deterministic);
    /// hits share the stored object instead of deep-cloning it.
    pub fn compile_arc(
        &self,
        compiler: &Compiler,
        module: &Module,
        cv: &Cv,
    ) -> Arc<CompiledModule> {
        let key = (module.id, cv.digest());
        self.lru
            .get_or_compute(key, || compiler.compile_module(module, cv))
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Target;
    use crate::ir::LoopFeatures;
    use ft_flags::rng::rng_for;

    fn setup() -> (Compiler, Module, Cv) {
        let c = Compiler::icc(Target::avx2_256());
        let m = Module::hot_loop(0, "k", LoopFeatures::synthetic(5), &[]);
        let cv = c.space().sample(&mut rng_for(1, "cache"));
        (c, m, cv)
    }

    #[test]
    fn hits_share_one_allocation() {
        let (c, m, cv) = setup();
        let cache = ObjectCache::new();
        let a = cache.compile_arc(&c, &m, &cv);
        let b = cache.compile_arc(&c, &m, &cv);
        assert_eq!(*a, c.compile_module(&m, &cv));
        assert!(Arc::ptr_eq(&a, &b), "hit must be a pointer bump");
    }

    #[test]
    fn different_modules_do_not_collide() {
        let (c, m, cv) = setup();
        let m2 = Module::hot_loop(1, "k2", LoopFeatures::synthetic(6), &[]);
        let cache = ObjectCache::new();
        let a = cache.compile_arc(&c, &m, &cv);
        let b = cache.compile_arc(&c, &m2, &cv);
        assert_ne!(a, b);
        assert_eq!(*b, c.compile_module(&m2, &cv));
    }

    #[test]
    fn concurrent_compiles_share_one_object() {
        let (c, m, cv) = setup();
        let cache = ObjectCache::new();
        let objects: Vec<Arc<CompiledModule>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        (0..50)
                            .map(|_| cache.compile_arc(&c, &m, &cv))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("no panic"))
                .collect()
        });
        // Every compile allocates a fresh `Arc`, so one pointer shared
        // by all 400 lookups means exactly one real compile.
        assert_eq!(*objects[0], c.compile_module(&m, &cv));
        assert!(objects.iter().all(|o| Arc::ptr_eq(o, &objects[0])));
    }
}
