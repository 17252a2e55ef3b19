//! Concurrency stress for the batched evaluation engine.
//!
//! Sixteen threads hammer one `EvalContext` — and therefore its
//! sharded object cache and its link cache — with overlapping
//! assignments. Every measurement must be bit-identical to the
//! uncached compile → link → execute path, from every thread, on
//! every repetition: the caches are allowed to save work, never to
//! change results.
//!
//! Plain `std::thread::scope` rather than rayon, so the thread count
//! is a hard 16 regardless of how many cores the runner has.

use ft_compiler::Compiler;
use ft_core::{Candidate, EvalContext, Proposal};
use ft_flags::rng::{derive_seed_idx, rng_for};
use ft_flags::{Cv, CvId, CvPool};
use ft_machine::{execute, link, Architecture, ExecOptions};
use ft_outline::outline_with_defaults;
use ft_workloads::workload_by_name;
use rand::Rng;

const THREADS: usize = 16;

fn mk_ctx() -> EvalContext {
    let arch = Architecture::broadwell();
    let compiler = Compiler::icc(arch.target);
    let w = workload_by_name("swim").expect("swim in suite");
    let input = w.tuning_input(arch.name);
    let ir = w.instantiate(input);
    let steps = 5;
    let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, steps, 11);
    EvalContext::new(outlined.ir, Compiler::icc(arch.target), arch, steps, 99)
}

/// One interned per-loop candidate through the search entry point.
fn eval_one(ctx: &EvalContext, pool: &CvPool, ids: &[CvId], seed: u64) -> f64 {
    let p = Proposal::new(Candidate::PerLoop(ids.to_vec()), seed);
    ctx.evaluate(pool, &[p])[0].time
}

#[test]
fn sixteen_threads_agree_with_the_uncached_path() {
    let ctx = mk_ctx();
    let pool = CvPool::new();
    let cvs = ctx.space().sample_many(12, &mut rng_for(7, "stress"));
    let ids = pool.intern_all(&cvs);

    // 24 distinct assignments, each listed twice (the duplicates force
    // link-cache hits even before thread contention kicks in).
    let mut rng = rng_for(8, "stress-assign");
    let mut assignments: Vec<Vec<CvId>> = Vec::new();
    for _ in 0..24 {
        let a: Vec<CvId> = (0..ctx.modules())
            .map(|_| ids[rng.gen_range(0..ids.len())])
            .collect();
        assignments.push(a.clone());
        assignments.push(a);
    }
    let seed_of = |k: usize| derive_seed_idx(0x57E55, k as u64);

    // Reference: no caches anywhere — a fresh compile of every module
    // and a direct link per assignment.
    let reference: Vec<f64> = assignments
        .iter()
        .enumerate()
        .map(|(k, a)| {
            let owned: Vec<Cv> = pool.materialize(a);
            let objects = ctx.compiler.compile_mixed(&ctx.ir, &owned);
            let linked = link(objects, &ctx.ir, &ctx.arch);
            execute(&linked, &ctx.arch, &ExecOptions::new(ctx.steps, seed_of(k))).total_s
        })
        .collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ctx = &ctx;
                let pool = &pool;
                let assignments = &assignments;
                s.spawn(move || {
                    // Stagger the iteration order per thread so shards
                    // see genuinely interleaved keys, not 16 copies of
                    // the same access sequence.
                    let n = assignments.len();
                    (0..n)
                        .map(|i| {
                            let k = (i + t * 3) % n;
                            (k, eval_one(ctx, pool, &assignments[k], seed_of(k)))
                        })
                        .collect::<Vec<(usize, f64)>>()
                })
            })
            .collect();
        for h in handles {
            for (k, t) in h.join().expect("stress thread panicked") {
                assert_eq!(
                    t.to_bits(),
                    reference[k].to_bits(),
                    "cached path diverged from uncached at assignment {k}"
                );
            }
        }
    });

    let cost = ctx.cost();
    assert_eq!(
        cost.links + cost.link_reuses,
        (THREADS * assignments.len()) as u64,
        "one lookup per eval: {cost:?}"
    );
    // 24 distinct assignments; the link cache is single-flight, so
    // racing threads coalesce on one compute per key and the link
    // count is *exactly* the distinct-key count — no matter how the
    // 16 threads interleave.
    assert_eq!(cost.links, 24, "{cost:?}");
    assert!(cost.object_reuses > 0, "{cost:?}");
}

#[test]
fn sixteen_threads_share_one_tiny_store_without_deadlock_or_drift() {
    // Each thread owns a private context bound to ONE process-wide
    // store whose capacity is far below the working set (24 distinct
    // assignments × ~9 modules ≫ 4 entries), so threads constantly
    // evict each other's objects while others are mid-lookup. The
    // run must neither deadlock nor panic, and every thread's
    // measurements must equal a single-threaded store-free run.
    let store = std::sync::Arc::new(ft_core::ObjectStore::with_capacity(
        ft_compiler::CacheCapacity::Entries(4),
    ));
    let reference_ctx = mk_ctx();
    let pool = CvPool::new();
    let cvs = reference_ctx
        .space()
        .sample_many(10, &mut rng_for(17, "store-stress"));
    let ids = pool.intern_all(&cvs);
    let mut rng = rng_for(18, "store-stress-assign");
    let assignments: Vec<Vec<CvId>> = (0..24)
        .map(|_| {
            (0..reference_ctx.modules())
                .map(|_| ids[rng.gen_range(0..ids.len())])
                .collect()
        })
        .collect();
    let seed_of = |k: usize| derive_seed_idx(0x5704E, k as u64);
    let reference: Vec<f64> = assignments
        .iter()
        .enumerate()
        .map(|(k, a)| eval_one(&reference_ctx, &pool, a, seed_of(k)))
        .collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = store.clone();
                let pool = &pool;
                let assignments = &assignments;
                s.spawn(move || {
                    let ctx = mk_ctx().with_shared_store(store);
                    let n = assignments.len();
                    let times: Vec<(usize, f64)> = (0..2 * n)
                        .map(|i| {
                            let k = (i + t * 5) % n;
                            (k, eval_one(&ctx, pool, &assignments[k], seed_of(k)))
                        })
                        .collect();
                    (times, ctx.cost())
                })
            })
            .collect();
        let (mut compiles, mut links) = (0, 0);
        for h in handles {
            let (times, cost) = h.join().expect("store-stress thread panicked");
            for (k, t) in times {
                assert_eq!(
                    t.to_bits(),
                    reference[k].to_bits(),
                    "shared tiny store diverged from the private path at {k}"
                );
            }
            compiles += cost.object_compiles;
            links += cost.links;
        }
        // Single-flight accounting under eviction churn, on the store's
        // own counters. The sixteen contexts are the store's only
        // users, so their per-thread ledgers sum to its computes.
        let (o, l) = (store.object_stats(), store.link_stats());
        assert_eq!(o.hits + o.misses, o.lookups, "{o:?}");
        assert_eq!(o.computes, o.misses, "{o:?}");
        assert_eq!(l.hits + l.misses, l.lookups, "{l:?}");
        assert_eq!(l.computes, l.misses, "{l:?}");
        assert_eq!(compiles, o.computes, "per-thread compiles vs the store");
        assert_eq!(links, l.computes, "per-thread links vs the store");
    });

    // The store really was under pressure: it evicted, and it never
    // grew past its enforced residency bound (per-shard minimum 1).
    let (obj_len, _) = store.len();
    let o = store.object_stats();
    assert!(o.evictions > 0, "capacity 4 must evict: {o:?}");
    assert!(obj_len <= 16, "residency leak: {obj_len} objects");
}

#[test]
fn uniform_batch_under_contention_is_stable() {
    let ctx = mk_ctx();
    let cvs: Vec<Vec<Cv>> = ctx
        .space()
        .sample_many(16, &mut rng_for(9, "stress-uni"))
        .into_iter()
        .map(|cv| vec![cv; ctx.modules()])
        .collect();
    // Sequential reference through the same context: cache state must
    // not affect values, only work.
    let reference: Vec<f64> = cvs
        .iter()
        .enumerate()
        .map(|(k, cv)| ctx.measure(cv, derive_seed_idx(0xCAFE, k as u64)).total_s)
        .collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ctx = &ctx;
            let cvs = &cvs;
            let reference = &reference;
            s.spawn(move || {
                for i in 0..cvs.len() {
                    let k = (i + t) % cvs.len();
                    let m = ctx.measure(&cvs[k], derive_seed_idx(0xCAFE, k as u64));
                    assert_eq!(m.total_s.to_bits(), reference[k].to_bits());
                }
            });
        }
    });
}
