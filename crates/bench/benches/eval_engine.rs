//! Throughput of the batched candidate-evaluation engine
//! (candidates/sec), before vs after.
//!
//! "legacy" reconstructs the pre-engine evaluation path: one cloned
//! `Vec<Cv>` per candidate, objects through the object cache, and a
//! fresh whole-program link for every single evaluation. "engine" is
//! the path campaigns run, `EvalContext::evaluate`: interned `CvId`
//! proposals, memoized digests, link memoization and lane-batched
//! execution, so repeated and overlapping candidates only pay for
//! their noise-seeded execution.
//!
//! Batches mirror CFR's re-sampling shape: K assignments drawn from a
//! pruned pool of 12 CVs per module (`BENCH_X`), at K = 100 and 1000.

use bench::{bench_ctx, BENCH_X};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ft_compiler::ObjectCache;
use ft_core::{Candidate, EvalContext, Proposal};
use ft_flags::rng::{derive_seed_idx, rng_for};
use ft_flags::{Cv, CvId, CvPool};
use ft_machine::{
    execute, execute_batch_total, execute_total, link, Architecture, BatchPlan, ExecOptions,
    ExecShape, LinkedProgram,
};
use rand::Rng;
use rayon::prelude::*;

/// `FT_BENCH_SMOKE=1` shrinks the batch sizes so CI can smoke-test the
/// harness (including the bit-equality asserts) in seconds.
fn batch_sizes() -> Vec<usize> {
    if std::env::var_os("FT_BENCH_SMOKE").is_some() {
        vec![100]
    } else {
        vec![100, 1000]
    }
}

/// The pre-engine assignment batch: object cache, but no interning
/// and no link cache — every candidate clones its CV vector and links
/// from scratch. Seeds match the engine proposals exactly.
fn legacy_assignment_batch(
    ctx: &EvalContext,
    cache: &ObjectCache,
    assignments: &[Vec<Cv>],
) -> Vec<f64> {
    assignments
        .par_iter()
        .enumerate()
        .map(|(k, a)| {
            let objects: Vec<_> = ctx
                .ir
                .modules
                .iter()
                .zip(a)
                .map(|(m, cv)| cache.compile_arc(&ctx.compiler, m, cv))
                .collect();
            let linked = link(objects, &ctx.ir, &ctx.arch);
            let opts = ExecOptions::new(
                ctx.steps,
                derive_seed_idx(ctx.noise_root ^ 0xA551, k as u64),
            );
            execute(&linked, &ctx.arch, &opts).total_s
        })
        .collect()
}

/// The pre-engine uniform batch: compile + link per candidate.
fn legacy_uniform_batch(ctx: &EvalContext, cache: &ObjectCache, cvs: &[Cv]) -> Vec<f64> {
    cvs.par_iter()
        .enumerate()
        .map(|(k, cv)| {
            let objects: Vec<_> = ctx
                .ir
                .modules
                .iter()
                .map(|m| cache.compile_arc(&ctx.compiler, m, cv))
                .collect();
            let linked = link(objects, &ctx.ir, &ctx.arch);
            let opts = ExecOptions::new(ctx.steps, derive_seed_idx(ctx.noise_root, k as u64));
            execute(&linked, &ctx.arch, &opts).total_s
        })
        .collect()
}

/// End-to-end times of a proposal batch through `ctx.evaluate`.
fn engine_times(ctx: &EvalContext, pool: &CvPool, proposals: &[Proposal]) -> Vec<f64> {
    ctx.evaluate(pool, proposals)
        .iter()
        .map(|s| s.time)
        .collect()
}

/// `k` per-loop proposals under CFR's historical re-sampling seeds,
/// plus the same assignments as owned CVs.
fn assignment_inputs(ctx: &EvalContext, k: usize) -> (CvPool, Vec<Proposal>, Vec<Vec<Cv>>) {
    let pool = CvPool::new();
    let cvs = ctx
        .space()
        .sample_many(BENCH_X, &mut rng_for(31, "engine-pool"));
    let ids = pool.intern_all(&cvs);
    let mut rng = rng_for(32, "engine-assign");
    let id_assignments: Vec<Vec<CvId>> = (0..k)
        .map(|_| {
            (0..ctx.modules())
                .map(|_| ids[rng.gen_range(0..ids.len())])
                .collect()
        })
        .collect();
    let cv_assignments: Vec<Vec<Cv>> = id_assignments.iter().map(|a| pool.materialize(a)).collect();
    let proposals = id_assignments
        .into_iter()
        .enumerate()
        .map(|(k, ids)| {
            let seed = derive_seed_idx(ctx.noise_root ^ 0xA551, k as u64);
            Proposal::new(Candidate::PerLoop(ids), seed)
        })
        .collect();
    (pool, proposals, cv_assignments)
}

fn engine_benches(c: &mut Criterion) {
    let arch = Architecture::broadwell();

    for k in batch_sizes() {
        let mut g = c.benchmark_group(format!("assignment-batch/K{k}"));
        g.throughput(Throughput::Elements(k as u64));
        g.sample_size(10);

        let ctx = bench_ctx("CloverLeaf", &arch);
        let (pool, proposals, cv_assignments) = assignment_inputs(&ctx, k);
        // Sanity: both paths must produce identical times.
        let legacy_cache = ObjectCache::new();
        assert_eq!(
            engine_times(&ctx, &pool, &proposals),
            legacy_assignment_batch(&ctx, &legacy_cache, &cv_assignments),
            "paths disagree — bench is invalid"
        );

        g.bench_function("engine", |b| {
            b.iter(|| engine_times(&ctx, &pool, &proposals))
        });
        g.bench_function("legacy", |b| {
            b.iter(|| legacy_assignment_batch(&ctx, &legacy_cache, &cv_assignments))
        });
        g.finish();
    }

    for k in batch_sizes() {
        let mut g = c.benchmark_group(format!("uniform-batch/K{k}"));
        g.throughput(Throughput::Elements(k as u64));
        g.sample_size(10);

        let ctx = bench_ctx("CloverLeaf", &arch);
        let cvs = ctx
            .space()
            .sample_many(k, &mut rng_for(33, "engine-uniform"));
        let pool = CvPool::new();
        let proposals: Vec<Proposal> = pool
            .intern_all(&cvs)
            .into_iter()
            .enumerate()
            .map(|(k, id)| {
                Proposal::new(
                    Candidate::Uniform(id),
                    derive_seed_idx(ctx.noise_root, k as u64),
                )
            })
            .collect();
        let legacy_cache = ObjectCache::new();
        assert_eq!(
            engine_times(&ctx, &pool, &proposals),
            legacy_uniform_batch(&ctx, &legacy_cache, &cvs),
            "paths disagree — bench is invalid"
        );

        g.bench_function("engine", |b| {
            b.iter(|| engine_times(&ctx, &pool, &proposals))
        });
        g.bench_function("legacy", |b| {
            b.iter(|| legacy_uniform_batch(&ctx, &legacy_cache, &cvs))
        });
        g.finish();
    }
}

/// `execute` vs `execute_total`: the run-model hot path with and
/// without the per-module vector allocation. The zero-fault batched
/// search route only keeps the end-to-end time, and each of its lanes
/// is bit-identical to one `execute_total` run.
fn exec_total_benches(c: &mut Criterion) {
    let arch = Architecture::broadwell();
    let ctx = bench_ctx("CloverLeaf", &arch);
    let cache = ObjectCache::new();
    let base = ctx.space().baseline();
    let objects: Vec<_> = ctx
        .ir
        .modules
        .iter()
        .map(|m| cache.compile_arc(&ctx.compiler, m, &base))
        .collect();
    let linked = link(objects, &ctx.ir, &ctx.arch);
    let opts = ExecOptions::new(ctx.steps, 99);
    // Sanity: the scalar accumulation must be bit-identical to the
    // vector's push-then-sum.
    assert_eq!(
        execute(&linked, &ctx.arch, &opts).total_s,
        execute_total(&linked, &ctx.arch, &opts),
        "execute_total diverged from execute — bench is invalid"
    );

    let mut g = c.benchmark_group("execute-run");
    g.throughput(Throughput::Elements(1));
    g.bench_function("execute", |b| {
        b.iter(|| execute(&linked, &ctx.arch, &opts).total_s)
    });
    g.bench_function("execute_total", |b| {
        b.iter(|| execute_total(&linked, &ctx.arch, &opts))
    });
    g.finish();
}

/// `execute_total` vs `execute_batch_total`: the scalar run model
/// against the lane-oriented batch executor, at batch widths spanning
/// one rayon chunk (the driver executes 64-lane chunks). Both paths
/// are asserted bit-identical per lane before timing, so the numbers
/// compare equal work. `W` lanes are distinct mixed assignments —
/// the worst case for the gather phase (no lane shares decisions).
fn batch_exec_benches(c: &mut Criterion) {
    let arch = Architecture::broadwell();
    let ctx = bench_ctx("CloverLeaf", &arch);
    let plan = BatchPlan::new(
        &ctx.ir,
        &ctx.arch,
        ExecShape::of(&ExecOptions::new(ctx.steps, 0)),
    );
    let widths: Vec<usize> = if std::env::var_os("FT_BENCH_SMOKE").is_some() {
        vec![4, 8]
    } else {
        vec![4, 8, 16, 64]
    };
    for w in widths {
        let (_, _, cv_assignments) = assignment_inputs(&ctx, w);
        let linked: Vec<LinkedProgram> = cv_assignments
            .iter()
            .map(|a| link(ctx.compiler.compile_mixed(&ctx.ir, a), &ctx.ir, &ctx.arch))
            .collect();
        let lanes: Vec<(&LinkedProgram, u64)> = linked
            .iter()
            .enumerate()
            .map(|(k, l)| (l, derive_seed_idx(ctx.noise_root, k as u64)))
            .collect();
        // Sanity: every lane must be bit-identical across paths.
        let batch = execute_batch_total(&plan, &lanes);
        for ((l, seed), b) in lanes.iter().zip(&batch) {
            let scalar = execute_total(l, &ctx.arch, &plan.shape().options(*seed));
            assert_eq!(
                scalar.to_bits(),
                b.to_bits(),
                "scalar/batch divergence — bench is invalid"
            );
        }

        let mut g = c.benchmark_group(format!("batch-exec/W{w}"));
        g.throughput(Throughput::Elements(w as u64));
        g.bench_function("execute_total", |b| {
            b.iter(|| -> Vec<f64> {
                lanes
                    .iter()
                    .map(|(l, seed)| execute_total(l, &ctx.arch, &plan.shape().options(*seed)))
                    .collect()
            })
        });
        g.bench_function("execute_batch_total", |b| {
            b.iter(|| execute_batch_total(&plan, &lanes))
        });
        g.finish();
    }
}

criterion_group!(
    benches,
    engine_benches,
    exec_total_benches,
    batch_exec_benches
);
criterion_main!(benches);
