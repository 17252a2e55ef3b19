//! Mixed-assignment collection equivalence and ledger invariants.
//!
//! The Figure-4 collection runs through `collect_candidates` on
//! interned handles, on the one evaluation route: a fault gate, then
//! instrumented lanes, then a per-lane fault outcome. This suite holds
//! it to the sequential funnel in `funnel/`, which probes one candidate
//! after another through a bare compile → link → `try_execute` and
//! records each successful run into its own Caliper session. It proves
//! (1) the uniform and mixed per-loop collections are byte-for-byte the
//! reference, probe by probe and across lane-chunk boundaries, with the
//! same ledger; (2) a uniform probe and its degenerate per-loop probe
//! are the same measurement; and (3) under compile-failure, crash, and
//! hang fault models the collection is the reference's canonical bytes
//! and ledger, every faulted probe is an all-`+inf` column, and the
//! whole collection stays deterministic.

mod funnel;

use ft_compiler::{Compiler, FaultModel};
use ft_core::{collect, collect_candidates, Candidate, EvalContext, MixedCollection};
use ft_flags::rng::{derive_seed_idx, rng_for};
use ft_flags::{Cv, CvPool};
use ft_machine::Architecture;
use ft_outline::outline_with_defaults;
use ft_workloads::workload_by_name;
use funnel::{Funnel, Ledger};
use rand::Rng;

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

fn canonical(m: &MixedCollection) -> Vec<u8> {
    let mut out = Vec::new();
    m.write_canonical(&mut out);
    out
}

/// Every faulted probe must be an all-`+inf` column, and every finite
/// probe must satisfy the §3.3 derivation: hot-loop sum plus the
/// derived non-loop row reproduces the end-to-end time.
fn assert_column_discipline(data: &MixedCollection) {
    let j_nl = data.modules() - 1;
    for k in 0..data.k() {
        if data.end_to_end[k].is_finite() {
            let hot_sum: f64 = (0..j_nl).map(|j| data.per_module[j][k]).sum();
            assert!(
                (hot_sum + data.per_module[j_nl][k] - data.end_to_end[k]).abs() < 1e-9,
                "derivation broken at finite column k={k}"
            );
        } else {
            for j in 0..data.modules() {
                assert!(
                    data.per_module[j][k].is_infinite(),
                    "faulted column k={k} leaked a finite row j={j}"
                );
            }
        }
    }
}

/// The reference collection: one instrumented probe per assignment
/// through the sequential funnel on a fresh context, on the
/// collection's seed schedule. Returns `per_module`, the end-to-end
/// times, and the ledger the probes charged.
fn reference_collection(
    ctx: &EvalContext,
    assignments: &[Vec<Cv>],
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<f64>, Ledger) {
    let mut funnel = Funnel::new(ctx, true);
    let mut per_module = vec![vec![0.0; assignments.len()]; ctx.modules()];
    let mut e2e = Vec::with_capacity(assignments.len());
    for (kk, assignment) in assignments.iter().enumerate() {
        let noise = derive_seed_idx(seed ^ 0x0C01_1EC7, kk as u64);
        let (column, total) = funnel.probe(assignment, noise);
        for (row, t) in per_module.iter_mut().zip(column) {
            row[kk] = t;
        }
        e2e.push(total);
    }
    (per_module, e2e, funnel.ledger)
}

/// Holds a shipped collection to the reference bit for bit, and its
/// ledger delta to the reference's.
fn assert_matches_reference(
    spent: &Ledger,
    per_module: &[Vec<f64>],
    end_to_end: &[f64],
    reference: &(Vec<Vec<f64>>, Vec<f64>, Ledger),
) {
    let (ref_per_module, ref_e2e, ref_ledger) = reference;
    assert_eq!(end_to_end.len(), ref_e2e.len());
    for (kk, (got, want)) in end_to_end.iter().zip(ref_e2e).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "end-to-end diverged at k={kk}"
        );
    }
    assert_eq!(per_module.len(), ref_per_module.len());
    for (j, (row, ref_row)) in per_module.iter().zip(ref_per_module).enumerate() {
        for (kk, (got, want)) in row.iter().zip(ref_row).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "per-module time diverged at j={j} k={kk}"
            );
        }
    }
    assert_eq!(spent, ref_ledger, "ledger");
}

/// Collects `k` uniform probes through `collect` and holds them to the
/// bare reference.
fn assert_uniform_collection_matches(k: usize, seed: u64) {
    let cvs = {
        let ctx = mk_ctx();
        ctx.space()
            .sample_many(k, &mut rng_for(seed, "collection-cvs"))
    };
    let ctx_ref = mk_ctx();
    let assignments: Vec<Vec<Cv>> = cvs
        .iter()
        .map(|cv| vec![cv.clone(); ctx_ref.modules()])
        .collect();
    let reference = reference_collection(&ctx_ref, &assignments, seed);

    // Shipped: `collect` samples the same CVs and probes them through
    // `collect_candidates` on interned handles, in parallel.
    let ctx = mk_ctx();
    let before = Ledger::of(&ctx);
    let data = collect(&ctx, k, seed);
    assert_eq!(data.cvs, cvs);
    assert_eq!(reference.2.cost.runs, k as u64, "one charged run per probe");
    assert_matches_reference(
        &Ledger::of(&ctx).since(&before),
        &data.per_module,
        &data.end_to_end,
        &reference,
    );
}

#[test]
fn uniform_collection_is_byte_identical_to_the_prepool_path() {
    assert_uniform_collection_matches(12, 7);
}

#[test]
fn collection_across_lane_chunk_boundaries_matches_the_bare_path() {
    // 130 probes run as lane chunks of 64 + 64 + 2.
    assert_uniform_collection_matches(130, 19);
}

#[test]
fn mixed_perloop_probes_match_the_bare_path() {
    // The recollect shape: per-loop candidates assembled from a small
    // interned CV sample, with repeats, across a chunk boundary.
    let seed = 23u64;
    let ctx = mk_ctx();
    let pool = CvPool::new();
    let cvs = ctx.space().sample_many(9, &mut rng_for(seed, "mixed-cvs"));
    let ids = pool.intern_all(&cvs);
    let mut rng = rng_for(seed, "mixed-assign");
    let mut candidates = Vec::new();
    let mut assignments = Vec::new();
    for kk in 0..70 {
        let picks: Vec<usize> = (0..ctx.modules())
            .map(|_| rng.gen_range(0..ids.len()))
            .collect();
        assignments.push(picks.iter().map(|&i| cvs[i].clone()).collect::<Vec<Cv>>());
        candidates.push(if kk % 10 == 0 {
            Candidate::Uniform(ids[picks[0]])
        } else {
            Candidate::PerLoop(picks.iter().map(|&i| ids[i]).collect())
        });
    }
    for (a, c) in assignments.iter_mut().zip(&candidates) {
        if let Candidate::Uniform(_) = c {
            let first = a[0].clone();
            a.iter_mut().for_each(|cv| *cv = first.clone());
        }
    }
    let reference = reference_collection(&mk_ctx(), &assignments, seed);
    let before = Ledger::of(&ctx);
    let data = collect_candidates(&ctx, &pool, &candidates, seed);
    assert_matches_reference(
        &Ledger::of(&ctx).since(&before),
        &data.per_module,
        &data.end_to_end,
        &reference,
    );
}

#[test]
fn a_uniform_probe_equals_its_degenerate_perloop_probe() {
    // A per-loop probe that assigns the same CV to every module is the
    // same executable as the uniform probe of that CV: identical
    // digests, fingerprint, and noise seed, so identical bytes.
    let cv = {
        let ctx = mk_ctx();
        ctx.space()
            .sample_many(1, &mut rng_for(3, "degenerate"))
            .remove(0)
    };
    let pool = CvPool::new();
    let id = pool.intern(&cv);

    let ctx_uni = mk_ctx();
    let uni = collect_candidates(&ctx_uni, &pool, &[Candidate::Uniform(id)], 5);

    let ctx_per = mk_ctx();
    let per = collect_candidates(
        &ctx_per,
        &pool,
        &[Candidate::PerLoop(vec![id; ctx_per.modules()])],
        5,
    );
    assert_eq!(canonical(&uni), canonical(&per));
    assert!(uni.end_to_end[0].is_finite());
}

/// Probes a mixed batch (10 uniform + 10 per-loop candidates) under
/// `model`, holds it to the reference on a fresh context by canonical
/// bytes and ledger, and returns the ledger delta it charged plus the
/// data.
fn faulted_collection(model: FaultModel) -> (Ledger, MixedCollection) {
    let ctx = mk_ctx().with_faults(model);
    let pool = CvPool::new();
    let cvs = ctx
        .space()
        .sample_many(10, &mut rng_for(41, "fault-probes"));
    let ids = pool.intern_all(&cvs);
    let mut rng = rng_for(42, "fault-assign");
    let mut candidates: Vec<Candidate> = ids.iter().map(|id| Candidate::Uniform(*id)).collect();
    for _ in 0..10 {
        candidates.push(Candidate::PerLoop(
            (0..ctx.modules())
                .map(|_| ids[rng.gen_range(0..ids.len())])
                .collect(),
        ));
    }
    let before = Ledger::of(&ctx);
    let data = collect_candidates(&ctx, &pool, &candidates, 77);
    let spent = Ledger::of(&ctx).since(&before);

    let assignments: Vec<Vec<Cv>> = candidates
        .iter()
        .map(|c| match c {
            Candidate::Uniform(id) => pool.materialize(&vec![*id; ctx.modules()]),
            Candidate::PerLoop(ids) => pool.materialize(ids),
        })
        .collect();
    let (per_module, end_to_end, ledger) =
        reference_collection(&mk_ctx().with_faults(model), &assignments, 77);
    let reference = MixedCollection {
        candidates,
        per_module,
        end_to_end,
    };
    assert_eq!(canonical(&data), canonical(&reference), "canonical bytes");
    assert_eq!(spent, ledger, "ledger");
    (spent, data)
}

#[test]
fn compile_fault_model_quarantines_columns_without_runtime_faults() {
    let model = FaultModel::with_rates(9, 0.15, 0.0, 0.0, 0.0);
    let (spent, data) = faulted_collection(model);
    assert_column_discipline(&data);
    // An ICE never reaches the machine: no crashes, no hangs, and the
    // faulted columns come from quarantined (module, CV) pairs.
    assert_eq!(spent.cost.crashes, 0);
    assert_eq!(spent.cost.timeouts, 0);
    assert!(spent.cost.compile_failures > 0, "0.15 ICE rate never fired");
    assert!(
        data.end_to_end.iter().any(|t| t.is_infinite()),
        "no probe faulted under a 0.15 ICE rate"
    );
    assert!(
        data.end_to_end.iter().any(|t| t.is_finite()),
        "every probe faulted — the model is too hot to test ranking"
    );
    // Determinism: a fresh identical context reproduces every byte.
    let (_, again) = faulted_collection(model);
    assert_eq!(canonical(&data), canonical(&again));
}

#[test]
fn crash_fault_model_retries_then_gives_up() {
    let model = FaultModel::with_rates(9, 0.0, 0.6, 0.0, 0.0);
    let (spent, data) = faulted_collection(model);
    assert_column_discipline(&data);
    assert_eq!(spent.cost.compile_failures, 0);
    assert_eq!(spent.cost.timeouts, 0);
    assert!(spent.cost.crashes > 0, "0.6 crash rate never fired");
    // Transient crashes are retried under fresh derived seeds, and
    // every crashed attempt is still a charged run.
    assert!(
        spent.cost.retries > 0,
        "a transient crash was never retried"
    );
    assert!(
        spent.cost.runs > data.k() as u64,
        "retries did not charge runs"
    );
    assert!(spent.cost.crashes + spent.cost.timeouts <= spent.cost.runs);
    let (_, again) = faulted_collection(model);
    assert_eq!(canonical(&data), canonical(&again));
}

#[test]
fn hang_fault_model_charges_timeouts_deterministically() {
    let model = FaultModel::with_rates(9, 0.0, 0.0, 0.3, 0.0);
    let (spent, data) = faulted_collection(model);
    assert_column_discipline(&data);
    assert_eq!(spent.cost.compile_failures, 0);
    assert_eq!(spent.cost.crashes, 0);
    assert!(spent.cost.timeouts > 0, "0.3 hang rate never fired");
    assert!(spent.cost.crashes + spent.cost.timeouts <= spent.cost.runs);
    // Hangs are deterministic per fingerprint: the faulted columns are
    // exactly reproduced on a fresh context.
    let (spent_again, again) = faulted_collection(model);
    assert_eq!(canonical(&data), canonical(&again));
    assert_eq!(spent.cost.timeouts, spent_again.cost.timeouts);
}
