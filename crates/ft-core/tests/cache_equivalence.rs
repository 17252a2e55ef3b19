//! Eviction-equivalence suite — the bounded-cache headline proof.
//!
//! Compile and link are pure functions of their keys, so cache
//! eviction and cross-context sharing may only move the cost
//! counters, never the results. For a matrix of (seed, budget, fault
//! model, schedule mode), campaigns under unbounded caches,
//! capacity-1 caches, adversarially tiny per-shard capacities, and a
//! shared cross-context object store must all produce byte-identical
//! `TuningRun::canonical_bytes()`.
//!
//! CI's `capacity-and-faults` row re-runs this suite with
//! `FT_CACHE_CAPACITY` set to `1` and `7` to pin each pressure point
//! individually (`unbounded` is also accepted); unset, as in tier-1,
//! the matrix sweeps all of them.

use ft_compiler::{CacheCapacity, FaultModel};
use ft_core::{ObjectStore, Phase, ScheduleMode, Tuner, TuningRun};
use ft_machine::Architecture;
use ft_workloads::workload_by_name;
use std::sync::Arc;

const BUDGET: usize = 48;
const FOCUS: usize = 8;

/// The three injected-fault regimes the invariance claim covers:
/// clean, compile-failure-heavy (exercises quarantine), and a mixed
/// crash/hang/outlier model (exercises retries and timeouts).
fn fault_models(seed: u64) -> Vec<(&'static str, FaultModel)> {
    vec![
        ("clean", FaultModel::with_rates(seed, 0.0, 0.0, 0.0, 0.0)),
        (
            "compile-heavy",
            FaultModel::with_rates(seed, 0.08, 0.0, 0.0, 0.0),
        ),
        (
            "mixed",
            FaultModel::with_rates(seed, 0.02, 0.03, 0.01, 0.05),
        ),
    ]
}

/// The cache-pressure points under test. `FT_CACHE_CAPACITY` (CI's
/// `capacity-and-faults` row) narrows the sweep to one of them.
fn capacities_under_test() -> Vec<(String, CacheCapacity)> {
    let all = vec![
        ("entries-1".to_string(), CacheCapacity::Entries(1)),
        ("entries-7".to_string(), CacheCapacity::Entries(7)),
        ("entries-33".to_string(), CacheCapacity::Entries(33)),
        ("unbounded".to_string(), CacheCapacity::Unbounded),
    ];
    match std::env::var("FT_CACHE_CAPACITY") {
        Err(_) => all,
        Ok(v) if v == "unbounded" => vec![("unbounded".into(), CacheCapacity::Unbounded)],
        Ok(v) => {
            let n: usize = v
                .parse()
                .unwrap_or_else(|_| panic!("FT_CACHE_CAPACITY must be a count or `unbounded`"));
            vec![(format!("entries-{n}"), CacheCapacity::Entries(n))]
        }
    }
}

fn campaign(
    workload: &str,
    seed: u64,
    faults: &FaultModel,
    mode: ScheduleMode,
    capacity: CacheCapacity,
    store: Option<Arc<ObjectStore>>,
) -> TuningRun {
    let arch = Architecture::broadwell();
    let w = workload_by_name(workload).expect("workload in suite");
    let mut tuner = Tuner::new(&w, &arch)
        .budget(BUDGET)
        .focus(FOCUS)
        .seed(seed)
        .cap_steps(5)
        .faults(*faults)
        .schedule(mode)
        .cache_capacity(capacity);
    if let Some(store) = store {
        tuner = tuner.shared_store(store);
    }
    tuner.run()
}

/// The headline matrix: every (fault model × schedule × capacity ×
/// store) combination reproduces the unbounded reference byte for
/// byte, across two seeded campaigns.
#[test]
fn eviction_and_sharing_are_result_invariant_across_the_matrix() {
    for seed in [42u64, 1009] {
        for (fault_name, faults) in fault_models(seed ^ 0xFA17) {
            for mode in [ScheduleMode::Serial, ScheduleMode::Overlapped] {
                let reference =
                    campaign("swim", seed, &faults, mode, CacheCapacity::Unbounded, None)
                        .canonical_bytes();
                for (cap_name, capacity) in capacities_under_test() {
                    let run = campaign("swim", seed, &faults, mode, capacity, None);
                    assert_eq!(
                        run.canonical_bytes(),
                        reference,
                        "seed {seed} / {fault_name} / {mode:?} / {cap_name}: \
                         eviction changed the results"
                    );
                }
                // A cold shared store is equivalent too — and so is a
                // second campaign borrowing the now-warm store.
                let store = Arc::new(ObjectStore::new());
                for round in 0..2 {
                    let run = campaign(
                        "swim",
                        seed,
                        &faults,
                        mode,
                        CacheCapacity::Unbounded,
                        Some(store.clone()),
                    );
                    assert_eq!(
                        run.canonical_bytes(),
                        reference,
                        "seed {seed} / {fault_name} / {mode:?} / shared store \
                         round {round}: sharing changed the results"
                    );
                }
            }
        }
    }
}

/// Adversarially tiny capacities must actually thrash — otherwise the
/// matrix above proves nothing about eviction.
#[test]
fn tiny_capacities_thrash_but_the_ledger_balances() {
    let faults = FaultModel::with_rates(7, 0.0, 0.0, 0.0, 0.0);
    // A capacity-1 store the test owns; the campaign is its only user.
    let store = Arc::new(ObjectStore::with_capacity(CacheCapacity::Entries(1)));
    let run = campaign(
        "swim",
        42,
        &faults,
        ScheduleMode::Serial,
        CacheCapacity::Entries(1),
        Some(store.clone()),
    );
    let (o, l) = (store.object_stats(), store.link_stats());
    assert!(
        o.evictions > 0 && l.evictions > 0,
        "capacity 1 must evict in both layers: {o:?} {l:?}"
    );
    // Single-flight accounting on the store's own counters: every miss
    // computes, every lookup is either a hit or a miss — even under
    // eviction churn.
    assert_eq!(o.computes, o.misses, "{o:?}");
    assert_eq!(o.hits + o.misses, o.lookups, "{o:?}");
    assert_eq!(l.computes, l.misses, "{l:?}");
    assert_eq!(l.hits + l.misses, l.lookups, "{l:?}");
    // The campaign's ledger is the store's.
    let cost = run.ctx.cost();
    assert_eq!(cost.object_compiles, o.computes, "{cost:?}");
    assert_eq!(cost.links, l.computes, "{cost:?}");
}

/// One store shared by *different* campaigns: each must still match
/// its own private-cache reference, faults stay per-context, and a
/// bounded store behaves like an unbounded one.
#[test]
fn shared_store_isolates_contexts_and_survives_bounding() {
    let clean = FaultModel::with_rates(0xFA17, 0.0, 0.0, 0.0, 0.0);
    let faulty = FaultModel::with_rates(0xFA17, 0.08, 0.03, 0.01, 0.05);
    let mode = ScheduleMode::Serial;
    let ref_clean = campaign("swim", 42, &clean, mode, CacheCapacity::Unbounded, None);
    let ref_faulty = campaign("swim", 42, &faulty, mode, CacheCapacity::Unbounded, None);
    let ref_other = campaign("bwaves", 7, &clean, mode, CacheCapacity::Unbounded, None);

    for capacity in [CacheCapacity::Unbounded, CacheCapacity::Entries(5)] {
        let store = Arc::new(ObjectStore::with_capacity(capacity));
        let tuner = |workload: &str, seed: u64, faults: &FaultModel| {
            campaign(workload, seed, faults, mode, capacity, Some(store.clone()))
        };
        // A faulty campaign warms the store first; the clean campaign
        // borrowing it afterwards must not inherit its quarantine.
        let faulty_run = tuner("swim", 42, &faulty);
        let clean_run = tuner("swim", 42, &clean);
        let other_run = tuner("bwaves", 7, &clean);
        assert_eq!(
            faulty_run.canonical_bytes(),
            ref_faulty.canonical_bytes(),
            "faulty campaign drifted under a shared store ({capacity:?})"
        );
        assert_eq!(
            clean_run.canonical_bytes(),
            ref_clean.canonical_bytes(),
            "clean campaign inherited store-mate state ({capacity:?})"
        );
        assert_eq!(
            other_run.canonical_bytes(),
            ref_other.canonical_bytes(),
            "cross-workload sharing leaked ({capacity:?})"
        );
        // The clean campaign's quarantine ledger stays empty even
        // though its store-mate quarantined modules.
        let fs = clean_run.ctx.fault_stats();
        assert_eq!(fs.quarantined, 0, "quarantine leaked across contexts");
        assert!(faulty_run.ctx.fault_stats().compile_failures > 0);
    }
}

/// A campaign checkpointed under one capacity and resumed under
/// another (and with/without a store) is bit-identical to the
/// straight-through run: capacity is not part of checkpoint identity.
#[test]
fn checkpoint_resume_across_capacities_is_bit_identical() {
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");
    let tuner = |capacity: CacheCapacity, store: Option<Arc<ObjectStore>>| {
        let mut t = Tuner::new(&w, &arch)
            .budget(BUDGET)
            .focus(FOCUS)
            .seed(42)
            .cap_steps(5)
            .cache_capacity(capacity);
        if let Some(store) = store {
            t = t.shared_store(store);
        }
        t
    };
    let reference = tuner(CacheCapacity::Unbounded, None)
        .run()
        .canonical_bytes();

    let ckpt = tuner(CacheCapacity::Unbounded, None).run_until(Phase::Random);
    let resumed = tuner(CacheCapacity::Entries(1), None)
        .resume(ckpt)
        .expect("checkpoint identity ignores capacity");
    assert_eq!(resumed.canonical_bytes(), reference);

    let ckpt = tuner(CacheCapacity::Entries(2), None).run_until(Phase::Random);
    let store = Arc::new(ObjectStore::new());
    let resumed = tuner(CacheCapacity::Unbounded, Some(store))
        .resume(ckpt)
        .expect("checkpoint identity ignores the store");
    assert_eq!(resumed.canonical_bytes(), reference);
}
