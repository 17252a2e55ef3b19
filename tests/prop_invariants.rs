//! Cross-crate property-based tests.

use funcytuner::prelude::*;
use funcytuner::tuning::{collect, ScheduleMode};
use proptest::prelude::*;

fn bdw_ctx(bench: &str, seed: u64) -> EvalContext {
    let arch = Architecture::broadwell();
    let compiler = Compiler::icc(arch.target);
    let w = workload_by_name(bench).expect("bench exists");
    let ir = w.instantiate(w.tuning_input(arch.name));
    let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, 3, seed);
    EvalContext::new(
        outlined.ir,
        Compiler::icc(arch.target),
        arch,
        3,
        seed ^ 0x99,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The CFR pruned space grows monotonically with X: top-4 ⊂ top-8.
    #[test]
    fn pruning_is_monotone_in_x(seed in 0u64..1000) {
        let ctx = bdw_ctx("swim", seed % 7);
        let data = collect(&ctx, 30, seed);
        for j in 0..ctx.modules() {
            let small = data.top_x(j, 4);
            let big = data.top_x(j, 8);
            prop_assert_eq!(&big[..4], small.as_slice());
        }
    }

    /// Independent sum never exceeds the best uniform end-to-end time.
    #[test]
    fn independent_bound(seed in 0u64..1000) {
        let ctx = bdw_ctx("bwaves", seed % 5);
        let data = collect(&ctx, 25, seed);
        let best = data.end_to_end.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(data.independent_sum() <= best + 1e-9);
    }

    /// Any valid assignment executes to a positive, finite time, and
    /// uniform assignments incur zero link heterogeneity.
    #[test]
    fn any_assignment_is_executable(seed in 0u64..10_000) {
        let ctx = bdw_ctx("swim", 3);
        let mut rng = funcytuner::flags::rng::rng_for(seed, "prop-assign");
        let assignment: Vec<Cv> =
            (0..ctx.modules()).map(|_| ctx.space().sample(&mut rng)).collect();
        let t = ctx.measure(&assignment, seed).total_s;
        prop_assert!(t.is_finite() && t > 0.0);

        let cv = ctx.space().sample(&mut rng);
        let objects = ctx.compiler.compile_program(&ctx.ir, &cv);
        let linked = link(objects, &ctx.ir, &ctx.arch);
        prop_assert_eq!(linked.heterogeneity, 0.0);
        prop_assert!(linked.overrides.is_empty());
    }

    /// Measurement noise is multiplicative and small: across seeds the
    /// same executable varies by well under the tuning gains.
    #[test]
    fn noise_is_bounded(seed in 0u64..10_000) {
        let ctx = bdw_ctx("swim", 3);
        let o3 = vec![ctx.space().baseline(); ctx.modules()];
        let a = ctx.measure(&o3, seed).total_s;
        let b = ctx.measure(&o3, seed ^ 0xFFFF).total_s;
        let rel = (a - b).abs() / a;
        prop_assert!(rel < 0.04, "noise {rel}");
    }

    /// Outlining preserves every hot loop's identity and folds the
    /// rest: J + 1 modules, dense ids, non-loop last.
    #[test]
    fn outlining_shape(seed in 0u64..1000, bench_idx in 0usize..7) {
        let arch = Architecture::broadwell();
        let compiler = Compiler::icc(arch.target);
        let w = &suite()[bench_idx];
        let ir = w.instantiate(w.tuning_input(arch.name));
        let (outlined, report) = outline_with_defaults(&ir, &compiler, &arch, 3, seed);
        prop_assert_eq!(outlined.ir.len(), outlined.j + 1);
        prop_assert!(outlined.ir.modules.last().unwrap().features().is_none());
        prop_assert_eq!(outlined.j, report.hot.len());
        for (i, m) in outlined.ir.modules.iter().enumerate() {
            prop_assert_eq!(m.id, i);
        }
    }

    /// Scheduling is unobservable: for any (seed, budget, fault-rate)
    /// the serial and overlapped campaigns serialize to the same
    /// canonical bytes — every float compared by bit pattern.
    #[test]
    fn overlapped_schedule_is_byte_equal_to_serial(
        seed in 0u64..10_000,
        budget in 20usize..60,
        fault_scale in 0u32..3,
    ) {
        let arch = Architecture::broadwell();
        let w = workload_by_name("swim").expect("swim in suite");
        // fault_scale 0 is the clean campaign; 1 and 2 scale the
        // testbed rates up, so quarantine traffic grows with it.
        let faults = funcytuner::compiler::FaultModel::with_rates(
            0xFA17 ^ seed,
            0.02 * fault_scale as f64,
            0.02 * fault_scale as f64,
            0.01 * fault_scale as f64,
            0.05 * fault_scale as f64,
        );
        let campaign = |mode: ScheduleMode| {
            Tuner::new(&w, &arch)
                .budget(budget)
                .focus(6)
                .seed(seed)
                .cap_steps(3)
                .faults(faults)
                .schedule(mode)
                .run()
        };
        let serial = campaign(ScheduleMode::Serial);
        let overlapped = campaign(ScheduleMode::Overlapped);
        prop_assert_eq!(serial.canonical_digest(), overlapped.canonical_digest());
        prop_assert_eq!(serial.canonical_bytes(), overlapped.canonical_bytes());
    }

    /// The fault ledger balances under either schedule: every charged
    /// run is exactly one of ok/crash/timeout, and concurrent phase
    /// threads never lose or double-count an increment.
    #[test]
    fn fault_ledger_balances_under_overlap(
        seed in 0u64..10_000,
        budget in 20usize..50,
    ) {
        let arch = Architecture::broadwell();
        let w = workload_by_name("swim").expect("swim in suite");
        let run = Tuner::new(&w, &arch)
            .budget(budget)
            .focus(6)
            .seed(seed)
            .cap_steps(3)
            .faults(funcytuner::compiler::FaultModel::testbed(seed ^ 0xFA17))
            .overlap_phases()
            .interleave(seed)
            .run();
        let cost = run.ctx.cost();
        let stats = run.ctx.fault_stats();
        prop_assert_eq!(cost.runs, stats.charged_runs());
        // Merging two ledgers (the DAG-join operation) preserves the
        // balance and commutes.
        let merged = cost.merge(&cost);
        let mstats = stats.merge(&stats);
        prop_assert_eq!(merged.runs, mstats.charged_runs());
    }

    /// The cache ledger balances for any (seed, fault rate, capacity,
    /// schedule): every compile is a cache miss and every lookup is
    /// exactly one of hit/miss — eviction churn and single-flight
    /// dedup included.
    #[test]
    fn cache_ledger_balances_for_any_capacity(
        seed in 0u64..10_000,
        budget in 20usize..50,
        fault_scale in 0u32..3,
        capacity in 0u64..24, // 0 = unbounded
        overlap in proptest::prop::bool::ANY,
    ) {
        let arch = Architecture::broadwell();
        let w = workload_by_name("swim").expect("swim in suite");
        let faults = funcytuner::compiler::FaultModel::with_rates(
            0xCAC4E ^ seed,
            0.02 * fault_scale as f64,
            0.02 * fault_scale as f64,
            0.01 * fault_scale as f64,
            0.05 * fault_scale as f64,
        );
        let cap = match capacity {
            0 => CacheCapacity::Unbounded,
            n => CacheCapacity::Entries(n as usize),
        };
        let mode = if overlap { ScheduleMode::Overlapped } else { ScheduleMode::Serial };
        // A store the test owns, so its independently counted lookups,
        // hits, misses and computes can be held against the ledger.
        let store = std::sync::Arc::new(ObjectStore::with_capacity(cap));
        let run = Tuner::new(&w, &arch)
            .budget(budget)
            .focus(6)
            .seed(seed)
            .cap_steps(3)
            .faults(faults)
            .schedule(mode)
            .shared_store(store.clone())
            .run();
        let (o, l) = (store.object_stats(), store.link_stats());
        // compiles == cache misses, in both the store and the cost
        // ledger the overhead table prints.
        prop_assert_eq!(o.computes, o.misses);
        prop_assert_eq!(l.computes, l.misses);
        let cost = run.ctx.cost();
        prop_assert_eq!(cost.object_compiles, o.computes);
        prop_assert_eq!(cost.links, l.computes);
        // hits + misses == lookups, at both layers.
        prop_assert_eq!(o.hits + o.misses, o.lookups);
        prop_assert_eq!(l.hits + l.misses, l.lookups);
        // Only bounded runs may evict.
        if capacity == 0 {
            prop_assert_eq!(cost.object_evictions, 0);
            prop_assert_eq!(cost.link_evictions, 0);
        }
    }

    /// Speedups are invariant to the (deterministic) run ordering:
    /// evaluating the same CV twice in a context gives identical times.
    #[test]
    fn evaluation_is_pure(seed in 0u64..10_000) {
        let ctx = bdw_ctx("AMG", 1);
        let cv = ctx.space().sample(&mut funcytuner::flags::rng::rng_for(seed, "pure"));
        let uniform = vec![cv; ctx.modules()];
        prop_assert_eq!(
            ctx.measure(&uniform, seed).total_s,
            ctx.measure(&uniform, seed).total_s
        );
    }
}
