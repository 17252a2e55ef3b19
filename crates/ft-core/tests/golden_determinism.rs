//! Golden-value determinism lock for the batched evaluation engine.
//!
//! The engine work (sharded object cache, CV interning, link
//! memoization, baseline memoization) must be invisible in results:
//! for a fixed seed, `Tuner::run` has to produce bit-for-bit the same
//! measurements as the pre-engine implementation. The constants below
//! were captured from that implementation (same workload, seed, and
//! budget); any drift in the evaluation semantics fails loudly here.

use ft_core::Tuner;
use ft_machine::Architecture;
use ft_workloads::workload_by_name;

fn digest_assignment(cvs: &[ft_flags::Cv]) -> u64 {
    let mut h = 0u64;
    for cv in cvs {
        h = ft_flags::rng::mix(h ^ cv.digest());
    }
    h
}

#[test]
fn tuner_run_matches_pre_engine_golden_values() {
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");
    let run = Tuner::new(&w, &arch)
        .budget(60)
        .focus(8)
        .seed(42)
        .cap_steps(5)
        .run();

    // Captured from the pre-engine implementation (commit before the
    // batched-evaluation engine), seed 42, swim/Broadwell, K=60, X=8,
    // 5 steps.
    let golden: &[(&str, f64, u64)] = &[
        ("baseline", GOLDEN_BASELINE, 0),
        ("random", GOLDEN_RANDOM, GOLDEN_RANDOM_ASSIGN),
        ("fr", GOLDEN_FR, GOLDEN_FR_ASSIGN),
        ("greedy", GOLDEN_GREEDY, GOLDEN_GREEDY_ASSIGN),
        ("cfr", GOLDEN_CFR, GOLDEN_CFR_ASSIGN),
    ];
    let actual: &[(&str, f64, u64)] = &[
        ("baseline", run.baseline_time, 0),
        (
            "random",
            run.random.best_time,
            digest_assignment(&run.random.assignment),
        ),
        (
            "fr",
            run.fr.best_time,
            digest_assignment(&run.fr.assignment),
        ),
        (
            "greedy",
            run.greedy.realized.best_time,
            digest_assignment(&run.greedy.realized.assignment),
        ),
        (
            "cfr",
            run.cfr.best_time,
            digest_assignment(&run.cfr.assignment),
        ),
    ];
    for (name, at, aa) in actual {
        println!(
            "{name}: time_bits=0x{:016X} assign=0x{aa:016X}",
            at.to_bits()
        );
    }
    for ((name, gt, ga), (_, at, aa)) in golden.iter().zip(actual) {
        assert_eq!(
            gt.to_bits(),
            at.to_bits(),
            "{name} best_time drifted: golden {gt:?} vs actual {at:?}"
        );
        assert_eq!(ga, aa, "{name} assignment drifted");
    }
}

#[test]
fn explicit_zero_fault_model_changes_nothing() {
    // Installing an all-zero fault model (with whatever fault seed)
    // must route every evaluation through the exact pre-fault code
    // paths: same golden values, bit for bit.
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");
    let run = Tuner::new(&w, &arch)
        .budget(60)
        .focus(8)
        .seed(42)
        .cap_steps(5)
        .faults(ft_compiler::FaultModel::with_rates(
            0xFA17, 0.0, 0.0, 0.0, 0.0,
        ))
        .run();
    assert_eq!(run.baseline_time.to_bits(), GOLDEN_BASELINE.to_bits());
    assert_eq!(run.random.best_time.to_bits(), GOLDEN_RANDOM.to_bits());
    assert_eq!(
        digest_assignment(&run.random.assignment),
        GOLDEN_RANDOM_ASSIGN
    );
    assert_eq!(run.fr.best_time.to_bits(), GOLDEN_FR.to_bits());
    assert_eq!(digest_assignment(&run.fr.assignment), GOLDEN_FR_ASSIGN);
    assert_eq!(
        run.greedy.realized.best_time.to_bits(),
        GOLDEN_GREEDY.to_bits()
    );
    assert_eq!(
        digest_assignment(&run.greedy.realized.assignment),
        GOLDEN_GREEDY_ASSIGN
    );
    assert_eq!(run.cfr.best_time.to_bits(), GOLDEN_CFR.to_bits());
    assert_eq!(digest_assignment(&run.cfr.assignment), GOLDEN_CFR_ASSIGN);
    // And the fault ledger stays empty.
    let stats = run.ctx.fault_stats();
    assert_eq!(
        (
            stats.compile_failures,
            stats.crashes,
            stats.timeouts,
            stats.retries,
            stats.quarantined
        ),
        (0, 0, 0, 0, 0)
    );
}

#[test]
fn overlapped_scheduler_matches_the_same_golden_values() {
    // The phase scheduler may run {Collect ∥ Random ∥ FR} and then
    // {Greedy ∥ CFR} concurrently; every phase keeps its independent
    // derived seed, so the overlapped campaign must pin to the *same*
    // pre-engine golden constants as the serial one — and to the same
    // canonical digest, byte for byte.
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");
    let run = Tuner::new(&w, &arch)
        .budget(60)
        .focus(8)
        .seed(42)
        .cap_steps(5)
        .overlap_phases()
        .run();
    assert_eq!(run.baseline_time.to_bits(), GOLDEN_BASELINE.to_bits());
    assert_eq!(run.random.best_time.to_bits(), GOLDEN_RANDOM.to_bits());
    assert_eq!(
        digest_assignment(&run.random.assignment),
        GOLDEN_RANDOM_ASSIGN
    );
    assert_eq!(run.fr.best_time.to_bits(), GOLDEN_FR.to_bits());
    assert_eq!(digest_assignment(&run.fr.assignment), GOLDEN_FR_ASSIGN);
    assert_eq!(
        run.greedy.realized.best_time.to_bits(),
        GOLDEN_GREEDY.to_bits()
    );
    assert_eq!(
        digest_assignment(&run.greedy.realized.assignment),
        GOLDEN_GREEDY_ASSIGN
    );
    assert_eq!(run.cfr.best_time.to_bits(), GOLDEN_CFR.to_bits());
    assert_eq!(digest_assignment(&run.cfr.assignment), GOLDEN_CFR_ASSIGN);
    assert_eq!(run.canonical_digest(), GOLDEN_CANONICAL_DIGEST);
}

#[test]
fn canonical_digest_is_pinned_in_both_schedules() {
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");
    let serial = Tuner::new(&w, &arch)
        .budget(60)
        .focus(8)
        .seed(42)
        .cap_steps(5)
        .run();
    println!("canonical digest: 0x{:016X}", serial.canonical_digest());
    assert_eq!(serial.canonical_digest(), GOLDEN_CANONICAL_DIGEST);
}

#[test]
fn bounded_caches_pin_the_same_canonical_digest() {
    // Eviction pressure must be invisible in results: capacity-1
    // caches recompute constantly but land on the exact pre-engine
    // digest. (The broader randomized sweep lives in the
    // cache_equivalence suite; this locks the golden point.)
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");
    for capacity in [
        ft_compiler::CacheCapacity::Entries(1),
        ft_compiler::CacheCapacity::Entries(7),
    ] {
        let run = Tuner::new(&w, &arch)
            .budget(60)
            .focus(8)
            .seed(42)
            .cap_steps(5)
            .cache_capacity(capacity)
            .run();
        assert_eq!(
            run.canonical_digest(),
            GOLDEN_CANONICAL_DIGEST,
            "digest drifted under {capacity:?}"
        );
        let cost = run.ctx.cost();
        assert!(
            cost.object_evictions > 0,
            "{capacity:?} should evict under a 60-sample campaign: {cost:?}"
        );
    }
}

#[test]
fn shared_store_pins_the_same_canonical_digest() {
    // Borrowing a process-wide object store — cold or pre-warmed by a
    // previous campaign — must also land exactly on the golden digest.
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");
    let store = std::sync::Arc::new(ft_core::ObjectStore::new());
    for round in 0..2 {
        let run = Tuner::new(&w, &arch)
            .budget(60)
            .focus(8)
            .seed(42)
            .cap_steps(5)
            .shared_store(store.clone())
            .run();
        assert_eq!(
            run.canonical_digest(),
            GOLDEN_CANONICAL_DIGEST,
            "digest drifted on store round {round}"
        );
    }
    // The second campaign compiled and linked nothing of its own.
    let o = store.object_stats();
    assert!(o.hits > 0, "warm store must serve hits: {o:?}");
}

// Exact bit patterns, not decimal literals, so the comparison is
// immune to any formatting round-trip.
const GOLDEN_BASELINE: f64 = f64::from_bits(0x400235359DF58198);
const GOLDEN_RANDOM: f64 = f64::from_bits(0x4001176F3A8A4DEC);
const GOLDEN_RANDOM_ASSIGN: u64 = 0x76328104B3C244E1;
const GOLDEN_FR: f64 = f64::from_bits(0x4003AC1A20976770);
const GOLDEN_FR_ASSIGN: u64 = 0xCE2B3BD91428DA5A;
const GOLDEN_GREEDY: f64 = f64::from_bits(0x4000FE8274DF903A);
const GOLDEN_GREEDY_ASSIGN: u64 = 0x875BEEB981F2413F;
const GOLDEN_CFR: f64 = f64::from_bits(0x4000CFA4D821A770);
const GOLDEN_CFR_ASSIGN: u64 = 0x6D05C51AE183C602;
// Digest of the full canonical `TuningRun` encoding (every float by
// bit pattern); both schedules must land exactly here.
const GOLDEN_CANONICAL_DIGEST: u64 = 0xEC2662A181C112F2;
