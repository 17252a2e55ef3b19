//! Objective-layer overhead: what threading a first-class `Objective`
//! through the search substrate costs, and what a Pareto campaign
//! pays over a plain time campaign.
//!
//! The layer's claim is *zero cost under the paper's objective*: under
//! `Objective::Time` every comparison routes through the same
//! time-scalar `argmin_finite`, the canonical encoding is unchanged,
//! and the only addition is carrying `code_bytes` alongside each time
//! — a value every linked program already carries as its modeled
//! `code_bytes()`.
//! The bench gates on byte-identity of the implicit-default and
//! explicit-`Time` campaigns before timing anything, then times:
//!
//! * `campaign/time` vs `campaign/pareto` — the same campaign under
//!   both objectives (the delta prices front bookkeeping plus the
//!   off-`Time` canonical extension).
//! * `front/n` — the raw O(n²) `pareto_front` sweep at history sizes
//!   bracketing real campaigns (K = 60 smoke … 1000 paper protocol).
//!
//! `FT_BENCH_SMOKE=1` drops K so CI can run the gate end to end; the
//! priced numbers live in `results/pareto_bench.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use ft_core::{pareto_front, Objective, Score, Tuner, TuningRun};
use ft_machine::Architecture;
use ft_workloads::{workload_by_name, Workload};

fn k() -> usize {
    if std::env::var_os("FT_BENCH_SMOKE").is_some() {
        120
    } else {
        1000
    }
}

const STEPS: u32 = 4;

fn campaign(w: &Workload, arch: &Architecture, k: usize, objective: Objective) -> TuningRun {
    Tuner::new(w, arch)
        .budget(k)
        .focus(if k >= 1000 { 32 } else { 8 })
        .seed(42)
        .cap_steps(STEPS)
        .objective(objective)
        .run()
}

/// A synthetic score history: coarse-grid times and sizes (so
/// dominance actually prunes) with the testbed's ~6% fault rate as
/// `+inf` entries.
fn scores(n: usize) -> Vec<Score> {
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            if next() % 16 == 0 {
                Score::faulted()
            } else {
                Score::new(
                    1.0 + (next() % 512) as f64 / 64.0,
                    1e4 + (next() % 512) as f64 * 64.0,
                )
            }
        })
        .collect()
}

fn pareto_front_benches(c: &mut Criterion) {
    let arch = Architecture::broadwell();
    let w = workload_by_name("CloverLeaf").expect("CloverLeaf in suite");
    let k = k();

    // Gate 1: the objective layer must not move the Time campaign's
    // bytes — implicit default and explicit Time are one campaign.
    let implicit = Tuner::new(&w, &arch)
        .budget(k)
        .focus(if k >= 1000 { 32 } else { 8 })
        .seed(42)
        .cap_steps(STEPS)
        .run();
    let explicit = campaign(&w, &arch, k, Objective::Time);
    assert_eq!(
        implicit.canonical_bytes(),
        explicit.canonical_bytes(),
        "explicit Objective::Time diverged from the default — bench is invalid"
    );
    // Gate 2: the Pareto campaign reports a real front and its head is
    // the reported (time-fastest) winner.
    let pareto = campaign(&w, &arch, k, Objective::Pareto);
    assert!(
        !pareto.cfr.front.is_empty(),
        "Pareto campaign reported no front — bench is invalid"
    );
    assert_eq!(
        pareto.cfr.front[0].time.to_bits(),
        pareto.cfr.best_time.to_bits(),
        "front head must be the reported winner"
    );
    println!(
        "pareto/K{k}: time digest {:016x}, front {} points over {} evaluations",
        implicit.canonical_digest(),
        pareto.cfr.front.len(),
        pareto.cfr.evaluations
    );

    let mut g = c.benchmark_group(format!("pareto_front/campaign/K{k}"));
    g.sample_size(10);
    g.bench_function("time", |b| {
        b.iter(|| campaign(&w, &arch, k, Objective::Time))
    });
    g.bench_function("pareto", |b| {
        b.iter(|| campaign(&w, &arch, k, Objective::Pareto))
    });
    g.finish();

    let mut g = c.benchmark_group("pareto_front/front");
    for n in [64usize, 256, 1024] {
        let s = scores(n);
        g.bench_function(format!("n{n}"), |b| {
            b.iter(|| pareto_front(std::hint::black_box(&s)))
        });
    }
    g.finish();
}

criterion_group!(benches, pareto_front_benches);
criterion_main!(benches);
