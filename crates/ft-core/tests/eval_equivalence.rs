//! Equivalence of `EvalContext::evaluate`'s one route to independent
//! references.
//!
//! Every batch takes one route under any fault model: a fault gate in
//! proposal order, the lane-oriented batch executor, and a per-lane
//! fault outcome. This suite drives batches through `SearchDriver`
//! on a context whose baseline is already measured (so hangs are
//! charged the timeout budget) and holds the result to a reference on
//! a fresh context, bit for bit on every score, on the winner and on
//! every counter of `FaultStats` and `TuningCost`:
//!
//! - on a zero-fault context, to `measure(..)` per proposal and to the
//!   bare toolchain, `compile_mixed → link → execute_total`, which
//!   never touches the context's object store or link plan;
//! - under a fault model, to the sequential funnel in `funnel/`: gates,
//!   a scalar `try_execute` loop with retries, and quarantine bans, one
//!   proposal after another. Fixtures cover a mixed multi-round corpus,
//!   a hanging program duplicated inside one batch, and crash retries.
//!
//! The strategy-pinning goldens hold the route to the pre-batch
//! constants on top of this.

mod funnel;

use ft_compiler::{Compiler, FaultModel};
use ft_core::{
    argmin_finite, Candidate, EvalContext, History, Proposal, SearchDriver, SearchStrategy,
};
use ft_flags::rng::{derive_seed_idx, rng_for};
use ft_flags::{Cv, CvPool, FlagSpace};
use ft_machine::{execute_total, link, Architecture, ExecOptions};
use ft_outline::outline_with_defaults;
use ft_workloads::workload_by_name;
use funnel::{Funnel, Ledger};

fn ctx(faults: Option<FaultModel>) -> EvalContext {
    let arch = Architecture::broadwell();
    let compiler = Compiler::icc(arch.target);
    let w = workload_by_name("swim").expect("swim in suite");
    let ir = w.instantiate(w.tuning_input(arch.name));
    let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, 5, 11);
    let ctx = EvalContext::new(outlined.ir, Compiler::icc(arch.target), arch, 5, 99);
    match faults {
        Some(f) => ctx.with_faults(f),
        None => ctx,
    }
}

fn space() -> FlagSpace {
    Compiler::icc(Architecture::broadwell().target)
        .space()
        .clone()
}

/// One proposal as the references see it: owned CVs (one per module),
/// whether it was uniform, and its noise seed.
#[derive(Clone)]
struct Recorded {
    assignment: Vec<Cv>,
    uniform: bool,
    seed: u64,
}

impl Recorded {
    fn uniform(cv: &Cv, modules: usize, seed: u64) -> Self {
        Recorded {
            assignment: vec![cv.clone(); modules],
            uniform: true,
            seed,
        }
    }
}

/// Three rounds of 70 mixing uniform and per-loop candidates: enough
/// to cross the route's 64-lane chunk boundary and to hit the link
/// cache with duplicates.
fn mixed_rounds(modules: usize) -> Vec<Vec<Recorded>> {
    let space = space();
    (0..3u64)
        .map(|round| {
            let mut rng = rng_for(7 + round, "mode-eq");
            (0..70u64)
                .map(|k| {
                    let seed = derive_seed_idx(0xE0_0E ^ round, k);
                    match k % 3 {
                        0 => Recorded::uniform(&space.sample(&mut rng), modules, seed),
                        // Duplicate an earlier uniform CV under a new seed.
                        1 => Recorded::uniform(&space.baseline(), modules, seed),
                        _ => Recorded {
                            assignment: (0..modules).map(|_| space.sample(&mut rng)).collect(),
                            uniform: false,
                            seed,
                        },
                    }
                })
                .collect()
        })
        .collect()
}

/// Replays fixed batches through `SearchDriver`, one `evaluate`
/// call per batch.
struct Scripted {
    batches: Vec<Vec<Recorded>>,
    next: usize,
}

impl SearchStrategy for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }

    fn propose(&mut self, pool: &CvPool, _history: &History) -> Vec<Proposal> {
        let Some(batch) = self.batches.get(self.next) else {
            return Vec::new();
        };
        self.next += 1;
        batch
            .iter()
            .map(|r| {
                let candidate = if r.uniform {
                    Candidate::Uniform(pool.intern(&r.assignment[0]))
                } else {
                    Candidate::PerLoop(pool.intern_all(&r.assignment))
                };
                Proposal::new(candidate, r.seed)
            })
            .collect()
    }
}

/// What a run exposes for comparison: every score (time and code-byte
/// bits), the winner, and the ledger of the batches.
#[derive(Debug, PartialEq)]
struct Outcome {
    scores: Vec<(u64, u64)>,
    winner: (usize, u64),
    ledger: Ledger,
}

impl Outcome {
    fn new(scores: Vec<(f64, f64)>, ledger: Ledger) -> Self {
        let times: Vec<f64> = scores.iter().map(|s| s.0).collect();
        let (i, t) = argmin_finite(&times);
        Outcome {
            scores: scores
                .iter()
                .map(|(t, b)| (t.to_bits(), b.to_bits()))
                .collect(),
            winner: (i, t.to_bits()),
            ledger,
        }
    }
}

/// Drives `batches` through `SearchDriver` after measuring the
/// baseline (which sets the timeout budget and leaves the baseline
/// linked in the store).
fn driven(ctx: &EvalContext, batches: &[Vec<Recorded>]) -> Outcome {
    let _ = ctx.baseline_time(10);
    let before = Ledger::of(ctx);
    let mut strategy = Scripted {
        batches: batches.to_vec(),
        next: 0,
    };
    let result = SearchDriver::new(ctx).run(&mut strategy);
    let scores = result.scores.iter().map(|s| (s.time, s.code_bytes));
    let outcome = Outcome::new(scores.collect(), Ledger::of(ctx).since(&before));
    assert_eq!(
        outcome.winner,
        (result.best_index, result.best_time.to_bits()),
        "SearchDriver's winner is the timeline's argmin"
    );
    outcome
}

/// The sequential funnel over a fresh context whose baseline is
/// already measured, proposal by proposal in batch order.
fn funnel_reference(ctx: &EvalContext, batches: &[Vec<Recorded>]) -> Outcome {
    let _ = ctx.baseline_time(10);
    let mut funnel = Funnel::new(ctx, false);
    funnel.linked_before(&vec![ctx.space().baseline(); ctx.modules()]);
    let scores = batches
        .iter()
        .flatten()
        .map(|r| match funnel.run(&r.assignment, r.seed) {
            Some((meas, code_bytes)) => (meas.total_s, code_bytes),
            None => (f64::INFINITY, f64::INFINITY),
        })
        .collect();
    Outcome::new(scores, funnel.ledger)
}

fn assert_same(got: &Outcome, want: &Outcome, label: &str) {
    assert_eq!(got.scores.len(), want.scores.len(), "{label}");
    for (k, (g, w)) in got.scores.iter().zip(&want.scores).enumerate() {
        assert_eq!(
            g,
            w,
            "{label}: candidate {k}: time {} vs {}",
            f64::from_bits(g.0),
            f64::from_bits(w.0)
        );
    }
    assert_eq!(got.winner, want.winner, "{label}: winner");
    assert_eq!(got.ledger, want.ledger, "{label}: ledger");
}

/// Holds a faulted context's driven batches to the funnel reference.
fn assert_faulted_matches_funnel(faults: FaultModel, batches: &[Vec<Recorded>]) -> Outcome {
    let got = driven(&ctx(Some(faults)), batches);
    let want = funnel_reference(&ctx(Some(faults)), batches);
    assert_same(&got, &want, "faulted");
    got
}

#[test]
fn batched_route_matches_measure_per_proposal() {
    let batched = ctx(None);
    assert!(batched.faults().is_zero());
    let batches = mixed_rounds(batched.modules());
    let got = driven(&batched, &batches);
    assert_eq!(got.scores.len(), 210);

    // `measure` per proposal charges the same store lookups and runs.
    let by_measure = ctx(None);
    let _ = by_measure.baseline_time(10);
    let before = Ledger::of(&by_measure);
    let times: Vec<f64> = batches
        .iter()
        .flatten()
        .map(|r| by_measure.measure(&r.assignment, r.seed).total_s)
        .collect();
    let ledger = Ledger::of(&by_measure).since(&before);
    assert_eq!(got.ledger, ledger, "measure ledger");
    for (k, (g, t)) in got.scores.iter().zip(&times).enumerate() {
        assert_eq!(g.0, t.to_bits(), "candidate {k}: measure time");
    }

    // The bare toolchain charges no ledger, so it pins times and the
    // winner only.
    let bare = ctx(None);
    let times: Vec<f64> = batches
        .iter()
        .flatten()
        .map(|r| {
            let objects = bare.compiler.compile_mixed(&bare.ir, &r.assignment);
            let linked = link(objects, &bare.ir, &bare.arch);
            execute_total(&linked, &bare.arch, &ExecOptions::new(bare.steps, r.seed))
        })
        .collect();
    for (k, (g, t)) in got.scores.iter().zip(&times).enumerate() {
        assert_eq!(g.0, t.to_bits(), "candidate {k}: storeless time");
    }
    let (i, t) = argmin_finite(&times);
    assert_eq!(got.winner, (i, t.to_bits()), "storeless winner");

    // With no faults the funnel is plain compile → link → execute.
    assert_same(&got, &funnel_reference(&ctx(None), &batches), "zero-fault");
}

#[test]
fn faulted_context_matches_per_proposal_evaluation() {
    let faults = FaultModel::with_rates(0xFA17, 0.04, 0.02, 0.01, 0.02);
    let batches = mixed_rounds(ctx(None).modules());
    let got = assert_faulted_matches_funnel(faults, &batches);
    let cost = got.ledger.cost;
    assert!(
        cost.compile_failures > 0 && cost.crashes > 0,
        "fixture must ICE and crash: {cost:?}"
    );
}

#[test]
fn a_hanging_program_duplicated_in_one_batch_runs_once() {
    // A uniform program that hangs, proposed three times in one batch
    // between healthy candidates: the first copy is linked, killed at
    // its budget and quarantined; the later copies are skipped.
    let faults = FaultModel::with_rates(0x4A6, 0.0, 0.0, 0.3, 0.0);
    let modules = ctx(None).modules();
    let space = space();
    let mut rng = rng_for(5, "hang-dup");
    let hangs = |cv: &Cv| {
        let digests = vec![cv.digest(); modules];
        faults.hangs(FaultModel::program_fingerprint(&digests))
    };
    let cvs = space.sample_many(64, &mut rng);
    let hanging = cvs.iter().find(|cv| hangs(cv)).expect("a hanging CV");
    let healthy: Vec<&Cv> = cvs.iter().filter(|cv| !hangs(cv)).take(6).collect();
    let mut batch = Vec::new();
    for (k, cv) in healthy.iter().enumerate() {
        batch.push(Recorded::uniform(cv, modules, 100 + k as u64));
        if k % 2 == 0 {
            batch.push(Recorded::uniform(hanging, modules, 200 + k as u64));
        }
    }
    let got = assert_faulted_matches_funnel(faults, &[batch]);
    let cost = got.ledger.cost;
    assert_eq!((cost.timeouts, cost.quarantined), (1, 2), "{cost:?}");
    assert_eq!(got.ledger.ok_runs, 6, "{:?}", got.ledger);
    assert_eq!(cost.runs, 7, "the hang is charged one run");
}

#[test]
fn crash_retries_match_the_sequential_funnel() {
    // At a 0.5 crash rate some candidates crash and recover on a retry
    // and some crash on every attempt; a 0.2 outlier rate inflates
    // some of the runs that complete.
    let faults = FaultModel::with_rates(0xC4A5, 0.0, 0.5, 0.0, 0.2);
    let modules = ctx(None).modules();
    let space = space();
    let mut rng = rng_for(9, "crash-retries");
    let batches: Vec<Vec<Recorded>> = (0..2u64)
        .map(|round| {
            (0..40u64)
                .map(|k| {
                    let seed = derive_seed_idx(0xC4 ^ round, k);
                    Recorded::uniform(&space.sample(&mut rng), modules, seed)
                })
                .collect()
        })
        .collect();
    let got = assert_faulted_matches_funnel(faults, &batches);
    let cost = got.ledger.cost;
    let max_retries = u64::from(ctx(None).resilience().max_retries);
    assert!(cost.retries > 0, "{cost:?}");
    assert!(
        cost.crashes > cost.retries,
        "some candidate must exhaust its {max_retries} retries: {cost:?}"
    );
    assert!(
        got.scores.iter().any(|s| f64::from_bits(s.0).is_finite()),
        "some candidate must recover"
    );
}
