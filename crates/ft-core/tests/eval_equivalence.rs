//! Equivalence of the routes behind `EvalContext::evaluate`.
//!
//! `evaluate` picks its route from the fault model alone: a zero-fault
//! context runs the lane-oriented batch executor, while a faulted
//! context takes the per-candidate resilient funnel. Each route is pinned here to an independent reference on a
//! fresh context: the batched route to `measure(..).total_s` per
//! proposal, the funnel to evaluating every proposal on its own. Both
//! must agree bit for bit on every candidate time, on the winner, on
//! the ledger's run count. The batched route is also pinned to the bare
//! toolchain, `compile_mixed → link → execute_total`, which never
//! touches the context's object store or link plan. The strategy-pinning
//! goldens hold the routes to the pre-batch constants on top of this.

use ft_compiler::{Compiler, FaultModel};
use ft_core::{
    argmin_finite, Candidate, EvalContext, History, Proposal, SearchDriver, SearchStrategy,
};
use ft_flags::rng::{derive_seed_idx, rng_for};
use ft_flags::{Cv, CvPool};
use ft_machine::{execute_total, link, Architecture, ExecOptions};
use ft_outline::outline_with_defaults;
use ft_workloads::workload_by_name;

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

/// One proposal as the reference sees it: owned CVs (one per module),
/// whether it was uniform, and its noise seed.
struct Recorded {
    assignment: Vec<Cv>,
    uniform: bool,
    seed: u64,
}

/// Three rounds mixing uniform and per-loop candidates — enough to
/// cross the batch route's 64-lane chunk boundary and to hit the link
/// cache with duplicates. Every proposal is recorded for the reference.
struct MixedRounds {
    round: usize,
    modules: usize,
    recorded: Vec<Recorded>,
}

impl SearchStrategy for MixedRounds {
    fn name(&self) -> &str {
        "mixed-rounds"
    }

    fn propose(&mut self, pool: &CvPool, _history: &History) -> Vec<Proposal> {
        if self.round == 3 {
            return Vec::new();
        }
        let mut rng = rng_for(7 + self.round as u64, "mode-eq");
        let space = Compiler::icc(Architecture::broadwell().target)
            .space()
            .clone();
        let mut proposals = Vec::new();
        for k in 0..70usize {
            let noise = derive_seed_idx(0xE0_0E ^ self.round as u64, k as u64);
            let candidate = if k % 3 == 0 {
                Candidate::Uniform(pool.intern(&space.sample(&mut rng)))
            } else if k % 3 == 1 {
                // Duplicate an earlier uniform CV under a new seed.
                Candidate::Uniform(pool.intern(&space.baseline()))
            } else {
                Candidate::PerLoop(
                    (0..self.modules)
                        .map(|_| pool.intern(&space.sample(&mut rng)))
                        .collect(),
                )
            };
            let (assignment, uniform) = match &candidate {
                Candidate::Uniform(id) => (vec![(*pool.get(*id)).clone(); self.modules], true),
                Candidate::PerLoop(ids) => (pool.materialize(ids), false),
            };
            self.recorded.push(Recorded {
                assignment,
                uniform,
                seed: noise,
            });
            proposals.push(Proposal::new(candidate, noise));
        }
        self.round += 1;
        proposals
    }
}

/// What a run exposes for comparison: every candidate time, the
/// winner, and the ledger's runs.
#[derive(Debug)]
struct Outcome {
    times: Vec<f64>,
    winner: (usize, u64),
    runs: u64,
}

/// Drives [`MixedRounds`] through the search driver (one `evaluate`
/// call per round) and returns the outcome plus the recorded proposals.
fn driven(ctx: &EvalContext) -> (Outcome, Vec<Recorded>) {
    let mut strategy = MixedRounds {
        round: 0,
        modules: ctx.modules(),
        recorded: Vec::new(),
    };
    let result = SearchDriver::new(ctx).run(&mut strategy);
    let times: Vec<f64> = result.scores.iter().map(|s| s.time).collect();
    let outcome = Outcome {
        times,
        winner: (result.best_index, result.best_time.to_bits()),
        runs: ctx.cost().runs,
    };
    (outcome, strategy.recorded)
}

/// The reference run on a fresh context: `time_of` measures each
/// recorded proposal on its own, in order. The driver's default finish
/// measures the 10-repeat baseline, so the reference does too.
fn reference(
    ctx: &EvalContext,
    recorded: &[Recorded],
    time_of: impl Fn(&EvalContext, &Recorded) -> f64,
) -> Outcome {
    let times: Vec<f64> = recorded.iter().map(|r| time_of(ctx, r)).collect();
    let _ = ctx.baseline_time(10);
    let (i, t) = argmin_finite(&times);
    Outcome {
        times,
        winner: (i, t.to_bits()),
        runs: ctx.cost().runs,
    }
}

/// One recorded proposal through `evaluate` alone, interned afresh.
fn evaluate_alone(ctx: &EvalContext, r: &Recorded) -> f64 {
    let pool = CvPool::new();
    let candidate = if r.uniform {
        Candidate::Uniform(pool.intern(&r.assignment[0]))
    } else {
        Candidate::PerLoop(pool.intern_all(&r.assignment))
    };
    ctx.evaluate(&pool, &[Proposal::new(candidate, r.seed)])[0].time
}

fn assert_same(driven: &Outcome, reference: &Outcome, label: &str) {
    assert_eq!(driven.times.len(), reference.times.len(), "{label}");
    for (k, (d, r)) in driven.times.iter().zip(&reference.times).enumerate() {
        assert_eq!(
            d.to_bits(),
            r.to_bits(),
            "{label}: candidate {k}: driven {d} != reference {r}"
        );
    }
    assert_eq!(driven.winner, reference.winner, "{label}: winner");
    assert_eq!(driven.runs, reference.runs, "{label}: charged runs");
}

#[test]
fn batched_route_matches_measure_per_proposal() {
    let batched = ctx(None);
    assert!(batched.faults().is_zero());
    let (got, recorded) = driven(&batched);
    assert_eq!(recorded.len(), 210);
    let want = reference(&ctx(None), &recorded, |c, r| {
        c.measure(&r.assignment, r.seed).total_s
    });
    assert_same(&got, &want, "zero-fault");

    // The bare toolchain charges no ledger, so it pins times and the
    // winner only.
    let bare = ctx(None);
    let times: Vec<f64> = recorded
        .iter()
        .map(|r| {
            let objects = bare.compiler.compile_mixed(&bare.ir, &r.assignment);
            let linked = link(objects, &bare.ir, &bare.arch);
            execute_total(&linked, &bare.arch, &ExecOptions::new(bare.steps, r.seed))
        })
        .collect();
    for (k, (d, r)) in got.times.iter().zip(&times).enumerate() {
        assert_eq!(
            d.to_bits(),
            r.to_bits(),
            "candidate {k}: driven {d} != storeless {r}"
        );
    }
    let (i, t) = argmin_finite(&times);
    assert_eq!(got.winner, (i, t.to_bits()), "storeless winner");
}

#[test]
fn faulted_context_matches_per_proposal_evaluation() {
    // With fault injection `evaluate` takes the per-candidate funnel
    // (retries and quarantine are per-candidate), so one batch of 70
    // must equal 70 batches of one.
    let faults = FaultModel::with_rates(0xFA17, 0.04, 0.02, 0.01, 0.02);
    let (got, recorded) = driven(&ctx(Some(faults)));
    assert!(
        got.times.iter().any(|t| t.is_infinite()),
        "fixture must actually fault"
    );
    let want = reference(&ctx(Some(faults)), &recorded, evaluate_alone);
    assert_same(&got, &want, "faulted");
}
