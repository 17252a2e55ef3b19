//! The four space-search algorithms of §2.2.

use crate::canonical::Reader;
use crate::collection::CollectionData;
use crate::ctx::EvalContext;
use crate::objective::Objective;
use crate::result::TuningResult;
use crate::search::{
    materialize_candidate, pareto_points, Candidate, History, Proposal, SearchDriver,
    SearchStrategy,
};
use ft_flags::rng::{derive_seed_idx, rng_for};
use ft_flags::{Cv, CvId, CvPool};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// §2.2.1 — per-program random search (`Random`): `k` uniform CVs
/// applied to the whole (un-outlined) program; keep the fastest.
pub fn random_search(ctx: &EvalContext, k: usize, seed: u64) -> TuningResult {
    let cvs = ctx
        .space()
        .sample_many(k, &mut rng_for(seed, "random-search"));
    let mut strategy = UniformSweep {
        name: "Random",
        cvs,
        noise_root: ctx.noise_root,
        done: false,
    };
    SearchDriver::new(ctx).run(&mut strategy)
}

/// One batch of uniform candidates with the historical
/// `derive_seed_idx(noise_root, k)` seed stream; the default finish
/// ships the argmin.
struct UniformSweep {
    name: &'static str,
    cvs: Vec<Cv>,
    noise_root: u64,
    done: bool,
}

impl SearchStrategy for UniformSweep {
    fn name(&self) -> &str {
        self.name
    }

    fn propose(&mut self, pool: &CvPool, _history: &History) -> Vec<Proposal> {
        if self.done {
            return Vec::new();
        }
        self.done = true;
        // Duplicates intern to the same id; one proposal per sampled
        // CV keeps candidate `k` on the historical uniform-batch seed
        // `derive_seed_idx(noise_root, k)`.
        pool.intern_all(&self.cvs)
            .into_iter()
            .enumerate()
            .map(|(k, id)| {
                Proposal::new(
                    Candidate::Uniform(id),
                    derive_seed_idx(self.noise_root, k as u64),
                )
            })
            .collect()
    }
}

/// §2.2.2 — per-function random search (`FR`): every candidate draws
/// one CV per module, with replacement, from `k` pre-sampled CVs; the
/// selection-and-measurement step repeats `k` times.
pub fn fr_search(ctx: &EvalContext, k: usize, seed: u64) -> TuningResult {
    let sampled = ctx.space().sample_many(k, &mut rng_for(seed, "fr-pool"));
    let mut strategy = FrStrategy {
        sampled,
        k,
        seed,
        noise_root: ctx.noise_root,
        modules: ctx.modules(),
        done: false,
    };
    SearchDriver::new(ctx).run(&mut strategy)
}

struct FrStrategy {
    sampled: Vec<Cv>,
    k: usize,
    seed: u64,
    noise_root: u64,
    modules: usize,
    done: bool,
}

impl SearchStrategy for FrStrategy {
    fn name(&self) -> &str {
        "FR"
    }

    fn propose(&mut self, pool: &CvPool, _history: &History) -> Vec<Proposal> {
        if self.done {
            return Vec::new();
        }
        self.done = true;
        // One id per sampled CV (duplicates intern to the same id), so
        // the selection below draws from exactly the same indices —
        // and the same RNG stream — as the pre-driver implementation.
        let ids = pool.intern_all(&self.sampled);
        let mut rng = rng_for(self.seed, "fr-assign");
        (0..self.k)
            .map(|kk| {
                let assignment: Vec<CvId> = (0..self.modules)
                    .map(|_| ids[rng.gen_range(0..ids.len())])
                    .collect();
                Proposal::new(
                    Candidate::PerLoop(assignment),
                    derive_seed_idx(self.noise_root ^ 0xA551, kk as u64),
                )
            })
            .collect()
    }
}

/// Both outcomes of §2.2.3's greedy combination (`G`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GreedyOutcome {
    /// The measured, actually-linked greedy executable (`G.realized`).
    pub realized: TuningResult,
    /// The hypothetical sum of per-module minima (`G.Independent`,
    /// §3.4) — never an executable, only an upper bound.
    pub independent_time: f64,
    /// `baseline / independent_time`.
    pub independent_speedup: f64,
}

impl GreedyOutcome {
    /// Appends the outcome to a canonical byte encoding (see
    /// [`crate::canonical`]).
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        use crate::canonical::write_f64;
        self.realized.write_canonical(out);
        write_f64(out, self.independent_time);
        write_f64(out, self.independent_speedup);
    }

    /// The lossless form of [`GreedyOutcome::write_canonical`] (see
    /// [`TuningResult::write_lossless`]).
    pub fn write_lossless(&self, out: &mut Vec<u8>) {
        use crate::canonical::write_f64;
        self.realized.write_lossless(out);
        write_f64(out, self.independent_time);
        write_f64(out, self.independent_speedup);
    }

    /// Inverse of [`GreedyOutcome::write_lossless`].
    pub fn read_lossless(r: &mut Reader) -> Option<GreedyOutcome> {
        Some(GreedyOutcome {
            realized: TuningResult::read_lossless(r)?,
            independent_time: r.f64()?,
            independent_speedup: r.f64()?,
        })
    }
}

/// §2.2.3 — greedy combination: compile module `j` with
/// `argmin_k T[j][k]` and link. Assumes module independence; the gap
/// between realized and independent quantifies how wrong that is.
pub fn greedy(ctx: &EvalContext, data: &CollectionData, baseline_time: f64) -> GreedyOutcome {
    let mut strategy = GreedyStrategy {
        data,
        baseline_time,
        noise_root: ctx.noise_root,
        modules: ctx.modules(),
        done: false,
    };
    let realized = SearchDriver::new(ctx).run(&mut strategy);
    let independent_time = data.independent_sum();
    GreedyOutcome {
        realized,
        independent_time,
        independent_speedup: baseline_time / independent_time,
    }
}

/// One forced per-loop proposal (the argmin assignment). The finish is
/// bespoke: the greedy baseline time is the one the caller collected
/// under, and a faulted greedy link falls back to the best collected
/// uniform CV instead of panicking.
struct GreedyStrategy<'d> {
    data: &'d CollectionData,
    baseline_time: f64,
    noise_root: u64,
    modules: usize,
    done: bool,
}

impl SearchStrategy for GreedyStrategy<'_> {
    fn name(&self) -> &str {
        "G.realized"
    }

    fn propose(&mut self, pool: &CvPool, _history: &History) -> Vec<Proposal> {
        if self.done {
            return Vec::new();
        }
        self.done = true;
        let ids: Vec<CvId> = (0..self.modules)
            .map(|j| pool.intern(&self.data.cvs[self.data.argmin(j)]))
            .collect();
        vec![Proposal::new(
            Candidate::PerLoop(ids),
            derive_seed_idx(self.noise_root, 0x6EED),
        )]
    }

    fn finish(&mut self, ctx: &EvalContext, pool: &CvPool, history: &History) -> TuningResult {
        let objective = ctx.objective();
        let score = history.scores()[0];
        let mut time = score.time;
        let mut code_bytes = score.code_bytes;
        let assignment;
        if time.is_finite() {
            assignment = materialize_candidate(ctx, pool, history.candidate(0));
        } else {
            // The greedy combination is a single forced executable; if
            // the injected faults reject it there is nothing to retry,
            // so fall back to the best collected uniform CV — a build
            // already proven to compile and run during collection.
            let (k, t) = self
                .data
                .end_to_end
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_finite())
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
                .expect("every collected CV faulted: no fallback for greedy");
            assignment = vec![self.data.cvs[k].clone(); self.modules];
            time = *t;
            code_bytes = ctx.code_bytes(&assignment);
        }
        TuningResult {
            algorithm: "G.realized".into(),
            best_time: time,
            baseline_time: self.baseline_time,
            assignment,
            best_index: 0,
            history: vec![time],
            evaluations: 1,
            objective,
            best_code_bytes: code_bytes,
            scores: history.scores().to_vec(),
            front: if objective == Objective::Pareto {
                pareto_points(ctx, pool, history)
            } else {
                Vec::new()
            },
        }
    }
}

/// §2.2.4, Algorithm 1 — Caliper-guided random search (`CFR`).
///
/// Prunes each module's candidate CVs to the top-`x` per-loop
/// performers observed in the collection data, then draws `k` complete
/// assignments from the pruned per-module spaces and keeps the best
/// end-to-end measured executable. `G` is the `x = 1` corner of this
/// family and `FR` the `x = k` corner.
pub fn cfr(
    ctx: &EvalContext,
    data: &CollectionData,
    x: usize,
    k: usize,
    seed: u64,
) -> TuningResult {
    assert!(x >= 1, "CFR needs a non-empty pruned space");
    // Line 10-11: prune the pre-sampled CVs per module.
    let pruned: Vec<Vec<usize>> = (0..ctx.modules()).map(|j| data.top_x(j, x)).collect();
    let mut strategy = CfrResample {
        data,
        pruned,
        k,
        seed,
        noise_root: ctx.noise_root,
        done: false,
    };
    SearchDriver::new(ctx).run(&mut strategy)
}

/// Algorithm 1 lines 12-21: one batch of `k` assignments re-sampled
/// from the pruned per-module spaces; the default finish keeps the
/// best end-to-end measured executable.
struct CfrResample<'d> {
    data: &'d CollectionData,
    pruned: Vec<Vec<usize>>,
    k: usize,
    seed: u64,
    noise_root: u64,
    done: bool,
}

impl SearchStrategy for CfrResample<'_> {
    fn name(&self) -> &str {
        "CFR"
    }

    fn propose(&mut self, pool: &CvPool, _history: &History) -> Vec<Proposal> {
        if self.done {
            return Vec::new();
        }
        self.done = true;
        // Intern the collection pool once; candidate assignments are
        // then plain id vectors instead of K×J cloned CVs.
        let cv_ids = pool.intern_all(&self.data.cvs);
        let mut rng = rng_for(self.seed, "cfr-resample");
        (0..self.k)
            .map(|kk| {
                let assignment: Vec<CvId> = self
                    .pruned
                    .iter()
                    .map(|cands| cv_ids[cands[rng.gen_range(0..cands.len())]])
                    .collect();
                Proposal::new(
                    Candidate::PerLoop(assignment),
                    derive_seed_idx(self.noise_root ^ 0xA551, kk as u64),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::collect;
    use crate::ctx::testutil::ctx_for;

    const K: usize = 120;

    fn setup(bench: &str) -> (EvalContext, CollectionData, f64) {
        let ctx = ctx_for(bench, Some(5));
        let data = collect(&ctx, K, 13);
        let baseline = ctx.baseline_time(10);
        (ctx, data, baseline)
    }

    #[test]
    fn random_improves_over_baseline() {
        // swim is the friendliest target for per-program search; the
        // paper's Random gains 3-5% GM, so >1.0 must hold here even at
        // this reduced budget. CloverLeaf is the hardest: Random may
        // land slightly below 1.0 there, but never far below.
        let (ctx, _, _) = setup("swim");
        let r = random_search(&ctx, K, 21);
        assert!(r.speedup() > 1.0, "Random speedup = {}", r.speedup());
        assert!(r.speedup() < 1.25, "Random too strong = {}", r.speedup());
        assert_eq!(r.evaluations, K);
        assert_eq!(r.assignment.len(), ctx.modules());
        let (cl, _, _) = setup("CloverLeaf");
        let rcl = random_search(&cl, K, 21);
        assert!(rcl.speedup() > 0.95, "Random on CL = {}", rcl.speedup());
    }

    #[test]
    fn cfr_beats_random_on_cloverleaf() {
        let (ctx, data, _) = setup("CloverLeaf");
        let r = random_search(&ctx, K, 21);
        let c = cfr(&ctx, &data, 16, K, 22);
        assert!(
            c.speedup() > r.speedup(),
            "CFR {} vs Random {}",
            c.speedup(),
            r.speedup()
        );
    }

    #[test]
    fn independent_bound_dominates_everything() {
        let (ctx, data, baseline) = setup("CloverLeaf");
        let g = greedy(&ctx, &data, baseline);
        let c = cfr(&ctx, &data, 16, K, 22);
        assert!(g.independent_speedup >= c.speedup() * 0.999);
        assert!(g.independent_speedup > g.realized.speedup());
    }

    #[test]
    fn greedy_realized_pays_interference() {
        // Across benchmarks with strong coupling, G.realized must fall
        // clearly below CFR (the paper's central negative result).
        let mut g_below_cfr = 0;
        for bench in ["CloverLeaf", "swim"] {
            let (ctx, data, baseline) = setup(bench);
            let g = greedy(&ctx, &data, baseline);
            let c = cfr(&ctx, &data, 16, K, 22);
            if g.realized.speedup() < c.speedup() {
                g_below_cfr += 1;
            }
        }
        assert!(g_below_cfr >= 1, "greedy should trail CFR somewhere");
    }

    #[test]
    fn fr_has_less_guidance_than_cfr() {
        let (ctx, data, _) = setup("CloverLeaf");
        let f = fr_search(&ctx, K, 23);
        let c = cfr(&ctx, &data, 16, K, 22);
        assert!(
            c.speedup() > f.speedup(),
            "CFR {} vs FR {}",
            c.speedup(),
            f.speedup()
        );
    }

    #[test]
    fn cfr_history_is_monotone() {
        let (ctx, data, _) = setup("swim");
        let c = cfr(&ctx, &data, 8, 60, 5);
        for w in c.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(*c.history.last().unwrap(), c.best_time);
    }

    #[test]
    fn cfr_x1_degenerates_toward_greedy_assignment() {
        let (ctx, data, _) = setup("swim");
        let c = cfr(&ctx, &data, 1, 10, 9);
        // With x = 1 every candidate is the greedy assignment.
        let greedy_cvs: Vec<Cv> = (0..ctx.modules())
            .map(|j| data.cvs[data.argmin(j)].clone())
            .collect();
        assert_eq!(c.assignment, greedy_cvs);
    }

    #[test]
    fn deterministic_given_seed() {
        let (ctx, data, _) = setup("swim");
        let a = cfr(&ctx, &data, 8, 40, 77);
        let b = cfr(&ctx, &data, 8, 40, 77);
        assert_eq!(a.best_time, b.best_time);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    #[should_panic(expected = "non-empty pruned space")]
    fn cfr_rejects_zero_x() {
        let (ctx, data, _) = setup("swim");
        let _ = cfr(&ctx, &data, 0, 10, 1);
    }

    #[test]
    #[ignore = "calibration printout, run manually with --nocapture"]
    fn print_algorithm_calibration() {
        for bench in [
            "LULESH",
            "CloverLeaf",
            "AMG",
            "Optewe",
            "bwaves",
            "fma3d",
            "swim",
        ] {
            let ctx = ctx_for(bench, Some(5));
            let k = 400;
            let data = collect(&ctx, k, 13);
            let baseline = ctx.baseline_time(10);
            let r = random_search(&ctx, k, 21);
            let f = fr_search(&ctx, k, 23);
            let g = greedy(&ctx, &data, baseline);
            let c = cfr(&ctx, &data, 16, k, 22);
            println!(
                "{bench:<11} Random {:5.3}  FR {:5.3}  G.real {:5.3}  CFR {:5.3}  G.indep {:5.3}",
                r.speedup(),
                f.speedup(),
                g.realized.speedup(),
                c.speedup(),
                g.independent_speedup
            );
            // Per-loop diagnostics: collected headroom and what the CFR
            // winner actually realizes per module.
            if bench == "CloverLeaf" {
                let base_run = ctx.measure(&vec![ctx.space().baseline(); ctx.modules()], 0xB00);
                let cfr_run = ctx.measure(&c.assignment, 0xB01);
                let rnd_run = ctx.measure(&r.assignment, 0xB02);
                for j in 0..ctx.modules() {
                    let best = data.per_module[j][data.argmin(j)];
                    println!(
                        "    {:<16} headroom {:5.2}x   CFR {:5.2}x   Random {:5.2}x",
                        ctx.ir.modules[j].name,
                        base_run.per_module_s[j] / best,
                        base_run.per_module_s[j] / cfr_run.per_module_s[j],
                        base_run.per_module_s[j] / rnd_run.per_module_s[j],
                    );
                }
            }
        }
    }
}
