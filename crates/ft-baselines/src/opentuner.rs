//! An OpenTuner-like ensemble search (Ansel et al., PACT'14).
//!
//! OpenTuner runs many search techniques concurrently and allocates
//! trials among them with an AUC-bandit meta-technique: techniques that
//! recently produced new global bests get more trials. We implement the
//! core ensemble the paper cites — differential evolution, a
//! Torczon-style pattern hill-climber, Nelder–Mead on a relaxed
//! continuous embedding of the flag space, greedy mutation, and uniform
//! random — under a sliding-window AUC bandit, with the same 1000-test
//! budget and CV space as FuncyTuner (§4.2.1).
//!
//! The ensemble runs as a [`SearchStrategy`]: one trial per proposal
//! round (the bandit needs each trial's feedback before allocating the
//! next), with the incumbent and every technique's memory held as
//! interned [`CvId`]s — concrete flag values are read back through the
//! driver's pool only when a technique mutates them.

use ft_core::result::{best_so_far, TuningResult};
use ft_core::{
    pareto_points, Candidate, EvalContext, History, Objective, Observation, Proposal, Score,
    SearchDriver, SearchStrategy,
};
use ft_flags::rng::{derive_seed_idx, rng_for};
use ft_flags::{Cv, CvId, CvPool, FlagSpace};
use rand::rngs::StdRng;
use rand::Rng;

/// Shared view of the search state given to techniques.
struct SearchState {
    space: FlagSpace,
    best_id: CvId,
    /// The incumbent's measured *time* — what the techniques' internal
    /// arithmetic (annealing deltas, fault penalties) runs on.
    best_time: f64,
    /// The incumbent's full score; the bandit's "new global best"
    /// signal compares scores under the search objective.
    best_score: Score,
}

impl SearchState {
    /// An owned, mutable copy of the incumbent's flag values.
    fn best_cv(&self, pool: &CvPool) -> Cv {
        Cv::new(&self.space, pool.get(self.best_id).values().to_vec())
    }
}

trait Technique {
    /// Technique label (used in trace output and tests).
    #[allow(dead_code)]
    fn name(&self) -> &'static str;
    /// Proposes the next configuration to test.
    fn propose(&mut self, state: &SearchState, pool: &CvPool, rng: &mut StdRng) -> Cv;
    /// Observes the measured time of its last proposal.
    fn feedback(&mut self, id: CvId, time: f64, state: &SearchState, pool: &CvPool);
}

/// Uniform random sampling.
struct RandomTech;

impl Technique for RandomTech {
    fn name(&self) -> &'static str {
        "random"
    }
    fn propose(&mut self, state: &SearchState, _pool: &CvPool, rng: &mut StdRng) -> Cv {
        state.space.sample(rng)
    }
    fn feedback(&mut self, _id: CvId, _time: f64, _state: &SearchState, _pool: &CvPool) {}
}

/// Torczon-style pattern hill-climber around the incumbent: mutate a
/// few flags; shrink the mutation radius on failure, reset on success.
struct HillClimb {
    radius: usize,
    fails: u32,
}

impl HillClimb {
    fn new() -> Self {
        HillClimb {
            radius: 4,
            fails: 0,
        }
    }
}

impl Technique for HillClimb {
    fn name(&self) -> &'static str {
        "hillclimb"
    }
    fn propose(&mut self, state: &SearchState, pool: &CvPool, rng: &mut StdRng) -> Cv {
        let mut cv = state.best_cv(pool);
        for _ in 0..self.radius.max(1) {
            let id = rng.gen_range(0..state.space.len());
            let arity = state.space.flag(id).arity() as u8;
            cv.set(id, rng.gen_range(0..arity));
        }
        cv
    }
    fn feedback(&mut self, _id: CvId, time: f64, state: &SearchState, _pool: &CvPool) {
        if time <= state.best_time {
            self.radius = 4;
            self.fails = 0;
        } else {
            self.fails += 1;
            if self.fails.is_multiple_of(6) && self.radius > 1 {
                self.radius -= 1;
            }
        }
    }
}

/// Differential evolution over value-index vectors. The population
/// stores interned ids, not owned CVs.
struct DiffEvolution {
    population: Vec<(CvId, f64)>,
    target: usize,
    cap: usize,
}

impl DiffEvolution {
    fn new(cap: usize) -> Self {
        DiffEvolution {
            population: Vec::new(),
            target: 0,
            cap,
        }
    }
}

impl Technique for DiffEvolution {
    fn name(&self) -> &'static str {
        "de"
    }
    fn propose(&mut self, state: &SearchState, pool: &CvPool, rng: &mut StdRng) -> Cv {
        if self.population.len() < self.cap {
            return state.space.sample(rng);
        }
        self.target = rng.gen_range(0..self.population.len());
        let pick = |rng: &mut StdRng| rng.gen_range(0..self.population.len());
        let (a, b, c) = (pick(rng), pick(rng), pick(rng));
        let space = &state.space;
        let (pa, pb, pc) = (
            pool.get(self.population[a].0),
            pool.get(self.population[b].0),
            pool.get(self.population[c].0),
        );
        let mut child = Cv::new(
            space,
            pool.get(self.population[self.target].0).values().to_vec(),
        );
        for id in 0..space.len() {
            // Binomial crossover with F-scaled index difference.
            if rng.gen_bool(0.5) {
                let arity = space.flag(id).arity() as i32;
                let diff = i32::from(pb.get(id)) - i32::from(pc.get(id));
                let v = (i32::from(pa.get(id)) + diff).rem_euclid(arity);
                child.set(id, v as u8);
            }
        }
        child
    }
    fn feedback(&mut self, id: CvId, time: f64, _state: &SearchState, _pool: &CvPool) {
        if self.population.len() < self.cap {
            self.population.push((id, time));
            return;
        }
        if time < self.population[self.target].1 {
            self.population[self.target] = (id, time);
        }
    }
}

/// Nelder–Mead on the unit hypercube, rounded to flag-value indices.
struct NelderMead {
    simplex: Vec<(Vec<f64>, f64)>,
    pending: Option<Vec<f64>>,
    dim: usize,
}

impl NelderMead {
    fn new(dim: usize) -> Self {
        NelderMead {
            simplex: Vec::new(),
            pending: None,
            dim,
        }
    }

    fn to_cv(&self, x: &[f64], space: &FlagSpace) -> Cv {
        let values = (0..self.dim)
            .map(|i| {
                let arity = space.flag(i).arity() as f64;
                ((x[i].clamp(0.0, 0.999_999) * arity) as u8).min(space.flag(i).arity() as u8 - 1)
            })
            .collect();
        Cv::new(space, values)
    }
}

impl Technique for NelderMead {
    fn name(&self) -> &'static str {
        "neldermead"
    }
    fn propose(&mut self, state: &SearchState, _pool: &CvPool, rng: &mut StdRng) -> Cv {
        // Build the initial simplex from random points.
        if self.simplex.len() <= self.dim {
            let x: Vec<f64> = (0..self.dim).map(|_| rng.gen::<f64>()).collect();
            let cv = self.to_cv(&x, &state.space);
            self.pending = Some(x);
            return cv;
        }
        // Reflect the worst vertex through the centroid.
        self.simplex
            .sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let worst = self.simplex.last().expect("non-empty simplex").0.clone();
        let mut centroid = vec![0.0; self.dim];
        for (x, _) in &self.simplex[..self.simplex.len() - 1] {
            for i in 0..self.dim {
                centroid[i] += x[i] / (self.simplex.len() - 1) as f64;
            }
        }
        let alpha = 1.0 + 0.5 * rng.gen::<f64>(); // reflection/expansion mix
        let x: Vec<f64> = (0..self.dim)
            .map(|i| (centroid[i] + alpha * (centroid[i] - worst[i])).clamp(0.0, 1.0))
            .collect();
        let cv = self.to_cv(&x, &state.space);
        self.pending = Some(x);
        cv
    }
    fn feedback(&mut self, _id: CvId, time: f64, _state: &SearchState, _pool: &CvPool) {
        let Some(x) = self.pending.take() else { return };
        if self.simplex.len() <= self.dim {
            self.simplex.push((x, time));
            return;
        }
        // Replace the worst vertex when the proposal improves on it.
        let worst = self.simplex.len() - 1;
        if time < self.simplex[worst].1 {
            self.simplex[worst] = (x, time);
        }
    }
}

/// Greedy mutation of the incumbent (one flag at a time).
struct GreedyMutate;

impl Technique for GreedyMutate {
    fn name(&self) -> &'static str {
        "mutate"
    }
    fn propose(&mut self, state: &SearchState, pool: &CvPool, rng: &mut StdRng) -> Cv {
        let id = rng.gen_range(0..state.space.len());
        let arity = state.space.flag(id).arity() as u8;
        pool.get(state.best_id)
            .with(&state.space, id, rng.gen_range(0..arity))
    }
    fn feedback(&mut self, _id: CvId, _time: f64, _state: &SearchState, _pool: &CvPool) {}
}

/// Simulated annealing around the incumbent: accept worse moves with a
/// temperature-controlled probability, cooling over time.
struct SimAnneal {
    current: Option<(CvId, f64)>,
    temperature: f64,
}

impl SimAnneal {
    fn new() -> Self {
        SimAnneal {
            current: None,
            temperature: 0.05,
        }
    }
}

impl Technique for SimAnneal {
    fn name(&self) -> &'static str {
        "anneal"
    }
    fn propose(&mut self, state: &SearchState, pool: &CvPool, rng: &mut StdRng) -> Cv {
        let mut cv = match &self.current {
            Some((id, _)) => Cv::new(&state.space, pool.get(*id).values().to_vec()),
            None => state.best_cv(pool),
        };
        for _ in 0..1 + rng.gen_range(0..3) {
            let id = rng.gen_range(0..state.space.len());
            let arity = state.space.flag(id).arity() as u8;
            cv.set(id, rng.gen_range(0..arity));
        }
        cv
    }
    fn feedback(&mut self, id: CvId, time: f64, _state: &SearchState, _pool: &CvPool) {
        let accept = match &self.current {
            None => true,
            Some((_, cur_t)) => {
                if time <= *cur_t {
                    true
                } else {
                    // Metropolis acceptance on relative slowdown,
                    // deterministic via the slowdown itself (the rng is
                    // not available here; the threshold cools anyway).
                    (time / cur_t - 1.0) < self.temperature
                }
            }
        };
        if accept {
            self.current = Some((id, time));
        }
        self.temperature *= 0.995; // cooling schedule
    }
}

/// Sliding-window AUC credit for one technique.
struct BanditArm {
    tech: Box<dyn Technique>,
    window: Vec<bool>,
    uses: u32,
}

impl BanditArm {
    fn auc(&self) -> f64 {
        // OpenTuner's AUC credit: recent successes weigh more.
        if self.window.is_empty() {
            return 0.0;
        }
        let n = self.window.len();
        let weighted: f64 = self
            .window
            .iter()
            .enumerate()
            .map(|(i, hit)| if *hit { (i + 1) as f64 } else { 0.0 })
            .sum();
        weighted / (n * (n + 1) / 2) as f64
    }

    fn record(&mut self, improved: bool) {
        self.window.push(improved);
        if self.window.len() > 50 {
            self.window.remove(0);
        }
    }
}

/// Runs the ensemble for `budget` test iterations.
pub fn opentuner_search(ctx: &EvalContext, budget: usize, seed: u64) -> TuningResult {
    let mut strategy = OtStrategy {
        arms: vec![
            Box::new(RandomTech) as Box<dyn Technique>,
            Box::new(HillClimb::new()),
            Box::new(DiffEvolution::new(20)),
            Box::new(NelderMead::new(ctx.space().len())),
            Box::new(GreedyMutate),
            Box::new(SimAnneal::new()),
        ]
        .into_iter()
        .map(|tech| BanditArm {
            tech,
            window: Vec::new(),
            uses: 0,
        })
        .collect(),
        state: None,
        space: ctx.space().clone(),
        objective: ctx.objective(),
        rng: rng_for(seed, "opentuner"),
        seed,
        budget,
        trial: 0,
        pending_pick: None,
    };
    SearchDriver::new(ctx).run(&mut strategy)
}

struct OtStrategy {
    arms: Vec<BanditArm>,
    /// `None` until the baseline trial (trial 0) has been observed.
    state: Option<SearchState>,
    space: FlagSpace,
    objective: Objective,
    rng: StdRng,
    seed: u64,
    budget: usize,
    trial: u64,
    /// The arm whose proposal is in flight (`None` for the baseline).
    pending_pick: Option<usize>,
}

const EXPLORATION: f64 = 0.6;

impl SearchStrategy for OtStrategy {
    fn name(&self) -> &str {
        "OpenTuner"
    }

    fn propose(&mut self, pool: &CvPool, _history: &History) -> Vec<Proposal> {
        if self.trial >= self.budget.max(1) as u64 {
            return Vec::new();
        }
        let (cv, noise) = if let Some(state) = &self.state {
            // AUC bandit: exploit credit + UCB exploration bonus.
            let total_uses: u32 = self.arms.iter().map(|a| a.uses).sum();
            let pick = (0..self.arms.len())
                .max_by(|&a, &b| {
                    let score = |arm: &BanditArm| {
                        arm.auc()
                            + EXPLORATION
                                * ((2.0 * f64::from(total_uses.max(1)).ln())
                                    / f64::from(arm.uses.max(1)))
                                .sqrt()
                    };
                    score(&self.arms[a])
                        .partial_cmp(&score(&self.arms[b]))
                        .expect("finite")
                })
                .expect("non-empty ensemble");
            self.pending_pick = Some(pick);
            let cv = self.arms[pick].tech.propose(state, pool, &mut self.rng);
            (cv, derive_seed_idx(self.seed, self.trial))
        } else {
            self.pending_pick = None;
            (self.space.baseline(), derive_seed_idx(self.seed, 0))
        };
        self.trial += 1;
        vec![Proposal::new(Candidate::Uniform(pool.intern(&cv)), noise)]
    }

    fn observe(&mut self, pool: &CvPool, results: &[Observation<'_>]) {
        let time = results[0].time;
        let score = results[0].score();
        let Candidate::Uniform(id) = results[0].candidate else {
            unreachable!("OpenTuner proposes only uniform candidates")
        };
        let Some(state) = &mut self.state else {
            self.state = Some(SearchState {
                space: self.space.clone(),
                best_id: *id,
                best_time: time,
                best_score: score,
            });
            return;
        };
        let pick = self.pending_pick.expect("an arm proposed this trial");
        let improved = self.objective.improves(score, state.best_score);
        // Techniques do arithmetic on observed times (centroids,
        // annealing deltas); feed them a large finite penalty instead
        // of the +inf a faulted trial scores as.
        let fb_time = if time.is_finite() {
            time
        } else {
            state.best_time * 1e6
        };
        self.arms[pick].tech.feedback(*id, fb_time, state, pool);
        self.arms[pick].record(improved);
        self.arms[pick].uses += 1;
        if improved {
            state.best_time = time;
            state.best_score = score;
            state.best_id = *id;
        }
    }

    fn finish(&mut self, ctx: &EvalContext, pool: &CvPool, history: &History) -> TuningResult {
        let state = self.state.as_ref().expect("baseline trial was observed");
        let front = if self.objective == Objective::Pareto {
            pareto_points(ctx, pool, history)
        } else {
            Vec::new()
        };
        TuningResult {
            algorithm: "OpenTuner".into(),
            best_time: state.best_score.time,
            baseline_time: ctx.baseline_time(10),
            assignment: pool.materialize(&vec![state.best_id; ctx.modules()]),
            best_index: 0,
            history: best_so_far(history.times()),
            evaluations: self.budget,
            objective: self.objective,
            best_code_bytes: state.best_score.code_bytes,
            scores: history.scores().to_vec(),
            front,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_compiler::Compiler;
    use ft_machine::Architecture;
    use ft_outline::outline_with_defaults;
    use ft_workloads::workload_by_name;

    fn ctx(bench: &str) -> EvalContext {
        let arch = Architecture::broadwell();
        let compiler = Compiler::icc(arch.target);
        let w = workload_by_name(bench).unwrap();
        let ir = w.instantiate(w.tuning_input(arch.name));
        let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, 5, 11);
        EvalContext::new(outlined.ir, Compiler::icc(arch.target), arch, 5, 41)
    }

    #[test]
    fn ensemble_beats_baseline() {
        let c = ctx("swim");
        let r = opentuner_search(&c, 300, 3);
        assert!(r.speedup() > 1.0, "speedup = {}", r.speedup());
        assert_eq!(r.evaluations, 300);
    }

    #[test]
    fn ensemble_is_at_least_as_good_as_its_history_start() {
        let c = ctx("swim");
        let r = opentuner_search(&c, 200, 5);
        assert!(r.best_time <= r.history[0]);
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let c = ctx("swim");
        let a = opentuner_search(&c, 120, 9);
        let b = opentuner_search(&c, 120, 9);
        assert_eq!(a.best_time, b.best_time);
    }

    #[test]
    fn benefit_saturates_after_early_iterations() {
        // §4.2.2: "OpenTuner's performance benefit increases very slow
        // after tens of test iterations."
        let c = ctx("swim");
        let r = opentuner_search(&c, 400, 3);
        let at_100 = r.history[99];
        let final_best = r.best_time;
        assert!(
            final_best / at_100 > 0.95,
            "late-phase improvement should be small: {at_100} -> {final_best}"
        );
    }
}
