//! Tuning outcomes.

use crate::canonical::Reader;
use crate::objective::{Objective, Score};
use ft_flags::Cv;
use serde::{Deserialize, Serialize};

/// One point of a Pareto front: a non-dominated candidate, materialized
/// for reporting. Points are ordered by ascending time (descending
/// code bytes) — see [`crate::objective::pareto_front`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Index of the candidate within the evaluation order.
    pub index: usize,
    /// End-to-end seconds.
    pub time: f64,
    /// Modeled executable size, bytes.
    pub code_bytes: f64,
    /// The candidate's per-module CV assignment.
    pub assignment: Vec<Cv>,
}

/// The outcome of one search algorithm on one (program, architecture,
/// input) triple.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuningResult {
    /// Algorithm label (`Random`, `FR`, `CFR`, `G.realized`, ...).
    pub algorithm: String,
    /// Best end-to-end time found, seconds.
    pub best_time: f64,
    /// `-O3` baseline time, seconds.
    pub baseline_time: f64,
    /// Winning per-module CV assignment (a single repeated CV for
    /// per-program algorithms).
    pub assignment: Vec<Cv>,
    /// Index of the winning candidate within the evaluation order.
    pub best_index: usize,
    /// Best-time-so-far after each candidate evaluation (convergence
    /// curve; used by the budget ablation).
    pub history: Vec<f64>,
    /// Total candidate executions performed.
    pub evaluations: usize,
    /// What this search optimized. [`Objective::Time`] is the paper's
    /// setting and the default everywhere.
    #[serde(default)]
    pub objective: Objective,
    /// Modeled executable size of the winning assignment, bytes
    /// (`+inf` when the winner's score was never tracked — bespoke
    /// baseline finishes that predate the scored timeline).
    #[serde(default)]
    pub best_code_bytes: f64,
    /// Raw per-candidate (time, code bytes) timeline, in evaluation
    /// order. Empty for strategies with bespoke finishes that only
    /// track the time curve.
    #[serde(default)]
    pub scores: Vec<Score>,
    /// The dominance front over [`TuningResult::scores`] — populated
    /// only under [`Objective::Pareto`], where the "winner" is this
    /// whole trade-off curve (plus the fastest point as the scalar
    /// `assignment` for backward-compatible reporting).
    #[serde(default)]
    pub front: Vec<ParetoPoint>,
}

impl TuningResult {
    /// Speedup over the `-O3` baseline (the paper's reporting metric).
    pub fn speedup(&self) -> f64 {
        self.baseline_time / self.best_time
    }

    /// Appends this result to a canonical byte encoding (see
    /// [`crate::canonical`]): every float by bit pattern, every CV by
    /// raw flag bytes. Used by the phase-equivalence harness to compare
    /// results across schedules without JSON's `inf → null` loss.
    ///
    /// Under the default [`Objective::Time`] the encoding is exactly
    /// the pre-objective one — every golden digest stays valid. A
    /// non-time objective appends the objective word, the winner's
    /// code bytes, the score timeline, and the front, all by bit
    /// pattern.
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        self.write_fields(out, self.objective.extends_canonical());
    }

    /// The lossless form of [`TuningResult::write_canonical`]: the
    /// objective, winner's code bytes, score timeline and front are
    /// written under every objective, [`Objective::Time`] included.
    /// The campaign WAL records use it; digests never do.
    pub fn write_lossless(&self, out: &mut Vec<u8>) {
        self.write_fields(out, true);
    }

    fn write_fields(&self, out: &mut Vec<u8>, extended: bool) {
        use crate::canonical::{write_cvs, write_f64, write_f64s, write_str, write_u64};
        write_str(out, &self.algorithm);
        write_f64(out, self.best_time);
        write_f64(out, self.baseline_time);
        write_cvs(out, &self.assignment);
        write_u64(out, self.best_index as u64);
        write_f64s(out, &self.history);
        write_u64(out, self.evaluations as u64);
        if extended {
            self.objective.write_canonical(out);
            write_f64(out, self.best_code_bytes);
            write_u64(out, self.scores.len() as u64);
            for s in &self.scores {
                s.write_canonical(out);
            }
            write_u64(out, self.front.len() as u64);
            for p in &self.front {
                write_u64(out, p.index as u64);
                write_f64(out, p.time);
                write_f64(out, p.code_bytes);
                write_cvs(out, &p.assignment);
            }
        }
    }

    /// Inverse of [`TuningResult::write_lossless`].
    pub fn read_lossless(r: &mut Reader) -> Option<TuningResult> {
        Some(TuningResult {
            algorithm: r.str()?,
            best_time: r.f64()?,
            baseline_time: r.f64()?,
            assignment: r.cvs()?,
            best_index: r.usize()?,
            history: r.f64s()?,
            evaluations: r.usize()?,
            objective: Objective::read_canonical(r).ok()?,
            best_code_bytes: r.f64()?,
            scores: r.list(16, Score::read_canonical)?,
            front: r.list(32, |r| {
                Some(ParetoPoint {
                    index: r.usize()?,
                    time: r.f64()?,
                    code_bytes: r.f64()?,
                    assignment: r.cvs()?,
                })
            })?,
        })
    }

    /// Number of evaluations after which the search was within
    /// `tolerance` of its final best (convergence point, §4.3).
    pub fn converged_at(&self, tolerance: f64) -> usize {
        let target = self.best_time * (1.0 + tolerance);
        self.history
            .iter()
            .position(|t| *t <= target)
            .map_or(self.history.len(), |p| p + 1)
    }
}

/// Builds the best-so-far curve from raw per-candidate times.
pub fn best_so_far(times: &[f64]) -> Vec<f64> {
    let mut best = f64::INFINITY;
    times
        .iter()
        .map(|t| {
            best = best.min(*t);
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(times: &[f64]) -> TuningResult {
        let history = best_so_far(times);
        let best_time = *history.last().unwrap();
        TuningResult {
            algorithm: "test".into(),
            best_time,
            baseline_time: 10.0,
            assignment: vec![],
            best_index: 0,
            history,
            evaluations: times.len(),
            objective: Objective::Time,
            best_code_bytes: f64::INFINITY,
            scores: Vec::new(),
            front: Vec::new(),
        }
    }

    #[test]
    fn canonical_bytes_extend_only_off_the_time_objective() {
        // The pre-objective encoding is the Time encoding, verbatim:
        // a result that records scores but optimizes time must encode
        // to exactly the bytes the legacy struct produced.
        let mut r = result(&[5.0, 4.0]);
        let mut legacy = Vec::new();
        r.write_canonical(&mut legacy);
        r.scores = vec![Score::new(5.0, 100.0), Score::new(4.0, 90.0)];
        r.best_code_bytes = 90.0;
        let mut with_scores = Vec::new();
        r.write_canonical(&mut with_scores);
        assert_eq!(legacy, with_scores, "Time encoding must not grow");
        r.objective = Objective::Pareto;
        let mut pareto = Vec::new();
        r.write_canonical(&mut pareto);
        assert!(pareto.len() > legacy.len());
        assert_eq!(
            &pareto[..legacy.len()],
            &legacy[..],
            "extension is a suffix"
        );
    }

    #[test]
    fn best_so_far_is_monotone_nonincreasing() {
        let curve = best_so_far(&[5.0, 7.0, 4.0, 6.0, 3.0]);
        assert_eq!(curve, vec![5.0, 5.0, 4.0, 4.0, 3.0]);
    }

    #[test]
    fn speedup_is_baseline_over_best() {
        let r = result(&[5.0, 4.0]);
        assert!((r.speedup() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn converged_at_finds_first_near_best() {
        let r = result(&[8.0, 5.0, 4.05, 4.0, 4.0]);
        assert_eq!(r.converged_at(0.02), 3); // 4.05 <= 4.0*1.02
        assert_eq!(r.converged_at(0.0), 4);
        assert_eq!(r.converged_at(2.0), 1);
    }
}
