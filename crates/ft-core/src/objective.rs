//! The objective layer: what "better" means.
//!
//! Every searcher in this workspace used to hard-code the paper's
//! objective — minimize wall time — by comparing bare `f64` seconds
//! through [`crate::search::strictly_better`] and
//! [`crate::search::argmin_finite`]. This module lifts that decision
//! into a first-class value:
//!
//! * a [`Score`] is what one candidate evaluation measures — wall time
//!   *and* the modeled executable size
//!   ([`LinkedProgram::code_bytes`](ft_machine::LinkedProgram::code_bytes)
//!   of the linked candidate) — encoded canonically by exact bit
//!   pattern;
//! * an [`Objective`] owns comparison ([`Objective::improves`]), winner
//!   selection ([`Objective::select`]), and Pareto dominance
//!   ([`pareto_front`]).
//!
//! `Objective::Time` is the default and is *defined* to be the old
//! behavior: `improves` is exactly `strictly_better` on the time
//! component and `select` is exactly `argmin_finite` over times — same
//! ties, same NaN panics, same "every candidate faulted" panic — so
//! every golden digest and RNG-pinning tuple is byte-identical to the
//! pre-objective stack.
//!
//! `Pareto` deliberately keeps the *search trajectory* time-driven
//! (`improves` compares times): the front is computed once at finish
//! over the full score history, which makes it a pure function of the
//! history and therefore invariant across schedules, worker counts,
//! tenancy, and kill/resume — the `objective_equivalence` suite proves
//! it. `Weighted { w }` scalarizes with plain IEEE arithmetic (one
//! multiply-add per side, no transcendentals), so it is as
//! deterministic as the times themselves.

use crate::canonical::{write_f64, write_u64, Reader};
use crate::remote::{need, WireError};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::str::FromStr;

/// The fixed exchange rate of [`Objective::Weighted`]: one second of
/// wall time trades against this many bytes of code. 1 MiB-per-second
/// keeps both terms O(1) on the paper's workloads.
pub const WEIGHTED_BYTES_PER_SECOND: f64 = 1e6;

/// One candidate's measurement: wall time and modeled executable size.
///
/// A faulted candidate (compile failure, hang budget exhausted,
/// quarantine hit) scores `+inf` in *both* components, so it loses
/// every comparison and joins no Pareto front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// End-to-end wall time, seconds.
    pub time: f64,
    /// Modeled executable size, bytes
    /// (`LinkedProgram::code_bytes`).
    pub code_bytes: f64,
}

impl Score {
    /// A measured score.
    pub fn new(time: f64, code_bytes: f64) -> Score {
        Score { time, code_bytes }
    }

    /// The score of an unusable candidate: `+inf` in both components.
    pub fn faulted() -> Score {
        Score {
            time: f64::INFINITY,
            code_bytes: f64::INFINITY,
        }
    }

    /// Both components finite (the candidate actually ran).
    pub fn is_finite(&self) -> bool {
        self.time.is_finite() && self.code_bytes.is_finite()
    }

    /// Exact bit patterns of both components — the identity used for
    /// canonical encoding and duplicate detection.
    pub fn bits(&self) -> (u64, u64) {
        (self.time.to_bits(), self.code_bytes.to_bits())
    }

    /// `self` Pareto-dominates `other`: no worse in both components,
    /// strictly better in at least one.
    pub fn dominates(&self, other: &Score) -> bool {
        self.time <= other.time
            && self.code_bytes <= other.code_bytes
            && (self.time < other.time || self.code_bytes < other.code_bytes)
    }

    /// Canonical encoding: both components by exact bit pattern.
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        write_f64(out, self.time);
        write_f64(out, self.code_bytes);
    }

    /// Inverse of [`Score::write_canonical`].
    pub fn read_canonical(r: &mut Reader) -> Option<Score> {
        let time = r.f64()?;
        let code_bytes = r.f64()?;
        Some(Score { time, code_bytes })
    }
}

impl Serialize for Score {
    fn serialize_value(&self) -> Value {
        Value::Array(vec![
            self.time.serialize_value(),
            self.code_bytes.serialize_value(),
        ])
    }
}

impl Deserialize for Score {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        let (time, code_bytes) = <(f64, f64)>::deserialize_value(value)?;
        Ok(Score { time, code_bytes })
    }
}

/// What the campaign optimizes. [`Objective::Time`] is the paper's
/// objective and the default everywhere; the other variants reuse the
/// identical measurement pipeline and change only comparison and
/// winner selection.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Objective {
    /// Minimize wall time (the paper; bit-identical to the
    /// pre-objective stack).
    #[default]
    Time,
    /// Minimize modeled executable size.
    CodeBytes,
    /// Minimize `w·time + (1−w)·code_bytes / 1 MiB` for `w ∈ [0, 1]`.
    Weighted {
        /// Weight on the time component.
        w: f64,
    },
    /// Keep the whole time/size dominance front; the single reported
    /// winner is the time-fastest front point (so the trajectory, and
    /// with it every equivalence proof, stays time-driven).
    Pareto,
}

impl Objective {
    /// The scalar ranking key of a score under this objective. Faulted
    /// scores key to `+inf` under every objective (so a `w = 0`
    /// weighting cannot turn `0 × inf` into NaN).
    pub fn key(&self, score: Score) -> f64 {
        if !score.is_finite() {
            return f64::INFINITY;
        }
        match self {
            Objective::Time | Objective::Pareto => score.time,
            Objective::CodeBytes => score.code_bytes,
            Objective::Weighted { w } => {
                w * score.time + (1.0 - w) * (score.code_bytes / WEIGHTED_BYTES_PER_SECOND)
            }
        }
    }

    /// Whether `candidate` strictly improves on `incumbent`. Under
    /// `Time` this is exactly [`crate::search::strictly_better`] on the
    /// time components (including its NaN panic).
    pub fn improves(&self, candidate: Score, incumbent: Score) -> bool {
        crate::search::strictly_better(self.key(candidate), self.key(incumbent))
    }

    /// The winner's index: the first finite-key minimum. Under `Time`
    /// this is exactly [`crate::search::argmin_finite`] over the time
    /// components — same tie-breaking, same "every candidate faulted"
    /// panic.
    pub fn select(&self, scores: &[Score]) -> (usize, f64) {
        let keys: Vec<f64> = scores.iter().map(|s| self.key(*s)).collect();
        crate::search::argmin_finite(&keys)
    }

    /// Whether results under this objective carry extra canonical
    /// fields. `Time` must stay byte-identical to the pre-objective
    /// encoding, so only the non-default objectives append theirs.
    pub fn extends_canonical(&self) -> bool {
        !matches!(self, Objective::Time)
    }

    /// Canonical / wire encoding: a tag word plus the weight's bit
    /// pattern (zero for unweighted variants, so the encoding is
    /// fixed-width).
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        let (tag, w) = match self {
            Objective::Time => (0u64, 0.0),
            Objective::CodeBytes => (1, 0.0),
            Objective::Weighted { w } => (2, *w),
            Objective::Pareto => (3, 0.0),
        };
        write_u64(out, tag);
        write_f64(out, w);
    }

    /// Inverse of [`Objective::write_canonical`], and the one check of
    /// an objective word on every surface: a truncated word is
    /// [`WireError::Truncated`] at the field that ran out, an unknown
    /// tag or a weight outside [0, 1] (NaN included) a
    /// [`WireError::BadValue`] naming which. The wire reports these as
    /// they are; the spool and the WAL map them to their own refusals.
    pub fn read_canonical(r: &mut Reader) -> Result<Objective, WireError> {
        let tag = need(r.u64(), r)?;
        let w = need(r.f64(), r)?;
        match tag {
            0 => Ok(Objective::Time),
            1 => Ok(Objective::CodeBytes),
            2 if (0.0..=1.0).contains(&w) => Ok(Objective::Weighted { w }),
            2 => Err(WireError::BadValue("objective weight outside [0, 1]")),
            3 => Ok(Objective::Pareto),
            _ => Err(WireError::BadValue("unknown objective tag")),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::Time => f.write_str("time"),
            Objective::CodeBytes => f.write_str("code-bytes"),
            Objective::Weighted { w } => write!(f, "weighted:{w}"),
            Objective::Pareto => f.write_str("pareto"),
        }
    }
}

impl FromStr for Objective {
    type Err = String;

    /// Parses the canonical textual form: `time`, `code-bytes`,
    /// `pareto`, or `weighted:<w>` with `w ∈ [0, 1]`.
    fn from_str(s: &str) -> Result<Objective, String> {
        match s {
            "time" => Ok(Objective::Time),
            "code-bytes" => Ok(Objective::CodeBytes),
            "pareto" => Ok(Objective::Pareto),
            _ => {
                if let Some(ws) = s.strip_prefix("weighted:") {
                    let w: f64 = ws
                        .parse()
                        .map_err(|_| format!("bad objective weight {ws:?}"))?;
                    if !w.is_finite() || !(0.0..=1.0).contains(&w) {
                        return Err(format!("objective weight {w} outside [0, 1]"));
                    }
                    Ok(Objective::Weighted { w })
                } else {
                    Err(format!(
                        "unknown objective {s:?} (expected time, code-bytes, \
                         weighted:<w>, or pareto)"
                    ))
                }
            }
        }
    }
}

impl Serialize for Objective {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for Objective {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        let s = String::deserialize_value(value)?;
        s.parse().map_err(serde::Error::new)
    }
}

/// The Pareto front of `scores` over (time, `code_bytes`): indices of
/// every finite, non-dominated point, exact-bit duplicates collapsed
/// onto their first occurrence, sorted by time then `code_bytes`
/// (total order on bits). Because the result is a pure function of the
/// score *values*, it is invariant to candidate permutation up to the
/// indices themselves, and identical across any evaluation schedule
/// that produces the same scores.
pub fn pareto_front(scores: &[Score]) -> Vec<usize> {
    let mut front: Vec<usize> = Vec::new();
    'candidate: for (i, s) in scores.iter().enumerate() {
        if !s.is_finite() {
            continue;
        }
        for (j, o) in scores.iter().enumerate() {
            if j == i || !o.is_finite() {
                continue;
            }
            if o.dominates(s) {
                continue 'candidate;
            }
            if j < i && o.bits() == s.bits() {
                continue 'candidate; // exact duplicate: keep the first
            }
        }
        front.push(i);
    }
    front.sort_by(|&a, &b| {
        scores[a]
            .time
            .total_cmp(&scores[b].time)
            .then(scores[a].code_bytes.total_cmp(&scores[b].code_bytes))
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: f64, c: f64) -> Score {
        Score::new(t, c)
    }

    #[test]
    fn time_objective_is_the_legacy_comparison() {
        let a = s(1.0, 900.0);
        let b = s(2.0, 100.0);
        assert!(Objective::Time.improves(a, b));
        assert!(!Objective::Time.improves(b, a));
        // Ties are not improvements (strictly_better semantics).
        assert!(!Objective::Time.improves(a, a));
        // And select is argmin_finite: first finite minimum wins.
        let scores = [s(3.0, 1.0), s(1.0, 9.0), s(1.0, 2.0), Score::faulted()];
        assert_eq!(Objective::Time.select(&scores), (1, 1.0));
    }

    #[test]
    fn code_bytes_objective_ranks_by_size() {
        let scores = [s(1.0, 900.0), s(2.0, 100.0), Score::faulted()];
        assert_eq!(Objective::CodeBytes.select(&scores), (1, 100.0));
        assert!(Objective::CodeBytes.improves(scores[1], scores[0]));
    }

    #[test]
    fn weighted_extremes_recover_the_pure_objectives() {
        let a = s(1.0, 2_000_000.0);
        let b = s(2.0, 1_000_000.0);
        // w = 1: pure time.
        assert!(Objective::Weighted { w: 1.0 }.improves(a, b));
        // w = 0: pure code size — and 0 × inf must not poison a
        // faulted comparand with NaN.
        assert!(Objective::Weighted { w: 0.0 }.improves(b, a));
        assert!(Objective::Weighted { w: 0.0 }.improves(b, Score::faulted()));
        assert_eq!(
            Objective::Weighted { w: 0.0 }.key(Score::faulted()),
            f64::INFINITY
        );
    }

    #[test]
    #[should_panic(expected = "every candidate faulted")]
    fn all_faulted_selection_panics_like_argmin_finite() {
        let _ = Objective::Pareto.select(&[Score::faulted(), Score::faulted()]);
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        assert!(s(1.0, 1.0).dominates(&s(2.0, 2.0)));
        assert!(s(1.0, 1.0).dominates(&s(1.0, 2.0)));
        assert!(!s(1.0, 1.0).dominates(&s(1.0, 1.0)), "equal points tie");
        assert!(!s(1.0, 9.0).dominates(&s(2.0, 1.0)), "trade-offs tie");
        assert!(s(1.0, 1.0).dominates(&Score::faulted()));
        assert!(!Score::faulted().dominates(&s(1.0, 1.0)));
    }

    #[test]
    fn pareto_front_keeps_the_trade_off_curve() {
        let scores = [
            s(3.0, 1.0),      // front (cheapest)
            s(1.0, 9.0),      // front (fastest)
            s(2.0, 2.0),      // front (middle)
            s(2.5, 2.5),      // dominated by (2.0, 2.0)
            Score::faulted(), // excluded
            s(2.0, 2.0),      // exact duplicate of index 2
        ];
        assert_eq!(pareto_front(&scores), vec![1, 2, 0]);
    }

    #[test]
    fn pareto_front_degenerates_to_argmin_when_sizes_are_equal() {
        let scores = [s(3.0, 5.0), s(1.0, 5.0), s(2.0, 5.0)];
        let front = pareto_front(&scores);
        assert_eq!(front, vec![1], "one size ⇒ one winner");
        assert_eq!(front[0], Objective::Time.select(&scores).0);
    }

    #[test]
    fn textual_form_round_trips() {
        for o in [
            Objective::Time,
            Objective::CodeBytes,
            Objective::Weighted { w: 0.25 },
            Objective::Pareto,
        ] {
            let text = o.to_string();
            assert_eq!(text.parse::<Objective>().unwrap(), o, "{text}");
        }
        assert!("warp".parse::<Objective>().is_err());
        assert!("weighted:1.5".parse::<Objective>().is_err());
        assert!("weighted:nan".parse::<Objective>().is_err());
    }

    #[test]
    fn canonical_form_round_trips_and_refuses_junk() {
        for o in [
            Objective::Time,
            Objective::CodeBytes,
            Objective::Weighted { w: 0.75 },
            Objective::Pareto,
        ] {
            let mut buf = Vec::new();
            o.write_canonical(&mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(Objective::read_canonical(&mut r), Ok(o));
            assert!(r.at_end());
        }
        let mut buf = Vec::new();
        write_u64(&mut buf, 9); // unknown tag
        write_f64(&mut buf, 0.0);
        assert_eq!(
            Objective::read_canonical(&mut Reader::new(&buf)),
            Err(WireError::BadValue("unknown objective tag"))
        );
        assert_eq!(
            Objective::read_canonical(&mut Reader::new(&buf[..4])),
            Err(WireError::Truncated { at: 0 })
        );
        assert_eq!(
            Objective::read_canonical(&mut Reader::new(&buf[..12])),
            Err(WireError::Truncated { at: 8 })
        );
    }

    #[test]
    fn serde_round_trips_through_the_textual_form() {
        let o = Objective::Weighted { w: 0.5 };
        let v = o.serialize_value();
        assert_eq!(v, Value::Str("weighted:0.5".to_string()));
        assert_eq!(Objective::deserialize_value(&v), Ok(o));
        assert!(Objective::deserialize_value(&Value::Str("bogus".into())).is_err());
        let sc = Score::new(1.5, f64::INFINITY);
        let back = Score::deserialize_value(&sc.serialize_value()).unwrap();
        assert_eq!(back.time, 1.5);
        // Non-finite components survive the JSON null convention.
        assert!(back.code_bytes.is_infinite());
    }
}
