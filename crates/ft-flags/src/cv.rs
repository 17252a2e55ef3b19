//! Compilation vectors: points in a [`crate::FlagSpace`].

use crate::rng::mix;
use crate::space::FlagSpace;
use serde::{Deserialize, Serialize};

/// A compilation vector — one value index per flag of a [`FlagSpace`].
///
/// Index `0` is always the `-O3` baseline value of the flag, so
/// [`Cv::baseline`] is the all-zeros vector. A `Cv` is only meaningful
/// with respect to the space it was sampled from; all methods taking a
/// space assert compatible lengths.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Cv {
    values: Vec<u8>,
}

impl Cv {
    /// Builds a CV from raw value indices. Validated against `space`.
    pub fn new(space: &FlagSpace, values: Vec<u8>) -> Self {
        assert_eq!(
            values.len(),
            space.len(),
            "CV length must match flag-space length"
        );
        for (i, v) in values.iter().enumerate() {
            assert!(
                (*v as usize) < space.flag(i).arity(),
                "value index {v} out of range for flag {}",
                space.flag(i).name
            );
        }
        Cv { values }
    }

    /// Builds a CV from raw value indices that may come from an
    /// untrusted source (e.g. a decoded wire frame): returns `None`
    /// instead of panicking when the length or any value index does
    /// not fit `space`.
    pub fn checked(space: &FlagSpace, values: Vec<u8>) -> Option<Self> {
        if values.len() != space.len() {
            return None;
        }
        for (i, v) in values.iter().enumerate() {
            if (*v as usize) >= space.flag(i).arity() {
                return None;
            }
        }
        Some(Cv { values })
    }

    /// Rebuilds a CV from raw value indices with no space at hand to
    /// check them against: the trust the serde derive extends to a
    /// deserialized checkpoint, here for the binary checkpoint-record
    /// decoder.
    pub fn from_raw(values: Vec<u8>) -> Self {
        Cv { values }
    }

    /// The `-O3` baseline vector (every flag at its default value).
    pub fn baseline(space: &FlagSpace) -> Self {
        Cv {
            values: vec![0; space.len()],
        }
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the vector has no flags (degenerate space).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value index of flag `id`.
    #[inline]
    pub fn get(&self, id: usize) -> u8 {
        self.values[id]
    }

    /// Returns a copy with flag `id` set to value index `value`.
    pub fn with(&self, space: &FlagSpace, id: usize, value: u8) -> Self {
        assert_eq!(
            self.len(),
            space.len(),
            "CV belongs to a different flag space"
        );
        assert!((value as usize) < space.flag(id).arity());
        let mut v = self.values.clone();
        v[id] = value;
        Cv { values: v }
    }

    /// Sets flag `id` to `value` in place (unchecked against arity; use
    /// [`Cv::with`] for the checked variant).
    pub fn set(&mut self, id: usize, value: u8) {
        self.values[id] = value;
    }

    /// Raw value indices.
    pub fn values(&self) -> &[u8] {
        &self.values
    }

    /// Number of flags set to a non-baseline value.
    pub fn active_flags(&self) -> usize {
        self.values.iter().filter(|v| **v != 0).count()
    }

    /// Hamming distance to another CV of the same length.
    pub fn hamming(&self, other: &Cv) -> usize {
        assert_eq!(self.len(), other.len());
        self.values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// A stable 64-bit digest of the vector, used to derive
    /// deterministic per-CV randomness in the compiler and link models.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        for (i, v) in self.values.iter().enumerate() {
            h ^= mix((u64::from(*v) << 32) | i as u64);
            h = h.rotate_left(7).wrapping_mul(0x100_0000_01b3);
        }
        mix(h)
    }

    /// Renders the full command line for this CV in `space`, including
    /// the fixed (non-tuned) prefix flags of the space.
    pub fn render(&self, space: &FlagSpace) -> String {
        assert_eq!(
            self.len(),
            space.len(),
            "CV belongs to a different flag space"
        );
        let mut parts: Vec<String> = space.fixed_flags().iter().map(|s| s.to_string()).collect();
        for (i, v) in self.values.iter().enumerate() {
            if let Some(s) = space.flag(i).render(*v as usize) {
                parts.push(s);
            }
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::FlagSpace;

    #[test]
    fn baseline_is_all_zero() {
        let sp = FlagSpace::icc();
        let cv = Cv::baseline(&sp);
        assert_eq!(cv.active_flags(), 0);
        assert_eq!(cv.len(), sp.len());
    }

    #[test]
    fn with_sets_single_flag() {
        let sp = FlagSpace::icc();
        let cv = Cv::baseline(&sp);
        let id = sp.index_of("unroll").unwrap();
        let cv2 = cv.with(&sp, id, 2);
        assert_eq!(cv2.get(id), 2);
        assert_eq!(cv2.hamming(&cv), 1);
        assert_eq!(cv2.active_flags(), 1);
    }

    #[test]
    fn checked_refuses_what_new_panics_on() {
        let sp = FlagSpace::icc();
        assert!(Cv::checked(&sp, vec![0; sp.len()]).is_some());
        assert!(Cv::checked(&sp, vec![0; sp.len() + 1]).is_none());
        assert!(Cv::checked(&sp, vec![0; sp.len().saturating_sub(1)]).is_none());
        let mut bad = vec![0u8; sp.len()];
        bad[0] = 200; // beyond any flag's arity
        assert!(Cv::checked(&sp, bad).is_none());
    }

    #[test]
    #[should_panic]
    fn with_rejects_out_of_range() {
        let sp = FlagSpace::icc();
        let cv = Cv::baseline(&sp);
        let _ = cv.with(&sp, 0, 200);
    }

    #[test]
    fn digest_changes_with_any_flag() {
        let sp = FlagSpace::icc();
        let base = Cv::baseline(&sp);
        for id in 0..sp.len() {
            let alt = base.with(&sp, id, 1);
            assert_ne!(base.digest(), alt.digest(), "flag {id} digest collision");
        }
    }

    #[test]
    fn digest_position_sensitive() {
        let sp = FlagSpace::icc();
        let base = Cv::baseline(&sp);
        let a = base.with(&sp, 1, 1);
        let b = base.with(&sp, 2, 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn render_baseline_contains_o3() {
        let sp = FlagSpace::icc();
        let s = Cv::baseline(&sp).render(&sp);
        assert!(s.contains("-qopenmp"), "fixed flags missing: {s}");
        assert!(s.contains("-fp-model source"), "fp-model missing: {s}");
    }

    #[test]
    fn serde_round_trip() {
        let sp = FlagSpace::icc();
        let mut cv = Cv::baseline(&sp);
        cv.set(3, 1);
        let json = serde_json::to_string(&cv).unwrap();
        let back: Cv = serde_json::from_str(&json).unwrap();
        assert_eq!(cv, back);
    }
}
