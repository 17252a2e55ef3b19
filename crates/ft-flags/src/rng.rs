//! Deterministic seed derivation.
//!
//! Every stochastic component in the workspace takes an explicit `u64`
//! seed. Experiments derive sub-seeds with [`derive_seed`] (SplitMix64
//! over a label hash), so adding or re-ordering one experiment never
//! perturbs the random stream of another.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// One step of the SplitMix64 generator.
///
/// SplitMix64 is a tiny, statistically solid mixing function; we use it
/// both as a stream splitter and as a cheap deterministic hash.
#[inline]
pub const fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a single value through SplitMix64 (stateless convenience).
#[inline]
pub const fn mix(v: u64) -> u64 {
    let mut s = v;
    splitmix64(&mut s)
}

/// Deterministically hashes a label (e.g. an experiment id or a loop
/// name) to a `u64` using FNV-1a followed by a SplitMix64 finalizer.
///
/// A `const fn`, so a fixed label can be hashed at compile time:
/// `const { hash_label("axis") }` is the same value a runtime call
/// returns.
pub const fn hash_label(label: &str) -> u64 {
    let bytes = label.as_bytes();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
        i += 1;
    }
    mix(h)
}

/// Derives an independent sub-seed from a root seed and a label.
pub fn derive_seed(root: u64, label: &str) -> u64 {
    derive_seed_hashed(root, hash_label(label))
}

/// [`derive_seed`] with the label already hashed through
/// [`hash_label`]. Hot paths that derive many seeds against one fixed
/// label hoist the hash once and call this instead; the result is
/// bit-identical to `derive_seed(root, label)` by construction.
#[inline]
pub fn derive_seed_hashed(root: u64, label_hash: u64) -> u64 {
    let mut s = root ^ label_hash;
    // Two rounds keep root and label bits well mixed even for small
    // integer roots.
    let a = splitmix64(&mut s);
    let b = splitmix64(&mut s);
    a ^ b.rotate_left(32)
}

/// Derives an independent sub-seed from a root seed and an index.
pub fn derive_seed_idx(root: u64, index: u64) -> u64 {
    let mut s = root ^ mix(index.wrapping_add(0x5151_5151));
    splitmix64(&mut s)
}

/// Builds a seeded [`StdRng`] from a root seed and a label.
pub fn rng_for(root: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed(root, label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn derive_seed_depends_on_label() {
        assert_ne!(derive_seed(7, "fig5a"), derive_seed(7, "fig5b"));
    }

    #[test]
    fn derive_seed_depends_on_root() {
        assert_ne!(derive_seed(7, "fig5a"), derive_seed(8, "fig5a"));
    }

    #[test]
    fn derive_seed_idx_distinct_for_small_indices() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed_idx(3, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn rng_for_reproducible() {
        let x: u64 = rng_for(1, "a").gen();
        let y: u64 = rng_for(1, "a").gen();
        assert_eq!(x, y);
    }

    #[test]
    fn hash_label_is_the_same_at_compile_time() {
        const LOOP0: u64 = hash_label("loop0");
        assert_eq!(LOOP0, hash_label(&format!("loop{}", 0)));
    }

    #[test]
    fn hash_label_spreads() {
        // Labels differing by one character must differ in hash.
        assert_ne!(hash_label("loop0"), hash_label("loop1"));
        assert_ne!(hash_label(""), hash_label(" "));
    }
}
