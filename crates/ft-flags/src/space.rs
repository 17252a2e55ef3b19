//! The compiler optimization space (COS).

use crate::cv::Cv;
use crate::flag::{FlagDomain, FlagId, FlagSpec};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An ordered collection of tunable flags plus the fixed (never tuned)
/// command-line prefix.
///
/// The paper's space has 33 Intel-compiler flags with
/// `|COS| ≈ 2.3e13`; [`FlagSpace::icc`] reproduces that scale
/// (`≈ 1.8e13`, asserted by tests). [`FlagSpace::gcc`] is the smaller
/// GCC-like space used for the Figure 1 combined-elimination
/// experiment. Floating-point related flags are deliberately absent and
/// `-fp-model source` is pinned in the fixed prefix, mirroring the
/// paper's strict FP-reproducibility rule (§3.2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlagSpace {
    name: &'static str,
    flags: Vec<FlagSpec>,
    fixed: Vec<&'static str>,
}

impl FlagSpace {
    /// The 33-flag ICC-like space used throughout the paper.
    ///
    /// ```
    /// use ft_flags::FlagSpace;
    /// let space = FlagSpace::icc();
    /// assert_eq!(space.len(), 33);
    /// assert!(space.size() > 1e12); // |COS| ~ 1e13
    /// let cmd = space.baseline().render(&space);
    /// assert!(cmd.starts_with("-qopenmp -fp-model source -O3"));
    /// ```
    pub fn icc() -> Self {
        use FlagDomain::*;
        let flags = vec![
            FlagSpec::named("O", OptLevel, &["3", "2"])
                .with_help("overall optimization level; O3 is the evaluation baseline"),
            FlagSpec::binary("vec", Vectorization, true)
                .with_help("auto-vectorization master switch (-no-vec disables)"),
            FlagSpec::named("simd-width", Vectorization, &["default", "128", "256"])
                .with_help("force generated SIMD width; default lets the vectorizer pick"),
            FlagSpec::ints("qopt-vec-threshold", Vectorization, &[100, 0, 25, 50, 75])
                .with_help("minimum estimated % speedup before a loop is vectorized"),
            FlagSpec::ints_with_default("unroll", Unrolling, &[0, 2, 4, 8, 16])
                .with_help("loop unroll factor; 0 disables, default uses the heuristic"),
            FlagSpec::binary("unroll-aggressive", Unrolling, false)
                .with_help("double the chosen unroll factor"),
            FlagSpec::binary("ipo", Ipo, false)
                .with_help("inter-procedural optimization across modules at link time"),
            FlagSpec::ints("inline-level", Inlining, &[2, 0, 1])
                .with_help("inlining depth (0 = off, 2 = full)"),
            FlagSpec::ints("inline-factor", Inlining, &[100, 25, 50, 200])
                .with_help("inline size budget relative to the default (percent)"),
            FlagSpec::named(
                "qopt-streaming-stores",
                StreamingStores,
                &["auto", "always", "never"],
            )
            .with_help("non-temporal store generation policy"),
            FlagSpec::binary("ansi-alias", Aliasing, true)
                .with_help("assume strict (ANSI) aliasing rules"),
            FlagSpec::ints("qopt-prefetch", Prefetch, &[2, 0, 1, 3, 4])
                .with_help("software prefetch aggressiveness (0-4)"),
            FlagSpec::binary("scalar-rep", Scalar, true)
                .with_help("scalar replacement of array references"),
            FlagSpec::ints("qopt-mem-layout-trans", Layout, &[2, 0, 1, 3])
                .with_help("memory layout transformation level (0-3)"),
            FlagSpec::binary("fuse-loops", LoopRestructure, true)
                .with_help("fuse adjacent compatible loops"),
            FlagSpec::binary("sw-pipelining", Codegen, true)
                .with_help("software pipelining of loop bodies"),
            FlagSpec::named("isched", Codegen, &["default", "aggressive"])
                .with_help("instruction scheduling aggressiveness (IO in Table 3)"),
            FlagSpec::named("isel", Codegen, &["default", "size", "speed"])
                .with_help("instruction selection strategy (IS in Table 3)"),
            FlagSpec::binary("regalloc-aggressive", Codegen, false)
                .with_help("aggressive register allocation (fewer spills, more pressure)"),
            FlagSpec::ints_with_default("align-loops", Codegen, &[8, 16, 32, 64])
                .with_help("align loop heads to the given byte boundary"),
            FlagSpec::binary("code-hoisting", Scalar, true)
                .with_help("hoist common code out of branches"),
            FlagSpec::binary("gcse", Scalar, true)
                .with_help("global common-subexpression elimination"),
            FlagSpec::binary("licm", Scalar, true).with_help("loop-invariant code motion"),
            FlagSpec::binary("tail-dup", Codegen, false)
                .with_help("tail duplication to lengthen scheduling regions"),
            FlagSpec::binary("branch-combine", Codegen, true)
                .with_help("combine and simplify branch sequences"),
            FlagSpec::named(
                "if-convert",
                LoopRestructure,
                &["default", "off", "aggressive"],
            )
            .with_help("if-conversion (branches to predicated code)"),
            FlagSpec::named(
                "loop-multiversion",
                LoopRestructure,
                &["default", "off", "aggressive"],
            )
            .with_help("loop multi-versioning for runtime specialization"),
            FlagSpec::binary("collapse-loops", LoopRestructure, false)
                .with_help("collapse perfect loop nests into one loop"),
            FlagSpec::binary("align-structs", Layout, false)
                .with_help("pad/align structure layouts"),
            FlagSpec::binary("opt-matmul", LoopRestructure, false)
                .with_help("recognize and specialize matrix-multiply patterns"),
            FlagSpec::binary("jump-tables", Codegen, true)
                .with_help("lower dense switches to jump tables"),
            FlagSpec::binary("unroll-jam", Unrolling, false)
                .with_help("unroll-and-jam outer loops"),
            FlagSpec::binary("distribute-loops", LoopRestructure, false)
                .with_help("split loops to separate vectorizable parts"),
        ];
        assert_eq!(flags.len(), 33, "paper tunes exactly 33 flags");
        FlagSpace {
            name: "icc",
            flags,
            fixed: vec!["-qopenmp", "-fp-model source"],
        }
    }

    /// A GCC-like space (binary `-f...` switches plus the O level) used
    /// by the Figure 1 combined-elimination comparison.
    pub fn gcc() -> Self {
        use FlagDomain::*;
        let mut flags = vec![FlagSpec::named("O", OptLevel, &["3", "2"])];
        let binaries: &[(&'static str, FlagDomain)] = &[
            ("ftree-vectorize", Vectorization),
            ("ftree-slp-vectorize", Vectorization),
            ("funroll-loops", Unrolling),
            ("fpeel-loops", Unrolling),
            ("fipa-cp-clone", Ipo),
            ("fipa-pta", Ipo),
            ("finline-functions", Inlining),
            ("fearly-inlining", Inlining),
            ("fstrict-aliasing", Aliasing),
            ("fprefetch-loop-arrays", Prefetch),
            ("fgcse-after-reload", Scalar),
            ("ftree-loop-im", Scalar),
            ("ftree-pre", Scalar),
            ("fpredictive-commoning", LoopRestructure),
            ("ftree-loop-distribution", LoopRestructure),
            ("fsplit-loops", LoopRestructure),
            ("funswitch-loops", LoopRestructure),
            ("fsched-pressure", Codegen),
            ("fschedule-insns", Codegen),
            ("fira-hoist-pressure", Codegen),
            ("freorder-blocks-and-partition", Codegen),
            ("falign-loops", Codegen),
            ("ftree-partial-pre", Scalar),
            ("fgraphite-identity", Layout),
        ];
        for (name, domain) in binaries {
            flags.push(FlagSpec::binary(name, *domain, true));
        }
        FlagSpace {
            name: "gcc",
            flags,
            fixed: vec!["-fopenmp"],
        }
    }

    /// Space name (`"icc"` or `"gcc"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of tunable flags.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// True when the space has no flags.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// The flag at index `id`.
    pub fn flag(&self, id: FlagId) -> &FlagSpec {
        &self.flags[id]
    }

    /// All flags, in index order.
    pub fn flags(&self) -> &[FlagSpec] {
        &self.flags
    }

    /// Fixed command-line prefix (OpenMP and FP-model pins).
    pub fn fixed_flags(&self) -> &[&'static str] {
        &self.fixed
    }

    /// Looks up a flag index by name.
    pub fn index_of(&self, name: &str) -> Option<FlagId> {
        self.flags.iter().position(|f| f.name == name)
    }

    /// `|COS|` — the product of all flag arities, as `f64` (the exact
    /// integer overflows `u64` readability-wise but not numerically; we
    /// keep `f64` for reporting).
    pub fn size(&self) -> f64 {
        self.flags.iter().map(|f| f.arity() as f64).product()
    }

    /// Samples a CV uniformly: every flag value is chosen with equal
    /// probability (paper §3.2).
    ///
    /// ```
    /// use ft_flags::{FlagSpace, rng::rng_for};
    /// let space = FlagSpace::icc();
    /// let cv = space.sample(&mut rng_for(42, "doc"));
    /// assert_eq!(cv.len(), 33);
    /// // Sampling is seed-deterministic:
    /// assert_eq!(cv, space.sample(&mut rng_for(42, "doc")));
    /// ```
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Cv {
        let values = self
            .flags
            .iter()
            .map(|f| rng.gen_range(0..f.arity()) as u8)
            .collect();
        Cv::new(self, values)
    }

    /// Samples `k` CVs uniformly and independently.
    pub fn sample_many<R: Rng>(&self, k: usize, rng: &mut R) -> Vec<Cv> {
        (0..k).map(|_| self.sample(rng)).collect()
    }

    /// The `-O3` baseline vector.
    pub fn baseline(&self) -> Cv {
        Cv::baseline(self)
    }

    /// All single-flag mutations of `cv` (used by hill-climbing
    /// baselines and the critical-flag elimination case study).
    pub fn neighbors(&self, cv: &Cv) -> Vec<Cv> {
        let mut out = Vec::new();
        for id in 0..self.len() {
            for v in 0..self.flag(id).arity() as u8 {
                if v != cv.get(id) {
                    out.push(cv.with(self, id, v));
                }
            }
        }
        out
    }

    /// A binarized copy of the space: every multi-valued flag is
    /// truncated to its first two values. The COBAYN baseline can only
    /// infer binary flags (paper §4.2.1), so it operates on this view.
    pub fn binarized(&self) -> FlagSpace {
        let flags = self
            .flags
            .iter()
            .map(|f| {
                let mut nf = f.clone();
                nf.values.truncate(2);
                nf
            })
            .collect();
        FlagSpace {
            name: self.name,
            flags,
            fixed: self.fixed.clone(),
        }
    }

    /// Lifts a CV of the binarized space into this space (value indices
    /// are compatible by construction).
    pub fn lift_binary(&self, cv: &Cv) -> Cv {
        Cv::new(self, cv.values().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_for;

    #[test]
    fn icc_space_has_33_flags() {
        assert_eq!(FlagSpace::icc().len(), 33);
    }

    #[test]
    fn icc_space_size_matches_paper_scale() {
        // Paper: |COS| ≈ 2.3e13. Our concrete arities give ≈ 1.8e13;
        // anything within the same order of magnitude preserves the
        // search-space-explosion argument.
        let size = FlagSpace::icc().size();
        assert!(size > 5.0e12 && size < 5.0e13, "|COS| = {size:e}");
    }

    #[test]
    fn flag_names_are_unique() {
        for sp in [FlagSpace::icc(), FlagSpace::gcc()] {
            let mut names: Vec<_> = sp.flags().iter().map(|f| f.name).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(
                before,
                names.len(),
                "{} has duplicate flag names",
                sp.name()
            );
        }
    }

    #[test]
    fn lookup_known_flags() {
        let sp = FlagSpace::icc();
        for name in [
            "vec",
            "unroll",
            "ipo",
            "qopt-streaming-stores",
            "ansi-alias",
            "qopt-mem-layout-trans",
            "isel",
            "isched",
            "simd-width",
        ] {
            assert!(sp.index_of(name).is_some(), "missing flag {name}");
        }
        assert!(sp.index_of("fpack").is_none(), "-fpack is excluded (§3.2)");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let sp = FlagSpace::icc();
        let a = sp.sample_many(10, &mut rng_for(9, "s"));
        let b = sp.sample_many(10, &mut rng_for(9, "s"));
        assert_eq!(a, b);
    }

    #[test]
    fn sampling_covers_all_values() {
        // With 2000 samples every value of every flag must appear.
        let sp = FlagSpace::icc();
        let cvs = sp.sample_many(2000, &mut rng_for(1, "coverage"));
        for id in 0..sp.len() {
            for v in 0..sp.flag(id).arity() as u8 {
                assert!(
                    cvs.iter().any(|cv| cv.get(id) == v),
                    "flag {} value {v} never sampled",
                    sp.flag(id).name
                );
            }
        }
    }

    #[test]
    fn neighbors_count_matches_arity_sum() {
        let sp = FlagSpace::icc();
        let n = sp.neighbors(&sp.baseline()).len();
        let expected: usize = sp.flags().iter().map(|f| f.arity() - 1).sum();
        assert_eq!(n, expected);
    }

    #[test]
    fn binarized_space_is_all_binary() {
        let sp = FlagSpace::icc().binarized();
        assert!(sp.flags().iter().all(|f| f.arity() == 2));
        assert_eq!(sp.len(), 33);
    }

    #[test]
    fn lift_binary_round_trips() {
        let sp = FlagSpace::icc();
        let bin = sp.binarized();
        let cv = bin.sample(&mut rng_for(4, "lift"));
        let lifted = sp.lift_binary(&cv);
        assert_eq!(lifted.values(), cv.values());
    }

    #[test]
    fn gcc_space_render_uses_gcc_style() {
        let sp = FlagSpace::gcc();
        let base = sp.baseline();
        let id = sp.index_of("ftree-vectorize").unwrap();
        let s = base.with(&sp, id, 1).render(&sp);
        assert!(s.contains("-no-ftree-vectorize"), "{s}");
        assert!(s.contains("-fopenmp"), "{s}");
    }

    #[test]
    fn every_icc_flag_is_documented() {
        for f in FlagSpace::icc().flags() {
            assert!(!f.help.is_empty(), "flag {} lacks help text", f.name);
        }
    }

    #[test]
    fn o3_baseline_renders_o3() {
        let sp = FlagSpace::icc();
        let s = sp.baseline().render(&sp);
        assert!(s.contains("-O3"), "{s}");
    }
}
