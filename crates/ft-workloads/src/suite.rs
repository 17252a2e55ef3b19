//! The benchmark suite: Table 1 metadata and Table 2 input tables.

use crate::input::InputConfig;
use crate::programs;
use ft_compiler::{ModuleKind, ProgramIr};
use serde::{Deserialize, Serialize};

/// Table 1 row: benchmark inventory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchMeta {
    /// Benchmark name.
    pub name: &'static str,
    /// Implementation language(s).
    pub language: &'static str,
    /// Lines of source code (thousands).
    pub loc_k: f64,
    /// Application domain.
    pub domain: &'static str,
}

/// A benchmark: its program model plus every input the paper uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Table 1 metadata.
    pub meta: BenchMeta,
    /// Reference program IR (Broadwell tuning-input scale).
    pub ir: ProgramIr,
    /// Table 2 tuning inputs, one per architecture name.
    tune: Vec<(&'static str, InputConfig)>,
    /// §4.3 small input (Broadwell).
    pub small: InputConfig,
    /// §4.3 large input (Broadwell).
    pub large: InputConfig,
}

impl Workload {
    /// The Table 2 tuning input for an architecture (by `arch.name`).
    ///
    /// Extension platforms beyond the paper's three testbeds (e.g. the
    /// AVX-512 Skylake model) reuse the Broadwell input — the largest
    /// configuration Table 2 defines.
    pub fn tuning_input(&self, arch_name: &str) -> &InputConfig {
        self.tune
            .iter()
            .find(|(a, _)| *a == arch_name)
            .or_else(|| self.tune.iter().find(|(a, _)| *a == "Broadwell"))
            .map(|(_, i)| i)
            .expect("Broadwell tuning input always present")
    }

    /// Scales the reference IR to a concrete input.
    pub fn instantiate(&self, input: &InputConfig) -> ProgramIr {
        let mut ir = self.ir.clone();
        for m in &mut ir.modules {
            match &mut m.kind {
                ModuleKind::HotLoop(f) => {
                    f.trip_count *= input.size_scale;
                    f.working_set_mb *= input.ws_scale;
                }
                ModuleKind::NonLoop {
                    seconds_per_step, ..
                } => {
                    *seconds_per_step *= input.size_scale;
                }
            }
        }
        for e in &mut ir.call_edges {
            e.calls_per_step *= input.size_scale;
        }
        ir
    }
}

fn meta(name: &'static str, language: &'static str, loc_k: f64, domain: &'static str) -> BenchMeta {
    BenchMeta {
        name,
        language,
        loc_k,
        domain,
    }
}

/// Builds one benchmark's [`Workload`].
type Build = fn() -> Workload;

/// The seven benchmarks in Table 1's order, each with the
/// constructor of its [`Workload`].
const SUITE: [(&str, Build); 7] = [
    ("LULESH", lulesh),
    ("CloverLeaf", cloverleaf),
    ("AMG", amg),
    ("Optewe", optewe),
    ("bwaves", bwaves),
    ("fma3d", fma3d),
    ("swim", swim),
];

fn lulesh() -> Workload {
    Workload {
        meta: meta("LULESH", "C++", 7.2, "Hydrodynamics"),
        ir: programs::lulesh_ir(),
        tune: vec![
            (
                "Opteron",
                InputConfig::from_mesh("tune", 120.0, 200.0, 3, 10),
            ),
            (
                "Sandy Bridge",
                InputConfig::from_mesh("tune", 150.0, 200.0, 3, 10),
            ),
            (
                "Broadwell",
                InputConfig::from_mesh("tune", 200.0, 200.0, 3, 10),
            ),
        ],
        small: InputConfig::from_mesh("small", 180.0, 200.0, 3, 10),
        large: InputConfig::from_mesh("large", 250.0, 200.0, 3, 10),
    }
}

fn cloverleaf() -> Workload {
    Workload {
        meta: meta("CloverLeaf", "C, Fortran", 14.5, "Hydrodynamics"),
        ir: programs::cloverleaf_ir(),
        tune: vec![
            (
                "Opteron",
                InputConfig::from_mesh("tune", 2000.0, 2000.0, 2, 30),
            ),
            (
                "Sandy Bridge",
                InputConfig::from_mesh("tune", 2000.0, 2000.0, 2, 30),
            ),
            (
                "Broadwell",
                InputConfig::from_mesh("tune", 2000.0, 2000.0, 2, 60),
            ),
        ],
        small: InputConfig::from_mesh("small", 1000.0, 2000.0, 2, 60),
        large: InputConfig::from_mesh("large", 4000.0, 2000.0, 2, 30),
    }
}

fn amg() -> Workload {
    Workload {
        meta: meta("AMG", "C", 113.0, "Math: linear solver"),
        ir: programs::amg_ir(),
        tune: vec![
            ("Opteron", InputConfig::from_mesh("tune", 18.0, 25.0, 3, 10)),
            (
                "Sandy Bridge",
                InputConfig::from_mesh("tune", 20.0, 25.0, 3, 10),
            ),
            (
                "Broadwell",
                InputConfig::from_mesh("tune", 25.0, 25.0, 3, 10),
            ),
        ],
        small: InputConfig::from_mesh("small", 20.0, 25.0, 3, 10),
        large: InputConfig::from_mesh("large", 30.0, 25.0, 3, 10),
    }
}

fn optewe() -> Workload {
    Workload {
        meta: meta("Optewe", "C++", 2.7, "Seismic wave simulation"),
        ir: programs::optewe_ir(),
        tune: vec![
            (
                "Opteron",
                InputConfig::from_mesh("tune", 320.0, 512.0, 3, 5),
            ),
            (
                "Sandy Bridge",
                InputConfig::from_mesh("tune", 384.0, 512.0, 3, 5),
            ),
            (
                "Broadwell",
                InputConfig::from_mesh("tune", 512.0, 512.0, 3, 5),
            ),
        ],
        small: InputConfig::from_mesh("small", 384.0, 512.0, 3, 5),
        large: InputConfig::from_mesh("large", 768.0, 512.0, 3, 5),
    }
}

fn bwaves() -> Workload {
    Workload {
        meta: meta("bwaves", "Fortran", 1.2, "Computational fluid dynamics"),
        ir: programs::bwaves_ir(),
        tune: vec![
            ("Opteron", InputConfig::new("train", 1.0, 10, "train")),
            ("Sandy Bridge", InputConfig::new("train", 1.0, 15, "train")),
            ("Broadwell", InputConfig::new("train", 1.0, 50, "train")),
        ],
        small: InputConfig::new("test", 0.05, 50, "test"),
        large: InputConfig::new("ref", 2.5, 50, "ref"),
    }
}

fn fma3d() -> Workload {
    Workload {
        meta: meta("fma3d", "Fortran", 62.0, "Mechanical simulation"),
        ir: programs::fma3d_ir(),
        tune: vec![
            ("Opteron", InputConfig::new("train", 1.0, 8, "train")),
            ("Sandy Bridge", InputConfig::new("train", 1.0, 10, "train")),
            ("Broadwell", InputConfig::new("train", 1.0, 20, "train")),
        ],
        small: InputConfig::new("test", 0.05, 20, "test"),
        large: InputConfig::new("ref", 2.0, 20, "ref"),
    }
}

fn swim() -> Workload {
    Workload {
        meta: meta("swim", "Fortran", 0.5, "Weather prediction"),
        ir: programs::swim_ir(),
        tune: vec![
            ("Opteron", InputConfig::new("train", 1.0, 20, "train")),
            ("Sandy Bridge", InputConfig::new("train", 1.0, 25, "train")),
            ("Broadwell", InputConfig::new("train", 1.0, 50, "train")),
        ],
        small: InputConfig::new("test", 0.04, 50, "test"),
        large: InputConfig::new("ref", 2.5, 50, "ref"),
    }
}

/// Builds the full seven-benchmark suite with Table 2 inputs.
pub fn suite() -> Vec<Workload> {
    SUITE.iter().map(|(_, build)| build()).collect()
}

/// Looks a workload up by benchmark name (case-sensitive, paper names).
/// Builds only the workload it returns.
pub fn workload_by_name(name: &str) -> Option<Workload> {
    SUITE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table1() {
        let s = suite();
        assert_eq!(s.len(), 7);
        let cl = &s[1];
        assert_eq!(cl.meta.language, "C, Fortran");
        assert_eq!(cl.meta.loc_k, 14.5);
        let swim = &s[6];
        assert_eq!(swim.meta.domain, "Weather prediction");
        assert_eq!(swim.meta.loc_k, 0.5);
    }

    #[test]
    fn workload_by_name_builds_the_suite_entry() {
        for w in suite() {
            assert_eq!(workload_by_name(w.meta.name), Some(w));
        }
        assert_eq!(workload_by_name("no-such-benchmark"), None);
        assert_eq!(workload_by_name("cloverleaf"), None);
    }

    #[test]
    fn tuning_inputs_follow_table2() {
        let lulesh = workload_by_name("LULESH").unwrap();
        assert_eq!(lulesh.tuning_input("Opteron").label, "120");
        assert_eq!(lulesh.tuning_input("Broadwell").label, "200");
        assert_eq!(lulesh.tuning_input("Broadwell").steps, 10);
        let cl = workload_by_name("CloverLeaf").unwrap();
        assert_eq!(cl.tuning_input("Broadwell").steps, 60);
        assert_eq!(cl.tuning_input("Opteron").steps, 30);
        let bw = workload_by_name("bwaves").unwrap();
        assert_eq!(bw.tuning_input("Sandy Bridge").steps, 15);
    }

    #[test]
    fn unknown_arch_falls_back_to_broadwell() {
        let w = workload_by_name("LULESH").unwrap();
        assert_eq!(w.tuning_input("Skylake-512").label, "200");
        assert_eq!(w.tuning_input("M1"), w.tuning_input("Broadwell"));
    }

    #[test]
    fn instantiate_scales_trip_counts() {
        let lulesh = workload_by_name("LULESH").unwrap();
        let small = lulesh.instantiate(lulesh.tuning_input("Opteron"));
        let full = lulesh.instantiate(lulesh.tuning_input("Broadwell"));
        let fs = small.modules[0].features().unwrap();
        let ff = full.modules[0].features().unwrap();
        assert!((fs.trip_count / ff.trip_count - 0.216).abs() < 1e-9);
        assert!(fs.working_set_mb < ff.working_set_mb);
    }

    #[test]
    fn instantiate_reference_is_identity() {
        let cl = workload_by_name("CloverLeaf").unwrap();
        let inst = cl.instantiate(cl.tuning_input("Broadwell"));
        assert_eq!(inst, cl.ir);
    }

    #[test]
    fn small_and_large_inputs_differ() {
        for w in suite() {
            assert!(w.small.size_scale < w.large.size_scale, "{}", w.meta.name);
        }
    }

    #[test]
    fn spec_test_inputs_are_tiny() {
        // §4.3: swim's "test" input runs < 0.01 s per step — far off the
        // tuning profile.
        let swim = workload_by_name("swim").unwrap();
        assert!(swim.small.size_scale <= 0.05);
    }
}
