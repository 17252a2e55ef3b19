//! The loop-nest intermediate representation consumed by the compiler.
//!
//! A [`ProgramIr`] is a set of compilation [`Module`]s — hot OpenMP
//! loops already outlined into individual modules (paper §3.3) plus one
//! aggregated non-loop module — connected by cross-module call edges
//! and shared data structures. The structural [`LoopFeatures`] drive
//! both the simulated compiler's decisions and the machine model's
//! true execution cost.

use serde::{Deserialize, Serialize};

/// Index of a module within its program.
pub type ModuleId = usize;

/// Dominant memory access pattern of a loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MemStride {
    /// Contiguous unit-stride accesses (stencils, streams).
    Unit,
    /// Constant non-unit stride in elements.
    Strided(u32),
    /// Indirect / gather-scatter accesses (sparse solvers).
    Indirect,
}

impl MemStride {
    /// Relative vectorization friendliness in `[0, 1]`.
    pub fn vector_friendliness(self) -> f64 {
        match self {
            MemStride::Unit => 1.0,
            MemStride::Strided(k) => (1.0 / f64::from(k.max(1))).max(0.25),
            MemStride::Indirect => 0.18,
        }
    }
}

/// Structural features of one hot loop.
///
/// Values are *per time-step of the reference input*; workload input
/// scaling multiplies trip counts and working sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopFeatures {
    /// Average iterations per invocation (across the whole iteration
    /// space, before OpenMP work-splitting).
    pub trip_count: f64,
    /// Invocations per time-step.
    pub invocations_per_step: f64,
    /// Scalar arithmetic operations per iteration.
    pub ops_per_iter: f64,
    /// Fraction of arithmetic that is floating point.
    pub fp_fraction: f64,
    /// Bytes of memory traffic per iteration (reads + writes).
    pub bytes_per_iter: f64,
    /// Fraction of memory traffic that is stores.
    pub write_fraction: f64,
    /// Dominant access pattern.
    pub stride: MemStride,
    /// Control-flow divergence within the loop body, `0..1`. High
    /// divergence forces masked/permuted vector code (paper §4.4: the
    /// `dt` kernel).
    pub divergence: f64,
    /// Independent instruction chains available per iteration.
    pub ilp: f64,
    /// True when a loop-carried dependence limits vectorization.
    pub carried_dependence: bool,
    /// True for reduction loops (sum/min/max).
    pub reduction: bool,
    /// Working set touched per time-step, MiB.
    pub working_set_mb: f64,
    /// Suitability of stores for non-temporal streaming, `0..1`.
    pub streaming: f64,
    /// Cross-module calls per iteration (interference channel).
    pub calls_out: f64,
    /// Baseline machine-code size of the loop body, bytes.
    pub base_code_bytes: f64,
    /// Fraction of the loop covered by the OpenMP parallel region.
    pub parallel_fraction: f64,
    /// Idiosyncrasy seed: code-structure details invisible to the
    /// coarse features above. Drives loop-specific compiler responses.
    pub response_seed: u64,
}

impl LoopFeatures {
    /// A neutral, compute-bound loop — convenient test fixture.
    pub fn synthetic(response_seed: u64) -> Self {
        LoopFeatures {
            trip_count: 1.0e6,
            invocations_per_step: 1.0,
            ops_per_iter: 40.0,
            fp_fraction: 0.8,
            bytes_per_iter: 48.0,
            write_fraction: 0.3,
            stride: MemStride::Unit,
            divergence: 0.05,
            ilp: 3.0,
            carried_dependence: false,
            reduction: false,
            working_set_mb: 64.0,
            streaming: 0.3,
            calls_out: 0.0,
            base_code_bytes: 600.0,
            parallel_fraction: 0.99,
            response_seed,
        }
    }

    /// Total scalar work per time-step (ops).
    pub fn ops_per_step(&self) -> f64 {
        self.trip_count * self.invocations_per_step * self.ops_per_iter
    }

    /// Total memory traffic per time-step (bytes).
    pub fn bytes_per_step(&self) -> f64 {
        self.trip_count * self.invocations_per_step * self.bytes_per_iter
    }
}

/// What a compilation module contains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModuleKind {
    /// One outlined hot loop.
    HotLoop(LoopFeatures),
    /// Everything else: scattered non-loop code whose runtime is
    /// derived, not measured (paper §3.3).
    NonLoop {
        /// Serial seconds per time-step at `-O3` on the reference
        /// machine (scaled by the machine model).
        seconds_per_step: f64,
        /// Aggregate machine-code size, bytes.
        code_bytes: f64,
    },
}

/// One compilation module (source file after outlining).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    /// Position within the program's module list.
    pub id: ModuleId,
    /// Human-readable name (`dt`, `cell3`, `non-loop`, ...).
    pub name: String,
    /// Loop or non-loop payload.
    pub kind: ModuleKind,
    /// Ids of global data structures this module reads/writes. Modules
    /// sharing a structure are coupled through layout/aliasing
    /// decisions at link time.
    pub shared_structs: Vec<u32>,
}

impl Module {
    /// Convenience constructor for a hot-loop module.
    pub fn hot_loop(id: ModuleId, name: &str, features: LoopFeatures, shared: &[u32]) -> Self {
        Module {
            id,
            name: name.to_string(),
            kind: ModuleKind::HotLoop(features),
            shared_structs: shared.to_vec(),
        }
    }

    /// Convenience constructor for the aggregated non-loop module.
    pub fn non_loop(id: ModuleId, seconds_per_step: f64, code_bytes: f64) -> Self {
        Module {
            id,
            name: "non-loop".to_string(),
            kind: ModuleKind::NonLoop {
                seconds_per_step,
                code_bytes,
            },
            shared_structs: Vec::new(),
        }
    }

    /// The loop features, if this is a hot-loop module.
    pub fn features(&self) -> Option<&LoopFeatures> {
        match &self.kind {
            ModuleKind::HotLoop(f) => Some(f),
            ModuleKind::NonLoop { .. } => None,
        }
    }

    /// Baseline code size of the module, bytes.
    pub fn base_code_bytes(&self) -> f64 {
        match &self.kind {
            ModuleKind::HotLoop(f) => f.base_code_bytes,
            ModuleKind::NonLoop { code_bytes, .. } => *code_bytes,
        }
    }
}

/// A cross-module call edge (used for vector-ABI transition costs and
/// PGO call-target profiling).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CallEdge {
    /// Calling module.
    pub from: ModuleId,
    /// Called module.
    pub to: ModuleId,
    /// Calls per time-step.
    pub calls_per_step: f64,
}

/// Why [`ProgramIr::validate`] refused a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// Module `slot` carries id `id`; ids must equal positions.
    SparseIds {
        /// Position of the offending module.
        slot: usize,
        /// Its name.
        name: String,
        /// The id it carries.
        id: ModuleId,
    },
    /// Two modules share a name.
    DuplicateName {
        /// The shared name.
        name: String,
        /// Position of the first module with it.
        first: usize,
        /// Position of the second.
        second: usize,
    },
    /// A call edge names a module past the end of the program.
    EdgeOutOfRange {
        /// Calling module.
        from: ModuleId,
        /// Called module.
        to: ModuleId,
        /// Modules in the program.
        modules: usize,
    },
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::SparseIds { slot, name, id } => write!(
                f,
                "module ids must be dense and ordered: module {slot} (`{name}`) has id {id}"
            ),
            IrError::DuplicateName {
                name,
                first,
                second,
            } => write!(
                f,
                "duplicate module name `{name}`: modules {first} and {second}"
            ),
            IrError::EdgeOutOfRange { from, to, modules } => write!(
                f,
                "call edge out of range: {from} -> {to} in a program of {modules} modules"
            ),
        }
    }
}

impl std::error::Error for IrError {}

/// A whole program after outlining: the unit the tuner operates on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramIr {
    /// Program name (`CloverLeaf`, `AMG`, ...).
    pub name: String,
    /// All modules; hot loops first by convention, non-loop last.
    pub modules: Vec<Module>,
    /// Cross-module call edges.
    pub call_edges: Vec<CallEdge>,
    /// True when PGO instrumentation fails for this program (the paper
    /// reports instrumentation-run failures for LULESH and Optewe).
    pub pgo_hostile: bool,
}

impl ProgramIr {
    /// Creates a program. Panics unless it passes
    /// [`ProgramIr::validate`]: in-tree programs are built valid.
    pub fn new(name: &str, modules: Vec<Module>, call_edges: Vec<CallEdge>) -> Self {
        let ir = ProgramIr {
            name: name.to_string(),
            modules,
            call_edges,
            pgo_hostile: false,
        };
        if let Err(e) = ir.validate() {
            panic!("{e}");
        }
        ir
    }

    /// Checks what [`ProgramIr::new`] guarantees and deserialization
    /// does not: module ids are dense and ordered (module `i` has id
    /// `i`; evaluation keys a module's objects by that position),
    /// module names are unique (per-loop profiles key a loop's time by
    /// its name) and every call edge names an existing module.
    pub fn validate(&self) -> Result<(), IrError> {
        if let Some((i, m)) = self.modules.iter().enumerate().find(|(i, m)| m.id != *i) {
            return Err(IrError::SparseIds {
                slot: i,
                name: m.name.clone(),
                id: m.id,
            });
        }
        // Programs have tens of modules: a pairwise scan costs less than
        // hashing every name, and `ProgramIr::new` runs this on every
        // in-tree program it builds.
        for (i, m) in self.modules.iter().enumerate() {
            if let Some(first) = self.modules[..i].iter().position(|p| p.name == m.name) {
                return Err(IrError::DuplicateName {
                    name: m.name.clone(),
                    first,
                    second: i,
                });
            }
        }
        let n = self.modules.len();
        if let Some(e) = self.call_edges.iter().find(|e| e.from >= n || e.to >= n) {
            return Err(IrError::EdgeOutOfRange {
                from: e.from,
                to: e.to,
                modules: n,
            });
        }
        Ok(())
    }

    /// Marks the program as PGO-instrumentation-hostile.
    pub fn with_pgo_hostile(mut self) -> Self {
        self.pgo_hostile = true;
        self
    }

    /// Number of modules (J + 1 including the non-loop module).
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True for an empty program (never valid for tuning).
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Ids of the hot-loop modules.
    pub fn hot_loop_ids(&self) -> Vec<ModuleId> {
        self.modules
            .iter()
            .filter(|m| m.features().is_some())
            .map(|m| m.id)
            .collect()
    }

    /// The hot-loop count J from the paper (5–33 across benchmarks).
    pub fn hot_loop_count(&self) -> usize {
        self.hot_loop_ids().len()
    }

    /// Looks a module up by name.
    pub fn module_by_name(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// True when two modules share at least one data structure.
    pub fn share_structs(&self, a: ModuleId, b: ModuleId) -> bool {
        let sa = &self.modules[a].shared_structs;
        let sb = &self.modules[b].shared_structs;
        sa.iter().any(|s| sb.contains(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> ProgramIr {
        let m0 = Module::hot_loop(0, "k0", LoopFeatures::synthetic(1), &[7]);
        let m1 = Module::hot_loop(1, "k1", LoopFeatures::synthetic(2), &[7, 9]);
        let m2 = Module::non_loop(2, 0.5, 40_000.0);
        ProgramIr::new(
            "tiny",
            vec![m0, m1, m2],
            vec![CallEdge {
                from: 0,
                to: 1,
                calls_per_step: 100.0,
            }],
        )
    }

    #[test]
    fn hot_loop_ids_exclude_non_loop() {
        let p = tiny_program();
        assert_eq!(p.hot_loop_ids(), vec![0, 1]);
        assert_eq!(p.hot_loop_count(), 2);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn shared_struct_detection() {
        let p = tiny_program();
        assert!(p.share_structs(0, 1));
        assert!(!p.share_structs(0, 2));
    }

    #[test]
    fn module_lookup_by_name() {
        let p = tiny_program();
        assert_eq!(p.module_by_name("k1").unwrap().id, 1);
        assert!(p.module_by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_rejected() {
        let m0 = Module::hot_loop(5, "k", LoopFeatures::synthetic(0), &[]);
        let _ = ProgramIr::new("bad", vec![m0], vec![]);
    }

    #[test]
    #[should_panic(expected = "edge out of range")]
    fn out_of_range_edge_rejected() {
        let m0 = Module::hot_loop(0, "k", LoopFeatures::synthetic(0), &[]);
        let _ = ProgramIr::new(
            "bad",
            vec![m0],
            vec![CallEdge {
                from: 0,
                to: 3,
                calls_per_step: 1.0,
            }],
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut p = tiny_program();
        p.modules[1].name = p.modules[0].name.clone();
        assert_eq!(
            p.validate(),
            Err(IrError::DuplicateName {
                name: "k0".to_string(),
                first: 0,
                second: 1,
            })
        );
        assert_eq!(
            p.validate().unwrap_err().to_string(),
            "duplicate module name `k0`: modules 0 and 1"
        );
    }

    #[test]
    fn stride_friendliness_ordering() {
        assert!(
            MemStride::Unit.vector_friendliness() > MemStride::Strided(4).vector_friendliness()
        );
        assert!(
            MemStride::Strided(4).vector_friendliness() > MemStride::Indirect.vector_friendliness()
        );
    }

    #[test]
    fn per_step_totals() {
        let f = LoopFeatures::synthetic(0);
        assert!((f.ops_per_step() - 4.0e7).abs() < 1.0);
        assert!((f.bytes_per_step() - 4.8e7).abs() < 1.0);
    }

    #[test]
    fn pgo_hostile_flag() {
        let p = tiny_program().with_pgo_hostile();
        assert!(p.pgo_hostile);
    }

    #[test]
    fn serde_round_trip() {
        let p = tiny_program();
        let json = serde_json::to_string(&p).unwrap();
        let back: ProgramIr = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
