//! A simulated optimizing compiler over a loop-nest IR.
//!
//! FuncyTuner's original evaluation drives the Intel C/C++ compiler
//! 17.0.4 (and GCC 5.4.0 for the Figure 1 motivation). A reproduction
//! cannot ship those toolchains, so this crate builds the closest
//! synthetic equivalent: a compiler whose **code-generation decisions**
//! (vectorization width, unroll factor, instruction
//! scheduling/selection, register allocation, streaming stores,
//! prefetching, inlining, layout transformations) are deterministic
//! functions of
//!
//! 1. the loop's structural features ([`ir::LoopFeatures`]),
//! 2. the compilation vector ([`ft_flags::Cv`]), and
//! 3. a per-loop *idiosyncrasy seed* modelling the code-structure
//!    details that coarse features cannot capture — the reason real
//!    `-O3` heuristics misfire on some loops and per-loop tuning has
//!    headroom.
//!
//! The compiler also *estimates* profitability (e.g. of vectorization)
//! with loop-specific estimation error. The true cost of the generated
//! code is computed independently by `ft-machine`'s execution model;
//! the gap between the compiler's estimate and the machine's truth is
//! exactly what iterative compilation exploits.
//!
//! [`pgo`] implements the Intel-style profile-guided optimization
//! baseline: an instrumented build collects real trip counts and call
//! targets, and a second compilation replaces the heuristic estimates
//! with measured values.

pub mod cache;
pub mod compiler;
pub mod decisions;
pub mod fault;
pub mod ir;
pub mod lru;
pub mod optreport;
pub mod pgo;
pub mod response;

pub use cache::ObjectCache;
pub use compiler::{Compiler, Personality, Target};
pub use decisions::{CodegenDecisions, CompiledModule, VecWidth};
pub use fault::FaultModel;
pub use ir::{CallEdge, IrError, LoopFeatures, MemStride, Module, ModuleId, ModuleKind, ProgramIr};
pub use lru::{CacheCapacity, LruStats, ShardedLru};
pub use optreport::{report_module, report_program};
pub use pgo::{PgoError, PgoProfile};
