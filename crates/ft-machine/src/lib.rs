//! Architecture models, the roofline execution model, and the
//! link-time interference model.
//!
//! This crate is the "hardware + linker" half of the simulated
//! toolchain. Given modules compiled by `ft-compiler`, it:
//!
//! 1. **links** them ([`link::LinkPlan`], built once per program and
//!    architecture, or the one-off [`link::link`]) — computing
//!    instruction-cache pressure from the aggregate hot code size,
//!    layout/aliasing conflicts between modules that share data
//!    structures, vector-ABI transition costs on cross-module calls,
//!    and (crucially)
//!    *link-time-optimization overrides*: when an executable mixes
//!    heterogeneous compilation vectors, the IPO linker may re-derive
//!    codegen decisions for a module, invalidating the per-module
//!    choices. This is the inter-module dependence the paper
//!    demonstrates (G.realized ≪ G.Independent, §4.4 observation 3);
//! 2. **executes** the linked program ([`exec::execute`]) on one of
//!    three architecture models ([`arch::Architecture`]) reproducing
//!    Table 2's AMD Opteron, Intel Sandy Bridge, and Intel Broadwell
//!    platforms — a roofline model with OpenMP thread scaling,
//!    SIMD-width- and divergence-aware compute throughput, streaming
//!    stores, prefetch, spill costs, and lognormal measurement noise;
//! 3. optionally records per-loop times through `ft-caliper`
//!    ([`exec::execute_profiled`]), as the outliner's `-O3` profiling
//!    run does; the lane kernel's per-module output
//!    ([`batch::execute_batch`]) carries the same bits for the
//!    per-loop data collection.

pub mod arch;
pub mod batch;
pub mod exec;
pub mod link;
pub mod noise;
pub mod roofline;

pub use arch::Architecture;
pub use batch::{execute_batch, execute_batch_total, BatchPlan, BatchTimes, ExecShape};
pub use exec::{
    breakdown, execute, execute_profiled, execute_total, roll_run_fault, try_execute, ExecOptions,
    FaultQuarantine, LoopCost, RunFault, RunMeasurement, RunOutcome, DEFAULT_HANG_CHARGE_FACTOR,
};
pub use link::{link, LinkPlan, LinkedProgram, LtoOverride};
pub use roofline::{analyze as roofline_analyze, Bound, LoopRoofline};
