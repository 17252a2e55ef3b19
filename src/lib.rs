//! # FuncyTuner — per-loop compiler-flag auto-tuning
//!
//! A from-scratch Rust reproduction of *"FuncyTuner: Auto-tuning
//! Scientific Applications With Per-loop Compilation"* (ICPP 2019).
//!
//! FuncyTuner outlines the hot OpenMP loops of a scientific program
//! into individual compilation modules, collects **per-loop runtimes**
//! for 1000 randomly sampled compiler-flag vectors with a lightweight
//! Caliper-style profiler, focuses each loop's search space on its
//! top-X flag vectors, and then measures 1000 *complete executables*
//! assembled from the focused spaces — keeping the fastest. This
//! *Caliper-guided random search* (CFR) beats per-program random
//! search, greedy per-loop assembly (which link-time interference
//! routinely breaks), OpenTuner-style ensembles, COBAYN-style Bayesian
//! networks, and compiler PGO.
//!
//! Because the original evaluation drives the Intel compiler on three
//! physical testbeds, this reproduction ships a complete **simulated
//! toolchain**: a flag-sensitive optimizing compiler, a link step with
//! inter-module interference, roofline machine models of the paper's
//! AMD Opteron / Sandy Bridge / Broadwell platforms, and program models
//! of the seven benchmarks. See `DESIGN.md` for the substitution map
//! and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```no_run
//! use funcytuner::prelude::*;
//!
//! let arch = Architecture::broadwell();
//! let workload = workload_by_name("CloverLeaf").unwrap();
//! let run = Tuner::new(&workload, &arch)
//!     .budget(1000) // K samples (paper protocol)
//!     .focus(32)    // CFR top-X pruning
//!     .seed(42)
//!     .run();
//! println!("CFR speedup over -O3: {:.1}%", (run.cfr.speedup() - 1.0) * 100.0);
//! ```
//!
//! The `repro` binary regenerates every table and figure:
//! `cargo run --release -p ft-report --bin repro -- all`.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`flags`] | the 33-flag compiler-optimization space and compilation vectors |
//! | [`compiler`] | loop IR + the simulated ICC/GCC-like optimizing compiler and PGO |
//! | [`machine`] | platform models, link-time interference, roofline execution |
//! | [`caliper`] | the Caliper-like region profiler |
//! | [`workloads`] | the seven benchmark models + real rayon mini-kernels |
//! | [`outline`] | hot-loop detection and outlining |
//! | [`tuning`] | Random / FR / Greedy / CFR and the tuning pipeline |
//! | [`baselines`] | CE, OpenTuner-like, COBAYN-like, PGO baselines |
//! | [`report`] | the table/figure reproduction registry |

pub use ft_baselines as baselines;
pub use ft_caliper as caliper;
pub use ft_compiler as compiler;
pub use ft_core as tuning;
pub use ft_flags as flags;
pub use ft_machine as machine;
pub use ft_outline as outline;
pub use ft_report as report;
pub use ft_workloads as workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use ft_baselines::{combined_elimination, opentuner_search, pgo_tune, Cobayn, FeatureMode};
    pub use ft_caliper::{Caliper, RegionGuard, VirtualClock};
    pub use ft_compiler::{CacheCapacity, LruStats};
    pub use ft_compiler::{Compiler, LoopFeatures, MemStride, Module, ProgramIr, Target};
    pub use ft_core::{
        cfr, cfr_adaptive, cfr_iterative, collect, fr_search, greedy, random_search,
    };
    pub use ft_core::{AdmissionError, CampaignSpec, ServerConfig, TenantOutcome, TuningServer};
    pub use ft_core::{
        ChaosPolicy, Journal, Supervisor, SupervisorConfig, SupervisorError, SupervisorReport,
    };
    pub use ft_core::{Convergence, MeasurementStats, ObjectStore, TuningCost};
    pub use ft_core::{EvalContext, ScheduleMode, Tuner, TuningResult, TuningRun};
    pub use ft_flags::{Cv, FlagSpace};
    pub use ft_machine::{execute, link, Architecture, ExecOptions};
    pub use ft_outline::{outline_with_defaults, HotLoopReport, OutlinedProgram};
    pub use ft_report::{all_ids, run_experiment, ReproConfig};
    pub use ft_workloads::{suite, workload_by_name, InputConfig, Workload};
}
