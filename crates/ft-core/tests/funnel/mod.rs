//! The sequential reference the evaluation route is held to: the
//! per-candidate funnel that `EvalContext::evaluate` and the faulted
//! Figure-4 collection once ran, one candidate after another in batch
//! order.
//!
//! Per candidate: the compile gate (a quarantined `(module, CV)` pair
//! is skipped, an ICE is counted and quarantined), the program
//! quarantine gate, a storeless compile → link, then a scalar
//! `try_execute` loop that retries crashes under fresh derived seeds
//! and quarantines a hanging program. A collection probe records each
//! successful run into its own Caliper session and reads the hot-loop
//! times back. The funnel keeps its own model of the context's object
//! store (each distinct assignment linked once, each `(module, CV)`
//! pair compiled once), so it predicts every counter of the ledger,
//! not only the runs.

// Each suite that includes this module uses a different part of it.
#![allow(dead_code)]

use ft_caliper::Caliper;
use ft_compiler::FaultModel;
use ft_core::{EvalContext, TuningCost};
use ft_flags::rng::derive_seed_idx;
use ft_flags::Cv;
use ft_machine::{link, try_execute, ExecOptions, RunMeasurement, RunOutcome};
use std::collections::HashSet;

/// Salt of the crash-retry noise seeds.
const SALT_RETRY: u64 = 0x08E7_81E5;

/// Every counter of a context's `TuningCost` and `FaultStats`: the
/// cost ledger already carries every fault counter but `ok_runs`.
/// Machine time is kept in integer nanoseconds, so deltas are exact;
/// `cost.machine_seconds` is zeroed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ledger {
    pub cost: TuningCost,
    pub nanos: u64,
    pub ok_runs: u64,
}

impl Ledger {
    /// The ledger of `ctx` so far.
    pub fn of(ctx: &EvalContext) -> Ledger {
        Ledger {
            cost: TuningCost {
                machine_seconds: 0.0,
                ..ctx.cost()
            },
            nanos: ctx.machine_nanos_total(),
            ok_runs: ctx.fault_stats().ok_runs,
        }
    }

    /// The work between `earlier` and this snapshot.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        Ledger {
            cost: self.cost.since(&earlier.cost),
            nanos: self.nanos - earlier.nanos,
            ok_runs: self.ok_runs - earlier.ok_runs,
        }
    }

    /// Charges one run that occupied the machine for `seconds`.
    fn charge(&mut self, seconds: f64) {
        self.cost.runs += 1;
        self.nanos += (seconds * 1e9) as u64;
    }
}

/// The sequential funnel over one context's compiler, program,
/// machine, fault model, retry policy and timeout budget, with its own
/// store model and quarantine.
pub struct Funnel<'a> {
    ctx: &'a EvalContext,
    /// Run instrumented, as collection probes do.
    instrumented: bool,
    links: HashSet<Vec<u64>>,
    objects: HashSet<(usize, u64)>,
    bad_compiles: HashSet<(usize, u64)>,
    bad_programs: HashSet<u64>,
    /// The work charged so far.
    pub ledger: Ledger,
}

impl<'a> Funnel<'a> {
    /// An empty store and quarantine over `ctx`.
    pub fn new(ctx: &'a EvalContext, instrumented: bool) -> Self {
        Funnel {
            ctx,
            instrumented,
            links: HashSet::new(),
            objects: HashSet::new(),
            bad_compiles: HashSet::new(),
            bad_programs: HashSet::new(),
            ledger: Ledger {
                cost: TuningCost::zero(),
                nanos: 0,
                ok_runs: 0,
            },
        }
    }

    /// Records `assignment` as already linked, uncharged: the baseline
    /// a context measured before the batches under test.
    pub fn linked_before(&mut self, assignment: &[Cv]) {
        let digests: Vec<u64> = assignment.iter().map(Cv::digest).collect();
        self.objects.extend(digests.iter().copied().enumerate());
        self.links.insert(digests);
    }

    /// One candidate through the funnel: its measurement and its
    /// executable's code bytes, or `None` when it produced none.
    pub fn run(&mut self, assignment: &[Cv], noise_seed: u64) -> Option<(RunMeasurement, f64)> {
        let ctx = self.ctx;
        let faults = ctx.faults();
        let digests: Vec<u64> = assignment.iter().map(Cv::digest).collect();
        for (module, &digest) in digests.iter().enumerate() {
            if self.bad_compiles.contains(&(module, digest)) {
                self.ledger.cost.quarantined += 1;
                return None;
            }
            if faults.compile_fails(module, digest) {
                self.ledger.cost.compile_failures += 1;
                self.bad_compiles.insert((module, digest));
                return None;
            }
        }
        let fp = FaultModel::program_fingerprint(&digests);
        if self.bad_programs.contains(&fp) {
            self.ledger.cost.quarantined += 1;
            return None;
        }
        if self.links.insert(digests.clone()) {
            self.ledger.cost.links += 1;
            for key in digests.iter().copied().enumerate() {
                if self.objects.insert(key) {
                    self.ledger.cost.object_compiles += 1;
                } else {
                    self.ledger.cost.object_reuses += 1;
                }
            }
        } else {
            self.ledger.cost.link_reuses += 1;
        }
        let linked = link(
            ctx.compiler.compile_mixed(&ctx.ir, assignment),
            &ctx.ir,
            &ctx.arch,
        );
        let max_retries = ctx.resilience().max_retries;
        for attempt in 0..=max_retries {
            let seed = if attempt == 0 {
                noise_seed
            } else {
                derive_seed_idx(noise_seed ^ SALT_RETRY, u64::from(attempt))
            };
            let opts = ExecOptions {
                instrumented: self.instrumented,
                ..ExecOptions::new(ctx.steps, seed)
            };
            match try_execute(&linked, &ctx.arch, &opts, faults, ctx.timeout_budget()) {
                RunOutcome::Ok(meas) => {
                    self.ledger.ok_runs += 1;
                    self.ledger.charge(meas.total_s);
                    return Some((meas, linked.code_bytes()));
                }
                RunOutcome::Crash { elapsed_s } => {
                    self.ledger.cost.crashes += 1;
                    self.ledger.charge(elapsed_s);
                    if attempt < max_retries {
                        self.ledger.cost.retries += 1;
                    }
                }
                RunOutcome::Timeout { budget_s } => {
                    self.ledger.cost.timeouts += 1;
                    self.ledger.charge(budget_s);
                    self.bad_programs.insert(fp);
                    return None;
                }
                RunOutcome::CompileError { .. } => unreachable!("compile faults are gated"),
            }
        }
        None
    }

    /// One Figure-4 probe: its per-module column and end-to-end time.
    /// A successful run is recorded into a fresh Caliper session; the
    /// hot-loop times are read back from it and the non-loop time is
    /// derived by subtraction. A probe that produced no measurement is
    /// an all-`+inf` column.
    pub fn probe(&mut self, assignment: &[Cv], noise_seed: u64) -> (Vec<f64>, f64) {
        let ctx = self.ctx;
        let j_total = ctx.modules();
        let Some((meas, _)) = self.run(assignment, noise_seed) else {
            return (vec![f64::INFINITY; j_total], f64::INFINITY);
        };
        let caliper = Caliper::real_time();
        for (m, t) in ctx.ir.modules.iter().zip(&meas.per_module_s) {
            caliper.record_flat(&m.name, *t, 1);
        }
        let snap = caliper.snapshot();
        let mut column = vec![0.0; j_total];
        let mut hot_sum = 0.0;
        for j in ctx.ir.hot_loop_ids() {
            let t = snap.inclusive(&ctx.ir.modules[j].name);
            column[j] = t;
            hot_sum += t;
        }
        column[j_total - 1] = (meas.total_s - hot_sum).max(0.0);
        (column, meas.total_s)
    }
}
