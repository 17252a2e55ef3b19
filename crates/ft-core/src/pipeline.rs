//! The high-level tuning pipeline: outline → collect → search →
//! evaluate, with cross-input evaluation for the §4.3 experiments.
//!
//! # The campaign phase DAG
//!
//! The campaign's phases form a dependency DAG, not a line:
//!
//! ```text
//!              ┌─→ Collect ─┬─→ Greedy
//!   Baseline ──┼─→ Random   └─→ Cfr
//!              └─→ Fr
//! ```
//!
//! Random, FR, and the Figure-4 collection are independent given the
//! baseline; Greedy and CFR need only the collection
//! ([`Phase::predecessors`] is the one encoding of these edges).
//!
//! # One engine
//!
//! Every entry point ([`Tuner::run`], the `run_until*` and `resume*`
//! families) drives one campaign engine. Its state *is* a
//! [`CampaignCheckpoint`]: a fresh campaign starts from an empty one
//! carrying the tuner's identity, a resumed one from the validated
//! checkpoint. The engine re-measures the baseline, then runs every
//! phase the requested targets need that the state lacks, filling the
//! state's result fields as phases complete. Pausing stamps the fault
//! quarantine and the completed-phase labels into that state;
//! finishing moves its fields into a [`TuningRun`].
//!
//! One phase table (`Tuner::run_phase`) is the only caller of
//! `collect`, `random_search`, `fr_search`, `greedy` and `cfr`, and
//! derives each phase's sub-seed as `derive_seed(root, phase.label())`.
//! Both schedules walk it:
//!
//! * [`ScheduleMode::Serial`] runs the pending phases one at a time in
//!   [`Phase::ALL`] order and attributes each one's ledger delta.
//! * [`ScheduleMode::Overlapped`] spawns one scoped thread per pending
//!   phase on one shared [`EvalContext`]; each thread waits only on
//!   the predecessors it still needs, so `{Collect ∥ Random ∥ Fr}` and
//!   then `{Greedy ∥ Cfr}` run concurrently.
//!
//! Because every phase draws its RNG and noise streams from its own
//! sub-seed, the overlapped run is **bit-identical** to the serial
//! one. The shared caches only memoize values that are pure functions
//! of their keys, and the ledger counters are atomic, so the only
//! schedule-dependent artifacts are wall-clock spans and *attribution*
//! of injected faults between `quarantined` and first-discovery
//! counters (never the fault's `+inf` value itself).
//!
//! The context recipe (`Tuner::prepare`: instantiate, step cap,
//! outline, and the context with its fault model, retry policy and
//! objective) is shared too: the coordinator adds its caches and
//! worker plane on top, and every worker, in-process or a child
//! process, rebuilds its context through [`HelloSpec::context`].
//!
//! Each search phase is a [`crate::search::SearchStrategy`] run by the
//! shared [`crate::search::SearchDriver`]: the phase table only picks
//! budgets and sub-seeds; proposing, evaluating, and winner
//! materialization live in the driver (DESIGN.md §11).

use crate::algorithms::{cfr, fr_search, greedy, random_search, GreedyOutcome};
use crate::checkpoint::{CampaignCheckpoint, CheckpointError};
use crate::collection::{collect, CollectionData};
use crate::cost::TuningCost;
use crate::ctx::{EvalContext, FaultStats, ResilienceConfig};
use crate::objective::Objective;
use crate::remote::{
    HelloSpec, InProcessTransport, ProcessTransport, RemotePlane, Transport, WorkerFactory,
};
use crate::result::TuningResult;
use crate::store::ObjectStore;
use crate::supervisor::ChaosPolicy;
use ft_compiler::lru::CacheCapacity;
use ft_compiler::{Compiler, FaultModel, ProgramIr};
use ft_flags::rng::{derive_seed, derive_seed_idx, splitmix64};
use ft_flags::Cv;
use ft_machine::Architecture;
use ft_outline::{outline_with_defaults, outline_with_hot_set, HotLoopReport, OutlinedProgram};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Campaign phases. Their dependency structure is a DAG (see the
/// module docs), **not** a total order — which is why this enum
/// deliberately does not implement `Ord`: "phase A before phase B"
/// is only meaningful along [`Phase::predecessors`] edges, and
/// `run_until(Phase::Fr)` does *not* imply Random ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// `-O3` baseline measurement (also fixes the timeout reference).
    Baseline,
    /// Figure-4 per-loop collection.
    Collect,
    /// Per-program random search.
    Random,
    /// Per-function random search.
    Fr,
    /// Greedy combination.
    Greedy,
    /// FuncyTuner CFR.
    Cfr,
}

impl Phase {
    /// Every phase, in the canonical (serial-schedule) order.
    pub const ALL: [Phase; 6] = [
        Phase::Baseline,
        Phase::Collect,
        Phase::Random,
        Phase::Fr,
        Phase::Greedy,
        Phase::Cfr,
    ];

    /// Stable lowercase label. It doubles as the phase's sub-seed tag
    /// (`derive_seed(root, label)`) and as the interleaving stress
    /// knob's delay tag.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Baseline => "baseline",
            Phase::Collect => "collect",
            Phase::Random => "random",
            Phase::Fr => "fr",
            Phase::Greedy => "greedy",
            Phase::Cfr => "cfr",
        }
    }

    /// Direct dependencies: the phases whose *results* this phase
    /// consumes. Everything needs the baseline (it is the speedup
    /// denominator and the timeout reference); Greedy and CFR
    /// additionally need the collection — and nothing else.
    pub fn predecessors(self) -> &'static [Phase] {
        match self {
            Phase::Baseline => &[],
            Phase::Collect | Phase::Random | Phase::Fr => &[Phase::Baseline],
            Phase::Greedy | Phase::Cfr => &[Phase::Baseline, Phase::Collect],
        }
    }

    /// Transitive dependency closure (excluding `self`), in canonical
    /// order.
    pub fn requires(self) -> Vec<Phase> {
        let need = closure(&[self]);
        Phase::ALL
            .into_iter()
            .filter(|p| *p != self && need[p.index()])
            .collect()
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Marks every phase in the transitive dependency closure of
/// `targets` (including the targets themselves), indexed by
/// `Phase as usize`.
fn closure(targets: &[Phase]) -> [bool; 6] {
    let mut need = [false; 6];
    let mut stack: Vec<Phase> = targets.to_vec();
    while let Some(p) = stack.pop() {
        if !need[p.index()] {
            need[p.index()] = true;
            stack.extend_from_slice(p.predecessors());
        }
    }
    need
}

/// How the campaign maps its phase DAG onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// One phase at a time, in [`Phase::ALL`] order (the historical
    /// behavior; per-phase machine cost is attributable).
    #[default]
    Serial,
    /// DAG stages run concurrently on `std::thread::scope`:
    /// `{Collect ∥ Random ∥ Fr}`, then `{Greedy ∥ Cfr}` as soon as the
    /// collection lands. Bit-identical results; see the module docs.
    Overlapped,
}

/// One phase's slot in the campaign timeline. Wall-clock offsets are
/// relative to the campaign start and are *not* deterministic (they
/// are excluded from [`TuningRun::canonical_bytes`]); the machine-time
/// attribution is deterministic but only exists for serial schedules,
/// where the ledger delta around a phase is unambiguous.
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// Which phase.
    pub phase: Phase,
    /// Wall-clock start, seconds since campaign start.
    pub start_s: f64,
    /// Wall-clock end, seconds since campaign start.
    pub end_s: f64,
    /// Simulated machine seconds this phase consumed (`None` under an
    /// overlapped schedule, where concurrent phases share the ledger).
    pub machine_seconds: Option<f64>,
    /// Charged runs this phase performed (`None` when overlapped).
    pub runs: Option<u64>,
}

impl PhaseSpan {
    /// Wall-clock duration of the phase, seconds.
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// How the campaign's phases were scheduled, and what each cost.
/// Restored (checkpointed) phases have no span — they did not run.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// The schedule the phases actually ran under.
    pub mode: ScheduleMode,
    /// Per-phase slots, in canonical phase order.
    pub spans: Vec<PhaseSpan>,
    /// End-to-end campaign wall time, seconds (process time, not
    /// simulated machine time).
    pub total_wall_s: f64,
}

impl ScheduleReport {
    /// The span of one phase, if it ran (vs was restored/skipped).
    pub fn span(&self, phase: Phase) -> Option<&PhaseSpan> {
        self.spans.iter().find(|s| s.phase == phase)
    }

    /// Machine seconds attributed to `phase`: 0 when the phase did not
    /// run, `None` when it ran without attribution (overlapped mode).
    fn attributed(&self, phase: Phase) -> Option<f64> {
        match self.span(phase) {
            None => Some(0.0),
            Some(s) => s.machine_seconds,
        }
    }

    /// Total simulated machine time of a serial schedule: the sum of
    /// every phase's attribution. This is what the campaign costs on
    /// the testbed when phases run back to back.
    pub fn machine_serial_s(&self) -> Option<f64> {
        if self.spans.is_empty() {
            return None;
        }
        Phase::ALL
            .into_iter()
            .try_fold(0.0, |acc, p| Some(acc + self.attributed(p)?))
    }

    /// Modeled testbed wall time of the overlapped schedule: the
    /// critical path of the DAG,
    /// `baseline + max(collect, random, fr) + max(greedy, cfr)`,
    /// assuming each stage's phases run on their own machine. Because
    /// overlapped results are bit-identical to serial ones, a serial
    /// run's attribution models the overlapped schedule exactly.
    pub fn machine_critical_path_s(&self) -> Option<f64> {
        let stage1 = [Phase::Collect, Phase::Random, Phase::Fr];
        let stage2 = [Phase::Greedy, Phase::Cfr];
        let max_of = |phases: &[Phase]| -> Option<f64> {
            phases
                .iter()
                .try_fold(0.0f64, |acc, p| Some(acc.max(self.attributed(*p)?)))
        };
        Some(self.attributed(Phase::Baseline)? + max_of(&stage1)? + max_of(&stage2)?)
    }

    /// Modeled machine-time speedup of overlapping the phases:
    /// serial total over critical path.
    pub fn modeled_overlap_speedup(&self) -> Option<f64> {
        let serial = self.machine_serial_s()?;
        let critical = self.machine_critical_path_s()?;
        if critical <= 0.0 {
            return None;
        }
        Some(serial / critical)
    }
}

/// Builder for a full FuncyTuner run.
///
/// ```no_run
/// use ft_core::Tuner;
/// use ft_machine::Architecture;
/// use ft_workloads::workload_by_name;
///
/// let arch = Architecture::broadwell();
/// let w = workload_by_name("CloverLeaf").unwrap();
/// let run = Tuner::new(&w, &arch).budget(1000).focus(32).seed(42).run();
/// println!("CFR speedup over -O3: {:.3}", run.cfr.speedup());
/// ```
pub struct Tuner<'a> {
    workload: &'a ft_workloads::Workload,
    arch: &'a Architecture,
    budget: usize,
    focus: usize,
    seed: u64,
    steps_cap: Option<u32>,
    faults: FaultModel,
    objective: Objective,
    resilience: ResilienceConfig,
    schedule: ScheduleMode,
    interleave: Option<u64>,
    cache_capacity: CacheCapacity,
    store: Option<Arc<ObjectStore>>,
    workers: usize,
    worker_exe: Option<std::path::PathBuf>,
    worker_chaos: ChaosPolicy,
}

impl<'a> Tuner<'a> {
    /// Starts a tuner for a workload on an architecture, using the
    /// Table 2 tuning input.
    pub fn new(workload: &'a ft_workloads::Workload, arch: &'a Architecture) -> Self {
        Tuner {
            workload,
            arch,
            budget: 1000,
            focus: 32,
            seed: 42,
            steps_cap: None,
            faults: FaultModel::zero(),
            objective: Objective::Time,
            resilience: ResilienceConfig::default(),
            schedule: ScheduleMode::default(),
            interleave: None,
            cache_capacity: CacheCapacity::Unbounded,
            store: None,
            workers: 0,
            worker_exe: None,
            worker_chaos: ChaosPolicy::Off,
        }
    }

    /// Caps the per-run time-step count (quick-reproduction mode; the
    /// paper itself trims steps to keep runs under 40 s, §3.1).
    pub fn cap_steps(mut self, cap: u32) -> Self {
        self.steps_cap = Some(cap);
        self
    }

    /// Sample budget K (paper: 1000).
    pub fn budget(mut self, k: usize) -> Self {
        assert!(k >= 2, "budget too small");
        self.budget = k;
        self
    }

    /// CFR focus width X (paper: 1 < X << 1000).
    pub fn focus(mut self, x: usize) -> Self {
        assert!(x >= 1);
        self.focus = x;
        self
    }

    /// Root seed; every derived stage gets an independent sub-seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs an injected-fault model; the evaluation harness then
    /// retries transient crashes, budgets hangs, and quarantines
    /// known-bad CVs. The default all-zero model keeps every value
    /// bit-identical to the infallible toolchain.
    pub fn faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Selects what the campaign optimizes (see [`Objective`]). The
    /// default [`Objective::Time`] is the paper's setting and keeps
    /// every value bit-identical to the pre-objective pipeline; the
    /// objective is checkpoint identity, like the seed.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Overrides the harness retry/timeout policy.
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Selects how the phase DAG maps onto threads. Results are
    /// bit-identical across modes; only wall-clock differs.
    pub fn schedule(mut self, mode: ScheduleMode) -> Self {
        self.schedule = mode;
        self
    }

    /// Shorthand for [`Tuner::schedule`] with
    /// [`ScheduleMode::Overlapped`].
    pub fn overlap_phases(self) -> Self {
        self.schedule(ScheduleMode::Overlapped)
    }

    /// Interleaving stress knob (overlapped mode only): permutes the
    /// thread spawn order and staggers phase starts by a few
    /// seed-derived milliseconds. Exists to let the equivalence suite
    /// prove order-independence — results must not change for *any*
    /// value.
    pub fn interleave(mut self, seed: u64) -> Self {
        self.interleave = Some(seed);
        self
    }

    /// Bounds the campaign's private object store (LRU eviction past
    /// `capacity`; ignored when [`Tuner::shared_store`] binds a shared
    /// one). Capacity is *not* part of the checkpoint identity:
    /// eviction is result-invariant, so a campaign may be checkpointed
    /// under one capacity and resumed under another, bit-identically —
    /// the `cache_equivalence` suite proves it.
    pub fn cache_capacity(mut self, capacity: CacheCapacity) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Evaluates through an [`ObjectStore`] shared with other
    /// campaigns/contexts (the daemon's tenants) instead of a
    /// campaign-private one.
    /// Sharing is result-invariant (content-fingerprint keys; pure
    /// compile/link functions); the fault quarantine stays private.
    pub fn shared_store(mut self, store: Arc<ObjectStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Shards every search-driver evaluation batch across `n`
    /// in-process workers behind the real CRC-framed byte protocol
    /// (see [`crate::remote`]). Topology is *not* checkpoint identity:
    /// every measured bit is worker-count invariant, proved by the
    /// `topology_equivalence` suite. Baseline and collection probes
    /// stay on the coordinator. Each worker rebuilds its context from
    /// a [`HelloSpec`] (see [`HelloSpec::context`]), so the workload
    /// must be a suite workload and the architecture one
    /// [`crate::server::arch_by_name`] resolves.
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n >= 1, "a distributed plane needs at least one worker");
        self.workers = n;
        self.worker_exe = None;
        self
    }

    /// Like [`Tuner::workers`], but each worker is a separate `exe
    /// worker` child process speaking the same protocol over pipes
    /// (the `ftune tune --workers N` path).
    pub fn process_workers(mut self, n: usize, exe: impl Into<std::path::PathBuf>) -> Self {
        assert!(n >= 1, "a distributed plane needs at least one worker");
        self.workers = n;
        self.worker_exe = Some(exe.into());
        self
    }

    /// Installs a worker-kill chaos policy on the distributed plane
    /// (no effect without [`Tuner::workers`]): workers die at
    /// policy-selected batch boundaries and the coordinator must
    /// respawn, re-sync, and resend — bit-identically.
    pub fn worker_chaos(mut self, chaos: ChaosPolicy) -> Self {
        self.worker_chaos = chaos;
        self
    }

    /// Runs profiling, outlining, collection and all four algorithms.
    pub fn run(self) -> TuningRun {
        let fresh = self.fresh_checkpoint();
        self.advance(fresh, &Phase::ALL).finish()
    }

    /// Runs the campaign up to and including `stop_after` *and its
    /// dependency closure* — nothing else — then freezes it into a
    /// checkpoint: the state a periodic checkpointer would have
    /// written right before the campaign was killed. Feed it to
    /// [`Tuner::resume`] to finish.
    ///
    /// Only DAG predecessors are implied: `run_until(Phase::Fr)` runs
    /// baseline and FR, and leaves Collect, Random, Greedy, and CFR
    /// untouched.
    pub fn run_until(self, stop_after: Phase) -> CampaignCheckpoint {
        self.run_until_phases(&[stop_after])
    }

    /// Multi-target [`Tuner::run_until`]: completes every listed phase
    /// (plus dependency closures) and pauses at that DAG join point.
    /// `run_until_phases(&[Phase::Random])` models a checkpoint taken
    /// while Collect and FR are still in flight under an overlapped
    /// schedule: their results are simply absent and recompute on
    /// resume.
    pub fn run_until_phases(self, stop_after: &[Phase]) -> CampaignCheckpoint {
        self.run_until_phases_costed(stop_after).checkpoint
    }

    /// [`Tuner::run_until_phases`] plus the ledger: returns the
    /// checkpoint together with the exact [`TuningCost`] and
    /// [`FaultStats`] this call charged. The multi-tenant server uses
    /// this to bill each tenant segment by segment — the plain variant
    /// discards the ledger with the evaluation context.
    pub fn run_until_phases_costed(self, stop_after: &[Phase]) -> PausedCampaign {
        let fresh = self.fresh_checkpoint();
        self.advance(fresh, stop_after).pause()
    }

    /// Resumes a killed campaign from a checkpoint: completed phases
    /// (baseline, collection, finished searches) are reused, the fault
    /// quarantine is re-seeded, and only the remaining phases run.
    /// Because each phase's seeds derive independently from the root
    /// seed, the result is bit-identical to an uninterrupted run.
    ///
    /// Fails with [`CheckpointError::Mismatch`] when the checkpoint
    /// was taken under a different workload, architecture, budget,
    /// focus, seed, step cap, or fault model, and with
    /// [`CheckpointError::Phases`] when its phase list is invalid.
    pub fn resume(self, checkpoint: CampaignCheckpoint) -> Result<TuningRun, CheckpointError> {
        self.validate(&checkpoint)?;
        Ok(self.advance(checkpoint, &Phase::ALL).finish())
    }

    /// Resume *and* pause in one call: restores `checkpoint`, completes
    /// every listed phase (plus dependency closure) that the checkpoint
    /// does not already carry, and freezes the campaign again at that
    /// join point. This is the supervisor's drive primitive — a
    /// crash-safe campaign advances segment by segment, journaling the
    /// checkpoint this returns after each step, so a kill between
    /// segments loses at most one segment of work.
    pub fn resume_until_phases(
        self,
        checkpoint: CampaignCheckpoint,
        stop_after: &[Phase],
    ) -> Result<CampaignCheckpoint, CheckpointError> {
        Ok(self
            .resume_until_phases_costed(checkpoint, stop_after)?
            .checkpoint)
    }

    /// [`Tuner::resume_until_phases`] plus the ledger charged by this
    /// segment alone (see [`Tuner::run_until_phases_costed`]).
    pub fn resume_until_phases_costed(
        self,
        checkpoint: CampaignCheckpoint,
        stop_after: &[Phase],
    ) -> Result<PausedCampaign, CheckpointError> {
        self.validate(&checkpoint)?;
        Ok(self.advance(checkpoint, stop_after).pause())
    }

    /// Refuses a checkpoint taken under a different campaign identity,
    /// or whose phase list is structurally invalid.
    fn validate(&self, cp: &CampaignCheckpoint) -> Result<(), CheckpointError> {
        let mismatch = |what: &str, got: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
            Err(CheckpointError::Mismatch(format!(
                "{what}: checkpoint {got:?} vs tuner {want:?}"
            )))
        };
        if cp.workload != self.workload.meta.name {
            return mismatch("workload", &cp.workload, &self.workload.meta.name);
        }
        if cp.arch != self.arch.name {
            return mismatch("architecture", &cp.arch, &self.arch.name);
        }
        if cp.budget != self.budget {
            return mismatch("budget", &cp.budget, &self.budget);
        }
        if cp.focus != self.focus {
            return mismatch("focus", &cp.focus, &self.focus);
        }
        if cp.seed != self.seed {
            return mismatch("seed", &cp.seed, &self.seed);
        }
        if cp.steps_cap != self.steps_cap {
            return mismatch("steps cap", &cp.steps_cap, &self.steps_cap);
        }
        if cp.faults != self.faults {
            return mismatch("fault model", &cp.faults, &self.faults);
        }
        if cp.objective != self.objective {
            return mismatch("objective", &cp.objective, &self.objective);
        }
        cp.validate_phases()
    }

    /// The engine state of a fresh campaign: this tuner's identity and
    /// no completed phase.
    fn fresh_checkpoint(&self) -> CampaignCheckpoint {
        CampaignCheckpoint {
            workload: self.workload.meta.name.to_string(),
            arch: self.arch.name.to_string(),
            budget: self.budget,
            focus: self.focus,
            seed: self.seed,
            steps_cap: self.steps_cap,
            faults: self.faults,
            objective: self.objective,
            baseline_time: None,
            data: None,
            random: None,
            fr: None,
            greedy: None,
            cfr: None,
            bad_compiles: Vec::new(),
            bad_programs: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// The evaluation recipe every context of this campaign is built
    /// from, the coordinator's and each worker's (through
    /// [`HelloSpec::context`]): instantiate the tuning input under the
    /// step cap, outline it, and build the context with the fault
    /// model, retry policy and objective. Caches and the worker plane
    /// belong to the coordinator alone.
    pub(crate) fn prepare(&self) -> Prepared {
        let mut input = self.workload.tuning_input(self.arch.name).clone();
        if let Some(cap) = self.steps_cap {
            input.steps = input.steps.min(cap);
        }
        let raw_ir = self.workload.instantiate(&input);
        let compiler = Compiler::icc(self.arch.target);
        let (outlined, report) = outline_with_defaults(
            &raw_ir,
            &compiler,
            self.arch,
            input.steps,
            derive_seed(self.seed, "outline"),
        );
        let ctx = EvalContext::new(
            outlined.ir.clone(),
            compiler,
            self.arch.clone(),
            input.steps,
            derive_seed(self.seed, "noise"),
        )
        .with_faults(self.faults)
        .with_resilience(self.resilience)
        .with_objective(self.objective);
        Prepared {
            input_name: input.name,
            steps: input.steps,
            outlined,
            report,
            ctx,
        }
    }

    /// Adds the coordinator's layers to a prepared context: its cache
    /// capacity or shared store, and the worker plane.
    /// Every worker rebuilds the prepared context from one hello spec.
    /// Caches and quarantines are per-worker; they memoize pure
    /// functions, so they cannot change a bit.
    fn coordinate(&self, ctx: EvalContext, steps: u32, modules: usize) -> EvalContext {
        let mut ctx = ctx.with_cache_capacity(self.cache_capacity);
        if let Some(store) = &self.store {
            ctx = ctx.with_shared_store(store.clone());
        }
        if self.workers > 0 {
            let spec = HelloSpec {
                workload: self.workload.meta.name.to_string(),
                arch: self.arch.name.to_string(),
                steps_cap: u64::from(steps),
                seed: self.seed,
                fault_seed: self.faults.seed,
                fault_compile: self.faults.compile_failure,
                fault_crash: self.faults.crash,
                fault_hang: self.faults.hang,
                fault_outlier: self.faults.outlier,
                max_retries: u64::from(self.resilience.max_retries),
                timeout_factor: self.resilience.timeout_factor,
                objective: self.objective,
            };
            let factory: WorkerFactory = match self.worker_exe.clone() {
                None => Arc::new(move |_w| {
                    Ok(Box::new(InProcessTransport::new(spec.context()?)) as Box<dyn Transport>)
                }),
                Some(exe) => Arc::new(move |_w| {
                    ProcessTransport::spawn(&exe, &spec, modules as u64)
                        .map(|t| Box::new(t) as Box<dyn Transport>)
                }),
            };
            let plane = RemotePlane::new(self.workers, factory).with_chaos(self.worker_chaos);
            ctx = ctx.with_remote(Arc::new(plane));
        }
        ctx
    }

    /// The phase table: the one place each phase runs, with its
    /// sub-seed derived from its label. Greedy and CFR read the
    /// collection, `data`; the baseline is memoized in the context, so
    /// asking for it again costs nothing.
    fn run_phase(
        &self,
        phase: Phase,
        ctx: &EvalContext,
        data: Option<&CollectionData>,
    ) -> PhaseOutput {
        let seed = derive_seed(self.seed, phase.label());
        let data = || data.expect("Greedy and CFR run after the collection");
        match phase {
            Phase::Baseline => PhaseOutput::Baseline(ctx.baseline_time(BASELINE_REPEATS)),
            Phase::Collect => PhaseOutput::Collect(collect(ctx, self.budget, seed)),
            Phase::Random => PhaseOutput::Random(random_search(ctx, self.budget, seed)),
            Phase::Fr => PhaseOutput::Fr(fr_search(ctx, self.budget, seed)),
            Phase::Greedy => {
                PhaseOutput::Greedy(greedy(ctx, data(), ctx.baseline_time(BASELINE_REPEATS)))
            }
            Phase::Cfr => PhaseOutput::Cfr(cfr(ctx, data(), self.focus, self.budget, seed)),
        }
    }

    /// The campaign engine behind every entry point. It re-measures
    /// the baseline, runs every phase `targets` need that `state`
    /// lacks under the selected schedule, and records each result in
    /// `state`.
    fn advance(self, mut state: CampaignCheckpoint, targets: &[Phase]) -> Campaign {
        let mut prepared = self.prepare();
        prepared.ctx = self.coordinate(prepared.ctx, prepared.steps, prepared.outlined.ir.len());
        let ctx = &prepared.ctx;
        ctx.restore_quarantine(&state.bad_compiles, &state.bad_programs);

        let need = closure(targets);
        let done = state.completed_phases();
        let pending: Vec<Phase> = Phase::ALL
            .into_iter()
            .filter(|p| *p != Phase::Baseline && need[p.index()] && !done.contains(p))
            .collect();
        let t0 = Instant::now();
        let spans: Mutex<Vec<PhaseSpan>> = Mutex::new(Vec::new());
        // Runs one phase and logs its span before handing the result
        // back, so a dependent never starts before the recorded end of
        // what it consumes. Only a phase that runs alone can own the
        // ledger delta around it.
        let step = |phase: Phase, data: Option<&CollectionData>, attribute: bool| {
            let pre = attribute.then(|| ctx.cost());
            let start_s = t0.elapsed().as_secs_f64();
            let out = self.run_phase(phase, ctx, data);
            let delta = pre.map(|pre| ctx.cost().since(&pre));
            spans.lock().expect("span log poisoned").push(PhaseSpan {
                phase,
                start_s,
                end_s: t0.elapsed().as_secs_f64(),
                machine_seconds: delta.map(|d| d.machine_seconds),
                runs: delta.map(|d| d.runs),
            });
            out
        };

        // The baseline is cheap (10 exempt runs) and deterministic, so
        // it is re-measured even on resume; it also fixes the timeout
        // reference every fault-aware phase budgets hangs against.
        step(Phase::Baseline, None, true).record(&mut state);
        match self.schedule {
            ScheduleMode::Serial => {
                for phase in pending {
                    let out = step(phase, state.data.as_ref(), true);
                    out.record(&mut state);
                }
            }
            ScheduleMode::Overlapped => {
                // One result slot per phase, indexed like `Phase::ALL`.
                // A restored collection stays in `state`.
                let slots: [OnceLock<PhaseOutput>; 6] = Default::default();
                let mut order = pending.clone();
                // The stress knob: permute spawn order and stagger
                // starts. Any interleaving must yield the same results
                // — phases share no RNG state.
                if let Some(iseed) = self.interleave {
                    let mut rng = derive_seed(iseed, "phase-interleave");
                    for i in (1..order.len()).rev() {
                        let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
                        order.swap(i, j);
                    }
                }
                std::thread::scope(|s| {
                    for phase in order {
                        let (slots, state, pending, step) = (&slots, &state, &pending, &step);
                        let delay_ms = self
                            .interleave
                            .map(|iseed| derive_seed(iseed, phase.label()) % 4);
                        s.spawn(move || {
                            if let Some(ms) = delay_ms {
                                std::thread::sleep(std::time::Duration::from_millis(ms));
                            }
                            for pred in phase.predecessors() {
                                if pending.contains(pred) {
                                    slots[pred.index()].wait();
                                }
                            }
                            let data = state.data.as_ref().or_else(|| {
                                slots[Phase::Collect.index()]
                                    .get()
                                    .and_then(PhaseOutput::collection)
                            });
                            let _ = slots[phase.index()].set(step(phase, data, false));
                        });
                    }
                });
                for out in slots.into_iter().filter_map(OnceLock::into_inner) {
                    out.record(&mut state);
                }
            }
        }
        let mut spans = spans.into_inner().expect("span log poisoned");
        spans.sort_by_key(|s| s.phase.index());
        Campaign {
            workload: self.workload.meta.name,
            arch: self.arch.name,
            schedule: ScheduleReport {
                mode: self.schedule,
                spans,
                total_wall_s: t0.elapsed().as_secs_f64(),
            },
            prepared,
            state,
        }
    }
}

/// `-O3` baseline repeats (the paper averages 10 experiments).
const BASELINE_REPEATS: u32 = 10;

/// A campaign's evaluation recipe, built by `Tuner::prepare`.
pub(crate) struct Prepared {
    /// Tuning input name.
    pub(crate) input_name: String,
    /// Time steps per run, after the step cap.
    pub(crate) steps: u32,
    /// The outlined program.
    pub(crate) outlined: OutlinedProgram,
    /// Baseline profiling report.
    pub(crate) report: HotLoopReport,
    /// The evaluation context.
    pub(crate) ctx: EvalContext,
}

/// What one phase of the table produced.
enum PhaseOutput {
    Baseline(f64),
    Collect(CollectionData),
    Random(TuningResult),
    Fr(TuningResult),
    Greedy(GreedyOutcome),
    Cfr(TuningResult),
}

impl PhaseOutput {
    /// The collection, if this is the Collect phase's output.
    fn collection(&self) -> Option<&CollectionData> {
        match self {
            PhaseOutput::Collect(data) => Some(data),
            _ => None,
        }
    }

    /// Fills the matching result field of the engine state.
    fn record(self, state: &mut CampaignCheckpoint) {
        match self {
            PhaseOutput::Baseline(t) => state.baseline_time = Some(t),
            PhaseOutput::Collect(data) => state.data = Some(data),
            PhaseOutput::Random(r) => state.random = Some(r),
            PhaseOutput::Fr(r) => state.fr = Some(r),
            PhaseOutput::Greedy(g) => state.greedy = Some(g),
            PhaseOutput::Cfr(r) => state.cfr = Some(r),
        }
    }
}

/// A campaign the engine has advanced to its targets.
struct Campaign {
    workload: &'static str,
    arch: &'static str,
    schedule: ScheduleReport,
    prepared: Prepared,
    state: CampaignCheckpoint,
}

impl Campaign {
    /// Freezes the campaign at its phase boundary, with the ledger
    /// this call charged.
    fn pause(self) -> PausedCampaign {
        let Campaign {
            prepared,
            mut state,
            ..
        } = self;
        (state.bad_compiles, state.bad_programs) = prepared.ctx.quarantine_snapshot();
        state.completed = state.completed_labels();
        PausedCampaign {
            checkpoint: state,
            cost: prepared.ctx.cost(),
            faults: prepared.ctx.fault_stats(),
        }
    }

    /// Moves the completed state into the finished run.
    fn finish(self) -> TuningRun {
        let Campaign {
            workload,
            arch,
            schedule,
            prepared,
            state,
        } = self;
        let ran = "a finished campaign ran every phase";
        TuningRun {
            workload,
            arch,
            input_name: prepared.input_name,
            outlined: prepared.outlined,
            report: prepared.report,
            ctx: prepared.ctx,
            baseline_time: state.baseline_time.expect(ran),
            data: state.data.expect(ran),
            random: state.random.expect(ran),
            fr: state.fr.expect(ran),
            greedy: state.greedy.expect(ran),
            cfr: state.cfr.expect(ran),
            seed: state.seed,
            schedule,
        }
    }
}

/// A campaign frozen at a phase boundary, with the ledger the pausing
/// call charged. `cost`/`faults` cover *this call only* (including the
/// re-measured baseline), not the campaign's cumulative history — a
/// caller driving a campaign segment by segment sums them.
#[derive(Debug, Clone)]
pub struct PausedCampaign {
    /// The resumable campaign state.
    pub checkpoint: CampaignCheckpoint,
    /// The cost ledger charged by the pausing call.
    pub cost: TuningCost,
    /// The fault attribution of the pausing call.
    pub faults: FaultStats,
}

/// Everything produced by one tuning run.
pub struct TuningRun {
    /// Benchmark name.
    pub workload: &'static str,
    /// Architecture name.
    pub arch: &'static str,
    /// Tuning input name.
    pub input_name: String,
    /// The outlined program.
    pub outlined: OutlinedProgram,
    /// Baseline profiling report.
    pub report: HotLoopReport,
    /// The evaluation context used for all searches.
    pub ctx: EvalContext,
    /// `-O3` baseline time on the tuning input.
    pub baseline_time: f64,
    /// Per-loop collection data (shared by G and CFR).
    pub data: CollectionData,
    /// Per-program random search result.
    pub random: TuningResult,
    /// Per-function random search result.
    pub fr: TuningResult,
    /// Greedy combination (realized + independent).
    pub greedy: GreedyOutcome,
    /// FuncyTuner CFR result.
    pub cfr: TuningResult,
    /// Root seed.
    pub seed: u64,
    /// How the phases were scheduled and what each cost.
    pub schedule: ScheduleReport,
}

impl TuningRun {
    /// Canonical byte encoding of the run's *deterministic outcome*:
    /// identity (workload, architecture, input, seed), the baseline,
    /// the collection, and all four search results — every float by
    /// exact bit pattern (see [`crate::canonical`]). Two campaigns are
    /// equivalent iff their encodings are byte-equal.
    ///
    /// Deliberately excluded: wall-clock spans, the cost ledger, and
    /// fault-counter attribution, which depend on the schedule (and on
    /// which concurrent phase reached a deterministic fault first) but
    /// never on any tuning decision.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        use crate::canonical::{write_f64, write_str, write_u64};
        let mut out = Vec::new();
        write_str(&mut out, self.workload);
        write_str(&mut out, self.arch);
        write_str(&mut out, &self.input_name);
        write_u64(&mut out, self.seed);
        write_f64(&mut out, self.baseline_time);
        self.data.write_canonical(&mut out);
        self.random.write_canonical(&mut out);
        self.fr.write_canonical(&mut out);
        self.greedy.write_canonical(&mut out);
        self.cfr.write_canonical(&mut out);
        out
    }

    /// SplitMix64 fold of [`TuningRun::canonical_bytes`] — a compact
    /// fingerprint for golden tests and logs.
    pub fn canonical_digest(&self) -> u64 {
        crate::canonical::digest(&self.canonical_bytes())
    }

    /// Evaluates a tuned assignment on a *different* input of the same
    /// workload (§4.3): the executable is frozen (same outlining, same
    /// CVs), only the input changes. Returns `(tuned, o3)` end-to-end
    /// times, averaged over `repeats` runs.
    pub fn evaluate_on_input(
        &self,
        workload: &ft_workloads::Workload,
        input: &ft_workloads::InputConfig,
        assignment: &[Cv],
        repeats: u32,
    ) -> (f64, f64) {
        assert_eq!(workload.meta.name, self.workload, "different workload");
        let raw_ir: ProgramIr = workload.instantiate(input);
        let compiler = Compiler::icc(self.ctx.arch.target);
        let hot_originals: Vec<usize> = self.outlined.original_id[..self.outlined.j].to_vec();
        let outlined = outline_with_hot_set(
            &raw_ir,
            &hot_originals,
            &compiler,
            &self.ctx.arch,
            input.steps,
            derive_seed(self.seed, "xinput"),
        );
        let ctx = EvalContext::new(
            outlined.ir,
            compiler,
            self.ctx.arch.clone(),
            input.steps,
            derive_seed(self.seed, "xinput-noise"),
        );
        let base = vec![ctx.space().baseline(); ctx.modules()];
        let mut tuned_sum = 0.0;
        let mut o3_sum = 0.0;
        for r in 0..repeats.max(1) {
            tuned_sum += ctx
                .measure(assignment, derive_seed_idx(ctx.noise_root, u64::from(r)))
                .total_s;
            o3_sum += ctx
                .measure(&base, derive_seed_idx(ctx.noise_root ^ 0x03, u64::from(r)))
                .total_s;
        }
        let n = f64::from(repeats.max(1));
        (tuned_sum / n, o3_sum / n)
    }

    /// Speedup of a tuned assignment over `-O3` on an arbitrary input.
    pub fn speedup_on_input(
        &self,
        workload: &ft_workloads::Workload,
        input: &ft_workloads::InputConfig,
        assignment: &[Cv],
    ) -> f64 {
        let (tuned, o3) = self.evaluate_on_input(workload, input, assignment, 3);
        o3 / tuned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_workloads::workload_by_name;

    fn quick_run(bench: &str) -> (ft_workloads::Workload, TuningRun) {
        let arch = Architecture::broadwell();
        let w = workload_by_name(bench).unwrap();
        let run = Tuner::new(&w, &arch).budget(150).focus(12).seed(7).run();
        (w, run)
    }

    #[test]
    fn full_pipeline_produces_coherent_results() {
        let (_w, run) = quick_run("swim");
        assert!(run.cfr.speedup() > 1.0);
        assert!(run.greedy.independent_speedup >= run.cfr.speedup() * 0.999);
        assert_eq!(run.data.k(), 150);
        assert_eq!(run.cfr.assignment.len(), run.outlined.j + 1);
    }

    #[test]
    fn cross_input_evaluation_generalizes() {
        let (w, run) = quick_run("CloverLeaf");
        // Tuned-on-tune executable evaluated on the large input: the
        // paper finds the benefit generalizes (§4.3).
        let s = run.speedup_on_input(&w, &w.large, &run.cfr.assignment);
        assert!(s > 1.0, "large-input speedup = {s}");
    }

    #[test]
    #[should_panic(expected = "different workload")]
    fn cross_workload_evaluation_rejected() {
        let (_w, run) = quick_run("swim");
        let other = workload_by_name("AMG").unwrap();
        let _ = run.speedup_on_input(&other, &other.large, &run.cfr.assignment);
    }

    #[test]
    #[should_panic(expected = "budget too small")]
    fn degenerate_budget_rejected() {
        let arch = Architecture::broadwell();
        let w = workload_by_name("swim").unwrap();
        let _ = Tuner::new(&w, &arch).budget(1);
    }

    #[test]
    fn phase_dag_edges_are_the_papers_dependencies() {
        assert!(Phase::Baseline.predecessors().is_empty());
        for p in [Phase::Collect, Phase::Random, Phase::Fr] {
            assert_eq!(p.predecessors(), &[Phase::Baseline]);
            assert_eq!(p.requires(), vec![Phase::Baseline]);
        }
        for p in [Phase::Greedy, Phase::Cfr] {
            assert_eq!(p.predecessors(), &[Phase::Baseline, Phase::Collect]);
            assert_eq!(p.requires(), vec![Phase::Baseline, Phase::Collect]);
        }
        // Crucially: FR does not require Random, CFR does not require
        // FR or Random — the linear Phase order is NOT a dependency.
        assert!(!Phase::Fr.requires().contains(&Phase::Random));
        assert!(!Phase::Cfr.requires().contains(&Phase::Random));
        assert!(!Phase::Cfr.requires().contains(&Phase::Fr));
    }

    #[test]
    fn closure_includes_targets_and_all_ancestors() {
        let need = closure(&[Phase::Greedy]);
        assert!(need[Phase::Baseline.index()]);
        assert!(need[Phase::Collect.index()]);
        assert!(need[Phase::Greedy.index()]);
        assert!(!need[Phase::Random.index()]);
        assert!(!need[Phase::Fr.index()]);
        assert!(!need[Phase::Cfr.index()]);
        assert_eq!(closure(&Phase::ALL), [true; 6]);
    }

    #[test]
    fn serial_schedule_report_models_the_critical_path() {
        let arch = Architecture::broadwell();
        let w = workload_by_name("swim").unwrap();
        let run = Tuner::new(&w, &arch)
            .budget(60)
            .focus(8)
            .seed(42)
            .cap_steps(5)
            .run();
        let rep = &run.schedule;
        assert_eq!(rep.mode, ScheduleMode::Serial);
        assert_eq!(rep.spans.len(), 6, "all phases ran");
        let serial = rep.machine_serial_s().expect("serial runs attribute");
        let critical = rep.machine_critical_path_s().unwrap();
        assert!(serial > 0.0);
        assert!(
            critical < serial,
            "overlap must shorten the modeled schedule: {critical} vs {serial}"
        );
        let speedup = rep.modeled_overlap_speedup().unwrap();
        assert!(
            speedup > 1.0,
            "three-way stage-1 overlap buys wall time: {speedup}"
        );
        // The attribution covers the whole ledger.
        let total: f64 = rep.spans.iter().map(|s| s.machine_seconds.unwrap()).sum();
        let ledger = run.ctx.cost().machine_seconds;
        assert!(
            (total - ledger).abs() < 1e-6 * ledger.max(1.0),
            "span attribution must sum to the ledger: {total} vs {ledger}"
        );
    }

    #[test]
    fn overlapped_schedule_report_has_no_attribution() {
        let arch = Architecture::broadwell();
        let w = workload_by_name("swim").unwrap();
        let run = Tuner::new(&w, &arch)
            .budget(60)
            .focus(8)
            .seed(42)
            .cap_steps(5)
            .overlap_phases()
            .run();
        let rep = &run.schedule;
        assert_eq!(rep.mode, ScheduleMode::Overlapped);
        assert_eq!(rep.spans.len(), 6);
        // Baseline ran before the scope — it is attributable; the
        // concurrent phases are not.
        assert!(rep.span(Phase::Baseline).unwrap().machine_seconds.is_some());
        for p in [
            Phase::Collect,
            Phase::Random,
            Phase::Fr,
            Phase::Greedy,
            Phase::Cfr,
        ] {
            assert!(rep.span(p).unwrap().machine_seconds.is_none(), "{p:?}");
        }
        assert!(rep.machine_serial_s().is_none());
        assert!(rep.modeled_overlap_speedup().is_none());
        // Stage-2 phases cannot start before the collection ends.
        let collect_end = rep.span(Phase::Collect).unwrap().end_s;
        for p in [Phase::Greedy, Phase::Cfr] {
            assert!(rep.span(p).unwrap().start_s >= collect_end, "{p:?}");
        }
    }
}
