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
//! baseline; Greedy and CFR need only the collection. The scheduler
//! can therefore run `{Collect ∥ Random ∥ Fr}` and then
//! `{Greedy ∥ Cfr}` concurrently ([`ScheduleMode::Overlapped`]) on one
//! shared [`EvalContext`] — and because every phase draws its RNG and
//! noise streams from an independent `derive_seed(root, "<phase>")`
//! sub-seed, the overlapped run is **bit-identical** to the serial
//! one. The shared caches only memoize values that are pure functions
//! of their keys, and the ledger counters are atomic, so the only
//! schedule-dependent artifacts are wall-clock spans and *attribution*
//! of injected faults between `quarantined` and first-discovery
//! counters (never the fault's `+inf` value itself).
//!
//! Each search phase is a [`crate::search::SearchStrategy`] run by the
//! shared [`crate::search::SearchDriver`]: the phase functions here
//! only pick budgets and sub-seeds; proposing, evaluating, and winner
//! materialization live in the driver (DESIGN.md §11).

use crate::algorithms::{cfr, fr_search, greedy, random_search, GreedyOutcome};
use crate::breaker::BreakerConfig;
use crate::checkpoint::{CampaignCheckpoint, CheckpointError, CHECKPOINT_VERSION};
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

    /// Stable lowercase label (doubles as the seed-derivation tag of
    /// the interleaving stress knob).
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
    breaker: Option<BreakerConfig>,
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
            breaker: None,
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

    /// Evaluates through a process-wide [`ObjectStore`] shared with
    /// other campaigns/contexts instead of a campaign-private one.
    /// Sharing is result-invariant (content-fingerprint keys; pure
    /// compile/link functions); the fault quarantine stays private.
    pub fn shared_store(mut self, store: Arc<ObjectStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Installs a fault-rate circuit breaker on the campaign's
    /// evaluation context (see [`crate::breaker`]). Value-safe: the
    /// breaker only reroutes evaluation (batched → per-candidate) and
    /// widens timeout charging while tripped, so canonical digests are
    /// unchanged whether or not it fires. Not part of the checkpoint
    /// identity, for the same reason cache capacity is not.
    pub fn breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(config);
        self
    }

    /// Shards every search-driver evaluation batch across `n`
    /// in-process workers behind the real CRC-framed byte protocol
    /// (see [`crate::remote`]). Topology is *not* checkpoint identity:
    /// every measured bit is worker-count invariant, proved by the
    /// `topology_equivalence` suite. Baseline and collection probes
    /// stay on the coordinator.
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
        match self.run_campaign(None, None) {
            Ok(CampaignOutcome::Finished(run)) => *run,
            Ok(CampaignOutcome::Paused(_)) => unreachable!("no stop phase requested"),
            Err(e) => unreachable!("no checkpoint to mismatch: {e}"),
        }
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
        match self.run_campaign(None, Some(stop_after)) {
            Ok(CampaignOutcome::Paused(paused)) => *paused,
            Ok(CampaignOutcome::Finished(_)) => unreachable!("stop phase requested"),
            Err(e) => unreachable!("no checkpoint to mismatch: {e}"),
        }
    }

    /// Resumes a killed campaign from a checkpoint: completed phases
    /// (baseline, collection, finished searches) are reused, the fault
    /// quarantine is re-seeded, and only the remaining phases run.
    /// Because each phase's seeds derive independently from the root
    /// seed, the result is bit-identical to an uninterrupted run.
    ///
    /// Fails with [`CheckpointError::Mismatch`] when the checkpoint
    /// was taken under a different workload, architecture, budget,
    /// focus, seed, step cap, or fault model.
    pub fn resume(self, checkpoint: CampaignCheckpoint) -> Result<TuningRun, CheckpointError> {
        match self.run_campaign(Some(checkpoint), None)? {
            CampaignOutcome::Finished(run) => Ok(*run),
            CampaignOutcome::Paused(_) => unreachable!("no stop phase requested"),
        }
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
        match self.run_campaign(Some(checkpoint), Some(stop_after))? {
            CampaignOutcome::Paused(paused) => Ok(*paused),
            CampaignOutcome::Finished(_) => unreachable!("stop phase requested"),
        }
    }

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
        Ok(())
    }

    /// The phase engine behind `run`/`run_until`/`resume`: computes
    /// the dependency closure of the requested targets, runs the
    /// missing phases under the selected schedule, and either pauses
    /// into a checkpoint or assembles the finished run.
    fn run_campaign(
        self,
        from: Option<CampaignCheckpoint>,
        stop_after: Option<&[Phase]>,
    ) -> Result<CampaignOutcome, CheckpointError> {
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
        let mut ctx = EvalContext::new(
            outlined.ir.clone(),
            compiler,
            self.arch.clone(),
            input.steps,
            derive_seed(self.seed, "noise"),
        )
        .with_faults(self.faults)
        .with_resilience(self.resilience)
        .with_objective(self.objective)
        .with_cache_capacity(self.cache_capacity);
        if let Some(store) = &self.store {
            ctx = ctx.with_shared_store(store.clone());
        }
        if let Some(config) = self.breaker {
            ctx = ctx.with_breaker(config);
        }
        if self.workers > 0 {
            // Each worker rebuilds the coordinator's exact evaluation
            // inputs: same outlined IR, same noise root, same raw
            // fault model (`with_faults` re-derives the baseline
            // exemption from the identical flag space), same retry
            // policy. Caches and quarantines are per-worker — they
            // memoize pure functions, so they cannot change a bit.
            let factory: WorkerFactory = match &self.worker_exe {
                None => {
                    let ir = outlined.ir.clone();
                    let arch = self.arch.clone();
                    let target = self.arch.target;
                    let steps = input.steps;
                    let noise_root = derive_seed(self.seed, "noise");
                    let faults = self.faults;
                    let resilience = self.resilience;
                    let objective = self.objective;
                    Arc::new(move |_w| {
                        let wctx = EvalContext::new(
                            ir.clone(),
                            Compiler::icc(target),
                            arch.clone(),
                            steps,
                            noise_root,
                        )
                        .with_faults(faults)
                        .with_resilience(resilience)
                        .with_objective(objective);
                        Ok(Box::new(InProcessTransport::new(wctx)) as Box<dyn Transport>)
                    })
                }
                Some(exe) => {
                    let exe = exe.clone();
                    let spec = HelloSpec {
                        workload: self.workload.meta.name.to_string(),
                        arch: self.arch.name.to_string(),
                        steps_cap: u64::from(input.steps),
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
                    let modules = outlined.ir.len() as u64;
                    Arc::new(move |_w| {
                        ProcessTransport::spawn(&exe, &spec, modules)
                            .map(|t| Box::new(t) as Box<dyn Transport>)
                    })
                }
            };
            let plane = RemotePlane::new(self.workers, factory).with_chaos(self.worker_chaos);
            ctx = ctx.with_remote(Arc::new(plane));
        }
        let ctx = ctx;

        let (mut data, mut random, mut fr, mut g, mut cfr_result) = (None, None, None, None, None);
        if let Some(cp) = from {
            self.validate(&cp)?;
            cp.validate_phases()?;
            ctx.restore_quarantine(&cp.bad_compiles, &cp.bad_programs);
            data = cp.data;
            random = cp.random;
            fr = cp.fr;
            g = cp.greedy;
            cfr_result = cp.cfr;
        }

        // Which phases the caller's targets (transitively) require.
        let need = closure(stop_after.unwrap_or(&Phase::ALL));
        let t0 = Instant::now();
        let mut spans: Vec<PhaseSpan> = Vec::new();

        // The baseline is cheap (10 exempt runs) and deterministic, so
        // it is re-measured even on resume; it also fixes the timeout
        // reference every fault-aware phase budgets hangs against.
        let pre = ctx.cost();
        let baseline_time = ctx.baseline_time(10);
        spans.push(serial_span(Phase::Baseline, 0.0, &t0, &pre, &ctx));

        let (budget, focus, seed) = (self.budget, self.focus, self.seed);
        match self.schedule {
            ScheduleMode::Serial => {
                if need[Phase::Collect.index()] && data.is_none() {
                    let (pre, start) = (ctx.cost(), t0.elapsed().as_secs_f64());
                    data = Some(collect(&ctx, budget, derive_seed(seed, "collect")));
                    spans.push(serial_span(Phase::Collect, start, &t0, &pre, &ctx));
                }
                if need[Phase::Random.index()] && random.is_none() {
                    let (pre, start) = (ctx.cost(), t0.elapsed().as_secs_f64());
                    random = Some(random_search(&ctx, budget, derive_seed(seed, "random")));
                    spans.push(serial_span(Phase::Random, start, &t0, &pre, &ctx));
                }
                if need[Phase::Fr.index()] && fr.is_none() {
                    let (pre, start) = (ctx.cost(), t0.elapsed().as_secs_f64());
                    fr = Some(fr_search(&ctx, budget, derive_seed(seed, "fr")));
                    spans.push(serial_span(Phase::Fr, start, &t0, &pre, &ctx));
                }
                if need[Phase::Greedy.index()] && g.is_none() {
                    let (pre, start) = (ctx.cost(), t0.elapsed().as_secs_f64());
                    g = Some(greedy(&ctx, data.as_ref().unwrap(), baseline_time));
                    spans.push(serial_span(Phase::Greedy, start, &t0, &pre, &ctx));
                }
                if need[Phase::Cfr.index()] && cfr_result.is_none() {
                    let (pre, start) = (ctx.cost(), t0.elapsed().as_secs_f64());
                    cfr_result = Some(cfr(
                        &ctx,
                        data.as_ref().unwrap(),
                        focus,
                        budget,
                        derive_seed(seed, "cfr"),
                    ));
                    spans.push(serial_span(Phase::Cfr, start, &t0, &pre, &ctx));
                }
            }
            ScheduleMode::Overlapped => {
                let need_collect = need[Phase::Collect.index()] && data.is_none();
                let need_random = need[Phase::Random.index()] && random.is_none();
                let need_fr = need[Phase::Fr.index()] && fr.is_none();
                let need_greedy = need[Phase::Greedy.index()] && g.is_none();
                let need_cfr = need[Phase::Cfr.index()] && cfr_result.is_none();

                // Stage-2 phases wait on this cell; a restored
                // collection fills it up front.
                let mut data_cell: OnceLock<CollectionData> = OnceLock::new();
                if let Some(d) = data.take() {
                    let _ = data_cell.set(d);
                }
                let mut random_cell: OnceLock<TuningResult> = OnceLock::new();
                let mut fr_cell: OnceLock<TuningResult> = OnceLock::new();
                let mut greedy_cell: OnceLock<GreedyOutcome> = OnceLock::new();
                let mut cfr_cell: OnceLock<TuningResult> = OnceLock::new();
                let span_log: Mutex<Vec<PhaseSpan>> = Mutex::new(Vec::new());
                {
                    let (ctx, t0, span_log) = (&ctx, &t0, &span_log);
                    let (data_cell, random_cell, fr_cell, greedy_cell, cfr_cell) =
                        (&data_cell, &random_cell, &fr_cell, &greedy_cell, &cfr_cell);
                    std::thread::scope(|s| {
                        type Job<'j> = (Phase, Box<dyn FnOnce() + Send + 'j>);
                        let mut jobs: Vec<Job<'_>> = Vec::new();
                        if need_collect {
                            jobs.push((
                                Phase::Collect,
                                Box::new(move || {
                                    let start = t0.elapsed().as_secs_f64();
                                    let d = collect(ctx, budget, derive_seed(seed, "collect"));
                                    // Span first, then release the
                                    // cell: stage-2 starts must not
                                    // precede the recorded collect end.
                                    log_span(span_log, Phase::Collect, start, t0);
                                    let _ = data_cell.set(d);
                                }),
                            ));
                        }
                        if need_random {
                            jobs.push((
                                Phase::Random,
                                Box::new(move || {
                                    let start = t0.elapsed().as_secs_f64();
                                    let r = random_search(ctx, budget, derive_seed(seed, "random"));
                                    let _ = random_cell.set(r);
                                    log_span(span_log, Phase::Random, start, t0);
                                }),
                            ));
                        }
                        if need_fr {
                            jobs.push((
                                Phase::Fr,
                                Box::new(move || {
                                    let start = t0.elapsed().as_secs_f64();
                                    let r = fr_search(ctx, budget, derive_seed(seed, "fr"));
                                    let _ = fr_cell.set(r);
                                    log_span(span_log, Phase::Fr, start, t0);
                                }),
                            ));
                        }
                        if need_greedy {
                            jobs.push((
                                Phase::Greedy,
                                Box::new(move || {
                                    let d = data_cell.wait();
                                    let start = t0.elapsed().as_secs_f64();
                                    let out = greedy(ctx, d, baseline_time);
                                    let _ = greedy_cell.set(out);
                                    log_span(span_log, Phase::Greedy, start, t0);
                                }),
                            ));
                        }
                        if need_cfr {
                            jobs.push((
                                Phase::Cfr,
                                Box::new(move || {
                                    let d = data_cell.wait();
                                    let start = t0.elapsed().as_secs_f64();
                                    let r = cfr(ctx, d, focus, budget, derive_seed(seed, "cfr"));
                                    let _ = cfr_cell.set(r);
                                    log_span(span_log, Phase::Cfr, start, t0);
                                }),
                            ));
                        }
                        // The stress knob: permute spawn order and
                        // stagger starts. Any interleaving must yield
                        // the same results — phases share no RNG state.
                        if let Some(iseed) = self.interleave {
                            let mut state = derive_seed(iseed, "phase-interleave");
                            for i in (1..jobs.len()).rev() {
                                let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                                jobs.swap(i, j);
                            }
                        }
                        for (phase, job) in jobs {
                            let delay_ms = self
                                .interleave
                                .map(|iseed| derive_seed(iseed, phase.label()) % 4);
                            s.spawn(move || {
                                if let Some(ms) = delay_ms {
                                    std::thread::sleep(std::time::Duration::from_millis(ms));
                                }
                                job();
                            });
                        }
                    });
                }
                if let Some(d) = data_cell.take() {
                    data = Some(d);
                }
                if let Some(r) = random_cell.take() {
                    random = Some(r);
                }
                if let Some(r) = fr_cell.take() {
                    fr = Some(r);
                }
                if let Some(out) = greedy_cell.take() {
                    g = Some(out);
                }
                if let Some(r) = cfr_cell.take() {
                    cfr_result = Some(r);
                }
                spans.append(&mut span_log.into_inner().unwrap());
            }
        }
        spans.sort_by_key(|s| s.phase.index());
        let schedule = ScheduleReport {
            mode: self.schedule,
            spans,
            total_wall_s: t0.elapsed().as_secs_f64(),
        };

        if stop_after.is_some() {
            let (bad_compiles, bad_programs) = ctx.quarantine_snapshot();
            let mut cp = CampaignCheckpoint {
                version: CHECKPOINT_VERSION,
                workload: self.workload.meta.name.to_string(),
                arch: self.arch.name.to_string(),
                budget: self.budget,
                focus: self.focus,
                seed: self.seed,
                steps_cap: self.steps_cap,
                faults: self.faults,
                objective: self.objective,
                baseline_time: Some(baseline_time),
                data,
                random,
                fr,
                greedy: g,
                cfr: cfr_result,
                bad_compiles,
                bad_programs,
                completed: Vec::new(),
            };
            cp.completed = cp.completed_labels();
            return Ok(CampaignOutcome::Paused(Box::new(PausedCampaign {
                checkpoint: cp,
                cost: ctx.cost(),
                faults: ctx.fault_stats(),
            })));
        }

        Ok(CampaignOutcome::Finished(Box::new(TuningRun {
            workload: self.workload.meta.name,
            arch: self.arch.name,
            input_name: input.name.clone(),
            outlined,
            report,
            ctx,
            baseline_time,
            data: data.unwrap(),
            random: random.unwrap(),
            fr: fr.unwrap(),
            greedy: g.unwrap(),
            cfr: cfr_result.unwrap(),
            seed: self.seed,
            schedule,
        })))
    }
}

/// A span for a phase that just finished under the serial schedule,
/// with the ledger delta attributed to it.
fn serial_span(
    phase: Phase,
    start_s: f64,
    t0: &Instant,
    pre: &TuningCost,
    ctx: &EvalContext,
) -> PhaseSpan {
    let delta = ctx.cost().since(pre);
    PhaseSpan {
        phase,
        start_s,
        end_s: t0.elapsed().as_secs_f64(),
        machine_seconds: Some(delta.machine_seconds),
        runs: Some(delta.runs),
    }
}

/// Records an overlapped phase's wall-clock slot (no machine
/// attribution: concurrent phases share one ledger).
fn log_span(log: &Mutex<Vec<PhaseSpan>>, phase: Phase, start_s: f64, t0: &Instant) {
    log.lock().unwrap().push(PhaseSpan {
        phase,
        start_s,
        end_s: t0.elapsed().as_secs_f64(),
        machine_seconds: None,
        runs: None,
    });
}

/// What the phase engine hands back.
enum CampaignOutcome {
    /// All phases ran (or were restored); the complete run.
    Finished(Box<TuningRun>),
    /// Stopped at the requested phase boundary.
    Paused(Box<PausedCampaign>),
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
