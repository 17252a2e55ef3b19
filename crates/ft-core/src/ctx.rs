//! Evaluation context: the compile → link → execute pipeline every
//! search algorithm measures through.
//!
//! Search batches and Figure-4 collection probes take one route under
//! any fault model ([`EvalContext::evaluate`]): a fault gate in batch
//! order, the lane-batched executor, and a per-lane outcome that
//! applies the fault model's rolls, retries and ledger charges.

use crate::objective::{Objective, Score};
use crate::search::{Candidate, Proposal};
use crate::store::{self, ObjectStore};
use ft_compiler::lru::CacheCapacity;
use ft_compiler::{CompiledModule, Compiler, FaultModel, Module, ProgramIr};
use ft_flags::rng::derive_seed_idx;
use ft_flags::{Cv, CvId, CvPool, FlagSpace};
use ft_machine::{
    execute, execute_batch, execute_batch_total, roll_run_fault, Architecture, BatchPlan,
    BatchTimes, ExecOptions, ExecShape, FaultQuarantine, LinkPlan, LinkedProgram, RunFault,
    RunMeasurement,
};
use rayon::prelude::*;
use std::borrow::Cow;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Salt separating retry noise seeds from first-attempt seeds, so a
/// retried measurement re-rolls both the machine noise and the
/// transient fault streams.
const SALT_RETRY: u64 = 0x08E7_81E5;

/// The noise seed of attempt `attempt` of a run first seeded
/// `noise_seed`: the seed itself, then a fresh derived seed per crash
/// retry.
fn attempt_seed(noise_seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        noise_seed
    } else {
        derive_seed_idx(noise_seed ^ SALT_RETRY, u64::from(attempt))
    }
}

/// The gate's verdict on one candidate (stage 1 of
/// [`EvalContext::run_route`]).
enum Gate {
    /// An ICE or a quarantine skip, already counted: never linked.
    Blocked,
    /// Linked and run. `Some(fp)`: the fault model rolls each run of
    /// the program with fingerprint `fp`; `None`: no fault can touch it.
    Run(Option<u64>),
}

/// Lanes per `execute_batch_total` call: wide enough to amortize the
/// gather and keep the arithmetic pass vectorized, small enough that
/// chunks spread across the rayon pool.
const BATCH_CHUNK: usize = 64;

/// How the harness reacts to injected toolchain faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Extra attempts after a transient crash before scoring `+inf`.
    pub max_retries: u32,
    /// Timeout budget as a multiple of the reference (baseline) time;
    /// a hung run is charged this budget.
    pub timeout_factor: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_retries: 2,
            timeout_factor: 20.0,
        }
    }
}

/// Fault/recovery counters of one context (see §4.3 ledger notes in
/// DESIGN.md). Quarantine sizes count distinct entries; `quarantined`
/// counts evaluations short-circuited by the lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Candidate evaluations aborted by a compile-stage ICE.
    pub compile_failures: u64,
    /// Executions that crashed (each one charged its partial time).
    pub crashes: u64,
    /// Executions that hung and were killed at their budget.
    pub timeouts: u64,
    /// Re-executions after a transient crash.
    pub retries: u64,
    /// Evaluations skipped because a quarantine list already knew the
    /// CV (or program) was bad.
    pub quarantined: u64,
    /// Executions that completed and produced a finite measurement.
    pub ok_runs: u64,
}

impl FaultStats {
    /// Element-wise sum — merging per-phase ledgers at a DAG join.
    /// Every counter is a plain total, so merging commutes and the
    /// `runs == ok_runs + crashes + timeouts` invariant of the merged
    /// ledger follows from the per-phase invariants.
    pub fn merge(&self, other: &FaultStats) -> FaultStats {
        FaultStats {
            compile_failures: self.compile_failures + other.compile_failures,
            crashes: self.crashes + other.crashes,
            timeouts: self.timeouts + other.timeouts,
            retries: self.retries + other.retries,
            quarantined: self.quarantined + other.quarantined,
            ok_runs: self.ok_runs + other.ok_runs,
        }
    }

    /// Charged executions this ledger accounts for: successful runs
    /// plus failed-but-charged ones. Must equal the paired
    /// [`crate::cost::TuningCost::runs`] no matter how concurrent
    /// phases interleaved their increments.
    pub fn charged_runs(&self) -> u64 {
        self.ok_runs + self.crashes + self.timeouts
    }
}

/// A context's attachment to its [`ObjectStore`]: the fingerprints
/// that scope this context's keys, plus per-context hit/miss
/// attribution so each experiment row still balances its own
/// `links + link_reuses == runs` ledger even when the resident objects
/// are shared with other contexts.
///
/// A private store (the default) is keyed positionally — module `i`'s
/// object scope is `i`, the link fingerprint 0 — because one context
/// fixes the compiler, program and architecture. A shared store is
/// keyed by content fingerprints so contexts never collide.
struct StoreBinding {
    store: Arc<ObjectStore>,
    /// Object scope per module slot (`ir.modules` order; see
    /// [`store::object_scope`]).
    scopes: Vec<u64>,
    link_fp: u64,
    object_hits: AtomicU64,
    object_misses: AtomicU64,
    link_hits: AtomicU64,
    link_misses: AtomicU64,
}

impl StoreBinding {
    fn new(store: Arc<ObjectStore>, scopes: Vec<u64>, link_fp: u64) -> Self {
        StoreBinding {
            store,
            scopes,
            link_fp,
            object_hits: AtomicU64::new(0),
            object_misses: AtomicU64::new(0),
            link_hits: AtomicU64::new(0),
            link_misses: AtomicU64::new(0),
        }
    }

    /// A fresh private store for a `modules`-module program, keyed
    /// positionally (no fingerprinting work).
    fn private(modules: usize, capacity: CacheCapacity) -> Self {
        let store = Arc::new(ObjectStore::with_capacity(capacity));
        Self::new(store, (0..modules as u64).collect(), 0)
    }

    /// Module `module`'s object for `cv_digest`, computed on a miss.
    fn object(
        &self,
        module: usize,
        cv_digest: u64,
        compute: impl FnOnce() -> CompiledModule,
    ) -> Arc<CompiledModule> {
        let (obj, hit) = self.store.object(self.scopes[module], cv_digest, compute);
        tally(hit, &self.object_hits, &self.object_misses);
        obj
    }

    /// The program linked from `digests`, computed on a miss.
    fn link(&self, digests: &[u64], compute: impl FnOnce() -> LinkedProgram) -> Arc<LinkedProgram> {
        let (linked, hit) = self.store.link(self.link_fp, digests, compute);
        tally(hit, &self.link_hits, &self.link_misses);
        linked
    }
}

/// Counts one lookup as a hit or a miss.
fn tally(hit: bool, hits: &AtomicU64, misses: &AtomicU64) {
    (if hit { hits } else { misses }).fetch_add(1, Ordering::Relaxed);
}

/// Everything needed to evaluate a compilation choice on one program,
/// one architecture, and one input.
pub struct EvalContext {
    /// The outlined program (J hot-loop modules + non-loop module).
    pub ir: ProgramIr,
    /// The compiler under tuning.
    pub compiler: Compiler,
    /// The platform.
    pub arch: Architecture,
    /// Time-steps per run (from the input config).
    pub steps: u32,
    /// Root seed for measurement noise; evaluation `k` uses
    /// `derive_seed_idx(noise_root, k)`.
    pub noise_root: u64,
    /// The store every compile and link goes through: each `(module,
    /// CV)` pair is compiled once, like the build-system object reuse
    /// of the paper's prototype, and each distinct assignment (by
    /// per-module CV digests) is linked once; `link` is deterministic,
    /// so only the noise-seeded execution differs between duplicates.
    /// Private to this context unless [`EvalContext::with_shared_store`]
    /// binds one shared with other contexts (fault quarantine stays
    /// per-context).
    store: StoreBinding,
    /// `ir.modules`, each behind one `Arc` that every object this
    /// context compiles points at, so an object carries no copy of its
    /// module. Built once; rebinding the store keeps it.
    descriptors: Vec<Arc<Module>>,
    /// Memoized `-O3` baseline: `(repeats, mean time)` of the first
    /// measurement. Random, FR, and CFR all re-ask for the same
    /// 10-repeat baseline; measuring it once changes no value.
    baseline_memo: OnceLock<(u32, f64)>,
    /// Memoized [`BatchPlan`] for this context's `(program, arch,
    /// run-shape)` triple: every candidate [`EvalContext::evaluate`]
    /// runs shares it.
    batch_plan: OnceLock<BatchPlan>,
    /// The instrumented twin of `batch_plan`: every collection probe
    /// shares it.
    profile_plan: OnceLock<BatchPlan>,
    /// Memoized [`LinkPlan`] for this context's `(program, arch)` pair:
    /// every link this context performs goes through it.
    link_plan: OnceLock<LinkPlan>,
    /// Number of executions performed through this context.
    runs: AtomicU64,
    /// Simulated machine time spent in those executions, nanoseconds.
    machine_nanos: AtomicU64,
    /// Injected-fault model (all-zero by default: the infallible
    /// toolchain every golden value was locked against).
    faults: FaultModel,
    /// Retry/timeout policy of the evaluation route.
    resilience: ResilienceConfig,
    /// Reference time (f64 bits; 0 = unset) from which timeout budgets
    /// are derived. Set once from the `-O3` baseline so budgets do not
    /// depend on the completion order of parallel batches.
    timeout_ref_bits: AtomicU64,
    /// Shared quarantine of known-bad compile pairs and hanging
    /// programs, safe for concurrent phases (read-mostly `RwLock`s).
    quarantine: FaultQuarantine,
    /// Executions that completed with a finite measurement.
    ok_runs: AtomicU64,
    /// Evaluations aborted by a compile-stage ICE.
    compile_failures: AtomicU64,
    /// Executions that crashed.
    crashes: AtomicU64,
    /// Executions killed at their timeout budget.
    timeouts: AtomicU64,
    /// Re-executions after transient crashes.
    retries: AtomicU64,
    /// Evaluations short-circuited by a quarantine list.
    quarantine_skips: AtomicU64,
    /// When attached, [`crate::search::SearchDriver`] batches are
    /// sharded across this plane's workers instead of evaluated
    /// locally; the plane's merged worker ledger is folded into
    /// [`EvalContext::cost`] and [`EvalContext::fault_stats`].
    remote: Option<Arc<crate::remote::RemotePlane>>,
    /// What the searches driven through this context optimize. The
    /// default [`Objective::Time`] reproduces every pre-objective
    /// golden value bit-for-bit; measurement itself never depends on
    /// the objective — only winner selection and reporting do.
    objective: Objective,
}

impl EvalContext {
    /// Builds a context. The compiler's target must match the
    /// architecture.
    pub fn new(
        ir: ProgramIr,
        compiler: Compiler,
        arch: Architecture,
        steps: u32,
        noise_root: u64,
    ) -> Self {
        assert_eq!(
            compiler.target().max_vector_bits,
            arch.target.max_vector_bits,
            "compiler target does not match architecture"
        );
        let modules = ir.len();
        let descriptors = ir.modules.iter().cloned().map(Arc::new).collect();
        EvalContext {
            ir,
            compiler,
            arch,
            steps,
            noise_root,
            store: StoreBinding::private(modules, CacheCapacity::Unbounded),
            descriptors,
            baseline_memo: OnceLock::new(),
            batch_plan: OnceLock::new(),
            profile_plan: OnceLock::new(),
            link_plan: OnceLock::new(),
            runs: AtomicU64::new(0),
            machine_nanos: AtomicU64::new(0),
            faults: FaultModel::zero(),
            resilience: ResilienceConfig::default(),
            timeout_ref_bits: AtomicU64::new(0),
            quarantine: FaultQuarantine::new(),
            ok_runs: AtomicU64::new(0),
            compile_failures: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            quarantine_skips: AtomicU64::new(0),
            remote: None,
            objective: Objective::Time,
        }
    }

    /// Sets the tuning objective. Measurement is objective-independent
    /// (every candidate is always scored on both time and code bytes);
    /// the objective decides comparisons, winner selection, and what
    /// [`crate::result::TuningResult`] reports.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// The tuning objective searches through this context optimize.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Installs a fault model. The flag space's `-O3` baseline CV is
    /// always exempted: the paper's testbed never saw its production
    /// compiler ICE on default flags, and the exemption keeps the
    /// baseline denominator of every speedup finite.
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        let mut faults = faults;
        faults.exempt_digest = Some(self.compiler.space().baseline().digest());
        self.faults = faults;
        self
    }

    /// Overrides the retry/timeout policy.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Binds a fresh private store bounded by `capacity`: least-
    /// recently-used objects and linked programs are evicted past it.
    /// Compilation and linking are pure functions of their keys, so
    /// eviction only forces bit-identical recomputation — results never
    /// change, only the cost counters (proved by the `cache_equivalence`
    /// suite). Replaces the binding (and with it a shared store and all
    /// counters); call before any evaluation.
    pub fn with_cache_capacity(mut self, capacity: CacheCapacity) -> Self {
        self.store = StoreBinding::private(self.ir.len(), capacity);
        self
    }

    /// Binds a process-wide [`ObjectStore`] instead of the private one,
    /// de-duplicating compiles and links across every context bound to
    /// the same store. Keys are content fingerprints (compiler, module
    /// content, program + architecture), so contexts for different
    /// programs, inputs, or toolchains can never collide. The fault
    /// quarantine stays per-context. Replaces the binding (and with it
    /// a capacity set by [`EvalContext::with_cache_capacity`] and all
    /// counters); call before any evaluation.
    pub fn with_shared_store(mut self, store: Arc<ObjectStore>) -> Self {
        debug_assert!(
            self.ir.modules.iter().enumerate().all(|(i, m)| m.id == i),
            "module ids must be positional"
        );
        let compiler_fp = store::compiler_fingerprint(&self.compiler);
        let scopes = self
            .ir
            .modules
            .iter()
            .map(|m| store::object_scope(compiler_fp, store::module_fingerprint(m)))
            .collect();
        let link_fp = store::link_fingerprint(&self.ir, &self.arch, compiler_fp);
        self.store = StoreBinding::new(store, scopes, link_fp);
        self
    }

    /// Attaches a distributed evaluation plane: search-driver batches
    /// are sharded across its workers, and the workers' merged ledger
    /// is folded into [`EvalContext::cost`] / [`EvalContext::fault_stats`].
    /// Baseline and collection probes stay local to this context.
    /// Like cache capacity, the plane is a topology choice, not
    /// checkpoint identity — every measured bit is worker-count
    /// invariant (the `topology_equivalence` suite).
    pub fn with_remote(mut self, plane: Arc<crate::remote::RemotePlane>) -> Self {
        self.remote = Some(plane);
        self
    }

    /// The attached distributed evaluation plane, if any.
    pub fn remote_plane(&self) -> Option<&Arc<crate::remote::RemotePlane>> {
        self.remote.as_ref()
    }

    /// The installed fault model.
    pub fn faults(&self) -> &FaultModel {
        &self.faults
    }

    /// The installed retry/timeout policy.
    pub fn resilience(&self) -> ResilienceConfig {
        self.resilience
    }

    /// Sets the reference time from which timeout budgets are derived
    /// (normally the `-O3` baseline, set once right after measuring
    /// it). Until set, a hung run falls back to charging
    /// [`ft_machine::DEFAULT_HANG_CHARGE_FACTOR`]× its own healthy
    /// time.
    pub fn set_timeout_reference(&self, seconds: f64) {
        self.timeout_ref_bits
            .store(seconds.to_bits(), Ordering::Relaxed);
    }

    /// The current timeout budget in seconds, if a reference is set:
    /// the reference time × [`ResilienceConfig::timeout_factor`].
    pub fn timeout_budget(&self) -> Option<f64> {
        let bits = self.timeout_ref_bits.load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits) * self.resilience.timeout_factor)
    }

    /// Fault/recovery counters so far (local work plus, when a remote
    /// plane is attached, the merged worker deltas — the merge is the
    /// same commutative [`FaultStats::merge`] the phase DAG uses).
    pub fn fault_stats(&self) -> FaultStats {
        let local = FaultStats {
            compile_failures: self.compile_failures.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined: self.quarantine_skips.load(Ordering::Relaxed),
            ok_runs: self.ok_runs.load(Ordering::Relaxed),
        };
        match &self.remote {
            None => local,
            Some(plane) => {
                let d = plane.ledger_totals();
                local.merge(&FaultStats {
                    compile_failures: d.compile_failures,
                    crashes: d.crashes,
                    timeouts: d.timeouts,
                    retries: d.retries,
                    quarantined: d.quarantined,
                    ok_runs: d.ok_runs,
                })
            }
        }
    }

    /// The quarantine lists, sorted for deterministic serialization:
    /// known-bad `(module, CV digest)` pairs and known-hanging program
    /// fingerprints.
    pub fn quarantine_snapshot(&self) -> (Vec<(usize, u64)>, Vec<u64>) {
        self.quarantine.snapshot()
    }

    /// Re-seeds the quarantine lists (campaign resume).
    pub fn restore_quarantine(&self, compiles: &[(usize, u64)], programs: &[u64]) {
        self.quarantine.restore(compiles, programs);
    }

    /// Links a digest-keyed assignment through this context's
    /// [`ObjectStore`], compiling via `objects` only on a miss.
    /// `objects()` must produce one object per module, compiled with
    /// CVs matching `digests` slot for slot.
    fn link_digests(
        &self,
        digests: &[u64],
        objects: impl FnOnce() -> Vec<Arc<CompiledModule>>,
    ) -> Arc<LinkedProgram> {
        assert_eq!(
            digests.len(),
            self.ir.modules.len(),
            "one digest per module"
        );
        self.store.link(digests, || {
            let linked = self
                .link_plan
                .get_or_init(|| LinkPlan::new(&self.ir, &self.arch))
                .link(objects());
            debug_assert!(
                linked
                    .modules
                    .iter()
                    .map(|m| m.cv_digest)
                    .eq(digests.iter().copied()),
                "objects() disagrees with the digest key"
            );
            linked
        })
    }

    /// Compiles one object per module through the store's object
    /// layer — the miss path of every link, and the only compile path,
    /// so hit/miss attribution is uniform. `cvs` yields module `j`'s CV
    /// at position `j`, owned or pooled alike. Returns the store's own
    /// objects: the linked program shares them instead of copying.
    fn compile_each<C: Deref<Target = Cv>>(
        &self,
        cvs: impl Iterator<Item = C>,
    ) -> Vec<Arc<CompiledModule>> {
        self.descriptors
            .iter()
            .zip(cvs)
            .map(|(m, cv)| {
                self.store
                    .object(m.id, cv.digest(), || self.compiler.compile_shared(m, &cv))
            })
            .collect()
    }

    /// Links an owned per-module assignment through both store layers.
    fn link_assignment(&self, assignment: &[Cv]) -> Arc<LinkedProgram> {
        assert_eq!(assignment.len(), self.ir.len(), "one CV per module");
        let digests: Vec<u64> = assignment.iter().map(Cv::digest).collect();
        self.link_digests(&digests, || self.compile_each(assignment.iter()))
    }

    /// Links an interned per-module assignment through both store layers.
    fn link_ids(&self, pool: &CvPool, ids: &[CvId], digests: &[u64]) -> Arc<LinkedProgram> {
        self.link_digests(digests, || self.compile_each(pool.resolve(ids).into_iter()))
    }

    /// One interned CV per module. A uniform candidate repeats its
    /// handle, so it shares digests — and with them every cache key —
    /// with its degenerate per-loop form.
    fn module_ids<'c>(&self, candidate: &'c Candidate) -> Cow<'c, [CvId]> {
        match candidate {
            Candidate::Uniform(id) => Cow::Owned(vec![*id; self.ir.len()]),
            Candidate::PerLoop(ids) => {
                assert_eq!(ids.len(), self.ir.len(), "one CV per module");
                Cow::Borrowed(ids)
            }
        }
    }

    /// The lane-oriented execution plan for this context's `(program,
    /// architecture, run-shape)` triple, built once on first use. The
    /// shape matches `ExecOptions::new(self.steps, _)` — exactly what
    /// [`EvalContext::evaluate`] runs under.
    pub fn batch_plan(&self) -> &BatchPlan {
        self.batch_plan.get_or_init(|| {
            let shape = ExecShape::of(&ExecOptions::new(self.steps, 0));
            BatchPlan::new(&self.ir, &self.arch, shape)
        })
    }

    /// The instrumented twin of [`EvalContext::batch_plan`], built once
    /// on first use: shape `ExecOptions::instrumented(self.steps, _)`,
    /// what collection probes run under.
    fn profile_plan(&self) -> &BatchPlan {
        self.profile_plan.get_or_init(|| {
            let shape = ExecShape::of(&ExecOptions::instrumented(self.steps, 0));
            BatchPlan::new(&self.ir, &self.arch, shape)
        })
    }

    /// The flag space being searched.
    pub fn space(&self) -> &FlagSpace {
        self.compiler.space()
    }

    /// Number of modules (J + 1).
    pub fn modules(&self) -> usize {
        self.ir.len()
    }

    /// Measures one per-module assignment — the reporting entry point
    /// (baselines, stability repeats, cross-input speedups, figures).
    /// A uniform CV is `vec![cv; ctx.modules()]`: the same digests, so
    /// the same compiles and link, as any other route to that build.
    ///
    /// An infallible, uninstrumented run that keeps per-module times
    /// and charges the ledger one run.
    pub fn measure(&self, assignment: &[Cv], noise_seed: u64) -> RunMeasurement {
        self.run_linked(&self.link_assignment(assignment), noise_seed)
    }

    /// The run half of [`EvalContext::measure`]: one uninstrumented
    /// execution, charged to the ledger.
    fn run_linked(&self, linked: &LinkedProgram, noise_seed: u64) -> RunMeasurement {
        let meas = execute(
            linked,
            &self.arch,
            &ExecOptions::new(self.steps, noise_seed),
        );
        self.charge_run(meas.total_s);
        meas
    }

    /// Accounts one successful run against the tuning-overhead ledger
    /// (§4.3).
    fn charge_run(&self, seconds: f64) {
        self.ok_runs.fetch_add(1, Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.machine_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Accounts a failed execution: a crashed or killed run still
    /// occupied the machine for `seconds`, but produced no
    /// measurement, so it is charged without counting as successful.
    fn charge_failed(&self, seconds: f64) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.machine_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// This context's accumulated machine time in integer nanoseconds
    /// — local executions only, never the attached plane's (it is the
    /// unit workers ship in their ledger deltas, so the coordinator
    /// can sum exactly and convert to seconds once).
    pub fn machine_nanos_total(&self) -> u64 {
        self.machine_nanos.load(Ordering::Relaxed)
    }

    /// The raw timeout-reference bits (0 = unset) — what the
    /// coordinator stamps into every work batch so worker hang charges
    /// match the serial run.
    pub fn timeout_reference_bits(&self) -> u64 {
        self.timeout_ref_bits.load(Ordering::Relaxed)
    }

    /// Tuning-overhead ledger so far (see [`crate::cost::TuningCost`]).
    /// With a remote plane attached, the workers' merged deltas are
    /// folded in: fault counters arrive through the already-merged
    /// [`EvalContext::fault_stats`], cache and run counters are added
    /// here, and machine time is summed in integer nanoseconds before
    /// the single conversion to seconds — so the merged total is
    /// bit-identical to a serial run's.
    pub fn cost(&self) -> crate::cost::TuningCost {
        let b = &self.store;
        let faults = self.fault_stats();
        let plane = self
            .remote
            .as_ref()
            .map(|p| p.ledger_totals())
            .unwrap_or_default();
        let nanos = self.machine_nanos.load(Ordering::Relaxed) + plane.machine_nanos;
        crate::cost::TuningCost {
            object_compiles: b.object_misses.load(Ordering::Relaxed) + plane.object_compiles,
            object_reuses: b.object_hits.load(Ordering::Relaxed) + plane.object_reuses,
            object_evictions: b.store.object_stats().evictions + plane.object_evictions,
            links: b.link_misses.load(Ordering::Relaxed) + plane.links,
            link_reuses: b.link_hits.load(Ordering::Relaxed) + plane.link_reuses,
            link_evictions: b.store.link_stats().evictions + plane.link_evictions,
            runs: self.runs.load(Ordering::Relaxed) + plane.runs,
            machine_seconds: nanos as f64 * 1e-9,
            compile_failures: faults.compile_failures,
            crashes: faults.crashes,
            timeouts: faults.timeouts,
            retries: faults.retries,
            quarantined: faults.quarantined,
        }
    }

    /// The `-O3` baseline end-to-end time (mean of `repeats` runs, as
    /// the paper averages 10 experiments).
    ///
    /// The first measurement is memoized: every search algorithm asks
    /// for the same baseline, and each run's time is a pure function
    /// of its derived noise seed, so re-measuring cannot change the
    /// answer. A call with a *different* repeat count bypasses the
    /// memo and measures (without replacing the stored value).
    pub fn baseline_time(&self, repeats: u32) -> f64 {
        if let Some((memo_repeats, t)) = self.baseline_memo.get() {
            if *memo_repeats == repeats {
                return *t;
            }
            return self.measure_baseline(repeats);
        }
        let t = self
            .baseline_memo
            .get_or_init(|| (repeats, self.measure_baseline(repeats)))
            .1;
        // The first memoized baseline doubles as the timeout
        // reference: every fault-aware path thereafter kills a hung
        // run at `timeout_factor` times the baseline. (Idempotent
        // under concurrent callers: the memo fixes `t`.)
        if self.timeout_ref_bits.load(Ordering::Relaxed) == 0 {
            self.set_timeout_reference(t);
        }
        t
    }

    /// Runs the baseline repeats in parallel. The per-repeat times are
    /// collected in index order and summed serially, so the f64 result
    /// is bit-identical to the sequential loop it replaces. The
    /// baseline is interned once, so every repeat reuses one digest
    /// vector instead of hashing each module's CV again (the same keys
    /// `measure` would derive).
    fn measure_baseline(&self, repeats: u32) -> f64 {
        let pool = CvPool::new();
        let ids = vec![pool.intern(&self.space().baseline()); self.modules()];
        let digests = pool.digests(&ids);
        let times: Vec<f64> = (0..repeats as usize)
            .into_par_iter()
            .map(|r| {
                let linked = self.link_ids(&pool, &ids, &digests);
                self.run_linked(&linked, derive_seed_idx(self.noise_root ^ 0xBA5E, r as u64))
                    .total_s
            })
            .collect();
        times.iter().sum::<f64>() / f64::from(repeats.max(1))
    }

    /// Stage 1 of the evaluation route: the fault gate of one
    /// candidate. Per module, a quarantined `(module, CV)` pair is
    /// skipped and a compile that ICEs is counted and quarantined; then
    /// a quarantined program fingerprint is skipped. A blocked
    /// candidate is never linked and charges nothing. A program that
    /// will hang is quarantined here, before it runs, so a duplicate
    /// later in the batch is skipped, as in a sequential loop. A
    /// zero-fault context passes every candidate with no fingerprint,
    /// no roll and no quarantine read.
    fn gate(&self, pool: &CvPool, candidate: &Candidate) -> Gate {
        if self.faults.is_zero() {
            return Gate::Run(None);
        }
        let digests = pool.digests(&self.module_ids(candidate));
        for (module, &digest) in digests.iter().enumerate() {
            if self.quarantine.compile_is_bad(module, digest) {
                self.quarantine_skips.fetch_add(1, Ordering::Relaxed);
                return Gate::Blocked;
            }
            if self.faults.compile_fails(module, digest) {
                self.compile_failures.fetch_add(1, Ordering::Relaxed);
                self.quarantine.ban_compile(module, digest);
                return Gate::Blocked;
            }
        }
        let fp = FaultModel::program_fingerprint(&digests);
        if self.quarantine.program_is_bad(fp) {
            self.quarantine_skips.fetch_add(1, Ordering::Relaxed);
            return Gate::Blocked;
        }
        if self.faults.all_exempt(&digests) {
            return Gate::Run(None);
        }
        if self.faults.hangs(fp) {
            self.quarantine.ban_program(fp);
        }
        Gate::Run(Some(fp))
    }

    /// Evaluates a proposal batch: the one search entry point, shared
    /// by the in-process [`crate::search::SearchDriver`] and the remote
    /// plane's workers (which is what makes a worker's bits identical
    /// to a serial run by construction). Scores align with `proposals`.
    ///
    /// A successful run pairs its end-to-end time with the linked
    /// executable's modeled size ([`LinkedProgram::code_bytes`], a pure
    /// function of the digest assignment). An unusable candidate (ICE,
    /// quarantine skip, hang, or a crash on every attempt) is
    /// [`Score::faulted`], `+inf` in both coordinates, so it loses
    /// under every objective. Every batch takes the one route of
    /// [`EvalContext::run_route`], under any fault model.
    pub fn evaluate(&self, pool: &CvPool, proposals: &[Proposal]) -> Vec<Score> {
        let seeds: Vec<u64> = proposals.iter().map(|p| p.noise_seed).collect();
        let plan = self.batch_plan();
        let (times, code_bytes) =
            self.run_route(pool, proposals, |p| &p.candidate, &seeds, plan, false);
        times
            .totals
            .into_iter()
            .zip(code_bytes)
            .map(|(t, b)| Score::new(t, b))
            .collect()
    }

    /// The one evaluation route behind [`EvalContext::evaluate`] and
    /// the Figure-4 collection: item `k`'s candidate runs under
    /// `seeds[k]` through `plan`. Returns the times, with per-module
    /// rows when `per_module` is set, and each candidate's
    /// [`LinkedProgram::code_bytes`]. Three stages:
    ///
    /// 1. *Gate* ([`EvalContext::gate`]), one candidate after another
    ///    in batch order.
    /// 2. *Lanes*: the survivors are linked in one parallel pass and
    ///    run as W-wide chunks ([`run_lanes`]). A lane
    ///    total has the bits of `execute(..).total_s`, a per-module row
    ///    those of `per_module_s`.
    /// 3. *Outcome*, per lane: [`roll_run_fault`] on the lane total,
    ///    with the rolls and arithmetic of [`ft_machine::try_execute`].
    ///    A clean run is charged one run, an outlier its inflated time
    ///    (every per-module time inflated with it), a hang its timeout
    ///    budget and a crash its partial time. A crash with retries
    ///    left runs again in a later lane round, under a fresh derived
    ///    seed.
    ///
    /// The fault rolls are pure in (digests, fingerprint, noise seed)
    /// and only stage 1 touches the quarantine, in order. So the
    /// result and every [`FaultStats`] and
    /// [`crate::cost::TuningCost`] counter equal a sequential loop of
    /// gate → link → `try_execute` with retries, run in batch order
    /// (the `eval_equivalence` and `collection_equiv` suites). A
    /// candidate that produced no measurement is `+inf` everywhere, its
    /// code bytes included ([`Score::faulted`]).
    fn run_route<T: Sync>(
        &self,
        pool: &CvPool,
        items: &[T],
        candidate: impl Fn(&T) -> &Candidate + Sync,
        seeds: &[u64],
        plan: &BatchPlan,
        per_module: bool,
    ) -> (BatchTimes, Vec<f64>) {
        assert_eq!(seeds.len(), items.len(), "one noise seed per candidate");
        let lanes: Vec<(usize, Option<u64>)> = items
            .iter()
            .enumerate()
            .filter_map(|(k, item)| match self.gate(pool, candidate(item)) {
                Gate::Run(fp) => Some((k, fp)),
                Gate::Blocked => None,
            })
            .collect();
        let linked: Vec<Arc<LinkedProgram>> = lanes
            .par_iter()
            .map(|&(k, _)| {
                let ids = self.module_ids(candidate(&items[k]));
                self.link_ids(pool, &ids, &pool.digests(&ids))
            })
            .collect();
        let n = items.len();
        let rows = if per_module { plan.module_count() } else { 0 };
        let mut out = BatchTimes {
            totals: vec![f64::INFINITY; n],
            per_module: vec![vec![f64::INFINITY; n]; rows],
        };
        let mut code_bytes = vec![f64::INFINITY; n];
        let budget = self.timeout_budget();
        // `(lane, attempt)`: every survivor once, then crash retries.
        let mut round: Vec<(usize, u32)> = (0..lanes.len()).map(|i| (i, 0)).collect();
        while !round.is_empty() {
            let batch: Vec<(&LinkedProgram, u64)> = round
                .iter()
                .map(|&(i, attempt)| {
                    let seed = attempt_seed(seeds[lanes[i].0], attempt);
                    (linked[i].as_ref(), seed)
                })
                .collect();
            let times = run_lanes(plan, &batch, per_module);
            let mut retries = Vec::new();
            for (r, &(i, attempt)) in round.iter().enumerate() {
                let (k, fp) = lanes[i];
                let fault = fp.and_then(|fp| {
                    roll_run_fault(&self.faults, fp, batch[r].1, times.totals[r], budget)
                });
                let factor = match fault {
                    None => None,
                    Some(RunFault::Outlier { factor }) => Some(factor),
                    Some(RunFault::Crash { elapsed_s }) => {
                        self.crashes.fetch_add(1, Ordering::Relaxed);
                        self.charge_failed(elapsed_s);
                        if attempt < self.resilience.max_retries {
                            self.retries.fetch_add(1, Ordering::Relaxed);
                            retries.push((i, attempt + 1));
                        }
                        continue;
                    }
                    Some(RunFault::Hang { budget_s }) => {
                        self.timeouts.fetch_add(1, Ordering::Relaxed);
                        self.charge_failed(budget_s);
                        continue;
                    }
                };
                let scale = |t: f64| factor.map_or(t, |f| t * f);
                let total = scale(times.totals[r]);
                self.charge_run(total);
                out.totals[k] = total;
                for (row, lane_row) in out.per_module.iter_mut().zip(&times.per_module) {
                    row[k] = scale(lane_row[r]);
                }
                code_bytes[k] = linked[i].code_bytes();
            }
            round = retries;
        }
        (out, code_bytes)
    }

    /// The Figure-4 collection probes: the evaluation route on the
    /// memoized instrumented plan with the per-module output on,
    /// candidate `k` under `noise_seeds[k]`. Per candidate, `totals`
    /// and the `per_module` rows have the bits of the instrumented
    /// `execute` (and so of what a Caliper session records for it); a
    /// probe that produced no measurement is an all-`+inf` column.
    pub(crate) fn profile_lanes(
        &self,
        pool: &CvPool,
        candidates: &[Candidate],
        noise_seeds: &[u64],
    ) -> BatchTimes {
        let plan = self.profile_plan();
        self.run_route(pool, candidates, |c| c, noise_seeds, plan, true)
            .0
    }

    /// Modeled executable size of an owned assignment, linked through
    /// the caches without running it (greedy's fallback build).
    pub(crate) fn code_bytes(&self, assignment: &[Cv]) -> f64 {
        self.link_assignment(assignment).code_bytes()
    }
}

/// Stage 2's runner of [`EvalContext::run_route`]: runs each
/// `(program, noise seed)` lane through `plan`, in W-wide chunks spread
/// over the rayon pool. Per lane the times are bit-identical to
/// `execute` under the same options; the per-module rows are kept only
/// when `per_module` is set (else `per_module` is empty). Charges
/// nothing: stage 3 does.
fn run_lanes(plan: &BatchPlan, lanes: &[(&LinkedProgram, u64)], per_module: bool) -> BatchTimes {
    let n_chunks = lanes.len().div_ceil(BATCH_CHUNK);
    let chunks: Vec<BatchTimes> = (0..n_chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * BATCH_CHUNK;
            let chunk = &lanes[lo..(lo + BATCH_CHUNK).min(lanes.len())];
            if per_module {
                execute_batch(plan, chunk)
            } else {
                BatchTimes {
                    totals: execute_batch_total(plan, chunk),
                    per_module: Vec::new(),
                }
            }
        })
        .collect();
    let rows = if per_module { plan.module_count() } else { 0 };
    let mut all = BatchTimes {
        totals: Vec::with_capacity(lanes.len()),
        per_module: vec![Vec::with_capacity(lanes.len()); rows],
    };
    for chunk in chunks {
        all.totals.extend(chunk.totals);
        for (row, part) in all.per_module.iter_mut().zip(chunk.per_module) {
            row.extend(part);
        }
    }
    all
}

/// Test fixture shared by this crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use ft_outline::outline_with_defaults;
    use ft_workloads::workload_by_name;

    /// Builds a Broadwell evaluation context for one benchmark,
    /// optionally overriding the step count to keep tests fast.
    pub(crate) fn ctx_for(bench: &str, steps_override: Option<u32>) -> EvalContext {
        let arch = Architecture::broadwell();
        let compiler = Compiler::icc(arch.target);
        let w = workload_by_name(bench).unwrap();
        let input = w.tuning_input(arch.name).clone();
        let ir = w.instantiate(&input);
        let steps = steps_override.unwrap_or(input.steps);
        let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, steps, 11);
        EvalContext::new(outlined.ir, Compiler::icc(arch.target), arch, steps, 99)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::ctx_for;
    use super::*;
    use ft_flags::rng::rng_for;

    /// End-to-end times of `cvs` as uniform proposals, candidate `k`
    /// under `derive_seed_idx(noise_root, k)`.
    fn uniform_batch(ctx: &EvalContext, cvs: &[Cv]) -> Vec<f64> {
        let pool = CvPool::new();
        let proposals: Vec<Proposal> = pool
            .intern_all(cvs)
            .into_iter()
            .enumerate()
            .map(|(k, id)| {
                Proposal::new(
                    Candidate::Uniform(id),
                    derive_seed_idx(ctx.noise_root, k as u64),
                )
            })
            .collect();
        ctx.evaluate(&pool, &proposals)
            .iter()
            .map(|s| s.time)
            .collect()
    }

    #[test]
    fn measure_is_deterministic() {
        let ctx = ctx_for("swim", Some(5));
        let a = vec![ctx.space().sample(&mut rng_for(1, "c")); ctx.modules()];
        assert_eq!(ctx.measure(&a, 5).total_s, ctx.measure(&a, 5).total_s);
    }

    #[test]
    fn batch_matches_individual() {
        let ctx = ctx_for("swim", Some(5));
        let cvs = ctx.space().sample_many(8, &mut rng_for(2, "b"));
        let batch = uniform_batch(&ctx, &cvs);
        for (k, cv) in cvs.iter().enumerate() {
            let single = ctx.measure(
                &vec![cv.clone(); ctx.modules()],
                derive_seed_idx(ctx.noise_root, k as u64),
            );
            assert_eq!(batch[k], single.total_s);
        }
    }

    #[test]
    fn baseline_time_is_positive_and_stable() {
        let ctx = ctx_for("swim", Some(5));
        let t = ctx.baseline_time(5);
        assert!(t > 0.1 && t < 100.0, "t = {t}");
        // Averaging suppresses noise: two different averages are close.
        let t2 = ctx.baseline_time(10);
        assert!((t - t2).abs() / t < 0.01);
    }

    #[test]
    fn baseline_costs_exactly_one_compile_per_module() {
        // The 10 baseline repeats share one digest vector: single-flight
        // caching must link once and compile each module exactly once,
        // no matter how the rayon repeats race.
        let ctx = ctx_for("swim", Some(5));
        let _ = ctx.baseline_time(10);
        let cost = ctx.cost();
        assert_eq!(
            cost.object_compiles,
            ctx.modules() as u64,
            "baseline must compile each module exactly once: {cost:?}"
        );
        assert_eq!(cost.links, 1, "one baseline link: {cost:?}");
        assert_eq!(cost.link_reuses, 9, "nine memoized repeats: {cost:?}");
        assert_eq!(cost.runs, 10);
        // Re-asking for the memoized baseline does no cache work at all.
        let _ = ctx.baseline_time(10);
        assert_eq!(ctx.cost().object_compiles, cost.object_compiles);
        assert_eq!(ctx.cost().links + ctx.cost().link_reuses, 10);
    }

    #[test]
    fn cache_ledger_balances() {
        // A store the test owns, with this context as its only user:
        // the store counts lookups, hits, misses and computes on its
        // own, so the context's ledger must match it exactly.
        let store = Arc::new(ObjectStore::new());
        let ctx = ctx_for("swim", Some(5)).with_shared_store(store.clone());
        let cvs = ctx.space().sample_many(12, &mut rng_for(3, "ledger"));
        let _ = uniform_batch(&ctx, &cvs);
        let (o, l) = (store.object_stats(), store.link_stats());
        assert_eq!(o.hits + o.misses, o.lookups, "{o:?}");
        assert_eq!(o.computes, o.misses, "{o:?}");
        assert_eq!(l.hits + l.misses, l.lookups, "{l:?}");
        assert_eq!(l.computes, l.misses, "{l:?}");
        let cost = ctx.cost();
        assert_eq!(cost.object_compiles, o.computes, "{cost:?}");
        assert_eq!(cost.object_reuses, o.hits, "{cost:?}");
        assert_eq!(cost.links, l.computes, "{cost:?}");
        assert_eq!(cost.link_reuses, l.hits, "{cost:?}");
        assert_eq!(cost.object_evictions, 0, "unbounded context never evicts");
    }

    #[test]
    fn bounded_context_evaluates_bit_identically() {
        let unbounded = ctx_for("swim", Some(5));
        let bounded = ctx_for("swim", Some(5)).with_cache_capacity(CacheCapacity::Entries(1));
        let cvs = unbounded.space().sample_many(16, &mut rng_for(4, "cap"));
        assert_eq!(
            uniform_batch(&unbounded, &cvs),
            uniform_batch(&bounded, &cvs),
            "eviction must never change a measurement"
        );
        let c = bounded.cost();
        assert!(
            c.object_evictions > 0 || c.link_evictions > 0,
            "capacity-1 caches must evict: {c:?}"
        );
    }

    #[test]
    fn shared_store_contexts_measure_identically_and_dedup() {
        let owned = ctx_for("swim", Some(5));
        let store = Arc::new(ObjectStore::new());
        let a = ctx_for("swim", Some(5)).with_shared_store(store.clone());
        let b = ctx_for("swim", Some(5)).with_shared_store(store.clone());
        let cvs = owned.space().sample_many(10, &mut rng_for(5, "share"));
        let t_owned = uniform_batch(&owned, &cvs);
        let t_a = uniform_batch(&a, &cvs);
        let t_b = uniform_batch(&b, &cvs);
        assert_eq!(t_owned, t_a, "store borrow must not change results");
        assert_eq!(t_a, t_b);
        // The second context compiled and linked nothing: every link
        // lookup hit the programs the first context installed, so the
        // object layer was never even consulted.
        let cb = b.cost();
        assert_eq!(cb.links, 0, "{cb:?}");
        assert!(cb.link_reuses > 0, "{cb:?}");
        assert_eq!(cb.object_compiles + cb.object_reuses, 0, "{cb:?}");
        // Store-wide, each (module, CV) pair compiled exactly once.
        assert_eq!(store.object_stats().computes, a.cost().object_compiles);
    }

    #[test]
    #[should_panic(expected = "one digest per module")]
    fn link_rejects_partial_digests() {
        let ctx = ctx_for("swim", Some(5));
        let _ = ctx.link_digests(&[1, 2], Vec::new);
    }

    #[test]
    #[should_panic(expected = "does not match architecture")]
    fn mismatched_target_rejected() {
        let ctx = ctx_for("swim", Some(5));
        let _ = EvalContext::new(
            ctx.ir.clone(),
            Compiler::icc(ft_compiler::Target::sse_128()),
            Architecture::broadwell(),
            5,
            0,
        );
    }
}
