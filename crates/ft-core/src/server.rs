//! Campaign-as-a-service: a multi-tenant tuning daemon.
//!
//! The ROADMAP's production-scale north star is tuning served as
//! traffic: many tenants submit campaigns, the daemon runs them
//! concurrently, and every artifact the tenants have in common is
//! compiled exactly once. This module assembles the pieces the
//! previous layers already proved individually:
//!
//! * **Submissions** are [`CampaignSpec`]s — workload + architecture +
//!   budget + root seed + fault model — serialized in the canonical
//!   encoding ([`crate::canonical`]) with a typed decode path
//!   ([`crate::remote::WireError`], including the dedicated
//!   [`WireError::Version`] on spec-revision skew).
//! * **Execution** interleaves tenants as phase-DAG *segments* on a
//!   bounded executor over [`std::thread::scope`]: each task advances
//!   one tenant by one step of the journaled segment executor the
//!   [`crate::Supervisor`] drives too (one checkpoint segment of
//!   [`crate::supervisor::default_segments`], or the final resume),
//!   then requeues it, so idle threads steal whichever tenant is
//!   runnable next. At most one task per tenant is ever in flight, so
//!   a tenant's segment sequence is exactly the supervisor's serial
//!   attempt loop.
//! * **Dedup** routes every compile/link through one process-wide
//!   [`ObjectStore`]; per-tenant hit/miss attribution rides on the
//!   per-context counters, so tenant ledgers sum exactly to the
//!   store-wide totals.
//! * **Durability** is the executor's: every segment is journaled in
//!   the supervisor's WAL record schema
//!   ([`crate::supervisor::CampaignRecord`]) — one journal per tenant,
//!   compacted to the terminal record on success.
//!   A daemon killed between appends ([`ChaosPolicy`] kill-points)
//!   restarts with `generation + 1` and resumes every tenant from its
//!   last durable checkpoint, bit-identically.
//! * **Admission control** bounds in-flight tenants and the waiting
//!   queue; overflow is a typed [`AdmissionError::QueueFull`], a
//!   poisoned WAL is a typed refusal that survives restarts.
//! * **Budgets**: a tenant may cap its charged runs
//!   ([`CampaignSpec::run_cap`]); the scheduler stops the tenant at
//!   the first segment boundary at or past the cap, so the charge
//!   never exceeds the cap and overshoot is bounded by one segment.
//!
//! # The tenancy-equivalence argument
//!
//! Each tenant's campaign is byte-identical on
//! [`crate::pipeline::TuningRun::canonical_bytes`] to the same
//! campaign run alone, at any thread count, under chaos, because every
//! sharing surface is value-invariant: the shared store memoizes pure
//! functions of content fingerprints (`cache_equivalence` +
//! `stress_concurrency` suites), each tenant's RNG and noise streams
//! derive from its own root seed (phase-equivalence suite), segment
//! checkpoint/resume is exact (`chaos_recovery` suite), and the
//! executor never splits one tenant across two concurrent tasks. The
//! `tenancy_equivalence`, `server_chaos`, and `prop_server` suites
//! prove the composition.

use crate::canonical::Reader;
use crate::checkpoint::CampaignCheckpoint;
use crate::ctx::FaultStats;
use crate::objective::Objective;
use crate::pipeline::{Tuner, TuningRun};
use crate::remote::{check_rate, need, WireError};
use crate::store::ObjectStore;
use crate::supervisor::{CampaignLog, ChaosPolicy, Step};
use crate::TuningCost;
use ft_compiler::FaultModel;
use ft_machine::Architecture;
use ft_workloads::{workload_by_name, Workload};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// Revision tag leading every encoded [`CampaignSpec`]. Bumped when
/// the spec schema changes; a mismatch decodes to the typed
/// [`WireError::Version`], never a scrambled spec. Version 2 added the
/// tuning objective word — the gate fires before any field is read, so
/// a version-1 spec can never decode with a silently defaulted
/// objective.
pub const SPEC_VERSION: u64 = 2;

/// The largest sample budget K a campaign is admitted with, on the
/// spool and on the command line. Collection samples all K CVs at
/// once, so an unbounded K is an allocation failure that aborts the
/// whole process (a daemon with every tenant), not a typed refusal.
/// One million is 1000x the paper's K = 1000; a collection that size
/// holds tens of MiB of CVs and runs for hours.
pub const MAX_BUDGET: usize = 1_000_000;

/// A tenant's campaign submission: everything the daemon needs to
/// rebuild the exact [`Tuner`] the tenant would run alone.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Workload name (resolved via `ft_workloads::workload_by_name`).
    pub workload: String,
    /// Architecture name (display name or CLI alias, e.g.
    /// "Broadwell" or "bdw").
    pub arch: String,
    /// Sample budget K.
    pub budget: usize,
    /// CFR focus width X.
    pub focus: usize,
    /// Root seed; all phase sub-seeds derive from it.
    pub seed: u64,
    /// Optional per-run time-step cap (quick-reproduction mode).
    pub steps_cap: Option<u32>,
    /// Injected-fault model, flattened to its five defining numbers
    /// (the baseline exemption is re-derived by `with_faults`).
    pub fault_seed: u64,
    /// P(compile ICE) per `(module, CV)` pair.
    pub fault_compile: f64,
    /// P(transient crash) per run.
    pub fault_crash: f64,
    /// P(deterministic hang) per program fingerprint.
    pub fault_hang: f64,
    /// P(inflated outlier) per run.
    pub fault_outlier: f64,
    /// Per-tenant budget cap on charged runs: the scheduler refuses to
    /// start another segment once the tenant's raw run count reaches
    /// this, and the billed charge is clamped to it.
    pub run_cap: Option<u64>,
    /// What the campaign optimizes (see [`Objective`]).
    pub objective: Objective,
}

impl CampaignSpec {
    /// A spec with the [`Tuner`] defaults (budget 1000, focus 32,
    /// seed 42, no step cap, zero faults, no run cap).
    pub fn new(workload: impl Into<String>, arch: impl Into<String>) -> CampaignSpec {
        CampaignSpec {
            workload: workload.into(),
            arch: arch.into(),
            budget: 1000,
            focus: 32,
            seed: 42,
            steps_cap: None,
            fault_seed: 0,
            fault_compile: 0.0,
            fault_crash: 0.0,
            fault_hang: 0.0,
            fault_outlier: 0.0,
            run_cap: None,
            objective: Objective::Time,
        }
    }

    /// Flattens a [`FaultModel`] into the spec's fault fields.
    pub fn with_fault_model(mut self, model: FaultModel) -> CampaignSpec {
        self.fault_seed = model.seed;
        self.fault_compile = model.compile_failure;
        self.fault_crash = model.crash;
        self.fault_hang = model.hang;
        self.fault_outlier = model.outlier;
        self
    }

    /// The fault model this spec describes (baseline exemption left
    /// for `with_faults` to re-derive, exactly like the wire path).
    pub fn fault_model(&self) -> FaultModel {
        FaultModel {
            seed: self.fault_seed,
            compile_failure: self.fault_compile,
            crash: self.fault_crash,
            hang: self.fault_hang,
            outlier: self.fault_outlier,
            exempt_digest: None,
        }
    }

    /// The exact tuner a tenant running this spec *alone* would build
    /// — the server adds only the shared store, which is
    /// value-invariant. Tests use this for the solo reference.
    pub fn build_tuner<'a>(&self, workload: &'a Workload, arch: &'a Architecture) -> Tuner<'a> {
        let mut tuner = Tuner::new(workload, arch)
            .budget(self.budget)
            .focus(self.focus)
            .seed(self.seed)
            .faults(self.fault_model())
            .objective(self.objective);
        if let Some(cap) = self.steps_cap {
            tuner = tuner.cap_steps(cap);
        }
        tuner
    }

    /// Canonical byte encoding (see [`crate::canonical`]): version
    /// tag, then every field in declaration order, options as a
    /// present-flag word followed by the value.
    pub fn encode(&self) -> Vec<u8> {
        use crate::canonical::{write_f64, write_str, write_u64};
        let mut out = Vec::new();
        write_u64(&mut out, SPEC_VERSION);
        write_str(&mut out, &self.workload);
        write_str(&mut out, &self.arch);
        write_u64(&mut out, self.budget as u64);
        write_u64(&mut out, self.focus as u64);
        write_u64(&mut out, self.seed);
        write_u64(&mut out, u64::from(self.steps_cap.is_some()));
        write_u64(&mut out, u64::from(self.steps_cap.unwrap_or(0)));
        write_u64(&mut out, self.fault_seed);
        write_f64(&mut out, self.fault_compile);
        write_f64(&mut out, self.fault_crash);
        write_f64(&mut out, self.fault_hang);
        write_f64(&mut out, self.fault_outlier);
        write_u64(&mut out, u64::from(self.run_cap.is_some()));
        write_u64(&mut out, self.run_cap.unwrap_or(0));
        self.objective.write_canonical(&mut out);
        out
    }

    /// Decodes an encoded spec. Every failure is typed: truncation,
    /// version skew, impossible values, and trailing bytes are all
    /// refused without panicking.
    pub fn decode(buf: &[u8]) -> Result<CampaignSpec, WireError> {
        let r = &mut Reader::new(buf);
        let version = need(r.u64(), r)?;
        if version != SPEC_VERSION {
            return Err(WireError::Version {
                found: version,
                supported: SPEC_VERSION,
            });
        }
        let workload = r.str().ok_or(WireError::BadValue("workload name"))?;
        let arch = r.str().ok_or(WireError::BadValue("arch name"))?;
        let budget = usize::try_from(need(r.u64(), r)?)
            .map_err(|_| WireError::BadValue("budget out of range"))?;
        let focus = usize::try_from(need(r.u64(), r)?)
            .map_err(|_| WireError::BadValue("focus out of range"))?;
        let seed = need(r.u64(), r)?;
        let has_steps = need(r.u64(), r)?;
        let steps_raw = need(r.u64(), r)?;
        let steps_cap = match has_steps {
            0 => None,
            1 => {
                Some(u32::try_from(steps_raw).map_err(|_| WireError::BadValue("steps cap range"))?)
            }
            _ => return Err(WireError::BadValue("steps cap flag")),
        };
        let fault_seed = need(r.u64(), r)?;
        let mut rate = |what| check_rate(what, need(r.f64(), r)?);
        let fault_compile = rate("compile-failure rate")?;
        let fault_crash = rate("crash rate")?;
        let fault_hang = rate("hang rate")?;
        let fault_outlier = rate("outlier rate")?;
        let has_cap = need(r.u64(), r)?;
        let cap_raw = need(r.u64(), r)?;
        let run_cap = match has_cap {
            0 => None,
            1 => Some(cap_raw),
            _ => return Err(WireError::BadValue("run cap flag")),
        };
        let objective =
            Objective::read_canonical(r).map_err(|_| WireError::BadValue("objective word"))?;
        if !r.at_end() {
            return Err(WireError::Trailing {
                extra: buf.len() - r.pos(),
            });
        }
        Ok(CampaignSpec {
            workload,
            arch,
            budget,
            focus,
            seed,
            steps_cap,
            fault_seed,
            fault_compile,
            fault_crash,
            fault_hang,
            fault_outlier,
            run_cap,
            objective,
        })
    }
}

/// Resolves an architecture by display name or CLI alias (the same
/// table the `ftune` worker handshake accepts).
pub fn arch_by_name(name: &str) -> Option<Architecture> {
    match name.to_lowercase().as_str() {
        "opteron" | "amd" => Some(Architecture::opteron()),
        "sandybridge" | "sandy-bridge" | "sandy bridge" | "snb" => {
            Some(Architecture::sandy_bridge())
        }
        "broadwell" | "bdw" => Some(Architecture::broadwell()),
        "skylake" | "skylake-512" | "skx" | "avx512" => Some(Architecture::skylake_avx512()),
        _ => None,
    }
}

/// Why a submission was refused. Typed — a full queue or a poisoned
/// WAL must never panic the daemon or the client.
#[derive(Debug)]
pub enum AdmissionError {
    /// The waiting queue is at capacity; resubmit later.
    QueueFull {
        /// The configured queue bound that overflowed.
        capacity: usize,
    },
    /// A tenant with this name is already admitted or queued.
    DuplicateTenant(String),
    /// The tenant's WAL carries a poison record from an earlier life;
    /// the campaign stays refused until an operator clears it.
    Poisoned {
        /// The refusing tenant.
        tenant: String,
        /// The durable diagnostic from the poison record.
        diagnostic: String,
    },
    /// The spec references an unknown workload/architecture, an
    /// invalid tenant name, or impossible parameters.
    InvalidSpec(String),
    /// The tenant's WAL could not be opened or recovered.
    Wal(String),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            AdmissionError::DuplicateTenant(name) => {
                write!(f, "tenant {name:?} already submitted")
            }
            AdmissionError::Poisoned { tenant, diagnostic } => {
                write!(f, "tenant {tenant:?} is poisoned: {diagnostic}")
            }
            AdmissionError::InvalidSpec(why) => write!(f, "invalid spec: {why}"),
            AdmissionError::Wal(why) => write!(f, "tenant WAL: {why}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Daemon configuration. `Clone` so a chaos-recovery loop can restart
/// the server against the same directory and store with
/// `generation + 1`.
#[derive(Clone)]
pub struct ServerConfig {
    /// Executor threads (the concurrency level of the test matrix).
    pub threads: usize,
    /// Maximum tenants making progress at once; further admissions
    /// wait in the queue.
    pub max_in_flight: usize,
    /// Waiting-queue bound; overflow is [`AdmissionError::QueueFull`].
    pub queue_capacity: usize,
    /// Directory holding one `tenant-<name>.wal` journal per tenant.
    pub dir: PathBuf,
    /// Kill policy over the server-wide sequence of WAL appends
    /// (chaos drills; [`ChaosPolicy::Off`] in production).
    pub chaos: ChaosPolicy,
    /// Which daemon life this is (the supervisor's `attempt`, fed to
    /// the chaos policy); a restart loop increments it.
    pub generation: u32,
    /// The process-wide dedup store; a restart loop passes the same
    /// `Arc` back in, `None` creates a fresh unbounded store.
    pub store: Option<Arc<ObjectStore>>,
}

impl ServerConfig {
    /// Defaults: 4 threads, 8 in flight, queue of 16, no chaos,
    /// generation 1, fresh store.
    pub fn new(dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            threads: 4,
            max_in_flight: 8,
            queue_capacity: 16,
            dir: dir.into(),
            chaos: ChaosPolicy::Off,
            generation: 1,
            store: None,
        }
    }

    /// Sets the executor thread count.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "an executor needs at least one thread");
        self.threads = n;
        self
    }

    /// Sets the in-flight tenant bound.
    pub fn max_in_flight(mut self, n: usize) -> Self {
        assert!(n >= 1, "admission needs at least one slot");
        self.max_in_flight = n;
        self
    }

    /// Sets the waiting-queue bound.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Installs a chaos kill policy (drills and tests).
    pub fn chaos(mut self, chaos: ChaosPolicy) -> Self {
        self.chaos = chaos;
        self
    }

    /// Sets the daemon life number (restart loops pass `previous + 1`).
    pub fn generation(mut self, generation: u32) -> Self {
        self.generation = generation;
        self
    }

    /// Shares an existing dedup store instead of creating one.
    pub fn shared_store(mut self, store: Arc<ObjectStore>) -> Self {
        self.store = Some(store);
        self
    }
}

/// A per-campaign progress event, streamed to the [`TuningServer`]
/// callback as it happens and recorded in the tenant's report.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// Admitted straight into the in-flight set.
    Admitted,
    /// Parked in the waiting queue (admitted later, when a slot frees).
    Enqueued,
    /// Promoted from the queue into the in-flight set.
    Promoted,
    /// Recovered a prior life's WAL with this many durable records.
    Resumed {
        /// Records found in the tenant's journal.
        records: usize,
    },
    /// A segment finished and its checkpoint is durable.
    SegmentCommitted {
        /// Index into the segment plan.
        segment: usize,
        /// Records now in the tenant's journal.
        records: usize,
    },
    /// The campaign finished; the done record is durable.
    Done {
        /// Canonical digest of the finished run.
        digest: u64,
    },
    /// A prior life already finished this campaign; the run was
    /// rebuilt from the terminal record.
    RecoveredDone,
    /// The run-cap budget was exhausted at a segment boundary.
    BudgetExhausted {
        /// Runs charged to the tenant (clamped to the cap).
        charged: u64,
    },
    /// The campaign was quarantined with a durable diagnostic.
    Poisoned,
}

/// How a tenant's campaign ended, in this daemon life.
pub enum TenantOutcome {
    /// Finished; the run is bit-identical to the tenant's solo run.
    Done {
        /// The finished campaign.
        run: Box<TuningRun>,
        /// Canonical digest (also durable in the done record).
        digest: u64,
    },
    /// Stopped at a segment boundary by the tenant's run cap; the
    /// checkpoint (when any segment completed) resumes later under a
    /// raised budget.
    BudgetExhausted {
        /// Last durable campaign state, if any segment committed.
        checkpoint: Option<Box<CampaignCheckpoint>>,
    },
    /// Quarantined with a durable diagnostic; refused on resubmission.
    Poisoned {
        /// Why.
        diagnostic: String,
    },
    /// The daemon died (chaos) before this tenant finished; a restart
    /// resumes it from its last durable checkpoint.
    Killed,
}

impl std::fmt::Debug for TenantOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantOutcome::Done { digest, .. } => f
                .debug_struct("Done")
                .field("digest", &format_args!("{digest:016x}"))
                .finish_non_exhaustive(),
            TenantOutcome::BudgetExhausted { checkpoint } => f
                .debug_struct("BudgetExhausted")
                .field("has_checkpoint", &checkpoint.is_some())
                .finish(),
            TenantOutcome::Poisoned { diagnostic } => f
                .debug_struct("Poisoned")
                .field("diagnostic", diagnostic)
                .finish(),
            TenantOutcome::Killed => f.write_str("Killed"),
        }
    }
}

/// One tenant's slice of the [`ServerReport`].
#[derive(Debug)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// How the campaign ended this life.
    pub outcome: TenantOutcome,
    /// Cumulative cost ledger across every segment this life ran
    /// (raw — not clamped by the run cap).
    pub cost: TuningCost,
    /// Cumulative fault attribution across the same segments.
    pub faults: FaultStats,
    /// Runs billed to the tenant: `min(cost.runs, run_cap)`.
    pub charged_runs: u64,
    /// Segments this life ran (not counting restored ones).
    pub segments_run: usize,
    /// Everything that happened, in order.
    pub events: Vec<ProgressEvent>,
}

/// What one daemon life did.
#[derive(Debug)]
pub struct ServerReport {
    /// The life number the report describes.
    pub generation: u32,
    /// Chaos kills this life absorbed (0 or 1: a kill ends the life).
    pub kills: u32,
    /// Per-tenant reports, in submission order.
    pub tenants: Vec<TenantReport>,
}

impl ServerReport {
    /// The report of one tenant, by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// True when every tenant reached a terminal outcome (done,
    /// budget-exhausted, or poisoned) — i.e. a restart loop may stop.
    pub fn all_settled(&self) -> bool {
        self.tenants
            .iter()
            .all(|t| !matches!(t.outcome, TenantOutcome::Killed))
    }
}

/// Progress callback: `(tenant name, event)`.
pub type EventCallback = Arc<dyn Fn(&str, &ProgressEvent) + Send + Sync>;

/// Per-tenant daemon state. Wrapped in a `Mutex` during [`TuningServer::run`];
/// the scheduler guarantees at most one task holds it at a time.
struct TenantState {
    name: String,
    spec: CampaignSpec,
    workload: Workload,
    arch: Architecture,
    log: CampaignLog,
    segments_run: usize,
    cost: TuningCost,
    faults: FaultStats,
    events: Vec<ProgressEvent>,
    outcome: Option<TenantOutcome>,
}

impl TenantState {
    /// Records `event` in the tenant's report and streams it to the
    /// callback. Recording comes first, so the report keeps the event
    /// even when the callback panics.
    fn emit(&mut self, callback: &Option<EventCallback>, event: ProgressEvent) {
        self.events.push(event);
        if let Some(cb) = callback {
            cb(&self.name, self.events.last().expect("just pushed"));
        }
    }

    /// Adds one step's ledger to the tenant's bill.
    fn bill(&mut self, cost: TuningCost, faults: FaultStats) {
        self.cost = self.cost.merge(&cost);
        self.faults = self.faults.merge(&faults);
    }
}

/// What one executor task did with a tenant.
enum Advance {
    /// A segment committed; requeue the tenant.
    Continue,
    /// The tenant reached a terminal outcome.
    Terminal,
    /// The daemon died mid-task (chaos); nothing was committed.
    Abandoned,
}

/// Scheduler state under one mutex: the runnable queue, the waiting
/// (admission-overflow) queue, and the liveness counters.
struct Sched {
    ready: VecDeque<usize>,
    waiting: VecDeque<usize>,
    /// Tenants not yet terminal (ready + running + waiting).
    remaining: usize,
    done: bool,
}

/// The chaos clock: server-wide count of WAL-append boundaries and
/// kills, advanced under one lock so kill decisions are coherent.
struct ChaosClock {
    ordinal: usize,
    kills: u32,
    /// The daemon died: every later kill-point fires.
    dead: bool,
}

/// The multi-tenant tuning daemon. Submit tenants, then [`TuningServer::run`]
/// one daemon life to completion (or chaos death).
pub struct TuningServer {
    config: ServerConfig,
    store: Arc<ObjectStore>,
    tenants: Vec<TenantState>,
    callback: Option<EventCallback>,
}

impl TuningServer {
    /// A daemon over `config.dir` (created if absent).
    pub fn new(config: ServerConfig) -> std::io::Result<TuningServer> {
        std::fs::create_dir_all(&config.dir)?;
        let store = config
            .store
            .clone()
            .unwrap_or_else(|| Arc::new(ObjectStore::new()));
        Ok(TuningServer {
            config,
            store,
            tenants: Vec::new(),
            callback: None,
        })
    }

    /// Streams every [`ProgressEvent`] to `callback` as it happens.
    pub fn on_event(mut self, callback: EventCallback) -> Self {
        self.callback = Some(callback);
        self
    }

    /// The process-wide dedup store (hand it to the next life).
    pub fn store(&self) -> Arc<ObjectStore> {
        self.store.clone()
    }

    /// Submits a tenant. Validates the spec, recovers the tenant's
    /// WAL (refusing poisoned campaigns with their durable
    /// diagnostic), and either admits the tenant into the in-flight
    /// set or parks it in the bounded waiting queue. Every refusal is
    /// a typed [`AdmissionError`].
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        spec: CampaignSpec,
    ) -> Result<(), AdmissionError> {
        let name = name.into();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(AdmissionError::InvalidSpec(format!(
                "tenant name {name:?} must be non-empty [A-Za-z0-9_-]"
            )));
        }
        if self.tenants.iter().any(|t| t.name == name) {
            return Err(AdmissionError::DuplicateTenant(name));
        }
        if self.tenants.len() >= self.config.max_in_flight + self.config.queue_capacity {
            return Err(AdmissionError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let workload = workload_by_name(&spec.workload).ok_or_else(|| {
            AdmissionError::InvalidSpec(format!("unknown workload {:?}", spec.workload))
        })?;
        let arch = arch_by_name(&spec.arch).ok_or_else(|| {
            AdmissionError::InvalidSpec(format!("unknown architecture {:?}", spec.arch))
        })?;
        if !(2..=MAX_BUDGET).contains(&spec.budget) {
            return Err(AdmissionError::InvalidSpec(format!(
                "budget {} outside [2, {MAX_BUDGET}]",
                spec.budget
            )));
        }
        if spec.focus < 1 {
            return Err(AdmissionError::InvalidSpec("focus must be >= 1".into()));
        }
        if spec.steps_cap == Some(0) {
            return Err(AdmissionError::InvalidSpec("steps cap must be >= 1".into()));
        }

        let path = self.config.dir.join(format!("tenant-{name}.wal"));
        let log = CampaignLog::open(&path)
            .map_err(|e| AdmissionError::Wal(format!("tenant {name}: {e}")))?;
        if let Some(diagnostic) = log.poisoned() {
            return Err(AdmissionError::Poisoned {
                diagnostic: diagnostic.to_string(),
                tenant: name,
            });
        }
        let records = log.records();
        let mut tenant = TenantState {
            name,
            spec,
            workload,
            arch,
            log,
            segments_run: 0,
            cost: TuningCost::zero(),
            faults: FaultStats::default(),
            events: Vec::new(),
            outcome: None,
        };
        let admitted_now = self.tenants.len() < self.config.max_in_flight;
        tenant.emit(
            &self.callback,
            if admitted_now {
                ProgressEvent::Admitted
            } else {
                ProgressEvent::Enqueued
            },
        );
        if records > 0 {
            tenant.emit(&self.callback, ProgressEvent::Resumed { records });
        }
        self.tenants.push(tenant);
        Ok(())
    }

    /// Runs one daemon life: interleaves every admitted tenant's
    /// segments across the executor threads until all tenants settle —
    /// or until the chaos policy kills the daemon at a WAL-append
    /// boundary, in which case unfinished tenants report
    /// [`TenantOutcome::Killed`] and a `generation + 1` life resumes
    /// them from their journals.
    pub fn run(self) -> ServerReport {
        let TuningServer {
            config,
            store,
            tenants,
            callback,
        } = self;
        let n = tenants.len();
        let active = n.min(config.max_in_flight);
        let sched = Mutex::new(Sched {
            ready: (0..active).collect(),
            waiting: (active..n).collect(),
            remaining: n,
            done: n == 0,
        });
        let cv = Condvar::new();
        let life = Life {
            store,
            chaos: config.chaos,
            generation: config.generation,
            clock: Mutex::new(ChaosClock {
                ordinal: 0,
                kills: 0,
                dead: false,
            }),
            callback,
        };
        let tenants: Vec<Mutex<TenantState>> = tenants.into_iter().map(Mutex::new).collect();

        std::thread::scope(|s| {
            for _ in 0..config.threads.max(1) {
                s.spawn(|| loop {
                    let idx = {
                        let mut g = sched.lock().unwrap();
                        loop {
                            if g.done {
                                return;
                            }
                            if let Some(i) = g.ready.pop_front() {
                                break i;
                            }
                            g = cv.wait(g).unwrap();
                        }
                    };
                    let advance = life.advance_or_poison(&mut tenants[idx].lock().unwrap());
                    let mut g = sched.lock().unwrap();
                    match advance {
                        Advance::Continue => {
                            g.ready.push_back(idx);
                            cv.notify_one();
                        }
                        Advance::Terminal => {
                            g.remaining -= 1;
                            if let Some(next) = g.waiting.pop_front() {
                                let mut promoted = tenants[next].lock().unwrap();
                                // A panicking callback must not take the
                                // scheduler lock down with it; the tenant
                                // meets the callback again in its own step.
                                let _ = catch_unwind(AssertUnwindSafe(|| {
                                    promoted.emit(&life.callback, ProgressEvent::Promoted)
                                }));
                                drop(promoted);
                                g.ready.push_back(next);
                                cv.notify_one();
                            }
                            if g.remaining == 0 {
                                g.done = true;
                                cv.notify_all();
                            }
                        }
                        Advance::Abandoned => {
                            g.done = true;
                            cv.notify_all();
                        }
                    }
                });
            }
        });

        let kills = life
            .clock
            .into_inner()
            .expect("no task panics holding the chaos clock")
            .kills;
        let reports = tenants
            .into_iter()
            .map(|t| {
                let t = t.into_inner().unwrap();
                let charged_runs = match t.spec.run_cap {
                    Some(cap) => t.cost.runs.min(cap),
                    None => t.cost.runs,
                };
                TenantReport {
                    name: t.name,
                    outcome: t.outcome.unwrap_or(TenantOutcome::Killed),
                    cost: t.cost,
                    faults: t.faults,
                    charged_runs,
                    segments_run: t.segments_run,
                    events: t.events,
                }
            })
            .collect();
        ServerReport {
            generation: config.generation,
            kills,
            tenants: reports,
        }
    }
}

/// What every executor task of one daemon life shares.
struct Life {
    store: Arc<ObjectStore>,
    chaos: ChaosPolicy,
    generation: u32,
    clock: Mutex<ChaosClock>,
    callback: Option<EventCallback>,
}

impl Life {
    /// The daemon's kill-point, at every WAL-append boundary of every
    /// tenant: the chaos policy over the server-wide append ordinal,
    /// with the generation as the attempt. Once the daemon is dead,
    /// nothing more becomes durable.
    fn kill_point(&self) -> bool {
        let mut clock = self
            .clock
            .lock()
            .expect("no task panics holding the chaos clock");
        if clock.dead {
            return true;
        }
        let boundary = clock.ordinal;
        clock.ordinal += 1;
        clock.dead = self
            .chaos
            .should_kill(clock.kills, self.generation, boundary);
        clock.kills += u32::from(clock.dead);
        clock.dead
    }

    /// [`Life::advance`] with a panic anywhere in the step (the tuner,
    /// the WAL or an event callback) quarantining the tenant the way a
    /// step error does. Without this, the panic would end the executor
    /// thread before `remaining` counts the tenant, and the daemon
    /// would wait for it forever.
    fn advance_or_poison(&self, tenant: &mut TenantState) -> Advance {
        catch_unwind(AssertUnwindSafe(|| self.advance(tenant)))
            .unwrap_or_else(|payload| self.poison(tenant, panic_message(payload.as_ref())))
    }

    /// Quarantines a tenant with a durable poison record, best effort:
    /// a failing WAL cannot take it, but the outcome and diagnostic
    /// survive into the report either way. The record write and the
    /// callback may be the code that just panicked, so each runs under
    /// its own guard and a second panic only loses that one effect.
    fn poison(&self, tenant: &mut TenantState, diagnostic: String) -> Advance {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            tenant.log.poison(diagnostic.clone(), self.generation)
        }));
        let _ = catch_unwind(AssertUnwindSafe(|| {
            tenant.emit(&self.callback, ProgressEvent::Poisoned)
        }));
        tenant.outcome = Some(TenantOutcome::Poisoned { diagnostic });
        Advance::Terminal
    }

    /// One executor task: gate the tenant on its run cap, else advance
    /// it by one executor step, bill the step, and say what to do next.
    fn advance(&self, tenant: &mut TenantState) -> Advance {
        // Budget gate: refuse to start another segment at or past the
        // cap, so overshoot is bounded by the segment that crossed it.
        // A campaign an earlier life finished only replays.
        if let Some(cap) = tenant.spec.run_cap {
            if tenant.cost.runs >= cap && !tenant.log.is_done() {
                tenant.emit(
                    &self.callback,
                    ProgressEvent::BudgetExhausted { charged: cap },
                );
                tenant.outcome = Some(TenantOutcome::BudgetExhausted {
                    checkpoint: tenant.log.checkpoint().cloned().map(Box::new),
                });
                return Advance::Terminal;
            }
        }
        let step = tenant.log.step(
            || {
                tenant
                    .spec
                    .build_tuner(&tenant.workload, &tenant.arch)
                    .shared_store(self.store.clone())
            },
            self.generation,
            |_| self.kill_point(),
        );
        match step {
            // Killed: the in-memory step result is lost with the
            // process (only the WAL survives a real kill -9); the next
            // life recomputes it from the previous checkpoint.
            Ok(Step::Killed { cost, faults }) => {
                tenant.bill(cost, faults);
                Advance::Abandoned
            }
            Ok(Step::Committed {
                segment,
                cost,
                faults,
            }) => {
                tenant.bill(cost, faults);
                tenant.segments_run += 1;
                let records = tenant.log.records();
                tenant.emit(
                    &self.callback,
                    ProgressEvent::SegmentCommitted { segment, records },
                );
                Advance::Continue
            }
            Ok(Step::Done {
                run,
                digest,
                replayed,
            }) => {
                tenant.bill(run.ctx.cost(), run.ctx.fault_stats());
                let event = if replayed {
                    ProgressEvent::RecoveredDone
                } else {
                    ProgressEvent::Done { digest }
                };
                tenant.emit(&self.callback, event);
                tenant.outcome = Some(TenantOutcome::Done { run, digest });
                Advance::Terminal
            }
            Err(e) => self.poison(tenant, e.to_string()),
        }
    }
}

/// The message a panic was raised with (`panic!` carries a `&str` or a
/// `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(msg) => (*msg).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "panic with a non-string payload".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        let mut s = CampaignSpec::new("swim", "broadwell");
        s.budget = 40;
        s.focus = 8;
        s.seed = 7;
        s.steps_cap = Some(5);
        s.run_cap = Some(500);
        s.with_fault_model(FaultModel::testbed(0xFA17))
    }

    #[test]
    fn spec_round_trips_through_the_canonical_encoding() {
        let s = spec();
        let decoded = CampaignSpec::decode(&s.encode()).expect("own encoding decodes");
        assert_eq!(decoded, s);
        // Options in both states.
        let mut bare = CampaignSpec::new("swim", "bdw");
        bare.steps_cap = None;
        bare.run_cap = None;
        assert_eq!(CampaignSpec::decode(&bare.encode()).unwrap(), bare);
    }

    #[test]
    fn spec_version_skew_is_typed() {
        let mut bytes = spec().encode();
        bytes[0] = 9; // little-endian low byte of the version word
        assert_eq!(
            CampaignSpec::decode(&bytes),
            Err(WireError::Version {
                found: 9,
                supported: SPEC_VERSION,
            })
        );
    }

    #[test]
    fn pre_objective_spec_is_refused_before_any_field_is_read() {
        // Forge a version-1 spec: version word 1, body without the
        // trailing objective word. The version gate must fire first —
        // a typed Version error, never a spec with a defaulted
        // objective (or a garbled field read).
        let mut bytes = spec().encode();
        bytes.truncate(bytes.len() - 16); // drop the objective word
        bytes[..8].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(
            CampaignSpec::decode(&bytes),
            Err(WireError::Version {
                found: 1,
                supported: SPEC_VERSION,
            })
        );
    }

    #[test]
    fn hostile_objective_weight_is_refused() {
        let mut s = spec();
        s.objective = Objective::Weighted { w: 0.5 };
        let mut bytes = s.encode();
        // Overwrite the weight (the final f64) with an out-of-range
        // value; the decoder must refuse, not clamp.
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&7.5f64.to_bits().to_le_bytes());
        assert_eq!(
            CampaignSpec::decode(&bytes),
            Err(WireError::BadValue("objective word"))
        );
    }

    #[test]
    fn spec_truncation_and_trailing_bytes_are_typed() {
        let bytes = spec().encode();
        for cut in 0..bytes.len() {
            assert!(
                CampaignSpec::decode(&bytes[..cut]).is_err(),
                "cut at {cut} silently decoded"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(
            CampaignSpec::decode(&padded),
            Err(WireError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn hostile_fault_rates_are_refused() {
        let mut s = spec();
        s.fault_crash = 1.5;
        assert!(matches!(
            CampaignSpec::decode(&s.encode()),
            Err(WireError::BadValue(_))
        ));
    }

    #[test]
    fn arch_aliases_resolve_like_the_cli() {
        for (alias, name) in [
            ("broadwell", "Broadwell"),
            ("bdw", "Broadwell"),
            ("Sandy Bridge", "Sandy Bridge"),
            ("skylake-512", "Skylake-512"),
            ("amd", "Opteron"),
        ] {
            assert_eq!(arch_by_name(alias).map(|a| a.name), Some(name), "{alias}");
        }
        assert!(arch_by_name("itanium").is_none());
    }

    #[test]
    fn admission_refuses_bad_specs_and_names() {
        let dir = crate::journal::temp_journal_path("server-admission");
        let mut server = TuningServer::new(ServerConfig::new(&dir)).unwrap();
        assert!(matches!(
            server.submit("a/b", spec()),
            Err(AdmissionError::InvalidSpec(_))
        ));
        let mut bogus = spec();
        bogus.workload = "no-such-bench".into();
        assert!(matches!(
            server.submit("t0", bogus),
            Err(AdmissionError::InvalidSpec(_))
        ));
        let mut bad_arch = spec();
        bad_arch.arch = "itanium".into();
        assert!(matches!(
            server.submit("t0", bad_arch),
            Err(AdmissionError::InvalidSpec(_))
        ));
        let mut no_steps = spec();
        no_steps.steps_cap = Some(0);
        assert!(matches!(
            server.submit("t0", no_steps),
            Err(AdmissionError::InvalidSpec(_))
        ));
        let mut huge = spec();
        huge.budget = MAX_BUDGET + 1;
        assert!(matches!(
            server.submit("t0", huge),
            Err(AdmissionError::InvalidSpec(_))
        ));
        server.submit("t0", spec()).expect("valid spec admitted");
        assert!(matches!(
            server.submit("t0", spec()),
            Err(AdmissionError::DuplicateTenant(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
