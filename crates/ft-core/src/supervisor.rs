//! The campaign supervisor: run a tuning campaign as a restartable,
//! journaled task that survives being killed at any instant.
//!
//! [`crate::Tuner::resume`] already proves that a campaign restored
//! from a [`CampaignCheckpoint`] is bit-identical to an uninterrupted
//! one. What was missing is the machinery that makes that guarantee
//! *operational*: something has to write checkpoints durably as the
//! campaign advances, notice that an attempt died, decide whether to
//! retry, and refuse to spin forever on a campaign that dies every
//! time. Two layers split that work:
//!
//! * **One journaled segment executor.** `CampaignLog` owns a
//!   campaign's [`Journal`]: it recovers the last valid record, keeps
//!   the segment cursor, runs one segment per step and appends its
//!   checkpoint, appends the done record and compacts the journal down
//!   to it, replays a done record from an earlier life (verifying the
//!   digest it pins), and writes poison records. The campaign is
//!   driven through *segments* — cumulative phase targets walking the
//!   DAG (baseline, collection, each search, the final joins) — so a
//!   kill between segments loses at most one segment of work. Both the
//!   [`Supervisor`] and the multi-tenant daemon ([`crate::server`])
//!   drive this one executor.
//! * **Chaos kill-points.** Every step calls its driver's kill hook at
//!   the record boundary, just before the record is appended. A kill
//!   drops the step's work with every other in-memory structure and
//!   leaves only the journal — the in-process analogue of `kill -9`.
//!   The [`Supervisor`] feeds the hook a [`ChaosPolicy`] over its own
//!   journal's record count; the chaos harness uses it to prove
//!   recovery at *every* boundary.
//! * **Bounded recovery.** Each [`Supervisor`] attempt recovers from
//!   the journal's last valid record and continues. Failed attempts
//!   back off exponentially with seed-derived jitter (deterministic —
//!   the delays are data, reproducible from the config). A campaign
//!   whose attempts repeatedly die *without appending a single new
//!   record* is poison: after [`SupervisorConfig::poison_threshold`]
//!   consecutive no-progress attempts the supervisor appends a
//!   diagnostic record and quarantines the campaign instead of
//!   looping forever.
//!
//! The supervisor changes nothing about the values a campaign
//! computes: it only decides *when* phases run and *where* their
//! checkpoints persist. The chaos-recovery suite asserts
//! `canonical_bytes()` equality between supervised-and-killed runs
//! and plain `Tuner::run()` across fault models and schedule modes.

use crate::checkpoint::{CampaignCheckpoint, CheckpointError};
use crate::ctx::FaultStats;
use crate::journal::{Journal, JournalError};
use crate::pipeline::{Phase, Tuner, TuningRun};
use crate::TuningCost;
use ft_flags::rng::{derive_seed, splitmix64};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Record kind: an intermediate campaign checkpoint.
pub const RECORD_CHECKPOINT: &str = "checkpoint";
/// Record kind: the campaign completed; carries the final checkpoint
/// and the canonical digest of the finished run.
pub const RECORD_DONE: &str = "done";
/// Record kind: the campaign was quarantined as poison; carries the
/// diagnostic.
pub const RECORD_POISONED: &str = "poisoned";

/// One journal record of a supervised campaign. A single named struct
/// (not an enum) so the vendored derive handles it; `kind` selects
/// which optional fields are meaningful.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignRecord {
    /// [`RECORD_CHECKPOINT`], [`RECORD_DONE`], or [`RECORD_POISONED`].
    pub kind: String,
    /// The frozen campaign state (checkpoint and done records).
    #[serde(default)]
    pub checkpoint: Option<CampaignCheckpoint>,
    /// Canonical digest of the finished run, hex (done records).
    #[serde(default)]
    pub digest: Option<String>,
    /// Why the campaign was quarantined (poisoned records).
    #[serde(default)]
    pub diagnostic: Option<String>,
    /// The attempt that wrote this record (1-based).
    #[serde(default)]
    pub attempt: u32,
}

impl CampaignRecord {
    /// A mid-campaign checkpoint record (the WAL schema shared by
    /// `ftune supervise` and the multi-tenant server).
    pub fn checkpoint(cp: CampaignCheckpoint, attempt: u32) -> CampaignRecord {
        CampaignRecord {
            kind: RECORD_CHECKPOINT.to_string(),
            checkpoint: Some(cp),
            digest: None,
            diagnostic: None,
            attempt,
        }
    }

    /// A terminal success record carrying the final checkpoint and the
    /// campaign's canonical digest.
    pub fn done(cp: CampaignCheckpoint, digest: u64, attempt: u32) -> CampaignRecord {
        CampaignRecord {
            kind: RECORD_DONE.to_string(),
            checkpoint: Some(cp),
            digest: Some(format!("{digest:016x}")),
            diagnostic: None,
            attempt,
        }
    }

    /// A terminal poison record: the campaign is quarantined with a
    /// durable diagnostic and must be refused on every future attempt.
    pub fn poisoned(diagnostic: String, attempt: u32) -> CampaignRecord {
        CampaignRecord {
            kind: RECORD_POISONED.to_string(),
            checkpoint: None,
            digest: None,
            diagnostic: Some(diagnostic),
            attempt,
        }
    }

    /// Serializes for a journal payload.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        serde_json::to_string(self)
            .map(String::into_bytes)
            .map_err(|source| CheckpointError::Serialize { source })
    }

    /// Parses a journal payload. A CRC-valid frame whose JSON does not
    /// parse, whose `kind` is unknown, or whose checkpoint or done
    /// record lacks its checkpoint (or a done record its digest) is a
    /// typed error, never a panic and never a silent fresh start.
    pub fn from_bytes(bytes: &[u8]) -> Result<CampaignRecord, CheckpointError> {
        let text = std::str::from_utf8(bytes).map_err(|e| CheckpointError::Deserialize {
            source: serde::Error::new(format!("record is not UTF-8: {e}")),
        })?;
        let record: CampaignRecord =
            serde_json::from_str(text).map_err(|source| CheckpointError::Deserialize { source })?;
        let malformed = |why: String| Err(CheckpointError::Record(why));
        match record.kind.as_str() {
            RECORD_CHECKPOINT | RECORD_DONE if record.checkpoint.is_none() => {
                return malformed(format!("{} record carries no checkpoint", record.kind))
            }
            RECORD_DONE if record.digest.is_none() => {
                return malformed("done record carries no digest".to_string())
            }
            RECORD_CHECKPOINT | RECORD_DONE | RECORD_POISONED => {}
            other => return malformed(format!("unknown record kind {other:?}")),
        }
        if let Some(cp) = &record.checkpoint {
            cp.validate_phases()?;
        }
        Ok(record)
    }
}

/// Retry/backoff/quarantine policy of a supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Hard bound on attempts (first run + recoveries). Exhausting it
    /// is a typed error carrying the report, never a silent loop.
    pub max_attempts: u32,
    /// Consecutive attempts that die without appending one new record
    /// before the campaign is quarantined as poison.
    pub poison_threshold: u32,
    /// Base backoff after the first consecutive failure, milliseconds.
    /// Doubles per further consecutive failure. 0 disables waiting
    /// (delays are still computed and reported as 0).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_max_ms: u64,
    /// Seed of the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Whether to actually sleep the computed delays. Tests keep this
    /// off (the delays are asserted as data); the CLI turns it on.
    pub sleep: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_attempts: 20,
            poison_threshold: 3,
            backoff_base_ms: 50,
            backoff_max_ms: 2_000,
            backoff_seed: 0x0BAC_C0FF,
            sleep: false,
        }
    }
}

/// Deterministic exponential backoff with seeded jitter: pure in
/// `(config, consecutive_failures, attempt)`, so a supervisor's delay
/// schedule is reproducible data, not wall-clock noise. The jitter is
/// uniform in `[0, base/2]` at the current exponent, de-synchronizing
/// co-scheduled supervisors without unbounded randomness.
pub fn backoff_ms(config: &SupervisorConfig, consecutive_failures: u32, attempt: u32) -> u64 {
    if consecutive_failures == 0 || config.backoff_base_ms == 0 {
        return 0;
    }
    let exp = (consecutive_failures - 1).min(16);
    let base = config
        .backoff_base_ms
        .saturating_mul(1 << exp)
        .min(config.backoff_max_ms);
    let mut state = derive_seed(config.backoff_seed, "supervisor-backoff") ^ u64::from(attempt);
    let jitter = splitmix64(&mut state) % (base / 2 + 1);
    (base + jitter).min(config.backoff_max_ms)
}

/// Seeded deterministic kill injection. A "kill" aborts the current
/// attempt on the spot — every in-memory structure is dropped and only
/// the journal survives, exactly the state a `kill -9` leaves behind.
/// Kill-points sit at journal-record boundaries: just before record
/// `k + 1` is appended (equivalently, any time after record `k` hit
/// the disk), where `k` in `0..=segments` counts the records already
/// durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPolicy {
    /// No injection (production).
    Off,
    /// Kill the first attempt that reaches the boundary where
    /// `boundary` records exist, once. The recovery attempt sails
    /// through — this is the chaos harness's per-boundary probe.
    KillOnce {
        /// Record count at which to kill.
        boundary: usize,
    },
    /// Kill *every* attempt that reaches the boundary — a poison
    /// campaign generator for the quarantine path.
    KillAlways {
        /// Record count at which to kill.
        boundary: usize,
    },
    /// Seeded coin-flip at every boundary: kill with probability
    /// `rate_percent`/100, at most `max_kills` times. Pure in
    /// `(seed, attempt, boundary)`.
    Seeded {
        /// Root seed of the kill stream.
        seed: u64,
        /// Kill probability per boundary, percent (0–100).
        rate_percent: u8,
        /// Total kill budget across the campaign.
        max_kills: u32,
    },
}

impl ChaosPolicy {
    /// Whether to kill at this boundary of this attempt. Shared with
    /// the distributed plane, which reuses the same kill-point
    /// machinery with the batch sequence as the boundary and the
    /// worker index as the attempt (see [`crate::remote::RemotePlane`]).
    pub fn should_kill(&self, kills_so_far: u32, attempt: u32, boundary: usize) -> bool {
        match *self {
            ChaosPolicy::Off => false,
            ChaosPolicy::KillOnce { boundary: b } => kills_so_far == 0 && boundary == b,
            ChaosPolicy::KillAlways { boundary: b } => boundary == b,
            ChaosPolicy::Seeded {
                seed,
                rate_percent,
                max_kills,
            } => {
                if kills_so_far >= max_kills {
                    return false;
                }
                let mut state =
                    derive_seed(seed, "chaos-kill") ^ (u64::from(attempt) << 32) ^ boundary as u64;
                (splitmix64(&mut state) % 100) < u64::from(rate_percent.min(100))
            }
        }
    }
}

/// What a supervisor did, for assertions and operator visibility.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Attempts started (1 = never died).
    pub attempts: u32,
    /// Chaos kills injected.
    pub kills: u32,
    /// Journal records present when each attempt started (index 0 =
    /// first attempt; a recovery attempt resumes from the last one).
    pub resumed_from: Vec<usize>,
    /// Records appended across all attempts (excluding the terminal
    /// done/poisoned record).
    pub checkpoints_written: usize,
    /// Backoff delay computed after each failed attempt, milliseconds.
    pub backoffs_ms: Vec<u64>,
}

/// A completed supervised campaign.
pub struct Supervised {
    /// The finished run — bit-identical to an unsupervised
    /// `Tuner::run()` of the same configuration.
    pub run: TuningRun,
    /// What it took to get there.
    pub report: SupervisorReport,
}

impl fmt::Debug for Supervised {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // TuningRun carries no Debug (it owns a whole EvalContext);
        // the report plus the run's digest identify the outcome.
        f.debug_struct("Supervised")
            .field(
                "digest",
                &format_args!("{:016x}", self.run.canonical_digest()),
            )
            .field("report", &self.report)
            .finish()
    }
}

/// Why a supervised campaign did not complete.
#[derive(Debug)]
pub enum SupervisorError {
    /// The journal could not be read or written.
    Journal(JournalError),
    /// A checkpoint or journal record failed to (de)serialize,
    /// validate, or resume, or a done record's digest did not replay.
    Checkpoint(CheckpointError),
    /// The campaign died `poison_threshold` consecutive times without
    /// progress and was quarantined with a diagnostic record.
    Poisoned {
        /// The diagnostic written to the journal.
        diagnostic: String,
        /// The supervisor's trace up to quarantine.
        report: SupervisorReport,
    },
    /// `max_attempts` attempts were used up (progress was still being
    /// made, unlike `Poisoned` — raise the bound or inspect the
    /// journal).
    AttemptsExhausted {
        /// The supervisor's trace.
        report: SupervisorReport,
    },
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::Journal(e) => write!(f, "campaign journal failure: {e}"),
            SupervisorError::Checkpoint(e) => write!(f, "campaign checkpoint failure: {e}"),
            SupervisorError::Poisoned { diagnostic, report } => write!(
                f,
                "campaign quarantined as poison after {} attempts: {diagnostic}",
                report.attempts
            ),
            SupervisorError::AttemptsExhausted { report } => write!(
                f,
                "supervisor exhausted {} attempts without finishing",
                report.attempts
            ),
        }
    }
}

impl std::error::Error for SupervisorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SupervisorError::Journal(e) => Some(e),
            SupervisorError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for SupervisorError {
    fn from(e: JournalError) -> Self {
        SupervisorError::Journal(e)
    }
}

impl From<CheckpointError> for SupervisorError {
    fn from(e: CheckpointError) -> Self {
        SupervisorError::Checkpoint(e)
    }
}

/// The segment plan: checkpoint after the baseline, after the
/// collection, then after each search joins in — six records walking
/// the DAG one phase at a time, including the mid-stage joins an
/// overlapped schedule would checkpoint at.
pub fn default_segments() -> Vec<Vec<Phase>> {
    vec![
        vec![Phase::Baseline],
        vec![Phase::Collect],
        vec![Phase::Collect, Phase::Random],
        vec![Phase::Collect, Phase::Random, Phase::Fr],
        vec![Phase::Collect, Phase::Random, Phase::Fr, Phase::Greedy],
        Phase::ALL.to_vec(),
    ]
}

/// Whether a checkpoint already covers a segment: every phase the
/// segment's targets imply, dependency closure included, completed.
fn segment_done(cp: &CampaignCheckpoint, targets: &[Phase]) -> bool {
    let done = cp.completed_phases();
    targets
        .iter()
        .flat_map(|t| t.requires().into_iter().chain([*t]))
        .all(|p| done.contains(&p))
}

/// What the executor knows of its campaign between steps.
enum LogState {
    /// Mid-campaign: the last durable checkpoint (`None` before the
    /// first segment commits).
    Running(Option<CampaignCheckpoint>),
    /// An earlier life finished: the done record's checkpoint and the
    /// digest it pins.
    Done(CampaignCheckpoint, String),
    /// Quarantined: the poison record's diagnostic.
    Poisoned(String),
    /// A step finished, was killed or failed. Its in-memory state is
    /// gone, as it would be with the process; the driver drops the log.
    Spent,
}

/// What one [`CampaignLog::step`] did; `cost` and `faults` are the
/// ledger the step charged.
pub(crate) enum Step {
    /// Segment `segment` of [`default_segments`] ran and its
    /// checkpoint record is durable.
    Committed {
        segment: usize,
        cost: TuningCost,
        faults: FaultStats,
    },
    /// The campaign finished and its digest is durable: just now (done
    /// record appended, journal compacted) or, when `replayed`, in an
    /// earlier life whose done record was resumed and verified.
    Done {
        run: Box<TuningRun>,
        digest: u64,
        replayed: bool,
    },
    /// The driver's kill hook fired at the record boundary: nothing
    /// was appended and the step's work is lost with the log.
    Killed {
        cost: TuningCost,
        faults: FaultStats,
    },
}

/// The journaled segment executor both drivers share: the
/// [`Supervisor`]'s attempt loop and the daemon's per-tenant task
/// ([`crate::server`]). It owns recovery, the segment cursor, record
/// appends, done-plus-compaction, done-record replay and poison
/// records; a driver keeps only its retry, scheduling and billing
/// policy, and its kill-point, which it passes to every step.
pub(crate) struct CampaignLog {
    journal: Journal,
    state: LogState,
}

impl CampaignLog {
    /// Opens (or creates) the journal at `path` and recovers the
    /// campaign from its last valid record. A malformed record is a
    /// typed [`SupervisorError::Checkpoint`]; a poison record opens,
    /// and [`CampaignLog::poisoned`] reports its diagnostic.
    pub(crate) fn open(path: &Path) -> Result<CampaignLog, SupervisorError> {
        let (journal, recovery) = Journal::open_or_create(path)?;
        let state = match recovery
            .last()
            .map(CampaignRecord::from_bytes)
            .transpose()?
        {
            None => LogState::Running(None),
            Some(record) => match (record.kind.as_str(), record.checkpoint, record.digest) {
                (RECORD_POISONED, ..) => LogState::Poisoned(
                    record
                        .diagnostic
                        .unwrap_or_else(|| "poisoned with no diagnostic".to_string()),
                ),
                (RECORD_DONE, Some(cp), Some(digest)) => LogState::Done(cp, digest),
                (_, cp, _) => LogState::Running(cp),
            },
        };
        Ok(CampaignLog { journal, state })
    }

    /// Records currently in the journal.
    pub(crate) fn records(&self) -> usize {
        self.journal.record_count()
    }

    /// The diagnostic of a recovered poison record: the campaign must
    /// be refused, not stepped.
    pub(crate) fn poisoned(&self) -> Option<&str> {
        match &self.state {
            LogState::Poisoned(diagnostic) => Some(diagnostic),
            _ => None,
        }
    }

    /// Whether an earlier life finished the campaign (the next step
    /// replays the done record).
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.state, LogState::Done(..))
    }

    /// The last durable mid-campaign checkpoint, if a segment has
    /// committed.
    pub(crate) fn checkpoint(&self) -> Option<&CampaignCheckpoint> {
        match &self.state {
            LogState::Running(cp) => cp.as_ref(),
            _ => None,
        }
    }

    /// Advances the campaign by one step: the next uncommitted segment,
    /// else the final resume plus done record, or — when an earlier
    /// life finished — the replay of the done record. `tuner` is called
    /// exactly once, to build the step's fresh [`Tuner`]. `kill` is the
    /// driver's kill-point: it sees the journal's record count just
    /// before the step's record would be appended, and returning true
    /// abandons the step there ([`Step::Killed`]). `attempt` is written
    /// into the record.
    ///
    /// After anything but [`Step::Committed`], the log is spent.
    pub(crate) fn step<'a>(
        &mut self,
        tuner: impl FnOnce() -> Tuner<'a>,
        attempt: u32,
        kill: impl FnOnce(usize) -> bool,
    ) -> Result<Step, SupervisorError> {
        let checkpoint = match std::mem::replace(&mut self.state, LogState::Spent) {
            LogState::Running(checkpoint) => checkpoint,
            LogState::Done(checkpoint, recorded) => {
                // Everything is restored from the terminal checkpoint;
                // only the cheap deterministic baseline re-measures.
                let run = tuner().resume(checkpoint)?;
                let digest = run.canonical_digest();
                if format!("{digest:016x}") != recorded {
                    return Err(CheckpointError::DigestMismatch {
                        recorded,
                        replayed: digest,
                    }
                    .into());
                }
                return Ok(Step::Done {
                    run: Box::new(run),
                    digest,
                    replayed: true,
                });
            }
            LogState::Poisoned(_) | LogState::Spent => {
                unreachable!("drivers refuse a poisoned log and drop a spent one")
            }
        };

        let segments = default_segments();
        let next = segments
            .iter()
            .position(|s| !checkpoint.as_ref().is_some_and(|cp| segment_done(cp, s)));
        if let Some(segment) = next {
            let paused = match checkpoint {
                None => tuner().run_until_phases_costed(&segments[segment]),
                Some(cp) => tuner().resume_until_phases_costed(cp, &segments[segment])?,
            };
            if kill(self.records()) {
                return Ok(Step::Killed {
                    cost: paused.cost,
                    faults: paused.faults,
                });
            }
            let mut record = CampaignRecord::checkpoint(paused.checkpoint, attempt);
            self.journal.append(&record.to_bytes()?)?;
            self.state = LogState::Running(record.checkpoint.take());
            return Ok(Step::Committed {
                segment,
                cost: paused.cost,
                faults: paused.faults,
            });
        }

        // Every segment is durable: assemble the finished run, append
        // the done record, compact the journal down to it.
        let cp = checkpoint.expect("an empty checkpoint leaves segment 0 to run");
        let run = tuner().resume(cp.clone())?;
        let digest = run.canonical_digest();
        if kill(self.records()) {
            return Ok(Step::Killed {
                cost: run.ctx.cost(),
                faults: run.ctx.fault_stats(),
            });
        }
        let payload = CampaignRecord::done(cp, digest, attempt).to_bytes()?;
        self.journal.append(&payload)?;
        // Compaction only saves space (the checkpoint prefix can be
        // megabytes of collection data): the done record is already
        // durable at the journal tail, which is all recovery reads, so
        // a failed compaction leaves a correct, longer journal.
        let _ = self.journal.compact(&[&payload]);
        Ok(Step::Done {
            run: Box::new(run),
            digest,
            replayed: false,
        })
    }

    /// Appends a poison record, whatever state the log is in: the
    /// campaign is quarantined and every later open refuses it.
    pub(crate) fn poison(
        &mut self,
        diagnostic: String,
        attempt: u32,
    ) -> Result<(), SupervisorError> {
        let payload = CampaignRecord::poisoned(diagnostic, attempt).to_bytes()?;
        self.journal.append(&payload)?;
        Ok(())
    }
}

/// Drives one campaign to completion through a journal, surviving
/// kills at any record boundary. See the module docs for the state
/// machine.
pub struct Supervisor<'a> {
    factory: Box<dyn Fn() -> Tuner<'a> + 'a>,
    journal_path: PathBuf,
    config: SupervisorConfig,
    chaos: ChaosPolicy,
}

impl<'a> Supervisor<'a> {
    /// A supervisor journaling to `journal_path`, building each
    /// segment's tuner with `factory`. The factory must return
    /// identically-configured tuners — the checkpoint identity check
    /// enforces it at resume time.
    pub fn new(journal_path: &Path, factory: impl Fn() -> Tuner<'a> + 'a) -> Supervisor<'a> {
        Supervisor {
            factory: Box::new(factory),
            journal_path: journal_path.to_path_buf(),
            config: SupervisorConfig::default(),
            chaos: ChaosPolicy::Off,
        }
    }

    /// Overrides the retry/backoff/quarantine policy.
    pub fn config(mut self, config: SupervisorConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs a chaos kill policy (tests and drills).
    pub fn chaos(mut self, chaos: ChaosPolicy) -> Self {
        self.chaos = chaos;
        self
    }

    /// Runs the campaign to completion (or quarantine). Kill-aborted
    /// attempts recover from the journal; the finished run is
    /// bit-identical to an unsupervised `Tuner::run()`. A finished
    /// journal replays to its run, refused with a typed error when the
    /// replay does not reproduce the digest the done record pins.
    pub fn run(self) -> Result<Supervised, SupervisorError> {
        let mut report = SupervisorReport::default();
        let mut no_progress = 0u32;
        for attempt in 1..=self.config.max_attempts {
            report.attempts = attempt;
            let mut log = CampaignLog::open(&self.journal_path)?;
            let start = log.records();
            report.resumed_from.push(start);
            if let Some(diagnostic) = log.poisoned() {
                let diagnostic = diagnostic.to_string();
                return Err(SupervisorError::Poisoned { diagnostic, report });
            }
            loop {
                let step = log.step(
                    || (self.factory)(),
                    attempt,
                    |records| {
                        let kill = self.chaos.should_kill(report.kills, attempt, records);
                        report.kills += u32::from(kill);
                        kill
                    },
                )?;
                match step {
                    Step::Committed { .. } => report.checkpoints_written += 1,
                    Step::Done { run, .. } => return Ok(Supervised { run: *run, report }),
                    Step::Killed { .. } => break,
                }
            }
            if log.records() > start {
                no_progress = 0;
            } else {
                no_progress += 1;
            }
            if no_progress >= self.config.poison_threshold {
                let diagnostic = format!(
                    "{no_progress} consecutive attempts died before \
                     appending a record (last attempt {attempt}, \
                     {start} records in journal)"
                );
                log.poison(diagnostic.clone(), attempt)?;
                return Err(SupervisorError::Poisoned { diagnostic, report });
            }
            let delay = backoff_ms(&self.config, no_progress.max(1), attempt);
            report.backoffs_ms.push(delay);
            if self.config.sleep && delay > 0 {
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
        }
        Err(SupervisorError::AttemptsExhausted { report })
    }
}
