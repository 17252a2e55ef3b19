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
//!   campaign's [`Journal`]: it recovers the campaign by folding the
//!   journal's checkpoint records ([`fold_checkpoints`]), keeps the
//!   segment cursor, runs one segment per step and appends a record of
//!   the phases that segment added, appends the done record (the whole
//!   final campaign plus its digest) and compacts the journal down to
//!   it, replays a done record from an earlier life (verifying the
//!   digest it pins), and writes poison records. The campaign is
//!   driven through *segments* — cumulative phase targets walking the
//!   DAG (baseline, collection, each search, the final joins) — so a
//!   kill between segments loses at most one segment of work. Both the
//!   [`Supervisor`] and the multi-tenant daemon ([`crate::server`])
//!   drive this one executor.
//! * **Binary records.** A [`CampaignRecord`] is a sealed record (see
//!   [`crate::checkpoint`]): the canonical encoding
//!   ([`crate::canonical`]) behind a format tag ([`RECORD_MAGIC`],
//!   [`crate::checkpoint::RECORD_FORMAT_VERSION`]) and ahead of a
//!   checksum, the one on-disk form of a checkpoint; a collection file
//!   is a typed [`CheckpointError::WrongTag`] refusal and a record of
//!   any other format a typed [`CheckpointError::Version`] one.
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

use crate::canonical::{write_option, write_str, write_u64, Reader};
use crate::checkpoint::{seal, unseal, CampaignCheckpoint, CheckpointError};
use crate::ctx::FaultStats;
use crate::journal::{Journal, JournalError};
use crate::pipeline::{Phase, Tuner, TuningRun};
use crate::TuningCost;
use ft_flags::rng::{derive_seed, splitmix64};
use std::fmt;
use std::path::{Path, PathBuf};

/// Record kind: the phases one segment added to the campaign.
pub const RECORD_CHECKPOINT: &str = "checkpoint";
/// Record kind: the campaign completed; carries the final checkpoint
/// and the canonical digest of the finished run.
pub const RECORD_DONE: &str = "done";
/// Record kind: the campaign was quarantined as poison; carries the
/// diagnostic.
pub const RECORD_POISONED: &str = "poisoned";

/// First four bytes of every binary campaign record; sealed under
/// [`crate::checkpoint::RECORD_FORMAT_VERSION`] like every checkpoint.
pub const RECORD_MAGIC: [u8; 4] = *b"FTWR";

/// One journal record of a supervised campaign; `kind` selects which
/// optional fields are meaningful.
///
/// A checkpoint record's `checkpoint` holds only what its segment
/// added: the campaign identity, the new phase result(s) and the
/// quarantine lists ([`fold_checkpoints`] rebuilds the campaign). A
/// done record's holds the whole final campaign.
///
/// On disk a record is the binary layout of DESIGN §13: a sealed
/// record (see [`crate::checkpoint`]) under [`RECORD_MAGIC`] whose
/// body is every field in the canonical encoding
/// ([`crate::canonical`]).
#[derive(Debug, Clone)]
pub struct CampaignRecord {
    /// [`RECORD_CHECKPOINT`], [`RECORD_DONE`], or [`RECORD_POISONED`].
    pub kind: String,
    /// The segment's delta (checkpoint records) or the final campaign
    /// (done records).
    pub checkpoint: Option<CampaignCheckpoint>,
    /// Canonical digest of the finished run, hex (done records).
    pub digest: Option<String>,
    /// Why the campaign was quarantined (poisoned records).
    pub diagnostic: Option<String>,
    /// The attempt that wrote this record (1-based).
    pub attempt: u32,
}

impl CampaignRecord {
    /// A checkpoint record carrying `cp` whole. The segment executor
    /// writes only each segment's delta ([`CampaignRecord::delta_bytes`]),
    /// which equals this record over a checkpoint holding the delta's
    /// phases alone.
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

    /// Encodes the record as a journal payload. Never fails; the
    /// `Result` is the signature the JSON codec had.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        Ok(encode_record(
            &self.kind,
            self.checkpoint.as_ref().map(|cp| (cp, None)),
            self.digest.as_deref(),
            self.diagnostic.as_deref(),
            self.attempt,
        ))
    }

    /// The checkpoint record of a segment that added `phases` to the
    /// campaign `cp`, encoded straight from the engine state.
    pub(crate) fn delta_bytes(cp: &CampaignCheckpoint, phases: &[Phase], attempt: u32) -> Vec<u8> {
        encode_record(
            RECORD_CHECKPOINT,
            Some((cp, Some(phases))),
            None,
            None,
            attempt,
        )
    }

    /// Decodes a journal payload. Every failure is typed, never a
    /// panic and never a silent fresh start: besides the seal's own
    /// refusals ([`crate::checkpoint`]: an `FTCK` tag is
    /// [`CheckpointError::WrongTag`], no tag or another format
    /// [`CheckpointError::Version`], a truncated, tampered or
    /// undecodable record [`CheckpointError::Record`]), a record whose
    /// `kind` is unknown, or whose checkpoint or done record lacks its
    /// checkpoint (or a done record its digest) is
    /// [`CheckpointError::Record`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CampaignRecord, CheckpointError> {
        let record = unseal(bytes, RECORD_MAGIC, |r| {
            Some(CampaignRecord {
                kind: r.str()?,
                attempt: r.u32()?,
                checkpoint: r.option(CampaignCheckpoint::read_record)?,
                digest: r.option(Reader::str)?,
                diagnostic: r.option(Reader::str)?,
            })
        })?;
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
        // A delta is not closed under dependencies; the fold validates
        // what the deltas add up to.
        if let (RECORD_DONE, Some(cp)) = (record.kind.as_str(), &record.checkpoint) {
            cp.validate_phases()?;
        }
        Ok(record)
    }
}

/// Seals a record's fields. A checkpoint paired with `Some(phases)` is
/// written as that delta.
fn encode_record(
    kind: &str,
    checkpoint: Option<(&CampaignCheckpoint, Option<&[Phase]>)>,
    digest_hex: Option<&str>,
    diagnostic: Option<&str>,
    attempt: u32,
) -> Vec<u8> {
    seal(RECORD_MAGIC, |out| {
        write_str(out, kind);
        write_u64(out, u64::from(attempt));
        write_option(out, checkpoint.as_ref(), |(cp, phases), out| {
            cp.write_record(out, *phases)
        });
        for text in [digest_hex, diagnostic] {
            write_option(out, text, |s, out| write_str(out, s));
        }
    })
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

/// The phases a segment completes: its targets and their dependency
/// closure, in canonical order.
fn segment_phases(targets: &[Phase]) -> Vec<Phase> {
    Phase::ALL
        .into_iter()
        .filter(|p| targets.iter().any(|t| t == p || t.requires().contains(p)))
        .collect()
}

/// Whether a checkpoint already covers a segment: every phase the
/// segment's targets imply, dependency closure included, completed.
fn segment_done(cp: &CampaignCheckpoint, targets: &[Phase]) -> bool {
    let done = cp.completed_phases();
    segment_phases(targets).iter().all(|p| done.contains(p))
}

/// Folds a journal's checkpoint records, in order, into the campaign
/// they describe (`None` for no record). Record `i` must carry the
/// identity of the records before it and only phases they lack, and
/// after it the completed set must be exactly the phases segment `i`
/// of [`default_segments`] completes. The quarantine lists only grow,
/// so the last record's are kept. Anything else (a missing, reordered,
/// duplicated or empty delta, a foreign identity, a record of another
/// kind) is a typed [`CheckpointError::Record`], and each folded state
/// must pass [`CampaignCheckpoint::validate_phases`].
pub fn fold_checkpoints(
    records: impl IntoIterator<Item = CampaignRecord>,
) -> Result<Option<CampaignCheckpoint>, CheckpointError> {
    let segments = default_segments();
    let mut folded: Option<CampaignCheckpoint> = None;
    for (i, record) in records.into_iter().enumerate() {
        let refuse = |why: String| CheckpointError::Record(format!("checkpoint record {i}: {why}"));
        let delta = match (record.kind.as_str(), record.checkpoint) {
            (RECORD_CHECKPOINT, Some(delta)) => delta,
            (kind, _) => return Err(refuse(format!("a {kind} record is not a segment delta"))),
        };
        let Some(targets) = segments.get(i) else {
            return Err(refuse(format!("the plan has {} segments", segments.len())));
        };
        if delta.completed_phases().is_empty() {
            return Err(refuse("adds no phase".to_string()));
        }
        if delta.completed != delta.completed_labels() {
            return Err(refuse(format!(
                "stamps {:?} but carries {:?}",
                delta.completed,
                delta.completed_labels()
            )));
        }
        let mut cp = match folded.take() {
            None => delta,
            Some(mut cp) => {
                merge(&mut cp, delta).map_err(refuse)?;
                cp
            }
        };
        cp.completed = cp.completed_labels();
        let want = segment_phases(targets);
        if cp.completed_phases() != want {
            let labels = |ps: &[Phase]| ps.iter().map(|p| p.label()).collect::<Vec<_>>();
            return Err(refuse(format!(
                "the journal then holds {:?}, but segment {i} completes {:?}",
                cp.completed,
                labels(&want)
            )));
        }
        cp.validate_phases()?;
        folded = Some(cp);
    }
    Ok(folded)
}

/// Adds a segment's delta to the campaign folded so far.
fn merge(cp: &mut CampaignCheckpoint, delta: CampaignCheckpoint) -> Result<(), String> {
    fn identity(c: &CampaignCheckpoint) -> impl PartialEq + '_ {
        (
            c.workload.as_str(),
            c.arch.as_str(),
            c.budget,
            c.focus,
            c.seed,
            c.steps_cap,
            c.faults,
            c.objective,
        )
    }
    if identity(cp) != identity(&delta) {
        return Err(format!(
            "belongs to another campaign ({} seed {} vs {} seed {})",
            delta.workload, delta.seed, cp.workload, cp.seed
        ));
    }
    fn add<T>(slot: &mut Option<T>, value: Option<T>, phase: Phase) -> Result<(), String> {
        match (slot.is_some(), value) {
            (true, Some(_)) => Err(format!("repeats phase {:?}", phase.label())),
            (_, Some(v)) => {
                *slot = Some(v);
                Ok(())
            }
            (_, None) => Ok(()),
        }
    }
    add(&mut cp.baseline_time, delta.baseline_time, Phase::Baseline)?;
    add(&mut cp.data, delta.data, Phase::Collect)?;
    add(&mut cp.random, delta.random, Phase::Random)?;
    add(&mut cp.fr, delta.fr, Phase::Fr)?;
    add(&mut cp.greedy, delta.greedy, Phase::Greedy)?;
    add(&mut cp.cfr, delta.cfr, Phase::Cfr)?;
    cp.bad_compiles = delta.bad_compiles;
    cp.bad_programs = delta.bad_programs;
    Ok(())
}

/// What the executor knows of its campaign between steps.
enum LogState {
    /// Mid-campaign: the campaign the durable checkpoint records hold
    /// (`None` before the first segment commits).
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
    /// campaign. A journal ending in a done or poison record opens to
    /// that record, and [`CampaignLog::poisoned`] reports a poison
    /// record's diagnostic; otherwise the checkpoint records fold into
    /// the campaign so far ([`fold_checkpoints`]). A malformed record,
    /// or one that does not fold, is a typed
    /// [`SupervisorError::Checkpoint`].
    pub(crate) fn open(path: &Path) -> Result<CampaignLog, SupervisorError> {
        let (journal, recovery) = Journal::open_or_create(path)?;
        let mut records = recovery
            .records
            .iter()
            .map(|bytes| CampaignRecord::from_bytes(bytes))
            .collect::<Result<Vec<_>, _>>()?;
        let terminal = records
            .last()
            .is_some_and(|r| r.kind == RECORD_DONE || r.kind == RECORD_POISONED);
        let state = match records.pop() {
            Some(last) if terminal => match (last.kind.as_str(), last.checkpoint, last.digest) {
                (RECORD_DONE, Some(cp), Some(digest)) => LogState::Done(cp, digest),
                _ => LogState::Poisoned(
                    last.diagnostic
                        .unwrap_or_else(|| "poisoned with no diagnostic".to_string()),
                ),
            },
            last => LogState::Running(fold_checkpoints(records.into_iter().chain(last))?),
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

    /// The campaign so far, folded from the durable checkpoint
    /// records, if a segment has committed.
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
            let before = checkpoint
                .as_ref()
                .map_or_else(Vec::new, CampaignCheckpoint::completed_phases);
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
            let mut added = paused.checkpoint.completed_phases();
            added.retain(|p| !before.contains(p));
            let payload = CampaignRecord::delta_bytes(&paused.checkpoint, &added, attempt);
            self.journal.append(&payload)?;
            self.state = LogState::Running(Some(paused.checkpoint));
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
        // Compaction only saves space (the done record repeats every
        // delta before it): the done record is already durable at the
        // journal tail, and recovery of a journal ending in a done
        // record reads that record alone, so a failed compaction
        // leaves a correct, longer journal.
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
