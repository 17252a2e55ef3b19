//! Checkpoints: persist the expensive phases of a campaign.
//!
//! The Figure 4 collection is the costly phase (K instrumented runs —
//! days on the paper's testbeds). Once collected, the same data feeds
//! G, CFR, every focus-width/budget ablation, and the importance
//! analyses. A [`Checkpoint`] bundles the collection with enough
//! context (program, architecture, input) to validate that a later
//! session is re-using it against the same tuning problem.
//!
//! A [`CampaignCheckpoint`] goes further: it snapshots a whole
//! [`crate::Tuner`] campaign mid-phase (completed phase results plus
//! the fault-quarantine lists), so a killed multi-day campaign resumes
//! where it stopped instead of redoing the collection. Because every
//! phase draws its seeds independently from the root seed, a resumed
//! campaign is bit-identical to an uninterrupted one.
//!
//! On disk both are *sealed records* (`seal`, `unseal`): a 4-byte
//! tag ([`COLLECTION_MAGIC`] for a collection file, the WAL's
//! [`crate::supervisor::RECORD_MAGIC`] for a campaign record), the
//! one [`RECORD_FORMAT_VERSION`], the body in the canonical encoding
//! ([`crate::canonical`]) and a trailing checksum. Every time, `+inf`
//! rows included, survives bit for bit. A record read under the other
//! tag is refused with [`CheckpointError::WrongTag`], naming both.

use crate::algorithms::GreedyOutcome;
use crate::canonical::{digest, write_str, write_u64, Reader};
use crate::collection::CollectionData;
use crate::ctx::EvalContext;
use crate::objective::Objective;
use crate::pipeline::Phase;
use crate::result::TuningResult;
use ft_compiler::FaultModel;
use std::fmt;

/// First four bytes of a collection checkpoint file.
pub const COLLECTION_MAGIC: [u8; 4] = *b"FTCK";

/// Every tag a record is sealed under.
const SEALED_TAGS: [[u8; 4]; 2] = [COLLECTION_MAGIC, crate::supervisor::RECORD_MAGIC];

/// Format version of every sealed record, written as a little-endian
/// `u32` right after its tag. A payload without the tag, such as a
/// file of the earlier serde-JSON codec, reads as version 0; any
/// version but this one is refused with a typed
/// [`CheckpointError::Version`].
///
/// Version history: 0 = serde JSON (refused), 1 = the first binary
/// WAL record, 2 = campaign checkpoints lose their in-body schema
/// version and collection checkpoints are sealed too.
pub const RECORD_FORMAT_VERSION: u32 = 2;

/// A persisted collection plus its provenance.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Program name the data was collected on.
    pub program: String,
    /// Architecture name.
    pub arch: String,
    /// Time-steps per collection run.
    pub steps: u32,
    /// Module names, in id order (guards against re-outlining drift).
    pub module_names: Vec<String>,
    /// The collection itself.
    pub data: CollectionData,
}

/// Why a checkpoint cannot be used with a context.
///
/// Each failure mode is its own variant so callers can branch on the
/// cause instead of grepping a formatted string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Program/architecture/input mismatch.
    Mismatch(String),
    /// The record's format version is not one this build reads.
    Version {
        /// Version recorded in the file (0 for a payload without the
        /// expected tag).
        found: u32,
        /// The version this build writes and reads.
        supported: u32,
    },
    /// The payload is a sealed record of the other kind: a WAL record
    /// read as a collection file, or the reverse.
    WrongTag {
        /// The tag the reader accepts.
        expected: [u8; 4],
        /// The tag the payload carries.
        found: [u8; 4],
    },
    /// The completed-phase list is structurally invalid (unknown
    /// label, duplicate, out of canonical order, or inconsistent with
    /// the phase results actually present).
    Phases(String),
    /// A sealed record is malformed: it is truncated, fails its
    /// checksum or its body does not decode; or, for a campaign record,
    /// its kind is unknown, a checkpoint or done record lacks its
    /// checkpoint (or a done record its digest), or a checkpoint record
    /// does not fold onto the records before it (see
    /// [`crate::supervisor::fold_checkpoints`]).
    Record(String),
    /// A done record's checkpoint replays to a different canonical
    /// digest than the one the record pins.
    DigestMismatch {
        /// The digest the done record carries, hex.
        recorded: String,
        /// The digest of the run its checkpoint replays to.
        replayed: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::Version { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads \
                 version {supported}; re-collect or use a matching build)"
            ),
            CheckpointError::WrongTag { expected, found } => write!(
                f,
                "sealed record tagged {} where {} was expected",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(expected)
            ),
            CheckpointError::Phases(m) => write!(f, "checkpoint phase list invalid: {m}"),
            CheckpointError::Record(m) => write!(f, "malformed sealed record: {m}"),
            CheckpointError::DigestMismatch { recorded, replayed } => write!(
                f,
                "done record pins digest {recorded} but its checkpoint replays to {replayed:016x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Seals a record: `tag`, [`RECORD_FORMAT_VERSION`], the body `write`
/// appends in the canonical encoding, and a trailing
/// [`crate::canonical::digest`] of everything before it, so the record
/// verifies itself outside any frame.
pub(crate) fn seal(tag: [u8; 4], write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&tag);
    out.extend_from_slice(&RECORD_FORMAT_VERSION.to_le_bytes());
    write(&mut out);
    let sum = digest(&out);
    write_u64(&mut out, sum);
    out
}

/// Inverse of [`seal`]. Every failure is typed, never a panic: a
/// payload sealed under another of [`SEALED_TAGS`] is
/// [`CheckpointError::WrongTag`]; one without any tag or of another
/// format is [`CheckpointError::Version`]; a truncated one, one that
/// fails its checksum, or one whose body `read` does not consume whole is
/// [`CheckpointError::Record`]. The body is walked once dry before it
/// is decoded, so a hostile length or count costs no memory.
pub(crate) fn unseal<T>(
    bytes: &[u8],
    tag: [u8; 4],
    read: impl Fn(&mut Reader) -> Option<T>,
) -> Result<T, CheckpointError> {
    let truncated =
        || CheckpointError::Record(format!("record truncated to {} bytes", bytes.len()));
    let unsupported = |found| CheckpointError::Version {
        found,
        supported: RECORD_FORMAT_VERSION,
    };
    if let Some(&found) = SEALED_TAGS
        .iter()
        .find(|t| **t != tag && bytes.starts_with(&t[..]))
    {
        return Err(CheckpointError::WrongTag {
            expected: tag,
            found,
        });
    }
    let Some(head) = bytes.get(..8) else {
        return Err(if tag.starts_with(bytes) || bytes.starts_with(&tag) {
            truncated()
        } else {
            unsupported(0)
        });
    };
    if head[..4] != tag {
        return Err(unsupported(0));
    }
    let version = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
    if version != RECORD_FORMAT_VERSION {
        return Err(unsupported(version));
    }
    let Some(split) = bytes.len().checked_sub(8).filter(|n| *n >= 8) else {
        return Err(truncated());
    };
    let (sealed, trailer) = bytes.split_at(split);
    if digest(sealed).to_le_bytes() != trailer {
        return Err(CheckpointError::Record(
            "record checksum mismatch".to_string(),
        ));
    }
    let decode = |mut r: Reader| match read(&mut r) {
        Some(value) if r.at_end() => Ok(value),
        _ => Err(CheckpointError::Record(format!(
            "record body malformed at byte {}",
            8 + r.pos()
        ))),
    };
    decode(Reader::dry(&sealed[8..]))?;
    decode(Reader::new(&sealed[8..]))
}

impl Checkpoint {
    /// Captures a collection from the context it was produced in.
    pub fn capture(ctx: &EvalContext, data: CollectionData) -> Checkpoint {
        Checkpoint {
            program: ctx.ir.name.clone(),
            arch: ctx.arch.name.to_string(),
            steps: ctx.steps,
            module_names: ctx.ir.modules.iter().map(|m| m.name.clone()).collect(),
            data,
        }
    }

    /// Validates the checkpoint against a context and hands the
    /// collection back for reuse. An empty collection, or one whose
    /// time matrix does not hold one entry per module and sample, is
    /// refused: nothing can be searched on it.
    pub fn restore(self, ctx: &EvalContext) -> Result<CollectionData, CheckpointError> {
        if self.program != ctx.ir.name {
            return Err(CheckpointError::Mismatch(format!(
                "program {} vs {}",
                self.program, ctx.ir.name
            )));
        }
        if self.arch != ctx.arch.name {
            return Err(CheckpointError::Mismatch(format!(
                "architecture {} vs {}",
                self.arch, ctx.arch.name
            )));
        }
        if self.steps != ctx.steps {
            return Err(CheckpointError::Mismatch(format!(
                "steps {} vs {}",
                self.steps, ctx.steps
            )));
        }
        let names: Vec<String> = ctx.ir.modules.iter().map(|m| m.name.clone()).collect();
        if self.module_names != names {
            return Err(CheckpointError::Mismatch(
                "outlined module set differs (re-profile and re-collect)".to_string(),
            ));
        }
        let k = self.data.k();
        if k == 0 {
            return Err(CheckpointError::Mismatch(
                "collection is empty (re-collect)".to_string(),
            ));
        }
        let rows = &self.data.per_module;
        if self.data.end_to_end.len() != k
            || rows.len() != ctx.modules()
            || rows.iter().any(|row| row.len() != k)
        {
            return Err(CheckpointError::Mismatch(format!(
                "collection does not hold {k} samples per module (re-collect)"
            )));
        }
        Ok(self.data)
    }

    /// Encodes the checkpoint as a sealed [`COLLECTION_MAGIC`] record:
    /// the program, architecture, steps and module names, then the
    /// collection by [`CollectionData::write_canonical`].
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(COLLECTION_MAGIC, |out| {
            write_str(out, &self.program);
            write_str(out, &self.arch);
            write_u64(out, u64::from(self.steps));
            write_u64(out, self.module_names.len() as u64);
            for name in &self.module_names {
                write_str(out, name);
            }
            self.data.write_canonical(out);
        })
    }

    /// Decodes a collection file; every failure is a typed
    /// [`CheckpointError::Version`], [`CheckpointError::WrongTag`] or
    /// [`CheckpointError::Record`] (see the module docs).
    /// [`Checkpoint::restore`] checks it against a context.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        unseal(bytes, COLLECTION_MAGIC, |r| {
            Some(Checkpoint {
                program: r.str()?,
                arch: r.str()?,
                steps: r.u32()?,
                module_names: r.list(8, Reader::str)?,
                data: CollectionData::read_canonical(r)?,
            })
        })
    }
}

/// A whole tuning campaign frozen mid-phase: the configuration that
/// reproduces it, every phase result completed so far, and the fault
/// quarantine accumulated across those phases.
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    /// Workload name.
    pub workload: String,
    /// Architecture name.
    pub arch: String,
    /// Sample budget K.
    pub budget: usize,
    /// CFR focus width X.
    pub focus: usize,
    /// Root seed of the campaign.
    pub seed: u64,
    /// Optional time-step cap the campaign was started with.
    pub steps_cap: Option<u32>,
    /// The injected-fault model (all-zero for a clean campaign).
    pub faults: FaultModel,
    /// The tuning objective — checkpoint identity like the seed: a
    /// resume must optimize the same thing the original campaign did.
    pub objective: Objective,
    /// `-O3` baseline time, if the baseline phase completed.
    pub baseline_time: Option<f64>,
    /// Figure-4 collection, if completed.
    pub data: Option<CollectionData>,
    /// Per-program random search, if completed.
    pub random: Option<TuningResult>,
    /// Per-function random search, if completed.
    pub fr: Option<TuningResult>,
    /// Greedy combination, if completed.
    pub greedy: Option<GreedyOutcome>,
    /// CFR, if completed.
    pub cfr: Option<TuningResult>,
    /// Known-bad `(module, CV digest)` compile pairs.
    pub bad_compiles: Vec<(usize, u64)>,
    /// Known-hanging program fingerprints.
    pub bad_programs: Vec<u64>,
    /// Labels of the completed phases in canonical order, stamped by
    /// the writer. Redundant with the `Option` result fields above —
    /// which is the point: [`CampaignCheckpoint::validate_phases`]
    /// cross-checks the list against the results actually present, so
    /// a hand-edited or corrupted phase list fails loudly at load time
    /// instead of as a confusing mismatch deep in a resume.
    pub completed: Vec<String>,
}

impl CampaignCheckpoint {
    /// Phases whose results this checkpoint carries, in canonical
    /// order. Because phases form a DAG, any subset closed under
    /// nothing in particular can appear here — a checkpoint taken at a
    /// join point while sibling phases were still in flight simply
    /// lacks their entries, and [`crate::Tuner::resume`] recomputes
    /// exactly the missing ones.
    pub fn completed_phases(&self) -> Vec<Phase> {
        let done = |p: Phase| match p {
            Phase::Baseline => self.baseline_time.is_some(),
            Phase::Collect => self.data.is_some(),
            Phase::Random => self.random.is_some(),
            Phase::Fr => self.fr.is_some(),
            Phase::Greedy => self.greedy.is_some(),
            Phase::Cfr => self.cfr.is_some(),
        };
        Phase::ALL.into_iter().filter(|p| done(*p)).collect()
    }

    /// Phases a resume still has to run, in canonical order.
    pub fn pending_phases(&self) -> Vec<Phase> {
        let done = self.completed_phases();
        Phase::ALL
            .into_iter()
            .filter(|p| !done.contains(p))
            .collect()
    }

    /// Labels of the completed phases in canonical order, as the
    /// writer stamps them into [`CampaignCheckpoint::completed`].
    pub fn completed_labels(&self) -> Vec<String> {
        self.completed_phases()
            .into_iter()
            .map(|p| p.label().to_string())
            .collect()
    }

    /// Validates the stamped phase list: every label known, no
    /// duplicates, canonical order, consistent with the result fields
    /// present, and closed under phase dependencies (a checkpoint
    /// claiming Greedy without the collection it consumed is corrupt,
    /// not resumable).
    pub fn validate_phases(&self) -> Result<(), CheckpointError> {
        let mut last_index: Option<usize> = None;
        for label in &self.completed {
            let Some(index) = Phase::ALL.iter().position(|p| p.label() == label.as_str()) else {
                return Err(CheckpointError::Phases(format!(
                    "unknown phase label {label:?}"
                )));
            };
            match last_index {
                Some(prev) if prev == index => {
                    return Err(CheckpointError::Phases(format!(
                        "duplicate phase {label:?}"
                    )));
                }
                Some(prev) if prev > index => {
                    return Err(CheckpointError::Phases(format!(
                        "phase {label:?} out of canonical order (after {:?})",
                        Phase::ALL[prev].label()
                    )));
                }
                _ => {}
            }
            last_index = Some(index);
        }
        let derived = self.completed_labels();
        if self.completed != derived {
            return Err(CheckpointError::Phases(format!(
                "stamped list {:?} disagrees with the results present {derived:?}",
                self.completed
            )));
        }
        // Dependency closure: every completed phase's transitive
        // requirements must also be completed.
        let done = self.completed_phases();
        for phase in &done {
            for need in phase.requires() {
                if !done.contains(&need) {
                    return Err(CheckpointError::Phases(format!(
                        "phase {:?} is recorded but its dependency {:?} is missing",
                        phase.label(),
                        need.label()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Appends the checkpoint in the WAL record encoding (DESIGN §13):
    /// every field in declaration order, with the canonical primitives,
    /// losslessly. `phases` restricts it to a segment's delta: the
    /// phase results outside `phases` are written absent, and the
    /// stamped list names `phases` alone. The identity and the
    /// quarantine lists are always written whole.
    pub(crate) fn write_record(&self, out: &mut Vec<u8>, phases: Option<&[Phase]>) {
        use crate::canonical::{write_f64, write_option};
        let keep = |p: Phase| phases.is_none_or(|ps| ps.contains(&p));
        write_str(out, &self.workload);
        write_str(out, &self.arch);
        write_u64(out, self.budget as u64);
        write_u64(out, self.focus as u64);
        write_u64(out, self.seed);
        write_option(out, self.steps_cap.as_ref(), |cap, out| {
            write_u64(out, u64::from(*cap))
        });
        let f = &self.faults;
        write_u64(out, f.seed);
        for rate in [f.compile_failure, f.crash, f.hang, f.outlier] {
            write_f64(out, rate);
        }
        write_option(out, f.exempt_digest.as_ref(), |d, out| write_u64(out, *d));
        self.objective.write_canonical(out);
        let baseline = self.baseline_time.filter(|_| keep(Phase::Baseline));
        write_option(out, baseline.as_ref(), |t, out| write_f64(out, *t));
        let data = self.data.as_ref().filter(|_| keep(Phase::Collect));
        write_option(out, data, CollectionData::write_canonical);
        for (phase, result) in [(Phase::Random, &self.random), (Phase::Fr, &self.fr)] {
            let result = result.as_ref().filter(|_| keep(phase));
            write_option(out, result, TuningResult::write_lossless);
        }
        let greedy = self.greedy.as_ref().filter(|_| keep(Phase::Greedy));
        write_option(out, greedy, GreedyOutcome::write_lossless);
        let cfr = self.cfr.as_ref().filter(|_| keep(Phase::Cfr));
        write_option(out, cfr, TuningResult::write_lossless);
        write_u64(out, self.bad_compiles.len() as u64);
        for (module, digest) in &self.bad_compiles {
            write_u64(out, *module as u64);
            write_u64(out, *digest);
        }
        write_u64(out, self.bad_programs.len() as u64);
        for fingerprint in &self.bad_programs {
            write_u64(out, *fingerprint);
        }
        let labels: Vec<&str> = match phases {
            None => self.completed.iter().map(String::as_str).collect(),
            Some(ps) => Phase::ALL
                .into_iter()
                .filter(|p| ps.contains(p))
                .map(Phase::label)
                .collect(),
        };
        write_u64(out, labels.len() as u64);
        for label in labels {
            write_str(out, label);
        }
    }

    /// Inverse of [`CampaignCheckpoint::write_record`].
    pub(crate) fn read_record(r: &mut Reader) -> Option<CampaignCheckpoint> {
        Some(CampaignCheckpoint {
            workload: r.str()?,
            arch: r.str()?,
            budget: r.usize()?,
            focus: r.usize()?,
            seed: r.u64()?,
            steps_cap: r.option(Reader::u32)?,
            faults: FaultModel {
                seed: r.u64()?,
                compile_failure: r.f64()?,
                crash: r.f64()?,
                hang: r.f64()?,
                outlier: r.f64()?,
                exempt_digest: r.option(Reader::u64)?,
            },
            objective: Objective::read_canonical(r).ok()?,
            baseline_time: r.option(Reader::f64)?,
            data: r.option(CollectionData::read_canonical)?,
            random: r.option(TuningResult::read_lossless)?,
            fr: r.option(TuningResult::read_lossless)?,
            greedy: r.option(GreedyOutcome::read_lossless)?,
            cfr: r.option(TuningResult::read_lossless)?,
            bad_compiles: r.list(16, |r| Some((r.usize()?, r.u64()?)))?,
            bad_programs: r.list(8, Reader::u64)?,
            completed: r.list(8, Reader::str)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::collect;
    use crate::ctx::testutil::ctx_for;
    use crate::supervisor::CampaignRecord;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn round_trip_preserves_collection_bit_for_bit() {
        let ctx = ctx_for("swim", Some(3));
        let mut data = collect(&ctx, 20, 7);
        // A faulted CV's row: JSON could not carry it.
        data.per_module[0][3] = f64::INFINITY;
        let cp = Checkpoint::capture(&ctx, data.clone());
        let bytes = cp.to_bytes();
        assert_eq!(&bytes[..4], b"FTCK");
        let restored = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(restored.to_bytes(), bytes);
        let restored = restored.restore(&ctx).unwrap();
        assert_eq!(restored.cvs, data.cvs);
        assert_eq!(bits(&restored.end_to_end), bits(&data.end_to_end));
        for (a, b) in restored.per_module.iter().zip(&data.per_module) {
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn restored_data_drives_cfr_identically() {
        let ctx = ctx_for("swim", Some(3));
        let data = collect(&ctx, 30, 7);
        let direct = crate::algorithms::cfr(&ctx, &data, 6, 30, 5);
        let cp = Checkpoint::capture(&ctx, data);
        let restored = Checkpoint::from_bytes(&cp.to_bytes())
            .unwrap()
            .restore(&ctx)
            .unwrap();
        let replayed = crate::algorithms::cfr(&ctx, &restored, 6, 30, 5);
        assert_eq!(direct.best_time, replayed.best_time);
        assert_eq!(direct.assignment, replayed.assignment);
    }

    #[test]
    fn cross_program_restore_is_refused() {
        let ctx_a = ctx_for("swim", Some(3));
        let ctx_b = ctx_for("bwaves", Some(3));
        let cp = Checkpoint::capture(&ctx_a, collect(&ctx_a, 10, 7));
        let err = cp.restore(&ctx_b).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
        assert!(err.to_string().contains("program"));
    }

    #[test]
    fn step_mismatch_is_refused() {
        let ctx_a = ctx_for("swim", Some(3));
        let ctx_b = ctx_for("swim", Some(4));
        let cp = Checkpoint::capture(&ctx_a, collect(&ctx_a, 10, 7));
        assert!(cp.restore(&ctx_b).is_err());
    }

    #[test]
    fn empty_or_ragged_collection_is_refused() {
        let ctx = ctx_for("swim", Some(3));
        let cp = Checkpoint::capture(&ctx, collect(&ctx, 4, 7));
        let mut empty = cp.clone();
        empty.data.cvs.clear();
        empty.data.end_to_end.clear();
        empty.data.per_module.iter_mut().for_each(Vec::clear);
        let mut ragged = cp;
        ragged.data.per_module[0].pop();
        for bad in [empty, ragged] {
            let err = bad.restore(&ctx).unwrap_err();
            assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
            assert!(err.to_string().contains("re-collect"), "{err}");
        }
    }

    #[test]
    fn garbage_and_truncation_are_typed_refusals() {
        let unsupported = |found| CheckpointError::Version {
            found,
            supported: RECORD_FORMAT_VERSION,
        };
        // No tag: garbage or a JSON-era file.
        assert_eq!(
            Checkpoint::from_bytes(b"{not json").unwrap_err(),
            unsupported(0)
        );
        // The other record kind is refused by name, both ways round.
        let ctx = ctx_for("swim", Some(3));
        let bytes = Checkpoint::capture(&ctx, collect(&ctx, 5, 7)).to_bytes();
        let wal = CampaignRecord::poisoned("x".to_string(), 1)
            .to_bytes()
            .unwrap();
        let err = Checkpoint::from_bytes(&wal).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::WrongTag {
                expected: *b"FTCK",
                found: *b"FTWR"
            }
        );
        assert_eq!(
            err.to_string(),
            "sealed record tagged FTWR where FTCK was expected"
        );
        assert_eq!(
            CampaignRecord::from_bytes(&bytes).unwrap_err(),
            CheckpointError::WrongTag {
                expected: *b"FTWR",
                found: *b"FTCK"
            }
        );
        for cut in [0, 3, 8, 15, bytes.len() / 2, bytes.len() - 1] {
            let err = Checkpoint::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Record(_)),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn other_format_versions_are_refused() {
        let ctx = ctx_for("swim", Some(3));
        let bytes = Checkpoint::capture(&ctx, collect(&ctx, 5, 7)).to_bytes();
        assert_eq!(bytes[4..8], RECORD_FORMAT_VERSION.to_le_bytes());
        // A future (or corrupted) version and format 1 are Version
        // errors carrying both sides of the mismatch; the gate fires
        // before the checksum.
        for found in [RECORD_FORMAT_VERSION + 1, 1] {
            let mut skewed = bytes.clone();
            skewed[4..8].copy_from_slice(&found.to_le_bytes());
            let err = Checkpoint::from_bytes(&skewed).unwrap_err();
            assert_eq!(
                err,
                CheckpointError::Version {
                    found,
                    supported: RECORD_FORMAT_VERSION
                },
                "{err}"
            );
            assert!(err.to_string().contains("version"));
        }
    }

    /// A campaign checkpoint through a done record, whose decoder
    /// validates the phase list.
    fn reload(cp: &CampaignCheckpoint) -> Result<CampaignCheckpoint, CheckpointError> {
        let bytes = CampaignRecord::done(cp.clone(), 0, 1).to_bytes()?;
        let record = CampaignRecord::from_bytes(&bytes)?;
        Ok(record
            .checkpoint
            .expect("a done record carries the campaign"))
    }

    #[test]
    fn campaign_phase_list_rejects_duplicates_order_and_unknowns() {
        // Build a minimal valid campaign checkpoint by hand (baseline
        // only) and then corrupt its stamped phase list field-by-field.
        let base = CampaignCheckpoint {
            workload: "swim".to_string(),
            arch: "broadwell".to_string(),
            budget: 10,
            focus: 3,
            seed: 42,
            steps_cap: Some(3),
            faults: ft_compiler::FaultModel::zero(),
            objective: crate::objective::Objective::Time,
            baseline_time: Some(1.0),
            data: None,
            random: None,
            fr: None,
            greedy: None,
            cfr: None,
            bad_compiles: Vec::new(),
            bad_programs: Vec::new(),
            completed: vec!["baseline".to_string()],
        };
        assert!(base.validate_phases().is_ok());
        assert!(reload(&base).is_ok());

        let corrupt = |completed: Vec<&str>| {
            let mut cp = base.clone();
            cp.completed = completed.into_iter().map(String::from).collect();
            reload(&cp).unwrap_err()
        };

        let err = corrupt(vec!["baseline", "baseline"]);
        assert!(matches!(err, CheckpointError::Phases(_)), "{err}");
        assert!(err.to_string().contains("duplicate"));

        let stub_result = || crate::result::TuningResult {
            algorithm: "stub".to_string(),
            best_time: 1.0,
            baseline_time: 1.0,
            assignment: Vec::new(),
            best_index: 0,
            history: Vec::new(),
            evaluations: 0,
            objective: crate::objective::Objective::Time,
            best_code_bytes: f64::INFINITY,
            scores: Vec::new(),
            front: Vec::new(),
        };

        // Out of canonical order (even if the set were right).
        let mut cp = base.clone();
        cp.random = Some(stub_result());
        cp.completed = vec!["random".to_string(), "baseline".to_string()];
        let err = reload(&cp).unwrap_err();
        assert!(matches!(err, CheckpointError::Phases(_)), "{err}");
        assert!(err.to_string().contains("order"));

        let err = corrupt(vec!["baseline", "warp-drive"]);
        assert!(matches!(err, CheckpointError::Phases(_)), "{err}");
        assert!(err.to_string().contains("unknown"));

        // Stamped list inconsistent with the results present, an
        // unstamped list included: every writer stamps it.
        for stamped in [vec!["baseline", "random"], vec![]] {
            let err = corrupt(stamped);
            assert!(matches!(err, CheckpointError::Phases(_)), "{err}");
            assert!(err.to_string().contains("disagrees"));
        }

        // Dependency closure: a greedy result without the collection it
        // consumed is corrupt.
        let mut cp = base;
        cp.greedy = Some(crate::algorithms::GreedyOutcome {
            realized: stub_result(),
            independent_time: 1.0,
            independent_speedup: 1.0,
        });
        cp.completed = cp.completed_labels();
        let err = reload(&cp).unwrap_err();
        assert!(matches!(err, CheckpointError::Phases(_)), "{err}");
        assert!(err.to_string().contains("dependency"));
    }
}
