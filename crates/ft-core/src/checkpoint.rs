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

use crate::algorithms::GreedyOutcome;
use crate::canonical::Reader;
use crate::collection::CollectionData;
use crate::ctx::EvalContext;
use crate::objective::Objective;
use crate::pipeline::Phase;
use crate::result::TuningResult;
use ft_compiler::FaultModel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Current on-disk schema version of both checkpoint kinds.
///
/// Version history: 0 = pre-versioning files (refused), 1 = the
/// pre-objective schema, 2 = campaigns carry the tuning objective and
/// results carry score timelines. The loaders read the version off the
/// parsed JSON *before* deserializing the struct, so a version-1 file
/// is refused with a typed [`CheckpointError::Version`] — it is never
/// silently completed with a defaulted objective.
///
/// This versions the JSON export schema (`to_json`/`from_json`) and
/// the fields a checkpoint carries. The binary campaign WAL record is
/// versioned on its own by
/// [`crate::supervisor::RECORD_FORMAT_VERSION`]: moving the WAL off
/// JSON changed no field and no export, so this stays at 2.
pub const CHECKPOINT_VERSION: u32 = 2;

/// A persisted collection plus its provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Schema version ([`CHECKPOINT_VERSION`] when written by this
    /// build; 0 marks a pre-versioning file).
    #[serde(default)]
    pub version: u32,
    /// Program name the data was collected on.
    pub program: String,
    /// Architecture name.
    pub arch: String,
    /// Time-steps per collection run.
    pub steps: u32,
    /// Number of modules (J + 1).
    pub modules: usize,
    /// Module names, in id order (guards against re-outlining drift).
    pub module_names: Vec<String>,
    /// The collection itself.
    pub data: CollectionData,
}

/// Why a checkpoint cannot be used with a context.
///
/// Each failure mode is its own variant so callers can branch on the
/// cause (and `source()` hands the underlying serde error back intact)
/// instead of grepping a formatted string. No `Eq`: the serde error it
/// wraps only implements `PartialEq`.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Program/architecture/input mismatch.
    Mismatch(String),
    /// Serializing a checkpoint to JSON failed.
    Serialize {
        /// The underlying serde error.
        source: serde::Error,
    },
    /// The JSON could not be parsed as a checkpoint.
    Deserialize {
        /// The underlying serde error.
        source: serde::Error,
    },
    /// The file's schema version is not one this build reads.
    Version {
        /// Version recorded in the file (0 for pre-versioning files).
        found: u32,
        /// The version this build writes and reads.
        supported: u32,
    },
    /// The completed-phase list is structurally invalid (unknown
    /// label, duplicate, out of canonical order, or inconsistent with
    /// the phase results actually present).
    Phases(String),
    /// A CRC-valid campaign journal record is malformed: its body does
    /// not decode or fails its checksum, its kind is unknown, a
    /// checkpoint or done record lacks its checkpoint (or a done record
    /// its digest), or a checkpoint record does not fold onto the
    /// records before it (see [`crate::supervisor::fold_checkpoints`]).
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
            CheckpointError::Serialize { source } => {
                write!(f, "checkpoint serialize error: {source}")
            }
            CheckpointError::Deserialize { source } => {
                write!(f, "checkpoint parse error: {source}")
            }
            CheckpointError::Version { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads \
                 version {supported}; re-collect or use a matching build)"
            ),
            CheckpointError::Phases(m) => write!(f, "checkpoint phase list invalid: {m}"),
            CheckpointError::Record(m) => write!(f, "malformed campaign record: {m}"),
            CheckpointError::DigestMismatch { recorded, replayed } => write!(
                f,
                "done record pins digest {recorded} but its checkpoint replays to {replayed:016x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Serialize { source } | CheckpointError::Deserialize { source } => {
                Some(source)
            }
            _ => None,
        }
    }
}

impl Checkpoint {
    /// Captures a collection from the context it was produced in.
    pub fn capture(ctx: &EvalContext, data: CollectionData) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            program: ctx.ir.name.clone(),
            arch: ctx.arch.name.to_string(),
            steps: ctx.steps,
            modules: ctx.modules(),
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

    /// Serializes to JSON.
    pub fn to_json(&self) -> Result<String, CheckpointError> {
        serde_json::to_string(self).map_err(|source| CheckpointError::Serialize { source })
    }

    /// Deserializes from JSON, refusing schema versions this build
    /// does not understand. The version is read off the parsed value
    /// before the struct is deserialized, so a skewed file fails as a
    /// [`CheckpointError::Version`] rather than a missing-field (or —
    /// worse — defaulted-field) deserialization.
    pub fn from_json(json: &str) -> Result<Checkpoint, CheckpointError> {
        let value: serde::Value =
            serde_json::from_str(json).map_err(|source| CheckpointError::Deserialize { source })?;
        check_version(version_field(&value)?)?;
        Checkpoint::deserialize_value(&value)
            .map_err(|source| CheckpointError::Deserialize { source })
    }
}

/// Shared version gate of both checkpoint kinds.
fn check_version(version: u32) -> Result<(), CheckpointError> {
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version {
            found: version,
            supported: CHECKPOINT_VERSION,
        });
    }
    Ok(())
}

/// Reads the schema version off a parsed checkpoint object — the gate
/// both loaders run *before* full deserialization. A missing field is
/// version 0 (a pre-versioning file), matching the old
/// `#[serde(default)]` behavior.
fn version_field(value: &serde::Value) -> Result<u32, CheckpointError> {
    let serde::Value::Object(fields) = value else {
        return Err(CheckpointError::Deserialize {
            source: serde::Error::new("checkpoint is not a JSON object"),
        });
    };
    match fields.iter().find(|(k, _)| k.as_str() == "version") {
        None => Ok(0),
        Some((_, serde::Value::U64(n))) if u32::try_from(*n).is_ok() => Ok(*n as u32),
        Some((_, serde::Value::I64(n))) if u32::try_from(*n).is_ok() => Ok(*n as u32),
        Some(_) => Err(CheckpointError::Deserialize {
            source: serde::Error::new("checkpoint version is not a u32"),
        }),
    }
}

/// A whole tuning campaign frozen mid-phase: the configuration that
/// reproduces it, every phase result completed so far, and the fault
/// quarantine accumulated across those phases.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`] when written).
    #[serde(default)]
    pub version: u32,
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
    /// The `#[serde(default)]` never masks a pre-objective file: the
    /// version gate in [`CampaignCheckpoint::from_json`] fires first.
    #[serde(default)]
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
    /// which is the point: [`CampaignCheckpoint::from_json`] cross-
    /// checks the list against the results actually present, so a
    /// hand-edited or corrupted phase list fails loudly at load time
    /// instead of as a confusing mismatch deep in a resume. Empty in
    /// pre-PR-7 files (`#[serde(default)]`), where the check is
    /// skipped.
    #[serde(default)]
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
    /// not resumable). An empty list (pre-PR-7 file) skips the
    /// cross-check but still enforces dependency closure on the
    /// results themselves.
    pub fn validate_phases(&self) -> Result<(), CheckpointError> {
        if !self.completed.is_empty() {
            let mut last_index: Option<usize> = None;
            for label in &self.completed {
                let Some(index) = Phase::ALL.iter().position(|p| p.label() == label.as_str())
                else {
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
        }
        // Dependency closure over the results themselves (holds for
        // legacy files too): every completed phase's transitive
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
        use crate::canonical::{write_f64, write_option, write_str, write_u64};
        let keep = |p: Phase| phases.is_none_or(|ps| ps.contains(&p));
        write_u64(out, u64::from(self.version));
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
            version: r.u32()?,
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

    /// Serializes to JSON.
    pub fn to_json(&self) -> Result<String, CheckpointError> {
        serde_json::to_string(self).map_err(|source| CheckpointError::Serialize { source })
    }

    /// Deserializes from JSON, refusing schema versions this build
    /// does not understand and structurally invalid phase lists. The
    /// version gate runs before struct deserialization: a version-1
    /// (pre-objective) file is a typed [`CheckpointError::Version`],
    /// never a campaign with a silently defaulted objective.
    pub fn from_json(json: &str) -> Result<CampaignCheckpoint, CheckpointError> {
        let value: serde::Value =
            serde_json::from_str(json).map_err(|source| CheckpointError::Deserialize { source })?;
        check_version(version_field(&value)?)?;
        let cp = CampaignCheckpoint::deserialize_value(&value)
            .map_err(|source| CheckpointError::Deserialize { source })?;
        cp.validate_phases()?;
        Ok(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::collect;
    use crate::ctx::testutil::ctx_for;

    #[test]
    fn round_trip_preserves_collection() {
        let ctx = ctx_for("swim", Some(3));
        let data = collect(&ctx, 20, 7);
        let cp = Checkpoint::capture(&ctx, data.clone());
        let json = cp.to_json().unwrap();
        let restored = Checkpoint::from_json(&json).unwrap().restore(&ctx).unwrap();
        assert_eq!(restored.cvs, data.cvs);
        // JSON float text round-trips to within one ULP.
        for (a, b) in restored.end_to_end.iter().zip(&data.end_to_end) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn restored_data_drives_cfr_identically() {
        let ctx = ctx_for("swim", Some(3));
        let data = collect(&ctx, 30, 7);
        let direct = crate::algorithms::cfr(&ctx, &data, 6, 30, 5);
        let cp = Checkpoint::capture(&ctx, data);
        let restored = Checkpoint::from_json(&cp.to_json().unwrap())
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
    fn garbage_json_is_a_typed_parse_error_with_a_source() {
        let err = Checkpoint::from_json("{not json").unwrap_err();
        assert!(matches!(err, CheckpointError::Deserialize { .. }), "{err}");
        // The serde cause is preserved, not flattened into a string.
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn version_survives_round_trip_and_mismatches_are_refused() {
        let ctx = ctx_for("swim", Some(3));
        let cp = Checkpoint::capture(&ctx, collect(&ctx, 5, 7));
        assert_eq!(cp.version, CHECKPOINT_VERSION);
        let json = cp.to_json().unwrap();
        assert_eq!(
            Checkpoint::from_json(&json).unwrap().version,
            CHECKPOINT_VERSION
        );

        // A future (or corrupted) version number is a Version error
        // carrying both sides of the mismatch...
        let future = json.replacen(
            &format!("\"version\":{CHECKPOINT_VERSION}"),
            &format!("\"version\":{}", CHECKPOINT_VERSION + 1),
            1,
        );
        assert_ne!(future, json, "version field must be serialized");
        let err = Checkpoint::from_json(&future).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::Version {
                found: CHECKPOINT_VERSION + 1,
                supported: CHECKPOINT_VERSION
            },
            "{err}"
        );
        assert!(err.to_string().contains("version"));

        // ...and so is a pre-versioning file, which deserializes with
        // the version-0 default.
        let mut legacy: serde::Value = serde_json::from_str(&json).unwrap();
        if let serde::Value::Object(fields) = &mut legacy {
            fields.retain(|(k, _)| k.as_str() != "version");
        }
        let err = Checkpoint::from_json(&serde_json::to_string(&legacy).unwrap()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Version { found: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn pre_objective_campaign_checkpoint_is_a_typed_version_error() {
        // Forge a version-1 file: the pre-objective schema had no
        // `objective` field. Because `#[serde(default)]` would happily
        // fill one in, the loader must gate on the version *before*
        // deserializing — a v1 campaign is a Version{1, 2} refusal,
        // never a resumed campaign with a silently defaulted objective.
        let cp = CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
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
        let mut v1: serde::Value = serde_json::from_str(&cp.to_json().unwrap()).unwrap();
        if let serde::Value::Object(fields) = &mut v1 {
            fields.retain(|(k, _)| k.as_str() != "objective");
            for (k, v) in fields.iter_mut() {
                if k.as_str() == "version" {
                    *v = serde::Value::U64(1);
                }
            }
        }
        let err = CampaignCheckpoint::from_json(&serde_json::to_string(&v1).unwrap()).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::Version {
                found: 1,
                supported: CHECKPOINT_VERSION
            },
            "{err}"
        );
    }

    #[test]
    fn campaign_phase_list_rejects_duplicates_order_and_unknowns() {
        // Build a minimal valid campaign checkpoint by hand (baseline
        // only) and then corrupt its stamped phase list field-by-field.
        let base = CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
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
        let json = base.to_json().unwrap();
        assert!(CampaignCheckpoint::from_json(&json).is_ok());

        let corrupt = |completed: Vec<&str>| {
            let mut cp = base.clone();
            cp.completed = completed.into_iter().map(String::from).collect();
            CampaignCheckpoint::from_json(&cp.to_json().unwrap()).unwrap_err()
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
        let err = CampaignCheckpoint::from_json(&cp.to_json().unwrap()).unwrap_err();
        assert!(matches!(err, CheckpointError::Phases(_)), "{err}");
        assert!(err.to_string().contains("order"));

        let err = corrupt(vec!["baseline", "warp-drive"]);
        assert!(matches!(err, CheckpointError::Phases(_)), "{err}");
        assert!(err.to_string().contains("unknown"));

        // Stamped list inconsistent with the results present.
        let err = corrupt(vec!["baseline", "random"]);
        assert!(matches!(err, CheckpointError::Phases(_)), "{err}");
        assert!(err.to_string().contains("disagrees"));

        // A legacy file with no stamped list loads (dependency closure
        // still holds: baseline alone is closed).
        let mut cp = base.clone();
        cp.completed = Vec::new();
        assert!(CampaignCheckpoint::from_json(&cp.to_json().unwrap()).is_ok());

        // Dependency closure is enforced even without a stamped list:
        // a greedy result without the collection it consumed is
        // corrupt.
        let mut cp = base;
        cp.completed = Vec::new();
        cp.greedy = Some(crate::algorithms::GreedyOutcome {
            realized: stub_result(),
            independent_time: 1.0,
            independent_speedup: 1.0,
        });
        let err = CampaignCheckpoint::from_json(&cp.to_json().unwrap()).unwrap_err();
        assert!(matches!(err, CheckpointError::Phases(_)), "{err}");
        assert!(err.to_string().contains("dependency"));
    }
}
