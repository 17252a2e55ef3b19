//! The campaign WAL record codec under hostile input, and its
//! losslessness on real journals.
//!
//! 1. **Hostile input.** `CampaignRecord::from_bytes` runs on a real
//!    delta record and a real done record truncated at every byte
//!    offset, with a bit flipped at every byte offset, and with each
//!    element-count prefix set to `u64::MAX` (re-sealed with a fresh
//!    checksum so the decoder, not the checksum, must refuse it). Every
//!    case is a typed error, never a panic, and allocates no more than
//!    the record's length (a counting global allocator measures it).
//! 2. **Losslessness.** Under both fault models and both the Time and
//!    Pareto objectives, every segment's delta and every folded
//!    checkpoint re-encodes to identical bytes and exports the same
//!    JSON, and folding the deltas rebuilds the engine's cumulative
//!    checkpoint after every segment.
//! 3. **JSON-era journals.** A record written by the earlier JSON codec
//!    is a typed `Version` refusal for `Supervisor`, the daemon and
//!    `ftune supervise`.
//!
//! The byte layout the walker below follows is the one DESIGN §13
//! documents.

use funcytuner::compiler::FaultModel;
use funcytuner::prelude::*;
use funcytuner::tuning::canonical::digest;
use funcytuner::tuning::journal::temp_journal_path;
use funcytuner::tuning::supervisor::{
    default_segments, fold_checkpoints, CampaignRecord, RECORD_FORMAT_VERSION,
};
use funcytuner::tuning::{CampaignCheckpoint, CheckpointError, Objective, Phase};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

// ---------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------

/// The system allocator, counting the bytes the current thread holds
/// while [`peak_alloc`] tracks it.
struct Counting;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = TRACKING.try_with(|tracking| {
        if tracking.get() {
            let live = LIVE.get() + delta;
            LIVE.set(live);
            PEAK.set(PEAK.get().max(live));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize);
        note(-(layout.size() as isize));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the most bytes this thread
/// held at once, beyond what it held before the call.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.set(0);
    PEAK.set(0);
    TRACKING.set(true);
    let out = f();
    TRACKING.set(false);
    (out, PEAK.get().max(0) as usize)
}

// ---------------------------------------------------------------------
// Real journals
// ---------------------------------------------------------------------

struct TempJournal(PathBuf);
impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn tuner<'a>(
    w: &'a Workload,
    arch: &'a Architecture,
    faults: FaultModel,
    objective: Objective,
) -> Tuner<'a> {
    Tuner::new(w, arch)
        .budget(60)
        .focus(8)
        .seed(42)
        .cap_steps(5)
        .faults(faults)
        .objective(objective)
}

/// What one supervised campaign leaves in its journal: the delta
/// record of every segment (read before the done record is appended)
/// and the done record the journal compacts to.
struct Journaled {
    deltas: Vec<Vec<u8>>,
    done: Vec<u8>,
}

fn journaled<'a>(make: impl Fn() -> Tuner<'a> + Copy + 'a, label: &str) -> Journaled {
    let j = TempJournal(temp_journal_path(label));
    let segments = default_segments().len();
    let killed = Supervisor::new(&j.0, make)
        .chaos(ChaosPolicy::KillOnce { boundary: segments })
        .config(SupervisorConfig {
            max_attempts: 1,
            ..SupervisorConfig::default()
        })
        .run();
    assert!(
        matches!(killed, Err(SupervisorError::AttemptsExhausted { .. })),
        "{label}"
    );
    let deltas = Journal::recover(&j.0).expect("wal").records;
    assert_eq!(deltas.len(), segments, "{label}");
    Supervisor::new(&j.0, make).run().expect("finishes");
    let mut records = Journal::recover(&j.0).expect("wal").records;
    assert_eq!(records.len(), 1, "{label}: compacts to the done record");
    Journaled {
        deltas,
        done: records.remove(0),
    }
}

/// The engine's cumulative checkpoint after every segment, driven the
/// way the segment executor drives it.
fn cumulative<'a>(make: impl Fn() -> Tuner<'a>) -> Vec<CampaignCheckpoint> {
    let mut out: Vec<CampaignCheckpoint> = Vec::new();
    for segment in default_segments() {
        let paused = match out.last() {
            None => make().run_until_phases_costed(&segment),
            Some(cp) => make()
                .resume_until_phases_costed(cp.clone(), &segment)
                .expect("resumes"),
        };
        out.push(paused.checkpoint);
    }
    out
}

fn swim() -> Workload {
    workload_by_name("swim").expect("swim in suite")
}

fn record_bytes(cp: &CampaignCheckpoint) -> Vec<u8> {
    CampaignRecord::checkpoint(cp.clone(), 1)
        .to_bytes()
        .expect("encodes")
}

// ---------------------------------------------------------------------
// The documented layout
// ---------------------------------------------------------------------

/// Walks a record by the layout DESIGN §13 documents, independently of
/// the decoder, and collects the offset of every count or length
/// prefix.
struct Walker<'a> {
    buf: &'a [u8],
    pos: usize,
    counts: Vec<usize>,
}

impl Walker<'_> {
    fn word(&mut self) -> u64 {
        let w = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        w
    }

    fn words(&mut self, n: usize) {
        for _ in 0..n {
            self.word();
        }
    }

    fn count(&mut self) -> usize {
        self.counts.push(self.pos);
        self.word() as usize
    }

    fn bytes(&mut self) {
        let n = self.count();
        self.pos += n;
    }

    fn f64s(&mut self) {
        let n = self.count();
        self.words(n);
    }

    fn list(&mut self, mut elem: impl FnMut(&mut Self)) {
        for _ in 0..self.count() {
            elem(self);
        }
    }

    fn option(&mut self, some: impl FnOnce(&mut Self)) {
        match self.word() {
            0 => {}
            1 => some(self),
            other => panic!("presence word {other}"),
        }
    }

    fn result(&mut self) {
        self.bytes(); // algorithm
        self.words(2); // best time, baseline time
        self.list(Self::bytes); // assignment
        self.word(); // best index
        self.f64s(); // history
        self.words(4); // evaluations, objective tag and weight, code bytes
        self.list(|w| w.words(2)); // scores
        self.list(|w| {
            w.words(3);
            w.list(Self::bytes)
        }); // front
    }

    fn checkpoint(&mut self) {
        self.word(); // version
        self.bytes(); // workload
        self.bytes(); // arch
        self.words(3); // budget, focus, seed
        self.option(|w| w.words(1)); // steps cap
        self.words(5); // fault seed and rates
        self.option(|w| w.words(1)); // exempt digest
        self.words(2); // objective
        self.option(|w| w.words(1)); // baseline
        self.option(|w| {
            w.list(Self::bytes);
            w.list(Self::f64s);
            w.f64s()
        }); // collection
        self.option(Self::result); // random
        self.option(Self::result); // fr
        self.option(|w| {
            w.result();
            w.words(2)
        }); // greedy
        self.option(Self::result); // cfr
        self.list(|w| w.words(2)); // bad compiles
        self.f64s(); // bad programs
        self.list(Self::bytes); // completed
    }
}

/// Every count prefix of a whole record, checking that the layout
/// accounts for every byte.
fn count_offsets(record: &[u8]) -> Vec<usize> {
    assert_eq!(&record[..4], b"FTWR");
    assert_eq!(
        u32::from_le_bytes(record[4..8].try_into().unwrap()),
        RECORD_FORMAT_VERSION
    );
    let mut w = Walker {
        buf: record,
        pos: 8,
        counts: Vec::new(),
    };
    w.bytes(); // kind
    w.word(); // attempt
    w.option(Walker::checkpoint);
    w.option(Walker::bytes); // digest
    w.option(Walker::bytes); // diagnostic
    assert_eq!(w.pos + 8, record.len(), "layout leaves bytes over");
    w.counts
}

/// `body` with a fresh checksum trailer, as an encoder would seal it.
fn reseal(mut sealed: Vec<u8>) -> Vec<u8> {
    let sum = digest(&sealed);
    sealed.extend_from_slice(&sum.to_le_bytes());
    sealed
}

// ---------------------------------------------------------------------
// 1. Hostile input
// ---------------------------------------------------------------------

/// Decodes `bytes`, which must be refused with a typed error while
/// holding at most `bound` bytes.
fn assert_refused(bytes: &[u8], bound: usize, label: &str) -> CheckpointError {
    let (result, peak) = peak_alloc(|| CampaignRecord::from_bytes(bytes));
    let err = result.err().unwrap_or_else(|| panic!("{label}: accepted"));
    assert!(
        matches!(
            err,
            CheckpointError::Record(_) | CheckpointError::Version { .. }
        ),
        "{label}: {err:?}"
    );
    assert!(
        peak <= bound,
        "{label}: held {peak} bytes, record has {bound}"
    );
    err
}

#[test]
fn hostile_records_are_typed_refusals_that_allocate_no_more_than_the_record() {
    let arch = Architecture::broadwell();
    let w = swim();
    let journal = journaled(
        // A small budget: every case below decodes the whole record.
        || tuner(&w, &arch, FaultModel::testbed(0xFA17), Objective::Pareto).budget(16),
        "wal-hostile",
    );
    // The collection's delta and the done record: every field kind.
    for (label, record) in [("delta", &journal.deltas[1]), ("done", &journal.done)] {
        let len = record.len();
        assert!(CampaignRecord::from_bytes(record).is_ok(), "{label}");

        for cut in 0..len {
            assert_refused(&record[..cut], len, &format!("{label} cut at {cut}"));
            // Re-sealed, a cut past the format tag reaches the decoder.
            if (8..len - 8).contains(&cut) {
                let resealed = reseal(record[..cut].to_vec());
                assert_refused(&resealed, len, &format!("{label} resealed cut at {cut}"));
            }
        }

        for at in 0..len {
            let mut flipped = record.clone();
            flipped[at] ^= 1 << (at % 8);
            assert_refused(&flipped, len, &format!("{label} bit flip at {at}"));
            // Re-sealed, a flip may decode to another valid record,
            // but it must never panic.
            if at < len - 8 {
                flipped.truncate(len - 8);
                let _ = CampaignRecord::from_bytes(&reseal(flipped));
            }
        }

        let counts = count_offsets(record);
        // At least one length prefix per collected CV (K = 16).
        assert!(
            counts.len() > 16,
            "{label}: {} count prefixes",
            counts.len()
        );
        for at in counts {
            let mut hostile = record[..len - 8].to_vec();
            hostile[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let err = assert_refused(&reseal(hostile), len, &format!("{label} count at {at}"));
            assert!(matches!(err, CheckpointError::Record(_)), "{label}: {err}");
        }
    }
}

// ---------------------------------------------------------------------
// 2. Losslessness
// ---------------------------------------------------------------------

#[test]
fn deltas_and_folded_checkpoints_round_trip_losslessly() {
    let arch = Architecture::broadwell();
    let w = swim();
    for (fname, faults) in [
        ("zero", FaultModel::zero()),
        ("testbed", FaultModel::testbed(0xFA17)),
    ] {
        for objective in [Objective::Time, Objective::Pareto] {
            let label = format!("faults={fname} objective={objective}");
            let make = || tuner(&w, &arch, faults, objective);
            let journal = journaled(make, &format!("wal-lossless-{fname}-{objective}"));
            let engine = cumulative(make);

            let mut deltas = Vec::new();
            for (i, bytes) in journal.deltas.iter().enumerate() {
                let delta = CampaignRecord::from_bytes(bytes).expect("delta decodes");
                assert_eq!(&delta.to_bytes().unwrap(), bytes, "{label}: delta {i}");
                let cp = delta.checkpoint.as_ref().expect("delta carries phases");
                assert_eq!(cp.completed, [Phase::ALL[i].label()], "{label}: delta {i}");
                deltas.push(delta);

                let folded = fold_checkpoints(deltas.iter().cloned())
                    .expect("folds")
                    .expect("non-empty");
                let bytes = record_bytes(&folded);
                assert_eq!(bytes, record_bytes(&engine[i]), "{label}: fold {i}");
                assert_eq!(
                    folded.to_json().unwrap(),
                    engine[i].to_json().unwrap(),
                    "{label}: fold {i}"
                );
                let decoded = CampaignRecord::from_bytes(&bytes)
                    .expect("folded decodes")
                    .checkpoint
                    .expect("carries the campaign");
                assert_eq!(record_bytes(&decoded), bytes, "{label}: fold {i}");
                assert_eq!(
                    decoded.to_json().unwrap(),
                    folded.to_json().unwrap(),
                    "{label}: fold {i}"
                );
            }

            let done = CampaignRecord::from_bytes(&journal.done).expect("done decodes");
            assert_eq!(done.to_bytes().unwrap(), journal.done, "{label}: done");
            let last = engine.last().expect("segments");
            assert_eq!(
                record_bytes(done.checkpoint.as_ref().expect("final campaign")),
                record_bytes(last),
                "{label}: the done record carries the whole campaign"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 3. JSON-era journals
// ---------------------------------------------------------------------

/// A checkpoint record as the earlier serde-JSON codec wrote it.
fn json_era_record(cp: &CampaignCheckpoint) -> Vec<u8> {
    format!(
        r#"{{"kind":"checkpoint","checkpoint":{},"digest":null,"diagnostic":null,"attempt":1}}"#,
        cp.to_json().unwrap()
    )
    .into_bytes()
}

fn assert_version_zero(err: &CheckpointError) {
    assert_eq!(
        *err,
        CheckpointError::Version {
            found: 0,
            supported: RECORD_FORMAT_VERSION
        }
    );
}

#[test]
fn a_json_era_record_is_a_typed_version_refusal() {
    let arch = Architecture::broadwell();
    let w = swim();
    let make = || tuner(&w, &arch, FaultModel::zero(), Objective::Time);
    let payload = json_era_record(&make().run_until(Phase::Baseline));
    assert_version_zero(&CampaignRecord::from_bytes(&payload).unwrap_err());

    let j = TempJournal(temp_journal_path("wal-json-era"));
    Journal::create(&j.0).unwrap().append(&payload).unwrap();
    match Supervisor::new(&j.0, make).run() {
        Err(SupervisorError::Checkpoint(err)) => assert_version_zero(&err),
        other => panic!("expected a typed Version refusal, got {other:?}"),
    }

    let dir = temp_journal_path("wal-json-era-daemon");
    std::fs::create_dir_all(&dir).unwrap();
    let mut journal = Journal::create(&dir.join("tenant-legacy.wal")).unwrap();
    journal.append(&payload).unwrap();
    let mut spec = CampaignSpec::new("swim", "broadwell");
    spec.budget = 60;
    spec.focus = 8;
    spec.steps_cap = Some(5);
    let mut server = TuningServer::new(ServerConfig::new(&dir)).unwrap();
    match server.submit("legacy", spec) {
        Err(AdmissionError::Wal(why)) => {
            assert!(why.contains("unsupported checkpoint version 0"), "{why}")
        }
        other => panic!("expected a typed Wal refusal, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ftune_supervise_prints_the_version_refusal_and_exits_nonzero() {
    let dir = temp_journal_path("wal-json-era-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let arch = Architecture::broadwell();
    let w = swim();
    let payload = json_era_record(
        &tuner(&w, &arch, FaultModel::zero(), Objective::Time).run_until(Phase::Baseline),
    );
    let wal = dir.join(format!(
        "swim-{}-seed7.wal",
        arch.name.replace(' ', "-").to_lowercase()
    ));
    Journal::create(&wal).unwrap().append(&payload).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ftune"))
        .args(["supervise", "swim", "--k", "20", "--x", "4", "--seed", "7"])
        .args(["--checkpoint-dir", dir.to_str().unwrap()])
        .output()
        .expect("spawn ftune");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "accepted a JSON-era journal\n{stderr}"
    );
    assert_ne!(out.status.code(), Some(101), "panicked\n{stderr}");
    assert!(
        stderr.contains("unsupported checkpoint version 0"),
        "{stderr}"
    );
}
