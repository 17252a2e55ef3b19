//! Every byte surface under hostile input, and the WAL record codec's
//! losslessness on real journals.
//!
//! 1. **Hostile input.** One harness ([`attack`]) takes a valid payload
//!    and its decoder and runs it truncated at every byte offset, with
//!    a bit flipped at every byte offset, and with each element-count
//!    or length prefix set to `u64::MAX`. Cuts and hostile counts must
//!    be typed refusals; a flip may decode to another valid value.
//!    Nothing may panic, and no refusal may hold more than a fixed
//!    multiple of the payload's length (a counting global allocator
//!    measures it; each surface states its multiple). It runs over:
//!    - a real delta and done WAL record (`CampaignRecord::from_bytes`),
//!      each case re-sealed with a fresh checksum so the decoder, not
//!      the checksum, must refuse it; the checksum itself must refuse
//!      every raw cut and flip;
//!    - a collection checkpoint file (`Checkpoint::from_bytes`), sealed
//!      the same way;
//!    - HELLO, WORK (with CV definitions) and REPLY wire messages
//!      (`decode_message`);
//!    - a spooled `CampaignSpec` (`CampaignSpec::decode`);
//!    - a worker's frame stream, cut at every offset: it ends cleanly
//!      only at a frame boundary and is `WorkerDied` inside a frame.
//! 2. **Losslessness.** Under both fault models and both the Time and
//!    Pareto objectives, every segment's delta and every folded
//!    checkpoint re-encodes to identical bytes, and folding the deltas
//!    rebuilds the engine's cumulative checkpoint after every segment.
//! 3. **Older journals.** A record written by the earlier JSON codec or
//!    in format 1 is a typed `Version` refusal for `Supervisor`, the
//!    daemon and `ftune supervise`.
//!
//! The byte layouts the walker below follows are the ones DESIGN §13
//! (WAL records), §14 (wire messages) and §15 (spool specs) document.

use funcytuner::compiler::FaultModel;
use funcytuner::prelude::*;
use funcytuner::tuning::canonical::digest;
use funcytuner::tuning::journal::temp_journal_path;
use funcytuner::tuning::remote::{decode_message, encode_frame, encode_message, serve};
use funcytuner::tuning::supervisor::{default_segments, fold_checkpoints, CampaignRecord};
use funcytuner::tuning::{
    BatchReply, CampaignCheckpoint, Checkpoint, CheckpointError, HelloSpec, LedgerDelta, Message,
    Objective, Phase, RemoteError, WireError, WorkBatch, WorkItem, RECORD_FORMAT_VERSION,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::io::Cursor;
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

/// Walks a payload by its documented layout, independently of the
/// decoder, and collects the offset of every count or length prefix.
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

    fn collection(&mut self) {
        self.list(Self::bytes); // CVs
        self.list(Self::f64s); // per-module rows
        self.f64s(); // end-to-end times
    }

    fn checkpoint(&mut self) {
        self.bytes(); // workload
        self.bytes(); // arch
        self.words(3); // budget, focus, seed
        self.option(|w| w.words(1)); // steps cap
        self.words(5); // fault seed and rates
        self.option(|w| w.words(1)); // exempt digest
        self.words(2); // objective
        self.option(|w| w.words(1)); // baseline
        self.option(Self::collection);
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

/// The offset of every count prefix in `buf` from `from` on, walked by
/// `layout`, which must account for every byte.
fn count_offsets(buf: &[u8], from: usize, layout: impl FnOnce(&mut Walker)) -> Vec<usize> {
    let mut w = Walker {
        buf,
        pos: from,
        counts: Vec::new(),
    };
    layout(&mut w);
    assert_eq!(w.pos, buf.len(), "layout leaves bytes over");
    w.counts
}

/// Every count prefix of a sealed record's body (the record without
/// its checksum trailer), walked by `layout` after the tag and format.
fn sealed_counts(body: &[u8], tag: &[u8; 4], layout: impl FnOnce(&mut Walker)) -> Vec<usize> {
    assert_eq!(&body[..4], tag);
    assert_eq!(
        u32::from_le_bytes(body[4..8].try_into().unwrap()),
        RECORD_FORMAT_VERSION
    );
    count_offsets(body, 8, layout)
}

/// Every count prefix of a WAL record's body.
fn record_counts(body: &[u8]) -> Vec<usize> {
    sealed_counts(body, b"FTWR", |w| {
        w.bytes(); // kind
        w.word(); // attempt
        w.option(Walker::checkpoint);
        w.option(Walker::bytes); // digest
        w.option(Walker::bytes); // diagnostic
    })
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

/// One byte surface under attack.
struct Surface<'a> {
    label: &'a str,
    /// A valid payload; for a sealed surface, the part under its seal.
    body: &'a [u8],
    /// Wraps a mutated body the way its encoder would (the WAL's
    /// checksum trailer); the identity for an unsealed surface.
    seal: fn(Vec<u8>) -> Vec<u8>,
    /// The offset of every count or length prefix in `body`.
    counts: Vec<usize>,
    /// No cut or hostile count may hold more than this many times
    /// `body`'s length.
    alloc_factor: usize,
}

/// A flip may leave a well-formed payload that decodes in full before
/// a value is refused, so it may hold its decoded form. On every
/// surface that is at most twice its encoding: the largest ratio, a
/// wire CV definition of `16 + n` bytes that decodes to a 32-byte
/// `(digest, Vec)` pair plus its `n` values, stays under it.
const DECODED_ALLOC_FACTOR: usize = 2;

/// What a surface refused: every cut, then every hostile count.
struct Refusals<E> {
    cuts: Vec<E>,
    counts: Vec<E>,
}

/// Runs `decode` on `surface` cut at every offset, with a bit flipped
/// at every offset, and with each count set to `u64::MAX`. Cuts and
/// counts must be refused; flips may decode. Nothing may panic or hold
/// more than the surface's bound.
fn attack<T, E: Debug>(surface: &Surface, decode: impl Fn(&[u8]) -> Result<T, E>) -> Refusals<E> {
    let Surface {
        label,
        body,
        seal,
        alloc_factor,
        ..
    } = *surface;
    let run = |bytes: Vec<u8>, case: &str, factor: usize| -> Option<E> {
        let bytes = seal(bytes);
        let (refusal, peak) = peak_alloc(|| decode(&bytes).err());
        let bound = factor * body.len();
        assert!(
            peak <= bound,
            "{label} {case}: held {peak} bytes, bound {bound}"
        );
        refusal
    };
    let refused = |bytes: Vec<u8>, case: String| {
        run(bytes, &case, alloc_factor).unwrap_or_else(|| panic!("{label} {case}: accepted"))
    };
    let intact = run(body.to_vec(), "intact", DECODED_ALLOC_FACTOR);
    assert!(intact.is_none(), "{label}: refused {intact:?}");
    for at in 0..body.len() {
        let mut flipped = body.to_vec();
        flipped[at] ^= 1 << (at % 8);
        run(flipped, &format!("bit flip at {at}"), DECODED_ALLOC_FACTOR);
    }
    let cuts = (0..body.len())
        .map(|cut| refused(body[..cut].to_vec(), format!("cut at {cut}")))
        .collect();
    let counts = surface
        .counts
        .iter()
        .map(|&at| {
            let mut hostile = body.to_vec();
            hostile[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            refused(hostile, format!("count at {at}"))
        })
        .collect();
    Refusals { cuts, counts }
}

/// Decodes a whole sealed record, which must be refused with a typed
/// error while holding at most `bound` bytes.
fn assert_refused(bytes: &[u8], bound: usize, label: &str) {
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
        // The checksum refuses every raw cut and flip.
        for cut in 0..len {
            assert_refused(&record[..cut], len, &format!("{label} cut at {cut}"));
        }
        for at in 0..len {
            let mut flipped = record.clone();
            flipped[at] ^= 1 << (at % 8);
            assert_refused(&flipped, len, &format!("{label} bit flip at {at}"));
        }

        // Under a fresh checksum, the decoder refuses within the
        // record's length: its dry pass allocates nothing.
        let body = &record[..len - 8];
        let counts = record_counts(body);
        // At least one length prefix per collected CV (K = 16).
        assert!(
            counts.len() > 16,
            "{label}: {} count prefixes",
            counts.len()
        );
        let surface = Surface {
            label,
            body,
            seal: reseal,
            counts,
            alloc_factor: 1,
        };
        let refusals = attack(&surface, CampaignRecord::from_bytes);
        for err in &refusals.cuts {
            assert!(
                matches!(
                    err,
                    CheckpointError::Record(_) | CheckpointError::Version { .. }
                ),
                "{label}: {err:?}"
            );
        }
        for err in &refusals.counts {
            assert!(matches!(err, CheckpointError::Record(_)), "{label}: {err}");
        }
    }
}

#[test]
fn a_hostile_collection_file_is_a_typed_refusal_that_allocates_no_more_than_the_file() {
    let arch = Architecture::broadwell();
    let w = swim();
    let run = tuner(&w, &arch, FaultModel::testbed(0xFA17), Objective::Time)
        .budget(16)
        .run();
    let file = Checkpoint::capture(&run.ctx, run.data.clone()).to_bytes();
    let decoded = Checkpoint::from_bytes(&file).expect("decodes");
    assert_eq!(decoded.to_bytes(), file, "round-trips bit for bit");

    let body = &file[..file.len() - 8];
    let counts = sealed_counts(body, b"FTCK", |w| {
        w.bytes(); // program
        w.bytes(); // arch
        w.word(); // steps
        w.list(Walker::bytes); // module names
        w.collection();
    });
    let surface = Surface {
        label: "collection file",
        body,
        seal: reseal,
        counts,
        // Decoded only after a dry pass allocates nothing.
        alloc_factor: 1,
    };
    let refusals = attack(&surface, Checkpoint::from_bytes);
    for err in &refusals.cuts {
        assert!(
            matches!(
                err,
                CheckpointError::Record(_) | CheckpointError::Version { .. }
            ),
            "{err:?}"
        );
    }
    for err in &refusals.counts {
        assert!(matches!(err, CheckpointError::Record(_)), "{err}");
    }
}

/// A hello as the coordinator sends it.
fn hello() -> HelloSpec {
    HelloSpec {
        workload: "swim".to_string(),
        arch: "broadwell".to_string(),
        steps_cap: 2,
        seed: 42,
        fault_seed: 0xFA17,
        fault_compile: 0.01,
        fault_crash: 0.02,
        fault_hang: 0.005,
        fault_outlier: 0.03,
        max_retries: 2,
        timeout_factor: 20.0,
        objective: Objective::Weighted { w: 0.25 },
    }
}

fn unsealed(body: Vec<u8>) -> Vec<u8> {
    body
}

#[test]
fn hostile_wire_messages_are_typed_refusals() {
    let space = FlagSpace::icc();
    let cvs: Vec<Cv> = (0..3)
        .map(|v| space.baseline().with(&space, v, 1))
        .collect();
    let work = Message::Work(WorkBatch {
        seq: 7,
        timeout_ref_bits: 1.5f64.to_bits(),
        defs: cvs
            .iter()
            .map(|cv| (cv.digest(), cv.values().to_vec()))
            .collect(),
        items: vec![
            WorkItem {
                uniform: true,
                digests: vec![cvs[0].digest()],
                noise_seed: 11,
            },
            WorkItem {
                uniform: false,
                digests: cvs.iter().map(Cv::digest).collect(),
                noise_seed: 12,
            },
        ],
    });
    let reply = Message::Reply(BatchReply {
        seq: 7,
        time_bits: vec![1.25f64.to_bits(), f64::INFINITY.to_bits()],
        code_bits: vec![4096f64.to_bits(), f64::INFINITY.to_bits()],
        ledger: LedgerDelta {
            runs: 2,
            machine_nanos: 3_000_000,
            ..LedgerDelta::default()
        },
    });
    type Walk = fn(&mut Walker);
    let cases: [(&str, Message, Walk); 3] = [
        ("hello", Message::Hello(hello()), |w| {
            w.words(2); // kind, version
            w.bytes(); // workload
            w.bytes(); // arch
            w.words(9); // steps cap, seeds, fault rates, retries, timeout
            w.words(2); // objective
        }),
        ("work", work, |w| {
            w.words(3); // kind, seq, timeout reference
            w.list(|w| {
                w.word(); // digest
                w.bytes(); // values
            });
            w.list(|w| {
                w.word(); // uniform tag
                w.f64s(); // digests
                w.word(); // noise seed
            });
        }),
        ("reply", reply, |w| {
            w.words(2); // kind, seq
            w.f64s(); // time bits
            w.f64s(); // code bits
            w.words(14); // ledger delta
        }),
    ];
    for (label, msg, layout) in cases {
        let body = encode_message(&msg);
        assert_eq!(decode_message(&body).as_ref(), Ok(&msg), "{label}");
        let surface = Surface {
            label,
            body: &body,
            seal: unsealed,
            counts: count_offsets(&body, 0, layout),
            // The decoder builds as it reads, so a refusal may hold a
            // decoded prefix: a list it reserved for a count is at most
            // twice the bytes that count was checked against.
            alloc_factor: DECODED_ALLOC_FACTOR,
        };
        for err in attack(&surface, decode_message).counts {
            assert!(matches!(err, WireError::Truncated { .. }), "{label}: {err}");
        }
    }
}

#[test]
fn hostile_spool_specs_are_typed_refusals() {
    let mut spec = CampaignSpec::new("swim", "broadwell").with_fault_model(FaultModel::testbed(9));
    spec.steps_cap = Some(3);
    spec.run_cap = Some(500);
    spec.objective = Objective::Pareto;
    let body = spec.encode();
    let surface = Surface {
        label: "spool spec",
        body: &body,
        seal: unsealed,
        counts: count_offsets(&body, 0, |w| {
            w.word(); // version
            w.bytes(); // workload
            w.bytes(); // arch
            w.words(14); // budget to run cap, objective
        }),
        // A spec holds its two names and nothing else.
        alloc_factor: 1,
    };
    attack(&surface, CampaignSpec::decode);
}

#[test]
fn a_frame_stream_ends_cleanly_only_at_a_frame_boundary() {
    let empty = Message::Work(WorkBatch {
        seq: 1,
        timeout_ref_bits: 0,
        defs: Vec::new(),
        items: Vec::new(),
    });
    let mut stream = Vec::new();
    let mut boundaries = vec![0];
    for msg in [
        Message::Hello(hello()),
        empty.clone(),
        empty,
        Message::Shutdown,
    ] {
        stream.extend(encode_frame(&encode_message(&msg)));
        boundaries.push(stream.len());
    }
    for cut in 0..=stream.len() {
        let mut replies = Vec::new();
        match serve(&mut Cursor::new(&stream[..cut]), &mut replies) {
            Ok(()) => assert!(boundaries.contains(&cut), "cut at {cut} ended cleanly"),
            Err(RemoteError::WorkerDied(_)) => {
                assert!(
                    !boundaries.contains(&cut),
                    "cut at {cut} died at a boundary"
                )
            }
            Err(e) => panic!("cut at {cut}: {e}"),
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
                let decoded = CampaignRecord::from_bytes(&bytes)
                    .expect("folded decodes")
                    .checkpoint
                    .expect("carries the campaign");
                assert_eq!(record_bytes(&decoded), bytes, "{label}: fold {i}");
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
// 3. Older journals
// ---------------------------------------------------------------------

/// The baseline checkpoint record of `tuner(swim, Broadwell, zero
/// faults, Time)` as the earlier serde-JSON codec wrote it.
const JSON_ERA_RECORD: &[u8] = br#"{"kind":"checkpoint","checkpoint":{"version":2,"workload":"swim","arch":"Broadwell","budget":60,"focus":8,"seed":42,"steps_cap":5,"faults":{"seed":0,"compile_failure":0.0,"crash":0.0,"hang":0.0,"outlier":0.0,"exempt_digest":null},"objective":"time","baseline_time":2.2759811726138643,"data":null,"random":null,"fr":null,"greedy":null,"cfr":null,"bad_compiles":[],"bad_programs":[],"completed":["baseline"]},"digest":null,"diagnostic":null,"attempt":1}"#;

/// A poison record in format 1, whose poison layout format 2 kept:
/// only the format word differs.
fn format_1_record() -> Vec<u8> {
    let mut sealed = CampaignRecord::poisoned("an older build".to_string(), 1)
        .to_bytes()
        .unwrap();
    sealed.truncate(sealed.len() - 8);
    sealed[4..8].copy_from_slice(&1u32.to_le_bytes());
    reseal(sealed)
}

fn unsupported(found: u32) -> CheckpointError {
    CheckpointError::Version {
        found,
        supported: RECORD_FORMAT_VERSION,
    }
}

/// Asserts that the record decoder, `Supervisor` and the daemon all
/// refuse a journal holding `payload` as format `found`.
fn assert_every_driver_refuses(payload: &[u8], found: u32) {
    assert_eq!(
        CampaignRecord::from_bytes(payload).unwrap_err(),
        unsupported(found)
    );

    let arch = Architecture::broadwell();
    let w = swim();
    let make = || tuner(&w, &arch, FaultModel::zero(), Objective::Time);
    let j = TempJournal(temp_journal_path(&format!("wal-format-{found}")));
    Journal::create(&j.0).unwrap().append(payload).unwrap();
    match Supervisor::new(&j.0, make).run() {
        Err(SupervisorError::Checkpoint(err)) => assert_eq!(err, unsupported(found)),
        other => panic!("format {found}: expected a typed Version refusal, got {other:?}"),
    }

    let dir = temp_journal_path(&format!("wal-format-{found}-daemon"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut journal = Journal::create(&dir.join("tenant-legacy.wal")).unwrap();
    journal.append(payload).unwrap();
    let mut spec = CampaignSpec::new("swim", "broadwell");
    spec.budget = 60;
    spec.focus = 8;
    spec.steps_cap = Some(5);
    let mut server = TuningServer::new(ServerConfig::new(&dir)).unwrap();
    match server.submit("legacy", spec) {
        Err(AdmissionError::Wal(why)) => assert!(
            why.contains(&format!("unsupported checkpoint version {found}")),
            "{why}"
        ),
        other => panic!("format {found}: expected a typed Wal refusal, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_json_era_record_is_a_typed_version_refusal() {
    assert_every_driver_refuses(JSON_ERA_RECORD, 0);
}

#[test]
fn a_format_1_record_is_a_typed_version_refusal() {
    assert_every_driver_refuses(&format_1_record(), 1);
}

#[test]
fn ftune_supervise_prints_the_version_refusal_and_exits_nonzero() {
    let dir = temp_journal_path("wal-json-era-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let arch = Architecture::broadwell();
    let wal = dir.join(format!(
        "swim-{}-seed7.wal",
        arch.name.replace(' ', "-").to_lowercase()
    ));
    Journal::create(&wal)
        .unwrap()
        .append(JSON_ERA_RECORD)
        .unwrap();
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
