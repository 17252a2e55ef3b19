//! The distributed evaluation plane: candidate batches sharded across
//! worker processes, byte-identical to a single-process run.
//!
//! A campaign's dominant cost is the K-candidate evaluation loop. This
//! module splits that loop across N workers while keeping every
//! history bit, winner digest, and execution-ledger count equal to the
//! serial run — the `topology_equivalence` suite holds it to
//! `canonical_bytes()` equality for any worker count, both fault
//! models, both schedule modes, and worker kills at every batch
//! boundary. The proof rests on three substrate properties:
//!
//! * **Measured times are pure.** A candidate's end-to-end time is a
//!   function of its per-module CV digests and its noise seed; which
//!   process (and which cache) evaluates it cannot change the bits.
//!   Compile failures and hangs are deterministic per digest /
//!   fingerprint, and crash retries re-roll from the caller's seed —
//!   so `ok_runs`, `crashes`, and `retries` are topology-invariant
//!   too. Only *attribution* between `timeouts`/`compile_failures`
//!   and `quarantined` can shift (per-worker quarantines discover the
//!   same deterministic fault independently), exactly the caveat the
//!   overlapped scheduler already documents.
//! * **Deterministic assignment.** Candidate `k` of a batch always
//!   goes to shard `k mod N`, and replies are scattered back by
//!   candidate index — reply arrival order is structurally
//!   irrelevant.
//! * **Commutative merges.** Workers return ledger *deltas* as plain
//!   `u64` counters (machine time as integer nanoseconds, the same
//!   unit the context accumulates internally), folded into the
//!   coordinator's ledger with wrapping-free additions that commute.
//!
//! The wire protocol reuses the [`crate::canonical`] byte encoding
//! (LE `u64`s, bit-pattern `f64`s, length-prefixed byte strings)
//! inside the [`crate::journal`] frame discipline: every frame is
//! `[len u32][crc32 u32][payload]`, so truncation, bit flips, and
//! reordered or duplicated frames decode to a typed error or a
//! faithful value — never a panic, never a silent wrong value
//! (`remote_protocol` proptests, mirroring `journal_corruption`).
//!
//! Worker kills reuse the supervisor's [`ChaosPolicy`] kill-point
//! machinery with the batch sequence number as the boundary: a killed
//! worker drops its transport, caches, and quarantine; the
//! coordinator respawns it through the factory, re-syncs the CV
//! definitions it lost, and resends the batch. Because evaluation is
//! pure, the retried shard returns the same bits.

use crate::canonical::{write_bytes, write_u64, Reader};
use crate::ctx::{EvalContext, ResilienceConfig};
use crate::objective::{Objective, Score};
use crate::pipeline::Tuner;
use crate::search::{Candidate, Proposal};
use crate::server::arch_by_name;
use crate::supervisor::ChaosPolicy;
use ft_compiler::FaultModel;
use ft_flags::{Cv, CvId, CvPool};
use ft_workloads::workload_by_name;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Protocol version carried in every hello; a mismatch is a typed
/// refusal, not a guess. Version 2 added the campaign objective to the
/// hello and per-candidate code-size bits to every reply — a version-1
/// peer decodes to [`WireError::Version`], never to a defaulted
/// objective.
pub const PROTOCOL_VERSION: u64 = 2;

/// The shared frame codec (see [`crate::framing`]): the wire uses the
/// exact discipline of the WAL journal, re-exported here under the
/// names this module has always had.
pub use crate::framing::{FRAME_HEADER, MAX_FRAME_BYTES};

/// Consecutive respawn attempts per shard dispatch before the
/// coordinator gives up. Each attempt is a fresh worker; a batch that
/// cannot survive this many is a systemic failure, not a flaky
/// worker.
pub const RESPAWN_LIMIT: u32 = 8;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a frame could not be lifted off the byte stream — the shared
/// [`crate::framing::FrameError`].
pub use crate::framing::FrameError;

/// Why a CRC-valid payload could not be decoded into a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The byte stream ended inside a field.
    Truncated {
        /// Offset at which the field started.
        at: usize,
    },
    /// An unknown message kind tag.
    UnknownKind(u64),
    /// A field decoded but its value is impossible (bad CV values,
    /// digest mismatch, unknown digest, wrong protocol version, ...).
    BadValue(&'static str),
    /// Bytes left over after a complete message.
    Trailing {
        /// Count of unconsumed bytes.
        extra: usize,
    },
    /// The peer speaks a different protocol revision. A dedicated
    /// variant (not [`WireError::BadValue`]) so a worker can exit with
    /// a clean, typed handshake failure instead of a generic decode
    /// error — and so version skew is distinguishable from corruption.
    Version {
        /// The version the peer announced.
        found: u64,
        /// The version this build speaks.
        supported: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { at } => write!(f, "message truncated at byte {at}"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::BadValue(what) => write!(f, "invalid field: {what}"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
            WireError::Version { found, supported } => write!(
                f,
                "protocol version mismatch: peer speaks {found}, supported {supported}"
            ),
        }
    }
}

/// Transport- and protocol-level failures seen by the coordinator and
/// the worker serve loop.
#[derive(Debug)]
pub enum RemoteError {
    /// Frame-level damage on the stream.
    Frame(FrameError),
    /// A CRC-valid frame whose payload does not decode.
    Wire(WireError),
    /// The underlying pipe/process failed.
    Io(std::io::Error),
    /// The peer vanished (EOF mid-conversation, dead child).
    WorkerDied(String),
    /// The peer answered with the wrong message for the protocol
    /// state (e.g. a reply for a different batch sequence).
    Protocol(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Frame(e) => write!(f, "frame error: {e}"),
            RemoteError::Wire(e) => write!(f, "wire error: {e}"),
            RemoteError::Io(e) => write!(f, "io error: {e}"),
            RemoteError::WorkerDied(w) => write!(f, "worker died: {w}"),
            RemoteError::Protocol(w) => write!(f, "protocol violation: {w}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<FrameError> for RemoteError {
    fn from(e: FrameError) -> Self {
        RemoteError::Frame(e)
    }
}

impl From<WireError> for RemoteError {
    fn from(e: WireError) -> Self {
        RemoteError::Wire(e)
    }
}

impl From<std::io::Error> for RemoteError {
    fn from(e: std::io::Error) -> Self {
        RemoteError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Frame codec — one implementation, shared with the WAL journal. One
// stream reader, `read_frame`, pulls every frame off a pipe (the worker
// loop, the hello handshake and every round trip), and `decode_frame`
// is the one CRC check behind it and behind the in-process transport.
// ---------------------------------------------------------------------------

pub use crate::framing::{decode_frame, decode_frames, encode_frame};

/// Writes one frame to a stream (header + payload, no flush policy —
/// callers flush at message boundaries).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), RemoteError> {
    w.write_all(&encode_frame(payload))?;
    w.flush()?;
    Ok(())
}

/// Reads one whole frame (header and payload) off a stream, its CRC
/// unchecked: [`decode_frame`] is the one CRC check of every transport.
/// `Ok(None)` is a clean EOF at a frame boundary and EOF inside a frame
/// is [`RemoteError::WorkerDied`]. A length above [`MAX_FRAME_BYTES`] is
/// refused before anything is allocated for it.
fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, RemoteError> {
    let mut frame = vec![0u8; FRAME_HEADER];
    let mut got = 0;
    while got < FRAME_HEADER {
        match r.read(&mut frame[got..])? {
            0 if got == 0 => return Ok(None),
            0 => return Err(RemoteError::WorkerDied("EOF inside frame header".into())),
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(RemoteError::Frame(FrameError::LengthInsane));
    }
    frame.resize(FRAME_HEADER + len, 0);
    r.read_exact(&mut frame[FRAME_HEADER..])
        .map_err(|_| RemoteError::WorkerDied("EOF inside frame payload".into()))?;
    Ok(Some(frame))
}

/// The next message on a stream, CRC-checked; `Ok(None)` on a clean
/// EOF at a frame boundary.
fn read_message<R: Read>(r: &mut R) -> Result<Option<Message>, RemoteError> {
    let Some(frame) = read_frame(r)? else {
        return Ok(None);
    };
    Ok(Some(decode_message(decode_frame(&frame)?.0)?))
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

const MSG_HELLO: u64 = 1;
const MSG_HELLO_ACK: u64 = 2;
const MSG_WORK: u64 = 3;
const MSG_REPLY: u64 = 4;
const MSG_SHUTDOWN: u64 = 5;

/// Everything a worker needs to rebuild the coordinator's evaluation
/// context bit-for-bit: the same workload instantiation, outline seed,
/// noise root derivation, fault model, and retry policy. Process
/// workers receive it in the hello; in-process workers build from it
/// directly. Either way [`HelloSpec::context`] is the recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloSpec {
    /// Workload name (resolved via the suite registry).
    pub workload: String,
    /// Architecture name (resolved via the CLI's arch table).
    pub arch: String,
    /// Per-run time-step cap; `u64::MAX` means uncapped.
    pub steps_cap: u64,
    /// The tuner's root seed (outline and noise seeds derive from it).
    pub seed: u64,
    /// Fault-model fields (the exempt digest is re-derived worker-side
    /// from the flag space, exactly as `with_faults` does).
    pub fault_seed: u64,
    pub fault_compile: f64,
    pub fault_crash: f64,
    pub fault_hang: f64,
    pub fault_outlier: f64,
    /// Resilience policy.
    pub max_retries: u64,
    pub timeout_factor: f64,
    /// What the campaign optimizes. Workers never select winners, but
    /// the objective is part of the campaign identity, so a worker
    /// whose coordinator tunes a different objective must know (and a
    /// pre-objective peer must fail the version gate, not default).
    pub objective: Objective,
}

impl HelloSpec {
    /// Rebuilds the coordinator's evaluation context with the
    /// coordinator's own recipe (the [`Tuner`] it would build from
    /// these fields), so a worker's digests, noise streams and fault
    /// rolls are bit-identical to the coordinator's. Refuses a zero
    /// step cap (a run of no steps has no hot loops to outline), a
    /// fault rate outside [0, 1] (NaN included), a timeout factor that
    /// is not finite and positive, a retry count beyond `u32`, and
    /// workload or architecture names this build does not know.
    pub fn context(&self) -> Result<EvalContext, RemoteError> {
        let resilience = self.check()?;
        let workload = workload_by_name(&self.workload).ok_or_else(|| {
            RemoteError::Protocol(format!("hello names unknown workload {:?}", self.workload))
        })?;
        let arch = arch_by_name(&self.arch).ok_or_else(|| {
            RemoteError::Protocol(format!("hello names unknown architecture {:?}", self.arch))
        })?;
        let faults = FaultModel {
            seed: self.fault_seed,
            compile_failure: self.fault_compile,
            crash: self.fault_crash,
            hang: self.fault_hang,
            outlier: self.fault_outlier,
            exempt_digest: None, // with_faults re-derives the baseline exemption
        };
        let tuner = Tuner::new(&workload, &arch)
            .seed(self.seed)
            .cap_steps(u32::try_from(self.steps_cap).unwrap_or(u32::MAX))
            .faults(faults)
            .resilience(resilience)
            .objective(self.objective);
        Ok(tuner.prepare().ctx)
    }

    /// The value checks of [`HelloSpec::context`]; a coordinator also
    /// runs them before it spawns a worker process. The codec itself
    /// stays faithful to whatever bytes it is given.
    fn check(&self) -> Result<ResilienceConfig, WireError> {
        if self.steps_cap == 0 {
            return Err(WireError::BadValue("steps cap of zero"));
        }
        check_rate("compile-failure rate", self.fault_compile)?;
        check_rate("crash rate", self.fault_crash)?;
        check_rate("hang rate", self.fault_hang)?;
        check_rate("outlier rate", self.fault_outlier)?;
        if !(self.timeout_factor.is_finite() && self.timeout_factor > 0.0) {
            return Err(WireError::BadValue(
                "timeout factor not finite and positive",
            ));
        }
        let max_retries = u32::try_from(self.max_retries)
            .map_err(|_| WireError::BadValue("max_retries beyond u32"))?;
        Ok(ResilienceConfig {
            max_retries,
            timeout_factor: self.timeout_factor,
        })
    }
}

/// The one fault-rate check of every surface that takes a fault model
/// off the wire (hello specs and spooled campaign specs): a rate lies
/// in [0, 1], which NaN does not.
pub(crate) fn check_rate(what: &'static str, rate: f64) -> Result<f64, WireError> {
    if (0.0..=1.0).contains(&rate) {
        Ok(rate)
    } else {
        Err(WireError::BadValue(what))
    }
}

/// One candidate of a work batch, as interned digests. The worker
/// resolves each digest against the CV definitions it has been sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkItem {
    /// `true` = uniform candidate (one digest applied to every
    /// module); `false` = per-loop (one digest per module).
    pub uniform: bool,
    /// CV digests (1 for uniform, module-count for per-loop).
    pub digests: Vec<u64>,
    /// The proposal's noise seed, verbatim.
    pub noise_seed: u64,
}

/// A shard's slice of one evaluation batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkBatch {
    /// Global batch sequence (coordinator-assigned; echoed in the
    /// reply so a duplicated or reordered frame cannot be mistaken
    /// for the answer).
    pub seq: u64,
    /// The coordinator's timeout reference (f64 bits; 0 = unset),
    /// re-applied before evaluation so hang charging matches the
    /// serial run.
    pub timeout_ref_bits: u64,
    /// CV definitions this worker has not been sent yet:
    /// `(digest, raw value indices)`. Content-addressed — a respawned
    /// worker simply receives the full set again.
    pub defs: Vec<(u64, Vec<u8>)>,
    /// The candidates, in shard order.
    pub items: Vec<WorkItem>,
}

/// Worker-side ledger movement for one batch: plain `u64` counters
/// whose coordinator-side merge is exact and commutative (machine
/// time stays in integer nanoseconds, the unit [`EvalContext`]
/// accumulates internally, so no float summation order can perturb
/// the merged total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerDelta {
    pub runs: u64,
    pub machine_nanos: u64,
    pub ok_runs: u64,
    pub compile_failures: u64,
    pub crashes: u64,
    pub timeouts: u64,
    pub retries: u64,
    pub quarantined: u64,
    pub object_compiles: u64,
    pub object_reuses: u64,
    pub object_evictions: u64,
    pub links: u64,
    pub link_reuses: u64,
    pub link_evictions: u64,
}

impl LedgerDelta {
    /// Snapshot of a context's lifetime ledger in delta form.
    pub fn totals_of(ctx: &EvalContext) -> LedgerDelta {
        let cost = ctx.cost();
        let faults = ctx.fault_stats();
        LedgerDelta {
            runs: cost.runs,
            machine_nanos: ctx.machine_nanos_total(),
            ok_runs: faults.ok_runs,
            compile_failures: faults.compile_failures,
            crashes: faults.crashes,
            timeouts: faults.timeouts,
            retries: faults.retries,
            quarantined: faults.quarantined,
            object_compiles: cost.object_compiles,
            object_reuses: cost.object_reuses,
            object_evictions: cost.object_evictions,
            links: cost.links,
            link_reuses: cost.link_reuses,
            link_evictions: cost.link_evictions,
        }
    }

    /// Field-wise `self - earlier` (counters are monotone).
    pub fn since(&self, earlier: &LedgerDelta) -> LedgerDelta {
        self.zip(earlier, |now, then| now - then)
    }

    /// Folds another delta in, field-wise.
    fn add(&mut self, other: &LedgerDelta) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// The counters in wire order.
    fn counters(&self) -> [u64; 14] {
        [
            self.runs,
            self.machine_nanos,
            self.ok_runs,
            self.compile_failures,
            self.crashes,
            self.timeouts,
            self.retries,
            self.quarantined,
            self.object_compiles,
            self.object_reuses,
            self.object_evictions,
            self.links,
            self.link_reuses,
            self.link_evictions,
        ]
    }

    /// Inverse of [`LedgerDelta::counters`].
    fn from_counters(c: [u64; 14]) -> LedgerDelta {
        LedgerDelta {
            runs: c[0],
            machine_nanos: c[1],
            ok_runs: c[2],
            compile_failures: c[3],
            crashes: c[4],
            timeouts: c[5],
            retries: c[6],
            quarantined: c[7],
            object_compiles: c[8],
            object_reuses: c[9],
            object_evictions: c[10],
            links: c[11],
            link_reuses: c[12],
            link_evictions: c[13],
        }
    }

    fn zip(&self, other: &LedgerDelta, f: impl Fn(u64, u64) -> u64) -> LedgerDelta {
        let (a, b) = (self.counters(), other.counters());
        LedgerDelta::from_counters(std::array::from_fn(|i| f(a[i], b[i])))
    }

    fn write(&self, out: &mut Vec<u8>) {
        for v in self.counters() {
            write_u64(out, v);
        }
    }

    fn read(r: &mut Reader) -> Result<LedgerDelta, WireError> {
        let mut c = [0u64; 14];
        for v in &mut c {
            *v = need(r.u64(), r)?;
        }
        Ok(LedgerDelta::from_counters(c))
    }
}

/// A worker's answer to one [`WorkBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReply {
    /// Echo of the batch sequence.
    pub seq: u64,
    /// Measured times as f64 bit patterns, in item order (`+inf`
    /// survives exactly; nothing is rounded through text).
    pub time_bits: Vec<u64>,
    /// Modeled executable sizes as f64 bit patterns, in item order
    /// (the [`Score::code_bytes`] component; `+inf` for faulted
    /// candidates). Same arity as `time_bits`.
    pub code_bits: Vec<u64>,
    /// The worker ledger's movement across this batch.
    pub ledger: LedgerDelta,
}

/// Every protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    Hello(HelloSpec),
    HelloAck {
        /// Module count of the worker's rebuilt context, for a
        /// coordinator-side sanity check before any work is sent.
        modules: u64,
    },
    Work(WorkBatch),
    Reply(BatchReply),
    Shutdown,
}

/// The value of a read at `r`, or [`WireError::Truncated`] at the field
/// it could not read (where a failed [`Reader`] read leaves the cursor).
pub(crate) fn need<T>(value: Option<T>, r: &Reader) -> Result<T, WireError> {
    value.ok_or(WireError::Truncated { at: r.pos() })
}

/// Encodes a message payload (frame it with [`encode_frame`] before
/// putting it on a stream).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        Message::Hello(spec) => {
            write_u64(&mut out, MSG_HELLO);
            write_u64(&mut out, PROTOCOL_VERSION);
            write_bytes(&mut out, spec.workload.as_bytes());
            write_bytes(&mut out, spec.arch.as_bytes());
            write_u64(&mut out, spec.steps_cap);
            write_u64(&mut out, spec.seed);
            write_u64(&mut out, spec.fault_seed);
            write_u64(&mut out, spec.fault_compile.to_bits());
            write_u64(&mut out, spec.fault_crash.to_bits());
            write_u64(&mut out, spec.fault_hang.to_bits());
            write_u64(&mut out, spec.fault_outlier.to_bits());
            write_u64(&mut out, spec.max_retries);
            write_u64(&mut out, spec.timeout_factor.to_bits());
            spec.objective.write_canonical(&mut out);
        }
        Message::HelloAck { modules } => {
            write_u64(&mut out, MSG_HELLO_ACK);
            write_u64(&mut out, *modules);
        }
        Message::Work(batch) => {
            write_u64(&mut out, MSG_WORK);
            write_u64(&mut out, batch.seq);
            write_u64(&mut out, batch.timeout_ref_bits);
            write_u64(&mut out, batch.defs.len() as u64);
            for (digest, values) in &batch.defs {
                write_u64(&mut out, *digest);
                write_bytes(&mut out, values);
            }
            write_u64(&mut out, batch.items.len() as u64);
            for item in &batch.items {
                write_u64(&mut out, u64::from(item.uniform));
                write_u64(&mut out, item.digests.len() as u64);
                for d in &item.digests {
                    write_u64(&mut out, *d);
                }
                write_u64(&mut out, item.noise_seed);
            }
        }
        Message::Reply(reply) => {
            write_u64(&mut out, MSG_REPLY);
            write_u64(&mut out, reply.seq);
            write_u64(&mut out, reply.time_bits.len() as u64);
            for bits in &reply.time_bits {
                write_u64(&mut out, *bits);
            }
            write_u64(&mut out, reply.code_bits.len() as u64);
            for bits in &reply.code_bits {
                write_u64(&mut out, *bits);
            }
            reply.ledger.write(&mut out);
        }
        Message::Shutdown => {
            write_u64(&mut out, MSG_SHUTDOWN);
        }
    }
    out
}

/// Decodes a message payload. Every failure is typed, and every
/// claimed count is checked against the bytes that remain before
/// anything is allocated for it, so a hostile count dies on truncation,
/// not OOM.
pub fn decode_message(buf: &[u8]) -> Result<Message, WireError> {
    let r = &mut Reader::new(buf);
    let name = |r: &mut Reader, what| {
        let bytes = need(r.bytes(), r)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| WireError::BadValue(what))
    };
    let msg = match need(r.u64(), r)? {
        MSG_HELLO => {
            let version = need(r.u64(), r)?;
            if version != PROTOCOL_VERSION {
                return Err(WireError::Version {
                    found: version,
                    supported: PROTOCOL_VERSION,
                });
            }
            Message::Hello(HelloSpec {
                workload: name(r, "workload name not UTF-8")?,
                arch: name(r, "arch name not UTF-8")?,
                steps_cap: need(r.u64(), r)?,
                seed: need(r.u64(), r)?,
                fault_seed: need(r.u64(), r)?,
                fault_compile: need(r.f64(), r)?,
                fault_crash: need(r.f64(), r)?,
                fault_hang: need(r.f64(), r)?,
                fault_outlier: need(r.f64(), r)?,
                max_retries: need(r.u64(), r)?,
                timeout_factor: need(r.f64(), r)?,
                objective: Objective::read_canonical(r)?,
            })
        }
        MSG_HELLO_ACK => Message::HelloAck {
            modules: need(r.u64(), r)?,
        },
        MSG_WORK => {
            let seq = need(r.u64(), r)?;
            let timeout_ref_bits = need(r.u64(), r)?;
            // A definition is at least a digest and a length prefix.
            let defs = r.list(16, |r| Some((r.u64()?, r.bytes()?.to_vec())));
            let defs = need(defs, r)?;
            // An item is at least its tag, digest count and noise seed.
            let n = need(r.count(24), r)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let uniform = match need(r.u64(), r)? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadValue("uniform tag")),
                };
                items.push(WorkItem {
                    uniform,
                    digests: need(r.list(8, Reader::u64), r)?,
                    noise_seed: need(r.u64(), r)?,
                });
            }
            Message::Work(WorkBatch {
                seq,
                timeout_ref_bits,
                defs,
                items,
            })
        }
        MSG_REPLY => Message::Reply(BatchReply {
            seq: need(r.u64(), r)?,
            time_bits: need(r.list(8, Reader::u64), r)?,
            code_bits: need(r.list(8, Reader::u64), r)?,
            ledger: LedgerDelta::read(r)?,
        }),
        MSG_SHUTDOWN => Message::Shutdown,
        other => return Err(WireError::UnknownKind(other)),
    };
    if !r.at_end() {
        return Err(WireError::Trailing {
            extra: buf.len() - r.pos(),
        });
    }
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Worker-side state: its own evaluation context (caches, quarantine,
/// ledger), a local intern pool, and the digest → id map built from
/// the CV definitions the coordinator has sent.
pub struct Worker {
    ctx: EvalContext,
    pool: CvPool,
    ids: HashMap<u64, CvId>,
    last: LedgerDelta,
}

impl Worker {
    /// Wraps a built context.
    pub fn new(ctx: EvalContext) -> Self {
        Worker {
            ctx,
            pool: CvPool::new(),
            ids: HashMap::new(),
            last: LedgerDelta::default(),
        }
    }

    /// Module count of the wrapped context (for the hello ack).
    pub fn modules(&self) -> usize {
        self.ctx.modules()
    }

    /// Evaluates one batch: registers new CV definitions, resolves
    /// each item to an interned candidate, runs them through the
    /// exact driver batch path, and returns time bits plus the ledger
    /// delta. Invalid frames (bad CV values, digest mismatches,
    /// unknown digests, wrong arity) are typed errors, never panics.
    pub fn work(&mut self, batch: &WorkBatch) -> Result<BatchReply, WireError> {
        if batch.timeout_ref_bits != 0 {
            self.ctx
                .set_timeout_reference(f64::from_bits(batch.timeout_ref_bits));
        }
        for (digest, values) in &batch.defs {
            let cv = Cv::checked(self.ctx.space(), values.clone())
                .ok_or(WireError::BadValue("CV values do not fit the flag space"))?;
            if cv.digest() != *digest {
                return Err(WireError::BadValue("CV digest mismatch"));
            }
            let id = self.pool.intern(&cv);
            self.ids.insert(*digest, id);
        }
        let modules = self.ctx.modules();
        let mut proposals = Vec::with_capacity(batch.items.len());
        for item in &batch.items {
            let resolve = |d: &u64| self.ids.get(d).copied();
            let candidate = if item.uniform {
                if item.digests.len() != 1 {
                    return Err(WireError::BadValue("uniform item needs exactly 1 digest"));
                }
                Candidate::Uniform(
                    resolve(&item.digests[0]).ok_or(WireError::BadValue("unknown CV digest"))?,
                )
            } else {
                if item.digests.len() != modules {
                    return Err(WireError::BadValue("per-loop item arity != module count"));
                }
                let ids: Option<Vec<CvId>> = item.digests.iter().map(resolve).collect();
                Candidate::PerLoop(ids.ok_or(WireError::BadValue("unknown CV digest"))?)
            };
            proposals.push(Proposal::new(candidate, item.noise_seed));
        }
        let scores = self.ctx.evaluate(&self.pool, &proposals);
        let now = LedgerDelta::totals_of(&self.ctx);
        let ledger = now.since(&self.last);
        self.last = now;
        Ok(BatchReply {
            seq: batch.seq,
            time_bits: scores.iter().map(|s| s.time.to_bits()).collect(),
            code_bits: scores.iter().map(|s| s.code_bytes.to_bits()).collect(),
            ledger,
        })
    }
}

/// Drives a worker over a framed byte stream (the `ftune worker`
/// loop): expects a hello first, builds the worker's context from it
/// ([`HelloSpec::context`]), answers every work batch, and exits
/// cleanly on shutdown or EOF.
pub fn serve<R: Read, W: Write>(rx: &mut R, tx: &mut W) -> Result<(), RemoteError> {
    let Some(hello) = read_message(rx)? else {
        return Ok(());
    };
    let spec = match hello {
        Message::Hello(spec) => spec,
        other => {
            return Err(RemoteError::Protocol(format!(
                "expected hello, got {other:?}"
            )))
        }
    };
    let mut worker = Worker::new(spec.context()?);
    write_frame(
        tx,
        &encode_message(&Message::HelloAck {
            modules: worker.modules() as u64,
        }),
    )?;
    while let Some(msg) = read_message(rx)? {
        match msg {
            Message::Work(batch) => {
                let reply = worker.work(&batch)?;
                write_frame(tx, &encode_message(&Message::Reply(reply)))?;
            }
            Message::Shutdown => return Ok(()),
            other => {
                return Err(RemoteError::Protocol(format!(
                    "expected work or shutdown, got {other:?}"
                )))
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// One request/response exchange with a worker. The protocol is
/// strictly synchronous per worker (concurrency comes from sharding
/// across workers), so a transport is just a framed round trip.
pub trait Transport: Send {
    /// Ships an encoded frame and returns the complete reply frame
    /// (header + payload). The caller verifies it with
    /// [`decode_frame`] — the one CRC checkpoint every transport
    /// shares.
    fn roundtrip(&mut self, frame: &[u8]) -> Result<Vec<u8>, RemoteError>;
}

/// An in-process worker behind the real byte protocol: every request
/// is encoded, CRC-framed, decoded, evaluated, and re-encoded — the
/// exact bytes a pipe would carry, without the process boundary. The
/// test suites run on this; the CLI swaps in [`ProcessTransport`].
pub struct InProcessTransport {
    worker: Worker,
}

impl InProcessTransport {
    pub fn new(ctx: EvalContext) -> Self {
        InProcessTransport {
            worker: Worker::new(ctx),
        }
    }
}

impl Transport for InProcessTransport {
    fn roundtrip(&mut self, frame: &[u8]) -> Result<Vec<u8>, RemoteError> {
        let (payload, _) = decode_frame(frame)?;
        let reply = match decode_message(payload)? {
            Message::Work(batch) => Message::Reply(self.worker.work(&batch)?),
            Message::Hello(_) => Message::HelloAck {
                modules: self.worker.modules() as u64,
            },
            other => {
                return Err(RemoteError::Protocol(format!(
                    "in-process worker got {other:?}"
                )))
            }
        };
        Ok(encode_frame(&encode_message(&reply)))
    }
}

/// A worker child process (`ftune worker`) over stdin/stdout pipes.
pub struct ProcessTransport {
    child: std::process::Child,
    stdin: std::process::ChildStdin,
    stdout: std::process::ChildStdout,
}

impl ProcessTransport {
    /// Spawns `exe worker`, performs the hello handshake, and checks
    /// the worker rebuilt a context with the expected module count. A
    /// spec with impossible values is refused before any process
    /// starts.
    pub fn spawn(
        exe: &std::path::Path,
        spec: &HelloSpec,
        expect_modules: u64,
    ) -> Result<Self, RemoteError> {
        spec.check()?;
        let mut child = std::process::Command::new(exe)
            .arg("worker")
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = child.stdout.take().expect("piped stdout");
        write_frame(&mut stdin, &encode_message(&Message::Hello(spec.clone())))?;
        let ack = read_message(&mut stdout)?
            .ok_or_else(|| RemoteError::WorkerDied("worker exited before hello ack".into()))?;
        match ack {
            Message::HelloAck { modules } if modules == expect_modules => Ok(ProcessTransport {
                child,
                stdin,
                stdout,
            }),
            Message::HelloAck { modules } => Err(RemoteError::Protocol(format!(
                "worker rebuilt {modules} modules, coordinator has {expect_modules}"
            ))),
            other => Err(RemoteError::Protocol(format!(
                "expected hello ack, got {other:?}"
            ))),
        }
    }
}

impl Transport for ProcessTransport {
    fn roundtrip(&mut self, frame: &[u8]) -> Result<Vec<u8>, RemoteError> {
        self.stdin.write_all(frame)?;
        self.stdin.flush()?;
        // Return the reply *frame* verbatim (header + payload), CRC
        // unverified: the coordinator's `decode_frame` is the single
        // point of verification for every transport, so pipe damage
        // and in-process damage take the identical typed path.
        read_frame(&mut self.stdout)?
            .ok_or_else(|| RemoteError::WorkerDied("worker exited mid-batch".into()))
    }
}

impl Drop for ProcessTransport {
    fn drop(&mut self) {
        let _ = write_frame(&mut self.stdin, &encode_message(&Message::Shutdown));
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Builds (or rebuilds, after a kill) the transport for worker `i`.
pub type WorkerFactory =
    Arc<dyn Fn(usize) -> Result<Box<dyn Transport>, RemoteError> + Send + Sync>;

struct Slot {
    transport: Option<Box<dyn Transport>>,
    /// CV digests this worker is known to hold (cleared on respawn,
    /// so a fresh worker receives the full definition set again).
    known: HashSet<u64>,
}

/// The coordinator side of the plane: N worker slots, the shard
/// assignment, kill/respawn recovery, and the merged remote ledger.
/// Attach to a context with [`EvalContext::with_remote`]; every
/// [`crate::search::SearchDriver`] batch then routes through
/// [`RemotePlane::evaluate`].
pub struct RemotePlane {
    slots: Vec<Mutex<Slot>>,
    factory: WorkerFactory,
    chaos: ChaosPolicy,
    kills: AtomicU32,
    spawns: AtomicU64,
    batches: AtomicU64,
    /// The merged worker ledger; folded once per shard reply.
    ledger: Mutex<LedgerDelta>,
}

impl RemotePlane {
    /// A plane with `workers` lazily-spawned slots.
    pub fn new(workers: usize, factory: WorkerFactory) -> Self {
        assert!(workers >= 1, "a plane needs at least one worker");
        RemotePlane {
            slots: (0..workers)
                .map(|_| {
                    Mutex::new(Slot {
                        transport: None,
                        known: HashSet::new(),
                    })
                })
                .collect(),
            factory,
            chaos: ChaosPolicy::Off,
            kills: AtomicU32::new(0),
            spawns: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            ledger: Mutex::new(LedgerDelta::default()),
        }
    }

    /// Installs a worker-kill chaos policy, reusing the supervisor's
    /// kill-point machinery with the batch sequence as the boundary
    /// and the worker index as the attempt.
    pub fn with_chaos(mut self, chaos: ChaosPolicy) -> Self {
        self.chaos = chaos;
        self
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Batches dispatched so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Chaos kills injected so far.
    pub fn kills(&self) -> u32 {
        self.kills.load(Ordering::Relaxed)
    }

    /// Worker (re)spawns performed so far (first spawns included).
    pub fn spawns(&self) -> u64 {
        self.spawns.load(Ordering::Relaxed)
    }

    /// The merged remote ledger (all workers, all batches).
    pub fn ledger_totals(&self) -> LedgerDelta {
        *self.ledger.lock().expect("plane ledger poisoned")
    }

    /// Evaluates one proposal batch across the workers and returns
    /// scores in proposal order. Candidates are sharded by index,
    /// dispatched concurrently (one thread per non-empty shard), and
    /// scattered back by index — arrival order cannot reorder
    /// results. A worker that dies (chaos kill, transport error,
    /// corrupt reply) is respawned and its shard resent; evaluation
    /// purity makes the retry return the same bits.
    pub fn evaluate(
        &self,
        pool: &CvPool,
        proposals: &[Proposal],
        timeout_ref_bits: u64,
    ) -> Vec<Score> {
        if proposals.is_empty() {
            return Vec::new();
        }
        let seq = self.batches.fetch_add(1, Ordering::SeqCst);
        let n = self.slots.len();
        let mut shards: Vec<Vec<(usize, &Proposal)>> = (0..n).map(|_| Vec::new()).collect();
        for (k, p) in proposals.iter().enumerate() {
            shards[k % n].push((k, p));
        }
        let mut scores = vec![Score::faulted(); proposals.len()];
        if n == 1 {
            for (k, score) in self.run_shard(0, seq, pool, &shards[0], timeout_ref_bits) {
                scores[k] = score;
            }
            return scores;
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter()
                .enumerate()
                .filter(|(_, shard)| !shard.is_empty())
                .map(|(w, shard)| {
                    s.spawn(move || self.run_shard(w, seq, pool, shard, timeout_ref_bits))
                })
                .collect();
            for h in handles {
                for (k, score) in h.join().expect("shard dispatch thread panicked") {
                    scores[k] = score;
                }
            }
        });
        scores
    }

    fn run_shard(
        &self,
        w: usize,
        seq: u64,
        pool: &CvPool,
        shard: &[(usize, &Proposal)],
        timeout_ref_bits: u64,
    ) -> Vec<(usize, Score)> {
        let mut slot = self.slots[w].lock().expect("worker slot poisoned");
        // Chaos kill at this batch boundary: the worker dies holding
        // its warm caches and quarantine; all of that state drops and
        // the dispatch below respawns a cold one.
        let kills = self.kills.load(Ordering::SeqCst);
        if self.chaos.should_kill(kills, w as u32, seq as usize)
            && self
                .kills
                .compare_exchange(kills, kills + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            slot.transport = None;
            slot.known.clear();
        }
        // Interned wire form: digests per item, plus the definitions
        // this worker has not seen (first occurrence keeps the id for
        // the value lookup).
        let mut digest_ids: HashMap<u64, CvId> = HashMap::new();
        let mut items = Vec::with_capacity(shard.len());
        for (_, p) in shard {
            let (uniform, ids): (bool, Vec<CvId>) = match &p.candidate {
                Candidate::Uniform(id) => (true, vec![*id]),
                Candidate::PerLoop(ids) => (false, ids.clone()),
            };
            let digests: Vec<u64> = ids
                .iter()
                .map(|id| {
                    let d = pool.digest(*id);
                    digest_ids.entry(d).or_insert(*id);
                    d
                })
                .collect();
            items.push(WorkItem {
                uniform,
                digests,
                noise_seed: p.noise_seed,
            });
        }
        let mut attempts = 0u32;
        loop {
            if slot.transport.is_none() {
                match (self.factory)(w) {
                    Ok(t) => {
                        slot.transport = Some(t);
                        slot.known.clear();
                        self.spawns.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        attempts += 1;
                        assert!(
                            attempts <= RESPAWN_LIMIT,
                            "worker {w} failed to spawn after {RESPAWN_LIMIT} attempts: {e}"
                        );
                        continue;
                    }
                }
            }
            let defs: Vec<(u64, Vec<u8>)> = digest_ids
                .iter()
                .filter(|(d, _)| !slot.known.contains(*d))
                .map(|(d, id)| (*d, pool.get(*id).values().to_vec()))
                .collect();
            let batch = Message::Work(WorkBatch {
                seq,
                timeout_ref_bits,
                defs,
                items: items.clone(),
            });
            let frame = encode_frame(&encode_message(&batch));
            let outcome = slot
                .transport
                .as_mut()
                .expect("transport just ensured")
                .roundtrip(&frame)
                .and_then(|reply| {
                    let (payload, _) = decode_frame(&reply)?;
                    match decode_message(payload)? {
                        Message::Reply(r)
                            if r.seq == seq
                                && r.time_bits.len() == items.len()
                                && r.code_bits.len() == items.len() =>
                        {
                            Ok(r)
                        }
                        Message::Reply(r) => Err(RemoteError::Protocol(format!(
                            "reply for seq {} ({} times, {} codes) to batch seq {seq} ({} items)",
                            r.seq,
                            r.time_bits.len(),
                            r.code_bits.len(),
                            items.len()
                        ))),
                        other => Err(RemoteError::Protocol(format!(
                            "expected reply, got {other:?}"
                        ))),
                    }
                });
            match outcome {
                Ok(reply) => {
                    for d in digest_ids.keys() {
                        slot.known.insert(*d);
                    }
                    self.ledger
                        .lock()
                        .expect("plane ledger poisoned")
                        .add(&reply.ledger);
                    return shard
                        .iter()
                        .map(|(k, _)| *k)
                        .zip(
                            reply
                                .time_bits
                                .iter()
                                .zip(&reply.code_bits)
                                .map(|(t, c)| Score::new(f64::from_bits(*t), f64::from_bits(*c))),
                        )
                        .collect();
                }
                Err(e) => {
                    // A dead or incoherent worker: drop it (its
                    // partial work was never merged, so nothing is
                    // double-counted) and resend to a fresh one.
                    slot.transport = None;
                    slot.known.clear();
                    attempts += 1;
                    assert!(
                        attempts <= RESPAWN_LIMIT,
                        "worker {w} failed batch seq {seq} after {RESPAWN_LIMIT} respawns: {e}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> WorkBatch {
        WorkBatch {
            seq: 7,
            timeout_ref_bits: 2.5f64.to_bits(),
            defs: vec![(0xABCD, vec![0, 1, 2]), (0x1234, vec![3, 0, 0])],
            items: vec![
                WorkItem {
                    uniform: true,
                    digests: vec![0xABCD],
                    noise_seed: 42,
                },
                WorkItem {
                    uniform: false,
                    digests: vec![0xABCD, 0x1234, 0xABCD],
                    noise_seed: 43,
                },
            ],
        }
    }

    #[test]
    fn every_message_round_trips() {
        let msgs = [
            Message::Hello(HelloSpec {
                workload: "swim".into(),
                arch: "broadwell".into(),
                steps_cap: 5,
                seed: 42,
                fault_seed: 0xFA17,
                fault_compile: 0.02,
                fault_crash: 0.01,
                fault_hang: 0.005,
                fault_outlier: 0.01,
                max_retries: 2,
                timeout_factor: 20.0,
                objective: Objective::Weighted { w: 0.25 },
            }),
            Message::HelloAck { modules: 9 },
            Message::Work(sample_batch()),
            Message::Reply(BatchReply {
                seq: 7,
                time_bits: vec![1.5f64.to_bits(), f64::INFINITY.to_bits()],
                code_bits: vec![4096.0f64.to_bits(), f64::INFINITY.to_bits()],
                ledger: LedgerDelta {
                    runs: 3,
                    machine_nanos: 1_000_000,
                    ok_runs: 2,
                    timeouts: 1,
                    ..LedgerDelta::default()
                },
            }),
            Message::Shutdown,
        ];
        for msg in &msgs {
            let payload = encode_message(msg);
            assert_eq!(&decode_message(&payload).unwrap(), msg);
            let framed = encode_frame(&payload);
            let (got, consumed) = decode_frame(&framed).unwrap();
            assert_eq!(got, payload.as_slice());
            assert_eq!(consumed, framed.len());
        }
    }

    #[test]
    fn infinity_survives_the_wire() {
        let reply = Message::Reply(BatchReply {
            seq: 0,
            time_bits: vec![f64::INFINITY.to_bits(), (-0.0f64).to_bits()],
            code_bits: vec![f64::INFINITY.to_bits(), 0.0f64.to_bits()],
            ledger: LedgerDelta::default(),
        });
        match decode_message(&encode_message(&reply)).unwrap() {
            Message::Reply(r) => {
                assert_eq!(f64::from_bits(r.time_bits[0]), f64::INFINITY);
                assert!(f64::from_bits(r.time_bits[1]).is_sign_negative());
            }
            other => panic!("expected reply, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let payload = encode_message(&Message::Work(sample_batch()));
        for cut in 0..payload.len() {
            match decode_message(&payload[..cut]) {
                Err(WireError::Truncated { .. }) | Err(WireError::BadValue(_)) => {}
                Ok(m) => panic!("cut at {cut} silently decoded: {m:?}"),
                Err(e) => panic!("cut at {cut}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn hello_version_skew_is_a_typed_version_error() {
        // A hello from a peer one protocol revision ahead: the version
        // check fires before any other field is read, so a 16-byte
        // payload suffices.
        let mut payload = Vec::new();
        crate::canonical::write_u64(&mut payload, MSG_HELLO);
        crate::canonical::write_u64(&mut payload, PROTOCOL_VERSION + 1);
        assert_eq!(
            decode_message(&payload),
            Err(WireError::Version {
                found: PROTOCOL_VERSION + 1,
                supported: PROTOCOL_VERSION,
            })
        );
    }

    #[test]
    fn pre_objective_hello_is_refused_with_a_typed_version_error() {
        // A v1 hello (the pre-objective wire format) never decodes to a
        // defaulted objective: the version gate fires first, typed.
        let mut payload = Vec::new();
        crate::canonical::write_u64(&mut payload, MSG_HELLO);
        crate::canonical::write_u64(&mut payload, 1);
        crate::canonical::write_bytes(&mut payload, b"swim");
        crate::canonical::write_bytes(&mut payload, b"broadwell");
        assert_eq!(
            decode_message(&payload),
            Err(WireError::Version {
                found: 1,
                supported: PROTOCOL_VERSION,
            })
        );
    }

    #[test]
    fn hello_with_a_bad_objective_word_is_refused() {
        let spec = HelloSpec {
            workload: "swim".into(),
            arch: "broadwell".into(),
            steps_cap: 5,
            seed: 42,
            fault_seed: 0,
            fault_compile: 0.0,
            fault_crash: 0.0,
            fault_hang: 0.0,
            fault_outlier: 0.0,
            max_retries: 2,
            timeout_factor: 20.0,
            objective: Objective::Time,
        };
        let mut payload = encode_message(&Message::Hello(spec));
        // The objective word is the final 16 bytes: tag u64 + weight
        // f64 bits. Forge an unknown tag, then an out-of-range weight.
        let tag_at = payload.len() - 16;
        payload[tag_at..tag_at + 8].copy_from_slice(&99u64.to_le_bytes());
        assert_eq!(
            decode_message(&payload),
            Err(WireError::BadValue("unknown objective tag"))
        );
        payload[tag_at..tag_at + 8].copy_from_slice(&2u64.to_le_bytes());
        payload[tag_at + 8..].copy_from_slice(&7.5f64.to_bits().to_le_bytes());
        assert_eq!(
            decode_message(&payload),
            Err(WireError::BadValue("objective weight outside [0, 1]"))
        );
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut payload = encode_message(&Message::Shutdown);
        payload.push(0);
        assert_eq!(
            decode_message(&payload),
            Err(WireError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn frame_crc_catches_payload_damage() {
        let payload = encode_message(&Message::HelloAck { modules: 3 });
        let mut framed = encode_frame(&payload);
        let last = framed.len() - 1;
        framed[last] ^= 0x40;
        assert_eq!(decode_frame(&framed).unwrap_err(), FrameError::CrcMismatch);
    }

    #[test]
    fn frame_stream_decodes_to_a_prefix() {
        let a = encode_frame(&encode_message(&Message::Shutdown));
        let b = encode_frame(&encode_message(&Message::HelloAck { modules: 1 }));
        let mut stream = [a.clone(), b.clone()].concat();
        let (all, tail) = decode_frames(&stream);
        assert_eq!(all.len(), 2);
        assert_eq!(tail, None);
        stream.truncate(a.len() + b.len() - 3);
        let (prefix, tail) = decode_frames(&stream);
        assert_eq!(prefix.len(), 1);
        assert_eq!(tail, Some(FrameError::LengthOverrun));
    }

    #[test]
    fn the_stream_reader_refuses_an_insane_length_before_allocation() {
        let mut header = u32::MAX.to_le_bytes().to_vec();
        header.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &header[..]),
            Err(RemoteError::Frame(FrameError::LengthInsane))
        ));
    }

    #[test]
    fn insane_length_is_refused_before_allocation() {
        let mut framed = encode_frame(&[1, 2, 3]);
        framed[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&framed).unwrap_err(), FrameError::LengthInsane);
    }

    #[test]
    fn ledger_delta_since_inverts_accumulation() {
        let a = LedgerDelta {
            runs: 10,
            machine_nanos: 500,
            ok_runs: 8,
            crashes: 1,
            timeouts: 1,
            ..LedgerDelta::default()
        };
        let b = LedgerDelta {
            runs: 25,
            machine_nanos: 1_500,
            ok_runs: 20,
            crashes: 3,
            timeouts: 2,
            ..LedgerDelta::default()
        };
        let d = b.since(&a);
        assert_eq!(d.runs, 15);
        assert_eq!(d.machine_nanos, 1_000);
        assert_eq!(d.ok_runs + d.crashes + d.timeouts, d.runs);
    }
}
