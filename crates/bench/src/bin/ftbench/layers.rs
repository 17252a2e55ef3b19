//! Calls into each layer's public entry points, one span per call.
//!
//! Spans are recorded here, in the benchmark's own files, around the
//! library's public functions; the library itself is not instrumented.
//! [`replay`] drives a campaign through the same calls, with the same
//! seeds, that `Tuner::run` makes, so its canonical bytes must equal
//! the real run's — that equality is what licenses reading the replay's
//! spans as the campaign's time split.

use crate::workload::{remove, Env, Kind, STEPS_CAP};
use ft_compiler::{Compiler, ProgramIr};
use ft_core::canonical::{write_f64, write_str, write_u64};
use ft_core::remote::{decode_message, encode_message};
use ft_core::{
    cfr, collect, decode_frame, encode_frame, fr_search, greedy, random_search, EvalContext,
    FaultStats, InProcessTransport, Journal, Message, RemoteError, RemotePlane, Transport,
    TuningCost, TuningServer, Worker, WorkerFactory,
};
use ft_flags::rng::derive_seed;
use ft_outline::{outline_with_defaults, HotLoopReport, OutlinedProgram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One timed call: name, start and end (seconds since the tracer
/// started), the enclosing span, and the operation it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span recorder. A span opened with no span open is a
/// root and starts a new operation id.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    pub fn begin(&mut self, name: &'static str) {
        self.begin_at(name, Instant::now());
    }

    /// Opens a span that started at `start` (used for timelines read
    /// from callbacks after the fact).
    pub fn begin_at(&mut self, name: &'static str, start: Instant) {
        if self.stack.is_empty() {
            self.op += 1;
        }
        self.spans.push(Span {
            name,
            start: self.at(start),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        self.end_at(Instant::now());
    }

    pub fn end_at(&mut self, end: Instant) {
        let idx = self.stack.pop().expect("span ended without being begun");
        self.spans[idx].end = self.at(end);
    }

    /// A closed child of the open span, from already-taken timestamps.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.begin_at(name, start);
        self.end_at(end);
    }

    /// Duration of the most recently closed root span.
    pub fn last_root(&self) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.parent.is_none())
            .map_or(f64::NAN, Span::duration)
    }
}

/// The prefix every campaign pays before its first candidate:
/// instantiate, outline, build the evaluation context and its batch
/// plan, measure the `-O3` baseline.
pub struct Prefix {
    pub ctx: EvalContext,
    // Held, like `TuningRun` holds them, so the teardown span drops
    // what a finished run drops.
    #[allow(dead_code)]
    outlined: OutlinedProgram,
    #[allow(dead_code)]
    report: HotLoopReport,
    pub input_name: String,
    pub baseline: f64,
}

impl Prefix {
    /// Runs the prefix of seed `i` as `Tuner::run` does. With `remote`,
    /// the context shards its search batches across two workers behind
    /// [`TimedTransport`]s, as `Tuner::workers(2)` does behind
    /// in-process ones.
    pub fn build(
        env: &Env,
        i: usize,
        tr: &mut Tracer,
        remote: Option<&Arc<RemoteStats>>,
    ) -> Prefix {
        let seed = env.seeds[i];
        tr.begin("instantiate");
        let mut input = env.workload.tuning_input(env.arch.name).clone();
        input.steps = input.steps.min(STEPS_CAP);
        let raw = env.workload.instantiate(&input);
        tr.end();
        tr.begin("outline");
        let compiler = Compiler::icc(env.arch.target);
        let (outlined, report) = outline_with_defaults(
            &raw,
            &compiler,
            &env.arch,
            input.steps,
            derive_seed(seed, "outline"),
        );
        tr.end();
        tr.begin("ctx_build");
        let noise_root = derive_seed(seed, "noise");
        let mut ctx = EvalContext::new(
            outlined.ir.clone(),
            compiler,
            env.arch.clone(),
            input.steps,
            noise_root,
        )
        .with_faults(env.faults(i));
        if let Some(stats) = remote {
            let (ir, steps, stats) = (outlined.ir.clone(), input.steps, stats.clone());
            let arch = env.arch.clone();
            let faults = env.faults(i);
            let factory: WorkerFactory = Arc::new(move |w| {
                let ctx = EvalContext::new(
                    ir.clone(),
                    Compiler::icc(arch.target),
                    arch.clone(),
                    steps,
                    noise_root,
                )
                .with_faults(faults);
                Ok(Box::new(TimedTransport {
                    worker: Worker::new(ctx),
                    worker_index: w,
                    stats: stats.clone(),
                }) as Box<dyn Transport>)
            });
            ctx = ctx.with_remote(Arc::new(RemotePlane::new(2, factory)));
        }
        ctx.batch_plan();
        tr.end();
        tr.begin("baseline");
        let baseline = ctx.baseline_time(10);
        tr.end();
        Prefix {
            ctx,
            outlined,
            report,
            input_name: input.name,
            baseline,
        }
    }
}

/// A worker's evaluation context, built as `Tuner::workers` builds it:
/// same program, noise root and fault model, its own caches.
fn worker_ctx(env: &Env, i: usize, ir: &ProgramIr, steps: u32, noise_root: u64) -> EvalContext {
    EvalContext::new(
        ir.clone(),
        Compiler::icc(env.arch.target),
        env.arch.clone(),
        steps,
        noise_root,
    )
    .with_faults(env.faults(i))
}

/// One cold start of seed `i`: the campaign prefix plus what the
/// workload's own layer adds before its first candidate — the WAL for
/// `supervised`, both workers' HELLO for `workers`, the server and its
/// 16 admissions for `daemon`. Returns seconds.
pub fn cold_start(env: &Env, i: usize) -> Result<f64, String> {
    let mut tr = Tracer::new();
    let path = env.scratch.path("cold");
    let t0 = Instant::now();
    let prefix = Prefix::build(env, i, &mut tr, None);
    let mut server = None;
    match env.kind {
        Kind::Campaign | Kind::Faulted => {}
        Kind::Supervised => {
            Journal::create(&path).map_err(|e| e.to_string())?;
        }
        Kind::Workers => {
            for _ in 0..2 {
                let ctx = &prefix.ctx;
                let wctx = worker_ctx(env, i, &ctx.ir, ctx.steps, ctx.noise_root);
                hello(&mut InProcessTransport::new(wctx), env, i, ctx.modules())?;
            }
        }
        Kind::Daemon => {
            let mut s = TuningServer::new(env.server_config(&path)).map_err(|e| e.to_string())?;
            for (name, j) in env.tenants() {
                s.submit(name, env.spec(j)).map_err(|e| e.to_string())?;
            }
            server = Some(s);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop((prefix, server));
    remove(&path);
    Ok(elapsed)
}

/// The worker handshake: a HELLO frame through the transport, answered
/// by an ack naming the module count.
fn hello(worker: &mut dyn Transport, env: &Env, i: usize, modules: usize) -> Result<(), String> {
    let faults = env.faults(i);
    let resilience = ft_core::ResilienceConfig::default();
    let spec = ft_core::HelloSpec {
        workload: env.workload.meta.name.to_string(),
        arch: env.arch.name.to_string(),
        steps_cap: u64::from(STEPS_CAP),
        seed: env.seeds[i],
        fault_seed: faults.seed,
        fault_compile: faults.compile_failure,
        fault_crash: faults.crash,
        fault_hang: faults.hang,
        fault_outlier: faults.outlier,
        max_retries: u64::from(resilience.max_retries),
        timeout_factor: resilience.timeout_factor,
        objective: ft_core::Objective::Time,
    };
    let reply = worker
        .roundtrip(&encode_frame(&encode_message(&Message::Hello(spec))))
        .map_err(|e| e.to_string())?;
    let (payload, _) = decode_frame(&reply).map_err(|e| e.to_string())?;
    match decode_message(payload) {
        Ok(Message::HelloAck { modules: m }) if m == modules as u64 => Ok(()),
        other => Err(format!("worker answered the hello with {other:?}")),
    }
}

/// Index of each phase in [`Replay::phase_runs`].
pub const PHASES: [&str; 6] = [
    "baseline",
    "phase.collect",
    "phase.random",
    "phase.fr",
    "phase.greedy",
    "phase.cfr",
];

/// What a replayed campaign produced.
pub struct Replay {
    /// `TuningRun::canonical_bytes` of the replay, rebuilt field by
    /// field with the public `write_canonical` encoders.
    #[cfg_attr(not(test), allow(dead_code))]
    pub bytes: Vec<u8>,
    pub digest: u64,
    pub cost: TuningCost,
    pub faults: FaultStats,
    /// Charged runs per phase, in [`PHASES`] order.
    pub phase_runs: [u64; 6],
    /// Remote plane `(batches, spawns)`, zero without a plane.
    pub plane: (u64, u64),
}

/// Replays seed `i`'s campaign through the public phase functions in
/// the serial schedule's order, under a `campaign` root span.
pub fn replay(env: &Env, i: usize, tr: &mut Tracer, remote: Option<&Arc<RemoteStats>>) -> Replay {
    let (budget, focus) = env.size();
    let seed = env.seeds[i];
    tr.begin("campaign");
    let prefix = Prefix::build(env, i, tr, remote);
    let ctx = &prefix.ctx;
    let mut runs = [ctx.cost().runs, 0, 0, 0, 0, 0];
    let [_, r_collect, r_random, r_fr, r_greedy, r_cfr] = &mut runs;
    let data = phase(tr, ctx, 1, r_collect, || {
        collect(ctx, budget, derive_seed(seed, "collect"))
    });
    let random = phase(tr, ctx, 2, r_random, || {
        random_search(ctx, budget, derive_seed(seed, "random"))
    });
    let fr = phase(tr, ctx, 3, r_fr, || {
        fr_search(ctx, budget, derive_seed(seed, "fr"))
    });
    let g = phase(tr, ctx, 4, r_greedy, || greedy(ctx, &data, prefix.baseline));
    let best = phase(tr, ctx, 5, r_cfr, || {
        cfr(ctx, &data, focus, budget, derive_seed(seed, "cfr"))
    });

    tr.begin("canonical");
    let mut bytes = Vec::new();
    write_str(&mut bytes, env.workload.meta.name);
    write_str(&mut bytes, env.arch.name);
    write_str(&mut bytes, &prefix.input_name);
    write_u64(&mut bytes, seed);
    write_f64(&mut bytes, prefix.baseline);
    data.write_canonical(&mut bytes);
    random.write_canonical(&mut bytes);
    fr.write_canonical(&mut bytes);
    g.write_canonical(&mut bytes);
    best.write_canonical(&mut bytes);
    let digest = ft_core::canonical::digest(&bytes);
    tr.end();

    let (cost, faults) = (ctx.cost(), ctx.fault_stats());
    let plane = ctx
        .remote_plane()
        .map_or((0, 0), |p| (p.batches(), p.spawns()));
    tr.begin("teardown");
    drop((prefix, data, random, fr, g, best));
    tr.end();
    tr.end();
    Replay {
        bytes,
        digest,
        cost,
        faults,
        phase_runs: runs,
        plane,
    }
}

/// One phase call under its span, with the runs it charged.
fn phase<R>(
    tr: &mut Tracer,
    ctx: &EvalContext,
    k: usize,
    runs: &mut u64,
    call: impl FnOnce() -> R,
) -> R {
    let before = ctx.cost().runs;
    tr.begin(PHASES[k]);
    let out = call();
    tr.end();
    *runs = ctx.cost().runs - before;
    out
}

/// Worker-side wire counters of one replay, summed over both workers.
#[derive(Debug, Default)]
pub struct RemoteStats {
    /// Inside `Transport::roundtrip`: decode, work, encode.
    pub roundtrip_ns: AtomicU64,
    /// `decode_frame` + `decode_message` + `encode_message` +
    /// `encode_frame`.
    pub codec_ns: AtomicU64,
    /// `Worker::work`.
    pub work_ns: AtomicU64,
    /// Request plus reply frame bytes.
    pub frame_bytes: AtomicU64,
}

/// What `InProcessTransport` does, with each step timed: the exact
/// bytes a pipe would carry, decoded, evaluated and re-encoded.
struct TimedTransport {
    worker: Worker,
    worker_index: usize,
    stats: Arc<RemoteStats>,
}

impl Transport for TimedTransport {
    fn roundtrip(&mut self, frame: &[u8]) -> Result<Vec<u8>, RemoteError> {
        let t0 = Instant::now();
        let (payload, _) = decode_frame(frame)?;
        let message = decode_message(payload)?;
        let t1 = Instant::now();
        let reply = match message {
            Message::Work(batch) => Message::Reply(self.worker.work(&batch)?),
            Message::Hello(_) => Message::HelloAck {
                modules: self.worker.modules() as u64,
            },
            other => {
                return Err(RemoteError::Protocol(format!(
                    "worker {} got {other:?}",
                    self.worker_index
                )))
            }
        };
        let t2 = Instant::now();
        let out = encode_frame(&encode_message(&reply));
        let t3 = Instant::now();
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        let s = &self.stats;
        s.roundtrip_ns.fetch_add(ns(t3 - t0), Ordering::Relaxed);
        s.codec_ns
            .fetch_add(ns(t1 - t0) + ns(t3 - t2), Ordering::Relaxed);
        s.work_ns.fetch_add(ns(t2 - t1), Ordering::Relaxed);
        s.frame_bytes
            .fetch_add((frame.len() + out.len()) as u64, Ordering::Relaxed);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scale, Scratch};

    /// The replay rebuilds `Tuner::run()`'s canonical bytes and ledger
    /// exactly — bare, under faults, and sharded (against
    /// `Tuner::workers(2)`) — so its spans split a real campaign.
    #[test]
    fn replay_rebuilds_the_real_runs_canonical_bytes() {
        for kind in [Kind::Campaign, Kind::Faulted, Kind::Workers] {
            let env = Env::new(kind, 11, Scale::TINY, Scratch::new().unwrap()).unwrap();
            for i in 0..env.seeds.len() {
                let stats = (kind == Kind::Workers).then(|| Arc::new(RemoteStats::default()));
                let replayed = replay(&env, i, &mut Tracer::new(), stats.as_ref());
                let tuner = env.tuner(i);
                let real = match kind {
                    Kind::Workers => tuner.workers(2).run(),
                    _ => tuner.run(),
                };
                let what = format!("{} seed {i}", kind.name());
                assert_eq!(replayed.bytes, real.canonical_bytes(), "{what}");
                assert_eq!(replayed.cost, real.ctx.cost(), "{what}");
                if let Some(stats) = stats {
                    assert!(stats.work_ns.load(Ordering::Relaxed) > 0, "{what}");
                    assert_eq!(replayed.plane.1, 2, "{what}: one spawn per worker");
                }
            }
        }
    }
}
