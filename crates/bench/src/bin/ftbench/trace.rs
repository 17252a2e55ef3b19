//! `ftbench trace`: the per-layer split of one workload.
//!
//! Each cycle runs one untraced timed operation and then its traced
//! counterpart, so the tracing overhead and the time no span covers
//! come from the same run. The counterpart is the phase [`replay`] for
//! the campaign workloads; the supervised workload also runs the real
//! `Supervisor` (segments read off its factory calls) and a replay of
//! its segment loop (checkpoint and WAL calls); the daemon workload
//! reads its timeline off `on_event`. Unit costs of the layer entry
//! points come from probes on the workload's own program; the
//! `*.est_s` metrics multiply them by the campaign's exact counts.

use crate::json::Json;
use crate::layers::{replay, RemoteStats, Replay, Span, Tracer, PHASES};
use crate::measure::{metric, prepare, warm_up, Metric, Record, Tally};
use crate::stats::median;
use crate::workload::{population, remove, run_op, Check, Env, Kind, Population, Scale};
use ft_caliper::Caliper;
use ft_compiler::ObjectCache;
use ft_core::remote::{decode_message, encode_message};
use ft_core::supervisor::{default_segments, CampaignRecord};
use ft_core::{
    decode_frame, encode_frame, CampaignCheckpoint, Journal, Message, Phase, ProgressEvent,
    Supervisor, WorkBatch, WorkItem,
};
use ft_flags::rng::rng_for;
use ft_flags::CvPool;
use ft_machine::{execute_batch_total, execute_profiled, execute_total, link, ExecOptions};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics every workload reports, as `BENCHMARK.json`
/// lists them. Layer-specific totals (supervisor, remote plane,
/// daemon) are added on their own workload only.
pub const PER_LAYER: [&str; 41] = [
    "instantiate.s",
    "outline.s",
    "ctx_build.s",
    "baseline.s",
    "phase.collect.s",
    "phase.random.s",
    "phase.fr.s",
    "phase.greedy.s",
    "phase.cfr.s",
    "canonical.s",
    "teardown.s",
    "unattributed.s",
    "compile.est_s",
    "link.est_s",
    "execute.est_s",
    "driver.residual_s",
    "compile.module_us",
    "cache.object_miss_us",
    "cache.object_hit_us",
    "link.program_us",
    "execute.batch_lane_us",
    "execute.scalar_us",
    "execute.profiled_us",
    "checkpoint.encode_us",
    "checkpoint.decode_us",
    "journal.append_us",
    "remote.codec_us",
    "compile.objects",
    "compile.reuse_ratio",
    "link.programs",
    "link.reuse_ratio",
    "ledger.runs",
    "ledger.machine_s",
    "baseline.calls",
    "fault.compile_failures",
    "fault.crashes",
    "fault.timeouts",
    "fault.retries",
    "fault.quarantined",
    "fault.ok_ratio",
    "trace.overhead_frac",
];

/// Operations whose spans the `--json` file keeps (all spans stay in
/// memory for the metrics; the file carries a readable sample).
const SPAN_OPS_WRITTEN: u64 = 4;

/// Unit costs of the layer entry points, microseconds per call.
#[derive(Debug, Clone, Copy)]
struct Units {
    compile: f64,
    object_miss: f64,
    object_hit: f64,
    link: f64,
    batch_lane: f64,
    scalar: f64,
    profiled: f64,
    ckpt_encode: f64,
    ckpt_decode: f64,
    append: f64,
    codec: f64,
}

/// Median over three repetitions of `f`, which returns seconds per
/// call; reported in microseconds.
fn unit_us(mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let reps = [f()?, f()?, f()?];
    Ok(median(&reps) * 1e6)
}

/// Seconds per call of `calls` calls made by `f`.
fn per_call(calls: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() / calls.max(1) as f64
}

/// Probes each layer's public entry point on the workload's own
/// program: 64 CVs sampled from its flag space, every module.
fn probe(env: &Env) -> Result<Units, String> {
    let mut scratch_tracer = Tracer::new();
    let prefix = crate::layers::Prefix::build(env, 0, &mut scratch_tracer, None);
    let ctx = &prefix.ctx;
    let (ir, arch, compiler) = (&ctx.ir, &ctx.arch, &ctx.compiler);
    let cvs = ctx
        .space()
        .sample_many(64, &mut rng_for(env.seeds[0], "ftbench-probe"));
    let pairs = cvs.len() * ir.modules.len();
    let compile_all = || {
        for cv in &cvs {
            for m in &ir.modules {
                black_box(compiler.compile_module(m, cv));
            }
        }
    };
    let compile = unit_us(|| Ok(per_call(pairs, compile_all)))?;
    let mut hit = Vec::new();
    let object_miss = unit_us(|| {
        let cache = ObjectCache::new();
        let lookup_all = || {
            for cv in &cvs {
                for m in &ir.modules {
                    black_box(cache.compile_arc(compiler, m, cv));
                }
            }
        };
        let miss = per_call(pairs, lookup_all);
        hit.push(per_call(pairs, lookup_all));
        Ok(miss)
    })?;
    let object_hit = median(&hit) * 1e6;

    let objects: Vec<Vec<_>> = cvs
        .iter()
        .map(|cv| {
            ir.modules
                .iter()
                .map(|m| compiler.compile_module(m, cv))
                .collect()
        })
        .collect();
    let link_us = unit_us(|| {
        let inputs = objects.clone();
        Ok(per_call(inputs.len(), || {
            for objs in inputs {
                black_box(link(objs, ir, arch));
            }
        }))
    })?;
    let linked: Vec<_> = objects.into_iter().map(|o| link(o, ir, arch)).collect();
    let scalar = unit_us(|| {
        Ok(per_call(linked.len(), || {
            for (k, l) in linked.iter().enumerate() {
                black_box(execute_total(
                    l,
                    arch,
                    &ExecOptions::new(ctx.steps, k as u64),
                ));
            }
        }))
    })?;
    let lanes: Vec<_> = linked.iter().zip(0u64..).collect();
    let batch_lane = unit_us(|| {
        Ok(per_call(lanes.len(), || {
            black_box(execute_batch_total(ctx.batch_plan(), &lanes));
        }))
    })?;
    // Collection's per-candidate path: a fresh Caliper session, one
    // instrumented run, a snapshot.
    let profiled = unit_us(|| {
        Ok(per_call(linked.len(), || {
            for (k, l) in linked.iter().enumerate() {
                let caliper = Caliper::real_time();
                let opts = ExecOptions::instrumented(ctx.steps, k as u64);
                black_box(execute_profiled(l, arch, &opts, &caliper));
                black_box(caliper.snapshot());
            }
        }))
    })?;

    // A whole campaign's final checkpoint: the largest record a WAL
    // holds.
    let checkpoint: CampaignCheckpoint = env.tuner(0).run_until_phases(&Phase::ALL);
    let encode = || {
        CampaignRecord::checkpoint(checkpoint.clone(), 1)
            .to_bytes()
            .map_err(|e| e.to_string())
    };
    let payload = encode()?;
    let ckpt_encode = unit_us(|| {
        let t0 = Instant::now();
        black_box(encode()?);
        Ok(t0.elapsed().as_secs_f64())
    })?;
    let ckpt_decode = unit_us(|| {
        let t0 = Instant::now();
        black_box(CampaignRecord::from_bytes(&payload).map_err(|e| e.to_string())?);
        Ok(t0.elapsed().as_secs_f64())
    })?;
    let wal = env.scratch.path("probe");
    let append = unit_us(|| {
        let mut journal = Journal::create(&wal).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        for _ in 0..4 {
            journal.append(&payload).map_err(|e| e.to_string())?;
        }
        Ok(t0.elapsed().as_secs_f64() / 4.0)
    });
    remove(&wal);
    let append = append?;

    // A first work batch to one worker: every CV definition plus 64
    // per-loop candidates, framed, unframed and decoded.
    let pool = CvPool::new();
    let ids = pool.intern_all(&cvs);
    let modules = ir.modules.len();
    let batch = Message::Work(WorkBatch {
        seq: 1,
        timeout_ref_bits: prefix.baseline.to_bits(),
        defs: ids
            .iter()
            .map(|id| (pool.digest(*id), pool.get(*id).values().to_vec()))
            .collect(),
        items: (0..ids.len())
            .map(|k| WorkItem {
                uniform: false,
                digests: (0..modules)
                    .map(|j| pool.digest(ids[(k + j) % ids.len()]))
                    .collect(),
                noise_seed: k as u64,
            })
            .collect(),
    });
    let codec = unit_us(|| {
        let t0 = Instant::now();
        let frame = encode_frame(&encode_message(&batch));
        let (payload, _) = decode_frame(&frame).map_err(|e| e.to_string())?;
        black_box(decode_message(payload).map_err(|e| e.to_string())?);
        Ok(t0.elapsed().as_secs_f64())
    })?;

    Ok(Units {
        compile,
        object_miss,
        object_hit,
        link: link_us,
        batch_lane,
        scalar,
        profiled,
        ckpt_encode,
        ckpt_decode,
        append,
        codec,
    })
}

/// A closed root span with its direct children's self times summed by
/// name, and how much of the root the children cover.
struct RootView {
    covered: f64,
    by_name: HashMap<&'static str, f64>,
    children: Vec<usize>,
}

/// Length of the union of `intervals`.
fn coverage(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, f64::NEG_INFINITY);
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Every root named `name`, with its children's self times (a span's
/// duration minus what its own children cover).
fn roots(spans: &[Span], name: &str) -> Vec<RootView> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let covered = |i: usize| {
        coverage(
            children[i]
                .iter()
                .map(|&c| (spans[c].start, spans[c].end))
                .collect(),
        )
    };
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name == name)
        .map(|(r, _)| {
            let mut by_name = HashMap::new();
            for &c in &children[r] {
                *by_name.entry(spans[c].name).or_insert(0.0) += spans[c].duration() - covered(c);
            }
            RootView {
                covered: covered(r),
                by_name,
                children: children[r].clone(),
            }
        })
        .collect()
}

/// Median over roots of one child name's summed self time.
fn child_median(views: &[RootView], name: &str) -> f64 {
    let v: Vec<f64> = views
        .iter()
        .map(|r| r.by_name.get(name).copied().unwrap_or(0.0))
        .collect();
    median(&v)
}

/// Median of a per-item quantity.
fn med<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// What the supervised workload's segment replay produced.
struct SegmentRun {
    digest: u64,
    bytes: u64,
    records: u64,
    compiles: u64,
}

/// Traced counterparts collected over the loop.
#[derive(Default)]
struct Samples {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    replays: Vec<(usize, Replay)>,
    remote: Vec<(usize, Arc<RemoteStats>)>,
    segment_runs: Vec<(usize, SegmentRun)>,
    factory_calls: Vec<f64>,
    populations: Vec<Population>,
}

/// Replays seed `i`'s campaign; its digest is checked like a timed
/// operation's.
fn traced_replay(env: &Env, i: usize, tr: &mut Tracer, s: &mut Samples, tally: &mut Tally) -> f64 {
    let stats = (env.kind == Kind::Workers).then(|| Arc::new(RemoteStats::default()));
    let r = replay(env, i, tr, stats.as_ref());
    tally.checks.push(Check {
        seed: i,
        digest: Some(r.digest),
    });
    if let Some(stats) = stats {
        s.remote.push((s.replays.len(), stats));
    }
    s.replays.push((i, r));
    tr.last_root()
}

/// The real `Supervisor`: its factory is called once per segment and
/// once for the final resume, so the gaps between calls are the
/// segments.
fn traced_supervisor(env: &Env, i: usize, tr: &mut Tracer, s: &mut Samples, tally: &mut Tally) {
    let wal = env.scratch.path("traced-supervisor");
    let calls = RefCell::new(Vec::new());
    let t0 = Instant::now();
    tr.begin_at("supervisor", t0);
    let result = Supervisor::new(&wal, || {
        calls.borrow_mut().push(Instant::now());
        env.tuner(i)
    })
    .run();
    let ran = Instant::now();
    tally.checks.push(match &result {
        Ok(sup) => Check::of(i, &sup.run),
        Err(_) => Check {
            seed: i,
            digest: None,
        },
    });
    let t1 = Instant::now();
    drop(result);
    let end = Instant::now();
    let calls = calls.into_inner();
    for (k, start) in calls.iter().enumerate() {
        match calls.get(k + 1) {
            Some(next) => tr.record("segment", *start, *next),
            None => tr.record("final_resume", *start, ran),
        }
    }
    tr.record("teardown", t1, end);
    tr.end_at(end);
    remove(&wal);
    s.factory_calls.push(calls.len() as f64);
    // The digest check between run and drop is not the workload's.
    s.traced.push((ran - t0 + (end - t1)).as_secs_f64());
}

/// The supervisor's happy path, call by call: a `Tuner` per segment,
/// each checkpoint encoded and appended, the final resume, the done
/// record, compaction.
fn segment_replay(env: &Env, i: usize, tr: &mut Tracer) -> Result<SegmentRun, String> {
    let wal = env.scratch.path("segments");
    let result = segment_calls(env, i, tr, &wal);
    remove(&wal);
    result
}

fn segment_calls(env: &Env, i: usize, tr: &mut Tracer, wal: &Path) -> Result<SegmentRun, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut run = SegmentRun {
        digest: 0,
        bytes: 0,
        records: 0,
        compiles: 0,
    };
    tr.begin("journal.create");
    let mut journal = Journal::create(wal).map_err(|e| err(&e))?;
    tr.end();
    let mut checkpoint = None;
    for segment in default_segments() {
        tr.begin("segment");
        let tuner = env.tuner(i);
        let paused = match checkpoint.take() {
            None => tuner.run_until_phases_costed(&segment),
            Some(cp) => tuner
                .resume_until_phases_costed(cp, &segment)
                .map_err(|e| err(&e))?,
        };
        tr.end();
        run.compiles += paused.cost.object_compiles;
        tr.begin("checkpoint.encode");
        let payload = CampaignRecord::checkpoint(paused.checkpoint.clone(), 1)
            .to_bytes()
            .map_err(|e| err(&e))?;
        tr.end();
        append(tr, &mut journal, &mut run, &payload)?;
        checkpoint = Some(paused.checkpoint);
    }
    let cp = checkpoint.ok_or("empty segment plan")?;
    tr.begin("final_resume");
    let finished = env.tuner(i).resume(cp.clone()).map_err(|e| err(&e))?;
    tr.end();
    run.compiles += finished.ctx.cost().object_compiles;
    tr.begin("canonical");
    let digest = finished.canonical_digest();
    tr.end();
    run.digest = digest;
    tr.begin("checkpoint.encode");
    let payload = CampaignRecord::done(cp, digest, 1)
        .to_bytes()
        .map_err(|e| err(&e))?;
    tr.end();
    append(tr, &mut journal, &mut run, &payload)?;
    tr.begin("journal.compact");
    journal.compact(&[&payload]).map_err(|e| err(&e))?;
    tr.end();
    tr.begin("teardown");
    drop(finished);
    tr.end();
    Ok(run)
}

/// One WAL append (write and fsync) under its span.
fn append(
    tr: &mut Tracer,
    journal: &mut Journal,
    run: &mut SegmentRun,
    payload: &[u8],
) -> Result<(), String> {
    tr.begin("journal.append");
    journal.append(payload).map_err(|e| e.to_string())?;
    tr.end();
    run.bytes += payload.len() as u64;
    run.records += 1;
    Ok(())
}

/// The daemon timeline as spans: admission, each queued tenant's wait,
/// and each tenant's gaps between durable progress points.
fn record_population(tr: &mut Tracer, pop: &Population) {
    tr.begin_at("population", pop.created);
    tr.record("server.admission", pop.created, pop.start);
    let mut names: Vec<&str> = pop.events.iter().map(|(n, _, _)| n.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let mine = pop.events.iter().filter(|(n, _, _)| n == name);
        let mut last = pop.start;
        for (_, event, at) in mine {
            match event {
                ProgressEvent::Enqueued => last = *at,
                ProgressEvent::Promoted => {
                    tr.record("tenant.queued", last, *at);
                    last = *at;
                }
                ProgressEvent::SegmentCommitted { .. } | ProgressEvent::Done { .. } => {
                    tr.record("tenant.segment", last.max(pop.start), *at);
                    last = *at;
                }
                _ => {}
            }
        }
    }
    tr.end_at(pop.end);
}

/// The traced measurement of one workload.
pub fn trace(kind: Kind, seed: u64, seconds: f64, scale: Scale) -> Result<Record, String> {
    let mut env = prepare(kind, seed, scale)?;
    env.compute_references();
    let units = probe(&env)?;
    let mut tally = Tally::default();
    warm_up(&env, &mut tally);

    let mut tr = Tracer::new();
    let mut s = Samples::default();
    let mut n = scale.warmup;
    let t0 = Instant::now();
    loop {
        let i = n % env.seeds.len();
        let out = run_op(&env, n);
        n += 1;
        tally.checks.extend(out.checks);
        s.untraced.extend(out.latencies);
        match kind {
            Kind::Campaign | Kind::Faulted | Kind::Workers => {
                let traced = traced_replay(&env, i, &mut tr, &mut s, &mut tally);
                s.traced.push(traced);
            }
            Kind::Supervised => {
                traced_supervisor(&env, i, &mut tr, &mut s, &mut tally);
                tr.begin("segments");
                let run = segment_replay(&env, i, &mut tr);
                tr.end();
                let digest = run.as_ref().ok().map(|r| r.digest);
                tally.checks.push(Check { seed: i, digest });
                match run {
                    Ok(run) => s.segment_runs.push((i, run)),
                    Err(e) => eprintln!("ftbench: segment replay: {e}"),
                }
                traced_replay(&env, i, &mut tr, &mut s, &mut tally);
            }
            Kind::Daemon => {
                let pop = population(&env);
                tally.checks.extend(pop.outcome.checks.iter().copied());
                record_population(&mut tr, &pop);
                s.traced.extend(pop.outcome.latencies.iter().copied());
                s.populations.push(pop);
                traced_replay(&env, i, &mut tr, &mut s, &mut tally);
            }
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let (attempted, failed) = tally.counts(&env);
    let mut metrics = layer_metrics(&env, &tr, &s, &units);
    metrics.extend(match kind {
        Kind::Supervised => supervised_metrics(&env, &tr, &s),
        Kind::Workers => worker_metrics(&env, &tr, &s),
        Kind::Daemon => daemon_metrics(&env, &tr, &s),
        Kind::Campaign | Kind::Faulted => Vec::new(),
    });
    let spans = tr
        .spans
        .iter()
        .take_while(|sp| sp.op <= SPAN_OPS_WRITTEN)
        .map(|sp| {
            Json::Arr(vec![
                Json::from(sp.name),
                Json::from(sp.start),
                Json::from(sp.end),
                Json::from(sp.parent.map_or(-1.0, |p| p as f64)),
                Json::from(sp.op),
            ])
        })
        .collect();
    Ok(Record {
        workload: kind,
        command: "trace",
        seed,
        seconds,
        attempted,
        failed,
        metrics,
        detail: vec![
            (
                "traced_operations",
                Json::from(tr.spans.iter().filter(|sp| sp.parent.is_none()).count() as u64),
            ),
            ("untraced_samples", Json::from(s.untraced.len() as u64)),
            (
                "span_fields",
                Json::Arr(
                    ["name", "start_s", "end_s", "parent", "op"]
                        .map(Json::from)
                        .to_vec(),
                ),
            ),
            ("spans", Json::Arr(spans)),
        ],
    })
}

/// The metrics every workload reports, from its bare phase replays.
fn layer_metrics(env: &Env, tr: &Tracer, s: &Samples, u: &Units) -> Vec<Metric> {
    let views = roots(&tr.spans, "campaign");
    let mut out: Vec<Metric> = [
        "instantiate",
        "outline",
        "ctx_build",
        "baseline",
        "phase.collect",
        "phase.random",
        "phase.fr",
        "phase.greedy",
        "phase.cfr",
        "canonical",
        "teardown",
    ]
    .iter()
    .map(|name| metric(&format!("{name}.s"), child_median(&views, name), "s"))
    .collect();
    let covered = med(&views, |v| v.covered);
    out.push(metric("unattributed.s", median(&s.untraced) - covered, "s"));

    // Executions per phase go down the path the phase uses: scalar for
    // the baseline, Caliper-profiled for the collection, the lane
    // batch for searches unless faults force per-candidate runs.
    let search = if env.kind == Kind::Faulted {
        u.scalar
    } else {
        u.batch_lane
    };
    let exec_unit = [u.scalar, u.profiled, search, search, search, search];
    let est = |r: &Replay| {
        let c = &r.cost;
        let compile = (c.object_compiles as f64 * u.object_miss
            + c.object_reuses as f64 * u.object_hit)
            * 1e-6;
        let link = c.links as f64 * u.link * 1e-6;
        let exec: f64 = r
            .phase_runs
            .iter()
            .zip(exec_unit)
            .map(|(runs, unit)| *runs as f64 * unit * 1e-6)
            .sum();
        (compile, link, exec)
    };
    let replays: Vec<&Replay> = s.replays.iter().map(|(_, r)| r).collect();
    out.push(metric("compile.est_s", med(&replays, |r| est(r).0), "s"));
    out.push(metric("link.est_s", med(&replays, |r| est(r).1), "s"));
    out.push(metric("execute.est_s", med(&replays, |r| est(r).2), "s"));
    let residuals: Vec<f64> = views
        .iter()
        .zip(&replays)
        .map(|(v, r)| {
            let phases: f64 = PHASES
                .iter()
                .map(|p| v.by_name.get(p).copied().unwrap_or(0.0))
                .sum();
            let (c, l, e) = est(r);
            phases - (c + l + e)
        })
        .collect();
    out.push(metric("driver.residual_s", median(&residuals), "s"));

    for (name, value) in [
        ("compile.module_us", u.compile),
        ("cache.object_miss_us", u.object_miss),
        ("cache.object_hit_us", u.object_hit),
        ("link.program_us", u.link),
        ("execute.batch_lane_us", u.batch_lane),
        ("execute.scalar_us", u.scalar),
        ("execute.profiled_us", u.profiled),
        ("checkpoint.encode_us", u.ckpt_encode),
        ("checkpoint.decode_us", u.ckpt_decode),
        ("journal.append_us", u.append),
        ("remote.codec_us", u.codec),
    ] {
        out.push(metric(name, value, "us"));
    }

    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    let baseline_calls = match env.kind {
        Kind::Supervised => median(&s.factory_calls),
        Kind::Daemon => median(&tenant_segments(s)),
        _ => 1.0,
    };
    let r = &replays;
    let fault = |f: fn(&ft_core::FaultStats) -> u64| med(r, |x| f(&x.faults) as f64);
    out.extend([
        metric(
            "compile.objects",
            med(r, |x| x.cost.object_compiles as f64),
            "count",
        ),
        metric(
            "compile.reuse_ratio",
            med(r, |x| ratio(x.cost.object_reuses, x.cost.object_compiles)),
            "ratio",
        ),
        metric("link.programs", med(r, |x| x.cost.links as f64), "count"),
        metric(
            "link.reuse_ratio",
            med(r, |x| ratio(x.cost.link_reuses, x.cost.links)),
            "ratio",
        ),
        metric("ledger.runs", med(r, |x| x.cost.runs as f64), "count"),
        metric("ledger.machine_s", med(r, |x| x.cost.machine_seconds), "s"),
        metric("baseline.calls", baseline_calls, "count"),
        metric(
            "fault.compile_failures",
            fault(|f| f.compile_failures),
            "count",
        ),
        metric("fault.crashes", fault(|f| f.crashes), "count"),
        metric("fault.timeouts", fault(|f| f.timeouts), "count"),
        metric("fault.retries", fault(|f| f.retries), "count"),
        metric("fault.quarantined", fault(|f| f.quarantined), "count"),
        metric(
            "fault.ok_ratio",
            med(r, |x| x.faults.ok_runs as f64 / x.cost.runs.max(1) as f64),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            median(&s.traced) / median(&s.untraced) - 1.0,
            "ratio",
        ),
    ]);
    out
}

/// Baseline measurements per daemon tenant: one per committed segment
/// plus the final resume.
fn tenant_segments(s: &Samples) -> Vec<f64> {
    let mut per_tenant = Vec::new();
    for pop in &s.populations {
        let mut counts: HashMap<&str, f64> = HashMap::new();
        for (name, event, _) in &pop.events {
            match event {
                ProgressEvent::SegmentCommitted { .. } | ProgressEvent::Done { .. } => {
                    *counts.entry(name.as_str()).or_insert(0.0) += 1.0;
                }
                _ => {}
            }
        }
        per_tenant.extend(counts.into_values());
    }
    per_tenant
}

fn supervised_metrics(env: &Env, tr: &Tracer, s: &Samples) -> Vec<Metric> {
    let sup = roots(&tr.spans, "supervisor");
    let segment_s = |v: &RootView| {
        let segs: Vec<f64> = v
            .children
            .iter()
            .map(|&c| &tr.spans[c])
            .filter(|sp| sp.name == "segment")
            .map(Span::duration)
            .collect();
        segs.iter().sum::<f64>() / segs.len().max(1) as f64
    };
    let replay = roots(&tr.spans, "segments");
    let runs = &s.segment_runs;
    vec![
        metric("supervisor.segments", median(&s.factory_calls), "count"),
        metric("supervisor.segment_s", med(&sup, segment_s), "s"),
        metric(
            "supervisor.final_resume_s",
            child_median(&sup, "final_resume"),
            "s",
        ),
        metric(
            "supervisor.recompile_ratio",
            med(runs, |(i, r)| {
                r.compiles as f64 / env.refs[*i].object_compiles as f64
            }),
            "ratio",
        ),
        metric(
            "checkpoint.encode_s",
            child_median(&replay, "checkpoint.encode"),
            "s",
        ),
        metric("checkpoint.bytes", med(runs, |(_, r)| r.bytes as f64), "B"),
        metric(
            "journal.append_s",
            child_median(&replay, "journal.append"),
            "s",
        ),
        metric(
            "journal.compact_s",
            child_median(&replay, "journal.compact"),
            "s",
        ),
        metric(
            "journal.records",
            med(runs, |(_, r)| r.records as f64),
            "count",
        ),
    ]
}

fn worker_metrics(env: &Env, tr: &Tracer, s: &Samples) -> Vec<Metric> {
    let views = roots(&tr.spans, "campaign");
    let secs = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64 * 1e-9;
    let busy: Vec<f64> = s
        .remote
        .iter()
        .map(|(k, stats)| {
            let search: f64 = PHASES[2..]
                .iter()
                .map(|p| views[*k].by_name.get(p).copied().unwrap_or(0.0))
                .sum();
            secs(&stats.work_ns) / (2.0 * search)
        })
        .collect();
    let replays = &s.replays;
    vec![
        metric(
            "remote.batches",
            med(replays, |(_, r)| r.plane.0 as f64),
            "count",
        ),
        metric(
            "remote.spawns",
            med(replays, |(_, r)| r.plane.1 as f64),
            "count",
        ),
        metric(
            "remote.roundtrip_s",
            med(&s.remote, |(_, st)| secs(&st.roundtrip_ns)),
            "s",
        ),
        metric(
            "remote.worker_eval_s",
            med(&s.remote, |(_, st)| secs(&st.work_ns)),
            "s",
        ),
        metric(
            "remote.codec_s",
            med(&s.remote, |(_, st)| secs(&st.codec_ns)),
            "s",
        ),
        metric(
            "remote.frame_bytes",
            med(&s.remote, |(_, st)| {
                st.frame_bytes.load(Ordering::Relaxed) as f64
            }),
            "B",
        ),
        metric("remote.worker_busy_frac", median(&busy), "ratio"),
        metric(
            "remote.compile_dup_ratio",
            med(replays, |(i, r)| {
                r.cost.object_compiles as f64 / env.refs[*i].object_compiles as f64
            }),
            "ratio",
        ),
    ]
}

fn daemon_metrics(env: &Env, tr: &Tracer, s: &Samples) -> Vec<Metric> {
    let pops = roots(&tr.spans, "population");
    let all = |name: &str| -> Vec<f64> {
        pops.iter()
            .flat_map(|v| v.children.iter().map(|&c| &tr.spans[c]))
            .filter(|sp| sp.name == name)
            .map(Span::duration)
            .collect()
    };
    let tenants = env.tenants();
    let solo = |f: fn(&crate::workload::Reference) -> u64| -> f64 {
        tenants.iter().map(|(_, i)| f(&env.refs[*i]) as f64).sum()
    };
    let (solo_runs, solo_compiles) = (solo(|r| r.runs), solo(|r| r.object_compiles));
    let p = &s.populations;
    vec![
        metric(
            "server.admission_s",
            child_median(&pops, "server.admission"),
            "s",
        ),
        metric(
            "server.queue_wait_s.p50",
            median(&all("tenant.queued")),
            "s",
        ),
        metric(
            "server.segment_gap_s.p50",
            median(&all("tenant.segment")),
            "s",
        ),
        metric(
            "server.rerun_ratio",
            med(p, |x| x.runs as f64 / solo_runs),
            "ratio",
        ),
        metric(
            "store.object_computes",
            med(p, |x| x.store.0 as f64),
            "count",
        ),
        metric("store.object_hits", med(p, |x| x.store.1 as f64), "count"),
        metric("store.link_hits", med(p, |x| x.store.2 as f64), "count"),
        metric(
            "store.dedup_ratio",
            med(p, |x| solo_compiles / x.store.0.max(1) as f64),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            op: 1,
        };
        let spans = [
            span("campaign", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("c", 3.5, 4.5, Some(2)),
            span("a", 8.0, 9.0, Some(0)),
        ];
        let views = roots(&spans, "campaign");
        assert_eq!(views.len(), 1);
        // Children cover [1, 6] and [8, 9].
        assert_eq!(views[0].covered, 6.0);
        // `b` loses its child's second; both `a` spans sum.
        assert_eq!(views[0].by_name["b"], 2.0);
        assert_eq!(views[0].by_name["a"], 4.0);
    }
}
