//! `ftbench run`: the end-to-end metrics of one workload, untraced,
//! and the record every command writes.

use crate::gate;
use crate::json::Json;
use crate::layers::cold_start;
use crate::stats::{geomean, median, percentile};
use crate::workload::{run_op, Check, Env, Kind, Scale, Scratch};
use std::time::Instant;

/// The end-to-end metrics with a regression bound, as `BENCHMARK.json`
/// lists them. `latency_s.p90` is recorded beside them but carries no
/// bound: on a shared two-core machine its run-to-run spread reaches
/// the widest bound the benchmark may set (see `README.md`).
pub const END_TO_END: [&str; 5] = [
    "latency_s.p50",
    "campaigns_per_s",
    "setup_s",
    "peak_rss_mb",
    "tuned_speedup",
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// One workload's result under one command.
#[derive(Debug)]
pub struct Record {
    pub workload: Kind,
    pub command: &'static str,
    pub seed: u64,
    pub seconds: f64,
    /// Campaigns attempted (a daemon population counts each tenant).
    pub attempted: u64,
    /// Campaigns that errored, did not finish, or digested wrong.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sample counts and, for `trace`, the recorded spans.
    pub detail: Vec<(&'static str, Json)>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Json {
        Json::obj(metrics.map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
            )
        }))
    }

    /// The one-line result: `correct`, `attempted`, `failed`, and
    /// exactly the metrics named in `names`.
    pub fn line(&self, names: &[&str]) -> Json {
        let picked = names
            .iter()
            .filter_map(|n| self.metrics.iter().find(|m| m.name == *n));
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Record::metrics_json(picked)),
        ])
    }

    /// Everything the record holds, for the `--json` files.
    pub fn to_json(&self) -> Json {
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        let mut pairs = vec![
            ("workload", Json::from(self.workload.name())),
            ("command", Json::from(self.command)),
            ("seed", Json::Str(self.seed.to_string())),
            ("seconds", Json::from(self.seconds)),
            ("cpus", Json::from(cpus)),
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Record::metrics_json(self.metrics.iter())),
        ];
        pairs.extend(self.detail.iter().cloned());
        Json::obj(pairs)
    }
}

/// Every campaign a measurement attempted, to be checked against the
/// references.
#[derive(Debug, Default)]
pub struct Tally {
    pub checks: Vec<Check>,
}

impl Tally {
    /// The record's `(attempted, failed)`; needs the references.
    pub fn counts(&self, env: &Env) -> (u64, u64) {
        (self.checks.len() as u64, env.failures(&self.checks))
    }
}

/// Runs `f` with the library's data-parallel loops bounded to the
/// calling thread. The load is then one busy thread per thread the
/// library itself starts (two shard threads for `workers`, two
/// executor threads for `daemon`), and run-to-run noise drops: the
/// vendored rayon shim spawns fresh OS threads for every parallel call
/// otherwise, and their start-up cost and allocator arenas vary with
/// the machine's load.
pub fn one_thread<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim's pool builder is infallible")
        .install(f)
}

/// Builds the workload after the gate passes.
pub fn prepare(kind: Kind, seed: u64, scale: Scale) -> Result<Env, String> {
    let scratch = Scratch::new()?;
    gate::check(&scratch)?;
    Env::new(kind, seed, scale, scratch)
}

/// Runs `scale.warmup` operations whose timings are discarded (their
/// correctness still counts).
pub fn warm_up(env: &Env, tally: &mut Tally) {
    for n in 0..env.scale.warmup {
        tally.checks.extend(run_op(env, n).checks);
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the peak covers the
/// timed loop and not the gate before it.
fn reset_peak_rss() {
    // Linux-only; elsewhere the peak simply covers the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The untraced measurement: warm-up, then a closed loop of timed
/// operations for `seconds` (at least one), with one cold start before
/// each so `setup_s` samples the same stretch of time as the latencies.
/// The references, and so the checks, come after the loop: their
/// overlapped schedule runs phases on several threads, whose memory
/// must not count in the loop's peak.
pub fn run(kind: Kind, seed: u64, seconds: f64, scale: Scale) -> Result<Record, String> {
    let mut env = prepare(kind, seed, scale)?;
    let mut tally = Tally::default();
    warm_up(&env, &mut tally);

    let (mut latencies, mut setup) = (Vec::new(), Vec::new());
    let mut n = scale.warmup;
    reset_peak_rss();
    let t0 = Instant::now();
    loop {
        setup.push(cold_start(&env, n % env.seeds.len())?);
        let out = run_op(&env, n);
        n += 1;
        tally.checks.extend(out.checks);
        latencies.extend(out.latencies);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64() - setup.iter().sum::<f64>();
    let peak = peak_rss_mb();
    while setup.len() < scale.cold_starts {
        setup.push(cold_start(&env, setup.len() % env.seeds.len())?);
    }
    env.compute_references();
    let (attempted, failed) = tally.counts(&env);
    let speedups: Vec<f64> = env.refs.iter().map(|r| r.speedup).collect();
    let samples = latencies.len();
    Ok(Record {
        workload: kind,
        command: "run",
        seed,
        seconds,
        attempted,
        failed,
        metrics: vec![
            metric("latency_s.p50", median(&latencies), "s"),
            metric("latency_s.p90", percentile(&latencies, 90.0), "s"),
            metric("campaigns_per_s", samples as f64 / wall, "1/s"),
            metric("setup_s", median(&setup), "s"),
            metric("peak_rss_mb", peak, "MiB"),
            metric("tuned_speedup", geomean(&speedups), "x"),
        ],
        detail: vec![
            ("latency_samples", Json::from(samples as u64)),
            (
                "samples_beyond_p90",
                Json::from((samples - (0.9 * samples as f64).ceil() as usize) as u64),
            ),
            ("operations", Json::from((n - scale.warmup) as u64)),
            ("wall_s", Json::from(wall)),
            ("cold_starts", Json::from(setup.len() as u64)),
        ],
    })
}
