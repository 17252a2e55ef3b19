//! `ftbench`: the end-to-end and per-layer benchmark of FuncyTuner
//! campaigns. See `README.md` beside this file for the metrics, the
//! workloads and why each was chosen.
//!
//! ```text
//! ftbench run   --workload <name|all> --seed <u64> --json FILE [--seconds N]
//! ftbench trace --workload <name|all> --seed <u64> --json FILE [--seconds N]
//! ftbench compare A.json… -- B.json…
//! ftbench --workload <name> --seed <u64> --seconds <N> --trace <0|1> [--json FILE]
//! ```
//!
//! `run` and `trace` measure each workload in a child process of its
//! own (the last form above, which prints one JSON result line) and
//! merge the children's records into `FILE`.

mod compare;
mod gate;
mod json;
mod layers;
mod measure;
mod stats;
mod trace;
mod workload;

use json::Json;
use measure::END_TO_END;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use trace::PER_LAYER;
use workload::{Kind, Scale};

const USAGE: &str = "usage:
  ftbench run   --workload <name|all> --seed <u64> --json FILE [--seconds N]
  ftbench trace --workload <name|all> --seed <u64> --json FILE [--seconds N]
  ftbench compare A.json... -- B.json...
  ftbench --workload <name> --seed <u64> --seconds <N> --trace <0|1> [--json FILE]
workloads: campaign faulted supervised workers daemon";

/// Measured seconds per workload when `--seconds` is not given; the
/// same as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ftbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs a command; `Ok(false)` means it ran but a check failed.
fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => suite(false, &args[1..]),
        Some("trace") => suite(true, &args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some(flag) if flag.starts_with("--") => single(args),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".into()),
    }
}

/// `--key value` options; every key must be one of `known`.
struct Options(Vec<(String, String)>);

impl Options {
    fn parse(args: &[String], known: &[&str]) -> Result<Options, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .filter(|k| known.contains(k))
                .ok_or_else(|| format!("unknown argument {flag:?}"))?;
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(format!("--{key} given twice"));
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Options(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn seed(&self) -> Result<u64, String> {
        let s = self.required("seed")?;
        s.parse().map_err(|_| format!("--seed {s:?} is not a u64"))
    }

    fn seconds(&self) -> Result<f64, String> {
        match self.get("seconds") {
            None => Ok(DEFAULT_SECONDS),
            Some(s) => match s.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
                _ => Err(format!("--seconds {s:?} is not a non-negative number")),
            },
        }
    }
}

fn workload(name: &str) -> Result<Kind, String> {
    Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process: prints the result line last.
fn single(args: &[String]) -> Result<bool, String> {
    let o = Options::parse(args, &["workload", "seed", "seconds", "trace", "json"])?;
    let kind = workload(o.required("workload")?)?;
    let (seed, seconds) = (o.seed()?, o.seconds()?);
    let traced = match o.required("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} must be 0 or 1")),
    };
    let measured = measure::one_thread(|| {
        if traced {
            trace::trace(kind, seed, seconds, Scale::FULL)
        } else {
            measure::run(kind, seed, seconds, Scale::FULL)
        }
    });
    let record = match measured {
        Ok(r) => r,
        Err(e) => {
            // A failed gate or set-up prints no result.
            eprintln!("ftbench: {}: {e}", kind.name());
            return Ok(false);
        }
    };
    if let Some(path) = o.get("json") {
        write(Path::new(path), &record.to_json())?;
    }
    let names: &[&str] = if traced { &PER_LAYER } else { &END_TO_END };
    println!("{}", record.line(names));
    Ok(record.correct())
}

/// `run`/`trace` over one or all workloads, each in a child process.
fn suite(traced: bool, args: &[String]) -> Result<bool, String> {
    let o = Options::parse(args, &["workload", "seed", "seconds", "json"])?;
    let kinds = match o.required("workload")? {
        "all" => Kind::ALL.to_vec(),
        name => vec![workload(name)?],
    };
    let (seed, seconds) = (o.seed()?, o.seconds()?);
    let out = Path::new(o.required("json")?);
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut records = Vec::new();
    let mut ok = true;
    for kind in kinds {
        let part = out.with_extension(format!("{}.ftbench-part", kind.name()));
        eprintln!("ftbench: measuring {} ...", kind.name());
        let status = Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--json")
            .arg(&part)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawning the {} child: {e}", kind.name()))?;
        let record = std::fs::read_to_string(&part)
            .ok()
            .and_then(|text| json::parse(&text).ok());
        let _ = std::fs::remove_file(&part);
        match record {
            Some(r) => records.push(r),
            None => eprintln!("ftbench: {} produced no record", kind.name()),
        }
        ok &= status.success();
    }
    summarize(&records);
    let doc = Json::obj([
        ("ftbench", Json::from(if traced { "trace" } else { "run" })),
        ("seed", Json::Str(seed.to_string())),
        ("seconds", Json::from(seconds)),
        ("workloads", Json::Arr(records)),
    ]);
    write(out, &doc)?;
    Ok(ok)
}

/// Every metric of every record, by name with its unit.
fn summarize(records: &[Json]) {
    for r in records {
        let name = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        let verdict = match (r.get("correct"), r.get("failed").and_then(Json::as_f64)) {
            (Some(Json::Bool(true)), _) => "correct".to_string(),
            (_, Some(f)) => format!("INCORRECT: {f} failed"),
            _ => "INCORRECT".to_string(),
        };
        println!("{name} ({verdict})");
        for (metric, m) in r.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {metric:<28} {value:>14.6} {unit}");
        }
    }
}

/// Cross-checks of the record builders against `BENCHMARK.json`, and a
/// smoke run of every workload through gate, timing and JSON at a tiny
/// scale.
#[cfg(test)]
mod tests {
    use super::*;
    use measure::Record;

    fn benchmark() -> Json {
        json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap()
    }

    fn names(key: &str) -> Vec<String> {
        benchmark()
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let workloads: Vec<String> = names("workloads");
        assert_eq!(workloads, Kind::ALL.map(|k| k.name()));
        let seconds = benchmark().get("run_seconds").and_then(Json::as_f64);
        assert_eq!(seconds, Some(DEFAULT_SECONDS));
    }

    fn check_line(record: &Record, names: &[&str]) {
        assert!(record.correct(), "{record:?}");
        let line = json::parse(&record.line(names).to_string()).unwrap();
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(printed, names, "{}", record.workload.name());
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{name} = {m}");
        }
        json::parse(&record.to_json().to_string()).unwrap();
    }

    #[test]
    fn every_workload_runs_gated_timed_and_serialized() {
        for kind in Kind::ALL {
            let record = measure::run(kind, 7, 0.0, Scale::TINY).unwrap();
            check_line(&record, &END_TO_END);
            assert!(record.value("latency_s.p50").unwrap() > 0.0);
        }
    }

    #[test]
    fn every_workload_traces_every_per_layer_metric() {
        for kind in Kind::ALL {
            let record = trace::trace(kind, 7, 0.0, Scale::TINY).unwrap();
            check_line(&record, &PER_LAYER);
        }
    }
}
