//! `ftbench compare A.json… -- B.json…`: one row per (metric,
//! workload) with each side's median and quartiles, the change in the
//! median, and a verdict against the bound `BENCHMARK.json` fixes for
//! the metric.

use crate::json::{parse, Json};
use crate::stats::{median, quartiles};
use std::path::{Path, PathBuf};

/// An end-to-end metric's regression bound, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The parent's own inter-quartile spread is wider than the bound,
    /// so a change within it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles and median of one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, q3) = quartiles(values);
        Side {
            q1,
            median: median(values),
            q3,
            n: values.len(),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub parent: Side,
    pub change: Side,
    /// Relative change of the median, signed so that positive is worse.
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// The `end_to_end` bounds of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// The nearest `BENCHMARK.json` at or above the working directory.
fn find_benchmark() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    cwd.ancestors()
        .map(|d| d.join("BENCHMARK.json"))
        .find(|p| p.is_file())
        .ok_or_else(|| "no BENCHMARK.json at or above the working directory".to_string())
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every value of `metric` on `workload` across a set of run files.
fn values(files: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| f.get("workloads").and_then(Json::as_arr))
        .flatten()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Workload names in first-seen order.
fn workloads(files: &[Json]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in files
        .iter()
        .filter_map(|f| f.get("workloads").and_then(Json::as_arr))
        .flatten()
    {
        if let Some(w) = r.get("workload").and_then(Json::as_str) {
            if !names.iter().any(|n| n == w) {
                names.push(w.to_string());
            }
        }
    }
    names
}

/// Compares the parent's run files with the change's.
pub fn compare(bounds: &[Bound], parent: &[Json], change: &[Json]) -> Vec<Row> {
    let mut rows = Vec::new();
    for b in bounds {
        for w in workloads(parent) {
            let (pa, ch) = (values(parent, &w, &b.name), values(change, &w, &b.name));
            if pa.is_empty() || ch.is_empty() {
                continue;
            }
            let (p, c) = (Side::of(&pa), Side::of(&ch));
            let sign = if b.higher_is_better { -1.0 } else { 1.0 };
            let worse_by = sign * (c.median - p.median) / p.median.abs();
            let spread = (p.q3 - p.q1) / p.median.abs();
            let better = |x: f64, y: f64| if b.higher_is_better { x > y } else { x < y };
            let all_better = ch.iter().all(|x| pa.iter().all(|y| better(*x, *y)));
            let verdict = if spread > b.bound {
                if all_better {
                    Verdict::Improved
                } else {
                    Verdict::Unresolved
                }
            } else if worse_by > b.bound {
                Verdict::Regressed
            } else if -worse_by > b.bound {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            };
            rows.push(Row {
                metric: b.name.clone(),
                workload: w,
                parent: p,
                change: c,
                worse_by,
                verdict,
            });
        }
    }
    rows
}

fn print(rows: &[Row]) {
    println!(
        "{:<16} {:<11} {:>36} {:>36} {:>8}  verdict",
        "metric", "workload", "parent q1 / median / q3 (n)", "change q1 / median / q3 (n)", "worse"
    );
    let side = |s: &Side| format!("{:.4e} / {:.4e} / {:.4e} ({})", s.q1, s.median, s.q3, s.n);
    for r in rows {
        println!(
            "{:<16} {:<11} {:>36} {:>36} {:>7.2}%  {}",
            r.metric,
            r.workload,
            side(&r.parent),
            side(&r.change),
            // `+ 0.0` prints an exact tie as 0.00, not -0.00.
            100.0 * r.worse_by + 0.0,
            r.verdict.label()
        );
    }
}

/// `compare A.json… -- B.json…`. Fails when any row regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `A.json… -- B.json…`")?;
    let (parent, change) = (&args[..split], &args[split + 1..]);
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs at least one file on each side of `--`".into());
    }
    let read = |files: &[String]| -> Result<Vec<Json>, String> {
        files.iter().map(|f| load(Path::new(f))).collect()
    };
    let bounds = bounds(&load(&find_benchmark()?)?)?;
    let rows = compare(&bounds, &read(parent)?, &read(change)?);
    if rows.is_empty() {
        return Err("no metric appears on both sides".into());
    }
    print(&rows);
    Ok(rows.iter().all(|r| r.verdict != Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multiplies every latency in a run file by `factor`.
    fn slow_down(run: &Json, factor: f64) -> Json {
        match run {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| match (k.as_str(), v) {
                        (name, Json::Obj(_)) if name.starts_with("latency_s.") => {
                            let value = v.get("value").and_then(Json::as_f64).unwrap();
                            (
                                k.clone(),
                                Json::obj([
                                    ("value", Json::from(value * factor)),
                                    ("unit", "s".into()),
                                ]),
                            )
                        }
                        _ => (k.clone(), slow_down(v, factor)),
                    })
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(|i| slow_down(i, factor)).collect()),
            other => other.clone(),
        }
    }

    /// A latency slowdown past the bound regresses, one inside it and
    /// an identical copy read "unchanged", and no other metric moves.
    #[test]
    fn latency_past_its_bound_regresses_and_a_copy_is_unchanged() {
        let benchmark = parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let bounds = bounds(&benchmark).unwrap();
        let bound = bounds
            .iter()
            .find(|b| b.name == "latency_s.p50")
            .unwrap()
            .bound;
        let run = parse(include_str!("runs/set-a/run-1.json")).unwrap();
        let verdicts = |factor: f64| {
            let rows = compare(
                &bounds,
                std::slice::from_ref(&run),
                &[slow_down(&run, factor)],
            );
            assert_eq!(
                rows.len(),
                bounds.len() * 5,
                "every bounded metric on every workload"
            );
            rows
        };

        for r in verdicts(1.0).iter().chain(&verdicts(1.0 + bound - 0.05)) {
            assert_eq!(r.verdict, Verdict::Unchanged, "{r:?}");
        }
        for r in &verdicts(1.0 + bound + 0.05) {
            let expect = if r.metric == "latency_s.p50" {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            };
            assert_eq!(r.verdict, expect, "{r:?}");
        }
    }
}
