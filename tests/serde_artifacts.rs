//! Serialization round-trips for everything the harness persists.

use funcytuner::compiler::CallEdge;
use funcytuner::prelude::*;
use funcytuner::report::{render, Artifact};

#[test]
fn experiment_artifacts_serialize_and_render() {
    let mut cfg = ReproConfig::quick();
    cfg.k = 40;
    cfg.x = 6;
    cfg.opentuner_budget = 30;
    cfg.cobayn_scale = 0.03;
    for id in ["table1", "table2"] {
        let artifact = run_experiment(id, &cfg);
        let json = serde_json::to_string(&artifact).expect("artifact serializes");
        let back: Artifact = serde_json::from_str(&json).expect("artifact deserializes");
        assert_eq!(artifact, back);
        let text = render::render(&back);
        assert!(text.contains(id), "render missing id:\n{text}");
    }
}

#[test]
fn tuning_results_serialize() {
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").unwrap();
    let run = Tuner::new(&w, &arch)
        .budget(40)
        .focus(6)
        .seed(3)
        .cap_steps(3)
        .run();
    let json = serde_json::to_string(&run.cfr).unwrap();
    let back: TuningResult = serde_json::from_str(&json).unwrap();
    // JSON float text round-trips to within one ULP.
    assert!((back.best_time - run.cfr.best_time).abs() < 1e-12);
    assert_eq!(back.assignment, run.cfr.assignment);

    // Collection data round-trips too (it is the expensive artifact a
    // user would want to checkpoint).
    let json = serde_json::to_string(&run.data).unwrap();
    let back: funcytuner::tuning::CollectionData = serde_json::from_str(&json).unwrap();
    assert_eq!(back.k(), run.data.k());
    for (a, b) in back.end_to_end.iter().zip(&run.data.end_to_end) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn hot_loop_report_serializes() {
    let arch = Architecture::broadwell();
    let compiler = Compiler::icc(arch.target);
    let w = workload_by_name("bwaves").unwrap();
    let ir = w.instantiate(w.tuning_input(arch.name));
    let (_outlined, report) = outline_with_defaults(&ir, &compiler, &arch, 3, 5);
    let json = serde_json::to_string(&report).unwrap();
    // Architecture/report names are &'static str, so deserialization
    // needs a leaked (static) buffer — exactly what a checkpoint loader
    // would hold for the process lifetime.
    let json: &'static str = Box::leak(json.into_boxed_str());
    let back: HotLoopReport = serde_json::from_str(json).unwrap();
    assert_eq!(back.hot, report.hot);
    assert_eq!(back.end_to_end_s, report.end_to_end_s);
}

#[test]
fn program_ir_and_architecture_serialize() {
    let w = workload_by_name("LULESH").unwrap();
    let json = serde_json::to_string(&w.ir).unwrap();
    let back: ProgramIr = serde_json::from_str(&json).unwrap();
    assert_eq!(back, w.ir);

    let arch = Architecture::sandy_bridge();
    let json = serde_json::to_string(&arch).unwrap();
    let json: &'static str = Box::leak(json.into_boxed_str());
    let back: Architecture = serde_json::from_str(json).unwrap();
    assert_eq!(back, arch);
}

#[test]
fn tune_file_refuses_malformed_program_models() {
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").unwrap();
    let exported = w.instantiate(w.tuning_input(arch.name));
    let mut dangling_edge = exported.clone();
    dangling_edge.call_edges.push(CallEdge {
        from: 0,
        to: 999,
        calls_per_step: 1.0,
    });
    let mut sparse_ids = exported.clone();
    sparse_ids.modules[0].id = 999;
    // Two hot loops under one name: per-loop profiles key times by
    // name, so each would silently read the sum of both.
    let mut duplicate_names = exported;
    duplicate_names.modules[1].name = duplicate_names.modules[0].name.clone();
    for (name, ir, problem) in [
        ("dangling-edge", dangling_edge, "call edge out of range"),
        ("sparse-ids", sparse_ids, "module ids must be dense"),
        ("duplicate-names", duplicate_names, "duplicate module name"),
    ] {
        let json = serde_json::to_string(&ir).unwrap();
        assert_refuses("tune-file", name, json.as_bytes(), problem);
    }
}

fn ftune(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_ftune"))
        .args(args)
        .output()
        .expect("spawn ftune")
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ft-{name}-{}", std::process::id()))
}

/// Runs `ftune <command> <path>` on `bytes` and asserts a clean refusal:
/// exit 2, never an abort (134) or a panic (101), with `problem` in the
/// message.
fn assert_refuses(command: &str, name: &str, bytes: &[u8], problem: &str) {
    let path = temp_path(name);
    std::fs::write(&path, bytes).unwrap();
    let out = ftune(&[command, path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{command} {name}\n{stderr}");
    assert!(stderr.contains(problem), "{command} {name}: {stderr}");
    assert!(!stderr.contains("panicked"), "{command} {name}: {stderr}");
}

/// Collects a small swim checkpoint through the CLI and returns its
/// bytes.
fn collected(name: &str) -> Vec<u8> {
    let path = temp_path(name);
    let out = ftune(&[
        "collect",
        "swim",
        "--k",
        "2",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "collect failed: {out:?}");
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn search_refuses_an_empty_collection_checkpoint() {
    // Empty the collection while keeping the checkpoint's provenance,
    // so only the K = 0 collection is wrong.
    let mut cp = funcytuner::tuning::Checkpoint::from_bytes(&collected("search-k0")).unwrap();
    cp.data.cvs.clear();
    cp.data.end_to_end.clear();
    cp.data.per_module.iter_mut().for_each(Vec::clear);
    assert_refuses("search", "search-k0", &cp.to_bytes(), "collection is empty");
}

#[test]
fn hostile_files_are_typed_refusals_not_aborts() {
    // Deep nesting once overflowed the JSON parser's stack (exit 134).
    let brackets = vec![b'['; 200_000];
    assert_refuses("tune-file", "brackets", &brackets, "nesting deeper than");
    assert_refuses(
        "search",
        "brackets",
        &brackets,
        "unsupported checkpoint version 0",
    );

    // A collect output cut short fails its seal.
    let bytes = collected("search-cut");
    assert_refuses(
        "search",
        "cut",
        &bytes[..bytes.len() / 2],
        "record checksum mismatch",
    );
    assert_refuses("search", "stub", &bytes[..6], "record truncated");

    // A WAL record is sealed under another tag.
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").unwrap();
    let cp = Tuner::new(&w, &arch)
        .budget(10)
        .cap_steps(3)
        .run_until(funcytuner::tuning::Phase::Baseline);
    let record = funcytuner::tuning::supervisor::CampaignRecord::checkpoint(cp, 1)
        .to_bytes()
        .unwrap();
    assert_refuses(
        "search",
        "wal-record",
        &record,
        "sealed record tagged FTWR where FTCK was expected",
    );
}
