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
    let mut sparse_ids = exported;
    sparse_ids.modules[0].id = 999;
    for (name, ir, problem) in [
        ("dangling-edge", dangling_edge, "call edge out of range"),
        ("sparse-ids", sparse_ids, "module ids must be dense"),
    ] {
        let path =
            std::env::temp_dir().join(format!("ft-tune-file-{name}-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&ir).unwrap()).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ftune"))
            .args(["tune-file", path.to_str().unwrap(), "--k", "10"])
            .output()
            .expect("spawn ftune");
        let _ = std::fs::remove_file(&path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: accepted\n{stderr}");
        assert_ne!(out.status.code(), Some(101), "{name}: panicked\n{stderr}");
        assert!(stderr.contains(problem), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

#[test]
fn search_refuses_an_empty_collection_checkpoint() {
    let path = std::env::temp_dir().join(format!("ft-search-k0-{}.json", std::process::id()));
    let ftune = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_ftune"))
            .args(args)
            .output()
            .expect("spawn ftune")
    };
    let collected = ftune(&[
        "collect",
        "swim",
        "--k",
        "2",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(collected.status.success(), "collect failed: {collected:?}");
    // Empty the collection while keeping the checkpoint's provenance,
    // so only the K = 0 collection is wrong.
    let json = std::fs::read_to_string(&path).unwrap();
    let mut cp = funcytuner::tuning::Checkpoint::from_json(&json).unwrap();
    cp.data.cvs.clear();
    cp.data.end_to_end.clear();
    cp.data.per_module.iter_mut().for_each(Vec::clear);
    std::fs::write(&path, cp.to_json().unwrap()).unwrap();
    let out = ftune(&["search", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "accepted\n{stderr}");
    assert_ne!(out.status.code(), Some(101), "panicked\n{stderr}");
    assert!(stderr.contains("collection is empty"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
