//! End-to-end tests of the *process* worker path: real `ftune worker`
//! children over stdin/stdout pipes, rebuilt from a `HelloSpec`, must
//! be byte-identical to both the single-process run and the in-process
//! worker plane. This is the full stack the CLI ships: binary spawn,
//! hello handshake, CRC-framed batches, merged ledgers.

use funcytuner::compiler::FaultModel;
use funcytuner::flags::rng::derive_seed;
use funcytuner::prelude::*;
use funcytuner::tuning::remote::{
    decode_frame, decode_message, encode_frame, encode_message, ProcessTransport,
};
use funcytuner::tuning::{
    HelloSpec, Message, RemoteError, Transport, WireError, WorkBatch, WorkItem, Worker,
};
use std::path::PathBuf;
use std::process::Command;

fn ftune() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_ftune"))
}

fn campaign<'a>(w: &'a Workload, arch: &'a Architecture, faults: FaultModel) -> Tuner<'a> {
    Tuner::new(w, arch)
        .budget(30)
        .focus(6)
        .seed(42)
        .cap_steps(4)
        .faults(faults)
}

#[test]
fn process_workers_are_byte_identical_to_serial_and_in_process() {
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");
    for (fname, faults) in [
        ("zero", FaultModel::zero()),
        ("testbed", FaultModel::testbed(0xFA17)),
    ] {
        let reference = campaign(&w, &arch, faults).run();
        let in_process = campaign(&w, &arch, faults).workers(2).run();
        let process = campaign(&w, &arch, faults)
            .process_workers(2, ftune())
            .run();
        for (kind, run) in [("in-process", &in_process), ("process", &process)] {
            assert_eq!(
                reference.canonical_digest(),
                run.canonical_digest(),
                "faults={fname} {kind}: digest diverged"
            );
            assert_eq!(
                reference.canonical_bytes(),
                run.canonical_bytes(),
                "faults={fname} {kind}: bytes diverged"
            );
        }
        let plane = process.ctx.remote_plane().expect("plane");
        assert!(
            plane.ledger_totals().runs > 0,
            "faults={fname}: child processes did no work"
        );
    }
}

#[test]
fn a_worker_child_rebuilds_the_exact_context_from_the_hello_spec() {
    // Speak the protocol directly to a spawned `ftune worker` and
    // compare its reply bit-for-bit against a local Worker built from
    // the same recipe the coordinator uses.
    let arch = Architecture::broadwell();
    let compiler = Compiler::icc(arch.target);
    let w = workload_by_name("swim").expect("swim in suite");
    let seed = 42u64;
    let mut input = w.tuning_input(arch.name).clone();
    input.steps = input.steps.min(4);
    let ir = w.instantiate(&input);
    let (outlined, _) = outline_with_defaults(
        &ir,
        &compiler,
        &arch,
        input.steps,
        derive_seed(seed, "outline"),
    );
    let modules = outlined.ir.len() as u64;
    let faults = FaultModel::testbed(0xFA17);
    let local_ctx = EvalContext::new(
        outlined.ir,
        Compiler::icc(arch.target),
        arch.clone(),
        input.steps,
        derive_seed(seed, "noise"),
    )
    .with_faults(faults);
    let mut local = Worker::new(local_ctx);

    let spec = HelloSpec {
        workload: "swim".to_string(),
        arch: arch.name.to_string(),
        steps_cap: u64::from(input.steps),
        seed,
        fault_seed: faults.seed,
        fault_compile: faults.compile_failure,
        fault_crash: faults.crash,
        fault_hang: faults.hang,
        fault_outlier: faults.outlier,
        max_retries: 2,
        timeout_factor: 20.0,
        objective: funcytuner::tuning::Objective::Time,
    };
    let mut remote =
        ProcessTransport::spawn(&ftune(), &spec, modules).expect("worker child must handshake");

    let space = Compiler::icc(arch.target);
    let cv = space.space().baseline();
    let batch = WorkBatch {
        seq: 3,
        timeout_ref_bits: 0,
        defs: vec![(cv.digest(), cv.values().to_vec())],
        items: vec![WorkItem {
            uniform: true,
            digests: vec![cv.digest()],
            noise_seed: 0xFEED,
        }],
    };
    let reply_frame = remote
        .roundtrip(&encode_frame(&encode_message(&Message::Work(
            batch.clone(),
        ))))
        .expect("work roundtrip");
    let (payload, _) = decode_frame(&reply_frame).expect("reply frame");
    let remote_reply = match decode_message(payload).expect("reply message") {
        Message::Reply(r) => r,
        other => panic!("expected reply, got {other:?}"),
    };
    let local_reply = local.work(&batch).expect("local evaluation");
    assert_eq!(remote_reply.seq, 3);
    assert_eq!(
        remote_reply.time_bits, local_reply.time_bits,
        "a child process diverged from the local recipe"
    );
    assert_eq!(remote_reply.ledger, local_reply.ledger);
}

#[test]
fn a_worker_child_refuses_an_unknown_workload() {
    let good = HelloSpec {
        workload: "swim".to_string(),
        arch: "broadwell".to_string(),
        steps_cap: 4,
        seed: 1,
        fault_seed: 0,
        fault_compile: 0.0,
        fault_crash: 0.0,
        fault_hang: 0.0,
        fault_outlier: 0.0,
        max_retries: 2,
        timeout_factor: 20.0,
        objective: funcytuner::tuning::Objective::Time,
    };
    // Unknown names fail in the child; the impossible numbers are
    // refused at the parent, before a process starts.
    let bad = [
        (
            HelloSpec {
                workload: "no-such-benchmark".to_string(),
                ..good.clone()
            },
            false,
        ),
        (
            HelloSpec {
                fault_crash: 2.0,
                ..good.clone()
            },
            true,
        ),
        (
            HelloSpec {
                fault_hang: f64::NAN,
                ..good.clone()
            },
            true,
        ),
        (
            HelloSpec {
                arch: "m1".to_string(),
                ..good.clone()
            },
            false,
        ),
        (
            HelloSpec {
                fault_compile: -0.1,
                ..good.clone()
            },
            true,
        ),
        (
            HelloSpec {
                timeout_factor: 0.0,
                ..good.clone()
            },
            true,
        ),
        (
            HelloSpec {
                timeout_factor: f64::INFINITY,
                ..good.clone()
            },
            true,
        ),
        (
            HelloSpec {
                max_retries: u64::from(u32::MAX) + 1,
                ..good.clone()
            },
            true,
        ),
        (
            HelloSpec {
                steps_cap: 0,
                ..good.clone()
            },
            true,
        ),
    ];
    for (spec, at_parent) in &bad {
        match ProcessTransport::spawn(&ftune(), spec, 1) {
            Ok(_) => panic!("a bad hello must fail the handshake, not hang: {spec:?}"),
            Err(e) => assert_eq!(
                matches!(e, RemoteError::Wire(WireError::BadValue(_))),
                *at_parent,
                "{spec:?}: {e}"
            ),
        }
        assert!(spec.context().is_err(), "{spec:?}");
    }
    assert!(good.context().is_ok());

    // A child handed the zero-cap hello directly refuses it with the
    // typed diagnostic instead of panicking.
    let zero_cap = HelloSpec {
        steps_cap: 0,
        ..good.clone()
    };
    let out = worker_fed(&encode_frame(&encode_message(&Message::Hello(zero_cap))));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("steps cap of zero"), "{stderr}");
}

/// Runs an `ftune worker` child on `input` (then EOF) to its exit.
fn worker_fed(input: &[u8]) -> std::process::Output {
    use std::io::Write;
    let mut child = Command::new(ftune())
        .arg("worker")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("worker spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input)
        .expect("input written");
    child.wait_with_output().expect("worker exits")
}

#[test]
fn a_worker_child_exits_cleanly_on_a_protocol_version_mismatch() {
    use funcytuner::tuning::canonical::write_u64;
    use funcytuner::tuning::remote::PROTOCOL_VERSION;

    // Hand-craft a hello frame from a future protocol revision (the
    // version word is checked before any other hello field, so the
    // truncated spec never matters).
    let mut payload = Vec::new();
    write_u64(&mut payload, 1); // MSG_HELLO
    write_u64(&mut payload, PROTOCOL_VERSION + 1);
    let frame = encode_frame(&payload);

    let out = worker_fed(&frame);

    assert!(
        !out.status.success(),
        "a version-skewed hello must not be accepted"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("protocol version mismatch"),
        "stderr must carry the typed diagnostic:\n{stderr}"
    );
    assert!(
        stderr.contains(&format!(
            "peer speaks {}, supported {PROTOCOL_VERSION}",
            PROTOCOL_VERSION + 1
        )),
        "diagnostic must name both versions:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "version skew must exit cleanly, not panic:\n{stderr}"
    );
}

#[test]
fn cli_tune_with_workers_flag_reports_the_plane() {
    let out = Command::new(ftune())
        .args(["tune", "swim", "--k", "25", "--x", "6", "--workers", "2"])
        .output()
        .expect("ftune runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("sharding evaluations across 2 worker processes"),
        "missing shard banner:\n{stdout}"
    );
    assert!(
        stdout.contains("distributed plane: 2 workers"),
        "missing plane stats:\n{stdout}"
    );
}

#[test]
fn cli_tune_results_do_not_depend_on_workers_flag() {
    let run = |extra: &[&str]| {
        let mut args = vec!["tune", "swim", "--k", "25", "--x", "6", "--seed", "7"];
        args.extend_from_slice(extra);
        let out = Command::new(ftune())
            .args(&args)
            .output()
            .expect("ftune runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| {
                // Keep only the result table and flag lines — the
                // banner lines legitimately differ.
                l.contains("baseline")
                    || l.starts_with("Random")
                    || l.starts_with("FR")
                    || l.starts_with("G.")
                    || l.starts_with("CFR")
                    || l.starts_with("  ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = run(&[]);
    let sharded = run(&["--workers", "3"]);
    assert!(!serial.is_empty());
    assert_eq!(serial, sharded, "CLI results changed under --workers");
}
