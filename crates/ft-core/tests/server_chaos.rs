//! Chaos drills for the tuning daemon: the service must survive being
//! killed at arbitrary WAL-append boundaries, refuse what it must
//! refuse with *typed* errors, and never panic.
//!
//! 1. A seeded kill storm: restart the daemon generation after
//!    generation under `ChaosPolicy::Seeded` until every tenant
//!    settles; each life resumes all tenants from their journals, and
//!    every finished campaign is byte-equal to its solo run.
//! 2. A poisoned tenant WAL is refused at admission with its durable
//!    diagnostic — and stays refused after a daemon restart.
//! 3. Admission overflow past `max_in_flight + queue_capacity` is a
//!    typed `QueueFull`; queued tenants are promoted as slots free and
//!    still finish byte-identically.
//! 4. A CRC-valid but malformed WAL record is a typed `Wal` refusal at
//!    admission, and a done record whose digest does not replay
//!    poisons its tenant.
//! 5. A tenant WAL whose checkpoint chain was tampered with (a record
//!    dropped, swapped, duplicated or spliced in from another seed) is
//!    a typed `Wal` refusal at admission.
//! 6. A panic inside one tenant's segment poisons that tenant with the
//!    panic message, a panic on another's promotion is survived, and
//!    the daemon still settles every other tenant on its solo digest.
//! 7. A tenant WAL left empty or with a torn header by a crash before
//!    its first append is admitted as fresh and finishes on its solo
//!    bytes.

use ft_compiler::FaultModel;
use ft_core::server::EventCallback;
use ft_core::supervisor::{
    default_segments, CampaignRecord, RECORD_CHECKPOINT, RECORD_DONE, RECORD_POISONED,
};
use ft_core::{
    AdmissionError, CampaignSpec, ChaosPolicy, Journal, ObjectStore, Phase, ProgressEvent,
    ServerConfig, TenantOutcome, TuningRun, TuningServer,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn spec(seed: u64, budget: usize) -> CampaignSpec {
    let mut s = CampaignSpec::new("swim", "broadwell");
    s.budget = budget;
    s.focus = 8;
    s.seed = seed;
    s.steps_cap = Some(5);
    s.with_fault_model(FaultModel::testbed(0xFA17))
}

fn solo(spec: &CampaignSpec) -> TuningRun {
    let workload = ft_workloads::workload_by_name(&spec.workload).expect("workload in suite");
    let arch = ft_core::server::arch_by_name(&spec.arch).expect("known arch");
    spec.build_tuner(&workload, &arch).run()
}

fn temp_dir(label: &str) -> PathBuf {
    ft_core::journal::temp_journal_path(label)
}

/// Writes `records` as tenant `name`'s WAL in the daemon directory.
fn write_wal(dir: &Path, name: &str, records: &[CampaignRecord]) {
    std::fs::create_dir_all(dir).expect("dir");
    let mut journal = Journal::create(&dir.join(format!("tenant-{name}.wal"))).expect("journal");
    for record in records {
        journal
            .append(&record.to_bytes().expect("encodes"))
            .expect("append");
    }
}

/// The checkpoint the tenant's campaign holds once `phases` completed.
fn checkpoint_after(spec: &CampaignSpec, phases: &[Phase]) -> ft_core::CampaignCheckpoint {
    let workload = ft_workloads::workload_by_name(&spec.workload).expect("workload in suite");
    let arch = ft_core::server::arch_by_name(&spec.arch).expect("known arch");
    spec.build_tuner(&workload, &arch).run_until_phases(phases)
}

#[test]
fn a_seeded_kill_storm_across_daemon_lives_converges_to_solo_bytes() {
    let tenants = [
        ("storm-a", spec(42, 60)),
        ("storm-b", spec(99, 40)),
        ("storm-c", spec(7, 60)),
    ];
    let solos: Vec<TuningRun> = tenants.iter().map(|(_, s)| solo(s)).collect();
    let dir = temp_dir("server-kill-storm");
    let store = Arc::new(ObjectStore::new());

    let mut kills = 0u32;
    let mut resumes = 0usize;
    let mut generation = 1u32;
    let final_report = loop {
        assert!(
            generation <= 40,
            "storm did not converge within 40 daemon lives"
        );
        let mut server = TuningServer::new(
            ServerConfig::new(&dir)
                .threads(4)
                .generation(generation)
                .chaos(ChaosPolicy::Seeded {
                    seed: 0xD00D,
                    rate_percent: 40,
                    max_kills: 3,
                })
                .shared_store(store.clone()),
        )
        .expect("server dir");
        for (name, spec) in &tenants {
            server.submit(*name, spec.clone()).expect("admission");
        }
        let report = server.run();
        kills += report.kills;
        resumes += report
            .tenants
            .iter()
            .filter(|t| {
                t.events
                    .iter()
                    .any(|e| matches!(e, ProgressEvent::Resumed { records } if *records > 0))
            })
            .count();
        for t in &report.tenants {
            // A life may end in Killed, but never in quarantine: a
            // daemon death must not corrupt any tenant's journal.
            assert!(
                !matches!(t.outcome, TenantOutcome::Poisoned { .. }),
                "tenant {} poisoned by chaos: {:?}",
                t.name,
                t.outcome
            );
            assert_eq!(
                t.cost.runs,
                t.faults.charged_runs(),
                "tenant {} ledger out of balance under chaos",
                t.name
            );
        }
        if report.all_settled() {
            break report;
        }
        generation += 1;
    };
    let _ = std::fs::remove_dir_all(&dir);

    assert!(kills > 0, "the storm must actually kill the daemon");
    assert!(
        resumes > 0,
        "later lives must resume journaled progress, not restart from scratch"
    );
    for ((name, _), reference) in tenants.iter().zip(&solos) {
        let t = final_report.tenant(name).expect("tenant reported");
        match &t.outcome {
            TenantOutcome::Done { run, .. } => {
                assert_eq!(
                    reference.canonical_bytes(),
                    run.canonical_bytes(),
                    "tenant {name}: bytes diverged after {generation} daemon lives"
                );
            }
            other => panic!("tenant {name}: expected Done, got {other:?}"),
        }
    }
}

#[test]
fn a_poisoned_wal_is_refused_with_its_diagnostic_and_stays_refused() {
    let dir = temp_dir("server-poisoned");
    std::fs::create_dir_all(&dir).expect("dir");
    let wal = dir.join("tenant-cursed.wal");
    let mut journal = Journal::create(&wal).expect("journal");
    let record = CampaignRecord::poisoned("synthetic corruption for the drill".to_string(), 1);
    journal
        .append(&record.to_bytes().expect("encodes"))
        .expect("append");
    drop(journal);

    for life in 1..=2u32 {
        let mut server = TuningServer::new(ServerConfig::new(&dir).generation(life)).expect("dir");
        match server.submit("cursed", spec(42, 60)) {
            Err(AdmissionError::Poisoned { tenant, diagnostic }) => {
                assert_eq!(tenant, "cursed");
                assert!(
                    diagnostic.contains("synthetic corruption"),
                    "life {life}: diagnostic lost: {diagnostic:?}"
                );
            }
            other => panic!("life {life}: expected typed Poisoned refusal, got {other:?}"),
        }
        // A healthy sibling is unaffected by the quarantined WAL.
        server.submit("healthy", spec(7, 40)).expect("admission");
        let report = server.run();
        assert!(matches!(
            report.tenant("healthy").expect("reported").outcome,
            TenantOutcome::Done { .. }
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tenant_wal_left_empty_or_with_a_torn_header_starts_fresh() {
    // A crash between a WAL's creation and its first append: the
    // unsynced header may be missing or torn. Admission must read it
    // as a fresh journal, and the tenant must finish on its solo bytes.
    let mut spec = CampaignSpec::new("swim", "broadwell");
    spec.budget = 60;
    spec.focus = 8;
    spec.seed = 42;
    spec.steps_cap = Some(5);
    let reference = solo(&spec);
    // The canonical digest `golden_determinism.rs` pins for this spec.
    assert_eq!(reference.canonical_digest(), 0xEC2662A181C112F2);
    let dir = temp_dir("server-unborn");
    std::fs::create_dir_all(&dir).expect("dir");
    let tenants = [("empty", &b""[..]), ("torn-header", b"FTWA")];
    for (name, left_behind) in tenants {
        std::fs::write(dir.join(format!("tenant-{name}.wal")), left_behind).expect("wal");
    }
    let mut server = TuningServer::new(ServerConfig::new(&dir)).expect("dir");
    for (name, _) in tenants {
        server.submit(name, spec.clone()).expect("admission");
    }
    let report = server.run();
    for (name, _) in tenants {
        match &report.tenant(name).expect("reported").outcome {
            TenantOutcome::Done { run, .. } => assert_eq!(
                reference.canonical_bytes(),
                run.canonical_bytes(),
                "tenant {name}"
            ),
            other => panic!("tenant {name}: expected Done, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_overflow_is_a_typed_queue_full_and_queued_tenants_still_finish() {
    let dir = temp_dir("server-admission-queue");
    let mut server = TuningServer::new(
        ServerConfig::new(&dir)
            .threads(2)
            .max_in_flight(1)
            .queue_capacity(1),
    )
    .expect("dir");
    let first = spec(42, 60);
    let second = spec(99, 40);
    let solos = [solo(&first), solo(&second)];
    server.submit("q-first", first).expect("in-flight slot");
    server.submit("q-second", second).expect("queue slot");
    match server.submit("q-third", spec(7, 60)) {
        Err(AdmissionError::QueueFull { capacity }) => assert_eq!(capacity, 1),
        other => panic!("expected typed QueueFull, got {other:?}"),
    }

    let report = server.run();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.tenants.len(), 2, "the rejected tenant never ran");
    for (name, reference) in ["q-first", "q-second"].iter().zip(&solos) {
        let t = report.tenant(name).expect("tenant reported");
        match &t.outcome {
            TenantOutcome::Done { run, .. } => assert_eq!(
                reference.canonical_bytes(),
                run.canonical_bytes(),
                "tenant {name}: bytes diverged through the admission queue"
            ),
            other => panic!("tenant {name}: expected Done, got {other:?}"),
        }
    }
    let waited = report.tenant("q-second").expect("reported");
    assert!(
        waited.events.contains(&ProgressEvent::Enqueued)
            && waited.events.contains(&ProgressEvent::Promoted),
        "queued tenant must record Enqueued then Promoted: {:?}",
        waited.events
    );
}

#[test]
fn a_malformed_wal_record_is_a_typed_admission_refusal() {
    let spec = spec(42, 60);
    let baseline = checkpoint_after(&spec, &[Phase::Baseline]);
    let record = |kind: &str, checkpoint| CampaignRecord {
        kind: kind.to_string(),
        checkpoint,
        digest: Some("0".repeat(16)),
        diagnostic: None,
        attempt: 1,
    };
    let cases = [
        ("unknown-kind", record("rewind", Some(baseline.clone()))),
        ("unknown-kind-bare", record("rewind", None)),
        ("empty-checkpoint", record(RECORD_CHECKPOINT, None)),
        ("empty-done", record(RECORD_DONE, None)),
    ];
    let dir = temp_dir("server-malformed");
    for (name, malformed) in cases {
        // On top of a non-empty WAL: a silent restart from zero would
        // discard the baseline checkpoint before it.
        write_wal(
            &dir,
            name,
            &[CampaignRecord::checkpoint(baseline.clone(), 1), malformed],
        );
        let mut server = TuningServer::new(ServerConfig::new(&dir)).expect("dir");
        match server.submit(name, spec.clone()) {
            Err(AdmissionError::Wal(why)) => assert!(why.contains(name), "{why}"),
            other => panic!("{name}: expected a typed Wal refusal, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_done_record_with_a_tampered_digest_poisons_its_tenant() {
    let spec = spec(42, 60);
    let dir = temp_dir("server-tampered");
    write_wal(
        &dir,
        "forged",
        &[CampaignRecord::done(
            checkpoint_after(&spec, &Phase::ALL),
            0xBAD,
            1,
        )],
    );
    let mut server = TuningServer::new(ServerConfig::new(&dir)).expect("dir");
    server
        .submit("forged", spec)
        .expect("a done record is admitted");
    let report = server.run();
    let tenant = report.tenant("forged").expect("reported");
    match &tenant.outcome {
        TenantOutcome::Poisoned { diagnostic } => {
            assert!(diagnostic.contains("0000000000000bad"), "{diagnostic}")
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }
    assert!(tenant.events.contains(&ProgressEvent::Poisoned));
    let records = Journal::recover(&dir.join("tenant-forged.wal"))
        .expect("wal")
        .records;
    let last = CampaignRecord::from_bytes(records.last().expect("records")).expect("parses");
    assert_eq!(last.kind, RECORD_POISONED, "the quarantine is durable");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint chain a lone tenant writes before the daemon is
/// killed at its done record: one delta record per segment.
fn tenant_chain(spec: &CampaignSpec, dir: &Path) -> Vec<Vec<u8>> {
    let mut server = TuningServer::new(ServerConfig::new(dir).threads(1).chaos(
        ChaosPolicy::KillOnce {
            boundary: default_segments().len(),
        },
    ))
    .expect("server dir");
    server.submit("chain", spec.clone()).expect("admission");
    assert_eq!(server.run().kills, 1);
    let records = Journal::recover(&dir.join("tenant-chain.wal"))
        .expect("wal")
        .records;
    assert_eq!(records.len(), default_segments().len());
    records
}

#[test]
fn a_tampered_checkpoint_chain_is_a_typed_admission_refusal() {
    let own = spec(42, 60);
    let dir = temp_dir("server-tamper");
    let chain = tenant_chain(&own, &dir.join("own"));
    let foreign = tenant_chain(&spec(43, 60), &dir.join("foreign"));
    let mut cases: Vec<(String, Vec<Vec<u8>>)> = Vec::new();
    for k in 0..chain.len() {
        let mut edit = |what: &str, apply: &dyn Fn(&mut Vec<Vec<u8>>)| {
            let mut records = chain.clone();
            apply(&mut records);
            cases.push((format!("{what}-{k}"), records));
        };
        // Dropping the last record leaves the journal of an earlier
        // kill, which must resume, so it is not a tamper case.
        if k + 1 < chain.len() {
            edit("drop", &|r| {
                r.remove(k);
            });
            edit("swap", &|r| r.swap(k, k + 1));
        }
        edit("duplicate", &|r| r.insert(k, r[k].clone()));
        edit("splice", &|r| r[k] = foreign[k].clone());
    }
    let tampered = dir.join("tampered");
    std::fs::create_dir_all(&tampered).expect("dir");
    for (name, records) in cases {
        let mut journal =
            Journal::create(&tampered.join(format!("tenant-{name}.wal"))).expect("journal");
        for record in &records {
            journal.append(record).expect("append");
        }
        let mut server = TuningServer::new(ServerConfig::new(&tampered)).expect("dir");
        match server.submit(&name, own.clone()) {
            Err(AdmissionError::Wal(why)) => {
                assert!(why.contains(&name), "{why}");
                assert!(why.contains("checkpoint record"), "{name}: {why}");
            }
            other => panic!("{name}: expected a typed Wal refusal, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_segment_poisons_its_tenant_and_the_daemon_still_settles() {
    const BLAST: &str = "event observer failed on the doomed tenant";
    let tenants = [
        ("calm-a", spec(42, 60)),
        ("doomed", spec(99, 40)),
        ("calm-b", spec(7, 60)),
    ];
    let solos: Vec<u64> = tenants
        .iter()
        .map(|(_, s)| solo(s).canonical_digest())
        .collect();
    // The doomed tenant's panic fires after its segment's checkpoint is
    // durable, on the executor thread that committed it. `calm-b` waits
    // for a slot, and the observer of its promotion panics too, under
    // the scheduler's lock.
    let callback: EventCallback =
        Arc::new(
            |tenant: &str, event: &ProgressEvent| match (tenant, event) {
                ("doomed", ProgressEvent::SegmentCommitted { .. }) => panic!("{BLAST}"),
                ("calm-b", ProgressEvent::Promoted) => panic!("promotion observer failed"),
                _ => {}
            },
        );
    for threads in [1, 4] {
        let dir = temp_dir(&format!("server-panic-{threads}"));
        let config = ServerConfig::new(&dir).threads(threads).max_in_flight(2);
        let mut server = TuningServer::new(config)
            .expect("dir")
            .on_event(callback.clone());
        for (name, spec) in &tenants {
            server.submit(*name, spec.clone()).expect("admission");
        }
        let report = server.run();
        assert!(report.all_settled(), "threads {threads}: a tenant was left");

        let doomed = report.tenant("doomed").expect("reported");
        match &doomed.outcome {
            TenantOutcome::Poisoned { diagnostic } => assert_eq!(diagnostic, BLAST),
            other => panic!("threads {threads}: expected Poisoned, got {other:?}"),
        }
        assert_eq!(doomed.segments_run, 1, "threads {threads}");
        assert_eq!(
            doomed.events.last(),
            Some(&ProgressEvent::Poisoned),
            "threads {threads}"
        );
        let records = Journal::recover(&dir.join("tenant-doomed.wal"))
            .expect("wal")
            .records;
        let last = CampaignRecord::from_bytes(records.last().expect("records")).expect("parses");
        assert_eq!(last.kind, RECORD_POISONED, "threads {threads}: not durable");
        assert_eq!(last.diagnostic.as_deref(), Some(BLAST));
        let promoted = report.tenant("calm-b").expect("reported");
        assert!(
            promoted.events.contains(&ProgressEvent::Promoted),
            "threads {threads}: {:?}",
            promoted.events
        );

        for ((name, _), want) in tenants.iter().zip(&solos) {
            if *name == "doomed" {
                continue;
            }
            match &report.tenant(name).expect("reported").outcome {
                TenantOutcome::Done { digest, .. } => assert_eq!(
                    digest, want,
                    "threads {threads}: tenant {name} diverged from its solo run"
                ),
                other => panic!("threads {threads}: tenant {name}: expected Done, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
