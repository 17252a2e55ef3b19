//! The chaos harness: the headline proof that a supervised campaign
//! survives being killed at *every* journal-record boundary.
//!
//! For each fault model × schedule mode, the reference is a plain
//! `Tuner::run()` — no journal, no supervisor, no kills. Against it:
//!
//! 1. A supervisor with [`ChaosPolicy::KillOnce`] at every boundary
//!    `0..=segments` in turn: the first attempt dies exactly there,
//!    the recovery attempt resumes from the journal's last valid
//!    record and finishes. The recovered run's `canonical_bytes()`
//!    must be byte-identical to the reference, and the ledger
//!    invariant `runs == ok + crashes + timeouts` must hold.
//! 2. A poison campaign ([`ChaosPolicy::KillAlways`] at boundary 0)
//!    must be quarantined with a diagnostic record after exactly
//!    `poison_threshold` attempts — never loop to `max_attempts`.
//! 3. A seeded multi-kill storm must still converge to the same
//!    bytes, exercising repeated partial recoveries in one campaign.
//! 4. A CRC-valid but malformed record, or a done record whose digest
//!    its checkpoint does not replay to, is a typed refusal — never a
//!    silent restart and never a returned run.
//! 5. A journal left empty or with a torn header by a crash between
//!    its creation and its first append starts fresh and finishes on
//!    the golden digest.
//!
//! Kills are simulated in-process by aborting the attempt: all
//! in-memory campaign state is dropped and only the journal file
//! survives, which is exactly the state a `kill -9` leaves behind.

use ft_compiler::FaultModel;
use ft_core::journal::{temp_journal_path, Journal, Tail};
use ft_core::supervisor::{
    default_segments, CampaignRecord, RECORD_CHECKPOINT, RECORD_DONE, RECORD_POISONED,
};
use ft_core::{
    ChaosPolicy, CheckpointError, Phase, ScheduleMode, Supervisor, SupervisorConfig,
    SupervisorError, Tuner, TuningRun,
};
use ft_machine::Architecture;
use ft_workloads::{workload_by_name, Workload};
use std::path::PathBuf;

fn swim() -> Workload {
    workload_by_name("swim").expect("swim in suite")
}

fn tuner<'a>(
    w: &'a Workload,
    arch: &'a Architecture,
    faults: FaultModel,
    mode: ScheduleMode,
) -> Tuner<'a> {
    Tuner::new(w, arch)
        .budget(60)
        .focus(8)
        .seed(42)
        .cap_steps(5)
        .faults(faults)
        .schedule(mode)
}

fn fault_models() -> [(&'static str, FaultModel); 2] {
    [
        ("zero", FaultModel::zero()),
        ("testbed", FaultModel::testbed(0xFA17)),
    ]
}

fn schedules() -> [(&'static str, ScheduleMode); 2] {
    [
        ("serial", ScheduleMode::Serial),
        ("overlapped", ScheduleMode::Overlapped),
    ]
}

fn assert_bytes_equal(a: &TuningRun, b: &TuningRun, label: &str) {
    assert_eq!(
        a.canonical_digest(),
        b.canonical_digest(),
        "{label}: canonical digests diverged"
    );
    assert_eq!(
        a.canonical_bytes(),
        b.canonical_bytes(),
        "{label}: canonical bytes diverged"
    );
}

fn assert_ledger_balances(run: &TuningRun, label: &str) {
    let cost = run.ctx.cost();
    let stats = run.ctx.fault_stats();
    assert_eq!(
        cost.runs,
        stats.charged_runs(),
        "{label}: ledger out of balance: {cost:?} vs {stats:?}"
    );
}

struct TempJournal(PathBuf);
impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
fn journal(label: &str) -> TempJournal {
    TempJournal(temp_journal_path(label))
}

#[test]
fn supervised_campaign_with_no_chaos_matches_a_plain_run() {
    let arch = Architecture::broadwell();
    let w = swim();
    for (fname, faults) in fault_models() {
        for (sname, mode) in schedules() {
            let label = format!("faults={fname} schedule={sname}");
            let reference = tuner(&w, &arch, faults, mode).run();
            let j = journal(&format!("plain-{fname}-{sname}"));
            let supervised = Supervisor::new(&j.0, || tuner(&w, &arch, faults, mode))
                .run()
                .expect("no chaos, must finish");
            assert_eq!(supervised.report.attempts, 1, "{label}");
            assert_eq!(supervised.report.kills, 0, "{label}");
            assert_bytes_equal(&reference, &supervised.run, &label);
            assert_ledger_balances(&supervised.run, &label);
        }
    }
}

#[test]
fn killed_at_every_journal_record_boundary_recovers_byte_identically() {
    let arch = Architecture::broadwell();
    let w = swim();
    let boundaries = default_segments().len() + 1; // 0..=segments
    for (fname, faults) in fault_models() {
        for (sname, mode) in schedules() {
            let reference = tuner(&w, &arch, faults, mode).run();
            for boundary in 0..boundaries {
                let label = format!("faults={fname} schedule={sname} kill@{boundary}");
                let j = journal(&format!("kill-{fname}-{sname}-{boundary}"));
                let supervised = Supervisor::new(&j.0, || tuner(&w, &arch, faults, mode))
                    .chaos(ChaosPolicy::KillOnce { boundary })
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(supervised.report.kills, 1, "{label}");
                assert_eq!(supervised.report.attempts, 2, "{label}");
                // The recovery attempt started from exactly the
                // records the killed attempt had persisted.
                assert_eq!(supervised.report.resumed_from, vec![0, boundary], "{label}");
                assert_bytes_equal(&reference, &supervised.run, &label);
                assert_ledger_balances(&supervised.run, &label);
                // The journal was compacted to the terminal record,
                // and it pins the same canonical digest.
                let rec = Journal::recover(&j.0).unwrap();
                assert_eq!(rec.tail, Tail::Clean, "{label}");
                assert_eq!(rec.records.len(), 1, "{label}");
                let done = CampaignRecord::from_bytes(&rec.records[0]).unwrap();
                assert_eq!(done.kind, RECORD_DONE, "{label}");
                assert_eq!(
                    done.digest.as_deref(),
                    Some(format!("{:016x}", reference.canonical_digest()).as_str()),
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn recovery_from_a_torn_journal_tail_still_converges() {
    // Kill mid-append: the journal holds two clean records plus
    // garbage. The supervisor's open repairs the tail and resumes
    // from the last valid checkpoint.
    let arch = Architecture::broadwell();
    let w = swim();
    let faults = FaultModel::testbed(0xFA17);
    let reference = tuner(&w, &arch, faults, ScheduleMode::Serial).run();

    let j = journal("torn");
    // First: advance two boundaries and kill.
    let killed = Supervisor::new(&j.0, || tuner(&w, &arch, faults, ScheduleMode::Serial))
        .chaos(ChaosPolicy::KillAlways { boundary: 2 })
        .config(SupervisorConfig {
            max_attempts: 1,
            ..SupervisorConfig::default()
        })
        .run();
    assert!(matches!(
        killed,
        Err(SupervisorError::AttemptsExhausted { .. })
    ));
    // Simulate the torn write the kill would have left behind.
    let mut bytes = std::fs::read(&j.0).unwrap();
    bytes.extend_from_slice(&[0x42, 0x13, 0x37]);
    std::fs::write(&j.0, &bytes).unwrap();

    let supervised = Supervisor::new(&j.0, || tuner(&w, &arch, faults, ScheduleMode::Serial))
        .run()
        .expect("recovery from torn tail");
    assert_eq!(supervised.report.resumed_from, vec![2]);
    assert_bytes_equal(&reference, &supervised.run, "torn-tail recovery");
}

/// The canonical digest `golden_determinism.rs` pins for this file's
/// zero-fault campaign (swim/Broadwell, K=60, X=8, seed 42, 5 steps).
const GOLDEN_CANONICAL_DIGEST: u64 = 0xEC2662A181C112F2;

#[test]
fn a_crash_between_creating_a_journal_and_its_first_append_starts_fresh() {
    // A fresh journal's header is not fsynced until the first append,
    // so a crash in between can leave an empty file or a torn header.
    // Either must read as a fresh journal and finish on the golden
    // digest.
    let arch = Architecture::broadwell();
    let w = swim();
    for (label, left_behind) in [("empty", &b""[..]), ("torn-header", b"FTWA")] {
        let j = journal(&format!("unborn-{label}"));
        std::fs::write(&j.0, left_behind).unwrap();
        let supervised = Supervisor::new(&j.0, || {
            tuner(&w, &arch, FaultModel::zero(), ScheduleMode::Serial)
        })
        .run()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(supervised.report.attempts, 1, "{label}");
        assert_eq!(supervised.report.resumed_from, vec![0], "{label}");
        assert_eq!(
            supervised.run.canonical_digest(),
            GOLDEN_CANONICAL_DIGEST,
            "{label}"
        );
        let rec = Journal::recover(&j.0).unwrap();
        assert_eq!(rec.tail, Tail::Clean, "{label}");
        let last = CampaignRecord::from_bytes(rec.records.last().unwrap()).unwrap();
        assert_eq!(last.kind, RECORD_DONE, "{label}");
    }
}

#[test]
fn poison_campaigns_are_quarantined_with_a_diagnostic_record() {
    let arch = Architecture::broadwell();
    let w = swim();
    let j = journal("poison");
    let config = SupervisorConfig {
        poison_threshold: 3,
        max_attempts: 50,
        ..SupervisorConfig::default()
    };
    let err = Supervisor::new(&j.0, || {
        tuner(&w, &arch, FaultModel::zero(), ScheduleMode::Serial)
    })
    .chaos(ChaosPolicy::KillAlways { boundary: 0 })
    .config(config)
    .run()
    .expect_err("a campaign killed before every first record is poison");
    match &err {
        SupervisorError::Poisoned { diagnostic, report } => {
            // Quarantined after exactly poison_threshold attempts —
            // bounded, not max_attempts-bounded.
            assert_eq!(report.attempts, 3, "{report:?}");
            assert!(
                diagnostic.contains("3 consecutive attempts"),
                "{diagnostic}"
            );
            // Backoff grew exponentially (base 50, doubling), with
            // jitter bounded by half the base.
            assert_eq!(report.backoffs_ms.len(), 2, "{report:?}");
            assert!(report.backoffs_ms[0] >= 50 && report.backoffs_ms[0] <= 75);
            assert!(report.backoffs_ms[1] >= 100 && report.backoffs_ms[1] <= 150);
        }
        other => panic!("expected Poisoned, got {other}"),
    }
    // The diagnostic is durable: the journal's last record says why.
    let rec = Journal::recover(&j.0).unwrap();
    let last = CampaignRecord::from_bytes(rec.records.last().unwrap()).unwrap();
    assert_eq!(last.kind, RECORD_POISONED);
    assert!(last.diagnostic.unwrap().contains("consecutive attempts"));

    // A later supervisor refuses the quarantined journal outright.
    let err = Supervisor::new(&j.0, || {
        tuner(&w, &arch, FaultModel::zero(), ScheduleMode::Serial)
    })
    .run()
    .expect_err("poisoned journal must not be re-run");
    assert!(matches!(err, SupervisorError::Poisoned { .. }));
}

#[test]
fn seeded_kill_storm_still_converges_to_the_reference_bytes() {
    let arch = Architecture::broadwell();
    let w = swim();
    for (fname, faults) in fault_models() {
        let reference = tuner(&w, &arch, faults, ScheduleMode::Overlapped).run();
        let j = journal(&format!("storm-{fname}"));
        let supervised =
            Supervisor::new(&j.0, || tuner(&w, &arch, faults, ScheduleMode::Overlapped))
                .chaos(ChaosPolicy::Seeded {
                    seed: 0xC0A5,
                    rate_percent: 40,
                    max_kills: 6,
                })
                .config(SupervisorConfig {
                    max_attempts: 40,
                    poison_threshold: 10,
                    ..SupervisorConfig::default()
                })
                .run()
                .expect("storm must converge within the kill budget");
        let label = format!("faults={fname} storm kills={}", supervised.report.kills);
        assert_bytes_equal(&reference, &supervised.run, &label);
        assert_ledger_balances(&supervised.run, &label);
    }
}

#[test]
fn a_finished_journal_short_circuits_to_the_same_run() {
    // Supervising an already-done journal resumes from the terminal
    // record without redoing any search phase.
    let arch = Architecture::broadwell();
    let w = swim();
    let faults = FaultModel::testbed(0xFA17);
    let j = journal("redo");
    let first = Supervisor::new(&j.0, || tuner(&w, &arch, faults, ScheduleMode::Serial))
        .run()
        .unwrap();
    let again = Supervisor::new(&j.0, || tuner(&w, &arch, faults, ScheduleMode::Serial))
        .run()
        .unwrap();
    assert_bytes_equal(&first.run, &again.run, "done-record replay");
    assert_eq!(again.report.checkpoints_written, 0, "{:?}", again.report);
    // Replaying from the terminal checkpoint re-measures only the
    // 10-run baseline; every search result is restored, not re-run.
    assert!(
        again.run.ctx.cost().runs <= 10,
        "replay must not redo searches: {:?}",
        again.run.ctx.cost()
    );
}

/// A journal holding exactly `records`, as a supervisor would find it.
fn write_journal(path: &std::path::Path, records: &[CampaignRecord]) {
    let mut journal = Journal::create(path).expect("journal");
    for record in records {
        journal
            .append(&record.to_bytes().expect("encodes"))
            .expect("append");
    }
}

#[test]
fn malformed_records_are_typed_refusals_not_fresh_starts() {
    let arch = Architecture::broadwell();
    let w = swim();
    let make = || tuner(&w, &arch, FaultModel::zero(), ScheduleMode::Serial);
    let baseline = make().run_until(Phase::Baseline);
    let record = |kind: &str, checkpoint| CampaignRecord {
        kind: kind.to_string(),
        checkpoint,
        digest: Some("0".repeat(16)),
        diagnostic: None,
        attempt: 1,
    };
    let cases = [
        ("unknown kind", record("rewind", Some(baseline.clone()))),
        ("unknown kind, no checkpoint", record("rewind", None)),
        (
            "checkpoint without checkpoint",
            record(RECORD_CHECKPOINT, None),
        ),
        ("done without checkpoint", record(RECORD_DONE, None)),
    ];
    for (label, malformed) in cases {
        let j = journal(&format!("malformed-{}", label.replace([' ', ','], "-")));
        // On top of a non-empty WAL: a restart from zero would
        // silently discard the baseline checkpoint before it.
        write_journal(
            &j.0,
            &[CampaignRecord::checkpoint(baseline.clone(), 1), malformed],
        );
        match Supervisor::new(&j.0, make).run() {
            Err(SupervisorError::Checkpoint(CheckpointError::Record(why))) => {
                assert!(!why.is_empty(), "{label}")
            }
            other => panic!("{label}: expected a typed Record refusal, got {other:?}"),
        }
    }
}

#[test]
fn a_done_record_with_a_tampered_digest_is_refused() {
    let arch = Architecture::broadwell();
    let w = swim();
    let faults = FaultModel::testbed(0xFA17);
    let make = || tuner(&w, &arch, faults, ScheduleMode::Serial);
    let reference = make().run();
    let finished = make().run_until_phases(&Phase::ALL);
    let j = journal("tampered-digest");
    write_journal(&j.0, &[CampaignRecord::done(finished, 0xBAD, 1)]);
    match Supervisor::new(&j.0, make).run() {
        Err(SupervisorError::Checkpoint(CheckpointError::DigestMismatch {
            recorded,
            replayed,
        })) => {
            assert_eq!(recorded, format!("{:016x}", 0xBAD));
            assert_eq!(replayed, reference.canonical_digest());
        }
        other => panic!("expected a typed DigestMismatch refusal, got {other:?}"),
    }
}

/// Every one-record tampering of a journal's checkpoint chain: drop,
/// swap with the next, or duplicate record `k`, or replace it with
/// record `k` of another campaign's chain. Dropping the last record is
/// left out: that is the journal an earlier kill leaves, not a tamper.
fn tampered_chains(chain: &[Vec<u8>], foreign: &[Vec<u8>]) -> Vec<(String, Vec<Vec<u8>>)> {
    let mut cases = Vec::new();
    for k in 0..chain.len() {
        let mut edit = |what: &str, apply: &dyn Fn(&mut Vec<Vec<u8>>)| {
            let mut records = chain.to_vec();
            apply(&mut records);
            cases.push((format!("{what} record {k}"), records));
        };
        if k + 1 < chain.len() {
            edit("drop", &|r| {
                r.remove(k);
            });
            edit("swap", &|r| r.swap(k, k + 1));
        }
        edit("duplicate", &|r| r.insert(k, r[k].clone()));
        edit("splice a foreign", &|r| r[k] = foreign[k].clone());
    }
    cases
}

/// The checkpoint chain a campaign writes before it is killed at its
/// done record: one delta record per segment.
fn killed_before_done<'a>(make: impl Fn() -> Tuner<'a> + 'a, label: &str) -> Vec<Vec<u8>> {
    let j = journal(label);
    let killed = Supervisor::new(&j.0, make)
        .chaos(ChaosPolicy::KillOnce {
            boundary: default_segments().len(),
        })
        .config(SupervisorConfig {
            max_attempts: 1,
            ..SupervisorConfig::default()
        })
        .run();
    assert!(matches!(
        killed,
        Err(SupervisorError::AttemptsExhausted { .. })
    ));
    let records = Journal::recover(&j.0).unwrap().records;
    assert_eq!(records.len(), default_segments().len(), "{label}");
    records
}

#[test]
fn a_tampered_checkpoint_chain_is_a_typed_refusal() {
    let arch = Architecture::broadwell();
    let w = swim();
    let faults = FaultModel::testbed(0xFA17);
    let seeded = |seed| {
        let (w, arch) = (&w, &arch);
        move || tuner(w, arch, faults, ScheduleMode::Serial).seed(seed)
    };
    let chain = killed_before_done(seeded(42), "tamper-own");
    let foreign = killed_before_done(seeded(43), "tamper-foreign");
    for (label, records) in tampered_chains(&chain, &foreign) {
        let j = journal(&format!("tamper-{}", label.replace(' ', "-")));
        let mut journal = Journal::create(&j.0).unwrap();
        for record in &records {
            journal.append(record).unwrap();
        }
        match Supervisor::new(&j.0, seeded(42)).run() {
            Err(SupervisorError::Checkpoint(CheckpointError::Record(why))) => {
                assert!(why.starts_with("checkpoint record"), "{label}: {why}")
            }
            other => panic!("{label}: expected a typed Record refusal, got {other:?}"),
        }
    }

    // The untampered prefix an earlier kill leaves resumes to the
    // reference bytes.
    let reference = seeded(42)().run();
    let j = journal("tamper-prefix");
    let mut journal = Journal::create(&j.0).unwrap();
    for record in &chain[..chain.len() - 1] {
        journal.append(record).unwrap();
    }
    let resumed = Supervisor::new(&j.0, seeded(42)).run().unwrap();
    assert_eq!(resumed.report.resumed_from, vec![chain.len() - 1]);
    assert_bytes_equal(&reference, &resumed.run, "untampered prefix");
}
