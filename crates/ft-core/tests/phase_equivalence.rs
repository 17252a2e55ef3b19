//! Determinism-equivalence harness for the phase scheduler.
//!
//! The campaign's phases form a DAG (`Baseline → {Collect ∥ Random ∥
//! Fr} → {Greedy ∥ Cfr}`) and may run serially or overlapped on
//! `std::thread::scope`. This suite is the proof that the schedule is
//! *unobservable* in results:
//!
//! 1. **Byte equality** — for every fault model and every schedule,
//!    the canonical serialization of the finished `TuningRun` (every
//!    float by bit pattern, including quarantined `+inf`s) is
//!    identical.
//! 2. **Resume closure** — a campaign killed at *any* DAG boundary —
//!    including join points where sibling phases were still in flight
//!    — resumes under either schedule into the same bytes.
//! 3. **Order independence** — a seeded stress knob permutes thread
//!    spawn order and staggers phase starts; no interleaving changes a
//!    byte.
//! 4. **Ledger balance** — `runs == ok_runs + crashes + timeouts`
//!    survives concurrent counter increments; only fault *attribution*
//!    (first-discovery vs quarantine-skip) may shift, never a value.
//! 5. **Paper scale** — at K = 1000 on CloverLeaf the schedules still
//!    agree byte for byte, and the DAG's critical path models the
//!    overlapped campaign at least 1.3x shorter than the serial one.

use ft_compiler::FaultModel;
use ft_core::supervisor::CampaignRecord;
use ft_core::{
    CampaignCheckpoint, CheckpointError, Phase, ScheduleMode, Tuner, TuningRun,
    RECORD_FORMAT_VERSION,
};
use ft_machine::Architecture;
use ft_workloads::{workload_by_name, Workload};

fn swim() -> Workload {
    workload_by_name("swim").expect("swim in suite")
}

fn tuner<'a>(w: &'a Workload, arch: &'a Architecture, faults: FaultModel) -> Tuner<'a> {
    Tuner::new(w, arch)
        .budget(60)
        .focus(8)
        .seed(42)
        .cap_steps(5)
        .faults(faults)
}

fn fault_models() -> [(&'static str, FaultModel); 2] {
    [
        ("zero", FaultModel::zero()),
        ("testbed", FaultModel::testbed(0xFA17)),
    ]
}

/// A checkpoint through its WAL record bytes: what a killed process
/// reloads.
fn reload(cp: CampaignCheckpoint) -> CampaignCheckpoint {
    let bytes = CampaignRecord::checkpoint(cp, 1).to_bytes().unwrap();
    let record = CampaignRecord::from_bytes(&bytes).unwrap();
    record.checkpoint.expect("a checkpoint record carries one")
}

fn assert_bytes_equal(a: &TuningRun, b: &TuningRun, label: &str) {
    // Compare digests first for a readable failure, then the full
    // encodings so a digest collision can never mask a divergence.
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

#[test]
fn serial_and_overlapped_campaigns_are_byte_identical() {
    let arch = Architecture::broadwell();
    let w = swim();
    for (name, faults) in fault_models() {
        let serial = tuner(&w, &arch, faults).run();
        let overlapped = tuner(&w, &arch, faults).overlap_phases().run();
        assert_eq!(serial.schedule.mode, ScheduleMode::Serial);
        assert_eq!(overlapped.schedule.mode, ScheduleMode::Overlapped);
        assert_bytes_equal(&serial, &overlapped, &format!("faults={name}"));
        // All four algorithms shipped finite winners under both
        // schedules (the bytes already agree; this guards the values
        // themselves being sane, not just equal).
        for (alg, t) in [
            ("random", overlapped.random.best_time),
            ("fr", overlapped.fr.best_time),
            ("greedy", overlapped.greedy.realized.best_time),
            ("cfr", overlapped.cfr.best_time),
        ] {
            assert!(t.is_finite() && t > 0.0, "faults={name} {alg}: {t}");
        }
    }
}

#[test]
fn paper_scale_overlap_is_byte_identical_and_shortens_the_modeled_campaign() {
    // The paper's sample budget and CFR focus width (K = 1000, X = 32)
    // on CloverLeaf, steps capped so the campaign stays test-sized.
    // Serial and overlapped runs agree on every byte, and the serial
    // run's per-phase machine time, re-priced on the DAG's critical
    // path, is at least 1.3x shorter than the sum of its phases.
    let arch = Architecture::broadwell();
    let w = workload_by_name("CloverLeaf").expect("CloverLeaf in suite");
    let campaign = |mode| {
        Tuner::new(&w, &arch)
            .budget(1000)
            .focus(32)
            .seed(42)
            .cap_steps(4)
            .schedule(mode)
            .run()
    };
    let serial = campaign(ScheduleMode::Serial);
    let overlapped = campaign(ScheduleMode::Overlapped);
    assert_bytes_equal(&serial, &overlapped, "CloverLeaf K=1000");

    let serial_s = serial
        .schedule
        .machine_serial_s()
        .expect("serial campaign attributes every phase");
    let critical_s = serial
        .schedule
        .machine_critical_path_s()
        .expect("serial campaign attributes every phase");
    let modeled = serial_s / critical_s;
    assert!(
        modeled >= 1.3,
        "overlap must shorten the modeled campaign: {serial_s:.1} s serial, \
         {critical_s:.1} s critical path ({modeled:.2}x)"
    );
}

#[test]
fn every_single_phase_boundary_resumes_into_identical_bytes() {
    let arch = Architecture::broadwell();
    let w = swim();
    for (name, faults) in fault_models() {
        let straight = tuner(&w, &arch, faults).run();
        for stop in Phase::ALL {
            let cp = reload(tuner(&w, &arch, faults).run_until(stop));
            for mode in [ScheduleMode::Serial, ScheduleMode::Overlapped] {
                let resumed = tuner(&w, &arch, faults)
                    .schedule(mode)
                    .resume(cp.clone())
                    .expect("matching checkpoint");
                assert_bytes_equal(
                    &straight,
                    &resumed,
                    &format!("faults={name} stop={stop:?} resume={mode:?}"),
                );
            }
        }
    }
}

#[test]
fn run_until_fr_no_longer_implies_random_completed() {
    // The latent linear-order bug: `stop_after` used to walk phases in
    // enum order, so pausing "after FR" silently ran Collect and
    // Random first. The DAG engine runs only FR's dependency closure.
    let arch = Architecture::broadwell();
    let w = swim();
    let cp = tuner(&w, &arch, FaultModel::zero()).run_until(Phase::Fr);
    assert!(cp.baseline_time.is_some(), "baseline is FR's dependency");
    assert!(cp.fr.is_some(), "the target itself completed");
    assert!(cp.random.is_none(), "Random is not a dependency of FR");
    assert!(cp.data.is_none(), "Collect is not a dependency of FR");
    assert!(cp.greedy.is_none());
    assert!(cp.cfr.is_none());
    assert_eq!(cp.completed_phases(), vec![Phase::Baseline, Phase::Fr]);
    assert_eq!(
        cp.pending_phases(),
        vec![Phase::Collect, Phase::Random, Phase::Greedy, Phase::Cfr]
    );
}

#[test]
fn mid_overlap_join_checkpoints_resume_into_identical_bytes() {
    // A checkpoint written at a DAG join while sibling phases are
    // still in flight carries only the joined results; resume
    // recomputes the in-flight phases bit-exactly. Each subset below
    // is a reachable overlapped-scheduler state.
    let arch = Architecture::broadwell();
    let w = swim();
    let joins: &[&[Phase]] = &[
        // Random done; Collect and FR in flight.
        &[Phase::Random],
        // Collect and FR done; Random still in flight.
        &[Phase::Collect, Phase::Fr],
        // Stage-1 join: all three done, stage 2 not started.
        &[Phase::Collect, Phase::Random, Phase::Fr],
        // Greedy done; CFR, Random, FR in flight.
        &[Phase::Greedy],
        // Everything but CFR.
        &[Phase::Random, Phase::Fr, Phase::Greedy],
    ];
    for (name, faults) in fault_models() {
        let straight = tuner(&w, &arch, faults).run();
        for join in joins {
            let cp = tuner(&w, &arch, faults).run_until_phases(join);
            for p in join.iter() {
                assert!(
                    cp.completed_phases().contains(p),
                    "faults={name} join={join:?}: {p:?} must be complete"
                );
            }
            let cp = reload(cp);
            for mode in [ScheduleMode::Serial, ScheduleMode::Overlapped] {
                let resumed = tuner(&w, &arch, faults)
                    .schedule(mode)
                    .resume(cp.clone())
                    .expect("matching checkpoint");
                assert_bytes_equal(
                    &straight,
                    &resumed,
                    &format!("faults={name} join={join:?} resume={mode:?}"),
                );
            }
        }
    }
}

#[test]
fn seeded_interleaving_stress_is_order_independent() {
    // Permute thread spawn order and stagger phase starts by derived
    // micro-delays: every interleaving must land on the same bytes.
    let arch = Architecture::broadwell();
    let w = swim();
    for (name, faults) in fault_models() {
        let reference = tuner(&w, &arch, faults).run();
        for interleave_seed in 0..6 {
            let stressed = tuner(&w, &arch, faults)
                .overlap_phases()
                .interleave(interleave_seed)
                .run();
            assert_bytes_equal(
                &reference,
                &stressed,
                &format!("faults={name} interleave={interleave_seed}"),
            );
        }
    }
}

#[test]
fn ledger_invariant_survives_the_overlapped_schedule() {
    let arch = Architecture::broadwell();
    let w = swim();
    let serial = tuner(&w, &arch, FaultModel::testbed(0xFA17)).run();
    let overlapped = tuner(&w, &arch, FaultModel::testbed(0xFA17))
        .overlap_phases()
        .run();
    for (label, run) in [("serial", &serial), ("overlapped", &overlapped)] {
        let cost = run.ctx.cost();
        let stats = run.ctx.fault_stats();
        assert_eq!(
            cost.runs,
            stats.charged_runs(),
            "{label}: ledger out of balance: {cost:?} vs {stats:?}"
        );
        let injected = stats.compile_failures + stats.crashes + stats.timeouts;
        assert!(injected > 0, "{label}: testbed rates fired nothing");
    }
    // Successful measurements are schedule-independent (each candidate
    // is evaluated by exactly one phase under seeds of its own);
    // crashes re-roll per attempt and never quarantine, so they are
    // too. Only timeout/quarantine *attribution* may shift when two
    // phases race to discover the same hanging fingerprint.
    let (ss, os) = (serial.ctx.fault_stats(), overlapped.ctx.fault_stats());
    assert_eq!(ss.ok_runs, os.ok_runs);
    assert_eq!(ss.crashes, os.crashes);
}

#[test]
fn mid_overlap_checkpoint_refuses_corruption_and_version_mismatch() {
    let arch = Architecture::broadwell();
    let w = swim();
    let cp = tuner(&w, &arch, FaultModel::zero()).run_until_phases(&[Phase::Collect, Phase::Fr]);
    // A done record: its decoder validates the phase list.
    let sealed = |cp: &CampaignCheckpoint| {
        CampaignRecord::done(cp.clone(), 0, 1)
            .to_bytes()
            .expect("encodes")
    };
    let bytes = sealed(&cp);

    // Garbage (a JSON fragment among it) is a typed refusal.
    let err = CampaignRecord::from_bytes(b"{definitely not json").unwrap_err();
    assert!(
        matches!(err, CheckpointError::Version { found: 0, .. }),
        "{err}"
    );

    // A future format version is refused with both sides of the
    // mismatch...
    let v = RECORD_FORMAT_VERSION;
    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&(v + 1).to_le_bytes());
    let err = CampaignRecord::from_bytes(&future).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Version { found, supported }
            if found == v + 1 && supported == v),
        "{err}"
    );
    assert!(err.to_string().contains("version"));

    // ...and a truncated record is a malformed one.
    let err = CampaignRecord::from_bytes(&bytes[..bytes.len() / 2]).unwrap_err();
    assert!(matches!(err, CheckpointError::Record(_)), "{err}");

    // A corrupted completed-phase list fails loudly at load time.
    let mut tampered = cp.clone();
    assert_eq!(tampered.completed[0], "baseline");
    tampered.completed[0] = "cfr".to_string();
    let err = CampaignRecord::from_bytes(&sealed(&tampered)).unwrap_err();
    assert!(matches!(err, CheckpointError::Phases(_)), "{err}");

    // A mid-overlap checkpoint still validates campaign identity on
    // resume, whatever the schedule.
    let cp = CampaignRecord::from_bytes(&bytes)
        .expect("decodes")
        .checkpoint
        .expect("carries the campaign");
    for mode in [ScheduleMode::Serial, ScheduleMode::Overlapped] {
        let err = match tuner(&w, &arch, FaultModel::zero())
            .budget(61)
            .schedule(mode)
            .resume(cp.clone())
        {
            Err(e) => e,
            Ok(_) => panic!("mismatched budget must be rejected"),
        };
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("budget"));
    }
}

#[test]
fn overlapped_resume_of_an_overlap_written_checkpoint_round_trips() {
    // Checkpoints written *by* an overlapped campaign (quarantine
    // snapshot taken after the scope joined) resume identically too —
    // the quarantine lists serialize sorted, so the insertion
    // interleaving leaves no trace.
    let arch = Architecture::broadwell();
    let w = swim();
    let faults = FaultModel::testbed(0xFA17);
    let straight = tuner(&w, &arch, faults).run();
    let cp = tuner(&w, &arch, faults)
        .overlap_phases()
        .interleave(3)
        .run_until_phases(&[Phase::Collect, Phase::Random, Phase::Fr]);
    let cp = reload(cp);
    let resumed = tuner(&w, &arch, faults)
        .overlap_phases()
        .resume(cp)
        .expect("matching checkpoint");
    assert_bytes_equal(&straight, &resumed, "overlap-written checkpoint");
}
