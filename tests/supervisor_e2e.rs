//! End-to-end crash-safety workflows through the facade crate — the
//! compositions `ftune supervise` drives: a supervised campaign under
//! a seeded kill storm and replay of a finished journal.

use funcytuner::compiler::FaultModel;
use funcytuner::prelude::*;
use funcytuner::tuning::journal::temp_journal_path;
use std::path::PathBuf;

struct TempJournal(PathBuf);
impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn tuner<'a>(w: &'a Workload, arch: &'a Architecture) -> Tuner<'a> {
    Tuner::new(w, arch)
        .budget(60)
        .focus(8)
        .seed(42)
        .cap_steps(5)
        .faults(FaultModel::testbed(0xE2E))
}

#[test]
fn supervised_kill_storm_matches_the_plain_run_through_the_prelude() {
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");
    let reference = tuner(&w, &arch).run();

    let j = TempJournal(temp_journal_path("e2e-storm"));
    let supervised = Supervisor::new(&j.0, || tuner(&w, &arch))
        .chaos(ChaosPolicy::Seeded {
            seed: 0xE2E,
            rate_percent: 35,
            max_kills: 4,
        })
        .config(SupervisorConfig {
            max_attempts: 30,
            poison_threshold: 8,
            ..SupervisorConfig::default()
        })
        .run()
        .expect("storm converges");
    assert_eq!(
        reference.canonical_bytes(),
        supervised.run.canonical_bytes(),
        "kills={}",
        supervised.report.kills
    );
    let cost = supervised.run.ctx.cost();
    assert_eq!(cost.runs, supervised.run.ctx.fault_stats().charged_runs());

    // Replaying the finished journal restores the result without
    // redoing any search phase.
    let again = Supervisor::new(&j.0, || tuner(&w, &arch))
        .run()
        .expect("done journal replays");
    assert_eq!(
        reference.canonical_bytes(),
        again.run.canonical_bytes(),
        "replay diverged"
    );
    assert_eq!(again.report.checkpoints_written, 0);
    assert!(again.run.ctx.cost().runs <= 10, "replay redid searches");
}
