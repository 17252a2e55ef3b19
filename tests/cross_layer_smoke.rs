//! Cross-layer smoke: the pinned golden campaign through every layer
//! that can run it.
//!
//! The golden swim campaign (Broadwell, K=60, X=8, seed 42, 5 steps)
//! must reach the canonical digest `golden_determinism` pins through
//! the bare tuner (whose cache ledger is pinned too), the overlapped
//! schedule under a seeded interleaving, a pause after Random and its
//! resume, a capacity-1 cache, a supervisor killed once and resumed, a 2-worker evaluation
//! plane and a 2-tenant daemon; and a Pareto run must report
//! the same front bare and on 2 workers. This is the tier-1 check that
//! no layer moves a campaign's bytes.

use funcytuner::prelude::*;
use funcytuner::tuning::journal::temp_journal_path;
use funcytuner::tuning::{Objective, Phase};
use std::path::PathBuf;

/// `GOLDEN_CANONICAL_DIGEST` of the golden-determinism suite.
const GOLDEN_DIGEST: u64 = 0xEC26_62A1_81C1_12F2;

/// Removes a journal file or daemon directory on drop.
struct Scratch(PathBuf);
impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn golden<'a>(w: &'a Workload, arch: &'a Architecture) -> Tuner<'a> {
    Tuner::new(w, arch)
        .budget(60)
        .focus(8)
        .seed(42)
        .cap_steps(5)
}

#[test]
fn golden_campaign_digest_holds_through_every_layer() {
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");

    let bare = golden(&w, &arch).run();
    assert_eq!(bare.canonical_digest(), GOLDEN_DIGEST, "bare");
    // The bare run evaluates through its private store; its cache
    // ledger is deterministic because an unbounded store never evicts.
    let cost = bare.ctx.cost();
    assert_eq!(
        [
            cost.object_compiles,
            cost.object_reuses,
            cost.object_evictions,
            cost.links,
            cost.link_reuses,
            cost.link_evictions,
        ],
        [954, 498, 0, 242, 9, 0],
        "bare cache ledger"
    );

    let overlapped = golden(&w, &arch).overlap_phases().interleave(7).run();
    assert_eq!(
        overlapped.canonical_digest(),
        GOLDEN_DIGEST,
        "overlapped, interleave 7"
    );

    let paused = golden(&w, &arch).run_until_phases(&[Phase::Random]);
    let resumed = golden(&w, &arch).resume(paused).expect("own checkpoint");
    assert_eq!(resumed.canonical_digest(), GOLDEN_DIGEST, "pause + resume");

    let bounded = golden(&w, &arch)
        .cache_capacity(CacheCapacity::Entries(1))
        .run();
    assert_eq!(bounded.canonical_digest(), GOLDEN_DIGEST, "capacity 1");

    let wal = Scratch(temp_journal_path("cross-layer"));
    let killed = Supervisor::new(&wal.0, || golden(&w, &arch))
        .chaos(ChaosPolicy::KillOnce { boundary: 2 })
        .run()
        .expect("supervised campaign converges");
    assert_eq!(killed.report.kills, 1, "the kill must fire");
    assert_eq!(
        killed.run.canonical_digest(),
        GOLDEN_DIGEST,
        "kill + resume"
    );
    let resumed = Supervisor::new(&wal.0, || golden(&w, &arch))
        .run()
        .expect("finished journal replays");
    assert_eq!(resumed.report.checkpoints_written, 0, "replay redid work");
    assert_eq!(resumed.run.canonical_digest(), GOLDEN_DIGEST, "replay");

    let workers = golden(&w, &arch).workers(2).run();
    assert_eq!(workers.canonical_digest(), GOLDEN_DIGEST, "workers(2)");

    let dir = Scratch(temp_journal_path("cross-layer-daemon"));
    let mut server = TuningServer::new(ServerConfig::new(&dir.0).threads(2)).expect("daemon dir");
    let mut spec = CampaignSpec::new("swim", "broadwell");
    spec.budget = 60;
    spec.focus = 8;
    spec.seed = 42;
    spec.steps_cap = Some(5);
    for tenant in ["alpha", "beta"] {
        server.submit(tenant, spec.clone()).expect("admission");
    }
    let report = server.run();
    for tenant in ["alpha", "beta"] {
        match &report.tenant(tenant).expect("tenant reported").outcome {
            TenantOutcome::Done { digest, .. } => {
                assert_eq!(*digest, GOLDEN_DIGEST, "daemon tenant {tenant}")
            }
            other => panic!("daemon tenant {tenant} ended as {other:?}"),
        }
    }
}

#[test]
fn pareto_front_is_equal_bare_and_on_two_workers() {
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").expect("swim in suite");
    let pareto = || golden(&w, &arch).objective(Objective::Pareto);
    let bare = pareto().run();
    let workers = pareto().workers(2).run();
    assert!(!bare.cfr.front.is_empty(), "a Pareto run reports a front");
    // Every phase's front, every float by bit pattern.
    let key = |run: &TuningRun| -> Vec<(usize, u64, u64, Vec<Cv>)> {
        [&run.random, &run.fr, &run.greedy.realized, &run.cfr]
            .into_iter()
            .flat_map(|r| &r.front)
            .map(|p| {
                (
                    p.index,
                    p.time.to_bits(),
                    p.code_bytes.to_bits(),
                    p.assignment.clone(),
                )
            })
            .collect()
    };
    assert_eq!(key(&bare), key(&workers), "front moved on 2 workers");
    assert_eq!(bare.canonical_bytes(), workers.canonical_bytes());
}
