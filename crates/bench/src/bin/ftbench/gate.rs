//! The output-correctness gate that runs before anything is timed: the
//! pinned golden campaign (swim/Broadwell, K=60, X=8, seed 42, 5 steps;
//! `crates/ft-core/tests/golden_determinism.rs`) must reach the pinned
//! canonical digest through every path the workloads time — bare,
//! supervised, sharded across two workers, and as a daemon tenant.

use crate::workload::{remove, Scratch};
use ft_core::{CampaignSpec, ServerConfig, Supervisor, TenantOutcome, Tuner, TuningServer};
use ft_machine::Architecture;
use ft_workloads::workload_by_name;

/// `GOLDEN_CANONICAL_DIGEST` of the golden-determinism suite.
pub const GOLDEN_DIGEST: u64 = 0xEC26_62A1_81C1_12F2;

/// Checks every path; the error names the first one that disagrees.
pub fn check(scratch: &Scratch) -> Result<(), String> {
    let arch = Architecture::broadwell();
    let w = workload_by_name("swim").ok_or("swim missing from the suite")?;
    let tuner = || {
        Tuner::new(&w, &arch)
            .budget(60)
            .focus(8)
            .seed(42)
            .cap_steps(5)
    };
    let expect = |path: &str, digest: u64| {
        if digest == GOLDEN_DIGEST {
            Ok(())
        } else {
            Err(format!(
                "golden campaign through the {path} path digests to {digest:#018X}, \
                 pinned {GOLDEN_DIGEST:#018X}"
            ))
        }
    };

    expect("bare", tuner().run().canonical_digest())?;

    let wal = scratch.path("gate");
    let supervised = Supervisor::new(&wal, tuner).run();
    remove(&wal);
    let supervised = supervised.map_err(|e| format!("golden campaign supervised: {e}"))?;
    expect("supervised", supervised.run.canonical_digest())?;

    expect("workers(2)", tuner().workers(2).run().canonical_digest())?;

    let dir = scratch.path("gate-daemon");
    let mut server = TuningServer::new(ServerConfig::new(&dir).threads(2))
        .map_err(|e| format!("gate daemon directory: {e}"))?;
    let mut spec = CampaignSpec::new("swim", "broadwell");
    spec.budget = 60;
    spec.focus = 8;
    spec.seed = 42;
    spec.steps_cap = Some(5);
    server
        .submit("golden", spec)
        .map_err(|e| format!("gate tenant refused: {e}"))?;
    let report = server.run();
    remove(&dir);
    match report.tenant("golden").map(|t| &t.outcome) {
        Some(TenantOutcome::Done { digest, .. }) => expect("daemon tenant", *digest),
        other => Err(format!("golden daemon tenant ended as {other:?}")),
    }
}
