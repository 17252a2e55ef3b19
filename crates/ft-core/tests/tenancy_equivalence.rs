//! The tenancy-equivalence harness: the headline proof that the
//! multi-tenant tuning daemon is *byte-identical*, per tenant, to each
//! tenant running alone.
//!
//! For each fault model × executor thread count {1, 4, 16}, a mixed
//! tenant population (distinct seeds, distinct budgets, and an exact
//! clone pair) runs interleaved on one daemon over one shared
//! [`ObjectStore`]. Against per-tenant solo references
//! (`CampaignSpec::build_tuner(..).run()`, private store):
//!
//! 1. Every tenant's finished run must be byte-equal on
//!    `canonical_bytes()` — concurrency level and co-tenants must not
//!    leak a single bit.
//! 2. Every tenant's ledger must balance:
//!    `cost.runs == ok_runs + crashes + timeouts`.
//! 3. Per-tenant store attribution must sum exactly to the store-wide
//!    totals — the daemon bills every hit and miss to exactly one
//!    tenant.
//! 4. Deduplication must demonstrably cross tenant boundaries: with a
//!    clone pair aboard, the store computes strictly fewer objects
//!    than the tenants' summed solo demand, so cross-tenant hits > 0
//!    by pigeonhole.
//! 5. A daemon killed mid-campaign (chaos at a WAL-append boundary)
//!    must restart as `generation + 1`, resume every unfinished tenant
//!    from its journal, and still converge to the solo bytes.
//! 6. The daemon and the `Supervisor` drive one segment executor: the
//!    same spec writes the same WAL through either, record for record.

use ft_compiler::FaultModel;
use ft_core::supervisor::{default_segments, CampaignRecord, RECORD_CHECKPOINT, RECORD_DONE};
use ft_core::{
    CampaignSpec, ChaosPolicy, Journal, ObjectStore, ProgressEvent, ServerConfig, Supervisor,
    SupervisorConfig, SupervisorError, TenantOutcome, TuningRun, TuningServer,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn spec(seed: u64, budget: usize, faults: FaultModel) -> CampaignSpec {
    let mut s = CampaignSpec::new("swim", "broadwell");
    s.budget = budget;
    s.focus = 8;
    s.seed = seed;
    s.steps_cap = Some(5);
    s.with_fault_model(faults)
}

/// The tenant population: two distinct seeds, a distinct budget, and
/// an exact clone of `alpha` (same spec, different name) so the
/// cross-tenant dedup bound is provable.
fn population(faults: FaultModel) -> Vec<(&'static str, CampaignSpec)> {
    vec![
        ("alpha", spec(42, 60, faults)),
        ("beta", spec(99, 40, faults)),
        ("gamma", spec(42, 60, faults)), // clone of alpha
        ("delta", spec(7, 60, faults)),
    ]
}

fn fault_models() -> [(&'static str, FaultModel); 2] {
    [
        ("zero", FaultModel::zero()),
        ("testbed", FaultModel::testbed(0xFA17)),
    ]
}

/// Solo reference: the identical campaign run alone, on its own
/// private store (so the daemon's store totals stay tenant-only).
fn solo(spec: &CampaignSpec) -> TuningRun {
    let workload = ft_workloads::workload_by_name(&spec.workload).expect("workload in suite");
    let arch = ft_core::server::arch_by_name(&spec.arch).expect("known arch");
    spec.build_tuner(&workload, &arch).run()
}

fn temp_dir(label: &str) -> PathBuf {
    ft_core::journal::temp_journal_path(label)
}

fn assert_bytes_equal(reference: &TuningRun, run: &TuningRun, label: &str) {
    assert_eq!(
        reference.canonical_digest(),
        run.canonical_digest(),
        "{label}: canonical digests diverged"
    );
    assert_eq!(
        reference.canonical_bytes(),
        run.canonical_bytes(),
        "{label}: canonical bytes diverged"
    );
}

#[test]
fn every_tenant_is_byte_identical_to_its_solo_run_at_any_concurrency() {
    for (fname, faults) in fault_models() {
        let tenants = population(faults);
        let solos: Vec<TuningRun> = tenants.iter().map(|(_, s)| solo(s)).collect();
        let solo_demand: u64 = solos.iter().map(|r| r.ctx.cost().object_compiles).sum();
        let alpha_demand = solos[0].ctx.cost().object_compiles;
        assert!(alpha_demand > 0, "campaign must compile something");

        for threads in [1usize, 4, 16] {
            let label = format!("faults={fname} threads={threads}");
            let dir = temp_dir(&format!("tenancy-{fname}-{threads}"));
            let store = Arc::new(ObjectStore::new());
            let mut server = TuningServer::new(
                ServerConfig::new(&dir)
                    .threads(threads)
                    .shared_store(store.clone()),
            )
            .expect("server dir");
            for (name, spec) in &tenants {
                server.submit(*name, spec.clone()).expect("admission");
            }
            let report = server.run();
            let _ = std::fs::remove_dir_all(&dir);

            assert_eq!(report.kills, 0, "{label}: no chaos configured");
            assert!(report.all_settled(), "{label}: every tenant must settle");

            let mut hits_sum = 0u64;
            let mut misses_sum = 0u64;
            let mut link_hits_sum = 0u64;
            let mut link_misses_sum = 0u64;
            for ((name, _), reference) in tenants.iter().zip(&solos) {
                let t = report.tenant(name).expect("tenant reported");
                let tlabel = format!("{label} tenant={name}");
                match &t.outcome {
                    TenantOutcome::Done { run, digest } => {
                        assert_eq!(
                            *digest,
                            reference.canonical_digest(),
                            "{tlabel}: digest vs solo"
                        );
                        assert_bytes_equal(reference, run, &tlabel);
                    }
                    other => panic!("{tlabel}: expected Done, got {other:?}"),
                }
                // Per-tenant ledger: every run the tenant was charged
                // for is attributed to exactly one fate.
                assert_eq!(
                    t.cost.runs,
                    t.faults.charged_runs(),
                    "{tlabel}: ledger out of balance: {:?} vs {:?}",
                    t.cost,
                    t.faults
                );
                assert!(
                    t.events
                        .iter()
                        .any(|e| matches!(e, ProgressEvent::Done { .. })),
                    "{tlabel}: missing Done event"
                );
                assert_eq!(
                    t.events
                        .iter()
                        .filter(|e| matches!(e, ProgressEvent::SegmentCommitted { .. }))
                        .count(),
                    t.segments_run,
                    "{tlabel}: one SegmentCommitted event per segment"
                );
                hits_sum += t.cost.object_reuses;
                misses_sum += t.cost.object_compiles;
                link_hits_sum += t.cost.link_reuses;
                link_misses_sum += t.cost.links;
            }

            // Attribution sums exactly to the store-wide ledger: the
            // daemon never loses or double-bills a lookup.
            let object = store.object_stats();
            let link = store.link_stats();
            assert_eq!(hits_sum, object.hits, "{label}: object hit attribution");
            assert_eq!(
                misses_sum, object.misses,
                "{label}: object miss attribution"
            );
            assert_eq!(link_hits_sum, link.hits, "{label}: link hit attribution");
            assert_eq!(
                link_misses_sum, link.misses,
                "{label}: link miss attribution"
            );

            // Cross-tenant dedup, by pigeonhole: each tenant's unique
            // compile demand equals its solo miss count, and the clone
            // pair's demands coincide, so the store can satisfy the
            // population with at most `solo_demand - alpha_demand`
            // computes. Every compile short of a tenant's solo demand
            // was served by an object another tenant computed.
            assert!(
                misses_sum <= solo_demand - alpha_demand,
                "{label}: store computed {misses_sum} objects, \
                 expected at most {} (clone pair must dedup)",
                solo_demand - alpha_demand
            );
            let cross_tenant_hits = solo_demand - misses_sum;
            assert!(cross_tenant_hits > 0, "{label}: no cross-tenant store hits");
        }
    }
}

#[test]
fn a_killed_daemon_restarts_and_resumes_every_tenant_byte_identically() {
    let faults = FaultModel::testbed(0xFA17);
    let tenants = population(faults);
    let solos: Vec<TuningRun> = tenants.iter().map(|(_, s)| solo(s)).collect();
    let dir = temp_dir("tenancy-daemon-kill");
    let store = Arc::new(ObjectStore::new());

    // Life 1: chaos kills the daemon at the third WAL append, with
    // some tenants mid-campaign.
    let mut first = TuningServer::new(
        ServerConfig::new(&dir)
            .threads(4)
            .generation(1)
            .chaos(ChaosPolicy::KillOnce { boundary: 2 })
            .shared_store(store.clone()),
    )
    .expect("server dir");
    for (name, spec) in &tenants {
        first.submit(*name, spec.clone()).expect("admission");
    }
    let report = first.run();
    assert_eq!(report.kills, 1, "life 1 must die at the kill-point");
    assert!(
        report
            .tenants
            .iter()
            .any(|t| matches!(t.outcome, TenantOutcome::Killed)),
        "the kill must strand at least one tenant"
    );
    let committed: usize = report.tenants.iter().map(|t| t.segments_run).sum();
    assert!(committed > 0, "life 1 must commit some segments first");

    // Life 2: same directory, same store, generation + 1, chaos off.
    // Every tenant resumes from its journal and finishes.
    let mut second = TuningServer::new(
        ServerConfig::new(&dir)
            .threads(4)
            .generation(2)
            .shared_store(store.clone()),
    )
    .expect("server dir");
    for (name, spec) in &tenants {
        second.submit(*name, spec.clone()).expect("resubmission");
    }
    let report = second.run();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(report.generation, 2);
    assert_eq!(report.kills, 0);
    let mut resumed_tenants = 0;
    for ((name, _), reference) in tenants.iter().zip(&solos) {
        let t = report.tenant(name).expect("tenant reported");
        let label = format!("restart tenant={name}");
        match &t.outcome {
            TenantOutcome::Done { run, .. } => assert_bytes_equal(reference, run, &label),
            other => panic!("{label}: expected Done, got {other:?}"),
        }
        assert_eq!(t.cost.runs, t.faults.charged_runs(), "{label}: ledger");
        if t.events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Resumed { records } if *records > 0))
        {
            resumed_tenants += 1;
        }
    }
    assert!(
        resumed_tenants > 0,
        "life 2 must actually resume journaled progress, not start fresh"
    );
}

/// Every record of a WAL as (kind, checkpoint record bytes, digest):
/// all a record holds except the `attempt` that wrote it, which is a
/// supervisor attempt on one side and a daemon generation on the other.
fn wal_records(path: &Path) -> Vec<(String, Option<Vec<u8>>, Option<String>)> {
    Journal::recover(path)
        .expect("wal")
        .records
        .iter()
        .map(|bytes| {
            let record = CampaignRecord::from_bytes(bytes).expect("record parses");
            let checkpoint = record.checkpoint.map(|cp| {
                CampaignRecord::checkpoint(cp, 1)
                    .to_bytes()
                    .expect("encodes")
            });
            (record.kind, checkpoint, record.digest)
        })
        .collect()
}

#[test]
fn supervisor_and_daemon_tenant_write_the_same_wal() {
    let segments = default_segments().len();
    for (fname, faults) in fault_models() {
        let spec = spec(42, 60, faults);
        let workload = ft_workloads::workload_by_name(&spec.workload).expect("workload in suite");
        let arch = ft_core::server::arch_by_name(&spec.arch).expect("known arch");
        let supervisor_wal = ft_core::journal::temp_journal_path(&format!("cross-driver-{fname}"));
        let dir = temp_dir(&format!("cross-driver-daemon-{fname}"));
        let tenant_wal = dir.join("tenant-lone.wal");
        let supervise = |chaos, max_attempts| {
            Supervisor::new(&supervisor_wal, || spec.build_tuner(&workload, &arch))
                .chaos(chaos)
                .config(SupervisorConfig {
                    max_attempts,
                    ..SupervisorConfig::default()
                })
                .run()
        };
        // A lone tenant's WAL appends are the server-wide append
        // ordinal, so both drivers die at the same record boundary.
        let daemon_life = |generation, chaos| {
            let mut server = TuningServer::new(
                ServerConfig::new(&dir)
                    .threads(1)
                    .generation(generation)
                    .chaos(chaos),
            )
            .expect("server dir");
            server.submit("lone", spec.clone()).expect("admission");
            server.run()
        };

        // Kill both just before the done record: every checkpoint the
        // campaign wrote is still in the WAL.
        let kill = ChaosPolicy::KillOnce { boundary: segments };
        assert!(matches!(
            supervise(kill, 1),
            Err(SupervisorError::AttemptsExhausted { .. })
        ));
        assert_eq!(daemon_life(1, kill).kills, 1, "faults={fname}");
        let checkpoints = wal_records(&supervisor_wal);
        assert_eq!(checkpoints.len(), segments, "faults={fname}");
        assert!(
            checkpoints
                .iter()
                .all(|(kind, ..)| kind == RECORD_CHECKPOINT),
            "faults={fname}"
        );
        assert!(
            checkpoints == wal_records(&tenant_wal),
            "faults={fname}: the checkpoint records diverged"
        );

        // Finish both: each WAL compacts to one equal done record.
        let finished = supervise(ChaosPolicy::Off, 1).expect("supervisor finishes");
        let report = daemon_life(2, ChaosPolicy::Off);
        match &report.tenant("lone").expect("reported").outcome {
            TenantOutcome::Done { digest, .. } => {
                assert_eq!(*digest, finished.run.canonical_digest(), "faults={fname}")
            }
            other => panic!("faults={fname}: expected Done, got {other:?}"),
        }
        let done = wal_records(&supervisor_wal);
        assert_eq!(done.len(), 1, "faults={fname}");
        assert_eq!(done[0].0, RECORD_DONE, "faults={fname}");
        assert!(
            done == wal_records(&tenant_wal),
            "faults={fname}: the done records diverged"
        );
        let _ = std::fs::remove_file(&supervisor_wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
