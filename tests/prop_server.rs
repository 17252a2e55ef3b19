//! Cross-crate property tests for the multi-tenant tuning daemon:
//! random tenant mixes hold the tenancy-equivalence and budget
//! contracts exactly.
//!
//! For arbitrary populations (random seeds, budgets, fault models,
//! run caps) at random executor widths:
//!
//! * every tenant that finishes is digest-equal to its solo run;
//! * every tenant stopped by its run cap is charged at most the cap,
//!   stops within one segment of it, and is left at *exactly* the
//!   checkpoint an independent serial segment-advance with the same
//!   budget rule produces;
//! * every ledger balances (`runs == ok + crashes + timeouts`).

use funcytuner::compiler::FaultModel;
use funcytuner::tuning::supervisor::{default_segments, CampaignRecord};
use funcytuner::tuning::{
    CampaignCheckpoint, CampaignSpec, ObjectStore, ServerConfig, TenantOutcome, TuningServer,
};
use funcytuner::workloads::workload_by_name;
use proptest::prelude::*;
use std::sync::Arc;

/// Raw generator tuple for one tenant:
/// `(seed, budget, faulty, cap_selector, cap_value)`.
type TenantDraw = (u64, usize, bool, u64, u64);

fn make_spec((seed, budget, faulty, cap_sel, cap_val): TenantDraw) -> CampaignSpec {
    let mut s = CampaignSpec::new("swim", "broadwell");
    s.seed = seed;
    s.budget = budget;
    s.focus = 8;
    s.steps_cap = Some(3);
    s.run_cap = match cap_sel {
        0 | 1 => None,      // uncapped
        2 => Some(cap_val), // binding cap somewhere mid-campaign
        _ => Some(0),       // degenerate: exhausted before segment 1
    };
    if faulty {
        s.with_fault_model(FaultModel::testbed(seed.wrapping_mul(0x9E37)))
    } else {
        s
    }
}

fn tenant_draw() -> impl Strategy<Value = TenantDraw> {
    (0u64..1000, 20usize..61, any::<bool>(), 0u64..4, 1u64..121)
}

fn record_bytes(cp: &CampaignCheckpoint) -> Vec<u8> {
    CampaignRecord::checkpoint(cp.clone(), 1)
        .to_bytes()
        .expect("encodes")
}

/// What a tenant's campaign should come to, computed by a serial
/// segment-advance loop with the server's budget rule: gate on
/// `runs >= cap` before every segment and before the final resume.
enum Expected {
    Done {
        digest: u64,
    },
    Exhausted {
        /// The checkpoint's WAL record bytes.
        checkpoint: Option<Vec<u8>>,
        runs: u64,
    },
}

fn expected_outcome(spec: &CampaignSpec) -> Expected {
    let workload = workload_by_name(&spec.workload).expect("workload in suite");
    let arch = funcytuner::tuning::server::arch_by_name(&spec.arch).expect("known arch");
    let cap = spec.run_cap.unwrap_or(u64::MAX);
    let mut runs = 0u64;
    let mut checkpoint: Option<CampaignCheckpoint> = None;
    for segment in &default_segments() {
        if runs >= cap {
            return Expected::Exhausted {
                checkpoint: checkpoint.as_ref().map(record_bytes),
                runs,
            };
        }
        // The gate just passed with `runs < cap`, so even if this
        // segment crosses the cap, overshoot is bounded by the one
        // segment — the "within one batch" half of the contract.
        let paused = match checkpoint.take() {
            None => spec
                .build_tuner(&workload, &arch)
                .run_until_phases_costed(segment),
            Some(cp) => spec
                .build_tuner(&workload, &arch)
                .resume_until_phases_costed(cp, segment)
                .expect("own checkpoint resumes"),
        };
        runs += paused.cost.runs;
        checkpoint = Some(paused.checkpoint);
    }
    if runs >= cap {
        return Expected::Exhausted {
            checkpoint: checkpoint.as_ref().map(record_bytes),
            runs,
        };
    }
    let run = spec
        .build_tuner(&workload, &arch)
        .resume(checkpoint.expect("all segments ran"))
        .expect("final resume");
    Expected::Done {
        digest: run.canonical_digest(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_tenant_mixes_hold_equivalence_and_budget_contracts(
        draws in (tenant_draw(), tenant_draw(), tenant_draw()),
        population in 1usize..4,
        threads in 1usize..5,
        case in any::<u64>(),
    ) {
        let specs: Vec<CampaignSpec> = [draws.0, draws.1, draws.2]
            .into_iter()
            .take(population)
            .map(make_spec)
            .collect();
        let expected: Vec<Expected> = specs.iter().map(expected_outcome).collect();
        let dir = funcytuner::tuning::journal::temp_journal_path(
            &format!("prop-server-{case:016x}"),
        );
        let mut server = TuningServer::new(
            ServerConfig::new(&dir)
                .threads(threads)
                .shared_store(Arc::new(ObjectStore::new())),
        )
        .expect("server dir");
        for (i, spec) in specs.iter().enumerate() {
            server.submit(format!("t{i}"), spec.clone()).expect("admission");
        }
        let report = server.run();
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(report.kills, 0);
        for (i, (spec, want)) in specs.iter().zip(&expected).enumerate() {
            let t = report.tenant(&format!("t{i}")).expect("tenant reported");
            let label = format!("tenant t{i} (threads={threads})");
            prop_assert_eq!(
                t.cost.runs,
                t.faults.charged_runs(),
                "{} ledger out of balance",
                label
            );
            if let Some(cap) = spec.run_cap {
                prop_assert!(
                    t.charged_runs <= cap,
                    "{} charged {} past its cap {}",
                    label, t.charged_runs, cap
                );
            }
            match (want, &t.outcome) {
                (Expected::Done { digest }, TenantOutcome::Done { digest: got, .. }) => {
                    prop_assert_eq!(*digest, *got, "{} digest vs solo", label);
                }
                (
                    Expected::Exhausted { checkpoint, runs },
                    TenantOutcome::BudgetExhausted { checkpoint: got },
                ) => {
                    let cap = spec.run_cap.expect("exhaustion implies a cap");
                    prop_assert!(
                        t.cost.runs >= cap,
                        "{} stopped below its cap: {} < {}",
                        label, t.cost.runs, cap
                    );
                    prop_assert_eq!(
                        *runs, t.cost.runs,
                        "{} raw charge vs serial comparator", label
                    );
                    let got = got.as_deref().map(record_bytes);
                    prop_assert_eq!(
                        checkpoint.clone(), got,
                        "{} checkpoint vs serial comparator", label
                    );
                }
                (_, outcome) => {
                    return Err(proptest::TestCaseError::fail(format!(
                        "{label}: outcome {outcome:?} disagrees with the serial comparator"
                    )));
                }
            }
        }
    }
}
