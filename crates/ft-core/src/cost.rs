//! Tuning-overhead accounting (§4.3).
//!
//! The paper quantifies the cost of each tuning approach in wall-clock
//! days on the testbeds: ~1.5 days for Random/G, 2 days for OpenTuner,
//! 3 days for CFR, and a week for COBAYN — amortized over repeated
//! production runs. Every [`crate::EvalContext`] keeps a ledger of the
//! work a search performed: object compilations (cache misses), object
//! reuses (cache hits — the build-system reuse per-loop tuning
//! enables), executable runs, and the *simulated machine time* those
//! runs would have cost on the modelled testbed.

use serde::{Deserialize, Serialize};

/// Accumulated tuning work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuningCost {
    /// Modules actually compiled (object-cache misses).
    pub object_compiles: u64,
    /// Modules reused from the object cache (hits).
    pub object_reuses: u64,
    /// Objects evicted to keep the cache within its capacity (0 for
    /// unbounded caches; store-global when a shared store is borrowed).
    #[serde(default)]
    pub object_evictions: u64,
    /// Whole-program links actually performed (link-cache misses).
    pub links: u64,
    /// Duplicate assignments that reused a cached `LinkedProgram`
    /// (link-cache hits) — the `xild` analogue of object reuse.
    pub link_reuses: u64,
    /// Linked programs evicted to keep the cache within its capacity.
    #[serde(default)]
    pub link_evictions: u64,
    /// Executable runs (each = linked program + execute + measure),
    /// including crashed and timed-out attempts: they occupied the
    /// machine, so the ledger charges them.
    pub runs: u64,
    /// Simulated machine time of all runs, seconds.
    pub machine_seconds: f64,
    /// Candidate evaluations aborted by an injected compile failure
    /// (nothing was linked or run, so nothing was charged).
    #[serde(default)]
    pub compile_failures: u64,
    /// Runs that crashed; each charged the partial time it consumed.
    #[serde(default)]
    pub crashes: u64,
    /// Runs killed at their timeout budget; each charged the budget.
    #[serde(default)]
    pub timeouts: u64,
    /// Re-executions performed after transient crashes.
    #[serde(default)]
    pub retries: u64,
    /// Evaluations skipped because a quarantine list already knew the
    /// candidate was bad.
    #[serde(default)]
    pub quarantined: u64,
}

impl TuningCost {
    /// A zeroed ledger.
    pub fn zero() -> Self {
        TuningCost {
            object_compiles: 0,
            object_reuses: 0,
            object_evictions: 0,
            links: 0,
            link_reuses: 0,
            link_evictions: 0,
            runs: 0,
            machine_seconds: 0.0,
            compile_failures: 0,
            crashes: 0,
            timeouts: 0,
            retries: 0,
            quarantined: 0,
        }
    }

    /// Difference vs an earlier snapshot of the same ledger (cost of
    /// the work in between).
    pub fn since(&self, earlier: &TuningCost) -> TuningCost {
        TuningCost {
            object_compiles: self.object_compiles - earlier.object_compiles,
            object_reuses: self.object_reuses - earlier.object_reuses,
            object_evictions: self.object_evictions - earlier.object_evictions,
            links: self.links - earlier.links,
            link_reuses: self.link_reuses - earlier.link_reuses,
            link_evictions: self.link_evictions - earlier.link_evictions,
            runs: self.runs - earlier.runs,
            machine_seconds: self.machine_seconds - earlier.machine_seconds,
            compile_failures: self.compile_failures - earlier.compile_failures,
            crashes: self.crashes - earlier.crashes,
            timeouts: self.timeouts - earlier.timeouts,
            retries: self.retries - earlier.retries,
            quarantined: self.quarantined - earlier.quarantined,
        }
    }

    /// Element-wise sum — merging per-phase ledgers at a DAG join
    /// point. Merging commutes, so the total is independent of the
    /// order concurrent phases completed in, and the balance
    /// `runs = successful + crashes + timeouts` is preserved: it holds
    /// per phase and every term is additive.
    pub fn merge(&self, other: &TuningCost) -> TuningCost {
        TuningCost {
            object_compiles: self.object_compiles + other.object_compiles,
            object_reuses: self.object_reuses + other.object_reuses,
            object_evictions: self.object_evictions + other.object_evictions,
            links: self.links + other.links,
            link_reuses: self.link_reuses + other.link_reuses,
            link_evictions: self.link_evictions + other.link_evictions,
            runs: self.runs + other.runs,
            machine_seconds: self.machine_seconds + other.machine_seconds,
            compile_failures: self.compile_failures + other.compile_failures,
            crashes: self.crashes + other.crashes,
            timeouts: self.timeouts + other.timeouts,
            retries: self.retries + other.retries,
            quarantined: self.quarantined + other.quarantined,
        }
    }

    /// Runs that failed but still occupied the machine. Together with
    /// successful runs these make up `runs`:
    /// `runs = successful + crashes + timeouts`.
    pub fn failed_charged_runs(&self) -> u64 {
        self.crashes + self.timeouts
    }

    /// Simulated machine time in hours.
    pub fn machine_hours(&self) -> f64 {
        self.machine_seconds / 3600.0
    }

    /// Fraction of module compilations avoided by object reuse.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.object_compiles + self.object_reuses;
        if total == 0 {
            0.0
        } else {
            self.object_reuses as f64 / total as f64
        }
    }

    /// Fraction of link steps avoided by link memoization.
    pub fn link_reuse_rate(&self) -> f64 {
        let total = self.links + self.link_reuses;
        if total == 0 {
            0.0
        } else {
            self.link_reuses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{cfr, random_search};
    use crate::collection::collect;
    use crate::ctx::testutil::ctx_for;

    #[test]
    fn ledger_arithmetic() {
        let a = TuningCost {
            object_compiles: 10,
            object_reuses: 30,
            links: 8,
            link_reuses: 2,
            runs: 5,
            machine_seconds: 100.0,
            crashes: 3,
            timeouts: 1,
            retries: 2,
            ..TuningCost::zero()
        };
        let b = TuningCost {
            object_compiles: 4,
            object_reuses: 10,
            links: 3,
            link_reuses: 1,
            runs: 2,
            machine_seconds: 40.0,
            crashes: 1,
            ..TuningCost::zero()
        };
        let d = a.since(&b);
        assert_eq!(d.crashes, 2);
        assert_eq!(d.timeouts, 1);
        assert_eq!(d.retries, 2);
        assert_eq!(a.failed_charged_runs(), 4);
        assert_eq!(d.object_compiles, 6);
        assert_eq!(d.links, 5);
        assert_eq!(d.link_reuses, 1);
        assert_eq!(d.runs, 3);
        assert!((a.link_reuse_rate() - 0.2).abs() < 1e-12);
        assert_eq!(TuningCost::zero().link_reuse_rate(), 0.0);
        assert!((d.machine_seconds - 60.0).abs() < 1e-12);
        assert!((a.reuse_rate() - 0.75).abs() < 1e-12);
        assert_eq!(TuningCost::zero().reuse_rate(), 0.0);
        assert!((a.machine_hours() - 100.0 / 3600.0).abs() < 1e-15);
        // merge is the inverse of since: b.merge(a.since(&b)) == a.
        let m = b.merge(&d);
        assert_eq!(m, a);
        // ...and commutes.
        assert_eq!(b.merge(&d), d.merge(&b));
    }

    #[test]
    fn searches_are_charged_to_the_ledger() {
        let ctx = ctx_for("swim", Some(3));
        let before = ctx.cost();
        let _ = random_search(&ctx, 30, 5);
        let after_random = ctx.cost().since(&before);
        assert!(after_random.runs >= 30, "runs = {}", after_random.runs);
        assert!(after_random.machine_seconds > 0.0);

        let data = collect(&ctx, 30, 5);
        let snapshot = ctx.cost();
        let _ = cfr(&ctx, &data, 8, 30, 6);
        let cfr_cost = ctx.cost().since(&snapshot);
        // CFR's re-sampling draws only from the CVs `collect` already
        // compiled, so its own cost is pure reuse: every object lookup
        // hits, and nothing new is compiled.
        assert!(
            cfr_cost.object_reuses > cfr_cost.object_compiles,
            "{cfr_cost:?}"
        );
        assert_eq!(cfr_cost.object_compiles, 0, "{cfr_cost:?}");
        // Distinct assignments each link once; the ledger records them.
        assert!(cfr_cost.links > 0, "{cfr_cost:?}");
    }

    #[test]
    fn cfr_costs_more_runs_than_random_per_paper() {
        // Paper §4.3: CFR's overhead (collection + re-sampling) is about
        // twice Random's (3 days vs 1.5 days).
        let ctx_r = ctx_for("swim", Some(3));
        let _ = random_search(&ctx_r, 40, 5);
        let random_cost = ctx_r.cost();

        let ctx_c = ctx_for("swim", Some(3));
        let data = collect(&ctx_c, 40, 5);
        let _ = cfr(&ctx_c, &data, 8, 40, 6);
        let cfr_cost = ctx_c.cost();

        let ratio = cfr_cost.machine_seconds / random_cost.machine_seconds.max(1e-9);
        assert!(
            (1.5..3.5).contains(&ratio),
            "CFR/Random machine-time ratio = {ratio} (paper: ~2x)"
        );
    }
}
