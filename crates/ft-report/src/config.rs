//! Reproduction presets.

use ft_compiler::{CacheCapacity, FaultModel};
use ft_flags::rng::derive_seed;

/// Parameters controlling the scale of a reproduction run.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Root seed; all experiments derive independent sub-seeds.
    pub seed: u64,
    /// Sample budget K (paper: 1000).
    pub k: usize,
    /// CFR focus width X (top-X per-loop pruning).
    pub x: usize,
    /// Optional cap on simulation time-steps (quick mode).
    pub steps_cap: Option<u32>,
    /// COBAYN training scale (1.0 = 24 kernels × 1000 samples).
    pub cobayn_scale: f64,
    /// OpenTuner test-iteration budget (paper: 1000).
    pub opentuner_budget: usize,
    /// Injected compile-failure probability per `(module, CV)` pair.
    pub fault_compile: f64,
    /// Injected transient-crash probability per run.
    pub fault_crash: f64,
    /// Injected hang probability per executable.
    pub fault_hang: f64,
    /// Injected outlier-measurement probability per run.
    pub fault_outlier: f64,
    /// Add the iterative-CFR extension rows (`CFR-iterative` and the
    /// re-collecting `CFR-iter-recollect`) to the overhead table.
    pub cfr_iterative: bool,
    /// Bound every context's object/link caches to this many entries
    /// (LRU eviction; `None` = unbounded). Result-invariant: eviction
    /// only moves the cost counters.
    pub cache_capacity: Option<u64>,
}

impl ReproConfig {
    /// Laptop-scale preset: same qualitative shapes in minutes.
    pub fn quick() -> Self {
        ReproConfig {
            seed: 42,
            k: 200,
            x: 16,
            steps_cap: Some(5),
            cobayn_scale: 0.08,
            opentuner_budget: 250,
            fault_compile: 0.0,
            fault_crash: 0.0,
            fault_hang: 0.0,
            fault_outlier: 0.0,
            cfr_iterative: false,
            cache_capacity: None,
        }
    }

    /// The paper's protocol: K = 1000 samples, X = 32, full inputs.
    pub fn full() -> Self {
        ReproConfig {
            seed: 42,
            k: 1000,
            x: 32,
            steps_cap: None,
            cobayn_scale: 1.0,
            opentuner_budget: 1000,
            fault_compile: 0.0,
            fault_crash: 0.0,
            fault_hang: 0.0,
            fault_outlier: 0.0,
            cfr_iterative: false,
            cache_capacity: None,
        }
    }

    /// The cache capacity as the engine's enum.
    pub fn capacity(&self) -> CacheCapacity {
        match self.cache_capacity {
            Some(n) => CacheCapacity::Entries(n as usize),
            None => CacheCapacity::Unbounded,
        }
    }

    /// Applies the step cap to an input's step count.
    pub fn steps(&self, input_steps: u32) -> u32 {
        match self.steps_cap {
            Some(cap) => input_steps.min(cap),
            None => input_steps,
        }
    }

    /// The injected-fault model these rates describe, seeded off the
    /// config's root seed so every experiment rolls the same faults.
    pub fn fault_model(&self) -> FaultModel {
        FaultModel::with_rates(
            derive_seed(self.seed, "faults"),
            self.fault_compile,
            self.fault_crash,
            self.fault_hang,
            self.fault_outlier,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_scale() {
        let q = ReproConfig::quick();
        let f = ReproConfig::full();
        assert!(q.k < f.k);
        assert_eq!(f.k, 1000);
        assert_eq!(f.x, 32);
        assert!(f.steps_cap.is_none());
    }

    #[test]
    fn step_cap_applies_only_in_quick_mode() {
        assert_eq!(ReproConfig::quick().steps(60), 5);
        assert_eq!(ReproConfig::full().steps(60), 60);
        assert_eq!(ReproConfig::quick().steps(3), 3);
    }

    #[test]
    fn capacity_maps_to_engine_enum() {
        let mut cfg = ReproConfig::quick();
        assert_eq!(cfg.capacity(), CacheCapacity::Unbounded);
        cfg.cache_capacity = Some(64);
        assert_eq!(cfg.capacity(), CacheCapacity::Entries(64));
    }
}
