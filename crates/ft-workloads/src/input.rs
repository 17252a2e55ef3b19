//! Benchmark inputs: Table 2 tuning inputs and §4.3 input variants.

use serde::{Deserialize, Serialize};

/// One concrete benchmark input.
///
/// `size_scale` multiplies every loop's trip count (and, via
/// `ws_scale`, its working set) relative to the Broadwell tuning input,
/// which is the reference scale 1.0. `steps` is the number of
/// simulation time-steps to run — the paper trims steps so every run
/// stays under 40 s at `-O3` (§3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputConfig {
    /// Input name (`tune`, `small`, `large`, `train`, `test`, `ref`, ...).
    pub name: String,
    /// Trip-count multiplier vs the Broadwell tuning input.
    pub size_scale: f64,
    /// Working-set multiplier vs the Broadwell tuning input.
    pub ws_scale: f64,
    /// Simulation time-steps.
    pub steps: u32,
    /// Human-readable problem-size label from the paper (e.g. `200`
    /// for LULESH's 200³ mesh).
    pub label: String,
}

impl InputConfig {
    /// Builds an input; `ws_scale` defaults to `size_scale`.
    pub fn new(name: &str, size_scale: f64, steps: u32, label: &str) -> Self {
        InputConfig {
            name: name.to_string(),
            size_scale,
            ws_scale: size_scale,
            steps,
            label: label.to_string(),
        }
    }

    /// Overrides the working-set scale.
    pub fn with_ws_scale(mut self, ws_scale: f64) -> Self {
        self.ws_scale = ws_scale;
        self
    }

    /// Same input with a different number of time-steps (used by the
    /// Figure 8 time-step scaling study).
    pub fn with_steps(&self, steps: u32) -> Self {
        let mut c = self.clone();
        c.steps = steps;
        c.name = format!("{}-{}steps", self.name, steps);
        c
    }

    /// Scale derived from a linear mesh dimension: `(n/n_ref)^dim`.
    ///
    /// `powf`, not `powi`: `powi`'s rounding depends on the
    /// optimization level (a release build folds a constant `powi`
    /// through a correctly rounded `pow`, a debug build multiplies and
    /// rounds twice: `0.6^3` is `0.21599999999999997` against `0.216`),
    /// so the two builds would tune different inputs.
    pub fn from_mesh(name: &str, n: f64, n_ref: f64, dim: i32, steps: u32) -> Self {
        let scale = (n / n_ref).powf(f64::from(dim));
        InputConfig::new(name, scale, steps, &format!("{n}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_scaling_is_dimensional() {
        let i = InputConfig::from_mesh("tune", 120.0, 200.0, 3, 10);
        assert!((i.size_scale - 0.216).abs() < 1e-12);
        assert_eq!(i.ws_scale, i.size_scale);
        let j = InputConfig::from_mesh("tune", 1000.0, 2000.0, 2, 30);
        assert!((j.size_scale - 0.25).abs() < 1e-12);
    }

    #[test]
    fn with_steps_renames() {
        let i = InputConfig::new("tune", 1.0, 60, "2000").with_steps(800);
        assert_eq!(i.steps, 800);
        assert_eq!(i.size_scale, 1.0);
        assert!(i.name.contains("800"));
    }

    #[test]
    fn ws_scale_override() {
        let i = InputConfig::new("x", 2.0, 5, "x").with_ws_scale(1.5);
        assert_eq!(i.size_scale, 2.0);
        assert_eq!(i.ws_scale, 1.5);
    }
}
