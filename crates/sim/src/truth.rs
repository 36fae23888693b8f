//! Hidden ground-truth execution law.
//!
//! Real hardware has interference behaviour nobody hands you as a table —
//! you benchmark it. This module plays the role of the hardware: a
//! slowdown-factor law whose coefficients deliberately differ from the
//! analyzer's priors, plus deterministic per-task execution jitter
//! (seeded, so experiments reproduce bit-for-bit).

use mist_hardware::Platform;
use mist_interference::{fit, InterferenceModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The simulator's execution law.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    model: InterferenceModel,
    /// Relative amplitude of per-task jitter.
    jitter: f64,
    seed: u64,
}

impl GroundTruth {
    /// Ground truth for a platform. The factors are intentionally *not*
    /// the analyzer defaults (`pcie_defaults` / `nvlink_defaults`): the
    /// gap is what interference fitting has to close.
    pub fn for_platform(platform: Platform) -> Self {
        let model = match platform {
            Platform::GcpL4 => InterferenceModel::from_pairwise(|i, j| match (i, j) {
                (0, 1) => 1.11,
                (0, 2) | (0, 3) => 1.05,
                (1, 0) => 1.15,
                (1, 2) | (1, 3) | (2, 1) | (3, 1) => 1.55,
                (2, 3) | (3, 2) => 1.10,
                (2, 0) | (3, 0) => 1.07,
                _ => 1.0,
            }),
            Platform::AwsA100 => InterferenceModel::from_pairwise(|i, j| match (i, j) {
                (0, 1) => 1.06,
                (0, 2) | (0, 3) => 1.04,
                (1, 0) => 1.10,
                (1, 2) | (1, 3) | (2, 1) | (3, 1) => 1.07,
                (2, 3) | (3, 2) => 1.09,
                (2, 0) | (3, 0) => 1.06,
                _ => 1.0,
            }),
        };
        GroundTruth {
            model,
            jitter: 0.01,
            seed: platform_seed(platform),
        }
    }

    /// A jitter-free ground truth (unit tests of exact quantities).
    pub fn noiseless(platform: Platform) -> Self {
        let mut gt = Self::for_platform(platform);
        gt.jitter = 0.0;
        gt
    }

    /// Executes one task: resolves the four stream busy-times
    /// `[compute, nccl, d2h, h2d]` into wall-clock seconds, with
    /// deterministic jitter keyed by `(stage, microbatch, phase)`.
    pub fn task_time(&self, streams: [f64; 4], stage: u32, microbatch: u32, is_bwd: bool) -> f64 {
        // The interference model orders streams [c, nccl, h2d, d2h].
        let tuple = [streams[0], streams[1], streams[3], streams[2]];
        let base = self.model.predict(tuple);
        if self.jitter == 0.0 {
            return base;
        }
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((stage as u64) << 34)
            .wrapping_add((microbatch as u64) << 2)
            .wrapping_add(is_bwd as u64);
        let mut rng = StdRng::seed_from_u64(key);
        base * (1.0 + rng.gen_range(-self.jitter..self.jitter))
    }

    /// Allocator overhead factor applied to measured peak memory —
    /// caching allocators round allocations and fragment slightly.
    pub fn allocator_overhead(&self) -> f64 {
        1.015
    }
}

fn platform_seed(platform: Platform) -> u64 {
    match platform {
        Platform::GcpL4 => 0x4C34,
        Platform::AwsA100 => 0xA100,
    }
}

/// Runs the interference micro-benchmark campaign: samples `n` random
/// co-running stream mixes and "measures" them on the ground truth —
/// the input to `mist_interference::fit` (paper §5.2.2's data-driven
/// approach).
pub fn benchmark_interference(platform: Platform, n: usize, seed: u64) -> Vec<([f64; 4], f64)> {
    let truth = GroundTruth::for_platform(platform);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut x = [0.0f64; 4];
        for v in x.iter_mut() {
            if rng.gen_bool(0.65) {
                *v = rng.gen_range(0.2e-3..30e-3);
            }
        }
        if x.iter().all(|v| *v == 0.0) {
            continue;
        }
        // Benchmarks run each mix in isolation: jitter-free measurement
        // of the interference law itself.
        let y = truth.model.predict(x);
        out.push((x, y));
    }
    out
}

/// Default calibration seed of every front door (`MistSession`,
/// `mist-cli`, the planner daemon).
pub const DEFAULT_SEED: u64 = 0xAB5EED;

/// Concurrent-kernel mixes benchmarked per calibration.
const CALIBRATION_SAMPLES: usize = 400;

/// The analyzer's uncalibrated interference factors for a platform:
/// PCIe contention on L4, NVLink on A100.
pub fn interference_prior(platform: Platform) -> InterferenceModel {
    match platform {
        Platform::GcpL4 => InterferenceModel::pcie_defaults(),
        Platform::AwsA100 => InterferenceModel::nvlink_defaults(),
    }
}

/// The calibration pass of §5.2.2: benchmark 400 concurrent kernel
/// mixes on the target (here the hidden ground truth) and fit the
/// platform prior's slowdown factors to them in 3000 iterations. A pure
/// function of `(platform, seed)`, recorded as the `session.calibrate`
/// span.
pub fn calibrate(platform: Platform, seed: u64) -> InterferenceModel {
    let _span = mist_telemetry::span!("session.calibrate", samples = CALIBRATION_SAMPLES);
    let samples = benchmark_interference(platform, CALIBRATION_SAMPLES, seed);
    fit(&interference_prior(platform), &samples, 3000, seed ^ 0x5EED).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_differs_from_analyzer_priors() {
        let truth = GroundTruth::noiseless(Platform::GcpL4);
        let prior = InterferenceModel::pcie_defaults();
        let x = [5e-3, 5e-3, 5e-3, 0.0];
        let a = truth.task_time(x, 0, 0, false);
        let b = prior.predict([x[0], x[1], x[3], x[2]]);
        assert!((a - b).abs() / b > 0.005, "truth and prior too similar");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let truth = GroundTruth::for_platform(Platform::GcpL4);
        let x = [10e-3, 1e-3, 0.0, 0.0];
        let t1 = truth.task_time(x, 3, 7, true);
        let t2 = truth.task_time(x, 3, 7, true);
        assert_eq!(t1, t2);
        let clean = GroundTruth::noiseless(Platform::GcpL4).task_time(x, 3, 7, true);
        assert!((t1 - clean).abs() / clean <= 0.01 + 1e-12);
        // Different tasks get different jitter.
        let t3 = truth.task_time(x, 3, 8, true);
        assert_ne!(t1, t3);
    }

    #[test]
    fn fitting_closes_the_gap_to_ground_truth() {
        // The full data-driven loop of §5.2.2: benchmark → fit → predict.
        let samples = benchmark_interference(Platform::GcpL4, 500, 42);
        let prior = InterferenceModel::pcie_defaults();
        let (_fitted, report) = fit(&prior, &samples, 4000, 7);
        assert!(
            report.final_error < 0.03,
            "fitted error {} should be small",
            report.final_error
        );
        assert!(report.final_error < report.initial_error);
    }

    #[test]
    fn a100_truth_is_gentler_than_l4() {
        let l4 = GroundTruth::noiseless(Platform::GcpL4);
        let a100 = GroundTruth::noiseless(Platform::AwsA100);
        let x = [5e-3, 5e-3, 5e-3, 5e-3];
        assert!(a100.task_time(x, 0, 0, false) < l4.task_time(x, 0, 0, false));
    }
}
