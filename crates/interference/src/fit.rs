//! Data-driven fitting of the slowdown factors.
//!
//! The paper samples shapes/combinations of concurrent kernels, benchmarks
//! them, and trains the slowdown factors on the measurements (§5.2.2),
//! preferring a small intuitive parametric model over XGBoost-style
//! learners. We do the same with a seeded stochastic coordinate descent:
//! perturb one factor at a time, keep the move if the mean relative error
//! over the samples improves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::model::{InterferenceModel, NUM_STREAMS};

/// Outcome of a fitting run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FitReport {
    /// Mean relative error before fitting.
    pub initial_error: f64,
    /// Mean relative error after fitting.
    pub final_error: f64,
    /// Accepted coordinate moves.
    pub accepted_moves: usize,
}

/// `(busy-times, measured)` samples as columns, built once per [`fit`]
/// so that every proposal predicts them in one columnar call.
struct SampleColumns {
    streams: [Vec<f64>; NUM_STREAMS],
    measured: Vec<f64>,
    /// Reused prediction buffer, one slot per sample.
    pred: Vec<f64>,
}

impl SampleColumns {
    fn new(samples: &[([f64; NUM_STREAMS], f64)]) -> Self {
        assert!(!samples.is_empty());
        SampleColumns {
            streams: std::array::from_fn(|i| samples.iter().map(|(x, _)| x[i]).collect()),
            measured: samples.iter().map(|(_, y)| *y).collect(),
            pred: vec![0.0; samples.len()],
        }
    }

    /// Mean relative error of `model` on the samples, summed in sample
    /// order.
    fn mean_rel_error(&mut self, model: &InterferenceModel) -> f64 {
        model.predict_columns(self.streams.each_ref().map(|c| &c[..]), &mut self.pred);
        let mut acc = 0.0;
        for (pred, measured) in self.pred.iter().zip(&self.measured) {
            acc += (pred - measured).abs() / measured.max(1e-12);
        }
        acc / self.measured.len() as f64
    }
}

/// Fits slowdown factors to measured samples, starting from `initial`.
///
/// `iterations` is the number of coordinate proposals; a few thousand
/// suffice for the 40-odd live parameters. Deterministic given `seed`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn fit(
    initial: &InterferenceModel,
    samples: &[([f64; NUM_STREAMS], f64)],
    iterations: usize,
    seed: u64,
) -> (InterferenceModel, FitReport) {
    let _span = mist_telemetry::span!(
        "interference.fit",
        samples = samples.len(),
        iterations = iterations
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors = initial.factors().to_vec();
    let mut best = initial.clone();
    let mut cols = SampleColumns::new(samples);
    let initial_error = cols.mean_rel_error(&best);
    let mut best_err = initial_error;
    let mut accepted = 0usize;

    // Only masks with ≥2 participants and the participating entries are
    // live parameters.
    let mut coords: Vec<(usize, usize)> = Vec::new();
    for mask in 0..factors.len() {
        if (mask as u8).count_ones() < 2 {
            continue;
        }
        for i in 0..NUM_STREAMS {
            if mask & (1 << i) != 0 {
                coords.push((mask, i));
            }
        }
    }

    for it in 0..iterations {
        let (mask, i) = coords[rng.gen_range(0..coords.len())];
        let step = 0.25 * (1.0 - it as f64 / iterations as f64) + 0.01;
        let delta = rng.gen_range(-step..step);
        let old = factors[mask][i];
        let proposed = (old * (1.0 + delta)).clamp(1.0, 4.0);
        if proposed == old {
            continue;
        }
        factors[mask][i] = proposed;
        let candidate = InterferenceModel::from_factors(factors.clone());
        let err = cols.mean_rel_error(&candidate);
        if err < best_err {
            best_err = err;
            best = candidate;
            accepted += 1;
        } else {
            factors[mask][i] = old;
        }
    }

    mist_telemetry::counter_add("interference.fit.iterations", iterations as u64);
    mist_telemetry::counter_add("interference.fit.accepted_moves", accepted as u64);
    mist_telemetry::gauge_set("interference.fit.initial_error", initial_error);
    mist_telemetry::gauge_set("interference.fit.final_error", best_err);
    let report = FitReport {
        initial_error,
        final_error: best_err,
        accepted_moves: accepted,
    };
    (best, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic ground truth: a hidden model with different factors.
    fn hidden_truth() -> InterferenceModel {
        InterferenceModel::from_pairwise(|i, j| match (i, j) {
            (0, 1) => 1.15,
            (1, 0) => 1.20,
            (1, 2) | (1, 3) | (2, 1) | (3, 1) => 1.60,
            (2, 3) | (3, 2) => 1.12,
            (0, _) => 1.06,
            (_, 0) => 1.09,
            _ => 1.0,
        })
    }

    fn make_samples(n: usize, seed: u64) -> Vec<([f64; NUM_STREAMS], f64)> {
        let truth = hidden_truth();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut x = [0.0; NUM_STREAMS];
            for v in x.iter_mut() {
                if rng.gen_bool(0.7) {
                    *v = rng.gen_range(1e-4..20e-3);
                }
            }
            if x.iter().all(|v| *v == 0.0) {
                continue; // A fully idle sample carries no signal.
            }
            out.push((x, truth.predict(x)));
        }
        out
    }

    #[test]
    fn fitting_reduces_error_substantially() {
        let samples = make_samples(400, 7);
        let start = InterferenceModel::pcie_defaults();
        let (fitted, report) = fit(&start, &samples, 3000, 11);
        assert!(report.final_error < report.initial_error);
        assert!(
            report.final_error < 0.5 * report.initial_error,
            "initial {} final {}",
            report.initial_error,
            report.final_error
        );
        assert!(report.accepted_moves > 0);
        // Fitted model generalizes to fresh samples.
        let fresh = make_samples(200, 99);
        let err = SampleColumns::new(&fresh).mean_rel_error(&fitted);
        assert!(err < 0.08, "holdout error {err}");
    }

    #[test]
    fn fit_is_deterministic_for_a_seed() {
        let samples = make_samples(100, 3);
        let start = InterferenceModel::pcie_defaults();
        let (m1, r1) = fit(&start, &samples, 500, 42);
        let (m2, r2) = fit(&start, &samples, 500, 42);
        assert_eq!(m1, m2);
        assert_eq!(r1.final_error, r2.final_error);
    }

    #[test]
    fn perfect_start_accepts_nothing_harmful() {
        let truth = hidden_truth();
        let samples = make_samples(150, 5);
        let (fitted, report) = fit(&truth, &samples, 400, 9);
        // Starting at the truth, error stays ~0.
        assert!(report.final_error <= report.initial_error + 1e-12);
        assert!(SampleColumns::new(&samples).mean_rel_error(&fitted) < 1e-9);
    }
}
