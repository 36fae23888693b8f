//! The calibration loop: simulator benchmarks → interference fitting →
//! better predictions (paper §5.2.2 on our synthetic substrate).

use mist::{
    benchmark_interference, fit_interference, interference_prior, GroundTruth, InterferenceModel,
    Platform,
};

#[test]
fn fitted_model_predicts_hidden_truth_better_than_priors() {
    for platform in [Platform::GcpL4, Platform::AwsA100] {
        let truth = GroundTruth::noiseless(platform);
        let samples = benchmark_interference(platform, 400, 17);
        let prior = interference_prior(platform);
        let (fitted, report) = fit_interference(&prior, &samples, 3000, 23);
        assert!(report.final_error <= report.initial_error);
        // Holdout check against the hidden law.
        let holdout = benchmark_interference(platform, 200, 991);
        let err = |m: &InterferenceModel| {
            holdout
                .iter()
                .map(|(x, y)| (m.predict(*x) - y).abs() / y)
                .sum::<f64>()
                / holdout.len() as f64
        };
        let e_prior = err(&prior);
        let e_fitted = err(&fitted);
        assert!(
            e_fitted <= e_prior,
            "{platform:?}: fitted {e_fitted:.4} vs prior {e_prior:.4}"
        );
        assert!(e_fitted < 0.05, "{platform:?}: fitted error {e_fitted:.4}");
        let _ = truth;
    }
}

#[test]
fn benchmarks_are_deterministic_per_seed() {
    let a = benchmark_interference(Platform::GcpL4, 50, 5);
    let b = benchmark_interference(Platform::GcpL4, 50, 5);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.0, y.0);
        assert_eq!(x.1, y.1);
    }
    let c = benchmark_interference(Platform::GcpL4, 50, 6);
    assert!(a.iter().zip(&c).any(|(x, y)| x.0 != y.0));
}
