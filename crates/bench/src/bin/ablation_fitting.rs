//! Ablation: data-driven interference fitting (paper §5.2.2).
//!
//! Compares the prior slowdown factors, the fitted factors, and an
//! overlap-blind "serial" resolver on holdout benchmark mixes from each
//! platform's hidden ground-truth law, plus the downstream effect on
//! end-to-end prediction accuracy.

use mist::presets::{gpt3, AttentionImpl, ModelSize};
use mist::{
    benchmark_interference, fit_interference, interference_prior, InterferenceModel, MistSession,
    Platform,
};
use mist_bench::write_json;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    platform: String,
    prior_err_pct: f64,
    fitted_err_pct: f64,
    serial_err_pct: f64,
}

fn holdout_error(m: &InterferenceModel, samples: &[([f64; 4], f64)]) -> f64 {
    samples
        .iter()
        .map(|(x, y)| (m.predict(*x) - y).abs() / y)
        .sum::<f64>()
        / samples.len() as f64
}

fn serial_error(samples: &[([f64; 4], f64)]) -> f64 {
    samples
        .iter()
        .map(|(x, y)| {
            let serial: f64 = x.iter().sum();
            (serial - y).abs() / y
        })
        .sum::<f64>()
        / samples.len() as f64
}

fn main() {
    println!("# Ablation: interference-model fitting\n");
    println!("| platform | prior error | fitted error | serial (no overlap) error |");
    println!("|---|---|---|---|");
    let mut rows = Vec::new();
    for platform in [Platform::GcpL4, Platform::AwsA100] {
        let train = benchmark_interference(platform, 400, 11);
        let holdout = benchmark_interference(platform, 300, 997);
        let prior = interference_prior(platform);
        let (fitted, _) = fit_interference(&prior, &train, 3000, 13);
        let pe = holdout_error(&prior, &holdout);
        let fe = holdout_error(&fitted, &holdout);
        let se = serial_error(&holdout);
        let name = format!("{platform:?}");
        println!(
            "| {name} | {:.2}% | {:.2}% | {:.2}% |",
            pe * 100.0,
            fe * 100.0,
            se * 100.0
        );
        assert!(fe <= pe, "{name}: fitting must help");
        assert!(fe < se, "{name}: fitted must beat serial");
        rows.push(Row {
            platform: name,
            prior_err_pct: pe * 100.0,
            fitted_err_pct: fe * 100.0,
            serial_err_pct: se * 100.0,
        });
    }

    // Downstream: end-to-end prediction accuracy with vs without fitting.
    let model = gpt3(ModelSize::B2_6, 2048, AttentionImpl::Flash);
    let fitted = MistSession::builder(model.clone(), Platform::GcpL4, 4).build();
    let unfitted = MistSession::builder(model, Platform::GcpL4, 4)
        .skip_interference_fit()
        .build();
    let rf = fitted.accuracy_report(&[16, 64]);
    let ru = unfitted.accuracy_report(&[16, 64]);
    println!("\n| session | mean runtime prediction error |");
    println!("|---|---|");
    println!(
        "| calibrated (fitted factors) | {:.2}% |",
        rf.mean_time_error * 100.0
    );
    println!(
        "| uncalibrated (prior factors) | {:.2}% |",
        ru.mean_time_error * 100.0
    );
    write_json("ablation_fitting", &rows);
}
