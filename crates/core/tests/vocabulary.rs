//! The workload vocabulary, the Table-3 shape check and the calibration
//! recipe that every front door (`mist-cli`, the planner daemon,
//! `MistSession`) shares.

use std::process::Command;

use mist::presets::{gpt3, llama, preset, AttentionImpl, ModelSize};
use mist::{
    benchmark_interference, calibrate, fit_interference, Baseline, ClusterSpec, InterferenceModel,
    Platform,
};
use mist_baselines::space_preset;

const MODELS: &str = "gpt3-1.3b\ngpt3-2.6b\ngpt3-6.7b\ngpt3-13b\ngpt3-22b\ngpt3-40b\n\
                      llama-1.3b\nllama-2.6b\nllama-6.7b\nllama-13b\nllama-22b\nllama-40b\n\
                      falcon-1.3b\nfalcon-2.6b\nfalcon-6.7b\nfalcon-13b\nfalcon-22b\nfalcon-40b\n";
const SPACES: &str = "mist\nmist-fine\nmegatron\ndeepspeed\naceso\nalpa\nuniform\n";

fn listing(cmd: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mist-cli"))
        .arg(cmd)
        .output()
        .expect("spawn mist-cli");
    assert!(out.status.success(), "mist-cli {cmd} failed");
    String::from_utf8(out.stdout).expect("utf-8 listing")
}

#[test]
fn listings_aliases_and_calibration_have_one_definition() {
    let flash = AttentionImpl::Flash;

    // Every listed name resolves, and the listings keep their bytes.
    let models = listing("models");
    assert_eq!(models, MODELS);
    for name in models.lines() {
        preset(name, 2048, flash).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let spaces = listing("spaces");
    assert_eq!(spaces, SPACES);
    for name in spaces.lines() {
        space_preset(name).unwrap_or_else(|e| panic!("{name}: {e}"));
    }

    // The old aliases resolve to the same specs.
    for (alias, spec) in [
        ("gpt-6.7b", gpt3(ModelSize::B6_7, 2048, flash)),
        ("GPT3-2.7B", gpt3(ModelSize::B2_6, 2048, flash)),
        ("llama-7b", llama(ModelSize::B6_7, 2048, flash)),
    ] {
        assert_eq!(preset(alias, 2048, flash), Ok(spec), "{alias}");
    }
    assert_eq!(
        space_preset("megatron-lm"),
        Ok(Baseline::MegatronLM.space())
    );
    assert_eq!(Platform::parse("gcp"), Ok(Platform::GcpL4));
    assert_eq!(Platform::parse("aws"), Ok(Platform::AwsA100));
    for (gpus, table3) in [(0, false), (1, true), (8, true), (12, false), (32, true)] {
        assert_eq!(ClusterSpec::check_gpu_count(gpus).is_ok(), table3, "{gpus}");
    }

    // `calibrate` is exactly the recipe perfbench's `layer_metrics`
    // replays: the platform prior fitted to 400 benchmarked mixes in
    // 3000 iterations, with the fit seeded by `seed ^ 0x5EED`.
    assert_eq!(mist_sim::DEFAULT_SEED, 0xAB5EED);
    for (platform, prior, seed) in [
        (
            Platform::GcpL4,
            InterferenceModel::pcie_defaults(),
            mist_sim::DEFAULT_SEED,
        ),
        (Platform::AwsA100, InterferenceModel::nvlink_defaults(), 7),
    ] {
        let samples = benchmark_interference(platform, 400, seed);
        let expected = fit_interference(&prior, &samples, 3000, seed ^ 0x5EED).0;
        assert_eq!(calibrate(platform, seed), expected, "{platform:?}");
    }
}
