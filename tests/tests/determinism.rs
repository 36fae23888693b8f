//! Thread-count determinism of the full tuner.
//!
//! The pool's ordered joins, the driver's frontier-key dedup, and the
//! branch-and-bound tie-breaks together promise: `--threads N` changes
//! wall-clock only. This test runs the complete tune at 1, 2 and 8
//! threads on the GPT-3 6.7B workload and asserts the serialized
//! [`TuneOutcome`] is byte-identical once wall-clock-only fields are
//! stripped.

use mist::presets::{gpt3, AttentionImpl, ModelSize};
use mist::{MistSession, Platform, SearchSpace};
use serde_json::Value;

/// Fields that legitimately vary run-to-run (timing) or with the thread
/// count (`pool.workers`), at any depth.
const TIMING_FIELDS: &[&str] = &["elapsed_secs", "intra_secs", "inter_secs", "pool.workers"];

fn strip_timing(v: &mut Value) {
    match v {
        Value::Object(fields) => {
            fields.retain(|(k, _)| !TIMING_FIELDS.contains(&k.as_str()));
            for (_, val) in fields {
                strip_timing(val);
            }
        }
        Value::Array(items) => {
            for item in items {
                strip_timing(item);
            }
        }
        _ => {}
    }
}

fn tune_json(threads: usize) -> String {
    mist_pool::set_global_threads(threads);
    let model = gpt3(ModelSize::B6_7, 2048, AttentionImpl::Flash);
    let session = MistSession::builder(model, Platform::GcpL4, 8)
        .space(SearchSpace::mist())
        .max_grad_accum(8)
        .build();
    let outcome = session.tune(64).expect("6.7B on 8 GPUs must be tunable");
    let mut v = serde_json::to_value(&outcome).expect("serialize outcome");
    strip_timing(&mut v);
    serde_json::to_string_pretty(&v).expect("stringify outcome")
}

#[test]
fn tune_outcome_is_byte_identical_across_thread_counts() {
    let reference = tune_json(1);
    for threads in [2usize, 8] {
        let got = tune_json(threads);
        assert!(
            got == reference,
            "--threads {threads} changed the tune outcome"
        );
    }
    mist_pool::set_global_threads(mist_pool::default_threads());
}
