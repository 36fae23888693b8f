//! Spawns the real `mist-cli` binary in `lint-ir` mode and pins its
//! JSON report for the GPT-3 6.7B preset against a golden snapshot: the
//! fused stage programs must stay statically clean (no unit mismatches,
//! every root provably finite and non-negative, no dead code) over the
//! full `mist` search space.
//!
//! Regenerate the snapshot after an intentional cost-model change with:
//!
//! ```text
//! cargo run -p mist --bin mist-cli -- lint-ir --model gpt3-6.7b --json \
//!   > crates/core/tests/golden/lint_ir_gpt3_6p7b.json
//! ```

use std::process::Command;

use serde_json::Value;

const GOLDEN: &str = include_str!("golden/lint_ir_gpt3_6p7b.json");

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn cli_lint_ir_matches_golden_snapshot() {
    let out = Command::new(env!("CARGO_BIN_EXE_mist-cli"))
        .args(["lint-ir", "--model", "gpt3-6.7b", "--json"])
        .output()
        .expect("spawn mist-cli");
    assert!(
        out.status.success(),
        "lint-ir exited nonzero: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let report: Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON report");
    let golden: Value = serde_json::from_str(GOLDEN).expect("valid golden JSON");
    assert_eq!(
        report, golden,
        "lint-ir report drifted from the golden snapshot; if the change \
         is intentional, regenerate it (see the header of this test)"
    );

    // Belt and braces beyond pure snapshot equality: the acceptance bar
    // is zero error-severity diagnostics over all 8 probe programs.
    assert_eq!(
        get(&report, "errors").and_then(Value::as_i64),
        Some(0),
        "error-severity diagnostics in lint-ir report"
    );
    let Some(Value::Array(models)) = get(&report, "models") else {
        panic!("models array missing");
    };
    let programs = get(&models[0], "programs").expect("programs");
    let Value::Array(programs) = programs else {
        panic!("programs is not an array");
    };
    assert_eq!(programs.len(), 8);
}

#[test]
fn cli_lint_ir_rejects_unknown_options() {
    let out = Command::new(env!("CARGO_BIN_EXE_mist-cli"))
        .args(["lint-ir", "--bogus"])
        .output()
        .expect("spawn mist-cli");
    assert_eq!(out.status.code(), Some(2));
}
