//! Planner-service integration: property-based fingerprint
//! canonicality, plan-cache persistence with real tune outcomes, and
//! warm-start byte-identity across a daemon restart (i.e. through an
//! f64 JSONL round-trip of the cached frontiers).

use std::fs;

use mist_service::{canonical_fingerprint, PlanCache, PlanRequest, PlannerService};
use proptest::prelude::*;
use serde::Value;

// --- fingerprint canonicality -------------------------------------------

/// Random JSON values: scalars of every kind, nested arrays/objects.
fn arb_value() -> BoxedStrategy<Value> {
    let key =
        (0u32..26, 1usize..5).prop_map(|(c, n)| char::from(b'a' + c as u8).to_string().repeat(n));
    let scalar = prop_oneof![
        Just(Value::Null),
        (0u32..2).prop_map(|b| Value::Bool(b == 1)),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1.0e9f64..1.0e9).prop_map(Value::Float),
        key.clone().prop_map(Value::Str),
    ];
    scalar
        .prop_recursive(3, 24, 4, move |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                prop::collection::vec((key.clone(), inner), 0..4).prop_map(Value::Object),
            ]
        })
        .boxed()
}

/// Recursively reverses every object's field order — a nontrivial key
/// permutation that must not change the fingerprint.
fn reverse_keys(v: &Value) -> Value {
    match v {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .rev()
                .map(|(k, item)| (k.clone(), reverse_keys(item)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(reverse_keys).collect()),
        other => other.clone(),
    }
}

/// Perturbs the first integer leaf (depth-first). Returns false when the
/// value has no integer leaf to perturb.
fn bump_first_int(v: &mut Value) -> bool {
    match v {
        Value::Int(i) => {
            *i = i.wrapping_add(1);
            true
        }
        Value::Array(items) => items.iter_mut().any(bump_first_int),
        Value::Object(fields) => fields.iter_mut().any(|(_, item)| bump_first_int(item)),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Key order is canonical: any recursive permutation of object
    /// fields fingerprints identically.
    #[test]
    fn fingerprint_ignores_key_order(v in arb_value()) {
        prop_assert_eq!(
            canonical_fingerprint(&v),
            canonical_fingerprint(&reverse_keys(&v))
        );
    }

    /// Every scalar matters: perturbing a single integer leaf changes
    /// the fingerprint, as does grafting a fresh field onto an object.
    #[test]
    fn fingerprint_sees_single_field_perturbations(v in arb_value()) {
        let base = canonical_fingerprint(&v);

        let mut bumped = v.clone();
        if bump_first_int(&mut bumped) {
            prop_assert!(
                base != canonical_fingerprint(&bumped),
                "bumping an int leaf must change the fingerprint"
            );
        }

        if let Value::Object(fields) = &v {
            let mut grafted = fields.clone();
            grafted.push(("zzz-perturbation".to_owned(), Value::Int(0)));
            prop_assert!(
                base != canonical_fingerprint(&Value::Object(grafted)),
                "grafting a field must change the fingerprint"
            );
        }
    }
}

// --- cache persistence and warm-start equivalence ------------------------

fn plan_req(batch: u64) -> PlanRequest {
    PlanRequest {
        model: "gpt3-1.3b".to_owned(),
        gpus: 2,
        batch,
        max_grad_accum: 8,
        ..PlanRequest::default()
    }
}

fn result_json(v: &Value) -> String {
    let Value::Object(fields) = v else {
        panic!("response must be an object: {v:?}")
    };
    serde_json::to_string(serde::get_field(fields, "result").expect("result field")).unwrap()
}

fn work_source(v: &Value) -> String {
    let Value::Object(fields) = v else {
        panic!("response must be an object: {v:?}")
    };
    let Value::Object(work) = serde::get_field(fields, "work").expect("work field") else {
        panic!("work must be an object")
    };
    match serde::get_field(work, "source").expect("source field") {
        Value::Str(s) => s.clone(),
        other => panic!("source must be a string: {other:?}"),
    }
}

#[test]
fn cache_survives_restart_with_byte_identical_plans() {
    let dir = std::env::temp_dir().join(format!("mist-planner-it-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("plans.jsonl");

    // Session 1: a cold tune and an in-session warm-start, persisted.
    let planner = PlannerService::new(PlanCache::open(&cache_path).unwrap());
    let cold8 = planner.plan(&plan_req(8));
    assert_eq!(work_source(&cold8), "cold");
    let warm16 = planner.plan(&plan_req(16));
    assert_eq!(work_source(&warm16), "warm");
    drop(planner);

    // The persisted cache is byte-stable under load → save.
    let first = fs::read_to_string(&cache_path).unwrap();
    PlanCache::open(&cache_path).unwrap().save().unwrap();
    let second = fs::read_to_string(&cache_path).unwrap();
    assert_eq!(first, second, "cache load → save must be byte-identical");

    // Session 2 (restart): exact hits reproduce both cached results.
    let planner = PlannerService::new(PlanCache::open(&cache_path).unwrap());
    let hit8 = planner.plan(&plan_req(8));
    assert_eq!(work_source(&hit8), "hit");
    assert_eq!(result_json(&cold8), result_json(&hit8));
    let hit16 = planner.plan(&plan_req(16));
    assert_eq!(work_source(&hit16), "hit");
    assert_eq!(result_json(&warm16), result_json(&hit16));

    // A fresh batch warm-starts from the *reloaded* frontiers — the
    // exported Pareto points went through an f64 JSONL round-trip — and
    // must still match a cache-bypassing cold tune bit for bit.
    let warm24 = planner.plan(&plan_req(24));
    assert_eq!(work_source(&warm24), "warm");
    let mut bypass = plan_req(24);
    bypass.no_cache = true;
    let cold24 = planner.plan(&bypass);
    assert_eq!(work_source(&cold24), "cold");
    assert_eq!(
        result_json(&warm24),
        result_json(&cold24),
        "reloaded warm-start must be byte-identical to a cold tune"
    );

    // A budget delta is family-compatible, so seeding is allowed where
    // sound — and regardless of whether any frontier was reusable, the
    // answer must equal a cold tune at that budget.
    let mut tight = plan_req(8);
    tight.budget_gib = Some(18.0);
    let tight_resp = planner.plan(&tight);
    let mut tight_cold = tight.clone();
    tight_cold.no_cache = true;
    let tight_cold_resp = planner.plan(&tight_cold);
    assert_eq!(
        result_json(&tight_resp),
        result_json(&tight_cold_resp),
        "budget-delta answers must be byte-identical to cold tuning"
    );

    fs::remove_dir_all(&dir).ok();
}

// --- hostile and large inputs ---------------------------------------------

fn response_ok(line: &str) -> bool {
    let v: Value = serde_json::from_str(line).expect("responses are JSON");
    let Value::Object(fields) = v else {
        panic!("response must be an object: {line}")
    };
    match serde::get_field(&fields, "ok") {
        Ok(Value::Bool(ok)) => *ok,
        other => panic!("ok must be a bool: {other:?}"),
    }
}

/// A ~400 KB line of `[` used to overflow the parser's stack and abort
/// the whole daemon; it must now cost one error response, after which
/// the daemon keeps answering.
#[test]
fn deeply_nested_request_is_an_error_not_an_abort() {
    let planner = PlannerService::new(PlanCache::in_memory());
    let (response, _) = planner.handle_line(&"[".repeat(400_000));
    assert!(!response_ok(&response), "nested junk must fail: {response}");
    assert!(response.contains("nesting too deep"), "{response}");
    let (pong, _) = planner.handle_line(r#"{"cmd":"ping"}"#);
    assert!(response_ok(&pong), "daemon must still answer: {pong}");
}

/// A real multi-megabyte cache entry reopens quickly and round-trips:
/// string parsing is linear in the input, so a daemon restart over a
/// saved cache does not stall.
#[test]
fn saved_cache_with_a_real_entry_reopens_and_round_trips() {
    let dir = std::env::temp_dir().join(format!("mist-planner-big-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("plans.jsonl");
    let req = PlanRequest {
        model: "gpt3-2.6b".to_owned(),
        gpus: 8,
        batch: 32,
        max_grad_accum: 8,
        ..PlanRequest::default()
    };
    let cold = PlannerService::new(PlanCache::open(&cache_path).unwrap()).plan(&req);
    assert_eq!(work_source(&cold), "cold");
    let saved = fs::read_to_string(&cache_path).unwrap();
    assert!(
        saved.len() > 1_000_000,
        "entry is only {} bytes",
        saved.len()
    );

    let start = std::time::Instant::now();
    let reopened = PlanCache::open(&cache_path).unwrap();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(20),
        "reopening took {:?}",
        start.elapsed()
    );
    assert_eq!(reopened.len(), 1);
    reopened.save().unwrap();
    assert_eq!(fs::read_to_string(&cache_path).unwrap(), saved);
    let hit = PlannerService::new(PlanCache::open(&cache_path).unwrap()).plan(&req);
    assert_eq!(work_source(&hit), "hit");
    assert_eq!(result_json(&cold), result_json(&hit));
    fs::remove_dir_all(&dir).ok();
}
