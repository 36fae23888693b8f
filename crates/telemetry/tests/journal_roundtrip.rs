//! Property test: every [`JournalEvent`] variant survives a JSONL
//! round-trip byte-for-byte in value terms. The journal file format is
//! the contract between `tune --journal` and `explain`, so serializing
//! a record and parsing it back must reproduce the record exactly
//! (finite floats only — the journal never emits NaN/infinity, both of
//! which JSON cannot represent).

use mist_telemetry::{JournalEvent, JournalRecord, OuterOutcome};
use proptest::prelude::*;

/// Finite floats with both round and awkward (non-dyadic) values.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-1.5),
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64 / 997.0),
        0.0f64..1e12,
    ]
}

fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![Just(None), arb_f64().prop_map(Some)]
}

fn arb_role() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "First".to_string(),
        "Middle".to_string(),
        "Last".to_string(),
        "Only".to_string(),
        // Exercise JSON string escaping.
        "we\"ird\\role\n".to_string(),
        "unicode-\u{00e9}\u{4e2d}".to_string(),
    ])
}

fn arb_outcome() -> impl Strategy<Value = OuterOutcome> {
    prop::sample::select(vec![
        OuterOutcome::Incumbent,
        OuterOutcome::Dominated,
        OuterOutcome::OutOfBudget,
        OuterOutcome::Infeasible,
    ])
}

fn arb_event() -> BoxedStrategy<JournalEvent> {
    let frontier = (
        (1u32..16, 1u32..16, arb_role(), 1u32..64, 1u32..256),
        (1u32..128, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        prop::collection::vec(0u32..1000, 0..8),
    )
        .prop_map(
            |(
                (mesh_nodes, mesh_gpus, role, inflight, grad_accum),
                (max_layers, enumerated, oom, nonfinite),
                (feasible, survived, dominated),
                sizes,
            )| {
                JournalEvent::FrontierSummary {
                    mesh_nodes,
                    mesh_gpus,
                    role,
                    inflight,
                    grad_accum,
                    max_layers,
                    enumerated,
                    oom,
                    nonfinite,
                    feasible,
                    survived,
                    dominated,
                    sizes,
                }
            },
        )
        .boxed();
    let outer = (
        (1u32..256, 1u32..64, arb_outcome()),
        (arb_opt_f64(), arb_opt_f64()),
        prop::collection::vec(1u32..128, 0..8),
        (arb_opt_f64(), arb_opt_f64()),
    )
        .prop_map(
            |((grad_accum, stages, outcome), (selector, objective), layers, (incumbent, bound))| {
                JournalEvent::OuterCandidate {
                    grad_accum,
                    stages,
                    outcome,
                    selector,
                    objective,
                    layers,
                    incumbent,
                    bound,
                }
            },
        )
        .boxed();
    let incumbent = (1u32..256, 1u32..64, arb_f64(), arb_f64())
        .prop_map(
            |(grad_accum, stages, selector, objective)| JournalEvent::Incumbent {
                grad_accum,
                stages,
                selector,
                objective,
            },
        )
        .boxed();
    let dp = (
        1u32..64,
        1u32..256,
        0u64..10_000_000,
        0u64..10_000_000,
        prop::sample::select(vec![
            "solved".to_string(),
            "cutoff".to_string(),
            "infeasible".to_string(),
        ]),
    )
        .prop_map(
            |(stages, grad_accum, states, bound_pruned, result)| JournalEvent::DpSummary {
                stages,
                grad_accum,
                states,
                bound_pruned,
                result,
            },
        )
        .boxed();
    prop_oneof![frontier, outer, incumbent, dp].boxed()
}

proptest! {
    // The vendored serde models JSON integers as i64, so u64 fields are
    // contractually bounded to i64::MAX: `seq` and `span` are
    // process-local sequential ids, so the bound holds by construction.
    #[test]
    fn every_event_round_trips_through_jsonl(
        seq in 0u64..i64::MAX as u64,
        span in 0u64..i64::MAX as u64,
        event in arb_event(),
    ) {
        let record = JournalRecord { seq, span, event };
        let line = record.to_jsonl();
        prop_assert!(!line.contains('\n'), "JSONL line must be newline-free");
        let back = JournalRecord::from_jsonl(&line).expect("parse back");
        prop_assert_eq!(&back, &record);
        // And a second trip is a fixed point (serialization is canonical).
        prop_assert_eq!(back.to_jsonl(), line);
    }
}
