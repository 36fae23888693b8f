//! End-to-end provenance: spawns the real `mist-cli` binary to tune
//! GPT-3 6.7B with `--journal`, then drives `explain` over the journal
//! and checks the digest's core promises — every enumerated
//! configuration attributed to exactly one outcome, ≥3 runner-up plans
//! each carrying its killing constraint, the self-time tree agreeing
//! with the tuner's own phase timers, and zero orphaned spans — plus
//! that enabling the journal does not perturb the tuning result.

use std::collections::{BTreeMap, HashMap};
use std::process::Command;

use serde_json::Value;

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn u64_of(v: &Value, key: &str) -> u64 {
    get(v, key)
        .and_then(Value::as_i64)
        .unwrap_or_else(|| panic!("missing u64 `{key}`")) as u64
}

fn f64_of(v: &Value, key: &str) -> f64 {
    get(v, key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing f64 `{key}`"))
}

fn tune_args(journal: Option<&std::path::Path>) -> Vec<String> {
    let mut args: Vec<String> = [
        "tune",
        "--model",
        "gpt3-6.7b",
        "--platform",
        "l4",
        "--gpus",
        "8",
        "--batch",
        "16",
        "--seed",
        "7",
        "--threads",
        "8",
        "--json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(path) = journal {
        args.push("--journal".into());
        args.push(path.to_str().unwrap().into());
    }
    args
}

fn run_cli(args: &[String]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mist-cli"))
        .args(args)
        .output()
        .expect("spawn mist-cli");
    assert!(
        out.status.success(),
        "mist-cli {:?} failed: {}",
        args.first(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn explain_digest_accounts_every_config_and_names_killing_constraints() {
    let journal_path =
        std::env::temp_dir().join(format!("mist_cli_explain_{}.jsonl", std::process::id()));
    let tune_out = run_cli(&tune_args(Some(&journal_path)));
    let tune_json: Value = serde_json::from_str(&tune_out).expect("tune emits JSON");
    let configs_evaluated = u64_of(&tune_json, "configs_evaluated");

    let digest_out = run_cli(&[
        "explain".into(),
        "--json".into(),
        journal_path.to_str().unwrap().into(),
    ]);
    std::fs::remove_file(&journal_path).ok();
    let digest: Value = serde_json::from_str(&digest_out).expect("explain emits JSON");

    // Coverage: every enumerated configuration lands in exactly one
    // bucket, and the journal's enumeration agrees with the tuner's own
    // configs_evaluated count.
    let cov = get(&digest, "coverage").expect("coverage");
    assert_eq!(get(cov, "accounted"), Some(&Value::Bool(true)));
    let enumerated = u64_of(cov, "enumerated");
    assert_eq!(enumerated, configs_evaluated);
    assert_eq!(
        enumerated,
        u64_of(cov, "oom") + u64_of(cov, "nonfinite") + u64_of(cov, "feasible")
    );
    assert_eq!(
        u64_of(cov, "feasible"),
        u64_of(cov, "survived") + u64_of(cov, "dominated")
    );

    // Outer candidates partition the same way.
    let outer = get(&digest, "outer").expect("outer");
    assert_eq!(
        u64_of(outer, "candidates"),
        u64_of(outer, "incumbents")
            + u64_of(outer, "dominated")
            + u64_of(outer, "out_of_budget")
            + u64_of(outer, "infeasible")
    );

    // Runner-ups: at least 3, each with a killing constraint naming the
    // incumbent-derived cutoff or dominance relation.
    let Some(Value::Array(runner_ups)) = get(&digest, "runner_ups") else {
        panic!("runner_ups array missing");
    };
    assert!(
        runner_ups.len() >= 3,
        "expected >=3 runner-up plans, got {}",
        runner_ups.len()
    );
    for r in runner_ups {
        let constraint = match get(r, "killing_constraint") {
            Some(Value::Str(s)) => s,
            other => panic!("killing_constraint missing: {other:?}"),
        };
        assert!(
            constraint.contains("incumbent") || constraint.contains("cutoff"),
            "constraint must name what killed the plan: {constraint}"
        );
    }

    // Zero orphaned spans at --threads 8: parent propagation across the
    // pool keeps every span rooted.
    let spans = get(&digest, "spans").expect("spans");
    assert!(u64_of(spans, "total") > 0);
    assert_eq!(u64_of(spans, "orphans"), 0, "orphaned spans in journal");

    // Self-time tree vs the tuner's own phase timers, within 1%: the
    // intra.sweep spans bracket exactly the intra_secs windows and
    // inter.solve brackets inter_secs.
    let timing = get(&digest, "timing").expect("timing");
    let totals = get(timing, "span_totals").expect("span_totals");
    for (phase, span_name) in [("intra_secs", "intra.sweep"), ("inter_secs", "inter.solve")] {
        let stat = f64_of(timing, phase);
        let span_total = f64_of(totals, span_name);
        let tol = (stat * 0.01).max(1e-3);
        assert!(
            (stat - span_total).abs() <= tol,
            "{phase} = {stat} vs {span_name} spans = {span_total} (tol {tol})"
        );
    }

    // Nothing fell out of the ring.
    assert_eq!(u64_of(get(&digest, "journal").unwrap(), "dropped"), 0);
}

/// One span line of a journal file.
struct JournalSpan {
    id: u64,
    parent: u64,
    name: String,
    tid: u64,
    start_us: f64,
    dur_us: f64,
}

/// Tunes the CLI workload at `threads` with `--journal` and returns the
/// journal's spans.
fn journal_spans(threads: u32, tag: &str) -> Vec<JournalSpan> {
    let journal_path = std::env::temp_dir().join(format!(
        "mist_cli_{tag}_{threads}_{}.jsonl",
        std::process::id()
    ));
    let mut args = tune_args(Some(&journal_path));
    let i = args.iter().position(|a| a == "--threads").unwrap() + 1;
    args[i] = threads.to_string();
    run_cli(&args);
    let journal = std::fs::read_to_string(&journal_path).expect("read journal");
    std::fs::remove_file(&journal_path).ok();
    journal
        .lines()
        .filter_map(|line| {
            let record: Value = serde_json::from_str(line).expect("journal line is JSON");
            let span = get(&record, "span")?;
            let Some(Value::Str(name)) = get(span, "name") else {
                panic!("span without name: {span:?}");
            };
            Some(JournalSpan {
                id: u64_of(span, "id"),
                parent: u64_of(span, "parent"),
                name: name.clone(),
                tid: u64_of(span, "tid"),
                start_us: f64_of(span, "start_us"),
                dur_us: f64_of(span, "dur_us"),
            })
        })
        .collect()
}

/// The sweep's `phase.*` spans nest under `intra.frontier` on every
/// lane, one per candidate sweep (and one Pareto reduction per
/// frontier family). At one thread they cover each `intra.frontier`
/// span; at two the self times, which `explain` sums into its tree, fit
/// in two lanes' worth of wall time.
#[test]
fn explain_splits_intra_frontier_into_sweep_phases() {
    for threads in [1, 2] {
        let spans = journal_spans(threads, "phases");
        assert!(!spans.is_empty(), "journal has no spans");
        let name_of: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.name.as_str())).collect();
        let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
        let mut child_us: HashMap<u64, f64> = HashMap::new();
        let mut phase_us: HashMap<u64, f64> = HashMap::new();
        for s in &spans {
            *child_us.entry(s.parent).or_default() += s.dur_us;
            if s.name.starts_with("phase.") {
                assert_eq!(
                    name_of.get(&s.parent).copied(),
                    Some("intra.frontier"),
                    "{} (id {}) at --threads {threads}",
                    s.name,
                    s.id
                );
                *counts.entry(&s.name).or_default() += 1;
                *phase_us.entry(s.parent).or_default() += s.dur_us;
            }
        }
        let expected = [
            ("phase.ckpt_resolve", 97),
            ("phase.full_eval", 97),
            ("phase.interference", 97),
            ("phase.pareto", 60),
            ("phase.tapes", 97),
            ("phase.walk", 97),
        ];
        assert_eq!(
            counts.into_iter().collect::<Vec<_>>(),
            expected,
            "phase span counts at --threads {threads}"
        );

        if threads == 1 {
            for f in spans.iter().filter(|s| s.name == "intra.frontier") {
                let covered = phase_us.get(&f.id).copied().unwrap_or(0.0);
                assert!(
                    covered >= 0.95 * f.dur_us,
                    "intra.frontier {} lasts {} us, its phases cover {covered} us",
                    f.id,
                    f.dur_us
                );
            }
        } else {
            let self_us: f64 = spans
                .iter()
                .map(|s| (s.dur_us - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0))
                .sum();
            let start = spans
                .iter()
                .map(|s| s.start_us)
                .fold(f64::INFINITY, f64::min);
            let end = spans
                .iter()
                .map(|s| s.start_us + s.dur_us)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                self_us <= 2.0 * (end - start),
                "self times sum to {self_us} us in a {} us journal at --threads 2",
                end - start
            );
        }
    }
}

/// At `--threads 2` every span nests on its own lane: a span that opens
/// while another is open on the same `tid` is that span's child. A
/// thread waiting for its own fan-out must not run other work inside
/// the span it holds open (that time would count twice in the self-time
/// tree), and the pool's helpers share one lane besides the caller's.
#[test]
fn spans_nest_on_their_lane_at_two_threads() {
    let mut spans = journal_spans(2, "nesting");
    assert!(!spans.is_empty(), "journal has no spans");
    spans.sort_by(|a, b| {
        (a.tid, a.start_us, a.id)
            .partial_cmp(&(b.tid, b.start_us, b.id))
            .unwrap()
    });
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.dedup();
    assert!(tids.len() <= 2, "{} span lanes at --threads 2", tids.len());

    let mut violations = Vec::new();
    // Spans still open on the current lane, innermost last.
    let mut open: Vec<&JournalSpan> = Vec::new();
    for span in &spans {
        // A span ending within 10 ns of this start closed before it.
        open.retain(|o| o.tid == span.tid && o.start_us + o.dur_us > span.start_us + 0.01);
        if let Some(enclosing) = open.last() {
            if enclosing.id != span.parent {
                violations.push((span.id, span.parent, enclosing.id));
            }
        }
        open.push(span);
    }
    assert!(
        violations.is_empty(),
        "{} spans open inside a span that is not their parent, e.g. (id, parent, enclosing) {:?}",
        violations.len(),
        &violations[..violations.len().min(5)]
    );
}

#[test]
fn journal_does_not_perturb_the_tune_outcome() {
    let journal_path =
        std::env::temp_dir().join(format!("mist_cli_noperturb_{}.jsonl", std::process::id()));
    let with_journal = run_cli(&tune_args(Some(&journal_path)));
    std::fs::remove_file(&journal_path).ok();
    let without_journal = run_cli(&tune_args(None));

    let strip = |text: &str| -> String {
        let mut v: Value = serde_json::from_str(text).expect("tune JSON");
        if let Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "tuning_seconds");
        }
        serde_json::to_string_pretty(&v).unwrap()
    };
    assert_eq!(
        strip(&with_journal),
        strip(&without_journal),
        "--journal changed the tuning result"
    );
}

#[test]
fn explain_digests_an_outcome_file_from_aggregate_counters() {
    let out_path =
        std::env::temp_dir().join(format!("mist_cli_outcome_{}.json", std::process::id()));
    let mut args = tune_args(None);
    args.push("--metrics".into());
    std::fs::write(&out_path, run_cli(&args)).expect("write outcome file");

    let digest_out = run_cli(&[
        "explain".into(),
        "--json".into(),
        out_path.to_str().unwrap().into(),
    ]);
    std::fs::remove_file(&out_path).ok();
    let digest: Value = serde_json::from_str(&digest_out).expect("explain emits JSON");
    assert_eq!(get(&digest, "source"), Some(&Value::Str("outcome".into())));
    let cov = get(&digest, "coverage").expect("coverage");
    assert_eq!(get(cov, "accounted"), Some(&Value::Bool(true)));
    assert!(u64_of(cov, "enumerated") > 0);
}

#[test]
fn explain_rejects_garbage_and_missing_files() {
    let out = Command::new(env!("CARGO_BIN_EXE_mist-cli"))
        .args(["explain", "/nonexistent/journal.jsonl"])
        .output()
        .expect("spawn mist-cli");
    assert_eq!(out.status.code(), Some(2));

    let path = std::env::temp_dir().join(format!("mist_cli_garbage_{}.json", std::process::id()));
    std::fs::write(&path, "{\"feasible\": true}").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mist-cli"))
        .args(["explain", path.to_str().unwrap()])
        .output()
        .expect("spawn mist-cli");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        out.status.code(),
        Some(2),
        "no-telemetry outcome must error"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("telemetry"),
        "error should point at --metrics/--journal"
    );
}
