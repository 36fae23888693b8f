//! `mist-cli explain` — turn a tuning run's provenance into a digest.
//!
//! Input is either a decision-journal JSONL file (written by
//! `mist-cli tune --journal <FILE>`) or a `tune --json` outcome file.
//! The journal gives the full story: search-space coverage with every
//! enumerated configuration attributed to exactly one outcome, a
//! rejection-reason histogram, the incumbent's evolution, the top-k
//! runner-up plans with the constraint that killed each one, per-solve
//! DP statistics and a self-time tree reconstructed from span
//! parentage (the intra-stage sweep's `phase.*` spans nest under
//! `intra.frontier`). An outcome file only carries the aggregate
//! counters, so its digest is the aggregate subset.
//!
//! All wall-clock-derived values live under the single `timing` key of
//! the JSON digest so deterministic golden comparisons can strip one
//! subtree (`scripts/golden_diff.py`).

use std::collections::{BTreeMap, HashMap};

use mist_telemetry::{JournalEvent, JournalRecord, OuterOutcome, SpanRecord};
use mist_tuner::TuneStats;
use serde::{Deserialize as _, Serialize as _, Value};

/// How many runner-up plans the digest keeps.
pub const DEFAULT_TOP_K: usize = 5;

// --- journal file writing --------------------------------------------------

/// Writes a self-contained journal file: a header line, the tuning
/// stats, one line per completed span, one line per journal record and
/// a trailer with ring statistics. Drains the global journal.
pub(crate) fn write_journal_file(
    path: &str,
    header: Value,
    stats: &TuneStats,
    spans: &[SpanRecord],
) -> Result<(), String> {
    let journal = mist_telemetry::global_journal();
    let dropped = journal.dropped();
    let records = journal.drain();
    let mut out = String::new();
    out.push_str(&serde_json::to_string(&serde_json::json!({ "header": header })).unwrap());
    out.push('\n');
    out.push_str(
        &serde_json::to_string(&serde_json::json!({ "stats": stats.to_value() })).unwrap(),
    );
    out.push('\n');
    for s in spans {
        let line = serde_json::json!({
            "span": serde_json::json!({
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "tid": s.tid,
                "start_us": s.start_us,
                "dur_us": s.dur_us,
            })
        });
        out.push_str(&serde_json::to_string(&line).unwrap());
        out.push('\n');
    }
    for r in &records {
        out.push_str(&format!("{{\"record\":{}}}\n", r.to_jsonl()));
    }
    let trailer = serde_json::json!({
        "journal": serde_json::json!({
            "records": records.len() as u64,
            "dropped": dropped,
        })
    });
    out.push_str(&serde_json::to_string(&trailer).unwrap());
    out.push('\n');
    std::fs::write(path, out).map_err(|e| format!("cannot write journal to {path}: {e}"))
}

// --- parsing ---------------------------------------------------------------

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn get_u64(v: &Value, key: &str) -> u64 {
    get(v, key).and_then(Value::as_i64).unwrap_or(0) as u64
}

fn get_f64(v: &Value, key: &str) -> f64 {
    get(v, key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match get(v, key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// One completed span as read back from a journal file.
struct SpanLite {
    id: u64,
    parent: u64,
    name: String,
    dur_us: f64,
}

/// A parsed journal file.
struct JournalFile {
    header: Value,
    stats: Option<TuneStats>,
    spans: Vec<SpanLite>,
    records: Vec<JournalRecord>,
    dropped: u64,
}

fn parse_journal(text: &str, path: &str) -> Result<JournalFile, String> {
    let mut jf = JournalFile {
        header: Value::Null,
        stats: None,
        spans: Vec::new(),
        records: Vec::new(),
        dropped: 0,
    };
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: bad JSONL line: {e}", ln + 1))?;
        if let Some(h) = get(&v, "header") {
            jf.header = h.clone();
        } else if let Some(s) = get(&v, "stats") {
            jf.stats = TuneStats::from_value(s).ok();
        } else if let Some(s) = get(&v, "span") {
            jf.spans.push(SpanLite {
                id: get_u64(s, "id"),
                parent: get_u64(s, "parent"),
                name: get_str(s, "name").unwrap_or("?").to_owned(),
                dur_us: get_f64(s, "dur_us"),
            });
        } else if let Some(r) = get(&v, "record") {
            let rec = JournalRecord::from_value(r)
                .map_err(|e| format!("{path}:{}: bad journal record: {e}", ln + 1))?;
            jf.records.push(rec);
        } else if let Some(t) = get(&v, "journal") {
            jf.dropped = get_u64(t, "dropped");
        }
    }
    jf.records.sort_by_key(|r| r.seq);
    Ok(jf)
}

// --- digest ----------------------------------------------------------------

#[derive(Default)]
struct Tallies {
    // Intra-stage row coverage (summed over FrontierSummary events).
    enumerated: u64,
    oom: u64,
    nonfinite: u64,
    feasible: u64,
    survived: u64,
    dominated: u64,
    frontier_size_max: u64,
    // Outer-loop candidate fates.
    outer_total: u64,
    outer_incumbent: u64,
    outer_dominated: u64,
    outer_out_of_budget: u64,
    outer_infeasible: u64,
    // Inter-stage DP.
    dp_states: u64,
    bound_pruned: u64,
}

/// One runner-up plan with the constraint that killed it.
struct RunnerUp {
    grad_accum: u32,
    stages: u32,
    /// Selector (exact) or DP lower bound — whichever is known.
    score: f64,
    exact: bool,
    objective: Option<f64>,
    layers: Vec<u32>,
    incumbent: Option<f64>,
    constraint: String,
}

struct Digest {
    source: &'static str,
    run: Value,
    tallies: Tallies,
    frontiers: Vec<Value>,
    evolution: Vec<Value>,
    runner_ups: Vec<RunnerUp>,
    dp_solves: Vec<Value>,
    cert_checks: Vec<Value>,
    span_count: u64,
    orphans: u64,
    dropped: u64,
    stats: Option<TuneStats>,
    /// (path, count, total_s, self_s), path components joined by '/'.
    self_time: Vec<(String, u64, f64, f64)>,
    /// Total seconds per span name.
    span_totals: BTreeMap<String, f64>,
}

fn fmt_s(v: f64) -> String {
    format!("{v:.6}s")
}

/// Canonical sort key for a frontier digest: worker-emitted events
/// arrive in scheduling order, this restores a thread-count-independent
/// ordering.
type FrontierKey = (u32, u32, u32, String, u32, u32);

fn digest_journal(jf: &JournalFile, top: usize) -> Digest {
    let mut t = Tallies::default();
    let mut frontiers: Vec<(FrontierKey, Value)> = Vec::new();
    let mut evolution = Vec::new();
    let mut dp_solves = Vec::new();
    let mut runners: Vec<RunnerUp> = Vec::new();
    let mut cert_checks = Vec::new();

    for r in &jf.records {
        match &r.event {
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
            } => {
                t.enumerated += enumerated;
                t.oom += oom;
                t.nonfinite += nonfinite;
                t.feasible += feasible;
                t.survived += survived;
                t.dominated += dominated;
                let max_size = sizes.iter().copied().max().unwrap_or(0) as u64;
                t.frontier_size_max = t.frontier_size_max.max(max_size);
                frontiers.push((
                    (
                        *grad_accum,
                        *mesh_nodes,
                        *mesh_gpus,
                        role.clone(),
                        *inflight,
                        *max_layers,
                    ),
                    serde_json::json!({
                        "grad_accum": grad_accum,
                        "mesh": format!("{mesh_nodes}x{mesh_gpus}"),
                        "role": role,
                        "inflight": inflight,
                        "max_layers": max_layers,
                        "enumerated": enumerated,
                        "oom": oom,
                        "nonfinite": nonfinite,
                        "feasible": feasible,
                        "survived": survived,
                        "dominated": dominated,
                        "max_frontier_size": max_size,
                    }),
                ));
            }
            JournalEvent::OuterCandidate {
                grad_accum,
                stages,
                outcome,
                selector,
                objective,
                layers,
                incumbent,
                bound,
            } => {
                t.outer_total += 1;
                match outcome {
                    OuterOutcome::Incumbent => t.outer_incumbent += 1,
                    OuterOutcome::Dominated => t.outer_dominated += 1,
                    OuterOutcome::OutOfBudget => t.outer_out_of_budget += 1,
                    OuterOutcome::Infeasible => t.outer_infeasible += 1,
                }
                let lost = matches!(outcome, OuterOutcome::Dominated | OuterOutcome::OutOfBudget);
                if !lost {
                    continue;
                }
                let (score, exact) = match (selector, bound) {
                    (Some(s), _) => (*s, true),
                    (None, Some(b)) => (*b, false),
                    (None, None) => continue,
                };
                let inc = incumbent.unwrap_or(f64::INFINITY);
                let constraint = match (outcome, exact) {
                    (OuterOutcome::Dominated, _) => {
                        format!("selector {} >= incumbent {}", fmt_s(score), fmt_s(inc))
                    }
                    (_, true) => format!(
                        "selector {} >= cutoff {} (incumbent at solve time)",
                        fmt_s(score),
                        fmt_s(inc)
                    ),
                    (_, false) => format!(
                        "DP lower bound {} >= cutoff {} (search truncated)",
                        fmt_s(score),
                        fmt_s(inc)
                    ),
                };
                runners.push(RunnerUp {
                    grad_accum: *grad_accum,
                    stages: *stages,
                    score,
                    exact,
                    objective: *objective,
                    layers: layers.clone(),
                    incumbent: *incumbent,
                    constraint,
                });
            }
            JournalEvent::Incumbent {
                grad_accum,
                stages,
                selector,
                objective,
            } => {
                evolution.push(serde_json::json!({
                    "grad_accum": grad_accum,
                    "stages": stages,
                    "selector": selector,
                    "objective": objective,
                }));
            }
            JournalEvent::DpSummary {
                stages,
                grad_accum,
                states,
                bound_pruned,
                result,
            } => {
                t.dp_states += states;
                t.bound_pruned += bound_pruned;
                dp_solves.push(serde_json::json!({
                    "stages": stages,
                    "grad_accum": grad_accum,
                    "states": states,
                    "bound_pruned": bound_pruned,
                    "result": result,
                }));
            }
            JournalEvent::CertCheck {
                phase,
                stages,
                ok,
                failures,
            } => {
                cert_checks.push(serde_json::json!({
                    "phase": phase,
                    "stages": stages,
                    "ok": ok,
                    "failures": failures.clone(),
                }));
            }
        }
    }

    // Worker-emitted events arrive in scheduling order; sort the frontier
    // list canonically so the digest is thread-count-independent.
    frontiers.sort_by(|a, b| a.0.cmp(&b.0));
    // Runner-ups: best (smallest score) first, deterministic tie-break.
    runners.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then(a.grad_accum.cmp(&b.grad_accum))
            .then(a.stages.cmp(&b.stages))
    });
    runners.truncate(top);

    // Self-time tree from span parentage.
    let by_id: HashMap<u64, usize> = jf.spans.iter().map(|s| (s.id, usize::MAX)).collect();
    let mut by_id = by_id; // id -> index
    for (i, s) in jf.spans.iter().enumerate() {
        by_id.insert(s.id, i);
    }
    let mut child_us = vec![0.0f64; jf.spans.len()];
    let mut orphans = 0u64;
    for s in &jf.spans {
        if s.parent == 0 {
            continue;
        }
        match by_id.get(&s.parent) {
            Some(&pi) => child_us[pi] += s.dur_us,
            None => orphans += 1,
        }
    }
    let path_of = |mut i: usize| -> Vec<String> {
        let mut parts = vec![jf.spans[i].name.clone()];
        let mut hops = 0;
        while jf.spans[i].parent != 0 && hops < 64 {
            match by_id.get(&jf.spans[i].parent) {
                Some(&pi) => {
                    parts.push(jf.spans[pi].name.clone());
                    i = pi;
                }
                None => break,
            }
            hops += 1;
        }
        parts.reverse();
        parts
    };
    let mut agg: BTreeMap<Vec<String>, (u64, f64, f64)> = BTreeMap::new();
    let mut span_totals: BTreeMap<String, f64> = BTreeMap::new();
    for (i, s) in jf.spans.iter().enumerate() {
        let e = agg.entry(path_of(i)).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += s.dur_us;
        e.2 += (s.dur_us - child_us[i]).max(0.0);
        *span_totals.entry(s.name.clone()).or_insert(0.0) += s.dur_us / 1e6;
    }
    let self_time: Vec<(String, u64, f64, f64)> = agg
        .into_iter()
        .map(|(path, (count, total, selfd))| (path.join("/"), count, total / 1e6, selfd / 1e6))
        .collect();

    Digest {
        source: "journal",
        run: jf.header.clone(),
        tallies: t,
        frontiers: frontiers.into_iter().map(|(_, v)| v).collect(),
        evolution,
        runner_ups: runners,
        dp_solves,
        cert_checks,
        span_count: jf.spans.len() as u64,
        orphans,
        dropped: jf.dropped,
        stats: jf.stats,
        self_time,
        span_totals,
    }
}

/// Aggregate-only digest from a `tune --json` outcome file (requires the
/// `telemetry` section, i.e. `--metrics`).
fn digest_outcome(v: &Value) -> Result<Digest, String> {
    let telemetry = get(v, "telemetry").ok_or_else(|| {
        "outcome file has no `telemetry` section; re-run `mist-cli tune` with \
         --metrics --json, or use --journal for full provenance"
            .to_string()
    })?;
    let counters = get(telemetry, "counters").cloned().unwrap_or(Value::Null);
    let gauges = get(telemetry, "gauges").cloned().unwrap_or(Value::Null);
    let c = |k: &str| get_u64(&counters, k);
    let mut t = Tallies {
        enumerated: c("tuner.configs_evaluated"),
        oom: c("tuner.rejections.oom"),
        nonfinite: c("tuner.rejections.nonfinite"),
        dominated: c("tuner.rejections.dominated"),
        outer_total: c("tuner.outer_candidates"),
        outer_out_of_budget: c("tuner.rejections.out_of_budget"),
        bound_pruned: c("tuner.rejections.bound_pruned"),
        dp_states: c("inter.dp_states"),
        frontier_size_max: get_f64(&gauges, "frontier.size") as u64,
        ..Tallies::default()
    };
    t.feasible = t.enumerated.saturating_sub(t.oom + t.nonfinite);
    t.survived = t.feasible.saturating_sub(t.dominated);
    let run = serde_json::json!({
        "model": get_str(v, "model").unwrap_or("?"),
        "space": get_str(v, "space").unwrap_or("?"),
    });
    Ok(Digest {
        source: "outcome",
        run,
        tallies: t,
        frontiers: Vec::new(),
        evolution: Vec::new(),
        runner_ups: Vec::new(),
        dp_solves: Vec::new(),
        cert_checks: Vec::new(),
        span_count: 0,
        orphans: 0,
        dropped: 0,
        stats: None,
        self_time: Vec::new(),
        span_totals: BTreeMap::new(),
    })
}

// --- rendering -------------------------------------------------------------

fn digest_to_json(d: &Digest) -> Value {
    let t = &d.tallies;
    let accounted =
        t.enumerated == t.oom + t.nonfinite + t.feasible && t.feasible == t.survived + t.dominated;
    let runner_ups: Vec<Value> = d
        .runner_ups
        .iter()
        .enumerate()
        .map(|(i, r)| {
            serde_json::json!({
                "rank": (i + 1) as u64,
                "grad_accum": r.grad_accum,
                "stages": r.stages,
                "selector": if r.exact { Value::Float(r.score) } else { Value::Null },
                "bound": if r.exact { Value::Null } else { Value::Float(r.score) },
                "objective": r.objective,
                "layers": r.layers.clone(),
                "incumbent": r.incumbent,
                "killing_constraint": r.constraint.clone(),
            })
        })
        .collect();
    let self_time: Vec<Value> = d
        .self_time
        .iter()
        .map(|(path, count, total, selfd)| {
            serde_json::json!({
                "path": path.clone(),
                "count": count,
                "total_s": total,
                "self_s": selfd,
            })
        })
        .collect();
    let span_totals = Value::Object(
        d.span_totals
            .iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect(),
    );
    let timing = match &d.stats {
        Some(s) => serde_json::json!({
            "elapsed_secs": s.elapsed_secs,
            "intra_secs": s.intra_secs,
            "inter_secs": s.inter_secs,
            "span_totals": span_totals,
            "self_time": self_time,
        }),
        None => serde_json::json!({
            "span_totals": span_totals,
            "self_time": self_time,
        }),
    };
    serde_json::json!({
        "source": d.source,
        "run": d.run.clone(),
        "coverage": serde_json::json!({
            "enumerated": t.enumerated,
            "oom": t.oom,
            "nonfinite": t.nonfinite,
            "feasible": t.feasible,
            "survived": t.survived,
            "dominated": t.dominated,
            "accounted": accounted,
        }),
        "rejections": serde_json::json!({
            "oom": t.oom,
            "nonfinite": t.nonfinite,
            "dominated": t.dominated,
            "out_of_budget": t.outer_out_of_budget,
            "bound_pruned": t.bound_pruned,
        }),
        "outer": serde_json::json!({
            "candidates": t.outer_total,
            "incumbents": t.outer_incumbent,
            "dominated": t.outer_dominated,
            "out_of_budget": t.outer_out_of_budget,
            "infeasible": t.outer_infeasible,
        }),
        "frontier_evolution": Value::Array(d.evolution.clone()),
        "frontiers": Value::Array(d.frontiers.clone()),
        "max_frontier_size": t.frontier_size_max,
        "runner_ups": Value::Array(runner_ups),
        "dp": serde_json::json!({
            "states": t.dp_states,
            "bound_pruned": t.bound_pruned,
            "solves": Value::Array(d.dp_solves.clone()),
        }),
        "certificates": Value::Array(d.cert_checks.clone()),
        "spans": serde_json::json!({ "total": d.span_count, "orphans": d.orphans }),
        "journal": serde_json::json!({ "dropped": d.dropped }),
        "timing": timing,
    })
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn render_text(d: &Digest) -> String {
    let t = &d.tallies;
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "source: {} ({} {})",
        d.source,
        get_str(&d.run, "model").unwrap_or("?"),
        get_str(&d.run, "space").unwrap_or("?"),
    ));
    line(String::new());
    line("coverage (intra-stage rows):".into());
    line(format!("  enumerated   {:>12}", t.enumerated));
    line(format!(
        "    oom        {:>12}  ({:.1}%)",
        t.oom,
        pct(t.oom, t.enumerated)
    ));
    line(format!(
        "    nonfinite  {:>12}  ({:.1}%)",
        t.nonfinite,
        pct(t.nonfinite, t.enumerated)
    ));
    line(format!(
        "    feasible   {:>12}  ({:.1}%)",
        t.feasible,
        pct(t.feasible, t.enumerated)
    ));
    line(format!("      survived  {:>11}", t.survived));
    line(format!("      dominated {:>11}", t.dominated));
    let accounted =
        t.enumerated == t.oom + t.nonfinite + t.feasible && t.feasible == t.survived + t.dominated;
    line(format!(
        "  accounted: {}",
        if accounted {
            "yes (every row attributed to exactly one outcome)"
        } else {
            "NO — counts do not add up"
        }
    ));
    line(String::new());
    line(format!(
        "outer candidates: {} ({} incumbent, {} dominated, {} out-of-budget, {} infeasible)",
        t.outer_total,
        t.outer_incumbent,
        t.outer_dominated,
        t.outer_out_of_budget,
        t.outer_infeasible
    ));
    if !d.evolution.is_empty() {
        line("incumbent evolution:".into());
        for e in &d.evolution {
            line(format!(
                "  G={:<3} S={:<2} selector {}  objective {}",
                get_u64(e, "grad_accum"),
                get_u64(e, "stages"),
                fmt_s(get_f64(e, "selector")),
                fmt_s(get_f64(e, "objective")),
            ));
        }
    }
    if !d.runner_ups.is_empty() {
        line(String::new());
        line(format!("top {} runner-up plans:", d.runner_ups.len()));
        for (i, r) in d.runner_ups.iter().enumerate() {
            let layers = if r.layers.is_empty() {
                String::new()
            } else {
                format!(
                    "  layers [{}]",
                    r.layers
                        .iter()
                        .map(|l| l.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )
            };
            line(format!(
                "  #{}: G={:<3} S={:<2} {}{}",
                i + 1,
                r.grad_accum,
                r.stages,
                r.constraint,
                layers
            ));
        }
    }
    line(String::new());
    line(format!(
        "inter-stage DP: {} states, {} bound-pruned transitions, {} solves",
        t.dp_states,
        t.bound_pruned,
        d.dp_solves.len()
    ));
    line(format!("max frontier size: {}", t.frontier_size_max));
    if !d.cert_checks.is_empty() {
        let ok = d
            .cert_checks
            .iter()
            .filter(|c| get(c, "ok") == Some(&Value::Bool(true)))
            .count();
        line(format!(
            "plan certificates: {}/{} checks passed",
            ok,
            d.cert_checks.len()
        ));
        for c in &d.cert_checks {
            if get(c, "ok") != Some(&Value::Bool(true)) {
                line(format!(
                    "  FAILED ({}): {}",
                    get_str(c, "phase").unwrap_or("?"),
                    serde_json::to_string(get(c, "failures").unwrap_or(&Value::Null))
                        .unwrap_or_default()
                ));
            }
        }
    }
    if d.span_count > 0 {
        line(String::new());
        line(format!(
            "spans: {} recorded, {} orphaned",
            d.span_count, d.orphans
        ));
        line("self-time (total / self, seconds):".into());
        for (path, count, total, selfd) in &d.self_time {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            line(format!(
                "  {:indent$}{name:<20} {total:>9.3} / {selfd:>8.3}  ({count}x)",
                "",
                indent = depth * 2
            ));
        }
        if let Some(s) = &d.stats {
            line(format!(
                "phase totals: intra {:.3}s (spans {:.3}s), inter {:.3}s (spans {:.3}s), elapsed {:.3}s",
                s.intra_secs,
                d.span_totals.get("intra.sweep").copied().unwrap_or(0.0),
                s.inter_secs,
                d.span_totals.get("inter.solve").copied().unwrap_or(0.0),
                s.elapsed_secs
            ));
        }
    }
    if d.dropped > 0 {
        line(format!(
            "WARNING: {} journal records dropped (ring full) — counts are partial",
            d.dropped
        ));
    }
    out
}

/// Runs `mist-cli explain` on `path`.
pub(crate) fn run_explain(path: &str, json: bool, top: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    let digest = if first.starts_with("{\"header\"") || first.starts_with("{\"record\"") {
        digest_journal(&parse_journal(&text, path)?, top)
    } else {
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
        digest_outcome(&v)?
    };
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&digest_to_json(&digest)).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", render_text(&digest));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, event: JournalEvent) -> String {
        let r = JournalRecord {
            seq,
            span: 0,
            event,
        };
        format!("{{\"record\":{}}}", r.to_jsonl())
    }

    fn sample_journal() -> String {
        let mut lines = vec![
            r#"{"header":{"version":1,"model":"gpt3-1.3b","space":"mist"}}"#.to_owned(),
            r#"{"stats":{"configs_evaluated":10,"milp_solves":1,"outer_candidates":2,"elapsed_secs":1.0,"intra_secs":0.6,"inter_secs":0.1}}"#.to_owned(),
            r#"{"span":{"id":1,"parent":0,"name":"tuner.tune","tid":0,"start_us":0.0,"dur_us":100.0}}"#.to_owned(),
            r#"{"span":{"id":2,"parent":1,"name":"tuner.outer","tid":0,"start_us":1.0,"dur_us":60.0}}"#.to_owned(),
        ];
        lines.push(record(
            0,
            JournalEvent::FrontierSummary {
                mesh_nodes: 1,
                mesh_gpus: 4,
                role: "Only".into(),
                inflight: 1,
                grad_accum: 4,
                max_layers: 8,
                enumerated: 100,
                oom: 30,
                nonfinite: 0,
                feasible: 70,
                survived: 20,
                dominated: 50,
                sizes: vec![2, 2, 3, 3, 3, 3, 2, 2],
            },
        ));
        lines.push(record(
            1,
            JournalEvent::OuterCandidate {
                grad_accum: 4,
                stages: 1,
                outcome: OuterOutcome::Incumbent,
                selector: Some(1.0),
                objective: Some(1.0),
                layers: vec![8],
                incumbent: None,
                bound: None,
            },
        ));
        lines.push(record(
            2,
            JournalEvent::Incumbent {
                grad_accum: 4,
                stages: 1,
                selector: 1.0,
                objective: 1.0,
            },
        ));
        lines.push(record(
            3,
            JournalEvent::OuterCandidate {
                grad_accum: 4,
                stages: 2,
                outcome: OuterOutcome::Dominated,
                selector: Some(1.5),
                objective: Some(1.4),
                layers: vec![4, 4],
                incumbent: Some(1.0),
                bound: None,
            },
        ));
        lines.push(r#"{"journal":{"records":4,"dropped":0}}"#.to_owned());
        lines.join("\n")
    }

    #[test]
    fn journal_digest_accounts_every_row() {
        let jf = parse_journal(&sample_journal(), "test").unwrap();
        let d = digest_journal(&jf, DEFAULT_TOP_K);
        assert_eq!(d.tallies.enumerated, 100);
        assert_eq!(
            d.tallies.enumerated,
            d.tallies.oom + d.tallies.nonfinite + d.tallies.feasible
        );
        assert_eq!(d.tallies.feasible, d.tallies.survived + d.tallies.dominated);
        assert_eq!(d.tallies.outer_total, 2);
        assert_eq!(d.tallies.outer_incumbent, 1);
        assert_eq!(d.runner_ups.len(), 1);
        assert!(d.runner_ups[0].constraint.contains("incumbent"));
        assert_eq!(d.orphans, 0);
        assert_eq!(d.span_count, 2);
        // Self-time: outer nests under tune, so tune's self is 40us.
        let tune = d
            .self_time
            .iter()
            .find(|(p, ..)| p == "tuner.tune")
            .unwrap();
        assert!((tune.3 - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn digest_json_is_valid_and_has_timing_subtree() {
        let jf = parse_journal(&sample_journal(), "test").unwrap();
        let d = digest_journal(&jf, DEFAULT_TOP_K);
        let v = digest_to_json(&d);
        assert!(get(&v, "timing").is_some());
        assert_eq!(
            get(get(&v, "coverage").unwrap(), "accounted"),
            Some(&Value::Bool(true))
        );
        // Round-trips through the serializer.
        let text = serde_json::to_string_pretty(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn orphaned_spans_are_counted() {
        let text = r#"{"header":{"model":"m","space":"s"}}
{"span":{"id":5,"parent":99,"name":"lost","tid":1,"start_us":0.0,"dur_us":1.0}}"#;
        let jf = parse_journal(text, "test").unwrap();
        let d = digest_journal(&jf, DEFAULT_TOP_K);
        assert_eq!(d.orphans, 1);
    }

    #[test]
    fn text_rendering_mentions_key_sections() {
        let jf = parse_journal(&sample_journal(), "test").unwrap();
        let d = digest_journal(&jf, DEFAULT_TOP_K);
        let text = render_text(&d);
        assert!(text.contains("coverage"));
        assert!(text.contains("accounted: yes"));
        assert!(text.contains("runner-up"));
        assert!(text.contains("incumbent evolution"));
    }
}
