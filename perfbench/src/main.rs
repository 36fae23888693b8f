//! End-to-end and per-layer benchmark of the Mist tuner and the planner
//! daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tune-6.7b --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Every workload is a sequence of rounds over one base query (GPT-3,
//! seq 2048, flash, L4, `mist` space). A round sets up (calibration and
//! a planner daemon over a file-backed cache), times cold plans, exact
//! hits and warm-started queries, and checks every answer. Rounds
//! repeat until `--seconds` have passed (at least three). Timings are
//! medians over the run's samples, except exact hits, which report a
//! low quantile. See `perfbench/NOTES.md` for why each workload exists
//! and where the noise comes from.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it records the
//! host and configuration fingerprint.

mod replay;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mist::MistSession;
use mist_graph::{StageAnalyzer, StageCandidate, StagePoint, StageRole};
use mist_hardware::{DeviceMesh, Platform, GIB};
use mist_interference::{fit, InterferenceModel};
use mist_models::{gpt3, AttentionImpl, ModelSize};
use mist_schedule::{IterationSchedule, TrainingPlan};
use mist_service::{canonical_fingerprint, CacheEntry, PlanCache, PlannerService, QuerySummary};
use mist_sim::{benchmark_interference, simulate, GroundTruth};
use mist_symbolic::CompiledProgram;
use mist_tuner::{certify_plan, TuneOutcome, TuneStats, Tuner};
use serde::{Deserialize, Value};

use crate::replay::{replay_sweep, SweepInput};
use crate::trace::Tracer;

/// Rounds every run makes, however long they take: medians need at
/// least three samples.
const MIN_ROUNDS: usize = 3;
/// Exact hits issued before and after each round's warm query, so hit
/// samples are spread over the whole run (~500 timed hits per run even
/// on tune-22b, so about ten lie below the 2nd percentile).
const HITS_PER_SLOT: usize = 200;
/// The quantile `hit_ms` reports. Single hits are short enough to land
/// wholly in one of the host's fast and slow phases, so their
/// distribution is bimodal and its median jumps between the modes from
/// run to run; a low quantile tracks the fast phase every run visits
/// (see `NOTES.md`).
const HIT_QUANTILE: f64 = 0.02;
/// Calibration parameters the tuner session and the daemon both use.
const CALIBRATION_SAMPLES: usize = 400;
const FIT_ITERATIONS: usize = 3000;
/// Where runs keep their cache files and write their traces (inside the
/// checkout the benchmark runs from).
const OUT_DIR: &str = ".perfbench_out";

/// One named workload.
struct Workload {
    name: &'static str,
    size: ModelSize,
    gpus: u32,
    batch: u64,
    budget_gib: Option<f64>,
    pool_threads: usize,
    /// Tune workloads time `Tuner::tune`; the daemon workload times
    /// cold queries through `handle_line`.
    cold_via_daemon: bool,
    /// Whether every round starts a fresh daemon, or one daemon serves
    /// the whole run.
    daemon_per_round: bool,
    /// Warm-start deltas of the base query: `(batch, budget_gib)`.
    deltas: &'static [(u64, Option<f64>)],
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tune-6.7b",
        size: ModelSize::B6_7,
        gpus: 8,
        batch: 16,
        budget_gib: None,
        pool_threads: 1,
        cold_via_daemon: false,
        daemon_per_round: true,
        deltas: &[(32, None)],
    },
    Workload {
        name: "tune-6.7b-3gib",
        size: ModelSize::B6_7,
        gpus: 8,
        batch: 16,
        budget_gib: Some(3.0),
        pool_threads: 1,
        cold_via_daemon: false,
        daemon_per_round: true,
        deltas: &[(32, Some(3.0))],
    },
    Workload {
        name: "tune-22b",
        size: ModelSize::B22,
        gpus: 32,
        batch: 256,
        budget_gib: None,
        pool_threads: 2,
        cold_via_daemon: false,
        daemon_per_round: false,
        deltas: &[(128, None)],
    },
    Workload {
        name: "daemon-mix",
        size: ModelSize::B6_7,
        gpus: 8,
        batch: 16,
        budget_gib: None,
        pool_threads: 1,
        cold_via_daemon: true,
        daemon_per_round: true,
        deltas: &[(8, None), (32, None), (16, Some(20.0))],
    },
];

impl Workload {
    fn model_name(&self) -> &'static str {
        match self.size {
            ModelSize::B22 => "gpt3-22b",
            _ => "gpt3-6.7b",
        }
    }

    fn budget(&self) -> Option<f64> {
        self.budget_gib.map(|g| g * GIB)
    }

    /// A plan query line for `(batch, budget)` with the run's seed.
    fn query(&self, batch: u64, budget_gib: Option<f64>, seed: u64, no_cache: bool) -> String {
        let mut line = format!(
            "{{\"model\":\"{}\",\"platform\":\"l4\",\"gpus\":{},\"batch\":{batch},\"seed\":{seed}",
            self.model_name(),
            self.gpus
        );
        if let Some(b) = budget_gib {
            line.push_str(&format!(",\"budget_gib\":{b:?}"));
        }
        if no_cache {
            line.push_str(",\"no_cache\":true");
        }
        line.push('}');
        line
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))
                    .and_then(|s: u64| {
                        (s <= i64::MAX as u64)
                            .then_some(s)
                            .ok_or("--seed must fit in 63 bits".to_owned())
                    })?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        std::process::exit(self_test());
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (one of: {})",
            args.workload,
            WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    };
    let result = run(w, args.seed, args.seconds, MIN_ROUNDS, args.trace);
    println!("{}", result.fingerprint);
    println!("{}", result.json());
    if result.failed > 0 {
        std::process::exit(1);
    }
}

/// One metric as printed.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    fingerprint: String,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Every digit of the value (Rust prints the shortest string that
/// round-trips); non-finite values, which JSON cannot carry, become
/// `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Compares every repetition of a tune with the first, timing and
/// telemetry stripped: same plan, same `predicted_iteration` bits, same
/// `configs_evaluated`, and a certificate that re-checks.
#[derive(Default)]
struct TuneCheck {
    first: Option<String>,
}

impl TuneCheck {
    fn key(o: &TuneOutcome) -> String {
        let mut o = o.clone();
        o.stats = TuneStats {
            configs_evaluated: o.stats.configs_evaluated,
            ..TuneStats::default()
        };
        o.telemetry = Default::default();
        format!(
            "{:016x} {}",
            o.predicted_iteration.to_bits(),
            serde_json::to_string(&o).expect("outcome serializes")
        )
    }

    /// Whether `o` matches the first outcome seen and its certificate
    /// re-checked.
    fn check(&mut self, o: &TuneOutcome, cert_ok: bool) -> bool {
        let key = Self::key(o);
        let same = self.first.get_or_insert_with(|| key.clone()) == &key;
        same && cert_ok
    }
}

/// Compares every daemon answer with a cold answer for the same key:
/// the `result` object must be byte-identical.
#[derive(Default)]
struct ResultCheck {
    /// Per key: the cold reference, once known, and every distinct
    /// answer seen with its count.
    keys: BTreeMap<String, (Option<String>, BTreeMap<String, u64>)>,
}

impl ResultCheck {
    fn record(&mut self, key: &str, result: String) {
        *self
            .keys
            .entry(key.to_owned())
            .or_default()
            .1
            .entry(result)
            .or_insert(0) += 1;
    }

    fn reference(&mut self, key: &str, result: String) {
        self.keys.entry(key.to_owned()).or_default().0 = Some(result);
    }

    /// Answers that differ from their key's cold reference (all of them
    /// when a key has no reference).
    fn mismatches(&self) -> u64 {
        self.keys
            .values()
            .map(|(reference, seen)| {
                seen.iter()
                    .filter(|(r, _)| reference.as_deref() != Some(r.as_str()))
                    .map(|(_, n)| n)
                    .sum::<u64>()
            })
            .sum()
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// One daemon answer: its latency, parsed response and serialized
/// `result`.
struct Answer {
    ms: f64,
    ok: bool,
    source: String,
    configs: f64,
    result: String,
    response: Value,
}

fn ask(svc: &PlannerService, line: &str, tr: &mut Tracer, span: &'static str) -> Answer {
    tr.begin_op();
    let t = Instant::now();
    let (resp, _) = tr.span(span, || svc.handle_line(line));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let response: Value = serde_json::from_str(&resp).expect("daemon answers JSON");
    let work = field(&response, "work");
    Answer {
        ms,
        ok: field(&response, "ok") == Some(&Value::Bool(true)),
        source: match work.and_then(|w| field(w, "source")) {
            Some(Value::Str(s)) => s.clone(),
            _ => String::new(),
        },
        configs: work
            .and_then(|w| field(w, "configs_evaluated"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        result: field(&response, "result")
            .map(|r| serde_json::to_string(r).expect("result serializes"))
            .unwrap_or_default(),
        response,
    }
}

/// Simulated training throughput of a plan (samples/s).
fn sim_throughput(plan: &TrainingPlan, points: &[StagePoint]) -> f64 {
    let schedule = IterationSchedule::from_points(plan.grad_accum, points);
    let report = simulate(&schedule, &GroundTruth::for_platform(Platform::GcpL4));
    plan.global_batch as f64 / report.iteration_time
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile; `NaN` for no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident memory of this process (MiB).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time this process has used (seconds).
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Starts a daemon over an empty file-backed cache at `path` and sends
/// one small uncached query that runs its interference calibration for
/// the run's seed, so no timed query pays for it.
fn start_daemon(path: &Path, seed: u64) -> PlannerService {
    let _ = std::fs::remove_file(path);
    let svc = PlannerService::new(PlanCache::open(path).expect("open the plan cache"));
    let warmup = format!(
        "{{\"model\":\"gpt3-1.3b\",\"platform\":\"l4\",\"gpus\":1,\"batch\":1,\"seed\":{seed},\"no_cache\":true}}"
    );
    let (resp, _) = svc.handle_line(&warmup);
    assert!(
        resp.contains("\"ok\":true"),
        "daemon warm-up failed: {resp}"
    );
    svc
}

/// Everything one run measured.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    cold_ms: Vec<f64>,
    /// Latencies of exact hits of the base query.
    hit_ms: Vec<f64>,
    /// Warm-query latencies per delta. On `daemon-mix` the deltas are
    /// different queries, so one median over all of them would mix
    /// query types.
    warm_by_delta: BTreeMap<usize, Vec<f64>>,
    /// Wall time of the timed cold operation with the telemetry
    /// collector off and on (the traced run alternates rounds).
    tune_off_ms: Vec<f64>,
    tune_on_ms: Vec<f64>,
    intra_ms: Vec<f64>,
    inter_ms: Vec<f64>,
    tune_cpu_s: f64,
    tune_wall_s: f64,
    warm_configs: Vec<f64>,
    cold_configs: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    /// Records one timed cold operation: a `Tuner::tune`, or the cold
    /// base query on `daemon-mix`.
    fn timed_cold(&mut self, ms: f64, cpu_s: f64, pool_threads: usize, collector_on: bool) {
        self.tune_cpu_s += cpu_s;
        self.tune_wall_s += ms / 1e3 * pool_threads as f64;
        if collector_on {
            self.tune_on_ms.push(ms);
        } else {
            self.tune_off_ms.push(ms);
        }
    }

    /// Records one daemon answer of the expected source. Warm and hit
    /// latencies are recorded by the caller.
    fn answer(&mut self, a: &Answer, source: &str) {
        self.attempted += 1;
        self.failed += u64::from(!a.ok || a.source != source);
        match source {
            "cold" => {
                self.cold_ms.push(a.ms);
                self.cold_configs.push(a.configs);
            }
            "warm" => self.warm_configs.push(a.configs),
            _ => {}
        }
    }
}

/// Hit, miss and warm-start counts summed over a run's daemons.
#[derive(Default)]
struct DaemonCounters {
    hits: u64,
    misses: u64,
    warm_starts: u64,
}

impl DaemonCounters {
    fn add(&mut self, d: &PlannerService) {
        self.hits += d.cache_hits();
        self.misses += d.cache_misses();
        self.warm_starts += d.warm_start_count();
    }
}

/// The plan chosen for the base query, from the daemon's cold answer.
struct BasePlan {
    plan: TrainingPlan,
    points: Vec<StagePoint>,
    throughput: f64,
}

impl BasePlan {
    fn parse(response: &Value) -> BasePlan {
        let result = field(response, "result").expect("cold answers carry a result");
        BasePlan {
            plan: TrainingPlan::from_value(field(result, "plan").expect("plan"))
                .expect("plan parses"),
            points: Vec::<StagePoint>::from_value(field(result, "stage_points").expect("points"))
                .expect("stage points parse"),
            throughput: field(result, "predicted_throughput")
                .and_then(Value::as_f64)
                .expect("throughput"),
        }
    }
}

/// Runs one workload: rounds until `seconds` have passed, at least
/// `min_rounds`.
///
/// A round of a tune workload times one cold `Tuner::tune` (a fresh
/// tuner, so no cache carries over) and exact hits; a round of the
/// daemon workload times the base query sent cold instead. Each daemon
/// starts over an empty cache and is first sent the base query cold,
/// which is also the process's warm-up tune.
///
/// With `daemon_per_round`, every round starts a fresh daemon (its
/// set-up is one `setup_s` sample). Every round sends one warm-started
/// delta, cycling through the deltas in a seeded order, and exact hits
/// over a seeded choice of the keys cached so far before and after it.
/// A fresh cache per round keeps the cache sizes, and so the cache
/// writes inside warm queries, the same in every round. Otherwise
/// (tune-22b, whose cold daemon query alone takes seconds) one daemon
/// serves the whole run, is set up three times, and gets one delta per
/// round while deltas last.
fn run(w: &Workload, seed: u64, seconds: f64, min_rounds: usize, traced: bool) -> RunResult {
    mist_pool::set_global_threads(w.pool_threads);
    let collector = mist_telemetry::global();
    collector.disable();
    let dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let cache_file = dir.join("cache.jsonl");
    let mut tr = Tracer::new(traced);
    let mut s = Samples::default();
    let mut tune_check = TuneCheck::default();
    let mut answers = ResultCheck::default();
    // Only the current daemon is kept, so memory does not grow with the
    // number of rounds; the counters of retired daemons are summed.
    let mut daemon: Option<PlannerService> = None;
    let mut counters = DaemonCounters::default();
    let mut rng = SplitMix(seed);

    let model = gpt3(w.size, 2048, AttentionImpl::Flash);
    let base_key = w.query(w.batch, w.budget_gib, seed, false);
    let delta_keys: Vec<String> = w
        .deltas
        .iter()
        .map(|&(b, g)| w.query(b, g, seed, false))
        .collect();
    let mut delta_cycle: Vec<usize> = (0..delta_keys.len()).collect();
    rng.shuffle(&mut delta_cycle);
    let setup = |tr: &mut Tracer, s: &mut Samples| {
        tr.begin_op();
        let t = Instant::now();
        tr.enter("setup");
        let session = (!w.cold_via_daemon).then(|| {
            MistSession::builder(model.clone(), Platform::GcpL4, w.gpus)
                .seed(seed)
                .build()
        });
        let svc = start_daemon(&cache_file, seed);
        tr.exit();
        s.setup_s.push(t.elapsed().as_secs_f64());
        (session, svc)
    };

    let started = Instant::now();
    let mut session: Option<MistSession> = None;
    let mut base_plan: Option<BasePlan> = None;
    let mut round = 0usize;
    while round < min_rounds || started.elapsed().as_secs_f64() < seconds {
        // The traced run turns the telemetry collector on for the timed
        // cold operation of every other round.
        let collector_on = traced && round % 2 == 1;
        // A daemon per round, or one per run set up three times (the
        // last set-up is kept). Its first query is the base query, cold:
        // on `daemon-mix` the timed operation, elsewhere a warm-up.
        if w.daemon_per_round || round == 0 {
            let setups = if w.daemon_per_round { 1 } else { 3 };
            for _ in 0..setups {
                let (sess, svc) = setup(&mut tr, &mut s);
                session = sess;
                if let Some(old) = daemon.replace(svc) {
                    counters.add(&old);
                }
            }
            let svc = daemon.as_ref().expect("set up above");
            let timed = w.cold_via_daemon;
            if timed && collector_on {
                collector.enable();
            }
            let cpu0 = cpu_secs();
            let a = ask(svc, &base_key, &mut tr, "service.cold");
            collector.disable();
            if timed {
                s.timed_cold(a.ms, cpu_secs() - cpu0, w.pool_threads, collector_on);
            }
            s.answer(&a, "cold");
            if base_plan.is_none() {
                base_plan = Some(BasePlan::parse(&a.response));
                answers.reference(&base_key, a.result);
            } else {
                answers.record(&base_key, a.result);
            }
        }
        let svc = daemon.as_ref().expect("set up above");
        if let Some(session) = &session {
            if collector_on {
                collector.enable();
            }
            let tuner = Tuner::new(
                session.model(),
                session.cluster(),
                session.cost_db(),
                session.space(),
                session.interference(),
            );
            let tuner = match w.budget() {
                Some(b) => tuner.with_budget(b),
                None => tuner,
            };
            tr.begin_op();
            let (cpu0, t) = (cpu_secs(), Instant::now());
            let outcome = tr.span("tuner.tune", || tuner.tune(w.batch));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            collector.disable();
            let outcome = outcome.expect("the base query is feasible");
            s.timed_cold(ms, cpu_secs() - cpu0, w.pool_threads, collector_on);
            if !collector_on {
                s.intra_ms.push(outcome.stats.intra_secs * 1e3);
                s.inter_ms.push(outcome.stats.inter_secs * 1e3);
            }
            let budget = w.budget().unwrap_or(session.cluster().gpu.memory_bytes);
            let report = certify_plan(
                session.model(),
                session.cluster(),
                session.cost_db(),
                session.interference(),
                &outcome.plan,
                &outcome.stage_points,
                outcome.predicted_iteration,
                budget,
                session.space().overlap_aware,
                "verify",
            );
            let cert_ok = report.ok() && report.certificate == outcome.certificate;
            let base = base_plan
                .as_ref()
                .expect("the daemon answered the base query");
            let daemon_agrees = base.throughput.to_bits() == outcome.predicted_throughput.to_bits()
                && serde_json::to_string(&base.plan).ok()
                    == serde_json::to_string(&outcome.plan).ok();
            s.attempted += 1;
            s.failed += u64::from(!tune_check.check(&outcome, cert_ok) || !daemon_agrees);
        }

        // One warm start per round, each preceded and followed by hits
        // over the keys cached so far. A shared daemon already holds the
        // deltas of earlier rounds and gets each delta once.
        let mut cached: Vec<&String> = vec![&base_key];
        if !w.daemon_per_round {
            cached.extend(delta_cycle.iter().take(round).map(|&i| &delta_keys[i]));
        }
        hits(svc, &cached, &mut rng, &mut tr, &mut s, &mut answers);
        if w.daemon_per_round || round < delta_cycle.len() {
            let i = delta_cycle[round % delta_cycle.len()];
            let a = ask(svc, &delta_keys[i], &mut tr, "service.warm");
            s.answer(&a, "warm");
            s.warm_by_delta.entry(i).or_default().push(a.ms);
            answers.record(&delta_keys[i], a.result);
            cached.push(&delta_keys[i]);
            hits(svc, &cached, &mut rng, &mut tr, &mut s, &mut answers);
        }
        round += 1;
    }
    let measured_s = started.elapsed().as_secs_f64();

    // Cold references for the warm-started keys, from a daemon that
    // bypasses its cache.
    let daemon = daemon.expect("at least one daemon ran");
    for (key, &(batch, budget_gib)) in delta_keys.iter().zip(w.deltas) {
        let cold = w.query(batch, budget_gib, seed, true);
        let a = ask(&daemon, &cold, &mut tr, "service.reference");
        s.failed += u64::from(!a.ok);
        answers.reference(key, a.result);
    }
    s.failed += answers.mismatches();

    let base_plan = base_plan.expect("every run answers the base query");
    let sim = sim_throughput(&base_plan.plan, &base_plan.points);
    let tier = kernel_tier(w);
    // On `daemon-mix` the first cold query is the process's first tune:
    // a warm-up, left out.
    let tune_ms = match &s.tune_off_ms[..] {
        [_, rest @ ..] if w.cold_via_daemon && !rest.is_empty() => rest.to_vec(),
        all => all.to_vec(),
    };

    // The mean over deltas of each delta's median latency.
    let warm_ms =
        s.warm_by_delta.values().map(|v| median(v)).sum::<f64>() / s.warm_by_delta.len() as f64;
    let metrics = if traced {
        counters.add(&daemon);
        layer_metrics(w, seed, &mut tr, &s, &daemon, &counters, &dir)
    } else {
        let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
        vec![
            m("setup_s", median(&s.setup_s), "s"),
            m("tune_ms", median(&tune_ms), "ms"),
            m("hit_ms", quantile(&s.hit_ms, HIT_QUANTILE), "ms"),
            m("warm_ms", warm_ms, "ms"),
            m("plan_samples_per_s", base_plan.throughput, "samples/s"),
            m("sim_samples_per_s", sim, "samples/s"),
            m("peak_rss_mib", peak_rss_mib(), "MiB"),
        ]
    };
    if traced {
        let path = PathBuf::from(OUT_DIR)
            .join("traces")
            .join(format!("{}-seed{seed}.jsonl", w.name));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    // Gone unless a traced run left its spans there.
    let _ = std::fs::remove_dir(OUT_DIR);

    let fingerprint = format!(
        "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"nproc\": {}, \
         \"cpu_model\": \"{}\", \"kernel_tier\": \"{tier}\", \"pool_threads\": {}, \"rounds\": {round}, \
         \"measured_s\": {measured_s:.3}, \"samples\": {{\"setup\": {}, \"tune\": {}, \"hit\": {}, \
         \"warm\": {}}}, \"failed_frac\": {}}}}}",
        w.name,
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model().replace('"', "'"),
        w.pool_threads,
        s.setup_s.len(),
        tune_ms.len(),
        s.hit_ms.len(),
        s.warm_configs.len(),
        s.failed as f64 / s.attempted.max(1) as f64,
    );
    RunResult {
        attempted: s.attempted,
        failed: s.failed,
        metrics,
        fingerprint,
    }
}

/// Exact hits over the keys cached so far (the base query first),
/// chosen by the seeded RNG. Only hits of the base query are timed: a
/// hit re-checks its plan's certificate, and plans of different sizes
/// cost different re-checks.
fn hits(
    svc: &PlannerService,
    cached: &[&String],
    rng: &mut SplitMix,
    tr: &mut Tracer,
    s: &mut Samples,
    answers: &mut ResultCheck,
) {
    for _ in 0..HITS_PER_SLOT {
        let k = rng.below(cached.len());
        let key = cached[k];
        let a = ask(svc, key, tr, "service.hit");
        s.answer(&a, "hit");
        if k == 0 {
            s.hit_ms.push(a.ms);
        }
        answers.record(key, a.result);
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    w: &Workload,
    seed: u64,
    tr: &mut Tracer,
    s: &Samples,
    daemon: &PlannerService,
    counters: &DaemonCounters,
    dir: &Path,
) -> Vec<Metric> {
    // Calibration, as the session and the daemon run it.
    let prior = InterferenceModel::pcie_defaults();
    for _ in 0..3 {
        tr.begin_op();
        let samples = tr.span("calibrate.bench", || {
            benchmark_interference(Platform::GcpL4, CALIBRATION_SAMPLES, seed)
        });
        tr.span("calibrate.fit", || {
            std::hint::black_box(fit(&prior, &samples, FIT_ITERATIONS, seed ^ 0x5EED));
        });
    }
    let session = MistSession::builder(
        gpt3(w.size, 2048, AttentionImpl::Flash),
        Platform::GcpL4,
        w.gpus,
    )
    .seed(seed)
    .build();
    let budget = w.budget().unwrap_or(session.cluster().gpu.memory_bytes);

    // One cold tune under the telemetry collector: the counters it
    // publishes only there (`inter.dp_states`, `intra.tape_compiles`,
    // `pool.tasks_stolen`), and the frontier export a cache entry holds.
    mist_telemetry::global().enable();
    let (outcome, export) = Tuner::new(
        session.model(),
        session.cluster(),
        session.cost_db(),
        session.space(),
        session.interference(),
    )
    .with_budget(budget)
    .tune_with_export(w.batch)
    .expect("the base query is feasible");
    mist_telemetry::global().disable();
    let outcome = &outcome;
    let counter = |name: &str| outcome.telemetry.counter(name) as f64;

    tr.begin_op();
    tr.enter("intra.replay");
    let counts = replay_sweep(
        &SweepInput {
            model: session.model(),
            cluster: session.cluster(),
            db: session.cost_db(),
            space: session.space(),
            interference: session.interference(),
            global_batch: w.batch,
            budget,
            max_grad_accum: 256,
        },
        tr,
    );
    tr.exit();
    if counts.rows_evaluated != outcome.stats.configs_evaluated
        || counts.rows_oom as f64 != counter("tuner.rejections.oom")
        || counts.rows_nonfinite as f64 != counter("tuner.rejections.nonfinite")
        || counts.rows_mono_pruned as f64 != counter("tuner.rejections.mono_pruned")
    {
        eprintln!(
            "perfbench: replay walked {} rows ({} OOM, {} non-finite, {} pruned), \
             the tune {} ({} OOM, {} non-finite, {} pruned)",
            counts.rows_evaluated,
            counts.rows_oom,
            counts.rows_nonfinite,
            counts.rows_mono_pruned,
            outcome.stats.configs_evaluated,
            counter("tuner.rejections.oom"),
            counter("tuner.rejections.nonfinite"),
            counter("tuner.rejections.mono_pruned"),
        );
    }

    // Daemon internals, timed around their public functions.
    let arch = serde_json::to_value(session.model()).expect("model serializes");
    let space = serde_json::to_value(session.space()).expect("space serializes");
    let material = serde_json::json!({
        "arch": arch,
        "cluster": serde_json::json!({
            "platform": "l4",
            "num_nodes": session.cluster().num_nodes,
            "gpus_per_node": session.cluster().gpus_per_node,
        }),
        "space": space,
        "budget": budget,
        "batch": w.batch,
        "seed": seed,
        "max_grad_accum": 256u64,
    });
    // A hit, its certificate re-check and its two fingerprints, back to
    // back: `service.respond_us`, what a hit costs beyond them (parse,
    // resolve, lookup, response), comes from samples taken together.
    let base_key = w.query(w.batch, w.budget_gib, seed, false);
    let mut probe_hits = Vec::new();
    for _ in 0..100 {
        probe_hits.push(ask(daemon, &base_key, tr, "service.probe_hit").ms);
        tr.span("certify", || {
            certify_plan(
                session.model(),
                session.cluster(),
                session.cost_db(),
                session.interference(),
                &outcome.plan,
                &outcome.stage_points,
                outcome.predicted_iteration,
                budget,
                session.space().overlap_aware,
                "serve",
            )
        });
        for _ in 0..2 {
            tr.span("service.fingerprint", || {
                std::hint::black_box(canonical_fingerprint(&material));
            });
        }
    }
    let mut cache = PlanCache::open(dir.join("save.jsonl")).expect("open a plan cache");
    cache.insert(CacheEntry {
        exact: canonical_fingerprint(&material),
        family: String::new(),
        summary: QuerySummary {
            model: session.model().name.clone(),
            platform: "l4".into(),
            gpus: w.gpus,
            batch: w.batch,
            space: session.space().name.clone(),
            budget,
            seq: 2048,
            qos: "exhaustive".into(),
        },
        outcome: outcome.clone(),
        export,
    });
    for _ in 0..3 {
        tr.span("service.cache_save", || cache.save().expect("cache saves"));
    }
    let spans = tr.self_ms();
    let total = |name: &str| spans.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let med = |name: &str| spans.get(name).map_or(f64::NAN, |v| median(v));
    let per_s = |rows: u64, name: &str| rows as f64 / (total(name) / 1e3);

    let intra_ms = median(&s.intra_ms);
    let sub_layers = [
        "graph.analyze",
        "irlint.mono",
        "irlint.intervals",
        "symbolic.compile",
        "symbolic.eval_mem",
        "symbolic.eval_full",
        "interference.predict",
        "pareto",
    ];
    let replayed: f64 = sub_layers.iter().map(|n| total(n)).sum();
    let intra_ms = if intra_ms.is_nan() {
        outcome.stats.intra_secs * 1e3
    } else {
        intra_ms
    };
    let inter_ms = if s.inter_ms.is_empty() {
        outcome.stats.inter_secs * 1e3
    } else {
        median(&s.inter_ms)
    };
    let configs = outcome.stats.configs_evaluated as f64;
    let feasible =
        configs - counter("tuner.rejections.oom") - counter("tuner.rejections.nonfinite");
    let frontier = feasible - counter("tuner.rejections.dominated");
    let hit_ms = median(&probe_hits);
    let fingerprint_us = med("service.fingerprint") * 1e3;
    let certify_ms = med("certify");
    let cold_configs = median(&s.cold_configs);
    let overhead = if s.tune_on_ms.is_empty() || s.tune_off_ms.is_empty() {
        f64::NAN
    } else {
        median(&s.tune_on_ms) - median(&s.tune_off_ms)
    };

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("calibrate.bench_ms", med("calibrate.bench"), "ms"),
        m("calibrate.fit_ms", med("calibrate.fit"), "ms"),
        m("graph.analyze_ms", total("graph.analyze"), "ms"),
        m("graph.tapes", counter("intra.tape_compiles"), "count"),
        m("irlint.mono_ms", total("irlint.mono"), "ms"),
        m("irlint.intervals_ms", total("irlint.intervals"), "ms"),
        m(
            "intra.rows_mono_pruned",
            counter("tuner.rejections.mono_pruned"),
            "count",
        ),
        m("symbolic.compile_ms", total("symbolic.compile"), "ms"),
        m(
            "symbolic.mem_rows_per_s",
            per_s(counts.mem_rows, "symbolic.eval_mem"),
            "rows/s",
        ),
        m(
            "symbolic.full_rows_per_s",
            per_s(counts.full_rows, "symbolic.eval_full"),
            "rows/s",
        ),
        m(
            "interference.predict_rows_per_s",
            per_s(counts.predict_rows, "interference.predict"),
            "rows/s",
        ),
        m("intra.ms", intra_ms, "ms"),
        m("intra.configs_evaluated", configs, "count"),
        m("intra.rows_oom", counter("tuner.rejections.oom"), "count"),
        m("intra.rows_feasible", feasible, "count"),
        m("intra.frontier_points", frontier, "count"),
        m("intra.useful_ratio", frontier / feasible, "ratio"),
        m("intra.unattributed_ms", intra_ms - replayed, "ms"),
        m("pareto.ms", total("pareto"), "ms"),
        m("inter.ms", inter_ms, "ms"),
        m("inter.solves", outcome.stats.milp_solves as f64, "count"),
        m("inter.dp_states", counter("inter.dp_states"), "count"),
        m(
            "inter.bound_pruned",
            counter("tuner.rejections.bound_pruned"),
            "count",
        ),
        m("certify.ms", certify_ms, "ms"),
        m(
            "pool.busy_share",
            if s.tune_wall_s > 0.0 {
                s.tune_cpu_s / s.tune_wall_s
            } else {
                f64::NAN
            },
            "ratio",
        ),
        m("pool.tasks_stolen", counter("pool.tasks_stolen"), "count"),
        m("service.fingerprint_us", fingerprint_us, "us"),
        m(
            "service.respond_us",
            (hit_ms - certify_ms) * 1e3 - 2.0 * fingerprint_us,
            "us",
        ),
        m("service.cache_save_ms", med("service.cache_save"), "ms"),
        m(
            "service.warm_configs_frac",
            median(&s.warm_configs) / cold_configs,
            "ratio",
        ),
        m("service.cold_ms", median(&s.cold_ms), "ms"),
        m("service.hit_median_ms", median(&s.hit_ms), "ms"),
        m("service.hit_p99_ms", quantile(&s.hit_ms, 0.99), "ms"),
        m("service.hits", counters.hits as f64, "count"),
        m("service.misses", counters.misses as f64, "count"),
        m("service.warm_starts", counters.warm_starts as f64, "count"),
        m("trace.overhead_ms", overhead, "ms"),
    ]
}

/// The instruction-set tier the compiled kernels resolved to on this
/// host, from one stage program of the workload's model.
fn kernel_tier(w: &Workload) -> &'static str {
    let model = gpt3(w.size, 2048, AttentionImpl::Flash);
    let cluster = mist_hardware::ClusterSpec::for_gpu_count(Platform::GcpL4, w.gpus);
    let db = mist_hardware::OpCostDb::new(cluster.gpu.clone());
    let cand = StageCandidate {
        mesh: DeviceMesh::new(1, 1),
        dp: 1,
        tp: 1,
        micro_batch: 1,
        role: StageRole::Only,
    };
    let tapes = StageAnalyzer::new(&model, &cluster, &db).analyze(&cand);
    CompiledProgram::compile(&tapes.program).tier_name()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_owned(), |(_, m)| m.trim().to_owned())
}

/// SplitMix64: the seeded schedule generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Runs every workload once, briefly, in both modes; checks that each
/// metric `BENCHMARK.json` declares is printed with its unit and that
/// the correctness checks trip on perturbed answers. Returns the exit
/// code.
fn self_test() -> i32 {
    let spec: Value = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .expect("BENCHMARK.json in the working directory");
    let declared = |section: &str| -> Vec<(String, String)> {
        match field(&spec, section) {
            Some(Value::Array(items)) => items
                .iter()
                .filter_map(|m| match (field(m, "name"), field(m, "unit")) {
                    (Some(Value::Str(n)), Some(Value::Str(u))) => Some((n.clone(), u.clone())),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let mut failures = Vec::new();
    for w in WORKLOADS {
        for traced in [false, true] {
            let result = run(w, 1, 0.0, 1, traced);
            let section = if traced { "per_layer" } else { "end_to_end" };
            for (name, unit) in declared(section) {
                match result.metrics.iter().find(|m| m.name == name) {
                    Some(m) if m.unit == unit => {}
                    Some(m) => {
                        failures.push(format!("{} {name}: unit {} != {unit}", w.name, m.unit))
                    }
                    None => failures.push(format!("{} {section}: {name} missing", w.name)),
                }
            }
            if result.metrics.len() != declared(section).len() {
                failures.push(format!("{} {section}: undeclared metrics printed", w.name));
            }
            if result.failed > 0 {
                failures.push(format!(
                    "{} (trace {traced}): {} failed",
                    w.name, result.failed
                ));
            }
            println!("{}", result.json());
        }
    }

    // Perturbed answers must be caught.
    let w = &WORKLOADS[0];
    let session = MistSession::builder(
        gpt3(w.size, 2048, AttentionImpl::Flash),
        Platform::GcpL4,
        w.gpus,
    )
    .seed(1)
    .build();
    let outcome = session.tune(w.batch).expect("feasible");
    let mut check = TuneCheck::default();
    if !check.check(&outcome, true) || !check.check(&outcome.clone(), true) {
        failures.push("an identical outcome failed the check".into());
    }
    let mut perturbed = outcome.clone();
    perturbed.predicted_iteration = f64::from_bits(perturbed.predicted_iteration.to_bits() + 1);
    if check.check(&perturbed, true) {
        failures.push("a one-ulp change of predicted_iteration passed the check".into());
    }
    if check.check(&outcome, false) {
        failures.push("a failed certificate passed the check".into());
    }
    let mut answers = ResultCheck::default();
    answers.reference("k", "{\"a\":1}".into());
    answers.record("k", "{\"a\":1}".into());
    answers.record("k", "{\"a\":2}".into());
    answers.record("unreferenced", "{\"a\":1}".into());
    if answers.mismatches() != 2 {
        failures.push("a perturbed daemon result passed the check".into());
    }

    for f in &failures {
        eprintln!("self-test: {f}");
    }
    println!(
        "self-test: {} workloads, {}",
        WORKLOADS.len(),
        if failures.is_empty() { "ok" } else { "FAILED" }
    );
    i32::from(!failures.is_empty())
}
