//! Implementation of the `mist-cli` binary.
//!
//! Lives in the library (rather than the binary) so integration tests
//! can drive the full command path in-process; `src/bin/mist-cli.rs` is
//! a thin shim around [`run`].

use std::fmt::Display;
use std::str::FromStr;

use mist_baselines::{space_preset, SPACE_PRESETS};
use mist_telemetry::TraceBuilder;

use crate::presets::{preset, preset_names, AttentionImpl, ModelSpec};
use crate::{ClusterSpec, MistSession, Platform, SearchSpace};

use mist_irlint::{LintReport, Severity};

/// The `mist-cli` help text.
pub fn usage() -> String {
    format!(
        "mist-cli — memory-parallelism co-optimization for LLM training

USAGE:
    mist-cli tune --model <NAME> --platform <l4|a100> --gpus <N> --batch <B>
                  [--space <mist|mist-fine|megatron|deepspeed|aceso|alpa|uniform>]
                  [--seq <LEN>] [--seed <N>] [--threads <N>] [--no-flash]
                  [--execute]
                  [--trace <FILE>] [--metrics]
                  [--json] [--journal <FILE>]
    mist-cli explain [--json] [--top <K>] <FILE>
    mist-cli lint-ir [--model <NAME>] [--platform <l4|a100>]
                     [--space <mist|mist-fine|megatron|deepspeed|aceso|alpa|uniform>]
                     [--seq <LEN>] [--no-flash] [--json]
    mist-cli verify-plan [--model <NAME>] [--platform <l4|a100>] [--gpus <N>]
                         [--batch <B>] [--space <NAME>] [--seq <LEN>]
                         [--no-flash] [--budget-gib <GIB>]
                         [--max-grad-accum <N>] [--max-outer-candidates <N>]
                         [--threads <N>] [--json]
    mist-cli serve --listen <ADDR> [--cache <FILE>] [--threads <N>]
    mist-cli query --connect <ADDR> [--model <NAME> --gpus <N> --batch <B>]
                   [--platform <l4|a100>] [--space <NAME>] [--seq <LEN>]
                   [--budget-gib <GIB>] [--qos <interactive|exhaustive>]
                   [--no-cache] [--no-flash] [--seed <N>]
                   [--max-grad-accum <N>] [--ping] [--stats] [--shutdown]
    mist-cli models
    mist-cli spaces
    mist-cli help

MODEL NAMES:
    <family>-<size> with family in {{gpt3, llama, falcon}} and size in
    {{1.3b, 2.6b, 6.7b, 13b, 22b, 40b}}, e.g. gpt3-6.7b, llama-13b.

OPTIONS:
    --seq <LEN>    sequence length (default: 2048 on L4, 4096 on A100)
    --seed <N>     seed for the interference-calibration benchmarks
                   (default: {:#X}; changes the fitted model, not the
                   search itself)
    --threads <N>  threads for the tuner's parallel phases, at most 1024
                   (default: the machine's available parallelism; results
                   are byte-identical at any value, only wall-clock
                   changes)
    --no-flash     use standard attention instead of FlashAttention
    --execute      run the tuned plan on the cluster simulator and report
                   the measured throughput
    --trace <FILE> write a Chrome Trace Event JSON (open in Perfetto or
                   chrome://tracing): the tuner's phase timeline, plus the
                   simulated per-stage/per-stream pipeline Gantt when
                   --execute is given
    --metrics      report collected telemetry counters/gauges (a text
                   table, or a `telemetry` section with --json)
    --json         emit machine-readable JSON instead of text
    --journal <FILE>
                   record the tuner's decision journal (candidate
                   rejections, Pareto frontier summaries, DP
                   pruning) plus the span timeline as JSONL, for
                   `mist-cli explain`

EXPLAIN:
    Digests a decision journal (from tune --journal) or a tune --json
    outcome file: search-space coverage with every enumerated
    configuration attributed to exactly one outcome, a rejection-reason
    histogram, incumbent evolution, the top-k runner-up plans with the
    constraint that killed each one, and a self-time tree from span
    parentage. --top <K> keeps K runner-ups (default 5); --json emits
    the digest as JSON (all wall-clock values under the `timing` key).

LINT-IR:
    Statically verifies the fused symbolic stage programs with the
    `mist-irlint` analyzer: unit consistency, interval bounds (every cost
    root provably finite and non-negative over the search space's symbol
    domains), and dead code. Without --model it sweeps every preset.
    Exit code 1 if any error-severity diagnostic is found.

VERIFY-PLAN:
    Tunes a plan and then re-derives its certificate through the
    `mist-irlint` interval framework, independently of the tuner's
    batched sweeps: each chosen stage is re-analyzed from scratch, its
    roots are bounded with every search symbol pinned to the chosen
    configuration, the bounds must contain the reported stage point and
    prove peak memory fits the budget, and the Eq. 1 objective must be
    reproduced. Without --model it sweeps every preset.
    --max-outer-candidates caps the tuner's outer loop (a deterministic
    work bound, same knob as interactive QoS). Exit code 1 if any
    certificate check fails.

SERVE / QUERY:
    serve runs the planner as a resident daemon speaking line-delimited
    JSON over TCP (--listen host:port) or a Unix socket (--listen
    /path/to.sock). Plans are cached content-addressed: an exact repeat
    query is answered from the cache, and a query differing only in
    global batch, node count, memory budget or grad-accum cap
    warm-starts the tuner from cached per-stage Pareto frontiers —
    byte-identical results, strictly fewer configurations evaluated.
    --cache <FILE> persists the cache as JSONL across restarts. The
    daemon prints `READY <addr>` on stdout once it is accepting.

    query sends one request and prints the one-line JSON response:
    either a plan query (--model/--gpus/--batch, plus --qos interactive
    for a deterministically bounded search, --budget-gib to cap per-GPU
    memory, --no-cache to bypass the cache read *and* write,
    --max-grad-accum, --seed) or a control command (--ping, --stats,
    --shutdown). Exit code 1 if the daemon answered with ok=false.",
        mist_sim::DEFAULT_SEED
    )
}

/// A cursor over one subcommand's arguments, shared by every parser.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    fn new(argv: &'a [String]) -> Self {
        Flags(argv.iter())
    }

    fn next_arg(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value that must follow `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value of `flag` parsed as the field's own type, so an
    /// out-of-range number is an error, never a truncation.
    fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let raw = self.value(flag)?;
        raw.parse().map_err(|e| format!("{flag} `{raw}`: {e}"))
    }

    /// [`Flags::parse`] of a value that must be positive.
    fn positive<T: FromStr + PartialOrd + Default>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v: T = self.parse(flag)?;
        if v > T::default() {
            Ok(v)
        } else {
            Err(format!("{flag} must be positive"))
        }
    }

    /// A per-GPU memory budget in GiB whose byte count is positive and
    /// finite ([`mist_hardware::budget_bytes`]).
    fn budget_gib(&mut self, flag: &str) -> Result<f64, String> {
        let gib = self.parse(flag)?;
        mist_hardware::budget_bytes(gib).map_err(|e| format!("{flag} {e}"))?;
        Ok(gib)
    }

    /// A thread count: positive and at most [`mist_pool::MAX_THREADS`].
    fn threads(&mut self, flag: &str) -> Result<usize, String> {
        let n = self.positive(flag)?;
        if n > mist_pool::MAX_THREADS {
            return Err(format!("{flag} must be at most {}", mist_pool::MAX_THREADS));
        }
        Ok(n)
    }

    /// A gradient-accumulation cap: positive and at most
    /// [`mist_tuner::MAX_GRAD_ACCUM`].
    fn grad_accum_cap(&mut self, flag: &str) -> Result<u32, String> {
        let cap = self.positive(flag)?;
        if cap > mist_tuner::MAX_GRAD_ACCUM {
            return Err(format!(
                "{flag} must be at most {}",
                mist_tuner::MAX_GRAD_ACCUM
            ));
        }
        Ok(cap)
    }
}

/// The named preset, or every preset when `name` is `None`.
fn model_presets(
    name: Option<&str>,
    seq: u64,
    attention: AttentionImpl,
) -> Result<Vec<ModelSpec>, String> {
    match name {
        Some(name) => Ok(vec![preset(name, seq, attention)?]),
        None => preset_names()
            .iter()
            .map(|name| preset(name, seq, attention))
            .collect(),
    }
}

struct Args {
    model: String,
    platform: Platform,
    gpus: u32,
    batch: u64,
    space: SearchSpace,
    seq: Option<u64>,
    seed: Option<u64>,
    threads: Option<usize>,
    attention: AttentionImpl,
    execute: bool,
    trace: Option<String>,
    metrics: bool,
    json: bool,
    journal: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        model: String::new(),
        platform: Platform::GcpL4,
        gpus: 0,
        batch: 0,
        space: SearchSpace::mist(),
        seq: None,
        seed: None,
        threads: None,
        attention: AttentionImpl::Flash,
        execute: false,
        trace: None,
        metrics: false,
        json: false,
        journal: None,
    };
    let mut flags = Flags::new(argv);
    while let Some(arg) = flags.next_arg() {
        match arg {
            "--model" => args.model = flags.value(arg)?,
            "--platform" => args.platform = Platform::parse(&flags.value(arg)?)?,
            "--gpus" => args.gpus = flags.positive(arg)?,
            "--batch" => args.batch = flags.positive(arg)?,
            "--space" => args.space = space_preset(&flags.value(arg)?)?,
            "--seq" => args.seq = Some(flags.positive(arg)?),
            "--seed" => args.seed = Some(flags.parse(arg)?),
            "--threads" => args.threads = Some(flags.threads(arg)?),
            "--no-flash" => args.attention = AttentionImpl::Standard,
            "--execute" => args.execute = true,
            "--trace" => args.trace = Some(flags.value(arg)?),
            "--metrics" => args.metrics = true,
            "--json" => args.json = true,
            "--journal" => args.journal = Some(flags.value(arg)?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.model.is_empty() {
        return Err("--model is required".into());
    }
    if args.gpus == 0 {
        return Err("--gpus is required".into());
    }
    if args.batch == 0 {
        return Err("--batch is required".into());
    }
    ClusterSpec::check_gpu_count(args.gpus).map_err(|e| format!("--gpus {e}"))?;
    Ok(args)
}

fn run_tune(args: Args) -> Result<(), String> {
    // Telemetry must be on before the session is built so the
    // calibration pass (benchmark + interference fit) is captured too.
    let collector = mist_telemetry::global();
    let telemetry_on = args.trace.is_some() || args.metrics || args.journal.is_some();
    if telemetry_on {
        collector.reset();
        collector.enable();
    }
    let journal = mist_telemetry::global_journal();
    if args.journal.is_some() {
        journal.reset();
        journal.enable();
    }
    if let Some(n) = args.threads {
        mist_pool::set_global_threads(n);
    }
    let result = run_tune_inner(&args, telemetry_on);
    if args.journal.is_some() {
        journal.disable();
    }
    if telemetry_on {
        collector.disable();
    }
    result
}

fn run_tune_inner(args: &Args, telemetry_on: bool) -> Result<(), String> {
    let collector = mist_telemetry::global();
    let seq = args.seq.unwrap_or(args.platform.default_seq());
    let model = preset(&args.model, seq, args.attention)?;
    let mut builder =
        MistSession::builder(model.clone(), args.platform, args.gpus).space(args.space.clone());
    if let Some(seed) = args.seed {
        builder = builder.seed(seed);
    }
    let session = builder.build();
    let Some(outcome) = session.tune(args.batch) else {
        if args.json {
            println!("{{\"feasible\": false}}");
        } else {
            eprintln!(
                "no feasible plan: {} does not fit {} GPUs in the `{}` space \
                 (try a larger cluster or the full `mist` space)",
                model.name, args.gpus, args.space.name
            );
        }
        return Err("infeasible".into());
    };

    let measured = if args.execute {
        Some(session.execute(&outcome))
    } else {
        None
    };

    // Spans are harvested once, after tune *and* execute, so both the
    // tuner phase timeline and the simulator's own spans are complete;
    // the trace and the journal share the same harvest.
    let spans = if args.trace.is_some() || args.journal.is_some() {
        collector.take_spans()
    } else {
        Vec::new()
    };
    if let Some(path) = &args.trace {
        let mut trace = TraceBuilder::new();
        trace.process_name(0, "mist-tuner");
        trace.add_spans(0, &spans);
        if let Some(m) = &measured {
            m.export_chrome_trace(&mut trace, 1);
        }
        std::fs::write(path, trace.to_json())
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    }
    if let Some(path) = &args.journal {
        let header = serde_json::json!({
            "version": 1u64,
            "model": model.name,
            "space": args.space.name,
            "platform": args.platform.name(),
            "gpus": args.gpus,
            "batch": args.batch,
            "seq": seq,
        });
        crate::explain::write_journal_file(path, header, &outcome.stats, &spans)?;
    }
    let metrics_snapshot = if telemetry_on {
        collector.snapshot()
    } else {
        outcome.telemetry.clone()
    };

    if args.json {
        let plan_json = serde_json::to_value(&outcome.plan).map_err(|e| e.to_string())?;
        let mut out = serde_json::json!({
            "feasible": true,
            "model": model.name,
            "space": args.space.name,
            "predicted_iteration_s": outcome.predicted_iteration,
            "predicted_throughput": outcome.predicted_throughput,
            "tuning_seconds": outcome.stats.elapsed_secs,
            "configs_evaluated": outcome.stats.configs_evaluated,
            "measured_iteration_s": measured.as_ref().map(|m| m.iteration_time),
            "measured_throughput": measured.as_ref().map(|m| m.throughput(args.batch)),
            "plan": plan_json,
        });
        if args.metrics {
            if let serde_json::Value::Object(fields) = &mut out {
                fields.push((
                    "telemetry".to_owned(),
                    serde_json::to_value(&metrics_snapshot).map_err(|e| e.to_string())?,
                ));
            }
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!(
        "model:  {} (seq {seq}, {})",
        model.name,
        match args.attention {
            AttentionImpl::Flash => "FlashAttention",
            AttentionImpl::Standard => "standard attention",
        }
    );
    println!("space:  {}", args.space.name);
    println!(
        "plan:   G={}  S={}  ({} configs evaluated in {:.2}s)",
        outcome.plan.grad_accum,
        outcome.plan.num_stages(),
        outcome.stats.configs_evaluated,
        outcome.stats.elapsed_secs
    );
    for (i, st) in outcome.plan.stages.iter().enumerate() {
        let c = &st.config;
        println!(
            "  stage {i}: {:>2} layers  dp={} tp={} b={}  ZeRO-{}  ckpt={}  \
             wo={} go={} oo={} ao={}",
            c.layers,
            st.candidate.dp,
            st.candidate.tp,
            st.candidate.micro_batch,
            c.zero,
            c.ckpt,
            c.wo,
            c.go,
            c.oo,
            c.ao
        );
    }
    println!(
        "predicted: {:.3} s/iteration  ({:.2} samples/s)",
        outcome.predicted_iteration, outcome.predicted_throughput
    );
    if let Some(m) = &measured {
        println!(
            "measured:  {:.3} s/iteration  ({:.2} samples/s, {:.0}% bubbles, peak {:.1} GiB)",
            m.iteration_time,
            m.throughput(args.batch),
            m.bubble_fraction() * 100.0,
            m.stage_peak_mem.iter().cloned().fold(0.0, f64::max) / crate::GIB
        );
    }
    if args.metrics {
        println!("telemetry:");
        for line in metrics_snapshot.text_table().lines() {
            println!("  {line}");
        }
    }
    if let Some(path) = &args.trace {
        println!("trace:  {path} (open in https://ui.perfetto.dev)");
    }
    if let Some(path) = &args.journal {
        println!("journal: {path} (digest with `mist-cli explain {path}`)");
    }
    Ok(())
}

struct ExplainArgs {
    file: String,
    json: bool,
    top: usize,
}

fn parse_explain_args(argv: &[String]) -> Result<ExplainArgs, String> {
    let mut args = ExplainArgs {
        file: String::new(),
        json: false,
        top: crate::explain::DEFAULT_TOP_K,
    };
    let mut flags = Flags::new(argv);
    while let Some(arg) = flags.next_arg() {
        match arg {
            "--json" => args.json = true,
            "--top" => args.top = flags.positive(arg)?,
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            path => {
                if !args.file.is_empty() {
                    return Err("explain takes exactly one file".into());
                }
                args.file = path.to_owned();
            }
        }
    }
    if args.file.is_empty() {
        return Err("explain requires a journal or outcome file".into());
    }
    Ok(args)
}

struct LintArgs {
    model: Option<String>,
    platform: Platform,
    space: SearchSpace,
    seq: Option<u64>,
    attention: AttentionImpl,
    json: bool,
}

fn parse_lint_args(argv: &[String]) -> Result<LintArgs, String> {
    let mut args = LintArgs {
        model: None,
        platform: Platform::GcpL4,
        space: SearchSpace::mist(),
        seq: None,
        attention: AttentionImpl::Flash,
        json: false,
    };
    let mut flags = Flags::new(argv);
    while let Some(arg) = flags.next_arg() {
        match arg {
            "--model" => args.model = Some(flags.value(arg)?),
            "--platform" => args.platform = Platform::parse(&flags.value(arg)?)?,
            "--space" => args.space = space_preset(&flags.value(arg)?)?,
            "--seq" => args.seq = Some(flags.positive(arg)?),
            "--no-flash" => args.attention = AttentionImpl::Standard,
            "--json" => args.json = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

fn lint_report_json(report: &LintReport) -> serde_json::Value {
    let diagnostics: Vec<serde_json::Value> = report
        .diagnostics
        .iter()
        .map(|d| {
            serde_json::json!({
                "severity": d.severity.to_string(),
                "analysis": d.analysis.to_string(),
                "code": d.code,
                "slot": d.slot,
                "root": d.root,
                "message": d.message,
            })
        })
        .collect();
    serde_json::json!({
        "program": report.program,
        "errors": report.error_count(),
        "warnings": report.warning_count(),
        "info": report.info_count(),
        "diagnostics": diagnostics,
    })
}

/// Runs `lint-ir`; `Ok(true)` means no error-severity diagnostics.
fn run_lint_ir(args: LintArgs) -> Result<bool, String> {
    let seq = args.seq.unwrap_or(args.platform.default_seq());
    let models = model_presets(args.model.as_deref(), seq, args.attention)?;

    let lints: Vec<crate::ModelLint> = models
        .iter()
        .map(|m| crate::lint_model(m, args.platform, &args.space))
        .collect();
    let (errors, warnings, info) = lints.iter().fold((0, 0, 0), |(e, w, i), l| {
        (
            e + l.error_count(),
            w + l.warning_count(),
            i + l.info_count(),
        )
    });

    if args.json {
        let models_json: Vec<serde_json::Value> = lints
            .iter()
            .map(|l| {
                serde_json::json!({
                    "model": l.model,
                    "errors": l.error_count(),
                    "warnings": l.warning_count(),
                    "info": l.info_count(),
                    "programs": l.reports.iter().map(lint_report_json)
                        .collect::<Vec<_>>(),
                })
            })
            .collect();
        let out = serde_json::json!({
            "schema_version": 3u64,
            "space": args.space.name,
            "errors": errors,
            "warnings": warnings,
            "info": info,
            "models": models_json,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?
        );
        return Ok(errors == 0);
    }

    println!("space:  {}  (seq {seq})", args.space.name);
    for lint in &lints {
        println!(
            "{}: {} programs, {} error(s), {} warning(s), {} info",
            lint.model,
            lint.reports.len(),
            lint.error_count(),
            lint.warning_count(),
            lint.info_count()
        );
        // Severity-sorted within each report already; errors and warnings
        // are worth a line each, info stays in the counts.
        for report in &lint.reports {
            for d in report
                .diagnostics
                .iter()
                .filter(|d| d.severity != Severity::Info)
            {
                println!("  {}: {d}", report.program);
            }
        }
    }
    println!(
        "lint-ir: {} model(s), {} programs, {errors} error(s), {warnings} warning(s), {info} info",
        lints.len(),
        lints.iter().map(|l| l.reports.len()).sum::<usize>(),
    );
    Ok(errors == 0)
}

struct VerifyArgs {
    model: Option<String>,
    platform: Platform,
    gpus: u32,
    batch: u64,
    space: SearchSpace,
    seq: Option<u64>,
    attention: AttentionImpl,
    budget_gib: Option<f64>,
    max_grad_accum: u32,
    max_outer: Option<u32>,
    threads: Option<usize>,
    json: bool,
}

fn parse_verify_args(argv: &[String]) -> Result<VerifyArgs, String> {
    let mut args = VerifyArgs {
        model: None,
        platform: Platform::GcpL4,
        gpus: 4,
        batch: 8,
        space: SearchSpace::mist(),
        seq: None,
        attention: AttentionImpl::Flash,
        budget_gib: None,
        max_grad_accum: 8,
        max_outer: None,
        threads: None,
        json: false,
    };
    let mut flags = Flags::new(argv);
    while let Some(arg) = flags.next_arg() {
        match arg {
            "--model" => args.model = Some(flags.value(arg)?),
            "--platform" => args.platform = Platform::parse(&flags.value(arg)?)?,
            "--gpus" => args.gpus = flags.positive(arg)?,
            "--batch" => args.batch = flags.positive(arg)?,
            "--space" => args.space = space_preset(&flags.value(arg)?)?,
            "--seq" => args.seq = Some(flags.positive(arg)?),
            "--no-flash" => args.attention = AttentionImpl::Standard,
            "--budget-gib" => args.budget_gib = Some(flags.budget_gib(arg)?),
            "--max-grad-accum" => args.max_grad_accum = flags.grad_accum_cap(arg)?,
            "--max-outer-candidates" => args.max_outer = Some(flags.positive(arg)?),
            "--threads" => args.threads = Some(flags.threads(arg)?),
            "--json" => args.json = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    ClusterSpec::check_gpu_count(args.gpus).map_err(|e| format!("--gpus {e}"))?;
    Ok(args)
}

/// Runs `verify-plan`; `Ok(true)` means every preset's plan certified.
fn run_verify_plan(args: VerifyArgs) -> Result<bool, String> {
    use mist_hardware::{OpCostDb, GIB};

    if let Some(n) = args.threads {
        mist_pool::set_global_threads(n);
    }
    let seq = args.seq.unwrap_or(args.platform.default_seq());
    let models = model_presets(args.model.as_deref(), seq, args.attention)?;
    let cluster = ClusterSpec::for_gpu_count(args.platform, args.gpus);
    let budget = match args.budget_gib {
        Some(gib) => mist_hardware::budget_bytes(gib).map_err(|e| format!("--budget-gib {e}"))?,
        None => cluster.gpu.memory_bytes,
    };
    // One calibration for the whole sweep.
    let interference = mist_sim::calibrate(args.platform, mist_sim::DEFAULT_SEED);
    let db = OpCostDb::new(cluster.gpu.clone());

    let mut failed = 0u32;
    let mut models_json = Vec::new();
    for model in &models {
        let mut tuner = mist_tuner::Tuner::new(model, &cluster, &db, &args.space, &interference)
            .with_max_grad_accum(args.max_grad_accum)
            .with_budget(budget);
        if let Some(cap) = args.max_outer {
            tuner = tuner.with_max_outer_candidates(cap);
        }
        let Some(outcome) = tuner.tune(args.batch) else {
            failed += 1;
            if args.json {
                models_json.push(serde_json::json!({
                    "model": model.name,
                    "feasible": false,
                    "certified": false,
                    "failures": ["no feasible plan to certify"],
                }));
            } else {
                println!("{}: FAILED — no feasible plan to certify", model.name);
            }
            continue;
        };
        let report = mist_tuner::certify_plan(
            model,
            &cluster,
            &db,
            &interference,
            &outcome.plan,
            &outcome.stage_points,
            outcome.predicted_iteration,
            budget,
            args.space.overlap_aware,
            "verify",
        );
        let embedded_ok = report.certificate == outcome.certificate;
        let ok = report.ok() && embedded_ok;
        if !ok {
            failed += 1;
        }
        let mut failures = report.failures.clone();
        if !embedded_ok {
            failures.push("embedded certificate disagrees with re-derivation".into());
        }
        let stages = &report.certificate.stages;
        let peak = stages
            .iter()
            .map(|s| s.mem_fwd.hi.max(s.mem_bwd.hi))
            .fold(0.0, f64::max);
        if args.json {
            models_json.push(serde_json::json!({
                "model": model.name,
                "feasible": true,
                "certified": ok,
                "stages": outcome.plan.num_stages(),
                "grad_accum": outcome.plan.grad_accum,
                "objective_s": report.certificate.objective,
                "peak_mem_hi": peak,
                "failures": failures,
            }));
        } else if ok {
            println!(
                "{}: certified (S={} G={}, {} roots checked, peak mem {:.1}/{:.1} GiB)",
                model.name,
                outcome.plan.num_stages(),
                outcome.plan.grad_accum,
                stages.iter().map(|s| s.roots_checked).sum::<u32>(),
                peak / GIB,
                budget / GIB,
            );
        } else {
            println!("{}: FAILED", model.name);
            for f in &failures {
                println!("  {f}");
            }
        }
    }

    if args.json {
        let out = serde_json::json!({
            "schema_version": 1u64,
            "space": args.space.name,
            "gpus": args.gpus,
            "batch": args.batch,
            "budget_bytes": budget,
            "failed": failed,
            "models": models_json,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?
        );
    } else {
        println!("verify-plan: {} model(s), {} failed", models.len(), failed);
    }
    Ok(failed == 0)
}

struct ServeArgs {
    listen: String,
    cache: Option<String>,
    threads: Option<usize>,
}

fn parse_serve_args(argv: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        listen: String::new(),
        cache: None,
        threads: None,
    };
    let mut flags = Flags::new(argv);
    while let Some(arg) = flags.next_arg() {
        match arg {
            "--listen" => args.listen = flags.value(arg)?,
            "--cache" => args.cache = Some(flags.value(arg)?),
            "--threads" => args.threads = Some(flags.threads(arg)?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.listen.is_empty() {
        return Err("serve requires --listen".into());
    }
    Ok(args)
}

fn run_serve(args: &ServeArgs) -> Result<(), String> {
    if let Some(n) = args.threads {
        mist_pool::set_global_threads(n);
    }
    let cache = match &args.cache {
        Some(path) => mist_service::PlanCache::open(path)
            .map_err(|e| format!("cannot open cache {path}: {e}"))?,
        None => mist_service::PlanCache::in_memory(),
    };
    let server = mist_service::Server::bind(&args.listen, mist_service::PlannerService::new(cache))
        .map_err(|e| format!("cannot bind {}: {e}", args.listen))?;
    // Scripts wait for this line before sending their first query.
    println!("READY {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run().map_err(|e| format!("serve failed: {e}"))
}

struct QueryArgs {
    connect: String,
    line: String,
}

fn parse_query_args(argv: &[String]) -> Result<QueryArgs, String> {
    let mut connect = String::new();
    let mut control: Option<&str> = None;
    let mut req = mist_service::PlanRequest::default();
    let mut has_plan_field = false;
    let mut flags = Flags::new(argv);
    while let Some(arg) = flags.next_arg() {
        match arg {
            "--connect" => connect = flags.value(arg)?,
            "--ping" => control = Some("ping"),
            "--stats" => control = Some("stats"),
            "--shutdown" => control = Some("shutdown"),
            _ => {
                has_plan_field = true;
                match arg {
                    "--model" => req.model = flags.value(arg)?,
                    "--platform" => req.platform = flags.value(arg)?,
                    "--gpus" => req.gpus = flags.parse(arg)?,
                    "--batch" => req.batch = flags.parse(arg)?,
                    "--space" => req.space = flags.value(arg)?,
                    "--seq" => req.seq = Some(flags.parse(arg)?),
                    "--budget-gib" => req.budget_gib = Some(flags.budget_gib(arg)?),
                    "--qos" => req.qos = mist_service::Qos::parse(&flags.value(arg)?)?,
                    "--no-cache" => req.no_cache = true,
                    "--no-flash" => req.flash = false,
                    "--seed" => {
                        let raw = flags.value(arg)?;
                        let parsed = raw
                            .strip_prefix("0x")
                            .map(|hex| u64::from_str_radix(hex, 16))
                            .unwrap_or_else(|| raw.parse());
                        req.seed = parsed.map_err(|e| format!("--seed `{raw}`: {e}"))?;
                    }
                    "--max-grad-accum" => req.max_grad_accum = flags.grad_accum_cap(arg)?,
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
        }
    }
    if connect.is_empty() {
        return Err("query requires --connect".into());
    }
    let line = match control {
        Some(cmd) => {
            if has_plan_field {
                return Err(format!("--{cmd} cannot be combined with plan-query flags"));
            }
            format!("{{\"cmd\": \"{cmd}\"}}")
        }
        None => {
            if req.model.is_empty() || req.gpus == 0 || req.batch == 0 {
                return Err("a plan query requires --model, --gpus and --batch".into());
            }
            serde_json::to_string(&req.to_value()).map_err(|e| e.to_string())?
        }
    };
    Ok(QueryArgs { connect, line })
}

fn run_query(args: &QueryArgs) -> Result<bool, String> {
    let response = mist_service::request(&args.connect, &args.line)
        .map_err(|e| format!("query to {} failed: {e}", args.connect))?;
    println!("{response}");
    let ok = matches!(
        serde_json::from_str::<serde::Value>(&response),
        Ok(serde::Value::Object(ref fields))
            if serde::get_field(fields, "ok").ok() == Some(&serde::Value::Bool(true))
    );
    Ok(ok)
}

/// Runs the CLI on already-split arguments (excluding the program name)
/// and returns the process exit code: 0 on success, 1 when a check
/// failed (`lint-ir`, `verify-plan`, a `query` answered with ok=false),
/// 2 on a usage error or an infeasible `tune`.
pub fn run(argv: &[String]) -> u8 {
    let rest = argv.get(1..).unwrap_or_default();
    let passed = match argv.first().map(String::as_str) {
        Some("tune") => parse_args(rest).and_then(run_tune).map(|()| true),
        Some("explain") => parse_explain_args(rest)
            .and_then(|a| crate::explain::run_explain(&a.file, a.json, a.top))
            .map(|()| true),
        Some("lint-ir") => parse_lint_args(rest).and_then(run_lint_ir),
        Some("verify-plan") => parse_verify_args(rest).and_then(run_verify_plan),
        Some("serve") => parse_serve_args(rest)
            .and_then(|a| run_serve(&a))
            .map(|()| true),
        Some("query") => parse_query_args(rest).and_then(|a| run_query(&a)),
        Some("models") => {
            preset_names().iter().for_each(|name| println!("{name}"));
            Ok(true)
        }
        Some("spaces") => {
            SPACE_PRESETS.iter().for_each(|name| println!("{name}"));
            Ok(true)
        }
        Some("help") | None => {
            println!("{}", usage());
            Ok(true)
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{}", usage());
            return 2;
        }
    };
    match passed {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            // `tune` has already explained an infeasible workload.
            if e != "infeasible" {
                eprintln!("error: {e}\n\n{}", usage());
            }
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_accepts_new_flags() {
        let a = parse_args(&sv(&[
            "--model",
            "gpt3-1.3b",
            "--platform",
            "l4",
            "--gpus",
            "2",
            "--batch",
            "8",
            "--seed",
            "7",
            "--trace",
            "/tmp/t.json",
            "--metrics",
        ]))
        .unwrap();
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.trace.as_deref(), Some("/tmp/t.json"));
        assert!(a.metrics);
    }

    #[test]
    fn parse_args_accepts_threads() {
        let a = parse_args(&sv(&[
            "--model",
            "gpt3-1.3b",
            "--gpus",
            "2",
            "--batch",
            "8",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(a.threads, Some(4));
        assert!(parse_args(&sv(&[
            "--model",
            "gpt3-1.3b",
            "--gpus",
            "2",
            "--batch",
            "8",
            "--threads",
            "0",
        ]))
        .is_err());
        // Every parser that sizes the pool caps `--threads` at
        // `MAX_THREADS`, before any pool is built.
        let threads = |n: &str| {
            [
                parse_args(&sv(&[
                    "--model",
                    "gpt3-1.3b",
                    "--gpus",
                    "2",
                    "--batch",
                    "8",
                    "--threads",
                    n,
                ]))
                .map(|a| a.threads),
                parse_verify_args(&sv(&["--threads", n])).map(|a| a.threads),
                parse_serve_args(&sv(&["--listen", "127.0.0.1:0", "--threads", n]))
                    .map(|a| a.threads),
            ]
        };
        assert!(threads("1024").iter().all(|r| *r == Ok(Some(1024))));
        for r in threads("1025") {
            let err = r.unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
    }

    #[test]
    fn parse_args_rejects_missing_values() {
        for flags in [
            vec![
                "--model",
                "gpt3-1.3b",
                "--gpus",
                "2",
                "--batch",
                "8",
                "--seed",
            ],
            vec![
                "--model",
                "gpt3-1.3b",
                "--gpus",
                "2",
                "--batch",
                "8",
                "--trace",
            ],
        ] {
            assert!(parse_args(&sv(&flags)).is_err());
        }
    }

    #[test]
    fn usage_documents_every_flag() {
        for flag in [
            "--seq",
            "--seed",
            "--threads",
            "--no-flash",
            "--execute",
            "--trace",
            "--metrics",
            "--json",
            "--journal",
            "--top",
            "--listen",
            "--cache",
            "--connect",
            "--qos",
            "--budget-gib",
            "--no-cache",
            "--max-grad-accum",
            "--ping",
            "--stats",
            "--shutdown",
            "--max-outer-candidates",
        ] {
            assert!(usage().contains(flag), "usage() must document {flag}");
        }
        assert!(usage().contains("explain"), "usage() must document explain");
        assert!(usage().contains("serve"), "usage() must document serve");
        assert!(usage().contains("query"), "usage() must document query");
        assert!(
            usage().contains("verify-plan"),
            "usage() must document verify-plan"
        );
    }

    #[test]
    fn parse_verify_args_defaults_and_flags() {
        let a = parse_verify_args(&sv(&[])).unwrap();
        assert_eq!(a.gpus, 4);
        assert_eq!(a.batch, 8);
        assert!(a.model.is_none());
        let a = parse_verify_args(&sv(&[
            "--model",
            "llama-13b",
            "--gpus",
            "8",
            "--batch",
            "16",
            "--budget-gib",
            "20",
            "--max-outer-candidates",
            "4",
            "--json",
        ]))
        .unwrap();
        assert_eq!(a.model.as_deref(), Some("llama-13b"));
        assert_eq!(a.gpus, 8);
        assert_eq!(a.max_outer, Some(4));
        assert!(a.json);
        for budget in ["0", "1e300", "inf"] {
            assert!(
                parse_verify_args(&sv(&["--budget-gib", budget])).is_err(),
                "--budget-gib {budget}"
            );
        }
        assert!(parse_verify_args(&sv(&["--bogus"])).is_err());
        // Out-of-range integers are errors, never truncations.
        for flag in ["--gpus", "--max-grad-accum", "--max-outer-candidates"] {
            assert!(
                parse_verify_args(&sv(&[flag, "4294967298"])).is_err(),
                "{flag}"
            );
        }
        assert!(parse_verify_args(&sv(&["--max-grad-accum", "65536"])).is_ok());
        assert!(parse_verify_args(&sv(&["--max-grad-accum", "65537"])).is_err());
    }

    #[test]
    fn parse_serve_args_requires_listen() {
        assert!(parse_serve_args(&sv(&[])).is_err());
        assert!(parse_serve_args(&sv(&["--listen"])).is_err());
        assert!(parse_serve_args(&sv(&["--bogus"])).is_err());
        let a = parse_serve_args(&sv(&[
            "--listen",
            "127.0.0.1:0",
            "--cache",
            "/tmp/plans.jsonl",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(a.listen, "127.0.0.1:0");
        assert_eq!(a.cache.as_deref(), Some("/tmp/plans.jsonl"));
        assert_eq!(a.threads, Some(2));
    }

    #[test]
    fn parse_query_args_builds_wire_lines() {
        assert!(parse_query_args(&sv(&[])).is_err(), "--connect is required");
        assert!(
            parse_query_args(&sv(&["--connect", "x:1"])).is_err(),
            "plan queries need model/gpus/batch"
        );
        assert!(
            parse_query_args(&sv(&["--connect", "x:1", "--ping", "--model", "gpt3-1.3b"])).is_err(),
            "control commands exclude plan flags"
        );

        assert!(
            parse_query_args(&sv(&[
                "--connect",
                "x:1",
                "--model",
                "gpt3-1.3b",
                "--gpus",
                "4294967298",
                "--batch",
                "8",
            ]))
            .is_err(),
            "--gpus out of u32 range must not truncate"
        );

        for budget in ["1e300", "inf"] {
            assert!(
                parse_query_args(&sv(&[
                    "--connect",
                    "x:1",
                    "--model",
                    "gpt3-1.3b",
                    "--gpus",
                    "2",
                    "--batch",
                    "8",
                    "--budget-gib",
                    budget,
                ]))
                .is_err(),
                "--budget-gib {budget} has no finite byte count"
            );
        }

        let ping = parse_query_args(&sv(&["--connect", "x:1", "--ping"])).unwrap();
        assert_eq!(ping.line, "{\"cmd\": \"ping\"}");

        let plan = parse_query_args(&sv(&[
            "--connect",
            "/tmp/mist.sock",
            "--model",
            "gpt3-6.7b",
            "--gpus",
            "8",
            "--batch",
            "16",
            "--qos",
            "interactive",
            "--budget-gib",
            "20.5",
            "--no-cache",
            "--seed",
            "0xAB5EED",
        ]))
        .unwrap();
        // The line must parse back into the same request server-side.
        let parsed = mist_service::Request::parse(&plan.line).unwrap();
        let mist_service::Request::Plan(req) = parsed else {
            panic!("expected a plan request")
        };
        assert_eq!(req.model, "gpt3-6.7b");
        assert_eq!(req.gpus, 8);
        assert_eq!(req.batch, 16);
        assert_eq!(req.qos, mist_service::Qos::Interactive);
        assert_eq!(req.budget_gib, Some(20.5));
        assert!(req.no_cache);
        assert_eq!(req.seed, 0xAB5EED);
    }

    #[test]
    fn parse_args_accepts_journal() {
        let a = parse_args(&sv(&[
            "--model",
            "gpt3-1.3b",
            "--gpus",
            "2",
            "--batch",
            "8",
            "--journal",
            "/tmp/j.jsonl",
        ]))
        .unwrap();
        assert_eq!(a.journal.as_deref(), Some("/tmp/j.jsonl"));
        assert!(parse_args(&sv(&[
            "--model",
            "gpt3-1.3b",
            "--gpus",
            "2",
            "--batch",
            "8",
            "--journal",
        ]))
        .is_err());
    }

    #[test]
    fn parse_explain_args_works() {
        let a = parse_explain_args(&sv(&["--json", "--top", "3", "j.jsonl"])).unwrap();
        assert!(a.json);
        assert_eq!(a.top, 3);
        assert_eq!(a.file, "j.jsonl");
        assert!(parse_explain_args(&sv(&[])).is_err());
        assert!(parse_explain_args(&sv(&["a", "b"])).is_err());
        assert!(parse_explain_args(&sv(&["--top", "0", "j"])).is_err());
        assert!(parse_explain_args(&sv(&["--bogus", "j"])).is_err());
    }
}
