//! Smoke-run of the symbolic-evaluation benchmark (paper Fig. 16's
//! substrate): times what the tuner's intra-stage sweep actually runs —
//! the compiled generic 22-root stage program and the compiled two-root
//! `mem_pair` — over one candidate-shaped batch, and records both
//! throughputs in `results/bench_symbolic.json`.
//!
//! The batch has the shape `IntraStageTuner::sweep_candidate` builds for
//! one `(dp, tp, b)` candidate of the `mist` space: 324 `(zero, offload)`
//! groups × 31 layer counts, group-major and layer-minor, with the knobs
//! as value columns and `inflight` as a broadcast scalar.
//!
//! This is the cheap, always-runnable counterpart of the Criterion bench
//! in `benches/symbolic_eval.rs`; the verify recipe and the CI golden
//! gate run it to catch evaluator regressions (`scripts/golden_diff.py`
//! fails on a >10% rows/sec drop).

use std::time::Instant;

use mist::presets::{gpt3, AttentionImpl, ModelSize};
use mist::{
    ClusterSpec, DeviceMesh, GpuSpec, OpCostDb, Platform, SearchSpace, StageAnalyzer,
    StageCandidate, StageRole,
};
use mist_bench::write_json;
use mist_symbolic::{BatchBindings, Column, CompiledProgram, CompiledWorkspace, Program};
use serde::Serialize;

#[derive(Serialize)]
struct BenchResult {
    batch_size: usize,
    iterations: usize,
    stage_ns_per_batch: f64,
    stage_rows_per_sec: f64,
    mem_pair_ns_per_batch: f64,
    mem_pair_rows_per_sec: f64,
    program_instructions: usize,
    mem_pair_instructions: usize,
    compiled_steps: usize,
    mem_pair_steps: usize,
    compiled_superinstrs: usize,
    compiled_tier: &'static str,
}

/// Layer counts per `(zero, offload)` group: 324 groups × 31 ≈ 10k rows.
const LAYERS: u32 = 31;

/// One candidate's sweep rows as columns, in the sweep's row order.
/// `ckpt` stays inside the declared domain (`ckpt <= L`).
fn candidate_batch(space: &SearchSpace) -> BatchBindings {
    let mut cols: [Vec<f64>; 7] = Default::default();
    for &zero in space.zero_levels() {
        for off in space.offload_combos() {
            for l in 1..=LAYERS {
                let row = cols[0].len() as u32;
                cols[0].push(f64::from(l));
                cols[1].push(f64::from((row % 8).min(l)));
                cols[2].push(f64::from(zero));
                for (col, &v) in cols[3..].iter_mut().zip(&off) {
                    col.push(v);
                }
            }
        }
    }
    let mut batch = BatchBindings::new(cols[0].len());
    for (name, col) in ["L", "ckpt", "zero", "wo", "go", "oo", "ao"]
        .into_iter()
        .zip(cols)
    {
        batch.set_values(name, col);
    }
    batch.set_scalar("inflight", 2.0);
    batch
}

/// Checks every 97th row of `compiled`'s outputs against the scalar
/// reference `Program::eval_scalar`, bit for bit.
fn spot_check(program: &Program, compiled: &CompiledProgram, batch: &BatchBindings) {
    let mut ws = CompiledWorkspace::new();
    compiled.eval_batch(batch, &mut ws).unwrap();
    let mut out = Vec::new();
    for row in (0..batch.len()).step_by(97) {
        let inputs: Vec<f64> = program
            .symbols()
            .names()
            .iter()
            .map(|name| match batch.column(name).expect("bound symbol") {
                Column::Scalar(v) => *v,
                Column::Values(v) => v[row],
            })
            .collect();
        program.eval_scalar(&inputs, &mut out).unwrap();
        for (root, want) in out.iter().enumerate() {
            assert_eq!(
                ws.output(root)[row].to_bits(),
                want.to_bits(),
                "compiled drifted from eval_scalar at root {root} row {row}"
            );
        }
    }
}

/// Times `f` once per iteration and returns the fastest observed
/// per-iteration time in nanoseconds. The minimum — not the mean — is
/// what the CI throughput gate needs on shared runners: a single
/// descheduling inside one iteration can double a 20-iteration mean,
/// while the fastest iteration is the closest observation of the true
/// cost of the code under test and is stable run to run.
fn min_time_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Fastest of `iters` evaluations of `compiled` over `batch`, after a
/// warm-up call that sizes the workspace.
fn time_eval(compiled: &CompiledProgram, batch: &BatchBindings, iters: usize) -> f64 {
    let mut ws = CompiledWorkspace::new();
    compiled.eval_batch(batch, &mut ws).unwrap();
    min_time_ns(iters, || {
        compiled
            .eval_batch(std::hint::black_box(batch), &mut ws)
            .unwrap();
        std::hint::black_box(ws.output(0)[0]);
    })
}

fn main() {
    let model = gpt3(ModelSize::B6_7, 2048, AttentionImpl::Flash);
    let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 8);
    let db = OpCostDb::new(GpuSpec::l4());
    let analyzer = StageAnalyzer::new(&model, &cluster, &db);
    let tapes = analyzer.analyze(&StageCandidate {
        mesh: DeviceMesh::new(1, 8),
        dp: 4,
        tp: 2,
        micro_batch: 2,
        role: StageRole::Only,
    });
    let (stage, mem_pair) = tapes.compiled();

    let iters = 40usize;
    let batch = candidate_batch(&SearchSpace::mist());
    let n = batch.len();
    spot_check(&tapes.program, stage, &batch);
    spot_check(&tapes.mem_pair, mem_pair, &batch);

    let stage_ns = time_eval(stage, &batch, iters);
    let mem_pair_ns = time_eval(mem_pair, &batch, iters);

    let result = BenchResult {
        batch_size: n,
        iterations: iters,
        stage_ns_per_batch: stage_ns,
        stage_rows_per_sec: n as f64 / (stage_ns * 1e-9),
        mem_pair_ns_per_batch: mem_pair_ns,
        mem_pair_rows_per_sec: n as f64 / (mem_pair_ns * 1e-9),
        program_instructions: tapes.program.len(),
        mem_pair_instructions: tapes.mem_pair.len(),
        compiled_steps: stage.num_steps(),
        mem_pair_steps: mem_pair.num_steps(),
        compiled_superinstrs: stage.superinstrs(),
        compiled_tier: stage.tier_name(),
    };
    println!(
        "stage program: {:.3} ms/batch, {:.1}M rows/sec ({} instrs, {} steps, \
         {} superinstrs, {} tier)",
        result.stage_ns_per_batch / 1e6,
        result.stage_rows_per_sec / 1e6,
        result.program_instructions,
        result.compiled_steps,
        result.compiled_superinstrs,
        result.compiled_tier,
    );
    println!(
        "mem_pair: {:.3} ms/batch, {:.1}M rows/sec ({} instrs, {} steps); batch {n} rows",
        result.mem_pair_ns_per_batch / 1e6,
        result.mem_pair_rows_per_sec / 1e6,
        result.mem_pair_instructions,
        result.mem_pair_steps,
    );
    write_json("bench_symbolic", &result);
}
