//! Benchmarks the paper's central performance claim for the symbolic
//! analyzer (§5.2): after one symbolic pass, evaluating a configuration is
//! a value substitution — orders of magnitude faster than re-running the
//! analysis per configuration (the "traditional simulator" takes ~6 s per
//! configuration; re-tracing here plays that role).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mist::presets::{gpt3, AttentionImpl, ModelSize};
use mist::{
    ClusterSpec, DeviceMesh, GpuSpec, OpCostDb, Platform, StageAnalyzer, StageCandidate,
    StageConfigValues, StageRole,
};
use mist_symbolic::{BatchBindings, CompiledWorkspace};

fn setup() -> (mist::presets::ModelSpec, ClusterSpec, OpCostDb) {
    (
        gpt3(ModelSize::B6_7, 2048, AttentionImpl::Flash),
        ClusterSpec::for_gpu_count(Platform::GcpL4, 8),
        OpCostDb::new(GpuSpec::l4()),
    )
}

fn candidate() -> StageCandidate {
    StageCandidate {
        mesh: DeviceMesh::new(1, 8),
        dp: 4,
        tp: 2,
        micro_batch: 2,
        role: StageRole::Only,
    }
}

/// The "traditional analyzer": full re-analysis per configuration.
fn bench_reanalysis(c: &mut Criterion) {
    let (model, cluster, db) = setup();
    let analyzer = StageAnalyzer::new(&model, &cluster, &db);
    let mut group = c.benchmark_group("traditional");
    group.sample_size(30);
    group.bench_function("analyze_per_config", |b| {
        b.iter(|| {
            let tapes = analyzer.analyze(black_box(&candidate()));
            let cfg = StageConfigValues::plain(32, 1);
            black_box(tapes.eval_point(&cfg))
        })
    });
    group.finish();
}

/// Mist: analyze once, substitute values per configuration.
fn bench_substitution(c: &mut Criterion) {
    let (model, cluster, db) = setup();
    let analyzer = StageAnalyzer::new(&model, &cluster, &db);
    let tapes = analyzer.analyze(&candidate());
    let cfg = StageConfigValues {
        layers: 32,
        ckpt: 8,
        zero: 2,
        wo: 0.0,
        go: 0.5,
        oo: 1.0,
        ao: 0.25,
        inflight: 2,
    };
    c.bench_function("mist/scalar_substitution", |b| {
        b.iter(|| black_box(tapes.eval_point(black_box(&cfg))))
    });
}

/// Batched substitution: the amortized per-configuration cost, through
/// the compiled 22-root stage program the tuner's sweep runs.
fn bench_batched(c: &mut Criterion) {
    let (model, cluster, db) = setup();
    let analyzer = StageAnalyzer::new(&model, &cluster, &db);
    let tapes = analyzer.analyze(&candidate());
    let (program, _) = tapes.compiled();
    let mut ws = CompiledWorkspace::new();
    let mut group = c.benchmark_group("mist/batched_substitution");
    for n in [100usize, 1000, 10000] {
        let batch = grid_batch(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                program.eval_batch(black_box(&batch), &mut ws).unwrap();
                black_box(ws.output(0));
            })
        });
    }
    group.finish();
}

/// Fills a batch with a representative knob grid of `n` rows.
fn grid_batch(n: usize) -> BatchBindings {
    let mut batch = BatchBindings::new(n);
    batch.set_values("L", (0..n).map(|i| 1.0 + (i % 32) as f64).collect());
    batch.set_values("ckpt", (0..n).map(|i| (i % 8) as f64).collect());
    batch.set_values("zero", (0..n).map(|i| (i % 4) as f64).collect());
    batch.set_values("wo", (0..n).map(|i| (i % 2) as f64 * 0.5).collect());
    batch.set_values("go", (0..n).map(|i| (i % 3) as f64 * 0.5).collect());
    batch.set_values("oo", (0..n).map(|i| (i % 5) as f64 * 0.25).collect());
    batch.set_values("ao", (0..n).map(|i| (i % 4) as f64 * 0.25).collect());
    batch.set_scalar("inflight", 2.0);
    batch
}

criterion_group!(benches, bench_reanalysis, bench_substitution, bench_batched);
criterion_main!(benches);
