//! Benchmarks Algorithm 1: scalar, batched and columnar interference
//! estimation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mist::InterferenceModel;

fn mixes(n: usize) -> Vec<[f64; 4]> {
    (0..n)
        .map(|i| {
            [
                1e-3 * (1 + i % 7) as f64,
                if i % 2 == 0 {
                    0.4e-3 * (i % 5) as f64
                } else {
                    0.0
                },
                if i % 3 == 0 { 0.2e-3 } else { 0.0 },
                if i % 5 == 0 { 0.3e-3 } else { 0.0 },
            ]
        })
        .collect()
}

fn bench_scalar(c: &mut Criterion) {
    let m = InterferenceModel::pcie_defaults();
    let xs = mixes(64);
    c.bench_function("interference/scalar", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for x in &xs {
                acc += m.predict(black_box(*x));
            }
            black_box(acc)
        })
    });
}

fn bench_batched(c: &mut Criterion) {
    let m = InterferenceModel::pcie_defaults();
    let mut group = c.benchmark_group("interference/batched");
    for n in [100usize, 10000] {
        let rows = mixes(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &rows, |b, rows| {
            b.iter(|| black_box(m.predict_batch(black_box(rows))))
        });
    }
    group.finish();
}

fn bench_columns(c: &mut Criterion) {
    let m = InterferenceModel::pcie_defaults();
    let mut group = c.benchmark_group("interference/columns");
    for n in [100usize, 10000] {
        let rows = mixes(n);
        let cols: [Vec<f64>; 4] = std::array::from_fn(|i| rows.iter().map(|r| r[i]).collect());
        let mut out = vec![0.0; n];
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &cols, |b, cols| {
            b.iter(|| {
                m.predict_columns(black_box(cols.each_ref().map(|c| &c[..])), &mut out);
                black_box(&out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scalar, bench_batched, bench_columns);
criterion_main!(benches);
